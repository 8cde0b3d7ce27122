//! Benchmark workloads and the `iabc perf` instrument.
//!
//! [`perf`] measures the datapoints of `BENCH_hotpath.json` and checks a
//! run against a committed baseline; `iabc perf` is its command line. The
//! grids below are the workloads the criterion benches in `benches/`
//! sweep, kept here so they can be unit-tested for shape.

pub mod perf;

use iabc_graph::{generators, Digraph};

/// A named benchmark workload: a graph plus the fault bound to check/run.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name (used as the Criterion bench id).
    pub name: String,
    /// The graph.
    pub graph: Digraph,
    /// Fault bound `f`.
    pub f: usize,
}

/// Grid for the Theorem 1 checker scaling bench: condition-satisfying and
/// violating graphs of growing size.
pub fn checker_grid() -> Vec<Workload> {
    let mut out = Vec::new();
    for n in [7usize, 9, 11, 13] {
        out.push(Workload {
            name: format!("complete/n{n}/f2"),
            graph: generators::complete(n),
            f: 2,
        });
    }
    for f in [1usize, 2] {
        let n = 3 * f + 4;
        out.push(Workload {
            name: format!("core_network/n{n}/f{f}"),
            graph: generators::core_network(n, f),
            f,
        });
    }
    out.push(Workload {
        name: "chord/n7/f2 (violated)".into(),
        graph: generators::chord(7, 5),
        f: 2,
    });
    out.push(Workload {
        name: "hypercube/d3/f1 (violated)".into(),
        graph: generators::hypercube(3),
        f: 1,
    });
    out
}

/// Grid for the simulation-throughput bench.
pub fn simulation_grid() -> Vec<Workload> {
    [8usize, 16, 32, 64]
        .into_iter()
        .map(|n| Workload {
            name: format!("core_network/n{n}/f2"),
            graph: generators::core_network(n, 2),
            f: 2,
        })
        .collect()
}

/// Grid for the propagation bench: growing core networks.
pub fn propagation_grid() -> Vec<Workload> {
    [10usize, 20, 40, 80]
        .into_iter()
        .map(|n| Workload {
            name: format!("core_network/n{n}/f2"),
            graph: generators::core_network(n, 2),
            f: 2,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_nonempty_and_well_formed() {
        for w in checker_grid()
            .into_iter()
            .chain(simulation_grid())
            .chain(propagation_grid())
        {
            assert!(w.graph.node_count() > 0, "{}", w.name);
            assert!(!w.name.is_empty());
            assert!(w.graph.node_count() > w.f, "{}", w.name);
        }
    }

    #[test]
    fn checker_grid_mixes_verdicts() {
        let grid = checker_grid();
        let verdicts: Vec<bool> = grid
            .iter()
            .map(|w| iabc_core::theorem1::check(&w.graph, w.f).is_satisfied())
            .collect();
        assert!(verdicts.iter().any(|&v| v), "grid needs satisfying graphs");
        assert!(verdicts.iter().any(|&v| !v), "grid needs violating graphs");
    }
}
