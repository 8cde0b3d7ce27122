//! X5 — head-to-head: Algorithm 1 vs the baselines it descends from.
//!
//! Contenders (all under identical engines, adversaries, and inputs):
//!
//! * **Algorithm 1** (`TrimmedMean`) — the paper's rule, guaranteed on every
//!   Theorem 1 graph;
//! * **Dolev midpoint / select-mean** (\[5\]) — full-exchange rules with
//!   guarantees only on *complete* graphs;
//! * **W-MSR** (\[11\]/\[17\]) — trims relative to the own state; guaranteed
//!   under `(2f+1)`-robustness.
//!
//! Qualitative expectations reproduced here: on complete graphs everything
//! converges and the midpoint rule contracts fastest; on sparse Theorem 1
//! graphs Algorithm 1 retains its guarantee while the Dolev rules run
//! without one (their results are reported, not asserted).

use iabc_baselines::comparison::Faceoff;
use iabc_baselines::{DolevMidpoint, DolevSelectMean, Wmsr};
use iabc_core::rules::{TrimmedMean, UpdateRule};
use iabc_core::{robustness, theorem1};
use iabc_graph::{generators, Digraph, NodeSet};
use iabc_sim::adversary::{Adversary, ExtremesAdversary, PolarizingAdversary};
use iabc_sim::RunConfig;

use crate::table::Table;

use super::ExperimentResult;

struct Workload {
    name: &'static str,
    graph: Digraph,
    f: usize,
    faults: Vec<usize>,
    adversary: fn() -> Box<dyn Adversary>,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "K7 / extremes",
            graph: generators::complete(7),
            f: 2,
            faults: vec![5, 6],
            adversary: || Box::new(ExtremesAdversary::new(50.0)),
        },
        Workload {
            name: "K7 / polarizing",
            graph: generators::complete(7),
            f: 2,
            faults: vec![5, 6],
            adversary: || Box::new(PolarizingAdversary::new()),
        },
        Workload {
            name: "chord(5,3) / polarizing",
            graph: generators::chord(5, 3),
            f: 1,
            faults: vec![4],
            adversary: || Box::new(PolarizingAdversary::new()),
        },
        Workload {
            name: "core(7,2) / extremes",
            graph: generators::core_network(7, 2),
            f: 2,
            faults: vec![5, 6],
            adversary: || Box::new(ExtremesAdversary::new(50.0)),
        },
    ]
}

/// Runs experiment X5 (baseline faceoff).
pub fn x5_baselines() -> ExperimentResult {
    let mut table = Table::new([
        "workload",
        "rule",
        "converged",
        "rounds",
        "final range",
        "valid",
    ]);
    let mut pass = true;
    let mut notes = Vec::new();

    for w in workloads() {
        debug_assert!(theorem1::check(&w.graph, w.f).is_satisfied());
        let n = w.graph.node_count();
        let inputs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let faceoff = Faceoff {
            graph: &w.graph,
            inputs: &inputs,
            fault_set: NodeSet::from_indices(n, w.faults.iter().copied()),
            adversary_factory: &|| (w.adversary)(),
            config: RunConfig {
                record_states: false,
                epsilon: 1e-6,
                max_rounds: 20_000,
            },
        };
        let a1 = TrimmedMean::new(w.f);
        let mid = DolevMidpoint::new(w.f);
        let sel = DolevSelectMean::new(w.f);
        let wmsr = Wmsr::new(w.f);
        let rules: Vec<&dyn UpdateRule> = vec![&a1, &mid, &sel, &wmsr];
        let complete_graph = w.graph.edge_count() == n * (n - 1);
        let robust = robustness::is_robust(&w.graph, 2 * w.f + 1, 1);

        for r in faceoff.run_all(&rules) {
            // Guarantees we hold the contenders to:
            // * Algorithm 1 everywhere (Theorem 3);
            // * everything on complete graphs (Dolev's setting);
            // * W-MSR where (2f+1)-robustness holds.
            let guaranteed =
                r.rule == "trimmed-mean" || complete_graph || (r.rule == "w-msr" && robust);
            if guaranteed && !(r.converged && r.valid) {
                pass = false;
                notes.push(format!("{}: {} broke its guarantee: {r:?}", w.name, r.rule));
            }
            table.row([
                w.name.to_string(),
                r.rule.to_string(),
                r.converged.to_string(),
                r.rounds.to_string(),
                format!("{:.2e}", r.final_range),
                r.valid.to_string(),
            ]);
        }
    }

    notes.push(
        "Dolev rules are only *guaranteed* on complete graphs; their sparse-graph rows \
         are reported as observations"
            .into(),
    );

    ExperimentResult {
        id: "X5".into(),
        title: "Baseline faceoff: Algorithm 1 vs Dolev [5] vs W-MSR [11]".into(),
        notes,
        artifacts: Vec::new(),
        table,
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faceoff_passes() {
        let r = x5_baselines();
        assert!(r.pass, "X5 failed:\n{}\n{:?}", r.table, r.notes);
    }

    #[test]
    fn every_workload_satisfies_theorem1() {
        for w in workloads() {
            assert!(
                theorem1::check(&w.graph, w.f).is_satisfied(),
                "workload {} must run on a satisfying graph",
                w.name
            );
        }
    }

    #[test]
    fn midpoint_beats_algorithm1_on_complete_graph_rounds() {
        let r = x5_baselines();
        // Find the K7/extremes rows for the two rules and compare rounds.
        let rows = r.table.rows();
        let rounds_of = |rule: &str| -> usize {
            rows.iter()
                .find(|row| row[0] == "K7 / extremes" && row[1] == rule)
                .map(|row| row[3].parse().unwrap())
                .expect("row present")
        };
        assert!(rounds_of("dolev-midpoint") <= rounds_of("trimmed-mean"));
    }
}
