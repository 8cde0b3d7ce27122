//! Batched sweep execution: groups same-spec simulation cells into one
//! [`BatchedSimulation`] run instead of dispatching one engine per cell.
//!
//! The sweep grids of this workspace decompose into independent cells,
//! and [`crate::sweep`] already fans those across cores. But many grids
//! contain *simulation* cells that share everything except their RNG
//! seed — same topology, same fault set, same rule, same (deterministic)
//! adversary family. Dispatching one `Simulation` per such cell leaves
//! the FastMath tier's replica-major SoA batching (PR 8) on the table:
//! `R` same-spec cells are exactly an `R`-replica batch.
//!
//! This module closes that gap:
//!
//! * [`SimCellSpec`] names the shareable part of a simulation cell —
//!   topology, fault set, rule, adversary family, run bounds. Two cells
//!   with equal specs are groupable; their coordinate-hashed seeds stay
//!   per-cell.
//! * [`run_sim_cells`] runs a grid of spec'd cells either **dispatched**
//!   (one width-1 batch per cell — the reference path that tests and
//!   benchmarks compare against) or **batched** (same-spec cells grouped,
//!   first-appearance order, one width-`G` batch per group, results
//!   scattered back to grid order).
//!
//! # Why batching is unobservable in the tables
//!
//! Byte-identity of the two paths is *by construction*, not by luck:
//!
//! 1. the dispatch path is literally a width-1 instance of the same group
//!    runner ([`run_spec_group`]), so the only difference is batch width;
//! 2. replicas of a [`BatchedSimulation`] never interact — each lane's
//!    trajectory is a pure function of its own inputs and the
//!    deterministic adversary plan (`tests` in `iabc_sim::fastmath` pin
//!    batch-width-unobservability, and the shared-plan equivalence test
//!    pins that plan sharing is itself bit-identical);
//! 3. a cell's inputs are drawn from its own coordinate seed *inside* the
//!    group runner, in node order, regardless of which lane it lands in;
//! 4. [`SimCellResult`] carries only lane-invariant fields: `converged`
//!    and `rounds` (first-convergence round). The final range is **not**
//!    reported — a converged lane keeps stepping in lockstep inside a
//!    group, so its final range depends on the slowest group member,
//!    which *is* batch-width-observable.
//!
//! # Which grids group
//!
//! Only grids whose cells pin a FastMath simulation spec benefit:
//!
//! * `sweep census --replicas R` — the convergence census
//!   ([`census_conv_cells`]): `R` cells per `(n, f)` differing only in
//!   seed, which the CLI always collapses into width-`R` runs.
//!
//! Two sweep grids have nothing to group:
//!
//! * `sweep experiments` — E-series cells pin the **exact** tier
//!   (bit-exact single runs), and no path silently
//!   switches a cell's tier;
//! * `sweep monte-carlo` — every trial samples a *fresh* random digraph,
//!   so no two sim runs share a topology; its `replicas > 0` mode already
//!   batches *within* each trial.

use iabc_core::fastmath::FastRule;
use iabc_graph::{generators, Digraph, NodeSet};
use iabc_sim::adversary::{Adversary, ConformingAdversary, ConstantAdversary, PullAdversary};
use iabc_sim::fastmath::BatchedSimulation;
use iabc_sim::RunConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sweep::{run_cells, CellCoords, SweepCell, SweepOutcome};
use crate::table::Table;

/// A topology family a sweep cell can name without holding a graph —
/// specs must be `Clone + Eq` so equal cells can be grouped, and dense
/// regular families are the batched tier's core workload (Theorem 1 is a
/// condition on in-neighborhood size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// The complete digraph on `n` nodes (in-degree `n − 1`).
    Complete(usize),
    /// The circulant digraph on `n` nodes with offsets `1..=degree`.
    Circulant {
        /// Node count.
        n: usize,
        /// Number of forward offsets (= uniform in-degree).
        degree: usize,
    },
}

impl Topology {
    /// Materializes the digraph.
    pub fn build(self) -> Digraph {
        match self {
            Topology::Complete(n) => generators::complete(n),
            Topology::Circulant { n, degree } => generators::circulant(n, 1..=degree),
        }
    }

    /// Node count without building the graph.
    pub fn node_count(self) -> usize {
        match self {
            Topology::Complete(n) => n,
            Topology::Circulant { n, .. } => n,
        }
    }

    /// Stable label component, e.g. `complete-9` / `circulant-16x5`.
    pub fn label(self) -> String {
        match self {
            Topology::Complete(n) => format!("complete-{n}"),
            Topology::Circulant { n, degree } => format!("circulant-{n}x{degree}"),
        }
    }
}

/// A deterministic adversary family a spec can name by value. The
/// variants mirror [`iabc_sim::adversary::BatchPlan`] exactly: grouping
/// only ever builds uniform batches of these, so the engine's shared-plan
/// fast path activates for every batched group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversarySpec {
    /// Faulty nodes report their own state honestly.
    Conforming,
    /// Faulty nodes report this constant to everyone.
    Constant(f64),
    /// Faulty nodes report the honest hull's max (or min) each round.
    Pull {
        /// `true` pulls toward the maximum, `false` toward the minimum.
        toward_max: bool,
    },
}

impl AdversarySpec {
    /// Builds one adversary instance of this family.
    pub fn make(self) -> Box<dyn Adversary> {
        match self {
            AdversarySpec::Conforming => Box::new(ConformingAdversary::new()),
            AdversarySpec::Constant(v) => Box::new(ConstantAdversary::new(v)),
            AdversarySpec::Pull { toward_max } => Box::new(PullAdversary::new(toward_max)),
        }
    }

    /// Stable label component.
    pub fn label(self) -> String {
        match self {
            AdversarySpec::Conforming => "conforming".to_string(),
            AdversarySpec::Constant(v) => format!("constant-{v}"),
            AdversarySpec::Pull { toward_max: true } => "pull-max".to_string(),
            AdversarySpec::Pull { toward_max: false } => "pull-min".to_string(),
        }
    }
}

/// Everything two simulation cells must share to ride one batch: the
/// full run recipe minus the seed. Inputs are *not* part of the spec —
/// each cell draws its own from its coordinate seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCellSpec {
    /// Graph family and size.
    pub topology: Topology,
    /// Fault bound; the first `f` nodes are faulty (the canonical sweep
    /// convention, matching the Monte-Carlo grid).
    pub f: usize,
    /// FastMath update rule.
    pub rule: FastRule,
    /// Deterministic adversary family.
    pub adversary: AdversarySpec,
    /// Convergence epsilon of the run.
    pub epsilon: f64,
    /// Round cap of the run.
    pub max_rounds: usize,
}

impl SimCellSpec {
    /// Canonical grouping key: equal labels ⇔ groupable cells.
    pub fn group_label(&self) -> String {
        format!(
            "{}|f={}|{:?}|{}|eps={:e}|cap={}",
            self.topology.label(),
            self.f,
            self.rule,
            self.adversary.label(),
            self.epsilon,
            self.max_rounds,
        )
    }

    /// The fault set this spec implies (first `f` nodes).
    pub fn fault_set(&self) -> NodeSet {
        NodeSet::from_indices(self.topology.node_count(), 0..self.f)
    }
}

/// One batchable simulation cell: grid coordinates (seed source) plus
/// the shared spec.
#[derive(Debug, Clone)]
pub struct SimCell {
    /// The cell's grid coordinates; `coords.seed()` feeds its input draw.
    pub coords: CellCoords,
    /// The shareable run recipe.
    pub spec: SimCellSpec,
}

/// Outcome of one simulation cell. Deliberately limited to the
/// **lane-invariant** observables of a batched run — see the module docs
/// for why the final range is excluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimCellResult {
    /// Did the fault-free range reach epsilon within the round cap?
    pub converged: bool,
    /// First round at which it did (`None` iff the cap fired first).
    pub rounds: Option<usize>,
}

/// Runs one spec at batch width `seeds.len()`: lane `g`'s inputs are `n`
/// draws from `StdRng::seed_from_u64(seeds[g])` in node order, laid out
/// replica-major. The dispatch path is this function at width 1, which
/// is what makes batch-vs-dispatch byte-identity structural.
///
/// # Panics
///
/// On an ineligible spec (trim starvation, empty fault-free set): sweep
/// grids are expected to pre-filter with the Corollary 3 in-degree bound,
/// so an error here is a grid-construction bug, not data.
pub fn run_spec_group(spec: &SimCellSpec, seeds: &[u64]) -> Vec<SimCellResult> {
    let graph = spec.topology.build();
    let n = graph.node_count();
    let width = seeds.len();
    let mut inputs = vec![0.0f64; n * width];
    for (g, &seed) in seeds.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            inputs[i * width + g] = rng.random_range(0.0..1.0);
        }
    }
    let adversary = spec.adversary;
    let mut batch =
        BatchedSimulation::new(&graph, &inputs, spec.fault_set(), spec.rule, width, |_| {
            adversary.make()
        })
        .expect("sweep grids must pre-filter ineligible specs");
    let out = batch
        .run(&RunConfig::bounded(spec.epsilon, spec.max_rounds))
        .expect("eligible specs cannot starve the trim");
    (0..width)
        .map(|g| SimCellResult {
            converged: out.converged[g],
            rounds: out.rounds_to_converge[g],
        })
        .collect()
}

/// Runs a grid of spec'd simulation cells, returning outcomes in grid
/// order. With `batch = false` every cell is its own width-1 group (the
/// reference dispatch path); with `batch = true` same-spec cells are
/// grouped in first-appearance order and each group runs as one
/// width-`G` [`BatchedSimulation`]. Either way groups fan across `jobs`
/// workers via [`run_cells`], and the output is byte-identical.
pub fn run_sim_cells(
    cells: &[SimCell],
    jobs: usize,
    batch: bool,
) -> Vec<SweepOutcome<SimCellResult>> {
    // Group cell *indices* by spec label, first-appearance order. The
    // dispatch path is the degenerate grouping where every cell is alone.
    let mut groups: Vec<(SimCellSpec, Vec<usize>)> = Vec::new();
    if batch {
        let mut labels: Vec<String> = Vec::new();
        for (idx, cell) in cells.iter().enumerate() {
            let label = cell.spec.group_label();
            match labels.iter().position(|l| *l == label) {
                Some(g) => groups[g].1.push(idx),
                None => {
                    labels.push(label);
                    groups.push((cell.spec.clone(), vec![idx]));
                }
            }
        }
    } else {
        groups.extend(
            cells
                .iter()
                .enumerate()
                .map(|(idx, cell)| (cell.spec.clone(), vec![idx])),
        );
    }
    // One sweep cell per group; lane seeds come from the member cells'
    // own coordinates (the group's synthetic coordinates exist only to
    // satisfy the runner — its seed argument is unused).
    let group_cells: Vec<SweepCell<'_, Vec<SimCellResult>>> = groups
        .iter()
        .enumerate()
        .map(|(g, (spec, members))| {
            let seeds: Vec<u64> = members
                .iter()
                .map(|&idx| cells[idx].coords.seed())
                .collect();
            let coords = CellCoords::new("sim-group")
                .with("g", g)
                .with("width", members.len());
            SweepCell::new(coords, move |_seed| run_spec_group(spec, &seeds))
        })
        .collect();
    let group_outcomes = run_cells(group_cells, jobs);
    // Scatter lane results back to grid order under the cells' own
    // coordinates and seeds.
    let mut results: Vec<Option<SimCellResult>> = vec![None; cells.len()];
    for (outcome, (_, members)) in group_outcomes.iter().zip(&groups) {
        for (lane, &idx) in members.iter().enumerate() {
            results[idx] = Some(outcome.value[lane]);
        }
    }
    cells
        .iter()
        .zip(results)
        .map(|(cell, value)| SweepOutcome {
            coords: cell.coords.clone(),
            seed: cell.coords.seed(),
            value: value.expect("every cell belongs to exactly one group"),
        })
        .collect()
}

/// Round cap of the convergence census (matches the Monte-Carlo grid's
/// `MC_BATCH_MAX_ROUNDS`; non-convergence is data, not an error).
pub const CENSUS_CONV_MAX_ROUNDS: usize = 200;

/// Convergence epsilon of the convergence census.
pub const CENSUS_CONV_EPSILON: f64 = 1e-6;

/// Builds the convergence-census grid: for every `(n, f)` with `n` in
/// `2..=max_n` satisfying the complete-graph eligibility `n − 1 > 2f`,
/// one cell per replica index `0..replicas` — coordinates
/// `census-conv[n=…,f=…,replica=…]`. All `replicas` cells of an `(n, f)`
/// share a spec (complete topology, first-`f` faults, trimmed-mean `f`,
/// max-pull attack — the attack that exercises the engine's shared-hull
/// plan path), so batching collapses each `(n, f)` into one
/// width-`replicas` run.
pub fn census_conv_cells(max_n: usize, fs: &[usize], replicas: usize) -> Vec<SimCell> {
    let mut cells = Vec::new();
    for n in 2..=max_n {
        for &f in fs {
            if n < 2 || n.saturating_sub(1) <= 2 * f {
                continue;
            }
            let spec = SimCellSpec {
                topology: Topology::Complete(n),
                f,
                rule: FastRule::TrimmedMean(f),
                adversary: AdversarySpec::Pull { toward_max: true },
                epsilon: CENSUS_CONV_EPSILON,
                max_rounds: CENSUS_CONV_MAX_ROUNDS,
            };
            for replica in 0..replicas {
                let coords = CellCoords::new("census-conv")
                    .with("n", n)
                    .with("f", f)
                    .with("replica", replica);
                cells.push(SimCell {
                    coords,
                    spec: spec.clone(),
                });
            }
        }
    }
    cells
}

/// Runs the convergence census and renders one row per `(n, f)`:
/// replica count, how many replicas converged, and their mean
/// first-convergence round. Bit-identical for any `jobs` and for
/// `batch` on or off.
pub fn run_census_conv_sweep(
    max_n: usize,
    fs: &[usize],
    replicas: usize,
    jobs: usize,
    batch: bool,
) -> Table {
    let cells = census_conv_cells(max_n, fs, replicas);
    let outcomes = run_sim_cells(&cells, jobs, batch);
    let mut table = Table::new(["n", "f", "replicas", "converged", "mean_rounds"]);
    let mut idx = 0;
    while idx < outcomes.len() {
        let spec = &cells[idx].spec;
        let (n, f) = (spec.topology.node_count(), spec.f);
        let slice = &outcomes[idx..idx + replicas];
        let converged = slice.iter().filter(|o| o.value.converged).count();
        let rounds_total: usize = slice.iter().filter_map(|o| o.value.rounds).sum();
        table.row([
            n.to_string(),
            f.to_string(),
            replicas.to_string(),
            converged.to_string(),
            if converged == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", rounds_total as f64 / converged as f64)
            },
        ]);
        idx += replicas;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_cells(widths: &[(SimCellSpec, usize)]) -> Vec<SimCell> {
        let mut cells = Vec::new();
        for (which, (spec, count)) in widths.iter().enumerate() {
            for i in 0..*count {
                let coords = CellCoords::new("demo").with("s", which).with("i", i);
                cells.push(SimCell {
                    coords,
                    spec: spec.clone(),
                });
            }
        }
        cells
    }

    fn pull_spec(n: usize, f: usize) -> SimCellSpec {
        SimCellSpec {
            topology: Topology::Complete(n),
            f,
            rule: FastRule::TrimmedMean(f),
            adversary: AdversarySpec::Pull { toward_max: true },
            epsilon: 1e-6,
            max_rounds: 200,
        }
    }

    #[test]
    fn batched_results_are_identical_to_dispatch_at_any_job_count() {
        let cells = demo_cells(&[
            (pull_spec(9, 2), 5),
            (
                SimCellSpec {
                    adversary: AdversarySpec::Constant(1e9),
                    ..pull_spec(9, 2)
                },
                4,
            ),
            (pull_spec(7, 1), 3),
        ]);
        let reference = run_sim_cells(&cells, 1, false);
        for (jobs, batch) in [(1, true), (4, false), (4, true), (3, true)] {
            let got = run_sim_cells(&cells, jobs, batch);
            assert_eq!(got.len(), reference.len());
            for (r, g) in reference.iter().zip(&got) {
                assert_eq!(r.coords, g.coords, "jobs={jobs} batch={batch}");
                assert_eq!(r.seed, g.seed, "jobs={jobs} batch={batch}");
                assert_eq!(r.value, g.value, "jobs={jobs} batch={batch}");
            }
        }
    }

    #[test]
    fn grouping_preserves_first_appearance_order_with_interleaved_specs() {
        // Interleave two specs so grid order ≠ group order; scatter must
        // still restore grid order.
        let a = pull_spec(7, 1);
        let b = pull_spec(9, 2);
        let mut cells = Vec::new();
        for i in 0..4 {
            for (tag, spec) in [("a", &a), ("b", &b)] {
                cells.push(SimCell {
                    coords: CellCoords::new("mix").with("t", tag).with("i", i),
                    spec: spec.clone(),
                });
            }
        }
        let dispatched = run_sim_cells(&cells, 1, false);
        let batched = run_sim_cells(&cells, 1, true);
        for (d, g) in dispatched.iter().zip(&batched) {
            assert_eq!(d.coords, g.coords);
            assert_eq!(d.value, g.value);
        }
    }

    #[test]
    fn census_conv_sweep_is_batch_and_jobs_invariant() {
        let reference = run_census_conv_sweep(7, &[0, 1], 4, 1, false).to_string();
        for (jobs, batch) in [(1, true), (4, true), (4, false)] {
            assert_eq!(
                reference,
                run_census_conv_sweep(7, &[0, 1], 4, jobs, batch).to_string(),
                "jobs={jobs} batch={batch}"
            );
        }
        // Every eligible (n, f) converges under max-pull on a complete
        // graph well inside the cap.
        assert!(reference.contains("mean_rounds"));
        assert!(!reference.contains('-') || !reference.lines().skip(2).any(|l| l.contains(" - ")));
    }

    #[test]
    fn census_conv_grid_skips_ineligible_fault_bounds() {
        // n − 1 > 2f: at n = 4, f = 2 needs in-degree > 4 — excluded.
        let cells = census_conv_cells(4, &[0, 1, 2], 2);
        assert!(cells
            .iter()
            .all(|c| c.spec.topology.node_count().saturating_sub(1) > 2 * c.spec.f));
        // n ∈ {2,3,4}: f=0 eligible from n=2, f=1 from n=4, f=2 never.
        assert_eq!(cells.len(), (3 + 1) * 2);
    }

    #[test]
    fn spec_group_labels_separate_every_field() {
        let base = pull_spec(9, 2);
        let variants = [
            SimCellSpec {
                topology: Topology::Circulant { n: 9, degree: 6 },
                ..base.clone()
            },
            SimCellSpec {
                f: 1,
                rule: FastRule::TrimmedMean(1),
                ..base.clone()
            },
            SimCellSpec {
                rule: FastRule::TrimmedMidpoint(2),
                ..base.clone()
            },
            SimCellSpec {
                adversary: AdversarySpec::Pull { toward_max: false },
                ..base.clone()
            },
            SimCellSpec {
                epsilon: 1e-9,
                ..base.clone()
            },
            SimCellSpec {
                max_rounds: 100,
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(v.group_label(), base.group_label(), "{v:?}");
        }
        assert_eq!(base.group_label(), base.clone().group_label());
    }
}
