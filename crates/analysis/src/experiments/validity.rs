//! E2 — Theorem 2 validity, swept.
//!
//! On graphs satisfying the condition, Algorithm 1 must keep `U[t]`
//! non-increasing and `µ[t]` non-decreasing (Equation 1) against **every**
//! adversary. We sweep the §6 families against the full adversary roster
//! with multiple seeded input vectors and audit every trace.

use iabc_core::rules::TrimmedMean;
use iabc_graph::{generators, Digraph, NodeSet};
use iabc_sim::adversary::standard_roster;
use iabc_sim::RunConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::Table;

use super::ExperimentResult;
use iabc_sim::Scenario;

const SEEDS: u64 = 5;
const MAX_ROUNDS: usize = 200;

fn sweep_family(name: &str, g: &Digraph, f: usize, fault_set: &NodeSet) -> (Vec<String>, bool) {
    let n = g.node_count();
    let rule = TrimmedMean::new(f);
    let mut runs = 0usize;
    let mut valid_runs = 0usize;
    let adversary_count = standard_roster((0.0, 1.0)).len();
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
        for adversary in standard_roster((0.0, 1.0)) {
            runs += 1;
            let mut sim = Scenario::on(g)
                .inputs(&inputs)
                .faults(fault_set.clone())
                .rule(&rule)
                .adversary(adversary)
                .synchronous()
                .expect("valid simulation inputs");
            let config = RunConfig {
                record_states: false,
                epsilon: 1e-9,
                max_rounds: MAX_ROUNDS,
            };
            match sim.run(&config) {
                Ok(out) if out.validity.is_valid() => valid_runs += 1,
                _ => {}
            }
        }
    }
    let ok = runs == valid_runs;
    (
        vec![
            name.to_string(),
            f.to_string(),
            format!("{} adversaries x {SEEDS} seeds", adversary_count),
            format!("{valid_runs}/{runs} valid"),
        ],
        ok,
    )
}

/// Runs experiment E2.
pub fn e2_validity() -> ExperimentResult {
    let mut table = Table::new(["graph", "f", "sweep", "validity"]);
    let mut pass = true;

    let cases: Vec<(&str, Digraph, usize, NodeSet)> = vec![
        (
            "K7",
            generators::complete(7),
            2,
            NodeSet::from_indices(7, [5, 6]),
        ),
        (
            "core_network(7, 2)",
            generators::core_network(7, 2),
            2,
            NodeSet::from_indices(7, [0, 6]), // one clique node + one outer node faulty
        ),
        (
            "core_network(9, 2)",
            generators::core_network(9, 2),
            2,
            NodeSet::from_indices(9, [7, 8]),
        ),
        (
            "chord(5, 3)  [§6.3]",
            generators::chord(5, 3),
            1,
            NodeSet::from_indices(5, [2]),
        ),
        (
            "chord(4, 3)  [§6.3]",
            generators::chord(4, 3),
            1,
            NodeSet::from_indices(4, [3]),
        ),
    ];
    for (name, g, f, faults) in cases {
        let (row, ok) = sweep_family(name, &g, f, &faults);
        pass &= ok;
        table.row(row);
    }

    ExperimentResult {
        id: "E2".into(),
        title: "Theorem 2 validity: U non-increasing, mu non-decreasing under every adversary".into(),
        notes: vec![
            "adversary roster: conforming, constant(+100), random, extremes, pull-low, pull-high, nan-bomb, crash, broadcast-extremes".into(),
            format!("each run capped at {MAX_ROUNDS} rounds; audit tolerance 1e-9"),
        ],
        artifacts: Vec::new(),
        table,
        pass,
    }
}
