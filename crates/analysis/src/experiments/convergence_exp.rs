//! E3 — Theorem 3 convergence, measured.
//!
//! On every condition-satisfying graph, Algorithm 1 must drive
//! `U[t] − µ[t] → 0` regardless of the adversary. We measure rounds-to-ε
//! under the stealthiest adversary in the roster (pull-to-minimum, which
//! maximally slows convergence without ever leaving the honest hull) and
//! under the benign baseline, for each §6 family.

use iabc_core::rules::TrimmedMean;
use iabc_core::theorem1;
use iabc_graph::{generators, Digraph, NodeSet};
use iabc_sim::adversary::{Adversary, ConformingAdversary, PullAdversary};
use iabc_sim::RunConfig;

use crate::table::Table;

use super::ExperimentResult;
use iabc_sim::Scenario;

const EPSILON: f64 = 1e-6;
const MAX_ROUNDS: usize = 5_000;

fn measure(
    g: &Digraph,
    f: usize,
    fault_set: &NodeSet,
    adversary: Box<dyn Adversary>,
) -> Option<usize> {
    let n = g.node_count();
    let inputs: Vec<f64> = (0..n).map(|i| (i as f64 * 17.0) % 10.0).collect();
    let rule = TrimmedMean::new(f);
    let mut sim = Scenario::on(g)
        .inputs(&inputs)
        .faults(fault_set.clone())
        .rule(&rule)
        .adversary(adversary)
        .synchronous()
        .ok()?;
    let out = sim
        .run(&RunConfig {
            record_states: false,
            epsilon: EPSILON,
            max_rounds: MAX_ROUNDS,
        })
        .ok()?;
    out.converged.then_some(out.rounds)
}

/// Runs experiment E3.
pub fn e3_convergence() -> ExperimentResult {
    let mut table = Table::new([
        "graph",
        "f",
        "satisfies Thm 1",
        "rounds (benign)",
        "rounds (pull)",
    ]);
    let mut pass = true;

    let cases: Vec<(String, Digraph, usize, NodeSet)> = vec![
        (
            "K4".into(),
            generators::complete(4),
            1,
            NodeSet::from_indices(4, [3]),
        ),
        (
            "K7".into(),
            generators::complete(7),
            2,
            NodeSet::from_indices(7, [5, 6]),
        ),
        (
            "K10".into(),
            generators::complete(10),
            3,
            NodeSet::from_indices(10, [7, 8, 9]),
        ),
        (
            "core_network(4, 1)".into(),
            generators::core_network(4, 1),
            1,
            NodeSet::from_indices(4, [3]),
        ),
        (
            "core_network(7, 2)".into(),
            generators::core_network(7, 2),
            2,
            NodeSet::from_indices(7, [5, 6]),
        ),
        (
            "core_network(10, 2)".into(),
            generators::core_network(10, 2),
            2,
            NodeSet::from_indices(10, [8, 9]),
        ),
        (
            "chord(5, 3)  [§6.3]".into(),
            generators::chord(5, 3),
            1,
            NodeSet::from_indices(5, [4]),
        ),
    ];

    for (name, g, f, faults) in cases {
        let satisfied = theorem1::check(&g, f).is_satisfied();
        let benign = measure(&g, f, &faults, Box::new(ConformingAdversary::new()));
        let pulled = measure(&g, f, &faults, Box::new(PullAdversary::new(false)));
        pass &= satisfied && benign.is_some() && pulled.is_some();
        table.row([
            name,
            f.to_string(),
            if satisfied { "yes" } else { "NO" }.to_string(),
            benign.map_or("did not converge".into(), |r| r.to_string()),
            pulled.map_or("did not converge".into(), |r| r.to_string()),
        ]);
    }

    ExperimentResult {
        id: "E3".into(),
        title: "Theorem 3 convergence: rounds to eps on satisfying graphs".into(),
        notes: vec![
            format!("epsilon = {EPSILON}, cap {MAX_ROUNDS} rounds; inputs spread over [0, 10)"),
            "pull adversary reports the honest minimum on every edge (stealthy worst case)".into(),
        ],
        artifacts: Vec::new(),
        table,
        pass,
    }
}
