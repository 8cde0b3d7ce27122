//! E10 — Lemma 5 convergence-rate bound vs measured contraction.
//!
//! For each satisfying graph we run Algorithm 1 under the stealthy pull
//! adversary, re-enact the proof of Theorem 3's phase decomposition on the
//! recorded states, and compare the measured per-phase contraction with the
//! Lemma 5 factor `(1 − α^{l(s)}/2)`. The bound must hold on every phase
//! (it is typically very loose — that is the expected "shape": measured ≪
//! bound). We also report the fitted per-round geometric rate and, for
//! context, the `f = 0` spectral baseline `|λ₂|`.

use iabc_core::alpha::algorithm1_alpha;
use iabc_core::rules::TrimmedMean;
use iabc_graph::{generators, Digraph, NodeSet};
use iabc_sim::adversary::PullAdversary;
use iabc_sim::RunConfig;

use crate::contraction::compare_phases;
use crate::convergence::fit_geometric_rate;
use crate::spectral::estimate_lambda2;
use crate::table::Table;

use super::ExperimentResult;
use iabc_sim::Scenario;

fn rate_case(name: &str, g: &Digraph, f: usize, fault_set: NodeSet) -> (Vec<String>, bool) {
    let n = g.node_count();
    let inputs: Vec<f64> = (0..n).map(|i| ((i * 23) % 11) as f64).collect();
    let rule = TrimmedMean::new(f);
    let mut sim = Scenario::on(g)
        .inputs(&inputs)
        .faults(fault_set.clone())
        .rule(&rule)
        .adversary(Box::new(PullAdversary::new(true)))
        .synchronous()
        .expect("valid sim");
    let out = sim
        .run(&RunConfig {
            record_states: true,
            epsilon: 1e-9,
            max_rounds: 2_000,
        })
        .expect("run succeeds");
    let alpha = algorithm1_alpha(g, f).expect("degree bound satisfied");
    let states: Vec<Vec<f64>> = out
        .trace
        .records()
        .iter()
        .map(|r| r.states.clone())
        .collect();
    let phases = compare_phases(g, &states, &fault_set, f, alpha);
    let all_hold = !phases.is_empty() && phases.iter().all(|p| p.holds());
    let worst = phases
        .iter()
        .map(|p| p.measured_factor / p.bound_factor)
        .fold(0.0f64, f64::max);
    let fitted = fit_geometric_rate(&out.trace.ranges()).unwrap_or(f64::NAN);
    let lambda2 = estimate_lambda2(g, 1500);
    let row = vec![
        name.to_string(),
        format!("{alpha:.4}"),
        phases.len().to_string(),
        format!("{all_hold}"),
        format!("{worst:.3}"),
        format!("{fitted:.4}"),
        format!("{lambda2:.4}"),
    ];
    (row, all_hold && out.converged)
}

/// Runs experiment E10.
pub fn e10_rate() -> ExperimentResult {
    let mut table = Table::new([
        "graph",
        "alpha",
        "phases",
        "bound holds",
        "worst measured/bound",
        "fitted rate/round",
        "lambda2 (f=0 baseline)",
    ]);
    let mut pass = true;

    let cases: Vec<(&str, Digraph, usize, NodeSet)> = vec![
        (
            "K7, f=2",
            generators::complete(7),
            2,
            NodeSet::from_indices(7, [5, 6]),
        ),
        (
            "core_network(7,2), f=2",
            generators::core_network(7, 2),
            2,
            NodeSet::from_indices(7, [5, 6]),
        ),
        (
            "core_network(10,2), f=2",
            generators::core_network(10, 2),
            2,
            NodeSet::from_indices(10, [8, 9]),
        ),
        (
            "chord(5,3), f=1",
            generators::chord(5, 3),
            1,
            NodeSet::from_indices(5, [4]),
        ),
        (
            "K4, f=1",
            generators::complete(4),
            1,
            NodeSet::from_indices(4, [3]),
        ),
    ];
    for (name, g, f, faults) in cases {
        let (row, ok) = rate_case(name, &g, f, faults);
        pass &= ok;
        table.row(row);
    }

    ExperimentResult {
        id: "E10".into(),
        title: "Lemma 5: measured per-phase contraction never exceeds (1 - alpha^l / 2)".into(),
        notes: vec![
            "phases re-enact the Theorem 3 proof: half-range split, l(s) = propagation length"
                .into(),
            "the bound is intentionally loose; 'worst measured/bound' << 1 is the expected shape"
                .into(),
            "lambda2 is the fault-free linear-averaging rate, for context".into(),
        ],
        artifacts: Vec::new(),
        table,
        pass,
    }
}
