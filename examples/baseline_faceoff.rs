//! Baseline faceoff: Algorithm 1 vs the rules it descends from.
//!
//! ```text
//! cargo run --example baseline_faceoff
//! ```
//!
//! Runs the paper's Algorithm 1 (trimmed mean), the classical Dolev et al.
//! full-exchange rules \[5\], and W-MSR \[11\]/\[17\] on identical workloads:
//! same graph, same inputs, same colluding adversary. Reproduces the
//! qualitative picture from the related-work discussion:
//!
//! * on **complete** graphs all four converge — the Dolev midpoint is the
//!   per-round champion (it halves the range every round);
//! * on **sparse** Theorem 1 graphs, only Algorithm 1 carries a guarantee;
//!   the baselines run as heuristics.

use iabc::baselines::comparison::Faceoff;
use iabc::baselines::{DolevMidpoint, DolevSelectMean, Wmsr};
use iabc::core::rules::{TrimmedMean, UpdateRule};
use iabc::core::theorem1;
use iabc::graph::{generators, NodeSet};
use iabc::sim::adversary::{Adversary, PolarizingAdversary};
use iabc::sim::RunConfig;

fn run_workload(
    label: &str,
    graph: &iabc::graph::Digraph,
    f: usize,
    faulty: &[usize],
    adversary: fn() -> Box<dyn Adversary>,
) {
    let n = graph.node_count();
    assert!(theorem1::check(graph, f).is_satisfied());
    let inputs: Vec<f64> = (0..n).map(|i| i as f64 * 10.0).collect();
    let faceoff = Faceoff {
        graph,
        inputs: &inputs,
        fault_set: NodeSet::from_indices(n, faulty.iter().copied()),
        adversary_factory: &adversary,
        config: RunConfig {
            record_states: false,
            epsilon: 1e-9,
            max_rounds: 50_000,
        },
    };
    let a1 = TrimmedMean::new(f);
    let mid = DolevMidpoint::new(f);
    let sel = DolevSelectMean::new(f);
    let wmsr = Wmsr::new(f);
    let rules: Vec<&dyn UpdateRule> = vec![&a1, &mid, &sel, &wmsr];

    println!("== {label} (f = {f}, faulty = {faulty:?}, polarizing adversary)");
    println!(
        "   {:<18} {:>9} {:>7} {:>12} {:>6}",
        "rule", "converged", "rounds", "final range", "valid"
    );
    for r in faceoff.run_all(&rules) {
        println!(
            "   {:<18} {:>9} {:>7} {:>12.2e} {:>6}",
            r.rule, r.converged, r.rounds, r.final_range, r.valid
        );
    }
    println!();
}

fn main() {
    // The classical setting: complete graph, n > 3f.
    run_workload("complete K7", &generators::complete(7), 2, &[5, 6], || {
        Box::new(PolarizingAdversary::new())
    });

    // A graph the Dolev algorithm was never designed for: the sparse §6.3
    // chord network that satisfies Theorem 1 at f = 1.
    run_workload("chord(5, 3)", &generators::chord(5, 3), 1, &[4], || {
        Box::new(PolarizingAdversary::new())
    });

    // The §6.1 core network at its minimum size.
    run_workload(
        "core network (7, 2)",
        &generators::core_network(7, 2),
        2,
        &[0, 3],
        || Box::new(PolarizingAdversary::new()),
    );

    println!("Only trimmed-mean (Algorithm 1) is *guaranteed* beyond complete graphs;");
    println!("the baselines run there as heuristics and are reported for comparison.");
}
