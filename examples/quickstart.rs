//! Quickstart: check a network's fault tolerance, then run consensus on it.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Walks the full API surface once: build a graph, check the Theorem 1
//! condition (and see the witness when it fails), compute Algorithm 1's
//! contraction parameter, run the simulation under an attack, and inspect
//! the trace.

use iabc::core::alpha::{algorithm1_alpha, iteration_bound};
use iabc::core::rules::TrimmedMean;
use iabc::core::theorem1;
use iabc::graph::{generators, NodeSet};
use iabc::sim::adversary::ExtremesAdversary;
use iabc::sim::RunConfig;
use iabc::sim::Scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let f = 2;

    // 1. A network: the paper's §6.1 "core network" — a clique of 2f+1
    //    nodes that every other node is bidirectionally attached to.
    let g = generators::core_network(9, f);
    println!("network: {g} (core network, f = {f})");

    // 2. Is iterative Byzantine consensus even possible here? Theorem 1
    //    gives the exact answer.
    let report = theorem1::check(&g, f);
    println!("theorem 1 condition: {report}");
    assert!(report.is_satisfied());

    // For contrast: the same check on a graph that fails, with the witness
    // partition explaining *why* it fails.
    let bad = generators::chord(7, 5);
    println!(
        "chord(7,5) with f = 2: {}",
        theorem1::check(&bad, 2) // prints the violating F/L/C/R partition
    );

    // 3. Algorithm 1's contraction parameter alpha = min_i a_i and the
    //    (very conservative) Lemma 5 round bound.
    let alpha = algorithm1_alpha(&g, f)?;
    let bound = iteration_bound(&g, f, 40.0, 1e-6)?;
    println!("alpha = {alpha:.4}; Lemma 5 worst-case round bound for range 40 -> 1e-6: {bound}");

    // 4. Run it: seven honest sensors with readings in [10, 50], two
    //    Byzantine nodes screaming +/- 1e6 at everyone.
    let inputs = [10.0, 50.0, 30.0, 20.0, 40.0, 25.0, 35.0, 0.0, 0.0];
    let faults = NodeSet::from_indices(9, [7, 8]);
    let rule = TrimmedMean::new(f);
    let out = Scenario::on(&g)
        .inputs(&inputs)
        .faults(faults)
        .rule(&rule)
        .adversary(Box::new(ExtremesAdversary::new(1e6)))
        .synchronous()
        .and_then(|mut sim| sim.run(&RunConfig::default()))?;

    println!(
        "converged: {} in {} rounds; final range {:.2e}; validity: {}",
        out.converged,
        out.rounds,
        out.final_range,
        if out.validity.is_valid() {
            "ok"
        } else {
            "VIOLATED"
        }
    );
    let agreed = out.trace.last().expect("nonempty trace").states[0];
    println!("agreed value: {agreed:.4} (inside the honest hull [10, 50])");
    assert!((10.0..=50.0).contains(&agreed));

    // 5. The trace gives per-round U[t] and mu[t] for plotting.
    print!("range per round:");
    for r in out.trace.records().iter().take(8) {
        print!(" {:.3}", r.range());
    }
    println!(" ...");
    Ok(())
}
