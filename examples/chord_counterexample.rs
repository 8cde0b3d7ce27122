//! The paper's §6.3 chord-network study, end to end.
//!
//! ```text
//! cargo run --example chord_counterexample
//! ```
//!
//! * `chord(7, 5)` with `f = 2` **violates** Theorem 1 — we reproduce the
//!   paper's exact witness (`F = {5,6}, L = {0,2}, R = {1,3,4}`) and then
//!   *execute* the impossibility: the proof's adversary freezes the two
//!   sides one unit apart forever.
//! * `chord(5, 3)` with `f = 1` **satisfies** the condition — the same
//!   attack shape fails and Algorithm 1 converges.

use iabc::core::rules::TrimmedMean;
use iabc::core::{theorem1, Threshold, Witness};
use iabc::graph::{generators, NodeSet};
use iabc::sim::adversary::{PullAdversary, SplitBrainAdversary};
use iabc::sim::RunConfig;
use iabc::sim::Scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The violated instance: f = 2, n = 7 ---------------------------
    let g = generators::chord(7, 5);
    println!("chord(7, 5): every node hears its 5 predecessors; f = 2");

    // The paper's hand-built witness, verified mechanically:
    let paper_witness = Witness {
        fault_set: NodeSet::from_indices(7, [5, 6]),
        left: NodeSet::from_indices(7, [0, 2]),
        center: NodeSet::with_universe(7),
        right: NodeSet::from_indices(7, [1, 3, 4]),
    };
    assert!(paper_witness.verify(&g, 2, Threshold::synchronous(2)));
    println!("paper witness verifies: {paper_witness}");

    // The checker finds one too (possibly a different, equally valid one):
    let found = theorem1::find_violation(&g, 2).expect("condition is violated");
    println!("checker witness:        {found}");

    // Execute the impossibility: L starts at 0, R at 1, C in between; the
    // faulty nodes run the proof adversary. Nothing ever moves.
    let (m, m_cap) = (0.0, 1.0);
    let mut inputs = vec![0.5; 7];
    for v in found.left.iter() {
        inputs[v.index()] = m;
    }
    for v in found.right.iter() {
        inputs[v.index()] = m_cap;
    }
    let rule = TrimmedMean::new(2);
    let adv = SplitBrainAdversary::from_witness(&found, m, m_cap, 0.5);
    let mut sim = Scenario::on(&g)
        .inputs(&inputs)
        .faults(found.fault_set.clone())
        .rule(&rule)
        .adversary(Box::new(adv))
        .synchronous()?;
    for _ in 0..500 {
        sim.step()?;
    }
    println!(
        "after 500 rounds the honest range is still {:.1} — consensus is impossible here",
        sim.honest_range()
    );
    assert!(sim.honest_range() >= 1.0);

    // --- The satisfied instance: f = 1, n = 5 --------------------------
    let g = generators::chord(5, 3);
    println!(
        "\nchord(5, 3): f = 1 — condition {}",
        theorem1::check(&g, 1)
    );
    let inputs = [0.0, 1.0, 0.25, 0.75, 0.5];
    let faults = NodeSet::from_indices(5, [4]);
    let rule = TrimmedMean::new(1);
    let out = Scenario::on(&g)
        .inputs(&inputs)
        .faults(faults)
        .rule(&rule)
        .adversary(Box::new(PullAdversary::new(false)))
        .synchronous()?
        .run(&RunConfig::default())?;
    println!(
        "with one stealthy Byzantine node: converged = {} in {} rounds (validity {})",
        out.converged,
        out.rounds,
        if out.validity.is_valid() {
            "ok"
        } else {
            "violated"
        }
    );
    assert!(out.converged && out.validity.is_valid());
    Ok(())
}
