//! Witness-driven network repair: turning the checker's counterexamples
//! into a topology-design loop.
//!
//! ```text
//! cargo run --example network_repair
//! ```
//!
//! Start from topologies the paper proves insufficient (the §6.3 chord
//! network at f = 2, the §6.2 hypercube at f = 1), let the checker's
//! witness point at the starved partition, patch exactly that, and repeat
//! until Theorem 1 holds. Then run Algorithm 1 on the repaired network to
//! confirm the fix is real, and show the frozen execution on the original
//! for contrast.

use iabc::core::repair::suggest_edges;
use iabc::core::rules::TrimmedMean;
use iabc::core::theorem1;
use iabc::graph::{generators, Digraph, NodeSet};
use iabc::sim::adversary::{ExtremesAdversary, SplitBrainAdversary};
use iabc::sim::RunConfig;
use iabc::sim::Scenario;

fn repair_and_verify(name: &str, g: &Digraph, f: usize) -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "== {name} (n = {}, m = {}, f = {f})",
        g.node_count(),
        g.edge_count()
    );
    let before = theorem1::check(g, f);
    println!("   before: {before}");

    // Show the impossibility is real: freeze the original via the witness.
    if let Some(w) = before.witness() {
        let n = g.node_count();
        let mut inputs = vec![0.5; n];
        for v in w.left.iter() {
            inputs[v.index()] = 0.0;
        }
        for v in w.right.iter() {
            inputs[v.index()] = 1.0;
        }
        let rule = TrimmedMean::new(f);
        let adv = SplitBrainAdversary::from_witness(w, 0.0, 1.0, 0.25);
        let mut sim = Scenario::on(g)
            .inputs(&inputs)
            .faults(w.fault_set.clone())
            .rule(&rule)
            .adversary(Box::new(adv))
            .synchronous()?;
        for _ in 0..100 {
            sim.step()?;
        }
        println!(
            "   original under attack: range still {:.2} after 100 rounds",
            sim.honest_range()
        );
    }

    // Repair.
    let repair = suggest_edges(g, f)?;
    println!(
        "   repair: added {} edge(s): {:?}",
        repair.added.len(),
        repair
            .added
            .iter()
            .map(|(u, v)| (u.index(), v.index()))
            .collect::<Vec<_>>()
    );
    assert!(theorem1::check(&repair.graph, f).is_satisfied());

    // Confirm with an actual adversarial run on the repaired network.
    let n = repair.graph.node_count();
    let inputs: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
    let faults = NodeSet::from_indices(n, (n - f..n).collect::<Vec<_>>());
    let rule = TrimmedMean::new(f);
    let out = Scenario::on(&repair.graph)
        .inputs(&inputs)
        .faults(faults)
        .rule(&rule)
        .adversary(Box::new(ExtremesAdversary::new(1e6)))
        .synchronous()?
        .run(&RunConfig::default())?;
    println!(
        "   repaired under attack: converged = {} in {} rounds (validity {})\n",
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    repair_and_verify(
        "chord(7, 5), f = 2  [§6.3 counterexample]",
        &generators::chord(7, 5),
        2,
    )?;
    repair_and_verify(
        "hypercube(3), f = 1 [§6.2 / Figure 3]",
        &generators::hypercube(3),
        1,
    )?;
    repair_and_verify(
        "bridged_cliques(4, 1), f = 1",
        &generators::bridged_cliques(4, 1),
        1,
    )?;
    println!("every failing topology was patched into a working one by its own witnesses");
    Ok(())
}
