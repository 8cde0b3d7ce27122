//! Consensus over a churning network: freeze, repair, and edge fade.
//!
//! ```text
//! cargo run --example dynamic_topology
//! ```
//!
//! The paper fixes one graph for the whole run; this example exercises the
//! time-varying extension (`iabc::sim::dynamic`) in three acts:
//!
//! 1. **Freeze** — the §6.3 chord(7, 5) network violates Theorem 1 at
//!    `f = 2`; the proof's split-brain adversary pins the two witness
//!    sides at 0 and 1 forever.
//! 2. **Repair** — at round 40 the operator upgrades the overlay to K7
//!    (a `SwitchOnceSchedule`): the identical adversary immediately loses
//!    and the run converges.
//! 3. **Edge fade** — a K8 deployment where every round drops 30% of its
//!    links at random, but never below the in-degree floor `2f`: validity
//!    holds in every round and convergence survives the churn.

use iabc::core::rules::TrimmedMean;
use iabc::core::theorem1;
use iabc::graph::{generators, NodeSet};
use iabc::sim::adversary::{ExtremesAdversary, SplitBrainAdversary};
use iabc::sim::dynamic::{sample_edge_drops, SwitchOnceSchedule, TopologySchedule};
use iabc::sim::RunConfig;
use iabc::sim::Scenario;

fn main() {
    // Act 1 + 2: freeze on the violating graph, then repair to K7.
    let bad = generators::chord(7, 5);
    let witness = theorem1::find_violation(&bad, 2).expect("chord(7,5) violates Theorem 1 at f=2");
    println!("chord(7,5) violates Theorem 1 at f = 2; witness: {witness}");

    let schedule =
        SwitchOnceSchedule::new(bad, generators::complete(7), 40).expect("same node count");
    let mut inputs = vec![0.5; 7];
    for v in witness.left.iter() {
        inputs[v.index()] = 0.0;
    }
    for v in witness.right.iter() {
        inputs[v.index()] = 1.0;
    }
    let rule = TrimmedMean::new(2);
    let adversary = SplitBrainAdversary::from_witness(&witness, 0.0, 1.0, 0.5);
    let mut sim = Scenario::on(schedule.graph_at(1))
        .inputs(&inputs)
        .faults(witness.fault_set.clone())
        .rule(&rule)
        .adversary(Box::new(adversary))
        .dynamic(&schedule)
        .expect("valid simulation");

    for round in 1..=40 {
        sim.step().expect("step");
        if round % 10 == 0 {
            println!(
                "round {round:>3}: honest range = {:.3} (frozen)",
                sim.honest_range()
            );
        }
    }
    assert!(
        sim.honest_range() >= 1.0,
        "must be frozen before the repair"
    );

    println!("round  40: switching topology chord(7,5) -> K7 (the repair)");
    let out = sim.run(&RunConfig::default()).expect("post-repair run");
    println!(
        "repair outcome: converged = {}, rounds total = {}, final range = {:.2e}, valid = {}",
        out.converged,
        out.rounds,
        out.final_range,
        out.validity.is_valid()
    );
    assert!(out.converged && out.validity.is_valid());

    // Act 3: edge fade under the validity floor.
    println!("\nK8 with 30% per-round edge fade (floor: in-degree >= 2f = 4):");
    let base = generators::complete(8);
    let schedule = sample_edge_drops(&base, 0.3, 4, 2024, 64).expect("floor is satisfiable");
    let min_deg = schedule
        .distinct_graphs()
        .iter()
        .map(|g| g.min_in_degree())
        .min()
        .expect("non-empty schedule");
    println!(
        "sampled {} round-graphs; minimum in-degree seen: {min_deg} (base: {})",
        schedule.len(),
        base.min_in_degree()
    );

    let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 0.0];
    let faults = NodeSet::from_indices(8, [6, 7]);
    let mut sim = Scenario::on(schedule.graph_at(1))
        .inputs(&inputs)
        .faults(faults)
        .rule(&rule)
        .adversary(Box::new(ExtremesAdversary::new(1e5)))
        .dynamic(&schedule)
        .expect("valid simulation");
    let out = sim.run(&RunConfig::default()).expect("faded run");
    println!(
        "edge-fade outcome: converged = {} in {} rounds, valid = {}",
        out.converged,
        out.rounds,
        out.validity.is_valid()
    );
    assert!(out.converged && out.validity.is_valid());
}
