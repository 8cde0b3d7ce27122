//! Adversary structures: what changes when you know *where* faults live.
//!
//! ```text
//! cargo run --example structured_faults
//! ```
//!
//! The paper's `f`-total model says "any `f` nodes might be faulty". Real
//! deployments often know more — faults correlate with racks, power rails,
//! or firmware versions. The generalized fault model
//! (`iabc::core::fault_model`) takes an explicit *adversary structure*
//! (the feasible fault sets) and re-derives the paper's condition with
//! coverage semantics.
//!
//! The headline: the §6.3 counterexample chord(7, 5) is **impossible**
//! under "any 2 of 7 may fail", yet **possible** once the fault domain is
//! pinned to a single known rack `{5, 6}` — the Theorem 1 proof's scenario
//! ambiguity ("is it F or my other neighbours lying?") collapses when the
//! structure rules one scenario out. The example shows the catch — the
//! paper's structure-*oblivious* Algorithm 1 cannot cash in that
//! possibility — and then cashes it in with the structure-aware rule
//! (`ModelTrimmedMean`): same graph, same adversary, convergence.

use iabc::core::fault_model::{check_model, AdversaryStructure, FaultModel, ModelTrimmedMean};
use iabc::core::rules::TrimmedMean;
use iabc::graph::{generators, NodeSet};
use iabc::sim::adversary::SplitBrainAdversary;
use iabc::sim::RunConfig;
use iabc::sim::Scenario;

fn verdict(satisfied: bool) -> &'static str {
    if satisfied {
        "possible"
    } else {
        "IMPOSSIBLE"
    }
}

fn main() {
    let g = generators::chord(7, 5);
    println!("chord(7, 5) — the paper's §6.3 network, in-degree 5 everywhere\n");

    // The paper's model, three ways.
    let total = FaultModel::Total(2);
    let uniform = FaultModel::Structure(AdversaryStructure::uniform(7, 2));
    println!(
        "  any 2 nodes faulty (f-total)         : {}",
        verdict(check_model(&g, &total).is_satisfied())
    );
    println!(
        "  same, as an explicit structure       : {}",
        verdict(check_model(&g, &uniform).is_satisfied())
    );

    // Structures with located faults.
    let rack =
        AdversaryStructure::new(7, vec![NodeSet::from_indices(7, [5, 6])]).expect("universe 7");
    println!(
        "  one known rack {{5, 6}}                : {}",
        verdict(check_model(&g, &FaultModel::Structure(rack)).is_satisfied())
    );
    let two_racks = AdversaryStructure::new(
        7,
        vec![
            NodeSet::from_indices(7, [5, 6]),
            NodeSet::from_indices(7, [0, 1]),
        ],
    )
    .expect("universe 7");
    let two_racks_model = FaultModel::Structure(two_racks);
    println!(
        "  two possible racks {{5,6}} / {{0,1}}     : {}",
        verdict(check_model(&g, &two_racks_model).is_satisfied())
    );

    // Per-node trim budgets under the structure.
    println!("\nper-node trim budgets under the two-rack structure (max faulty in-neighbours):");
    for v in g.nodes() {
        print!(
            "  node {}: {}",
            v.index(),
            two_racks_model.max_faulty_in_neighbors(&g, v)
        );
    }
    println!();

    // The gap: the oblivious Algorithm 1 is still freezable inside the
    // rack structure, because it does not use the structure. The paper's
    // literal §6.3 witness has F = {5, 6} — exactly the rack — so the
    // split-brain adversary built from it is feasible under the structure.
    println!("\nthe catch — structure-oblivious Algorithm 1 vs the rack adversary:");
    let w = iabc::core::Witness {
        fault_set: NodeSet::from_indices(7, [5, 6]),
        left: NodeSet::from_indices(7, [0, 2]),
        center: NodeSet::with_universe(7),
        right: NodeSet::from_indices(7, [1, 3, 4]),
    };
    assert!(w.verify(&g, 2, iabc::core::Threshold::synchronous(2)));
    let mut inputs = vec![0.5; 7];
    for v in w.left.iter() {
        inputs[v.index()] = 0.0;
    }
    for v in w.right.iter() {
        inputs[v.index()] = 1.0;
    }
    let rule = TrimmedMean::new(2);
    let adversary = SplitBrainAdversary::from_witness(&w, 0.0, 1.0, 0.5);
    let mut sim = Scenario::on(&g)
        .inputs(&inputs)
        .faults(w.fault_set.clone())
        .rule(&rule)
        .adversary(Box::new(adversary))
        .synchronous()
        .expect("valid simulation");
    for _ in 0..100 {
        sim.step().expect("step");
    }
    println!(
        "  after 100 rounds the honest range is still {:.2} — frozen.",
        sim.honest_range()
    );

    // The payoff: the structure-aware rule, same adversary, converges.
    println!("\nthe payoff — structure-aware ModelTrimmedMean vs the same adversary:");
    let rack =
        AdversaryStructure::new(7, vec![NodeSet::from_indices(7, [5, 6])]).expect("universe 7");
    let aware = ModelTrimmedMean::new(FaultModel::Structure(rack));
    let adversary = SplitBrainAdversary::from_witness(&w, 0.0, 1.0, 0.5);
    let mut sim = Scenario::on(&g)
        .inputs(&inputs)
        .faults(w.fault_set.clone())
        .adversary(Box::new(adversary))
        .model_aware(&aware)
        .expect("valid simulation");
    let out = sim.run(&RunConfig::default()).expect("run succeeds");
    println!(
        "  converged = {} in {} rounds, final range {:.2e}, valid = {}",
        out.converged,
        out.rounds,
        out.final_range,
        out.validity.is_valid()
    );
    assert!(out.converged && out.validity.is_valid());
    println!(
        "  Trimming the maximal COVERABLE prefix (senders that could all be faulty\n   \
         in some feasible world) instead of a blanket f from each end keeps the\n   \
         honest cross-partition edges alive — fault-location knowledge, cashed in."
    );
}
