//! End-to-end pipeline: the workflow a downstream adopter would run, as one
//! integration test per stage — design a topology, validate it, measure it,
//! deploy it, and repair a broken alternative.

use iabc::core::construction::{grow_satisfying, Attachment};
use iabc::core::rules::TrimmedMean;
use iabc::core::{minimality, repair, theorem1};
use iabc::graph::{generators, metrics, NodeId, NodeSet};
use iabc::runtime::{run_threaded, ConstantLiar};
use iabc::sim::adversary::PolarizingAdversary;
use iabc::sim::certified::run_certified;
use iabc::sim::{RunConfig, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

const F: usize = 1;
const N: usize = 8;

fn designed_network() -> iabc::graph::Digraph {
    // Seed chosen so the grown topology's Lemma 5 bound stays well under
    // stage 3's round cap (the bound is stream-sensitive: a sparser draw
    // can push it past 2M rounds).
    grow_satisfying(N, F, Attachment::Uniform, &mut StdRng::seed_from_u64(75))
}

#[test]
fn stage1_design_and_validate() {
    let g = designed_network();
    // The construction guarantees the condition; the checker agrees.
    let report = theorem1::check(&g, F);
    assert!(report.is_satisfied());
    // Capacity is at least the design parameter.
    assert!(theorem1::max_tolerable_f(&g).unwrap() >= F);
    // Structural sanity a deployment would verify.
    let p = metrics::profile(&g);
    assert!(p.degrees.min_in > 2 * F);
    assert_eq!(p.reciprocity, 1.0, "construction uses bidirectional links");
}

#[test]
fn stage2_simulate_under_attack() {
    let g = designed_network();
    let inputs: Vec<f64> = (0..N).map(|i| i as f64).collect();
    let faults = NodeSet::from_indices(N, [N - 1]);
    let rule = TrimmedMean::new(F);
    let out = Scenario::on(&g)
        .inputs(&inputs)
        .faults(faults)
        .rule(&rule)
        .adversary(Box::new(PolarizingAdversary::new()))
        .synchronous()
        .and_then(|mut sim| sim.run(&RunConfig::default()))
        .expect("simulation runs");
    assert!(out.converged && out.validity.is_valid());
}

#[test]
fn stage3_certified_termination() {
    let g = designed_network();
    let inputs: Vec<f64> = (0..N).map(|i| i as f64).collect();
    let faults = NodeSet::from_indices(N, [N - 1]);
    let cert = run_certified(
        &g,
        &inputs,
        faults,
        F,
        Box::new(PolarizingAdversary::new()),
        1e-2,
        2_000_000,
    )
    .expect("certified run");
    assert!(
        !cert.capped,
        "bound {} exceeded the generous cap",
        cert.bound_rounds
    );
    assert!(cert.achieved_range <= cert.target_range);
}

#[test]
fn stage4_threaded_deployment_agrees() {
    let g = designed_network();
    let inputs: Vec<f64> = (0..N).map(|i| i as f64).collect();
    let faults = NodeSet::from_indices(N, [N - 1]);
    let report = run_threaded(&g, &inputs, &faults, F, 120, |_| {
        Box::new(ConstantLiar { value: 1e7 })
    })
    .expect("threads run");
    assert!(report.honest_range() < 1e-6);
    // Validity across the deployment.
    for v in report.honest_states() {
        assert!(
            (0.0..=(N - 2) as f64).contains(&v),
            "state {v} escaped the honest hull"
        );
    }
}

#[test]
fn stage5_minimality_audit() {
    let g = designed_network();
    let probe = minimality::probe(&g, F).expect("satisfying graph");
    // The grown graph is not promised minimal; pruning must preserve the
    // condition and end edge-minimal.
    let pruned = minimality::prune_to_minimal(&g, F).unwrap();
    assert!(theorem1::check(&pruned, F).is_satisfied());
    assert!(minimality::is_edge_minimal(&pruned, F));
    assert!(pruned.edge_count() <= probe.edges);
}

#[test]
fn stage6_repair_a_broken_alternative() {
    // The designer's first draft was a hypercube — it fails (§6.2). Repair
    // patches it with witness-driven edges until the condition holds.
    let broken = generators::hypercube(3);
    assert!(!theorem1::check(&broken, F).is_satisfied());
    let fix = repair::suggest_edges(&broken, F).expect("repair succeeds");
    assert!(theorem1::check(&fix.graph, F).is_satisfied());
    assert!(!fix.added.is_empty());
    // The repaired network actually runs.
    let n = fix.graph.node_count();
    let inputs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let rule = TrimmedMean::new(F);
    let out = Scenario::on(&fix.graph)
        .inputs(&inputs)
        .faults(NodeSet::from_indices(n, [0]))
        .rule(&rule)
        .adversary(Box::new(PolarizingAdversary::new()))
        .synchronous()
        .and_then(|mut sim| sim.run(&RunConfig::default()))
        .expect("repaired graph simulates");
    assert!(out.converged && out.validity.is_valid());
}

#[test]
fn stage7_witness_explanation_names_the_problem() {
    let broken = generators::hypercube(3);
    let report = theorem1::check(&broken, F);
    let w = report.witness().expect("hypercube violates");
    let text = w.explain(&broken, iabc::core::Threshold::synchronous(F));
    // Every node in L must be called out with a sub-threshold count.
    for v in w.left.iter() {
        assert!(text.contains(&format!("node {v}:")));
    }
    assert!(text.contains("convergence is impossible"));
}

#[test]
fn pipeline_node_ids_are_consistent_across_crates() {
    // NodeId round-trips through every layer untouched.
    let g = designed_network();
    for v in g.nodes() {
        assert_eq!(NodeId::new(v.index()), v);
    }
}
