//! End-to-end integration across the second-wave extensions: a deployment
//! story that combines the generalized fault model, the structure-aware
//! rule, time-varying topologies, quantization, the asynchronous engine,
//! and vector fusion — the modules working *together*, not in isolation.

use iabc::core::fault_model::{
    check_model, AdversaryStructure, Blind, FaultModel, ModelTrimmedMean,
};
use iabc::core::quantized::{quantize_inputs, QuantizedTrimmedMean, Rounding};
use iabc::core::rules::TrimmedMean;
use iabc::core::{theorem1, Threshold, Witness};
use iabc::graph::{generators, NodeId, NodeSet};
use iabc::sim::adversary::{ConstantAdversary, ExtremesAdversary, SplitBrainAdversary};
use iabc::sim::async_engine::MaxDelayScheduler;
use iabc::sim::dynamic::{sample_edge_drops, DynamicSimulation, SwitchOnceSchedule};
use iabc::sim::model_engine::ModelSimulation;
use iabc::sim::vector::{CoordinateWise, VectorSimConfig, VectorSimulation};
use iabc::sim::{RunConfig, Scenario, Simulation};

/// The §6.3 chord network operated by someone who knows the fault domain:
/// f-total says impossible, the structure says possible, the structure-
/// aware rule delivers, and a later topology upgrade makes even the
/// oblivious rule work — each claim executed in order.
#[test]
fn rack_aware_deployment_pipeline() {
    let g = generators::chord(7, 5);

    // Stage 1 — design-time analysis.
    assert!(
        !theorem1::check(&g, 2).is_satisfied(),
        "f-total(2) must fail (§6.3)"
    );
    let rack = AdversaryStructure::new(7, vec![NodeSet::from_indices(7, [5, 6])]).unwrap();
    let model = FaultModel::Structure(rack);
    assert!(
        check_model(&g, &model).is_satisfied(),
        "rack structure must pass"
    );

    // Stage 2 — the paper's witness adversary attacks a rack-aware fleet.
    let w = Witness {
        fault_set: NodeSet::from_indices(7, [5, 6]),
        left: NodeSet::from_indices(7, [0, 2]),
        center: NodeSet::with_universe(7),
        right: NodeSet::from_indices(7, [1, 3, 4]),
    };
    assert!(w.verify(&g, 2, Threshold::synchronous(2)));
    let mut inputs = vec![0.5; 7];
    for v in w.left.iter() {
        inputs[v.index()] = 0.0;
    }
    for v in w.right.iter() {
        inputs[v.index()] = 1.0;
    }
    let aware = ModelTrimmedMean::new(model.clone());
    let adv = SplitBrainAdversary::from_witness(&w, 0.0, 1.0, 0.5);
    let out = ModelSimulation::new(&g, &inputs, w.fault_set.clone(), &aware, Box::new(adv))
        .unwrap()
        .run(&RunConfig::default())
        .unwrap();
    assert!(out.converged && out.validity.is_valid());

    // Stage 3 — the same engine can host the classic rule (Blind) and must
    // reproduce the freeze, proving the engine is not what saved stage 2.
    let blind = Blind(TrimmedMean::new(2));
    let adv = SplitBrainAdversary::from_witness(&w, 0.0, 1.0, 0.5);
    let mut frozen =
        ModelSimulation::new(&g, &inputs, w.fault_set.clone(), &blind, Box::new(adv)).unwrap();
    for _ in 0..80 {
        frozen.step().unwrap();
    }
    assert!(
        frozen.honest_range() >= 1.0,
        "oblivious rule must freeze in the same engine"
    );

    // Stage 4 — the operator upgrades the overlay to a core network at
    // round 30 (dynamic schedule): now even the oblivious rule converges.
    let upgraded = generators::core_network(7, 2);
    assert!(theorem1::check(&upgraded, 2).is_satisfied());
    let schedule = SwitchOnceSchedule::new(g.clone(), upgraded, 30).unwrap();
    let rule = TrimmedMean::new(2);
    let adv = SplitBrainAdversary::from_witness(&w, 0.0, 1.0, 0.5);
    let out = DynamicSimulation::new(
        &schedule,
        &inputs,
        w.fault_set.clone(),
        &rule,
        Box::new(adv),
    )
    .unwrap()
    .run(&RunConfig::default())
    .unwrap();
    assert!(out.converged && out.validity.is_valid());
    assert!(out.rounds > 30, "convergence cannot predate the upgrade");
}

/// Fixed-point firmware on a churning network: the quantized rule inside
/// the dynamic engine, with edge fade held above the validity floor.
#[test]
fn quantized_rule_survives_topology_churn() {
    let base = generators::complete(8);
    let f = 2;
    let quantum = 1.0 / 64.0;
    let schedule = sample_edge_drops(&base, 0.25, 2 * f, 33, 48).unwrap();
    let rule = QuantizedTrimmedMean::new(f, quantum, Rounding::Nearest).unwrap();
    let raw = [0.1, 1.2, 2.3, 3.4, 4.5, 5.6, 0.0, 0.0];
    let inputs = quantize_inputs(&raw, quantum, Rounding::Nearest);
    let faults = NodeSet::from_indices(8, [6, 7]);
    let out = DynamicSimulation::new(
        &schedule,
        &inputs,
        faults,
        &rule,
        Box::new(ExtremesAdversary::new(1e6)),
    )
    .unwrap()
    .run(&RunConfig {
        epsilon: quantum,
        max_rounds: 2_000,
        record_states: true,
    })
    .unwrap();
    assert!(
        out.validity.is_valid(),
        "lattice validity must survive churn"
    );
    assert!(
        out.final_range <= quantum + 1e-12,
        "range {} did not reach the quantization floor",
        out.final_range
    );
}

/// The quantized rule is a plain `UpdateRule`, so it drops into the §7
/// bounded-delay asynchronous engine unchanged: convergence to the floor
/// under worst-case (max-delay) scheduling.
#[test]
fn quantized_rule_in_the_async_engine() {
    let g = generators::complete(11); // n > 5f for f = 2 (§7)
    let f = 2;
    let quantum = 1.0 / 128.0;
    let rule = QuantizedTrimmedMean::new(f, quantum, Rounding::Nearest).unwrap();
    let raw: Vec<f64> = (0..11).map(|i| (i % 6) as f64).collect();
    let inputs = quantize_inputs(&raw, quantum, Rounding::Nearest);
    let faults = NodeSet::from_indices(11, [9, 10]);
    let mut sim = Scenario::on(&g)
        .inputs(&inputs)
        .faults(faults)
        .rule(&rule)
        .adversary(Box::new(ConstantAdversary::new(1e9)))
        .delay_bounded(Box::new(MaxDelayScheduler), 3)
        .unwrap();
    let out = sim.run(&RunConfig::bounded(quantum, 5_000)).unwrap();
    assert!(
        out.converged,
        "async quantized run stuck at range {}",
        out.final_range
    );
    assert!(out.final_range <= quantum + 1e-12);
}

/// Vector fusion whose coordinates run at different quantization levels —
/// the vector engine takes any `UpdateRule`, so per-axis rules compose
/// only through a shared rule; here we check the shared-rule path with a
/// quantized rule across both axes.
#[test]
fn quantized_vector_fusion() {
    let g = generators::complete(7);
    let quantum = 1.0 / 32.0;
    let rule = QuantizedTrimmedMean::new(2, quantum, Rounding::Nearest).unwrap();
    let inputs: Vec<Vec<f64>> = vec![
        vec![0.0, 10.0],
        vec![1.0, 11.0],
        vec![2.0, 12.0],
        vec![3.0, 13.0],
        vec![4.0, 14.0],
        vec![0.0, 0.0],
        vec![0.0, 0.0],
    ];
    let faults = NodeSet::from_indices(7, [5, 6]);
    let adv = CoordinateWise::new(vec![
        Box::new(ExtremesAdversary::new(1e6)),
        Box::new(ExtremesAdversary::new(1e6)),
    ]);
    let mut sim = VectorSimulation::new(&g, &inputs, faults, &rule, Box::new(adv)).unwrap();
    let out = sim
        .run(&VectorSimConfig {
            epsilon: quantum,
            max_rounds: 2_000,
        })
        .unwrap();
    assert!(out.converged);
    assert!(out.box_validity);
    let v = sim.state_of(NodeId::new(0));
    // Outputs are lattice points inside the per-axis hulls.
    for (k, (lo, hi)) in [(0usize, (0.0, 4.0)), (1, (10.0, 14.0))] {
        assert!(
            (lo..=hi).contains(&v[k]),
            "coord {k}: {} outside hull",
            v[k]
        );
        let scaled = v[k] / quantum;
        assert_eq!(scaled, scaled.round(), "coord {k}: {} off-lattice", v[k]);
    }
}

/// Cross-validation: the scalar engine, the identity-aware engine with
/// `Blind`, and the dynamic engine on a one-graph schedule all produce the
/// same trajectory for the same (stateless-adversary) workload.
#[test]
fn three_engines_one_trajectory() {
    let g = generators::complete(7);
    let inputs = [0.25, 1.5, 2.75, 3.0, 4.5, 0.0, 0.0];
    let faults = NodeSet::from_indices(7, [5, 6]);
    let rule = TrimmedMean::new(2);
    let blind = Blind(TrimmedMean::new(2));
    let schedule = iabc::sim::dynamic::SequenceSchedule::new(vec![g.clone()]).unwrap();

    let mut scalar = Simulation::new(
        &g,
        &inputs,
        faults.clone(),
        &rule,
        Box::new(ConstantAdversary::new(-4e8)),
    )
    .unwrap();
    let mut identified = ModelSimulation::new(
        &g,
        &inputs,
        faults.clone(),
        &blind,
        Box::new(ConstantAdversary::new(-4e8)),
    )
    .unwrap();
    let mut dynamic = DynamicSimulation::new(
        &schedule,
        &inputs,
        faults,
        &rule,
        Box::new(ConstantAdversary::new(-4e8)),
    )
    .unwrap();
    for _ in 0..30 {
        scalar.step().unwrap();
        identified.step().unwrap();
        dynamic.step().unwrap();
        assert_eq!(scalar.states(), identified.states());
        assert_eq!(scalar.states(), dynamic.states());
    }
}
