//! Property-based tests for the second-wave extensions: generalized fault
//! models, quantized Algorithm 1, time-varying topologies, and vector
//! (coordinate-wise) consensus.

use iabc::core::fault_model::{
    check_model, dominates_model, verify_model, AdversaryStructure, FaultModel, IdentifiedRule,
    ModelTrimmedMean,
};
use iabc::core::quantized::{quantize, quantize_inputs, QuantizedTrimmedMean, Rounding};
use iabc::core::rules::{TrimmedMean, UpdateRule};
use iabc::core::theorem1;
use iabc::graph::{generators, Digraph, NodeId, NodeSet};
use iabc::sim::adversary::{ConstantAdversary, ExtremesAdversary};
use iabc::sim::dynamic::{
    sample_edge_drops, DynamicSimulation, RoundRobinSchedule, TopologySchedule,
};
use iabc::sim::vector::{CoordinateWise, VectorSimConfig, VectorSimulation};
use iabc::sim::{RunConfig, Simulation};
use proptest::prelude::*;

fn arb_digraph(n: usize) -> impl Strategy<Value = Digraph> {
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v)))
        .collect();
    let count = pairs.len();
    proptest::collection::vec(any::<bool>(), count).prop_map(move |bits| {
        let mut g = Digraph::new(n);
        for (present, &(u, v)) in bits.iter().zip(&pairs) {
            if *present {
                g.add_edge(NodeId::new(u), NodeId::new(v));
            }
        }
        g
    })
}

fn arb_nodeset(n: usize) -> impl Strategy<Value = NodeSet> {
    proptest::collection::vec(any::<bool>(), n).prop_map(move |bits| {
        NodeSet::from_indices(
            n,
            bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The generalized checker under `Total(f)` agrees with the paper's
    /// Theorem 1 checker on random graphs, and any witness verifies.
    #[test]
    fn total_model_agrees_with_theorem1(g in arb_digraph(5), f in 0usize..3) {
        let model = FaultModel::Total(f);
        let report = check_model(&g, &model);
        prop_assert_eq!(report.is_satisfied(), theorem1::check(&g, f).is_satisfied());
        if let Some(w) = report.witness() {
            prop_assert!(verify_model(w, &g, &model));
        }
    }

    /// The uniform structure is the f-total model spelled out explicitly.
    #[test]
    fn uniform_structure_agrees_with_total(g in arb_digraph(5), f in 0usize..3) {
        let s = FaultModel::Structure(AdversaryStructure::uniform(5, f));
        let t = FaultModel::Total(f);
        prop_assert_eq!(
            check_model(&g, &s).is_satisfied(),
            check_model(&g, &t).is_satisfied()
        );
    }

    /// Structure feasibility is downward closed: if `S` is admitted, every
    /// subset of `S` is admitted.
    #[test]
    fn structure_admission_is_downward_closed(
        gens in proptest::collection::vec(arb_nodeset(6), 1..4),
        s in arb_nodeset(6),
        mask in arb_nodeset(6),
    ) {
        let a = AdversaryStructure::new(6, gens).expect("universe agrees");
        if a.admits(&s) {
            let subset = s.intersection(&mask);
            prop_assert!(a.admits(&subset));
        }
    }

    /// Coverage domination is monotone in the source set: growing `A` can
    /// only create domination, never destroy it.
    #[test]
    fn domination_is_monotone_in_source(
        g in arb_digraph(6),
        f in 0usize..3,
        a in arb_nodeset(6),
        extra in arb_nodeset(6),
        b in arb_nodeset(6),
    ) {
        let model = FaultModel::Total(f);
        let b = b.difference(&a).difference(&extra);
        if b.is_empty() {
            return Ok(());
        }
        let bigger = a.union(&extra).difference(&b);
        let a = a.difference(&b);
        if dominates_model(&g, &a, &b, &model) {
            prop_assert!(dominates_model(&g, &bigger, &b, &model));
        }
    }

    /// Per-node trim budgets never exceed the in-degree, and the structure
    /// budget never exceeds the size of the largest generator.
    #[test]
    fn trim_budgets_are_bounded(
        g in arb_digraph(6),
        gens in proptest::collection::vec(arb_nodeset(6), 1..4),
    ) {
        let a = AdversaryStructure::new(6, gens).expect("universe agrees");
        let max_gen = a.max_fault_size();
        let model = FaultModel::Structure(a);
        for v in g.nodes() {
            let budget = model.max_faulty_in_neighbors(&g, v);
            prop_assert!(budget <= g.in_degree(v));
            prop_assert!(budget <= max_gen);
        }
    }

    /// The structure-aware rule under `Total(f)` is Algorithm 1,
    /// value for value, on random inputs.
    #[test]
    fn model_rule_reduces_to_algorithm_one_under_total(
        own in -10.0f64..10.0,
        values in proptest::collection::vec(-10.0f64..10.0, 4..10),
        f in 0usize..2,
    ) {
        let n = values.len() + 1;
        let g = generators::complete(n);
        let rule = ModelTrimmedMean::new(FaultModel::Total(f));
        let classic = TrimmedMean::new(f);
        let mut pairs: Vec<(NodeId, f64)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (NodeId::new(i), v))
            .collect();
        let mut plain = values.clone();
        let a = rule
            .update(&g, NodeId::new(n - 1), own, &mut pairs)
            .expect("enough values");
        let b = classic.update(own, &mut plain).expect("enough values");
        prop_assert_eq!(a, b);
    }

    /// Structure-aware runs keep validity for random rack structures and
    /// inputs on K8, whatever the extremes adversary does.
    #[test]
    fn model_engine_validity_under_random_racks(
        seed in 0u64..300,
        a in 0usize..8,
        b in 0usize..8,
    ) {
        use iabc::sim::model_engine::ModelSimulation;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::complete(8);
        let rack = NodeSet::from_indices(8, [a, b]);
        let structure = AdversaryStructure::new(8, vec![rack.clone()]).expect("universe");
        let rule = ModelTrimmedMean::new(FaultModel::Structure(structure));
        let inputs: Vec<f64> = (0..8).map(|_| rng.random_range(-5.0..5.0)).collect();
        let mut sim = ModelSimulation::new(
            &g, &inputs, rack, &rule,
            Box::new(ExtremesAdversary::new(1e7)),
        ).expect("sim");
        let out = sim.run(&RunConfig { max_rounds: 150, ..RunConfig::default() }).expect("run");
        prop_assert!(out.validity.is_valid());
        prop_assert!(out.converged, "K8 under a 2-rack must converge (range {})", out.final_range);
    }

    /// Quantization is idempotent and ordered: floor ≤ nearest ≤ ceil.
    #[test]
    fn quantize_is_idempotent_and_ordered(x in -1e6f64..1e6, k in 1u32..12) {
        let q = 1.0 / f64::from(1u32 << k); // dyadic quantum, exact
        for rounding in [Rounding::Nearest, Rounding::Floor, Rounding::Ceil] {
            let once = quantize(x, q, rounding);
            prop_assert_eq!(quantize(once, q, rounding), once);
            prop_assert!((once - x).abs() <= q + 1e-12);
        }
        let lo = quantize(x, q, Rounding::Floor);
        let mid = quantize(x, q, Rounding::Nearest);
        let hi = quantize(x, q, Rounding::Ceil);
        prop_assert!(lo <= mid && mid <= hi);
    }

    /// The quantized rule's output is a lattice point inside the hull of
    /// its (lattice) inputs, for random lattice inputs.
    #[test]
    fn quantized_rule_output_is_lattice_point_in_hull(
        own_k in -64i32..64,
        ks in proptest::collection::vec(-64i32..64, 2..9),
        exp in 2u32..8,
    ) {
        let q = 1.0 / f64::from(1u32 << exp);
        let rule = QuantizedTrimmedMean::new(1, q, Rounding::Nearest).expect("valid");
        let own = f64::from(own_k) * q;
        let mut received: Vec<f64> = ks.iter().map(|&k| f64::from(k) * q).collect();
        let all: Vec<f64> = received.iter().copied().chain([own]).collect();
        let v = rule.update(own, &mut received).expect("enough values");
        let scaled = v / q;
        prop_assert_eq!(scaled, scaled.round(), "output {} off-lattice", v);
        let lo = all.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    /// With a fine quantum the quantized rule tracks the exact rule to
    /// within one quantum.
    #[test]
    fn fine_quantization_tracks_exact_rule(
        own in -8.0f64..8.0,
        received in proptest::collection::vec(-8.0f64..8.0, 3..9),
    ) {
        let q = 1.0 / 4096.0;
        let exact_rule = TrimmedMean::new(1);
        let quant_rule = QuantizedTrimmedMean::new(1, q, Rounding::Nearest).expect("valid");
        let mut a = received.clone();
        let mut b = received;
        let exact = exact_rule.update(own, &mut a).expect("enough");
        let quantized = quant_rule.update(own, &mut b).expect("enough");
        prop_assert!((exact - quantized).abs() <= q);
    }

    /// Quantized end-to-end runs reach the quantization floor with exact
    /// validity on K7, for random inputs and either rounding mode.
    #[test]
    fn quantized_runs_reach_the_floor(
        seed in 0u64..200,
        exp in 2u32..10,
        round_floor in any::<bool>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let q = 1.0 / f64::from(1u32 << exp);
        let rounding = if round_floor { Rounding::Floor } else { Rounding::Nearest };
        let g = generators::complete(7);
        let raw: Vec<f64> = (0..7).map(|_| rng.random_range(-4.0..4.0)).collect();
        let inputs = quantize_inputs(&raw, q, rounding);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = QuantizedTrimmedMean::new(2, q, rounding).expect("valid");
        let out = Simulation::new(
            &g,
            &inputs,
            faults,
            &rule,
            Box::new(ExtremesAdversary::new(1e6)),
        )
        .expect("valid sim")
        .run(&RunConfig { epsilon: q, max_rounds: 3_000, record_states: true })
        .expect("run");
        prop_assert!(out.validity.is_valid());
        prop_assert!(out.final_range <= q + 1e-12, "range {} > quantum {}", out.final_range, q);
    }

    /// The engine over a one-graph schedule object is the fixed-graph
    /// engine, trajectory for trajectory (stateless adversary).
    #[test]
    fn dynamic_static_schedule_equals_static_engine(
        seed in 0u64..300,
        rounds in 1usize..25,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::complete(7);
        let schedule = RoundRobinSchedule::new(vec![g.clone()], 1).expect("schedule");
        let inputs: Vec<f64> = (0..7).map(|_| rng.random_range(-5.0..5.0)).collect();
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let mut fixed = Simulation::new(
            &g, &inputs, faults.clone(), &rule,
            Box::new(ConstantAdversary::new(7e8)),
        ).expect("sim");
        let mut dynamic = DynamicSimulation::new(
            &schedule, &inputs, faults, &rule,
            Box::new(ConstantAdversary::new(7e8)),
        ).expect("sim");
        for _ in 0..rounds {
            fixed.step().expect("step");
            dynamic.step().expect("step");
        }
        prop_assert_eq!(fixed.states(), dynamic.states());
    }

    /// Round-robin schedules are periodic with period `len × dwell`.
    #[test]
    fn round_robin_is_periodic(dwell in 1usize..5, round in 1usize..60) {
        let graphs = vec![
            generators::complete(6),
            generators::cycle(6),
            generators::chord(6, 3),
        ];
        let s = RoundRobinSchedule::new(graphs, dwell).expect("schedule");
        let period = 3 * dwell;
        let a = s.graph_at(round).edge_count();
        let b = s.graph_at(round + period).edge_count();
        prop_assert_eq!(a, b);
    }

    /// Sampled edge-drop schedules honour the floor on every round and are
    /// deterministic in the seed.
    #[test]
    fn edge_drops_hold_floor_and_are_deterministic(
        seed in 0u64..500,
        p in 0.0f64..0.9,
        floor in 0usize..5,
    ) {
        let base = generators::complete(7); // in-degree 6
        let a = sample_edge_drops(&base, p, floor, seed, 12).expect("floor ≤ 6");
        let b = sample_edge_drops(&base, p, floor, seed, 12).expect("floor ≤ 6");
        for round in 1..=12 {
            let ga = a.graph_at(round);
            prop_assert!(ga.min_in_degree() >= floor);
            let gb = b.graph_at(round);
            let ea: Vec<_> = ga.edges().collect();
            let eb: Vec<_> = gb.edges().collect();
            prop_assert_eq!(ea, eb);
        }
    }

    /// A 1-dimensional vector simulation with a coordinate-wise adversary
    /// is exactly the scalar simulation.
    #[test]
    fn vector_dim1_equals_scalar(seed in 0u64..300, rounds in 1usize..20) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::complete(7);
        let scalars: Vec<f64> = (0..7).map(|_| rng.random_range(-5.0..5.0)).collect();
        let rows: Vec<Vec<f64>> = scalars.iter().map(|&v| vec![v]).collect();
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let mut scalar_sim = Simulation::new(
            &g, &scalars, faults.clone(), &rule,
            Box::new(ConstantAdversary::new(-3e8)),
        ).expect("sim");
        let mut vector_sim = VectorSimulation::new(
            &g, &rows, faults, &rule,
            Box::new(CoordinateWise::new(vec![Box::new(ConstantAdversary::new(-3e8))])),
        ).expect("sim");
        for _ in 0..rounds {
            scalar_sim.step().expect("step");
            vector_sim.step().expect("step");
        }
        for i in 0..7 {
            let v = vector_sim.state_of(NodeId::new(i));
            prop_assert_eq!(v[0], scalar_sim.states()[i]);
        }
    }

    /// Vector runs under coordinate-wise attacks keep box validity and
    /// converge on K7, for random input boxes and dimensions.
    #[test]
    fn vector_runs_keep_box_validity(seed in 0u64..200, d in 1usize..4) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::complete(7);
        let rows: Vec<Vec<f64>> = (0..7)
            .map(|_| (0..d).map(|_| rng.random_range(-5.0..5.0)).collect())
            .collect();
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let boxes: Vec<(f64, f64)> = (0..d)
            .map(|k| {
                let honest: Vec<f64> = (0..5).map(|i| rows[i][k]).collect();
                (
                    honest.iter().copied().fold(f64::INFINITY, f64::min),
                    honest.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                )
            })
            .collect();
        let advs: Vec<Box<dyn iabc::sim::adversary::Adversary>> = (0..d)
            .map(|_| Box::new(ExtremesAdversary::new(1e5)) as Box<_>)
            .collect();
        let mut sim = VectorSimulation::new(
            &g, &rows, faults, &rule, Box::new(CoordinateWise::new(advs)),
        ).expect("sim");
        let out = sim.run(&VectorSimConfig::default()).expect("run");
        prop_assert!(out.converged);
        prop_assert!(out.box_validity);
        for i in 0..5 {
            let v = sim.state_of(NodeId::new(i));
            for (k, &(lo, hi)) in boxes.iter().enumerate() {
                prop_assert!(
                    v[k] >= lo - 1e-9 && v[k] <= hi + 1e-9,
                    "node {i} coord {k}: {} outside [{lo}, {hi}]",
                    v[k]
                );
            }
        }
    }
}

/// The generalized **necessity** argument, executed: on a graph violating
/// the condition under a structure, the split-brain adversary built from
/// the generalized witness freezes even the structure-aware rule. (Each
/// L-node's outside slice is coverable, so it is exactly what
/// `ModelTrimmedMean` trims — the witness predicts its own trim.)
#[test]
fn generalized_necessity_freezes_structure_aware_rule() {
    use iabc::sim::adversary::SplitBrainAdversary;
    use iabc::sim::model_engine::ModelSimulation;

    let cases: Vec<(iabc::graph::Digraph, FaultModel)> = vec![
        // The paper's case as a uniform structure.
        (
            generators::chord(7, 5),
            FaultModel::Structure(AdversaryStructure::uniform(7, 2)),
        ),
        // Two disjoint 2-cycles under the empty structure: violated with
        // F = ∅ — the freeze is purely topological, no lies needed.
        (
            iabc::graph::Digraph::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)]).unwrap(),
            FaultModel::Structure(AdversaryStructure::new(4, vec![]).unwrap()),
        ),
    ];
    for (g, model) in cases {
        let report = check_model(&g, &model);
        let w = report.witness().expect("case must violate the condition");
        let core_w = iabc::core::Witness {
            fault_set: w.fault_set.clone(),
            left: w.left.clone(),
            center: w.center.clone(),
            right: w.right.clone(),
        };
        let (m, m_cap) = (0.0, 1.0);
        let n = g.node_count();
        let mut inputs = vec![0.5; n];
        for v in w.left.iter() {
            inputs[v.index()] = m;
        }
        for v in w.right.iter() {
            inputs[v.index()] = m_cap;
        }
        let rule = ModelTrimmedMean::new(model.clone());
        let adv = SplitBrainAdversary::from_witness(&core_w, m, m_cap, 0.5);
        let mut sim =
            ModelSimulation::new(&g, &inputs, w.fault_set.clone(), &rule, Box::new(adv)).unwrap();
        for _ in 0..100 {
            sim.step().unwrap();
        }
        // L pinned at m, R pinned at M — no convergence, exactly as the
        // generalized Theorem 1 argument predicts.
        for v in w.left.iter() {
            assert_eq!(sim.states()[v.index()], m, "L node {v} moved on {g}");
        }
        for v in w.right.iter() {
            assert_eq!(sim.states()[v.index()], m_cap, "R node {v} moved on {g}");
        }
        assert!(sim.honest_range() >= m_cap - m);
    }
}

/// Deterministic cross-check: the coverage-based local condition is at
/// least as strong as the cardinality-based one on a fixed panel (not a
/// proptest: the checkers are exponential).
#[test]
fn coverage_local_implies_cardinality_local_on_panel() {
    for (g, f) in [
        (generators::complete(7), 2usize),
        (generators::core_network(7, 2), 2),
        (generators::chord(5, 3), 1),
        (generators::hypercube(3), 1),
    ] {
        if check_model(&g, &FaultModel::Local(f)).is_satisfied() {
            assert!(
                iabc::core::local_fault::check_local(&g, f).is_satisfied(),
                "coverage-local ⇒ cardinality-local failed on {g}"
            );
        }
    }
}
