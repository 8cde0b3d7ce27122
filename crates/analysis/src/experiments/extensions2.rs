//! X10–X13 — second wave of extension experiments.
//!
//! * **X10** — generalized fault models: adversary structures change the
//!   condition verdict (fault-location knowledge can restore possibility
//!   on the paper's §6.3 counterexample), and the structure-*oblivious*
//!   Algorithm 1 does not automatically cash in the structure-aware
//!   possibility — the gap between condition and algorithm is shown live.
//! * **X11** — time-varying topologies: per-round validity, dwell-based
//!   convergence through violating interludes, one-shot repair, and
//!   random edge-fade with an in-degree floor.
//! * **X12** — quantized Algorithm 1: validity is exact on the lattice and
//!   the honest range lands at (or below) one quantum.
//! * **X13** — vector states: coordinate-wise Algorithm 1 keeps the
//!   honest bounding box per coordinate but can leave the convex hull of
//!   the honest input vectors (the Vaidya–Garg boundary).

use iabc_core::fault_model::{check_model, AdversaryStructure, FaultModel};
use iabc_core::quantized::{quantize_inputs, QuantizedTrimmedMean, Rounding};
use iabc_core::rules::TrimmedMean;
use iabc_core::theorem1;
use iabc_graph::{generators, NodeId, NodeSet};
use iabc_sim::adversary::{ExtremesAdversary, SplitBrainAdversary};
use iabc_sim::dynamic::{
    sample_edge_drops, RoundRobinSchedule, SwitchOnceSchedule, TopologySchedule,
};
use iabc_sim::vector::{CornerPullAdversary, VectorSimConfig};
use iabc_sim::RunConfig;

use crate::table::Table;

use super::ExperimentResult;
use iabc_sim::Scenario;

/// Runs extension experiment X10 (generalized fault models).
pub fn x10_fault_models() -> ExperimentResult {
    let mut table = Table::new(["graph", "model", "verdict", "expected", "note"]);
    let mut pass = true;
    let chord7 = generators::chord(7, 5);
    let k7 = generators::complete(7);

    let rack56 = FaultModel::Structure(
        AdversaryStructure::new(7, vec![NodeSet::from_indices(7, [5, 6])]).expect("universe 7"),
    );
    let two_racks = FaultModel::Structure(
        AdversaryStructure::new(
            7,
            vec![
                NodeSet::from_indices(7, [0, 1]),
                NodeSet::from_indices(7, [2, 3]),
            ],
        )
        .expect("universe 7"),
    );
    let uniform2 = FaultModel::Structure(AdversaryStructure::uniform(7, 2));

    let cases: Vec<(&str, &iabc_graph::Digraph, FaultModel, bool, &str)> = vec![
        (
            "chord(7,5)",
            &chord7,
            FaultModel::Total(2),
            false,
            "paper §6.3",
        ),
        (
            "chord(7,5)",
            &chord7,
            uniform2.clone(),
            false,
            "explicit uniform structure ≡ f-total",
        ),
        (
            "chord(7,5)",
            &chord7,
            rack56.clone(),
            true,
            "fault-location knowledge restores possibility",
        ),
        ("K7", &k7, FaultModel::Total(2), true, "n > 3f"),
        (
            "K7",
            &k7,
            two_racks,
            true,
            "two 2-node racks, weaker than f-total(2)",
        ),
        (
            "K7",
            &k7,
            FaultModel::Local(2),
            true,
            "coverage-local condition",
        ),
    ];
    for (gname, g, model, expected, why) in cases {
        let report = check_model(g, &model);
        let ok = report.is_satisfied() == expected;
        if let Some(w) = report.witness() {
            pass &= iabc_core::fault_model::verify_model(w, g, &model);
        }
        pass &= ok;
        table.row([
            gname.to_string(),
            model.to_string(),
            if report.is_satisfied() {
                "satisfied"
            } else {
                "violated"
            }
            .to_string(),
            if expected { "satisfied" } else { "violated" }.to_string(),
            why.to_string(),
        ]);
    }

    // The gap between condition and algorithm: under the rack structure
    // chord(7,5) satisfies the generalized condition, but the paper's
    // structure-oblivious Algorithm 1 (trim f = 2) is still frozen by the
    // f-total witness adversary realized inside the structure (F = {5,6}).
    // The paper's literal §6.3 witness is used (its fault set {5,6} is the
    // rack, so the adversary is feasible under the structure).
    let mut notes = vec![
        "Coverage semantics: A ⇒𝔽 B iff some node of B has an in-slice in A no feasible \
         fault set covers; Total(f) reproduces the paper's threshold f + 1."
            .to_string(),
    ];
    {
        let w = iabc_core::Witness {
            fault_set: NodeSet::from_indices(7, [5, 6]),
            left: NodeSet::from_indices(7, [0, 2]),
            center: NodeSet::with_universe(7),
            right: NodeSet::from_indices(7, [1, 3, 4]),
        };
        pass &= w.verify(&chord7, 2, iabc_core::Threshold::synchronous(2));
        let (m, m_cap) = (0.0, 1.0);
        let mut inputs = vec![0.5; 7];
        for v in w.left.iter() {
            inputs[v.index()] = m;
        }
        for v in w.right.iter() {
            inputs[v.index()] = m_cap;
        }
        let rule = TrimmedMean::new(2);
        let adv = SplitBrainAdversary::from_witness(&w, m, m_cap, 0.5);
        let mut sim = Scenario::on(&chord7)
            .inputs(&inputs)
            .faults(w.fault_set.clone())
            .rule(&rule)
            .adversary(Box::new(adv))
            .synchronous()
            .expect("valid sim");
        for _ in 0..100 {
            sim.step().expect("step");
        }
        let frozen = sim.honest_range() >= m_cap - m;
        pass &= frozen;
        table.row([
            "chord(7,5)".to_string(),
            "rack {5,6} + oblivious Algorithm 1".to_string(),
            if frozen { "frozen" } else { "converged" }.to_string(),
            "frozen".to_string(),
            "condition-level possibility needs a structure-aware rule".to_string(),
        ]);

        // ...and the structure-aware rule closes the gap: same graph, same
        // adversary, same fault set — trimming the coverable prefix instead
        // of a fixed f converges.
        use iabc_core::fault_model::ModelTrimmedMean;

        let rack =
            AdversaryStructure::new(7, vec![NodeSet::from_indices(7, [5, 6])]).expect("universe 7");
        let aware = ModelTrimmedMean::new(FaultModel::Structure(rack));
        let adv = SplitBrainAdversary::from_witness(&w, m, m_cap, 0.5);
        let mut sim = Scenario::on(&chord7)
            .inputs(&inputs)
            .faults(w.fault_set.clone())
            .adversary(Box::new(adv))
            .model_aware(&aware)
            .expect("valid sim");
        let out = sim.run(&RunConfig::default()).expect("run");
        pass &= out.converged && out.validity.is_valid();
        table.row([
            "chord(7,5)".to_string(),
            "rack {5,6} + structure-aware rule".to_string(),
            if out.converged {
                format!("converged in {} rounds", out.rounds)
            } else {
                "frozen".to_string()
            },
            "converged".to_string(),
            "coverable-prefix trimming cashes in the possibility".to_string(),
        ]);
        notes.push(
            "The generalized condition being satisfied does NOT mean the f-total Algorithm 1 \
             succeeds — but ModelTrimmedMean (trim the maximal coverable prefix per end) does: \
             the same adversary that freezes the oblivious rule forever loses to the \
             structure-aware rule."
                .to_string(),
        );
    }

    ExperimentResult {
        id: "X10".into(),
        title: "Generalized fault models: adversary structures and the condition".into(),
        table,
        notes,
        artifacts: Vec::new(),
        pass,
    }
}

/// Runs extension experiment X11 (time-varying topologies).
pub fn x11_dynamic_topology() -> ExperimentResult {
    let mut table = Table::new([
        "schedule",
        "adversary",
        "converged",
        "valid",
        "rounds",
        "note",
    ]);
    let mut pass = true;
    let f = 2usize;
    let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0];
    let faults = NodeSet::from_indices(7, [5, 6]);
    let rule = TrimmedMean::new(f);

    // Static violating graph + proof adversary: frozen (the E1 baseline,
    // replayed through the dynamic engine).
    {
        let bad = generators::chord(7, 5);
        let w = theorem1::find_violation(&bad, f).expect("violated");
        let mut planted = vec![0.5; 7];
        for v in w.left.iter() {
            planted[v.index()] = 0.0;
        }
        for v in w.right.iter() {
            planted[v.index()] = 1.0;
        }
        let adv = SplitBrainAdversary::from_witness(&w, 0.0, 1.0, 0.5);
        let mut sim = Scenario::on(&bad)
            .inputs(&planted)
            .faults(w.fault_set.clone())
            .rule(&rule)
            .adversary(Box::new(adv))
            .dynamic(&bad)
            .expect("valid sim");
        let out = sim
            .run(&RunConfig {
                max_rounds: 120,
                ..RunConfig::default()
            })
            .expect("run");
        pass &= !out.converged && out.validity.is_valid();
        table.row([
            "static chord(7,5)".to_string(),
            "split-brain".to_string(),
            out.converged.to_string(),
            out.validity.is_valid().to_string(),
            out.rounds.to_string(),
            "violating graph freezes (Theorem 1)".to_string(),
        ]);
    }

    // Round-robin between two satisfying graphs.
    {
        let schedule = RoundRobinSchedule::new(
            vec![generators::complete(7), generators::core_network(7, 2)],
            1,
        )
        .expect("schedule");
        let mut sim = Scenario::on(schedule.graph_at(1))
            .inputs(&inputs)
            .faults(faults.clone())
            .rule(&rule)
            .adversary(Box::new(ExtremesAdversary::new(1e6)))
            .dynamic(&schedule)
            .expect("valid sim");
        let out = sim.run(&RunConfig::default()).expect("run");
        pass &= out.converged && out.validity.is_valid();
        table.row([
            "K7 ⇄ core(7,2), dwell 1".to_string(),
            "extremes".to_string(),
            out.converged.to_string(),
            out.validity.is_valid().to_string(),
            out.rounds.to_string(),
            "both graphs satisfy Theorem 1".to_string(),
        ]);
    }

    // Violating interludes with satisfying dwells.
    {
        let schedule =
            RoundRobinSchedule::new(vec![generators::chord(7, 5), generators::complete(7)], 4)
                .expect("schedule");
        let mut sim = Scenario::on(schedule.graph_at(1))
            .inputs(&inputs)
            .faults(faults.clone())
            .rule(&rule)
            .adversary(Box::new(ExtremesAdversary::new(1e4)))
            .dynamic(&schedule)
            .expect("valid sim");
        let out = sim.run(&RunConfig::default()).expect("run");
        pass &= out.converged && out.validity.is_valid();
        table.row([
            "chord(7,5) ⇄ K7, dwell 4".to_string(),
            "extremes".to_string(),
            out.converged.to_string(),
            out.validity.is_valid().to_string(),
            out.rounds.to_string(),
            "dwell ≥ n − f − 1 on K7 contracts every cycle".to_string(),
        ]);
    }

    // One-shot repair: violating prefix, then K7.
    {
        let bad = generators::chord(7, 5);
        let w = theorem1::find_violation(&bad, f).expect("violated");
        let schedule = SwitchOnceSchedule::new(bad, generators::complete(7), 40).expect("schedule");
        let mut planted = vec![0.5; 7];
        for v in w.left.iter() {
            planted[v.index()] = 0.0;
        }
        for v in w.right.iter() {
            planted[v.index()] = 1.0;
        }
        let adv = SplitBrainAdversary::from_witness(&w, 0.0, 1.0, 0.5);
        let mut sim = Scenario::on(schedule.graph_at(1))
            .inputs(&planted)
            .faults(w.fault_set.clone())
            .rule(&rule)
            .adversary(Box::new(adv))
            .dynamic(&schedule)
            .expect("valid sim");
        for _ in 0..40 {
            sim.step().expect("step");
        }
        let frozen_before = sim.honest_range() >= 1.0;
        let out = sim.run(&RunConfig::default()).expect("run");
        pass &= frozen_before && out.converged && out.validity.is_valid();
        table.row([
            "chord(7,5) → K7 at round 40".to_string(),
            "split-brain".to_string(),
            out.converged.to_string(),
            out.validity.is_valid().to_string(),
            out.rounds.to_string(),
            "repair unfreezes the run".to_string(),
        ]);
    }

    // Random edge fade with the validity floor 2f.
    {
        let base = generators::complete(8);
        let schedule = sample_edge_drops(&base, 0.3, 2 * f, 7, 64).expect("schedule");
        let floor_ok = schedule
            .distinct_graphs()
            .iter()
            .all(|g| g.min_in_degree() >= 2 * f);
        let inputs8 = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 0.0];
        let faults8 = NodeSet::from_indices(8, [6, 7]);
        let mut sim = Scenario::on(schedule.graph_at(1))
            .inputs(&inputs8)
            .faults(faults8)
            .rule(&rule)
            .adversary(Box::new(ExtremesAdversary::new(1e5)))
            .dynamic(&schedule)
            .expect("valid sim");
        let out = sim.run(&RunConfig::default()).expect("run");
        pass &= floor_ok && out.converged && out.validity.is_valid();
        table.row([
            "K8 with 30% edge fade, floor 2f".to_string(),
            "extremes".to_string(),
            out.converged.to_string(),
            out.validity.is_valid().to_string(),
            out.rounds.to_string(),
            format!("floor held on all {} sampled rounds", schedule.len()),
        ]);
    }

    ExperimentResult {
        id: "X11".into(),
        title: "Time-varying topologies: validity per round, convergence per dwell".into(),
        table,
        notes: vec![
            "Validity needs only in-degree ≥ 2f in each round's graph; convergence is \
             guaranteed when the schedule dwells ≥ n − f − 1 rounds on a Theorem-1-satisfying \
             graph infinitely often (Lemma 5 applies per dwell window)."
                .to_string(),
        ],
        artifacts: Vec::new(),
        pass,
    }
}

/// Runs extension experiment X12 (quantized Algorithm 1).
pub fn x12_quantized() -> ExperimentResult {
    let mut table = Table::new([
        "quantum",
        "rounding",
        "rounds",
        "final range",
        "≤ quantum",
        "valid",
    ]);
    let mut pass = true;
    let g = generators::complete(7);
    let f = 2usize;
    let faults = NodeSet::from_indices(7, [5, 6]);
    // Deliberately awkward sensor readings (≈√2, ≈e, ≈π) that no quantum
    // divides exactly.
    #[allow(clippy::approx_constant)]
    let raw_inputs = [0.03, 1.41, 2.72, 3.14, 4.0, 2.0, 2.0];

    for &quantum in &[0.25, 1.0 / 16.0, 1.0 / 256.0] {
        for rounding in [Rounding::Nearest, Rounding::Floor] {
            let rule = QuantizedTrimmedMean::new(f, quantum, rounding).expect("valid quantum");
            let inputs = quantize_inputs(&raw_inputs, quantum, rounding);
            let mut sim = Scenario::on(&g)
                .inputs(&inputs)
                .faults(faults.clone())
                .rule(&rule)
                .adversary(Box::new(ExtremesAdversary::new(1e6)))
                .synchronous()
                .expect("valid sim");
            let out = sim
                .run(&RunConfig {
                    epsilon: quantum,
                    max_rounds: 2_000,
                    record_states: true,
                })
                .expect("run");
            let at_floor = out.final_range <= quantum + 1e-12;
            pass &= at_floor && out.validity.is_valid();
            table.row([
                format!("{quantum}"),
                rounding.to_string(),
                out.rounds.to_string(),
                format!("{:.6}", out.final_range),
                at_floor.to_string(),
                out.validity.is_valid().to_string(),
            ]);
        }
    }

    ExperimentResult {
        id: "X12".into(),
        title: "Quantized Algorithm 1: exact validity, convergence to the quantization floor"
            .into(),
        table,
        notes: vec![
            "States live on the lattice k·quantum; rounding inside the survivor hull keeps \
             Theorem 2 exact, while convergence stops at one quantum instead of 0 (module docs \
             of iabc_core::quantized)."
                .to_string(),
        ],
        artifacts: Vec::new(),
        pass,
    }
}

/// Runs extension experiment X13 (vector-valued consensus).
pub fn x13_vector() -> ExperimentResult {
    let mut table = Table::new(["scenario", "converged", "box valid", "rounds", "note"]);
    let mut pass = true;
    let g = generators::complete(7);
    let faults = NodeSet::from_indices(7, [5, 6]);
    let rule = TrimmedMean::new(2);

    // 2-D fusion under a coordinate-wise extremes attack.
    {
        use iabc_sim::vector::CoordinateWise;
        let inputs: Vec<Vec<f64>> = vec![
            vec![0.0, 10.0],
            vec![1.0, 11.0],
            vec![2.0, 12.0],
            vec![3.0, 13.0],
            vec![4.0, 14.0],
            vec![0.0, 0.0],
            vec![0.0, 0.0],
        ];
        let adv = CoordinateWise::new(vec![
            Box::new(ExtremesAdversary::new(1e6)),
            Box::new(ExtremesAdversary::new(1e6)),
        ]);
        let mut sim = Scenario::on(&g)
            .inputs(&inputs.concat())
            .faults(faults.clone())
            .rule(&rule)
            .vector_adversary(Box::new(adv))
            .vector(2)
            .expect("valid sim");
        let out = sim.run(&VectorSimConfig::default()).expect("run");
        pass &= out.converged && out.box_validity;
        let v = sim.state_of(NodeId::new(0));
        pass &= (0.0..=4.0).contains(&v[0]) && (10.0..=14.0).contains(&v[1]);
        table.row([
            "2-D fusion, extremes per axis".to_string(),
            out.converged.to_string(),
            out.box_validity.to_string(),
            out.rounds.to_string(),
            format!("agreed near ({:.3}, {:.3}), inside the box", v[0], v[1]),
        ]);
    }

    // Off-hull demonstration: honest inputs on the diagonal.
    {
        let inputs: Vec<Vec<f64>> = (0..7)
            .map(|i| {
                let x = if i >= 5 { 2.0 } else { i as f64 };
                vec![x, x]
            })
            .collect();
        let mut sim = Scenario::on(&g)
            .inputs(&inputs.concat())
            .faults(faults.clone())
            .rule(&rule)
            .vector_adversary(Box::new(CornerPullAdversary::new()))
            .vector(2)
            .expect("valid sim");
        let out = sim.run(&VectorSimConfig::default()).expect("run");
        let v = sim.state_of(NodeId::new(0));
        let off_hull = (v[0] - v[1]).abs() > 0.5;
        pass &= out.converged && out.box_validity && off_hull;
        table.row([
            "diagonal inputs, corner-pull".to_string(),
            out.converged.to_string(),
            out.box_validity.to_string(),
            out.rounds.to_string(),
            format!(
                "agreed at ({:.3}, {:.3}) — {:.3} off the hull diagonal",
                v[0],
                v[1],
                (v[0] - v[1]).abs()
            ),
        ]);
    }

    ExperimentResult {
        id: "X13".into(),
        title: "Vector states: box-hull validity holds, convex-hull validity does not".into(),
        table,
        notes: vec![
            "Coordinate-wise lifting inherits the scalar guarantees per axis; the off-hull row \
             is the boundary the authors' follow-up vector consensus work (Vaidya–Garg, PODC \
             2013) exists to close."
                .to_string(),
        ],
        artifacts: Vec::new(),
        pass,
    }
}
