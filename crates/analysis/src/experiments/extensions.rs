//! X1 / X2 / X3 — extension experiments beyond the paper.
//!
//! * **X1** — the f-local fault model (Zhang–Sundaram \[18\]): the local
//!   condition implies the paper's total condition, sparse graphs admit
//!   f-local fault sets larger than `f`, and Algorithm 1 still converges
//!   under such a set on locally-satisfying graphs.
//! * **X2** — matrix representation (§2.3's Markov-chain remark): every
//!   round is a row-stochastic matrix on honest states; the per-round
//!   ergodicity coefficient `τ(M[t])` bounds the measured contraction and
//!   sharpens Lemma 5.
//! * **X3** — model comparison: forcing the adversary to broadcast (the
//!   model of \[16\]/\[17\]) strictly weakens the Theorem 1 proof attack, and
//!   omission/crash failures are absorbed.

use iabc_core::rules::TrimmedMean;
use iabc_core::{local_fault, robustness, theorem1};
use iabc_graph::{generators, NodeId, NodeSet};
use iabc_sim::adversary::{
    BroadcastOf, ConstantAdversary, CrashAdversary, PullAdversary, SelectiveOmissionAdversary,
    SplitBrainAdversary,
};
use iabc_sim::RunConfig;

use crate::matrix_repr::round_matrix;
use crate::table::Table;

use super::ExperimentResult;
use iabc_sim::Scenario;

/// Runs extension experiment X1 (f-local fault model).
pub fn x1_local_fault_model() -> ExperimentResult {
    let mut table = Table::new(["graph", "f", "total verdict", "local verdict", "note"]);
    let mut pass = true;

    for (name, g, f) in [
        ("K7", generators::complete(7), 2usize),
        ("core_network(7,2)", generators::core_network(7, 2), 2),
        ("chord(5,3)", generators::chord(5, 3), 1),
        ("chord(7,5)", generators::chord(7, 5), 2),
        ("chord(9,5)", generators::chord(9, 5), 2),
        ("hypercube(3)", generators::hypercube(3), 1),
    ] {
        let total = theorem1::check(&g, f).is_satisfied();
        let local_report = local_fault::check_local(&g, f);
        let local = local_report.is_satisfied();
        // Implication: local satisfied => total satisfied.
        pass &= !local || total;
        let note = match (total, local) {
            (true, true) => "agree (satisfied)".to_string(),
            (false, false) => "agree (violated)".to_string(),
            (true, false) => {
                let w = local_report.witness().expect("violated");
                pass &= local_fault::verify_local(w, &g, f, iabc_core::Threshold::synchronous(f));
                format!(
                    "local strictly stronger: |F| = {} witness",
                    w.fault_set.len()
                )
            }
            (false, true) => "IMPLICATION VIOLATED".to_string(),
        };
        table.row([
            name.to_string(),
            f.to_string(),
            if total { "satisfied" } else { "violated" }.to_string(),
            if local { "satisfied" } else { "violated" }.to_string(),
            note,
        ]);
    }

    // A large admissible f-local fault set on a sparse graph, executed:
    // chord(12, 5) with f = 2 and the 2-local set grown from {0}.
    {
        let g = generators::chord(12, 5);
        let f = 2;
        let fault = local_fault::grow_f_local(&g, &NodeSet::from_indices(12, [0]), f);
        let admissible = local_fault::is_f_local(&g, &fault, f) && fault.len() > f;
        let local_ok = local_fault::check_local(&g, f).is_satisfied();
        let mut row_note = format!("|F| = {} (> f = {f})", fault.len());
        if local_ok {
            let inputs: Vec<f64> = (0..12).map(|i| (i % 7) as f64).collect();
            let rule = TrimmedMean::new(f);
            let out = Scenario::on(&g)
                .inputs(&inputs)
                .faults(fault.clone())
                .rule(&rule)
                .adversary(Box::new(ConstantAdversary::new(1e9)))
                .synchronous()
                .expect("valid sim")
                .run(&RunConfig::default())
                .expect("run succeeds");
            pass &= admissible && out.converged && out.validity.is_valid();
            row_note = format!(
                "{row_note}; converged {} in {} rounds, valid {}",
                out.converged,
                out.rounds,
                out.validity.is_valid()
            );
        } else {
            // Local condition violated: just record; the admissibility part
            // must still hold.
            pass &= admissible;
            row_note = format!("{row_note}; local condition violated — no run");
        }
        table.row([
            "chord(12,5) + grown F".to_string(),
            f.to_string(),
            "-".to_string(),
            if local_ok { "satisfied" } else { "violated" }.to_string(),
            row_note,
        ]);
    }

    // Robustness tie-in: (2f+1)-robust graphs satisfy the *local* condition
    // too on our panel (the standard sufficient condition for f-local W-MSR).
    {
        let g = generators::complete(7);
        let f = 1usize;
        let robust = robustness::is_robust(&g, 2 * f + 1, 1);
        let local = local_fault::check_local(&g, f).is_satisfied();
        pass &= !robust || local;
        table.row([
            "K7 (robustness tie-in)".to_string(),
            f.to_string(),
            "-".to_string(),
            if local { "satisfied" } else { "violated" }.to_string(),
            format!("(2f+1)-robust: {robust} => local satisfied: {local}"),
        ]);
    }

    ExperimentResult {
        id: "X1".into(),
        title: "f-local fault model: local condition >= total condition; large admissible fault sets execute".into(),
        notes: vec![
            "local condition quantifies Theorem 1 over all f-local fault sets (any size)".into(),
        ],
        artifacts: Vec::new(),
        table,
        pass,
    }
}

/// Runs extension experiment X2 (matrix representation + ergodicity).
pub fn x2_matrix_representation() -> ExperimentResult {
    let mut table = Table::new([
        "graph",
        "rounds",
        "max tau(M[t])",
        "range bound via prod tau",
        "measured final range",
        "bound holds",
    ]);
    let mut pass = true;

    for (name, g, f, faults) in [
        (
            "K7, f=2",
            generators::complete(7),
            2usize,
            NodeSet::from_indices(7, [5, 6]),
        ),
        (
            "core_network(7,2), f=2",
            generators::core_network(7, 2),
            2,
            NodeSet::from_indices(7, [5, 6]),
        ),
        (
            "chord(5,3), f=1",
            generators::chord(5, 3),
            1,
            NodeSet::from_indices(5, [4]),
        ),
    ] {
        let n = g.node_count();
        let inputs: Vec<f64> = (0..n).map(|i| ((i * 13) % 9) as f64).collect();
        let rule = TrimmedMean::new(f);
        let mut sim = Scenario::on(&g)
            .inputs(&inputs)
            .faults(faults.clone())
            .rule(&rule)
            .adversary(Box::new(PullAdversary::new(false)))
            .synchronous()
            .expect("valid sim");

        let honest_range = |states: &[f64]| {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for (i, &v) in states.iter().enumerate() {
                if !faults.contains(NodeId::new(i)) {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
            hi - lo
        };
        let initial_range = honest_range(&inputs);
        let rounds = 15usize;
        let mut tau_product = 1.0f64;
        let mut max_tau = 0.0f64;
        let mut ok = true;
        for round in 1..=rounds {
            let prev = sim.states().to_vec();
            let mut adv = PullAdversary::new(false);
            let m = round_matrix(&g, f, &faults, &prev, &mut adv, round).expect("matrix builds");
            let tau = m.ergodicity_coefficient();
            max_tau = max_tau.max(tau);
            tau_product *= tau;
            sim.step().expect("step succeeds");
            ok &= honest_range(sim.states()) <= tau * honest_range(&prev) + 1e-9;
        }
        let final_range = honest_range(sim.states());
        let bound = tau_product * initial_range;
        ok &= final_range <= bound + 1e-9;
        pass &= ok;
        table.row([
            name.to_string(),
            rounds.to_string(),
            format!("{max_tau:.4}"),
            format!("{bound:.3e}"),
            format!("{final_range:.3e}"),
            ok.to_string(),
        ]);
    }

    ExperimentResult {
        id: "X2".into(),
        title:
            "Matrix representation: per-round tau(M[t]) bounds the contraction (sharpens Lemma 5)"
                .into(),
        notes: vec![
            "each round of Algorithm 1 rewritten as a row-stochastic matrix over honest states"
                .into(),
            "surviving faulty values bracketed by honest values (Lemma 3/4 construction)".into(),
        ],
        artifacts: Vec::new(),
        table,
        pass,
    }
}

/// Runs extension experiment X3 (broadcast restriction + omission faults).
pub fn x3_model_comparison() -> ExperimentResult {
    let mut table = Table::new(["scenario", "expectation", "observed"]);
    let mut pass = true;

    // (a) The split-brain attack on chord(7,5) loses its freezing power
    // under the broadcast restriction.
    {
        let g = generators::chord(7, 5);
        let w = theorem1::find_violation(&g, 2).expect("violated");
        let (m, m_cap) = (0.0, 1.0);
        let mut inputs = vec![0.5; 7];
        for v in w.left.iter() {
            inputs[v.index()] = m;
        }
        for v in w.right.iter() {
            inputs[v.index()] = m_cap;
        }
        let rule = TrimmedMean::new(2);
        let mut p2p = Scenario::on(&g)
            .inputs(&inputs)
            .faults(w.fault_set.clone())
            .rule(&rule)
            .adversary(Box::new(SplitBrainAdversary::from_witness(
                &w, m, m_cap, 0.5,
            )))
            .synchronous()
            .expect("valid sim");
        let mut bcast = Scenario::on(&g)
            .inputs(&inputs)
            .faults(w.fault_set.clone())
            .rule(&rule)
            .adversary(Box::new(BroadcastOf::new(
                SplitBrainAdversary::from_witness(&w, m, m_cap, 0.5),
            )))
            .synchronous()
            .expect("valid sim");
        for _ in 0..200 {
            p2p.step().expect("step");
            bcast.step().expect("step");
        }
        let ok = p2p.honest_range() >= 1.0 && bcast.honest_range() < p2p.honest_range();
        pass &= ok;
        table.row([
            "chord(7,5), f=2: split-brain, point-to-point vs broadcast".to_string(),
            "p2p frozen at 1.0; broadcast strictly smaller range".to_string(),
            format!(
                "p2p range {:.3}, broadcast range {:.3e}",
                p2p.honest_range(),
                bcast.honest_range()
            ),
        ]);
    }

    // (b) Crash-stop faults are absorbed on a satisfying graph.
    {
        let g = generators::complete(7);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let out = Scenario::on(&g)
            .inputs(&inputs)
            .faults(faults)
            .rule(&rule)
            .adversary(Box::new(CrashAdversary::new(2)))
            .synchronous()
            .expect("valid sim")
            .run(&RunConfig::default())
            .expect("run");
        pass &= out.converged && out.validity.is_valid();
        table.row([
            "K7, f=2: crash-stop at round 2".to_string(),
            "converges, valid (missing messages substituted in-hull)".to_string(),
            format!("converged {} in {} rounds", out.converged, out.rounds),
        ]);
    }

    // (c) Mixed omission + commission.
    {
        let g = generators::complete(7);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let out = Scenario::on(&g)
            .inputs(&inputs)
            .faults(faults)
            .rule(&rule)
            .adversary(Box::new(SelectiveOmissionAdversary::new(
                NodeSet::from_indices(7, [0, 1, 2]),
                1e8,
            )))
            .synchronous()
            .expect("valid sim")
            .run(&RunConfig::default())
            .expect("run");
        pass &= out.converged && out.validity.is_valid();
        table.row([
            "K7, f=2: omission to {0,1,2}, lies of 1e8 to the rest".to_string(),
            "converges, valid".to_string(),
            format!("converged {} in {} rounds", out.converged, out.rounds),
        ]);
    }

    ExperimentResult {
        id: "X3".into(),
        title:
            "Model comparison: broadcast restriction weakens the attack; omission/crash absorbed"
                .into(),
        notes: vec![
            "broadcast wrapper caches one value per (round, sender) — the [16]/[17] model".into(),
            "missing synchronous messages are substituted with the receiver's own state".into(),
        ],
        artifacts: Vec::new(),
        table,
        pass,
    }
}
