//! Lemma 5 bound evaluation against measured executions (experiment E10).
//!
//! Lemma 5: if at time `s` the fault-free nodes split into `R` (states
//! within half the range) propagating to `L` in `l` steps, then
//! `U[s+l] − µ[s+l] ≤ (1 − αˡ/2)(U[s] − µ[s])`. Theorem 3 instantiates `R`
//! as whichever half-range side propagates (Lemma 2 guarantees one does).
//!
//! [`measured_phase_length`] re-enacts that choice on a live state vector:
//! it splits the fault-free nodes at the mid-range and returns the
//! propagation length of whichever side propagates — the `l(s)` the proof
//! uses, so the theoretical factor `(1 − α^{l(s)}/2)` can be compared with
//! the measured contraction over those same `l(s)` rounds.

use iabc_core::alpha::contraction_factor;
use iabc_core::propagate::propagation_length;
use iabc_core::Threshold;
use iabc_graph::{Digraph, NodeId, NodeSet};

/// The half-range split of Theorem 3's proof at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSplit {
    /// Nodes with states in the lower half `[µ, (U+µ)/2)`.
    pub low: NodeSet,
    /// Nodes with states in the upper half `[(U+µ)/2, U]`.
    pub high: NodeSet,
}

/// Splits the fault-free nodes at the mid-range value (the proof of
/// Theorem 3). Returns `None` if the range is zero (already converged).
pub fn half_range_split(states: &[f64], fault_set: &NodeSet) -> Option<PhaseSplit> {
    let n = states.len();
    let honest = |i: usize| !fault_set.contains(NodeId::new(i));
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (i, &v) in states.iter().enumerate() {
        if honest(i) {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if hi <= lo {
        return None;
    }
    let mid = (hi + lo) / 2.0;
    let mut low = NodeSet::with_universe(n);
    let mut high = NodeSet::with_universe(n);
    for (i, &v) in states.iter().enumerate() {
        if honest(i) {
            if v < mid {
                low.insert(NodeId::new(i));
            } else {
                high.insert(NodeId::new(i));
            }
        }
    }
    Some(PhaseSplit { low, high })
}

/// The `l(s)` of the proof of Theorem 3: propagation length of whichever
/// half-range side propagates to the other. `None` if neither side
/// propagates (graph violates the condition) or the range is zero.
pub fn measured_phase_length(
    g: &Digraph,
    states: &[f64],
    fault_set: &NodeSet,
    threshold: Threshold,
) -> Option<usize> {
    let split = half_range_split(states, fault_set)?;
    // Prefer the side confined to the smaller interval, mirroring the proof:
    // try A = low propagating to B = high first, then the reverse.
    propagation_length(g, &split.low, &split.high, threshold)
        .or_else(|| propagation_length(g, &split.high, &split.low, threshold))
}

/// One point of the bound-vs-measured comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseComparison {
    /// Start round `s` of the phase.
    pub start_round: usize,
    /// Phase length `l(s)`.
    pub length: usize,
    /// Measured `range[s + l] / range[s]`.
    pub measured_factor: f64,
    /// Lemma 5 bound `1 − α^l / 2`.
    pub bound_factor: f64,
}

impl PhaseComparison {
    /// `true` iff the measured contraction respects the bound (with slack
    /// for floating-point noise).
    pub fn holds(&self) -> bool {
        self.measured_factor <= self.bound_factor + 1e-9
    }
}

/// Walks a recorded sequence of state vectors, re-enacting the proof's
/// phase decomposition: at each phase start `s`, compute `l(s)` from the
/// states, then compare the measured contraction over those `l(s)` rounds
/// with the Lemma 5 factor.
///
/// `states_per_round[t]` must be the full state vector after round `t`.
pub fn compare_phases(
    g: &Digraph,
    states_per_round: &[Vec<f64>],
    fault_set: &NodeSet,
    f: usize,
    alpha: f64,
) -> Vec<PhaseComparison> {
    let threshold = Threshold::synchronous(f);
    let range_of = |states: &[f64]| {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, &v) in states.iter().enumerate() {
            if !fault_set.contains(NodeId::new(i)) {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        hi - lo
    };
    let mut out = Vec::new();
    let mut s = 0usize;
    while s < states_per_round.len() {
        let Some(l) = measured_phase_length(g, &states_per_round[s], fault_set, threshold) else {
            break;
        };
        if l == 0 || s + l >= states_per_round.len() {
            break;
        }
        let r0 = range_of(&states_per_round[s]);
        let r1 = range_of(&states_per_round[s + l]);
        if r0 <= 1e-300 {
            break;
        }
        out.push(PhaseComparison {
            start_round: s,
            length: l,
            measured_factor: r1 / r0,
            bound_factor: contraction_factor(alpha, l),
        });
        s += l;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_core::alpha::algorithm1_alpha;
    use iabc_core::rules::TrimmedMean;
    use iabc_graph::generators;
    use iabc_sim::adversary::PullAdversary;
    use iabc_sim::{RunConfig, Simulation};

    #[test]
    fn half_range_split_partitions_honest_nodes() {
        let states = [0.0, 1.0, 9.0, 10.0, 555.0];
        let faults = NodeSet::from_indices(5, [4]);
        let split = half_range_split(&states, &faults).unwrap();
        assert_eq!(split.low.to_indices(), vec![0, 1]);
        assert_eq!(split.high.to_indices(), vec![2, 3]);
    }

    #[test]
    fn half_range_split_none_when_converged() {
        let states = [2.0, 2.0, 7.0];
        let faults = NodeSet::from_indices(3, [2]);
        assert!(half_range_split(&states, &faults).is_none());
    }

    #[test]
    fn boundary_value_goes_high() {
        // mid = 5.0; exactly-mid states belong to the upper half per the
        // proof's interval convention [mid, U].
        let states = [0.0, 5.0, 10.0];
        let faults = NodeSet::with_universe(3);
        let split = half_range_split(&states, &faults).unwrap();
        assert!(split.high.contains(NodeId::new(1)));
    }

    #[test]
    fn phase_length_on_complete_graph_is_one() {
        let g = generators::complete(7);
        let states = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0];
        let faults = NodeSet::with_universe(7);
        let l = measured_phase_length(&g, &states, &faults, Threshold::synchronous(2));
        assert_eq!(l, Some(1));
    }

    #[test]
    fn lemma5_bound_holds_on_real_run() {
        // E10 in miniature: run Algorithm 1 on a core network under a
        // stealthy adversary and check every phase respects the bound.
        let g = generators::core_network(7, 2);
        let inputs = [0.0, 10.0, 5.0, 2.0, 8.0, 0.0, 0.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let mut sim = Simulation::new(
            &g,
            &inputs,
            faults.clone(),
            &rule,
            Box::new(PullAdversary::new(true)),
        )
        .unwrap();
        let out = sim.run(&RunConfig::default()).unwrap();
        let states: Vec<Vec<f64>> = out
            .trace
            .records()
            .iter()
            .map(|r| r.states.clone())
            .collect();
        let alpha = algorithm1_alpha(&g, 2).unwrap();
        let phases = compare_phases(&g, &states, &faults, 2, alpha);
        assert!(!phases.is_empty(), "run must decompose into phases");
        for p in &phases {
            assert!(
                p.holds(),
                "phase at {} violated Lemma 5: measured {} > bound {}",
                p.start_round,
                p.measured_factor,
                p.bound_factor
            );
        }
    }

    #[test]
    fn compare_phases_stops_on_violating_graph() {
        // Hypercube violates the condition for f = 1: the half-range split
        // along the frozen dimension cut never propagates.
        let g = generators::hypercube(3);
        let faults = NodeSet::with_universe(8);
        let states: Vec<Vec<f64>> = vec![vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]; 4];
        let phases = compare_phases(&g, &states, &faults, 1, 0.25);
        assert!(phases.is_empty());
    }
}
