//! The retained **naive reference stepper** — the synchronous engine
//! exactly as it existed before the compiled/zero-allocation hot path.
//!
//! Kept on purpose, not nostalgia:
//!
//! * the differential test suite (`tests/compiled_equivalence.rs`) steps
//!   [`ReferenceStepper`] and [`crate::Simulation`] in lockstep over random
//!   digraphs, fault sets, and adversaries, asserting **bit-for-bit**
//!   identical trajectories — the compiled engine's correctness argument is
//!   "same arithmetic, different plumbing", and this module is the "same
//!   arithmetic" witness;
//! * the hot-path datapoints of `iabc perf` (`iabc_bench::perf`) measure
//!   the compiled engine against this stepper paired with
//!   [`ReferenceTrimmedMean`], so the reported speedup is against the real
//!   pre-refactor code path (per-round `Vec` clones, per-message
//!   [`AdversaryView`] construction, bitset gathers, comparator sort), not
//!   a strawman.
//!
//! Nothing here is optimized, and nothing here should be "improved" — its
//! entire value is staying byte-identical to the pre-refactor semantics.
//! (The adversary is now consulted through the two-phase plan protocol —
//! the trait no longer offers per-edge queries — but the plan is filled
//! in exactly the old query order, so every value and RNG draw is
//! unchanged; the *arithmetic* below is still the pre-refactor loop,
//! allocations and all.)

use iabc_core::rules::{sanitize, UpdateRule};
use iabc_core::RuleError;
use iabc_graph::{Digraph, NodeSet};

use crate::adversary::{Adversary, AdversaryView};
use crate::error::SimError;
use crate::plan::{faulty_edges_of, PlannedMessage, RoundPlan, RoundSlots};

/// The pre-refactor synchronous step loop: clones the state vector twice
/// per round, iterates bitset adjacency, and allocates a fresh per-round
/// adversary plan (the pre-two-phase loop built one [`AdversaryView`] per
/// faulty in-edge query; the plan preserves that query order).
#[derive(Debug)]
pub struct ReferenceStepper<'a> {
    graph: &'a Digraph,
    fault_set: NodeSet,
    rule: &'a dyn UpdateRule,
    adversary: Box<dyn Adversary>,
    states: Vec<f64>,
    round: usize,
}

impl<'a> ReferenceStepper<'a> {
    /// Sets up the stepper; validation mirrors [`crate::Simulation::new`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::Simulation::new`].
    pub fn new(
        graph: &'a Digraph,
        inputs: &[f64],
        fault_set: NodeSet,
        rule: &'a dyn UpdateRule,
        adversary: Box<dyn Adversary>,
    ) -> Result<Self, SimError> {
        let n = graph.node_count();
        if inputs.len() != n {
            return Err(SimError::InputLengthMismatch {
                inputs: inputs.len(),
                nodes: n,
            });
        }
        if fault_set.universe() != n {
            return Err(SimError::FaultSetMismatch {
                universe: fault_set.universe(),
                nodes: n,
            });
        }
        if fault_set.len() == n {
            return Err(SimError::NoFaultFreeNodes);
        }
        if let Some((node, &value)) = inputs.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(SimError::NonFiniteInput { node, value });
        }
        Ok(ReferenceStepper {
            graph,
            fault_set,
            rule,
            adversary,
            states: inputs.to_vec(),
            round: 0,
        })
    }

    /// Current iteration count.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Current state vector.
    pub fn states(&self) -> &[f64] {
        &self.states
    }

    /// One pre-refactor synchronous iteration, allocations and all.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Rule`] if the update rule fails at some node.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.round += 1;
        let previous = self.states.to_vec();
        let mut next = previous.to_vec();
        let edges = faulty_edges_of(self.graph, &self.fault_set);
        let view = AdversaryView {
            round: self.round,
            graph: self.graph,
            states: &previous,
            fault_set: &self.fault_set,
        };
        let mut plan = RoundPlan::new();
        plan.begin(edges.len());
        self.adversary
            .plan_round(&view, RoundSlots::new(&edges, true), &mut plan);
        let mut cursor = 0u32;
        for i in self.graph.nodes() {
            if self.fault_set.contains(i) {
                continue;
            }
            let mut received = Vec::new();
            for j in self.graph.in_neighbors(i).iter() {
                let raw = if self.fault_set.contains(j) {
                    let planned = plan.get(cursor);
                    cursor += 1;
                    match planned {
                        PlannedMessage::Value(v) => v,
                        PlannedMessage::Omit => previous[i.index()],
                    }
                } else {
                    previous[j.index()]
                };
                received.push(sanitize(raw));
            }
            next[i.index()] = self
                .rule
                .update(previous[i.index()], &mut received)
                .map_err(|source| SimError::Rule {
                    node: i.index(),
                    round: self.round,
                    source,
                })?;
        }
        self.states = next;
        Ok(())
    }
}

/// The pre-refactor Algorithm 1 rule: per-update finiteness scan and the
/// comparator-based `sort_unstable_by(f64::total_cmp)` — the code
/// [`iabc_core::rules::TrimmedMean`] ran before the shared keyed-sort
/// kernel. Same outputs bit for bit; kept as the benchmark baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReferenceTrimmedMean {
    f: usize,
}

impl ReferenceTrimmedMean {
    /// Creates the rule for fault bound `f`.
    pub const fn new(f: usize) -> Self {
        ReferenceTrimmedMean { f }
    }
}

impl UpdateRule for ReferenceTrimmedMean {
    fn update(&self, own: f64, received: &mut [f64]) -> Result<f64, RuleError> {
        if !own.is_finite() {
            return Err(RuleError::NonFiniteInput { value: own });
        }
        if let Some(&bad) = received.iter().find(|v| !v.is_finite()) {
            return Err(RuleError::NonFiniteInput { value: bad });
        }
        if received.len() < 2 * self.f {
            return Err(RuleError::InsufficientValues {
                needed: 2 * self.f,
                got: received.len(),
            });
        }
        received.sort_unstable_by(f64::total_cmp);
        let survivors = &received[self.f..received.len() - self.f];
        let weight = 1.0 / (survivors.len() as f64 + 1.0);
        Ok(weight * (own + survivors.iter().sum::<f64>()))
    }

    fn min_weight(&self, in_degree: usize) -> Option<f64> {
        if in_degree < 2 * self.f {
            None
        } else {
            Some(1.0 / (in_degree as f64 + 1.0 - 2.0 * self.f as f64))
        }
    }

    fn name(&self) -> &'static str {
        "reference-trimmed-mean"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{ConstantAdversary, ExtremesAdversary};
    use crate::Simulation;
    use iabc_core::rules::TrimmedMean;
    use iabc_graph::generators;

    #[test]
    fn reference_rule_matches_production_rule_bitwise() {
        let fast = TrimmedMean::new(2);
        let slow = ReferenceTrimmedMean::new(2);
        let inputs = [4.0, -2.0, 0.5, 3.0, 9.0, -7.25, 1e-300, 2.0, 1e9];
        let mut a = inputs.to_vec();
        let mut b = inputs.to_vec();
        let va = fast.update(1.5, &mut a).unwrap();
        let vb = slow.update(1.5, &mut b).unwrap();
        assert_eq!(va.to_bits(), vb.to_bits());
        assert_eq!(fast.min_weight(7), slow.min_weight(7));
    }

    #[test]
    fn reference_stepper_matches_compiled_engine_bitwise() {
        let g = generators::complete(7);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let mut naive = ReferenceStepper::new(
            &g,
            &inputs,
            faults.clone(),
            &rule,
            Box::new(ExtremesAdversary::new(1e6)),
        )
        .unwrap();
        let mut compiled = Simulation::new(
            &g,
            &inputs,
            faults,
            &rule,
            Box::new(ExtremesAdversary::new(1e6)),
        )
        .unwrap();
        for _ in 0..25 {
            naive.step().unwrap();
            compiled.step().unwrap();
            assert_eq!(naive.states(), compiled.states());
        }
    }

    #[test]
    fn constructor_validates_like_the_engine() {
        let g = generators::complete(3);
        let rule = TrimmedMean::new(0);
        assert!(ReferenceStepper::new(
            &g,
            &[1.0, 2.0],
            NodeSet::with_universe(3),
            &rule,
            Box::new(ConstantAdversary::new(0.0)),
        )
        .is_err());
        assert!(ReferenceStepper::new(
            &g,
            &[1.0, f64::NAN, 2.0],
            NodeSet::with_universe(3),
            &rule,
            Box::new(ConstantAdversary::new(0.0)),
        )
        .is_err());
        assert!(ReferenceStepper::new(
            &g,
            &[1.0, 2.0, 3.0],
            NodeSet::full(3),
            &rule,
            Box::new(ConstantAdversary::new(0.0)),
        )
        .is_err());
    }
}
