//! The unified execution surface shared by every engine: [`RunConfig`],
//! [`Termination`], [`Outcome`], and the [`Engine`] trait whose provided
//! [`Engine::run`] owns the convergence/round-cap loop **once**.
//!
//! The paper defines a single execution model — iterate: transmit, trim,
//! update — and every engine in this crate (synchronous, model-aware,
//! dynamic-topology, delay-bounded, withholding, vector) is a variation on
//! that loop. Before this module each engine re-implemented the driver with
//! slightly different signatures and outcome types; now they implement the
//! four state accessors plus [`Engine::step`] and inherit the driver.
//!
//! # Termination semantics
//!
//! A run ends in exactly one of three ways, recorded as [`Termination`]:
//!
//! * [`Termination::Converged`] — the fault-free range `U[t] − µ[t]`
//!   reached `epsilon`. Checked before the round cap, so a run whose final
//!   permitted step lands at or below `epsilon` counts as converged.
//! * [`Termination::RoundCapReached`] — `max_rounds` iterations executed
//!   with the range still above `epsilon`. No statement about the limit is
//!   implied: the run may simply have been budgeted too short.
//! * [`Termination::Halted`] — the engine itself reported (via
//!   [`StepStatus::Halted`]) that no future step can change any fault-free
//!   state, and the range is still above `epsilon`. This is a *proof of
//!   non-convergence* for the given execution, not a budget artifact; e.g.
//!   the totally-asynchronous withholding engine halts when every honest
//!   node's survivor set is empty (`|N⁻_i| = 3f`, §7).

use iabc_graph::NodeSet;

use crate::error::SimError;
use crate::trace::{Trace, ValidityReport};

/// Floating-point tolerance used by the driver's Equation 1 audit.
const VALIDITY_TOLERANCE: f64 = 1e-9;

/// Configuration for a run: convergence target, round budget, and whether
/// the trace keeps full per-round state vectors.
///
/// Shared by every engine, including the asynchronous ones (which before
/// unification took bare `(epsilon, max_rounds)` floats and could not
/// record states).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Record full per-round state vectors in the trace (costs memory).
    pub record_states: bool,
    /// Convergence threshold on the fault-free range `U[t] − µ[t]`.
    pub epsilon: f64,
    /// Hard cap on iterations.
    pub max_rounds: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            record_states: true,
            epsilon: 1e-6,
            max_rounds: 10_000,
        }
    }
}

impl RunConfig {
    /// A config with the given `epsilon` and `max_rounds` and no state
    /// recording — the shape the asynchronous engines' old bare-float
    /// `run(epsilon, max_rounds)` signature implied.
    pub fn bounded(epsilon: f64, max_rounds: usize) -> Self {
        RunConfig {
            record_states: false,
            epsilon,
            max_rounds,
        }
    }
}

/// What one [`Engine::step`] reports back to the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// The engine advanced one round normally.
    Progressed,
    /// The engine proved that no future step can change any fault-free
    /// state; the driver stops with [`Termination::Halted`] (unless the
    /// frozen configuration already satisfies `epsilon`, which reports
    /// [`Termination::Converged`]).
    Halted,
}

/// Why a run ended. See the module docs for exact semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The fault-free range reached `epsilon`.
    Converged,
    /// The round budget ran out with the range above `epsilon`.
    RoundCapReached,
    /// The engine reported a permanent fixpoint above `epsilon`.
    Halted,
}

/// Outcome of a completed run — one type for every engine (the separate
/// asynchronous outcome type of the pre-unification API is gone).
#[derive(Debug)]
pub struct Outcome {
    /// `true` iff `termination == Termination::Converged`. Kept as a field
    /// for compatibility with pre-unification code.
    pub converged: bool,
    /// Why the run ended.
    pub termination: Termination,
    /// Rounds actually executed.
    pub rounds: usize,
    /// Final fault-free range `U − µ`.
    pub final_range: f64,
    /// Audit of the validity condition (Equation 1) over the whole run.
    pub validity: ValidityReport,
    /// The recorded trace.
    pub trace: Trace,
}

/// The fault-free range `U − µ` of a state vector (shared by every
/// engine's `honest_range`). One thin wrapper over the workspace-wide
/// extremes scan [`iabc_core::rules::honest_extremes`] — the deployment
/// report and the trace recorder read the same definition, so the
/// runtime's notion of convergence cannot drift from the engines'.
pub(crate) fn honest_range_of(states: &[f64], fault_set: &NodeSet) -> f64 {
    let (lo, hi) = iabc_core::rules::honest_extremes(states, fault_set);
    hi - lo
}

/// The input validation every engine constructor shares: one finite input
/// per node, a fault set over the same universe, and at least one
/// fault-free node.
pub(crate) fn check_inputs(n: usize, inputs: &[f64], fault_set: &NodeSet) -> Result<(), SimError> {
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
    Ok(())
}

/// A steppable iterative-consensus engine.
///
/// Implementors provide the four state accessors and [`Engine::step`]; the
/// provided [`Engine::run`] drives the convergence/round-cap loop, records
/// the trace, audits validity, and assembles the unified [`Outcome`].
///
/// The synchronous kernel [`crate::SyncEngine`] (behind
/// [`crate::Simulation`], [`crate::dynamic::DynamicSimulation`] and
/// [`crate::model_engine::ModelSimulation`]),
/// [`crate::async_engine::DelayBoundedSim`],
/// [`crate::async_engine::WithholdingSim`] and
/// [`crate::vector::VectorSimulation`] implement this trait, as does any
/// engine built through [`crate::Scenario`]; the W-MSR and Dolev baseline
/// rules are driven through it too (via
/// [`crate::Scenario::rule`] + [`crate::Scenario::synchronous`]).
pub trait Engine {
    /// Executes one iteration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Rule`] if the update rule fails at some node.
    fn step(&mut self) -> Result<StepStatus, SimError>;

    /// Iterations executed so far.
    fn round(&self) -> usize;

    /// Current state vector. Faulty entries are whatever their inputs
    /// were; only fault-free entries are meaningful. Vector engines expose
    /// a row-major flattened view (see
    /// [`crate::vector::VectorSimulation`]'s `Engine` docs).
    fn states(&self) -> &[f64];

    /// The faulty set, over the same index space as [`Engine::states`].
    fn fault_set(&self) -> &NodeSet;

    /// Current fault-free range `U − µ`.
    fn honest_range(&self) -> f64 {
        honest_range_of(self.states(), self.fault_set())
    }

    /// Called by the driver once before its loop starts. Engines with
    /// run-scoped native audit state reset it here so an [`Engine::run`]
    /// after manual [`Engine::step`]s (or a second `run`) is judged on its
    /// own rounds only — mirroring how the trace audit naturally covers
    /// just the run window. The default does nothing.
    fn begin_run(&mut self) {}

    /// Engine-native validity audit, if the engine tracks one finer than
    /// the driver's trace-extremes audit. The default (`None`) makes the
    /// driver audit Equation 1 on the recorded trace; the vector engine
    /// overrides this with its **per-coordinate** box audit (the flattened
    /// trace only sees the union hull across coordinates, which can miss a
    /// single coordinate escaping its own hull while staying inside
    /// another's).
    fn native_validity(&self) -> Option<ValidityReport> {
        None
    }

    /// Engine-native convergence range, if it differs from the extremes of
    /// the flattened [`Engine::states`] view. The default (`None`) lets
    /// the driver reuse the `(min, max)` pair [`Trace::push`] already
    /// computed — one fused scan per round. The vector engine overrides
    /// this with its **maximum per-coordinate** range: the flattened
    /// extremes only see the union hull across coordinates, which can
    /// report convergence while one coordinate is still wide.
    fn native_range(&self) -> Option<f64> {
        None
    }

    /// Runs until the fault-free range is `≤ config.epsilon`, the round
    /// cap fires, or the engine halts — recording a trace and auditing
    /// validity throughout. This provided driver is the *only*
    /// convergence loop in the crate.
    ///
    /// The convergence check, the trace extremes, and the reported
    /// `final_range` all come from the **single** min/max pass inside
    /// [`Trace::push`] (unless the engine supplies
    /// [`Engine::native_range`]); the pre-fusion driver scanned the state
    /// vector three times per round for the same numbers.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Rule`] from [`Engine::step`].
    fn run(&mut self, config: &RunConfig) -> Result<Outcome, SimError> {
        self.begin_run();
        let mut trace = Trace::new(config.record_states);
        let (mut lo, mut hi) = trace.push(self.round(), self.states(), self.fault_set());
        let mut range = self.native_range().unwrap_or(hi - lo);
        let mut halted = false;
        let termination = loop {
            if range <= config.epsilon {
                break Termination::Converged;
            }
            if halted {
                break Termination::Halted;
            }
            if self.round() >= config.max_rounds {
                break Termination::RoundCapReached;
            }
            halted = self.step()? == StepStatus::Halted;
            (lo, hi) = trace.push(self.round(), self.states(), self.fault_set());
            range = self.native_range().unwrap_or(hi - lo);
        };
        let validity = self
            .native_validity()
            .unwrap_or_else(|| trace.validity(VALIDITY_TOLERANCE));
        Ok(Outcome {
            converged: termination == Termination::Converged,
            termination,
            rounds: self.round(),
            final_range: range,
            validity,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake engine whose range halves per step, halting at `halt_after`.
    #[derive(Debug)]
    struct Fake {
        states: Vec<f64>,
        faults: NodeSet,
        round: usize,
        halt_after: Option<usize>,
    }

    impl Fake {
        fn new(hi: f64, halt_after: Option<usize>) -> Self {
            Fake {
                states: vec![0.0, hi],
                faults: NodeSet::with_universe(2),
                round: 0,
                halt_after,
            }
        }
    }

    impl Engine for Fake {
        fn step(&mut self) -> Result<StepStatus, SimError> {
            self.round += 1;
            if self.halt_after.is_some_and(|h| self.round >= h) {
                return Ok(StepStatus::Halted);
            }
            self.states[1] /= 2.0;
            Ok(StepStatus::Progressed)
        }
        fn round(&self) -> usize {
            self.round
        }
        fn states(&self) -> &[f64] {
            &self.states
        }
        fn fault_set(&self) -> &NodeSet {
            &self.faults
        }
    }

    #[test]
    fn driver_converges_and_counts_rounds() {
        let mut e = Fake::new(8.0, None);
        let out = e
            .run(&RunConfig {
                epsilon: 1.0,
                max_rounds: 100,
                record_states: true,
            })
            .unwrap();
        assert_eq!(out.termination, Termination::Converged);
        assert!(out.converged);
        assert_eq!(out.rounds, 3); // 8 -> 4 -> 2 -> 1
        assert_eq!(out.trace.records().len(), 4);
        assert!(out.validity.is_valid());
    }

    #[test]
    fn driver_respects_round_cap() {
        let mut e = Fake::new(8.0, None);
        let out = e.run(&RunConfig::bounded(0.0, 5)).unwrap();
        assert_eq!(out.termination, Termination::RoundCapReached);
        assert!(!out.converged);
        assert_eq!(out.rounds, 5);
        assert!(out.trace.last().unwrap().states.is_empty());
    }

    #[test]
    fn driver_reports_halt_above_epsilon() {
        let mut e = Fake::new(8.0, Some(2));
        let out = e.run(&RunConfig::bounded(1e-6, 100)).unwrap();
        assert_eq!(out.termination, Termination::Halted);
        assert!(!out.converged);
        assert_eq!(out.rounds, 2);
        assert_eq!(out.final_range, 4.0); // one real halving, then frozen
    }

    #[test]
    fn halt_at_or_below_epsilon_is_converged() {
        let mut e = Fake::new(8.0, Some(1));
        let out = e.run(&RunConfig::bounded(10.0, 100)).unwrap();
        assert_eq!(out.termination, Termination::Converged);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn zero_budget_with_wide_range_is_cap() {
        let mut e = Fake::new(8.0, None);
        let out = e.run(&RunConfig::bounded(1.0, 0)).unwrap();
        assert_eq!(out.termination, Termination::RoundCapReached);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn bounded_config_disables_state_recording() {
        let c = RunConfig::bounded(1e-3, 42);
        assert!(!c.record_states);
        assert_eq!(c.epsilon, 1e-3);
        assert_eq!(c.max_rounds, 42);
    }
}
