//! The [`Scenario`] builder — one entrypoint for every engine variant.
//!
//! A scenario is everything the paper's execution model needs before the
//! loop starts: a network, initial inputs, a faulty set, an update rule,
//! and an adversary. The builder collects those once; a *terminal* method
//! then picks the execution model and returns the corresponding engine —
//! all of which implement [`Engine`], so the same
//! [`Engine::run`]/[`crate::RunConfig`]/[`crate::Outcome`] surface drives
//! every variant:
//!
//! | terminal                  | engine                         | model |
//! |---------------------------|--------------------------------|-------|
//! | [`Scenario::synchronous`]   | [`Simulation`]                 | §2.1/§2.3 synchronous rounds |
//! | [`Scenario::model_aware`]   | [`ModelSimulation`]            | identity-aware trimming (generalized fault model) |
//! | [`Scenario::dynamic`]       | [`DynamicSimulation`]          | time-varying topology schedule |
//! | [`Scenario::delay_bounded`] | [`DelayBoundedSim`]            | §7 partial asynchrony, delay bound `B` |
//! | [`Scenario::withholding`]   | [`WithholdingSim`]             | §7 total asynchrony, withhold + trim `2f` |
//! | [`Scenario::vector`]        | [`VectorSimulation`]           | coordinate-wise Algorithm 1 on `ℝ^d` |
//! | [`Scenario::monte_carlo_batch`] | [`BatchedSimulation`]      | FastMath tier: `R` lockstep replicas, SoA states |
//!
//! Defaults: no faults, a [`ConformingAdversary`] (honest behaviour), and —
//! for [`Scenario::vector`] — a coordinate-wise conforming adversary.
//! Inputs are always required; scalar terminals additionally require a
//! [`Scenario::rule`]. A terminal invoked before its requirements are set
//! returns [`SimError::ScenarioIncomplete`].
//!
//! # Examples
//!
//! ```
//! use iabc_core::rules::TrimmedMean;
//! use iabc_graph::{generators, NodeSet};
//! use iabc_sim::adversary::ExtremesAdversary;
//! use iabc_sim::{Engine, RunConfig, Scenario, Termination};
//!
//! let g = generators::complete(7);
//! let rule = TrimmedMean::new(2);
//! let mut engine = Scenario::on(&g)
//!     .inputs(&[0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0])
//!     .faults(NodeSet::from_indices(7, [5, 6]))
//!     .rule(&rule)
//!     .adversary(Box::new(ExtremesAdversary::new(1e6)))
//!     .synchronous()?;
//! let outcome = engine.run(&RunConfig::default())?;
//! assert_eq!(outcome.termination, Termination::Converged);
//! assert!(outcome.validity.is_valid());
//! # Ok::<(), iabc_sim::SimError>(())
//! ```

use std::fmt;

use iabc_core::fastmath::FastRule;
use iabc_core::fault_model::IdentifiedRule;
use iabc_core::rules::UpdateRule;
use iabc_graph::{Digraph, NodeSet};

use crate::adversary::{Adversary, ConformingAdversary};
use crate::async_engine::{DelayBoundedSim, Scheduler, WithholdingSim};
use crate::dynamic::{DynamicSimulation, TopologySchedule};
use crate::engine::Simulation;
use crate::error::SimError;
use crate::fastmath::BatchedSimulation;
use crate::model_engine::ModelSimulation;
use crate::run::Engine;
use crate::vector::{CoordinateWise, VectorAdversary, VectorSimulation};

/// Builder for one consensus workload; see the [module docs](self).
pub struct Scenario<'a> {
    graph: &'a Digraph,
    inputs: Option<Vec<f64>>,
    fault_set: Option<NodeSet>,
    rule: Option<&'a dyn UpdateRule>,
    adversary: Option<Box<dyn Adversary>>,
    vector_adversary: Option<Box<dyn VectorAdversary>>,
    jobs: usize,
}

impl fmt::Debug for Scenario<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("graph", &self.graph)
            .field("inputs", &self.inputs)
            .field("fault_set", &self.fault_set)
            .field("rule", &self.rule.map(|r| r.name()))
            .finish_non_exhaustive()
    }
}

impl<'a> Scenario<'a> {
    /// Starts a scenario on `graph`. For [`Scenario::dynamic`] the graph
    /// only fixes the node universe (the schedule supplies each round's
    /// topology); every other terminal runs on it directly.
    pub fn on(graph: &'a Digraph) -> Self {
        Scenario {
            graph,
            inputs: None,
            fault_set: None,
            rule: None,
            adversary: None,
            vector_adversary: None,
            jobs: 1,
        }
    }

    /// Retains a persistent worker pool of `jobs` threads (`0` = all
    /// available cores) on the engines with a parallel phase: every
    /// terminal on the synchronous kernel ([`Scenario::synchronous`],
    /// [`Scenario::model_aware`], [`Scenario::dynamic`],
    /// [`Scenario::withholding`]) fans each round's node loop across it,
    /// [`Scenario::vector`] fans each coordinate's node loop, and
    /// [`Scenario::delay_bounded`] fans each tick's **update phase**
    /// (its send/deliver phases stay serial to preserve the scheduler's
    /// RNG order and mailbox overwrite semantics). A pure adversary family
    /// ([`crate::adversary::Adversary::fill`]) also fans its phase-1 plan
    /// fill on the scalar terminals. Threads are spawned once when the
    /// terminal builds the engine — never per step — and results are
    /// **bit-for-bit identical** to serial execution for any value:
    /// parallelism is purely a performance knob, never a semantic one.
    #[must_use]
    pub fn parallel(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Initial states, one per node — or, for [`Scenario::vector`],
    /// row-major `n × d` (node `i`'s vector at `inputs[i*d..(i+1)*d]`).
    #[must_use]
    pub fn inputs(mut self, inputs: &[f64]) -> Self {
        self.inputs = Some(inputs.to_vec());
        self
    }

    /// The Byzantine set (universe must match the graph). Defaults to no
    /// faults.
    #[must_use]
    pub fn faults(mut self, fault_set: NodeSet) -> Self {
        self.fault_set = Some(fault_set);
        self
    }

    /// Marks the given node indices faulty (convenience over
    /// [`Scenario::faults`], using the graph's node count as universe).
    #[must_use]
    pub fn fault_nodes<I: IntoIterator<Item = usize>>(self, nodes: I) -> Self {
        let n = self.graph.node_count();
        self.faults(NodeSet::from_indices(n, nodes))
    }

    /// The update rule applied by fault-free nodes. Required by
    /// [`Scenario::synchronous`], [`Scenario::dynamic`],
    /// [`Scenario::delay_bounded`], and [`Scenario::vector`]; **refused**
    /// (as [`SimError::ScenarioConflict`]) by [`Scenario::model_aware`]
    /// (which takes an [`IdentifiedRule`] directly) and
    /// [`Scenario::withholding`] (whose trim-`2f` rule is fixed by §7) —
    /// a configured rule those terminals cannot run must not be dropped
    /// silently.
    #[must_use]
    pub fn rule(mut self, rule: &'a dyn UpdateRule) -> Self {
        self.rule = Some(rule);
        self
    }

    /// The joint strategy of the faulty nodes. Defaults to
    /// [`ConformingAdversary`] (faulty nodes behave honestly).
    #[must_use]
    pub fn adversary(mut self, adversary: Box<dyn Adversary>) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// The vector-native strategy used by [`Scenario::vector`]. Defaults
    /// to a coordinate-wise stack of [`ConformingAdversary`].
    #[must_use]
    pub fn vector_adversary(mut self, adversary: Box<dyn VectorAdversary>) -> Self {
        self.vector_adversary = Some(adversary);
        self
    }

    fn take_inputs(&mut self) -> Result<Vec<f64>, SimError> {
        self.inputs
            .take()
            .ok_or(SimError::ScenarioIncomplete { what: "inputs" })
    }

    fn take_fault_set(&mut self) -> NodeSet {
        self.fault_set
            .take()
            .unwrap_or_else(|| NodeSet::with_universe(self.graph.node_count()))
    }

    fn take_rule(&mut self) -> Result<&'a dyn UpdateRule, SimError> {
        self.rule.take().ok_or(SimError::ScenarioIncomplete {
            what: "update rule",
        })
    }

    fn take_adversary(&mut self) -> Result<Box<dyn Adversary>, SimError> {
        if self.vector_adversary.is_some() {
            return Err(SimError::ScenarioConflict {
                what: "a vector adversary was set on a scalar scenario \
                       (scalar terminals take .adversary(..))",
            });
        }
        Ok(self
            .adversary
            .take()
            .unwrap_or_else(|| Box::new(ConformingAdversary::new())))
    }

    /// Terminal: the synchronous engine (the paper's base model).
    ///
    /// # Errors
    ///
    /// [`SimError::ScenarioIncomplete`] without inputs or rule; otherwise
    /// the [`Simulation::new`] validation errors.
    pub fn synchronous(mut self) -> Result<Simulation<'a>, SimError> {
        let inputs = self.take_inputs()?;
        let rule = self.take_rule()?;
        let fault_set = self.take_fault_set();
        let adversary = self.take_adversary()?;
        Simulation::new(self.graph, &inputs, fault_set, rule, adversary)
            .map(|sim| sim.with_jobs(self.jobs))
    }

    /// Terminal: the identity-aware engine for structure-aware rules
    /// (`(sender, value)` pairs are delivered to `rule`).
    ///
    /// # Errors
    ///
    /// [`SimError::ScenarioIncomplete`] without inputs;
    /// [`SimError::ScenarioConflict`] if a scalar [`Scenario::rule`] was
    /// also set (it cannot run here); otherwise the
    /// [`ModelSimulation::new`] validation errors.
    pub fn model_aware(
        mut self,
        rule: &'a dyn IdentifiedRule,
    ) -> Result<ModelSimulation<'a>, SimError> {
        if self.rule.is_some() {
            return Err(SimError::ScenarioConflict {
                what: "a scalar update rule was set on a model-aware scenario \
                       (pass the IdentifiedRule to .model_aware(..) instead)",
            });
        }
        let inputs = self.take_inputs()?;
        let fault_set = self.take_fault_set();
        let adversary = self.take_adversary()?;
        ModelSimulation::new(self.graph, &inputs, fault_set, rule, adversary)
            .map(|sim| sim.with_jobs(self.jobs))
    }

    /// Terminal: the time-varying-topology engine. The schedule must agree
    /// with the base graph on node count (the base graph conventionally is
    /// the schedule's round 1 graph).
    ///
    /// # Errors
    ///
    /// [`SimError::ScenarioIncomplete`] without inputs or rule,
    /// [`SimError::ScheduleMismatch`] if the schedule's node count differs
    /// from the base graph's; otherwise the [`DynamicSimulation::new`]
    /// validation errors.
    pub fn dynamic(
        mut self,
        schedule: &'a dyn TopologySchedule,
    ) -> Result<DynamicSimulation<'a>, SimError> {
        if schedule.node_count() != self.graph.node_count() {
            return Err(SimError::ScheduleMismatch {
                expected: self.graph.node_count(),
                got: schedule.node_count(),
            });
        }
        let inputs = self.take_inputs()?;
        let rule = self.take_rule()?;
        let fault_set = self.take_fault_set();
        let adversary = self.take_adversary()?;
        DynamicSimulation::new(schedule, &inputs, fault_set, rule, adversary)
            .map(|sim| sim.with_jobs(self.jobs))
    }

    /// Terminal: the §7 partially-asynchronous engine (per-edge mailboxes,
    /// message delays `< delay_bound` chosen by `scheduler`).
    ///
    /// # Errors
    ///
    /// [`SimError::ScenarioIncomplete`] without inputs or rule; otherwise
    /// the [`DelayBoundedSim::new`] validation errors.
    pub fn delay_bounded(
        mut self,
        scheduler: Box<dyn Scheduler>,
        delay_bound: usize,
    ) -> Result<DelayBoundedSim<'a>, SimError> {
        let inputs = self.take_inputs()?;
        let rule = self.take_rule()?;
        let fault_set = self.take_fault_set();
        let adversary = self.take_adversary()?;
        DelayBoundedSim::new(
            self.graph,
            &inputs,
            fault_set,
            rule,
            adversary,
            scheduler,
            delay_bound,
        )
        .map(|sim| sim.with_jobs(self.jobs))
    }

    /// Terminal: the §7 totally-asynchronous withhold-and-trim-`2f` engine
    /// with fault bound `f`. Its update rule is fixed by the algorithm, so
    /// a configured [`Scenario::rule`] is refused rather than ignored.
    ///
    /// # Errors
    ///
    /// [`SimError::ScenarioIncomplete`] without inputs;
    /// [`SimError::ScenarioConflict`] if a [`Scenario::rule`] was set (it
    /// cannot run here); otherwise the [`WithholdingSim::new`] validation
    /// errors.
    pub fn withholding(mut self, f: usize) -> Result<WithholdingSim<'a>, SimError> {
        if self.rule.is_some() {
            return Err(SimError::ScenarioConflict {
                what: "an update rule was set on a withholding scenario \
                       (its withhold-and-trim-2f rule is fixed by §7)",
            });
        }
        let inputs = self.take_inputs()?;
        let fault_set = self.take_fault_set();
        let adversary = self.take_adversary()?;
        WithholdingSim::new(self.graph, &inputs, fault_set, f, adversary)
            .map(|sim| sim.with_jobs(self.jobs))
    }

    /// Terminal: coordinate-wise Algorithm 1 on `ℝ^d`. Inputs are read as
    /// row-major `n × d`; the adversary is [`Scenario::vector_adversary`]
    /// (falling back to a `d`-wide conforming stack).
    ///
    /// # Errors
    ///
    /// [`SimError::ScenarioIncomplete`] without inputs, rule, or with
    /// `d == 0`; [`SimError::VectorShapeMismatch`] if the flat input
    /// length is not `n * d`; [`SimError::ScenarioConflict`] if a scalar
    /// [`Scenario::adversary`] was set (it cannot be adapted to `d`
    /// coordinates — use [`Scenario::vector_adversary`]); otherwise the
    /// [`VectorSimulation::new`] validation errors.
    pub fn vector(mut self, d: usize) -> Result<VectorSimulation<'a>, SimError> {
        let flat = self.take_inputs()?;
        let rule = self.take_rule()?;
        let n = self.graph.node_count();
        if d == 0 {
            return Err(SimError::ScenarioIncomplete {
                what: "nonzero vector dimension",
            });
        }
        if flat.len() != n * d {
            return Err(SimError::VectorShapeMismatch {
                inputs: flat.len(),
                nodes: n,
                dim: d,
            });
        }
        let rows: Vec<Vec<f64>> = flat.chunks(d).map(<[f64]>::to_vec).collect();
        let fault_set = self.take_fault_set();
        // Refuse to silently drop a configured scalar attack — whether or
        // not a vector adversary was also set: a run that "survives" an
        // adversary that never executed is the worst kind of false
        // positive.
        if self.adversary.is_some() {
            return Err(SimError::ScenarioConflict {
                what: "a scalar adversary was set on a vector scenario \
                       (use .vector_adversary(..), e.g. CoordinateWise)",
            });
        }
        let adversary = self.vector_adversary.take().unwrap_or_else(|| {
            Box::new(CoordinateWise::new(
                (0..d)
                    .map(|_| Box::new(ConformingAdversary::new()) as Box<dyn Adversary>)
                    .collect(),
            ))
        });
        VectorSimulation::new(self.graph, &rows, fault_set, rule, adversary)
            .map(|sim| sim.with_jobs(self.jobs))
    }

    /// Terminal: the FastMath replica-batched Monte-Carlo engine —
    /// `replicas` same-topology executions advanced in lockstep on a
    /// replica-major state layout (see
    /// [`crate::fastmath::BatchedSimulation`]). Inputs are read as
    /// replica-major `n × replicas` (node `i` replica `r` at
    /// `i * replicas + r`); `make_adversary(r)` builds each replica's
    /// independent adversary. Opting into this terminal opts into the
    /// FastMath tier: the rule is an [`FastRule`], not an exact-tier
    /// [`Scenario::rule`]. Each replica's outputs are bit-identical to the
    /// exact engine's under [`FastRule::exact`].
    ///
    /// # Errors
    ///
    /// [`SimError::ScenarioIncomplete`] without inputs;
    /// [`SimError::ScenarioConflict`] if an exact-tier [`Scenario::rule`]
    /// or a single scalar [`Scenario::adversary`] was set (neither can
    /// run here — the rule is superseded by `rule`, and one shared
    /// adversary instance cannot serve `replicas` independent streams);
    /// [`SimError::ReplicaShapeMismatch`] if the flat input length is not
    /// `n * replicas`; otherwise the
    /// [`crate::fastmath::BatchedSimulation::new`] validation errors.
    pub fn monte_carlo_batch(
        mut self,
        rule: FastRule,
        replicas: usize,
        make_adversary: impl FnMut(usize) -> Box<dyn Adversary>,
    ) -> Result<BatchedSimulation<'a>, SimError> {
        if self.rule.is_some() {
            return Err(SimError::ScenarioConflict {
                what: "an exact-tier update rule was set on a monte-carlo-batch \
                       scenario (pass the FastRule to .monte_carlo_batch(..) instead)",
            });
        }
        if self.adversary.is_some() {
            return Err(SimError::ScenarioConflict {
                what: "a single scalar adversary was set on a monte-carlo-batch \
                       scenario (pass a per-replica factory to .monte_carlo_batch(..))",
            });
        }
        if self.vector_adversary.is_some() {
            return Err(SimError::ScenarioConflict {
                what: "a vector adversary was set on a monte-carlo-batch scenario \
                       (pass a per-replica factory to .monte_carlo_batch(..))",
            });
        }
        let inputs = self.take_inputs()?;
        let fault_set = self.take_fault_set();
        BatchedSimulation::new(
            self.graph,
            &inputs,
            fault_set,
            rule,
            replicas,
            make_adversary,
        )
    }

    /// Terminal: like [`Scenario::synchronous`] but type-erased — handy
    /// when heterogeneous engines are driven through one code path.
    ///
    /// # Errors
    ///
    /// Same as [`Scenario::synchronous`].
    pub fn boxed_synchronous(self) -> Result<Box<dyn Engine + 'a>, SimError> {
        Ok(Box::new(self.synchronous()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::ConstantAdversary;
    use crate::async_engine::ImmediateScheduler;
    use crate::dynamic::RoundRobinSchedule;
    use crate::run::{RunConfig, Termination};
    use iabc_core::fault_model::{FaultModel, ModelTrimmedMean};
    use iabc_core::rules::TrimmedMean;
    use iabc_graph::generators;

    #[test]
    fn missing_inputs_or_rule_is_reported() {
        let g = generators::complete(4);
        let rule = TrimmedMean::new(0);
        assert!(matches!(
            Scenario::on(&g).rule(&rule).synchronous(),
            Err(SimError::ScenarioIncomplete { what: "inputs" })
        ));
        assert!(matches!(
            Scenario::on(&g).inputs(&[0.0; 4]).synchronous(),
            Err(SimError::ScenarioIncomplete {
                what: "update rule"
            })
        ));
    }

    #[test]
    fn defaults_are_fault_free_and_conforming() {
        let g = generators::complete(5);
        let rule = TrimmedMean::new(0);
        let mut sim = Scenario::on(&g)
            .inputs(&[0.0, 1.0, 2.0, 3.0, 4.0])
            .rule(&rule)
            .synchronous()
            .unwrap();
        let out = sim.run(&RunConfig::default()).unwrap();
        assert_eq!(out.termination, Termination::Converged);
    }

    #[test]
    fn fault_nodes_is_sugar_for_faults() {
        let g = generators::complete(7);
        let rule = TrimmedMean::new(2);
        let sim = Scenario::on(&g)
            .inputs(&[0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0])
            .fault_nodes([5, 6])
            .rule(&rule)
            .synchronous()
            .unwrap();
        assert_eq!(sim.fault_set(), &NodeSet::from_indices(7, [5, 6]));
    }

    #[test]
    fn every_terminal_builds() {
        let g = generators::complete(7);
        let rule = TrimmedMean::new(2);
        let aware = ModelTrimmedMean::new(FaultModel::Total(2));
        let schedule = RoundRobinSchedule::new(vec![generators::complete(7)], 1).unwrap();
        let base = || {
            Scenario::on(&g)
                .inputs(&[0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0])
                .fault_nodes([5, 6])
                .adversary(Box::new(ConstantAdversary::new(1e9)))
        };
        base().rule(&rule).synchronous().unwrap();
        base().model_aware(&aware).unwrap();
        base().rule(&rule).dynamic(&schedule).unwrap();
        base()
            .rule(&rule)
            .delay_bounded(Box::new(ImmediateScheduler), 1)
            .unwrap();
        base().withholding(2).unwrap();
        Scenario::on(&g)
            .inputs(&[0.0; 14])
            .fault_nodes([5, 6])
            .rule(&rule)
            .vector(2)
            .unwrap();
        let _boxed: Box<dyn Engine + '_> = base().rule(&rule).boxed_synchronous().unwrap();
    }

    #[test]
    fn parallel_reaches_the_withholding_terminal() {
        let g = generators::complete(7);
        let base = || Scenario::on(&g).inputs(&[0.0; 7]).fault_nodes([5, 6]);
        assert_eq!(base().parallel(2).withholding(2).unwrap().jobs(), 2);
        assert_eq!(base().withholding(2).unwrap().jobs(), 1);
    }

    #[test]
    fn dynamic_checks_schedule_node_count() {
        let g = generators::complete(5);
        let rule = TrimmedMean::new(0);
        let schedule = generators::complete(6);
        assert!(matches!(
            Scenario::on(&g)
                .inputs(&[0.0; 5])
                .rule(&rule)
                .dynamic(&schedule),
            Err(SimError::ScheduleMismatch {
                expected: 5,
                got: 6
            })
        ));
    }

    #[test]
    fn vector_checks_flat_input_shape() {
        let g = generators::complete(3);
        let rule = TrimmedMean::new(0);
        assert!(matches!(
            Scenario::on(&g).inputs(&[0.0; 5]).rule(&rule).vector(2),
            Err(SimError::VectorShapeMismatch {
                inputs: 5,
                nodes: 3,
                dim: 2
            })
        ));
        assert!(matches!(
            Scenario::on(&g).inputs(&[0.0; 6]).rule(&rule).vector(0),
            Err(SimError::ScenarioIncomplete { .. })
        ));
    }

    #[test]
    fn mismatched_adversary_kinds_are_refused_not_dropped() {
        use crate::vector::CornerPullAdversary;
        let g = generators::complete(7);
        let rule = TrimmedMean::new(2);
        // Scalar adversary on a vector terminal: the attack cannot run, so
        // building must fail rather than silently substitute honesty.
        assert!(matches!(
            Scenario::on(&g)
                .inputs(&[0.0; 14])
                .fault_nodes([5, 6])
                .rule(&rule)
                .adversary(Box::new(ConstantAdversary::new(1e9)))
                .vector(2),
            Err(SimError::ScenarioConflict { .. })
        ));
        // Vector adversary on a scalar terminal: same refusal.
        assert!(matches!(
            Scenario::on(&g)
                .inputs(&[0.0; 7])
                .fault_nodes([5, 6])
                .rule(&rule)
                .vector_adversary(Box::new(CornerPullAdversary::new()))
                .synchronous(),
            Err(SimError::ScenarioConflict { .. })
        ));
        // Both kinds set: still a refusal — one of them could not run.
        assert!(matches!(
            Scenario::on(&g)
                .inputs(&[0.0; 14])
                .fault_nodes([5, 6])
                .rule(&rule)
                .adversary(Box::new(ConstantAdversary::new(1e9)))
                .vector_adversary(Box::new(CornerPullAdversary::new()))
                .vector(2),
            Err(SimError::ScenarioConflict { .. })
        ));
    }

    #[test]
    fn rule_on_fixed_rule_terminals_is_refused_not_dropped() {
        use iabc_core::fault_model::{FaultModel, ModelTrimmedMean};
        // .withholding and .model_aware run their own rules; a configured
        // scalar rule could never execute, so building must fail.
        let g = generators::complete(7);
        let rule = TrimmedMean::new(2);
        let aware = ModelTrimmedMean::new(FaultModel::Total(2));
        assert!(matches!(
            Scenario::on(&g)
                .inputs(&[0.0; 7])
                .fault_nodes([5, 6])
                .rule(&rule)
                .withholding(2),
            Err(SimError::ScenarioConflict { .. })
        ));
        assert!(matches!(
            Scenario::on(&g)
                .inputs(&[0.0; 7])
                .fault_nodes([5, 6])
                .rule(&rule)
                .model_aware(&aware),
            Err(SimError::ScenarioConflict { .. })
        ));
    }

    #[test]
    fn debug_impl_names_the_rule() {
        let g = generators::complete(3);
        let rule = TrimmedMean::new(1);
        let dbg = format!("{:?}", Scenario::on(&g).rule(&rule));
        assert!(dbg.contains("trimmed-mean"), "{dbg}");
    }
}
