//! The synchronous round kernel (the paper's execution model, §2.1/§2.3).
//!
//! One iteration `t`:
//!
//! 1. **plan** (serial): the [`Adversary`] is handed one
//!    [`AdversaryView`] plus the round's faulty-edge slots and fills a
//!    [`RoundPlan`] — all adversary state mutates here, once per round;
//! 2. **gather + update** (parallelizable): every fault-free node applies
//!    its rule to `(own state, received vector)`, with faulty slots
//!    patched from the finished plan by index;
//! 3. states switch to the new values simultaneously (synchronous network).
//!
//! [`SyncEngine`] is the one implementation of that iteration. It varies
//! in exactly two ways:
//!
//! * **where each round's graph comes from** — a [`TopologySchedule`]. A
//!   fixed [`Digraph`] is the one-graph schedule, so [`Simulation`] and
//!   [`crate::dynamic::DynamicSimulation`] are the same type;
//! * **what the rule sees** — a [`RoundRule`] adapter: bare values for an
//!   [`UpdateRule`], `(sender, value)` pairs for an [`IdentifiedRule`]
//!   ([`crate::model_engine::ModelSimulation`]).
//!
//! [`crate::transcript`], [`crate::async_engine::WithholdingSim`] (over
//! each node's withheld in-rows) and [`crate::vector::VectorSimulation`]
//! (the node loop once per coordinate) run on the same kernel; the crate
//! docs say why [`crate::async_engine::DelayBoundedSim`] keeps its own.
//!
//! Non-finite Byzantine payloads are sanitized at the receiver boundary
//! (clamped to huge-but-finite sentinels) before reaching the rule — rules
//! also reject non-finite input themselves, as defense in depth.

use std::fmt;

use iabc_core::fault_model::IdentifiedRule;
use iabc_core::rules::{sanitize, UpdateRule};
use iabc_core::RuleError;
use iabc_exec::{Chunking, Executor, ScratchPool};
use iabc_graph::{CompiledTopology, Digraph, NodeId, NodeSet};

use crate::adversary::{Adversary, AdversaryView};
use crate::dynamic::TopologySchedule;
use crate::error::SimError;
use crate::plan::{
    dense_slot_table, fill_plan, sub_csr_edges, PlannedEdge, PlannedMessage, RoundPlan,
};
use crate::run::{check_inputs, honest_range_of, Engine, Outcome, RunConfig, StepStatus};

/// The rule side of the kernel: the shape of one received message and how
/// the rule consumes a gathered row. Implemented for `&dyn UpdateRule`
/// (bare values — the paper's Algorithm 1) and `&dyn IdentifiedRule`
/// (`(sender, value)` pairs — structure-aware trimming). The node loop is
/// monomorphized per adapter, so each gather stays a tight loop over
/// plain data.
pub trait RoundRule: Copy + fmt::Debug + Send + Sync {
    /// One received message as the rule sees it.
    type Msg: Copy + fmt::Debug + Send;

    /// The message `sender` delivers carrying `value`.
    fn msg(sender: u32, value: f64) -> Self::Msg;

    /// Replaces the value a gathered message carries (faulty slots are
    /// patched from the round plan; the sender stays).
    fn set_value(msg: &mut Self::Msg, value: f64);

    /// Applies the rule at `node` of the round's `graph`. May reorder
    /// `received`.
    ///
    /// # Errors
    ///
    /// The rule's own failure (e.g. too few messages to trim).
    fn apply(
        self,
        graph: &Digraph,
        node: usize,
        own: f64,
        received: &mut Vec<Self::Msg>,
    ) -> Result<f64, RuleError>;
}

impl RoundRule for &dyn UpdateRule {
    type Msg = f64;

    #[inline]
    fn msg(_sender: u32, value: f64) -> f64 {
        value
    }

    #[inline]
    fn set_value(msg: &mut f64, value: f64) {
        *msg = value;
    }

    #[inline]
    fn apply(
        self,
        _graph: &Digraph,
        _node: usize,
        own: f64,
        received: &mut Vec<f64>,
    ) -> Result<f64, RuleError> {
        UpdateRule::update(self, own, received)
    }
}

impl RoundRule for &dyn IdentifiedRule {
    type Msg = (NodeId, f64);

    #[inline]
    fn msg(sender: u32, value: f64) -> (NodeId, f64) {
        (NodeId::new(sender as usize), value)
    }

    #[inline]
    fn set_value(msg: &mut (NodeId, f64), value: f64) {
        msg.1 = value;
    }

    #[inline]
    fn apply(
        self,
        graph: &Digraph,
        node: usize,
        own: f64,
        received: &mut Vec<(NodeId, f64)>,
    ) -> Result<f64, RuleError> {
        IdentifiedRule::update(self, graph, NodeId::new(node), own, received)
    }
}

/// A synchronous iterative-consensus simulation over a topology schedule,
/// driving an [`UpdateRule`] (the scalar engine) — the paper's base model
/// on a fixed graph, or a time-varying one through
/// [`crate::dynamic::TopologySchedule`].
///
/// Usually built through [`crate::Scenario`]
/// (`Scenario::on(&g)...synchronous()`); the direct
/// `Simulation::new(&g, ..)` constructor remains for callers that already
/// hold all the parts.
pub type Simulation<'a> = SyncEngine<'a, &'a dyn UpdateRule>;

/// The synchronous round kernel behind [`Simulation`],
/// [`crate::dynamic::DynamicSimulation`] and
/// [`crate::model_engine::ModelSimulation`], and under
/// [`crate::transcript`] and [`crate::async_engine::WithholdingSim`]. It
/// is generic over where each round's graph comes from (a
/// [`TopologySchedule`]; a `&Digraph` is the one-graph schedule) and what
/// the rule sees (a [`RoundRule`] adapter).
///
/// # Hot-path contract
///
/// The constructor compiles the round-1 `(graph, fault set)` pair into a
/// [`CompiledTopology`] (CSR in-adjacency + dense fault flags) and
/// allocates **two** state buffers plus one scratch vector. Each
/// [`SyncEngine::step`] reads the current buffer, writes the next one,
/// and `std::mem::swap`s them — zero heap allocation per round in steady
/// state at `jobs = 1`. On a pool a round allocates only, every 31
/// dispatch messages, one block of std's channels (the crate docs give
/// counts). Faulty entries are never written, so both buffers carry the
/// faulty nodes' inputs forever (their "state" is meaningless in the
/// Byzantine model). One [`AdversaryView`] is built
/// per round; the adversary plans the whole round against it (phase 1),
/// and the node loop reads the plan by sub-CSR index (phase 2).
///
/// The schedule is consulted **once** per round. The compiled topology is
/// rebuilt in place (reusing its allocations) only when the schedule hands
/// out a different graph than the previous round — detected by reference
/// address, which is stable because [`TopologySchedule::graph_at`] returns
/// references into the schedule itself. A fixed graph therefore never
/// recompiles, and a dwelling schedule pays nothing inside a dwell window.
///
/// # Parallel rounds
///
/// [`SyncEngine::with_jobs`] builds a persistent [`iabc_exec::Executor`]
/// — worker threads are spawned **once**, then fed every round's node
/// loop over channels (phase 2), plus the plan fill itself for a pure
/// adversary family ([`crate::adversary::Adversary::fill`]; the
/// per-round `&mut` work — hull scans, RNG — always stays serial).
/// Results are **bit-identical to the serial loop for any job count**,
/// including across in-place topology rebuilds: each node's arithmetic
/// is a pure function of the previous states and the plan, and every
/// node is computed exactly once. See [`iabc_exec`] for
/// the scheduling contract.
///
/// # Examples
///
/// ```
/// use iabc_core::rules::TrimmedMean;
/// use iabc_graph::{generators, NodeSet};
/// use iabc_sim::{adversary::ConstantAdversary, RunConfig, Scenario};
///
/// // K7, f = 2: two colluding nodes shout 1e9; honest nodes still converge
/// // inside the honest input hull.
/// let g = generators::complete(7);
/// let rule = TrimmedMean::new(2);
/// let mut sim = Scenario::on(&g)
///     .inputs(&[0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0])
///     .faults(NodeSet::from_indices(7, [5, 6]))
///     .rule(&rule)
///     .adversary(Box::new(ConstantAdversary::new(1e9)))
///     .synchronous()?;
/// let outcome = sim.run(&RunConfig::default())?;
/// assert!(outcome.converged);
/// assert!(outcome.validity.is_valid());
/// # Ok::<(), iabc_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct SyncEngine<'a, R: RoundRule> {
    kernel: Kernel<'a, R>,
    fault_set: NodeSet,
    adversary: Box<dyn Adversary + 'a>,
    /// Whether the round's slots allow [`PlannedMessage::Omit`]: `true`
    /// for the synchronous family, `false` for the §7 withholding engine,
    /// whose withheld messages are the scheduler's power, not the
    /// adversary's.
    omissions: bool,
    states: Vec<f64>,
    next: Vec<f64>,
    round: usize,
    /// The per-round message table (retained allocation).
    plan: RoundPlan,
}

impl<'a, R: RoundRule> SyncEngine<'a, R> {
    /// Sets up a simulation with initial `inputs` (one per node). Pass a
    /// `&Digraph` for a fixed topology or any other schedule for a
    /// time-varying one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if inputs don't match the node count, contain
    /// non-finite values, the fault set universe mismatches, or no node is
    /// fault-free.
    pub fn new(
        schedule: &'a dyn TopologySchedule,
        inputs: &[f64],
        fault_set: NodeSet,
        rule: R,
        adversary: Box<dyn Adversary>,
    ) -> Result<Self, SimError> {
        check_inputs(schedule.node_count(), inputs, &fault_set)?;
        let rows = CompiledTopology::compile(schedule.graph_at(1), &fault_set);
        let kernel = Kernel::new(schedule, rows, rule);
        Ok(SyncEngine::from_kernel(
            kernel, inputs, fault_set, adversary, true,
        ))
    }

    /// The engine around a prebuilt `kernel`, for the crate's other
    /// kernel users (transcripts, the §7 withholding engine). `inputs`
    /// and `fault_set` must already have passed [`check_inputs`];
    /// `omissions` is the engine's fixed omission flag.
    pub(crate) fn from_kernel(
        kernel: Kernel<'a, R>,
        inputs: &[f64],
        fault_set: NodeSet,
        adversary: Box<dyn Adversary + 'a>,
        omissions: bool,
    ) -> Self {
        SyncEngine {
            kernel,
            fault_set,
            adversary,
            omissions,
            states: inputs.to_vec(),
            next: inputs.to_vec(),
            round: 0,
            plan: RoundPlan::new(),
        }
    }

    /// Retains a pool of `jobs` workers (`0` = all available cores) that
    /// every round's node loop — and, for a pure adversary family, the
    /// plan fill — is fanned across. Threads spawn **here, once**, not
    /// per step. Bit-for-bit identical to serial execution for any value.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.set_jobs(jobs);
        self
    }

    /// In-place form of [`SyncEngine::with_jobs`] (replaces the pool, so
    /// reconfiguring mid-run respawns workers — configure once).
    pub fn set_jobs(&mut self, jobs: usize) {
        self.kernel.set_jobs(jobs);
    }

    /// Worker threads used by the node loop.
    pub fn jobs(&self) -> usize {
        self.kernel.jobs()
    }

    /// The engine's worker pool (regression tests assert its threads are
    /// spawned once per run, never per step).
    pub fn executor(&self) -> &Executor {
        &self.kernel.exec
    }

    /// Current iteration count.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Current state vector (faulty entries are whatever their inputs were;
    /// only fault-free entries are meaningful).
    pub fn states(&self) -> &[f64] {
        &self.states
    }

    /// The faulty set.
    pub fn fault_set(&self) -> &NodeSet {
        &self.fault_set
    }

    /// Current fault-free range `U − µ`.
    pub fn honest_range(&self) -> f64 {
        honest_range_of(&self.states, &self.fault_set)
    }

    /// Executes one synchronous iteration on this round's graph — phase 1
    /// plans the adversary's round serially, phase 2 runs the compiled row
    /// gather per node, fanned across [`SyncEngine::jobs`] workers (see
    /// the type-level "hot-path contract").
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Rule`] if the update rule fails at some node
    /// (e.g. this round's graph leaves a node too few messages to trim).
    pub fn step(&mut self) -> Result<StepStatus, SimError> {
        self.round += 1;
        let graph = self.kernel.graph_at(self.round);
        let view = AdversaryView {
            round: self.round,
            graph,
            states: &self.states,
            fault_set: &self.fault_set,
        };
        fill_plan(
            self.adversary.as_mut(),
            &view,
            &self.kernel.planned_edges,
            &self.kernel.slot_edges,
            self.omissions,
            &mut self.plan,
            &self.kernel.exec,
        );
        self.kernel
            .node_loop(self.round, &self.states, &self.plan, &mut self.next)?;
        std::mem::swap(&mut self.states, &mut self.next);
        Ok(StepStatus::Progressed)
    }

    /// Runs via the shared [`Engine::run`] driver (convenience wrapper so
    /// callers need not import the trait).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Rule`] from [`SyncEngine::step`].
    pub fn run(&mut self, config: &RunConfig) -> Result<Outcome, SimError> {
        Engine::run(self, config)
    }

    /// The last round's faulty edges (slot order) and the plan the
    /// adversary filled for them — what transcripts record.
    pub(crate) fn last_plan(&self) -> (&[PlannedEdge], &RoundPlan) {
        (self.kernel.edges(), &self.plan)
    }
}

/// The round machinery every kernel user shares: the compiled rows the
/// node loop gathers over, their faulty-edge plan slots, the rule and the
/// worker pool. [`SyncEngine`] adds the states and the adversary;
/// [`crate::vector::VectorSimulation`] runs the node loop once per
/// coordinate over its own states and plans.
#[derive(Debug)]
pub(crate) struct Kernel<'a, R: RoundRule> {
    schedule: &'a dyn TopologySchedule,
    /// The schedule graph `compiled` was built from.
    graph: &'a Digraph,
    compiled: CompiledTopology,
    /// Faulty edges into honest receivers, slots keyed on the sub-CSR.
    planned_edges: Vec<PlannedEdge>,
    /// Dense slot → edge table for a pure family's fill (holes for
    /// sub-CSR rows of faulty receivers).
    slot_edges: Vec<PlannedEdge>,
    rule: R,
    /// The persistent worker pool (serial when `jobs() == 1`).
    exec: Executor,
    /// Recycled per-participant gather buffers (one per dispatch
    /// participant — a single retained buffer in serial mode). After a
    /// rebuild they grow on first use, then the larger buffers are kept.
    scratch_pool: ScratchPool<Vec<R::Msg>>,
}

impl<'a, R: RoundRule> Kernel<'a, R> {
    /// A serial kernel whose node loop gathers over `rows`, compiled from
    /// round 1's graph. The rows may be a subset of that graph's in-rows
    /// (the adversary still views the whole graph) only when `schedule`
    /// is a fixed graph: a schedule that hands out a new graph gets its
    /// full rows recompiled.
    pub(crate) fn new(schedule: &'a dyn TopologySchedule, rows: CompiledTopology, rule: R) -> Self {
        let mut kernel = Kernel {
            schedule,
            graph: schedule.graph_at(1),
            compiled: rows,
            planned_edges: Vec::new(),
            slot_edges: Vec::new(),
            rule,
            exec: Executor::serial(),
            scratch_pool: ScratchPool::new(),
        };
        kernel.derive_slots();
        kernel
    }

    /// Replaces the worker pool with one of `jobs` workers.
    pub(crate) fn set_jobs(&mut self, jobs: usize) {
        self.exec = Executor::new(jobs);
    }

    /// Worker threads used by the node loop.
    pub(crate) fn jobs(&self) -> usize {
        self.exec.jobs()
    }

    /// The faulty edges into honest receivers, in plan-slot order
    /// (receivers ascending, each receiver's senders ascending).
    pub(crate) fn edges(&self) -> &[PlannedEdge] {
        &self.planned_edges
    }

    /// Slots in a round plan (sub-CSR rows of faulty receivers included,
    /// as unread holes).
    pub(crate) fn plan_len(&self) -> usize {
        self.slot_edges.len()
    }

    /// The schedule's graph for `round`. The schedule is consulted once
    /// per round; the rows are rebuilt in place only when it hands out a
    /// different graph than the previous round (detected by address,
    /// which is stable because [`TopologySchedule::graph_at`] returns
    /// references into the schedule itself).
    fn graph_at(&mut self, round: usize) -> &'a Digraph {
        let graph = self.schedule.graph_at(round);
        if !std::ptr::eq(graph, self.graph) {
            self.compiled.rebuild(graph);
            self.graph = graph;
            self.derive_slots();
        }
        graph
    }

    /// Phase 2 over one state column: every fault-free node of `states`
    /// applies the rule to its gathered row, faulty slots read from
    /// `plan`, results written to `next`. Fanned across the pool; a rule
    /// failure names the lowest failing node.
    pub(crate) fn node_loop(
        &self,
        round: usize,
        states: &[f64],
        plan: &RoundPlan,
        next: &mut [f64],
    ) -> Result<(), SimError> {
        let (graph, compiled, rule, pool) =
            (self.graph, &self.compiled, self.rule, &self.scratch_pool);
        self.exec.run_chunked(
            next,
            Chunking::Auto(iabc_exec::MIN_CHUNK),
            || pool.take(|| Vec::with_capacity(compiled.max_in_degree())),
            |i, out, scratch| {
                step_node(graph, compiled, rule, states, plan, round, i, out, scratch)
            },
        )
    }

    /// Re-derives the round plan's faulty-edge slot lists from `compiled`.
    fn derive_slots(&mut self) {
        sub_csr_edges(&self.compiled, &mut self.planned_edges);
        dense_slot_table(
            self.compiled.faulty_edge_count(),
            &self.planned_edges,
            &mut self.slot_edges,
        );
    }
}

impl<R: RoundRule> Engine for SyncEngine<'_, R> {
    fn step(&mut self) -> Result<StepStatus, SimError> {
        SyncEngine::step(self)
    }

    fn round(&self) -> usize {
        self.round
    }

    fn states(&self) -> &[f64] {
        &self.states
    }

    fn fault_set(&self) -> &NodeSet {
        &self.fault_set
    }
}

/// Phase 2 body shared by the serial and parallel node loops: the
/// branchless row gather — sanitize applies to honest values too (for
/// in-range states the clamp is the identity, but a finite input beyond
/// ±1e100 must clip exactly as it always has) — with the precompiled
/// faulty slots patched from the round plan by sub-CSR index. A
/// [`PlannedMessage::Omit`] entry is the missing-message case: the
/// receiver's own previous state is substituted (in-hull, so validity is
/// unaffected). A pure function of `(states, plan)`, which is what makes
/// serial and parallel execution bit-identical.
#[allow(clippy::too_many_arguments)]
fn step_node<R: RoundRule>(
    graph: &Digraph,
    compiled: &CompiledTopology,
    rule: R,
    states: &[f64],
    plan: &RoundPlan,
    round: usize,
    i: usize,
    out: &mut f64,
    scratch: &mut Vec<R::Msg>,
) -> Result<(), SimError> {
    if compiled.is_faulty(i) {
        return Ok(()); // faulty nodes have no meaningful state evolution
    }
    scratch.clear();
    scratch.extend(
        compiled
            .in_neighbors_of(i)
            .iter()
            .map(|&j| R::msg(j, sanitize(states[j as usize]))),
    );
    let base = compiled.faulty_in_offset(i) as u32;
    for (k, &(slot, _sender)) in compiled.faulty_in_edges_of(i).iter().enumerate() {
        let raw = match plan.get(base + k as u32) {
            PlannedMessage::Value(v) => v,
            PlannedMessage::Omit => states[i],
        };
        R::set_value(&mut scratch[slot as usize], sanitize(raw));
    }
    *out = rule
        .apply(graph, i, states[i], scratch)
        .map_err(|source| SimError::Rule {
            node: i,
            round,
            source,
        })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        ConformingAdversary, ConstantAdversary, ExtremesAdversary, NaNAdversary, PullAdversary,
        SplitBrainAdversary,
    };
    use crate::scenario::Scenario;
    use iabc_core::rules::{Mean, TrimmedMean};
    use iabc_graph::generators;

    fn no_faults(n: usize) -> NodeSet {
        NodeSet::with_universe(n)
    }

    /// Builds a synchronous scenario and runs it to the default bounds.
    fn run_default(
        g: &Digraph,
        inputs: &[f64],
        faults: NodeSet,
        rule: &dyn UpdateRule,
        adversary: Box<dyn Adversary>,
    ) -> Outcome {
        Scenario::on(g)
            .inputs(inputs)
            .faults(faults)
            .rule(rule)
            .adversary(adversary)
            .synchronous()
            .unwrap()
            .run(&RunConfig::default())
            .unwrap()
    }

    #[test]
    fn constructor_validates_inputs() {
        let g = generators::complete(3);
        let rule = TrimmedMean::new(0);
        assert!(matches!(
            Simulation::new(
                &g,
                &[1.0, 2.0],
                no_faults(3),
                &rule,
                Box::new(ConformingAdversary::new())
            ),
            Err(SimError::InputLengthMismatch {
                inputs: 2,
                nodes: 3
            })
        ));
        assert!(matches!(
            Simulation::new(
                &g,
                &[1.0, f64::NAN, 3.0],
                no_faults(3),
                &rule,
                Box::new(ConformingAdversary::new())
            ),
            Err(SimError::NonFiniteInput { node: 1, .. })
        ));
        assert!(matches!(
            Simulation::new(
                &g,
                &[1.0, 2.0, 3.0],
                NodeSet::full(3),
                &rule,
                Box::new(ConformingAdversary::new())
            ),
            Err(SimError::NoFaultFreeNodes)
        ));
        assert!(matches!(
            Simulation::new(
                &g,
                &[1.0, 2.0, 3.0],
                NodeSet::with_universe(4),
                &rule,
                Box::new(ConformingAdversary::new())
            ),
            Err(SimError::FaultSetMismatch {
                universe: 4,
                nodes: 3
            })
        ));
    }

    #[test]
    fn fault_free_mean_converges_on_complete_graph() {
        let g = generators::complete(5);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let rule = Mean::new();
        let mut sim = Simulation::new(
            &g,
            &inputs,
            no_faults(5),
            &rule,
            Box::new(ConformingAdversary::new()),
        )
        .unwrap();
        let out = sim.run(&RunConfig::default()).unwrap();
        assert!(out.converged);
        assert!(out.validity.is_valid());
        // Equal weights on a complete graph preserve the average exactly.
        let final_mean = out.trace.last().unwrap().states[0];
        assert!((final_mean - 2.0).abs() < 1e-3);
    }

    #[test]
    fn trimmed_mean_beats_constant_attacker_on_k7() {
        let g = generators::complete(7);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let out = run_default(
            &g,
            &inputs,
            faults,
            &rule,
            Box::new(ConstantAdversary::new(1e9)),
        );
        assert!(out.converged, "range left: {}", out.final_range);
        assert!(out.validity.is_valid());
        // Converged value inside honest hull [0, 4].
        let v = out.trace.last().unwrap().states[0];
        assert!((0.0..=4.0).contains(&v), "agreed value {v} outside hull");
    }

    #[test]
    fn plain_mean_violates_validity_under_attack() {
        // Ablation E12: without trimming the constant attacker drags honest
        // states outside the honest input hull.
        let g = generators::complete(7);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = Mean::new();
        let mut sim = Simulation::new(
            &g,
            &inputs,
            faults,
            &rule,
            Box::new(ConstantAdversary::new(1e9)),
        )
        .unwrap();
        let config = RunConfig {
            max_rounds: 30,
            ..RunConfig::default()
        };
        let out = sim.run(&config).unwrap();
        assert!(!out.validity.is_valid(), "mean rule must break validity");
        let v = out.trace.last().unwrap().states[0];
        assert!(v > 4.0, "honest state {v} should have been dragged upward");
    }

    #[test]
    fn extremes_attacker_is_neutralized_by_trimming() {
        let g = generators::complete(7);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let out = run_default(
            &g,
            &inputs,
            faults,
            &rule,
            Box::new(ExtremesAdversary::new(1e6)),
        );
        assert!(out.converged);
        assert!(out.validity.is_valid());
    }

    #[test]
    fn nan_bomb_is_sanitized_and_survived() {
        let g = generators::complete(7);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let out = run_default(&g, &inputs, faults, &rule, Box::new(NaNAdversary::new()));
        assert!(out.converged, "sanitization must keep the run alive");
        assert!(out.validity.is_valid());
    }

    #[test]
    fn pull_adversary_slows_but_does_not_stop_convergence() {
        let g = generators::complete(7);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let honest = run_default(
            &g,
            &inputs,
            faults.clone(),
            &rule,
            Box::new(ConformingAdversary::new()),
        );
        let pulled = run_default(
            &g,
            &inputs,
            faults,
            &rule,
            Box::new(PullAdversary::new(false)),
        );
        assert!(pulled.converged);
        assert!(pulled.validity.is_valid());
        assert!(
            pulled.rounds >= honest.rounds,
            "stealthy pull should not be faster than benign run ({} vs {})",
            pulled.rounds,
            honest.rounds
        );
    }

    #[test]
    fn split_brain_freezes_violating_chord_network() {
        // E1: the proof-of-necessity execution. chord(7,5) violates the
        // condition for f = 2; planting m/M on the witness sides and running
        // the proof adversary keeps both sides frozen forever.
        let g = generators::chord(7, 5);
        let w = iabc_core::theorem1::find_violation(&g, 2).expect("violated");
        let (m, m_cap) = (0.0, 1.0);
        let mut inputs = vec![(m + m_cap) / 2.0; 7];
        for v in w.left.iter() {
            inputs[v.index()] = m;
        }
        for v in w.right.iter() {
            inputs[v.index()] = m_cap;
        }
        let rule = TrimmedMean::new(2);
        let adv = SplitBrainAdversary::from_witness(&w, m, m_cap, 0.5);
        let mut sim =
            Simulation::new(&g, &inputs, w.fault_set.clone(), &rule, Box::new(adv)).unwrap();
        for _ in 0..100 {
            sim.step().unwrap();
        }
        for v in w.left.iter() {
            assert_eq!(sim.states()[v.index()], m, "L node {v} moved");
        }
        for v in w.right.iter() {
            assert_eq!(sim.states()[v.index()], m_cap, "R node {v} moved");
        }
        assert!(sim.honest_range() >= m_cap - m, "no convergence possible");
    }

    #[test]
    fn rule_failure_carries_node_and_round() {
        // Cycle has in-degree 1 < 2f = 2: the very first step fails.
        let g = generators::cycle(4);
        let rule = TrimmedMean::new(1);
        let mut sim = Simulation::new(
            &g,
            &[0.0, 1.0, 2.0, 3.0],
            no_faults(4),
            &rule,
            Box::new(ConformingAdversary::new()),
        )
        .unwrap();
        let err = sim.step().unwrap_err();
        assert!(matches!(err, SimError::Rule { round: 1, .. }));
    }

    #[test]
    fn max_rounds_caps_execution() {
        // On a cycle the mean iteration converges only asymptotically, so an
        // epsilon of 0 cannot be reached and the cap must fire.
        let g = generators::cycle(5);
        let rule = Mean::new();
        let mut sim = Simulation::new(
            &g,
            &[0.0, 1.0, 2.0, 3.0, 4.0],
            no_faults(5),
            &rule,
            Box::new(ConformingAdversary::new()),
        )
        .unwrap();
        let config = RunConfig {
            epsilon: 0.0,
            max_rounds: 7,
            record_states: false,
        };
        let out = sim.run(&config).unwrap();
        assert_eq!(out.rounds, 7);
        assert!(!out.converged);
        assert!(out.final_range > 0.0);
    }

    #[test]
    fn crash_faults_are_survived() {
        // Failure injection: both faulty nodes crash-stop at round 3; the
        // engine substitutes the receiver's own state and consensus proceeds.
        use crate::adversary::CrashAdversary;
        let g = generators::complete(7);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let out = run_default(&g, &inputs, faults, &rule, Box::new(CrashAdversary::new(3)));
        assert!(out.converged);
        assert!(out.validity.is_valid());
    }

    #[test]
    fn selective_omission_mixed_with_lies_is_survived() {
        use crate::adversary::SelectiveOmissionAdversary;
        let g = generators::complete(7);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let out = run_default(
            &g,
            &inputs,
            faults,
            &rule,
            Box::new(SelectiveOmissionAdversary::new(
                NodeSet::from_indices(7, [0, 1]),
                -1e8,
            )),
        );
        assert!(out.converged);
        assert!(out.validity.is_valid());
    }

    #[test]
    fn broadcast_restriction_weakens_the_adversary() {
        // The same split-brain witness attack that freezes chord(7,5) under
        // point-to-point loses its freezing power once forced to broadcast:
        // the adversary can no longer tell L and R different stories.
        use crate::adversary::{BroadcastOf, SplitBrainAdversary};
        let g = generators::chord(7, 5);
        let w = iabc_core::theorem1::find_violation(&g, 2).expect("violated");
        let (m, m_cap) = (0.0, 1.0);
        let mut inputs = vec![0.5; 7];
        for v in w.left.iter() {
            inputs[v.index()] = m;
        }
        for v in w.right.iter() {
            inputs[v.index()] = m_cap;
        }
        let rule = TrimmedMean::new(2);

        // Point-to-point: frozen (as in E1).
        let adv = SplitBrainAdversary::from_witness(&w, m, m_cap, 0.5);
        let mut p2p =
            Simulation::new(&g, &inputs, w.fault_set.clone(), &rule, Box::new(adv)).unwrap();
        for _ in 0..200 {
            p2p.step().unwrap();
        }

        // Broadcast-restricted: the honest range must shrink below 1.
        let adv = BroadcastOf::new(SplitBrainAdversary::from_witness(&w, m, m_cap, 0.5));
        let mut bcast =
            Simulation::new(&g, &inputs, w.fault_set.clone(), &rule, Box::new(adv)).unwrap();
        for _ in 0..200 {
            bcast.step().unwrap();
        }
        assert!(
            p2p.honest_range() >= 1.0,
            "point-to-point attack must freeze"
        );
        assert!(
            bcast.honest_range() < p2p.honest_range(),
            "broadcast restriction should weaken the attack ({} vs {})",
            bcast.honest_range(),
            p2p.honest_range()
        );
    }

    #[test]
    fn chord_f1_n5_converges_with_one_fault() {
        // §6.3 positive case, exercised end to end.
        let g = generators::chord(5, 3);
        let inputs = [0.0, 1.0, 2.0, 3.0, 2.0];
        let faults = NodeSet::from_indices(5, [4]);
        let rule = TrimmedMean::new(1);
        let out = run_default(
            &g,
            &inputs,
            faults,
            &rule,
            Box::new(ExtremesAdversary::new(100.0)),
        );
        assert!(out.converged);
        assert!(out.validity.is_valid());
        let v = out.trace.last().unwrap().states[0];
        assert!((0.0..=3.0).contains(&v));
    }
}
