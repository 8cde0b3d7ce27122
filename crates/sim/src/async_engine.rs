//! Asynchronous execution models (paper Section 7).
//!
//! The paper sketches two generalizations; we make both concrete:
//!
//! * **Partially asynchronous** (the model of Bertsekas–Tsitsiklis \[4\],
//!   §7 of that book): messages may be delayed up to `B − 1` extra ticks.
//!   [`DelayBoundedSim`] keeps a per-edge mailbox holding the freshest
//!   delivered value; a [`Scheduler`] (possibly adversarial) picks delays.
//!
//! * **Totally asynchronous** trim-`2f` algorithm: a node cannot wait for
//!   all `|N⁻_i|` messages (up to `f` faulty senders may stay silent
//!   forever), so it updates on any `|N⁻_i| − f` of them and trims `f` from
//!   each end. [`WithholdingSim`] models the adversary's scheduling power as
//!   choosing, per node and round, which `f` in-neighbour messages to
//!   withhold. Survivor count is `|N⁻_i| − 3f`, whence the §7 requirement
//!   `|N⁻_i| ≥ 3f + 1` (and the `2f + 1` threshold in the async `⇒`).

use iabc_core::rules::{sanitize, TrimmedMean, UpdateRule};
use iabc_core::RuleError;
use iabc_exec::{Chunking, Executor, ScratchPool};
use iabc_graph::{CompiledTopology, Digraph, NodeId, NodeSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adversary::{Adversary, AdversaryView};
use crate::engine::{Kernel, RoundRule, SyncEngine};
use crate::error::SimError;
use crate::plan::{fill_plan, PlannedEdge, PlannedMessage, RoundPlan};
use crate::run::{check_inputs, honest_range_of, Engine, Outcome, RunConfig, StepStatus};

/// Chooses per-message delays for the partially asynchronous model.
pub trait Scheduler: std::fmt::Debug + Send {
    /// Extra ticks (in `0..B`) before the message sent by `sender` to
    /// `receiver` at `round` becomes readable.
    fn delay(&mut self, round: usize, sender: NodeId, receiver: NodeId, bound: usize) -> usize;
}

/// Delivers everything immediately (degenerates to the synchronous engine).
#[derive(Debug, Clone, Copy, Default)]
pub struct ImmediateScheduler;

impl Scheduler for ImmediateScheduler {
    fn delay(&mut self, _: usize, _: NodeId, _: NodeId, _: usize) -> usize {
        0
    }
}

/// Delays every message by the maximum `B − 1` ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxDelayScheduler;

impl Scheduler for MaxDelayScheduler {
    fn delay(&mut self, _: usize, _: NodeId, _: NodeId, bound: usize) -> usize {
        bound.saturating_sub(1)
    }
}

/// Uniform random delay in `0..B` per message (seeded, reproducible).
#[derive(Debug)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// Creates a scheduler with a deterministic stream.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn delay(&mut self, _: usize, _: NodeId, _: NodeId, bound: usize) -> usize {
        if bound <= 1 {
            0
        } else {
            self.rng.random_range(0..bound)
        }
    }
}

/// Delays only the edges *into* a victim set, maximally; everything else is
/// immediate. The worst case for information flow across a cut: the victims
/// run `B − 1` ticks stale while the rest of the network runs fresh — an
/// adversarial-scheduler probe sharper than uniform delay.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TargetedScheduler {
    /// Receivers whose incoming messages are maximally delayed.
    pub victims: NodeSet,
}

impl TargetedScheduler {
    /// Creates the scheduler targeting `victims`.
    pub fn new(victims: NodeSet) -> Self {
        TargetedScheduler { victims }
    }
}

impl Scheduler for TargetedScheduler {
    fn delay(&mut self, _: usize, _: NodeId, receiver: NodeId, bound: usize) -> usize {
        if self.victims.contains(receiver) {
            bound.saturating_sub(1)
        } else {
            0
        }
    }
}

/// The largest delay bound [`DelayBoundedSim::new`] accepts. The engine
/// keeps one calendar bucket per tick of delay, so the bound sizes an
/// allocation: 2^16 buckets is about 1.5 MiB, far past any bound a §7
/// experiment uses (at most 5).
pub const MAX_DELAY_BOUND: usize = 1 << 16;

/// [`SimError::DelayBoundOutOfRange`] unless `1 <= bound <=`
/// [`MAX_DELAY_BOUND`]: the check [`DelayBoundedSim::new`] makes before
/// it sizes anything, for a caller that must refuse a bound before it
/// builds a graph.
pub fn check_delay_bound(bound: usize) -> Result<(), SimError> {
    if (1..=MAX_DELAY_BOUND).contains(&bound) {
        Ok(())
    } else {
        Err(SimError::DelayBoundOutOfRange { bound })
    }
}

/// Partially asynchronous engine: per-edge mailboxes with delay bound `B`.
///
/// Each tick, every node (honest or, via the [`Adversary`], faulty)
/// transmits on its out-edges; the [`Scheduler`] stamps each message with a
/// delay `< B`; mailboxes expose the freshest *delivered* value. Honest
/// nodes update every tick from their mailboxes, so they always consume a
/// value `v_j[t']` with `t' ≥ t − B` — exactly the staleness the paper's
/// partially-asynchronous generalization permits.
///
/// Hot-path layout: the mailbox is one flat `Vec<f64>` addressed by the
/// compiled topology's CSR offsets (receiver `i`'s `k`-th in-neighbour at
/// `in_offset(i) + k`), the out-edge → mailbox-slot table is precompiled at
/// construction (the naive engine recomputed it per sender per tick), the
/// state vector is double-buffered, and in-flight messages live in a
/// **calendar queue** — `B` buckets keyed by `deliver_at % B`, so each
/// tick drains exactly its own bucket instead of rescanning every
/// in-flight message (the old flat-`Vec` scan was O(in-flight) per tick,
/// which at `B ≫ 1` meant touching every undelivered message `B` times).
/// Buckets retain their allocations: zero steady-state allocation per
/// tick. Faulty sends follow the two-phase protocol: the adversary plans
/// the tick's messages once (sender-major slot order), and the send loop
/// reads the plan by index.
///
/// # Parallel ticks
///
/// The **send** and **deliver** phases are inherently ordered — the
/// scheduler's RNG stream is consumed edge by edge in sender-major order,
/// and same-tick mailbox overwrites resolve by send order — so they
/// always run serially. The **update** phase, however, reads a mailbox
/// that is frozen once delivery ends: each honest node's new state is a
/// pure function of `(mailbox, states)`, and
/// [`DelayBoundedSim::with_jobs`] fans exactly that loop across a
/// persistent [`iabc_exec::Executor`] (plus the `Sync`-tier plan fill,
/// when the adversary offers one). Results are **bit-for-bit identical
/// to serial execution for any job count**.
#[derive(Debug)]
pub struct DelayBoundedSim<'a> {
    graph: &'a Digraph,
    compiled: CompiledTopology,
    fault_set: NodeSet,
    rule: &'a dyn UpdateRule,
    adversary: Box<dyn Adversary>,
    scheduler: Box<dyn Scheduler>,
    delay_bound: usize,
    states: Vec<f64>,
    next: Vec<f64>,
    /// Flat mailbox: `mailbox[compiled.in_offset(i) + k]` = freshest
    /// delivered value from receiver `i`'s `k`-th in-neighbour (ascending).
    mailbox: Vec<f64>,
    /// Per-sender CSR of `(receiver, mailbox slot)` pairs, receivers
    /// ascending — the send loop's precompiled slot table.
    out_offsets: Vec<u32>,
    out_edges: Vec<(u32, u32)>,
    /// Calendar queue: `calendar[t % B]` holds `(mailbox slot, value)`
    /// messages delivering at tick `t`, in send order — when two messages
    /// for the same slot deliver on the same tick, the later-sent
    /// (fresher) one must overwrite, so the drain relies on this ordering.
    calendar: Vec<Vec<(u32, f64)>>,
    /// The tick's faulty sends, sender-major (the send loop's query
    /// order), densely slotted for the round plan.
    planned_edges: Vec<PlannedEdge>,
    plan: RoundPlan,
    round: usize,
    /// The persistent worker pool for the update phase (serial when
    /// `jobs() == 1`).
    exec: Executor,
    /// Recycled per-participant receive buffers handed to the rule (one
    /// per dispatch participant — a single retained buffer in serial
    /// mode).
    scratch_pool: ScratchPool<Vec<f64>>,
}

impl<'a> DelayBoundedSim<'a> {
    /// Sets up the engine; mailboxes start holding the initial states (as if
    /// delivered before tick 0).
    ///
    /// # Errors
    ///
    /// Same validation as [`crate::Simulation::new`]; additionally
    /// [`SimError::DelayBoundOutOfRange`] unless `1 <= delay_bound <=`
    /// [`MAX_DELAY_BOUND`], checked before anything is sized from the
    /// bound.
    pub fn new(
        graph: &'a Digraph,
        inputs: &[f64],
        fault_set: NodeSet,
        rule: &'a dyn UpdateRule,
        adversary: Box<dyn Adversary>,
        scheduler: Box<dyn Scheduler>,
        delay_bound: usize,
    ) -> Result<Self, SimError> {
        let n = graph.node_count();
        check_inputs(n, inputs, &fault_set)?;
        check_delay_bound(delay_bound)?;
        let compiled = CompiledTopology::compile(graph, &fault_set);
        // Mailboxes start holding the senders' initial states, flattened to
        // the CSR layout.
        let mut mailbox = Vec::with_capacity(compiled.edge_count());
        for i in 0..n {
            mailbox.extend(
                compiled
                    .in_neighbors_of(i)
                    .iter()
                    .map(|&j| inputs[j as usize]),
            );
        }
        // Precompile the per-sender (receiver, mailbox slot) table: iterate
        // receivers ascending so each sender's bucket comes out receiver-
        // ascending — the order the naive engine sent in.
        let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for i in 0..n {
            let base = compiled.in_offset(i);
            for (k, &j) in compiled.in_neighbors_of(i).iter().enumerate() {
                buckets[j as usize].push((i as u32, (base + k) as u32));
            }
        }
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_edges = Vec::with_capacity(compiled.edge_count());
        out_offsets.push(0u32);
        for bucket in buckets {
            out_edges.extend(bucket);
            out_offsets.push(out_edges.len() as u32);
        }
        // The tick's faulty-edge slots, in the send loop's query order:
        // faulty senders ascending, each sender's receivers ascending.
        let mut planned_edges = Vec::new();
        for sender in 0..n {
            if !compiled.is_faulty(sender) {
                continue;
            }
            let edges = &out_edges[out_offsets[sender] as usize..out_offsets[sender + 1] as usize];
            for &(receiver, _slot) in edges {
                planned_edges.push(PlannedEdge {
                    slot: planned_edges.len() as u32,
                    sender: sender as u32,
                    receiver,
                });
            }
        }
        Ok(DelayBoundedSim {
            graph,
            compiled,
            fault_set,
            rule,
            adversary,
            scheduler,
            delay_bound,
            states: inputs.to_vec(),
            next: inputs.to_vec(),
            mailbox,
            out_offsets,
            out_edges,
            calendar: vec![Vec::new(); delay_bound],
            planned_edges,
            plan: RoundPlan::new(),
            round: 0,
            exec: Executor::serial(),
            scratch_pool: ScratchPool::new(),
        })
    }

    /// Retains a pool of `jobs` workers (`0` = all available cores) that
    /// every tick's **update phase** — and, for a pure adversary family,
    /// the plan fill — is fanned across; the send and deliver phases stay
    /// serial to preserve the scheduler's RNG order and mailbox overwrite
    /// semantics (see the type docs). Threads spawn
    /// here, once, not per tick. Bit-for-bit identical to serial
    /// execution for any value.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.set_jobs(jobs);
        self
    }

    /// In-place form of [`DelayBoundedSim::with_jobs`].
    pub fn set_jobs(&mut self, jobs: usize) {
        self.exec = Executor::new(jobs);
    }

    /// Worker threads used by the update phase.
    pub fn jobs(&self) -> usize {
        self.exec.jobs()
    }

    /// The engine's worker pool (regression tests assert its threads are
    /// spawned once per run, never per tick).
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Current fault-free range.
    pub fn honest_range(&self) -> f64 {
        honest_range_of(&self.states, &self.fault_set)
    }

    /// Current states.
    pub fn states(&self) -> &[f64] {
        &self.states
    }

    /// Current tick count.
    pub fn round(&self) -> usize {
        self.round
    }

    /// The faulty set.
    pub fn fault_set(&self) -> &NodeSet {
        &self.fault_set
    }

    /// One tick: plan the adversary's sends, send, deliver, update.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Rule`] if a rule application fails.
    pub fn step(&mut self) -> Result<StepStatus, SimError> {
        self.round += 1;
        let view = AdversaryView {
            round: self.round,
            graph: self.graph,
            states: &self.states,
            fault_set: &self.fault_set,
        };
        // Phase 1: plan every faulty send of this tick. Omission is not
        // part of this execution model (a delayed message always arrives
        // within B ticks), so the slots disallow it; a plan that omits
        // anyway simply sends nothing this tick, leaving the mailbox
        // value stale — the closest in-model interpretation. The slot
        // space is dense (slot == list index), so the plan's slot table
        // doubles as its own dense edge table for a pure family's fill.
        fill_plan(
            self.adversary.as_mut(),
            &view,
            &self.planned_edges,
            &self.planned_edges,
            false,
            &mut self.plan,
            &self.exec,
        );
        // Send phase: walk the precompiled per-sender slot table, reading
        // faulty payloads off the plan in the same sender-major order it
        // was filled in. The scheduler is still queried per edge, honest
        // and faulty alike — its stream is unchanged.
        let mut cursor = 0u32;
        for sender in 0..self.compiled.node_count() {
            let faulty_sender = self.compiled.is_faulty(sender);
            let edges = &self.out_edges
                [self.out_offsets[sender] as usize..self.out_offsets[sender + 1] as usize];
            for &(receiver, slot) in edges {
                let value = if faulty_sender {
                    let planned = self.plan.get(cursor);
                    cursor += 1;
                    match planned {
                        PlannedMessage::Value(raw) => Some(sanitize(raw)),
                        PlannedMessage::Omit => None,
                    }
                } else {
                    Some(view.states[sender])
                };
                let delay = self
                    .scheduler
                    .delay(
                        self.round,
                        NodeId::new(sender),
                        NodeId::new(receiver as usize),
                        self.delay_bound,
                    )
                    .min(self.delay_bound - 1);
                if let Some(value) = value {
                    self.calendar[(self.round + delay) % self.delay_bound].push((slot, value));
                }
            }
        }
        // Delivery phase: every in-flight message has deliver-at within
        // [round, round + B - 1], so the bucket at round % B holds exactly
        // the messages due now, already in send order (same-slot ties
        // resolve to the later-sent message, as before). One drain, no
        // rescan of later buckets.
        let due = self.round % self.delay_bound;
        for &(slot, value) in &self.calendar[due] {
            self.mailbox[slot as usize] = value;
        }
        self.calendar[due].clear();
        // Update phase: the mailbox is frozen for the tick, so each honest
        // node's update is a pure function of `(mailbox, states)` — fanned
        // across the pool when one is configured (see "Parallel ticks").
        let (compiled, rule, mailbox, states, round) = (
            &self.compiled,
            self.rule,
            &self.mailbox,
            &self.states,
            self.round,
        );
        let pool = &self.scratch_pool;
        self.exec.run_chunked(
            &mut self.next,
            Chunking::Auto(iabc_exec::MIN_CHUNK),
            || pool.take(|| Vec::with_capacity(compiled.max_in_degree())),
            |i, out, received| {
                update_node(compiled, rule, mailbox, states, round, i, out, received)
            },
        )?;
        std::mem::swap(&mut self.states, &mut self.next);
        Ok(StepStatus::Progressed)
    }

    /// Runs via the shared [`Engine::run`] driver. The unified [`RunConfig`]
    /// replaces the old bare `(epsilon, max_rounds)` signature and gives
    /// asynchronous runs `record_states` too; use
    /// [`RunConfig::bounded`] for the old shape.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Rule`] from [`DelayBoundedSim::step`].
    pub fn run(&mut self, config: &RunConfig) -> Result<Outcome, SimError> {
        Engine::run(self, config)
    }
}

/// The delay-bounded update phase's per-node body, shared by the serial
/// and pooled loops: gather the node's frozen mailbox row, apply the
/// rule. A pure function of `(mailbox, states)`, which is what makes
/// serial and pooled ticks bit-identical.
#[allow(clippy::too_many_arguments)]
fn update_node(
    compiled: &CompiledTopology,
    rule: &dyn UpdateRule,
    mailbox: &[f64],
    states: &[f64],
    round: usize,
    i: usize,
    out: &mut f64,
    received: &mut Vec<f64>,
) -> Result<(), SimError> {
    if compiled.is_faulty(i) {
        return Ok(());
    }
    let base = compiled.in_offset(i);
    received.clear();
    received.extend_from_slice(&mailbox[base..base + compiled.in_degree(i)]);
    *out = rule
        .update(states[i], received)
        .map_err(|source| SimError::Rule {
            node: i,
            round,
            source,
        })?;
    Ok(())
}

impl Engine for DelayBoundedSim<'_> {
    fn step(&mut self) -> Result<StepStatus, SimError> {
        DelayBoundedSim::step(self)
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

/// Totally asynchronous trim-`2f` engine: each round the adversary withholds
/// up to `f` in-neighbour messages per honest node (modelling unbounded
/// delay on faulty senders); the node trims `f` low + `f` high from the
/// remaining `|N⁻_i| − f` values and averages survivors with its own state.
///
/// With `|N⁻_i| = 3f` the survivor set is empty and states freeze — the
/// engine exposes exactly the §7 threshold (`|N⁻_i| ≥ 3f + 1`).
///
/// # One kernel
///
/// Withholding is *static* — which messages are dropped depends only on
/// topology and `f` — so the engine is the synchronous kernel
/// ([`crate::SyncEngine`]) gathering over each honest node's *withheld*
/// in-row, with Algorithm 1's trimmed mean at `f`. The adversary still
/// views the whole graph and plans only the faulty messages that are
/// delivered. Omission is the scheduler's power here, not the
/// adversary's, so the round's slots disallow it. The kernel's
/// determinism contract carries over: [`WithholdingSim::with_jobs`] fans
/// the node loop (and the plan fill, for a pure adversary family) across
/// a persistent [`iabc_exec::Executor`], bit-for-bit identical to serial
/// execution for any job count.
#[derive(Debug)]
pub struct WithholdingSim<'a> {
    engine: SyncEngine<'a, WithheldTrim>,
    /// Whether *any* honest node has in-degree `> 3f`. Survivor membership
    /// is static (see type docs), so "this configuration is frozen" is a
    /// constructor-time fact, not a per-round discovery.
    has_survivors: bool,
}

impl<'a> WithholdingSim<'a> {
    /// Sets up the engine.
    ///
    /// # Errors
    ///
    /// Same input validation as the synchronous engine.
    pub fn new(
        graph: &'a Digraph,
        inputs: &[f64],
        fault_set: NodeSet,
        f: usize,
        adversary: Box<dyn Adversary>,
    ) -> Result<Self, SimError> {
        check_inputs(graph.node_count(), inputs, &fault_set)?;
        let has_survivors = graph
            .nodes()
            .any(|v| !fault_set.contains(v) && graph.in_degree(v) > 3 * f);
        let rows = withheld_rows(graph, &fault_set, f);
        let kernel = Kernel::new(graph, rows, WithheldTrim(TrimmedMean::new(f)));
        Ok(WithholdingSim {
            engine: SyncEngine::from_kernel(kernel, inputs, fault_set, adversary, false),
            has_survivors,
        })
    }

    /// Retains a pool of `jobs` workers (`0` = all available cores) that
    /// every round's update loop — and, for a pure adversary family, the
    /// plan fill — is fanned across. Threads spawn here, once, not per
    /// round. Bit-for-bit identical to serial execution for any value.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.set_jobs(jobs);
        self
    }

    /// In-place form of [`WithholdingSim::with_jobs`].
    pub fn set_jobs(&mut self, jobs: usize) {
        self.engine.set_jobs(jobs);
    }

    /// Worker threads used by the update phase.
    pub fn jobs(&self) -> usize {
        self.engine.jobs()
    }

    /// The engine's worker pool (regression tests assert its threads are
    /// spawned once per run, never per round).
    pub fn executor(&self) -> &Executor {
        self.engine.executor()
    }

    /// Current states.
    pub fn states(&self) -> &[f64] {
        self.engine.states()
    }

    /// Current round count.
    pub fn round(&self) -> usize {
        self.engine.round()
    }

    /// The faulty set.
    pub fn fault_set(&self) -> &NodeSet {
        self.engine.fault_set()
    }

    /// Current fault-free range.
    pub fn honest_range(&self) -> f64 {
        self.engine.honest_range()
    }

    /// One round. The adversary withholds the messages of up to `f` faulty
    /// in-neighbours per node (an honest sender's message always arrives —
    /// faulty senders are the ones whose silence the algorithm must absorb).
    ///
    /// Returns [`StepStatus::Halted`] when **every** honest node's survivor
    /// set was empty (in-degree exactly `3f`): survivor membership depends
    /// only on the topology and `f`, so such a configuration is frozen
    /// forever — the executable form of the §7 threshold `|N⁻_i| ≥ 3f + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Rule`] if a node has fewer than `2f` usable
    /// values after withholding (in-degree `< 3f`).
    pub fn step(&mut self) -> Result<StepStatus, SimError> {
        self.engine.step()?;
        Ok(if self.has_survivors {
            StepStatus::Progressed
        } else {
            StepStatus::Halted
        })
    }

    /// Runs via the shared [`Engine::run`] driver. The unified [`RunConfig`]
    /// replaces the old bare `(epsilon, max_rounds)` signature; use
    /// [`RunConfig::bounded`] for the old shape. A frozen configuration
    /// (every in-degree exactly `3f`) now reports
    /// [`crate::Termination::Halted`] instead of burning the round budget.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Rule`] from [`WithholdingSim::step`].
    pub fn run(&mut self, config: &RunConfig) -> Result<Outcome, SimError> {
        Engine::run(self, config)
    }
}

/// The in-rows the withholding engine gathers over: each honest row
/// without its first `f` faulty in-neighbours — the messages the
/// scheduler withholds — and, when the row has fewer than `f` faulty
/// senders, without its highest-id remaining senders until `f` are gone
/// (the scheduler can delay honest messages too; dropping the largest ids
/// keeps the choice deterministic). Faulty rows are empty: faulty nodes
/// never update.
fn withheld_rows(graph: &Digraph, fault_set: &NodeSet, f: usize) -> CompiledTopology {
    CompiledTopology::from_in_rows(graph.node_count(), fault_set, |i, row| {
        let node = NodeId::new(i);
        if fault_set.contains(node) {
            return;
        }
        let mut withheld = 0;
        for j in graph.in_neighbors(node).iter() {
            if withheld < f && fault_set.contains(j) {
                withheld += 1;
            } else {
                row.push(j.index() as u32);
            }
        }
        row.truncate(row.len().saturating_sub(f - withheld));
    })
}

/// §7's trim-`2f` update as the kernel's rule: Algorithm 1's trimmed mean
/// at `f`, applied to the withheld rows.
#[derive(Debug, Clone, Copy)]
struct WithheldTrim(TrimmedMean);

impl RoundRule for WithheldTrim {
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
        UpdateRule::update(&self.0, own, received)
    }
}

impl Engine for WithholdingSim<'_> {
    fn step(&mut self) -> Result<StepStatus, SimError> {
        WithholdingSim::step(self)
    }

    fn round(&self) -> usize {
        self.engine.round()
    }

    fn states(&self) -> &[f64] {
        self.engine.states()
    }

    fn fault_set(&self) -> &NodeSet {
        self.engine.fault_set()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{ConformingAdversary, ConstantAdversary, ExtremesAdversary};
    use iabc_core::rules::TrimmedMean;
    use iabc_graph::generators;

    fn no_faults(n: usize) -> NodeSet {
        NodeSet::with_universe(n)
    }

    #[test]
    fn immediate_scheduler_matches_synchronous_engine() {
        let g = generators::complete(7);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);

        let mut sync_sim = crate::Simulation::new(
            &g,
            &inputs,
            faults.clone(),
            &rule,
            Box::new(ConstantAdversary::new(1e6)),
        )
        .unwrap();
        let mut async_sim = DelayBoundedSim::new(
            &g,
            &inputs,
            faults,
            &rule,
            Box::new(ConstantAdversary::new(1e6)),
            Box::new(ImmediateScheduler),
            1,
        )
        .unwrap();
        for _ in 0..10 {
            sync_sim.step().unwrap();
            async_sim.step().unwrap();
            for (a, b) in sync_sim.states().iter().zip(async_sim.states()) {
                assert!((a - b).abs() < 1e-12, "engines diverged");
            }
        }
    }

    #[test]
    fn delay_bounded_run_converges_with_max_delay() {
        // E9: convergence survives worst-case bounded staleness.
        let g = generators::complete(6);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0];
        let faults = NodeSet::from_indices(6, [5]);
        let rule = TrimmedMean::new(1);
        for b in [1usize, 2, 5] {
            let mut sim = DelayBoundedSim::new(
                &g,
                &inputs,
                faults.clone(),
                &rule,
                Box::new(ExtremesAdversary::new(50.0)),
                Box::new(MaxDelayScheduler),
                b,
            )
            .unwrap();
            let out = sim.run(&RunConfig::bounded(1e-6, 5_000)).unwrap();
            assert!(out.converged, "B={b} should still converge");
            // NOTE: with stale values U[t] may transiently exceed U[t-1]
            // (validity in the async model is w.r.t. the initial hull, not
            // per-round monotonicity), so we check the hull instead:
            let v = sim.states()[0];
            assert!((0.0..=4.0).contains(&v), "escaped initial hull: {v}");
        }
    }

    #[test]
    fn random_scheduler_is_reproducible() {
        let g = generators::complete(6);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0];
        let faults = NodeSet::from_indices(6, [5]);
        let rule = TrimmedMean::new(1);
        let run = |seed| {
            let mut sim = DelayBoundedSim::new(
                &g,
                &inputs,
                faults.clone(),
                &rule,
                Box::new(ConformingAdversary::new()),
                Box::new(RandomScheduler::new(seed)),
                3,
            )
            .unwrap();
            sim.run(&RunConfig::bounded(1e-9, 2_000)).unwrap().rounds
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn withholding_converges_iff_in_degree_exceeds_3f() {
        // K11 with f = 2: in-degree 10 ≥ 3f + 1 = 7 -> converges.
        let g = generators::complete(11);
        let mut inputs: Vec<f64> = (0..11).map(|i| i as f64).collect();
        inputs[9] = 0.0;
        inputs[10] = 0.0;
        let faults = NodeSet::from_indices(11, [9, 10]);
        let mut sim = WithholdingSim::new(
            &g,
            &inputs,
            faults,
            2,
            Box::new(ConstantAdversary::new(1e9)),
        )
        .unwrap();
        let out = sim.run(&RunConfig::bounded(1e-6, 5_000)).unwrap();
        assert!(out.converged);
        assert!(out.validity.is_valid());

        // K7 with f = 2: in-degree 6 = 3f -> survivor set empty, frozen.
        let g = generators::complete(7);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let mut sim = WithholdingSim::new(
            &g,
            &inputs,
            faults,
            2,
            Box::new(ConstantAdversary::new(1e9)),
        )
        .unwrap();
        for _ in 0..50 {
            sim.step().unwrap();
        }
        assert_eq!(sim.states()[0], 0.0, "state must be frozen");
        assert!(
            sim.honest_range() >= 4.0,
            "no progress possible at 3f in-degree"
        );
    }

    #[test]
    fn withholding_errors_below_3f_in_degree() {
        // in-degree 5 with f = 2: after withholding 2, only 3 < 2f remain.
        let g = generators::chord(7, 5);
        let inputs = [0.0; 7];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let mut sim = WithholdingSim::new(
            &g,
            &inputs,
            faults,
            2,
            Box::new(ConstantAdversary::new(1.0)),
        )
        .unwrap();
        let err = sim.step().unwrap_err();
        assert!(matches!(err, SimError::Rule { .. }));
    }

    #[test]
    fn constructor_validation_mirrors_sync_engine() {
        let g = generators::complete(3);
        let rule = TrimmedMean::new(0);
        assert!(DelayBoundedSim::new(
            &g,
            &[1.0, 2.0],
            no_faults(3),
            &rule,
            Box::new(ConformingAdversary::new()),
            Box::new(ImmediateScheduler),
            1,
        )
        .is_err());
        assert!(WithholdingSim::new(
            &g,
            &[1.0, f64::NAN, 2.0],
            no_faults(3),
            0,
            Box::new(ConformingAdversary::new()),
        )
        .is_err());
    }

    /// A bound of 0 or past the cap is an error before the calendar is
    /// sized: 2^50 buckets would ask for 27 PB, `usize::MAX` would
    /// overflow the capacity.
    #[test]
    fn delay_bounds_outside_the_cap_are_errors() {
        let g = generators::complete(3);
        let rule = TrimmedMean::new(0);
        let build = |bound: usize| {
            DelayBoundedSim::new(
                &g,
                &[1.0, 2.0, 3.0],
                no_faults(3),
                &rule,
                Box::new(ConformingAdversary::new()),
                Box::new(MaxDelayScheduler),
                bound,
            )
            .map(|_| ())
        };
        for bound in [0, MAX_DELAY_BOUND + 1, 1 << 50, usize::MAX] {
            assert_eq!(
                build(bound),
                Err(SimError::DelayBoundOutOfRange { bound }),
                "{bound}"
            );
        }
        assert!(build(1).is_ok());
        assert!(build(MAX_DELAY_BOUND).is_ok());
    }

    #[test]
    fn targeted_scheduler_delays_only_victims() {
        let mut s = TargetedScheduler::new(NodeSet::from_indices(4, [2]));
        assert_eq!(s.delay(0, NodeId::new(0), NodeId::new(2), 5), 4);
        assert_eq!(s.delay(0, NodeId::new(0), NodeId::new(1), 5), 0);
        assert_eq!(
            s.delay(0, NodeId::new(0), NodeId::new(2), 1),
            0,
            "B = 1 means no slack"
        );
    }

    #[test]
    fn targeted_delay_converges_slower_than_immediate() {
        let g = generators::complete(6);
        let inputs = [0.0, 20.0, 40.0, 60.0, 80.0, 100.0];
        let rule = TrimmedMean::new(1);
        let faults = || NodeSet::from_indices(6, [5]);
        let run = |scheduler: Box<dyn Scheduler>| {
            let mut sim = DelayBoundedSim::new(
                &g,
                &inputs,
                faults(),
                &rule,
                Box::new(ConformingAdversary::new()),
                scheduler,
                4,
            )
            .unwrap();
            sim.run(&RunConfig::bounded(1e-6, 10_000)).unwrap()
        };
        let fast = run(Box::new(ImmediateScheduler));
        let slow = run(Box::new(TargetedScheduler::new(NodeSet::from_indices(
            6,
            [0, 1],
        ))));
        assert!(fast.converged && slow.converged);
        // Per-tick monotonicity (Equation 1) is a *synchronous* property;
        // with stale deliveries only containment in the historical hull is
        // guaranteed. Check the final values stay in the initial hull.
        for out in [&fast, &slow] {
            let last = out.trace.last().expect("trace recorded");
            assert!(last.min >= 0.0 - 1e-9 && last.max <= 100.0 + 1e-9);
        }
        assert!(
            slow.rounds >= fast.rounds,
            "starving two victims ({}) must not beat immediate delivery ({})",
            slow.rounds,
            fast.rounds
        );
    }
}
