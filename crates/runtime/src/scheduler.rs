//! The tick scheduler: every protocol node multiplexed onto one executor.
//!
//! The threaded runtime is the fidelity reference — one OS thread per node
//! makes the concurrency real, and makes a million nodes impossible. This
//! module is the scale tier: all `n` nodes live as one flat column of
//! `f64` states plus a small table of the faulty nodes (each with its
//! strategy and raw inbox), messages sit in [`Mailboxes`] indexed by CSR
//! edge slot, and a [`MultiplexedDeployment`] advances the network in
//! *ticks*. Memory is proportional to edges plus states; OS threads are
//! exactly the executor's `jobs`, regardless of `n`.
//!
//! # One tick
//!
//! 1. **Send** (pooled honest senders, then serial faulty senders): every
//!    node with a round to start hands the [`Transport`] one row of
//!    messages, one per out-edge, in one call. Honest senders run as one
//!    dispatch over the pending list on the deployment's pool; each slot
//!    has exactly one sender, so their deposits never touch the same
//!    cell. Faulty senders then run on the calling thread alone, senders
//!    ascending and each sender's out-edges receivers ascending — the
//!    exact order the threaded runtime queries Byzantine strategies, so
//!    stateful strategies observe identical call sequences in both modes
//!    (a strategy is `&mut` state, so these calls cannot be shared out).
//! 2. **Flush** (serial): the transport completes delivery (a no-op
//!    locally).
//! 3. **Readiness scan** (pooled): node `i` is *ready* when every in-slot
//!    of lane `t % window` holds tag `t`, where `t` is one past the round
//!    its [`Mailboxes`] watermark says it last consumed — the same
//!    condition that unblocks a threaded node's `recv` loop. The scan
//!    writes one bit per node, 64 nodes per dispatch item; it reads only
//!    tags and watermarks, which nothing writes during the scan.
//! 4. **Update** (pooled): ready honest nodes advance one round, in one
//!    dispatch over the state column. Each gathers its mailbox lane in
//!    ascending sender order, sanitizes, and runs the shared trim kernel,
//!    touching only its own state and its own (complete, immutable this
//!    tick) mailbox lane, so parallel execution is bit-identical to a
//!    serial sweep. Ready faulty nodes then refresh their strategy's
//!    local inbox, serially.
//! 5. **Release** (serial): each ready node's watermark rises to the round
//!    it just consumed — O(1) per node, no state is touched — which
//!    returns the lane's flow credits and advances the node's round;
//!    finished nodes retire.
//!
//! A failing send returns the error of the lowest failing sender id across
//! both send passes — the error the serial loop over senders ascending
//! stops at, because each sender's deposits touch only its own cells. The
//! other senders of that tick may have deposited by then, so a tick that
//! returned an error leaves the deployment unusable: drop it.
//!
//! Under [`LocalTransport`] every node is ready every tick, so the whole
//! network marches in lockstep and a run costs exactly `rounds` ticks. The
//! tick loop itself never assumes that: with a lagging transport, whatever
//! subset is ready advances, and a tick that delivers nothing and readies
//! nobody while nodes are still mid-protocol fails fast with
//! [`RuntimeError::Stalled`].

use std::ops::Range;

use iabc_exec::{process_executor, Chunking, Executor, ScratchPool, SharedExecutor, MIN_CHUNK};
use iabc_graph::{CompiledTopology, Digraph, NodeId, NodeSet};

use crate::behavior::LocalByzantine;
use crate::deploy::{validate_deployment, DeployReport};
use crate::error::RuntimeError;
use crate::mailbox::{Mailboxes, DEFAULT_WINDOW};
use crate::node::{update_honest, FaultyNode};
use crate::transport::{LocalTransport, Transport};

/// Tuning for a multiplexed deployment.
#[derive(Debug, Clone, Copy)]
pub struct MultiplexConfig {
    /// Worker threads for the pooled phases (1 = serial; 0 = all cores).
    pub jobs: usize,
    /// In-flight rounds each edge can buffer (see [`Mailboxes`]).
    pub window: u32,
    /// Dispatch on the **process-level shared pool**
    /// ([`iabc_exec::process_executor`]) instead of a private one, so a
    /// deployment, concurrent sweeps, and the serve daemon share one
    /// thread budget. With a shared pool `jobs` only sizes the pool if
    /// this process hasn't created it yet.
    pub shared_pool: bool,
}

impl Default for MultiplexConfig {
    fn default() -> Self {
        MultiplexConfig {
            jobs: 1,
            window: DEFAULT_WINDOW,
            shared_pool: false,
        }
    }
}

/// Owned-or-shared pool handle: the deployment's pooled phases dispatch
/// through it identically either way (results are bit-for-bit equal by the
/// executor's determinism contract — only thread accounting differs).
enum ExecHandle {
    Owned(Executor),
    Shared(SharedExecutor),
}

impl ExecHandle {
    fn with<R>(&self, f: impl FnOnce(&Executor) -> R) -> R {
        match self {
            ExecHandle::Owned(exec) => f(exec),
            ExecHandle::Shared(shared) => shared.with(f),
        }
    }
}

/// An in-progress multiplexed deployment: `n` protocol nodes, `jobs` OS
/// threads.
///
/// Construct with [`MultiplexedDeployment::new`], then either call
/// [`run`](MultiplexedDeployment::run) to completion or drive it tick by
/// tick with [`tick`](MultiplexedDeployment::tick) and inspect
/// [`states`](MultiplexedDeployment::states) between ticks (the lockstep
/// goldens in the test suite do exactly that).
pub struct MultiplexedDeployment<'a, T: Transport> {
    topology: &'a CompiledTopology,
    fault_set: NodeSet,
    f: usize,
    rounds: u32,
    transport: T,
    /// Also holds each node's consumed-round watermark: node `i` is on
    /// round `consumed(i) + 1`, and retired once it has consumed `rounds`.
    mailboxes: Mailboxes,
    /// Every node's state: `v_i[t]` for honest nodes, the input for faulty
    /// ones (never written).
    states: Vec<f64>,
    /// The faulty nodes, ascending id.
    faulty: Vec<FaultyNode>,
    /// Nodes that owe their next round's send this tick (ascending).
    pending_send: Vec<u32>,
    /// Scratch: whether each node's current round inbox is complete, 64
    /// nodes per word (bit `k` of word `w` is node `64 * w + k`).
    ready: Vec<u64>,
    completed: usize,
    /// Out-edge CSR: `out_slots[out_offsets[u]..out_offsets[u+1]]` are the
    /// in-edge slots sender `u` feeds, receivers ascending.
    out_offsets: Vec<u32>,
    out_slots: Vec<u32>,
    exec: ExecHandle,
    /// Participant scratch: one sender's `(slot, value)` row.
    rows: ScratchPool<Vec<(u32, f64)>>,
    /// Participant scratch: one honest node's sanitized inbox.
    received: ScratchPool<Vec<f64>>,
}

impl<T: Transport> std::fmt::Debug for MultiplexedDeployment<'_, T> {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.debug_struct("MultiplexedDeployment")
            .field("nodes", &self.states.len())
            .field("edges", &self.topology.edge_count())
            .field("rounds", &self.rounds)
            .field("completed", &self.completed)
            .field("jobs", &self.pool_jobs())
            .field("transport", &self.transport)
            .finish_non_exhaustive()
    }
}

impl<'a, T: Transport> MultiplexedDeployment<'a, T> {
    /// Prepares a deployment of Algorithm 1 over `topology` for `rounds`
    /// rounds with fault bound `f`; faulty nodes (per the topology's fault
    /// set) run the [`LocalByzantine`] strategy `byzantine` builds for
    /// them.
    ///
    /// # Errors
    ///
    /// The same up-front checks as the threaded runtime:
    /// [`RuntimeError::InputLengthMismatch`],
    /// [`RuntimeError::NoFaultFreeNodes`],
    /// [`RuntimeError::NonFiniteInput`], and
    /// [`RuntimeError::InsufficientInDegree`]; plus
    /// [`RuntimeError::RoundsOutOfRange`] if `rounds` does not fit the
    /// `u32` round-tag space (`rounds ≥ u32::MAX`).
    ///
    /// # Panics
    ///
    /// Panics if `config.window == 0`.
    pub fn new(
        topology: &'a CompiledTopology,
        inputs: &[f64],
        f: usize,
        rounds: usize,
        mut byzantine: impl FnMut(NodeId) -> Box<dyn LocalByzantine>,
        transport: T,
        config: MultiplexConfig,
    ) -> Result<Self, RuntimeError> {
        let n = topology.node_count();
        validate_deployment(
            n,
            inputs,
            |i| topology.is_faulty(i),
            |i| topology.in_degree(i),
            f,
        )?;
        // One past the last round must still fit a tag.
        let rounds = u32::try_from(rounds)
            .ok()
            .filter(|&r| r < u32::MAX)
            .ok_or(RuntimeError::RoundsOutOfRange { rounds })?;

        let fault_set = NodeSet::from_indices(n, (0..n).filter(|&i| topology.is_faulty(i)));
        let faulty = fault_set
            .iter()
            .map(|node| FaultyNode::new(node.index() as u32, byzantine(node)))
            .collect();

        // Invert the in-edge CSR into a sender-major out-edge CSR by
        // counting sort — O(edges), no per-node allocations. Receivers fill
        // ascending because the outer loop visits them ascending.
        let mut out_offsets = vec![0u32; n + 1];
        for i in 0..n {
            for &u in topology.in_neighbors_of(i) {
                out_offsets[u as usize + 1] += 1;
            }
        }
        for k in 0..n {
            out_offsets[k + 1] += out_offsets[k];
        }
        let mut cursor: Vec<u32> = out_offsets[..n].to_vec();
        let mut out_slots = vec![0u32; topology.edge_count()];
        for i in 0..n {
            let base = topology.in_offset(i);
            for (k, &u) in topology.in_neighbors_of(i).iter().enumerate() {
                out_slots[cursor[u as usize] as usize] = (base + k) as u32;
                cursor[u as usize] += 1;
            }
        }

        let mailboxes = Mailboxes::new(topology, config.window);
        let (pending_send, completed) = if rounds == 0 {
            (Vec::new(), n)
        } else {
            ((0..n as u32).collect(), 0)
        };
        Ok(MultiplexedDeployment {
            topology,
            fault_set,
            f,
            rounds,
            transport,
            mailboxes,
            states: inputs.to_vec(),
            faulty,
            pending_send,
            ready: vec![0; n.div_ceil(64)],
            completed,
            out_offsets,
            out_slots,
            exec: if config.shared_pool {
                ExecHandle::Shared(process_executor(config.jobs))
            } else {
                ExecHandle::Owned(Executor::new(config.jobs))
            },
            rows: ScratchPool::new(),
            received: ScratchPool::new(),
        })
    }

    /// Worker budget of the pool the pooled phases run on.
    pub fn pool_jobs(&self) -> usize {
        self.exec.with(Executor::jobs)
    }

    /// Worker threads that pool has spawned (thread accounting; for a
    /// shared pool this counts the whole process's pool, spawned once).
    pub fn pool_threads_spawned(&self) -> usize {
        self.exec.with(Executor::threads_spawned)
    }

    /// `true` once every node has executed all its rounds.
    pub fn finished(&self) -> bool {
        self.completed == self.states.len()
    }

    /// Current state snapshot, in node order. Faulty entries carry the
    /// node's input (its "state" is meaningless in the Byzantine model),
    /// matching the threaded runtime's report convention.
    pub fn states(&self) -> Vec<f64> {
        self.states.clone()
    }

    /// Advances the network by one tick (send → flush → readiness scan →
    /// pooled update → release). A no-op once [`finished`][Self::finished].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::MailboxOverflow`] from the transport on a flow-credit
    /// violation — the lowest failing sender's; [`RuntimeError::Stalled`]
    /// if the tick made no progress while nodes are still mid-protocol.
    /// After an error the deployment is unusable (module docs).
    pub fn tick(&mut self) -> Result<(), RuntimeError> {
        if self.finished() {
            return Ok(());
        }
        // Phases 1 and 2: send, then flush.
        self.send()?;
        self.transport.flush(&self.mailboxes)?;

        // Phase 3: readiness — one full round-t inbox lane per node, 64
        // nodes per dispatch item.
        let (topology, mailboxes, rounds) = (self.topology, &self.mailboxes, self.rounds);
        let n = self.states.len();
        self.exec.with(|exec| {
            exec.for_each(&mut self.ready, Chunking::Auto(MIN_CHUNK), |w, word| {
                *word = ready_word(topology, mailboxes, rounds, 64 * w..n.min(64 * w + 64));
            })
        });
        if self.ready.iter().all(|&word| word == 0) {
            return Err(self.stalled());
        }

        // Phase 4: advance every ready honest node on the pool, one dense
        // dispatch over the state column; then refresh the ready faulty
        // nodes' inboxes.
        let (f, ready, received) = (self.f, &self.ready, &self.received);
        let is_ready = |i: usize| ready[i / 64] >> (i % 64) & 1 == 1;
        self.exec.with(|exec| {
            exec.run_chunked(
                &mut self.states,
                Chunking::Auto(MIN_CHUNK),
                || received.take(|| Vec::with_capacity(topology.max_in_degree())),
                |i, state, scratch| {
                    if is_ready(i) && !topology.is_faulty(i) {
                        let round = mailboxes.consumed(i) + 1;
                        update_honest(topology, mailboxes, f, round, i, state, scratch);
                    }
                    Ok::<(), std::convert::Infallible>(())
                },
            )
            .unwrap_or_else(|e| match e {})
        });
        for node in &mut self.faulty {
            let i = node.id as usize;
            if is_ready(i) {
                node.refresh(topology, mailboxes, mailboxes.consumed(i) + 1);
            }
        }

        // Phase 5: raise consumed watermarks, retire or re-queue (nodes in
        // ascending order, so pending_send stays ascending).
        for (w, &word) in self.ready.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = 64 * w + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let round = self.mailboxes.consumed(i) + 1;
                self.mailboxes.clear_round(i, round);
                if round == self.rounds {
                    self.completed += 1;
                } else {
                    self.pending_send.push(i as u32);
                }
            }
        }
        Ok(())
    }

    /// Phase 1: sends each pending node's next round, one transport call
    /// per sender. Honest senders send their state *entering* the round,
    /// as one pooled dispatch; faulty senders follow on this thread,
    /// ascending, their strategies queried per receiver, ascending. Clears
    /// the pending list.
    ///
    /// # Errors
    ///
    /// The error of the lowest failing sender id across both passes.
    fn send(&mut self) -> Result<(), RuntimeError> {
        let Self {
            topology,
            transport,
            mailboxes,
            states,
            faulty,
            pending_send,
            out_offsets,
            out_slots,
            exec,
            rows,
            ..
        } = self;
        let out_row = |i: usize| &out_slots[out_offsets[i] as usize..out_offsets[i + 1] as usize];
        let honest = exec.with(|exec| {
            exec.run_chunked(
                pending_send,
                Chunking::Auto(MIN_CHUNK),
                || rows.take(|| Vec::with_capacity(topology.max_in_degree())),
                |_, &mut i, row| {
                    let i = i as usize;
                    if topology.is_faulty(i) {
                        return Ok(());
                    }
                    let round = mailboxes.consumed(i) + 1;
                    row.clear();
                    row.extend(out_row(i).iter().map(|&slot| (slot, states[i])));
                    transport.send(round, row, mailboxes).map_err(|e| (i, e))
                },
            )
        });
        let mut row = rows.take(Vec::new);
        let byzantine = faulty
            .iter_mut()
            .filter(|node| pending_send.binary_search(&node.id).is_ok())
            .try_for_each(|node| {
                let i = node.id as usize;
                let round = mailboxes.consumed(i) + 1;
                node.lies(round, out_row(i), mailboxes, &mut row);
                transport.send(round, &row, mailboxes).map_err(|e| (i, e))
            });
        pending_send.clear();
        match (honest, byzantine) {
            (Err((h, e)), Err((b, _))) if h < b => Err(e),
            (_, Err((_, e))) | (Err((_, e)), Ok(())) => Err(e),
            (Ok(()), Ok(())) => Ok(()),
        }
    }

    /// The error for a tick that readied nobody: names the lowest-id
    /// unfinished node, its round, and the in-edges that round still lacks.
    fn stalled(&self) -> RuntimeError {
        let node = (0..self.states.len())
            .find(|&i| self.mailboxes.consumed(i) < self.rounds)
            .expect("a stalled deployment has an unfinished node");
        let round = self.mailboxes.consumed(node) + 1;
        let base = self.topology.in_offset(node);
        RuntimeError::Stalled {
            waiting: self.states.len() - self.completed,
            node,
            round: round as usize,
            missing: self
                .mailboxes
                .missing(base..base + self.topology.in_degree(node), round),
        }
    }

    /// Ticks until every node has executed all rounds, then reports.
    ///
    /// # Errors
    ///
    /// Propagates the first [`tick`][Self::tick] failure.
    pub fn run(&mut self) -> Result<DeployReport, RuntimeError> {
        while !self.finished() {
            self.tick()?;
        }
        Ok(DeployReport {
            rounds: self.rounds as usize,
            final_states: self.states(),
            fault_set: self.fault_set.clone(),
        })
    }
}

/// The readiness of up to 64 consecutive `nodes`, bit `k` for node
/// `nodes.start + k`: whether the node is on a round `t ≤ rounds` whose
/// inbox lane holds tag `t` in every in-slot. Nodes on one round (all of
/// them, in lockstep) are checked with one scan of their joint slot range,
/// which is contiguous; otherwise, or when that scan fails, node by node.
fn ready_word(
    topology: &CompiledTopology,
    mailboxes: &Mailboxes,
    rounds: u32,
    nodes: Range<usize>,
) -> u64 {
    let round = mailboxes.consumed(nodes.start) + 1;
    let slots =
        |nodes: Range<usize>| topology.in_offset(nodes.start)..topology.in_offset(nodes.end);
    if round <= rounds
        && mailboxes
            .watermarks(nodes.clone())
            .iter()
            .all(|&c| c + 1 == round)
        && mailboxes.complete(slots(nodes.clone()), round)
    {
        return u64::MAX >> (64 - nodes.len());
    }
    let start = nodes.start;
    nodes.fold(0, |word, i| {
        let round = mailboxes.consumed(i) + 1;
        let ready = round <= rounds && mailboxes.complete(slots(i..i + 1), round);
        word | u64::from(ready) << (i - start)
    })
}

/// Runs Algorithm 1 multiplexed onto `jobs` pooled threads — the scale-tier
/// counterpart of [`run_threaded`](crate::run_threaded), with the identical
/// signature plus `jobs`. Compiles the topology, wires the in-process
/// [`LocalTransport`], and runs to completion.
///
/// Honest trajectories are bit-for-bit identical to `run_threaded` and to
/// the deterministic engine. For graphs too large to materialize as a
/// [`Digraph`] (the adjacency bitset is `n²/8` bytes), build a
/// [`CompiledTopology`] directly — e.g. with `CompiledTopology::circulant`
/// or `from_in_rows` — and use [`MultiplexedDeployment`] instead.
///
/// # Errors
///
/// The same validation errors as [`run_threaded`](crate::run_threaded),
/// plus anything the tick loop reports.
pub fn run_multiplexed(
    graph: &Digraph,
    inputs: &[f64],
    fault_set: &NodeSet,
    f: usize,
    rounds: usize,
    byzantine: impl FnMut(NodeId) -> Box<dyn LocalByzantine>,
    jobs: usize,
) -> Result<DeployReport, RuntimeError> {
    let n = graph.node_count();
    if fault_set.universe() != n {
        return Err(RuntimeError::FaultSetMismatch {
            universe: fault_set.universe(),
            nodes: n,
        });
    }
    let topology = CompiledTopology::compile(graph, fault_set);
    let mut deployment = MultiplexedDeployment::new(
        &topology,
        inputs,
        f,
        rounds,
        byzantine,
        LocalTransport,
        MultiplexConfig {
            jobs,
            ..MultiplexConfig::default()
        },
    )?;
    deployment.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{ConstantLiar, InboxExtremist, SplitBrainLiar};
    use crate::deploy::run_threaded;
    use iabc_graph::generators;

    fn no_byzantine(_: NodeId) -> Box<dyn LocalByzantine> {
        unreachable!("no faulty nodes in this deployment")
    }

    #[test]
    fn fault_free_run_contracts_like_threaded() {
        let g = generators::complete(5);
        let inputs = [0.0, 10.0, 20.0, 30.0, 40.0];
        let faults = NodeSet::with_universe(5);
        for jobs in [1, 4] {
            let report = run_multiplexed(&g, &inputs, &faults, 1, 100, no_byzantine, jobs).unwrap();
            let reference = run_threaded(&g, &inputs, &faults, 1, 100, no_byzantine).unwrap();
            assert_eq!(report, reference, "jobs = {jobs}");
            assert!(report.honest_range() < 1e-9);
        }
    }

    #[test]
    fn matches_threaded_bit_for_bit_with_byzantine_nodes() {
        let cases: Vec<(Digraph, Vec<usize>)> = vec![
            (generators::complete(7), vec![5, 6]),
            (generators::core_network(7, 2), vec![5, 6]),
            (generators::chord(9, 4), vec![0, 8]),
        ];
        for (g, faulty) in cases {
            let n = g.node_count();
            let inputs: Vec<f64> = (0..n).map(|i| (i as f64) * 1.7 - 3.0).collect();
            let faults = NodeSet::from_indices(n, faulty);
            for rounds in [1, 7, 30] {
                let threaded = run_threaded(&g, &inputs, &faults, 2, rounds, |_| {
                    Box::new(InboxExtremist { delta: 1e6 })
                })
                .unwrap();
                for jobs in [1, 3] {
                    let multiplexed = run_multiplexed(
                        &g,
                        &inputs,
                        &faults,
                        2,
                        rounds,
                        |_| Box::new(InboxExtremist { delta: 1e6 }),
                        jobs,
                    )
                    .unwrap();
                    assert_eq!(
                        multiplexed, threaded,
                        "n = {n}, rounds = {rounds}, jobs = {jobs}"
                    );
                }
            }
        }
    }

    #[test]
    fn split_brain_freezes_exactly_as_in_threads() {
        let g = generators::chord(7, 5);
        let left = NodeSet::from_indices(7, [0, 2]);
        let right = NodeSet::from_indices(7, [1, 3, 4]);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let mut inputs = [0.0f64; 7];
        for i in right.iter() {
            inputs[i.index()] = 1.0;
        }
        let (l, r) = (left.clone(), right.clone());
        let report = run_multiplexed(
            &g,
            &inputs,
            &faults,
            2,
            50,
            move |_| {
                Box::new(SplitBrainLiar {
                    left: l.clone(),
                    right: r.clone(),
                    m_minus: -0.5,
                    m_plus: 1.5,
                    mid: 0.5,
                })
            },
            2,
        )
        .unwrap();
        for i in left.iter() {
            assert_eq!(report.final_states[i.index()], 0.0, "L node {i} moved");
        }
        for i in right.iter() {
            assert_eq!(report.final_states[i.index()], 1.0, "R node {i} moved");
        }
        assert_eq!(report.honest_range(), 1.0);
    }

    #[test]
    fn tick_by_tick_lockstep_under_local_transport() {
        let g = generators::complete(6);
        let inputs = [0.0, 2.0, 4.0, 6.0, 8.0, 100.0];
        let faults = NodeSet::from_indices(6, [5]);
        let topology = CompiledTopology::compile(&g, &faults);
        let mut d = MultiplexedDeployment::new(
            &topology,
            &inputs,
            1,
            10,
            |_| Box::new(ConstantLiar { value: 1e6 }),
            LocalTransport,
            MultiplexConfig::default(),
        )
        .unwrap();
        for t in 1..=10 {
            assert!(!d.finished());
            d.tick().unwrap();
            let states = d.states();
            assert_eq!(states[5], 100.0, "faulty state frozen at input");
            assert!(
                states[..5].iter().all(|v| v.is_finite()),
                "tick {t}: honest states finite"
            );
        }
        assert!(d.finished());
        d.tick().unwrap(); // no-op after completion
        let report = d.run().unwrap();
        assert_eq!(report.rounds, 10);
        assert_eq!(report.final_states, d.states());
    }

    #[test]
    fn executor_threads_bounded_by_jobs_not_nodes() {
        let faults = NodeSet::with_universe(512);
        let topology = CompiledTopology::circulant(512, 6, &faults);
        let inputs: Vec<f64> = (0..512).map(|i| i as f64).collect();
        let mut d = MultiplexedDeployment::new(
            &topology,
            &inputs,
            0,
            5,
            no_byzantine,
            LocalTransport,
            MultiplexConfig {
                jobs: 3,
                ..MultiplexConfig::default()
            },
        )
        .unwrap();
        let report = d.run().unwrap();
        assert_eq!(report.final_states.len(), 512);
        assert_eq!(
            d.pool_threads_spawned(),
            2,
            "512 nodes ran on jobs - 1 = 2 spawned workers"
        );
    }

    #[test]
    fn zero_rounds_returns_inputs() {
        let g = generators::complete(3);
        let inputs = [1.0, 2.0, 3.0];
        let report = run_multiplexed(
            &g,
            &inputs,
            &NodeSet::with_universe(3),
            0,
            0,
            no_byzantine,
            1,
        )
        .unwrap();
        assert_eq!(report.final_states, inputs);
    }

    #[test]
    fn ready_words_agree_with_the_node_by_node_check() {
        // circulant(100, 4): a full 64-node word and a 36-node one. Every
        // round-1 message arrives except slot 10's (an in-edge of node 2),
        // and node 70 has already consumed round 1, so its word mixes
        // rounds.
        let t = CompiledTopology::circulant(100, 4, &NodeSet::with_universe(100));
        let mut mb = Mailboxes::new(&t, 2);
        for slot in (0..t.edge_count() as u32).filter(|&s| s != 10) {
            mb.deposit(1, &[(slot, 0.0)]).unwrap();
        }
        mb.clear_round(70, 1);
        let words = [
            ready_word(&t, &mb, 5, 0..64),
            ready_word(&t, &mb, 5, 64..100),
        ];
        for i in 0..100 {
            let ready = words[i / 64] >> (i % 64) & 1 == 1;
            assert_eq!(ready, i != 2 && i != 70, "node {i}");
        }
        mb.deposit(1, &[(10, 0.0)]).unwrap();
        assert_eq!(
            ready_word(&t, &mb, 5, 0..64),
            u64::MAX,
            "one scan, all ready"
        );
        assert_eq!(ready_word(&t, &mb, 0, 0..64), 0, "no round to run");
    }

    #[test]
    fn rounds_past_the_round_tag_space_are_an_error() {
        let g = generators::complete(4);
        let none = NodeSet::with_universe(4);
        let byz = |_: NodeId| -> Box<dyn LocalByzantine> { unreachable!("no faulty nodes") };
        for rounds in [u32::MAX as usize, usize::MAX] {
            assert_eq!(
                run_multiplexed(&g, &[0.0; 4], &none, 1, rounds, byz, 1),
                Err(RuntimeError::RoundsOutOfRange { rounds }),
                "rounds = {rounds}"
            );
        }
        // The largest round count that fits still constructs.
        let topology = CompiledTopology::compile(&g, &none);
        let largest = u32::MAX as usize - 1;
        let d = MultiplexedDeployment::new(
            &topology,
            &[0.0; 4],
            1,
            largest,
            byz,
            LocalTransport,
            MultiplexConfig::default(),
        );
        assert!(d.is_ok());
    }

    #[test]
    fn constructor_validation_matches_threaded() {
        let g = generators::complete(4);
        let byz = |_: NodeId| -> Box<dyn LocalByzantine> { Box::new(ConstantLiar { value: 0.0 }) };
        let none = NodeSet::with_universe(4);
        assert!(matches!(
            run_multiplexed(&g, &[0.0; 3], &none, 1, 1, byz, 1),
            Err(RuntimeError::InputLengthMismatch {
                inputs: 3,
                nodes: 4
            })
        ));
        assert!(matches!(
            run_multiplexed(&g, &[0.0; 4], &NodeSet::with_universe(5), 1, 1, byz, 1),
            Err(RuntimeError::FaultSetMismatch {
                universe: 5,
                nodes: 4
            })
        ));
        assert!(matches!(
            run_multiplexed(&g, &[0.0; 4], &NodeSet::full(4), 1, 1, byz, 1),
            Err(RuntimeError::NoFaultFreeNodes)
        ));
        assert!(matches!(
            run_multiplexed(&g, &[0.0, f64::NAN, 0.0, 0.0], &none, 1, 1, byz, 1),
            Err(RuntimeError::NonFiniteInput { node: 1, .. })
        ));
        let p = generators::path(3);
        assert!(matches!(
            run_multiplexed(&p, &[0.0; 3], &NodeSet::with_universe(3), 1, 1, byz, 1),
            Err(RuntimeError::InsufficientInDegree { .. })
        ));
    }

    #[test]
    fn circulant_topology_runs_without_a_digraph() {
        // The scale-tier entry point: no n^2 bitset anywhere.
        let n = 2_000;
        let faults = NodeSet::from_indices(n, [0, 1]);
        let topology = CompiledTopology::circulant(n, 9, &faults);
        let inputs: Vec<f64> = (0..n).map(|i| (i % 97) as f64).collect();
        let mut d = MultiplexedDeployment::new(
            &topology,
            &inputs,
            2,
            20,
            |_| Box::new(ConstantLiar { value: 1e6 }),
            LocalTransport,
            MultiplexConfig {
                jobs: 4,
                ..MultiplexConfig::default()
            },
        )
        .unwrap();
        let report = d.run().unwrap();
        let initial = iabc_core::rules::honest_extremes(&inputs, &report.fault_set);
        assert!(
            report.honest_range() < initial.1 - initial.0,
            "range contracted: {} vs {}",
            report.honest_range(),
            initial.1 - initial.0
        );
        for &v in &report.honest_states() {
            assert!((0.0..=96.0).contains(&v), "validity violated: {v}");
        }
    }
}
