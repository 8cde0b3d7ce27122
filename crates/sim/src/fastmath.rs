//! The FastMath replica-batched Monte-Carlo engine and its epsilon-audit
//! harness.
//!
//! # Why replicas, not threads
//!
//! Monte-Carlo sweeps run many *same-topology* executions that differ only
//! in inputs and adversary RNG streams. Running them one
//! [`crate::Simulation`] at a time pays the full per-replica dispatch
//! bill — a [`CompiledTopology`] compile, engine construction, a CSR row
//! walk per replica per round — for workloads whose control flow is
//! identical across replicas. [`BatchedSimulation`] runs `R` replicas in
//! lockstep with states laid out **replica-major** (one `Vec<f64>` of
//! `n × R`, node `i` replica `r` at `i*R + r`): one compile, one CSR row
//! walk per round that gathers `R` contiguous lanes per in-neighbour, and
//! the [`iabc_core::fastmath`] column sort applied to all lanes at once.
//!
//! # The contract: bit-identity with the exact tier
//!
//! The batched engine is **bit-identical to the exact tier**. Each row is
//! gathered once, as sanitized biased keys, and then takes one of two
//! paths. Rows of `2f` to [`MERGE_MAX_LEN`] values sort on the columnar
//! networks (byte-identical to the exact sort) and fold each lane's
//! survivors left to right from `-0.0`, exactly as
//! [`iabc_core::rules::average_with_own`] does. Every other row — too short
//! to trim, or past the networks — decodes its lanes and runs the exact
//! rule ([`FastRule::exact`]) on each, so a short row reports the exact
//! tier's error.
//!
//! [`epsilon_audit`] makes that *checked*: it steps a fresh batch against
//! `R` exact-tier [`crate::Simulation`]s in lockstep, compares every
//! `(node, replica)` state each round under a ULP bound (the audit suite
//! runs it at 0), and then **resynchronizes** the batch to the exact
//! states — so adversary plans stay bit-identical on both sides and the
//! bound measures *per-round kernel error*, not compounded drift. A
//! deliberately wrong kernel must fail the audit;
//! [`BatchedSimulation::with_perturbation`] exists so tests can prove the
//! harness bites (see `tests/fastmath_audit.rs`).
//!
//! # Shared adversary plans
//!
//! Phase 1 normally snapshots each replica's column and runs its
//! adversary serially — mandatory for randomized families, whose `R`
//! RNG streams must draw exactly as `R` separate engines would. But when
//! every replica's adversary reports the same deterministic
//! [`BatchPlan`] (Conforming / Constant / Pull), the engine plans the
//! round **once** and fans the fill to all `R` lanes: Constant fills one
//! key, Pull computes all `R` fault-free hulls in a single replica-major
//! pass (same `min`/`max` fold order as
//! [`AdversaryView::honest_hull`], hence bit-identical), and Conforming
//! needs no fill at all — the gathered lane already holds the sender's
//! state. The per-replica snapshot + plan walk disappears, with
//! bit-identical results ([`BatchedSimulation::with_plan_sharing`]
//! exists so the equivalence is testable).

use iabc_core::fastmath::{
    biased_key, decode_keys, encode_keys, sort_columns_keys, ulp_distance, FastRule,
    COLUMN_PAD_KEY, MERGE_MAX_LEN,
};
use iabc_core::rules::{sanitize, UpdateRule};
use iabc_graph::{CompiledTopology, Digraph, NodeId, NodeSet};

use crate::adversary::{Adversary, AdversaryView, BatchPlan};
use crate::error::SimError;
use crate::plan::{
    dense_slot_table, fill_plan, sub_csr_edges, PlannedEdge, PlannedMessage, RoundPlan,
};
use crate::run::RunConfig;

/// `R` same-topology consensus executions advanced in lockstep on a
/// replica-major structure-of-arrays state layout; see the
/// [module docs](self).
///
/// Built through [`crate::Scenario::monte_carlo_batch`] or directly via
/// [`BatchedSimulation::new`]. Each replica's trajectory is bit-identical
/// to a [`crate::Simulation`] run of the matching exact rule.
#[derive(Debug)]
pub struct BatchedSimulation<'a> {
    graph: &'a Digraph,
    compiled: CompiledTopology,
    fault_set: NodeSet,
    rule: FastRule,
    /// `rule.exact()`, built once: the rule of every row the columnar
    /// networks do not cover.
    exact: Box<dyn UpdateRule>,
    replicas: usize,
    /// One independent adversary per replica (each holds its own RNG
    /// stream / caches, exactly as `R` separate engines would).
    adversaries: Vec<Box<dyn Adversary>>,
    /// One plan per replica, filled serially each round in replica order.
    plans: Vec<RoundPlan>,
    /// Replica-major states: node `i`, replica `r` at `i * replicas + r`.
    states: Vec<f64>,
    next: Vec<f64>,
    round: usize,
    planned_edges: Vec<PlannedEdge>,
    slot_edges: Vec<PlannedEdge>,
    /// Per-replica n-length column snapshot (the adversary view's state
    /// vector — adversaries speak the scalar layout).
    snapshot: Vec<f64>,
    /// Per-lane scratch: the vertical reduce's `R` survivor sums, or one
    /// lane's decoded row for the exact rule.
    sortbuf: Vec<f64>,
    /// Fault-free rows the columnar networks do not cover (too short to
    /// trim, or in-degree past [`MERGE_MAX_LEN`]) — fixed at
    /// construction; see [`BatchedSimulation::scalar_fallback_rows`].
    scalar_fallback_rows: usize,
    /// The one [`BatchPlan`] every replica's adversary reported, if the
    /// family is deterministic and uniform across replicas.
    shared_plan: Option<BatchPlan>,
    /// Whether the shared-plan fast path is enabled (it is by default;
    /// tests disable it to pin equivalence with per-replica planning).
    plan_sharing: bool,
    /// Per-lane fill values for the shared Constant/Pull plans, rebuilt
    /// each shared round.
    shared_values: Vec<f64>,
    /// Sanitized biased keys of `states`, rebuilt once per round (values
    /// are receiver-independent, so encoding per out-edge would redo the
    /// same work `deg` times).
    keys: Vec<u64>,
    /// Slot-major key gather of one row, sized once for the widest padded
    /// row: slot `s`, replica `r` at `row_offset + s * replicas + r`.
    keybuf: Vec<u64>,
    /// Where the row starts in `keybuf`: its first 64-byte boundary, so
    /// the column kernels' vector loads never split a cache line whatever
    /// the allocator hands out.
    row_offset: usize,
    exec: iabc_exec::Executor,
    /// Testing hook: added to every fault-free update. See
    /// [`BatchedSimulation::with_perturbation`].
    perturbation: f64,
}

/// Whether a row of `deg` values sorts on the columnar networks under a
/// rule trimming `f` per side; every other row runs the exact rule.
fn fits_networks(deg: usize, f: usize) -> bool {
    2 * f <= deg && deg <= MERGE_MAX_LEN
}

impl<'a> BatchedSimulation<'a> {
    /// Sets up `replicas` lockstep executions. `inputs` is replica-major
    /// `n × replicas` (node `i` replica `r` at `i * replicas + r`);
    /// `make_adversary(r)` builds replica `r`'s independent adversary.
    ///
    /// # Errors
    ///
    /// [`SimError::ReplicaShapeMismatch`] if `inputs.len()` is not
    /// `n * replicas` (or `replicas` is zero); otherwise the same
    /// validation errors as [`crate::Simulation::new`].
    pub fn new(
        graph: &'a Digraph,
        inputs: &[f64],
        fault_set: NodeSet,
        rule: FastRule,
        replicas: usize,
        mut make_adversary: impl FnMut(usize) -> Box<dyn Adversary>,
    ) -> Result<Self, SimError> {
        let n = graph.node_count();
        if replicas == 0 || inputs.len() != n * replicas {
            return Err(SimError::ReplicaShapeMismatch {
                inputs: inputs.len(),
                nodes: n,
                replicas,
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
        if let Some((flat, &value)) = inputs.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(SimError::NonFiniteInput {
                node: flat / replicas,
                value,
            });
        }
        let compiled = CompiledTopology::compile(graph, &fault_set);
        let mut planned_edges = Vec::with_capacity(compiled.faulty_edge_count());
        sub_csr_edges(&compiled, &mut planned_edges);
        let mut slot_edges = Vec::new();
        dense_slot_table(
            compiled.faulty_edge_count(),
            &planned_edges,
            &mut slot_edges,
        );
        let adversaries: Vec<Box<dyn Adversary>> = (0..replicas).map(&mut make_adversary).collect();
        let scalar_fallback_rows = (0..n)
            .filter(|&i| {
                !compiled.is_faulty(i)
                    && !fits_networks(compiled.in_neighbors_of(i).len(), rule.f())
            })
            .count();
        // The shared-plan fast path needs every replica to report the
        // same deterministic plan — one randomized lane forces the full
        // per-replica protocol for all of them.
        let shared_plan = adversaries
            .first()
            .and_then(|a| a.batch_plan())
            .filter(|p| adversaries.iter().all(|a| a.batch_plan() == Some(*p)));
        let max_deg = compiled.max_in_degree();
        // Seven spare keys: room to start the widest row on a 64-byte
        // boundary wherever the allocation lands.
        let keybuf = vec![0u64; max_deg.next_power_of_two() * replicas + 7];
        let row_offset = keybuf.as_ptr().align_offset(64).min(7);
        Ok(BatchedSimulation {
            graph,
            compiled,
            fault_set,
            rule,
            exact: rule.exact(),
            replicas,
            adversaries,
            plans: (0..replicas).map(|_| RoundPlan::new()).collect(),
            states: inputs.to_vec(),
            next: inputs.to_vec(),
            round: 0,
            planned_edges,
            slot_edges,
            snapshot: vec![0.0; n],
            sortbuf: Vec::with_capacity(max_deg.max(replicas)),
            scalar_fallback_rows,
            shared_plan,
            plan_sharing: true,
            shared_values: Vec::new(),
            keys: Vec::new(),
            keybuf,
            row_offset,
            exec: iabc_exec::Executor::serial(),
            perturbation: 0.0,
        })
    }

    /// **Audit canary hook**: adds `delta` to every fault-free update —
    /// a deliberately wrong kernel. Exists solely so the epsilon-audit
    /// harness can be proven non-tautological (a perturbed engine must
    /// *fail* [`epsilon_audit`]); never set this in real workloads.
    #[must_use]
    pub fn with_perturbation(mut self, delta: f64) -> Self {
        self.perturbation = delta;
        self
    }

    /// **Equivalence-test hook**: disables (or re-enables) the
    /// shared-plan fast path, forcing the per-replica snapshot + serial
    /// plan walk even for deterministic families. Shared planning is
    /// bit-identical by construction; this switch exists so the test
    /// suite can prove it rather than assume it.
    #[must_use]
    pub fn with_plan_sharing(mut self, enabled: bool) -> Self {
        self.plan_sharing = enabled;
        self
    }

    /// Number of lockstep replicas.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Fault-free rows that run the exact rule per replica instead of the
    /// columnar network path: rows too short to trim (the rule reports
    /// the exact tier's error) or with in-degree past [`MERGE_MAX_LEN`].
    /// Zero means every update in every round runs vectorized — e.g.
    /// complete `n = 100` (in-degree 99) is fully covered by the merge
    /// networks.
    pub fn scalar_fallback_rows(&self) -> usize {
        self.scalar_fallback_rows
    }

    /// The deterministic plan shared by every replica's adversary, if
    /// the shared-plan fast path is active this run.
    pub fn shared_plan(&self) -> Option<BatchPlan> {
        if self.plan_sharing {
            self.shared_plan
        } else {
            None
        }
    }

    /// Iterations executed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// The replica-major state vector (`n × replicas`, node `i` replica
    /// `r` at `i * replicas + r`). Faulty rows carry their inputs forever.
    pub fn states(&self) -> &[f64] {
        &self.states
    }

    /// The faulty set (shared by every replica — same topology, same
    /// faults; only inputs and adversary streams differ).
    pub fn fault_set(&self) -> &NodeSet {
        &self.fault_set
    }

    /// The FastMath rule every replica applies.
    pub fn rule(&self) -> FastRule {
        self.rule
    }

    /// Copies replica `r`'s column into a scalar state vector (node-major
    /// length `n`) — the layout the rest of the workspace speaks.
    pub fn replica_states(&self, r: usize) -> Vec<f64> {
        assert!(r < self.replicas, "replica {r} out of {}", self.replicas);
        let n = self.graph.node_count();
        (0..n).map(|i| self.states[i * self.replicas + r]).collect()
    }

    /// Replica `r`'s fault-free range `U − µ`.
    pub fn replica_range(&self, r: usize) -> f64 {
        assert!(r < self.replicas, "replica {r} out of {}", self.replicas);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for i in 0..self.graph.node_count() {
            if self.fault_set.contains(NodeId::new(i)) {
                continue;
            }
            let v = self.states[i * self.replicas + r];
            lo = lo.min(v);
            hi = hi.max(v);
        }
        hi - lo
    }

    /// Overwrites replica `r`'s fault-free entries from a scalar state
    /// vector — the audit's per-round resynchronization (faulty rows are
    /// never written, preserving the double-buffer contract).
    fn resync_replica(&mut self, r: usize, exact: &[f64]) {
        for (i, &v) in exact.iter().enumerate().take(self.graph.node_count()) {
            if !self.fault_set.contains(NodeId::new(i)) {
                self.states[i * self.replicas + r] = v;
            }
        }
    }

    /// Executes one lockstep iteration: phase 1 plans each replica's
    /// round serially (replica order, so every adversary RNG stream is
    /// exactly what its scalar engine would draw) — or **once for all
    /// replicas** when every adversary shares a deterministic
    /// [`BatchPlan`] (see the [module docs](self)) — then phase 2 walks
    /// the CSR once per node and advances all `R` lanes from one gather.
    ///
    /// # Errors
    ///
    /// [`SimError::Rule`] if the rule fails at some node (first failing
    /// node in ascending order, matching the scalar engine; the failing
    /// replica is folded into the same error shape).
    pub fn step(&mut self) -> Result<(), SimError> {
        self.round += 1;
        let r_count = self.replicas;
        let n = self.graph.node_count();
        let shared = self.shared_plan();
        match shared {
            // Phase 1 (shared plan): the family is deterministic and
            // uniform, so one plan serves every lane — no snapshots, no
            // per-replica walk. Constant fills one value; Pull computes
            // every lane's fault-free hull end in a single replica-major
            // pass (same `min`/`max` fold over the same node order as
            // `AdversaryView::honest_hull`, hence bit-identical per
            // lane); Conforming needs no per-round work at all.
            Some(BatchPlan::Constant(v)) => {
                self.shared_values.clear();
                self.shared_values.resize(r_count, v);
            }
            Some(BatchPlan::Pull { toward_max }) => {
                self.shared_values.clear();
                let seed = if toward_max {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                };
                self.shared_values.resize(r_count, seed);
                for i in 0..n {
                    if self.fault_set.contains(NodeId::new(i)) {
                        continue;
                    }
                    let row = &self.states[i * r_count..(i + 1) * r_count];
                    if toward_max {
                        for (acc, &v) in self.shared_values.iter_mut().zip(row) {
                            *acc = acc.max(v);
                        }
                    } else {
                        for (acc, &v) in self.shared_values.iter_mut().zip(row) {
                            *acc = acc.min(v);
                        }
                    }
                }
            }
            Some(BatchPlan::Conforming) => {}
            // Phase 1 (general): per-replica plans against per-replica
            // column snapshots, serial in replica order so every
            // adversary RNG stream draws exactly as its scalar engine
            // would.
            None => {
                for r in 0..r_count {
                    for i in 0..n {
                        self.snapshot[i] = self.states[i * r_count + r];
                    }
                    let view = AdversaryView {
                        round: self.round,
                        graph: self.graph,
                        states: &self.snapshot,
                        fault_set: &self.fault_set,
                    };
                    fill_plan(
                        self.adversaries[r].as_mut(),
                        &view,
                        &self.planned_edges,
                        &self.slot_edges,
                        true,
                        &mut self.plans[r],
                        &self.exec,
                    );
                }
            }
        }
        // Phase 2 prologue: sanitize + encode every state into the biased
        // key domain once per round. A value's key does not depend on the
        // receiver, so encoding inside the per-node gather would redo the
        // same transform out-degree times.
        self.keys.clear();
        self.keys
            .extend(self.states.iter().map(|&v| sanitize(v).to_bits()));
        encode_keys(&mut self.keys);
        let f = self.rule.f();
        // Phase 2: one CSR walk advances every replica.
        for i in 0..n {
            if self.compiled.is_faulty(i) {
                continue;
            }
            let row = self.compiled.in_neighbors_of(i);
            let deg = row.len();
            let columnar = fits_networks(deg, f);
            // Mean never trims, and the exact rule sums in gather order —
            // sorting would only reorder (and so reassociate) its sum, so
            // the network runs for the trimming rules only.
            let sorted = columnar && !matches!(self.rule, FastRule::Mean);
            let slots = if sorted { deg.next_power_of_two() } else { deg };
            let buf = &mut self.keybuf[self.row_offset..][..slots * r_count];
            // One gather of the pre-encoded keys, then one patch of the
            // faulty slots from the round's plan.
            for (dst, &j) in buf.chunks_exact_mut(r_count).zip(row) {
                let j = j as usize * r_count;
                dst.copy_from_slice(&self.keys[j..j + r_count]);
            }
            let base = self.compiled.faulty_in_offset(i) as u32;
            let fedges = self.compiled.faulty_in_edges_of(i);
            match shared {
                // Conforming sends the sender's own state — exactly the key
                // the gather already placed in that slot.
                Some(BatchPlan::Conforming) => {}
                // Constant / Pull: one planned value per lane.
                Some(_) => {
                    for &(slot, _sender) in fedges {
                        let lane = slot as usize * r_count;
                        for r in 0..r_count {
                            buf[lane + r] = biased_key(sanitize(self.shared_values[r]).to_bits());
                        }
                    }
                }
                None => {
                    for (k, &(slot, _sender)) in fedges.iter().enumerate() {
                        let lane = slot as usize * r_count;
                        for r in 0..r_count {
                            let raw = match self.plans[r].get(base + k as u32) {
                                PlannedMessage::Value(v) => v,
                                PlannedMessage::Omit => self.states[i * r_count + r],
                            };
                            buf[lane + r] = biased_key(sanitize(raw).to_bits());
                        }
                    }
                }
            }
            let own_lane = i * r_count;
            if columnar {
                // Columnar path (one 32-slot network, or 32-slot blocks
                // fused by merge stages up to 128): pad to a power-of-two
                // slot count, network-sort all R columns at once (the
                // schedule is data-oblivious, so one compare-exchange
                // orders a slot pair in every replica — eight per AVX-512F
                // instruction, four under AVX2, over a comparator table
                // built once per process), then decode only the surviving
                // slots. Gathered values are sanitized finite, so the only
                // rule error — too few values to trim — is excluded by the
                // guard.
                if sorted {
                    buf[deg * r_count..].fill(COLUMN_PAD_KEY);
                    sort_columns_keys(buf, r_count);
                }
                match self.rule {
                    FastRule::TrimmedMean(_) | FastRule::Mean => {
                        // Vertical survivor reduction: decode the (contiguous)
                        // surviving slot rows, then add each row into
                        // per-replica accumulators. Every replica's sum is the
                        // exact tier's left-to-right fold, started at -0.0 as
                        // `Iterator::sum` starts (the accumulators are
                        // independent, so the compiler vectorizes across
                        // replicas without reassociating within one), making
                        // this path bit-identical to `rules::average_with_own`
                        // over the sanitized gather.
                        let weight = 1.0 / ((deg - 2 * f) as f64 + 1.0);
                        let survivors = &mut buf[f * r_count..(deg - f) * r_count];
                        decode_keys(survivors);
                        self.sortbuf.clear();
                        self.sortbuf.resize(r_count, -0.0);
                        for srow in survivors.chunks_exact(r_count) {
                            for (acc, &b) in self.sortbuf.iter_mut().zip(srow) {
                                *acc += f64::from_bits(b);
                            }
                        }
                        for r in 0..r_count {
                            self.next[own_lane + r] =
                                weight * (self.states[own_lane + r] + self.sortbuf[r]);
                        }
                    }
                    FastRule::TrimmedMidpoint(_) => {
                        // Survivor extremes sit at fixed slots — decode just
                        // those rows (once each: decode is not an involution).
                        // When the trim consumes the whole gather (deg == 2f)
                        // the midpoint degenerates to `own`, matching the
                        // exact rule.
                        if deg > 2 * f {
                            let (lo_row, hi_row) = (f * r_count, (deg - f - 1) * r_count);
                            decode_keys(&mut buf[lo_row..lo_row + r_count]);
                            if hi_row != lo_row {
                                decode_keys(&mut buf[hi_row..hi_row + r_count]);
                            }
                            for r in 0..r_count {
                                let own = self.states[own_lane + r];
                                let lo = f64::from_bits(buf[lo_row + r]).min(own);
                                let hi = f64::from_bits(buf[hi_row + r]).max(own);
                                self.next[own_lane + r] = (lo + hi) / 2.0;
                            }
                        } else {
                            for r in 0..r_count {
                                let own = self.states[own_lane + r];
                                self.next[own_lane + r] = (own + own) / 2.0;
                            }
                        }
                    }
                }
            } else {
                // Rows the networks do not cover — too short to trim, or
                // past MERGE_MAX_LEN: each replica's decoded row goes
                // through the exact rule, so a short row reports the exact
                // tier's error and a wide row matches it bit for bit.
                decode_keys(buf);
                for r in 0..r_count {
                    self.sortbuf.clear();
                    self.sortbuf
                        .extend(buf[r..].iter().step_by(r_count).map(|&b| f64::from_bits(b)));
                    let own = self.states[own_lane + r];
                    self.next[own_lane + r] =
                        self.exact
                            .update(own, &mut self.sortbuf)
                            .map_err(|source| SimError::Rule {
                                node: i,
                                round: self.round,
                                source,
                            })?;
                }
            }
            if self.perturbation != 0.0 {
                for out in &mut self.next[own_lane..own_lane + r_count] {
                    *out += self.perturbation;
                }
            }
        }
        std::mem::swap(&mut self.states, &mut self.next);
        Ok(())
    }

    /// Runs until **every** replica's fault-free range reaches
    /// `config.epsilon` or the round cap fires, recording each replica's
    /// first-convergence round. A replica that converges keeps stepping in
    /// lockstep (its recorded round is unaffected — the scalar
    /// [`crate::Engine::run`] would simply have stopped there).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Rule`] from [`BatchedSimulation::step`].
    pub fn run(&mut self, config: &RunConfig) -> Result<BatchOutcome, SimError> {
        let mut converged_at: Vec<Option<usize>> = vec![None; self.replicas];
        self.note_convergence(&mut converged_at, config.epsilon);
        while converged_at.iter().any(Option::is_none) && self.round < config.max_rounds {
            self.step()?;
            self.note_convergence(&mut converged_at, config.epsilon);
        }
        let final_ranges = (0..self.replicas).map(|r| self.replica_range(r)).collect();
        Ok(BatchOutcome {
            replicas: self.replicas,
            rounds: self.round,
            converged: converged_at.iter().map(Option::is_some).collect(),
            rounds_to_converge: converged_at,
            final_ranges,
        })
    }

    fn note_convergence(&self, converged_at: &mut [Option<usize>], epsilon: f64) {
        for (r, slot) in converged_at.iter_mut().enumerate() {
            if slot.is_none() && self.replica_range(r) <= epsilon {
                *slot = Some(self.round);
            }
        }
    }
}

/// Outcome of a [`BatchedSimulation::run`]: per-replica convergence, one
/// lockstep round counter.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Number of replicas run.
    pub replicas: usize,
    /// Lockstep rounds executed (the slowest replica's budget).
    pub rounds: usize,
    /// Per replica: did its range reach epsilon within the budget?
    pub converged: Vec<bool>,
    /// Per replica: first round at which its range reached epsilon
    /// (`None` if the cap fired first) — equal to what the scalar
    /// engine's `Outcome::rounds` would report for that replica.
    pub rounds_to_converge: Vec<Option<usize>>,
    /// Per replica: final fault-free range `U − µ`.
    pub final_ranges: Vec<f64>,
}

impl BatchOutcome {
    /// `true` iff every replica converged.
    pub fn all_converged(&self) -> bool {
        self.converged.iter().all(|&c| c)
    }

    /// How many replicas converged.
    pub fn converged_count(&self) -> usize {
        self.converged.iter().filter(|&&c| c).count()
    }
}

/// What [`epsilon_audit`] measured over a clean (passing) run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditReport {
    /// Rounds stepped in lockstep.
    pub rounds: usize,
    /// Worst per-round ULP distance observed across every
    /// `(round, node, replica)`.
    pub max_ulps: u64,
    /// Worst per-round absolute difference observed.
    pub max_abs: f64,
}

/// Why [`epsilon_audit`] failed.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// An engine error on either tier (both tiers validate identically,
    /// so a one-sided error would itself be a divergence — it surfaces
    /// here as whichever side errored first).
    Sim(SimError),
    /// A `(round, node, replica)` state exceeded the ULP bound.
    Divergence {
        /// Round at which the bound broke.
        round: usize,
        /// The diverging node.
        node: usize,
        /// The diverging replica.
        replica: usize,
        /// FastMath's value.
        fast: f64,
        /// The exact tier's value.
        exact: f64,
        /// Their ULP distance (> the configured bound).
        ulps: u64,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Sim(e) => write!(f, "audit engine error: {e}"),
            AuditError::Divergence {
                round,
                node,
                replica,
                fast,
                exact,
                ulps,
            } => write!(
                f,
                "FastMath diverged at round {round}, node {node}, replica {replica}: \
                 fast {fast} vs exact {exact} ({ulps} ulps)"
            ),
        }
    }
}

impl std::error::Error for AuditError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AuditError::Sim(e) => Some(e),
            AuditError::Divergence { .. } => None,
        }
    }
}

impl From<SimError> for AuditError {
    fn from(e: SimError) -> Self {
        AuditError::Sim(e)
    }
}

/// Steps `batch` against `R` exact-tier [`crate::Simulation`]s in
/// lockstep for `rounds` rounds, enforcing `max_ulps` on every
/// `(node, replica)` state each round.
///
/// After each compared round the batch's states are **resynchronized** to
/// the exact tier's, so (a) both sides' adversaries see bit-identical
/// views and their RNG streams never fork, and (b) the bound measures
/// per-round kernel error rather than compounded drift — the quantity the
/// FastMath contract actually promises.
///
/// `make_adversary` must be the same factory (same seeds) the batch was
/// built with; `batch` must be freshly constructed (round 0).
///
/// # Errors
///
/// [`AuditError::Divergence`] when the bound breaks,
/// [`AuditError::Sim`] when either tier's engine errors.
///
/// # Panics
///
/// Panics if `batch` has already stepped.
pub fn epsilon_audit(
    batch: &mut BatchedSimulation<'_>,
    mut make_adversary: impl FnMut(usize) -> Box<dyn Adversary>,
    rounds: usize,
    max_ulps: u64,
) -> Result<AuditReport, AuditError> {
    assert_eq!(batch.round(), 0, "epsilon_audit needs a fresh batch");
    let exact_rule = batch.rule().exact();
    let r_count = batch.replicas();
    let n = batch.graph.node_count();
    let mut exact_sims = Vec::with_capacity(r_count);
    for r in 0..r_count {
        let col = batch.replica_states(r);
        exact_sims.push(crate::Simulation::new(
            batch.graph,
            &col,
            batch.fault_set().clone(),
            &*exact_rule,
            make_adversary(r),
        )?);
    }
    let mut report = AuditReport {
        rounds,
        max_ulps: 0,
        max_abs: 0.0,
    };
    for _ in 0..rounds {
        batch.step()?;
        for sim in exact_sims.iter_mut() {
            sim.step()?;
        }
        for (r, sim) in exact_sims.iter().enumerate() {
            let exact_states = sim.states();
            for (i, &exact) in exact_states.iter().enumerate().take(n) {
                if batch.fault_set().contains(NodeId::new(i)) {
                    continue;
                }
                let fast = batch.states()[i * r_count + r];
                let ulps = ulp_distance(fast, exact);
                if ulps > max_ulps {
                    return Err(AuditError::Divergence {
                        round: batch.round(),
                        node: i,
                        replica: r,
                        fast,
                        exact,
                        ulps,
                    });
                }
                report.max_ulps = report.max_ulps.max(ulps);
                report.max_abs = report.max_abs.max((fast - exact).abs());
            }
        }
        for (r, sim) in exact_sims.iter().enumerate() {
            let exact_states: Vec<f64> = sim.states().to_vec();
            batch.resync_replica(r, &exact_states);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        ConformingAdversary, ConstantAdversary, PullAdversary, RandomAdversary,
    };
    use iabc_graph::generators;

    fn k7_inputs(replicas: usize) -> Vec<f64> {
        let base = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0];
        let mut flat = vec![0.0; 7 * replicas];
        for (i, &v) in base.iter().enumerate() {
            for r in 0..replicas {
                flat[i * replicas + r] = v + (r as f64) * 0.125;
            }
        }
        flat
    }

    #[test]
    fn constructor_validates_shape() {
        let g = generators::complete(7);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let err = BatchedSimulation::new(
            &g,
            &[0.0; 13],
            faults.clone(),
            FastRule::TrimmedMean(2),
            2,
            |_| Box::new(ConformingAdversary::new()),
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::ReplicaShapeMismatch {
                inputs: 13,
                nodes: 7,
                replicas: 2
            }
        );
        assert!(matches!(
            BatchedSimulation::new(&g, &[], faults, FastRule::TrimmedMean(2), 0, |_| Box::new(
                ConformingAdversary::new()
            )),
            Err(SimError::ReplicaShapeMismatch { replicas: 0, .. })
        ));
    }

    #[test]
    fn batch_matches_per_replica_scalar_runs_bit_for_bit() {
        // Each replica of the batch must land (per round, bit for bit)
        // where its own scalar engine lands.
        let g = generators::complete(7);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let replicas = 4;
        let inputs = k7_inputs(replicas);
        let make = |r: usize| -> Box<dyn Adversary> {
            Box::new(RandomAdversary::new(-1e6, 1e6, 42 + r as u64))
        };
        let mut batch = BatchedSimulation::new(
            &g,
            &inputs,
            faults.clone(),
            FastRule::TrimmedMean(2),
            replicas,
            make,
        )
        .unwrap();
        let report = epsilon_audit(&mut batch, make, 25, 0).unwrap();
        assert_eq!(report.rounds, 25);
        assert_eq!(report.max_ulps, 0);
    }

    #[test]
    fn batch_converges_per_replica() {
        let g = generators::complete(7);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let replicas = 8;
        let inputs = k7_inputs(replicas);
        let mut batch = BatchedSimulation::new(
            &g,
            &inputs,
            faults,
            FastRule::TrimmedMean(2),
            replicas,
            |_| Box::new(ConstantAdversary::new(1e9)),
        )
        .unwrap();
        let out = batch.run(&RunConfig::default()).unwrap();
        assert!(out.all_converged(), "{out:?}");
        assert_eq!(out.converged_count(), replicas);
        for (r, rounds) in out.rounds_to_converge.iter().enumerate() {
            assert!(rounds.is_some(), "replica {r} did not converge");
        }
        for &range in &out.final_ranges {
            assert!(range <= RunConfig::default().epsilon);
        }
    }

    #[test]
    fn batch_width_is_unobservable() {
        // The answer is a property of (inputs, adversary stream, rule) —
        // running a replica inside a width-5 batch (columnar SIMD sort)
        // must produce byte-identical states to running it alone.
        let g = generators::complete(7);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let replicas = 5;
        let inputs = k7_inputs(replicas);
        let make = |r: usize| -> Box<dyn Adversary> {
            Box::new(RandomAdversary::new(-1e6, 1e6, 7 + r as u64))
        };
        let mut batch = BatchedSimulation::new(
            &g,
            &inputs,
            faults.clone(),
            FastRule::TrimmedMean(2),
            replicas,
            make,
        )
        .unwrap();
        for _ in 0..12 {
            batch.step().unwrap();
        }
        for r in 0..replicas {
            let col: Vec<f64> = (0..7).map(|i| inputs[i * replicas + r]).collect();
            let mut solo = BatchedSimulation::new(
                &g,
                &col,
                faults.clone(),
                FastRule::TrimmedMean(2),
                1,
                |_| make(r),
            )
            .unwrap();
            for _ in 0..12 {
                solo.step().unwrap();
            }
            let batch_col: Vec<u64> = batch
                .replica_states(r)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let solo_col: Vec<u64> = solo.states().iter().map(|v| v.to_bits()).collect();
            assert_eq!(batch_col, solo_col, "replica {r}");
        }
    }

    #[test]
    fn merge_network_rows_stay_columnar_and_audit() {
        // complete(40) has in-degree 39: past the unrolled networks but
        // within MERGE_MAX_LEN, so phase 2 stays on the columnar merge-
        // network path (no exact-rule rows at all) — and the columnar
        // trimmed-mean fold is bit-identical to the exact tier.
        let g = generators::complete(40);
        let faults = NodeSet::from_indices(40, [38, 39]);
        let replicas = 3;
        let inputs: Vec<f64> = (0..40 * replicas).map(|i| (i % 17) as f64).collect();
        let make = |r: usize| -> Box<dyn Adversary> {
            Box::new(RandomAdversary::new(-1e3, 1e3, 100 + r as u64))
        };
        let mut batch = BatchedSimulation::new(
            &g,
            &inputs,
            faults,
            FastRule::TrimmedMean(2),
            replicas,
            make,
        )
        .unwrap();
        assert_eq!(batch.scalar_fallback_rows(), 0);
        let report = epsilon_audit(&mut batch, make, 10, 0).unwrap();
        assert_eq!(report.rounds, 10);
    }

    #[test]
    fn wide_rows_run_the_exact_rule_bit_for_bit() {
        // complete(140) has in-degree 139 > MERGE_MAX_LEN: phase 2 runs
        // the exact rule per replica, so the audit holds at 0 ULPs.
        let g = generators::complete(140);
        let faults = NodeSet::from_indices(140, [138, 139]);
        let replicas = 2;
        let inputs: Vec<f64> = (0..140 * replicas).map(|i| (i % 17) as f64).collect();
        let make = |r: usize| -> Box<dyn Adversary> {
            Box::new(RandomAdversary::new(-1e3, 1e3, 100 + r as u64))
        };
        let mut batch = BatchedSimulation::new(
            &g,
            &inputs,
            faults,
            FastRule::TrimmedMean(2),
            replicas,
            make,
        )
        .unwrap();
        // Every fault-free row overflows the merge networks.
        assert_eq!(batch.scalar_fallback_rows(), 138);
        let report = epsilon_audit(&mut batch, make, 6, 0).unwrap();
        assert_eq!(report.rounds, 6);
    }

    #[test]
    fn shared_plan_is_bit_identical_to_per_replica_planning() {
        // The deterministic families (Conforming / Constant / Pull) take
        // the shared-plan fast path; forcing the per-replica snapshot +
        // serial plan walk instead must land on byte-identical states at
        // every width.
        let g = generators::complete(9);
        let faults = NodeSet::from_indices(9, [7, 8]);
        type FamilyCtor = Box<dyn Fn() -> Box<dyn Adversary>>;
        let families: Vec<(&str, FamilyCtor)> = vec![
            (
                "conforming",
                Box::new(|| Box::new(ConformingAdversary::new())),
            ),
            (
                "constant",
                Box::new(|| Box::new(ConstantAdversary::new(1e9))),
            ),
            ("pull-low", Box::new(|| Box::new(PullAdversary::new(false)))),
            ("pull-high", Box::new(|| Box::new(PullAdversary::new(true)))),
        ];
        for (name, make) in &families {
            for replicas in [1usize, 7, 32] {
                let inputs: Vec<f64> = (0..9 * replicas)
                    .map(|i| ((i * 31) % 23) as f64 * 0.5 - 4.0)
                    .collect();
                let run = |sharing: bool| {
                    let mut batch = BatchedSimulation::new(
                        &g,
                        &inputs,
                        faults.clone(),
                        FastRule::TrimmedMean(2),
                        replicas,
                        |_| make(),
                    )
                    .unwrap()
                    .with_plan_sharing(sharing);
                    assert_eq!(batch.shared_plan().is_some(), sharing, "{name}");
                    for _ in 0..15 {
                        batch.step().unwrap();
                    }
                    batch
                        .states()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<u64>>()
                };
                assert_eq!(run(true), run(false), "{name}, R = {replicas}");
            }
        }
    }

    #[test]
    fn randomized_families_never_share_a_plan() {
        let g = generators::complete(7);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let inputs = k7_inputs(2);
        let batch = BatchedSimulation::new(
            &g,
            &inputs,
            faults,
            FastRule::TrimmedMean(2),
            2,
            |r| -> Box<dyn Adversary> { Box::new(RandomAdversary::new(-1.0, 1.0, r as u64)) },
        )
        .unwrap();
        assert_eq!(batch.shared_plan(), None);
    }

    #[test]
    fn mixed_families_never_share_a_plan() {
        // Uniformity is required: one lane on a different deterministic
        // family forces the full per-replica protocol.
        let g = generators::complete(7);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let inputs = k7_inputs(2);
        let batch = BatchedSimulation::new(
            &g,
            &inputs,
            faults,
            FastRule::TrimmedMean(2),
            2,
            |r| -> Box<dyn Adversary> {
                if r == 0 {
                    Box::new(ConstantAdversary::new(1e9))
                } else {
                    Box::new(PullAdversary::new(true))
                }
            },
        )
        .unwrap();
        assert_eq!(batch.shared_plan(), None);
    }

    #[test]
    fn perturbed_kernel_fails_the_audit() {
        let g = generators::complete(7);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let replicas = 2;
        let inputs = k7_inputs(replicas);
        let make = |_: usize| -> Box<dyn Adversary> { Box::new(ConstantAdversary::new(1e9)) };
        let mut batch = BatchedSimulation::new(
            &g,
            &inputs,
            faults,
            FastRule::TrimmedMean(2),
            replicas,
            make,
        )
        .unwrap()
        .with_perturbation(1e-9);
        let err = epsilon_audit(&mut batch, make, 5, 0).unwrap_err();
        assert!(
            matches!(err, AuditError::Divergence { round: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn replica_states_extracts_columns() {
        let g = generators::complete(3);
        let inputs = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]; // n = 3, R = 2
        let batch = BatchedSimulation::new(
            &g,
            &inputs,
            NodeSet::with_universe(3),
            FastRule::Mean,
            2,
            |_| Box::new(ConformingAdversary::new()),
        )
        .unwrap();
        assert_eq!(batch.replica_states(0), vec![0.0, 1.0, 2.0]);
        assert_eq!(batch.replica_states(1), vec![0.5, 1.5, 2.5]);
        assert!((batch.replica_range(0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rule_error_carries_node_and_round() {
        // Cycle has in-degree 1 < 2f = 2: the very first step fails, with
        // the exact engine's error.
        let g = generators::cycle(4);
        let mut batch = BatchedSimulation::new(
            &g,
            &[0.0; 8],
            NodeSet::with_universe(4),
            FastRule::TrimmedMean(1),
            2,
            |_| Box::new(ConformingAdversary::new()),
        )
        .unwrap();
        let err = batch.step().unwrap_err();
        assert!(matches!(err, SimError::Rule { round: 1, .. }));
        let rule = iabc_core::rules::TrimmedMean::new(1);
        let mut exact = crate::Simulation::new(
            &g,
            &[0.0; 4],
            NodeSet::with_universe(4),
            &rule,
            Box::new(ConformingAdversary::new()),
        )
        .unwrap();
        assert_eq!(err, exact.step().unwrap_err());
    }
}
