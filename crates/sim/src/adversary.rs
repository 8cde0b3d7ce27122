//! Full-information Byzantine adversaries — the **two-phase** protocol.
//!
//! The paper's failure model (Section 2.2): up to `f` nodes misbehave
//! arbitrarily, may collude, know the complete system state and the
//! algorithm. Under the *point-to-point* model a faulty node may send
//! **different** values to different out-neighbours — the distinguishing
//! power this paper studies (contrast the broadcast model of \[16, 17\]).
//!
//! # The two-phase protocol
//!
//! An [`Adversary`] is invoked **once per round**, not once per edge:
//!
//! 1. **Plan** (phase 1). The engine passes a full [`AdversaryView`] of
//!    the system plus a [`RoundSlots`] listing every faulty edge it will
//!    deliver this round, and the adversary's picks fill a flat
//!    [`RoundPlan`] — one [`crate::plan::PlannedMessage`] (value or
//!    omission) per slot. All mutable state lives here: RNG streams draw
//!    in slot order, per-round caches ([`BroadcastOf`]) reset, and
//!    hull-querying strategies compute `U[t-1]`/`µ[t-1]` **once** via
//!    [`AdversaryView::honest_hull`] instead of once per message.
//! 2. **Execute** (phase 2, parallelizable). The engine's node loop —
//!    which may fan across cores — reads the finished plan by index.
//!    The adversary is not touched again until the next round.
//!
//! # One planning path per family
//!
//! Most families in this roster are **pure**: the message on a slot is a
//! function of values computed once per round (the honest hull, a
//! constant, a parity) and of the slot's edge. Such a family implements
//! only [`Adversary::fill`]: it does the round's `&mut` work, caches the
//! results in its own fields, and returns itself as an [`EdgeFill`] — a
//! `Sync` per-edge decision. The engines fan that decision across their
//! worker pool ([`iabc_exec::Executor`], inline at one worker), and the
//! trait's default [`Adversary::plan_round`] walks the same decision
//! over the slots for callers that plan by hand. The decision is written
//! once, so a serial and a pooled plan cannot differ.
//!
//! **Stateful** families — RNG streams ([`RandomAdversary`]),
//! inner-adversary wrappers ([`BroadcastOf`]) — keep the default `fill`
//! (`None`) and implement [`Adversary::plan_round`] instead, which every
//! engine calls serially.
//!
//! The star exhibit is [`SplitBrainAdversary`], the adversary from the
//! **proof of Theorem 1**: it sends `m⁻ < m` to `L`, `M⁺ > M` to `R`, and
//! a mid-range value to `C`, freezing a violating partition forever.
//!
//! All adversary structs are `#[non_exhaustive]` with `new(..)`
//! constructors, so future cached fields are not breaking changes.

use std::fmt;

use iabc_core::Witness;
use iabc_graph::{Digraph, NodeId, NodeSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::plan::{PlannedEdge, PlannedMessage, RoundPlan, RoundSlots};

/// Everything a full-information adversary can see when planning a round.
#[derive(Debug)]
pub struct AdversaryView<'a> {
    /// Iteration about to be computed (`t ≥ 1`; states are `v[t-1]`).
    pub round: usize,
    /// The network.
    pub graph: &'a Digraph,
    /// Current states of **all** nodes (complete knowledge per §2.2).
    pub states: &'a [f64],
    /// The faulty set `F`.
    pub fault_set: &'a NodeSet,
}

impl AdversaryView<'_> {
    /// The fault-free hull `(µ[t-1], U[t-1])` in a single pass. Call this
    /// **once** per round (in [`Adversary::fill`] or
    /// [`Adversary::plan_round`]) and reuse the pair — the whole point of
    /// phase 1 is that the O(n) scan happens per round, not per message.
    pub fn honest_hull(&self) -> (f64, f64) {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, &v) in self.states.iter().enumerate() {
            if !self.fault_set.contains(NodeId::new(i)) {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        (lo, hi)
    }

    /// Maximum state over fault-free nodes (`U[t-1]`).
    pub fn honest_max(&self) -> f64 {
        self.honest_hull().1
    }

    /// Minimum state over fault-free nodes (`µ[t-1]`).
    pub fn honest_min(&self) -> f64 {
        self.honest_hull().0
    }
}

/// A pure family's per-edge decision, frozen for one round: what
/// [`Adversary::fill`] hands the engine. The engine may call
/// [`EdgeFill::message`] for the round's slots in any order, from any
/// worker, concurrently.
pub trait EdgeFill: Sync {
    /// The planned message for `edge` this round.
    fn message(&self, view: &AdversaryView<'_>, edge: PlannedEdge) -> PlannedMessage;
}

/// A replica-independent description of a deterministic family's round
/// plan — the contract behind [`Adversary::batch_plan`]. Each variant is
/// a pure function of the receiving replica's view (no RNG, no mutable
/// adversary state), so a replica-batched engine can plan **once** per
/// round and fan the fill across all lanes instead of snapshotting and
/// planning every replica serially. None of these families ever omits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchPlan {
    /// Every faulty edge carries the sender's own current state
    /// ([`ConformingAdversary`]).
    Conforming,
    /// Every faulty edge carries this constant ([`ConstantAdversary`]).
    Constant(f64),
    /// Every faulty edge carries one end of the replica's fault-free
    /// hull ([`PullAdversary`]).
    Pull {
        /// `true` → the hull maximum `U[t-1]`, `false` → the minimum
        /// `µ[t-1]`.
        toward_max: bool,
    },
}

/// A joint strategy for all faulty nodes (they collude per §2.2),
/// speaking the two-phase protocol described in the [module docs](self).
pub trait Adversary: fmt::Debug + Send {
    /// Phase 1 for a pure family (the [module docs](self) name the
    /// contract): do the round's serial work — hull scans, anything
    /// `&mut` — cache the results in `self`, and return the per-edge
    /// decision. Engines fan it across their worker pool instead of
    /// calling [`Adversary::plan_round`]. Return `None` (the default)
    /// from a stateful family, which implements `plan_round` instead.
    fn fill(&mut self, view: &AdversaryView<'_>, slots: RoundSlots<'_>) -> Option<&dyn EdgeFill> {
        let _ = (view, slots);
        None
    }

    /// Phase 1: plan every message this round delivers on a faulty edge.
    ///
    /// Runs once per round, serially, with full mutable state. `slots`
    /// enumerates the faulty edges in the engine's delivery order (RNG
    /// draws must follow that order to stay reproducible); fill `plan`
    /// with one entry per slot. `plan` arrives reset to all-`Omit` and
    /// may be larger than `slots` (engines with sparse slot spaces only
    /// read the slots they named). Plan an omission only when
    /// [`RoundSlots::allows_omission`] says the engine honours it.
    ///
    /// The default walks [`Adversary::fill`]'s decision over the slots.
    ///
    /// # Panics
    ///
    /// The default panics if `fill` returns `None`: a family implements
    /// one of the two.
    fn plan_round(
        &mut self,
        view: &AdversaryView<'_>,
        slots: RoundSlots<'_>,
        plan: &mut RoundPlan,
    ) {
        let fill = self
            .fill(view, slots)
            .expect("an adversary implements `fill` or `plan_round`");
        for edge in slots.iter() {
            match fill.message(view, edge) {
                PlannedMessage::Value(v) => plan.set_value(edge.slot, v),
                PlannedMessage::Omit => plan.set_omit(edge.slot),
            }
        }
    }

    /// Phase 1, replica-batched tier: families whose entire round plan is
    /// a pure, state-free function of the view may return the matching
    /// [`BatchPlan`]. A batched engine running `R` replicas of such a
    /// family plans the round **once** and fans the fill to every lane
    /// (computing per-lane hulls where the plan calls for them), skipping
    /// the per-replica snapshot + serial [`Adversary::plan_round`] walk —
    /// with bit-identical results, since the description carries no state
    /// to fork. Return `None` (the default) for stateful or randomized
    /// families; their per-replica RNG streams must keep drawing exactly
    /// as `R` separate engines would.
    fn batch_plan(&self) -> Option<BatchPlan> {
        None
    }

    /// Short identifier for reports.
    fn name(&self) -> &'static str {
        "adversary"
    }
}

/// Plans a single edge and returns its message (`None` = omitted) — a
/// convenience for tests and diagnostics that want the old "query one
/// edge" ergonomics on top of the two-phase protocol. Each call is its
/// own plan: stateful adversaries advance exactly as if the engine had
/// planned a one-edge round.
pub fn plan_one(
    adversary: &mut dyn Adversary,
    view: &AdversaryView<'_>,
    sender: NodeId,
    receiver: NodeId,
    omissions: bool,
) -> Option<f64> {
    let edges = [PlannedEdge {
        slot: 0,
        sender: sender.index() as u32,
        receiver: receiver.index() as u32,
    }];
    let mut plan = RoundPlan::new();
    plan.begin(1);
    adversary.plan_round(view, RoundSlots::new(&edges, omissions), &mut plan);
    match plan.get(0) {
        PlannedMessage::Value(v) => Some(v),
        PlannedMessage::Omit => None,
    }
}

/// Faulty nodes behave exactly like honest ones (crash-free benign run).
/// Useful as a baseline: Algorithm 1 must of course converge here too.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct ConformingAdversary;

impl ConformingAdversary {
    /// Creates the adversary.
    pub fn new() -> Self {
        ConformingAdversary
    }
}

impl Adversary for ConformingAdversary {
    fn fill(&mut self, _: &AdversaryView<'_>, _: RoundSlots<'_>) -> Option<&dyn EdgeFill> {
        Some(self)
    }

    fn batch_plan(&self) -> Option<BatchPlan> {
        Some(BatchPlan::Conforming)
    }

    fn name(&self) -> &'static str {
        "conforming"
    }
}

impl EdgeFill for ConformingAdversary {
    fn message(&self, view: &AdversaryView<'_>, edge: PlannedEdge) -> PlannedMessage {
        PlannedMessage::Value(view.states[edge.sender as usize])
    }
}

/// Every faulty node sends the same constant to everyone.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ConstantAdversary {
    /// The constant sent on every edge.
    pub value: f64,
}

impl ConstantAdversary {
    /// Creates the adversary sending `value` on every edge.
    pub fn new(value: f64) -> Self {
        ConstantAdversary { value }
    }
}

impl Adversary for ConstantAdversary {
    fn fill(&mut self, _: &AdversaryView<'_>, _: RoundSlots<'_>) -> Option<&dyn EdgeFill> {
        Some(self)
    }

    fn batch_plan(&self) -> Option<BatchPlan> {
        Some(BatchPlan::Constant(self.value))
    }

    fn name(&self) -> &'static str {
        "constant"
    }
}

impl EdgeFill for ConstantAdversary {
    fn message(&self, _: &AdversaryView<'_>, _: PlannedEdge) -> PlannedMessage {
        PlannedMessage::Value(self.value)
    }
}

/// Uniform random noise in `[lo, hi]`, independently per edge and round.
/// Draws one value per slot, in slot order — the stream is a pure
/// function of the seed and the engine's edge enumeration.
#[derive(Debug)]
#[non_exhaustive]
pub struct RandomAdversary {
    lo: f64,
    hi: f64,
    rng: StdRng,
}

impl RandomAdversary {
    /// Creates the adversary with its own deterministic RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64, seed: u64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid range [{lo}, {hi}]"
        );
        RandomAdversary {
            lo,
            hi,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Adversary for RandomAdversary {
    fn plan_round(&mut self, _: &AdversaryView<'_>, slots: RoundSlots<'_>, plan: &mut RoundPlan) {
        for edge in slots.iter() {
            plan.set_value(edge.slot, self.rng.random_range(self.lo..=self.hi));
        }
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Pushes everyone outward: odd receivers get `U[t-1] + delta`, even
/// receivers get `µ[t-1] − delta`. Blatant, and exactly what trimming
/// defeats: the planted extremes land in the trimmed tails.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ExtremesAdversary {
    /// How far beyond the honest hull to aim.
    pub delta: f64,
    /// This round's lies: `µ[t-1] − delta` and `U[t-1] + delta`.
    below: f64,
    above: f64,
}

impl ExtremesAdversary {
    /// Creates the adversary aiming `delta` beyond the honest hull.
    pub fn new(delta: f64) -> Self {
        ExtremesAdversary {
            delta,
            below: 0.0,
            above: 0.0,
        }
    }
}

impl Adversary for ExtremesAdversary {
    fn fill(&mut self, view: &AdversaryView<'_>, _: RoundSlots<'_>) -> Option<&dyn EdgeFill> {
        let (lo, hi) = view.honest_hull();
        (self.below, self.above) = (lo - self.delta, hi + self.delta);
        Some(self)
    }

    fn name(&self) -> &'static str {
        "extremes"
    }
}

impl EdgeFill for ExtremesAdversary {
    fn message(&self, _: &AdversaryView<'_>, edge: PlannedEdge) -> PlannedMessage {
        PlannedMessage::Value(if edge.receiver % 2 == 1 {
            self.above
        } else {
            self.below
        })
    }
}

/// The maximal *stealthy* slow-down: always report the current honest
/// minimum (or maximum). The value lies inside the honest hull, so trimming
/// cannot reliably discard it; it drags convergence toward one extreme and
/// maximizes the number of rounds without ever violating validity.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct PullAdversary {
    /// `true` → pull toward `U[t-1]`; `false` → toward `µ[t-1]`.
    pub toward_max: bool,
    /// This round's lie: the chosen end of the honest hull.
    lie: f64,
}

impl PullAdversary {
    /// Creates the adversary; `toward_max` picks the hull end it reports.
    pub fn new(toward_max: bool) -> Self {
        PullAdversary {
            toward_max,
            lie: 0.0,
        }
    }
}

impl Adversary for PullAdversary {
    fn fill(&mut self, view: &AdversaryView<'_>, _: RoundSlots<'_>) -> Option<&dyn EdgeFill> {
        let (lo, hi) = view.honest_hull();
        self.lie = if self.toward_max { hi } else { lo };
        Some(self)
    }

    fn batch_plan(&self) -> Option<BatchPlan> {
        Some(BatchPlan::Pull {
            toward_max: self.toward_max,
        })
    }

    fn name(&self) -> &'static str {
        "pull"
    }
}

impl EdgeFill for PullAdversary {
    fn message(&self, _: &AdversaryView<'_>, _: PlannedEdge) -> PlannedMessage {
        PlannedMessage::Value(self.lie)
    }
}

/// Failure injection: sends NaN and infinities. The engine must sanitize
/// these before they reach an update rule (rules reject non-finite input).
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct NaNAdversary;

impl NaNAdversary {
    /// Creates the adversary.
    pub fn new() -> Self {
        NaNAdversary
    }
}

impl Adversary for NaNAdversary {
    fn fill(&mut self, _: &AdversaryView<'_>, _: RoundSlots<'_>) -> Option<&dyn EdgeFill> {
        Some(self)
    }

    fn name(&self) -> &'static str {
        "nan-bomb"
    }
}

impl EdgeFill for NaNAdversary {
    fn message(&self, view: &AdversaryView<'_>, edge: PlannedEdge) -> PlannedMessage {
        PlannedMessage::Value(match (view.round + edge.receiver as usize) % 3 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        })
    }
}

/// The adversary from the **proof of Theorem 1**: given a violating
/// partition, send `m⁻` to `L`, `M⁺` to `R`, and `(m + M)/2` to `C`.
/// On a graph that violates the condition (and with `L` holding input `m`,
/// `R` holding `M`), this freezes the partition: `L` stays at `m`, `R` at
/// `M`, forever (experiment E1).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SplitBrainAdversary {
    left: NodeSet,
    right: NodeSet,
    m_minus: f64,
    m_plus: f64,
    mid: f64,
}

impl SplitBrainAdversary {
    /// Builds the proof adversary from a witness and the planted input
    /// values `m < M` (`margin > 0` controls how far outside `[m, M]` the
    /// poisoned values lie).
    ///
    /// # Panics
    ///
    /// Panics unless `m < M` and `margin > 0`.
    pub fn from_witness(witness: &Witness, m: f64, m_cap: f64, margin: f64) -> Self {
        assert!(m < m_cap, "need m < M, got {m} >= {m_cap}");
        assert!(margin > 0.0, "margin must be positive");
        SplitBrainAdversary {
            left: witness.left.clone(),
            right: witness.right.clone(),
            m_minus: m - margin,
            m_plus: m_cap + margin,
            mid: (m + m_cap) / 2.0,
        }
    }
}

impl Adversary for SplitBrainAdversary {
    fn fill(&mut self, _: &AdversaryView<'_>, _: RoundSlots<'_>) -> Option<&dyn EdgeFill> {
        Some(self)
    }

    fn name(&self) -> &'static str {
        "split-brain"
    }
}

impl EdgeFill for SplitBrainAdversary {
    fn message(&self, _: &AdversaryView<'_>, edge: PlannedEdge) -> PlannedMessage {
        let receiver = edge.receiver_id();
        PlannedMessage::Value(if self.left.contains(receiver) {
            self.m_minus
        } else if self.right.contains(receiver) {
            self.m_plus
        } else {
            self.mid
        })
    }
}

/// Failure injection: faulty nodes crash-stop — they omit every message
/// from `from_round` onward (and send their true state before that).
/// Exercises the engine's missing-message substitution path. Under
/// execution models that do not honour omission (the delay-bounded
/// engine) the node keeps transmitting its true state, exactly as the
/// per-edge protocol behaved.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct CrashAdversary {
    /// First round at which the crash takes effect.
    pub from_round: usize,
    /// Whether this round's messages are omitted.
    crashed: bool,
}

impl CrashAdversary {
    /// Creates the adversary; the crash takes effect at `from_round`.
    pub fn new(from_round: usize) -> Self {
        CrashAdversary {
            from_round,
            crashed: false,
        }
    }
}

impl Adversary for CrashAdversary {
    fn fill(&mut self, view: &AdversaryView<'_>, slots: RoundSlots<'_>) -> Option<&dyn EdgeFill> {
        self.crashed = slots.allows_omission() && view.round >= self.from_round;
        Some(self)
    }

    fn name(&self) -> &'static str {
        "crash"
    }
}

impl EdgeFill for CrashAdversary {
    fn message(&self, view: &AdversaryView<'_>, edge: PlannedEdge) -> PlannedMessage {
        if self.crashed {
            PlannedMessage::Omit
        } else {
            PlannedMessage::Value(view.states[edge.sender as usize])
        }
    }
}

/// Faulty nodes omit messages to a fixed subset of receivers every round
/// while lying to the rest — mixes omission and commission failures.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SelectiveOmissionAdversary {
    /// Receivers that never hear from the faulty nodes.
    pub silenced: NodeSet,
    /// The lie told to everyone else.
    pub value: f64,
    /// Whether this round's engine honours omissions.
    omissions: bool,
}

impl SelectiveOmissionAdversary {
    /// Creates the adversary: `silenced` receivers hear nothing, everyone
    /// else hears `value`.
    pub fn new(silenced: NodeSet, value: f64) -> Self {
        SelectiveOmissionAdversary {
            silenced,
            value,
            omissions: false,
        }
    }
}

impl Adversary for SelectiveOmissionAdversary {
    fn fill(&mut self, _: &AdversaryView<'_>, slots: RoundSlots<'_>) -> Option<&dyn EdgeFill> {
        self.omissions = slots.allows_omission();
        Some(self)
    }

    fn name(&self) -> &'static str {
        "selective-omission"
    }
}

impl EdgeFill for SelectiveOmissionAdversary {
    fn message(&self, _: &AdversaryView<'_>, edge: PlannedEdge) -> PlannedMessage {
        if self.omissions && self.silenced.contains(edge.receiver_id()) {
            PlannedMessage::Omit
        } else {
            PlannedMessage::Value(self.value)
        }
    }
}

/// Restricts any inner adversary to the **broadcast model** of refs.\ \[16\]/\[17\]
/// (Sundaram–Hadjicostis, LeBlanc et al.): a faulty node may lie, but must
/// send the *same* value to all its out-neighbours in a round. The wrapper
/// plans one inner message per faulty sender (against the first edge the
/// engine names for that sender, matching the pre-two-phase first-query
/// semantics) and replays it on every edge of that sender — mechanically
/// removing the point-to-point "split-brain" power this paper's model
/// grants.
#[derive(Debug)]
#[non_exhaustive]
pub struct BroadcastOf<A> {
    inner: A,
    /// Scratch: the first edge named per sender, in slot order.
    firsts: Vec<PlannedEdge>,
    /// Scratch: the inner adversary's per-sender sub-plan.
    sub_plan: RoundPlan,
    /// Scratch: sender id → sub-plan slot (`u32::MAX` = unseen).
    first_slot_of: Vec<u32>,
}

impl<A: Adversary> BroadcastOf<A> {
    /// Wraps `inner`, forcing broadcast consistency.
    pub fn new(inner: A) -> Self {
        BroadcastOf {
            inner,
            firsts: Vec::new(),
            sub_plan: RoundPlan::new(),
            first_slot_of: Vec::new(),
        }
    }
}

impl<A: Adversary> Adversary for BroadcastOf<A> {
    fn plan_round(
        &mut self,
        view: &AdversaryView<'_>,
        slots: RoundSlots<'_>,
        plan: &mut RoundPlan,
    ) {
        let n = view.graph.node_count();
        self.first_slot_of.clear();
        self.first_slot_of.resize(n, u32::MAX);
        self.firsts.clear();
        for edge in slots.iter() {
            if self.first_slot_of[edge.sender as usize] == u32::MAX {
                self.first_slot_of[edge.sender as usize] = self.firsts.len() as u32;
                self.firsts.push(PlannedEdge {
                    slot: self.firsts.len() as u32,
                    sender: edge.sender,
                    receiver: edge.receiver,
                });
            }
        }
        // The inner adversary plans once per sender. Omission is disabled
        // for the sub-plan, so every edge carries its sender's planned
        // value.
        self.sub_plan.begin(self.firsts.len());
        self.inner.plan_round(
            view,
            RoundSlots::new(&self.firsts, false),
            &mut self.sub_plan,
        );
        for edge in slots.iter() {
            let sub_slot = self.first_slot_of[edge.sender as usize];
            if let PlannedMessage::Value(v) = self.sub_plan.get(sub_slot) {
                plan.set_value(edge.slot, v);
            }
        }
    }

    fn name(&self) -> &'static str {
        "broadcast"
    }
}

/// Alternates whole-hull extremes by round parity: every receiver gets
/// `U[t-1] + delta` on even rounds and `µ[t-1] − delta` on odd rounds.
///
/// Probes for hidden time-dependence in rules (the paper's output
/// constraint forbids rules from keying on `t`, so oscillating inputs must
/// not resonate) and exercises the trimming on alternating tails.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct FlipFlopAdversary {
    /// How far beyond the honest hull to aim.
    pub delta: f64,
    /// This round's lie.
    lie: f64,
}

impl FlipFlopAdversary {
    /// Creates the adversary aiming `delta` beyond the honest hull.
    pub fn new(delta: f64) -> Self {
        FlipFlopAdversary { delta, lie: 0.0 }
    }
}

impl Adversary for FlipFlopAdversary {
    fn fill(&mut self, view: &AdversaryView<'_>, _: RoundSlots<'_>) -> Option<&dyn EdgeFill> {
        let (lo, hi) = view.honest_hull();
        self.lie = if view.round.is_multiple_of(2) {
            hi + self.delta
        } else {
            lo - self.delta
        };
        Some(self)
    }

    fn name(&self) -> &'static str {
        "flip-flop"
    }
}

impl EdgeFill for FlipFlopAdversary {
    fn message(&self, _: &AdversaryView<'_>, _: PlannedEdge) -> PlannedMessage {
        PlannedMessage::Value(self.lie)
    }
}

/// The strongest *stealthy* anti-convergence strategy in this roster:
/// per-receiver, in-hull polarization. Receivers whose state sits above the
/// honest midpoint are told `U[t-1]`; the rest are told `µ[t-1]`.
///
/// Every lie lies inside the honest hull — trimming cannot reliably remove
/// it and validity is never violated — yet each lie pushes its receiver
/// *away* from the centre, maximally delaying contraction. Compare with
/// [`PullAdversary`] (one-sided, merely biases the limit) and
/// [`ExtremesAdversary`] (out-of-hull, removed by trimming).
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct PolarizingAdversary {
    /// This round's honest hull `(µ[t-1], U[t-1])` and its midpoint.
    lo: f64,
    hi: f64,
    mid: f64,
}

impl PolarizingAdversary {
    /// Creates the adversary.
    pub fn new() -> Self {
        PolarizingAdversary::default()
    }
}

impl Adversary for PolarizingAdversary {
    fn fill(&mut self, view: &AdversaryView<'_>, _: RoundSlots<'_>) -> Option<&dyn EdgeFill> {
        (self.lo, self.hi) = view.honest_hull();
        self.mid = (self.hi + self.lo) / 2.0;
        Some(self)
    }

    fn name(&self) -> &'static str {
        "polarizing"
    }
}

impl EdgeFill for PolarizingAdversary {
    fn message(&self, view: &AdversaryView<'_>, edge: PlannedEdge) -> PlannedMessage {
        PlannedMessage::Value(if view.states[edge.receiver as usize] >= self.mid {
            self.hi
        } else {
            self.lo
        })
    }
}

/// Echoes every receiver's own previous state back at it — the pure *stall*
/// attack. Indistinguishable (to the receiver) from a very agreeable honest
/// neighbour, it contributes zero new information and anchors each receiver
/// where it already is.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct EchoAdversary;

impl EchoAdversary {
    /// Creates the adversary.
    pub fn new() -> Self {
        EchoAdversary
    }
}

impl Adversary for EchoAdversary {
    fn fill(&mut self, _: &AdversaryView<'_>, _: RoundSlots<'_>) -> Option<&dyn EdgeFill> {
        Some(self)
    }

    fn name(&self) -> &'static str {
        "echo"
    }
}

impl EdgeFill for EchoAdversary {
    fn message(&self, view: &AdversaryView<'_>, edge: PlannedEdge) -> PlannedMessage {
        PlannedMessage::Value(view.states[edge.receiver as usize])
    }
}

/// The standard roster used by validity sweeps (E2): one of each family,
/// deterministic seeds.
pub fn standard_roster(value_range: (f64, f64)) -> Vec<Box<dyn Adversary>> {
    let (lo, hi) = value_range;
    vec![
        Box::new(ConformingAdversary::new()),
        Box::new(ConstantAdversary::new(hi + 100.0)),
        Box::new(RandomAdversary::new(lo - 50.0, hi + 50.0, 0xDECAF)),
        Box::new(ExtremesAdversary::new(10.0)),
        Box::new(PullAdversary::new(false)),
        Box::new(PullAdversary::new(true)),
        Box::new(NaNAdversary::new()),
        Box::new(CrashAdversary::new(3)),
        Box::new(BroadcastOf::new(ExtremesAdversary::new(25.0))),
        Box::new(FlipFlopAdversary::new(10.0)),
        Box::new(PolarizingAdversary::new()),
        Box::new(EchoAdversary::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::faulty_edges_of;
    use iabc_graph::generators;

    fn view_fixture<'a>(
        graph: &'a Digraph,
        states: &'a [f64],
        fault_set: &'a NodeSet,
    ) -> AdversaryView<'a> {
        AdversaryView {
            round: 1,
            graph,
            states,
            fault_set,
        }
    }

    /// `plan_one` with omissions enabled — the shape most tests want.
    fn ask(adv: &mut dyn Adversary, view: &AdversaryView<'_>, s: usize, r: usize) -> Option<f64> {
        plan_one(adv, view, NodeId::new(s), NodeId::new(r), true)
    }

    #[test]
    fn view_honest_extremes_skip_faulty_nodes() {
        let g = generators::complete(4);
        let states = [0.0, 10.0, -99.0, 99.0];
        let faults = NodeSet::from_indices(4, [2, 3]);
        let view = view_fixture(&g, &states, &faults);
        assert_eq!(view.honest_max(), 10.0);
        assert_eq!(view.honest_min(), 0.0);
        assert_eq!(view.honest_hull(), (0.0, 10.0));
    }

    #[test]
    fn conforming_sends_own_state() {
        let g = generators::complete(3);
        let states = [1.0, 2.0, 3.0];
        let faults = NodeSet::from_indices(3, [1]);
        let view = view_fixture(&g, &states, &faults);
        let mut adv = ConformingAdversary::new();
        assert_eq!(ask(&mut adv, &view, 1, 0), Some(2.0));
    }

    #[test]
    fn constant_ignores_everything() {
        let g = generators::complete(3);
        let states = [1.0, 2.0, 3.0];
        let faults = NodeSet::from_indices(3, [0]);
        let view = view_fixture(&g, &states, &faults);
        let mut adv = ConstantAdversary::new(42.0);
        assert_eq!(ask(&mut adv, &view, 0, 2), Some(42.0));
    }

    #[test]
    fn random_respects_bounds_and_is_seeded() {
        let g = generators::complete(3);
        let states = [0.0; 3];
        let faults = NodeSet::from_indices(3, [0]);
        let view = view_fixture(&g, &states, &faults);
        let mut a = RandomAdversary::new(-1.0, 1.0, 7);
        let mut b = RandomAdversary::new(-1.0, 1.0, 7);
        for _ in 0..20 {
            let va = ask(&mut a, &view, 0, 1).unwrap();
            let vb = ask(&mut b, &view, 0, 1).unwrap();
            assert_eq!(va, vb, "same seed, same stream");
            assert!((-1.0..=1.0).contains(&va));
        }
    }

    #[test]
    fn extremes_targets_by_parity() {
        let g = generators::complete(4);
        let states = [0.0, 1.0, 2.0, 3.0];
        let faults = NodeSet::from_indices(4, [3]);
        let view = view_fixture(&g, &states, &faults);
        let mut adv = ExtremesAdversary::new(5.0);
        assert_eq!(ask(&mut adv, &view, 3, 1), Some(7.0)); // U + 5
        assert_eq!(ask(&mut adv, &view, 3, 0), Some(-5.0)); // mu - 5
    }

    #[test]
    fn pull_stays_inside_hull() {
        let g = generators::complete(4);
        let states = [0.0, 1.0, 2.0, 9.0];
        let faults = NodeSet::from_indices(4, [3]);
        let view = view_fixture(&g, &states, &faults);
        let mut lo = PullAdversary::new(false);
        let mut hi = PullAdversary::new(true);
        assert_eq!(ask(&mut lo, &view, 3, 0), Some(0.0));
        assert_eq!(ask(&mut hi, &view, 3, 0), Some(2.0));
    }

    #[test]
    fn nan_bomb_cycles_through_non_finite_values() {
        let g = generators::complete(3);
        let states = [0.0; 3];
        let faults = NodeSet::from_indices(3, [0]);
        let view = view_fixture(&g, &states, &faults);
        let mut adv = NaNAdversary::new();
        let vals: Vec<f64> = (0..3)
            .map(|r| ask(&mut adv, &view, 0, r).unwrap())
            .collect();
        assert!(vals.iter().any(|v| v.is_nan()));
        assert!(vals.contains(&f64::INFINITY));
        assert!(vals.contains(&f64::NEG_INFINITY));
    }

    #[test]
    fn split_brain_routes_by_witness_part() {
        let g = generators::chord(7, 5);
        let w = iabc_core::theorem1::find_violation(&g, 2).expect("chord f=2 violated");
        let mut adv = SplitBrainAdversary::from_witness(&w, 0.0, 1.0, 0.5);
        let states = [0.0; 7];
        let faults = w.fault_set.clone();
        let view = view_fixture(&g, &states, &faults);
        let sender = w.fault_set.first().unwrap();
        for l in w.left.iter() {
            assert_eq!(plan_one(&mut adv, &view, sender, l, true), Some(-0.5));
        }
        for r in w.right.iter() {
            assert_eq!(plan_one(&mut adv, &view, sender, r, true), Some(1.5));
        }
        for c in w.center.iter() {
            assert_eq!(plan_one(&mut adv, &view, sender, c, true), Some(0.5));
        }
    }

    #[test]
    #[should_panic(expected = "need m < M")]
    fn split_brain_rejects_inverted_range() {
        let g = generators::chord(7, 5);
        let w = iabc_core::theorem1::find_violation(&g, 2).unwrap();
        let _ = SplitBrainAdversary::from_witness(&w, 1.0, 0.0, 0.1);
    }

    #[test]
    fn standard_roster_is_nonempty_and_named() {
        let roster = standard_roster((0.0, 1.0));
        assert!(roster.len() >= 5);
        let names: Vec<_> = roster.iter().map(|a| a.name()).collect();
        assert!(names.contains(&"conforming"));
        assert!(names.contains(&"nan-bomb"));
        assert!(names.contains(&"crash"));
        assert!(names.contains(&"broadcast"));
    }

    #[test]
    fn default_adversaries_never_omit() {
        let g = generators::complete(3);
        let states = [0.0; 3];
        let faults = NodeSet::from_indices(3, [0]);
        let view = view_fixture(&g, &states, &faults);
        let mut adv = ConstantAdversary::new(1.0);
        assert_eq!(ask(&mut adv, &view, 0, 1), Some(1.0));
    }

    #[test]
    fn crash_omits_from_configured_round() {
        let g = generators::complete(3);
        let states = [1.0, 2.0, 3.0];
        let faults = NodeSet::from_indices(3, [0]);
        let mut adv = CrashAdversary::new(2);
        let early = AdversaryView {
            round: 1,
            graph: &g,
            states: &states,
            fault_set: &faults,
        };
        assert_eq!(ask(&mut adv, &early, 0, 1), Some(1.0));
        let late = AdversaryView {
            round: 2,
            graph: &g,
            states: &states,
            fault_set: &faults,
        };
        assert_eq!(ask(&mut adv, &late, 0, 1), None, "crashed => omitted");
        // Under a model that does not honour omission the node keeps
        // transmitting its true state.
        assert_eq!(
            plan_one(&mut adv, &late, NodeId::new(0), NodeId::new(1), false),
            Some(1.0)
        );
    }

    #[test]
    fn selective_omission_targets_receivers() {
        let g = generators::complete(4);
        let states = [0.0; 4];
        let faults = NodeSet::from_indices(4, [0]);
        let view = view_fixture(&g, &states, &faults);
        let mut adv = SelectiveOmissionAdversary::new(NodeSet::from_indices(4, [1]), 9.0);
        assert_eq!(ask(&mut adv, &view, 0, 1), None);
        assert_eq!(ask(&mut adv, &view, 0, 2), Some(9.0));
    }

    #[test]
    fn broadcast_wrapper_forces_identical_lies() {
        let g = generators::complete(4);
        let states = [0.0, 1.0, 2.0, 3.0];
        let faults = NodeSet::from_indices(4, [3]);
        let view = view_fixture(&g, &states, &faults);
        // Extremes sends different values by receiver parity; the wrapper
        // must flatten that to one value per sender per round. Plan a whole
        // round at once, as the engines do.
        let mut adv = BroadcastOf::new(ExtremesAdversary::new(5.0));
        let edges = faulty_edges_of(&g, &faults);
        assert_eq!(edges.len(), 3);
        let mut plan = RoundPlan::new();
        plan.begin(edges.len());
        adv.plan_round(&view, RoundSlots::new(&edges, true), &mut plan);
        let values: Vec<f64> = (0..3)
            .map(|s| match plan.get(s) {
                PlannedMessage::Value(v) => v,
                PlannedMessage::Omit => panic!("broadcast never omits"),
            })
            .collect();
        assert_eq!(values[0], values[1]);
        assert_eq!(values[0], values[2]);
        // A new round may pick a new value (the plan is per-round).
        let next = AdversaryView {
            round: 2,
            graph: &g,
            states: &states,
            fault_set: &faults,
        };
        plan.begin(edges.len());
        adv.plan_round(&next, RoundSlots::new(&edges, true), &mut plan);
    }

    #[test]
    fn flip_flop_alternates_by_round_parity() {
        let g = generators::complete(3);
        let states = [0.0, 10.0, 5.0];
        let faults = NodeSet::from_indices(3, [2]);
        let mut adv = FlipFlopAdversary::new(1.0);
        let even = AdversaryView {
            round: 2,
            graph: &g,
            states: &states,
            fault_set: &faults,
        };
        assert_eq!(ask(&mut adv, &even, 2, 0), Some(11.0));
        let odd = AdversaryView {
            round: 3,
            graph: &g,
            states: &states,
            fault_set: &faults,
        };
        assert_eq!(ask(&mut adv, &odd, 2, 0), Some(-1.0));
    }

    #[test]
    fn polarizing_pushes_receivers_apart_within_hull() {
        let g = generators::complete(4);
        let states = [0.0, 10.0, 6.0, -7.0];
        let faults = NodeSet::from_indices(4, [3]);
        let view = view_fixture(&g, &states, &faults);
        let mut adv = PolarizingAdversary::new();
        // Honest hull [0, 10], midpoint 5. Node 2 (state 6) is above: gets max.
        assert_eq!(ask(&mut adv, &view, 3, 2), Some(10.0));
        // Node 0 (state 0) is below: gets min. Both lies are in-hull.
        assert_eq!(ask(&mut adv, &view, 3, 0), Some(0.0));
    }

    #[test]
    fn echo_returns_receiver_state() {
        let g = generators::complete(3);
        let states = [4.0, 8.0, 0.0];
        let faults = NodeSet::from_indices(3, [2]);
        let view = view_fixture(&g, &states, &faults);
        let mut adv = EchoAdversary::new();
        assert_eq!(ask(&mut adv, &view, 2, 0), Some(4.0));
        assert_eq!(ask(&mut adv, &view, 2, 1), Some(8.0));
    }

    #[test]
    fn roster_contains_new_families() {
        let roster = standard_roster((0.0, 1.0));
        let names: Vec<&str> = roster.iter().map(|a| a.name()).collect();
        for expected in ["flip-flop", "polarizing", "echo", "split-brain"] {
            if expected == "split-brain" {
                // Split-brain needs a witness; it is constructed per-run, not
                // part of the generic roster.
                assert!(!names.contains(&expected));
            } else {
                assert!(names.contains(&expected), "roster missing {expected}");
            }
        }
    }
}
