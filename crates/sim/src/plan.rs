//! Phase 1 of the two-phase adversary protocol: the per-round message
//! plan.
//!
//! The paper's full-information adversary (§2.2) chooses every faulty
//! node's per-edge message from the complete system state `v[t-1]`. The
//! engines used to ask for those choices one edge at a time, mid-gather —
//! which serialized the node loop (a stateful adversary holds RNG streams
//! and per-round caches behind `&mut self`) and let hull-querying
//! adversaries recompute `U[t-1]`/`µ[t-1]` once per *message*.
//!
//! The two-phase protocol splits the round:
//!
//! 1. **Plan** (once per round): the engine hands the adversary its
//!    [`crate::adversary::AdversaryView`] plus a [`RoundSlots`] listing
//!    every faulty edge it will deliver this round, and a flat
//!    [`RoundPlan`] table is filled — one [`PlannedMessage`] per slot.
//!    All mutation (RNG draws, caches) happens here, serially; a pure
//!    family's per-edge decision
//!    ([`crate::adversary::Adversary::fill`]) is then fanned across the
//!    pool.
//! 2. **Execute** (parallelizable): the node loop reads the finished plan
//!    by index. No trait call, no `&mut`, no allocation per edge.
//!
//! Slot numbering is chosen by each engine. The synchronous kernel
//! ([`crate::SyncEngine`], and through it transcripts, the withholding
//! engine and the vector engine) keys slots on the
//! [`iabc_graph::CompiledTopology`] faulty-edge sub-CSR
//! (`faulty_in_offset(i) + k`). The delay-bounded send loop, the
//! reference stepper and the analysis matrix builder use dense slot lists
//! in their native query order. Every engine names its slots in the
//! pre-refactor one-call-per-edge query order, which keeps every per-edge
//! RNG stream bit-identical to that protocol.

use iabc_exec::{Chunking, Executor};
use iabc_graph::{CompiledTopology, Digraph, NodeId, NodeSet};

use crate::adversary::{Adversary, AdversaryView};

/// One faulty edge an engine will deliver this round, tagged with the
/// plan slot the adversary must fill for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedEdge {
    /// Index into the round's [`RoundPlan`].
    pub slot: u32,
    /// The faulty sender.
    pub sender: u32,
    /// The receiver.
    pub receiver: u32,
}

impl PlannedEdge {
    /// The sender as a typed node id.
    #[inline]
    pub fn sender_id(&self) -> NodeId {
        NodeId::new(self.sender as usize)
    }

    /// The receiver as a typed node id.
    #[inline]
    pub fn receiver_id(&self) -> NodeId {
        NodeId::new(self.receiver as usize)
    }
}

/// The engine's side of phase 1: which faulty edges need planning this
/// round (in the engine's delivery/query order) and whether the execution
/// model honours omissions.
///
/// Engines that model omission (the synchronous family, transcripts)
/// set [`RoundSlots::allows_omission`]; the delay-bounded, withholding
/// and vector engines do not — matching the pre-refactor protocol, where
/// only the synchronous family modelled omission.
#[derive(Debug, Clone, Copy)]
pub struct RoundSlots<'a> {
    edges: &'a [PlannedEdge],
    omissions: bool,
}

impl<'a> RoundSlots<'a> {
    /// Wraps an edge list; `omissions` says whether [`PlannedMessage::Omit`]
    /// entries are meaningful to the engine.
    pub fn new(edges: &'a [PlannedEdge], omissions: bool) -> Self {
        RoundSlots { edges, omissions }
    }

    /// The edges to plan, in the engine's query order.
    pub fn iter(&self) -> impl Iterator<Item = PlannedEdge> + 'a {
        self.edges.iter().copied()
    }

    /// Whether the engine honours [`PlannedMessage::Omit`]. Adversaries
    /// planning omissions should check this and plan a value instead when
    /// it is `false`.
    pub fn allows_omission(&self) -> bool {
        self.omissions
    }

    /// Number of edges to plan.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` when no faulty edge needs planning this round.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// One planned faulty-edge message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlannedMessage {
    /// Deliver this value on the edge.
    Value(f64),
    /// Withhold the message. Engines that model omission substitute the
    /// receiver's own previous state (the synchronous convention that
    /// keeps `|r_i[t]| = |N⁻_i|`); see each engine for its treatment.
    Omit,
}

/// The flat per-round message table filled by
/// [`crate::adversary::Adversary::plan_round`] and read by the engines'
/// node loops. Retained across rounds — `begin` reuses the allocation.
#[derive(Debug, Default)]
pub struct RoundPlan {
    entries: Vec<PlannedMessage>,
}

impl RoundPlan {
    /// An empty plan (engines keep one and `begin` it each round).
    pub fn new() -> Self {
        RoundPlan::default()
    }

    /// Resets the plan to `len` slots, all [`PlannedMessage::Omit`].
    /// Slots an engine never reads (e.g. sub-CSR rows of faulty
    /// receivers) may simply stay unfilled.
    pub fn begin(&mut self, len: usize) {
        self.entries.clear();
        self.entries.resize(len, PlannedMessage::Omit);
    }

    /// Plans a delivered value for `slot`.
    #[inline]
    pub fn set_value(&mut self, slot: u32, value: f64) {
        self.entries[slot as usize] = PlannedMessage::Value(value);
    }

    /// Plans an omission for `slot`.
    #[inline]
    pub fn set_omit(&mut self, slot: u32) {
        self.entries[slot as usize] = PlannedMessage::Omit;
    }

    /// Reads the planned message for `slot`.
    #[inline]
    pub fn get(&self, slot: u32) -> PlannedMessage {
        self.entries[slot as usize]
    }

    /// The raw slot table, for a pure family's fill: [`fill_plan`] chunks
    /// it across the worker pool, each slot written exactly once.
    pub(crate) fn entries_mut(&mut self) -> &mut [PlannedMessage] {
        &mut self.entries
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the plan holds no slots.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Enumerates the faulty edges delivered to **fault-free** receivers of
/// `graph` — honest receivers in ascending id order, each receiver's
/// faulty in-neighbours in ascending id order, slots numbered densely in
/// that order. This is exactly the query order of the pre-refactor
/// per-edge protocol, so filling a plan over these slots preserves every
/// adversary RNG stream bit for bit.
///
/// Used by the consumers that plan straight from a [`Digraph`] (the
/// reference stepper, the analysis matrix builder); the kernel derives
/// the same edges, in the same order, from the
/// [`iabc_graph::CompiledTopology`] sub-CSR instead.
pub fn faulty_edges_of(graph: &Digraph, fault_set: &NodeSet) -> Vec<PlannedEdge> {
    let mut edges = Vec::new();
    for i in graph.nodes() {
        if fault_set.contains(i) {
            continue;
        }
        for j in graph.in_neighbors(i).iter() {
            if fault_set.contains(j) {
                edges.push(PlannedEdge {
                    slot: edges.len() as u32,
                    sender: j.index() as u32,
                    receiver: i.index() as u32,
                });
            }
        }
    }
    edges
}

/// Rebuilds `edges` as the faulty edges of **fault-free** receivers,
/// receiver-major, with each edge's slot set to its **global sub-CSR
/// index** (`faulty_in_offset(receiver) + k`). The compiled engines plan
/// over these slots so the node loop's per-edge lookup is pure index
/// arithmetic; rows of faulty receivers are left as unread holes in the
/// plan (sized [`CompiledTopology::faulty_edge_count`]).
pub(crate) fn sub_csr_edges(compiled: &CompiledTopology, edges: &mut Vec<PlannedEdge>) {
    edges.clear();
    for i in 0..compiled.node_count() {
        if compiled.is_faulty(i) {
            continue;
        }
        let base = compiled.faulty_in_offset(i);
        for (k, &(_slot, sender)) in compiled.faulty_in_edges_of(i).iter().enumerate() {
            edges.push(PlannedEdge {
                slot: (base + k) as u32,
                sender,
                receiver: i as u32,
            });
        }
    }
}

/// Sentinel marking a plan slot no engine will read this round (e.g. the
/// sub-CSR rows of faulty receivers): the dense slot table stores it as
/// `receiver == NO_EDGE`.
pub(crate) const NO_EDGE: u32 = u32::MAX;

/// Chunk floor for a pure family's pooled fill: one slot is a handful of
/// flops, so chunks must be much larger than the per-node
/// [`iabc_exec::MIN_CHUNK`] before queue traffic stops dominating.
const PLAN_MIN_CHUNK: usize = 128;

/// Rebuilds `dense` as the slot-indexed edge table of a plan with `len`
/// slots: `dense[slot]` is the [`PlannedEdge`] planned at `slot`, or a
/// [`NO_EDGE`] hole for slots the engine never reads. A pure family's
/// fill chunks the plan's slot table directly, so it needs this O(1)
/// slot → edge inverse of the engine's (possibly sparse) edge list.
pub(crate) fn dense_slot_table(len: usize, edges: &[PlannedEdge], dense: &mut Vec<PlannedEdge>) {
    dense.clear();
    dense.resize(
        len,
        PlannedEdge {
            slot: 0,
            sender: NO_EDGE,
            receiver: NO_EDGE,
        },
    );
    for edge in edges {
        dense[edge.slot as usize] = *edge;
    }
}

/// Phase 1, shared by every pooled engine: resets `plan` and fills it.
/// A pure family's [`crate::adversary::Adversary::fill`] decision is
/// fanned across `exec` (inline at one worker) over `slot_edges`, the
/// dense slot-indexed table; a stateful family plans serially through
/// [`crate::adversary::Adversary::plan_round`] over `edges`, the engine's
/// query-order slot list. `allows_omission` is the engine's omission
/// flag. Holes stay [`PlannedMessage::Omit`] either way.
pub(crate) fn fill_plan(
    adversary: &mut dyn Adversary,
    view: &AdversaryView<'_>,
    edges: &[PlannedEdge],
    slot_edges: &[PlannedEdge],
    allows_omission: bool,
    plan: &mut RoundPlan,
    exec: &Executor,
) {
    plan.begin(slot_edges.len());
    let slots = RoundSlots::new(edges, allows_omission);
    match adversary.fill(view, slots) {
        Some(fill) => exec.for_each(
            plan.entries_mut(),
            Chunking::Auto(PLAN_MIN_CHUNK),
            |slot, out| {
                let edge = slot_edges[slot];
                if edge.receiver != NO_EDGE {
                    *out = fill.message(view, edge);
                }
            },
        ),
        None => adversary.plan_round(view, slots, plan),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_graph::generators;

    #[test]
    fn plan_begin_resets_to_omit_and_reuses() {
        let mut plan = RoundPlan::new();
        assert!(plan.is_empty());
        plan.begin(3);
        assert_eq!(plan.len(), 3);
        plan.set_value(1, 7.5);
        assert_eq!(plan.get(0), PlannedMessage::Omit);
        assert_eq!(plan.get(1), PlannedMessage::Value(7.5));
        plan.begin(2);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.get(1), PlannedMessage::Omit, "begin must reset");
        plan.set_omit(0);
        assert_eq!(plan.get(0), PlannedMessage::Omit);
    }

    #[test]
    fn slots_expose_order_and_omission_flag() {
        let edges = [
            PlannedEdge {
                slot: 0,
                sender: 5,
                receiver: 0,
            },
            PlannedEdge {
                slot: 1,
                sender: 5,
                receiver: 1,
            },
        ];
        let slots = RoundSlots::new(&edges, true);
        assert!(slots.allows_omission());
        assert_eq!(slots.len(), 2);
        assert!(!slots.is_empty());
        let collected: Vec<u32> = slots.iter().map(|e| e.receiver).collect();
        assert_eq!(collected, [0, 1]);
        assert_eq!(edges[0].sender_id(), NodeId::new(5));
        assert_eq!(edges[1].receiver_id(), NodeId::new(1));
        assert!(!RoundSlots::new(&[], false).allows_omission());
        assert!(RoundSlots::new(&[], false).is_empty());
    }

    #[test]
    fn sub_csr_edges_match_graph_enumeration() {
        let g = generators::chord(7, 5);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let compiled = CompiledTopology::compile(&g, &faults);
        let mut edges = Vec::new();
        sub_csr_edges(&compiled, &mut edges);
        let dense = faulty_edges_of(&g, &faults);
        assert_eq!(edges.len(), dense.len());
        for (a, b) in edges.iter().zip(&dense) {
            assert_eq!((a.sender, a.receiver), (b.sender, b.receiver));
            // The sub-CSR slot addresses the same edge inside the row.
            let base = compiled.faulty_in_offset(a.receiver as usize);
            let k = a.slot as usize - base;
            assert_eq!(
                compiled.faulty_in_edges_of(a.receiver as usize)[k].1,
                a.sender
            );
        }
    }

    #[test]
    fn faulty_edges_enumerate_receiver_major_honest_only() {
        let g = generators::complete(4);
        let faults = NodeSet::from_indices(4, [3]);
        let edges = faulty_edges_of(&g, &faults);
        // Honest receivers 0, 1, 2 each hear from faulty node 3.
        assert_eq!(edges.len(), 3);
        for (k, e) in edges.iter().enumerate() {
            assert_eq!(e.slot, k as u32);
            assert_eq!(e.sender, 3);
            assert_eq!(e.receiver, k as u32);
        }
    }
}
