//! Per-node mailboxes for the multiplexed deployment tier.
//!
//! The threaded runtime allocates one crossbeam channel per directed edge;
//! at a million nodes that is millions of channels and as many OS threads
//! blocking on them. The multiplexed tier replaces all of that with one
//! flat [`Mailboxes`] structure indexed by the CSR in-edge slot of
//! [`CompiledTopology`] — no per-edge allocation, no locks, memory
//! proportional to edges, not threads.
//!
//! # Lanes
//!
//! Each edge buffers up to `window` undelivered rounds, one per *lane*:
//! round `r` uses lane `r % window`. The arrays are lane-major — cell
//! `(lane, slot)` lives at `lane * edges + slot` — so one round's messages
//! share one lane, and node `i`'s round-`t` inbox is one contiguous slice
//! of lane `t % window` starting at `topology.in_offset(i)`.
//!
//! # Tags, the consumed-round watermark, and readiness
//!
//! Every cell carries the round tag of the last message deposited into it
//! (`0` = never; protocol rounds are 1-based), and every node carries a
//! watermark: the last round it consumed. Nodes consume their rounds in
//! order, so a cell is occupied exactly when its tag is above its
//! receiver's watermark. Tags are never cleared: consuming a round only
//! raises the watermark, which returns the lane's credit to every sender
//! at once.
//!
//! There is no arrival counter. Node `i`'s round-`t` inbox is complete
//! when every one of its cells in lane `t % window` holds tag `t`
//! ([`Mailboxes::complete`]); the scheduler's readiness scan reads exactly
//! that. A per-receiver counter would be the one location every sender of
//! that receiver writes; without it, each cell has exactly one sender, and
//! two senders' deposits never write the same location.
//!
//! A deposit into an occupied cell — a sender running `window` rounds
//! ahead of its receiver, or a second copy of a round the receiver has not
//! consumed — is rejected as [`RuntimeError::MailboxOverflow`]. This is the
//! credit-based flow-control contract a remote transport must honour: at
//! most `window` outstanding rounds per edge. The in-process
//! [`LocalTransport`](crate::LocalTransport) runs all nodes in lockstep and
//! can never trip it; the default window of 2 still leaves headroom for the
//! send-before-consume ordering inside a tick.
//!
//! # Concurrent deposits
//!
//! Tags and values are relaxed atomics, so [`Mailboxes::deposit`] takes
//! `&self` and senders may deposit from any number of threads at once (on
//! x86-64 a relaxed load or store is a plain `mov`). Relaxed ordering is
//! enough: the scheduler reads a lane only after the send dispatch has
//! joined, and that join orders every deposit before the read.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};

use iabc_graph::CompiledTopology;

use crate::error::RuntimeError;

/// Default number of in-flight rounds each edge can buffer.
pub const DEFAULT_WINDOW: u32 = 2;

/// Fixed-capacity per-edge message buffers, their round tags, and
/// per-node consumed-round watermarks.
///
/// Layout: cell `(slot, round)` lives at `lane * edges + slot`, with
/// `lane = round % window`. A receiver's round is complete when all of its
/// cells on that round's lane carry the round's tag.
#[derive(Debug)]
pub struct Mailboxes {
    window: u32,
    /// One value per (lane, edge), as `f64` bits.
    values: Box<[AtomicU64]>,
    /// Round tag per (lane, edge): the last round deposited there, 0 = none.
    tags: Box<[AtomicU32]>,
    /// Last round each node consumed (0 before its first).
    consumed: Vec<u32>,
    /// Receiver of each edge slot (inverse of the CSR row structure).
    owner: Vec<u32>,
}

impl Mailboxes {
    /// Builds empty mailboxes for every in-edge of `topology`.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(topology: &CompiledTopology, window: u32) -> Self {
        assert!(window >= 1, "mailbox window must be at least 1");
        let n = topology.node_count();
        let edges = topology.edge_count();
        let w = window as usize;
        let mut owner = vec![0u32; edges];
        for i in 0..n {
            let base = topology.in_offset(i);
            for k in 0..topology.in_degree(i) {
                owner[base + k] = i as u32;
            }
        }
        // Zeroed allocations, like `vec![0; len]`: the pages are faulted in
        // by the first deposits, not here.
        // SAFETY: all-zero bytes are a valid `AtomicU64` and `AtomicU32`.
        let (values, tags) = unsafe {
            (
                Box::new_zeroed_slice(edges * w).assume_init(),
                Box::new_zeroed_slice(edges * w).assume_init(),
            )
        };
        Mailboxes {
            window,
            values,
            tags,
            consumed: vec![0; n],
            owner,
        }
    }

    /// Number of in-flight rounds each edge can buffer.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// The first cell of the lane `round` uses.
    #[inline]
    fn lane_base(&self, round: u32) -> usize {
        (round % self.window) as usize * self.owner.len()
    }

    /// Deposits one sender's round-`round` messages, one `(slot, value)`
    /// pair per out-edge. Pairs are deposited in order. Safe to call from
    /// many threads at once, one sender's row per call.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::MailboxOverflow`] at the first pair whose cell still
    /// holds a round its receiver has not consumed — the sender has outrun
    /// the `window`-round credit the receiver extended, or the round was
    /// delivered twice. The pairs before it stay deposited.
    #[inline]
    pub fn deposit(&self, round: u32, row: &[(u32, f64)]) -> Result<(), RuntimeError> {
        let lane = self.lane_base(round);
        let tags = &self.tags[lane..];
        let values = &self.values[lane..];
        for &(slot, value) in row {
            let slot = slot as usize;
            let tag = &tags[slot];
            if tag.load(Relaxed) > self.consumed[self.owner[slot] as usize] {
                return Err(RuntimeError::MailboxOverflow {
                    slot,
                    round: round as usize,
                });
            }
            tag.store(round, Relaxed);
            values[slot].store(value.to_bits(), Relaxed);
        }
        Ok(())
    }

    /// Whether every in-edge among `slots` holds its round-`round`
    /// message: for one receiver's slot range, whether its round-`round`
    /// inbox is complete.
    #[inline]
    pub fn complete(&self, slots: Range<usize>, round: u32) -> bool {
        let lane = self.lane_base(round);
        self.tags[lane + slots.start..lane + slots.end]
            .iter()
            .all(|tag| tag.load(Relaxed) == round)
    }

    /// The last round node `i` has consumed (`0` before its first): its
    /// cells tagged at or below it are free.
    #[inline]
    pub(crate) fn consumed(&self, i: usize) -> u32 {
        self.consumed[i]
    }

    /// The consumed-round watermarks of `nodes`.
    #[inline]
    pub(crate) fn watermarks(&self, nodes: Range<usize>) -> &[u32] {
        &self.consumed[nodes]
    }

    /// The receiver of edge `slot`.
    #[inline]
    pub(crate) fn receiver(&self, slot: u32) -> usize {
        self.owner[slot as usize] as usize
    }

    /// The round-`round` value sitting in edge `slot`.
    ///
    /// Only meaningful once the cell holds round `round`; the debug
    /// assertion catches scheduler bugs that read a lane before it is full
    /// (or after it was recycled).
    pub fn value(&self, slot: usize, round: u32) -> f64 {
        let cell = self.lane_base(round) + slot;
        let tag = self.tags[cell].load(Relaxed);
        debug_assert_eq!(
            tag, round,
            "mailbox slot {slot} read for round {round} but holds round {tag}"
        );
        f64::from_bits(self.values[cell].load(Relaxed))
    }

    /// The round-`round` values of the in-edges `slots`: one receiver's
    /// inbox, in CSR slot order. Carries [`value`](Self::value)'s debug
    /// check for every cell.
    #[inline]
    pub(crate) fn inbox(
        &self,
        slots: Range<usize>,
        round: u32,
    ) -> impl ExactSizeIterator<Item = f64> + '_ {
        debug_assert!(
            self.complete(slots.clone(), round),
            "inbox {slots:?} read for round {round} before it is full"
        );
        let lane = self.lane_base(round);
        self.values[lane + slots.start..lane + slots.end]
            .iter()
            .map(|value| f64::from_bits(value.load(Relaxed)))
    }

    /// The in-edges among `slots` whose round-`round` message has not
    /// arrived: their lane cell holds another round.
    pub(crate) fn missing(&self, slots: Range<usize>, round: u32) -> Vec<usize> {
        let lane = self.lane_base(round);
        slots
            .filter(|&s| self.tags[lane + s].load(Relaxed) != round)
            .collect()
    }

    /// Marks node `i`'s round-`round` lane consumed: raises its watermark
    /// to `round`, returning the lane's credits to the senders. Rounds
    /// must be consumed in order.
    #[inline]
    pub(crate) fn clear_round(&mut self, i: usize, round: u32) {
        debug_assert_eq!(
            round,
            self.consumed[i] + 1,
            "node {i} consumed out of order"
        );
        self.consumed[i] = round;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_graph::{generators, NodeSet};

    fn topo() -> CompiledTopology {
        // cycle(4): each node has exactly one in-edge from its predecessor.
        CompiledTopology::compile(&generators::cycle(4), &NodeSet::with_universe(4))
    }

    /// Node `i`'s in-edge slots.
    fn slots(t: &CompiledTopology, i: usize) -> Range<usize> {
        t.in_offset(i)..t.in_offset(i) + t.in_degree(i)
    }

    /// The values of lane `lane`, in slot order.
    fn lane_values(mb: &Mailboxes, lane: usize) -> Vec<f64> {
        let edges = mb.owner.len();
        mb.values[lane * edges..(lane + 1) * edges]
            .iter()
            .map(|v| f64::from_bits(v.load(Relaxed)))
            .collect()
    }

    /// The tags of lane `lane`, in slot order.
    fn lane_tags(mb: &Mailboxes, lane: usize) -> Vec<u32> {
        let edges = mb.owner.len();
        mb.tags[lane * edges..(lane + 1) * edges]
            .iter()
            .map(|t| t.load(Relaxed))
            .collect()
    }

    #[test]
    fn deposit_then_read_round_trips() {
        let t = topo();
        let mb = Mailboxes::new(&t, DEFAULT_WINDOW);
        assert_eq!(mb.window(), 2);
        assert!(!mb.complete(slots(&t, 1), 1));
        let slot = t.in_offset(1) as u32; // edge 0 -> 1
        mb.deposit(1, &[(slot, 7.5)]).unwrap();
        assert!(mb.complete(slots(&t, 1), 1));
        assert_eq!(mb.value(slot as usize, 1), 7.5);
        // Other rounds and nodes are untouched.
        assert!(!mb.complete(slots(&t, 1), 2));
        assert!(!mb.complete(slots(&t, 2), 1));
    }

    #[test]
    fn window_allows_one_round_of_skew_then_rejects() {
        let t = topo();
        let mb = Mailboxes::new(&t, 2);
        let slot = t.in_offset(2) as u32;
        for round in 1..=2 {
            mb.deposit(round, &[(slot, round as f64)]).unwrap();
        }
        // Round 3 maps onto round 1's still-occupied cell.
        let err = mb.deposit(3, &[(slot, 3.0)]).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::MailboxOverflow {
                slot: slot as usize,
                round: 3
            }
        );
        // Both buffered rounds are still readable.
        assert_eq!(mb.value(slot as usize, 1), 1.0);
        assert_eq!(mb.value(slot as usize, 2), 2.0);
    }

    #[test]
    fn clear_round_recycles_the_lane() {
        let t = topo();
        let mut mb = Mailboxes::new(&t, 2);
        let base = t.in_offset(3);
        let slot = base as u32;
        mb.deposit(1, &[(slot, 1.0)]).unwrap();
        mb.clear_round(3, 1);
        assert!(!mb.complete(slots(&t, 3), 3));
        // Round 3 shares round 1's lane and is accepted again.
        mb.deposit(3, &[(slot, 3.0)]).unwrap();
        assert_eq!(mb.value(base, 3), 3.0);
        assert!(mb.complete(slots(&t, 3), 3));
    }

    #[test]
    #[should_panic(expected = "mailbox window must be at least 1")]
    fn zero_window_is_rejected() {
        let t = topo();
        let _ = Mailboxes::new(&t, 0);
    }

    #[test]
    fn a_second_copy_of_an_unconsumed_round_is_rejected() {
        let t = topo();
        let mb = Mailboxes::new(&t, 2);
        let slot = t.in_offset(1) as u32;
        mb.deposit(1, &[(slot, 1.0)]).unwrap();
        assert_eq!(
            mb.deposit(1, &[(slot, 9.0)]),
            Err(RuntimeError::MailboxOverflow {
                slot: slot as usize,
                round: 1
            })
        );
        assert_eq!(mb.value(slot as usize, 1), 1.0, "the first copy stays");
        assert!(mb.complete(slots(&t, 1), 1));
    }

    #[test]
    fn the_watermark_frees_cells_without_clearing_tags() {
        // complete(4): node 0 hears nodes 1, 2, 3 on slots 0, 1, 2.
        let t = CompiledTopology::compile(&generators::complete(4), &NodeSet::with_universe(4));
        let mut mb = Mailboxes::new(&t, 3);
        assert_eq!(mb.consumed(0), 0);
        for round in 1..=3 {
            mb.deposit(round, &[(0, round as f64), (1, 10.0 * round as f64)])
                .unwrap();
        }
        // Round 4 needs round 1's lane: refused until node 0 consumes it.
        assert!(mb.deposit(4, &[(0, 4.0)]).is_err());
        assert!(!mb.complete(0..3, 1));
        mb.deposit(1, &[(2, 100.0)]).unwrap();
        assert!(mb.complete(0..3, 1));
        assert!(mb.inbox(0..3, 1).eq([1.0, 10.0, 100.0]));
        mb.clear_round(0, 1);
        assert_eq!(mb.consumed(0), 1);
        // The tags still read round 1 but sit at the watermark, so free.
        assert_eq!(mb.missing(0..3, 1), Vec::<usize>::new());
        mb.deposit(4, &[(0, 4.0), (1, 40.0)]).unwrap();
        assert!(!mb.complete(0..3, 4));
        assert_eq!(mb.missing(0..3, 4), vec![2]);
        assert_eq!(mb.value(0, 4), 4.0);
        // Rounds 2 and 3 were never disturbed by lane 1's reuse.
        assert_eq!(mb.value(1, 2), 20.0);
        assert_eq!(mb.value(1, 3), 30.0);
    }

    #[test]
    fn lanes_are_lane_major_and_a_row_fills_one_lane() {
        // complete(3): node i hears the other two, slots 2i and 2i + 1.
        let t = CompiledTopology::compile(&generators::complete(3), &NodeSet::with_universe(3));
        let mb = Mailboxes::new(&t, 2);
        // Node 0's round-2 row: to node 1 (slot 2) and node 2 (slot 4).
        mb.deposit(2, &[(2, 0.5), (4, 0.5)]).unwrap();
        mb.deposit(2, &[(0, 1.5), (5, 1.5)]).unwrap();
        mb.deposit(2, &[(1, 2.5), (3, 2.5)]).unwrap();
        // Lane 0 holds round 2 for all six edges, in slot order.
        assert_eq!(lane_values(&mb, 0), [1.5, 2.5, 0.5, 2.5, 0.5, 1.5]);
        assert_eq!(lane_tags(&mb, 0), [2; 6]);
        assert_eq!(lane_tags(&mb, 1), [0; 6], "lane 1 untouched");
        for i in 0..3 {
            assert!(mb.complete(slots(&t, i), 2));
            assert!(!mb.complete(slots(&t, i), 1));
        }
        assert!(mb.inbox(2..4, 2).eq([0.5, 2.5]));
    }

    #[test]
    fn senders_deposit_concurrently_through_a_shared_reference() {
        // circulant(64, 8): 512 slots; each thread sends a quarter of the
        // senders' rows, and every receiver ends up complete.
        let t = CompiledTopology::circulant(64, 8, &NodeSet::with_universe(64));
        let mb = Mailboxes::new(&t, 2);
        let rows: Vec<Vec<(u32, f64)>> = (0..64)
            .map(|u| {
                (0..64)
                    .flat_map(|i| {
                        let base = t.in_offset(i);
                        t.in_neighbors_of(i)
                            .iter()
                            .position(|&s| s == u as u32)
                            .map(|k| ((base + k) as u32, u as f64))
                    })
                    .collect()
            })
            .collect();
        std::thread::scope(|s| {
            for quarter in rows.chunks(16) {
                let mb = &mb;
                s.spawn(move || {
                    for row in quarter {
                        mb.deposit(1, row).unwrap();
                    }
                });
            }
        });
        for i in 0..64 {
            assert!(mb.complete(slots(&t, i), 1), "node {i}");
            let senders = t.in_neighbors_of(i).iter().map(|&u| u as f64);
            assert!(mb.inbox(slots(&t, i), 1).eq(senders), "node {i}");
        }
    }
}
