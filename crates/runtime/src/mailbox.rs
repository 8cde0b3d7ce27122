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
//! # The consumed-round watermark
//!
//! Every cell carries the round tag of the last message deposited into it
//! (`0` = never; protocol rounds are 1-based), and every node carries a
//! watermark: the last round it consumed. Nodes consume their rounds in
//! order, so a cell is occupied exactly when its tag is above its
//! receiver's watermark. Tags are never cleared: consuming a round raises
//! the watermark and zeroes that lane's arrival counter, O(1) per node,
//! which returns the lane's credit to every sender at once.
//!
//! A deposit into an occupied cell — a sender running `window` rounds
//! ahead of its receiver, or a second copy of a round the receiver has not
//! consumed — is rejected as [`RuntimeError::MailboxOverflow`]. This is the
//! credit-based flow-control contract a remote transport must honour: at
//! most `window` outstanding rounds per edge. The in-process
//! [`LocalTransport`](crate::LocalTransport) runs all nodes in lockstep and
//! can never trip it; the default window of 2 still leaves headroom for the
//! send-before-consume ordering inside a tick.

use std::ops::Range;

use iabc_graph::CompiledTopology;

use crate::error::RuntimeError;

/// Default number of in-flight rounds each edge can buffer.
pub const DEFAULT_WINDOW: u32 = 2;

/// Fixed-capacity per-edge message buffers plus per-node arrival counters
/// and consumed-round watermarks.
///
/// Layout: cell `(slot, round)` lives at `lane * edges + slot`, with
/// `lane = round % window`. `arrived[lane * nodes + i]` counts how many of
/// node `i`'s in-edges have deposited their message for the round on that
/// lane, so the scheduler's readiness check is a single array compare
/// against `in_degree(i)`.
#[derive(Debug, Clone)]
pub struct Mailboxes {
    window: u32,
    /// One value per (lane, edge).
    values: Vec<f64>,
    /// Round tag per (lane, edge): the last round deposited there, 0 = none.
    tags: Vec<u32>,
    /// Deposited-message count per (lane, node).
    arrived: Vec<u32>,
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
        Mailboxes {
            window,
            values: vec![0.0; edges * w],
            tags: vec![0; edges * w],
            arrived: vec![0; n * w],
            consumed: vec![0; n],
            owner,
        }
    }

    /// Number of in-flight rounds each edge can buffer.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// The lane `round` uses.
    #[inline]
    fn lane(&self, round: u32) -> usize {
        (round % self.window) as usize
    }

    /// Index of cell `(slot, round)` in the per-edge arrays.
    #[inline]
    fn cell(&self, slot: usize, round: u32) -> usize {
        self.lane(round) * self.owner.len() + slot
    }

    /// Deposits one sender's round-`round` messages, one `(slot, value)`
    /// pair per out-edge, bumping each receiver's arrival count for that
    /// round. Pairs are deposited in order.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::MailboxOverflow`] at the first pair whose cell still
    /// holds a round its receiver has not consumed — the sender has outrun
    /// the `window`-round credit the receiver extended, or the round was
    /// delivered twice. The pairs before it stay deposited.
    #[inline]
    pub fn deposit(&mut self, round: u32, row: &[(u32, f64)]) -> Result<(), RuntimeError> {
        let lane = self.lane(round);
        let (edges, nodes) = (self.owner.len(), self.consumed.len());
        let tags = &mut self.tags[lane * edges..];
        let values = &mut self.values[lane * edges..];
        let arrived = &mut self.arrived[lane * nodes..];
        for &(slot, value) in row {
            let slot = slot as usize;
            let node = self.owner[slot] as usize;
            if tags[slot] > self.consumed[node] {
                return Err(RuntimeError::MailboxOverflow {
                    slot,
                    round: round as usize,
                });
            }
            tags[slot] = round;
            values[slot] = value;
            arrived[node] += 1;
        }
        Ok(())
    }

    /// How many round-`round` messages node `i` has received so far.
    #[inline]
    pub fn arrived(&self, i: usize, round: u32) -> u32 {
        self.arrived[self.lane(round) * self.consumed.len() + i]
    }

    /// The last round node `i` has consumed (`0` before its first): its
    /// cells tagged at or below it are free.
    #[inline]
    pub(crate) fn consumed(&self, i: usize) -> u32 {
        self.consumed[i]
    }

    /// The receiver of edge `slot`.
    #[inline]
    pub(crate) fn receiver(&self, slot: u32) -> usize {
        self.owner[slot as usize] as usize
    }

    /// The round-`round` value sitting in edge `slot`.
    ///
    /// Only meaningful once the owner's `arrived` count equals its
    /// in-degree; the debug assertion catches scheduler bugs that read a
    /// lane before it is full (or after it was recycled).
    pub fn value(&self, slot: usize, round: u32) -> f64 {
        let cell = self.cell(slot, round);
        debug_assert_eq!(
            self.tags[cell], round,
            "mailbox slot {slot} read for round {round} but holds round {}",
            self.tags[cell]
        );
        self.values[cell]
    }

    /// The round-`round` values of the in-edges `slots`: one receiver's
    /// inbox, in CSR slot order. Carries [`value`](Self::value)'s debug
    /// check for every cell.
    pub(crate) fn inbox(&self, slots: Range<usize>, round: u32) -> &[f64] {
        let cells = self.cell(slots.start, round)..self.cell(slots.end, round);
        debug_assert!(
            self.tags[cells.clone()].iter().all(|&tag| tag == round),
            "inbox {slots:?} read for round {round} before it is full"
        );
        &self.values[cells]
    }

    /// The in-edges among `slots` whose round-`round` message has not
    /// arrived: their lane cell holds another round.
    pub(crate) fn missing(&self, slots: Range<usize>, round: u32) -> Vec<usize> {
        slots
            .filter(|&s| self.tags[self.cell(s, round)] != round)
            .collect()
    }

    /// Marks node `i`'s round-`round` lane consumed: raises its watermark
    /// to `round` and zeroes the lane's arrival counter, returning the
    /// credits to the senders. Rounds must be consumed in order.
    pub(crate) fn clear_round(&mut self, i: usize, round: u32) {
        debug_assert_eq!(
            round,
            self.consumed[i] + 1,
            "node {i} consumed out of order"
        );
        self.consumed[i] = round;
        let counter = self.lane(round) * self.consumed.len() + i;
        self.arrived[counter] = 0;
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

    #[test]
    fn deposit_then_read_round_trips() {
        let t = topo();
        let mut mb = Mailboxes::new(&t, DEFAULT_WINDOW);
        assert_eq!(mb.window(), 2);
        assert_eq!(mb.arrived(1, 1), 0);
        let slot = t.in_offset(1) as u32; // edge 0 -> 1
        mb.deposit(1, &[(slot, 7.5)]).unwrap();
        assert_eq!(mb.arrived(1, 1), 1);
        assert_eq!(mb.value(slot as usize, 1), 7.5);
        // Other rounds and nodes are untouched.
        assert_eq!(mb.arrived(1, 2), 0);
        assert_eq!(mb.arrived(2, 1), 0);
    }

    #[test]
    fn window_allows_one_round_of_skew_then_rejects() {
        let t = topo();
        let mut mb = Mailboxes::new(&t, 2);
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
        assert_eq!(mb.arrived(3, 1), 0);
        // Round 3 shares round 1's lane and is accepted again.
        mb.deposit(3, &[(slot, 3.0)]).unwrap();
        assert_eq!(mb.value(base, 3), 3.0);
        assert_eq!(mb.arrived(3, 3), 1);
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
        let mut mb = Mailboxes::new(&t, 2);
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
        assert_eq!(mb.arrived(1, 1), 1);
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
        mb.deposit(1, &[(2, 100.0)]).unwrap();
        assert_eq!(mb.arrived(0, 1), 3);
        assert_eq!(mb.inbox(0..3, 1), &[1.0, 10.0, 100.0]);
        mb.clear_round(0, 1);
        assert_eq!(mb.consumed(0), 1);
        assert_eq!(mb.arrived(0, 1), 0);
        // The tags still read round 1 but sit at the watermark, so free.
        assert_eq!(mb.missing(0..3, 1), Vec::<usize>::new());
        mb.deposit(4, &[(0, 4.0), (1, 40.0)]).unwrap();
        assert_eq!(mb.arrived(0, 4), 2);
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
        let mut mb = Mailboxes::new(&t, 2);
        // Node 0's round-2 row: to node 1 (slot 2) and node 2 (slot 4).
        mb.deposit(2, &[(2, 0.5), (4, 0.5)]).unwrap();
        mb.deposit(2, &[(0, 1.5), (5, 1.5)]).unwrap();
        mb.deposit(2, &[(1, 2.5), (3, 2.5)]).unwrap();
        // Lane 0 holds round 2 for all six edges, in slot order.
        assert_eq!(&mb.values[..6], &[1.5, 2.5, 0.5, 2.5, 0.5, 1.5]);
        assert_eq!(&mb.tags[..6], &[2; 6]);
        assert_eq!(&mb.tags[6..], &[0; 6], "lane 1 untouched");
        for i in 0..3 {
            assert_eq!(mb.arrived(i, 2), 2);
            assert_eq!(mb.arrived(i, 1), 0);
        }
        assert_eq!(mb.inbox(2..4, 2), &[0.5, 2.5]);
    }
}
