//! Per-node protocol steps for the multiplexed deployment.
//!
//! In the threaded runtime a node is a thread; here an honest node is one
//! entry of the scheduler's state column, advanced by the shared executor
//! whenever the scheduler finds the node ready, and a faulty node is a
//! [`FaultyNode`] in a small side table. The update logic is byte-for-byte
//! the same protocol as `honest_node`/`byzantine_node` in the threaded
//! path: honest nodes sanitize their inbox and run the shared
//! [`trim_kernel`](iabc_core::rules::trim_kernel), faulty nodes refresh the
//! local inbox their [`LocalByzantine`] strategy is allowed to see.

use iabc_core::rules::{sanitize, trim_kernel};
use iabc_graph::{CompiledTopology, NodeId};

use crate::behavior::LocalByzantine;
use crate::mailbox::Mailboxes;

/// A faulty node: its strategy and the raw (unsanitized) values it
/// received last round, paired with their senders, exactly like the
/// threaded `byzantine_node`'s inbox. Its entry in the state column stays
/// frozen at its input (its "state" is meaningless in the fault model,
/// matching the threaded runtime's report convention).
pub(crate) struct FaultyNode {
    pub(crate) id: u32,
    strategy: Box<dyn LocalByzantine>,
    inbox: Vec<(NodeId, f64)>,
}

impl FaultyNode {
    pub(crate) fn new(id: u32, strategy: Box<dyn LocalByzantine>) -> Self {
        FaultyNode {
            id,
            strategy,
            inbox: Vec::new(),
        }
    }

    /// Fills `row` with this node's round-`round` lies, one per out-edge
    /// slot, querying the strategy in `slots` order (receivers ascending,
    /// as the scheduler's out-edge rows list them).
    pub(crate) fn lies(
        &mut self,
        round: u32,
        slots: &[u32],
        mailboxes: &Mailboxes,
        row: &mut Vec<(u32, f64)>,
    ) {
        row.clear();
        for &slot in slots {
            let receiver = NodeId::new(mailboxes.receiver(slot));
            let value = self.strategy.message(round as usize, &self.inbox, receiver);
            row.push((slot, value));
        }
    }

    /// Consumes this node's complete round-`round` inbox: the raw values
    /// replace last round's (receiver-side sanitization is an honest-node
    /// defence; a faulty node sees what was actually sent).
    pub(crate) fn refresh(
        &mut self,
        topology: &CompiledTopology,
        mailboxes: &Mailboxes,
        round: u32,
    ) {
        let i = self.id as usize;
        let base = topology.in_offset(i);
        let row = topology.in_neighbors_of(i);
        self.inbox.clear();
        self.inbox.extend(
            row.iter()
                .zip(mailboxes.inbox(base..base + row.len(), round))
                .map(|(&sender, v)| (NodeId::new(sender as usize), v)),
        );
    }
}

/// Consumes honest node `i`'s complete round-`round` inbox and advances
/// its `state` one round. `received` is reusable executor scratch.
///
/// The inbox is one contiguous slice of the round's lane, in CSR slot
/// order, which is ascending sender order — the exact order the threaded
/// runtime wires its channels and the deterministic engine visits
/// in-neighbors. Each value is sanitized, then the shared trim kernel runs.
pub(crate) fn update_honest(
    topology: &CompiledTopology,
    mailboxes: &Mailboxes,
    f: usize,
    round: u32,
    i: usize,
    state: &mut f64,
    received: &mut Vec<f64>,
) {
    let base = topology.in_offset(i);
    received.clear();
    received.extend(
        mailboxes
            .inbox(base..base + topology.in_degree(i), round)
            .map(sanitize),
    );
    // Preconditions hold by construction: in-degree >= 2f was validated
    // before the first tick and every value was sanitized, so this is the
    // engine's exact arithmetic.
    *state = trim_kernel(*state, received, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_graph::{generators, NodeSet};

    fn deliver(mb: &Mailboxes, base: usize, round: u32, values: &[f64]) {
        for (k, &v) in values.iter().enumerate() {
            mb.deposit(round, &[((base + k) as u32, v)]).unwrap();
        }
    }

    #[test]
    fn honest_update_matches_trim_kernel_with_sanitization() {
        let g = generators::complete(5);
        let t = CompiledTopology::compile(&g, &NodeSet::with_universe(5));
        let mb = Mailboxes::new(&t, 2);
        let base = t.in_offset(0);
        deliver(&mb, base, 1, &[1.0, 2.0, f64::NAN, -1e300]);
        let mut state = 1.5;
        let mut scratch = Vec::new();
        update_honest(&t, &mb, 1, 1, 0, &mut state, &mut scratch);
        // Sanitized inbox: [1.0, 2.0, 1e100, -1e100]; trim f=1 drops the
        // extremes, leaving {1.0, 2.0} + own 1.5.
        assert_eq!(state, (1.5 + 1.0 + 2.0) / 3.0);
    }

    #[test]
    fn faulty_node_records_raw_inbox() {
        let g = generators::complete(4);
        let faults = NodeSet::from_indices(4, [3]);
        let t = CompiledTopology::compile(&g, &faults);
        let mb = Mailboxes::new(&t, 2);
        let base = t.in_offset(3);
        deliver(&mb, base, 1, &[f64::NAN, 5.0, -2.0]);
        let mut node = FaultyNode::new(3, Box::new(crate::behavior::ConstantLiar { value: 0.0 }));
        node.refresh(&t, &mb, 1);
        assert_eq!(node.inbox.len(), 3);
        assert_eq!(node.inbox[0].0, NodeId::new(0));
        assert!(node.inbox[0].1.is_nan(), "raw values, no sanitization");
        assert_eq!(node.inbox[1], (NodeId::new(1), 5.0));
        assert_eq!(node.inbox[2], (NodeId::new(2), -2.0));
    }

    #[test]
    fn faulty_node_lies_per_receiver_from_its_inbox() {
        // complete(4), node 3 faulty: it feeds slot 2 (-> 0), slot 5 (-> 1)
        // and slot 8 (-> 2).
        let g = generators::complete(4);
        let t = CompiledTopology::compile(&g, &NodeSet::from_indices(4, [3]));
        let mb = Mailboxes::new(&t, 2);
        deliver(&mb, t.in_offset(3), 1, &[3.0, 7.0, -1.0]);
        let extremist = crate::behavior::InboxExtremist { delta: 10.0 };
        let mut node = FaultyNode::new(3, Box::new(extremist));
        node.refresh(&t, &mb, 1);
        let mut row = vec![(99, 99.0)];
        node.lies(2, &[2, 5, 8], &mb, &mut row);
        // Even receivers hear lo - delta, odd ones hi + delta.
        assert_eq!(row, [(2, -11.0), (5, 17.0), (8, -11.0)]);
    }
}
