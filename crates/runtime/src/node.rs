//! Per-node protocol state for the multiplexed deployment.
//!
//! In the threaded runtime a node is a thread; here it is a [`NodeCell`] —
//! a few words of state updated by the shared executor whenever the
//! scheduler finds the node ready. The update logic is byte-for-byte the
//! same protocol as `honest_node`/`byzantine_node` in the threaded path:
//! honest cells sanitize their inbox and run the shared
//! [`trim_kernel`](iabc_core::rules::trim_kernel), Byzantine cells refresh
//! the local inbox their [`LocalByzantine`] strategy is allowed to see.

use iabc_core::rules::trim_kernel;
use iabc_graph::{CompiledTopology, NodeId};

use crate::behavior::LocalByzantine;
use crate::deploy::sanitize;
use crate::mailbox::Mailboxes;

/// What kind of process a cell multiplexes.
pub(crate) enum Role {
    /// Runs Algorithm 1; `state` in the cell is the protocol state.
    Honest,
    /// Runs a local Byzantine strategy; the inbox holds the raw
    /// (unsanitized) values received last round, paired with their senders,
    /// exactly like the threaded `byzantine_node`'s inbox.
    Byzantine {
        strategy: Box<dyn LocalByzantine>,
        inbox: Vec<(NodeId, f64)>,
    },
}

/// One multiplexed protocol node: its current state and role.
///
/// For honest nodes `state` is `v_i[t]`; for Byzantine nodes it is frozen
/// at the input (their "state" is meaningless in the fault model, matching
/// the threaded runtime's report convention).
pub(crate) struct NodeCell {
    pub(crate) state: f64,
    pub(crate) role: Role,
}

/// Consumes node `i`'s complete round-`round` inbox and advances the cell
/// one round. `received` is reusable executor scratch.
///
/// Honest: gather the inbox — one contiguous slice of the round's lane, in
/// CSR slot order, which is ascending sender order, the exact order the
/// threaded runtime wires its channels and the deterministic engine visits
/// in-neighbors — sanitize each value, and apply the shared trim kernel.
/// Byzantine: refresh the inbox with the raw values (receiver-side
/// sanitization is an honest-node defence; a faulty node sees what was
/// actually sent).
pub(crate) fn update_cell(
    topology: &CompiledTopology,
    mailboxes: &Mailboxes,
    f: usize,
    round: u32,
    i: usize,
    cell: &mut NodeCell,
    received: &mut Vec<f64>,
) {
    let base = topology.in_offset(i);
    let row = topology.in_neighbors_of(i);
    let values = mailboxes.inbox(base..base + row.len(), round);
    match &mut cell.role {
        Role::Honest => {
            received.clear();
            received.extend(values.iter().map(|&v| sanitize(v)));
            // Preconditions hold by construction: in-degree >= 2f was
            // validated before the first tick and every value was
            // sanitized, so this is the engine's exact arithmetic.
            cell.state = trim_kernel(cell.state, received, f);
        }
        Role::Byzantine { inbox, .. } => {
            inbox.clear();
            inbox.extend(
                row.iter()
                    .zip(values)
                    .map(|(&sender, &v)| (NodeId::new(sender as usize), v)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_graph::{generators, NodeSet};

    fn deliver(mb: &mut Mailboxes, base: usize, round: u32, values: &[f64]) {
        for (k, &v) in values.iter().enumerate() {
            mb.deposit(round, &[((base + k) as u32, v)]).unwrap();
        }
    }

    #[test]
    fn honest_cell_matches_trim_kernel_with_sanitization() {
        let g = generators::complete(5);
        let t = CompiledTopology::compile(&g, &NodeSet::with_universe(5));
        let mut mb = Mailboxes::new(&t, 2);
        let base = t.in_offset(0);
        deliver(&mut mb, base, 1, &[1.0, 2.0, f64::NAN, -1e300]);
        let mut cell = NodeCell {
            state: 1.5,
            role: Role::Honest,
        };
        let mut scratch = Vec::new();
        update_cell(&t, &mb, 1, 1, 0, &mut cell, &mut scratch);
        // Sanitized inbox: [1.0, 2.0, 1e100, -1e100]; trim f=1 drops the
        // extremes, leaving {1.0, 2.0} + own 1.5.
        assert_eq!(cell.state, (1.5 + 1.0 + 2.0) / 3.0);
    }

    #[test]
    fn byzantine_cell_records_raw_inbox_and_freezes_state() {
        let g = generators::complete(4);
        let faults = NodeSet::from_indices(4, [3]);
        let t = CompiledTopology::compile(&g, &faults);
        let mut mb = Mailboxes::new(&t, 2);
        let base = t.in_offset(3);
        deliver(&mut mb, base, 1, &[f64::NAN, 5.0, -2.0]);
        let mut cell = NodeCell {
            state: 9.0,
            role: Role::Byzantine {
                strategy: Box::new(crate::behavior::ConstantLiar { value: 0.0 }),
                inbox: Vec::new(),
            },
        };
        let mut scratch = Vec::new();
        update_cell(&t, &mb, 1, 1, 3, &mut cell, &mut scratch);
        assert_eq!(cell.state, 9.0, "faulty state never advances");
        match &cell.role {
            Role::Byzantine { inbox, .. } => {
                assert_eq!(inbox.len(), 3);
                assert_eq!(inbox[0].0, NodeId::new(0));
                assert!(inbox[0].1.is_nan(), "raw values, no sanitization");
                assert_eq!(inbox[1], (NodeId::new(1), 5.0));
                assert_eq!(inbox[2], (NodeId::new(2), -2.0));
            }
            Role::Honest => panic!("role changed"),
        }
    }
}
