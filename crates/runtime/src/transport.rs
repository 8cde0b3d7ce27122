//! The message-delivery abstraction under the multiplexed deployment.
//!
//! The scheduler does not talk to mailboxes directly when sending: every
//! outbound message goes through a [`Transport`], which decides how it
//! reaches the receiver's [`Mailboxes`] cell. In-process deployments use
//! [`LocalTransport`], which deposits immediately; a networked transport
//! would serialize, ship, and deposit on the receiving host instead. The
//! scheduler is written against the trait, so swapping the transport does
//! not touch protocol logic.
//!
//! # Wire framing (for remote transports)
//!
//! The scheduler hands a transport one *sender round* at a time: the round
//! and that sender's `(slot, value)` pairs, one per out-edge. A byte-level
//! framing is fully specified here even though this crate only ships the
//! local transport:
//!
//! * one message = 16 bytes, little-endian: `[u32 slot][u32 round][f64
//!   value]`, where `slot` is the *receiver-side* CSR in-edge index of the
//!   edge (sender identity is implied by the slot — the topology is shared
//!   config on both ends). The slot addresses the edge the way the paper's
//!   authenticated point-to-point links do: a receiver always knows which
//!   in-edge (hence which sender) a value arrived on, and a faulty node can
//!   lie about the value but not about the link;
//! * messages are batched per tick: a frame is `[u32 count]` followed by
//!   `count` messages, length-prefixing the batch so a TCP stream can be
//!   parsed without lookahead;
//! * flow control is credit-based with exactly the mailbox `window`: a
//!   sender may have at most `window` unacknowledged rounds outstanding per
//!   edge. Consuming a round returns its credit. A conforming transport
//!   therefore never triggers [`RuntimeError::MailboxOverflow`]; the error
//!   exists to fail fast on a non-conforming (or buggy) peer instead of
//!   silently overwriting protocol messages.

use crate::error::RuntimeError;
use crate::mailbox::Mailboxes;

/// Delivers messages from the scheduler's send phase into mailboxes.
///
/// Implementations may buffer in `send` and move bytes in `flush` (a
/// batching TCP transport would), or deposit eagerly and make `flush` a
/// no-op (the local transport does). The scheduler calls `send` once per
/// sender round, with all of that sender's out-edges, and `flush` once per
/// tick, after all sends.
///
/// `send` takes `&self`, and the trait is `Sync`: the scheduler runs its
/// honest senders on the deployment's pool, so every pool participant
/// calls `send` on the same transport concurrently, each call carrying a
/// different sender's row. A transport that buffers keeps its buffers
/// behind a lock or in per-thread storage. [`Mailboxes::deposit`] takes
/// `&self` for the same reason. Faulty senders are sent from the calling
/// thread alone, senders ascending, and `flush` is always serial.
pub trait Transport: std::fmt::Debug + Sync {
    /// Routes one sender's round-`round` messages toward their receivers'
    /// mailboxes: `row` holds one `(slot, value)` pair per out-edge, in
    /// ascending receiver order. Round tags are transport metadata (1-based)
    /// modelling the synchronous network, exactly as in the threaded
    /// runtime; a value is the sender's state or, from a Byzantine sender,
    /// the lie told on that edge.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::MailboxOverflow`] if delivery finds an edge's
    /// buffer still occupied (credit violation); transports with deferred
    /// delivery may instead surface it from [`Transport::flush`].
    fn send(
        &self,
        round: u32,
        row: &[(u32, f64)],
        mailboxes: &Mailboxes,
    ) -> Result<(), RuntimeError>;

    /// Completes delivery of everything buffered by `send` this tick.
    fn flush(&mut self, mailboxes: &Mailboxes) -> Result<(), RuntimeError>;
}

/// In-process transport: `send` deposits the row directly into the mailbox
/// cells, `flush` is a no-op. Zero copies, zero buffering — the
/// multiplexed deployment's default.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalTransport;

impl Transport for LocalTransport {
    #[inline]
    fn send(
        &self,
        round: u32,
        row: &[(u32, f64)],
        mailboxes: &Mailboxes,
    ) -> Result<(), RuntimeError> {
        mailboxes.deposit(round, row)
    }

    fn flush(&mut self, _mailboxes: &Mailboxes) -> Result<(), RuntimeError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_graph::{generators, CompiledTopology, NodeSet};

    #[test]
    fn local_transport_deposits_immediately() {
        let t = CompiledTopology::compile(&generators::cycle(3), &NodeSet::with_universe(3));
        let mb = Mailboxes::new(&t, 2);
        let mut tx = LocalTransport;
        let slot = t.in_offset(1) as u32;
        let inbox = slot as usize..slot as usize + 1;
        tx.send(1, &[(slot, 4.25)], &mb).unwrap();
        // Visible before flush: delivery is eager.
        assert!(mb.complete(inbox.clone(), 1));
        assert_eq!(mb.value(slot as usize, 1), 4.25);
        tx.flush(&mb).unwrap();
        assert!(mb.complete(inbox, 1), "flush is a no-op");
    }

    #[test]
    fn local_transport_propagates_overflow() {
        let t = CompiledTopology::compile(&generators::cycle(3), &NodeSet::with_universe(3));
        let mb = Mailboxes::new(&t, 1);
        let tx = LocalTransport;
        tx.send(1, &[(0, 0.0)], &mb).unwrap();
        assert!(matches!(
            tx.send(2, &[(0, 0.0)], &mb),
            Err(RuntimeError::MailboxOverflow { slot: 0, round: 2 })
        ));
    }
}
