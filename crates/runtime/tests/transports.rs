//! The multiplexed scheduler driven by transports other than
//! `LocalTransport`: a lagging one (two lanes in flight at once), a
//! dropping one (stalls and overflows raised from a tick) and a duplicating
//! one (a second deposit of an unconsumed round).

use iabc_graph::{generators, CompiledTopology, NodeSet};
use iabc_runtime::{
    ConstantLiar, InboxExtremist, LocalByzantine, LocalTransport, Mailboxes, MultiplexConfig,
    MultiplexedDeployment, RuntimeError, Transport,
};

const F: usize = 2;
const ROUNDS: usize = 15;

fn complete9() -> CompiledTopology {
    CompiledTopology::compile(&generators::complete(9), &NodeSet::from_indices(9, [7, 8]))
}

fn circulant64() -> CompiledTopology {
    CompiledTopology::circulant(64, 8, &NodeSet::from_indices(64, [0, 1]))
}

fn constant_liar() -> Box<dyn LocalByzantine> {
    Box::new(ConstantLiar { value: 1e6 })
}

fn inbox_extremist() -> Box<dyn LocalByzantine> {
    Box::new(InboxExtremist { delta: 1e6 })
}

/// Ticks until the deployment finishes or a tick fails; returns how many
/// ticks ran and the final states or the failure.
fn drive<T: Transport>(
    topology: &CompiledTopology,
    liar: fn() -> Box<dyn LocalByzantine>,
    transport: T,
    jobs: usize,
) -> (usize, Result<Vec<f64>, RuntimeError>) {
    let n = topology.node_count();
    let inputs: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64).collect();
    let mut deployment = MultiplexedDeployment::new(
        topology,
        &inputs,
        F,
        ROUNDS,
        |_| liar(),
        transport,
        MultiplexConfig {
            jobs,
            ..MultiplexConfig::default()
        },
    )
    .expect("deployment constructs");
    let mut ticks = 0;
    while !deployment.finished() {
        ticks += 1;
        if let Err(e) = deployment.tick() {
            return (ticks, Err(e));
        }
    }
    (ticks, Ok(deployment.states()))
}

/// Holds every message to an odd-id receiver for one extra tick: it is
/// delivered by the next tick's flush.
#[derive(Debug)]
struct Lagging {
    /// Receiver of each in-edge slot.
    receiver: Vec<usize>,
    /// `(round, (slot, value))` messages, sent last tick and this tick.
    held: Vec<(u32, (u32, f64))>,
    fresh: Vec<(u32, (u32, f64))>,
}

impl Lagging {
    fn new(topology: &CompiledTopology) -> Self {
        let receiver = (0..topology.node_count())
            .flat_map(|i| std::iter::repeat_n(i, topology.in_degree(i)))
            .collect();
        Lagging {
            receiver,
            held: Vec::new(),
            fresh: Vec::new(),
        }
    }
}

impl Transport for Lagging {
    fn send(
        &mut self,
        round: u32,
        row: &[(u32, f64)],
        mailboxes: &mut Mailboxes,
    ) -> Result<(), RuntimeError> {
        for &(slot, value) in row {
            if self.receiver[slot as usize] % 2 == 1 {
                self.fresh.push((round, (slot, value)));
            } else {
                mailboxes.deposit(round, &[(slot, value)])?;
            }
        }
        Ok(())
    }

    fn flush(&mut self, mailboxes: &mut Mailboxes) -> Result<(), RuntimeError> {
        for (round, message) in self.held.drain(..) {
            mailboxes.deposit(round, &[message])?;
        }
        std::mem::swap(&mut self.held, &mut self.fresh);
        Ok(())
    }
}

/// Drops every message on one edge.
#[derive(Debug)]
struct Dropping {
    slot: u32,
}

impl Transport for Dropping {
    fn send(
        &mut self,
        round: u32,
        row: &[(u32, f64)],
        mailboxes: &mut Mailboxes,
    ) -> Result<(), RuntimeError> {
        for &(slot, value) in row {
            if slot != self.slot {
                mailboxes.deposit(round, &[(slot, value)])?;
            }
        }
        Ok(())
    }

    fn flush(&mut self, _mailboxes: &mut Mailboxes) -> Result<(), RuntimeError> {
        Ok(())
    }
}

/// Deposits one edge's message of one round twice.
#[derive(Debug)]
struct Duplicating {
    slot: u32,
    round: u32,
}

impl Transport for Duplicating {
    fn send(
        &mut self,
        round: u32,
        row: &[(u32, f64)],
        mailboxes: &mut Mailboxes,
    ) -> Result<(), RuntimeError> {
        for &(slot, value) in row {
            mailboxes.deposit(round, &[(slot, value)])?;
            if slot == self.slot && round == self.round {
                mailboxes.deposit(round, &[(slot, value)])?;
            }
        }
        Ok(())
    }

    fn flush(&mut self, _mailboxes: &mut Mailboxes) -> Result<(), RuntimeError> {
        Ok(())
    }
}

#[test]
fn a_lagging_transport_reaches_the_local_states_in_twice_the_ticks() {
    for topology in [complete9(), circulant64()] {
        let n = topology.node_count();
        for liar in [constant_liar, inbox_extremist] {
            for jobs in [1, 3] {
                let (local_ticks, local) = drive(&topology, liar, LocalTransport, jobs);
                let (ticks, lagged) = drive(&topology, liar, Lagging::new(&topology), jobs);
                assert_eq!(local_ticks, ROUNDS, "n = {n}, jobs = {jobs}");
                assert_eq!(ticks, 2 * ROUNDS, "n = {n}, jobs = {jobs}");
                let (local, lagged) = (local.unwrap(), lagged.unwrap());
                let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&lagged), bits(&local), "n = {n}, jobs = {jobs}");
            }
        }
    }
}

#[test]
fn a_dropped_edge_stalls_a_complete_graph_at_tick_two() {
    // Slot 0 carries node 1 -> node 0, so node 0 never finishes round 1.
    // Slot 20 carries node 5 -> node 2 and slot 71 node 7 -> node 8: their
    // receiver never sends round 2, and node 0's round-2 inbox lacks the
    // slot that receiver feeds (1 for node 2, 7 for node 8).
    for (slot, round, missing) in [(0, 1, 0), (20, 2, 1), (71, 2, 7)] {
        let (ticks, result) = drive(&complete9(), constant_liar, Dropping { slot }, 1);
        assert_eq!(ticks, 2, "slot {slot}");
        assert!(
            matches!(result, Err(RuntimeError::Stalled { waiting: 9, .. })),
            "slot {slot}: {result:?}"
        );
        assert_eq!(
            result,
            Err(RuntimeError::Stalled {
                waiting: 9,
                node: 0,
                round,
                missing: vec![missing],
            }),
            "slot {slot}"
        );
    }
}

#[test]
fn a_dropped_edge_lets_its_receivers_in_neighbours_overflow_it() {
    // Node 12 never hears from node 8 (slot 100), so it stays on round 1.
    // Its in-neighbours 4..=11 do not wait for it, and node 4's round-3
    // message (slot 96) lands on the lane still holding round 1.
    let (ticks, result) = drive(&circulant64(), constant_liar, Dropping { slot: 100 }, 1);
    assert_eq!(ticks, 3);
    assert_eq!(
        result,
        Err(RuntimeError::MailboxOverflow { slot: 96, round: 3 })
    );
}

#[test]
fn a_duplicated_message_overflows_its_own_cell() {
    let transport = Duplicating {
        slot: 100,
        round: 3,
    };
    let (ticks, result) = drive(&circulant64(), constant_liar, transport, 1);
    assert_eq!(ticks, 3);
    assert_eq!(
        result,
        Err(RuntimeError::MailboxOverflow {
            slot: 100,
            round: 3
        })
    );
}
