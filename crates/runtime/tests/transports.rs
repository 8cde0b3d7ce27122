//! The multiplexed scheduler driven by transports other than
//! `LocalTransport`: a lagging one (two lanes in flight at once), a
//! dropping one (stalls and overflows raised from a tick) and a duplicating
//! one (a second deposit of an unconsumed round). Honest senders run on
//! the pool, so every failure is also driven at jobs 3 on topologies whose
//! send dispatch splits into several chunks, and must match jobs 1.

use std::sync::Mutex;

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
    fresh: Mutex<Vec<(u32, (u32, f64))>>,
}

impl Lagging {
    fn new(topology: &CompiledTopology) -> Self {
        let receiver = (0..topology.node_count())
            .flat_map(|i| std::iter::repeat_n(i, topology.in_degree(i)))
            .collect();
        Lagging {
            receiver,
            held: Vec::new(),
            fresh: Mutex::new(Vec::new()),
        }
    }
}

impl Transport for Lagging {
    fn send(
        &self,
        round: u32,
        row: &[(u32, f64)],
        mailboxes: &Mailboxes,
    ) -> Result<(), RuntimeError> {
        for &(slot, value) in row {
            if self.receiver[slot as usize] % 2 == 1 {
                self.fresh.lock().unwrap().push((round, (slot, value)));
            } else {
                mailboxes.deposit(round, &[(slot, value)])?;
            }
        }
        Ok(())
    }

    fn flush(&mut self, mailboxes: &Mailboxes) -> Result<(), RuntimeError> {
        for (round, message) in self.held.drain(..) {
            mailboxes.deposit(round, &[message])?;
        }
        std::mem::swap(&mut self.held, self.fresh.get_mut().unwrap());
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
        &self,
        round: u32,
        row: &[(u32, f64)],
        mailboxes: &Mailboxes,
    ) -> Result<(), RuntimeError> {
        for &(slot, value) in row {
            if slot != self.slot {
                mailboxes.deposit(round, &[(slot, value)])?;
            }
        }
        Ok(())
    }

    fn flush(&mut self, _mailboxes: &Mailboxes) -> Result<(), RuntimeError> {
        Ok(())
    }
}

/// Deposits the messages of some edges in one round twice.
#[derive(Debug)]
struct Duplicating {
    slots: Vec<u32>,
    round: u32,
}

impl Transport for Duplicating {
    fn send(
        &self,
        round: u32,
        row: &[(u32, f64)],
        mailboxes: &Mailboxes,
    ) -> Result<(), RuntimeError> {
        for &(slot, value) in row {
            mailboxes.deposit(round, &[(slot, value)])?;
            if self.slots.contains(&slot) && round == self.round {
                mailboxes.deposit(round, &[(slot, value)])?;
            }
        }
        Ok(())
    }

    fn flush(&mut self, _mailboxes: &Mailboxes) -> Result<(), RuntimeError> {
        Ok(())
    }
}

/// The in-edge slot that carries `sender -> receiver`.
fn slot(topology: &CompiledTopology, sender: u32, receiver: usize) -> u32 {
    let k = topology
        .in_neighbors_of(receiver)
        .iter()
        .position(|&u| u == sender)
        .expect("an edge of the topology");
    (topology.in_offset(receiver) + k) as u32
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
    for jobs in [1, 3] {
        for (slot, round, missing) in [(0, 1, 0), (20, 2, 1), (71, 2, 7)] {
            let (ticks, result) = drive(&complete9(), constant_liar, Dropping { slot }, jobs);
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
}

#[test]
fn a_dropped_edge_lets_its_receivers_in_neighbours_overflow_it() {
    // Node 12 never hears from node 8 (slot 100), so it stays on round 1.
    // Its in-neighbours 4..=11 do not wait for it, and node 4's round-3
    // message (slot 96) lands on the lane still holding round 1.
    for jobs in [1, 3] {
        let (ticks, result) = drive(&circulant64(), constant_liar, Dropping { slot: 100 }, jobs);
        assert_eq!(ticks, 3);
        assert_eq!(
            result,
            Err(RuntimeError::MailboxOverflow { slot: 96, round: 3 })
        );
    }
}

#[test]
fn a_duplicated_message_overflows_its_own_cell() {
    for jobs in [1, 3] {
        let transport = Duplicating {
            slots: vec![100],
            round: 3,
        };
        let (ticks, result) = drive(&circulant64(), constant_liar, transport, jobs);
        assert_eq!(ticks, 3);
        assert_eq!(
            result,
            Err(RuntimeError::MailboxOverflow {
                slot: 100,
                round: 3
            })
        );
    }
}

#[test]
fn overflows_in_several_send_chunks_report_the_lowest_sender() {
    // circulant(1024, 8) at jobs 3: the pending list splits into 12
    // chunks of 86 senders. Senders 900, 500 and 100 each overflow one
    // out-edge in round 3, in three different chunks; the lowest sender's
    // error wins, at any job count.
    let topology = CompiledTopology::circulant(1024, 8, &NodeSet::from_indices(1024, [0, 1]));
    let slots: Vec<u32> = [900, 500, 100]
        .map(|u| slot(&topology, u, u as usize + 3))
        .to_vec();
    let expect = Err(RuntimeError::MailboxOverflow {
        slot: slots[2] as usize,
        round: 3,
    });
    let mut outcomes = Vec::new();
    for jobs in [1, 3] {
        let transport = Duplicating {
            slots: slots.clone(),
            round: 3,
        };
        let (ticks, result) = drive(&topology, constant_liar, transport, jobs);
        assert_eq!((ticks, &result), (3, &expect), "jobs = {jobs}");
        // A dropped edge stalls its receiver the same way at any job count.
        outcomes.push(drive(
            &topology,
            constant_liar,
            Dropping { slot: slots[1] },
            jobs,
        ));
    }
    assert_eq!(outcomes[0], outcomes[1]);
    assert!(matches!(
        outcomes[0],
        (3, Err(RuntimeError::MailboxOverflow { round: 3, .. }))
    ));
}

#[test]
fn an_honest_and_a_byzantine_overflow_in_one_tick_report_the_lower_id() {
    // circulant(64, 8) with nodes 10 and 50 faulty. Honest node 30 and one
    // faulty node each overflow an out-edge in round 3; the lower id's
    // error wins whichever pass sends it.
    let topology = CompiledTopology::circulant(64, 8, &NodeSet::from_indices(64, [10, 50]));
    let honest = slot(&topology, 30, 31);
    for (byzantine, lower) in [(slot(&topology, 10, 11), 10), (slot(&topology, 50, 51), 30)] {
        let expect = if lower == 30 { honest } else { byzantine };
        for jobs in [1, 3] {
            for liar in [constant_liar, inbox_extremist] {
                let transport = Duplicating {
                    slots: vec![honest, byzantine],
                    round: 3,
                };
                let (ticks, result) = drive(&topology, liar, transport, jobs);
                assert_eq!(ticks, 3, "jobs = {jobs}");
                assert_eq!(
                    result,
                    Err(RuntimeError::MailboxOverflow {
                        slot: expect as usize,
                        round: 3
                    }),
                    "lower id {lower}, jobs = {jobs}"
                );
            }
        }
    }
}
