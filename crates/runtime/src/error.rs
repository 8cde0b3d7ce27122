//! Error type for deployments, threaded and multiplexed.

use std::error::Error;
use std::fmt;

/// Why a deployment could not start or finish.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// `inputs.len()` does not match the graph's node count.
    InputLengthMismatch {
        /// Number of inputs supplied.
        inputs: usize,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// The fault set was built over a different universe than the graph.
    FaultSetMismatch {
        /// Universe of the supplied fault set.
        universe: usize,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// Every node is faulty; there is no honest state to speak of.
    NoFaultFreeNodes,
    /// An input is NaN or infinite.
    NonFiniteInput {
        /// Offending node.
        node: usize,
        /// Offending value.
        value: f64,
    },
    /// An honest node's in-degree cannot support trimming `2f` values.
    InsufficientInDegree {
        /// Offending node.
        node: usize,
        /// Its in-degree.
        in_degree: usize,
        /// Required minimum (`2f + 1` — Corollary 3, and one must survive).
        needed: usize,
    },
    /// The round count does not fit the multiplexed tier's `u32` round
    /// tags, which reserve `u32::MAX`.
    RoundsOutOfRange {
        /// The requested round count.
        rounds: usize,
    },
    /// A node thread panicked or a link closed mid-protocol (should not
    /// happen; indicates a bug or a poisoned thread).
    NodeFailed {
        /// The node whose thread failed.
        node: usize,
    },
    /// A message was deposited into a mailbox cell that still holds an
    /// unconsumed earlier round — the sender outran the `window`-round
    /// credit the receiver extended (see `iabc_runtime::Mailboxes`).
    MailboxOverflow {
        /// The receiver-side CSR edge slot whose buffer was full.
        slot: usize,
        /// The round of the rejected deposit.
        round: usize,
    },
    /// A multiplexed tick made no progress: nodes are still mid-protocol
    /// but none became ready. Impossible under the in-process transport; a
    /// remote transport reports this when the peer stops feeding
    /// mailboxes.
    Stalled {
        /// How many nodes had not finished their rounds.
        waiting: usize,
        /// The lowest-id unfinished node.
        node: usize,
        /// The round that node is waiting to complete.
        round: usize,
        /// That node's in-edge slots whose round-`round` message has not
        /// arrived, ascending.
        missing: Vec<usize>,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::InputLengthMismatch { inputs, nodes } => {
                write!(f, "{inputs} inputs supplied for {nodes} nodes")
            }
            RuntimeError::FaultSetMismatch { universe, nodes } => {
                write!(
                    f,
                    "fault set universe {universe} does not match {nodes} nodes"
                )
            }
            RuntimeError::NoFaultFreeNodes => write!(f, "every node is marked faulty"),
            RuntimeError::NonFiniteInput { node, value } => {
                write!(f, "input at node {node} is not finite ({value})")
            }
            RuntimeError::InsufficientInDegree {
                node,
                in_degree,
                needed,
            } => {
                write!(
                    f,
                    "node {node} has in-degree {in_degree}, below the {needed} required to trim 2f"
                )
            }
            RuntimeError::RoundsOutOfRange { rounds } => {
                write!(
                    f,
                    "{rounds} rounds exceed the round-tag space (at most {})",
                    u32::MAX - 1
                )
            }
            RuntimeError::NodeFailed { node } => {
                write!(f, "node {node} thread failed mid-protocol")
            }
            RuntimeError::MailboxOverflow { slot, round } => {
                write!(
                    f,
                    "mailbox slot {slot} still occupied when round {round} arrived (window credit violated)"
                )
            }
            RuntimeError::Stalled {
                waiting,
                node,
                round,
                missing,
            } => {
                write!(
                    f,
                    "deployment stalled with {waiting} nodes still mid-protocol; \
                     node {node} waits on round {round} for in-edge slots {missing:?}"
                )
            }
        }
    }
}

impl Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_specific() {
        let stalled = RuntimeError::Stalled {
            waiting: 3,
            node: 1,
            round: 4,
            missing: vec![5, 7],
        };
        let cases: Vec<(RuntimeError, &str)> = vec![
            (
                RuntimeError::InputLengthMismatch {
                    inputs: 2,
                    nodes: 3,
                },
                "2 inputs supplied for 3 nodes",
            ),
            (
                RuntimeError::NoFaultFreeNodes,
                "every node is marked faulty",
            ),
            (
                RuntimeError::InsufficientInDegree {
                    node: 4,
                    in_degree: 1,
                    needed: 3,
                },
                "node 4 has in-degree 1",
            ),
            (
                RuntimeError::RoundsOutOfRange { rounds: 1 << 32 },
                "4294967296 rounds exceed the round-tag space (at most 4294967294)",
            ),
            (RuntimeError::NodeFailed { node: 2 }, "node 2 thread failed"),
            (
                RuntimeError::MailboxOverflow { slot: 17, round: 9 },
                "mailbox slot 17 still occupied when round 9",
            ),
            (stalled.clone(), "stalled with 3 nodes"),
            (stalled, "node 1 waits on round 4 for in-edge slots [5, 7]"),
        ];
        for (err, expect) in cases {
            assert!(err.to_string().contains(expect), "{err}");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_error<E: Error + Send + Sync + 'static>(_: E) {}
        takes_error(RuntimeError::NoFaultFreeNodes);
    }
}
