//! Simulation errors.

use std::error::Error;
use std::fmt;

use iabc_core::RuleError;

/// Errors raised while constructing or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// `inputs.len()` did not match the graph's node count.
    InputLengthMismatch {
        /// Number of inputs supplied.
        inputs: usize,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// An initial input was NaN or infinite.
    NonFiniteInput {
        /// The node with the bad input.
        node: usize,
        /// The offending value.
        value: f64,
    },
    /// Every node was marked faulty; the paper's guarantees (and the trace
    /// metrics) are over fault-free nodes, so at least one must exist.
    NoFaultFreeNodes,
    /// The fault set universe did not match the graph.
    FaultSetMismatch {
        /// Universe of the supplied fault set.
        universe: usize,
        /// Node count of the graph.
        nodes: usize,
    },
    /// An update rule failed at a node (e.g. in-degree too small to trim).
    Rule {
        /// The node whose update failed.
        node: usize,
        /// The iteration being computed.
        round: usize,
        /// The underlying rule error.
        source: RuleError,
    },
    /// A topology schedule was built with no graphs (or zero rounds).
    EmptySchedule,
    /// Graphs in a topology schedule disagree on node count, or a sampled
    /// schedule could not honour its in-degree floor.
    ScheduleMismatch {
        /// The expected quantity (node count, or required floor).
        expected: usize,
        /// What was found instead.
        got: usize,
    },
    /// A [`crate::Scenario`] terminal was invoked before a required
    /// component was supplied.
    ScenarioIncomplete {
        /// The missing component (e.g. `"inputs"`, `"update rule"`).
        what: &'static str,
    },
    /// A [`crate::Scenario`] terminal would have to silently discard a
    /// component of the wrong kind (e.g. a scalar adversary set on a
    /// vector scenario) — refused so the configured attack cannot be
    /// dropped unnoticed.
    ScenarioConflict {
        /// What was set versus what the terminal needs.
        what: &'static str,
    },
    /// A vector scenario's flat inputs do not factor as `nodes × dim`.
    VectorShapeMismatch {
        /// Flat input length supplied.
        inputs: usize,
        /// Number of nodes in the graph.
        nodes: usize,
        /// Requested dimension `d`.
        dim: usize,
    },
    /// A delay-bounded engine's bound was 0 or past
    /// [`crate::async_engine::MAX_DELAY_BOUND`].
    DelayBoundOutOfRange {
        /// The bound requested.
        bound: usize,
    },
    /// A replica-batched scenario's flat inputs do not factor as
    /// `nodes × replicas` (or the replica count was zero).
    ReplicaShapeMismatch {
        /// Flat input length supplied.
        inputs: usize,
        /// Number of nodes in the graph.
        nodes: usize,
        /// Requested replica count `R`.
        replicas: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InputLengthMismatch { inputs, nodes } => {
                write!(f, "got {inputs} inputs for a graph with {nodes} nodes")
            }
            SimError::NonFiniteInput { node, value } => {
                write!(f, "initial input {value} at node {node} is not finite")
            }
            SimError::NoFaultFreeNodes => {
                write!(f, "at least one node must be fault-free")
            }
            SimError::FaultSetMismatch { universe, nodes } => {
                write!(
                    f,
                    "fault set universe {universe} does not match {nodes} nodes"
                )
            }
            SimError::Rule {
                node,
                round,
                source,
            } => {
                write!(
                    f,
                    "update rule failed at node {node}, round {round}: {source}"
                )
            }
            SimError::EmptySchedule => {
                write!(f, "topology schedule needs at least one graph")
            }
            SimError::ScheduleMismatch { expected, got } => {
                write!(f, "topology schedule expected {expected}, got {got}")
            }
            SimError::ScenarioIncomplete { what } => {
                write!(f, "scenario is missing its {what}")
            }
            SimError::ScenarioConflict { what } => {
                write!(f, "scenario component mismatch: {what}")
            }
            SimError::VectorShapeMismatch { inputs, nodes, dim } => {
                write!(
                    f,
                    "got {inputs} flat inputs for {nodes} nodes x dimension {dim} \
                     (expected {})",
                    nodes * dim
                )
            }
            SimError::DelayBoundOutOfRange { bound } => {
                write!(
                    f,
                    "delay bound B = {bound} is outside 1..={}",
                    crate::async_engine::MAX_DELAY_BOUND
                )
            }
            SimError::ReplicaShapeMismatch {
                inputs,
                nodes,
                replicas,
            } => {
                write!(
                    f,
                    "got {inputs} flat inputs for {nodes} nodes x {replicas} replicas \
                     (expected {}, replicas >= 1)",
                    nodes * replicas
                )
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Rule { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_specific() {
        assert_eq!(
            SimError::InputLengthMismatch {
                inputs: 3,
                nodes: 5
            }
            .to_string(),
            "got 3 inputs for a graph with 5 nodes"
        );
        assert!(SimError::Rule {
            node: 2,
            round: 7,
            source: RuleError::InsufficientValues { needed: 4, got: 1 },
        }
        .to_string()
        .contains("node 2, round 7"));
    }

    #[test]
    fn rule_error_is_chained_as_source() {
        let e = SimError::Rule {
            node: 0,
            round: 1,
            source: RuleError::NonFiniteInput { value: f64::NAN },
        };
        assert!(e.source().is_some());
    }
}
