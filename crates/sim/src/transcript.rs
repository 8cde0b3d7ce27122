//! Message-level transcripts: record every delivered value of a run and
//! replay it later to verify (or audit) the execution.
//!
//! A [`Transcript`] captures, per round, every message delivered on a
//! faulty out-edge (honest messages are reproducible from the states, so
//! only Byzantine traffic needs recording) plus the resulting state vector.
//! [`replay`] re-executes the run feeding the recorded Byzantine values
//! instead of a live adversary and checks the states match round by round
//! — tampering with any recorded value is detected.
//!
//! Transcripts serialize to a line-oriented text format (stable, diffable)
//! and via `serde` derives.

use iabc_core::rules::UpdateRule;
use iabc_graph::{Digraph, NodeId, NodeSet};
use serde::{Deserialize, Serialize};

use crate::adversary::{Adversary, AdversaryView};
use crate::engine::sanitize;
use crate::error::SimError;
use crate::plan::{faulty_edges_of, PlannedMessage, RoundPlan, RoundSlots};
use crate::run::check_inputs;

/// One recorded Byzantine message (or omission).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MessageRecord {
    /// Sending (faulty) node.
    pub sender: NodeId,
    /// Receiving node.
    pub receiver: NodeId,
    /// Delivered value; ignored when `omitted`.
    pub value: f64,
    /// `true` if the message was withheld this round.
    pub omitted: bool,
}

/// All Byzantine traffic and the post-round states for one iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundTranscript {
    /// The iteration index `t ≥ 1`.
    pub round: usize,
    /// Byzantine messages delivered during this iteration.
    pub messages: Vec<MessageRecord>,
    /// Full state vector after the iteration.
    pub states_after: Vec<f64>,
}

/// A complete recorded execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transcript {
    /// Node count of the graph the run used.
    pub node_count: usize,
    /// The faulty set.
    pub fault_set: NodeSet,
    /// Initial states (`v[0]`).
    pub initial_states: Vec<f64>,
    /// Per-round records, in order.
    pub rounds: Vec<RoundTranscript>,
}

impl Transcript {
    /// Serializes to the line format:
    ///
    /// ```text
    /// # iabc transcript
    /// n <node_count>
    /// faulty <i> <i> ...
    /// init <v0> <v1> ...
    /// round <t>
    /// msg <sender> <receiver> <value|omit>
    /// states <v0> <v1> ...
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::from("# iabc transcript\n");
        out.push_str(&format!("n {}\n", self.node_count));
        out.push_str("faulty");
        for v in self.fault_set.iter() {
            out.push_str(&format!(" {v}"));
        }
        out.push('\n');
        out.push_str("init");
        for v in &self.initial_states {
            out.push_str(&format!(" {v:e}"));
        }
        out.push('\n');
        for r in &self.rounds {
            out.push_str(&format!("round {}\n", r.round));
            for m in &r.messages {
                if m.omitted {
                    out.push_str(&format!("msg {} {} omit\n", m.sender, m.receiver));
                } else {
                    out.push_str(&format!("msg {} {} {:e}\n", m.sender, m.receiver, m.value));
                }
            }
            out.push_str("states");
            for v in &r.states_after {
                out.push_str(&format!(" {v:e}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parses the [`Transcript::to_text`] format.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut node_count: Option<usize> = None;
        let mut fault_set: Option<NodeSet> = None;
        let mut initial_states: Vec<f64> = Vec::new();
        let mut rounds: Vec<RoundTranscript> = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let ln = ln + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let tag = parts.next().expect("non-empty line has a token");
            let parse_f64 = |s: &str| -> Result<f64, String> {
                s.parse().map_err(|_| format!("line {ln}: bad float {s:?}"))
            };
            match tag {
                "n" => {
                    let n: usize = parts
                        .next()
                        .ok_or(format!("line {ln}: missing node count"))?
                        .parse()
                        .map_err(|_| format!("line {ln}: bad node count"))?;
                    node_count = Some(n);
                    fault_set.get_or_insert_with(|| NodeSet::with_universe(n));
                }
                "faulty" => {
                    let n = node_count.ok_or(format!("line {ln}: `faulty` before `n`"))?;
                    let mut fs = NodeSet::with_universe(n);
                    for p in parts {
                        let i: usize = p.parse().map_err(|_| format!("line {ln}: bad node id"))?;
                        if i >= n {
                            return Err(format!("line {ln}: faulty node {i} out of range"));
                        }
                        fs.insert(NodeId::new(i));
                    }
                    fault_set = Some(fs);
                }
                "init" => {
                    initial_states = parts.map(parse_f64).collect::<Result<_, _>>()?;
                }
                "round" => {
                    let t: usize = parts
                        .next()
                        .ok_or(format!("line {ln}: missing round index"))?
                        .parse()
                        .map_err(|_| format!("line {ln}: bad round index"))?;
                    rounds.push(RoundTranscript {
                        round: t,
                        messages: Vec::new(),
                        states_after: Vec::new(),
                    });
                }
                "msg" => {
                    let current = rounds
                        .last_mut()
                        .ok_or(format!("line {ln}: `msg` before any `round`"))?;
                    let sender: usize = parts
                        .next()
                        .ok_or(format!("line {ln}: missing sender"))?
                        .parse()
                        .map_err(|_| format!("line {ln}: bad sender"))?;
                    let receiver: usize = parts
                        .next()
                        .ok_or(format!("line {ln}: missing receiver"))?
                        .parse()
                        .map_err(|_| format!("line {ln}: bad receiver"))?;
                    let v = parts.next().ok_or(format!("line {ln}: missing value"))?;
                    let (value, omitted) = if v == "omit" {
                        (0.0, true)
                    } else {
                        (parse_f64(v)?, false)
                    };
                    current.messages.push(MessageRecord {
                        sender: NodeId::new(sender),
                        receiver: NodeId::new(receiver),
                        value,
                        omitted,
                    });
                }
                "states" => {
                    let current = rounds
                        .last_mut()
                        .ok_or(format!("line {ln}: `states` before any `round`"))?;
                    current.states_after = parts.map(parse_f64).collect::<Result<_, _>>()?;
                }
                other => return Err(format!("line {ln}: unknown tag {other:?}")),
            }
        }
        Ok(Transcript {
            node_count: node_count.ok_or("missing `n` line".to_string())?,
            fault_set: fault_set.ok_or("missing `faulty` line".to_string())?,
            initial_states,
            rounds,
        })
    }
}

/// Records a live run: executes `rounds` iterations of `rule` on `graph`
/// under `adversary`, capturing all Byzantine traffic and per-round states.
///
/// # Errors
///
/// Propagates the usual [`SimError`] validation and rule failures.
pub fn record(
    graph: &Digraph,
    inputs: &[f64],
    fault_set: NodeSet,
    rule: &dyn UpdateRule,
    adversary: &mut dyn Adversary,
    rounds: usize,
) -> Result<Transcript, SimError> {
    let n = graph.node_count();
    check_inputs(n, inputs, &fault_set)?;
    let mut transcript = Transcript {
        node_count: n,
        fault_set: fault_set.clone(),
        initial_states: inputs.to_vec(),
        rounds: Vec::with_capacity(rounds),
    };
    // Double-buffered like the engines: faulty entries are never written,
    // so both buffers carry the faulty inputs forever. The adversary
    // plans each round once (two-phase protocol) over the same edge
    // enumeration the recording loop walks, so recorded values match the
    // pre-plan per-edge protocol bit for bit.
    let edges = faulty_edges_of(graph, &fault_set);
    let mut plan = RoundPlan::new();
    let mut states = inputs.to_vec();
    let mut next = inputs.to_vec();
    let mut received: Vec<f64> = Vec::new();
    for round in 1..=rounds {
        let view = AdversaryView {
            round,
            graph,
            states: &states,
            fault_set: &fault_set,
        };
        plan.begin(edges.len());
        adversary.plan_round(&view, RoundSlots::new(&edges, true), &mut plan);
        let mut cursor = 0u32;
        let mut messages = Vec::new();
        for i in graph.nodes() {
            if fault_set.contains(i) {
                continue;
            }
            received.clear();
            for j in graph.in_neighbors(i).iter() {
                let raw = if fault_set.contains(j) {
                    let planned = plan.get(cursor);
                    cursor += 1;
                    match planned {
                        PlannedMessage::Omit => {
                            messages.push(MessageRecord {
                                sender: j,
                                receiver: i,
                                value: 0.0,
                                omitted: true,
                            });
                            states[i.index()]
                        }
                        PlannedMessage::Value(v) => {
                            messages.push(MessageRecord {
                                sender: j,
                                receiver: i,
                                value: v,
                                omitted: false,
                            });
                            v
                        }
                    }
                } else {
                    states[j.index()]
                };
                received.push(sanitize(raw));
            }
            next[i.index()] = rule
                .update(states[i.index()], &mut received)
                .map_err(|source| SimError::Rule {
                    node: i.index(),
                    round,
                    source,
                })?;
        }
        std::mem::swap(&mut states, &mut next);
        transcript.rounds.push(RoundTranscript {
            round,
            messages,
            states_after: states.clone(),
        });
    }
    Ok(transcript)
}

/// A replay failure: where and how the transcript diverged.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// Structural mismatch between transcript and the given graph/inputs.
    Shape(String),
    /// A recorded Byzantine message was missing during replay.
    MissingMessage {
        /// The iteration where the message should have been recorded.
        round: usize,
        /// The faulty sender.
        sender: NodeId,
        /// The receiver.
        receiver: NodeId,
    },
    /// Replayed states diverged from the recorded `states_after`.
    StateMismatch {
        /// The iteration at which divergence was detected.
        round: usize,
        /// The first diverging node.
        node: NodeId,
        /// The recorded value.
        recorded: f64,
        /// The replayed value.
        replayed: f64,
    },
    /// An update rule failed during replay.
    Rule(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Shape(m) => write!(f, "transcript shape mismatch: {m}"),
            ReplayError::MissingMessage {
                round,
                sender,
                receiver,
            } => write!(
                f,
                "round {round}: no recorded message {sender} -> {receiver}"
            ),
            ReplayError::StateMismatch {
                round,
                node,
                recorded,
                replayed,
            } => write!(
                f,
                "round {round}: node {node} diverged (recorded {recorded}, replayed {replayed})"
            ),
            ReplayError::Rule(m) => write!(f, "rule failed during replay: {m}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Replays a transcript against `graph` and `rule`, verifying every round's
/// states. Returns the final state vector on success.
///
/// # Errors
///
/// Returns [`ReplayError`] naming the first divergence — any tampering with
/// recorded values or states is caught here.
pub fn replay(
    graph: &Digraph,
    rule: &dyn UpdateRule,
    transcript: &Transcript,
) -> Result<Vec<f64>, ReplayError> {
    let n = graph.node_count();
    if transcript.node_count != n {
        return Err(ReplayError::Shape(format!(
            "transcript has {} nodes, graph has {n}",
            transcript.node_count
        )));
    }
    if transcript.initial_states.len() != n {
        return Err(ReplayError::Shape(format!(
            "initial states length {} != {n}",
            transcript.initial_states.len()
        )));
    }
    let fault_set = &transcript.fault_set;
    let mut states = transcript.initial_states.clone();
    let mut next = transcript.initial_states.clone();
    let mut received: Vec<f64> = Vec::new();
    for rt in &transcript.rounds {
        for i in graph.nodes() {
            if fault_set.contains(i) {
                continue;
            }
            received.clear();
            for j in graph.in_neighbors(i).iter() {
                let raw = if fault_set.contains(j) {
                    let rec = rt
                        .messages
                        .iter()
                        .find(|m| m.sender == j && m.receiver == i)
                        .ok_or(ReplayError::MissingMessage {
                            round: rt.round,
                            sender: j,
                            receiver: i,
                        })?;
                    if rec.omitted {
                        states[i.index()]
                    } else {
                        rec.value
                    }
                } else {
                    states[j.index()]
                };
                received.push(sanitize(raw));
            }
            next[i.index()] = rule
                .update(states[i.index()], &mut received)
                .map_err(|e| ReplayError::Rule(e.to_string()))?;
        }
        // Verify honest coordinates against the recorded snapshot.
        if rt.states_after.len() != n {
            return Err(ReplayError::Shape(format!(
                "round {}: states_after length {} != {n}",
                rt.round,
                rt.states_after.len()
            )));
        }
        for i in graph.nodes() {
            if fault_set.contains(i) {
                continue;
            }
            let (recorded, replayed) = (rt.states_after[i.index()], next[i.index()]);
            if (recorded - replayed).abs() > 1e-12 {
                return Err(ReplayError::StateMismatch {
                    round: rt.round,
                    node: i,
                    recorded,
                    replayed,
                });
            }
        }
        std::mem::swap(&mut states, &mut next);
    }
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{CrashAdversary, ExtremesAdversary, SplitBrainAdversary};
    use iabc_core::rules::TrimmedMean;
    use iabc_graph::generators;

    fn record_k7() -> (Digraph, Transcript) {
        let g = generators::complete(7);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let mut adv = ExtremesAdversary::new(50.0);
        let t = record(&g, &inputs, faults, &rule, &mut adv, 12).unwrap();
        (g, t)
    }

    #[test]
    fn record_then_replay_verifies() {
        let (g, t) = record_k7();
        assert_eq!(t.rounds.len(), 12);
        // Each round records one message per (faulty sender, honest receiver)
        // in-edge: 2 senders × 5 receivers = 10.
        assert_eq!(t.rounds[0].messages.len(), 10);
        let rule = TrimmedMean::new(2);
        let final_states = replay(&g, &rule, &t).expect("faithful transcript replays");
        assert_eq!(&final_states, &t.rounds.last().unwrap().states_after);
    }

    #[test]
    fn tampered_value_is_detected() {
        let (g, mut t) = record_k7();
        t.rounds[3].messages[0].value += 1000.0;
        let rule = TrimmedMean::new(2);
        let err = replay(&g, &rule, &t).unwrap_err();
        // Tampering may or may not change the trimmed output of that round
        // (the value might be trimmed either way), but by round 4 at the
        // latest a mismatch or a clean pass is determined; here the +1000
        // pushes a previously-surviving value out, so we demand detection.
        match err {
            ReplayError::StateMismatch { .. } => {}
            other => panic!("expected state mismatch, got {other}"),
        }
    }

    #[test]
    fn tampered_states_are_detected() {
        let (g, mut t) = record_k7();
        let idx = t.rounds[5].states_after.len() - 3; // an honest node
        t.rounds[5].states_after[idx] += 1e-3;
        let rule = TrimmedMean::new(2);
        assert!(matches!(
            replay(&g, &rule, &t),
            Err(ReplayError::StateMismatch { round: 6, .. })
                | Err(ReplayError::StateMismatch { round: 5, .. })
        ));
    }

    #[test]
    fn missing_message_is_detected() {
        let (g, mut t) = record_k7();
        t.rounds[0].messages.remove(0);
        let rule = TrimmedMean::new(2);
        assert!(matches!(
            replay(&g, &rule, &t),
            Err(ReplayError::MissingMessage { round: 1, .. })
        ));
    }

    #[test]
    fn wrong_graph_is_a_shape_error() {
        let (_, t) = record_k7();
        let rule = TrimmedMean::new(2);
        let smaller = generators::complete(6);
        assert!(matches!(
            replay(&smaller, &rule, &t),
            Err(ReplayError::Shape(_))
        ));
    }

    #[test]
    fn text_roundtrip_preserves_transcript() {
        let (_, t) = record_k7();
        let text = t.to_text();
        let back = Transcript::from_text(&text).expect("parses");
        assert_eq!(back, t);
    }

    #[test]
    fn text_roundtrip_with_omissions() {
        let g = generators::complete(7);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let mut adv = CrashAdversary::new(2);
        let t = record(&g, &inputs, faults, &rule, &mut adv, 5).unwrap();
        assert!(t.rounds[2].messages.iter().all(|m| m.omitted));
        let back = Transcript::from_text(&t.to_text()).unwrap();
        assert_eq!(back, t);
        // And the omission-containing transcript replays cleanly.
        assert!(replay(&g, &rule, &back).is_ok());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Transcript::from_text("").is_err());
        assert!(
            Transcript::from_text("faulty 1\n").is_err(),
            "faulty before n"
        );
        assert!(
            Transcript::from_text("n 3\nmsg 0 1 2.0\n").is_err(),
            "msg before round"
        );
        assert!(
            Transcript::from_text("n 3\nfaulty 9\n").is_err(),
            "faulty out of range"
        );
        assert!(
            Transcript::from_text("n 3\nbogus\n").is_err(),
            "unknown tag"
        );
    }

    #[test]
    fn replay_reproduces_the_frozen_counterexample() {
        // The E1 freeze, transcribed and replayed: even across
        // serialization, the violating execution is byte-stable.
        let g = generators::chord(7, 5);
        let w = iabc_core::theorem1::find_violation(&g, 2).unwrap();
        let mut inputs = vec![0.5; 7];
        for v in w.left.iter() {
            inputs[v.index()] = 0.0;
        }
        for v in w.right.iter() {
            inputs[v.index()] = 1.0;
        }
        let rule = TrimmedMean::new(2);
        let mut adv = SplitBrainAdversary::from_witness(&w, 0.0, 1.0, 0.5);
        let t = record(&g, &inputs, w.fault_set.clone(), &rule, &mut adv, 50).unwrap();
        let back = Transcript::from_text(&t.to_text()).unwrap();
        let final_states = replay(&g, &rule, &back).unwrap();
        for v in w.left.iter() {
            assert_eq!(final_states[v.index()], 0.0);
        }
        for v in w.right.iter() {
            assert_eq!(final_states[v.index()], 1.0);
        }
    }
}
