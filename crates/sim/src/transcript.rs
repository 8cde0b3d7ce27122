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

use std::collections::HashMap;

use iabc_core::rules::UpdateRule;
use iabc_graph::{CompiledTopology, Digraph, NodeId, NodeSet};
use serde::{Deserialize, Serialize};

use crate::adversary::{Adversary, AdversaryView};
use crate::engine::{Kernel, SyncEngine};
use crate::error::SimError;
use crate::plan::{PlannedEdge, PlannedMessage, RoundPlan, RoundSlots};
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
/// The run is a [`crate::Simulation`]; each round's messages are copied
/// from the plan the adversary filled, in the kernel's slot order (honest
/// receivers ascending, each receiver's faulty senders ascending).
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
    check_inputs(graph.node_count(), inputs, &fault_set)?;
    let mut transcript = Transcript {
        node_count: graph.node_count(),
        fault_set: fault_set.clone(),
        initial_states: inputs.to_vec(),
        rounds: Vec::with_capacity(rounds),
    };
    let kernel = Kernel::new(graph, CompiledTopology::compile(graph, &fault_set), rule);
    let mut sim =
        SyncEngine::from_kernel(kernel, inputs, fault_set, Box::new(Lent(adversary)), true);
    for round in 1..=rounds {
        sim.step()?;
        let (edges, plan) = sim.last_plan();
        let messages = edges
            .iter()
            .map(|edge| {
                let (value, omitted) = match plan.get(edge.slot) {
                    PlannedMessage::Value(v) => (v, false),
                    PlannedMessage::Omit => (0.0, true),
                };
                MessageRecord {
                    sender: edge.sender_id(),
                    receiver: edge.receiver_id(),
                    value,
                    omitted,
                }
            })
            .collect();
        transcript.rounds.push(RoundTranscript {
            round,
            messages,
            states_after: sim.states().to_vec(),
        });
    }
    Ok(transcript)
}

/// The caller's adversary, lent to the kernel for one recording.
#[derive(Debug)]
struct Lent<'a>(&'a mut dyn Adversary);

impl Adversary for Lent<'_> {
    fn plan_round(
        &mut self,
        view: &AdversaryView<'_>,
        slots: RoundSlots<'_>,
        plan: &mut RoundPlan,
    ) {
        self.0.plan_round(view, slots, plan);
    }
}

/// Replays recorded traffic: `plans[t]` holds round `t + 1`'s messages in
/// the kernel's slot order.
#[derive(Debug)]
struct Recorded<'a> {
    plans: &'a [Vec<PlannedMessage>],
}

impl Adversary for Recorded<'_> {
    fn plan_round(
        &mut self,
        view: &AdversaryView<'_>,
        slots: RoundSlots<'_>,
        plan: &mut RoundPlan,
    ) {
        for (edge, &message) in slots.iter().zip(&self.plans[view.round - 1]) {
            if let PlannedMessage::Value(v) = message {
                plan.set_value(edge.slot, v);
            }
        }
    }
}

/// Each round's recorded message for every edge in `edges` (slot order),
/// looked up by `(sender, receiver)` in an index built once per round.
/// Stops at the first round missing a message: returns the plans of the
/// rounds before it, and that round's error.
fn recorded_plans(
    edges: &[PlannedEdge],
    transcript: &Transcript,
) -> (Vec<Vec<PlannedMessage>>, Option<ReplayError>) {
    let mut plans = Vec::with_capacity(transcript.rounds.len());
    for rt in &transcript.rounds {
        let mut recorded = HashMap::with_capacity(rt.messages.len());
        for m in &rt.messages {
            let message = if m.omitted {
                PlannedMessage::Omit
            } else {
                PlannedMessage::Value(m.value)
            };
            // Of two records for one edge, the first wins.
            recorded.entry((m.sender, m.receiver)).or_insert(message);
        }
        let mut plan = Vec::with_capacity(edges.len());
        for edge in edges {
            let (sender, receiver) = (edge.sender_id(), edge.receiver_id());
            let Some(&message) = recorded.get(&(sender, receiver)) else {
                let missing = ReplayError::MissingMessage {
                    round: rt.round,
                    sender,
                    receiver,
                };
                return (plans, Some(missing));
            };
            plan.push(message);
        }
        plans.push(plan);
    }
    (plans, None)
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
/// The replay is a [`crate::Simulation`] whose adversary plans every slot
/// from the round's recorded messages. A missing message is reported at
/// the start of its round, before that round's rule errors.
///
/// # Errors
///
/// Returns [`ReplayError`] naming the first divergence — any tampering with
/// recorded values or states is caught here. A transcript [`record`] could
/// not have written (non-finite initial states, a fault set over another
/// universe, no fault-free node) is a [`ReplayError::Shape`].
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
    check_inputs(n, &transcript.initial_states, fault_set)
        .map_err(|e| ReplayError::Shape(e.to_string()))?;
    let kernel = Kernel::new(graph, CompiledTopology::compile(graph, fault_set), rule);
    let (plans, missing) = recorded_plans(kernel.edges(), transcript);
    let mut sim = SyncEngine::from_kernel(
        kernel,
        &transcript.initial_states,
        fault_set.clone(),
        Box::new(Recorded { plans: &plans }),
        true,
    );
    for rt in &transcript.rounds[..plans.len()] {
        sim.step().map_err(|e| match e {
            SimError::Rule { source, .. } => ReplayError::Rule(source.to_string()),
            other => ReplayError::Rule(other.to_string()),
        })?;
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
            let (recorded, replayed) = (rt.states_after[i.index()], sim.states()[i.index()]);
            if (recorded - replayed).abs() > 1e-12 {
                return Err(ReplayError::StateMismatch {
                    round: rt.round,
                    node: i,
                    recorded,
                    replayed,
                });
            }
        }
    }
    match missing {
        Some(err) => Err(err),
        None => Ok(sim.states().to_vec()),
    }
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
    fn rule_failure_keeps_the_rule_message() {
        let (g, t) = record_k7();
        // K7 leaves 6 received values; trimming 4 per side needs 8.
        assert_eq!(
            replay(&g, &TrimmedMean::new(4), &t),
            Err(ReplayError::Rule(
                "rule needs at least 8 received values, got 6".into()
            ))
        );
    }

    #[test]
    fn missing_message_is_reported_before_that_rounds_rule_errors() {
        // Node 0's rule would fail first, but round 1 misses a message to
        // node 4: the missing message is reported at the start of the
        // round, before any rule runs.
        let (g, mut t) = record_k7();
        let at = t.rounds[0]
            .messages
            .iter()
            .position(|m| m.receiver == NodeId::new(4))
            .unwrap();
        t.rounds[0].messages.remove(at);
        assert_eq!(
            replay(&g, &TrimmedMean::new(4), &t),
            Err(ReplayError::MissingMessage {
                round: 1,
                sender: NodeId::new(5),
                receiver: NodeId::new(4),
            })
        );
    }

    #[test]
    fn unrecordable_transcripts_are_shape_errors() {
        // `record` validates its inputs, so no recording has a non-finite
        // initial state or a fault set over another universe.
        let rule = TrimmedMean::new(2);
        let (g, mut t) = record_k7();
        t.initial_states[0] = f64::NAN;
        assert!(matches!(replay(&g, &rule, &t), Err(ReplayError::Shape(_))));
        let (g, mut t) = record_k7();
        t.fault_set = NodeSet::from_indices(8, [5, 6]);
        assert!(matches!(replay(&g, &rule, &t), Err(ReplayError::Shape(_))));
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
