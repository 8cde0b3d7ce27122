//! Spawning and wiring the per-node threads.
//!
//! One channel per directed edge, one thread per node. The synchronous
//! round discipline is purely protocol-level: a correct node sends its
//! round-`t` state on every out-edge, then blocks until one round-`t`
//! message has arrived per in-edge. Because every node (honest or faulty)
//! emits exactly one message per edge per round, the blocking receives
//! align rounds across the network with no shared clock.
//!
//! Round tags on messages are transport metadata modelling the synchronous
//! network's round boundaries (§2.1), not trust in the sender: a faulty
//! node may lie about the *value* arbitrarily and per-edge, but the
//! synchronous model guarantees each round's messages are delivered in that
//! round.

use crossbeam::channel::{unbounded, Receiver, Sender};

use iabc_core::rules::{sanitize, trim_kernel};
use iabc_graph::{Digraph, NodeId, NodeSet};

use crate::behavior::LocalByzantine;
use crate::error::RuntimeError;

#[derive(Debug, Clone, Copy)]
struct Message {
    round: usize,
    value: f64,
}

/// What a finished deployment reports.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployReport {
    /// Rounds executed.
    pub rounds: usize,
    /// Final states; faulty entries carry the node's input (their "state"
    /// is meaningless in the Byzantine model).
    pub final_states: Vec<f64>,
    /// The Byzantine set the run was configured with.
    pub fault_set: NodeSet,
}

impl DeployReport {
    /// Final spread `U − µ` over the fault-free nodes.
    pub fn honest_range(&self) -> f64 {
        let (lo, hi) = iabc_core::rules::honest_extremes(&self.final_states, &self.fault_set);
        if lo.is_finite() {
            hi - lo
        } else {
            0.0
        }
    }

    /// The fault-free nodes' final states, in node order.
    pub fn honest_states(&self) -> Vec<f64> {
        self.final_states
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.fault_set.contains(NodeId::new(*i)))
            .map(|(_, &v)| v)
            .collect()
    }
}

/// Up-front validation shared by both deployment modes (threaded and
/// multiplexed), abstracted over the topology representation: `is_faulty`
/// and `in_degree` answer for node indices `0..n`.
///
/// Checks, in order: input length, at least one fault-free node (when
/// `n > 0`), input finiteness, and every honest in-degree `>= 2f` so the
/// trim kernel's precondition can never fail mid-protocol.
pub(crate) fn validate_deployment(
    n: usize,
    inputs: &[f64],
    is_faulty: impl Fn(usize) -> bool,
    in_degree: impl Fn(usize) -> usize,
    f: usize,
) -> Result<(), RuntimeError> {
    if inputs.len() != n {
        return Err(RuntimeError::InputLengthMismatch {
            inputs: inputs.len(),
            nodes: n,
        });
    }
    if n > 0 && (0..n).all(&is_faulty) {
        return Err(RuntimeError::NoFaultFreeNodes);
    }
    if let Some((node, &value)) = inputs.iter().enumerate().find(|(_, v)| !v.is_finite()) {
        return Err(RuntimeError::NonFiniteInput { node, value });
    }
    for i in 0..n {
        if !is_faulty(i) && in_degree(i) < 2 * f {
            return Err(RuntimeError::InsufficientInDegree {
                node: i,
                in_degree: in_degree(i),
                needed: 2 * f,
            });
        }
    }
    Ok(())
}

/// Runs Algorithm 1 as `n` concurrent threads for `rounds` rounds.
///
/// Honest nodes execute the trimmed-mean protocol with fault bound `f`;
/// nodes in `fault_set` run the [`LocalByzantine`] strategy produced by
/// `byzantine` for them. Returns the final states.
///
/// # Errors
///
/// Returns [`RuntimeError`] if inputs are malformed or an honest node's
/// in-degree cannot support trimming `2f` values (checked up front so no
/// thread can fail mid-protocol), or if a node thread dies unexpectedly.
///
/// # Examples
///
/// See the crate-level example.
pub fn run_threaded(
    graph: &Digraph,
    inputs: &[f64],
    fault_set: &NodeSet,
    f: usize,
    rounds: usize,
    mut byzantine: impl FnMut(NodeId) -> Box<dyn LocalByzantine>,
) -> Result<DeployReport, RuntimeError> {
    let n = graph.node_count();
    if fault_set.universe() != n {
        return Err(RuntimeError::FaultSetMismatch {
            universe: fault_set.universe(),
            nodes: n,
        });
    }
    validate_deployment(
        n,
        inputs,
        |i| fault_set.contains(NodeId::new(i)),
        |i| graph.in_degree(NodeId::new(i)),
        f,
    )?;

    // One channel per edge. In-edges are wired in ascending sender order —
    // the same order the deterministic engine visits them.
    let mut outs_of: Vec<Vec<(NodeId, Sender<Message>)>> = (0..n).map(|_| Vec::new()).collect();
    let mut ins_of: Vec<Vec<(NodeId, Receiver<Message>)>> = (0..n).map(|_| Vec::new()).collect();
    for v in graph.nodes() {
        for u in graph.in_neighbors(v).iter() {
            let (tx, rx) = unbounded();
            outs_of[u.index()].push((v, tx));
            ins_of[v.index()].push((u, rx));
        }
    }

    enum Role {
        Honest(f64),
        Byzantine(Box<dyn LocalByzantine>, f64),
    }
    let mut roles: Vec<Role> = Vec::with_capacity(n);
    for i in graph.nodes() {
        if fault_set.contains(i) {
            roles.push(Role::Byzantine(byzantine(i), inputs[i.index()]));
        } else {
            roles.push(Role::Honest(inputs[i.index()]));
        }
    }

    let mut final_states = vec![0.0f64; n];
    let results: Vec<Result<f64, RuntimeError>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        let ins_iter = ins_of.into_iter();
        let outs_iter = outs_of.into_iter();
        for (i, ((role, ins), outs)) in roles.into_iter().zip(ins_iter).zip(outs_iter).enumerate() {
            handles.push(scope.spawn(move || match role {
                Role::Honest(state) => honest_node(i, state, f, rounds, &ins, &outs),
                Role::Byzantine(strategy, input) => {
                    byzantine_node(i, strategy, input, rounds, &ins, &outs)
                }
            }));
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(i, h)| {
                h.join()
                    .unwrap_or(Err(RuntimeError::NodeFailed { node: i }))
            })
            .collect()
    });
    for (i, r) in results.into_iter().enumerate() {
        final_states[i] = r?;
    }

    Ok(DeployReport {
        rounds,
        final_states,
        fault_set: fault_set.clone(),
    })
}

fn honest_node(
    index: usize,
    mut state: f64,
    f: usize,
    rounds: usize,
    ins: &[(NodeId, Receiver<Message>)],
    outs: &[(NodeId, Sender<Message>)],
) -> Result<f64, RuntimeError> {
    let mut received = Vec::with_capacity(ins.len());
    for t in 1..=rounds {
        for (_, tx) in outs {
            tx.send(Message {
                round: t,
                value: state,
            })
            .map_err(|_| RuntimeError::NodeFailed { node: index })?;
        }
        received.clear();
        for (_, rx) in ins {
            let msg = rx
                .recv()
                .map_err(|_| RuntimeError::NodeFailed { node: index })?;
            debug_assert_eq!(msg.round, t, "synchronous round discipline broken");
            received.push(sanitize(msg.value));
        }
        // The kernel's preconditions were established before any thread
        // spawned: in-degree >= 2f (checked by `run_threaded`) and every
        // received value finite (sanitized above), so this is the exact
        // arithmetic of `TrimmedMean::update` minus the re-validation.
        state = trim_kernel(state, &mut received, f);
    }
    Ok(state)
}

fn byzantine_node(
    index: usize,
    mut strategy: Box<dyn LocalByzantine>,
    input: f64,
    rounds: usize,
    ins: &[(NodeId, Receiver<Message>)],
    outs: &[(NodeId, Sender<Message>)],
) -> Result<f64, RuntimeError> {
    let mut inbox: Vec<(NodeId, f64)> = Vec::new();
    for t in 1..=rounds {
        for (receiver, tx) in outs {
            let lie = strategy.message(t, &inbox, *receiver);
            tx.send(Message {
                round: t,
                value: lie,
            })
            .map_err(|_| RuntimeError::NodeFailed { node: index })?;
        }
        inbox.clear();
        for (sender, rx) in ins {
            let msg = rx
                .recv()
                .map_err(|_| RuntimeError::NodeFailed { node: index })?;
            inbox.push((*sender, msg.value));
        }
    }
    Ok(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{ConstantLiar, InboxExtremist, SplitBrainLiar};
    use iabc_graph::generators;

    fn no_byzantine(_: NodeId) -> Box<dyn LocalByzantine> {
        unreachable!("no faulty nodes in this deployment")
    }

    #[test]
    fn fault_free_deployment_contracts() {
        let g = generators::complete(5);
        let inputs = [0.0, 10.0, 20.0, 30.0, 40.0];
        let report = run_threaded(
            &g,
            &inputs,
            &NodeSet::with_universe(5),
            1,
            100,
            no_byzantine,
        )
        .unwrap();
        assert_eq!(report.rounds, 100);
        assert!(
            report.honest_range() < 1e-9,
            "range {}",
            report.honest_range()
        );
        // Validity: final states inside the input hull.
        for v in report.honest_states() {
            assert!((0.0..=40.0).contains(&v));
        }
    }

    #[test]
    fn matches_the_deterministic_engine_exactly() {
        use iabc_core::rules::TrimmedMean;
        use iabc_sim::adversary::ConstantAdversary;
        use iabc_sim::Simulation;

        let g = generators::complete(7);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 9.0, 9.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rounds = 20;

        let report = run_threaded(&g, &inputs, &faults, 2, rounds, |_| {
            Box::new(ConstantLiar { value: 1e6 })
        })
        .unwrap();

        let rule = TrimmedMean::new(2);
        let mut sim = Simulation::new(
            &g,
            &inputs,
            faults.clone(),
            &rule,
            Box::new(ConstantAdversary::new(1e6)),
        )
        .unwrap();
        for _ in 0..rounds {
            sim.step().unwrap();
        }

        for i in 0..7usize {
            if !faults.contains(NodeId::new(i)) {
                assert_eq!(
                    report.final_states[i],
                    sim.states()[i],
                    "node {i}: threads and engine disagree"
                );
            }
        }
    }

    #[test]
    fn split_brain_freezes_violating_graph_in_real_threads() {
        // The Theorem 1 necessity proof, executed as an actual deployment:
        // on chord(7,5) with the paper's witness, L stays at m and R at M.
        let g = generators::chord(7, 5);
        let left = NodeSet::from_indices(7, [0, 2]);
        let right = NodeSet::from_indices(7, [1, 3, 4]);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let mut inputs = [0.0f64; 7];
        for i in right.iter() {
            inputs[i.index()] = 1.0;
        }
        let (l, r) = (left.clone(), right.clone());
        let report = run_threaded(&g, &inputs, &faults, 2, 50, move |_| {
            Box::new(SplitBrainLiar {
                left: l.clone(),
                right: r.clone(),
                m_minus: -0.5,
                m_plus: 1.5,
                mid: 0.5,
            })
        })
        .unwrap();
        for i in left.iter() {
            assert_eq!(report.final_states[i.index()], 0.0, "L node {i} moved");
        }
        for i in right.iter() {
            assert_eq!(report.final_states[i.index()], 1.0, "R node {i} moved");
        }
        assert_eq!(
            report.honest_range(),
            1.0,
            "no progress, exactly as Theorem 1 proves"
        );
    }

    #[test]
    fn inbox_extremist_is_absorbed_on_satisfying_graph() {
        let g = generators::core_network(7, 2);
        let inputs = [5.0, 25.0, 10.0, 20.0, 15.0, 0.0, 0.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let report = run_threaded(&g, &inputs, &faults, 2, 200, |_| {
            Box::new(InboxExtremist { delta: 1e6 })
        })
        .unwrap();
        assert!(
            report.honest_range() < 1e-6,
            "range {}",
            report.honest_range()
        );
        for v in report.honest_states() {
            assert!((5.0..=25.0).contains(&v), "validity violated: {v}");
        }
    }

    #[test]
    fn zero_rounds_returns_inputs() {
        let g = generators::complete(3);
        let inputs = [1.0, 2.0, 3.0];
        let report =
            run_threaded(&g, &inputs, &NodeSet::with_universe(3), 0, 0, no_byzantine).unwrap();
        assert_eq!(report.final_states, inputs);
    }

    #[test]
    fn constructor_validation() {
        let g = generators::complete(4);
        let all = NodeSet::full(4);
        let none = NodeSet::with_universe(4);
        let wrong_universe = NodeSet::with_universe(5);
        let byz = |_: NodeId| -> Box<dyn LocalByzantine> { Box::new(ConstantLiar { value: 0.0 }) };

        assert!(matches!(
            run_threaded(&g, &[0.0; 3], &none, 1, 1, byz),
            Err(RuntimeError::InputLengthMismatch {
                inputs: 3,
                nodes: 4
            })
        ));
        assert!(matches!(
            run_threaded(&g, &[0.0; 4], &wrong_universe, 1, 1, byz),
            Err(RuntimeError::FaultSetMismatch {
                universe: 5,
                nodes: 4
            })
        ));
        assert!(matches!(
            run_threaded(&g, &[0.0; 4], &all, 1, 1, byz),
            Err(RuntimeError::NoFaultFreeNodes)
        ));
        assert!(matches!(
            run_threaded(&g, &[0.0, f64::NAN, 0.0, 0.0], &none, 1, 1, byz),
            Err(RuntimeError::NonFiniteInput { node: 1, .. })
        ));
        // Path graph: in-degree 1 < 2f for f = 1 at honest nodes.
        let p = generators::path(3);
        assert!(matches!(
            run_threaded(&p, &[0.0; 3], &NodeSet::with_universe(3), 1, 1, byz),
            Err(RuntimeError::InsufficientInDegree { .. })
        ));
    }

    #[test]
    fn report_accessors() {
        let report = DeployReport {
            rounds: 3,
            final_states: vec![1.0, 5.0, 9.0],
            fault_set: NodeSet::from_indices(3, [1]),
        };
        assert_eq!(report.honest_states(), vec![1.0, 9.0]);
        assert_eq!(report.honest_range(), 8.0);
    }
}
