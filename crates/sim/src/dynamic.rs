//! Time-varying topologies — iterative consensus when the communication
//! graph changes between rounds.
//!
//! The paper fixes one graph `G(V, E)` for the whole execution. Real
//! networks churn: links fade, radios hop, overlays reconfigure. This
//! module runs Algorithm 1 over a [`TopologySchedule`] — a function from
//! round number to graph — and makes precise which of the paper's
//! guarantees survive:
//!
//! * **Validity is per-round.** Theorem 2's argument only needs the round's
//!   own graph to give every fault-free node in-degree `≥ 2f` (with
//!   in-degree exactly `2f` the survivor set is empty and the node keeps
//!   its own value — still in-hull). So if every scheduled graph passes
//!   [`validity_floor`], states never leave the honest input hull, no
//!   matter how the schedule interleaves graphs.
//! * **Convergence needs recurring dwell.** The Lemma 5 contraction uses
//!   one fixed graph for the `l ≤ n − f − 1` rounds of a propagation
//!   phase. A schedule that *dwells* on a Theorem-1-satisfying graph for
//!   at least that long, infinitely often, therefore converges: each dwell
//!   window contracts the honest range by `(1 − αˡ/2)` and validity holds
//!   in between. Rapid switching between individually-satisfying graphs
//!   is *not* covered by the paper's argument — experiment X11 measures
//!   what actually happens (in practice round-robin switching converges
//!   comfortably; the bound is what is lost, not the behaviour).
//!
//! Violating graphs in the schedule are permitted: rounds spent on them
//! may simply fail to contract (the Theorem 1 adversary can freeze them),
//! and the run converges iff the satisfying dwells dominate.

use std::fmt;

use iabc_graph::{Digraph, NodeId, NodeSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::SimError;

/// A round-indexed communication topology. Rounds are 1-based, matching
/// the engine (`graph_at(1)` is the graph used by the first iteration).
/// `Sync` so that an engine borrowing a schedule stays `Send`.
pub trait TopologySchedule: fmt::Debug + Sync {
    /// Number of nodes; constant across rounds.
    fn node_count(&self) -> usize;

    /// The graph the given round communicates over.
    fn graph_at(&self, round: usize) -> &Digraph;

    /// The distinct graphs the schedule can ever produce (for condition
    /// checks: e.g. asserting each satisfies Theorem 1 or the validity
    /// floor).
    fn distinct_graphs(&self) -> Vec<&Digraph>;
}

/// A fixed graph is the one-graph schedule (the paper's setting): every
/// round communicates over it, so the synchronous engine runs a plain
/// `&Digraph` and a time-varying schedule through the same code.
impl TopologySchedule for Digraph {
    fn node_count(&self) -> usize {
        Digraph::node_count(self)
    }

    fn graph_at(&self, _round: usize) -> &Digraph {
        self
    }

    fn distinct_graphs(&self) -> Vec<&Digraph> {
        vec![self]
    }
}

/// Cycles through `graphs`, holding each for `dwell` consecutive rounds.
///
/// With `dwell ≥ n − f − 1` every full pass over a Theorem-1-satisfying
/// member contains a complete Lemma 5 propagation phase on that graph, so
/// the honest range provably contracts once per cycle (see module docs).
#[derive(Debug, Clone)]
pub struct RoundRobinSchedule {
    graphs: Vec<Digraph>,
    dwell: usize,
}

impl RoundRobinSchedule {
    /// Builds the schedule.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySchedule`] with no graphs, or
    /// [`SimError::ScheduleMismatch`] if the graphs disagree on node count.
    /// A `dwell` of zero is treated as one.
    pub fn new(graphs: Vec<Digraph>, dwell: usize) -> Result<Self, SimError> {
        let Some(first) = graphs.first() else {
            return Err(SimError::EmptySchedule);
        };
        let n = first.node_count();
        if let Some(bad) = graphs.iter().find(|g| g.node_count() != n) {
            return Err(SimError::ScheduleMismatch {
                expected: n,
                got: bad.node_count(),
            });
        }
        Ok(RoundRobinSchedule {
            graphs,
            dwell: dwell.max(1),
        })
    }

    /// How long each graph is held.
    pub fn dwell(&self) -> usize {
        self.dwell
    }
}

impl TopologySchedule for RoundRobinSchedule {
    fn node_count(&self) -> usize {
        self.graphs[0].node_count()
    }

    fn graph_at(&self, round: usize) -> &Digraph {
        let slot = round.saturating_sub(1) / self.dwell;
        &self.graphs[slot % self.graphs.len()]
    }

    fn distinct_graphs(&self) -> Vec<&Digraph> {
        self.graphs.iter().collect()
    }
}

/// Uses `before` up to and including round `switch_after`, then `after`
/// forever — models a one-shot repair or degradation event.
#[derive(Debug, Clone)]
pub struct SwitchOnceSchedule {
    before: Digraph,
    after: Digraph,
    switch_after: usize,
}

impl SwitchOnceSchedule {
    /// Builds the schedule; the switch happens after round `switch_after`
    /// (so `switch_after = 0` means `after` is used from the first round).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduleMismatch`] if node counts differ.
    pub fn new(before: Digraph, after: Digraph, switch_after: usize) -> Result<Self, SimError> {
        if before.node_count() != after.node_count() {
            return Err(SimError::ScheduleMismatch {
                expected: before.node_count(),
                got: after.node_count(),
            });
        }
        Ok(SwitchOnceSchedule {
            before,
            after,
            switch_after,
        })
    }
}

impl TopologySchedule for SwitchOnceSchedule {
    fn node_count(&self) -> usize {
        self.before.node_count()
    }

    fn graph_at(&self, round: usize) -> &Digraph {
        if round <= self.switch_after {
            &self.before
        } else {
            &self.after
        }
    }

    fn distinct_graphs(&self) -> Vec<&Digraph> {
        vec![&self.before, &self.after]
    }
}

/// A pre-sampled sequence of per-round graphs (cycled past its end).
/// Produced by [`sample_edge_drops`]; also usable directly for arbitrary
/// recorded schedules.
#[derive(Debug, Clone)]
pub struct SequenceSchedule {
    graphs: Vec<Digraph>,
}

impl SequenceSchedule {
    /// Wraps an explicit per-round sequence (round `t` uses
    /// `graphs[(t − 1) % len]`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySchedule`] or [`SimError::ScheduleMismatch`]
    /// like [`RoundRobinSchedule::new`].
    pub fn new(graphs: Vec<Digraph>) -> Result<Self, SimError> {
        let Some(first) = graphs.first() else {
            return Err(SimError::EmptySchedule);
        };
        let n = first.node_count();
        if let Some(bad) = graphs.iter().find(|g| g.node_count() != n) {
            return Err(SimError::ScheduleMismatch {
                expected: n,
                got: bad.node_count(),
            });
        }
        Ok(SequenceSchedule { graphs })
    }

    /// Number of sampled rounds before the sequence repeats.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// `false` always (construction rejects empty sequences); provided for
    /// the conventional pairing with [`SequenceSchedule::len`].
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }
}

impl TopologySchedule for SequenceSchedule {
    fn node_count(&self) -> usize {
        self.graphs[0].node_count()
    }

    fn graph_at(&self, round: usize) -> &Digraph {
        &self.graphs[round.saturating_sub(1) % self.graphs.len()]
    }

    fn distinct_graphs(&self) -> Vec<&Digraph> {
        self.graphs.iter().collect()
    }
}

/// Samples `rounds` per-round graphs from `base` by dropping each edge
/// independently with probability `drop_p`, **except** that no drop is
/// allowed to take a node's in-degree below `floor` (pass `floor = 2f` to
/// keep Algorithm 1 total and validity intact — see the module docs).
///
/// Deterministic in `seed`.
///
/// # Errors
///
/// Returns [`SimError::ScheduleMismatch`] if `base` itself has a node
/// below `floor` (the floor cannot be honoured), and
/// [`SimError::EmptySchedule`] when `rounds` is zero.
pub fn sample_edge_drops(
    base: &Digraph,
    drop_p: f64,
    floor: usize,
    seed: u64,
    rounds: usize,
) -> Result<SequenceSchedule, SimError> {
    if base.min_in_degree() < floor {
        return Err(SimError::ScheduleMismatch {
            expected: floor,
            got: base.min_in_degree(),
        });
    }
    if rounds == 0 {
        return Err(SimError::EmptySchedule);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let n = base.node_count();
    let mut graphs = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut g = base.clone();
        for v in 0..n {
            let v = NodeId::new(v);
            let in_neighbors: Vec<NodeId> = base.in_neighbors(v).iter().collect();
            let mut remaining = in_neighbors.len();
            for u in in_neighbors {
                if remaining > floor && rng.random_bool(drop_p) {
                    g.remove_edge(u, v);
                    remaining -= 1;
                }
            }
        }
        graphs.push(g);
    }
    SequenceSchedule::new(graphs)
}

/// `true` iff every fault-free node has in-degree `≥ 2f` in `g` — the
/// floor under which one Algorithm 1 round preserves validity (Theorem 2's
/// argument; see module docs). Faulty nodes need no floor: their updates
/// are never computed.
pub fn validity_floor(g: &Digraph, f: usize, fault_set: &NodeSet) -> bool {
    g.nodes()
        .filter(|v| !fault_set.contains(*v))
        .all(|v| g.in_degree(v) >= 2 * f)
}

/// A synchronous simulation over a time-varying topology: the same type
/// as [`crate::Simulation`], whose kernel reads each round's graph from
/// the schedule and rebuilds its compiled topology in place only when the
/// graph changes (see [`crate::SyncEngine`]).
///
/// # Examples
///
/// ```
/// use iabc_core::rules::TrimmedMean;
/// use iabc_graph::{generators, NodeSet};
/// use iabc_sim::adversary::ExtremesAdversary;
/// use iabc_sim::dynamic::RoundRobinSchedule;
/// use iabc_sim::{RunConfig, Scenario};
///
/// // Alternate every round between K7 and the core network: both satisfy
/// // Theorem 1 for f = 2, and the run converges under attack.
/// let base = generators::complete(7);
/// let schedule = RoundRobinSchedule::new(
///     vec![generators::complete(7), generators::core_network(7, 2)],
///     1,
/// )?;
/// let rule = TrimmedMean::new(2);
/// let mut sim = Scenario::on(&base)
///     .inputs(&[0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0])
///     .faults(NodeSet::from_indices(7, [5, 6]))
///     .rule(&rule)
///     .adversary(Box::new(ExtremesAdversary::new(1e6)))
///     .dynamic(&schedule)?;
/// let out = sim.run(&RunConfig::default())?;
/// assert!(out.converged && out.validity.is_valid());
/// # Ok::<(), iabc_sim::SimError>(())
/// ```
pub type DynamicSimulation<'a> = crate::Simulation<'a>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        ConformingAdversary, ConstantAdversary, ExtremesAdversary, SplitBrainAdversary,
    };
    use crate::{RunConfig, Simulation};
    use iabc_core::rules::TrimmedMean;
    use iabc_graph::generators;

    #[test]
    fn schedules_validate_node_counts() {
        assert!(matches!(
            RoundRobinSchedule::new(vec![], 1),
            Err(SimError::EmptySchedule)
        ));
        assert!(matches!(
            RoundRobinSchedule::new(vec![generators::complete(4), generators::complete(5)], 1),
            Err(SimError::ScheduleMismatch {
                expected: 4,
                got: 5
            })
        ));
        assert!(matches!(
            SwitchOnceSchedule::new(generators::complete(4), generators::complete(5), 3),
            Err(SimError::ScheduleMismatch { .. })
        ));
        assert!(matches!(
            SequenceSchedule::new(vec![]),
            Err(SimError::EmptySchedule)
        ));
    }

    #[test]
    fn round_robin_indexing_with_dwell() {
        let k4 = generators::complete(4);
        let c4 = generators::cycle(4);
        let s = RoundRobinSchedule::new(vec![k4.clone(), c4.clone()], 3).unwrap();
        assert_eq!(s.dwell(), 3);
        for round in 1..=3 {
            assert_eq!(
                s.graph_at(round).edge_count(),
                k4.edge_count(),
                "round {round}"
            );
        }
        for round in 4..=6 {
            assert_eq!(
                s.graph_at(round).edge_count(),
                c4.edge_count(),
                "round {round}"
            );
        }
        assert_eq!(s.graph_at(7).edge_count(), k4.edge_count());
        // Dwell zero is clamped to one.
        let s = RoundRobinSchedule::new(vec![k4.clone(), c4.clone()], 0).unwrap();
        assert_eq!(s.graph_at(1).edge_count(), k4.edge_count());
        assert_eq!(s.graph_at(2).edge_count(), c4.edge_count());
    }

    #[test]
    fn switch_once_boundary() {
        let s = SwitchOnceSchedule::new(generators::complete(4), generators::cycle(4), 5).unwrap();
        assert_eq!(
            s.graph_at(5).edge_count(),
            generators::complete(4).edge_count()
        );
        assert_eq!(s.graph_at(6).edge_count(), 4);
        assert_eq!(s.distinct_graphs().len(), 2);
    }

    #[test]
    fn one_graph_schedule_matches_fixed_graph_bit_for_bit() {
        let g = generators::complete(7);
        let schedule = RoundRobinSchedule::new(vec![g.clone()], 1).unwrap();
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);

        let mut fixed = Simulation::new(
            &g,
            &inputs,
            faults.clone(),
            &rule,
            Box::new(ConstantAdversary::new(1e9)),
        )
        .unwrap();
        let mut dynamic = DynamicSimulation::new(
            &schedule,
            &inputs,
            faults,
            &rule,
            Box::new(ConstantAdversary::new(1e9)),
        )
        .unwrap();
        for _ in 0..25 {
            fixed.step().unwrap();
            dynamic.step().unwrap();
            assert_eq!(fixed.states(), dynamic.states());
        }
    }

    #[test]
    fn alternating_satisfying_graphs_converges_under_attack() {
        let schedule = RoundRobinSchedule::new(
            vec![generators::complete(7), generators::core_network(7, 2)],
            1,
        )
        .unwrap();
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let mut sim = DynamicSimulation::new(
            &schedule,
            &inputs,
            faults,
            &rule,
            Box::new(ExtremesAdversary::new(1e6)),
        )
        .unwrap();
        let out = sim.run(&RunConfig::default()).unwrap();
        assert!(out.converged);
        assert!(out.validity.is_valid());
        // Consensus value inside the honest hull [0, 4].
        let v = out.trace.last().unwrap().states[0];
        assert!((0.0..=4.0).contains(&v));
    }

    #[test]
    fn violating_rounds_interleaved_with_satisfying_rounds_still_converge() {
        // chord(7,5) violates Theorem 1 at f = 2, K7 satisfies it; dwelling
        // on K7 for n − f − 1 = 4 rounds per cycle guarantees one full
        // contraction phase per cycle, so convergence survives the
        // violating interludes.
        let schedule =
            RoundRobinSchedule::new(vec![generators::chord(7, 5), generators::complete(7)], 4)
                .unwrap();
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let mut sim = DynamicSimulation::new(
            &schedule,
            &inputs,
            faults,
            &rule,
            Box::new(ExtremesAdversary::new(1e4)),
        )
        .unwrap();
        let out = sim.run(&RunConfig::default()).unwrap();
        assert!(out.converged, "final range {}", out.final_range);
        assert!(out.validity.is_valid());
    }

    #[test]
    fn permanent_violating_graph_freezes_like_the_static_engine() {
        // E1 replayed through a schedule: one fixed graph, the violating
        // chord(7,5), with the proof adversary freezes forever.
        let g = generators::chord(7, 5);
        let w = iabc_core::theorem1::find_violation(&g, 2).expect("violated");
        let schedule = SequenceSchedule::new(vec![g]).unwrap();
        let (m, m_cap) = (0.0, 1.0);
        let mut inputs = vec![0.5; 7];
        for v in w.left.iter() {
            inputs[v.index()] = m;
        }
        for v in w.right.iter() {
            inputs[v.index()] = m_cap;
        }
        let rule = TrimmedMean::new(2);
        let adv = SplitBrainAdversary::from_witness(&w, m, m_cap, 0.5);
        let mut sim = DynamicSimulation::new(
            &schedule,
            &inputs,
            w.fault_set.clone(),
            &rule,
            Box::new(adv),
        )
        .unwrap();
        for _ in 0..100 {
            sim.step().unwrap();
        }
        assert!(sim.honest_range() >= m_cap - m);
    }

    #[test]
    fn switch_once_unfreezes_after_repair() {
        // Start frozen on the violating chord(7,5); switch to K7 at round
        // 40 ("the operator added links"): the same adversary loses and the
        // run converges.
        let bad = generators::chord(7, 5);
        let w = iabc_core::theorem1::find_violation(&bad, 2).expect("violated");
        let schedule = SwitchOnceSchedule::new(bad, generators::complete(7), 40).unwrap();
        let (m, m_cap) = (0.0, 1.0);
        let mut inputs = vec![0.5; 7];
        for v in w.left.iter() {
            inputs[v.index()] = m;
        }
        for v in w.right.iter() {
            inputs[v.index()] = m_cap;
        }
        let rule = TrimmedMean::new(2);
        let adv = SplitBrainAdversary::from_witness(&w, m, m_cap, 0.5);
        let mut sim = DynamicSimulation::new(
            &schedule,
            &inputs,
            w.fault_set.clone(),
            &rule,
            Box::new(adv),
        )
        .unwrap();
        // Frozen during the violating prefix.
        for _ in 0..40 {
            sim.step().unwrap();
        }
        assert!(
            sim.honest_range() >= m_cap - m,
            "must be frozen before the switch"
        );
        let out = sim.run(&RunConfig::default()).unwrap();
        assert!(out.converged, "switching to K7 must unfreeze the run");
        assert!(out.validity.is_valid());
    }

    #[test]
    fn edge_drops_respect_the_floor() {
        let base = generators::complete(8); // in-degree 7
        let schedule = sample_edge_drops(&base, 0.4, 4, 42, 20).unwrap();
        assert_eq!(schedule.len(), 20);
        assert!(!schedule.is_empty());
        for g in schedule.distinct_graphs() {
            assert!(
                g.min_in_degree() >= 4,
                "floor violated: {}",
                g.min_in_degree()
            );
            assert!(g.edge_count() <= base.edge_count());
        }
        // Deterministic in the seed.
        let again = sample_edge_drops(&base, 0.4, 4, 42, 20).unwrap();
        for round in 1..=20 {
            assert_eq!(
                schedule.graph_at(round).edge_count(),
                again.graph_at(round).edge_count()
            );
        }
        // Some round must actually have dropped something at p = 0.4.
        assert!(
            (1..=20).any(|r| schedule.graph_at(r).edge_count() < base.edge_count()),
            "drop probability 0.4 over 20 rounds should drop at least one edge"
        );
    }

    #[test]
    fn edge_drop_run_converges_with_validity_floor() {
        let base = generators::complete(8);
        let f = 2;
        let schedule = sample_edge_drops(&base, 0.3, 2 * f, 7, 64).unwrap();
        let faults = NodeSet::from_indices(8, [6, 7]);
        for g in schedule.distinct_graphs() {
            assert!(validity_floor(g, f, &faults));
        }
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 0.0];
        let rule = TrimmedMean::new(f);
        let mut sim = DynamicSimulation::new(
            &schedule,
            &inputs,
            faults,
            &rule,
            Box::new(ExtremesAdversary::new(1e5)),
        )
        .unwrap();
        let out = sim.run(&RunConfig::default()).unwrap();
        assert!(
            out.validity.is_valid(),
            "validity floor must protect Equation 1"
        );
        assert!(out.converged, "final range {}", out.final_range);
    }

    #[test]
    fn sample_edge_drops_rejects_impossible_floor() {
        let base = generators::cycle(5); // in-degree 1
        assert!(matches!(
            sample_edge_drops(&base, 0.5, 2, 1, 10),
            Err(SimError::ScheduleMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            sample_edge_drops(&generators::complete(5), 0.5, 2, 1, 0),
            Err(SimError::EmptySchedule)
        ));
    }

    #[test]
    fn validity_floor_ignores_faulty_nodes() {
        // Node 0 has in-degree 1 but is faulty; the floor only binds
        // fault-free nodes.
        let mut g = generators::complete(5);
        let zero = NodeId::new(0);
        for v in 1..5 {
            if NodeId::new(v) != zero {
                g.remove_edge(NodeId::new(v), zero);
            }
        }
        g.add_edge(NodeId::new(1), zero);
        let faults = NodeSet::from_indices(5, [0]);
        assert!(validity_floor(&g, 1, &faults));
        assert!(!validity_floor(&g, 1, &NodeSet::with_universe(5)));
    }

    #[test]
    fn starving_round_surfaces_rule_error_with_round_number() {
        // K7 for two rounds, then a cycle (in-degree 1 < 2f): the failure
        // must name round 3.
        let schedule =
            RoundRobinSchedule::new(vec![generators::complete(7), generators::cycle(7)], 2)
                .unwrap();
        let rule = TrimmedMean::new(2);
        let mut sim = DynamicSimulation::new(
            &schedule,
            &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            NodeSet::with_universe(7),
            &rule,
            Box::new(ConformingAdversary::new()),
        )
        .unwrap();
        sim.step().unwrap();
        sim.step().unwrap();
        let err = sim.step().unwrap_err();
        assert!(matches!(err, SimError::Rule { round: 3, .. }));
    }
}
