//! Vector-valued (multidimensional) consensus — coordinate-wise
//! Algorithm 1 on states in `ℝ^d`.
//!
//! The paper's inputs are single reals. Many of its motivating
//! applications (sensor fusion, vehicle formation, distributed estimation)
//! are naturally multidimensional. The straightforward lift runs
//! Algorithm 1 **independently per coordinate**: each round, a node trims
//! and averages coordinate `k` of the received vectors using only
//! coordinate `k`.
//!
//! # What the lift guarantees — and what it does not
//!
//! * **Per-coordinate validity and convergence.** Each coordinate is
//!   exactly a scalar Algorithm 1 execution (against the projection of the
//!   adversary's messages), so on a Theorem-1-satisfying graph every
//!   coordinate stays inside its honest input interval and the coordinate
//!   ranges all converge. Equivalently: states remain in the **axis-aligned
//!   bounding box** of the honest inputs.
//! * **Box hull, not convex hull.** The box is strictly weaker than the
//!   convex hull of the honest input *vectors*: different coordinates can
//!   be trimmed against different neighbour subsets, so the agreed vector
//!   may be a box point off the hull. The test
//!   `agreement_can_leave_the_convex_hull` (and experiment X13)
//!   exhibits this with honest inputs on a diagonal segment and an
//!   adversary steering agreement off the diagonal. True convex-hull
//!   validity requires the exact vector consensus machinery of the
//!   authors' follow-up work (Vaidya–Garg, PODC 2013 — Tverberg-point
//!   updates), which is out of scope here; this module documents the
//!   boundary rather than blurring it.
//!
//! The adversary interface is vector-native ([`VectorAdversary`]), so
//! attacks may correlate coordinates; [`CoordinateWise`] adapts a stack of
//! scalar [`Adversary`] strategies, one per axis.
//!
//! The engine runs on the synchronous kernel ([`crate::SyncEngine`]'s
//! node loop): the adversary plans the round once, one [`RoundPlan`] per
//! coordinate, and the kernel updates each coordinate column as one lane.

use std::fmt;

use iabc_core::rules::UpdateRule;
use iabc_graph::{CompiledTopology, Digraph, NodeId, NodeSet};

use crate::adversary::{Adversary, AdversaryView};
use crate::engine::Kernel;
use crate::error::SimError;
use crate::plan::{RoundPlan, RoundSlots};
use crate::run::{Engine, RunConfig, StepStatus};
use crate::trace::{ValidityReport, ValidityViolation};

/// Everything a full-information vector adversary sees when choosing a
/// message: per-coordinate state columns (`coords[k][i]` is coordinate `k`
/// of node `i`).
#[derive(Debug)]
pub struct VectorAdversaryView<'a> {
    /// Iteration about to be computed (`t ≥ 1`).
    pub round: usize,
    /// The network.
    pub graph: &'a Digraph,
    /// State columns: `coords[k][i]` = coordinate `k` of node `i`.
    pub coords: &'a [Vec<f64>],
    /// The faulty set `F`.
    pub fault_set: &'a NodeSet,
}

impl VectorAdversaryView<'_> {
    /// Dimension `d` of the state space.
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// The honest bounding box: per coordinate, `(µ, U)` over fault-free
    /// nodes.
    pub fn honest_box(&self) -> Vec<(f64, f64)> {
        self.coords
            .iter()
            .map(|col| {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for (i, &v) in col.iter().enumerate() {
                    if !self.fault_set.contains(NodeId::new(i)) {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
                (lo, hi)
            })
            .collect()
    }
}

/// A joint strategy for all faulty nodes over vector states.
pub trait VectorAdversary: fmt::Debug + Send {
    /// Plans every faulty-edge message of the round — the vector form of
    /// [`Adversary::plan_round`], called once per round. `plans[k]` holds
    /// coordinate `k` of each message, keyed by the slots `slots` names
    /// (one plan per coordinate, so `plans.len() == view.dim()`). Every
    /// slot arrives [`crate::plan::PlannedMessage::Omit`], which delivers
    /// the **receiver's own coordinate**: any coordinate the adversary
    /// leaves unplanned stays in-hull.
    fn plan_round(
        &mut self,
        view: &VectorAdversaryView<'_>,
        slots: RoundSlots<'_>,
        plans: &mut [RoundPlan],
    );

    /// Short identifier for reports.
    fn name(&self) -> &'static str {
        "vector-adversary"
    }
}

/// Adapts one scalar [`Adversary`] per coordinate (independent axes).
///
/// This is the natural product construction: coordinate `k`'s messages come
/// from `strategies[k]` viewing only coordinate `k`'s states — exactly the
/// model under which the per-coordinate guarantees are inherited. Each
/// strategy plans its coordinate's plan over the engine's slots, so its
/// RNG stream draws in the same slot order as a scalar engine's would.
#[derive(Debug)]
pub struct CoordinateWise {
    strategies: Vec<Box<dyn Adversary>>,
}

impl CoordinateWise {
    /// Builds the adapter from one strategy per coordinate.
    pub fn new(strategies: Vec<Box<dyn Adversary>>) -> Self {
        CoordinateWise { strategies }
    }
}

impl VectorAdversary for CoordinateWise {
    fn plan_round(
        &mut self,
        view: &VectorAdversaryView<'_>,
        slots: RoundSlots<'_>,
        plans: &mut [RoundPlan],
    ) {
        let coordinates = self.strategies.iter_mut().zip(view.coords).zip(plans);
        for ((strategy, states), plan) in coordinates {
            let scalar_view = AdversaryView {
                round: view.round,
                graph: view.graph,
                states,
                fault_set: view.fault_set,
            };
            strategy.plan_round(&scalar_view, slots, plan);
        }
    }

    fn name(&self) -> &'static str {
        "coordinate-wise"
    }
}

/// A vector-native attack that steers the agreement **off the convex hull**
/// of the honest inputs while staying inside the per-coordinate box: it
/// pushes coordinate 0 toward the box minimum and all other coordinates
/// toward the box maximum. Against honest inputs on a diagonal (where the
/// hull is the diagonal itself), the limit lands near an off-diagonal box
/// corner — the module-level caveat made executable. The box corner is
/// computed once per round and written into every slot.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct CornerPullAdversary;

impl CornerPullAdversary {
    /// Creates the adversary.
    pub fn new() -> Self {
        CornerPullAdversary
    }
}

impl VectorAdversary for CornerPullAdversary {
    fn plan_round(
        &mut self,
        view: &VectorAdversaryView<'_>,
        slots: RoundSlots<'_>,
        plans: &mut [RoundPlan],
    ) {
        for (k, (plan, (lo, hi))) in plans.iter_mut().zip(view.honest_box()).enumerate() {
            let corner = if k == 0 { lo } else { hi };
            for edge in slots.iter() {
                plan.set_value(edge.slot, corner);
            }
        }
    }

    fn name(&self) -> &'static str {
        "corner-pull"
    }
}

/// Outcome of a vector consensus run.
#[derive(Debug)]
pub struct VectorOutcome {
    /// `true` iff every coordinate's honest range reached `epsilon`.
    pub converged: bool,
    /// Rounds executed.
    pub rounds: usize,
    /// Final per-coordinate honest ranges.
    pub final_ranges: Vec<f64>,
    /// `true` iff every honest state stayed inside the honest input box in
    /// every round (per-coordinate Equation 1, audited with tolerance
    /// `1e-9`).
    pub box_validity: bool,
}

/// Coordinate-wise Algorithm 1 over vector states.
///
/// # Examples
///
/// ```
/// use iabc_core::rules::TrimmedMean;
/// use iabc_graph::{generators, NodeSet};
/// use iabc_sim::adversary::ExtremesAdversary;
/// use iabc_sim::vector::{CoordinateWise, VectorSimConfig, VectorSimulation};
///
/// // 2-D sensor fusion on K7 with two Byzantine sensors.
/// let g = generators::complete(7);
/// let inputs: Vec<[f64; 2]> = vec![
///     [0.0, 10.0], [1.0, 11.0], [2.0, 12.0], [3.0, 13.0], [4.0, 14.0],
///     [0.0, 0.0], [0.0, 0.0],
/// ];
/// let inputs: Vec<Vec<f64>> = inputs.into_iter().map(|p| p.to_vec()).collect();
/// let faults = NodeSet::from_indices(7, [5, 6]);
/// let rule = TrimmedMean::new(2);
/// let adv = CoordinateWise::new(vec![
///     Box::new(ExtremesAdversary::new(1e6)),
///     Box::new(ExtremesAdversary::new(1e6)),
/// ]);
/// let mut sim = VectorSimulation::new(&g, &inputs, faults, &rule, Box::new(adv))?;
/// let out = sim.run(&VectorSimConfig::default())?;
/// assert!(out.converged && out.box_validity);
/// # Ok::<(), iabc_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct VectorSimulation<'a> {
    graph: &'a Digraph,
    /// The node loop every coordinate runs through.
    kernel: Kernel<'a, &'a dyn UpdateRule>,
    fault_set: NodeSet,
    adversary: Box<dyn VectorAdversary>,
    /// Column-major states: `coords[k][i]`.
    coords: Vec<Vec<f64>>,
    /// Double buffer written by [`VectorSimulation::step`] and swapped in.
    next_coords: Vec<Vec<f64>>,
    /// The round's plans, one per coordinate (retained allocations).
    plans: Vec<RoundPlan>,
    round: usize,
    /// Row-major flattened view (`flat[i*d + k]`) kept in sync with
    /// `coords` for the [`Engine`] state surface.
    flat: Vec<f64>,
    /// `fault_set` expanded to the `n*d` flattened index space.
    flat_faults: NodeSet,
    /// Per-coordinate honest hulls `(µ_k, U_k)`, ratcheted each step for
    /// the box-validity audit (per-coordinate Equation 1).
    boxes: Vec<(f64, f64)>,
    /// Violations of the per-coordinate audit, recorded as they happen.
    box_violations: Vec<ValidityViolation>,
}

/// Configuration for a vector run.
#[derive(Debug, Clone)]
pub struct VectorSimConfig {
    /// Convergence threshold applied to every coordinate's honest range.
    pub epsilon: f64,
    /// Hard cap on iterations.
    pub max_rounds: usize,
}

impl Default for VectorSimConfig {
    fn default() -> Self {
        VectorSimConfig {
            epsilon: 1e-6,
            max_rounds: 10_000,
        }
    }
}

impl<'a> VectorSimulation<'a> {
    /// Sets up a run from row-major `inputs` (one vector per node, all the
    /// same dimension `d ≥ 1`).
    ///
    /// # Errors
    ///
    /// Returns the same shape errors as [`crate::Simulation::new`];
    /// dimension disagreements surface as
    /// [`SimError::InputLengthMismatch`] (the offending row's length vs the
    /// first row's).
    pub fn new(
        graph: &'a Digraph,
        inputs: &[Vec<f64>],
        fault_set: NodeSet,
        rule: &'a dyn UpdateRule,
        adversary: Box<dyn VectorAdversary>,
    ) -> Result<Self, SimError> {
        let n = graph.node_count();
        if inputs.len() != n {
            return Err(SimError::InputLengthMismatch {
                inputs: inputs.len(),
                nodes: n,
            });
        }
        let d = inputs.first().map_or(0, Vec::len);
        if d == 0 {
            return Err(SimError::InputLengthMismatch {
                inputs: 0,
                nodes: n,
            });
        }
        if let Some(bad) = inputs.iter().find(|row| row.len() != d) {
            return Err(SimError::InputLengthMismatch {
                inputs: bad.len(),
                nodes: d,
            });
        }
        if fault_set.universe() != n {
            return Err(SimError::FaultSetMismatch {
                universe: fault_set.universe(),
                nodes: n,
            });
        }
        if fault_set.len() == n {
            return Err(SimError::NoFaultFreeNodes);
        }
        for (node, row) in inputs.iter().enumerate() {
            if let Some(&value) = row.iter().find(|v| !v.is_finite()) {
                return Err(SimError::NonFiniteInput { node, value });
            }
        }
        let kernel = Kernel::new(graph, CompiledTopology::compile(graph, &fault_set), rule);
        let coords: Vec<Vec<f64>> = (0..d)
            .map(|k| inputs.iter().map(|row| row[k]).collect())
            .collect();
        let next_coords = coords.clone();
        let flat = inputs.concat();
        let flat_faults = NodeSet::from_indices(
            n * d,
            (0..n)
                .filter(|&i| fault_set.contains(NodeId::new(i)))
                .flat_map(|i| (i * d)..((i + 1) * d)),
        );
        let boxes = coords
            .iter()
            .map(|col| honest_extremes(col, &fault_set))
            .collect();
        Ok(VectorSimulation {
            graph,
            kernel,
            fault_set,
            adversary,
            coords,
            next_coords,
            plans: std::iter::repeat_with(RoundPlan::new).take(d).collect(),
            round: 0,
            flat,
            flat_faults,
            boxes,
            box_violations: Vec::new(),
        })
    }

    /// Re-derives the row-major flattened cache from `coords`.
    fn refresh_flat(&mut self) {
        let d = self.coords.len();
        for (k, col) in self.coords.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                self.flat[i * d + k] = v;
            }
        }
    }

    /// Current iteration count.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Dimension of the state space.
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// The state vector of node `i` (row-major copy).
    pub fn state_of(&self, i: NodeId) -> Vec<f64> {
        self.coords.iter().map(|col| col[i.index()]).collect()
    }

    /// Per-coordinate honest ranges `U_k − µ_k`.
    pub fn honest_ranges(&self) -> Vec<f64> {
        self.coords
            .iter()
            .map(|col| {
                let (lo, hi) = honest_extremes(col, &self.fault_set);
                hi - lo
            })
            .collect()
    }

    /// Retains a pool of `jobs` workers (`0` = all available cores) that
    /// every coordinate's node loop is fanned across; bit-for-bit
    /// identical to serial execution for any value.
    #[must_use]
    pub(crate) fn with_jobs(mut self, jobs: usize) -> Self {
        self.kernel.set_jobs(jobs);
        self
    }

    /// Executes one synchronous iteration: the adversary plans the round
    /// once, one [`RoundPlan`] per coordinate, then the kernel's node loop
    /// updates each coordinate column from its plan into the double
    /// buffer, and the buffers swap — zero steady-state allocation per
    /// round.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Rule`] if the update rule fails at some node —
    /// the lowest failing node, as a node-by-node sweep would report it.
    pub fn step(&mut self) -> Result<StepStatus, SimError> {
        self.round += 1;
        let view = VectorAdversaryView {
            round: self.round,
            graph: self.graph,
            coords: &self.coords,
            fault_set: &self.fault_set,
        };
        for plan in &mut self.plans {
            plan.begin(self.kernel.plan_len());
        }
        let slots = RoundSlots::new(self.kernel.edges(), false);
        self.adversary.plan_round(&view, slots, &mut self.plans);
        let (kernel, round) = (&self.kernel, self.round);
        let failure = self
            .coords
            .iter()
            .zip(&mut self.next_coords)
            .zip(&self.plans)
            .filter_map(|((states, next), plan)| kernel.node_loop(round, states, plan, next).err())
            .min_by_key(|err| match err {
                SimError::Rule { node, .. } => *node,
                _ => usize::MAX,
            });
        if let Some(err) = failure {
            return Err(err);
        }
        std::mem::swap(&mut self.coords, &mut self.next_coords);
        self.refresh_flat();
        self.audit_boxes();
        Ok(StepStatus::Progressed)
    }

    /// Per-coordinate Equation 1: each coordinate's honest hull must only
    /// shrink. Ratchets `boxes` to the current hulls and records any
    /// expansion (beyond fp tolerance) as a violation.
    fn audit_boxes(&mut self) {
        const TOL: f64 = 1e-9;
        for (k, col) in self.coords.iter().enumerate() {
            let (lo, hi) = honest_extremes(col, &self.fault_set);
            let (blo, bhi) = self.boxes[k];
            if lo < blo - TOL || hi > bhi + TOL {
                self.box_violations.push(ValidityViolation {
                    round: self.round,
                    description: format!(
                        "coordinate {k}: hull [{blo:.6}, {bhi:.6}] expanded to [{lo:.6}, {hi:.6}]"
                    ),
                });
            }
            self.boxes[k] = (lo, hi);
        }
    }

    /// Runs via the shared [`Engine::run`] driver until every
    /// coordinate's honest range is `≤ config.epsilon` or the round cap
    /// fires, auditing per-coordinate validity throughout.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Rule`] from [`VectorSimulation::step`].
    pub fn run(&mut self, config: &VectorSimConfig) -> Result<VectorOutcome, SimError> {
        let outcome = Engine::run(
            self,
            &RunConfig {
                record_states: false,
                epsilon: config.epsilon,
                max_rounds: config.max_rounds,
            },
        )?;
        Ok(VectorOutcome {
            converged: outcome.converged,
            rounds: outcome.rounds,
            final_ranges: self.honest_ranges(),
            box_validity: outcome.validity.is_valid(),
        })
    }
}

/// The [`Engine`] view of a vector run: states are exposed **row-major
/// flattened** (`states()[i*d + k]` is coordinate `k` of node `i`, with the
/// fault set expanded to match), and `honest_range` is the **maximum
/// per-coordinate** fault-free range — so the shared driver's convergence
/// check means "every coordinate within epsilon". Validity comes from the
/// engine's native **per-coordinate** box audit (via
/// [`Engine::native_validity`]) rather than the flattened trace extremes:
/// the union hull across coordinates cannot see one coordinate escaping
/// its own hull while staying inside another's, the per-coordinate audit
/// can. [`VectorSimulation::run`] reports the same audit as
/// [`VectorOutcome::box_validity`].
impl Engine for VectorSimulation<'_> {
    fn step(&mut self) -> Result<StepStatus, SimError> {
        VectorSimulation::step(self)
    }

    fn round(&self) -> usize {
        self.round
    }

    fn states(&self) -> &[f64] {
        &self.flat
    }

    // Deliberately NOT `self.fault_set`: the Engine surface indexes the
    // flattened `n*d` state space, so the matching expanded set is returned.
    #[allow(clippy::misnamed_getters)]
    fn fault_set(&self) -> &NodeSet {
        &self.flat_faults
    }

    // Scope the box audit to this run: re-baseline the hulls at the
    // current state and drop violations recorded by earlier steps/runs,
    // matching the run-window coverage of the trace audit.
    fn begin_run(&mut self) {
        self.box_violations.clear();
        self.boxes = self
            .coords
            .iter()
            .map(|col| honest_extremes(col, &self.fault_set))
            .collect();
    }

    fn honest_range(&self) -> f64 {
        self.honest_ranges().into_iter().fold(0.0, f64::max)
    }

    // The driver's fused trace extremes only see the flattened union hull;
    // convergence must mean "every coordinate within epsilon", so the
    // engine supplies its per-coordinate maximum range instead.
    fn native_range(&self) -> Option<f64> {
        Some(self.honest_range())
    }

    fn native_validity(&self) -> Option<ValidityReport> {
        Some(ValidityReport {
            violations: self.box_violations.clone(),
        })
    }
}

/// `(µ, U)` of one coordinate column over fault-free nodes.
fn honest_extremes(col: &[f64], fault_set: &NodeSet) -> (f64, f64) {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (i, &v) in col.iter().enumerate() {
        if !fault_set.contains(NodeId::new(i)) {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{ConformingAdversary, ConstantAdversary, ExtremesAdversary};
    use iabc_core::rules::TrimmedMean;
    use iabc_graph::generators;

    fn rows(rows: &[&[f64]]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn constructor_validates_shapes() {
        let g = generators::complete(3);
        let rule = TrimmedMean::new(0);
        let ok = rows(&[&[0.0, 1.0], &[1.0, 2.0], &[2.0, 3.0]]);
        let adv = || Box::new(CoordinateWise::new(vec![])) as Box<dyn VectorAdversary>;
        assert!(VectorSimulation::new(&g, &ok, NodeSet::with_universe(3), &rule, adv()).is_ok());
        // Wrong node count.
        let short = rows(&[&[0.0], &[1.0]]);
        assert!(matches!(
            VectorSimulation::new(&g, &short, NodeSet::with_universe(3), &rule, adv()),
            Err(SimError::InputLengthMismatch {
                inputs: 2,
                nodes: 3
            })
        ));
        // Ragged dimensions.
        let ragged = rows(&[&[0.0, 1.0], &[1.0], &[2.0, 3.0]]);
        assert!(matches!(
            VectorSimulation::new(&g, &ragged, NodeSet::with_universe(3), &rule, adv()),
            Err(SimError::InputLengthMismatch { .. })
        ));
        // Zero-dimensional states.
        let empty = rows(&[&[], &[], &[]]);
        assert!(
            VectorSimulation::new(&g, &empty, NodeSet::with_universe(3), &rule, adv()).is_err()
        );
        // Non-finite input.
        let nan = rows(&[&[0.0, f64::NAN], &[1.0, 2.0], &[2.0, 3.0]]);
        assert!(matches!(
            VectorSimulation::new(&g, &nan, NodeSet::with_universe(3), &rule, adv()),
            Err(SimError::NonFiniteInput { node: 0, .. })
        ));
        // All faulty.
        assert!(matches!(
            VectorSimulation::new(&g, &ok, NodeSet::full(3), &rule, adv()),
            Err(SimError::NoFaultFreeNodes)
        ));
    }

    #[test]
    fn benign_vector_run_converges_per_coordinate() {
        let g = generators::complete(5);
        let inputs = rows(&[
            &[0.0, 100.0],
            &[1.0, 90.0],
            &[2.0, 80.0],
            &[3.0, 70.0],
            &[4.0, 60.0],
        ]);
        let rule = TrimmedMean::new(0);
        let adv = CoordinateWise::new(vec![
            Box::new(ConformingAdversary::new()),
            Box::new(ConformingAdversary::new()),
        ]);
        let mut sim =
            VectorSimulation::new(&g, &inputs, NodeSet::with_universe(5), &rule, Box::new(adv))
                .unwrap();
        assert_eq!(sim.dim(), 2);
        let out = sim.run(&VectorSimConfig::default()).unwrap();
        assert!(out.converged);
        assert!(out.box_validity);
        assert_eq!(out.final_ranges.len(), 2);
        // Complete-graph equal weights preserve each coordinate's average.
        let v = sim.state_of(NodeId::new(0));
        assert!(
            (v[0] - 2.0).abs() < 1e-3,
            "coordinate 0 settled at {}",
            v[0]
        );
        assert!(
            (v[1] - 80.0).abs() < 1e-2,
            "coordinate 1 settled at {}",
            v[1]
        );
    }

    #[test]
    fn byzantine_vector_run_stays_in_the_box() {
        let g = generators::complete(7);
        let inputs = rows(&[
            &[0.0, 10.0],
            &[1.0, 11.0],
            &[2.0, 12.0],
            &[3.0, 13.0],
            &[4.0, 14.0],
            &[0.0, 0.0],
            &[0.0, 0.0],
        ]);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let adv = CoordinateWise::new(vec![
            Box::new(ConstantAdversary::new(1e9)),
            Box::new(ExtremesAdversary::new(1e7)),
        ]);
        let mut sim = VectorSimulation::new(&g, &inputs, faults, &rule, Box::new(adv)).unwrap();
        let out = sim.run(&VectorSimConfig::default()).unwrap();
        assert!(out.converged);
        assert!(out.box_validity);
        let v = sim.state_of(NodeId::new(0));
        assert!((0.0..=4.0).contains(&v[0]), "x = {} escaped", v[0]);
        assert!((10.0..=14.0).contains(&v[1]), "y = {} escaped", v[1]);
    }

    #[test]
    fn agreement_can_leave_the_convex_hull() {
        // The honest inputs lie on the diagonal y = x: their convex hull is
        // that segment. The corner-pull adversary pushes x down and y up;
        // the run stays inside the box (validity per coordinate) yet
        // converges to a point measurably off the diagonal — the documented
        // boundary of coordinate-wise lifting.
        let g = generators::complete(7);
        let inputs = rows(&[
            &[0.0, 0.0],
            &[1.0, 1.0],
            &[2.0, 2.0],
            &[3.0, 3.0],
            &[4.0, 4.0],
            &[2.0, 2.0],
            &[2.0, 2.0],
        ]);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let mut sim = VectorSimulation::new(
            &g,
            &inputs,
            faults,
            &rule,
            Box::new(CornerPullAdversary::new()),
        )
        .unwrap();
        let out = sim.run(&VectorSimConfig::default()).unwrap();
        assert!(out.converged);
        assert!(out.box_validity, "box validity must hold even off-hull");
        let v = sim.state_of(NodeId::new(0));
        assert!((0.0..=4.0).contains(&v[0]));
        assert!((0.0..=4.0).contains(&v[1]));
        assert!(
            (v[0] - v[1]).abs() > 0.5,
            "agreement ({}, {}) unexpectedly stayed near the diagonal hull",
            v[0],
            v[1]
        );
    }

    #[test]
    fn wrong_dimension_payloads_are_padded_in_hull() {
        // An adversary that plans only 1 coordinate of 2: the unplanned
        // coordinate delivers the receiver's own state, so the run must
        // stay valid.
        #[derive(Debug)]
        struct Short;
        impl VectorAdversary for Short {
            fn plan_round(
                &mut self,
                _view: &VectorAdversaryView<'_>,
                slots: RoundSlots<'_>,
                plans: &mut [RoundPlan],
            ) {
                for edge in slots.iter() {
                    plans[0].set_value(edge.slot, 1e9);
                }
            }
        }
        let g = generators::complete(7);
        let inputs = rows(&[
            &[0.0, 10.0],
            &[1.0, 11.0],
            &[2.0, 12.0],
            &[3.0, 13.0],
            &[4.0, 14.0],
            &[2.0, 12.0],
            &[2.0, 12.0],
        ]);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = TrimmedMean::new(2);
        let mut sim = VectorSimulation::new(&g, &inputs, faults, &rule, Box::new(Short)).unwrap();
        let out = sim.run(&VectorSimConfig::default()).unwrap();
        assert!(out.converged);
        assert!(out.box_validity);
        // Final states pinned under the per-edge protocol `plan_round` replaced.
        assert_eq!(out.rounds, 36);
        let bits: Vec<u64> = crate::Engine::states(&sim)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            bits,
            [
                0x4008000000000000,
                0x4027fffff0a32d01,
                0x4008000000000000,
                0x4027fffff0a32d01,
                0x4008000000000000,
                0x4028000000000000,
                0x4008000000000000,
                0x402800000f5cd2fc,
                0x4008000000000000,
                0x402800000f5cd2fc,
                0x4000000000000000,
                0x4028000000000000,
                0x4000000000000000,
                0x4028000000000000,
            ]
        );
    }

    #[test]
    fn engine_validity_is_per_coordinate_not_union_hull() {
        use iabc_core::rules::Mean;
        // Coordinate 0's honest hull [0, 1] sits strictly inside
        // coordinate 1's range [10, 20]. An un-trimmed Mean rule lets a
        // constant-5 lie drag coordinate 0 outside its own hull while the
        // union hull across coordinates never moves — so a flattened-trace
        // audit would report valid. The engine's native per-coordinate
        // audit must flag it.
        let g = generators::complete(7);
        let inputs = rows(&[
            &[0.0, 10.0],
            &[0.2, 12.0],
            &[0.4, 14.0],
            &[0.6, 16.0],
            &[1.0, 20.0],
            &[0.5, 15.0],
            &[0.5, 15.0],
        ]);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = Mean::new();
        let adv = CoordinateWise::new(vec![
            Box::new(ConstantAdversary::new(5.0)),
            Box::new(ConformingAdversary::new()),
        ]);
        let mut sim = VectorSimulation::new(&g, &inputs, faults, &rule, Box::new(adv)).unwrap();
        let out = crate::Engine::run(&mut sim, &RunConfig::bounded(1e-6, 500)).unwrap();
        assert!(
            !out.validity.is_valid(),
            "coordinate 0 escaped [0, 1]; the per-coordinate audit must see it"
        );
        assert!(
            out.validity
                .violations
                .iter()
                .all(|v| v.description.starts_with("coordinate 0")),
            "only coordinate 0 was attacked: {:?}",
            out.validity.violations
        );
        // The inherent VectorOutcome agrees (same audit, same engine).
        let adv = CoordinateWise::new(vec![
            Box::new(ConstantAdversary::new(5.0)),
            Box::new(ConformingAdversary::new()),
        ]);
        let mut sim = VectorSimulation::new(
            &g,
            &inputs,
            NodeSet::from_indices(7, [5, 6]),
            &rule,
            Box::new(adv),
        )
        .unwrap();
        let out = sim.run(&VectorSimConfig::default()).unwrap();
        assert!(!out.box_validity);
    }

    #[test]
    fn box_audit_is_scoped_to_each_run() {
        use iabc_core::rules::Mean;
        // Warm up with steps that violate coordinate 0's hull, then run():
        // the run must be judged on its own rounds only (the pre-refactor
        // driver re-baselined the boxes at run start).
        let g = generators::complete(7);
        let inputs = rows(&[
            &[0.0, 10.0],
            &[0.2, 12.0],
            &[0.4, 14.0],
            &[0.6, 16.0],
            &[1.0, 20.0],
            &[0.5, 15.0],
            &[0.5, 15.0],
        ]);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let rule = Mean::new();
        let adv = CoordinateWise::new(vec![
            Box::new(ConstantAdversary::new(5.0)),
            Box::new(ConformingAdversary::new()),
        ]);
        let mut sim = VectorSimulation::new(&g, &inputs, faults, &rule, Box::new(adv)).unwrap();
        for _ in 0..3 {
            sim.step().unwrap(); // hull of coordinate 0 expands toward 5
        }
        let out = sim.run(&VectorSimConfig::default()).unwrap();
        // Inside the run the states only contract toward the (new) hull,
        // so the warmup violations must not leak into this verdict.
        assert!(out.converged);
        assert!(
            out.box_validity,
            "violations from warmup steps leaked into the run's audit"
        );
    }

    #[test]
    fn parallel_reaches_the_vector_terminal() {
        let g = generators::complete(7);
        let rule = TrimmedMean::new(2);
        let base = || {
            crate::Scenario::on(&g)
                .inputs(&[0.0; 14])
                .fault_nodes([5, 6])
                .rule(&rule)
        };
        assert_eq!(base().parallel(3).vector(2).unwrap().kernel.jobs(), 3);
        assert_eq!(base().vector(2).unwrap().kernel.jobs(), 1);
    }

    #[test]
    fn rule_failure_names_the_lowest_failing_node_across_coordinates() {
        // Fails wherever a node's own value exceeds 5: coordinate 0 first
        // at node 3, coordinate 1 at node 1. A node-by-node sweep reports
        // node 1, and so must the coordinate-by-coordinate kernel.
        #[derive(Debug)]
        struct FailsAboveFive;
        impl UpdateRule for FailsAboveFive {
            fn update(&self, own: f64, _received: &mut [f64]) -> Result<f64, iabc_core::RuleError> {
                if own > 5.0 {
                    Err(iabc_core::RuleError::InvalidParameter {
                        message: format!("own value {own}"),
                    })
                } else {
                    Ok(own)
                }
            }

            fn min_weight(&self, _in_degree: usize) -> Option<f64> {
                None
            }

            fn name(&self) -> &'static str {
                "fails-above-five"
            }
        }
        let g = generators::complete(4);
        let inputs = rows(&[&[0.0, 0.0], &[0.0, 9.0], &[0.0, 0.0], &[9.0, 0.0]]);
        let adv = CoordinateWise::new(vec![]);
        let mut sim = VectorSimulation::new(
            &g,
            &inputs,
            NodeSet::with_universe(4),
            &FailsAboveFive,
            Box::new(adv),
        )
        .unwrap();
        assert!(matches!(
            sim.step(),
            Err(SimError::Rule {
                node: 1,
                round: 1,
                ..
            })
        ));
    }

    #[test]
    fn rule_errors_carry_node_and_round() {
        let g = generators::cycle(4); // in-degree 1 < 2f
        let rule = TrimmedMean::new(1);
        let inputs = rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let adv = CoordinateWise::new(vec![Box::new(ConformingAdversary::new())]);
        let mut sim =
            VectorSimulation::new(&g, &inputs, NodeSet::with_universe(4), &rule, Box::new(adv))
                .unwrap();
        let err = sim.step().unwrap_err();
        assert!(matches!(err, SimError::Rule { round: 1, .. }));
    }

    #[test]
    fn honest_box_and_names() {
        let g = generators::complete(3);
        let coords = vec![vec![0.0, 5.0, 1e9], vec![2.0, -1.0, 1e9]];
        let faults = NodeSet::from_indices(3, [2]);
        let view = VectorAdversaryView {
            round: 1,
            graph: &g,
            coords: &coords,
            fault_set: &faults,
        };
        assert_eq!(view.dim(), 2);
        assert_eq!(view.honest_box(), vec![(0.0, 5.0), (-1.0, 2.0)]);
        assert_eq!(CornerPullAdversary::new().name(), "corner-pull");
        assert_eq!(CoordinateWise::new(vec![]).name(), "coordinate-wise");
    }
}
