//! Generalized fault models — the paper's §8 "relaxing assumptions"
//! direction, made concrete.
//!
//! The paper's model is **f-total**: the adversary may corrupt any set `F`
//! with `|F| ≤ f`. Its follow-on work (Tseng & Vaidya, *Iterative
//! Approximate Byzantine Consensus under a Generalized Fault Model*)
//! replaces the cardinality bound by an arbitrary **adversary structure**:
//! a downward-closed family `𝔽` of *feasible* fault sets, given by its
//! ⊆-maximal members. This module implements that generalization and shows
//! the paper's condition is the special case `𝔽 = { F : |F| ≤ f }`.
//!
//! # The generalized `⇒` relation
//!
//! Under a fault model `𝔽`, define for disjoint sets `A, B`:
//!
//! > `A ⇒𝔽 B` iff some node `v ∈ B` has an in-neighbourhood slice
//! > `N⁻_v ∩ A` that **no feasible fault set covers** — i.e. in every
//! > feasible world at least one in-edge from `A` into `v` is fault-free.
//!
//! This is exactly the role the threshold `f + 1` plays in Definition 1 of
//! the paper: under the f-total model a slice is coverable iff its size is
//! `≤ f`, so `A ⇒𝔽 B` degenerates to `|N⁻_v ∩ A| ≥ f + 1`. The Theorem 1
//! necessity argument goes through verbatim with coverage in place of the
//! cardinality threshold: in the proof's scenario (b), node `i ∈ L` must
//! consider "all of `N⁻_i ∩ (C ∪ R)` is faulty" plausible, which requires
//! that slice to be a feasible fault set on its own — coverage, not
//! cardinality, is the operative notion.
//!
//! # The generalized condition
//!
//! > For every feasible `F ∈ 𝔽` and every partition `L, C, R` of `V − F`
//! > with `L, R ≠ ∅`: `C ∪ R ⇒𝔽 L` or `L ∪ C ⇒𝔽 R`.
//!
//! [`check_model`] decides this exactly. Specializations:
//!
//! * [`FaultModel::Total`] reproduces [`crate::theorem1::check`] verdicts
//!   bit-for-bit (property-tested).
//! * [`FaultModel::Local`] quantifies over all f-local fault sets **with
//!   coverage semantics**. This is *at least as strong* as
//!   [`crate::local_fault::check_local`], which keeps the paper's
//!   cardinality threshold: an f-local slice may be larger than `f`, so
//!   coverage admits more insular sets and therefore finds more violations.
//! * [`FaultModel::Structure`] takes an explicit [`AdversaryStructure`],
//!   e.g. "only these three machines share a power rail".
//!
//! # The algorithm side
//!
//! Conditions alone do not run: [`ModelTrimmedMean`] is the matching
//! update rule. It trims the maximal **coverable prefix** from each end
//! of the sorted received values — the longest run of extremes whose
//! senders could all be faulty in some feasible world — and averages the
//! survivors with the node's own value. Under [`FaultModel::Total`] it
//! *is* Algorithm 1 (tested bit-for-bit); under an informative structure
//! it converges where the oblivious rule freezes (experiment X10; run it
//! with [`IdentifiedRule`]-aware engines such as
//! `iabc_sim::model_engine::ModelSimulation`).
//!
//! # Completeness of the scan
//!
//! For `Total(f)` the checker scans only fault sets of size
//! `min(f, n − 2)` — the padding argument in [`crate::theorem1`]. For a
//! general structure no such shortcut is sound (with several maximal sets
//! the coverable slices of `L` and `R` may be covered by *different*
//! generators, blocking the lift of a violation into a maximal set), so
//! **every feasible fault set** — each subset of each maximal generator,
//! capped at size `n − 2` — is scanned, deduplicated. For `Local(f)` all
//! f-local sets are scanned, as in [`crate::local_fault`]. Every model
//! skips the fault sets that a swap of twin nodes maps onto an earlier one
//! (the `scan` kernel's twin reduction); under a structure only swaps that
//! fix every maximal set count.

use std::collections::BTreeSet;
use std::fmt;

use iabc_graph::{for_each_subset_of_size, for_each_subset_sized, Digraph, NodeSet};
use serde::{Deserialize, Serialize};

use crate::error::StructureError;
use crate::local_fault::is_f_local;
use crate::scan::{self, Quiet, Rows, Width};
use crate::witness::{ConditionReport, Witness};

/// An explicit adversary structure: the downward-closed family of feasible
/// fault sets, represented by its ⊆-maximal members.
///
/// Construction prunes non-maximal generators and deduplicates, so
/// [`AdversaryStructure::maximal_sets`] is an antichain.
///
/// # Examples
///
/// ```
/// use iabc_core::fault_model::AdversaryStructure;
/// use iabc_graph::NodeSet;
///
/// // Nodes {0,1} share a rack; node 4 is on flaky hardware. Any subset of
/// // a generator is feasible; {0,4} is not (no generator contains both).
/// let s = AdversaryStructure::new(5, vec![
///     NodeSet::from_indices(5, [0, 1]),
///     NodeSet::from_indices(5, [4]),
/// ])?;
/// assert!(s.admits(&NodeSet::from_indices(5, [1])));
/// assert!(!s.admits(&NodeSet::from_indices(5, [0, 4])));
/// # Ok::<(), iabc_core::StructureError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdversaryStructure {
    universe: usize,
    maximal: Vec<NodeSet>,
}

impl AdversaryStructure {
    /// Builds a structure over `universe` nodes from generator sets.
    ///
    /// The empty fault set is always feasible, even with no generators
    /// (an adversary that corrupts nobody).
    ///
    /// # Errors
    ///
    /// Returns [`StructureError::UniverseMismatch`] if any generator's
    /// universe differs from `universe`.
    pub fn new(universe: usize, generators: Vec<NodeSet>) -> Result<Self, StructureError> {
        if let Some(bad) = generators.iter().find(|s| s.universe() != universe) {
            return Err(StructureError::UniverseMismatch {
                expected: universe,
                got: bad.universe(),
            });
        }
        // Keep only ⊆-maximal generators, deduplicated.
        let mut maximal: Vec<NodeSet> = Vec::new();
        for g in &generators {
            if generators
                .iter()
                .any(|h| g != h && g.is_subset(h) && h.len() > g.len())
            {
                continue;
            }
            if !maximal.contains(g) {
                maximal.push(g.clone());
            }
        }
        Ok(AdversaryStructure { universe, maximal })
    }

    /// The structure in which every set of at most `f` nodes is feasible —
    /// the paper's f-total model as an explicit structure (generators: all
    /// `C(n, f)` sets of size exactly `f`).
    pub fn uniform(universe: usize, f: usize) -> Self {
        let f = f.min(universe);
        let mut generators = Vec::new();
        for_each_subset_of_size(&NodeSet::full(universe), f, |s| {
            generators.push(s.clone());
            true
        });
        AdversaryStructure {
            universe,
            maximal: generators,
        }
    }

    /// Number of nodes the structure speaks about.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The ⊆-maximal feasible sets (an antichain).
    pub fn maximal_sets(&self) -> &[NodeSet] {
        &self.maximal
    }

    /// `true` iff `s` is feasible: contained in some maximal set.
    /// The empty set is always feasible.
    pub fn admits(&self, s: &NodeSet) -> bool {
        s.is_empty() || self.maximal.iter().any(|m| s.is_subset(m))
    }

    /// The size of the largest feasible fault set.
    pub fn max_fault_size(&self) -> usize {
        self.maximal.iter().map(NodeSet::len).max().unwrap_or(0)
    }
}

impl fmt::Display for AdversaryStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "structure{{")?;
        for (i, m) in self.maximal.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "}}")
    }
}

/// A fault model: which fault sets the adversary may realize.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultModel {
    /// The paper's model: any `F` with `|F| ≤ f`.
    Total(usize),
    /// Zhang–Sundaram's f-local model: any `F` with
    /// `|N⁻_i ∩ F| ≤ f` for every fault-free `i` (see
    /// [`crate::local_fault`]).
    Local(usize),
    /// An explicit adversary structure.
    Structure(AdversaryStructure),
}

impl FaultModel {
    /// `true` iff `s` is coverable: some feasible fault set contains `s`.
    /// All three models are downward-closed, so this coincides with "`s` is
    /// itself feasible".
    pub fn covers(&self, g: &Digraph, s: &NodeSet) -> bool {
        match self {
            FaultModel::Total(f) => s.len() <= *f,
            FaultModel::Local(f) => is_f_local(g, s, *f),
            FaultModel::Structure(a) => a.admits(s),
        }
    }

    /// The largest number of faulty in-neighbours node `v` can have in any
    /// feasible world — the trim count Algorithm 1 needs at `v` under this
    /// model (the paper's per-node `f`; under [`FaultModel::Total`] and
    /// [`FaultModel::Local`] it is `min(f, |N⁻_v|)`).
    pub fn max_faulty_in_neighbors(&self, g: &Digraph, v: iabc_graph::NodeId) -> usize {
        let indeg = g.in_degree(v);
        match self {
            FaultModel::Total(f) | FaultModel::Local(f) => indeg.min(*f),
            FaultModel::Structure(a) => a
                .maximal_sets()
                .iter()
                .map(|m| g.in_neighbors(v).intersection_len(m))
                .max()
                .unwrap_or(0),
        }
    }

    /// Short stable identifier for reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultModel::Total(_) => "f-total",
            FaultModel::Local(_) => "f-local",
            FaultModel::Structure(_) => "structure",
        }
    }
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultModel::Total(k) => write!(f, "f-total({k})"),
            FaultModel::Local(k) => write!(f, "f-local({k})"),
            FaultModel::Structure(a) => write!(f, "{a}"),
        }
    }
}

/// The generalized `⇒𝔽` relation: `a ⇒ b` iff some node of `b` has an
/// in-neighbourhood slice inside `a` that the model cannot cover.
///
/// Under [`FaultModel::Total`] this is the paper's Definition 1 with
/// threshold `f + 1`.
pub fn dominates_model(g: &Digraph, a: &NodeSet, b: &NodeSet, model: &FaultModel) -> bool {
    b.iter()
        .any(|v| !model.covers(g, &g.in_neighbors(v).intersection(a)))
}

/// Coverage-based insularity: `l ⊆ w` is insular when every node of `l`
/// could, in some feasible world, be hearing only faulty values from
/// outside `l` — i.e. `(w − l) 6⇒𝔽 l`.
pub fn is_insular_model(g: &Digraph, w: &NodeSet, l: &NodeSet, model: &FaultModel) -> bool {
    let outside = w.difference(l);
    l.iter()
        .all(|v| model.covers(g, &g.in_neighbors(v).intersection(&outside)))
}

/// Verifies a witness against the generalized condition: partition shape,
/// `F` feasible under `model`, and neither side dominated under `⇒𝔽`.
pub fn verify_model(w: &Witness, g: &Digraph, model: &FaultModel) -> bool {
    let n = g.node_count();
    let parts = [&w.fault_set, &w.left, &w.center, &w.right];
    if parts.iter().any(|p| p.universe() != n) {
        return false;
    }
    let mut union = NodeSet::with_universe(n);
    let mut total = 0usize;
    for p in parts {
        total += p.len();
        union.union_with(p);
    }
    if union.len() != n || total != n {
        return false;
    }
    if w.left.is_empty() || w.right.is_empty() || !model.covers(g, &w.fault_set) {
        return false;
    }
    let c_union_r = w.center.union(&w.right);
    let l_union_c = w.left.union(&w.center);
    !dominates_model(g, &c_union_r, &w.left, model)
        && !dominates_model(g, &l_union_c, &w.right, model)
}

/// Exact checker for the generalized condition under `model`.
///
/// Exponential like the Theorem 1 checker. [`FaultModel::Local`] scans up
/// to `3^n` candidate sets and tests coverage against every node, so
/// `chord(12, 5)` under `Local(2)` takes about 5 ms, and `Total(2)` about
/// 0.25 ms (best of five, shared 2-core x86-64 host, release build); a
/// structure costs its feasible fault sets times `2^|W|`. Returned
/// witnesses validate with [`verify_model`].
///
/// # Examples
///
/// ```
/// use iabc_core::fault_model::{check_model, AdversaryStructure, FaultModel};
/// use iabc_graph::{generators, NodeSet};
///
/// // chord(7, 5) violates the paper's condition at f = 2 (§6.3) — that is
/// // the uniform structure, where ANY two nodes might be the faulty ones.
/// let g = generators::chord(7, 5);
/// let any_two = FaultModel::Structure(AdversaryStructure::uniform(7, 2));
/// assert!(!check_model(&g, &any_two).is_satisfied());
///
/// // Pinning the fault domain to one known rack {5, 6} restores
/// // possibility: honest nodes may then trust any slice that escapes the
/// // rack, and the proof's scenario ambiguity collapses.
/// let rack = AdversaryStructure::new(7, vec![NodeSet::from_indices(7, [5, 6])])?;
/// assert!(check_model(&g, &FaultModel::Structure(rack)).is_satisfied());
/// # Ok::<(), iabc_core::StructureError>(())
/// ```
pub fn check_model(g: &Digraph, model: &FaultModel) -> ConditionReport {
    let n = g.node_count();
    if n <= 1 {
        return ConditionReport::Satisfied;
    }
    let cover = Cover::new(n, model);
    let fault_sets = |visit: &mut dyn FnMut(&NodeSet) -> bool| for_each_scan_set(g, model, visit);
    let report = scan::search(g, &cover, None, fault_sets).report();
    if let ConditionReport::Violated(w) = &report {
        debug_assert!(verify_model(w, g, model), "invalid generalized witness {w}");
    }
    report
}

/// Coverage insularity for the scan kernel: node `v` of `L` is quiet when
/// the model covers its slice `N⁻_v ∩ (W − L)` — [`FaultModel::covers`] on
/// packed words.
#[derive(Debug)]
enum Cover {
    /// At most `f` nodes.
    Total(usize),
    /// An f-local set: no node outside it has more than `f` in-neighbours
    /// inside it.
    Local(usize),
    /// Empty, or inside one of the packed maximal sets.
    Structure(Vec<u64>),
}

impl Cover {
    fn new(n: usize, model: &FaultModel) -> Self {
        match model {
            FaultModel::Total(f) => Cover::Total(*f),
            FaultModel::Local(f) => Cover::Local(*f),
            FaultModel::Structure(a) => Cover::Structure(scan::pack_all(n, a.maximal_sets())),
        }
    }
}

impl Quiet for Cover {
    fn quiet<W: Width>(&self, rows: &Rows<W>, v: usize, outside: &[u64]) -> bool {
        let row = rows.row(v);
        match self {
            Cover::Total(f) => scan::count_and(row, outside) <= *f,
            Cover::Local(f) => (0..rows.nodes()).all(|u| {
                let in_slice = scan::has_bit(row, u) && scan::has_bit(outside, u);
                in_slice || scan::count_and3(rows.row(u), row, outside) <= *f
            }),
            Cover::Structure(maximal) => {
                scan::count_and(row, outside) == 0
                    || maximal.chunks_exact(rows.words()).any(|m| {
                        row.iter()
                            .zip(outside)
                            .zip(m)
                            .all(|((r, o), m)| r & o & !m == 0)
                    })
            }
        }
    }

    fn fixed(&self) -> &[u64] {
        match self {
            Cover::Structure(maximal) => maximal,
            Cover::Total(_) | Cover::Local(_) => &[],
        }
    }
}

/// Visits every fault set the checker must scan for completeness (see the
/// module docs); `visit` returns `false` to stop early.
pub(crate) fn for_each_scan_set<F>(g: &Digraph, model: &FaultModel, mut visit: F)
where
    F: FnMut(&NodeSet) -> bool,
{
    let n = g.node_count();
    match model {
        FaultModel::Total(f) => {
            let k_star = (*f).min(n - 2);
            for_each_subset_of_size(&NodeSet::full(n), k_star, |s| visit(s));
        }
        FaultModel::Local(f) => {
            for_each_subset_sized(&NodeSet::full(n), 0, n - 2, |s| {
                if is_f_local(g, s, *f) {
                    visit(s)
                } else {
                    true
                }
            });
        }
        FaultModel::Structure(a) => {
            // Scan every feasible fault set: all subsets of each maximal
            // set, capped at size n − 2 (larger F leaves no room for
            // non-empty L and R), deduplicated across overlapping maximal
            // sets. A lift-to-maximal shortcut (as in the Total(f)
            // padding) is NOT sound here: moving a node of M − F into F
            // is only violation-preserving when the node sits in C or in
            // a non-singleton side, and with several maximal sets the
            // coverable slices of L and R may be covered by *different*
            // generators, blocking the move. Full enumeration is exact
            // and cheap for realistic structures (racks are small).
            let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
            let mut scan = |s: &NodeSet| -> bool {
                if seen.insert(s.to_indices()) {
                    visit(s)
                } else {
                    true
                }
            };
            // The empty set is always feasible, even with no generators.
            if !scan(&NodeSet::with_universe(n)) {
                return;
            }
            for m in a.maximal_sets() {
                let mut stop = false;
                for_each_subset_sized(m, 0, m.len().min(n - 2), |s| {
                    if scan(s) {
                        true
                    } else {
                        stop = true;
                        false
                    }
                });
                if stop {
                    return;
                }
            }
        }
    }
}

/// An update rule that sees **sender identities**, not just values — what
/// structure-aware trimming needs (the paper's [`crate::rules::UpdateRule`]
/// is identity-blind because uniform trimming never looks at senders).
pub trait IdentifiedRule: fmt::Debug + Send + Sync {
    /// Computes `v_i[t]` at `node` from `own` and the received
    /// `(sender, value)` pairs. May reorder `received` in place.
    ///
    /// # Errors
    ///
    /// Rule-specific; see implementations.
    fn update(
        &self,
        g: &Digraph,
        node: iabc_graph::NodeId,
        own: f64,
        received: &mut Vec<(iabc_graph::NodeId, f64)>,
    ) -> Result<f64, crate::error::RuleError>;

    /// Short stable identifier for reports.
    fn name(&self) -> &'static str;
}

/// Adapts an identity-blind [`crate::rules::UpdateRule`] to the
/// [`IdentifiedRule`] interface (identities are dropped). Lets the
/// structure-aware engine run the classic rules for direct comparison.
#[derive(Debug, Clone, Copy)]
pub struct Blind<R>(pub R);

impl<R: crate::rules::UpdateRule> IdentifiedRule for Blind<R> {
    fn update(
        &self,
        _g: &Digraph,
        _node: iabc_graph::NodeId,
        own: f64,
        received: &mut Vec<(iabc_graph::NodeId, f64)>,
    ) -> Result<f64, crate::error::RuleError> {
        let mut values: Vec<f64> = received.iter().map(|&(_, v)| v).collect();
        self.0.update(own, &mut values)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// **Structure-aware Algorithm 1**: instead of trimming a fixed `f` values
/// from each end, trim the largest *coverable prefix* from each end — the
/// longest run of extreme values whose senders could **all** be faulty in
/// some feasible world. Average the survivors with the node's own value at
/// equal weight, exactly like Algorithm 1.
///
/// # Why this preserves validity
///
/// Sort the received pairs by value. The senders of values strictly above
/// the honest maximum are all faulty, so they form a subset of the true
/// fault set — a coverable set — and they occupy a *prefix* of the
/// descending order. Coverability is downward-closed and prefixes are
/// nested, so coverable prefix lengths form an initial segment `0..=K`;
/// trimming the maximal coverable prefix therefore removes every
/// above-hull value (symmetrically below). Survivors are bracketed by
/// honest values and the average stays in the honest hull — the Theorem 2
/// argument with "f largest" replaced by "maximal coverable prefix".
///
/// Under [`FaultModel::Total`]`(f)` every `f`-set is coverable and no
/// `(f+1)`-set is, so both prefixes have length exactly `min(f, deg)` and
/// the rule **is** Algorithm 1 (tested bit-for-bit).
///
/// # Why this is worth having
///
/// It closes the gap experiment X10 demonstrates: on chord(7, 5) under
/// the rack structure `{{5, 6}}` the generalized condition is satisfied,
/// the oblivious Algorithm 1 is still frozen by the split-brain adversary,
/// and **this rule converges** — trimming only what the structure can
/// actually corrupt keeps the honest cross-partition edges alive.
///
/// # Examples
///
/// ```
/// use iabc_core::fault_model::{
///     AdversaryStructure, FaultModel, IdentifiedRule, ModelTrimmedMean,
/// };
/// use iabc_graph::{generators, NodeId, NodeSet};
///
/// // Only node 3 can be faulty: its 1e9 is trimmed, the (untrimmable)
/// // honest values 0 and 1 survive, and the node averages {own, 0, 1}.
/// let g = generators::complete(4);
/// let rack = AdversaryStructure::new(4, vec![NodeSet::from_indices(4, [3])])?;
/// let rule = ModelTrimmedMean::new(FaultModel::Structure(rack));
/// let mut received = vec![
///     (NodeId::new(1), 0.0),
///     (NodeId::new(2), 1.0),
///     (NodeId::new(3), 1e9),
/// ];
/// let v = rule.update(&g, NodeId::new(0), 0.5, &mut received)?;
/// assert!((v - 0.5).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ModelTrimmedMean {
    model: FaultModel,
}

impl ModelTrimmedMean {
    /// Creates the rule for a fault model.
    pub fn new(model: FaultModel) -> Self {
        ModelTrimmedMean { model }
    }

    /// The model this rule trims against.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// Length of the maximal coverable prefix of `pairs` (senders of
    /// `pairs[..k]` form a coverable set). Monotone, so a linear scan is
    /// exact.
    fn coverable_prefix(&self, g: &Digraph, pairs: &[(iabc_graph::NodeId, f64)]) -> usize {
        let n = g.node_count();
        let mut slice = NodeSet::with_universe(n);
        for (k, &(sender, _)) in pairs.iter().enumerate() {
            slice.insert(sender);
            if !self.model.covers(g, &slice) {
                return k;
            }
        }
        pairs.len()
    }
}

impl IdentifiedRule for ModelTrimmedMean {
    /// # Errors
    ///
    /// Returns [`crate::error::RuleError::NonFiniteInput`] on NaN/±∞
    /// inputs. Unlike uniform trimming there is no in-degree precondition:
    /// the two coverable prefixes always exist (possibly overlapping, in
    /// which case the node keeps its own value).
    fn update(
        &self,
        g: &Digraph,
        _node: iabc_graph::NodeId,
        own: f64,
        received: &mut Vec<(iabc_graph::NodeId, f64)>,
    ) -> Result<f64, crate::error::RuleError> {
        if !own.is_finite() {
            return Err(crate::error::RuleError::NonFiniteInput { value: own });
        }
        if let Some(&(_, bad)) = received.iter().find(|(_, v)| !v.is_finite()) {
            return Err(crate::error::RuleError::NonFiniteInput { value: bad });
        }
        received.sort_unstable_by(|a, b| f64::total_cmp(&a.1, &b.1));
        let k_lo = self.coverable_prefix(g, received);
        let reversed: Vec<(iabc_graph::NodeId, f64)> = received.iter().rev().copied().collect();
        let k_hi = self.coverable_prefix(g, &reversed);
        if k_lo + k_hi >= received.len() {
            // Trim sets cover everything: fall back to the own value
            // (weight 1 — still a convex combination, still in hull).
            return Ok(own);
        }
        let survivors = &received[k_lo..received.len() - k_hi];
        let weight = 1.0 / (survivors.len() as f64 + 1.0);
        Ok(weight * (own + survivors.iter().map(|&(_, v)| v).sum::<f64>()))
    }

    fn name(&self) -> &'static str {
        "model-trimmed-mean"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Threshold;
    use crate::{local_fault, theorem1};
    use iabc_graph::generators;
    use iabc_graph::NodeId;

    fn ns(n: usize, ids: &[usize]) -> NodeSet {
        NodeSet::from_indices(n, ids.iter().copied())
    }

    #[test]
    fn structure_rejects_universe_mismatch() {
        let err = AdversaryStructure::new(5, vec![NodeSet::from_indices(4, [0])]).unwrap_err();
        assert!(matches!(
            err,
            StructureError::UniverseMismatch {
                expected: 5,
                got: 4
            }
        ));
    }

    #[test]
    fn structure_prunes_to_maximal_antichain() {
        let s = AdversaryStructure::new(
            6,
            vec![ns(6, &[0]), ns(6, &[0, 1]), ns(6, &[0, 1]), ns(6, &[3])],
        )
        .unwrap();
        assert_eq!(s.maximal_sets().len(), 2);
        assert!(s.admits(&ns(6, &[0])));
        assert!(s.admits(&ns(6, &[0, 1])));
        assert!(s.admits(&ns(6, &[3])));
        assert!(!s.admits(&ns(6, &[0, 3])));
        assert_eq!(s.max_fault_size(), 2);
    }

    #[test]
    fn empty_structure_admits_only_empty_set() {
        let s = AdversaryStructure::new(4, vec![]).unwrap();
        assert!(s.admits(&NodeSet::with_universe(4)));
        assert!(!s.admits(&ns(4, &[0])));
        assert_eq!(s.max_fault_size(), 0);
    }

    #[test]
    fn uniform_structure_is_all_small_sets() {
        let s = AdversaryStructure::uniform(5, 2);
        assert_eq!(s.maximal_sets().len(), 10); // C(5, 2)
        assert!(s.admits(&ns(5, &[1, 3])));
        assert!(!s.admits(&ns(5, &[0, 1, 2])));
        // f larger than n clamps.
        let all = AdversaryStructure::uniform(3, 9);
        assert!(all.admits(&NodeSet::full(3)));
    }

    #[test]
    fn total_coverage_is_cardinality() {
        let g = generators::complete(6);
        let m = FaultModel::Total(2);
        assert!(m.covers(&g, &ns(6, &[0, 1])));
        assert!(!m.covers(&g, &ns(6, &[0, 1, 2])));
    }

    #[test]
    fn local_coverage_is_f_locality() {
        // chord(12, 5): {0, 3, 6, 9} is 2-local despite size 4.
        let g = generators::chord(12, 5);
        let m = FaultModel::Local(2);
        assert!(m.covers(&g, &NodeSet::from_indices(12, [0, 3, 6, 9])));
        assert!(!FaultModel::Total(2).covers(&g, &NodeSet::from_indices(12, [0, 3, 6, 9])));
    }

    #[test]
    fn generalized_relation_matches_threshold_under_total() {
        use crate::relation::dominates;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let g = generators::erdos_renyi(7, 0.5, &mut rng);
            for f in 0..=2usize {
                let model = FaultModel::Total(f);
                let t = Threshold::synchronous(f);
                // Random disjoint pair.
                let a = ns(7, &[0, 1, 2]);
                let b = ns(7, &[4, 5]);
                assert_eq!(
                    dominates_model(&g, &a, &b, &model),
                    dominates(&g, &a, &b, t),
                    "f={f} g={g:?}"
                );
            }
        }
    }

    #[test]
    fn total_model_matches_theorem1_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(2012);
        let mut disagreements = 0;
        for n in 3..=6usize {
            for f in 0..=2usize {
                for trial in 0..6 {
                    let p = 0.25 + 0.1 * (trial % 6) as f64;
                    let g = generators::erdos_renyi(n, p, &mut rng);
                    let a = check_model(&g, &FaultModel::Total(f)).is_satisfied();
                    let b = theorem1::check(&g, f).is_satisfied();
                    if a != b {
                        disagreements += 1;
                    }
                }
            }
        }
        assert_eq!(disagreements, 0);
    }

    #[test]
    fn uniform_structure_matches_total_model() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(99);
        for n in 3..=6usize {
            for f in 0..=2usize {
                let g = generators::erdos_renyi(n, 0.45, &mut rng);
                let s = FaultModel::Structure(AdversaryStructure::uniform(n, f));
                let t = FaultModel::Total(f);
                assert_eq!(
                    check_model(&g, &s).is_satisfied(),
                    check_model(&g, &t).is_satisfied(),
                    "n={n} f={f} g={g:?}"
                );
            }
        }
    }

    #[test]
    fn fault_location_knowledge_restores_chord7() {
        // The paper's §6.3 impossibility is driven by fault-location
        // *uncertainty*: under the uniform structure (any 2 nodes may fail)
        // chord(7, 5) is violated, but pinning the fault domain to the
        // single known pair {5, 6} makes it satisfiable — node 0's slice
        // {3, 4} can never be all-faulty, so the proof's scenario (b)
        // becomes infeasible and insularity of L = {0, 2} collapses.
        let g = generators::chord(7, 5);
        assert!(!check_model(
            &g,
            &FaultModel::Structure(AdversaryStructure::uniform(7, 2))
        )
        .is_satisfied());
        let rack = AdversaryStructure::new(7, vec![ns(7, &[5, 6])]).unwrap();
        assert!(check_model(&g, &FaultModel::Structure(rack)).is_satisfied());
    }

    #[test]
    fn singleton_structures_match_total_one_on_complete_graphs() {
        // On K4 with f = 1 the condition holds; each singleton structure is
        // weaker than Total(1), so it must also hold.
        let g = generators::complete(4);
        for v in 0..4usize {
            let a = AdversaryStructure::new(4, vec![ns(4, &[v])]).unwrap();
            assert!(check_model(&g, &FaultModel::Structure(a)).is_satisfied());
        }
    }

    #[test]
    fn coverage_local_condition_implies_cardinality_local_condition() {
        for (g, f) in [
            (generators::complete(7), 2usize),
            (generators::core_network(7, 2), 2),
            (generators::chord(5, 3), 1),
            (generators::chord(7, 5), 2),
            (generators::hypercube(3), 1),
        ] {
            if check_model(&g, &FaultModel::Local(f)).is_satisfied() {
                assert!(
                    local_fault::check_local(&g, f).is_satisfied(),
                    "coverage-local satisfied must imply cardinality-local satisfied on {g}"
                );
            }
        }
    }

    #[test]
    fn structure_checker_matches_brute_force() {
        // Brute force: enumerate every feasible F explicitly (all subsets of
        // all maximal sets) and every 3-colouring of V − F.
        fn brute(g: &Digraph, model: &FaultModel, a: &AdversaryStructure) -> bool {
            let n = g.node_count();
            let mut ok = true;
            for_each_subset_sized(&NodeSet::full(n), 0, n.saturating_sub(2), |fault| {
                if !a.admits(fault) {
                    return true;
                }
                let w = fault.complement();
                // 3-colour W into L, C, R.
                let nodes: Vec<NodeId> = w.iter().collect();
                let k = nodes.len();
                let mut coloring = vec![0usize; k];
                loop {
                    let mut l = NodeSet::with_universe(n);
                    let mut c = NodeSet::with_universe(n);
                    let mut r = NodeSet::with_universe(n);
                    for (idx, &v) in nodes.iter().enumerate() {
                        match coloring[idx] {
                            0 => l.insert(v),
                            1 => c.insert(v),
                            _ => r.insert(v),
                        };
                    }
                    if !l.is_empty() && !r.is_empty() {
                        let cr = c.union(&r);
                        let lc = l.union(&c);
                        if !dominates_model(g, &cr, &l, model)
                            && !dominates_model(g, &lc, &r, model)
                        {
                            ok = false;
                            return false;
                        }
                    }
                    // Next colouring.
                    let mut i = 0;
                    loop {
                        if i == k {
                            return true;
                        }
                        coloring[i] += 1;
                        if coloring[i] < 3 {
                            break;
                        }
                        coloring[i] = 0;
                        i += 1;
                    }
                }
            });
            ok
        }

        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(41);
        for n in 3..=6usize {
            for trial in 0..4 {
                let g = generators::erdos_renyi(n, 0.4 + 0.1 * trial as f64, &mut rng);
                // Three structure shapes, including overlapping maximal
                // sets — the case where lift-to-maximal shortcuts break
                // and full feasible-set enumeration is required.
                let structures = vec![
                    vec![ns(n, &[0, 1 % n]), ns(n, &[n - 1])],
                    vec![ns(n, &[0, 1 % n]), ns(n, &[1 % n, 2 % n])],
                    vec![ns(n, &[0]), ns(n, &[n - 1]), ns(n, &[n / 2])],
                ];
                for gens in structures {
                    let a = AdversaryStructure::new(n, gens).unwrap();
                    let model = FaultModel::Structure(a.clone());
                    assert_eq!(
                        check_model(&g, &model).is_satisfied(),
                        brute(&g, &model, &a),
                        "n={n} trial={trial} structure={a} g={g:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn oversized_maximal_sets_are_scanned_through_subsets() {
        // Structure whose maximal set has size n − 1 > n − 2: the checker
        // must still find violations realizable with an (n−2)-subset.
        // Two disjoint 2-cycles: violated even at F = ∅.
        let g = Digraph::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)]).unwrap();
        let a = AdversaryStructure::new(4, vec![ns(4, &[0, 1, 2])]).unwrap();
        let report = check_model(&g, &FaultModel::Structure(a.clone()));
        let w = report.witness().expect("two-source graph is violated");
        assert!(verify_model(w, &g, &FaultModel::Structure(a)));
    }

    #[test]
    fn witnesses_from_every_model_verify() {
        let g = generators::chord(7, 5);
        for model in [
            FaultModel::Total(2),
            FaultModel::Local(2),
            FaultModel::Structure(AdversaryStructure::uniform(7, 2)),
        ] {
            let report = check_model(&g, &model);
            let w = report
                .witness()
                .unwrap_or_else(|| panic!("{model} must violate chord(7,5)"));
            assert!(verify_model(w, &g, &model), "model {model}");
        }
    }

    #[test]
    fn verify_model_rejects_infeasible_fault_sets() {
        let g = generators::chord(7, 5);
        let w = Witness {
            fault_set: ns(7, &[5, 6]),
            left: ns(7, &[0, 2]),
            center: NodeSet::with_universe(7),
            right: ns(7, &[1, 3, 4]),
        };
        // Valid under Total(2)...
        assert!(verify_model(&w, &g, &FaultModel::Total(2)));
        // ...but not under a structure that cannot corrupt {5, 6}.
        let a = AdversaryStructure::new(7, vec![ns(7, &[0])]).unwrap();
        assert!(!verify_model(&w, &g, &FaultModel::Structure(a)));
        // Nor under Total(1).
        assert!(!verify_model(&w, &g, &FaultModel::Total(1)));
    }

    #[test]
    fn trivial_graphs_satisfy_every_model() {
        for model in [
            FaultModel::Total(3),
            FaultModel::Local(1),
            FaultModel::Structure(AdversaryStructure::uniform(1, 1)),
        ] {
            assert!(check_model(&Digraph::new(0), &model).is_satisfied());
            assert!(check_model(&Digraph::new(1), &model).is_satisfied());
        }
    }

    #[test]
    fn per_node_trim_counts() {
        let g = generators::chord(7, 5); // in-degree 5 everywhere
        let v = NodeId::new(0);
        assert_eq!(FaultModel::Total(2).max_faulty_in_neighbors(&g, v), 2);
        assert_eq!(FaultModel::Total(9).max_faulty_in_neighbors(&g, v), 5);
        // N⁻_0 = {2, 3, 4, 5, 6}: the rack {5, 6} puts 2 faulty in-neighbours
        // on node 0, the singleton {0} puts none (no self-loops).
        let a = AdversaryStructure::new(7, vec![ns(7, &[5, 6]), ns(7, &[0])]).unwrap();
        let m = FaultModel::Structure(a);
        assert_eq!(m.max_faulty_in_neighbors(&g, v), 2);
        assert_eq!(
            m.max_faulty_in_neighbors(&g, NodeId::new(3)),
            2, // N⁻_3 = {5, 6, 0, 1, 2} ⊇ {5, 6}
        );
        let empty = FaultModel::Structure(AdversaryStructure::new(7, vec![]).unwrap());
        assert_eq!(empty.max_faulty_in_neighbors(&g, v), 0);
    }

    #[test]
    fn names_and_display_are_stable() {
        assert_eq!(FaultModel::Total(2).name(), "f-total");
        assert_eq!(FaultModel::Total(2).to_string(), "f-total(2)");
        assert_eq!(FaultModel::Local(1).name(), "f-local");
        let s = AdversaryStructure::new(3, vec![ns(3, &[0, 2])]).unwrap();
        let m = FaultModel::Structure(s);
        assert_eq!(m.name(), "structure");
        assert!(m.to_string().starts_with("structure{"));
    }

    fn pairs(n: usize, data: &[(usize, f64)]) -> Vec<(NodeId, f64)> {
        assert!(data.iter().all(|&(i, _)| i < n));
        data.iter().map(|&(i, v)| (NodeId::new(i), v)).collect()
    }

    #[test]
    fn model_rule_under_total_is_algorithm_one() {
        use crate::rules::{TrimmedMean, UpdateRule};
        use rand::{Rng, SeedableRng};
        let g = generators::complete(8);
        let rule = ModelTrimmedMean::new(FaultModel::Total(2));
        let classic = TrimmedMean::new(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..50 {
            let own: f64 = rng.random_range(-5.0..5.0);
            let mut with_ids: Vec<(NodeId, f64)> = (0..7)
                .map(|i| (NodeId::new(i), rng.random_range(-5.0..5.0)))
                .collect();
            let mut values: Vec<f64> = with_ids.iter().map(|&(_, v)| v).collect();
            let a = rule.update(&g, NodeId::new(7), own, &mut with_ids).unwrap();
            let b = classic.update(own, &mut values).unwrap();
            assert_eq!(
                a, b,
                "structure-aware rule must reduce to Algorithm 1 under Total(f)"
            );
        }
    }

    #[test]
    fn model_rule_trims_only_the_coverable_prefix() {
        // Structure: only node 6 can be faulty. The rule must trim node 6's
        // extreme value and nothing else.
        let g = generators::complete(7);
        let a = AdversaryStructure::new(7, vec![ns(7, &[6])]).unwrap();
        let rule = ModelTrimmedMean::new(FaultModel::Structure(a));
        let mut recv = pairs(7, &[(1, 1.0), (2, 2.0), (3, 3.0), (6, 1e9)]);
        let v = rule.update(&g, NodeId::new(0), 2.0, &mut recv).unwrap();
        // Survivors {1, 2, 3} (node 6 trimmed; nothing coverable at the
        // bottom since node 1 is not in the structure): (2+1+2+3)/4 = 2.
        assert!((v - 2.0).abs() < 1e-12, "got {v}");
        // A lying value from an honest-only prefix is NOT trimmed.
        let mut recv = pairs(7, &[(1, 1e9), (2, 2.0), (3, 3.0), (6, 4.0)]);
        let v = rule.update(&g, NodeId::new(0), 2.0, &mut recv).unwrap();
        assert!(v > 1e8, "untrimmable outlier must survive (got {v})");
    }

    #[test]
    fn model_rule_overlapping_trims_keep_own_value() {
        // Everything coverable: the structure admits all senders, so both
        // prefixes span the whole vector and the node keeps its own value.
        let g = generators::complete(4);
        let a = AdversaryStructure::new(4, vec![ns(4, &[1, 2, 3])]).unwrap();
        let rule = ModelTrimmedMean::new(FaultModel::Structure(a));
        let mut recv = pairs(4, &[(1, -5.0), (2, 0.0), (3, 5.0)]);
        let v = rule.update(&g, NodeId::new(0), 1.25, &mut recv).unwrap();
        assert_eq!(v, 1.25);
    }

    #[test]
    fn model_rule_rejects_non_finite() {
        let g = generators::complete(4);
        let rule = ModelTrimmedMean::new(FaultModel::Total(1));
        let mut recv = pairs(4, &[(1, f64::NAN), (2, 0.0), (3, 5.0)]);
        assert!(matches!(
            rule.update(&g, NodeId::new(0), 0.0, &mut recv),
            Err(crate::error::RuleError::NonFiniteInput { .. })
        ));
        let mut recv = pairs(4, &[(1, 0.0)]);
        assert!(matches!(
            rule.update(&g, NodeId::new(0), f64::INFINITY, &mut recv),
            Err(crate::error::RuleError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn model_rule_output_stays_in_hull_of_own_and_honest_values() {
        // With structure {{3}}, values from 1 and 2 are honest-guaranteed;
        // output must stay within hull(own, v1, v2) whatever node 3 sends.
        let g = generators::complete(4);
        let a = AdversaryStructure::new(4, vec![ns(4, &[3])]).unwrap();
        let rule = ModelTrimmedMean::new(FaultModel::Structure(a));
        for bad in [-1e9, -1.0, 0.5, 7.0, 1e9] {
            let mut recv = pairs(4, &[(1, 0.0), (2, 1.0), (3, bad)]);
            let v = rule.update(&g, NodeId::new(0), 0.5, &mut recv).unwrap();
            assert!(
                (0.0..=1.0).contains(&v),
                "bad={bad}: output {v} escaped hull"
            );
        }
    }

    #[test]
    fn blind_wrapper_matches_the_wrapped_rule() {
        use crate::rules::{TrimmedMean, UpdateRule};
        let g = generators::complete(6);
        let blind = Blind(TrimmedMean::new(1));
        assert_eq!(blind.name(), "trimmed-mean");
        let mut recv = pairs(6, &[(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0), (5, 5.0)]);
        let a = blind.update(&g, NodeId::new(0), 10.0, &mut recv).unwrap();
        let mut values = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let b = TrimmedMean::new(1).update(10.0, &mut values).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            ModelTrimmedMean::new(FaultModel::Total(1)).name(),
            "model-trimmed-mean"
        );
    }
}
