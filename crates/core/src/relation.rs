//! The paper's `⇒` ("dominates") relation and `in(A ⇒ B)` operator.
//!
//! *Definition 1*: for non-empty disjoint node sets `A` and `B`,
//! `A ⇒ B` iff some node `v ∈ B` has at least `f + 1` incoming links from
//! nodes in `A`, i.e. `|N⁻(v) ∩ A| ≥ f + 1`.
//!
//! *Definition 2*: `in(A ⇒ B)` is the set of all such nodes `v ∈ B`; it is
//! empty when `A 6⇒ B`.
//!
//! Section 7 of the paper generalizes both to asynchronous networks by
//! raising the in-link requirement from `f + 1` to `2f + 1`. We therefore
//! parameterize everything by a [`Threshold`] newtype instead of hard-coding
//! `f + 1`.

use iabc_graph::{Digraph, NodeSet};
use serde::{Deserialize, Serialize};

/// The minimum number of in-links from the source set required for a node to
/// be "influenced" by it (the `⇒` threshold).
///
/// * Synchronous model (Definition 1): `f + 1` — construct with
///   [`Threshold::synchronous`].
/// * Asynchronous model (Section 7): `2f + 1` — construct with
///   [`Threshold::asynchronous`].
///
/// # Examples
///
/// ```
/// use iabc_core::Threshold;
/// assert_eq!(Threshold::synchronous(2).get(), 3);
/// assert_eq!(Threshold::asynchronous(2).get(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Threshold(usize);

impl Threshold {
    /// Synchronous-model threshold `f + 1` (Definition 1), saturating at
    /// `usize::MAX`: a threshold above `n − 1` already means no node can be
    /// forced, so saturating keeps every verdict.
    pub const fn synchronous(f: usize) -> Self {
        Threshold(f.saturating_add(1))
    }

    /// Asynchronous-model threshold `2f + 1` (Section 7), saturating like
    /// [`Threshold::synchronous`].
    pub const fn asynchronous(f: usize) -> Self {
        Threshold(f.saturating_mul(2).saturating_add(1))
    }

    /// An explicit raw threshold (must be ≥ 1 to be meaningful).
    pub const fn raw(t: usize) -> Self {
        Threshold(t)
    }

    /// The raw in-link count required.
    pub const fn get(self) -> usize {
        self.0
    }
}

/// Returns `in(A ⇒ B)`: the nodes of `B` with at least `threshold` incoming
/// links from `A` (Definition 2, generalized threshold).
///
/// Callers are expected to pass disjoint `A`, `B`; the function itself does
/// not require it (it simply filters `B`), which the propagation machinery
/// relies on.
///
/// # Panics
///
/// Panics if the set universes do not match the graph.
///
/// # Examples
///
/// ```
/// use iabc_core::{relation, Threshold};
/// use iabc_graph::{generators, NodeSet};
///
/// let g = generators::complete(4);
/// let a = NodeSet::from_indices(4, [0, 1]);
/// let b = NodeSet::from_indices(4, [2, 3]);
/// // Every node of B hears both nodes of A, so with f = 1 (threshold 2)
/// // in(A ⇒ B) = B.
/// assert_eq!(relation::influenced_set(&g, &a, &b, Threshold::synchronous(1)), b);
/// ```
pub fn influenced_set(g: &Digraph, a: &NodeSet, b: &NodeSet, threshold: Threshold) -> NodeSet {
    assert_eq!(
        a.universe(),
        g.node_count(),
        "set A universe must match graph"
    );
    assert_eq!(
        b.universe(),
        g.node_count(),
        "set B universe must match graph"
    );
    let mut out = NodeSet::with_universe(g.node_count());
    for v in b.iter() {
        if g.in_neighbors(v).intersection_len(a) >= threshold.get() {
            out.insert(v);
        }
    }
    out
}

/// Returns `true` iff `A ⇒ B` (Definition 1, generalized threshold): some
/// node of `B` has at least `threshold` in-links from `A`.
///
/// # Panics
///
/// Panics if the set universes do not match the graph.
pub fn dominates(g: &Digraph, a: &NodeSet, b: &NodeSet, threshold: Threshold) -> bool {
    assert_eq!(
        a.universe(),
        g.node_count(),
        "set A universe must match graph"
    );
    assert_eq!(
        b.universe(),
        g.node_count(),
        "set B universe must match graph"
    );
    b.iter()
        .any(|v| g.in_neighbors(v).intersection_len(a) >= threshold.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_graph::{generators, Digraph, NodeId};

    #[test]
    fn threshold_constructors() {
        assert_eq!(Threshold::synchronous(0).get(), 1);
        assert_eq!(Threshold::asynchronous(0).get(), 1);
        assert_eq!(Threshold::synchronous(3).get(), 4);
        assert_eq!(Threshold::asynchronous(3).get(), 7);
        assert_eq!(Threshold::raw(5).get(), 5);
        // Huge fault bounds saturate instead of wrapping.
        assert_eq!(Threshold::synchronous(usize::MAX).get(), usize::MAX);
        assert_eq!(Threshold::asynchronous(1 << 63).get(), usize::MAX);
        assert_eq!(
            Threshold::asynchronous(usize::MAX / 2 - 1).get(),
            usize::MAX - 2
        );
    }

    #[test]
    fn dominates_requires_enough_links_into_one_node() {
        // Nodes 0,1,2 all point at 3; nothing points at 4.
        let g = Digraph::from_edges(5, [(0, 3), (1, 3), (2, 3), (3, 4)]).unwrap();
        let a = NodeSet::from_indices(5, [0, 1, 2]);
        let b = NodeSet::from_indices(5, [3, 4]);
        assert!(dominates(&g, &a, &b, Threshold::synchronous(2))); // needs 3, node 3 has 3
        assert!(!dominates(&g, &a, &b, Threshold::synchronous(3))); // needs 4
        assert_eq!(
            influenced_set(&g, &a, &b, Threshold::synchronous(2)).to_indices(),
            vec![3]
        );
    }

    #[test]
    fn influenced_set_empty_when_not_dominated() {
        let g = generators::cycle(5);
        let a = NodeSet::from_indices(5, [0]);
        let b = NodeSet::from_indices(5, [2, 3]);
        // Cycle in-degree is 1 everywhere, so threshold 2 can never be met.
        assert!(influenced_set(&g, &a, &b, Threshold::synchronous(1)).is_empty());
        assert!(!dominates(&g, &a, &b, Threshold::synchronous(1)));
    }

    #[test]
    fn f_zero_threshold_is_single_edge() {
        let g = generators::path(3);
        let a = NodeSet::from_indices(3, [0]);
        let b = NodeSet::from_indices(3, [1, 2]);
        assert!(dominates(&g, &a, &b, Threshold::synchronous(0)));
        assert_eq!(
            influenced_set(&g, &a, &b, Threshold::synchronous(0)).to_indices(),
            vec![1]
        );
    }

    #[test]
    fn complete_graph_dominates_both_ways() {
        let g = generators::complete(7);
        let a = NodeSet::from_indices(7, [0, 1, 2]);
        let b = NodeSet::from_indices(7, [3, 4, 5, 6]);
        let t = Threshold::synchronous(2); // f = 2 needs 3 in-links
        assert!(dominates(&g, &a, &b, t));
        assert!(dominates(&g, &b, &a, t));
        assert_eq!(influenced_set(&g, &a, &b, t), b);
        assert_eq!(influenced_set(&g, &b, &a, t), a);
    }

    #[test]
    fn async_threshold_is_stricter() {
        let g = generators::chord(7, 5);
        let a = NodeSet::from_indices(7, [0, 1, 2, 3]);
        let b = NodeSet::from_indices(7, [4, 5, 6]);
        let f = 2;
        assert!(dominates(&g, &a, &b, Threshold::synchronous(f)));
        // 2f + 1 = 5 in-links from A into a single node of B cannot happen:
        // |A| = 4 < 5.
        assert!(!dominates(&g, &a, &b, Threshold::asynchronous(f)));
    }

    #[test]
    fn node_degrees_bound_influence() {
        // in(A ⇒ B) only ever contains nodes with in-degree ≥ threshold.
        let g = generators::wheel(8);
        let a = NodeSet::from_indices(8, [0, 1, 2, 3]);
        let b = a.complement();
        for f in 0..4 {
            let t = Threshold::synchronous(f);
            for v in influenced_set(&g, &a, &b, t).iter() {
                assert!(g.in_degree(v) >= t.get());
                assert!(b.contains(v));
            }
        }
    }

    #[test]
    fn influenced_set_ignores_nodes_outside_b() {
        let g = generators::complete(4);
        let a = NodeSet::from_indices(4, [0, 1, 2]);
        let b = NodeSet::from_indices(4, [3]);
        let inf = influenced_set(&g, &a, &b, Threshold::synchronous(1));
        assert_eq!(inf.to_indices(), vec![3]);
        assert!(!inf.contains(NodeId::new(0)));
    }
}
