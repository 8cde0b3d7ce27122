//! Fast necessary conditions (Corollaries 2 and 3) with explicit witness
//! construction, generalized over the `⇒` threshold so that the Section 7
//! asynchronous bounds fall out of the same code.
//!
//! With threshold `T` (synchronous `T = f + 1`, asynchronous `T = 2f + 1`):
//!
//! * **Corollary 2 (generalized)**: `n ≥ 2(T − 1) + f + 1` is necessary.
//!   Synchronous: `n ≥ 3f + 1`, i.e. `n > 3f`. Asynchronous: `n > 5f`.
//! * **Corollary 3 (generalized)**: every node needs `|N⁻_i| ≥ T + f` when
//!   `T ≥ 2`. Synchronous: `≥ 2f + 1`. Asynchronous: `≥ 3f + 1`.
//!
//! Both constructions mirror the paper's proofs: for Corollary 2 split the
//! nodes into two sides of size `≤ T − 1` plus a fault set; for Corollary 3
//! isolate a deficient node `i` as `L = {i}` and hide `min(f, |N⁻_i|)` of
//! its in-neighbours inside `F`.

use iabc_graph::{Digraph, NodeId, NodeSet};

use crate::relation::Threshold;
use crate::witness::Witness;

/// Minimum number of nodes required by the generalized Corollary 2:
/// `2(T − 1) + f + 1`, saturating at `usize::MAX` (no graph is that large).
///
/// # Examples
///
/// ```
/// use iabc_core::{corollaries, Threshold};
/// // Synchronous: n > 3f, so f = 2 needs at least 7 nodes.
/// assert_eq!(corollaries::min_nodes_required(2, Threshold::synchronous(2)), 7);
/// // Asynchronous: n > 5f, so f = 2 needs at least 11.
/// assert_eq!(corollaries::min_nodes_required(2, Threshold::asynchronous(2)), 11);
/// ```
pub fn min_nodes_required(f: usize, threshold: Threshold) -> usize {
    threshold
        .get()
        .saturating_sub(1)
        .saturating_mul(2)
        .saturating_add(f)
        .saturating_add(1)
}

/// Minimum in-degree required by the generalized Corollary 3 (`T + f` when
/// `T ≥ 2`, saturating; no constraint when `T ≤ 1`, i.e. `f = 0`).
///
/// # Examples
///
/// ```
/// use iabc_core::{corollaries, Threshold};
/// assert_eq!(corollaries::min_in_degree_required(2, Threshold::synchronous(2)), 5);
/// assert_eq!(corollaries::min_in_degree_required(2, Threshold::asynchronous(2)), 7);
/// assert_eq!(corollaries::min_in_degree_required(0, Threshold::synchronous(0)), 0);
/// ```
pub fn min_in_degree_required(f: usize, threshold: Threshold) -> usize {
    if threshold.get() < 2 {
        0
    } else {
        threshold.get().saturating_add(f)
    }
}

/// Checks the `O(n)` necessary conditions and, on failure, constructs the
/// violating witness from the corollary proofs. Returns `None` when both
/// corollaries pass (the full Theorem 1 check is then still required).
pub fn quick_violation(g: &Digraph, f: usize, threshold: Threshold) -> Option<Witness> {
    let n = g.node_count();
    let t = threshold.get();
    if n < 2 || t < 2 {
        return None;
    }
    // Corollary 2: too few nodes overall.
    if n < min_nodes_required(f, threshold) {
        return Some(corollary2_witness(n, f, t));
    }
    // Corollary 3: some node hears too few others.
    for i in g.nodes() {
        if g.in_degree(i) < min_in_degree_required(f, threshold) {
            return Some(corollary3_witness(g, f, i));
        }
    }
    None
}

/// Builds the Corollary 2 witness: `L`, `R` of size `≤ T − 1` each, the rest
/// in `F`. Requires `n ≥ 2` and `n ≤ 2(T − 1) + f`.
fn corollary2_witness(n: usize, f: usize, t: usize) -> Witness {
    let a = (t - 1).min(n - 1).max(1);
    let b = (t - 1).min(n - a).max(1);
    let fault = n - a - b;
    debug_assert!(fault <= f, "corollary 2 fault set too large: {fault} > {f}");
    Witness {
        left: NodeSet::from_indices(n, 0..a),
        right: NodeSet::from_indices(n, a..a + b),
        fault_set: NodeSet::from_indices(n, a + b..n),
        center: NodeSet::with_universe(n),
    }
}

/// Builds the Corollary 3 witness for a degree-deficient node `i`:
/// `L = {i}`, `F` = up to `f` of `i`'s in-neighbours, `R` = everything else.
fn corollary3_witness(g: &Digraph, f: usize, i: NodeId) -> Witness {
    let n = g.node_count();
    let mut fault = NodeSet::with_universe(n);
    for (count, u) in g.in_neighbors(i).iter().enumerate() {
        if count == f {
            break;
        }
        fault.insert(u);
    }
    let left = NodeSet::singleton(n, i);
    let right = fault.union(&left).complement();
    Witness {
        fault_set: fault,
        left,
        center: NodeSet::with_universe(n),
        right,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_graph::generators;

    #[test]
    fn corollary2_bounds_match_paper() {
        // Synchronous: n must exceed 3f.
        assert_eq!(min_nodes_required(1, Threshold::synchronous(1)), 4);
        assert_eq!(min_nodes_required(3, Threshold::synchronous(3)), 10);
        // Asynchronous: n must exceed 5f.
        assert_eq!(min_nodes_required(1, Threshold::asynchronous(1)), 6);
        // Saturating: no graph has enough nodes for a huge f.
        for f in [1 << 63, usize::MAX] {
            for t in [Threshold::synchronous(f), Threshold::asynchronous(f)] {
                assert_eq!(min_nodes_required(f, t), usize::MAX, "f={f}");
            }
        }
    }

    /// `f + 1` and `2f + 1` once wrapped here in release builds (and
    /// panicked in debug ones), so K4 read as tolerating any huge `f`.
    #[test]
    fn huge_fault_bounds_are_violated_by_every_checker() {
        use crate::fault_model::{check_model, FaultModel};
        use crate::theorem1::{self, CheckOptions};
        let g = generators::complete(4);
        for f in [1 << 63, usize::MAX] {
            let asynchronous = Threshold::asynchronous(f);
            let opts = CheckOptions::default();
            assert!(!theorem1::check(&g, f).is_satisfied(), "f={f}");
            let report = theorem1::check_with(&g, f, asynchronous, &opts).unwrap();
            assert!(!report.is_satisfied(), "async f={f}");
            assert!(!crate::local_fault::check_local(&g, f).is_satisfied());
            for t in [Threshold::synchronous(f), asynchronous] {
                assert!(!theorem1::check_parallel(&g, f, t, 2).is_satisfied());
            }
            assert!(!check_model(&g, &FaultModel::Total(f)).is_satisfied());
        }
    }

    #[test]
    fn corollary3_bounds_match_paper() {
        assert_eq!(min_in_degree_required(1, Threshold::synchronous(1)), 3);
        assert_eq!(min_in_degree_required(3, Threshold::synchronous(3)), 7);
        assert_eq!(min_in_degree_required(1, Threshold::asynchronous(1)), 4);
        for f in [1 << 63, usize::MAX] {
            for t in [Threshold::synchronous(f), Threshold::asynchronous(f)] {
                assert_eq!(min_in_degree_required(f, t), usize::MAX, "f={f}");
            }
        }
    }

    #[test]
    fn small_complete_graphs_yield_corollary2_witnesses() {
        for f in 1..=3usize {
            for n in 2..=(3 * f) {
                let g = generators::complete(n);
                let t = Threshold::synchronous(f);
                let w =
                    quick_violation(&g, f, t).unwrap_or_else(|| panic!("K{n} must fail for f={f}"));
                assert!(w.verify(&g, f, t), "invalid witness for K{n}, f={f}: {w}");
            }
        }
    }

    #[test]
    fn large_enough_complete_graphs_pass_quick_checks() {
        for f in 1..=3usize {
            let g = generators::complete(3 * f + 1);
            assert!(quick_violation(&g, f, Threshold::synchronous(f)).is_none());
        }
    }

    #[test]
    fn degree_deficient_node_yields_corollary3_witness() {
        // Lollipop: complete K7 plus a tail node with in-degree 1.
        let g = generators::lollipop(7, 1);
        let t = Threshold::synchronous(2);
        let w = quick_violation(&g, 2, t).expect("tail node in-degree 1 < 5");
        assert!(w.verify(&g, 2, t), "invalid corollary 3 witness: {w}");
        assert_eq!(
            w.left.to_indices(),
            vec![7],
            "witness isolates the tail node"
        );
    }

    #[test]
    fn corollary3_with_fewer_in_neighbors_than_f() {
        // Node with in-degree 1 while f = 3: F absorbs the whole in-neighbourhood.
        let g = generators::lollipop(10, 1);
        let t = Threshold::synchronous(3);
        let w = quick_violation(&g, 3, t).expect("deficient node");
        assert!(w.verify(&g, 3, t));
        assert!(w.fault_set.len() <= 3);
    }

    #[test]
    fn async_quick_checks_are_stricter() {
        // K7 passes the synchronous quick checks for f = 2 but fails the
        // asynchronous ones (needs n ≥ 11).
        let g = generators::complete(7);
        assert!(quick_violation(&g, 2, Threshold::synchronous(2)).is_none());
        let w = quick_violation(&g, 2, Threshold::asynchronous(2)).expect("async needs n > 10");
        assert!(w.verify(&g, 2, Threshold::asynchronous(2)));
    }

    #[test]
    fn f_zero_has_no_quick_checks() {
        let g = generators::path(2);
        assert!(quick_violation(&g, 0, Threshold::synchronous(0)).is_none());
    }
}
