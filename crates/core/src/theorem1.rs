//! Exact checker for the paper's tight condition (Theorem 1).
//!
//! **Theorem 1.** Let `F, L, C, R` partition `V` with `|F| ≤ f`, `L ≠ ∅`,
//! `R ≠ ∅`. A correct iterative approximate Byzantine consensus algorithm
//! exists only if for every such partition `C ∪ R ⇒ L` or `L ∪ C ⇒ R`.
//! Theorems 2–3 prove the same condition *sufficient* (Algorithm 1 works).
//!
//! # How the checker works
//!
//! Call a set `L ⊆ W := V − F` **insular** (w.r.t. `F` and threshold `T`)
//! when no node of `L` has `≥ T` in-neighbours in `W − L`; that is,
//! `(W − L) 6⇒ L`. Since `C ∪ R = W − L` and `L ∪ C = W − R`, a partition
//! violates Theorem 1 **iff `L` and `R` are two disjoint non-empty insular
//! sets**. The checker therefore enumerates, per fault set `F`, the insular
//! subsets of `W` in increasing size and reports the first disjoint pair.
//!
//! # Fault-set padding
//!
//! Only `|F| = min(f, n − 2)` needs to be enumerated. If a violating
//! partition exists with `|F| = k < min(f, n − 2)` then `W` has at least
//! three nodes, so one of the following moves produces a violating partition
//! with `|F| = k + 1`:
//!
//! * move any node of `C` into `F` — every constraint set `W − L`, `W − R`
//!   only shrinks;
//! * if `C = ∅`, one of `L`, `R` has ≥ 2 nodes; moving a node `x` out of
//!   (say) `L` into `F` leaves `W − (L − {x}) = W' − L'` unchanged for the
//!   remaining `L` nodes and shrinks it for `R` nodes.
//!
//! Iterating lifts any violation to `|F| = min(f, n − 2)`, so enumerating
//! that single size is complete. (Checked against the unpadded brute force
//! in the test suite.)
//!
//! # Cost
//!
//! Deciding the condition is combinatorial: `C(n, f)` fault sets times
//! `2^(n-f)` candidate sets, each tested with one AND and popcount per
//! member on packed words. A satisfied graph walks every candidate. Twin
//! nodes cut the fault sets: the `scan` kernel scans one set per class of
//! sets that swaps of twins map onto each other. A core network has two
//! classes of twins and needs `f + 1` fault sets scanned; a twin-free graph
//! needs all of them. Best of five
//! runs, ranges over three runs alternated with the checker that scanned
//! every fault set, on a shared 2-core x86-64 host (Xeon, 2.1 GHz),
//! release build:
//!
//! | graph, `f` | fault sets scanned × candidates | [`check`] | scanning every fault set |
//! |---|---|---|---|
//! | `core_network(13, 3)`, 3 | 4 of 286 × 2¹⁰ | 0.12–0.22 ms | 9.0–13.5 ms |
//! | `core_network(13, 4)`, 4 | 5 of 715 × 2⁹ | 0.18–0.27 ms | 21–32 ms |
//! | `core_network(14, 4)`, 4 | 5 of 1,001 × 2¹⁰ | 0.43–0.60 ms | 69–95 ms |
//! | `core_network(16, 4)`, 4 | 5 of 1,820 × 2¹² | 1.7–1.9 ms | 0.50–0.61 s |
//! | `erdos_renyi(14, 0.9)` (seed 4, twin-free), 2 | 91 of 91 × 2¹² | 6.1–12 ms | 6.0–12 ms |
//!
//! [`crate::minimality::critical_edges`] on `core_network(13, 4)` runs 145
//! checks, most on a graph with one edge removed, where the two classes
//! lose a node or two: 11–17 ms, against 0.22–0.32 s scanning every fault
//! set. A [`CheckOptions::budget`] scans every fault set, so that it counts
//! the same candidates either way.
//!
//! [`check_parallel`] splits the scanned fault sets over threads. Each
//! added node doubles the candidates per fault set; for larger graphs use
//! the budgeted variant or the randomized falsifier in [`crate::search`].

use iabc_graph::{for_each_subset_of_size, Digraph, NodeSet};

use crate::corollaries;
use crate::error::CheckerError;
use crate::relation::Threshold;
use crate::scan::{self, Below, Scan};
use crate::witness::{ConditionReport, Witness};

/// Returns `true` iff `L` is *insular* w.r.t. the fault-free pool `W`:
/// no node of `L` has `threshold` or more in-neighbours in `W − L`,
/// i.e. `(W − L) 6⇒ L`.
///
/// `L` must be a subset of `W`; nodes outside `W` are ignored by
/// construction of the difference.
pub fn is_insular(g: &Digraph, w: &NodeSet, l: &NodeSet, threshold: Threshold) -> bool {
    let outside = w.difference(l);
    l.iter()
        .all(|v| g.in_neighbors(v).intersection_len(&outside) < threshold.get())
}

/// Options controlling the exact checker.
#[derive(Debug, Clone, Default)]
pub struct CheckOptions {
    /// Maximum number of `(F, L)` candidate pairs to visit before giving up
    /// with [`CheckerError::BudgetExhausted`]. `None` means unbounded.
    pub budget: Option<u64>,
    /// Skip the `O(n)`/`O(1)` corollary fast paths (used by tests to exercise
    /// the full enumeration on graphs the fast paths would short-circuit).
    pub skip_fast_paths: bool,
}

/// Checks the Theorem 1 condition with the synchronous threshold `f + 1`.
///
/// Returns [`ConditionReport::Satisfied`] iff iterative approximate Byzantine
/// consensus tolerating `f` faults is possible on `g` (and then Algorithm 1
/// achieves it), otherwise a verified violating [`Witness`].
///
/// # Examples
///
/// ```
/// use iabc_core::theorem1;
/// use iabc_graph::generators;
///
/// // §6.3: the chord network with f = 2, n = 7 does NOT satisfy Theorem 1...
/// let bad = generators::chord(7, 5);
/// assert!(!theorem1::check(&bad, 2).is_satisfied());
/// // ...but with f = 1, n = 5 it does.
/// let good = generators::chord(5, 3);
/// assert!(theorem1::check(&good, 1).is_satisfied());
/// ```
pub fn check(g: &Digraph, f: usize) -> ConditionReport {
    check_with(g, f, Threshold::synchronous(f), &CheckOptions::default())
        .expect("unbounded check cannot exhaust its budget")
}

/// Convenience: the violating witness for the synchronous condition, if any.
pub fn find_violation(g: &Digraph, f: usize) -> Option<Witness> {
    match check(g, f) {
        ConditionReport::Satisfied => None,
        ConditionReport::Violated(w) => Some(w),
    }
}

/// The largest `f` for which `g` satisfies the Theorem 1 condition — the
/// graph's *Byzantine capacity* for iterative consensus.
///
/// Tolerating `f + 1` faults subsumes tolerating `f` (any `|F| ≤ f`
/// scenario is also a `|F| ≤ f + 1` scenario, and the `⇒` threshold only
/// rises), so satisfaction is downward-closed in `f` and a linear scan
/// with early exit is exact. Corollary 2 bounds the answer by
/// `⌈n/3⌉ − 1`, so the scan is short.
///
/// Returns `None` if the graph does not even satisfy the condition at
/// `f = 0` (no unique source component).
///
/// # Examples
///
/// ```
/// use iabc_core::theorem1::max_tolerable_f;
/// use iabc_graph::generators;
///
/// assert_eq!(max_tolerable_f(&generators::complete(7)), Some(2));
/// assert_eq!(max_tolerable_f(&generators::hypercube(3)), Some(0));
/// assert_eq!(max_tolerable_f(&generators::path(3)), Some(0));
/// ```
pub fn max_tolerable_f(g: &Digraph) -> Option<usize> {
    let n = g.node_count();
    let cap = n.div_ceil(3).saturating_sub(1); // Corollary 2: f <= ceil(n/3) - 1
    let mut best: Option<usize> = None;
    for f in 0..=cap {
        if check(g, f).is_satisfied() {
            best = Some(f);
        } else {
            break;
        }
    }
    best
}

/// Checks the Theorem 1 condition under an explicit `⇒` threshold
/// (use [`Threshold::asynchronous`] for the Section 7 variant) and
/// [`CheckOptions`].
///
/// # Errors
///
/// Returns [`CheckerError::BudgetExhausted`] if `options.budget` is reached
/// before the search completes.
pub fn check_with(
    g: &Digraph,
    f: usize,
    threshold: Threshold,
    options: &CheckOptions,
) -> Result<ConditionReport, CheckerError> {
    let n = g.node_count();
    if n <= 1 {
        // Consensus is trivial with zero or one node (paper assumes n ≥ 2).
        return Ok(ConditionReport::Satisfied);
    }
    if !options.skip_fast_paths {
        if let Some(w) = corollaries::quick_violation(g, f, threshold) {
            debug_assert!(w.verify(g, f, threshold));
            return Ok(ConditionReport::Violated(w));
        }
        if f == 0 && threshold.get() == 1 {
            // f = 0 degenerates to the classical condition: a unique source
            // component in the condensation. Two source components give two
            // insular sets directly.
            return Ok(check_f_zero(g));
        }
    }

    let k_star = f.min(n - 2);
    let full = NodeSet::full(n);
    let fault_sets = |visit: &mut dyn FnMut(&NodeSet) -> bool| {
        for_each_subset_of_size(&full, k_star, visit);
    };
    match scan::search(g, &Below(threshold.get()), options.budget, fault_sets) {
        Scan::Clear => Ok(ConditionReport::Satisfied),
        Scan::Violated(w) => {
            debug_assert!(
                w.verify(g, f, threshold),
                "checker produced invalid witness {w}"
            );
            Ok(ConditionReport::Violated(w))
        }
        Scan::Exhausted => Err(CheckerError::BudgetExhausted {
            budget: options.budget.unwrap_or(0),
        }),
    }
}

/// Parallel variant of [`check_with`]: the fault sets that need a scan,
/// packed as word masks, are distributed over a pool of `threads` workers
/// (clamped to at least 1) via the shared [`iabc_exec::Executor`] — one
/// fault set per work item, with a found flag short-circuiting the
/// remaining items. Returns the same answer as the sequential checker; when
/// violations exist, which witness is returned may differ run-to-run.
pub fn check_parallel(
    g: &Digraph,
    f: usize,
    threshold: Threshold,
    threads: usize,
) -> ConditionReport {
    let n = g.node_count();
    if n <= 1 {
        return ConditionReport::Satisfied;
    }
    if let Some(w) = corollaries::quick_violation(g, f, threshold) {
        return ConditionReport::Violated(w);
    }
    if f == 0 && threshold.get() == 1 {
        return check_f_zero(g);
    }

    let k_star = f.min(n - 2);
    match scan::search_parallel(g, &Below(threshold.get()), k_star, threads) {
        Some(w) => ConditionReport::Violated(w),
        None => ConditionReport::Satisfied,
    }
}

/// Fast path for `f = 0`: the condition holds iff the condensation of `g`
/// has exactly one source component.
pub(crate) fn check_f_zero(g: &Digraph) -> ConditionReport {
    let sources = iabc_graph::algorithms::source_components(g);
    if sources.len() <= 1 {
        ConditionReport::Satisfied
    } else {
        let n = g.node_count();
        let left = sources[0].clone();
        let right = sources[1].clone();
        let center = left.union(&right).complement();
        ConditionReport::Violated(Witness {
            fault_set: NodeSet::with_universe(n),
            left,
            center,
            right,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_graph::{generators, NodeId};

    /// Unpadded, unpruned reference checker: literally quantify over every
    /// partition F, L, C, R with |F| ≤ f by 4-colouring the nodes.
    fn brute_force(g: &Digraph, f: usize, threshold: Threshold) -> bool {
        let n = g.node_count();
        let mut color = vec![0usize; n]; // 0=F 1=L 2=C 3=R
        fn rec(
            g: &Digraph,
            f: usize,
            threshold: Threshold,
            color: &mut Vec<usize>,
            i: usize,
        ) -> bool {
            let n = g.node_count();
            if i == n {
                let mut sets = [
                    NodeSet::with_universe(n),
                    NodeSet::with_universe(n),
                    NodeSet::with_universe(n),
                    NodeSet::with_universe(n),
                ];
                for (v, &c) in color.iter().enumerate() {
                    sets[c].insert(NodeId::new(v));
                }
                let [fa, l, c, r] = sets;
                if fa.len() > f || l.is_empty() || r.is_empty() {
                    return true; // partition out of scope; fine
                }
                let cr = c.union(&r);
                let lc = l.union(&c);
                return crate::relation::dominates(g, &cr, &l, threshold)
                    || crate::relation::dominates(g, &lc, &r, threshold);
            }
            for c in 0..4 {
                color[i] = c;
                if !rec(g, f, threshold, color, i + 1) {
                    return false;
                }
            }
            true
        }
        rec(g, f, threshold, &mut color, 0)
    }

    #[test]
    fn complete_graphs_satisfy_iff_n_gt_3f() {
        for f in 1..=2usize {
            for n in 2..=(3 * f + 3) {
                let g = generators::complete(n);
                let expect = n > 3 * f;
                assert_eq!(check(&g, f).is_satisfied(), expect, "n={n} f={f}");
            }
        }
    }

    #[test]
    fn paper_section63_chord_results() {
        // f = 1, n = 4: complete graph, satisfied.
        assert!(check(&generators::chord(4, 3), 1).is_satisfied());
        // f = 2, n = 7: violated.
        let report = check(&generators::chord(7, 5), 2);
        let w = report.witness().expect("must be violated");
        assert!(w.verify(&generators::chord(7, 5), 2, Threshold::synchronous(2)));
        // f = 1, n = 5: satisfied.
        assert!(check(&generators::chord(5, 3), 1).is_satisfied());
    }

    #[test]
    fn paper_section62_hypercube_fails_for_f1() {
        let g = generators::hypercube(3);
        let report = check(&g, 1);
        let w = report.witness().expect("hypercube must fail for f >= 1");
        assert!(w.verify(&g, 1, Threshold::synchronous(1)));
    }

    #[test]
    fn paper_section61_core_networks_satisfy() {
        for f in 1..=2usize {
            for n in (3 * f + 1)..=(3 * f + 4) {
                let g = generators::core_network(n, f);
                assert!(check(&g, f).is_satisfied(), "core network n={n} f={f}");
            }
        }
    }

    #[test]
    fn checker_agrees_with_brute_force_on_small_graphs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(2012);
        for f in 0..=1usize {
            for n in 2..=6usize {
                for trial in 0..8 {
                    let p = 0.2 + 0.1 * (trial % 7) as f64;
                    let g = generators::erdos_renyi(n, p, &mut rng);
                    let t = Threshold::synchronous(f);
                    let fast = check(&g, f).is_satisfied();
                    let slow = brute_force(&g, f, t);
                    assert_eq!(fast, slow, "n={n} f={f} trial={trial} g={g:?}");
                }
            }
        }
    }

    #[test]
    fn padded_and_fastpathless_checks_agree() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(99);
        let opts = CheckOptions {
            skip_fast_paths: true,
            ..CheckOptions::default()
        };
        for n in 4..=7usize {
            for f in 0..=2usize {
                let g = generators::erdos_renyi(n, 0.5, &mut rng);
                let t = Threshold::synchronous(f);
                let with_fast = check(&g, f).is_satisfied();
                let without_fast = check_with(&g, f, t, &opts).unwrap().is_satisfied();
                assert_eq!(with_fast, without_fast, "n={n} f={f}");
            }
        }
    }

    #[test]
    fn f_zero_reduces_to_unique_source_component() {
        // Cycle: one SCC, satisfied.
        assert!(check(&generators::cycle(5), 0).is_satisfied());
        // Path: unique source (node 0), satisfied.
        assert!(check(&generators::path(4), 0).is_satisfied());
        // Two disjoint cycles: two sources, violated.
        let g = Digraph::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)]).unwrap();
        let report = check(&g, 0);
        let w = report.witness().expect("two-source graph fails at f=0");
        assert!(w.verify(&g, 0, Threshold::synchronous(0)));
    }

    #[test]
    fn returned_witnesses_always_verify() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let mut violated = 0;
        for _ in 0..30 {
            let g = generators::erdos_renyi(7, 0.45, &mut rng);
            for f in 0..=2usize {
                if let ConditionReport::Violated(w) = check(&g, f) {
                    violated += 1;
                    assert!(
                        w.verify(&g, f, Threshold::synchronous(f)),
                        "g={g:?} f={f} w={w}"
                    );
                }
            }
        }
        assert!(violated > 0, "sweep should produce some violations");
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // K9 with f = 2 satisfies the condition, so the search must visit
        // every candidate; a budget of 3 cannot suffice.
        let g = generators::complete(9);
        let opts = CheckOptions {
            budget: Some(3),
            skip_fast_paths: true,
        };
        let err = check_with(&g, 2, Threshold::synchronous(2), &opts).unwrap_err();
        assert!(matches!(err, CheckerError::BudgetExhausted { .. }));
    }

    #[test]
    fn early_witness_beats_budget() {
        // chord(9, 4) has in-degree 4 ≤ 2f: with fast paths skipped the
        // enumeration still finds two disjoint insular singletons within a
        // tiny budget, so the check succeeds rather than exhausting.
        let g = generators::chord(9, 4);
        let opts = CheckOptions {
            budget: Some(10),
            skip_fast_paths: true,
        };
        let report = check_with(&g, 2, Threshold::synchronous(2), &opts).unwrap();
        assert!(!report.is_satisfied());
    }

    #[test]
    fn parallel_matches_sequential() {
        for (g, f) in [
            (generators::chord(7, 5), 2usize),
            (generators::chord(5, 3), 1),
            (generators::core_network(7, 2), 2),
            (generators::hypercube(3), 1),
        ] {
            let t = Threshold::synchronous(f);
            let seq = check(&g, f).is_satisfied();
            let par = check_parallel(&g, f, t, 4).is_satisfied();
            assert_eq!(seq, par, "graph {g} f={f}");
        }
    }

    /// Disjoint K4 blocks; nodes past the last full block hear that
    /// block's first three nodes.
    fn k4_blocks(n: usize) -> Digraph {
        let full = n / 4 * 4;
        let mut edges = Vec::new();
        for b in (0..full).step_by(4) {
            for u in b..b + 4 {
                edges.extend((b..b + 4).filter(|&v| v != u).map(|v| (u, v)));
            }
        }
        for v in full..n {
            edges.extend((full - 4..full - 1).map(|u| (u, v)));
        }
        Digraph::from_edges(n, edges).unwrap()
    }

    #[test]
    fn witnesses_at_and_above_one_word_of_nodes() {
        for n in [63, 64, 65, 128] {
            let g = k4_blocks(n);
            let report = check(&g, 1);
            let w = report.witness().expect("disjoint blocks violate");
            assert_eq!(w.fault_set.to_indices(), [0], "n={n}");
            assert_eq!(w.left.to_indices(), [1, 2], "n={n}");
            assert_eq!(w.right.to_indices(), [4, 5, 6], "n={n}");
            assert!(w.verify(&g, 1, Threshold::synchronous(1)), "n={n}");
        }
    }

    #[test]
    fn trivial_graphs_are_satisfied() {
        assert!(check(&Digraph::new(0), 3).is_satisfied());
        assert!(check(&Digraph::new(1), 3).is_satisfied());
    }

    #[test]
    fn capacity_matches_known_families() {
        // Complete graphs: capacity ⌈n/3⌉ - 1 exactly (Corollary 2 tight).
        for n in 4..=10usize {
            assert_eq!(
                max_tolerable_f(&generators::complete(n)),
                Some(n.div_ceil(3) - 1),
                "K{n}"
            );
        }
        // Core network is built for its f.
        assert_eq!(max_tolerable_f(&generators::core_network(7, 2)), Some(2));
        // chord(5,3) handles f = 1 but not 2 (n <= 3f).
        assert_eq!(max_tolerable_f(&generators::chord(5, 3)), Some(1));
        // Two disjoint cycles: not even f = 0.
        let g = Digraph::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)]).unwrap();
        assert_eq!(max_tolerable_f(&g), None);
        // Degenerate sizes.
        assert_eq!(max_tolerable_f(&Digraph::new(0)), Some(0));
        assert_eq!(max_tolerable_f(&Digraph::new(1)), Some(0));
    }

    #[test]
    fn capacity_is_downward_closed() {
        // Every f at or below the capacity is satisfied; capacity + 1 is not.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..15 {
            let g = generators::erdos_renyi(7, 0.75, &mut rng);
            if let Some(cap) = max_tolerable_f(&g) {
                for f in 0..=cap {
                    assert!(check(&g, f).is_satisfied(), "f={f} below capacity {cap}");
                }
                assert!(
                    !check(&g, cap + 1).is_satisfied(),
                    "capacity {cap} not maximal"
                );
            } else {
                assert!(!check(&g, 0).is_satisfied());
            }
        }
    }

    #[test]
    fn insularity_definition() {
        let g = generators::chord(7, 5);
        let w = NodeSet::from_indices(7, [0, 1, 2, 3, 4]); // V - {5, 6}
        let t = Threshold::synchronous(2);
        // The paper's witness sets are insular w.r.t. W.
        assert!(is_insular(&g, &w, &NodeSet::from_indices(7, [0, 2]), t));
        assert!(is_insular(&g, &w, &NodeSet::from_indices(7, [1, 3, 4]), t));
        // The whole pool is trivially insular; a dominated set is not.
        assert!(is_insular(&g, &w, &w, t));
        assert!(!is_insular(&g, &w, &NodeSet::from_indices(7, [0]), t));
    }

    #[test]
    fn async_threshold_checks_are_stricter() {
        // Complete graph n = 7 tolerates f = 2 synchronously but not
        // asynchronously (needs n > 5f = 10).
        let g = generators::complete(7);
        assert!(check(&g, 2).is_satisfied());
        let report =
            check_with(&g, 2, Threshold::asynchronous(2), &CheckOptions::default()).unwrap();
        assert!(!report.is_satisfied());
        // n = 11 > 5f works asynchronously.
        let big = generators::complete(11);
        let report = check_with(
            &big,
            2,
            Threshold::asynchronous(2),
            &CheckOptions::default(),
        )
        .unwrap();
        assert!(report.is_satisfied());
    }
}
