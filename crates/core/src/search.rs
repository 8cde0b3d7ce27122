//! Randomized falsifier for graphs too large for the exact checker.
//!
//! Deciding the Theorem 1 condition is combinatorial (the exact checker in
//! [`crate::theorem1`] enumerates subsets), so for `n` beyond ~20 we fall
//! back to a sound-but-incomplete search: it only ever returns *verified*
//! witnesses, and returning `None` means "no violation found within the
//! trial budget", **not** that the condition holds.
//!
//! # Strategy
//!
//! Each trial samples a fault set `F` and a random seed bipartition of
//! `W = V − F`, then *deterministically* extracts the largest insular subset
//! on each side using the closure operator from [`crate::propagate`]:
//! `L* = L − closure_W(W − L)` is the largest insular subset of `L` (nodes
//! repeatedly absorbed by the outside are removed). If both extracted sides
//! are non-empty they are disjoint insular sets — exactly a Theorem 1
//! violation — and the witness is verified before being returned.

use iabc_graph::{for_each_subset_of_size, Digraph, NodeSet};
use rand::seq::IteratorRandom;
use rand::Rng;

use crate::propagate::closure;
use crate::relation::Threshold;
use crate::witness::Witness;

/// Attempts to find a Theorem 1 violation within `trials` random trials.
///
/// Returns a **verified** witness or `None` if the budget is exhausted.
/// A `None` result does *not* certify the condition — use
/// [`crate::theorem1::check`] for exact answers on small graphs.
///
/// # Examples
///
/// ```
/// use iabc_core::{search, Threshold};
/// use iabc_graph::generators;
/// use rand::SeedableRng;
///
/// // The hypercube violates the condition for f = 1; the falsifier finds a
/// // witness quickly.
/// let g = generators::hypercube(4);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let w = search::falsify(&g, 1, Threshold::synchronous(1), 500, &mut rng);
/// assert!(w.is_some());
/// ```
pub fn falsify<R: Rng + ?Sized>(
    g: &Digraph,
    f: usize,
    threshold: Threshold,
    trials: usize,
    rng: &mut R,
) -> Option<Witness> {
    let n = g.node_count();
    if n < 2 {
        return None;
    }
    if let Some(w) = crate::corollaries::quick_violation(g, f, threshold) {
        return Some(w);
    }
    let k_star = f.min(n - 2);
    for _ in 0..trials {
        let fault = random_fault_set(g, k_star, rng);
        let w = fault.complement();
        // Random bipartition seed of the fault-free pool.
        let mut left_seed = NodeSet::with_universe(n);
        let mut right_seed = NodeSet::with_universe(n);
        for v in w.iter() {
            if rng.random_bool(0.5) {
                left_seed.insert(v);
            } else {
                right_seed.insert(v);
            }
        }
        if left_seed.is_empty() || right_seed.is_empty() {
            continue;
        }
        if let Some(witness) = extract_witness(g, &fault, &w, &left_seed, threshold) {
            debug_assert!(witness.verify(g, f, threshold));
            return Some(witness);
        }
    }
    None
}

/// Samples a fault set of size `k`, biased towards in-neighbourhoods of
/// low-in-degree nodes (violations tend to hide behind weakly connected
/// nodes) half of the time, uniform otherwise.
fn random_fault_set<R: Rng + ?Sized>(g: &Digraph, k: usize, rng: &mut R) -> NodeSet {
    let n = g.node_count();
    let mut fault = NodeSet::with_universe(n);
    if k == 0 {
        return fault;
    }
    if rng.random_bool(0.5) {
        // Biased: take in-neighbours of a random low-degree node first.
        if let Some(victim) = g
            .nodes()
            .min_by_key(|&v| (g.in_degree(v), rng.random_range(0..n)))
        {
            for u in g.in_neighbors(victim).iter().choose_multiple(rng, k) {
                fault.insert(u);
            }
        }
    }
    // Fill up (or the entire set, in the uniform branch) with random nodes.
    while fault.len() < k {
        let v = iabc_graph::NodeId::new(rng.random_range(0..n));
        fault.insert(v);
    }
    fault
}

/// Deterministic part of a trial: extract the largest insular subsets of the
/// seed bipartition via closure complements, and package them as a witness
/// if both are non-empty.
fn extract_witness(
    g: &Digraph,
    fault: &NodeSet,
    w: &NodeSet,
    left_seed: &NodeSet,
    threshold: Threshold,
) -> Option<Witness> {
    let left = w.difference(&closure(g, w, &w.difference(left_seed), threshold));
    if left.is_empty() {
        return None;
    }
    let right_pool = w.difference(&left);
    let right = w.difference(&closure(g, w, &w.difference(&right_pool), threshold));
    // `right` is the largest insular subset of right_pool; disjoint from left.
    if right.is_empty() {
        return None;
    }
    let center = w.difference(&left).difference(&right);
    Some(Witness {
        fault_set: fault.clone(),
        left,
        center,
        right,
    })
}

/// Deterministic falsification from caller-supplied seed sets: for every
/// fault set of the padded size and every seed, extract the largest insular
/// subsets of `seed` and of its complement and report the first verified
/// witness.
///
/// This turns domain knowledge into proofs: e.g. experiment E7 passes the
/// hypercube's dimension halves as seeds and receives back the Figure 3
/// partition. (A seed works whenever it contains one insular set of a
/// violation and avoids the other.)
///
/// Polynomial per `(fault set, seed)` pair, so feasible far beyond the exact
/// checker's reach; a `None` result does not certify the condition.
pub fn falsify_with_seeds(
    g: &Digraph,
    f: usize,
    threshold: Threshold,
    seeds: &[NodeSet],
) -> Option<Witness> {
    let n = g.node_count();
    if n < 2 {
        return None;
    }
    if let Some(w) = crate::corollaries::quick_violation(g, f, threshold) {
        return Some(w);
    }
    let k_star = f.min(n - 2);
    let full = NodeSet::full(n);
    let mut found = None;
    for_each_subset_of_size(&full, k_star, |fault| {
        let w = fault.complement();
        for seed in seeds {
            let seed_in_pool = seed.intersection(&w);
            if seed_in_pool.is_empty() || seed_in_pool == w {
                continue;
            }
            if let Some(wit) = extract_witness(g, fault, &w, &seed_in_pool, threshold) {
                found = Some(wit);
                return false;
            }
        }
        true
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theorem1;
    use iabc_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn falsifier_finds_chord_counterexample() {
        let g = generators::chord(7, 5);
        let mut rng = StdRng::seed_from_u64(0);
        let w = falsify(&g, 2, Threshold::synchronous(2), 2000, &mut rng)
            .expect("chord f=2 n=7 is violated");
        assert!(w.verify(&g, 2, Threshold::synchronous(2)));
    }

    #[test]
    fn falsifier_finds_hypercube_cut() {
        let g = generators::hypercube(3);
        let mut rng = StdRng::seed_from_u64(1);
        let w = falsify(&g, 1, Threshold::synchronous(1), 2000, &mut rng)
            .expect("hypercube fails for f=1");
        assert!(w.verify(&g, 1, Threshold::synchronous(1)));
    }

    #[test]
    fn falsifier_never_lies_on_satisfying_graphs() {
        // Soundness: on graphs that satisfy the condition the falsifier must
        // return None (any witness it returned would have to verify, which
        // is impossible).
        let mut rng = StdRng::seed_from_u64(2);
        for (g, f) in [
            (generators::complete(7), 2usize),
            (generators::core_network(7, 2), 2),
            (generators::chord(5, 3), 1),
        ] {
            assert!(theorem1::check(&g, f).is_satisfied(), "precondition");
            assert!(falsify(&g, f, Threshold::synchronous(f), 300, &mut rng).is_none());
        }
    }

    #[test]
    fn falsifier_agrees_with_exact_checker_on_sweep() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut violations_found = 0;
        for trial in 0..20 {
            let g = generators::erdos_renyi(8, 0.35 + 0.02 * (trial % 5) as f64, &mut rng);
            let f = 1;
            let exact = theorem1::check(&g, f);
            let heur = falsify(&g, f, Threshold::synchronous(f), 800, &mut rng);
            match (&exact, &heur) {
                (crate::ConditionReport::Satisfied, Some(w)) => {
                    panic!("falsifier found witness {w} on satisfying graph {g:?}")
                }
                (crate::ConditionReport::Violated(_), Some(w)) => {
                    violations_found += 1;
                    assert!(w.verify(&g, f, Threshold::synchronous(f)));
                }
                _ => {}
            }
        }
        assert!(
            violations_found > 0,
            "sweep should produce findable violations"
        );
    }

    #[test]
    fn seeded_falsifier_proves_hypercube_cut() {
        // E7: feed the dimension halves as seeds; get back the Figure 3 cut.
        let g = generators::hypercube(3);
        let seeds = vec![
            NodeSet::from_indices(8, [0, 1, 2, 3]), // bit-2 = 0 half
            NodeSet::from_indices(8, (0..8).filter(|x| x & 0b010 == 0)),
            NodeSet::from_indices(8, (0..8).filter(|x| x & 0b001 == 0)),
        ];
        let w = falsify_with_seeds(&g, 1, Threshold::synchronous(1), &seeds)
            .expect("dimension-cut seed must produce a witness");
        assert!(w.verify(&g, 1, Threshold::synchronous(1)));
        // The witness is (contained in) a dimension cut.
        assert!(w.left.len() + w.right.len() <= 8);
    }

    #[test]
    fn seeded_falsifier_sound_on_satisfying_graphs() {
        let g = generators::core_network(7, 2);
        let seeds: Vec<NodeSet> = (0..7).map(|v| NodeSet::from_indices(7, [v])).collect();
        assert!(falsify_with_seeds(&g, 2, Threshold::synchronous(2), &seeds).is_none());
    }

    #[test]
    fn seeded_falsifier_ignores_degenerate_seeds() {
        let g = generators::hypercube(3);
        // Empty and full seeds are skipped without panicking.
        let seeds = vec![NodeSet::with_universe(8), NodeSet::full(8)];
        assert!(falsify_with_seeds(&g, 1, Threshold::synchronous(1), &seeds).is_none());
    }

    #[test]
    fn falsifier_scales_to_larger_graphs() {
        // n = 32 hypercube (d = 5): far beyond the exact checker, but the
        // falsifier still finds the dimension cut.
        let g = generators::hypercube(5);
        let mut rng = StdRng::seed_from_u64(4);
        let w = falsify(&g, 1, Threshold::synchronous(1), 5000, &mut rng)
            .expect("dimension cut exists");
        assert!(w.verify(&g, 1, Threshold::synchronous(1)));
    }
}
