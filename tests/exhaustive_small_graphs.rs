//! Exhaustive validation on *all* 4-node digraphs (2^12 = 4096 graphs):
//! the checker agrees with the 4-colouring brute force everywhere, and on
//! every satisfying graph Algorithm 1 actually converges under attack.
//!
//! This is the strongest form of ground truth the reproduction has: for
//! n = 4, f = 1 there is no sampling — every graph is covered.

use iabc::core::rules::TrimmedMean;
use iabc::core::{relation, theorem1, Threshold};
use iabc::graph::{Digraph, NodeId, NodeSet};
use iabc::sim::adversary::ExtremesAdversary;
use iabc::sim::{RunConfig, Simulation};

const N: usize = 4;
const F: usize = 1;

fn graph_from_mask(mask: u32) -> Digraph {
    let mut g = Digraph::new(N);
    let mut bit = 0;
    for u in 0..N {
        for v in 0..N {
            if u != v {
                if mask & (1 << bit) != 0 {
                    g.add_edge(NodeId::new(u), NodeId::new(v));
                }
                bit += 1;
            }
        }
    }
    g
}

/// Literal Theorem 1: quantify over every 4-colouring of the nodes.
fn brute_force_satisfied(g: &Digraph) -> bool {
    let t = Threshold::synchronous(F);
    let n = g.node_count();
    // Each node gets colour 0=F, 1=L, 2=C, 3=R.
    for assignment in 0..(4u32.pow(n as u32)) {
        let mut sets = [
            NodeSet::with_universe(n),
            NodeSet::with_universe(n),
            NodeSet::with_universe(n),
            NodeSet::with_universe(n),
        ];
        let mut a = assignment;
        for v in 0..n {
            sets[(a % 4) as usize].insert(NodeId::new(v));
            a /= 4;
        }
        let [fa, l, c, r] = sets;
        if fa.len() > F || l.is_empty() || r.is_empty() {
            continue;
        }
        let cr = c.union(&r);
        let lc = l.union(&c);
        if !relation::dominates(g, &cr, &l, t) && !relation::dominates(g, &lc, &r, t) {
            return false;
        }
    }
    true
}

#[test]
fn checker_matches_brute_force_on_all_4_node_digraphs() {
    let mut satisfied = 0usize;
    for mask in 0..(1u32 << (N * (N - 1))) {
        let g = graph_from_mask(mask);
        let fast = theorem1::check(&g, F).is_satisfied();
        let slow = brute_force_satisfied(&g);
        assert_eq!(fast, slow, "disagreement on mask {mask:#014b}: {g:?}");
        if fast {
            satisfied += 1;
        }
    }
    // K4 satisfies, so the satisfying class is non-empty; the empty graph
    // does not, so it is also proper.
    assert!(satisfied > 0);
    assert!(satisfied < 1 << (N * (N - 1)));
    // For the record: exactly one graph class boundary. K4 itself must be
    // in the satisfying set:
    assert!(theorem1::check(&graph_from_mask(u32::MAX >> (32 - 12)), F).is_satisfied());
}

#[test]
fn every_satisfying_4_node_graph_converges_under_attack() {
    let inputs = [0.0, 1.0, 2.0, 3.0];
    let config = RunConfig {
        record_states: false,
        epsilon: 1e-6,
        max_rounds: 2_000,
    };
    let mut tested = 0usize;
    for mask in 0..(1u32 << (N * (N - 1))) {
        let g = graph_from_mask(mask);
        if !theorem1::check(&g, F).is_satisfied() {
            continue;
        }
        tested += 1;
        // Fault each node in turn; the guarantee is for every placement.
        for faulty in 0..N {
            let faults = NodeSet::from_indices(N, [faulty]);
            let rule = TrimmedMean::new(F);
            let out = Simulation::new(
                &g,
                &inputs,
                faults,
                &rule,
                Box::new(ExtremesAdversary::new(100.0)),
            )
            .expect("valid sim")
            .run(&config)
            .expect("satisfying graphs meet the degree bound");
            assert!(
                out.converged && out.validity.is_valid(),
                "mask {mask:#014b}, faulty {faulty}: converged={} valid={}",
                out.converged,
                out.validity.is_valid()
            );
        }
    }
    assert!(tested > 0, "some 4-node graphs satisfy the condition");
}
