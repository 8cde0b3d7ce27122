//! Integration tests: every headline claim of the paper, exercised through
//! the public facade API across crates.

use iabc::core::rules::TrimmedMean;
use iabc::core::{async_condition, corollaries, propagate, theorem1, Threshold, Witness};
use iabc::graph::{algorithms, generators, NodeSet};
use iabc::sim::adversary::{ConstantAdversary, PullAdversary, SplitBrainAdversary};
use iabc::sim::{RunConfig, Scenario, Simulation};

/// Theorem 1 + Theorems 2/3 (tightness): for a panel of graphs the checker
/// verdict must exactly predict whether Algorithm 1 converges under attack.
#[test]
fn checker_verdict_predicts_executability() {
    // Satisfying graphs: Algorithm 1 converges under a stealthy adversary.
    let satisfying: Vec<(iabc::graph::Digraph, usize, NodeSet)> = vec![
        (generators::complete(7), 2, NodeSet::from_indices(7, [5, 6])),
        (
            generators::core_network(7, 2),
            2,
            NodeSet::from_indices(7, [5, 6]),
        ),
        (generators::chord(5, 3), 1, NodeSet::from_indices(5, [4])),
        (
            generators::core_network(4, 1),
            1,
            NodeSet::from_indices(4, [3]),
        ),
    ];
    for (g, f, faults) in satisfying {
        assert!(theorem1::check(&g, f).is_satisfied(), "{g} f={f}");
        let n = g.node_count();
        let inputs: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let rule = TrimmedMean::new(f);
        let out = Scenario::on(&g)
            .inputs(&inputs)
            .faults(faults)
            .rule(&rule)
            .adversary(Box::new(PullAdversary::new(true)))
            .synchronous()
            .and_then(|mut sim| sim.run(&RunConfig::default()))
            .expect("simulation runs");
        assert!(out.converged, "{g} f={f} did not converge");
        assert!(out.validity.is_valid(), "{g} f={f} validity broken");
    }

    // Violating graphs: the proof adversary freezes the witness partition.
    let violating: Vec<(iabc::graph::Digraph, usize)> = vec![
        (generators::chord(7, 5), 2),
        (generators::hypercube(3), 1),
        (generators::bridged_cliques(4, 1), 1),
    ];
    for (g, f) in violating {
        let w = theorem1::find_violation(&g, f).expect("violated");
        let n = g.node_count();
        let mut inputs = vec![0.5; n];
        for v in w.left.iter() {
            inputs[v.index()] = 0.0;
        }
        for v in w.right.iter() {
            inputs[v.index()] = 1.0;
        }
        let rule = TrimmedMean::new(f);
        let adv = SplitBrainAdversary::from_witness(&w, 0.0, 1.0, 0.25);
        let mut sim =
            Simulation::new(&g, &inputs, w.fault_set.clone(), &rule, Box::new(adv)).unwrap();
        for _ in 0..300 {
            sim.step().unwrap();
        }
        assert!(
            sim.honest_range() >= 1.0,
            "{g} f={f}: range shrank to {} despite violated condition",
            sim.honest_range()
        );
    }
}

/// Corollary 2 (`n > 3f`) and Corollary 3 (`in-degree ≥ 2f + 1`) as
/// published, via the fast checks and the exact checker.
#[test]
fn corollaries_2_and_3() {
    for f in 1..=3usize {
        // n = 3f fails; n = 3f + 1 (complete) works.
        assert!(!theorem1::check(&generators::complete(3 * f), f).is_satisfied());
        assert!(theorem1::check(&generators::complete(3 * f + 1), f).is_satisfied());
        // Published bounds via the threshold-generic helpers.
        let t = Threshold::synchronous(f);
        assert_eq!(corollaries::min_nodes_required(f, t), 3 * f + 1);
        assert_eq!(corollaries::min_in_degree_required(f, t), 2 * f + 1);
    }
}

/// §6.1: core networks of every size satisfy the condition and converge.
#[test]
fn core_networks_end_to_end() {
    for f in 1..=2usize {
        for n in (3 * f + 1)..=(3 * f + 3) {
            let g = generators::core_network(n, f);
            assert!(g.is_symmetric(), "core networks are undirected");
            assert!(theorem1::check(&g, f).is_satisfied(), "n={n} f={f}");
        }
    }
}

/// §6.2: hypercube connectivity d, yet condition violated for f = 1; the
/// Figure 3 partition is a witness.
#[test]
fn hypercube_connectivity_vs_condition() {
    let g = generators::hypercube(3);
    assert_eq!(algorithms::vertex_connectivity(&g), 3);
    assert!(!theorem1::check(&g, 1).is_satisfied());
    let figure3 = Witness {
        fault_set: NodeSet::with_universe(8),
        left: NodeSet::from_indices(8, [0, 1, 2, 3]),
        center: NodeSet::with_universe(8),
        right: NodeSet::from_indices(8, [4, 5, 6, 7]),
    };
    assert!(figure3.verify(&g, 1, Threshold::synchronous(1)));
}

/// §6.3: the three chord cases, including the paper's literal witness.
#[test]
fn chord_cases_match_paper() {
    assert!(theorem1::check(&generators::chord(4, 3), 1).is_satisfied());
    assert!(theorem1::check(&generators::chord(5, 3), 1).is_satisfied());
    let g = generators::chord(7, 5);
    assert!(!theorem1::check(&g, 2).is_satisfied());
    let paper = Witness {
        fault_set: NodeSet::from_indices(7, [5, 6]),
        left: NodeSet::from_indices(7, [0, 2]),
        center: NodeSet::with_universe(7),
        right: NodeSet::from_indices(7, [1, 3, 4]),
    };
    assert!(paper.verify(&g, 2, Threshold::synchronous(2)));
}

/// §7: async bounds (n > 5f, in-degree ≥ 3f + 1) and the async checker.
#[test]
fn async_section7_bounds() {
    assert!(async_condition::check(&generators::complete(11), 2).is_satisfied());
    assert!(!async_condition::check(&generators::complete(10), 2).is_satisfied());
    assert!(async_condition::satisfies_node_bound(11, 2));
    assert!(!async_condition::satisfies_node_bound(10, 2));
    assert!(async_condition::satisfies_degree_bound(
        &generators::complete(6),
        1
    ));
    assert!(!async_condition::satisfies_degree_bound(
        &generators::chord(8, 3),
        1
    ));
}

/// Lemma 2: on a satisfying graph, for any fault-free bipartition one side
/// propagates to the other.
#[test]
fn lemma2_propagation_disjunction() {
    let g = generators::complete(7);
    let t = Threshold::synchronous(2);
    let fault = NodeSet::from_indices(7, [5, 6]);
    let pool = fault.complement();
    let members: Vec<_> = pool.iter().collect();
    for mask in 1u32..(1 << members.len()) - 1 {
        let mut a = NodeSet::with_universe(7);
        let mut b = NodeSet::with_universe(7);
        for (bit, &v) in members.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                a.insert(v);
            } else {
                b.insert(v);
            }
        }
        assert!(propagate::one_side_propagates(&g, &a, &b, t));
    }
}

/// Validity under an outright hostile payload (1e9) — the agreed value must
/// sit in the convex hull of the honest inputs.
#[test]
fn agreed_value_stays_in_honest_hull() {
    let g = generators::core_network(8, 2);
    let inputs = [3.0, -2.0, 7.0, 0.5, 4.0, 1.0, 0.0, 0.0];
    let faults = NodeSet::from_indices(8, [6, 7]);
    let rule = TrimmedMean::new(2);
    let out = Scenario::on(&g)
        .inputs(&inputs)
        .faults(faults)
        .rule(&rule)
        .adversary(Box::new(ConstantAdversary::new(1e9)))
        .synchronous()
        .and_then(|mut sim| sim.run(&RunConfig::default()))
        .unwrap();
    assert!(out.converged);
    let agreed = out.trace.last().unwrap().states[0];
    assert!(
        (-2.0..=7.0).contains(&agreed),
        "agreed {agreed} escaped hull"
    );
}
