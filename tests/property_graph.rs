//! Property-based tests for the graph substrate: NodeSet laws against a
//! reference model, generator invariants, parse round-trips, the
//! row-fed topology fingerprint against its reference byte feed, and
//! structural algorithm properties.

use std::collections::BTreeSet;

use iabc::graph::fingerprint::{self, Fnv64};
use iabc::graph::{algorithms, generators, parse, CompiledTopology, Digraph, NodeId, NodeSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn set_from(model: &BTreeSet<usize>, universe: usize) -> NodeSet {
    NodeSet::from_indices(universe, model.iter().copied())
}

/// The topology fingerprint's byte feed as a walk of a compiled CSR, the
/// form it took before the row-fed `TopologyFeed`: the reference that
/// feed must reproduce byte for byte. The faulty sub-CSR holds
/// `(slot, sender)` pairs and is fed in that order.
fn reference_topology(topo: &CompiledTopology) -> u64 {
    let n = topo.node_count();
    let mut h = Fnv64::new();
    h.write_usize(n);
    for i in 0..n {
        h.write_usize(topo.in_offset(i));
        for &src in topo.in_neighbors_of(i) {
            h.write_u32(src);
        }
        h.write_u8(u8::from(topo.is_faulty(i)));
        h.write_usize(topo.faulty_in_offset(i));
        for &(slot, sender) in topo.faulty_in_edges_of(i) {
            h.write_u32(slot);
            h.write_u32(sender);
        }
    }
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// NodeSet algebra agrees with BTreeSet reference semantics.
    #[test]
    fn nodeset_matches_reference_model(
        a in proptest::collection::btree_set(0usize..100, 0..40),
        b in proptest::collection::btree_set(0usize..100, 0..40),
    ) {
        let u = 100;
        let (sa, sb) = (set_from(&a, u), set_from(&b, u));
        let union: BTreeSet<usize> = a.union(&b).copied().collect();
        let inter: BTreeSet<usize> = a.intersection(&b).copied().collect();
        let diff: BTreeSet<usize> = a.difference(&b).copied().collect();
        prop_assert_eq!(sa.union(&sb).to_indices(), union.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(sa.intersection(&sb).to_indices(), inter.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(sa.difference(&sb).to_indices(), diff.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(sa.intersection_len(&sb), inter.len());
        prop_assert_eq!(sa.is_subset(&sb), a.is_subset(&b));
        prop_assert_eq!(sa.is_disjoint(&sb), a.is_disjoint(&b));
        prop_assert_eq!(sa.len(), a.len());
        prop_assert_eq!(sa.complement().len(), u - a.len());
    }

    /// De Morgan on the fixed universe.
    #[test]
    fn nodeset_de_morgan(
        a in proptest::collection::btree_set(0usize..70, 0..30),
        b in proptest::collection::btree_set(0usize..70, 0..30),
    ) {
        let u = 70;
        let (sa, sb) = (set_from(&a, u), set_from(&b, u));
        prop_assert_eq!(
            sa.union(&sb).complement(),
            sa.complement().intersection(&sb.complement())
        );
        prop_assert_eq!(
            sa.intersection(&sb).complement(),
            sa.complement().union(&sb.complement())
        );
    }

    /// Edge-list serialization round-trips arbitrary graphs.
    #[test]
    fn edge_list_roundtrip(
        n in 1usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..40),
    ) {
        let mut g = Digraph::new(n);
        for (u, v) in edges {
            if u < n && v < n && u != v {
                g.add_edge(NodeId::new(u), NodeId::new(v));
            }
        }
        let text = parse::to_edge_list(&g);
        let parsed = parse::parse_edge_list(&text).expect("roundtrip parse");
        prop_assert_eq!(parsed, g);
    }

    /// Edge lists written shuffled, with repeated lines and rows out of
    /// order, hash from their CSR rows to the reference feed over the
    /// compiled topology, under random fault sets.
    #[test]
    fn row_fed_topology_hash_matches_the_reference_feed(
        n in 1usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40), 0..400),
        repeats in proptest::collection::vec(0usize..400, 0..80),
        faulty in proptest::collection::btree_set(0usize..40, 0..10),
        shuffle in any::<u64>(),
    ) {
        let mut lines: Vec<(usize, usize)> =
            edges.into_iter().filter(|&(u, v)| u < n && v < n && u != v).collect();
        if !lines.is_empty() {
            let copies: Vec<(usize, usize)> = repeats.iter().map(|&r| lines[r % lines.len()]).collect();
            lines.extend(copies);
        }
        lines.shuffle(&mut StdRng::seed_from_u64(shuffle));
        let mut text = format!("# shuffled\n{n}\n");
        for (u, v) in &lines {
            text.push_str(&format!("{u} {v}\n"));
        }
        let faults = NodeSet::from_indices(n, faulty.into_iter().filter(|&v| v < n));
        let rows = parse::in_rows(&text).expect("a valid edge list");
        let reference = reference_topology(&rows.compile(&faults));
        prop_assert_eq!(rows.fingerprint(&faults), reference);
        let graph = parse::parse_edge_list(&text).expect("a valid edge list");
        let compiled = CompiledTopology::compile(&graph, &faults);
        prop_assert_eq!(fingerprint::topology(&compiled), reference);
    }

    /// Reversal is an involution that swaps degree profiles.
    #[test]
    fn reverse_involution(
        edges in proptest::collection::vec((0usize..9, 0usize..9), 0..30),
    ) {
        let n = 9;
        let mut g = Digraph::new(n);
        for (u, v) in edges {
            if u != v {
                g.add_edge(NodeId::new(u), NodeId::new(v));
            }
        }
        let r = g.reversed();
        prop_assert_eq!(r.reversed(), g.clone());
        for v in g.nodes() {
            prop_assert_eq!(g.in_degree(v), r.out_degree(v));
            prop_assert_eq!(g.out_degree(v), r.in_degree(v));
        }
    }

    /// SCCs partition the nodes, and each component is strongly connected
    /// in the induced subgraph.
    #[test]
    fn sccs_partition_and_are_strong(
        edges in proptest::collection::vec((0usize..8, 0usize..8), 0..26),
    ) {
        let n = 8;
        let mut g = Digraph::new(n);
        for (u, v) in edges {
            if u != v {
                g.add_edge(NodeId::new(u), NodeId::new(v));
            }
        }
        let comps = algorithms::strongly_connected_components(&g);
        let mut seen = NodeSet::with_universe(n);
        for c in &comps {
            prop_assert!(seen.is_disjoint(c), "components overlap");
            seen.union_with(c);
            let (sub, _) = g.induced_subgraph(c);
            prop_assert!(algorithms::is_strongly_connected(&sub));
        }
        prop_assert_eq!(seen.len(), n, "components must cover all nodes");
    }

    /// Vertex connectivity is bounded by the minimum degree.
    #[test]
    fn connectivity_at_most_min_degree(
        edges in proptest::collection::vec((0usize..7, 0usize..7), 5..30),
    ) {
        let n = 7;
        let mut g = Digraph::new(n);
        for (u, v) in edges {
            if u != v {
                g.add_edge(NodeId::new(u), NodeId::new(v));
            }
        }
        let min_deg = g.nodes().map(|v| g.in_degree(v).min(g.out_degree(v))).min().unwrap();
        prop_assert!(algorithms::vertex_connectivity(&g) <= min_deg);
    }

    /// Generator invariants: chord in-degrees, hypercube bit-adjacency,
    /// core-network symmetry.
    #[test]
    fn generator_invariants(n in 5usize..12, f in 1usize..3) {
        prop_assume!(n > 3 * f && 2 * f + 1 < n);
        let chord = generators::chord(n, 2 * f + 1);
        for v in chord.nodes() {
            prop_assert_eq!(chord.in_degree(v), 2 * f + 1);
            prop_assert_eq!(chord.out_degree(v), 2 * f + 1);
        }
        let core = generators::core_network(n, f);
        prop_assert!(core.is_symmetric());
        prop_assert!(core.min_in_degree() > 2 * f);
    }

    /// Induced subgraphs never contain edges that were absent in the parent.
    #[test]
    fn induced_subgraph_is_a_subgraph(
        edges in proptest::collection::vec((0usize..8, 0usize..8), 0..26),
        keep in proptest::collection::btree_set(0usize..8, 1..8),
    ) {
        let n = 8;
        let mut g = Digraph::new(n);
        for (u, v) in edges {
            if u != v {
                g.add_edge(NodeId::new(u), NodeId::new(v));
            }
        }
        let keep_set = set_from(&keep, n);
        let (sub, map) = g.induced_subgraph(&keep_set);
        for (su, sv) in sub.edges() {
            prop_assert!(g.has_edge(map[su.index()], map[sv.index()]));
        }
        // Edge count identity: edges fully inside `keep`.
        let expect = g
            .edges()
            .filter(|(u, v)| keep_set.contains(*u) && keep_set.contains(*v))
            .count();
        prop_assert_eq!(sub.edge_count(), expect);
    }
}
