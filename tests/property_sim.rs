//! Property-based tests for the simulation engines: validity holds on every
//! satisfying run, the convergence bound of Lemma 5 is respected, and the
//! engines agree where the models coincide.

use iabc::core::alpha::iteration_bound;
use iabc::core::rules::TrimmedMean;
use iabc::core::theorem1;
use iabc::graph::{generators, NodeSet};
use iabc::sim::adversary::{
    Adversary, ConformingAdversary, ConstantAdversary, ExtremesAdversary, NaNAdversary,
    PullAdversary, RandomAdversary,
};
use iabc::sim::async_engine::{DelayBoundedSim, ImmediateScheduler};
use iabc::sim::{RunConfig, Simulation};
use proptest::prelude::*;

fn adversary_from_id(id: u8) -> Box<dyn Adversary> {
    match id % 6 {
        0 => Box::new(ConformingAdversary::new()),
        1 => Box::new(ConstantAdversary::new(1e7)),
        2 => Box::new(ExtremesAdversary::new(42.0)),
        3 => Box::new(PullAdversary::new(true)),
        4 => Box::new(NaNAdversary::new()),
        _ => Box::new(RandomAdversary::new(-1e4, 1e4, 99)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 2 as a property: on core networks, validity holds for every
    /// adversary, every fault placement, every input vector.
    #[test]
    fn validity_always_holds_on_core_networks(
        f in 1usize..=2,
        extra in 0usize..3,
        adv_id in 0u8..6,
        seed in 0u64..1000,
        fault_pick in 0usize..100,
    ) {
        let n = 3 * f + 1 + extra;
        let g = generators::core_network(n, f);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let inputs: Vec<f64> = (0..n).map(|_| rng.random_range(-50.0..50.0)).collect();
        // Any f nodes faulty.
        let mut faults = NodeSet::with_universe(n);
        let mut k = fault_pick;
        while faults.len() < f {
            faults.insert(iabc::graph::NodeId::new(k % n));
            k = k.wrapping_mul(31).wrapping_add(7);
        }
        let rule = TrimmedMean::new(f);
        let mut sim = Simulation::new(&g, &inputs, faults, &rule, adversary_from_id(adv_id)).unwrap();
        let out = sim.run(&RunConfig { record_states: false, epsilon: 1e-6, max_rounds: 300 }).unwrap();
        prop_assert!(out.validity.is_valid(), "validity violated (adv {adv_id})");
    }

    /// Theorem 3 + Lemma 5 as a property: convergence happens, and within
    /// the (loose) analytic iteration bound.
    #[test]
    fn convergence_respects_lemma5_bound(
        f in 1usize..=2,
        seed in 0u64..500,
    ) {
        let n = 3 * f + 2;
        let g = generators::complete(n);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let inputs: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..10.0)).collect();
        let faults = NodeSet::from_indices(n, [n - 1]);
        let rule = TrimmedMean::new(f);
        let epsilon = 1e-6;
        let bound = iteration_bound(&g, f, 10.0, epsilon).unwrap();
        let mut sim = Simulation::new(
            &g,
            &inputs,
            faults,
            &rule,
            Box::new(PullAdversary::new(false)),
        )
        .unwrap();
        let out = sim.run(&RunConfig { record_states: false, epsilon, max_rounds: bound }).unwrap();
        prop_assert!(out.converged, "did not converge within the Lemma 5 bound {bound}");
        prop_assert!(out.rounds <= bound);
    }

    /// On random ER graphs, *whenever the checker says satisfied*, the run
    /// converges; the checker is the ground truth for executability.
    #[test]
    fn satisfied_random_graphs_converge(seed in 0u64..400) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 7;
        let f = 1;
        let g = generators::erdos_renyi(n, 0.7, &mut rng);
        prop_assume!(theorem1::check(&g, f).is_satisfied());
        let inputs: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
        let faults = NodeSet::from_indices(n, [rng.random_range(0..n)]);
        let rule = TrimmedMean::new(f);
        let out = Simulation::new(&g, &inputs, faults, &rule, Box::new(ExtremesAdversary::new(5.0)))
            .unwrap()
            .run(&RunConfig { record_states: false, epsilon: 1e-6, max_rounds: 3000 })
            .unwrap();
        prop_assert!(out.converged);
        prop_assert!(out.validity.is_valid());
    }

    /// The delay-bounded engine with B = 1 and immediate delivery is
    /// byte-identical to the synchronous engine, for any adversary.
    #[test]
    fn async_b1_equals_sync(adv_id in 0u8..6, seed in 0u64..200) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 6;
        let g = generators::complete(n);
        let inputs: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..5.0)).collect();
        let faults = NodeSet::from_indices(n, [5]);
        let rule = TrimmedMean::new(1);
        let mut sync_sim = Simulation::new(&g, &inputs, faults.clone(), &rule, adversary_from_id(adv_id)).unwrap();
        let mut async_sim = DelayBoundedSim::new(
            &g, &inputs, faults, &rule,
            adversary_from_id(adv_id),
            Box::new(ImmediateScheduler), 1,
        ).unwrap();
        for _ in 0..15 {
            sync_sim.step().unwrap();
            async_sim.step().unwrap();
        }
        for (a, b) in sync_sim.states().iter().zip(async_sim.states()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }
}
