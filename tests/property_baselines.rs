//! Property-based tests for the baseline rules (Dolev \[5\], W-MSR
//! \[11\]/\[17\]) and their relationship to Algorithm 1.

use iabc::baselines::{DolevMidpoint, DolevSelectMean, Wmsr};
use iabc::core::rules::{Mean, TrimmedMean, UpdateRule};
use iabc::core::theorem1;
use iabc::graph::{generators, NodeSet};
use iabc::sim::adversary::PolarizingAdversary;
use iabc::sim::{RunConfig, Scenario};
use proptest::prelude::*;

fn finite_values(len: core::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every baseline's output lies inside the hull of own ∪ received — the
    /// single-step core of the validity condition.
    #[test]
    fn outputs_stay_in_input_hull(
        own in -1e6f64..1e6,
        received in finite_values(5..20),
        f in 0usize..3,
    ) {
        let lo = received.iter().copied().fold(own, f64::min);
        let hi = received.iter().copied().fold(own, f64::max);
        let rules: Vec<Box<dyn UpdateRule>> = vec![
            Box::new(DolevMidpoint::new(f)),
            Box::new(DolevSelectMean::new(f)),
            Box::new(Wmsr::new(f)),
        ];
        for rule in &rules {
            let mut r = received.clone();
            if let Ok(v) = rule.update(own, &mut r) {
                prop_assert!(
                    v >= lo - 1e-9 && v <= hi + 1e-9,
                    "{} output {v} escapes hull [{lo}, {hi}]", rule.name()
                );
            }
        }
    }

    /// With f = 0 the entire family collapses to plain averaging (Dolev
    /// select-mean) or stays within it (W-MSR ≡ Mean).
    #[test]
    fn f_zero_degenerations(own in -1e3f64..1e3, received in finite_values(1..12)) {
        let mean = Mean::new();
        let mut a = received.clone();
        let expect = mean.update(own, &mut a).unwrap();

        let mut b = received.clone();
        let wmsr = Wmsr::new(0).update(own, &mut b).unwrap();
        prop_assert!((wmsr - expect).abs() <= 1e-9_f64.max(expect.abs() * 1e-12));

        let mut c = received.clone();
        let dolev = DolevSelectMean::new(0).update(own, &mut c).unwrap();
        prop_assert!((dolev - expect).abs() <= 1e-9_f64.max(expect.abs() * 1e-12));
    }

    /// Rules are permutation-invariant in the received vector.
    #[test]
    fn permutation_invariance(
        own in -1e3f64..1e3,
        received in finite_values(6..14),
        f in 0usize..3,
        swap_a in 0usize..6,
        swap_b in 0usize..6,
    ) {
        let rules: Vec<Box<dyn UpdateRule>> = vec![
            Box::new(DolevMidpoint::new(f)),
            Box::new(DolevSelectMean::new(f)),
            Box::new(Wmsr::new(f)),
            Box::new(TrimmedMean::new(f)),
        ];
        let mut shuffled = received.clone();
        let len = shuffled.len();
        shuffled.swap(swap_a % len, swap_b % len);
        for rule in &rules {
            let mut x = received.clone();
            let mut y = shuffled.clone();
            let rx = rule.update(own, &mut x);
            let ry = rule.update(own, &mut y);
            match (rx, ry) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{} not permutation-invariant", rule.name()),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "{} error behaviour depends on order", rule.name()),
            }
        }
    }

    /// W-MSR never discards its own value and never keeps a value more
    /// extreme than the survivors' hull when more than f values sit on that
    /// side: its output is bracketed by Algorithm 1's survivors extended by
    /// own. (Weak bracketing property relating the two rules.)
    #[test]
    fn wmsr_respects_own_anchor(
        own in -1e3f64..1e3,
        received in finite_values(5..12),
        f in 1usize..3,
    ) {
        prop_assume!(received.len() > 2 * f);
        let mut r = received.clone();
        let v = Wmsr::new(f).update(own, &mut r).unwrap();
        // The own value has weight >= 1/(deg+1): the output cannot jump to
        // the far side of the received extremes away from own.
        let lo = received.iter().copied().fold(own, f64::min);
        let hi = received.iter().copied().fold(own, f64::max);
        prop_assert!(v >= lo && v <= hi);
    }

    /// Non-finite payloads are rejected by every baseline (engine defence
    /// in depth relies on this).
    #[test]
    fn non_finite_inputs_rejected(own in -1e3f64..1e3, f in 0usize..3, bad_idx in 0usize..6) {
        let rules: Vec<Box<dyn UpdateRule>> = vec![
            Box::new(DolevMidpoint::new(f)),
            Box::new(DolevSelectMean::new(f)),
            Box::new(Wmsr::new(f)),
        ];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut vals = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
            let idx = bad_idx % vals.len();
            vals[idx] = bad;
            for rule in &rules {
                prop_assert!(rule.update(own, &mut vals.clone()).is_err());
            }
        }
    }
}

/// End-to-end validity sweep: on Theorem 1 graphs, the rules with
/// applicable guarantees converge with validity under the polarizing
/// adversary for randomized inputs.
#[test]
fn guaranteed_rules_converge_on_satisfying_graphs() {
    let g = generators::core_network(7, 2);
    assert!(theorem1::check(&g, 2).is_satisfied());
    for seed in 0..5u64 {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let inputs: Vec<f64> = (0..7).map(|_| rng.random_range(-50.0..50.0)).collect();
        let faults = NodeSet::from_indices(7, [1, 4]);
        let rule = TrimmedMean::new(2);
        let out = Scenario::on(&g)
            .inputs(&inputs)
            .faults(faults)
            .rule(&rule)
            .adversary(Box::new(PolarizingAdversary::new()))
            .synchronous()
            .and_then(|mut sim| sim.run(&RunConfig::default()))
            .unwrap();
        assert!(
            out.converged && out.validity.is_valid(),
            "seed {seed}: {out:?}"
        );
    }
}
