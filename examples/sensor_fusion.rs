//! Resilient sensor fusion — the kind of deployment the IABC literature
//! motivates: a field of sensors must agree on a temperature estimate while
//! some are compromised, and the radio topology is *directed* (asymmetric
//! transmit power), so complete-graph algorithms don't apply.
//!
//! ```text
//! cargo run --example sensor_fusion
//! ```
//!
//! The example designs the network with the Theorem 1 checker in the loop:
//! start from a sparse random deployment, verify it cannot tolerate f = 1,
//! patch it into a core network, and then fuse readings under three
//! different attacks.

use iabc::core::rules::TrimmedMean;
use iabc::core::theorem1;
use iabc::graph::{generators, NodeSet};
use iabc::sim::adversary::{Adversary, ConstantAdversary, PullAdversary, RandomAdversary};
use iabc::sim::{RunConfig, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 10;
    let f = 1;
    let mut rng = StdRng::seed_from_u64(42);

    // A sparse directed deployment: each sensor hears only 3 random others.
    let sparse = generators::random_k_in_regular(n, 3, &mut rng);
    let report = theorem1::check(&sparse, f);
    println!("sparse deployment (in-degree 3): {report}");

    // Design with the checker in the loop: upgrade to the §6.1 core-network
    // pattern (a 2f+1 clique of "anchor" sensors everyone exchanges with).
    let fused = generators::core_network(n, f);
    assert!(theorem1::check(&fused, f).is_satisfied());
    println!(
        "core-network deployment: satisfied (anchors = nodes 0..{})",
        2 * f + 1
    );

    // Ground truth 21.5 °C, honest readings with ±0.5 °C noise; node 9 is
    // compromised.
    let truth = 21.5;
    let mut readings: Vec<f64> = (0..n)
        .map(|_| truth + rng.random_range(-0.5..0.5))
        .collect();
    readings[9] = 0.0; // the compromised sensor's "input" is irrelevant
    let faults = NodeSet::from_indices(n, [9]);
    let rule = TrimmedMean::new(f);

    let attacks: Vec<(&str, Box<dyn Adversary>)> = vec![
        ("stuck-at-zero", Box::new(ConstantAdversary::new(0.0))),
        (
            "random noise",
            Box::new(RandomAdversary::new(-40.0, 85.0, 7)),
        ),
        ("stealthy pull-down", Box::new(PullAdversary::new(false))),
    ];

    for (name, adversary) in attacks {
        let out = Scenario::on(&fused)
            .inputs(&readings)
            .faults(faults.clone())
            .rule(&rule)
            .adversary(adversary)
            .synchronous()?
            .run(&RunConfig::default())?;
        let fusedv = out.trace.last().expect("nonempty trace").states[0];
        println!(
            "attack {name:>18}: fused = {fusedv:.3} °C in {} rounds (|error| = {:.3}, validity {})",
            out.rounds,
            (fusedv - truth).abs(),
            if out.validity.is_valid() {
                "ok"
            } else {
                "VIOLATED"
            }
        );
        assert!(out.converged && out.validity.is_valid());
        // The fused estimate can never leave the honest reading hull.
        let lo = readings[..9].iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = readings[..9]
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((lo..=hi).contains(&fusedv));
    }
    println!("all attacks absorbed; estimates stayed within the honest reading hull");
    Ok(())
}
