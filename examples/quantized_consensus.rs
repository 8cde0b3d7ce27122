//! Fixed-point consensus: Algorithm 1 when values live on a lattice.
//!
//! ```text
//! cargo run --example quantized_consensus
//! ```
//!
//! Embedded deployments exchange 16- or 32-bit fixed-point numbers, not
//! exact reals. This example runs the quantized Algorithm 1
//! (`iabc::core::quantized`) on K7 with two Byzantine nodes across three
//! lattice resolutions and shows the two halves of the story:
//!
//! * validity is **exact** on the lattice (states never leave the honest
//!   input hull), and
//! * convergence stops at the **quantization floor**: the honest range
//!   lands at or below one quantum instead of contracting to zero.

use iabc::core::quantized::{quantize_inputs, QuantizedTrimmedMean, Rounding};
use iabc::graph::{generators, NodeSet};
use iabc::sim::adversary::ExtremesAdversary;
use iabc::sim::RunConfig;
use iabc::sim::Scenario;

fn main() {
    let g = generators::complete(7);
    let faults = NodeSet::from_indices(7, [5, 6]);
    // Deliberately awkward sensor readings (≈√2, ≈e, ≈π) that no quantum
    // divides exactly.
    #[allow(clippy::approx_constant)]
    let raw_inputs = [0.03, 1.41, 2.72, 3.14, 4.0, 2.0, 2.0];
    println!("K7, f = 2, extremes adversary; raw inputs {raw_inputs:?}\n");
    println!(
        "{:>12} {:>9} {:>8} {:>14} {:>9}",
        "quantum", "rounding", "rounds", "final range", "valid"
    );

    for &quantum in &[0.25, 1.0 / 16.0, 1.0 / 256.0] {
        for rounding in [Rounding::Nearest, Rounding::Floor] {
            let rule = QuantizedTrimmedMean::new(2, quantum, rounding).expect("positive quantum");
            let inputs = quantize_inputs(&raw_inputs, quantum, rounding);
            let out = Scenario::on(&g)
                .inputs(&inputs)
                .faults(faults.clone())
                .rule(&rule)
                .adversary(Box::new(ExtremesAdversary::new(1e6)))
                .synchronous()
                .and_then(|mut sim| {
                    sim.run(&RunConfig {
                        epsilon: quantum, // the provable floor
                        max_rounds: 2_000,
                        record_states: false,
                    })
                })
                .expect("run succeeds");
            assert!(out.validity.is_valid(), "lattice validity is exact");
            assert!(
                out.final_range <= quantum + 1e-12,
                "range {} did not reach the floor {quantum}",
                out.final_range
            );
            println!(
                "{:>12} {:>9} {:>8} {:>14.6} {:>9}",
                format!("{quantum}"),
                rounding.to_string(),
                out.rounds,
                out.final_range,
                out.validity.is_valid()
            );
        }
    }

    println!(
        "\nEvery run stops with the honest range at (or below) one quantum — the\n\
         quantization floor — while validity holds exactly on the lattice."
    );
}
