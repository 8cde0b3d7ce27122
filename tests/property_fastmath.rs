//! Property tests for the FastMath tier's sign-magnitude key transform
//! and its bit-identity contract with the exact tier, biased toward the
//! IEEE-754 edge cases a uniform float strategy almost never draws:
//! `-0.0` vs `+0.0`, subnormals, `±inf`, and NaN payloads. Covers the
//! columnar sort on one 32-slot network (lengths ≤ 32) and on the Batcher
//! merge-network extension (lengths 33..=128), and the batched engine's
//! update against the exact engine on rows of every length: short rows,
//! network rows, and the exact-rule rows past 128.

use iabc::core::fastmath::{biased_key, sort_columns_total_fast, unbias_key, FastRule, COLUMN_PAD};
use iabc::core::rules::sort_total;
use iabc::graph::{Digraph, NodeSet};
use iabc::sim::adversary::{Adversary, ConformingAdversary, NaNAdversary};
use iabc::sim::fastmath::BatchedSimulation;
use iabc::sim::Simulation;
use proptest::prelude::*;

/// Raw `f64` bit patterns weighted toward the edges of the encoding:
/// signed zeros, subnormals, infinities, NaNs with arbitrary payloads,
/// and the extremes — plus plain arbitrary bits for coverage.
fn edge_bits() -> impl Strategy<Value = u64> {
    any::<u64>().prop_map(|raw| {
        const EXP: u64 = 0x7FF0_0000_0000_0000;
        const FRAC: u64 = 0x000F_FFFF_FFFF_FFFF;
        const SIGN: u64 = 0x8000_0000_0000_0000;
        let sign = raw & SIGN;
        match raw % 8 {
            0 => sign,                                // ±0.0
            1 => sign | (raw >> 16) & FRAC,           // ±subnormal (or zero)
            2 => sign | EXP,                          // ±inf
            3 => sign | EXP | 1 | (raw >> 16) & FRAC, // ±NaN, arbitrary payload
            4 => f64::MAX.to_bits() | sign,           // ±MAX
            5 => f64::MIN_POSITIVE.to_bits() | sign,  // smallest normal
            _ => raw,
        }
    })
}

/// Finite-only variant (the kernels' validated domain).
fn finite_edge_bits() -> impl Strategy<Value = u64> {
    edge_bits().prop_map(|b| {
        if f64::from_bits(b).is_finite() {
            b
        } else {
            // Redirect the non-finite draws onto the finite edges they
            // shadow: ±0.0 for NaN, ±MAX for inf.
            let sign = b & 0x8000_0000_0000_0000;
            if f64::from_bits(b).is_nan() {
                sign
            } else {
                f64::MAX.to_bits() | sign
            }
        }
    })
}

/// One column of `bits` padded with [`COLUMN_PAD`] to a power-of-two
/// slot count, as the batched engine pads a row, must sort its real
/// prefix byte-identically to the exact tier's sort.
fn padded_column_sorts_like_sort_total(bits: &[u64]) {
    let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
    let mut column = values.clone();
    column.resize(values.len().next_power_of_two(), COLUMN_PAD);
    sort_columns_total_fast(&mut column, 1);
    let mut exact = values;
    sort_total(&mut exact);
    let fast_bits: Vec<u64> = column[..exact.len()].iter().map(|v| v.to_bits()).collect();
    let exact_bits: Vec<u64> = exact.iter().map(|v| v.to_bits()).collect();
    prop_assert_eq!(fast_bits, exact_bits, "len {}", exact.len());
}

/// Steps node 0 of a star once: every other node is a faulty sender, so
/// lane `r` of node 0 starts at `columns[r][0]` and receives
/// `columns[r][1..]` (or what `make(r)`'s adversary sends in its place).
/// The batch of all lanes and one exact engine per lane must agree on
/// node 0 bit for bit, or fail with the same error.
fn star_step_is_exact(
    columns: &[Vec<f64>],
    rule: FastRule,
    make: impl Fn(usize) -> Box<dyn Adversary>,
) {
    let lanes = columns.len();
    let n = columns[0].len();
    let g = Digraph::from_edges(n, (1..n).map(|j| (j, 0))).expect("a star");
    let faults = NodeSet::from_indices(n, 1..n);
    let inputs: Vec<f64> = (0..n * lanes)
        .map(|k| columns[k % lanes][k / lanes])
        .collect();
    let mut batch = BatchedSimulation::new(&g, &inputs, faults.clone(), rule, lanes, &make)
        .expect("finite inputs");
    let batched = batch.step().map(|()| batch.states()[..lanes].to_vec());
    let exact_rule = rule.exact();
    for (r, column) in columns.iter().enumerate() {
        let mut sim = Simulation::new(&g, column, faults.clone(), &*exact_rule, make(r))
            .expect("finite inputs");
        let exact = sim.step().map(|_| sim.states()[0]);
        match (&batched, &exact) {
            (Ok(states), Ok(v)) => {
                prop_assert_eq!(states[r].to_bits(), v.to_bits(), "{:?} lane {}", rule, r)
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            _ => prop_assert!(false, "{:?} lane {}: {:?} vs {:?}", rule, r, batched, exact),
        }
    }
}

/// The three FastMath rules at fault bound `f`.
fn rules(f: usize) -> [FastRule; 3] {
    [
        FastRule::TrimmedMean(f),
        FastRule::TrimmedMidpoint(f),
        FastRule::Mean,
    ]
}

/// `lanes` node-major star columns: `own` then the row, each lane a
/// rotation of the row so the lanes differ.
fn rotated_columns(own: f64, row: &[f64], lanes: usize) -> Vec<Vec<f64>> {
    (0..lanes)
        .map(|l| {
            let mut row = row.to_vec();
            let shift = l % row.len().max(1);
            row.rotate_left(shift);
            std::iter::once(own).chain(row).collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The biased key transform is a bijection on all 2^64 bit patterns:
    /// `unbias_key` inverts `biased_key` everywhere — including NaN
    /// payloads, which ordinary float equality cannot even observe.
    #[test]
    fn biased_key_is_a_bijection(bits in edge_bits()) {
        prop_assert_eq!(unbias_key(biased_key(bits)), bits);
        prop_assert_eq!(biased_key(unbias_key(bits)), bits);
    }

    /// Unsigned biased-key order IS `f64::total_cmp` order, on every pair
    /// of bit patterns — the single fact the whole sorting tier rests on.
    /// In particular `-0.0 < +0.0`, subnormals order by magnitude, and
    /// NaNs order by sign and payload, exactly as `total_cmp` specifies.
    #[test]
    fn biased_key_order_is_total_cmp_order(a in edge_bits(), b in edge_bits()) {
        let key_ord = biased_key(a).cmp(&biased_key(b));
        let total_ord = f64::from_bits(a).total_cmp(&f64::from_bits(b));
        prop_assert_eq!(key_ord, total_ord, "bits {:#x} vs {:#x}", a, b);
    }

    /// A row of up to 32 values, padded as the engine pads it, sorts
    /// byte-identically to the exact tier's sort on any input, edge cases
    /// included (both are total_cmp sorts; equal keys mean identical
    /// bytes, so stability is moot).
    #[test]
    fn padded_column_is_byte_identical_to_sort_total(
        bits in proptest::collection::vec(edge_bits(), 0..=32),
    ) {
        padded_column_sorts_like_sort_total(&bits);
    }

    /// The columnar (vertical SIMD) sort agrees byte-for-byte with the
    /// scalar exact sort applied per column, for every lane count —
    /// signed zeros, subnormals and the COLUMN_PAD sentinel included.
    #[test]
    fn columnar_sort_is_byte_identical_per_column(
        bits in proptest::collection::vec(finite_edge_bits(), 0..64),
        lanes in 1usize..6,
        pad_tail in any::<bool>(),
    ) {
        let slots = (bits.len() / lanes).next_power_of_two().min(32);
        let mut flat: Vec<f64> = (0..slots * lanes)
            .map(|i| {
                if pad_tail && i >= slots * lanes - lanes {
                    COLUMN_PAD
                } else {
                    f64::from_bits(*bits.get(i).unwrap_or(&0))
                }
            })
            .collect();
        let mut columns: Vec<Vec<f64>> = (0..lanes)
            .map(|l| (0..slots).map(|s| flat[s * lanes + l]).collect())
            .collect();
        sort_columns_total_fast(&mut flat, lanes);
        for (l, col) in columns.iter_mut().enumerate() {
            sort_total(col);
            for (s, v) in col.iter().enumerate() {
                prop_assert_eq!(
                    flat[s * lanes + l].to_bits(),
                    v.to_bits(),
                    "lane {} slot {}", l, s
                );
            }
        }
    }

    /// The merge-network extension (lengths 33..=128: sorted 32-blocks
    /// fused by Batcher merge stages), padded as the engine pads it, is
    /// byte-identical to the exact tier's sort on edge-biased bit
    /// patterns — signed zeros, subnormals, NaN payloads, infinities.
    #[test]
    fn padded_merge_column_is_byte_identical_for_lengths_33_to_128(
        len in 33usize..=128,
        seed_bits in proptest::collection::vec(edge_bits(), 128),
    ) {
        padded_column_sorts_like_sort_total(&seed_bits[..len]);
    }

    /// Columnar merge networks: the vertical compare-exchange schedule at
    /// slot counts past 32 (64 and 128 after padding) agrees
    /// byte-for-byte per column with the exact scalar sort, with the
    /// COLUMN_PAD sentinel filling the tail — the same contract the
    /// unrolled-network slot counts already carry.
    #[test]
    fn columnar_merge_network_is_byte_identical_per_column(
        bits in proptest::collection::vec(finite_edge_bits(), 33..=128),
        lanes in 1usize..6,
    ) {
        let slots = bits.len().next_power_of_two();
        prop_assert!(slots > 32 && slots <= 128);
        let mut flat: Vec<f64> = (0..slots * lanes)
            .map(|i| {
                let (s, l) = (i / lanes, i % lanes);
                // Column l gets a rotated view of the draw so lanes
                // differ, with COLUMN_PAD past each column's real tail.
                let idx = (s + l * 7) % slots;
                if idx < bits.len() {
                    f64::from_bits(bits[idx])
                } else {
                    COLUMN_PAD
                }
            })
            .collect();
        let mut columns: Vec<Vec<f64>> = (0..lanes)
            .map(|l| (0..slots).map(|s| flat[s * lanes + l]).collect())
            .collect();
        sort_columns_total_fast(&mut flat, lanes);
        for (l, col) in columns.iter_mut().enumerate() {
            sort_total(col);
            for (s, v) in col.iter().enumerate() {
                prop_assert_eq!(
                    flat[s * lanes + l].to_bits(),
                    v.to_bits(),
                    "lane {} slot {} of {}", l, s, slots
                );
            }
        }
    }

    /// Validated trimming in the batched engine: a row too short to trim
    /// fails with the exact engine's error, and every other row returns
    /// the exact rule's state bit for bit — under a conforming sender
    /// (edge values up to ±MAX, which both engines clamp) and under one
    /// sending NaN and ±inf (which both sanitize).
    #[test]
    fn validated_trim_matches_exact_errors_and_survivors(
        own_bits in finite_edge_bits(),
        bits in proptest::collection::vec(finite_edge_bits(), 0..16),
        f in 0usize..3,
    ) {
        let column: Vec<f64> = std::iter::once(own_bits)
            .chain(bits)
            .map(f64::from_bits)
            .collect();
        let make = |r: usize| -> Box<dyn Adversary> {
            if r == 0 {
                Box::new(ConformingAdversary::new())
            } else {
                Box::new(NaNAdversary::new())
            }
        };
        for rule in rules(f) {
            star_step_is_exact(&[column.clone(), column.clone()], rule, make);
        }
    }

    /// The batched update is the exact rule's, bit for bit, on rows of up
    /// to 40 mixed-sign edge values across up to five lanes: the columnar
    /// trimmed mean folds each lane left to right from `-0.0`, as the
    /// exact sum does, so no cancellation or signed zero can split them.
    #[test]
    fn batched_rows_are_bit_identical_to_the_exact_rule(
        own_bits in finite_edge_bits(),
        bits in proptest::collection::vec(finite_edge_bits(), 0..=40),
        lanes in 1usize..=5,
        f in 0usize..3,
    ) {
        let row: Vec<f64> = bits.into_iter().map(f64::from_bits).collect();
        let columns = rotated_columns(f64::from_bits(own_bits), &row, lanes);
        for rule in rules(f) {
            star_step_is_exact(&columns, rule, |_| Box::new(ConformingAdversary::new()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Rows past the networks (in-degree above 128) run the exact rule on
    /// each lane's decoded row, so they match the exact engine bit for
    /// bit too.
    #[test]
    fn wide_rows_are_bit_identical_to_the_exact_rule(
        own_bits in finite_edge_bits(),
        bits in proptest::collection::vec(finite_edge_bits(), 129..=160),
        lanes in 1usize..=3,
        f in 0usize..4,
    ) {
        let row: Vec<f64> = bits.into_iter().map(f64::from_bits).collect();
        let columns = rotated_columns(f64::from_bits(own_bits), &row, lanes);
        for rule in rules(f) {
            star_step_is_exact(&columns, rule, |_| Box::new(ConformingAdversary::new()));
        }
    }
}
