//! The **FastMath tier**'s column kernels: the trim kernel of
//! [`crate::rules`] sorted for many replicas at once.
//!
//! The exact tier is the reference — every golden in the repository pins
//! its bit-for-bit output, and nothing in this module is reachable unless
//! a caller explicitly opts in (a [`FastRule`], the batched Monte-Carlo
//! engine, `iabc sweep monte-carlo --replicas R`). The contract is
//! **bit-identity with the exact tier**:
//!
//! * [`sort_columns_keys`] sorts `lanes` interleaved columns at once, and
//!   each column comes out byte-identical to [`crate::rules::sort_total`]
//!   on that column, for every input including NaNs, ±∞, ±0.0, and
//!   subnormals (equal total-order keys are bit-identical values, so any
//!   correct sort of the keys yields the same byte sequence).
//! * Nothing here sums. The batched engine in `iabc_sim::fastmath` folds
//!   each lane's survivors left to right, as
//!   [`crate::rules::average_with_own`] does, and hands every row the
//!   networks do not cover to the exact rule ([`FastRule::exact`]); its
//!   epsilon-audit harness steps it against the exact tier at 0 ULPs.
//! * Every per-ISA version of the key kernels compiles the same portable
//!   body, so the output never depends on the host.
//!
//! Two mechanical layers deliver the speedup:
//!
//! 1. a branch-free sign-magnitude key encode and decode, and the columnar
//!    sort's compare-exchange loop over precomputed comparator tables: one
//!    portable body, compiled for AVX-512F (eight `u64` lanes per
//!    instruction, native unsigned `min`/`max`), for AVX2 and for the
//!    baseline, with one runtime dispatch picking the widest version the
//!    host supports;
//! 2. data-oblivious Batcher odd–even sorting networks, padded to a power
//!    of two with `u64::MAX` sentinels that sort past every real key, so
//!    one comparator orders a slot pair in every lane.
//!
//! Columns up to [`MERGE_MAX_LEN`] (= 128) slots sort on the networks:
//! each 32-slot block runs the full Batcher schedule, then the sorted
//! blocks are fused by the mask-scheduled merge stages of Batcher's
//! mergesort (span 32, then 64), built from the very same compare-exchange
//! and the same sentinel padding. Because every comparator of the full
//! Batcher schedule with span < 32 stays inside one 32-block, "sort
//! blocks, then merge" executes exactly the full schedule's comparator
//! set, so the 0-1 principle applies unchanged. Dense graphs — complete
//! n ≤ 129, circulant degree ≤ 128 — therefore stay on the vectorized
//! path.

use std::sync::OnceLock;

use crate::rules::{self, TrimmedMean, TrimmedMidpoint, UpdateRule, SIGN_BIT};

/// The block width of the columnar schedule: slot counts up to this run
/// the full Batcher schedule in one piece; larger ones sort each block of
/// this many slots first, then merge the blocks.
pub const NETWORK_MAX_LEN: usize = 32;

/// Rows at or below this length stay on the data-oblivious network path:
/// 32-aligned blocks are sorted with the full Batcher schedule, then fused
/// with Batcher odd–even **merge** stages (the same compare-exchange
/// primitive, the same `u64::MAX` / [`COLUMN_PAD_KEY`] sentinel). The
/// composite schedule is exactly Batcher's full mergesort schedule for
/// the padded power of two — stages with span `< 32` never cross a
/// 32-block boundary, so block-sorting first and merging after performs
/// the identical comparator set — which keeps the 0-1-principle
/// correctness argument and the byte-identity contract intact out to
/// in-degree 128 (complete n ≤ 129, circulant degree ≤ 128).
pub const MERGE_MAX_LEN: usize = 128;

/// The biased total-order key: [`crate::rules`]' sign-magnitude transform
/// XOR the sign bit, so **unsigned** `u64` order equals [`f64::total_cmp`]
/// order (plain `min`/`max` compare-exchanges then sort correctly, and
/// `u64::MAX` is a natural past-the-end sentinel).
#[inline]
pub const fn biased_key(bits: u64) -> u64 {
    (bits ^ ((((bits as i64) >> 63) as u64) >> 1)) ^ SIGN_BIT
}

/// Inverse of [`biased_key`] (the unbiased transform is an involution on
/// bit patterns with the same sign bit, so un-bias first, then re-apply).
#[inline]
pub const fn unbias_key(key: u64) -> u64 {
    let k = key ^ SIGN_BIT;
    k ^ ((((k as i64) >> 63) as u64) >> 1)
}

/// Reinterprets an `f64` slice as its raw bit patterns.
#[inline]
fn as_bits_mut(values: &mut [f64]) -> &mut [u64] {
    // SAFETY: f64 and u64 have identical size and alignment, every bit
    // pattern is valid for both, and the mutable borrow is passed through
    // exclusively.
    unsafe { core::slice::from_raw_parts_mut(values.as_mut_ptr().cast::<u64>(), values.len()) }
}

/// An instruction-set level the key passes are compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// The target's baseline (SSE2 on x86-64).
    Baseline,
    /// x86-64 AVX2: four `u64` lanes per instruction.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// x86-64 AVX-512F: eight lanes, with native unsigned 64-bit
    /// `min`/`max` and arithmetic shift.
    #[cfg(target_arch = "x86_64")]
    Avx512f,
}

impl Isa {
    /// The widest level this host supports.
    fn best() -> Isa {
        #[cfg(target_arch = "x86_64")]
        for isa in [Isa::Avx512f, Isa::Avx2] {
            if isa.detected() {
                return isa;
            }
        }
        Isa::Baseline
    }

    /// Whether this host supports the level. The detection macro caches
    /// in a process-wide static, so this is a load and a test.
    fn detected(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f => std::arch::is_x86_feature_detected!("avx512f"),
        }
    }
}

/// One pass of the key kernels over a buffer.
#[derive(Debug, Clone, Copy)]
enum KeyPass<'t> {
    /// [`biased_key`] on every element.
    Encode,
    /// [`unbias_key`] on every element.
    Decode,
    /// The compare-exchanges of `table` over slot rows `lanes` keys wide.
    Sort { lanes: usize, table: &'t [[u8; 2]] },
}

/// The portable body of every key pass. It is inlined into one wrapper
/// per [`Isa`], so each level vectorizes the same integer operations.
#[inline(always)]
fn key_pass(pass: KeyPass<'_>, keys: &mut [u64]) {
    match pass {
        KeyPass::Encode => keys.iter_mut().for_each(|k| *k = biased_key(*k)),
        KeyPass::Decode => keys.iter_mut().for_each(|k| *k = unbias_key(*k)),
        KeyPass::Sort { lanes, table } => {
            for &[i, j] in table {
                // i < j: row i ends at or before row j starts.
                let (lo, hi) = keys.split_at_mut(usize::from(j) * lanes);
                let row_i = &mut lo[usize::from(i) * lanes..][..lanes];
                for (a, b) in row_i.iter_mut().zip(&mut hi[..lanes]) {
                    let (x, y) = (*a, *b);
                    *a = x.min(y);
                    *b = x.max(y);
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn key_pass_avx512f(pass: KeyPass<'_>, keys: &mut [u64]) {
    key_pass(pass, keys);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn key_pass_avx2(pass: KeyPass<'_>, keys: &mut [u64]) {
    key_pass(pass, keys);
}

/// Runs `pass` compiled for `isa`, or for the baseline when this host
/// lacks `isa`.
fn run_keys(isa: Isa, pass: KeyPass<'_>, keys: &mut [u64]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512f if isa.detected() => {
            // SAFETY: the guard detected AVX-512F on this host.
            unsafe { key_pass_avx512f(pass, keys) }
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if isa.detected() => {
            // SAFETY: the guard detected AVX2 on this host.
            unsafe { key_pass_avx2(pass, keys) }
        }
        _ => key_pass(pass, keys),
    }
}

/// The column-padding sentinel: the [`f64::total_cmp`] **maximum** bit
/// pattern (a positive NaN with full payload). Its biased key is
/// `u64::MAX`, and the key transform maps it to itself — so a buffer tail
/// filled with this value stays a valid past-the-end sentinel through any
/// number of encode → sort → decode cycles. Callers of
/// [`sort_columns_total_fast`] pad partial columns with it.
pub const COLUMN_PAD: f64 = f64::from_bits(0x7FFF_FFFF_FFFF_FFFF);

/// [`COLUMN_PAD`] in the biased-key domain: `u64::MAX`, the unsigned
/// past-the-end sentinel. Callers working key-side (see
/// [`sort_columns_keys`]) pad partial columns with this instead.
pub const COLUMN_PAD_KEY: u64 = u64::MAX;

/// Encodes a buffer of raw `f64` bit patterns into biased total-order
/// keys, in place (compiled per ISA level, bit-identical on every one).
/// The key-domain entry point for callers that gather and sort the
/// same values many times: encode once, sort with [`sort_columns_keys`]
/// as often as needed, decode only what survives.
#[inline]
pub fn encode_keys(bits: &mut [u64]) {
    run_keys(Isa::best(), KeyPass::Encode, bits);
}

/// Inverse of [`encode_keys`]: decodes biased keys back into the original
/// `f64` bit patterns, in place.
#[inline]
pub fn decode_keys(bits: &mut [u64]) {
    run_keys(Isa::best(), KeyPass::Decode, bits);
}

/// Walks the compare-exchange schedule of Batcher's odd–even mergesort
/// for a power-of-two `n`, invoking `ce(i, j)` for every pair with
/// `i < j` — the schedule generator behind the columnar sort.
fn for_each_batcher_pair(n: usize, mut ce: impl FnMut(usize, usize)) {
    debug_assert!(n.is_power_of_two());
    let mut p = 1;
    while p < n {
        for_each_batcher_merge(n, p, &mut ce);
        p *= 2;
    }
}

/// One **merge stage** of Batcher's schedule at span `p`: the comparator
/// sequence that fuses adjacent sorted `p`-runs of an `n`-length array
/// into sorted `2p`-runs (the inner `k`-loop of the full schedule at
/// fixed `p`). Running this for `p = 32, 64, …` after per-32-block sorts
/// reconstructs the full schedule exactly — the basis of the
/// [`MERGE_MAX_LEN`] extension.
fn for_each_batcher_merge(n: usize, p: usize, mut ce: impl FnMut(usize, usize)) {
    debug_assert!(n.is_power_of_two() && p.is_power_of_two() && p < n);
    // Same-2p-block test as a mask comparison, not a division.
    let block_mask = !(2 * p - 1);
    let mut k = p;
    while k >= 1 {
        let mut j = k % p;
        while j + k < n {
            let span = k.min(n - j - k);
            let mut i = 0;
            while i < span {
                if ((i + j) & block_mask) == ((i + j + k) & block_mask) {
                    ce(i + j, i + j + k);
                }
                i += 1;
            }
            j += 2 * k;
        }
        k /= 2;
    }
}

/// Sorts `lanes` interleaved columns at once, each into
/// [`f64::total_cmp`] ascending order — the **vertical** SIMD layout of
/// the replica-batched engine. `values` is slot-major: slot `s`, lane `l`
/// at `s * lanes + l`, so one compare-exchange of the (data-oblivious)
/// network orders slot `s` against slot `s'` in **every lane at once** —
/// eight lanes per AVX-512F instruction (four under AVX2), walking a
/// comparator table built once per process.
///
/// The per-column result is byte-identical to the exact tier's
/// [`crate::rules::sort_total`] on that column.
///
/// The slot count `values.len() / lanes` must be a power of two at most
/// [`MERGE_MAX_LEN`]; pad partial columns with [`COLUMN_PAD`], which
/// sorts past every real value. Past 32 slots the schedule switches to
/// the block-sort + merge-stage construction (see [`MERGE_MAX_LEN`]),
/// which runs the identical comparator set as the full Batcher schedule.
///
/// # Panics
///
/// Panics if `lanes` is zero, `values.len()` is not a multiple of
/// `lanes`, or the slot count is not a power of two at most
/// [`MERGE_MAX_LEN`].
///
/// # Examples
///
/// ```
/// use iabc_core::fastmath::sort_columns_total_fast;
///
/// // Two interleaved columns: [3, 1, 2, 0] and [30, 10, 20, 0].
/// let mut v = [3.0, 30.0, 1.0, 10.0, 2.0, 20.0, 0.0, 0.0];
/// sort_columns_total_fast(&mut v, 2);
/// assert_eq!(v, [0.0, 0.0, 1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
/// ```
pub fn sort_columns_total_fast(values: &mut [f64], lanes: usize) {
    let bits = as_bits_mut(values);
    encode_keys(bits);
    sort_columns_keys(bits, lanes);
    decode_keys(bits);
}

/// Key-domain columnar sort: like [`sort_columns_total_fast`], but the
/// buffer already holds **biased keys** (see [`encode_keys`]) and stays in
/// the key domain — unsigned ascending per column, which is
/// [`f64::total_cmp`] order of the decoded values. This is the hot entry
/// point for engines that pre-encode their whole state once per round and
/// then gather/sort keys per node, decoding only surviving slots.
///
/// # Panics
///
/// Same shape contract as [`sort_columns_total_fast`]: `lanes > 0`,
/// `keys.len()` a multiple of `lanes`, and a slot count that is a power
/// of two `<=` [`MERGE_MAX_LEN`] (pad with [`COLUMN_PAD_KEY`]).
pub fn sort_columns_keys(keys: &mut [u64], lanes: usize) {
    assert!(lanes > 0, "lanes must be positive");
    assert_eq!(keys.len() % lanes, 0, "keys must factor as slots x lanes");
    let slots = keys.len() / lanes;
    if slots < 2 {
        return;
    }
    assert!(
        slots.is_power_of_two() && slots <= MERGE_MAX_LEN,
        "slot count {slots} must be a power of two <= {MERGE_MAX_LEN} (pad with COLUMN_PAD_KEY)"
    );
    let table = comparator_table(slots);
    run_keys(Isa::best(), KeyPass::Sort { lanes, table }, keys);
}

/// The [`columnar_schedule`] of a padded slot count (a power of two from 2
/// to [`MERGE_MAX_LEN`]) as a comparator table, in schedule order. All
/// tables are built on the first call and kept for the process.
fn comparator_table(slots: usize) -> &'static [[u8; 2]] {
    static TABLES: OnceLock<Vec<Box<[[u8; 2]]>>> = OnceLock::new();
    let tables = TABLES.get_or_init(|| {
        (1..=MERGE_MAX_LEN.trailing_zeros())
            .map(|k| {
                let mut table = Vec::new();
                let byte = |s| u8::try_from(s).expect("slot indices stay below MERGE_MAX_LEN");
                columnar_schedule(1 << k, |i, j| table.push([byte(i), byte(j)]));
                table.into_boxed_slice()
            })
            .collect()
    });
    &tables[slots.trailing_zeros() as usize - 1]
}

/// The columnar compare-exchange schedule: for `slots <=`
/// [`NETWORK_MAX_LEN`] this is the full Batcher schedule verbatim; past
/// it, each 32-slot block runs its full Batcher schedule first (block
/// locality keeps the working set at `32 × lanes` keys), then the merge
/// stages fuse the sorted blocks. Either way the comparator set is
/// exactly the full schedule's, so per-column output is byte-identical
/// to the exact sort.
fn columnar_schedule(slots: usize, mut ce: impl FnMut(usize, usize)) {
    debug_assert!(slots.is_power_of_two() && slots <= MERGE_MAX_LEN);
    let block = slots.min(NETWORK_MAX_LEN);
    let mut base = 0;
    while base < slots {
        for_each_batcher_pair(block, |i, j| ce(base + i, base + j));
        base += block;
    }
    let mut p = block;
    while p < slots {
        for_each_batcher_merge(slots, p, &mut ce);
        p *= 2;
    }
}

/// ULP distance between two finite f64s under the total order: the
/// absolute difference of their sign-magnitude integer keys. Adjacent
/// representable values are 1 apart; `-0.0` and `+0.0` are 1 apart. This
/// is the metric the epsilon-audit harness reports per round.
#[inline]
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    let ka = (biased_key(a.to_bits()) ^ SIGN_BIT) as i64;
    let kb = (biased_key(b.to_bits()) ^ SIGN_BIT) as i64;
    ka.abs_diff(kb)
}

/// The FastMath rule family — the subset of [`crate::rules`] with a
/// vectorized implementation, as a closed enum so the batched engine
/// dispatches without a vtable in its inner loop.
///
/// [`FastRule::exact`] returns the matching exact-tier rule: the batched
/// engine runs it on the rows its networks do not cover, and the
/// epsilon-audit harness pairs each FastMath run with it as the
/// reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastRule {
    /// Algorithm 1 (trim `f` per side, equal-weight average with own).
    TrimmedMean(usize),
    /// Trim `f` per side, midpoint of survivor extremes with own.
    TrimmedMidpoint(usize),
    /// Plain untrimmed mean (the E12 ablation baseline).
    Mean,
}

impl FastRule {
    /// The matching exact-tier rule — the audit reference, and the
    /// batched engine's rule past the networks.
    pub fn exact(&self) -> Box<dyn UpdateRule> {
        match *self {
            FastRule::TrimmedMean(f) => Box::new(TrimmedMean::new(f)),
            FastRule::TrimmedMidpoint(f) => Box::new(TrimmedMidpoint::new(f)),
            FastRule::Mean => Box::new(rules::Mean::new()),
        }
    }

    /// The fault bound this rule trims against (0 for [`FastRule::Mean`]).
    pub fn f(&self) -> usize {
        match *self {
            FastRule::TrimmedMean(f) | FastRule::TrimmedMidpoint(f) => f,
            FastRule::Mean => 0,
        }
    }

    /// The exact tier's stable name for this rule (the tier is recorded
    /// separately by reports; the rule identity is shared).
    pub fn name(&self) -> &'static str {
        match self {
            FastRule::TrimmedMean(_) => "trimmed-mean",
            FastRule::TrimmedMidpoint(_) => "trimmed-midpoint",
            FastRule::Mean => "mean",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::sort_total;

    fn tricky_values() -> Vec<f64> {
        vec![
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0xFFF8_0000_0000_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            1.0,
            -1.0,
            f64::MAX,
            f64::MIN,
            3.5,
            -2.25,
        ]
    }

    #[test]
    fn biased_key_roundtrips_and_orders() {
        for v in tricky_values() {
            let bits = v.to_bits();
            assert_eq!(unbias_key(biased_key(bits)), bits);
        }
        // Unsigned biased-key order equals total_cmp order.
        let vals = tricky_values();
        for &a in &vals {
            for &b in &vals {
                let key_order = biased_key(a.to_bits()).cmp(&biased_key(b.to_bits()));
                assert_eq!(key_order, a.total_cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn columnar_schedule_runs_the_full_batcher_comparator_set() {
        // The block-sort + merge decomposition must execute exactly the
        // comparator pairs of the full Batcher schedule (the structural
        // fact the byte-identity argument rests on). For slots <= 32 the
        // sequences are identical; past it the pairs are a permutation
        // (blocks are enumerated block-by-block), so compare as sorted
        // multisets.
        for slots in [2usize, 8, 32, 64, 128] {
            let mut full: Vec<(usize, usize)> = Vec::new();
            for_each_batcher_pair(slots, |i, j| full.push((i, j)));
            let mut blocked: Vec<(usize, usize)> = Vec::new();
            columnar_schedule(slots, |i, j| blocked.push((i, j)));
            if slots <= NETWORK_MAX_LEN {
                assert_eq!(full, blocked, "slots = {slots}");
            } else {
                let mut a = full.clone();
                let mut b = blocked.clone();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "slots = {slots}");
                // And every pre-merge comparator stays inside its
                // 32-block — the property that licenses the reordering.
                for &(i, j) in &blocked[..full.len() - merge_stage_len(slots)] {
                    assert_eq!(
                        i / NETWORK_MAX_LEN,
                        j / NETWORK_MAX_LEN,
                        "block-phase pair ({i}, {j}) crosses a 32-block"
                    );
                }
            }
        }
    }

    /// Comparator count of the merge stages `p = 32, 64, … < slots`.
    fn merge_stage_len(slots: usize) -> usize {
        let mut count = 0;
        let mut p = NETWORK_MAX_LEN;
        while p < slots {
            for_each_batcher_merge(slots, p, |_, _| count += 1);
            p *= 2;
        }
        count
    }

    #[test]
    fn column_sort_matches_scalar_sort_per_column() {
        // Every (slot count, lane count) shape, over columns drawn from
        // the tricky value pool (NaNs, ±0, ±inf, subnormals) plus pad
        // sentinels: each column must come out byte-identical to
        // sort_total on that column alone.
        let pool = tricky_values();
        for slots in [2usize, 4, 8, 16, 32, 64, 128] {
            for lanes in [1usize, 2, 3, 4, 5, 8, 9] {
                let mut flat = vec![0.0f64; slots * lanes];
                for (idx, v) in flat.iter_mut().enumerate() {
                    *v = pool[(idx * 7 + idx / 3) % pool.len()];
                }
                // Lane 0 additionally carries pad sentinels mid-column.
                if slots > 2 {
                    flat[lanes] = COLUMN_PAD;
                }
                let mut expect: Vec<Vec<f64>> = (0..lanes)
                    .map(|l| (0..slots).map(|s| flat[s * lanes + l]).collect())
                    .collect();
                for col in expect.iter_mut() {
                    sort_total(col);
                }
                sort_columns_total_fast(&mut flat, lanes);
                for (l, col) in expect.iter().enumerate() {
                    for s in 0..slots {
                        assert_eq!(
                            flat[s * lanes + l].to_bits(),
                            col[s].to_bits(),
                            "slots = {slots}, lanes = {lanes}, lane {l}, slot {s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn comparator_tables_sort_every_zero_one_column() {
        // One 0-1 pattern per lane: every pattern up to 16 slots (by the
        // 0-1 principle a proof that the data-oblivious table sorts any
        // column), and 512 pseudorandom ones at each larger slot count.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for slots in (1..=MERGE_MAX_LEN.trailing_zeros()).map(|k| 1usize << k) {
            let patterns: Vec<u128> = if slots <= 16 {
                (0..1u128 << slots).collect()
            } else {
                (0..512)
                    .map(|_| {
                        let mut word = || {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            u128::from(x)
                        };
                        (word() << 64) | word()
                    })
                    .collect()
            };
            let lanes = patterns.len();
            let mut keys = vec![0u64; slots * lanes];
            for (l, &p) in patterns.iter().enumerate() {
                for s in 0..slots {
                    keys[s * lanes + l] = ((p >> s) & 1) as u64;
                }
            }
            sort_columns_keys(&mut keys, lanes);
            for (l, &p) in patterns.iter().enumerate() {
                let ones = (0..slots).filter(|&s| (p >> s) & 1 == 1).count();
                for s in 0..slots {
                    let want = u64::from(s >= slots - ones);
                    assert_eq!(keys[s * lanes + l], want, "slots = {slots}, pattern {p:b}");
                }
            }
        }
    }

    /// The key-pass levels this host runs, baseline first.
    fn detected_levels() -> Vec<Isa> {
        let mut levels = vec![Isa::Baseline];
        #[cfg(target_arch = "x86_64")]
        levels.extend(
            [Isa::Avx2, Isa::Avx512f]
                .into_iter()
                .filter(|isa| isa.detected()),
        );
        levels
    }

    #[test]
    fn comparator_tables_replay_the_columnar_schedule() {
        for slots in (1..=MERGE_MAX_LEN.trailing_zeros()).map(|k| 1usize << k) {
            let mut schedule = Vec::new();
            columnar_schedule(slots, |i, j| schedule.push((i, j)));
            let table: Vec<(usize, usize)> = comparator_table(slots)
                .iter()
                .map(|&[i, j]| (usize::from(i), usize::from(j)))
                .collect();
            assert_eq!(table, schedule, "slots = {slots}");
        }
    }

    #[test]
    fn every_isa_level_sorts_each_column_like_the_exact_tier() {
        let levels = detected_levels();
        println!("column kernels checked at ISA levels: {levels:?}");
        // Edge-biased draws: half from the tricky pool (±0.0, subnormals,
        // ±inf, NaN payloads) plus the pad sentinel, half raw bit patterns.
        let mut pool: Vec<u64> = tricky_values().iter().map(|v| v.to_bits()).collect();
        pool.push(COLUMN_PAD.to_bits());
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 1 == 0 {
                pool[(x >> 1) as usize % pool.len()]
            } else {
                x.rotate_left(17)
            }
        };
        for slots in (1..=MERGE_MAX_LEN.trailing_zeros()).map(|k| 1usize << k) {
            for lanes in [1usize, 3, 4, 5, 8, 9, 31, 32, 33] {
                for _ in 0..4 {
                    let raw: Vec<u64> = (0..slots * lanes).map(|_| draw()).collect();
                    let mut expect: Vec<Vec<f64>> = (0..lanes)
                        .map(|l| {
                            (0..slots)
                                .map(|s| f64::from_bits(raw[s * lanes + l]))
                                .collect()
                        })
                        .collect();
                    for col in expect.iter_mut() {
                        sort_total(col);
                    }
                    for &isa in &levels {
                        let mut keys = raw.clone();
                        run_keys(isa, KeyPass::Encode, &mut keys);
                        let encoded: Vec<u64> = raw.iter().map(|&b| biased_key(b)).collect();
                        assert_eq!(keys, encoded, "{isa:?} encode, {slots} x {lanes}");
                        let table = comparator_table(slots);
                        run_keys(isa, KeyPass::Sort { lanes, table }, &mut keys);
                        run_keys(isa, KeyPass::Decode, &mut keys);
                        for (l, col) in expect.iter().enumerate() {
                            for (s, v) in col.iter().enumerate() {
                                assert_eq!(
                                    keys[s * lanes + l],
                                    v.to_bits(),
                                    "{isa:?}: slots = {slots}, lanes = {lanes}, lane {l}, slot {s}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn column_pad_is_a_key_fixpoint_and_total_order_max() {
        assert_eq!(biased_key(COLUMN_PAD.to_bits()), u64::MAX);
        assert_eq!(unbias_key(u64::MAX), COLUMN_PAD.to_bits());
        // Survives an encode/decode round-trip bit-exactly.
        let mut v = [COLUMN_PAD, 1.0];
        sort_columns_total_fast(&mut v, 1);
        assert_eq!(v[0].to_bits(), 1.0f64.to_bits());
        assert_eq!(v[1].to_bits(), COLUMN_PAD.to_bits());
    }

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
        assert_eq!(ulp_distance(0.0, -0.0), 1);
        assert_eq!(ulp_distance(-1.5, -1.5), 0);
        assert!(ulp_distance(1.0, 2.0) > 1_000_000);
    }

    #[test]
    fn fast_rules_name_their_exact_rules() {
        for (rule, f) in [
            (FastRule::TrimmedMean(3), 3),
            (FastRule::TrimmedMidpoint(2), 2),
            (FastRule::Mean, 0),
        ] {
            assert_eq!(rule.name(), rule.exact().name());
            assert_eq!(rule.f(), f);
        }
    }
}
