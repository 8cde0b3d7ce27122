//! The **FastMath tier**: opt-in vectorized variants of the exact trim
//! kernel in [`crate::rules`].
//!
//! The exact tier is the reference — every golden in the repository pins
//! its bit-for-bit output, and nothing in this module is reachable unless
//! a caller explicitly opts in (a [`FastRule`], the batched Monte-Carlo
//! engine, `iabc sweep monte-carlo --replicas R`). The contract is:
//!
//! * **Sorting and trimming are exact.** [`sort_total_fast`] produces the
//!   byte-identical array [`crate::rules::sort_total`] produces, for every
//!   input including NaNs, ±∞, ±0.0, and subnormals (equal total-order
//!   keys are bit-identical values, so any correct sort of the keys yields
//!   the same byte sequence). [`validated_trimmed_survivors_fast`]
//!   preserves the exact tier's error precedence byte-for-byte.
//! * **Only summation is approximate.** [`sum_fast`] folds four
//!   accumulator lanes in a fixed order to break the serial f64 dependency
//!   chain; the result can differ from the strict left-to-right sum by a
//!   few ULPs. The divergence is bounded by the epsilon-audit harness in
//!   `iabc_sim::fastmath`, which steps FastMath against the exact tier in
//!   lockstep and enforces a per-round ULP bound.
//! * **FastMath is still deterministic.** The lane split, the fold order,
//!   and the sorting networks are fixed, and every per-ISA version of the
//!   key kernels compiles the same portable body — so FastMath output is
//!   itself pinned by goldens, just *different* goldens from the exact
//!   tier's.
//!
//! Three mechanical layers deliver the speedup:
//!
//! 1. a branch-free sign-magnitude key encode and decode, and the columnar
//!    sort's compare-exchange loop over precomputed comparator tables: one
//!    portable body, compiled for AVX-512F (eight `u64` lanes per
//!    instruction, native unsigned `min`/`max`), for AVX2 and for the
//!    baseline, with one runtime dispatch picking the widest version the
//!    host supports;
//! 2. a data-oblivious Batcher odd–even sorting network for rows of
//!    in-degree ≤ 32 (the common case across the bench grid), padded to a
//!    power of two with `u64::MAX` sentinels that sort past every real
//!    key;
//! 3. the 4-lane survivor sum described above.
//!
//! Past 32 keys the tier does not leave the network path: rows up to
//! [`MERGE_MAX_LEN`] (= 128) are sorted by Batcher odd–even **merge**
//! networks — each 32-aligned block is sorted by the unrolled networks
//! above, then the sorted blocks are fused by the mask-scheduled merge
//! stages of Batcher's mergesort (span 32, then 64), built from the very
//! same compare-exchange primitive and the same sentinel padding. Because
//! every comparator of the full Batcher schedule with span < 32 stays
//! inside one 32-block, "sort blocks, then merge" executes exactly the
//! full schedule's comparator set, so the 0-1 principle applies unchanged
//! and the output remains byte-identical to the exact tier. The columnar
//! (vertical SIMD) sort follows the identical construction per lane, so
//! dense graphs — complete n ≤ 129, circulant degree ≤ 128 — stay on the
//! vectorized path instead of dropping to the scalar fallback.

use std::sync::OnceLock;

use crate::error::RuleError;
use crate::rules::{self, TrimmedMean, TrimmedMidpoint, UpdateRule, EXP_MASK, SIGN_BIT};

/// Rows at or below this length take the unrolled sorting-network fast
/// path directly; longer rows up to [`MERGE_MAX_LEN`] run the merge
/// networks, and only rows past that fall back to the stdlib unstable
/// sort on the same keys.
pub const NETWORK_MAX_LEN: usize = 32;

/// Rows at or below this length stay on the data-oblivious network path:
/// 32-aligned blocks are sorted with the unrolled networks, then fused
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
/// The one-row scalar paths inline it at the baseline level instead: on
/// a row of a few keys, the dispatched call and its 512-bit set-up cost
/// more than the wider vectors save.
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

/// One branch-free compare-exchange per literal index pair: the sorted
/// pair lands low index = min, high index = max. Indices are literals
/// into a fixed-size buffer, so every exchange compiles to two loads,
/// a `min`/`max` pair, and two stores — no bounds checks, no branches.
macro_rules! ce {
    ($a:ident, $($i:literal $j:literal),+ $(,)?) => {{
        $({
            let x = $a[$i];
            let y = $a[$j];
            $a[$i] = if x < y { x } else { y };
            $a[$j] = if x < y { y } else { x };
        })+
    }};
}

/// Fully unrolled Batcher odd–even merge networks for the power-of-two
/// sizes the fast path pads to. The schedules are exactly what
/// [`batcher_sort`] emits for each size (pinned by a test); unrolling
/// them removes the schedule-generation loop overhead that would
/// otherwise dwarf the compare-exchanges themselves on small rows.
fn network_sort(buf: &mut [u64; NETWORK_MAX_LEN], n: usize) {
    debug_assert!(n.is_power_of_two() && n <= NETWORK_MAX_LEN);
    match n {
        2 => ce!(buf, 0 1),
        4 => ce!(buf, 0 1, 2 3, 0 2, 1 3, 1 2),
        8 => {
            ce!(buf, 0 1, 2 3, 4 5, 6 7, 0 2, 1 3, 4 6, 5 7, 1 2, 5 6);
            ce!(buf, 0 4, 1 5, 2 6, 3 7, 2 4, 3 5, 1 2, 3 4, 5 6);
        }
        16 => {
            ce!(buf, 0 1, 2 3, 4 5, 6 7, 8 9, 10 11, 12 13, 14 15, 0 2, 1 3);
            ce!(buf, 4 6, 5 7, 8 10, 9 11, 12 14, 13 15, 1 2, 5 6, 9 10, 13 14);
            ce!(buf, 0 4, 1 5, 2 6, 3 7, 8 12, 9 13, 10 14, 11 15, 2 4, 3 5);
            ce!(buf, 10 12, 11 13, 1 2, 3 4, 5 6, 9 10, 11 12, 13 14, 0 8, 1 9);
            ce!(buf, 2 10, 3 11, 4 12, 5 13, 6 14, 7 15, 4 8, 5 9, 6 10, 7 11);
            ce!(buf, 2 4, 3 5, 6 8, 7 9, 10 12, 11 13, 1 2, 3 4, 5 6, 7 8);
            ce!(buf, 9 10, 11 12, 13 14);
        }
        32 => {
            ce!(buf, 0 1, 2 3, 4 5, 6 7, 8 9, 10 11, 12 13, 14 15, 16 17, 18 19);
            ce!(buf, 20 21, 22 23, 24 25, 26 27, 28 29, 30 31, 0 2, 1 3, 4 6, 5 7);
            ce!(buf, 8 10, 9 11, 12 14, 13 15, 16 18, 17 19, 20 22, 21 23, 24 26, 25 27);
            ce!(buf, 28 30, 29 31, 1 2, 5 6, 9 10, 13 14, 17 18, 21 22, 25 26, 29 30);
            ce!(buf, 0 4, 1 5, 2 6, 3 7, 8 12, 9 13, 10 14, 11 15, 16 20, 17 21);
            ce!(buf, 18 22, 19 23, 24 28, 25 29, 26 30, 27 31, 2 4, 3 5, 10 12, 11 13);
            ce!(buf, 18 20, 19 21, 26 28, 27 29, 1 2, 3 4, 5 6, 9 10, 11 12, 13 14);
            ce!(buf, 17 18, 19 20, 21 22, 25 26, 27 28, 29 30, 0 8, 1 9, 2 10, 3 11);
            ce!(buf, 4 12, 5 13, 6 14, 7 15, 16 24, 17 25, 18 26, 19 27, 20 28, 21 29);
            ce!(buf, 22 30, 23 31, 4 8, 5 9, 6 10, 7 11, 20 24, 21 25, 22 26, 23 27);
            ce!(buf, 2 4, 3 5, 6 8, 7 9, 10 12, 11 13, 18 20, 19 21, 22 24, 23 25);
            ce!(buf, 26 28, 27 29, 1 2, 3 4, 5 6, 7 8, 9 10, 11 12, 13 14, 17 18);
            ce!(buf, 19 20, 21 22, 23 24, 25 26, 27 28, 29 30, 0 16, 1 17, 2 18, 3 19);
            ce!(buf, 4 20, 5 21, 6 22, 7 23, 8 24, 9 25, 10 26, 11 27, 12 28, 13 29);
            ce!(buf, 14 30, 15 31, 8 16, 9 17, 10 18, 11 19, 12 20, 13 21, 14 22, 15 23);
            ce!(buf, 4 8, 5 9, 6 10, 7 11, 12 16, 13 17, 14 18, 15 19, 20 24, 21 25);
            ce!(buf, 22 26, 23 27, 2 4, 3 5, 6 8, 7 9, 10 12, 11 13, 14 16, 15 17);
            ce!(buf, 18 20, 19 21, 22 24, 23 25, 26 28, 27 29, 1 2, 3 4, 5 6, 7 8);
            ce!(buf, 9 10, 11 12, 13 14, 15 16, 17 18, 19 20, 21 22, 23 24, 25 26, 27 28);
            ce!(buf, 29 30);
        }
        _ => buf[..n].sort_unstable(),
    }
}

/// Batcher's odd–even mergesort on a power-of-two-length slice of biased
/// keys, as a general schedule-generating loop. The hot path runs the
/// unrolled [`network_sort`] instead; this is the readable reference that
/// pins those unrolled schedules (and documents the construction).
#[cfg(test)]
fn batcher_sort(a: &mut [u64]) {
    debug_assert!(a.len().is_power_of_two());
    for_each_batcher_pair(a.len(), |i, j| {
        let x = a[i];
        let y = a[j];
        a[i] = x.min(y);
        a[j] = x.max(y);
    });
}

/// Batcher odd–even merge sort for padded lengths past the unrolled
/// networks: each 32-aligned block is sorted by [`network_sort`], then
/// the blocks are fused by the merge stages of the full Batcher schedule
/// (span `p = 32`, then `64`). Stages with span `< 32` in the full
/// schedule never cross a 32-block boundary, so this runs exactly the
/// full schedule's comparator set — byte-identical output to
/// [`batcher_sort`], correct by the same 0-1 principle.
fn merge_network_sort(buf: &mut [u64; MERGE_MAX_LEN], n: usize) {
    debug_assert!(n.is_power_of_two() && n > NETWORK_MAX_LEN && n <= MERGE_MAX_LEN);
    for base in (0..n).step_by(NETWORK_MAX_LEN) {
        let block: &mut [u64; NETWORK_MAX_LEN] = (&mut buf[base..base + NETWORK_MAX_LEN])
            .try_into()
            .expect("32-aligned block");
        network_sort(block, NETWORK_MAX_LEN);
    }
    let mut p = NETWORK_MAX_LEN;
    while p < n {
        for_each_batcher_merge(n, p, |i, j| {
            let x = buf[i];
            let y = buf[j];
            buf[i] = x.min(y);
            buf[j] = x.max(y);
        });
        p *= 2;
    }
}

/// Sorts a slice of biased keys: unrolled sorting network for rows up to
/// [`NETWORK_MAX_LEN`], block-sort + merge network up to
/// [`MERGE_MAX_LEN`] (both padded to a power of two with `u64::MAX`,
/// which sorts at or past every real key, so the first `len` outputs are
/// the sorted real multiset), stdlib unstable sort beyond.
#[inline]
fn sort_biased_keys(keys: &mut [u64]) {
    let len = keys.len();
    if len < 2 {
        return;
    }
    if len <= NETWORK_MAX_LEN {
        let mut buf = [u64::MAX; NETWORK_MAX_LEN];
        buf[..len].copy_from_slice(keys);
        network_sort(&mut buf, len.next_power_of_two());
        keys.copy_from_slice(&buf[..len]);
    } else if len <= MERGE_MAX_LEN {
        let mut buf = [u64::MAX; MERGE_MAX_LEN];
        buf[..len].copy_from_slice(keys);
        merge_network_sort(&mut buf, len.next_power_of_two());
        keys.copy_from_slice(&buf[..len]);
    } else {
        keys.sort_unstable();
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
/// `i < j` — the shared schedule generator behind the columnar sort and
/// the [`batcher_sort`] test reference.
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
/// [`MERGE_MAX_LEN`] extension, scalar and columnar alike.
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
/// The per-column result is byte-identical to [`sort_total_fast`] (and
/// hence to the exact tier's [`crate::rules::sort_total`]) on that
/// column.
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
/// to the scalar sort.
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

/// FastMath counterpart of [`crate::rules::sort_total`]: sorts `values`
/// into [`f64::total_cmp`] ascending order, in place, producing the
/// **byte-identical** array the exact tier produces.
///
/// # Examples
///
/// ```
/// use iabc_core::fastmath::sort_total_fast;
///
/// let mut v = [2.0, -1.0, 0.0, -0.0, 1.5];
/// sort_total_fast(&mut v);
/// assert_eq!(v, [-1.0, -0.0, 0.0, 1.5, 2.0]);
/// assert!(v[1].is_sign_negative() && !v[2].is_sign_negative());
/// ```
#[inline]
pub fn sort_total_fast(values: &mut [f64]) {
    let bits = as_bits_mut(values);
    key_pass(KeyPass::Encode, bits);
    sort_biased_keys(bits);
    key_pass(KeyPass::Decode, bits);
}

/// The 4-lane survivor sum: four independent accumulators folded in a
/// fixed order `(a0 + a2) + (a1 + a3) + tail`. Breaks the strict serial
/// f64 dependency chain of `iter().sum()`; deterministic, but **not**
/// bit-identical to the exact tier's left-to-right sum — that difference
/// is the entire FastMath epsilon budget.
#[inline]
pub fn sum_fast(values: &[f64]) -> f64 {
    let mut chunks = values.chunks_exact(4);
    let mut acc = [0.0f64; 4];
    for c in &mut chunks {
        acc[0] += c[0];
        acc[1] += c[1];
        acc[2] += c[2];
        acc[3] += c[3];
    }
    let mut tail = 0.0;
    for &v in chunks.remainder() {
        tail += v;
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

/// FastMath counterpart of [`crate::rules::average_with_own`], using
/// [`sum_fast`] for the survivor fold.
#[inline]
pub fn average_with_own_fast(own: f64, survivors: &[f64]) -> f64 {
    let weight = 1.0 / (survivors.len() as f64 + 1.0);
    weight * (own + sum_fast(survivors))
}

/// FastMath counterpart of [`crate::rules::trimmed_survivors`]:
/// network-sorts and returns the survivors after dropping `f` per side.
/// The survivor *slice* is byte-identical to the exact tier's (sorting is
/// exact); only downstream summation differs.
#[inline]
pub fn trimmed_survivors_fast(values: &mut [f64], f: usize) -> &[f64] {
    debug_assert!(values.len() >= 2 * f, "trim requires >= 2f values");
    sort_total_fast(values);
    &values[f..values.len() - f]
}

/// FastMath counterpart of
/// [`crate::rules::validated_trimmed_survivors`], with the **identical**
/// observable contract: same error precedence (non-finite `own`, then the
/// first non-finite received value in delivery order, then the `2f`
/// length bound), and on error paths `values` is restored to its original
/// contents. The finiteness scan is fused into the key-encode pass, as in
/// the exact tier.
///
/// # Errors
///
/// [`RuleError::NonFiniteInput`] or [`RuleError::InsufficientValues`],
/// byte-identical to the exact tier's.
#[inline]
pub fn validated_trimmed_survivors_fast(
    own: f64,
    values: &mut [f64],
    f: usize,
) -> Result<&[f64], RuleError> {
    if !own.is_finite() {
        return Err(RuleError::NonFiniteInput { value: own });
    }
    let bits = as_bits_mut(values);
    // Fused validation + encode, 4-lane unrolled and branch-free: the
    // all-ones-exponent test compiles to a compare/accumulate per lane.
    let mut nonfinite = 0usize;
    let mut chunks = bits.chunks_exact_mut(4);
    for c in &mut chunks {
        nonfinite += (c[0] & EXP_MASK == EXP_MASK) as usize;
        nonfinite += (c[1] & EXP_MASK == EXP_MASK) as usize;
        nonfinite += (c[2] & EXP_MASK == EXP_MASK) as usize;
        nonfinite += (c[3] & EXP_MASK == EXP_MASK) as usize;
        c[0] = biased_key(c[0]);
        c[1] = biased_key(c[1]);
        c[2] = biased_key(c[2]);
        c[3] = biased_key(c[3]);
    }
    for b in chunks.into_remainder() {
        nonfinite += (*b & EXP_MASK == EXP_MASK) as usize;
        *b = biased_key(*b);
    }
    if nonfinite > 0 || values.len() < 2 * f {
        // Cold path: undo the transform, then report precisely.
        key_pass(KeyPass::Decode, as_bits_mut(values));
        if nonfinite > 0 {
            let bad = values
                .iter()
                .copied()
                .find(|v| !v.is_finite())
                .expect("non-finite value was seen during encoding");
            return Err(RuleError::NonFiniteInput { value: bad });
        }
        return Err(RuleError::InsufficientValues {
            needed: 2 * f,
            got: values.len(),
        });
    }
    let bits = as_bits_mut(values);
    sort_biased_keys(bits);
    key_pass(KeyPass::Decode, bits);
    Ok(&values[f..values.len() - f])
}

/// FastMath counterpart of [`crate::rules::trim_kernel`]: network sort,
/// drop `f` per side, 4-lane average with `own`.
///
/// # Examples
///
/// ```
/// use iabc_core::fastmath::trim_kernel_fast;
///
/// let mut received = [0.0, 10.0, 4.0, -100.0, 6.0];
/// assert!((trim_kernel_fast(2.0, &mut received, 1) - 3.0).abs() < 1e-12);
/// ```
#[inline]
pub fn trim_kernel_fast(own: f64, values: &mut [f64], f: usize) -> f64 {
    average_with_own_fast(own, trimmed_survivors_fast(values, f))
}

/// ULP distance between two finite f64s under the total order: the
/// absolute difference of their sign-magnitude integer keys. Adjacent
/// representable values are 1 apart; `-0.0` and `+0.0` are 1 apart. This
/// is the metric the epsilon-audit harness bounds per round.
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
/// [`FastRule::exact`] returns the matching exact-tier rule, which is how
/// the epsilon-audit harness pairs each FastMath run with its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastRule {
    /// Algorithm 1 (trim `f` per side, equal-weight average with own).
    TrimmedMean(usize),
    /// Trim `f` per side, midpoint of survivor extremes with own. The
    /// fast path is bit-identical to the exact tier here — no summation
    /// is involved, and sorting is exact.
    TrimmedMidpoint(usize),
    /// Plain untrimmed mean (the E12 ablation baseline).
    Mean,
}

impl FastRule {
    /// Parses the same stable names [`UpdateRule::name`] reports.
    pub fn parse(name: &str) -> Option<Self> {
        // The fault bound is supplied separately by every caller.
        match name {
            "trimmed-mean" => Some(FastRule::TrimmedMean(0)),
            "trimmed-midpoint" => Some(FastRule::TrimmedMidpoint(0)),
            "mean" => Some(FastRule::Mean),
            _ => None,
        }
    }

    /// The same rule with fault bound `f` (no-op for [`FastRule::Mean`]).
    pub fn with_f(self, f: usize) -> Self {
        match self {
            FastRule::TrimmedMean(_) => FastRule::TrimmedMean(f),
            FastRule::TrimmedMidpoint(_) => FastRule::TrimmedMidpoint(f),
            FastRule::Mean => FastRule::Mean,
        }
    }

    /// One FastMath update: `v_i[t]` from `own` and the received vector.
    /// May reorder `received` in place, exactly like the exact tier.
    ///
    /// # Errors
    ///
    /// The same errors, with the same precedence, as the matching exact
    /// rule's [`UpdateRule::update`].
    #[inline]
    pub fn update(&self, own: f64, received: &mut [f64]) -> Result<f64, RuleError> {
        match *self {
            FastRule::TrimmedMean(f) => {
                let survivors = validated_trimmed_survivors_fast(own, received, f)?;
                Ok(average_with_own_fast(own, survivors))
            }
            FastRule::TrimmedMidpoint(f) => {
                let survivors = validated_trimmed_survivors_fast(own, received, f)?;
                let lo = survivors.first().copied().unwrap_or(own).min(own);
                let hi = survivors.last().copied().unwrap_or(own).max(own);
                Ok((lo + hi) / 2.0)
            }
            FastRule::Mean => {
                let survivors = validated_trimmed_survivors_fast(own, received, 0)?;
                Ok(average_with_own_fast(own, survivors))
            }
        }
    }

    /// The matching exact-tier rule — the audit reference.
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
    use crate::rules::{sort_total, trim_kernel, validated_trimmed_survivors};

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
    fn fast_sort_is_byte_identical_to_exact_on_every_value_class() {
        let tricky = tricky_values();
        // Every prefix length exercises both the network (with varying
        // padding) and, via duplication, the fallback path.
        for len in 0..=tricky.len() {
            let mut fast = tricky[..len].to_vec();
            let mut exact = tricky[..len].to_vec();
            sort_total_fast(&mut fast);
            sort_total(&mut exact);
            let fast_bits: Vec<u64> = fast.iter().map(|v| v.to_bits()).collect();
            let exact_bits: Vec<u64> = exact.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fast_bits, exact_bits, "len = {len}");
        }
        // Past the unrolled-network bound: the merge-network path.
        let mut fast: Vec<f64> = tricky.iter().chain(tricky.iter()).copied().collect();
        let mut exact = fast.clone();
        assert!(fast.len() > NETWORK_MAX_LEN && fast.len() <= MERGE_MAX_LEN);
        sort_total_fast(&mut fast);
        sort_total(&mut exact);
        let fast_bits: Vec<u64> = fast.iter().map(|v| v.to_bits()).collect();
        let exact_bits: Vec<u64> = exact.iter().map(|v| v.to_bits()).collect();
        assert_eq!(fast_bits, exact_bits);
        // Past the merge-network bound: the stdlib fallback on biased keys.
        let mut fast: Vec<f64> = (0..8).flat_map(|_| tricky.iter().copied()).collect();
        let mut exact = fast.clone();
        assert!(fast.len() > MERGE_MAX_LEN);
        sort_total_fast(&mut fast);
        sort_total(&mut exact);
        let fast_bits: Vec<u64> = fast.iter().map(|v| v.to_bits()).collect();
        let exact_bits: Vec<u64> = exact.iter().map(|v| v.to_bits()).collect();
        assert_eq!(fast_bits, exact_bits);
    }

    #[test]
    fn merge_sort_is_byte_identical_for_every_length_33_to_128() {
        let tricky = tricky_values();
        for len in (NETWORK_MAX_LEN + 1)..=MERGE_MAX_LEN {
            let mut fast: Vec<f64> = (0..len)
                .map(|i| tricky[(i * 7 + i / 3) % tricky.len()])
                .collect();
            let mut exact = fast.clone();
            sort_total_fast(&mut fast);
            sort_total(&mut exact);
            let fast_bits: Vec<u64> = fast.iter().map(|v| v.to_bits()).collect();
            let exact_bits: Vec<u64> = exact.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fast_bits, exact_bits, "len = {len}");
        }
    }

    #[test]
    fn batcher_matches_stdlib_on_dense_u64_patterns() {
        for n in [2usize, 4, 8, 16, 32] {
            // A deterministic scramble with duplicates and extremes.
            let mut a: Vec<u64> = (0..n)
                .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 7)
                .collect();
            a[0] = u64::MAX;
            if n > 2 {
                a[n / 2] = 0;
            }
            let mut expect = a.clone();
            expect.sort_unstable();
            batcher_sort(&mut a);
            assert_eq!(a, expect, "n = {n}");
        }
    }

    #[test]
    fn unrolled_networks_match_the_batcher_reference() {
        // Exhaustively for tiny sizes (all 0/1 sequences — the 0-1
        // principle makes this a full correctness proof per network), and
        // on dense scrambles for all sizes.
        for n in [2usize, 4, 8, 16] {
            for pattern in 0u32..(1 << n) {
                let mut buf = [u64::MAX; NETWORK_MAX_LEN];
                for (i, slot) in buf.iter_mut().enumerate().take(n) {
                    *slot = u64::from(pattern >> i) & 1;
                }
                let mut expect = buf;
                expect[..n].sort_unstable();
                network_sort(&mut buf, n);
                assert_eq!(buf[..n], expect[..n], "n = {n}, pattern = {pattern:b}");
            }
        }
        for n in [2usize, 4, 8, 16, 32] {
            for salt in 0..64u64 {
                let mut buf = [u64::MAX; NETWORK_MAX_LEN];
                for (i, b) in buf[..n].iter_mut().enumerate() {
                    *b = (i as u64 + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                }
                let mut reference = buf;
                batcher_sort(&mut reference[..n]);
                network_sort(&mut buf, n);
                assert_eq!(buf[..n], reference[..n], "n = {n}, salt = {salt}");
            }
        }
    }

    #[test]
    fn merge_network_matches_the_batcher_reference() {
        // Output equivalence at the merge sizes: dense scrambles with
        // duplicates and extremes, and pseudorandom 0-1 patterns (the
        // schedule is data-oblivious and built from min/max, so 0-1
        // agreement is the 0-1-principle evidence at sizes where
        // exhaustion is impossible).
        for n in [64usize, 128] {
            for salt in 0..64u64 {
                let mut buf = [u64::MAX; MERGE_MAX_LEN];
                for (i, b) in buf[..n].iter_mut().enumerate() {
                    *b = (i as u64 + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 11;
                }
                let mut reference = buf;
                batcher_sort(&mut reference[..n]);
                merge_network_sort(&mut buf, n);
                assert_eq!(buf[..n], reference[..n], "n = {n}, salt = {salt}");
            }
            for salt in 0..512u64 {
                let mut buf = [u64::MAX; MERGE_MAX_LEN];
                let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                for b in buf[..n].iter_mut() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    *b = x & 1;
                }
                let mut expect = buf;
                expect[..n].sort_unstable();
                merge_network_sort(&mut buf, n);
                assert_eq!(buf[..n], expect[..n], "n = {n}, salt = {salt}");
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
        sort_total_fast(&mut v);
        assert_eq!(v[0].to_bits(), 1.0f64.to_bits());
        assert_eq!(v[1].to_bits(), COLUMN_PAD.to_bits());
    }

    #[test]
    fn sum_fast_is_close_and_deterministic() {
        let vals: Vec<f64> = (0..23).map(|i| (i as f64) * 0.1 - 1.0).collect();
        let exact: f64 = vals.iter().sum();
        let fast = sum_fast(&vals);
        assert!(ulp_distance(exact, fast) < 16, "{exact} vs {fast}");
        assert_eq!(sum_fast(&vals).to_bits(), fast.to_bits());
        assert_eq!(sum_fast(&[]), 0.0);
        assert_eq!(sum_fast(&[1.5]), 1.5);
    }

    #[test]
    fn fast_kernel_is_close_to_exact_kernel() {
        let inputs = [4.0, -2.0, 0.5, 3.0, 9.0, -7.25, 1e-300, 2.0];
        let own = 1.5;
        for f in 0..=4usize {
            let mut a = inputs.to_vec();
            let mut b = inputs.to_vec();
            let fast = trim_kernel_fast(own, &mut a, f);
            let exact = trim_kernel(own, &mut b, f);
            assert!(ulp_distance(fast, exact) <= 4, "f = {f}: {fast} vs {exact}");
            // The sorted arrays themselves are byte-identical.
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn validated_fast_matches_exact_errors_and_restores_contents() {
        // Non-finite received: same error, same restored bytes.
        let orig = [1.0, f64::NAN, -0.0, f64::INFINITY, 2.0];
        let mut fast = orig.to_vec();
        let mut exact = orig.to_vec();
        let fe = validated_trimmed_survivors_fast(0.5, &mut fast, 1).unwrap_err();
        let ee = validated_trimmed_survivors(0.5, &mut exact, 1).unwrap_err();
        assert_eq!(format!("{fe:?}"), format!("{ee:?}"));
        assert_eq!(
            fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            orig.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // Non-finite own wins over non-finite received.
        let mut v = vec![f64::NAN];
        assert!(matches!(
            validated_trimmed_survivors_fast(f64::INFINITY, &mut v, 0),
            Err(RuleError::NonFiniteInput { value }) if value.is_infinite()
        ));
        // Length bound.
        let mut v = vec![1.0, 2.0, 3.0];
        assert_eq!(
            validated_trimmed_survivors_fast(0.0, &mut v, 2).unwrap_err(),
            RuleError::InsufficientValues { needed: 4, got: 3 }
        );
        assert_eq!(v, [1.0, 2.0, 3.0]);
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
    fn fast_rules_mirror_exact_rules() {
        let cases: &[FastRule] = &[
            FastRule::TrimmedMean(1),
            FastRule::TrimmedMidpoint(1),
            FastRule::Mean,
        ];
        let inputs = [4.0, -2.0, 0.5, 3.0, 9.0];
        for rule in cases {
            let exact_rule = rule.exact();
            assert_eq!(rule.name(), exact_rule.name());
            let mut a = inputs.to_vec();
            let mut b = inputs.to_vec();
            let fast = rule.update(1.5, &mut a).unwrap();
            let exact = exact_rule.update(1.5, &mut b).unwrap();
            assert!(
                ulp_distance(fast, exact) <= 4,
                "{}: {fast} vs {exact}",
                rule.name()
            );
        }
        // Midpoint involves no summation: bit-identical.
        let mut a = inputs.to_vec();
        let mut b = inputs.to_vec();
        let fast = FastRule::TrimmedMidpoint(1).update(1.5, &mut a).unwrap();
        let exact = TrimmedMidpoint::new(1).update(1.5, &mut b).unwrap();
        assert_eq!(fast.to_bits(), exact.to_bits());
    }

    #[test]
    fn fast_rule_parse_and_f() {
        assert_eq!(
            FastRule::parse("trimmed-mean").map(|r| r.with_f(3)),
            Some(FastRule::TrimmedMean(3))
        );
        assert_eq!(
            FastRule::parse("trimmed-midpoint").map(|r| r.with_f(2)),
            Some(FastRule::TrimmedMidpoint(2))
        );
        assert_eq!(
            FastRule::parse("mean").map(|r| r.with_f(9)),
            Some(FastRule::Mean)
        );
        assert_eq!(FastRule::parse("w-msr"), None);
        assert_eq!(FastRule::TrimmedMean(3).f(), 3);
        assert_eq!(FastRule::Mean.f(), 0);
    }
}
