//! State-update rules `Z_i` — Algorithm 1 and ablation variants.
//!
//! The paper's Algorithm 1, per node `i` and iteration `t`:
//!
//! 1. transmit `v_i[t-1]` on all outgoing edges;
//! 2. receive one value per incoming edge (vector `r_i[t]`);
//! 3. sort `r_i[t]`, drop the `f` smallest and `f` largest values, and set
//!    `v_i[t] = Σ_{j ∈ {i} ∪ N*_i[t]} a_i w_j` with
//!    `a_i = 1 / (|N⁻_i| + 1 − 2f)`.
//!
//! An [`UpdateRule`] encapsulates step 3. Rules are pure functions of
//! `(own value, received values)` — matching the paper's memory-less output
//! constraint (`Z_i` may not depend on `t` or on older history).
//!
//! # Two tiers: exact and FastMath
//!
//! This module is the **exact tier**: every operation has one pinned
//! bit-for-bit result (the left-to-right survivor sum in
//! [`average_with_own`] is part of the contract), and every golden,
//! proptest, and cross-engine equivalence suite in the workspace is
//! anchored to it. [`crate::fastmath`] is the **FastMath tier**: a
//! columnar sort that orders many replicas' rows at once, and the
//! [`crate::fastmath::FastRule`] family the batched engine in `iabc_sim`
//! applies with it. That engine is bit-identical to this module — it
//! sums each lane left to right and runs these rules on the rows its
//! sorting networks do not cover — and its epsilon-audit harness checks
//! it against this tier at 0 ULPs. Nothing routes through FastMath unless
//! a caller asks for it; reach for it on throughput-bound replica sweeps.
//!
//! Every engine clamps received values with [`sanitize`] before a rule
//! sees them.

use std::fmt;

use crate::error::RuleError;

/// Maps IEEE-754 bit patterns to keys whose **signed** integer order equals
/// [`f64::total_cmp`]'s total order (the standard sign-magnitude
/// transform). The mask leaves the sign bit alone, so the transform is an
/// involution: applying it twice restores the original bits.
#[inline]
pub(crate) const fn total_order_key(bits: u64) -> u64 {
    bits ^ ((((bits as i64) >> 63) as u64) >> 1)
}

/// The IEEE-754 sign bit — the bias [`crate::fastmath`] XORs onto
/// total-order keys so unsigned comparisons sort them.
pub(crate) const SIGN_BIT: u64 = 0x8000_0000_0000_0000;

/// Reinterprets an `f64` slice as its raw bit patterns.
#[inline]
fn as_bits_mut(values: &mut [f64]) -> &mut [u64] {
    // SAFETY: f64 and u64 have identical size and alignment, every bit
    // pattern is valid for both, and the mutable borrow is passed through
    // exclusively.
    unsafe { core::slice::from_raw_parts_mut(values.as_mut_ptr().cast::<u64>(), values.len()) }
}

/// Sorts `values` into [`f64::total_cmp`] ascending order, in place.
///
/// This is the hot comparison loop of every trimming rule. Instead of
/// calling `total_cmp` per comparison (two bit transforms each time), the
/// slice is transformed to total-order keys once, sorted with a plain
/// integer comparison, and transformed back — the result is the exact
/// permutation `sort_unstable_by(f64::total_cmp)` produces (equal keys are
/// bit-identical values, so unstable tie order is unobservable).
///
/// # Examples
///
/// ```
/// use iabc_core::rules::sort_total;
///
/// let mut v = [2.0, -1.0, 0.0, -0.0, 1.5];
/// sort_total(&mut v);
/// assert_eq!(v, [-1.0, -0.0, 0.0, 1.5, 2.0]);
/// assert!(v[1].is_sign_negative() && !v[2].is_sign_negative());
/// ```
#[inline]
pub fn sort_total(values: &mut [f64]) {
    let bits = as_bits_mut(values);
    for b in bits.iter_mut() {
        *b = total_order_key(*b);
    }
    bits.sort_unstable_by_key(|&k| k as i64);
    for b in bits.iter_mut() {
        *b = total_order_key(*b);
    }
}

/// Sorts `values` and returns the survivors after dropping the `f`
/// smallest and `f` largest — the trim step of Algorithm 1, shared by the
/// trimming rules and the §7 withholding engine.
///
/// Callers must guarantee `values.len() >= 2 * f` (the rules' public
/// `update` surfaces validate and return
/// [`RuleError::InsufficientValues`] first).
#[inline]
pub fn trimmed_survivors(values: &mut [f64], f: usize) -> &[f64] {
    debug_assert!(values.len() >= 2 * f, "trim requires >= 2f values");
    sort_total(values);
    &values[f..values.len() - f]
}

/// IEEE-754 exponent mask: all-ones exponent ⇔ the value is ±∞ or NaN.
pub(crate) const EXP_MASK: u64 = 0x7FF0_0000_0000_0000;

/// The rules' shared validated trim front-end: checks `own` and every
/// received value finite (the received scan is **fused into the sort's
/// key-encode pass**, so the hot path pays no separate O(n) validation
/// walk), checks the `2f` length bound, then sorts and returns the
/// survivors. Error precedence matches the historical rules: non-finite
/// `own`, then non-finite received (first in delivery order), then length.
///
/// On the error paths `values` is left with its original contents (the
/// key transform is an involution and is undone), so callers observe the
/// documented "may reorder in place" contract and nothing stronger.
///
/// # Errors
///
/// [`RuleError::NonFiniteInput`] or [`RuleError::InsufficientValues`] as
/// described above.
#[inline]
pub fn validated_trimmed_survivors(
    own: f64,
    values: &mut [f64],
    f: usize,
) -> Result<&[f64], RuleError> {
    if !own.is_finite() {
        return Err(RuleError::NonFiniteInput { value: own });
    }
    let bits = as_bits_mut(values);
    let mut nonfinite = false;
    for b in bits.iter_mut() {
        let orig = *b;
        nonfinite |= orig & EXP_MASK == EXP_MASK;
        *b = total_order_key(orig);
    }
    if nonfinite || values.len() < 2 * f {
        // Cold path: undo the transform, then report precisely.
        let bits = as_bits_mut(values);
        for b in bits.iter_mut() {
            *b = total_order_key(*b);
        }
        if nonfinite {
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
    bits.sort_unstable_by_key(|&k| k as i64);
    for b in bits.iter_mut() {
        *b = total_order_key(*b);
    }
    Ok(&values[f..values.len() - f])
}

/// Equal-weight average of `own` with `survivors` — the paper's
/// `a_i = 1 / (|survivors| + 1)` combination, shared by Algorithm 1,
/// W-MSR, and the threaded runtime. The summation order (ascending
/// survivors, then `own` added first) is part of the bit-for-bit contract.
#[inline]
pub fn average_with_own(own: f64, survivors: &[f64]) -> f64 {
    let weight = 1.0 / (survivors.len() as f64 + 1.0);
    weight * (own + survivors.iter().sum::<f64>())
}

/// The fused trim-and-average inner loop of Algorithm 1: sort, drop `f`
/// per side, average the survivors with `own` at equal weight. This is the
/// *single* place the hot arithmetic lives — [`TrimmedMean`], the §7
/// withholding engine, and the threaded runtime all call it.
///
/// Preconditions (checked by callers, `debug_assert`ed here): all inputs
/// finite, `values.len() >= 2 * f`.
///
/// # Examples
///
/// ```
/// use iabc_core::rules::trim_kernel;
///
/// let mut received = [0.0, 10.0, 4.0, -100.0, 6.0];
/// // Drops -100 and 10; survivors {0, 4, 6} average with own 2.0.
/// assert!((trim_kernel(2.0, &mut received, 1) - 3.0).abs() < 1e-12);
/// ```
#[inline]
pub fn trim_kernel(own: f64, values: &mut [f64], f: usize) -> f64 {
    average_with_own(own, trimmed_survivors(values, f))
}

/// Sentinel magnitude for sanitized non-finite Byzantine payloads. Large
/// enough to land in the trimmed tails, small enough that partial sums stay
/// finite.
pub const SANITIZE_CLAMP: f64 = 1e100;

/// Clamps a received value to a finite one, so that honest arithmetic
/// stays well-defined: NaN maps to `+SANITIZE_CLAMP` (it will sit in a
/// trimmed tail like any other outlier), and everything else is clamped
/// to `±SANITIZE_CLAMP`. Every engine and runtime applies it at the
/// receiver boundary, which is what keeps their trajectories identical.
///
/// `#[inline]` because the generic node loops that call it once per
/// received message are instantiated in other crates.
#[inline]
pub fn sanitize(v: f64) -> f64 {
    if v.is_nan() {
        SANITIZE_CLAMP
    } else {
        v.clamp(-SANITIZE_CLAMP, SANITIZE_CLAMP)
    }
}

/// The fused `(µ, U)` extremes scan over the **fault-free** entries of a
/// state vector — the one definition of the paper's per-round
/// `µ[t] = min_i v_i[t]` / `U[t] = max_i v_i[t]` shared by every consumer
/// (the engines' `honest_range`, the trace recorder, the deployment
/// report). Returns `(f64::INFINITY, f64::NEG_INFINITY)` when no
/// fault-free entry exists; callers decide how to treat that (the trace
/// asserts, the deployment report maps it to a zero range).
///
/// # Panics
///
/// Panics if a fault-free state is non-finite — every producer of state
/// vectors in the workspace sanitizes received values, so a non-finite
/// honest state is an engine bug, not data.
///
/// # Examples
///
/// ```
/// use iabc_core::rules::honest_extremes;
/// use iabc_graph::NodeSet;
///
/// let faults = NodeSet::from_indices(3, [2]);
/// assert_eq!(honest_extremes(&[1.0, 5.0, 999.0], &faults), (1.0, 5.0));
/// ```
pub fn honest_extremes(states: &[f64], fault_set: &iabc_graph::NodeSet) -> (f64, f64) {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (i, &v) in states.iter().enumerate() {
        if fault_set.contains(iabc_graph::NodeId::new(i)) {
            continue;
        }
        assert!(
            v.is_finite(),
            "fault-free state {v} at node {i} is not finite"
        );
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

/// A memory-less state-update function `Z_i` (paper Section 2.3).
///
/// Implementations must be deterministic and independent of iteration
/// number — the paper's output constraint plus validity forbid any
/// "sense of time".
pub trait UpdateRule: fmt::Debug + Send + Sync {
    /// Computes `v_i[t]` from `v_i[t-1]` (`own`) and the received vector.
    /// May reorder `received` in place (rules sort for trimming).
    ///
    /// # Errors
    ///
    /// * [`RuleError::InsufficientValues`] if too few values were received
    ///   to trim; * [`RuleError::NonFiniteInput`] if any input is NaN/±∞.
    fn update(&self, own: f64, received: &mut [f64]) -> Result<f64, RuleError>;

    /// Lower bound on the weight this rule gives any single surviving value
    /// (the paper's `a_i`), as a function of the in-degree. `None` when the
    /// rule has no such guarantee (then Lemma 5 does not apply).
    fn min_weight(&self, in_degree: usize) -> Option<f64>;

    /// Short stable identifier for reports.
    fn name(&self) -> &'static str;
}

fn ensure_finite(own: f64, received: &[f64]) -> Result<(), RuleError> {
    if !own.is_finite() {
        return Err(RuleError::NonFiniteInput { value: own });
    }
    if let Some(&bad) = received.iter().find(|v| !v.is_finite()) {
        return Err(RuleError::NonFiniteInput { value: bad });
    }
    Ok(())
}

/// **Algorithm 1**: trim the `f` smallest and `f` largest received values,
/// then average the survivors together with the node's own value, all with
/// equal weight `a_i = 1 / (|N⁻_i| + 1 − 2f)`.
///
/// This is the W-MSR-style rule the paper proves correct (Theorems 2–3) on
/// every graph satisfying Theorem 1.
///
/// # Examples
///
/// ```
/// use iabc_core::rules::{TrimmedMean, UpdateRule};
///
/// let rule = TrimmedMean::new(1);
/// let mut received = vec![0.0, 10.0, 4.0, -100.0, 6.0];
/// // Trimming drops -100 and 10; survivors {0, 4, 6} average with own 2.0.
/// let v = rule.update(2.0, &mut received)?;
/// assert!((v - 3.0).abs() < 1e-12);
/// # Ok::<(), iabc_core::RuleError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrimmedMean {
    f: usize,
}

impl TrimmedMean {
    /// Creates the rule for fault bound `f`.
    pub const fn new(f: usize) -> Self {
        TrimmedMean { f }
    }

    /// The fault bound this rule trims against.
    pub const fn f(&self) -> usize {
        self.f
    }
}

impl UpdateRule for TrimmedMean {
    fn update(&self, own: f64, received: &mut [f64]) -> Result<f64, RuleError> {
        let survivors = validated_trimmed_survivors(own, received, self.f)?;
        Ok(average_with_own(own, survivors))
    }

    fn min_weight(&self, in_degree: usize) -> Option<f64> {
        if in_degree < 2 * self.f {
            None
        } else {
            Some(1.0 / (in_degree as f64 + 1.0 - 2.0 * self.f as f64))
        }
    }

    fn name(&self) -> &'static str {
        "trimmed-mean"
    }
}

/// Plain averaging with **no trimming** — the classical `f = 0` iterative
/// consensus rule. Included as the ablation baseline (experiment E12): under
/// Byzantine inputs it violates validity, demonstrating the trimming in
/// Algorithm 1 is load-bearing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mean;

impl Mean {
    /// Creates the rule.
    pub const fn new() -> Self {
        Mean
    }
}

impl UpdateRule for Mean {
    fn update(&self, own: f64, received: &mut [f64]) -> Result<f64, RuleError> {
        ensure_finite(own, received)?;
        let weight = 1.0 / (received.len() as f64 + 1.0);
        Ok(weight * (own + received.iter().sum::<f64>()))
    }

    fn min_weight(&self, in_degree: usize) -> Option<f64> {
        Some(1.0 / (in_degree as f64 + 1.0))
    }

    fn name(&self) -> &'static str {
        "mean"
    }
}

/// Trim `f` from each end, then take the midpoint of the extremes of the
/// surviving values together with the node's own value — the Dolev et al.
/// style rule. Converges faster per round (`α = 1/2` regardless of degree)
/// but is more sensitive to borderline faulty survivors; included for the
/// convergence-rate comparison in E12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrimmedMidpoint {
    f: usize,
}

impl TrimmedMidpoint {
    /// Creates the rule for fault bound `f`.
    pub const fn new(f: usize) -> Self {
        TrimmedMidpoint { f }
    }
}

impl UpdateRule for TrimmedMidpoint {
    fn update(&self, own: f64, received: &mut [f64]) -> Result<f64, RuleError> {
        let survivors = validated_trimmed_survivors(own, received, self.f)?;
        let lo = survivors.first().copied().unwrap_or(own).min(own);
        let hi = survivors.last().copied().unwrap_or(own).max(own);
        Ok((lo + hi) / 2.0)
    }

    fn min_weight(&self, _in_degree: usize) -> Option<f64> {
        Some(0.5)
    }

    fn name(&self) -> &'static str {
        "trimmed-midpoint"
    }
}

/// Algorithm 1 with a configurable self-weight: the node's own value gets
/// weight `self_weight` and the surviving received values share
/// `1 − self_weight` equally. `self_weight = 1/(survivors+1)` recovers
/// [`TrimmedMean`]. Validity and convergence still hold (all weights are
/// positive and sum to one, so Lemma 3/4 go through with
/// `α = min(self_weight, (1 − self_weight)/survivors)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedTrimmedMean {
    f: usize,
    self_weight: f64,
}

impl WeightedTrimmedMean {
    /// Creates the rule.
    ///
    /// # Errors
    ///
    /// Returns [`RuleError::InvalidParameter`] unless `0 < self_weight < 1`.
    pub fn new(f: usize, self_weight: f64) -> Result<Self, RuleError> {
        if !(self_weight > 0.0 && self_weight < 1.0) {
            return Err(RuleError::InvalidParameter {
                message: format!("self_weight must be in (0, 1), got {self_weight}"),
            });
        }
        Ok(WeightedTrimmedMean { f, self_weight })
    }
}

impl UpdateRule for WeightedTrimmedMean {
    fn update(&self, own: f64, received: &mut [f64]) -> Result<f64, RuleError> {
        let survivors = validated_trimmed_survivors(own, received, self.f)?;
        if survivors.is_empty() {
            return Ok(own);
        }
        let share = (1.0 - self.self_weight) / survivors.len() as f64;
        Ok(self.self_weight * own + share * survivors.iter().sum::<f64>())
    }

    fn min_weight(&self, in_degree: usize) -> Option<f64> {
        if in_degree < 2 * self.f {
            return None;
        }
        let survivors = in_degree - 2 * self.f;
        if survivors == 0 {
            return Some(1.0);
        }
        Some(
            self.self_weight
                .min((1.0 - self.self_weight) / survivors as f64),
        )
    }

    fn name(&self) -> &'static str {
        "weighted-trimmed-mean"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_extremes_skips_faulty_and_handles_empty() {
        use iabc_graph::NodeSet;
        let faults = NodeSet::from_indices(4, [1, 3]);
        let (lo, hi) = honest_extremes(&[2.0, -1e9, 7.0, 1e9], &faults);
        assert_eq!((lo, hi), (2.0, 7.0));
        // No fault-free entries: the neutral fold identities come back.
        let all = NodeSet::full(2);
        assert_eq!(
            honest_extremes(&[1.0, 2.0], &all),
            (f64::INFINITY, f64::NEG_INFINITY)
        );
    }

    #[test]
    #[should_panic(expected = "is not finite")]
    fn honest_extremes_rejects_non_finite_honest_state() {
        use iabc_graph::NodeSet;
        honest_extremes(&[f64::NAN], &NodeSet::with_universe(1));
    }

    #[test]
    fn sanitize_clamps_non_finite() {
        assert_eq!(sanitize(f64::INFINITY), SANITIZE_CLAMP);
        assert_eq!(sanitize(f64::NEG_INFINITY), -SANITIZE_CLAMP);
        assert_eq!(sanitize(f64::NAN), SANITIZE_CLAMP);
        assert_eq!(sanitize(3.5), 3.5);
    }

    #[test]
    fn sort_total_matches_total_cmp_on_every_value_class() {
        // NaNs (both signs, quiet/signaling payloads), infinities, zeros,
        // subnormals, ordinary values: the keyed integer sort must land on
        // exactly the permutation `sort_unstable_by(f64::total_cmp)` picks.
        let tricky = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001), // signaling NaN
            f64::from_bits(0xFFF8_0000_0000_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),                      // smallest subnormal
            -f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest -subnormal
            1.0,
            -1.0,
            f64::MAX,
            f64::MIN,
            3.5,
            -2.25,
        ];
        let mut keyed = tricky.to_vec();
        let mut reference = tricky.to_vec();
        sort_total(&mut keyed);
        reference.sort_unstable_by(f64::total_cmp);
        let keyed_bits: Vec<u64> = keyed.iter().map(|v| v.to_bits()).collect();
        let reference_bits: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
        assert_eq!(keyed_bits, reference_bits);
    }

    #[test]
    fn trim_kernel_is_bitwise_equal_to_the_inlined_formula() {
        let inputs = [4.0, -2.0, 0.5, 3.0, 9.0, -7.25, 1e-300, 2.0];
        let own = 1.5;
        for f in 0..=4usize {
            let mut a = inputs.to_vec();
            let fast = trim_kernel(own, &mut a, f);
            let mut b = inputs.to_vec();
            b.sort_unstable_by(f64::total_cmp);
            let survivors = &b[f..b.len() - f];
            let weight = 1.0 / (survivors.len() as f64 + 1.0);
            let slow = weight * (own + survivors.iter().sum::<f64>());
            assert_eq!(fast.to_bits(), slow.to_bits(), "f = {f}");
        }
    }

    #[test]
    fn average_with_own_handles_empty_survivors() {
        assert_eq!(average_with_own(3.25, &[]), 3.25);
        assert!((average_with_own(1.0, &[2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn trimmed_mean_matches_paper_formula() {
        // |N⁻| = 5, f = 1: a_i = 1/(5 + 1 - 2) = 1/4.
        let rule = TrimmedMean::new(1);
        let mut r = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let v = rule.update(10.0, &mut r).unwrap();
        // Survivors {2,3,4}; (10 + 2 + 3 + 4) / 4 = 4.75.
        assert!((v - 4.75).abs() < 1e-12);
    }

    #[test]
    fn trimmed_mean_with_f_zero_is_plain_mean() {
        let trimmed = TrimmedMean::new(0);
        let mean = Mean::new();
        let mut a = vec![3.0, -1.0, 7.5];
        let mut b = a.clone();
        assert_eq!(
            trimmed.update(2.0, &mut a).unwrap(),
            mean.update(2.0, &mut b).unwrap()
        );
    }

    #[test]
    fn trimmed_mean_discards_byzantine_extremes() {
        let rule = TrimmedMean::new(1);
        // A faulty node reports 1e9; trimming must bound the result by the
        // honest values.
        let mut r = vec![1.0, 2.0, 1e9];
        let v = rule.update(1.5, &mut r).unwrap();
        assert!((1.0..=2.0).contains(&v), "output {v} escaped honest hull");
    }

    #[test]
    fn trimmed_mean_survivor_count_zero_keeps_own_value() {
        // |N⁻| = 2f: survivors empty, weight 1 on own value.
        let rule = TrimmedMean::new(1);
        let mut r = vec![-5.0, 99.0];
        assert_eq!(rule.update(3.25, &mut r).unwrap(), 3.25);
    }

    #[test]
    fn trimmed_mean_insufficient_values() {
        let rule = TrimmedMean::new(2);
        let mut r = vec![1.0, 2.0, 3.0];
        assert_eq!(
            rule.update(0.0, &mut r),
            Err(RuleError::InsufficientValues { needed: 4, got: 3 })
        );
    }

    #[test]
    fn rules_reject_non_finite_inputs() {
        let rule = TrimmedMean::new(0);
        let mut r = vec![1.0, f64::NAN];
        assert!(matches!(
            rule.update(0.0, &mut r),
            Err(RuleError::NonFiniteInput { .. })
        ));
        let mut r = vec![1.0];
        assert!(matches!(
            rule.update(f64::INFINITY, &mut r),
            Err(RuleError::NonFiniteInput { .. })
        ));
        let mut r = vec![f64::NEG_INFINITY];
        assert!(matches!(
            Mean::new().update(0.0, &mut r),
            Err(RuleError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn min_weight_matches_a_i() {
        let rule = TrimmedMean::new(2);
        // a_i = 1/(|N⁻| + 1 - 2f) = 1/(7 + 1 - 4) = 0.25.
        assert_eq!(rule.min_weight(7), Some(0.25));
        assert_eq!(rule.min_weight(4), Some(1.0));
        assert_eq!(rule.min_weight(3), None);
        assert_eq!(Mean::new().min_weight(4), Some(0.2));
    }

    #[test]
    fn midpoint_halves_the_range() {
        let rule = TrimmedMidpoint::new(1);
        let mut r = vec![0.0, 4.0, 100.0, -100.0];
        // Survivors {0, 4}; own 2 is inside; midpoint (0 + 4)/2 = 2.
        assert_eq!(rule.update(2.0, &mut r).unwrap(), 2.0);
        // Own value outside the survivor range extends it.
        let mut r = vec![0.0, 4.0, 100.0, -100.0];
        assert_eq!(rule.update(10.0, &mut r).unwrap(), 5.0);
        assert_eq!(rule.min_weight(10), Some(0.5));
    }

    #[test]
    fn midpoint_with_no_survivors_keeps_own() {
        let rule = TrimmedMidpoint::new(1);
        let mut r = vec![-1.0, 1.0];
        assert_eq!(rule.update(0.5, &mut r).unwrap(), 0.5);
    }

    #[test]
    fn weighted_rule_validates_parameters() {
        assert!(WeightedTrimmedMean::new(1, 0.0).is_err());
        assert!(WeightedTrimmedMean::new(1, 1.0).is_err());
        assert!(WeightedTrimmedMean::new(1, -0.5).is_err());
        assert!(WeightedTrimmedMean::new(1, f64::NAN).is_err());
        assert!(WeightedTrimmedMean::new(1, 0.5).is_ok());
    }

    #[test]
    fn weighted_rule_weights_sum_to_one() {
        let rule = WeightedTrimmedMean::new(1, 0.5).unwrap();
        let mut r = vec![0.0, 2.0, 4.0, -50.0, 50.0];
        // Survivors {0, 2, 4}: 0.5*own + (0.5/3)*(0+2+4) = 0.5*6 + 1 = 4.
        let v = rule.update(6.0, &mut r).unwrap();
        assert!((v - 4.0).abs() < 1e-12);
        // min weight: min(0.5, 0.5/3).
        let w = rule.min_weight(5).unwrap();
        assert!((w - 0.5 / 3.0).abs() < 1e-12);
        assert_eq!(rule.min_weight(2), Some(1.0));
    }

    #[test]
    fn all_rules_are_convex_combinations_of_inputs() {
        // Output must lie within [min, max] of (own ∪ received) for every rule.
        let rules: Vec<Box<dyn UpdateRule>> = vec![
            Box::new(TrimmedMean::new(1)),
            Box::new(Mean::new()),
            Box::new(TrimmedMidpoint::new(1)),
            Box::new(WeightedTrimmedMean::new(1, 0.3).unwrap()),
        ];
        let own = 1.5;
        let inputs = [4.0, -2.0, 0.5, 3.0, 9.0];
        for rule in &rules {
            let mut r = inputs.to_vec();
            let v = rule.update(own, &mut r).unwrap();
            assert!((-2.0..=9.0).contains(&v), "{} output {v}", rule.name());
        }
    }

    #[test]
    fn rule_names_are_stable() {
        assert_eq!(TrimmedMean::new(1).name(), "trimmed-mean");
        assert_eq!(Mean::new().name(), "mean");
        assert_eq!(TrimmedMidpoint::new(1).name(), "trimmed-midpoint");
        assert_eq!(
            WeightedTrimmedMean::new(1, 0.4).unwrap().name(),
            "weighted-trimmed-mean"
        );
    }
}
