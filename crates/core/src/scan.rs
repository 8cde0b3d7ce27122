//! The one scan behind every exact condition checker.
//!
//! [`crate::theorem1`], [`crate::local_fault`] and [`crate::fault_model`]
//! each reduce their condition to one question per fault set `F`: does
//! `W = V − F` hold two disjoint non-empty **insular** sets? A set `L ⊆ W`
//! is insular when every node of `L` is *quiet*: its in-edges from `W − L`
//! cannot force its value. The checkers differ only in which fault sets
//! they visit and in the quiet predicate ([`Quiet`]): fewer than `f + 1`
//! (synchronous) or `2f + 1` (asynchronous) in-edges from `W − L`, or an
//! in-edge slice the fault model can cover. This module answers the
//! question for all of them without allocating per candidate set, and
//! walks [`crate::robustness`]'s disjoint set pairs over the same words
//! ([`robust`]).
//!
//! # Word layout
//!
//! A node set is a run of `words` machine words with node `v` at bit
//! `v % 64` of word `v / 64`, the layout of [`NodeSet`]. [`Rows`] packs the
//! graph's in-neighbour sets once per check, back to back: row `v` is
//! `bits[v * words..(v + 1) * words]`. Insular sets found so far sit in one
//! flat `Vec<u64>` with the same stride, and fault sets handed to a pool
//! are one flat `Vec<u64>` too. Insularity of `L` is then, per member `v`,
//! one AND of row `v` with `W & !L` and one popcount.
//!
//! The word count is a type parameter ([`Width`]). [`Narrow`] is the
//! constant one `u64`, for graphs of up to 64 nodes, so every mask loop
//! below compiles to a single word operation; [`Wide`] carries a word slice
//! length for larger graphs. Both run the same code.
//!
//! # Order
//!
//! Candidates `L ⊆ W` are visited by size, then lexicographically by node
//! id — the order of [`iabc_graph::for_each_subset_sized`]. The first
//! insular `L` disjoint from an earlier insular set `R` ends the scan, with
//! `R` (the first such in discovery order) as the witness's left side and
//! `L` as its right. Witnesses are therefore minimal in size, and the same
//! at every width. Costs are measured in [`crate::theorem1`]'s module docs.
//!
//! # Twins
//!
//! Two nodes are *twins* when swapping them is an automorphism of the
//! graph (and maps every set the quiet predicate reads, [`Quiet::fixed`],
//! to itself). Twins form classes, and any permutation inside a class is an
//! automorphism, which maps a violating partition to a violating partition.
//! Every checker visits its fault sets by size, then lexicographically, so
//! moving a member of `F` to a lower-indexed twin outside `F` gives a
//! violating set that comes earlier. The first violating fault set is
//! therefore *canonical*: within each class it holds that class's
//! lowest-indexed members. [`search`] and [`search_parallel`] scan only
//! canonical fault sets ([`Twins`]), and return the witness an unreduced
//! scan would. `core_network(13, 3)` needs 4 of its 286 fault sets scanned.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use iabc_graph::{Digraph, NodeId, NodeSet};

use crate::witness::{ConditionReport, Witness};

const WORD_BITS: usize = 64;

/// Words per node mask.
pub(crate) trait Width: Copy + Send + Sync {
    /// The stride of every mask of this width.
    fn words(self) -> usize;
}

/// One `u64`: graphs of up to 64 nodes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Narrow;

impl Width for Narrow {
    fn words(self) -> usize {
        1
    }
}

/// A slice of `u64`s: graphs above 64 nodes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wide(usize);

impl Width for Wide {
    fn words(self) -> usize {
        self.0
    }
}

/// Words per mask over `n` nodes (at least one).
fn words_for(n: usize) -> usize {
    n.div_ceil(WORD_BITS).max(1)
}

/// Runs `$body` with `$w` bound to the width for `$n` nodes.
macro_rules! with_width {
    ($n:expr, $w:ident => $body:expr) => {
        if $n <= WORD_BITS {
            let $w = Narrow;
            $body
        } else {
            let $w = Wide(words_for($n));
            $body
        }
    };
}

fn set_bit(mask: &mut [u64], v: usize) {
    mask[v / WORD_BITS] |= 1 << (v % WORD_BITS);
}

fn clear_bit(mask: &mut [u64], v: usize) {
    mask[v / WORD_BITS] &= !(1 << (v % WORD_BITS));
}

pub(crate) fn has_bit(mask: &[u64], v: usize) -> bool {
    mask[v / WORD_BITS] & (1 << (v % WORD_BITS)) != 0
}

/// `|a ∩ b|`.
pub(crate) fn count_and(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// `|a ∩ b ∩ c|`.
pub(crate) fn count_and3(a: &[u64], b: &[u64], c: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .zip(c)
        .map(|((x, y), z)| (x & y & z).count_ones() as usize)
        .sum()
}

/// `a ∩ b = ∅`.
fn disjoint(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & y == 0)
}

/// Writes `a − b` into `out`.
fn and_not_into(out: &mut [u64], a: &[u64], b: &[u64]) {
    for (o, (x, y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = x & !y;
    }
}

/// Packs `set` into `out` (cleared first).
fn pack(set: &NodeSet, out: &mut [u64]) {
    out.fill(0);
    for v in set {
        set_bit(out, v.index());
    }
}

/// Packs `sets` back to back, `words_for(n)` words each.
pub(crate) fn pack_all(n: usize, sets: &[NodeSet]) -> Vec<u64> {
    let words = words_for(n);
    let mut out = vec![0; sets.len() * words];
    for (set, mask) in sets.iter().zip(out.chunks_exact_mut(words)) {
        pack(set, mask);
    }
    out
}

fn unpack(mask: &[u64], n: usize) -> NodeSet {
    NodeSet::from_indices(n, (0..n).filter(|&v| has_bit(mask, v)))
}

/// The graph's in-neighbour rows, packed once per check.
#[derive(Debug)]
pub(crate) struct Rows<W: Width> {
    width: W,
    n: usize,
    bits: Vec<u64>,
}

impl<W: Width> Rows<W> {
    fn new(g: &Digraph, width: W) -> Self {
        let n = g.node_count();
        let words = width.words();
        let mut bits = vec![0; n * words];
        for (v, row) in bits.chunks_exact_mut(words).enumerate() {
            pack(g.in_neighbors(NodeId::new(v)), row);
        }
        Rows { width, n, bits }
    }

    /// Number of nodes.
    pub(crate) fn nodes(&self) -> usize {
        self.n
    }

    /// Words per mask.
    pub(crate) fn words(&self) -> usize {
        self.width.words()
    }

    /// `N⁻(v)` as a mask.
    pub(crate) fn row(&self, v: usize) -> &[u64] {
        let words = self.words();
        &self.bits[v * words..v * words + words]
    }

    /// The full set `V` as a mask.
    fn full(&self) -> Vec<u64> {
        let mut full = vec![0; self.words()];
        (0..self.n).for_each(|v| set_bit(&mut full, v));
        full
    }
}

/// When a member `v` of a candidate set `L` is quiet: its in-edges from
/// `outside = W − L` cannot force its value. `L` is insular when all its
/// members are quiet.
pub(crate) trait Quiet {
    /// Whether `v` is quiet given the nodes `outside` its set.
    fn quiet<W: Width>(&self, rows: &Rows<W>, v: usize, outside: &[u64]) -> bool;

    /// The node sets, packed back to back, that the predicate reads besides
    /// the graph. A twin swap must map each of them to itself.
    fn fixed(&self) -> &[u64] {
        &[]
    }
}

/// Quiet below a `⇒` threshold: fewer than `self.0` in-edges from outside.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Below(pub(crate) usize);

impl Quiet for Below {
    fn quiet<W: Width>(&self, rows: &Rows<W>, v: usize, outside: &[u64]) -> bool {
        count_and(rows.row(v), outside) < self.0
    }
}

/// The outcome of a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Scan {
    /// No fault set holds two disjoint insular sets.
    Clear,
    /// The first violating partition found.
    Violated(Witness),
    /// The candidate budget ran out before the scan finished.
    Exhausted,
}

impl Scan {
    /// The report of an unbounded scan.
    pub(crate) fn report(self) -> ConditionReport {
        match self {
            Scan::Clear => ConditionReport::Satisfied,
            Scan::Violated(w) => ConditionReport::Violated(w),
            Scan::Exhausted => unreachable!("an unbounded scan cannot exhaust its budget"),
        }
    }
}

/// Counts candidate sets against a limit, across fault sets.
#[derive(Debug)]
struct Budget {
    limit: u64,
    visited: u64,
}

impl Budget {
    /// A budget of `limit` candidates; `None` never runs out.
    fn new(limit: Option<u64>) -> Self {
        Budget {
            limit: limit.unwrap_or(u64::MAX),
            visited: 0,
        }
    }

    /// Counts one candidate; `false` once the limit is passed.
    fn tick(&mut self) -> bool {
        self.visited += 1;
        self.visited <= self.limit
    }
}

/// The graph's twin classes, as each node's next-lower twin.
///
/// `u ~ v` iff their in-rows and out-rows agree outside `{u, v}`,
/// `u → v ⇔ v → u`, and every [`Quiet::fixed`] set holds both or neither.
/// Non-adjacent twins share the key `(in-row, out-row)`, and mutually
/// adjacent twins the key `(in-row ∪ {v}, out-row ∪ {v})`, so one pass over
/// the rows groups them. No node has twins of both kinds: the two swaps
/// would compose into one that maps an adjacent pair onto a non-adjacent
/// one.
#[derive(Debug)]
struct Twins {
    /// The next-lower member of each node's class, or the node itself.
    prev: Vec<usize>,
}

impl Twins {
    fn new<W: Width>(g: &Digraph, rows: &Rows<W>, fixed: &[u64]) -> Self {
        let (n, words) = (rows.nodes(), rows.words());
        // A key is in-row ‖ out-row ‖ membership bits, one per fixed set.
        let stride = 2 * words + words_for(fixed.len() / words);
        let mut keys = vec![0; 2 * n * stride];
        for (v, pair) in keys.chunks_exact_mut(2 * stride).enumerate() {
            let (open, closed) = pair.split_at_mut(stride);
            open[..words].copy_from_slice(rows.row(v));
            pack(g.out_neighbors(NodeId::new(v)), &mut open[words..2 * words]);
            for (i, set) in fixed.chunks_exact(words).enumerate() {
                if has_bit(set, v) {
                    set_bit(&mut open[2 * words..], i);
                }
            }
            closed.copy_from_slice(open);
            set_bit(&mut closed[..words], v);
            set_bit(&mut closed[words..2 * words], v);
        }
        let mut last: [HashMap<&[u64], usize>; 2] = Default::default();
        let mut prev: Vec<usize> = (0..n).collect();
        for (v, pair) in keys.chunks_exact(2 * stride).enumerate() {
            for (last, key) in last.iter_mut().zip(pair.chunks_exact(stride)) {
                if let Some(u) = last.insert(key, v) {
                    prev[v] = u;
                }
            }
        }
        Twins { prev }
    }

    /// Whether `fault` holds each class's lowest members: every member's
    /// next-lower twin is a member too.
    fn canonical(&self, fault: &[u64]) -> bool {
        (0..self.prev.len()).all(|v| !has_bit(fault, v) || has_bit(fault, self.prev[v]))
    }
}

/// Visits every `k`-subset of `pool` (ascending node ids) in lexicographic
/// order. `visit` gets the chosen positions in `pool` and the subset as a
/// mask in `set`; returning `false` stops the walk, leaving `set` on the
/// subset that stopped it. Returns `false` iff stopped.
pub(crate) fn for_each_combination<F>(
    pool: &[usize],
    k: usize,
    idx: &mut Vec<usize>,
    set: &mut [u64],
    mut visit: F,
) -> bool
where
    F: FnMut(&[usize], &[u64]) -> bool,
{
    let m = pool.len();
    if k > m {
        return true;
    }
    set.fill(0);
    idx.clear();
    idx.extend(0..k);
    for &i in idx.iter() {
        set_bit(set, pool[i]);
    }
    loop {
        if !visit(idx, set) {
            return false;
        }
        // Advance the rightmost position that can still move.
        let Some(i) = (0..k).rev().find(|&i| idx[i] != i + m - k) else {
            return true;
        };
        for &j in &idx[i..] {
            clear_bit(set, pool[j]);
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
        for &j in &idx[i..] {
            set_bit(set, pool[j]);
        }
    }
}

/// Scratch for scanning one fault set at a time, reused across fault sets.
#[derive(Debug, Default)]
struct Scanner {
    /// `W`'s members, ascending.
    pool: Vec<usize>,
    /// Positions in `pool` of the current candidate.
    idx: Vec<usize>,
    // `W`, the current candidate `L` and `W − L`.
    w: Vec<u64>,
    l: Vec<u64>,
    outside: Vec<u64>,
    /// Insular sets found so far for this fault set, in discovery order.
    insular: Vec<u64>,
}

impl Scanner {
    /// Scans `W = V − fault` for two disjoint insular sets.
    fn scan<W: Width, Q: Quiet>(
        &mut self,
        rows: &Rows<W>,
        fault: &[u64],
        quiet: &Q,
        budget: &mut Budget,
    ) -> Scan {
        let words = rows.words();
        let n = rows.nodes();
        let Scanner {
            pool,
            idx,
            w,
            l,
            outside,
            insular,
        } = self;
        pool.clear();
        pool.extend((0..n).filter(|&v| !has_bit(fault, v)));
        let m = pool.len();
        if m < 2 {
            return Scan::Clear;
        }
        w.clear();
        w.resize(words, 0);
        pool.iter().for_each(|&v| set_bit(w, v));
        l.resize(words, 0);
        outside.resize(words, 0);
        insular.clear();
        let (w, l, outside) = (&w[..words], &mut l[..words], &mut outside[..words]);

        let mut exhausted = false;
        let mut left = None;
        // Size at most m − 1: the other side must be non-empty.
        for k in 1..m {
            let done = !for_each_combination(pool, k, idx, l, |members, l| {
                if !budget.tick() {
                    exhausted = true;
                    return false;
                }
                and_not_into(outside, w, l);
                if !members.iter().all(|&i| quiet.quiet(rows, pool[i], outside)) {
                    return true;
                }
                if let Some(r) = insular.chunks_exact(words).position(|r| disjoint(r, l)) {
                    left = Some(r);
                    return false;
                }
                insular.extend_from_slice(l);
                true
            });
            if done {
                break;
            }
        }
        if exhausted {
            return Scan::Exhausted;
        }
        let Some(r) = left else {
            return Scan::Clear;
        };
        let r = &insular[r * words..(r + 1) * words];
        and_not_into(outside, w, l);
        let center: Vec<u64> = outside.iter().zip(r).map(|(o, r)| o & !r).collect();
        Scan::Violated(Witness {
            fault_set: unpack(fault, n),
            left: unpack(r, n),
            center: unpack(&center, n),
            right: unpack(l, n),
        })
    }
}

/// Scans the canonical fault sets among those `fault_sets` hands to its
/// visitor, in order, and returns the first violation. The visitor must
/// hand over fault sets by size, then lexicographically, and every twin
/// image of a set it hands over (see the module docs). `budget` caps the
/// candidate sets visited over all fault sets together; a budgeted search
/// scans every fault set, so that it counts exactly the candidates of the
/// unreduced scan.
pub(crate) fn search<Q, S>(g: &Digraph, quiet: &Q, budget: Option<u64>, fault_sets: S) -> Scan
where
    Q: Quiet,
    S: FnOnce(&mut dyn FnMut(&NodeSet) -> bool),
{
    with_width!(g.node_count(), width => {
        let rows = Rows::new(g, width);
        let mut scanner = Scanner::default();
        let mut fault = vec![0; width.words()];
        let reduce = budget.is_none();
        let mut budget = Budget::new(budget);
        let mut twins = None;
        let mut first = true;
        let mut outcome = Scan::Clear;
        fault_sets(&mut |set: &NodeSet| {
            pack(set, &mut fault);
            // The first set is canonical, since a twin move would come
            // earlier; classes are found only when a second set needs them.
            if reduce && !std::mem::take(&mut first) {
                let twins = twins.get_or_insert_with(|| Twins::new(g, &rows, quiet.fixed()));
                if !twins.canonical(&fault) {
                    return true;
                }
            }
            outcome = scanner.scan(&rows, &fault, quiet, &mut budget);
            outcome == Scan::Clear
        });
        outcome
    })
}

/// [`search`] over every canonical `k`-subset of `V` as fault set, one
/// fault set per work item on a pool of `threads` workers; a hit cancels
/// the remaining items. Which witness is returned when several exist
/// depends on the schedule.
pub(crate) fn search_parallel<Q: Quiet + Sync>(
    g: &Digraph,
    quiet: &Q,
    k: usize,
    threads: usize,
) -> Option<Witness> {
    let n = g.node_count();
    with_width!(n, width => {
        let rows = Rows::new(g, width);
        let words = width.words();
        let twins = Twins::new(g, &rows, quiet.fixed());
        let everyone: Vec<usize> = (0..n).collect();
        let mut faults = Vec::new();
        for_each_combination(&everyone, k, &mut Vec::new(), &mut vec![0; words], |_, f| {
            if twins.canonical(f) {
                faults.extend_from_slice(f);
            }
            true
        });
        let count = faults.len() / words;

        let exec = iabc_exec::Executor::new(threads.max(1).min(count.max(1)));
        let scratch = iabc_exec::ScratchPool::new();
        let found = AtomicBool::new(false);
        let witness: Mutex<Option<Witness>> = Mutex::new(None);
        // Fault sets vary wildly in scan cost, so chunks hold exactly one:
        // each work item is one fault set, stolen off the shared queue. The
        // found flag cancels the dispatch, dropping the remaining queue.
        let mut slots = vec![(); count];
        exec.for_each_until(&mut slots, iabc_exec::Chunking::Exact(1), &found, |i, ()| {
            let mut scanner = scratch.take(Scanner::default);
            let mut budget = Budget::new(None);
            let fault = &faults[i * words..(i + 1) * words];
            if let Scan::Violated(w) = scanner.scan(&rows, fault, quiet, &mut budget) {
                *witness.lock().expect("witness mutex poisoned") = Some(w);
                found.store(true, Ordering::Relaxed);
            }
        });
        witness.into_inner().expect("witness mutex poisoned")
    })
}

/// Decides (r, s)-robustness (see [`crate::robustness`]) over packed rows:
/// every pair of disjoint non-empty `S₁, S₂` must have `S₁ ⊆ X_r(S₁)`,
/// `S₂ ⊆ X_r(S₂)` or `|X_r(S₁)| + |X_r(S₂)| ≥ s`. Each unordered pair is
/// visited once, with `S₁` holding the smaller least node.
pub(crate) fn robust(g: &Digraph, r: usize, s: usize) -> bool {
    let n = g.node_count();
    with_width!(n, width => {
        let rows = Rows::new(g, width);
        let words = width.words();
        let full = rows.full();
        let everyone: Vec<usize> = (0..n).collect();
        let (mut idx1, mut idx2) = (Vec::new(), Vec::new());
        let (mut mask1, mut mask2) = (vec![0; words], vec![0; words]);
        let mut outside = vec![0; words];
        let mut later = Vec::new();
        // |X_r(S)| for the set `set` with members `members`.
        let x_r = |pool: &[usize], members: &[usize], set: &[u64], outside: &mut [u64]| {
            and_not_into(outside, &full, set);
            members
                .iter()
                .filter(|&&i| count_and(rows.row(pool[i]), outside) >= r)
                .count()
        };
        (1..n).all(|k1| {
            for_each_combination(&everyone, k1, &mut idx1, &mut mask1, |m1, s1| {
                let x1 = x_r(&everyone, m1, s1, &mut outside);
                if x1 == k1 || x1 >= s {
                    return true; // every S₂ passes
                }
                later.clear();
                later.extend((everyone[m1[0]] + 1..n).filter(|&v| !has_bit(s1, v)));
                (1..=later.len()).all(|k2| {
                    for_each_combination(&later, k2, &mut idx2, &mut mask2, |m2, s2| {
                        let x2 = x_r(&later, m2, s2, &mut outside);
                        x2 == k2 || x1 + x2 >= s
                    })
                })
            })
        })
    })
}

/// The allocating scan the kernel replaced, kept as the reference it must
/// match witness for witness.
#[cfg(test)]
mod oracle {
    use iabc_graph::{for_each_subset_of_size, for_each_subset_sized, Digraph, NodeSet};

    use crate::fault_model::{self, FaultModel};
    use crate::robustness::reachable_count;
    use crate::theorem1::{self, CheckOptions};
    use crate::{corollaries, local_fault, CheckerError, ConditionReport, Threshold, Witness};

    /// Scans `W = V − fault` for two disjoint sets passing `insular`, one
    /// `NodeSet` per candidate. `Err(())` once `visited` passes `budget`.
    fn scan_fault_set(
        fault: &NodeSet,
        insular: &dyn Fn(&NodeSet, &NodeSet) -> bool,
        budget: Option<u64>,
        visited: &mut u64,
    ) -> Result<Option<Witness>, ()> {
        let w = fault.complement();
        let w_len = w.len();
        if w_len < 2 {
            return Ok(None);
        }
        let mut insular_sets: Vec<NodeSet> = Vec::new();
        let mut hit = None;
        let mut exhausted = false;
        for_each_subset_sized(&w, 1, w_len - 1, |l| {
            *visited += 1;
            if budget.is_some_and(|b| *visited > b) {
                exhausted = true;
                return false;
            }
            if !insular(&w, l) {
                return true;
            }
            if let Some(r) = insular_sets.iter().find(|prev| prev.is_disjoint(l)) {
                hit = Some(Witness {
                    fault_set: fault.clone(),
                    left: r.clone(),
                    center: w.difference(l).difference(r),
                    right: l.clone(),
                });
                return false;
            }
            insular_sets.push(l.clone());
            true
        });
        if exhausted {
            Err(())
        } else {
            Ok(hit)
        }
    }

    /// Scans each fault set `fault_sets` visits until one holds a violation.
    fn first_violation(
        fault_sets: impl FnOnce(&mut dyn FnMut(&NodeSet) -> bool),
        insular: &dyn Fn(&NodeSet, &NodeSet) -> bool,
        budget: Option<u64>,
    ) -> Result<ConditionReport, ()> {
        let mut visited = 0;
        let mut out = Ok(ConditionReport::Satisfied);
        fault_sets(&mut |fault: &NodeSet| {
            match scan_fault_set(fault, insular, budget, &mut visited) {
                Ok(None) => return true,
                Ok(Some(w)) => out = Ok(ConditionReport::Violated(w)),
                Err(()) => out = Err(()),
            }
            false
        });
        out
    }

    pub fn check_with(
        g: &Digraph,
        f: usize,
        threshold: Threshold,
        options: &CheckOptions,
    ) -> Result<ConditionReport, CheckerError> {
        let n = g.node_count();
        if n <= 1 {
            return Ok(ConditionReport::Satisfied);
        }
        if !options.skip_fast_paths {
            if let Some(w) = corollaries::quick_violation(g, f, threshold) {
                return Ok(ConditionReport::Violated(w));
            }
            if f == 0 && threshold.get() == 1 {
                return Ok(theorem1::check_f_zero(g));
            }
        }
        let full = NodeSet::full(n);
        first_violation(
            |visit| {
                for_each_subset_of_size(&full, f.min(n - 2), visit);
            },
            &|w, l| theorem1::is_insular(g, w, l, threshold),
            options.budget,
        )
        .map_err(|()| CheckerError::BudgetExhausted {
            budget: options.budget.unwrap_or(0),
        })
    }

    pub fn check_local(g: &Digraph, f: usize) -> ConditionReport {
        let n = g.node_count();
        if n <= 1 {
            return ConditionReport::Satisfied;
        }
        let full = NodeSet::full(n);
        let threshold = Threshold::synchronous(f);
        first_violation(
            |visit| {
                for_each_subset_sized(&full, 0, n - 2, |fault| {
                    !local_fault::is_f_local(g, fault, f) || visit(fault)
                });
            },
            &|w, l| theorem1::is_insular(g, w, l, threshold),
            None,
        )
        .expect("unbounded")
    }

    pub fn check_model(g: &Digraph, model: &FaultModel) -> ConditionReport {
        if g.node_count() <= 1 {
            return ConditionReport::Satisfied;
        }
        first_violation(
            |visit| fault_model::for_each_scan_set(g, model, visit),
            &|w, l| fault_model::is_insular_model(g, w, l, model),
            None,
        )
        .expect("unbounded")
    }

    pub fn is_robust(g: &Digraph, r: usize, s: usize) -> bool {
        let n = g.node_count();
        if n <= 1 {
            return true;
        }
        for_each_subset_sized(&NodeSet::full(n), 1, n - 1, |s1| {
            let x1 = reachable_count(g, s1, r);
            let all1 = x1 == s1.len();
            let comp = s1.complement();
            for_each_subset_sized(&comp, 1, comp.len(), |s2| {
                if s1.first() > s2.first() || all1 {
                    return true;
                }
                let x2 = reachable_count(g, s2, r);
                x2 == s2.len() || x1 + x2 >= s
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_model::{self, AdversaryStructure, FaultModel};
    use crate::theorem1::{self, CheckOptions};
    use crate::{local_fault, robustness, Threshold};
    use iabc_graph::{for_each_subset_sized, generators};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every checker returns the oracle's report, witness included, on
    /// seeded random digraphs of 2..=9 nodes at four densities.
    #[test]
    fn checkers_return_the_oracle_witness() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut violated = 0;
        for n in 2..=9usize {
            for trial in 0..8 {
                let p = [0.3, 0.5, 0.7, 0.9][trial % 4];
                let g = generators::erdos_renyi(n, p, &mut rng);
                for f in 0..=2usize {
                    for t in [Threshold::synchronous(f), Threshold::asynchronous(f)] {
                        for skip_fast_paths in [false, true] {
                            let opts = CheckOptions {
                                budget: None,
                                skip_fast_paths,
                            };
                            let expect = oracle::check_with(&g, f, t, &opts).unwrap();
                            let got = theorem1::check_with(&g, f, t, &opts).unwrap();
                            assert_eq!(got, expect, "check_with n={n} p={p} f={f} t={t:?} {g:?}");
                            violated += usize::from(!expect.is_satisfied());
                        }
                        let par = theorem1::check_parallel(&g, f, t, 3);
                        let seq = oracle::check_with(&g, f, t, &CheckOptions::default()).unwrap();
                        assert_eq!(
                            par.is_satisfied(),
                            seq.is_satisfied(),
                            "parallel n={n} f={f}"
                        );
                    }
                    assert_eq!(
                        local_fault::check_local(&g, f),
                        oracle::check_local(&g, f),
                        "check_local n={n} p={p} f={f} {g:?}"
                    );
                    let pick = |rng: &mut StdRng| {
                        NodeSet::from_indices(n, (0..n).filter(|_| rng.random_bool(0.3)).take(2))
                    };
                    let rack = AdversaryStructure::new(n, vec![pick(&mut rng), pick(&mut rng)])
                        .expect("same universe");
                    for model in [
                        FaultModel::Total(f),
                        FaultModel::Local(f),
                        FaultModel::Structure(rack),
                    ] {
                        assert_eq!(
                            fault_model::check_model(&g, &model),
                            oracle::check_model(&g, &model),
                            "check_model {model} n={n} p={p} {g:?}"
                        );
                    }
                }
            }
        }
        assert!(
            violated > 100,
            "the sweep must produce violations: {violated}"
        );
    }

    /// Budgeted checks exhaust at the same candidate count and otherwise
    /// return the same witness.
    #[test]
    fn budgets_run_out_where_the_oracle_runs_out() {
        let mut rng = StdRng::seed_from_u64(16);
        let opts = |budget| CheckOptions {
            budget: Some(budget),
            skip_fast_paths: true,
        };
        for n in [5usize, 7] {
            let g = generators::erdos_renyi(n, 0.6, &mut rng);
            for budget in [0, 1, 7, 40, 300] {
                let t = Threshold::synchronous(1);
                assert_eq!(
                    theorem1::check_with(&g, 1, t, &opts(budget)),
                    oracle::check_with(&g, 1, t, &opts(budget)),
                    "n={n} budget={budget}"
                );
            }
        }
    }

    /// A budget counts every fault set's candidates, twins or not.
    #[test]
    fn budgets_ignore_twins() {
        let opts = |budget| CheckOptions {
            budget: Some(budget),
            skip_fast_paths: true,
        };
        for (g, f) in [
            (generators::core_network(7, 2), 2),
            (generators::complete(6), 2),
        ] {
            let t = Threshold::synchronous(f);
            for budget in [10, 100, 1_000, 3_000] {
                assert_eq!(
                    theorem1::check_with(&g, f, t, &opts(budget)),
                    oracle::check_with(&g, f, t, &opts(budget)),
                    "{g} budget={budget}"
                );
            }
        }
    }

    /// Past one word, sparse graphs reach a witness within a few hundred
    /// candidates, so every checker can be held to the oracle there too.
    #[test]
    fn wide_checkers_return_the_oracle_witness() {
        let mut rng = StdRng::seed_from_u64(18);
        for n in [65usize, 70, 130] {
            let g = generators::erdos_renyi(n, 3.0 / n as f64, &mut rng);
            for f in 0..=1usize {
                let opts = CheckOptions {
                    budget: None,
                    skip_fast_paths: true,
                };
                let t = Threshold::synchronous(f);
                let expect = oracle::check_with(&g, f, t, &opts).unwrap();
                assert!(!expect.is_satisfied(), "n={n} f={f}");
                assert_eq!(theorem1::check_with(&g, f, t, &opts).unwrap(), expect);
                assert!(!theorem1::check_parallel(&g, f, t, 2).is_satisfied());
                assert_eq!(local_fault::check_local(&g, f), oracle::check_local(&g, f));
                let rack = AdversaryStructure::new(n, vec![NodeSet::from_indices(n, [1, n - 1])])
                    .expect("same universe");
                for model in [
                    FaultModel::Total(f),
                    FaultModel::Local(f),
                    FaultModel::Structure(rack),
                ] {
                    assert_eq!(
                        fault_model::check_model(&g, &model),
                        oracle::check_model(&g, &model),
                        "{model} n={n}"
                    );
                }
            }
        }
    }

    /// Asserts that every checker returns the oracle's report on `g` at
    /// `f`, witness included: `check_with` at both thresholds with and
    /// without fast paths, `check_local`, and `check_model` under `Total`,
    /// `Local` and `rack`; `check_parallel` by verdict. Returns the number
    /// of violated reports.
    fn assert_matches_oracle(g: &Digraph, f: usize, rack: &AdversaryStructure) -> usize {
        let mut violated = 0;
        for t in [Threshold::synchronous(f), Threshold::asynchronous(f)] {
            for skip_fast_paths in [false, true] {
                let opts = CheckOptions {
                    budget: None,
                    skip_fast_paths,
                };
                let expect = oracle::check_with(g, f, t, &opts).unwrap();
                let got = theorem1::check_with(g, f, t, &opts).unwrap();
                assert_eq!(got, expect, "check_with f={f} t={t:?} {g:?}");
                violated += usize::from(!expect.is_satisfied());
            }
            let par = theorem1::check_parallel(g, f, t, 2);
            let seq = oracle::check_with(g, f, t, &CheckOptions::default()).unwrap();
            assert_eq!(par.is_satisfied(), seq.is_satisfied(), "parallel f={f}");
        }
        let local = oracle::check_local(g, f);
        assert_eq!(
            local_fault::check_local(g, f),
            local,
            "check_local f={f} {g:?}"
        );
        violated += usize::from(!local.is_satisfied());
        for model in [
            FaultModel::Total(f),
            FaultModel::Local(f),
            FaultModel::Structure(rack.clone()),
        ] {
            let expect = oracle::check_model(g, &model);
            assert_eq!(fault_model::check_model(g, &model), expect, "{model} {g:?}");
            violated += usize::from(!expect.is_satisfied());
        }
        violated
    }

    /// Makes `v` a twin of `u`: `v` copies `u`'s edges to and from every
    /// other node, and the pair is joined both ways or not at all.
    fn plant_twin(g: &Digraph, u: usize, v: usize, adjacent: bool) -> Digraph {
        let n = g.node_count();
        let image = |x: usize| NodeId::new(if x == v { u } else { x });
        let pair = |x: usize| x == u || x == v;
        let edges = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .filter(|&(a, b)| match (a == b, pair(a) && pair(b)) {
                (true, _) => false,
                (false, true) => adjacent,
                (false, false) => g.has_edge(image(a), image(b)),
            });
        Digraph::from_edges(n, edges).unwrap()
    }

    /// `g`'s twin classes under the `fixed` sets, each ascending, ordered by
    /// least member.
    fn classes(g: &Digraph, fixed: &[NodeSet]) -> Vec<Vec<usize>> {
        let n = g.node_count();
        let prev = with_width!(n, width => {
            Twins::new(g, &Rows::new(g, width), &pack_all(n, fixed)).prev
        });
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for (v, &p) in prev.iter().enumerate() {
            match classes.iter_mut().find(|c| c.last() == Some(&p)) {
                Some(class) if p != v => class.push(v),
                _ => classes.push(vec![v]),
            }
        }
        classes
    }

    #[test]
    fn twin_classes_of_core_networks_are_the_core_and_the_periphery() {
        let g = generators::core_network(13, 3);
        assert_eq!(
            classes(&g, &[]),
            [(0..7).collect::<Vec<_>>(), (7..13).collect()]
        );
        assert_eq!(
            classes(&generators::core_network(4, 1), &[]),
            [vec![0, 1, 2, 3]]
        );
        // A fixed set splits the classes it cuts.
        let rack = NodeSet::from_indices(13, [1, 8]);
        assert_eq!(
            classes(&g, &[rack]),
            [
                vec![0, 2, 3, 4, 5, 6],
                vec![1],
                vec![7, 9, 10, 11, 12],
                vec![8]
            ]
        );
        // A twin-free graph has singleton classes only.
        assert_eq!(classes(&generators::path(5), &[]).len(), 5);
    }

    #[test]
    fn planted_twins_are_found_past_one_word() {
        let mut rng = StdRng::seed_from_u64(19);
        for n in [65usize, 130] {
            let g = generators::erdos_renyi(n, 0.3, &mut rng);
            for adjacent in [false, true] {
                let (u, v) = (3, n - 2);
                let planted = plant_twin(&g, u, v, adjacent);
                let found = classes(&planted, &[]);
                assert!(found.contains(&vec![u, v]), "n={n} adjacent={adjacent}");
                assert_eq!(found.len(), n - 1, "only the planted pair: n={n}");
            }
        }
    }

    #[test]
    fn canonical_fault_sets_hold_the_lowest_twins() {
        let g = generators::core_network(7, 2);
        let twins = Twins::new(&g, &Rows::new(&g, Narrow), &[]);
        let canonical = |ids: &[usize]| {
            twins.canonical(&pack_all(
                7,
                &[NodeSet::from_indices(7, ids.iter().copied())],
            ))
        };
        assert!(canonical(&[]) && canonical(&[0, 1]) && canonical(&[0, 5]));
        assert!(!canonical(&[1]) && !canonical(&[0, 6]) && !canonical(&[2, 5]));
    }

    /// Nodes 2 and 3 are twins, but only 3 can fail on its own: the first
    /// violating fault set is `{3}`, which no swap with 2 may skip.
    #[test]
    fn structures_split_twin_classes() {
        let mut edges = vec![
            (2, 0),
            (3, 0),
            (4, 0),
            (2, 1),
            (3, 1),
            (5, 1),
            (0, 2),
            (0, 3),
        ];
        edges.extend([2, 3, 4, 5].iter().flat_map(|&u| {
            [2, 3, 4, 5]
                .iter()
                .filter(move |&&v| v != u)
                .map(move |&v| (u, v))
        }));
        let g = Digraph::from_edges(6, edges).unwrap();
        assert!(classes(&g, &[]).contains(&vec![2, 3]));
        let racks = vec![
            NodeSet::from_indices(6, [3]),
            NodeSet::from_indices(6, [2, 4, 5]),
        ];
        assert_eq!(classes(&g, &racks).len(), 6);
        let model = FaultModel::Structure(AdversaryStructure::new(6, racks).unwrap());
        let expect = oracle::check_model(&g, &model);
        assert_eq!(
            expect.witness().map(|w| w.fault_set.to_indices()),
            Some(vec![3])
        );
        assert_eq!(fault_model::check_model(&g, &model), expect);
    }

    /// Complete graphs, core networks with and without one removed edge,
    /// and random graphs with planted twins of both kinds: every checker
    /// still returns the oracle's witness, with a structure that splits a
    /// twin class.
    #[test]
    fn twin_rich_checkers_return_the_oracle_witness() {
        // Racks {1, 3} and {n − 1} cut the classes of complete graphs,
        // of core networks and of the planted twins below.
        let split = |n: usize| {
            let racks = [[1, 3.min(n - 1)], [n - 1, n - 1]];
            let racks = racks.map(|ids| NodeSet::from_indices(n, ids)).to_vec();
            AdversaryStructure::new(n, racks).expect("same universe")
        };
        let mut violated = 0;
        for n in 2..=10usize {
            let g = generators::complete(n);
            for f in 0..=3usize.min(n / 3 + 1) {
                violated += assert_matches_oracle(&g, f, &split(n));
            }
        }
        for f in 1..=3usize {
            for n in 3 * f + 1..=3 * f + 2 {
                let g = generators::core_network(n, f);
                violated += assert_matches_oracle(&g, f, &split(n));
                // E6's probe shape: one core edge and one core-periphery
                // edge removed in turn.
                for (u, v) in [(1, 0), (2 * f + 1, 2)] {
                    let mut probe = g.clone();
                    probe.remove_edge(NodeId::new(u), NodeId::new(v));
                    violated += assert_matches_oracle(&probe, f, &split(n));
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(20);
        for n in 5..=9usize {
            for trial in 0..6 {
                let p = [0.4, 0.6, 0.8][trial % 3];
                let mut g = generators::erdos_renyi(n, p, &mut rng);
                // A non-adjacent class of three and an adjacent pair.
                g = plant_twin(&g, 0, n - 1, false);
                g = plant_twin(&g, 0, 2, false);
                g = plant_twin(&g, 1, 3, true);
                let found = classes(&g, &[]);
                let twins = |u, v| found.iter().any(|c| c.contains(&u) && c.contains(&v));
                assert!(twins(0, 2) && twins(0, n - 1) && twins(1, 3), "{g:?}");
                for f in 0..=2usize {
                    violated += assert_matches_oracle(&g, f, &split(n));
                }
            }
        }
        assert!(
            violated > 100,
            "the sweep must produce violations: {violated}"
        );
    }

    #[test]
    fn robustness_matches_the_oracle() {
        let mut rng = StdRng::seed_from_u64(17);
        for n in 2..=9usize {
            for p in [0.3, 0.6, 0.9] {
                let g = generators::erdos_renyi(n, p, &mut rng);
                for r in 1..=3 {
                    for s in 1..=3 {
                        assert_eq!(
                            robustness::is_robust(&g, r, s),
                            oracle::is_robust(&g, r, s),
                            "n={n} p={p} r={r} s={s} {g:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn combination_walk_matches_the_nodeset_walk() {
        // Same subsets in the same order, for pools straddling a word edge.
        for (n, pool) in [
            (6, vec![0, 2, 3, 5]),
            (70, vec![1, 62, 63, 64, 65, 69]),
            (64, vec![0, 31, 62, 63]),
        ] {
            let set = NodeSet::from_indices(n, pool.iter().copied());
            for k in 0..=pool.len() + 1 {
                let mut expect = Vec::new();
                for_each_subset_sized(&set, k, k, |s| {
                    expect.push(s.to_indices());
                    true
                });
                let mut got = Vec::new();
                let mut mask = vec![0; words_for(n)];
                for_each_combination(&pool, k, &mut Vec::new(), &mut mask, |idx, m| {
                    let members: Vec<usize> = idx.iter().map(|&i| pool[i]).collect();
                    assert_eq!(unpack(m, n).to_indices(), members);
                    got.push(members);
                    true
                });
                assert_eq!(got, expect, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn stopping_leaves_the_mask_on_the_stopping_subset() {
        let pool = [0, 1, 2, 3];
        let mut mask = [0u64];
        let mut seen = 0;
        let finished = for_each_combination(&pool, 2, &mut Vec::new(), &mut mask, |_, _| {
            seen += 1;
            seen < 3
        });
        assert!(!finished);
        assert_eq!(mask[0], 0b1001, "third 2-subset is {{0, 3}}");
    }

    #[test]
    fn packing_round_trips_at_word_edges() {
        for n in [1, 63, 64, 65, 128, 130] {
            let set = NodeSet::from_indices(n, [0, n / 2, n - 1]);
            let packed = pack_all(n, std::slice::from_ref(&set));
            assert_eq!(packed.len(), words_for(n));
            assert_eq!(unpack(&packed, n), set, "n={n}");
        }
    }

    #[test]
    fn rows_hold_the_in_neighbours() {
        let g = generators::chord(70, 5);
        let rows = Rows::new(&g, Wide(words_for(70)));
        for v in g.nodes() {
            assert_eq!(unpack(rows.row(v.index()), 70), *g.in_neighbors(v));
        }
        assert_eq!(unpack(&rows.full(), 70), NodeSet::full(70));
    }

    #[test]
    fn budget_counts_across_calls() {
        let mut b = Budget::new(Some(2));
        assert!(b.tick() && b.tick());
        assert!(!b.tick());
    }
}
