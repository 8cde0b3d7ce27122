//! Heap allocations per exact synchronous round, counted by a global
//! allocator.
//!
//! This binary holds a single test, so nothing else allocates while it
//! counts. The graph is large enough that both pooled dispatches of a
//! round (a pure family's plan fill and the node loop) split into several
//! chunks at jobs 2.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use iabc_core::rules::TrimmedMean;
use iabc_graph::{generators, NodeSet};
use iabc_sim::adversary::standard_roster;
use iabc_sim::Simulation;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with its caller's arguments,
// so `System` upholds the allocator contract for this one.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller's guarantees for `alloc`, passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NODES: usize = 64;
const WARM_UP: usize = 5;
const ROUNDS: usize = 100;
const VALUE_RANGE: (f64, f64) = (0.0, 99.0);

/// Allocations made by `ROUNDS` rounds, after `WARM_UP` uncounted ones,
/// under the `k`-th entry of the standard roster.
fn allocations_per_hundred_rounds(k: usize, jobs: usize) -> usize {
    let graph = generators::complete(NODES);
    let faults = NodeSet::from_indices(NODES, [61, 62, 63]);
    let inputs: Vec<f64> = (0..NODES).map(|i| ((i * 37) % 100) as f64).collect();
    let rule = TrimmedMean::new(3);
    let adversary = standard_roster(VALUE_RANGE).swap_remove(k);
    let mut sim = Simulation::new(&graph, &inputs, faults, &rule, adversary)
        .expect("the complete graph is valid")
        .with_jobs(jobs);
    for _ in 0..WARM_UP {
        sim.step().unwrap();
    }
    let before = ALLOCATIONS.load(Relaxed);
    for _ in 0..ROUNDS {
        sim.step().unwrap();
    }
    ALLOCATIONS.load(Relaxed) - before
}

#[test]
fn a_round_allocates_nothing_serially_and_only_channel_blocks_on_the_pool() {
    let names: Vec<&str> = standard_roster(VALUE_RANGE)
        .iter()
        .map(|adversary| adversary.name())
        .collect();
    for (k, name) in names.into_iter().enumerate() {
        assert_eq!(allocations_per_hundred_rounds(k, 1), 0, "{name} at jobs 1");
        // At jobs 2 each pooled dispatch sends one job to the worker and
        // one acknowledgement back; std's channels allocate a block every
        // 31 messages. A round makes at most two dispatches.
        let pooled = allocations_per_hundred_rounds(k, 2);
        assert!(
            pooled <= 12,
            "{name} at jobs 2: {pooled} allocations per 100 rounds"
        );
    }
}
