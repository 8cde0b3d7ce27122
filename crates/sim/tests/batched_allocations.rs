//! Heap allocations per replica-batched fast-tier step, counted by a
//! global allocator.
//!
//! This binary holds a single test, so nothing else allocates while it
//! counts. Four shapes are the spec groups of the `batch` benchmark
//! workload at its 32 lanes: two sort on one 32-slot network, two on
//! the merge networks. The fifth, complete(140), has every row past the
//! networks, on the exact rule. All run on a shared adversary plan.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use iabc_core::fastmath::FastRule;
use iabc_graph::{generators, Digraph, NodeSet};
use iabc_sim::adversary::{Adversary, ConstantAdversary, PullAdversary};
use iabc_sim::fastmath::BatchedSimulation;

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

const LANES: usize = 32;
const WARM_UP: usize = 5;
const STEPS: usize = 100;

/// Allocations made by `STEPS` steps, after `WARM_UP` uncounted ones, of
/// a `LANES`-wide batch on `graph` with nodes `0..f` faulty, whose rows
/// past the networks must number `exact_rows`.
fn allocations_per_hundred_steps(
    graph: &Digraph,
    f: usize,
    exact_rows: usize,
    adversary: impl Fn() -> Box<dyn Adversary>,
) -> usize {
    let n = graph.node_count();
    let inputs: Vec<f64> = (0..n * LANES)
        .map(|k| ((k * 37 + k / LANES) % 101) as f64 / 100.0)
        .collect();
    let faults = NodeSet::from_indices(n, 0..f);
    let mut sim = BatchedSimulation::new(
        graph,
        &inputs,
        faults,
        FastRule::TrimmedMean(f),
        LANES,
        |_| adversary(),
    )
    .expect("the shape is a valid batch");
    assert_eq!(sim.scalar_fallback_rows(), exact_rows);
    assert!(sim.shared_plan().is_some());
    for _ in 0..WARM_UP {
        sim.step().unwrap();
    }
    let before = ALLOCATIONS.load(Relaxed);
    for _ in 0..STEPS {
        sim.step().unwrap();
    }
    ALLOCATIONS.load(Relaxed) - before
}

#[test]
fn a_batched_step_allocates_nothing() {
    let pull = |toward_max| move || Box::new(PullAdversary::new(toward_max)) as Box<dyn Adversary>;
    let constant = |v| move || Box::new(ConstantAdversary::new(v)) as Box<dyn Adversary>;
    let counts = [
        (
            "circulant(128, 24) under Pull",
            allocations_per_hundred_steps(&generators::circulant(128, 1..=24), 2, 0, pull(true)),
        ),
        (
            "circulant(128, 28) under Constant",
            allocations_per_hundred_steps(&generators::circulant(128, 1..=28), 3, 0, constant(1e9)),
        ),
        (
            "complete(100) under Pull",
            allocations_per_hundred_steps(&generators::complete(100), 4, 0, pull(false)),
        ),
        (
            "circulant(160, 64) under Constant",
            allocations_per_hundred_steps(
                &generators::circulant(160, 1..=64),
                3,
                0,
                constant(-1e9),
            ),
        ),
        (
            "complete(140) under Constant",
            allocations_per_hundred_steps(&generators::complete(140), 2, 138, constant(1e9)),
        ),
    ];
    for (shape, count) in counts {
        assert_eq!(count, 0, "{shape}: {count} allocations per {STEPS} steps");
    }
}
