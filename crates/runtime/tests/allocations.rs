//! Heap allocations per multiplexed tick, counted by a global allocator.
//!
//! This binary holds a single test, so nothing else allocates while it
//! counts. The deployment is large enough that every pooled phase (send,
//! readiness, update) splits into several chunks at jobs 2.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use iabc_graph::{CompiledTopology, NodeSet};
use iabc_runtime::{InboxExtremist, LocalTransport, MultiplexConfig, MultiplexedDeployment};

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

const NODES: usize = 4096;
const WARM_UP: usize = 5;
const TICKS: usize = 100;

/// Allocations made by `TICKS` ticks after `WARM_UP` untimed ones.
fn allocations_per_hundred_ticks(jobs: usize) -> usize {
    let faults = NodeSet::from_indices(NODES, [0, 1]);
    let topology = CompiledTopology::circulant(NODES, 8, &faults);
    let inputs: Vec<f64> = (0..NODES).map(|i| ((i * 37) % 1000) as f64).collect();
    let mut deployment = MultiplexedDeployment::new(
        &topology,
        &inputs,
        2,
        WARM_UP + TICKS + 1,
        |_| Box::new(InboxExtremist { delta: 1e6 }),
        LocalTransport,
        MultiplexConfig {
            jobs,
            ..MultiplexConfig::default()
        },
    )
    .expect("the circulant deployment is valid");
    for _ in 0..WARM_UP {
        deployment.tick().unwrap();
    }
    let before = ALLOCATIONS.load(Relaxed);
    for _ in 0..TICKS {
        deployment.tick().unwrap();
    }
    let counted = ALLOCATIONS.load(Relaxed) - before;
    assert!(
        !deployment.finished(),
        "every counted tick did a full round"
    );
    counted
}

#[test]
fn a_tick_allocates_nothing_serially_and_only_channel_blocks_on_the_pool() {
    assert_eq!(allocations_per_hundred_ticks(1), 0, "jobs 1");
    // At jobs 2 each pooled phase sends one job to the worker and one
    // acknowledgement back; std's channels allocate a block every 31
    // messages, about 20 blocks per 100 ticks.
    let pooled = allocations_per_hundred_ticks(2);
    assert!(pooled <= 30, "jobs 2: {pooled} allocations per 100 ticks");
}
