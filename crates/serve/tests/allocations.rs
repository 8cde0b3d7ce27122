//! Heap allocations and bytes of one cache hit, counted by a global
//! allocator, step by step from the client's submit frame to its decode
//! of the answer, with the request decoded as the daemon decodes it (by
//! value, moving the graph text out of the frame): once keyed by the pure
//! `JobSpec::key`, and once as the daemon keys a topology it has seen,
//! through its `TopologyMemo`.
//!
//! This binary holds a single test, so nothing else allocates while it
//! counts. The hit is the benchmark's: a complete/n128 scenario, whose
//! submit frame is about 118 KB, nearly all of it the escaped edge list.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use iabc_graph::{generators, parse};
use iabc_serve::protocol::{read_frame, write_frame, Request, Response};
use iabc_serve::{
    EngineSpec, InputSpec, JobSpec, RunKey, ScenarioSpec, SingleFlight, Store, TopologyMemo,
};

/// The system allocator, counting every allocation and reallocation and
/// the bytes each asks for.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes, Relaxed);
}

// SAFETY: every method forwards to `System` with its caller's arguments,
// so `System` upholds the allocator contract for this one.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `alloc`, passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// The most a hit keyed by the pure path may allocate, in bytes per byte
/// of its submit frame.
const BYTES_PER_FRAME_BYTE: usize = 8;

/// The same bound for a hit keyed from the daemon's memo.
const MEMOIZED_BYTES_PER_FRAME_BYTE: usize = 4;

/// The most bytes decoding the parsed frame may allocate: the request's
/// strings, the graph text among them, move out of the frame.
const DECODE_BYTES: usize = 1024;

/// The most allocations a memoized key may make: the fault set, its
/// member list and the seeded inputs, none of them sized by the edge list.
const MEMOIZED_KEY_ALLOCATIONS: usize = 3;

fn hit_job() -> JobSpec {
    let seed = 0x92a1_731a_ed9a_48d6;
    JobSpec::Scenario(ScenarioSpec {
        graph: parse::to_edge_list(&generators::complete(128)),
        faulty: vec![0],
        f: 1,
        rule: "trimmed-mean".into(),
        quantum: None,
        adversary: "constant".into(),
        seed,
        inputs: InputSpec::Seeded(seed),
        epsilon: 1e-6,
        max_rounds: 1000,
        engine: EngineSpec::Synchronous,
    })
}

/// Allocations and bytes per step of one hit against `store`, keyed by
/// `key`, and the submit frame's length. The two "sockets" are buffers
/// sized before the count starts.
fn one_hit(
    store: &Store,
    job: &JobSpec,
    key: impl Fn(&JobSpec) -> RunKey,
) -> (Vec<(&'static str, usize, usize)>, usize) {
    let mut wire = Vec::with_capacity(1 << 20);
    let mut answer = Vec::with_capacity(1 << 16);
    let mut steps = Vec::new();
    let mut mark = (ALLOCATIONS.load(Relaxed), BYTES.load(Relaxed));
    let mut step = |name: &'static str| {
        let now = (ALLOCATIONS.load(Relaxed), BYTES.load(Relaxed));
        steps.push((name, now.0 - mark.0, now.1 - mark.1));
        mark = (ALLOCATIONS.load(Relaxed), BYTES.load(Relaxed));
    };
    write_frame(&mut wire, &Request::submit_json(job)).unwrap();
    step("client frame");
    let frame = read_frame(&mut &wire[..]).unwrap().expect("a frame");
    step("read_frame");
    let Request::Submit(submitted) = Request::decode(frame).unwrap() else {
        panic!("a submit request")
    };
    step("decode");
    let key = key(&submitted);
    step("key");
    let payload = store.get(key).expect("a warm key");
    store.record_hit(key, 1).unwrap();
    step("probe + record_hit");
    let response = Response::Result {
        cache_hit: true,
        key,
        hits: 1,
        misses: 0,
        payload,
    };
    write_frame(&mut answer, &response.to_json()).unwrap();
    drop(response);
    step("response frame");
    let back = read_frame(&mut &answer[..]).unwrap().expect("a frame");
    let decoded = Response::from_json(&back).unwrap();
    step("client decode");
    assert!(matches!(
        decoded,
        Response::Result {
            cache_hit: true,
            ..
        }
    ));
    (steps, wire.len())
}

/// Prints each step's counts and returns the hit's total bytes.
fn report(path: &str, steps: &[(&'static str, usize, usize)], frame: usize) -> usize {
    eprintln!("{path}:");
    for (name, n, m) in steps {
        eprintln!(
            "{name:>20}: {n:>4} allocations, {:>7.1} KB",
            *m as f64 / 1e3
        );
    }
    let (allocations, bytes) = steps
        .iter()
        .fold((0, 0), |(a, b), &(_, n, m)| (a + n, b + m));
    eprintln!(
        "{:>20}: {allocations:>4} allocations, {:>7.1} KB = {:.2}x the {frame}-byte frame",
        "hit",
        bytes as f64 / 1e3,
        bytes as f64 / frame as f64
    );
    bytes
}

#[test]
fn a_hit_allocates_at_most_eight_times_its_frame() {
    let dir = std::env::temp_dir().join(format!("iabc-serve-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    let job = hit_job();
    iabc_serve::answer_submit(&store, &SingleFlight::new(), &job, 1, |_, _, _| {}).unwrap();
    let pure = |job: &JobSpec| job.key().unwrap();
    // The first hit warms whatever is lazily built once.
    one_hit(&store, &job, pure);
    let (steps, frame) = one_hit(&store, &job, pure);
    let bytes = report("keyed by JobSpec::key", &steps, frame);
    let (_, _, decode_bytes) = steps.iter().find(|s| s.0 == "decode").unwrap();
    assert!(
        *decode_bytes <= DECODE_BYTES,
        "decoding the frame allocated {decode_bytes} bytes, over {DECODE_BYTES}"
    );
    assert!(
        bytes <= BYTES_PER_FRAME_BYTE * frame,
        "a hit allocated {bytes} bytes, over {BYTES_PER_FRAME_BYTE}x its {frame}-byte frame"
    );

    // The daemon's keying: the first sight of the topology fills the memo,
    // and a repeat reads neither the edge list nor the memo's copy of it
    // beyond one comparison.
    let memo = TopologyMemo::new();
    let memoized = |job: &JobSpec| job.key_with(&memo).unwrap();
    one_hit(&store, &job, memoized);
    let (steps, frame) = one_hit(&store, &job, memoized);
    assert_eq!(memo.hits(), 1);
    let bytes = report("keyed from the memo", &steps, frame);
    let (_, key_allocations, _) = steps.iter().find(|s| s.0 == "key").unwrap();
    assert!(
        *key_allocations <= MEMOIZED_KEY_ALLOCATIONS,
        "a memoized key made {key_allocations} allocations, over {MEMOIZED_KEY_ALLOCATIONS}"
    );
    assert!(
        bytes <= MEMOIZED_BYTES_PER_FRAME_BYTE * frame,
        "a memoized hit allocated {bytes} bytes, \
         over {MEMOIZED_BYTES_PER_FRAME_BYTE}x its {frame}-byte frame"
    );
    std::fs::remove_dir_all(&dir).ok();
}
