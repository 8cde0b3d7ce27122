//! The workspace's **one** persistent worker pool.
//!
//! Before this crate, every parallel path hand-rolled its own fan-out:
//! `iabc_sim::parallel::run_chunked` spawned scoped threads on every
//! engine `step()`, `iabc_analysis::sweep` kept a private atomic-counter
//! work-stealing loop, and `iabc_core::theorem1::check_parallel` carried
//! a third copy over crossbeam's scope. Spawning threads per dispatch
//! made `--jobs` pay off only when a single dispatch was large enough to
//! amortize the spawn cost (n ≳ 10³ for the round engines). The
//! [`Executor`] here is created **once per engine or run**, parks its
//! workers on channels between dispatches, and is fed raw work batches —
//! so a 10⁵-round run at n = 100 pays the thread-spawn cost once, not
//! 10⁵ times.
//!
//! # Execution model
//!
//! [`Executor::new`] spawns `jobs − 1` worker threads (`jobs = 1` spawns
//! none and every dispatch runs inline on the caller's thread with zero
//! overhead — no channels touched, no locks taken). A dispatch
//! ([`Executor::run_chunked`] / [`Executor::for_each`]) splits the output
//! slice into disjoint `&mut` chunks held in a mutex-guarded queue,
//! enlists up to `jobs − 1` parked workers plus the **calling thread
//! itself**, and every participant pops chunks until the queue drains.
//! The caller blocks until each enlisted worker acknowledges completion,
//! which is what makes lending stack-borrowed chunks to retained threads
//! sound (see "Safety" below).
//!
//! # Determinism contract
//!
//! The same contract the scoped predecessor had, now in one place:
//!
//! * **Ownership.** Each index of the output slice is written by exactly
//!   one participant; `item_fn` may only read shared state otherwise.
//!   Chunking and scheduling decide *which thread* computes an index,
//!   never *what* is computed — so results are **bit-for-bit identical
//!   to the serial loop for any job count**.
//! * **Errors.** The serial loop stops at the first (lowest-index)
//!   failing item. Parallel dispatches process every chunk (no early
//!   abort) and keep the error of the lowest failing index, so the
//!   returned error is identical for any job count too.
//! * **No hidden iteration order.** `item_fn` must not communicate
//!   between items (e.g. through an RNG or accumulator in shared state);
//!   anything order-sensitive belongs in the caller's serial phase.
//!
//! # Safety
//!
//! Dispatches lend `&mut` borrows of the caller's stack to detached
//! threads, erasing lifetimes through a raw pointer. Soundness rests on
//! two invariants, both local to this file: a worker touches a task only
//! between receiving its job message and sending the matching completion
//! acknowledgement, and a dispatch does not return (or unwind — the
//! caller's own share of the work runs under `catch_unwind`) before
//! collecting every acknowledgement it is owed. The pool is therefore
//! quiescent whenever the borrow is.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Minimum items per chunk for per-node engine loops — below this, queue
/// traffic dominates the arithmetic and the dispatch runs inline.
pub const MIN_CHUNK: usize = 16;

/// How a dispatch splits its output slice into stealable chunks.
#[derive(Debug, Clone, Copy)]
pub enum Chunking {
    /// Adaptive sizing for uniform items (engine node loops): ~4 chunks
    /// per participant, each at least this many items, so a straggler
    /// chunk can be stolen around without queue traffic dominating.
    Auto(usize),
    /// Every chunk holds exactly this many items. Use `Exact(1)` when
    /// item costs vary wildly (a sweep's census cell can cost 10⁶× a
    /// trivial cell; a Theorem 1 fault-set scan likewise) — each item
    /// must be individually stealable or the expensive ones serialize on
    /// one worker.
    Exact(usize),
}

impl Chunking {
    /// The smallest chunk this policy can produce (also the inline
    /// threshold: a slice no larger than one chunk never leaves the
    /// caller).
    fn floor(self) -> usize {
        match self {
            Chunking::Auto(floor) | Chunking::Exact(floor) => floor.max(1),
        }
    }
}

/// Worker threads ever spawned by any [`Executor`] in this process (a
/// monotone counter; regression tests diff it around a run to prove pools
/// spawn once per run, not once per step).
static TOTAL_THREADS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Total worker threads spawned process-wide. See [`Executor::threads_spawned`]
/// for the per-pool counter (race-free under concurrent tests).
pub fn total_threads_spawned() -> usize {
    TOTAL_THREADS_SPAWNED.load(Ordering::Relaxed)
}

/// Resolves a requested job count: `0` means all available cores.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// A type-erased dispatch: the worker calls `run(task)`, where `task`
/// points at a [`Task`] on the dispatching thread's stack. Sound to send
/// because the dispatcher blocks until the worker acknowledges completion
/// (module docs, "Safety").
struct Job {
    run: unsafe fn(*const ()),
    task: *const (),
}

// SAFETY: the raw pointer targets a Task whose chunk payloads are `T: Send`
// and whose closures are `Sync`; the dispatch protocol guarantees the
// pointee outlives every worker's use of it.
unsafe impl Send for Job {}

/// The chunks of one dispatch not yet handed out: the unpopped prefix of
/// the output slice. Chunk boundaries are the multiples of `chunk`, and
/// [`ChunkQueue::pop`] splits the last chunk off the tail, so chunks leave
/// highest start first and the queue never allocates.
struct ChunkQueue<'a, T> {
    rest: &'a mut [T],
    chunk: usize,
}

impl<'a, T> ChunkQueue<'a, T> {
    /// The highest-start chunk still queued, with its start index.
    fn pop(&mut self) -> Option<(usize, &'a mut [T])> {
        if self.rest.is_empty() {
            return None;
        }
        let start = (self.rest.len() - 1) / self.chunk * self.chunk;
        let (rest, last) = std::mem::take(&mut self.rest).split_at_mut(start);
        self.rest = rest;
        Some((start, last))
    }

    /// Drops every chunk still queued.
    fn clear(&mut self) {
        self.rest = &mut [];
    }
}

/// One dispatch's shared state, living on the dispatcher's stack.
struct Task<'a, T, S, E, MS, F> {
    /// Disjoint output chunks not yet claimed by a participant.
    queue: Mutex<ChunkQueue<'a, T>>,
    /// The lowest-index error seen so far.
    first_error: Mutex<Option<(usize, E)>>,
    /// Cooperative cancellation ([`Executor::for_each_until`]); `None`
    /// for ordinary dispatches, which never abort early.
    cancel: Option<&'a AtomicBool>,
    make_scratch: &'a MS,
    item_fn: &'a F,
    _scratch: std::marker::PhantomData<fn() -> S>,
}

/// The drain loop every participant (workers and the caller) runs: pop a
/// chunk, compute its items, repeat until the queue is empty. On an item
/// error the chunk stops (like the serial loop stops the run) but other
/// chunks still execute, so the lowest failing index is always found. A
/// raised cancel flag instead drops the whole remaining queue — the one
/// participant that observes it first ends everyone's drain.
fn drain_task<T, S, E, MS, F>(task: &Task<'_, T, S, E, MS, F>)
where
    MS: Fn() -> S + Sync,
    F: Fn(usize, &mut T, &mut S) -> Result<(), E> + Sync,
{
    let mut scratch = (task.make_scratch)();
    loop {
        if task.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            task.queue.lock().expect("chunk queue poisoned").clear();
            break;
        }
        let item = task.queue.lock().expect("chunk queue poisoned").pop();
        let Some((start, slice)) = item else { break };
        for (off, out) in slice.iter_mut().enumerate() {
            let i = start + off;
            if let Err(e) = (task.item_fn)(i, out, &mut scratch) {
                let mut slot = task.first_error.lock().expect("error slot poisoned");
                match &*slot {
                    Some((index, _)) if *index <= i => {}
                    _ => *slot = Some((i, e)),
                }
                break;
            }
        }
    }
}

/// Monomorphized entry point a [`Job`] carries; re-types the erased task
/// pointer and drains it.
///
/// # Safety
///
/// `task` must point at a live `Task<T, S, E, MS, F>` of exactly these
/// type parameters, and the dispatcher must not release the pointee until
/// this call's completion is acknowledged.
unsafe fn run_task<T, S, E, MS, F>(task: *const ())
where
    MS: Fn() -> S + Sync,
    F: Fn(usize, &mut T, &mut S) -> Result<(), E> + Sync,
{
    // SAFETY: see function docs — the caller (worker loop) received this
    // pointer from a dispatch that blocks until we acknowledge.
    let task = unsafe { &*task.cast::<Task<'_, T, S, E, MS, F>>() };
    drain_task(task);
}

/// The worker body: park on the feed channel, run each job, acknowledge on
/// the shared done channel. Panics inside a job are caught and forwarded
/// as the acknowledgement payload so the dispatcher can re-raise them
/// after the pool is quiescent; the worker itself survives and keeps
/// serving later dispatches.
fn worker_loop(feed: Receiver<Job>, done: Sender<std::thread::Result<()>>) {
    while let Ok(job) = feed.recv() {
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (job.run)(job.task) }));
        if done.send(result).is_err() {
            break; // executor dropped mid-acknowledgement: shut down
        }
    }
}

/// A persistent, channel-fed worker pool. See the [module docs](self) for
/// the execution model and determinism contract.
///
/// Create one per engine or run ([`Executor::new`]); `jobs = 1` is the
/// zero-overhead serial executor (no threads, no channels on the dispatch
/// path). Dropping the executor shuts the workers down and joins them.
pub struct Executor {
    /// Process-unique pool identity (monotone). Lets callers assert that
    /// the SAME pool served a whole run — a per-step pool rebuild would
    /// mint a fresh id (see `tests/parallel_equivalence.rs`).
    id: usize,
    jobs: usize,
    /// One submission channel per retained worker (std mpsc receivers are
    /// single-consumer, so work stealing happens on the task's chunk
    /// queue, not on the feeds).
    feeds: Vec<Sender<Job>>,
    /// Completion acknowledgements, shared by all workers. Dispatches are
    /// serialized (`&self` but `Executor: !Sync`), so acks never interleave
    /// across dispatches.
    done_rx: Receiver<std::thread::Result<()>>,
    handles: Vec<JoinHandle<()>>,
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("jobs", &self.jobs)
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl Executor {
    /// Creates a pool for `jobs` total participants (`0` = all available
    /// cores): `jobs − 1` retained worker threads are spawned **now** —
    /// the only place this crate ever spawns — and the calling thread is
    /// the final participant of every dispatch. `jobs = 1` spawns
    /// nothing.
    pub fn new(jobs: usize) -> Self {
        static NEXT_ID: AtomicUsize = AtomicUsize::new(0);
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let jobs = effective_jobs(jobs);
        let (done_tx, done_rx) = channel();
        let mut feeds = Vec::new();
        let mut handles = Vec::new();
        for worker in 0..jobs.saturating_sub(1) {
            let (feed_tx, feed_rx) = channel();
            let done = done_tx.clone();
            TOTAL_THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
            let handle = std::thread::Builder::new()
                .name(format!("iabc-exec-{worker}"))
                .spawn(move || worker_loop(feed_rx, done))
                .expect("failed to spawn pool worker");
            feeds.push(feed_tx);
            handles.push(handle);
        }
        Executor {
            id,
            jobs,
            feeds,
            done_rx,
            handles,
        }
    }

    /// This pool's process-unique identity — stable for its whole
    /// lifetime, different for every pool ever created. Regression tests
    /// assert an engine's id is unchanged across a run: a per-step pool
    /// rebuild (the old cost model) would mint a fresh id every step.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The zero-overhead serial executor (`jobs = 1`, no threads).
    pub fn serial() -> Self {
        Executor::new(1)
    }

    /// Total participants per dispatch (retained workers + the caller).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Worker threads this pool has ever spawned — constant after
    /// [`Executor::new`] by construction; regression tests assert it
    /// stays `jobs − 1` across arbitrarily many dispatches.
    pub fn threads_spawned(&self) -> usize {
        self.handles.len()
    }

    /// Runs `item_fn` for every index of `out`, fanning disjoint chunks
    /// (sized by `chunking`) across the pool plus the calling thread.
    /// `item_fn(i, out_i, scratch)` must write item `i` using only shared
    /// reads (or leave it untouched); `make_scratch` builds one
    /// participant-local scratch value. With one participant — or a slice
    /// small enough that a single chunk covers it — the loop runs inline
    /// on the caller with zero threading overhead.
    ///
    /// Results are bit-for-bit identical to the serial loop for any job
    /// count (module docs).
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing item, independent of the
    /// job count.
    ///
    /// # Panics
    ///
    /// A panic inside `item_fn` (on any participant) is re-raised on the
    /// calling thread after the pool is quiescent; the pool survives and
    /// can serve further dispatches.
    pub fn run_chunked<T, S, E, MS, F>(
        &self,
        out: &mut [T],
        chunking: Chunking,
        make_scratch: MS,
        item_fn: F,
    ) -> Result<(), E>
    where
        T: Send,
        E: Send,
        MS: Fn() -> S + Sync,
        F: Fn(usize, &mut T, &mut S) -> Result<(), E> + Sync,
    {
        self.dispatch(out, chunking, None, make_scratch, item_fn)
    }

    /// The one dispatch body behind [`Executor::run_chunked`] /
    /// [`Executor::for_each`] / [`Executor::for_each_until`]; `cancel`
    /// (when present) lets any participant drop the remaining queue.
    fn dispatch<T, S, E, MS, F>(
        &self,
        out: &mut [T],
        chunking: Chunking,
        cancel: Option<&AtomicBool>,
        make_scratch: MS,
        item_fn: F,
    ) -> Result<(), E>
    where
        T: Send,
        E: Send,
        MS: Fn() -> S + Sync,
        F: Fn(usize, &mut T, &mut S) -> Result<(), E> + Sync,
    {
        let n = out.len();
        let floor = chunking.floor();
        if self.jobs <= 1 || n <= floor {
            let mut scratch = make_scratch();
            for (i, item) in out.iter_mut().enumerate() {
                if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                    return Ok(());
                }
                item_fn(i, item, &mut scratch)?;
            }
            return Ok(());
        }

        let workers = self.jobs.min(n.div_ceil(floor));
        let chunk = match chunking {
            // ~4 chunks per participant so a straggler chunk can be
            // stolen around (same sizing as the scoped predecessor, so
            // chunk boundaries — invisible to results — stay familiar in
            // profiles).
            Chunking::Auto(_) => n.div_ceil(workers * 4).max(floor),
            // Exactly as requested: wildly uneven items (sweep cells,
            // fault-set scans) must stay individually stealable.
            Chunking::Exact(_) => floor,
        };
        let task = Task {
            queue: Mutex::new(ChunkQueue { rest: out, chunk }),
            first_error: Mutex::new(None),
            cancel,
            make_scratch: &make_scratch,
            item_fn: &item_fn,
            _scratch: std::marker::PhantomData::<fn() -> S>,
        };
        let helpers = workers - 1; // the caller is the last participant
        for feed in &self.feeds[..helpers] {
            feed.send(Job {
                run: run_task::<T, S, E, MS, F>,
                task: (&task as *const Task<'_, T, S, E, MS, F>).cast(),
            })
            .expect("pool worker died");
        }
        // The caller's own share runs under catch_unwind: the task (and
        // the chunks' borrow) lives on this stack frame, so we must
        // collect every acknowledgement before unwinding past it.
        let caller = catch_unwind(AssertUnwindSafe(|| drain_task(&task)));
        let mut worker_panic = None;
        for _ in 0..helpers {
            match self.done_rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(payload)) => worker_panic = Some(payload),
                Err(_) => panic!("pool worker died mid-dispatch"),
            }
        }
        // Quiescent now — safe to unwind or return.
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
        match task.first_error.into_inner().expect("error slot poisoned") {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Infallible, scratch-free [`Executor::run_chunked`]: runs `f` for
    /// every index of `out` with the same chunking, determinism, and
    /// panic semantics.
    pub fn for_each<T, F>(&self, out: &mut [T], chunking: Chunking, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let result: Result<(), std::convert::Infallible> = self.run_chunked(
            out,
            chunking,
            || (),
            |i, item, ()| {
                f(i, item);
                Ok(())
            },
        );
        match result {
            Ok(()) => {}
            Err(never) => match never {},
        }
    }

    /// [`Executor::for_each`] with cooperative cancellation, for
    /// searches: once any item raises `cancel`, the first participant to
    /// observe it drops the whole remaining chunk queue, so a hit found
    /// early does not pay a queue pop per remaining item (the behaviour
    /// the pre-executor Theorem 1 checker had). Items already popped
    /// still finish; which items ran is therefore scheduling-dependent —
    /// use this ONLY when any hit is acceptable (the checker's
    /// "some witness" contract), never where the determinism contract of
    /// [`Executor::run_chunked`] matters.
    pub fn for_each_until<T, F>(&self, out: &mut [T], chunking: Chunking, cancel: &AtomicBool, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let result: Result<(), std::convert::Infallible> = self.dispatch(
            out,
            chunking,
            Some(cancel),
            || (),
            |i, item, ()| {
                f(i, item);
                Ok(())
            },
        );
        match result {
            Ok(()) => {}
            Err(never) => match never {},
        }
    }
}

/// A recycling pool for participant-local scratch values. The engines'
/// `make_scratch` closures used to allocate a fresh buffer per participant
/// per dispatch — a per-round heap cost the persistent pool exists to
/// avoid. [`ScratchPool::take`] pops a retained value instead (building
/// one only on first use), and the returned [`Scratch`] guard gives it
/// back on drop, so steady-state dispatches cycle the same `jobs` buffers
/// forever: two mutex ops per participant per dispatch, zero allocation.
///
/// Recycled values keep their previous contents — users must reset them
/// (the engines' gather loops `clear()` before filling, so staleness is
/// structurally impossible there).
#[derive(Debug, Default)]
pub struct ScratchPool<T> {
    free: Mutex<Vec<T>>,
}

impl<T> ScratchPool<T> {
    /// An empty pool; values are built lazily by [`ScratchPool::take`].
    pub fn new() -> Self {
        ScratchPool {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Pops a retained value, or builds one with `make` if none is free.
    /// The guard returns it to the pool when dropped.
    pub fn take(&self, make: impl FnOnce() -> T) -> Scratch<'_, T> {
        let recycled = self.free.lock().expect("scratch pool poisoned").pop();
        Scratch {
            value: Some(recycled.unwrap_or_else(make)),
            home: self,
        }
    }
}

/// An owned scratch value on loan from a [`ScratchPool`]; derefs to the
/// value and returns it to the pool on drop.
#[derive(Debug)]
pub struct Scratch<'a, T> {
    value: Option<T>,
    home: &'a ScratchPool<T>,
}

impl<T> std::ops::Deref for Scratch<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.value.as_ref().expect("scratch present until drop")
    }
}

impl<T> std::ops::DerefMut for Scratch<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.value.as_mut().expect("scratch present until drop")
    }
}

impl<T> Drop for Scratch<'_, T> {
    fn drop(&mut self) {
        if let Some(value) = self.value.take() {
            // A poisoned pool means some participant panicked; the value
            // is simply dropped then — correctness never depends on reuse.
            if let Ok(mut free) = self.home.free.lock() {
                free.push(value);
            }
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Closing the feeds wakes every parked worker with a recv error;
        // they exit their loops and are joined (a panic while joining a
        // worker that died outside a dispatch is surfaced here).
        self.feeds.clear();
        for handle in self.handles.drain(..) {
            if let Err(payload) = handle.join() {
                resume_unwind(payload);
            }
        }
    }
}

/// A clonable, thread-safe handle to one [`Executor`].
///
/// The raw `Executor` is deliberately `!Sync` — its channel feeds assume one
/// dispatching thread at a time. `SharedExecutor` wraps it in
/// `Arc<Mutex<..>>` so the serving tier, `iabc sweep --jobs N`, and
/// `iabc deploy` can all inherit **one** pool: concurrent dispatches
/// serialize on the mutex (each dispatch still fans its batch across every
/// worker), and the total worker-thread count per process stays capped at
/// the pool size instead of multiplying per client.
///
/// Dispatch through [`SharedExecutor::with`]; the closure must not call
/// back into the same `SharedExecutor` (the mutex is not reentrant).
///
/// For whole-*job* serialization (a connection thread handing a multi-
/// dispatch computation to the shared pool), use
/// [`SharedExecutor::with_compute_permit`]: it holds a separate job-level
/// permit so the job's internal dispatches can still go through `with`
/// without deadlocking, while concurrent jobs queue instead of
/// interleaving their dispatches.
#[derive(Clone, Debug)]
pub struct SharedExecutor {
    inner: Arc<Mutex<Executor>>,
    /// Job-level compute permit — "one compute lock, many read locks".
    compute: Arc<Mutex<()>>,
    /// Threads currently waiting on (or holding) the compute permit.
    compute_queue: Arc<AtomicUsize>,
}

impl SharedExecutor {
    /// Wraps a fresh pool of `jobs` workers (see [`Executor::new`]).
    pub fn new(jobs: usize) -> Self {
        Self::from_executor(Executor::new(jobs))
    }

    /// Wraps an existing pool.
    pub fn from_executor(exec: Executor) -> Self {
        Self {
            inner: Arc::new(Mutex::new(exec)),
            compute: Arc::new(Mutex::new(())),
            compute_queue: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Runs `f` with exclusive access to the pool. Blocks while another
    /// holder is mid-dispatch.
    pub fn with<R>(&self, f: impl FnOnce(&Executor) -> R) -> R {
        let guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f(&guard)
    }

    /// Runs `f` while holding the pool's **job-level compute permit**.
    ///
    /// This is the handoff point for connection threads (the serve
    /// daemon): each cache miss wraps its entire computation in the
    /// permit, so at most one job computes at a time and the host is
    /// never oversubscribed by concurrent misses — while pure-read work
    /// (cache hits) proceeds on other threads untouched. Inside `f`,
    /// dispatching through [`SharedExecutor::with`] is fine: the permit
    /// is a different mutex from the pool's dispatch lock, so multi-
    /// dispatch jobs (sweeps) do not deadlock.
    pub fn with_compute_permit<R>(&self, f: impl FnOnce() -> R) -> R {
        /// Leaves the queue on drop, so a panicking `f` leaves it too.
        struct Queued<'a>(&'a AtomicUsize);
        impl Drop for Queued<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        self.compute_queue.fetch_add(1, Ordering::SeqCst);
        let _queued = Queued(&self.compute_queue);
        // Declared after `_queued`, so the permit is released first.
        let _permit = self.compute.lock().unwrap_or_else(|e| e.into_inner());
        f()
    }

    /// Threads currently holding or queued on the compute permit — a
    /// load signal for daemons deciding whether to shed or coalesce work.
    pub fn compute_queue_len(&self) -> usize {
        self.compute_queue.load(Ordering::SeqCst)
    }

    /// The pool's worker-thread budget (`Executor::jobs`).
    pub fn jobs(&self) -> usize {
        self.with(Executor::jobs)
    }

    /// Worker threads this pool has spawned (see
    /// [`Executor::threads_spawned`]).
    pub fn threads_spawned(&self) -> usize {
        self.with(Executor::threads_spawned)
    }
}

/// The lazily-created process-wide pool behind [`process_executor`].
static PROCESS_POOL: OnceLock<SharedExecutor> = OnceLock::new();

/// The **one** process-level shared pool.
///
/// The first caller sizes it: `jobs` is resolved through
/// [`effective_jobs`] (`0` = all cores) and the pool is created once for
/// the process lifetime. Every later call returns a handle to the *same*
/// pool regardless of the `jobs` it asks for — that is the point: sweeps,
/// deployments, and the serve daemon all draw from one thread budget, so
/// concurrent jobs cannot oversubscribe the host. Callers that truly need
/// a private pool (tests pinning spawn counts) construct [`Executor::new`]
/// directly.
pub fn process_executor(jobs: usize) -> SharedExecutor {
    PROCESS_POOL
        .get_or_init(|| SharedExecutor::new(effective_jobs(jobs)))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that create pools, so a window diffing the
    /// process-global [`total_threads_spawned`] counter cannot be
    /// perturbed by a concurrently running sibling test spawning its own
    /// pool (which would fail the diff spuriously).
    static SPAWN_LOCK: Mutex<()> = Mutex::new(());

    fn spawn_guard() -> std::sync::MutexGuard<'static, ()> {
        // A panicking holder (the panic-propagation test) poisons the
        // lock; the serialization it provides is still intact.
        SPAWN_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn effective_jobs_resolves_zero_to_cores() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn chunked_run_matches_serial_for_any_jobs() {
        let _guard = spawn_guard();
        let n = 1000;
        let compute = |i: usize| (i as f64).sqrt() * 3.25 - (i % 7) as f64;
        let mut serial = vec![0.0; n];
        Executor::serial()
            .run_chunked(
                &mut serial,
                Chunking::Auto(MIN_CHUNK),
                || (),
                |i, out, ()| {
                    *out = compute(i);
                    Ok::<(), ()>(())
                },
            )
            .unwrap();
        for jobs in [2, 4, 7, 64] {
            let exec = Executor::new(jobs);
            let mut par = vec![0.0; n];
            exec.run_chunked(
                &mut par,
                Chunking::Auto(MIN_CHUNK),
                || (),
                |i, out, ()| {
                    *out = compute(i);
                    Ok::<(), ()>(())
                },
            )
            .unwrap();
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "jobs = {jobs}");
            }
        }
    }

    #[test]
    fn lowest_failing_index_wins_for_any_jobs() {
        let _guard = spawn_guard();
        let fail_at = [907usize, 41, 333];
        for jobs in [1usize, 2, 4, 7] {
            let exec = Executor::new(jobs);
            let mut buf = vec![0.0; 1000];
            let err = exec
                .run_chunked(
                    &mut buf,
                    Chunking::Auto(MIN_CHUNK),
                    || (),
                    |i, out, ()| {
                        if fail_at.contains(&i) {
                            return Err(i);
                        }
                        *out = 1.0;
                        Ok(())
                    },
                )
                .unwrap_err();
            assert_eq!(err, 41, "jobs = {jobs}: must report the lowest index");
        }
    }

    #[test]
    fn worker_scratch_is_isolated() {
        // Each participant's scratch accumulates only its own items; the
        // writes still cover every index exactly once.
        let _guard = spawn_guard();
        let n = 500;
        let exec = Executor::new(4);
        let mut buf = vec![0.0; n];
        exec.run_chunked(
            &mut buf,
            Chunking::Auto(MIN_CHUNK),
            || 0usize,
            |_, out, count| {
                *count += 1;
                *out = 1.0;
                Ok::<(), ()>(())
            },
        )
        .unwrap();
        assert_eq!(buf.iter().sum::<f64>(), n as f64);
    }

    #[test]
    fn threads_spawn_once_per_pool_not_per_dispatch() {
        let _guard = spawn_guard();
        let exec = Executor::new(5);
        assert_eq!(exec.threads_spawned(), 4);
        // The real guard is the PROCESS-GLOBAL spawn counter: it must not
        // move across 200 dispatches (exec.threads_spawned() alone would
        // be tautological — it is jobs − 1 for any pool by construction).
        let spawned_before = total_threads_spawned();
        let id = exec.id();
        let mut buf = vec![0usize; 400];
        for round in 0..200 {
            exec.for_each(&mut buf, Chunking::Exact(1), |i, out| *out = i * round);
        }
        assert_eq!(
            total_threads_spawned(),
            spawned_before,
            "200 dispatches must not spawn a single thread anywhere in the process"
        );
        assert_eq!(exec.id(), id);
        assert_eq!(buf[3], 3 * 199);
    }

    #[test]
    fn serial_executor_spawns_nothing() {
        let _guard = spawn_guard();
        let before = total_threads_spawned();
        let exec = Executor::serial();
        let mut buf = vec![0u8; 64];
        exec.for_each(&mut buf, Chunking::Auto(MIN_CHUNK), |_, out| *out = 1);
        assert_eq!(exec.threads_spawned(), 0);
        assert_eq!(total_threads_spawned(), before);
        assert_eq!(buf.iter().map(|&b| b as usize).sum::<usize>(), 64);
    }

    #[test]
    fn cancellation_drops_the_remaining_queue() {
        let _guard = spawn_guard();
        let exec = Executor::new(4);
        let cancel = AtomicBool::new(false);
        let hits = AtomicUsize::new(0);
        let mut buf = vec![0u8; 100_000];
        exec.for_each_until(&mut buf, Chunking::Exact(1), &cancel, |i, out| {
            hits.fetch_add(1, Ordering::Relaxed);
            *out = 1;
            if i == 99_999 {
                cancel.store(true, Ordering::Relaxed);
            }
        });
        // The queue pops from the back, so the highest-index chunk runs
        // first — raising cancel there must spare most of the 100k items;
        // without queue-dropping every item would still be popped.
        let ran = hits.load(Ordering::Relaxed);
        assert!(ran >= 1, "the cancelling item itself ran");
        assert!(
            ran < 100_000,
            "cancellation must drop the remaining queue (ran {ran})"
        );
        // The pool survives and serves ordinary dispatches afterwards.
        exec.for_each(&mut buf, Chunking::Auto(MIN_CHUNK), |_, out| *out = 2);
        assert!(buf.iter().all(|&b| b == 2));
    }

    #[test]
    fn the_chunk_queue_pops_highest_start_first_and_clears() {
        let mut items: Vec<usize> = (0..10).collect();
        let mut queue = ChunkQueue {
            rest: &mut items,
            chunk: 4,
        };
        let (start, last) = queue.pop().unwrap();
        assert_eq!((start, &*last), (8, &[8, 9][..]), "the short tail first");
        let (start, middle) = queue.pop().unwrap();
        assert_eq!((start, &*middle), (4, &[4, 5, 6, 7][..]));
        queue.clear();
        assert!(queue.pop().is_none(), "clear drops the unpopped prefix");
        let mut items = [0u8; 8];
        let mut queue = ChunkQueue {
            rest: &mut items,
            chunk: 4,
        };
        let starts: Vec<usize> = std::iter::from_fn(|| queue.pop().map(|(s, _)| s)).collect();
        assert_eq!(starts, [4, 0], "an exact multiple has no short chunk");
    }

    #[test]
    fn for_each_chunk_one_covers_every_index_in_order() {
        let _guard = spawn_guard();
        let exec = Executor::new(3);
        let mut buf = vec![usize::MAX; 41];
        exec.for_each(&mut buf, Chunking::Exact(1), |i, out| *out = i);
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v, i);
        }
    }

    #[test]
    fn scratch_pool_recycles_instead_of_reallocating() {
        let _guard = spawn_guard();
        let exec = Executor::new(3);
        let pool: ScratchPool<Vec<f64>> = ScratchPool::new();
        let mut buf = vec![0.0; 400];
        for _ in 0..20 {
            exec.run_chunked(
                &mut buf,
                Chunking::Auto(MIN_CHUNK),
                || pool.take(|| Vec::with_capacity(8)),
                |i, out, scratch| {
                    scratch.clear();
                    scratch.push(i as f64);
                    *out = scratch[0];
                    Ok::<(), ()>(())
                },
            )
            .unwrap();
        }
        // Steady state retains at most one buffer per participant ever in
        // flight — 20 dispatches must not have grown the pool past that.
        let retained = pool.free.lock().unwrap().len();
        assert!(
            (1..=3).contains(&retained),
            "expected <= 3 retained buffers, found {retained}"
        );
        assert_eq!(buf[399], 399.0);
    }

    #[test]
    fn item_panic_propagates_and_pool_survives() {
        let _guard = spawn_guard();
        let exec = Executor::new(4);
        let mut buf = vec![0usize; 300];
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.for_each(&mut buf, Chunking::Exact(1), |i, _| {
                if i == 137 {
                    panic!("boom at 137");
                }
            });
        }));
        assert!(result.is_err(), "the item panic must reach the caller");
        // The pool must still be fully operational afterwards.
        exec.for_each(&mut buf, Chunking::Exact(1), |i, out| *out = i + 1);
        assert_eq!(buf[299], 300);
    }

    #[test]
    fn errors_do_not_stop_other_chunks() {
        // Every index either errors or writes; with an early error in one
        // chunk, all other chunks must still complete their writes.
        let _guard = spawn_guard();
        let exec = Executor::new(4);
        let mut buf = vec![0u32; 600];
        let err = exec
            .run_chunked(
                &mut buf,
                Chunking::Exact(1),
                || (),
                |i, out, ()| {
                    if i == 0 {
                        return Err("first");
                    }
                    *out = 1;
                    Ok(())
                },
            )
            .unwrap_err();
        assert_eq!(err, "first");
        let written: u32 = buf.iter().sum();
        assert!(
            written >= 599 - 600usize.div_ceil(4 * 4) as u32,
            "only the failing chunk may be cut short (wrote {written})"
        );
    }

    #[test]
    fn shared_executor_serializes_concurrent_dispatches() {
        let _guard = spawn_guard();
        let shared = SharedExecutor::new(2);
        let spawned = shared.threads_spawned();
        let mut results: Vec<Vec<u64>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let shared = shared.clone();
                    s.spawn(move || {
                        let mut buf = vec![0u64; 64];
                        shared.with(|exec| {
                            exec.run_chunked(
                                &mut buf,
                                Chunking::Exact(1),
                                || (),
                                |i, out, ()| {
                                    *out = t * 1000 + i as u64;
                                    Ok::<(), ()>(())
                                },
                            )
                            .unwrap();
                        });
                        buf
                    })
                })
                .collect();
            for h in handles {
                results.push(h.join().unwrap());
            }
        });
        for (t, buf) in results.iter().enumerate() {
            let expect: Vec<u64> = (0..64).map(|i| t as u64 * 1000 + i).collect();
            assert_eq!(buf, &expect, "dispatches interfered");
        }
        // Four concurrent clients, zero extra threads: the pool is shared.
        assert_eq!(shared.threads_spawned(), spawned);
    }

    #[test]
    fn compute_permit_serializes_jobs_and_allows_inner_dispatch() {
        let _guard = spawn_guard();
        let shared = SharedExecutor::new(2);
        let active = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4usize)
                .map(|_| {
                    let shared = shared.clone();
                    let active = Arc::clone(&active);
                    s.spawn(move || {
                        shared.with_compute_permit(|| {
                            // Exactly one job holds the permit at a time.
                            assert_eq!(active.fetch_add(1, Ordering::SeqCst), 0);
                            // Inner dispatch through `with` must not
                            // deadlock — the permit is a separate lock.
                            let mut buf = vec![0u64; 8];
                            shared.with(|exec| {
                                exec.run_chunked(
                                    &mut buf,
                                    Chunking::Exact(1),
                                    || (),
                                    |i, out, ()| {
                                        *out = i as u64;
                                        Ok::<(), ()>(())
                                    },
                                )
                                .unwrap();
                            });
                            active.fetch_sub(1, Ordering::SeqCst);
                            buf
                        })
                    })
                })
                .collect();
            for h in handles {
                let buf = h.join().unwrap();
                assert_eq!(buf, (0..8).collect::<Vec<u64>>());
            }
        });
        assert_eq!(shared.compute_queue_len(), 0);
    }

    #[test]
    fn panicking_job_releases_its_compute_queue_slot() {
        let shared = SharedExecutor::new(1);
        let caught = std::panic::catch_unwind(|| {
            shared.with_compute_permit(|| panic!("job panicked"));
        });
        assert!(caught.is_err());
        assert_eq!(shared.compute_queue_len(), 0);
        assert_eq!(shared.with_compute_permit(|| 7), 7);
        assert_eq!(shared.compute_queue_len(), 0);
    }

    #[test]
    fn process_executor_returns_one_pool() {
        let a = process_executor(2);
        let b = process_executor(7);
        assert_eq!(a.jobs(), b.jobs(), "later callers must reuse the pool");
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
    }
}
