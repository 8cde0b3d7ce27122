//! The `iabc serve` daemon: a bounded thread-per-connection accept loop
//! over the frame protocol, backed by the content-addressed [`Store`] and
//! the process-level shared executor.
//!
//! # Concurrency model
//!
//! No async runtime (std::net only): the accept loop hands each
//! connection to a spawned handler thread, bounded by a connection
//! semaphore (`max_connections`; `1` reproduces the PR 7 sequential
//! loop). All handlers share one [`Store`] — hits take only its read
//! lock, so any number of cache hits answer concurrently while a miss
//! computes. Misses compute under the shared pool's **job-level compute
//! permit** ([`iabc_exec::SharedExecutor::with_compute_permit`]): one
//! compute lock, many read locks, and the host is never oversubscribed
//! by concurrent misses.
//!
//! # Single-flight
//!
//! N identical in-flight submissions trigger exactly **one** compute:
//! the first becomes the leader and computes; the rest park on a
//! [`SingleFlight`] entry and are served the leader's bytes when it
//! publishes. The journal records exactly one miss (the leader's) and
//! one hit per coalesced follower, and every connection receives a
//! byte-identical payload.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use crate::job::{
    decode_experiment, encode_experiment, experiment_cell_key, resolve_experiment_ids, JobSpec,
};
use crate::protocol::{read_frame, write_frame, Request, Response};
use crate::store::Store;
use crate::ServeError;
use iabc_analysis::experiments::ExperimentResult;
use iabc_analysis::sweep::{run_cells_memo, CellCoords, CellMemo};

/// Default connection-thread bound when the config leaves it at `0`.
pub const DEFAULT_MAX_CONNECTIONS: usize = 8;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Worker budget misses execute with (`0` = all cores). The budget
    /// sizes the *process-level shared pool*, so a daemon and an in-process
    /// sweep never stack their thread counts.
    pub jobs: usize,
    /// Store directory.
    pub store_dir: std::path::PathBuf,
    /// Stop after this many connections (`None` = run until a shutdown
    /// request). CI smoke tests use a bounded accept count for clean exit.
    pub accept_limit: Option<usize>,
    /// Concurrent connection-handler bound (`0` =
    /// [`DEFAULT_MAX_CONNECTIONS`]; `1` = the sequential loop).
    pub max_connections: usize,
    /// Object-byte budget for the store (`None` = unbounded); see
    /// [`Store::open_with_budget`].
    pub max_store_bytes: Option<u64>,
}

/// Counters reported when the accept loop exits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections handled.
    pub connections: usize,
    /// Jobs answered entirely from the store.
    pub job_hits: usize,
    /// Jobs executed.
    pub job_misses: usize,
    /// Jobs coalesced onto an identical in-flight compute (served the
    /// leader's bytes; journaled as hits).
    pub job_coalesced: usize,
    /// Connection handlers that panicked. Each released its connection
    /// permit as it unwound, and the accept loop kept serving.
    pub handler_panics: usize,
}

/// One in-flight compute that identical submissions can park on.
#[derive(Debug, Default)]
struct Flight {
    /// `None` while the leader computes; the published outcome after.
    done: Mutex<Option<Result<FlightResult, ServeError>>>,
    cv: Condvar,
}

#[derive(Debug, Clone)]
struct FlightResult {
    payload: Vec<u8>,
    hits: usize,
    misses: usize,
}

/// The single-flight table: at most one entry per run key is computing
/// at any moment. Construct one per store and pass it to every
/// [`answer_submit`] call that should coalesce.
#[derive(Debug, Default)]
pub struct SingleFlight {
    flights: Mutex<HashMap<u64, Arc<Flight>>>,
}

impl SingleFlight {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A flight leader's duty to publish, discharged on drop: the table entry
/// is removed first, so a submission arriving after the publish finds the
/// store object (already inserted) instead of a dead flight, then every
/// parked follower wakes to the outcome. A leader that unwinds out of its
/// compute publishes [`ServeError::Internal`], so neither its followers
/// nor later identical submissions park on it forever.
struct Publish<'a> {
    flights: &'a SingleFlight,
    key: u64,
    flight: Arc<Flight>,
    outcome: Option<Result<FlightResult, ServeError>>,
}

impl Drop for Publish<'_> {
    fn drop(&mut self) {
        let outcome = self.outcome.take().unwrap_or_else(|| {
            Err(ServeError::Internal(
                "the identical in-flight compute panicked".into(),
            ))
        });
        // No lock is held across a compute, so neither can be poisoned by
        // the unwind this may run in; recover anyway rather than abort.
        self.flights
            .flights
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.key);
        *self
            .flight
            .done
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        self.flight.cv.notify_all();
    }
}

/// How a submission was answered — feeds [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitDisposition {
    /// Served from the store.
    Hit,
    /// Computed fresh (this submission was the flight leader).
    Miss,
    /// Parked on an identical in-flight compute and served its bytes.
    Coalesced,
}

/// A counting semaphore bounding concurrent connection handlers.
#[derive(Debug)]
struct Semaphore {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Semaphore {
    fn new(permits: usize) -> Self {
        Semaphore {
            permits: Mutex::new(permits),
            cv: Condvar::new(),
        }
    }

    fn acquire(self: &Arc<Self>) -> Permit {
        let mut permits = self.permits.lock().unwrap();
        while *permits == 0 {
            permits = self.cv.wait(permits).unwrap();
        }
        *permits -= 1;
        Permit(Arc::clone(self))
    }
}

/// A held connection permit, returned to its [`Semaphore`] on drop, so a
/// handler that unwinds releases it too.
#[derive(Debug)]
struct Permit(Arc<Semaphore>);

impl Drop for Permit {
    fn drop(&mut self) {
        // No code panics while holding this lock; recover anyway rather
        // than abort inside an unwind.
        *self
            .0
            .permits
            .lock()
            .unwrap_or_else(PoisonError::into_inner) += 1;
        self.0.cv.notify_one();
    }
}

/// State shared by the accept loop and every connection handler.
#[derive(Debug)]
struct Shared {
    store: Store,
    flights: SingleFlight,
    jobs: usize,
    stats: Mutex<ServerStats>,
    shutdown: AtomicBool,
    /// Makes the next connection's handler panic on entry.
    #[cfg(test)]
    panic_next_handler: AtomicBool,
}

/// The daemon: a bound listener plus the handler-shared state.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    accept_limit: Option<usize>,
    max_connections: usize,
}

/// A [`CellMemo`] over the store for experiment cells: the same key schema
/// and payload encoding whether the cell is computed by the daemon, by
/// `iabc sweep experiments --store`, or replayed from the journal.
#[derive(Debug)]
pub struct StoreMemo<'a> {
    store: &'a Store,
    jobs: u32,
    started: Instant,
}

impl<'a> StoreMemo<'a> {
    /// Wraps a store; `jobs` is recorded in the journal for provenance.
    pub fn new(store: &'a Store, jobs: usize) -> Self {
        StoreMemo {
            store,
            jobs: jobs as u32,
            started: Instant::now(),
        }
    }
}

impl CellMemo<ExperimentResult> for StoreMemo<'_> {
    fn lookup(&mut self, coords: &CellCoords) -> Option<ExperimentResult> {
        let key = experiment_cell_key(&coords.label());
        let bytes = self.store.get(key)?;
        // An undecodable object (schema drift) falls through to a fresh
        // recomputation, which then overwrites it.
        let result = decode_experiment(&bytes).ok()?;
        let _ = self.store.record_hit(key, self.jobs);
        Some(result)
    }

    fn record(&mut self, coords: &CellCoords, value: &ExperimentResult) {
        let key = experiment_cell_key(&coords.label());
        let wall_ms = self.started.elapsed().as_millis() as u64;
        self.started = Instant::now();
        let _ = self
            .store
            .insert(key, &encode_experiment(value), wall_ms, self.jobs);
    }
}

/// Executes a sweep job's cells against the store, streaming one progress
/// frame per cell, and returns `(payload, hits, misses)`. The payload is
/// the concatenation of the per-experiment `IABCEXP1` records, each
/// u32-LE length-prefixed — stable because the cell order is the canonical
/// resolved id order and each record encoder is deterministic.
fn run_sweep_job(
    store: &Store,
    ids: &[String],
    jobs: usize,
    mut progress: impl FnMut(usize, usize, &str),
) -> Result<(Vec<u8>, usize, usize), ServeError> {
    let resolved = resolve_experiment_ids(ids)?;
    let effective: Vec<String> = if resolved.is_empty() {
        (1..=12).map(|i| format!("E{i}")).collect()
    } else {
        resolved
    };
    let total = effective.len();
    let mut payload = Vec::new();
    let mut hits = 0usize;
    let mut misses = 0usize;
    // One memoized sweep per experiment id, so progress frames interleave
    // with execution instead of arriving all at once.
    for (done, id) in effective.iter().enumerate() {
        progress(done, total, &format!("experiments[id={id}]"));
        let (outcomes, cell_hits, cell_misses) = {
            let mut memo = StoreMemo::new(store, jobs);
            let cells = iabc_analysis::sweep::experiment_cells(std::slice::from_ref(id));
            run_cells_memo(cells, jobs, &mut memo)
        };
        hits += cell_hits;
        misses += cell_misses;
        for outcome in &outcomes {
            let record = encode_experiment(&outcome.value);
            payload.extend_from_slice(&(record.len() as u32).to_le_bytes());
            payload.extend_from_slice(&record);
        }
    }
    progress(total, total, "done");
    Ok((payload, hits, misses))
}

/// Decodes a sweep-job payload back into its per-experiment records.
pub fn decode_sweep_payload(mut bytes: &[u8]) -> Result<Vec<ExperimentResult>, ServeError> {
    let mut results = Vec::new();
    while !bytes.is_empty() {
        if bytes.len() < 4 {
            return Err(ServeError::Job("sweep payload truncated".into()));
        }
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        bytes = &bytes[4..];
        if bytes.len() < len {
            return Err(ServeError::Job("sweep payload truncated".into()));
        }
        results.push(decode_experiment(&bytes[..len])?);
        bytes = &bytes[len..];
    }
    Ok(results)
}

/// Executes one submitted job against the store (shared by the daemon and
/// in-process callers like `iabc perf`'s cache datapoints).
///
/// Hits are pure store reads; misses compute under the shared pool's
/// job-level compute permit and are deduplicated through `flights`: if an
/// identical job is already computing, this call parks until the leader
/// publishes and returns the same bytes as a journaled hit
/// ([`SubmitDisposition::Coalesced`]).
pub fn answer_submit(
    store: &Store,
    flights: &SingleFlight,
    job: &JobSpec,
    jobs: usize,
    mut progress: impl FnMut(usize, usize, &str),
) -> Result<(Response, SubmitDisposition), ServeError> {
    let key = job.key()?;
    if let Some(payload) = store.get(key) {
        store
            .record_hit(key, jobs as u32)
            .map_err(|e| ServeError::Io(e.to_string()))?;
        return Ok((
            Response::Result {
                cache_hit: true,
                key,
                hits: 1,
                misses: 0,
                payload,
            },
            SubmitDisposition::Hit,
        ));
    }
    enum Role {
        Leader(Arc<Flight>),
        Follower(Arc<Flight>),
    }
    let role = {
        let mut map = flights.flights.lock().unwrap();
        match map.entry(key.0) {
            std::collections::hash_map::Entry::Occupied(e) => Role::Follower(Arc::clone(e.get())),
            std::collections::hash_map::Entry::Vacant(v) => {
                Role::Leader(Arc::clone(v.insert(Arc::new(Flight::default()))))
            }
        }
    };
    match role {
        Role::Leader(flight) => {
            let mut publish = Publish {
                flights,
                key: key.0,
                flight,
                outcome: None,
            };
            // Double-check under leadership: a previous leader may have
            // published between this thread's store probe and winning the
            // table slot. Re-probing here makes "exactly one journaled
            // miss per key" a hard invariant, not a likelihood.
            let (outcome, disposition) = match store.get(key) {
                Some(payload) => (
                    store
                        .record_hit(key, jobs as u32)
                        .map_err(|e| ServeError::Io(e.to_string()))
                        .map(|()| FlightResult {
                            payload,
                            hits: 1,
                            misses: 0,
                        }),
                    SubmitDisposition::Hit,
                ),
                None => (
                    compute_and_insert(store, job, key, jobs, &mut progress),
                    SubmitDisposition::Miss,
                ),
            };
            publish.outcome = Some(outcome.clone());
            drop(publish);
            outcome.map(|result| {
                (
                    Response::Result {
                        cache_hit: disposition == SubmitDisposition::Hit,
                        key,
                        hits: result.hits,
                        misses: result.misses,
                        payload: result.payload,
                    },
                    disposition,
                )
            })
        }
        Role::Follower(flight) => {
            let mut done = flight.done.lock().unwrap();
            while done.is_none() {
                done = flight.cv.wait(done).unwrap();
            }
            let outcome = done.as_ref().unwrap().clone();
            drop(done);
            let result = outcome?;
            // The follower was served from (what is now) the store: one
            // journaled hit, byte-identical payload.
            store
                .record_hit(key, jobs as u32)
                .map_err(|e| ServeError::Io(e.to_string()))?;
            Ok((
                Response::Result {
                    cache_hit: true,
                    key,
                    hits: 1,
                    misses: 0,
                    payload: result.payload,
                },
                SubmitDisposition::Coalesced,
            ))
        }
    }
}

/// The leader path: compute the job under the shared pool's compute
/// permit, then insert the payload (exactly one journaled miss).
fn compute_and_insert(
    store: &Store,
    job: &JobSpec,
    key: crate::store::RunKey,
    jobs: usize,
    progress: &mut impl FnMut(usize, usize, &str),
) -> Result<FlightResult, ServeError> {
    let pool = iabc_exec::process_executor(jobs);
    let started = Instant::now();
    let computed = pool.with_compute_permit(|| match job {
        JobSpec::Scenario(spec) => {
            progress(0, 1, "scenario");
            spec.execute().map(|payload| (payload, 0, 1))
        }
        JobSpec::Sweep { ids } => run_sweep_job(store, ids, jobs, &mut *progress),
    });
    let (payload, hits, misses) = computed?;
    let wall_ms = started.elapsed().as_millis() as u64;
    store
        .insert(key, &payload, wall_ms, jobs as u32)
        .map_err(|e| ServeError::Io(e.to_string()))?;
    Ok(FlightResult {
        payload,
        hits,
        misses,
    })
}

/// Handles one accepted connection against the shared state. `addr` is
/// the listener's own address, used to wake a blocked `accept()` when a
/// shutdown request arrives.
fn handle_connection(mut stream: TcpStream, shared: &Shared, addr: SocketAddr) {
    #[cfg(test)]
    if shared.panic_next_handler.swap(false, Ordering::SeqCst) {
        panic!("injected connection handler panic");
    }
    let request = match read_frame(&mut stream) {
        Ok(Some(json)) => Request::from_json(&json),
        Ok(None) => return,
        Err(e) => Err(e),
    };
    match request {
        Ok(Request::Shutdown) => {
            let _ = write_frame(
                &mut stream,
                &Response::Error {
                    message: "shutting down".into(),
                }
                .to_json(),
            );
            shared.shutdown.store(true, Ordering::SeqCst);
            // The accept loop may be parked in accept(); a throwaway
            // connection unblocks it so it can observe the flag.
            let _ = TcpStream::connect(addr);
        }
        Ok(Request::Query(key)) => {
            let response = match shared.store.get(key) {
                Some(payload) => {
                    let _ = shared.store.record_hit(key, shared.jobs as u32);
                    Response::Result {
                        cache_hit: true,
                        key,
                        hits: 1,
                        misses: 0,
                        payload,
                    }
                }
                None => Response::Absent { key },
            };
            let _ = write_frame(&mut stream, &response.to_json());
        }
        Ok(Request::Compact) => {
            let response = match shared.store.compact() {
                Ok(stats) => Response::Compacted {
                    records_before: stats.records_before,
                    records_after: stats.records_after,
                    bytes_before: stats.bytes_before,
                    bytes_after: stats.bytes_after,
                    orphans_removed: stats.orphans_removed,
                },
                Err(e) => Response::Error {
                    message: format!("compaction failed: {e}"),
                },
            };
            let _ = write_frame(&mut stream, &response.to_json());
        }
        Ok(Request::Submit(job)) => {
            let result = answer_submit(
                &shared.store,
                &shared.flights,
                &job,
                shared.jobs,
                |done, total, label| {
                    let _ = write_frame(
                        &mut stream,
                        &Response::Progress {
                            done,
                            total,
                            label: label.to_string(),
                        }
                        .to_json(),
                    );
                },
            );
            match result {
                Ok((response, disposition)) => {
                    {
                        let mut stats = shared.stats.lock().unwrap();
                        match disposition {
                            SubmitDisposition::Hit => stats.job_hits += 1,
                            SubmitDisposition::Miss => stats.job_misses += 1,
                            SubmitDisposition::Coalesced => stats.job_coalesced += 1,
                        }
                    }
                    let _ = write_frame(&mut stream, &response.to_json());
                }
                Err(e) => {
                    let _ = write_frame(
                        &mut stream,
                        &Response::Error {
                            message: e.to_string(),
                        }
                        .to_json(),
                    );
                }
            }
        }
        Err(e) => {
            let _ = write_frame(
                &mut stream,
                &Response::Error {
                    message: e.to_string(),
                }
                .to_json(),
            );
        }
    }
}

/// Joins finished or finishing handlers and counts those that panicked.
fn joined_panics(handles: Vec<std::thread::JoinHandle<()>>) -> usize {
    handles
        .into_iter()
        .map(std::thread::JoinHandle::join)
        .filter(Result::is_err)
        .count()
}

impl Server {
    /// Binds the listener and opens (or creates) the store. Warming the
    /// process pool happens lazily on the first miss.
    pub fn bind(config: &ServerConfig) -> Result<Server, ServeError> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| ServeError::Io(e.to_string()))?;
        let store = Store::open_with_budget(&config.store_dir, config.max_store_bytes)
            .map_err(|e| ServeError::Io(e.to_string()))?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                store,
                flights: SingleFlight::new(),
                jobs: config.jobs,
                stats: Mutex::new(ServerStats::default()),
                shutdown: AtomicBool::new(false),
                #[cfg(test)]
                panic_next_handler: AtomicBool::new(false),
            }),
            accept_limit: config.accept_limit,
            max_connections: if config.max_connections == 0 {
                DEFAULT_MAX_CONNECTIONS
            } else {
                config.max_connections
            },
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        self.listener
            .local_addr()
            .map_err(|e| ServeError::Io(e.to_string()))
    }

    /// Read access to the store (tests inspect journal state through it).
    pub fn store(&self) -> &Store {
        &self.shared.store
    }

    /// Runs the accept loop until the accept limit is reached or a
    /// shutdown request arrives; handlers run on bounded threads and are
    /// all joined before the final counters are returned. A handler that
    /// panics is counted ([`ServerStats::handler_panics`]), not re-raised.
    pub fn run(&mut self) -> Result<ServerStats, ServeError> {
        let addr = self.local_addr()?;
        let semaphore = Arc::new(Semaphore::new(self.max_connections));
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut accepted = 0usize;
        let mut handler_panics = 0usize;
        loop {
            if let Some(limit) = self.accept_limit {
                if accepted >= limit {
                    break;
                }
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let (stream, _) = self
                .listener
                .accept()
                .map_err(|e| ServeError::Io(e.to_string()))?;
            // Responses are single small frames; Nagle would hold them
            // for a delayed-ACK round trip.
            let _ = stream.set_nodelay(true);
            if self.shared.shutdown.load(Ordering::SeqCst) {
                // The wake-up connection from the shutdown handler; not a
                // client, not counted.
                break;
            }
            accepted += 1;
            let permit = semaphore.acquire();
            let shared = Arc::clone(&self.shared);
            handles.push(std::thread::spawn(move || {
                let _permit = permit;
                handle_connection(stream, &shared, addr);
            }));
            // Reap finished handlers so the handle list stays bounded on
            // long-lived daemons.
            let (done, running): (Vec<_>, Vec<_>) =
                handles.drain(..).partition(|h| h.is_finished());
            handles = running;
            handler_panics += joined_panics(done);
        }
        handler_panics += joined_panics(handles);
        let mut stats = *self.shared.stats.lock().unwrap();
        stats.connections = accepted;
        stats.handler_panics = handler_panics;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{EngineSpec, InputSpec, ScenarioSpec};
    use crate::json::Json;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::PathBuf;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A mean-rule scenario on `graph` under the constant adversary.
    fn scenario(graph: &str) -> JobSpec {
        JobSpec::Scenario(ScenarioSpec {
            graph: graph.into(),
            faulty: vec![],
            f: 0,
            rule: "mean".into(),
            quantum: None,
            adversary: "constant".into(),
            seed: 3,
            inputs: InputSpec::Seeded(3),
            epsilon: 1e-6,
            max_rounds: 50,
            engine: EngineSpec::Synchronous,
        })
    }

    type Answer = Result<(Response, SubmitDisposition), ServeError>;

    /// Runs `answer_submit` with a no-op progress callback on its own
    /// thread and waits up to 30 s for its answer. A thread still parked
    /// then is left detached: joining it would hang the test.
    struct Submission(mpsc::Receiver<Answer>, std::thread::JoinHandle<()>);

    impl Submission {
        fn spawn(store: &Arc<Store>, flights: &Arc<SingleFlight>, job: &JobSpec) -> Self {
            let (tx, rx) = mpsc::channel();
            let (store, flights, job) = (Arc::clone(store), Arc::clone(flights), job.clone());
            let handle = std::thread::spawn(move || {
                let _ = tx.send(answer_submit(&store, &flights, &job, 1, |_, _, _| {}));
            });
            Submission(rx, handle)
        }

        fn answer(self) -> Result<Answer, mpsc::RecvTimeoutError> {
            let answer = self.0.recv_timeout(Duration::from_secs(30))?;
            self.1.join().expect("the submitting thread panicked");
            Ok(answer)
        }
    }

    /// A leader whose compute panics (here its progress callback) must
    /// not wedge its key: a follower parked on it receives an internal
    /// error, and the next identical submission computes afresh.
    #[test]
    fn a_panicking_leader_releases_its_followers_and_its_key() {
        let dir = std::env::temp_dir().join(format!("iabc-serve-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let flights = Arc::new(SingleFlight::new());
        let job = scenario("3\n0 1\n1 0\n1 2\n2 1\n");
        let key = job.key().unwrap();
        let expected = match &job {
            JobSpec::Scenario(spec) => spec.execute().unwrap(),
            JobSpec::Sweep { .. } => unreachable!(),
        };

        // The leader's compute waits until a follower holds the flight
        // (the table, the leader and the follower: three owners), then
        // panics.
        let mut follower = None;
        let leader = catch_unwind(AssertUnwindSafe(|| {
            answer_submit(&store, &flights, &job, 1, |_, _, _| {
                follower = Some(Submission::spawn(&store, &flights, &job));
                let parked = || {
                    let map = flights.flights.lock().unwrap();
                    map.get(&key.0).map_or(0, Arc::strong_count) >= 3
                };
                while !parked() {
                    std::thread::yield_now();
                }
                panic!("injected compute failure");
            })
        }));
        assert!(leader.is_err(), "the leader's panic propagates");
        match follower.unwrap().answer() {
            Ok(Err(ServeError::Internal(_))) => {}
            other => panic!("the parked follower got {other:?}"),
        }

        let next = Submission::spawn(&store, &flights, &job)
            .answer()
            .expect("an identical submission after the panic parked");
        match next.unwrap() {
            (
                Response::Result {
                    cache_hit, payload, ..
                },
                disposition,
            ) => {
                assert_eq!(disposition, SubmitDisposition::Miss);
                assert!(!cache_hit);
                assert_eq!(payload, expected);
            }
            (other, _) => panic!("expected a result, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A daemon on an ephemeral loopback port over a fresh store in a
    /// temporary directory named after `name`.
    fn bind_daemon(name: &str, accept_limit: usize, max_connections: usize) -> (Server, PathBuf) {
        let dir = std::env::temp_dir().join(format!("iabc-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            jobs: 1,
            store_dir: dir.clone(),
            accept_limit: Some(accept_limit),
            max_connections,
            max_store_bytes: None,
        };
        (Server::bind(&config).unwrap(), dir)
    }

    /// Hostile submits are answered with error frames over a real socket,
    /// and the same daemon then answers a hit: a graph declaring 5·10⁹
    /// nodes, and a delay bound (it sizes the engine's calendar) of 2^50 as
    /// a JSON number and of `u64::MAX` as the decimal string the wire also
    /// accepts.
    #[test]
    fn hostile_submits_are_error_frames_not_a_dead_daemon() {
        let (mut server, dir) = bind_daemon("hostile", 5, 0);
        let addr = server.local_addr().unwrap().to_string();
        let daemon = std::thread::spawn(move || server.run());

        let good = scenario("3\n0 1\n1 0\n1 2\n2 1\n");
        let delayed = |bound: usize| match &good {
            JobSpec::Scenario(spec) => JobSpec::Scenario(ScenarioSpec {
                engine: EngineSpec::DelayBounded {
                    bound,
                    scheduler: "max".into(),
                    sched_seed: 0,
                },
                ..spec.clone()
            }),
            JobSpec::Sweep { .. } => unreachable!(),
        };
        let refused = |message: &str, cause: &str| {
            assert!(
                message.contains("job error") && message.contains(cause),
                "{message}"
            );
        };
        let first = crate::submit(&addr, &good).unwrap();
        for (job, cause) in [
            (scenario("5000000000\n0 1\n"), "5000000000"),
            (delayed(1 << 50), "delay bound"),
        ] {
            match crate::submit(&addr, &job) {
                Err(ServeError::Server(message)) => refused(&message, cause),
                other => panic!("expected an error frame, got {other:?}"),
            }
        }
        // `JobSpec::to_json` renders the bound as a number, so the string
        // form goes out as a hand-edited frame.
        let string_bound = delayed(1);
        let mut job = string_bound.to_json();
        if let Json::Obj(pairs) = &mut job {
            for (name, value) in pairs.iter_mut() {
                if name == "delay_bound" {
                    *value = Json::u64(u64::MAX);
                }
            }
        }
        let mut stream = TcpStream::connect(&addr).unwrap();
        let request = Json::obj([("type", Json::Str("submit".into())), ("job", job)]);
        write_frame(&mut stream, &request).unwrap();
        let response = loop {
            let frame = read_frame(&mut stream)
                .unwrap()
                .expect("the daemon hung up");
            match Response::from_json(&frame).unwrap() {
                Response::Progress { .. } => continue,
                response => break response,
            }
        };
        match response {
            Response::Error { message } => refused(&message, "delay bound"),
            other => panic!("expected an error frame, got {other:?}"),
        }
        drop(stream);
        let second = crate::submit(&addr, &good).unwrap();
        assert!(!first.cache_hit && second.cache_hit);
        assert_eq!(first.payload, second.payload);

        let stats = daemon.join().unwrap().unwrap();
        assert_eq!(stats.connections, 5);
        assert_eq!((stats.job_misses, stats.job_hits), (1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A handler that panics neither keeps its `--max-conn` permit nor
    /// stops the accept loop: at one permit, the next submit is still
    /// answered, and the panic is counted when the daemon exits.
    #[test]
    fn a_panicking_handler_releases_its_permit_and_the_daemon_serves_on() {
        let (mut server, dir) = bind_daemon("handler-panic", 2, 1);
        server
            .shared
            .panic_next_handler
            .store(true, Ordering::SeqCst);
        let addr = server.local_addr().unwrap().to_string();
        let daemon = std::thread::spawn(move || server.run());

        let good = scenario("3\n0 1\n1 0\n1 2\n2 1\n");
        assert!(
            crate::submit(&addr, &good).is_err(),
            "the panicking handler answered"
        );
        // A leaked permit would park the accept loop for good, so the
        // second submit runs on its own thread, under a deadline.
        let (tx, rx) = mpsc::channel();
        let client = std::thread::spawn(move || {
            let _ = tx.send(crate::submit(&addr, &good));
        });
        let answer = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the submit after a handler panic went unanswered");
        client.join().unwrap();
        assert!(!answer.unwrap().cache_hit);

        let stats = daemon.join().unwrap().unwrap();
        assert_eq!(stats.handler_panics, 1);
        assert_eq!((stats.connections, stats.job_misses), (2, 1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
