//! `serve_mix`: an in-process `iabc_serve::Server` on `127.0.0.1:0` with a
//! fresh store, driven as a closed loop of `nproc` clients.
//!
//! Every request goes through `iabc_serve::submit`, which opens one
//! connection per request as `iabc submit` does. The schedule is a fixed
//! number of rounds, so counts repeat exactly. Each round starts with a
//! **coalescing burst** (every client submits the same fresh key at once),
//! then every client sends [`REQUESTS_PER_ROUND`] requests drawn from its
//! seeded stream:
//!
//! * **hit** — one of [`HIT_KEYS`] pre-warmed complete/n128 scenarios;
//! * **regen_hit** — the warm 25-id sweep job, the largest frame;
//! * **miss** — a fresh-seed chord/n256 scenario capped at 2000 rounds.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iabc_analysis::sweep::run_experiment_sweep;
use iabc_graph::fingerprint::Fnv64;
use iabc_graph::{generators, parse};
use iabc_serve::job::encode_experiment;
use iabc_serve::json;
use iabc_serve::protocol::{Request, Response};
use iabc_serve::{
    EngineSpec, InputSpec, JobSpec, RunKey, ScenarioSpec, Server, ServerConfig, ServerStats,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{median, median_of, ms, quantile, us, Metric, Outcome, SpanId, Tracer};
use crate::Ctx;

pub const HIT_KEYS: usize = 8;
const HIT_NODES: usize = 128;
const MISS_NODES: usize = 256;
const MISS_SUCCESSORS: usize = 4;
const MISS_ROUNDS: usize = 2000;
/// Requests each client sends between two bursts.
pub const REQUESTS_PER_ROUND: usize = 16;
/// Schedule rounds per requested second (about one second of load per
/// this many rounds on a 2-core host).
const ROUNDS_PER_SECOND: f64 = 8.0;
const P_MISS: f64 = 0.05;
const P_REGEN_HIT: f64 = 0.05;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
const HIT_ADVERSARIES: [&str; 4] = ["constant", "extremes", "pull-high", "random"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    RegenHit,
    Miss,
    Burst,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::RegenHit => "regen_hit",
            Kind::Miss => "miss",
            Kind::Burst => "burst",
        }
    }
}

/// FNV-1a of a tag and numbers: the seed derivation of every generated key.
fn mix(seed: u64, tag: &str, parts: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(seed);
    h.write_str(tag);
    for &p in parts {
        h.write_u64(p);
    }
    h.finish()
}

/// The fixed inputs of one run, all derived from the seed.
struct Inputs {
    hits: Vec<JobSpec>,
    hit_keys: Vec<RunKey>,
    regen: JobSpec,
    regen_key: RunKey,
    chord: String,
    seed: u64,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let complete = parse::to_edge_list(&generators::complete(HIT_NODES));
        let hits: Vec<JobSpec> = (0..HIT_KEYS as u64)
            .map(|k| {
                let s = mix(seed, "hit", &[k]);
                JobSpec::Scenario(ScenarioSpec {
                    graph: complete.clone(),
                    faulty: vec![0],
                    f: 1,
                    rule: "trimmed-mean".into(),
                    quantum: None,
                    adversary: HIT_ADVERSARIES[k as usize % HIT_ADVERSARIES.len()].into(),
                    seed: s,
                    inputs: InputSpec::Seeded(s),
                    epsilon: 1e-6,
                    max_rounds: 1000,
                    engine: EngineSpec::Synchronous,
                })
            })
            .collect();
        let regen = JobSpec::Sweep {
            ids: crate::regen::IDS.iter().map(|id| id.to_string()).collect(),
        };
        Inputs {
            hit_keys: hits
                .iter()
                .map(|j| j.key().expect("valid hit job"))
                .collect(),
            hits,
            regen_key: regen.key().expect("valid sweep job"),
            regen,
            chord: parse::to_edge_list(&generators::chord(MISS_NODES, MISS_SUCCESSORS)),
            seed,
        }
    }

    /// A chord scenario no earlier request has used.
    fn fresh(&self, seed: u64) -> JobSpec {
        JobSpec::Scenario(ScenarioSpec {
            graph: self.chord.clone(),
            faulty: vec![0],
            f: 1,
            rule: "trimmed-mean".into(),
            quantum: None,
            adversary: "random".into(),
            seed,
            inputs: InputSpec::Seeded(seed),
            epsilon: 0.0,
            max_rounds: MISS_ROUNDS,
            engine: EngineSpec::Synchronous,
        })
    }
}

/// A running daemon and the store directory it owns.
struct Daemon {
    addr: String,
    dir: PathBuf,
    thread: JoinHandle<(Server, Result<ServerStats, iabc_serve::ServeError>)>,
}

impl Daemon {
    fn start(ctx: &Ctx, k: usize) -> Daemon {
        let dir = ctx
            .out_dir
            .join(format!("store-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            jobs: ctx.jobs,
            store_dir: dir.clone(),
            accept_limit: None,
            max_connections: 0,
            max_store_bytes: None,
        };
        let mut server = Server::bind(&config).expect("bind the benchmark daemon");
        let addr = server.local_addr().expect("bound address").to_string();
        let thread = std::thread::spawn(move || {
            let stats = server.run();
            (server, stats)
        });
        Daemon { addr, dir, thread }
    }

    fn stop(self) -> (Server, ServerStats, PathBuf) {
        iabc_serve::shutdown(&self.addr).expect("shut the daemon down");
        let (server, stats) = self.thread.join().expect("daemon thread panicked");
        (server, stats.expect("daemon accept loop failed"), self.dir)
    }
}

/// Submits every hit job and the sweep job once (all misses), returning the
/// payloads later requests must repeat.
fn warm(addr: &str, inputs: &Inputs) -> (Vec<Vec<u8>>, Vec<u8>) {
    let hits = inputs
        .hits
        .iter()
        .map(|job| iabc_serve::submit(addr, job).expect("warm hit key").payload)
        .collect();
    let regen = iabc_serve::submit(addr, &inputs.regen)
        .expect("warm sweep job")
        .payload;
    (hits, regen)
}

/// Payload check of one answered request.
pub fn check_payload(what: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: payload of {} bytes differs from the reference ({} bytes)",
            got.len(),
            want.len()
        ))
    }
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    latencies: [Vec<f64>; 4],
    attempted: u64,
    failures: Vec<String>,
    /// Fresh keys this client missed on, with the payload it received.
    fresh: Vec<(JobSpec, Vec<u8>)>,
    /// `(round, cache_hit, payload)` of each burst submit.
    bursts: Vec<(usize, bool, Vec<u8>)>,
    hits_per_key: [u64; HIT_KEYS],
    regen_hits: u64,
    busy: Duration,
}

struct Shared<'a> {
    addr: &'a str,
    inputs: &'a Inputs,
    hit_payloads: &'a [Vec<u8>],
    regen_payload: &'a [u8],
    rounds: usize,
    barrier: Barrier,
    tracer: &'a Tracer,
}

fn client(shared: &Shared<'_>, c: usize) -> ClientLog {
    let inputs = shared.inputs;
    let mut rng = StdRng::seed_from_u64(mix(inputs.seed, "client", &[c as u64]));
    let mut log = ClientLog::default();
    for round in 0..shared.rounds {
        shared.barrier.wait();
        let busy_from = Instant::now();
        let round_span = shared.tracer.open(format!("serve.client.{c}.round"), None);
        let burst = inputs.fresh(mix(inputs.seed, "burst", &[round as u64]));
        send(
            shared,
            &mut log,
            round_span,
            Kind::Burst,
            &burst,
            None,
            round,
        );
        for j in 0..REQUESTS_PER_ROUND {
            let u: f64 = rng.random_range(0.0..1.0);
            if u < P_MISS {
                let spec = inputs.fresh(mix(
                    inputs.seed,
                    "miss",
                    &[c as u64, round as u64, j as u64],
                ));
                send(shared, &mut log, round_span, Kind::Miss, &spec, None, round);
            } else if u < P_MISS + P_REGEN_HIT {
                log.regen_hits += 1;
                let want = Some(shared.regen_payload);
                send(
                    shared,
                    &mut log,
                    round_span,
                    Kind::RegenHit,
                    &inputs.regen,
                    want,
                    round,
                );
            } else {
                let k = rng.random_range(0..HIT_KEYS);
                log.hits_per_key[k] += 1;
                let want = Some(shared.hit_payloads[k].as_slice());
                send(
                    shared,
                    &mut log,
                    round_span,
                    Kind::Hit,
                    &inputs.hits[k],
                    want,
                    round,
                );
            }
        }
        shared.tracer.close(round_span);
        log.busy += busy_from.elapsed();
    }
    log
}

/// One request: timed submit, then the checks that need no other client.
/// `want` is the payload a hit must repeat.
fn send(
    shared: &Shared<'_>,
    log: &mut ClientLog,
    parent: Option<SpanId>,
    kind: Kind,
    job: &JobSpec,
    want: Option<&[u8]>,
    round: usize,
) {
    let start = Instant::now();
    let result = iabc_serve::submit(shared.addr, job);
    let end = Instant::now();
    shared
        .tracer
        .record(format!("serve.submit.{}", kind.name()), parent, start, end);
    log.latencies[kind as usize].push(ms(end - start));
    log.attempted += 1;
    let reply = match result {
        Ok(reply) => reply,
        Err(e) => {
            log.failures
                .push(format!("{} submit failed: {e}", kind.name()));
            return;
        }
    };
    let verdict = match kind {
        Kind::Hit | Kind::RegenHit if !reply.cache_hit => {
            Err(format!("{} answered as a miss", kind.name()))
        }
        Kind::Hit | Kind::RegenHit => check_payload(
            kind.name(),
            &reply.payload,
            want.expect("hits carry a reference"),
        ),
        Kind::Miss if reply.cache_hit => Err("fresh key answered as a hit".into()),
        Kind::Miss => {
            log.fresh.push((job.clone(), reply.payload));
            Ok(())
        }
        Kind::Burst => {
            log.bursts.push((round, reply.cache_hit, reply.payload));
            Ok(())
        }
    };
    if let Err(why) = verdict {
        log.failures.push(why);
    }
}

/// Polls the shared pool's compute queue while the mix runs.
fn sampler(jobs: usize, stop: &AtomicBool, max: &AtomicUsize) {
    let pool = iabc_exec::process_executor(jobs);
    while !stop.load(Ordering::Relaxed) {
        max.fetch_max(pool.compute_queue_len(), Ordering::Relaxed);
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// The reference payload of the sweep job, computed without the daemon:
/// each experiment's `IABCEXP1` record, u32-LE length-prefixed, in
/// registry order.
fn sweep_payload(jobs: usize) -> Vec<u8> {
    let ids: Vec<String> = crate::regen::IDS.iter().map(|id| id.to_string()).collect();
    let (_, outcomes) = run_experiment_sweep(&ids, jobs);
    let mut payload = Vec::new();
    for outcome in outcomes {
        let record = encode_experiment(&outcome.value);
        payload.extend_from_slice(&(record.len() as u32).to_le_bytes());
        payload.extend_from_slice(&record);
    }
    payload
}

fn execute(job: &JobSpec) -> Result<Vec<u8>, String> {
    match job {
        JobSpec::Scenario(spec) => spec.execute().map_err(|e| e.to_string()),
        JobSpec::Sweep { .. } => unreachable!("sweeps are recomputed by sweep_payload"),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome::default();
    let tracer = &ctx.tracer;
    let inputs = Inputs::new(ctx.seed);

    // Set-up: bind, start the accept loop, warm every hit key and the
    // sweep job. Repeated on fresh stores; the last daemon serves the mix.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut warmed = None;
    for k in 0..SETUPS {
        let start = Instant::now();
        let daemon = Daemon::start(ctx, k);
        let payloads = warm(&daemon.addr, &inputs);
        setups.push(start.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            let (_, _, dir) = daemon.stop();
            let _ = std::fs::remove_dir_all(dir);
        } else {
            warmed = Some((daemon, payloads));
        }
    }
    let (daemon, (hit_payloads, regen_payload)) = warmed.expect("at least one set-up");
    let warm_misses = HIT_KEYS + 1;

    let rounds = ((ctx.seconds * ROUNDS_PER_SECOND).round() as usize).max(1);
    let shared = Shared {
        addr: &daemon.addr,
        inputs: &inputs,
        hit_payloads: &hit_payloads,
        regen_payload: &regen_payload,
        rounds,
        barrier: Barrier::new(ctx.clients),
        tracer,
    };
    let stop_sampler = AtomicBool::new(false);
    let queue_max = AtomicUsize::new(0);
    let window = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let sampler = tracer
            .enabled()
            .then(|| s.spawn(|| sampler(ctx.jobs, &stop_sampler, &queue_max)));
        let clients: Vec<_> = (0..ctx.clients)
            .map(|c| {
                let shared = &shared;
                s.spawn(move || client(shared, c))
            })
            .collect();
        let logs = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        stop_sampler.store(true, Ordering::Relaxed);
        if let Some(h) = sampler {
            h.join().expect("sampler thread panicked");
        }
        logs
    });
    let wall = window.elapsed();

    // The absent-key query is the floor under every request: connect,
    // handler thread, one frame each way.
    let query_absent_ms = if tracer.enabled() {
        let absent = RunKey(mix(ctx.seed, "absent", &[]));
        crate::trace::probe(tracer, "serve.client.query_absent", 200, ms, || {
            iabc_serve::query(&daemon.addr, absent)
        })
    } else {
        0.0
    };
    let (server, stats, dir) = daemon.stop();
    let store = server.store();

    // Gather the per-client logs.
    let mut latencies: [Vec<f64>; 4] = Default::default();
    let mut fresh: Vec<(JobSpec, Vec<u8>)> = Vec::new();
    let mut bursts: Vec<(usize, bool, Vec<u8>)> = Vec::new();
    let mut hits_per_key = [0u64; HIT_KEYS];
    let mut regen_hits = 0;
    let mut busy = Duration::ZERO;
    for log in logs {
        for (all, mine) in latencies.iter_mut().zip(log.latencies) {
            all.extend(mine);
        }
        outcome.attempted += log.attempted;
        for why in log.failures {
            outcome.fail(why);
        }
        fresh.extend(log.fresh);
        bursts.extend(log.bursts);
        for (all, mine) in hits_per_key.iter_mut().zip(log.hits_per_key) {
            *all += mine;
        }
        regen_hits += log.regen_hits;
        busy += log.busy;
    }

    // Bursts: one leader per round, byte-identical payloads; the leader's
    // bytes join the fresh keys checked below.
    bursts.sort_by_key(|b| (b.0, b.1));
    for chunk in bursts.chunk_by(|a, b| a.0 == b.0) {
        let round = chunk[0].0;
        let leaders = chunk.iter().filter(|b| !b.1).count();
        if leaders != 1 {
            outcome.fail(format!(
                "burst {round}: {leaders} misses, expected exactly 1"
            ));
        }
        for b in &chunk[1..] {
            if let Err(why) = check_payload("burst follower", &b.2, &chunk[0].2) {
                outcome.fail(why);
            }
        }
        let job = inputs.fresh(mix(inputs.seed, "burst", &[round as u64]));
        fresh.push((job, chunk[0].2.clone()));
    }

    // After the window: every payload must equal the store object and a
    // direct execution of the same spec.
    for (k, job) in inputs.hits.iter().enumerate() {
        let direct = execute(job);
        let stored = store.get(inputs.hit_keys[k]).unwrap_or_default();
        let verdict = check_payload("hit vs store", &stored, &hit_payloads[k])
            .and_then(|()| check_payload("hit vs execute", &direct?, &hit_payloads[k]));
        if let Err(why) = verdict {
            for _ in 0..hits_per_key[k] {
                outcome.fail(why.clone());
            }
        }
    }
    let stored = store.get(inputs.regen_key).unwrap_or_default();
    let verdict = check_payload("regen_hit vs store", &stored, &regen_payload).and_then(|()| {
        check_payload(
            "regen_hit vs sweep",
            &sweep_payload(ctx.jobs),
            &regen_payload,
        )
    });
    if let Err(why) = verdict {
        for _ in 0..regen_hits {
            outcome.fail(why.clone());
        }
    }
    // Direct executions fan out over the host's cores, untimed.
    let per_thread = fresh.len().div_ceil(ctx.jobs).max(1);
    let direct: Vec<Result<Vec<u8>, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = fresh
            .chunks(per_thread)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|(job, _)| tracer.span("serve.job.execute", None, || execute(job)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("execute worker panicked"))
            .collect()
    });
    let mut fresh_keys = HashSet::new();
    for ((job, payload), direct) in fresh.iter().zip(direct) {
        let key = job.key().expect("valid fresh job");
        fresh_keys.insert(key);
        let stored = store.get(key).unwrap_or_default();
        let verdict = check_payload("fresh vs store", &stored, payload)
            .and_then(|()| check_payload("fresh vs execute", &direct?, payload));
        if let Err(why) = verdict {
            outcome.fail(why);
        }
    }
    let misses = stats.job_misses - warm_misses;
    if misses != fresh_keys.len() {
        outcome.fail(format!(
            "daemon computed {misses} misses for {} distinct fresh keys",
            fresh_keys.len()
        ));
    }

    let [hit, regen_hit, miss, burst] = &latencies;
    outcome.setups = setups;
    outcome.op = "hit";
    outcome.latencies_ms = hit.clone();
    outcome.items = latencies.iter().map(Vec::len).sum();
    outcome.busy = wall;
    let tail = vec![
        Metric::sampled("serve.hit_p99_ms", quantile(hit, 0.99), "ms", hit.len()),
        Metric::sampled(
            "serve.regen_hit_p50_ms",
            median(regen_hit),
            "ms",
            regen_hit.len(),
        ),
        Metric::sampled("serve.miss_p50_ms", median(miss), "ms", miss.len()),
        Metric::sampled("serve.burst_p50_ms", median(burst), "ms", burst.len()),
    ];
    outcome.notes.push(format!(
        "{rounds} rounds x {} clients x (1 burst + {REQUESTS_PER_ROUND} requests) in {:.3} s",
        ctx.clients,
        wall.as_secs_f64()
    ));
    for m in tail.iter().filter(|_| !tracer.enabled()) {
        outcome.notes.push(format!(
            "{} = {:.4} {} (n={})",
            m.name,
            m.value,
            m.unit,
            m.samples.unwrap_or(0)
        ));
    }

    if tracer.enabled() {
        let hit_job = &inputs.hits[0];
        let hit_key = inputs.hit_keys[0];
        let submit_frame = Request::Submit(hit_job.clone()).to_json().render();
        let result_frame = |payload: &[u8]| {
            Response::Result {
                cache_hit: true,
                key: hit_key,
                hits: 1,
                misses: 0,
                payload: payload.to_vec(),
            }
            .to_json()
        };
        let hit_frame = result_frame(&hit_payloads[0]);
        let regen_frame = result_frame(&regen_payload);
        let hit_text = hit_frame.render();
        let regen_text = regen_frame.render();
        let parse_response =
            |text: &str| Response::from_json(&json::parse(text).expect("rendered frame parses"));
        let p = |name: &str, reps: usize, scale: crate::trace::Scale, f: &mut dyn FnMut()| {
            crate::trace::probe(tracer, name, reps, scale, f)
        };
        let mut layer = vec![
            Metric::new("serve.client.query_absent_ms", query_absent_ms, "ms"),
            Metric::new(
                "serve.job.key_us.scenario",
                p("serve.job.key.scenario", 100, us, &mut || {
                    hit_job.key().expect("valid");
                }),
                "us",
            ),
            Metric::new(
                "serve.job.key_us.sweep",
                p("serve.job.key.sweep", 1000, us, &mut || {
                    inputs.regen.key().expect("valid");
                }),
                "us",
            ),
            Metric::new(
                "serve.json.request_parse_us.scenario",
                p("serve.json.request_parse.scenario", 100, us, &mut || {
                    let value = json::parse(&submit_frame).expect("rendered frame parses");
                    Request::from_json(&value).expect("valid request");
                }),
                "us",
            ),
            Metric::new(
                "serve.json.render_us.hit",
                p("serve.json.render.hit", 500, us, &mut || {
                    std::hint::black_box(hit_frame.render());
                }),
                "us",
            ),
            Metric::new(
                "serve.json.render_us.regen_hit",
                p("serve.json.render.regen_hit", 50, us, &mut || {
                    std::hint::black_box(regen_frame.render());
                }),
                "us",
            ),
            Metric::new(
                "serve.json.parse_us.hit",
                p("serve.json.parse.hit", 500, us, &mut || {
                    parse_response(&hit_text).expect("valid response");
                }),
                "us",
            ),
            Metric::new(
                "serve.json.parse_us.regen_hit",
                p("serve.json.parse.regen_hit", 50, us, &mut || {
                    parse_response(&regen_text).expect("valid response");
                }),
                "us",
            ),
            Metric::new(
                "serve.store.get_us",
                p("serve.store.get", 500, us, &mut || {
                    store.get(hit_key).expect("stored");
                }),
                "us",
            ),
            Metric::new(
                "serve.store.record_hit_us",
                p("serve.store.record_hit", 500, us, &mut || {
                    store
                        .record_hit(hit_key, ctx.jobs as u32)
                        .expect("journal append");
                }),
                "us",
            ),
        ];
        // Re-inserting the fresh payloads under their own keys repeats the
        // miss path's object write and journal append.
        for (job, payload) in fresh.iter().take(50) {
            let key = job.key().expect("valid fresh job");
            tracer.span("serve.store.insert", None, || {
                store
                    .insert(key, payload, 0, ctx.jobs as u32)
                    .expect("store insert")
            });
        }
        let insert = tracer.durations("serve.store.insert");
        let execute = tracer.durations("serve.job.execute");
        layer.push(Metric::sampled(
            "serve.store.insert_ms",
            median_of(&insert, ms),
            "ms",
            insert.len(),
        ));
        layer.push(Metric::sampled(
            "serve.job.execute_ms",
            median_of(&execute, ms),
            "ms",
            execute.len(),
        ));
        layer.push(Metric::new(
            "exec.compute_queue_max",
            queue_max.load(Ordering::Relaxed) as f64,
            "count",
        ));
        layer.push(Metric::new("serve.misses", misses as f64, "count"));
        let followers = bursts.len() - bursts.iter().filter(|b| !b.1).count();
        layer.push(Metric::new(
            "serve.coalesced_frac",
            stats.job_coalesced as f64 / followers.max(1) as f64,
            "ratio",
        ));
        layer.extend(tail);
        outcome.per_layer = layer;
        let submitted = tracer.total("serve.submit.");
        outcome.notes.push(format!(
            "coverage: sum of serve.submit spans / client busy time = {:.4}",
            submitted.as_secs_f64() / busy.as_secs_f64()
        ));
    }
    drop(server);
    let _ = std::fs::remove_dir_all(dir);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_payload_is_a_failure() {
        let want = vec![1u8, 2, 3, 4];
        assert!(check_payload("x", &want, &want).is_ok());
        let mut got = want.clone();
        got[2] ^= 1;
        assert!(check_payload("x", &got, &want).is_err());
        assert!(check_payload("x", &want[..3], &want).is_err());
    }

    #[test]
    fn keys_are_seeded_and_fresh_keys_distinct() {
        let a = Inputs::new(1);
        let b = Inputs::new(1);
        let c = Inputs::new(2);
        assert_eq!(a.hit_keys, b.hit_keys);
        assert!(a.hit_keys.iter().all(|k| !c.hit_keys.contains(k)));
        assert_eq!(a.hit_keys.iter().collect::<HashSet<_>>().len(), HIT_KEYS);
        let f1 = a.fresh(mix(1, "miss", &[0, 0, 0])).key().unwrap();
        let f2 = a.fresh(mix(1, "miss", &[0, 0, 1])).key().unwrap();
        assert_ne!(f1, f2);
    }

    #[test]
    fn a_corrupted_fresh_payload_fails_the_execute_check() {
        let inputs = Inputs::new(5);
        let job = inputs.fresh(7);
        let mut payload = execute(&job).unwrap();
        assert!(check_payload("fresh", &execute(&job).unwrap(), &payload).is_ok());
        let last = payload.len() - 1;
        payload[last] ^= 0x80;
        assert!(check_payload("fresh", &execute(&job).unwrap(), &payload).is_err());
    }
}
