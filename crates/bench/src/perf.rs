//! `iabc perf`: the datapoints behind `BENCH_hotpath.json`.
//!
//! Each datapoint times a fast path against the path it replaced, on the
//! same workload, and records the ratio as its `speedup`. `TABLE` holds
//! one entry per datapoint: its JSON key, the rule `--check` matches it
//! by, and the function that measures its quick or full workload. Rows
//! become JSON in one place (`render`), the baseline is read with
//! [`iabc_serve::json::parse`], and `--check` is one loop (`check`): a
//! row regresses when its speedup falls below `baseline × (1 − tolerance)`.

use std::error::Error;
use std::fmt;
use std::time::Instant;

use iabc_analysis::batched::{self, AdversarySpec, SimCell, SimCellSpec};
use iabc_analysis::sweep::CellCoords;
use iabc_core::fastmath::{self, FastRule};
use iabc_core::rules::TrimmedMean;
use iabc_graph::{generators, CompiledTopology, Digraph, NodeSet};
use iabc_runtime::{ConstantLiar, LocalTransport, MultiplexConfig, MultiplexedDeployment};
use iabc_serve::json::{self, Json};
use iabc_serve::protocol::Response;
use iabc_serve::{CompactionStats, InputSpec, JobSpec, ScenarioSpec, ServeError};
use iabc_sim::adversary::ConstantAdversary;
use iabc_sim::fastmath::BatchedSimulation;
use iabc_sim::reference::{ReferenceStepper, ReferenceTrimmedMean};
use iabc_sim::Simulation;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The settings of one `iabc perf` run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Measure the smaller CI workloads.
    pub quick: bool,
    /// Step count of the grid rows and `parallel`, in place of their own.
    pub steps: Option<usize>,
    /// Worker count of the datapoints that run on a pool.
    pub jobs: usize,
}

/// `--check`: the baseline file and the tolerated fractional speedup drop.
#[derive(Debug, Clone, Copy)]
pub struct Gate<'a> {
    /// Path of the baseline `BENCH_hotpath.json`.
    pub baseline: &'a str,
    /// A row regresses below `baseline speedup × (1 − tolerance)`.
    pub tolerance: f64,
}

/// A finished run.
#[derive(Debug)]
pub struct Output {
    /// One line per row for humans, then the check's verdict.
    pub report: String,
    /// The `BENCH_hotpath.json` text.
    pub json: String,
}

/// Why a run failed.
#[derive(Debug)]
pub enum PerfError {
    /// The baseline could not be read.
    Io(String),
    /// A measurement failed, the baseline is no JSON document, or the
    /// check found a regression or nothing to compare.
    Run(String),
}

/// Measures every datapoint and, under a [`Gate`], checks the run against
/// the baseline, which is read and parsed before anything is timed.
///
/// # Errors
///
/// [`PerfError::Io`] when the baseline cannot be read; [`PerfError::Run`]
/// when it is not JSON, a measurement fails, a row regresses, or the check
/// compares nothing.
pub fn run(config: Config, gate: Option<Gate<'_>>) -> Result<Output, PerfError> {
    let baseline = match gate {
        Some(gate) => {
            let text = std::fs::read_to_string(gate.baseline)
                .map_err(|e| PerfError::Io(format!("{}: {e}", gate.baseline)))?;
            Some((gate, parse_baseline(gate.baseline, &text)?))
        }
        None => None,
    };
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let rows = measure(config, host_cores).map_err(|e| PerfError::Run(e.to_string()))?;
    let mut report = format!(
        "hotpath perf ({} workloads, --jobs {}, {host_cores} host core(s)): \
         fast path vs the path it replaced\n",
        mode(config.quick),
        config.jobs
    );
    for (point, row) in &rows {
        report.push_str(&row_line(point, row));
    }
    if let Some((gate, baseline)) = baseline {
        report.push_str(&check(gate, &baseline, &rows, config.jobs)?);
    }
    Ok(Output {
        report,
        json: render(config, host_cores, &rows),
    })
}

fn parse_baseline(path: &str, text: &str) -> Result<Json<'static>, PerfError> {
    json::parse(text).map_err(|e| PerfError::Run(format!("{path}: not a perf baseline: {e}")))
}

/// How `--check` pairs a fresh row with a baseline row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// The baseline's `results` row with the same topology, n and f.
    Grid,
    /// The baseline row under the same key, if it ran at the same `jobs`.
    SameJobs,
    /// The baseline row under the same key, whatever its `jobs`.
    AnyJobs,
    /// Recorded as `"informational": true`, never compared.
    Never,
}

/// One datapoint of `BENCH_hotpath.json`.
struct Datapoint {
    /// Its JSON key; the grid's rows sit under `results`.
    key: &'static str,
    /// How `--check` matches its rows.
    rule: Rule,
    /// Measures its quick or full workload.
    run: fn(&mut Bench) -> Res<Vec<Row>>,
}

/// Every datapoint, in measuring order. The file lists the keyed ones in
/// this order, then the grid under `results`.
#[rustfmt::skip]
static TABLE: [Datapoint; 11] = [
    Datapoint { key: "results", rule: Rule::Grid, run: grid },
    Datapoint { key: "parallel", rule: Rule::SameJobs, run: parallel },
    Datapoint { key: "pool", rule: Rule::SameJobs, run: pool },
    Datapoint { key: "deploy", rule: Rule::SameJobs, run: deploy },
    Datapoint { key: "deploy_scale", rule: Rule::Never, run: deploy_scale },
    Datapoint { key: "serve_cache", rule: Rule::SameJobs, run: serve_cache },
    Datapoint { key: "serve_concurrent", rule: Rule::SameJobs, run: serve_concurrent },
    Datapoint { key: "serve_compaction", rule: Rule::Never, run: serve_compaction },
    Datapoint { key: "fastmath", rule: Rule::SameJobs, run: fastmath },
    Datapoint { key: "replica_batch", rule: Rule::SameJobs, run: replica_batch },
    Datapoint { key: "batched_sweep", rule: Rule::AnyJobs, run: batched_sweep },
];

type Res<T> = Result<T, Box<dyn Error>>;

/// One measured row. The file writes its fields in this order, with
/// `jobs` after `sizes` on keyed rows and the informational marker after
/// that.
#[derive(Debug, Clone, Default, PartialEq)]
struct Row {
    topology: String,
    n: usize,
    f: usize,
    /// Workload sizes after `f`, e.g. `steps`, or `degree` and `rounds`.
    sizes: Vec<(&'static str, usize)>,
    /// This run's measurement is noise: `parallel` on a host with fewer
    /// cores than `--jobs`.
    informational: bool,
    /// What was measured, usually the slow and the fast rate.
    measured: Vec<(&'static str, Value)>,
    speedup: Option<f64>,
}

/// A measured value: a count, or a rate written with three decimals.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Value {
    Count(u64),
    Rate(f64),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Count(v) => write!(f, "{v}"),
            Value::Rate(v) => write!(f, "{v:.3}"),
        }
    }
}

impl Row {
    fn new(topology: &str, n: usize, f: usize, sizes: &[(&'static str, usize)]) -> Row {
        Row {
            topology: topology.to_string(),
            n,
            f,
            sizes: sizes.to_vec(),
            ..Row::default()
        }
    }

    /// Records two rates in file order and the speedup they give.
    fn rates(
        mut self,
        first: (&'static str, f64),
        second: (&'static str, f64),
        speedup: f64,
    ) -> Row {
        self.measured = vec![
            (first.0, Value::Rate(first.1)),
            (second.0, Value::Rate(second.1)),
        ];
        self.speedup = Some(speedup);
        self
    }
}

fn mode(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

fn is_informational(point: &Datapoint, row: &Row) -> bool {
    point.rule == Rule::Never || row.informational
}

/// The `parallel` row measures scheduler timeslicing, not parallelism,
/// when the host cannot run `jobs` workers at once.
fn parallel_speedup_is_informational(host_cores: usize, jobs: usize) -> bool {
    host_cores < jobs
}

/// State the datapoints of one run share.
struct Bench {
    config: Config,
    host_cores: usize,
    /// The concurrent daemon's journal compaction: `serve_concurrent`
    /// measures it, `serve_compaction` records it.
    compaction: Option<CompactionStats>,
}

fn measure(config: Config, host_cores: usize) -> Res<Vec<(&'static Datapoint, Row)>> {
    let mut bench = Bench {
        config,
        host_cores,
        compaction: None,
    };
    let mut rows = Vec::new();
    for point in &TABLE {
        rows.extend((point.run)(&mut bench)?.into_iter().map(|row| (point, row)));
    }
    Ok(rows)
}

/// Writes a run as `BENCH_hotpath.json`: the header, one line per keyed
/// row in table order, then the grid rows under `results`.
fn render(config: Config, host_cores: usize, rows: &[(&Datapoint, Row)]) -> String {
    let mut out = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"mode\": \"{}\",\n  \"unit\": \"steps_per_sec\",\n  \
         \"adversary\": \"constant\",\n  \"host_cores\": {host_cores},\n",
        mode(config.quick)
    );
    let mut grid = Vec::new();
    for (point, row) in rows {
        if point.rule == Rule::Grid {
            grid.push(format!("    {}", row_json(point, row, None)));
        } else {
            let json = row_json(point, row, Some(config.jobs));
            out.push_str(&format!("  \"{}\": {json},\n", point.key));
        }
    }
    out.push_str(&format!(
        "  \"results\": [\n{}\n  ]\n}}\n",
        grid.join(",\n")
    ));
    out
}

fn row_json(point: &Datapoint, row: &Row, jobs: Option<usize>) -> String {
    let mut fields = vec![
        format!("\"topology\": \"{}\"", row.topology),
        format!("\"n\": {}", row.n),
        format!("\"f\": {}", row.f),
    ];
    fields.extend(row.sizes.iter().map(|(k, v)| format!("\"{k}\": {v}")));
    fields.extend(jobs.map(|jobs| format!("\"jobs\": {jobs}")));
    if is_informational(point, row) {
        fields.push("\"informational\": true".into());
    }
    fields.extend(row.measured.iter().map(|(k, v)| format!("\"{k}\": {v}")));
    fields.extend(row.speedup.map(|s| format!("\"speedup\": {s:.3}")));
    format!("{{{}}}", fields.join(", "))
}

/// Names a row in the report and in regressions.
fn label(point: &Datapoint, row: &Row) -> String {
    let workload = format!("{}/n{} f={}", row.topology, row.n, row.f);
    match point.rule {
        Rule::Grid => workload,
        _ => format!("{} {workload}", point.key),
    }
}

fn row_line(point: &Datapoint, row: &Row) -> String {
    let mut line = label(point, row);
    for (k, v) in &row.sizes {
        line.push_str(&format!(" {k}={v}"));
    }
    for (k, v) in &row.measured {
        line.push_str(&format!(" {k}={v}"));
    }
    if let Some(s) = row.speedup {
        line.push_str(&format!(" speedup {s:.2}x"));
    }
    if is_informational(point, row) {
        line.push_str(" [informational]");
    }
    line + "\n"
}

/// `--check`: compares fresh rows with the parsed baseline and returns the
/// verdict line. A row marked informational on either side is never
/// compared, nor is a row the baseline lacks; a check that compares
/// nothing fails.
fn check(
    gate: Gate<'_>,
    baseline: &Json,
    fresh: &[(&Datapoint, Row)],
    jobs: usize,
) -> Result<String, PerfError> {
    let field = |row: &Json, key: &str| row.get(key).and_then(Json::as_usize);
    let mut compared = 0;
    let mut regressions = Vec::new();
    for (point, row) in fresh {
        if is_informational(point, row) {
            continue;
        }
        let base = match point.rule {
            Rule::Grid => baseline
                .get("results")
                .and_then(Json::as_arr)
                .and_then(|results| {
                    results.iter().find(|b| {
                        b.get("topology").and_then(Json::as_str) == Some(row.topology.as_str())
                            && field(b, "n") == Some(row.n)
                            && field(b, "f") == Some(row.f)
                    })
                }),
            Rule::SameJobs => baseline
                .get(point.key)
                .filter(|b| field(b, "jobs") == Some(jobs)),
            Rule::AnyJobs => baseline.get(point.key),
            Rule::Never => None,
        };
        let base = base
            .filter(|b| b.get("informational").and_then(Json::as_bool) != Some(true))
            .and_then(|b| b.get("speedup").and_then(Json::as_f64));
        let (Some(base), Some(speedup)) = (base, row.speedup) else {
            continue;
        };
        compared += 1;
        if speedup < base * (1.0 - gate.tolerance) {
            regressions.push(format!(
                "{}: speedup {speedup:.2}x vs baseline {base:.2}x (tolerance {:.0}%)",
                label(point, row),
                gate.tolerance * 100.0
            ));
        }
    }
    if !regressions.is_empty() {
        return Err(PerfError::Run(format!(
            "perf regression against {} ({compared} workloads compared):\n  {}",
            gate.baseline,
            regressions.join("\n  ")
        )));
    }
    if compared == 0 {
        return Err(PerfError::Run(format!(
            "perf check FAILED: no row of {} matches this run, so nothing was compared",
            gate.baseline
        )));
    }
    Ok(format!(
        "perf check PASSED: {compared} workload(s) within {:.0}% of {}\n",
        gate.tolerance * 100.0,
        gate.baseline
    ))
}

/// Seconds taken by `calls` back-to-back calls of `body`.
fn secs(calls: usize, mut body: impl FnMut() -> Res<()>) -> Res<f64> {
    let start = Instant::now();
    for _ in 0..calls {
        body()?;
    }
    Ok(start.elapsed().as_secs_f64().max(1e-12))
}

/// Calls per second of `body` over `calls` timed calls, after `warmup`
/// untimed ones.
fn per_sec(warmup: usize, calls: usize, mut body: impl FnMut() -> Res<()>) -> Res<f64> {
    for _ in 0..warmup {
        body()?;
    }
    Ok(calls as f64 / secs(calls, body)?)
}

/// The fastest of three timed calls of `body`. Used where one call takes a
/// few milliseconds, too short for a single shot on a shared host.
fn best_of_3(mut body: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        best = best.min(secs(1, &mut body)?);
    }
    Ok(best)
}

fn constant() -> Box<ConstantAdversary> {
    Box::new(ConstantAdversary::new(1e9))
}

/// A grid row's workload: a graph plus the fault bound to run it at.
#[derive(Debug)]
struct Workload {
    /// `{topology}/n{N}`.
    name: String,
    graph: Digraph,
    f: usize,
}

/// The grid rows' workloads: rounds/sec of the synchronous engine at
/// production scale, on three topology families per size:
///
/// * `complete/n{N}`: the dense worst case, `f = (n - 1) / 30` (n = 1000
///   lands on the acceptance workload `f = 33`);
/// * `random/n{N}`: seeded Erdős–Rényi, `f` from the realized minimum
///   in-degree so the trimming rule stays total;
/// * `kite/n{N}`: a lollipop (clique + directed tail), skewed degrees,
///   `f = 0` because tail nodes have in-degree 1.
///
/// `quick` limits sizes to {100, 1000}; the full grid adds n = 5000.
fn hotpath_grid(quick: bool) -> Vec<Workload> {
    let sizes: &[usize] = if quick {
        &[100, 1000]
    } else {
        &[100, 1000, 5000]
    };
    let mut out = Vec::new();
    for &n in sizes {
        out.push(Workload {
            name: format!("complete/n{n}"),
            graph: generators::complete(n),
            f: (n - 1) / 30,
        });
        let p = (20.0 / n as f64).clamp(0.02, 0.3);
        let mut rng = StdRng::seed_from_u64(0xB00B5 ^ n as u64);
        let g = generators::erdos_renyi(n, p, &mut rng);
        let f = g.min_in_degree() / 3;
        out.push(Workload {
            name: format!("random/n{n}"),
            graph: g,
            f,
        });
        let tail = n / 10;
        out.push(Workload {
            name: format!("kite/n{n}"),
            graph: generators::lollipop(n - tail, tail),
            f: 0,
        });
    }
    out
}

/// Initial states of the engine rows: a fixed spread over `[0, 100]`.
fn hotpath_inputs(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i % 101) as f64).collect()
}

/// Fault placement of the engine rows: the `f` highest-numbered nodes.
fn hotpath_faults(n: usize, f: usize) -> NodeSet {
    NodeSet::from_indices(n, n - f..n)
}

/// The compiled synchronous engine against the retained pre-refactor
/// reference stepper, on each workload of [`hotpath_grid`].
fn grid(bench: &mut Bench) -> Res<Vec<Row>> {
    let Config { quick, steps, .. } = bench.config;
    let mut rows = Vec::new();
    for w in hotpath_grid(quick) {
        let n = w.graph.node_count();
        let steps = steps.unwrap_or(if n >= 5000 { 4 } else { 40 }).max(1);
        let inputs = hotpath_inputs(n);
        let faults = hotpath_faults(n, w.f);
        let rule = TrimmedMean::new(w.f);
        let mut sim = Simulation::new(&w.graph, &inputs, faults.clone(), &rule, constant())?;
        let compiled = per_sec(2, steps, || Ok(sim.step().map(drop)?))?;
        let slow_rule = ReferenceTrimmedMean::new(w.f);
        let mut sim = ReferenceStepper::new(&w.graph, &inputs, faults, &slow_rule, constant())?;
        let reference = per_sec(2, steps, || Ok(sim.step()?))?;
        let topology = w.name.split('/').next().unwrap_or(&w.name);
        rows.push(Row::new(topology, n, w.f, &[("steps", steps)]).rates(
            ("compiled_steps_per_sec", compiled),
            ("reference_steps_per_sec", reference),
            compiled / reference,
        ));
    }
    Ok(rows)
}

/// The same compiled engine at `--jobs` workers vs one, on the dense
/// complete graph (n = 10⁴ full, 10³ quick). The trajectories are
/// bit-identical, so only the worker count differs.
fn parallel(bench: &mut Bench) -> Res<Vec<Row>> {
    let Config { quick, steps, jobs } = bench.config;
    let n = if quick { 1_000 } else { 10_000 };
    let f = (n - 1) / 30;
    let steps = steps.unwrap_or(if quick { 10 } else { 3 }).max(1);
    let graph = generators::complete(n);
    let inputs = hotpath_inputs(n);
    let rule = TrimmedMean::new(f);
    let rate = |engine_jobs: usize| -> Res<f64> {
        let mut sim = Simulation::new(&graph, &inputs, hotpath_faults(n, f), &rule, constant())?
            .with_jobs(engine_jobs);
        per_sec(1, steps, || Ok(sim.step().map(drop)?))
    };
    let serial = rate(1)?;
    let pooled = rate(jobs)?;
    let mut row = Row::new("complete", n, f, &[("steps", steps)]).rates(
        ("serial_steps_per_sec", serial),
        ("parallel_steps_per_sec", pooled),
        pooled / serial,
    );
    row.informational = parallel_speedup_is_informational(bench.host_cores, jobs);
    Ok(vec![row])
}

/// The retained worker pool vs respawning it before every step, at small
/// n where one round is tens of microseconds and the spawn cost
/// dominates. Not governed by `--steps`: the signal is the per-step cost
/// over many rounds, and at 5–20 steps the millisecond window would be
/// scheduler noise.
fn pool(bench: &mut Bench) -> Res<Vec<Row>> {
    let Config { quick, jobs, .. } = bench.config;
    let n = if quick { 64 } else { 128 };
    let f = n / 30;
    let steps = if quick { 300 } else { 1_000 };
    let graph = generators::complete(n);
    let inputs = hotpath_inputs(n);
    let rule = TrimmedMean::new(f);
    let build = || -> Res<_> {
        Ok(
            Simulation::new(&graph, &inputs, hotpath_faults(n, f), &rule, constant())?
                .with_jobs(jobs),
        )
    };
    let mut sim = build()?;
    let pooled = per_sec(1, steps, || Ok(sim.step().map(drop)?))?;
    let mut sim = build()?;
    sim.step()?;
    let respawn = steps as f64
        / secs(steps, || {
            sim.set_jobs(jobs); // drops and respawns the pool
            Ok(sim.step().map(drop)?)
        })?;
    Ok(vec![Row::new("complete", n, f, &[("steps", steps)]).rates(
        ("pooled_steps_per_sec", pooled),
        ("respawn_steps_per_sec", respawn),
        pooled / respawn,
    )])
}

const DEPLOY_F: usize = 2;
const DEPLOY_DEGREE: usize = 8;

/// Initial states of the deployment and replica rows.
fn spread_inputs(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 37) % 1000) as f64).collect()
}

/// Rounds/sec of a whole multiplexed deployment on the circulant
/// workload, construction included.
fn multiplexed_rate(n: usize, rounds: usize, jobs: usize) -> Res<f64> {
    let topology =
        CompiledTopology::circulant(n, DEPLOY_DEGREE, &NodeSet::from_indices(n, 0..DEPLOY_F));
    let inputs = spread_inputs(n);
    let secs = secs(1, || {
        let config = MultiplexConfig {
            jobs,
            shared_pool: true,
            ..Default::default()
        };
        let liar = |_| Box::new(ConstantLiar { value: 1e6 }) as _;
        MultiplexedDeployment::new(
            &topology,
            &inputs,
            DEPLOY_F,
            rounds,
            liar,
            LocalTransport,
            config,
        )?
        .run()?;
        Ok(())
    })?;
    Ok(rounds as f64 / secs)
}

/// The runtime's two deployment tiers on the same circulant workload: n
/// OS threads with channels vs a `--jobs` pool with mailboxes. Whole
/// deployments are timed, construction included, because thread spawn is
/// the threaded tier's cost model.
fn deploy(bench: &mut Bench) -> Res<Vec<Row>> {
    let Config { quick, jobs, .. } = bench.config;
    let n = if quick { 512 } else { 4_096 };
    let rounds = if quick { 10 } else { 20 };
    let inputs = spread_inputs(n);
    let faults = NodeSet::from_indices(n, 0..DEPLOY_F);
    let graph = generators::circulant(n, 1..=DEPLOY_DEGREE);
    let threaded = rounds as f64
        / secs(1, || {
            let liar = |_| Box::new(ConstantLiar { value: 1e6 }) as _;
            iabc_runtime::run_threaded(&graph, &inputs, &faults, DEPLOY_F, rounds, liar)?;
            Ok(())
        })?;
    let multiplexed = multiplexed_rate(n, rounds, jobs)?;
    let sizes = [("degree", DEPLOY_DEGREE), ("rounds", rounds)];
    Ok(vec![Row::new("circulant", n, DEPLOY_F, &sizes).rates(
        ("threaded_steps_per_sec", threaded),
        ("multiplexed_steps_per_sec", multiplexed),
        multiplexed / threaded,
    )])
}

/// The multiplexed tier alone, at an n no threaded deployment could host.
/// An absolute rate is not machine-portable, so it is never compared.
fn deploy_scale(bench: &mut Bench) -> Res<Vec<Row>> {
    let n = if bench.config.quick { 20_000 } else { 100_000 };
    let rounds = 10;
    let rate = multiplexed_rate(n, rounds, bench.config.jobs)?;
    let sizes = [("degree", DEPLOY_DEGREE), ("rounds", rounds)];
    let mut row = Row::new("circulant", n, DEPLOY_F, &sizes);
    row.measured = vec![("multiplexed_steps_per_sec", Value::Rate(rate))];
    Ok(vec![row])
}

/// Size of the serving rows' scenario graph: the same in quick and full
/// mode, because the warm/cold ratio grows with the cold job's engine
/// time and a quick run is checked against the full baseline.
const SERVE_N: usize = 128;
const SERVE_F: usize = 4;

/// A `trimmed-mean` scenario on the serving rows' complete graph.
fn serve_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        graph: iabc_graph::parse::to_edge_list(&generators::complete(SERVE_N)),
        faulty: (0..SERVE_F).collect(),
        f: SERVE_F,
        rule: "trimmed-mean".into(),
        quantum: None,
        adversary: "constant".into(),
        seed,
        inputs: InputSpec::Seeded(seed),
        epsilon: 1e-9,
        max_rounds: 400,
        engine: iabc_serve::EngineSpec::Synchronous,
    }
}

/// A fresh scratch store directory. The name carries the process id and a
/// per-call counter, so two runs in one process never share a store.
fn scratch_store(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("iabc-perf-{tag}-{}-{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The same batch of scenario jobs submitted cold, then warm, through the
/// daemon's own `answer_submit` against a scratch store (no socket: the
/// store and executor are what is measured). The warm payloads must equal
/// the cold ones.
fn serve_cache(bench: &mut Bench) -> Res<Vec<Row>> {
    let batch = 6;
    let dir = scratch_store("serve");
    let store = iabc_serve::Store::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let flights = iabc_serve::SingleFlight::new();
    let jobs: Vec<JobSpec> = (0..batch as u64)
        .map(|seed| JobSpec::Scenario(serve_spec(seed)))
        .collect();
    let submit_all = |payloads: &mut Vec<Vec<u8>>| {
        secs(1, || {
            for job in &jobs {
                let (response, _) = iabc_serve::server::answer_submit(
                    &store,
                    &flights,
                    job,
                    bench.config.jobs,
                    |_, _, _| {},
                )?;
                let Response::Result { payload, .. } = response else {
                    return Err("submit did not return a result".into());
                };
                payloads.push(payload);
            }
            Ok(())
        })
    };
    let (mut cold_payloads, mut warm_payloads) = (Vec::new(), Vec::new());
    let cold = batch as f64 / submit_all(&mut cold_payloads)?;
    let warm = batch as f64 / submit_all(&mut warm_payloads)?;
    if cold_payloads != warm_payloads {
        return Err("serve cache datapoint: warm payloads differ from cold payloads".into());
    }
    let _ = std::fs::remove_dir_all(&dir);
    let row = Row::new("complete", SERVE_N, SERVE_F, &[("batch", batch)]);
    Ok(vec![row.rates(
        ("cold_jobs_per_sec", cold),
        ("warm_hits_per_sec", warm),
        warm / cold,
    )])
}

/// Hit clients keep being answered while one expensive miss holds the
/// compute permit. Both sides run the real daemon over loopback with the
/// same workload; only `--max-conn` differs (1 is the old sequential
/// accept loop, where every hit queues behind the miss). Every hit
/// payload must equal the stored object. The concurrent side then
/// compacts its journal for `serve_compaction`.
fn serve_concurrent(bench: &mut Bench) -> Res<Vec<Row>> {
    let clients = 4;
    let hits_per_client = 10;
    let hit_job = JobSpec::Scenario(serve_spec(101));
    // On a complete graph every adversary reaches exact equality in about a
    // dozen rounds, so the slow miss is a sparse chord graph (one hop per
    // round) under the random adversary, with epsilon 0 stepping it to a
    // round cap sized to outlast the hit barrage even on a fast host.
    let miss_job = JobSpec::Scenario(ScenarioSpec {
        graph: iabc_graph::parse::to_edge_list(&generators::chord(512, 4)),
        faulty: vec![0],
        f: 1,
        adversary: "random".into(),
        epsilon: 0.0,
        max_rounds: 40_000,
        ..serve_spec(102)
    });
    let jobs = bench.config.jobs;
    let tier = |max_connections: usize| -> Res<(f64, CompactionStats)> {
        let dir = scratch_store(&format!("serve-conc{max_connections}"));
        let config = iabc_serve::ServerConfig {
            addr: "127.0.0.1:0".into(),
            jobs,
            store_dir: dir.clone(),
            accept_limit: None,
            max_connections,
            max_store_bytes: None,
        };
        let mut server = iabc_serve::Server::bind(&config)?;
        let addr = server.local_addr()?.to_string();
        let daemon = std::thread::spawn(move || server.run());
        // One journaled miss pins the hit job's payload.
        let warm = iabc_serve::submit(&addr, &hit_job)?;
        // The sleep lets the miss take the compute permit before the hit
        // clients arrive.
        let miss = std::thread::spawn({
            let (addr, job) = (addr.clone(), miss_job.clone());
            move || iabc_serve::submit(&addr, &job)
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut hit_payloads = Vec::new();
        let elapsed = secs(1, || {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let (addr, job) = (addr.clone(), hit_job.clone());
                    std::thread::spawn(move || -> Result<Vec<Vec<u8>>, ServeError> {
                        (0..hits_per_client)
                            .map(|_| iabc_serve::submit(&addr, &job).map(|o| o.payload))
                            .collect()
                    })
                })
                .collect();
            for handle in handles {
                hit_payloads.extend(handle.join().expect("hit client panicked")?);
            }
            Ok(())
        })?;
        miss.join().expect("miss client panicked")?;
        let stored =
            iabc_serve::query(&addr, warm.key)?.ok_or("serve concurrent: warmed key absent")?;
        if stored != warm.payload || hit_payloads.iter().any(|p| *p != stored) {
            return Err("serve concurrent datapoint: hit payloads differ from the store".into());
        }
        let stats = iabc_serve::compact(&addr)?;
        iabc_serve::shutdown(&addr)?;
        let _ = daemon.join();
        let _ = std::fs::remove_dir_all(&dir);
        Ok(((clients * hits_per_client) as f64 / elapsed, stats))
    };
    let (sequential, _) = tier(1)?;
    let (concurrent, stats) = tier(clients + 1)?;
    bench.compaction = Some(stats);
    let sizes = [("clients", clients), ("hits", clients * hits_per_client)];
    Ok(vec![Row::new("complete", SERVE_N, SERVE_F, &sizes).rates(
        ("sequential_hits_per_sec", sequential),
        ("concurrent_hits_per_sec", concurrent),
        concurrent / sequential,
    )])
}

/// The concurrent run's journal (both misses plus every journaled hit)
/// rewritten to one record per live object. The ratio measures workload
/// shape, not speed, so it is never compared.
fn serve_compaction(bench: &mut Bench) -> Res<Vec<Row>> {
    let stats = bench
        .compaction
        .take()
        .ok_or("serve_compaction: serve_concurrent recorded no compaction")?;
    let mut row = Row::new("complete", SERVE_N, SERVE_F, &[]);
    row.measured = vec![
        ("records_before", Value::Count(stats.records_before as u64)),
        ("records_after", Value::Count(stats.records_after as u64)),
        ("journal_bytes_before", Value::Count(stats.bytes_before)),
        ("journal_bytes_after", Value::Count(stats.bytes_after)),
        (
            "compaction_ratio",
            Value::Rate(stats.records_before as f64 / (stats.records_after as f64).max(1.0)),
        ),
    ];
    Ok(vec![row])
}

/// Pseudo-random sort keys for the fast-tier columns.
fn sort_values(len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 * 1e-12)
        .collect()
}

const FASTMATH_F: usize = 2;

/// The columnar sort (the vertical compare-exchange merge network across
/// 32 replica lanes, at in-degree 64) against per-lane exact sorting, the
/// trim kernel's own sort, on the same slot-major data. Sorting dominates
/// the trim kernel, and lane batching is where the fast tier wins.
fn fastmath(bench: &mut Bench) -> Res<Vec<Row>> {
    let quick = bench.config.quick;
    let (lanes, len) = (32, 64);
    let blocks = if quick { 200 } else { 800 };
    let reps = if quick { 10 } else { 25 };
    let columns = sort_values(blocks * len * lanes);
    // Each side makes one untimed pass first; a pass sorts every lane of
    // every block once.
    let sorts = (blocks * lanes) as f64;
    let mut rowbuf = vec![0.0f64; len];
    let mut exact_pass = || {
        for src in columns.chunks_exact(len * lanes) {
            for lane in 0..lanes {
                for (s, slot) in rowbuf.iter_mut().enumerate() {
                    *slot = src[s * lanes + lane];
                }
                rowbuf.sort_unstable_by(f64::total_cmp);
                std::hint::black_box(&rowbuf);
            }
        }
        Ok(())
    };
    let exact = per_sec(1, reps, &mut exact_pass)? * sorts;
    let mut block = vec![0.0f64; len * lanes];
    let mut columnar_pass = || {
        for src in columns.chunks_exact(len * lanes) {
            block.copy_from_slice(src);
            fastmath::sort_columns_total_fast(&mut block, lanes);
            std::hint::black_box(&block);
        }
        Ok(())
    };
    let fast = per_sec(1, reps, &mut columnar_pass)? * sorts;
    let row = Row::new(
        "columns",
        len,
        FASTMATH_F,
        &[("lanes", lanes), ("blocks", blocks)],
    );
    Ok(vec![row.rates(
        ("exact_updates_per_sec", exact),
        ("fast_updates_per_sec", fast),
        fast / exact,
    )])
}

/// R same-topology replicas advanced by one replica-major SoA engine (one
/// CSR row walk feeds all R lanes) against R dispatched exact engines,
/// construction included on both sides, both serial: the ratio isolates
/// batching. In-degree 16 keeps rows on the vertical sorting network,
/// where batching pays.
fn replica_batch(bench: &mut Bench) -> Res<Vec<Row>> {
    let quick = bench.config.quick;
    let replicas = 32;
    let n = if quick { 256 } else { 512 };
    let f = 2;
    let rounds = if quick { 20 } else { 40 };
    let graph = generators::circulant(n, 1..=16);
    let faults = hotpath_faults(n, f);
    let inputs = spread_inputs(n * replicas);
    let batched = best_of_3(|| {
        let rule = FastRule::TrimmedMean(f);
        let mut batch =
            BatchedSimulation::new(&graph, &inputs, faults.clone(), rule, replicas, |_| {
                constant()
            })?;
        for _ in 0..rounds {
            batch.step()?;
        }
        Ok(())
    })?;
    let dispatched = best_of_3(|| {
        for r in 0..replicas {
            let rule = TrimmedMean::new(f);
            let replica_inputs: Vec<f64> = (0..n).map(|i| inputs[i * replicas + r]).collect();
            let mut sim =
                Simulation::new(&graph, &replica_inputs, faults.clone(), &rule, constant())?;
            for _ in 0..rounds {
                sim.step()?;
            }
        }
        Ok(())
    })?;
    let steps = (rounds * replicas) as f64;
    let (batched, dispatched) = (steps / batched, steps / dispatched);
    let row = Row::new(
        "circulant",
        n,
        f,
        &[("replicas", replicas), ("rounds", rounds)],
    );
    Ok(vec![row.rates(
        ("dispatch_replica_steps_per_sec", dispatched),
        ("batched_replica_steps_per_sec", batched),
        batched / dispatched,
    )])
}

/// A same-topology census slice of 32 cells, differing only in their
/// coordinate seeds, run per cell vs grouped into one width-32 replica
/// batch (as `sweep census --replicas` groups them), both on one worker.
/// The results must be identical. The in-degree puts every row on the
/// merge-network path and the constant adversary takes the shared-plan
/// path, as a real census does.
fn batched_sweep(bench: &mut Bench) -> Res<Vec<Row>> {
    let quick = bench.config.quick;
    let cells = 32;
    let n = if quick { 48 } else { 96 };
    let f = n / 30;
    let rounds = if quick { 8 } else { 15 };
    let spec = SimCellSpec {
        topology: batched::Topology::Complete(n),
        f,
        rule: FastRule::TrimmedMean(f),
        adversary: AdversarySpec::Constant(1e9),
        // Epsilon 0 steps every cell to the round cap: fixed work on both
        // sides.
        epsilon: 0.0,
        max_rounds: rounds,
    };
    let slice: Vec<SimCell> = (0..cells)
        .map(|i| SimCell {
            coords: CellCoords::new("bench-batched-sweep").with("i", i),
            spec: spec.clone(),
        })
        .collect();
    // Best of three, the two sides interleaved.
    let (mut dispatch_secs, mut grouped_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let (mut dispatched, mut grouped) = (Vec::new(), Vec::new());
        dispatch_secs = dispatch_secs.min(secs(1, || {
            dispatched = batched::run_sim_cells(&slice, 1, false);
            Ok(())
        })?);
        grouped_secs = grouped_secs.min(secs(1, || {
            grouped = batched::run_sim_cells(&slice, 1, true);
            Ok(())
        })?);
        if !dispatched
            .iter()
            .map(|o| &o.value)
            .eq(grouped.iter().map(|o| &o.value))
        {
            return Err("batched sweep datapoint: grouped results differ from dispatched".into());
        }
    }
    let (dispatched, grouped) = (cells as f64 / dispatch_secs, cells as f64 / grouped_secs);
    let row = Row::new("complete", n, f, &[("cells", cells), ("rounds", rounds)]);
    Ok(vec![row.rates(
        ("dispatch_cells_per_sec", dispatched),
        ("batched_cells_per_sec", grouped),
        grouped / dispatched,
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    const COMMITTED: &str = include_str!("../../../BENCH_hotpath.json");
    const GATE: Gate<'static> = Gate {
        baseline: "B.json",
        tolerance: 0.5,
    };

    fn point(key: &str) -> &'static Datapoint {
        TABLE.iter().find(|p| p.key == key).expect("a table key")
    }

    /// Fresh quick-mode rows, one per quick grid workload and datapoint,
    /// each at speedup 100: above every committed speedup, and below half
    /// of a thousandfold one.
    fn quick_rows(parallel_informational: bool) -> Vec<(&'static Datapoint, Row)> {
        let grid = [
            ("complete", 100, 3),
            ("random", 100, 3),
            ("kite", 100, 0),
            ("complete", 1000, 33),
            ("random", 1000, 1),
            ("kite", 1000, 0),
        ];
        let keyed = [
            ("parallel", "complete", 1000, 33),
            ("pool", "complete", 64, 2),
            ("deploy", "circulant", 512, 2),
            ("deploy_scale", "circulant", 20_000, 2),
            ("serve_cache", "complete", 128, 4),
            ("serve_concurrent", "complete", 128, 4),
            ("serve_compaction", "complete", 128, 4),
            ("fastmath", "columns", 64, 2),
            ("replica_batch", "circulant", 256, 2),
            ("batched_sweep", "complete", 48, 1),
        ];
        let grid = grid.map(|(topology, n, f)| ("results", topology, n, f));
        grid.into_iter()
            .chain(keyed)
            .map(|(key, topology, n, f)| {
                let row = Row {
                    informational: key == "parallel" && parallel_informational,
                    speedup: Some(100.0),
                    ..Row::new(topology, n, f, &[])
                };
                (point(key), row)
            })
            .collect()
    }

    fn fields<'v, 'a>(v: &'v mut Json<'a>) -> &'v mut Vec<(Cow<'a, str>, Json<'a>)> {
        match v {
            Json::Obj(pairs) => pairs,
            other => panic!("not an object: {other:?}"),
        }
    }

    /// The committed baseline with row `key`'s speedup (the first grid
    /// row's, for `results`) multiplied by 1000, or set to 1000 where it
    /// records none. `enforce` drops the row's informational marker.
    fn thousandfold(key: &str, enforce: bool) -> Json<'static> {
        let mut baseline = json::parse(COMMITTED).unwrap();
        let row = &mut fields(&mut baseline)
            .iter_mut()
            .find(|(k, _)| k == key)
            .unwrap()
            .1;
        let row = fields(match row {
            Json::Arr(rows) => &mut rows[0],
            row => row,
        });
        if enforce {
            row.retain(|(k, _)| k != "informational");
        }
        match row.iter_mut().find(|(k, _)| k == "speedup") {
            Some((_, Json::Num(speedup))) => *speedup *= 1000.0,
            _ => row.push(("speedup".into(), Json::Num(1000.0))),
        }
        baseline
    }

    fn verdict(
        baseline: &Json,
        fresh: &[(&Datapoint, Row)],
        jobs: usize,
    ) -> Result<String, String> {
        check(GATE, baseline, fresh, jobs).map_err(|e| format!("{e:?}"))
    }

    const PASSED_13: &str = "perf check PASSED: 13 workload(s) within 50% of B.json\n";

    /// `json.dump(indent=2)`'s layout: one member per line, nested.
    fn reindent(v: &Json, depth: usize) -> String {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match v {
            Json::Obj(pairs) => {
                let members: Vec<String> = pairs
                    .iter()
                    .map(|(k, v)| format!("{pad}\"{k}\": {}", reindent(v, depth + 1)))
                    .collect();
                format!("{{\n{}\n{close}}}", members.join(",\n"))
            }
            Json::Arr(items) => {
                let items: Vec<String> = items
                    .iter()
                    .map(|v| format!("{pad}{}", reindent(v, depth + 1)))
                    .collect();
                format!("[\n{}\n{close}]", items.join(",\n"))
            }
            Json::Num(x) if x.fract() == 0.0 => format!("{}", *x as i64),
            other => other.render(),
        }
    }

    #[test]
    fn committed_baseline_and_its_reindented_form_compare_the_same_13_rows() {
        let committed = parse_baseline("B.json", COMMITTED).unwrap();
        let reindented = reindent(&committed, 0);
        assert_ne!(reindented, COMMITTED);
        let reindented = parse_baseline("B.json", &reindented).unwrap();
        let fresh = quick_rows(true);
        assert_eq!(verdict(&committed, &fresh, 4).as_deref(), Ok(PASSED_13));
        assert_eq!(verdict(&reindented, &fresh, 4).as_deref(), Ok(PASSED_13));
        // An enforced fresh `parallel` row finds only an informational
        // baseline row, so it is not compared either.
        assert_eq!(
            verdict(&committed, &quick_rows(false), 4).as_deref(),
            Ok(PASSED_13)
        );
    }

    #[test]
    fn a_thousandfold_baseline_speedup_fails_exactly_its_row() {
        for (key, label) in [
            ("results", "complete/n100 f=3"),
            ("pool", "pool complete/n64 f=2"),
            ("deploy", "deploy circulant/n512 f=2"),
            ("serve_cache", "serve_cache complete/n128 f=4"),
            ("serve_concurrent", "serve_concurrent complete/n128 f=4"),
            ("fastmath", "fastmath columns/n64 f=2"),
            ("replica_batch", "replica_batch circulant/n256 f=2"),
            ("batched_sweep", "batched_sweep complete/n48 f=1"),
            ("parallel", "parallel complete/n1000 f=33"),
        ] {
            let enforce = key == "parallel";
            let err = verdict(&thousandfold(key, enforce), &quick_rows(false), 4).unwrap_err();
            let compared = if enforce { 14 } else { 13 };
            assert!(
                err.contains(&format!(
                    "perf regression against B.json ({compared} workloads"
                )),
                "{key}: {err}"
            );
            assert!(
                err.contains(&format!("{label}: speedup 100.00x")),
                "{key}: {err}"
            );
            assert_eq!(err.matches(": speedup").count(), 1, "{key}: {err}");
        }
    }

    #[test]
    fn informational_rows_are_never_compared() {
        for key in ["deploy_scale", "serve_compaction", "parallel"] {
            let baseline = thousandfold(key, false);
            assert_eq!(
                verdict(&baseline, &quick_rows(false), 4).as_deref(),
                Ok(PASSED_13),
                "{key}"
            );
        }
        // Enforced in the baseline, but noise on this host.
        let baseline = thousandfold("parallel", true);
        assert_eq!(
            verdict(&baseline, &quick_rows(true), 4).as_deref(),
            Ok(PASSED_13)
        );
    }

    #[test]
    fn a_jobs_mismatch_skips_the_jobs_rows_but_not_batched_sweep() {
        let passed_7 = "perf check PASSED: 7 workload(s) within 50% of B.json\n";
        let fresh = quick_rows(false);
        for key in [
            "pool",
            "deploy",
            "serve_cache",
            "serve_concurrent",
            "fastmath",
            "replica_batch",
        ] {
            let baseline = thousandfold(key, false);
            assert_eq!(
                verdict(&baseline, &fresh, 2).as_deref(),
                Ok(passed_7),
                "{key}"
            );
        }
        let err = verdict(&thousandfold("batched_sweep", false), &fresh, 2).unwrap_err();
        assert!(err.contains("batched_sweep complete/n48 f=1"), "{err}");
    }

    #[test]
    fn a_baseline_that_compares_nothing_or_does_not_parse_fails() {
        let empty = parse_baseline("B.json", "{}").unwrap();
        let err = verdict(&empty, &quick_rows(false), 4).unwrap_err();
        assert!(err.contains("nothing was compared"), "{err}");
        let truncated = &COMMITTED[..COMMITTED.len() / 2];
        let err = format!("{:?}", parse_baseline("B.json", truncated).unwrap_err());
        assert!(err.contains("B.json: not a perf baseline"), "{err}");
    }

    #[test]
    fn bench_baseline_parser_obeys_the_informational_marker() {
        // An informational row is skipped even if it DOES carry every
        // checked field — the marker, not a missing field, is the rule.
        let text = concat!(
            "{\"deploy_scale\": {\"topology\": \"circulant\", \"n\": 9, \"f\": 1, ",
            "\"jobs\": 4, \"informational\": true, \"speedup\": 99.0},\n",
            "  \"fastmath\": {\"topology\": \"rows\", \"n\": 16, \"f\": 2, \"jobs\": 4, ",
            "\"exact_updates_per_sec\": 1.0, \"fast_updates_per_sec\": 2.0, ",
            "\"speedup\": 2.0},\n",
            "  \"replica_batch\": {\"topology\": \"complete\", \"n\": 96, \"f\": 3, ",
            "\"jobs\": 4, \"dispatch_replica_steps_per_sec\": 1.0, ",
            "\"batched_replica_steps_per_sec\": 3.0, \"speedup\": 3.0}}\n",
        );
        let baseline = parse_baseline("B.json", text).unwrap();
        let exact = Gate {
            tolerance: 0.0,
            ..GATE
        };
        // Fresh rows shaped like the baseline's, plus a `parallel` row.
        let fresh = |fastmath: f64, replica_batch: f64| {
            [
                ("parallel", "complete", 9, 1, 1.0),
                ("deploy_scale", "circulant", 9, 1, 1.0),
                ("fastmath", "rows", 16, 2, fastmath),
                ("replica_batch", "complete", 96, 3, replica_batch),
            ]
            .map(|(key, topology, n, f, speedup)| {
                let row = Row {
                    speedup: Some(speedup),
                    ..Row::new(topology, n, f, &[])
                };
                (point(key), row)
            })
        };
        // The informational row neither falls through to `parallel` nor is
        // compared itself; fastmath and replica_batch read as 2.0 and 3.0.
        let passed = check(exact, &baseline, &fresh(2.0, 3.0), 4).unwrap();
        assert!(passed.contains("PASSED: 2 workload(s)"), "{passed}");
        let err = check(exact, &baseline, &fresh(1.99, 2.99), 4).unwrap_err();
        let err = format!("{err:?}");
        assert!(
            err.contains("fastmath rows/n16 f=2: speedup 1.99x vs baseline 2.00x"),
            "{err}"
        );
        assert!(
            err.contains("replica_batch complete/n96 f=3: speedup 2.99x vs baseline 3.00x"),
            "{err}"
        );
    }

    #[test]
    fn parallel_informational_detection_compares_cores_to_jobs() {
        // Under-provisioned hosts: the datapoint is scheduler noise.
        assert!(parallel_speedup_is_informational(1, 4));
        assert!(parallel_speedup_is_informational(3, 4));
        // Exactly enough or more cores: the datapoint is enforced.
        assert!(!parallel_speedup_is_informational(4, 4));
        assert!(!parallel_speedup_is_informational(16, 4));
        assert!(!parallel_speedup_is_informational(1, 1));
    }

    #[test]
    fn hotpath_grid_is_runnable_and_quick_is_a_prefix_family() {
        let quick = hotpath_grid(true);
        let full = hotpath_grid(false);
        assert_eq!(quick.len(), 6, "quick grid: 2 sizes x 3 families");
        assert_eq!(full.len(), 9, "full grid: 3 sizes x 3 families");
        for w in &full {
            // Trimming must be total: every node's in-degree supports 2f.
            assert!(
                w.graph.min_in_degree() >= 2 * w.f,
                "{}: min in-degree {} < 2f = {}",
                w.name,
                w.graph.min_in_degree(),
                2 * w.f
            );
        }
        // The acceptance workload is present: complete graph, n=1000, f=33.
        let accept = full
            .iter()
            .find(|w| w.name == "complete/n1000")
            .expect("acceptance workload");
        assert_eq!(accept.f, 33);
        // Determinism: the random family reproduces across calls.
        let again = hotpath_grid(false);
        for (a, b) in full.iter().zip(&again) {
            assert_eq!(a.graph.edge_count(), b.graph.edge_count(), "{}", a.name);
            assert_eq!(a.f, b.f);
        }
    }

    #[test]
    fn render_writes_the_parent_layout_plus_host_cores() {
        // A recorded quick run: the expected text is the layout the file
        // has always had, plus `host_cores`, with the grid cut to two rows.
        #[rustfmt::skip]
        let mut rows = [
            (point("results"), Row::new("complete", 100, 3, &[("steps", 20)])
                .rates(("compiled_steps_per_sec", 21084.347), ("reference_steps_per_sec", 8208.358), 2.569)),
            (point("results"), Row::new("random", 100, 3, &[("steps", 20)])
                .rates(("compiled_steps_per_sec", 28316.018), ("reference_steps_per_sec", 10642.94), 2.661)),
            (point("parallel"), Row::new("complete", 1000, 33, &[("steps", 20)])
                .rates(("serial_steps_per_sec", 199.074), ("parallel_steps_per_sec", 298.763), 1.501)),
            (point("pool"), Row::new("complete", 64, 2, &[("steps", 300)])
                .rates(("pooled_steps_per_sec", 32017.329), ("respawn_steps_per_sec", 6525.856), 4.906)),
            (point("deploy"), Row::new("circulant", 512, 2, &[("degree", 8), ("rounds", 10)])
                .rates(("threaded_steps_per_sec", 188.647), ("multiplexed_steps_per_sec", 8850.967), 46.918)),
            (point("deploy_scale"), Row {
                measured: vec![("multiplexed_steps_per_sec", Value::Rate(322.74))],
                ..Row::new("circulant", 20000, 2, &[("degree", 8), ("rounds", 10)])
            }),
            (point("serve_cache"), Row::new("complete", 128, 4, &[("batch", 6)])
                .rates(("cold_jobs_per_sec", 602.548), ("warm_hits_per_sec", 2097.409), 3.481)),
            (point("serve_concurrent"), Row::new("complete", 128, 4, &[("clients", 4), ("hits", 40)])
                .rates(("sequential_hits_per_sec", 37.175), ("concurrent_hits_per_sec", 1010.183), 27.174)),
            (point("serve_compaction"), Row {
                measured: vec![
                    ("records_before", Value::Count(43)),
                    ("records_after", Value::Count(2)),
                    ("journal_bytes_before", Value::Count(1419)),
                    ("journal_bytes_after", Value::Count(66)),
                    ("compaction_ratio", Value::Rate(21.5)),
                ],
                ..Row::new("complete", 128, 4, &[])
            }),
            (point("fastmath"), Row::new("columns", 64, 2, &[("lanes", 32), ("blocks", 200)])
                .rates(("exact_updates_per_sec", 916444.858), ("fast_updates_per_sec", 2287655.361), 2.496)),
            (point("replica_batch"), Row::new("circulant", 256, 2, &[("replicas", 32), ("rounds", 20)])
                .rates(("dispatch_replica_steps_per_sec", 22459.927), ("batched_replica_steps_per_sec", 60420.428), 2.69)),
            (point("batched_sweep"), Row::new("complete", 48, 1, &[("cells", 32), ("rounds", 8)])
                .rates(("dispatch_cells_per_sec", 558.493), ("batched_cells_per_sec", 5675.498), 10.162)),
        ];
        rows[2].1.informational = true; // parallel, on a 2-core host
        let config = Config {
            quick: true,
            steps: Some(20),
            jobs: 4,
        };
        let golden = r#"{
  "bench": "hotpath",
  "mode": "quick",
  "unit": "steps_per_sec",
  "adversary": "constant",
  "host_cores": 2,
  "parallel": {"topology": "complete", "n": 1000, "f": 33, "steps": 20, "jobs": 4, "informational": true, "serial_steps_per_sec": 199.074, "parallel_steps_per_sec": 298.763, "speedup": 1.501},
  "pool": {"topology": "complete", "n": 64, "f": 2, "steps": 300, "jobs": 4, "pooled_steps_per_sec": 32017.329, "respawn_steps_per_sec": 6525.856, "speedup": 4.906},
  "deploy": {"topology": "circulant", "n": 512, "f": 2, "degree": 8, "rounds": 10, "jobs": 4, "threaded_steps_per_sec": 188.647, "multiplexed_steps_per_sec": 8850.967, "speedup": 46.918},
  "deploy_scale": {"topology": "circulant", "n": 20000, "f": 2, "degree": 8, "rounds": 10, "jobs": 4, "informational": true, "multiplexed_steps_per_sec": 322.740},
  "serve_cache": {"topology": "complete", "n": 128, "f": 4, "batch": 6, "jobs": 4, "cold_jobs_per_sec": 602.548, "warm_hits_per_sec": 2097.409, "speedup": 3.481},
  "serve_concurrent": {"topology": "complete", "n": 128, "f": 4, "clients": 4, "hits": 40, "jobs": 4, "sequential_hits_per_sec": 37.175, "concurrent_hits_per_sec": 1010.183, "speedup": 27.174},
  "serve_compaction": {"topology": "complete", "n": 128, "f": 4, "jobs": 4, "informational": true, "records_before": 43, "records_after": 2, "journal_bytes_before": 1419, "journal_bytes_after": 66, "compaction_ratio": 21.500},
  "fastmath": {"topology": "columns", "n": 64, "f": 2, "lanes": 32, "blocks": 200, "jobs": 4, "exact_updates_per_sec": 916444.858, "fast_updates_per_sec": 2287655.361, "speedup": 2.496},
  "replica_batch": {"topology": "circulant", "n": 256, "f": 2, "replicas": 32, "rounds": 20, "jobs": 4, "dispatch_replica_steps_per_sec": 22459.927, "batched_replica_steps_per_sec": 60420.428, "speedup": 2.690},
  "batched_sweep": {"topology": "complete", "n": 48, "f": 1, "cells": 32, "rounds": 8, "jobs": 4, "dispatch_cells_per_sec": 558.493, "batched_cells_per_sec": 5675.498, "speedup": 10.162},
  "results": [
    {"topology": "complete", "n": 100, "f": 3, "steps": 20, "compiled_steps_per_sec": 21084.347, "reference_steps_per_sec": 8208.358, "speedup": 2.569},
    {"topology": "random", "n": 100, "f": 3, "steps": 20, "compiled_steps_per_sec": 28316.018, "reference_steps_per_sec": 10642.940, "speedup": 2.661}
  ]
}
"#;
        assert_eq!(render(config, 2, &rows), golden);
    }
}
