//! Job specifications, the canonical run-key schema, and job execution.
//!
//! A [`JobSpec`] is everything the daemon needs to (re)produce a result:
//! either one scenario run or one experiment sweep. Its [`JobSpec::key`]
//! folds every ingredient that can change a single output bit into one
//! FNV-1a fingerprint — `(topology, fault set, adversary family + params,
//! rule, seed, engine kind, RunConfig)` for scenarios, the resolved
//! experiment-id list for sweeps — via the workspace's canonical
//! [`iabc_graph::fingerprint`] hasher. Because every engine is bit-for-bit
//! deterministic at any job count, equal keys imply byte-identical
//! payloads, which is the entire cache-correctness argument.
//!
//! # The scenario vocabulary
//!
//! This module is also the one home of the words a scenario is named by,
//! for the daemon and for `iabc simulate`, `baseline`, `record` and
//! `submit` alike: the adversary families ([`ADVERSARIES`]), the update
//! rules ([`rule_by_name`]), the delay-bounded schedulers
//! ([`engine_scheduler_by_name`]) and the seeded input draw
//! ([`seeded_inputs`]). A name therefore means the same run on the
//! command line and in a job. Two words stay with the CLI because a job
//! cannot carry them: the quantized rule's rounding mode (a job always
//! rounds to nearest) and the `targeted` scheduler's victim set.

use crate::json::Json;
use crate::memo::TopologyMemo;
use crate::store::RunKey;
use crate::ServeError;
use iabc_analysis::experiments::ExperimentResult;
use iabc_analysis::sweep::is_known_experiment_id;
use iabc_analysis::table::Table;
use iabc_baselines::{DolevMidpoint, DolevSelectMean, Wmsr};
use iabc_core::quantized::{QuantizedTrimmedMean, Rounding};
use iabc_core::rules::{Mean, TrimmedMean, TrimmedMidpoint, UpdateRule};
use iabc_graph::fingerprint::Fnv64;
use iabc_graph::{fingerprint, parse, GraphError, NodeSet};
use iabc_sim::adversary::{
    Adversary, ConformingAdversary, ConstantAdversary, CrashAdversary, EchoAdversary,
    ExtremesAdversary, FlipFlopAdversary, NaNAdversary, PolarizingAdversary, PullAdversary,
    RandomAdversary,
};
use iabc_sim::async_engine::{
    check_delay_bound, ImmediateScheduler, MaxDelayScheduler, RandomScheduler, Scheduler,
};
use iabc_sim::wire::{encode_outcome, hash_run_config};
use iabc_sim::{RunConfig, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Version tag folded into every key, bumped when the key schema or any
/// payload encoding changes so stale stores can never alias fresh runs.
pub const KEY_SCHEMA_VERSION: u32 = 1;

/// The most nodes a scenario job may declare. [`JobSpec::key`] and
/// [`ScenarioSpec::execute`] read the graph's count line and check it
/// against this cap before anything is sized from `n`. A miss runs on a
/// `Digraph`, which keeps an in- and an out-neighbour bitset per node:
/// 2n² bits, 64 MiB at this cap. A larger count is a job error, not an
/// allocation the process cannot survive. The CLI's graph-file commands
/// refuse the same counts, so a scenario `iabc simulate` runs is one a
/// job may carry.
pub const MAX_NODES: usize = 1 << 14;

/// How a scenario's inputs are obtained.
#[derive(Debug, Clone, PartialEq)]
pub enum InputSpec {
    /// Explicit per-node values.
    Explicit(Vec<f64>),
    /// The [`seeded_inputs`] draw, which `iabc simulate` also makes.
    Seeded(u64),
}

/// Which engine executes a scenario job. The engine kind has been part of
/// the key schema since PR 7 (`"synchronous"` was hard-wired); this enum
/// fills the slot without moving any existing key.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum EngineSpec {
    /// The synchronous round engine (the default).
    #[default]
    Synchronous,
    /// The §7 partially-asynchronous engine: per-edge mailboxes with
    /// message delays `< bound` chosen by a named scheduler.
    DelayBounded {
        /// The delay bound `B` (every delay is `< B`).
        bound: usize,
        /// Scheduler name: `immediate`, `max`, or `random`.
        scheduler: String,
        /// Seed for the `random` scheduler (ignored by the others but
        /// still folded into the key — over-splitting is always safe).
        sched_seed: u64,
    },
}

/// Resolves a delay-bounded scheduler name; `seed` reaches the `random`
/// scheduler only. The `targeted` scheduler is deliberately not supported
/// here: its victim set would have to travel in the job, and no
/// experiment regenerates through it (`iabc simulate` builds it itself).
pub fn engine_scheduler_by_name(name: &str, seed: u64) -> Result<Box<dyn Scheduler>, ServeError> {
    Ok(match name {
        "immediate" => Box::new(ImmediateScheduler),
        "max" => Box::new(MaxDelayScheduler),
        "random" => Box::new(RandomScheduler::new(seed)),
        other => {
            return Err(ServeError::Job(format!(
                "unknown scheduler {other:?} (try immediate, max, random)"
            )))
        }
    })
}

/// One scenario run: a chosen engine on a parsed edge-list graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The topology, as `iabc_graph::parse` edge-list text.
    pub graph: String,
    /// Indices of the Byzantine nodes.
    pub faulty: Vec<usize>,
    /// The fault bound `f` the update rule trims for.
    pub f: usize,
    /// Rule name (`trimmed-mean`, `mean`, `midpoint`, `w-msr`,
    /// `dolev-midpoint`, `dolev-select-mean`, `quantized`).
    pub rule: String,
    /// Quantum for the `quantized` rule (ignored otherwise).
    pub quantum: Option<f64>,
    /// Adversary family name (the `iabc simulate --adversary` names).
    pub adversary: String,
    /// Seed for seeded adversaries (`random`) and seeded inputs.
    pub seed: u64,
    /// Input derivation.
    pub inputs: InputSpec,
    /// Convergence threshold.
    pub epsilon: f64,
    /// Round cap.
    pub max_rounds: usize,
    /// Which engine runs the scenario.
    pub engine: EngineSpec,
}

/// A submittable job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// One synchronous-engine scenario run.
    Scenario(ScenarioSpec),
    /// An experiment sweep over the given ids (empty = all of E1–E12).
    Sweep {
        /// Requested experiment ids (case-insensitive).
        ids: Vec<String>,
    },
}

impl ScenarioSpec {
    fn resolve_inputs(&self, n: usize) -> Result<Vec<f64>, ServeError> {
        match &self.inputs {
            InputSpec::Explicit(values) => {
                if values.len() != n {
                    return Err(ServeError::Job(format!(
                        "{} inputs for {n} nodes",
                        values.len()
                    )));
                }
                Ok(values.clone())
            }
            InputSpec::Seeded(seed) => Ok(seeded_inputs(n, *seed)),
        }
    }

    fn resolve_rule(&self) -> Result<Box<dyn UpdateRule>, ServeError> {
        rule_by_name(&self.rule, self.f, self.quantum, Rounding::Nearest)
    }

    /// The fault set, checked against `n` on the key path and before a
    /// compute: a faulty node `>= n`, or a fault bound `f > n` (a rule
    /// trimming `2f` values per node would overflow), is a job error.
    fn resolve_faults(&self, n: usize) -> Result<NodeSet, ServeError> {
        if self.f > n {
            return Err(ServeError::Job(format!("f = {} exceeds n = {n}", self.f)));
        }
        match self.faulty.iter().find(|&&node| node >= n) {
            Some(node) => Err(ServeError::Job(format!("faulty node {node} >= n = {n}"))),
            None => Ok(NodeSet::from_indices(n, self.faulty.iter().copied())),
        }
    }

    /// The node count the graph declares, checked against [`MAX_NODES`]
    /// from its count line alone.
    fn node_count(&self) -> Result<usize, ServeError> {
        let n = parse::node_count(&self.graph).map_err(bad_graph)?;
        if n > MAX_NODES {
            return Err(ServeError::Job(format!(
                "the graph declares {n} nodes; a job may have at most {MAX_NODES}"
            )));
        }
        Ok(n)
    }

    /// Folds every output-determining ingredient into `h`; inputs are
    /// folded as resolved bit patterns so explicit and seeded derivations
    /// can never alias. The topology goes straight from the edge-list text
    /// to CSR rows ([`parse::in_rows`]) and is hashed from them
    /// ([`parse::InRows::fingerprint`]), so a cache hit builds neither the
    /// `Digraph` a miss runs on nor the `CompiledTopology` both compile to;
    /// with a `memo` that holds this text and fault set, the edge lines
    /// are not read at all. The checks that need no edge line run first,
    /// in this order on both paths: the count line, the fault set, and a
    /// delay bound (refused here, before a miss takes the compute permit).
    fn hash(&self, h: &mut Fnv64, memo: Option<&TopologyMemo>) -> Result<(), ServeError> {
        let n = self.node_count()?;
        let faults = self.resolve_faults(n)?;
        if let EngineSpec::DelayBounded { bound, .. } = self.engine {
            check_delay_bound(bound).map_err(|e| ServeError::Job(e.to_string()))?;
        }
        let topology = || {
            let rows = parse::in_rows(&self.graph).map_err(bad_graph)?;
            Ok(rows.fingerprint(&faults))
        };
        let topology = match memo {
            Some(memo) => memo.fingerprint(&self.graph, &faults, topology)?,
            None => topology()?,
        };
        h.write_str("scenario");
        h.write_u64(topology);
        h.write_u64(fingerprint::fault_set(&faults));
        h.write_str(&self.adversary);
        h.write_u64(self.seed);
        h.write_str(&self.rule);
        h.write_usize(self.f);
        h.write_u64(self.quantum.unwrap_or(0.0).to_bits());
        // Engine kind: the synchronous string is unchanged from PR 7, so
        // every pre-existing key still addresses the same object.
        match &self.engine {
            EngineSpec::Synchronous => {
                h.write_str("synchronous");
            }
            EngineSpec::DelayBounded {
                bound,
                scheduler,
                sched_seed,
            } => {
                h.write_str("delay-bounded");
                h.write_usize(*bound);
                h.write_str(scheduler);
                h.write_u64(*sched_seed);
            }
        }
        hash_run_config(h, &self.run_config());
        let inputs = self.resolve_inputs(n)?;
        h.write_usize(inputs.len());
        for v in inputs {
            h.write_f64_bits(v);
        }
        Ok(())
    }

    fn run_config(&self) -> RunConfig {
        RunConfig {
            record_states: false,
            epsilon: self.epsilon,
            max_rounds: self.max_rounds,
        }
    }

    /// Runs the scenario and returns the `IABCOUT1` payload bytes.
    pub fn execute(&self) -> Result<Vec<u8>, ServeError> {
        self.node_count()?;
        let g = parse::parse_edge_list(&self.graph).map_err(bad_graph)?;
        let n = g.node_count();
        let faults = self.resolve_faults(n)?;
        let inputs = self.resolve_inputs(n)?;
        let rule = self.resolve_rule()?;
        let adversary = adversary_factory(&self.adversary, self.seed)?();
        let scenario = Scenario::on(&g)
            .inputs(&inputs)
            .faults(faults)
            .rule(rule.as_ref())
            .adversary(adversary);
        match &self.engine {
            EngineSpec::Synchronous => {
                let mut sim = scenario
                    .synchronous()
                    .map_err(|e| ServeError::Job(e.to_string()))?;
                let outcome = sim
                    .run(&self.run_config())
                    .map_err(|e| ServeError::Job(e.to_string()))?;
                Ok(encode_outcome(&outcome, sim.states()))
            }
            EngineSpec::DelayBounded {
                bound,
                scheduler,
                sched_seed,
            } => {
                let scheduler = engine_scheduler_by_name(scheduler, *sched_seed)?;
                let mut sim = scenario
                    .delay_bounded(scheduler, *bound)
                    .map_err(|e| ServeError::Job(e.to_string()))?;
                let outcome = sim
                    .run(&self.run_config())
                    .map_err(|e| ServeError::Job(e.to_string()))?;
                Ok(encode_outcome(&outcome, sim.states()))
            }
        }
    }
}

fn bad_graph(e: GraphError) -> ServeError {
    ServeError::Job(format!("bad graph: {e}"))
}

impl JobSpec {
    /// The job's content address under the canonical key schema.
    pub fn key(&self) -> Result<RunKey, ServeError> {
        self.keyed(None)
    }

    /// The same key and errors as [`JobSpec::key`], with a scenario's
    /// topology fingerprint taken from `memo` when it holds the job's graph
    /// text and fault set, and added to it when it does not: the daemon's
    /// keying, which reads a repeated edge list once.
    pub fn key_with(&self, memo: &TopologyMemo) -> Result<RunKey, ServeError> {
        self.keyed(Some(memo))
    }

    fn keyed(&self, memo: Option<&TopologyMemo>) -> Result<RunKey, ServeError> {
        let mut h = Fnv64::new();
        h.write_u32(KEY_SCHEMA_VERSION);
        match self {
            JobSpec::Scenario(spec) => spec.hash(&mut h, memo)?,
            JobSpec::Sweep { ids } => {
                h.write_str("sweep-experiments");
                for id in resolve_experiment_ids(ids)? {
                    h.write_str(&id);
                }
            }
        }
        Ok(RunKey(h.finish()))
    }

    /// Renders to the wire JSON (`job` member of a submit request),
    /// borrowing the job's strings: the graph text is not copied.
    pub fn to_json(&self) -> Json<'_> {
        match self {
            JobSpec::Sweep { ids } => Json::obj([
                ("kind", Json::Str("sweep".into())),
                (
                    "ids",
                    Json::Arr(ids.iter().map(|id| Json::Str(id.as_str().into())).collect()),
                ),
            ]),
            JobSpec::Scenario(spec) => {
                let mut pairs = vec![
                    ("kind", Json::Str("scenario".into())),
                    ("graph", Json::Str(spec.graph.as_str().into())),
                    (
                        "faulty",
                        Json::Arr(spec.faulty.iter().map(|&v| Json::Num(v as f64)).collect()),
                    ),
                    ("f", Json::Num(spec.f as f64)),
                    ("rule", Json::Str(spec.rule.as_str().into())),
                    ("adversary", Json::Str(spec.adversary.as_str().into())),
                    ("seed", Json::u64(spec.seed)),
                    ("epsilon", Json::Num(spec.epsilon)),
                    ("max_rounds", Json::Num(spec.max_rounds as f64)),
                ];
                if let Some(q) = spec.quantum {
                    pairs.push(("quantum", Json::Num(q)));
                }
                // Synchronous jobs omit the engine fields entirely, so
                // PR 7 clients and stored request logs stay readable.
                if let EngineSpec::DelayBounded {
                    bound,
                    scheduler,
                    sched_seed,
                } = &spec.engine
                {
                    pairs.push(("engine", Json::Str("delay-bounded".into())));
                    pairs.push(("delay_bound", Json::Num(*bound as f64)));
                    pairs.push(("scheduler", Json::Str(scheduler.as_str().into())));
                    pairs.push(("sched_seed", Json::u64(*sched_seed)));
                }
                match &spec.inputs {
                    InputSpec::Explicit(values) => pairs.push((
                        "inputs",
                        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                    )),
                    InputSpec::Seeded(seed) => pairs.push(("input_seed", Json::u64(*seed))),
                }
                Json::obj(pairs)
            }
        }
    }

    /// Parses the wire JSON form.
    pub fn from_json(json: &Json<'_>) -> Result<JobSpec, ServeError> {
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| ServeError::Protocol("job missing \"kind\"".into()))?;
        match kind {
            "sweep" => {
                let ids = match json.get("ids") {
                    None | Some(Json::Null) => Vec::new(),
                    Some(v) => v
                        .as_arr()
                        .ok_or_else(|| ServeError::Protocol("\"ids\" must be an array".into()))?
                        .iter()
                        .map(|id| {
                            id.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| ServeError::Protocol("non-string id".into()))
                        })
                        .collect::<Result<_, _>>()?,
                };
                Ok(JobSpec::Sweep { ids })
            }
            "scenario" => {
                let str_field = |name: &str| -> Result<String, ServeError> {
                    json.get(name)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| ServeError::Protocol(format!("scenario missing \"{name}\"")))
                };
                let inputs = if let Some(values) = json.get("inputs") {
                    InputSpec::Explicit(
                        values
                            .as_arr()
                            .ok_or_else(|| {
                                ServeError::Protocol("\"inputs\" must be an array".into())
                            })?
                            .iter()
                            .map(|v| {
                                v.as_f64()
                                    .ok_or_else(|| ServeError::Protocol("non-numeric input".into()))
                            })
                            .collect::<Result<_, _>>()?,
                    )
                } else {
                    InputSpec::Seeded(json.get("input_seed").and_then(Json::as_u64).unwrap_or(0))
                };
                let engine = match json.get("engine").and_then(Json::as_str) {
                    None | Some("synchronous") => EngineSpec::Synchronous,
                    Some("delay-bounded") => EngineSpec::DelayBounded {
                        bound: json
                            .get("delay_bound")
                            .and_then(Json::as_usize)
                            .filter(|&bound| bound >= 1)
                            .ok_or_else(|| {
                                ServeError::Protocol(
                                    "delay-bounded engine needs \"delay_bound\" >= 1".into(),
                                )
                            })?,
                        scheduler: json
                            .get("scheduler")
                            .and_then(Json::as_str)
                            .unwrap_or("max")
                            .to_string(),
                        sched_seed: json.get("sched_seed").and_then(Json::as_u64).unwrap_or(0),
                    },
                    Some(other) => {
                        return Err(ServeError::Protocol(format!(
                            "unknown engine {other:?} (try synchronous, delay-bounded)"
                        )))
                    }
                };
                Ok(JobSpec::Scenario(ScenarioSpec {
                    graph: str_field("graph")?,
                    faulty: json
                        .get("faulty")
                        .and_then(Json::as_arr)
                        .unwrap_or(&[])
                        .iter()
                        .map(|v| {
                            v.as_usize()
                                .ok_or_else(|| ServeError::Protocol("bad faulty index".into()))
                        })
                        .collect::<Result<_, _>>()?,
                    f: json
                        .get("f")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| ServeError::Protocol("scenario missing \"f\"".into()))?,
                    rule: str_field("rule")?,
                    quantum: json.get("quantum").and_then(Json::as_f64),
                    adversary: str_field("adversary")?,
                    seed: json.get("seed").and_then(Json::as_u64).unwrap_or(0),
                    inputs,
                    epsilon: json.get("epsilon").and_then(Json::as_f64).unwrap_or(1e-6),
                    max_rounds: json
                        .get("max_rounds")
                        .and_then(Json::as_usize)
                        .unwrap_or(10_000),
                    engine,
                }))
            }
            other => Err(ServeError::Protocol(format!("unknown job kind {other:?}"))),
        }
    }
}

/// Validates and canonicalizes a requested experiment-id list: ids are
/// upper-cased and kept in the caller's order (the sweep runner itself
/// reorders to paper order; the *request* order is part of the key only
/// through this canonical form, so `e1,e2` and `E2,E1` share a key).
pub fn resolve_experiment_ids(ids: &[String]) -> Result<Vec<String>, ServeError> {
    let mut resolved: Vec<String> = Vec::new();
    for id in ids {
        if !is_known_experiment_id(id) {
            return Err(ServeError::Job(format!(
                "unknown experiment id {id:?} (valid: E1..E12, X1..X13)"
            )));
        }
        let canon = id.to_ascii_uppercase();
        if !resolved.contains(&canon) {
            resolved.push(canon);
        }
    }
    // Registry order (E1–E12 then X1–X13); for all-E lists this is the
    // same numeric order PR 7 hashed, so existing sweep keys are stable.
    resolved
        .sort_by_key(|id| iabc_analysis::sweep::experiment_id_position(id).unwrap_or(usize::MAX));
    Ok(resolved)
}

/// The run key of one experiment *cell* (the in-process memo path for
/// `iabc sweep experiments --store`). Shares [`KEY_SCHEMA_VERSION`] with
/// job-level keys but a distinct domain tag.
pub fn experiment_cell_key(label: &str) -> RunKey {
    let mut h = Fnv64::new();
    h.write_u32(KEY_SCHEMA_VERSION);
    h.write_str("experiment-cell");
    h.write_str(label);
    RunKey(h.finish())
}

/// `n` inputs drawn uniformly from `[0, 100)` by `StdRng::seed_from_u64(seed)`:
/// the draw behind [`InputSpec::Seeded`] and behind every CLI run without
/// `--inputs`.
pub fn seeded_inputs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random_range(0.0..100.0)).collect()
}

/// Builds one adversary from a run's seed.
type MakeAdversary = fn(u64) -> Box<dyn Adversary>;

/// Every adversary family a scenario can name, with its constructor; the
/// seed reaches the seeded family (`random`) only.
pub const ADVERSARIES: [(&str, MakeAdversary); 11] = [
    ("conforming", |_| Box::new(ConformingAdversary::new())),
    ("constant", |_| Box::new(ConstantAdversary::new(1e9))),
    ("random", |seed| {
        Box::new(RandomAdversary::new(-1e6, 1e6, seed))
    }),
    ("extremes", |_| Box::new(ExtremesAdversary::new(1e6))),
    ("pull-low", |_| Box::new(PullAdversary::new(false))),
    ("pull-high", |_| Box::new(PullAdversary::new(true))),
    ("crash", |_| Box::new(CrashAdversary::new(2))),
    ("flip-flop", |_| Box::new(FlipFlopAdversary::new(1e6))),
    ("polarizing", |_| Box::new(PolarizingAdversary::new())),
    ("echo", |_| Box::new(EchoAdversary::new())),
    ("nan", |_| Box::new(NaNAdversary::new())),
];

/// Resolves an adversary name into an infallible factory (adversaries are
/// stateful, so a harness that runs several contenders needs a fresh one
/// per run). An unknown name errors here, once.
pub fn adversary_factory(
    name: &str,
    seed: u64,
) -> Result<impl Fn() -> Box<dyn Adversary>, ServeError> {
    match ADVERSARIES.iter().find(|(known, _)| *known == name) {
        Some(&(_, make)) => Ok(move || make(seed)),
        None => {
            let known: Vec<&str> = ADVERSARIES.iter().map(|(known, _)| *known).collect();
            Err(ServeError::Job(format!(
                "unknown adversary {name:?} (try {})",
                known.join(", ")
            )))
        }
    }
}

/// Resolves a rule name. Only the `quantized` rule reads `quantum`
/// (required) and `rounding`; a job always passes [`Rounding::Nearest`].
pub fn rule_by_name(
    name: &str,
    f: usize,
    quantum: Option<f64>,
    rounding: Rounding,
) -> Result<Box<dyn UpdateRule>, ServeError> {
    Ok(match name {
        "trimmed-mean" => Box::new(TrimmedMean::new(f)),
        "mean" => Box::new(Mean::new()),
        "midpoint" => Box::new(TrimmedMidpoint::new(f)),
        "w-msr" => Box::new(Wmsr::new(f)),
        "dolev-midpoint" => Box::new(DolevMidpoint::new(f)),
        "dolev-select-mean" => Box::new(DolevSelectMean::new(f)),
        "quantized" => {
            let quantum =
                quantum.ok_or_else(|| ServeError::Job("quantized rule needs a quantum".into()))?;
            Box::new(
                QuantizedTrimmedMean::new(f, quantum, rounding)
                    .map_err(|e| ServeError::Job(e.to_string()))?,
            )
        }
        other => {
            return Err(ServeError::Job(format!(
                "unknown rule {other:?} (try trimmed-mean, mean, midpoint, w-msr, \
                 dolev-midpoint, dolev-select-mean, quantized)"
            )))
        }
    })
}

// ---------------------------------------------------------------------------
// Experiment payload encoding (`IABCEXP1`)
// ---------------------------------------------------------------------------

const EXP_MAGIC: &[u8; 8] = b"IABCEXP1";

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_strs(buf: &mut Vec<u8>, items: &[String]) {
    buf.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for s in items {
        put_str(buf, s);
    }
}

/// Serializes one [`ExperimentResult`] losslessly (id, title, verdict,
/// notes, artifacts, table headers + rows).
pub fn encode_experiment(result: &ExperimentResult) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(EXP_MAGIC);
    put_str(&mut buf, &result.id);
    put_str(&mut buf, &result.title);
    buf.push(u8::from(result.pass));
    put_strs(&mut buf, &result.notes);
    buf.extend_from_slice(&(result.artifacts.len() as u32).to_le_bytes());
    for (name, content) in &result.artifacts {
        put_str(&mut buf, name);
        put_str(&mut buf, content);
    }
    put_strs(&mut buf, result.table.headers());
    buf.extend_from_slice(&(result.table.rows().len() as u32).to_le_bytes());
    for row in result.table.rows() {
        put_strs(&mut buf, row);
    }
    buf
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, ServeError> {
    if buf.len() < 4 {
        return Err(ServeError::Job("experiment payload truncated".into()));
    }
    let (head, tail) = buf.split_at(4);
    *buf = tail;
    Ok(u32::from_le_bytes(head.try_into().unwrap()))
}

fn get_str(buf: &mut &[u8]) -> Result<String, ServeError> {
    let len = get_u32(buf)? as usize;
    if buf.len() < len {
        return Err(ServeError::Job("experiment payload truncated".into()));
    }
    let (head, tail) = buf.split_at(len);
    *buf = tail;
    String::from_utf8(head.to_vec())
        .map_err(|_| ServeError::Job("experiment payload not UTF-8".into()))
}

fn get_strs(buf: &mut &[u8]) -> Result<Vec<String>, ServeError> {
    let count = get_u32(buf)? as usize;
    (0..count).map(|_| get_str(buf)).collect()
}

/// Inverse of [`encode_experiment`].
pub fn decode_experiment(mut buf: &[u8]) -> Result<ExperimentResult, ServeError> {
    if buf.len() < 8 || &buf[..8] != EXP_MAGIC {
        return Err(ServeError::Job("bad experiment payload magic".into()));
    }
    buf = &buf[8..];
    let id = get_str(&mut buf)?;
    let title = get_str(&mut buf)?;
    if buf.is_empty() {
        return Err(ServeError::Job("experiment payload truncated".into()));
    }
    let pass = buf[0] != 0;
    buf = &buf[1..];
    let notes = get_strs(&mut buf)?;
    let artifact_count = get_u32(&mut buf)? as usize;
    let mut artifacts = Vec::with_capacity(artifact_count);
    for _ in 0..artifact_count {
        let name = get_str(&mut buf)?;
        let content = get_str(&mut buf)?;
        artifacts.push((name, content));
    }
    let headers = get_strs(&mut buf)?;
    let row_count = get_u32(&mut buf)? as usize;
    let mut table = Table::new(headers);
    for _ in 0..row_count {
        table.row(get_strs(&mut buf)?);
    }
    Ok(ExperimentResult {
        id,
        title,
        table,
        notes,
        artifacts,
        pass,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scenario() -> ScenarioSpec {
        ScenarioSpec {
            graph: "3\n0 1\n1 0\n0 2\n2 0\n1 2\n2 1\n".into(),
            faulty: vec![2],
            f: 0,
            rule: "mean".into(),
            quantum: None,
            adversary: "constant".into(),
            seed: 7,
            inputs: InputSpec::Seeded(7),
            epsilon: 1e-6,
            max_rounds: 100,
            engine: EngineSpec::Synchronous,
        }
    }

    fn delay_bounded(scheduler: &str, bound: usize, sched_seed: u64) -> EngineSpec {
        EngineSpec::DelayBounded {
            bound,
            scheduler: scheduler.into(),
            sched_seed,
        }
    }

    #[test]
    fn job_json_roundtrips() {
        let jobs = [
            JobSpec::Sweep {
                ids: vec!["E1".into(), "E3".into()],
            },
            JobSpec::Scenario(sample_scenario()),
            JobSpec::Scenario(ScenarioSpec {
                inputs: InputSpec::Explicit(vec![1.0, 2.5, 3.75]),
                quantum: Some(0.5),
                rule: "quantized".into(),
                ..sample_scenario()
            }),
            JobSpec::Scenario(ScenarioSpec {
                engine: delay_bounded("random", 3, 11),
                ..sample_scenario()
            }),
        ];
        for job in jobs {
            let back =
                JobSpec::from_json(&crate::json::parse(&job.to_json().render()).unwrap()).unwrap();
            assert_eq!(back, job);
            assert_eq!(back.key().unwrap(), job.key().unwrap());
        }
    }

    #[test]
    fn keys_separate_every_ingredient() {
        let base = sample_scenario();
        let base_key = JobSpec::Scenario(base.clone()).key().unwrap();
        let variants = [
            ScenarioSpec {
                faulty: vec![1],
                ..base.clone()
            },
            ScenarioSpec {
                rule: "trimmed-mean".into(),
                f: 1,
                ..base.clone()
            },
            ScenarioSpec {
                adversary: "extremes".into(),
                ..base.clone()
            },
            ScenarioSpec {
                seed: 8,
                inputs: InputSpec::Seeded(8),
                ..base.clone()
            },
            ScenarioSpec {
                epsilon: 1e-7,
                ..base.clone()
            },
            ScenarioSpec {
                max_rounds: 99,
                ..base.clone()
            },
            ScenarioSpec {
                graph: "3\n0 1\n1 0\n0 2\n2 0\n".into(),
                ..base.clone()
            },
            ScenarioSpec {
                engine: delay_bounded("max", 2, 0),
                ..base.clone()
            },
        ];
        for variant in variants {
            assert_ne!(
                JobSpec::Scenario(variant.clone()).key().unwrap(),
                base_key,
                "ingredient change must change the key: {variant:?}"
            );
        }
    }

    /// Single-ingredient non-collision for the delay-bounded engine
    /// fields: changing the bound, the scheduler, or the scheduler seed
    /// alone must move the key.
    #[test]
    fn delay_bounded_keys_separate_every_engine_field() {
        let spec_with = |engine: EngineSpec| {
            JobSpec::Scenario(ScenarioSpec {
                engine,
                ..sample_scenario()
            })
        };
        let base = spec_with(delay_bounded("random", 2, 5)).key().unwrap();
        let variants = [
            delay_bounded("random", 3, 5), // bound
            delay_bounded("max", 2, 5),    // scheduler
            delay_bounded("immediate", 2, 5),
            delay_bounded("random", 2, 6), // sched_seed
            EngineSpec::Synchronous,       // engine kind itself
        ];
        let mut keys = vec![base];
        for engine in variants {
            let key = spec_with(engine.clone()).key().unwrap();
            assert!(
                !keys.contains(&key),
                "engine field change must change the key: {engine:?}"
            );
            keys.push(key);
        }
    }

    #[test]
    fn delay_bound_zero_is_rejected_at_the_wire() {
        let wire = |bound: usize| {
            let spec = JobSpec::Scenario(ScenarioSpec {
                engine: delay_bounded("max", bound, 0),
                ..sample_scenario()
            });
            JobSpec::from_json(&crate::json::parse(&spec.to_json().render()).unwrap())
        };
        // B = 0 has no meaning (delays are < B) and would abort execute().
        let err = wire(0).unwrap_err();
        assert!(
            matches!(&err, ServeError::Protocol(msg) if msg.contains("delay_bound")),
            "{err:?}"
        );
        assert!(wire(1).is_ok());
    }

    #[test]
    fn delay_bounded_execution_is_deterministic() {
        let spec = ScenarioSpec {
            engine: delay_bounded("random", 3, 11),
            ..sample_scenario()
        };
        let a = spec.execute().unwrap();
        let b = spec.execute().unwrap();
        assert_eq!(a, b, "same spec must produce identical payload bytes");
        let decoded = iabc_sim::wire::decode_outcome(&a).unwrap();
        assert_eq!(decoded.final_states.len(), 3);
        // And the payload differs from the synchronous engine's under the
        // same otherwise-identical spec (distinct keys, distinct bytes).
        let sync = sample_scenario().execute().unwrap();
        assert_ne!(a, sync, "engines must not alias payloads");
        assert!(ScenarioSpec {
            engine: delay_bounded("targeted", 2, 0),
            ..sample_scenario()
        }
        .execute()
        .is_err());
    }

    /// A count line past the node cap is a job error from both entry
    /// points, read before anything is sized from it: 5·10⁹ does not fit
    /// the parser's `u32` ids, and 4·10⁹ would size gigabytes.
    #[test]
    fn hostile_node_counts_are_job_errors() {
        for count in ["5000000000", "4000000000"] {
            let spec = ScenarioSpec {
                graph: format!("# hostile\n{count}\n0 1\n"),
                ..sample_scenario()
            };
            let key = JobSpec::Scenario(spec.clone()).key().map(|_| ());
            for result in [key, spec.execute().map(|_| ())] {
                assert!(
                    matches!(&result, Err(ServeError::Job(msg)) if msg.contains(count)),
                    "{result:?}"
                );
            }
        }
        let declaring = |n: usize| {
            JobSpec::Scenario(ScenarioSpec {
                graph: format!("{n}\n0 1\n"),
                ..sample_scenario()
            })
        };
        assert!(declaring(MAX_NODES).key().is_ok());
        assert!(matches!(
            declaring(MAX_NODES + 1).key(),
            Err(ServeError::Job(_))
        ));
    }

    #[test]
    fn sweep_ids_canonicalize() {
        let a = JobSpec::Sweep {
            ids: vec!["e3".into(), "E1".into()],
        };
        let b = JobSpec::Sweep {
            ids: vec!["E1".into(), "e3".into(), "E3".into()],
        };
        assert_eq!(a.key().unwrap(), b.key().unwrap());
        let c = JobSpec::Sweep {
            ids: vec!["E1".into()],
        };
        assert_ne!(a.key().unwrap(), c.key().unwrap());
        assert!(JobSpec::Sweep {
            ids: vec!["E99".into()]
        }
        .key()
        .is_err());
        // Extension ids are first-class and canonicalize after E's.
        assert_eq!(
            resolve_experiment_ids(&["x2".into(), "E10".into(), "X2".into()]).unwrap(),
            vec!["E10".to_string(), "X2".to_string()]
        );
        let d = JobSpec::Sweep {
            ids: vec!["X2".into(), "e10".into()],
        };
        let e = JobSpec::Sweep {
            ids: vec!["E10".into(), "x2".into()],
        };
        assert_eq!(d.key().unwrap(), e.key().unwrap());
    }

    #[test]
    fn scenario_execution_is_deterministic() {
        let spec = sample_scenario();
        let a = spec.execute().unwrap();
        let b = spec.execute().unwrap();
        assert_eq!(a, b, "same spec must produce identical payload bytes");
        let decoded = iabc_sim::wire::decode_outcome(&a).unwrap();
        assert_eq!(decoded.final_states.len(), 3);
    }

    /// Run keys pinned as literals. A store written by an earlier build
    /// resolves only while every one of these still holds, so any change
    /// to the key schema, the edge-list parser or the topology feed that
    /// moves a key fails here first.
    #[test]
    fn run_keys_are_pinned() {
        use iabc_graph::generators;
        let key = |job: JobSpec| job.key().unwrap().hex();
        // The benchmark's complete/n128 hit spec (seed 7, first hit key).
        let hit_seed = 0x92a1_731a_ed9a_48d6;
        let hit = ScenarioSpec {
            graph: parse::to_edge_list(&generators::complete(128)),
            faulty: vec![0],
            f: 1,
            rule: "trimmed-mean".into(),
            quantum: None,
            adversary: "constant".into(),
            seed: hit_seed,
            inputs: InputSpec::Seeded(hit_seed),
            epsilon: 1e-6,
            max_rounds: 1000,
            engine: EngineSpec::Synchronous,
        };
        let chord = ScenarioSpec {
            graph: parse::to_edge_list(&generators::chord(256, 4)),
            adversary: "random".into(),
            seed: 7,
            inputs: InputSpec::Seeded(7),
            epsilon: 0.0,
            max_rounds: 2000,
            ..hit.clone()
        };
        // Comments, blank lines, CRLF, tabs, runs of spaces, and shuffled
        // and duplicated edge lines: the same digraph as `tidy` below.
        let messy = ScenarioSpec {
            graph: "# header\r\n\r\n  5  \r\n2 0\n# mid comment\n\t0\t1\t\n\n3    4\r\n0 1\n  \
                    1 2\r\n4 0\n2\t 0\n  # indented comment\n2 3\n"
                .into(),
            ..sample_scenario()
        };
        let tidy = ScenarioSpec {
            graph: "5\n0 1\n1 2\n2 0\n2 3\n3 4\n4 0\n".into(),
            ..sample_scenario()
        };
        let cases = [
            (key(JobSpec::Scenario(hit)), "4dc32c6720c5a623"),
            (key(JobSpec::Scenario(chord)), "c68221cfa53363ef"),
            (key(JobSpec::Scenario(messy)), "da213c1432ec0e49"),
            (key(JobSpec::Scenario(tidy)), "da213c1432ec0e49"),
            (
                key(JobSpec::Scenario(ScenarioSpec {
                    engine: delay_bounded("random", 3, 11),
                    ..sample_scenario()
                })),
                "0814346b8a14083e",
            ),
            (
                key(JobSpec::Scenario(ScenarioSpec {
                    inputs: InputSpec::Explicit(vec![1.0, -2.5, 3.75]),
                    quantum: Some(0.5),
                    rule: "quantized".into(),
                    ..sample_scenario()
                })),
                "735d5b42499ccb24",
            ),
            (
                key(JobSpec::Sweep {
                    ids: vec!["e3".into(), "X2".into(), "E1".into()],
                }),
                "1c4325498ab51448",
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn experiment_payload_roundtrips() {
        let mut table = Table::new(["n", "f", "pass"]);
        table.row(["7", "2", "true"]);
        table.row(["9", "2", "true"]);
        let result = ExperimentResult {
            id: "E6".into(),
            title: "core networks".into(),
            table,
            notes: vec!["note one".into(), "note two".into()],
            artifacts: vec![("fig.dot".into(), "digraph{}".into())],
            pass: true,
        };
        let back = decode_experiment(&encode_experiment(&result)).unwrap();
        assert_eq!(back.id, result.id);
        assert_eq!(back.title, result.title);
        assert_eq!(back.pass, result.pass);
        assert_eq!(back.notes, result.notes);
        assert_eq!(back.artifacts, result.artifacts);
        assert_eq!(back.table.to_string(), result.table.to_string());
        assert!(decode_experiment(b"IABCEXP1trunc").is_err());
        assert!(decode_experiment(b"WRONGMAG").is_err());
    }
}
