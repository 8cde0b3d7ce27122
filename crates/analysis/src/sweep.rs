//! Parallel sweep runner: fans independent experiment-grid cells across
//! cores with **deterministic, thread-count-independent** results.
//!
//! Every grid in this workspace — the E1–E12/X1–X13 experiment harness,
//! Monte-Carlo graph sweeps, the exhaustive tolerance census — decomposes
//! into independent `(graph family, n, f, …)` cells with no shared state
//! (the transition-matrix view of the protocol makes each cell a pure
//! function of its coordinates). The runner exploits that:
//!
//! * each cell derives its RNG seed by hashing its [`CellCoords`]
//!   (`seed = fnv1a(coords)`), never from a shared stream, so a cell's
//!   output is a pure function of its coordinates;
//! * workers steal cell *indices* off the executor's chunk queue and
//!   write results back by index, so the merged output order is the grid
//!   order no matter how the OS schedules threads.
//!
//! Together these make sweep output **bit-identical** for `jobs = 1` and
//! `jobs = N` — verified by `tests/sweep_parallel.rs` and unit tests here.
//!
//! Threading is the workspace-wide [`iabc_exec::Executor`] (the container
//! has no rayon): one pool is created per [`run_cells`] call — per
//! *sweep*, not per cell — with a chunk floor of one cell, since cells
//! vary wildly in cost and must be stealable individually. The private
//! scoped-thread work-stealing loop this module used to carry is gone.
//!
//! This runner treats every cell as an opaque closure. When many cells
//! share a `(topology, fault set, rule, adversary)` spec and differ only
//! in their seed, [`crate::batched`] groups them into a single
//! `BatchedSimulation` run instead (one cell per *group*, still executed
//! through [`run_cells`] here), keeping the per-cell coordinate-hashed
//! seeds and therefore the exact table bytes of the dispatch path.
//!
//! # Examples
//!
//! ```
//! use iabc_analysis::sweep::{run_cells, CellCoords, SweepCell};
//!
//! let cells: Vec<SweepCell<u64>> = (0..8)
//!     .map(|i| {
//!         let coords = CellCoords::new("double").with("i", i);
//!         SweepCell::new(coords, move |seed| seed.wrapping_mul(2))
//!     })
//!     .collect();
//! let serial = run_cells(cells, 1);
//! assert_eq!(serial.len(), 8);
//! ```

use iabc_core::theorem1;
use iabc_exec::{effective_jobs, process_executor, Chunking};
use iabc_graph::generators;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::census::{census, CensusRow};
use crate::experiments::{self, ExperimentResult};
use crate::table::Table;

/// Grid coordinates identifying one sweep cell: an experiment name plus
/// ordered `key = value` pairs. Hashing the canonical rendering yields the
/// cell's RNG seed, so seeds depend only on coordinates — never on thread
/// scheduling or cell execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellCoords {
    grid: String,
    pairs: Vec<(String, String)>,
}

impl CellCoords {
    /// Starts coordinates for a cell of the named grid.
    pub fn new(grid: impl Into<String>) -> Self {
        CellCoords {
            grid: grid.into(),
            pairs: Vec::new(),
        }
    }

    /// Appends one `key = value` coordinate.
    pub fn with(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.pairs.push((key.into(), value.to_string()));
        self
    }

    /// Canonical rendering, e.g. `census[n=4,f=1]`.
    pub fn label(&self) -> String {
        let coords: Vec<String> = self.pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{}[{}]", self.grid, coords.join(","))
    }

    /// The cell's deterministic RNG seed: FNV-1a over [`Self::label`],
    /// via the workspace's canonical [`fingerprint`] module.
    ///
    /// [`fingerprint`]: iabc_graph::fingerprint
    pub fn seed(&self) -> u64 {
        iabc_graph::fingerprint::bytes(self.label().as_bytes())
    }
}

/// One independent unit of sweep work: coordinates plus the cell function,
/// which receives the coordinate-derived seed.
pub struct SweepCell<'a, T> {
    /// The cell's grid coordinates.
    pub coords: CellCoords,
    run: Box<dyn Fn(u64) -> T + Send + Sync + 'a>,
}

impl<'a, T> std::fmt::Debug for SweepCell<'a, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepCell")
            .field("coords", &self.coords)
            .finish_non_exhaustive()
    }
}

impl<'a, T> SweepCell<'a, T> {
    /// Wraps a cell function; it will be called with `coords.seed()`.
    pub fn new(coords: CellCoords, run: impl Fn(u64) -> T + Send + Sync + 'a) -> Self {
        SweepCell {
            coords,
            run: Box::new(run),
        }
    }
}

/// A completed cell: its coordinates, the seed it ran with, and its value.
#[derive(Debug, Clone)]
pub struct SweepOutcome<T> {
    /// The cell's grid coordinates.
    pub coords: CellCoords,
    /// The coordinate-derived seed the cell function received.
    pub seed: u64,
    /// The cell function's output.
    pub value: T,
}

/// Runs every cell and returns outcomes **in grid order**, regardless of
/// `jobs`. `jobs == 0` uses all available cores; `jobs <= 1` runs serially
/// on the calling thread with no pool involved. Parallel sweeps dispatch on
/// the **process-level shared pool** ([`iabc_exec::process_executor`]) —
/// the same pool the serve daemon and `iabc deploy` use — so concurrent
/// sweeps cannot oversubscribe the host; each cell is written to its own
/// output slot, so no merge sort is needed: the output slice *is* the grid
/// order.
pub fn run_cells<T: Send>(cells: Vec<SweepCell<'_, T>>, jobs: usize) -> Vec<SweepOutcome<T>> {
    let jobs = effective_jobs(jobs);
    let mut outcomes: Vec<Option<SweepOutcome<T>>> = (0..cells.len()).map(|_| None).collect();
    let fill = |idx: usize, slot: &mut Option<SweepOutcome<T>>| {
        let cell = &cells[idx];
        let seed = cell.coords.seed();
        *slot = Some(SweepOutcome {
            coords: cell.coords.clone(),
            seed,
            value: (cell.run)(seed),
        });
    };
    if jobs <= 1 || cells.len() <= 1 {
        for (idx, slot) in outcomes.iter_mut().enumerate() {
            fill(idx, slot);
        }
    } else {
        // Exactly one cell per chunk: a census cell can cost 10⁶× a
        // trivial one, so every cell must be individually stealable.
        process_executor(jobs).with(|exec| {
            exec.for_each(&mut outcomes, Chunking::Exact(1), fill);
        });
    }
    outcomes
        .into_iter()
        .map(|outcome| outcome.expect("every grid cell is computed exactly once"))
        .collect()
}

/// A memo consulted around each sweep cell — the in-process face of the
/// serving tier's content-addressed store. `lookup` answers before the cell
/// function runs; `record` is called for every miss after it computes.
///
/// Calls are serialized on the sweep's calling thread (the parallel pool
/// only runs the cell functions), so implementors need no interior locking.
pub trait CellMemo<T> {
    /// A previously recorded value for these coordinates, if any.
    fn lookup(&mut self, coords: &CellCoords) -> Option<T>;
    /// Records a freshly computed value for these coordinates.
    fn record(&mut self, coords: &CellCoords, value: &T);
}

/// [`run_cells`] with a memo in front: hits are answered without running
/// the cell function, misses run (in parallel on the shared pool for
/// `jobs > 1`) and are recorded. Returns outcomes in grid order plus
/// `(hits, misses)`. Because every engine is bit-for-bit deterministic at
/// any job count, a hit is provably identical to recomputation — the sweep
/// output is byte-for-byte the same whether the memo was warm or cold.
pub fn run_cells_memo<T: Send>(
    cells: Vec<SweepCell<'_, T>>,
    jobs: usize,
    memo: &mut dyn CellMemo<T>,
) -> (Vec<SweepOutcome<T>>, usize, usize) {
    let mut slots: Vec<Option<SweepOutcome<T>>> = Vec::with_capacity(cells.len());
    let mut misses: Vec<(usize, SweepCell<'_, T>)> = Vec::new();
    for (idx, cell) in cells.into_iter().enumerate() {
        match memo.lookup(&cell.coords) {
            Some(value) => slots.push(Some(SweepOutcome {
                seed: cell.coords.seed(),
                coords: cell.coords,
                value,
            })),
            None => {
                slots.push(None);
                misses.push((idx, cell));
            }
        }
    }
    let hits = slots.len() - misses.len();
    let missed = misses.len();
    let (indices, miss_cells): (Vec<usize>, Vec<SweepCell<'_, T>>) = misses.into_iter().unzip();
    for (slot_idx, outcome) in indices.into_iter().zip(run_cells(miss_cells, jobs)) {
        memo.record(&outcome.coords, &outcome.value);
        slots[slot_idx] = Some(outcome);
    }
    let outcomes = slots
        .into_iter()
        .map(|outcome| outcome.expect("every grid cell is answered or computed"))
        .collect();
    (outcomes, hits, missed)
}

// ---------------------------------------------------------------------------
// Grid builders
// ---------------------------------------------------------------------------

type ExperimentRunner = fn() -> ExperimentResult;

/// The experiment grid: one runner per paper artifact (E1–E12, in paper
/// order) followed by the extension experiments (X1–X13) —
/// the full regeneration surface, so every id is memoizable through the
/// serving tier's cell key schema.
const EXPERIMENT_RUNNERS: [(&str, ExperimentRunner); 25] = [
    ("E1", experiments::e1_necessity),
    ("E2", experiments::e2_validity),
    ("E3", experiments::e3_convergence),
    ("E4", experiments::e4_corollary2),
    ("E5", experiments::e5_corollary3),
    ("E6", experiments::e6_core_network),
    ("E7", experiments::e7_hypercube),
    ("E8", experiments::e8_chord),
    ("E9", experiments::e9_async),
    ("E10", experiments::e10_rate),
    ("E11", experiments::e11_figures),
    ("E12", experiments::e12_ablation),
    ("X1", experiments::x1_local_fault_model),
    ("X2", experiments::x2_matrix_representation),
    ("X3", experiments::x3_model_comparison),
    ("X4", experiments::x4_condition_zoo),
    ("X5", experiments::x5_baselines),
    ("X6", experiments::x6_scaling),
    ("X7", experiments::x7_construction),
    ("X8", experiments::x8_census),
    ("X9", experiments::x9_adversary_tournament),
    ("X10", experiments::x10_fault_models),
    ("X11", experiments::x11_dynamic_topology),
    ("X12", experiments::x12_quantized),
    ("X13", experiments::x13_vector),
];

/// `true` iff `id` names an experiment (case-insensitive `E1`..`E12` or
/// `X1`..`X13`).
pub fn is_known_experiment_id(id: &str) -> bool {
    EXPERIMENT_RUNNERS
        .iter()
        .any(|(known, _)| known.eq_ignore_ascii_case(id))
}

/// Canonical position of `id` in the registry (E1–E12 then X1–X13) —
/// the sort key the serving tier canonicalizes requested id lists by.
pub fn experiment_id_position(id: &str) -> Option<usize> {
    EXPERIMENT_RUNNERS
        .iter()
        .position(|(known, _)| known.eq_ignore_ascii_case(id))
}

/// Largest `n` the exhaustive census can enumerate (`n(n−1) ≤ 20`).
pub const CENSUS_MAX_N: usize = 5;

/// Builds one cell per experiment, optionally restricted to the given
/// ids (case-insensitive; validate with [`is_known_experiment_id`] first
/// — unknown ids are ignored here). An empty list keeps its historical
/// meaning, the paper grid E1–E12; the X1–X13 extensions run only when
/// named explicitly.
pub fn experiment_cells(ids: &[String]) -> Vec<SweepCell<'static, ExperimentResult>> {
    EXPERIMENT_RUNNERS
        .into_iter()
        .filter(|(id, _)| {
            if ids.is_empty() {
                id.starts_with('E')
            } else {
                ids.iter().any(|want| want.eq_ignore_ascii_case(id))
            }
        })
        .map(|(id, runner)| {
            SweepCell::new(
                CellCoords::new("experiments").with("id", id),
                move |_seed| runner(),
            )
        })
        .collect()
}

/// Runs the experiment grid through the sweep runner and summarizes it.
/// With `ids` empty, all of E1–E12 run. The summary table (and each
/// underlying [`ExperimentResult`]) is bit-identical for any `jobs`.
pub fn run_experiment_sweep(
    ids: &[String],
    jobs: usize,
) -> (Table, Vec<SweepOutcome<ExperimentResult>>) {
    let outcomes = run_cells(experiment_cells(ids), jobs);
    let mut table = Table::new(["id", "title", "rows", "pass"]);
    for outcome in &outcomes {
        table.row([
            outcome.value.id.to_string(),
            outcome.value.title.to_string(),
            outcome.value.table.len().to_string(),
            outcome.value.pass.to_string(),
        ]);
    }
    (table, outcomes)
}

/// [`run_experiment_sweep`] with a [`CellMemo`] in front (the serving
/// tier's in-process store fast path): warm cells are answered from the
/// memo, cold cells run and are recorded. Returns the summary table, the
/// outcomes, and `(hits, misses)` so callers can report the cache collapse
/// per table.
pub fn run_experiment_sweep_memo(
    ids: &[String],
    jobs: usize,
    memo: &mut dyn CellMemo<ExperimentResult>,
) -> (Table, Vec<SweepOutcome<ExperimentResult>>, usize, usize) {
    let (outcomes, hits, misses) = run_cells_memo(experiment_cells(ids), jobs, memo);
    let mut table = Table::new(["id", "title", "rows", "pass"]);
    for outcome in &outcomes {
        table.row([
            outcome.value.id.to_string(),
            outcome.value.title.to_string(),
            outcome.value.table.len().to_string(),
            outcome.value.pass.to_string(),
        ]);
    }
    (table, outcomes, hits, misses)
}

/// Parameters for a Monte-Carlo Erdős–Rényi tolerance sweep.
#[derive(Debug, Clone)]
pub struct MonteCarloSpec {
    /// Node counts to sweep.
    pub ns: Vec<usize>,
    /// Fault bounds to sweep.
    pub fs: Vec<usize>,
    /// Edge probability of each sampled digraph.
    pub edge_prob: f64,
    /// Graphs sampled per `(n, f)` cell.
    pub trials: usize,
    /// FastMath replicas simulated per in-degree-eligible sampled graph
    /// (`0` = condition-only, the historical sweep). When `> 0` each
    /// eligible graph additionally runs a
    /// [`iabc_sim::fastmath::BatchedSimulation`] of this width under a
    /// constant-value attack on the first `f` nodes, tallying per-replica
    /// convergence.
    pub replicas: usize,
}

/// Round cap for the per-graph batched convergence runs of a
/// `replicas > 0` Monte-Carlo sweep (generous for the small dense graphs
/// the sweep samples; a non-converging cell is data, not an error).
const MC_BATCH_MAX_ROUNDS: usize = 200;

/// Convergence epsilon for those runs.
const MC_BATCH_EPSILON: f64 = 1e-6;

/// Tallies from one Monte-Carlo `(n, f)` cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonteCarloCellStats {
    /// Node count of this cell.
    pub n: usize,
    /// Fault bound of this cell.
    pub f: usize,
    /// Graphs sampled.
    pub trials: usize,
    /// How many sampled graphs satisfy the Theorem 1 condition.
    pub satisfying: usize,
    /// How many satisfy Corollary 3's in-degree bound (`≥ 2f + 1`).
    pub corollary3: usize,
    /// Replicas simulated per eligible graph (0 = condition-only cell).
    pub replicas: usize,
    /// Graphs on which a batched simulation ran (those meeting the
    /// Corollary 3 in-degree bound, which guarantees the trim never
    /// starves).
    pub simulated: usize,
    /// Replicas (across all simulated graphs) whose fault-free range
    /// reached the convergence epsilon within the round cap.
    pub converged: usize,
    /// Sum of first-convergence rounds over the converged replicas (mean
    /// = `rounds_total / converged`).
    pub rounds_total: usize,
}

/// Builds one cell per `(n, f)` pair of the Monte-Carlo sweep. Each cell
/// seeds its own RNG from its coordinates, so a cell's tally never depends
/// on which worker ran it or in what order. With `spec.replicas > 0` the
/// cell's coordinates (hence its seed) gain a `replicas` component and
/// every in-degree-eligible sampled graph also runs a replica-batched
/// FastMath simulation: random inputs in `[0, 1)` per `(node, replica)`
/// drawn from the cell RNG, the first `f` nodes faulty under a constant
/// out-of-hull attack, trimmed-mean with the cell's `f`.
pub fn monte_carlo_cells(spec: &MonteCarloSpec) -> Vec<SweepCell<'static, MonteCarloCellStats>> {
    let mut cells = Vec::new();
    for &n in &spec.ns {
        for &f in &spec.fs {
            let (edge_prob, trials, replicas) = (spec.edge_prob, spec.trials, spec.replicas);
            let mut coords = CellCoords::new("monte-carlo")
                .with("n", n)
                .with("f", f)
                .with("p", edge_prob)
                .with("trials", trials);
            if replicas > 0 {
                coords = coords.with("replicas", replicas);
            }
            cells.push(SweepCell::new(coords, move |seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut stats = MonteCarloCellStats {
                    n,
                    f,
                    trials,
                    satisfying: 0,
                    corollary3: 0,
                    replicas,
                    simulated: 0,
                    converged: 0,
                    rounds_total: 0,
                };
                for _ in 0..trials {
                    let g = generators::erdos_renyi(n, edge_prob, &mut rng);
                    let eligible = g.min_in_degree() > 2 * f;
                    if eligible {
                        stats.corollary3 += 1;
                    }
                    if theorem1::check(&g, f).is_satisfied() {
                        stats.satisfying += 1;
                    }
                    if replicas > 0 && eligible && f < n {
                        batch_trial(&g, f, replicas, &mut rng, &mut stats);
                    }
                }
                stats
            }));
        }
    }
    cells
}

/// One batched convergence run of a `replicas > 0` Monte-Carlo cell; see
/// [`monte_carlo_cells`]. Inputs are drawn from the cell RNG *inside*
/// this function in a fixed order, so the cell stays a pure function of
/// its coordinate seed.
fn batch_trial(
    g: &iabc_graph::Digraph,
    f: usize,
    replicas: usize,
    rng: &mut StdRng,
    stats: &mut MonteCarloCellStats,
) {
    use iabc_sim::adversary::{Adversary, ConstantAdversary};
    use iabc_sim::fastmath::BatchedSimulation;
    use iabc_sim::RunConfig;

    let n = g.node_count();
    let inputs: Vec<f64> = (0..n * replicas)
        .map(|_| rng.random_range(0.0..1.0))
        .collect();
    let faults = iabc_graph::NodeSet::from_indices(n, 0..f);
    let rule = iabc_core::fastmath::FastRule::TrimmedMean(f);
    let make = |_: usize| -> Box<dyn Adversary> { Box::new(ConstantAdversary::new(1e9)) };
    // Eligibility (`min_in_degree > 2f`) guarantees the trim never
    // starves, so the only Rule error would be an engine bug — surface it.
    let mut batch = BatchedSimulation::new(g, &inputs, faults, rule, replicas, make)
        .expect("eligible monte-carlo batch must construct");
    let out = batch
        .run(&RunConfig::bounded(MC_BATCH_EPSILON, MC_BATCH_MAX_ROUNDS))
        .expect("in-degree-eligible batch cannot starve the trim");
    stats.simulated += 1;
    stats.converged += out.converged_count();
    stats.rounds_total += out.rounds_to_converge.iter().flatten().sum::<usize>();
}

/// Runs a Monte-Carlo tolerance sweep and renders the per-cell tallies.
/// With `spec.replicas > 0` the table gains the batched-convergence
/// columns (`replicas`, `simulated`, `converged`, `mean_rounds`).
pub fn run_monte_carlo_sweep(spec: &MonteCarloSpec, jobs: usize) -> Table {
    let outcomes = run_cells(monte_carlo_cells(spec), jobs);
    let batched = spec.replicas > 0;
    let mut headers = vec![
        "n",
        "f",
        "p",
        "trials",
        "satisfying",
        "corollary3_in_degree",
    ];
    if batched {
        headers.extend(["replicas", "simulated", "converged", "mean_rounds"]);
    }
    let mut table = Table::new(headers);
    for outcome in &outcomes {
        let s = &outcome.value;
        let mut row = vec![
            s.n.to_string(),
            s.f.to_string(),
            format!("{}", spec.edge_prob),
            s.trials.to_string(),
            s.satisfying.to_string(),
            s.corollary3.to_string(),
        ];
        if batched {
            row.push(s.replicas.to_string());
            row.push(s.simulated.to_string());
            row.push(s.converged.to_string());
            row.push(if s.converged == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", s.rounds_total as f64 / s.converged as f64)
            });
        }
        table.row(row);
    }
    table
}

/// Builds one exhaustive-census cell per `(n, f)` pair, `n` in
/// `2..=max_n`, capped at [`CENSUS_MAX_N`] (beyond which the census
/// cannot enumerate: `n(n−1) > 20`). Callers wanting a hard error instead
/// of a silent cap should validate `max_n` first.
pub fn census_cells(max_n: usize, fs: &[usize]) -> Vec<SweepCell<'static, CensusRow>> {
    let mut cells = Vec::new();
    for n in 2..=max_n.min(CENSUS_MAX_N) {
        for &f in fs {
            let coords = CellCoords::new("census").with("n", n).with("f", f);
            cells.push(SweepCell::new(coords, move |_seed| census(n, f)));
        }
    }
    cells
}

/// Runs the exhaustive tolerance census across `(n, f)` cells and renders
/// the classic census table.
pub fn run_census_sweep(max_n: usize, fs: &[usize], jobs: usize) -> Table {
    let outcomes = run_cells(census_cells(max_n, fs), jobs);
    let mut table = Table::new(["n", "f", "graphs", "satisfying", "min_edges", "corollary3"]);
    for outcome in &outcomes {
        let row = &outcome.value;
        table.row([
            row.n.to_string(),
            row.f.to_string(),
            row.graphs.to_string(),
            row.satisfying.to_string(),
            row.min_edges
                .map_or_else(|| "-".to_string(), |m| m.to_string()),
            row.corollary3_holds.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_depend_only_on_coordinates() {
        let a = CellCoords::new("g").with("n", 6).with("f", 1);
        let b = CellCoords::new("g").with("n", 6).with("f", 1);
        let c = CellCoords::new("g").with("n", 6).with("f", 2);
        assert_eq!(a.seed(), b.seed());
        assert_ne!(a.seed(), c.seed());
        assert_eq!(a.label(), "g[n=6,f=1]");
    }

    #[test]
    fn outcomes_preserve_grid_order_across_job_counts() {
        let build = || {
            (0..40)
                .map(|i| {
                    let coords = CellCoords::new("order").with("i", i);
                    SweepCell::new(coords, move |seed| (i, seed))
                })
                .collect::<Vec<_>>()
        };
        let serial = run_cells(build(), 1);
        for jobs in [2, 3, 8] {
            let parallel = run_cells(build(), jobs);
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.coords, p.coords);
                assert_eq!(s.seed, p.seed);
                assert_eq!(s.value, p.value);
            }
        }
    }

    #[test]
    fn monte_carlo_sweep_is_bit_identical_across_job_counts() {
        let spec = MonteCarloSpec {
            ns: vec![5, 6],
            fs: vec![0, 1],
            edge_prob: 0.6,
            trials: 8,
            replicas: 0,
        };
        let serial = run_monte_carlo_sweep(&spec, 1).to_string();
        let parallel = run_monte_carlo_sweep(&spec, 4).to_string();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn batched_monte_carlo_sweep_tallies_convergence() {
        let spec = MonteCarloSpec {
            ns: vec![6],
            fs: vec![1],
            edge_prob: 0.9,
            trials: 6,
            replicas: 4,
        };
        let cells = monte_carlo_cells(&spec);
        let outcomes = run_cells(cells, 1);
        assert_eq!(outcomes.len(), 1);
        let s = &outcomes[0].value;
        assert_eq!(s.replicas, 4);
        assert_eq!(s.simulated, s.corollary3);
        // Dense (p = 0.9) eligible graphs under a clamped constant attack
        // converge well inside the round cap.
        assert!(s.simulated > 0, "dense sweep should simulate something");
        assert_eq!(s.converged, s.simulated * 4);
        assert!(s.rounds_total >= s.converged);
        // The rendered table carries the batched columns.
        let table = run_monte_carlo_sweep(&spec, 2).to_string();
        assert!(table.contains("mean_rounds"));
        assert!(table.contains("simulated"));
    }

    #[test]
    fn batched_monte_carlo_sweep_is_bit_identical_across_job_counts() {
        let spec = MonteCarloSpec {
            ns: vec![5, 6],
            fs: vec![1],
            edge_prob: 0.8,
            trials: 4,
            replicas: 3,
        };
        let serial = run_monte_carlo_sweep(&spec, 1).to_string();
        let parallel = run_monte_carlo_sweep(&spec, 4).to_string();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn census_sweep_matches_direct_census() {
        let table = run_census_sweep(4, &[0, 1], 2);
        // n ∈ {2, 3, 4} × f ∈ {0, 1}.
        assert_eq!(table.len(), 6);
        let direct = census(3, 1);
        let rendered = table.to_string();
        assert!(rendered.contains(&direct.satisfying.to_string()));
    }
}
