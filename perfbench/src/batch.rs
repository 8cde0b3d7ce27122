//! `batch`: `iabc_analysis::batched::run_sim_cells(cells, jobs, true)` over
//! a seeded grid of same-spec cells.
//!
//! Two specs have in-degree ≤ 32 and sort on the unrolled networks; two have
//! in-degree 89–99 and sort on the merge networks. Each spec gets
//! [`CELLS_PER_SPEC`] cells, a shared-plan adversary (Pull or Constant) and
//! trimmed-mean. The seed picks every cell's inputs.

use std::time::Instant;

use iabc_analysis::batched::{
    run_sim_cells, run_spec_group, AdversarySpec, SimCell, SimCellResult, SimCellSpec, Topology,
};
use iabc_analysis::sweep::{run_cells, CellCoords, SweepCell, SweepOutcome};
use iabc_core::fastmath::{sort_columns_keys, FastRule};
use iabc_sim::fastmath::BatchedSimulation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{median_of, ms, us, Metric, Outcome, Scale, Tracer};
use crate::Ctx;

/// Cells per spec: the lane count of every batched group.
pub const CELLS_PER_SPEC: usize = 32;
const EPSILON: f64 = 1e-6;
const MAX_ROUNDS: usize = 50;
/// Cells per spec re-run on the dispatch path (`batch = false`).
const DISPATCH_SAMPLE: usize = 2;
/// Rounds stepped per spec by the traced engine probe.
const PROBE_STEPS: usize = 20;

/// `(topology, f, adversary, sorting network)` of each spec. The seed
/// changes only the inputs, so the work per pass stays fixed.
const SHAPES: [(Topology, usize, AdversarySpec, &str); 4] = [
    (
        Topology::Circulant { n: 128, degree: 24 },
        2,
        AdversarySpec::Pull { toward_max: true },
        "unrolled",
    ),
    (
        Topology::Circulant { n: 128, degree: 28 },
        3,
        AdversarySpec::Constant(1e9),
        "unrolled",
    ),
    (
        Topology::Complete(100),
        4,
        AdversarySpec::Pull { toward_max: false },
        "merge",
    ),
    (
        Topology::Circulant { n: 160, degree: 64 },
        3,
        AdversarySpec::Constant(-1e9),
        "merge",
    ),
];

/// Network name of the shape a spec was built from.
fn network(spec: &SimCellSpec) -> &'static str {
    SHAPES
        .iter()
        .find(|(t, f, _, _)| *t == spec.topology && *f == spec.f)
        .map(|&(_, _, _, net)| net)
        .expect("every spec comes from SHAPES")
}

/// The seeded grid, spec-major.
pub fn grid(seed: u64) -> Vec<SimCell> {
    let mut cells = Vec::new();
    for (s, &(topology, f, adversary, _)) in SHAPES.iter().enumerate() {
        let spec = SimCellSpec {
            topology,
            f,
            rule: FastRule::TrimmedMean(f),
            adversary,
            epsilon: EPSILON,
            max_rounds: MAX_ROUNDS,
        };
        for k in 0..CELLS_PER_SPEC {
            let coords = CellCoords::new("perfbench-batch")
                .with("seed", seed)
                .with("spec", s)
                .with("cell", k);
            cells.push(SimCell {
                coords,
                spec: spec.clone(),
            });
        }
    }
    cells
}

/// Compares a pass with the reference results cell by cell; returns the
/// indices that differ.
pub fn mismatches(reference: &[SimCellResult], got: &[SweepOutcome<SimCellResult>]) -> Vec<usize> {
    if reference.len() != got.len() {
        return (0..reference.len().max(got.len())).collect();
    }
    (0..reference.len())
        .filter(|&i| reference[i] != got[i].value)
        .collect()
}

/// Builds the engine `run_spec_group` builds for these lane seeds.
fn engine<'g>(
    spec: &SimCellSpec,
    graph: &'g iabc_graph::Digraph,
    seeds: &[u64],
) -> BatchedSimulation<'g> {
    let n = graph.node_count();
    let width = seeds.len();
    let mut inputs = vec![0.0f64; n * width];
    for (g, &seed) in seeds.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            inputs[i * width + g] = rng.random_range(0.0..1.0);
        }
    }
    let adversary = spec.adversary;
    BatchedSimulation::new(graph, &inputs, spec.fault_set(), spec.rule, width, |_| {
        adversary.make()
    })
    .expect("grid specs are eligible")
}

/// The spec groups of the grid: `(spec, member indices)`.
fn groups(cells: &[SimCell]) -> Vec<(SimCellSpec, Vec<usize>)> {
    let mut groups: Vec<(SimCellSpec, Vec<usize>)> = Vec::new();
    for (idx, cell) in cells.iter().enumerate() {
        match groups.iter_mut().find(|(spec, _)| *spec == cell.spec) {
            Some((_, members)) => members.push(idx),
            None => groups.push((cell.spec.clone(), vec![idx])),
        }
    }
    groups
}

/// A traced pass: the groups `run_sim_cells` would form, each run by
/// `run_spec_group` inside an `analysis.batched.group.<network>` span, on
/// the same pool through the same `run_cells` entry point.
fn pass_traced(
    cells: &[SimCell],
    jobs: usize,
    tracer: &Tracer,
) -> Vec<SweepOutcome<SimCellResult>> {
    let groups = groups(cells);
    let group_cells: Vec<SweepCell<'_, Vec<SimCellResult>>> = groups
        .iter()
        .enumerate()
        .map(|(g, (spec, members))| {
            let seeds: Vec<u64> = members.iter().map(|&i| cells[i].coords.seed()).collect();
            let span = format!("analysis.batched.group.{}", network(spec));
            SweepCell::new(CellCoords::new("sim-group").with("g", g), move |_| {
                tracer.span(&span, None, || run_spec_group(spec, &seeds))
            })
        })
        .collect();
    let mut results: Vec<Option<SimCellResult>> = vec![None; cells.len()];
    for (outcome, (_, members)) in run_cells(group_cells, jobs).iter().zip(&groups) {
        for (lane, &idx) in members.iter().enumerate() {
            results[idx] = Some(outcome.value[lane]);
        }
    }
    cells
        .iter()
        .zip(results)
        .map(|(cell, value)| SweepOutcome {
            coords: cell.coords.clone(),
            seed: cell.coords.seed(),
            value: value.expect("every cell belongs to one group"),
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome::default();
    let tracer = &ctx.tracer;
    let pass = |cells: &[SimCell]| {
        if tracer.enabled() {
            pass_traced(cells, ctx.jobs, tracer)
        } else {
            run_sim_cells(cells, ctx.jobs, true)
        }
    };

    // Set-up: the grid plus one warm-up pass, whose results are the
    // reference every later pass must repeat.
    let start = Instant::now();
    let cells = grid(ctx.seed);
    let reference: Vec<SimCellResult> = pass(&cells).into_iter().map(|o| o.value).collect();
    let setup = start.elapsed();

    // The warm-up pass must equal the dispatch path on a sample.
    let sample: Vec<usize> = (0..SHAPES.len())
        .flat_map(|s| (0..DISPATCH_SAMPLE).map(move |k| s * CELLS_PER_SPEC + k))
        .collect();
    let sample_cells: Vec<SimCell> = sample.iter().map(|&i| cells[i].clone()).collect();
    let dispatched = run_sim_cells(&sample_cells, ctx.jobs, false);
    for (&i, d) in sample.iter().zip(&dispatched) {
        outcome.check(if d.value == reference[i] {
            Ok(())
        } else {
            Err(format!(
                "cell {i}: batched {:?} != dispatch {:?}",
                reference[i], d.value
            ))
        });
    }
    // Every fault-free row must take the columnar path, on a shared plan.
    let (mut fallback_rows, mut shared_plan_groups) = (0, 0);
    for (spec, members) in groups(&cells) {
        let graph = spec.topology.build();
        let seeds: Vec<u64> = members.iter().map(|&i| cells[i].coords.seed()).collect();
        let mut sim = tracer.span("sim.fastmath.new", None, || engine(&spec, &graph, &seeds));
        fallback_rows += sim.scalar_fallback_rows();
        shared_plan_groups += usize::from(sim.shared_plan().is_some());
        if tracer.enabled() {
            let name = format!("sim.fastmath.step.{}", network(&spec));
            for _ in 0..PROBE_STEPS {
                tracer.span(&name, None, || sim.step().expect("eligible spec steps"));
            }
        }
    }
    outcome.check(if fallback_rows == 0 {
        Ok(())
    } else {
        Err(format!("{fallback_rows} rows took the scalar fallback"))
    });

    let mut passes = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < ctx.seconds {
        let start = Instant::now();
        let got = pass(&cells);
        passes.push(start.elapsed());
        outcome.attempted += got.len() as u64;
        for i in mismatches(&reference, &got) {
            outcome.fail(format!("cell {i} differs from the reference pass"));
        }
    }

    outcome.setups = vec![setup.as_secs_f64()];
    outcome.op = "pass";
    outcome.latencies_ms = passes.iter().map(|&d| ms(d)).collect();
    outcome.items = passes.len() * cells.len();
    outcome.busy = passes.iter().sum();

    if tracer.enabled() {
        let spans: [(&str, &str, Scale, &str); 5] = [
            (
                "analysis.batched.group_ms.unrolled",
                "analysis.batched.group.unrolled",
                ms,
                "ms",
            ),
            (
                "analysis.batched.group_ms.merge",
                "analysis.batched.group.merge",
                ms,
                "ms",
            ),
            ("sim.fastmath.new_ms", "sim.fastmath.new", ms, "ms"),
            (
                "sim.fastmath.step_us.unrolled",
                "sim.fastmath.step.unrolled",
                us,
                "us",
            ),
            (
                "sim.fastmath.step_us.merge",
                "sim.fastmath.step.merge",
                us,
                "us",
            ),
        ];
        for (name, span, scale, unit) in spans {
            let d = tracer.durations(span);
            outcome
                .per_layer
                .push(Metric::sampled(name, median_of(&d, scale), unit, d.len()));
        }
        for slots in [32usize, 128] {
            let v = sort_columns_probe(ctx.seed, slots, tracer);
            outcome.per_layer.push(Metric::sampled(
                format!("core.fastmath.sort_columns_us.{slots}"),
                v,
                "us",
                SORT_REPS,
            ));
        }
        outcome.per_layer.push(Metric::new(
            "sim.fastmath.scalar_fallback_rows",
            fallback_rows as f64,
            "count",
        ));
        outcome.per_layer.push(Metric::new(
            "sim.fastmath.shared_plan_groups",
            shared_plan_groups as f64,
            "count",
        ));
    }
    outcome
}

const SORT_REPS: usize = 2000;

/// Median time of one `sort_columns_keys` call on `slots` padded rows of
/// [`CELLS_PER_SPEC`] lanes of seeded keys.
fn sort_columns_probe(seed: u64, slots: usize, tracer: &Tracer) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed ^ slots as u64);
    let keys: Vec<u64> = (0..slots * CELLS_PER_SPEC)
        .map(|_| rng.random_range(0..u64::MAX))
        .collect();
    let name = format!("core.fastmath.sort_columns.{slots}");
    let mut samples = Vec::with_capacity(SORT_REPS);
    let mut buf = keys.clone();
    for _ in 0..SORT_REPS {
        buf.copy_from_slice(&keys);
        let start = Instant::now();
        sort_columns_keys(std::hint::black_box(&mut buf), CELLS_PER_SPEC);
        let end = Instant::now();
        tracer.record(name.as_str(), None, start, end);
        samples.push(end - start);
    }
    median_of(&samples, us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_a_pure_function_of_the_seed() {
        let a = grid(1);
        let b = grid(1);
        let c = grid(2);
        assert_eq!(a.len(), SHAPES.len() * CELLS_PER_SPEC);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.coords == y.coords && x.spec == y.spec));
        assert!(a.iter().zip(&c).all(|(x, y)| x.coords != y.coords));
        assert_eq!(groups(&a).len(), SHAPES.len());
    }

    #[test]
    fn corrupting_one_cell_result_is_a_failure() {
        let cells: Vec<SimCell> = grid(3).into_iter().step_by(CELLS_PER_SPEC).collect();
        let got = run_sim_cells(&cells, 1, true);
        let mut reference: Vec<SimCellResult> = got.iter().map(|o| o.value).collect();
        assert!(mismatches(&reference, &got).is_empty());
        reference[1].converged = !reference[1].converged;
        assert_eq!(mismatches(&reference, &got), vec![1]);
    }
}
