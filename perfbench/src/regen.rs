//! `regen`: back-to-back cold regenerations of all 25 experiments
//! (E1–E12, X1–X13) in one process, each through
//! `iabc_analysis::sweep::run_experiment_sweep` with no memo.
//!
//! The inputs are the paper grid, so the seed does not change this workload.
//! The traced run schedules the same 25 cells through the same
//! `run_cells` entry point, with one span per experiment.

use std::time::{Duration, Instant};

use iabc_analysis::experiments::ExperimentResult;
use iabc_analysis::sweep::{
    experiment_cells, run_cells, run_experiment_sweep, CellCoords, SweepCell,
};
use iabc_graph::fingerprint::Fnv64;

use crate::trace::{median, ms, Metric, Outcome, SpanId, Tracer};
use crate::Ctx;

pub const IDS: [&str; 25] = [
    "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "X1", "X2", "X3",
    "X4", "X5", "X6", "X7", "X8", "X9", "X10", "X11", "X12", "X13",
];

/// Digest of every rendered experiment table, recorded from the seed
/// commit's regeneration.
pub const PINNED_DIGEST: u64 = 0x1bbf_2c55_0bfa_3dad;

/// Order-sensitive digest of each experiment's id, title, verdict, notes and
/// rendered table.
pub fn digest(results: &[ExperimentResult]) -> u64 {
    let mut h = Fnv64::new();
    for r in results {
        h.write_str(&r.id);
        h.write_str(&r.title);
        h.write_u8(u8::from(r.pass));
        for note in &r.notes {
            h.write_str(note);
        }
        h.write_str(&r.table.to_string());
    }
    h.finish()
}

/// The output check of one regeneration: all 25 results present in grid
/// order, every one passing, and the rendered tables matching the pin.
pub fn check(results: &[ExperimentResult]) -> Result<(), String> {
    let ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
    if ids != IDS {
        return Err(format!("regeneration returned ids {ids:?}"));
    }
    if let Some(r) = results.iter().find(|r| !r.pass) {
        return Err(format!("experiment {} failed its paper check", r.id));
    }
    let got = digest(results);
    if got != PINNED_DIGEST {
        return Err(format!(
            "table digest {got:016x} != pinned {PINNED_DIGEST:016x}"
        ));
    }
    Ok(())
}

fn all_ids() -> Vec<String> {
    IDS.iter().map(|id| id.to_string()).collect()
}

/// One untraced regeneration: exactly what a user's sweep runs.
fn regenerate(jobs: usize) -> Vec<ExperimentResult> {
    let (_, outcomes) = run_experiment_sweep(&all_ids(), jobs);
    outcomes.into_iter().map(|o| o.value).collect()
}

/// One traced regeneration: the same 25 `Exact(1)` cells on the same pool,
/// each wrapped in an `analysis.experiment.<ID>` span under `parent`.
fn regenerate_traced(
    jobs: usize,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Vec<ExperimentResult> {
    let cells: Vec<SweepCell<'_, ExperimentResult>> = IDS
        .iter()
        .map(|&id| {
            let coords = CellCoords::new("experiments").with("id", id);
            SweepCell::new(coords, move |_seed| {
                let span = format!("analysis.experiment.{id}");
                tracer.span(&span, parent, || {
                    let mut out = run_cells(experiment_cells(&[id.to_string()]), 1);
                    out.pop().expect("one cell per experiment id").value
                })
            })
        })
        .collect();
    run_cells(cells, jobs)
        .into_iter()
        .map(|o| o.value)
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome::default();
    let tracer = &ctx.tracer;
    let once = |outcome: &mut Outcome| -> Duration {
        let parent = tracer.open("regen.regeneration", None);
        let start = Instant::now();
        let results = if tracer.enabled() {
            regenerate_traced(ctx.jobs, tracer, parent)
        } else {
            regenerate(ctx.jobs)
        };
        let took = start.elapsed();
        tracer.close(parent);
        outcome.check(check(&results));
        took
    };

    // The first regeneration warms the process pool and every lazy table.
    let setup = once(&mut outcome);
    let mut times = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < ctx.seconds {
        times.push(once(&mut outcome));
    }

    outcome.setups = vec![setup.as_secs_f64()];
    outcome.op = "regeneration";
    outcome.latencies_ms = times.iter().map(|&d| ms(d)).collect();
    outcome.items = times.len();
    outcome.busy = times.iter().sum();

    if tracer.enabled() {
        for id in IDS {
            let name = format!("analysis.experiment.{id}");
            let d = tracer.durations(&name);
            // Skip the warm-up regeneration's span.
            let d = if d.len() > 1 { &d[1..] } else { &d[..] };
            outcome.per_layer.push(Metric::sampled(
                format!("{name}_ms"),
                crate::trace::median_of(d, ms),
                "ms",
                d.len(),
            ));
        }
        // Σ experiment time ÷ (jobs × wall), per measured regeneration.
        let spans = tracer.spans();
        let fracs: Vec<f64> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "regen.regeneration")
            .skip(1)
            .map(|(id, regen)| {
                let inner: Duration = spans
                    .iter()
                    .filter(|s| s.parent == Some(id as SpanId))
                    .map(|s| s.duration())
                    .sum();
                inner.as_secs_f64() / (ctx.jobs as f64 * regen.duration().as_secs_f64())
            })
            .collect();
        outcome.per_layer.push(Metric::sampled(
            "exec.sweep.busy_frac",
            median(&fracs),
            "ratio",
            fracs.len(),
        ));
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_analysis::table::Table;

    fn fake(pass: bool, cell: &str) -> Vec<ExperimentResult> {
        IDS.iter()
            .map(|id| {
                let mut table = Table::new(["k", "v"]);
                table.row(["x", cell]);
                ExperimentResult {
                    id: id.to_string(),
                    title: "t".into(),
                    table,
                    notes: Vec::new(),
                    artifacts: Vec::new(),
                    pass,
                }
            })
            .collect()
    }

    #[test]
    fn digest_moves_with_any_table_cell() {
        let a = fake(true, "1");
        let mut b = fake(true, "1");
        assert_eq!(digest(&a), digest(&b));
        b[24].table = {
            let mut t = Table::new(["k", "v"]);
            t.row(["x", "2"]);
            t
        };
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn a_failed_or_missing_experiment_is_a_failure() {
        assert!(check(&fake(false, "1")).is_err());
        let mut short = fake(true, "1");
        short.pop();
        assert!(check(&short).is_err());
    }

    #[test]
    fn corrupting_one_real_table_is_a_failure() {
        let mut results = regenerate(1);
        assert_eq!(check(&results), Ok(()));
        results[3].table.row(["corrupt"]);
        assert!(check(&results).is_err());
    }
}
