//! The repository benchmark: one workload per process, outputs checked,
//! every metric printed by name and unit, and one JSON result as the last
//! line of standard output.
//!
//! ```text
//! perfbench --workload <regen|serve_mix|deploy|batch> --seed N --seconds S
//!           --trace <0|1> [--out DIR] [--commit ID]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` records spans
//! around the benchmark's calls into each crate and reports the per-layer
//! metrics. See `README.md` next to this crate.

mod batch;
mod deploy;
mod regen;
mod serve_mix;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use trace::{median, quantile, Metric, Outcome, Tracer};

/// Everything a workload needs to run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Worker budget: the host's cores.
    pub jobs: usize,
    /// Closed-loop clients of `serve_mix`: the host's cores.
    pub clients: usize,
    pub tracer: Tracer,
    /// Scratch directory for stores, span dumps and last results.
    pub out_dir: PathBuf,
}

const WORKLOADS: [&str; 4] = ["regen", "serve_mix", "deploy", "batch"];

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("p90_ms", "ms"),
];

/// Per-layer metrics reported with `--trace 1`. A workload reports 0 for a
/// layer it never calls.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("analysis.experiment.E1_ms", "ms"),
    ("analysis.experiment.E2_ms", "ms"),
    ("analysis.experiment.E3_ms", "ms"),
    ("analysis.experiment.E4_ms", "ms"),
    ("analysis.experiment.E5_ms", "ms"),
    ("analysis.experiment.E6_ms", "ms"),
    ("analysis.experiment.E7_ms", "ms"),
    ("analysis.experiment.E8_ms", "ms"),
    ("analysis.experiment.E9_ms", "ms"),
    ("analysis.experiment.E10_ms", "ms"),
    ("analysis.experiment.E11_ms", "ms"),
    ("analysis.experiment.E12_ms", "ms"),
    ("analysis.experiment.X1_ms", "ms"),
    ("analysis.experiment.X2_ms", "ms"),
    ("analysis.experiment.X3_ms", "ms"),
    ("analysis.experiment.X4_ms", "ms"),
    ("analysis.experiment.X5_ms", "ms"),
    ("analysis.experiment.X6_ms", "ms"),
    ("analysis.experiment.X7_ms", "ms"),
    ("analysis.experiment.X8_ms", "ms"),
    ("analysis.experiment.X9_ms", "ms"),
    ("analysis.experiment.X10_ms", "ms"),
    ("analysis.experiment.X11_ms", "ms"),
    ("analysis.experiment.X12_ms", "ms"),
    ("analysis.experiment.X13_ms", "ms"),
    ("exec.sweep.busy_frac", "ratio"),
    ("serve.client.query_absent_ms", "ms"),
    ("serve.job.key_us.scenario", "us"),
    ("serve.job.key_us.sweep", "us"),
    ("serve.json.request_parse_us.scenario", "us"),
    ("serve.json.render_us.hit", "us"),
    ("serve.json.render_us.regen_hit", "us"),
    ("serve.json.parse_us.hit", "us"),
    ("serve.json.parse_us.regen_hit", "us"),
    ("serve.store.get_us", "us"),
    ("serve.store.record_hit_us", "us"),
    ("serve.store.insert_ms", "ms"),
    ("serve.job.execute_ms", "ms"),
    ("exec.compute_queue_max", "count"),
    ("serve.misses", "count"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.regen_hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.burst_p50_ms", "ms"),
    ("graph.circulant_ms", "ms"),
    ("runtime.new_ms", "ms"),
    ("runtime.tick_ms.p50", "ms"),
    ("runtime.tick_ms.max", "ms"),
    ("exec.threads_spawned", "count"),
    ("analysis.batched.group_ms.unrolled", "ms"),
    ("analysis.batched.group_ms.merge", "ms"),
    ("sim.fastmath.new_ms", "ms"),
    ("sim.fastmath.step_us.unrolled", "us"),
    ("sim.fastmath.step_us.merge", "us"),
    ("core.fastmath.sort_columns_us.32", "us"),
    ("core.fastmath.sort_columns_us.128", "us"),
    ("sim.fastmath.scalar_fallback_rows", "count"),
    ("sim.fastmath.shared_plan_groups", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut out_dir = PathBuf::from(".perfbench_out");
    let mut commit = "unknown".to_string();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => out_dir = PathBuf::from(value),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (try {WORKLOADS:?})"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out_dir,
        commit,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// VmHWM of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The end-to-end metrics, in [`END_TO_END`] order, then the median. The
/// median is printed but carries no bound: on a shared 2-core host it sits
/// between a fast and a slow mode of the latency distribution, and its
/// run-to-run spread reached 0.4 of its value where `ops_per_s` and `p90_ms`
/// stayed under 0.2.
fn end_to_end(outcome: &Outcome) -> (Vec<Metric>, Metric) {
    let lat = &outcome.latencies_ms;
    let n = lat.len();
    let bounded = vec![
        Metric::sampled(
            "setup_s",
            median(&outcome.setups),
            "s",
            outcome.setups.len(),
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::sampled(
            "ops_per_s",
            outcome.items as f64 / outcome.busy.as_secs_f64(),
            "1/s",
            outcome.items,
        ),
        Metric::sampled("p90_ms", quantile(lat, 0.9), "ms", n),
    ];
    (bounded, Metric::sampled("p50_ms", median(lat), "ms", n))
}

/// The metrics of the final line, in the declared order.
fn reported(measured: &[Metric], trace: bool) -> Vec<Metric> {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    declared
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit))
        })
        .collect()
}

fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

/// Saves this run's end-to-end numbers and compares them with the last run
/// of the same workload in the other trace mode: the tracing overhead.
fn overhead_report(args: &Args, end_to_end: &[Metric]) -> Vec<String> {
    let path = |trace: bool| {
        args.out_dir
            .join(format!("{}.trace{}.e2e", args.workload, u8::from(trace)))
    };
    let mine: String = end_to_end
        .iter()
        .map(|m| format!("{} {:?}\n", m.name, m.value))
        .collect();
    let _ = std::fs::write(path(args.trace), mine);
    let Ok(other) = std::fs::read_to_string(path(!args.trace)) else {
        return vec![format!(
            "overhead: no {} run of {} recorded yet",
            if args.trace { "untraced" } else { "traced" },
            args.workload
        )];
    };
    let mut lines = Vec::new();
    for line in other.lines() {
        let mut parts = line.split_whitespace();
        let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
            continue;
        };
        let Ok(theirs) = value.parse::<f64>() else {
            continue;
        };
        if let Some(m) = end_to_end.iter().find(|m| m.name == name) {
            let (traced, untraced) = if args.trace {
                (m.value, theirs)
            } else {
                (theirs, m.value)
            };
            lines.push(format!(
                "overhead {name}: traced {traced:.4} vs untraced {untraced:.4} ({:+.2}%)",
                (traced - untraced) / untraced * 100.0
            ));
        }
    }
    lines
}

fn write_spans(args: &Args, tracer: &Tracer) -> String {
    let path = args.out_dir.join(format!("{}.spans.tsv", args.workload));
    let mut text = String::from("id\tname\tstart_ns\tend_ns\tparent\n");
    let spans = tracer.spans();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        text.push_str(&format!(
            "{id}\t{}\t{}\t{}\t{parent}\n",
            s.name, s.start_ns, s.end_ns
        ));
    }
    match std::fs::write(&path, text) {
        Ok(()) => format!("span dump: {} spans in {}", spans.len(), path.display()),
        Err(e) => format!("span dump failed: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let cores = iabc_exec::effective_jobs(0);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        jobs: cores,
        clients: cores,
        tracer: Tracer::new(args.trace),
        out_dir: args.out_dir.clone(),
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host_cores={cores} jobs={} clients={} cpu_model={:?} commit={} seed={}",
        ctx.jobs,
        if args.workload == "serve_mix" {
            ctx.clients
        } else {
            0
        },
        cpu_model(),
        args.commit,
        args.seed
    );

    let outcome = match args.workload.as_str() {
        "regen" => regen::run(&ctx),
        "serve_mix" => serve_mix::run(&ctx),
        "deploy" => deploy::run(&ctx),
        "batch" => batch::run(&ctx),
        _ => unreachable!("workload validated by parse_args"),
    };
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "error_rate = {error_rate} ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    for why in &outcome.failures {
        println!("failure: {why}");
    }
    let (bounded, p50) = end_to_end(&outcome);
    let all: Vec<Metric> = bounded.iter().chain([&p50]).cloned().collect();
    println!("timed operation: {}", outcome.op);
    for m in all.iter().chain(&outcome.per_layer) {
        let n = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
        println!("metric {} = {} {}{n}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    for line in overhead_report(&args, &all) {
        println!("{line}");
    }
    if args.trace {
        println!("{}", write_spans(&args, &ctx.tracer));
    }
    let measured = if args.trace {
        &outcome.per_layer
    } else {
        &bounded
    };
    println!("{}", result_line(&outcome, &reported(measured, args.trace)));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units here are the ones `BENCHMARK.json` declares.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = iabc_serve::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), owned(&END_TO_END));
        assert_eq!(names("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_reports_zero_for_unused_layers_and_counts_failures() {
        let mut outcome = Outcome::default();
        outcome.check(Ok(()));
        outcome.check(Err("corrupt".into()));
        outcome
            .per_layer
            .push(Metric::new("serve.misses", 3.0, "count"));
        let metrics = reported(&outcome.per_layer, true);
        assert_eq!(metrics.len(), PER_LAYER.len());
        let line = result_line(&outcome, &metrics);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(line.contains("\"serve.misses\": {\"value\": 3.0, \"unit\": \"count\"}"));
        assert!(line.contains("\"graph.circulant_ms\": {\"value\": 0.0, \"unit\": \"ms\"}"));
        iabc_serve::json::parse(&line).expect("the result line is JSON");
    }
}
