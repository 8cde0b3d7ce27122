//! Regenerates every table and figure of the paper (experiments E1–E12)
//! and the extension experiments (X1–X13).
//!
//! Usage:
//!
//! ```text
//! experiments              # run everything
//! experiments e7 e8        # run a subset by id
//! experiments --out DIR    # also write DOT artifacts to DIR (default: experiments_out)
//! experiments --addr HOST:PORT   # fetch through a running `iabc serve` daemon
//! ```
//!
//! With `--addr`, the whole regeneration becomes a thin client of the
//! serving daemon: the id set is submitted as one content-addressed sweep
//! job, so the first run computes and every repeated run (CI re-runs,
//! local iteration) collapses to cache reads — byte-identical results,
//! guaranteed by the engines' determinism.
//!
//! Output is the per-experiment table plus a PASS/FAIL verdict.

use std::path::PathBuf;
use std::process::ExitCode;

use iabc_analysis::experiments::{self, ExperimentResult};

fn main() -> ExitCode {
    let mut ids: Vec<String> = Vec::new();
    let mut out_dir = PathBuf::from("experiments_out");
    let mut addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                let Some(dir) = args.next() else {
                    eprintln!("--out requires a directory argument");
                    return ExitCode::FAILURE;
                };
                out_dir = PathBuf::from(dir);
            }
            "--addr" => {
                let Some(a) = args.next() else {
                    eprintln!("--addr requires a HOST:PORT argument");
                    return ExitCode::FAILURE;
                };
                addr = Some(a);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--out DIR] [--addr HOST:PORT] [E1 .. E12 | X1 .. X13]"
                );
                return ExitCode::SUCCESS;
            }
            id => ids.push(id.to_ascii_uppercase()),
        }
    }

    let all = match &addr {
        // Thin-client path: one sweep job against the daemon. An empty id
        // list means "everything" here, which the daemon's canonical
        // resolution does not (it pins E1..E12 for key stability), so
        // expand it explicitly.
        Some(addr) => {
            let job_ids = if ids.is_empty() {
                (1..=12)
                    .map(|i| format!("E{i}"))
                    .chain((1..=13).map(|i| format!("X{i}")))
                    .collect()
            } else {
                ids.clone()
            };
            let job = iabc_serve::JobSpec::Sweep { ids: job_ids };
            let outcome = match iabc_serve::submit(addr, &job) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("submit to {addr} failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "fetched via {addr}: cache {} (key {}, {} cell hit(s), {} miss(es))",
                if outcome.cache_hit { "hit" } else { "miss" },
                outcome.key.hex(),
                outcome.hits,
                outcome.misses
            );
            match iabc_serve::decode_sweep_payload(&outcome.payload) {
                Ok(results) => results,
                Err(e) => {
                    eprintln!("cannot decode sweep payload: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            let mut all = experiments::run_all();
            all.extend(experiments::run_extensions());
            all
        }
    };
    let selected: Vec<&ExperimentResult> = if ids.is_empty() {
        all.iter().collect()
    } else {
        all.iter()
            .filter(|r| ids.contains(&r.id.to_string()))
            .collect()
    };
    if selected.is_empty() {
        eprintln!("no experiments matched {ids:?}; valid ids are E1..E12, X1..X13");
        return ExitCode::FAILURE;
    }

    let mut failures = 0usize;
    for result in &selected {
        println!("== {} — {}", result.id, result.title);
        for note in &result.notes {
            println!("   note: {note}");
        }
        println!();
        print!("{}", result.table);
        println!();
        if !result.artifacts.is_empty() {
            if let Err(e) = std::fs::create_dir_all(&out_dir) {
                eprintln!("cannot create {}: {e}", out_dir.display());
                return ExitCode::FAILURE;
            }
            for (name, content) in &result.artifacts {
                let path = out_dir.join(name);
                match std::fs::write(&path, content) {
                    Ok(()) => println!("   wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("cannot write {}: {e}", path.display());
                        failures += 1;
                    }
                }
            }
        }
        println!("   verdict: {}", if result.pass { "PASS" } else { "FAIL" });
        println!();
        if !result.pass {
            failures += 1;
        }
    }

    println!("{} experiment(s) run, {} failed", selected.len(), failures);
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
