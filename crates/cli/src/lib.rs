//! Implementation of the `iabc` command-line tool.
//!
//! Each subcommand is a pure function from parsed arguments to a report
//! string, so the whole surface is unit-testable without spawning
//! processes; `main.rs` only does I/O.
//!
//! ```text
//! iabc generate complete 7                      # emit an edge list
//! iabc check graph.txt --f 2                    # Theorem 1 verdict + witness
//! iabc check graph.txt --f 1 --async            # §7 asynchronous condition
//! iabc check graph.txt --f 1 --local            # f-local fault model (ext.)
//! iabc simulate graph.txt --f 2 --faulty 5,6 --adversary extremes
//! iabc baseline graph.txt --f 2 --faulty 5,6    # Algorithm 1 vs Dolev vs W-MSR
//! iabc robustness graph.txt                     # max r-robustness
//! iabc alpha graph.txt --f 2                    # alpha + Lemma 5 bound
//! iabc profile graph.txt                        # degrees/connectivity/diameter
//! iabc minimal graph.txt --f 1                  # edge-criticality probe (§6.1)
//! iabc construct 9 --f 1                        # satisfying-by-construction graph
//! iabc sweep experiments --jobs 0               # E1–E12 fanned across all cores
//! iabc perf --quick                             # hot-path rounds/sec + BENCH_hotpath.json
//! iabc deploy --nodes 1000000 --jobs 8          # million-node multiplexed deployment
//! iabc serve --store runs --addr 127.0.0.1:7411 # sweep-as-a-service daemon
//! iabc submit sweep --ids E1 --addr 127.0.0.1:7411   # cache-keyed job submission
//! iabc sweep monte-carlo --n 6,8 --f 1 --jobs 4 # random-graph tolerance sweep
//! iabc dot graph.txt --f 2                      # DOT, witness colour-coded
//! ```

pub mod args;
pub mod commands;

pub use args::{CliError, ParsedArgs};

/// Entry point shared by `main` and the tests: dispatches a full argv
/// (without the program name) to a subcommand.
///
/// # Errors
///
/// Returns [`CliError`] on unknown commands, malformed flags, unreadable
/// input, or graph/parameter validation failures.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(CliError::Usage(usage()));
    };
    match command.as_str() {
        "check" => commands::check(&ParsedArgs::parse(rest)?),
        "generate" => commands::generate(rest),
        "simulate" => commands::simulate(&ParsedArgs::parse(rest)?),
        "robustness" => commands::robustness_cmd(&ParsedArgs::parse(rest)?),
        "alpha" => commands::alpha_cmd(&ParsedArgs::parse(rest)?),
        "dot" => commands::dot_cmd(&ParsedArgs::parse(rest)?),
        "repair" => commands::repair_cmd(&ParsedArgs::parse(rest)?),
        "profile" => commands::profile_cmd(&ParsedArgs::parse(rest)?),
        "minimal" => commands::minimal_cmd(&ParsedArgs::parse(rest)?),
        "construct" => commands::construct_cmd(&ParsedArgs::parse(rest)?),
        "baseline" => commands::baseline_cmd(&ParsedArgs::parse(rest)?),
        "sweep" => commands::sweep_cmd(&ParsedArgs::parse(rest)?),
        "record" => commands::record_cmd(&ParsedArgs::parse(rest)?),
        "replay" => commands::replay_cmd(&ParsedArgs::parse(rest)?),
        "perf" => commands::perf_cmd(&ParsedArgs::parse(rest)?),
        "deploy" => commands::deploy_cmd(&ParsedArgs::parse(rest)?),
        "serve" => commands::serve_cmd(&ParsedArgs::parse(rest)?),
        "submit" => commands::submit_cmd(&ParsedArgs::parse(rest)?),
        "query" => commands::query_cmd(&ParsedArgs::parse(rest)?),
        "compact" => commands::compact_cmd(&ParsedArgs::parse(rest)?),
        "--help" | "-h" | "help" => Ok(usage()),
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n\n{}",
            usage()
        ))),
    }
}

/// The top-level usage text.
pub fn usage() -> String {
    "iabc — iterative approximate Byzantine consensus toolkit\n\
     \n\
     usage: iabc <command> [args]\n\
     \n\
     commands:\n\
       generate <family> <params..>   emit an edge list (complete N | chord N SUCC |\n\
                                      core-network N F | hypercube D | cycle N |\n\
                                      random N P SEED | bridged-cliques K B |\n\
                                      circulant N O1,O2,.. | de-bruijn K D |\n\
                                      small-world N K BETA SEED | scale-free N M SEED |\n\
                                      tournament N SEED | tree ARITY DEPTH)\n\
       check <file> --f N             Theorem 1 condition (+ witness on failure)\n\
                                      flags: --async (§7), --local (f-local model),\n\
                                      --structure \"0,1;5,6\" (adversary structure;\n\
                                      no --f needed), --jobs T, --explain\n\
       simulate <file> --f N --faulty A,B,..   run Algorithm 1 under attack\n\
                                      flags: --adversary NAME (conforming|constant|\n\
                                      random|extremes|pull-low|pull-high|crash|\n\
                                      flip-flop|polarizing|echo|nan),\n\
                                      --jobs N (persistent worker pool, 0 = all cores;\n\
                                      bit-identical for any value),\n\
                                      --inputs V,V,.. | --seed S, --eps E, --max-rounds R,\n\
                                      --rule trimmed-mean|mean|midpoint|w-msr|\n\
                                      dolev-midpoint|dolev-select-mean|quantized\n\
                                      (quantized: --quantum Q [--rounding nearest|\n\
                                      floor|ceil]), --trace;\n\
                                      or --structure \"0,1;5,6\" to run the\n\
                                      structure-aware rule (no --f / --rule);\n\
                                      or --delay-bound B [--scheduler immediate|max|\n\
                                      random|targeted] [--sched-seed S] [--victims A,B]\n\
                                      for the §7 delay-bounded engine (--jobs fans\n\
                                      its update phase; send/deliver stay serial)\n\
       baseline <file> --f N --faulty A,B   Algorithm 1 vs Dolev vs W-MSR faceoff\n\
       robustness <file> [--r R --s S]   (r,s)-robustness / max r-robustness\n\
       alpha <file> --f N             alpha and the Lemma 5 iteration bound\n\
       profile <file>                 degrees, density, connectivity, diameter\n\
       minimal <file> --f N [--prune] [--out FILE]   edge-criticality probe (§6.1)\n\
       construct N --f F [--attachment uniform|preferential|lowest] [--seed S]\n\
                                      emit a graph satisfying Theorem 1 by construction\n\
       dot <file> [--f N]             Graphviz DOT (witness colour-coded if violated)\n\
       repair <file> --f N            add edges until Theorem 1 holds (witness-driven)\n\
       sweep experiments [--ids E1,E2,..] [--jobs N] [--store DIR\n\
              [--max-store-bytes B]] [--addr HOST:PORT]\n\
                                      fan the experiment harness across cores\n\
                                      (0 = all); ids E1..E12 (paper) and X1..X13\n\
                                      (extensions); no --ids runs E1..E12;\n\
                                      bit-identical output for any job count;\n\
                                      --store memoizes cells through the serving\n\
                                      tier's result store, reporting hits/misses/\n\
                                      evictions (--max-store-bytes caps it, LRU);\n\
                                      --addr submits the whole sweep to a running\n\
                                      daemon instead (repeated runs collapse to\n\
                                      one compute + cache reads)\n\
       sweep monte-carlo [--n 6,8 --f 1,2 --p 0.5 --trials 100] [--replicas R]\n\
              [--jobs N]\n\
                                      random-digraph tolerance sweep, one cell per\n\
                                      (n,f); --replicas R also runs R FastMath\n\
                                      replicas per eligible graph in one batched\n\
                                      pass, tallying convergence\n\
       sweep census [--max-n 4 --f 0,1] [--replicas R] [--jobs N]\n\
                                      exhaustive small-n census, one cell per (n,f);\n\
                                      --replicas R appends a convergence census\n\
                                      (R seeded runs per eligible (n,f), max-pull\n\
                                      attack, each (n,f)'s runs grouped into one\n\
                                      replica-batched FastMath run)\n\
       record <file> --f N --faulty A,B --rounds R --out T.txt   record a transcript\n\
       replay <file> --f N --transcript T.txt   verify a recorded run\n\
       deploy --nodes N [--mode threaded|multiplexed] [--jobs J] [--degree D]\n\
              [--f F] [--rounds R]   run Algorithm 1 as a deployment on a\n\
                                      circulant digraph: threaded = one OS\n\
                                      thread per node (capped at 8192),\n\
                                      multiplexed = all nodes on a J-thread\n\
                                      pool with mailboxes (hosts 10^6 nodes);\n\
                                      both print a bitwise state checksum\n\
       serve --store DIR [--addr 127.0.0.1:PORT] [--jobs N] [--accept K]\n\
             [--max-conn C] [--max-store-bytes B]\n\
                                      run the result-serving daemon: a bounded\n\
                                      thread-per-connection accept loop answering\n\
                                      submit/query from the content-addressed\n\
                                      store (append-only journal); hits answer\n\
                                      concurrently, misses run under the shared\n\
                                      pool's compute permit with identical\n\
                                      in-flight submissions coalesced\n\
                                      (single-flight); --accept K exits after K\n\
                                      connections (CI smoke), --max-conn 1 is\n\
                                      the sequential baseline, --max-store-bytes\n\
                                      caps object bytes with LRU eviction\n\
       submit sweep [--ids E1,..] --addr HOST:PORT\n\
       submit scenario <file> --f N [--faulty A,B] [--rule R] [--adversary A]\n\
              [--seed S | --inputs V,V,..] [--eps E] [--max-rounds R]\n\
              [--delay-bound B [--scheduler immediate|max|random]\n\
              [--sched-seed S]] --addr HOST:PORT\n\
                                      submit a job; prints cache hit/miss, the\n\
                                      run key, and the payload bytes as hex;\n\
                                      --delay-bound keys the job to the §7\n\
                                      delay-bounded engine\n\
       query --addr HOST:PORT --key HEX   fetch a stored payload by run key\n\
       compact (--addr HOST:PORT | --store DIR)\n\
                                      rewrite a store's run journal to one\n\
                                      record per live object (replay-equivalent)\n\
                                      and sweep orphaned object files\n"
        .to_string()
        + PERF_USAGE
}

/// The `perf` entry of [`usage`], which `iabc perf --help` prints.
pub const PERF_USAGE: &str = "perf [--quick] [--steps S] [--jobs N] [--out BENCH_hotpath.json]\n\
                                      time each fast path against the path it\n\
                                      replaced and write the speedups to the JSON\n\
                                      perf trajectory: the compiled engine vs the\n\
                                      pre-refactor reference stepper on complete/\n\
                                      random/kite topologies, then parallel, pool,\n\
                                      deploy, deploy_scale, serve_cache,\n\
                                      serve_concurrent, serve_compaction, fastmath,\n\
                                      replica_batch and batched_sweep at --jobs N\n\
                                      (default 4); --steps sets the step count of\n\
                                      the grid and of parallel\n\
       perf --check [--baseline FILE] [--tolerance 0.4]\n\
                                      diff a fresh run against the committed\n\
                                      BENCH_hotpath.json and fail on a speedup\n\
                                      regression beyond the noise tolerance, or\n\
                                      when no row could be compared\n";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn empty_argv_prints_usage_error() {
        let err = run(&[]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&argv(&["--help"])).unwrap();
        assert!(out.contains("usage: iabc"));
        assert!(out.contains("generate"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = run(&argv(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }
}
