//! The `iabc` subcommand implementations.

use iabc_analysis::{batched, sweep};
use iabc_baselines::{DolevMidpoint, DolevSelectMean, Wmsr};
use iabc_core::fault_model::{check_model, AdversaryStructure, FaultModel, ModelTrimmedMean};
use iabc_core::quantized::Rounding;
use iabc_core::rules::{TrimmedMean, UpdateRule};
use iabc_core::{alpha, construction, local_fault, minimality, robustness, theorem1, Threshold};
use iabc_graph::dot::{to_dot, DotGroup};
use iabc_graph::{generators, metrics, parse, Digraph, NodeId, NodeSet};
use iabc_serve::{job, ServeError};
use iabc_sim::adversary::Adversary;
use iabc_sim::async_engine::{Scheduler, TargetedScheduler};
use iabc_sim::{Engine, RunConfig, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::{CliError, ParsedArgs};

/// Reads the graph file (`-` is stdin). A count line past
/// [`job::MAX_NODES`], the daemon's cap, is refused before anything is
/// sized from it, so a scenario the CLI runs is one the daemon accepts.
fn load_graph(args: &ParsedArgs) -> Result<Digraph, CliError> {
    let path = args
        .positional(0)
        .ok_or_else(|| CliError::Usage("expected a graph file argument".into()))?;
    let text = if path == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| CliError::Io(e.to_string()))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?
    };
    let graph_error = |e: iabc_graph::GraphError| CliError::Graph(e.to_string());
    let n = parse::node_count(&text).map_err(graph_error)?;
    if n > job::MAX_NODES {
        return Err(CliError::Graph(format!(
            "the graph declares {n} nodes; iabc reads at most {}",
            job::MAX_NODES
        )));
    }
    parse::parse_edge_list(&text).map_err(graph_error)
}

/// `iabc check <file> --f N [--async] [--local] [--structure SPEC] [--jobs T] [--explain]`
pub fn check(args: &ParsedArgs) -> Result<String, CliError> {
    args.reject_unknown(
        "check",
        &["f", "async", "local", "structure", "jobs", "explain"],
    )?;
    let g = load_graph(args)?;

    if let Some(spec) = args.flag("structure") {
        // Generalized fault model: the condition under an explicit
        // adversary structure (f is implied by the structure, not a flag).
        let structure = parse_structure(spec, g.node_count())?;
        let model = FaultModel::Structure(structure);
        let report = check_model(&g, &model);
        let mut out = format!("{g}, model = {model}\n");
        out.push_str(&format!("generalized condition: {report}\n"));
        return Ok(out);
    }

    let f: usize = args.required("f")?;
    let mut out = format!("{g}, f = {f}\n");

    if args.has_flag("local") {
        let report = local_fault::check_local(&g, f);
        out.push_str(&format!("f-local condition: {report}\n"));
        return Ok(out);
    }
    let threshold = if args.has_flag("async") {
        out.push_str("model: asynchronous (threshold 2f+1, §7)\n");
        Threshold::asynchronous(f)
    } else {
        Threshold::synchronous(f)
    };
    let report = match args.optional::<usize>("jobs")? {
        Some(threads) => theorem1::check_parallel(&g, f, threshold, threads),
        None => theorem1::check_with(&g, f, threshold, &theorem1::CheckOptions::default())
            .map_err(|e| CliError::Run(e.to_string()))?,
    };
    out.push_str(&format!("condition: {report}\n"));
    if report.is_satisfied() {
        out.push_str(
            "iterative approximate Byzantine consensus IS possible; Algorithm 1 achieves it\n",
        );
    } else {
        out.push_str("no correct iterative algorithm exists on this graph (Theorem 1)\n");
        if args.has_flag("explain") {
            if let Some(w) = report.witness() {
                out.push('\n');
                out.push_str(&w.explain(&g, threshold));
            }
        }
    }
    Ok(out)
}

/// `iabc generate <family> <params..>`
pub fn generate(rest: &[String]) -> Result<String, CliError> {
    let mut it = rest.iter();
    let family = it
        .next()
        .ok_or_else(|| CliError::Usage("generate: expected a family name".into()))?;
    let nums: Vec<String> = it.cloned().collect();
    let num = |idx: usize, what: &str| -> Result<usize, CliError> {
        nums.get(idx)
            .ok_or_else(|| CliError::Usage(format!("generate {family}: missing {what}")))?
            .parse()
            .map_err(|_| CliError::Usage(format!("generate {family}: bad {what}")))
    };
    let g = match family.as_str() {
        "complete" => generators::complete(num(0, "N")?),
        "cycle" => generators::cycle(num(0, "N")?),
        "chord" => generators::chord(num(0, "N")?, num(1, "SUCC")?),
        "core-network" => generators::core_network(num(0, "N")?, num(1, "F")?),
        "hypercube" => generators::hypercube(num(0, "D")? as u32),
        "bridged-cliques" => generators::bridged_cliques(num(0, "K")?, num(1, "B")?),
        "random" => {
            let n = num(0, "N")?;
            let p: f64 = nums
                .get(1)
                .ok_or_else(|| CliError::Usage("generate random: missing P".into()))?
                .parse()
                .map_err(|_| CliError::Usage("generate random: bad P".into()))?;
            let seed = num(2, "SEED")? as u64;
            generators::erdos_renyi(n, p, &mut StdRng::seed_from_u64(seed))
        }
        "circulant" => {
            let n = num(0, "N")?;
            let offsets: Vec<usize> = nums
                .get(1)
                .ok_or_else(|| CliError::Usage("generate circulant: missing OFFSETS".into()))?
                .split(',')
                .map(|s| {
                    s.trim().parse().map_err(|_| {
                        CliError::Usage(format!("generate circulant: bad offset {s:?}"))
                    })
                })
                .collect::<Result<_, _>>()?;
            generators::circulant(n, offsets)
        }
        "de-bruijn" => generators::de_bruijn(num(0, "K")?, num(1, "D")? as u32),
        "small-world" => {
            let (n, k) = (num(0, "N")?, num(1, "K")?);
            let beta: f64 = nums
                .get(2)
                .ok_or_else(|| CliError::Usage("generate small-world: missing BETA".into()))?
                .parse()
                .map_err(|_| CliError::Usage("generate small-world: bad BETA".into()))?;
            let seed = num(3, "SEED")? as u64;
            generators::watts_strogatz(n, k, beta, &mut StdRng::seed_from_u64(seed))
        }
        "scale-free" => {
            let (n, m, seed) = (num(0, "N")?, num(1, "M")?, num(2, "SEED")? as u64);
            generators::barabasi_albert(n, m, &mut StdRng::seed_from_u64(seed))
        }
        "tournament" => {
            let (n, seed) = (num(0, "N")?, num(1, "SEED")? as u64);
            generators::random_tournament(n, &mut StdRng::seed_from_u64(seed))
        }
        "tree" => generators::balanced_tree(num(0, "ARITY")?, num(1, "DEPTH")? as u32),
        other => {
            return Err(CliError::Usage(format!(
                "unknown family {other:?} (try complete, chord, core-network, hypercube, cycle, \
                 random, bridged-cliques, circulant, de-bruijn, small-world, scale-free, \
                 tournament, tree)"
            )))
        }
    };
    Ok(parse::to_edge_list(&g))
}

/// A scenario word the shared vocabulary ([`job`]) refused: a usage
/// error, worded as the daemon words it.
fn bad_word(e: ServeError) -> CliError {
    CliError::Usage(match e {
        ServeError::Job(message) => message,
        other => other.to_string(),
    })
}

/// `--faulty A,B,..` over `n` nodes: the nodes as listed (reports print
/// them) and their set.
fn faulty_from_args(args: &ParsedArgs, n: usize) -> Result<(Vec<usize>, NodeSet), CliError> {
    let faulty: Vec<usize> = args.list("faulty")?;
    if faulty.iter().any(|&v| v >= n) {
        return Err(CliError::Usage(format!(
            "--faulty contains a node >= n = {n}"
        )));
    }
    let fault_set = NodeSet::from_indices(n, faulty.iter().copied());
    Ok((faulty, fault_set))
}

/// `--inputs V,V,..`, one per node, or else the [`job::seeded_inputs`]
/// draw from `--seed` (default 0).
fn inputs_from_args(args: &ParsedArgs, n: usize) -> Result<Vec<f64>, CliError> {
    match args.list::<f64>("inputs")? {
        given if given.is_empty() => Ok(job::seeded_inputs(n, args.optional("seed")?.unwrap_or(0))),
        given if given.len() == n => Ok(given),
        given => Err(CliError::Usage(format!(
            "--inputs has {} values for {n} nodes",
            given.len()
        ))),
    }
}

/// `--adversary NAME` (default `extremes`), seeded by `--seed`, as a
/// factory of fresh adversaries.
fn adversary_from_args(args: &ParsedArgs) -> Result<impl Fn() -> Box<dyn Adversary>, CliError> {
    let seed = args.optional("seed")?.unwrap_or(0);
    job::adversary_factory(args.flag("adversary").unwrap_or("extremes"), seed).map_err(bad_word)
}

/// `--eps E` (default 1e-6) and `--max-rounds R` (default `max_rounds`),
/// recording states.
fn run_config_from_args(args: &ParsedArgs, max_rounds: usize) -> Result<RunConfig, CliError> {
    Ok(RunConfig {
        record_states: true,
        epsilon: args.optional("eps")?.unwrap_or(1e-6),
        max_rounds: args.optional("max-rounds")?.unwrap_or(max_rounds),
    })
}

/// `--rule NAME` (default `trimmed-mean`) trimming `f`; the `quantized`
/// rule reads `--quantum Q` and `--rounding nearest|floor|ceil`.
fn rule_from_args(args: &ParsedArgs, f: usize) -> Result<Box<dyn UpdateRule>, CliError> {
    let name = args.flag("rule").unwrap_or("trimmed-mean");
    // Both flags are refused unless the rule is `quantized`.
    let quantum = match name {
        "quantized" => Some(args.required("quantum")?),
        _ => None,
    };
    let rounding = match args.flag("rounding").unwrap_or("nearest") {
        "nearest" => Rounding::Nearest,
        "floor" => Rounding::Floor,
        "ceil" => Rounding::Ceil,
        other => {
            return Err(CliError::Usage(format!(
                "unknown rounding {other:?} (try nearest, floor, ceil)"
            )))
        }
    };
    job::rule_by_name(name, f, quantum, rounding).map_err(bad_word)
}

/// Parses an adversary-structure spec: generator sets separated by `;`,
/// node ids inside a set separated by `,` (e.g. `"0,1;5,6"`).
fn parse_structure(spec: &str, n: usize) -> Result<AdversaryStructure, CliError> {
    let mut generators = Vec::new();
    for part in spec.split(';').filter(|p| !p.trim().is_empty()) {
        let mut ids = Vec::new();
        for tok in part.split(',').filter(|t| !t.trim().is_empty()) {
            let id: usize = tok
                .trim()
                .parse()
                .map_err(|_| CliError::Usage(format!("--structure: bad node id {tok:?}")))?;
            if id >= n {
                return Err(CliError::Usage(format!(
                    "--structure contains node {id} >= n = {n}"
                )));
            }
            ids.push(id);
        }
        generators.push(NodeSet::from_indices(n, ids));
    }
    AdversaryStructure::new(n, generators).map_err(|e| CliError::Usage(e.to_string()))
}

/// Runs `engine` and appends its outcome to a `simulate` header:
/// convergence, final range and validity, the agreed value of the lowest
/// fault-free node, and with `--trace` the extremes after every step.
/// `unit` names a step: `round`, or `tick` on the delay-bounded engine.
fn simulate_report(
    mut report: String,
    unit: &str,
    engine: &mut dyn Engine,
    config: &RunConfig,
    args: &ParsedArgs,
) -> Result<String, CliError> {
    let out = engine
        .run(config)
        .map_err(|e| CliError::Run(e.to_string()))?;
    let validity = match (unit, out.validity.is_valid()) {
        ("tick", true) => "per-round validity audit: ok",
        // With stale deliveries U[t] may transiently exceed U[t-1]; only
        // containment in the initial hull is guaranteed by the model, so a
        // per-round "violated" here is a staleness artifact, not an attack.
        ("tick", false) => {
            "per-round validity audit: violated (per-round audit; async model only \
             guarantees the initial hull)"
        }
        (_, true) => "validity: ok",
        (_, false) => "validity: VIOLATED",
    };
    report.push_str(&format!(
        "converged: {} in {} {unit}s; final range {:.3e}; {validity}\n",
        out.converged, out.rounds, out.final_range,
    ));
    if let Some(last) = out.trace.last() {
        if let Some((i, v)) = last
            .states
            .iter()
            .enumerate()
            .find(|(i, _)| !engine.fault_set().contains(NodeId::new(*i)))
        {
            report.push_str(&format!("agreed value (node {i}): {v:.6}\n"));
        }
    }
    if args.has_flag("trace") {
        report.push_str(&format!("{unit:<7}U[t]        mu[t]       range\n"));
        for r in out.trace.records() {
            let (round, max, min, range) = (r.round, r.max, r.min, r.range());
            report.push_str(&format!("{round:<6} {max:<11.5} {min:<11.5} {range:.3e}\n"));
        }
    }
    Ok(report)
}

/// Resolves `--scheduler NAME` for the delay-bounded engine. `random`
/// draws from `--sched-seed` (default 0); `targeted`, whose victims a job
/// cannot carry, maximally delays the receivers in `--victims A,B,..`.
fn scheduler_from_args(args: &ParsedArgs, n: usize) -> Result<Box<dyn Scheduler>, CliError> {
    let name = args.flag("scheduler").unwrap_or("immediate");
    if name != "targeted" {
        let seed = args.optional("sched-seed")?.unwrap_or(0);
        return job::engine_scheduler_by_name(name, seed).map_err(|_| {
            CliError::Usage(format!(
                "unknown scheduler {name:?} (try immediate, max, random, targeted)"
            ))
        });
    }
    let victims: Vec<usize> = args.list("victims")?;
    if victims.is_empty() {
        return Err(CliError::Usage(
            "--scheduler targeted needs --victims A,B,..".into(),
        ));
    }
    if victims.iter().any(|&v| v >= n) {
        return Err(CliError::Usage(format!(
            "--victims contains a node >= n = {n}"
        )));
    }
    Ok(Box::new(TargetedScheduler::new(NodeSet::from_indices(
        n, victims,
    ))))
}

/// `iabc simulate <file> --f N --faulty A,B [--adversary NAME] [--inputs ..]
/// [--seed S] [--eps E] [--max-rounds R] [--rule NAME] [--jobs N] [--trace]`
/// runs the synchronous engine; `--delay-bound B [--scheduler NAME]` the §7
/// delay-bounded engine; `--structure SPEC` (no `--f`, `--rule` or
/// `--jobs`) the structure-aware rule ([`ModelTrimmedMean`]) in the
/// identity-aware engine under an explicit adversary structure.
pub fn simulate(args: &ParsedArgs) -> Result<String, CliError> {
    // Each engine reads the run's flags plus its own.
    let run = ["faulty", "adversary", "seed", "inputs", "eps", "max-rounds"];
    let rule = ["f", "rule", "quantum", "rounding", "jobs", "trace"];
    let delay = ["delay-bound", "scheduler", "sched-seed", "victims"];
    let (command, known) = if args.has_flag("structure") {
        ("simulate --structure", [&run[..], &["structure"]].concat())
    } else if args.has_flag("delay-bound") {
        ("simulate --delay-bound", [&run[..], &rule, &delay].concat())
    } else {
        ("simulate", [&run[..], &rule].concat())
    };
    args.reject_unknown(command, &known)?;
    args.reject_unless("quantum", "rule", "quantized")?;
    args.reject_unless("rounding", "rule", "quantized")?;
    args.reject_unless("sched-seed", "scheduler", "random")?;
    args.reject_unless("victims", "scheduler", "targeted")?;
    let g = load_graph(args)?;
    let n = g.node_count();
    let (faulty, fault_set) = faulty_from_args(args, n)?;
    if let Some(spec) = args.flag("structure") {
        let structure = parse_structure(spec, n)?;
        if !structure.admits(&fault_set) {
            return Err(CliError::Usage(format!(
                "--faulty {faulty:?} is not a feasible fault set of the structure {structure}"
            )));
        }
        let model = FaultModel::Structure(structure);
        let inputs = inputs_from_args(args, n)?;
        let adversary = adversary_from_args(args)?();
        let rule = ModelTrimmedMean::new(model.clone());
        let config = run_config_from_args(args, 10_000)?;
        let mut sim = Scenario::on(&g)
            .inputs(&inputs)
            .faults(fault_set)
            .adversary(adversary)
            .model_aware(&rule)
            .map_err(|e| CliError::Run(e.to_string()))?;
        let header =
            format!("{g}, model = {model}, rule = model-trimmed-mean, faulty = {faulty:?}\n");
        return simulate_report(header, "round", &mut sim, &config, args);
    }
    let f: usize = args.required("f")?;
    if let Some(delay_bound) = args.optional::<usize>("delay-bound")? {
        // `--jobs` fans each tick's update phase across the worker pool;
        // the send/deliver phases stay serial so the scheduler's RNG stream
        // is the same, and the run bit-for-bit identical, at any job count.
        let jobs: usize = args.optional("jobs")?.unwrap_or(1);
        if delay_bound == 0 {
            return Err(CliError::Usage("--delay-bound must be >= 1".into()));
        }
        let inputs = inputs_from_args(args, n)?;
        let adversary = adversary_from_args(args)?();
        let rule = rule_from_args(args, f)?;
        let scheduler = scheduler_from_args(args, n)?;
        let config = run_config_from_args(args, 10_000)?;
        let mut sim = Scenario::on(&g)
            .inputs(&inputs)
            .faults(fault_set)
            .rule(rule.as_ref())
            .adversary(adversary)
            .parallel(jobs)
            .delay_bounded(scheduler, delay_bound)
            .map_err(|e| CliError::Run(e.to_string()))?;
        let header = format!(
            "{g}, f = {f}, rule = {}, faulty = {faulty:?}, delay bound B = {delay_bound}, \
             scheduler = {}, jobs = {}\n",
            rule.name(),
            args.flag("scheduler").unwrap_or("immediate"),
            sim.jobs(),
        );
        return simulate_report(header, "tick", &mut sim, &config, args);
    }
    let inputs = inputs_from_args(args, n)?;
    let adversary = adversary_from_args(args)?();
    let rule = rule_from_args(args, f)?;
    let config = run_config_from_args(args, 10_000)?;
    let jobs: usize = args.optional("jobs")?.unwrap_or(1);
    let mut sim = Scenario::on(&g)
        .inputs(&inputs)
        .faults(fault_set)
        .rule(rule.as_ref())
        .adversary(adversary)
        .parallel(jobs)
        .synchronous()
        .map_err(|e| CliError::Run(e.to_string()))?;
    let header = format!(
        "{g}, f = {f}, rule = {}, faulty = {faulty:?}\n",
        rule.name()
    );
    simulate_report(header, "round", &mut sim, &config, args)
}

/// `iabc robustness <file> [--r R --s S]`
pub fn robustness_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    args.reject_unknown("robustness", &["r", "s"])?;
    let g = load_graph(args)?;
    let mut out = format!("{g}\n");
    match (args.optional::<usize>("r")?, args.optional::<usize>("s")?) {
        (Some(r), s) => {
            let s = s.unwrap_or(1);
            let verdict = robustness::is_robust(&g, r, s);
            out.push_str(&format!("({r}, {s})-robust: {verdict}\n"));
        }
        (None, _) => {
            let rmax = robustness::max_r_robustness(&g);
            out.push_str(&format!("max r-robustness: {rmax}\n"));
            out.push_str(&format!(
                "=> sufficient for W-MSR with f <= {} (via (2f+1)-robustness)\n",
                rmax.saturating_sub(1) / 2
            ));
        }
    }
    Ok(out)
}

/// `iabc alpha <file> --f N`
pub fn alpha_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    args.reject_unknown("alpha", &["f"])?;
    let g = load_graph(args)?;
    let f: usize = args.required("f")?;
    let a = alpha::algorithm1_alpha(&g, f).map_err(|e| CliError::Run(e.to_string()))?;
    let n = g.node_count();
    let mut out = format!("{g}, f = {f}\nalpha = {a:.6}\n");
    if n >= f + 2 {
        let l = alpha::worst_case_propagation_length(n, f);
        out.push_str(&format!(
            "worst-case propagation length l = {l}; per-phase factor (1 - alpha^l/2) = {:.6}\n",
            alpha::contraction_factor(a, l)
        ));
        let bound = alpha::phases_to_epsilon(a, l, 1.0, 1e-6) * l;
        out.push_str(&format!(
            "Lemma 5 bound: range 1.0 -> 1e-6 within {bound} iterations (very conservative)\n"
        ));
    }
    Ok(out)
}

/// `iabc dot <file> [--f N]` — DOT render; with `--f`, colour a violating
/// witness partition if one exists.
pub fn dot_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    args.reject_unknown("dot", &["f"])?;
    let g = load_graph(args)?;
    let groups = match args.optional::<usize>("f")? {
        Some(f) => match theorem1::find_violation(&g, f) {
            Some(w) => vec![
                DotGroup::new("F", "lightcoral", w.fault_set.clone()),
                DotGroup::new("L", "lightblue", w.left.clone()),
                DotGroup::new("C", "lightgray", w.center.clone()),
                DotGroup::new("R", "lightgreen", w.right.clone()),
            ],
            None => Vec::new(),
        },
        None => Vec::new(),
    };
    Ok(to_dot(&g, "iabc", &groups))
}

/// `iabc repair <file> --f N [--out FILE]` — add edges until the Theorem 1
/// condition holds; print the patch (and optionally write the repaired
/// edge list).
pub fn repair_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    args.reject_unknown("repair", &["f", "out"])?;
    let g = load_graph(args)?;
    let f: usize = args.required("f")?;
    let repair =
        iabc_core::repair::suggest_edges(&g, f).map_err(|e| CliError::Run(e.to_string()))?;
    let mut out = format!("{g}, f = {f}\n");
    if repair.added.is_empty() {
        out.push_str("already satisfies the condition; no edges needed\n");
    } else {
        out.push_str(&format!("added {} edge(s):\n", repair.added.len()));
        for (u, v) in &repair.added {
            out.push_str(&format!("  {u} -> {v}\n"));
        }
        out.push_str(&format!(
            "repaired graph: {} (condition now satisfied)\n",
            repair.graph
        ));
    }
    if let Some(path) = args.flag("out") {
        std::fs::write(path, parse::to_edge_list(&repair.graph))
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        out.push_str(&format!("wrote repaired edge list to {path}\n"));
    }
    Ok(out)
}

/// `iabc profile <file>` — structural summary: degrees, density,
/// reciprocity, connectivity, diameter.
pub fn profile_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    args.reject_unknown("profile", &[])?;
    let g = load_graph(args)?;
    let p = metrics::profile(&g);
    let mut out = format!("{g}\n");
    out.push_str(&format!(
        "in-degree: min {} / max {} (mean {:.2}); out-degree: min {} / max {}\n",
        p.degrees.min_in, p.degrees.max_in, p.degrees.mean, p.degrees.min_out, p.degrees.max_out
    ));
    out.push_str(&format!(
        "density {:.3}; reciprocity {:.3}\n",
        p.density, p.reciprocity
    ));
    match p.vertex_connectivity {
        Some(k) => out.push_str(&format!(
            "vertex connectivity {k} (supports f <= {} for *non-iterative* consensus)\n",
            k.saturating_sub(1) / 2
        )),
        None => out.push_str("vertex connectivity: n/a (fewer than 2 nodes)\n"),
    }
    match p.diameter {
        Some(d) => out.push_str(&format!("diameter {d}\n")),
        None => out.push_str("diameter: infinite (not strongly connected)\n"),
    }
    if g.node_count() <= 12 {
        match theorem1::max_tolerable_f(&g) {
            Some(cap) => out.push_str(&format!(
                "Theorem 1 capacity: tolerates up to f = {cap} Byzantine node(s) iteratively\n"
            )),
            None => out.push_str(
                "Theorem 1 capacity: none — fails even at f = 0 (multiple source components)\n",
            ),
        }
    } else {
        out.push_str("Theorem 1 capacity: skipped (n > 12; use `iabc check --f N`)\n");
    }
    Ok(out)
}

/// `iabc minimal <file> --f N [--prune] [--out FILE]` — edge-criticality
/// probe (§6.1 minimality conjecture tooling).
pub fn minimal_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    args.reject_unknown("minimal", &["f", "prune", "out"])?;
    let g = load_graph(args)?;
    let f: usize = args.required("f")?;
    let mut out = format!("{g}, f = {f}\n");
    let Some(report) = minimality::probe(&g, f) else {
        out.push_str("graph violates Theorem 1; minimality is moot (try `iabc repair`)\n");
        return Ok(out);
    };
    out.push_str(&format!(
        "critical directed edges: {}/{}; critical undirected pairs: {}\n",
        report.critical, report.edges, report.critical_pairs
    ));
    out.push_str(&format!(
        "greedy pruning keeps {}/{} edges{}\n",
        report.pruned_edges,
        report.edges,
        if report.pruned_edges == report.edges {
            " — already edge-minimal"
        } else {
            ""
        }
    ));
    if args.has_flag("prune") {
        let Some(pruned) = minimality::prune_to_minimal(&g, f) else {
            return Err(CliError::Run(
                "pruning failed: the graph no longer satisfies the condition".into(),
            ));
        };
        if let Some(path) = args.flag("out") {
            if !path.is_empty() {
                std::fs::write(path, parse::to_edge_list(&pruned))
                    .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
                out.push_str(&format!("wrote pruned edge list to {path}\n"));
            }
        } else {
            out.push_str(&parse::to_edge_list(&pruned));
        }
    }
    Ok(out)
}

/// `iabc construct N --f F [--attachment uniform|preferential|lowest]
/// [--seed S]` — emit a graph that satisfies Theorem 1 by construction.
pub fn construct_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    args.reject_unknown("construct", &["f", "attachment", "seed"])?;
    let n: usize = args
        .positional(0)
        .ok_or_else(|| CliError::Usage("construct: expected node count N".into()))?
        .parse()
        .map_err(|_| CliError::Usage("construct: bad node count".into()))?;
    let f: usize = args.required("f")?;
    if n < 3 * f + 1 {
        return Err(CliError::Usage(format!(
            "construct: need N >= 3f + 1 = {} (got {n})",
            3 * f + 1
        )));
    }
    let attachment = match args.flag("attachment").unwrap_or("uniform") {
        "uniform" => construction::Attachment::Uniform,
        "preferential" => construction::Attachment::Preferential,
        "lowest" => construction::Attachment::Lowest,
        other => {
            return Err(CliError::Usage(format!(
                "construct: unknown attachment {other:?} (try uniform, preferential, lowest)"
            )))
        }
    };
    let seed: u64 = args.optional("seed")?.unwrap_or(0);
    let g = construction::grow_satisfying(n, f, attachment, &mut StdRng::seed_from_u64(seed));
    debug_assert!(theorem1::check(&g, f).is_satisfied());
    Ok(parse::to_edge_list(&g))
}

/// `iabc baseline <file> --f N --faulty A,B [--adversary NAME] [--seed S]
/// [--eps E] [--max-rounds R]` — run Algorithm 1 against the Dolev rules
/// and W-MSR on one workload.
pub fn baseline_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    args.reject_unknown(
        "baseline",
        &[
            "f",
            "faulty",
            "seed",
            "adversary",
            "inputs",
            "eps",
            "max-rounds",
        ],
    )?;
    let g = load_graph(args)?;
    let n = g.node_count();
    let f: usize = args.required("f")?;
    let (faulty, fault_set) = faulty_from_args(args, n)?;
    // Resolve the name once; the factory itself cannot fail afterwards.
    let make_adversary = adversary_from_args(args)?;
    let inputs = inputs_from_args(args, n)?;
    let faceoff = iabc_baselines::comparison::Faceoff {
        graph: &g,
        inputs: &inputs,
        fault_set,
        adversary_factory: &make_adversary,
        config: RunConfig {
            record_states: false,
            ..run_config_from_args(args, 20_000)?
        },
    };
    let a1 = TrimmedMean::new(f);
    let mid = DolevMidpoint::new(f);
    let sel = DolevSelectMean::new(f);
    let wmsr = Wmsr::new(f);
    let rules: Vec<&dyn UpdateRule> = vec![&a1, &mid, &sel, &wmsr];

    let adversary_name = args.flag("adversary").unwrap_or("extremes");
    let mut out = format!("{g}, f = {f}, adversary = {adversary_name}, faulty = {faulty:?}\n");
    out.push_str(&format!(
        "{:<18} {:<10} {:<8} {:<12} {}\n",
        "rule", "converged", "rounds", "final range", "valid"
    ));
    for r in faceoff.run_all(&rules) {
        out.push_str(&format!(
            "{:<18} {:<10} {:<8} {:<12.3e} {}\n",
            r.rule, r.converged, r.rounds, r.final_range, r.valid
        ));
    }
    out.push_str("note: only trimmed-mean (Algorithm 1) is guaranteed off complete graphs\n");
    Ok(out)
}

/// `iabc record <file> --f N --faulty A,B --rounds R --out T.txt
/// [--adversary NAME] [--inputs ..|--seed S]` — record a message-level
/// transcript of a run.
pub fn record_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    args.reject_unknown(
        "record",
        &[
            "f",
            "rounds",
            "faulty",
            "inputs",
            "seed",
            "adversary",
            "out",
        ],
    )?;
    let g = load_graph(args)?;
    let n = g.node_count();
    let f: usize = args.required("f")?;
    let rounds: usize = args.optional("rounds")?.unwrap_or(50);
    let (_, fault_set) = faulty_from_args(args, n)?;
    let inputs = inputs_from_args(args, n)?;
    let mut adversary = adversary_from_args(args)?();
    let rule = TrimmedMean::new(f);
    let transcript =
        iabc_sim::transcript::record(&g, &inputs, fault_set, &rule, adversary.as_mut(), rounds)
            .map_err(|e| CliError::Run(e.to_string()))?;
    let text = transcript.to_text();
    match args.flag("out") {
        Some(path) if !path.is_empty() => {
            std::fs::write(path, &text).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            Ok(format!(
                "recorded {} rounds ({} Byzantine messages) to {path}\n",
                transcript.rounds.len(),
                transcript
                    .rounds
                    .iter()
                    .map(|r| r.messages.len())
                    .sum::<usize>()
            ))
        }
        _ => Ok(text),
    }
}

/// `iabc replay <file> --f N --transcript T.txt` — deterministically replay
/// and verify a recorded run.
pub fn replay_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    args.reject_unknown("replay", &["f", "transcript"])?;
    let g = load_graph(args)?;
    let f: usize = args.required("f")?;
    let path = args
        .flag("transcript")
        .ok_or_else(|| CliError::Usage("missing required flag --transcript".into()))?;
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    let transcript = iabc_sim::transcript::Transcript::from_text(&text)
        .map_err(|e| CliError::Graph(format!("transcript: {e}")))?;
    let rule = TrimmedMean::new(f);
    match iabc_sim::transcript::replay(&g, &rule, &transcript) {
        Ok(final_states) => {
            let honest: Vec<f64> = final_states
                .iter()
                .enumerate()
                .filter(|(i, _)| !transcript.fault_set.contains(iabc_graph::NodeId::new(*i)))
                .map(|(_, &v)| v)
                .collect();
            let lo = honest.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = honest.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            Ok(format!(
                "replay VERIFIED: {} rounds, final honest range {:.3e}\n",
                transcript.rounds.len(),
                hi - lo
            ))
        }
        Err(e) => Ok(format!("replay FAILED: {e}\n")),
    }
}

/// `iabc sweep <experiments|monte-carlo|census> [--jobs N] ...`
///
/// Fans the chosen grid across cores via the `iabc-analysis` sweep runner.
/// Per-cell seeds derive from grid coordinates, so output is bit-identical
/// for any `--jobs` value.
pub fn sweep_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    let jobs = sweep_jobs(args)?;
    let grid = args.positional(0).ok_or_else(|| {
        CliError::Usage("expected a sweep grid: experiments | monte-carlo | census".into())
    })?;
    match grid {
        "experiments" => {
            args.reject_unknown(
                "sweep experiments",
                &["jobs", "ids", "addr", "store", "max-store-bytes"],
            )?;
            let ids: Vec<String> = args.list("ids")?;
            let unknown: Vec<&str> = ids
                .iter()
                .map(String::as_str)
                .filter(|id| !sweep::is_known_experiment_id(id))
                .collect();
            if !unknown.is_empty() {
                return Err(CliError::Usage(format!(
                    "unknown experiment id(s) {}; expected E1..E12, X1..X13",
                    unknown.join(", ")
                )));
            }
            // Thin-client mode: ship the sweep to a running daemon as a
            // single content-addressed job, so repeated regeneration runs
            // (CI, `make experiments`) collapse to one compute and
            // N - 1 cache reads.
            if let Some(addr) = args.flag("addr").filter(|a| !a.is_empty()) {
                let job = iabc_serve::JobSpec::Sweep { ids: ids.clone() };
                let outcome =
                    iabc_serve::submit(addr, &job).map_err(|e| CliError::Run(e.to_string()))?;
                let results = iabc_serve::decode_sweep_payload(&outcome.payload)
                    .map_err(|e| CliError::Run(e.to_string()))?;
                let mut table = iabc_analysis::table::Table::new(["id", "title", "rows", "pass"]);
                for r in &results {
                    table.row([
                        r.id.to_string(),
                        r.title.to_string(),
                        r.table.len().to_string(),
                        r.pass.to_string(),
                    ]);
                }
                let failed: Vec<&str> = results
                    .iter()
                    .filter(|r| !r.pass)
                    .map(|r| r.id.as_str())
                    .collect();
                return Ok(format!(
                    "experiment sweep via {addr} ({} cells, cache: {}, key {})\n\n{table}\n{}\n",
                    results.len(),
                    if outcome.cache_hit { "hit" } else { "miss" },
                    outcome.key.hex(),
                    if failed.is_empty() {
                        "all experiments PASS".to_string()
                    } else {
                        format!("FAILED: {}", failed.join(", "))
                    }
                ));
            }
            let store_dir = args.flag("store").filter(|s| !s.is_empty());
            let max_store_bytes: Option<u64> = args.optional("max-store-bytes")?;
            let (summary, outcomes, memo_counts) = match store_dir {
                Some(dir) => {
                    let store = iabc_serve::Store::open_with_budget(
                        std::path::Path::new(dir),
                        max_store_bytes,
                    )
                    .map_err(|e| CliError::Io(format!("store {dir}: {e}")))?;
                    let mut memo = iabc_serve::StoreMemo::new(&store, jobs);
                    let (summary, outcomes, hits, misses) =
                        sweep::run_experiment_sweep_memo(&ids, jobs, &mut memo);
                    (summary, outcomes, Some((hits, misses, store.evictions())))
                }
                None => {
                    let (summary, outcomes) = sweep::run_experiment_sweep(&ids, jobs);
                    (summary, outcomes, None)
                }
            };
            let mut out = format!(
                "experiment sweep ({} cells, {jobs} jobs)\n\n{summary}\n",
                outcomes.len()
            );
            if let Some((hits, misses, evictions)) = memo_counts {
                out.push_str(&format!(
                    "store: {hits} cell hit(s), {misses} miss(es), {evictions} evicted ({})\n",
                    store_dir.unwrap_or_default()
                ));
            }
            let failed: Vec<&str> = outcomes
                .iter()
                .filter(|o| !o.value.pass)
                .map(|o| o.value.id.as_str())
                .collect();
            if failed.is_empty() {
                out.push_str("all experiments PASS\n");
            } else {
                out.push_str(&format!("FAILED: {}\n", failed.join(", ")));
            }
            Ok(out)
        }
        "monte-carlo" => {
            args.reject_unknown(
                "sweep monte-carlo",
                &["jobs", "n", "f", "p", "trials", "replicas"],
            )?;
            let ns: Vec<usize> = args.list("n")?;
            let fs: Vec<usize> = args.list("f")?;
            let spec = sweep::MonteCarloSpec {
                ns: if ns.is_empty() { vec![6, 8, 10] } else { ns },
                fs: if fs.is_empty() { vec![1] } else { fs },
                edge_prob: args.optional("p")?.unwrap_or(0.5),
                trials: args.optional("trials")?.unwrap_or(100),
                replicas: args.optional("replicas")?.unwrap_or(0),
            };
            if !(0.0..=1.0).contains(&spec.edge_prob) {
                return Err(CliError::Usage("--p must be in [0, 1]".into()));
            }
            let table = sweep::run_monte_carlo_sweep(&spec, jobs);
            let batch_note = if spec.replicas > 0 {
                format!(", {} FastMath replicas/graph", spec.replicas)
            } else {
                String::new()
            };
            Ok(format!(
                "Monte-Carlo tolerance sweep (p = {}, {} trials/cell{batch_note}, \
                 {jobs} jobs)\n\n{table}",
                spec.edge_prob, spec.trials
            ))
        }
        "census" => {
            args.reject_unknown("sweep census", &["jobs", "max-n", "f", "replicas"])?;
            let max_n: usize = args.optional("max-n")?.unwrap_or(4);
            let fs: Vec<usize> = args.list("f")?;
            let fs = if fs.is_empty() { vec![0, 1] } else { fs };
            if max_n < 2 {
                return Err(CliError::Usage("--max-n must be at least 2".into()));
            }
            if max_n > sweep::CENSUS_MAX_N {
                return Err(CliError::Usage(format!(
                    "--max-n {max_n} exceeds the exhaustive-census limit of {} \
                     (2^(n(n-1)) graphs; use `sweep monte-carlo` for larger n)",
                    sweep::CENSUS_MAX_N
                )));
            }
            let table = sweep::run_census_sweep(max_n, &fs, jobs);
            let mut out =
                format!("exhaustive tolerance census (n = 2..={max_n}, {jobs} jobs)\n\n{table}");
            let replicas: usize = args.optional("replicas")?.unwrap_or(0);
            if replicas > 0 {
                let conv = batched::run_census_conv_sweep(max_n, &fs, replicas, jobs, true);
                out.push_str(&format!(
                    "\nconvergence census ({replicas} replicas/cell, max-pull attack, \
                     trimmed-mean)\n\n{conv}"
                ));
            }
            Ok(out)
        }
        other => Err(CliError::Usage(format!(
            "unknown sweep grid {other:?}; expected experiments | monte-carlo | census"
        ))),
    }
}

/// Resolves `--jobs N` into a worker count (default: serial; `0` = all
/// cores).
fn sweep_jobs(args: &ParsedArgs) -> Result<usize, CliError> {
    match args.flag("jobs") {
        None => Ok(1),
        Some("") => Err(CliError::Usage(
            "flag --jobs needs a value (0 = all cores)".into(),
        )),
        Some(raw) => raw
            .parse()
            .map(iabc_sim::exec::effective_jobs)
            .map_err(|_| CliError::Usage(format!("flag --jobs: cannot parse {raw:?}"))),
    }
}

/// `iabc deploy --nodes N [--mode threaded|multiplexed] [--jobs J]
/// [--degree D] [--f F] [--rounds R]` — runs Algorithm 1 as a real
/// deployment on a circulant digraph (every node hears its `D`
/// predecessors; nodes `0..F` are Byzantine `ConstantLiar`s).
///
/// `--mode threaded` is the fidelity reference: one OS thread per node,
/// one channel per edge, capped at 8192 nodes. `--mode multiplexed` (the
/// default) runs every node on a shared `--jobs`-thread pool with
/// CSR-indexed mailboxes — memory is bounded by edges + states, so a
/// million nodes fit on one host. Both modes print a bitwise state
/// checksum; for the same workload it is identical across modes and job
/// counts.
pub fn deploy_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    use iabc_graph::CompiledTopology;
    use iabc_runtime::{
        run_threaded, ConstantLiar, LocalTransport, MultiplexConfig, MultiplexedDeployment,
    };
    use std::time::Instant;

    /// One OS thread per node stops being viable long before the
    /// multiplexed tier breaks a sweat; past this the command refuses
    /// rather than letting thread exhaustion fail mid-run.
    const THREADED_CAP: usize = 8192;

    args.reject_unknown(
        "deploy",
        &["nodes", "mode", "jobs", "f", "degree", "rounds"],
    )?;
    let n: usize = args.required("nodes")?;
    let mode = args.flag("mode").unwrap_or("multiplexed");
    let jobs: usize = args.optional("jobs")?.unwrap_or(1);
    let f: usize = args.optional("f")?.unwrap_or(1);
    let degree: usize = args.optional("degree")?.unwrap_or((3 * f + 1).max(4));
    let rounds: usize = args.optional("rounds")?.unwrap_or(30);
    // Rounds are tagged with a u32 on the wire and one past the last round
    // must still fit.
    if rounds >= u32::MAX as usize {
        return Err(CliError::Usage(format!(
            "need --rounds < {} (got {rounds})",
            u32::MAX
        )));
    }
    if f >= n {
        return Err(CliError::Usage(format!(
            "need --f < --nodes (got f = {f}, nodes = {n})"
        )));
    }
    if n < 2 || degree >= n {
        return Err(CliError::Usage(format!(
            "need --nodes > degree (got nodes = {n}, degree = {degree})"
        )));
    }

    // Deterministic workload: the first f nodes are Byzantine, inputs
    // spread over [0, 1000).
    let faults = NodeSet::from_indices(n, 0..f);
    let inputs: Vec<f64> = (0..n).map(|i| ((i * 37) % 1000) as f64).collect();

    let (report, threads_line, elapsed) = match mode {
        "threaded" => {
            if n > THREADED_CAP {
                return Err(CliError::Usage(format!(
                    "--mode threaded spawns one OS thread per node; {n} nodes exceeds the \
                     {THREADED_CAP}-node cap — use --mode multiplexed"
                )));
            }
            let g = generators::circulant(n, 1..=degree);
            let start = Instant::now();
            let report = run_threaded(&g, &inputs, &faults, f, rounds, |_| {
                Box::new(ConstantLiar { value: 1e6 })
            })
            .map_err(|e| CliError::Run(e.to_string()))?;
            let elapsed = start.elapsed().as_secs_f64();
            (report, format!("os threads: {n} (one per node)"), elapsed)
        }
        "multiplexed" => {
            // CSR built directly — no n^2 adjacency bitset anywhere, so
            // n = 10^6 is a few hundred MB of edges + states.
            let topology = CompiledTopology::circulant(n, degree, &faults);
            let mut deployment = MultiplexedDeployment::new(
                &topology,
                &inputs,
                f,
                rounds,
                |_| Box::new(ConstantLiar { value: 1e6 }),
                LocalTransport,
                MultiplexConfig {
                    jobs,
                    shared_pool: true,
                    ..MultiplexConfig::default()
                },
            )
            .map_err(|e| CliError::Run(e.to_string()))?;
            let start = Instant::now();
            let report = deployment.run().map_err(|e| CliError::Run(e.to_string()))?;
            let elapsed = start.elapsed().as_secs_f64();
            let spawned = deployment.pool_threads_spawned();
            (
                report,
                // The process-level pool is sized by its first user, so the
                // spawned count is reported rather than derived from
                // --jobs (a daemon that already warmed the pool keeps it).
                format!(
                    "os threads: 1 caller + {spawned} pooled workers \
                     (shared process pool; --jobs {jobs})"
                ),
                elapsed,
            )
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown --mode {other:?}: expected threaded or multiplexed"
            )));
        }
    };

    let rate = rounds as f64 / elapsed.max(1e-12);
    // Order-sensitive bitwise digest: equal across modes and job counts
    // iff the trajectories are identical float for float.
    let checksum = report
        .final_states
        .iter()
        .fold(0u64, |acc, v| acc.rotate_left(7) ^ v.to_bits());
    Ok(format!(
        "deploy: circulant/n{n} degree={degree} f={f} rounds={rounds} mode={mode}\n\
         {threads_line}\n\
         {rate:.1} rounds/s ({elapsed:.3}s total)\n\
         honest range: {:.6e}\n\
         state checksum: {checksum:016x}\n",
        report.honest_range()
    ))
}

/// `iabc serve --store DIR [--addr 127.0.0.1:PORT] [--jobs N]
/// [--accept K] [--max-conn C] [--max-store-bytes B]` — runs the
/// sweep-as-a-service daemon: a bounded thread-per-connection TCP accept
/// loop answering `iabc submit` / `iabc query` from the content-addressed
/// result store at `DIR`. Hits answer concurrently from the store's read
/// lock; misses execute under the process-level shared pool's compute
/// permit, with identical in-flight submissions coalesced onto one
/// computation (single-flight). The bound address is printed to stderr
/// before the loop starts (port 0 picks an ephemeral port), so scripts
/// can wait for readiness. `--accept K` exits cleanly after `K`
/// connections (CI smoke runs); otherwise the daemon runs until an
/// `iabc`-protocol shutdown request arrives. `--max-conn C` bounds
/// concurrent handler threads (`1` = sequential; default 8);
/// `--max-store-bytes B` caps total object bytes, evicting
/// least-recently-used results when an insert would exceed the budget.
pub fn serve_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    args.reject_unknown(
        "serve",
        &[
            "store",
            "addr",
            "jobs",
            "accept",
            "max-conn",
            "max-store-bytes",
        ],
    )?;
    let store_dir: String = args.required("store")?;
    let config = iabc_serve::ServerConfig {
        addr: args
            .flag("addr")
            .filter(|a| !a.is_empty())
            .unwrap_or("127.0.0.1:0")
            .to_string(),
        jobs: args.optional("jobs")?.unwrap_or(0),
        store_dir: std::path::PathBuf::from(store_dir),
        accept_limit: args.optional("accept")?,
        max_connections: args.optional("max-conn")?.unwrap_or(0),
        max_store_bytes: args.optional("max-store-bytes")?,
    };
    let mut server = iabc_serve::Server::bind(&config).map_err(|e| CliError::Run(e.to_string()))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::Run(e.to_string()))?;
    // Announce readiness on stderr immediately: the report string only
    // reaches stdout after the accept loop exits, far too late for a
    // script polling for the daemon.
    eprintln!(
        "iabc serve: listening on {addr} (store: {})",
        config.store_dir.display()
    );
    let stats = server.run().map_err(|e| CliError::Run(e.to_string()))?;
    Ok(format!(
        "serve: {addr} handled {} connection(s) — {} job hit(s), {} job miss(es), \
         {} coalesced, {} keyed from memo, {} handler panic(s); store holds {} object(s), \
         {} evicted\n",
        stats.connections,
        stats.job_hits,
        stats.job_misses,
        stats.job_coalesced,
        stats.keyed_from_memo,
        stats.handler_panics,
        server.store().len(),
        server.store().evictions()
    ))
}

/// `iabc compact (--addr HOST:PORT | --store DIR)` — rewrites a result
/// store's run journal down to one record per live object (replay-
/// equivalent by construction) and sweeps orphaned object files. With
/// `--addr` the request goes to a running daemon; with `--store` the
/// journal is compacted offline, directly on disk.
pub fn compact_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    args.reject_unknown("compact", &["addr", "store"])?;
    let stats = match (args.flag("addr"), args.flag("store")) {
        (Some(addr), None) => {
            iabc_serve::compact(addr).map_err(|e| CliError::Run(e.to_string()))?
        }
        (None, Some(dir)) => {
            let store = iabc_serve::Store::open(std::path::Path::new(dir))
                .map_err(|e| CliError::Io(format!("store {dir}: {e}")))?;
            store.compact().map_err(|e| CliError::Run(e.to_string()))?
        }
        _ => {
            return Err(CliError::Usage(
                "compact needs exactly one of --addr HOST:PORT or --store DIR".into(),
            ))
        }
    };
    Ok(format!(
        "compacted: {} -> {} record(s), {} -> {} journal byte(s), {} orphan object(s) removed\n",
        stats.records_before,
        stats.records_after,
        stats.bytes_before,
        stats.bytes_after,
        stats.orphans_removed
    ))
}

/// Builds the [`iabc_serve::JobSpec`] shared by `iabc submit` (sent over
/// TCP) from the subcommand's arguments: `submit sweep [--ids E1,..]` or
/// `submit scenario <graph-file> --f N [--faulty A,B] [--rule R]
/// [--adversary A] [--seed S | --inputs V,V,..] [--quantum Q] [--eps E]
/// [--max-rounds R] [--delay-bound B [--scheduler NAME]
/// [--sched-seed S]]`. A `--delay-bound` turns the job into a
/// delay-bounded asynchronous run (schedulers: immediate | max | random);
/// the engine choice is part of the run key, so synchronous and
/// delay-bounded runs of the same scenario never collide in the store.
fn submit_job_from_args(args: &ParsedArgs) -> Result<iabc_serve::JobSpec, CliError> {
    let kind = args.positional(0).ok_or_else(|| {
        CliError::Usage("expected a job kind: sweep | scenario <graph-file>".into())
    })?;
    match kind {
        "sweep" => {
            args.reject_unknown("submit sweep", &["addr", "ids"])?;
            Ok(iabc_serve::JobSpec::Sweep {
                ids: args.list("ids")?,
            })
        }
        "scenario" => {
            let mut known = vec![
                "addr",
                "f",
                "faulty",
                "rule",
                "quantum",
                "adversary",
                "seed",
                "inputs",
                "eps",
                "max-rounds",
            ];
            if args.has_flag("delay-bound") {
                known.extend(["delay-bound", "scheduler", "sched-seed"]);
            }
            args.reject_unknown("submit scenario", &known)?;
            // An ignored quantum would still split the run key.
            args.reject_unless("quantum", "rule", "quantized")?;
            args.reject_unless("sched-seed", "scheduler", "random")?;
            let path = args.positional(1).ok_or_else(|| {
                CliError::Usage("scenario jobs need a graph file: submit scenario <file>".into())
            })?;
            let graph =
                std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            let seed: u64 = args.optional("seed")?.unwrap_or(0);
            let explicit: Vec<f64> = args.list("inputs")?;
            let inputs = if explicit.is_empty() {
                iabc_serve::InputSpec::Seeded(seed)
            } else {
                iabc_serve::InputSpec::Explicit(explicit)
            };
            let engine = match args.optional::<usize>("delay-bound")? {
                Some(bound) => iabc_serve::EngineSpec::DelayBounded {
                    bound,
                    scheduler: args.flag("scheduler").unwrap_or("max").to_string(),
                    sched_seed: args.optional("sched-seed")?.unwrap_or(0),
                },
                None => iabc_serve::EngineSpec::Synchronous,
            };
            Ok(iabc_serve::JobSpec::Scenario(iabc_serve::ScenarioSpec {
                graph,
                faulty: args.list("faulty")?,
                f: args.required("f")?,
                rule: args.flag("rule").unwrap_or("trimmed-mean").to_string(),
                quantum: args.optional("quantum")?,
                adversary: args.flag("adversary").unwrap_or("constant").to_string(),
                seed,
                inputs,
                epsilon: args.optional("eps")?.unwrap_or(1e-6),
                max_rounds: args.optional("max-rounds")?.unwrap_or(10_000),
                engine,
            }))
        }
        other => Err(CliError::Usage(format!(
            "unknown job kind {other:?}; expected sweep | scenario"
        ))),
    }
}

/// `iabc submit <sweep|scenario ..> --addr HOST:PORT` — submits a job to a
/// running daemon and prints cache verdict, run key, and the payload as
/// hex (so CI can byte-diff a hit against the original miss).
pub fn submit_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    let addr: String = args.required("addr")?;
    let job = submit_job_from_args(args)?;
    let outcome = iabc_serve::submit(&addr, &job).map_err(|e| CliError::Run(e.to_string()))?;
    let mut out = String::new();
    for label in &outcome.progress {
        out.push_str(&format!("progress: {label}\n"));
    }
    out.push_str(&format!(
        "cache: {}\nkey: {}\ncells: {} hit(s), {} miss(es)\npayload ({} bytes): {}\n",
        if outcome.cache_hit { "hit" } else { "miss" },
        outcome.key.hex(),
        outcome.hits,
        outcome.misses,
        outcome.payload.len(),
        iabc_serve::protocol::to_hex(&outcome.payload)
    ));
    Ok(out)
}

/// `iabc query --addr HOST:PORT --key HEX` — fetches a stored payload by
/// run key without executing anything; absent keys are reported (exit
/// stays zero — absence is an answer, not an error).
pub fn query_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    args.reject_unknown("query", &["addr", "key"])?;
    let addr: String = args.required("addr")?;
    let key_hex: String = args.required("key")?;
    let key = iabc_serve::RunKey::from_hex(&key_hex)
        .ok_or_else(|| CliError::Usage(format!("--key: not a 16-digit hex key: {key_hex:?}")))?;
    match iabc_serve::query(&addr, key).map_err(|e| CliError::Run(e.to_string()))? {
        Some(payload) => Ok(format!(
            "key: {}\npayload ({} bytes): {}\n",
            key.hex(),
            payload.len(),
            iabc_serve::protocol::to_hex(&payload)
        )),
        None => Ok(format!("key: {}\nabsent\n", key.hex())),
    }
}

/// `iabc perf [--quick] [--steps S] [--jobs N] [--out FILE] [--check
/// [--baseline FILE] [--tolerance T]]`: measures the
/// [`iabc_bench::perf`] datapoints and writes them to `--out` (default
/// `BENCH_hotpath.json`). Arguments are checked before anything is timed,
/// so a typo or `--help` never overwrites the file.
pub fn perf_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    use iabc_bench::perf::{self, PerfError};
    const FLAGS: [&str; 7] = [
        "quick",
        "steps",
        "jobs",
        "out",
        "check",
        "baseline",
        "tolerance",
    ];
    let usage = || format!("usage:\n{}", crate::PERF_USAGE);
    // A value after a switch is a stray argument too.
    let strays: Vec<&str> = args
        .positionals()
        .iter()
        .map(String::as_str)
        .chain(["quick", "check"].into_iter().filter_map(|k| args.flag(k)))
        .filter(|v| !v.is_empty())
        .collect();
    if args.has_flag("help") || strays.contains(&"-h") {
        return Ok(usage());
    }
    let unknown = match strays.first() {
        Some(stray) => Some(format!("unexpected argument {stray:?}")),
        None => args
            .unknown_flag(&FLAGS)
            .map(|flag| format!("unknown flag --{flag}")),
    };
    if let Some(unknown) = unknown {
        return Err(CliError::Usage(format!("perf: {unknown}\n\n{}", usage())));
    }
    let config = perf::Config {
        quick: args.has_flag("quick"),
        steps: args.optional("steps")?,
        jobs: args.optional("jobs")?.unwrap_or(4),
    };
    let tolerance = args.optional("tolerance")?.unwrap_or(0.4);
    let gate = args.has_flag("check").then(|| perf::Gate {
        baseline: args.flag("baseline").unwrap_or("BENCH_hotpath.json"),
        tolerance,
    });
    let out_path = args.flag("out").unwrap_or("BENCH_hotpath.json");
    let output = perf::run(config, gate).map_err(|e| match e {
        PerfError::Io(m) => CliError::Io(m),
        PerfError::Run(m) => CliError::Run(m),
    })?;
    std::fs::write(out_path, &output.json).map_err(|e| CliError::Io(format!("{out_path}: {e}")))?;
    Ok(format!("{}wrote {out_path}\n", output.report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

    /// Serializes the tests that run `perf`, so neither one times the
    /// other's load.
    static PERF_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn write_graph(name: &str, content: &str) -> String {
        let path = std::env::temp_dir().join(format!("iabc-cli-test-{name}.txt"));
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn deploy_reports_both_modes_and_identical_checksums() {
        let threaded = run(&argv(&[
            "deploy", "--nodes", "48", "--mode", "threaded", "--f", "2", "--degree", "8",
            "--rounds", "15",
        ]))
        .unwrap();
        let multiplexed = run(&argv(&[
            "deploy",
            "--nodes",
            "48",
            "--mode",
            "multiplexed",
            "--jobs",
            "3",
            "--f",
            "2",
            "--degree",
            "8",
            "--rounds",
            "15",
        ]))
        .unwrap();
        assert!(threaded.contains("mode=threaded"), "{threaded}");
        assert!(
            threaded.contains("os threads: 48 (one per node)"),
            "{threaded}"
        );
        assert!(multiplexed.contains("mode=multiplexed"), "{multiplexed}");
        // The worker count belongs to the process-level shared pool, whose
        // size is set by whichever test (or daemon) touched it first — so
        // assert the shape of the line, not an exact count.
        assert!(
            multiplexed.contains("pooled workers (shared process pool; --jobs 3)"),
            "{multiplexed}"
        );
        let checksum = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("state checksum:"))
                .map(str::to_owned)
                .unwrap()
        };
        assert_eq!(checksum(&threaded), checksum(&multiplexed));
    }

    #[test]
    fn deploy_multiplexed_is_checksum_stable_across_job_counts() {
        let checksum_at = |jobs: &str| {
            let out = run(&argv(&[
                "deploy", "--nodes", "96", "--jobs", jobs, "--f", "3", "--degree", "12",
                "--rounds", "10",
            ]))
            .unwrap();
            out.lines()
                .find(|l| l.starts_with("state checksum:"))
                .map(str::to_owned)
                .unwrap()
        };
        let serial = checksum_at("1");
        assert_eq!(serial, checksum_at("4"));
        assert_eq!(serial, checksum_at("7"));
    }

    #[test]
    fn deploy_rejects_rounds_past_the_round_tag_space() {
        for rounds in ["5000000000", "4294967295"] {
            let err = run(&argv(&[
                "deploy", "--nodes", "100", "--degree", "8", "--f", "2", "--rounds", rounds,
            ]))
            .unwrap_err();
            assert!(
                matches!(err, CliError::Usage(_)),
                "--rounds {rounds}: {err}"
            );
            assert!(err.to_string().contains("--rounds"), "{err}");
        }
    }

    #[test]
    fn deploy_rejects_unknown_flags() {
        for typo in [["--round", "3"], ["--job", "2"]] {
            let mut args = vec!["deploy", "--nodes", "100", "--degree", "8", "--f", "2"];
            args.extend_from_slice(&typo);
            let err = run(&argv(&args)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{typo:?}: {err}");
            assert!(err.to_string().contains(&typo[0][2..]), "{err}");
        }
    }

    #[test]
    fn deploy_threaded_refuses_past_the_thread_cap() {
        let err = run(&argv(&[
            "deploy", "--nodes", "9000", "--mode", "threaded", "--f", "1",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("8192"), "{err}");
        assert!(err.to_string().contains("--mode multiplexed"), "{err}");
    }

    #[test]
    fn deploy_rejects_bad_mode_and_bad_shape() {
        let err = run(&argv(&[
            "deploy",
            "--nodes",
            "32",
            "--mode",
            "carrier-pigeon",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("unknown --mode"), "{err}");
        let err = run(&argv(&["deploy", "--nodes", "6", "--degree", "9"])).unwrap_err();
        assert!(err.to_string().contains("--nodes > degree"), "{err}");
        let err = run(&argv(&["deploy", "--nodes", "8", "--f", "8"])).unwrap_err();
        assert!(err.to_string().contains("--f < --nodes"), "{err}");
    }

    #[test]
    fn simulate_delay_bounded_end_to_end() {
        let edge_list = run(&argv(&["generate", "complete", "7"])).unwrap();
        let path = write_graph("delay-k7", &edge_list);
        let out = run(&argv(&[
            "simulate",
            &path,
            "--f",
            "2",
            "--faulty",
            "5,6",
            "--delay-bound",
            "3",
            "--scheduler",
            "max",
            "--inputs",
            "0,1,2,3,4,2,2",
        ]))
        .unwrap();
        assert!(out.contains("delay bound B = 3"), "{out}");
        assert!(out.contains("scheduler = max"), "{out}");
        assert!(out.contains("converged: true"), "{out}");
    }

    #[test]
    fn simulate_delay_bounded_jobs_are_bit_identical() {
        let edge_list = run(&argv(&["generate", "complete", "8"])).unwrap();
        let path = write_graph("delay-jobs-k8", &edge_list);
        let base = &[
            "simulate",
            &path,
            "--f",
            "2",
            "--faulty",
            "6,7",
            "--delay-bound",
            "4",
            "--scheduler",
            "random",
            "--sched-seed",
            "7",
            "--adversary",
            "random",
            "--inputs",
            "0,1,2,3,4,5,2,2",
        ];
        let with_jobs = |jobs: &str| {
            let mut a = base.to_vec();
            a.extend(["--jobs", jobs]);
            run(&argv(&a)).unwrap()
        };
        let serial = with_jobs("1");
        for jobs in ["2", "4", "7"] {
            let parallel = with_jobs(jobs);
            // Everything but the header line (which reports the job
            // count) must match bit-for-bit — same rounds, same agreed
            // value digits, same scheduler stream.
            let body = |s: &str| s.split_once('\n').map(|(_, b)| b.to_string()).unwrap();
            assert_eq!(body(&serial), body(&parallel), "--jobs {jobs} diverged");
        }
    }

    #[test]
    fn simulate_delay_bounded_validates_flags() {
        let edge_list = run(&argv(&["generate", "complete", "5"])).unwrap();
        let path = write_graph("delay-flags-k5", &edge_list);
        let base = ["simulate", &path, "--f", "1", "--faulty", "4"];
        let with = |extra: &[&str]| {
            let mut a = base.to_vec();
            a.extend_from_slice(extra);
            run(&argv(&a))
        };
        assert!(with(&["--delay-bound", "0"]).is_err());
        assert!(with(&["--delay-bound", "2", "--scheduler", "bogus"]).is_err());
        assert!(with(&["--delay-bound", "2", "--scheduler", "targeted"]).is_err());
        assert!(with(&[
            "--delay-bound",
            "2",
            "--scheduler",
            "targeted",
            "--victims",
            "9"
        ])
        .is_err());
        assert!(with(&[
            "--delay-bound",
            "2",
            "--scheduler",
            "targeted",
            "--victims",
            "0,1"
        ])
        .is_ok());
    }

    #[test]
    fn sweep_census_is_deterministic_across_job_counts() {
        let serial = run(&argv(&["sweep", "census", "--max-n", "4", "--jobs", "1"])).unwrap();
        let parallel = run(&argv(&["sweep", "census", "--max-n", "4", "--jobs", "4"])).unwrap();
        // Everything after the header line (which names the job count)
        // must match bit-for-bit.
        let body = |s: &str| s.split_once('\n').map(|(_, b)| b.to_string()).unwrap();
        assert_eq!(body(&serial), body(&parallel));
        assert!(
            serial.contains("4096"),
            "n=4 census should enumerate 2^12 graphs"
        );
    }

    #[test]
    fn sweep_experiments_subset_runs_and_passes() {
        let out = run(&argv(&[
            "sweep",
            "experiments",
            "--ids",
            "E4,E5",
            "--jobs",
            "0",
        ]))
        .unwrap();
        assert!(out.contains("E4"));
        assert!(out.contains("E5"));
        assert!(out.contains("all experiments PASS"));
    }

    #[test]
    fn sweep_rejects_unknown_grid_and_bad_flags() {
        assert!(run(&argv(&["sweep", "frobnicate"])).is_err());
        assert!(run(&argv(&["sweep"])).is_err());
        assert!(run(&argv(&["sweep", "monte-carlo", "--p", "1.5"])).is_err());
        assert!(run(&argv(&["sweep", "census", "--jobs"])).is_err());
        // A typo'd experiment id must error, not silently run the rest.
        let err = run(&argv(&["sweep", "experiments", "--ids", "E4,E13"])).unwrap_err();
        assert!(err.to_string().contains("E13"));
        // A census beyond the enumerable limit must error, not silently cap.
        let err = run(&argv(&["sweep", "census", "--max-n", "8"])).unwrap_err();
        assert!(err.to_string().contains("monte-carlo"));
        // The census always groups same-spec cells; there is no switch.
        let err = run(&argv(&["sweep", "census", "--replicas", "2", "--batch"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("unknown flag --batch"), "{err}");
    }

    #[test]
    fn generate_then_check_roundtrip() {
        let edge_list = run(&argv(&["generate", "core-network", "7", "2"])).unwrap();
        let path = write_graph("core", &edge_list);
        let report = run(&argv(&["check", &path, "--f", "2"])).unwrap();
        assert!(report.contains("condition: satisfied"));
        assert!(report.contains("IS possible"));
    }

    #[test]
    fn check_reports_witness_on_violation() {
        let edge_list = run(&argv(&["generate", "chord", "7", "5"])).unwrap();
        let path = write_graph("chord", &edge_list);
        let report = run(&argv(&["check", &path, "--f", "2"])).unwrap();
        assert!(report.contains("violated by F="));
        assert!(report.contains("no correct iterative algorithm"));
    }

    #[test]
    fn check_async_and_local_flags() {
        let edge_list = run(&argv(&["generate", "complete", "11"])).unwrap();
        let path = write_graph("k11", &edge_list);
        let sync = run(&argv(&["check", &path, "--f", "2"])).unwrap();
        assert!(sync.contains("satisfied"));
        let asyn = run(&argv(&["check", &path, "--f", "2", "--async"])).unwrap();
        assert!(asyn.contains("asynchronous"));
        assert!(asyn.contains("satisfied"));
        let local = run(&argv(&["check", &path, "--f", "2", "--local"])).unwrap();
        assert!(local.contains("f-local condition: satisfied"));
    }

    #[test]
    fn check_rejects_unknown_flags() {
        let edge_list = run(&argv(&["generate", "complete", "4"])).unwrap();
        let path = write_graph("k4-typos", &edge_list);
        for typo in [&["--asyn"][..], &["--paralel", "2"]] {
            let mut args = vec!["check", &path, "--f", "1"];
            args.extend_from_slice(typo);
            let err = run(&argv(&args)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{typo:?}: {err}");
            assert!(err.to_string().contains(&typo[0][2..]), "{err}");
        }
        let asyn = run(&argv(&["check", &path, "--f", "1", "--async"])).unwrap();
        assert!(asyn.contains("condition: violated"), "{asyn}");
    }

    #[test]
    fn check_reports_huge_fault_bounds_as_violated() {
        let edge_list = run(&argv(&["generate", "complete", "4"])).unwrap();
        let path = write_graph("k4-huge-f", &edge_list);
        let max = usize::MAX.to_string();
        let half = (1usize << 63).to_string();
        for (f, flag, verdict) in [
            (&max, None, "condition: violated"),
            (&half, None, "condition: violated"),
            (&half, Some("--async"), "condition: violated"),
            (&max, Some("--async"), "condition: violated"),
            (&max, Some("--local"), "f-local condition: violated"),
            (&half, Some("--local"), "f-local condition: violated"),
        ] {
            let mut args = vec!["check", &path, "--f", f];
            args.extend(flag);
            let out = run(&argv(&args)).unwrap();
            assert!(out.contains(verdict), "--f {f} {flag:?}: {out}");
        }
    }

    #[test]
    fn check_structure_flag() {
        let edge_list = run(&argv(&["generate", "chord", "7", "5"])).unwrap();
        let path = write_graph("chord7-structure", &edge_list);
        // Known rack {5,6}: the generalized condition is satisfied (fault-
        // location knowledge restores possibility on the §6.3 graph).
        let rack = run(&argv(&["check", &path, "--structure", "5,6"])).unwrap();
        assert!(rack.contains("generalized condition: satisfied"), "{rack}");
        // Two possible racks {5,6} / {0,1}: still more knowledge than
        // f-total(2); report whatever the checker decides, but it must parse.
        let racks = run(&argv(&["check", &path, "--structure", "5,6;0,1"])).unwrap();
        assert!(racks.contains("generalized condition:"), "{racks}");
        // Bad ids are usage errors.
        assert!(run(&argv(&["check", &path, "--structure", "5,99"])).is_err());
        assert!(run(&argv(&["check", &path, "--structure", "5,x"])).is_err());
    }

    #[test]
    fn simulate_structure_aware_rule() {
        let edge_list = run(&argv(&["generate", "chord", "7", "5"])).unwrap();
        let path = write_graph("chord7-model-sim", &edge_list);
        // The rack scenario: structure {5,6}, faults {5,6} — converges with
        // the structure-aware rule even though the f-total condition fails.
        let report = run(&argv(&[
            "simulate",
            &path,
            "--structure",
            "5,6",
            "--faulty",
            "5,6",
            "--seed",
            "11",
        ]))
        .unwrap();
        assert!(report.contains("rule = model-trimmed-mean"), "{report}");
        assert!(report.contains("converged: true"), "{report}");
        assert!(report.contains("validity: ok"), "{report}");
        // Infeasible fault set under the structure is a usage error.
        assert!(run(&argv(&[
            "simulate",
            &path,
            "--structure",
            "5,6",
            "--faulty",
            "0,1",
        ]))
        .is_err());
    }

    #[test]
    fn simulate_quantized_rule() {
        let edge_list = run(&argv(&["generate", "complete", "7"])).unwrap();
        let path = write_graph("k7-quantized", &edge_list);
        let report = run(&argv(&[
            "simulate",
            &path,
            "--f",
            "2",
            "--faulty",
            "5,6",
            "--rule",
            "quantized",
            "--quantum",
            "0.25",
            "--eps",
            "0.25",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert!(report.contains("rule = quantized-trimmed-mean"), "{report}");
        assert!(report.contains("converged: true"), "{report}");
        // Quantized rule without --quantum is a usage error.
        assert!(run(&argv(&[
            "simulate",
            &path,
            "--f",
            "2",
            "--faulty",
            "5,6",
            "--rule",
            "quantized",
        ]))
        .is_err());
        // Unknown rounding mode is a usage error.
        assert!(run(&argv(&[
            "simulate",
            &path,
            "--f",
            "2",
            "--faulty",
            "5,6",
            "--rule",
            "quantized",
            "--quantum",
            "0.25",
            "--rounding",
            "stochastic",
        ]))
        .is_err());
    }

    #[test]
    fn check_jobs_flag() {
        let edge_list = run(&argv(&["generate", "complete", "9"])).unwrap();
        let path = write_graph("k9", &edge_list);
        let report = run(&argv(&["check", &path, "--f", "2", "--jobs", "4"])).unwrap();
        assert!(report.contains("satisfied"));
    }

    #[test]
    fn flags_of_another_engine_are_rejected() {
        let edge_list = run(&argv(&["generate", "complete", "4"])).unwrap();
        let path = write_graph("k4-engine-flags", &edge_list);
        let g = path.as_str();
        let structure = ["simulate", g, "--structure", "3", "--faulty", "3"];
        let synchronous = ["simulate", g, "--f", "1", "--faulty", "3"];
        let submit = ["submit", "scenario", g, "--addr", "127.0.0.1:9", "--f", "1"];
        for (case, flag) in [
            (
                [&structure[..], &["--delay-bound", "2"]].concat(),
                "--delay-bound",
            ),
            ([&structure[..], &["--jobs", "2"]].concat(), "--jobs"),
            (
                [&synchronous[..], &["--scheduler", "max"]].concat(),
                "--scheduler",
            ),
            (
                [&submit[..], &["--scheduler", "max"]].concat(),
                "--scheduler",
            ),
        ] {
            let err = run(&argv(&case)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{case:?}: {err}");
            let unknown = format!("unknown flag {flag}");
            assert!(err.to_string().contains(&unknown), "{case:?}: {err}");
        }
    }

    /// Runs a valid invocation of `command` on K4 (its graph file in place
    /// of `G`) with `extra` appended, and expects the usage error that
    /// names `flag` and what it needs.
    fn assert_flag_needs(command: &[&str], extra: &[&str], flag: &str, needs: &str) {
        let edge_list = run(&argv(&["generate", "complete", "4"])).unwrap();
        let path = write_graph(&format!("k4-{}-needs-{flag}", command[0]), &edge_list);
        let case: Vec<&str> = command
            .iter()
            .map(|&a| if a == "G" { path.as_str() } else { a })
            .chain(extra.iter().copied())
            .collect();
        let err = run(&argv(&case)).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{case:?}: {err}");
        let want = format!("--{flag} is read only with {needs}");
        assert!(err.to_string().contains(&want), "{case:?}: {err}");
    }

    const SIMULATE: [&str; 6] = ["simulate", "G", "--f", "1", "--faulty", "3"];
    const DELAYED: [&str; 8] = [
        "simulate",
        "G",
        "--f",
        "1",
        "--faulty",
        "3",
        "--delay-bound",
        "2",
    ];
    const SUBMIT: [&str; 7] = [
        "submit",
        "scenario",
        "G",
        "--addr",
        "127.0.0.1:9",
        "--f",
        "1",
    ];

    #[test]
    fn simulate_quantum_needs_the_quantized_rule() {
        assert_flag_needs(
            &SIMULATE,
            &["--quantum", "0.5"],
            "quantum",
            "--rule quantized",
        );
        let mean = ["--rule", "mean", "--quantum", "0.5"];
        assert_flag_needs(&DELAYED, &mean, "quantum", "--rule quantized");
    }

    #[test]
    fn simulate_rounding_needs_the_quantized_rule() {
        assert_flag_needs(
            &SIMULATE,
            &["--rounding", "floor"],
            "rounding",
            "--rule quantized",
        );
    }

    #[test]
    fn simulate_sched_seed_needs_the_random_scheduler() {
        assert_flag_needs(
            &DELAYED,
            &["--sched-seed", "4"],
            "sched-seed",
            "--scheduler random",
        );
        let max = ["--scheduler", "max", "--sched-seed", "4"];
        assert_flag_needs(&DELAYED, &max, "sched-seed", "--scheduler random");
    }

    #[test]
    fn simulate_victims_need_the_targeted_scheduler() {
        assert_flag_needs(
            &DELAYED,
            &["--victims", "1,2"],
            "victims",
            "--scheduler targeted",
        );
    }

    #[test]
    fn submit_quantum_needs_the_quantized_rule() {
        assert_flag_needs(
            &SUBMIT,
            &["--quantum", "0.5"],
            "quantum",
            "--rule quantized",
        );
    }

    #[test]
    fn submit_sched_seed_needs_the_random_scheduler() {
        let max = [
            "--delay-bound",
            "2",
            "--scheduler",
            "max",
            "--sched-seed",
            "4",
        ];
        assert_flag_needs(&SUBMIT, &max, "sched-seed", "--scheduler random");
    }

    #[test]
    fn every_subcommand_rejects_a_misspelled_flag() {
        let edge_list = run(&argv(&["generate", "complete", "4"])).unwrap();
        let path = write_graph("k4-misspelled", &edge_list);
        let g = path.as_str();
        // The misspelled flag comes last in every case, and each command
        // must refuse it before reading a file or opening a socket.
        let cases: [&[&str]; 22] = [
            &["check", g, "--f", "1", "--job", "2"],
            &[
                "simulate",
                g,
                "--f",
                "1",
                "--faulty",
                "3",
                "--adversry",
                "echo",
            ],
            &["robustness", g, "--rr", "1"],
            &["alpha", g, "--ff", "1"],
            &["dot", g, "--ff", "1"],
            &["repair", g, "--f", "1", "--outt", "x.txt"],
            &["profile", g, "--verbose"],
            &["minimal", g, "--f", "1", "--prun"],
            &["construct", "7", "--f", "1", "--sed", "3"],
            &[
                "baseline",
                g,
                "--f",
                "1",
                "--faulty",
                "3",
                "--adversry",
                "echo",
            ],
            &["sweep", "experiments", "--id", "E4"],
            &["sweep", "monte-carlo", "--trial", "2"],
            &["sweep", "census", "--max-n", "3", "--job", "2"],
            &["record", g, "--f", "1", "--faulty", "3", "--round", "2"],
            &["replay", g, "--f", "1", "--transcrpt", "t.txt"],
            &["perf", "--quik"],
            &["deploy", "--nodes", "100", "--job", "2"],
            &["serve", "--store", "no-such-store", "--acept", "1"],
            &["submit", "sweep", "--addr", "127.0.0.1:9", "--id", "E1"],
            &[
                "submit",
                "scenario",
                g,
                "--addr",
                "127.0.0.1:9",
                "--f",
                "1",
                "--adversry",
                "echo",
            ],
            &[
                "query",
                "--addr",
                "127.0.0.1:9",
                "--key",
                "0000000000000000",
                "--kye",
                "x",
            ],
            &["compact", "--store", "no-such-store", "--adr", "x"],
        ];
        for case in cases {
            let typo = case.iter().rev().find(|t| t.starts_with("--")).unwrap();
            let err = run(&argv(case)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{case:?}: {err}");
            assert!(
                err.to_string().contains(&format!("unknown flag {typo}")),
                "{case:?}: {err}"
            );
        }
    }

    #[test]
    fn generate_families_have_expected_headers() {
        for (fam, expected_n) in [
            (vec!["generate", "complete", "5"], 5usize),
            (vec!["generate", "hypercube", "3"], 8),
            (vec!["generate", "cycle", "6"], 6),
            (vec!["generate", "bridged-cliques", "3", "1"], 6),
            (vec!["generate", "random", "6", "0.5", "42"], 6),
        ] {
            let out = run(&argv(&fam)).unwrap();
            let g = parse::parse_edge_list(&out).unwrap();
            assert_eq!(g.node_count(), expected_n, "{fam:?}");
        }
    }

    #[test]
    fn generate_unknown_family_errors() {
        assert!(run(&argv(&["generate", "petersen", "10"])).is_err());
        assert!(run(&argv(&["generate", "complete"])).is_err());
    }

    #[test]
    fn simulate_end_to_end() {
        let edge_list = run(&argv(&["generate", "complete", "7"])).unwrap();
        let path = write_graph("simk7", &edge_list);
        let report = run(&argv(&[
            "simulate",
            &path,
            "--f",
            "2",
            "--faulty",
            "5,6",
            "--adversary",
            "constant",
            "--seed",
            "3",
            "--trace",
        ]))
        .unwrap();
        assert!(report.contains("converged: true"), "{report}");
        assert!(report.contains("validity: ok"));
        assert!(report.contains("round  U[t]"));
    }

    #[test]
    fn simulate_validates_inputs() {
        let edge_list = run(&argv(&["generate", "complete", "4"])).unwrap();
        let path = write_graph("simk4", &edge_list);
        // Faulty node out of range.
        assert!(run(&argv(&["simulate", &path, "--f", "1", "--faulty", "9"])).is_err());
        // Wrong input count.
        assert!(run(&argv(&[
            "simulate", &path, "--f", "1", "--faulty", "3", "--inputs", "1,2"
        ]))
        .is_err());
        // Unknown adversary / rule.
        assert!(run(&argv(&[
            "simulate",
            &path,
            "--f",
            "1",
            "--faulty",
            "3",
            "--adversary",
            "nope"
        ]))
        .is_err());
        assert!(run(&argv(&[
            "simulate", &path, "--f", "1", "--faulty", "3", "--rule", "nope"
        ]))
        .is_err());
    }

    #[test]
    fn simulate_mean_rule_shows_hijack() {
        let edge_list = run(&argv(&["generate", "complete", "7"])).unwrap();
        let path = write_graph("simk7mean", &edge_list);
        let report = run(&argv(&[
            "simulate",
            &path,
            "--f",
            "2",
            "--faulty",
            "5,6",
            "--adversary",
            "constant",
            "--rule",
            "mean",
        ]))
        .unwrap();
        assert!(report.contains("validity: VIOLATED"), "{report}");
    }

    #[test]
    fn robustness_reports() {
        let edge_list = run(&argv(&["generate", "complete", "6"])).unwrap();
        let path = write_graph("robk6", &edge_list);
        let out = run(&argv(&["robustness", &path])).unwrap();
        assert!(out.contains("max r-robustness: 3"));
        let out = run(&argv(&["robustness", &path, "--r", "2", "--s", "1"])).unwrap();
        assert!(out.contains("(2, 1)-robust: true"));
    }

    #[test]
    fn alpha_reports_bounds() {
        let edge_list = run(&argv(&["generate", "complete", "7"])).unwrap();
        let path = write_graph("alphak7", &edge_list);
        let out = run(&argv(&["alpha", &path, "--f", "2"])).unwrap();
        assert!(out.contains("alpha = 0.333333"));
        assert!(out.contains("Lemma 5 bound"));
    }

    #[test]
    fn dot_renders_with_witness_colors() {
        let edge_list = run(&argv(&["generate", "chord", "7", "5"])).unwrap();
        let path = write_graph("dotchord", &edge_list);
        let plain = run(&argv(&["dot", &path])).unwrap();
        assert!(plain.starts_with("digraph"));
        assert!(!plain.contains("lightblue"));
        let colored = run(&argv(&["dot", &path, "--f", "2"])).unwrap();
        assert!(colored.contains("lightblue"));
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = run(&argv(&["check", "/nonexistent/file.txt", "--f", "1"])).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    /// A count line past the daemon's node cap is refused from the count
    /// line alone: 4·10⁹ nodes would have `Digraph::new` size exabytes of
    /// adjacency bits.
    #[test]
    fn graph_files_past_the_node_cap_are_refused() {
        for count in [4_000_000_000, job::MAX_NODES + 1] {
            let path = write_graph(&format!("count-{count}"), &format!("{count}\n0 1\n"));
            let check = ["check", &path, "--f", "1"];
            let simulate = ["simulate", &path, "--f", "1", "--faulty", "0"];
            for case in [&check[..], &simulate] {
                let err = run(&argv(case)).unwrap_err();
                assert!(matches!(err, CliError::Graph(_)), "{case:?}: {err}");
                assert!(err.to_string().contains(&count.to_string()), "{err}");
            }
        }
    }

    #[test]
    fn repair_patches_failing_graph() {
        let edge_list = run(&argv(&["generate", "chord", "7", "5"])).unwrap();
        let path = write_graph("repairchord", &edge_list);
        let out_path = write_graph("repairchord-out", "");
        let report = run(&argv(&["repair", &path, "--f", "2", "--out", &out_path])).unwrap();
        assert!(report.contains("added"), "{report}");
        assert!(report.contains("condition now satisfied"));
        // The written graph checks clean.
        let verify = run(&argv(&["check", &out_path, "--f", "2"])).unwrap();
        assert!(verify.contains("satisfied"));
    }

    #[test]
    fn repair_noop_on_satisfying_graph() {
        let edge_list = run(&argv(&["generate", "core-network", "7", "2"])).unwrap();
        let path = write_graph("repaircore", &edge_list);
        let report = run(&argv(&["repair", &path, "--f", "2"])).unwrap();
        assert!(report.contains("no edges needed"));
    }

    #[test]
    fn record_then_replay_roundtrip() {
        let edge_list = run(&argv(&["generate", "complete", "7"])).unwrap();
        let gpath = write_graph("reck7", &edge_list);
        let tpath = write_graph("reck7-transcript", "");
        let rec = run(&argv(&[
            "record",
            &gpath,
            "--f",
            "2",
            "--faulty",
            "5,6",
            "--rounds",
            "15",
            "--adversary",
            "constant",
            "--out",
            &tpath,
        ]))
        .unwrap();
        assert!(rec.contains("recorded 15 rounds"), "{rec}");
        let rep = run(&argv(&[
            "replay",
            &gpath,
            "--f",
            "2",
            "--transcript",
            &tpath,
        ]))
        .unwrap();
        assert!(rep.contains("replay VERIFIED"), "{rep}");
    }

    #[test]
    fn replay_detects_tampering() {
        let edge_list = run(&argv(&["generate", "complete", "7"])).unwrap();
        let gpath = write_graph("tampk7", &edge_list);
        let tpath = write_graph("tampk7-transcript", "");
        run(&argv(&[
            "record",
            &gpath,
            "--f",
            "2",
            "--faulty",
            "5,6",
            "--rounds",
            "10",
            "--adversary",
            "extremes",
            "--out",
            &tpath,
        ]))
        .unwrap();
        // Corrupt one recorded state.
        let text = std::fs::read_to_string(&tpath).unwrap();
        let tampered = text.replacen("states ", "states 99999 ", 1);
        // Only tamper if the replacement changed a states line arity; write
        // a cleanly corrupted version by perturbing the first msg value.
        let tampered = if tampered == text {
            text.replacen("msg 5 0 ", "msg 5 0 123456789", 1)
        } else {
            tampered
        };
        std::fs::write(&tpath, tampered).unwrap();
        let rep = run(&argv(&[
            "replay",
            &gpath,
            "--f",
            "2",
            "--transcript",
            &tpath,
        ]))
        .unwrap();
        assert!(rep.contains("replay FAILED"), "{rep}");
    }

    #[test]
    fn record_without_out_prints_transcript() {
        let edge_list = run(&argv(&["generate", "complete", "4"])).unwrap();
        let gpath = write_graph("reck4", &edge_list);
        let out = run(&argv(&[
            "record", &gpath, "--f", "1", "--faulty", "3", "--rounds", "3",
        ]))
        .unwrap();
        assert!(out.starts_with("# iabc transcript"));
        assert!(out.contains("round 3"));
    }

    #[test]
    fn generate_new_families() {
        let circ = run(&argv(&["generate", "circulant", "7", "1,2,3,4,5"])).unwrap();
        let chord = run(&argv(&["generate", "chord", "7", "5"])).unwrap();
        assert_eq!(circ, chord, "circulant(1..=5) must equal chord(7,5)");
        for cmd in [
            vec!["generate", "de-bruijn", "2", "3"],
            vec!["generate", "small-world", "12", "2", "0.3", "7"],
            vec!["generate", "scale-free", "12", "3", "7"],
            vec!["generate", "tournament", "6", "7"],
            vec!["generate", "tree", "2", "2"],
        ] {
            let out = run(&argv(&cmd)).unwrap();
            assert!(out.lines().count() > 1, "{cmd:?} produced {out}");
        }
    }

    #[test]
    fn profile_reports_connectivity() {
        let edge_list = run(&argv(&["generate", "hypercube", "3"])).unwrap();
        let path = write_graph("prof-cube", &edge_list);
        let out = run(&argv(&["profile", &path])).unwrap();
        assert!(out.contains("vertex connectivity 3"), "{out}");
        assert!(out.contains("diameter 3"), "{out}");
        assert!(out.contains("reciprocity 1.000"), "{out}");
        // The §6.2 punchline in one line: connectivity 3 but capacity f = 0.
        assert!(out.contains("tolerates up to f = 0"), "{out}");
    }

    #[test]
    fn profile_reports_capacity_for_core_network() {
        let edge_list = run(&argv(&["generate", "core-network", "7", "2"])).unwrap();
        let path = write_graph("prof-core", &edge_list);
        let out = run(&argv(&["profile", &path])).unwrap();
        assert!(out.contains("tolerates up to f = 2"), "{out}");
    }

    #[test]
    fn minimal_probe_on_k4() {
        let edge_list = run(&argv(&["generate", "complete", "4"])).unwrap();
        let path = write_graph("min-k4", &edge_list);
        let out = run(&argv(&["minimal", &path, "--f", "1"])).unwrap();
        assert!(out.contains("critical directed edges: 12/12"), "{out}");
        assert!(out.contains("already edge-minimal"), "{out}");
    }

    #[test]
    fn minimal_on_violating_graph_is_moot() {
        let edge_list = run(&argv(&["generate", "chord", "7", "5"])).unwrap();
        let path = write_graph("min-chord", &edge_list);
        let out = run(&argv(&["minimal", &path, "--f", "2"])).unwrap();
        assert!(out.contains("violates Theorem 1"), "{out}");
    }

    #[test]
    fn construct_emits_satisfying_graph() {
        let out = run(&argv(&["construct", "9", "--f", "1", "--seed", "3"])).unwrap();
        let path = write_graph("constructed", &out);
        let report = run(&argv(&["check", &path, "--f", "1"])).unwrap();
        assert!(report.contains("condition: satisfied"), "{report}");
        // Attachment variants parse.
        for mode in ["uniform", "preferential", "lowest"] {
            run(&argv(&["construct", "8", "--f", "1", "--attachment", mode])).unwrap();
        }
        let err = run(&argv(&["construct", "3", "--f", "1"])).unwrap_err();
        assert!(err.to_string().contains("3f + 1"), "{err}");
    }

    #[test]
    fn baseline_faceoff_runs_all_rules() {
        let edge_list = run(&argv(&["generate", "complete", "7"])).unwrap();
        let path = write_graph("base-k7", &edge_list);
        let out = run(&argv(&[
            "baseline",
            &path,
            "--f",
            "2",
            "--faulty",
            "5,6",
            "--adversary",
            "polarizing",
        ]))
        .unwrap();
        for rule in [
            "trimmed-mean",
            "dolev-midpoint",
            "dolev-select-mean",
            "w-msr",
        ] {
            assert!(out.contains(rule), "missing {rule} in {out}");
        }
        assert!(out.contains("true"), "{out}");
    }

    #[test]
    fn check_explain_flag_details_the_witness() {
        let edge_list = run(&argv(&["generate", "chord", "7", "5"])).unwrap();
        let path = write_graph("explain-chord", &edge_list);
        let out = run(&argv(&["check", &path, "--f", "2", "--explain"])).unwrap();
        assert!(out.contains("Violating partition"), "{out}");
        assert!(out.contains("Theorem 1 proof"), "{out}");
        // Without the flag, the prose is absent.
        let short = run(&argv(&["check", &path, "--f", "2"])).unwrap();
        assert!(!short.contains("Violating partition"));
    }

    #[test]
    fn simulate_with_baseline_rules_and_new_adversaries() {
        let edge_list = run(&argv(&["generate", "complete", "7"])).unwrap();
        let path = write_graph("sim-wmsr", &edge_list);
        let out = run(&argv(&[
            "simulate",
            &path,
            "--f",
            "2",
            "--faulty",
            "5,6",
            "--rule",
            "w-msr",
            "--adversary",
            "echo",
        ]))
        .unwrap();
        assert!(out.contains("rule = w-msr"), "{out}");
        assert!(out.contains("converged: true"), "{out}");
    }

    #[test]
    fn perf_writes_well_formed_hotpath_json() {
        let _serial = PERF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let out_path = std::env::temp_dir().join("iabc-cli-test-BENCH_hotpath.json");
        let out_path = out_path.to_string_lossy().into_owned();
        // --steps 1 keeps the smoke test fast; the quick grid still covers
        // all three topology families at n in {100, 1000}.
        let report = run(&argv(&[
            "perf", "--quick", "--steps", "1", "--out", &out_path,
        ]))
        .unwrap();
        assert!(report.contains("speedup"), "{report}");
        assert!(report.contains("complete/n1000"), "{report}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        assert!(json.contains("\"bench\": \"hotpath\""), "{json}");
        assert!(json.contains("\"mode\": \"quick\""), "{json}");
        assert!(json.contains("\"compiled_steps_per_sec\""), "{json}");
        // 6 grid entries + parallel, pool, deploy, deploy_scale,
        // serve_cache, serve_concurrent, serve_compaction, fastmath,
        // replica_batch, and batched_sweep datapoints.
        assert_eq!(json.matches("\"topology\"").count(), 16, "{json}");
        assert!(json.contains("\"parallel\""), "{json}");
        assert!(json.contains("\"serial_steps_per_sec\""), "{json}");
        assert!(json.contains("\"pool\""), "{json}");
        assert!(json.contains("\"pooled_steps_per_sec\""), "{json}");
        assert!(json.contains("\"respawn_steps_per_sec\""), "{json}");
        assert!(json.contains("\"deploy\""), "{json}");
        assert!(json.contains("\"threaded_steps_per_sec\""), "{json}");
        assert!(json.contains("\"deploy_scale\""), "{json}");
        assert!(json.contains("\"multiplexed_steps_per_sec\""), "{json}");
        assert!(json.contains("\"serve_cache\""), "{json}");
        assert!(json.contains("\"cold_jobs_per_sec\""), "{json}");
        assert!(json.contains("\"warm_hits_per_sec\""), "{json}");
        assert!(json.contains("\"serve_concurrent\""), "{json}");
        assert!(json.contains("\"concurrent_hits_per_sec\""), "{json}");
        assert!(json.contains("\"serve_compaction\""), "{json}");
        assert!(json.contains("\"compaction_ratio\""), "{json}");
        assert!(json.contains("\"fastmath\""), "{json}");
        assert!(json.contains("\"fast_updates_per_sec\""), "{json}");
        assert!(json.contains("\"replica_batch\""), "{json}");
        assert!(json.contains("\"batched_replica_steps_per_sec\""), "{json}");
        assert!(json.contains("\"batched_sweep\""), "{json}");
        assert!(json.contains("\"batched_cells_per_sec\""), "{json}");
        // The scale line must stay check-exempt via the explicit marker.
        let scale_line = json
            .lines()
            .find(|l| l.contains("\"deploy_scale\""))
            .unwrap();
        assert!(
            scale_line.contains("\"informational\": true",),
            "{scale_line}"
        );
        // The enforced fastmath line measures the columnar merge-network
        // path.
        let columnar_line = json.lines().find(|l| l.contains("\"fastmath\":")).unwrap();
        assert!(
            columnar_line.contains("\"lanes\": 32") && columnar_line.contains("\"n\": 64"),
            "{columnar_line}"
        );
        assert!(
            !columnar_line.contains("\"informational\""),
            "{columnar_line}"
        );
        // On a host with fewer cores than --jobs (this CI container has
        // one), the parallel line carries the informational marker; on a
        // big host it must not.
        let parallel_line = json.lines().find(|l| l.contains("\"parallel\":")).unwrap();
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(
            parallel_line.contains("\"informational\": true"),
            cores < 4,
            "{parallel_line}"
        );
        // Structurally sound: balanced braces/brackets, no trailing comma.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"), "trailing comma: {json}");
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn sweep_experiments_store_reports_misses_then_hits() {
        let dir = std::env::temp_dir().join("iabc-cli-test-sweep-store");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_string_lossy().into_owned();
        let cold = run(&argv(&[
            "sweep",
            "experiments",
            "--ids",
            "E1",
            "--store",
            &dir_s,
        ]))
        .unwrap();
        assert!(
            cold.contains("store: 0 cell hit(s), 1 miss(es), 0 evicted"),
            "{cold}"
        );
        let warm = run(&argv(&[
            "sweep",
            "experiments",
            "--ids",
            "E1",
            "--store",
            &dir_s,
        ]))
        .unwrap();
        assert!(
            warm.contains("store: 1 cell hit(s), 0 miss(es), 0 evicted"),
            "{warm}"
        );
        // The memoized table is identical to the direct one.
        let direct = run(&argv(&["sweep", "experiments", "--ids", "E1"])).unwrap();
        let table_of = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("id"))
                .take_while(|l| !l.starts_with("store:") && !l.starts_with("all experiments"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(table_of(&warm), table_of(&direct));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn submit_and_query_reject_bad_invocations() {
        let err = run(&argv(&["submit", "sweep"])).unwrap_err();
        assert!(err.to_string().contains("--addr"), "{err}");
        let err = run(&argv(&["submit", "frob", "--addr", "127.0.0.1:1"])).unwrap_err();
        assert!(err.to_string().contains("unknown job kind"), "{err}");
        let err = run(&argv(&["query", "--addr", "127.0.0.1:1", "--key", "xyz"])).unwrap_err();
        assert!(err.to_string().contains("hex"), "{err}");
        // A dead address is a run error, not a hang.
        let err = run(&argv(&[
            "submit",
            "sweep",
            "--ids",
            "E1",
            "--addr",
            "127.0.0.1:1",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("connect"), "{err}");
    }

    #[test]
    fn serve_requires_a_store() {
        let err = run(&argv(&["serve"])).unwrap_err();
        assert!(err.to_string().contains("--store"), "{err}");
    }

    #[test]
    fn perf_rejects_help_typos_and_strays_before_measuring() {
        let out = std::env::temp_dir().join("iabc-cli-test-perf-never-written.json");
        let out = out.to_string_lossy().into_owned();
        std::fs::remove_file(&out).ok();
        for extra in [&["--help"][..], &["-h"], &["--quick", "-h"]] {
            let mut args = vec!["perf", "--out", &out];
            args.extend_from_slice(extra);
            let usage = run(&argv(&args)).unwrap();
            assert!(usage.contains("perf [--quick]"), "{usage}");
        }
        for extra in [
            &["--quik"][..],
            &["extra"],
            &["--check", "BENCH_hotpath.json"],
        ] {
            let mut args = vec!["perf", "--out", &out];
            args.extend_from_slice(extra);
            let err = run(&argv(&args)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{extra:?}: {err}");
        }
        assert!(!std::path::Path::new(&out).exists(), "perf wrote {out}");
    }

    #[test]
    fn perf_check_passes_against_own_baseline_and_catches_regressions() {
        let _serial = PERF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let base = std::env::temp_dir().join("iabc-cli-test-perf-baseline.json");
        let base = base.to_string_lossy().into_owned();
        let out = std::env::temp_dir().join("iabc-cli-test-perf-fresh.json");
        let out = out.to_string_lossy().into_owned();
        // Emit a baseline, then re-run with --check against it: two runs
        // of the same binary on the same machine sit well inside the
        // default tolerance.
        run(&argv(&["perf", "--quick", "--steps", "1", "--out", &base])).unwrap();
        let report = run(&argv(&[
            "perf",
            "--quick",
            "--steps",
            "1",
            "--check",
            "--baseline",
            &base,
            "--out",
            &out,
            "--tolerance",
            "0.9",
        ]))
        .unwrap();
        assert!(report.contains("perf check PASSED"), "{report}");
        // Doctor the baseline to claim an impossible 1000x speedup on a
        // datapoint the check always enforces: the check must fail and
        // name it. (The file's first speedup belongs to the "parallel"
        // line, which self-demotes to informational on hosts with fewer
        // cores than --jobs — doctoring it would be silently skipped.)
        let doctored = std::fs::read_to_string(&base)
            .unwrap()
            .lines()
            .map(|line| {
                if line.contains("\"batched_cells_per_sec\"") {
                    line.replacen("\"speedup\":", "\"speedup\": 1000.0, \"old\":", 1)
                } else {
                    line.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(&base, doctored).unwrap();
        let err = run(&argv(&[
            "perf",
            "--quick",
            "--steps",
            "1",
            "--check",
            "--baseline",
            &base,
            "--out",
            &out,
            "--tolerance",
            "0.9",
        ]))
        .unwrap_err();
        assert!(
            err.to_string().contains("perf regression"),
            "doctored baseline must fail the check: {err}"
        );
        // A missing baseline is an I/O error, not a silent pass.
        assert!(run(&argv(&[
            "perf",
            "--quick",
            "--check",
            "--baseline",
            "/nonexistent/bench.json"
        ]))
        .is_err());
        std::fs::remove_file(&base).ok();
        std::fs::remove_file(&out).ok();
    }
}
