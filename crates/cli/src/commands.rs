//! The `iabc` subcommand implementations.

use iabc_analysis::{batched, sweep};
use iabc_baselines::{DolevMidpoint, DolevSelectMean, Wmsr};
use iabc_core::fault_model::{check_model, AdversaryStructure, FaultModel};
use iabc_core::quantized::{QuantizedTrimmedMean, Rounding};
use iabc_core::rules::{Mean, TrimmedMean, TrimmedMidpoint, UpdateRule};
use iabc_core::{alpha, construction, local_fault, minimality, robustness, theorem1, Threshold};
use iabc_graph::dot::{to_dot, DotGroup};
use iabc_graph::{generators, metrics, parse, Digraph, NodeSet};
use iabc_sim::adversary::{
    Adversary, ConformingAdversary, ConstantAdversary, CrashAdversary, EchoAdversary,
    ExtremesAdversary, FlipFlopAdversary, NaNAdversary, PolarizingAdversary, PullAdversary,
    RandomAdversary,
};
use iabc_sim::async_engine::{
    ImmediateScheduler, MaxDelayScheduler, RandomScheduler, Scheduler, TargetedScheduler,
};
use iabc_sim::{RunConfig, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::args::{CliError, ParsedArgs};

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
    parse::parse_edge_list(&text).map_err(|e| CliError::Graph(e.to_string()))
}

/// `iabc check <file> --f N [--async] [--local] [--structure SPEC] [--parallel T]`
pub fn check(args: &ParsedArgs) -> Result<String, CliError> {
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
    let report = match args.optional::<usize>("parallel")? {
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

/// Resolves an adversary name into an infallible factory (adversaries are
/// stateful, so harnesses that run several contenders need a fresh one per
/// run). Unknown names error here, once — the returned closure cannot fail.
fn adversary_factory(
    name: &str,
    seed: u64,
) -> Result<Box<dyn Fn() -> Box<dyn Adversary>>, CliError> {
    Ok(match name {
        "conforming" => Box::new(|| Box::new(ConformingAdversary::new())),
        "constant" => Box::new(|| Box::new(ConstantAdversary::new(1e9))),
        "random" => Box::new(move || Box::new(RandomAdversary::new(-1e6, 1e6, seed))),
        "extremes" => Box::new(|| Box::new(ExtremesAdversary::new(1e6))),
        "pull-low" => Box::new(|| Box::new(PullAdversary::new(false))),
        "pull-high" => Box::new(|| Box::new(PullAdversary::new(true))),
        "crash" => Box::new(|| Box::new(CrashAdversary::new(2))),
        "flip-flop" => Box::new(|| Box::new(FlipFlopAdversary::new(1e6))),
        "polarizing" => Box::new(|| Box::new(PolarizingAdversary::new())),
        "echo" => Box::new(|| Box::new(EchoAdversary::new())),
        "nan" => Box::new(|| Box::new(NaNAdversary::new())),
        other => {
            return Err(CliError::Usage(format!(
                "unknown adversary {other:?} (try conforming, constant, random, extremes, \
                 pull-low, pull-high, crash, flip-flop, polarizing, echo, nan)"
            )))
        }
    })
}

fn adversary_by_name(name: &str, seed: u64) -> Result<Box<dyn Adversary>, CliError> {
    adversary_factory(name, seed).map(|make| make())
}

fn rule_by_name(name: &str, f: usize, args: &ParsedArgs) -> Result<Box<dyn UpdateRule>, CliError> {
    Ok(match name {
        "trimmed-mean" => Box::new(TrimmedMean::new(f)),
        "mean" => Box::new(Mean::new()),
        "midpoint" => Box::new(TrimmedMidpoint::new(f)),
        "w-msr" => Box::new(Wmsr::new(f)),
        "dolev-midpoint" => Box::new(DolevMidpoint::new(f)),
        "dolev-select-mean" => Box::new(DolevSelectMean::new(f)),
        "quantized" => {
            let quantum: f64 = args.required("quantum")?;
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
            Box::new(
                QuantizedTrimmedMean::new(f, quantum, rounding)
                    .map_err(|e| CliError::Usage(e.to_string()))?,
            )
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown rule {other:?} (try trimmed-mean, mean, midpoint, w-msr, \
                 dolev-midpoint, dolev-select-mean, quantized)"
            )))
        }
    })
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

fn parse_inputs(args: &ParsedArgs, n: usize) -> Result<Vec<f64>, CliError> {
    let given: Vec<f64> = args.list("inputs")?;
    if given.is_empty() {
        let seed: u64 = args.optional("seed")?.unwrap_or(0);
        let mut rng = StdRng::seed_from_u64(seed);
        Ok((0..n).map(|_| rng.random_range(0.0..100.0)).collect())
    } else if given.len() != n {
        Err(CliError::Usage(format!(
            "--inputs has {} values for {n} nodes",
            given.len()
        )))
    } else {
        Ok(given)
    }
}

/// `iabc simulate <file> --structure SPEC --faulty A,B ...`: run the
/// structure-aware rule ([`ModelTrimmedMean`]) in the identity-aware
/// engine under an explicit adversary structure.
fn simulate_with_structure(
    args: &ParsedArgs,
    g: &Digraph,
    spec: &str,
    faulty: &[usize],
) -> Result<String, CliError> {
    use iabc_core::fault_model::ModelTrimmedMean;

    let n = g.node_count();
    let structure = parse_structure(spec, n)?;
    let fault_set = NodeSet::from_indices(n, faulty.iter().copied());
    if !structure.admits(&fault_set) {
        return Err(CliError::Usage(format!(
            "--faulty {faulty:?} is not a feasible fault set of the structure {structure}"
        )));
    }
    let model = FaultModel::Structure(structure);
    let inputs = parse_inputs(args, n)?;
    let adversary = adversary_by_name(
        args.flag("adversary").unwrap_or("extremes"),
        args.optional("seed")?.unwrap_or(0),
    )?;
    let rule = ModelTrimmedMean::new(model.clone());
    let config = RunConfig {
        record_states: true,
        epsilon: args.optional("eps")?.unwrap_or(1e-6),
        max_rounds: args.optional("max-rounds")?.unwrap_or(10_000),
    };
    let mut sim = Scenario::on(g)
        .inputs(&inputs)
        .faults(fault_set.clone())
        .adversary(adversary)
        .model_aware(&rule)
        .map_err(|e| CliError::Run(e.to_string()))?;
    let out = sim.run(&config).map_err(|e| CliError::Run(e.to_string()))?;
    let mut report =
        format!("{g}, model = {model}, rule = model-trimmed-mean, faulty = {faulty:?}\n");
    report.push_str(&format!(
        "converged: {} in {} rounds; final range {:.3e}; validity: {}\n",
        out.converged,
        out.rounds,
        out.final_range,
        if out.validity.is_valid() {
            "ok"
        } else {
            "VIOLATED"
        }
    ));
    if let Some(last) = out.trace.last() {
        if let Some((i, v)) = last
            .states
            .iter()
            .enumerate()
            .find(|(i, _)| !fault_set.contains(iabc_graph::NodeId::new(*i)))
        {
            report.push_str(&format!("agreed value (node {i}): {v:.6}\n"));
        }
    }
    Ok(report)
}

/// Resolves `--scheduler NAME` for the delay-bounded engine. `random`
/// draws from `--sched-seed` (default 0); `targeted` maximally delays the
/// receivers in `--victims A,B,..`.
fn scheduler_by_name(
    name: &str,
    args: &ParsedArgs,
    n: usize,
) -> Result<Box<dyn Scheduler>, CliError> {
    Ok(match name {
        "immediate" => Box::new(ImmediateScheduler),
        "max" => Box::new(MaxDelayScheduler),
        "random" => Box::new(RandomScheduler::new(
            args.optional("sched-seed")?.unwrap_or(0),
        )),
        "targeted" => {
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
            Box::new(TargetedScheduler::new(NodeSet::from_indices(n, victims)))
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown scheduler {other:?} (try immediate, max, random, targeted)"
            )))
        }
    })
}

/// `iabc simulate <file> --f N --faulty A,B --delay-bound B
/// [--scheduler NAME] [--jobs N] ...`: run the §7 partially-asynchronous
/// engine. `--jobs` fans each tick's update phase across the persistent
/// worker pool (the send/deliver phases stay serial so the scheduler's
/// RNG stream is identical for any job count) — results are bit-for-bit
/// identical to `--jobs 1`.
fn simulate_delay_bounded(
    args: &ParsedArgs,
    g: &Digraph,
    f: usize,
    faulty: &[usize],
    delay_bound: usize,
    jobs: usize,
) -> Result<String, CliError> {
    if delay_bound == 0 {
        return Err(CliError::Usage("--delay-bound must be >= 1".into()));
    }
    let n = g.node_count();
    let fault_set = NodeSet::from_indices(n, faulty.iter().copied());
    let inputs = parse_inputs(args, n)?;
    let adversary = adversary_by_name(
        args.flag("adversary").unwrap_or("extremes"),
        args.optional("seed")?.unwrap_or(0),
    )?;
    let rule = rule_by_name(args.flag("rule").unwrap_or("trimmed-mean"), f, args)?;
    let scheduler_name = args.flag("scheduler").unwrap_or("immediate").to_string();
    let scheduler = scheduler_by_name(&scheduler_name, args, n)?;
    let config = RunConfig {
        record_states: true,
        epsilon: args.optional("eps")?.unwrap_or(1e-6),
        max_rounds: args.optional("max-rounds")?.unwrap_or(10_000),
    };
    let mut sim = Scenario::on(g)
        .inputs(&inputs)
        .faults(fault_set.clone())
        .rule(rule.as_ref())
        .adversary(adversary)
        .parallel(jobs)
        .delay_bounded(scheduler, delay_bound)
        .map_err(|e| CliError::Run(e.to_string()))?;
    let jobs_used = sim.jobs();
    let out = sim.run(&config).map_err(|e| CliError::Run(e.to_string()))?;
    let mut report = format!(
        "{g}, f = {f}, rule = {}, faulty = {faulty:?}, delay bound B = {delay_bound}, \
         scheduler = {scheduler_name}, jobs = {jobs_used}\n",
        rule.name(),
    );
    report.push_str(&format!(
        "converged: {} in {} ticks; final range {:.3e}; per-round validity audit: {}\n",
        out.converged,
        out.rounds,
        out.final_range,
        // With stale deliveries U[t] may transiently exceed U[t-1]; only
        // containment in the initial hull is guaranteed by the model, so a
        // per-round "violated" here is a staleness artifact, not an attack.
        if out.validity.is_valid() {
            "ok"
        } else {
            "violated (per-round audit; async model only guarantees the initial hull)"
        }
    ));
    if let Some(last) = out.trace.last() {
        if let Some((i, v)) = last
            .states
            .iter()
            .enumerate()
            .find(|(i, _)| !fault_set.contains(iabc_graph::NodeId::new(*i)))
        {
            report.push_str(&format!("agreed value (node {i}): {v:.6}\n"));
        }
    }
    if args.has_flag("trace") {
        report.push_str("tick   U[t]        mu[t]       range\n");
        for r in out.trace.records() {
            report.push_str(&format!(
                "{:<6} {:<11.5} {:<11.5} {:.3e}\n",
                r.round,
                r.max,
                r.min,
                r.range()
            ));
        }
    }
    Ok(report)
}

/// `iabc simulate <file> --f N --faulty A,B [--adversary NAME] [--inputs ..]
/// [--seed S] [--eps E] [--max-rounds R] [--rule NAME] [--jobs N] [--trace]`;
/// `iabc simulate <file> --structure SPEC --faulty A,B ...` for the
/// structure-aware engine; `--delay-bound B [--scheduler NAME]` for the §7
/// delay-bounded engine (`--jobs` reaches its update phase too).
pub fn simulate(args: &ParsedArgs) -> Result<String, CliError> {
    let g = load_graph(args)?;
    let n = g.node_count();
    let faulty: Vec<usize> = args.list("faulty")?;
    if faulty.iter().any(|&v| v >= n) {
        return Err(CliError::Usage(format!(
            "--faulty contains a node >= n = {n}"
        )));
    }
    if let Some(spec) = args.flag("structure") {
        return simulate_with_structure(args, &g, spec, &faulty);
    }
    let f: usize = args.required("f")?;
    if let Some(delay_bound) = args.optional::<usize>("delay-bound")? {
        let jobs: usize = args.optional("jobs")?.unwrap_or(1);
        return simulate_delay_bounded(args, &g, f, &faulty, delay_bound, jobs);
    }
    let fault_set = NodeSet::from_indices(n, faulty.iter().copied());
    let inputs = parse_inputs(args, n)?;
    let adversary = adversary_by_name(
        args.flag("adversary").unwrap_or("extremes"),
        args.optional("seed")?.unwrap_or(0),
    )?;
    let rule = rule_by_name(args.flag("rule").unwrap_or("trimmed-mean"), f, args)?;
    let config = RunConfig {
        record_states: true,
        epsilon: args.optional("eps")?.unwrap_or(1e-6),
        max_rounds: args.optional("max-rounds")?.unwrap_or(10_000),
    };
    let jobs: usize = args.optional("jobs")?.unwrap_or(1);
    let mut sim = Scenario::on(&g)
        .inputs(&inputs)
        .faults(fault_set)
        .rule(rule.as_ref())
        .adversary(adversary)
        .parallel(jobs)
        .synchronous()
        .map_err(|e| CliError::Run(e.to_string()))?;
    let out = sim.run(&config).map_err(|e| CliError::Run(e.to_string()))?;

    let mut report = format!(
        "{g}, f = {f}, rule = {}, faulty = {:?}\n",
        rule.name(),
        faulty
    );
    report.push_str(&format!(
        "converged: {} in {} rounds; final range {:.3e}; validity: {}\n",
        out.converged,
        out.rounds,
        out.final_range,
        if out.validity.is_valid() {
            "ok"
        } else {
            "VIOLATED"
        }
    ));
    if let Some(last) = out.trace.last() {
        if let Some((i, v)) = last
            .states
            .iter()
            .enumerate()
            .find(|(i, _)| !sim.fault_set().contains(iabc_graph::NodeId::new(*i)))
        {
            report.push_str(&format!("agreed value (node {i}): {v:.6}\n"));
        }
    }
    if args.has_flag("trace") {
        report.push_str("round  U[t]        mu[t]       range\n");
        for r in out.trace.records() {
            report.push_str(&format!(
                "{:<6} {:<11.5} {:<11.5} {:.3e}\n",
                r.round,
                r.max,
                r.min,
                r.range()
            ));
        }
    }
    Ok(report)
}

/// `iabc robustness <file> [--r R --s S]`
pub fn robustness_cmd(args: &ParsedArgs) -> Result<String, CliError> {
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
    let g = load_graph(args)?;
    let n = g.node_count();
    let f: usize = args.required("f")?;
    let faulty: Vec<usize> = args.list("faulty")?;
    if faulty.iter().any(|&v| v >= n) {
        return Err(CliError::Usage(format!(
            "--faulty contains a node >= n = {n}"
        )));
    }
    let fault_set = NodeSet::from_indices(n, faulty.iter().copied());
    let seed: u64 = args.optional("seed")?.unwrap_or(0);
    let adversary_name = args.flag("adversary").unwrap_or("extremes").to_string();
    // Resolve the name once; the factory itself cannot fail afterwards.
    let make_adversary = adversary_factory(&adversary_name, seed)?;
    let inputs: Vec<f64> = {
        let given: Vec<f64> = args.list("inputs")?;
        if given.is_empty() {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n).map(|_| rng.random_range(0.0..100.0)).collect()
        } else if given.len() != n {
            return Err(CliError::Usage(format!(
                "--inputs has {} values for {n} nodes",
                given.len()
            )));
        } else {
            given
        }
    };
    let config = RunConfig {
        record_states: false,
        epsilon: args.optional("eps")?.unwrap_or(1e-6),
        max_rounds: args.optional("max-rounds")?.unwrap_or(20_000),
    };
    let faceoff = iabc_baselines::comparison::Faceoff {
        graph: &g,
        inputs: &inputs,
        fault_set,
        adversary_factory: &*make_adversary,
        config,
    };
    let a1 = TrimmedMean::new(f);
    let mid = DolevMidpoint::new(f);
    let sel = DolevSelectMean::new(f);
    let wmsr = Wmsr::new(f);
    let rules: Vec<&dyn UpdateRule> = vec![&a1, &mid, &sel, &wmsr];

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
    let g = load_graph(args)?;
    let n = g.node_count();
    let f: usize = args.required("f")?;
    let rounds: usize = args.optional("rounds")?.unwrap_or(50);
    let faulty: Vec<usize> = args.list("faulty")?;
    if faulty.iter().any(|&v| v >= n) {
        return Err(CliError::Usage(format!(
            "--faulty contains a node >= n = {n}"
        )));
    }
    let fault_set = NodeSet::from_indices(n, faulty.iter().copied());
    let inputs: Vec<f64> = {
        let given: Vec<f64> = args.list("inputs")?;
        if given.is_empty() {
            let seed: u64 = args.optional("seed")?.unwrap_or(0);
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n).map(|_| rng.random_range(0.0..100.0)).collect()
        } else if given.len() != n {
            return Err(CliError::Usage(format!(
                "--inputs has {} values for {n} nodes",
                given.len()
            )));
        } else {
            given
        }
    };
    let mut adversary = adversary_by_name(
        args.flag("adversary").unwrap_or("extremes"),
        args.optional("seed")?.unwrap_or(0),
    )?;
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

/// `iabc sweep <experiments|monte-carlo|census> [--parallel] [--jobs N] ...`
///
/// Fans the chosen grid across cores via the `iabc-analysis` sweep runner.
/// Per-cell seeds derive from grid coordinates, so output is bit-identical
/// for any `--jobs` value (and with/without `--parallel`).
pub fn sweep_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    let jobs = sweep_jobs(args)?;
    let batch = args.has_flag("batch");
    let grid = args.positional(0).ok_or_else(|| {
        CliError::Usage("expected a sweep grid: experiments | monte-carlo | census".into())
    })?;
    match grid {
        "experiments" => {
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
                let conv = batched::run_census_conv_sweep(max_n, &fs, replicas, jobs, batch);
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

/// Resolves `--jobs N` / `--parallel` into a worker count (default: serial).
fn sweep_jobs(args: &ParsedArgs) -> Result<usize, CliError> {
    let jobs: Option<usize> = match args.flag("jobs") {
        None => None,
        Some("") => {
            return Err(CliError::Usage(
                "flag --jobs needs a value (0 = all cores)".into(),
            ))
        }
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| CliError::Usage(format!("flag --jobs: cannot parse {raw:?}")))?,
        ),
    };
    Ok(sweep::effective_jobs(jobs, args.has_flag("parallel")))
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

    let n: usize = args.required("nodes")?;
    let mode = args.flag("mode").unwrap_or("multiplexed");
    let jobs: usize = args.optional("jobs")?.unwrap_or(1);
    let f: usize = args.optional("f")?.unwrap_or(1);
    let degree: usize = args.optional("degree")?.unwrap_or((3 * f + 1).max(4));
    let rounds: usize = args.optional("rounds")?.unwrap_or(30);
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
         {} coalesced; store holds {} object(s), {} evicted\n",
        stats.connections,
        stats.job_hits,
        stats.job_misses,
        stats.job_coalesced,
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
        "sweep" => Ok(iabc_serve::JobSpec::Sweep {
            ids: args.list("ids")?,
        }),
        "scenario" => {
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

/// A fresh scratch store directory for one perf datapoint. The name
/// carries the process id and a per-call counter, so two perf runs in one
/// process (e.g. parallel unit tests) never share or delete each other's
/// store.
fn perf_store_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("iabc-perf-{tag}-{}-{call}", std::process::id()))
}

/// `iabc perf [--quick] [--steps S] [--jobs N] [--out FILE]` — measures
/// the compiled synchronous engine's step throughput (rounds/sec) against
/// the retained pre-refactor reference stepper on the
/// [`iabc_bench::hotpath_grid`] workloads, adds a **parallel-vs-serial**
/// datapoint (the same compiled engine at `--jobs N` vs one worker) and a
/// **pool-vs-per-step-spawn** datapoint (the retained executor vs
/// respawning its workers before every step, at small n / large round
/// counts where the spawn cost dominates), a **deploy** datapoint (the
/// runtime's threaded vs multiplexed tiers on the same circulant
/// workload, plus a multiplexed-only scale measurement at an n no
/// threaded deployment could host), a **serve-cache** datapoint (the same
/// scenario batch submitted cold then warm against a scratch result
/// store, asserting the warm payloads are byte-identical), a
/// **serve-concurrent** datapoint (the real daemon over loopback: four
/// hit clients measured while one expensive miss holds the compute
/// permit, concurrent `--max-conn` vs the sequential `--max-conn 1`
/// baseline, all hit payloads asserted byte-identical to the store;
/// plus an informational journal compaction-ratio line), a **fastmath**
/// datapoint (the columnar merge-network sort across 32 lanes vs per-lane
/// exact sorting, with the scalar one-row kernel faceoff kept as an
/// informational line), a **replica-batch** datapoint (R batched SoA
/// replicas vs R dispatched engines), a **batched-sweep** datapoint (a
/// same-topology census slice grouped into one width-32 batch vs per-cell
/// dispatch, results asserted identical), and writes the machine-readable
/// `BENCH_hotpath.json` so the repo accumulates a perf trajectory across
/// commits. The parallel datapoint is demoted to informational when the
/// host has fewer cores than `--jobs` (pure scheduler noise there).
///
/// `iabc perf --check [--baseline FILE] [--tolerance T]` additionally
/// diffs the fresh run against the committed baseline JSON and **fails**
/// (non-zero exit) if any workload's compiled-vs-reference speedup — or
/// the parallel, pool, deploy, serve-cache, or serve-concurrent
/// datapoint's speedup —
/// regressed by more than the noise tolerance (default 0.4, i.e. a 40% drop). Workloads missing
/// from either side (e.g. quick-mode runs checked against a full-mode
/// baseline) are skipped, so CI smoke runs can check against the
/// committed full grid.
pub fn perf_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    use iabc_sim::reference::{ReferenceStepper, ReferenceTrimmedMean};
    use std::time::Instant;

    let quick = args.has_flag("quick");
    let out_path = args.flag("out").unwrap_or("BENCH_hotpath.json").to_string();
    let steps_override = args.optional::<usize>("steps")?;
    let jobs: usize = args.optional("jobs")?.unwrap_or(4);
    let check = args.has_flag("check");
    let baseline_path = args.flag("baseline").unwrap_or("BENCH_hotpath.json");
    let tolerance: f64 = args.optional("tolerance")?.unwrap_or(0.4);
    let baseline = if check {
        let text = std::fs::read_to_string(baseline_path)
            .map_err(|e| CliError::Io(format!("{baseline_path}: {e}")))?;
        Some(parse_bench_json(&text))
    } else {
        None
    };

    let mut report = format!(
        "hotpath throughput ({} grid): compiled engine vs pre-refactor reference\n\
         {:<16} {:>4} {:>6} {:>14} {:>14} {:>8}\n",
        if quick { "quick" } else { "full" },
        "workload",
        "f",
        "steps",
        "compiled/s",
        "reference/s",
        "speedup"
    );
    let mut entries = Vec::new();
    let mut fresh: Vec<BenchEntry> = Vec::new();
    for w in iabc_bench::hotpath_grid(quick) {
        let n = w.graph.node_count();
        let steps = steps_override
            .unwrap_or(if n >= 5000 { 4 } else { 40 })
            .max(1);
        // Same inputs and fault placement as benches/hotpath.rs — both
        // consumers share the iabc_bench helpers so they provably time the
        // same workload.
        let inputs = iabc_bench::hotpath_inputs(n);
        let faults = NodeSet::from_indices(n, iabc_bench::hotpath_fault_nodes(n, w.f));

        let rule = TrimmedMean::new(w.f);
        let mut compiled_sim = iabc_sim::Simulation::new(
            &w.graph,
            &inputs,
            faults.clone(),
            &rule,
            Box::new(ConstantAdversary::new(1e9)),
        )
        .map_err(|e| CliError::Run(e.to_string()))?;
        let time_steps = |step: &mut dyn FnMut() -> Result<(), CliError>| -> Result<f64, CliError> {
            for _ in 0..2 {
                step()?; // warmup
            }
            let start = Instant::now();
            for _ in 0..steps {
                step()?;
            }
            Ok(steps as f64 / start.elapsed().as_secs_f64().max(1e-12))
        };
        let compiled = time_steps(&mut || {
            compiled_sim
                .step()
                .map(|_| ())
                .map_err(|e| CliError::Run(e.to_string()))
        })?;

        let slow_rule = ReferenceTrimmedMean::new(w.f);
        let mut reference_sim = ReferenceStepper::new(
            &w.graph,
            &inputs,
            faults,
            &slow_rule,
            Box::new(ConstantAdversary::new(1e9)),
        )
        .map_err(|e| CliError::Run(e.to_string()))?;
        let reference = time_steps(&mut || {
            reference_sim
                .step()
                .map_err(|e| CliError::Run(e.to_string()))
        })?;

        let speedup = compiled / reference;
        report.push_str(&format!(
            "{:<16} {:>4} {:>6} {:>14.1} {:>14.1} {:>7.2}x\n",
            w.name, w.f, steps, compiled, reference, speedup
        ));
        let topology = w.name.split('/').next().unwrap_or(&w.name).to_string();
        fresh.push(BenchEntry {
            topology: topology.clone(),
            n,
            f: w.f,
            speedup,
        });
        entries.push(format!(
            "    {{\"topology\": \"{}\", \"n\": {}, \"f\": {}, \"steps\": {}, \
             \"compiled_steps_per_sec\": {:.3}, \"reference_steps_per_sec\": {:.3}, \
             \"speedup\": {:.3}}}",
            topology, n, w.f, steps, compiled, reference, speedup
        ));
    }

    // Parallel-vs-serial datapoint: the acceptance workload is the dense
    // synchronous engine at n = 10^4 (complete, f = n/30); quick mode
    // scales it down to n = 10^3 for CI smoke runs. Both sides are the
    // SAME compiled engine — only the phase 2 worker count differs — and
    // the trajectories are bit-identical by construction.
    let par_n = if quick { 1_000 } else { 10_000 };
    let par_f = (par_n - 1) / 30;
    let par_steps = steps_override.unwrap_or(if quick { 10 } else { 3 }).max(1);
    let par_graph = iabc_graph::generators::complete(par_n);
    let par_inputs = iabc_bench::hotpath_inputs(par_n);
    let par_faults = NodeSet::from_indices(par_n, iabc_bench::hotpath_fault_nodes(par_n, par_f));
    let rule = TrimmedMean::new(par_f);
    let time_engine = |engine_jobs: usize| -> Result<f64, CliError> {
        let mut sim = iabc_sim::Simulation::new(
            &par_graph,
            &par_inputs,
            par_faults.clone(),
            &rule,
            Box::new(ConstantAdversary::new(1e9)),
        )
        .map_err(|e| CliError::Run(e.to_string()))?
        .with_jobs(engine_jobs);
        sim.step().map_err(|e| CliError::Run(e.to_string()))?; // warmup
        let start = Instant::now();
        for _ in 0..par_steps {
            sim.step().map_err(|e| CliError::Run(e.to_string()))?;
        }
        Ok(par_steps as f64 / start.elapsed().as_secs_f64().max(1e-12))
    };
    let serial_rate = time_engine(1)?;
    let parallel_rate = time_engine(jobs)?;
    let par_speedup = parallel_rate / serial_rate;
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let par_informational = parallel_speedup_is_informational(host_cores, jobs);
    report.push_str(&format!(
        "parallel: complete/n{par_n} f={par_f} — {serial_rate:.1} steps/s serial vs \
         {parallel_rate:.1} steps/s at --jobs {jobs} ({par_speedup:.2}x){}\n",
        if par_informational {
            format!(" [informational: host has {host_cores} core(s) < --jobs {jobs}]")
        } else {
            String::new()
        }
    ));
    let parallel_json = format!(
        "  \"parallel\": {{\"topology\": \"complete\", \"n\": {par_n}, \"f\": {par_f}, \
         \"steps\": {par_steps}, \"jobs\": {jobs},{} \"serial_steps_per_sec\": {serial_rate:.3}, \
         \"parallel_steps_per_sec\": {parallel_rate:.3}, \"speedup\": {par_speedup:.3}}},",
        if par_informational {
            " \"informational\": true,"
        } else {
            ""
        }
    );

    // Pool-vs-per-step-spawn datapoint: at small n / large round counts
    // the old design's per-step scoped-thread spawn dominated the round
    // arithmetic — exactly the regime the persistent executor exists for.
    // Both sides run the SAME engine at the SAME job count; the "respawn"
    // side replaces the pool before every step (`set_jobs` drops and
    // respawns the workers), reproducing the per-step spawn cost.
    // Trajectories are bit-identical by construction, only wall-clock
    // differs.
    // Small n on purpose: at n = 128 one round is tens of microseconds of
    // arithmetic, so the old per-step spawn cost (3 threads at --jobs 4)
    // dominates — the regime the persistent pool exists for.
    let pool_n = if quick { 64 } else { 128 };
    let pool_f = pool_n / 30;
    // Deliberately NOT governed by --steps: the override exists to shrink
    // the heavy grid for smoke runs, but this datapoint's signal IS the
    // per-step cost amortized over a large round count — at 5–20 steps the
    // ~1 ms timing window would be scheduler-noise-dominated and --check
    // would flake. 300 steps at n = 64 still cost only milliseconds.
    let pool_steps = if quick { 300 } else { 1_000 };
    let pool_graph = iabc_graph::generators::complete(pool_n);
    let pool_inputs = iabc_bench::hotpath_inputs(pool_n);
    let pool_faults =
        NodeSet::from_indices(pool_n, iabc_bench::hotpath_fault_nodes(pool_n, pool_f));
    let pool_rule = TrimmedMean::new(pool_f);
    let mut pooled_sim = iabc_sim::Simulation::new(
        &pool_graph,
        &pool_inputs,
        pool_faults.clone(),
        &pool_rule,
        Box::new(ConstantAdversary::new(1e9)),
    )
    .map_err(|e| CliError::Run(e.to_string()))?
    .with_jobs(jobs);
    pooled_sim
        .step()
        .map_err(|e| CliError::Run(e.to_string()))?; // warmup
    let start = Instant::now();
    for _ in 0..pool_steps {
        pooled_sim
            .step()
            .map_err(|e| CliError::Run(e.to_string()))?;
    }
    let pooled_rate = pool_steps as f64 / start.elapsed().as_secs_f64().max(1e-12);
    let mut respawn_sim = iabc_sim::Simulation::new(
        &pool_graph,
        &pool_inputs,
        pool_faults.clone(),
        &pool_rule,
        Box::new(ConstantAdversary::new(1e9)),
    )
    .map_err(|e| CliError::Run(e.to_string()))?
    .with_jobs(jobs);
    respawn_sim
        .step()
        .map_err(|e| CliError::Run(e.to_string()))?; // warmup
    let start = Instant::now();
    for _ in 0..pool_steps {
        respawn_sim.set_jobs(jobs); // drop + respawn the pool: per-step cost
        respawn_sim
            .step()
            .map_err(|e| CliError::Run(e.to_string()))?;
    }
    let respawn_rate = pool_steps as f64 / start.elapsed().as_secs_f64().max(1e-12);
    let pool_speedup = pooled_rate / respawn_rate;
    report.push_str(&format!(
        "pool: complete/n{pool_n} f={pool_f} at --jobs {jobs} — {pooled_rate:.1} steps/s \
         retained pool vs {respawn_rate:.1} steps/s respawning per step ({pool_speedup:.2}x)\n"
    ));
    let pool_json = format!(
        "  \"pool\": {{\"topology\": \"complete\", \"n\": {pool_n}, \"f\": {pool_f}, \
         \"steps\": {pool_steps}, \"jobs\": {jobs}, \"pooled_steps_per_sec\": {pooled_rate:.3}, \
         \"respawn_steps_per_sec\": {respawn_rate:.3}, \"speedup\": {pool_speedup:.3}}},"
    );

    // Deploy datapoint: the runtime's two deployment tiers on the SAME
    // circulant workload at the largest n the threaded tier comfortably
    // hosts. Both sides produce bit-identical trajectories (pinned by the
    // runtime test suite); only the execution substrate differs — n OS
    // threads + channels vs a `--jobs`-thread pool + mailboxes — so the
    // speedup isolates the multiplexing win. Whole-deployment time is
    // measured (construction included): thread spawn IS the threaded
    // tier's cost model.
    let dep_n = if quick { 512 } else { 4_096 };
    let dep_f = 2usize;
    let dep_degree = 8usize;
    let dep_rounds = if quick { 10 } else { 20 };
    let dep_inputs: Vec<f64> = (0..dep_n).map(|i| ((i * 37) % 1000) as f64).collect();
    let dep_faults = NodeSet::from_indices(dep_n, 0..dep_f);
    let dep_graph = generators::circulant(dep_n, 1..=dep_degree);
    let start = Instant::now();
    iabc_runtime::run_threaded(
        &dep_graph,
        &dep_inputs,
        &dep_faults,
        dep_f,
        dep_rounds,
        |_| Box::new(iabc_runtime::ConstantLiar { value: 1e6 }),
    )
    .map_err(|e| CliError::Run(e.to_string()))?;
    let dep_threaded = dep_rounds as f64 / start.elapsed().as_secs_f64().max(1e-12);
    let dep_topology = iabc_graph::CompiledTopology::circulant(dep_n, dep_degree, &dep_faults);
    let time_multiplexed = |topology: &iabc_graph::CompiledTopology,
                            inputs: &[f64],
                            f: usize,
                            rounds: usize|
     -> Result<f64, CliError> {
        let start = Instant::now();
        let mut deployment = iabc_runtime::MultiplexedDeployment::new(
            topology,
            inputs,
            f,
            rounds,
            |_| Box::new(iabc_runtime::ConstantLiar { value: 1e6 }),
            iabc_runtime::LocalTransport,
            iabc_runtime::MultiplexConfig {
                jobs,
                shared_pool: true,
                ..Default::default()
            },
        )
        .map_err(|e| CliError::Run(e.to_string()))?;
        deployment.run().map_err(|e| CliError::Run(e.to_string()))?;
        Ok(rounds as f64 / start.elapsed().as_secs_f64().max(1e-12))
    };
    let dep_multiplexed = time_multiplexed(&dep_topology, &dep_inputs, dep_f, dep_rounds)?;
    let dep_speedup = dep_multiplexed / dep_threaded;
    report.push_str(&format!(
        "deploy: circulant/n{dep_n} degree={dep_degree} f={dep_f} — {dep_threaded:.1} rounds/s \
         threaded ({dep_n} OS threads) vs {dep_multiplexed:.1} rounds/s multiplexed at \
         --jobs {jobs} ({dep_speedup:.2}x)\n"
    ));
    let deploy_json = format!(
        "  \"deploy\": {{\"topology\": \"circulant\", \"n\": {dep_n}, \"f\": {dep_f}, \
         \"degree\": {dep_degree}, \"rounds\": {dep_rounds}, \"jobs\": {jobs}, \
         \"threaded_steps_per_sec\": {dep_threaded:.3}, \
         \"multiplexed_steps_per_sec\": {dep_multiplexed:.3}, \"speedup\": {dep_speedup:.3}}},"
    );

    // Scale datapoint: multiplexed-only, at an n no threaded deployment
    // could host. Marked `"informational": true` so `perf --check`
    // explicitly skips it — an absolute rate is not machine-portable,
    // but the recorded trajectory shows the tier working at scale.
    let scale_n = if quick { 20_000 } else { 100_000 };
    let scale_rounds = 10;
    let scale_inputs: Vec<f64> = (0..scale_n).map(|i| ((i * 37) % 1000) as f64).collect();
    let scale_faults = NodeSet::from_indices(scale_n, 0..dep_f);
    let scale_topology =
        iabc_graph::CompiledTopology::circulant(scale_n, dep_degree, &scale_faults);
    let scale_rate = time_multiplexed(&scale_topology, &scale_inputs, dep_f, scale_rounds)?;
    report.push_str(&format!(
        "deploy scale: circulant/n{scale_n} degree={dep_degree} f={dep_f} multiplexed-only — \
         {scale_rate:.1} rounds/s at --jobs {jobs}\n"
    ));
    let deploy_scale_json = format!(
        "  \"deploy_scale\": {{\"topology\": \"circulant\", \"n\": {scale_n}, \"f\": {dep_f}, \
         \"degree\": {dep_degree}, \"rounds\": {scale_rounds}, \"jobs\": {jobs}, \
         \"informational\": true, \"multiplexed_steps_per_sec\": {scale_rate:.3}}},"
    );

    // Serve-cache datapoint: the serving tier's whole value proposition is
    // that a warm store answers in file-read time what a cold store pays
    // engine time for. Submit the SAME batch of scenario jobs twice
    // against a scratch store via the daemon's own `answer_submit` path
    // (no socket — the store and executor are what's measured): the first
    // pass is all misses, the second all hits, and determinism guarantees
    // the hit payloads are byte-identical to the miss payloads (asserted
    // here, not just trusted).
    // Same n in quick and full mode ON PURPOSE: the warm/cold ratio grows
    // with the cold job's engine time, so comparing a quick-mode run
    // against a full-grid baseline is only meaningful if both measured
    // the same workload. The batch costs a few ms either way.
    let cache_n = 128;
    let cache_f = (cache_n / 30).max(1);
    let cache_batch = 6usize;
    let cache_graph = generators::complete(cache_n);
    let cache_edges = iabc_graph::parse::to_edge_list(&cache_graph);
    let cache_dir = perf_store_dir("serve");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache_store = iabc_serve::Store::open(&cache_dir)
        .map_err(|e| CliError::Io(format!("{}: {e}", cache_dir.display())))?;
    let cache_flights = iabc_serve::SingleFlight::new();
    let cache_jobs: Vec<iabc_serve::JobSpec> = (0..cache_batch as u64)
        .map(|seed| {
            iabc_serve::JobSpec::Scenario(iabc_serve::ScenarioSpec {
                graph: cache_edges.clone(),
                faulty: (0..cache_f).collect(),
                f: cache_f,
                rule: "trimmed-mean".into(),
                quantum: None,
                adversary: "constant".into(),
                seed,
                inputs: iabc_serve::InputSpec::Seeded(seed),
                epsilon: 1e-9,
                max_rounds: 400,
                engine: iabc_serve::EngineSpec::Synchronous,
            })
        })
        .collect();
    let submit_batch = |store: &iabc_serve::Store| -> Result<(f64, Vec<Vec<u8>>), CliError> {
        let start = Instant::now();
        let mut payloads = Vec::with_capacity(cache_jobs.len());
        for job in &cache_jobs {
            let (response, _) =
                iabc_serve::server::answer_submit(store, &cache_flights, job, jobs, |_, _, _| {})
                    .map_err(|e| CliError::Run(e.to_string()))?;
            let iabc_serve::protocol::Response::Result { payload, .. } = response else {
                return Err(CliError::Run("submit did not return a result".into()));
            };
            payloads.push(payload);
        }
        Ok((
            cache_jobs.len() as f64 / start.elapsed().as_secs_f64().max(1e-12),
            payloads,
        ))
    };
    let (cold_rate, cold_payloads) = submit_batch(&cache_store)?;
    let (warm_rate, warm_payloads) = submit_batch(&cache_store)?;
    if cold_payloads != warm_payloads {
        return Err(CliError::Run(
            "serve cache datapoint: warm payloads differ from cold payloads".into(),
        ));
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache_speedup = warm_rate / cold_rate;
    report.push_str(&format!(
        "serve cache: complete/n{cache_n} f={cache_f} × {cache_batch} scenario jobs — \
         {cold_rate:.1} jobs/s cold (all misses) vs {warm_rate:.1} jobs/s warm (all hits, \
         byte-identical) ({cache_speedup:.2}x)\n"
    ));
    let serve_cache_json = format!(
        "  \"serve_cache\": {{\"topology\": \"complete\", \"n\": {cache_n}, \"f\": {cache_f}, \
         \"batch\": {cache_batch}, \"jobs\": {jobs}, \"cold_jobs_per_sec\": {cold_rate:.3}, \
         \"warm_hits_per_sec\": {warm_rate:.3}, \"speedup\": {cache_speedup:.3}}},"
    );

    // Serve-concurrent datapoint (enforced): the concurrent daemon's
    // defining property — hit clients keep being answered from the
    // store's read lock while one expensive miss occupies the compute
    // permit. Both sides run the REAL daemon over loopback sockets with
    // identical workloads; the only difference is `--max-conn` (1 = the
    // old sequential accept loop, where every hit queues behind the
    // in-flight miss connection). Every hit payload is asserted
    // byte-identical to the store's object (fetched via `query`), not
    // just trusted.
    let sc_clients = 4usize;
    let sc_hits_per_client = 10usize;
    // Epsilon 0 keeps the miss stepping to the round cap: a fixed, slow
    // workload that reliably outlasts the hit barrage (the barrage is
    // ~0.1 s of small frames; the cap is sized so the miss runs for
    // seconds even on a fast multicore host).
    let sc_miss_rounds = 40_000usize;
    let sc_hit_job = iabc_serve::JobSpec::Scenario(iabc_serve::ScenarioSpec {
        graph: cache_edges.clone(),
        faulty: (0..cache_f).collect(),
        f: cache_f,
        rule: "trimmed-mean".into(),
        quantum: None,
        adversary: "constant".into(),
        seed: 101,
        inputs: iabc_serve::InputSpec::Seeded(101),
        epsilon: 1e-9,
        max_rounds: 400,
        engine: iabc_serve::EngineSpec::Synchronous,
    });
    // The miss must genuinely run for seconds: on a complete graph every
    // adversary converges to exact equality in ~a dozen rounds, so the
    // slow job is a sparse chord graph (information travels one hop per
    // round) under the seeded random adversary (keeps perturbing values,
    // so epsilon 0 steps to the round cap).
    let sc_miss_n = 512usize;
    let sc_miss_job = iabc_serve::JobSpec::Scenario(iabc_serve::ScenarioSpec {
        graph: iabc_graph::parse::to_edge_list(&generators::chord(sc_miss_n, 4)),
        faulty: vec![0],
        f: 1,
        rule: "trimmed-mean".into(),
        quantum: None,
        adversary: "random".into(),
        seed: 102,
        inputs: iabc_serve::InputSpec::Seeded(102),
        epsilon: 0.0,
        max_rounds: sc_miss_rounds,
        engine: iabc_serve::EngineSpec::Synchronous,
    });
    let run_tier = |max_conn: usize,
                    compact: bool|
     -> Result<(f64, Option<iabc_serve::CompactionStats>), CliError> {
        let dir = perf_store_dir(&format!("serve-conc{max_conn}"));
        let _ = std::fs::remove_dir_all(&dir);
        let config = iabc_serve::ServerConfig {
            addr: "127.0.0.1:0".into(),
            jobs,
            store_dir: dir.clone(),
            accept_limit: None,
            max_connections: max_conn,
            max_store_bytes: None,
        };
        let mut server =
            iabc_serve::Server::bind(&config).map_err(|e| CliError::Run(e.to_string()))?;
        let addr = server
            .local_addr()
            .map_err(|e| CliError::Run(e.to_string()))?
            .to_string();
        let daemon = std::thread::spawn(move || server.run());
        let err = |e: iabc_serve::ServeError| CliError::Run(e.to_string());
        // Warm the hit job (one journaled miss) and pin its payload.
        let warm = iabc_serve::submit(&addr, &sc_hit_job).map_err(err)?;
        // The expensive miss starts first; the sleep lets it take the
        // compute permit before the hit clients arrive.
        let miss_addr = addr.clone();
        let miss_job = sc_miss_job.clone();
        let miss = std::thread::spawn(move || iabc_serve::submit(&miss_addr, &miss_job));
        std::thread::sleep(std::time::Duration::from_millis(30));
        let start = Instant::now();
        let clients: Vec<_> = (0..sc_clients)
            .map(|_| {
                let addr = addr.clone();
                let job = sc_hit_job.clone();
                std::thread::spawn(move || -> Result<Vec<Vec<u8>>, iabc_serve::ServeError> {
                    (0..sc_hits_per_client)
                        .map(|_| iabc_serve::submit(&addr, &job).map(|o| o.payload))
                        .collect()
                })
            })
            .collect();
        let mut hit_payloads = Vec::new();
        for c in clients {
            hit_payloads.extend(c.join().expect("hit client panicked").map_err(err)?);
        }
        let elapsed = start.elapsed().as_secs_f64();
        miss.join().expect("miss client panicked").map_err(err)?;
        let stored = iabc_serve::query(&addr, warm.key)
            .map_err(err)?
            .ok_or_else(|| CliError::Run("serve concurrent: warmed key absent".into()))?;
        if stored != warm.payload || hit_payloads.iter().any(|p| *p != stored) {
            return Err(CliError::Run(
                "serve concurrent datapoint: hit payloads are not byte-identical to the store"
                    .into(),
            ));
        }
        let stats = if compact {
            Some(iabc_serve::compact(&addr).map_err(err)?)
        } else {
            None
        };
        iabc_serve::shutdown(&addr).map_err(err)?;
        let _ = daemon.join();
        let _ = std::fs::remove_dir_all(&dir);
        Ok((
            (sc_clients * sc_hits_per_client) as f64 / elapsed.max(1e-12),
            stats,
        ))
    };
    let (sc_seq_rate, _) = run_tier(1, false)?;
    let (sc_conc_rate, sc_compaction) = run_tier(sc_clients + 1, true)?;
    let sc_speedup = sc_conc_rate / sc_seq_rate;
    let sc_total_hits = sc_clients * sc_hits_per_client;
    report.push_str(&format!(
        "serve concurrent: {sc_clients} hit clients x {sc_hits_per_client} \
         (complete/n{cache_n}) behind 1 slow miss (chord/n{sc_miss_n}) — \
         {sc_seq_rate:.0} hits/s sequential (--max-conn 1) vs {sc_conc_rate:.0} hits/s \
         concurrent, byte-identical payloads ({sc_speedup:.2}x)\n"
    ));
    let serve_concurrent_json = format!(
        "  \"serve_concurrent\": {{\"topology\": \"complete\", \"n\": {cache_n}, \
         \"f\": {cache_f}, \"clients\": {sc_clients}, \"hits\": {sc_total_hits}, \
         \"jobs\": {jobs}, \"sequential_hits_per_sec\": {sc_seq_rate:.3}, \
         \"concurrent_hits_per_sec\": {sc_conc_rate:.3}, \"speedup\": {sc_speedup:.3}}},"
    );

    // Compaction-ratio line (informational): the concurrent run's
    // journal — two misses plus every journaled hit — rewritten down to
    // one record per live object. The ratio tracks how much replay work
    // a daemon restart saves; it is recorded, never regression-checked
    // (it measures workload shape, not implementation speed).
    let sc_stats = sc_compaction
        .ok_or_else(|| CliError::Run("serve concurrent: compaction stats missing".into()))?;
    let sc_ratio = sc_stats.records_before as f64 / (sc_stats.records_after as f64).max(1.0);
    report.push_str(&format!(
        "serve compaction (informational): {} -> {} journal record(s), {} -> {} byte(s) \
         ({sc_ratio:.1}x smaller)\n",
        sc_stats.records_before,
        sc_stats.records_after,
        sc_stats.bytes_before,
        sc_stats.bytes_after
    ));
    let serve_compaction_json = format!(
        "  \"serve_compaction\": {{\"topology\": \"complete\", \"n\": {cache_n}, \
         \"f\": {cache_f}, \"jobs\": {jobs}, \"informational\": true, \
         \"records_before\": {}, \"records_after\": {}, \"journal_bytes_before\": {}, \
         \"journal_bytes_after\": {}, \"compaction_ratio\": {sc_ratio:.3}}},",
        sc_stats.records_before,
        sc_stats.records_after,
        sc_stats.bytes_before,
        sc_stats.bytes_after
    );

    // FastMath datapoint (enforced): the **columnar** sort — the vertical
    // compare-exchange network across replica lanes, running the merge
    // networks at in-degree 64 — against per-lane exact sorting
    // (`sort_unstable_by(total_cmp)`, what the exact tier's trim kernel
    // does) on the same slot-major data. Sorting dominates the trim
    // kernel's cost, and the lane batching is where the tier actually
    // wins; the scalar one-row faceoff below is recorded informationally.
    let fm_lanes = 32usize;
    let fm_len = 64usize; // in-degree per row: on the merge-network path
    let fm_f = 2usize;
    let fm_blocks = if quick { 200 } else { 800 };
    let fm_reps = if quick { 10 } else { 25 };
    let fm_columns: Vec<f64> = (0..fm_blocks * fm_len * fm_lanes)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 * 1e-12)
        .collect();
    let col_updates = (fm_reps * fm_blocks * fm_lanes) as f64;
    let time_columnar = || -> f64 {
        let mut block = vec![0.0f64; fm_len * fm_lanes];
        // One untimed pass warms caches and the CPU feature detection.
        for src in fm_columns.chunks_exact(fm_len * fm_lanes) {
            block.copy_from_slice(src);
            iabc_core::fastmath::sort_columns_total_fast(&mut block, fm_lanes);
            std::hint::black_box(&block);
        }
        let start = Instant::now();
        for _ in 0..fm_reps {
            for src in fm_columns.chunks_exact(fm_len * fm_lanes) {
                block.copy_from_slice(src);
                iabc_core::fastmath::sort_columns_total_fast(&mut block, fm_lanes);
                std::hint::black_box(&block);
            }
        }
        col_updates / start.elapsed().as_secs_f64().max(1e-12)
    };
    let time_exact_lanes = || -> f64 {
        let mut rowbuf = vec![0.0f64; fm_len];
        let gather = |src: &[f64], lane: usize, rowbuf: &mut [f64]| {
            for (s, slot) in rowbuf.iter_mut().enumerate() {
                *slot = src[s * fm_lanes + lane];
            }
        };
        for src in fm_columns.chunks_exact(fm_len * fm_lanes) {
            for lane in 0..fm_lanes {
                gather(src, lane, &mut rowbuf);
                rowbuf.sort_unstable_by(f64::total_cmp);
                std::hint::black_box(&rowbuf);
            }
        }
        let start = Instant::now();
        for _ in 0..fm_reps {
            for src in fm_columns.chunks_exact(fm_len * fm_lanes) {
                for lane in 0..fm_lanes {
                    gather(src, lane, &mut rowbuf);
                    rowbuf.sort_unstable_by(f64::total_cmp);
                    std::hint::black_box(&rowbuf);
                }
            }
        }
        col_updates / start.elapsed().as_secs_f64().max(1e-12)
    };
    let exact_rate = time_exact_lanes();
    let fast_rate = time_columnar();
    let fm_speedup = fast_rate / exact_rate;
    report.push_str(&format!(
        "fastmath: {fm_blocks} blocks x len {fm_len} x {fm_lanes} lanes — {exact_rate:.0} \
         sorts/s exact per-lane vs {fast_rate:.0} sorts/s columnar merge network \
         ({fm_speedup:.2}x)\n"
    ));
    let fastmath_json = format!(
        "  \"fastmath\": {{\"topology\": \"columns\", \"n\": {fm_len}, \"f\": {fm_f}, \
         \"lanes\": {fm_lanes}, \"blocks\": {fm_blocks}, \"jobs\": {jobs}, \
         \"exact_updates_per_sec\": {exact_rate:.3}, \
         \"fast_updates_per_sec\": {fast_rate:.3}, \"speedup\": {fm_speedup:.3}}},"
    );

    // Scalar kernel faceoff (informational): `trim_kernel_fast` vs the
    // exact `rules::trim_kernel` one row at a time — the honest ~1x
    // number from before the columnar tier existed. It records the
    // trajectory but is never regression-checked: a one-row scalar sort
    // is not where this tier claims a win.
    let fms_rows = if quick { 2_000 } else { 8_000 };
    let fms_len = 16usize;
    let fms_reps = if quick { 20 } else { 50 };
    let fms_values: Vec<f64> = (0..fms_rows * fms_len)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 * 1e-12)
        .collect();
    let time_kernel = |kernel: &dyn Fn(f64, &mut [f64], usize) -> f64| -> f64 {
        let mut rowbuf = vec![0.0f64; fms_len];
        let mut sink = 0.0f64;
        for row in fms_values.chunks_exact(fms_len) {
            rowbuf.copy_from_slice(row);
            sink += kernel(rowbuf[0], &mut rowbuf, fm_f);
        }
        let start = Instant::now();
        for _ in 0..fms_reps {
            for row in fms_values.chunks_exact(fms_len) {
                rowbuf.copy_from_slice(row);
                sink += kernel(rowbuf[0], &mut rowbuf, fm_f);
            }
        }
        std::hint::black_box(sink);
        (fms_reps * fms_rows) as f64 / start.elapsed().as_secs_f64().max(1e-12)
    };
    let fms_exact_rate = time_kernel(&iabc_core::rules::trim_kernel);
    let fms_fast_rate = time_kernel(&iabc_core::fastmath::trim_kernel_fast);
    let fms_speedup = fms_fast_rate / fms_exact_rate;
    report.push_str(&format!(
        "fastmath scalar (informational): {fms_rows} rows x len {fms_len} f={fm_f} — \
         {fms_exact_rate:.0} updates/s exact kernel vs {fms_fast_rate:.0} updates/s scalar \
         FastMath ({fms_speedup:.2}x)\n"
    ));
    let fastmath_scalar_json = format!(
        "  \"fastmath_scalar\": {{\"topology\": \"rows\", \"n\": {fms_len}, \"f\": {fm_f}, \
         \"rows\": {fms_rows}, \"jobs\": {jobs}, \"informational\": true, \
         \"exact_updates_per_sec\": {fms_exact_rate:.3}, \
         \"fast_updates_per_sec\": {fms_fast_rate:.3}, \"speedup\": {fms_speedup:.3}}},"
    );

    // Replica-batch datapoint: R same-topology Monte-Carlo replicas
    // advanced by ONE replica-major SoA engine (a single CSR row walk
    // feeds all R lanes) versus R independently dispatched exact engines
    // — construction included on both sides, because amortizing per-run
    // setup across the batch is half the point. Both tiers run serially;
    // the speedup isolates batching, not threading.
    // Circulant with in-degree 16: rows fit the vertical sorting
    // network (in-degree <= 32), which is where batching pays — a
    // deployment-shaped sparse topology, not a clique.
    let rb_replicas = 32usize;
    let rb_n = if quick { 256 } else { 512 };
    let rb_f = 2usize;
    let rb_rounds = if quick { 20 } else { 40 };
    let rb_graph = generators::circulant(rb_n, 1..=16);
    let rb_faults = NodeSet::from_indices(rb_n, iabc_bench::hotpath_fault_nodes(rb_n, rb_f));
    let rb_inputs: Vec<f64> = (0..rb_n * rb_replicas)
        .map(|i| ((i * 37) % 1000) as f64)
        .collect();
    // Best-of-reps on both sides: each side's window is a handful of
    // milliseconds, and single-shot timings on a shared single-core box
    // are too noisy for a checked ratio.
    let rb_reps = 3;
    let mut batched_secs = f64::INFINITY;
    for _ in 0..rb_reps {
        let start = Instant::now();
        let mut batch = iabc_sim::fastmath::BatchedSimulation::new(
            &rb_graph,
            &rb_inputs,
            rb_faults.clone(),
            iabc_core::fastmath::FastRule::TrimmedMean(rb_f),
            rb_replicas,
            |_| Box::new(ConstantAdversary::new(1e9)),
        )
        .map_err(|e| CliError::Run(e.to_string()))?;
        for _ in 0..rb_rounds {
            batch.step().map_err(|e| CliError::Run(e.to_string()))?;
        }
        batched_secs = batched_secs.min(start.elapsed().as_secs_f64());
    }
    let batched_rate = (rb_rounds * rb_replicas) as f64 / batched_secs.max(1e-12);
    let mut dispatch_secs = f64::INFINITY;
    for _ in 0..rb_reps {
        let start = Instant::now();
        for r in 0..rb_replicas {
            let rule = TrimmedMean::new(rb_f);
            let replica_inputs: Vec<f64> =
                (0..rb_n).map(|i| rb_inputs[i * rb_replicas + r]).collect();
            let mut sim = iabc_sim::Simulation::new(
                &rb_graph,
                &replica_inputs,
                rb_faults.clone(),
                &rule,
                Box::new(ConstantAdversary::new(1e9)),
            )
            .map_err(|e| CliError::Run(e.to_string()))?;
            for _ in 0..rb_rounds {
                sim.step().map_err(|e| CliError::Run(e.to_string()))?;
            }
        }
        dispatch_secs = dispatch_secs.min(start.elapsed().as_secs_f64());
    }
    let dispatch_rate = (rb_rounds * rb_replicas) as f64 / dispatch_secs.max(1e-12);
    let rb_speedup = batched_rate / dispatch_rate;
    report.push_str(&format!(
        "replica batch: circulant/n{rb_n} f={rb_f} x {rb_replicas} replicas, {rb_rounds} rounds — \
         {dispatch_rate:.0} replica-steps/s dispatched per replica vs {batched_rate:.0} \
         replica-steps/s batched SoA ({rb_speedup:.2}x)\n"
    ));
    let replica_batch_json = format!(
        "  \"replica_batch\": {{\"topology\": \"circulant\", \"n\": {rb_n}, \"f\": {rb_f}, \
         \"replicas\": {rb_replicas}, \"rounds\": {rb_rounds}, \"jobs\": {jobs}, \
         \"dispatch_replica_steps_per_sec\": {dispatch_rate:.3}, \
         \"batched_replica_steps_per_sec\": {batched_rate:.3}, \"speedup\": {rb_speedup:.3}}},"
    );

    // Batched-sweep datapoint: a same-topology census slice of 32 cells
    // (one dense complete graph, differing only in their coordinate
    // seeds) executed per-cell-dispatched vs grouped into ONE width-32
    // replica batch (`sweep … --batch`), both on one worker. The results
    // are asserted identical — the ratio times the grouping alone. The
    // in-degree puts every row on the merge-network columnar path, and
    // the constant adversary family activates the shared-plan fast path,
    // exactly as a real `--batch` census run would.
    let bs_cells_count = 32usize;
    let bs_n = if quick { 48 } else { 96 };
    let bs_f = bs_n / 30;
    let bs_rounds = if quick { 8 } else { 15 };
    let bs_spec = iabc_analysis::batched::SimCellSpec {
        topology: iabc_analysis::batched::Topology::Complete(bs_n),
        f: bs_f,
        rule: iabc_core::fastmath::FastRule::TrimmedMean(bs_f),
        adversary: iabc_analysis::batched::AdversarySpec::Constant(1e9),
        // Epsilon 0 keeps every cell stepping to the round cap, so both
        // sides execute the same fixed amount of work and the timing
        // window is stable.
        epsilon: 0.0,
        max_rounds: bs_rounds,
    };
    let bs_cells: Vec<iabc_analysis::batched::SimCell> = (0..bs_cells_count)
        .map(|i| iabc_analysis::batched::SimCell {
            coords: sweep::CellCoords::new("bench-batched-sweep").with("i", i),
            spec: bs_spec.clone(),
        })
        .collect();
    let bs_reps = 3;
    let mut bs_dispatch_secs = f64::INFINITY;
    let mut bs_batched_secs = f64::INFINITY;
    let mut bs_reference = None;
    for _ in 0..bs_reps {
        let start = Instant::now();
        let dispatched = iabc_analysis::batched::run_sim_cells(&bs_cells, 1, false);
        bs_dispatch_secs = bs_dispatch_secs.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let grouped = iabc_analysis::batched::run_sim_cells(&bs_cells, 1, true);
        bs_batched_secs = bs_batched_secs.min(start.elapsed().as_secs_f64());
        let dispatched: Vec<_> = dispatched.into_iter().map(|o| o.value).collect();
        let grouped: Vec<_> = grouped.into_iter().map(|o| o.value).collect();
        if dispatched != grouped {
            return Err(CliError::Run(
                "batched sweep datapoint: grouped results differ from dispatched".into(),
            ));
        }
        bs_reference = Some(dispatched);
    }
    std::hint::black_box(bs_reference);
    let bs_dispatch_rate = bs_cells_count as f64 / bs_dispatch_secs.max(1e-12);
    let bs_batched_rate = bs_cells_count as f64 / bs_batched_secs.max(1e-12);
    let bs_speedup = bs_batched_rate / bs_dispatch_rate;
    report.push_str(&format!(
        "batched sweep: complete/n{bs_n} f={bs_f} x {bs_cells_count} census cells, \
         {bs_rounds} rounds — {bs_dispatch_rate:.1} cells/s dispatched per cell vs \
         {bs_batched_rate:.1} cells/s grouped --batch, identical tables ({bs_speedup:.2}x)\n"
    ));
    let batched_sweep_json = format!(
        "  \"batched_sweep\": {{\"topology\": \"complete\", \"n\": {bs_n}, \"f\": {bs_f}, \
         \"cells\": {bs_cells_count}, \"rounds\": {bs_rounds}, \"jobs\": {jobs}, \
         \"dispatch_cells_per_sec\": {bs_dispatch_rate:.3}, \
         \"batched_cells_per_sec\": {bs_batched_rate:.3}, \"speedup\": {bs_speedup:.3}}},"
    );

    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"mode\": \"{}\",\n  \"unit\": \"steps_per_sec\",\n  \
         \"adversary\": \"constant\",\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        parallel_json,
        pool_json,
        deploy_json,
        deploy_scale_json,
        serve_cache_json,
        serve_concurrent_json,
        serve_compaction_json,
        fastmath_json,
        fastmath_scalar_json,
        replica_batch_json,
        batched_sweep_json,
        entries.join(",\n")
    );

    if let Some(baseline) = baseline {
        let mut regressions = Vec::new();
        let mut compared = 0usize;
        for e in &fresh {
            let Some(base) = baseline
                .results
                .iter()
                .find(|b| b.topology == e.topology && b.n == e.n && b.f == e.f)
            else {
                continue;
            };
            compared += 1;
            if e.speedup < base.speedup * (1.0 - tolerance) {
                regressions.push(format!(
                    "{}/n{} f={}: speedup {:.2}x vs baseline {:.2}x (tolerance {:.0}%)",
                    e.topology,
                    e.n,
                    e.f,
                    e.speedup,
                    base.speedup,
                    tolerance * 100.0
                ));
            }
        }
        // The parallel datapoint is compared on the job count alone: the
        // committed baseline records the full-grid n = 10^4 workload while
        // CI's quick mode measures n = 10^3, and requiring equal n would
        // silently skip the one trajectory this guard exists for. Speedup
        // (parallel/serial on the SAME engine and machine) is the
        // scale-portable quantity; the generous tolerance absorbs the
        // residual n-dependence of scheduling overhead.
        // On a host with fewer cores than --jobs the fresh measurement is
        // scheduler noise (see `parallel_speedup_is_informational`), so
        // no comparison is made even if the baseline recorded one.
        if let Some((base_n, base_jobs, base_speedup)) = baseline.parallel {
            if base_jobs == jobs && !par_informational {
                compared += 1;
                if par_speedup < base_speedup * (1.0 - tolerance) {
                    regressions.push(format!(
                        "parallel complete/n{par_n} --jobs {jobs}: speedup {par_speedup:.2}x \
                         vs baseline {base_speedup:.2}x at n={base_n} (tolerance {:.0}%)",
                        tolerance * 100.0
                    ));
                }
            }
        }
        // The pool datapoint is compared like the parallel one — on the
        // job count alone (quick mode measures a smaller n than the
        // committed full grid), speedup being the scale-portable quantity.
        if let Some((base_n, base_jobs, base_speedup)) = baseline.pool {
            if base_jobs == jobs {
                compared += 1;
                if pool_speedup < base_speedup * (1.0 - tolerance) {
                    regressions.push(format!(
                        "pool complete/n{pool_n} --jobs {jobs}: pool-vs-respawn speedup \
                         {pool_speedup:.2}x vs baseline {base_speedup:.2}x at n={base_n} \
                         (tolerance {:.0}%)",
                        tolerance * 100.0
                    ));
                }
            }
        }
        // The deploy datapoint: multiplexed-vs-threaded speedup on the
        // circulant workload, again compared on the job count alone. The
        // scale datapoint carries no speedup and is never checked.
        if let Some((base_n, base_jobs, base_speedup)) = baseline.deploy {
            if base_jobs == jobs {
                compared += 1;
                if dep_speedup < base_speedup * (1.0 - tolerance) {
                    regressions.push(format!(
                        "deploy circulant/n{dep_n} --jobs {jobs}: multiplexed-vs-threaded \
                         speedup {dep_speedup:.2}x vs baseline {base_speedup:.2}x at \
                         n={base_n} (tolerance {:.0}%)",
                        tolerance * 100.0
                    ));
                }
            }
        }
        // The serve-cache datapoint: warm-vs-cold submission speedup on
        // the scratch store, compared on the job count alone like the
        // other pool-dependent datapoints. The expected margin is an
        // order of magnitude (file read vs engine run), so the default
        // tolerance has plenty of headroom.
        if let Some((base_n, base_jobs, base_speedup)) = baseline.serve_cache {
            if base_jobs == jobs {
                compared += 1;
                if cache_speedup < base_speedup * (1.0 - tolerance) {
                    regressions.push(format!(
                        "serve_cache complete/n{cache_n} --jobs {jobs}: warm-vs-cold speedup \
                         {cache_speedup:.2}x vs baseline {base_speedup:.2}x at n={base_n} \
                         (tolerance {:.0}%)",
                        tolerance * 100.0
                    ));
                }
            }
        }
        // The serve-concurrent datapoint: concurrent-vs-sequential hit
        // throughput behind one in-flight miss, compared on the job count
        // alone. The expected margin is large (hits answer from the read
        // lock while the sequential tier queues them all behind the
        // miss), so the default tolerance has plenty of headroom.
        if let Some((base_n, base_jobs, base_speedup)) = baseline.serve_concurrent {
            if base_jobs == jobs {
                compared += 1;
                if sc_speedup < base_speedup * (1.0 - tolerance) {
                    regressions.push(format!(
                        "serve_concurrent complete/n{cache_n} --jobs {jobs}: \
                         concurrent-vs-sequential speedup {sc_speedup:.2}x vs baseline \
                         {base_speedup:.2}x at n={base_n} (tolerance {:.0}%)",
                        tolerance * 100.0
                    ));
                }
            }
        }
        // The FastMath kernel datapoint: fast-vs-exact kernel speedup on
        // the same row set — same workload in quick and full mode, so it
        // is compared whenever the baseline recorded it.
        if let Some((base_len, base_jobs, base_speedup)) = baseline.fastmath {
            if base_jobs == jobs {
                compared += 1;
                if fm_speedup < base_speedup * (1.0 - tolerance) {
                    regressions.push(format!(
                        "fastmath rows/len{fm_len}: kernel speedup {fm_speedup:.2}x vs \
                         baseline {base_speedup:.2}x at len={base_len} (tolerance {:.0}%)",
                        tolerance * 100.0
                    ));
                }
            }
        }
        // The replica-batch datapoint: batched-SoA-vs-dispatched speedup,
        // compared on the job count alone like the other engine-level
        // datapoints (quick mode runs a smaller n).
        if let Some((base_n, base_jobs, base_speedup)) = baseline.replica_batch {
            if base_jobs == jobs {
                compared += 1;
                if rb_speedup < base_speedup * (1.0 - tolerance) {
                    regressions.push(format!(
                        "replica_batch circulant/n{rb_n} x{rb_replicas}: batched-vs-dispatch \
                         speedup {rb_speedup:.2}x vs baseline {base_speedup:.2}x at \
                         n={base_n} (tolerance {:.0}%)",
                        tolerance * 100.0
                    ));
                }
            }
        }
        // The batched-sweep datapoint: grouped-vs-dispatched census-slice
        // speedup (both sides on one worker, so it is compared regardless
        // of --jobs; quick mode runs a smaller n).
        if let Some((base_n, _base_jobs, base_speedup)) = baseline.batched_sweep {
            compared += 1;
            if bs_speedup < base_speedup * (1.0 - tolerance) {
                regressions.push(format!(
                    "batched_sweep complete/n{bs_n} x{bs_cells_count}: grouped-vs-dispatch \
                     speedup {bs_speedup:.2}x vs baseline {base_speedup:.2}x at \
                     n={base_n} (tolerance {:.0}%)",
                    tolerance * 100.0
                ));
            }
        }
        if !regressions.is_empty() {
            return Err(CliError::Run(format!(
                "perf regression against {baseline_path} ({compared} workloads compared):\n  {}",
                regressions.join("\n  ")
            )));
        }
        report.push_str(&format!(
            "perf check PASSED: {compared} workload(s) within {:.0}% of {baseline_path}\n",
            tolerance * 100.0
        ));
    }

    std::fs::write(&out_path, &json).map_err(|e| CliError::Io(format!("{out_path}: {e}")))?;
    report.push_str(&format!("wrote {out_path}\n"));
    Ok(report)
}

/// One parsed baseline workload (the fields `perf --check` compares).
struct BenchEntry {
    topology: String,
    n: usize,
    f: usize,
    speedup: f64,
}

/// A parsed `BENCH_hotpath.json` baseline.
struct BenchBaseline {
    results: Vec<BenchEntry>,
    /// `(n, jobs, speedup)` of the parallel datapoint, if recorded.
    parallel: Option<(usize, usize, f64)>,
    /// `(n, jobs, speedup)` of the pool-vs-respawn datapoint, if recorded.
    pool: Option<(usize, usize, f64)>,
    /// `(n, jobs, speedup)` of the multiplexed-vs-threaded deploy
    /// datapoint, if recorded.
    deploy: Option<(usize, usize, f64)>,
    /// `(n, jobs, speedup)` of the serve-cache warm-vs-cold datapoint, if
    /// recorded.
    serve_cache: Option<(usize, usize, f64)>,
    /// `(n, jobs, speedup)` of the serve concurrent-vs-sequential hit
    /// throughput datapoint, if recorded.
    serve_concurrent: Option<(usize, usize, f64)>,
    /// `(n, jobs, speedup)` of the FastMath-vs-exact kernel datapoint, if
    /// recorded (`n` here is the row length).
    fastmath: Option<(usize, usize, f64)>,
    /// `(n, jobs, speedup)` of the batched-vs-dispatched replica
    /// datapoint, if recorded.
    replica_batch: Option<(usize, usize, f64)>,
    /// `(n, jobs, speedup)` of the grouped-vs-dispatched sweep-slice
    /// datapoint, if recorded.
    batched_sweep: Option<(usize, usize, f64)>,
}

/// True when the host cannot actually run `jobs` workers concurrently:
/// the parallel-vs-serial datapoint then measures scheduler timeslicing,
/// not parallelism (≈1.00x of pure noise on a single-core container), so
/// `perf` records it as `"informational": true` and `--check` neither
/// emits nor compares it as an enforced datapoint.
fn parallel_speedup_is_informational(host_cores: usize, jobs: usize) -> bool {
    host_cores < jobs
}

/// Extracts the value of `"key": value` from a single JSON object line
/// (the self-emitted `BENCH_hotpath.json` is line-oriented; this avoids a
/// JSON dependency the container does not have).
fn json_field<'s>(line: &'s str, key: &str) -> Option<&'s str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Parses the entries of a self-emitted `BENCH_hotpath.json`. Unparsable
/// lines are skipped — the checker then simply has fewer workloads to
/// compare, which it reports.
fn parse_bench_json(text: &str) -> BenchBaseline {
    let mut results = Vec::new();
    let mut parallel = None;
    let mut pool = None;
    let mut deploy = None;
    let mut serve_cache = None;
    let mut serve_concurrent = None;
    let mut fastmath = None;
    let mut replica_batch = None;
    let mut batched_sweep = None;
    for line in text.lines() {
        // Datapoints marked `"informational": true` record a trajectory
        // (e.g. an absolute rate at scale) but are never regression-checked
        // — the explicit opt-out, rather than relying on a line happening
        // to lack some checked field.
        if json_field(line, "informational") == Some("true") {
            continue;
        }
        let (Some(topology), Some(n), Some(f), Some(speedup)) = (
            json_field(line, "topology"),
            json_field(line, "n").and_then(|v| v.parse::<usize>().ok()),
            json_field(line, "f").and_then(|v| v.parse::<usize>().ok()),
            json_field(line, "speedup").and_then(|v| v.parse::<f64>().ok()),
        ) else {
            continue;
        };
        if let Some(jobs) = json_field(line, "jobs").and_then(|v| v.parse::<usize>().ok()) {
            // The special datapoints all record a job count; each is
            // recognized by a field only it emits.
            if json_field(line, "pooled_steps_per_sec").is_some() {
                pool = Some((n, jobs, speedup));
            } else if json_field(line, "threaded_steps_per_sec").is_some() {
                deploy = Some((n, jobs, speedup));
            } else if json_field(line, "warm_hits_per_sec").is_some() {
                serve_cache = Some((n, jobs, speedup));
            } else if json_field(line, "concurrent_hits_per_sec").is_some() {
                serve_concurrent = Some((n, jobs, speedup));
            } else if json_field(line, "fast_updates_per_sec").is_some() {
                fastmath = Some((n, jobs, speedup));
            } else if json_field(line, "batched_replica_steps_per_sec").is_some() {
                replica_batch = Some((n, jobs, speedup));
            } else if json_field(line, "batched_cells_per_sec").is_some() {
                batched_sweep = Some((n, jobs, speedup));
            } else {
                parallel = Some((n, jobs, speedup));
            }
        } else {
            results.push(BenchEntry {
                topology: topology.to_string(),
                n,
                f,
                speedup,
            });
        }
    }
    BenchBaseline {
        results,
        parallel,
        pool,
        deploy,
        serve_cache,
        serve_concurrent,
        fastmath,
        replica_batch,
        batched_sweep,
    }
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
            "--parallel",
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
    fn check_parallel_flag() {
        let edge_list = run(&argv(&["generate", "complete", "9"])).unwrap();
        let path = write_graph("k9", &edge_list);
        let report = run(&argv(&["check", &path, "--f", "2", "--parallel", "4"])).unwrap();
        assert!(report.contains("satisfied"));
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
        // fastmath_scalar, replica_batch, and batched_sweep datapoints.
        assert_eq!(json.matches("\"topology\"").count(), 17, "{json}");
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
        // The scalar kernel faceoff is recorded but check-exempt; the
        // enforced fastmath line measures the columnar merge-network path.
        let scalar_line = json
            .lines()
            .find(|l| l.contains("\"fastmath_scalar\""))
            .unwrap();
        assert!(
            scalar_line.contains("\"informational\": true"),
            "{scalar_line}"
        );
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
    fn bench_baseline_parser_obeys_the_informational_marker() {
        // An informational line is skipped even if it DOES carry every
        // checked field — the marker, not a missing field, is the rule.
        let text = concat!(
            "  \"deploy_scale\": {\"topology\": \"circulant\", \"n\": 9, \"f\": 1, ",
            "\"jobs\": 4, \"informational\": true, \"speedup\": 99.0},\n",
            "  \"fastmath\": {\"topology\": \"rows\", \"n\": 16, \"f\": 2, \"jobs\": 4, ",
            "\"exact_updates_per_sec\": 1.0, \"fast_updates_per_sec\": 2.0, ",
            "\"speedup\": 2.0},\n",
            "  \"replica_batch\": {\"topology\": \"complete\", \"n\": 96, \"f\": 3, ",
            "\"jobs\": 4, \"dispatch_replica_steps_per_sec\": 1.0, ",
            "\"batched_replica_steps_per_sec\": 3.0, \"speedup\": 3.0},\n",
        );
        let baseline = parse_bench_json(text);
        assert!(
            baseline.parallel.is_none(),
            "informational line must not fall through"
        );
        assert_eq!(baseline.fastmath, Some((16, 4, 2.0)));
        assert_eq!(baseline.replica_batch, Some((96, 4, 3.0)));
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
