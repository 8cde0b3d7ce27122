//! Determinism guard for the persistent-executor parallel paths: for
//! random digraphs, fault sets, and every stateful adversary family, a
//! run at `--jobs ∈ {2, 4, 7}` must be **bit-for-bit identical** to the
//! serial run — final-state f64 bit patterns, round counts, and the
//! validity verdict. Covers the synchronous, model-aware, and dynamic
//! engines (including the dynamic engine's in-place CSR rebuild path,
//! where the per-round plan slots are re-derived), the delay-bounded
//! engine's pooled update phase under every scheduler family, the
//! withholding engine's sub-CSR plan slots over its withheld rows, and
//! the pooled plan fill of every pure adversary family (`Adversary::fill`
//! fanned across the pool vs the same decision inline, across all 12
//! roster entries).
//!
//! The contract under test is the one the two-phase protocol was built
//! for: the adversary's `&mut` work runs serially once per round (all
//! RNG draws happen in slot order, independent of the worker count), and
//! everything fanned across the pool is a pure per-item function — so
//! thread scheduling can never touch a float. A regression test also
//! pins the pool's defining property: worker threads are spawned once
//! per run, never per step.

use iabc::core::fault_model::{FaultModel, ModelTrimmedMean};
use iabc::core::rules::TrimmedMean;
use iabc::graph::{generators, Digraph, NodeId, NodeSet};
use iabc::sim::adversary::{
    Adversary, BroadcastOf, ConformingAdversary, ConstantAdversary, CrashAdversary, EchoAdversary,
    ExtremesAdversary, FlipFlopAdversary, NaNAdversary, PolarizingAdversary, PullAdversary,
    RandomAdversary, SelectiveOmissionAdversary,
};
use iabc::sim::async_engine::{
    DelayBoundedSim, ImmediateScheduler, MaxDelayScheduler, RandomScheduler, Scheduler,
    TargetedScheduler, WithholdingSim,
};
use iabc::sim::dynamic::{DynamicSimulation, RoundRobinSchedule};
use iabc::sim::model_engine::ModelSimulation;
use iabc::sim::{Engine, RunConfig, Scenario, Simulation};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const JOB_COUNTS: [usize; 3] = [2, 4, 7];

/// A random digraph whose every node keeps in-degree ≥ `floor` (so the
/// trimming rule stays total).
fn random_graph_with_floor(n: usize, floor: usize, density: f64, rng: &mut StdRng) -> Digraph {
    let mut g = generators::complete(n);
    for v in 0..n {
        let v = NodeId::new(v);
        for u in 0..n {
            let u = NodeId::new(u);
            if u != v && g.in_degree(v) > floor && !rng.random_bool(density) {
                g.remove_edge(u, v);
            }
        }
    }
    g
}

/// Every adversary family, including the stateful ones whose RNG streams
/// and per-round caches the plan protocol must keep worker-count-free.
fn adversary_from_id(id: u8, n: usize, seed: u64) -> Box<dyn Adversary> {
    match id % 12 {
        0 => Box::new(ConformingAdversary::new()),
        1 => Box::new(ConstantAdversary::new(1e9)),
        2 => Box::new(ExtremesAdversary::new(77.0)),
        3 => Box::new(PullAdversary::new(true)),
        4 => Box::new(NaNAdversary::new()),
        5 => Box::new(RandomAdversary::new(-1e5, 1e5, seed)),
        6 => Box::new(CrashAdversary::new(2)),
        7 => Box::new(FlipFlopAdversary::new(13.0)),
        8 => Box::new(PolarizingAdversary::new()),
        9 => Box::new(EchoAdversary::new()),
        10 => Box::new(BroadcastOf::new(RandomAdversary::new(-500.0, 500.0, seed))),
        _ => Box::new(SelectiveOmissionAdversary::new(
            NodeSet::from_indices(n, [0]),
            -4e8,
        )),
    }
}

struct Workload {
    graph: Digraph,
    inputs: Vec<f64>,
    faults: NodeSet,
    f: usize,
    adv_id: u8,
    seed: u64,
}

fn workload(n: usize, f: usize, density: f64, adv_id: u8, seed: u64) -> Workload {
    let f = f.min((n - 1) / 3);
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = random_graph_with_floor(n, 2 * f + 1, density, &mut rng);
    let inputs: Vec<f64> = (0..n).map(|_| rng.random_range(-100.0..100.0)).collect();
    let mut faults = NodeSet::with_universe(n);
    while faults.len() < f {
        faults.insert(NodeId::new(rng.random_range(0..n)));
    }
    Workload {
        graph,
        inputs,
        faults,
        f,
        adv_id,
        seed,
    }
}

/// (rounds, converged, valid, final-state bit patterns) of a run.
fn fingerprint<E: Engine>(mut engine: E) -> (usize, bool, bool, Vec<u64>) {
    let out = engine.run(&RunConfig::bounded(1e-9, 40)).unwrap();
    let bits = engine.states().iter().map(|v| v.to_bits()).collect();
    (out.rounds, out.converged, out.validity.is_valid(), bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Synchronous engine: serial vs every tested job count.
    #[test]
    fn synchronous_runs_are_bit_identical_across_job_counts(
        n in 6usize..16,
        f in 0usize..3,
        density in 0u8..3,
        adv_id in 0u8..12,
        seed in 0u64..10_000,
    ) {
        let w = workload(n, f, [0.3, 0.6, 0.9][density as usize], adv_id, seed);
        let rule = TrimmedMean::new(w.f);
        let build = |jobs: usize| {
            Simulation::new(
                &w.graph,
                &w.inputs,
                w.faults.clone(),
                &rule,
                adversary_from_id(w.adv_id, n, w.seed),
            )
            .unwrap()
            .with_jobs(jobs)
        };
        let serial = fingerprint(build(1));
        for jobs in JOB_COUNTS {
            let parallel = fingerprint(build(jobs));
            prop_assert_eq!(&serial, &parallel, "jobs = {} diverged", jobs);
        }
    }

    /// Model-aware engine (identity-delivering scratch, structure-aware
    /// trimming): same contract.
    #[test]
    fn model_engine_runs_are_bit_identical_across_job_counts(
        n in 6usize..14,
        f in 0usize..3,
        adv_id in 0u8..12,
        seed in 0u64..10_000,
    ) {
        let w = workload(n, f, 0.8, adv_id, seed);
        let rule = ModelTrimmedMean::new(FaultModel::Total(w.f));
        let build = |jobs: usize| {
            ModelSimulation::new(
                &w.graph,
                &w.inputs,
                w.faults.clone(),
                &rule,
                adversary_from_id(w.adv_id, n, w.seed),
            )
            .unwrap()
            .with_jobs(jobs)
        };
        let serial = fingerprint(build(1));
        for jobs in JOB_COUNTS {
            let parallel = fingerprint(build(jobs));
            prop_assert_eq!(&serial, &parallel, "jobs = {} diverged", jobs);
        }
    }

    /// Dynamic engine with forced rebuild churn: two distinct allocations
    /// of the same graph make the address check rebuild the CSR (and the
    /// plan's slot list) at every dwell boundary; worker count must still
    /// be invisible.
    #[test]
    fn dynamic_rebuild_runs_are_bit_identical_across_job_counts(
        n in 6usize..14,
        f in 0usize..3,
        dwell in 1usize..4,
        adv_id in 0u8..12,
        seed in 0u64..10_000,
    ) {
        let w = workload(n, f, 0.7, adv_id, seed);
        let schedule =
            RoundRobinSchedule::new(vec![w.graph.clone(), w.graph.clone()], dwell).unwrap();
        let rule = TrimmedMean::new(w.f);
        let build = |jobs: usize| {
            DynamicSimulation::new(
                &schedule,
                &w.inputs,
                w.faults.clone(),
                &rule,
                adversary_from_id(w.adv_id, n, w.seed),
            )
            .unwrap()
            .with_jobs(jobs)
        };
        let serial = fingerprint(build(1));
        for jobs in JOB_COUNTS {
            let parallel = fingerprint(build(jobs));
            prop_assert_eq!(&serial, &parallel, "jobs = {} diverged", jobs);
        }
    }

    /// Delay-bounded engine: the pooled update phase (and the planning
    /// tier) must be invisible — serial vs every tested job count, for
    /// every adversary family, under every scheduler family (whose RNG
    /// stream is consumed in the always-serial send phase).
    #[test]
    fn delay_bounded_runs_are_bit_identical_across_job_counts(
        n in 6usize..14,
        f in 0usize..3,
        bound in 1usize..5,
        scheduler_id in 0u8..4,
        adv_id in 0u8..12,
        seed in 0u64..10_000,
    ) {
        let w = workload(n, f, 0.8, adv_id, seed);
        let rule = TrimmedMean::new(w.f);
        let make_scheduler = |id: u8| -> Box<dyn Scheduler> {
            match id % 4 {
                0 => Box::new(ImmediateScheduler),
                1 => Box::new(MaxDelayScheduler),
                2 => Box::new(RandomScheduler::new(seed ^ 0xD31A7)),
                _ => Box::new(TargetedScheduler::new(NodeSet::from_indices(n, [0, 1]))),
            }
        };
        let build = |jobs: usize| {
            DelayBoundedSim::new(
                &w.graph,
                &w.inputs,
                w.faults.clone(),
                &rule,
                adversary_from_id(w.adv_id, n, w.seed),
                make_scheduler(scheduler_id),
                bound,
            )
            .unwrap()
            .with_jobs(jobs)
        };
        let serial = fingerprint(build(1));
        for jobs in JOB_COUNTS {
            let parallel = fingerprint(build(jobs));
            prop_assert_eq!(&serial, &parallel, "jobs = {} diverged", jobs);
        }
    }

    /// Withholding engine: the sub-CSR plan slots must make the pooled
    /// update loop indistinguishable from the old serial sweep —
    /// serial vs every tested job count, for every adversary family.
    /// The in-degree floor of `3f + 1` keeps the trim total after the
    /// adversary withholds `f` messages per node.
    #[test]
    fn withholding_runs_are_bit_identical_across_job_counts(
        n in 8usize..16,
        f in 0usize..3,
        density in 0u8..3,
        adv_id in 0u8..12,
        seed in 0u64..10_000,
    ) {
        let f = f.min((n - 1) / 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_graph_with_floor(n, 3 * f + 1, [0.3, 0.6, 0.9][density as usize], &mut rng);
        let inputs: Vec<f64> = (0..n).map(|_| rng.random_range(-100.0..100.0)).collect();
        let mut faults = NodeSet::with_universe(n);
        while faults.len() < f {
            faults.insert(NodeId::new(rng.random_range(0..n)));
        }
        let build = |jobs: usize| {
            WithholdingSim::new(
                &graph,
                &inputs,
                faults.clone(),
                f,
                adversary_from_id(adv_id, n, seed),
            )
            .unwrap()
            .with_jobs(jobs)
        };
        let serial = fingerprint(build(1));
        for jobs in JOB_COUNTS {
            let parallel = fingerprint(build(jobs));
            prop_assert_eq!(&serial, &parallel, "jobs = {} diverged", jobs);
        }
    }
}

/// The `Scenario::parallel` knob reaches the engine: a parallel-built
/// scenario reproduces the serial golden trajectory exactly.
#[test]
fn scenario_parallel_matches_serial_bitwise() {
    let g = generators::complete(9);
    let inputs: Vec<f64> = (0..9).map(|i| (i * i % 13) as f64).collect();
    let rule = TrimmedMean::new(2);
    let build = |jobs: usize| {
        Scenario::on(&g)
            .inputs(&inputs)
            .fault_nodes([7, 8])
            .rule(&rule)
            .adversary(Box::new(RandomAdversary::new(-50.0, 50.0, 99)))
            .parallel(jobs)
            .synchronous()
            .unwrap()
    };
    let mut serial = build(1);
    let mut parallel = build(4);
    assert_eq!(parallel.jobs(), 4);
    for round in 0..30 {
        serial.step().unwrap();
        parallel.step().unwrap();
        for (i, (a, b)) in serial.states().iter().zip(parallel.states()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "round {} node {i}: serial {a:?} vs parallel {b:?}",
                round + 1
            );
        }
    }
}

/// The pooled plan fill, family by family: at `jobs > 1` the engines fan
/// a pure family's per-edge decision (`Adversary::fill`) across the pool
/// (the stateful ones plan serially through `plan_round`) — either way
/// the run must reproduce the serial trajectory bit-for-bit. `n = 120`
/// exceeds the pool's chunk floor, so the node loop genuinely crosses
/// threads here, under every one of the 12 families.
#[test]
fn planning_tier_is_bit_identical_for_all_twelve_families() {
    let n = 120;
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let graph = random_graph_with_floor(n, 7, 0.25, &mut rng);
    let inputs: Vec<f64> = (0..n).map(|_| rng.random_range(-50.0..50.0)).collect();
    let faults = NodeSet::from_indices(n, [3, 40, 77]);
    let rule = TrimmedMean::new(3);
    for adv_id in 0u8..12 {
        let build = |jobs: usize| {
            Simulation::new(
                &graph,
                &inputs,
                faults.clone(),
                &rule,
                adversary_from_id(adv_id, n, 0x5EED),
            )
            .unwrap()
            .with_jobs(jobs)
        };
        let serial = fingerprint(build(1));
        for jobs in [2usize, 4, 7] {
            let pooled = fingerprint(build(jobs));
            assert_eq!(
                serial, pooled,
                "family {adv_id}: jobs = {jobs} diverged from serial"
            );
        }
    }
}

/// Same, for the delay-bounded engine at a size where the pooled update
/// phase genuinely crosses threads (the small proptest sizes run inline
/// under the chunk floor).
#[test]
fn delay_bounded_pooled_update_is_bit_identical_at_scale() {
    let n = 150;
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let graph = random_graph_with_floor(n, 7, 0.3, &mut rng);
    let inputs: Vec<f64> = (0..n).map(|_| rng.random_range(-50.0..50.0)).collect();
    let faults = NodeSet::from_indices(n, [10, 65, 120]);
    let rule = TrimmedMean::new(3);
    for adv_id in 0u8..12 {
        let build = |jobs: usize| {
            DelayBoundedSim::new(
                &graph,
                &inputs,
                faults.clone(),
                &rule,
                adversary_from_id(adv_id, n, 0xF00D),
                Box::new(RandomScheduler::new(0x5C4ED)),
                3,
            )
            .unwrap()
            .with_jobs(jobs)
        };
        let serial = fingerprint(build(1));
        for jobs in [2usize, 4, 7] {
            let pooled = fingerprint(build(jobs));
            assert_eq!(
                serial, pooled,
                "family {adv_id}: jobs = {jobs} diverged from serial"
            );
        }
    }
}

/// Same, for the withholding engine at a size where the pooled update
/// phase genuinely crosses threads. The pool also pins the executor
/// contract: threads spawn at configuration, never per round.
#[test]
fn withholding_pooled_update_is_bit_identical_at_scale() {
    let n = 150;
    let f = 3;
    let mut rng = StdRng::seed_from_u64(0xA57A);
    let graph = random_graph_with_floor(n, 3 * f + 1, 0.3, &mut rng);
    let inputs: Vec<f64> = (0..n).map(|_| rng.random_range(-50.0..50.0)).collect();
    let faults = NodeSet::from_indices(n, [12, 70, 133]);
    for adv_id in 0u8..12 {
        let build = |jobs: usize| {
            WithholdingSim::new(
                &graph,
                &inputs,
                faults.clone(),
                f,
                adversary_from_id(adv_id, n, 0xB0A7),
            )
            .unwrap()
            .with_jobs(jobs)
        };
        let serial = fingerprint(build(1));
        for jobs in [2usize, 4, 7] {
            let mut sim = build(jobs);
            let pool_id = sim.executor().id();
            assert_eq!(sim.executor().threads_spawned(), jobs - 1);
            let out = sim.run(&RunConfig::bounded(1e-9, 40)).unwrap();
            let bits: Vec<u64> = sim.states().iter().map(|v| v.to_bits()).collect();
            let pooled = (out.rounds, out.converged, out.validity.is_valid(), bits);
            assert_eq!(
                serial, pooled,
                "family {adv_id}: jobs = {jobs} diverged from serial"
            );
            assert_eq!(
                sim.executor().id(),
                pool_id,
                "family {adv_id}: pool rebuilt mid-run"
            );
            assert_eq!(sim.executor().threads_spawned(), jobs - 1);
        }
    }
}

/// The pool's defining property: worker threads are spawned when the
/// engine is configured — once per run — and NEVER again, no matter how
/// many steps execute. (The pre-executor design spawned scoped threads
/// inside every `step()`.) `Executor::id()` is process-unique and minted
/// only by `Executor::new`, so id stability across the run proves the
/// engine never rebuilt its pool mid-run (which is the only way this
/// workspace can spawn fan-out threads — `thread::scope` is gone); it is
/// robust against concurrently running tests, unlike a diff of the
/// process-global spawn counter (which `iabc-exec`'s own serialized unit
/// test performs). `threads_spawned()` then pins the stable pool's size.
#[test]
fn pool_threads_spawn_once_per_run_not_per_step() {
    let n = 200;
    let g = generators::complete(n);
    let inputs: Vec<f64> = (0..n).map(|i| (i % 17) as f64).collect();
    let rule = TrimmedMean::new(2);
    let mut sim = Simulation::new(
        &g,
        &inputs,
        NodeSet::from_indices(n, [5, 6]),
        &rule,
        Box::new(ExtremesAdversary::new(100.0)),
    )
    .unwrap()
    .with_jobs(4);
    let pool_id = sim.executor().id();
    assert_eq!(
        sim.executor().threads_spawned(),
        3,
        "jobs = 4 retains exactly 3 workers (the caller is the 4th)"
    );
    for _ in 0..100 {
        sim.step().unwrap();
    }
    assert_eq!(
        sim.executor().id(),
        pool_id,
        "100 steps must be served by the ONE pool built at configuration"
    );
    assert_eq!(sim.executor().threads_spawned(), 3);

    // The delay-bounded engine shares the executor and the guarantee.
    let mut sim = DelayBoundedSim::new(
        &g,
        &inputs,
        NodeSet::from_indices(n, [5, 6]),
        &rule,
        Box::new(ExtremesAdversary::new(100.0)),
        Box::new(MaxDelayScheduler),
        4,
    )
    .unwrap()
    .with_jobs(4);
    let pool_id = sim.executor().id();
    assert_eq!(sim.executor().threads_spawned(), 3);
    for _ in 0..100 {
        sim.step().unwrap();
    }
    assert_eq!(
        sim.executor().id(),
        pool_id,
        "100 ticks must be served by the ONE pool built at configuration"
    );
    assert_eq!(sim.executor().threads_spawned(), 3);
}

/// `Scenario::parallel` reaches the delay-bounded terminal (it used to be
/// documented serial-only): the knob configures the pool and the run
/// reproduces the serial trajectory bitwise.
#[test]
fn scenario_parallel_reaches_the_delay_terminal() {
    let g = generators::complete(9);
    let inputs: Vec<f64> = (0..9).map(|i| (i * 3 % 11) as f64).collect();
    let rule = TrimmedMean::new(2);
    let build = |jobs: usize| {
        Scenario::on(&g)
            .inputs(&inputs)
            .fault_nodes([7, 8])
            .rule(&rule)
            .adversary(Box::new(RandomAdversary::new(-20.0, 20.0, 11)))
            .parallel(jobs)
            .delay_bounded(Box::new(RandomScheduler::new(23)), 3)
            .unwrap()
    };
    let mut serial = build(1);
    let mut pooled = build(4);
    assert_eq!(pooled.jobs(), 4);
    for round in 0..40 {
        serial.step().unwrap();
        pooled.step().unwrap();
        for (i, (a, b)) in serial.states().iter().zip(pooled.states()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "tick {} node {i}: serial {a:?} vs pooled {b:?}",
                round + 1
            );
        }
    }
}

/// Rule errors are reported deterministically (lowest failing node) for
/// any job count.
#[test]
fn parallel_rule_errors_name_the_lowest_node_deterministically() {
    // A cycle has in-degree 1 < 2f: every honest node fails; the reported
    // node must be the lowest-indexed fault-free one regardless of jobs.
    let g = generators::cycle(64);
    let inputs: Vec<f64> = (0..64).map(|i| i as f64).collect();
    let rule = TrimmedMean::new(1);
    for jobs in [1usize, 2, 4, 7] {
        let mut sim = Simulation::new(
            &g,
            &inputs,
            NodeSet::from_indices(64, [0]),
            &rule,
            Box::new(ConformingAdversary::new()),
        )
        .unwrap()
        .with_jobs(jobs);
        let err = sim.step().unwrap_err();
        match err {
            iabc::sim::SimError::Rule { node, round, .. } => {
                assert_eq!(node, 1, "jobs = {jobs}");
                assert_eq!(round, 1, "jobs = {jobs}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
