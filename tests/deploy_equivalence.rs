//! The multiplexed deployment tier is pinned to BOTH references: the
//! threaded runtime (same wire-level protocol, different execution
//! substrate) and the deterministic engine (same arithmetic, no
//! concurrency at all). Equality is bitwise `f64` equality — the protocol
//! is one function, and neither mailboxes, tick scheduling, nor the worker
//! count may change a single bit of any trajectory.

use iabc::core::rules::TrimmedMean;
use iabc::graph::{generators, CompiledTopology, Digraph, NodeId, NodeSet};
use iabc::runtime::{
    run_multiplexed, run_threaded, ConstantLiar, InboxExtremist, LocalByzantine, LocalTransport,
    MultiplexConfig, MultiplexedDeployment, SplitBrainLiar,
};
use iabc::sim::adversary::ConstantAdversary;
use iabc::sim::Simulation;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dense random digraph that keeps every in-degree at or above `floor`, so
/// the trim rule always has survivors.
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

/// The three deployable Byzantine behaviors, by family id.
fn behavior_from_id(id: u8, n: usize, lie: f64) -> Box<dyn LocalByzantine> {
    match id % 3 {
        0 => Box::new(ConstantLiar { value: lie }),
        1 => Box::new(SplitBrainLiar {
            left: NodeSet::from_indices(n, (0..n).filter(|i| i % 2 == 0)),
            right: NodeSet::from_indices(n, (0..n).filter(|i| i % 2 == 1)),
            m_minus: -lie.abs() - 1.0,
            m_plus: lie.abs() + 1.0,
            mid: 0.0,
        }),
        _ => Box::new(InboxExtremist { delta: lie.abs() }),
    }
}

/// Golden lockstep: under `LocalTransport` every tick advances every node
/// exactly one round, so after tick `t` the multiplexed honest states must
/// equal the engine's states after `t` steps — bit for bit, mid-run, not
/// just at the end.
#[test]
fn multiplexed_ticks_lockstep_with_the_engine() {
    let n = 9;
    let f = 2;
    let rounds = 12;
    let g = generators::complete(n);
    let inputs: Vec<f64> = (0..n).map(|i| (i as f64) * 3.5 - 10.0).collect();
    let faults = NodeSet::from_indices(n, [7, 8]);
    let lie = 1e7;

    let topology = CompiledTopology::compile(&g, &faults);
    let mut deployment = MultiplexedDeployment::new(
        &topology,
        &inputs,
        f,
        rounds,
        |_| Box::new(ConstantLiar { value: lie }),
        LocalTransport,
        MultiplexConfig {
            jobs: 3,
            ..Default::default()
        },
    )
    .expect("deployment constructs");

    let rule = TrimmedMean::new(f);
    let mut sim = Simulation::new(
        &g,
        &inputs,
        faults.clone(),
        &rule,
        Box::new(ConstantAdversary::new(lie)),
    )
    .expect("engine constructs");

    for round in 1..=rounds {
        deployment.tick().expect("tick succeeds");
        sim.step().expect("engine step succeeds");
        let deployed = deployment.states();
        let engine = sim.states();
        for i in 0..n {
            if !faults.contains(NodeId::new(i)) {
                assert_eq!(
                    deployed[i].to_bits(),
                    engine[i].to_bits(),
                    "node {i} diverged at round {round}"
                );
            }
        }
    }
    assert!(deployment.finished());
}

/// The scale smoke: a hundred thousand nodes on a handful of OS threads.
/// No `Digraph` is ever built — the CSR comes straight from the circulant
/// structure — and the executor proves the thread count is `jobs`, not `n`.
#[test]
fn hundred_thousand_nodes_on_a_handful_of_threads() {
    let n = 100_000;
    let f = 2;
    let jobs = 4;
    let faults = NodeSet::from_indices(n, 0..f);
    let topology = CompiledTopology::circulant(n, 8, &faults);
    let inputs: Vec<f64> = (0..n).map(|i| ((i * 37) % 1000) as f64).collect();

    let mut deployment = MultiplexedDeployment::new(
        &topology,
        &inputs,
        f,
        3,
        |_| Box::new(ConstantLiar { value: 1e6 }),
        LocalTransport,
        MultiplexConfig {
            jobs,
            ..Default::default()
        },
    )
    .expect("deployment constructs");
    assert_eq!(
        deployment.pool_threads_spawned(),
        jobs - 1,
        "worker count must track --jobs, not the node count"
    );
    let report = deployment.run().expect("run succeeds");
    assert_eq!(report.rounds, 3);
    // Validity at scale: honest finals stay inside the honest input hull.
    for i in f..n {
        assert!(
            (0.0..=999.0).contains(&report.final_states[i]),
            "node {i} left the input hull: {}",
            report.final_states[i]
        );
    }
}

/// The `iabc deploy` path pinned by its printed checksum: a 50k-node
/// circulant, 10 rounds. A mailbox layout or scheduling mistake changes a
/// bit of some state and fails here. The CLI runs on the process-level
/// pool, which its first user sizes, so the `--jobs 3` run goes first.
#[test]
fn deploy_cli_prints_the_pinned_50k_checksum() {
    for jobs in ["3", "1"] {
        let argv: Vec<String> = [
            "deploy", "--nodes", "50000", "--degree", "8", "--f", "2", "--rounds", "10", "--jobs",
            jobs,
        ]
        .map(String::from)
        .to_vec();
        let out = iabc_cli::run(&argv).expect("deploy runs");
        assert!(
            out.contains("state checksum: fd813d553fb60f26\n"),
            "--jobs {jobs}: {out}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Threaded and multiplexed deployments agree on the full report —
    /// rounds, every final state, fault set — over random digraphs, all
    /// three deployable Byzantine behaviors, and worker counts from
    /// serial to oversubscribed.
    #[test]
    fn threaded_and_multiplexed_agree_on_random_digraphs(
        n in 6usize..12,
        seed in 0u64..1_000,
        behavior_id in 0u8..3,
        lie in 1.0f64..1e6,
        jobs in 1usize..6,
        rounds in 1usize..10,
    ) {
        let f = 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph_with_floor(n, 3 * f + 1, 0.7, &mut rng);
        let inputs: Vec<f64> = (0..n).map(|_| rng.random_range(-100.0..100.0)).collect();
        let faulty = rng.random_range(0..n);
        let faults = NodeSet::from_indices(n, [faulty]);

        let threaded = run_threaded(&g, &inputs, &faults, f, rounds, |_| {
            behavior_from_id(behavior_id, n, lie)
        });
        let multiplexed = run_multiplexed(&g, &inputs, &faults, f, rounds, |_| {
            behavior_from_id(behavior_id, n, lie)
        }, jobs);

        match (threaded, multiplexed) {
            (Ok(t), Ok(m)) => prop_assert_eq!(t, m),
            (Err(t), Err(m)) => prop_assert_eq!(t.to_string(), m.to_string()),
            (t, m) => prop_assert!(false, "modes disagree: {:?} vs {:?}", t, m),
        }
    }
}
