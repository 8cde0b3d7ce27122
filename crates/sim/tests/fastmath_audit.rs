//! FastMath epsilon-audit harness over the adversary-family × rule grid.
//!
//! The FastMath tier's contract is **bit-identity** with the exact tier:
//! `epsilon_audit` steps a [`BatchedSimulation`] against `R` scalar
//! engines in lockstep and requires every state to be bit-equal to the
//! exact tier's after every round: the columnar networks sort
//! byte-identically to the exact sort and fold each lane left to right
//! from `-0.0`, as the exact sum does, and every other row runs the exact
//! rule itself.
//! It runs that audit across every adversary family and every
//! [`FastRule`], on the columnar networks and on the exact-rule rows past
//! them, pins golden convergence behaviour for a reference workload, and
//! proves the harness itself is non-tautological (a deliberately
//! perturbed kernel must FAIL the audit — the CI `fastmath-audit` job
//! runs exactly this file in release mode).

use iabc_core::fastmath::FastRule;
use iabc_graph::{generators, Digraph, NodeSet};
use iabc_sim::adversary::{
    Adversary, ConformingAdversary, ConstantAdversary, CrashAdversary, EchoAdversary,
    ExtremesAdversary, FlipFlopAdversary, NaNAdversary, PolarizingAdversary, PullAdversary,
    RandomAdversary,
};
use iabc_sim::fastmath::{epsilon_audit, AuditError, BatchedSimulation};
use iabc_sim::{RunConfig, Scenario};

const AUDIT_ROUNDS: usize = 12;
const REPLICAS: usize = 4;

/// Replica-major inputs spread across the value range, deterministic.
fn grid_inputs(n: usize) -> Vec<f64> {
    (0..n * REPLICAS)
        .map(|i| ((i * 53) % 97) as f64 * 0.25 - 3.0)
        .collect()
}

/// Replica-major inputs with every replica on the node-major `column`.
fn replicated(column: &[f64]) -> Vec<f64> {
    column
        .iter()
        .flat_map(|&v| std::iter::repeat_n(v, REPLICAS))
        .collect()
}

/// Every adversary family, one factory per name. Each replica gets an
/// independent instance (seeded per replica where the family is random).
fn family_factory(name: &'static str, r: usize) -> Box<dyn Adversary> {
    match name {
        "conforming" => Box::new(ConformingAdversary::new()),
        "constant" => Box::new(ConstantAdversary::new(1e9)),
        "random" => Box::new(RandomAdversary::new(-1e6, 1e6, 41 + r as u64)),
        "extremes" => Box::new(ExtremesAdversary::new(1e6)),
        "pull-low" => Box::new(PullAdversary::new(false)),
        "pull-high" => Box::new(PullAdversary::new(true)),
        "crash" => Box::new(CrashAdversary::new(3)),
        "flip-flop" => Box::new(FlipFlopAdversary::new(5e5)),
        "polarizing" => Box::new(PolarizingAdversary::new()),
        "echo" => Box::new(EchoAdversary::new()),
        "nan" => Box::new(NaNAdversary::new()),
        other => panic!("unknown adversary family {other}"),
    }
}

const FAMILIES: [&str; 11] = [
    "conforming",
    "constant",
    "random",
    "extremes",
    "pull-low",
    "pull-high",
    "crash",
    "flip-flop",
    "polarizing",
    "echo",
    "nan",
];

fn audit_grid_on(graph: &Digraph, faults: &NodeSet, f: usize, inputs: &[f64]) {
    for family in FAMILIES {
        for rule in [
            FastRule::TrimmedMean(f),
            FastRule::TrimmedMidpoint(f),
            FastRule::Mean,
        ] {
            let mut batch =
                BatchedSimulation::new(graph, inputs, faults.clone(), rule, REPLICAS, |r| {
                    family_factory(family, r)
                })
                .expect("grid workload is valid");
            let report = epsilon_audit(&mut batch, |r| family_factory(family, r), AUDIT_ROUNDS)
                .unwrap_or_else(|e| panic!("audit failed for {family} × {}: {e}", rule.name()));
            assert_eq!(report.rounds, AUDIT_ROUNDS, "{family} × {}", rule.name());
        }
    }
}

/// The columnar path: every fault-free in-degree fits the vertical
/// sorting network, so this grid exercises the SIMD sort + vertical
/// reduction under every adversary family and rule. Complete(3) at f = 1
/// trims every value it receives, so its trimmed mean is `own` plus an
/// empty sum: with `-0.0` states that sum's start decides the sign.
#[test]
fn audit_grid_columnar_topology() {
    let g = generators::complete(7);
    let faults = NodeSet::from_indices(7, [5, 6]);
    audit_grid_on(&g, &faults, 2, &grid_inputs(7));
    let g = generators::complete(3);
    let faults = NodeSet::from_indices(3, [2]);
    audit_grid_on(&g, &faults, 1, &replicated(&[-0.0, -0.0, 0.0]));
}

/// The merge-network path: in-degree 39 is past the unrolled networks
/// (32) but inside [`MERGE_MAX_LEN`], so phase 2 sorts 32-blocks and
/// fuses them with the Batcher merge stages — audited under the same
/// grid (trimmed to the noisier families to keep runtime sane). Before
/// the merge networks existed this very topology was the scalar
/// fallback; the construction asserts it no longer is.
#[test]
fn audit_grid_merge_network_topology() {
    let g = generators::complete(40);
    let faults = NodeSet::from_indices(40, [38, 39]);
    let inputs = grid_inputs(40);
    for family in ["conforming", "constant", "random", "nan"] {
        for rule in [FastRule::TrimmedMean(2), FastRule::TrimmedMidpoint(2)] {
            let mut batch =
                BatchedSimulation::new(&g, &inputs, faults.clone(), rule, REPLICAS, |r| {
                    family_factory(family, r)
                })
                .expect("grid workload is valid");
            assert_eq!(
                batch.scalar_fallback_rows(),
                0,
                "in-degree 39 must ride the merge networks"
            );
            let report = epsilon_audit(&mut batch, |r| family_factory(family, r), 8)
                .unwrap_or_else(|e| panic!("audit failed for {family} × {}: {e}", rule.name()));
            assert_eq!(report.rounds, 8, "{family} × {}", rule.name());
        }
    }
}

/// The acceptance topology for the merge-network tier: complete
/// `n = 100` forces in-degree 99 on every fault-free row — past the
/// unrolled networks, inside the merge networks. Every row must stay on
/// the columnar path (no exact-rule rows) and the full audit grid must
/// hold there, with the shared-plan fast path active for the
/// deterministic families.
#[test]
fn audit_grid_merge_network_complete_100() {
    let n = 100;
    let g = generators::complete(n);
    let faults = NodeSet::from_indices(n, [97, 98, 99]);
    let inputs = grid_inputs(n);
    for family in ["conforming", "constant", "pull-high", "random"] {
        for rule in [FastRule::TrimmedMean(3), FastRule::TrimmedMidpoint(3)] {
            let mut batch =
                BatchedSimulation::new(&g, &inputs, faults.clone(), rule, REPLICAS, |r| {
                    family_factory(family, r)
                })
                .expect("grid workload is valid");
            assert_eq!(
                batch.scalar_fallback_rows(),
                0,
                "complete n=100 (in-degree 99) must run columnar, no scalar fallback"
            );
            // The three deterministic families share one adversary plan
            // across replicas; the randomized family must not.
            assert_eq!(
                batch.shared_plan().is_some(),
                family != "random",
                "{family}"
            );
            let report = epsilon_audit(&mut batch, |r| family_factory(family, r), 8)
                .unwrap_or_else(|e| panic!("audit failed for {family} × {}: {e}", rule.name()));
            assert_eq!(report.rounds, 8, "{family} × {}", rule.name());
        }
    }
}

/// The perturbed-kernel canary on the merge-network acceptance topology:
/// the audit at in-degree 99 must not be a tautology either.
#[test]
fn perturbed_kernel_canary_fails_on_complete_100() {
    let n = 100;
    let g = generators::complete(n);
    let faults = NodeSet::from_indices(n, [97, 98, 99]);
    let inputs = grid_inputs(n);
    let mut batch = BatchedSimulation::new(
        &g,
        &inputs,
        faults.clone(),
        FastRule::TrimmedMean(3),
        REPLICAS,
        |r| family_factory("constant", r),
    )
    .expect("grid workload is valid")
    .with_perturbation(1e-9);
    let err = epsilon_audit(&mut batch, |r| family_factory("constant", r), 8)
        .expect_err("perturbed kernel must fail the audit at in-degree 99");
    assert!(
        matches!(err, AuditError::Divergence { round: 1, .. }),
        "expected a first-round divergence, got {err}"
    );
}

/// The rows past the networks: in-degree 139 is past [`MERGE_MAX_LEN`] =
/// 128, so phase 2 runs the exact rule on each replica's decoded row —
/// audited bit for bit like every other row.
#[test]
fn audit_grid_scalar_fallback_topology() {
    let g = generators::complete(140);
    let faults = NodeSet::from_indices(140, [138, 139]);
    let inputs = grid_inputs(140);
    for family in ["conforming", "constant"] {
        for rule in [FastRule::TrimmedMean(2), FastRule::TrimmedMidpoint(2)] {
            let mut batch =
                BatchedSimulation::new(&g, &inputs, faults.clone(), rule, REPLICAS, |r| {
                    family_factory(family, r)
                })
                .expect("grid workload is valid");
            assert_eq!(
                batch.scalar_fallback_rows(),
                138,
                "in-degree 139 is past MERGE_MAX_LEN and must fall back"
            );
            let report = epsilon_audit(&mut batch, |r| family_factory(family, r), 6)
                .unwrap_or_else(|e| panic!("audit failed for {family} × {}: {e}", rule.name()));
            assert_eq!(report.rounds, 6, "{family} × {}", rule.name());
        }
    }
}

/// The audit must not be a tautology: an engine whose kernel is wrong by
/// 1e-9 per update (far past any ULP budget at these magnitudes) has to
/// fail, and fail with a divergence — not an engine error.
#[test]
fn perturbed_kernel_canary_fails_every_family() {
    let g = generators::complete(7);
    let faults = NodeSet::from_indices(7, [5, 6]);
    let inputs = grid_inputs(7);
    for family in ["conforming", "constant", "random"] {
        let mut batch = BatchedSimulation::new(
            &g,
            &inputs,
            faults.clone(),
            FastRule::TrimmedMean(2),
            REPLICAS,
            |r| family_factory(family, r),
        )
        .expect("grid workload is valid")
        .with_perturbation(1e-9);
        let err = epsilon_audit(&mut batch, |r| family_factory(family, r), AUDIT_ROUNDS)
            .expect_err("perturbed kernel must fail the audit");
        assert!(
            matches!(err, AuditError::Divergence { round: 1, .. }),
            "{family}: expected a first-round divergence, got {err}"
        );
    }
}

/// Golden: the reference batched workload (complete(7), f = 2, constant
/// adversary at 1e9, four replicas) converges every replica, at the same
/// round per replica, to states the exact tier accepts within the audit
/// bound. Pins the Monte-Carlo entry point (`Scenario::monte_carlo_batch`)
/// end to end.
#[test]
fn golden_batch_outcome_converges_every_replica() {
    let g = generators::complete(7);
    let faults = NodeSet::from_indices(7, [5, 6]);
    let inputs = grid_inputs(7);
    let mut batch = Scenario::on(&g)
        .inputs(&inputs)
        .faults(faults)
        .monte_carlo_batch(FastRule::TrimmedMean(2), REPLICAS, |_| {
            Box::new(ConstantAdversary::new(1e9))
        })
        .expect("scenario is complete");
    let outcome = batch
        .run(&RunConfig::bounded(1e-9, 200))
        .expect("batched run succeeds");
    assert!(outcome.all_converged(), "outcome: {outcome:?}");
    assert_eq!(outcome.converged_count(), REPLICAS);
    for (r, range) in outcome.final_ranges.iter().enumerate() {
        assert!(*range <= 1e-9, "replica {r} range {range}");
    }
    // Convergence rounds are a golden: deterministic engine, fixed seed-
    // free adversary — any kernel or engine change that shifts them is a
    // behaviour change this test is meant to surface.
    let rounds: Vec<usize> = outcome
        .rounds_to_converge
        .iter()
        .map(|r| r.expect("converged"))
        .collect();
    assert_eq!(rounds.len(), REPLICAS);
    let spread = rounds.iter().max().unwrap() - rounds.iter().min().unwrap();
    assert!(
        spread <= 2,
        "replica convergence rounds diverged unexpectedly: {rounds:?}"
    );
}

/// Golden determinism: the same workload stepped twice produces byte-
/// identical state vectors — the FastMath tier is exactly reproducible
/// (every per-ISA version of the key kernels compiles one portable body,
/// so this golden holds on any host).
#[test]
fn golden_batch_states_are_reproducible() {
    let g = generators::circulant(12, 1..=4);
    let faults = NodeSet::from_indices(12, [11]);
    let inputs = grid_inputs(12);
    let run = || {
        let mut batch = BatchedSimulation::new(
            &g,
            &inputs,
            faults.clone(),
            FastRule::TrimmedMean(1),
            REPLICAS,
            |r| Box::new(RandomAdversary::new(-1e3, 1e3, 7 + r as u64)),
        )
        .expect("workload is valid");
        for _ in 0..10 {
            batch.step().expect("step succeeds");
        }
        batch
            .states()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<u64>>()
    };
    assert_eq!(run(), run());
}
