//! Bench: the second-wave extensions — generalized fault-model checking
//! (X10), the dynamic engine's per-round cost vs the static engine (X11),
//! the quantized rule's overhead over the exact rule (X12), and the vector
//! engine's scaling in the dimension (X13).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use iabc_core::fault_model::{check_model, AdversaryStructure, FaultModel};
use iabc_core::quantized::{QuantizedTrimmedMean, Rounding};
use iabc_core::rules::{TrimmedMean, UpdateRule};
use iabc_graph::{generators, NodeSet};
use iabc_sim::adversary::ExtremesAdversary;
use iabc_sim::dynamic::{RoundRobinSchedule, TopologySchedule};
use iabc_sim::vector::{CoordinateWise, VectorSimulation};
use iabc_sim::Scenario;

/// Fault-model checking: the same graph under Total, a small structure,
/// and Local — the cost spread of coverage-based checking.
fn bench_fault_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_model_check");
    group.sample_size(20);
    let g = generators::core_network(9, 2);
    let n = g.node_count();

    let total = FaultModel::Total(2);
    group.bench_function("total/core9", |b| {
        b.iter(|| black_box(check_model(&g, &total).is_satisfied()))
    });

    let structure = FaultModel::Structure(
        AdversaryStructure::new(
            n,
            vec![
                NodeSet::from_indices(n, [0, 1]),
                NodeSet::from_indices(n, [4, 5]),
                NodeSet::from_indices(n, [8]),
            ],
        )
        .expect("universe agrees"),
    );
    group.bench_function("structure3/core9", |b| {
        b.iter(|| black_box(check_model(&g, &structure).is_satisfied()))
    });

    let local = FaultModel::Local(1);
    let small = generators::core_network(7, 1);
    group.bench_function("local/core7", |b| {
        b.iter(|| black_box(check_model(&small, &local).is_satisfied()))
    });
    group.finish();
}

/// Dynamic vs static engine: the per-run cost of schedule indirection.
fn bench_dynamic_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic_engine_30rounds");
    let g = generators::complete(9);
    let inputs: Vec<f64> = (0..9).map(|i| i as f64).collect();
    let faults = NodeSet::from_indices(9, [7, 8]);
    let rule = TrimmedMean::new(2);

    group.bench_function("static_engine", |b| {
        b.iter(|| {
            let mut sim = Scenario::on(&g)
                .inputs(&inputs)
                .faults(faults.clone())
                .rule(&rule)
                .adversary(Box::new(ExtremesAdversary::new(1e6)))
                .synchronous()
                .expect("sim");
            for _ in 0..30 {
                sim.step().expect("step");
            }
            black_box(sim.honest_range())
        })
    });

    let robin = RoundRobinSchedule::new(
        vec![generators::complete(9), generators::core_network(9, 2)],
        1,
    )
    .expect("schedule");
    group.bench_function("dynamic_engine/round_robin", |b| {
        b.iter(|| {
            let mut sim = Scenario::on(robin.graph_at(1))
                .inputs(&inputs)
                .faults(faults.clone())
                .rule(&rule)
                .adversary(Box::new(ExtremesAdversary::new(1e6)))
                .dynamic(&robin)
                .expect("sim");
            for _ in 0..30 {
                sim.step().expect("step");
            }
            black_box(sim.honest_range())
        })
    });
    group.finish();
}

/// Quantized and structure-aware rules vs the exact rule: per-update
/// overhead of lattice rounding and of coverable-prefix trimming.
fn bench_quantized_rule(c: &mut Criterion) {
    use iabc_core::fault_model::{IdentifiedRule, ModelTrimmedMean};
    use iabc_graph::NodeId;

    let mut group = c.benchmark_group("rule_update_deg16");
    let exact = TrimmedMean::new(2);
    let quantized = QuantizedTrimmedMean::new(2, 1.0 / 256.0, Rounding::Nearest).expect("valid");
    let base: Vec<f64> = (0..16).map(|i| (i as f64) * 0.25 - 2.0).collect();

    group.bench_function("trimmed_mean", |b| {
        b.iter(|| {
            let mut r = base.clone();
            black_box(exact.update(0.5, &mut r).expect("update"))
        })
    });
    group.bench_function("quantized_trimmed_mean", |b| {
        b.iter(|| {
            let mut r = base.clone();
            black_box(quantized.update(0.5, &mut r).expect("update"))
        })
    });

    let g = generators::complete(17);
    let aware = ModelTrimmedMean::new(FaultModel::Structure(
        AdversaryStructure::new(
            17,
            vec![
                NodeSet::from_indices(17, [1, 2]),
                NodeSet::from_indices(17, [5, 6]),
            ],
        )
        .expect("universe"),
    ));
    let with_ids: Vec<(NodeId, f64)> = base
        .iter()
        .enumerate()
        .map(|(i, &v)| (NodeId::new(i), v))
        .collect();
    group.bench_function("model_trimmed_mean/two_racks", |b| {
        b.iter(|| {
            let mut r = with_ids.clone();
            black_box(
                aware
                    .update(&g, NodeId::new(16), 0.5, &mut r)
                    .expect("update"),
            )
        })
    });
    group.finish();
}

/// Vector engine scaling in the dimension `d` (30 rounds on K9).
fn bench_vector_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("vector_engine_30rounds");
    let g = generators::complete(9);
    let faults = NodeSet::from_indices(9, [7, 8]);
    let rule = TrimmedMean::new(2);
    for d in [1usize, 2, 4, 8] {
        let inputs: Vec<Vec<f64>> = (0..9)
            .map(|i| (0..d).map(|k| (i * (k + 1)) as f64).collect())
            .collect();
        group.bench_function(format!("d{d}"), |b| {
            b.iter(|| {
                let advs: Vec<Box<dyn iabc_sim::adversary::Adversary>> = (0..d)
                    .map(|_| Box::new(ExtremesAdversary::new(1e6)) as Box<_>)
                    .collect();
                let mut sim = VectorSimulation::new(
                    &g,
                    &inputs,
                    faults.clone(),
                    &rule,
                    Box::new(CoordinateWise::new(advs)),
                )
                .expect("sim");
                for _ in 0..30 {
                    sim.step().expect("step");
                }
                black_box(sim.honest_ranges())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fault_models,
    bench_dynamic_engine,
    bench_quantized_rule,
    bench_vector_engine
);
criterion_main!(benches);
