//! Bench: the baseline rules (Dolev \[5\], W-MSR \[11\]) against Algorithm 1 —
//! per-update cost by in-degree, and end-to-end rounds on a fixed workload,
//! the cost side of experiment X5.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use iabc_baselines::{DolevMidpoint, DolevSelectMean, Wmsr};
use iabc_core::rules::{TrimmedMean, UpdateRule};
use iabc_graph::{generators, NodeSet};
use iabc_sim::adversary::PolarizingAdversary;
use iabc_sim::RunConfig;
use iabc_sim::Scenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn received_values(len: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(len as u64);
    (0..len).map(|_| rng.random_range(-100.0..100.0)).collect()
}

fn bench_update_cost(c: &mut Criterion) {
    let f = 2usize;
    let rules: Vec<(&str, Box<dyn UpdateRule>)> = vec![
        ("algorithm1", Box::new(TrimmedMean::new(f))),
        ("dolev_midpoint", Box::new(DolevMidpoint::new(f))),
        ("dolev_select_mean", Box::new(DolevSelectMean::new(f))),
        ("w_msr", Box::new(Wmsr::new(f))),
    ];
    for in_degree in [8usize, 64, 512] {
        let base = received_values(in_degree);
        let mut group = c.benchmark_group(format!("baseline_update/deg{in_degree}"));
        for (name, rule) in &rules {
            group.bench_function(*name, |b| {
                b.iter_batched(
                    || base.clone(),
                    |mut recv| black_box(rule.update(black_box(0.5), &mut recv)),
                    criterion::BatchSize::SmallInput,
                )
            });
        }
        group.finish();
    }
}

fn bench_end_to_end(c: &mut Criterion) {
    let f = 2usize;
    let g = generators::complete(10);
    let n = g.node_count();
    let inputs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let faults = || NodeSet::from_indices(n, [n - 2, n - 1]);
    let config = RunConfig {
        record_states: false,
        epsilon: 1e-6,
        max_rounds: 10_000,
    };
    let rules: Vec<(&str, Box<dyn UpdateRule>)> = vec![
        ("algorithm1", Box::new(TrimmedMean::new(f))),
        ("dolev_midpoint", Box::new(DolevMidpoint::new(f))),
        ("w_msr", Box::new(Wmsr::new(f))),
    ];
    let mut group = c.benchmark_group("baseline_run/K10_f2_polarizing");
    group.sample_size(30);
    for (name, rule) in &rules {
        group.bench_function(*name, |b| {
            b.iter(|| {
                let out = Scenario::on(&g)
                    .inputs(&inputs)
                    .faults(faults())
                    .rule(rule.as_ref())
                    .adversary(Box::new(PolarizingAdversary::new()))
                    .synchronous()
                    .and_then(|mut sim| sim.run(&config))
                    .expect("run succeeds");
                black_box(out.rounds)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_update_cost, bench_end_to_end);
criterion_main!(benches);
