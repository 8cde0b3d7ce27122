//! Bench: per-iteration cost of the update rules (Algorithm 1 vs variants)
//! as a function of in-degree.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use iabc_core::rules::{Mean, TrimmedMean, TrimmedMidpoint, UpdateRule, WeightedTrimmedMean};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn received_values(len: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(len as u64);
    (0..len).map(|_| rng.random_range(-100.0..100.0)).collect()
}

fn bench_rules(c: &mut Criterion) {
    let f = 2usize;
    let weighted = WeightedTrimmedMean::new(f, 0.5).expect("valid weight");
    let rules: Vec<(&str, Box<dyn UpdateRule>)> = vec![
        ("trimmed_mean", Box::new(TrimmedMean::new(f))),
        ("mean", Box::new(Mean::new())),
        ("trimmed_midpoint", Box::new(TrimmedMidpoint::new(f))),
        ("weighted_trimmed_mean", Box::new(weighted)),
    ];
    for in_degree in [8usize, 64, 512] {
        let base = received_values(in_degree);
        let mut group = c.benchmark_group(format!("update_rule/deg{in_degree}"));
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

criterion_group!(benches, bench_rules);
criterion_main!(benches);
