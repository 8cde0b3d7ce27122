//! Bench: the structural probes beyond the core checker — (r, s)-robustness,
//! vertex connectivity, minimality pruning, and satisfying-by-construction
//! growth: the cost side of experiments X4 and X7.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use iabc_core::construction::{grow_satisfying, Attachment};
use iabc_core::{minimality, robustness};
use iabc_graph::{algorithms, generators};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_robustness(c: &mut Criterion) {
    let mut group = c.benchmark_group("robustness");
    for n in [7usize, 9, 11] {
        let g = generators::core_network(n, 2);
        group.bench_function(format!("is_robust_5_1/core{n}"), |b| {
            b.iter(|| black_box(robustness::is_robust(&g, 5, 1)))
        });
    }
    let g = generators::chord(9, 5);
    group.bench_function("max_r/chord9", |b| {
        b.iter(|| black_box(robustness::max_r_robustness(&g)))
    });
    group.finish();
}

fn bench_connectivity(c: &mut Criterion) {
    let mut group = c.benchmark_group("connectivity");
    for d in [3u32, 4, 5] {
        let g = generators::hypercube(d);
        group.bench_function(format!("hypercube_d{d}"), |b| {
            b.iter(|| black_box(algorithms::vertex_connectivity(&g)))
        });
    }
    group.finish();
}

fn bench_minimality(c: &mut Criterion) {
    let mut group = c.benchmark_group("minimality");
    group.sample_size(20);
    let k5 = generators::complete(5);
    group.bench_function("critical_edges/K5_f1", |b| {
        b.iter(|| black_box(minimality::critical_edges(&k5, 1).len()))
    });
    group.bench_function("prune/K5_f1", |b| {
        b.iter(|| black_box(minimality::prune_to_minimal(&k5, 1)))
    });
    group.finish();
}

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction");
    for n in [16usize, 64, 256] {
        group.bench_function(format!("grow_uniform/n{n}_f2"), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                black_box(grow_satisfying(n, 2, Attachment::Uniform, &mut rng))
            })
        });
    }
    group.bench_function("grow_preferential/n64_f2", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            black_box(grow_satisfying(64, 2, Attachment::Preferential, &mut rng))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_robustness,
    bench_connectivity,
    bench_minimality,
    bench_construction
);
criterion_main!(benches);
