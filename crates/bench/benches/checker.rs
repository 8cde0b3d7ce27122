//! Bench: exact Theorem 1 checking cost across families and sizes, plus the
//! sequential/parallel and heuristic variants.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use iabc_bench::checker_grid;
use iabc_core::{search, theorem1, Threshold};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_exact_checker(c: &mut Criterion) {
    let mut group = c.benchmark_group("theorem1_exact");
    for w in checker_grid() {
        group.bench_function(&w.name, |b| {
            b.iter(|| black_box(theorem1::check(black_box(&w.graph), w.f)))
        });
    }
    group.finish();
}

fn bench_parallel_checker(c: &mut Criterion) {
    let mut group = c.benchmark_group("theorem1_parallel4");
    // Only the largest satisfying workloads, where parallelism matters.
    for w in checker_grid()
        .into_iter()
        .filter(|w| w.graph.node_count() >= 11)
    {
        group.bench_function(&w.name, |b| {
            b.iter(|| {
                black_box(theorem1::check_parallel(
                    black_box(&w.graph),
                    w.f,
                    Threshold::synchronous(w.f),
                    4,
                ))
            })
        });
    }
    group.finish();
}

fn bench_falsifier(c: &mut Criterion) {
    let mut group = c.benchmark_group("falsifier_100trials");
    for w in checker_grid() {
        group.bench_function(&w.name, |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                black_box(search::falsify(
                    black_box(&w.graph),
                    w.f,
                    Threshold::synchronous(w.f),
                    100,
                    &mut rng,
                ))
            })
        });
    }
    group.finish();
}

fn bench_quick_checks(c: &mut Criterion) {
    let mut group = c.benchmark_group("corollary_fast_paths");
    for w in checker_grid() {
        group.bench_function(&w.name, |b| {
            b.iter(|| {
                black_box(iabc_core::corollaries::quick_violation(
                    black_box(&w.graph),
                    w.f,
                    Threshold::synchronous(w.f),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_exact_checker,
    bench_parallel_checker,
    bench_falsifier,
    bench_quick_checks
);
criterion_main!(benches);
