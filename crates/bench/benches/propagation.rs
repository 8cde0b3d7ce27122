//! Bench: propagation machinery (Definition 3 closures) and the (r, s)-
//! robustness checker, across sizes.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use iabc_bench::propagation_grid;
use iabc_core::{propagate, robustness, Threshold};
use iabc_graph::{generators, NodeSet};

fn bench_propagates_to(c: &mut Criterion) {
    let mut group = c.benchmark_group("propagates_to");
    for w in propagation_grid() {
        let n = w.graph.node_count();
        // A = the clique (2f + 1 nodes), B = everything else.
        let a = NodeSet::from_indices(n, 0..(2 * w.f + 1));
        let b = a.complement();
        let t = Threshold::synchronous(w.f);
        group.bench_function(&w.name, |bch| {
            bch.iter(|| black_box(propagate::propagates_to(&w.graph, &a, &b, t)))
        });
    }
    group.finish();
}

fn bench_closure(c: &mut Criterion) {
    let mut group = c.benchmark_group("closure");
    for w in propagation_grid() {
        let n = w.graph.node_count();
        let pool = NodeSet::full(n);
        let seed = NodeSet::from_indices(n, 0..(2 * w.f + 1));
        let t = Threshold::synchronous(w.f);
        group.bench_function(&w.name, |bch| {
            bch.iter(|| black_box(propagate::closure(&w.graph, &pool, &seed, t)))
        });
    }
    group.finish();
}

fn bench_robustness(c: &mut Criterion) {
    let mut group = c.benchmark_group("robustness_2f1");
    group.sample_size(10);
    // Exponential checker: keep to small graphs.
    for n in [7usize, 9, 11] {
        let g = generators::core_network(n, 2);
        group.bench_function(format!("core_network/n{n}"), |b| {
            b.iter(|| black_box(robustness::is_robust(&g, 5, 1)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_propagates_to,
    bench_closure,
    bench_robustness
);
criterion_main!(benches);
