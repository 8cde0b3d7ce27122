//! Bench: full-simulation throughput (rounds of Algorithm 1 per second)
//! under a stateful adversary, across network sizes.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use iabc_bench::simulation_grid;
use iabc_core::rules::TrimmedMean;
use iabc_graph::NodeSet;
use iabc_sim::adversary::{ExtremesAdversary, PullAdversary};
use iabc_sim::Scenario;

fn bench_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation_20rounds");
    for w in simulation_grid() {
        let n = w.graph.node_count();
        let inputs: Vec<f64> = (0..n).map(|i| (i % 10) as f64).collect();
        // Fault the two highest-numbered nodes (outer nodes of the core network).
        let faults = NodeSet::from_indices(n, [n - 1, n - 2]);
        let rule = TrimmedMean::new(w.f);
        group.bench_function(&w.name, |b| {
            b.iter(|| {
                let mut sim = Scenario::on(&w.graph)
                    .inputs(&inputs)
                    .faults(faults.clone())
                    .rule(&rule)
                    .adversary(Box::new(ExtremesAdversary::new(10.0)))
                    .synchronous()
                    .expect("valid sim");
                for _ in 0..20 {
                    sim.step().expect("step succeeds");
                }
                black_box(sim.honest_range())
            })
        });
    }
    group.finish();
}

fn bench_convergence_to_eps(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation_to_eps1e-3");
    group.sample_size(20);
    for w in simulation_grid().into_iter().take(3) {
        let n = w.graph.node_count();
        let inputs: Vec<f64> = (0..n).map(|i| (i % 10) as f64).collect();
        let faults = NodeSet::from_indices(n, [n - 1, n - 2]);
        let rule = TrimmedMean::new(w.f);
        group.bench_function(&w.name, |b| {
            b.iter(|| {
                let mut sim = Scenario::on(&w.graph)
                    .inputs(&inputs)
                    .faults(faults.clone())
                    .rule(&rule)
                    .adversary(Box::new(PullAdversary::new(false)))
                    .synchronous()
                    .expect("valid sim");
                let mut rounds = 0usize;
                while sim.honest_range() > 1e-3 && rounds < 10_000 {
                    sim.step().expect("step succeeds");
                    rounds += 1;
                }
                black_box(rounds)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rounds, bench_convergence_to_eps);
criterion_main!(benches);
