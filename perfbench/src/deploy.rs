//! `deploy`: `CompiledTopology::circulant(10⁶, 8)` with the first two nodes
//! faulty, driven by a `MultiplexedDeployment` under `ConstantLiar` and
//! `LocalTransport`, one timed `tick()` per round.
//!
//! Delivery is instant, so this measures processor time only. The inputs
//! are fixed, so the seed does not change this workload.

use std::time::{Duration, Instant};

use iabc_graph::{CompiledTopology, NodeSet};
use iabc_runtime::{ConstantLiar, LocalTransport, MultiplexConfig, MultiplexedDeployment};

use crate::trace::{median, median_of, ms, Metric, Outcome, Tracer};
use crate::Ctx;

pub const NODES: usize = 1_000_000;
pub const DEGREE: usize = 8;
pub const F: usize = 2;
/// Round budget handed to the deployment; the window ends long before it.
const ROUND_CAP: usize = 1_000_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Tick after which the state checksum is compared with the pin.
pub const CHECKPOINT: usize = 10;
/// State checksum after [`CHECKPOINT`] ticks, recorded from the seed commit.
pub const PINNED_CHECKSUM: u64 = 0x8480_7351_a895_65ca;

/// The same order-sensitive bitwise digest `iabc deploy` prints.
pub fn checksum(states: &[f64]) -> u64 {
    states
        .iter()
        .fold(0u64, |acc, v| acc.rotate_left(7) ^ v.to_bits())
}

/// Spread of the fault-free states (nodes `F..`).
pub fn honest_range(states: &[f64]) -> f64 {
    let honest = &states[F..];
    let lo = honest.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = honest.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    hi - lo
}

pub fn check_checksum(states: &[f64]) -> Result<(), String> {
    let got = checksum(states);
    if got == PINNED_CHECKSUM {
        Ok(())
    } else {
        Err(format!(
            "state checksum after {CHECKPOINT} ticks {got:016x} != pinned {PINNED_CHECKSUM:016x}"
        ))
    }
}

pub fn check_shrinks(before: f64, after: f64) -> Result<(), String> {
    if after < before {
        Ok(())
    } else {
        Err(format!("honest range did not shrink: {before} -> {after}"))
    }
}

fn inputs() -> Vec<f64> {
    (0..NODES).map(|i| ((i * 37) % 1000) as f64).collect()
}

fn build_topology(tracer: &Tracer) -> CompiledTopology {
    let faults = NodeSet::from_indices(NODES, 0..F);
    tracer.span("graph.circulant", None, || {
        CompiledTopology::circulant(NODES, DEGREE, &faults)
    })
}

fn deployment<'a>(
    topology: &'a CompiledTopology,
    inputs: &[f64],
    jobs: usize,
    tracer: &Tracer,
) -> MultiplexedDeployment<'a, LocalTransport> {
    tracer.span("runtime.new", None, || {
        MultiplexedDeployment::new(
            topology,
            inputs,
            F,
            ROUND_CAP,
            |_| Box::new(ConstantLiar { value: 1e6 }),
            LocalTransport,
            MultiplexConfig {
                jobs,
                shared_pool: true,
                ..MultiplexConfig::default()
            },
        )
        .expect("the circulant deployment is valid")
    })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome::default();
    let tracer = &ctx.tracer;
    let inputs = inputs();

    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let start = Instant::now();
        let topology = build_topology(tracer);
        let dep = deployment(&topology, &inputs, ctx.jobs, tracer);
        setups.push(start.elapsed());
        drop(dep);
    }
    let start = Instant::now();
    let topology = build_topology(tracer);
    let mut dep = deployment(&topology, &inputs, ctx.jobs, tracer);
    setups.push(start.elapsed());
    let range_before = honest_range(&inputs);

    let mut ticks: Vec<Duration> = Vec::new();
    let tick =
        |dep: &mut MultiplexedDeployment<'_, LocalTransport>, outcome: &mut Outcome| -> Duration {
            let start = Instant::now();
            let result = dep.tick();
            let end = Instant::now();
            tracer.record("runtime.tick", None, start, end);
            outcome.check(result.map_err(|e| format!("tick failed: {e}")));
            if outcome.attempted as usize == CHECKPOINT {
                let result = check_checksum(&dep.states());
                if let Err(why) = result {
                    outcome.fail(why);
                }
            }
            end - start
        };
    // The first tick faults in every mailbox page: warm-up, untimed.
    tick(&mut dep, &mut outcome);
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < ctx.seconds {
        ticks.push(tick(&mut dep, &mut outcome));
    }
    let wall = window.elapsed();
    // A slow host still reaches the checkpoint, untimed.
    while (outcome.attempted as usize) < CHECKPOINT {
        tick(&mut dep, &mut outcome);
    }
    let range_after = honest_range(&dep.states());
    if let Err(why) = check_shrinks(range_before, range_after) {
        outcome.fail(why);
    }
    // Every worker thread of the process, ever: the pool spawns once.
    let spawned = iabc_exec::total_threads_spawned();
    if spawned != ctx.jobs - 1 {
        outcome.fail(format!(
            "{spawned} pool threads spawned, expected jobs - 1 = {}",
            ctx.jobs - 1
        ));
    }

    let tick_ms: Vec<f64> = ticks.iter().map(|&d| ms(d)).collect();
    let n = ticks.len();
    outcome.setups = setups.iter().map(Duration::as_secs_f64).collect();
    outcome.op = "tick";
    outcome.latencies_ms = tick_ms.clone();
    outcome.items = n;
    outcome.busy = ticks.iter().sum();
    outcome
        .notes
        .push(format!("honest range {range_before} -> {range_after:.6e}"));

    if tracer.enabled() {
        let circulant = tracer.durations("graph.circulant");
        let new = tracer.durations("runtime.new");
        let tick_spans = tracer.durations("runtime.tick");
        let max_tick = tick_ms.iter().copied().fold(0.0, f64::max);
        outcome.per_layer = vec![
            Metric::sampled(
                "graph.circulant_ms",
                median_of(&circulant, ms),
                "ms",
                circulant.len(),
            ),
            Metric::sampled("runtime.new_ms", median_of(&new, ms), "ms", new.len()),
            Metric::sampled("runtime.tick_ms.p50", median(&tick_ms), "ms", n),
            Metric::sampled("runtime.tick_ms.max", max_tick, "ms", n),
            Metric::new("exec.threads_spawned", spawned as f64, "count"),
        ];
        let covered: Duration = tick_spans.iter().skip(1).take(n).sum();
        outcome.notes.push(format!(
            "coverage: sum of runtime.tick spans / tick-loop wall = {:.4}",
            covered.as_secs_f64() / wall.as_secs_f64()
        ));
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_and_bit_sensitive() {
        let a = [1.0, 2.0, 3.0];
        assert_ne!(checksum(&a), checksum(&[2.0, 1.0, 3.0]));
        assert_ne!(
            checksum(&a),
            checksum(&[1.0, 2.0, 3.0 + f64::EPSILON * 4.0])
        );
    }

    #[test]
    fn the_checkpoint_matches_the_pin_and_one_corrupted_state_fails_it() {
        let tracer = Tracer::new(false);
        let inputs = inputs();
        let topology = build_topology(&tracer);
        let mut dep = deployment(&topology, &inputs, 1, &tracer);
        for _ in 0..CHECKPOINT {
            dep.tick().unwrap();
        }
        let mut states = dep.states();
        assert_eq!(check_checksum(&states), Ok(()));
        states[NODES / 2] += 1e-9;
        assert!(check_checksum(&states).is_err());
    }

    #[test]
    fn a_range_that_does_not_shrink_fails() {
        assert!(check_shrinks(999.0, 3.0).is_ok());
        assert!(check_shrinks(999.0, 999.0).is_err());
    }
}
