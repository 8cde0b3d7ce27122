//! Smoke test for the parallel sweep runner: every paper experiment
//! (E1–E12) runs through the sweep fan-out, and serial vs parallel
//! execution produce **bit-identical** tables — the determinism contract
//! the per-cell coordinate-derived seeding is supposed to guarantee.

use iabc::analysis::batched::run_census_conv_sweep;
use iabc::analysis::sweep::{
    run_census_sweep, run_experiment_sweep, run_monte_carlo_sweep, MonteCarloSpec,
};

const PARALLEL_JOBS: usize = 4;

#[test]
fn e1_to_e12_through_sweep_runner_serial_equals_parallel() {
    let (serial_summary, serial) = run_experiment_sweep(&[], 1);
    let (parallel_summary, parallel) = run_experiment_sweep(&[], PARALLEL_JOBS);

    // All twelve paper experiments ran, in grid order, and passed.
    let ids: Vec<&str> = serial.iter().map(|o| o.value.id.as_str()).collect();
    assert_eq!(
        ids,
        ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"]
    );
    for outcome in &serial {
        assert!(
            outcome.value.pass,
            "{} failed under sweep",
            outcome.value.id
        );
    }

    // The summary and every per-experiment table render identically.
    assert_eq!(serial_summary.to_string(), parallel_summary.to_string());
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.coords, p.coords);
        assert_eq!(s.seed, p.seed);
        assert_eq!(s.value.id, p.value.id);
        assert_eq!(s.value.pass, p.value.pass);
        assert_eq!(
            s.value.table.to_string(),
            p.value.table.to_string(),
            "experiment {} table differs between serial and parallel runs",
            s.value.id
        );
        assert_eq!(s.value.notes, p.value.notes);
    }
}

#[test]
fn experiment_subset_selection_respects_ids() {
    let ids = vec!["e3".to_string(), "E7".to_string()];
    let (_, outcomes) = run_experiment_sweep(&ids, PARALLEL_JOBS);
    let got: Vec<&str> = outcomes.iter().map(|o| o.value.id.as_str()).collect();
    assert_eq!(got, ["E3", "E7"]);
}

#[test]
fn monte_carlo_sweep_serial_equals_parallel() {
    let spec = MonteCarloSpec {
        ns: vec![5, 6, 7],
        fs: vec![0, 1],
        edge_prob: 0.6,
        trials: 10,
        replicas: 0,
    };
    let serial = run_monte_carlo_sweep(&spec, 1).to_string();
    for jobs in [2, PARALLEL_JOBS, 0] {
        assert_eq!(
            serial,
            run_monte_carlo_sweep(&spec, jobs).to_string(),
            "Monte-Carlo table differs at jobs={jobs}"
        );
    }
}

#[test]
fn census_sweep_serial_equals_parallel() {
    let serial = run_census_sweep(4, &[0, 1], 1).to_string();
    assert_eq!(
        serial,
        run_census_sweep(4, &[0, 1], PARALLEL_JOBS).to_string()
    );
}

#[test]
fn convergence_census_batched_equals_dispatched_at_every_job_count() {
    // The --batch contract: grouping same-spec cells into one
    // replica-batched FastMath run is unobservable in the rendered table,
    // at any worker count.
    let reference = run_census_conv_sweep(8, &[0, 1, 2], 5, 1, false).to_string();
    for jobs in [1, 2, PARALLEL_JOBS] {
        for batch in [false, true] {
            assert_eq!(
                reference,
                run_census_conv_sweep(8, &[0, 1, 2], 5, jobs, batch).to_string(),
                "convergence census differs at jobs={jobs} batch={batch}"
            );
        }
    }
}
