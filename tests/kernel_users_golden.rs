//! Bit-for-bit pins for the engines that run on the synchronous kernel
//! besides the `Simulation` family: message transcripts, the §7
//! withholding engine and the coordinate-wise vector engine.
//!
//! `engine_equivalence.rs` pins the withholding and vector engines under
//! constant and extremes adversaries, which draw no randomness and never
//! omit. The cases here cover what those goldens cannot see:
//!
//! * adversaries that draw one RNG value per faulty edge, so any change
//!   in slot order moves the final states;
//! * `CrashAdversary`, which plans omissions only where the engine allows
//!   them — the withholding and vector engines never do;
//! * withholding rows where an honest node has fewer than `f` faulty
//!   in-neighbours (the engine then drops its highest-id honest senders)
//!   and rows of in-degree exactly `3f + 1`;
//! * the text of recorded transcripts, round by round checked against the
//!   retained reference stepper.
//!
//! Every literal was captured from the hand-rolled round loops these
//! engines ran before they moved onto the kernel. The withholding and
//! vector cases also run at `jobs ∈ {2, 3}` and must match the serial run.

use iabc::core::rules::TrimmedMean;
use iabc::graph::fingerprint;
use iabc::graph::{generators, Digraph, NodeId, NodeSet};
use iabc::sim::adversary::{
    Adversary, CrashAdversary, ExtremesAdversary, RandomAdversary, SplitBrainAdversary,
};
use iabc::sim::reference::ReferenceStepper;
use iabc::sim::transcript::record;
use iabc::sim::vector::{CoordinateWise, CornerPullAdversary, VectorSimConfig};
use iabc::sim::{Engine, RunConfig, Scenario, Termination};
use rand::{Rng, SeedableRng};

fn seeded_graph(n: usize, p: f64, seed: u64) -> Digraph {
    generators::erdos_renyi(n, p, &mut rand::rngs::StdRng::seed_from_u64(seed))
}

fn seeded_inputs(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.random_range(-10.0..10.0)).collect()
}

/// Records `rounds` rounds, checks every round's states against the
/// reference stepper bit for bit, and returns the FNV-1a of the text.
fn transcript_fingerprint(
    g: &Digraph,
    inputs: &[f64],
    faults: &NodeSet,
    f: usize,
    make_adversary: &dyn Fn() -> Box<dyn Adversary>,
    rounds: usize,
) -> u64 {
    let rule = TrimmedMean::new(f);
    let mut adversary = make_adversary();
    let t = record(g, inputs, faults.clone(), &rule, adversary.as_mut(), rounds).unwrap();
    assert_eq!(t.rounds.len(), rounds);
    let mut reference =
        ReferenceStepper::new(g, inputs, faults.clone(), &rule, make_adversary()).unwrap();
    for rt in &t.rounds {
        reference.step().unwrap();
        let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&rt.states_after),
            bits(reference.states()),
            "round {} diverged from the reference stepper",
            rt.round
        );
    }
    fingerprint::bytes(t.to_text().as_bytes())
}

#[test]
fn recorded_transcripts_are_pinned() {
    let k7 = generators::complete(7);
    let k7_inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0];
    let k7_faults = NodeSet::from_indices(7, [5, 6]);
    let extremes = transcript_fingerprint(
        &k7,
        &k7_inputs,
        &k7_faults,
        2,
        &|| Box::new(ExtremesAdversary::new(50.0)),
        12,
    );
    let crash = transcript_fingerprint(
        &k7,
        &k7_inputs,
        &k7_faults,
        2,
        &|| Box::new(CrashAdversary::new(2)),
        5,
    );

    let chord = generators::chord(7, 5);
    let w = iabc::core::theorem1::find_violation(&chord, 2).expect("chord(7,5) violates f = 2");
    let mut chord_inputs = vec![0.5; 7];
    for v in w.left.iter() {
        chord_inputs[v.index()] = 0.0;
    }
    for v in w.right.iter() {
        chord_inputs[v.index()] = 1.0;
    }
    let split = transcript_fingerprint(
        &chord,
        &chord_inputs,
        &w.fault_set,
        2,
        &|| Box::new(SplitBrainAdversary::from_witness(&w, 0.0, 1.0, 0.5)),
        50,
    );

    let g = seeded_graph(12, 0.5, 12);
    let random = transcript_fingerprint(
        &g,
        &seeded_inputs(12, 4),
        &NodeSet::from_indices(12, [10, 11]),
        2,
        &|| Box::new(RandomAdversary::new(-100.0, 100.0, 9)),
        30,
    );
    assert_eq!(
        [extremes, split, crash, random],
        [
            9538051985281247631,
            80897531899744372,
            7819624423824020626,
            16817442024521129511
        ],
        "transcript text drifted"
    );
}

/// One withholding golden: the seeded graph, the pinned outcome.
struct WithholdingCase {
    n: usize,
    f: usize,
    p: f64,
    seed: u64,
}

impl WithholdingCase {
    fn graph(&self) -> Digraph {
        seeded_graph(self.n, self.p, self.seed)
    }

    /// `f + 1` faulty nodes: with at most `f` the engine withholds every
    /// faulty message and the adversary never speaks.
    fn faults(&self) -> NodeSet {
        NodeSet::from_indices(self.n, self.n - self.f - 1..self.n)
    }

    /// The rows this case exists to cover: some honest node hears from
    /// fewer than `f` faulty senders, another has in-degree `3f + 1`, and
    /// some hear from more than `f`, so adversary messages are delivered.
    fn assert_covers_the_edge_rows(&self) {
        let (g, faults) = (self.graph(), self.faults());
        let honest: Vec<NodeId> = g.nodes().filter(|v| !faults.contains(*v)).collect();
        let faulty_in = |v: NodeId| {
            g.in_neighbors(v)
                .iter()
                .filter(|j| faults.contains(*j))
                .count()
        };
        assert!(honest.iter().all(|&v| g.in_degree(v) >= 3 * self.f));
        assert!(honest.iter().any(|&v| faulty_in(v) < self.f));
        assert!(honest.iter().any(|&v| g.in_degree(v) == 3 * self.f + 1));
        assert!(honest.iter().any(|&v| faulty_in(v) > self.f));
    }

    fn run(&self, adversary: Box<dyn Adversary>, jobs: usize) -> (usize, Termination, u64) {
        let g = self.graph();
        let mut sim = Scenario::on(&g)
            .inputs(&seeded_inputs(self.n, self.seed + 100))
            .faults(self.faults())
            .adversary(adversary)
            .parallel(jobs)
            .withholding(self.f)
            .unwrap();
        let out = sim.run(&RunConfig::bounded(1e-9, 500)).unwrap();
        (
            out.rounds,
            out.termination,
            fingerprint::state_bits(sim.states()),
        )
    }
}

#[test]
fn withholding_under_random_and_crash_adversaries_is_pinned() {
    let cases = [
        WithholdingCase {
            n: 12,
            f: 2,
            p: 0.7,
            seed: 30,
        },
        WithholdingCase {
            n: 10,
            f: 1,
            p: 0.6,
            seed: 3,
        },
    ];
    let mut seen = Vec::new();
    for case in &cases {
        case.assert_covers_the_edge_rows();
        let random = || Box::new(RandomAdversary::new(-50.0, 50.0, 3)) as Box<dyn Adversary>;
        let crash = || Box::new(CrashAdversary::new(2)) as Box<dyn Adversary>;
        for make in [&random as &dyn Fn() -> Box<dyn Adversary>, &crash] {
            let serial = case.run(make(), 1);
            for jobs in [2, 3] {
                assert_eq!(case.run(make(), jobs), serial, "jobs = {jobs}");
            }
            seen.push(serial);
        }
    }
    let expected: [(usize, Termination, u64); 4] = [
        (31, Termination::Converged, 15282698941507113748),
        (34, Termination::Converged, 12763474304220947354),
        (38, Termination::Converged, 8589775265506221747),
        (35, Termination::Converged, 7967603572138581697),
    ];
    assert_eq!(seen, expected, "withholding outcomes drifted");
}

/// Runs a vector scenario to the default bounds at `jobs` and returns
/// (rounds, box validity, FNV-1a of the row-major flattened states).
fn vector_outcome(
    g: &Digraph,
    rows: &[Vec<f64>],
    faults: &NodeSet,
    f: usize,
    adversary: Box<dyn iabc::sim::vector::VectorAdversary>,
    jobs: usize,
) -> (usize, bool, u64) {
    let rule = TrimmedMean::new(f);
    let mut sim = Scenario::on(g)
        .inputs(&rows.concat())
        .faults(faults.clone())
        .rule(&rule)
        .vector_adversary(adversary)
        .parallel(jobs)
        .vector(rows[0].len())
        .unwrap();
    let out = sim.run(&VectorSimConfig::default()).unwrap();
    (
        out.rounds,
        out.box_validity,
        fingerprint::state_bits(Engine::states(&sim)),
    )
}

#[test]
fn vector_corner_pull_and_mixed_strategies_are_pinned() {
    // X13's off-hull demonstration: honest inputs on the diagonal of K7.
    let k7 = generators::complete(7);
    let diagonal: Vec<Vec<f64>> = (0..7)
        .map(|i| {
            let x = if i >= 5 { 2.0 } else { i as f64 };
            vec![x, x]
        })
        .collect();
    let k7_faults = NodeSet::from_indices(7, [5, 6]);
    let corner = vector_outcome(
        &k7,
        &diagonal,
        &k7_faults,
        2,
        Box::new(CornerPullAdversary::new()),
        1,
    );

    // d = 3 on a seeded digraph, one strategy family per axis.
    let g = seeded_graph(12, 0.7, 1);
    let flat = seeded_inputs(36, 21);
    let rows: Vec<Vec<f64>> = flat.chunks(3).map(<[f64]>::to_vec).collect();
    let faults = NodeSet::from_indices(12, [10, 11]);
    let mixed = || {
        Box::new(CoordinateWise::new(vec![
            Box::new(RandomAdversary::new(-30.0, 30.0, 5)),
            Box::new(CrashAdversary::new(2)),
            Box::new(ExtremesAdversary::new(1e3)),
        ]))
    };
    let mixed_serial = vector_outcome(&g, &rows, &faults, 2, mixed(), 1);
    for jobs in [2, 3] {
        assert_eq!(
            vector_outcome(
                &k7,
                &diagonal,
                &k7_faults,
                2,
                Box::new(CornerPullAdversary::new()),
                jobs
            ),
            corner,
            "corner pull, jobs = {jobs}"
        );
        assert_eq!(
            vector_outcome(&g, &rows, &faults, 2, mixed(), jobs),
            mixed_serial,
            "mixed strategies, jobs = {jobs}"
        );
    }
    assert_eq!(
        [corner, mixed_serial],
        [
            (14, true, 17475306839630317365),
            (23, true, 4988169791752669001)
        ],
        "vector outcomes drifted"
    );
}
