//! The CLI and the daemon read a scenario's words the same way: for every
//! adversary family of the shared table, `iabc record` and a scenario job
//! with the same graph, fault set, rule, seed and seeded inputs step
//! through the same states, bit for bit.

use iabc_serve::job::ADVERSARIES;
use iabc_serve::{EngineSpec, InputSpec, ScenarioSpec};
use iabc_sim::transcript::Transcript;
use iabc_sim::wire::decode_outcome;

const ROUNDS: usize = 12;

fn argv(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

#[test]
fn record_and_a_scenario_job_agree_for_every_adversary() {
    let graph = iabc_cli::run(&argv(&["generate", "chord", "24", "5"])).unwrap();
    let path = std::env::temp_dir().join(format!("iabc-cli-agreement-{}.txt", std::process::id()));
    std::fs::write(&path, &graph).unwrap();
    let file = path.to_string_lossy().into_owned();
    let rounds = ROUNDS.to_string();
    let mut cases = 0;
    for (adversary, _) in ADVERSARIES {
        for seed in [0u64, 7] {
            let seed_flag = seed.to_string();
            let text = iabc_cli::run(&argv(&[
                "record",
                &file,
                "--f",
                "1",
                "--faulty",
                "0,5",
                "--rounds",
                &rounds,
                "--adversary",
                adversary,
                "--seed",
                &seed_flag,
            ]))
            .unwrap();
            let transcript = Transcript::from_text(&text).unwrap();
            let payload = ScenarioSpec {
                graph: graph.clone(),
                faulty: vec![0, 5],
                f: 1,
                rule: "trimmed-mean".into(),
                quantum: None,
                adversary: adversary.into(),
                seed,
                inputs: InputSpec::Seeded(seed),
                epsilon: 0.0,
                max_rounds: ROUNDS,
                engine: EngineSpec::Synchronous,
            }
            .execute()
            .unwrap();
            let outcome = decode_outcome(&payload).unwrap();
            let stepped = outcome.rounds as usize;
            let recorded = match stepped {
                0 => &transcript.initial_states,
                t => &transcript.rounds[t - 1].states_after,
            };
            let bits = |states: &[f64]| states.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&outcome.final_states),
                bits(recorded),
                "{adversary} at seed {seed}, after {stepped} rounds"
            );
            cases += 1;
        }
    }
    assert_eq!(cases, 22);
    std::fs::remove_file(&path).ok();
}
