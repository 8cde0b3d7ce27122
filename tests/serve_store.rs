//! Integration tests for the serving tier (`iabc::serve`): cache hits are
//! byte-identical to fresh recomputation, run keys separate every
//! ingredient, the journal is a faithful source of truth, identical
//! concurrent submissions coalesce onto exactly one compute, a byte
//! budget is never exceeded, compaction is replay-equivalent, and the
//! TCP daemon answers a repeated submission from the store with the
//! exact bytes it computed the first time.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};

use iabc::graph::{generators, parse};
use iabc::serve::store::decode_journal;
use iabc::serve::{
    protocol, replay_journal, EngineSpec, InputSpec, JobSpec, RecordKind, RunKey, ScenarioSpec,
    Server, ServerConfig, SingleFlight, Store, SubmitDisposition,
};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iabc-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A scenario on a complete digraph, fully determined by small integers —
/// the proptest strategy space.
fn scenario(n: usize, f: usize, seed: u64, adversary: &str, eps_exp: i32) -> ScenarioSpec {
    ScenarioSpec {
        graph: parse::to_edge_list(&generators::complete(n)),
        faulty: (0..f).collect(),
        f,
        rule: "trimmed-mean".into(),
        quantum: None,
        adversary: adversary.into(),
        seed,
        inputs: InputSpec::Seeded(seed),
        epsilon: 10f64.powi(-eps_exp),
        max_rounds: 200,
        engine: EngineSpec::Synchronous,
    }
}

/// Submits `job` against `store` with no progress sink and unwraps the
/// terminal result.
fn submit_local(store: &Store, flights: &SingleFlight, job: &JobSpec) -> (bool, RunKey, Vec<u8>) {
    let (response, _) =
        iabc::serve::server::answer_submit(store, flights, job, 1, |_, _, _| {}).unwrap();
    match response {
        protocol::Response::Result {
            cache_hit,
            key,
            payload,
            ..
        } => (cache_hit, key, payload),
        other => panic!("expected a result frame, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// THE cache-correctness property: for any scenario, the payload a
    /// warm store serves is byte-identical to a fresh recomputation (and
    /// to what an independent store computes for the same spec).
    #[test]
    fn cache_hit_is_byte_identical_to_recompute(
        n in 4usize..9,
        f in 0usize..2,
        seed in 0u64..1000,
        adv_idx in 0usize..3,
        eps_exp in 3i32..8,
    ) {
        let adversary = ["constant", "extremes", "pull-low"][adv_idx];
        let spec = scenario(n, f, seed, adversary, eps_exp);
        let job = JobSpec::Scenario(spec.clone());
        let dir = temp_dir(&format!("prop-{n}-{f}-{seed}-{adv_idx}-{eps_exp}"));
        let store = Store::open(&dir).unwrap();
        let flights = SingleFlight::new();
        let (first_hit, key, cold) = submit_local(&store, &flights, &job);
        let (second_hit, key2, warm) = submit_local(&store, &flights, &job);
        prop_assert!(!first_hit);
        prop_assert!(second_hit);
        prop_assert_eq!(key, key2);
        prop_assert_eq!(&cold, &warm, "hit must serve the miss's exact bytes");
        // ... and both equal a from-scratch recomputation outside any store.
        prop_assert_eq!(&cold, &spec.execute().unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flipping any single key ingredient yields a different run key —
    /// distinct work can never alias in the store.
    #[test]
    fn distinct_ingredients_never_collide(
        n in 4usize..8,
        f in 0usize..2,
        seed in 0u64..500,
    ) {
        let base = scenario(n, f, seed, "constant", 6);
        let base_key = JobSpec::Scenario(base.clone()).key().unwrap();
        let variants = [
            ScenarioSpec { seed: seed + 1, inputs: InputSpec::Seeded(seed + 1), ..base.clone() },
            ScenarioSpec { adversary: "extremes".into(), ..base.clone() },
            ScenarioSpec { epsilon: base.epsilon * 0.1, ..base.clone() },
            ScenarioSpec { max_rounds: base.max_rounds + 1, ..base.clone() },
            ScenarioSpec {
                graph: parse::to_edge_list(&generators::complete(n + 1)),
                inputs: InputSpec::Seeded(seed),
                ..base.clone()
            },
            ScenarioSpec { rule: "mean".into(), ..base.clone() },
            ScenarioSpec {
                engine: EngineSpec::DelayBounded {
                    bound: 2,
                    scheduler: "max".into(),
                    sched_seed: 0,
                },
                ..base.clone()
            },
        ];
        let mut keys = vec![base_key];
        for variant in variants {
            keys.push(JobSpec::Scenario(variant).key().unwrap());
        }
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                prop_assert_ne!(a, b, "two distinct specs share a key");
            }
        }
    }

    /// Single-flight correctness: N threads submitting the SAME job
    /// concurrently (released by a barrier against a cold store) produce
    /// exactly ONE journaled miss for that key, and every thread receives
    /// a payload byte-identical to the stored object.
    #[test]
    fn concurrent_identical_submissions_coalesce(
        n in 4usize..8,
        seed in 0u64..500,
        clients in 2usize..7,
    ) {
        let spec = scenario(n, 1, seed, "constant", 7);
        let job = JobSpec::Scenario(spec);
        let key = job.key().unwrap();
        let dir = temp_dir(&format!("flight-{n}-{seed}-{clients}"));
        let store = Arc::new(Store::open(&dir).unwrap());
        let flights = Arc::new(SingleFlight::new());
        let barrier = Arc::new(Barrier::new(clients));
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let store = Arc::clone(&store);
                let flights = Arc::clone(&flights);
                let barrier = Arc::clone(&barrier);
                let job = job.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    let (response, disposition) =
                        iabc::serve::server::answer_submit(&store, &flights, &job, 1, |_, _, _| {})
                            .unwrap();
                    let protocol::Response::Result { payload, .. } = response else {
                        panic!("expected a result frame");
                    };
                    (payload, disposition)
                })
            })
            .collect();
        let outcomes: Vec<(Vec<u8>, SubmitDisposition)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        let stored = store.get(key).unwrap();
        for (payload, _) in &outcomes {
            prop_assert_eq!(payload, &stored, "every client must get the stored bytes");
        }
        let miss_count = outcomes
            .iter()
            .filter(|(_, d)| *d == SubmitDisposition::Miss)
            .count();
        prop_assert_eq!(miss_count, 1, "exactly one client computes");
        // The journal agrees: one miss record for this key, and one hit
        // record per non-leader client.
        let records = replay_journal(&dir.join("journal.log")).unwrap();
        let misses = records
            .iter()
            .filter(|r| r.key == key && r.is_miss())
            .count();
        let hits = records.iter().filter(|r| r.key == key && r.is_hit()).count();
        prop_assert_eq!(misses, 1, "journal must record exactly one miss");
        prop_assert_eq!(hits, clients - 1, "every coalesced client journals a hit");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Eviction and compaction are replay-equivalent: under any byte
    /// budget and any insert/hit sequence, the store never exceeds its
    /// budget; after compaction every surviving payload is unchanged; and
    /// a reopened store replays to the identical index (keys, payloads,
    /// and LRU order).
    #[test]
    fn budgeted_store_compaction_is_replay_equivalent(
        budget in 64u64..512,
        ops in proptest::collection::vec((0u64..24, 1usize..64, any::<bool>()), 1..40),
    ) {
        let dir = temp_dir(&format!("budget-{budget}-{}", ops.len()));
        let store = Store::open_with_budget(&dir, Some(budget)).unwrap();
        for (i, &(key_id, len, hit)) in ops.iter().enumerate() {
            let key = RunKey(0x1000 + key_id);
            if hit && store.contains(key) {
                store.record_hit(key, 1).unwrap();
            } else if len as u64 <= budget {
                // Deterministic payload per (key, len) so a surviving
                // object's bytes are predictable regardless of which
                // insert survived.
                let payload: Vec<u8> = (0..len).map(|j| (key_id as usize * 31 + j) as u8).collect();
                store.insert(key, &payload, i as u64, 1).unwrap();
            }
            prop_assert!(
                store.total_bytes() <= budget,
                "budget exceeded: {} > {budget}",
                store.total_bytes()
            );
        }
        let before: Vec<(RunKey, Vec<u8>)> = store
            .keys_by_recency()
            .into_iter()
            .map(|k| (k, store.get(k).unwrap()))
            .collect();
        let stats = store.compact().unwrap();
        prop_assert_eq!(stats.records_after as usize, before.len());
        for (key, payload) in &before {
            prop_assert_eq!(
                &store.get(*key).unwrap(),
                payload,
                "compaction changed a surviving payload"
            );
        }
        drop(store);
        let reopened = Store::open_with_budget(&dir, Some(budget)).unwrap();
        prop_assert!(reopened.total_bytes() <= budget);
        let after: Vec<(RunKey, Vec<u8>)> = reopened
            .keys_by_recency()
            .into_iter()
            .map(|k| (k, reopened.get(k).unwrap()))
            .collect();
        prop_assert_eq!(before, after, "replay after compaction must be identical");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Replaying the journal of a populated store reconstructs exactly its
/// addressable contents — the journal is the index's source of truth.
#[test]
fn journal_replay_reconstructs_store_contents() {
    let dir = temp_dir("replay");
    let jobs: Vec<JobSpec> = (0..5u64)
        .map(|seed| JobSpec::Scenario(scenario(5, 1, seed, "constant", 6)))
        .collect();
    let mut payloads = Vec::new();
    {
        let store = Store::open(&dir).unwrap();
        let flights = SingleFlight::new();
        for job in &jobs {
            let (hit, key, payload) = submit_local(&store, &flights, job);
            assert!(!hit);
            payloads.push((key, payload));
        }
        // Serve two of them again so the journal also carries hit records.
        submit_local(&store, &flights, &jobs[0]);
        submit_local(&store, &flights, &jobs[3]);
    }
    // Reconstruct from the journal alone.
    let records = replay_journal(&dir.join("journal.log")).unwrap();
    assert_eq!(records.len(), 7, "5 misses + 2 hits");
    assert_eq!(records.iter().filter(|r| r.is_hit()).count(), 2);
    assert!(records.iter().all(|r| r.kind != RecordKind::Evict));
    let replayed_index: std::collections::BTreeSet<RunKey> = records
        .iter()
        .filter(|r| r.is_miss())
        .map(|r| r.key)
        .collect();
    let expected: std::collections::BTreeSet<RunKey> = payloads.iter().map(|(k, _)| *k).collect();
    assert_eq!(replayed_index, expected);
    // A reopened store agrees with the replay and still serves every
    // payload byte-for-byte.
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.len(), 5);
    for (key, payload) in &payloads {
        assert_eq!(&store.get(*key).unwrap(), payload);
    }
    // decode_journal over the raw bytes agrees with replay_journal.
    let raw = std::fs::read(store.journal_path()).unwrap();
    assert_eq!(decode_journal(&raw), records);
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end daemon smoke over a real socket: the same sweep submitted
/// twice — the first executes (miss), the second is served from the store
/// with byte-identical payload, and the journal records the miss before
/// the hit. This is the PR's acceptance scenario, in-process.
#[test]
fn server_answers_second_submission_from_store() {
    let dir = temp_dir("daemon");
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        store_dir: dir.clone(),
        accept_limit: Some(3),
        max_connections: 0,
        max_store_bytes: None,
    };
    let mut server = Server::bind(&config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let stats = server.run().unwrap();
        (stats, server)
    });

    let job = JobSpec::Sweep {
        ids: vec!["E1".into()],
    };
    let first = iabc::serve::submit(&addr, &job).unwrap();
    assert!(!first.cache_hit, "fresh store must miss");
    assert!(first.misses >= 1);
    assert!(!first.payload.is_empty());
    assert!(
        !first.progress.is_empty(),
        "a miss must stream progress frames"
    );
    let second = iabc::serve::submit(&addr, &job).unwrap();
    assert!(second.cache_hit, "second submission must hit");
    assert_eq!(
        first.payload, second.payload,
        "hit payload must be byte-identical to the miss's"
    );
    assert_eq!(first.key, second.key);

    // Query the key directly — same bytes again.
    let queried = iabc::serve::query(&addr, first.key).unwrap().unwrap();
    assert_eq!(queried, first.payload);

    let (stats, server) = handle.join().unwrap();
    assert_eq!(stats.connections, 3);
    assert_eq!(stats.job_hits, 1);
    assert_eq!(stats.job_misses, 1);
    assert_eq!(stats.job_coalesced, 0);

    // Journal order for the job key: the miss record precedes the hit.
    let records = replay_journal(&server.store().journal_path()).unwrap();
    let for_key: Vec<bool> = records
        .iter()
        .filter(|r| r.key == first.key)
        .map(|r| r.is_hit())
        .collect();
    assert!(
        for_key.windows(2).any(|w| w == [false, true]),
        "journal must record the miss before the hit for {:?}: {for_key:?}",
        first.key
    );
    // The query also journaled a hit on the job key.
    assert_eq!(for_key.iter().filter(|&&h| h).count(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Concurrent clients over a real socket: hit submissions keep being
/// answered while a slow miss holds the compute permit, and a
/// compaction request over the wire shrinks the journal without
/// changing any payload.
#[test]
fn concurrent_hits_answer_while_a_miss_computes() {
    let dir = temp_dir("conc");
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        store_dir: dir.clone(),
        accept_limit: None,
        max_connections: 6,
        max_store_bytes: None,
    };
    let mut server = Server::bind(&config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let daemon = std::thread::spawn(move || {
        let stats = server.run().unwrap();
        (stats, server)
    });

    let hit_job = JobSpec::Scenario(scenario(6, 1, 7, "constant", 6));
    // Epsilon 0 runs the miss to its round cap — slow enough that the
    // hit barrage below genuinely overlaps it.
    let miss_job = JobSpec::Scenario(ScenarioSpec {
        epsilon: 0.0,
        max_rounds: 3_000,
        ..scenario(24, 1, 8, "constant", 6)
    });

    // Warm the hit job, then start the slow miss.
    let warm = iabc::serve::submit(&addr, &hit_job).unwrap();
    assert!(!warm.cache_hit);
    let miss_addr = addr.clone();
    let miss = std::thread::spawn(move || iabc::serve::submit(&miss_addr, &miss_job).unwrap());

    let clients: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let job = hit_job.clone();
            std::thread::spawn(move || {
                (0..5)
                    .map(|_| iabc::serve::submit(&addr, &job).unwrap())
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for client in clients {
        for outcome in client.join().unwrap() {
            assert!(outcome.cache_hit, "warmed job must hit");
            assert_eq!(
                outcome.payload, warm.payload,
                "hit payload must be byte-identical to the warmed object"
            );
        }
    }
    let miss_outcome = miss.join().unwrap();
    assert!(!miss_outcome.cache_hit);

    // Compaction over the wire: the journal (2 misses + 21 hits) shrinks
    // to one record per live object, and both payloads still serve
    // byte-identically.
    let stats = iabc::serve::compact(&addr).unwrap();
    assert_eq!(stats.records_after, 2);
    assert!(stats.records_before > stats.records_after);
    assert_eq!(
        iabc::serve::query(&addr, warm.key).unwrap().unwrap(),
        warm.payload
    );
    assert_eq!(
        iabc::serve::query(&addr, miss_outcome.key)
            .unwrap()
            .unwrap(),
        miss_outcome.payload
    );

    iabc::serve::shutdown(&addr).unwrap();
    let (stats, server) = daemon.join().unwrap();
    assert_eq!(stats.job_misses, 2);
    assert!(stats.job_hits >= 20);
    assert_eq!(server.store().len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// An absent key answers `Absent` (not an error), and a malformed frame
/// answers an error frame without killing the daemon.
#[test]
fn query_absent_key_is_clean() {
    let dir = temp_dir("absent");
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        store_dir: dir.clone(),
        accept_limit: Some(1),
        max_connections: 1,
        max_store_bytes: None,
    };
    let mut server = Server::bind(&config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run().unwrap());
    let absent = iabc::serve::query(&addr, RunKey(0x1234_5678_9abc_def0)).unwrap();
    assert!(absent.is_none());
    let stats = handle.join().unwrap();
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.job_hits, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A submit naming a faulty node `>= n` is answered with an error frame,
/// and the daemon keeps serving: the key path rejects it instead of
/// panicking the handler thread and, through it, the accept loop.
#[test]
fn faulty_node_out_of_range_is_an_error_frame_not_a_dead_daemon() {
    let dir = temp_dir("faulty-range");
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        store_dir: dir.clone(),
        accept_limit: Some(3),
        max_connections: 0,
        max_store_bytes: None,
    };
    let mut server = Server::bind(&config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let daemon = std::thread::spawn(move || server.run());

    let good = JobSpec::Scenario(scenario(4, 1, 7, "constant", 6));
    let bad = JobSpec::Scenario(ScenarioSpec {
        faulty: vec![999],
        ..scenario(4, 1, 7, "constant", 6)
    });
    match iabc::serve::submit(&addr, &bad) {
        Err(iabc::serve::ServeError::Server(message)) => {
            assert!(message.contains("faulty node 999 >= n = 4"), "{message}")
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    let first = iabc::serve::submit(&addr, &good).unwrap();
    let second = iabc::serve::submit(&addr, &good).unwrap();
    assert!(!first.cache_hit && second.cache_hit);
    assert_eq!(first.payload, second.payload);

    let stats = daemon.join().unwrap().unwrap();
    assert_eq!(stats.connections, 3);
    assert_eq!((stats.job_misses, stats.job_hits), (1, 1));
    std::fs::remove_dir_all(&dir).ok();
}
