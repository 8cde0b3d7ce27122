//! The daemon's topology memo: the fingerprint of a graph text the daemon
//! has already keyed, so a repeated topology is not tokenized and folded
//! again.
//!
//! Theorem 1 depends only on the graph, so clients sweep adversaries,
//! seeds and inputs over a few fixed topologies, and most submits repeat
//! an edge list the daemon has seen. Keying one from scratch reads the
//! whole text into CSR rows ([`iabc_graph::parse::in_rows`]) and folds
//! them through the byte-serial topology feed; with the memo it costs one
//! length check and one comparison of the text. The memo holds only the
//! fingerprint: [`crate::job::JobSpec::key_with`] still reads the count
//! line, resolves the fault set and hashes every other ingredient through
//! the one hashing body, so a memoized key equals [`JobSpec::key`]'s.
//!
//! An entry is found by an exact comparison of the text and the resolved
//! fault set, never by a digest of them, so no input can alias another
//! one's entry; a hostile client can at most evict. Only texts that parsed
//! are stored, and the memo is bounded by [`TOPOLOGY_MEMO_BYTES`] of text
//! and [`TOPOLOGY_MEMO_ENTRIES`] entries, evicting the least recently
//! used.
//!
//! [`JobSpec::key`]: crate::job::JobSpec::key

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{PoisonError, RwLock};

use iabc_graph::NodeSet;

use crate::ServeError;

/// The most graph text a [`TopologyMemo`] holds, summed over its entries.
/// A text longer than this is keyed from scratch every time and never
/// held. Four MiB holds a complete 128-node graph's 102 KB edge list in
/// every one of the [`TOPOLOGY_MEMO_ENTRIES`] entries, or a degree-8
/// graph's at the job node cap (about 1.5 MB) beside others.
pub const TOPOLOGY_MEMO_BYTES: usize = 4 << 20;

/// The most entries a [`TopologyMemo`] holds. One entry is one graph text
/// under one fault set.
pub const TOPOLOGY_MEMO_ENTRIES: usize = 32;

/// A bounded, thread-safe map from a graph text and its resolved fault set
/// to the topology fingerprint [`iabc_graph::parse::InRows::fingerprint`]
/// computes for them. Lookups share a read lock; a lookup that misses
/// computes outside any lock and takes the write lock only to insert.
#[derive(Debug, Default)]
pub struct TopologyMemo {
    entries: RwLock<Vec<Entry>>,
    /// Stamps lookups and inserts in order, for least-recently-used
    /// eviction.
    clock: AtomicU64,
    hits: AtomicUsize,
}

#[derive(Debug)]
struct Entry {
    text: Box<str>,
    faults: NodeSet,
    fingerprint: u64,
    last_used: AtomicU64,
}

impl Entry {
    fn holds(&self, text: &str, faults: &NodeSet) -> bool {
        self.faults == *faults && *self.text == *text
    }
}

impl TopologyMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many lookups the memo answered.
    pub fn hits(&self) -> usize {
        self.hits.load(Relaxed)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.read().len()
    }

    /// The topology fingerprint of `text` under `faults`: the held one when
    /// the memo has this text and fault set, else `compute`'s, which is
    /// then held if it is `Ok` and the text fits the bound. An error from
    /// `compute` is returned and nothing is held.
    pub(crate) fn fingerprint(
        &self,
        text: &str,
        faults: &NodeSet,
        compute: impl FnOnce() -> Result<u64, ServeError>,
    ) -> Result<u64, ServeError> {
        if let Some(fingerprint) = self.lookup(text, faults) {
            return Ok(fingerprint);
        }
        let fingerprint = compute()?;
        self.insert(text, faults, fingerprint);
        Ok(fingerprint)
    }

    fn lookup(&self, text: &str, faults: &NodeSet) -> Option<u64> {
        let entries = self.read();
        let entry = entries.iter().find(|e| e.holds(text, faults))?;
        entry.last_used.store(self.tick(), Relaxed);
        self.hits.fetch_add(1, Relaxed);
        Some(entry.fingerprint)
    }

    fn insert(&self, text: &str, faults: &NodeSet, fingerprint: u64) {
        if text.len() > TOPOLOGY_MEMO_BYTES {
            return;
        }
        // Every update below leaves the list whole, so a poisoned lock
        // still guards a valid memo.
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        // Another handler may have keyed the same topology meanwhile.
        if entries.iter().any(|e| e.holds(text, faults)) {
            return;
        }
        let mut held: usize = entries.iter().map(|e| e.text.len()).sum();
        while entries.len() >= TOPOLOGY_MEMO_ENTRIES || held + text.len() > TOPOLOGY_MEMO_BYTES {
            let oldest = (0..entries.len())
                .min_by_key(|&i| entries[i].last_used.load(Relaxed))
                .expect("a memo over its bound holds an entry");
            held -= entries.swap_remove(oldest).text.len();
        }
        entries.push(Entry {
            text: text.into(),
            faults: faults.clone(),
            fingerprint,
            last_used: AtomicU64::new(self.tick()),
        });
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Vec<Entry>> {
        self.entries.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{EngineSpec, InputSpec, JobSpec, ScenarioSpec, MAX_NODES};
    use iabc_graph::{generators, parse};
    use std::sync::Barrier;

    /// The sample scenario `job`'s tests build their pinned keys from: a
    /// mean-rule run on a 3-node graph.
    fn sample() -> ScenarioSpec {
        ScenarioSpec {
            graph: "3\n0 1\n1 0\n0 2\n2 0\n1 2\n2 1\n".into(),
            faulty: vec![2],
            f: 0,
            rule: "mean".into(),
            quantum: None,
            adversary: "constant".into(),
            seed: 7,
            inputs: InputSpec::Seeded(7),
            epsilon: 1e-6,
            max_rounds: 100,
            engine: EngineSpec::Synchronous,
        }
    }

    fn on(graph: &str, faulty: &[usize]) -> JobSpec {
        JobSpec::Scenario(ScenarioSpec {
            graph: graph.into(),
            faulty: faulty.to_vec(),
            ..sample()
        })
    }

    const TIDY: &str = "5\n0 1\n1 2\n2 0\n2 3\n3 4\n4 0\n";

    /// The jobs `job::tests::run_keys_are_pinned` pins, with their keys.
    fn pinned_jobs() -> Vec<(JobSpec, &'static str)> {
        let hit_seed = 0x92a1_731a_ed9a_48d6;
        let hit = ScenarioSpec {
            graph: parse::to_edge_list(&generators::complete(128)),
            faulty: vec![0],
            f: 1,
            rule: "trimmed-mean".into(),
            adversary: "constant".into(),
            seed: hit_seed,
            inputs: InputSpec::Seeded(hit_seed),
            max_rounds: 1000,
            ..sample()
        };
        let chord = ScenarioSpec {
            graph: parse::to_edge_list(&generators::chord(256, 4)),
            adversary: "random".into(),
            seed: 7,
            inputs: InputSpec::Seeded(7),
            epsilon: 0.0,
            max_rounds: 2000,
            ..hit.clone()
        };
        let messy = "# header\r\n\r\n  5  \r\n2 0\n# mid comment\n\t0\t1\t\n\n3    4\r\n0 1\n  \
                     1 2\r\n4 0\n2\t 0\n  # indented comment\n2 3\n";
        vec![
            (JobSpec::Scenario(hit), "4dc32c6720c5a623"),
            (JobSpec::Scenario(chord), "c68221cfa53363ef"),
            (on(messy, &[2]), "da213c1432ec0e49"),
            (on(TIDY, &[2]), "da213c1432ec0e49"),
            (
                JobSpec::Scenario(ScenarioSpec {
                    engine: EngineSpec::DelayBounded {
                        bound: 3,
                        scheduler: "random".into(),
                        sched_seed: 11,
                    },
                    ..sample()
                }),
                "0814346b8a14083e",
            ),
            (
                JobSpec::Scenario(ScenarioSpec {
                    inputs: InputSpec::Explicit(vec![1.0, -2.5, 3.75]),
                    quantum: Some(0.5),
                    rule: "quantized".into(),
                    ..sample()
                }),
                "735d5b42499ccb24",
            ),
            (
                JobSpec::Sweep {
                    ids: vec!["e3".into(), "X2".into(), "E1".into()],
                },
                "1c4325498ab51448",
            ),
        ]
    }

    #[test]
    fn memoized_keys_are_the_pinned_keys_on_first_sight_and_on_repeat() {
        let memo = TopologyMemo::new();
        let jobs = pinned_jobs();
        for pass in ["first sight", "repeat"] {
            let hits = memo.hits();
            for (i, (job, pinned)) in jobs.iter().enumerate() {
                assert_eq!(job.key().unwrap().hex(), *pinned, "{pass}, job {i}");
                assert_eq!(
                    job.key_with(&memo).unwrap().hex(),
                    *pinned,
                    "{pass}, job {i}"
                );
            }
            // The delay-bounded and quantized jobs share the sample's text
            // and fault set, so the second of them hits on first sight.
            let scenarios = jobs.len() - 1;
            let want = if pass == "repeat" { scenarios } else { 1 };
            assert_eq!(memo.hits() - hits, want, "{pass}");
        }
        assert_eq!(memo.len(), 5);
    }

    /// Another fault set, a text one byte away and the same edges in
    /// another order each miss the entry of the text they resemble and
    /// key as the pure path does.
    #[test]
    fn near_copies_of_a_held_topology_are_not_aliased() {
        let memo = TopologyMemo::new();
        let base = on(TIDY, &[2]);
        let base_key = base.key_with(&memo).unwrap();
        let one_byte_away = TIDY.replace("4 0\n", "4 1\n");
        let reordered = "5\n4 0\n3 4\n2 3\n2 0\n1 2\n0 1\n";
        assert_eq!(
            (one_byte_away.len(), reordered.len()),
            (TIDY.len(), TIDY.len())
        );
        let variants = [
            (on(TIDY, &[1]), false),
            (on(&one_byte_away, &[2]), false),
            (on(reordered, &[2]), true),
        ];
        for (i, (job, same_digraph)) in variants.iter().enumerate() {
            let pure = job.key().unwrap();
            assert_eq!(job.key_with(&memo).unwrap(), pure, "variant {i}");
            assert_eq!(pure == base_key, *same_digraph, "variant {i}");
        }
        assert_eq!((memo.hits(), memo.len()), (0, 4));
        for (i, (job, _)) in variants.iter().enumerate() {
            assert_eq!(
                job.key_with(&memo).unwrap(),
                job.key().unwrap(),
                "variant {i}"
            );
        }
        assert_eq!(base.key_with(&memo).unwrap(), base_key);
        assert_eq!(memo.hits(), 4);
    }

    /// A job the pure path refuses is refused with the same error through
    /// the memo, and leaves nothing in it.
    #[test]
    fn hostile_jobs_fail_as_on_the_pure_path_and_are_not_held() {
        let memo = TopologyMemo::new();
        let with = |graph: &str, faulty: &[usize], f: usize, engine: EngineSpec| {
            JobSpec::Scenario(ScenarioSpec {
                graph: graph.into(),
                faulty: faulty.to_vec(),
                f,
                engine,
                ..sample()
            })
        };
        let sync = || EngineSpec::Synchronous;
        let bounded = |bound| EngineSpec::DelayBounded {
            bound,
            scheduler: "max".into(),
            sched_seed: 0,
        };
        let too_many = format!("{}\n0 1\n", MAX_NODES + 1);
        let cases = [
            (with(&too_many, &[], 0, sync()), "at most"),
            (with(TIDY, &[5], 0, sync()), "faulty node 5 >= n = 5"),
            (with(TIDY, &[], 6, sync()), "f = 6 exceeds n = 5"),
            (with("5\n0 1\n1 x\n", &[], 0, sync()), "bad graph"),
            (with(TIDY, &[], 0, bounded(0)), "delay bound"),
            (with(TIDY, &[], 0, bounded(1 << 50)), "delay bound"),
        ];
        for (job, cause) in &cases {
            let pure = job.key();
            assert!(
                matches!(&pure, Err(ServeError::Job(message)) if message.contains(cause)),
                "{pure:?}"
            );
            assert_eq!(job.key_with(&memo), pure);
        }
        assert_eq!((memo.len(), memo.hits()), (0, 0));
    }

    /// A text of exactly `bytes` bytes declaring `n` nodes and one edge,
    /// padded by a comment line.
    fn padded(n: usize, bytes: usize) -> String {
        let mut text = format!("{n}\n0 1\n#");
        text.push_str(&"x".repeat(bytes - text.len() - 1));
        text.push('\n');
        text
    }

    #[test]
    fn the_bound_evicts_the_least_recently_used_and_never_holds_a_longer_text() {
        let memo = TopologyMemo::new();
        let keyed = |text: &str| {
            let job = on(text, &[]);
            assert_eq!(job.key_with(&memo).unwrap(), job.key().unwrap());
        };
        let hit = |text: &str| {
            let hits = memo.hits();
            keyed(text);
            memo.hits() > hits
        };
        // The entry bound: one text past it evicts the oldest.
        let texts: Vec<String> = (0..=TOPOLOGY_MEMO_ENTRIES)
            .map(|k| format!("{}\n0 1\n", k + 3))
            .collect();
        for text in &texts {
            keyed(text);
        }
        assert_eq!(memo.len(), TOPOLOGY_MEMO_ENTRIES);
        assert!(hit(&texts[TOPOLOGY_MEMO_ENTRIES]));
        assert!(!hit(&texts[0]), "the least recently used entry stayed");
        assert!(hit(&texts[2]) && hit(&texts[0]));

        // The byte bound: two halves fill it, a third text evicts the
        // least recently used half.
        let memo = TopologyMemo::new();
        let keyed = |text: &str| {
            let job = on(text, &[]);
            assert_eq!(job.key_with(&memo).unwrap(), job.key().unwrap());
        };
        let hit = |text: &str| {
            let hits = memo.hits();
            keyed(text);
            memo.hits() > hits
        };
        let (a, b) = (
            padded(3, TOPOLOGY_MEMO_BYTES / 2),
            padded(4, TOPOLOGY_MEMO_BYTES / 2),
        );
        let small = "5\n0 1\n";
        keyed(&a);
        keyed(&b);
        assert!(hit(&a));
        assert_eq!(memo.len(), 2);
        keyed(small);
        assert_eq!(memo.len(), 2);
        assert!(hit(&a) && hit(small));

        // A text past the byte bound is keyed but never held, and evicts
        // nothing.
        let long = padded(6, TOPOLOGY_MEMO_BYTES + 1);
        assert!(!hit(&long) && !hit(&long));
        assert_eq!(memo.len(), 2);
        assert!(hit(&a) && hit(small));
        assert!(!hit(&b), "the least recently used half stayed");
    }

    #[test]
    fn concurrent_lookups_agree_with_the_pure_key() {
        const THREADS: usize = 8;
        let complete = parse::to_edge_list(&generators::complete(24));
        let chord = parse::to_edge_list(&generators::chord(64, 3));
        let jobs: Vec<(JobSpec, _)> = [
            on(&complete, &[0]),
            on(&complete, &[1]),
            on(&complete, &[0, 1]),
            on(&chord, &[0]),
            on(&chord, &[5]),
            on(TIDY, &[2]),
        ]
        .into_iter()
        .map(|job| {
            let key = job.key().unwrap();
            (job, key)
        })
        .collect();
        let memo = TopologyMemo::new();
        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (memo, jobs, start) = (&memo, &jobs, &start);
                s.spawn(move || {
                    start.wait();
                    for round in 0..20 {
                        for i in 0..jobs.len() {
                            let (job, key) = &jobs[(i + t + round) % jobs.len()];
                            assert_eq!(job.key_with(memo).unwrap(), *key);
                        }
                    }
                });
            }
        });
        assert_eq!(memo.len(), jobs.len());
        let lookups = THREADS * 20 * jobs.len();
        assert!(memo.hits() >= lookups - THREADS * jobs.len());
    }
}
