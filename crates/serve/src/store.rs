//! The content-addressed result store and its append-only run journal.
//!
//! # Layout
//!
//! ```text
//! <dir>/
//!   objects/<16-hex-key>.bin    one serialized result per run key
//!   journal.log                 append-only, one record per store event
//! ```
//!
//! # Journal record
//!
//! Each record is length-prefixed so the journal survives torn tails
//! (a record cut short by a crash is detected and ignored):
//!
//! ```text
//! len      u32 LE   payload length (= 29; legacy stores wrote 21)
//! key      u64 LE   the run key
//! wall_ms  u64 LE   wall-clock duration of the compute (0 for hits/evicts)
//! jobs     u32 LE   worker count the job ran with (0 for evicts)
//! kind     u8       0 = miss (object inserted), 1 = hit served, 2 = evicted
//! bytes    u64 LE   object size (absent in legacy 21-byte records)
//! ```
//!
//! Replaying the records in order reconstructs the exact index: misses
//! insert, evicts remove, and hits advance the LRU clock so recency
//! survives a restart. [`Store::open`] performs exactly this replay, so
//! the journal *is* the index's source of truth. Legacy 21-byte records
//! (no `bytes` field) are accepted; their object size is recovered by
//! stat-ing the object file.
//!
//! # Concurrency
//!
//! The store is internally synchronized and shared by reference: the
//! index lives behind a [`RwLock`] (cache hits are pure reads), the
//! journal file behind a [`Mutex`]. Lock order is always index before
//! journal. Object reads happen outside both locks — a read racing an
//! eviction degrades to a miss, never to a torn payload.
//!
//! # Eviction and compaction
//!
//! [`Store::open_with_budget`] caps the total object bytes: every insert
//! evicts least-recently-used objects until the total is within budget
//! (the invariant is strict — the store never exceeds the cap, even
//! transiently after the insert completes). Evictions journal `evict`
//! records so replay stays exact. [`Store::compact`] rewrites the
//! journal to one miss record per live object (in LRU→MRU order, so
//! recency is replay-equivalent by construction) and sweeps orphaned
//! object files.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, RwLock};

/// A content address: the FNV-1a fingerprint of every run ingredient
/// (see [`crate::job`] for the schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunKey(pub u64);

impl RunKey {
    /// 16-char lower-hex rendering — the on-disk object name and the wire
    /// form.
    pub fn hex(&self) -> String {
        crate::protocol::to_hex(&self.0.to_be_bytes())
    }

    /// Parses the 16-char lower-hex form [`RunKey::hex`] writes, and no
    /// other spelling of the same key.
    pub fn from_hex(s: &str) -> Option<RunKey> {
        let bytes = crate::protocol::from_hex(s).ok()?;
        Some(RunKey(u64::from_be_bytes(bytes.try_into().ok()?)))
    }
}

impl std::fmt::Display for RunKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

/// What a journal record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Object inserted (computed fresh).
    Miss,
    /// Object served from the store.
    Hit,
    /// Object evicted to stay within the byte budget.
    Evict,
}

/// One replayed journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRecord {
    /// The run key the event concerns.
    pub key: RunKey,
    /// Wall-clock milliseconds the compute took (0 for hits/evicts).
    pub wall_ms: u64,
    /// Worker count the job ran with (0 for evicts).
    pub jobs: u32,
    /// What happened.
    pub kind: RecordKind,
    /// Object size in bytes ([`BYTES_UNKNOWN`] for legacy records).
    pub bytes: u64,
}

impl JournalRecord {
    /// `true` iff this is a hit record.
    pub fn is_hit(&self) -> bool {
        self.kind == RecordKind::Hit
    }

    /// `true` iff this is a miss (insert) record.
    pub fn is_miss(&self) -> bool {
        self.kind == RecordKind::Miss
    }
}

/// Sentinel object size for legacy 21-byte records that predate the
/// `bytes` field; replay recovers the real size from the object file.
pub const BYTES_UNKNOWN: u64 = u64::MAX;

const RECORD_LEN_V1: usize = 8 + 8 + 4 + 1;
const RECORD_LEN: usize = RECORD_LEN_V1 + 8;

/// Decodes every complete record in `journal.log` bytes, in order. A
/// truncated tail (torn final write) is ignored, matching the append-only
/// crash model. Records with an unknown kind byte are skipped (forward
/// compatibility), as are legacy-length records.
pub fn decode_journal(bytes: &[u8]) -> Vec<JournalRecord> {
    let mut records = Vec::new();
    let mut rest = bytes;
    while rest.len() >= 4 {
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        if rest.len() < 4 + len || len < RECORD_LEN_V1 {
            break;
        }
        let payload = &rest[4..4 + len];
        rest = &rest[4 + len..];
        let kind = match payload[20] {
            0 => RecordKind::Miss,
            1 => RecordKind::Hit,
            2 => RecordKind::Evict,
            _ => continue,
        };
        let bytes = if len >= RECORD_LEN {
            u64::from_le_bytes(payload[21..29].try_into().unwrap())
        } else {
            BYTES_UNKNOWN
        };
        records.push(JournalRecord {
            key: RunKey(u64::from_le_bytes(payload[..8].try_into().unwrap())),
            wall_ms: u64::from_le_bytes(payload[8..16].try_into().unwrap()),
            jobs: u32::from_le_bytes(payload[16..20].try_into().unwrap()),
            kind,
            bytes,
        });
    }
    records
}

/// Reads and decodes a journal file; an absent file is an empty journal.
pub fn replay_journal(path: &Path) -> std::io::Result<Vec<JournalRecord>> {
    match fs::read(path) {
        Ok(bytes) => Ok(decode_journal(&bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

fn encode_record(record: &JournalRecord) -> [u8; 4 + RECORD_LEN] {
    let mut buf = [0u8; 4 + RECORD_LEN];
    buf[..4].copy_from_slice(&(RECORD_LEN as u32).to_le_bytes());
    buf[4..12].copy_from_slice(&record.key.0.to_le_bytes());
    buf[12..20].copy_from_slice(&record.wall_ms.to_le_bytes());
    buf[20..24].copy_from_slice(&record.jobs.to_le_bytes());
    buf[24] = match record.kind {
        RecordKind::Miss => 0,
        RecordKind::Hit => 1,
        RecordKind::Evict => 2,
    };
    buf[25..33].copy_from_slice(&record.bytes.to_le_bytes());
    buf
}

/// Per-object index entry: size plus the LRU clock value of its most
/// recent touch (insert or journaled hit).
#[derive(Debug, Clone, Copy)]
struct ObjectMeta {
    bytes: u64,
    wall_ms: u64,
    jobs: u32,
    last_touch: u64,
}

#[derive(Debug, Default)]
struct Index {
    map: HashMap<u64, ObjectMeta>,
    /// Monotonic LRU clock; every insert/hit advances it.
    clock: u64,
    total_bytes: u64,
    /// Objects evicted over this store handle's lifetime (replayed evict
    /// records do not count).
    evictions: u64,
}

/// What [`Store::compact`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Journal records before the rewrite.
    pub records_before: usize,
    /// Journal records after (= live objects).
    pub records_after: usize,
    /// Journal file size before, in bytes.
    pub bytes_before: u64,
    /// Journal file size after, in bytes.
    pub bytes_after: u64,
    /// Orphaned object files removed from `objects/`.
    pub orphans_removed: usize,
}

/// The content-addressed store: an on-disk object directory plus the
/// in-memory key index rebuilt from the journal on open. Internally
/// synchronized — share it by reference across connection threads.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    max_bytes: Option<u64>,
    index: RwLock<Index>,
    journal: Mutex<File>,
}

fn object_path_in(dir: &Path, key: RunKey) -> PathBuf {
    dir.join("objects").join(format!("{}.bin", key.hex()))
}

impl Store {
    /// Opens (creating if needed) a store rooted at `dir` with no byte
    /// budget and rebuilds the index by replaying `journal.log`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Store> {
        Store::open_with_budget(dir, None)
    }

    /// Opens a store with an optional object-byte budget. When the replay
    /// already exceeds the budget (e.g. the store was written unbounded
    /// and reopened capped), least-recently-used objects are evicted
    /// immediately so the invariant holds from the first request.
    pub fn open_with_budget(
        dir: impl Into<PathBuf>,
        max_bytes: Option<u64>,
    ) -> std::io::Result<Store> {
        let dir = dir.into();
        fs::create_dir_all(dir.join("objects"))?;
        let mut index = Index::default();
        for r in replay_journal(&dir.join("journal.log"))? {
            match r.kind {
                RecordKind::Miss => {
                    let bytes = if r.bytes == BYTES_UNKNOWN {
                        // Legacy record: recover the size from disk. An
                        // unreadable object cannot be served, so drop it.
                        match fs::metadata(object_path_in(&dir, r.key)) {
                            Ok(m) => m.len(),
                            Err(_) => continue,
                        }
                    } else {
                        r.bytes
                    };
                    index.clock += 1;
                    let meta = ObjectMeta {
                        bytes,
                        wall_ms: r.wall_ms,
                        jobs: r.jobs,
                        last_touch: index.clock,
                    };
                    if let Some(old) = index.map.insert(r.key.0, meta) {
                        index.total_bytes -= old.bytes;
                    }
                    index.total_bytes += bytes;
                }
                RecordKind::Hit => {
                    if let Some(meta) = index.map.get_mut(&r.key.0) {
                        index.clock += 1;
                        meta.last_touch = index.clock;
                    }
                }
                RecordKind::Evict => {
                    if let Some(old) = index.map.remove(&r.key.0) {
                        index.total_bytes -= old.bytes;
                    }
                }
            }
        }
        let journal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("journal.log"))?;
        let store = Store {
            dir,
            max_bytes,
            index: RwLock::new(index),
            journal: Mutex::new(journal),
        };
        // A freshly capped (or re-capped) store may replay over budget.
        let evicted = {
            let mut index = store.index.write().unwrap();
            let mut journal = store.journal.lock().unwrap();
            store.evict_over_budget(&mut index, &mut journal)?
        };
        store.remove_object_files(&evicted);
        Ok(store)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the journal file.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.log")
    }

    /// Path of the object holding `key`'s payload.
    pub fn object_path(&self, key: RunKey) -> PathBuf {
        object_path_in(&self.dir, key)
    }

    /// The configured object-byte budget, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// Total bytes across all live objects.
    pub fn total_bytes(&self) -> u64 {
        self.index.read().unwrap().total_bytes
    }

    /// Objects evicted by this store handle (budget enforcement).
    pub fn evictions(&self) -> u64 {
        self.index.read().unwrap().evictions
    }

    /// Number of addressable objects.
    pub fn len(&self) -> usize {
        self.index.read().unwrap().map.len()
    }

    /// `true` iff no object is addressable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All addressable keys, sorted.
    pub fn keys(&self) -> Vec<RunKey> {
        let mut keys: Vec<RunKey> = self
            .index
            .read()
            .unwrap()
            .map
            .keys()
            .copied()
            .map(RunKey)
            .collect();
        keys.sort();
        keys
    }

    /// All addressable keys in recency order, least recently used first —
    /// the order eviction would take them.
    pub fn keys_by_recency(&self) -> Vec<RunKey> {
        let index = self.index.read().unwrap();
        let mut entries: Vec<(u64, u64)> =
            index.map.iter().map(|(&k, m)| (m.last_touch, k)).collect();
        entries.sort_unstable();
        entries.into_iter().map(|(_, k)| RunKey(k)).collect()
    }

    /// `true` iff `key` is addressable.
    pub fn contains(&self, key: RunKey) -> bool {
        self.index.read().unwrap().map.contains_key(&key.0)
    }

    /// Reads `key`'s payload, or `None` if it was never inserted (or has
    /// been evicted). Does **not** journal — pair with
    /// [`Store::record_hit`] when the read answers a job. Takes only the
    /// read lock, so any number of hits are served concurrently.
    pub fn get(&self, key: RunKey) -> Option<Vec<u8>> {
        if !self.contains(key) {
            return None;
        }
        // File read outside the lock: a concurrent eviction turns this
        // into a clean miss (open fails), never a torn read.
        let mut buf = Vec::new();
        File::open(self.object_path(key))
            .and_then(|mut f| f.read_to_end(&mut buf))
            .ok()?;
        Some(buf)
    }

    /// Inserts `key → payload`, appends a **miss** record to the journal
    /// (object first, record second: a key the journal names is always
    /// readable), then evicts LRU objects until the byte budget holds.
    pub fn insert(
        &self,
        key: RunKey,
        payload: &[u8],
        wall_ms: u64,
        jobs: u32,
    ) -> std::io::Result<()> {
        fs::write(self.object_path(key), payload)?;
        let bytes = payload.len() as u64;
        let evicted = {
            let mut index = self.index.write().unwrap();
            let mut journal = self.journal.lock().unwrap();
            journal.write_all(&encode_record(&JournalRecord {
                key,
                wall_ms,
                jobs,
                kind: RecordKind::Miss,
                bytes,
            }))?;
            journal.flush()?;
            index.clock += 1;
            let meta = ObjectMeta {
                bytes,
                wall_ms,
                jobs,
                last_touch: index.clock,
            };
            if let Some(old) = index.map.insert(key.0, meta) {
                index.total_bytes -= old.bytes;
            }
            index.total_bytes += bytes;
            self.evict_over_budget(&mut index, &mut journal)?
        };
        self.remove_object_files(&evicted);
        Ok(())
    }

    /// Appends a **hit** record (`key` was served from the store) and
    /// promotes the object to most-recently-used.
    pub fn record_hit(&self, key: RunKey, jobs: u32) -> std::io::Result<()> {
        let mut index = self.index.write().unwrap();
        if index.map.contains_key(&key.0) {
            index.clock += 1;
            let touch = index.clock;
            index.map.get_mut(&key.0).unwrap().last_touch = touch;
        }
        let mut journal = self.journal.lock().unwrap();
        journal.write_all(&encode_record(&JournalRecord {
            key,
            wall_ms: 0,
            jobs,
            kind: RecordKind::Hit,
            bytes: 0,
        }))?;
        journal.flush()
    }

    /// Evicts least-recently-used objects until `total_bytes` is within
    /// budget, journaling one evict record each. Returns the evicted keys
    /// (their files are removed by the caller, outside the locks).
    fn evict_over_budget(
        &self,
        index: &mut Index,
        journal: &mut File,
    ) -> std::io::Result<Vec<RunKey>> {
        let Some(budget) = self.max_bytes else {
            return Ok(Vec::new());
        };
        let mut evicted = Vec::new();
        while index.total_bytes > budget {
            let Some((&key, &meta)) = index.map.iter().min_by_key(|(_, m)| m.last_touch) else {
                break;
            };
            journal.write_all(&encode_record(&JournalRecord {
                key: RunKey(key),
                wall_ms: 0,
                jobs: 0,
                kind: RecordKind::Evict,
                bytes: meta.bytes,
            }))?;
            index.map.remove(&key);
            index.total_bytes -= meta.bytes;
            index.evictions += 1;
            evicted.push(RunKey(key));
        }
        if !evicted.is_empty() {
            journal.flush()?;
        }
        Ok(evicted)
    }

    fn remove_object_files(&self, keys: &[RunKey]) {
        for &key in keys {
            let _ = fs::remove_file(self.object_path(key));
        }
    }

    /// Rewrites the journal to live records only: one miss record per
    /// addressable object, emitted in LRU→MRU order so a replay
    /// reconstructs both the index *and* its recency order — compaction
    /// is replay-equivalent by construction. Also sweeps object files the
    /// index no longer names (evicted or superseded). The rewrite is
    /// atomic (temp file + rename); both locks are held throughout.
    pub fn compact(&self) -> std::io::Result<CompactionStats> {
        let mut index = self.index.write().unwrap();
        let mut journal = self.journal.lock().unwrap();
        let path = self.journal_path();
        let old = fs::read(&path)?;
        let records_before = decode_journal(&old).len();
        let bytes_before = old.len() as u64;

        let mut entries: Vec<(u64, ObjectMeta)> = index.map.iter().map(|(&k, &m)| (k, m)).collect();
        entries.sort_unstable_by_key(|(_, m)| m.last_touch);
        let mut buf = Vec::with_capacity(entries.len() * (4 + RECORD_LEN));
        for (i, (key, meta)) in entries.iter_mut().enumerate() {
            meta.last_touch = (i + 1) as u64;
            buf.extend_from_slice(&encode_record(&JournalRecord {
                key: RunKey(*key),
                wall_ms: meta.wall_ms,
                jobs: meta.jobs,
                kind: RecordKind::Miss,
                bytes: meta.bytes,
            }));
        }
        let tmp = self.dir.join("journal.log.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        *journal = OpenOptions::new().append(true).open(&path)?;
        index.clock = entries.len() as u64;
        for (key, meta) in &entries {
            index.map.insert(*key, *meta);
        }

        // Orphan sweep: object files the index no longer names.
        let mut orphans_removed = 0usize;
        if let Ok(dirents) = fs::read_dir(self.dir.join("objects")) {
            for entry in dirents.flatten() {
                let name = entry.file_name();
                let live = name
                    .to_str()
                    .and_then(|s| s.strip_suffix(".bin"))
                    .and_then(RunKey::from_hex)
                    .is_some_and(|k| index.map.contains_key(&k.0));
                if !live && fs::remove_file(entry.path()).is_ok() {
                    orphans_removed += 1;
                }
            }
        }
        Ok(CompactionStats {
            records_before,
            records_after: entries.len(),
            bytes_before,
            bytes_after: buf.len() as u64,
            orphans_removed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iabc-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn insert_get_roundtrip_and_reopen() {
        let dir = temp_dir("roundtrip");
        let key = RunKey(0xdead_beef_0123_4567);
        {
            let store = Store::open(&dir).unwrap();
            assert!(store.get(key).is_none());
            store.insert(key, b"payload-bytes", 12, 4).unwrap();
            assert_eq!(store.get(key).unwrap(), b"payload-bytes");
            assert_eq!(store.total_bytes(), 13);
        }
        // Reopen: the journal replay rebuilds the index.
        let store = Store::open(&dir).unwrap();
        assert!(store.contains(key));
        assert_eq!(store.get(key).unwrap(), b"payload-bytes");
        assert_eq!(store.len(), 1);
        assert_eq!(store.total_bytes(), 13);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_orders_miss_then_hit() {
        let dir = temp_dir("order");
        let key = RunKey(42);
        let store = Store::open(&dir).unwrap();
        store.insert(key, b"x", 5, 1).unwrap();
        store.record_hit(key, 1).unwrap();
        let records = replay_journal(&store.journal_path()).unwrap();
        assert_eq!(records.len(), 2);
        assert!(records[0].is_miss(), "first record must be the miss");
        assert!(records[1].is_hit(), "second record must be the hit");
        assert_eq!(records[0].key, key);
        assert_eq!(records[1].key, key);
        assert_eq!(records[0].wall_ms, 5);
        assert_eq!(records[0].bytes, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_ignored() {
        let dir = temp_dir("torn");
        let key = RunKey(7);
        let store = Store::open(&dir).unwrap();
        store.insert(key, b"x", 1, 1).unwrap();
        drop(store);
        // Append half a record.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join("journal.log"))
            .unwrap();
        f.write_all(&[29, 0, 0, 0, 1, 2, 3]).unwrap();
        drop(f);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.contains(key));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_21_byte_records_replay_via_stat() {
        let dir = temp_dir("legacy");
        let key = RunKey(0xabc);
        fs::create_dir_all(dir.join("objects")).unwrap();
        fs::write(object_path_in(&dir, key), b"old-payload").unwrap();
        // Hand-craft a legacy miss record (21-byte payload, no bytes field).
        let mut rec = Vec::new();
        rec.extend_from_slice(&21u32.to_le_bytes());
        rec.extend_from_slice(&key.0.to_le_bytes());
        rec.extend_from_slice(&9u64.to_le_bytes());
        rec.extend_from_slice(&2u32.to_le_bytes());
        rec.push(0);
        fs::write(dir.join("journal.log"), &rec).unwrap();
        let store = Store::open(&dir).unwrap();
        assert!(store.contains(key));
        assert_eq!(
            store.total_bytes(),
            11,
            "size recovered from the object file"
        );
        assert_eq!(store.get(key).unwrap(), b"old-payload");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_eviction_respects_budget_and_replays() {
        let dir = temp_dir("evict");
        let store = Store::open_with_budget(&dir, Some(10)).unwrap();
        let (a, b, c) = (RunKey(1), RunKey(2), RunKey(3));
        store.insert(a, b"aaaa", 0, 1).unwrap(); // 4 bytes
        store.insert(b, b"bbbb", 0, 1).unwrap(); // 8 total
                                                 // Touch `a` so `b` becomes the LRU victim.
        store.record_hit(a, 1).unwrap();
        store.insert(c, b"cccc", 0, 1).unwrap(); // 12 > 10 → evict b
        assert!(store.total_bytes() <= 10, "budget is a hard invariant");
        assert!(store.contains(a) && store.contains(c));
        assert!(!store.contains(b), "LRU object evicted");
        assert!(store.get(b).is_none());
        assert!(!store.object_path(b).exists(), "evicted file removed");
        assert_eq!(store.evictions(), 1);
        drop(store);
        // Replay reconstructs the post-eviction index exactly.
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.keys(), vec![a, c]);
        assert_eq!(store.total_bytes(), 8);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hit_records_preserve_recency_across_reopen() {
        let dir = temp_dir("recency");
        let (a, b) = (RunKey(1), RunKey(2));
        {
            let store = Store::open(&dir).unwrap();
            store.insert(a, b"aaaa", 0, 1).unwrap();
            store.insert(b, b"bbbb", 0, 1).unwrap();
            store.record_hit(a, 1).unwrap();
            assert_eq!(store.keys_by_recency(), vec![b, a]);
        }
        // Reopen with a budget that forces one eviction on the next
        // insert: the replayed hit must protect `a`.
        let store = Store::open_with_budget(&dir, Some(10)).unwrap();
        assert_eq!(store.keys_by_recency(), vec![b, a]);
        store.insert(RunKey(3), b"cccc", 0, 1).unwrap();
        assert!(store.contains(a), "hit-promoted object survives");
        assert!(!store.contains(b), "stale object evicted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_is_replay_equivalent() {
        let dir = temp_dir("compact");
        let store = Store::open(&dir).unwrap();
        let keys: Vec<RunKey> = (1..=4).map(RunKey).collect();
        for (i, &k) in keys.iter().enumerate() {
            store
                .insert(k, format!("payload-{i}").as_bytes(), i as u64, 1)
                .unwrap();
        }
        // Interleave hits so recency order differs from insert order.
        store.record_hit(keys[0], 1).unwrap();
        store.record_hit(keys[2], 1).unwrap();
        let recency = store.keys_by_recency();
        let payloads: Vec<Vec<u8>> = keys.iter().map(|&k| store.get(k).unwrap()).collect();
        // Drop an orphan file the index does not name.
        fs::write(object_path_in(&dir, RunKey(0x999)), b"orphan").unwrap();

        let stats = store.compact().unwrap();
        assert_eq!(stats.records_before, 6);
        assert_eq!(stats.records_after, 4);
        assert!(stats.bytes_after < stats.bytes_before);
        assert_eq!(stats.orphans_removed, 1);

        // Same index, same payloads, same recency — before and after
        // reopen.
        assert_eq!(store.keys_by_recency(), recency);
        for (k, p) in keys.iter().zip(&payloads) {
            assert_eq!(&store.get(*k).unwrap(), p);
        }
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.keys_by_recency(), recency);
        for (k, p) in keys.iter().zip(&payloads) {
            assert_eq!(&store.get(*k).unwrap(), p);
        }
        // The compacted journal holds exactly one miss per live key.
        let records = replay_journal(&store.journal_path()).unwrap();
        assert_eq!(records.len(), 4);
        assert!(records.iter().all(|r| r.is_miss()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hex_roundtrip() {
        let key = RunKey(0x0123_4567_89ab_cdef);
        assert_eq!(key.hex(), "0123456789abcdef");
        assert_eq!(RunKey::from_hex(&key.hex()), Some(key));
        assert_eq!(RunKey::from_hex("xyz"), None);
        assert_eq!(RunKey::from_hex("0123"), None);
        // Other spellings `u64::from_str_radix` would read as the same key.
        for other in [
            "+123456789abcdef",
            "0123456789ABCDEF",
            " 123456789abcdef",
            "0123456789abcde\u{e9}",
        ] {
            assert_eq!(RunKey::from_hex(other), None, "{other:?}");
        }
    }

    /// An object file whose name spells a live key another way is an
    /// orphan: `get` never reads it, so compaction sweeps it.
    #[test]
    fn compaction_sweeps_objects_named_by_another_spelling() {
        let dir = temp_dir("spelling");
        let store = Store::open(&dir).unwrap();
        let key = RunKey(0x0123_4567_89ab_cdef);
        store.insert(key, b"payload", 0, 1).unwrap();
        let objects = dir.join("objects");
        for alias in ["+123456789abcdef.bin", "0123456789ABCDEF.bin"] {
            fs::write(objects.join(alias), b"alias").unwrap();
        }
        let stats = store.compact().unwrap();
        assert_eq!(stats.orphans_removed, 2);
        assert_eq!(store.get(key).unwrap(), b"payload");
        assert!(object_path_in(&dir, key).exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
