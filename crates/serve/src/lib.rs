//! **iabc-serve** — the sweep-as-a-service tier.
//!
//! Every engine in this workspace is bit-for-bit deterministic at any job
//! count (pinned by goldens and proptests since PR 3–5). That turns result
//! caching from a heuristic into a theorem: a result stored under a key
//! that fingerprints *every* output-determining ingredient is **provably
//! identical** to recomputation. This crate spends that property in three
//! layers:
//!
//! * [`store`] — a content-addressed result store (`RunKey` → payload
//!   object on disk) with an append-only run journal whose replay
//!   reconstructs the index: every table the daemon ever served has
//!   addressable, replayable provenance;
//! * [`server`] — the `iabc serve` daemon: a bounded thread-per-connection
//!   `std::net::TcpListener` accept loop speaking length-prefixed JSON
//!   frames ([`protocol`]; hand-rolled [`json`], since the vendored serde
//!   is a no-op stand-in), answering hits concurrently from the store's
//!   read lock, executing misses under the **process-level shared
//!   executor**'s compute permit ([`iabc_exec::process_executor`]), and
//!   coalescing identical in-flight submissions ([`server::SingleFlight`]);
//! * [`client`] — `iabc submit` / `iabc query`, plus the in-process
//!   [`server::StoreMemo`] fast path that lets `iabc sweep experiments
//!   --store DIR` memoize through the identical key schema without a
//!   socket.
//!
//! The key schema lives in [`job`]: FNV-1a (via the canonical
//! [`iabc_graph::fingerprint`] module) over `(topology fingerprint, fault
//! set, adversary family + params, rule, seed, engine kind, RunConfig)`
//! for scenario jobs, and the canonicalized experiment-id list for sweep
//! jobs. Payloads are explicit little-endian records
//! ([`iabc_sim::wire`]'s `IABCOUT1` for outcomes, [`job`]'s `IABCEXP1`
//! for experiment tables), so cache equality is byte equality.

#![warn(missing_docs)]

pub mod client;
pub mod job;
pub mod json;
pub mod memo;
pub mod protocol;
pub mod server;
pub mod store;

pub use client::{compact, query, shutdown, submit, SubmitOutcome};
pub use job::{EngineSpec, InputSpec, JobSpec, ScenarioSpec};
pub use memo::TopologyMemo;
pub use server::{
    answer_submit, decode_sweep_payload, Server, ServerConfig, ServerStats, SingleFlight,
    StoreMemo, SubmitDisposition, DEFAULT_MAX_CONNECTIONS,
};
pub use store::{replay_journal, CompactionStats, JournalRecord, RecordKind, RunKey, Store};

/// Unified error for the serving tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Socket / filesystem failure.
    Io(String),
    /// Malformed frame, JSON, or request.
    Protocol(String),
    /// Invalid or failing job (unknown rule, bad graph, engine error).
    Job(String),
    /// The server answered with an error frame.
    Server(String),
    /// A compute died without an outcome (its thread panicked).
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(m) => write!(f, "io error: {m}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::Job(m) => write!(f, "job error: {m}"),
            ServeError::Server(m) => write!(f, "server error: {m}"),
            ServeError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}
