//! Round-based simulation of iterative approximate Byzantine consensus,
//! matching the execution model of Vaidya–Tseng–Liang (PODC 2012).
//!
//! # One builder, one trait, one outcome
//!
//! The paper defines a single execution loop — transmit, trim, update —
//! and every execution model in this crate is a variation on it. The API
//! reflects that:
//!
//! * [`Scenario`] collects a workload (graph, inputs, faults, rule,
//!   adversary) once; a terminal method picks the execution model:
//!   [`Scenario::synchronous`], [`Scenario::model_aware`],
//!   [`Scenario::dynamic`], [`Scenario::delay_bounded`],
//!   [`Scenario::withholding`], or [`Scenario::vector`].
//! * Every engine implements [`Engine`]; its provided [`Engine::run`]
//!   owns the convergence/round-cap loop, so adding a new scenario means
//!   implementing `step()` plus three accessors — not a seventh driver.
//! * Every run returns the same [`Outcome`], whose [`Termination`] says
//!   *why* it ended: `Converged` (range reached `epsilon`),
//!   `RoundCapReached` (budget exhausted), or `Halted` (the engine proved
//!   a permanent fixpoint, e.g. §7's empty survivor sets). See
//!   [`run`](module docs) for exact semantics.
//!
//! # One synchronous kernel and the double-buffer contract
//!
//! The paper's synchronous iteration is implemented **once**, by
//! [`SyncEngine`]. It is generic over only two things:
//!
//! * a [`dynamic::TopologySchedule`] supplying each round's graph — a
//!   plain [`iabc_graph::Digraph`] is the one-graph schedule, so
//!   [`Simulation`] and [`dynamic::DynamicSimulation`] are one type;
//! * a [`RoundRule`] adapter — bare values for an
//!   [`iabc_core::rules::UpdateRule`] ([`Simulation`]), `(sender, value)`
//!   pairs for an [`iabc_core::fault_model::IdentifiedRule`]
//!   ([`model_engine::ModelSimulation`]).
//!
//! Transcript recording and replay, the §7 withholding engine
//! ([`Scenario::withholding`], the kernel over each node's withheld
//! in-rows) and the vector engine ([`Scenario::vector`], the kernel's
//! node loop once per coordinate) run on the same kernel. Only the
//! delay-bounded engine keeps its own loop: its update reads a mailbox
//! row, and its send and deliver phases follow the scheduler's per-edge
//! RNG stream in sender-major order.
//!
//! The kernel compiles the round's `(graph, fault set)` pair into an
//! [`iabc_graph::CompiledTopology`] (CSR in-adjacency, dense fault flags,
//! and a faulty-edge sub-CSR) and steps with **two** state buffers: reads
//! come from the current buffer, writes go to the next, and a
//! `std::mem::swap` publishes the round — zero heap allocation per round
//! in steady state at `jobs = 1`. On a pool the round still allocates a
//! little: std's channels allocate a block every 31 dispatch messages
//! (complete(64), f = 3, jobs 2: 12 allocations per 100 rounds under a
//! pure family such as `ExtremesAdversary`, whose plan fill is a second
//! dispatch, and 6 under `RandomAdversary`; `tests/allocations.rs` pins
//! both). The contract that makes this safe:
//!
//! * **faulty entries are never written** — both buffers carry the faulty
//!   nodes' inputs forever (their "state" is meaningless in the Byzantine
//!   model, §2.2), and every fault-free entry is rewritten each round;
//! * **one [`adversary::AdversaryView`] per round** — the view snapshots
//!   the read buffer, which no write of the same round can touch;
//! * **one schedule lookup per round** — the CSR is **rebuilt in place**
//!   (reusing allocations) only when the schedule hands out a different
//!   graph, detected by reference address, so a fixed graph never
//!   recompiles.
//!
//! # The two-phase adversary protocol and the persistent executor
//!
//! Adversaries are invoked once per **round**, not once per edge: phase 1
//! ([`adversary::Adversary::plan_round`], serial, `&mut self`) fills a
//! flat [`plan::RoundPlan`] over the round's faulty-edge slots; phase 2
//! (the node loop) reads the finished plan by index.
//!
//! Everything parallel rides **one** retained worker pool, the
//! [`iabc_exec::Executor`] (re-exported as [`exec`]), created when an
//! engine is configured with `with_jobs(n)` / [`Scenario::parallel`] —
//! threads spawn once per run, park on channels between dispatches, and
//! are fed each round's work; `jobs = 1` runs inline with zero overhead.
//! What fans across it, per engine:
//!
//! * **the synchronous kernel** (scalar, model-aware, dynamic,
//!   withholding, and each coordinate of the vector engine) — the
//!   phase-2 node loop (a pure function of `(states, plan)` per node);
//! * **delay-bounded** — the per-tick update loop over the frozen
//!   mailbox; the send and deliver phases stay serial because the
//!   scheduler's RNG stream and same-tick mailbox overwrites are
//!   order-defined;
//! * **phase 1 itself**, for a pure adversary family
//!   ([`adversary::Adversary::fill`]): the per-round `&mut` work (hull
//!   scans, caches) runs serially, then the per-edge decision is fanned.
//!   RNG-streaming and wrapper adversaries plan fully serially through
//!   [`adversary::Adversary::plan_round`].
//!
//! In every case results are **bit-for-bit identical to serial execution
//! for any job count** — the ownership contract (each output index
//! written by exactly one worker, shared reads otherwise) and the
//! min-index-deterministic error rule live in [`iabc_exec`], and the
//! guarantee is pinned by `tests/parallel_equivalence.rs`.
//!
//! The hot arithmetic itself (sort, trim `f` per side, equal-weight
//! average) lives in [`iabc_core::rules::trim_kernel`], shared with the
//! baselines and the threaded runtime. The pre-refactor engine is
//! retained verbatim in [`mod@reference`] and pinned bit-for-bit against the
//! kernel by `tests/compiled_equivalence.rs` and the
//! `tests/engine_equivalence.rs` goldens.
//!
//! # Module map
//!
//! * [`scenario`] — the [`Scenario`] builder (start here).
//! * [`run`] — [`Engine`], [`RunConfig`], [`Outcome`], [`Termination`].
//! * [`SyncEngine`] — the synchronous round kernel, with its
//!   [`Simulation`] alias and [`RoundRule`] adapters.
//! * [`adversary`] — pluggable attack strategies (two-phase protocol),
//!   including the exact adversary from the proof of Theorem 1
//!   ([`adversary::SplitBrainAdversary`]).
//! * [`plan`] — phase 1's [`plan::RoundPlan`]/[`plan::RoundSlots`] tables.
//! * [`trace`] — `U[t]`, `µ[t]` recording plus the Equation 1 validity audit.
//! * [`async_engine`] — the §7 asynchronous models: bounded-delay mailboxes
//!   and the totally-asynchronous withhold-and-trim-`2f` algorithm.
//! * [`dynamic`] — time-varying topologies: round-indexed graph schedules
//!   and the [`dynamic::DynamicSimulation`] alias of the kernel.
//! * [`vector`] — coordinate-wise Algorithm 1 on `ℝ^d` states.
//! * [`model_engine`] — the kernel for identity-aware rules
//!   ([`iabc_core::fault_model::ModelTrimmedMean`]).
//! * [`fastmath`] — the opt-in FastMath tier: the replica-batched
//!   Monte-Carlo engine (`R` lockstep replicas on a replica-major
//!   structure-of-arrays state layout), bit-identical to the exact
//!   engines, and the epsilon-audit harness that checks it against them.
//! * [`certified`] — Lemma 5 a-priori termination certificates.
//! * [`transcript`] — message-level recording and deterministic replay.
//! * [`mod@reference`] — the retained naive pre-refactor stepper (differential
//!   testing witness and benchmark baseline).
//!
//! # Examples
//!
//! ```
//! use iabc_core::rules::TrimmedMean;
//! use iabc_graph::{generators, NodeSet};
//! use iabc_sim::adversary::ExtremesAdversary;
//! use iabc_sim::{RunConfig, Scenario, Termination};
//!
//! // Core network (§6.1) with f = 1 under an extremes attack: converges,
//! // stays valid.
//! let g = generators::core_network(5, 1);
//! let rule = TrimmedMean::new(1);
//! let mut sim = Scenario::on(&g)
//!     .inputs(&[10.0, 20.0, 30.0, 40.0, 0.0])
//!     .faults(NodeSet::from_indices(5, [4]))
//!     .rule(&rule)
//!     .adversary(Box::new(ExtremesAdversary::new(1e3)))
//!     .synchronous()?;
//! let out = sim.run(&RunConfig::default())?;
//! assert_eq!(out.termination, Termination::Converged);
//! assert!(out.validity.is_valid());
//! # Ok::<(), iabc_sim::SimError>(())
//! ```
//!
//! The same scenario drives any other execution model by swapping the
//! terminal — e.g. `.delay_bounded(Box::new(MaxDelayScheduler), 3)` for §7
//! partial asynchrony — and yields the same [`Outcome`] type.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
pub mod async_engine;
pub mod certified;
pub mod dynamic;
mod engine;
mod error;
pub mod fastmath;
pub mod model_engine;
pub mod plan;
pub mod reference;
pub mod run;
pub mod scenario;
pub mod trace;
pub mod transcript;
pub mod vector;
pub mod wire;

pub use engine::{RoundRule, Simulation, SyncEngine};
pub use error::SimError;
/// The persistent worker pool every parallel path in this crate fans
/// over ([`iabc_exec`], re-exported): one implementation, one
/// determinism contract.
pub use iabc_exec as exec;
pub use run::{Engine, Outcome, RunConfig, StepStatus, Termination};
pub use scenario::Scenario;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<RunConfig>();
        assert_send::<SimError>();
        assert_send::<Termination>();
        assert_send::<trace::Trace>();
    }
}
