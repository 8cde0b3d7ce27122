//! **iabc** — *Iterative Approximate Byzantine Consensus in Arbitrary
//! Directed Graphs* (Vaidya, Tseng, Liang; PODC 2012), reproduced as a Rust
//! workspace.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`graph`] — digraphs, bitset node sets, the §6 family generators,
//!   graph algorithms ([`iabc_graph`]);
//! * [`core`] — the paper's theory: the `⇒` relation, the **Theorem 1**
//!   tight-condition checker with verified witnesses, propagation, the
//!   corollaries, Algorithm 1 update rules (including the quantized
//!   fixed-point variant), `α`/Lemma 5 bounds, the §7 asynchronous
//!   condition, the (r, s)-robustness extension, and generalized fault
//!   models / adversary structures ([`iabc_core`]);
//! * [`sim`] — synchronous and asynchronous Byzantine simulation engines
//!   with full-information adversaries, plus time-varying topologies,
//!   vector-valued (coordinate-wise) consensus, and the identity-aware
//!   engine that runs structure-aware trimming ([`iabc_sim`]); the
//!   workspace's persistent worker pool is re-exported as `sim::exec`
//!   (`iabc-exec` — every parallel path fans over it, bit-for-bit
//!   identical to serial execution);
//! * [`analysis`] — convergence measurement and the E1–E12 experiment
//!   harness ([`iabc_analysis`]);
//! * [`baselines`] — the Dolev et al. full-exchange rules and W-MSR, for
//!   head-to-head comparisons ([`iabc_baselines`]);
//! * [`runtime`] — the protocol as a real deployment, in two tiers: the
//!   threaded reference (one thread per node, one channel per edge) and
//!   the multiplexed scale tier (mailboxes + tick scheduler on the shared
//!   pool behind a `Transport` trait, hosting 10⁶ nodes on `jobs`
//!   threads), both validated bit-for-bit against the deterministic
//!   engine ([`iabc_runtime`]);
//! * [`serve`] — the sweep-as-a-service tier: the `iabc serve` daemon,
//!   its content-addressed result store with an append-only run
//!   journal, and the in-process memo fast path — determinism makes a
//!   cache hit provably byte-identical to recomputation
//!   ([`iabc_serve`]).
//!
//! # Quick start
//!
//! Check whether a network tolerates `f` Byzantine nodes, then build the
//! workload once with [`sim::Scenario`] and run it — every execution model
//! (synchronous, model-aware, dynamic topology, delay-bounded,
//! withholding, vector) hangs off the same builder and returns the same
//! [`sim::Outcome`]:
//!
//! ```
//! use iabc::core::rules::TrimmedMean;
//! use iabc::core::theorem1;
//! use iabc::graph::{generators, NodeSet};
//! use iabc::sim::{adversary::ExtremesAdversary, RunConfig, Scenario, Termination};
//!
//! // A core network (paper §6.1) on 7 nodes tolerates f = 2:
//! let g = generators::core_network(7, 2);
//! assert!(theorem1::check(&g, 2).is_satisfied());
//!
//! // ... and the trimmed-mean iteration survives two colluding liars:
//! let rule = TrimmedMean::new(2);
//! let mut sim = Scenario::on(&g)
//!     .inputs(&[10.0, 30.0, 20.0, 25.0, 15.0, 0.0, 0.0])
//!     .faults(NodeSet::from_indices(7, [5, 6]))
//!     .rule(&rule)
//!     .adversary(Box::new(ExtremesAdversary::new(1e6)))
//!     .synchronous()?;
//! let out = sim.run(&RunConfig::default())?;
//! assert_eq!(out.termination, Termination::Converged);
//! assert!(out.validity.is_valid());
//! # Ok::<(), iabc::sim::SimError>(())
//! ```
//!
//! See `examples/` for runnable walkthroughs of the paper's applications
//! and the README section "The parallel sweep runner" for regenerating
//! every experiment.

#![warn(missing_docs)]

pub use iabc_analysis as analysis;
pub use iabc_baselines as baselines;
pub use iabc_core as core;
pub use iabc_graph as graph;
pub use iabc_runtime as runtime;
pub use iabc_serve as serve;
pub use iabc_sim as sim;

/// The paper this workspace reproduces.
pub const PAPER: &str = "Vaidya, Tseng, Liang: Iterative Approximate Byzantine \
Consensus in Arbitrary Directed Graphs (PODC 2012; arXiv:1201.4183)";

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        let g = crate::graph::generators::complete(4);
        assert!(crate::core::theorem1::check(&g, 1).is_satisfied());
        assert!(crate::PAPER.contains("PODC 2012"));
    }
}
