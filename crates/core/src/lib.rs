//! The primary contribution of *Iterative Approximate Byzantine Consensus in
//! Arbitrary Directed Graphs* (Vaidya, Tseng, Liang; PODC 2012), as a
//! library.
//!
//! The paper proves a **tight** condition on a directed graph `G(V, E)` for
//! the existence of an iterative approximate Byzantine consensus algorithm
//! tolerating `f` faults, and shows the trimmed-mean iteration
//! (**Algorithm 1**) achieves it whenever the condition holds:
//!
//! | Paper artifact | Module |
//! |---|---|
//! | `⇒` relation, `in(A ⇒ B)` (Defs. 1–2) | [`relation`] |
//! | Theorem 1 exact checker + witnesses | [`theorem1`], [`Witness`] |
//! | Propagation (Def. 3, Lemmas 1–2) | [`propagate`] |
//! | Corollaries 2–3 fast checks | [`corollaries`] |
//! | Algorithm 1 + rule variants | [`rules`] |
//! | Opt-in vectorized kernel (FastMath tier) | [`fastmath`] |
//! | Quantized (fixed-point) Algorithm 1 (extension) | [`quantized`] |
//! | `α` and Lemma 5 rate bounds | [`alpha`] |
//! | §7 asynchronous condition | [`async_condition`] |
//! | Randomized falsifier (large `n`) | [`search`] |
//! | (r, s)-robustness (extension) | [`robustness`] |
//! | f-local fault model (extension) | [`local_fault`] |
//! | Generalized fault models / adversary structures (extension) | [`fault_model`] |
//! | Witness-driven topology repair | [`repair`] |
//! | Satisfying-by-construction growth (\[18\]-style) | [`construction`] |
//! | §6.1 edge-minimality probes | [`minimality`] |
//!
//! # Quick start
//!
//! ```
//! use iabc_core::{theorem1, rules::{TrimmedMean, UpdateRule}};
//! use iabc_graph::generators;
//!
//! // Does the paper's §6.3 chord network tolerate f = 1 with n = 5? Yes:
//! let g = generators::chord(5, 3);
//! assert!(theorem1::check(&g, 1).is_satisfied());
//!
//! // One Algorithm 1 step at a node that received {0, 5, 100} with f = 1:
//! let rule = TrimmedMean::new(1);
//! let mut received = vec![0.0, 5.0, 100.0];
//! let next = rule.update(4.0, &mut received)?;
//! assert!((next - 4.5).abs() < 1e-12); // (4 + 5) / 2 — extremes trimmed
//! # Ok::<(), iabc_core::RuleError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alpha;
pub mod async_condition;
pub mod construction;
pub mod corollaries;
mod error;
pub mod fastmath;
pub mod fault_model;
pub mod local_fault;
pub mod minimality;
pub mod propagate;
pub mod quantized;
pub mod relation;
pub mod repair;
pub mod robustness;
pub mod rules;
mod scan;
pub mod search;
pub mod theorem1;
mod witness;

pub use error::{CheckerError, RuleError, StructureError};
pub use relation::Threshold;
pub use witness::{ConditionReport, Witness};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Threshold>();
        assert_send_sync::<Witness>();
        assert_send_sync::<ConditionReport>();
        assert_send_sync::<CheckerError>();
        assert_send_sync::<RuleError>();
    }

    #[test]
    fn update_rules_are_object_safe() {
        let rules: Vec<Box<dyn rules::UpdateRule>> = vec![
            Box::new(rules::TrimmedMean::new(1)),
            Box::new(rules::Mean::new()),
        ];
        assert_eq!(rules.len(), 2);
    }
}
