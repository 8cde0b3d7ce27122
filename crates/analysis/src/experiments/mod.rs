//! Executable regeneration of every checkable artifact in the paper.
//!
//! The paper is a theory paper — no empirical tables — so its "evaluation"
//! is the set of theorems, corollaries, worked applications (§6) and
//! figures. Each experiment here regenerates one of them as a table of
//! measured rows plus a pass/fail verdict; the README section "The
//! parallel sweep runner" shows how to print them all.
//!
//! | ID | Paper artifact |
//! |----|----------------|
//! | E1 | Theorem 1 necessity: proof adversary freezes violating graphs |
//! | E2 | Theorem 2 validity under every adversary |
//! | E3 | Theorem 3 convergence + rounds-to-ε |
//! | E4 | Corollary 2: `n > 3f` |
//! | E5 | Corollary 3: in-degree `≥ 2f + 1` |
//! | E6 | §6.1 core networks (+ edge-criticality probe) |
//! | E7 | §6.2 hypercubes + Figure 3 |
//! | E8 | §6.3 chord networks (paper's exact witness) |
//! | E9 | §7 asynchronous: bounds, bounded-delay and withholding runs |
//! | E10 | Lemma 5 rate bound vs measured contraction |
//! | E11 | Figures 1–3 geometry as DOT renders |
//! | E12 | Ablation: trimming and weighting variants |

mod ablation;
mod applications;
mod async_exp;
mod baselines_exp;
mod census_exp;
mod condition_zoo;
mod construction_exp;
mod convergence_exp;
mod corollaries_exp;
mod extensions;
mod extensions2;
mod necessity;
mod rate;
mod scaling;
mod tournament;
mod validity;

pub use ablation::e12_ablation;
pub use applications::{
    dimension_cut_witness, e11_figures, e6_core_network, e7_hypercube, e8_chord,
    falsifier_consistency_sweep,
};
pub use async_exp::e9_async;
pub use baselines_exp::x5_baselines;
pub use census_exp::x8_census;
pub use condition_zoo::x4_condition_zoo;
pub use construction_exp::x7_construction;
pub use convergence_exp::e3_convergence;
pub use corollaries_exp::{e4_corollary2, e5_corollary3};
pub use extensions::{x1_local_fault_model, x2_matrix_representation, x3_model_comparison};
pub use extensions2::{x10_fault_models, x11_dynamic_topology, x12_quantized, x13_vector};
pub use necessity::e1_necessity;
pub use rate::e10_rate;
pub use scaling::x6_scaling;
pub use tournament::x9_adversary_tournament;
pub use validity::e2_validity;

use crate::table::Table;

/// Output of one experiment: a table of rows, free-form notes, optional
/// file artifacts (e.g. DOT figures), and an overall verdict.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Stable identifier (`"E1"`, ...). Owned so results can round-trip
    /// through the serving tier's content-addressed store.
    pub id: String,
    /// One-line description tying the experiment to the paper artifact.
    pub title: String,
    /// The regenerated rows.
    pub table: Table,
    /// Additional context (parameters, caveats).
    pub notes: Vec<String>,
    /// Artifacts to write to disk, as `(file name, content)` pairs.
    pub artifacts: Vec<(String, String)>,
    /// `true` iff every checked expectation from the paper held.
    pub pass: bool,
}

/// Runs every paper experiment (E1–E12) in order. This is what the
/// `experiments` binary prints and what the integration suite asserts on.
pub fn run_all() -> Vec<ExperimentResult> {
    vec![
        e1_necessity(),
        e2_validity(),
        e3_convergence(),
        e4_corollary2(),
        e5_corollary3(),
        e6_core_network(),
        e7_hypercube(),
        e8_chord(),
        e9_async(),
        e10_rate(),
        e11_figures(),
        e12_ablation(),
    ]
}

/// Runs the extension experiments (X1–X13) — tooling beyond the paper:
/// the f-local fault model, the matrix representation, the
/// broadcast/omission model comparison, the condition zoo, the baseline
/// faceoff, the scaling study, the construction/minimality probes, the
/// census, the adversary tournament, the fault models, dynamic
/// topologies, quantized states and vector consensus.
pub fn run_extensions() -> Vec<ExperimentResult> {
    vec![
        x1_local_fault_model(),
        x2_matrix_representation(),
        x3_model_comparison(),
        x4_condition_zoo(),
        x5_baselines(),
        x6_scaling(),
        x7_construction(),
        x8_census(),
        x9_adversary_tournament(),
        x10_fault_models(),
        x11_dynamic_topology(),
        x12_quantized(),
        x13_vector(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiments_pass() {
        for result in run_all() {
            assert!(
                result.pass,
                "{} ({}) failed:\n{}\nnotes: {:?}",
                result.id, result.title, result.table, result.notes
            );
        }
    }

    #[test]
    fn experiment_ids_are_unique_and_ordered() {
        let results = run_all();
        let ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            vec!["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"]
        );
    }

    #[test]
    fn all_extension_experiments_pass() {
        for result in run_extensions() {
            assert!(
                result.pass,
                "{} ({}) failed:\n{}\nnotes: {:?}",
                result.id, result.title, result.table, result.notes
            );
        }
    }

    #[test]
    fn extension_ids_are_x_prefixed() {
        let results = run_extensions();
        let ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            vec!["X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X9", "X10", "X11", "X12", "X13"]
        );
    }
}
