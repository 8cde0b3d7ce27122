//! X9 — adversary tournament: Theorem 3 means *no* adversary prevents
//! convergence on a satisfying graph; the tournament measures which
//! strategy delays it most.
//!
//! Every adversary in the standard roster (plus the polarizing/echo/
//! flip-flop additions) attacks Algorithm 1 on each satisfying workload.
//! Pass criteria: every single run converges with validity intact — the
//! full-information adversary can slow the iteration but never stop it or
//! drag it outside the honest hull. The per-adversary round counts rank
//! the strategies: the extremes attack (trimming discards honest extremes
//! alongside the planted ones, shrinking the information per round) and
//! the in-hull polarizing/echo attacks lead the slow-down table.

use iabc_core::rules::TrimmedMean;
use iabc_core::theorem1;
use iabc_graph::{generators, Digraph, NodeSet};
use iabc_sim::adversary::standard_roster;
use iabc_sim::RunConfig;

use crate::table::Table;

use super::ExperimentResult;
use iabc_sim::Scenario;

fn workloads() -> Vec<(&'static str, Digraph, usize, Vec<usize>)> {
    vec![
        ("K7", generators::complete(7), 2, vec![5, 6]),
        ("core(7,2)", generators::core_network(7, 2), 2, vec![0, 5]),
        ("chord(5,3)", generators::chord(5, 3), 1, vec![2]),
    ]
}

/// Runs experiment X9 (adversary tournament).
pub fn x9_adversary_tournament() -> ExperimentResult {
    let mut table = Table::new(["graph", "adversary", "rounds to 1e-6", "valid"]);
    let mut pass = true;
    let mut notes = Vec::new();

    for (name, g, f, faulty) in workloads() {
        debug_assert!(theorem1::check(&g, f).is_satisfied());
        let n = g.node_count();
        let inputs: Vec<f64> = (0..n).map(|i| i as f64 * 7.0).collect();
        let rule = TrimmedMean::new(f);
        let config = RunConfig {
            record_states: false,
            epsilon: 1e-6,
            max_rounds: 50_000,
        };
        let mut worst: Option<(String, usize)> = None;
        for adversary in standard_roster((0.0, 7.0 * (n - 1) as f64)) {
            let label = adversary.name().to_string();
            let faults = NodeSet::from_indices(n, faulty.iter().copied());
            match Scenario::on(&g)
                .inputs(&inputs)
                .faults(faults)
                .rule(&rule)
                .adversary(adversary)
                .synchronous()
                .and_then(|mut sim| sim.run(&config))
            {
                Ok(out) => {
                    let ok = out.converged && out.validity.is_valid();
                    pass &= ok;
                    if !ok {
                        notes.push(format!(
                            "{name}/{label}: converged={} valid={}",
                            out.converged,
                            out.validity.is_valid()
                        ));
                    }
                    if worst.as_ref().is_none_or(|(_, r)| out.rounds > *r) {
                        worst = Some((label.clone(), out.rounds));
                    }
                    table.row([
                        name.to_string(),
                        label,
                        out.rounds.to_string(),
                        out.validity.is_valid().to_string(),
                    ]);
                }
                Err(e) => {
                    pass = false;
                    notes.push(format!("{name}/{label}: engine error {e}"));
                }
            }
        }
        if let Some((label, rounds)) = worst {
            notes.push(format!(
                "{name}: slowest adversary is {label} ({rounds} rounds)"
            ));
        }
    }

    notes.push(
        "Theorem 3 reproduced adversarially: convergence and validity under every roster \
         strategy; the slow-down leaders are the extremes attack (its outliers force the \
         trim to discard honest extremes) and the in-hull polarizing/echo attacks"
            .into(),
    );

    ExperimentResult {
        id: "X9".into(),
        title: "Adversary tournament: no strategy stops Algorithm 1 on satisfying graphs".into(),
        notes,
        artifacts: Vec::new(),
        table,
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tournament_passes() {
        let r = x9_adversary_tournament();
        assert!(r.pass, "X9 failed:\n{}\n{:?}", r.table, r.notes);
    }

    #[test]
    fn tournament_covers_full_roster_per_graph() {
        let r = x9_adversary_tournament();
        let roster_size = standard_roster((0.0, 1.0)).len();
        assert_eq!(r.table.len(), 3 * roster_size);
    }
}
