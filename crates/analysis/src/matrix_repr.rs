//! Matrix representation of Algorithm 1 rounds — the "Markov chain" view
//! the paper notes in §2.3 ("the evolution of the state of the nodes may be
//! modeled by a Markov chain") and the authors' follow-up work develops.
//!
//! One round of Algorithm 1 at the fault-free nodes can be rewritten as a
//! linear iteration over **honest states only**:
//! `v_honest[t] = M[t] · v_honest[t-1]` with `M[t]` row-stochastic. The
//! construction is the standard one: each *surviving* faulty value `w` is
//! bracketed by honest received values `lo ≤ w ≤ hi` (guaranteed by the
//! trimming argument, Lemma 3/4) and replaced by the convex combination
//! `w = λ·lo + (1-λ)·hi`.
//!
//! The per-round **ergodicity coefficient**
//! `τ(M) = 1 − min_{i,j} Σ_k min(M_ik, M_jk)` then bounds the range
//! contraction exactly: `range(M x) ≤ τ(M) · range(x)` — a per-round,
//! execution-specific sharpening of the Lemma 5 phase bound (experiment X2).

use iabc_core::rules::sanitize;
use iabc_core::RuleError;
use iabc_graph::{Digraph, NodeId, NodeSet};
use iabc_sim::adversary::{Adversary, AdversaryView};
use iabc_sim::plan::{faulty_edges_of, PlannedMessage, RoundPlan, RoundSlots};

/// The honest-only transition matrix of one Algorithm 1 round.
#[derive(Debug, Clone)]
pub struct RoundMatrix {
    /// Honest node ids, in ascending order; row/column `k` corresponds to
    /// `honest[k]`.
    pub honest: Vec<NodeId>,
    /// Row-stochastic matrix entries, `rows[i][j]` = weight of honest node
    /// `honest[j]`'s previous state in honest node `honest[i]`'s update.
    pub rows: Vec<Vec<f64>>,
}

impl RoundMatrix {
    /// Applies the matrix to an honest state vector (ordered as
    /// [`RoundMatrix::honest`]).
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match.
    pub fn apply(&self, honest_prev: &[f64]) -> Vec<f64> {
        assert_eq!(
            honest_prev.len(),
            self.honest.len(),
            "state vector length mismatch"
        );
        self.rows
            .iter()
            .map(|row| row.iter().zip(honest_prev).map(|(m, v)| m * v).sum())
            .collect()
    }

    /// The ergodicity coefficient `τ(M) = 1 − min_{i,j} Σ_k min(M_ik, M_jk)`.
    /// `range(M x) ≤ τ(M) · range(x)` for any `x`; `τ < 1` certifies strict
    /// per-round contraction.
    pub fn ergodicity_coefficient(&self) -> f64 {
        let h = self.rows.len();
        if h <= 1 {
            return 0.0;
        }
        let mut min_overlap = f64::INFINITY;
        for i in 0..h {
            for j in (i + 1)..h {
                let overlap: f64 = self.rows[i]
                    .iter()
                    .zip(&self.rows[j])
                    .map(|(a, b)| a.min(*b))
                    .sum();
                min_overlap = min_overlap.min(overlap);
            }
        }
        (1.0 - min_overlap).clamp(0.0, 1.0)
    }

    /// Smallest non-zero entry (the paper's `β`-style lower bound on
    /// surviving influence).
    pub fn min_positive_entry(&self) -> f64 {
        self.rows
            .iter()
            .flatten()
            .copied()
            .filter(|&x| x > 0.0)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Builds the honest-only round matrix for one Algorithm 1 step from the
/// previous full state vector, querying `adversary` for the faulty
/// senders' per-edge values (exactly as the engine would at `round`).
///
/// # Errors
///
/// Returns [`RuleError::InsufficientValues`] if some honest node has
/// in-degree `< 2f + 1` (the bracketing construction needs an honest value
/// on both sides of every survivor).
pub fn round_matrix(
    g: &Digraph,
    f: usize,
    fault_set: &NodeSet,
    prev: &[f64],
    adversary: &mut dyn Adversary,
    round: usize,
) -> Result<RoundMatrix, RuleError> {
    let honest: Vec<NodeId> = g.nodes().filter(|v| !fault_set.contains(*v)).collect();
    let col_of: std::collections::HashMap<NodeId, usize> =
        honest.iter().enumerate().map(|(k, &v)| (v, k)).collect();
    let mut rows = Vec::with_capacity(honest.len());

    // Two-phase protocol: plan every faulty edge of the round once, in
    // the same receiver-major order the gather below consumes it.
    // Omission is not modelled here (the matrix view assumes a full
    // received multiset), so the slots disallow it.
    let edges = faulty_edges_of(g, fault_set);
    let view = AdversaryView {
        round,
        graph: g,
        states: prev,
        fault_set,
    };
    let mut plan = RoundPlan::new();
    plan.begin(edges.len());
    adversary.plan_round(&view, RoundSlots::new(&edges, false), &mut plan);
    let mut cursor = 0u32;

    for (&i, _) in honest.iter().zip(0..) {
        let in_deg = g.in_degree(i);
        if f > 0 && in_deg < 2 * f + 1 {
            return Err(RuleError::InsufficientValues {
                needed: 2 * f + 1,
                got: in_deg,
            });
        }
        // Gather (value, sender, honest?) per in-edge.
        let mut received: Vec<(f64, NodeId, bool)> = Vec::with_capacity(in_deg);
        for j in g.in_neighbors(i).iter() {
            if fault_set.contains(j) {
                let raw = match plan.get(cursor) {
                    PlannedMessage::Value(v) => v,
                    // No omission in this model: substitute the
                    // receiver's own (honest, in-hull) previous state.
                    PlannedMessage::Omit => prev[i.index()],
                };
                cursor += 1;
                received.push((sanitize(raw), j, false));
            } else {
                received.push((prev[j.index()], j, true));
            }
        }
        // Sort by value (sender index as a deterministic tie-break) and trim.
        received.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let survivors = &received[f..received.len() - f];
        let weight = 1.0 / (survivors.len() as f64 + 1.0);

        let mut row = vec![0.0; honest.len()];
        row[col_of[&i]] += weight; // own value
        for &(w, sender, is_honest) in survivors {
            if is_honest {
                row[col_of[&sender]] += weight;
                continue;
            }
            // Bracket the surviving faulty value between honest received
            // values (they exist: the f smallest / largest received values
            // each contain at least one honest sender).
            let lo = received
                .iter()
                .filter(|(v, _, h)| *h && *v <= w)
                .max_by(|a, b| a.0.total_cmp(&b.0))
                .map(|&(v, s, _)| (v, s));
            let hi = received
                .iter()
                .filter(|(v, _, h)| *h && *v >= w)
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .map(|&(v, s, _)| (v, s));
            let (Some((lov, lop)), Some((hiv, hip))) = (lo, hi) else {
                return Err(RuleError::InsufficientValues {
                    needed: 2 * f + 1,
                    got: in_deg,
                });
            };
            if hiv > lov {
                let lambda = (hiv - w) / (hiv - lov);
                row[col_of[&lop]] += weight * lambda;
                row[col_of[&hip]] += weight * (1.0 - lambda);
            } else {
                row[col_of[&lop]] += weight;
            }
        }
        rows.push(row);
    }
    Ok(RoundMatrix { honest, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_core::rules::TrimmedMean;
    use iabc_graph::generators;
    use iabc_sim::adversary::{ConstantAdversary, ExtremesAdversary, PullAdversary};
    use iabc_sim::Simulation;

    fn honest_vec(prev: &[f64], fault_set: &NodeSet) -> Vec<f64> {
        prev.iter()
            .enumerate()
            .filter(|(i, _)| !fault_set.contains(NodeId::new(*i)))
            .map(|(_, &v)| v)
            .collect()
    }

    #[test]
    fn rows_are_stochastic_and_positive() {
        let g = generators::complete(7);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let prev = [0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0];
        let mut adv = ConstantAdversary::new(1e9);
        let m = round_matrix(&g, 2, &faults, &prev, &mut adv, 1).unwrap();
        assert_eq!(m.honest.len(), 5);
        for row in &m.rows {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "row sums to {s}");
            assert!(row.iter().all(|&x| x >= 0.0));
        }
        // Self-weight is at least a_i = 1/(6 + 1 - 4) = 1/3.
        for (k, row) in m.rows.iter().enumerate() {
            assert!(row[k] >= 1.0 / 3.0 - 1e-12, "diagonal {}", row[k]);
        }
    }

    #[test]
    fn matrix_reproduces_engine_step_exactly() {
        // One engine step and one matrix application from the same state
        // must agree (up to fp tolerance), for several adversaries.
        let g = generators::complete(7);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0];
        let rule = TrimmedMean::new(2);
        for mk in 0..3 {
            let mut engine_adv: Box<dyn Adversary> = match mk {
                0 => Box::new(ConstantAdversary::new(1e9)),
                1 => Box::new(ExtremesAdversary::new(7.0)),
                _ => Box::new(PullAdversary::new(true)),
            };
            let mut matrix_adv: Box<dyn Adversary> = match mk {
                0 => Box::new(ConstantAdversary::new(1e9)),
                1 => Box::new(ExtremesAdversary::new(7.0)),
                _ => Box::new(PullAdversary::new(true)),
            };
            let m = round_matrix(&g, 2, &faults, &inputs, matrix_adv.as_mut(), 1).unwrap();
            let predicted = m.apply(&honest_vec(&inputs, &faults));

            let mut sim = Simulation::new(&g, &inputs, faults.clone(), &rule, {
                // move the boxed adversary into the sim
                std::mem::replace(&mut engine_adv, Box::new(ConstantAdversary::new(0.0)))
            })
            .unwrap();
            sim.step().unwrap();
            let actual = honest_vec(sim.states(), &faults);
            for (p, a) in predicted.iter().zip(&actual) {
                assert!((p - a).abs() < 1e-9, "matrix {p} vs engine {a} (adv {mk})");
            }
        }
    }

    #[test]
    fn ergodicity_coefficient_bounds_range_contraction() {
        let g = generators::core_network(7, 2);
        let faults = NodeSet::from_indices(7, [5, 6]);
        let mut prev = vec![0.0, 10.0, 5.0, 2.0, 8.0, 0.0, 0.0];
        let rule = TrimmedMean::new(2);
        let mut sim = Simulation::new(
            &g,
            &prev,
            faults.clone(),
            &rule,
            Box::new(PullAdversary::new(false)),
        )
        .unwrap();
        for round in 1..=20 {
            let mut adv = PullAdversary::new(false);
            let m = round_matrix(&g, 2, &faults, &prev, &mut adv, round).unwrap();
            let tau = m.ergodicity_coefficient();
            assert!((0.0..=1.0).contains(&tau));
            let hv = honest_vec(&prev, &faults);
            let range_before = hv.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - hv.iter().cloned().fold(f64::INFINITY, f64::min);
            sim.step().unwrap();
            prev = sim.states().to_vec();
            let hv2 = honest_vec(&prev, &faults);
            let range_after = hv2.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - hv2.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(
                range_after <= tau * range_before + 1e-9,
                "round {round}: {range_after} > tau {tau} * {range_before}"
            );
        }
    }

    #[test]
    fn ergodicity_of_uniform_matrix_is_zero() {
        let m = RoundMatrix {
            honest: vec![NodeId::new(0), NodeId::new(1)],
            rows: vec![vec![0.5, 0.5], vec![0.5, 0.5]],
        };
        assert_eq!(m.ergodicity_coefficient(), 0.0);
        assert_eq!(m.min_positive_entry(), 0.5);
    }

    #[test]
    fn ergodicity_of_identity_is_one() {
        let m = RoundMatrix {
            honest: vec![NodeId::new(0), NodeId::new(1)],
            rows: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
        };
        assert_eq!(m.ergodicity_coefficient(), 1.0);
    }

    #[test]
    fn degree_deficient_graphs_are_rejected() {
        let g = generators::cycle(5);
        let faults = NodeSet::from_indices(5, [4]);
        let prev = [0.0; 5];
        let mut adv = ConstantAdversary::new(1.0);
        assert!(matches!(
            round_matrix(&g, 1, &faults, &prev, &mut adv, 1),
            Err(RuleError::InsufficientValues { .. })
        ));
    }

    #[test]
    fn f_zero_matrix_is_plain_averaging() {
        let g = generators::complete(4);
        let faults = NodeSet::with_universe(4);
        let prev = [1.0, 2.0, 3.0, 4.0];
        let mut adv = ConstantAdversary::new(0.0);
        let m = round_matrix(&g, 0, &faults, &prev, &mut adv, 1).unwrap();
        for row in &m.rows {
            for &x in row {
                assert!((x - 0.25).abs() < 1e-12);
            }
        }
        assert_eq!(m.ergodicity_coefficient(), 0.0);
    }
}
