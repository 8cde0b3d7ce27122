//! Synchronous engine for **identity-aware** update rules — the
//! structure-aware trimming of [`iabc_core::fault_model`].
//!
//! The main [`crate::Simulation`] hands rules an anonymous value vector,
//! because the paper's Algorithm 1 never looks at who sent what. The
//! generalized fault model's rule
//! ([`iabc_core::fault_model::ModelTrimmedMean`]) must know the senders:
//! it trims the maximal *coverable prefix* — the longest run of extreme
//! values whose senders could all be faulty in some feasible world. This
//! engine is the same synchronous kernel with `(sender, value)` pairs
//! delivered to the rule.
//!
//! The payoff (experiment X10's closing row): on chord(7, 5) under the
//! rack structure `{{5, 6}}`, where the oblivious Algorithm 1 stays
//! frozen forever, [`iabc_core::fault_model::ModelTrimmedMean`] converges
//! — trimming only what the structure can corrupt keeps the honest
//! cross-partition edges alive.

use iabc_core::fault_model::IdentifiedRule;

use crate::engine::SyncEngine;

/// A synchronous simulation delivering `(sender, value)` pairs to an
/// [`IdentifiedRule`]: the synchronous kernel [`SyncEngine`] with the
/// identity-aware rule adapter, so it shares [`crate::Simulation`]'s
/// hot-path contract, two-phase adversary protocol, topology schedules
/// and [`SyncEngine::with_jobs`] determinism contract.
///
/// # Examples
///
/// ```
/// use iabc_core::fault_model::{AdversaryStructure, FaultModel, ModelTrimmedMean};
/// use iabc_graph::{generators, NodeSet};
/// use iabc_sim::adversary::ConstantAdversary;
/// use iabc_sim::model_engine::ModelSimulation;
/// use iabc_sim::RunConfig;
///
/// // K7 where only the rack {5, 6} can fail: the structure-aware rule
/// // trims at most the rack, and consensus survives constant lies.
/// let g = generators::complete(7);
/// let rack = AdversaryStructure::new(7, vec![NodeSet::from_indices(7, [5, 6])])?;
/// let rule = ModelTrimmedMean::new(FaultModel::Structure(rack));
/// let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0];
/// let faults = NodeSet::from_indices(7, [5, 6]);
/// let mut sim = ModelSimulation::new(
///     &g, &inputs, faults, &rule, Box::new(ConstantAdversary::new(1e9)),
/// )?;
/// let out = sim.run(&RunConfig::default())?;
/// assert!(out.converged && out.validity.is_valid());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type ModelSimulation<'a> = SyncEngine<'a, &'a dyn IdentifiedRule>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{ConstantAdversary, ExtremesAdversary, SplitBrainAdversary};
    use crate::error::SimError;
    use crate::{RunConfig, Simulation};
    use iabc_core::fault_model::{AdversaryStructure, Blind, FaultModel, ModelTrimmedMean};
    use iabc_core::rules::TrimmedMean;
    use iabc_core::Witness;
    use iabc_graph::{generators, NodeSet};

    #[test]
    fn blind_wrapper_reproduces_the_scalar_engine() {
        let g = generators::complete(7);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let classic = TrimmedMean::new(2);
        let blind = Blind(TrimmedMean::new(2));
        let mut scalar = Simulation::new(
            &g,
            &inputs,
            faults.clone(),
            &classic,
            Box::new(ConstantAdversary::new(1e9)),
        )
        .unwrap();
        let mut model = ModelSimulation::new(
            &g,
            &inputs,
            faults,
            &blind,
            Box::new(ConstantAdversary::new(1e9)),
        )
        .unwrap();
        for _ in 0..20 {
            scalar.step().unwrap();
            model.step().unwrap();
            assert_eq!(scalar.states(), model.states());
        }
    }

    #[test]
    fn total_model_rule_matches_algorithm_one_end_to_end() {
        let g = generators::complete(7);
        let inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0];
        let faults = NodeSet::from_indices(7, [5, 6]);
        let classic = TrimmedMean::new(2);
        let aware = ModelTrimmedMean::new(FaultModel::Total(2));
        let mut a = Simulation::new(
            &g,
            &inputs,
            faults.clone(),
            &classic,
            Box::new(ExtremesAdversary::new(1e6)),
        )
        .unwrap();
        let mut b = ModelSimulation::new(
            &g,
            &inputs,
            faults,
            &aware,
            Box::new(ExtremesAdversary::new(1e6)),
        )
        .unwrap();
        for _ in 0..25 {
            a.step().unwrap();
            b.step().unwrap();
            assert_eq!(a.states(), b.states());
        }
    }

    /// The X10 gap, closed: the exact configuration that freezes the
    /// oblivious Algorithm 1 forever converges under the structure-aware
    /// rule.
    #[test]
    fn structure_aware_rule_unfreezes_the_rack_scenario() {
        let g = generators::chord(7, 5);
        // The paper's §6.3 witness: F = {5,6}, L = {0,2}, R = {1,3,4}.
        let w = Witness {
            fault_set: NodeSet::from_indices(7, [5, 6]),
            left: NodeSet::from_indices(7, [0, 2]),
            center: NodeSet::with_universe(7),
            right: NodeSet::from_indices(7, [1, 3, 4]),
        };
        let (m, m_cap) = (0.0, 1.0);
        let mut inputs = vec![0.5; 7];
        for v in w.left.iter() {
            inputs[v.index()] = m;
        }
        for v in w.right.iter() {
            inputs[v.index()] = m_cap;
        }

        // Oblivious Algorithm 1: frozen (the E1 behaviour).
        let classic = TrimmedMean::new(2);
        let adv = SplitBrainAdversary::from_witness(&w, m, m_cap, 0.5);
        let mut frozen =
            Simulation::new(&g, &inputs, w.fault_set.clone(), &classic, Box::new(adv)).unwrap();
        for _ in 0..100 {
            frozen.step().unwrap();
        }
        assert!(
            frozen.honest_range() >= m_cap - m,
            "oblivious rule must stay frozen"
        );

        // Structure-aware rule under the rack model: converges.
        let rack = AdversaryStructure::new(7, vec![NodeSet::from_indices(7, [5, 6])]).unwrap();
        let aware = ModelTrimmedMean::new(FaultModel::Structure(rack));
        let adv = SplitBrainAdversary::from_witness(&w, m, m_cap, 0.5);
        let mut sim =
            ModelSimulation::new(&g, &inputs, w.fault_set.clone(), &aware, Box::new(adv)).unwrap();
        let out = sim.run(&RunConfig::default()).unwrap();
        assert!(
            out.converged,
            "structure-aware rule must converge (range {})",
            out.final_range
        );
        assert!(out.validity.is_valid());
        // Agreement inside the honest hull [0, 1].
        let v = out.trace.last().unwrap().states[0];
        assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn validity_holds_under_arbitrary_structures_and_lies() {
        // Random structures on K8; whatever the adversary sends, honest
        // states must stay in the honest input hull (the coverable-prefix
        // validity argument).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = generators::complete(8);
        for trial in 0..10 {
            let a = rng.random_range(0..8usize);
            let b = rng.random_range(0..8usize);
            let rack = NodeSet::from_indices(8, [a, b]);
            let structure = AdversaryStructure::new(8, vec![rack.clone()]).unwrap();
            let rule = ModelTrimmedMean::new(FaultModel::Structure(structure));
            let inputs: Vec<f64> = (0..8).map(|_| rng.random_range(-5.0..5.0)).collect();
            let mut sim = ModelSimulation::new(
                &g,
                &inputs,
                rack,
                &rule,
                Box::new(ExtremesAdversary::new(1e7)),
            )
            .unwrap();
            let out = sim
                .run(&RunConfig {
                    max_rounds: 200,
                    ..RunConfig::default()
                })
                .unwrap();
            assert!(out.validity.is_valid(), "trial {trial}: validity broke");
        }
    }

    #[test]
    fn constructor_validates_inputs() {
        let g = generators::complete(3);
        let rule = ModelTrimmedMean::new(FaultModel::Total(0));
        assert!(matches!(
            ModelSimulation::new(
                &g,
                &[1.0, 2.0],
                NodeSet::with_universe(3),
                &rule,
                Box::new(ConstantAdversary::new(0.0))
            ),
            Err(SimError::InputLengthMismatch {
                inputs: 2,
                nodes: 3
            })
        ));
        assert!(matches!(
            ModelSimulation::new(
                &g,
                &[1.0, f64::NAN, 3.0],
                NodeSet::with_universe(3),
                &rule,
                Box::new(ConstantAdversary::new(0.0))
            ),
            Err(SimError::NonFiniteInput { node: 1, .. })
        ));
        assert!(matches!(
            ModelSimulation::new(
                &g,
                &[1.0, 2.0, 3.0],
                NodeSet::full(3),
                &rule,
                Box::new(ConstantAdversary::new(0.0))
            ),
            Err(SimError::NoFaultFreeNodes)
        ));
    }
}
