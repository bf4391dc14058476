//! Weighted soft-voting ensembles.
//!
//! AutoML (à la auto-sklearn) returns a [`SoftVotingEnsemble`]: a weighted
//! probability average of heterogeneous member pipelines. Two properties
//! matter for the paper's feedback algorithms:
//!
//! * members are individually accessible ([`SoftVotingEnsemble::members`]) —
//!   Within-ALE computes ALE per member and thresholds the cross-member
//!   variance, and QBC uses the members as its committee;
//! * weights form a simplex (non-negative, positive sum), so the ensemble's
//!   probability output is itself a distribution.

use crate::model::{check_batch, normalize, Classifier};
use crate::{ModelError, Result};
use std::sync::Arc;

/// A weighted soft-voting ensemble of classifiers.
pub struct SoftVotingEnsemble {
    members: Vec<Arc<dyn Classifier>>,
    weights: Vec<f64>,
    n_classes: usize,
    n_features: usize,
}

impl SoftVotingEnsemble {
    /// Build an ensemble. Weights are normalized to sum to 1.
    ///
    /// # Errors
    /// - empty member list, weight/member count mismatch;
    /// - negative/non-finite weights or all-zero weights;
    /// - members disagreeing on `n_classes`/`n_features`.
    pub fn new(members: Vec<Arc<dyn Classifier>>, weights: Vec<f64>) -> Result<Self> {
        if members.is_empty() {
            return Err(ModelError::EmptyTrainingSet);
        }
        if members.len() != weights.len() {
            return Err(ModelError::DimensionMismatch {
                expected: members.len(),
                got: weights.len(),
            });
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(ModelError::InvalidHyperparameter(
                "ensemble weights must be finite and non-negative".into(),
            ));
        }
        let sum: f64 = weights.iter().sum();
        if sum <= 0.0 {
            return Err(ModelError::InvalidHyperparameter(
                "ensemble weights must not all be zero".into(),
            ));
        }
        let n_classes = members[0].n_classes();
        let n_features = members[0].n_features();
        for m in &members {
            if m.n_classes() != n_classes || m.n_features() != n_features {
                return Err(ModelError::DimensionMismatch {
                    expected: n_classes,
                    got: m.n_classes(),
                });
            }
        }
        let weights = weights.into_iter().map(|w| w / sum).collect();
        Ok(SoftVotingEnsemble {
            members,
            weights,
            n_classes,
            n_features,
        })
    }

    /// Equal-weight convenience constructor.
    pub fn uniform(members: Vec<Arc<dyn Classifier>>) -> Result<Self> {
        let w = vec![1.0; members.len()];
        Self::new(members, w)
    }

    /// The member classifiers (the QBC committee / ALE model bag).
    pub fn members(&self) -> &[Arc<dyn Classifier>] {
        &self.members
    }

    /// Normalized member weights (sum to 1).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ensemble has no members (cannot occur post-construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

impl Classifier for SoftVotingEnsemble {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    /// Each member predicts the whole batch, in member order; every row
    /// then sums `weight × probability` in that order and is normalized.
    fn predict_proba_into(&self, rows: &[f64], out: &mut [f64]) -> Result<()> {
        check_batch(rows, out, self.n_features, self.n_classes)?;
        out.fill(0.0);
        let mut member = vec![0.0; out.len()];
        for (m, &w) in self.members.iter().zip(&self.weights) {
            if w == 0.0 {
                continue;
            }
            m.predict_proba_into(rows, &mut member)?;
            for (a, v) in out.iter_mut().zip(&member) {
                *a += w * v;
            }
        }
        for p in out.chunks_exact_mut(self.n_classes) {
            normalize(p);
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "soft_voting_ensemble"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::{KNearestNeighbors, KnnParams};
    use crate::metrics::accuracy;
    use crate::naive_bayes::{GaussianNaiveBayes, NbParams};
    use crate::tree::{DecisionTree, TreeParams};
    use aml_dataset::synth;

    fn members(ds: &aml_dataset::Dataset) -> Vec<Arc<dyn Classifier>> {
        vec![
            Arc::new(DecisionTree::fit(ds, TreeParams::default()).unwrap()),
            Arc::new(KNearestNeighbors::fit(ds, KnnParams::default()).unwrap()),
            Arc::new(GaussianNaiveBayes::fit(ds, NbParams::default()).unwrap()),
        ]
    }

    #[test]
    fn uniform_ensemble_predicts_distribution() {
        let ds = synth::gaussian_blobs(120, 2, 3, 1.0, 1).unwrap();
        let e = SoftVotingEnsemble::uniform(members(&ds)).unwrap();
        let p = e.predict_proba_row(ds.row(0)).unwrap();
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ensemble_at_least_competitive_with_worst_member() {
        let train = synth::two_moons(300, 0.25, 2).unwrap();
        let test = synth::two_moons(200, 0.25, 3).unwrap();
        let ms = members(&train);
        let worst = ms
            .iter()
            .map(|m| accuracy(test.labels(), &m.predict(&test).unwrap()).unwrap())
            .fold(f64::INFINITY, f64::min);
        let e = SoftVotingEnsemble::uniform(ms).unwrap();
        let acc = accuracy(test.labels(), &e.predict(&test).unwrap()).unwrap();
        assert!(
            acc >= worst - 0.05,
            "ensemble {acc} vs worst member {worst}"
        );
    }

    #[test]
    fn weights_are_normalized() {
        let ds = synth::two_moons(60, 0.2, 4).unwrap();
        let e = SoftVotingEnsemble::new(members(&ds), vec![2.0, 2.0, 4.0]).unwrap();
        assert_eq!(e.weights(), &[0.25, 0.25, 0.5]);
    }

    #[test]
    fn zero_weight_member_is_ignored() {
        let ds = synth::two_moons(60, 0.2, 5).unwrap();
        let ms = members(&ds);
        let solo_tree = ms[0].clone();
        let e = SoftVotingEnsemble::new(ms, vec![1.0, 0.0, 0.0]).unwrap();
        for i in 0..ds.n_rows() {
            assert_eq!(
                e.predict_proba_row(ds.row(i)).unwrap(),
                solo_tree.predict_proba_row(ds.row(i)).unwrap()
            );
        }
    }

    #[test]
    fn invalid_constructions_rejected() {
        let ds = synth::two_moons(60, 0.2, 6).unwrap();
        assert!(SoftVotingEnsemble::uniform(vec![]).is_err());
        assert!(SoftVotingEnsemble::new(members(&ds), vec![1.0]).is_err());
        assert!(SoftVotingEnsemble::new(members(&ds), vec![1.0, -1.0, 1.0]).is_err());
        assert!(SoftVotingEnsemble::new(members(&ds), vec![0.0, 0.0, 0.0]).is_err());
    }

    #[test]
    fn members_accessible_for_committee_use() {
        let ds = synth::two_moons(60, 0.2, 7).unwrap();
        let e = SoftVotingEnsemble::uniform(members(&ds)).unwrap();
        assert_eq!(e.len(), 3);
        let names: Vec<&str> = e.members().iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["decision_tree", "knn", "gaussian_nb"]);
    }
}
