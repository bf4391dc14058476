//! AdaBoost.SAMME — multiclass adaptive boosting over depth-limited trees.
//!
//! Each round fits a weighted decision stump/short tree, upweights the
//! samples it misclassified, and earns a say `α = ln((1−ε)/ε) + ln(K−1)`
//! proportional to how much better than chance it did. Yet another
//! differently-biased committee member for the AutoML ensemble — boosting
//! with reweighting (vs. gradient fitting in [`crate::gbdt`]) fails in
//! different places, which is exactly the diversity QBC and the ALE
//! feedback feed on.

use crate::model::{argmax, check_training, map_rows, normalize, Classifier};
use crate::tree::{DecisionTree, Presort, Splitter, TreeParams};
use crate::{ModelError, Result};
use aml_dataset::Dataset;

/// Hyperparameters for [`AdaBoost`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdaBoostParams {
    /// Boosting rounds (weak learners).
    pub n_rounds: usize,
    /// Depth of each weak tree (1 = decision stumps).
    pub max_depth: usize,
    /// Learning rate shrinking each learner's say.
    pub learning_rate: f64,
}

impl Default for AdaBoostParams {
    fn default() -> Self {
        AdaBoostParams {
            n_rounds: 40,
            max_depth: 2,
            learning_rate: 1.0,
        }
    }
}

/// A fitted AdaBoost.SAMME classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaBoost {
    learners: Vec<(f64, DecisionTree)>,
    n_classes: usize,
    n_features: usize,
}

impl AdaBoost {
    /// Fit by SAMME reweighting.
    pub fn fit(ds: &Dataset, params: AdaBoostParams) -> Result<Self> {
        check_training(ds)?;
        if params.n_rounds == 0 {
            return Err(ModelError::InvalidHyperparameter(
                "n_rounds must be >= 1".into(),
            ));
        }
        if !(params.learning_rate > 0.0 && params.learning_rate <= 2.0) {
            return Err(ModelError::InvalidHyperparameter(format!(
                "learning_rate {} outside (0, 2]",
                params.learning_rate
            )));
        }
        let n = ds.n_rows();
        let k = ds.n_classes() as f64;
        let mut weights = vec![1.0 / n as f64; n];
        let mut learners = Vec::with_capacity(params.n_rounds);
        // Only the weights change between rounds: sort each feature once.
        let presort = Presort::new(ds, Splitter::Best);

        for round in 0..params.n_rounds {
            let tree = DecisionTree::fit_weighted_presorted(
                ds,
                &presort,
                TreeParams {
                    max_depth: params.max_depth,
                    seed: round as u64,
                    ..Default::default()
                },
                &weights,
            )?;
            // Weighted training error of this learner.
            let mut err = 0.0;
            let mut wrong = vec![false; n];
            for i in 0..n {
                if argmax(tree.leaf_proba(ds.row(i))) != ds.label(i) {
                    err += weights[i];
                    wrong[i] = true;
                }
            }
            // SAMME requires better-than-chance: err < 1 − 1/K.
            let chance = 1.0 - 1.0 / k;
            if err >= chance {
                // No better than chance — stop boosting (keep what we have;
                // if nothing was kept, fall back to this single learner
                // with a tiny say so predictions remain defined).
                if learners.is_empty() {
                    learners.push((1e-3, tree));
                }
                break;
            }
            let err = err.clamp(1e-10, chance - 1e-10);
            let alpha = params.learning_rate * ((1.0 - err) / err).ln() + (k - 1.0).ln();
            // Upweight mistakes, renormalize.
            for i in 0..n {
                if wrong[i] {
                    weights[i] *= alpha.exp().min(1e12);
                }
            }
            let total: f64 = weights.iter().sum();
            if total <= 0.0 || !total.is_finite() {
                return Err(ModelError::NumericalFailure(
                    "AdaBoost weights degenerated".into(),
                ));
            }
            for w in &mut weights {
                *w /= total;
            }
            learners.push((alpha, tree));
            // Perfect fit: no point boosting further.
            if err <= 1e-9 {
                break;
            }
        }

        Ok(AdaBoost {
            learners,
            n_classes: ds.n_classes(),
            n_features: ds.n_features(),
        })
    }

    /// Number of weak learners actually kept.
    pub fn n_learners(&self) -> usize {
        self.learners.len()
    }
}

impl Classifier for AdaBoost {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn predict_proba_into(&self, rows: &[f64], out: &mut [f64]) -> Result<()> {
        // Weighted vote mass per class, normalized — standard SAMME
        // aggregation (votes, not margins, keep this calibrated enough for
        // soft voting).
        map_rows(rows, out, self.n_features, self.n_classes, |row, votes| {
            votes.fill(0.0);
            for (alpha, tree) in &self.learners {
                votes[argmax(tree.leaf_proba(row))] += alpha;
            }
            normalize(votes);
        })
    }

    fn name(&self) -> &'static str {
        "adaboost"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use aml_dataset::synth;

    #[test]
    fn stumps_cannot_start_on_xor() {
        // A depth-1 stump on XOR is exactly chance, so SAMME stops after
        // round 1 (this is the textbook AdaBoost failure mode) — the model
        // must still predict sanely.
        let ds = synth::noisy_xor(400, 0.0, 1).unwrap();
        let boosted = AdaBoost::fit(
            &ds,
            AdaBoostParams {
                n_rounds: 60,
                max_depth: 1,
                ..Default::default()
            },
        )
        .unwrap();
        // Either boosting stops early (stump exactly at chance) or it limps
        // along with near-zero says; in both cases XOR stays unlearnable
        // for axis-aligned stumps and predictions remain valid.
        let acc = accuracy(ds.labels(), &boosted.predict(&ds).unwrap()).unwrap();
        assert!(acc < 0.8, "stumps should not crack XOR, got {acc}");
        let p = boosted.predict_proba_row(ds.row(0)).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn depth_two_learners_boost_past_a_single_tree_on_xor() {
        let ds = synth::noisy_xor(400, 0.0, 1).unwrap();
        let single = DecisionTree::fit(
            &ds,
            TreeParams {
                max_depth: 2,
                min_samples_leaf: 40,
                ..Default::default()
            },
        )
        .unwrap();
        let single_acc = accuracy(ds.labels(), &single.predict(&ds).unwrap()).unwrap();
        let boosted = AdaBoost::fit(
            &ds,
            AdaBoostParams {
                n_rounds: 60,
                max_depth: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let boosted_acc = accuracy(ds.labels(), &boosted.predict(&ds).unwrap()).unwrap();
        assert!(
            boosted_acc > 0.9 && boosted_acc > single_acc,
            "boosted {boosted_acc} vs single depth-2 tree {single_acc}"
        );
    }

    #[test]
    fn multiclass_blobs_learned() {
        let train = synth::gaussian_blobs(240, 2, 3, 1.0, 2).unwrap();
        let test = synth::gaussian_blobs(120, 2, 3, 1.0, 3).unwrap();
        let m = AdaBoost::fit(&train, AdaBoostParams::default()).unwrap();
        let acc = accuracy(test.labels(), &m.predict(&test).unwrap()).unwrap();
        assert!(acc > 0.85, "AdaBoost 3-class accuracy {acc}");
    }

    #[test]
    fn early_stop_on_perfect_fit() {
        // Trivially separable: the first deep-enough learner is perfect and
        // boosting stops early.
        let ds = synth::gaussian_blobs(100, 2, 2, 0.01, 4).unwrap();
        let m = AdaBoost::fit(
            &ds,
            AdaBoostParams {
                n_rounds: 50,
                max_depth: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(m.n_learners() < 50, "kept {} learners", m.n_learners());
        let acc = accuracy(ds.labels(), &m.predict(&ds).unwrap()).unwrap();
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn proba_is_distribution() {
        let ds = synth::two_moons(150, 0.2, 5).unwrap();
        let m = AdaBoost::fit(&ds, AdaBoostParams::default()).unwrap();
        for i in 0..10 {
            let p = m.predict_proba_row(ds.row(i)).unwrap();
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn invalid_params_rejected() {
        let ds = synth::two_moons(50, 0.1, 0).unwrap();
        assert!(AdaBoost::fit(
            &ds,
            AdaBoostParams {
                n_rounds: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(AdaBoost::fit(
            &ds,
            AdaBoostParams {
                learning_rate: 0.0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn deterministic() {
        let ds = synth::two_moons(100, 0.2, 7).unwrap();
        let a = AdaBoost::fit(&ds, AdaBoostParams::default()).unwrap();
        let b = AdaBoost::fit(&ds, AdaBoostParams::default()).unwrap();
        assert_eq!(a, b);
    }
}
