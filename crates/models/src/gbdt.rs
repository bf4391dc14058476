//! Gradient-boosted decision trees for classification.
//!
//! One-vs-rest logistic boosting: for each class `c` we maintain an additive
//! score `F_c(x)` and at every round fit a regression tree to the negative
//! gradient of the logistic loss (`y − p`), then install Newton-step leaf
//! values `Σ(y−p) / Σ p(1−p)` (standard LogitBoost/L2-TreeBoost leaf update).
//! Class probabilities come from a softmax over the K scores.

use crate::model::{check_training, map_rows, Classifier};
use crate::regression;
use crate::tree::{Presort, Splitter, Tree};
use crate::{ModelError, Result};
use aml_dataset::Dataset;

/// Hyperparameters for [`GradientBoosting`].
#[derive(Debug, Clone, PartialEq)]
pub struct GbdtParams {
    /// Boosting rounds (trees per class).
    pub n_rounds: usize,
    /// Shrinkage applied to every leaf value.
    pub learning_rate: f64,
    /// Maximum depth of each weak tree.
    pub max_depth: usize,
    /// Minimum samples per leaf of each weak tree.
    pub min_samples_leaf: usize,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_rounds: 50,
            learning_rate: 0.1,
            max_depth: 3,
            min_samples_leaf: 5,
        }
    }
}

/// A fitted boosted-trees classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoosting {
    /// `stages[round][class]` regression trees.
    stages: Vec<Vec<Tree<f64>>>,
    /// Initial per-class score (log prior odds).
    base_score: Vec<f64>,
    learning_rate: f64,
    n_classes: usize,
    n_features: usize,
}

impl GradientBoosting {
    /// Fit the boosted model.
    pub fn fit(ds: &Dataset, params: GbdtParams) -> Result<Self> {
        let counts = check_training(ds)?;
        if params.n_rounds == 0 {
            return Err(ModelError::InvalidHyperparameter(
                "n_rounds must be >= 1".into(),
            ));
        }
        if !(params.learning_rate > 0.0 && params.learning_rate <= 1.0) {
            return Err(ModelError::InvalidHyperparameter(format!(
                "learning_rate {} outside (0, 1]",
                params.learning_rate
            )));
        }
        let n = ds.n_rows();
        let k = ds.n_classes();
        let total = n as f64;
        // Initialize scores at the log-odds of the class priors (clamped so
        // empty classes don't produce -inf).
        let base_score: Vec<f64> = counts
            .iter()
            .map(|&c| {
                let p = (c as f64 / total).clamp(1e-6, 1.0 - 1e-6);
                (p / (1.0 - p)).ln()
            })
            .collect();

        let mut scores: Vec<Vec<f64>> = (0..k).map(|c| vec![base_score[c]; n]).collect();
        // Every round regrows on the same rows: sort each feature once.
        let presort = Presort::new(ds, Splitter::Best);
        let mut stages = Vec::with_capacity(params.n_rounds);
        // `proba[i * k + c]`, and one class's gradient: reused every round.
        let mut proba = vec![0.0; n * k];
        let mut grad = vec![0.0; n];

        for _round in 0..params.n_rounds {
            // Softmax probabilities per sample (shared across the K trees of
            // this round, as in standard multiclass gradient boosting).
            softmax_columns(&scores, k, &mut proba);
            let mut round_trees = Vec::with_capacity(k);
            for c in 0..k {
                // Negative gradient of multiclass log-loss wrt F_c: y_c − p_c.
                for (i, g) in grad.iter_mut().enumerate() {
                    let y = if ds.label(i) == c { 1.0 } else { 0.0 };
                    *g = y - proba[i * k + c];
                }
                let mut tree = regression::fit(
                    ds,
                    &presort,
                    &grad,
                    params.max_depth,
                    params.min_samples_leaf,
                )?;
                // Newton leaf values: Σg / Σ|h| with h = p(1−p), damped by
                // the usual (k−1)/k multiclass factor.
                let factor = (k as f64 - 1.0) / k as f64;
                tree.relabel_leaves(ds, |members| {
                    let g: f64 = members.iter().map(|&i| grad[i]).sum();
                    let h: f64 = members
                        .iter()
                        .map(|&i| proba[i * k + c] * (1.0 - proba[i * k + c]))
                        .sum();
                    if h.abs() < 1e-12 {
                        0.0
                    } else {
                        factor * g / h
                    }
                });
                for (i, s) in scores[c].iter_mut().enumerate().take(n) {
                    *s += params.learning_rate * tree.leaf(ds.row(i));
                }
                round_trees.push(tree);
            }
            stages.push(round_trees);
        }

        Ok(GradientBoosting {
            stages,
            base_score,
            learning_rate: params.learning_rate,
            n_classes: k,
            n_features: ds.n_features(),
        })
    }

    /// Number of boosting rounds actually stored.
    pub fn n_rounds(&self) -> usize {
        self.stages.len()
    }

    fn raw_scores(&self, row: &[f64], scores: &mut [f64]) {
        scores.copy_from_slice(&self.base_score);
        for round in &self.stages {
            for (c, tree) in round.iter().enumerate() {
                scores[c] += self.learning_rate * tree.leaf(row);
            }
        }
    }
}

/// Row-wise softmax of `k` per-class score columns into `proba`, row
/// `i` at `proba[i * k..(i + 1) * k]`.
fn softmax_columns(scores: &[Vec<f64>], k: usize, proba: &mut [f64]) {
    for (i, row) in proba.chunks_exact_mut(k).enumerate() {
        for (c, p) in row.iter_mut().enumerate() {
            *p = scores[c][i];
        }
        softmax(row);
    }
}

/// Numerically stable softmax, in place.
pub(crate) fn softmax(xs: &mut [f64]) {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for x in xs.iter_mut() {
        *x = (*x - m).exp();
    }
    let s: f64 = xs.iter().sum();
    for x in xs.iter_mut() {
        *x /= s;
    }
}

impl Classifier for GradientBoosting {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn predict_proba_into(&self, rows: &[f64], out: &mut [f64]) -> Result<()> {
        map_rows(rows, out, self.n_features, self.n_classes, |row, p| {
            self.raw_scores(row, p);
            softmax(p);
        })
    }

    fn name(&self) -> &'static str {
        "gradient_boosting"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, log_loss};
    use aml_dataset::synth;

    #[test]
    fn learns_xor() {
        let ds = synth::noisy_xor(400, 0.0, 1).unwrap();
        let m = GradientBoosting::fit(
            &ds,
            GbdtParams {
                n_rounds: 30,
                ..Default::default()
            },
        )
        .unwrap();
        let acc = accuracy(ds.labels(), &m.predict(&ds).unwrap()).unwrap();
        assert!(acc > 0.97, "GBDT accuracy on XOR: {acc}");
    }

    #[test]
    fn learns_multiclass_blobs() {
        let train = synth::gaussian_blobs(240, 2, 3, 1.0, 2).unwrap();
        let test = synth::gaussian_blobs(120, 2, 3, 1.0, 3).unwrap();
        let m = GradientBoosting::fit(&train, GbdtParams::default()).unwrap();
        let acc = accuracy(test.labels(), &m.predict(&test).unwrap()).unwrap();
        assert!(acc > 0.9, "GBDT accuracy on blobs: {acc}");
    }

    #[test]
    fn more_rounds_reduce_training_loss() {
        let ds = synth::two_moons(200, 0.25, 7).unwrap();
        let small = GradientBoosting::fit(
            &ds,
            GbdtParams {
                n_rounds: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let big = GradientBoosting::fit(
            &ds,
            GbdtParams {
                n_rounds: 60,
                ..Default::default()
            },
        )
        .unwrap();
        let l_small = log_loss(ds.labels(), &small.predict_proba(&ds).unwrap()).unwrap();
        let l_big = log_loss(ds.labels(), &big.predict_proba(&ds).unwrap()).unwrap();
        assert!(
            l_big < l_small,
            "training loss should fall: {l_big} vs {l_small}"
        );
    }

    #[test]
    fn probabilities_are_distributions() {
        let ds = synth::gaussian_blobs(60, 3, 4, 2.0, 4).unwrap();
        let m = GradientBoosting::fit(
            &ds,
            GbdtParams {
                n_rounds: 5,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..ds.n_rows() {
            let p = m.predict_proba_row(ds.row(i)).unwrap();
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn invalid_hyperparameters_rejected() {
        let ds = synth::two_moons(40, 0.1, 0).unwrap();
        assert!(GradientBoosting::fit(
            &ds,
            GbdtParams {
                n_rounds: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(GradientBoosting::fit(
            &ds,
            GbdtParams {
                learning_rate: 0.0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn deterministic() {
        let ds = synth::two_moons(100, 0.2, 5).unwrap();
        let a = GradientBoosting::fit(
            &ds,
            GbdtParams {
                n_rounds: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let b = GradientBoosting::fit(
            &ds,
            GbdtParams {
                n_rounds: 5,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(a, b);
    }
}
