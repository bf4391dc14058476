//! Multinomial logistic regression (softmax regression).
//!
//! Full-batch gradient descent on the L2-regularized multiclass log-loss.
//! Inputs are expected to be standardized (the AutoML search always pairs
//! this model with a scaler in a [`crate::pipeline::Pipeline`]); with
//! z-scored features a fixed learning rate converges reliably.

use crate::gbdt::softmax;
use crate::model::{check_training, map_rows, Classifier};
use crate::{ModelError, Result};
use aml_dataset::Dataset;

/// Hyperparameters for [`LogisticRegression`].
#[derive(Debug, Clone, PartialEq)]
pub struct LogRegParams {
    /// L2 regularization strength (λ, applied to weights, not intercepts).
    pub l2: f64,
    /// Gradient-descent learning rate.
    pub learning_rate: f64,
    /// Number of full-batch iterations.
    pub max_iter: usize,
    /// Stop early when the max absolute gradient entry falls below this.
    pub tol: f64,
}

impl Default for LogRegParams {
    fn default() -> Self {
        LogRegParams {
            l2: 1e-4,
            learning_rate: 0.5,
            max_iter: 300,
            tol: 1e-5,
        }
    }
}

/// A fitted multinomial logistic regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    /// `weights[class][feature]`.
    weights: Vec<Vec<f64>>,
    /// Per-class intercept.
    intercepts: Vec<f64>,
    n_features: usize,
}

impl LogisticRegression {
    /// Fit by full-batch gradient descent.
    pub fn fit(ds: &Dataset, params: LogRegParams) -> Result<Self> {
        check_training(ds)?;
        if params.max_iter == 0 {
            return Err(ModelError::InvalidHyperparameter(
                "max_iter must be >= 1".into(),
            ));
        }
        if params.learning_rate.is_nan()
            || params.learning_rate <= 0.0
            || params.l2.is_nan()
            || params.l2 < 0.0
        {
            return Err(ModelError::InvalidHyperparameter(
                "learning_rate must be > 0 and l2 >= 0".into(),
            ));
        }
        let k = ds.n_classes();
        let d = ds.n_features();
        let n = ds.n_rows();
        let inv_n = 1.0 / n as f64;

        let mut w = vec![vec![0.0; d]; k];
        let mut b = vec![0.0; k];
        // Gradients and one row's class probabilities, reused every step.
        let mut gw = vec![vec![0.0; d]; k];
        let mut gb = vec![0.0; k];
        let mut p = vec![0.0; k];

        for _iter in 0..params.max_iter {
            gw.iter_mut().for_each(|g| g.fill(0.0));
            gb.fill(0.0);
            for i in 0..n {
                let row = ds.row(i);
                for (c, pc) in p.iter_mut().enumerate() {
                    *pc = b[c] + dot(&w[c], row);
                }
                softmax(&mut p);
                let y = ds.label(i);
                for c in 0..k {
                    let err = p[c] - if c == y { 1.0 } else { 0.0 };
                    gb[c] += err * inv_n;
                    for (j, &x) in row.iter().enumerate() {
                        gw[c][j] += err * x * inv_n;
                    }
                }
            }
            let mut max_grad: f64 = 0.0;
            for c in 0..k {
                for j in 0..d {
                    gw[c][j] += params.l2 * w[c][j];
                    w[c][j] -= params.learning_rate * gw[c][j];
                    max_grad = max_grad.max(gw[c][j].abs());
                    if !w[c][j].is_finite() {
                        return Err(ModelError::NumericalFailure(
                            "weights diverged; lower the learning rate or scale features".into(),
                        ));
                    }
                }
                b[c] -= params.learning_rate * gb[c];
                max_grad = max_grad.max(gb[c].abs());
            }
            if max_grad < params.tol {
                break;
            }
        }

        Ok(LogisticRegression {
            weights: w,
            intercepts: b,
            n_features: d,
        })
    }

    /// Fitted weight matrix (`[class][feature]`).
    pub fn weights(&self) -> &[Vec<f64>] {
        &self.weights
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl Classifier for LogisticRegression {
    fn n_classes(&self) -> usize {
        self.weights.len()
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn predict_proba_into(&self, rows: &[f64], out: &mut [f64]) -> Result<()> {
        map_rows(rows, out, self.n_features, self.weights.len(), |row, p| {
            for ((s, w), b) in p.iter_mut().zip(&self.weights).zip(&self.intercepts) {
                *s = b + dot(w, row);
            }
            softmax(p);
        })
    }

    fn name(&self) -> &'static str {
        "logistic_regression"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use crate::preprocess::{Standardizer, Transformer};
    use aml_dataset::synth;

    #[test]
    fn linearly_separable_blobs_fit_well() {
        let raw = synth::gaussian_blobs(200, 2, 2, 1.0, 1).unwrap();
        let scaler = Standardizer::fit(&raw).unwrap();
        let ds = scaler.transform(&raw).unwrap();
        let m = LogisticRegression::fit(&ds, LogRegParams::default()).unwrap();
        let acc = accuracy(ds.labels(), &m.predict(&ds).unwrap()).unwrap();
        assert!(acc > 0.95, "logreg blob accuracy {acc}");
    }

    #[test]
    fn multiclass_works() {
        let raw = synth::gaussian_blobs(300, 3, 4, 1.0, 2).unwrap();
        let scaler = Standardizer::fit(&raw).unwrap();
        let ds = scaler.transform(&raw).unwrap();
        let m = LogisticRegression::fit(&ds, LogRegParams::default()).unwrap();
        let acc = accuracy(ds.labels(), &m.predict(&ds).unwrap()).unwrap();
        assert!(acc > 0.9, "multiclass accuracy {acc}");
    }

    #[test]
    fn xor_defeats_linear_model() {
        let ds = synth::noisy_xor(600, 0.0, 4).unwrap();
        let m = LogisticRegression::fit(&ds, LogRegParams::default()).unwrap();
        let acc = accuracy(ds.labels(), &m.predict(&ds).unwrap()).unwrap();
        assert!(acc < 0.65, "linear model should fail on XOR, got {acc}");
    }

    #[test]
    fn strong_l2_shrinks_weights() {
        let raw = synth::gaussian_blobs(100, 2, 2, 1.0, 3).unwrap();
        let scaler = Standardizer::fit(&raw).unwrap();
        let ds = scaler.transform(&raw).unwrap();
        let loose = LogisticRegression::fit(
            &ds,
            LogRegParams {
                l2: 0.0,
                learning_rate: 0.2,
                ..Default::default()
            },
        )
        .unwrap();
        let tight = LogisticRegression::fit(
            &ds,
            LogRegParams {
                l2: 1.0,
                learning_rate: 0.2,
                ..Default::default()
            },
        )
        .unwrap();
        let norm = |m: &LogisticRegression| -> f64 {
            m.weights()
                .iter()
                .flatten()
                .map(|w| w * w)
                .sum::<f64>()
                .sqrt()
        };
        assert!(norm(&tight) < norm(&loose));
    }

    #[test]
    fn proba_is_distribution() {
        let ds = synth::gaussian_blobs(60, 2, 3, 1.0, 5).unwrap();
        let m = LogisticRegression::fit(&ds, LogRegParams::default()).unwrap();
        let p = m.predict_proba_row(ds.row(0)).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_params_rejected() {
        let ds = synth::two_moons(40, 0.1, 0).unwrap();
        assert!(LogisticRegression::fit(
            &ds,
            LogRegParams {
                max_iter: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(LogisticRegression::fit(
            &ds,
            LogRegParams {
                learning_rate: 0.0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn deterministic() {
        let ds = synth::two_moons(80, 0.2, 7).unwrap();
        let a = LogisticRegression::fit(&ds, LogRegParams::default()).unwrap();
        let b = LogisticRegression::fit(&ds, LogRegParams::default()).unwrap();
        assert_eq!(a, b);
    }
}
