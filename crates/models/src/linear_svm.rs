//! Linear support-vector machine (one-vs-rest hinge loss, SGD).
//!
//! Each class gets a binary max-margin separator trained by stochastic
//! subgradient descent on the L2-regularized hinge loss (Pegasos-style
//! `1/(λ t)` step size). Probabilities are a softmax over the per-class
//! margins scaled by a temperature fitted crudely from the training margins
//! — not a full Platt calibration, but monotone in the margins, which is all
//! the ensemble's soft voting and QBC's vote entropy require.

use crate::gbdt::softmax;
use crate::model::{check_training, map_rows, Classifier};
use crate::{ModelError, Result};
use aml_dataset::Dataset;
use aml_rng::rngs::StdRng;
use aml_rng::{Rng, SeedableRng};

/// Hyperparameters for [`LinearSvm`].
#[derive(Debug, Clone, PartialEq)]
pub struct SvmParams {
    /// L2 regularization strength λ.
    pub lambda: f64,
    /// Number of SGD epochs over the data.
    pub epochs: usize,
    /// RNG seed for sample ordering.
    pub seed: u64,
}

impl Default for SvmParams {
    fn default() -> Self {
        SvmParams {
            lambda: 1e-3,
            epochs: 30,
            seed: 0,
        }
    }
}

/// A fitted one-vs-rest linear SVM.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvm {
    /// `weights[class][feature]`.
    weights: Vec<Vec<f64>>,
    /// Per-class bias.
    biases: Vec<f64>,
    /// Softmax temperature fitted from training margin scale.
    temperature: f64,
    n_features: usize,
}

impl LinearSvm {
    /// Fit one binary Pegasos SVM per class.
    pub fn fit(ds: &Dataset, params: SvmParams) -> Result<Self> {
        check_training(ds)?;
        if params.lambda.is_nan() || params.lambda <= 0.0 {
            return Err(ModelError::InvalidHyperparameter(
                "lambda must be > 0".into(),
            ));
        }
        if params.epochs == 0 {
            return Err(ModelError::InvalidHyperparameter(
                "epochs must be >= 1".into(),
            ));
        }
        let k = ds.n_classes();
        let d = ds.n_features();
        let n = ds.n_rows();

        let mut weights = vec![vec![0.0; d]; k];
        let mut biases = vec![0.0; k];
        let mut rng = StdRng::seed_from_u64(params.seed);

        for c in 0..k {
            let w = &mut weights[c];
            let b = &mut biases[c];
            let mut t = 0u64;
            for _epoch in 0..params.epochs {
                for _step in 0..n {
                    t += 1;
                    let i = rng.gen_range(0..n);
                    let row = ds.row(i);
                    let y = if ds.label(i) == c { 1.0 } else { -1.0 };
                    let eta = 1.0 / (params.lambda * t as f64);
                    let margin = y * (dot(w, row) + *b);
                    // Subgradient of λ/2‖w‖² + max(0, 1 − margin).
                    for wj in w.iter_mut() {
                        *wj *= 1.0 - eta * params.lambda;
                    }
                    if margin < 1.0 {
                        for (wj, &x) in w.iter_mut().zip(row) {
                            *wj += eta * y * x;
                        }
                        *b += eta * y;
                    }
                    if w.iter().any(|v| !v.is_finite()) {
                        return Err(ModelError::NumericalFailure(
                            "SVM weights diverged; scale features first".into(),
                        ));
                    }
                }
            }
        }

        // Temperature: inverse of the mean absolute margin, so softmax inputs
        // land in a reasonable range regardless of feature scaling.
        let mut total_margin = 0.0;
        for i in 0..n {
            let row = ds.row(i);
            for c in 0..k {
                total_margin += (dot(&weights[c], row) + biases[c]).abs();
            }
        }
        let mean_margin = total_margin / (n * k) as f64;
        let temperature = if mean_margin > 1e-9 {
            2.0 / mean_margin
        } else {
            1.0
        };

        Ok(LinearSvm {
            weights,
            biases,
            temperature,
            n_features: d,
        })
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl Classifier for LinearSvm {
    fn n_classes(&self) -> usize {
        self.weights.len()
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn predict_proba_into(&self, rows: &[f64], out: &mut [f64]) -> Result<()> {
        map_rows(rows, out, self.n_features, self.weights.len(), |row, p| {
            for ((s, w), b) in p.iter_mut().zip(&self.weights).zip(&self.biases) {
                *s = self.temperature * (b + dot(w, row));
            }
            softmax(p);
        })
    }

    fn name(&self) -> &'static str {
        "linear_svm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use crate::preprocess::{Standardizer, Transformer};
    use aml_dataset::synth;

    #[test]
    fn separable_blobs_fit_well() {
        let raw = synth::gaussian_blobs(200, 2, 2, 1.0, 1).unwrap();
        let scaler = Standardizer::fit(&raw).unwrap();
        let ds = scaler.transform(&raw).unwrap();
        let m = LinearSvm::fit(&ds, SvmParams::default()).unwrap();
        let acc = accuracy(ds.labels(), &m.predict(&ds).unwrap()).unwrap();
        assert!(acc > 0.95, "svm accuracy {acc}");
    }

    #[test]
    fn multiclass_one_vs_rest() {
        let raw = synth::gaussian_blobs(300, 2, 3, 1.0, 2).unwrap();
        let scaler = Standardizer::fit(&raw).unwrap();
        let ds = scaler.transform(&raw).unwrap();
        let m = LinearSvm::fit(&ds, SvmParams::default()).unwrap();
        let acc = accuracy(ds.labels(), &m.predict(&ds).unwrap()).unwrap();
        assert!(acc > 0.85, "multiclass svm accuracy {acc}");
    }

    #[test]
    fn proba_is_distribution_and_monotone_in_margin() {
        let raw = synth::gaussian_blobs(100, 2, 2, 0.5, 3).unwrap();
        let scaler = Standardizer::fit(&raw).unwrap();
        let ds = scaler.transform(&raw).unwrap();
        let m = LinearSvm::fit(&ds, SvmParams::default()).unwrap();
        let p = m.predict_proba_row(ds.row(0)).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The training points should mostly be confidently classified.
        let confident = (0..ds.n_rows())
            .filter(|&i| {
                let p = m.predict_proba_row(ds.row(i)).unwrap();
                p.iter().cloned().fold(f64::MIN, f64::max) > 0.6
            })
            .count();
        assert!(confident > ds.n_rows() / 2);
    }

    #[test]
    fn invalid_params_rejected() {
        let ds = synth::two_moons(40, 0.1, 0).unwrap();
        assert!(LinearSvm::fit(
            &ds,
            SvmParams {
                lambda: 0.0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(LinearSvm::fit(
            &ds,
            SvmParams {
                epochs: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = synth::two_moons(80, 0.2, 7).unwrap();
        let a = LinearSvm::fit(
            &ds,
            SvmParams {
                seed: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let b = LinearSvm::fit(
            &ds,
            SvmParams {
                seed: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(a, b);
        let c = LinearSvm::fit(
            &ds,
            SvmParams {
                seed: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(a, c);
    }
}
