//! Gaussian naive Bayes.
//!
//! Models each feature as an independent per-class Gaussian. Exactly the
//! kind of "prior-encoding" model the paper's §1 discusses (independence
//! assumptions across features), and a cheap, very differently-biased
//! committee member for the AutoML ensemble.

use crate::gbdt::softmax;
use crate::model::{check_training, map_rows, Classifier};
use crate::{ModelError, Result};
use aml_dataset::Dataset;

/// Hyperparameters for [`GaussianNaiveBayes`].
#[derive(Debug, Clone, PartialEq)]
pub struct NbParams {
    /// Additive variance smoothing as a fraction of the largest feature
    /// variance (sklearn's `var_smoothing`, default 1e-9).
    pub var_smoothing: f64,
}

impl Default for NbParams {
    fn default() -> Self {
        NbParams {
            var_smoothing: 1e-9,
        }
    }
}

/// A fitted Gaussian naive Bayes classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianNaiveBayes {
    /// Log class priors.
    log_prior: Vec<f64>,
    /// `means[class][feature]`.
    means: Vec<Vec<f64>>,
    /// `vars[class][feature]` (smoothed, strictly positive).
    vars: Vec<Vec<f64>>,
    /// `log_norms[class][feature]` = `(2π·var).ln()`, the Gaussian's
    /// normalizer, computed once at fit rather than per prediction.
    log_norms: Vec<Vec<f64>>,
    /// Classes with zero training samples get `-inf` posterior via prior.
    n_features: usize,
}

impl GaussianNaiveBayes {
    /// Fit per-class feature Gaussians.
    pub fn fit(ds: &Dataset, params: NbParams) -> Result<Self> {
        let counts = check_training(ds)?;
        if params.var_smoothing.is_nan() || params.var_smoothing < 0.0 {
            return Err(ModelError::InvalidHyperparameter(
                "var_smoothing must be >= 0".into(),
            ));
        }
        let k = ds.n_classes();
        let d = ds.n_features();
        let n = ds.n_rows() as f64;

        let mut means = vec![vec![0.0; d]; k];
        for i in 0..ds.n_rows() {
            let c = ds.label(i);
            for (j, &v) in ds.row(i).iter().enumerate() {
                means[c][j] += v;
            }
        }
        for (mean_row, &count) in means.iter_mut().zip(&counts) {
            if count > 0 {
                for m in mean_row.iter_mut() {
                    *m /= count as f64;
                }
            }
        }

        let mut vars = vec![vec![0.0; d]; k];
        for i in 0..ds.n_rows() {
            let c = ds.label(i);
            for (j, &v) in ds.row(i).iter().enumerate() {
                let diff = v - means[c][j];
                vars[c][j] += diff * diff;
            }
        }
        // Global max variance for the smoothing scale.
        let mut global_max_var: f64 = 0.0;
        for j in 0..d {
            let col_mean: f64 = (0..ds.n_rows()).map(|i| ds.row(i)[j]).sum::<f64>() / n;
            let col_var: f64 = (0..ds.n_rows())
                .map(|i| {
                    let x = ds.row(i)[j] - col_mean;
                    x * x
                })
                .sum::<f64>()
                / n;
            global_max_var = global_max_var.max(col_var);
        }
        let eps = (params.var_smoothing * global_max_var).max(1e-12);
        for (var_row, &count) in vars.iter_mut().zip(&counts) {
            for v in var_row.iter_mut() {
                *v = if count > 0 {
                    *v / count as f64 + eps
                } else {
                    eps
                };
            }
        }

        let log_prior = counts
            .iter()
            .map(|&c| {
                if c > 0 {
                    (c as f64 / n).ln()
                } else {
                    f64::NEG_INFINITY
                }
            })
            .collect();

        let log_norms = vars
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&var| (2.0 * std::f64::consts::PI * var).ln())
                    .collect()
            })
            .collect();

        Ok(GaussianNaiveBayes {
            log_prior,
            means,
            vars,
            log_norms,
            n_features: d,
        })
    }
}

impl Classifier for GaussianNaiveBayes {
    fn n_classes(&self) -> usize {
        self.log_prior.len()
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn predict_proba_into(&self, rows: &[f64], out: &mut [f64]) -> Result<()> {
        map_rows(
            rows,
            out,
            self.n_features,
            self.log_prior.len(),
            |row, log_post| {
                for (c, post) in log_post.iter_mut().enumerate() {
                    let mut lp = self.log_prior[c];
                    if lp.is_finite() {
                        for (j, &x) in row.iter().enumerate() {
                            let var = self.vars[c][j];
                            let diff = x - self.means[c][j];
                            lp += -0.5 * (self.log_norms[c][j] + diff * diff / var);
                        }
                    }
                    *post = lp;
                }
                softmax(log_post);
            },
        )
    }

    fn name(&self) -> &'static str {
        "gaussian_nb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use aml_dataset::synth;

    #[test]
    fn separable_blobs_classified_well() {
        let train = synth::gaussian_blobs(200, 2, 2, 1.0, 1).unwrap();
        let test = synth::gaussian_blobs(100, 2, 2, 1.0, 2).unwrap();
        let nb = GaussianNaiveBayes::fit(&train, NbParams::default()).unwrap();
        let acc = accuracy(test.labels(), &nb.predict(&test).unwrap()).unwrap();
        assert!(acc > 0.95, "NB blob accuracy {acc}");
    }

    #[test]
    fn xor_defeats_naive_bayes() {
        // Marginal feature distributions are identical across XOR classes,
        // so NB cannot beat chance by much — this is the diversity property
        // the ensemble exploits.
        let ds = synth::noisy_xor(1000, 0.0, 3).unwrap();
        let nb = GaussianNaiveBayes::fit(&ds, NbParams::default()).unwrap();
        let acc = accuracy(ds.labels(), &nb.predict(&ds).unwrap()).unwrap();
        assert!(acc < 0.65, "NB should fail on XOR, got {acc}");
    }

    #[test]
    fn proba_sums_to_one() {
        let ds = synth::gaussian_blobs(60, 3, 3, 1.5, 5).unwrap();
        let nb = GaussianNaiveBayes::fit(&ds, NbParams::default()).unwrap();
        let p = nb.predict_proba_row(ds.row(0)).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prior_dominates_far_from_data() {
        // Heavily imbalanced classes: far from both means the likelihoods
        // cancel and the prior should decide.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..90 {
            rows.push(vec![i as f64 * 0.01]);
            labels.push(0usize);
        }
        for i in 0..10 {
            rows.push(vec![1.0 + i as f64 * 0.01]);
            labels.push(1usize);
        }
        let ds = aml_dataset::Dataset::from_rows(&rows, &labels, 2).unwrap();
        let nb = GaussianNaiveBayes::fit(&ds, NbParams::default()).unwrap();
        let p = nb.predict_proba_row(&[0.45]).unwrap();
        assert!(p[0] > 0.5);
    }

    #[test]
    fn negative_smoothing_rejected() {
        let ds = synth::two_moons(40, 0.1, 0).unwrap();
        assert!(GaussianNaiveBayes::fit(
            &ds,
            NbParams {
                var_smoothing: -1.0
            }
        )
        .is_err());
    }

    #[test]
    fn deterministic() {
        let ds = synth::two_moons(80, 0.2, 7).unwrap();
        let a = GaussianNaiveBayes::fit(&ds, NbParams::default()).unwrap();
        let b = GaussianNaiveBayes::fit(&ds, NbParams::default()).unwrap();
        assert_eq!(a, b);
    }
}
