//! The [`Classifier`] trait — the single interface every model, pipeline and
//! ensemble implements, and that the AutoML searcher, the QBC committee and
//! the ALE interpreter consume.
//!
//! The trait is object safe (`Box<dyn Classifier>` / `Arc<dyn Classifier>`)
//! because AutoML assembles heterogeneous ensembles, and the ALE feedback
//! algorithm iterates over "each model in ℳ" without caring what it is.

use crate::{ModelError, Result};
use aml_dataset::Dataset;

/// A fitted probabilistic classifier.
///
/// Implementations must be deterministic at prediction time: the feedback
/// algorithms difference ALE values across models, which would be meaningless
/// if predictions were stochastic.
///
/// [`Classifier::predict_proba_into`] is the one prediction method a model
/// implements; the per-row and per-dataset methods are built on it.
pub trait Classifier: Send + Sync {
    /// Number of classes the model predicts probabilities for.
    fn n_classes(&self) -> usize;

    /// Number of input features expected.
    fn n_features(&self) -> usize;

    /// Class probabilities for a batch of rows.
    ///
    /// `rows` is row-major, `n_features()` values per row. `out` receives
    /// `n_classes()` values per row (non-negative, summing to 1 up to
    /// rounding), in row order; its length sets the number of rows. Each
    /// row's probabilities are the same bits whatever batch it comes in.
    ///
    /// # Errors
    /// [`ModelError::DimensionMismatch`] when `out.len()` is not a multiple
    /// of `n_classes()`, or `rows.len()` is not `n_features()` values for
    /// each row of `out`.
    fn predict_proba_into(&self, rows: &[f64], out: &mut [f64]) -> Result<()>;

    /// A short human-readable identifier, e.g. `"random_forest"`.
    fn name(&self) -> &'static str;

    /// Class-probability vector for one feature row (`n_classes` entries).
    ///
    /// # Errors
    /// [`ModelError::DimensionMismatch`] when `row.len() != n_features()`.
    fn predict_proba_row(&self, row: &[f64]) -> Result<Vec<f64>> {
        let mut p = vec![0.0; self.n_classes()];
        self.predict_proba_into(row, &mut p)?;
        Ok(p)
    }

    /// Predicted class for one row (argmax of probabilities; ties broken
    /// toward the lower class index for determinism).
    fn predict_row(&self, row: &[f64]) -> Result<usize> {
        let p = self.predict_proba_row(row)?;
        Ok(argmax(&p))
    }

    /// Probability matrix for every row of `ds`.
    fn predict_proba(&self, ds: &Dataset) -> Result<Vec<Vec<f64>>> {
        let k = self.n_classes();
        let mut out = vec![0.0; ds.n_rows() * k];
        self.predict_proba_into(ds.values(), &mut out)?;
        Ok(out.chunks_exact(k).map(<[f64]>::to_vec).collect())
    }

    /// Predicted class per row of `ds`.
    fn predict(&self, ds: &Dataset) -> Result<Vec<usize>> {
        let k = self.n_classes();
        let mut out = vec![0.0; ds.n_rows() * k];
        self.predict_proba_into(ds.values(), &mut out)?;
        Ok(out.chunks_exact(k).map(argmax).collect())
    }
}

/// Index of the maximum element; first index wins ties (deterministic).
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Number of rows in a [`Classifier::predict_proba_into`] batch: `out`
/// holds `n_classes` values per row and `rows` must hold `n_features` per
/// row of `out`.
pub(crate) fn check_batch(
    rows: &[f64],
    out: &[f64],
    n_features: usize,
    n_classes: usize,
) -> Result<usize> {
    let n_rows = out.len() / n_classes;
    if n_rows * n_classes != out.len() {
        return Err(ModelError::DimensionMismatch {
            expected: n_rows * n_classes,
            got: out.len(),
        });
    }
    if rows.len() != n_rows * n_features {
        return Err(ModelError::DimensionMismatch {
            expected: n_rows * n_features,
            got: rows.len(),
        });
    }
    Ok(n_rows)
}

/// Check a batch, then call `f(row, probabilities)` on each row in order.
pub(crate) fn map_rows(
    rows: &[f64],
    out: &mut [f64],
    n_features: usize,
    n_classes: usize,
    mut f: impl FnMut(&[f64], &mut [f64]),
) -> Result<()> {
    check_batch(rows, out, n_features, n_classes)?;
    for (i, p) in out.chunks_exact_mut(n_classes).enumerate() {
        f(&rows[i * n_features..(i + 1) * n_features], p);
    }
    Ok(())
}

/// Normalize a non-negative vector to sum to one in place; uniform
/// fallback when the sum is zero (e.g. a probability mass that
/// underflowed).
pub(crate) fn normalize(p: &mut [f64]) {
    let s: f64 = p.iter().sum();
    if s > 0.0 && s.is_finite() {
        for v in p.iter_mut() {
            *v /= s;
        }
    } else {
        let u = 1.0 / p.len() as f64;
        p.fill(u);
    }
}

/// Validate common training preconditions: non-empty data and at least two
/// distinct classes present. Returns the per-class counts.
pub(crate) fn check_training(ds: &Dataset) -> Result<Vec<usize>> {
    if ds.is_empty() {
        return Err(ModelError::EmptyTrainingSet);
    }
    let counts = ds.class_counts();
    if counts.iter().filter(|&&c| c > 0).count() < 2 {
        return Err(ModelError::SingleClass);
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_ties_break_low() {
        assert_eq!(argmax(&[0.4, 0.4, 0.2]), 0);
        assert_eq!(argmax(&[0.1, 0.5, 0.4]), 1);
    }

    #[test]
    fn normalize_sums_to_one() {
        let mut p = vec![2.0, 6.0];
        normalize(&mut p);
        assert!((p[0] - 0.25).abs() < 1e-12);
        assert!((p[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_mass_goes_uniform() {
        let mut p = vec![0.0; 4];
        normalize(&mut p);
        assert!(p.iter().all(|&v| (v - 0.25).abs() < 1e-12));
    }

    #[test]
    fn check_training_rejects_single_class() {
        let ds = Dataset::from_rows(&[vec![0.0], vec![1.0]], &[0, 0], 2).unwrap();
        assert_eq!(check_training(&ds), Err(ModelError::SingleClass));
    }
}
