//! Variance-reduction regression tree — the weak learner inside
//! [`crate::gbdt::GradientBoosting`].
//!
//! Fits real-valued targets by greedily minimizing within-node sum of
//! squared errors: the shared learner in [`crate::tree`] grown with the
//! [`SquaredError`] statistic. Boosting then replaces the leaf means with
//! Newton-step values through [`Tree::relabel_leaves`].

use crate::tree::{Presort, SquaredError, Tree, TreeParams};
use crate::{ModelError, Result};
use aml_dataset::Dataset;

/// Fit a regression tree on the features of `ds` against real targets `y`,
/// sweeping `presort` (the best-split [`Presort::new`] of `ds`, shared by
/// every boosting round). A node with fewer than `2 * min_samples_leaf` rows is not split.
///
/// # Errors
/// Empty data, length mismatch, non-finite targets, or
/// `min_samples_leaf == 0`.
pub(crate) fn fit(
    ds: &Dataset,
    presort: &Presort,
    y: &[f64],
    max_depth: usize,
    min_samples_leaf: usize,
) -> Result<Tree<f64>> {
    if ds.is_empty() {
        return Err(ModelError::EmptyTrainingSet);
    }
    if y.len() != ds.n_rows() {
        return Err(ModelError::DimensionMismatch {
            expected: ds.n_rows(),
            got: y.len(),
        });
    }
    if y.iter().any(|v| !v.is_finite()) {
        return Err(ModelError::NumericalFailure(
            "non-finite regression target".into(),
        ));
    }
    // All features and best splits, so the grower draws nothing from its RNG.
    let params = TreeParams {
        max_depth,
        min_samples_split: (2 * min_samples_leaf).max(2),
        min_samples_leaf,
        ..Default::default()
    };
    params.validate(ds.n_features())?;
    Ok(Tree::fit(presort, &SquaredError { y }, &params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aml_dataset::Dataset;

    fn fit(ds: &Dataset, y: &[f64], max_depth: usize, min_leaf: usize) -> Result<Tree<f64>> {
        let presort = Presort::new(ds, crate::tree::Splitter::Best);
        super::fit(ds, &presort, y, max_depth, min_leaf)
    }

    fn step_data() -> (Dataset, Vec<f64>) {
        // y = 0 for x < 0.5, y = 10 for x >= 0.5
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] < 0.5 { 0.0 } else { 10.0 })
            .collect();
        let labels = vec![0usize; 40];
        (Dataset::from_rows(&rows, &labels, 1).unwrap(), y)
    }

    #[test]
    fn learns_step_function() {
        let (ds, y) = step_data();
        let t = fit(&ds, &y, 2, 1).unwrap();
        assert!((*t.leaf(&[0.2]) - 0.0).abs() < 1e-9);
        assert!((*t.leaf(&[0.8]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_predicts_mean() {
        let (ds, y) = step_data();
        let t = fit(&ds, &y, 0, 1).unwrap();
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((*t.leaf(&[0.3]) - mean).abs() < 1e-9);
        assert_eq!(t.n_leaves(), 1);
    }

    #[test]
    fn relabel_leaves_overrides_values() {
        let (ds, y) = step_data();
        let mut t = fit(&ds, &y, 3, 5).unwrap();
        // Routing the training rows again reproduces the fit-time leaf
        // membership, so relabelling with the member mean changes nothing.
        let before = t.clone();
        t.relabel_leaves(&ds, |rows| {
            rows.iter().map(|&i| y[i]).sum::<f64>() / rows.len() as f64
        });
        assert_eq!(t, before);
        t.relabel_leaves(&ds, |_| 42.0);
        assert_eq!(*t.leaf(&[0.1]), 42.0);
        assert_eq!(*t.leaf(&[0.9]), 42.0);
    }

    #[test]
    fn rejects_mismatched_targets() {
        let (ds, _) = step_data();
        assert!(fit(&ds, &[1.0], 3, 5).is_err());
    }

    #[test]
    fn rejects_nan_target() {
        let (ds, mut y) = step_data();
        y[0] = f64::NAN;
        assert!(fit(&ds, &y, 3, 5).is_err());
    }

    #[test]
    fn min_samples_leaf_respected() {
        let (ds, y) = step_data();
        let t = fit(&ds, &y, 10, 10).unwrap();
        assert!(t.n_leaves() <= 4);
    }
}
