//! Cross-model ALE mean/std bands — the quantity the paper thresholds.
//!
//! Step 4 of the paper's algorithm: *"Compute the standard deviation across
//! the ALE values of models in ℳ for feature X_s ∈ X in its range R(X_s)."*
//! Every model's ALE curve is computed on the **same grid** (otherwise the
//! pointwise std would compare apples to oranges), then the per-grid-point
//! mean and population standard deviation across models form the band that
//! is plotted (Figures 1/2) and thresholded ([`crate::region`]).

use crate::ale::{ale_curve, AleConfig, AleCurve};
use crate::grid::Grid;
use crate::pdp::pdp_curve;
use crate::{InterpretError, Result};
use aml_dataset::Dataset;
use aml_models::Classifier;

/// The cross-model ALE band for one feature.
#[derive(Debug, Clone, PartialEq)]
pub struct AleBand {
    /// Explained feature.
    pub feature: usize,
    /// Human-readable feature name (copied from the dataset).
    pub feature_name: String,
    /// Grid points.
    pub grid: Vec<f64>,
    /// Mean ALE value across models at each grid point.
    pub mean: Vec<f64>,
    /// Population std of ALE values across models at each grid point.
    pub std: Vec<f64>,
    /// Number of models the band aggregates.
    pub n_models: usize,
}

impl AleBand {
    /// The largest std anywhere on the grid.
    pub fn max_std(&self) -> f64 {
        self.std.iter().cloned().fold(0.0, f64::max)
    }

    /// Mean std over the grid (used to set the paper's median-based
    /// threshold across features).
    pub fn mean_std(&self) -> f64 {
        self.std.iter().sum::<f64>() / self.std.len() as f64
    }
}

/// Compute the cross-model ALE band for `feature`: one ALE curve per model
/// on a shared quantile grid derived from `data`, then pointwise mean/std.
pub fn ale_band(
    models: &[&dyn Classifier],
    data: &Dataset,
    feature: usize,
    n_intervals: usize,
    config: &AleConfig,
) -> Result<AleBand> {
    if models.is_empty() {
        return Err(InterpretError::NoModels);
    }
    let column = data
        .column(feature)
        .map_err(|_| InterpretError::BadFeature {
            index: feature,
            n_features: data.n_features(),
        })?;
    let grid = Grid::quantile(&column, n_intervals)?;
    ale_band_on_grid(models, data, feature, &grid, config)
}

/// Like [`ale_band`] but on a caller-supplied grid (e.g. a uniform grid over
/// the declared feature domain, which Figure 1 uses for `config.link_rate`).
pub fn ale_band_on_grid(
    models: &[&dyn Classifier],
    data: &Dataset,
    feature: usize,
    grid: &Grid,
    config: &AleConfig,
) -> Result<AleBand> {
    let _span = aml_telemetry::span!("interpret.variance.band");
    if models.is_empty() {
        return Err(InterpretError::NoModels);
    }
    let curves: Vec<AleCurve> = models
        .iter()
        .map(|m| ale_curve(*m, data, feature, grid, config))
        .collect::<Result<_>>()?;
    Ok(band_from_curves(data, feature, grid, &curves))
}

/// Aggregate pre-computed curves (which must share `grid`) into a band.
/// Exposed so Cross-ALE can pool curves from several AutoML runs.
pub fn band_from_curves(
    data: &Dataset,
    feature: usize,
    grid: &Grid,
    curves: &[AleCurve],
) -> AleBand {
    let g = grid.points();
    let n = curves.len() as f64;
    let mut mean = vec![0.0; g.len()];
    for c in curves {
        debug_assert_eq!(c.grid.len(), g.len(), "curves must share the grid");
        for (m, v) in mean.iter_mut().zip(&c.values) {
            *m += v / n;
        }
    }
    let mut std = vec![0.0; g.len()];
    for c in curves {
        for (s, (v, m)) in std.iter_mut().zip(c.values.iter().zip(&mean)) {
            *s += (v - m) * (v - m) / n;
        }
    }
    for s in &mut std {
        *s = s.sqrt();
    }
    let feature_name = data
        .features()
        .get(feature)
        .map(|f| f.name.clone())
        .unwrap_or_else(|| format!("x{feature}"));
    AleBand {
        feature,
        feature_name,
        grid: g.to_vec(),
        mean,
        std,
        n_models: curves.len(),
    }
}

/// Like [`ale_band_on_grid`] but aggregating **partial-dependence** curves
/// instead of ALE — the drop-in alternative interpretation method the
/// paper's §3 alludes to ("ALE plots (and other model-agnostic
/// interpretation methods)"). The returned band reuses [`AleBand`]; its
/// `mean` holds the cross-model mean PDP value per grid point.
pub fn pdp_band_on_grid(
    models: &[&dyn Classifier],
    data: &Dataset,
    feature: usize,
    grid: &Grid,
    config: &AleConfig,
) -> Result<AleBand> {
    let _span = aml_telemetry::span!("interpret.variance.pdp_band");
    if models.is_empty() {
        return Err(InterpretError::NoModels);
    }
    let curves: Vec<AleCurve> = models
        .iter()
        .map(|m| {
            let pdp = pdp_curve(*m, data, feature, grid, config)?;
            Ok(AleCurve {
                feature,
                grid: pdp.grid,
                values: pdp.values,
                interval_counts: Vec::new(), // PDP has no interval binning
            })
        })
        .collect::<Result<_>>()?;
    Ok(band_from_curves(data, feature, grid, &curves))
}

/// Compute bands for **every** feature of `data` (the paper's algorithm
/// iterates over the whole feature set X).
pub fn ale_bands_all_features(
    models: &[&dyn Classifier],
    data: &Dataset,
    n_intervals: usize,
    config: &AleConfig,
) -> Result<Vec<AleBand>> {
    (0..data.n_features())
        .map(|f| ale_band(models, data, f, n_intervals, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aml_dataset::synth;
    use aml_models::tree::TreeParams;
    use aml_models::DecisionTree;

    /// Fixed-probability stub classifiers with controllable disagreement.
    struct Constant(f64);
    impl Classifier for Constant {
        fn n_classes(&self) -> usize {
            2
        }
        fn n_features(&self) -> usize {
            2
        }
        fn predict_proba_into(&self, _rows: &[f64], out: &mut [f64]) -> aml_models::Result<()> {
            for p in out.chunks_mut(2) {
                p.copy_from_slice(&[1.0 - self.0, self.0]);
            }
            Ok(())
        }
        fn name(&self) -> &'static str {
            "constant"
        }
    }

    /// p(class 1) = clamp(slope * x0, 0, 1).
    struct Slope(f64);
    impl Classifier for Slope {
        fn n_classes(&self) -> usize {
            2
        }
        fn n_features(&self) -> usize {
            2
        }
        fn predict_proba_into(&self, rows: &[f64], out: &mut [f64]) -> aml_models::Result<()> {
            for (row, p) in rows.chunks(2).zip(out.chunks_mut(2)) {
                let x = (self.0 * row[0]).clamp(0.0, 1.0);
                p.copy_from_slice(&[1.0 - x, x]);
            }
            Ok(())
        }
        fn name(&self) -> &'static str {
            "slope"
        }
    }

    #[test]
    fn identical_models_have_zero_std() {
        let ds = synth::noisy_xor(200, 0.0, 1).unwrap();
        let a = Slope(1.0);
        let b = Slope(1.0);
        let band = ale_band(&[&a, &b], &ds, 0, 8, &AleConfig::default()).unwrap();
        assert!(band.std.iter().all(|&s| s < 1e-12));
        assert_eq!(band.n_models, 2);
    }

    #[test]
    fn constant_models_have_flat_zero_ale() {
        let ds = synth::noisy_xor(100, 0.0, 2).unwrap();
        let a = Constant(0.3);
        let b = Constant(0.9);
        let band = ale_band(&[&a, &b], &ds, 0, 8, &AleConfig::default()).unwrap();
        // Both ALEs are identically zero (no local effect), so mean and std
        // are zero despite very different absolute probabilities — ALE
        // measures *effects*, not offsets.
        assert!(band.mean.iter().all(|&m| m.abs() < 1e-12));
        assert!(band.std.iter().all(|&s| s < 1e-12));
    }

    #[test]
    fn disagreeing_slopes_produce_positive_std() {
        let ds = synth::noisy_xor(300, 0.0, 3).unwrap();
        let a = Slope(1.0);
        let b = Slope(-1.0); // clamped at 0 ⇒ flat; strongly disagrees
        let band = ale_band(&[&a, &b], &ds, 0, 8, &AleConfig::default()).unwrap();
        assert!(band.max_std() > 0.05, "max std {}", band.max_std());
    }

    #[test]
    fn bands_for_all_features_cover_every_column() {
        let ds = synth::gaussian_blobs(120, 3, 2, 1.0, 4).unwrap();
        let t1 = DecisionTree::fit(
            &ds,
            TreeParams {
                seed: 1,
                max_features: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        let t2 = DecisionTree::fit(
            &ds,
            TreeParams {
                seed: 2,
                max_features: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        let bands = ale_bands_all_features(&[&t1, &t2], &ds, 8, &AleConfig::default()).unwrap();
        assert_eq!(bands.len(), 3);
        for (f, b) in bands.iter().enumerate() {
            assert_eq!(b.feature, f);
            assert_eq!(b.mean.len(), b.grid.len());
            assert_eq!(b.std.len(), b.grid.len());
        }
    }

    #[test]
    fn empty_model_list_rejected() {
        let ds = synth::two_moons(50, 0.2, 5).unwrap();
        assert_eq!(
            ale_band(&[], &ds, 0, 8, &AleConfig::default()),
            Err(InterpretError::NoModels)
        );
    }

    #[test]
    fn pdp_band_identical_models_zero_std_and_uncentred_mean() {
        let ds = synth::noisy_xor(150, 0.0, 9).unwrap();
        let a = Slope(1.0);
        let b = Slope(1.0);
        let grid = crate::grid::Grid::quantile(&ds.column(0).unwrap(), 8).unwrap();
        let band = pdp_band_on_grid(&[&a, &b], &ds, 0, &grid, &AleConfig::default()).unwrap();
        assert!(band.std.iter().all(|&s| s < 1e-12));
        // PDP of p(x)=x is the identity — not centered like ALE.
        for (g, m) in band.grid.iter().zip(&band.mean) {
            assert!((m - g).abs() < 1e-9, "PDP({g}) = {m}");
        }
    }

    #[test]
    fn pdp_band_detects_disagreement_like_ale() {
        let ds = synth::noisy_xor(200, 0.0, 10).unwrap();
        let a = Slope(1.0);
        let b = Slope(-1.0);
        let grid = crate::grid::Grid::quantile(&ds.column(0).unwrap(), 8).unwrap();
        let band = pdp_band_on_grid(&[&a, &b], &ds, 0, &grid, &AleConfig::default()).unwrap();
        assert!(band.max_std() > 0.05);
    }

    #[test]
    fn band_carries_feature_name() {
        let ds = synth::two_moons(80, 0.2, 6).unwrap();
        let m = Slope(1.0);
        let band = ale_band(&[&m], &ds, 1, 8, &AleConfig::default()).unwrap();
        assert_eq!(band.feature_name, "x1");
    }
}
