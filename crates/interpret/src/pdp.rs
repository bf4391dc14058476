//! Partial dependence (PDP) and Individual Conditional Expectation (ICE)
//! curves.
//!
//! The paper's algorithm uses ALE, but §3 notes that "other model-agnostic
//! interpretation methods" slot into the same framework. PDP/ICE are the
//! obvious alternatives, and the ablation benches compare PDP-variance
//! feedback against ALE-variance feedback.

use crate::ale::{AleConfig, BATCH_ROWS};
use crate::grid::Grid;
use crate::{InterpretError, Result};
use aml_dataset::Dataset;
use aml_models::Classifier;

/// A partial-dependence curve: the average model response with one feature
/// clamped to each grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct PdpCurve {
    /// Explained feature.
    pub feature: usize,
    /// Grid points.
    pub grid: Vec<f64>,
    /// `mean_i f(z, x_{-j}(i))` at each grid point.
    pub values: Vec<f64>,
}

/// ICE curves: one response line per data row (PDP is their mean).
#[derive(Debug, Clone, PartialEq)]
pub struct IceCurves {
    /// Explained feature.
    pub feature: usize,
    /// Grid points.
    pub grid: Vec<f64>,
    /// `lines[row][grid_point]`.
    pub lines: Vec<Vec<f64>>,
}

fn validate(
    model: &dyn Classifier,
    data: &Dataset,
    feature: usize,
    config: &AleConfig,
) -> Result<()> {
    if data.is_empty() {
        return Err(InterpretError::EmptyData);
    }
    if feature >= data.n_features() {
        return Err(InterpretError::BadFeature {
            index: feature,
            n_features: data.n_features(),
        });
    }
    if config.target_class >= model.n_classes() {
        return Err(InterpretError::BadClass {
            class: config.target_class,
            n_classes: model.n_classes(),
        });
    }
    Ok(())
}

/// Compute the PDP curve of `model` for `feature` over `data`.
pub fn pdp_curve(
    model: &dyn Classifier,
    data: &Dataset,
    feature: usize,
    grid: &Grid,
    config: &AleConfig,
) -> Result<PdpCurve> {
    validate(model, data, feature, config)?;
    aml_telemetry::ledger::emit_with(|| aml_telemetry::LedgerEvent::AleCurveComputed {
        feature: feature as u64,
        model: model.name().to_string(),
        method: "pdp".to_string(),
        grid_points: grid.points().len() as u64,
        rows: data.n_rows() as u64,
    });
    // Rows are clamped and predicted a chunk per batch call; the response
    // is summed in row order, as one row at a time would sum it.
    let (n_features, n_classes) = (data.n_features(), model.n_classes());
    let mut values = Vec::with_capacity(grid.points().len());
    let mut rows = Vec::with_capacity(BATCH_ROWS * n_features);
    let mut proba = vec![0.0; BATCH_ROWS * n_classes];
    for &z in grid.points() {
        let mut acc = 0.0;
        for start in (0..data.n_rows()).step_by(BATCH_ROWS) {
            let end = data.n_rows().min(start + BATCH_ROWS);
            rows.clear();
            rows.extend_from_slice(&data.values()[start * n_features..end * n_features]);
            for row in rows.chunks_exact_mut(n_features) {
                row[feature] = z;
            }
            let p = &mut proba[..(end - start) * n_classes];
            model.predict_proba_into(&rows, p)?;
            for probs in p.chunks_exact(n_classes) {
                acc += probs[config.target_class];
            }
        }
        values.push(acc / data.n_rows() as f64);
    }
    Ok(PdpCurve {
        feature,
        grid: grid.points().to_vec(),
        values,
    })
}

/// Compute ICE curves of `model` for `feature` over (up to `max_lines` rows
/// of) `data`. Rows beyond `max_lines` are skipped deterministically by
/// stride so the sample spans the dataset.
pub fn ice_curves(
    model: &dyn Classifier,
    data: &Dataset,
    feature: usize,
    grid: &Grid,
    config: &AleConfig,
    max_lines: usize,
) -> Result<IceCurves> {
    validate(model, data, feature, config)?;
    if max_lines == 0 {
        return Err(InterpretError::InvalidParameter(
            "max_lines must be >= 1".into(),
        ));
    }
    let stride = (data.n_rows() / max_lines).max(1);
    let mut lines = Vec::new();
    let mut row_buf = vec![0.0; data.n_features()];
    for i in (0..data.n_rows()).step_by(stride).take(max_lines) {
        let mut line = Vec::with_capacity(grid.points().len());
        for &z in grid.points() {
            row_buf.copy_from_slice(data.row(i));
            row_buf[feature] = z;
            line.push(model.predict_proba_row(&row_buf)?[config.target_class]);
        }
        lines.push(line);
    }
    Ok(IceCurves {
        feature,
        grid: grid.points().to_vec(),
        lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aml_dataset::synth;
    use aml_models::tree::TreeParams;
    use aml_models::DecisionTree;

    struct LinearInX0;
    impl Classifier for LinearInX0 {
        fn n_classes(&self) -> usize {
            2
        }
        fn n_features(&self) -> usize {
            2
        }
        fn predict_proba_into(&self, rows: &[f64], out: &mut [f64]) -> aml_models::Result<()> {
            for (row, p) in rows.chunks(2).zip(out.chunks_mut(2)) {
                let x = row[0].clamp(0.0, 1.0);
                p.copy_from_slice(&[1.0 - x, x]);
            }
            Ok(())
        }
        fn name(&self) -> &'static str {
            "linear_in_x0"
        }
    }

    #[test]
    fn pdp_of_linear_model_equals_identity() {
        let ds = synth::noisy_xor(200, 0.0, 1).unwrap();
        let grid = Grid::uniform(aml_dataset::FeatureDomain::continuous(0.0, 1.0), 5).unwrap();
        let pdp = pdp_curve(&LinearInX0, &ds, 0, &grid, &AleConfig::default()).unwrap();
        for (z, v) in pdp.grid.iter().zip(&pdp.values) {
            assert!((v - z).abs() < 1e-12, "PDP({z}) = {v}");
        }
    }

    #[test]
    fn ice_mean_equals_pdp() {
        let ds = synth::two_moons(100, 0.2, 2).unwrap();
        let tree = DecisionTree::fit(&ds, TreeParams::default()).unwrap();
        let grid = Grid::quantile(&ds.column(0).unwrap(), 6).unwrap();
        let cfg = AleConfig::default();
        let pdp = pdp_curve(&tree, &ds, 0, &grid, &cfg).unwrap();
        let ice = ice_curves(&tree, &ds, 0, &grid, &cfg, usize::MAX).unwrap();
        assert_eq!(ice.lines.len(), ds.n_rows());
        for (g, &pv) in pdp.values.iter().enumerate() {
            let mean: f64 = ice.lines.iter().map(|l| l[g]).sum::<f64>() / ice.lines.len() as f64;
            assert!((mean - pv).abs() < 1e-12);
        }
    }

    #[test]
    fn ice_respects_max_lines() {
        let ds = synth::two_moons(100, 0.2, 3).unwrap();
        let grid = Grid::quantile(&ds.column(0).unwrap(), 4).unwrap();
        let ice = ice_curves(&LinearInX0, &ds, 0, &grid, &AleConfig::default(), 10).unwrap();
        assert!(ice.lines.len() <= 10);
        assert!(!ice.lines.is_empty());
    }

    #[test]
    fn bad_inputs_rejected() {
        let ds = synth::two_moons(50, 0.2, 4).unwrap();
        let grid = Grid::quantile(&ds.column(0).unwrap(), 4).unwrap();
        assert!(pdp_curve(&LinearInX0, &ds, 9, &grid, &AleConfig::default()).is_err());
        assert!(ice_curves(&LinearInX0, &ds, 0, &grid, &AleConfig::default(), 0).is_err());
    }
}
