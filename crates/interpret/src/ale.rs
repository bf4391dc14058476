//! First-order Accumulated Local Effects (ALE).
//!
//! ALE explains how one feature influences a model's prediction *on
//! average*, without the unrealistic extrapolation of partial dependence:
//! instead of evaluating the model on synthetic points far from the data, it
//! accumulates the *local* finite differences
//!
//! ```text
//! effect_k = mean over rows i with x_j(i) ∈ (z_{k-1}, z_k] of
//!            f(z_k, x_{-j}(i)) − f(z_{k-1}, x_{-j}(i))
//! ALE(z_k) = Σ_{l ≤ k} effect_l, centered to zero data-weighted mean
//! ```
//!
//! For classification, `f` is the predicted probability of a chosen target
//! class ([`AleConfig::target_class`]) — the natural choice for the paper's
//! binary "Scream vs rest" problem is the positive class.

use crate::grid::Grid;
use crate::{InterpretError, Result};
use aml_dataset::Dataset;
use aml_models::Classifier;

/// Rows per batch prediction call in [`ale_curve`] and
/// [`crate::pdp::pdp_curve`]: enough to amortize a call, few enough that
/// the shifted-row buffers stay a few tens of KiB at any data size.
pub(crate) const BATCH_ROWS: usize = 256;

/// Configuration for an ALE computation.
#[derive(Debug, Clone, PartialEq)]
pub struct AleConfig {
    /// Class whose predicted probability is explained.
    pub target_class: usize,
}

impl Default for AleConfig {
    fn default() -> Self {
        // Class 1 = the positive class in binary problems ("use Scream").
        AleConfig { target_class: 1 }
    }
}

/// One model's ALE curve on a fixed grid.
#[derive(Debug, Clone, PartialEq)]
pub struct AleCurve {
    /// The feature this curve explains.
    pub feature: usize,
    /// Grid points (length `n_intervals + 1`).
    pub grid: Vec<f64>,
    /// Centered accumulated effects at each grid point (same length as
    /// `grid`).
    pub values: Vec<f64>,
    /// Rows that fell into each interval (length `n_intervals`). Empty
    /// intervals contribute a zero local effect.
    pub interval_counts: Vec<usize>,
}

impl AleCurve {
    /// Linearly interpolate the curve at `x` (clamped to the grid range).
    pub fn eval(&self, x: f64) -> f64 {
        let x = x.clamp(self.grid[0], *self.grid.last().expect("grid non-empty"));
        // Find the surrounding grid points.
        let hi_idx = self
            .grid
            .partition_point(|&p| p < x)
            .clamp(1, self.grid.len() - 1);
        let lo_idx = hi_idx - 1;
        let (x0, x1) = (self.grid[lo_idx], self.grid[hi_idx]);
        let (y0, y1) = (self.values[lo_idx], self.values[hi_idx]);
        if x1 > x0 {
            y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        } else {
            y0
        }
    }
}

/// Compute the first-order ALE curve of `model` for `feature` over `data`,
/// using the supplied `grid`. The grid is passed in (rather than derived
/// here) so that multiple models can be evaluated on an identical grid —
/// the cross-model variance of Figures 1/2 is only meaningful on a shared
/// grid.
pub fn ale_curve(
    model: &dyn Classifier,
    data: &Dataset,
    feature: usize,
    grid: &Grid,
    config: &AleConfig,
) -> Result<AleCurve> {
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

    let _span = aml_telemetry::span!("interpret.ale.curve");
    aml_telemetry::ledger::emit_with(|| aml_telemetry::LedgerEvent::AleCurveComputed {
        feature: feature as u64,
        model: model.name().to_string(),
        method: "ale".to_string(),
        grid_points: grid.points().len() as u64,
        rows: data.n_rows() as u64,
    });
    let k = grid.n_intervals();
    aml_telemetry::counter_add("interpret.ale.cells", k as u64);
    aml_telemetry::counter_add("interpret.ale.predictions", 2 * data.n_rows() as u64);
    let mut sums = vec![0.0; k];
    let mut counts = vec![0usize; k];

    // Each chunk of rows is shifted to its intervals' upper and lower grid
    // points and predicted in two batch calls; effects are then added in
    // row order, as one row at a time would add them.
    let (n_features, n_classes) = (data.n_features(), model.n_classes());
    let mut hi = Vec::with_capacity(BATCH_ROWS * n_features);
    let mut lo = Vec::with_capacity(BATCH_ROWS * n_features);
    let mut intervals = Vec::with_capacity(BATCH_ROWS);
    let mut p_hi = vec![0.0; BATCH_ROWS * n_classes];
    let mut p_lo = vec![0.0; BATCH_ROWS * n_classes];
    for start in (0..data.n_rows()).step_by(BATCH_ROWS) {
        hi.clear();
        lo.clear();
        intervals.clear();
        for i in start..data.n_rows().min(start + BATCH_ROWS) {
            let row = data.row(i);
            // Defensive: a non-finite feature value cannot be binned; skip
            // the row (counted) rather than accumulate garbage into an
            // interval.
            if !row[feature].is_finite() {
                aml_telemetry::counter_add("ale.nonfinite_dropped", 1);
                continue;
            }
            let interval = grid.interval_of(row[feature]);
            hi.extend_from_slice(row);
            lo.extend_from_slice(row);
            let at = intervals.len() * n_features + feature;
            hi[at] = grid.points()[interval + 1];
            lo[at] = grid.points()[interval];
            intervals.push(interval);
        }
        let n = intervals.len() * n_classes;
        model.predict_proba_into(&hi, &mut p_hi[..n])?;
        model.predict_proba_into(&lo, &mut p_lo[..n])?;
        for (t, &interval) in intervals.iter().enumerate() {
            let at = t * n_classes + config.target_class;
            sums[interval] += p_hi[at] - p_lo[at];
            counts[interval] += 1;
        }
    }

    // Accumulate mean local effects; empty intervals carry zero effect.
    let mut values = Vec::with_capacity(k + 1);
    values.push(0.0);
    let mut acc = 0.0;
    for interval in 0..k {
        if counts[interval] > 0 {
            acc += sums[interval] / counts[interval] as f64;
        }
        values.push(acc);
    }

    // Center: subtract the data-weighted mean of the *interval midpoint*
    // values (standard ALE centering — the expected ALE over the data
    // distribution becomes zero).
    let total: usize = counts.iter().sum();
    if total > 0 {
        let mut weighted = 0.0;
        for interval in 0..k {
            let mid = 0.5 * (values[interval] + values[interval + 1]);
            weighted += mid * counts[interval] as f64;
        }
        let mean = weighted / total as f64;
        for v in &mut values {
            *v -= mean;
        }
    }

    Ok(AleCurve {
        feature,
        grid: grid.points().to_vec(),
        values,
        interval_counts: counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aml_dataset::synth;
    use aml_models::tree::TreeParams;
    use aml_models::DecisionTree;

    /// A handcrafted "model" with a known closed-form probability so the ALE
    /// can be checked analytically: p(class 1) = clamp(x_0, 0, 1); feature 1
    /// ignored.
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

    fn unit_square_data(n: usize, seed: u64) -> Dataset {
        synth::noisy_xor(n, 0.0, seed).unwrap() // features uniform in [0,1]²
    }

    #[test]
    fn ale_of_linear_model_is_linear_with_unit_slope() {
        let ds = unit_square_data(500, 1);
        let grid = Grid::uniform(aml_dataset::FeatureDomain::continuous(0.0, 1.0), 10).unwrap();
        let curve = ale_curve(&LinearInX0, &ds, 0, &grid, &AleConfig::default()).unwrap();
        // ALE of f(x) = x is x − E[x] ≈ x − 0.5.
        for (z, v) in curve.grid.iter().zip(&curve.values) {
            assert!(
                (v - (z - 0.5)).abs() < 0.05,
                "ALE({z}) = {v}, expected ≈ {}",
                z - 0.5
            );
        }
    }

    #[test]
    fn ale_of_ignored_feature_is_flat() {
        let ds = unit_square_data(500, 2);
        let grid = Grid::uniform(aml_dataset::FeatureDomain::continuous(0.0, 1.0), 10).unwrap();
        let curve = ale_curve(&LinearInX0, &ds, 1, &grid, &AleConfig::default()).unwrap();
        for v in &curve.values {
            assert!(
                v.abs() < 1e-12,
                "feature 1 is ignored, ALE must be 0, got {v}"
            );
        }
    }

    #[test]
    fn ale_is_centered() {
        let ds = unit_square_data(400, 3);
        let tree = DecisionTree::fit(&ds, TreeParams::default()).unwrap();
        let grid = Grid::quantile(&ds.column(0).unwrap(), 16).unwrap();
        let curve = ale_curve(&tree, &ds, 0, &grid, &AleConfig::default()).unwrap();
        // Data-weighted mean of interval midpoints ≈ 0.
        let total: usize = curve.interval_counts.iter().sum();
        let mut weighted = 0.0;
        for k in 0..curve.interval_counts.len() {
            let mid = 0.5 * (curve.values[k] + curve.values[k + 1]);
            weighted += mid * curve.interval_counts[k] as f64 / total as f64;
        }
        assert!(weighted.abs() < 1e-9, "centering failed: {weighted}");
    }

    #[test]
    fn interval_counts_partition_the_data() {
        let ds = unit_square_data(300, 4);
        let grid = Grid::quantile(&ds.column(0).unwrap(), 8).unwrap();
        let curve = ale_curve(&LinearInX0, &ds, 0, &grid, &AleConfig::default()).unwrap();
        assert_eq!(curve.interval_counts.iter().sum::<usize>(), 300);
    }

    #[test]
    fn eval_interpolates() {
        let curve = AleCurve {
            feature: 0,
            grid: vec![0.0, 1.0, 2.0],
            values: vec![0.0, 1.0, 0.0],
            interval_counts: vec![1, 1],
        };
        assert_eq!(curve.eval(0.5), 0.5);
        assert_eq!(curve.eval(1.5), 0.5);
        assert_eq!(curve.eval(-10.0), 0.0); // clamped
        assert_eq!(curve.eval(10.0), 0.0);
    }

    #[test]
    fn bad_inputs_rejected() {
        let ds = unit_square_data(50, 5);
        let grid = Grid::uniform(aml_dataset::FeatureDomain::continuous(0.0, 1.0), 4).unwrap();
        assert!(matches!(
            ale_curve(&LinearInX0, &ds, 7, &grid, &AleConfig::default()),
            Err(InterpretError::BadFeature { .. })
        ));
        assert!(matches!(
            ale_curve(&LinearInX0, &ds, 0, &grid, &AleConfig { target_class: 5 }),
            Err(InterpretError::BadClass { .. })
        ));
        let empty = ds.empty_like();
        assert!(matches!(
            ale_curve(&LinearInX0, &empty, 0, &grid, &AleConfig::default()),
            Err(InterpretError::EmptyData)
        ));
    }

    #[test]
    fn tree_ale_detects_the_split_feature() {
        // Label depends only on feature 0 → its ALE range should dwarf
        // feature 1's.
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![i as f64 / 200.0, (i as f64 * 7.7) % 1.0])
            .collect();
        let labels: Vec<usize> = rows.iter().map(|r| usize::from(r[0] > 0.5)).collect();
        let ds = Dataset::from_rows(&rows, &labels, 2).unwrap();
        let tree = DecisionTree::fit(&ds, TreeParams::default()).unwrap();
        let g0 = Grid::quantile(&ds.column(0).unwrap(), 10).unwrap();
        let g1 = Grid::quantile(&ds.column(1).unwrap(), 10).unwrap();
        let c0 = ale_curve(&tree, &ds, 0, &g0, &AleConfig::default()).unwrap();
        let c1 = ale_curve(&tree, &ds, 1, &g1, &AleConfig::default()).unwrap();
        let range = |c: &AleCurve| {
            c.values.iter().cloned().fold(f64::MIN, f64::max)
                - c.values.iter().cloned().fold(f64::MAX, f64::min)
        };
        assert!(
            range(&c0) > 5.0 * range(&c1).max(1e-6),
            "feature 0 range {} vs feature 1 range {}",
            range(&c0),
            range(&c1)
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use aml_dataset::synth;
    use aml_models::tree::TreeParams;
    use aml_models::DecisionTree;
    use aml_propcheck::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// ALE values start at the accumulated-zero origin shifted by the
        /// centering constant: successive differences must equal the mean
        /// local effects, i.e. the curve is finite and bounded by the
        /// probability range (slope bounded by 1 in probability units per
        /// interval).
        #[test]
        fn prop_ale_bounded_and_finite(seed in 0u64..200, k in 4usize..24) {
            let ds = synth::two_moons(150, 0.25, seed).unwrap();
            let tree = DecisionTree::fit(
                &ds, TreeParams { max_depth: 6, ..Default::default() }).unwrap();
            let col = ds.column(0).unwrap();
            let grid = Grid::quantile(&col, k).unwrap();
            let curve = ale_curve(&tree, &ds, 0, &grid, &AleConfig::default()).unwrap();
            prop_assert!(curve.values.iter().all(|v| v.is_finite()));
            // Each local effect is a mean of probability differences → |Δ| ≤ 1.
            for w in curve.values.windows(2) {
                prop_assert!((w[1] - w[0]).abs() <= 1.0 + 1e-9);
            }
            // Total span of a probability-output ALE is ≤ number of intervals,
            // and in practice ≤ 2 (it cannot exceed the probability range
            // accumulated in one direction and back).
            let max = curve.values.iter().cloned().fold(f64::MIN, f64::max);
            let min = curve.values.iter().cloned().fold(f64::MAX, f64::min);
            prop_assert!(max - min <= grid.n_intervals() as f64);
        }
    }
}
