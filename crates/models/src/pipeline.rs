//! Scaler + model pipelines.
//!
//! A [`Pipeline`] binds a fitted scaler to a fitted model so that callers
//! (AutoML, the feedback algorithms, ALE) can treat "standardize then
//! kNN" as a single [`Classifier`] and never worry about leaking unscaled
//! rows into a scale-sensitive model.

use crate::model::{check_batch, Classifier};
use crate::preprocess::{FittedScaler, ScalerKind, Transformer};
use crate::Result;
use aml_dataset::Dataset;
use std::sync::Arc;

/// A fitted preprocessing + model pipeline.
pub struct Pipeline {
    scaler: FittedScaler,
    model: Arc<dyn Classifier>,
}

impl Pipeline {
    /// Wrap an already-fitted scaler and model.
    pub fn new(scaler: FittedScaler, model: Arc<dyn Classifier>) -> Self {
        Pipeline { scaler, model }
    }

    /// Fit the scaler of `kind` on `ds`, transform, then fit a model via
    /// `fit_model` on the transformed data.
    pub fn fit_with(
        ds: &Dataset,
        kind: ScalerKind,
        fit_model: impl FnOnce(&Dataset) -> Result<Arc<dyn Classifier>>,
    ) -> Result<Self> {
        let scaler = FittedScaler::fit(kind, ds)?;
        let transformed = scaler.transform(ds)?;
        let model = fit_model(&transformed)?;
        Ok(Pipeline { scaler, model })
    }

    /// The inner model.
    pub fn model(&self) -> &Arc<dyn Classifier> {
        &self.model
    }
}

impl Classifier for Pipeline {
    fn n_classes(&self) -> usize {
        self.model.n_classes()
    }

    fn n_features(&self) -> usize {
        self.model.n_features()
    }

    /// Scales a copy of the batch row by row, then makes one call to the
    /// inner model; without a scaler the batch passes through uncopied.
    fn predict_proba_into(&self, rows: &[f64], out: &mut [f64]) -> Result<()> {
        if let FittedScaler::None = self.scaler {
            return self.model.predict_proba_into(rows, out);
        }
        let n_features = self.n_features();
        let n_rows = check_batch(rows, out, n_features, self.n_classes())?;
        let mut scaled = rows.to_vec();
        for i in 0..n_rows {
            self.scaler
                .transform_row(&mut scaled[i * n_features..(i + 1) * n_features])?;
        }
        self.model.predict_proba_into(&scaled, out)
    }

    fn name(&self) -> &'static str {
        self.model.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::{KNearestNeighbors, KnnParams};
    use crate::metrics::accuracy;
    use crate::preprocess::ScalerKind;
    use aml_dataset::synth;

    /// Data where the informative feature is tiny-scale and a pure-noise
    /// feature spans [0, 1e5] — unscaled kNN is dominated by the noise
    /// axis; the pipeline's standardizer fixes that.
    fn skewed_blobs(seed: u64) -> Dataset {
        use aml_rng::rngs::StdRng;
        use aml_rng::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..300 {
            let class = i % 2;
            let informative = class as f64 * 3.0 + rng.gen::<f64>() - 0.5;
            let noise = rng.gen::<f64>() * 1e5;
            rows.push(vec![informative, noise]);
            labels.push(class);
        }
        Dataset::from_rows(&rows, &labels, 2).unwrap()
    }

    #[test]
    fn pipeline_scaling_beats_raw_knn_on_skewed_data() {
        let train = skewed_blobs(1);
        let test = skewed_blobs(2);
        let raw = KNearestNeighbors::fit(&train, KnnParams::default()).unwrap();
        let raw_acc = accuracy(test.labels(), &raw.predict(&test).unwrap()).unwrap();

        let piped = Pipeline::fit_with(&train, ScalerKind::Standard, |d| {
            Ok(Arc::new(
                KNearestNeighbors::fit(d, KnnParams::default()).unwrap(),
            ))
        })
        .unwrap();
        let piped_acc = accuracy(test.labels(), &piped.predict(&test).unwrap()).unwrap();
        assert!(
            piped_acc > raw_acc + 0.1,
            "scaled kNN {piped_acc} should beat raw {raw_acc} on skewed features"
        );
    }

    #[test]
    fn pipeline_none_scaler_is_transparent() {
        let ds = synth::two_moons(100, 0.2, 2).unwrap();
        let direct = KNearestNeighbors::fit(&ds, KnnParams::default()).unwrap();
        let piped = Pipeline::fit_with(&ds, ScalerKind::None, |d| {
            Ok(Arc::new(
                KNearestNeighbors::fit(d, KnnParams::default()).unwrap(),
            ))
        })
        .unwrap();
        for i in 0..ds.n_rows() {
            assert_eq!(
                direct.predict_proba_row(ds.row(i)).unwrap(),
                piped.predict_proba_row(ds.row(i)).unwrap()
            );
        }
    }

    #[test]
    fn pipeline_reports_inner_name() {
        let ds = synth::two_moons(50, 0.2, 3).unwrap();
        let piped = Pipeline::fit_with(&ds, ScalerKind::MinMax, |d| {
            Ok(Arc::new(
                KNearestNeighbors::fit(d, KnnParams::default()).unwrap(),
            ))
        })
        .unwrap();
        assert_eq!(piped.name(), "knn");
    }
}
