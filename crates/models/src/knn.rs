//! Brute-force k-nearest-neighbours classifier.
//!
//! Stores the (typically scaled — see [`crate::pipeline::Pipeline`])
//! training set and classifies by majority/distance-weighted vote over the
//! `k` nearest rows in Euclidean distance. Brute force is fine at the
//! dataset sizes of the paper's experiments (~thousands of rows) and keeps
//! the implementation obviously correct.
//!
//! The training rows are kept column-major, so a query's squared distances
//! to every row accumulate one feature at a time in a loop over contiguous
//! columns that the compiler vectorizes. Each distance still sums its
//! features in feature order, as a row-by-row sum would.

use crate::model::{check_training, map_rows, normalize, Classifier};
use crate::{ModelError, Result};
use aml_dataset::Dataset;

/// Vote weighting scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnWeights {
    /// Each neighbour contributes 1.
    Uniform,
    /// Each neighbour contributes `1 / (distance + ε)`.
    Distance,
}

/// Hyperparameters for [`KNearestNeighbors`].
#[derive(Debug, Clone, PartialEq)]
pub struct KnnParams {
    /// Number of neighbours.
    pub k: usize,
    /// Vote weighting.
    pub weights: KnnWeights,
}

impl Default for KnnParams {
    fn default() -> Self {
        KnnParams {
            k: 5,
            weights: KnnWeights::Uniform,
        }
    }
}

/// A fitted (memorized) kNN classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct KNearestNeighbors {
    /// Training features, column-major: feature `j` of row `i` is
    /// `columns[j * n_rows + i]`.
    columns: Vec<f64>,
    labels: Vec<usize>,
    n_features: usize,
    n_classes: usize,
    params: KnnParams,
}

impl KNearestNeighbors {
    /// "Fit" = store the training set. `k` is clamped to the training size
    /// at prediction time, but `k == 0` is rejected here.
    pub fn fit(ds: &Dataset, params: KnnParams) -> Result<Self> {
        check_training(ds)?;
        if params.k == 0 {
            return Err(ModelError::InvalidHyperparameter("k must be >= 1".into()));
        }
        let columns = (0..ds.n_features())
            .flat_map(|j| (0..ds.n_rows()).map(move |i| ds.row(i)[j]))
            .collect();
        Ok(KNearestNeighbors {
            columns,
            labels: ds.labels().to_vec(),
            n_features: ds.n_features(),
            n_classes: ds.n_classes(),
            params,
        })
    }

    /// The effective `k` used for votes.
    pub fn effective_k(&self) -> usize {
        self.params.k.min(self.labels.len())
    }
}

impl Classifier for KNearestNeighbors {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn predict_proba_into(&self, rows: &[f64], out: &mut [f64]) -> Result<()> {
        let n = self.labels.len();
        let k = self.effective_k();
        let mut sq_dists = vec![0.0; n];
        let mut dists: Vec<(f64, usize)> = Vec::with_capacity(n);
        map_rows(rows, out, self.n_features, self.n_classes, |row, votes| {
            sq_dists.fill(0.0);
            for (&q, column) in row.iter().zip(self.columns.chunks_exact(n)) {
                for (d, &x) in sq_dists.iter_mut().zip(column) {
                    *d += (q - x) * (q - x);
                }
            }
            dists.clear();
            dists.extend(sq_dists.iter().copied().zip(self.labels.iter().copied()));
            // Partial selection of the k smallest distances.
            dists.select_nth_unstable_by(k - 1, |a, b| {
                a.0.partial_cmp(&b.0).expect("squared distances are finite")
            });
            votes.fill(0.0);
            for &(d, label) in &dists[..k] {
                let w = match self.params.weights {
                    KnnWeights::Uniform => 1.0,
                    KnnWeights::Distance => 1.0 / (d.sqrt() + 1e-9),
                };
                votes[label] += w;
            }
            normalize(votes);
        })
    }

    fn name(&self) -> &'static str {
        "knn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use aml_dataset::synth;

    #[test]
    fn one_nn_memorizes_training_set() {
        let ds = synth::gaussian_blobs(60, 2, 3, 1.0, 1).unwrap();
        let knn = KNearestNeighbors::fit(
            &ds,
            KnnParams {
                k: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let pred = knn.predict(&ds).unwrap();
        assert_eq!(accuracy(ds.labels(), &pred).unwrap(), 1.0);
    }

    #[test]
    fn generalizes_on_blobs() {
        let train = synth::gaussian_blobs(200, 2, 2, 1.0, 2).unwrap();
        let test = synth::gaussian_blobs(100, 2, 2, 1.0, 3).unwrap();
        let knn = KNearestNeighbors::fit(&train, KnnParams::default()).unwrap();
        let acc = accuracy(test.labels(), &knn.predict(&test).unwrap()).unwrap();
        assert!(acc > 0.9, "kNN blob accuracy {acc}");
    }

    #[test]
    fn distance_weighting_prefers_closer_neighbour() {
        // Two classes: one point at 0 (class 0), two points far away at 10
        // and 10.1 (class 1). With k=3 uniform, class 1 wins 2:1; with
        // distance weights, the query at 0.1 sides with class 0.
        let ds =
            aml_dataset::Dataset::from_rows(&[vec![0.0], vec![10.0], vec![10.1]], &[0, 1, 1], 2)
                .unwrap();
        let uniform = KNearestNeighbors::fit(
            &ds,
            KnnParams {
                k: 3,
                weights: KnnWeights::Uniform,
            },
        )
        .unwrap();
        let weighted = KNearestNeighbors::fit(
            &ds,
            KnnParams {
                k: 3,
                weights: KnnWeights::Distance,
            },
        )
        .unwrap();
        assert_eq!(uniform.predict_row(&[0.1]).unwrap(), 1);
        assert_eq!(weighted.predict_row(&[0.1]).unwrap(), 0);
    }

    #[test]
    fn k_larger_than_training_set_is_clamped() {
        let ds = aml_dataset::Dataset::from_rows(&[vec![0.0], vec![1.0], vec![2.0]], &[0, 1, 1], 2)
            .unwrap();
        let knn = KNearestNeighbors::fit(
            &ds,
            KnnParams {
                k: 50,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(knn.effective_k(), 3);
        // Majority of the whole set is class 1.
        assert_eq!(knn.predict_row(&[0.0]).unwrap(), 1);
    }

    #[test]
    fn k_zero_rejected() {
        let ds = synth::two_moons(20, 0.1, 0).unwrap();
        assert!(KNearestNeighbors::fit(
            &ds,
            KnnParams {
                k: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn proba_is_vote_fraction() {
        let ds = aml_dataset::Dataset::from_rows(&[vec![0.0], vec![0.2], vec![5.0]], &[0, 0, 1], 2)
            .unwrap();
        let knn = KNearestNeighbors::fit(
            &ds,
            KnnParams {
                k: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let p = knn.predict_proba_row(&[0.1]).unwrap();
        assert!((p[0] - 2.0 / 3.0).abs() < 1e-9);
        assert!((p[1] - 1.0 / 3.0).abs() < 1e-9);
    }
}
