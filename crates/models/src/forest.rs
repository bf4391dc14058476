//! Random forests and extremely randomized trees.
//!
//! Both aggregate the leaf class distributions of many decorrelated
//! [`DecisionTree`]s by probability averaging. They differ in where the
//! randomness comes from: forests bootstrap-resample rows and subsample
//! features per split; extra-trees keep all rows but draw random thresholds.

use crate::model::{check_training, map_rows, Classifier};
use crate::tree::{Criterion, DecisionTree, Presort, Splitter, TreeParams};
use crate::{ModelError, Result};
use aml_dataset::Dataset;
use aml_rng::rngs::StdRng;
use aml_rng::{Rng, SeedableRng};

/// Hyperparameters shared by [`RandomForest`] and [`ExtraTrees`].
#[derive(Debug, Clone, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features considered per split (`None` = `sqrt(n_features)`).
    pub max_features: Option<usize>,
    /// Impurity criterion.
    pub criterion: Criterion,
    /// Master seed; per-tree seeds are derived deterministically.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 50,
            max_depth: 12,
            min_samples_leaf: 1,
            max_features: None,
            criterion: Criterion::Gini,
            seed: 0,
        }
    }
}

impl ForestParams {
    fn validate(&self) -> Result<()> {
        if self.n_trees == 0 {
            return Err(ModelError::InvalidHyperparameter(
                "n_trees must be >= 1".into(),
            ));
        }
        Ok(())
    }

    fn tree_params(&self, ds: &Dataset, splitter: Splitter, tree_seed: u64) -> TreeParams {
        let default_mf = (ds.n_features() as f64).sqrt().round().max(1.0) as usize;
        TreeParams {
            max_depth: self.max_depth,
            min_samples_split: (2 * self.min_samples_leaf).max(2),
            min_samples_leaf: self.min_samples_leaf,
            criterion: self.criterion,
            splitter,
            max_features: Some(self.max_features.unwrap_or(default_mf).min(ds.n_features())),
            seed: tree_seed,
        }
    }
}

/// Deterministic per-member seed derivation (SplitMix64 step).
pub(crate) fn derive_seed(master: u64, index: u64) -> u64 {
    let mut z = master ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A probability-averaging ensemble of [`DecisionTree`]s: a
/// [`RandomForest`] when `EXTRA` is false, [`ExtraTrees`] when it is true.
#[derive(Debug, Clone, PartialEq)]
pub struct Forest<const EXTRA: bool> {
    trees: Vec<DecisionTree>,
    n_classes: usize,
    n_features: usize,
}

/// Bagged forest of best-split trees.
pub type RandomForest = Forest<false>;

/// Extremely randomized trees: no bootstrap, random thresholds.
pub type ExtraTrees = Forest<true>;

impl<const EXTRA: bool> Forest<EXTRA> {
    fn new(ds: &Dataset, trees: Vec<DecisionTree>) -> Self {
        Forest {
            trees,
            n_classes: ds.n_classes(),
            n_features: ds.n_features(),
        }
    }

    /// Number of trees in the forest.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

impl RandomForest {
    /// Fit `params.n_trees` trees on bootstrap resamples of `ds`.
    ///
    /// `ds` is sorted once; each bootstrap's presort is derived from that
    /// one, with ties in (original row, position) order rather than
    /// position order, which unit weights make invisible (see
    /// [`crate::tree`]).
    pub fn fit(ds: &Dataset, params: ForestParams) -> Result<Self> {
        check_training(ds)?;
        params.validate()?;
        let n = ds.n_rows();
        let presort = Presort::new(ds, Splitter::Best);
        let unit = vec![1.0; n];
        let trees = (0..params.n_trees)
            .map(|t| {
                let seed = derive_seed(params.seed, t as u64);
                let mut rng = StdRng::seed_from_u64(seed);
                // Bootstrap sample; retry a few times if the resample lost
                // all but one class (possible on small or imbalanced data).
                for attempt in 0..8 {
                    let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                    let tree_seed = derive_seed(seed, attempt);
                    match DecisionTree::fit_weighted_presorted(
                        &ds.subset(&idx)?,
                        &presort.bootstrap(&idx),
                        params.tree_params(ds, Splitter::Best, tree_seed),
                        &unit,
                    ) {
                        Err(ModelError::SingleClass) => continue,
                        fitted => return fitted,
                    }
                }
                // Fall back to fitting on the full data if bootstrapping
                // kept collapsing to one class.
                let tree_params = params.tree_params(ds, Splitter::Best, seed);
                DecisionTree::fit_weighted_presorted(ds, &presort, tree_params, &unit)
            })
            .collect::<Result<_>>()?;
        Ok(Forest::new(ds, trees))
    }
}

impl ExtraTrees {
    /// Fit `params.n_trees` random-split trees on the full data, all
    /// reading one column copy of it.
    pub fn fit(ds: &Dataset, params: ForestParams) -> Result<Self> {
        check_training(ds)?;
        params.validate()?;
        let columns = Presort::new(ds, Splitter::Random);
        let unit = vec![1.0; ds.n_rows()];
        let trees = (0..params.n_trees)
            .map(|t| {
                let seed = derive_seed(params.seed ^ 0xE57A, t as u64);
                let tree_params = params.tree_params(ds, Splitter::Random, seed);
                DecisionTree::fit_weighted_presorted(ds, &columns, tree_params, &unit)
            })
            .collect::<Result<_>>()?;
        Ok(Forest::new(ds, trees))
    }
}

impl<const EXTRA: bool> Classifier for Forest<EXTRA> {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn predict_proba_into(&self, rows: &[f64], out: &mut [f64]) -> Result<()> {
        let n = self.trees.len() as f64;
        map_rows(rows, out, self.n_features, self.n_classes, |row, acc| {
            acc.fill(0.0);
            for tree in &self.trees {
                for (a, v) in acc.iter_mut().zip(tree.leaf_proba(row)) {
                    *a += v;
                }
            }
            for a in acc.iter_mut() {
                *a /= n;
            }
        })
    }

    fn name(&self) -> &'static str {
        if EXTRA {
            "extra_trees"
        } else {
            "random_forest"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use aml_dataset::synth;

    #[test]
    fn forest_beats_chance_on_moons() {
        let train = synth::two_moons(300, 0.2, 1).unwrap();
        let test = synth::two_moons(200, 0.2, 2).unwrap();
        let f = RandomForest::fit(
            &train,
            ForestParams {
                n_trees: 30,
                ..Default::default()
            },
        )
        .unwrap();
        let acc = accuracy(test.labels(), &f.predict(&test).unwrap()).unwrap();
        assert!(acc > 0.9, "forest accuracy {acc}");
    }

    #[test]
    fn extra_trees_beats_chance_on_moons() {
        let train = synth::two_moons(300, 0.2, 3).unwrap();
        let test = synth::two_moons(200, 0.2, 4).unwrap();
        let f = ExtraTrees::fit(
            &train,
            ForestParams {
                n_trees: 30,
                ..Default::default()
            },
        )
        .unwrap();
        let acc = accuracy(test.labels(), &f.predict(&test).unwrap()).unwrap();
        assert!(acc > 0.85, "extra-trees accuracy {acc}");
    }

    #[test]
    fn probabilities_average_to_distribution() {
        let ds = synth::gaussian_blobs(90, 2, 3, 1.0, 5).unwrap();
        let f = RandomForest::fit(
            &ds,
            ForestParams {
                n_trees: 7,
                ..Default::default()
            },
        )
        .unwrap();
        let p = f.predict_proba_row(ds.row(0)).unwrap();
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = synth::two_moons(100, 0.2, 9).unwrap();
        let a = RandomForest::fit(
            &ds,
            ForestParams {
                n_trees: 5,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let b = RandomForest::fit(
            &ds,
            ForestParams {
                n_trees: 5,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn seed_changes_model() {
        let ds = synth::two_moons(100, 0.2, 9).unwrap();
        let a = RandomForest::fit(
            &ds,
            ForestParams {
                n_trees: 5,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let c = RandomForest::fit(
            &ds,
            ForestParams {
                n_trees: 5,
                seed: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn zero_trees_rejected() {
        let ds = synth::two_moons(40, 0.1, 0).unwrap();
        assert!(RandomForest::fit(
            &ds,
            ForestParams {
                n_trees: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn trees_in_forest_differ() {
        // Bootstrap + feature subsampling should decorrelate trees: their
        // individual predictions on some point should not all be identical
        // probabilities.
        let ds = synth::two_moons(200, 0.3, 21).unwrap();
        let f = RandomForest::fit(
            &ds,
            ForestParams {
                n_trees: 10,
                max_depth: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let probes: Vec<Vec<f64>> = (0..10)
            .map(|i| f.trees[i].predict_proba_row(&[0.5, 0.25]).unwrap())
            .collect();
        let first = &probes[0];
        assert!(
            probes.iter().any(|p| (p[0] - first[0]).abs() > 1e-9),
            "all trees produced identical probabilities — no diversity"
        );
    }
}
