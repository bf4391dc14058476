//! Bit-level pins for the non-tree classifiers, the scaler pipelines and
//! the soft-voting ensemble in `aml-models`.
//!
//! Each test fits one model on a 1.2k-row `aml_fwgen` firewall sample and
//! pins an FNV-1a digest of `predict_proba_row` (`f64::to_bits`,
//! little-endian) over the training rows, then over a held-out firewall
//! sample. The firewall features are integer-valued ports and counts, so
//! kNN often meets equal distances at the k-th neighbour: a change to the
//! distance sum or to the selection order moves these digests. Tree
//! families are pinned in `tree_learners_pinned.rs`.
//!
//! Every digest also checks that one `predict_proba_into` call over all
//! the rows returns the per-row bits; the tree families get that check
//! here too, and every family is checked to refuse a batch of the wrong
//! shape.

use aml_dataset::Dataset;
use aml_models::adaboost::AdaBoostParams;
use aml_models::forest::ForestParams;
use aml_models::gbdt::GbdtParams;
use aml_models::knn::{KnnParams, KnnWeights};
use aml_models::linear_svm::SvmParams;
use aml_models::logistic::LogRegParams;
use aml_models::naive_bayes::NbParams;
use aml_models::preprocess::{ScalerKind, Standardizer, Transformer};
use aml_models::tree::TreeParams;
use aml_models::{
    AdaBoost, Classifier, DecisionTree, ExtraTrees, GaussianNaiveBayes, GradientBoosting,
    KNearestNeighbors, LinearSvm, LogisticRegression, ModelError, Pipeline, RandomForest,
    SoftVotingEnsemble,
};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn firewall(n: usize, seed: u64) -> Dataset {
    aml_fwgen::generate(&aml_fwgen::FwGenConfig {
        n,
        seed,
        priors: None,
    })
    .unwrap()
}

/// The training sample and the held-out probe sample.
fn data() -> (Dataset, Dataset) {
    (firewall(1200, 4), firewall(300, 99))
}

/// Both samples standardized with the training sample's scaler.
fn standardized() -> (Dataset, Dataset) {
    let (train, held_out) = data();
    let scaler = Standardizer::fit(&train).unwrap();
    (
        scaler.transform(&train).unwrap(),
        scaler.transform(&held_out).unwrap(),
    )
}

/// `predict_proba_row` over every row of `data`, after checking that one
/// `predict_proba_into` call over all of them returns the same bits.
fn per_row_bits(model: &dyn Classifier, data: &Dataset) -> Vec<u64> {
    let per_row: Vec<u64> = (0..data.n_rows())
        .flat_map(|i| model.predict_proba_row(data.row(i)).unwrap())
        .map(f64::to_bits)
        .collect();
    let mut batch = vec![f64::NAN; data.n_rows() * model.n_classes()];
    model.predict_proba_into(data.values(), &mut batch).unwrap();
    assert!(
        batch
            .iter()
            .map(|p| p.to_bits())
            .eq(per_row.iter().copied()),
        "{}: batch and per-row predictions differ",
        model.name()
    );
    per_row
}

/// Digest of `predict_proba_row` over every row of `train`, then of
/// `held_out`.
fn digest(model: &dyn Classifier, train: &Dataset, held_out: &Dataset) -> u64 {
    let mut h = FNV_OFFSET;
    for data in [train, held_out] {
        for p in per_row_bits(model, data) {
            h = fnv1a(h, &p.to_le_bytes());
        }
    }
    h
}

fn knn(ds: &Dataset, k: usize, weights: KnnWeights) -> KNearestNeighbors {
    KNearestNeighbors::fit(ds, KnnParams { k, weights }).unwrap()
}

#[test]
fn logistic_regression() {
    let (train, held_out) = standardized();
    let m = LogisticRegression::fit(&train, LogRegParams::default()).unwrap();
    assert_eq!(digest(&m, &train, &held_out), 6217939393606783462);
}

#[test]
fn linear_svm() {
    let (train, held_out) = standardized();
    let m = LinearSvm::fit(
        &train,
        SvmParams {
            seed: 3,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(digest(&m, &train, &held_out), 4678939567050700829);
}

#[test]
fn gaussian_naive_bayes() {
    let (train, held_out) = data();
    let m = GaussianNaiveBayes::fit(&train, NbParams::default()).unwrap();
    assert_eq!(digest(&m, &train, &held_out), 71522284012316147);
}

#[test]
fn knn_uniform_and_distance_below_n() {
    // Raw features: squared distances are exact integers, so ties at the
    // k-th neighbour are frequent.
    let (train, held_out) = data();
    assert_eq!(
        digest(&knn(&train, 7, KnnWeights::Uniform), &train, &held_out),
        5457703701481515110
    );
    assert_eq!(
        digest(&knn(&train, 7, KnnWeights::Distance), &train, &held_out),
        5224417481082008619
    );
}

#[test]
fn knn_uniform_and_distance_above_n() {
    let (train, held_out) = data();
    let m = knn(&train, 5000, KnnWeights::Uniform);
    assert_eq!(m.effective_k(), 1200);
    assert_eq!(digest(&m, &train, &held_out), 3240319413333535525);
    assert_eq!(
        digest(&knn(&train, 5000, KnnWeights::Distance), &train, &held_out),
        13173099462844086027
    );
}

#[test]
fn knn_on_standardized_rows() {
    let (train, held_out) = standardized();
    assert_eq!(
        digest(&knn(&train, 5, KnnWeights::Distance), &train, &held_out),
        5922197007377054117
    );
}

fn pipeline(ds: &Dataset, kind: ScalerKind) -> Pipeline {
    Pipeline::fit_with(ds, kind, |d| {
        Ok(match kind {
            ScalerKind::None => Arc::new(GaussianNaiveBayes::fit(d, NbParams::default())?),
            ScalerKind::Standard => Arc::new(LogisticRegression::fit(d, LogRegParams::default())?),
        })
    })
    .unwrap()
}

#[test]
fn pipeline_per_scaler_kind() {
    let (train, held_out) = data();
    let got: Vec<u64> = [ScalerKind::None, ScalerKind::Standard]
        .into_iter()
        .map(|kind| digest(&pipeline(&train, kind), &train, &held_out))
        .collect();
    assert_eq!(got, vec![71522284012316147, 6217939393606783462]);
}

fn ensemble(ds: &Dataset) -> SoftVotingEnsemble {
    let members: Vec<Arc<dyn Classifier>> = vec![
        Arc::new(pipeline(ds, ScalerKind::Standard)),
        Arc::new(knn(ds, 9, KnnWeights::Uniform)),
        Arc::new(pipeline(ds, ScalerKind::None)),
        Arc::new(DecisionTree::fit(ds, TreeParams::default()).unwrap()),
    ];
    // The zero-weight member is skipped, so it must not move the output.
    SoftVotingEnsemble::new(members, vec![3.0, 0.0, 1.0, 2.0]).unwrap()
}

#[test]
fn soft_voting_ensemble_with_a_zero_weight_member() {
    let (train, held_out) = data();
    assert_eq!(
        digest(&ensemble(&train), &train, &held_out),
        15926138154816130094
    );
}

fn tree_families(ds: &Dataset) -> Vec<Box<dyn Classifier>> {
    let forest = ForestParams {
        n_trees: 8,
        max_depth: 8,
        seed: 5,
        ..Default::default()
    };
    vec![
        Box::new(DecisionTree::fit(ds, TreeParams::default()).unwrap()),
        Box::new(RandomForest::fit(ds, forest.clone()).unwrap()),
        Box::new(ExtraTrees::fit(ds, forest).unwrap()),
        Box::new(
            GradientBoosting::fit(
                ds,
                GbdtParams {
                    n_rounds: 6,
                    ..Default::default()
                },
            )
            .unwrap(),
        ),
        Box::new(
            AdaBoost::fit(
                ds,
                AdaBoostParams {
                    n_rounds: 10,
                    ..Default::default()
                },
            )
            .unwrap(),
        ),
    ]
}

#[test]
fn tree_family_batches_match_per_row_predictions() {
    let (train, held_out) = data();
    for model in tree_families(&train) {
        per_row_bits(model.as_ref(), &train);
        per_row_bits(model.as_ref(), &held_out);
    }
}

#[test]
fn batches_of_the_wrong_shape_are_refused() {
    let (train, held_out) = data();
    let mut models = tree_families(&train);
    models.push(Box::new(
        LogisticRegression::fit(&standardized().0, LogRegParams::default()).unwrap(),
    ));
    models.push(Box::new(
        GaussianNaiveBayes::fit(&train, NbParams::default()).unwrap(),
    ));
    models.push(Box::new(knn(&train, 5, KnnWeights::Uniform)));
    for kind in [ScalerKind::None, ScalerKind::Standard] {
        models.push(Box::new(pipeline(&train, kind)));
    }
    models.push(Box::new(ensemble(&train)));
    let rows = &held_out.values()[..3 * held_out.n_features()];
    for model in &models {
        let k = model.n_classes();
        let refused = |rows: &[f64], out_len: usize| {
            let mut out = vec![0.0; out_len];
            matches!(
                model.predict_proba_into(rows, &mut out),
                Err(ModelError::DimensionMismatch { .. })
            )
        };
        let name = model.name();
        assert!(refused(&rows[1..], 3 * k), "{name}: short rows");
        assert!(refused(rows, 2 * k), "{name}: too few outputs");
        assert!(refused(rows, 4 * k), "{name}: too many outputs");
        assert!(refused(rows, 3 * k - 1), "{name}: partial output row");
        assert!(refused(&rows[..1], 0), "{name}: rows without outputs");
        assert!(!refused(rows, 3 * k), "{name}: well-shaped batch");
        assert!(!refused(&[], 0), "{name}: empty batch");
    }
}
