//! Bit-level pins for every tree learner in `aml-models`.
//!
//! Each test fits one learner on a fixed synthetic dataset and pins an
//! FNV-1a digest of `predict_proba` (`f64::to_bits`, little-endian) over
//! the training rows plus a fixed grid that extends past the data, together
//! with the model's structural counters. The run ledgers record trial
//! scores and ALE curves at full precision, so any change to split scoring,
//! thresholds, RNG draws or leaf values shows up here first.

use aml_dataset::{synth, Dataset};
use aml_models::adaboost::{AdaBoost, AdaBoostParams};
use aml_models::forest::{ExtraTrees, ForestParams, RandomForest};
use aml_models::gbdt::{GbdtParams, GradientBoosting};
use aml_models::tree::{Criterion, DecisionTree, Splitter, TreeParams};
use aml_models::Classifier;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn moons() -> Dataset {
    synth::two_moons(200, 0.25, 7).unwrap()
}

fn blobs() -> Dataset {
    synth::gaussian_blobs(180, 2, 3, 1.5, 5).unwrap()
}

/// Training rows followed by a 17×17 grid over each feature's range
/// widened by a quarter on both sides.
fn probe_rows(ds: &Dataset) -> Vec<Vec<f64>> {
    let mut rows: Vec<Vec<f64>> = (0..ds.n_rows()).map(|i| ds.row(i).to_vec()).collect();
    let (mut lo, mut hi) = (vec![f64::INFINITY; 2], vec![f64::NEG_INFINITY; 2]);
    for r in &rows {
        for j in 0..2 {
            lo[j] = lo[j].min(r[j]);
            hi[j] = hi[j].max(r[j]);
        }
    }
    let at = |j: usize, k: usize| {
        let pad = 0.25 * (hi[j] - lo[j]);
        (lo[j] - pad) + (hi[j] - lo[j] + 2.0 * pad) * k as f64 / 16.0
    };
    for a in 0..17 {
        for b in 0..17 {
            rows.push(vec![at(0, a), at(1, b)]);
        }
    }
    rows
}

fn digest(model: &dyn Classifier, ds: &Dataset) -> u64 {
    let mut h = FNV_OFFSET;
    for row in probe_rows(ds) {
        for p in model.predict_proba_row(&row).unwrap() {
            h = fnv1a(h, &p.to_bits().to_le_bytes());
        }
    }
    h
}

fn tree(ds: &Dataset, params: TreeParams) -> (u64, usize, usize) {
    let t = DecisionTree::fit(ds, params).unwrap();
    (digest(&t, ds), t.n_nodes(), t.depth())
}

fn tree_params(criterion: Criterion, splitter: Splitter) -> TreeParams {
    TreeParams {
        criterion,
        splitter,
        seed: 3,
        ..Default::default()
    }
}

#[test]
fn decision_tree_gini_best() {
    let p = tree_params(Criterion::Gini, Splitter::Best);
    assert_eq!(tree(&moons(), p.clone()), (15810709691913213080, 41, 8));
    assert_eq!(tree(&blobs(), p), (4126967636228378552, 45, 10));
}

#[test]
fn decision_tree_gini_random() {
    let p = tree_params(Criterion::Gini, Splitter::Random);
    assert_eq!(tree(&moons(), p.clone()), (8716159919592843284, 95, 12));
    assert_eq!(tree(&blobs(), p), (3257706309052260868, 81, 12));
}

#[test]
fn decision_tree_entropy_best() {
    let p = tree_params(Criterion::Entropy, Splitter::Best);
    assert_eq!(tree(&moons(), p.clone()), (4989844906785639384, 43, 9));
    assert_eq!(tree(&blobs(), p), (6475940297797768856, 39, 9));
}

#[test]
fn decision_tree_entropy_random() {
    let p = tree_params(Criterion::Entropy, Splitter::Random);
    assert_eq!(tree(&moons(), p.clone()), (12386368846590026445, 95, 12));
    assert_eq!(tree(&blobs(), p), (3257706309052260868, 81, 12));
}

#[test]
fn decision_tree_subsampled_features_and_leaf_floor() {
    // `max_features < n_features` is the only path that shuffles features.
    let p = TreeParams {
        max_depth: 7,
        min_samples_split: 4,
        min_samples_leaf: 3,
        max_features: Some(1),
        seed: 11,
        ..Default::default()
    };
    assert_eq!(tree(&moons(), p.clone()), (15171877721927377013, 49, 7));
    assert_eq!(
        tree(
            &blobs(),
            TreeParams {
                splitter: Splitter::Random,
                ..p
            }
        ),
        (8083947821032136272, 33, 7)
    );
}

#[test]
fn decision_tree_weighted() {
    // Uneven weights with some zeros: zero-weight rows are routed but
    // do not count toward split scores or leaf distributions.
    let weighted = |ds: &Dataset| {
        let w: Vec<f64> = (0..ds.n_rows())
            .map(|i| {
                if i % 7 == 0 {
                    0.0
                } else {
                    1.0 + 0.5 * (i % 5) as f64
                }
            })
            .collect();
        let t = DecisionTree::fit_weighted(ds, TreeParams::default(), &w).unwrap();
        (digest(&t, ds), t.n_nodes(), t.depth())
    };
    assert_eq!(weighted(&moons()), (11085373668705473176, 45, 10));
    assert_eq!(weighted(&blobs()), (8482724845839340056, 33, 8));
}

fn forest_params() -> ForestParams {
    ForestParams {
        n_trees: 12,
        max_depth: 8,
        seed: 5,
        ..Default::default()
    }
}

#[test]
fn random_forest() {
    let fit = |ds: &Dataset| {
        let f = RandomForest::fit(ds, forest_params()).unwrap();
        (digest(&f, ds), f.n_trees())
    };
    assert_eq!(fit(&moons()), (5689849294039186398, 12));
    assert_eq!(fit(&blobs()), (16509436188364316225, 12));
}

#[test]
fn extra_trees() {
    let fit = |ds: &Dataset| {
        let f = ExtraTrees::fit(
            ds,
            ForestParams {
                criterion: Criterion::Entropy,
                ..forest_params()
            },
        )
        .unwrap();
        (digest(&f, ds), f.n_trees())
    };
    assert_eq!(fit(&moons()), (12238361605931456847, 12));
    assert_eq!(fit(&blobs()), (14779838319715304197, 12));
}

#[test]
fn gradient_boosting_two_and_three_class() {
    let fit = |ds: &Dataset| {
        let m = GradientBoosting::fit(
            ds,
            GbdtParams {
                n_rounds: 15,
                min_samples_leaf: 3,
                ..Default::default()
            },
        )
        .unwrap();
        (digest(&m, ds), m.n_rounds())
    };
    assert_eq!(fit(&moons()), (6865365256457030080, 15));
    assert_eq!(fit(&blobs()), (10882737239452843862, 15));
}

#[test]
fn adaboost() {
    let fit = |ds: &Dataset| {
        let m = AdaBoost::fit(
            ds,
            AdaBoostParams {
                n_rounds: 20,
                ..Default::default()
            },
        )
        .unwrap();
        (digest(&m, ds), m.n_learners())
    };
    assert_eq!(fit(&moons()), (15089515072345507311, 20));
    assert_eq!(fit(&blobs()), (8588799682845419323, 20));
}

/// One feature whose values (multiples of 0.1) are not exactly
/// representable, with labels in runs so that trees split between them.
fn line() -> Dataset {
    let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![0.1 * (i % 30) as f64]).collect();
    let labels: Vec<usize> = (0..60).map(|i| ((i % 30) / 4 + i / 45) % 3).collect();
    Dataset::from_rows(&rows, &labels, 3).unwrap()
}

/// Digest over each midpoint between consecutive distinct training values
/// and the floats just below and above it: a threshold moved by one ulp
/// flips at least one of these probes.
fn threshold_digest(model: &dyn Classifier, ds: &Dataset) -> u64 {
    let mut xs: Vec<f64> = (0..ds.n_rows()).map(|i| ds.row(i)[0]).collect();
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs.dedup();
    let mut h = FNV_OFFSET;
    for w in xs.windows(2) {
        let mid = 0.5 * (w[0] + w[1]);
        for x in [
            f64::from_bits(mid.to_bits() - 1),
            mid,
            f64::from_bits(mid.to_bits() + 1),
        ] {
            for p in model.predict_proba_row(&[x]).unwrap() {
                h = fnv1a(h, &p.to_bits().to_le_bytes());
            }
        }
    }
    h
}

#[test]
fn thresholds_are_exact_midpoints() {
    let ds = line();
    let dt = DecisionTree::fit(&ds, TreeParams::default()).unwrap();
    assert_eq!(
        (threshold_digest(&dt, &ds), dt.n_nodes()),
        (6966076894832868901, 17)
    );
    let gb = GradientBoosting::fit(
        &ds,
        GbdtParams {
            n_rounds: 4,
            min_samples_leaf: 2,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(threshold_digest(&gb, &ds), 8036518679231774550);
}

#[test]
fn weighted_edge_cases_of_the_stop_rule_and_gain_floor() {
    let two_points = |w: [f64; 4]| {
        let ds = Dataset::from_rows(
            &[vec![0.0], vec![0.0], vec![1.0], vec![1.0]],
            &[0, 1, 0, 1],
            2,
        )
        .unwrap();
        DecisionTree::fit_weighted(&ds, TreeParams::default(), &w)
            .unwrap()
            .n_nodes()
    };
    // Splitting gains about 5e-13, under the 1e-12 floor: no split.
    assert_eq!(two_points([1.0, 1.0, 1.0 + 2e-6, 1.0]), 1);
    // Impurity about 2e-11, just above the 1e-12 stop: the split is taken.
    assert_eq!(two_points([1.0, 0.0, 0.0, 1e-11]), 3);
    // Zero total weight stops at the root.
    let ds = synth::two_moons(40, 0.2, 1).unwrap();
    let zero = DecisionTree::fit_weighted(&ds, TreeParams::default(), &[0.0; 40]).unwrap();
    assert_eq!(zero.n_nodes(), 1);
}

#[test]
fn midpoint_rounding_onto_the_upper_value_makes_a_leaf() {
    // Between adjacent doubles 1+u and 1+2u the midpoint rounds up to 1+2u,
    // so partitioning by `<= threshold` sends both rows left. The
    // post-partition `min_samples_leaf` check turns the node into a leaf.
    let a = f64::from_bits(1.0f64.to_bits() + 1);
    let b = f64::from_bits(a.to_bits() + 1);
    assert_eq!(0.5 * (a + b), b);
    let ds = Dataset::from_rows(&[vec![a], vec![b]], &[0, 1], 2).unwrap();
    let t = DecisionTree::fit(&ds, TreeParams::default()).unwrap();
    assert_eq!(
        (t.n_nodes(), t.predict_proba_row(&[b]).unwrap()),
        (1, vec![0.5, 0.5])
    );
}

/// A firewall sample: twelve integer-valued, tie-heavy features (ports,
/// byte and packet counts) and four imbalanced classes. Sweeping ties in a
/// different row order changes float sums here, where moons and blobs,
/// whose values are all distinct, cannot show it.
fn firewall(n: usize, seed: u64) -> Dataset {
    aml_fwgen::generate(&aml_fwgen::FwGenConfig {
        n,
        seed,
        priors: None,
    })
    .unwrap()
}

/// Digest of `predict_proba` over the training rows, then over a second,
/// held-out firewall sample whose values fall anywhere between the splits.
fn firewall_digest(model: &dyn Classifier, ds: &Dataset) -> u64 {
    let held_out = firewall(300, 99);
    let mut h = FNV_OFFSET;
    for data in [ds, &held_out] {
        for i in 0..data.n_rows() {
            for p in model.predict_proba_row(data.row(i)).unwrap() {
                h = fnv1a(h, &p.to_bits().to_le_bytes());
            }
        }
    }
    h
}

fn firewall_tree(params: TreeParams, weights: Option<&[f64]>) -> (u64, usize, usize) {
    let ds = firewall(1200, 4);
    let t = match weights {
        Some(w) => DecisionTree::fit_weighted(&ds, params, w).unwrap(),
        None => DecisionTree::fit(&ds, params).unwrap(),
    };
    (firewall_digest(&t, &ds), t.n_nodes(), t.depth())
}

#[test]
fn firewall_decision_tree_gini_and_entropy_best() {
    assert_eq!(
        firewall_tree(tree_params(Criterion::Gini, Splitter::Best), None),
        (17862475069292912418, 207, 12)
    );
    assert_eq!(
        firewall_tree(tree_params(Criterion::Entropy, Splitter::Best), None),
        (7645516800236150812, 163, 12)
    );
}

#[test]
fn firewall_decision_tree_non_dyadic_weights() {
    // Weights like 1/3 and 1/7 are inexact, so class sums depend on the
    // order in which tied rows are added; some zeros ride along.
    let w: Vec<f64> = (0..1200)
        .map(|i| {
            if i % 11 == 0 {
                0.0
            } else {
                1.0 / (1 + i % 7) as f64
            }
        })
        .collect();
    assert_eq!(
        firewall_tree(TreeParams::default(), Some(&w)),
        (13515854194198046927, 209, 12)
    );
}

#[test]
fn firewall_random_forest() {
    let ds = firewall(1200, 4);
    let f = RandomForest::fit(&ds, forest_params()).unwrap();
    assert_eq!(
        (firewall_digest(&f, &ds), f.n_trees()),
        (3989443014870644987, 12)
    );
}

#[test]
fn firewall_gradient_boosting_four_class() {
    let ds = firewall(1200, 4);
    assert_eq!(ds.n_classes(), 4);
    let m = GradientBoosting::fit(
        &ds,
        GbdtParams {
            n_rounds: 8,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(
        (firewall_digest(&m, &ds), m.n_rounds()),
        (2703146791258942385, 8)
    );
}

#[test]
fn firewall_adaboost() {
    let ds = firewall(1200, 4);
    let m = AdaBoost::fit(
        &ds,
        AdaBoostParams {
            n_rounds: 12,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(
        (firewall_digest(&m, &ds), m.n_learners()),
        (9200085717884291861, 12)
    );
}

/// As many rows as one inner-train split of the firewall workload. Each
/// feature takes only 78–961 distinct values here, so a bootstrap copies
/// many tied rows and every sweep crosses long runs of equal values.
fn firewall_961() -> Dataset {
    firewall(961, 7)
}

#[test]
fn firewall_random_forest_criteria_and_leaf_floors() {
    let ds = firewall_961();
    let fit = |criterion: Criterion, min_samples_leaf: usize| {
        let f = RandomForest::fit(
            &ds,
            ForestParams {
                criterion,
                min_samples_leaf,
                ..forest_params()
            },
        )
        .unwrap();
        firewall_digest(&f, &ds)
    };
    assert_eq!(fit(Criterion::Gini, 1), 16984868105723967155);
    assert_eq!(fit(Criterion::Gini, 4), 432180364368095659);
    assert_eq!(fit(Criterion::Entropy, 1), 4236651156719732030);
    assert_eq!(fit(Criterion::Entropy, 4), 6432229525999607328);
}

#[test]
fn firewall_extra_trees() {
    let ds = firewall_961();
    let f = ExtraTrees::fit(&ds, forest_params()).unwrap();
    assert_eq!(firewall_digest(&f, &ds), 8997233453886143759);
}

#[test]
fn firewall_boosting_on_961_rows() {
    let ds = firewall_961();
    let gb = GradientBoosting::fit(
        &ds,
        GbdtParams {
            n_rounds: 6,
            min_samples_leaf: 4,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(firewall_digest(&gb, &ds), 5821131528869495792);
    let ada = AdaBoost::fit(
        &ds,
        AdaBoostParams {
            n_rounds: 10,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(firewall_digest(&ada, &ds), 10137698888856306842);
}
