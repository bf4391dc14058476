//! Per-round quality probes: dataset profiles and model diagnostics.
//!
//! Builders for the quality plane's two ledger events. The experiment
//! loop calls these once per feedback round — only while the ledger is
//! armed — to summarize what the model just trained on (per-feature
//! histograms over the *declared* domains, so profiles share bin edges
//! across rounds and runs and are PSI-comparable) and how the refit
//! ensemble behaves on the eval sets (confusion matrix, Brier score,
//! reliability-bin tallies). The events carry raw counts and sums only;
//! every derived metric is computed on the read side
//! ([`aml_telemetry::quality`]), which keeps a `quality.json` and an
//! `amlinspect quality` recompute from the ledger byte-identical.

use crate::Result;
use aml_dataset::{Dataset, FeatureDomain};
use aml_telemetry::ledger::LedgerEvent;
use aml_telemetry::quality::{profile_feature, RELIABILITY_BINS};

/// Build one `dataset_profile` event over the union of `sets` (all must
/// share the schema of the first; the experiment passes either the
/// augmented train set or the eval test sets). Returns `None` for an
/// empty set list.
pub fn dataset_profile_event(
    round: u64,
    split: &str,
    sets: &[&Dataset],
) -> Result<Option<LedgerEvent>> {
    let Some(first) = sets.first() else {
        return Ok(None);
    };
    let mut rows = 0u64;
    let mut class_counts = vec![0u64; first.n_classes()];
    for ds in sets {
        rows += ds.n_rows() as u64;
        for (k, c) in ds.class_counts().iter().enumerate() {
            if let Some(slot) = class_counts.get_mut(k) {
                *slot += *c as u64;
            }
        }
    }
    let mut features = Vec::with_capacity(first.n_features());
    for (j, meta) in first.features().iter().enumerate() {
        let mut values: Vec<f64> = Vec::with_capacity(rows as usize);
        for ds in sets {
            values.extend(ds.column(j)?);
        }
        let domain = first.domain(j)?;
        // Small integer domains get one bin per category (per-category
        // counts); everything else uses the default resolution.
        let max_bins = match domain {
            FeatureDomain::Integer { lo, hi } => {
                usize::try_from((hi - lo).saturating_add(1)).unwrap_or(usize::MAX)
            }
            FeatureDomain::Continuous { .. } => usize::MAX,
        };
        features.push(profile_feature(
            &meta.name,
            domain.lo(),
            domain.hi(),
            max_bins,
            &values,
        ));
    }
    Ok(Some(LedgerEvent::DatasetProfile {
        round,
        split: split.to_string(),
        rows,
        class_counts,
        features,
    }))
}

/// Build one `model_diagnostics` event from the model's predictions over
/// every row of `test_sets`: confusion matrix, Brier score, and
/// reliability-bin tallies (confidence = the predicted class's
/// probability, argmax ties to the lower index — matching
/// [`aml_models::Classifier::predict`]). `probas` holds one flat
/// [`aml_models::Classifier::predict_proba_into`] buffer per test set,
/// `model_classes` values per row. Returns `None` when the eval sets are
/// empty. `ale_band_width` is the round's mean ALE ±σ band width (2σ),
/// 0 without ALE feedback.
pub fn model_diagnostics_event(
    round: u64,
    strategy: &str,
    test_sets: &[Dataset],
    probas: &[Vec<f64>],
    model_classes: usize,
    ale_band_width: f64,
) -> Option<LedgerEvent> {
    let first = test_sets.first()?;
    let n_classes = first.n_classes();
    let mut confusion = vec![vec![0u64; n_classes]; n_classes];
    let mut bin_count = vec![0u64; RELIABILITY_BINS];
    let mut bin_conf_sum = vec![0.0f64; RELIABILITY_BINS];
    let mut bin_hit = vec![0u64; RELIABILITY_BINS];
    let mut brier_sum = 0.0;
    let mut rows = 0u64;
    for (ts, proba) in test_sets.iter().zip(probas) {
        for (i, probs) in proba.chunks_exact(model_classes).enumerate() {
            let label = ts.label(i);
            let mut pred = 0usize;
            let mut conf = f64::NEG_INFINITY;
            let mut sq = 0.0;
            for (k, &p) in probs.iter().enumerate() {
                if p > conf {
                    conf = p;
                    pred = k;
                }
                let target = if k == label { 1.0 } else { 0.0 };
                sq += (p - target) * (p - target);
            }
            if !conf.is_finite() {
                continue;
            }
            if label < n_classes && pred < n_classes {
                confusion[label][pred] += 1;
            }
            let bin = ((conf * RELIABILITY_BINS as f64) as usize).min(RELIABILITY_BINS - 1);
            bin_count[bin] += 1;
            bin_conf_sum[bin] += conf;
            if pred == label {
                bin_hit[bin] += 1;
            }
            brier_sum += sq;
            rows += 1;
        }
    }
    Some(LedgerEvent::ModelDiagnostics {
        round,
        strategy: strategy.to_string(),
        rows,
        classes: first.class_names().to_vec(),
        confusion,
        brier: if rows > 0 {
            brier_sum / rows as f64
        } else {
            0.0
        },
        bin_count,
        bin_conf_sum,
        bin_hit,
        ale_band_width,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aml_dataset::FeatureMeta;

    fn two_class_set(rows: &[(f64, usize)]) -> Dataset {
        let mut ds = Dataset::new(
            vec![FeatureMeta {
                name: "x".into(),
                domain: FeatureDomain::continuous(0.0, 1.0),
            }],
            vec!["a".into(), "b".into()],
        )
        .unwrap();
        for (x, y) in rows {
            ds.push_row(&[*x], *y).unwrap();
        }
        ds
    }

    #[test]
    fn profile_event_unions_sets_and_counts_classes() {
        let a = two_class_set(&[(0.1, 0), (0.9, 1)]);
        let b = two_class_set(&[(0.2, 0), (0.3, 0)]);
        let event = dataset_profile_event(3, "eval", &[&a, &b])
            .unwrap()
            .unwrap();
        match event {
            LedgerEvent::DatasetProfile {
                round,
                split,
                rows,
                class_counts,
                features,
            } => {
                assert_eq!(round, 3);
                assert_eq!(split, "eval");
                assert_eq!(rows, 4);
                assert_eq!(class_counts, vec![3, 1]);
                assert_eq!(features.len(), 1);
                assert_eq!(features[0].count, 4);
                assert_eq!(features[0].bins.iter().sum::<u64>(), 4);
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert!(dataset_profile_event(0, "train", &[]).unwrap().is_none());
    }

    #[test]
    fn small_integer_domains_profile_per_category() {
        let mut ds = Dataset::new(
            vec![FeatureMeta {
                name: "proto".into(),
                domain: FeatureDomain::integer(0, 2),
            }],
            vec!["a".into(), "b".into()],
        )
        .unwrap();
        for (v, y) in [(0.0, 0), (1.0, 1), (1.0, 0), (2.0, 1)] {
            ds.push_row(&[v], y).unwrap();
        }
        let event = dataset_profile_event(0, "train", &[&ds]).unwrap().unwrap();
        let LedgerEvent::DatasetProfile { features, .. } = event else {
            panic!("wrong event");
        };
        assert_eq!(features[0].bins, vec![1, 2, 1], "one bin per category");
    }

    #[test]
    fn diagnostics_tally_confusion_brier_and_reliability() {
        let ds = two_class_set(&[(0.1, 0), (0.2, 0), (0.3, 1)]);
        // Every row predicted as class 0 with confidence 0.8.
        let probas = vec![[0.8, 0.2].repeat(ds.n_rows())];
        let event = model_diagnostics_event(2, "Random", &[ds], &probas, 2, 0.5).unwrap();
        let LedgerEvent::ModelDiagnostics {
            round,
            strategy,
            rows,
            classes,
            confusion,
            brier,
            bin_count,
            bin_conf_sum,
            bin_hit,
            ale_band_width,
        } = event
        else {
            panic!("wrong event");
        };
        assert_eq!((round, rows), (2, 3));
        assert_eq!(strategy, "Random");
        assert_eq!(classes, vec!["a".to_string(), "b".to_string()]);
        // Everything predicted as class 0.
        assert_eq!(confusion, vec![vec![2, 0], vec![1, 0]]);
        // Confidence 0.8 lands in bin 8 of 10.
        assert_eq!(bin_count[8], 3);
        assert!((bin_conf_sum[8] - 2.4).abs() < 1e-12);
        assert_eq!(bin_hit[8], 2);
        // Brier per row: correct = 2*(0.2)^2 = 0.08, wrong = 0.64+0.64.
        let expected = (0.08 + 0.08 + 1.28) / 3.0;
        assert!((brier - expected).abs() < 1e-12, "{brier}");
        assert_eq!(ale_band_width, 0.5);
        assert!(model_diagnostics_event(0, "x", &[], &[], 2, 0.0).is_none());
    }
}
