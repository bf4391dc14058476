//! `AleFeedback::analyze` returns the same bits at any worker count.
//!
//! The committee's AutoML runs are fit at parallelism 1, 2 and 3; the
//! analysis of each committee (Within and Cross, ALE and PDP) must match
//! the single-worker one bit for bit: every band's grid, mean and std, the
//! realized threshold, and every flagged interval. A digest of the
//! single-worker analysis is pinned as well, so a change that moves the
//! numbers at every worker count alike still fails.

use aml_automl::{AutoMl, AutoMlConfig, FittedAutoMl, ModelFamily};
use aml_core::{AleAnalysis, AleFeedback, AleMode, InterpretationMethod, ThresholdRule};
use aml_dataset::{synth, Dataset};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn data() -> Dataset {
    synth::gaussian_blobs(120, 4, 3, 2.0, 17).unwrap()
}

/// Three AutoML runs (seeds 1–3) fit with `parallelism` workers, over
/// the families that fit fast enough for a debug build.
fn committee(ds: &Dataset, parallelism: usize) -> Vec<FittedAutoMl> {
    (1..=3)
        .map(|seed| {
            AutoMl::new(AutoMlConfig {
                n_candidates: 8,
                ensemble_rounds: 6,
                families: vec![
                    ModelFamily::DecisionTree,
                    ModelFamily::ExtraTrees,
                    ModelFamily::Knn,
                    ModelFamily::NaiveBayes,
                    ModelFamily::LogisticRegression,
                ],
                seed,
                parallelism,
                ..Default::default()
            })
            .fit(ds)
            .unwrap()
        })
        .collect()
}

/// Every number of the analysis as raw bits, in a fixed order.
fn bits(a: &AleAnalysis) -> Vec<u64> {
    let mut out = vec![a.threshold.to_bits()];
    for band in &a.bands {
        out.extend([band.feature as u64, band.n_models as u64]);
        for v in [&band.grid, &band.mean, &band.std] {
            out.push(v.len() as u64);
            out.extend(v.iter().map(|x| x.to_bits()));
        }
    }
    for region in &a.regions {
        out.extend([
            region.feature as u64,
            region.threshold.to_bits(),
            region.intervals.len() as u64,
        ]);
        for iv in &region.intervals {
            out.extend([iv.lo.to_bits(), iv.hi.to_bits()]);
        }
    }
    out
}

fn digest(bits: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for b in bits.iter().flat_map(|v| v.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[test]
fn analysis_is_bit_identical_at_one_two_and_three_workers() {
    let ds = data();
    let committees: Vec<Vec<FittedAutoMl>> =
        [1, 2, 3].into_iter().map(|p| committee(&ds, p)).collect();
    let cases = [
        (AleMode::Within, InterpretationMethod::Ale),
        (AleMode::Within, InterpretationMethod::Pdp),
        (AleMode::Cross, InterpretationMethod::Ale),
        (AleMode::Cross, InterpretationMethod::Pdp),
    ];
    let mut digests = Vec::new();
    for (mode, method) in cases {
        let fb = AleFeedback {
            mode,
            method,
            threshold: ThresholdRule::PerFeatureQuantile(0.75),
            n_intervals: 8,
            ..Default::default()
        };
        let runs = |c: &[FittedAutoMl]| -> Vec<u64> {
            let runs = match mode {
                AleMode::Within => &c[..1],
                AleMode::Cross => c,
            };
            bits(&fb.analyze(runs, &ds).unwrap())
        };
        let reference = runs(&committees[0]);
        for (p, c) in committees.iter().enumerate().skip(1) {
            assert!(
                runs(c) == reference,
                "{mode:?}/{method:?} differs at parallelism {}",
                p + 1
            );
        }
        digests.push(digest(&reference));
    }
    assert_eq!(
        digests,
        vec![
            718897495446432501,
            12166072231202885900,
            13966135746894341891,
            6882081574902611106
        ]
    );
}
