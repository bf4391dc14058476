//! The evaluate → feedback → augment → retrain → re-evaluate loop behind
//! Table 1 and §4.2.
//!
//! Every strategy follows the same protocol so the comparison is paired:
//!
//! 1. fit AutoML on the initial training data (once, or `n_cross_runs`
//!    times for Cross-ALE);
//! 2. produce a suggestion (regions / pool indices / synthetic rows);
//! 3. materialize new labelled rows — via the [`Labeler`] oracle for
//!    free-sampling strategies, by revealing pool labels for pool-based
//!    ones;
//! 4. refit AutoML on the augmented data (same refit seed for every
//!    strategy);
//! 5. score balanced accuracy on each of the (typically 20) test sets.

use crate::ale_feedback::{AleFeedback, AleMode};
use crate::confidence::confidence_select;
use crate::feedback::{Feedback, Labeler, Suggestion};
use crate::qbc::qbc_select;
use crate::uniform::uniform_sample;
use crate::upsampling::random_oversample;
use crate::{CoreError, Result};
use aml_automl::{AutoMl, AutoMlConfig, FittedAutoMl};
use aml_dataset::Dataset;
use aml_models::metrics::balanced_accuracy;
use aml_models::model::argmax;
use aml_models::Classifier;

/// The nine Table-1 strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Strategy {
    /// Train on the raw data only.
    NoFeedback,
    /// ALE-variance regions from one AutoML ensemble; free sampling.
    WithinAle,
    /// ALE-variance regions across independent AutoML runs; free sampling.
    CrossAle,
    /// Within-ALE restricted to the candidate pool.
    WithinAlePool,
    /// Cross-ALE restricted to the candidate pool.
    CrossAlePool,
    /// Uniform random sampling from the feature domains.
    Uniform,
    /// Least-confidence active learning from the pool.
    Confidence,
    /// Query-by-committee (vote entropy) from the pool.
    Qbc,
    /// Random oversampling to balance labels.
    Upsampling,
}

impl Strategy {
    /// All strategies in Table-1 order.
    pub const ALL: [Strategy; 9] = [
        Strategy::NoFeedback,
        Strategy::WithinAle,
        Strategy::CrossAle,
        Strategy::Uniform,
        Strategy::Confidence,
        Strategy::Upsampling,
        Strategy::Qbc,
        Strategy::WithinAlePool,
        Strategy::CrossAlePool,
    ];

    /// Display name matching the paper's Table 1 rows.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::NoFeedback => "Without feedback",
            Strategy::WithinAle => "Within-ALE",
            Strategy::CrossAle => "Cross-ALE",
            Strategy::WithinAlePool => "Within-ALE-Pool",
            Strategy::CrossAlePool => "Cross-ALE-Pool",
            Strategy::Uniform => "Uniform",
            Strategy::Confidence => "Confidence based",
            Strategy::Qbc => "QBC",
            Strategy::Upsampling => "Upsampling",
        }
    }

    /// Whether the strategy draws on an unlabeled candidate pool.
    pub fn needs_pool(&self) -> bool {
        matches!(
            self,
            Strategy::WithinAlePool | Strategy::CrossAlePool | Strategy::Confidence | Strategy::Qbc
        )
    }

    /// Whether the strategy needs a labeling oracle for new points.
    pub fn needs_labeler(&self) -> bool {
        matches!(
            self,
            Strategy::WithinAle | Strategy::CrossAle | Strategy::Uniform
        )
    }
}

/// Experiment configuration shared by all strategies of one run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// AutoML configuration (seeds are derived per purpose from `seed`).
    pub automl: AutoMlConfig,
    /// Feedback budget: points added to the training set (280 in the
    /// paper's Table 1).
    pub n_feedback_points: usize,
    /// Independent AutoML runs for Cross-ALE (10 in the paper).
    pub n_cross_runs: usize,
    /// ALE algorithm parameters (mode is overridden per strategy).
    pub ale: AleFeedback,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            automl: AutoMlConfig::default(),
            n_feedback_points: 280,
            n_cross_runs: 10,
            ale: AleFeedback::default(),
            seed: 0,
        }
    }
}

/// Result of one strategy run.
pub struct StrategyOutcome {
    /// The strategy.
    pub strategy: Strategy,
    /// Balanced accuracy per test set (paired across strategies).
    pub scores: Vec<f64>,
    /// Rows actually added to the training set.
    pub n_points_added: usize,
    /// The interpretable feedback artifact (ALE strategies only).
    pub feedback: Option<Feedback>,
    /// The refit AutoML model (for downstream inspection).
    pub model: FittedAutoMl,
}

/// Typed replacement for "checked above" unwraps on the labeler path: a
/// capability hole surfaces as [`CoreError::MissingCapability`] even if a
/// future strategy forgets to update [`Strategy::needs_labeler`].
fn require_labeler(labeler: Option<&dyn Labeler>, strategy: Strategy) -> Result<&dyn Labeler> {
    labeler.ok_or_else(|| {
        CoreError::MissingCapability(format!("{} needs a labeling oracle", strategy.name()))
    })
}

/// Typed replacement for "checked above" unwraps on the pool path.
fn require_pool(pool: Option<&Dataset>, strategy: Strategy) -> Result<&Dataset> {
    pool.ok_or_else(|| {
        CoreError::MissingCapability(format!("{} needs a candidate pool", strategy.name()))
    })
}

/// Fault-injection site + guard for the oracle-labeling path. The
/// `nan_labels` fault (see `aml-faults`) poisons every other suggested
/// row with a NaN; fault or not, rows containing non-finite values are
/// dropped — and counted — rather than handed to the oracle, so a
/// poisoned round degrades to fewer points instead of failing outright
/// (`Dataset::from_rows` rejects non-finite values, which would abort
/// the whole round).
fn sanitize_oracle_rows(strategy: Strategy, mut rows: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    if aml_faults::label_rows_poisoned() {
        for row in rows.iter_mut().step_by(2) {
            if let Some(v) = row.first_mut() {
                *v = f64::NAN;
            }
        }
    }
    drop_nonfinite_rows(strategy, rows)
}

/// Drop rows with any non-finite value, counting what was dropped under
/// `core.nonfinite_rows_dropped` so degraded rounds are observable.
fn drop_nonfinite_rows(strategy: Strategy, mut rows: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    let before = rows.len();
    rows.retain(|r| r.iter().all(|v| v.is_finite()));
    let dropped = (before - rows.len()) as u64;
    if dropped > 0 {
        aml_telemetry::counter_add_labeled("core.nonfinite_rows_dropped", strategy.name(), dropped);
    }
    rows
}

fn derive_seed(master: u64, salt: u64) -> u64 {
    let mut z = master ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fit_automl(cfg: &ExperimentConfig, train: &Dataset, salt: u64) -> Result<FittedAutoMl> {
    let mut ac = cfg.automl.clone();
    ac.seed = derive_seed(cfg.seed, salt);
    Ok(AutoMl::new(ac).fit(train)?)
}

/// Run one strategy end to end. `pool` rows are treated as unlabeled until
/// selected (their labels are then revealed — the standard active-learning
/// evaluation protocol). `test_sets` must all share the training schema.
pub fn run_strategy(
    strategy: Strategy,
    cfg: &ExperimentConfig,
    train: &Dataset,
    pool: Option<&Dataset>,
    labeler: Option<&dyn Labeler>,
    test_sets: &[Dataset],
) -> Result<StrategyOutcome> {
    if test_sets.is_empty() {
        return Err(CoreError::InvalidParameter(
            "need at least one test set".into(),
        ));
    }
    if strategy.needs_pool() {
        require_pool(pool, strategy)?;
    }
    if strategy.needs_labeler() {
        require_labeler(labeler, strategy)?;
    }

    let _run_span = aml_telemetry::span!("core.strategy.run", strategy.name());
    aml_telemetry::serve::set_phase(strategy.name());
    let mut augmented = train.clone();
    let mut feedback = None;
    let n_before = augmented.n_rows();

    {
        let _augment = aml_telemetry::span!("core.strategy.augment", strategy.name());
        match strategy {
            Strategy::NoFeedback => {}
            Strategy::WithinAle
            | Strategy::CrossAle
            | Strategy::WithinAlePool
            | Strategy::CrossAlePool => {
                let mode = match strategy {
                    Strategy::WithinAle | Strategy::WithinAlePool => AleMode::Within,
                    _ => AleMode::Cross,
                };
                let n_runs = if mode == AleMode::Cross {
                    cfg.n_cross_runs.max(2)
                } else {
                    1
                };
                let runs: Vec<FittedAutoMl> = {
                    let _committee =
                        aml_telemetry::span!("core.strategy.committee", strategy.name());
                    // Committee members are independent AutoML runs. They
                    // run one after another (one thread: each member's
                    // search already fans out over `--threads`), but the
                    // fan-out attaches each as a parallelizable unit in
                    // the trace tree, so the critical-path analyzer
                    // reports the committee's Amdahl speedup ceiling.
                    let ctx = aml_telemetry::TraceContext::current();
                    let members: Vec<(u64, ())> = (0..n_runs as u64).map(|r| (r, ())).collect();
                    aml_telemetry::tracetree::par_map(ctx, 1, members, |r, ()| {
                        let _member = aml_telemetry::span!("core.strategy.member");
                        fit_automl(cfg, train, 100 + r)
                    })
                    .unwrap_or_else(|message| std::panic::resume_unwind(Box::new(message)))
                    .into_iter()
                    .collect::<Result<_>>()?
                };
                let ale = AleFeedback {
                    mode,
                    ..cfg.ale.clone()
                };
                let (analysis, fb) = {
                    let _suggest = aml_telemetry::span!("core.strategy.suggest", strategy.name());
                    ale.feedback(&runs, train)?
                };
                feedback = Some(fb);

                match strategy {
                    Strategy::WithinAle | Strategy::CrossAle => {
                        let rows = ale.suggest_points(
                            &analysis,
                            train,
                            cfg.n_feedback_points,
                            derive_seed(cfg.seed, 7),
                        )?;
                        let rows = sanitize_oracle_rows(strategy, rows);
                        aml_telemetry::counter_add_labeled(
                            "core.labeler.queries",
                            strategy.name(),
                            rows.len() as u64,
                        );
                        if !rows.is_empty() {
                            let labelled = require_labeler(labeler, strategy)?.label_rows(&rows)?;
                            augmented.extend(&labelled)?;
                        }
                    }
                    _ => {
                        let pool = require_pool(pool, strategy)?;
                        let picked =
                            ale.suggest_from_pool(&analysis, pool, cfg.n_feedback_points)?;
                        let subset = pool.subset(&picked)?;
                        augmented.extend(&subset)?;
                    }
                }
            }
            Strategy::Uniform => {
                let rows = uniform_sample(train, cfg.n_feedback_points, derive_seed(cfg.seed, 8))?;
                let rows = sanitize_oracle_rows(strategy, rows);
                aml_telemetry::counter_add_labeled(
                    "core.labeler.queries",
                    strategy.name(),
                    rows.len() as u64,
                );
                if !rows.is_empty() {
                    let labelled = require_labeler(labeler, strategy)?.label_rows(&rows)?;
                    augmented.extend(&labelled)?;
                }
            }
            Strategy::Confidence => {
                let run = fit_automl(cfg, train, 200)?;
                let pool = require_pool(pool, strategy)?;
                let picked = confidence_select(run.ensemble(), pool, cfg.n_feedback_points)?;
                augmented.extend(&pool.subset(&picked)?)?;
            }
            Strategy::Qbc => {
                let run = fit_automl(cfg, train, 300)?;
                let pool = require_pool(pool, strategy)?;
                let picked = qbc_select(run.ensemble(), pool, cfg.n_feedback_points)?;
                augmented.extend(&pool.subset(&picked)?)?;
            }
            Strategy::Upsampling => {
                augmented = random_oversample(train, derive_seed(cfg.seed, 9))?;
            }
        }
    }

    let n_points_added = augmented.n_rows() - n_before;

    // Refit with the SAME derived seed for every strategy: differences in
    // the final model come from the data, not the search's RNG.
    let model = {
        let _refit = aml_telemetry::span!("core.strategy.refit", strategy.name());
        fit_automl(cfg, &augmented, 0xF17)?
    };

    // One prediction pass per test set: the flat probability buffers
    // score balanced accuracy here and feed the model diagnostics below.
    let n_classes = model.n_classes();
    let (probas, scores) = {
        let _score = aml_telemetry::span!("core.strategy.score", strategy.name());
        let mut probas = Vec::with_capacity(test_sets.len());
        let mut scores = Vec::with_capacity(test_sets.len());
        for ts in test_sets {
            let mut proba = vec![0.0; ts.n_rows() * n_classes];
            model.predict_proba_into(ts.values(), &mut proba)?;
            let preds: Vec<usize> = proba.chunks_exact(n_classes).map(argmax).collect();
            scores.push(balanced_accuracy(ts.labels(), &preds, ts.n_classes())?);
            probas.push(proba);
        }
        (probas, scores)
    };

    // Ledger: the quality plane's per-round probes (train/eval dataset
    // profiles, model diagnostics) plus one round_completed summarizing
    // this strategy application — all stamped with the SAME round
    // number. The round counter is untouched when the ledger is
    // disarmed, so arming telemetry never changes round numbering.
    if aml_telemetry::ledger::active() {
        let round = aml_telemetry::ledger::next_round();
        let acc_mean = scores.iter().sum::<f64>() / scores.len() as f64;
        let acc_min = scores.iter().copied().fold(f64::INFINITY, f64::min);
        let acc_max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (regions, ale_std_mean, ale_std_max) = match &feedback {
            Some(fb) => {
                let regions = match &fb.suggestion {
                    Suggestion::Regions(rs) => {
                        rs.iter().map(|r| r.intervals.len()).sum::<usize>() as u64
                    }
                    _ => 0,
                };
                let stds: Vec<f64> = fb
                    .explanations
                    .iter()
                    .flat_map(|b| b.std.iter().copied())
                    .collect();
                if stds.is_empty() {
                    (regions, 0.0, 0.0)
                } else {
                    (
                        regions,
                        stds.iter().sum::<f64>() / stds.len() as f64,
                        stds.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    )
                }
            }
            None => (0, 0.0, 0.0),
        };
        if let Some(event) = crate::quality::dataset_profile_event(round, "train", &[&augmented])? {
            aml_telemetry::ledger::emit(&event);
        }
        let eval_refs: Vec<&Dataset> = test_sets.iter().collect();
        if let Some(event) = crate::quality::dataset_profile_event(round, "eval", &eval_refs)? {
            aml_telemetry::ledger::emit(&event);
        }
        // The ALE ±σ band is 2σ wide; its mean width per round is the
        // quality plane's interpretability-uncertainty trend.
        if let Some(event) = crate::quality::model_diagnostics_event(
            round,
            strategy.name(),
            test_sets,
            &probas,
            n_classes,
            2.0 * ale_std_mean,
        ) {
            aml_telemetry::ledger::emit(&event);
        }
        aml_telemetry::ledger::emit(&aml_telemetry::LedgerEvent::RoundCompleted {
            round,
            strategy: strategy.name().to_string(),
            acc_mean,
            acc_min,
            acc_max,
            points_added: n_points_added as u64,
            regions,
            ale_std_mean,
            ale_std_max,
        });
    }
    aml_telemetry::serve::note_round_done();

    Ok(StrategyOutcome {
        strategy,
        scores,
        n_points_added,
        feedback,
        model,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aml_dataset::{split::split_into_k, synth};

    /// Noise-free XOR oracle.
    fn xor_labeler() -> impl Labeler {
        |rows: &[Vec<f64>]| -> Result<Dataset> {
            let labels: Vec<usize> = rows
                .iter()
                .map(|r| usize::from((r[0] > 0.5) != (r[1] > 0.5)))
                .collect();
            Ok(Dataset::from_rows(rows, &labels, 2)?)
        }
    }

    fn quick_cfg(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            automl: AutoMlConfig {
                n_candidates: 6,
                ensemble_rounds: 4,
                ..Default::default()
            },
            n_feedback_points: 40,
            n_cross_runs: 2,
            seed,
            ..Default::default()
        }
    }

    fn setup() -> (Dataset, Dataset, Vec<Dataset>) {
        let train = synth::noisy_xor(150, 0.05, 1).unwrap();
        let pool = synth::noisy_xor(300, 0.05, 2).unwrap();
        let test = synth::noisy_xor(300, 0.0, 3).unwrap();
        let test_sets = split_into_k(&test, 4, 4).unwrap();
        (train, pool, test_sets)
    }

    /// Checkpoint resume matches rounds to strategies by name, and the
    /// per-strategy score files key on it: no two strategies may share one.
    #[test]
    fn strategy_names_are_distinct() {
        let mut names: Vec<&str> = Strategy::ALL.iter().map(Strategy::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Strategy::ALL.len(), "{names:?}");
    }

    #[test]
    fn every_strategy_runs_and_scores() {
        let (train, pool, tests) = setup();
        let labeler = xor_labeler();
        let cfg = quick_cfg(5);
        for strategy in Strategy::ALL {
            let out = run_strategy(strategy, &cfg, &train, Some(&pool), Some(&labeler), &tests)
                .unwrap_or_else(|e| panic!("{} failed: {e}", strategy.name()));
            assert_eq!(out.scores.len(), 4);
            for s in &out.scores {
                assert!((0.0..=1.0).contains(s), "{}: score {s}", strategy.name());
            }
        }
    }

    #[test]
    fn feedback_strategies_actually_add_points() {
        let (train, pool, tests) = setup();
        let labeler = xor_labeler();
        let cfg = quick_cfg(6);
        let within = run_strategy(
            Strategy::WithinAle,
            &cfg,
            &train,
            None,
            Some(&labeler),
            &tests,
        )
        .unwrap();
        assert_eq!(within.n_points_added, 40);
        assert!(within.feedback.is_some());

        let none = run_strategy(Strategy::NoFeedback, &cfg, &train, None, None, &tests).unwrap();
        assert_eq!(none.n_points_added, 0);

        let qbc = run_strategy(Strategy::Qbc, &cfg, &train, Some(&pool), None, &tests).unwrap();
        assert_eq!(qbc.n_points_added, 40);
    }

    #[test]
    fn pool_variants_may_add_fewer_points() {
        // The pool may not cover the suggested subspace with enough points
        // — Table 1 shows exactly this (180 and 91 of 280).
        let (train, pool, tests) = setup();
        let cfg = quick_cfg(7);
        let out = run_strategy(
            Strategy::WithinAlePool,
            &cfg,
            &train,
            Some(&pool),
            None,
            &tests,
        )
        .unwrap();
        assert!(out.n_points_added <= 40);
        assert!(out.n_points_added > 0);
    }

    #[test]
    fn missing_capabilities_are_reported() {
        let (train, _pool, tests) = setup();
        let cfg = quick_cfg(8);
        assert!(matches!(
            run_strategy(Strategy::Confidence, &cfg, &train, None, None, &tests),
            Err(CoreError::MissingCapability(_))
        ));
        assert!(matches!(
            run_strategy(Strategy::Uniform, &cfg, &train, None, None, &tests),
            Err(CoreError::MissingCapability(_))
        ));
    }

    #[test]
    fn upsampling_balances_without_oracle_or_pool() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        // 90/10 imbalance on a separable problem.
        for i in 0..90 {
            rows.push(vec![i as f64 * 0.01, 0.0]);
            labels.push(0usize);
        }
        for i in 0..10 {
            rows.push(vec![5.0 + i as f64 * 0.01, 1.0]);
            labels.push(1usize);
        }
        let train = Dataset::from_rows(&rows, &labels, 2).unwrap();
        let tests = vec![train.clone()];
        let cfg = quick_cfg(9);
        let out = run_strategy(Strategy::Upsampling, &cfg, &train, None, None, &tests).unwrap();
        assert_eq!(out.n_points_added, 80);
    }

    #[test]
    fn nonfinite_suggested_rows_are_dropped_not_labeled() {
        // Without a fault plan installed this is a pure filter: rows
        // with NaN/inf never reach the oracle (the `nan_labels` fault's
        // end-to-end path is exercised by the bench fault matrix).
        let rows = vec![
            vec![0.1, 0.2],
            vec![f64::NAN, 0.3],
            vec![0.4, f64::INFINITY],
            vec![0.5, 0.6],
        ];
        let clean = drop_nonfinite_rows(Strategy::Uniform, rows);
        assert_eq!(clean, vec![vec![0.1, 0.2], vec![0.5, 0.6]]);
        // All-finite input passes through untouched (and uncounted).
        let fine = vec![vec![1.0, 2.0]];
        assert_eq!(drop_nonfinite_rows(Strategy::Uniform, fine.clone()), fine);
    }

    #[test]
    fn ale_feedback_helps_on_xor_with_sparse_training() {
        // Tiny, imbalanced-coverage training set; ALE feedback supplies
        // oracle-labelled points in confusing regions and should not hurt.
        let (train, _pool, tests) = setup();
        let labeler = xor_labeler();
        let cfg = quick_cfg(10);
        let base = run_strategy(Strategy::NoFeedback, &cfg, &train, None, None, &tests).unwrap();
        let within = run_strategy(
            Strategy::WithinAle,
            &cfg,
            &train,
            None,
            Some(&labeler),
            &tests,
        )
        .unwrap();
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(
            mean(&within.scores) >= mean(&base.scores) - 0.05,
            "feedback must not collapse accuracy: {} vs {}",
            mean(&within.scores),
            mean(&base.scores)
        );
    }
}
