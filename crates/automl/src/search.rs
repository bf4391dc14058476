//! Candidate search: random search over the declared space.
//!
//! Each sampled candidate is trained once on the full training split and
//! scored by balanced accuracy on a held-out validation split, giving a
//! leaderboard of [`TrainedCandidate`]s. Candidate training is
//! embarrassingly parallel: the trials go to
//! [`aml_telemetry::tracetree::par_map`], whose workers claim trials one at
//! a time when `parallelism > 1` and return results in sampling order, so
//! the outcome is identical to a sequential run.

use crate::space::{CandidateConfig, ModelFamily};
use crate::{AutoMlError, Result, SearchError};
use aml_dataset::Dataset;
use aml_faults::TrialFault;
use aml_models::metrics::balanced_accuracy;
use aml_models::Classifier;
use aml_telemetry::ledger::{self, LedgerEvent};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Trials currently inside the fit sandbox, mirrored to the
/// `search.trials_inflight` gauge so `/metrics` shows live search
/// concurrency mid-run.
static TRIALS_INFLIGHT: AtomicU64 = AtomicU64::new(0);

fn trial_fit_begin() {
    let now = TRIALS_INFLIGHT.fetch_add(1, Ordering::Relaxed) + 1;
    aml_telemetry::gauge_set("search.trials_inflight", now);
}

fn trial_fit_end() {
    let now = TRIALS_INFLIGHT
        .fetch_sub(1, Ordering::Relaxed)
        .saturating_sub(1);
    aml_telemetry::gauge_set("search.trials_inflight", now);
}

/// Robustness limits on the search (DESIGN.md §7).
///
/// Every trial always runs inside a `catch_unwind` sandbox with a
/// non-finite-score guard, so panicking or NaN-scoring candidates become
/// `trial_failed` ledger events instead of killing the run. These limits
/// add the two knobs on top:
///
/// * `max_trial_time` — wall-clock budget per trial. When set, each
///   trial runs on a dedicated worker thread and is abandoned (ledgered
///   as `reason: timeout`) if it overruns; when `None`, trials run
///   inline with zero extra threads or copies (off-is-free).
/// * `min_trials` — the search errors with
///   [`SearchError::TooFewSurvivors`] when fewer trials survive, rather
///   than letting ensemble selection degrade below a usable floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchLimits {
    /// Per-trial wall-clock budget (`None` = unbounded, run inline).
    pub max_trial_time: Option<Duration>,
    /// Minimum surviving trials required for the search to succeed.
    pub min_trials: usize,
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits {
            max_trial_time: None,
            min_trials: 1,
        }
    }
}

/// A fitted candidate with its validation score.
pub struct TrainedCandidate {
    /// Stable trial id: the sequential sampling index of the config,
    /// assigned before any parallel work — the experiment ledger's join
    /// key into the selected ensemble.
    pub trial: u64,
    /// The sampled configuration.
    pub config: CandidateConfig,
    /// Fitted pipeline (trained on the full training split).
    pub model: Arc<dyn Classifier>,
    /// Balanced accuracy on the validation split.
    pub val_score: f64,
    /// Validation probability matrix (row per validation sample) — cached
    /// for greedy ensemble selection so members aren't re-predicted.
    pub val_proba: Vec<Vec<f64>>,
}

/// SplitMix64 seed derivation (matches aml-models' forests).
pub(crate) fn derive_seed(master: u64, index: u64) -> u64 {
    let mut z = master ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Round-robin family assignment so every family appears in the candidate
/// pool even for small budgets.
pub(crate) fn assign_families(n: usize, families: &[ModelFamily]) -> Vec<ModelFamily> {
    (0..n).map(|i| families[i % families.len()]).collect()
}

/// What one sandboxed trial produced: a scored model, or a typed
/// failure reason destined for the `trial_failed` ledger line.
/// A fitted model, its validation score, and its validation probabilities.
type Fitted = (Arc<dyn Classifier>, f64, Vec<Vec<f64>>);

type TrialResult = std::result::Result<Fitted, &'static str>;

/// Run one trial inside the sandbox: `catch_unwind` absorbs panics
/// (`reason: panic`), and a non-finite validation score is rejected
/// (`reason: nonfinite`) before it can poison the leaderboard sort or
/// the ensemble. Fit/scoring errors stay `reason: error`.
fn run_sandboxed(
    trial: u64,
    config: &CandidateConfig,
    train: &Dataset,
    val: &Dataset,
) -> TrialResult {
    let armed = aml_telemetry::sandbox::arm();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        fit_and_score_with_faults(trial, config, train, val)
    }));
    drop(armed);
    match caught {
        Err(_) => Err("panic"),
        Ok(None) => Err("error"),
        Ok(Some((_, score, _))) if !score.is_finite() => Err("nonfinite"),
        Ok(Some(ok)) => Ok(ok),
    }
}

/// Record one trial outcome: `trial_finished`/`trial_failed` ledger line
/// plus live-progress tick, and package the survivor. Always called on
/// the supervising side, never from an abandonable worker thread.
fn settle_trial(
    trial: u64,
    config: CandidateConfig,
    outcome: TrialResult,
) -> Option<TrainedCandidate> {
    trial_fit_end();
    aml_telemetry::serve::note_trial_done();
    match outcome {
        Ok((model, val_score, val_proba)) => {
            ledger::emit_with(|| LedgerEvent::TrialFinished {
                trial,
                family: config.family().name().to_string(),
                score: val_score,
            });
            Some(TrainedCandidate {
                trial,
                config,
                model,
                val_score,
                val_proba,
            })
        }
        Err(reason) => {
            ledger::emit_with(|| LedgerEvent::TrialFailed {
                trial,
                family: config.family().name().to_string(),
                reason: reason.to_string(),
            });
            None
        }
    }
}

/// Train one candidate and score it on the validation split. Returns `None`
/// if this particular configuration failed (panic, error, or a
/// non-finite score) so the search can continue with the survivors.
///
/// Emits `trial_started` then `trial_finished`/`trial_failed` ledger
/// events (no wall time — the ledger must be thread-count invariant).
fn train_one(
    trial: u64,
    config: CandidateConfig,
    train: &Dataset,
    val: &Dataset,
) -> Option<TrainedCandidate> {
    ledger::emit_with(|| LedgerEvent::TrialStarted {
        trial,
        family: config.family().name().to_string(),
        config: format!("{config:?}"),
        params: config.params(),
    });
    trial_fit_begin();
    let outcome = run_sandboxed(trial, &config, train, val);
    settle_trial(trial, config, outcome)
}

/// Train one candidate on a dedicated worker thread with a wall-clock
/// budget. On overrun the worker is abandoned (it finishes eventually
/// and its result is dropped — threads cannot be killed) and the trial
/// is ledgered as `reason: timeout`. All ledger emission happens on the
/// supervising side so an abandoned worker can never write a late
/// `trial_finished` line.
fn train_one_budgeted(
    trial: u64,
    config: CandidateConfig,
    train: &Arc<Dataset>,
    val: &Arc<Dataset>,
    budget: Duration,
) -> Option<TrainedCandidate> {
    ledger::emit_with(|| LedgerEvent::TrialStarted {
        trial,
        family: config.family().name().to_string(),
        config: format!("{config:?}"),
        params: config.params(),
    });
    trial_fit_begin();
    let (tx, rx) = mpsc::channel::<TrialResult>();
    let (w_config, w_train, w_val) = (config.clone(), Arc::clone(train), Arc::clone(val));
    std::thread::spawn(move || {
        let _ = tx.send(run_sandboxed(trial, &w_config, &w_train, &w_val));
    });
    let outcome = rx.recv_timeout(budget).unwrap_or(Err("timeout"));
    settle_trial(trial, config, outcome)
}

/// The actual fit, with the deterministic fault-injection sites in
/// front (inert single branch unless a fault plan is installed): an
/// injected panic unwinds into the sandbox, an injected delay drives
/// the timeout path, and an injected NaN score drives the non-finite
/// guard.
fn fit_and_score_with_faults(
    trial: u64,
    config: &CandidateConfig,
    train: &Dataset,
    val: &Dataset,
) -> Option<Fitted> {
    match aml_faults::trial_fault(trial) {
        Some(TrialFault::Panic) => panic!("injected fault: trial_panic@{trial}"),
        Some(TrialFault::Slow(delay)) => std::thread::sleep(delay),
        Some(TrialFault::NanScore) => {
            let (model, _, proba) = fit_and_score(config, train, val)?;
            return Some((model, f64::NAN, proba));
        }
        None => {}
    }
    fit_and_score(config, train, val)
}

/// Fit + validation-score one config; `None` on any failure.
fn fit_and_score(config: &CandidateConfig, train: &Dataset, val: &Dataset) -> Option<Fitted> {
    let fit_start = aml_telemetry::maybe_now();
    let model = config.fit(train).ok()?;
    if let Some(start) = fit_start {
        aml_telemetry::histogram_record_labeled(
            "automl.fit_us",
            config.family().name(),
            start.elapsed().as_micros() as u64,
        );
        aml_telemetry::counter_add("automl.candidates_trained", 1);
        aml_telemetry::counter_add("automl.fit.rows", train.n_rows() as u64);
    }
    let val_proba = model.predict_proba(val).ok()?;
    let preds: Vec<usize> = val_proba
        .iter()
        .map(|p| aml_models::model::argmax(p))
        .collect();
    let val_score = balanced_accuracy(val.labels(), &preds, val.n_classes()).ok()?;
    Some((model, val_score, val_proba))
}

/// Train `(trial, config)` jobs with up to `parallelism` worker threads,
/// each under an `automl.trial` span attached by trial id, so the trace
/// tree is the same at any worker count. Output preserves input order;
/// failed candidates are dropped. A worker dying *outside* the per-trial
/// sandbox is a harness bug and surfaces as
/// [`SearchError::WorkerPanicked`] instead of aborting the process.
///
/// With a `budget`, every trial runs on its own abandonable thread (see
/// [`train_one_budgeted`]), so the datasets are copied into `Arc`s once
/// per call that an abandoned trial may outlive. Without one, trials
/// borrow the datasets and spawn nothing beyond the pool.
fn train_all(
    jobs: Vec<(u64, CandidateConfig)>,
    train: &Dataset,
    val: &Dataset,
    parallelism: usize,
    budget: Option<Duration>,
) -> Result<Vec<TrainedCandidate>> {
    aml_telemetry::serve::add_planned_trials(jobs.len() as u64);
    let budgeted = budget.map(|budget| (budget, Arc::new(train.clone()), Arc::new(val.clone())));
    let ctx = aml_telemetry::TraceContext::current();
    let trained = aml_telemetry::tracetree::par_map(ctx, parallelism, jobs, |trial, config| {
        let _span = aml_telemetry::span!("automl.trial");
        match &budgeted {
            Some((budget, train, val)) => train_one_budgeted(trial, config, train, val, *budget),
            None => train_one(trial, config, train, val),
        }
    })
    .map_err(SearchError::WorkerPanicked)?;
    Ok(trained.into_iter().flatten().collect())
}

/// Run the search, returning candidates sorted by descending validation
/// score (ties broken by sampling order for determinism).
///
/// `train`/`val` are the inner split of the user's training data.
pub fn run_search(
    n_candidates: usize,
    families: &[ModelFamily],
    train: &Dataset,
    val: &Dataset,
    seed: u64,
    parallelism: usize,
    limits: &SearchLimits,
) -> Result<Vec<TrainedCandidate>> {
    let _span = aml_telemetry::span!("automl.search.run");
    if n_candidates == 0 {
        return Err(AutoMlError::InvalidConfig(
            "n_candidates must be >= 1".into(),
        ));
    }
    if families.is_empty() {
        return Err(AutoMlError::InvalidConfig(
            "families must not be empty".into(),
        ));
    }
    if limits.min_trials == 0 {
        return Err(AutoMlError::InvalidConfig("min_trials must be >= 1".into()));
    }
    // Describe the declared space once per run, ahead of the first
    // trial. The claim is only made while a ledger sink listens —
    // otherwise an unarmed warm-up search would consume the armed run's
    // single descriptor line.
    if ledger::active() && ledger::claim_search_space_emission() {
        ledger::emit(&LedgerEvent::SearchSpace {
            families: crate::space::search_space(families),
        });
    }
    // The enumeration index is the trial id: assigned sequentially before
    // any parallel work, it is the ledger's stable join key.
    let jobs: Vec<(u64, CandidateConfig)> = assign_families(n_candidates, families)
        .into_iter()
        .enumerate()
        .map(|(i, f)| {
            (
                i as u64,
                CandidateConfig::sample(f, derive_seed(seed, i as u64)),
            )
        })
        .collect();
    let mut trained = train_all(jobs, train, val, parallelism, limits.max_trial_time)?;
    if trained.is_empty() {
        return Err(AutoMlError::AllCandidatesFailed(
            "no candidate produced a valid model".into(),
        ));
    }
    if trained.len() < limits.min_trials {
        return Err(SearchError::TooFewSurvivors {
            survived: trained.len(),
            required: limits.min_trials,
        }
        .into());
    }
    // Stable sort keeps sampling order among score ties. The sandbox
    // guarantees finite scores, but `total_cmp` is panic-free either way.
    trained.sort_by(|a, b| b.val_score.total_cmp(&a.val_score));
    Ok(trained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aml_dataset::{split::train_test_split, synth};

    fn splits() -> (Dataset, Dataset) {
        let ds = synth::two_moons(300, 0.2, 5).unwrap();
        train_test_split(&ds, 0.25, true, 1).unwrap()
    }

    #[test]
    fn random_search_returns_sorted_leaderboard() {
        let _guard = hold_faults();
        let (train, val) = splits();
        let out = run_search(
            8,
            &ModelFamily::ALL,
            &train,
            &val,
            3,
            1,
            &SearchLimits::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 8);
        for w in out.windows(2) {
            assert!(w[0].val_score >= w[1].val_score);
        }
        assert!(
            out[0].val_score > 0.8,
            "best candidate {}",
            out[0].val_score
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let _guard = hold_faults();
        let (train, val) = splits();
        let seq = run_search(
            6,
            &ModelFamily::ALL,
            &train,
            &val,
            9,
            1,
            &SearchLimits::default(),
        )
        .unwrap();
        let par = run_search(
            6,
            &ModelFamily::ALL,
            &train,
            &val,
            9,
            4,
            &SearchLimits::default(),
        )
        .unwrap();
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.val_score, b.val_score);
        }
    }

    #[test]
    fn round_robin_covers_families() {
        let fams = assign_families(10, &ModelFamily::ALL);
        for f in &ModelFamily::ALL {
            assert!(fams.contains(f));
        }
    }

    #[test]
    fn zero_candidates_rejected() {
        let (train, val) = splits();
        assert!(run_search(
            0,
            &ModelFamily::ALL,
            &train,
            &val,
            0,
            1,
            &SearchLimits::default()
        )
        .is_err());
    }

    #[test]
    fn restricted_family_list_respected() {
        let _guard = hold_faults();
        let (train, val) = splits();
        let out = run_search(
            4,
            &[ModelFamily::Knn],
            &train,
            &val,
            2,
            1,
            &SearchLimits::default(),
        )
        .unwrap();
        assert!(out.iter().all(|c| c.config.family() == ModelFamily::Knn));
    }

    /// Fault-plan installs mutate process-global state; serialize every
    /// test that runs a search through one lock, so a plan installed by a
    /// sandbox test never leaks into a search that expects none.
    static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn hold_faults() -> std::sync::MutexGuard<'static, ()> {
        FAULT_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn injected_panic_is_sandboxed_and_search_survives() {
        let _guard = hold_faults();
        aml_faults::install(aml_faults::FaultPlan::parse("trial_panic@0,trial_panic@2").unwrap());
        let (train, val) = splits();
        let out = run_search(
            6,
            &ModelFamily::ALL,
            &train,
            &val,
            3,
            1,
            &SearchLimits::default(),
        );
        aml_faults::clear();
        let out = out.unwrap();
        assert_eq!(out.len(), 4, "panicking trials 0 and 2 must be dropped");
        assert!(out.iter().all(|c| c.trial != 0 && c.trial != 2));
    }

    #[test]
    fn injected_panic_is_sandboxed_in_parallel_mode_too() {
        let _guard = hold_faults();
        aml_faults::install(aml_faults::FaultPlan::parse("trial_panic@1").unwrap());
        let (train, val) = splits();
        let out = run_search(
            6,
            &ModelFamily::ALL,
            &train,
            &val,
            3,
            4,
            &SearchLimits::default(),
        );
        aml_faults::clear();
        let out = out.unwrap();
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|c| c.trial != 1));
    }

    #[test]
    fn injected_nan_score_is_rejected_as_nonfinite() {
        let _guard = hold_faults();
        aml_faults::install(aml_faults::FaultPlan::parse("trial_nan@3").unwrap());
        let (train, val) = splits();
        let out = run_search(
            6,
            &ModelFamily::ALL,
            &train,
            &val,
            3,
            1,
            &SearchLimits::default(),
        );
        aml_faults::clear();
        let out = out.unwrap();
        assert_eq!(out.len(), 5, "NaN-scoring trial 3 must be dropped");
        assert!(out.iter().all(|c| c.trial != 3));
        assert!(out.iter().all(|c| c.val_score.is_finite()));
    }

    #[test]
    fn slow_trial_times_out_under_budget() {
        let _guard = hold_faults();
        aml_faults::install(aml_faults::FaultPlan::parse("trial_slow@2:30000ms").unwrap());
        let (train, val) = splits();
        let limits = SearchLimits {
            max_trial_time: Some(Duration::from_millis(300)),
            min_trials: 1,
        };
        let out = run_search(4, &ModelFamily::ALL, &train, &val, 3, 1, &limits);
        aml_faults::clear();
        let out = out.unwrap();
        assert_eq!(out.len(), 3, "the hung trial must be abandoned");
        assert!(out.iter().all(|c| c.trial != 2));
    }

    #[test]
    fn budgeted_path_matches_unbudgeted_results() {
        let _guard = hold_faults();
        let (train, val) = splits();
        let plain = run_search(
            6,
            &ModelFamily::ALL,
            &train,
            &val,
            9,
            1,
            &SearchLimits::default(),
        )
        .unwrap();
        let budgeted = run_search(
            6,
            &ModelFamily::ALL,
            &train,
            &val,
            9,
            2,
            &SearchLimits {
                max_trial_time: Some(Duration::from_secs(120)),
                min_trials: 1,
            },
        )
        .unwrap();
        assert_eq!(plain.len(), budgeted.len());
        for (a, b) in plain.iter().zip(&budgeted) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.val_score, b.val_score);
        }
    }

    #[test]
    fn min_trials_floor_is_enforced() {
        let _guard = hold_faults();
        // Panic every trial but one; require two survivors.
        aml_faults::install(
            aml_faults::FaultPlan::parse("trial_panic@0,trial_panic@1,trial_panic@2").unwrap(),
        );
        let (train, val) = splits();
        let out = run_search(
            4,
            &ModelFamily::ALL,
            &train,
            &val,
            3,
            1,
            &SearchLimits {
                max_trial_time: None,
                min_trials: 2,
            },
        );
        aml_faults::clear();
        match out {
            Err(AutoMlError::Search(SearchError::TooFewSurvivors { survived, required })) => {
                assert_eq!((survived, required), (1, 2));
            }
            other => panic!("expected TooFewSurvivors, got {:?}", other.map(|v| v.len())),
        }
    }

    #[test]
    fn zero_min_trials_rejected() {
        let (train, val) = splits();
        assert!(matches!(
            run_search(
                4,
                &ModelFamily::ALL,
                &train,
                &val,
                0,
                1,
                &SearchLimits {
                    max_trial_time: None,
                    min_trials: 0,
                },
            ),
            Err(AutoMlError::InvalidConfig(_))
        ));
    }
}
