//! Fault-matrix integration test (DESIGN.md §7): run the AutoML search
//! and the feedback loop under every injected fault class of the
//! `aml-faults` plan and pin the resulting ledger shapes — a panicking
//! trial, a trial blowing its wall-clock budget, a NaN validation score,
//! and NaN-poisoned oracle labels each degrade the run without killing
//! it, and each leaves its typed `trial_failed` reason (or dropped-row
//! count) behind as evidence.
//!
//! An integration test (own process) because the fault plan, the
//! telemetry sink list, and the ledger round counter are process-global;
//! the tests in this file serialize on a local mutex.

use aml_automl::{ModelFamily, SearchLimits};
use aml_core::{run_strategy, ExperimentConfig, Strategy};
use aml_dataset::{split::train_test_split, synth, Dataset};
use aml_telemetry::sink::{self, Sink};
use aml_telemetry::{LedgerEvent, Snapshot};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Serializes the tests in this binary: the fault plan and the sink
/// list are process-global.
static GLOBAL: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Captures ledger lines in memory.
struct CollectingLedger {
    lines: Mutex<Vec<String>>,
}

impl Sink for CollectingLedger {
    fn on_ledger_event(&self, event: &LedgerEvent) {
        self.lines.lock().unwrap().push(event.to_json_line());
    }
    fn wants_ledger(&self) -> bool {
        true
    }
    fn finish(&self, _snapshot: &Snapshot) -> std::io::Result<()> {
        Ok(())
    }
    fn target(&self) -> String {
        "collector".into()
    }
}

struct Fwd(&'static CollectingLedger);

impl Sink for Fwd {
    fn on_ledger_event(&self, e: &LedgerEvent) {
        self.0.on_ledger_event(e)
    }
    fn wants_ledger(&self) -> bool {
        true
    }
    fn finish(&self, s: &Snapshot) -> std::io::Result<()> {
        self.0.finish(s)
    }
    fn target(&self) -> String {
        self.0.target()
    }
}

fn splits() -> (Dataset, Dataset) {
    let ds = synth::two_moons(300, 0.2, 5).unwrap();
    train_test_split(&ds, 0.25, true, 1).unwrap()
}

/// One search run under `plan`, returning its ledger lines.
fn search_under_plan(plan: &str, limits: &SearchLimits) -> Vec<String> {
    let (train, val) = splits();
    let collector = Box::leak(Box::new(CollectingLedger {
        lines: Mutex::new(Vec::new()),
    }));
    sink::install(Box::new(Fwd(collector)));
    aml_faults::install(aml_faults::FaultPlan::parse(plan).unwrap());
    let result = aml_automl::search::run_search(8, &ModelFamily::ALL, &train, &val, 7, 2, limits);
    aml_faults::clear();
    sink::finish(&Snapshot::default());
    assert!(
        result.is_ok(),
        "search must survive the fault plan: {:?}",
        result.err().map(|e| e.to_string())
    );
    assert!(!result.unwrap().is_empty(), "survivors expected");
    std::mem::take(&mut collector.lines.lock().unwrap())
}

fn failed_line(lines: &[String], trial: u64, reason: &str) -> bool {
    lines.iter().any(|l| {
        l.contains("\"type\":\"trial_failed\"")
            && l.contains(&format!("\"trial\":{trial},"))
            && l.contains(&format!("\"reason\":\"{reason}\""))
    })
}

#[test]
fn injected_trial_faults_become_typed_trial_failed_events() {
    let _guard = serialize();
    let lines = search_under_plan(
        "trial_panic@1,trial_nan@2,trial_slow@3:2000ms",
        &SearchLimits {
            max_trial_time: Some(Duration::from_millis(400)),
            min_trials: 1,
        },
    );
    assert!(
        failed_line(&lines, 1, "panic"),
        "trial 1 must fail with reason panic: {lines:#?}"
    );
    assert!(
        failed_line(&lines, 2, "nonfinite"),
        "trial 2 must fail with reason nonfinite: {lines:#?}"
    );
    assert!(
        failed_line(&lines, 3, "timeout"),
        "trial 3 must fail with reason timeout: {lines:#?}"
    );
    // The healthy trials still finish: the run degrades, it doesn't die.
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"type\":\"trial_finished\"")),
        "healthy trials must still finish"
    );
    // A faulted trial never also finishes.
    for trial in [1u64, 2, 3] {
        assert!(
            !lines
                .iter()
                .any(|l| l.contains("\"type\":\"trial_finished\"")
                    && l.contains(&format!("\"trial\":{trial},"))),
            "trial {trial} must not appear as finished"
        );
    }
}

#[test]
fn min_trials_floor_is_a_typed_error_not_a_degraded_ensemble() {
    let _guard = serialize();
    let (train, val) = splits();
    aml_faults::clear();
    let result = aml_automl::search::run_search(
        4,
        &ModelFamily::ALL,
        &train,
        &val,
        7,
        1,
        &SearchLimits {
            max_trial_time: None,
            min_trials: 999,
        },
    );
    match result {
        Err(aml_automl::AutoMlError::Search(aml_automl::SearchError::TooFewSurvivors {
            survived,
            required,
        })) => {
            assert_eq!(required, 999);
            assert!(survived < required);
        }
        other => panic!(
            "expected TooFewSurvivors, got {:?}",
            other.map(|v| v.len()).map_err(|e| e.to_string())
        ),
    }
}

/// `nan_labels` poisons rows the oracle is about to label; the loop
/// drops them (counting `core.nonfinite_rows_dropped`) and completes
/// with a smaller feedback budget instead of crashing model training.
#[test]
fn nan_poisoned_oracle_rows_shrink_the_round_but_complete_it() {
    let _guard = serialize();
    let (train, test) = splits();
    let test_sets = vec![test];
    let oracle = |rows: &[Vec<f64>]| -> aml_core::Result<Dataset> {
        let labels: Vec<usize> = rows.iter().map(|r| usize::from(r[0] > 0.5)).collect();
        Dataset::from_rows(rows, &labels, 2)
            .map_err(|e| aml_core::CoreError::InvalidParameter(e.to_string()))
    };
    let cfg = ExperimentConfig {
        automl: aml_automl::AutoMlConfig {
            n_candidates: 8,
            parallelism: 2,
            ..Default::default()
        },
        n_feedback_points: 12,
        n_cross_runs: 2,
        seed: 21,
        ..Default::default()
    };

    aml_faults::install(aml_faults::FaultPlan::parse("nan_labels@0").unwrap());
    let out = run_strategy(
        Strategy::Uniform,
        &cfg,
        &train,
        None,
        Some(&oracle),
        &test_sets,
    );
    aml_faults::clear();

    let out = out.expect("the run must complete under poisoned labels");
    assert!(
        out.n_points_added > 0 && out.n_points_added < 12,
        "every other row is poisoned: expected 0 < added < 12, got {}",
        out.n_points_added
    );

    // Off (cleared) plan: the same round adds the full budget.
    let clean = run_strategy(
        Strategy::Uniform,
        &cfg,
        &train,
        None,
        Some(&oracle),
        &test_sets,
    )
    .expect("clean run");
    assert_eq!(clean.n_points_added, 12, "clean run keeps the full budget");
}
