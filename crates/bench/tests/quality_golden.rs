//! End-to-end golden tests for the model/data-quality plane.
//!
//! * a full `RunOpts` round trip with `--ledger-out` writes a ledger
//!   whose `amlinspect quality` recompute is a non-degenerate, versioned
//!   analysis of two real feedback rounds;
//! * the report is byte-identical whether the underlying AutoML search
//!   trains candidates on 1 worker or 4 — the same determinism contract
//!   as the ledger itself, extended through the analytics.

use aml_automl::AutoMlConfig;
use aml_bench::qualityview::parse_quality_ledger;
use aml_bench::RunOpts;
use aml_core::{run_strategy, ExperimentConfig, Strategy};
use aml_dataset::{split::train_test_split, synth, Dataset};
use aml_telemetry::{
    ledger, set_level, sink, LedgerJsonlSink, RunHeader, Snapshot, TelemetryLevel,
};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// All tests mutate process-global telemetry state; serialize them.
static LOCK: Mutex<()> = Mutex::new(());

fn hold() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `body` with a ledger file sink at `path`, finish the sinks, and
/// return the ledger text.
fn ledger_of(path: &Path, body: impl FnOnce()) -> String {
    let header = RunHeader {
        run_id: "quality-golden".into(),
        workload: "quality_golden".into(),
        seed: 7,
        git: "test".into(),
    };
    sink::install(Box::new(LedgerJsonlSink::create(path, &header).unwrap()));
    body();
    for (target, result) in sink::finish(&Snapshot::default()) {
        assert!(result.is_ok(), "finish({target}) failed");
    }
    std::fs::read_to_string(path).expect("ledger written")
}

fn splits() -> (Dataset, Dataset) {
    let ds = synth::two_moons(240, 0.2, 5).unwrap();
    train_test_split(&ds, 0.25, true, 1).unwrap()
}

/// A small-but-real experiment config: enough candidates for a
/// non-trivial ensemble, cheap enough for a test.
fn small_cfg(parallelism: usize) -> ExperimentConfig {
    ExperimentConfig {
        automl: AutoMlConfig {
            n_candidates: 6,
            ensemble_rounds: 5,
            parallelism,
            ..AutoMlConfig::default()
        },
        n_feedback_points: 20,
        n_cross_runs: 2,
        seed: 7,
        ..ExperimentConfig::default()
    }
}

#[test]
fn quality_ledger_recompute_analyzes_two_real_rounds() {
    let _guard = hold();
    let dir = std::env::temp_dir().join(format!("aml_quality_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ledger_path = dir.join("ledger.jsonl");

    let args: Vec<String> = ["--ledger-out", &ledger_path.to_string_lossy()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut opts = RunOpts::parse_from(&args).unwrap().unwrap();
    opts.workload = "quality_e2e".into();
    opts.out_dir = dir.clone();
    opts.prepare().expect("prepare installs the ledger sink");

    // Two rounds: the second gives the drift analysis a previous_round
    // reference.
    let (train, test) = splits();
    let cfg = small_cfg(2);
    for round in 0..2 {
        run_strategy(
            Strategy::NoFeedback,
            &cfg,
            &train,
            None,
            None,
            std::slice::from_ref(&test),
        )
        .unwrap_or_else(|e| panic!("round {round}: {e}"));
    }

    opts.finish();
    assert!(!ledger::active(), "finish must drain the ledger sink");

    // What `amlinspect quality --json` prints: a versioned report.
    let ledger_text = std::fs::read_to_string(&ledger_path).expect("ledger.jsonl written");
    let report = parse_quality_ledger(&ledger_text).expect("ledger parses");
    let json = report.render_json();
    assert!(
        json.starts_with(&format!(
            "{{\"active\":true,\"schema_version\":{},",
            aml_telemetry::QUALITY_SCHEMA_VERSION
        )),
        "{json}"
    );
    assert!(json.contains("\"confusion\":["), "{json}");

    // Non-degenerate analytics over a real run: both rounds recorded,
    // final diagnostics present, and round 2 drifted against round 1.
    assert_eq!(report.rounds.len(), 2);
    for r in &report.rounds {
        assert_eq!(r.strategy, "Without feedback");
        assert!(r.rows > 0);
        assert!((0.0..=1.0).contains(&r.accuracy), "{r:?}");
        assert!(r.ece.is_finite() && r.ece >= 0.0, "{r:?}");
    }
    let diag = report.final_diag.as_ref().expect("final diagnostics");
    assert_eq!(diag.classes.len(), 2);
    let total: u64 = diag.confusion.iter().flatten().sum();
    assert_eq!(total, test.n_rows() as u64);
    assert_eq!(report.drift.reference, "previous_round");
    assert!(
        report.drift.features.iter().all(|f| f.psi.is_some()),
        "{:?}",
        report.drift
    );
    let last = report.rounds.last().unwrap();
    assert!(
        last.psi_mean.is_some() && last.psi_max.is_some(),
        "{last:?}"
    );

    set_level(TelemetryLevel::Off);
    aml_telemetry::global().reset();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quality_json_is_identical_across_worker_counts() {
    let _guard = hold();
    set_level(TelemetryLevel::Summary);
    let (train, test) = splits();

    let dir = std::env::temp_dir().join(format!("aml_quality_workers_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |workers: usize| {
        let path = dir.join(format!("ledger_{workers}.jsonl"));
        let text = ledger_of(&path, || {
            // Pin round numbering so both runs produce the same sequence.
            ledger::set_next_round(0);
            let cfg = small_cfg(workers);
            for round in 0..2 {
                run_strategy(
                    Strategy::NoFeedback,
                    &cfg,
                    &train,
                    None,
                    None,
                    std::slice::from_ref(&test),
                )
                .unwrap_or_else(|e| panic!("round {round} with {workers} workers: {e}"));
            }
        });
        parse_quality_ledger(&text).unwrap().render_json()
    };

    let one = run(1);
    let four = run(4);
    assert!(one.contains("\"active\":true"), "{one}");
    assert_eq!(
        one, four,
        "the quality report must not depend on the worker count"
    );

    set_level(TelemetryLevel::Off);
    aml_telemetry::global().reset();
    std::fs::remove_dir_all(&dir).ok();
}
