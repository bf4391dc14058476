//! End-to-end golden tests for search observability.
//!
//! * a full `RunOpts` round trip with `--ledger-out` writes a ledger
//!   whose `amlinspect search` recompute is a non-degenerate, versioned
//!   analysis of a real search;
//! * the report is byte-identical whether the search trains candidates
//!   on 1 worker or 4 — the same determinism contract as the ledger
//!   itself, extended through the analytics;
//! * past the collector cap, the recompute from the ledger file equals
//!   the in-memory fold of the emitted events, drop count included.

use aml_automl::ModelFamily;
use aml_bench::searchview::parse_search_ledger;
use aml_bench::RunOpts;
use aml_dataset::{split::train_test_split, synth, Dataset};
use aml_telemetry::searchview::SearchCollector;
use aml_telemetry::{
    ledger, set_level, sink, Fold, LedgerJsonlSink, RunHeader, Snapshot, TelemetryLevel,
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
        run_id: "search-golden".into(),
        workload: "search_golden".into(),
        seed: 7,
        git: "test".into(),
    };
    sink::install(Box::new(LedgerJsonlSink::create(path, &header).unwrap()));
    body();
    // finish() also resets the search_space gate, so the next run emits
    // its own declaration.
    for (target, result) in sink::finish(&Snapshot::default()) {
        assert!(result.is_ok(), "finish({target}) failed");
    }
    std::fs::read_to_string(path).expect("ledger written")
}

fn splits() -> (Dataset, Dataset) {
    let ds = synth::two_moons(300, 0.2, 5).unwrap();
    train_test_split(&ds, 0.25, true, 1).unwrap()
}

fn run_search(train: &Dataset, val: &Dataset, parallelism: usize) {
    aml_automl::search::run_search(
        aml_automl::SearchStrategy::SuccessiveHalving,
        12,
        &ModelFamily::ALL,
        train,
        val,
        7,
        parallelism,
        &aml_automl::SearchLimits::default(),
    )
    .expect("search succeeds");
}

#[test]
fn search_ledger_recompute_analyzes_a_real_run() {
    let _guard = hold();
    ledger::reset_search_space_gate();
    let dir = std::env::temp_dir().join(format!("aml_search_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ledger_path = dir.join("ledger.jsonl");

    let args: Vec<String> = ["--ledger-out", &ledger_path.to_string_lossy()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut opts = RunOpts::parse_from(&args).unwrap().unwrap();
    opts.workload = "search_e2e".into();
    opts.out_dir = dir.clone();
    opts.prepare().expect("prepare installs the ledger sink");

    let (train, val) = splits();
    run_search(&train, &val, 2);

    // The search gauges/counters land in the registry `/metrics` renders.
    let snap = aml_telemetry::global().snapshot();
    assert!(snap
        .gauges
        .iter()
        .any(|(n, _)| n == "search.trials_inflight"));
    for counter in ["search.rung_promotions", "search.rung_eliminations"] {
        assert!(
            snap.counters.iter().any(|(n, _)| n.starts_with(counter)),
            "{counter} missing: {:?}",
            snap.counters
        );
    }

    opts.finish();
    assert!(!ledger::active(), "finish must drain the ledger sink");

    // What `amlinspect search --json` prints: a versioned report.
    let ledger_text = std::fs::read_to_string(&ledger_path).expect("ledger.jsonl written");
    let report = parse_search_ledger(&ledger_text).expect("ledger parses");
    let json = report.render_json();
    assert!(
        json.starts_with(&format!(
            "{{\"active\":true,\"schema_version\":{},",
            aml_telemetry::SEARCH_SCHEMA_VERSION
        )),
        "{json}"
    );
    assert!(json.contains("\"families\":["), "{json}");

    // Non-degenerate analytics over a real run: every declared family
    // sampled, every dimension visited somewhere, and the scores varied
    // enough that at least one dimension carries importance signal.
    assert_eq!(report.families.len(), ModelFamily::ALL.len());
    for f in &report.families {
        assert!(f.fits > 0, "family {} never sampled", f.family);
        assert!(!f.dims.is_empty(), "family {} lost its dims", f.family);
        for d in &f.dims {
            assert!(d.visited > 0, "{}.{} never visited", f.family, d.name);
            assert!(d.coverage > 0.0 && d.coverage <= 1.0);
            assert!((0.0..=1.0).contains(&d.importance));
        }
    }
    assert!(report.rungs.len() > 1, "expected a multi-rung funnel");
    assert!(
        report
            .families
            .iter()
            .flat_map(|f| f.dims.iter())
            .any(|d| d.importance > 0.0),
        "all importances degenerate"
    );

    set_level(TelemetryLevel::Off);
    aml_telemetry::global().reset();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn search_json_is_identical_across_worker_counts() {
    let _guard = hold();
    set_level(TelemetryLevel::Summary);
    let (train, val) = splits();

    let dir = std::env::temp_dir().join(format!("aml_search_workers_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |workers: usize| {
        let path = dir.join(format!("ledger_{workers}.jsonl"));
        let text = ledger_of(&path, || run_search(&train, &val, workers));
        parse_search_ledger(&text).unwrap().render_json()
    };

    let one = run(1);
    let four = run(4);
    assert!(one.contains("\"active\":true"), "{one}");
    assert_eq!(
        one, four,
        "the search report must not depend on the worker count"
    );

    set_level(TelemetryLevel::Off);
    aml_telemetry::global().reset();
    std::fs::remove_dir_all(&dir).ok();
}

/// Past the collector cap, the in-memory fold of the emitted events and
/// the recompute from the ledger file still agree byte for byte: both
/// fold the events through one collector, cap and drop count included.
/// Events are emitted directly — no model fitting.
#[test]
fn live_search_matches_the_ledger_recompute_past_the_trial_cap() {
    use aml_telemetry::searchview::TRIAL_CAP;
    use aml_telemetry::{LedgerEvent, ParamValue, SpaceDim, SpaceFamily};

    let _guard = hold();
    let dir = std::env::temp_dir().join(format!("aml_search_cap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ledger_path = dir.join("ledger.jsonl");
    let args: Vec<String> = ["--ledger-out", &ledger_path.to_string_lossy()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut opts = RunOpts::parse_from(&args).unwrap().unwrap();
    opts.workload = "search_cap".into();
    opts.out_dir = dir.clone();
    opts.prepare().expect("prepare installs the ledger sink");

    const OVER_CAP: usize = 100;
    let mut events = vec![LedgerEvent::SearchSpace {
        families: vec![SpaceFamily {
            family: "knn".into(),
            dims: vec![SpaceDim {
                name: "k".into(),
                kind: "int".into(),
                scale: "linear".into(),
                lo: 1.0,
                hi: 25.0,
                choices: vec![],
            }],
        }],
    }];
    for i in 0..(TRIAL_CAP + OVER_CAP) as u64 {
        events.push(LedgerEvent::TrialStarted {
            trial: i,
            rung: 0,
            family: "knn".into(),
            config: String::new(),
            params: vec![("k".into(), ParamValue::Int(1 + (i % 25) as i64))],
        });
        events.push(LedgerEvent::TrialFinished {
            trial: i,
            rung: 0,
            family: "knn".into(),
            score: 0.5 + (i % 25) as f64 / 100.0,
        });
    }
    for event in &events {
        ledger::emit(event);
    }
    opts.finish();

    let ledger_text = std::fs::read_to_string(&ledger_path).expect("ledger.jsonl written");
    let report = parse_search_ledger(&ledger_text).expect("ledger parses");
    assert_eq!(report.started, TRIAL_CAP as u64);
    assert_eq!(report.dropped, OVER_CAP as u64);
    assert!(
        report.render_json() == SearchCollector::from_events(&events).report().render_json(),
        "the in-memory search report differs from the ledger recompute past the cap"
    );

    set_level(TelemetryLevel::Off);
    aml_telemetry::global().reset();
    std::fs::remove_dir_all(&dir).ok();
}
