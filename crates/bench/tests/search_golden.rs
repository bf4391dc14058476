//! End-to-end golden tests for search observability (PR 8).
//!
//! * a full `RunOpts` round trip with `--ledger-out` and `--serve`
//!   answers `/search` mid-run (active, versioned schema), and after
//!   `finish` the live report's bytes are exactly what `amlinspect
//!   search --json` recomputes from the ledger — the live fold and the
//!   read path are held to the same pinned renderer;
//! * the report is byte-identical whether the search trains candidates
//!   on 1 worker or 4 — the same determinism contract as the ledger
//!   itself, extended through the analytics.

use aml_automl::ModelFamily;
use aml_bench::searchview::parse_search_ledger;
use aml_bench::RunOpts;
use aml_dataset::{split::train_test_split, synth, Dataset};
use aml_telemetry::searchview::SearchCollector;
use aml_telemetry::{ledger, searchview, set_level, sink, Snapshot, TelemetryLevel};
use std::io::{Read as _, Write as _};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// All tests mutate process-global telemetry state; serialize them.
static LOCK: Mutex<()> = Mutex::new(());

fn hold() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn http_get(addr: &str, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to live plane");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
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
fn search_route_answers_mid_run_and_matches_the_ledger_recompute() {
    let _guard = hold();
    ledger::reset_search_space_gate();
    let dir = std::env::temp_dir().join(format!("aml_search_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ledger_path = dir.join("ledger.jsonl");

    let args: Vec<String> = [
        "--ledger-out",
        &ledger_path.to_string_lossy(),
        "--serve",
        "127.0.0.1:0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut opts = RunOpts::parse_from(&args).unwrap().unwrap();
    opts.workload = "search_e2e".into();
    opts.out_dir = dir.clone();
    opts.prepare()
        .expect("prepare activates the search collector");
    assert_eq!(
        searchview::live_json(),
        SearchCollector::new().report().render_json(),
        "--serve must arm an empty collector"
    );

    let addr = std::fs::read_to_string(dir.join("serve.addr"))
        .expect("serve.addr written")
        .trim()
        .to_string();

    let (train, val) = splits();
    run_search(&train, &val, 2);

    // /search mid-run: a live, versioned analysis of the trials so far.
    let live = http_get(&addr, "/search");
    assert!(live.starts_with("HTTP/1.1 200 OK"), "{live}");
    assert!(live.contains("application/json"), "{live}");
    assert!(live.contains("\"active\":true"), "{live}");
    assert!(
        live.contains(&format!(
            "\"schema_version\":{}",
            aml_telemetry::SEARCH_SCHEMA_VERSION
        )),
        "{live}"
    );
    assert!(live.contains("\"families\":["), "{live}");

    // The search gauges/counters surface on /metrics.
    let metrics = http_get(&addr, "/metrics");
    assert!(metrics.contains("search_trials_inflight"), "{metrics}");
    assert!(metrics.contains("search_rung_promotions"), "{metrics}");
    assert!(metrics.contains("search_rung_eliminations"), "{metrics}");

    opts.finish();
    assert!(!ledger::active(), "finish must drain the collector's sink");

    // The live report's bytes are exactly what `amlinspect search --json`
    // recomputes from the ledger: live fold and read path share one
    // renderer.
    let ledger_text = std::fs::read_to_string(&ledger_path).expect("ledger.jsonl written");
    let report = parse_search_ledger(&ledger_text).expect("ledger parses");
    assert_eq!(
        report.render_json(),
        searchview::live_json(),
        "live search report drifted from the ledger recompute"
    );

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

    let run = |workers: usize| {
        // Arming installs the collector's fold sink, so trial events
        // reach it without any file sink.
        searchview::arm();
        run_search(&train, &val, workers);
        let json = searchview::live_json();
        // finish() resets the search_space gate so the next run emits
        // its own declaration.
        for (target, result) in sink::finish(&Snapshot::default()) {
            assert!(result.is_ok(), "finish({target}) failed");
        }
        json
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
}

/// Past the collector cap, the live `/search` report and the
/// offline recompute from the same ledger still agree byte for byte:
/// both fold the events through one collector, cap and drop count
/// included. Events are emitted directly — no model fitting.
#[test]
fn live_search_matches_the_ledger_recompute_past_the_trial_cap() {
    use aml_telemetry::searchview::TRIAL_CAP;
    use aml_telemetry::{LedgerEvent, ParamValue, SpaceDim, SpaceFamily};

    let _guard = hold();
    let dir = std::env::temp_dir().join(format!("aml_search_cap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ledger_path = dir.join("ledger.jsonl");
    let args: Vec<String> = [
        "--ledger-out",
        &ledger_path.to_string_lossy(),
        "--serve",
        "127.0.0.1:0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut opts = RunOpts::parse_from(&args).unwrap().unwrap();
    opts.workload = "search_cap".into();
    opts.out_dir = dir.clone();
    opts.prepare().expect("prepare arms the search collector");

    const OVER_CAP: usize = 100;
    ledger::emit(&LedgerEvent::SearchSpace {
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
    });
    for i in 0..(TRIAL_CAP + OVER_CAP) as u64 {
        ledger::emit(&LedgerEvent::TrialStarted {
            trial: i,
            rung: 0,
            family: "knn".into(),
            config: String::new(),
            params: vec![("k".into(), ParamValue::Int(1 + (i % 25) as i64))],
        });
        ledger::emit(&LedgerEvent::TrialFinished {
            trial: i,
            rung: 0,
            family: "knn".into(),
            score: 0.5 + (i % 25) as f64 / 100.0,
        });
    }
    opts.finish();

    let ledger_text = std::fs::read_to_string(&ledger_path).expect("ledger.jsonl written");
    let report = parse_search_ledger(&ledger_text).expect("ledger parses");
    assert_eq!(report.started, TRIAL_CAP as u64);
    assert_eq!(report.dropped, OVER_CAP as u64);
    assert!(
        report.render_json() == searchview::live_json(),
        "the live search report differs from the ledger recompute past the cap"
    );

    set_level(TelemetryLevel::Off);
    aml_telemetry::global().reset();
    std::fs::remove_dir_all(&dir).ok();
}
