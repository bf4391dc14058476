//! End-to-end golden tests for the model/data-quality plane.
//!
//! * a full `RunOpts` round trip with `--ledger-out` and `--serve`
//!   answers `/quality` mid-run (active, versioned schema), exports the
//!   quality gauges on `/metrics`, and after `finish` the live report's
//!   bytes are exactly what `amlinspect quality --json` recomputes from
//!   the ledger — the live fold and the read path are held to the same
//!   pinned renderer;
//! * the report is byte-identical whether the underlying AutoML search
//!   trains candidates on 1 worker or 4 — the same determinism contract
//!   as the ledger itself, extended through the analytics.

use aml_automl::AutoMlConfig;
use aml_bench::qualityview::parse_quality_ledger;
use aml_bench::RunOpts;
use aml_core::{run_strategy, ExperimentConfig, Strategy};
use aml_dataset::{split::train_test_split, synth, Dataset};
use aml_telemetry::{ledger, quality, set_level, sink, Snapshot, TelemetryLevel};
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
fn quality_route_answers_mid_run_and_matches_the_ledger_recompute() {
    let _guard = hold();
    let dir = std::env::temp_dir().join(format!("aml_quality_e2e_{}", std::process::id()));
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
    opts.workload = "quality_e2e".into();
    opts.out_dir = dir.clone();
    opts.prepare()
        .expect("prepare activates the quality collector");
    assert!(
        quality::live_json().starts_with("{\"active\":true,"),
        "--serve must arm the collector"
    );

    let addr = std::fs::read_to_string(dir.join("serve.addr"))
        .expect("serve.addr written")
        .trim()
        .to_string();

    let (train, test) = splits();
    let cfg = small_cfg(2);
    run_strategy(
        Strategy::NoFeedback,
        &cfg,
        &train,
        None,
        None,
        std::slice::from_ref(&test),
    )
    .expect("round 1 runs");

    // /quality mid-run: a live, versioned analysis of the rounds so far.
    let live = http_get(&addr, "/quality");
    assert!(live.starts_with("HTTP/1.1 200 OK"), "{live}");
    assert!(live.contains("application/json"), "{live}");
    assert!(live.contains("\"active\":true"), "{live}");
    assert!(
        live.contains(&format!(
            "\"schema_version\":{}",
            aml_telemetry::QUALITY_SCHEMA_VERSION
        )),
        "{live}"
    );
    assert!(live.contains("\"confusion\":["), "{live}");

    // A second round gives the drift analysis a previous_round reference.
    run_strategy(
        Strategy::NoFeedback,
        &cfg,
        &train,
        None,
        None,
        std::slice::from_ref(&test),
    )
    .expect("round 2 runs");

    // The quality gauges surface on /metrics, PSI per declared feature.
    let metrics = http_get(&addr, "/metrics");
    assert!(metrics.contains("quality_final_acc"), "{metrics}");
    assert!(metrics.contains("quality_ece"), "{metrics}");
    assert!(metrics.contains("quality_psi{key="), "{metrics}");

    opts.finish();
    assert!(!ledger::active(), "finish must drain the collector's sink");

    // The live report's bytes are exactly what `amlinspect quality --json`
    // recomputes from the ledger: live fold and read path share one
    // renderer.
    let ledger_text = std::fs::read_to_string(&ledger_path).expect("ledger.jsonl written");
    let report = parse_quality_ledger(&ledger_text).expect("ledger parses");
    assert_eq!(
        report.render_json(),
        quality::live_json(),
        "live quality report drifted from the ledger recompute"
    );

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

    let run = |workers: usize| {
        // Arming installs the collector's fold sink, so quality events
        // reach it without any file sink.
        quality::arm();
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
        let json = quality::live_json();
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
        "the quality report must not depend on the worker count"
    );

    set_level(TelemetryLevel::Off);
    aml_telemetry::global().reset();
}
