//! Golden tests for the live observability plane.
//!
//! * the Prometheus text exposition for a fixed registry snapshot is
//!   pinned byte-for-byte — scrape-side dashboards can rely on the shape;
//! * the folded-stack profiler output for a deterministic nested-span
//!   program is pinned (stack keys exactly, self-times by invariant);
//! * a full `RunOpts` round trip with `--serve 127.0.0.1:0` and
//!   `--profile-out` answers `/metrics` mid-run and leaves a
//!   `profile.folded` behind;
//! * `/runs?tail=N` clamps, and `--record` appends a parsable history
//!   line end to end.

use aml_bench::RunOpts;
use aml_telemetry::ledger::{self, LedgerEvent};
use aml_telemetry::registry::{HistSnapshot, Snapshot, SpanSnapshot, HIST_BUCKETS};
use aml_telemetry::sink::RunHeader;
use aml_telemetry::{profile, serve, set_level, tracetree, TelemetryLevel};
use std::io::{Read as _, Write as _};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The tests below all mutate process-global telemetry state; serialize
/// them so `cargo test`'s parallelism cannot interleave.
static LOCK: Mutex<()> = Mutex::new(());

fn hold() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn prometheus_exposition_is_pinned_byte_for_byte() {
    // Fixed snapshot exercising every section: a plain counter, a labeled
    // counter, a gauge, a span summary, and a labeled histogram with
    // observations 1, 31, 100 (log2 buckets 1, 5, 7).
    let mut buckets = vec![0u64; HIST_BUCKETS];
    buckets[1] = 1;
    buckets[5] = 1;
    buckets[7] = 1;
    let snap = Snapshot {
        spans: vec![SpanSnapshot {
            name: "bench.datagen".into(),
            calls: 2,
            total_ns: 3_500_000_000,
            max_ns: 2_000_000_000,
            min_ns: 1_500_000_000,
        }],
        counters: vec![
            ("automl.candidates_trained".into(), 42),
            ("core.labeler.queries[Cross-ALE]".into(), 7),
        ],
        gauges: vec![("proc.rss_bytes".into(), 8192)],
        histograms: vec![HistSnapshot {
            name: "automl.fit_us[forest]".into(),
            count: 3,
            sum: 132,
            min: 1,
            max: 100,
            p50: 31,
            p95: 127,
            buckets,
        }],
    };
    let expected = "\
# TYPE automl_candidates_trained counter
automl_candidates_trained 42
# TYPE core_labeler_queries counter
core_labeler_queries{key=\"Cross-ALE\"} 7
# TYPE proc_rss_bytes gauge
proc_rss_bytes 8192
# TYPE aml_span_duration_seconds summary
aml_span_duration_seconds{span=\"bench.datagen\",quantile=\"0\"} 1.5
aml_span_duration_seconds{span=\"bench.datagen\",quantile=\"1\"} 2
aml_span_duration_seconds_sum{span=\"bench.datagen\"} 3.5
aml_span_duration_seconds_count{span=\"bench.datagen\"} 2
# TYPE automl_fit_us histogram
automl_fit_us_bucket{key=\"forest\",le=\"1\"} 1
automl_fit_us_bucket{key=\"forest\",le=\"31\"} 2
automl_fit_us_bucket{key=\"forest\",le=\"127\"} 3
automl_fit_us_bucket{key=\"forest\",le=\"+Inf\"} 3
automl_fit_us_sum{key=\"forest\"} 132
automl_fit_us_count{key=\"forest\"} 3
";
    assert_eq!(serve::render_prometheus(&snap), expected);
}

#[test]
fn folded_profile_of_a_deterministic_program_is_pinned() {
    let _guard = hold();
    set_level(TelemetryLevel::Summary);
    aml_telemetry::global().reset();
    tracetree::reset();
    tracetree::set_active(true);
    {
        let _root = aml_telemetry::span!("golden.root");
        for _ in 0..3 {
            let _mid = aml_telemetry::span!("golden.mid");
            let _leaf = aml_telemetry::span!("golden.leaf", "x");
        }
        let _solo = aml_telemetry::span!("golden.solo");
    }
    tracetree::set_active(false);

    // The set of stacks (and their call counts) is fully deterministic.
    let entries = profile::fold(&tracetree::entries());
    let keyed: Vec<(&str, u64)> = entries.iter().map(|(k, s)| (k.as_str(), s.calls)).collect();
    assert_eq!(
        keyed,
        vec![
            ("golden.root", 1),
            ("golden.root;golden.mid", 3),
            ("golden.root;golden.mid;golden.leaf[x]", 3),
            ("golden.root;golden.solo", 1),
        ]
    );
    // Exclusive accounting partitions the root: self-times can never sum
    // past the root span's total wall time.
    let snap = aml_telemetry::global().snapshot();
    let root_total = snap
        .spans
        .iter()
        .find(|s| s.name == "golden.root")
        .unwrap()
        .total_ns;
    let self_sum: u64 = entries.iter().map(|(_, s)| s.self_ns).sum();
    assert!(
        self_sum <= root_total,
        "self {self_sum} > root {root_total}"
    );

    // The folded rendering itself is pinned byte-for-byte on fixed stats.
    let fixed = vec![
        (
            "golden.root".to_string(),
            profile::StackStat {
                self_ns: 1_999_999,
                calls: 1,
            },
        ),
        (
            "golden.root;golden.mid".to_string(),
            profile::StackStat {
                self_ns: 3_000_000,
                calls: 3,
            },
        ),
    ];
    assert_eq!(
        profile::render_folded(&fixed),
        "golden.root 1999\ngolden.root;golden.mid 3000\n"
    );

    tracetree::reset();
    set_level(TelemetryLevel::Off);
    aml_telemetry::global().reset();
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

#[test]
fn serve_and_profile_flags_round_trip_through_runopts() {
    let _guard = hold();
    let dir = std::env::temp_dir().join(format!("aml_live_plane_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let args: Vec<String> = [
        "--serve",
        "127.0.0.1:0",
        "--profile-out",
        &dir.join("profile.folded").to_string_lossy(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut opts = RunOpts::parse_from(&args).unwrap().unwrap();
    opts.workload = "live_plane_test".into();
    opts.out_dir = dir.clone();
    opts.prepare().expect("prepare starts the live plane");
    assert_eq!(opts.telemetry, TelemetryLevel::Summary);

    // prepare() wrote the bound address for scripts to pick up.
    let addr = std::fs::read_to_string(dir.join("serve.addr"))
        .expect("serve.addr written")
        .trim()
        .to_string();
    assert_eq!(Some(addr.parse().unwrap()), serve::bound_addr());

    // Produce some span traffic for the plane to report.
    {
        let _root = aml_telemetry::span!("bench.datagen");
        let _inner = aml_telemetry::span!("bench.inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    // /metrics mid-run: valid exposition with span summaries, and — when
    // /proc exists — the resource sampler's gauges. The sampler publishes
    // from its own thread, so poll briefly.
    let metrics = http_get(&addr, "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
    assert!(
        metrics.contains("aml_span_duration_seconds_count{span=\"bench.datagen\"} 1"),
        "{metrics}"
    );
    if aml_telemetry::resource::sample().is_some() {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let metrics = http_get(&addr, "/metrics");
            if metrics.contains("proc_rss_bytes") {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "sampler gauges never appeared:\n{metrics}"
            );
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
    }
    let health = http_get(&addr, "/healthz");
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    opts.finish();
    // The plane is down and the folded profile is on disk, non-empty.
    assert!(serve::bound_addr().is_none());
    let folded = std::fs::read_to_string(dir.join("profile.folded")).expect("profile.folded");
    assert!(folded.contains("bench.datagen;bench.inner"), "{folded}");

    assert!(!tracetree::active(), "finish must disarm the collector");
    tracetree::reset();
    set_level(TelemetryLevel::Off);
    aml_telemetry::global().reset();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// /runs?tail and the --record history store.
// ---------------------------------------------------------------------

fn test_header(workload: &str) -> RunHeader {
    RunHeader {
        run_id: format!("{workload}-s1-p1"),
        workload: workload.into(),
        seed: 1,
        git: "abc".into(),
    }
}

#[test]
fn runs_tail_param_limits_and_clamps() {
    let _guard = hold();
    set_level(TelemetryLevel::Summary);
    aml_telemetry::global().reset();
    let addr = serve::start("127.0.0.1:0", &test_header("tail_test"))
        .unwrap()
        .to_string();
    for trial in 0..10 {
        ledger::emit_with(|| LedgerEvent::TrialFinished {
            trial,
            rung: 0,
            family: "forest".into(),
            score: 0.5,
        });
    }
    let count = |body: &str| body.matches("\"type\":\"trial_finished\"").count();

    let tail3 = http_get(&addr, "/runs?tail=3");
    assert_eq!(count(&tail3), 3, "{tail3}");
    assert!(tail3.contains("\"trial\":9"), "newest kept: {tail3}");
    assert!(!tail3.contains("\"trial\":6"), "oldest trimmed: {tail3}");

    // tail=0 clamps up to 1; oversized and garbage values fall back to
    // the whole ring.
    assert_eq!(count(&http_get(&addr, "/runs?tail=0")), 1);
    assert_eq!(count(&http_get(&addr, "/runs?tail=9999")), 10);
    assert_eq!(count(&http_get(&addr, "/runs?tail=bogus")), 10);
    assert_eq!(count(&http_get(&addr, "/runs")), 10);

    serve::stop();
    aml_telemetry::sink::finish(&Snapshot::default());
    set_level(TelemetryLevel::Off);
    aml_telemetry::global().reset();
}

#[test]
fn record_flag_appends_a_parsable_history_line_end_to_end() {
    let _guard = hold();
    let dir = std::env::temp_dir().join(format!("aml_record_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let history = dir.join("history.jsonl");

    let args: Vec<String> = ["--record", &history.to_string_lossy()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut opts = RunOpts::parse_from(&args).unwrap().unwrap();
    opts.workload = "record_e2e".into();
    opts.out_dir = dir.clone();
    opts.prepare()
        .expect("prepare installs the summary collector");

    // A small run: one finished trial, one failure, one feedback round.
    ledger::emit_with(|| LedgerEvent::TrialFinished {
        trial: 0,
        rung: 0,
        family: "forest".into(),
        score: 0.9,
    });
    ledger::emit_with(|| LedgerEvent::TrialFailed {
        trial: 1,
        rung: 0,
        family: "mlp".into(),
        reason: "error".into(),
    });
    ledger::emit_with(|| LedgerEvent::RoundCompleted {
        round: 0,
        strategy: "Within-ALE".into(),
        acc_mean: 0.8,
        acc_min: 0.7,
        acc_max: 0.9,
        points_added: 10,
        regions: 1,
        ale_std_mean: 0.01,
        ale_std_max: 0.02,
    });
    opts.finish();

    let text = std::fs::read_to_string(&history).expect("history.jsonl written");
    let records = aml_bench::gate::parse_history(&text);
    assert_eq!(records.len(), 1, "{text}");
    let r = &records[0];
    assert_eq!(r.workload, "record_e2e");
    assert_eq!(r.source, "run");
    assert!(r.wall_time_s >= 0.0);
    assert_eq!(r.trials_finished, 1);
    assert_eq!(r.trials_failed, 1);
    assert_eq!(r.rounds, 1);
    assert_eq!(r.final_acc, Some(0.8));
    if aml_telemetry::resource::sample().is_some() {
        assert!(r.peak_rss_bytes > 0, "{r:?}");
    }

    set_level(TelemetryLevel::Off);
    aml_telemetry::global().reset();
    std::fs::remove_dir_all(&dir).ok();
}
