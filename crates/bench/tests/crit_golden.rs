//! End-to-end golden tests for causal tracing and critical-path
//! analysis (PR 7).
//!
//! * a full `RunOpts` round trip with `--crit-out` and `--serve` answers
//!   `/crit` mid-run (active, versioned schema) and leaves a `crit.json`
//!   behind whose bytes are exactly what the pinned renderer produces —
//!   `CritReport::from_json` followed by `render_json` must reproduce
//!   the file;
//! * the causal tree (span ids, parent links, parallel marks) and the
//!   critical path derived from it are identical whether a fan-out runs
//!   on one worker or four — the determinism contract that makes two
//!   crit reports diffable across machines and thread counts.

use aml_bench::RunOpts;
use aml_telemetry::{crit, set_level, tracetree, CritReport, TelemetryLevel, TraceContext};
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

/// A deterministic two-phase program: a dominant `bench.datagen` phase
/// fanning three scenarios out across `workers` threads, then a short
/// serial `bench.strategies` phase. Slot 2 sleeps an order of magnitude
/// longer than its siblings so the greedy critical-path descent picks
/// the same scenario regardless of scheduler jitter.
fn sample_run(workers: usize) {
    {
        let _datagen = aml_telemetry::span!("bench.datagen");
        let ctx = TraceContext::current();
        let run_slot = |slot: u64| {
            let _handoff = ctx.attach(slot);
            let _span = aml_telemetry::span!("netsim.scenario");
            let ms = if slot == 2 { 20 } else { 1 };
            std::thread::sleep(std::time::Duration::from_millis(ms));
        };
        if workers == 1 {
            (0..3u64).for_each(run_slot);
        } else {
            std::thread::scope(|s| {
                for slot in 0..3u64 {
                    s.spawn(move || run_slot(slot));
                }
            });
        }
    }
    let _strategies = aml_telemetry::span!("bench.strategies");
    std::thread::sleep(std::time::Duration::from_millis(1));
}

#[test]
fn crit_out_round_trips_and_crit_route_answers_mid_run() {
    let _guard = hold();
    let dir = std::env::temp_dir().join(format!("aml_crit_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let crit_path = dir.join("crit.json");

    let args: Vec<String> = [
        "--crit-out",
        &crit_path.to_string_lossy(),
        "--serve",
        "127.0.0.1:0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut opts = RunOpts::parse_from(&args).unwrap().unwrap();
    opts.workload = "crit_e2e".into();
    opts.out_dir = dir.clone();
    opts.prepare()
        .expect("prepare activates the trace collector");
    assert!(tracetree::active(), "--crit-out must arm the collector");

    let addr = std::fs::read_to_string(dir.join("serve.addr"))
        .expect("serve.addr written")
        .trim()
        .to_string();

    sample_run(4);

    // /crit mid-run: a live, versioned analysis of the tree so far.
    let live = http_get(&addr, "/crit");
    assert!(live.starts_with("HTTP/1.1 200 OK"), "{live}");
    assert!(live.contains("application/json"), "{live}");
    assert!(live.contains("\"active\":true"), "{live}");
    assert!(
        live.contains(&format!(
            "\"schema_version\":{}",
            aml_telemetry::CRIT_SCHEMA_VERSION
        )),
        "{live}"
    );
    assert!(live.contains("\"critical_path_ns\""), "{live}");

    opts.finish();
    assert!(!tracetree::active(), "finish must disarm the collector");

    // The artifact parses, and re-rendering reproduces it byte for byte:
    // the on-disk format is exactly the pinned renderer's output.
    let text = std::fs::read_to_string(&crit_path).expect("crit.json written");
    let report = CritReport::from_json(&text).expect("crit.json parses");
    assert_eq!(report.render_json(), text, "crit.json bytes drifted");

    // Shape invariants of a real run: the chain is bounded by the wall,
    // contributions partition the dominant phase, datagen dominates.
    assert_eq!(report.dominant_phase, "bench.datagen");
    assert!(report.critical_path_ns <= report.wall_ns, "{report:?}");
    let contrib: u64 = report.path.iter().map(|s| s.contribution_ns).sum();
    assert!(contrib <= report.wall_ns, "{report:?}");
    assert!(!report.path.is_empty());
    assert_eq!(report.path[0].name, "bench.datagen");
    assert!(
        report.path.iter().any(|s| s.name == "netsim.scenario"),
        "{report:?}"
    );
    assert!(report.amdahl.max_speedup >= 1.0, "{report:?}");
    // datagen + three scenarios + strategies.
    assert_eq!(report.nodes, 5, "{report:?}");

    tracetree::reset();
    set_level(TelemetryLevel::Off);
    aml_telemetry::global().reset();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_tree_and_critical_path_are_identical_across_worker_counts() {
    let _guard = hold();
    set_level(TelemetryLevel::Summary);
    aml_telemetry::global().reset();

    let run = |workers: usize| {
        tracetree::reset();
        tracetree::set_active(true);
        sample_run(workers);
        tracetree::set_active(false);
        let nodes = tracetree::entries();
        let shape: Vec<(u64, u64, String, bool)> = nodes
            .iter()
            .map(|n| (n.id, n.parent, n.name.clone(), n.parallel))
            .collect();
        let report = crit::analyze(&nodes, &aml_telemetry::global().snapshot());
        let path: Vec<(String, u64, bool)> = report
            .path
            .iter()
            .map(|s| (s.name.clone(), s.id, s.parallel))
            .collect();
        (shape, path, report.dominant_phase)
    };

    let (shape1, path1, dom1) = run(1);
    let (shape4, path4, dom4) = run(4);
    assert_eq!(shape1, shape4, "tree structure depends on worker count");
    assert_eq!(path1, path4, "critical path depends on worker count");
    assert_eq!(dom1, dom4);
    assert_eq!(dom1, "bench.datagen");
    // The fan-out is visible: every scenario is marked parallel.
    let pars = shape1
        .iter()
        .filter(|(_, _, n, p)| n == "netsim.scenario" && *p);
    assert_eq!(pars.count(), 3);

    tracetree::reset();
    set_level(TelemetryLevel::Off);
    aml_telemetry::global().reset();
}
