//! Golden test for the Chrome trace export, end to end: arm the trace
//! tree and install the trace sink exactly as `--trace-out` does, run a
//! small multi-threaded span tree, finish, and validate the file
//! structurally with [`aml_telemetry::json`] — valid JSON, the stable
//! field order Perfetto relies on, balanced B/E pairs, lanes, and
//! counter events. Integration tests get their own process, so the
//! global sink registry cannot race with the unit-test suites.

use aml_telemetry::json;
use aml_telemetry::{
    counter_add, global, set_level, sink, tracetree, ChromeTraceSink, RunHeader, TelemetryLevel,
};

/// Run a deterministic little workload: nested spans on the main thread
/// and one detached root span on a worker thread, plus a counter.
fn exercise() {
    {
        let _outer = aml_telemetry::span!("bench.datagen");
        {
            let _inner = aml_telemetry::span!("netsim.step");
            std::hint::black_box(
                (0..2000u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9))
                    .sum::<u64>(),
            );
        }
        counter_add("netsim.sim.events", 42);
    }
    std::thread::spawn(|| {
        let _w = aml_telemetry::span!("bench.strategies");
        std::hint::black_box((0..2000u64).map(|i| i ^ 0x5bd1_e995).sum::<u64>());
    })
    .join()
    .unwrap();
}

#[test]
fn trace_and_events_files_are_well_formed() {
    set_level(TelemetryLevel::Summary);
    global().reset();

    let dir = std::env::temp_dir().join(format!("aml_trace_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");

    let header = RunHeader::new("trace_golden", 7);
    tracetree::reset();
    tracetree::set_active(true);
    sink::install(Box::new(
        ChromeTraceSink::create(&trace_path, &header).unwrap(),
    ));

    exercise();

    tracetree::set_active(false);
    for (_, result) in sink::finish(&global().snapshot()) {
        result.unwrap();
    }

    check_trace(&std::fs::read_to_string(&trace_path).unwrap());

    set_level(TelemetryLevel::Off);
    std::fs::remove_dir_all(&dir).ok();
}

fn check_trace(text: &str) {
    let doc = json::parse(text).expect("trace.json is valid JSON");

    // Top-level shape, stable key order.
    let top: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(top, ["displayTimeUnit", "otherData", "traceEvents"]);
    assert_eq!(
        doc.get("otherData")
            .unwrap()
            .get("workload")
            .unwrap()
            .as_str(),
        Some("trace_golden")
    );

    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(!events.is_empty());

    let mut begins = 0u64;
    let mut ends = 0u64;
    let mut names = Vec::new();
    let mut tids = std::collections::BTreeSet::new();
    let mut counters = 0u64;
    let mut thread_names = 0u64;
    let mut last_ts = f64::MIN;
    for ev in events {
        // Per-phase stable field order — Perfetto and diff-based golden
        // checks both rely on it.
        let keys: Vec<&str> = ev
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(ev.get("pid").unwrap().as_u64(), Some(1));
        let ph = ev.get("ph").unwrap().as_str().unwrap();
        match ph {
            "M" => assert_eq!(keys, ["name", "ph", "pid", "tid", "args"], "M field order"),
            "C" => assert_eq!(
                keys,
                ["name", "cat", "ph", "pid", "tid", "ts", "args"],
                "C field order"
            ),
            _ => assert_eq!(
                keys,
                ["name", "cat", "ph", "pid", "tid", "ts"],
                "{ph} order"
            ),
        }
        match ph {
            "B" => {
                begins += 1;
                names.push(ev.get("name").unwrap().as_str().unwrap().to_string());
                tids.insert(ev.get("tid").unwrap().as_u64().unwrap());
                let ts = ev.get("ts").unwrap().as_f64().unwrap();
                assert!(ts >= last_ts, "B/E events must be sorted by ts");
                last_ts = ts;
            }
            "E" => {
                ends += 1;
                let ts = ev.get("ts").unwrap().as_f64().unwrap();
                assert!(ts >= last_ts, "B/E events must be sorted by ts");
                last_ts = ts;
            }
            "M" => {
                assert_eq!(ev.get("name").unwrap().as_str(), Some("thread_name"));
                thread_names += 1;
            }
            "C" => counters += 1,
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(begins, ends, "unbalanced B/E events");
    assert_eq!(begins, 3, "three spans were closed");
    for name in ["bench.datagen", "netsim.step", "bench.strategies"] {
        assert!(names.contains(&name.to_string()), "missing span {name}");
    }
    // Each root span (the main thread's phase and the worker's span)
    // gets a lane with a metadata name; the nested span shares its
    // root's lane.
    assert_eq!(tids.len(), 2, "expected two thread lanes: {tids:?}");
    assert_eq!(thread_names, 2);
    assert!(counters >= 1, "counter events missing");
}
