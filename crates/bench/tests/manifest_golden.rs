//! Golden test for the run manifest: a tiny-scale replica of the
//! `table1_scream --quick` pipeline (datagen → strategy with automl search,
//! ALE computation, and oracle labeling → manifest) asserting that
//! `manifest.json` names the expected phases with strictly positive
//! timings. Runs the real simulator and real AutoML — just very small.

use aml_automl::AutoMlConfig;
use aml_bench::RunOpts;
use aml_core::{run_strategy, AleFeedback, ExperimentConfig, Strategy, ThresholdRule};
use aml_dataset::split::split_into_k;
use aml_dataset::Dataset;
use aml_netsim::datagen::{generate_dataset, label_rows};
use aml_netsim::ConditionDomain;
use aml_telemetry::{global, set_level, TelemetryLevel};

/// Span names the manifest of a table1-style run must contain.
const EXPECTED_SPANS: &[&str] = &[
    "bench.datagen",       // dataset generation phase
    "automl.search.run",   // automl search
    "interpret.ale.curve", // ALE computation
    "netsim.labeling",     // oracle labeling of feedback points
    "core.strategy.run[Cross-ALE]",
    "core.strategy.refit[Cross-ALE]",
];

/// Counter names the run must have bumped.
const EXPECTED_COUNTERS: &[&str] = &[
    "automl.candidates_trained",
    "interpret.ale.predictions",
    "netsim.labels",
    "netsim.sim.events",
];

#[test]
fn table1_style_run_writes_expected_manifest() {
    // Own-process global state: integration tests get their own binary, so
    // flipping the level here cannot race with the unit-test suites.
    set_level(TelemetryLevel::Summary);
    global().reset();

    let out_dir = std::env::temp_dir().join(format!("aml_manifest_golden_{}", std::process::id()));
    std::fs::create_dir_all(&out_dir).unwrap();
    let crit_path = out_dir.join("crit.json");

    let args: Vec<String> = [
        "--quick",
        "--seed",
        "7",
        "--threads",
        "2",
        "--telemetry",
        "summary",
        "--out",
        out_dir.to_str().unwrap(),
        "--crit-out",
        crit_path.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut opts = RunOpts::parse_from(&args)
        .expect("flags parse")
        .expect("not --help");
    opts.workload = "manifest_golden".into();
    opts.prepare().expect("prepare arms the trace collector");

    // Tiny but non-degenerate: enough rows for a stratified split and a
    // committee, fast enough for `cargo test`.
    let domain = ConditionDomain {
        link_rate: (2.0, 10.0),
        rtt: (20.0, 60.0),
        loss: (0.0, 0.04),
        flows: (1, 2),
    };

    let (train, test) = {
        let _datagen = aml_telemetry::span!("bench.datagen");
        let train = generate_dataset(&domain, 40, opts.seed, opts.threads).expect("datagen");
        let test =
            generate_dataset(&domain, 40, opts.seed ^ 0x7E57, opts.threads).expect("datagen");
        (train, test)
    };
    let test_sets = split_into_k(&test, 2, opts.seed).expect("test split");

    let oracle = |rows: &[Vec<f64>]| -> aml_core::Result<Dataset> {
        label_rows(rows, &domain, opts.seed ^ 0x04AC1E, opts.threads)
            .map_err(|e| aml_core::CoreError::InvalidParameter(e.to_string()))
    };
    let cfg = ExperimentConfig {
        automl: AutoMlConfig {
            n_candidates: 4,
            parallelism: opts.threads,
            ..Default::default()
        },
        n_feedback_points: 6,
        n_cross_runs: 2,
        ale: AleFeedback {
            threshold: ThresholdRule::QuantileStd(0.75),
            ..Default::default()
        },
        seed: opts.seed,
    };
    run_strategy(
        Strategy::CrossAle,
        &cfg,
        &train,
        None,
        Some(&oracle),
        &test_sets,
    )
    .expect("Cross-ALE runs");

    // Every expected phase was recorded with strictly positive wall time.
    let snapshot = global().snapshot();
    for name in EXPECTED_SPANS {
        let span = snapshot
            .spans
            .iter()
            .find(|s| s.name == *name)
            .unwrap_or_else(|| {
                panic!(
                    "span '{name}' missing from {:?}",
                    snapshot.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
                )
            });
        assert!(span.calls > 0, "span '{name}' has zero calls");
        assert!(span.total_ns > 0, "span '{name}' has zero wall time");
    }
    for name in EXPECTED_COUNTERS {
        let counter = snapshot
            .counters
            .iter()
            .find(|c| c.0 == *name)
            .unwrap_or_else(|| {
                panic!(
                    "counter '{name}' missing from {:?}",
                    snapshot.counters.iter().map(|c| &c.0).collect::<Vec<_>>()
                )
            });
        assert!(counter.1 > 0, "counter '{name}' is zero");
    }

    // finish() writes <out>/manifest.json and the file names the phases.
    opts.finish();
    let manifest_path = out_dir.join("manifest.json");
    let manifest = std::fs::read_to_string(&manifest_path).expect("manifest.json written");
    assert!(manifest.contains("\"schema_version\""), "{manifest}");
    assert!(
        manifest.contains("\"binary\": \"manifest_golden\""),
        "{manifest}"
    );
    assert!(manifest.contains("\"seed\": 7"), "{manifest}");
    for name in EXPECTED_SPANS.iter().chain(EXPECTED_COUNTERS) {
        assert!(
            manifest.contains(&format!("\"{name}\"")),
            "manifest lacks '{name}'"
        );
    }
    // Spans serialize with per-phase timing fields.
    assert!(manifest.contains("\"total_s\""), "{manifest}");
    assert!(manifest.contains("\"mean_ms\""), "{manifest}");

    // Without --serve or --record, finish still takes one resource
    // reading, so crit.json attributes CPU time.
    let crit = aml_telemetry::CritReport::from_json(
        &std::fs::read_to_string(&crit_path).expect("crit.json written"),
    )
    .expect("crit.json parses");
    assert!(crit.nodes > 0, "{crit:?}");
    if aml_telemetry::resource::sample().is_some() {
        assert!(crit.cpu_ns.is_some(), "{crit:?}");
    }

    std::fs::remove_dir_all(&out_dir).ok();
}
