//! Runs the real `amlinspect` binary over a small ledger and a
//! `crit.json` written to a temp dir. For every plane it checks the
//! table, `--json` (byte for byte against the library renderer the live
//! plane serves), `--compare`, and the exit codes: 0 ok, 1 an input
//! failed to parse, 2 usage error.

use aml_bench::{critview, qualityview, searchview};
use aml_telemetry::crit::analyze;
use aml_telemetry::quality::profile_feature;
use aml_telemetry::tracetree::Node;
use aml_telemetry::{CritReport, LedgerEvent, ParamValue, Registry, SpaceDim, SpaceFamily};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A ledger with one search (three knn fits, one failed) and two quality
/// rounds; `shift` scales every score and moves the round-1 train data.
fn ledger(shift: f64) -> String {
    let mut events = vec![LedgerEvent::SearchSpace {
        families: vec![SpaceFamily {
            family: "knn".into(),
            dims: vec![SpaceDim {
                name: "k".into(),
                kind: "int".into(),
                scale: "linear".into(),
                lo: 1.0,
                hi: 8.0,
                choices: vec![],
            }],
        }],
    }];
    for (trial, k, score) in [(0u64, 1i64, Some(0.9)), (1, 4, Some(0.7)), (2, 8, None)] {
        events.push(LedgerEvent::TrialStarted {
            trial,
            family: "knn".into(),
            config: "KnnConfig".into(),
            params: vec![("k".into(), ParamValue::Int(k))],
        });
        events.push(match score {
            Some(score) => LedgerEvent::TrialFinished {
                trial,
                family: "knn".into(),
                score: score * shift,
            },
            None => LedgerEvent::TrialFailed {
                trial,
                family: "knn".into(),
                reason: "error".into(),
            },
        });
    }
    for round in 0..2u64 {
        let values = [0.1, 0.2, 0.3 + 0.5 * round as f64 * shift, 0.9];
        events.push(LedgerEvent::DatasetProfile {
            round,
            split: "train".into(),
            rows: 4,
            class_counts: vec![2, 2],
            features: vec![profile_feature("loss", 0.0, 1.0, 4, &values)],
        });
        events.push(LedgerEvent::ModelDiagnostics {
            round,
            strategy: "Within-ALE".into(),
            rows: 2,
            classes: vec!["ok".into(), "bad".into()],
            confusion: vec![vec![1, 0], vec![1 - round, round]],
            brier: 0.4 * shift,
            bin_count: vec![0, 0, 0, 0, 0, 0, 0, 2, 0, 0],
            bin_conf_sum: vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.5, 0.0, 0.0],
            bin_hit: vec![0, 0, 0, 0, 0, 0, 0, 1 + round, 0, 0],
            ale_band_width: 0.3,
        });
    }
    let mut text = String::from(
        "{\"type\":\"ledger\",\"schema_version\":2,\"run_id\":\"r\",\"workload\":\"w\",\"seed\":1,\"git\":\"g\"}\n",
    );
    for event in &events {
        text.push_str(&event.to_json_line());
        text.push('\n');
    }
    text
}

/// A critical-path report over a small tree; `scale` stretches every span.
fn crit(scale: u64) -> CritReport {
    let node = |id, parent, name: &str, start, total: u64, parallel| Node {
        id,
        parent,
        name: name.to_string(),
        start_ns: start,
        total_ns: total * scale,
        parallel,
    };
    let nodes = vec![
        node(10, 0, "bench.datagen", 0, 2_000_000, false),
        node(11, 10, "netsim.labeling", 100_000, 1_600_000, false),
        node(21, 11, "netsim.scenario", 110_000, 700_000, true),
        node(22, 11, "netsim.scenario", 120_000, 800_000, true),
        node(30, 0, "bench.strategies", 2_100_000, 1_000_000, false),
    ];
    analyze(&nodes, &Registry::new().snapshot())
}

/// Writes the fixtures into a fresh temp dir, one per test, and returns
/// it.
fn fixtures(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aml_amlinspect_{test}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("a.jsonl"), ledger(1.0)).unwrap();
    fs::write(dir.join("b.jsonl"), ledger(0.5)).unwrap();
    fs::write(dir.join("crit_a.json"), crit(1).render_json()).unwrap();
    fs::write(dir.join("crit_b.json"), crit(2).render_json()).unwrap();
    dir
}

/// Run amlinspect in `dir`; returns (stdout, exit code).
fn amlinspect(dir: &Path, args: &[&str]) -> (String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_amlinspect"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn amlinspect");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        out.status.code().expect("exit code"),
    )
}

/// The renderers one plane's output is checked against, applied to
/// inputs A and B.
struct Expected {
    plane: &'static str,
    a: &'static str,
    b: &'static str,
    table: String,
    json: String,
    compare: String,
}

fn expected(dir: &Path) -> Vec<Expected> {
    let read = |name: &str| fs::read_to_string(dir.join(name)).unwrap();
    let (crit_a, crit_b) = (
        CritReport::from_json(&read("crit_a.json")).unwrap(),
        CritReport::from_json(&read("crit_b.json")).unwrap(),
    );
    let (search_a, search_b) = (
        searchview::parse_search_ledger(&read("a.jsonl")).unwrap(),
        searchview::parse_search_ledger(&read("b.jsonl")).unwrap(),
    );
    let (quality_a, quality_b) = (
        qualityview::parse_quality_ledger(&read("a.jsonl")).unwrap(),
        qualityview::parse_quality_ledger(&read("b.jsonl")).unwrap(),
    );
    vec![
        Expected {
            plane: "crit",
            a: "crit_a.json",
            b: "crit_b.json",
            table: crit_a.render_table(),
            json: crit_a.render_json(),
            compare: critview::render_compare(&crit_a, &crit_b),
        },
        Expected {
            plane: "search",
            a: "a.jsonl",
            b: "b.jsonl",
            table: search_a.render_table(),
            json: search_a.render_json(),
            compare: searchview::render_compare(&search_a, &search_b),
        },
        Expected {
            plane: "quality",
            a: "a.jsonl",
            b: "b.jsonl",
            table: quality_a.render_table(),
            json: quality_a.render_json(),
            compare: qualityview::render_compare(&quality_a, &quality_b),
        },
    ]
}

#[test]
fn every_plane_prints_its_table_json_and_compare() {
    let dir = fixtures("views");
    for e in expected(&dir) {
        let plane = e.plane;
        assert_eq!(
            amlinspect(&dir, &[plane, e.a]),
            (e.table.clone(), 0),
            "{plane} table"
        );
        assert_eq!(
            amlinspect(&dir, &[plane, "--json", e.a]),
            (e.json.clone(), 0),
            "{plane} --json"
        );
        assert_eq!(
            amlinspect(&dir, &[plane, "--compare", e.a, e.b]),
            (e.compare.clone(), 0),
            "{plane} --compare"
        );
        // Several inputs print one headed section each.
        assert_eq!(
            amlinspect(&dir, &[plane, e.a, e.a]),
            (format!("== {0} ==\n{1}== {0} ==\n{1}", e.a, e.table), 0),
            "{plane} two inputs"
        );
    }
    // The crit --json output is the crit.json it read, byte for byte.
    assert_eq!(
        amlinspect(&dir, &["crit", "--json", "crit_a.json"]).0,
        fs::read_to_string(dir.join("crit_a.json")).unwrap()
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn rendered_reports_and_missing_files_exit_1() {
    let dir = fixtures("bad_inputs");
    let all = expected(&dir);
    // A rendered search.json or quality.json is no input to any plane.
    fs::write(dir.join("search.json"), &all[1].json).unwrap();
    fs::write(dir.join("quality.json"), &all[2].json).unwrap();
    for e in &all {
        let plane = e.plane;
        for bad in ["search.json", "quality.json", "missing.jsonl"] {
            assert_eq!(
                amlinspect(&dir, &[plane, bad]),
                (String::new(), 1),
                "{plane} {bad}"
            );
            assert_eq!(
                amlinspect(&dir, &[plane, "--json", bad]).1,
                1,
                "{plane} --json {bad}"
            );
            assert_eq!(
                amlinspect(&dir, &[plane, "--compare", e.a, bad]),
                (String::new(), 1),
                "{plane} --compare {bad}"
            );
        }
        // One bad input among good ones still fails the run, after
        // printing the good one.
        let (out, code) = amlinspect(&dir, &[plane, e.a, "missing.jsonl"]);
        assert_eq!(code, 1, "{plane} good + missing");
        assert!(out.contains(&e.table), "{plane}: {out}");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_planes_flags_and_bad_arity_exit_2() {
    let dir = fixtures("usage");
    for args in [
        &[][..],
        &["trace", "a.jsonl"],
        &["search", "--table", "a.jsonl"],
        &["quality", "--ref", "a.jsonl"],
        &["crit", "--compare", "crit_a.json"],
        &["search"],
    ] {
        assert_eq!(amlinspect(&dir, args), (String::new(), 2), "{args:?}");
    }
    // --help prints the usage and exits 0.
    let (out, code) = amlinspect(&dir, &["--help"]);
    assert_eq!(code, 0);
    assert!(out.starts_with("amlinspect"), "{out}");
    fs::remove_dir_all(&dir).ok();
}
