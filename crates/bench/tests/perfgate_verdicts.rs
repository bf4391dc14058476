//! Pins `perfgate`'s gate verdicts end to end: the real binary runs over
//! small fixture BENCH reports, history stores, a quality ledger and a
//! crit artifact written to a temp dir, and every case checks stdout
//! byte for byte plus the exit code (0 pass, 1 regression, 2 usage).
//!
//! The binary runs with the fixture dir as its working directory and
//! relative paths, so the paths echoed in the table headers are stable.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// A BENCH report with two spans and an optional `alloc` block.
fn bench(spans: &[(&str, f64)], alloc: Option<(u64, u64, u64)>) -> String {
    let spans: Vec<String> = spans
        .iter()
        .map(|(name, total)| {
            format!(
                "\n    \"{name}\": {{\"calls\": 1, \"total_s\": {total:.6}, \"mean_ms\": {ms:.6}, \"max_ms\": {ms:.6}}}",
                ms = total * 1e3
            )
        })
        .collect();
    let alloc = match alloc {
        Some((bytes, count, peak)) => {
            format!("{{\"bytes\": {bytes}, \"count\": {count}, \"peak_bytes\": {peak}}}")
        }
        None => "null".into(),
    };
    format!(
        "{{\n  \"schema_version\": 1,\n  \"workload\": \"table1_scream\",\n  \"seed\": 11,\n  \
         \"scale\": 0.050000,\n  \"threads\": 2,\n  \"git\": \"abc1234\",\n  \
         \"wall_time_s\": 10.000000,\n  \"top_span_total_s\": 9.500000,\n  \
         \"spans\": {{{}\n  }},\n  \"counters\": {{}},\n  \"throughput\": {{}},\n  \
         \"histograms\": {{}},\n  \"alloc\": {alloc}\n}}\n",
        spans.join(",")
    )
}

/// One history line for `workload`.
fn history(workload: &str, wall: f64, rss: u64, acc: f64, ece: f64) -> String {
    format!(
        "{{\"type\":\"history\",\"schema_version\":1,\"workload\":\"{workload}\",\"seed\":11,\
         \"git\":\"abc1234\",\"source\":\"perfgate\",\"wall_time_s\":{wall},\
         \"top_span_total_s\":{top},\"peak_rss_bytes\":{rss},\"alloc_peak_bytes\":0,\
         \"final_acc\":{acc},\"trials_finished\":10,\"trials_failed\":0,\"rounds\":3,\
         \"ece\":{ece}}}\n",
        top = wall - 0.5
    )
}

/// Writes every fixture into a fresh temp dir and returns it.
fn fixtures() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aml_perfgate_verdicts_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, text: String| fs::write(dir.join(name), text).unwrap();
    let spans = [("bench.datagen", 7.0), ("bench.strategies", 2.5)];
    write("old.json", bench(&spans, None));
    write(
        "spans.json",
        bench(&[("bench.datagen", 7.2), ("bench.report", 0.1)], None),
    );
    write(
        "alloc.json",
        bench(&spans, Some((50_000_000, 1000, 12_000_000))),
    );
    // Like the committed store: memory never measured (0), quality known.
    write(
        "history.jsonl",
        [
            history("table1_scream", 9.8, 0, 0.74, 0.1),
            history("table2_firewall", 20.0, 0, 0.9, 0.2),
            history("table1_scream", 10.4, 0, 0.76, 0.12),
            history("table1_scream", 10.0, 0, 0.75, 0.11),
        ]
        .concat(),
    );
    // Records that carry a real peak RSS.
    write(
        "history_rss.jsonl",
        [
            history("table1_scream", 9.8, 60 << 20, 0.74, 0.1),
            history("table1_scream", 10.0, 64 << 20, 0.75, 0.11),
        ]
        .concat(),
    );
    // Final round: the round's mean accuracy 0.75 (what --record folds
    // into the history's final_acc), ECE 0.1. The confusion matrix has 6
    // of 8 correct, matching the reliability bins, but a balanced
    // accuracy of 0.8: the gate must read acc_mean, not the matrix.
    write(
        "ledger.jsonl",
        [
            r#"{"type":"ledger","schema_version":2,"run_id":"table1_scream-s11-p1","workload":"table1_scream","seed":11,"git":"abc1234"}"#,
            r#"{"type":"model_diagnostics","round":0,"strategy":"Within-ALE","rows":8,"classes":["a","b"],"confusion":[[3,0],[2,3]],"brier":0.2,"bin_count":[0,0,0,0,0,0,0,0,8,0],"bin_conf_sum":[0,0,0,0,0,0,0,0,6.8,0],"bin_hit":[0,0,0,0,0,0,0,0,6,0],"ale_band_width":0.1}"#,
            r#"{"type":"round_completed","round":0,"strategy":"Within-ALE","acc_mean":0.75,"acc_min":0.75,"acc_max":0.75,"points_added":8,"regions":1,"ale_std_mean":0.05,"ale_std_max":0.1}"#,
            "",
        ]
        .join("\n"),
    );
    write(
        "crit.json",
        concat!(
            r#"{"active":true,"schema_version":1,"wall_ns":10000000000,"cpu_ns":null,"cpu_wall_ratio":null,"#,
            r#""dominant_phase":"bench.datagen","critical_path_ns":9000000000,"critical_path":["#,
            r#"{"name":"bench.datagen","id":"1","depth":0,"total_ns":7000000000,"contribution_ns":6000000000,"parallel":false},"#,
            r#"{"name":"netsim.simulate","id":"2","depth":1,"total_ns":3000000000,"contribution_ns":3000000000,"parallel":true}],"#,
            r#""phases":[{"name":"bench.datagen","total_ns":7000000000,"work_ns":12000000000,"ideal_ns":6000000000,"serial_fraction":0.100000,"max_speedup":10.000000,"subtree_spans":2}],"#,
            r#""amdahl":{"name":"bench.datagen","total_ns":7000000000,"work_ns":12000000000,"ideal_ns":6000000000,"serial_fraction":0.100000,"max_speedup":10.000000,"subtree_spans":2},"#,
            r#""scenarios":null,"nodes":2,"nodes_dropped":0}"#,
            "\n"
        )
        .to_string(),
    );
    dir
}

/// Run perfgate in `dir`; returns (stdout, exit code).
fn perfgate(dir: &PathBuf, args: &[&str]) -> (String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfgate"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn perfgate");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        out.status.code().expect("exit code"),
    )
}

struct Case {
    name: &'static str,
    args: &'static [&'static str],
    stdout: &'static str,
    code: i32,
}

const CASES: &[Case] = &[
    Case {
        name: "compare identical: table",
        args: &["--compare", "old.json", "old.json"],
        stdout: r#"perfgate: table1_scream (abc1234 @ old.json) vs (abc1234 @ old.json)
metric                          old           new     delta
wall_time_s                 10.0000       10.0000     +0.0%
top_span_total_s             9.5000        9.5000     +0.0%
span:bench.datagen           7.0000        7.0000     +0.0%
span:bench.strategies        2.5000        2.5000     +0.0%
4 metric(s) compared, 0 regression(s) at tolerance 10% / floor 5ms
PASS
"#,
        code: 0,
    },
    Case {
        name: "compare identical: json",
        args: &["--compare", "--json", "old.json", "old.json"],
        stdout: r#"{
  "workload": "table1_scream",
  "tolerance_pct": 10,
  "abs_floor_ms": 5,
  "scale": 1,
  "pass": true,
  "regressions": 0,
  "metrics": [
    {
      "metric": "wall_time_s",
      "old": 10,
      "new": 10,
      "delta_pct": 0,
      "regressed": false
    },
    {
      "metric": "top_span_total_s",
      "old": 9.5,
      "new": 9.5,
      "delta_pct": 0,
      "regressed": false
    },
    {
      "metric": "span:bench.datagen",
      "old": 7,
      "new": 7,
      "delta_pct": 0,
      "regressed": false
    },
    {
      "metric": "span:bench.strategies",
      "old": 2.5,
      "new": 2.5,
      "delta_pct": 0,
      "regressed": false
    }
  ],
  "unmatched": []
}
"#,
        code: 0,
    },
    Case {
        name: "compare --scale 2 fails",
        args: &["--compare", "old.json", "old.json", "--scale", "2"],
        stdout: r#"perfgate: table1_scream (abc1234 @ old.json) vs (abc1234 @ old.json)
metric                          old           new     delta
wall_time_s                 10.0000       20.0000   +100.0%  REGRESSION
top_span_total_s             9.5000       19.0000   +100.0%  REGRESSION
span:bench.datagen           7.0000       14.0000   +100.0%  REGRESSION
span:bench.strategies        2.5000        5.0000   +100.0%  REGRESSION
4 metric(s) compared, 4 regression(s) at tolerance 10% / floor 5ms
FAIL
"#,
        code: 1,
    },
    Case {
        name: "compare --scale 2 fails: json",
        args: &[
            "--compare",
            "--json",
            "--scale",
            "2",
            "old.json",
            "old.json",
        ],
        stdout: r#"{
  "workload": "table1_scream",
  "tolerance_pct": 10,
  "abs_floor_ms": 5,
  "scale": 2,
  "pass": false,
  "regressions": 4,
  "metrics": [
    {
      "metric": "wall_time_s",
      "old": 10,
      "new": 20,
      "delta_pct": 100,
      "regressed": true
    },
    {
      "metric": "top_span_total_s",
      "old": 9.5,
      "new": 19,
      "delta_pct": 100,
      "regressed": true
    },
    {
      "metric": "span:bench.datagen",
      "old": 7,
      "new": 14,
      "delta_pct": 100,
      "regressed": true
    },
    {
      "metric": "span:bench.strategies",
      "old": 2.5,
      "new": 5,
      "delta_pct": 100,
      "regressed": true
    }
  ],
  "unmatched": []
}
"#,
        code: 1,
    },
    Case {
        name: "compare --crit embeds the crit fields",
        args: &[
            "--compare",
            "--json",
            "--crit",
            "crit.json",
            "old.json",
            "old.json",
        ],
        stdout: r#"{
  "workload": "table1_scream",
  "tolerance_pct": 10,
  "abs_floor_ms": 5,
  "scale": 1,
  "pass": true,
  "regressions": 0,
  "metrics": [
    {
      "metric": "wall_time_s",
      "old": 10,
      "new": 10,
      "delta_pct": 0,
      "regressed": false
    },
    {
      "metric": "top_span_total_s",
      "old": 9.5,
      "new": 9.5,
      "delta_pct": 0,
      "regressed": false
    },
    {
      "metric": "span:bench.datagen",
      "old": 7,
      "new": 7,
      "delta_pct": 0,
      "regressed": false
    },
    {
      "metric": "span:bench.strategies",
      "old": 2.5,
      "new": 2.5,
      "delta_pct": 0,
      "regressed": false
    }
  ],
  "unmatched": [],
  "crit": {
    "wall_ns": 10000000000,
    "critical_path_ns": 9000000000,
    "dominant_phase": "bench.datagen",
    "serial_fraction": 0.1,
    "max_speedup": 10,
    "top_segments": [
      {
        "name": "bench.datagen",
        "total_ns": 7000000000,
        "contribution_ns": 6000000000,
        "parallel": false
      },
      {
        "name": "netsim.simulate",
        "total_ns": 3000000000,
        "contribution_ns": 3000000000,
        "parallel": true
      }
    ]
  }
}
"#,
        code: 0,
    },
    Case {
        name: "compare --crit appends the crit table",
        args: &["--compare", "--crit", "crit.json", "old.json", "old.json"],
        stdout: r#"perfgate: table1_scream (abc1234 @ old.json) vs (abc1234 @ old.json)
metric                          old           new     delta
wall_time_s                 10.0000       10.0000     +0.0%
top_span_total_s             9.5000        9.5000     +0.0%
span:bench.datagen           7.0000        7.0000     +0.0%
span:bench.strategies        2.5000        2.5000     +0.0%
4 metric(s) compared, 0 regression(s) at tolerance 10% / floor 5ms
critical path (causal trace tree):
  wall 10.00s | chain 9.00s (90.0% of wall) | 2 spans
  dominant phase: bench.datagen
  chain segment                                       total    contrib
  bench.datagen                                       7.00s      6.00s
   netsim.simulate [par]                              3.00s      3.00s
  phase (Amdahl)                      total  serial%  max speedup
  bench.datagen                       7.00s    10.0%        10.0x
  bench.datagen                       7.00s    10.0%        10.0x
PASS
"#,
        code: 0,
    },
    Case {
        name: "compare differing span sets",
        args: &["--compare", "old.json", "spans.json"],
        stdout: r#"perfgate: table1_scream (abc1234 @ old.json) vs (abc1234 @ spans.json)
metric                       old           new     delta
wall_time_s              10.0000       10.0000     +0.0%
top_span_total_s          9.5000        9.5000     +0.0%
span:bench.datagen        7.0000        7.2000     +2.9%
span:bench.strategies  (only in one report; not compared)
span:bench.report   (only in one report; not compared)
3 metric(s) compared, 0 regression(s) at tolerance 10% / floor 5ms
PASS
"#,
        code: 0,
    },
    Case {
        name: "compare differing span sets: json",
        args: &["--compare", "--json", "old.json", "spans.json"],
        stdout: r#"{
  "workload": "table1_scream",
  "tolerance_pct": 10,
  "abs_floor_ms": 5,
  "scale": 1,
  "pass": true,
  "regressions": 0,
  "metrics": [
    {
      "metric": "wall_time_s",
      "old": 10,
      "new": 10,
      "delta_pct": 0,
      "regressed": false
    },
    {
      "metric": "top_span_total_s",
      "old": 9.5,
      "new": 9.5,
      "delta_pct": 0,
      "regressed": false
    },
    {
      "metric": "span:bench.datagen",
      "old": 7,
      "new": 7.2,
      "delta_pct": 2.85714285714286,
      "regressed": false
    }
  ],
  "unmatched": [
    "span:bench.strategies",
    "span:bench.report"
  ]
}
"#,
        code: 0,
    },
    // Not measured on one side: the alloc totals are listed, not gated.
    Case {
        name: "compare alloc-free vs alloc-tracked",
        args: &["--compare", "old.json", "alloc.json"],
        stdout: r#"perfgate: table1_scream (abc1234 @ old.json) vs (abc1234 @ alloc.json)
metric                          old           new     delta
wall_time_s                 10.0000       10.0000     +0.0%
top_span_total_s             9.5000        9.5000     +0.0%
span:bench.datagen           7.0000        7.0000     +0.0%
span:bench.strategies        2.5000        2.5000     +0.0%
alloc.bytes            (only in one report; not compared)
alloc.peak_bytes       (only in one report; not compared)
4 metric(s) compared, 0 regression(s) at tolerance 10% / floor 5ms
PASS
"#,
        code: 0,
    },
    Case {
        name: "compare alloc-tracked pair",
        args: &["--compare", "alloc.json", "alloc.json"],
        stdout: r#"perfgate: table1_scream (abc1234 @ alloc.json) vs (abc1234 @ alloc.json)
metric                          old           new     delta
wall_time_s                 10.0000       10.0000     +0.0%
top_span_total_s             9.5000        9.5000     +0.0%
span:bench.datagen           7.0000        7.0000     +0.0%
span:bench.strategies        2.5000        2.5000     +0.0%
alloc.bytes            50000000.0000  50000000.0000     +0.0%
alloc.peak_bytes       12000000.0000  12000000.0000     +0.0%
6 metric(s) compared, 0 regression(s) at tolerance 10% / floor 5ms
PASS
"#,
        code: 0,
    },
    Case {
        name: "against-history: table",
        args: &[
            "--against-history",
            "5",
            "--history",
            "history.jsonl",
            "old.json",
        ],
        stdout: r#"perfgate: table1_scream (abc1234) vs median of last 3 history record(s) in history.jsonl
metric                     old           new     delta
wall_time_s            10.0000       10.0000     +0.0%
top_span_total_s        9.5000        9.5000     +0.0%
2 metric(s) compared, 0 regression(s) at tolerance 10% / floor 5ms
PASS
"#,
        code: 0,
    },
    Case {
        name: "against-history: json",
        args: &[
            "--against-history",
            "5",
            "--json",
            "--history",
            "history.jsonl",
            "old.json",
        ],
        stdout: r#"{
  "workload": "table1_scream",
  "history_requested": 5,
  "history_n": 3,
  "tolerance_pct": 10,
  "abs_floor_ms": 5,
  "scale": 1,
  "pass": true,
  "regressions": 0,
  "metrics": [
    {
      "metric": "wall_time_s",
      "old": 10,
      "new": 10,
      "delta_pct": 0,
      "regressed": false
    },
    {
      "metric": "top_span_total_s",
      "old": 9.5,
      "new": 9.5,
      "delta_pct": 0,
      "regressed": false
    }
  ],
  "unmatched": []
}
"#,
        code: 0,
    },
    Case {
        name: "against-history window of 2",
        args: &[
            "--against-history",
            "2",
            "--history",
            "history.jsonl",
            "old.json",
            "--scale",
            "1.2",
        ],
        stdout: r#"perfgate: table1_scream (abc1234) vs median of last 2 history record(s) in history.jsonl
metric                     old           new     delta
wall_time_s            10.0000       12.0000    +20.0%  REGRESSION
top_span_total_s        9.5000       11.4000    +20.0%  REGRESSION
2 metric(s) compared, 2 regression(s) at tolerance 10% / floor 5ms
FAIL
"#,
        code: 1,
    },
    Case {
        name: "against-history empty store",
        args: &[
            "--against-history",
            "5",
            "--history",
            "missing.jsonl",
            "old.json",
        ],
        stdout: r#"PASS (no history)
"#,
        code: 0,
    },
    Case {
        name: "against-history empty store: json",
        args: &[
            "--against-history",
            "5",
            "--json",
            "--history",
            "missing.jsonl",
            "old.json",
        ],
        stdout: r#"{
  "workload": "table1_scream",
  "history_requested": 5,
  "history_n": 0,
  "tolerance_pct": 10,
  "abs_floor_ms": 5,
  "scale": 1,
  "pass": true,
  "regressions": 0,
  "metrics": [],
  "unmatched": []
}
"#,
        code: 0,
    },
    Case {
        name: "gate-quality passes",
        args: &[
            "--against-history",
            "5",
            "--history",
            "history.jsonl",
            "--gate-quality",
            "--quality",
            "ledger.jsonl",
            "old.json",
        ],
        stdout: r#"perfgate: table1_scream (abc1234) vs median of last 3 history record(s) in history.jsonl
metric                     old           new     delta
wall_time_s            10.0000       10.0000     +0.0%
top_span_total_s        9.5000        9.5000     +0.0%
final_acc               0.7500        0.7500     +0.0%
ece                     0.1100        0.1000     -9.1%
4 metric(s) compared, 0 regression(s) at tolerance 10% / floor 5ms
PASS
"#,
        code: 0,
    },
    Case {
        name: "gate-quality passes: json",
        args: &[
            "--against-history",
            "5",
            "--json",
            "--history",
            "history.jsonl",
            "--gate-quality",
            "--quality",
            "ledger.jsonl",
            "old.json",
        ],
        stdout: r#"{
  "workload": "table1_scream",
  "history_requested": 5,
  "history_n": 3,
  "tolerance_pct": 10,
  "abs_floor_ms": 5,
  "scale": 1,
  "pass": true,
  "regressions": 0,
  "metrics": [
    {
      "metric": "wall_time_s",
      "old": 10,
      "new": 10,
      "delta_pct": 0,
      "regressed": false
    },
    {
      "metric": "top_span_total_s",
      "old": 9.5,
      "new": 9.5,
      "delta_pct": 0,
      "regressed": false
    },
    {
      "metric": "final_acc",
      "old": 0.75,
      "new": 0.75,
      "delta_pct": 0,
      "regressed": false
    },
    {
      "metric": "ece",
      "old": 0.11,
      "new": 0.09999999999999998,
      "delta_pct": -9.090909090909111,
      "regressed": false
    }
  ],
  "unmatched": []
}
"#,
        code: 0,
    },
    Case {
        name: "gate-quality --acc-scale 0.5 fails",
        args: &[
            "--against-history",
            "5",
            "--history",
            "history.jsonl",
            "--gate-quality",
            "--quality",
            "ledger.jsonl",
            "--acc-scale",
            "0.5",
            "old.json",
        ],
        stdout: r#"perfgate: table1_scream (abc1234) vs median of last 3 history record(s) in history.jsonl
metric                     old           new     delta
wall_time_s            10.0000       10.0000     +0.0%
top_span_total_s        9.5000        9.5000     +0.0%
final_acc               0.7500        0.3750    -50.0%  REGRESSION
ece                     0.1100        0.1000     -9.1%
4 metric(s) compared, 1 regression(s) at tolerance 10% / floor 5ms
FAIL
"#,
        code: 1,
    },
    Case {
        name: "gate-quality empty store",
        args: &[
            "--against-history",
            "5",
            "--history",
            "missing.jsonl",
            "--gate-quality",
            "--quality",
            "ledger.jsonl",
            "old.json",
        ],
        stdout: r#"PASS (no history)
"#,
        code: 0,
    },
    // No --quality artifact: the new run did not measure quality.
    Case {
        name: "gate-quality without --quality",
        args: &[
            "--against-history",
            "5",
            "--history",
            "history.jsonl",
            "--gate-quality",
            "old.json",
        ],
        stdout: r#"perfgate: table1_scream (abc1234) vs median of last 3 history record(s) in history.jsonl
metric                     old           new     delta
wall_time_s            10.0000       10.0000     +0.0%
top_span_total_s        9.5000        9.5000     +0.0%
final_acc         (only in one report; not compared)
ece               (only in one report; not compared)
2 metric(s) compared, 0 regression(s) at tolerance 10% / floor 5ms
PASS
"#,
        code: 0,
    },
    // A store whose memory is 0 never measured it: listed, not a
    // regression from a zero baseline.
    Case {
        name: "alloc-tracked BENCH vs alloc-free store",
        args: &[
            "--against-history",
            "5",
            "--history",
            "history.jsonl",
            "alloc.json",
        ],
        stdout: r#"perfgate: table1_scream (abc1234) vs median of last 3 history record(s) in history.jsonl
metric                     old           new     delta
wall_time_s            10.0000       10.0000     +0.0%
top_span_total_s        9.5000        9.5000     +0.0%
alloc.peak_bytes  (only in one report; not compared)
2 metric(s) compared, 0 regression(s) at tolerance 10% / floor 5ms
PASS
"#,
        code: 0,
    },
    Case {
        name: "alloc-tracked BENCH vs alloc-free store: json",
        args: &[
            "--against-history",
            "5",
            "--json",
            "--history",
            "history.jsonl",
            "alloc.json",
        ],
        stdout: r#"{
  "workload": "table1_scream",
  "history_requested": 5,
  "history_n": 3,
  "tolerance_pct": 10,
  "abs_floor_ms": 5,
  "scale": 1,
  "pass": true,
  "regressions": 0,
  "metrics": [
    {
      "metric": "wall_time_s",
      "old": 10,
      "new": 10,
      "delta_pct": 0,
      "regressed": false
    },
    {
      "metric": "top_span_total_s",
      "old": 9.5,
      "new": 9.5,
      "delta_pct": 0,
      "regressed": false
    }
  ],
  "unmatched": [
    "alloc.peak_bytes"
  ]
}
"#,
        code: 0,
    },
    // A BENCH report carries no RSS, so the store's peak RSS is unmatched.
    Case {
        name: "BENCH vs store with peak RSS",
        args: &[
            "--against-history",
            "5",
            "--history",
            "history_rss.jsonl",
            "old.json",
        ],
        stdout: r#"perfgate: table1_scream (abc1234) vs median of last 2 history record(s) in history_rss.jsonl
metric                     old           new     delta
wall_time_s             9.8000       10.0000     +2.0%
top_span_total_s        9.3000        9.5000     +2.2%
peak_rss_bytes    (only in one report; not compared)
2 metric(s) compared, 0 regression(s) at tolerance 10% / floor 5ms
PASS
"#,
        code: 0,
    },
    Case {
        name: "usage: compare needs two paths",
        args: &["--compare", "old.json"],
        stdout: r#""#,
        code: 2,
    },
    Case {
        name: "usage: gate-quality with compare",
        args: &["--compare", "old.json", "old.json", "--gate-quality"],
        stdout: r#""#,
        code: 2,
    },
    Case {
        name: "usage: history with compare",
        args: &[
            "--compare",
            "old.json",
            "old.json",
            "--history",
            "history.jsonl",
        ],
        stdout: r#""#,
        code: 2,
    },
    Case {
        name: "usage: quality without gate-quality",
        args: &[
            "--against-history",
            "5",
            "--quality",
            "ledger.jsonl",
            "old.json",
        ],
        stdout: r#""#,
        code: 2,
    },
    Case {
        name: "usage: zero window",
        args: &["--against-history", "0", "old.json"],
        stdout: r#""#,
        code: 2,
    },
    Case {
        name: "usage: no reports",
        args: &["--against-history", "5"],
        stdout: r#""#,
        code: 2,
    },
    Case {
        name: "usage: negative tolerance",
        args: &["--compare", "--tolerance", "-1", "old.json", "old.json"],
        stdout: r#""#,
        code: 2,
    },
    Case {
        name: "usage: acc-scale zero",
        args: &[
            "--against-history",
            "5",
            "--gate-quality",
            "--acc-scale",
            "0",
            "old.json",
        ],
        stdout: r#""#,
        code: 2,
    },
    Case {
        name: "usage: unknown flag",
        args: &["--compare", "--bogus", "old.json", "old.json"],
        stdout: r#""#,
        code: 2,
    },
    Case {
        name: "usage: missing report",
        args: &["--compare", "old.json", "nope.json"],
        stdout: r#""#,
        code: 2,
    },
];

#[test]
fn perfgate_verdicts_are_pinned() {
    let dir = fixtures();
    let mut failures = Vec::new();
    for case in CASES {
        let (stdout, code) = perfgate(&dir, case.args);
        if stdout != case.stdout || code != case.code {
            failures.push(format!(
                "case {}: exit {code} (want {})\n--- stdout ---\n{stdout}--- want ---\n{}",
                case.name, case.code, case.stdout
            ));
        }
    }
    let _ = fs::remove_dir_all(&dir);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
