//! `amlinspect` — print and compare the read-side telemetry planes.
//!
//! One inspector for the three per-plane artifacts a run can write:
//!
//! - `crit`: critical-path reports (`crit.json` from `--crit-out`, also
//!   served live at `/crit`) — longest dependency chain, per-phase
//!   serial fraction / Amdahl speedup ceiling, per-scenario datagen costs;
//! - `search`: hyperparameter-search reports (declared-space coverage,
//!   successive-halving rung funnels, fANOVA-lite importance),
//!   recomputed from any `ledger.jsonl`;
//! - `quality`: model/data-quality reports (dataset profiles, PSI drift,
//!   confusion matrix, reliability/ECE calibration), recomputed from any
//!   `ledger.jsonl`.
//!
//! Each input prints as the human-readable table, as the pinned JSON
//! (`--json`; for `crit`, byte-identical to the run's `crit.json`), or —
//! with `--compare A B` — as the before/after delta.
//!
//! Exit codes: 0 ok, 1 input failed to parse, 2 usage error.

use aml_bench::{critview, qualityview, searchview};
use aml_telemetry::{CritReport, QualityReport, SearchReport};
use std::path::{Path, PathBuf};

const USAGE: &str = "\
amlinspect — print and compare crit, search, and quality reports

usage:
  amlinspect PLANE INPUT...
  amlinspect PLANE --compare A B
  amlinspect PLANE --json INPUT

  PLANE                   crit     critical-path reports: crit.json files
                                   written by --crit-out (also served live
                                   at /crit)
                          search   hyperparameter-search reports, recomputed
                                   from ledger.jsonl files written by
                                   --ledger-out
                          quality  model/data-quality reports, recomputed
                                   from ledger.jsonl files
  --compare               diff two inputs (crit: wall / chain / cpu and
                          per-phase deltas; search: fit counts, per-family
                          best score, coverage, top-importance dimension;
                          quality: final accuracy, F1, Brier, ECE, PSI)
  --json                  emit the pinned JSON instead of the table
                          (for crit, byte-identical to the run's
                          --crit-out artifact; for search and quality,
                          identical across worker counts and resume)

exit codes: 0 ok, 1 an input failed to parse, 2 usage error";

struct Opts {
    compare: bool,
    json: bool,
    inputs: Vec<PathBuf>,
}

/// One inspectable plane: its CLI name, what its inputs are called in
/// error messages, and how to run it.
type Plane = (&'static str, &'static str, fn(&Opts) -> i32);

const PLANES: [Plane; 3] = [
    ("crit", "crit.json", |opts| {
        run(
            opts,
            CritReport::from_json,
            CritReport::render_table,
            CritReport::render_json,
            critview::render_compare,
        )
    }),
    ("search", "ledger.jsonl", |opts| {
        run(
            opts,
            searchview::parse_search_ledger,
            SearchReport::render_table,
            SearchReport::render_json,
            searchview::render_compare,
        )
    }),
    ("quality", "ledger.jsonl", |opts| {
        run(
            opts,
            qualityview::parse_quality_ledger,
            QualityReport::render_table,
            QualityReport::render_json,
            qualityview::render_compare,
        )
    }),
];

fn parse_args(args: &[String]) -> Result<(Opts, &'static Plane), String> {
    let Some((name, rest)) = args.split_first() else {
        return Err("expected a plane: crit, search, or quality".into());
    };
    let plane = PLANES
        .iter()
        .find(|(n, _, _)| n == name)
        .ok_or_else(|| format!("unknown plane '{name}' (expected crit, search, or quality)"))?;
    let mut opts = Opts {
        compare: false,
        json: false,
        inputs: Vec::new(),
    };
    for arg in rest {
        match arg.as_str() {
            "--compare" => opts.compare = true,
            "--json" => opts.json = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            path => opts.inputs.push(PathBuf::from(path)),
        }
    }
    if opts.compare && opts.inputs.len() != 2 {
        return Err(format!(
            "--compare expects exactly two inputs, got {}",
            opts.inputs.len()
        ));
    }
    if opts.inputs.is_empty() {
        return Err(format!("expected at least one {} input", plane.1));
    }
    Ok((opts, plane))
}

/// Load, then print every input (or the diff of two) for one plane.
fn run<R>(
    opts: &Opts,
    parse: fn(&str) -> Result<R, String>,
    table: fn(&R) -> String,
    json: fn(&R) -> String,
    compare: fn(&R, &R) -> String,
) -> i32 {
    let load = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| parse(&text).map_err(|e| format!("{}: {e}", path.display())))
    };
    if opts.compare {
        return match (load(&opts.inputs[0]), load(&opts.inputs[1])) {
            (Ok(a), Ok(b)) => {
                print!("{}", compare(&a, &b));
                0
            }
            (a, b) => {
                for result in [a.err(), b.err()].into_iter().flatten() {
                    eprintln!("error: {result}");
                }
                1
            }
        };
    }
    let mut code = 0;
    for path in &opts.inputs {
        match load(path) {
            Ok(report) => {
                if opts.inputs.len() > 1 {
                    println!("== {} ==", path.display());
                }
                print!(
                    "{}",
                    if opts.json {
                        json(&report)
                    } else {
                        table(&report)
                    }
                );
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                code = 1;
            }
        }
    }
    code
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let code = match parse_args(&args) {
        Ok((opts, plane)) => (plane.2)(&opts),
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            2
        }
    };
    if code != 0 {
        std::process::exit(code);
    }
}
