//! `amlreport` — aggregate experiment ledgers and BENCH perf records
//! into one self-contained HTML report (see [`aml_bench::amlreport`]).
//!
//! Inputs are classified by file name: `BENCH_*.json` files are perf
//! records, `crit*.json` files are critical-path reports (`--crit-out`),
//! everything else is parsed as a `ledger.jsonl`. The CI perfgate job
//! runs this over the gate trio's exports and uploads the HTML as a
//! build artifact.
//!
//! `--compare A.jsonl B.jsonl` renders a cross-run diff instead:
//! per-round accuracy deltas, ensemble composition changes, and
//! region-suggestion drift between exactly two ledgers.
//!
//! Exit codes: 0 ok, 1 input failed to parse, 2 usage error.

use aml_bench::amlreport::{parse_ledger, render_compare_html, render_html, LedgerData};
use aml_bench::report::BenchReport;
use aml_bench::value_of;
use aml_telemetry::quality::QualityCollector;
use aml_telemetry::searchview::SearchCollector;
use aml_telemetry::{CritReport, Fold, QualityReport, SearchReport};
use std::path::{Path, PathBuf};

const USAGE: &str = "\
amlreport — render ledgers + BENCH records into one self-contained HTML page

usage:
  amlreport [--out PATH] [--title TITLE] INPUT...
  amlreport --compare A.jsonl B.jsonl [--out PATH] [--title TITLE]

  INPUT                   ledger.jsonl files, BENCH_<workload>.json
                          records, and/or crit*.json critical-path
                          reports (classified by file name)
  --compare               diff two ledgers: per-round accuracy delta,
                          ensemble composition changes, region drift
                          (requires exactly two ledger inputs)
  --out PATH              output HTML path (default amlreport.html)
  --title TITLE           report title (default 'AutoML run report')

exit codes: 0 ok, 1 an input failed to parse, 2 usage error";

struct Opts {
    out: PathBuf,
    title: String,
    compare: bool,
    inputs: Vec<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        out: PathBuf::from("amlreport.html"),
        title: "AutoML run report".into(),
        compare: false,
        inputs: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => opts.out = PathBuf::from(value_of(args, &mut i, "--out")?),
            "--title" => opts.title = value_of(args, &mut i, "--title")?.to_string(),
            "--compare" => opts.compare = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            path => opts.inputs.push(PathBuf::from(path)),
        }
        i += 1;
    }
    if opts.compare {
        if opts.inputs.len() != 2 {
            return Err(format!(
                "--compare expects exactly two ledger inputs, got {}",
                opts.inputs.len()
            ));
        }
        if opts
            .inputs
            .iter()
            .any(|p| is_bench_record(p) || is_crit_record(p))
        {
            return Err("--compare takes ledger files, not BENCH/crit records".into());
        }
    } else if opts.inputs.is_empty() {
        return Err("expected at least one input file".into());
    }
    Ok(opts)
}

fn is_bench_record(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
}

/// `crit.json` as written by `--crit-out`, or any `crit*.json` a caller
/// renamed to keep several side by side.
fn is_crit_record(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("crit") && n.ends_with(".json"))
}

fn load_ledger(path: &Path) -> Result<LedgerData, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
        .and_then(|text| parse_ledger(&text).map_err(|e| format!("{}: {e}", path.display())))
}

fn load_crit(path: &Path) -> Result<CritReport, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
        .and_then(|text| {
            CritReport::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
        })
}

fn run_compare(opts: &Opts) -> i32 {
    let title = if opts.title == "AutoML run report" {
        "AutoML run comparison".to_string()
    } else {
        opts.title.clone()
    };
    let (a, b) = match (load_ledger(&opts.inputs[0]), load_ledger(&opts.inputs[1])) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for result in [a, b] {
                if let Err(msg) = result {
                    eprintln!("error: {msg}");
                }
            }
            return 1;
        }
    };
    // Quality reports feed the header's final-acc/ECE deltas; ledgers
    // without quality events simply omit that header line.
    let quality = |l: &LedgerData| {
        Some(QualityCollector::from_events(&l.events).report()).filter(|q| !q.rounds.is_empty())
    };
    let (qa, qb) = (quality(&a), quality(&b));
    let html = render_compare_html(&a, &b, qa.as_ref(), qb.as_ref(), &title);
    if let Err(e) = std::fs::write(&opts.out, &html) {
        eprintln!("error: cannot write {}: {e}", opts.out.display());
        return 1;
    }
    println!(
        "amlreport: wrote {} (compare {} vs {}, {} bytes)",
        opts.out.display(),
        a.header.run_id,
        b.header.run_id,
        html.len()
    );
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if opts.compare {
        std::process::exit(run_compare(&opts));
    }

    let mut ledgers: Vec<LedgerData> = Vec::new();
    let mut benches: Vec<BenchReport> = Vec::new();
    let mut crits: Vec<CritReport> = Vec::new();
    let mut searches: Vec<SearchReport> = Vec::new();
    let mut qualities: Vec<QualityReport> = Vec::new();
    let mut failed = false;
    for path in &opts.inputs {
        let result: Result<(), String> = if is_bench_record(path) {
            BenchReport::load(path).map(|b| benches.push(b))
        } else if is_crit_record(path) {
            load_crit(path).map(|c| crits.push(c))
        } else {
            // Each ledger feeds three sections: the events themselves
            // plus the search and quality reports folded from them.
            load_ledger(path).map(|l| {
                searches.push(SearchCollector::from_events(&l.events).report());
                qualities.push(QualityCollector::from_events(&l.events).report());
                ledgers.push(l);
            })
        };
        if let Err(msg) = result {
            eprintln!("error: {msg}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }

    let html = render_html(
        &ledgers,
        &benches,
        &crits,
        &searches,
        &qualities,
        &opts.title,
    );
    if let Err(e) = std::fs::write(&opts.out, &html) {
        eprintln!("error: cannot write {}: {e}", opts.out.display());
        std::process::exit(1);
    }
    println!(
        "amlreport: wrote {} ({} ledgers, {} BENCH records, {} crit reports, {} bytes)",
        opts.out.display(),
        ledgers.len(),
        benches.len(),
        crits.len(),
        html.len()
    );
}
