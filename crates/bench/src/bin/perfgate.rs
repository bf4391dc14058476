//! `perfgate` — the perf-regression gate (DESIGN.md §6).
//!
//! Three modes:
//!
//! * **Run** (default): execute the benchmark workloads at a fixed seed,
//!   collect their `BENCH_<workload>.json` reports over a few repeats,
//!   and write the per-workload median report into the output directory.
//!   Workload binaries are found next to `perfgate` itself (they are
//!   cargo siblings in `target/<profile>/`). With `--record` each
//!   workload additionally appends one cross-run history record (median
//!   perf + the rep-0 ledger's accuracy/trial summary) to the
//!   append-only history store.
//! * **Compare** (`--compare OLD NEW`): diff two reports with the gate
//!   math in [`aml_bench::gate`] and exit nonzero on regression, with a
//!   human-readable table either way.
//! * **Against history** (`--against-history N NEW...`): gate each BENCH
//!   report against the rolling median of the last N history records of
//!   its workload, so a regression is judged against the trajectory
//!   instead of one frozen baseline. Missing history passes with a
//!   warning (a brand-new workload must not fail CI).
//!
//! Exit codes: 0 pass, 1 regression (or a workload failed to run),
//! 2 usage error.

use aml_bench::critview::parse_crit;
use aml_bench::gate::{
    compare, gate_against_history, gate_quality_against_history, history_baseline, parse_history,
    GateConfig, GateOutcome,
};
use aml_bench::qualityview::parse_quality_artifact;
use aml_bench::report::{median_report, BenchReport};
use aml_telemetry::history::DEFAULT_HISTORY_PATH;
use aml_telemetry::json::Value;
use aml_telemetry::{ledger, CritReport, Fold, HistoryRecord, LedgerSummary};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "\
perfgate — run benchmark workloads and gate on perf regressions

usage:
  perfgate [run options]            run workloads, write BENCH_<w>.json
  perfgate --compare OLD NEW [...]  diff two BENCH reports, exit 1 on regression
  perfgate --against-history N NEW... [...]
                                    gate BENCH reports against the rolling
                                    median of the last N history records

run options:
  --workloads A,B,C       comma-separated workload binaries
                          (default table1_scream,table2_firewall,threshold_sweep)
  --repeats N             repeats per workload, median-aggregated (default 3)
  --seed N                seed passed to every workload (default 11)
  --threads N             worker threads per workload (default 2)
  --out DIR               output directory (default target/perfgate)
  --full                  run at paper scale instead of --quick
  --record [PATH]         append one history record per workload (median perf
                          + rep-0 ledger summary) to PATH
                          (default results/history/history.jsonl)
  --timeout MS            kill a workload running longer than MS milliseconds;
                          writes TIMEOUT_<workload>.json (timed_out: true)
                          into the output directory and exits nonzero
  --fault-plan SPEC       forward a deterministic fault plan to every
                          workload (see the workload binaries' --help)

compare / against-history options:
  --history PATH          history store to gate against
                          (default results/history/history.jsonl)
  --tolerance PCT         allowed relative growth in percent (default 10)
  --abs-floor-ms MS       absolute growth floor in milliseconds (default 5)
  --scale F               multiply NEW's timings by F before comparing
                          (test hook: --scale 2 must trip the gate)
  --json                  print the verdict as JSON instead of the table
                          (same exit codes; schema in gate::render_json,
                          plus history_requested/history_n for
                          --against-history; history_n 0 = no baseline,
                          vacuous pass)
  --crit PATH             attach the critical-path summary from a
                          --crit-out artifact (run mode writes one to
                          <out>/<workload>/crit.json): the top spans by
                          contribution land in the --json verdict under
                          \"crit\", table mode appends the crit table.
                          An unreadable file warns and is skipped
  --gate-quality          (against-history only) additionally gate model
                          quality — final balanced accuracy (a *drop*
                          regresses) and ECE — against the history
                          medians; metrics absent on either side pass
                          vacuously
  --quality PATH          quality artifact supplying the new run's
                          final-accuracy/ECE measurements for
                          --gate-quality: a ledger.jsonl (run mode writes
                          one to <out>/<workload>/ledger.jsonl) or a
                          --quality-out quality.json
  --acc-scale F           multiply the new run's final accuracy by F
                          before gating (test hook: --acc-scale 0.5 must
                          trip --gate-quality)

exit codes: 0 pass, 1 regression or run failure, 2 usage error";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let code = if args.iter().any(|a| a == "--against-history") {
        match parse_against(&args).map(run_against) {
            Ok(code) => code,
            Err(msg) => usage_error(&msg),
        }
    } else if args.iter().any(|a| a == "--compare") {
        match parse_compare(&args).map(run_compare) {
            Ok(code) => code,
            Err(msg) => usage_error(&msg),
        }
    } else {
        match parse_run(&args).map(run_workloads) {
            Ok(code) => code,
            Err(msg) => usage_error(&msg),
        }
    };
    std::process::exit(code);
}

fn usage_error(msg: &str) -> i32 {
    eprintln!("error: {msg}\n\n{USAGE}");
    2
}

// ---------------------------------------------------------------- compare

struct CompareOpts {
    old: PathBuf,
    new: PathBuf,
    cfg: GateConfig,
    json: bool,
    crit: Option<PathBuf>,
}

fn parse_compare(args: &[String]) -> Result<CompareOpts, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut cfg = GateConfig::default();
    let mut json = false;
    let mut crit = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--compare" => {}
            "--json" => json = true,
            "--crit" => crit = Some(PathBuf::from(str_value(args, &mut i, "--crit")?)),
            "--tolerance" => cfg.tolerance_pct = float_value(args, &mut i, "--tolerance")?,
            "--abs-floor-ms" => {
                cfg.abs_floor_s = float_value(args, &mut i, "--abs-floor-ms")? / 1e3;
            }
            "--scale" => cfg.scale_new = float_value(args, &mut i, "--scale")?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            path => paths.push(PathBuf::from(path)),
        }
        i += 1;
    }
    if cfg.tolerance_pct < 0.0 || cfg.abs_floor_s < 0.0 || cfg.scale_new <= 0.0 {
        return Err("--tolerance/--abs-floor-ms must be >= 0 and --scale > 0".into());
    }
    match <[PathBuf; 2]>::try_from(paths) {
        Ok([old, new]) => Ok(CompareOpts {
            old,
            new,
            cfg,
            json,
            crit,
        }),
        Err(other) => Err(format!(
            "--compare expects exactly two report paths, got {}",
            other.len()
        )),
    }
}

fn run_compare(opts: CompareOpts) -> i32 {
    let load = |path: &Path| -> Result<BenchReport, String> {
        BenchReport::load(path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (old, new) = match (load(&opts.old), load(&opts.new)) {
        (Ok(old), Ok(new)) => (old, new),
        (old, new) => {
            for err in [old.err(), new.err()].into_iter().flatten() {
                eprintln!("error: {err}");
            }
            return 2;
        }
    };
    let outcome = compare(&old, &new, &opts.cfg);
    let crit = opts.crit.as_deref().and_then(load_crit);
    if opts.json {
        println!(
            "{}",
            outcome.render_json_with(&old.workload, &opts.cfg, crit_fields(crit.as_ref()))
        );
        return i32::from(!outcome.passed());
    }
    println!(
        "perfgate: {} ({} @ {}) vs ({} @ {})",
        old.workload,
        old.git,
        opts.old.display(),
        new.git,
        opts.new.display()
    );
    print!("{}", outcome.render_table(&opts.cfg));
    if let Some(report) = &crit {
        print!("{}", report.render_table());
    }
    if outcome.passed() {
        println!("PASS");
        0
    } else {
        println!("FAIL");
        1
    }
}

// ---------------------------------------------------------- against-history

struct AgainstOpts {
    n: usize,
    history: PathBuf,
    reports: Vec<PathBuf>,
    cfg: GateConfig,
    json: bool,
    crit: Option<PathBuf>,
    gate_quality: bool,
    quality: Option<PathBuf>,
    acc_scale: f64,
}

fn parse_against(args: &[String]) -> Result<AgainstOpts, String> {
    let mut opts = AgainstOpts {
        n: 0,
        history: PathBuf::from(DEFAULT_HISTORY_PATH),
        reports: Vec::new(),
        cfg: GateConfig::default(),
        json: false,
        crit: None,
        gate_quality: false,
        quality: None,
        acc_scale: 1.0,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--against-history" => {
                opts.n = int_value(args, &mut i, "--against-history")? as usize;
                if opts.n == 0 {
                    return Err("--against-history expects a window of >= 1 records".into());
                }
            }
            "--history" => opts.history = PathBuf::from(str_value(args, &mut i, "--history")?),
            "--json" => opts.json = true,
            "--crit" => opts.crit = Some(PathBuf::from(str_value(args, &mut i, "--crit")?)),
            "--gate-quality" => opts.gate_quality = true,
            "--quality" => {
                opts.quality = Some(PathBuf::from(str_value(args, &mut i, "--quality")?))
            }
            "--acc-scale" => opts.acc_scale = float_value(args, &mut i, "--acc-scale")?,
            "--tolerance" => opts.cfg.tolerance_pct = float_value(args, &mut i, "--tolerance")?,
            "--abs-floor-ms" => {
                opts.cfg.abs_floor_s = float_value(args, &mut i, "--abs-floor-ms")? / 1e3;
            }
            "--scale" => opts.cfg.scale_new = float_value(args, &mut i, "--scale")?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            path => opts.reports.push(PathBuf::from(path)),
        }
        i += 1;
    }
    if opts.cfg.tolerance_pct < 0.0 || opts.cfg.abs_floor_s < 0.0 || opts.cfg.scale_new <= 0.0 {
        return Err("--tolerance/--abs-floor-ms must be >= 0 and --scale > 0".into());
    }
    if opts.acc_scale <= 0.0 {
        return Err("--acc-scale must be > 0".into());
    }
    if opts.quality.is_some() && !opts.gate_quality {
        return Err("--quality requires --gate-quality".into());
    }
    if opts.reports.is_empty() {
        return Err("--against-history expects at least one BENCH report path".into());
    }
    Ok(opts)
}

/// The new run's quality measurements for `--gate-quality`, from a
/// `--quality` artifact (ledger.jsonl or quality.json). Problems warn
/// and return nothing — the quality gate then passes vacuously rather
/// than failing on a missing artifact. Balanced accuracy is the
/// measurement because the history's `final_acc` is the experiment
/// loop's balanced-accuracy mean — the gate must compare like to like.
fn quality_measurements(path: &Path) -> (Option<f64>, Option<f64>) {
    let attempt = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_quality_artifact(&text));
    match attempt {
        Ok(report) => match report.rounds.last() {
            Some(last) => (
                Some(last.balanced_accuracy).filter(|a| a.is_finite()),
                Some(last.ece).filter(|e| e.is_finite()),
            ),
            None => {
                eprintln!(
                    "perfgate: warning: --quality {}: no quality rounds recorded",
                    path.display()
                );
                (None, None)
            }
        },
        Err(e) => {
            eprintln!("perfgate: warning: --quality {}: {e}", path.display());
            (None, None)
        }
    }
}

fn run_against(opts: AgainstOpts) -> i32 {
    // A missing store is the day-one case, not an error: every workload
    // then passes vacuously (with a warning) until --record seeds it.
    let text = std::fs::read_to_string(&opts.history).unwrap_or_default();
    let records = parse_history(&text);
    // One --crit artifact attaches to every verdict printed (CI gates one
    // report at a time, where this is unambiguous).
    let crit = opts.crit.as_deref().and_then(load_crit);
    // The new run's quality measurements, when --gate-quality was given
    // with a --quality artifact; absent measurements pass vacuously.
    let (quality_acc, quality_ece) = match (opts.gate_quality, &opts.quality) {
        (true, Some(path)) => quality_measurements(path),
        _ => (None, None),
    };
    let mut failed = false;
    for path in &opts.reports {
        let report = match BenchReport::load(path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                return 2;
            }
        };
        let new = HistoryRecord {
            workload: report.workload.clone(),
            seed: report.seed,
            git: report.git.clone(),
            source: "report".into(),
            wall_time_s: report.wall_time_s,
            top_span_total_s: report.top_span_total_s,
            peak_rss_bytes: 0,
            alloc_peak_bytes: report.alloc.as_ref().map_or(0, |a| a.peak_bytes),
            final_acc: quality_acc.map(|a| a * opts.acc_scale),
            trials_finished: 0,
            trials_failed: 0,
            rounds: 0,
            ece: quality_ece,
        };
        match history_baseline(&records, &report.workload, opts.n) {
            Some(baseline) => {
                let mut outcome = gate_against_history(&baseline, &new, &opts.cfg);
                if opts.gate_quality {
                    outcome
                        .diffs
                        .extend(gate_quality_against_history(&baseline, &new, &opts.cfg).diffs);
                }
                if opts.json {
                    println!(
                        "{}",
                        outcome.render_history_json_with(
                            &report.workload,
                            &opts.cfg,
                            opts.n,
                            baseline.n_used,
                            crit_fields(crit.as_ref()),
                        )
                    );
                } else {
                    println!(
                        "perfgate: {} ({}) vs median of last {} history record(s) in {}",
                        report.workload,
                        report.git,
                        baseline.n_used,
                        opts.history.display()
                    );
                    print!("{}", outcome.render_table(&opts.cfg));
                    if let Some(report) = &crit {
                        print!("{}", report.render_table());
                    }
                    println!("{}", if outcome.passed() { "PASS" } else { "FAIL" });
                }
                failed |= !outcome.passed();
            }
            None => {
                let empty = GateOutcome {
                    diffs: vec![],
                    unmatched: vec![],
                };
                if opts.json {
                    println!(
                        "{}",
                        empty.render_history_json_with(
                            &report.workload,
                            &opts.cfg,
                            opts.n,
                            0,
                            crit_fields(crit.as_ref()),
                        )
                    );
                } else {
                    eprintln!(
                        "perfgate: warning: no history for {} in {} — passing by default \
                         (run with --record to seed the store)",
                        report.workload,
                        opts.history.display()
                    );
                    println!("PASS (no history)");
                }
            }
        }
    }
    i32::from(failed)
}

// ------------------------------------------------------------------- crit

/// Load a `--crit` artifact for embedding in a verdict. Problems warn and
/// return `None` — attaching context must never flip the gate itself.
fn load_crit(path: &Path) -> Option<CritReport> {
    let attempt = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_crit(&text));
    match attempt {
        Ok(report) => Some(report),
        Err(e) => {
            eprintln!("perfgate: warning: --crit {}: {e}", path.display());
            None
        }
    }
}

/// The `"crit"` object appended to `--json` verdicts: the Amdahl ceiling
/// plus the critical-path spans that contribute the most wall time, so a
/// regression verdict carries the "where did it go" answer inline.
fn crit_fields(report: Option<&CritReport>) -> Vec<(String, Value)> {
    let Some(report) = report else {
        return Vec::new();
    };
    let mut segments: Vec<_> = report.path.iter().collect();
    segments.sort_by(|a, b| {
        b.contribution_ns
            .cmp(&a.contribution_ns)
            .then_with(|| a.name.cmp(&b.name))
    });
    let top: Vec<Value> = segments
        .into_iter()
        .take(5)
        .map(|s| {
            Value::Obj(vec![
                ("name".into(), Value::Str(s.name.clone())),
                ("total_ns".into(), Value::Num(s.total_ns as f64)),
                (
                    "contribution_ns".into(),
                    Value::Num(s.contribution_ns as f64),
                ),
                ("parallel".into(), Value::Bool(s.parallel)),
            ])
        })
        .collect();
    vec![(
        "crit".into(),
        Value::Obj(vec![
            ("wall_ns".into(), Value::Num(report.wall_ns as f64)),
            (
                "critical_path_ns".into(),
                Value::Num(report.critical_path_ns as f64),
            ),
            (
                "dominant_phase".into(),
                Value::Str(report.dominant_phase.clone()),
            ),
            (
                "serial_fraction".into(),
                Value::Num(report.amdahl.serial_fraction),
            ),
            ("max_speedup".into(), Value::Num(report.amdahl.max_speedup)),
            ("top_segments".into(), Value::Arr(top)),
        ]),
    )]
}

// -------------------------------------------------------------------- run

struct RunPlanOpts {
    workloads: Vec<String>,
    repeats: usize,
    seed: u64,
    threads: usize,
    out: PathBuf,
    full: bool,
    record: Option<PathBuf>,
    timeout: Option<Duration>,
    fault_plan: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunPlanOpts, String> {
    let mut opts = RunPlanOpts {
        workloads: ["table1_scream", "table2_firewall", "threshold_sweep"]
            .map(String::from)
            .to_vec(),
        repeats: 3,
        seed: 11,
        threads: 2,
        out: PathBuf::from("target/perfgate"),
        full: false,
        record: None,
        timeout: None,
        fault_plan: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workloads" => {
                opts.workloads = str_value(args, &mut i, "--workloads")?
                    .split(',')
                    .filter(|w| !w.is_empty())
                    .map(String::from)
                    .collect();
                if opts.workloads.is_empty() {
                    return Err("--workloads expects at least one name".into());
                }
            }
            "--repeats" => {
                opts.repeats = int_value(args, &mut i, "--repeats")? as usize;
                if opts.repeats == 0 {
                    return Err("--repeats must be >= 1".into());
                }
            }
            "--seed" => opts.seed = int_value(args, &mut i, "--seed")?,
            "--threads" => {
                opts.threads = int_value(args, &mut i, "--threads")? as usize;
                if opts.threads == 0 {
                    return Err("--threads must be >= 1".into());
                }
            }
            "--out" => opts.out = PathBuf::from(str_value(args, &mut i, "--out")?),
            "--full" => opts.full = true,
            "--record" => {
                // The path is optional: a following flag (or nothing)
                // means "use the default store".
                opts.record = Some(match args.get(i + 1).map(String::as_str) {
                    Some(v) if !v.starts_with("--") => {
                        i += 1;
                        PathBuf::from(v)
                    }
                    _ => PathBuf::from(DEFAULT_HISTORY_PATH),
                });
            }
            "--timeout" => {
                let ms = int_value(args, &mut i, "--timeout")?;
                if ms == 0 {
                    return Err("--timeout must be >= 1 ms".into());
                }
                opts.timeout = Some(Duration::from_millis(ms));
            }
            "--fault-plan" => {
                let spec = str_value(args, &mut i, "--fault-plan")?;
                // Validate here so typos are usage errors, not per-child
                // failures; the spec is forwarded verbatim.
                aml_faults::FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}"))?;
                opts.fault_plan = Some(spec.to_string());
            }
            unknown => return Err(format!("unknown flag '{unknown}'")),
        }
        i += 1;
    }
    Ok(opts)
}

fn run_workloads(opts: RunPlanOpts) -> i32 {
    let bin_dir = match std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
    {
        Some(dir) => dir,
        None => {
            eprintln!("error: cannot locate the benchmark binaries next to perfgate");
            return 1;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("error: cannot create --out {}: {e}", opts.out.display());
        return 2;
    }
    let mut failed = false;
    for workload in &opts.workloads {
        match run_one_workload(&bin_dir, workload, &opts) {
            Ok((path, median)) => {
                println!("perfgate: wrote {}", path.display());
                if let Some(store) = &opts.record {
                    let ledger = opts.out.join(workload).join("ledger.jsonl");
                    let record = history_from_gate_run(workload, &median, &ledger);
                    match record.append(store) {
                        Ok(()) => {
                            println!("perfgate: recorded history -> {}", store.display())
                        }
                        Err(e) => {
                            eprintln!(
                                "error: {workload}: cannot append --record {}: {e}",
                                store.display()
                            );
                            failed = true;
                        }
                    }
                }
            }
            Err(msg) => {
                eprintln!("error: {workload}: {msg}");
                failed = true;
            }
        }
    }
    if failed {
        1
    } else {
        0
    }
}

/// Run one workload `opts.repeats` times, median-aggregate the reports,
/// and write `BENCH_<workload>.json` into the output directory. The
/// first repeat also exports `trace.json` / `events.jsonl` /
/// `ledger.jsonl` / `crit.json` for the workload so every gate run
/// doubles as a profiling artifact (and feeds `amlreport` / `amlinspect crit`).
fn run_one_workload(
    bin_dir: &Path,
    workload: &str,
    opts: &RunPlanOpts,
) -> Result<(PathBuf, BenchReport), String> {
    let bin = bin_dir.join(workload);
    if !bin.is_file() {
        return Err(format!(
            "binary not found at {} (build the workspace first)",
            bin.display()
        ));
    }
    let work_dir = opts.out.join(workload);
    let mut reports = Vec::with_capacity(opts.repeats);
    for rep in 0..opts.repeats {
        let rep_dir = work_dir.join(format!("rep{rep}"));
        let mut cmd = Command::new(&bin);
        cmd.arg(if opts.full { "--full" } else { "--quick" })
            .args(["--seed", &opts.seed.to_string()])
            .args(["--threads", &opts.threads.to_string()])
            .args(["--telemetry", "summary"])
            .arg("--emit-bench")
            .args(["--out".as_ref(), rep_dir.as_os_str()])
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(plan) = &opts.fault_plan {
            cmd.args(["--fault-plan", plan]);
        }
        if rep == 0 {
            cmd.args([
                "--trace-out".as_ref(),
                work_dir.join("trace.json").as_os_str(),
            ])
            .args([
                "--events-out".as_ref(),
                work_dir.join("events.jsonl").as_os_str(),
            ])
            .args([
                "--ledger-out".as_ref(),
                work_dir.join("ledger.jsonl").as_os_str(),
            ])
            .args([
                "--crit-out".as_ref(),
                work_dir.join("crit.json").as_os_str(),
            ]);
        }
        eprintln!("perfgate: {workload} rep {}/{} …", rep + 1, opts.repeats);
        let (status, stderr) = wait_with_timeout(cmd, &bin, opts.timeout).map_err(|e| match e {
            WaitError::Spawn(msg) => msg,
            WaitError::TimedOut(elapsed) => {
                let verdict = timeout_verdict(workload, rep, opts, elapsed);
                let path = opts.out.join(format!("TIMEOUT_{workload}.json"));
                if let Err(e) = std::fs::write(&path, verdict.render()) {
                    eprintln!("perfgate: cannot write {}: {e}", path.display());
                } else {
                    eprintln!("perfgate: wrote {}", path.display());
                }
                format!(
                    "rep {rep} exceeded --timeout {} ms (killed after {} ms)",
                    opts.timeout.expect("timeout set").as_millis(),
                    elapsed.as_millis()
                )
            }
        })?;
        if !status.success() {
            return Err(format!(
                "exited with {status}\n{}",
                String::from_utf8_lossy(&stderr)
            ));
        }
        let report_path = rep_dir.join(BenchReport::file_name(workload));
        reports.push(
            BenchReport::load(&report_path)
                .map_err(|e| format!("no report at {}: {e}", report_path.display()))?,
        );
    }
    let median = median_report(&reports).ok_or("no reports collected")?;
    let path = median
        .write(&opts.out)
        .map_err(|e| format!("cannot write median report: {e}"))?;
    Ok((path, median))
}

/// Distill a gate run into one history record: perf numbers from the
/// median report, ML totals from the rep-0 ledger. A missing or
/// unparsable ledger degrades to zero totals with a warning — recording
/// must never fail the gate run itself.
fn history_from_gate_run(
    workload: &str,
    median: &BenchReport,
    ledger_path: &Path,
) -> HistoryRecord {
    let summary = std::fs::read_to_string(ledger_path)
        .ok()
        .and_then(|text| match ledger::read(&text) {
            Ok((_, events)) => Some(LedgerSummary::from_events(&events)),
            Err(e) => {
                eprintln!("perfgate: warning: {}: {e}", ledger_path.display());
                None
            }
        })
        .unwrap_or_default();
    HistoryRecord {
        workload: workload.to_string(),
        seed: median.seed,
        git: median.git.clone(),
        source: "perfgate".into(),
        wall_time_s: median.wall_time_s,
        top_span_total_s: median.top_span_total_s,
        peak_rss_bytes: 0,
        alloc_peak_bytes: median.alloc.as_ref().map_or(0, |a| a.peak_bytes),
        final_acc: summary.final_acc,
        trials_finished: summary.trials_finished,
        trials_failed: summary.trials_failed,
        rounds: summary.rounds,
        ece: summary.ece,
    }
}

enum WaitError {
    Spawn(String),
    TimedOut(Duration),
}

/// Spawn `cmd` and wait for it, enforcing the optional wall-clock budget.
/// Stderr (already configured as piped) is drained on a background thread
/// so a chatty child can never deadlock on a full pipe buffer while the
/// main loop polls `try_wait`. On timeout the child is killed and reaped.
fn wait_with_timeout(
    mut cmd: Command,
    bin: &Path,
    timeout: Option<Duration>,
) -> Result<(std::process::ExitStatus, Vec<u8>), WaitError> {
    let start = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| WaitError::Spawn(format!("failed to spawn {}: {e}", bin.display())))?;
    let stderr_reader = child.stderr.take().map(|mut pipe| {
        std::thread::spawn(move || {
            use std::io::Read;
            let mut buf = Vec::new();
            let _ = pipe.read_to_end(&mut buf);
            buf
        })
    });
    let collect_stderr = |reader: Option<std::thread::JoinHandle<Vec<u8>>>| -> Vec<u8> {
        reader.and_then(|h| h.join().ok()).unwrap_or_default()
    };
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok((status, collect_stderr(stderr_reader))),
            Ok(None) => {}
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(WaitError::Spawn(format!("wait failed: {e}")));
            }
        }
        if let Some(budget) = timeout {
            let elapsed = start.elapsed();
            if elapsed > budget {
                let _ = child.kill();
                let _ = child.wait();
                drop(collect_stderr(stderr_reader));
                return Err(WaitError::TimedOut(elapsed));
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The JSON verdict written when a workload blows its wall-clock budget —
/// machine-readable evidence (`timed_out: true`) for CI to assert on.
fn timeout_verdict(workload: &str, rep: usize, opts: &RunPlanOpts, elapsed: Duration) -> Value {
    Value::Obj(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("timed_out".into(), Value::Bool(true)),
        ("repeat".into(), Value::Num(rep as f64)),
        (
            "timeout_ms".into(),
            Value::Num(opts.timeout.map_or(0.0, |d| d.as_millis() as f64)),
        ),
        ("elapsed_ms".into(), Value::Num(elapsed.as_millis() as f64)),
        ("seed".into(), Value::Num(opts.seed as f64)),
    ])
}

// ---------------------------------------------------------------- values

fn str_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("{flag} expects a value"))
}

fn int_value(args: &[String], i: &mut usize, flag: &str) -> Result<u64, String> {
    let v = str_value(args, i, flag)?;
    v.parse()
        .map_err(|_| format!("{flag} expects an integer, got '{v}'"))
}

fn float_value(args: &[String], i: &mut usize, flag: &str) -> Result<f64, String> {
    let v = str_value(args, i, flag)?;
    v.parse::<f64>()
        .ok()
        .filter(|f| f.is_finite())
        .ok_or_else(|| format!("{flag} expects a number, got '{v}'"))
}
