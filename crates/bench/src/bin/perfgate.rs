//! `perfgate` — the perf-regression gate (DESIGN.md §6).
//!
//! Two modes:
//!
//! * **Run** (default): execute the benchmark workloads at a fixed seed,
//!   collect their `BENCH_<workload>.json` reports over a few repeats,
//!   and write the per-workload median report into the output directory.
//!   Workload binaries are found next to `perfgate` itself (they are
//!   cargo siblings in `target/<profile>/`). With `--record` rep 0 of
//!   each workload records its own history line, and perfgate appends
//!   that record with the median's perf numbers to the history store.
//! * **Gate** (`--compare OLD NEW` or `--against-history N NEW...`):
//!   judge each new BENCH report with the one gate in
//!   [`aml_bench::gate`] against the per-metric median of a baseline
//!   window — the OLD report alone, or the last N history records of the
//!   report's workload — and print a table (or `--json`) verdict. Missing
//!   history passes with a warning (a brand-new workload must not fail
//!   CI).
//!
//! Exit codes: 0 pass, 1 regression (or a workload failed to run),
//! 2 usage error.

use aml_bench::gate::{
    flatten_history, flatten_report, gate, history_window, parse_history, GateConfig, GateOutcome,
    Measurement,
};
use aml_bench::report::{median_report, BenchReport};
use aml_bench::value_of;
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
  perfgate --compare OLD NEW [gate options]
                                    gate NEW against the OLD report
  perfgate --against-history N NEW... [gate options]
                                    gate each NEW against the median of the
                                    last N history records of its workload

run options:
  --workloads A,B,C       comma-separated workload binaries
                          (default table1_scream,table2_firewall,threshold_sweep)
  --repeats N             repeats per workload, median-aggregated (default 3)
  --seed N                seed passed to every workload (default 11)
  --threads N             worker threads per workload (default 2)
  --out DIR               output directory (default target/perfgate)
  --full                  run at paper scale instead of --quick
  --record [PATH]         append one history record per workload to PATH
                          (default results/history/history.jsonl): rep 0's
                          own record (ML totals, kernel peak RSS) with the
                          median's wall/top-span times and peak heap
  --timeout MS            kill a workload running longer than MS milliseconds;
                          writes TIMEOUT_<workload>.json (timed_out: true)
                          into the output directory and exits nonzero
  --fault-plan SPEC       forward a deterministic fault plan to every
                          workload (see the workload binaries' --help)

gate: every metric's baseline is the nearest-rank median over the window
(OLD alone, or the last N records that measured it). A metric regresses
when it got worse (up for timings, memory and ECE; down for final_acc
and the layer rates, rate:<counter>) by more than its floor and by more
than the tolerance (or from a zero baseline). A memory figure of 0 or a
null quality field means \"not measured\"; a metric only one side
measured is listed, not compared.

gate options:
  --tolerance PCT         allowed relative change in percent (default 10)
  --abs-floor-ms MS       absolute floor for timings in milliseconds
                          (default 5); memory uses 1 MiB, quality 0.005
  --scale F               multiply NEW's timings by F and divide its layer
                          rates by F before comparing (test hook:
                          --scale 2 must trip the gate)
  --json                  print the verdict as JSON instead of the table
                          (same exit codes; schema in gate::render_json;
                          --against-history adds history_requested and
                          history_n, where history_n 0 = no baseline,
                          vacuous pass)
  --crit PATH             attach the critical-path summary from a
                          --crit-out artifact (run mode writes one to
                          <out>/<workload>/crit.json): the top spans by
                          contribution land in the --json verdict under
                          \"crit\", table mode appends the crit table.
                          An unreadable file warns and is skipped

against-history only:
  --history PATH          history store to gate against
                          (default results/history/history.jsonl)
  --gate-quality          also gate final balanced accuracy (a drop
                          regresses) and ECE against the history medians
  --quality PATH          the new run's ledger.jsonl (run mode writes one
                          to <out>/<workload>/ledger.jsonl), folded the
                          way --record folds it into final_acc/ECE for
                          --gate-quality
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
    let code = if args
        .iter()
        .any(|a| a == "--compare" || a == "--against-history")
    {
        match parse_gate(&args).map(run_gate) {
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

// ------------------------------------------------------------------- gate

/// Options of the one gate path: `--compare OLD NEW` (a window of one
/// report) or `--against-history N NEW...` (the last N history records
/// of each report's workload).
struct GateOpts {
    /// `Some(N)` for `--against-history N`; `None` for `--compare`.
    against: Option<usize>,
    /// `--compare`: `[OLD, NEW]`; `--against-history`: the new reports.
    reports: Vec<PathBuf>,
    history: PathBuf,
    cfg: GateConfig,
    json: bool,
    crit: Option<PathBuf>,
    gate_quality: bool,
    quality: Option<PathBuf>,
    acc_scale: f64,
}

fn parse_gate(args: &[String]) -> Result<GateOpts, String> {
    let mut opts = GateOpts {
        against: None,
        reports: Vec::new(),
        history: PathBuf::from(DEFAULT_HISTORY_PATH),
        cfg: GateConfig::default(),
        json: false,
        crit: None,
        gate_quality: false,
        quality: None,
        acc_scale: 1.0,
    };
    let mut compare = false;
    // The first flag seen that only --against-history accepts.
    let mut history_only = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--compare" => compare = true,
            "--against-history" => {
                let n = int_value(args, &mut i, flag)? as usize;
                if n == 0 {
                    return Err("--against-history expects a window of >= 1 records".into());
                }
                opts.against = Some(n);
            }
            "--json" => opts.json = true,
            "--crit" => opts.crit = Some(PathBuf::from(value_of(args, &mut i, flag)?)),
            "--tolerance" => opts.cfg.tolerance_pct = float_value(args, &mut i, flag)?,
            "--abs-floor-ms" => opts.cfg.abs_floor_s = float_value(args, &mut i, flag)? / 1e3,
            "--scale" => opts.cfg.scale_new = float_value(args, &mut i, flag)?,
            "--history" => opts.history = PathBuf::from(value_of(args, &mut i, flag)?),
            "--gate-quality" => opts.gate_quality = true,
            "--quality" => opts.quality = Some(PathBuf::from(value_of(args, &mut i, flag)?)),
            "--acc-scale" => opts.acc_scale = float_value(args, &mut i, flag)?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            path => opts.reports.push(PathBuf::from(path)),
        }
        if matches!(
            flag,
            "--history" | "--gate-quality" | "--quality" | "--acc-scale"
        ) {
            history_only.get_or_insert(flag);
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
    match (compare, opts.against) {
        (true, Some(_)) => Err("--compare and --against-history are exclusive".into()),
        (true, None) => match (history_only, opts.reports.len()) {
            (Some(flag), _) => Err(format!("{flag} is only valid with --against-history")),
            (None, 2) => Ok(opts),
            (None, n) => Err(format!(
                "--compare expects exactly two report paths, got {n}"
            )),
        },
        (false, _) if opts.reports.is_empty() => {
            Err("--against-history expects at least one BENCH report path".into())
        }
        (false, _) => Ok(opts),
    }
}

/// The new run's quality measurements for `--gate-quality`: the
/// `--quality` ledger folded through [`LedgerSummary`], the fold that
/// writes the history record's `final_acc`/`ece`, so the gate compares
/// like with like. Problems warn and return nothing — the quality
/// metrics are then unmatched rather than failing on a missing ledger.
fn quality_measurements(path: &Path) -> (Option<f64>, Option<f64>) {
    let attempt = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| ledger::read(&text));
    match attempt {
        Ok((_, events)) => {
            let summary = LedgerSummary::from_events(&events);
            if summary.final_acc.is_none() && summary.ece.is_none() {
                eprintln!(
                    "perfgate: warning: --quality {}: no quality rounds recorded",
                    path.display()
                );
            }
            (summary.final_acc, summary.ece)
        }
        Err(e) => {
            eprintln!("perfgate: warning: --quality {}: {e}", path.display());
            (None, None)
        }
    }
}

fn run_gate(opts: GateOpts) -> i32 {
    let mut reports = Vec::with_capacity(opts.reports.len());
    for path in &opts.reports {
        match BenchReport::load(path) {
            Ok(report) => reports.push(report),
            Err(e) => eprintln!("error: {e}"),
        }
    }
    if reports.len() < opts.reports.len() {
        return 2;
    }
    // One --crit artifact attaches to every verdict printed (CI gates one
    // report at a time, where this is unambiguous).
    let crit = opts.crit.as_deref().and_then(load_crit);
    let cfg = &opts.cfg;
    let Some(n) = opts.against else {
        let [old, new] = &reports[..] else {
            unreachable!("parse_gate checks --compare has two paths")
        };
        let header = format!(
            "perfgate: {} ({} @ {}) vs ({} @ {})",
            old.workload,
            old.git,
            opts.reports[0].display(),
            new.git,
            opts.reports[1].display()
        );
        let outcome = gate(
            &[flatten_report(old, cfg)],
            &flatten_report(new, cfg),
            cfg,
            opts.acc_scale,
        );
        return i32::from(!print_verdict(
            &opts,
            &old.workload,
            &header,
            None,
            &outcome,
            crit.as_ref(),
        ));
    };
    // A missing store is the day-one case, not an error: every workload
    // then passes vacuously (with a warning) until --record seeds it.
    let records = parse_history(&std::fs::read_to_string(&opts.history).unwrap_or_default());
    let (final_acc, ece) = match &opts.quality {
        Some(path) => quality_measurements(path),
        None => (None, None),
    };
    let mut failed = false;
    for report in &reports {
        let window: Vec<Vec<Measurement>> = history_window(&records, &report.workload, n)
            .into_iter()
            .map(|r| flatten_history(r, cfg, opts.gate_quality))
            .collect();
        // A BENCH report carries no RSS: peak_rss_bytes stays unmeasured.
        let new = HistoryRecord {
            wall_time_s: report.wall_time_s,
            top_span_total_s: report.top_span_total_s,
            alloc_peak_bytes: report.alloc.as_ref().map_or(0, |a| a.peak_bytes),
            final_acc,
            ece,
            ..HistoryRecord::default()
        };
        let outcome = gate(
            &window,
            &flatten_history(&new, cfg, opts.gate_quality),
            cfg,
            opts.acc_scale,
        );
        let header = format!(
            "perfgate: {} ({}) vs median of last {} history record(s) in {}",
            report.workload,
            report.git,
            window.len(),
            opts.history.display()
        );
        let history = Some((n, window.len()));
        failed |= !print_verdict(
            &opts,
            &report.workload,
            &header,
            history,
            &outcome,
            crit.as_ref(),
        );
    }
    i32::from(failed)
}

/// Print one verdict — JSON, or the table under `header` — and return
/// whether it passed. An empty history window passes with a warning.
fn print_verdict(
    opts: &GateOpts,
    workload: &str,
    header: &str,
    history: Option<(usize, usize)>,
    outcome: &GateOutcome,
    crit: Option<&CritReport>,
) -> bool {
    if opts.json {
        let extra = crit_fields(crit);
        println!(
            "{}",
            outcome.render_json(workload, &opts.cfg, history, extra)
        );
    } else if history.is_some_and(|(_, found)| found == 0) {
        eprintln!(
            "perfgate: warning: no history for {workload} in {} — passing by default \
             (run with --record to seed the store)",
            opts.history.display()
        );
        println!("PASS (no history)");
    } else {
        println!("{header}");
        print!("{}", outcome.render_table(&opts.cfg));
        if let Some(report) = crit {
            print!("{}", report.render_table());
        }
        println!("{}", if outcome.passed() { "PASS" } else { "FAIL" });
    }
    outcome.passed()
}

// ------------------------------------------------------------------- crit

/// Load a `--crit` artifact for embedding in a verdict. Problems warn and
/// return `None` — attaching context must never flip the gate itself.
fn load_crit(path: &Path) -> Option<CritReport> {
    let attempt = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| CritReport::from_json(&text));
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
                opts.workloads = value_of(args, &mut i, "--workloads")?
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
            "--out" => opts.out = PathBuf::from(value_of(args, &mut i, "--out")?),
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
                let spec = value_of(args, &mut i, "--fault-plan")?;
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
                    let appended = history_from_gate_run(&opts.out.join(workload), &median)
                        .and_then(|record| {
                            record.append(store).map_err(|e| {
                                format!("cannot append --record {}: {e}", store.display())
                            })
                        });
                    match appended {
                        Ok(()) => println!("perfgate: recorded history -> {}", store.display()),
                        Err(msg) => {
                            eprintln!("error: {workload}: {msg}");
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
/// first repeat also exports `trace.json` / `ledger.jsonl` / `crit.json`
/// for the workload so every gate run doubles as a profiling artifact
/// (and feeds `amlinspect`), and under `--record`
/// appends its own history line to `REP0_HISTORY`.
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
                "--ledger-out".as_ref(),
                work_dir.join("ledger.jsonl").as_os_str(),
            ])
            .args([
                "--crit-out".as_ref(),
                work_dir.join("crit.json").as_os_str(),
            ]);
            if opts.record.is_some() {
                // Start from an empty file so a line left by an earlier
                // run into the same --out is never read back.
                let history = work_dir.join(REP0_HISTORY);
                let _ = std::fs::remove_file(&history);
                cmd.args(["--record".as_ref(), history.as_os_str()]);
            }
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

/// File in `<out>/<workload>/` that rep 0 appends its own `--record`
/// line to.
const REP0_HISTORY: &str = "rep0.history.jsonl";

/// One history line for a gate run: rep 0's own record — its ML totals
/// and the kernel's peak RSS — with the median report's perf numbers.
fn history_from_gate_run(work_dir: &Path, median: &BenchReport) -> Result<HistoryRecord, String> {
    let path = work_dir.join(REP0_HISTORY);
    let rep0 = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| parse_history(&text).pop())
        .ok_or_else(|| format!("no rep-0 history record in {}", path.display()))?;
    Ok(HistoryRecord {
        source: "perfgate".into(),
        wall_time_s: median.wall_time_s,
        top_span_total_s: median.top_span_total_s,
        alloc_peak_bytes: median.alloc.as_ref().map_or(0, |a| a.peak_bytes),
        ..rep0
    })
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

fn int_value(args: &[String], i: &mut usize, flag: &str) -> Result<u64, String> {
    let v = value_of(args, i, flag)?;
    v.parse()
        .map_err(|_| format!("{flag} expects an integer, got '{v}'"))
}

fn float_value(args: &[String], i: &mut usize, flag: &str) -> Result<f64, String> {
    let v = value_of(args, i, flag)?;
    v.parse::<f64>()
        .ok()
        .filter(|f| f.is_finite())
        .ok_or_else(|| format!("{flag} expects a number, got '{v}'"))
}
