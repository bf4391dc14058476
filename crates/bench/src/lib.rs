//! # aml-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper (see DESIGN.md §4 for the index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig1_scream_ale` | Figure 1 — ALE band of `config.link_rate` |
//! | `table1_scream` | Table 1 — Scream-vs-rest balanced accuracy + Wilcoxon p-values |
//! | `fig2_firewall_ale` | Figures 2a/2b — firewall src/dst-port ALE bands |
//! | `table2_firewall` | §4.2 — firewall accuracy comparison |
//! | `threshold_sweep` | §4 "Setting the threshold" — coverage vs 𝒯 |
//! | `ablations` | design-choice ablations (committee size, runs, grid) |
//!
//! All binaries accept `--quick` (scaled-down but same-shape run),
//! `--full` (paper-scale), `--seed N`, `--threads N`, `--out DIR` and
//! `--telemetry off|summary|verbose`; the default scale ("medium")
//! reproduces the paper's qualitative results in minutes on a laptop.
//! Generated datasets are cached as CSV under the output directory so
//! repeated runs don't re-simulate.
//!
//! ## Output discipline (DESIGN.md §6)
//!
//! Stdout carries only the banner and final result tables, so piping a
//! binary into a file captures exactly the paper artifact. Status,
//! progress, and the timing summary go to stderr and appear only with
//! `--telemetry summary|verbose`, which also writes
//! `<out>/manifest.json` with every span/counter/histogram of the run.

pub mod critview;
pub mod gate;
pub mod qualityview;
pub mod report;
pub mod searchview;

use aml_dataset::Dataset;
use aml_telemetry::{json, TelemetryLevel};
use report::BenchReport;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale smoke run; same shape, large error bars.
    Quick,
    /// Default: qualitative reproduction in tens of minutes.
    Medium,
    /// Paper-scale sample sizes.
    Full,
}

impl Scale {
    /// Numeric multiplier recorded in the manifest (quick 0.05 / medium
    /// 0.3 / full 1.0 — the rough sample-size ratio vs the paper).
    pub fn factor(&self) -> f64 {
        match self {
            Scale::Quick => 0.05,
            Scale::Medium => 0.3,
            Scale::Full => 1.0,
        }
    }
}

/// Parsed common CLI options.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Experiment scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSV/SVG/JSON artifacts.
    pub out_dir: PathBuf,
    /// Worker threads.
    pub threads: usize,
    /// Telemetry level for this run.
    pub telemetry: TelemetryLevel,
    /// Write `BENCH_<workload>.json` (the perf record `perfgate`
    /// compares) into the output directory at the end of the run.
    pub emit_bench: bool,
    /// Append one cross-run [`aml_telemetry::HistoryRecord`] here at the
    /// end of the run (`--record`, default
    /// `results/history/history.jsonl`). Feeds
    /// `perfgate --against-history`.
    pub record: Option<PathBuf>,
    /// Write a Chrome trace-event file (Perfetto-loadable) here, rendered
    /// from the trace tree at the end of the run.
    pub trace_out: Option<PathBuf>,
    /// Stream the experiment ledger (trials, ensembles, rounds, regions)
    /// as JSON lines here.
    pub ledger_out: Option<PathBuf>,
    /// Serve the live observability plane (`/metrics`, `/healthz`,
    /// `/runs`, `/crit`) on this address (e.g. `127.0.0.1:9100`; port 0
    /// picks a free port, written to `<out>/serve.addr`).
    pub serve: Option<String>,
    /// Write the span self-time profile, folded from the trace tree, here
    /// in collapsed-stack format (flamegraph-ready) at the end of the run.
    pub profile_out: Option<PathBuf>,
    /// Collect the causal trace tree during the run and write the
    /// critical-path report (longest chain, per-phase Amdahl estimate,
    /// per-scenario costs) here as JSON at the end; also printed as a
    /// table on stderr and served live at `/crit` with `--serve`.
    pub crit_out: Option<PathBuf>,
    /// Deterministic fault plan (`--fault-plan`), installed process-wide
    /// by [`RunOpts::prepare`]. `None` keeps every fault hook inert.
    pub fault_plan: Option<aml_faults::FaultPlan>,
    /// Wall-clock budget per AutoML trial (`--max-trial-time`);
    /// over-budget trials become `trial_failed` (reason `timeout`).
    pub max_trial_time: Option<std::time::Duration>,
    /// Minimum trials that must survive each AutoML search
    /// (`--min-trials`); below this the run errors instead of degrading.
    pub min_trials: usize,
    /// Continue the `--ledger-out` file of an interrupted run
    /// (`--resume`); its header's workload and seed must match this run.
    pub resume: bool,
    /// The rounds the resumed ledger committed, read by
    /// [`RunOpts::prepare`]; empty for a fresh run.
    resumed_rounds: Vec<aml_core::RoundRecord>,
    /// Workload name (set by [`RunOpts::parse_for`]); names the manifest,
    /// the BENCH report, and the export sinks' run id.
    pub workload: String,
    /// When option parsing finished — the manifest's wall-clock origin.
    pub started: Instant,
}

const RESUME_NEEDS_LEDGER: &str = "--resume continues the --ledger-out file; give --ledger-out";

/// Usage text shared by every benchmark binary.
pub const USAGE: &str = "\
options:
  --quick                 minutes-scale smoke run
  --full                  paper-scale run (default: medium)
  --seed N                master seed (default 1)
  --threads N             worker threads (default: all cores)
  --out DIR               artifact directory (default target/experiments)
  --telemetry LEVEL       off|summary|verbose (default off)
  --emit-bench            write BENCH_<workload>.json into the out dir
  --record [PATH]         append one cross-run history record (wall time,
                          peak RSS, final accuracy, trial counts) to PATH
                          (default results/history/history.jsonl) at the
                          end of the run; see `perfgate --against-history`
  --trace-out PATH        write a Chrome trace (Perfetto) file rendered from
                          the causal trace tree, one lane per job
  --ledger-out PATH       stream the experiment ledger (trials, ensembles,
                          feedback rounds) as JSON lines; see `amlinspect`
  --serve ADDR            serve /metrics, /healthz, /runs and /crit over HTTP
                          while the run is live (port 0 picks a free port,
                          written to <out>/serve.addr); also starts the /proc
                          resource sampler
  --profile-out PATH      write the span self-time profile, folded from the
                          causal trace tree over logical parents, as
                          collapsed stacks (flamegraph-ready) and print a
                          top table
                          (export/serve/profile flags imply --telemetry summary)
  --crit-out PATH         collect the causal trace tree and write the
                          critical-path report (longest dependency chain,
                          per-phase serial fraction / Amdahl speedup ceiling,
                          per-scenario datagen costs) as JSON; printed as a
                          table on stderr, served live at /crit, and read by
                          `amlinspect crit`
  --fault-plan SPEC       inject deterministic faults, e.g.
                          trial_panic@3,trial_slow@7:500ms,sink_fail@2,nan_labels@1
  --max-trial-time MS     wall-clock budget per AutoML trial; over-budget
                          trials are abandoned as trial_failed (reason timeout)
  --min-trials N          error if fewer than N trials survive an AutoML
                          search (default 1)
  --resume                continue the --ledger-out file of an interrupted
                          run (workload and seed must match; the rounds it
                          committed are skipped and the ledger continues
                          byte-identically)
  --help                  show this help";

impl RunOpts {
    fn defaults() -> RunOpts {
        RunOpts {
            scale: Scale::Medium,
            seed: 1,
            out_dir: PathBuf::from("target/experiments"),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            telemetry: TelemetryLevel::Off,
            emit_bench: false,
            record: None,
            trace_out: None,
            ledger_out: None,
            serve: None,
            profile_out: None,
            crit_out: None,
            fault_plan: None,
            max_trial_time: None,
            min_trials: 1,
            resume: false,
            resumed_rounds: Vec::new(),
            workload: "bench".to_string(),
            started: Instant::now(),
        }
    }

    /// Parse from `std::env::args` for the named workload. Prints usage
    /// and exits on `--help` or any parse error — unknown flags, missing
    /// or invalid values, and unwritable output paths are usage errors
    /// (exit 2), not panics. On success the telemetry level is set, the
    /// output directory exists, and any export sinks are installed.
    pub fn parse_for(workload: &str) -> RunOpts {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match RunOpts::parse_from(&args) {
            Ok(Some(mut opts)) => {
                opts.workload = workload.to_string();
                if let Err(msg) = opts.prepare() {
                    eprintln!("error: {msg}\n{USAGE}");
                    std::process::exit(2);
                }
                opts
            }
            Ok(None) => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(msg) => {
                eprintln!("error: {msg}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Apply the parsed options to the process: set the telemetry level
    /// (export flags imply at least `summary`), create the output
    /// directory and any export-path parent directories, and install the
    /// requested sinks. Separated from parsing so tests can exercise the
    /// filesystem failures without exiting.
    pub fn prepare(&mut self) -> Result<(), String> {
        let wants_export = self.emit_bench
            || self.record.is_some()
            || self.trace_out.is_some()
            || self.ledger_out.is_some()
            || self.serve.is_some()
            || self.profile_out.is_some()
            || self.crit_out.is_some();
        if wants_export && self.telemetry == TelemetryLevel::Off {
            self.telemetry = TelemetryLevel::Summary;
        }
        aml_telemetry::set_level(self.telemetry);
        std::fs::create_dir_all(&self.out_dir)
            .map_err(|e| format!("cannot create --out {}: {e}", self.out_dir.display()))?;

        if let Some(plan) = &self.fault_plan {
            aml_faults::install(plan.clone());
        }

        // Resume: read the ledger once and truncate it to its committed
        // prefix BEFORE any sink reopens it — the sink below then
        // appends, continuing the original run's ledger byte-identically.
        // The kept events are replayed into the fold armed below, so the
        // history record covers the whole run.
        let mut kept = aml_core::resume::LedgerPrefix::default();
        if self.resume {
            let path = self.ledger_out.as_ref().ok_or(RESUME_NEEDS_LEDGER)?;
            kept = aml_core::resume::prepare_resume(&self.workload, self.seed, path)
                .map_err(|e| format!("--resume {}: {e}", path.display()))?;
            self.resumed_rounds = std::mem::take(&mut kept.rounds);
            // A kept search_space line must not get a second copy.
            if kept
                .events
                .iter()
                .any(|e| matches!(e, aml_telemetry::LedgerEvent::SearchSpace { .. }))
            {
                aml_telemetry::ledger::mark_search_space_emitted();
            }
        }

        if self.trace_out.is_some() || self.ledger_out.is_some() {
            let header = aml_telemetry::RunHeader::new(&self.workload, self.seed);
            if let Some(path) = &self.trace_out {
                ensure_parent(path, "--trace-out")?;
                let sink = aml_telemetry::ChromeTraceSink::create(path, &header)
                    .map_err(|e| format!("cannot write --trace-out {}: {e}", path.display()))?;
                aml_telemetry::sink::install(Box::new(sink));
            }
            if let Some(path) = &self.ledger_out {
                ensure_parent(path, "--ledger-out")?;
                let sink = if kept.header.is_some() {
                    aml_telemetry::LedgerJsonlSink::append(path).map_err(|e| {
                        format!("cannot append --ledger-out {}: {e}", path.display())
                    })?
                } else {
                    aml_telemetry::LedgerJsonlSink::create(path, &header)
                        .map_err(|e| format!("cannot write --ledger-out {}: {e}", path.display()))?
                };
                // Off-is-free: the fault wrapper is only interposed when
                // the plan actually schedules sink failures.
                let inject = self
                    .fault_plan
                    .as_ref()
                    .is_some_and(|p| !p.sink_fail.is_empty());
                if inject {
                    aml_telemetry::sink::install(Box::new(FaultInjectedLedger { inner: sink }));
                } else {
                    aml_telemetry::sink::install(Box::new(sink));
                }
            }
        }

        // The one live ledger fold is armed here: its sink raises the
        // ledger gate, so events flow without --ledger-out.
        if let Some(path) = &self.record {
            ensure_parent(path, "--record")?;
            SUMMARY.arm(aml_telemetry::LedgerSummary::new());
        }

        if let Some(path) = &self.profile_out {
            ensure_parent(path, "--profile-out")?;
        }
        if let Some(path) = &self.crit_out {
            ensure_parent(path, "--crit-out")?;
        }
        // The trace tree is the one span record every span view renders.
        if self.wants_trace_tree() {
            aml_telemetry::tracetree::reset();
            aml_telemetry::tracetree::set_active(true);
        }
        if let Some(addr) = &self.serve {
            let header = aml_telemetry::RunHeader::new(&self.workload, self.seed);
            let bound = aml_telemetry::serve::start(addr, &header)
                .map_err(|e| format!("cannot bind --serve {addr}: {e}"))?;
            // Port 0 means "pick one"; record the resolved address so
            // scripts (and the CI smoke test) can find the live plane.
            let addr_file = self.out_dir.join("serve.addr");
            std::fs::write(&addr_file, format!("{bound}\n"))
                .map_err(|e| format!("cannot write {}: {e}", addr_file.display()))?;
            aml_telemetry::note(&format!(
                "serving {} on http://{bound}",
                aml_telemetry::serve::ROUTES.join(" ")
            ));
            aml_telemetry::resource::start_sampler(std::time::Duration::from_millis(500));
        }
        aml_telemetry::sink::replay_ledger(&kept.events);
        Ok(())
    }

    /// Parse an argument list (no program name). `Ok(None)` means `--help`
    /// was requested. Pure: does not touch the process level, filesystem,
    /// or exit — that's [`RunOpts::parse_for`]'s job, and what makes this
    /// testable.
    pub fn parse_from(args: &[String]) -> Result<Option<RunOpts>, String> {
        let mut opts = RunOpts::defaults();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--help" | "-h" => return Ok(None),
                "--quick" => opts.scale = Scale::Quick,
                "--full" => opts.scale = Scale::Full,
                "--seed" => {
                    let v = value_of(args, &mut i, "--seed")?;
                    opts.seed = v
                        .parse()
                        .map_err(|_| format!("--seed expects an integer, got '{v}'"))?;
                }
                "--threads" => {
                    let v = value_of(args, &mut i, "--threads")?;
                    opts.threads = v
                        .parse()
                        .map_err(|_| format!("--threads expects an integer, got '{v}'"))?;
                    if opts.threads == 0 {
                        return Err("--threads must be >= 1".into());
                    }
                }
                "--out" => {
                    let v = value_of(args, &mut i, "--out")?;
                    opts.out_dir = PathBuf::from(v);
                }
                "--telemetry" => {
                    let v = value_of(args, &mut i, "--telemetry")?;
                    opts.telemetry = v.parse()?;
                }
                "--emit-bench" => opts.emit_bench = true,
                "--record" => {
                    // The path is optional: a following flag (or nothing)
                    // means "use the default store".
                    match args.get(i + 1).map(String::as_str) {
                        Some(v) if !v.starts_with("--") => {
                            opts.record = Some(PathBuf::from(v));
                            i += 1;
                        }
                        _ => {
                            opts.record =
                                Some(PathBuf::from(aml_telemetry::history::DEFAULT_HISTORY_PATH))
                        }
                    }
                }
                "--trace-out" => {
                    let v = value_of(args, &mut i, "--trace-out")?;
                    opts.trace_out = Some(PathBuf::from(v));
                }
                "--ledger-out" => {
                    let v = value_of(args, &mut i, "--ledger-out")?;
                    opts.ledger_out = Some(PathBuf::from(v));
                }
                "--serve" => {
                    let v = value_of(args, &mut i, "--serve")?;
                    opts.serve = Some(v.to_string());
                }
                "--profile-out" => {
                    let v = value_of(args, &mut i, "--profile-out")?;
                    opts.profile_out = Some(PathBuf::from(v));
                }
                "--crit-out" => {
                    let v = value_of(args, &mut i, "--crit-out")?;
                    opts.crit_out = Some(PathBuf::from(v));
                }
                "--fault-plan" => {
                    let v = value_of(args, &mut i, "--fault-plan")?;
                    opts.fault_plan = Some(
                        aml_faults::FaultPlan::parse(v)
                            .map_err(|e| format!("--fault-plan: {e}"))?,
                    );
                }
                "--max-trial-time" => {
                    let v = value_of(args, &mut i, "--max-trial-time")?;
                    let ms: u64 = v
                        .parse()
                        .map_err(|_| format!("--max-trial-time expects milliseconds, got '{v}'"))?;
                    if ms == 0 {
                        return Err("--max-trial-time must be >= 1 ms".into());
                    }
                    opts.max_trial_time = Some(std::time::Duration::from_millis(ms));
                }
                "--min-trials" => {
                    let v = value_of(args, &mut i, "--min-trials")?;
                    opts.min_trials = v
                        .parse()
                        .map_err(|_| format!("--min-trials expects an integer, got '{v}'"))?;
                    if opts.min_trials == 0 {
                        return Err("--min-trials must be >= 1".into());
                    }
                }
                "--resume" => opts.resume = true,
                unknown => return Err(format!("unknown flag '{unknown}'")),
            }
            i += 1;
        }
        if opts.resume && opts.ledger_out.is_none() {
            return Err(RESUME_NEEDS_LEDGER.into());
        }
        Ok(Some(opts))
    }

    /// Apply the CLI's trial-robustness flags (`--max-trial-time`,
    /// `--min-trials`) to an AutoML config. Every bin calls this on the
    /// configs it builds so the flags reach the search layer.
    pub fn apply_automl_limits(&self, cfg: &mut aml_automl::AutoMlConfig) {
        cfg.max_trial_time = self.max_trial_time;
        cfg.min_trials = self.min_trials;
    }

    /// The experiment loop for this run: it skips the rounds the
    /// `--resume`d ledger committed, and runs every round on a fresh run.
    pub fn experiment_loop(&self) -> aml_core::ExperimentLoop {
        aml_core::ExperimentLoop::new(self.resumed_rounds.clone())
    }

    /// Pick a value by scale.
    pub fn by_scale<T: Copy>(&self, quick: T, medium: T, full: T) -> T {
        match self.scale {
            Scale::Quick => quick,
            Scale::Medium => medium,
            Scale::Full => full,
        }
    }

    /// Print the run header (seed etc.) so results are reproducible.
    pub fn banner(&self, name: &str) {
        aml_telemetry::report(&format!(
            "== {name} | scale {:?} | seed {} | {} threads | artifacts -> {} ==\n",
            self.scale,
            self.seed,
            self.threads,
            self.out_dir.display()
        ));
    }

    /// Finish the run: when telemetry is enabled, publish allocation
    /// counters, write `<out>/manifest.json` from the global registry,
    /// print the timing summary to stderr, flush every export sink
    /// (`--trace-out`, `--ledger-out`), write the span views
    /// (`--profile-out`, `--crit-out`), and — with `--emit-bench` —
    /// write `BENCH_<workload>.json`. A no-op with `--telemetry off`,
    /// keeping output and artifacts identical to an uninstrumented run.
    pub fn finish(&self) {
        if !aml_telemetry::enabled() {
            return;
        }
        aml_telemetry::serve::set_phase("finishing");
        if self.wants_trace_tree() {
            // Disarm once, before any view renders, so every view reads
            // the same final tree.
            aml_telemetry::tracetree::set_active(false);
            let dropped = aml_telemetry::tracetree::dropped();
            if dropped > 0 {
                let outputs: Vec<String> = [&self.profile_out, &self.trace_out, &self.crit_out]
                    .into_iter()
                    .flatten()
                    .map(|p| p.display().to_string())
                    .collect();
                aml_telemetry::warn(&format!(
                    "trace tree capped at {} spans: {dropped} spans dropped, so {} miss them",
                    aml_telemetry::tracetree::MAX_NODES,
                    outputs.join(", ")
                ));
            }
        }
        // Stop the sampler (taking one last reading) before the snapshot
        // so the final proc.* gauges land in the manifest. Without --serve
        // no sampler ran; one reading still gives the manifest and the
        // crit report the proc.* gauges.
        aml_telemetry::resource::stop_sampler();
        aml_telemetry::resource::publish_once();
        aml_telemetry::alloc::publish_counters();
        let manifest = aml_telemetry::Manifest::new(
            &self.workload,
            self.seed,
            self.scale.factor(),
            self.threads,
            self.started,
            aml_telemetry::global().snapshot(),
        );
        eprint!("{}", manifest.render_summary());
        match manifest.write_json(&self.out_dir) {
            Ok(path) => aml_telemetry::note(&format!("wrote {}", path.display())),
            Err(e) => aml_telemetry::warn(&format!("could not write manifest: {e}")),
        }
        for (target, result) in aml_telemetry::sink::finish(&manifest.snapshot) {
            match result {
                Ok(()) => aml_telemetry::note(&format!("wrote {target}")),
                Err(e) => aml_telemetry::warn(&format!("could not write {target}: {e}")),
            }
        }
        let bench = (self.emit_bench || self.record.is_some())
            .then(|| BenchReport::from_manifest(&manifest));
        if self.emit_bench {
            match bench.as_ref().unwrap().write(&self.out_dir) {
                Ok(path) => aml_telemetry::note(&format!("wrote {}", path.display())),
                Err(e) => aml_telemetry::warn(&format!("could not write BENCH report: {e}")),
            }
        }
        if let Some(path) = &self.profile_out {
            let entries = aml_telemetry::profile::fold(&aml_telemetry::tracetree::entries());
            match std::fs::write(path, aml_telemetry::profile::render_folded(&entries)) {
                Ok(()) => aml_telemetry::note(&format!("wrote {}", path.display())),
                Err(e) => aml_telemetry::warn(&format!(
                    "could not write --profile-out {}: {e}",
                    path.display()
                )),
            }
            eprint!("{}", aml_telemetry::profile::render_top_table(&entries, 10));
        }
        if let Some(path) = &self.crit_out {
            // The resource gauges were published above, so wall-vs-CPU
            // attribution lands in the report.
            match aml_telemetry::crit::write_json(path) {
                Ok(report) => {
                    aml_telemetry::note(&format!("wrote {}", path.display()));
                    eprint!("{}", report.render_table());
                }
                Err(e) => aml_telemetry::warn(&format!(
                    "could not write --crit-out {}: {e}",
                    path.display()
                )),
            }
        }
        if let Some(path) = &self.record {
            // Last, so the reading of the kernel's RSS high-water mark
            // covers every output written above.
            aml_telemetry::resource::publish_once();
            let snapshot = aml_telemetry::global().snapshot();
            let record = self.history_record(bench.as_ref().unwrap(), &snapshot);
            match record.append(path) {
                Ok(()) => aml_telemetry::note(&format!("recorded history -> {}", path.display())),
                Err(e) => aml_telemetry::warn(&format!(
                    "could not append --record {}: {e}",
                    path.display()
                )),
            }
        }
        aml_telemetry::serve::stop();
    }

    /// Whether a span view (`--crit-out`, `--profile-out`, `--trace-out`)
    /// needs the trace-tree collector armed.
    fn wants_trace_tree(&self) -> bool {
        self.crit_out.is_some() || self.profile_out.is_some() || self.trace_out.is_some()
    }

    /// Distill this run into one cross-run history record: perf numbers
    /// from the BENCH report, peak RSS from the `proc.*` gauges, ML
    /// totals from the ledger summary armed by `--record` (zeros for a
    /// workload that never emits ledger events).
    pub fn history_record(
        &self,
        bench: &BenchReport,
        snapshot: &aml_telemetry::Snapshot,
    ) -> aml_telemetry::HistoryRecord {
        let gauge = |name: &str| {
            snapshot
                .gauges
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        let summary = SUMMARY.read(|s, _| *s);
        aml_telemetry::HistoryRecord {
            workload: self.workload.clone(),
            seed: self.seed,
            git: bench.git.clone(),
            source: "run".into(),
            wall_time_s: bench.wall_time_s,
            top_span_total_s: bench.top_span_total_s,
            peak_rss_bytes: gauge("proc.rss_peak_bytes")
                .or_else(|| gauge("proc.rss_bytes"))
                .unwrap_or(0),
            alloc_peak_bytes: bench.alloc.as_ref().map_or(0, |a| a.peak_bytes),
            final_acc: summary.final_acc,
            trials_finished: summary.trials_finished,
            trials_failed: summary.trials_failed,
            rounds: summary.rounds,
            ece: summary.ece,
        }
    }
}

/// The run summary behind `--record`: the ledger fold whose totals land
/// in this run's history record.
static SUMMARY: aml_telemetry::FoldStore<aml_telemetry::LedgerSummary> =
    aml_telemetry::FoldStore::new(
        "ledger summary (in memory)",
        aml_telemetry::LedgerSummary::new(),
    );

/// Ledger sink wrapper driving the `sink_fail@N` fault: scheduled writes
/// are dropped — counted under `telemetry.events_dropped` — instead of
/// reaching the file, so downstream consumers' resilience to lost events
/// (amlinspect, resume) can be tested deterministically.
struct FaultInjectedLedger {
    inner: aml_telemetry::LedgerJsonlSink,
}

impl aml_telemetry::sink::Sink for FaultInjectedLedger {
    fn on_ledger_event(&self, event: &aml_telemetry::LedgerEvent) {
        if aml_faults::sink_write_fails() {
            aml_telemetry::counter_add("telemetry.events_dropped", 1);
            return;
        }
        self.inner.on_ledger_event(event)
    }
    fn wants_ledger(&self) -> bool {
        true
    }
    fn flush_now(&self) -> std::io::Result<()> {
        self.inner.flush_now()
    }
    fn finish(&self, snapshot: &aml_telemetry::Snapshot) -> std::io::Result<()> {
        self.inner.finish(snapshot)
    }
    fn target(&self) -> String {
        self.inner.target()
    }
}

/// Create `path`'s parent directory (if any) so export files can land in
/// not-yet-existing directories; failures become usage errors naming the
/// flag.
fn ensure_parent(path: &Path, flag: &str) -> Result<(), String> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create parent of {flag} {}: {e}", path.display())),
        _ => Ok(()),
    }
}

/// The value following flag `args[*i]`, advancing `i` past it. The
/// bins with their own flag parsers use it too.
pub fn value_of<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("{flag} expects a value"))
}

/// Write a text artifact to the output directory.
pub fn write_artifact(out_dir: &Path, name: &str, content: &str) {
    let path = out_dir.join(name);
    if let Err(e) = std::fs::write(&path, content) {
        aml_telemetry::warn(&format!("could not write {}: {e}", path.display()));
    } else {
        aml_telemetry::note(&format!("wrote {}", path.display()));
    }
}

/// Write a JSON artifact (pretty-printed via [`json::Value::render`]).
pub fn write_json<T: json::ToJson + ?Sized>(out_dir: &Path, name: &str, value: &T) {
    write_artifact(out_dir, name, &value.to_json().render());
}

/// The JSON form of a set of ALE bands (the figure binaries' data
/// artifacts).
pub fn ale_bands_json(bands: &[aml_interpret::AleBand]) -> json::Value {
    use json::ToJson;
    json::Value::Arr(
        bands
            .iter()
            .map(|b| {
                json::Value::Obj(vec![
                    ("feature".into(), b.feature.to_json()),
                    ("feature_name".into(), b.feature_name.to_json()),
                    ("grid".into(), b.grid.to_json()),
                    ("mean".into(), b.mean.to_json()),
                    ("std".into(), b.std.to_json()),
                    ("n_models".into(), b.n_models.to_json()),
                ])
            })
            .collect(),
    )
}

/// The generation parameters of one simulator-labelled dataset: together
/// with [`aml_netsim::datagen::GENERATOR_VERSION`], everything that
/// determines its rows and labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetsimSpec {
    /// Condition domain the rows are sampled from.
    pub domain: aml_netsim::ConditionDomain,
    /// Uniform or production-like sampling.
    pub mode: aml_netsim::datagen::SamplingMode,
    /// Number of rows.
    pub n: usize,
    /// Generation seed.
    pub seed: u64,
}

impl NetsimSpec {
    /// Cache key: an FNV-1a hash of the generator version and every field,
    /// so changing the generator or any parameter misses the cache.
    pub fn cache_key(&self) -> String {
        self.key_at(aml_netsim::datagen::GENERATOR_VERSION)
    }

    fn key_at(&self, version: u32) -> String {
        // `Debug` prints every field, floats in shortest round-trip form.
        let canonical = format!("v{version}|{self:?}");
        let hash = canonical.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        format!("netsim_n{}_{hash:016x}", self.n)
    }
}

/// Load the dataset `spec` describes from `out_dir`'s cache, or simulate,
/// label and cache it with `parallelism` worker threads.
pub fn cached_netsim(out_dir: &Path, spec: &NetsimSpec, parallelism: usize) -> Dataset {
    let NetsimSpec { n, seed, mode, .. } = *spec;
    cached_dataset(out_dir, &spec.cache_key(), || {
        aml_netsim::datagen::generate_dataset_mode(&spec.domain, n, seed, parallelism, mode)
            .expect("datagen")
    })
}

/// Load `<out_dir>/<key>.csv`, or generate the dataset and cache it there.
fn cached_dataset(out_dir: &Path, key: &str, generate: impl FnOnce() -> Dataset) -> Dataset {
    let path = out_dir.join(format!("{key}.csv"));
    if path.exists() {
        if let Ok(ds) = aml_dataset::csv::read_csv(&path) {
            aml_telemetry::note(&format!("loaded cached {key} ({} rows)", ds.n_rows()));
            return ds;
        }
    }
    let ds = generate();
    if aml_dataset::csv::write_csv(&ds, &path).is_ok() {
        aml_telemetry::note(&format!("cached {key} ({} rows)", ds.n_rows()));
    }
    ds
}

/// Mean of a slice (experiment reporting helper).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use aml_dataset::synth;

    fn parse(args: &[&str]) -> Result<Option<RunOpts>, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        RunOpts::parse_from(&owned)
    }

    #[test]
    fn defaults_when_no_args() {
        let opts = parse(&[]).unwrap().unwrap();
        assert_eq!(opts.scale, Scale::Medium);
        assert_eq!(opts.seed, 1);
        assert_eq!(opts.telemetry, TelemetryLevel::Off);
        assert!(opts.threads >= 1);
    }

    #[test]
    fn all_flags_parse() {
        let opts = parse(&[
            "--quick",
            "--seed",
            "42",
            "--threads",
            "3",
            "--out",
            "/tmp/x",
            "--telemetry",
            "summary",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(opts.scale, Scale::Quick);
        assert_eq!(opts.seed, 42);
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.out_dir, PathBuf::from("/tmp/x"));
        assert_eq!(opts.telemetry, TelemetryLevel::Summary);
        let verbose = parse(&["--full", "--telemetry", "verbose"])
            .unwrap()
            .unwrap();
        assert_eq!(verbose.scale, Scale::Full);
        assert_eq!(verbose.telemetry, TelemetryLevel::Verbose);
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = parse(&["--bogus"]).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        // Positional junk is rejected too.
        assert!(parse(&["quick"]).is_err());
    }

    #[test]
    fn export_flags_parse() {
        let opts = parse(&[
            "--emit-bench",
            "--trace-out",
            "/tmp/x/trace.json",
            "--ledger-out",
            "/tmp/x/ledger.jsonl",
        ])
        .unwrap()
        .unwrap();
        assert!(opts.emit_bench);
        assert_eq!(opts.trace_out, Some(PathBuf::from("/tmp/x/trace.json")));
        assert_eq!(opts.ledger_out, Some(PathBuf::from("/tmp/x/ledger.jsonl")));
        // Parsing alone never touches the level; prepare() does.
        assert_eq!(opts.telemetry, TelemetryLevel::Off);
    }

    #[test]
    fn record_flag_parses_with_and_without_path() {
        let opts = parse(&["--record", "/tmp/x/h.jsonl"]).unwrap().unwrap();
        assert_eq!(opts.record, Some(PathBuf::from("/tmp/x/h.jsonl")));
        // No value: the default store.
        let opts = parse(&["--record"]).unwrap().unwrap();
        assert_eq!(
            opts.record,
            Some(PathBuf::from(aml_telemetry::history::DEFAULT_HISTORY_PATH))
        );
        // A following flag is not a path.
        let opts = parse(&["--record", "--quick"]).unwrap().unwrap();
        assert_eq!(
            opts.record,
            Some(PathBuf::from(aml_telemetry::history::DEFAULT_HISTORY_PATH))
        );
        assert_eq!(opts.scale, Scale::Quick);
        // Parsing alone never touches the level; prepare() bumps it.
        assert_eq!(opts.telemetry, TelemetryLevel::Off);
    }

    #[test]
    fn history_record_maps_bench_and_gauges() {
        let mut opts = parse(&["--seed", "7"]).unwrap().unwrap();
        opts.workload = "w".into();
        let bench = BenchReport {
            workload: "w".into(),
            seed: 7,
            scale: 0.05,
            threads: 2,
            git: "abc1234".into(),
            wall_time_s: 12.5,
            top_span_total_s: 11.0,
            spans: vec![],
            counters: vec![],
            throughput: vec![],
            histograms: vec![],
            alloc: None,
        };
        let snapshot = aml_telemetry::Snapshot {
            spans: vec![],
            counters: vec![],
            gauges: vec![
                ("proc.rss_bytes".into(), 50 << 20),
                ("proc.rss_peak_bytes".into(), 70 << 20),
            ],
            histograms: vec![],
        };
        let rec = opts.history_record(&bench, &snapshot);
        assert_eq!(rec.workload, "w");
        assert_eq!(rec.seed, 7);
        assert_eq!(rec.source, "run");
        assert_eq!(rec.wall_time_s, 12.5);
        assert_eq!(rec.peak_rss_bytes, 70 << 20);
        // No summary collector installed: ML totals default to zero/None.
        assert_eq!(rec.final_acc, None);
        assert_eq!(rec.trials_finished, 0);
        // Without the peak gauge the current-RSS gauge is the fallback.
        let snapshot = aml_telemetry::Snapshot {
            spans: vec![],
            counters: vec![],
            gauges: vec![("proc.rss_bytes".into(), 50 << 20)],
            histograms: vec![],
        };
        assert_eq!(
            opts.history_record(&bench, &snapshot).peak_rss_bytes,
            50 << 20
        );
    }

    #[test]
    fn live_plane_flags_parse() {
        let opts = parse(&[
            "--serve",
            "127.0.0.1:0",
            "--profile-out",
            "/tmp/x/profile.folded",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(opts.serve, Some("127.0.0.1:0".to_string()));
        assert_eq!(
            opts.profile_out,
            Some(PathBuf::from("/tmp/x/profile.folded"))
        );
        // Parsing alone never touches the level; prepare() bumps it.
        assert_eq!(opts.telemetry, TelemetryLevel::Off);
        assert!(parse(&["--serve"]).unwrap_err().contains("--serve"));
        assert!(parse(&["--profile-out", "--quick"])
            .unwrap_err()
            .contains("--profile-out"));
    }

    #[test]
    fn crit_out_flag_parses() {
        let opts = parse(&["--crit-out", "/tmp/x/crit.json"]).unwrap().unwrap();
        assert_eq!(opts.crit_out, Some(PathBuf::from("/tmp/x/crit.json")));
        // Parsing alone never touches the level; prepare() bumps it.
        assert_eq!(opts.telemetry, TelemetryLevel::Off);
        assert!(parse(&["--crit-out"]).unwrap_err().contains("--crit-out"));
        assert!(parse(&["--crit-out", "--quick"])
            .unwrap_err()
            .contains("--crit-out"));
    }

    #[test]
    fn fault_and_robustness_flags_parse() {
        let opts = parse(&[
            "--fault-plan",
            "trial_panic@3,trial_slow@7:500ms,sink_fail@2,nan_labels@1",
            "--max-trial-time",
            "250",
            "--min-trials",
            "4",
            "--resume",
            "--ledger-out",
            "/tmp/x/ledger.jsonl",
        ])
        .unwrap()
        .unwrap();
        let plan = opts.fault_plan.as_ref().unwrap();
        assert_eq!(plan.trial_panic, vec![3]);
        assert_eq!(plan.sink_fail, vec![2]);
        assert_eq!(
            opts.max_trial_time,
            Some(std::time::Duration::from_millis(250))
        );
        assert_eq!(opts.min_trials, 4);
        assert!(opts.resume);
        // The limits propagate into an AutoML config.
        let mut cfg = aml_automl::AutoMlConfig::default();
        opts.apply_automl_limits(&mut cfg);
        assert_eq!(cfg.max_trial_time, opts.max_trial_time);
        assert_eq!(cfg.min_trials, 4);
    }

    #[test]
    fn bad_fault_and_robustness_values_are_usage_errors() {
        assert!(parse(&["--fault-plan", "bogus@1"])
            .unwrap_err()
            .contains("--fault-plan"));
        assert!(parse(&["--max-trial-time", "soon"])
            .unwrap_err()
            .contains("--max-trial-time"));
        assert!(parse(&["--max-trial-time", "0"])
            .unwrap_err()
            .contains("--max-trial-time"));
        assert!(parse(&["--min-trials", "0"])
            .unwrap_err()
            .contains("--min-trials"));
        assert!(parse(&["--fault-plan"])
            .unwrap_err()
            .contains("--fault-plan"));
        // --resume continues the ledger, so it needs one.
        let err = parse(&["--resume"]).unwrap_err();
        assert!(
            err.contains("--resume") && err.contains("--ledger-out"),
            "{err}"
        );
        // There is no checkpoint flag: the ledger is the resume state.
        let err = parse(&["--checkpoint", "/tmp/x/run.ckpt"]).unwrap_err();
        assert_eq!(err, "unknown flag '--checkpoint'");
    }

    #[test]
    fn resume_with_missing_ledger_is_a_usage_error() {
        let mut opts = parse(&["--resume", "--ledger-out", "/nonexistent/ledger.jsonl"])
            .unwrap()
            .unwrap();
        opts.out_dir = std::env::temp_dir().join("aml_resume_missing_test");
        let err = opts.prepare().unwrap_err();
        assert!(err.contains("--resume"), "{err}");
        aml_telemetry::set_level(TelemetryLevel::Off);
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }

    #[test]
    fn experiment_loop_is_fresh_without_resume() {
        let lp = parse(&[]).unwrap().unwrap().experiment_loop();
        assert!(lp.completed(0).is_none());
    }

    #[test]
    fn prepare_bumps_telemetry_creates_parents_and_installs_sinks() {
        let dir = std::env::temp_dir().join(format!("aml_prepare_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = parse(&["--emit-bench"]).unwrap().unwrap();
        opts.out_dir = dir.join("out");
        opts.trace_out = Some(dir.join("nested/deeply/trace.json"));
        opts.ledger_out = Some(dir.join("nested/ledger.jsonl"));
        opts.prepare().expect("prepare succeeds");
        // Export flags imply summary.
        assert_eq!(opts.telemetry, TelemetryLevel::Summary);
        assert!(opts.out_dir.is_dir());
        // Parent dirs were created and the files exist (truncated now,
        // written at finish).
        assert!(dir.join("nested/deeply/trace.json").exists());
        assert!(dir.join("nested/ledger.jsonl").exists());
        assert!(aml_telemetry::sink::active());
        assert!(aml_telemetry::ledger::active());
        // Drain the installed sinks so other tests see a clean slate.
        for (_, result) in aml_telemetry::sink::finish(&aml_telemetry::global().snapshot()) {
            result.unwrap();
        }
        aml_telemetry::set_level(TelemetryLevel::Off);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prepare_reports_unwritable_paths_as_usage_errors() {
        // A path whose parent is a *file* cannot be created.
        let dir = std::env::temp_dir().join(format!("aml_unwritable_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, "not a directory").unwrap();

        let mut opts = parse(&[]).unwrap().unwrap();
        opts.out_dir = dir.clone();
        opts.trace_out = Some(blocker.join("sub/trace.json"));
        let err = opts.prepare().unwrap_err();
        assert!(err.contains("--trace-out"), "{err}");

        let mut opts = parse(&[]).unwrap().unwrap();
        opts.out_dir = blocker.join("out");
        let err = opts.prepare().unwrap_err();
        assert!(err.contains("--out"), "{err}");

        aml_telemetry::set_level(TelemetryLevel::Off);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_values_are_errors() {
        for flag in ["--seed", "--threads", "--out", "--telemetry"] {
            let err = parse(&[flag]).unwrap_err();
            assert!(err.contains(flag), "{flag}: {err}");
            // A following flag is not a value.
            let err = parse(&[flag, "--quick"]).unwrap_err();
            assert!(err.contains(flag), "{flag}: {err}");
        }
    }

    #[test]
    fn invalid_values_are_errors() {
        assert!(parse(&["--seed", "abc"]).unwrap_err().contains("--seed"));
        assert!(parse(&["--threads", "x"])
            .unwrap_err()
            .contains("--threads"));
        assert!(parse(&["--threads", "0"])
            .unwrap_err()
            .contains("--threads"));
        assert!(parse(&["--telemetry", "loud"])
            .unwrap_err()
            .contains("telemetry level"));
    }

    #[test]
    fn help_short_circuits() {
        assert!(parse(&["--help"]).unwrap().is_none());
        assert!(parse(&["--quick", "-h", "--bogus"]).unwrap().is_none());
    }

    #[test]
    fn by_scale_picks_correctly() {
        let mut o = parse(&["--quick"]).unwrap().unwrap();
        assert_eq!(o.by_scale(1, 2, 3), 1);
        o.scale = Scale::Medium;
        assert_eq!(o.by_scale(1, 2, 3), 2);
        o.scale = Scale::Full;
        assert_eq!(o.by_scale(1, 2, 3), 3);
    }

    #[test]
    fn dataset_cache_round_trips() {
        let dir = std::env::temp_dir().join("aml_bench_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let key = "test_ds_cache";
        std::fs::remove_file(dir.join(format!("{key}.csv"))).ok();
        let first = cached_dataset(&dir, key, || synth::two_moons(30, 0.1, 1).unwrap());
        let second = cached_dataset(&dir, key, || panic!("must hit the cache"));
        assert_eq!(first.n_rows(), second.n_rows());
        assert_eq!(first.labels(), second.labels());
        std::fs::remove_file(dir.join(format!("{key}.csv"))).ok();
    }

    #[test]
    fn netsim_cache_key_covers_every_generation_parameter() {
        use aml_netsim::datagen::{SamplingMode, GENERATOR_VERSION};
        let dir = std::env::temp_dir().join(format!("aml_bench_netsim_key_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tiny = || synth::two_moons(30, 0.1, 1).unwrap();
        let base = NetsimSpec {
            domain: aml_netsim::ConditionDomain::default(),
            mode: SamplingMode::Uniform,
            n: 30,
            seed: 1,
        };
        assert_eq!(base.cache_key(), base.key_at(GENERATOR_VERSION));
        cached_dataset(&dir, &base.cache_key(), tiny);
        cached_dataset(&dir, &base.cache_key(), || panic!("must hit the cache"));
        let d = base.domain;
        let variants = [
            base.key_at(GENERATOR_VERSION + 1),
            NetsimSpec {
                mode: SamplingMode::Production,
                ..base
            }
            .cache_key(),
            NetsimSpec { n: 31, ..base }.cache_key(),
            NetsimSpec { seed: 2, ..base }.cache_key(),
            NetsimSpec {
                domain: aml_netsim::ConditionDomain {
                    link_rate: (d.link_rate.0, d.link_rate.1 + 1.0),
                    ..d
                },
                ..base
            }
            .cache_key(),
            NetsimSpec {
                domain: aml_netsim::ConditionDomain {
                    flows: (d.flows.0, d.flows.1 + 1),
                    ..d
                },
                ..base
            }
            .cache_key(),
        ];
        for key in variants {
            let mut generated = false;
            cached_dataset(&dir, &key, || {
                generated = true;
                tiny()
            });
            assert!(
                generated,
                "{key} was served from another spec's cache entry"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
