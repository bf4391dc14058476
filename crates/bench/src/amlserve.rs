//! `amlserve`: a crash-safe, multi-tenant AutoML run server.
//!
//! The companion proposal paper frames domain-customized AutoML as a
//! continuously-operating service; this module is that long-lived
//! process, layered on the same std-only socket discipline as the live
//! plane (`aml_telemetry::serve`). One thread owns everything: it
//! accepts HTTP requests, schedules jobs onto a bounded pool of worker
//! *processes*, reaps them, and journals every state transition.
//!
//! ## Routes
//!
//! * `POST /submit` — submit a job spec (JSON body, see [`JobSpec`];
//!   optional inline CSV dataset upload via a `"csv"` field; tenant via
//!   `X-Tenant` header or `"tenant"` field). Answers `202` with the job
//!   id, `400` on malformed specs, `429` + `Retry-After` when the queue
//!   is full or the tenant's token budget is spent (backpressure, not
//!   OOM), `503` while draining.
//! * `GET /jobs` — all jobs with their states.
//! * `GET /jobs/<id>` — one job: state, attempt, tail of its ledger
//!   events (`?tail=N`), and the result once done.
//! * `DELETE /jobs/<id>` — cooperative cancel at the next round
//!   boundary (queued jobs cancel immediately).
//! * `GET /metrics` — Prometheus text: `serve_jobs_queued` /
//!   `serve_jobs_running` gauges, `serve_jobs_{submitted,done,failed,
//!   retried,preempted,rejected,canceled}` counters.
//! * `GET /healthz`, `GET /history`, `GET /dashboard` — the familiar
//!   plane, with `/dashboard`'s jobs panel polling `/jobs`.
//! * `POST /shutdown` — graceful drain: stop admissions, ask running
//!   workers to checkpoint and exit at the next round boundary, kill
//!   stragglers after the grace period, journal everything `preempted`,
//!   exit.
//!
//! ## Why worker processes
//!
//! The telemetry sink list, the fault plan, and the ledger round
//! counter are process-global, so two concurrent in-process jobs cannot
//! each own a ledger. Instead the server re-invokes its own executable
//! in a hidden worker mode (`amlserve --worker <jobdir>`); each job
//! gets a sibling directory with its spec, ledger, checkpoint, and
//! result, and full process isolation — a panicking or aborting trial
//! can never take the server down.
//!
//! ## Crash safety
//!
//! Two disciplines, both borrowed from `aml_core::checkpoint`:
//!
//! * **whole files** (`job.json`, `result.json`, `worker.pid`,
//!   `serve.addr`) are written tmp + rename, so readers see the old
//!   version or the new one, never a torn one;
//! * **append-only logs** (`queue.jsonl`, the per-job ledgers, the
//!   history store) grow by single whole-line writes; a torn trailing
//!   line after SIGKILL is skipped on replay.
//!
//! Cold-start recovery replays `queue.jsonl`, fences any worker
//! processes orphaned by the previous server life (pidfile +
//! `/proc/<pid>/cmdline` check, then kill — two writers on one ledger
//! would corrupt it), marks jobs whose `result.json` landed as done,
//! and requeues the rest; a requeued job with a valid checkpoint
//! resumes mid-experiment and its final sorted ledger is byte-identical
//! to an uninterrupted run (`server_recovery.rs` proves it).
//!
//! ## Fault injection
//!
//! `--fault-plan worker_crash@N` makes the `N`-th worker launch abort
//! after checkpointing its first fresh round (exercising
//! retry-with-backoff + resume); `submit_burst@N` rejects the `N`-th
//! submission with an injected 429 (exercising client backpressure).
//! Trial-level faults (`trial_panic@…`) are already absorbed *inside*
//! the worker by the PR 5 sandbox and surface as `trial_failed` ledger
//! events, not worker deaths.

use aml_core::{run_strategy, ExperimentConfig, ExperimentLoop, Strategy};
use aml_dataset::split::{split_into_k, three_way_split};
use aml_dataset::{csv, synth, Dataset};
use aml_faults::FaultPlan;
use aml_telemetry::json::{self, Value};
use aml_telemetry::serve::{dashboard_html, render_history_array, HttpRequest};
use aml_telemetry::serve::{read_request, render_prometheus, write_response};
use aml_telemetry::sink::{self, RunHeader};
use aml_telemetry::{Fold, HistoryRecord, LedgerJsonlSink, LedgerSummary, Snapshot};
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Exit code a worker uses for a *cooperative* stop (cancel or preempt
/// honored at a round boundary, checkpoint already on disk). Anything
/// else nonzero — or death by signal — is classed as a crash and
/// retried with backoff.
pub const STOP_EXIT_CODE: i32 = 75;

/// Largest accepted `POST /submit` body (spec + inline CSV upload).
/// Bounded so a misbehaving client cannot balloon server memory.
pub const MAX_SUBMIT_BODY: usize = 1 << 20;

/// How many trailing ledger events `GET /jobs/<id>` returns by default.
const JOB_EVENT_TAIL: usize = 16;

const POLL: Duration = Duration::from_millis(20);

// ---------------------------------------------------------------------
// Job specs.
// ---------------------------------------------------------------------

/// What to run on: a deterministic generator or an uploaded CSV.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetSpec {
    /// `synth::two_moons(n, noise, seed)`.
    TwoMoons { n: usize, noise: f64, seed: u64 },
    /// `synth::gaussian_blobs(n, dim, classes, std, seed)`.
    Blobs {
        n: usize,
        dim: usize,
        classes: usize,
        std: f64,
        seed: u64,
    },
    /// `synth::noisy_xor(n, flip, seed)`.
    Xor { n: usize, flip: f64, seed: u64 },
    /// An uploaded CSV, stored as `dataset.csv` in the job directory.
    Csv,
}

impl DatasetSpec {
    fn from_json(v: &Value) -> Result<DatasetSpec, String> {
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("dataset.kind missing (two_moons, blobs, xor, or csv)")?;
        let num = |key: &str, default: f64| v.get(key).and_then(Value::as_f64).unwrap_or(default);
        let int = |key: &str, default: u64| v.get(key).and_then(Value::as_u64).unwrap_or(default);
        match kind {
            "two_moons" => Ok(DatasetSpec::TwoMoons {
                n: int("n", 240) as usize,
                noise: num("noise", 0.25),
                seed: int("seed", 9),
            }),
            "blobs" => Ok(DatasetSpec::Blobs {
                n: int("n", 240) as usize,
                dim: int("dim", 2) as usize,
                classes: int("classes", 2) as usize,
                std: num("std", 0.5),
                seed: int("seed", 9),
            }),
            "xor" => Ok(DatasetSpec::Xor {
                n: int("n", 240) as usize,
                flip: num("flip", 0.05),
                seed: int("seed", 9),
            }),
            "csv" => Ok(DatasetSpec::Csv),
            other => Err(format!("unknown dataset.kind '{other}'")),
        }
    }

    fn to_json(&self) -> String {
        match self {
            DatasetSpec::TwoMoons { n, noise, seed } => {
                format!("{{\"kind\":\"two_moons\",\"n\":{n},\"noise\":{noise},\"seed\":{seed}}}")
            }
            DatasetSpec::Blobs {
                n,
                dim,
                classes,
                std,
                seed,
            } => format!(
                "{{\"kind\":\"blobs\",\"n\":{n},\"dim\":{dim},\"classes\":{classes},\"std\":{std},\"seed\":{seed}}}"
            ),
            DatasetSpec::Xor { n, flip, seed } => {
                format!("{{\"kind\":\"xor\",\"n\":{n},\"flip\":{flip},\"seed\":{seed}}}")
            }
            DatasetSpec::Csv => "{\"kind\":\"csv\"}".to_string(),
        }
    }

    fn materialize(&self, job_dir: &Path) -> Result<Dataset, String> {
        match self {
            DatasetSpec::TwoMoons { n, noise, seed } => {
                synth::two_moons(*n, *noise, *seed).map_err(|e| e.to_string())
            }
            DatasetSpec::Blobs {
                n,
                dim,
                classes,
                std,
                seed,
            } => synth::gaussian_blobs(*n, *dim, *classes, *std, *seed).map_err(|e| e.to_string()),
            DatasetSpec::Xor { n, flip, seed } => {
                synth::noisy_xor(*n, *flip, *seed).map_err(|e| e.to_string())
            }
            DatasetSpec::Csv => {
                csv::read_csv(&job_dir.join("dataset.csv")).map_err(|e| e.to_string())
            }
        }
    }
}

/// One submitted experiment: which dataset, which strategies (one per
/// feedback round), and the experiment-loop knobs. Everything defaults
/// to a small deterministic two-moons experiment, so `{}` is a valid
/// submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Display name (also the workload joined on by `/history`).
    pub name: String,
    /// Master seed; per-round seeds derive from it exactly like the
    /// bench bins (`seed ^ ((round+1) * 0xA5A5)`).
    pub seed: u64,
    pub dataset: DatasetSpec,
    /// One strategy per feedback round, by paper name ("Uniform",
    /// "Without feedback", "Cross-ALE", …).
    pub rounds: Vec<Strategy>,
    pub n_candidates: usize,
    pub parallelism: usize,
    pub n_feedback_points: usize,
    pub n_cross_runs: usize,
    pub n_test_sets: usize,
    /// Artificial pause between rounds (does not touch the ledger) —
    /// lets tests and demos control job duration.
    pub round_sleep_ms: u64,
    /// Per-job wall-clock budget override (server default otherwise).
    pub timeout_ms: Option<u64>,
}

/// Look a strategy up by its paper name (`Strategy::name`).
pub fn strategy_by_name(name: &str) -> Option<Strategy> {
    Strategy::ALL.into_iter().find(|s| s.name() == name)
}

impl JobSpec {
    /// Parse a submitted spec. Unknown strategy names and dataset kinds
    /// are errors (reported as 400s); missing fields default.
    pub fn from_json(v: &Value) -> Result<JobSpec, String> {
        let int = |key: &str, default: u64| v.get(key).and_then(Value::as_u64).unwrap_or(default);
        let rounds = match v.get("rounds").and_then(Value::as_arr) {
            Some(arr) => {
                let mut rounds = Vec::with_capacity(arr.len());
                for item in arr {
                    let name = item.as_str().ok_or("rounds entries must be strings")?;
                    rounds.push(
                        strategy_by_name(name)
                            .ok_or_else(|| format!("unknown strategy '{name}' in rounds"))?,
                    );
                }
                if rounds.is_empty() {
                    return Err("rounds must not be empty".into());
                }
                rounds
            }
            None => vec![Strategy::NoFeedback, Strategy::Uniform],
        };
        let dataset = match v.get("dataset") {
            Some(d) => DatasetSpec::from_json(d)?,
            None if v.get("csv").is_some() => DatasetSpec::Csv,
            None => DatasetSpec::TwoMoons {
                n: 240,
                noise: 0.25,
                seed: 9,
            },
        };
        Ok(JobSpec {
            name: v
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("job")
                .to_string(),
            seed: int("seed", 21),
            dataset,
            rounds,
            n_candidates: int("n_candidates", 6) as usize,
            parallelism: int("parallelism", 2) as usize,
            n_feedback_points: int("n_feedback_points", 10) as usize,
            n_cross_runs: int("n_cross_runs", 2) as usize,
            n_test_sets: int("n_test_sets", 3) as usize,
            round_sleep_ms: int("round_sleep_ms", 0),
            timeout_ms: v.get("timeout_ms").and_then(Value::as_u64),
        })
    }

    /// Serialize for `job.json` (same shape `from_json` accepts).
    pub fn to_json(&self) -> String {
        let rounds: Vec<String> = self.rounds.iter().map(|s| json::string(s.name())).collect();
        format!(
            "{{\"name\":{},\"seed\":{},\"dataset\":{},\"rounds\":[{}],\
             \"n_candidates\":{},\"parallelism\":{},\"n_feedback_points\":{},\
             \"n_cross_runs\":{},\"n_test_sets\":{},\"round_sleep_ms\":{},\"timeout_ms\":{}}}",
            json::string(&self.name),
            self.seed,
            self.dataset.to_json(),
            rounds.join(","),
            self.n_candidates,
            self.parallelism,
            self.n_feedback_points,
            self.n_cross_runs,
            self.n_test_sets,
            self.round_sleep_ms,
            self.timeout_ms
                .map_or("null".to_string(), |t| t.to_string()),
        )
    }

    /// Token cost charged against the tenant's budget: one token per
    /// feedback round.
    pub fn cost(&self) -> u64 {
        self.rounds.len() as u64
    }
}

// ---------------------------------------------------------------------
// Shared small-file helpers (tmp + rename discipline).
// ---------------------------------------------------------------------

/// Write `bytes` to `path` atomically: tmp file in the same directory,
/// fsync, rename. Readers see the old content or the new, never a torn
/// mix — the checkpoint module's discipline.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Append one whole line (newline added) to an `O_APPEND` log with a
/// single `write`, then fsync. Concurrent appenders cannot interleave
/// bytes within a line; a crash can only tear the final line, which
/// replay skips.
fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    let mut owned = String::with_capacity(line.len() + 1);
    owned.push_str(line);
    owned.push('\n');
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(owned.as_bytes())?;
    f.sync_data()
}

/// Exponential backoff for retry `attempt` (1-based): `base * 2^(a-1)`,
/// capped at 30 s.
pub fn backoff_delay(attempt: u32, base: Duration) -> Duration {
    let factor = 1u32 << attempt.saturating_sub(1).min(16);
    (base * factor).min(Duration::from_secs(30))
}

// ---------------------------------------------------------------------
// The worker process.
// ---------------------------------------------------------------------

/// Entry point for `amlserve --worker <jobdir>`: run (or resume) the
/// job in `job_dir` to completion. Returns the process exit code:
/// `0` done, [`STOP_EXIT_CODE`] when a stop file asked for a
/// cooperative stop at a round boundary, `1` on error. With
/// `inject_crash` the process aborts right after checkpointing its
/// first fresh round — the deterministic `worker_crash@N` fault.
pub fn run_worker(job_dir: &Path, inject_crash: bool) -> i32 {
    match worker_inner(job_dir, inject_crash) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("[amlserve worker] {}: {e}", job_dir.display());
            1
        }
    }
}

fn stop_requested(job_dir: &Path) -> bool {
    job_dir.join("stop").exists()
}

/// Sleep `ms`, polling the stop file so a cancel during the pause is
/// honored without waiting the pause out. True if stop was requested.
fn sleep_checking_stop(job_dir: &Path, ms: u64) -> bool {
    let deadline = Instant::now() + Duration::from_millis(ms);
    while Instant::now() < deadline {
        if stop_requested(job_dir) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50).min(deadline - Instant::now()));
    }
    stop_requested(job_dir)
}

fn worker_inner(job_dir: &Path, inject_crash: bool) -> Result<i32, String> {
    let started = Instant::now();
    let text = fs::read_to_string(job_dir.join("job.json"))
        .map_err(|e| format!("cannot read job.json: {e}"))?;
    let parsed = json::parse(&text).map_err(|e| format!("job.json: {e}"))?;
    let id = parsed
        .get("id")
        .and_then(Value::as_str)
        .ok_or("job.json missing id")?
        .to_string();
    let spec = JobSpec::from_json(parsed.get("spec").ok_or("job.json missing spec")?)?;

    write_atomic(
        &job_dir.join("worker.pid"),
        format!("{}\n", std::process::id()).as_bytes(),
    )
    .map_err(|e| format!("cannot write pidfile: {e}"))?;

    // Ledger determinism contract: every header field is a pure
    // function of the job, so an uninterrupted reference run over the
    // same job.json produces byte-identical lines.
    let workload = format!("amlserve:{id}");
    let header = RunHeader {
        run_id: id.clone(),
        workload: workload.clone(),
        seed: spec.seed,
        git: "amlserve".into(),
    };
    let ledger = job_dir.join("ledger.jsonl");
    let ckpt_path = job_dir.join("run.ckpt");

    aml_telemetry::set_level(aml_telemetry::TelemetryLevel::Summary);
    let mut exp_loop = if ckpt_path.exists() {
        let ckpt =
            aml_core::checkpoint::prepare_resume(&workload, spec.seed, &ckpt_path, Some(&ledger))
                .map_err(|e| format!("resume: {e}"))?;
        aml_telemetry::ledger::mark_search_space_emitted();
        sink::install(Box::new(
            LedgerJsonlSink::append(&ledger).map_err(|e| format!("ledger: {e}"))?,
        ));
        ExperimentLoop::from_checkpoint(ckpt, Some(ckpt_path), Some(ledger.clone()))
    } else {
        aml_telemetry::ledger::set_next_round(0);
        sink::install(Box::new(
            LedgerJsonlSink::create(&ledger, &header).map_err(|e| format!("ledger: {e}"))?,
        ));
        ExperimentLoop::new(&workload, spec.seed, Some(ckpt_path), Some(ledger.clone()))
    };

    // Three-way split so every strategy capability is covered: free
    // strategies label through the oracle, pool strategies draw from
    // the held-out candidate pool. Split seeds are constants — the
    // job's own seed already varies the dataset and the search.
    let ds = spec.dataset.materialize(job_dir)?;
    let (train, test, pool) = three_way_split(&ds, 0.4, 0.3, 1).map_err(|e| e.to_string())?;
    let test_sets = split_into_k(&test, spec.n_test_sets, 7).map_err(|e| e.to_string())?;
    let oracle = |rows: &[Vec<f64>]| -> aml_core::Result<Dataset> {
        let labels: Vec<usize> = rows.iter().map(|r| usize::from(r[0] > 0.5)).collect();
        Dataset::from_rows(rows, &labels, 2)
            .map_err(|e| aml_core::CoreError::InvalidParameter(e.to_string()))
    };

    let crash_armed = inject_crash;
    let mut last_scores: Vec<f64> = Vec::new();
    for (round, strategy) in spec.rounds.iter().enumerate() {
        let round = round as u64;
        if stop_requested(job_dir) {
            sink::finish(&Snapshot::default());
            return Ok(STOP_EXIT_CODE);
        }
        let cfg = ExperimentConfig {
            automl: aml_automl::AutoMlConfig {
                n_candidates: spec.n_candidates,
                parallelism: spec.parallelism,
                ..Default::default()
            },
            n_feedback_points: spec.n_feedback_points,
            n_cross_runs: spec.n_cross_runs,
            seed: spec.seed ^ ((round + 1) * 0xA5A5),
            ..Default::default()
        };
        let (rec, resumed) = exp_loop
            .run_round(round, *strategy, || {
                run_strategy(
                    *strategy,
                    &cfg,
                    &train,
                    Some(&pool),
                    Some(&oracle),
                    &test_sets,
                )
            })
            .map_err(|e| format!("round {round}: {e}"))?;
        last_scores = rec.scores;
        if resumed {
            continue;
        }
        if crash_armed {
            // The round above is checkpointed and its ledger bytes are
            // flushed; abort models a worker crash whose retry must
            // resume to a byte-identical ledger.
            std::process::abort();
        }
        if spec.round_sleep_ms > 0 && sleep_checking_stop(job_dir, spec.round_sleep_ms) {
            sink::finish(&Snapshot::default());
            return Ok(STOP_EXIT_CODE);
        }
    }

    sink::finish(&Snapshot::default());
    // The ledger holds the whole job, including rounds a crashed attempt
    // ran before this retry resumed it.
    let totals = fs::read_to_string(&ledger)
        .map_err(|e| e.to_string())
        .and_then(|text| aml_telemetry::ledger::read(&text))
        .map(|(_, events)| LedgerSummary::from_events(&events))
        .map_err(|e| format!("ledger: {e}"))?;
    // An empty round list reads as NaN, written as `null`.
    let final_acc = json::num(last_scores.iter().sum::<f64>() / last_scores.len() as f64);
    let result = format!(
        "{{\"id\":{},\"name\":{},\"seed\":{},\"final_acc\":{},\"trials_finished\":{},\
         \"trials_failed\":{},\"rounds\":{},\"ece\":{},\"wall_time_s\":{}}}",
        json::string(&id),
        json::string(&spec.name),
        spec.seed,
        final_acc,
        totals.trials_finished,
        totals.trials_failed,
        totals.rounds,
        json::num(totals.ece.unwrap_or(f64::NAN)),
        started.elapsed().as_secs_f64(),
    );
    // result.json is the completion marker; written last, atomically.
    write_atomic(&job_dir.join("result.json"), result.as_bytes())
        .map_err(|e| format!("cannot write result.json: {e}"))?;
    Ok(0)
}

// ---------------------------------------------------------------------
// Server configuration and state.
// ---------------------------------------------------------------------

/// Server knobs; see the `amlserve` binary's `--help` for the flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port; the bound
    /// address lands in `<data_dir>/serve.addr`).
    pub addr: String,
    /// Root of the journal, job directories, and history store.
    pub data_dir: PathBuf,
    /// Worker-pool bound: at most this many jobs run concurrently.
    pub workers: usize,
    /// Admission bound: at most this many jobs queued (running jobs do
    /// not count); beyond it `POST /submit` answers 429.
    pub queue_cap: usize,
    /// Per-tenant concurrency bound.
    pub tenant_max_running: usize,
    /// Per-tenant token budget for this server's lifetime; each
    /// accepted job costs [`JobSpec::cost`] tokens.
    pub tenant_budget: u64,
    /// Default per-job wall-clock budget (spec `timeout_ms` overrides).
    pub job_timeout: Duration,
    /// Crash-retry bound per job.
    pub max_retries: u32,
    /// First retry delay; doubles per attempt, capped at 30 s.
    pub retry_base: Duration,
    /// How long a graceful shutdown waits for workers to reach a round
    /// boundary before killing them.
    pub drain_grace: Duration,
    /// Preempt the longest-running job once it has run this long and a
    /// queued job is starving (None: never preempt).
    pub preempt_after: Option<Duration>,
    /// Deterministic fault injection (`worker_crash@N`, `submit_burst@N`).
    pub fault_plan: Option<FaultPlan>,
    /// History store path (default `<data_dir>/history.jsonl`).
    pub history_path: Option<PathBuf>,
}

impl ServerConfig {
    /// Defaults for everything but the data directory.
    pub fn new(data_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:9900".into(),
            data_dir: data_dir.into(),
            workers: 2,
            queue_cap: 16,
            tenant_max_running: 2,
            tenant_budget: 1024,
            job_timeout: Duration::from_secs(300),
            max_retries: 3,
            retry_base: Duration::from_millis(500),
            drain_grace: Duration::from_secs(10),
            preempt_after: None,
            fault_plan: None,
            history_path: None,
        }
    }

    fn history_path(&self) -> PathBuf {
        self.history_path
            .clone()
            .unwrap_or_else(|| self.data_dir.join("history.jsonl"))
    }
}

/// Job lifecycle states (see DESIGN.md §12 for the transition diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Canceled,
}

impl JobState {
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StopKind {
    Cancel,
    Preempt,
}

struct Job {
    id: String,
    tenant: String,
    spec: JobSpec,
    state: JobState,
    attempt: u32,
    /// Backoff gate: not eligible to launch before this instant.
    not_before: Option<Instant>,
    child: Option<Child>,
    started_at: Option<Instant>,
    deadline: Option<Instant>,
    stop_requested: Option<StopKind>,
    failure: Option<String>,
}

struct Response {
    status: &'static str,
    content_type: &'static str,
    headers: Vec<(&'static str, String)>,
    body: String,
}

impl Response {
    fn json(status: &'static str, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }

    fn error(status: &'static str, message: &str) -> Response {
        Response::json(status, format!("{{\"error\":{}}}\n", json::string(message)))
    }
}

/// The scheduler + HTTP plane. Owned and driven by [`run_server`];
/// constructed via journal replay so a restart continues where the
/// previous life stopped.
pub struct Server {
    cfg: ServerConfig,
    exe: PathBuf,
    jobs: Vec<Job>,
    next_id: u64,
    /// Submissions seen this server life (indexes `submit_burst@N`).
    submissions: u64,
    /// Worker launches this server life (indexes `worker_crash@N`).
    launches: u64,
    /// Tokens spent per tenant (rebuilt from the journal on recovery).
    spent: HashMap<String, u64>,
    draining: bool,
    drain_deadline: Option<Instant>,
    started: Instant,
}

/// Replayed journal state for one job.
#[derive(Debug, Default, Clone)]
struct ReplayedJob {
    tenant: String,
    last_event: String,
    attempt: u32,
}

/// Replay `queue.jsonl` text: last event + attempt per job id, in first-
/// submission order. Unparseable (torn) lines are skipped.
fn replay_journal(text: &str) -> Vec<(String, ReplayedJob)> {
    let mut order: Vec<String> = Vec::new();
    let mut map: HashMap<String, ReplayedJob> = HashMap::new();
    for line in text.lines() {
        let Ok(v) = json::parse(line) else {
            continue;
        };
        let (Some(event), Some(id)) = (
            v.get("event").and_then(Value::as_str),
            v.get("job").and_then(Value::as_str),
        ) else {
            continue;
        };
        let entry = map.entry(id.to_string()).or_insert_with(|| {
            order.push(id.to_string());
            ReplayedJob::default()
        });
        entry.last_event = event.to_string();
        if let Some(t) = v.get("tenant").and_then(Value::as_str) {
            entry.tenant = t.to_string();
        }
        if let Some(a) = v.get("attempt").and_then(Value::as_u64) {
            entry.attempt = a as u32;
        }
    }
    order
        .into_iter()
        .map(|id| {
            let job = map.remove(&id).unwrap_or_default();
            (id, job)
        })
        .collect()
}

/// Kill a worker process orphaned by a previous server life, if one is
/// still alive on this job (pidfile + `/proc/<pid>/cmdline` identity
/// check so a recycled pid is never killed). Two writers on one ledger
/// would corrupt it, so fencing must complete before a job is resumed.
fn fence_orphan(job_dir: &Path) {
    let Ok(pid_text) = fs::read_to_string(job_dir.join("worker.pid")) else {
        return;
    };
    let Ok(pid) = pid_text.trim().parse::<u32>() else {
        return;
    };
    let cmdline_path = PathBuf::from(format!("/proc/{pid}/cmdline"));
    let Ok(cmdline) = fs::read(&cmdline_path) else {
        let _ = fs::remove_file(job_dir.join("worker.pid"));
        return; // already dead (or no /proc on this platform)
    };
    let cmdline = String::from_utf8_lossy(&cmdline).replace('\0', " ");
    let dir_str = job_dir.to_string_lossy();
    if !(cmdline.contains("--worker") && cmdline.contains(dir_str.as_ref())) {
        let _ = fs::remove_file(job_dir.join("worker.pid"));
        return; // pid recycled by an unrelated process
    }
    let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
    for _ in 0..250 {
        if !cmdline_path.exists() {
            break;
        }
        std::thread::sleep(POLL);
    }
    let _ = fs::remove_file(job_dir.join("worker.pid"));
}

impl Server {
    fn journal_path(&self) -> PathBuf {
        self.cfg.data_dir.join("queue.jsonl")
    }

    fn job_dir(&self, id: &str) -> PathBuf {
        self.cfg.data_dir.join("jobs").join(id)
    }

    /// Append one state-transition event to the queue journal. `extra`
    /// values are raw JSON (already rendered).
    fn journal(&self, event: &str, id: &str, extra: &[(&str, String)]) {
        let mut line = format!(
            "{{\"event\":{},\"job\":{}",
            json::string(event),
            json::string(id)
        );
        for (key, value) in extra {
            line.push_str(&format!(",\"{key}\":{value}"));
        }
        line.push('}');
        if let Err(e) = append_line(&self.journal_path(), &line) {
            eprintln!("[amlserve] journal append failed: {e}");
        }
    }

    /// Build a server by replaying the queue journal: fence orphaned
    /// workers, promote jobs whose `result.json` landed while the
    /// previous life was dead, requeue the rest (they resume from their
    /// checkpoints when launched).
    pub fn recover(cfg: ServerConfig, exe: PathBuf) -> std::io::Result<Server> {
        fs::create_dir_all(cfg.data_dir.join("jobs"))?;
        let journal_text = fs::read_to_string(cfg.data_dir.join("queue.jsonl")).unwrap_or_default();
        let mut server = Server {
            cfg,
            exe,
            jobs: Vec::new(),
            next_id: 1,
            submissions: 0,
            launches: 0,
            spent: HashMap::new(),
            draining: false,
            drain_deadline: None,
            started: Instant::now(),
        };
        for (id, replayed) in replay_journal(&journal_text) {
            if let Some(n) = id.strip_prefix('j').and_then(|n| n.parse::<u64>().ok()) {
                server.next_id = server.next_id.max(n + 1);
            }
            let job_dir = server.job_dir(&id);
            let spec = fs::read_to_string(job_dir.join("job.json"))
                .ok()
                .and_then(|t| json::parse(&t).ok())
                .and_then(|v| v.get("spec").and_then(|s| JobSpec::from_json(s).ok()));
            let tenant = if replayed.tenant.is_empty() {
                "default".to_string()
            } else {
                replayed.tenant
            };
            let Some(spec) = spec else {
                // Spec lost or corrupt — nothing can run. Journal the
                // terminal state once (idempotent across restarts).
                if !matches!(replayed.last_event.as_str(), "done" | "failed" | "canceled") {
                    server.journal(
                        "failed",
                        &id,
                        &[("reason", "\"job.json missing or corrupt\"".into())],
                    );
                }
                continue;
            };
            *server.spent.entry(tenant.clone()).or_insert(0) += spec.cost();
            let state = match replayed.last_event.as_str() {
                "done" => JobState::Done,
                "failed" => JobState::Failed,
                "canceled" => JobState::Canceled,
                _ => {
                    fence_orphan(&job_dir);
                    let _ = fs::remove_file(job_dir.join("stop"));
                    if job_dir.join("result.json").exists() {
                        // The worker finished while the server was dead.
                        server.journal("done", &id, &[("recovered", "true".into())]);
                        aml_telemetry::counter_add("serve.jobs_done", 1);
                        JobState::Done
                    } else {
                        JobState::Queued
                    }
                }
            };
            server.jobs.push(Job {
                id,
                tenant,
                spec,
                state,
                attempt: replayed.attempt,
                not_before: None,
                child: None,
                started_at: None,
                deadline: None,
                stop_requested: None,
                failure: None,
            });
        }
        Ok(server)
    }

    fn queued_count(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.state == JobState::Queued)
            .count()
    }

    fn running_count(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.state == JobState::Running)
            .count()
    }

    fn tenant_running(&self, tenant: &str) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.state == JobState::Running && j.tenant == tenant)
            .count()
    }

    fn retry_after(&self) -> String {
        (2 + self.queued_count().min(28)).to_string()
    }

    // -----------------------------------------------------------------
    // Scheduler.
    // -----------------------------------------------------------------

    /// One scheduler pass: reap finished workers, kill over-deadline
    /// ones, preempt for starving queued jobs, launch eligible jobs,
    /// publish the queue gauges.
    pub fn tick(&mut self) {
        self.reap_workers();
        self.enforce_timeouts();
        self.maybe_preempt();
        self.launch_eligible();
        aml_telemetry::gauge_set("serve.jobs_queued", self.queued_count() as u64);
        aml_telemetry::gauge_set("serve.jobs_running", self.running_count() as u64);
    }

    fn reap_workers(&mut self) {
        for i in 0..self.jobs.len() {
            if self.jobs[i].state != JobState::Running {
                continue;
            }
            let Some(child) = self.jobs[i].child.as_mut() else {
                continue;
            };
            match child.try_wait() {
                Ok(None) => {}
                Ok(Some(status)) => self.finish_worker(i, status.code()),
                Err(_) => self.finish_worker(i, None),
            }
        }
    }

    fn finish_worker(&mut self, i: usize, code: Option<i32>) {
        let id = self.jobs[i].id.clone();
        let job_dir = self.job_dir(&id);
        let _ = fs::remove_file(job_dir.join("worker.pid"));
        let _ = fs::remove_file(job_dir.join("stop"));
        self.jobs[i].child = None;
        let wall = self.jobs[i]
            .started_at
            .map(|t| t.elapsed())
            .unwrap_or_default();
        self.jobs[i].started_at = None;
        self.jobs[i].deadline = None;
        let stop_kind = self.jobs[i].stop_requested.take();

        if code == Some(0) {
            self.jobs[i].state = JobState::Done;
            self.journal("done", &id, &[]);
            aml_telemetry::counter_add("serve.jobs_done", 1);
            self.append_history(i, wall);
            return;
        }
        if code == Some(STOP_EXIT_CODE) {
            if stop_kind == Some(StopKind::Cancel) {
                self.jobs[i].state = JobState::Canceled;
                self.journal("canceled", &id, &[]);
                aml_telemetry::counter_add("serve.jobs_canceled", 1);
            } else {
                // Preempt (explicit or drain): checkpoint is on disk,
                // back in the queue for this life or the next.
                self.jobs[i].state = JobState::Queued;
                self.journal("preempted", &id, &[]);
                aml_telemetry::counter_add("serve.jobs_preempted", 1);
            }
            return;
        }
        // Crash, SIGKILL, timeout kill, or injected abort.
        if self.draining {
            self.jobs[i].state = JobState::Queued;
            self.journal("preempted", &id, &[]);
            aml_telemetry::counter_add("serve.jobs_preempted", 1);
            return;
        }
        let reason = self.jobs[i].failure.take().unwrap_or_else(|| {
            code.map_or("worker killed by signal".to_string(), |c| {
                format!("worker exited with code {c}")
            })
        });
        if self.jobs[i].attempt < self.cfg.max_retries {
            self.jobs[i].attempt += 1;
            let delay = backoff_delay(self.jobs[i].attempt, self.cfg.retry_base);
            self.jobs[i].not_before = Some(Instant::now() + delay);
            self.jobs[i].state = JobState::Queued;
            self.journal(
                "retried",
                &id,
                &[
                    ("attempt", self.jobs[i].attempt.to_string()),
                    ("delay_ms", delay.as_millis().to_string()),
                    ("reason", json::string(&reason)),
                ],
            );
            aml_telemetry::counter_add("serve.jobs_retried", 1);
        } else {
            self.jobs[i].state = JobState::Failed;
            self.jobs[i].failure = Some(reason.clone());
            self.journal("failed", &id, &[("reason", json::string(&reason))]);
            aml_telemetry::counter_add("serve.jobs_failed", 1);
        }
    }

    /// Append a history record for a completed job from its
    /// `result.json` — the per-job analogue of `--record`.
    fn append_history(&mut self, i: usize, wall: Duration) {
        let id = self.jobs[i].id.clone();
        let result = fs::read_to_string(self.job_dir(&id).join("result.json"))
            .ok()
            .and_then(|t| json::parse(&t).ok());
        let get_u64 = |v: &Option<Value>, key: &str| {
            v.as_ref()
                .and_then(|v| v.get(key).and_then(Value::as_u64))
                .unwrap_or(0)
        };
        let get_f64 = |v: &Option<Value>, key: &str| {
            v.as_ref().and_then(|v| v.get(key).and_then(Value::as_f64))
        };
        let record = HistoryRecord {
            workload: self.jobs[i].spec.name.clone(),
            seed: self.jobs[i].spec.seed,
            git: String::new(),
            source: "amlserve".into(),
            wall_time_s: wall.as_secs_f64(),
            top_span_total_s: 0.0,
            peak_rss_bytes: 0,
            alloc_peak_bytes: 0,
            final_acc: get_f64(&result, "final_acc"),
            trials_finished: get_u64(&result, "trials_finished"),
            trials_failed: get_u64(&result, "trials_failed"),
            rounds: get_u64(&result, "rounds"),
            ece: get_f64(&result, "ece"),
        };
        if let Err(e) = record.append(&self.cfg.history_path()) {
            eprintln!("[amlserve] history append failed: {e}");
        }
    }

    fn enforce_timeouts(&mut self) {
        let now = Instant::now();
        for job in &mut self.jobs {
            if job.state == JobState::Running
                && job.deadline.is_some_and(|d| now > d)
                && job.failure.is_none()
            {
                job.failure = Some(format!(
                    "wall-clock timeout after {:?}",
                    job.started_at.map(|t| t.elapsed()).unwrap_or_default()
                ));
                if let Some(child) = job.child.as_mut() {
                    let _ = child.kill(); // reaped as a crash → retry path
                }
            }
        }
    }

    /// When a queued job is eligible but every worker slot is held by a
    /// long run, ask the longest-running job (past `preempt_after`) to
    /// checkpoint and requeue at its next round boundary.
    fn maybe_preempt(&mut self) {
        let Some(after) = self.cfg.preempt_after else {
            return;
        };
        if self.draining || self.running_count() < self.cfg.workers {
            return;
        }
        let now = Instant::now();
        let starving = self.jobs.iter().any(|j| {
            j.state == JobState::Queued
                && j.not_before.is_none_or(|t| now >= t)
                && self.tenant_running(&j.tenant) < self.cfg.tenant_max_running
        });
        if !starving {
            return;
        }
        let victim = self
            .jobs
            .iter_mut()
            .filter(|j| {
                j.state == JobState::Running
                    && j.stop_requested.is_none()
                    && j.started_at.is_some_and(|t| t.elapsed() > after)
            })
            .max_by_key(|j| j.started_at.map(|t| t.elapsed()).unwrap_or_default());
        if let Some(job) = victim {
            let dir = self.cfg.data_dir.join("jobs").join(&job.id);
            if write_atomic(&dir.join("stop"), b"preempt\n").is_ok() {
                job.stop_requested = Some(StopKind::Preempt);
            }
        }
    }

    fn launch_eligible(&mut self) {
        if self.draining {
            return;
        }
        loop {
            if self.running_count() >= self.cfg.workers {
                return;
            }
            let now = Instant::now();
            let Some(i) = self.jobs.iter().position(|j| {
                j.state == JobState::Queued
                    && j.not_before.is_none_or(|t| now >= t)
                    && self.tenant_running(&j.tenant) < self.cfg.tenant_max_running
            }) else {
                return;
            };
            self.launch(i);
        }
    }

    fn launch(&mut self, i: usize) {
        let id = self.jobs[i].id.clone();
        let job_dir = self.job_dir(&id);
        let _ = fs::remove_file(job_dir.join("stop"));
        let crash = self
            .cfg
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.worker_crash_at(self.launches));
        self.launches += 1;

        let mut cmd = Command::new(&self.exe);
        cmd.arg("--worker")
            .arg(&job_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        match fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(job_dir.join("worker.log"))
        {
            Ok(log) => {
                cmd.stderr(Stdio::from(log));
            }
            Err(_) => {
                cmd.stderr(Stdio::null());
            }
        }
        if crash {
            cmd.arg("--inject-crash");
        }
        match cmd.spawn() {
            Ok(child) => {
                let timeout = self.jobs[i]
                    .spec
                    .timeout_ms
                    .map(Duration::from_millis)
                    .unwrap_or(self.cfg.job_timeout);
                self.journal(
                    "started",
                    &id,
                    &[("attempt", self.jobs[i].attempt.to_string())],
                );
                self.jobs[i].child = Some(child);
                self.jobs[i].state = JobState::Running;
                self.jobs[i].started_at = Some(Instant::now());
                self.jobs[i].deadline = Some(Instant::now() + timeout);
                self.jobs[i].failure = None;
            }
            Err(e) => {
                let reason = format!("cannot spawn worker: {e}");
                self.jobs[i].state = JobState::Failed;
                self.jobs[i].failure = Some(reason.clone());
                self.journal("failed", &id, &[("reason", json::string(&reason))]);
                aml_telemetry::counter_add("serve.jobs_failed", 1);
            }
        }
    }

    /// Drain progress: true when no worker is left running. Past the
    /// grace deadline, running workers are killed (their last
    /// checkpoint stands) and journaled `preempted` via the reap path.
    pub fn drained(&mut self) -> bool {
        if !self.draining {
            return false;
        }
        if self.drain_deadline.is_some_and(|d| Instant::now() > d) {
            for job in &mut self.jobs {
                if let Some(child) = job.child.as_mut() {
                    let _ = child.kill();
                }
            }
            self.reap_workers();
        }
        self.running_count() == 0
    }

    // -----------------------------------------------------------------
    // HTTP plane.
    // -----------------------------------------------------------------

    /// Serve one connection (one request, `Connection: close`).
    pub fn handle_connection(&mut self, mut stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let req = match read_request(&mut stream, MAX_SUBMIT_BODY) {
            Ok(req) => req,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                let resp = Response::error("400 Bad Request", &e.to_string());
                let _ = write_response(
                    &mut stream,
                    resp.status,
                    resp.content_type,
                    &[],
                    resp.body.as_bytes(),
                );
                return;
            }
            Err(_) => return,
        };
        let resp = self.route(&req);
        let extra: Vec<(&str, String)> =
            resp.headers.iter().map(|(k, v)| (*k, v.clone())).collect();
        let _ = write_response(
            &mut stream,
            resp.status,
            resp.content_type,
            &extra,
            resp.body.as_bytes(),
        );
    }

    fn route(&mut self, req: &HttpRequest) -> Response {
        let path = req.path.as_str();
        match (req.method.as_str(), path) {
            ("POST", "/submit") => self.submit(req),
            ("POST", "/shutdown") => self.shutdown(),
            ("GET", "/jobs") => Response::json("200 OK", self.jobs_json()),
            ("GET", "/metrics") => Response {
                status: "200 OK",
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                headers: Vec::new(),
                body: render_prometheus(&aml_telemetry::global().snapshot()),
            },
            ("GET", "/healthz") => Response::json("200 OK", self.healthz_json()),
            ("GET", "/history") => Response::json(
                "200 OK",
                render_history_array(&self.cfg.history_path(), req.query.as_deref()),
            ),
            ("GET", "/dashboard") => Response {
                status: "200 OK",
                content_type: "text/html; charset=utf-8",
                headers: Vec::new(),
                body: dashboard_html().to_string(),
            },
            ("GET", _) if path.starts_with("/jobs/") => {
                self.job_detail(&path["/jobs/".len()..], req.query.as_deref())
            }
            ("DELETE", _) if path.starts_with("/jobs/") => self.cancel(&path["/jobs/".len()..]),
            _ => Response::error(
                "404 Not Found",
                "try POST /submit, GET /jobs, GET /jobs/<id>, DELETE /jobs/<id>, \
                 /metrics, /healthz, /history, /dashboard, POST /shutdown",
            ),
        }
    }

    fn submit(&mut self, req: &HttpRequest) -> Response {
        if self.draining {
            return Response::error("503 Service Unavailable", "server is draining");
        }
        let submission = self.submissions;
        self.submissions += 1;
        let reject = |server: &Server, why: &str| {
            aml_telemetry::counter_add("serve.jobs_rejected", 1);
            let mut resp = Response::error("429 Too Many Requests", why);
            resp.headers.push(("Retry-After", server.retry_after()));
            resp
        };
        if self
            .cfg
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.submit_burst_at(submission))
        {
            return reject(self, "injected submit_burst: queue treated as full");
        }
        let body = String::from_utf8_lossy(&req.body).into_owned();
        let parsed = match json::parse(if body.trim().is_empty() { "{}" } else { &body }) {
            Ok(v) => v,
            Err(e) => return Response::error("400 Bad Request", &format!("body: {e}")),
        };
        let spec = match JobSpec::from_json(&parsed) {
            Ok(s) => s,
            Err(e) => return Response::error("400 Bad Request", &e),
        };
        if self.queued_count() >= self.cfg.queue_cap {
            return reject(self, "queue full");
        }
        let tenant = req
            .header("x-tenant")
            .map(str::to_string)
            .or_else(|| {
                parsed
                    .get("tenant")
                    .and_then(Value::as_str)
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "default".to_string());
        let spent = self.spent.get(&tenant).copied().unwrap_or(0);
        if spent + spec.cost() > self.cfg.tenant_budget {
            return reject(
                self,
                &format!(
                    "tenant '{tenant}' token budget exhausted ({spent}/{} spent, job costs {})",
                    self.cfg.tenant_budget,
                    spec.cost()
                ),
            );
        }

        let id = format!("j{:06}", self.next_id);
        self.next_id += 1;
        let job_dir = self.job_dir(&id);
        if let Err(e) = fs::create_dir_all(&job_dir) {
            return Response::error("500 Internal Server Error", &e.to_string());
        }
        if let Some(csv_text) = parsed.get("csv").and_then(Value::as_str) {
            if let Err(e) = write_atomic(&job_dir.join("dataset.csv"), csv_text.as_bytes()) {
                return Response::error("500 Internal Server Error", &e.to_string());
            }
        }
        let job_json = format!(
            "{{\"id\":{},\"tenant\":{},\"spec\":{}}}",
            json::string(&id),
            json::string(&tenant),
            spec.to_json()
        );
        if let Err(e) = write_atomic(&job_dir.join("job.json"), job_json.as_bytes()) {
            return Response::error("500 Internal Server Error", &e.to_string());
        }
        self.journal(
            "submitted",
            &id,
            &[
                ("tenant", json::string(&tenant)),
                ("cost", spec.cost().to_string()),
            ],
        );
        *self.spent.entry(tenant.clone()).or_insert(0) += spec.cost();
        aml_telemetry::counter_add("serve.jobs_submitted", 1);
        self.jobs.push(Job {
            id: id.clone(),
            tenant,
            spec,
            state: JobState::Queued,
            attempt: 0,
            not_before: None,
            child: None,
            started_at: None,
            deadline: None,
            stop_requested: None,
            failure: None,
        });
        Response::json(
            "202 Accepted",
            format!("{{\"job\":{},\"state\":\"queued\"}}\n", json::string(&id)),
        )
    }

    fn cancel(&mut self, id: &str) -> Response {
        let Some(i) = self.jobs.iter().position(|j| j.id == id) else {
            return Response::error("404 Not Found", "no such job");
        };
        match self.jobs[i].state {
            JobState::Queued => {
                self.jobs[i].state = JobState::Canceled;
                let id = self.jobs[i].id.clone();
                self.journal("canceled", &id, &[]);
                aml_telemetry::counter_add("serve.jobs_canceled", 1);
                Response::json("200 OK", "{\"state\":\"canceled\"}\n".into())
            }
            JobState::Running => {
                let dir = self.job_dir(id);
                if let Err(e) = write_atomic(&dir.join("stop"), b"cancel\n") {
                    return Response::error("500 Internal Server Error", &e.to_string());
                }
                self.jobs[i].stop_requested = Some(StopKind::Cancel);
                Response::json("200 OK", "{\"state\":\"cancel_requested\"}\n".into())
            }
            state => Response::error("409 Conflict", &format!("job already {}", state.as_str())),
        }
    }

    fn shutdown(&mut self) -> Response {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + self.cfg.drain_grace);
        let mut asked = 0usize;
        for job in &mut self.jobs {
            if job.state == JobState::Running && job.stop_requested.is_none() {
                let dir = self.cfg.data_dir.join("jobs").join(&job.id);
                if write_atomic(&dir.join("stop"), b"preempt\n").is_ok() {
                    job.stop_requested = Some(StopKind::Preempt);
                    asked += 1;
                }
            }
        }
        Response::json(
            "200 OK",
            format!("{{\"status\":\"draining\",\"stopping\":{asked}}}\n"),
        )
    }

    fn jobs_json(&self) -> String {
        let rows: Vec<String> = self
            .jobs
            .iter()
            .map(|j| {
                format!(
                    "{{\"id\":{},\"name\":{},\"tenant\":{},\"state\":\"{}\",\"attempt\":{}}}",
                    json::string(&j.id),
                    json::string(&j.spec.name),
                    json::string(&j.tenant),
                    j.state.as_str(),
                    j.attempt
                )
            })
            .collect();
        format!(
            "{{\"jobs\":[{}],\"queued\":{},\"running\":{},\"draining\":{}}}\n",
            rows.join(","),
            self.queued_count(),
            self.running_count(),
            self.draining
        )
    }

    fn job_detail(&self, id: &str, query: Option<&str>) -> Response {
        let Some(job) = self.jobs.iter().find(|j| j.id == id) else {
            return Response::error("404 Not Found", "no such job");
        };
        let job_dir = self.job_dir(id);
        let tail = query
            .and_then(|q| {
                q.split('&')
                    .find_map(|pair| pair.strip_prefix("tail=")?.parse::<usize>().ok())
            })
            .unwrap_or(JOB_EVENT_TAIL)
            .clamp(1, 64);
        let events: Vec<String> = fs::read_to_string(job_dir.join("ledger.jsonl"))
            .map(|t| {
                let lines: Vec<&str> = t
                    .lines()
                    .filter(|l| l.starts_with('{') && l.ends_with('}'))
                    .collect();
                lines
                    .iter()
                    .skip(lines.len().saturating_sub(tail))
                    .map(|l| l.to_string())
                    .collect()
            })
            .unwrap_or_default();
        let result = fs::read_to_string(job_dir.join("result.json"))
            .ok()
            .filter(|t| json::parse(t).is_ok())
            .unwrap_or_else(|| "null".to_string());
        Response::json(
            "200 OK",
            format!(
                "{{\"id\":{},\"name\":{},\"tenant\":{},\"state\":\"{}\",\"attempt\":{},\
                 \"failure\":{},\"checkpoint\":{},\"events\":[{}],\"result\":{}}}\n",
                json::string(&job.id),
                json::string(&job.spec.name),
                json::string(&job.tenant),
                job.state.as_str(),
                job.attempt,
                job.failure
                    .as_deref()
                    .map_or("null".to_string(), json::string),
                job_dir.join("run.ckpt").exists(),
                events.join(","),
                result.trim(),
            ),
        )
    }

    fn healthz_json(&self) -> String {
        format!(
            "{{\"status\":\"ok\",\"workload\":\"amlserve\",\"seed\":0,\"phase\":\"serving\",\
             \"uptime_s\":{:.3},\"queued\":{},\"running\":{},\"draining\":{}}}\n",
            self.started.elapsed().as_secs_f64(),
            self.queued_count(),
            self.running_count(),
            self.draining
        )
    }
}

/// Bind, recover, and serve until a graceful shutdown completes. The
/// bound address is written to `<data_dir>/serve.addr` (tmp + rename),
/// so scripts using port 0 can discover it.
pub fn run_server(cfg: ServerConfig) -> std::io::Result<()> {
    fs::create_dir_all(cfg.data_dir.join("jobs"))?;
    aml_telemetry::set_level(aml_telemetry::TelemetryLevel::Summary);
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    write_atomic(
        &cfg.data_dir.join("serve.addr"),
        format!("{bound}\n").as_bytes(),
    )?;
    let exe = std::env::current_exe()?;
    let mut server = Server::recover(cfg, exe)?;
    eprintln!(
        "[amlserve] listening on http://{bound} ({} job(s) recovered, {} requeued)",
        server.jobs.len(),
        server.queued_count(),
    );
    loop {
        match listener.accept() {
            Ok((stream, _)) => server.handle_connection(stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
        server.tick();
        if server.draining && server.drained() {
            break;
        }
    }
    eprintln!("[amlserve] drained, exiting");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults_and_round_trip() {
        let spec = JobSpec::from_json(&json::parse("{}").unwrap()).unwrap();
        assert_eq!(spec.name, "job");
        assert_eq!(spec.seed, 21);
        assert_eq!(spec.rounds, vec![Strategy::NoFeedback, Strategy::Uniform]);
        assert_eq!(
            spec.dataset,
            DatasetSpec::TwoMoons {
                n: 240,
                noise: 0.25,
                seed: 9
            }
        );
        assert_eq!(spec.cost(), 2);
        let reparsed = JobSpec::from_json(&json::parse(&spec.to_json()).unwrap()).unwrap();
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn spec_seeds_round_trip_exactly_above_two_to_the_53() {
        for seed in [(1u64 << 53) + 1, u64::MAX] {
            let text =
                format!("{{\"seed\":{seed},\"dataset\":{{\"kind\":\"blobs\",\"seed\":{seed}}}}}");
            let spec = JobSpec::from_json(&json::parse(&text).unwrap()).unwrap();
            assert_eq!(spec.seed, seed, "a submitted seed must run as given");
            assert!(spec.to_json().contains(&format!("\"seed\":{seed},")));
            let reparsed = JobSpec::from_json(&json::parse(&spec.to_json()).unwrap()).unwrap();
            assert_eq!(reparsed, spec);
        }
    }

    #[test]
    fn spec_parses_explicit_fields_and_rejects_bad_ones() {
        let spec = JobSpec::from_json(
            &json::parse(
                "{\"name\":\"x\",\"seed\":7,\"dataset\":{\"kind\":\"xor\",\"n\":100,\"flip\":0.1,\
                 \"seed\":3},\"rounds\":[\"Uniform\",\"QBC\"],\"round_sleep_ms\":250,\
                 \"timeout_ms\":9000}",
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(spec.name, "x");
        assert_eq!(spec.rounds, vec![Strategy::Uniform, Strategy::Qbc]);
        assert_eq!(spec.round_sleep_ms, 250);
        assert_eq!(spec.timeout_ms, Some(9000));
        assert!(matches!(spec.dataset, DatasetSpec::Xor { n: 100, .. }));

        let err = JobSpec::from_json(&json::parse("{\"rounds\":[\"Nope\"]}").unwrap()).unwrap_err();
        assert!(err.contains("unknown strategy 'Nope'"), "{err}");
        let err = JobSpec::from_json(&json::parse("{\"dataset\":{\"kind\":\"parquet\"}}").unwrap())
            .unwrap_err();
        assert!(err.contains("unknown dataset.kind"), "{err}");
        let err = JobSpec::from_json(&json::parse("{\"rounds\":[]}").unwrap()).unwrap_err();
        assert!(err.contains("must not be empty"), "{err}");
    }

    #[test]
    fn csv_submissions_default_to_csv_dataset() {
        let spec =
            JobSpec::from_json(&json::parse("{\"csv\":\"f0,f1,label\\n0.1,0.2,0\\n\"}").unwrap())
                .unwrap();
        assert_eq!(spec.dataset, DatasetSpec::Csv);
    }

    #[test]
    fn strategy_names_cover_all_twelve() {
        for s in Strategy::ALL {
            assert_eq!(strategy_by_name(s.name()), Some(s));
        }
        assert_eq!(strategy_by_name("nope"), None);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(500);
        assert_eq!(backoff_delay(1, base), Duration::from_millis(500));
        assert_eq!(backoff_delay(2, base), Duration::from_millis(1000));
        assert_eq!(backoff_delay(3, base), Duration::from_millis(2000));
        assert_eq!(backoff_delay(30, base), Duration::from_secs(30));
    }

    #[test]
    fn journal_replay_keeps_last_event_and_order() {
        let text = "\
{\"event\":\"submitted\",\"job\":\"j000001\",\"tenant\":\"alice\",\"cost\":2}\n\
{\"event\":\"submitted\",\"job\":\"j000002\",\"tenant\":\"bob\",\"cost\":4}\n\
{\"event\":\"started\",\"job\":\"j000001\",\"attempt\":0}\n\
{\"event\":\"retried\",\"job\":\"j000001\",\"attempt\":1,\"delay_ms\":500}\n\
{\"event\":\"done\",\"job\":\"j000002\"}\n\
{\"event\":\"torn-li";
        let replayed = replay_journal(text);
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].0, "j000001");
        assert_eq!(replayed[0].1.last_event, "retried");
        assert_eq!(replayed[0].1.attempt, 1);
        assert_eq!(replayed[0].1.tenant, "alice");
        assert_eq!(replayed[1].0, "j000002");
        assert_eq!(replayed[1].1.last_event, "done");
    }

    #[test]
    fn write_atomic_replaces_whole_files() {
        let dir = std::env::temp_dir().join(format!("amlserve_atomic_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.json");
        write_atomic(&path, b"{\"v\":1}").unwrap();
        write_atomic(&path, b"{\"v\":2}").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        assert!(!path.with_extension("tmp").exists());
        fs::remove_dir_all(&dir).ok();
    }
}
