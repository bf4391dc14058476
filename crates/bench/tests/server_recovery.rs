//! Tentpole acceptance tests for `amlserve`.
//!
//! * `kill_and_restart_recovers_all_jobs` — the headline robustness
//!   claim: submit three jobs (one with an injected `worker_crash@0`),
//!   SIGKILL the *server* mid-run with jobs queued/running/checkpointed,
//!   restart over the same data directory, and watch recovery drive
//!   every job to `done` — with the interrupted job's final sorted
//!   ledger byte-identical to an uninterrupted reference run.
//! * `overload_gets_429_with_retry_after` — admission control: beyond
//!   the queue bound submissions get 429 + `Retry-After`, and the
//!   `serve_jobs_queued` gauge never exceeds the bound (backpressure,
//!   not buffering).
//! * `submit_burst_fault_rejects_deterministically` — the injected
//!   `submit_burst@N` admission fault.
//! * `tenant_budget_rejects_when_spent` — per-tenant token budgets.
//! * `cancel_paths` — queued jobs cancel immediately; running jobs at
//!   the next round boundary; terminal jobs 409.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_amlserve")
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aml_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Start a server with an ephemeral port; resolve the bound address
/// from `<data>/serve.addr`. Every test kills or drains the child and
/// then waits on it; the zombie window clippy flags here is the test
/// body itself.
#[allow(clippy::zombie_processes)]
fn start_server(data: &Path, extra: &[&str]) -> (Child, String) {
    let _ = fs::remove_file(data.join("serve.addr"));
    let child = Command::new(exe())
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--data")
        .arg(data)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = fs::read_to_string(data.join("serve.addr")) {
            let addr = addr.trim().to_string();
            if !addr.is_empty() {
                return (child, addr);
            }
        }
        assert!(Instant::now() < deadline, "server never wrote serve.addr");
        std::thread::sleep(Duration::from_millis(20));
    }
}

struct HttpReply {
    status: u32,
    headers: String,
    body: String,
}

impl HttpReply {
    fn header(&self, name: &str) -> Option<String> {
        let lower = name.to_ascii_lowercase();
        self.headers.lines().find_map(|l| {
            let (k, v) = l.split_once(':')?;
            (k.trim().to_ascii_lowercase() == lower).then(|| v.trim().to_string())
        })
    }
}

/// Minimal one-shot HTTP client (the server always answers
/// `Connection: close`, so read-to-EOF is the framing).
fn http(addr: &str, method: &str, path: &str, body: &str) -> HttpReply {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    let status: u32 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {text}"));
    let (head, payload) = text.split_once("\r\n\r\n").unwrap_or((text.as_str(), ""));
    HttpReply {
        status,
        headers: head.to_string(),
        body: payload.to_string(),
    }
}

/// Poll `GET /jobs` until `pred` on the raw JSON holds.
fn wait_for_jobs(addr: &str, secs: u64, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        let reply = http(addr, "GET", "/jobs", "");
        if pred(&reply.body) {
            return reply.body;
        }
        assert!(
            Instant::now() < deadline,
            "timed out; last /jobs: {}",
            reply.body
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn count(haystack: &str, needle: &str) -> usize {
    haystack.matches(needle).count()
}

fn sorted_ledger(path: &Path) -> Vec<String> {
    let mut lines: Vec<String> = fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    lines.sort();
    lines
}

const SLOW_SPEC: &str = "{\"name\":\"slow\",\"seed\":41,\"rounds\":[\"Without feedback\",\
    \"Uniform\",\"Within-ALE\",\"Confidence based\"],\"n_candidates\":5,\"round_sleep_ms\":700}";
const FAST_SPEC: &str =
    "{\"name\":\"fast\",\"seed\":42,\"rounds\":[\"Without feedback\",\"Uniform\"],\"n_candidates\":5}";

#[test]
fn kill_and_restart_recovers_all_jobs() {
    let data = fresh_dir("serve_recovery");

    // Life 1: worker_crash@0 makes the FIRST worker launch abort right
    // after checkpointing its first fresh round (exercising crash →
    // retry → resume), --workers 1 keeps the other jobs queued so the
    // SIGKILL below catches jobs in queued/running/checkpointed states.
    let (mut server, addr) = start_server(
        &data,
        &[
            "--workers",
            "1",
            "--fault-plan",
            "worker_crash@0",
            "--retry-base-ms",
            "100",
        ],
    );
    let crash = http(addr.as_str(), "POST", "/submit", SLOW_SPEC);
    assert_eq!(crash.status, 202, "{}", crash.body);
    assert!(crash.body.contains("\"job\":\"j000001\""), "{}", crash.body);
    for _ in 0..2 {
        let r = http(addr.as_str(), "POST", "/submit", FAST_SPEC);
        assert_eq!(r.status, 202, "{}", r.body);
    }

    // Wait until the crash-target job has a checkpoint on disk (i.e. it
    // launched, recorded a round, aborted, and left durable state), and
    // until the server has journaled its retry: the checkpoint lands
    // before the abort, so killing on the checkpoint alone races the
    // server's reaping of the crashed worker.
    let j1 = data.join("jobs/j000001");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !j1.join("run.ckpt").exists() {
        assert!(Instant::now() < deadline, "job never checkpointed");
        std::thread::sleep(Duration::from_millis(50));
    }
    let journal_path = data.join("queue.jsonl");
    while !fs::read_to_string(&journal_path).is_ok_and(|j| j.contains("\"event\":\"retried\"")) {
        assert!(Instant::now() < deadline, "crashed job never retried");
        std::thread::sleep(Duration::from_millis(50));
    }

    // SIGKILL the server. No drain, no cleanup — the crash case.
    server.kill().unwrap();
    server.wait().unwrap();

    // Life 2: same data dir, no fault plan (launch counters restart at
    // zero, so keeping worker_crash@0 would crash the recovery run too
    // — a *new* server life is a new fault schedule). Recovery replays
    // the journal, fences any orphaned worker, requeues unfinished
    // jobs, and the checkpointed one resumes mid-experiment.
    let (mut server, addr) = start_server(&data, &["--workers", "2", "--retry-base-ms", "100"]);
    let jobs = wait_for_jobs(addr.as_str(), 120, |body| {
        count(body, "\"state\":\"done\"") == 3
    });
    assert_eq!(count(&jobs, "\"state\":\"failed\""), 0, "{jobs}");

    // Detail route: result present, checkpoint flagged, ledger tail.
    let detail = http(addr.as_str(), "GET", "/jobs/j000001?tail=5", "");
    assert_eq!(detail.status, 200);
    assert!(
        detail.body.contains("\"state\":\"done\""),
        "{}",
        detail.body
    );
    assert!(
        detail.body.contains("\"checkpoint\":true"),
        "{}",
        detail.body
    );
    assert!(detail.body.contains("\"final_acc\":"), "{}", detail.body);

    // The retried job's result covers the whole job — rounds the crashed
    // attempt ran before the retry resumed it included — and agrees with
    // the run-summary fold over the job's ledger.
    let result = aml_telemetry::json::parse(&fs::read_to_string(j1.join("result.json")).unwrap())
        .expect("result.json parses");
    let (_, events) =
        aml_telemetry::ledger::read(&fs::read_to_string(j1.join("ledger.jsonl")).unwrap())
            .expect("ledger parses");
    let summary = <aml_telemetry::LedgerSummary as aml_telemetry::Fold>::from_events(&events);
    assert_eq!(
        result.u64_at("trials_finished").unwrap(),
        summary.trials_finished
    );
    assert_eq!(result.u64_at("rounds").unwrap(), summary.rounds);
    assert_eq!(summary.rounds, 4, "SLOW_SPEC runs four rounds");

    // Completion appended one history record per job.
    let history = fs::read_to_string(data.join("history.jsonl")).unwrap();
    assert_eq!(count(&history, "\"source\":\"amlserve\""), 3, "{history}");

    // Metrics surface the lifecycle counters.
    let metrics = http(addr.as_str(), "GET", "/metrics", "").body;
    assert!(metrics.contains("serve_jobs_done"), "{metrics}");
    assert!(metrics.contains("serve_jobs_queued"), "{metrics}");

    // Graceful shutdown drains and exits.
    let reply = http(addr.as_str(), "POST", "/shutdown", "");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let status = server.wait().unwrap();
    assert!(status.success(), "server exit after drain: {status:?}");

    // The journal survived both lives and tells the whole story.
    let journal = fs::read_to_string(data.join("queue.jsonl")).unwrap();
    assert_eq!(count(&journal, "\"event\":\"submitted\""), 3, "{journal}");
    assert!(count(&journal, "\"event\":\"retried\"") >= 1, "{journal}");
    assert_eq!(count(&journal, "\"event\":\"done\""), 3, "{journal}");

    // Byte-identity: re-run the crashed job's spec uninterrupted (same
    // job.json, fresh sibling dir) and compare sorted ledgers.
    let ref_dir = fresh_dir("serve_recovery_ref");
    let job_dir = ref_dir.join("j000001");
    fs::create_dir_all(&job_dir).unwrap();
    // Drop round_sleep_ms from the reference spec: the pause only slows
    // the test down and is not part of the ledger contract.
    let job_json = fs::read_to_string(j1.join("job.json"))
        .unwrap()
        .replace("\"round_sleep_ms\":700", "\"round_sleep_ms\":0");
    fs::write(job_dir.join("job.json"), job_json).unwrap();
    let status = Command::new(exe())
        .arg("--worker")
        .arg(&job_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(0));
    assert_eq!(
        sorted_ledger(&j1.join("ledger.jsonl")),
        sorted_ledger(&job_dir.join("ledger.jsonl")),
        "crashed+resumed ledger differs from uninterrupted reference"
    );

    fs::remove_dir_all(&data).ok();
    fs::remove_dir_all(&ref_dir).ok();
}

#[test]
fn overload_gets_429_with_retry_after() {
    let data = fresh_dir("serve_overload");
    let (mut server, addr) = start_server(&data, &["--workers", "1", "--queue-cap", "2"]);
    let addr = addr.as_str();

    // One long job occupies the single worker...
    let slow = "{\"name\":\"occupy\",\"seed\":5,\"rounds\":[\"Without feedback\",\"Uniform\"],\
                \"n_candidates\":5,\"round_sleep_ms\":8000}";
    assert_eq!(http(addr, "POST", "/submit", slow).status, 202);
    wait_for_jobs(addr, 30, |b| count(b, "\"state\":\"running\"") == 1);

    // ...two more fill the queue; beyond the cap it's 429 + Retry-After.
    assert_eq!(http(addr, "POST", "/submit", FAST_SPEC).status, 202);
    assert_eq!(http(addr, "POST", "/submit", FAST_SPEC).status, 202);
    for _ in 0..5 {
        let reply = http(addr, "POST", "/submit", FAST_SPEC);
        assert_eq!(reply.status, 429, "{}", reply.body);
        let retry_after: u64 = reply
            .header("Retry-After")
            .expect("429 without Retry-After")
            .parse()
            .unwrap();
        assert!(retry_after >= 1);
    }

    // The queue gauge is pinned at the bound — rejected submissions
    // never buffered anything.
    let metrics = http(addr, "GET", "/metrics", "").body;
    let queued: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("serve_jobs_queued "))
        .expect("serve_jobs_queued gauge missing")
        .trim()
        .parse()
        .unwrap();
    assert!(queued <= 2, "queue gauge exceeds cap: {metrics}");
    assert!(metrics.contains("serve_jobs_rejected"), "{metrics}");

    server.kill().unwrap();
    server.wait().unwrap();
    fs::remove_dir_all(&data).ok();
}

#[test]
fn submit_burst_fault_rejects_deterministically() {
    let data = fresh_dir("serve_burst");
    let (mut server, addr) = start_server(&data, &["--fault-plan", "submit_burst@0"]);
    // Submission 0 hits the injected burst rejection; submission 1 lands.
    let first = http(addr.as_str(), "POST", "/submit", FAST_SPEC);
    assert_eq!(first.status, 429, "{}", first.body);
    assert!(first.body.contains("submit_burst"), "{}", first.body);
    assert!(first.header("Retry-After").is_some());
    let second = http(addr.as_str(), "POST", "/submit", FAST_SPEC);
    assert_eq!(second.status, 202, "{}", second.body);
    server.kill().unwrap();
    server.wait().unwrap();
    fs::remove_dir_all(&data).ok();
}

#[test]
fn tenant_budget_rejects_when_spent() {
    let data = fresh_dir("serve_budget");
    // Budget of 3 tokens; FAST_SPEC costs 2 (one per round).
    let (mut server, addr) = start_server(&data, &["--tenant-budget", "3", "--workers", "1"]);
    let addr = addr.as_str();
    let ok = http(addr, "POST", "/submit", FAST_SPEC);
    assert_eq!(ok.status, 202, "{}", ok.body);
    // Same tenant (default): 2 + 2 > 3 → rejected.
    let broke = http(addr, "POST", "/submit", FAST_SPEC);
    assert_eq!(broke.status, 429, "{}", broke.body);
    assert!(broke.body.contains("budget"), "{}", broke.body);
    // A different tenant has its own budget.
    let mut stream = TcpStream::connect(addr).unwrap();
    let req = format!(
        "POST /submit HTTP/1.1\r\nHost: t\r\nX-Tenant: other\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{FAST_SPEC}",
        FAST_SPEC.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 202"), "{text}");
    server.kill().unwrap();
    server.wait().unwrap();
    fs::remove_dir_all(&data).ok();
}

#[test]
fn cancel_paths() {
    let data = fresh_dir("serve_cancel");
    let (mut server, addr) = start_server(&data, &["--workers", "1"]);
    let addr = addr.as_str();

    // j000001 occupies the worker; j000002 stays queued.
    let slow = "{\"name\":\"victim\",\"seed\":3,\"rounds\":[\"Without feedback\",\"Uniform\",\
                \"Within-ALE\"],\"n_candidates\":5,\"round_sleep_ms\":1500}";
    assert_eq!(http(addr, "POST", "/submit", slow).status, 202);
    assert_eq!(http(addr, "POST", "/submit", FAST_SPEC).status, 202);
    wait_for_jobs(addr, 30, |b| count(b, "\"state\":\"running\"") == 1);

    // Queued job cancels immediately.
    let reply = http(addr, "DELETE", "/jobs/j000002", "");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(reply.body.contains("\"canceled\""), "{}", reply.body);

    // Running job: cooperative cancel at the next round boundary.
    let reply = http(addr, "DELETE", "/jobs/j000001", "");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(reply.body.contains("cancel_requested"), "{}", reply.body);
    wait_for_jobs(addr, 60, |b| count(b, "\"state\":\"canceled\"") == 2);

    // Terminal jobs answer 409; unknown jobs 404.
    assert_eq!(http(addr, "DELETE", "/jobs/j000001", "").status, 409);
    assert_eq!(http(addr, "DELETE", "/jobs/zzz", "").status, 404);

    // The canceled running job kept its durable state for inspection.
    assert!(data.join("jobs/j000001/run.ckpt").exists());

    let reply = http(addr, "POST", "/shutdown", "");
    assert_eq!(reply.status, 200);
    assert!(server.wait().unwrap().success());
    fs::remove_dir_all(&data).ok();
}
