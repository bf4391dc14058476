//! Live observability plane: a std-only background HTTP server.
//!
//! Enabled by `--serve ADDR` on every workload bin. While the run
//! executes, the [`ROUTES`] answer `GET` (each request bumps a
//! per-route `serve.requests[<route>]` counter, rendered on `/metrics`
//! as `serve_requests{key="<route>"}`):
//!
//! * `/metrics` — the current registry snapshot in Prometheus text
//!   exposition format (counters, gauges, span summaries, histograms
//!   with cumulative `_bucket` series from the log2 buckets);
//! * `/healthz` — liveness JSON: status, workload, seed, current run
//!   phase, uptime;
//! * `/runs` — run JSON: the run header, live progress (phase, feedback
//!   rounds completed, search trials done/planned), and the last
//!   `tail` experiment-ledger events (`?tail=N`, clamped to
//!   `1..=`[`EVENT_RING_CAP`], default [`EVENT_RING_CAP`]);
//! * `/crit` — the live critical-path report (see [`crate::crit`]):
//!   the causal-trace-tree analysis as JSON when `--crit-out` armed the
//!   collector, `{"active":false}` otherwise.
//!
//! Each shows state that no file holds until the run ends. What the
//! ledger already holds is read from `ledger.jsonl` itself: `amlinspect
//! search|quality` recomputes the search and quality reports from it.
//!
//! The server is a single thread on a non-blocking [`TcpListener`] —
//! `std::net` only, honoring the workspace's zero-external-dependency
//! rule. Requests are served from a point-in-time [`Snapshot`], so a
//! scrape never blocks the instrumented hot path; without `--serve` no
//! thread exists and the status setters are one relaxed atomic load
//! (off-is-free).
//!
//! Phase/progress reporting: bins call [`set_phase`] at phase
//! boundaries, the AutoML search calls [`add_planned_trials`] /
//! [`note_trial_done`], and the experiment loop calls
//! [`note_round_done`]. All are no-ops unless the server is running.

use crate::ledger::LedgerEvent;
use crate::registry::{bucket_upper_edge, Snapshot};
use crate::sink::{RunHeader, Sink};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The routes the live plane answers, in the order the 404 body and the
/// startup note list them. Only these are counted in `serve.requests`.
pub const ROUTES: [&str; 4] = ["/metrics", "/healthz", "/runs", "/crit"];

/// How many trailing ledger events `/runs` retains.
pub const EVENT_RING_CAP: usize = 64;

// ---------------------------------------------------------------------
// Live run status (phase + progress), updated from the pipeline.
// ---------------------------------------------------------------------

/// Whether the server is running — the gate for all status setters.
static ACTIVE: AtomicBool = AtomicBool::new(false);

static ROUNDS_DONE: AtomicU64 = AtomicU64::new(0);
static TRIALS_DONE: AtomicU64 = AtomicU64::new(0);
static TRIALS_PLANNED: AtomicU64 = AtomicU64::new(0);

fn phase_slot() -> &'static Mutex<String> {
    static PHASE: OnceLock<Mutex<String>> = OnceLock::new();
    PHASE.get_or_init(|| Mutex::new(String::from("starting")))
}

/// Whether the live plane is serving (one relaxed atomic load).
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Record the run's current phase (shown by `/healthz` and `/runs`).
/// Call with static phase names at phase boundaries; no-op when the
/// server is not running.
pub fn set_phase(phase: &str) {
    if active() {
        *phase_slot().lock().unwrap_or_else(PoisonError::into_inner) = phase.to_string();
    }
}

/// Announce `n` more search trials about to be trained (no-op unless
/// serving).
pub fn add_planned_trials(n: u64) {
    if active() {
        TRIALS_PLANNED.fetch_add(n, Ordering::Relaxed);
    }
}

/// Record one finished (or failed) search trial (no-op unless serving).
pub fn note_trial_done() {
    if active() {
        TRIALS_DONE.fetch_add(1, Ordering::Relaxed);
    }
}

/// Record one completed feedback round (no-op unless serving).
pub fn note_round_done() {
    if active() {
        ROUNDS_DONE.fetch_add(1, Ordering::Relaxed);
    }
}

fn reset_status() {
    ROUNDS_DONE.store(0, Ordering::Relaxed);
    TRIALS_DONE.store(0, Ordering::Relaxed);
    TRIALS_PLANNED.store(0, Ordering::Relaxed);
    *phase_slot().lock().unwrap_or_else(PoisonError::into_inner) = String::from("starting");
    event_ring()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

// ---------------------------------------------------------------------
// Ledger event ring buffer (feeds /runs).
// ---------------------------------------------------------------------

fn event_ring() -> &'static Mutex<VecDeque<String>> {
    static RING: OnceLock<Mutex<VecDeque<String>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Sink that keeps the last [`EVENT_RING_CAP`] ledger events in memory
/// for `/runs`. Installed by [`start`]; ignores span closes.
struct RingSink;

impl Sink for RingSink {
    fn wants_ledger(&self) -> bool {
        true
    }
    fn on_ledger_event(&self, event: &LedgerEvent) {
        let line = event.to_json_line();
        let mut ring = event_ring().lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() == EVENT_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(line);
    }
    fn finish(&self, _snapshot: &Snapshot) -> std::io::Result<()> {
        Ok(())
    }
    fn target(&self) -> String {
        "live /runs event buffer".into()
    }
}

// ---------------------------------------------------------------------
// HTTP plumbing: GET request heads in, one complete response out.
// ---------------------------------------------------------------------

/// The request line of one HTTP/1.1 request. The live plane is
/// read-only, so headers are skipped and bodies are never read.
#[derive(Debug)]
struct HttpRequest {
    /// Request method (`GET`, `POST`, …), as sent.
    method: String,
    /// Path component of the request target (before any `?`).
    path: String,
    /// Query string (after `?`), when present.
    query: Option<String>,
}

/// Cap on request head bytes (request line + headers).
const MAX_HEAD: usize = 16 * 1024;

/// Read one HTTP/1.1 request head from `stream`. Oversized heads,
/// malformed request lines, and connections that close mid-head all
/// yield `InvalidData` errors — the connection is then dropped. The
/// stream's read timeout bounds how long a silent client can hold the
/// serving thread.
fn read_request(stream: &mut TcpStream) -> std::io::Result<HttpRequest> {
    use std::io::{Error, ErrorKind};
    let bad = |msg: &str| Error::new(ErrorKind::InvalidData, msg.to_string());

    let mut buf: Vec<u8> = Vec::with_capacity(2048);
    let mut chunk = [0u8; 2048];
    let head_end = loop {
        if let Some(pos) = find_subslice(&buf, b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(bad("request head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-request"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let request_line = head.split("\r\n").next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let target = parts.next().ok_or_else(|| bad("missing request target"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q.to_string())),
        None => (target, None),
    };
    Ok(HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        query,
    })
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// Write one complete HTTP/1.1 response with `Connection: close`.
fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

// ---------------------------------------------------------------------
// The HTTP server.
// ---------------------------------------------------------------------

struct ServerState {
    header: RunHeader,
    started: Instant,
}

struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

fn server_slot() -> &'static Mutex<Option<Server>> {
    static SLOT: OnceLock<Mutex<Option<Server>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Bind `addr` (e.g. `127.0.0.1:9898`, or port `0` for an ephemeral
/// port), start the serving thread, install the `/runs` ledger ring
/// sink, and return the bound address. Replaces any previous server.
pub fn start(addr: &str, header: &RunHeader) -> std::io::Result<SocketAddr> {
    stop();
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    let state = Arc::new(ServerState {
        header: header.clone(),
        started: Instant::now(),
    });
    let stop_flag = Arc::new(AtomicBool::new(false));
    let stop_seen = Arc::clone(&stop_flag);
    let thread = std::thread::Builder::new()
        .name("aml-telemetry-serve".into())
        .spawn(move || serve_loop(listener, stop_seen, state))?;
    reset_status();
    crate::sink::install(Box::new(RingSink));
    *server_slot().lock().unwrap_or_else(PoisonError::into_inner) = Some(Server {
        addr: bound,
        stop: stop_flag,
        thread: Some(thread),
    });
    ACTIVE.store(true, Ordering::Release);
    Ok(bound)
}

/// The bound address of the running server, if any.
pub fn bound_addr() -> Option<SocketAddr> {
    server_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
        .map(|s| s.addr)
}

/// Stop the server (if running) and join its thread. Idempotent;
/// in-flight responses complete first.
pub fn stop() {
    let taken = server_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(mut server) = taken {
        ACTIVE.store(false, Ordering::Release);
        server.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = server.thread.take() {
            let _ = thread.join();
        }
    }
}

fn serve_loop(listener: TcpListener, stop: Arc<AtomicBool>, state: Arc<ServerState>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = handle_connection(stream, &state);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, state: &ServerState) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let req = read_request(&mut stream)?;
    let (status, content_type, body) = if req.method != "GET" {
        ("405 Method Not Allowed", "text/plain", "GET only\n".into())
    } else {
        count_request(&req.path);
        route(&req.path, req.query.as_deref(), state)
    };
    write_response(&mut stream, status, content_type, body.as_bytes())
}

/// Bump the per-route request counter for one of the [`ROUTES`]. Unknown
/// paths are not counted, so probes can't grow the registry unboundedly.
fn count_request(path: &str) {
    if ROUTES.contains(&path) {
        crate::counter_add_labeled("serve.requests", path, 1);
    }
}

/// The value of `key=...` in a query string, if present.
fn query_param<'a>(query: Option<&'a str>, key: &str) -> Option<&'a str> {
    query?
        .split('&')
        .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='))
}

/// `tail=N` from a query string, clamped to `1..=`[`EVENT_RING_CAP`];
/// absent or unparsable values fall back to the full ring.
fn tail_param(query: Option<&str>) -> usize {
    query_param(query, "tail")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(EVENT_RING_CAP)
        .clamp(1, EVENT_RING_CAP)
}

fn route(
    path: &str,
    query: Option<&str>,
    state: &ServerState,
) -> (&'static str, &'static str, String) {
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            render_prometheus(&crate::global().snapshot()),
        ),
        "/healthz" => ("200 OK", "application/json", healthz_json(state)),
        "/runs" => (
            "200 OK",
            "application/json",
            runs_json(state, tail_param(query)),
        ),
        "/crit" => ("200 OK", "application/json", crate::crit::live_json()),
        _ => (
            "404 Not Found",
            "text/plain",
            format!("not found (try {})\n", ROUTES.join(", ")),
        ),
    }
}

// ---------------------------------------------------------------------
// JSON endpoints.
// ---------------------------------------------------------------------

fn healthz_json(state: &ServerState) -> String {
    let phase = phase_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    format!(
        "{{\"status\":\"ok\",\"workload\":{},\"seed\":{},\"phase\":{},\"uptime_s\":{:.3}}}\n",
        crate::json::string(&state.header.workload),
        state.header.seed,
        crate::json::string(&phase),
        state.started.elapsed().as_secs_f64(),
    )
}

fn runs_json(state: &ServerState, tail: usize) -> String {
    let phase = phase_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let ring = event_ring().lock().unwrap_or_else(PoisonError::into_inner);
    let events: Vec<String> = ring
        .iter()
        .skip(ring.len().saturating_sub(tail))
        .cloned()
        .collect();
    drop(ring);
    let snapshot = crate::global().snapshot();
    format!(
        concat!(
            "{{\"run\":{{\"run_id\":{},\"workload\":{},\"seed\":{},\"git\":{}}},",
            "\"progress\":{{\"phase\":{},\"rounds_done\":{},\"trials_done\":{},\"trials_planned\":{}}},",
            "\"metrics\":{{\"spans\":{},\"counters\":{},\"gauges\":{},\"histograms\":{}}},",
            "\"events\":[{}]}}\n"
        ),
        crate::json::string(&state.header.run_id),
        crate::json::string(&state.header.workload),
        state.header.seed,
        crate::json::string(&state.header.git),
        crate::json::string(&phase),
        ROUNDS_DONE.load(Ordering::Relaxed),
        TRIALS_DONE.load(Ordering::Relaxed),
        TRIALS_PLANNED.load(Ordering::Relaxed),
        snapshot.spans.len(),
        snapshot.counters.len(),
        snapshot.gauges.len(),
        snapshot.histograms.len(),
        events.join(","),
    )
}

// ---------------------------------------------------------------------
// Prometheus text exposition.
// ---------------------------------------------------------------------

/// Render `snapshot` in Prometheus text exposition format (v0.0.4).
///
/// * counters / gauges: sanitized name, `base[label]` becomes
///   `base{key="label"}`;
/// * spans: one `aml_span_duration_seconds` summary family labeled by
///   span name, with `quantile="0"`/`"1"` series carrying min/max;
/// * histograms: native histogram families with cumulative
///   `_bucket{le="..."}` series at the log2 bucket upper edges (top
///   bucket folds into `+Inf`), plus `_sum` and `_count`.
///
/// Pure function of the snapshot — pinned byte-for-byte by a golden
/// test, so scrape-side dashboards can rely on the shape.
pub fn render_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();

    let mut last_family = String::new();
    for (name, value) in &snapshot.counters {
        let (metric, label) = prom_name(name);
        emit_type(&mut out, &mut last_family, &metric, "counter");
        let labels = label
            .as_deref()
            .map(|l| format!("{{key=\"{}\"}}", prom_label_escape(l)))
            .unwrap_or_default();
        out.push_str(&format!("{metric}{labels} {value}\n"));
    }

    last_family.clear();
    for (name, value) in &snapshot.gauges {
        let (metric, label) = prom_name(name);
        emit_type(&mut out, &mut last_family, &metric, "gauge");
        let labels = label
            .as_deref()
            .map(|l| format!("{{key=\"{}\"}}", prom_label_escape(l)))
            .unwrap_or_default();
        out.push_str(&format!("{metric}{labels} {value}\n"));
    }

    if !snapshot.spans.is_empty() {
        out.push_str("# TYPE aml_span_duration_seconds summary\n");
        for s in &snapshot.spans {
            let span = prom_label_escape(&s.name);
            out.push_str(&format!(
                "aml_span_duration_seconds{{span=\"{span}\",quantile=\"0\"}} {}\n",
                fmt_f64(s.min_ns as f64 / 1e9)
            ));
            out.push_str(&format!(
                "aml_span_duration_seconds{{span=\"{span}\",quantile=\"1\"}} {}\n",
                fmt_f64(s.max_ns as f64 / 1e9)
            ));
            out.push_str(&format!(
                "aml_span_duration_seconds_sum{{span=\"{span}\"}} {}\n",
                fmt_f64(s.total_secs())
            ));
            out.push_str(&format!(
                "aml_span_duration_seconds_count{{span=\"{span}\"}} {}\n",
                s.calls
            ));
        }
    }

    last_family.clear();
    for h in &snapshot.histograms {
        let (metric, label) = prom_name(&h.name);
        emit_type(&mut out, &mut last_family, &metric, "histogram");
        let key_prefix = label
            .as_deref()
            .map(|l| format!("key=\"{}\",", prom_label_escape(l)))
            .unwrap_or_default();
        let key_only = label
            .as_deref()
            .map(|l| format!("{{key=\"{}\"}}", prom_label_escape(l)))
            .unwrap_or_default();
        let mut cumulative = 0u64;
        for (i, &bucket_count) in h.buckets.iter().enumerate() {
            if bucket_count == 0 {
                continue;
            }
            cumulative += bucket_count;
            let edge = bucket_upper_edge(i);
            if edge == u64::MAX {
                continue; // top bucket is carried by +Inf below
            }
            out.push_str(&format!(
                "{metric}_bucket{{{key_prefix}le=\"{edge}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "{metric}_bucket{{{key_prefix}le=\"+Inf\"}} {}\n",
            h.count
        ));
        out.push_str(&format!("{metric}_sum{key_only} {}\n", h.sum));
        out.push_str(&format!("{metric}_count{key_only} {}\n", h.count));
    }

    out
}

fn emit_type(out: &mut String, last_family: &mut String, metric: &str, kind: &str) {
    if metric != last_family {
        out.push_str(&format!("# TYPE {metric} {kind}\n"));
        last_family.clear();
        last_family.push_str(metric);
    }
}

/// Split `base[label]` into a sanitized Prometheus metric name and the
/// optional label value.
fn prom_name(name: &str) -> (String, Option<String>) {
    let (base, label) = match name.strip_suffix(']').and_then(|s| s.split_once('[')) {
        Some((base, label)) => (base, Some(label.to_string())),
        None => (name, None),
    };
    let mut metric = String::with_capacity(base.len());
    for (i, c) in base.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        metric.push(if ok { c } else { '_' });
    }
    (metric, label)
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline.
fn prom_label_escape(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Shortest round-trip decimal for a float (Rust's `Display` for `f64`).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::{set_level, test_lock, TelemetryLevel};

    #[test]
    fn prom_name_splits_and_sanitizes() {
        assert_eq!(
            prom_name("netsim.sim.events"),
            ("netsim_sim_events".into(), None)
        );
        assert_eq!(
            prom_name("automl.fit_us[forest]"),
            ("automl_fit_us".into(), Some("forest".into()))
        );
        assert_eq!(prom_name("9lives"), ("_lives".into(), None));
        assert_eq!(
            prom_name("core.labeler.queries[Cross-ALE]"),
            ("core_labeler_queries".into(), Some("Cross-ALE".into()))
        );
    }

    #[test]
    fn render_covers_every_section_with_one_type_line_per_family() {
        let reg = Registry::new();
        reg.counter_add("automl.candidates_trained", 864);
        reg.gauge_set("proc.rss_bytes", 1_048_576);
        reg.span_stat("bench.datagen").record(2_000_000_000);
        reg.histogram_record("automl.fit_us[forest]", 100);
        reg.histogram_record("automl.fit_us[forest]", 1000);
        reg.histogram_record("automl.fit_us[knn]", 7);
        let text = render_prometheus(&reg.snapshot());

        assert!(
            text.contains("# TYPE automl_candidates_trained counter"),
            "{text}"
        );
        assert!(text.contains("automl_candidates_trained 864"), "{text}");
        assert!(text.contains("# TYPE proc_rss_bytes gauge"), "{text}");
        assert!(text.contains("proc_rss_bytes 1048576"), "{text}");
        assert!(
            text.contains("# TYPE aml_span_duration_seconds summary"),
            "{text}"
        );
        assert!(
            text.contains("aml_span_duration_seconds_sum{span=\"bench.datagen\"} 2"),
            "{text}"
        );
        // One TYPE line for the two-label histogram family.
        assert_eq!(
            text.matches("# TYPE automl_fit_us histogram").count(),
            1,
            "{text}"
        );
        assert!(
            text.contains("automl_fit_us_bucket{key=\"forest\",le=\"127\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("automl_fit_us_bucket{key=\"forest\",le=\"1023\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("automl_fit_us_bucket{key=\"forest\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("automl_fit_us_sum{key=\"forest\"} 1100"),
            "{text}"
        );
        assert!(
            text.contains("automl_fit_us_count{key=\"knn\"} 1"),
            "{text}"
        );
        // Every line is either a comment or `name{...} value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# TYPE ") || line.split(' ').count() == 2,
                "{line}"
            );
        }
    }

    #[test]
    fn huge_observations_fold_into_inf_bucket_only() {
        let reg = Registry::new();
        reg.histogram_record("h", u64::MAX);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("h_bucket{le=\"+Inf\"} 1"), "{text}");
        assert!(!text.contains("le=\"18446744073709551615\""), "{text}");
    }

    #[test]
    fn status_setters_are_inert_without_a_server() {
        let _guard = test_lock::hold();
        stop();
        reset_status();
        assert!(!active());
        set_phase("datagen");
        add_planned_trials(10);
        note_trial_done();
        note_round_done();
        assert_eq!(TRIALS_PLANNED.load(Ordering::Relaxed), 0);
        assert_eq!(TRIALS_DONE.load(Ordering::Relaxed), 0);
        assert_eq!(ROUNDS_DONE.load(Ordering::Relaxed), 0);
        assert_eq!(phase_slot().lock().unwrap().as_str(), "starting");
    }

    fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn server_answers_all_routes_end_to_end() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        crate::global().reset();
        let header = RunHeader {
            run_id: "t-s1-p1".into(),
            workload: "test_workload".into(),
            seed: 1,
            git: "abc".into(),
        };
        let addr = start("127.0.0.1:0", &header).unwrap();
        assert!(active());
        assert_eq!(bound_addr(), Some(addr));

        set_phase("strategies");
        add_planned_trials(8);
        note_trial_done();
        note_round_done();
        crate::counter_add("test.serve.counter", 3);
        crate::gauge_set("proc.rss_bytes", 4096);
        crate::ledger::emit_with(|| LedgerEvent::TrialFailed {
            trial: 1,
            rung: 0,
            family: "mlp".into(),
            reason: "error".into(),
        });

        let metrics = http_get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("text/plain; version=0.0.4"), "{metrics}");
        assert!(metrics.contains("test_serve_counter 3"), "{metrics}");
        assert!(metrics.contains("proc_rss_bytes 4096"), "{metrics}");

        let health = http_get(addr, "/healthz");
        assert!(health.contains("application/json"), "{health}");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        assert!(
            health.contains("\"workload\":\"test_workload\""),
            "{health}"
        );
        assert!(health.contains("\"phase\":\"strategies\""), "{health}");

        let runs = http_get(addr, "/runs");
        assert!(runs.contains("\"run_id\":\"t-s1-p1\""), "{runs}");
        assert!(runs.contains("\"trials_planned\":8"), "{runs}");
        assert!(runs.contains("\"trials_done\":1"), "{runs}");
        assert!(runs.contains("\"rounds_done\":1"), "{runs}");
        assert!(runs.contains("\"type\":\"trial_failed\""), "{runs}");

        // /crit answers the inactive sentinel when no collector armed.
        let crit = http_get(addr, "/crit");
        assert!(crit.contains("application/json"), "{crit}");
        assert!(crit.contains("{\"active\":false}"), "{crit}");

        // Unknown paths, and the retired routes whose data the ledger and
        // the history store hold, answer 404 with a body that names
        // exactly the served routes.
        for path in [
            "/nope",
            "/events",
            "/history",
            "/search",
            "/quality",
            "/dashboard",
        ] {
            let missing = http_get(addr, path);
            assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
            let body = missing.split("\r\n\r\n").nth(1).unwrap_or("");
            assert_eq!(body, format!("not found (try {})\n", ROUTES.join(", ")));
        }

        // The plane is read-only: any other method gets 405, its body
        // unread, and is not counted.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /healthz HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
        )
        .unwrap();
        let mut post = String::new();
        stream.read_to_string(&mut post).unwrap();
        assert!(post.starts_with("HTTP/1.1 405"), "{post}");

        // Per-route request counters land on /metrics; this second
        // /metrics scrape counts itself, and only the ROUTES are counted.
        let metrics = http_get(addr, "/metrics");
        for route in ROUTES {
            let calls = if route == "/metrics" { 2 } else { 1 };
            assert!(
                metrics.contains(&format!("serve_requests{{key=\"{route}\"}} {calls}")),
                "{metrics}"
            );
        }
        assert_eq!(
            metrics.matches("serve_requests{").count(),
            ROUTES.len(),
            "{metrics}"
        );
        stop();
        assert!(!active());
        assert!(bound_addr().is_none());
        assert!(TcpStream::connect(addr).is_err() || http_get_err(addr));

        // Drain the RingSink installed by start().
        crate::sink::finish(&Snapshot::default());
        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }

    /// Send `request` from a client thread and parse it server-side.
    fn read_sent(request: Vec<u8>) -> std::io::Result<HttpRequest> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            // The server may hang up mid-write on an oversized head.
            let _ = stream.write_all(&request).and_then(|()| stream.flush());
            // Keep the socket open until the server side finished reading.
            let mut sink = [0u8; 16];
            let _ = stream.read(&mut sink);
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let req = read_request(&mut stream);
        drop(stream);
        writer.join().unwrap();
        req
    }

    #[test]
    fn read_request_parses_method_path_and_query() {
        let req =
            read_sent(b"GET /runs?tail=4 HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n".to_vec())
                .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/runs");
        assert_eq!(req.query.as_deref(), Some("tail=4"));
        assert_eq!(tail_param(req.query.as_deref()), 4);

        let req = read_sent(b"POST /healthz HTTP/1.1\r\n\r\n".to_vec()).unwrap();
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/healthz")
        );
        assert_eq!(req.query, None);
    }

    #[test]
    fn read_request_rejects_oversized_and_malformed_heads() {
        let mut huge = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
        huge.resize(MAX_HEAD + 4096, b'a');
        let err = read_sent(huge).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("too large"), "{err}");

        let err = read_sent(b"GET\r\n\r\n".to_vec()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("missing request target"), "{err}");
    }

    #[test]
    fn query_params_parse_and_clamp() {
        assert_eq!(tail_param(None), EVENT_RING_CAP);
        assert_eq!(tail_param(Some("tail=5")), 5);
        assert_eq!(tail_param(Some("tail=0")), 1);
        assert_eq!(tail_param(Some("tail=10000")), EVENT_RING_CAP);
        assert_eq!(query_param(Some("a=1&b=2"), "b"), Some("2"));
        assert_eq!(query_param(Some("detail=9"), "tail"), None);
        assert_eq!(query_param(None, "tail"), None);
    }

    /// After stop, a lingering listener backlog connection must at least
    /// never answer.
    fn http_get_err(addr: std::net::SocketAddr) -> bool {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            return true;
        };
        let _ = write!(stream, "GET /healthz HTTP/1.1\r\n\r\n");
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let mut response = String::new();
        stream.read_to_string(&mut response).is_err() || response.is_empty()
    }
}
