//! Pluggable export sinks: machine-readable telemetry beyond the stderr
//! summary table.
//!
//! A [`Sink`] receives every span close as a [`SpanEvent`] (with a
//! monotonic timestamp relative to the run origin, a stable per-thread
//! lane id, and the nesting depth) and, at the end of the run, the final
//! registry [`Snapshot`] — the "counter flush". Two sinks ship with the
//! crate:
//!
//! * [`JsonlSink`] — one JSON line per span close, then one line per
//!   counter/histogram at flush. Greppable, streamable, `jq`-able.
//! * [`crate::trace::ChromeTraceSink`] — a Chrome trace-event file
//!   (`trace.json`) loadable in Perfetto / `chrome://tracing`,
//!   reconstructing the span tree with per-thread lanes.
//!
//! Sinks are process-global, installed once at startup (CLI parsing) via
//! [`install`] and drained by [`finish`]. The hot-path cost when no sink
//! is installed is a single relaxed atomic load, preserving the crate's
//! off-is-free guarantee.

use crate::json;
use crate::ledger::LedgerEvent;
use crate::registry::Snapshot;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock, PoisonError, TryLockError};
use std::time::Instant;

/// Identity of the run, stamped into every sink's output so exported
/// files are self-describing and joinable with `manifest.json`.
#[derive(Debug, Clone, Default)]
pub struct RunHeader {
    /// Unique-enough id (`<workload>-s<seed>-p<pid>`).
    pub run_id: String,
    /// Workload (benchmark binary) name.
    pub workload: String,
    /// Master RNG seed.
    pub seed: u64,
    /// `git describe` of the build, or `"unknown"`.
    pub git: String,
}

impl RunHeader {
    /// Build a header for `workload` at `seed`; the run id folds in the
    /// pid so concurrent runs stay distinguishable.
    pub fn new(workload: &str, seed: u64) -> RunHeader {
        RunHeader {
            run_id: format!("{workload}-s{seed}-p{}", std::process::id()),
            workload: workload.to_string(),
            seed,
            git: crate::manifest::git_describe(),
        }
    }
}

/// One closed span, as delivered to sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name (`crate.component.action`, optionally `[label]`-suffixed).
    pub name: String,
    /// Stable per-thread lane id (0 = first thread to close a span,
    /// usually main).
    pub tid: u64,
    /// Nesting depth of the span on its thread (0 = top level).
    pub depth: usize,
    /// Start time in microseconds since the run origin.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

impl SpanEvent {
    /// End time in microseconds since the run origin.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

/// A telemetry export destination.
///
/// Implementations must be thread-safe: span closes arrive concurrently
/// from worker threads. [`Sink::on_span_close`] should be cheap (buffer or
/// append); expensive work belongs in [`Sink::finish`].
pub trait Sink: Send + Sync {
    /// Called once per span close while the run executes.
    fn on_span_close(&self, event: &SpanEvent);
    /// Called once per experiment-ledger event, but only when
    /// [`Sink::wants_ledger`] returns `true`. Default: ignore.
    fn on_ledger_event(&self, _event: &LedgerEvent) {}
    /// Called once per event of a resumed run's kept ledger prefix
    /// ([`replay_ledger`]). The in-process readers (fold sinks) take it,
    /// so their reports cover the whole run; sinks that export events —
    /// the ledger file, the live stream — ignore it. Default: ignore.
    fn on_ledger_replay(&self, _event: &LedgerEvent) {}
    /// Whether this sink consumes [`LedgerEvent`]s. The ledger emission
    /// gate ([`crate::ledger::active`]) is only raised when at least one
    /// installed sink returns `true`, keeping emission off-is-free.
    fn wants_ledger(&self) -> bool {
        false
    }
    /// Flush any buffered output *now*, mid-run, without removing the
    /// sink. Used by the checkpoint path, which must know the ledger's
    /// on-disk length at each round boundary. Default: nothing to flush.
    fn flush_now(&self) -> std::io::Result<()> {
        Ok(())
    }
    /// Called once at the end of the run with the final registry
    /// snapshot; flush buffers and write the output file here.
    fn finish(&self, snapshot: &Snapshot) -> std::io::Result<()>;
    /// Where this sink writes, for the end-of-run "wrote …" note.
    fn target(&self) -> String;
}

/// Whether any sink is installed — the hot-path gate for event emission.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn sinks() -> &'static Mutex<Vec<Box<dyn Sink>>> {
    static SINKS: OnceLock<Mutex<Vec<Box<dyn Sink>>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(Vec::new()))
}

/// The run's monotonic origin: fixed the first time anything asks for it
/// (installing a sink does), so every [`SpanEvent`] timestamp shares one
/// zero point.
pub fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Stable small-integer id for the calling thread (assigned on first
/// use; 0 is the first thread to emit, usually main).
pub fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Install a sink. Fixes the run origin so subsequent span timestamps are
/// relative to (roughly) installation time, raises the ledger emission
/// gate if the sink consumes ledger events, and (once per process)
/// registers a panic hook that flushes installed sinks so export files
/// stay valid when the run panics mid-way.
pub fn install(sink: Box<dyn Sink>) {
    origin();
    install_panic_flush_hook();
    if sink.wants_ledger() {
        crate::ledger::set_active(true);
    }
    sinks()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(sink);
    ACTIVE.store(true, Ordering::Release);
}

/// Chain a panic hook (once per process) that flushes and removes every
/// installed sink, so `--events-out` / `--trace-out` / `--ledger-out`
/// files are complete and parseable even when the run panics. The
/// previous hook (the default backtrace printer) still runs first.
fn install_panic_flush_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // A panic inside an armed sandbox (the AutoML trial
            // sandbox) is about to be caught and recovered from: no
            // report, and crucially no sink drain — the run continues.
            if crate::sandbox::armed() {
                return;
            }
            previous(info);
            flush_on_panic();
        }));
    });
}

/// Best-effort sink flush from inside a panic hook. Uses `try_lock` (the
/// panicking thread may already hold the sink list) and tolerates
/// poisoning; write errors are swallowed — we are already crashing.
fn flush_on_panic() {
    if !active() {
        return;
    }
    ACTIVE.store(false, Ordering::Release);
    crate::ledger::set_active(false);
    let drained: Vec<Box<dyn Sink>> = match sinks().try_lock() {
        Ok(mut guard) => std::mem::take(&mut *guard),
        Err(TryLockError::Poisoned(poisoned)) => std::mem::take(&mut *poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => return,
    };
    let snapshot = if crate::enabled() {
        crate::global().snapshot()
    } else {
        Snapshot::default()
    };
    for sink in &drained {
        let _ = sink.finish(&snapshot);
    }
}

/// Whether any sink is installed (one relaxed atomic load).
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Deliver one span close to every installed sink. Called from
/// [`crate::Span`]'s drop; no-op (and allocation-free) when no sink is
/// installed.
pub(crate) fn emit_span_close(name: &str, start: Instant, dur_ns: u64, depth: usize) {
    if !active() {
        return;
    }
    let start_us = start
        .checked_duration_since(origin())
        .map(|d| d.as_nanos() as f64 / 1e3)
        .unwrap_or(0.0);
    let event = SpanEvent {
        name: name.to_string(),
        tid: current_tid(),
        depth,
        start_us,
        dur_us: dur_ns as f64 / 1e3,
    };
    for sink in sinks()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        sink.on_span_close(&event);
    }
}

/// Deliver one ledger event to every sink that wants it. Called from
/// [`crate::ledger::emit`] behind the ledger-active gate.
pub(crate) fn emit_ledger_event(event: &LedgerEvent) {
    for sink in sinks()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        if sink.wants_ledger() {
            sink.on_ledger_event(event);
        }
    }
}

/// Replay the events a resumed run kept from its ledger to every
/// installed sink's [`Sink::on_ledger_replay`].
pub fn replay_ledger(events: &[LedgerEvent]) {
    let sinks = sinks().lock().unwrap_or_else(PoisonError::into_inner);
    for event in events {
        for sink in sinks.iter() {
            sink.on_ledger_replay(event);
        }
    }
}

/// Flush every installed sink in place (no removal, no snapshot). The
/// checkpoint writer calls this at round boundaries so the bytes of all
/// rounds up to and including the checkpointed one are durably in the
/// export files before the checkpoint that references them is committed.
pub fn flush_installed() -> std::io::Result<()> {
    let mut first_err = None;
    for sink in sinks()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        if let Err(e) = sink.flush_now() {
            first_err.get_or_insert(e);
        }
    }
    match first_err {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

/// Flush and remove every installed sink, handing each the final
/// `snapshot`. Returns `(target, result)` per sink so the caller can
/// report successes and failures; sinks are gone afterwards (a second
/// call returns an empty vec).
pub fn finish(snapshot: &Snapshot) -> Vec<(String, std::io::Result<()>)> {
    ACTIVE.store(false, Ordering::Release);
    crate::ledger::set_active(false);
    // Re-arm the once-per-run search-space descriptor so the next run in
    // this process (tests, perfgate repeats) gets its own line.
    crate::ledger::reset_search_space_gate();
    let drained: Vec<Box<dyn Sink>> =
        std::mem::take(&mut *sinks().lock().unwrap_or_else(PoisonError::into_inner));
    drained
        .iter()
        .map(|s| (s.target(), s.finish(snapshot)))
        .collect()
}

/// JSONL event sink: one self-contained JSON object per line.
///
/// Line shapes (stable field order):
///
/// ```text
/// {"type":"run","run_id":"…","workload":"…","seed":1,"git":"…"}
/// {"type":"span","name":"…","tid":0,"depth":1,"ts_us":12.345,"dur_us":6.789}
/// {"type":"counter","name":"…","value":123}
/// {"type":"histogram","name":"…","count":3,"sum":300,"min":50,"max":200,"p50":127,"p95":255}
/// ```
///
/// The `run` line is written at creation; `span` lines stream during the
/// run; `counter`/`histogram` lines are the flush, written by
/// [`Sink::finish`].
pub struct JsonlSink {
    target: String,
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlSink {
    /// Create (truncate) `path` and write the `run` header line.
    pub fn create(path: &Path, header: &RunHeader) -> std::io::Result<JsonlSink> {
        let file: Box<dyn Write + Send> = Box::new(std::fs::File::create(path)?);
        JsonlSink::from_writer(file, &path.display().to_string(), header)
    }

    /// Wrap an arbitrary writer and write the `run` header line (tests
    /// inject failing writers here to exercise drop accounting).
    pub fn from_writer(
        writer: Box<dyn Write + Send>,
        target: &str,
        header: &RunHeader,
    ) -> std::io::Result<JsonlSink> {
        let mut writer = BufWriter::new(writer);
        writeln!(
            writer,
            "{{\"type\":\"run\",\"run_id\":{},\"workload\":{},\"seed\":{},\"git\":{}}}",
            json::string(&header.run_id),
            json::string(&header.workload),
            header.seed,
            json::string(&header.git),
        )?;
        Ok(JsonlSink {
            target: target.to_string(),
            writer: Mutex::new(writer),
        })
    }
}

impl Sink for JsonlSink {
    fn on_span_close(&self, event: &SpanEvent) {
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        // Best-effort: a full disk must not crash the instrumented run —
        // but the loss is accounted for instead of silent.
        let written = writeln!(
            w,
            "{{\"type\":\"span\",\"name\":{},\"tid\":{},\"depth\":{},\"ts_us\":{:.3},\"dur_us\":{:.3}}}",
            json::string(&event.name),
            event.tid,
            event.depth,
            event.start_us,
            event.dur_us,
        );
        if written.is_err() {
            crate::counter_add("telemetry.events_dropped", 1);
        }
    }

    fn finish(&self, snapshot: &Snapshot) -> std::io::Result<()> {
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        for (name, value) in &snapshot.counters {
            writeln!(
                w,
                "{{\"type\":\"counter\",\"name\":{},\"value\":{}}}",
                json::string(name),
                value
            )?;
        }
        for h in &snapshot.histograms {
            writeln!(
                w,
                "{{\"type\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{}}}",
                json::string(&h.name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p95,
            )?;
        }
        w.flush()
    }

    fn target(&self) -> String {
        self.target.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_level, span, test_lock, TelemetryLevel};

    /// Collects events in memory; `finish` records that it ran.
    struct CollectingSink {
        events: Mutex<Vec<SpanEvent>>,
        finished: AtomicBool,
    }

    impl Sink for CollectingSink {
        fn on_span_close(&self, event: &SpanEvent) {
            self.events.lock().unwrap().push(event.clone());
        }
        fn finish(&self, _snapshot: &Snapshot) -> std::io::Result<()> {
            self.finished.store(true, Ordering::Relaxed);
            Ok(())
        }
        fn target(&self) -> String {
            "memory".into()
        }
    }

    #[test]
    fn spans_reach_installed_sinks_with_depth_and_order() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        crate::global().reset();
        // Leak a reference so we can inspect after `finish` consumes the box.
        let sink = Box::leak(Box::new(CollectingSink {
            events: Mutex::new(Vec::new()),
            finished: AtomicBool::new(false),
        }));
        struct Fwd(&'static CollectingSink);
        impl Sink for Fwd {
            fn on_span_close(&self, e: &SpanEvent) {
                self.0.on_span_close(e)
            }
            fn finish(&self, s: &Snapshot) -> std::io::Result<()> {
                self.0.finish(s)
            }
            fn target(&self) -> String {
                self.0.target()
            }
        }
        install(Box::new(Fwd(sink)));
        assert!(active());
        {
            let _outer = span("test.sink.outer");
            let _inner = span("test.sink.inner");
        }
        let results = finish(&crate::global().snapshot());
        assert_eq!(results.len(), 1);
        assert!(results[0].1.is_ok());
        assert!(!active(), "finish must deactivate emission");
        assert!(sink.finished.load(Ordering::Relaxed));

        let events = sink.events.lock().unwrap();
        // Inner closes before outer.
        assert_eq!(events[0].name, "test.sink.inner");
        assert_eq!(events[1].name, "test.sink.outer");
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[1].depth, 0);
        assert_eq!(events[0].tid, events[1].tid);
        // Outer started no later than inner and ended no earlier.
        assert!(events[1].start_us <= events[0].start_us);
        assert!(events[1].end_us() >= events[0].end_us());
        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }

    #[test]
    fn no_sink_means_inactive_and_second_finish_is_empty() {
        let _guard = test_lock::hold();
        let results = finish(&Snapshot::default());
        assert!(results.is_empty());
        assert!(!active());
    }

    #[test]
    fn jsonl_sink_writes_header_spans_and_flush_lines() {
        let _guard = test_lock::hold();
        let dir = std::env::temp_dir().join(format!("aml_jsonl_sink_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let header = RunHeader {
            run_id: "w-s1-p1".into(),
            workload: "w".into(),
            seed: 1,
            git: "abc".into(),
        };
        let sink = JsonlSink::create(&path, &header).unwrap();
        sink.on_span_close(&SpanEvent {
            name: "a.b".into(),
            tid: 0,
            depth: 0,
            start_us: 1.5,
            dur_us: 2.25,
        });
        let mut snapshot = Snapshot::default();
        snapshot.counters.push(("c.n".into(), 7));
        sink.finish(&snapshot).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert_eq!(
            lines[0],
            "{\"type\":\"run\",\"run_id\":\"w-s1-p1\",\"workload\":\"w\",\"seed\":1,\"git\":\"abc\"}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"span\",\"name\":\"a.b\",\"tid\":0,\"depth\":0,\"ts_us\":1.500,\"dur_us\":2.250}"
        );
        assert_eq!(
            lines[2],
            "{\"type\":\"counter\",\"name\":\"c.n\",\"value\":7}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tid_is_stable_within_a_thread() {
        assert_eq!(current_tid(), current_tid());
        let other = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(other, current_tid());
    }

    /// Fails every write; used to exercise the drop accounting.
    struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("disk full"))
        }
    }

    #[test]
    fn failed_writes_count_as_dropped_events() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        crate::global().reset();
        // The header lands in the BufWriter's buffer, so creation
        // succeeds even over a dead writer.
        let sink =
            JsonlSink::from_writer(Box::new(FailingWriter), "failing", &RunHeader::default())
                .unwrap();
        // A line larger than the buffer forces a real write — which fails.
        sink.on_span_close(&SpanEvent {
            name: "x".repeat(16 * 1024),
            tid: 0,
            depth: 0,
            start_us: 0.0,
            dur_us: 1.0,
        });
        let snap = crate::global().snapshot();
        assert!(
            snap.counters
                .iter()
                .any(|(n, v)| n == "telemetry.events_dropped" && *v >= 1),
            "{:?}",
            snap.counters
        );
        assert!(sink.finish(&snap).is_err(), "flush over a dead writer");
        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }

    #[test]
    fn panic_mid_span_still_leaves_valid_export_files() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        crate::global().reset();
        let dir = std::env::temp_dir().join(format!("aml_panic_flush_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let events_path = dir.join("events.jsonl");
        let trace_path = dir.join("trace.json");
        let ledger_path = dir.join("ledger.jsonl");
        let header = RunHeader::new("panic-test", 1);
        install(Box::new(JsonlSink::create(&events_path, &header).unwrap()));
        install(Box::new(
            crate::trace::ChromeTraceSink::create(&trace_path, &header).unwrap(),
        ));
        install(Box::new(
            crate::ledger::LedgerJsonlSink::create(&ledger_path, &header).unwrap(),
        ));
        assert!(active());
        assert!(crate::ledger::active());

        let result = std::thread::spawn(|| {
            {
                let _done = crate::span("test.panic.before");
            }
            crate::ledger::emit(&LedgerEvent::TrialFailed {
                trial: 7,
                rung: 0,
                family: "mlp".into(),
                reason: "error".into(),
            });
            let _open = crate::span("test.panic.inside");
            panic!("boom");
        })
        .join();
        assert!(result.is_err(), "the thread must have panicked");

        // The hook drained the sinks and lowered both gates.
        assert!(!active(), "panic hook must deactivate emission");
        assert!(!crate::ledger::active());
        assert!(finish(&Snapshot::default()).is_empty());

        // events.jsonl: complete, newline-terminated JSONL with the
        // closed span present.
        let events = std::fs::read_to_string(&events_path).unwrap();
        assert!(events.ends_with('\n'), "{events:?}");
        assert!(events.contains("test.panic.before"), "{events}");
        for line in events.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }

        // trace.json: balanced braces and balanced B/E pairs.
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(!trace.is_empty(), "trace must be rendered on panic");
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
        assert_eq!(trace.matches('[').count(), trace.matches(']').count());
        assert_eq!(
            trace.matches("\"ph\": \"B\"").count(),
            trace.matches("\"ph\": \"E\"").count()
        );

        // ledger.jsonl: header + the emitted event, newline-terminated.
        let ledger = std::fs::read_to_string(&ledger_path).unwrap();
        assert!(ledger.ends_with('\n'), "{ledger:?}");
        assert!(ledger.contains("\"type\":\"ledger\""), "{ledger}");
        assert!(ledger.contains("\"type\":\"trial_failed\""), "{ledger}");

        std::fs::remove_dir_all(&dir).ok();
        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }
}
