//! Pluggable export sinks: machine-readable telemetry beyond the stderr
//! summary table.
//!
//! A [`Sink`] receives experiment-ledger events while the run executes
//! (when it [wants them](Sink::wants_ledger)) and, at the end of the run,
//! the final registry [`Snapshot`] — the "counter flush". Spans do not
//! stream through sinks: the trace tree ([`crate::tracetree`]) is their
//! one record, and a sink that shows spans renders it at flush. Sinks
//! that ship with the crate:
//!
//! * [`crate::ledger::LedgerJsonlSink`] — the experiment ledger as JSON
//!   lines (`--ledger-out`);
//! * [`crate::trace::ChromeTraceSink`] — a Chrome trace-event file
//!   (`trace.json`) loadable in Perfetto / `chrome://tracing`, rendered
//!   from the trace tree with one lane per job;
//! * the ledger folds ([`crate::ledger::FoldStore`]) behind the search,
//!   quality and `--record` reports, and the live plane's event stream.
//!
//! Sinks are process-global, installed once at startup (CLI parsing) via
//! [`install`] and drained by [`finish`], or by a panic hook that keeps
//! every export file valid when the run panics.

use crate::ledger::LedgerEvent;
use crate::registry::Snapshot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock, PoisonError, TryLockError};

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

/// A telemetry export destination.
///
/// Implementations must be thread-safe: ledger events arrive
/// concurrently from worker threads. [`Sink::on_ledger_event`] should be
/// cheap (buffer or append); expensive work belongs in [`Sink::finish`].
pub trait Sink: Send + Sync {
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
    /// sink. The experiment loop calls it (through [`flush_installed`])
    /// at every round boundary, so each completed round is on disk for
    /// `--resume`. Default: nothing to flush.
    fn flush_now(&self) -> std::io::Result<()> {
        Ok(())
    }
    /// Called once at the end of the run with the final registry
    /// snapshot; flush buffers and write the output file here.
    fn finish(&self, snapshot: &Snapshot) -> std::io::Result<()>;
    /// Where this sink writes, for the end-of-run "wrote …" note.
    fn target(&self) -> String;
}

/// Whether any sink is installed.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn sinks() -> &'static Mutex<Vec<Box<dyn Sink>>> {
    static SINKS: OnceLock<Mutex<Vec<Box<dyn Sink>>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Install a sink. Raises the ledger emission gate if the sink consumes
/// ledger events, and (once per process) registers a panic hook that
/// flushes installed sinks so export files stay valid when the run
/// panics mid-way.
pub fn install(sink: Box<dyn Sink>) {
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
/// installed sink, so `--trace-out` / `--ledger-out` files are complete and parseable even when the run panics. The
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
/// experiment loop calls this after every round it runs: a round is
/// committed once its `round_completed` line is durably in the ledger
/// file (the ledger sink syncs its data on flush), and that committed
/// prefix is what `--resume` continues.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_level, test_lock, TelemetryLevel};

    #[test]
    fn no_sink_means_inactive_and_second_finish_is_empty() {
        let _guard = test_lock::hold();
        let results = finish(&Snapshot::default());
        assert!(results.is_empty());
        assert!(!active());
    }

    #[test]
    fn panic_mid_span_still_leaves_valid_export_files() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        crate::global().reset();
        let dir = std::env::temp_dir().join(format!("aml_panic_flush_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json");
        let ledger_path = dir.join("ledger.jsonl");
        let header = RunHeader::new("panic-test", 1);
        crate::tracetree::reset();
        crate::tracetree::set_active(true);
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

        crate::tracetree::set_active(false);
        crate::tracetree::reset();

        // trace.json: balanced braces and balanced B/E pairs, with the
        // span closed before the panic present.
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(!trace.is_empty(), "trace must be rendered on panic");
        assert!(trace.contains("test.panic.before"), "{trace}");
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
