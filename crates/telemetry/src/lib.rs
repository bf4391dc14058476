//! # aml-telemetry — observability for the whole pipeline
//!
//! The paper's premise is *interpretability for operators*; this crate
//! applies the same standard to our own pipeline. It provides, with zero
//! external dependencies:
//!
//! * **scoped spans** ([`span()`], [`span!`]) with monotonic timing and a
//!   thread-safe registry that aggregates wall-time and call counts per
//!   span name across worker threads;
//! * **counters** ([`counter_add`]) and **histograms**
//!   ([`histogram_record`]) for hot-path quantities (candidates trained,
//!   ALE predictions evaluated, netsim events processed, …);
//! * a **run manifest** ([`manifest::Manifest`]): a machine-readable
//!   `manifest.json` capturing seed, scale, threads, git revision, and
//!   every span/counter/histogram of the run;
//! * **status lines** ([`progress::note`]) replacing scattered `println!`
//!   status output, plus the one sanctioned stdout sink for user-facing
//!   result tables ([`progress::report`]);
//! * pluggable **export sinks** ([`sink`]): the ledger file, the ledger
//!   folds, and a Chrome trace-event file ([`trace::ChromeTraceSink`])
//!   loadable in Perfetto, each flushed once with the final counters;
//! * an **experiment ledger** ([`ledger`]): typed, versioned ML-level
//!   events — search trials, ensemble composition, feedback
//!   rounds, suggested regions, curve provenance — streamed to a
//!   deterministic `ledger.jsonl` (read back by the `amlinspect` bin);
//! * a **live observability plane** ([`serve`], behind `--serve ADDR`):
//!   a std-only HTTP server exposing `/metrics` (Prometheus text
//!   exposition), `/healthz` (liveness + run phase), `/runs` (run
//!   header, live progress, recent ledger events) and `/crit` — the
//!   state no file holds until the run ends;
//! * a **cross-run history store** ([`history`], behind `--record`):
//!   one append-only JSONL record per completed run (wall time, peak
//!   RSS, final accuracy, trial/failure counts) feeding
//!   `perfgate --against-history`;
//! * a **model/data quality plane** ([`quality`]): per-feature dataset
//!   profiles with fixed-edge histograms, PSI drift scores against the
//!   previous round, and per-round confusion/calibration diagnostics,
//!   emitted as ledger events and recomputed from the ledger by
//!   `amlinspect quality`;
//! * a **resource sampler** ([`resource`]): `/proc/self` readings
//!   published as `proc.*` gauges ([`gauge_set`]), no-op off Linux;
//! * **causal trace trees** ([`tracetree`], behind `--crit-out`,
//!   `--profile-out` or `--trace-out`): every span gets one node with a
//!   deterministic structural id and parent link — across
//!   [`tracetree::par_map`] workers via the explicit [`TraceContext`]
//!   handoff. The node is the one per-span record; three views render
//!   from it: the **critical-path analyzer** ([`crit`]: longest
//!   dependency chain, per-phase serial-fraction / Amdahl speedup
//!   ceiling, wall-vs-CPU attribution, written as `crit.json` and served
//!   live at `/crit`), the **self-time profile** ([`profile`]: exclusive
//!   time per stack of logical parents, written as flamegraph-ready
//!   `profile.folded`), and the **Chrome trace** ([`trace`]: one lane
//!   per job, written as `trace.json`);
//! * optional **allocation tracking** ([`alloc`], behind the
//!   `alloc-track` feature): a counting global allocator whose totals
//!   land in `alloc.*` counters and per-span byte deltas.
//!
//! ## Levels
//!
//! Everything is gated by a process-wide [`TelemetryLevel`]:
//!
//! * `Off` — every instrumentation call is a no-op (one relaxed atomic
//!   load, no allocation, no lock); output and artifacts are byte-identical
//!   to an uninstrumented build;
//! * `Summary` — spans/counters/histograms are collected, progress is
//!   reported to stderr, and a manifest plus a timing table are emitted at
//!   the end of the run;
//! * `Verbose` — additionally logs every span close to stderr.
//!
//! ## Naming scheme
//!
//! Span, counter, and histogram names follow `crate.component.action`
//! (e.g. `automl.search.run`, `interpret.ale.curve`, `netsim.sim.events`).
//! Per-key variants append a bracketed label: `automl.fit_us[forest]`,
//! `core.labeler.queries[Cross-ALE]`. See DESIGN.md §6 ("Observability").

#![deny(missing_docs)]

pub mod alloc;
pub mod crit;
pub mod history;
pub mod json;
pub mod ledger;
pub mod manifest;
pub mod profile;
pub mod progress;
pub mod quality;
pub mod registry;
pub mod resource;
pub mod sandbox;
pub mod searchview;
pub mod serve;
pub mod sink;
pub mod span;
pub mod trace;
pub mod tracetree;

pub use alloc::AllocStats;
pub use crit::{CritReport, CRIT_SCHEMA_VERSION};
pub use history::{HistoryRecord, LedgerSummary, HISTORY_SCHEMA_VERSION};
pub use ledger::{
    EnsembleMember, Fold, FoldStore, LedgerEvent, LedgerJsonlSink, ParamValue, SpaceDim,
    SpaceFamily, LEDGER_SCHEMA_VERSION,
};
pub use manifest::Manifest;
pub use progress::{note, report, warn};
pub use quality::{FeatureProfile, QualityReport, QUALITY_SCHEMA_VERSION};
pub use registry::{global, HistSnapshot, Registry, Snapshot, SpanSnapshot};
pub use searchview::{SearchReport, SEARCH_SCHEMA_VERSION};
pub use sink::{RunHeader, Sink};
pub use span::{current_depth, span, span_labeled, Span};
pub use trace::ChromeTraceSink;
pub use tracetree::{SpanId, TraceContext};

use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Instant;

/// How much instrumentation the process collects and emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum TelemetryLevel {
    /// All instrumentation calls are no-ops; no telemetry output at all.
    #[default]
    Off = 0,
    /// Collect metrics, report progress, emit a manifest + summary table.
    Summary = 1,
    /// `Summary` plus a stderr log line for every span close.
    Verbose = 2,
}

impl TelemetryLevel {
    /// The flag spellings accepted by [`TelemetryLevel::from_str`].
    pub const CHOICES: &'static str = "off|summary|verbose";

    /// Canonical lowercase name (the CLI flag spelling).
    pub fn name(&self) -> &'static str {
        match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Summary => "summary",
            TelemetryLevel::Verbose => "verbose",
        }
    }
}

impl std::fmt::Display for TelemetryLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for TelemetryLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(TelemetryLevel::Off),
            "summary" => Ok(TelemetryLevel::Summary),
            "verbose" => Ok(TelemetryLevel::Verbose),
            other => Err(format!(
                "invalid telemetry level '{other}' (expected {})",
                TelemetryLevel::CHOICES
            )),
        }
    }
}

/// Process-wide level. Off by default so library users are unaffected
/// until a binary opts in.
static LEVEL: AtomicU8 = AtomicU8::new(TelemetryLevel::Off as u8);

/// Set the process-wide telemetry level (typically once, from CLI parsing).
pub fn set_level(level: TelemetryLevel) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current process-wide telemetry level.
pub fn level() -> TelemetryLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => TelemetryLevel::Off,
        1 => TelemetryLevel::Summary,
        _ => TelemetryLevel::Verbose,
    }
}

/// Whether any telemetry is collected. This is the hot-path gate: a single
/// relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) != TelemetryLevel::Off as u8
}

/// `Some(Instant::now())` when telemetry is enabled — for manually timed
/// sections that feed histograms (see [`histogram_record_labeled`]).
#[inline]
pub fn maybe_now() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Add `n` to the named global counter. No-op (and allocation-free) when
/// telemetry is off.
#[inline]
pub fn counter_add(name: &str, n: u64) {
    if enabled() {
        global().counter_add(name, n);
    }
}

/// Add `n` to the counter `base[label]` (e.g. per-strategy labeler
/// queries). The key is only materialized when telemetry is on.
#[inline]
pub fn counter_add_labeled(base: &str, label: &str, n: u64) {
    if enabled() {
        global().counter_add(&format!("{base}[{label}]"), n);
    }
}

/// Set the named global gauge to `value` (last write wins; e.g.
/// `proc.rss_bytes` from the resource sampler). No-op when telemetry is
/// off.
#[inline]
pub fn gauge_set(name: &str, value: u64) {
    if enabled() {
        global().gauge_set(name, value);
    }
}

/// Record one observation in the named global histogram.
#[inline]
pub fn histogram_record(name: &str, value: u64) {
    if enabled() {
        global().histogram_record(name, value);
    }
}

/// Record one observation in the histogram `base[label]` (e.g. per-family
/// fit time). The key is only materialized when telemetry is on.
#[inline]
pub fn histogram_record_labeled(base: &str, label: &str, value: u64) {
    if enabled() {
        global().histogram_record(&format!("{base}[{label}]"), value);
    }
}

/// Open a scoped timing span. Prefer this macro over the [`span()`] /
/// [`span_labeled`] functions; it reads like a statement:
///
/// ```
/// let _span = aml_telemetry::span!("interpret.ale.curve");
/// let _per = aml_telemetry::span!("core.strategy.refit", "Cross-ALE");
/// ```
///
/// The span records its wall time into the global registry when the guard
/// drops. With telemetry off the guard is inert and nothing is recorded.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $label:expr) => {
        $crate::span_labeled($name, $label)
    };
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Tests that touch the process-wide level or global registry
    /// serialize through this lock so `cargo test`'s parallelism cannot
    /// interleave them.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_round_trips_through_from_str() {
        for l in [
            TelemetryLevel::Off,
            TelemetryLevel::Summary,
            TelemetryLevel::Verbose,
        ] {
            assert_eq!(l.name().parse::<TelemetryLevel>().unwrap(), l);
        }
        assert!("banana".parse::<TelemetryLevel>().is_err());
    }

    #[test]
    fn set_level_controls_enabled() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Off);
        assert!(!enabled());
        assert!(maybe_now().is_none());
        set_level(TelemetryLevel::Summary);
        assert!(enabled());
        assert!(maybe_now().is_some());
        set_level(TelemetryLevel::Off);
    }

    #[test]
    fn disabled_mode_records_nothing() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Off);
        global().reset();
        counter_add("test.disabled.counter", 5);
        histogram_record("test.disabled.hist", 1);
        histogram_record_labeled("test.disabled.hist", "x", 1);
        counter_add_labeled("test.disabled.counter", "x", 1);
        {
            let _span = span!("test.disabled.span");
        }
        let snap = global().snapshot();
        assert!(snap.counters.is_empty(), "{:?}", snap.counters);
        assert!(snap.spans.is_empty());
        assert!(snap.histograms.is_empty());
    }
}
