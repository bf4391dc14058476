//! RAII timing spans with thread-local nesting.
//!
//! A [`Span`] measures the wall time between its creation and drop and
//! folds it into the global registry under its name. Spans nest: each
//! thread tracks its depth so `Verbose` log lines indent to show structure,
//! and tests can assert nesting behaves. While the trace-tree collector
//! is armed, each close also records one [`crate::tracetree::Node`], with
//! the same duration as the registry.

use crate::registry::{global, SpanStat};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Current span nesting depth on this thread (0 outside any span).
pub fn current_depth() -> usize {
    DEPTH.with(|d| d.get())
}

struct SpanInner {
    stat: Arc<SpanStat>,
    start: Instant,
    name: String,
    /// `alloc.bytes` at open, for the per-span allocation delta.
    alloc_open: u64,
    /// Whether this span pushed a trace-tree frame (the collector was
    /// active at open); guards the matching pop so toggling mid-span can
    /// never unbalance the collector's stack.
    traced: bool,
}

/// RAII guard for a timing span; records into the global registry on drop.
///
/// Created by [`span`]/[`span_labeled`] or the [`crate::span!`] macro.
/// When telemetry is off the guard is inert: no clock read, no allocation,
/// nothing recorded.
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// The span's name, or `None` for an inert (telemetry-off) guard.
    pub fn name(&self) -> Option<&str> {
        self.inner.as_ref().map(|i| i.name.as_str())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        // The one clock read at close: the registry and the trace node
        // record the same duration.
        let ns = inner.start.elapsed().as_nanos() as u64;
        inner.stat.record(ns);
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if inner.traced {
            crate::tracetree::on_span_close(ns);
        }
        if crate::alloc::stats().is_some() {
            let delta = crate::alloc::bytes_now().saturating_sub(inner.alloc_open);
            crate::global().histogram_record(&format!("alloc.span_bytes[{}]", inner.name), delta);
        }
        if crate::level() == crate::TelemetryLevel::Verbose {
            let indent = "  ".repeat(current_depth());
            eprintln!(
                "[telemetry] {indent}{} {:.3} ms",
                inner.name,
                ns as f64 / 1e6
            );
        }
    }
}

/// Open a span named `name`. See [`crate::span!`].
pub fn span(name: &str) -> Span {
    if !crate::enabled() {
        return Span { inner: None };
    }
    open(name.to_string())
}

/// Open a span keyed `base[label]` — e.g.
/// `span_labeled("core.strategy.refit", "Cross-ALE")` aggregates under
/// `core.strategy.refit[Cross-ALE]`.
pub fn span_labeled(base: &str, label: &str) -> Span {
    if !crate::enabled() {
        return Span { inner: None };
    }
    open(format!("{base}[{label}]"))
}

/// Open an enabled span: the one clock read at open is shared with the
/// trace-tree collector.
fn open(name: String) -> Span {
    DEPTH.with(|d| d.set(d.get() + 1));
    let stat = global().span_stat(&name);
    let alloc_open = crate::alloc::bytes_now();
    let start = Instant::now();
    let traced = crate::tracetree::active();
    if traced {
        crate::tracetree::on_span_open(&name, start);
    }
    Span {
        inner: Some(SpanInner {
            stat,
            start,
            name,
            alloc_open,
            traced,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_level, test_lock, TelemetryLevel};

    #[test]
    fn spans_nest_and_unwind_depth() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        global().reset();
        assert_eq!(current_depth(), 0);
        {
            let outer = span("test.nest.outer");
            assert_eq!(outer.name(), Some("test.nest.outer"));
            assert_eq!(current_depth(), 1);
            {
                let _mid = span_labeled("test.nest.mid", "x");
                assert_eq!(current_depth(), 2);
                {
                    let _inner = span("test.nest.inner");
                    assert_eq!(current_depth(), 3);
                }
                assert_eq!(current_depth(), 2);
            }
            assert_eq!(current_depth(), 1);
        }
        assert_eq!(current_depth(), 0);

        let snap = global().snapshot();
        let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"test.nest.outer"));
        assert!(names.contains(&"test.nest.mid[x]"));
        assert!(names.contains(&"test.nest.inner"));
        for s in &snap.spans {
            assert_eq!(s.calls, 1);
            assert!(s.max_ns >= s.min_ns);
        }
        // Outer span encloses the inner ones, so its time dominates.
        let total = |n: &str| snap.spans.iter().find(|s| s.name == n).unwrap().total_ns;
        assert!(total("test.nest.outer") >= total("test.nest.inner"));
        set_level(TelemetryLevel::Off);
        global().reset();
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Off);
        global().reset();
        let s = span("test.inert");
        assert!(s.name().is_none());
        assert_eq!(current_depth(), 0);
        drop(s);
        assert!(global().snapshot().spans.is_empty());
    }

    #[test]
    fn same_name_spans_aggregate_across_threads() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        global().reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        let _s = span("test.threads.work");
                    }
                });
            }
        });
        let snap = global().snapshot();
        let s = snap
            .spans
            .iter()
            .find(|s| s.name == "test.threads.work")
            .unwrap();
        assert_eq!(s.calls, 100);
        set_level(TelemetryLevel::Off);
        global().reset();
    }
}
