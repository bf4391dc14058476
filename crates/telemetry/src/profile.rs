//! Per-span *self-time* profiling with collapsed-stack (folded) output.
//!
//! The registry's span aggregates answer "how long did `automl.search.run`
//! take in total?" — but a span's total includes every child span nested
//! inside it, so the totals cannot be compared to find the hot code. This
//! module computes **exclusive** (self) time per span stack: the span's
//! wall time minus the wall time of its direct children, attributed to the
//! full `root;child;leaf` stack string. The result is written in the
//! collapsed-stack "folded" format that flamegraph tooling
//! (`flamegraph.pl`, inferno, speedscope) loads directly:
//!
//! ```text
//! bench.strategies;automl.search.run 184023
//! bench.strategies;automl.search.run;core.strategy.refit[Cross-ALE] 9120
//! ```
//!
//! (one line per distinct stack, value = self time in microseconds).
//!
//! Profiling rides on the existing span guards: [`crate::Span`] calls
//! [`on_span_open`]/[`on_span_close`] only when the profiler is active, so
//! with `--profile-out` unset the span hot path pays exactly one extra
//! relaxed atomic load and nothing else (the crate's off-is-free rule).
//! Stacks are tracked per thread; worker-thread spans form their own
//! roots, exactly like per-thread lanes in the Chrome trace. A
//! [`crate::tracetree::par_map`] fan-out charges the caller's time blocked
//! on its workers to a profile-only `caller;(wait)` stack, so waiting
//! never shows up as the caller's self time.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Whether self-time profiling is collecting. One relaxed load on the
/// span hot path.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Turn the profiler on or off (typically once, from CLI parsing, before
/// any spans open).
pub fn set_active(on: bool) {
    ACTIVE.store(on, Ordering::Release);
}

/// Whether the profiler is collecting (one relaxed atomic load).
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// One open span on this thread's profile stack.
struct Frame {
    name: String,
    /// Total wall time of already-closed direct children, in ns.
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Aggregated profile entry for one distinct span stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackStat {
    /// Exclusive (self) wall time, in nanoseconds.
    pub self_ns: u64,
    /// Number of times this exact stack closed.
    pub calls: u64,
}

fn stacks() -> &'static Mutex<HashMap<String, StackStat>> {
    static STACKS: OnceLock<Mutex<HashMap<String, StackStat>>> = OnceLock::new();
    STACKS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Push `name` onto the calling thread's profile stack. Called from span
/// open, only when [`active`].
pub(crate) fn on_span_open(name: &str) {
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            name: name.to_string(),
            child_ns: 0,
        })
    });
}

/// Pop the top frame, attribute `total_ns` minus its children's time to
/// the full stack string, and charge `total_ns` to the parent frame.
/// Called from span drop, only for spans that pushed a frame.
pub(crate) fn on_span_close(total_ns: u64) {
    let entry = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let frame = stack.pop()?;
        let self_ns = total_ns.saturating_sub(frame.child_ns);
        let mut key = String::new();
        for f in stack.iter() {
            key.push_str(&f.name);
            key.push(';');
        }
        key.push_str(&frame.name);
        if let Some(parent) = stack.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(total_ns);
        }
        Some((key, self_ns))
    });
    let Some((key, self_ns)) = entry else { return };
    let mut map = stacks().lock().unwrap_or_else(PoisonError::into_inner);
    let stat = map.entry(key).or_default();
    stat.self_ns = stat.self_ns.saturating_add(self_ns);
    stat.calls += 1;
}

/// Every aggregated `(stack, stat)` pair, sorted by stack string for
/// deterministic output.
pub fn entries() -> Vec<(String, StackStat)> {
    let map = stacks().lock().unwrap_or_else(PoisonError::into_inner);
    let mut out: Vec<(String, StackStat)> = map.iter().map(|(k, v)| (k.clone(), *v)).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Drop all aggregated stacks and this thread's open-frame stack (used
/// between test cases and when a bin runs several independent phases).
pub fn reset() {
    stacks()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    STACK.with(|s| s.borrow_mut().clear());
}

/// Render `entries` in collapsed-stack folded format: one
/// `stack;frames;joined <self_us>` line per stack, sorted, value in
/// microseconds. The format is pinned by a golden test.
pub fn render_folded(entries: &[(String, StackStat)]) -> String {
    let mut out = String::new();
    for (stack, stat) in entries {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&(stat.self_ns / 1_000).to_string());
        out.push('\n');
    }
    out
}

/// Write the current profile to `path` in folded format.
pub fn write_folded(path: &Path) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(render_folded(&entries()).as_bytes())?;
    file.flush()
}

/// Self time aggregated per span *name* (summed over every stack whose
/// leaf is that name), sorted descending — the "where did the time
/// actually go" view. Returns `(name, self_ns, calls)`.
pub fn top_self_time(entries: &[(String, StackStat)]) -> Vec<(String, u64, u64)> {
    let mut by_leaf: HashMap<&str, (u64, u64)> = HashMap::new();
    for (stack, stat) in entries {
        let leaf = stack.rsplit(';').next().unwrap_or(stack);
        let e = by_leaf.entry(leaf).or_default();
        e.0 = e.0.saturating_add(stat.self_ns);
        e.1 += stat.calls;
    }
    let mut out: Vec<(String, u64, u64)> = by_leaf
        .into_iter()
        .map(|(name, (self_ns, calls))| (name.to_string(), self_ns, calls))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Render the top-`n` self-time table shown in the run summary.
pub fn render_top_table(entries: &[(String, StackStat)], n: usize) -> String {
    let top = top_self_time(entries);
    if top.is_empty() {
        return String::new();
    }
    let grand: u64 = top.iter().map(|(_, s, _)| *s).sum();
    let mut out = String::from("self time (exclusive, from --profile-out):\n");
    out.push_str(&format!(
        "  {:<44} {:>7} {:>11} {:>6}\n",
        "span", "calls", "self", "%"
    ));
    for (name, self_ns, calls) in top.iter().take(n) {
        let pct = if grand == 0 {
            0.0
        } else {
            *self_ns as f64 * 100.0 / grand as f64
        };
        out.push_str(&format!(
            "  {:<44} {:>7} {:>11} {:>5.1}%\n",
            name,
            calls,
            fmt_ns(*self_ns),
            pct
        ));
    }
    out
}

/// `1.234s` / `56.7ms` / `89µs` — compact duration for the table.
fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{}µs", ns / 1_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_level, span, test_lock, TelemetryLevel};

    fn run_nested_program() {
        let _root = span("test.profile.root");
        std::thread::sleep(std::time::Duration::from_millis(2));
        for _ in 0..2 {
            let _mid = span("test.profile.mid");
            std::thread::sleep(std::time::Duration::from_millis(1));
            let _leaf = span("test.profile.leaf");
        }
    }

    #[test]
    fn nested_spans_fold_into_stacks_with_self_time() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        crate::global().reset();
        reset();
        set_active(true);
        run_nested_program();
        set_active(false);

        let entries = entries();
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            vec![
                "test.profile.root",
                "test.profile.root;test.profile.mid",
                "test.profile.root;test.profile.mid;test.profile.leaf",
            ]
        );
        let get = |k: &str| entries.iter().find(|(n, _)| n == k).unwrap().1;
        assert_eq!(get("test.profile.root").calls, 1);
        assert_eq!(get("test.profile.root;test.profile.mid").calls, 2);
        assert_eq!(
            get("test.profile.root;test.profile.mid;test.profile.leaf").calls,
            2
        );

        // Self times sum to the root span's total wall time: exclusive
        // accounting partitions the root, it never double-counts.
        let snap = crate::global().snapshot();
        let root_total = snap
            .spans
            .iter()
            .find(|s| s.name == "test.profile.root")
            .unwrap()
            .total_ns;
        let self_sum: u64 = entries.iter().map(|(_, s)| s.self_ns).sum();
        assert!(
            self_sum <= root_total,
            "self {self_sum} > root {root_total}"
        );
        // The root slept ~2ms outside its children.
        assert!(get("test.profile.root").self_ns >= 1_000_000);

        reset();
        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }

    #[test]
    fn par_map_charges_worker_time_to_a_wait_frame() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        crate::global().reset();
        reset();
        set_active(true);
        {
            let _parent = span("test.profile.fanout");
            let jobs: Vec<(u64, ())> = (0..4).map(|slot| (slot, ())).collect();
            let ctx = crate::TraceContext::current();
            crate::tracetree::par_map(ctx, 2, jobs, |_, ()| {
                let _job = span("test.profile.job");
                std::thread::sleep(std::time::Duration::from_millis(5));
            })
            .unwrap();
        }
        set_active(false);

        let entries = entries();
        let get = |k: &str| entries.iter().find(|(n, _)| n == k).map(|e| e.1);
        let parent = get("test.profile.fanout").unwrap();
        assert!(parent.self_ns < 1_000_000, "parent self {}", parent.self_ns);
        let wait = get("test.profile.fanout;(wait)").unwrap();
        assert_eq!(wait.calls, 1);
        assert!(wait.self_ns >= 10_000_000, "wait self {}", wait.self_ns);
        // Worker spans still root their own per-thread stacks.
        assert_eq!(get("test.profile.job").unwrap().calls, 4);

        reset();
        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }

    #[test]
    fn inactive_profiler_collects_nothing() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        crate::global().reset();
        reset();
        assert!(!active());
        run_nested_program();
        assert!(entries().is_empty());
        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }

    #[test]
    fn top_self_time_aggregates_by_leaf_and_sorts_desc() {
        let entries = vec![
            (
                "a".to_string(),
                StackStat {
                    self_ns: 5_000,
                    calls: 1,
                },
            ),
            (
                "a;b".to_string(),
                StackStat {
                    self_ns: 100_000,
                    calls: 3,
                },
            ),
            (
                "c;b".to_string(),
                StackStat {
                    self_ns: 50_000,
                    calls: 2,
                },
            ),
        ];
        let top = top_self_time(&entries);
        assert_eq!(top[0], ("b".to_string(), 150_000, 5));
        assert_eq!(top[1], ("a".to_string(), 5_000, 1));
        let table = render_top_table(&entries, 10);
        assert!(table.contains("self time"), "{table}");
        assert!(table.contains('b'), "{table}");
    }

    #[test]
    fn folded_rendering_is_stable() {
        let entries = vec![
            (
                "root".to_string(),
                StackStat {
                    self_ns: 1_500,
                    calls: 1,
                },
            ),
            (
                "root;leaf".to_string(),
                StackStat {
                    self_ns: 2_000_000,
                    calls: 4,
                },
            ),
        ];
        assert_eq!(render_folded(&entries), "root 1\nroot;leaf 2000\n");
    }
}
