//! Per-span *self-time* profiling with collapsed-stack (folded) output.
//!
//! The registry's span aggregates answer "how long did `automl.search.run`
//! take in total?" — but a span's total includes every child span nested
//! inside it, so the totals cannot be compared to find the hot code. This
//! module computes **exclusive** (self) time per span stack: the span's
//! wall time minus the time covered by its children, attributed to the
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
//! The profile is a view of the trace tree: [`fold`] reads the
//! [`crate::tracetree`] nodes, so it needs no hooks of its own. A stack
//! is the path of *logical* parents, so a [`crate::tracetree::par_map`]
//! job sits under the span that fanned it out, whichever thread ran it.
//! A span's self time is its total minus the union of its children's
//! intervals: a caller blocked on parallel workers is covered by their
//! spans, so waiting is never counted as work, and the stacks are the
//! same at any worker count.

use crate::tracetree::{Node, SpanId};
use std::collections::{BTreeMap, HashMap};

/// Aggregated profile entry for one distinct span stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackStat {
    /// Exclusive (self) wall time, in nanoseconds.
    pub self_ns: u64,
    /// Number of times this exact stack closed.
    pub calls: u64,
}

/// Fold trace-tree `nodes` into `(stack, stat)` pairs sorted by stack
/// string. A node whose parent is not among `nodes` starts its own stack.
pub fn fold(nodes: &[Node]) -> Vec<(String, StackStat)> {
    let index: HashMap<SpanId, usize> = nodes.iter().enumerate().map(|(i, n)| (n.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nodes.len()];
    for n in nodes {
        if let Some(&p) = index.get(&n.parent) {
            children[p].push((n.start_ns, n.end_ns()));
        }
    }
    let mut stacks: Vec<Option<String>> = vec![None; nodes.len()];
    let mut out: BTreeMap<String, StackStat> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        let covered = covered_ns(&mut children[i], n.start_ns, n.end_ns());
        let stat = out
            .entry(stack_of(i, nodes, &index, &mut stacks))
            .or_default();
        stat.self_ns = stat
            .self_ns
            .saturating_add(n.total_ns.saturating_sub(covered));
        stat.calls += 1;
    }
    out.into_iter().collect()
}

/// `root;…;name` for `nodes[i]`, memoized per node.
fn stack_of(
    i: usize,
    nodes: &[Node],
    index: &HashMap<SpanId, usize>,
    stacks: &mut [Option<String>],
) -> String {
    if let Some(stack) = &stacks[i] {
        return stack.clone();
    }
    let n = &nodes[i];
    let stack = match index.get(&n.parent) {
        Some(&p) => format!("{};{}", stack_of(p, nodes, index, stacks), n.name),
        None => n.name.clone(),
    };
    stacks[i] = Some(stack.clone());
    stack
}

/// Length of the union of `intervals` (`[start, end)` in ns), clipped to
/// `[lo, hi)`. Sorts `intervals` in place.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
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

/// `1.234s` / `56.7ms` / `89µs` — compact duration for the profile and
/// critical-path tables.
pub(crate) fn fmt_ns(ns: u64) -> String {
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
    use crate::{set_level, span, test_lock, tracetree, TelemetryLevel};

    /// Run `program` with the trace-tree collector armed and fold the
    /// nodes it left.
    fn profile_of(program: impl FnOnce()) -> Vec<(String, StackStat)> {
        tracetree::reset();
        tracetree::set_active(true);
        program();
        tracetree::set_active(false);
        let entries = fold(&tracetree::entries());
        tracetree::reset();
        entries
    }

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
        let entries = profile_of(run_nested_program);

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

        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }

    #[test]
    fn par_map_jobs_fold_under_their_parent_at_any_thread_count() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        let run = |threads: usize| {
            profile_of(|| {
                let _parent = span("test.profile.fanout");
                let jobs: Vec<(u64, ())> = (0..4).map(|slot| (slot, ())).collect();
                let ctx = crate::TraceContext::current();
                crate::tracetree::par_map(ctx, threads, jobs, |_, ()| {
                    let _job = span("test.profile.job");
                    std::thread::sleep(std::time::Duration::from_millis(5));
                })
                .unwrap();
            })
        };
        let shape = |entries: &[(String, StackStat)]| -> Vec<(String, u64)> {
            entries.iter().map(|(k, s)| (k.clone(), s.calls)).collect()
        };
        let one = run(1);
        assert_eq!(
            shape(&one),
            vec![
                ("test.profile.fanout".to_string(), 1),
                ("test.profile.fanout;test.profile.job".to_string(), 4),
            ]
        );
        for threads in [1, 2, 4] {
            let entries = run(threads);
            assert_eq!(shape(&entries), shape(&one), "threads = {threads}");
        }
        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }

    #[test]
    fn parent_blocked_on_covering_jobs_has_no_self_time() {
        // A fan-out parent over [0, 100) and four jobs on two lanes. The
        // time it waits on them is covered by their spans; a gap in the
        // coverage is the parent's own time, to the nanosecond.
        let node = |id, parent, name: &str, start_ns, end_ns: u64| Node {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            total_ns: end_ns - start_ns,
            parallel: parent != 0,
        };
        let parent = node(1, 0, "fanout", 0, 100);
        let self_of = |jobs: &[(u64, u64)]| {
            let mut nodes = vec![parent.clone()];
            for (k, &(start, end)) in jobs.iter().enumerate() {
                nodes.push(node(2 + k as u64, 1, "job", start, end));
            }
            let entries = fold(&nodes);
            assert_eq!(entries[0].0, "fanout");
            assert_eq!(entries[1].0, "fanout;job");
            assert_eq!(entries[1].1.calls, 4);
            entries[0].1.self_ns
        };
        // Lane one runs [0, 30) then [30, 100); lane two [0, 60), [60, 80).
        assert_eq!(self_of(&[(0, 30), (0, 60), (30, 100), (60, 80)]), 0);
        // Lane one runs [0, 30), [45, 100); lane two [0, 20), [20, 40):
        // nothing covers [40, 45).
        assert_eq!(self_of(&[(0, 30), (0, 20), (45, 100), (20, 40)]), 5);
    }

    #[test]
    fn covered_ns_unions_overlapping_nested_and_empty_intervals() {
        // Overlapping: [0,10) ∪ [5,15) = 15, in any input order.
        assert_eq!(covered_ns(&mut [(5, 15), (0, 10)], 0, 100), 15);
        // Nested: the inner interval adds nothing.
        assert_eq!(covered_ns(&mut [(0, 20), (5, 10)], 0, 100), 20);
        // Zero-length intervals cover nothing, alone or among others.
        assert_eq!(covered_ns(&mut [(7, 7)], 0, 100), 0);
        assert_eq!(covered_ns(&mut [(0, 4), (4, 4), (6, 9)], 0, 100), 7);
        // Disjoint intervals add up; the union is clipped to [lo, hi).
        assert_eq!(covered_ns(&mut [(0, 10), (20, 30)], 5, 25), 10);
        assert_eq!(covered_ns(&mut [], 0, 100), 0);
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
