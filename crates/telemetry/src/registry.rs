//! Thread-safe aggregation of spans, counters, and histograms.
//!
//! The registry is the single sink for all instrumentation in the process.
//! Worker threads (the [`crate::tracetree::par_map`] workers of the AutoML
//! search and the netsim labeler) all record into the same maps; entries
//! are `Arc`-shared atomics so the map lock is only taken to *find or
//! create* an entry, never to update one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Aggregated timing statistics for one span name.
///
/// All fields are atomics so concurrent spans with the same name (e.g.
/// `automl.search.train_one` across worker threads) can update without
/// locking. Times are in nanoseconds.
#[derive(Debug, Default)]
pub struct SpanStat {
    /// Number of times a span with this name closed.
    pub calls: AtomicU64,
    /// Total wall time across all calls, in nanoseconds.
    pub total_ns: AtomicU64,
    /// Longest single call, in nanoseconds.
    pub max_ns: AtomicU64,
    /// Shortest single call, in nanoseconds (`u64::MAX` until first call).
    pub min_ns: AtomicU64,
}

impl SpanStat {
    fn new() -> Self {
        SpanStat {
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
        }
    }

    /// Fold one closed span of `ns` nanoseconds into the aggregate.
    pub fn record(&self, ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
    }
}

/// Number of log2 buckets in a [`Histogram`]: one per possible bit length
/// of a `u64` (0 for zero, 1..=64 otherwise).
pub const HIST_BUCKETS: usize = 65;

/// Fixed-shape histogram: count/sum/min/max plus log2 buckets.
///
/// Values are unit-agnostic `u64`s; by convention the pipeline records
/// microseconds for durations (`automl.fit_us[...]`) and raw counts
/// otherwise. 65 power-of-two buckets (one per bit length) cover the full
/// `u64` range, which is coarse but lock-free and good enough for the
/// quantile estimates shown in the run summary and `/metrics`.
#[derive(Debug)]
pub struct Histogram {
    /// Number of recorded observations.
    pub count: AtomicU64,
    /// Sum of all observations.
    pub sum: AtomicU64,
    /// Smallest observation (`u64::MAX` until first record).
    pub min: AtomicU64,
    /// Largest observation.
    pub max: AtomicU64,
    /// `buckets[i]` counts observations with `bit_length(value) == i`,
    /// i.e. values in `[2^(i-1), 2^i)`; bucket 0 counts zeros and bucket
    /// 64 covers `[2^63, u64::MAX]`.
    pub buckets: [AtomicU64; HIST_BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        let bucket = (64 - value.leading_zeros()) as usize; // bit length; 0 for value == 0
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }
}

/// Point-in-time copy of one span's aggregate, for manifests and tables.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// Span name (`crate.component.action`, optionally `[label]`-suffixed).
    pub name: String,
    /// Number of closed calls.
    pub calls: u64,
    /// Total wall time across calls, in nanoseconds.
    pub total_ns: u64,
    /// Longest single call, in nanoseconds.
    pub max_ns: u64,
    /// Shortest single call, in nanoseconds (0 when no calls).
    pub min_ns: u64,
}

impl SpanSnapshot {
    /// Total wall time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Mean wall time per call in nanoseconds (0 when no calls).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.calls).unwrap_or(0)
    }
}

/// Point-in-time copy of one histogram, with quantile estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    /// Histogram name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Approximate median (upper edge of the bucket holding it).
    pub p50: u64,
    /// Approximate 95th percentile (upper edge of its bucket).
    pub p95: u64,
    /// Raw log2 bucket counts (`buckets[i]` = observations with bit length
    /// `i`); empty when the snapshot was built without bucket data.
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Estimate the q-quantile (`0.0 < q <= 1.0`) from the log2 buckets:
    /// the upper edge of the bucket holding the nearest-rank observation.
    pub fn quantile(&self, q: f64) -> u64 {
        bucket_quantile(&self.buckets, self.count, q)
    }
}

/// Point-in-time copy of the whole registry. Entries are sorted by name so
/// snapshots (and the manifests built from them) are deterministic.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All span aggregates, sorted by name.
    pub spans: Vec<SpanSnapshot>,
    /// All counters as `(name, value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// All gauges as `(name, value)`, sorted by name. Gauges are
    /// last-write-wins (e.g. `proc.rss_bytes` from the resource sampler).
    pub gauges: Vec<(String, u64)>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistSnapshot>,
}

/// The sink all spans/counters/histograms record into.
///
/// Use [`global()`] in instrumentation; constructing a private `Registry`
/// is for tests.
#[derive(Debug, Default)]
pub struct Registry {
    spans: RwLock<HashMap<String, Arc<SpanStat>>>,
    counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<HashMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The shared `SpanStat` for `name`, creating it on first use.
    pub fn span_stat(&self, name: &str) -> Arc<SpanStat> {
        if let Some(stat) = self.spans.read().unwrap().get(name) {
            return Arc::clone(stat);
        }
        let mut map = self.spans.write().unwrap();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(SpanStat::new())),
        )
    }

    /// Add `n` to the counter `name`, creating it on first use.
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Some(c) = self.counters.read().unwrap().get(name) {
            c.fetch_add(n, Ordering::Relaxed);
            return;
        }
        let mut map = self.counters.write().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Set the gauge `name` to `value` (last write wins), creating it on
    /// first use.
    pub fn gauge_set(&self, name: &str, value: u64) {
        if let Some(g) = self.gauges.read().unwrap().get(name) {
            g.store(value, Ordering::Relaxed);
            return;
        }
        let mut map = self.gauges.write().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .store(value, Ordering::Relaxed);
    }

    /// Record `value` into the histogram `name`, creating it on first use.
    pub fn histogram_record(&self, name: &str, value: u64) {
        if let Some(h) = self.histograms.read().unwrap().get(name) {
            h.record(value);
            return;
        }
        let mut map = self.histograms.write().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .record(value);
    }

    /// Copy out every metric, sorted by name for deterministic output.
    pub fn snapshot(&self) -> Snapshot {
        let mut spans: Vec<SpanSnapshot> = self
            .spans
            .read()
            .unwrap()
            .iter()
            .map(|(name, s)| {
                let calls = s.calls.load(Ordering::Relaxed);
                let min = s.min_ns.load(Ordering::Relaxed);
                SpanSnapshot {
                    name: name.clone(),
                    calls,
                    total_ns: s.total_ns.load(Ordering::Relaxed),
                    max_ns: s.max_ns.load(Ordering::Relaxed),
                    min_ns: if min == u64::MAX { 0 } else { min },
                }
            })
            .collect();
        spans.sort_by(|a, b| a.name.cmp(&b.name));

        let mut counters: Vec<(String, u64)> = self
            .counters
            .read()
            .unwrap()
            .iter()
            .map(|(name, c)| (name.clone(), c.load(Ordering::Relaxed)))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));

        let mut gauges: Vec<(String, u64)> = self
            .gauges
            .read()
            .unwrap()
            .iter()
            .map(|(name, g)| (name.clone(), g.load(Ordering::Relaxed)))
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));

        let mut histograms: Vec<HistSnapshot> = self
            .histograms
            .read()
            .unwrap()
            .iter()
            .map(|(name, h)| snapshot_histogram(name, h))
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));

        Snapshot {
            spans,
            counters,
            gauges,
            histograms,
        }
    }

    /// Drop every recorded metric (used between test cases and by bench
    /// binaries that run several independent phases).
    pub fn reset(&self) {
        self.spans.write().unwrap().clear();
        self.counters.write().unwrap().clear();
        self.gauges.write().unwrap().clear();
        self.histograms.write().unwrap().clear();
    }
}

fn snapshot_histogram(name: &str, h: &Histogram) -> HistSnapshot {
    let count = h.count.load(Ordering::Relaxed);
    let min = h.min.load(Ordering::Relaxed);
    let buckets: Vec<u64> = h
        .buckets
        .iter()
        .map(|b| b.load(Ordering::Relaxed))
        .collect();
    HistSnapshot {
        name: name.to_string(),
        count,
        sum: h.sum.load(Ordering::Relaxed),
        min: if min == u64::MAX { 0 } else { min },
        max: h.max.load(Ordering::Relaxed),
        p50: bucket_quantile(&buckets, count, 0.50),
        p95: bucket_quantile(&buckets, count, 0.95),
        buckets,
    }
}

/// Inclusive upper edge of log2 bucket `i` (bit length `i`): 0 for bucket
/// 0, `2^i - 1` below the top, `u64::MAX` for bucket 64 — the shift
/// `1u64 << 64` would overflow, and the bucket genuinely extends to the
/// end of the `u64` range.
pub fn bucket_upper_edge(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

/// Upper edge of the bucket containing the q-quantile observation
/// (nearest-rank: rank `max(1, ceil(count * q))`).
fn bucket_quantile(buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64 * q).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= rank {
            return bucket_upper_edge(i);
        }
    }
    u64::MAX
}

/// The process-wide registry that [`crate::span!`], [`crate::counter_add`],
/// and [`crate::histogram_record`] feed.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_aggregate_across_threads() {
        let reg = Registry::new();
        thread::scope(|s| {
            for t in 0..8 {
                let reg = &reg;
                s.spawn(move || {
                    for _ in 0..1000 {
                        reg.counter_add("shared", 1);
                        reg.counter_add(&format!("per_thread[{t}]"), 2);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        assert_eq!(get("shared"), 8000);
        for t in 0..8 {
            assert_eq!(get(&format!("per_thread[{t}]")), 2000);
        }
    }

    #[test]
    fn span_stats_aggregate_across_threads() {
        let reg = Registry::new();
        thread::scope(|s| {
            for _ in 0..4 {
                let reg = &reg;
                s.spawn(move || {
                    let stat = reg.span_stat("work");
                    for i in 1..=100u64 {
                        stat.record(i * 1000);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        let span = &snap.spans[0];
        assert_eq!(span.name, "work");
        assert_eq!(span.calls, 400);
        assert_eq!(span.total_ns, 4 * 1000 * (100 * 101 / 2));
        assert_eq!(span.min_ns, 1000);
        assert_eq!(span.max_ns, 100_000);
        assert_eq!(span.mean_ns(), span.total_ns / 400);
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded() {
        let reg = Registry::new();
        for v in [0u64, 1, 2, 3, 10, 100, 1000, 5000, 100_000] {
            reg.histogram_record("h", v);
        }
        let snap = reg.snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.count, 9);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 100_000);
        assert!(h.p50 <= h.p95);
        // p50 of 9 values is the 5th (value 10) → bucket upper edge ≥ 10.
        assert!(h.p50 >= 10, "p50 = {}", h.p50);
        assert!(h.p95 >= 100_000, "p95 = {}", h.p95);
    }

    #[test]
    fn snapshot_is_sorted_and_reset_clears() {
        let reg = Registry::new();
        reg.counter_add("b", 1);
        reg.counter_add("a", 1);
        reg.span_stat("z").record(5);
        reg.span_stat("y").record(5);
        reg.gauge_set("g2", 7);
        reg.gauge_set("g1", 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].0, "a");
        assert_eq!(snap.counters[1].0, "b");
        assert_eq!(snap.spans[0].name, "y");
        assert_eq!(snap.spans[1].name, "z");
        assert_eq!(snap.gauges, vec![("g1".into(), 3), ("g2".into(), 7)]);
        reg.reset();
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty() && snap.spans.is_empty() && snap.gauges.is_empty());
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let reg = Registry::new();
        reg.gauge_set("proc.rss_bytes", 100);
        reg.gauge_set("proc.rss_bytes", 42);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges, vec![("proc.rss_bytes".into(), 42)]);
    }

    #[test]
    fn top_bucket_quantile_covers_values_above_2_pow_63() {
        // Regression: values with bit length 64 land in bucket 64; the
        // estimated quantile must not fall below the value's bucket lower
        // bound (2^63). With 64 buckets and a clamp this came back as
        // 2^63 - 1.
        let reg = Registry::new();
        for _ in 0..4 {
            reg.histogram_record("huge", u64::MAX);
        }
        reg.histogram_record("huge", 1u64 << 63);
        let snap = reg.snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.p50, u64::MAX);
        assert_eq!(h.p95, u64::MAX);
        assert_eq!(h.quantile(0.99), u64::MAX);
        assert!(h.p50 >= 1u64 << 63);
    }

    #[test]
    fn bucket_upper_edges_are_monotone() {
        let mut prev = 0u64;
        for i in 1..HIST_BUCKETS {
            let edge = bucket_upper_edge(i);
            assert!(edge > prev, "bucket {i}: {edge} <= {prev}");
            prev = edge;
        }
        assert_eq!(bucket_upper_edge(64), u64::MAX);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use aml_propcheck::prelude::*;

    /// Log2 bucket bounds of `value`: `[2^(bl-1), upper_edge(bl)]` where
    /// `bl` is the bit length. This is the ground truth the histogram's
    /// bucketing is supposed to honor.
    fn true_bucket_bounds(value: u64) -> (u64, u64) {
        let bl = (64 - value.leading_zeros()) as usize;
        let lo = if bl == 0 { 0 } else { 1u64 << (bl - 1) };
        (lo, bucket_upper_edge(bl))
    }

    /// Exact nearest-rank quantile of `values` (must be non-empty), using
    /// the same rank rule as `bucket_quantile`.
    fn exact_quantile(values: &mut [u64], q: f64) -> u64 {
        values.sort_unstable();
        let rank = ((values.len() as f64 * q).ceil() as usize).max(1);
        values[rank - 1]
    }

    proptest! {
        /// For any set of observations spanning the full u64 magnitude
        /// range, the estimated p50/p95/p99 stay within the true
        /// quantile value's log2 bucket bounds.
        #[test]
        fn prop_quantile_estimates_stay_in_true_bucket(
            raw in aml_propcheck::collection::vec((0u64..65, 0u64..u64::MAX), 1..48)
        ) {
            // Shift mantissas down so values cover every bucket,
            // including bit length 64 (shift 0) and zero (shift 64).
            let values: Vec<u64> = raw
                .iter()
                .map(|&(shift, mantissa)| {
                    if shift >= 64 { 0 } else { mantissa >> shift }
                })
                .collect();
            let reg = Registry::new();
            for &v in &values {
                reg.histogram_record("h", v);
            }
            let snap = reg.snapshot();
            let h = &snap.histograms[0];
            for q in [0.50, 0.95, 0.99] {
                let mut sorted = values.clone();
                let truth = exact_quantile(&mut sorted, q);
                let (lo, hi) = true_bucket_bounds(truth);
                let est = h.quantile(q);
                prop_assert!(
                    est >= lo && est <= hi,
                    "q={} est={} outside [{}, {}] (truth={})",
                    q, est, lo, hi, truth
                );
            }
        }

        /// The estimate is always >= the true quantile (it reports the
        /// bucket's upper edge) and never exceeds the observed max's
        /// bucket upper edge.
        #[test]
        fn prop_quantile_estimate_is_bucket_upper_edge(
            raw in aml_propcheck::collection::vec((0u64..65, 0u64..u64::MAX), 1..48)
        ) {
            let values: Vec<u64> = raw
                .iter()
                .map(|&(shift, mantissa)| {
                    if shift >= 64 { 0 } else { mantissa >> shift }
                })
                .collect();
            let reg = Registry::new();
            for &v in &values {
                reg.histogram_record("h", v);
            }
            let snap = reg.snapshot();
            let h = &snap.histograms[0];
            let max = *values.iter().max().unwrap();
            let (_, max_hi) = true_bucket_bounds(max);
            for q in [0.50, 0.95, 0.99] {
                let mut sorted = values.clone();
                let truth = exact_quantile(&mut sorted, q);
                let est = h.quantile(q);
                prop_assert!(est >= truth, "q={} est={} < truth={}", q, est, truth);
                prop_assert!(est <= max_hi, "q={} est={} > max edge {}", q, est, max_hi);
            }
        }
    }
}
