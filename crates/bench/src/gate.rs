//! Regression gating: compare two [`BenchReport`]s and decide pass/fail.
//!
//! The gate flattens each report to named metrics — `wall_time_s`,
//! `top_span_total_s`, `span:<name>` (total seconds per span), and
//! `alloc.bytes` — and flags a metric as regressed when the new value
//! exceeds the old by more than the relative tolerance **and** the
//! absolute floor (so microsecond-scale spans can't fail the gate on
//! scheduler noise). A zero/absent baseline can't anchor a relative
//! check, so it regresses only when the new value exceeds the floor
//! outright.

//!
//! Besides the frozen-file comparison (`perfgate --compare`), the gate
//! can judge a run against the **rolling median** of the last N
//! [`HistoryRecord`]s for its workload (`perfgate --against-history N`):
//! [`parse_history`] reads the append-only JSONL store,
//! [`history_baseline`] distills the trailing window into per-metric
//! medians, and [`gate_against_history`] applies the same
//! tolerance/abs-floor rules to the medians. An empty history cannot
//! anchor any check, so the caller treats it as a pass with a warning.

use crate::report::BenchReport;
use aml_telemetry::json::{ToJson, Value};
use aml_telemetry::HistoryRecord;
use std::fmt::Write as _;

/// Gate parameters.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Allowed relative growth, percent (`10.0` = +10%).
    pub tolerance_pct: f64,
    /// Absolute growth below which a timing change never regresses,
    /// seconds. Applied as bytes for `alloc.bytes`.
    pub abs_floor_s: f64,
    /// Multiplier applied to the new report's timing metrics before
    /// comparing — a test hook to inject synthetic slowdowns
    /// (`--scale 2` must trip the gate).
    pub scale_new: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            tolerance_pct: 10.0,
            abs_floor_s: 0.005,
            scale_new: 1.0,
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDiff {
    /// Metric id (`wall_time_s`, `span:<name>`, `alloc.bytes`, …).
    pub metric: String,
    /// Baseline value.
    pub old: f64,
    /// New value (after [`GateConfig::scale_new`]).
    pub new: f64,
    /// Relative change in percent; `None` when the baseline is zero.
    pub delta_pct: Option<f64>,
    /// Whether this metric trips the gate.
    pub regressed: bool,
}

/// The gate's verdict: every compared metric plus the regression count.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// All compared metrics, report order.
    pub diffs: Vec<MetricDiff>,
    /// Metrics that were only present on one side (not compared).
    pub unmatched: Vec<String>,
}

impl GateOutcome {
    /// Regressed metric count.
    pub fn regressions(&self) -> usize {
        self.diffs.iter().filter(|d| d.regressed).count()
    }

    /// Whether the gate passes (no regressions).
    pub fn passed(&self) -> bool {
        self.regressions() == 0
    }

    /// Human-readable diff table, regressions flagged.
    pub fn render_table(&self, cfg: &GateConfig) -> String {
        let name_w = self
            .diffs
            .iter()
            .map(|d| d.metric.len())
            .max()
            .unwrap_or(6)
            .max(6);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>12}  {:>12}  {:>8}",
            "metric", "old", "new", "delta"
        );
        for d in &self.diffs {
            let delta = match d.delta_pct {
                Some(pct) => format!("{pct:+.1}%"),
                None => "n/a".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>12.4}  {:>12.4}  {:>8}{}",
                d.metric,
                d.old,
                d.new,
                delta,
                if d.regressed { "  REGRESSION" } else { "" },
            );
        }
        for m in &self.unmatched {
            let _ = writeln!(out, "{m:<name_w$}  (only in one report; not compared)");
        }
        let _ = writeln!(
            out,
            "{} metric(s) compared, {} regression(s) at tolerance {:.0}% / floor {:.0}ms",
            self.diffs.len(),
            self.regressions(),
            cfg.tolerance_pct,
            cfg.abs_floor_s * 1e3,
        );
        out
    }

    /// Machine-readable verdict for `perfgate --compare --json`: the gate
    /// parameters, overall pass/fail, and every compared metric. Schema:
    /// `{workload, tolerance_pct, abs_floor_ms, scale, pass, regressions,
    /// metrics: [{metric, old, new, delta_pct|null, regressed}],
    /// unmatched: [..]}`.
    pub fn render_json(&self, workload: &str, cfg: &GateConfig) -> String {
        self.render_json_with(workload, cfg, Vec::new())
    }

    /// [`render_json`](Self::render_json) with caller-supplied top-level
    /// fields appended at the end of the object — `perfgate --crit` uses
    /// this to embed the critical-path summary next to the verdict.
    pub fn render_json_with(
        &self,
        workload: &str,
        cfg: &GateConfig,
        extra: Vec<(String, Value)>,
    ) -> String {
        let mut fields = self.json_fields(workload, cfg);
        fields.extend(extra);
        Value::Obj(fields).render()
    }

    /// Machine-readable verdict for `perfgate --against-history --json`:
    /// the `--compare` schema plus `history_requested` (the N asked for)
    /// and `history_n` (records actually found; 0 = no baseline, the
    /// gate vacuously passes).
    pub fn render_history_json(
        &self,
        workload: &str,
        cfg: &GateConfig,
        requested: usize,
        n_used: usize,
    ) -> String {
        self.render_history_json_with(workload, cfg, requested, n_used, Vec::new())
    }

    /// [`render_history_json`](Self::render_history_json) with extra
    /// top-level fields appended, mirroring
    /// [`render_json_with`](Self::render_json_with).
    pub fn render_history_json_with(
        &self,
        workload: &str,
        cfg: &GateConfig,
        requested: usize,
        n_used: usize,
        extra: Vec<(String, Value)>,
    ) -> String {
        let mut fields = self.json_fields(workload, cfg);
        fields.insert(1, ("history_n".into(), n_used.to_json()));
        fields.insert(1, ("history_requested".into(), requested.to_json()));
        fields.extend(extra);
        Value::Obj(fields).render()
    }

    fn json_fields(&self, workload: &str, cfg: &GateConfig) -> Vec<(String, Value)> {
        let metrics: Vec<Value> = self
            .diffs
            .iter()
            .map(|d| {
                Value::Obj(vec![
                    ("metric".into(), d.metric.to_json()),
                    ("old".into(), d.old.to_json()),
                    ("new".into(), d.new.to_json()),
                    (
                        "delta_pct".into(),
                        d.delta_pct.map_or(Value::Null, |p| p.to_json()),
                    ),
                    ("regressed".into(), d.regressed.to_json()),
                ])
            })
            .collect();
        vec![
            ("workload".into(), workload.to_json()),
            ("tolerance_pct".into(), cfg.tolerance_pct.to_json()),
            ("abs_floor_ms".into(), (cfg.abs_floor_s * 1e3).to_json()),
            ("scale".into(), cfg.scale_new.to_json()),
            ("pass".into(), self.passed().to_json()),
            ("regressions".into(), self.regressions().to_json()),
            ("metrics".into(), Value::Arr(metrics)),
            ("unmatched".into(), self.unmatched.to_json()),
        ]
    }
}

/// Compare `new` against the `old` baseline under `cfg`.
pub fn compare(old: &BenchReport, new: &BenchReport, cfg: &GateConfig) -> GateOutcome {
    let mut diffs = Vec::new();
    let mut unmatched = Vec::new();

    let mut timing = |metric: &str, old_v: f64, new_v: f64| {
        diffs.push(diff_metric(
            metric,
            old_v,
            new_v * cfg.scale_new,
            cfg,
            cfg.abs_floor_s,
        ));
    };
    timing("wall_time_s", old.wall_time_s, new.wall_time_s);
    timing(
        "top_span_total_s",
        old.top_span_total_s,
        new.top_span_total_s,
    );
    for s in &old.spans {
        match new.spans.iter().find(|n| n.name == s.name) {
            Some(n) => timing(&format!("span:{}", s.name), s.total_s, n.total_s),
            None => unmatched.push(format!("span:{}", s.name)),
        }
    }
    for n in &new.spans {
        if !old.spans.iter().any(|s| s.name == n.name) {
            unmatched.push(format!("span:{}", n.name));
        }
    }

    // Allocation totals are compared unscaled: --scale injects a timing
    // slowdown, not a memory one. The floor becomes 1 MiB of growth.
    if let (Some(a), Some(b)) = (&old.alloc, &new.alloc) {
        diffs.push(diff_metric(
            "alloc.bytes",
            a.bytes as f64,
            b.bytes as f64,
            cfg,
            (1u64 << 20) as f64,
        ));
        diffs.push(diff_metric(
            "alloc.peak_bytes",
            a.peak_bytes as f64,
            b.peak_bytes as f64,
            cfg,
            (1u64 << 20) as f64,
        ));
    }

    GateOutcome { diffs, unmatched }
}

/// Relative delta and verdict for one metric; `abs_floor` is in the
/// metric's own unit.
fn diff_metric(metric: &str, old: f64, new: f64, cfg: &GateConfig, abs_floor: f64) -> MetricDiff {
    let (delta_pct, regressed) = if old <= 0.0 {
        // Zero baseline: no relative change is defined. Regress only if
        // the new value is itself above the absolute floor.
        (None, new > abs_floor)
    } else {
        let pct = (new - old) / old * 100.0;
        (
            Some(pct),
            pct > cfg.tolerance_pct && (new - old) > abs_floor,
        )
    };
    MetricDiff {
        metric: metric.to_string(),
        old,
        new,
        delta_pct,
        regressed,
    }
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// element with at least `q·n` of the sample at or below it (`q` in
/// `[0, 1]`; `q = 0` gives the minimum). Empty input returns 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Parse the history JSONL store into records. Lines that are not valid
/// JSON, not `"type":"history"`, or carry an unknown `schema_version`
/// are skipped (the store is append-only and written by multiple
/// binaries; a torn trailing line or a future version must not poison
/// the whole window).
pub fn parse_history(text: &str) -> Vec<HistoryRecord> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .filter_map(|line| HistoryRecord::from_json_line(line.trim()).ok())
        .collect()
}

/// The rolling-median baseline distilled from the trailing window of
/// one workload's history.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryBaseline {
    /// Records actually in the window (≤ the N requested).
    pub n_used: usize,
    /// Median wall time, seconds.
    pub wall_time_s: f64,
    /// Median top-span total, seconds.
    pub top_span_total_s: f64,
    /// Median peak RSS, bytes.
    pub peak_rss_bytes: f64,
    /// Median peak live heap, bytes.
    pub alloc_peak_bytes: f64,
    /// Median final-round accuracy over window records that carry one;
    /// `None` when no record in the window does.
    pub final_acc: Option<f64>,
    /// Median Expected Calibration Error over window records that carry
    /// one; `None` when no record in the window does.
    pub ece: Option<f64>,
}

/// Distill the last `n` records for `workload` into per-metric medians
/// (file order = append order = chronological). `None` when the history
/// has no records for the workload or `n == 0` — the caller decides how
/// a missing baseline is judged (perfgate: pass with a warning).
pub fn history_baseline(
    records: &[HistoryRecord],
    workload: &str,
    n: usize,
) -> Option<HistoryBaseline> {
    let matching: Vec<&HistoryRecord> = records.iter().filter(|r| r.workload == workload).collect();
    if matching.is_empty() || n == 0 {
        return None;
    }
    let tail = &matching[matching.len().saturating_sub(n)..];
    let median = |field: &dyn Fn(&HistoryRecord) -> f64| {
        let mut xs: Vec<f64> = tail.iter().map(|r| field(r)).collect();
        xs.sort_by(f64::total_cmp);
        percentile(&xs, 0.5)
    };
    // Quality medians span only the window records that measured them
    // (runs without feedback rounds, or written before the quality
    // plane, contribute nothing rather than dragging the median to 0).
    let opt_median = |field: &dyn Fn(&HistoryRecord) -> Option<f64>| {
        let mut xs: Vec<f64> = tail.iter().filter_map(|r| field(r)).collect();
        if xs.is_empty() {
            return None;
        }
        xs.sort_by(f64::total_cmp);
        Some(percentile(&xs, 0.5))
    };
    Some(HistoryBaseline {
        n_used: tail.len(),
        wall_time_s: median(&|r| r.wall_time_s),
        top_span_total_s: median(&|r| r.top_span_total_s),
        peak_rss_bytes: median(&|r| r.peak_rss_bytes as f64),
        alloc_peak_bytes: median(&|r| r.alloc_peak_bytes as f64),
        final_acc: opt_median(&|r| r.final_acc),
        ece: opt_median(&|r| r.ece),
    })
}

/// Gate a fresh run against a rolling-median baseline: timing metrics
/// use the usual tolerance + absolute floor (and honor
/// [`GateConfig::scale_new`]); memory metrics compare unscaled with a
/// 1 MiB floor and are skipped when neither side ever observed them
/// (RSS off Linux, heap without `alloc-track`).
pub fn gate_against_history(
    baseline: &HistoryBaseline,
    new: &HistoryRecord,
    cfg: &GateConfig,
) -> GateOutcome {
    let mut diffs = vec![
        diff_metric(
            "wall_time_s",
            baseline.wall_time_s,
            new.wall_time_s * cfg.scale_new,
            cfg,
            cfg.abs_floor_s,
        ),
        diff_metric(
            "top_span_total_s",
            baseline.top_span_total_s,
            new.top_span_total_s * cfg.scale_new,
            cfg,
            cfg.abs_floor_s,
        ),
    ];
    let mem_floor = (1u64 << 20) as f64;
    if baseline.peak_rss_bytes > 0.0 || new.peak_rss_bytes > 0 {
        diffs.push(diff_metric(
            "peak_rss_bytes",
            baseline.peak_rss_bytes,
            new.peak_rss_bytes as f64,
            cfg,
            mem_floor,
        ));
    }
    if baseline.alloc_peak_bytes > 0.0 || new.alloc_peak_bytes > 0 {
        diffs.push(diff_metric(
            "alloc.peak_bytes",
            baseline.alloc_peak_bytes,
            new.alloc_peak_bytes as f64,
            cfg,
            mem_floor,
        ));
    }
    GateOutcome {
        diffs,
        unmatched: Vec::new(),
    }
}

/// Accuracy and calibration move on a 0–1 scale; a swing below half a
/// point of accuracy (or ECE) is noise, not signal.
pub const QUALITY_ABS_FLOOR: f64 = 0.005;

/// Gate a fresh run's **model quality** against the rolling-median
/// baseline (`perfgate --gate-quality`): `final_acc` regresses when the
/// new run scores *lower* than the history median (direction inverted
/// vs the timing gate — bigger is better), `ece` when it scores
/// *higher* (calibration error — smaller is better). Both use
/// [`GateConfig::tolerance_pct`] plus the [`QUALITY_ABS_FLOOR`];
/// `scale_new` does not apply (it injects a *timing* slowdown). Metrics
/// the history or the new run never measured are skipped, so the gate
/// passes vacuously on an empty or quality-free history.
pub fn gate_quality_against_history(
    baseline: &HistoryBaseline,
    new: &HistoryRecord,
    cfg: &GateConfig,
) -> GateOutcome {
    let mut diffs = Vec::new();
    if let (Some(old), Some(new_acc)) = (baseline.final_acc, new.final_acc) {
        // Inverted: regression = the new accuracy DROPPING past both
        // the relative tolerance and the absolute floor.
        let (delta_pct, regressed) = if old <= 0.0 {
            (None, false)
        } else {
            let pct = (new_acc - old) / old * 100.0;
            (
                Some(pct),
                -pct > cfg.tolerance_pct && (old - new_acc) > QUALITY_ABS_FLOOR,
            )
        };
        diffs.push(MetricDiff {
            metric: "final_acc".to_string(),
            old,
            new: new_acc,
            delta_pct,
            regressed,
        });
    }
    if let (Some(old), Some(new_ece)) = (baseline.ece, new.ece) {
        // Same direction as timing: more calibration error is worse.
        diffs.push(diff_metric("ece", old, new_ece, cfg, QUALITY_ABS_FLOOR));
    }
    GateOutcome {
        diffs,
        unmatched: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{BenchAlloc, BenchSpan};

    fn report(wall: f64, spans: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            workload: "w".into(),
            seed: 1,
            scale: 0.05,
            threads: 2,
            git: "abc".into(),
            wall_time_s: wall,
            top_span_total_s: spans
                .iter()
                .filter(|(n, _)| n.starts_with("bench."))
                .map(|(_, t)| t)
                .sum(),
            spans: spans
                .iter()
                .map(|(name, total_s)| BenchSpan {
                    name: name.to_string(),
                    calls: 1,
                    total_s: *total_s,
                    mean_ms: total_s * 1e3,
                    max_ms: total_s * 1e3,
                })
                .collect(),
            counters: vec![],
            throughput: vec![],
            histograms: vec![],
            alloc: None,
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(10.0, &[("bench.datagen", 7.0), ("bench.strategies", 3.0)]);
        let outcome = compare(&r, &r.clone(), &GateConfig::default());
        assert!(outcome.passed(), "{:?}", outcome.diffs);
        assert_eq!(outcome.diffs.len(), 4); // wall + top + 2 spans
        assert!(outcome.unmatched.is_empty());
    }

    #[test]
    fn two_x_slowdown_via_scale_trips_the_gate() {
        let r = report(10.0, &[("bench.datagen", 7.0)]);
        let cfg = GateConfig {
            scale_new: 2.0,
            ..GateConfig::default()
        };
        let outcome = compare(&r, &r.clone(), &cfg);
        assert!(!outcome.passed());
        let wall = &outcome.diffs[0];
        assert_eq!(wall.metric, "wall_time_s");
        assert_eq!(wall.delta_pct, Some(100.0));
        assert!(wall.regressed);
        let table = outcome.render_table(&cfg);
        assert!(table.contains("REGRESSION"), "{table}");
    }

    #[test]
    fn growth_within_tolerance_passes() {
        let old = report(10.0, &[("bench.datagen", 7.0)]);
        let new = report(10.8, &[("bench.datagen", 7.5)]);
        assert!(compare(&old, &new, &GateConfig::default()).passed());
        // Just over tolerance fails.
        let worse = report(11.5, &[("bench.datagen", 7.0)]);
        assert!(!compare(&old, &worse, &GateConfig::default()).passed());
    }

    #[test]
    fn tiny_absolute_changes_never_regress() {
        // A 1 ms span tripling is below the 5 ms floor: noise, not signal.
        let old = report(0.001, &[("bench.report", 0.001)]);
        let new = report(0.003, &[("bench.report", 0.003)]);
        assert!(compare(&old, &new, &GateConfig::default()).passed());
    }

    #[test]
    fn zero_baseline_regresses_only_above_the_floor() {
        let old = report(0.0, &[("bench.datagen", 0.0)]);
        let small = report(0.004, &[("bench.datagen", 0.004)]);
        let outcome = compare(&old, &small, &GateConfig::default());
        assert!(outcome.passed(), "{:?}", outcome.diffs);
        assert_eq!(outcome.diffs[0].delta_pct, None);

        let big = report(1.0, &[("bench.datagen", 1.0)]);
        let outcome = compare(&old, &big, &GateConfig::default());
        assert!(!outcome.passed());
        assert_eq!(outcome.diffs[0].delta_pct, None);
        // The n/a delta renders without panicking.
        assert!(outcome.render_table(&GateConfig::default()).contains("n/a"));
    }

    #[test]
    fn span_sets_are_matched_by_name() {
        let old = report(10.0, &[("bench.datagen", 7.0), ("bench.gone", 1.0)]);
        let new = report(10.0, &[("bench.datagen", 7.0), ("bench.added", 1.0)]);
        let outcome = compare(&old, &new, &GateConfig::default());
        assert!(outcome.passed());
        assert!(outcome.unmatched.contains(&"span:bench.gone".to_string()));
        assert!(outcome.unmatched.contains(&"span:bench.added".to_string()));
    }

    #[test]
    fn alloc_bytes_compare_unscaled() {
        let mut old = report(10.0, &[]);
        let mut new = report(10.0, &[]);
        old.alloc = Some(BenchAlloc {
            bytes: 100 << 20,
            count: 10,
            peak_bytes: 50 << 20,
        });
        new.alloc = Some(BenchAlloc {
            bytes: 200 << 20,
            count: 10,
            peak_bytes: 50 << 20,
        });
        let cfg = GateConfig {
            scale_new: 1.0,
            ..GateConfig::default()
        };
        let outcome = compare(&old, &new, &cfg);
        let alloc = outcome
            .diffs
            .iter()
            .find(|d| d.metric == "alloc.bytes")
            .unwrap();
        assert!(alloc.regressed);
        // peak unchanged → fine.
        assert!(
            !outcome
                .diffs
                .iter()
                .find(|d| d.metric == "alloc.peak_bytes")
                .unwrap()
                .regressed
        );
    }

    #[test]
    fn json_verdict_round_trips_and_flags_regressions() {
        let old = report(10.0, &[("bench.datagen", 7.0), ("bench.gone", 1.0)]);
        let new = report(21.0, &[("bench.datagen", 7.0)]);
        let cfg = GateConfig::default();
        let outcome = compare(&old, &new, &cfg);
        let json = outcome.render_json("table1_scream", &cfg);
        let v = aml_telemetry::json::parse(&json).expect("render_json emits valid JSON");
        assert_eq!(v.get("workload").unwrap().as_str(), Some("table1_scream"));
        assert_eq!(v.get("tolerance_pct").unwrap().as_f64(), Some(10.0));
        assert_eq!(v.get("abs_floor_ms").unwrap().as_f64(), Some(5.0));
        assert_eq!(v.get("pass").unwrap(), &Value::Bool(false));
        assert_eq!(v.get("regressions").unwrap().as_u64(), Some(1));
        let metrics = v.get("metrics").unwrap().as_arr().unwrap();
        assert_eq!(metrics.len(), outcome.diffs.len());
        let wall = &metrics[0];
        assert_eq!(wall.get("metric").unwrap().as_str(), Some("wall_time_s"));
        assert_eq!(wall.get("old").unwrap().as_f64(), Some(10.0));
        assert_eq!(wall.get("new").unwrap().as_f64(), Some(21.0));
        let delta = wall.get("delta_pct").unwrap().as_f64().unwrap();
        assert!((delta - 110.0).abs() < 1e-9, "{delta}");
        assert_eq!(wall.get("regressed").unwrap(), &Value::Bool(true));
        let unmatched = v.get("unmatched").unwrap().as_arr().unwrap();
        assert_eq!(unmatched[0].as_str(), Some("span:bench.gone"));

        // A zero baseline renders delta_pct as JSON null.
        let zero = compare(&report(0.0, &[]), &report(0.0, &[]), &cfg);
        let v = aml_telemetry::json::parse(&zero.render_json("w", &cfg)).unwrap();
        assert_eq!(
            v.get("metrics").unwrap().as_arr().unwrap()[0]
                .get("delta_pct")
                .unwrap(),
            &Value::Null
        );
        assert_eq!(v.get("pass").unwrap(), &Value::Bool(true));
    }

    fn history_record(workload: &str, seed: u64, wall: f64, rss: u64) -> HistoryRecord {
        HistoryRecord {
            workload: workload.into(),
            seed,
            git: "abc".into(),
            source: "run".into(),
            wall_time_s: wall,
            top_span_total_s: wall * 0.9,
            peak_rss_bytes: rss,
            alloc_peak_bytes: 0,
            final_acc: Some(0.9),
            trials_finished: 10,
            trials_failed: 0,
            rounds: 3,
            ece: Some(0.05),
        }
    }

    #[test]
    fn parse_history_round_trips_and_skips_junk() {
        let good = history_record("table1_scream", 11, 12.5, 73_400_320);
        let mut null_acc = history_record("table1_scream", 12, 13.0, 0);
        null_acc.final_acc = None;
        let text = format!(
            "{}\nnot json at all\n{{\"type\":\"other\"}}\n\
             {{\"type\":\"history\",\"schema_version\":99,\"workload\":\"x\"}}\n{}\n{{\"type\":\"hist",
            good.to_json_line(),
            null_acc.to_json_line(),
        );
        let records = parse_history(&text);
        assert_eq!(records, vec![good, null_acc]);
        assert_eq!(records[1].final_acc, None);
        assert!(parse_history("").is_empty());
    }

    #[test]
    fn parse_history_keeps_seeds_above_two_to_the_53_exact() {
        for seed in [(1u64 << 53) + 1, u64::MAX] {
            let rec = HistoryRecord {
                seed,
                ..history_record("w", 1, 1.0, 0)
            };
            assert_eq!(parse_history(&rec.to_json_line()), vec![rec]);
        }
    }

    #[test]
    fn history_baseline_takes_the_trailing_median_per_workload() {
        let records = vec![
            history_record("other", 1, 100.0, 0),
            history_record("w", 1, 10.0, 50 << 20),
            history_record("w", 2, 20.0, 60 << 20),
            history_record("w", 3, 30.0, 70 << 20),
        ];
        // Window larger than history: uses all three, median = middle.
        let b = history_baseline(&records, "w", 10).unwrap();
        assert_eq!(b.n_used, 3);
        assert_eq!(b.wall_time_s, 20.0);
        assert_eq!(b.peak_rss_bytes, (60u64 << 20) as f64);
        // Window of 2 takes the *last* two (most recent runs).
        let b = history_baseline(&records, "w", 2).unwrap();
        assert_eq!(b.n_used, 2);
        assert_eq!(b.wall_time_s, 20.0); // nearest-rank median of [20, 30]
                                         // N=1 degenerates to "compare against the previous run".
        let b = history_baseline(&records, "w", 1).unwrap();
        assert_eq!(b.n_used, 1);
        assert_eq!(b.wall_time_s, 30.0);
        // Missing history / zero window → no baseline.
        assert_eq!(history_baseline(&records, "nope", 3), None);
        assert_eq!(history_baseline(&records, "w", 0), None);
        assert_eq!(history_baseline(&[], "w", 3), None);
    }

    #[test]
    fn history_gate_flags_a_real_slowdown_and_passes_noise() {
        let records = vec![
            history_record("w", 1, 10.0, 50 << 20),
            history_record("w", 2, 10.2, 50 << 20),
            history_record("w", 3, 9.9, 50 << 20),
        ];
        let baseline = history_baseline(&records, "w", 3).unwrap();
        let cfg = GateConfig::default();
        // Within tolerance of the median (10.0): passes.
        let ok = history_record("w", 4, 10.5, 50 << 20);
        assert!(gate_against_history(&baseline, &ok, &cfg).passed());
        // 50% slower than the median: regression on both timing metrics.
        let slow = history_record("w", 5, 15.0, 50 << 20);
        let outcome = gate_against_history(&baseline, &slow, &cfg);
        assert!(!outcome.passed());
        assert_eq!(outcome.regressions(), 2);
        assert_eq!(outcome.diffs[0].metric, "wall_time_s");
        assert_eq!(outcome.diffs[0].old, 10.0);
        // RSS growth beyond tolerance + 1 MiB floor also trips.
        let hog = history_record("w", 6, 10.0, 200 << 20);
        let outcome = gate_against_history(&baseline, &hog, &cfg);
        let rss = outcome
            .diffs
            .iter()
            .find(|d| d.metric == "peak_rss_bytes")
            .unwrap();
        assert!(rss.regressed);
    }

    #[test]
    fn history_gate_skips_memory_metrics_nobody_measured() {
        let records = vec![history_record("w", 1, 10.0, 0)];
        let baseline = history_baseline(&records, "w", 1).unwrap();
        let outcome = gate_against_history(
            &baseline,
            &history_record("w", 2, 10.0, 0),
            &GateConfig::default(),
        );
        assert!(outcome.passed());
        assert_eq!(outcome.diffs.len(), 2, "{:?}", outcome.diffs);
        assert!(outcome.diffs.iter().all(|d| !d.metric.contains("bytes")));
    }

    #[test]
    fn history_json_verdict_carries_the_window_size() {
        let records = vec![history_record("w", 1, 10.0, 0)];
        let baseline = history_baseline(&records, "w", 5).unwrap();
        let cfg = GateConfig::default();
        let outcome = gate_against_history(&baseline, &history_record("w", 2, 10.1, 0), &cfg);
        let v =
            aml_telemetry::json::parse(&outcome.render_history_json("w", &cfg, 5, baseline.n_used))
                .unwrap();
        assert_eq!(v.get("workload").unwrap().as_str(), Some("w"));
        assert_eq!(v.get("history_requested").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("history_n").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("pass").unwrap(), &Value::Bool(true));

        // Missing history: an empty outcome renders pass=true, history_n=0.
        let empty = GateOutcome {
            diffs: vec![],
            unmatched: vec![],
        };
        let v = aml_telemetry::json::parse(&empty.render_history_json("w", &cfg, 5, 0)).unwrap();
        assert_eq!(v.get("history_n").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("pass").unwrap(), &Value::Bool(true));
        assert_eq!(v.get("regressions").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn quality_gate_inverts_direction_for_accuracy() {
        let records = vec![
            history_record("w", 1, 10.0, 0),
            history_record("w", 2, 10.0, 0),
            history_record("w", 3, 10.0, 0),
        ];
        let baseline = history_baseline(&records, "w", 3).unwrap();
        assert_eq!(baseline.final_acc, Some(0.9));
        assert_eq!(baseline.ece, Some(0.05));
        let cfg = GateConfig::default();

        // Same quality as the median: passes.
        let same = history_record("w", 4, 10.0, 0);
        assert!(gate_quality_against_history(&baseline, &same, &cfg).passed());

        // Accuracy IMPROVING by a lot must not trip the inverted gate.
        let mut better = history_record("w", 5, 10.0, 0);
        better.final_acc = Some(0.99);
        assert!(gate_quality_against_history(&baseline, &better, &cfg).passed());

        // Accuracy dropping 20% regresses; the delta renders negative.
        let mut worse = history_record("w", 6, 10.0, 0);
        worse.final_acc = Some(0.72);
        let outcome = gate_quality_against_history(&baseline, &worse, &cfg);
        assert!(!outcome.passed());
        let acc = &outcome.diffs[0];
        assert_eq!(acc.metric, "final_acc");
        assert!(acc.regressed);
        assert!(acc.delta_pct.unwrap() < -19.0, "{:?}", acc.delta_pct);

        // ECE doubling regresses in the normal direction...
        let mut blurry = history_record("w", 7, 10.0, 0);
        blurry.ece = Some(0.12);
        let outcome = gate_quality_against_history(&baseline, &blurry, &cfg);
        assert!(!outcome.passed());
        assert_eq!(outcome.diffs[1].metric, "ece");
        assert!(outcome.diffs[1].regressed);
        // ...but a sub-floor absolute wobble never does, even when the
        // relative change is large.
        let mut wobble = history_record("w", 8, 10.0, 0);
        wobble.ece = Some(0.0545);
        assert!(gate_quality_against_history(&baseline, &wobble, &cfg).passed());
    }

    #[test]
    fn quality_gate_passes_vacuously_without_measurements() {
        // History written before the quality plane: no final_acc, no ece.
        let mut old = history_record("w", 1, 10.0, 0);
        old.final_acc = None;
        old.ece = None;
        let baseline = history_baseline(&[old], "w", 1).unwrap();
        assert_eq!(baseline.final_acc, None);
        assert_eq!(baseline.ece, None);
        let outcome = gate_quality_against_history(
            &baseline,
            &history_record("w", 2, 10.0, 0),
            &GateConfig::default(),
        );
        assert!(outcome.passed());
        assert!(outcome.diffs.is_empty(), "{:?}", outcome.diffs);
    }

    #[test]
    fn quality_medians_skip_records_without_measurements() {
        let mut a = history_record("w", 1, 10.0, 0);
        a.final_acc = Some(0.8);
        a.ece = None;
        let mut b = history_record("w", 2, 10.0, 0);
        b.final_acc = Some(0.9);
        b.ece = Some(0.03);
        let mut c = history_record("w", 3, 10.0, 0);
        c.final_acc = None;
        c.ece = Some(0.07);
        let baseline = history_baseline(&[a, b, c], "w", 3).unwrap();
        // Median of [0.8, 0.9] (nearest-rank) and [0.03, 0.07].
        assert_eq!(baseline.final_acc, Some(0.8));
        assert_eq!(baseline.ece, Some(0.03));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.5), 2.0);
        assert_eq!(percentile(&xs, 0.75), 3.0);
        assert_eq!(percentile(&xs, 0.76), 4.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        let odd = [5.0, 6.0, 7.0];
        assert_eq!(percentile(&odd, 0.5), 6.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
