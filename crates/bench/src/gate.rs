//! Regression gating: one median-of-window gate over direction-tagged
//! measurements.
//!
//! Every gate input flattens to a list of named [`Measurement`]s, each
//! carrying its direction ([`Better`]), an absolute floor in its own
//! unit, and the test-hook scale that applies to it ([`Hook`]):
//!
//! * a [`BenchReport`] ([`flatten_report`]) gives `wall_time_s`,
//!   `top_span_total_s` and `span:<name>` (timings), then
//!   `rate:<counter>` for each layer rate the report carries (per
//!   core-second of its owning span, higher is better), then
//!   `alloc.bytes` and `alloc.peak_bytes` (1 MiB floor, unscaled);
//! * a [`HistoryRecord`] ([`flatten_history`]) gives `wall_time_s`,
//!   `top_span_total_s`, `peak_rss_bytes` and `alloc.peak_bytes`, plus
//!   `final_acc` (higher is better) and `ece` when quality is gated.
//!
//! A memory figure of 0 and a `None` quality field mean "not measured"
//! and are left out. [`gate`] takes the per-metric nearest-rank median
//! over a window of flattened records — only the records that measured
//! the metric — and flags a metric as regressed when it got worse by
//! more than its floor **and** either by more than the relative
//! tolerance or from a zero baseline. "Worse" is up for lower-is-better
//! metrics and down for higher-is-better ones. A metric only one side
//! measured is listed as unmatched, not gated.
//!
//! `perfgate --compare OLD NEW` is a window of one; `perfgate
//! --against-history N` uses the last N same-workload records of the
//! append-only history store ([`parse_history`], [`history_window`]).
//! An empty window cannot anchor any check, so the caller treats it as
//! a pass with a warning.

use crate::report::{BenchReport, OWNED_COUNTERS};
use aml_telemetry::json::{ToJson, Value};
use aml_telemetry::HistoryRecord;
use std::fmt::Write as _;

/// Gate parameters.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Allowed relative growth, percent (`10.0` = +10%).
    pub tolerance_pct: f64,
    /// Absolute growth below which a timing change never regresses,
    /// seconds.
    pub abs_floor_s: f64,
    /// Multiplier applied to the new side's timing metrics (and divisor
    /// of its layer rates) before comparing — a test hook to inject
    /// synthetic slowdowns (`--scale 2` must trip the gate).
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

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Timings, memory, calibration error.
    Lower,
    /// Accuracy, throughput.
    Higher,
}

/// The test-hook multiplier applied to a new measurement before gating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    /// Never scaled.
    None,
    /// Scaled by [`GateConfig::scale_new`] (`--scale`).
    Timing,
    /// Divided by [`GateConfig::scale_new`]: a `--scale 2` slowdown
    /// halves a rate.
    Rate,
    /// Scaled by the accuracy hook (`--acc-scale`).
    Accuracy,
}

/// One named measurement fed to the gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Metric id (`wall_time_s`, `span:<name>`, `final_acc`, …).
    pub name: String,
    /// Measured value, in the metric's own unit.
    pub value: f64,
    /// Which direction is an improvement.
    pub better: Better,
    /// Absolute change, in the metric's unit, below which it never
    /// regresses.
    pub floor: f64,
    /// Test-hook scale that applies to the new side.
    pub hook: Hook,
}

impl Measurement {
    fn timing(name: impl Into<String>, value: f64, cfg: &GateConfig) -> Measurement {
        Measurement {
            name: name.into(),
            value,
            better: Better::Lower,
            floor: cfg.abs_floor_s,
            hook: Hook::Timing,
        }
    }

    /// A layer rate (work per core-second) has no absolute floor: only
    /// the relative tolerance applies.
    fn rate(counter: &str, value: f64) -> Measurement {
        Measurement {
            name: format!("rate:{counter}"),
            value,
            better: Better::Higher,
            floor: 0.0,
            hook: Hook::Rate,
        }
    }

    /// Memory grows by more than 1 MiB before it can regress; `--scale`
    /// injects a timing slowdown, not a memory one. 0 = not measured.
    fn memory(name: &str, bytes: u64) -> Option<Measurement> {
        (bytes > 0).then(|| Measurement {
            name: name.into(),
            value: bytes as f64,
            better: Better::Lower,
            floor: (1u64 << 20) as f64,
            hook: Hook::None,
        })
    }

    fn quality(name: &str, value: Option<f64>, better: Better, hook: Hook) -> Option<Measurement> {
        value.map(|value| Measurement {
            name: name.into(),
            value,
            better,
            floor: QUALITY_ABS_FLOOR,
            hook,
        })
    }
}

/// Accuracy and calibration move on a 0–1 scale; a swing below half a
/// point of accuracy (or ECE) is noise, not signal.
pub const QUALITY_ABS_FLOOR: f64 = 0.005;

/// Flatten a BENCH report: timings (`wall_time_s`, `top_span_total_s`,
/// `span:<name>` per span), `rate:<counter>` for each layer counter
/// (`report::OWNED_COUNTERS`) found in its `throughput`, then the
/// allocation totals when tracked.
pub fn flatten_report(r: &BenchReport, cfg: &GateConfig) -> Vec<Measurement> {
    let mut out = vec![
        Measurement::timing("wall_time_s", r.wall_time_s, cfg),
        Measurement::timing("top_span_total_s", r.top_span_total_s, cfg),
    ];
    out.extend(
        r.spans
            .iter()
            .map(|s| Measurement::timing(format!("span:{}", s.name), s.total_s, cfg)),
    );
    out.extend(
        r.throughput
            .iter()
            .filter(|(name, _)| OWNED_COUNTERS.iter().any(|(counter, _)| counter == name))
            .map(|(name, rate)| Measurement::rate(name, *rate)),
    );
    if let Some(a) = &r.alloc {
        out.extend(Measurement::memory("alloc.bytes", a.bytes));
        out.extend(Measurement::memory("alloc.peak_bytes", a.peak_bytes));
    }
    out
}

/// Flatten a history record: timings and memory, plus final accuracy
/// (higher is better, scaled by `--acc-scale`) and ECE when `quality`.
pub fn flatten_history(r: &HistoryRecord, cfg: &GateConfig, quality: bool) -> Vec<Measurement> {
    let mut out = vec![
        Measurement::timing("wall_time_s", r.wall_time_s, cfg),
        Measurement::timing("top_span_total_s", r.top_span_total_s, cfg),
    ];
    out.extend(Measurement::memory("peak_rss_bytes", r.peak_rss_bytes));
    out.extend(Measurement::memory("alloc.peak_bytes", r.alloc_peak_bytes));
    if quality {
        out.extend(Measurement::quality(
            "final_acc",
            r.final_acc,
            Better::Higher,
            Hook::Accuracy,
        ));
        out.extend(Measurement::quality(
            "ece",
            r.ece,
            Better::Lower,
            Hook::None,
        ));
    }
    out
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDiff {
    /// Metric id (`wall_time_s`, `span:<name>`, `alloc.bytes`, …).
    pub metric: String,
    /// Baseline value (the window median).
    pub old: f64,
    /// New value (after its test-hook scale).
    pub new: f64,
    /// Relative change in percent; `None` when the baseline is zero.
    pub delta_pct: Option<f64>,
    /// Whether this metric trips the gate.
    pub regressed: bool,
}

/// The gate's verdict: every compared metric plus the regression count.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// All compared metrics, baseline order.
    pub diffs: Vec<MetricDiff>,
    /// Metrics that only one side measured (not compared).
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

    /// Machine-readable verdict for `perfgate --json`. Schema:
    /// `{workload, [history_requested, history_n,] tolerance_pct,
    /// abs_floor_ms, scale, pass, regressions, metrics: [{metric, old,
    /// new, delta_pct|null, regressed}], unmatched: [..], ..extra}`.
    /// `history` is `(requested N, records found)` for
    /// `--against-history` (0 found = no baseline, vacuous pass); `extra`
    /// fields are appended at the end (`--crit` embeds the critical-path
    /// summary this way).
    pub fn render_json(
        &self,
        workload: &str,
        cfg: &GateConfig,
        history: Option<(usize, usize)>,
        extra: Vec<(String, Value)>,
    ) -> String {
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
        let mut fields = vec![("workload".into(), workload.to_json())];
        if let Some((requested, found)) = history {
            fields.push(("history_requested".into(), requested.to_json()));
            fields.push(("history_n".into(), found.to_json()));
        }
        fields.extend([
            ("tolerance_pct".into(), cfg.tolerance_pct.to_json()),
            ("abs_floor_ms".into(), (cfg.abs_floor_s * 1e3).to_json()),
            ("scale".into(), cfg.scale_new.to_json()),
            ("pass".into(), self.passed().to_json()),
            ("regressions".into(), self.regressions().to_json()),
            ("metrics".into(), Value::Arr(metrics)),
            ("unmatched".into(), self.unmatched.to_json()),
        ]);
        fields.extend(extra);
        Value::Obj(fields).render()
    }
}

/// Gate `new` against the per-metric median of `window` under `cfg`;
/// `acc_scale` is the [`Hook::Accuracy`] multiplier. Metrics are
/// compared in the order the window first lists them. An empty window
/// compares nothing.
pub fn gate(
    window: &[Vec<Measurement>],
    new: &[Measurement],
    cfg: &GateConfig,
    acc_scale: f64,
) -> GateOutcome {
    let mut outcome = GateOutcome::default();
    if window.is_empty() {
        return outcome;
    }
    let mut names: Vec<&str> = Vec::new();
    for m in window.iter().flatten() {
        if !names.contains(&m.name.as_str()) {
            names.push(&m.name);
        }
    }
    for &name in &names {
        let Some(m) = new.iter().find(|m| m.name == name) else {
            outcome.unmatched.push(name.to_string());
            continue;
        };
        let mut xs: Vec<f64> = window
            .iter()
            .flatten()
            .filter(|w| w.name == name)
            .map(|w| w.value)
            .collect();
        xs.sort_by(f64::total_cmp);
        let old = percentile(&xs, 0.5);
        let new = m.value
            * match m.hook {
                Hook::None => 1.0,
                Hook::Timing => cfg.scale_new,
                Hook::Rate => 1.0 / cfg.scale_new,
                Hook::Accuracy => acc_scale,
            };
        // Zero baseline: no relative change is defined, so only the
        // absolute floor applies.
        let delta_pct = (old > 0.0).then(|| (new - old) / old * 100.0);
        let (worse, sign) = match m.better {
            Better::Lower => (new - old, 1.0),
            Better::Higher => (old - new, -1.0),
        };
        outcome.diffs.push(MetricDiff {
            metric: name.to_string(),
            old,
            new,
            delta_pct,
            regressed: worse > m.floor
                && delta_pct.is_none_or(|pct| sign * pct > cfg.tolerance_pct),
        });
    }
    outcome.unmatched.extend(
        new.iter()
            .filter(|m| !names.contains(&m.name.as_str()))
            .map(|m| m.name.clone()),
    );
    outcome
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

/// The last `n` records for `workload`, oldest first (file order =
/// append order = chronological). Empty when the store has none.
pub fn history_window<'a>(
    records: &'a [HistoryRecord],
    workload: &str,
    n: usize,
) -> Vec<&'a HistoryRecord> {
    let matching: Vec<&HistoryRecord> = records.iter().filter(|r| r.workload == workload).collect();
    matching[matching.len().saturating_sub(n)..].to_vec()
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

    /// `perfgate --compare`: a window of one report.
    fn compare(old: &BenchReport, new: &BenchReport, cfg: &GateConfig) -> GateOutcome {
        gate(
            &[flatten_report(old, cfg)],
            &flatten_report(new, cfg),
            cfg,
            1.0,
        )
    }

    /// `perfgate --against-history n`, with the accuracy hook at 1.
    fn against(
        records: &[HistoryRecord],
        n: usize,
        new: &HistoryRecord,
        quality: bool,
    ) -> GateOutcome {
        let cfg = GateConfig::default();
        let window: Vec<Vec<Measurement>> = history_window(records, &new.workload, n)
            .into_iter()
            .map(|r| flatten_history(r, &cfg, quality))
            .collect();
        gate(&window, &flatten_history(new, &cfg, quality), &cfg, 1.0)
    }

    fn diff<'a>(outcome: &'a GateOutcome, metric: &str) -> &'a MetricDiff {
        outcome
            .diffs
            .iter()
            .find(|d| d.metric == metric)
            .unwrap_or_else(|| panic!("no {metric} in {:?}", outcome.diffs))
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
        assert_eq!(outcome.unmatched, ["span:bench.gone", "span:bench.added"]);
    }

    #[test]
    fn layer_rates_gate_higher_is_better() {
        let mut r = report(10.0, &[("netsim.scenario", 7.0)]);
        r.throughput = vec![
            ("netsim.sim.events".into(), 4.0e6),
            ("netsim.sim.runs".into(), 800.0),
            ("netsim.sim.packets_sent".into(), 1.0e6),
        ];
        let cfg = GateConfig::default();
        let same = compare(&r, &r.clone(), &cfg);
        assert!(same.passed(), "{:?}", same.diffs);
        assert_eq!(diff(&same, "rate:netsim.sim.runs").new, 800.0);
        assert!(
            same.diffs
                .iter()
                .all(|d| d.metric != "rate:netsim.sim.packets_sent"),
            "only layer counters are gated"
        );

        let mut halved = r.clone();
        halved.throughput[0].1 = 2.0e6;
        let outcome = compare(&r, &halved, &cfg);
        assert_eq!(outcome.regressions(), 1, "{:?}", outcome.diffs);
        let events = diff(&outcome, "rate:netsim.sim.events");
        assert!(events.regressed);
        assert_eq!(events.delta_pct, Some(-50.0));
        // A faster layer is no regression.
        assert!(compare(&halved, &r, &cfg).passed());

        // --scale 2 halves every rate along with doubling the timings.
        let slow = GateConfig {
            scale_new: 2.0,
            ..cfg
        };
        let outcome = compare(&r, &r.clone(), &slow);
        let events = diff(&outcome, "rate:netsim.sim.events");
        assert!(events.regressed);
        assert_eq!(events.new, 2.0e6);
    }

    #[test]
    fn label_rate_is_gated_higher_is_better() {
        // Labels per core-second of `netsim.scenario`: it rises when a label
        // runs fewer simulations even if each simulation costs the same.
        let mut r = report(10.0, &[("netsim.scenario", 7.0)]);
        r.throughput = vec![
            ("netsim.labels".into(), 240.0),
            ("netsim.sim.runs".into(), 800.0),
        ];
        let cfg = GateConfig::default();
        let same = compare(&r, &r.clone(), &cfg);
        assert!(same.passed(), "{:?}", same.diffs);
        assert_eq!(diff(&same, "rate:netsim.labels").new, 240.0);

        let mut fewer = r.clone();
        fewer.throughput[0].1 = 120.0;
        let outcome = compare(&r, &fewer, &cfg);
        assert_eq!(outcome.regressions(), 1, "{:?}", outcome.diffs);
        let labels = diff(&outcome, "rate:netsim.labels");
        assert!(labels.regressed);
        assert_eq!(labels.delta_pct, Some(-50.0));
        assert!(compare(&fewer, &r, &cfg).passed());
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
            scale_new: 3.0,
            ..GateConfig::default()
        };
        let outcome = compare(&old, &new, &cfg);
        let alloc = diff(&outcome, "alloc.bytes");
        assert!(alloc.regressed);
        assert_eq!(alloc.delta_pct, Some(100.0));
        // peak unchanged (and unscaled by --scale) → fine.
        let peak = diff(&outcome, "alloc.peak_bytes");
        assert_eq!(peak.new, (50u64 << 20) as f64);
        assert!(!peak.regressed);
    }

    #[test]
    fn alloc_measured_on_one_side_only_is_unmatched() {
        let old = report(10.0, &[]);
        let mut new = report(10.0, &[]);
        new.alloc = Some(BenchAlloc {
            bytes: 50_000_000,
            count: 10,
            peak_bytes: 12_000_000,
        });
        let outcome = compare(&old, &new, &GateConfig::default());
        assert!(outcome.passed());
        assert_eq!(outcome.unmatched, ["alloc.bytes", "alloc.peak_bytes"]);
    }

    #[test]
    fn json_verdict_round_trips_and_flags_regressions() {
        let old = report(10.0, &[("bench.datagen", 7.0), ("bench.gone", 1.0)]);
        let new = report(21.0, &[("bench.datagen", 7.0)]);
        let cfg = GateConfig::default();
        let outcome = compare(&old, &new, &cfg);
        let json = outcome.render_json("table1_scream", &cfg, None, Vec::new());
        let v = aml_telemetry::json::parse(&json).expect("render_json emits valid JSON");
        assert_eq!(v.get("workload").unwrap().as_str(), Some("table1_scream"));
        assert_eq!(v.get("history_n"), None);
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
        let v = aml_telemetry::json::parse(&zero.render_json("w", &cfg, None, Vec::new())).unwrap();
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
        let new = history_record("w", 4, 20.0, 60 << 20);
        // Window larger than history: uses all three, median = middle.
        assert_eq!(history_window(&records, "w", 10).len(), 3);
        let outcome = against(&records, 10, &new, false);
        assert_eq!(diff(&outcome, "wall_time_s").old, 20.0);
        assert_eq!(diff(&outcome, "peak_rss_bytes").old, (60u64 << 20) as f64);
        // Window of 2 takes the *last* two (most recent runs).
        assert_eq!(history_window(&records, "w", 2)[0].seed, 2);
        // nearest-rank median of [20, 30]
        assert_eq!(
            diff(&against(&records, 2, &new, false), "wall_time_s").old,
            20.0
        );
        // N=1 degenerates to "compare against the previous run".
        assert_eq!(
            diff(&against(&records, 1, &new, false), "wall_time_s").old,
            30.0
        );
        // Missing history / zero window → no baseline, nothing compared.
        assert!(history_window(&records, "nope", 3).is_empty());
        assert!(history_window(&records, "w", 0).is_empty());
        let empty = against(&[], 3, &new, true);
        assert!(empty.passed());
        assert!(empty.diffs.is_empty() && empty.unmatched.is_empty());
    }

    #[test]
    fn history_gate_flags_a_real_slowdown_and_passes_noise() {
        let records = vec![
            history_record("w", 1, 10.0, 50 << 20),
            history_record("w", 2, 10.2, 50 << 20),
            history_record("w", 3, 9.9, 50 << 20),
        ];
        // Within tolerance of the median (10.0): passes.
        let ok = history_record("w", 4, 10.5, 50 << 20);
        assert!(against(&records, 3, &ok, false).passed());
        // 50% slower than the median: regression on both timing metrics.
        let slow = history_record("w", 5, 15.0, 50 << 20);
        let outcome = against(&records, 3, &slow, false);
        assert!(!outcome.passed());
        assert_eq!(outcome.regressions(), 2);
        assert_eq!(outcome.diffs[0].metric, "wall_time_s");
        assert_eq!(outcome.diffs[0].old, 10.0);
        // RSS growth beyond tolerance + 1 MiB floor also trips.
        let hog = history_record("w", 6, 10.0, 200 << 20);
        assert!(diff(&against(&records, 3, &hog, false), "peak_rss_bytes").regressed);
    }

    #[test]
    fn history_gate_skips_memory_metrics_nobody_measured() {
        let records = vec![history_record("w", 1, 10.0, 0)];
        let outcome = against(&records, 1, &history_record("w", 2, 10.0, 0), false);
        assert!(outcome.passed());
        assert_eq!(outcome.diffs.len(), 2, "{:?}", outcome.diffs);
        assert!(outcome.diffs.iter().all(|d| !d.metric.contains("bytes")));
        assert!(outcome.unmatched.is_empty());
    }

    #[test]
    fn memory_measured_on_one_side_only_is_unmatched_not_a_regression() {
        // A store that never measured memory (0 = not measured) against
        // an alloc-tracked run with a real RSS: nothing to compare.
        let records = vec![history_record("w", 1, 10.0, 0)];
        let mut new = history_record("w", 2, 10.0, 64 << 20);
        new.alloc_peak_bytes = 12_000_000;
        let outcome = against(&records, 5, &new, false);
        assert!(outcome.passed(), "{:?}", outcome.diffs);
        assert_eq!(outcome.unmatched, ["peak_rss_bytes", "alloc.peak_bytes"]);
        // And the other way round: a measured store, an unmeasured run.
        let records = vec![history_record("w", 1, 10.0, 64 << 20)];
        let outcome = against(&records, 5, &history_record("w", 2, 10.0, 0), false);
        assert!(outcome.passed());
        assert_eq!(outcome.unmatched, ["peak_rss_bytes"]);
    }

    #[test]
    fn history_json_verdict_carries_the_window_size() {
        let records = vec![history_record("w", 1, 10.0, 0)];
        let cfg = GateConfig::default();
        let outcome = against(&records, 5, &history_record("w", 2, 10.1, 0), false);
        let v = aml_telemetry::json::parse(&outcome.render_json(
            "w",
            &cfg,
            Some((5, history_window(&records, "w", 5).len())),
            Vec::new(),
        ))
        .unwrap();
        let Value::Obj(fields) = &v else {
            panic!("not an object: {v:?}")
        };
        let keys: Vec<&str> = fields.iter().take(4).map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "workload",
                "history_requested",
                "history_n",
                "tolerance_pct"
            ]
        );
        assert_eq!(v.get("workload").unwrap().as_str(), Some("w"));
        assert_eq!(v.get("history_requested").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("history_n").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("pass").unwrap(), &Value::Bool(true));

        // Missing history: an empty outcome renders pass=true, history_n=0.
        let empty = against(&[], 5, &history_record("w", 2, 10.1, 0), false);
        let v = aml_telemetry::json::parse(&empty.render_json("w", &cfg, Some((5, 0)), Vec::new()))
            .unwrap();
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
        // Same quality as the median: passes.
        let same = history_record("w", 4, 10.0, 0);
        let outcome = against(&records, 3, &same, true);
        assert!(outcome.passed());
        assert_eq!(diff(&outcome, "final_acc").old, 0.9);
        assert_eq!(diff(&outcome, "ece").old, 0.05);
        // Quality metrics are only flattened when asked for.
        assert!(against(&records, 3, &same, false)
            .diffs
            .iter()
            .all(|d| d.metric != "final_acc" && d.metric != "ece"));

        // Accuracy IMPROVING by a lot must not trip the inverted gate.
        let mut better = history_record("w", 5, 10.0, 0);
        better.final_acc = Some(0.99);
        assert!(against(&records, 3, &better, true).passed());

        // Accuracy dropping 20% regresses; the delta renders negative.
        let mut worse = history_record("w", 6, 10.0, 0);
        worse.final_acc = Some(0.72);
        let outcome = against(&records, 3, &worse, true);
        assert!(!outcome.passed());
        let acc = diff(&outcome, "final_acc");
        assert!(acc.regressed);
        assert!(acc.delta_pct.unwrap() < -19.0, "{:?}", acc.delta_pct);

        // ECE doubling regresses in the normal direction...
        let mut blurry = history_record("w", 7, 10.0, 0);
        blurry.ece = Some(0.12);
        let outcome = against(&records, 3, &blurry, true);
        assert!(!outcome.passed());
        assert!(diff(&outcome, "ece").regressed);
        // ...but a sub-floor absolute wobble never does, even when the
        // relative change is large.
        let mut wobble = history_record("w", 8, 10.0, 0);
        wobble.ece = Some(0.0545);
        assert!(against(&records, 3, &wobble, true).passed());
    }

    #[test]
    fn accuracy_hook_scales_only_final_acc() {
        let cfg = GateConfig::default();
        let rec = history_record("w", 1, 10.0, 0);
        let window = [flatten_history(&rec, &cfg, true)];
        let outcome = gate(&window, &flatten_history(&rec, &cfg, true), &cfg, 0.5);
        assert!(!outcome.passed());
        let acc = diff(&outcome, "final_acc");
        assert!(acc.regressed);
        assert_eq!(acc.new, 0.45);
        assert_eq!(outcome.regressions(), 1, "{:?}", outcome.diffs);
    }

    #[test]
    fn higher_is_better_metrics_regress_when_they_drop() {
        // A layer throughput (rows/s): the same rule, mirrored.
        let cfg = GateConfig::default();
        let rows_per_s = |value: f64| Measurement {
            name: "models.predict_rows_per_s".into(),
            value,
            better: Better::Higher,
            floor: 100.0,
            hook: Hook::None,
        };
        let window = [
            vec![rows_per_s(9e4)],
            vec![rows_per_s(1e5)],
            vec![rows_per_s(1.1e5)],
        ];
        assert!(gate(&window, &[rows_per_s(2e5)], &cfg, 1.0).passed());
        assert!(gate(&window, &[rows_per_s(9.5e4)], &cfg, 1.0).passed());
        let slow = gate(&window, &[rows_per_s(5e4)], &cfg, 1.0);
        assert!(!slow.passed());
        assert_eq!(slow.diffs[0].old, 1e5);
        assert_eq!(slow.diffs[0].delta_pct, Some(-50.0));
    }

    #[test]
    fn quality_gate_passes_vacuously_without_measurements() {
        // History written before the quality plane: no final_acc, no ece.
        let mut old = history_record("w", 1, 10.0, 0);
        old.final_acc = None;
        old.ece = None;
        let mut new = history_record("w", 2, 10.0, 0);
        new.final_acc = None;
        new.ece = None;
        let outcome = against(&[old.clone()], 1, &new, true);
        assert!(outcome.passed());
        assert_eq!(outcome.diffs.len(), 2, "{:?}", outcome.diffs);
        assert!(outcome.unmatched.is_empty());
        // Measured on the new side only: listed, not gated.
        let outcome = against(&[old], 1, &history_record("w", 2, 10.0, 0), true);
        assert!(outcome.passed());
        assert_eq!(outcome.unmatched, ["final_acc", "ece"]);
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
        let outcome = against(&[a, b, c], 3, &history_record("w", 4, 10.0, 0), true);
        // Median of [0.8, 0.9] (nearest-rank) and [0.03, 0.07].
        assert_eq!(diff(&outcome, "final_acc").old, 0.8);
        assert_eq!(diff(&outcome, "ece").old, 0.03);
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
