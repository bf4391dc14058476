//! `amlreport`: one self-contained HTML page summarizing a run.
//!
//! Input is the machine-readable exhaust the harness already produces —
//! experiment ledgers (`ledger.jsonl`, see `aml_telemetry::ledger`) and
//! perf records (`BENCH_<workload>.json`, see [`crate::report`]) — and
//! output is a single HTML file with inline CSS and inline SVG charts:
//! no scripts, no external assets, no network references, so the file
//! can be attached to a CI run or mailed around and still render.
//!
//! Sections:
//!
//! 1. **Runs** — one overview row per ledger (workload, seed, git,
//!    trial/round/curve counts).
//! 2. **Search** — per ledger: a trial-score scatter colored by model
//!    family plus a per-family table (trials, best score, mean fit time
//!    joined from the BENCH `automl.fit_us[<family>]` histograms).
//! 3. **Ensembles** — the final ensemble composition of each run.
//! 4. **Feedback rounds** — accuracy-vs-round polylines per strategy
//!    with the min..max band shaded.
//! 5. **ALE bands** — the suggested-region evidence: mean±std band per
//!    feature with the suggested intervals shaded.
//! 6. **Perf** — wall time, top spans, allocations and dropped-event
//!    counts from the BENCH records.
//! 7. **Critical path** — per `crit.json` artifact (`--crit-out`): the
//!    causal chain chart from [`crate::critview`] plus the Amdahl
//!    speedup ceiling and dominant phase.
//!
//! Ledgers are read with `aml_telemetry::ledger::read`; unknown event
//! types are skipped so the report stays forward compatible with
//! additive schema changes (the ledger versioning contract).
//!
//! [`render_compare_html`] (the bin's `--compare A.jsonl B.jsonl` mode)
//! renders a cross-run diff instead: per-round accuracy deltas per
//! shared strategy, ensemble composition changes by family, and
//! region-suggestion drift per feature — same primitives, same
//! self-containment contract.

use crate::report::BenchReport;
use aml_telemetry::{
    ledger, CritReport, EnsembleMember, LedgerEvent, QualityReport, RunHeader, SearchReport,
    LEDGER_SCHEMA_VERSION,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ------------------------------------------------------------- ledger data

/// One parsed `ledger.jsonl`: the run header and its events in file
/// order.
#[derive(Debug, Clone, Default)]
pub struct LedgerData {
    /// The header line's run identity.
    pub header: RunHeader,
    /// Every event of a type this build knows.
    pub events: Vec<LedgerEvent>,
}

/// Parse the text of one `ledger.jsonl` file (see [`ledger::read`]).
pub fn parse_ledger(text: &str) -> Result<LedgerData, String> {
    let (header, events) = ledger::read(text)?;
    Ok(LedgerData { header, events })
}

impl LedgerData {
    fn count(&self, is: impl Fn(&LedgerEvent) -> bool) -> usize {
        self.events.iter().filter(|e| is(e)).count()
    }

    /// `(trial, rung, family, score)` of each `trial_finished` event.
    fn finished(&self) -> Vec<(u64, u64, &str, f64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                LedgerEvent::TrialFinished {
                    trial,
                    rung,
                    family,
                    score,
                } => Some((*trial, *rung, family.as_str(), *score)),
                _ => None,
            })
            .collect()
    }

    /// The reason of each `trial_failed` event.
    fn failure_reasons(&self) -> Vec<&str> {
        self.events
            .iter()
            .filter_map(|e| match e {
                LedgerEvent::TrialFailed { reason, .. } => Some(reason.as_str()),
                _ => None,
            })
            .collect()
    }

    /// `(val_score, members)` of the last `ensemble_selected` event —
    /// the selection that shipped.
    fn shipped_ensemble(&self) -> Option<(f64, &[EnsembleMember])> {
        self.events.iter().rev().find_map(|e| match e {
            LedgerEvent::EnsembleSelected { val_score, members } => {
                Some((*val_score, &members[..]))
            }
            _ => None,
        })
    }

    /// `round_completed` events as `(strategy, [acc_mean, acc_min,
    /// acc_max], points_added, regions)`, in order.
    fn rounds(&self) -> Vec<(&str, [f64; 3], u64, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                LedgerEvent::RoundCompleted {
                    strategy,
                    acc_mean,
                    acc_min,
                    acc_max,
                    points_added,
                    regions,
                    ..
                } => Some((
                    strategy.as_str(),
                    [*acc_mean, *acc_min, *acc_max],
                    *points_added,
                    *regions,
                )),
                _ => None,
            })
            .collect()
    }

    /// Last `region_suggested` event per feature (first-seen feature
    /// order) — the final state of the evidence.
    fn latest_bands(&self) -> Vec<&LedgerEvent> {
        let mut latest: Vec<(u64, &LedgerEvent)> = Vec::new();
        for e in &self.events {
            let LedgerEvent::RegionSuggested { feature, .. } = e else {
                continue;
            };
            match latest.iter_mut().find(|(f, _)| f == feature) {
                Some(slot) => slot.1 = e,
                None => latest.push((*feature, e)),
            }
        }
        latest.into_iter().map(|(_, e)| e).collect()
    }
}

// ------------------------------------------------------------- svg helpers

/// Categorical palette for family / strategy series.
const PALETTE: [&str; 8] = [
    "#2f6fb4", "#d9822b", "#3d9970", "#c44e52", "#8172b3", "#937860", "#d670ad", "#64707c",
];

fn color(i: usize) -> &'static str {
    PALETTE[i % PALETTE.len()]
}

/// A plot frame: pixel size, margins, and data ranges. Maps data
/// coordinates to pixel coordinates (y inverted).
struct Frame {
    w: f64,
    h: f64,
    ml: f64,
    mr: f64,
    mt: f64,
    mb: f64,
    x0: f64,
    x1: f64,
    y0: f64,
    y1: f64,
}

impl Frame {
    fn new(xs: impl Iterator<Item = f64>, ys: impl Iterator<Item = f64>) -> Frame {
        let mut x0 = f64::INFINITY;
        let mut x1 = f64::NEG_INFINITY;
        let mut y0 = f64::INFINITY;
        let mut y1 = f64::NEG_INFINITY;
        for x in xs.filter(|v| v.is_finite()) {
            x0 = x0.min(x);
            x1 = x1.max(x);
        }
        for y in ys.filter(|v| v.is_finite()) {
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        if !x0.is_finite() || !x1.is_finite() {
            (x0, x1) = (0.0, 1.0);
        }
        if !y0.is_finite() || !y1.is_finite() {
            (y0, y1) = (0.0, 1.0);
        }
        if x1 - x0 < 1e-12 {
            (x0, x1) = (x0 - 0.5, x1 + 0.5);
        }
        if y1 - y0 < 1e-12 {
            (y0, y1) = (y0 - 0.5, y1 + 0.5);
        }
        // A little vertical headroom so markers don't sit on the border.
        let pad = (y1 - y0) * 0.05;
        Frame {
            w: 480.0,
            h: 240.0,
            ml: 52.0,
            mr: 12.0,
            mt: 10.0,
            mb: 28.0,
            x0,
            x1,
            y0: y0 - pad,
            y1: y1 + pad,
        }
    }

    fn x(&self, v: f64) -> f64 {
        self.ml + (v - self.x0) / (self.x1 - self.x0) * (self.w - self.ml - self.mr)
    }

    fn y(&self, v: f64) -> f64 {
        self.h - self.mb - (v - self.y0) / (self.y1 - self.y0) * (self.h - self.mt - self.mb)
    }

    fn open(&self, out: &mut String) {
        let _ = write!(
            out,
            "<svg viewBox=\"0 0 {} {}\" class=\"chart\">",
            self.w, self.h
        );
        // Axes with min/max labels.
        let _ = write!(
            out,
            "<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" class=\"axis\"/>\
             <line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" class=\"axis\"/>",
            px(self.ml),
            px(self.mt),
            px(self.ml),
            px(self.h - self.mb),
            px(self.ml),
            px(self.h - self.mb),
            px(self.w - self.mr),
            px(self.h - self.mb),
        );
        let _ = write!(
            out,
            "<text x=\"{}\" y=\"{}\" class=\"tick\">{}</text>\
             <text x=\"{}\" y=\"{}\" class=\"tick\">{}</text>\
             <text x=\"{}\" y=\"{}\" class=\"tick tx\">{}</text>\
             <text x=\"{}\" y=\"{}\" class=\"tick tx te\">{}</text>",
            px(self.ml - 4.0),
            px(self.h - self.mb),
            sig(self.y0),
            px(self.ml - 4.0),
            px(self.mt + 8.0),
            sig(self.y1),
            px(self.ml),
            px(self.h - self.mb + 14.0),
            sig(self.x0),
            px(self.w - self.mr),
            px(self.h - self.mb + 14.0),
            sig(self.x1),
        );
    }
}

/// Pixel coordinate with one decimal (keeps the SVG small).
fn px(v: f64) -> String {
    format!("{:.1}", v)
}

/// Short human-readable tick label.
fn sig(v: f64) -> String {
    if !v.is_finite() {
        return "?".into();
    }
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

fn polyline(out: &mut String, pts: &[(f64, f64)], stroke: &str, extra: &str) {
    if pts.is_empty() {
        return;
    }
    let coords: Vec<String> = pts
        .iter()
        .map(|(x, y)| format!("{},{}", px(*x), px(*y)))
        .collect();
    let _ = write!(
        out,
        "<polyline points=\"{}\" fill=\"none\" stroke=\"{}\" {extra}/>",
        coords.join(" "),
        stroke
    );
}

fn polygon(out: &mut String, pts: &[(f64, f64)], fill: &str) {
    if pts.len() < 3 {
        return;
    }
    let coords: Vec<String> = pts
        .iter()
        .map(|(x, y)| format!("{},{}", px(*x), px(*y)))
        .collect();
    let _ = write!(
        out,
        "<polygon points=\"{}\" fill=\"{}\" fill-opacity=\"0.18\" stroke=\"none\"/>",
        coords.join(" "),
        fill
    );
}

fn legend(out: &mut String, names: &[String]) {
    out.push_str("<p class=\"legend\">");
    for (i, name) in names.iter().enumerate() {
        let _ = write!(
            out,
            "<span style=\"color:{}\">&#9632; {}</span> ",
            color(i),
            esc(name)
        );
    }
    out.push_str("</p>");
}

// ------------------------------------------------------------------- html

pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

const STYLE: &str = "\
body{font-family:system-ui,sans-serif;margin:24px auto;max-width:980px;color:#1c2733;}\
h1{font-size:1.4em;border-bottom:2px solid #2f6fb4;padding-bottom:4px;}\
h2{font-size:1.15em;margin-top:1.6em;border-bottom:1px solid #d5dbe0;padding-bottom:2px;}\
h3{font-size:1em;margin-bottom:4px;}\
table{border-collapse:collapse;margin:8px 0;font-size:0.88em;}\
th,td{border:1px solid #c8d0d8;padding:3px 8px;text-align:right;}\
th{background:#eef2f5;}\
td:first-child,th:first-child{text-align:left;}\
svg.chart{background:#fbfcfd;border:1px solid #d5dbe0;max-width:480px;display:block;margin:6px 0;}\
svg .axis{stroke:#5c6a76;stroke-width:1;}\
svg .tick{font-size:9px;fill:#5c6a76;text-anchor:end;}\
svg .tick.tx{text-anchor:start;}\
svg .tick.te{text-anchor:end;}\
p.legend{font-size:0.85em;margin:2px 0 10px;}\
p.note{color:#5c6a76;font-size:0.85em;}\
";

fn fmt_u64(v: u64) -> String {
    v.to_string()
}

fn fmt_bytes(v: u64) -> String {
    if v >= 1 << 20 {
        format!("{:.1} MiB", v as f64 / (1u64 << 20) as f64)
    } else if v >= 1 << 10 {
        format!("{:.1} KiB", v as f64 / 1024.0)
    } else {
        format!("{v} B")
    }
}

/// Distinct values in encounter order.
fn uniques<'a>(it: impl Iterator<Item = &'a str>) -> Vec<String> {
    let mut seen = Vec::new();
    for v in it {
        if !seen.iter().any(|s: &String| s == v) {
            seen.push(v.to_string());
        }
    }
    seen
}

fn section_runs(out: &mut String, ledgers: &[LedgerData]) {
    out.push_str("<h2>Runs</h2>");
    if ledgers.is_empty() {
        out.push_str("<p class=\"note\">No ledgers given.</p>");
        return;
    }
    out.push_str(
        "<table><tr><th>run</th><th>workload</th><th>seed</th><th>git</th>\
         <th>trials</th><th>finished</th><th>failed</th><th>rounds</th>\
         <th>regions</th><th>curves</th></tr>",
    );
    for l in ledgers {
        let _ = write!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(&l.header.run_id),
            esc(&l.header.workload),
            l.header.seed,
            esc(&l.header.git),
            l.count(|e| matches!(e, LedgerEvent::TrialStarted { .. })),
            l.count(|e| matches!(e, LedgerEvent::TrialFinished { .. })),
            l.count(|e| matches!(e, LedgerEvent::TrialFailed { .. })),
            l.count(|e| matches!(e, LedgerEvent::RoundCompleted { .. })),
            l.count(|e| matches!(e, LedgerEvent::RegionSuggested { .. })),
            l.count(|e| matches!(e, LedgerEvent::AleCurveComputed { .. })),
        );
    }
    out.push_str("</table>");
}

/// Mean fit time (ms) of a family, joined from `automl.fit_us[<family>]`
/// histograms across the BENCH records (count-weighted).
fn family_fit_ms(benches: &[BenchReport], family: &str) -> Option<f64> {
    let key = format!("automl.fit_us[{family}]");
    let mut total = 0.0;
    let mut count = 0u64;
    for b in benches {
        for h in &b.histograms {
            if h.name == key && h.count > 0 {
                total += (h.mean * h.count) as f64;
                count += h.count;
            }
        }
    }
    (count > 0).then(|| total / count as f64 / 1e3)
}

fn section_search(out: &mut String, ledgers: &[LedgerData], benches: &[BenchReport]) {
    out.push_str("<h2>Search</h2>");
    let mut plotted = false;
    for l in ledgers {
        let finished = l.finished();
        let failed = l.failure_reasons();
        if finished.is_empty() && failed.is_empty() {
            continue;
        }
        plotted = true;
        let _ = write!(
            out,
            "<h3>{} — {}</h3>",
            esc(&l.header.workload),
            esc(&l.header.run_id)
        );
        let families = uniques(finished.iter().map(|t| t.2));
        let frame = Frame::new(
            finished.iter().map(|t| t.0 as f64),
            finished.iter().map(|t| t.3),
        );
        frame.open(out);
        for &(trial, rung, family, score) in &finished {
            if !score.is_finite() {
                continue;
            }
            let fi = families.iter().position(|f| f == family).unwrap_or(0);
            // Higher rungs get larger markers: the survivors stand out.
            let _ = write!(
                out,
                "<circle cx=\"{}\" cy=\"{}\" r=\"{}\" fill=\"{}\" fill-opacity=\"0.75\"/>",
                px(frame.x(trial as f64)),
                px(frame.y(score)),
                px(2.0 + rung as f64),
                color(fi),
            );
        }
        out.push_str("</svg>");
        legend(out, &families);
        out.push_str(
            "<table><tr><th>family</th><th>trials</th><th>best score</th>\
             <th>mean score</th><th>mean fit (ms)</th></tr>",
        );
        for (fi, family) in families.iter().enumerate() {
            let scores: Vec<f64> = finished
                .iter()
                .filter(|t| t.2 == family && t.3.is_finite())
                .map(|t| t.3)
                .collect();
            let best = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mean = scores.iter().sum::<f64>() / scores.len().max(1) as f64;
            let fit = family_fit_ms(benches, family)
                .map(|ms| format!("{ms:.2}"))
                .unwrap_or_else(|| "—".into());
            let _ = write!(
                out,
                "<tr><td style=\"color:{}\">{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                color(fi),
                esc(family),
                scores.len(),
                sig(best),
                sig(mean),
                fit,
            );
        }
        out.push_str("</table>");
        if !failed.is_empty() {
            let mut by_reason: BTreeMap<&str, usize> = BTreeMap::new();
            for reason in &failed {
                *by_reason.entry(reason).or_default() += 1;
            }
            let breakdown = by_reason
                .iter()
                .map(|(r, n)| format!("{}: {n}", esc(r)))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(
                out,
                "<p class=\"note\">{} trial(s) failed ({breakdown}).</p>",
                failed.len()
            );
        }
    }
    if !plotted {
        out.push_str("<p class=\"note\">No trials recorded.</p>");
    }
}

fn section_ensembles(out: &mut String, ledgers: &[LedgerData]) {
    out.push_str("<h2>Ensembles</h2>");
    let mut any = false;
    for l in ledgers {
        // The last selection is the one that shipped.
        let Some((val_score, members)) = l.shipped_ensemble() else {
            continue;
        };
        any = true;
        let _ = write!(
            out,
            "<h3>{} — {} (val score {})</h3>",
            esc(&l.header.workload),
            esc(&l.header.run_id),
            sig(val_score)
        );
        out.push_str(
            "<table><tr><th>trial</th><th>family</th><th>weight</th><th>member score</th></tr>",
        );
        for m in members {
            let _ = write!(
                out,
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                m.trial,
                esc(&m.family),
                sig(m.weight),
                sig(m.score),
            );
        }
        out.push_str("</table>");
    }
    if !any {
        out.push_str("<p class=\"note\">No ensemble selections recorded.</p>");
    }
}

fn section_rounds(out: &mut String, ledgers: &[LedgerData]) {
    out.push_str("<h2>Feedback rounds</h2>");
    let mut any = false;
    for l in ledgers {
        let rounds = l.rounds();
        if rounds.is_empty() {
            continue;
        }
        any = true;
        let _ = write!(
            out,
            "<h3>{} — {}</h3>",
            esc(&l.header.workload),
            esc(&l.header.run_id)
        );
        let strategies = uniques(rounds.iter().map(|r| r.0));
        let series = |strategy: &str| {
            rounds
                .iter()
                .filter(|r| r.0 == strategy)
                .collect::<Vec<_>>()
        };
        // x = round index within the strategy's own series.
        let max_len = strategies
            .iter()
            .map(|s| series(s).len())
            .max()
            .unwrap_or(1);
        let frame = Frame::new(
            (0..max_len).map(|i| i as f64),
            rounds.iter().flat_map(|&(_, [_, min, max], ..)| [min, max]),
        );
        frame.open(out);
        for (si, strategy) in strategies.iter().enumerate() {
            let series = series(strategy);
            let band: Vec<(f64, f64)> = series
                .iter()
                .enumerate()
                .map(|(i, &&(_, [_, _, max], ..))| (frame.x(i as f64), frame.y(max)))
                .chain(
                    series
                        .iter()
                        .enumerate()
                        .rev()
                        .map(|(i, &&(_, [_, min, _], ..))| (frame.x(i as f64), frame.y(min))),
                )
                .collect();
            polygon(out, &band, color(si));
            let mean: Vec<(f64, f64)> = series
                .iter()
                .enumerate()
                .filter(|(_, r)| r.1[0].is_finite())
                .map(|(i, r)| (frame.x(i as f64), frame.y(r.1[0])))
                .collect();
            polyline(out, &mean, color(si), "stroke-width=\"1.6\"");
        }
        out.push_str("</svg>");
        legend(out, &strategies);
        out.push_str(
            "<table><tr><th>strategy</th><th>rounds</th><th>final acc</th>\
             <th>points added</th><th>regions</th></tr>",
        );
        for strategy in &strategies {
            let series = series(strategy);
            let last = series.last().map(|r| r.1[0]).unwrap_or(f64::NAN);
            let points: u64 = series.iter().map(|r| r.2).sum();
            let regions: u64 = series.iter().map(|r| r.3).sum();
            let _ = write!(
                out,
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                esc(strategy),
                series.len(),
                sig(last),
                points,
                regions,
            );
        }
        out.push_str("</table>");
    }
    if !any {
        out.push_str("<p class=\"note\">No feedback rounds recorded.</p>");
    }
}

/// Cap on ALE band plots per ledger so a wide run can't bloat the file.
const MAX_BAND_PLOTS: usize = 8;

fn section_bands(out: &mut String, ledgers: &[LedgerData]) {
    out.push_str("<h2>ALE bands and suggested regions</h2>");
    let mut any = false;
    for l in ledgers {
        let latest = l.latest_bands();
        let total = latest.len();
        for band in latest.into_iter().take(MAX_BAND_PLOTS) {
            let LedgerEvent::RegionSuggested {
                feature,
                name,
                threshold,
                intervals,
                grid,
                mean,
                std,
            } = band
            else {
                continue;
            };
            if grid.len() != mean.len() || grid.len() != std.len() {
                continue;
            }
            any = true;
            let _ = write!(
                out,
                "<h3>{} (feature {}) — {} — threshold {}</h3>",
                esc(name),
                feature,
                esc(&l.header.run_id),
                sig(*threshold),
            );
            let frame = Frame::new(
                grid.iter().copied(),
                mean.iter().zip(std).flat_map(|(m, s)| [m - s, m + s]),
            );
            frame.open(out);
            // Suggested intervals: full-height shaded rects.
            for (lo, hi) in intervals {
                if !lo.is_finite() || !hi.is_finite() {
                    continue;
                }
                let x0 = frame.x(lo.max(frame.x0));
                let x1 = frame.x(hi.min(frame.x1));
                let _ = write!(
                    out,
                    "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" fill=\"#c44e52\" fill-opacity=\"0.12\"/>",
                    px(x0),
                    px(frame.mt),
                    px((x1 - x0).max(1.0)),
                    px(frame.h - frame.mt - frame.mb),
                );
            }
            // ±std band around the mean.
            let band_pts: Vec<(f64, f64)> = grid
                .iter()
                .zip(mean.iter().zip(std))
                .map(|(g, (m, s))| (frame.x(*g), frame.y(m + s)))
                .chain(
                    grid.iter()
                        .zip(mean.iter().zip(std))
                        .rev()
                        .map(|(g, (m, s))| (frame.x(*g), frame.y(m - s))),
                )
                .collect();
            polygon(out, &band_pts, "#2f6fb4");
            let mean_pts: Vec<(f64, f64)> = grid
                .iter()
                .zip(mean)
                .filter(|(g, m)| g.is_finite() && m.is_finite())
                .map(|(g, m)| (frame.x(*g), frame.y(*m)))
                .collect();
            polyline(out, &mean_pts, "#2f6fb4", "stroke-width=\"1.6\"");
            out.push_str("</svg>");
            let _ = write!(
                out,
                "<p class=\"note\">{} suggested interval(s); shaded red. Blue band is cross-model mean&#177;std ALE.</p>",
                intervals.len()
            );
        }
        if total > MAX_BAND_PLOTS {
            let _ = write!(
                out,
                "<p class=\"note\">{} further feature(s) omitted from {}.</p>",
                total - MAX_BAND_PLOTS,
                esc(&l.header.run_id)
            );
        }
    }
    if !any {
        out.push_str("<p class=\"note\">No suggested regions recorded.</p>");
    }
}

fn section_perf(out: &mut String, benches: &[BenchReport]) {
    out.push_str("<h2>Perf</h2>");
    if benches.is_empty() {
        out.push_str("<p class=\"note\">No BENCH records given.</p>");
        return;
    }
    out.push_str(
        "<table><tr><th>workload</th><th>git</th><th>wall (s)</th>\
         <th>top spans (s)</th><th>alloc</th><th>peak</th><th>events dropped</th></tr>",
    );
    for b in benches {
        let dropped = b
            .counters
            .iter()
            .find(|(n, _)| n == "telemetry.events_dropped")
            .map(|(_, v)| fmt_u64(*v))
            .unwrap_or_else(|| "0".into());
        let (alloc, peak) = b
            .alloc
            .map(|a| (fmt_bytes(a.bytes), fmt_bytes(a.peak_bytes)))
            .unwrap_or_else(|| ("—".into(), "—".into()));
        let _ = write!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{:.2}</td><td>{:.2}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(&b.workload),
            esc(&b.git),
            b.wall_time_s,
            b.top_span_total_s,
            alloc,
            peak,
            dropped,
        );
    }
    out.push_str("</table>");
    for b in benches {
        let mut spans = b.spans.clone();
        spans.sort_by(|a, b| b.total_s.total_cmp(&a.total_s));
        spans.truncate(5);
        if spans.is_empty() {
            continue;
        }
        let _ = write!(out, "<h3>{} — top spans</h3>", esc(&b.workload));
        out.push_str(
            "<table><tr><th>span</th><th>calls</th><th>total (s)</th>\
             <th>mean (ms)</th><th>max (ms)</th></tr>",
        );
        for s in &spans {
            let _ = write!(
                out,
                "<tr><td>{}</td><td>{}</td><td>{:.3}</td><td>{:.3}</td><td>{:.3}</td></tr>",
                esc(&s.name),
                s.calls,
                s.total_s,
                s.mean_ms,
                s.max_ms,
            );
        }
        out.push_str("</table>");
    }
}

fn section_crit(out: &mut String, crits: &[CritReport]) {
    out.push_str("<h2>Critical path</h2>");
    if crits.is_empty() {
        out.push_str("<p class=\"note\">No crit.json reports given (run with --crit-out).</p>");
        return;
    }
    for report in crits {
        let _ = write!(
            out,
            "<p class=\"note\">wall {:.2}ms, chain {:.2}ms, dominant phase {}, \
             Amdahl ceiling {:.1}x (serial fraction {:.2}).</p>",
            report.wall_ns as f64 / 1e6,
            report.critical_path_ns as f64 / 1e6,
            esc(&report.dominant_phase),
            report.amdahl.max_speedup,
            report.amdahl.serial_fraction,
        );
        // The standalone artifact carries an xmlns so the .svg opens in a
        // browser; inline in HTML it is redundant and would break the
        // report's no-external-references contract (no `http` anywhere).
        let svg = crate::critview::render_crit_svg(report)
            .replace(" xmlns=\"http://www.w3.org/2000/svg\"", "");
        out.push_str(&svg);
    }
}

/// Search observability: declared-space coverage + importance bars per
/// `family.dimension`, and score scatters for the highest-importance
/// dimensions. One search report per ledger input, recomputed from its
/// `search_space` / `trial_started` lines.
fn section_search_space(out: &mut String, searches: &[SearchReport]) {
    out.push_str("<h2>Search space</h2>");
    let active: Vec<&SearchReport> = searches.iter().filter(|s| s.started > 0).collect();
    if active.is_empty() {
        out.push_str(
            "<p class=\"note\">No search telemetry in the given ledgers \
             (older runs predate the search_space event).</p>",
        );
        return;
    }
    for report in active {
        let _ = write!(
            out,
            "<p class=\"note\">{} fits started, {} finished, {} failed across {} families; \
             funnel: ",
            report.started,
            report.finished,
            report.failed,
            report.families.len()
        );
        for (i, r) in report.rungs.iter().enumerate() {
            if i > 0 {
                out.push_str(" &#8594; ");
            }
            let _ = write!(
                out,
                "rung {}: {}/{} promoted",
                r.rung, r.promoted, r.started
            );
        }
        out.push_str(".</p>");
        let svg = crate::searchview::render_importance_svg(report, 16)
            .replace(" xmlns=\"http://www.w3.org/2000/svg\"", "");
        out.push_str(&svg);
        // Score scatters for the dimensions the scores depended on most.
        let mut dims: Vec<(&str, &aml_telemetry::searchview::DimReport)> = report
            .families
            .iter()
            .flat_map(|f| f.dims.iter().map(move |d| (f.family.as_str(), d)))
            .filter(|(_, d)| !d.points.is_empty())
            .collect();
        dims.sort_by(|a, b| {
            b.1.importance
                .partial_cmp(&a.1.importance)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.0, &a.1.name).cmp(&(b.0, &b.1.name)))
        });
        for (family, dim) in dims.into_iter().take(6) {
            let svg = crate::searchview::render_dim_scatter_svg(family, dim)
                .replace(" xmlns=\"http://www.w3.org/2000/svg\"", "");
            out.push_str(&svg);
        }
    }
}

/// Model/data-quality plane: per-round accuracy/calibration table plus
/// the confusion heat grid, reliability diagram and drift bars from
/// [`crate::qualityview`]. One quality report per ledger input,
/// recomputed from its `dataset_profile` / `model_diagnostics` lines.
fn section_quality(out: &mut String, qualities: &[QualityReport]) {
    out.push_str("<h2>Model quality</h2>");
    let active: Vec<&QualityReport> = qualities.iter().filter(|q| !q.rounds.is_empty()).collect();
    if active.is_empty() {
        out.push_str(
            "<p class=\"note\">No quality telemetry in the given ledgers \
             (older runs predate the dataset_profile event).</p>",
        );
        return;
    }
    for q in active {
        out.push_str(
            "<table><tr><th>round</th><th>strategy</th><th>rows</th><th>acc</th>\
             <th>bal acc</th><th>macro F1</th><th>brier</th><th>ECE</th>\
             <th>ALE band</th><th>PSI mean</th></tr>",
        );
        for r in &q.rounds {
            let _ = write!(
                out,
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
                 <td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                r.round,
                esc(&r.strategy),
                r.rows,
                sig(r.accuracy),
                sig(r.balanced_accuracy),
                sig(r.macro_f1),
                sig(r.brier),
                sig(r.ece),
                sig(r.ale_band_width),
                r.psi_mean.map(sig).unwrap_or_else(|| "—".into()),
            );
        }
        out.push_str("</table>");
        // The standalone SVG helpers carry an xmlns for browser viewing;
        // inline it is redundant and would break the no-`http` contract.
        if let Some(diag) = &q.final_diag {
            let svg = crate::qualityview::render_confusion_svg(diag)
                .replace(" xmlns=\"http://www.w3.org/2000/svg\"", "");
            out.push_str(&svg);
            let svg = crate::qualityview::render_reliability_svg(&diag.reliability)
                .replace(" xmlns=\"http://www.w3.org/2000/svg\"", "");
            out.push_str(&svg);
        }
        let svg = crate::qualityview::render_drift_svg(&q.drift)
            .replace(" xmlns=\"http://www.w3.org/2000/svg\"", "");
        out.push_str(&svg);
        if q.dropped > 0 {
            let _ = write!(
                out,
                "<p class=\"note\">{} quality event(s) dropped at the collector cap.</p>",
                q.dropped
            );
        }
    }
}

/// Render the full report. Pure: input structs in, one HTML string out.
/// The page references no external assets (the self-containment tests
/// assert there is no `http` substring anywhere in the output).
pub fn render_html(
    ledgers: &[LedgerData],
    benches: &[BenchReport],
    crits: &[CritReport],
    searches: &[SearchReport],
    qualities: &[QualityReport],
    title: &str,
) -> String {
    let mut out = String::with_capacity(64 * 1024);
    let _ = write!(
        out,
        "<!doctype html><html><head><meta charset=\"utf-8\">\
         <title>{}</title><style>{STYLE}</style></head><body><h1>{}</h1>",
        esc(title),
        esc(title)
    );
    let _ = write!(
        out,
        "<p class=\"note\">{} ledger(s), {} BENCH record(s), {} crit report(s). \
         Ledger schema v{}.</p>",
        ledgers.len(),
        benches.len(),
        crits.len(),
        LEDGER_SCHEMA_VERSION
    );
    section_runs(&mut out, ledgers);
    section_search(&mut out, ledgers, benches);
    section_ensembles(&mut out, ledgers);
    section_rounds(&mut out, ledgers);
    section_bands(&mut out, ledgers);
    section_perf(&mut out, benches);
    section_crit(&mut out, crits);
    section_search_space(&mut out, searches);
    section_quality(&mut out, qualities);
    out.push_str("</body></html>");
    out
}

// ---------------------------------------------------------------- compare

/// Shipped ensemble's weight per family (encounter order), from the last
/// `ensemble_selected` event. Empty when no ensemble was recorded.
fn family_weights(l: &LedgerData) -> Vec<(String, f64)> {
    let mut weights: Vec<(String, f64)> = Vec::new();
    if let Some((_, members)) = l.shipped_ensemble() {
        for m in members {
            if let Some(slot) = weights.iter_mut().find(|(f, _)| f == &m.family) {
                slot.1 += m.weight;
            } else {
                weights.push((m.family.clone(), m.weight));
            }
        }
    }
    weights
}

/// `(feature, name, threshold, intervals)` of a `region_suggested` event.
type BandSummary<'a> = (u64, &'a str, f64, &'a [(f64, f64)]);

fn band_summary(e: &LedgerEvent) -> Option<BandSummary<'_>> {
    match e {
        LedgerEvent::RegionSuggested {
            feature,
            name,
            threshold,
            intervals,
            ..
        } => Some((*feature, name.as_str(), *threshold, &intervals[..])),
        _ => None,
    }
}

/// Total length covered by a band's suggested intervals.
fn interval_len(intervals: &[(f64, f64)]) -> f64 {
    intervals
        .iter()
        .filter(|(lo, hi)| lo.is_finite() && hi.is_finite())
        .map(|(lo, hi)| (hi - lo).max(0.0))
        .sum()
}

/// Signed delta cell: `b - a`, with an explicit `+` so drift direction
/// reads at a glance.
fn delta(a: f64, b: f64) -> String {
    let d = b - a;
    if !d.is_finite() {
        return "?".into();
    }
    if d >= 0.0 {
        format!("+{}", sig(d))
    } else {
        format!("&#8722;{}", sig(-d))
    }
}

fn section_compare_summary(out: &mut String, a: &LedgerData, b: &LedgerData) {
    out.push_str("<h2>Runs compared</h2>");
    out.push_str(
        "<table><tr><th>run</th><th>workload</th><th>seed</th><th>git</th>\
         <th>finished</th><th>failed</th><th>rounds</th><th>regions</th></tr>",
    );
    for (label, l) in [("A", a), ("B", b)] {
        let _ = write!(
            out,
            "<tr><td>{label}: {}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(&l.header.run_id),
            esc(&l.header.workload),
            l.header.seed,
            esc(&l.header.git),
            l.count(|e| matches!(e, LedgerEvent::TrialFinished { .. })),
            l.count(|e| matches!(e, LedgerEvent::TrialFailed { .. })),
            l.count(|e| matches!(e, LedgerEvent::RoundCompleted { .. })),
            l.count(|e| matches!(e, LedgerEvent::RegionSuggested { .. })),
        );
    }
    out.push_str("</table>");
    if a.header.workload != b.header.workload {
        out.push_str(
            "<p class=\"note\">Workloads differ — deltas below compare \
             different problems; read accordingly.</p>",
        );
    }
}

fn section_compare_rounds(out: &mut String, a: &LedgerData, b: &LedgerData) {
    out.push_str("<h2>Per-round accuracy delta</h2>");
    let (ra, rb) = (a.rounds(), b.rounds());
    if ra.is_empty() && rb.is_empty() {
        out.push_str("<p class=\"note\">Neither run recorded feedback rounds.</p>");
        return;
    }
    let mut strategies = uniques(ra.iter().map(|r| r.0));
    for s in uniques(rb.iter().map(|r| r.0)) {
        if !strategies.contains(&s) {
            strategies.push(s);
        }
    }
    // Mean accuracy per round of one strategy's series.
    fn series(rounds: &[(&str, [f64; 3], u64, u64)], strategy: &str) -> Vec<f64> {
        rounds
            .iter()
            .filter(|r| r.0 == strategy)
            .map(|r| r.1[0])
            .collect()
    }
    let max_len = strategies
        .iter()
        .map(|s| series(&ra, s).len().max(series(&rb, s).len()))
        .max()
        .unwrap_or(1);
    let frame = Frame::new(
        (0..max_len).map(|i| i as f64),
        ra.iter()
            .chain(&rb)
            .map(|r| r.1[0])
            .filter(|v| v.is_finite()),
    );
    frame.open(out);
    for (si, strategy) in strategies.iter().enumerate() {
        for (rounds, extra) in [
            (&ra, "stroke-width=\"1.6\""),
            (&rb, "stroke-width=\"1.6\" stroke-dasharray=\"5,3\""),
        ] {
            let pts: Vec<(f64, f64)> = series(rounds, strategy)
                .into_iter()
                .enumerate()
                .filter(|(_, acc)| acc.is_finite())
                .map(|(i, acc)| (frame.x(i as f64), frame.y(acc)))
                .collect();
            polyline(out, &pts, color(si), extra);
        }
    }
    out.push_str("</svg>");
    legend(out, &strategies);
    out.push_str("<p class=\"note\">Solid = A, dashed = B. Mean accuracy per round.</p>");
    out.push_str(
        "<table><tr><th>strategy</th><th>round</th><th>acc A</th>\
         <th>acc B</th><th>&#916; (B &#8722; A)</th></tr>",
    );
    for strategy in &strategies {
        let sa = series(&ra, strategy);
        let sb = series(&rb, strategy);
        for i in 0..sa.len().max(sb.len()) {
            let va = sa.get(i).copied();
            let vb = sb.get(i).copied();
            let _ = write!(
                out,
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                esc(strategy),
                i,
                va.map(sig).unwrap_or_else(|| "—".into()),
                vb.map(sig).unwrap_or_else(|| "—".into()),
                match (va, vb) {
                    (Some(va), Some(vb)) => delta(va, vb),
                    _ => "—".into(),
                },
            );
        }
    }
    out.push_str("</table>");
}

fn section_compare_ensembles(out: &mut String, a: &LedgerData, b: &LedgerData) {
    out.push_str("<h2>Ensemble composition changes</h2>");
    let wa = family_weights(a);
    let wb = family_weights(b);
    if wa.is_empty() && wb.is_empty() {
        out.push_str("<p class=\"note\">Neither run recorded an ensemble selection.</p>");
        return;
    }
    let val = |l: &LedgerData| l.shipped_ensemble().map(|(v, _)| v);
    if let (Some(va), Some(vb)) = (val(a), val(b)) {
        let _ = write!(
            out,
            "<p class=\"note\">Validation score: A {} &#8594; B {} ({}).</p>",
            sig(va),
            sig(vb),
            delta(va, vb),
        );
    }
    let mut families: Vec<String> = wa.iter().map(|(f, _)| f.clone()).collect();
    for (f, _) in &wb {
        if !families.contains(f) {
            families.push(f.clone());
        }
    }
    out.push_str(
        "<table><tr><th>family</th><th>weight A</th><th>weight B</th>\
         <th>&#916; (B &#8722; A)</th></tr>",
    );
    for (fi, family) in families.iter().enumerate() {
        let ga = wa.iter().find(|(f, _)| f == family).map(|(_, w)| *w);
        let gb = wb.iter().find(|(f, _)| f == family).map(|(_, w)| *w);
        let _ = write!(
            out,
            "<tr><td style=\"color:{}\">{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            color(fi),
            esc(family),
            ga.map(sig).unwrap_or_else(|| "—".into()),
            gb.map(sig).unwrap_or_else(|| "—".into()),
            delta(ga.unwrap_or(0.0), gb.unwrap_or(0.0)),
        );
    }
    out.push_str("</table>");
}

fn section_compare_bands(out: &mut String, a: &LedgerData, b: &LedgerData) {
    out.push_str("<h2>Region-suggestion drift</h2>");
    let la: Vec<_> = a
        .latest_bands()
        .into_iter()
        .filter_map(band_summary)
        .collect();
    let lb: Vec<_> = b
        .latest_bands()
        .into_iter()
        .filter_map(band_summary)
        .collect();
    if la.is_empty() && lb.is_empty() {
        out.push_str("<p class=\"note\">Neither run suggested regions.</p>");
        return;
    }
    let mut features: Vec<u64> = la.iter().map(|band| band.0).collect();
    for band in &lb {
        if !features.contains(&band.0) {
            features.push(band.0);
        }
    }
    out.push_str(
        "<table><tr><th>feature</th><th>threshold A</th><th>threshold B</th>\
         <th>&#916; thr</th><th>intervals A</th><th>intervals B</th>\
         <th>length A</th><th>length B</th><th>&#916; length</th></tr>",
    );
    for feature in features {
        let ba = la.iter().find(|band| band.0 == feature);
        let bb = lb.iter().find(|band| band.0 == feature);
        let name = ba.or(bb).map(|band| band.1).unwrap_or("?");
        let opt = |v: Option<f64>| v.map(sig).unwrap_or_else(|| "—".into());
        let _ = write!(
            out,
            "<tr><td>{} ({feature})</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(name),
            opt(ba.map(|band| band.2)),
            opt(bb.map(|band| band.2)),
            match (ba, bb) {
                (Some(ba), Some(bb)) => delta(ba.2, bb.2),
                _ => "—".into(),
            },
            ba.map(|band| band.3.len().to_string())
                .unwrap_or_else(|| "—".into()),
            bb.map(|band| band.3.len().to_string())
                .unwrap_or_else(|| "—".into()),
            opt(ba.map(|band| interval_len(band.3))),
            opt(bb.map(|band| interval_len(band.3))),
            match (ba, bb) {
                (Some(ba), Some(bb)) => delta(interval_len(ba.3), interval_len(bb.3)),
                _ => "—".into(),
            },
        );
    }
    out.push_str("</table>");
    out.push_str(
        "<p class=\"note\">Per feature: last suggested band in each run. \
         Length is the summed width of suggested intervals.</p>",
    );
}

/// Render a cross-run diff of two ledgers (the bin's `--compare` mode).
/// `qa`/`qb` are the runs' recomputed quality reports; when both carry
/// rounds, the header surfaces the final-accuracy and ECE deltas. Same
/// self-containment contract as [`render_html`]: no scripts, no
/// external assets, one HTML string out.
pub fn render_compare_html(
    a: &LedgerData,
    b: &LedgerData,
    qa: Option<&QualityReport>,
    qb: Option<&QualityReport>,
    title: &str,
) -> String {
    let mut out = String::with_capacity(32 * 1024);
    let _ = write!(
        out,
        "<!doctype html><html><head><meta charset=\"utf-8\">\
         <title>{}</title><style>{STYLE}</style></head><body><h1>{}</h1>",
        esc(title),
        esc(title)
    );
    let _ = write!(
        out,
        "<p class=\"note\">A = {} vs B = {}. Ledger schema v{}.</p>",
        esc(&a.header.run_id),
        esc(&b.header.run_id),
        LEDGER_SCHEMA_VERSION
    );
    if let (Some(ra), Some(rb)) = (
        qa.and_then(|q| q.rounds.last()),
        qb.and_then(|q| q.rounds.last()),
    ) {
        let _ = write!(
            out,
            "<p class=\"note\">Final accuracy: A {} &#8594; B {} ({}). \
             ECE: A {} &#8594; B {} ({}).</p>",
            sig(ra.accuracy),
            sig(rb.accuracy),
            delta(ra.accuracy, rb.accuracy),
            sig(ra.ece),
            sig(rb.ece),
            delta(ra.ece, rb.ece),
        );
    }
    section_compare_summary(&mut out, a, b);
    section_compare_rounds(&mut out, a, b);
    section_compare_ensembles(&mut out, a, b);
    section_compare_bands(&mut out, a, b);
    out.push_str("</body></html>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{BenchAlloc, BenchHist, BenchSpan};

    fn sample_ledger_text() -> String {
        [
            r#"{"type":"ledger","schema_version":1,"run_id":"w-s1-p2","workload":"w","seed":1,"git":"abc"}"#,
            r#"{"type":"search_space","families":[{"family":"forest","dims":[{"name":"trees","kind":"int","scale":"linear","lo":4,"hi":16,"choices":[]}]},{"family":"logreg","dims":[{"name":"l2","kind":"float","scale":"log10","lo":0.00001,"hi":1,"choices":[]}]}]}"#,
            r#"{"type":"trial_started","trial":0,"rung":0,"family":"forest","config":"ForestConfig { trees: 8 }","params":{"trees":8}}"#,
            r#"{"type":"trial_finished","trial":0,"rung":0,"family":"forest","score":0.91}"#,
            r#"{"type":"trial_started","trial":3,"rung":0,"family":"forest","config":"ForestConfig { trees: 14 }","params":{"trees":14}}"#,
            r#"{"type":"trial_finished","trial":3,"rung":0,"family":"forest","score":0.84}"#,
            r#"{"type":"trial_started","trial":1,"rung":0,"family":"logreg","config":"LogRegConfig { l2: 0.1 }","params":{"l2":0.1}}"#,
            r#"{"type":"trial_failed","trial":1,"rung":0,"family":"logreg","reason":"panic"}"#,
            r#"{"type":"trial_finished","trial":2,"rung":1,"family":"forest","score":null}"#,
            r#"{"type":"ensemble_selected","val_score":0.93,"members":[{"trial":0,"family":"forest","weight":3,"score":0.91}]}"#,
            r#"{"type":"round_completed","round":0,"strategy":"Within-ALE","acc_mean":0.8,"acc_min":0.7,"acc_max":0.9,"points_added":40,"regions":2,"ale_std_mean":0.02,"ale_std_max":0.09}"#,
            r#"{"type":"round_completed","round":1,"strategy":"Within-ALE","acc_mean":0.85,"acc_min":0.8,"acc_max":0.9,"points_added":40,"regions":1,"ale_std_mean":0.01,"ale_std_max":0.05}"#,
            r#"{"type":"round_completed","round":2,"strategy":"Random","acc_mean":0.75,"acc_min":0.7,"acc_max":0.8,"points_added":40,"regions":0,"ale_std_mean":0,"ale_std_max":0}"#,
            r#"{"type":"region_suggested","feature":0,"name":"pkt_size","threshold":0.05,"intervals":[[0.2,0.4],[0.7,0.9]],"grid":[0,0.25,0.5,0.75,1],"mean":[0.1,0.3,0.2,0.4,0.1],"std":[0.01,0.08,0.02,0.09,0.01]}"#,
            r#"{"type":"ale_curve","feature":0,"model":"forest","method":"ale","grid_points":5,"rows":200}"#,
            r#"{"type":"dataset_profile","round":0,"split":"train","rows":4,"class_counts":[2,2],"features":[{"name":"pkt_size","count":4,"mean":0.4,"std":0.2,"min":0.1,"max":0.9,"log10":false,"lo":0,"hi":1,"bins":[2,1,0,1]}]}"#,
            r#"{"type":"model_diagnostics","round":0,"strategy":"Within-ALE","rows":2,"classes":["a","b"],"confusion":[[1,0],[1,0]],"brier":0.4,"bin_count":[0,0,0,0,0,0,0,2,0,0],"bin_conf_sum":[0,0,0,0,0,0,0,1.5,0,0],"bin_hit":[0,0,0,0,0,0,0,1,0,0],"ale_band_width":0.3}"#,
            r#"{"type":"dataset_profile","round":1,"split":"train","rows":6,"class_counts":[3,3],"features":[{"name":"pkt_size","count":6,"mean":0.5,"std":0.3,"min":0.1,"max":0.95,"log10":false,"lo":0,"hi":1,"bins":[2,1,0,3]}]}"#,
            r#"{"type":"model_diagnostics","round":1,"strategy":"Within-ALE","rows":2,"classes":["a","b"],"confusion":[[1,0],[0,1]],"brier":0.1,"bin_count":[0,0,0,0,0,0,0,0,2,0],"bin_conf_sum":[0,0,0,0,0,0,0,0,1.7,0],"bin_hit":[0,0,0,0,0,0,0,0,2,0],"ale_band_width":0.1}"#,
            r#"{"type":"some_future_event","payload":42}"#,
        ]
        .join("\n")
    }

    fn sample_bench() -> BenchReport {
        BenchReport {
            workload: "w".into(),
            seed: 1,
            scale: 0.05,
            threads: 2,
            git: "abc".into(),
            wall_time_s: 10.0,
            top_span_total_s: 9.5,
            spans: vec![BenchSpan {
                name: "automl.search.run".into(),
                calls: 4,
                total_s: 2.0,
                mean_ms: 500.0,
                max_ms: 900.0,
            }],
            counters: vec![("telemetry.events_dropped".into(), 2)],
            throughput: vec![],
            histograms: vec![BenchHist {
                name: "automl.fit_us[forest]".into(),
                count: 4,
                mean: 1500,
                p50: 1400,
                p95: 2000,
                max: 2100,
            }],
            alloc: Some(BenchAlloc {
                bytes: 4 << 20,
                count: 1000,
                peak_bytes: 1 << 20,
            }),
        }
    }

    /// A small hand-built critical-path report (datagen -> labeling ->
    /// one parallel scenario) for the section-7 rendering tests.
    fn sample_crit() -> aml_telemetry::CritReport {
        use aml_telemetry::crit::{PhaseStat, Segment};
        aml_telemetry::CritReport {
            wall_ns: 5_000_000,
            cpu_ns: Some(9_000_000),
            dominant_phase: "bench.datagen".into(),
            critical_path_ns: 4_200_000,
            path: vec![
                Segment {
                    name: "bench.datagen".into(),
                    id: 7,
                    depth: 0,
                    total_ns: 4_200_000,
                    contribution_ns: 2_600_000,
                    parallel: false,
                },
                Segment {
                    name: "netsim.scenario".into(),
                    id: 11,
                    depth: 1,
                    total_ns: 1_600_000,
                    contribution_ns: 1_600_000,
                    parallel: true,
                },
            ],
            phases: vec![PhaseStat {
                name: "bench.datagen".into(),
                total_ns: 4_200_000,
                work_ns: 6_000_000,
                ideal_ns: 3_900_000,
                serial_fraction: 0.65,
                max_speedup: 1.54,
                subtree_spans: 4,
            }],
            amdahl: PhaseStat {
                name: "run".into(),
                total_ns: 4_200_000,
                work_ns: 6_000_000,
                ideal_ns: 3_900_000,
                serial_fraction: 0.65,
                max_speedup: 1.54,
                subtree_spans: 5,
            },
            scenarios: None,
            nodes: 5,
            nodes_dropped: 0,
        }
    }

    #[test]
    fn report_is_self_contained_and_has_all_sections() {
        let l = parse_ledger(&sample_ledger_text()).unwrap();
        let s = crate::searchview::parse_search_ledger(&sample_ledger_text()).unwrap();
        let q = crate::qualityview::parse_quality_ledger(&sample_ledger_text()).unwrap();
        let html = render_html(
            &[l],
            &[sample_bench()],
            &[sample_crit()],
            &[s],
            &[q],
            "test report",
        );
        // Single file, no external references of any kind.
        assert!(!html.contains("http"), "external reference in report");
        assert!(!html.contains("<script"), "no scripts allowed");
        assert!(html.len() < 2 * 1024 * 1024, "report too large");
        // All nine sections render.
        for heading in [
            "Runs",
            "Search",
            "Ensembles",
            "Feedback rounds",
            "ALE bands",
            "Perf",
            "Critical path",
            "Search space",
            "Model quality",
        ] {
            assert!(html.contains(heading), "missing section {heading}");
        }
        // Charts are inline SVG, and open/close tags balance.
        assert!(html.contains("<svg"), "no charts rendered");
        assert_eq!(html.matches("<svg").count(), html.matches("</svg>").count());
        assert_eq!(
            html.matches("<table").count(),
            html.matches("</table>").count()
        );
        // Data from every section shows up.
        assert!(html.contains("forest"));
        assert!(html.contains("Within-ALE"));
        assert!(html.contains("pkt_size"));
        assert!(html.contains("automl.search.run"));
        // The dropped-events counter from BENCH surfaces in Perf.
        assert!(html.contains("events dropped"));
        // The crit section carries the chain chart and the Amdahl note.
        assert!(html.contains("bench.datagen"));
        assert!(html.contains("Amdahl ceiling 1.5x"));
        assert!(html.contains("[par]"));
        // The search-space section carries importance bars and a funnel.
        assert!(html.contains("forest.trees"));
        assert!(html.contains("importance"));
        assert!(html.contains("rung 0:"));
        // The quality section carries the calibration table and panels.
        assert!(html.contains("ECE"));
        assert!(html.contains("reliability (confidence vs accuracy)"));
        assert!(html.contains("confusion (row = true class)"));
        assert!(html.contains("drift vs previous_round"));
    }

    #[test]
    fn empty_inputs_still_render_a_valid_page() {
        let html = render_html(&[], &[], &[], &[], &[], "empty");
        assert!(html.contains("No ledgers given"));
        assert!(html.contains("No BENCH records given"));
        assert!(html.contains("No crit.json reports given"));
        assert!(html.contains("No search telemetry"));
        assert!(html.contains("No quality telemetry"));
        assert!(html.contains("</html>"));
        assert!(!html.contains("http"));
    }

    #[test]
    fn family_fit_time_joins_from_bench_histograms() {
        let b = sample_bench();
        let ms = family_fit_ms(&[b], "forest").unwrap();
        assert!((ms - 1.5).abs() < 1e-9, "{ms}");
        assert!(family_fit_ms(&[sample_bench()], "mlp").is_none());
    }

    /// A second run of the same workload with drifted numbers: slightly
    /// better accuracy, a reweighted ensemble with a new family, and a
    /// shifted region suggestion.
    fn shifted_ledger_text() -> String {
        sample_ledger_text()
            .replace("\"run_id\":\"w-s1-p2\"", "\"run_id\":\"w-s2-p2\"")
            .replace("\"seed\":1,", "\"seed\":2,")
            .replace("\"acc_mean\":0.85", "\"acc_mean\":0.88")
            .replace(
                "\"members\":[{\"trial\":0,\"family\":\"forest\",\"weight\":3,\"score\":0.91}]",
                "\"members\":[{\"trial\":0,\"family\":\"forest\",\"weight\":2,\"score\":0.91},\
                 {\"trial\":2,\"family\":\"mlp\",\"weight\":1,\"score\":0.89}]",
            )
            .replace("\"threshold\":0.05", "\"threshold\":0.07")
            .replace(
                "\"intervals\":[[0.2,0.4],[0.7,0.9]]",
                "\"intervals\":[[0.25,0.45]]",
            )
    }

    #[test]
    fn compare_report_is_self_contained_and_shows_the_drift() {
        let a = parse_ledger(&sample_ledger_text()).unwrap();
        let b = parse_ledger(&shifted_ledger_text()).unwrap();
        let qa = crate::qualityview::parse_quality_ledger(&sample_ledger_text()).unwrap();
        let qb = crate::qualityview::parse_quality_ledger(&shifted_ledger_text()).unwrap();
        let html = render_compare_html(&a, &b, Some(&qa), Some(&qb), "A vs B");
        // The header surfaces the quality deltas up front.
        assert!(html.contains("Final accuracy: A"), "missing quality header");
        assert!(html.contains("ECE: A"), "missing ECE header");
        // Same self-containment contract as the single-run report.
        assert!(!html.contains("http"), "external reference in compare");
        assert!(!html.contains("<script"), "no scripts allowed");
        for heading in [
            "Runs compared",
            "Per-round accuracy delta",
            "Ensemble composition changes",
            "Region-suggestion drift",
        ] {
            assert!(html.contains(heading), "missing section {heading}");
        }
        assert_eq!(html.matches("<svg").count(), html.matches("</svg>").count());
        assert_eq!(
            html.matches("<table").count(),
            html.matches("</table>").count()
        );
        // Both run ids label the page; B's series is dashed.
        assert!(html.contains("w-s1-p2") && html.contains("w-s2-p2"));
        assert!(html.contains("stroke-dasharray"));
        // Round 1 of Within-ALE drifted 0.85 -> 0.88: delta +0.030.
        assert!(html.contains("+0.030"), "missing accuracy delta");
        // The new mlp family appears with no weight on the A side.
        assert!(html.contains("mlp"));
        // Region drift: threshold moved and total interval length shrank
        // from 0.4 to 0.2.
        assert!(html.contains("+0.020"), "missing threshold delta");
        assert!(html.contains("&#8722;0.200"), "missing length delta");
    }

    #[test]
    fn compare_of_empty_ledgers_still_renders_a_valid_page() {
        let header =
            "{\"type\":\"ledger\",\"schema_version\":1,\"run_id\":\"r\",\"workload\":\"w\",\"seed\":1,\"git\":\"g\"}";
        let l = parse_ledger(header).unwrap();
        let html = render_compare_html(&l, &l, None, None, "empty vs empty");
        assert!(
            !html.contains("Final accuracy: A"),
            "no quality header without reports"
        );
        assert!(html.contains("Neither run recorded feedback rounds"));
        assert!(html.contains("Neither run recorded an ensemble selection"));
        assert!(html.contains("Neither run suggested regions"));
        assert!(html.contains("</html>"));
        assert!(!html.contains("http"));
    }

    #[test]
    fn compare_helpers_aggregate_weights_and_interval_lengths() {
        let a = parse_ledger(&sample_ledger_text()).unwrap();
        assert_eq!(family_weights(&a), vec![("forest".into(), 3.0)]);
        let b = parse_ledger(&shifted_ledger_text()).unwrap();
        assert_eq!(
            family_weights(&b),
            vec![("forest".into(), 2.0), ("mlp".into(), 1.0)]
        );
        let bands = a.latest_bands();
        assert_eq!(bands.len(), 1);
        let (feature, _, _, intervals) = band_summary(bands[0]).unwrap();
        assert_eq!(feature, 0);
        assert!((interval_len(intervals) - 0.4).abs() < 1e-12);
        assert_eq!(delta(0.8, 0.85), "+0.050");
        assert_eq!(delta(0.85, 0.8), "&#8722;0.050");
    }
}
