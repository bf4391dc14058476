//! Read-side of the quality plane: recompute the model/data-quality
//! report from a `ledger.jsonl`, load a drift baseline for
//! `--quality-ref` from another run's ledger, render the SVG panels for
//! `amlreport`, and diff two reports for `amlinspect quality --compare`.
//!
//! A ledger is read with `aml_telemetry::ledger::read` and folded
//! through the same `QualityCollector` the live `--quality-out` path
//! uses, so `amlinspect quality ledger.jsonl` reproduces `quality.json`
//! byte for byte (when the run used no `--quality-ref`; a baseline
//! changes the drift section by design).

use aml_telemetry::quality::{
    DriftReport, FinalDiagnostics, QualityCollector, QualityReport, Reliability,
};
use aml_telemetry::{ledger, Fold, QualityReference};
use std::fmt::Write;

/// Parse the text of one `ledger.jsonl` and recompute its quality
/// report (no drift baseline — the recompute matches a run without
/// `--quality-ref`).
pub fn parse_quality_ledger(text: &str) -> Result<QualityReport, String> {
    let (_, events) = ledger::read(text)?;
    Ok(QualityCollector::from_events(&events).report())
}

/// Load a drift baseline for `--quality-ref`: fold the reference run's
/// `ledger.jsonl` through [`QualityCollector`] and keep its latest
/// train-split feature profiles. Errors when the text is not a ledger or
/// the ledger has no train profile to anchor drift against.
pub fn load_reference(text: &str) -> Result<QualityReference, String> {
    let (_, events) = ledger::read(text)
        .map_err(|e| format!("--quality-ref expects a run's ledger.jsonl: {e}"))?;
    let report = QualityCollector::from_events(&events).report();
    let train = report
        .profiles
        .into_iter()
        .filter(|p| p.split == "train")
        .max_by_key(|p| p.round)
        .ok_or("--quality-ref ledger has no train profile to use as a drift baseline")?;
    Ok(QualityReference {
        label: "baseline".to_string(),
        features: train.features,
    })
}

/// Text diff of two reports for `amlinspect quality --compare`: the figures
/// someone checks when changing a strategy, a sampler, or the data mix.
pub fn render_compare(a: &QualityReport, b: &QualityReport) -> String {
    let mut out = String::from("quality compare (A -> B):\n");
    let _ = writeln!(
        out,
        "  {:<24} {:>10} -> {:>10}",
        "rounds",
        a.rounds.len(),
        b.rounds.len()
    );
    let line = |out: &mut String, label: &str, x: f64, y: f64| {
        let delta = if x.abs() < f64::EPSILON {
            0.0
        } else {
            (y - x) * 100.0 / x
        };
        let _ = writeln!(out, "  {label:<24} {x:>10.4} -> {y:>10.4} ({delta:+.1}%)");
    };
    if let (Some(ra), Some(rb)) = (a.rounds.last(), b.rounds.last()) {
        line(&mut out, "final accuracy", ra.accuracy, rb.accuracy);
        line(
            &mut out,
            "final balanced acc",
            ra.balanced_accuracy,
            rb.balanced_accuracy,
        );
        line(&mut out, "final macro F1", ra.macro_f1, rb.macro_f1);
        line(&mut out, "final brier", ra.brier, rb.brier);
        line(&mut out, "final ece", ra.ece, rb.ece);
        line(
            &mut out,
            "final ale band width",
            ra.ale_band_width,
            rb.ale_band_width,
        );
        if let (Some(pa), Some(pb)) = (ra.psi_mean, rb.psi_mean) {
            line(&mut out, "final psi mean", pa, pb);
        }
    }
    // Per-feature drift, matched by name.
    for fa in &a.drift.features {
        let Some(fb) = b.drift.features.iter().find(|f| f.name == fa.name) else {
            continue;
        };
        if let (Some(pa), Some(pb)) = (fa.psi, fb.psi) {
            line(&mut out, &format!("psi {}", fa.name), pa, pb);
        }
    }
    out
}

/// The final round's reliability diagram as a self-contained inline
/// SVG: the diagonal is perfect calibration, one dot per non-empty
/// confidence bin (x = mean confidence, y = empirical accuracy), dot
/// area hinting at the bin's population. Same self-containment contract
/// as the rest of `amlreport` (no scripts, no external assets).
pub fn render_reliability_svg(rel: &Reliability) -> String {
    const W: f64 = 260.0;
    const H: f64 = 260.0;
    const PAD: f64 = 24.0;
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">\
         <rect x=\"0\" y=\"0\" width=\"{W}\" height=\"{H}\" fill=\"#fbfbfb\" stroke=\"#d5dbe0\"/>\
         <line x1=\"{PAD}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{PAD}\" \
         stroke=\"#b9c2cc\" stroke-dasharray=\"4 3\"/>\
         <text x=\"{PAD}\" y=\"16\" font-size=\"11\" font-family=\"monospace\">reliability (confidence vs accuracy)</text>",
        H - PAD,
        W - PAD,
    );
    let total: u64 = rel.count.iter().sum();
    if total == 0 {
        let _ = write!(
            out,
            "<text x=\"{PAD}\" y=\"{:.1}\" font-size=\"11\">no predictions recorded</text>",
            H / 2.0
        );
        out.push_str("</svg>");
        return out;
    }
    for (i, &n) in rel.count.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let conf = rel.confidence.get(i).copied().unwrap_or(f64::NAN);
        let acc = rel.accuracy.get(i).copied().unwrap_or(f64::NAN);
        if !conf.is_finite() || !acc.is_finite() {
            continue;
        }
        let x = PAD + conf * (W - 2.0 * PAD);
        let y = H - PAD - acc * (H - 2.0 * PAD);
        let r = 2.0 + 4.0 * (n as f64 / total as f64).sqrt();
        let _ = write!(
            out,
            "<circle cx=\"{x:.1}\" cy=\"{y:.1}\" r=\"{r:.1}\" fill=\"#2f6fb4\" opacity=\"0.75\"/>"
        );
    }
    out.push_str("</svg>");
    out
}

/// The final confusion matrix as an inline-SVG heat grid: rows are true
/// classes, columns predictions, cell shade the row-normalized share.
pub fn render_confusion_svg(diag: &FinalDiagnostics) -> String {
    const CELL: f64 = 46.0;
    const LEFT: f64 = 70.0;
    const TOP: f64 = 40.0;
    let k = diag.classes.len().max(1);
    let w = LEFT + k as f64 * CELL + 10.0;
    let h = TOP + k as f64 * CELL + 10.0;
    let mut out = String::with_capacity(2048);
    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {w:.0} {h:.0}\" width=\"{w:.0}\" height=\"{h:.0}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">\
         <text x=\"8\" y=\"16\" font-size=\"11\" font-family=\"monospace\">confusion (row = true class)</text>"
    );
    for (j, name) in diag.classes.iter().enumerate() {
        let _ = write!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" font-family=\"monospace\" text-anchor=\"middle\">{}</text>",
            LEFT + (j as f64 + 0.5) * CELL,
            TOP - 6.0,
            crate::amlreport::esc(name),
        );
    }
    for (i, row) in diag.confusion.iter().enumerate() {
        let support: u64 = row.iter().sum();
        let _ = write!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" font-family=\"monospace\" text-anchor=\"end\">{}</text>",
            LEFT - 6.0,
            TOP + (i as f64 + 0.6) * CELL,
            crate::amlreport::esc(diag.classes.get(i).map_or("?", String::as_str)),
        );
        for (j, &n) in row.iter().enumerate() {
            let share = if support > 0 {
                n as f64 / support as f64
            } else {
                0.0
            };
            let x = LEFT + j as f64 * CELL;
            let y = TOP + i as f64 * CELL;
            // Diagonal (correct) cells shade blue, off-diagonal red.
            let fill = if i == j { "#2f6fb4" } else { "#c0392b" };
            let _ = write!(
                out,
                "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{CELL}\" height=\"{CELL}\" \
                 fill=\"{fill}\" opacity=\"{:.3}\" stroke=\"#d5dbe0\"/>\
                 <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" font-family=\"monospace\" \
                 text-anchor=\"middle\">{n}</text>",
                0.08 + 0.85 * share,
                x + CELL / 2.0,
                y + CELL * 0.6,
            );
        }
    }
    out.push_str("</svg>");
    out
}

/// Per-feature drift as horizontal PSI bars. The conventional 0.2
/// "significant shift" threshold is drawn as a reference line when any
/// bar comes close.
pub fn render_drift_svg(drift: &DriftReport) -> String {
    const W: f64 = 420.0;
    const BAR: f64 = 16.0;
    const GAP: f64 = 5.0;
    const LEFT: f64 = 10.0;
    const TOP: f64 = 22.0;
    let scored: Vec<(&str, f64)> = drift
        .features
        .iter()
        .filter_map(|f| f.psi.map(|p| (f.name.as_str(), p)))
        .collect();
    let n = scored.len().max(1);
    let h = TOP + n as f64 * (BAR + GAP) + GAP;
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {W} {h:.0}\" width=\"{W}\" height=\"{h:.0}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">\
         <text x=\"{LEFT}\" y=\"14\" font-size=\"11\" font-family=\"monospace\">drift vs {} (PSI)</text>",
        crate::amlreport::esc(&drift.reference),
    );
    if scored.is_empty() {
        let _ = write!(
            out,
            "<text x=\"{LEFT}\" y=\"{:.1}\" font-size=\"11\">no drift reference</text>",
            TOP + BAR
        );
        out.push_str("</svg>");
        return out;
    }
    let max_psi = scored.iter().map(|(_, p)| *p).fold(0.2f64, f64::max);
    let scale = (W - 2.0 * LEFT) / max_psi;
    for (i, (name, psi)) in scored.iter().enumerate() {
        let y = TOP + i as f64 * (BAR + GAP);
        let bw = (psi * scale).max(1.0);
        let fill = if *psi >= 0.2 { "#c0392b" } else { "#5a8f5a" };
        let _ = write!(
            out,
            "<rect x=\"{LEFT}\" y=\"{y:.1}\" width=\"{bw:.1}\" height=\"{BAR}\" fill=\"{fill}\" opacity=\"0.8\"/>\
             <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" font-family=\"monospace\">{} {psi:.4}</text>",
            LEFT + 4.0,
            y + BAR * 0.75,
            crate::amlreport::esc(name),
        );
    }
    let threshold_x = LEFT + 0.2 * scale;
    let _ = write!(
        out,
        "<line x1=\"{threshold_x:.1}\" y1=\"{TOP}\" x2=\"{threshold_x:.1}\" y2=\"{h:.1}\" \
         stroke=\"#c0392b\" stroke-dasharray=\"3 3\" opacity=\"0.6\"/>"
    );
    out.push_str("</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aml_telemetry::quality::{profile_feature, report_from_events};
    use aml_telemetry::LedgerEvent;

    fn sample_events() -> Vec<LedgerEvent> {
        vec![
            LedgerEvent::DatasetProfile {
                round: 0,
                split: "train".into(),
                rows: 4,
                class_counts: vec![2, 2],
                features: vec![profile_feature("loss", 0.0, 1.0, 4, &[0.1, 0.2, 0.3, 0.9])],
            },
            LedgerEvent::DatasetProfile {
                round: 0,
                split: "eval".into(),
                rows: 2,
                class_counts: vec![1, 1],
                features: vec![profile_feature("loss", 0.0, 1.0, 4, &[0.15, 0.8])],
            },
            LedgerEvent::ModelDiagnostics {
                round: 0,
                strategy: "Within-ALE".into(),
                rows: 2,
                classes: vec!["ok".into(), "bad".into()],
                confusion: vec![vec![1, 0], vec![1, 0]],
                brier: 0.4,
                bin_count: vec![0, 0, 0, 0, 0, 0, 0, 2, 0, 0],
                bin_conf_sum: vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.5, 0.0, 0.0],
                bin_hit: vec![0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
                ale_band_width: 0.3,
            },
            LedgerEvent::DatasetProfile {
                round: 1,
                split: "train".into(),
                rows: 6,
                class_counts: vec![3, 3],
                features: vec![profile_feature(
                    "loss",
                    0.0,
                    1.0,
                    4,
                    &[0.1, 0.2, 0.3, 0.9, 0.85, 0.95],
                )],
            },
            LedgerEvent::ModelDiagnostics {
                round: 1,
                strategy: "Within-ALE".into(),
                rows: 2,
                classes: vec!["ok".into(), "bad".into()],
                confusion: vec![vec![1, 0], vec![0, 1]],
                brier: 0.1,
                bin_count: vec![0, 0, 0, 0, 0, 0, 0, 0, 2, 0],
                bin_conf_sum: vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.7, 0.0],
                bin_hit: vec![0, 0, 0, 0, 0, 0, 0, 0, 2, 0],
                ale_band_width: 0.1,
            },
        ]
    }

    fn sample_ledger() -> String {
        let mut out = String::from(
            "{\"type\":\"ledger\",\"schema_version\":1,\"run_id\":\"r\",\"workload\":\"w\",\"seed\":1,\"git\":\"g\"}\n",
        );
        for e in sample_events() {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }

    #[test]
    fn ledger_reproduces_the_collector_report_byte_for_byte() {
        let from_ledger = parse_quality_ledger(&sample_ledger()).unwrap();
        let from_events = report_from_events(sample_events().iter(), None, 0);
        assert_eq!(from_ledger.render_json(), from_events.render_json());
        assert_eq!(from_ledger.rounds.len(), 2);
        // Round 1 drifts against round 0's train profile.
        assert!(from_ledger.rounds[1].psi_mean.unwrap() > 0.0);
    }

    #[test]
    fn inactive_and_future_artifacts_are_rejected() {
        // Only ledgers are read: a rendered quality.json, active or not,
        // is not one, and neither is a newer ledger schema.
        let report = report_from_events(sample_events().iter(), None, 0);
        assert!(parse_quality_ledger(&report.render_json()).is_err());
        assert!(parse_quality_ledger("{\"active\":false}\n").is_err());
        let future = sample_ledger().replace("\"schema_version\":1", "\"schema_version\":999");
        let err = parse_quality_ledger(&future).unwrap_err();
        assert!(err.contains("schema_version 999"), "{err}");
        assert!(parse_quality_ledger("").is_err());
        assert!(parse_quality_ledger("{\"type\":\"events\"}").is_err());
    }

    #[test]
    fn reference_loads_the_latest_train_profile() {
        let reference = load_reference(&sample_ledger()).unwrap();
        assert_eq!(reference.label, "baseline");
        assert_eq!(reference.features.len(), 1);
        // The latest round's train profile (round 1, 6 rows).
        assert_eq!(reference.features[0].count, 6);
    }

    #[test]
    fn reference_refuses_ledgers_without_a_train_profile_and_rendered_reports() {
        let header = sample_ledger().lines().next().unwrap().to_string();
        let eval_only: String = sample_events()
            .iter()
            .filter(|e| !matches!(e, LedgerEvent::DatasetProfile { split, .. } if split == "train"))
            .fold(header + "\n", |acc, e| acc + &e.to_json_line() + "\n");
        let err = load_reference(&eval_only).unwrap_err();
        assert!(err.contains("--quality-ref"), "{err}");
        assert!(err.contains("no train profile"), "{err}");
        // A rendered quality.json is not a ledger.
        let rendered = report_from_events(sample_events().iter(), None, 0).render_json();
        let err = load_reference(&rendered).unwrap_err();
        assert!(err.contains("--quality-ref"), "{err}");
    }

    #[test]
    fn reference_changes_the_drift_section_label() {
        let reference = load_reference(&sample_ledger()).unwrap();
        let against = report_from_events(sample_events().iter(), Some(&reference), 0);
        assert_eq!(against.drift.reference, "baseline");
        // The latest train profile IS the baseline → zero drift.
        assert_eq!(against.drift.features[0].psi, Some(0.0));
    }

    #[test]
    fn compare_reports_deltas() {
        let a = report_from_events(sample_events().iter(), None, 0);
        let b = report_from_events(sample_events().iter().take(3), None, 0);
        let text = render_compare(&a, &b);
        assert!(text.contains("final accuracy"), "{text}");
        assert!(text.contains("final ece"), "{text}");
        assert!(text.contains("rounds"), "{text}");
    }

    #[test]
    fn svg_panels_are_self_contained() {
        let report = report_from_events(sample_events().iter(), None, 0);
        let diag = report.final_diag.as_ref().unwrap();
        for svg in [
            render_reliability_svg(&diag.reliability),
            render_confusion_svg(diag),
            render_drift_svg(&report.drift),
        ] {
            assert!(svg.starts_with("<svg"), "{svg}");
            assert!(svg.ends_with("</svg>"), "{svg}");
            assert!(!svg.contains("http://") || svg.contains("xmlns"), "{svg}");
            assert!(!svg.contains("<script"), "{svg}");
        }
        // One dot per non-empty reliability bin.
        let rel = render_reliability_svg(&diag.reliability);
        assert_eq!(rel.matches("<circle").count(), 1);
        // A 2x2 confusion grid renders 4 cells.
        let conf = render_confusion_svg(diag);
        assert_eq!(conf.matches("<rect").count(), 4);
        // Drift with no reference renders the placeholder.
        let empty = render_drift_svg(&DriftReport {
            reference: "none".into(),
            features: vec![],
        });
        assert!(empty.contains("no drift reference"), "{empty}");
    }
}
