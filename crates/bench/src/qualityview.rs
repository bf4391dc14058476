//! Read-side of the quality plane: recompute the model/data-quality
//! report from a `ledger.jsonl`, and diff two reports for `amlinspect
//! quality --compare`.
//!
//! A ledger is read with `aml_telemetry::ledger::read` and folded
//! through `aml_telemetry::quality::QualityCollector`.

use aml_telemetry::quality::{QualityCollector, QualityReport};
use aml_telemetry::{ledger, Fold};
use std::fmt::Write;

/// Parse the text of one `ledger.jsonl` and recompute its quality
/// report.
pub fn parse_quality_ledger(text: &str) -> Result<QualityReport, String> {
    let (_, events) = ledger::read(text)?;
    Ok(QualityCollector::from_events(&events).report())
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
            "{\"type\":\"ledger\",\"schema_version\":2,\"run_id\":\"r\",\"workload\":\"w\",\"seed\":1,\"git\":\"g\"}\n",
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
        let from_events = report_from_events(sample_events().iter(), 0);
        assert_eq!(from_ledger.render_json(), from_events.render_json());
        assert_eq!(from_ledger.rounds.len(), 2);
        // Round 1 drifts against round 0's train profile.
        assert!(from_ledger.rounds[1].psi_mean.unwrap() > 0.0);
    }

    #[test]
    fn inactive_and_future_artifacts_are_rejected() {
        // Only ledgers are read: a rendered quality.json, active or not,
        // is not one, and neither is a newer ledger schema.
        let report = report_from_events(sample_events().iter(), 0);
        assert!(parse_quality_ledger(&report.render_json()).is_err());
        assert!(parse_quality_ledger("{\"active\":false}\n").is_err());
        let future = sample_ledger().replace("\"schema_version\":2", "\"schema_version\":999");
        let err = parse_quality_ledger(&future).unwrap_err();
        assert!(err.contains("schema_version 999"), "{err}");
        assert!(parse_quality_ledger("").is_err());
        assert!(parse_quality_ledger("{\"type\":\"events\"}").is_err());
    }

    #[test]
    fn compare_reports_deltas() {
        let a = report_from_events(sample_events().iter(), 0);
        let b = report_from_events(sample_events().iter().take(3), 0);
        let text = render_compare(&a, &b);
        assert!(text.contains("final accuracy"), "{text}");
        assert!(text.contains("final ece"), "{text}");
        assert!(text.contains("rounds"), "{text}");
    }
}
