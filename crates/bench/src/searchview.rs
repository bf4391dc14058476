//! Read-side of search telemetry: re-derive the search-observability
//! report (coverage, fANOVA-lite importance) from a
//! `ledger.jsonl`, and diff two reports for `amlinspect search
//! --compare`.
//!
//! A ledger is read with `aml_telemetry::ledger::read` and folded
//! through `aml_telemetry::searchview::SearchCollector`, collection cap
//! included.

use aml_telemetry::searchview::{DimReport, SearchCollector};
use aml_telemetry::{ledger, Fold, SearchReport};
use std::fmt::Write;

/// Parse the text of one `ledger.jsonl` and compute its search report.
pub fn parse_search_ledger(text: &str) -> Result<SearchReport, String> {
    let (_, events) = ledger::read(text)?;
    Ok(SearchCollector::from_events(&events).report())
}

/// Text diff of two reports for `amlinspect search --compare`: the figures
/// someone checks when changing the sampler or the search budget.
pub fn render_compare(a: &SearchReport, b: &SearchReport) -> String {
    let mut out = String::from("search compare (A -> B):\n");
    let line = |out: &mut String, label: &str, x: f64, y: f64, unit: &str| {
        let _ = writeln!(
            out,
            "  {label:<24} {x:>10.2}{unit} -> {y:>10.2}{unit} ({:+.1}%)",
            if x.abs() < f64::EPSILON {
                0.0
            } else {
                (y - x) * 100.0 / x
            }
        );
    };
    line(
        &mut out,
        "fits started",
        a.started as f64,
        b.started as f64,
        "",
    );
    line(
        &mut out,
        "fits finished",
        a.finished as f64,
        b.finished as f64,
        "",
    );
    line(
        &mut out,
        "fits failed",
        a.failed as f64,
        b.failed as f64,
        "",
    );
    for fa in &a.families {
        let Some(fb) = b.families.iter().find(|f| f.family == fa.family) else {
            continue;
        };
        if let (Some(ba), Some(bb)) = (fa.best_score, fb.best_score) {
            line(&mut out, &format!("{} best", fa.family), ba, bb, "");
        }
        let mean_cov = |dims: &[DimReport]| {
            if dims.is_empty() {
                0.0
            } else {
                dims.iter().map(|d| d.coverage).sum::<f64>() / dims.len() as f64
            }
        };
        line(
            &mut out,
            &format!("{} coverage", fa.family),
            mean_cov(&fa.dims),
            mean_cov(&fb.dims),
            "",
        );
        let top = |dims: &[DimReport]| {
            dims.iter()
                .max_by(|x, y| {
                    x.importance
                        .partial_cmp(&y.importance)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map_or_else(
                    || "-".to_string(),
                    |d| format!("{} ({:.3})", d.name, d.importance),
                )
        };
        let _ = writeln!(
            out,
            "  {:<24} {:>18} -> {:>18}",
            format!("{} top dim", fa.family),
            top(&fa.dims),
            top(&fb.dims),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aml_telemetry::searchview::{analyze, TrialRec};
    use aml_telemetry::{ParamValue, SpaceDim, SpaceFamily};

    fn knn_space() -> Vec<SpaceFamily> {
        vec![SpaceFamily {
            family: "knn".into(),
            dims: vec![
                SpaceDim {
                    name: "k".into(),
                    kind: "int".into(),
                    scale: "linear".into(),
                    lo: 1.0,
                    hi: 8.0,
                    choices: vec![],
                },
                SpaceDim {
                    name: "weights".into(),
                    kind: "cat".into(),
                    scale: "linear".into(),
                    lo: 0.0,
                    hi: 0.0,
                    choices: vec!["uniform".into(), "distance".into()],
                },
            ],
        }]
    }

    fn rec(
        trial: u64,
        k: i64,
        weights: &str,
        score: Option<f64>,
        failed: Option<&str>,
    ) -> TrialRec {
        TrialRec {
            trial,
            family: "knn".into(),
            params: vec![
                ("k".into(), ParamValue::Int(k)),
                ("weights".into(), ParamValue::Cat(weights.into())),
            ],
            score,
            failed: failed.map(str::to_string),
        }
    }

    fn fixture() -> Vec<TrialRec> {
        vec![
            rec(0, 1, "uniform", Some(0.9), None),
            rec(1, 2, "distance", Some(0.85), None),
            rec(2, 7, "uniform", Some(0.5), None),
            rec(3, 8, "distance", None, Some("error")),
            rec(0, 1, "uniform", Some(0.94), None),
            rec(1, 2, "distance", Some(0.89), None),
        ]
    }

    fn sample_ledger() -> String {
        let mut out = String::from(
            "{\"type\":\"ledger\",\"schema_version\":2,\"run_id\":\"r\",\"workload\":\"w\",\"seed\":1,\"git\":\"g\"}\n\
             {\"type\":\"search_space\",\"families\":[{\"family\":\"knn\",\"dims\":[\
             {\"name\":\"k\",\"kind\":\"int\",\"scale\":\"linear\",\"lo\":1,\"hi\":8,\"choices\":[]},\
             {\"name\":\"weights\",\"kind\":\"cat\",\"scale\":\"linear\",\"lo\":0,\"hi\":0,\
             \"choices\":[\"uniform\",\"distance\"]}]}]}\n",
        );
        for r in fixture() {
            let (k, w) = match (&r.params[0].1, &r.params[1].1) {
                (ParamValue::Int(k), ParamValue::Cat(w)) => (*k, w.clone()),
                _ => unreachable!(),
            };
            let _ = writeln!(
                out,
                "{{\"type\":\"trial_started\",\"trial\":{},\"family\":\"knn\",\
                 \"config\":\"KnnConfig\",\"params\":{{\"k\":{k},\"weights\":\"{w}\"}}}}",
                r.trial
            );
            if let Some(score) = r.score {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"trial_finished\",\"trial\":{},\"family\":\"knn\",\"score\":{score}}}",
                    r.trial
                );
            }
            if let Some(reason) = &r.failed {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"trial_failed\",\"trial\":{},\"family\":\"knn\",\"reason\":\"{reason}\"}}",
                    r.trial
                );
            }
        }
        out
    }

    #[test]
    fn ledger_reproduces_the_collector_report_byte_for_byte() {
        let from_ledger = parse_search_ledger(&sample_ledger()).unwrap();
        let from_collector = analyze(&knn_space(), &fixture(), 0);
        assert_eq!(from_ledger.render_json(), from_collector.render_json());
        assert_eq!(from_ledger.started, 6);
        assert_eq!(from_ledger.finished, 5);
        assert_eq!(from_ledger.failed, 1);
    }

    #[test]
    fn inactive_and_future_artifacts_are_rejected() {
        // Only ledgers are read: a rendered search.json, active or not,
        // is not one.
        let report = analyze(&knn_space(), &fixture(), 0);
        assert!(parse_search_ledger(&report.render_json()).is_err());
        assert!(parse_search_ledger("{\"active\":false}\n").is_err());
    }

    #[test]
    fn unknown_event_types_and_missing_params_are_tolerated() {
        let mut text = sample_ledger();
        text.push_str("{\"type\":\"mystery_event\",\"x\":1}\n");
        // A pre-params trial_started line still counts as a fit.
        text.push_str(
            "{\"type\":\"trial_started\",\"trial\":9,\"family\":\"knn\",\"config\":\"c\"}\n",
        );
        let report = parse_search_ledger(&text).unwrap();
        assert_eq!(report.started, 7);
    }

    #[test]
    fn parser_rejects_foreign_and_future_documents() {
        assert!(parse_search_ledger("").is_err());
        assert!(parse_search_ledger("{\"type\":\"events\"}").is_err());
        let bumped = sample_ledger().replace("\"schema_version\":2", "\"schema_version\":99");
        let err = parse_search_ledger(&bumped).unwrap_err();
        assert!(err.contains("schema_version 99"), "{err}");
        let err = parse_search_ledger(
            "{\"type\":\"ledger\",\"schema_version\":2,\"run_id\":\"r\",\"workload\":\"w\",\"seed\":1,\"git\":\"g\"}\n{oops",
        )
        .unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn compare_reports_deltas_per_family() {
        let a = analyze(&knn_space(), &fixture(), 0);
        let mut shifted = fixture();
        for r in &mut shifted {
            if let Some(s) = &mut r.score {
                *s *= 0.5;
            }
        }
        let b = analyze(&knn_space(), &shifted, 0);
        let text = render_compare(&a, &b);
        assert!(text.contains("fits started"), "{text}");
        assert!(text.contains("knn best"), "{text}");
        assert!(text.contains("-50.0%"), "{text}");
        assert!(text.contains("knn top dim"), "{text}");
    }
}
