//! What one workload run reports, and how it is printed.

/// One named metric. `None` means the value could not be measured (for
/// example `/proc` is unreadable); it is printed as absent and left out
/// of the JSON, never reported as 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub unit: &'static str,
}

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub workload: &'static str,
    /// Operations the benchmark issued and saw finish or fail: label
    /// batches, feedback rounds and AutoML trials.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub problems: Vec<String>,
    /// Human-readable lines printed before the metric table.
    pub notes: Vec<String>,
    /// Measured with tracing off.
    pub end_to_end: Vec<Metric>,
    /// From the traced pass; empty unless tracing was asked for.
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            ..Default::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record a correctness check; a failing one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Notes, problems and every metric with its unit.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(&format!("[{}] {n}\n", self.workload));
        }
        for p in &self.problems {
            out.push_str(&format!("[{}] CHECK FAILED: {p}\n", self.workload));
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let value = m.value.map_or("absent".to_string(), |v| format!("{v:.6}"));
            out.push_str(&format!(
                "[{}] {:<28} {:>16} {}\n",
                self.workload, m.name, value, m.unit
            ));
        }
        out
    }
}

/// The one-line JSON result: `correct`, `attempted`, `failed` and the
/// end-to-end metrics, or the per-layer ones of a traced run. With
/// `prefixed`, keys are `<workload>.<metric>`.
pub fn render_json(outcomes: &[Outcome], traced: bool, prefixed: bool) -> String {
    let correct = outcomes.iter().all(Outcome::correct);
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let metrics: Vec<String> = outcomes
        .iter()
        .flat_map(|o| {
            let metrics = if traced { &o.per_layer } else { &o.end_to_end };
            metrics.iter().filter_map(move |m| {
                let v = m.value.filter(|v| v.is_finite())?;
                let key = if prefixed {
                    format!("{}.{}", o.workload, m.name)
                } else {
                    m.name.clone()
                };
                Some(format!(
                    "\"{key}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.unit
                ))
            })
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_leaves_out_absent_metrics_and_keeps_all_digits() {
        let mut o = Outcome::new("w");
        o.attempted = 3;
        o.metric("wall_s", Some(1.234_567_891_2), "s");
        o.metric("peak_rss_mb", None, "MiB");
        assert_eq!(
            render_json(&[o], false, false),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.2345678912, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_or_operation_makes_the_run_incorrect() {
        let mut o = Outcome::new("w");
        o.check(true, || "fine".into());
        assert!(o.correct());
        o.failed = 1;
        assert!(!o.correct());
        let mut p = Outcome::new("w");
        p.check(false, || "digest differs".into());
        assert!(!p.correct());
        assert!(render_json(&[p], false, true).starts_with("{\"correct\": false"));
    }

    #[test]
    fn prefixed_keys_name_the_workload() {
        let mut o = Outcome::new("firewall_feedback");
        o.metric("wall_s", Some(2.0), "s");
        assert!(render_json(&[o], false, true).contains("\"firewall_feedback.wall_s\""));
    }
}
