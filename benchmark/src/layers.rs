//! Per-layer metrics of a traced run, computed from the tracer's spans,
//! counters and samples.

use crate::report::Metric;
use crate::stats::median;
use crate::trace::{layer_totals, self_times, Layer, LayerTotals, Tracer};
use std::collections::BTreeMap;

/// Simulations behind `rows` labelled rows: every row races each
/// congestion-control protocol once.
pub fn netsim_sims(rows: u64) -> u64 {
    rows * aml_netsim::CcKind::ALL.len() as u64
}

/// Model evaluations of one ALE analysis: each row is predicted at both
/// edges of its interval, for every feature and committee member.
pub fn ale_evals(rows: usize, features: usize, committee: usize) -> u64 {
    2 * (rows * features * committee) as u64
}

/// One call into the simulator that labels `rows` rows, in a netsim span,
/// with its rows, batch size and errors counted.
pub fn netsim_call<T, E: std::fmt::Display>(
    tr: &mut Tracer,
    name: &'static str,
    rows: usize,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, String> {
    let out = tr.span(Layer::Netsim, name, f);
    tr.count("netsim.rows", rows as f64);
    tr.sample("netsim.batch_rows", rows as f64);
    if out.is_err() {
        tr.count("netsim.errors", 1.0);
    }
    out.map_err(|e| e.to_string())
}

/// `num / den`, or 0 when the layer did no work.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// CPU share of `threads` cores while the layer was busy; absent when a
/// CPU reading was unavailable.
fn cpu_util(t: &LayerTotals, threads: usize) -> Option<f64> {
    t.cpu_s.map(|cpu| ratio(cpu, t.busy_s * threads as f64))
}

/// Wall times of the traced and untraced passes over the same work.
pub struct PassWalls {
    pub untraced_s: f64,
    pub traced_s: f64,
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
pub fn layer_metrics(tr: &Tracer, threads: usize, walls: &PassWalls) -> Vec<Metric> {
    let spans = tr.spans();
    let own = self_times(spans);
    let totals: BTreeMap<Layer, LayerTotals> = Layer::ALL
        .iter()
        .map(|&l| (l, layer_totals(spans, &own, l)))
        .collect();
    let net = &totals[&Layer::Netsim];
    let fw = &totals[&Layer::Fwgen];
    let automl = &totals[&Layer::Automl];
    let interp = &totals[&Layer::Interpret];
    let models = &totals[&Layer::Models];
    let core = &totals[&Layer::Core];
    let select_busy: f64 = spans
        .iter()
        .filter(|s| s.name == "core.select")
        .fold(0.0, |acc, s| acc + s.duration());

    let rows = tr.counter("netsim.rows");
    let trials = tr.counter("automl.trials");
    let ale = tr.counter("interpret.ale_evals");
    let predict_rows = tr.counter("models.predict_rows");
    let bacc = tr.samples("core.bacc");
    let bacc_mean = ratio(bacc.iter().sum(), bacc.len() as f64);

    let m = |name: &str, value: Option<f64>, unit: &'static str| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    vec![
        m("netsim.calls", Some(net.calls as f64), "count"),
        m("netsim.rows", Some(rows), "rows"),
        m(
            "netsim.sims",
            Some(netsim_sims(rows as u64) as f64),
            "count",
        ),
        m("netsim.busy_s", Some(net.busy_s), "s"),
        m("netsim.self_s", Some(net.self_s), "s"),
        m(
            "netsim.call_s_p50",
            Some(median(&net.call_s).unwrap_or(0.0)),
            "s",
        ),
        m(
            "netsim.batch_rows_p50",
            Some(median(tr.samples("netsim.batch_rows")).unwrap_or(0.0)),
            "rows",
        ),
        m("netsim.errors", Some(tr.counter("netsim.errors")), "count"),
        m(
            "netsim.rows_per_cpu_s",
            net.cpu_s.map(|cpu| ratio(rows, cpu)),
            "rows/cpu_s",
        ),
        m("netsim.cpu_util", cpu_util(net, threads), "ratio"),
        m("netsim.rows_per_s", Some(ratio(rows, net.busy_s)), "rows/s"),
        m("fwgen.busy_s", Some(fw.busy_s), "s"),
        m(
            "fwgen.rows_per_s",
            Some(ratio(tr.counter("fwgen.rows"), fw.busy_s)),
            "rows/s",
        ),
        m("dataset.busy_s", Some(totals[&Layer::Dataset].busy_s), "s"),
        m("automl.fits", Some(automl.calls as f64), "count"),
        m("automl.busy_s", Some(automl.busy_s), "s"),
        m("automl.self_s", Some(automl.self_s), "s"),
        m(
            "automl.fit_s_p50",
            Some(median(&automl.call_s).unwrap_or(0.0)),
            "s",
        ),
        m("automl.trials", Some(trials), "count"),
        m(
            "automl.trials_failed",
            Some(tr.counter("automl.trials_failed")),
            "count",
        ),
        m(
            "automl.members_per_trial",
            Some(ratio(tr.counter("automl.members"), trials)),
            "ratio",
        ),
        m(
            "automl.row_trials_per_s",
            Some(ratio(tr.counter("automl.row_trials"), automl.busy_s)),
            "rows/s",
        ),
        m("automl.cpu_util", cpu_util(automl, threads), "ratio"),
        m("interpret.calls", Some(interp.calls as f64), "count"),
        m("interpret.busy_s", Some(interp.busy_s), "s"),
        m("interpret.self_s", Some(interp.self_s), "s"),
        m(
            "interpret.flagged_intervals",
            Some(tr.counter("interpret.flagged_intervals")),
            "count",
        ),
        m("interpret.ale_evals", Some(ale), "count"),
        m(
            "interpret.ale_evals_per_s",
            Some(ratio(ale, interp.busy_s)),
            "1/s",
        ),
        m("interpret.cpu_util", cpu_util(interp, threads), "ratio"),
        m("models.predict_rows", Some(predict_rows), "rows"),
        m("models.predict_busy_s", Some(models.busy_s), "s"),
        m(
            "models.predict_rows_per_s",
            Some(ratio(predict_rows, models.busy_s)),
            "rows/s",
        ),
        m("core.rounds", Some(tr.counter("core.rounds")), "count"),
        m("core.select_busy_s", Some(select_busy), "s"),
        m(
            "core.points_added",
            Some(tr.counter("core.points_added")),
            "rows",
        ),
        m("core.self_s", Some(core.self_s), "s"),
        m("core.bacc_mean", Some(bacc_mean), "fraction"),
        m("bench.traced_wall_s", Some(walls.traced_s), "s"),
        m(
            "bench.trace_overhead_frac",
            Some(ratio(walls.traced_s - walls.untraced_s, walls.untraced_s)),
            "ratio",
        ),
    ]
}

/// Self time of each layer as a share of the traced wall, largest first.
pub fn self_time_table(tr: &Tracer, traced_wall_s: f64) -> Vec<String> {
    let spans = tr.spans();
    let own = self_times(spans);
    let mut rows: Vec<(f64, Layer)> = Layer::ALL
        .iter()
        .map(|&l| (layer_totals(spans, &own, l).self_s, l))
        .collect();
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    rows.into_iter()
        .map(|(s, l)| {
            format!(
                "self time {:<10} {:>9.3} s  {:>5.1}% of traced wall",
                l.name(),
                s,
                100.0 * ratio(s, traced_wall_s)
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sims_are_one_per_protocol_per_row() {
        assert_eq!(aml_netsim::CcKind::ALL.len(), 6);
        assert_eq!(netsim_sims(0), 0);
        assert_eq!(netsim_sims(100), 600);
    }

    #[test]
    fn ale_evals_count_both_interval_edges() {
        assert_eq!(ale_evals(300, 4, 5), 12_000);
        assert_eq!(ale_evals(1200, 12, 2), 57_600);
        assert_eq!(ale_evals(0, 12, 2), 0);
    }

    #[test]
    fn idle_layers_report_zero_not_nan() {
        let tr = Tracer::new(true);
        let metrics = layer_metrics(
            &tr,
            2,
            &PassWalls {
                untraced_s: 1.0,
                traced_s: 1.0,
            },
        );
        for m in &metrics {
            if let Some(v) = m.value {
                assert!(v.is_finite(), "{} = {v}", m.name);
            }
        }
        let get = |n: &str| metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("netsim.rows_per_s"), Some(0.0));
        assert_eq!(get("bench.trace_overhead_frac"), Some(0.0));
    }
}
