//! Design-choice ablations (DESIGN.md §4): how the feedback quality depends
//! on (a) the number of Cross-ALE AutoML runs, (b) the ALE grid
//! resolution, and (c) region sampling vs uniform sampling at matched
//! budget — the mechanism behind Table 1's Within-ALE vs Uniform gap.
//!
//! ```sh
//! cargo run --release -p aml-bench --bin ablations [--quick|--full]
//! ```

use aml_automl::AutoMlConfig;
use aml_bench::{cached_netsim, mean, write_json, NetsimSpec, RunOpts};
use aml_core::{run_strategy, AleFeedback, ExperimentConfig, InterpretationMethod, Strategy};
use aml_dataset::split::split_into_k;
use aml_dataset::Dataset;
use aml_netsim::datagen::{label_rows, SamplingMode};
use aml_netsim::runner::winner_index;
use aml_netsim::sim::{QueueKind, SimConfig, Simulation};
use aml_netsim::{CcKind, ConditionDomain, NetworkCondition};
use aml_telemetry::json::{ToJson, Value};
use aml_telemetry::report;
use std::collections::BTreeMap;

struct AblationResult {
    name: String,
    setting: String,
    mean_balanced_accuracy: f64,
}

impl ToJson for AblationResult {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("name".into(), self.name.to_json()),
            ("setting".into(), self.setting.to_json()),
            (
                "mean_balanced_accuracy".into(),
                self.mean_balanced_accuracy.to_json(),
            ),
        ])
    }
}

fn main() {
    let opts = RunOpts::parse_for("ablations");
    opts.banner("Ablations: cross runs, grid resolution, sampling scheme");

    let n_train = opts.by_scale(150, 400, 1161);
    let n_test = opts.by_scale(600, 1200, 2400);
    let n_feedback = opts.by_scale(50, 100, 280);
    let domain = ConditionDomain::default();
    let threads = opts.threads;

    let datagen_span = aml_telemetry::span!("bench.datagen");
    aml_telemetry::serve::set_phase("datagen");
    let spec = |n, seed| NetsimSpec {
        domain,
        mode: SamplingMode::Uniform,
        n,
        seed,
    };
    let train = cached_netsim(&opts.out_dir, &spec(n_train, opts.seed), threads);
    let test = cached_netsim(&opts.out_dir, &spec(n_test, opts.seed ^ 0x7E57), threads);
    let test_sets = split_into_k(&test, 6, opts.seed).expect("split");
    drop(datagen_span);
    let ablation_span = aml_telemetry::span!("bench.strategies");
    aml_telemetry::serve::set_phase("strategies");
    let oracle = |rws: &[Vec<f64>]| -> aml_core::Result<Dataset> {
        label_rows(rws, &domain, opts.seed ^ 0x04AC1E, threads)
            .map_err(|e| aml_core::CoreError::InvalidParameter(e.to_string()))
    };

    let base_cfg = |seed: u64| {
        let mut automl = AutoMlConfig {
            n_candidates: 12,
            parallelism: threads,
            ..Default::default()
        };
        opts.apply_automl_limits(&mut automl);
        ExperimentConfig {
            automl,
            n_feedback_points: n_feedback,
            n_cross_runs: 3,
            seed,
            ..Default::default()
        }
    };
    let mut results: Vec<AblationResult> = Vec::new();
    let mut run_one = |name: &str, setting: String, strategy: Strategy, cfg: &ExperimentConfig| {
        let out = run_strategy(strategy, cfg, &train, None, Some(&oracle), &test_sets)
            .unwrap_or_else(|e| panic!("{name} ({setting}) failed: {e}"));
        let ba = mean(&out.scores);
        report(&format!(
            "  {name:<24} {setting:<12} mean BA {:>5.1}%",
            ba * 100.0
        ));
        results.push(AblationResult {
            name: name.into(),
            setting,
            mean_balanced_accuracy: ba,
        });
    };

    report("(a) Cross-ALE run count:");
    for n_runs in [2usize, 3, opts.by_scale(5, 8, 10)] {
        let mut cfg = base_cfg(opts.seed);
        cfg.n_cross_runs = n_runs;
        run_one(
            "cross_runs",
            format!("{n_runs} runs"),
            Strategy::CrossAle,
            &cfg,
        );
    }

    report("(b) ALE grid resolution (Within-ALE):");
    for n_intervals in [8usize, 16, 24, 48] {
        let mut cfg = base_cfg(opts.seed);
        cfg.ale = AleFeedback {
            n_intervals,
            ..Default::default()
        };
        run_one(
            "grid_intervals",
            format!("{n_intervals}"),
            Strategy::WithinAle,
            &cfg,
        );
    }

    report("(c) region sampling vs uniform at the same budget:");
    run_one(
        "sampling",
        "ALE regions".into(),
        Strategy::WithinAle,
        &base_cfg(opts.seed),
    );
    run_one(
        "sampling",
        "uniform".into(),
        Strategy::Uniform,
        &base_cfg(opts.seed),
    );

    report("(d) interpretation method: ALE vs PDP variance:");
    run_one(
        "method",
        "ALE".into(),
        Strategy::WithinAle,
        &base_cfg(opts.seed),
    );
    let mut pdp_cfg = base_cfg(opts.seed);
    pdp_cfg.ale = AleFeedback {
        method: InterpretationMethod::Pdp,
        ..Default::default()
    };
    run_one("method", "PDP".into(), Strategy::WithinAle, &pdp_cfg);

    report("(e) bottleneck queue discipline: does AQM change who wins?");
    queue_discipline_ablation(&opts);

    write_json(&opts.out_dir, "ablations.json", &results);

    // Aggregate view.
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in &results {
        by_name
            .entry(r.name.as_str())
            .or_default()
            .push(r.mean_balanced_accuracy);
    }
    report("\nspread per ablation axis (max - min BA):");
    for (name, vals) in by_name {
        let spread = vals.iter().cloned().fold(f64::MIN, f64::max)
            - vals.iter().cloned().fold(f64::MAX, f64::min);
        report(&format!(
            "  {name:<16} {:.1} percentage points",
            spread * 100.0
        ));
    }

    drop(ablation_span);
    opts.finish();
}

/// Re-rank the six protocols on a grid of conditions under DropTail vs RED
/// and report how often the winner changes — a robustness check on the
/// label definition itself (the queue discipline is a domain prior the
/// operator would encode; paper §1's customization vision).
fn queue_discipline_ablation(opts: &aml_bench::RunOpts) {
    let conditions: Vec<NetworkCondition> = [
        (5.0, 40.0, 0.0, 1usize),
        (20.0, 60.0, 0.0, 1),
        (50.0, 100.0, 0.0, 1),
        (20.0, 40.0, 0.02, 1),
        (10.0, 40.0, 0.0, 3),
        (2.0, 150.0, 0.01, 1),
    ]
    .into_iter()
    .map(|(mbps, rtt, loss, flows)| NetworkCondition {
        link_rate_mbps: mbps,
        rtt_ms: rtt,
        loss_rate: loss,
        n_flows: flows,
    })
    .collect();

    let winner_under = |kind: QueueKind, c: NetworkCondition| -> &'static str {
        let results: Vec<_> = CcKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &proto)| {
                let mut cfg =
                    SimConfig::for_condition(c, proto, opts.seed ^ ((i as u64 + 1) * 0x9E37));
                cfg.queue_kind = kind;
                let out = Simulation::new(cfg).expect("config").run().expect("run");
                aml_netsim::runner::ProtocolResult {
                    protocol: proto,
                    throughput_mbps: out.total_throughput_mbps,
                    mean_delay_ms: out.mean_delay_ms,
                    p95_delay_ms: out.p95_delay_ms,
                    qualifies: out.total_throughput_mbps
                        >= aml_netsim::runner::MIN_USEFUL_FRACTION * c.link_rate_mbps,
                }
            })
            .collect();
        results[winner_index(&results)].protocol.name()
    };

    let mut changed = 0;
    for c in conditions {
        let dt = winner_under(QueueKind::DropTail, c);
        let red = winner_under(QueueKind::Red, c);
        let mark = if dt != red {
            changed += 1;
            "  <-- winner changes"
        } else {
            ""
        };
        report(&format!(
            "  {:>5.1} Mbps {:>5.1} ms {:>4.1}% loss {} flow(s): droptail={dt:<7} red={red:<7}{mark}",
            c.link_rate_mbps,
            c.rtt_ms,
            c.loss_rate * 100.0,
            c.n_flows,
        ));
    }
    report(&format!("  winner changed on {changed} of 6 conditions"));
}
