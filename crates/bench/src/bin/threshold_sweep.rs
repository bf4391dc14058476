//! **§4 "Setting the threshold"** ablation: sweep 𝒯 and measure (a) the
//! flagged-subspace coverage ("lower thresholds result in larger feature
//! subspaces") and (b) the downstream accuracy of Within-ALE feedback at
//! that threshold (the budget trade-off the paper discusses).
//!
//! ```sh
//! cargo run --release -p aml-bench --bin threshold_sweep [--quick|--full]
//! ```

use aml_automl::{AutoMl, AutoMlConfig};
use aml_bench::{cached_netsim, mean, write_json, NetsimSpec, RunOpts};
use aml_core::{run_strategy, AleFeedback, ExperimentConfig, Strategy, ThresholdRule};
use aml_dataset::split::split_into_k;
use aml_dataset::Dataset;
use aml_netsim::datagen::{label_rows, SamplingMode};
use aml_netsim::ConditionDomain;
use aml_telemetry::json::{ToJson, Value};
use aml_telemetry::report;

struct SweepRow {
    threshold: f64,
    coverage: f64,
    flagged_features: usize,
    mean_balanced_accuracy: f64,
}

impl ToJson for SweepRow {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("threshold".into(), self.threshold.to_json()),
            ("coverage".into(), self.coverage.to_json()),
            ("flagged_features".into(), self.flagged_features.to_json()),
            (
                "mean_balanced_accuracy".into(),
                self.mean_balanced_accuracy.to_json(),
            ),
        ])
    }
}

fn main() {
    let opts = RunOpts::parse_for("threshold_sweep");
    opts.banner("Threshold sweep (ablation)");

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
    let sweep_span = aml_telemetry::span!("bench.strategies");
    aml_telemetry::serve::set_phase("strategies");

    // Coverage side: one shared analysis per threshold.
    let mut shared_cfg = AutoMlConfig {
        n_candidates: 16,
        parallelism: threads,
        seed: opts.seed,
        ..Default::default()
    };
    opts.apply_automl_limits(&mut shared_cfg);
    let run = AutoMl::new(shared_cfg).fit(&train).expect("automl");

    let thresholds = [0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2];
    let mut rows = Vec::new();
    report(&format!(
        "{:>10} {:>10} {:>16} {:>22}",
        "T", "coverage", "flagged feats", "mean BA after feedback"
    ));
    for &t in &thresholds {
        let ale = AleFeedback {
            threshold: ThresholdRule::Fixed(t),
            ..Default::default()
        };
        let analysis = ale
            .analyze(std::slice::from_ref(&run), &train)
            .expect("analysis");
        let coverage = mean(
            &analysis
                .regions
                .iter()
                .map(|r| r.coverage())
                .collect::<Vec<_>>(),
        );
        let flagged = analysis.flagged_features().len();

        // Accuracy side: Within-ALE feedback at this threshold.
        let oracle = |rws: &[Vec<f64>]| -> aml_core::Result<Dataset> {
            label_rows(rws, &domain, opts.seed ^ 0x04AC1E, threads)
                .map_err(|e| aml_core::CoreError::InvalidParameter(e.to_string()))
        };
        let mut automl = AutoMlConfig {
            n_candidates: 16,
            parallelism: threads,
            ..Default::default()
        };
        opts.apply_automl_limits(&mut automl);
        let cfg = ExperimentConfig {
            automl,
            n_feedback_points: n_feedback,
            n_cross_runs: 2,
            ale,
            seed: opts.seed,
        };
        let ba = match run_strategy(
            Strategy::WithinAle,
            &cfg,
            &train,
            None,
            Some(&oracle),
            &test_sets,
        ) {
            Ok(out) => mean(&out.scores),
            // A very high threshold flags nothing — the feedback returns
            // NoRegions and the operator keeps the baseline model.
            Err(aml_core::CoreError::NoRegions) => f64::NAN,
            Err(e) => panic!("sweep at T={t} failed: {e}"),
        };
        report(&format!(
            "{t:>10.3} {:>9.1}% {flagged:>16} {:>21.1}%",
            coverage * 100.0,
            ba * 100.0
        ));
        rows.push(SweepRow {
            threshold: t,
            coverage,
            flagged_features: flagged,
            mean_balanced_accuracy: ba,
        });
    }

    // Monotonicity check (the paper's qualitative claim).
    let coverages: Vec<f64> = rows.iter().map(|r| r.coverage).collect();
    let monotone = coverages.windows(2).all(|w| w[1] <= w[0] + 1e-9);
    report(&format!(
        "\ncoverage monotonically shrinks as T grows: {}",
        if monotone { "yes (matches §4)" } else { "NO" }
    ));
    write_json(&opts.out_dir, "threshold_sweep.json", &rows);

    drop(sweep_span);
    opts.finish();
}
