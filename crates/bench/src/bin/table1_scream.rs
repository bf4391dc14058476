//! **Table 1**: Scream-vs-rest balanced accuracy of all nine strategies
//! with one-sided Wilcoxon p-values, the paper's headline experiment.
//!
//! ```sh
//! cargo run --release -p aml-bench --bin table1_scream [--quick|--full] [--seed N]
//! ```
//!
//! Protocol (paper §4): train AutoML on the initial set; each strategy adds
//! its feedback points (280 in the paper; pool variants add what the pool
//! covers); retrain; evaluate balanced accuracy on each of the 20 test
//! sets; repeat the whole thing `repeats` times and pool the paired
//! per-test-set scores for the Wilcoxon tests.

use aml_automl::AutoMlConfig;
use aml_bench::{cached_netsim, mean, write_artifact, write_json, NetsimSpec, RunOpts};
use aml_core::{run_strategy, AleFeedback, ExperimentConfig, Strategy, ThresholdRule};
use aml_dataset::split::split_into_k;
use aml_dataset::Dataset;
use aml_netsim::datagen::{label_rows, SamplingMode};
use aml_netsim::ConditionDomain;
use aml_telemetry::{note, report};
use std::collections::BTreeMap;

fn main() {
    let opts = RunOpts::parse_for("table1_scream");
    opts.banner("Table 1: Scream vs rest");

    // Paper-scale numbers: 1161 train, +280 feedback, 2000-point pool,
    // 4850 test rows in 20 sets, 10 repeats, 10 Cross-ALE runs.
    let n_train = opts.by_scale(200, 500, 1161);
    let n_feedback = opts.by_scale(60, 140, 280);
    let n_pool = opts.by_scale(400, 900, 2000);
    let n_test = opts.by_scale(800, 2000, 4850);
    let n_test_sets = opts.by_scale(8, 12, 20);
    let repeats = opts.by_scale(2, 4, 10);
    let n_cross_runs = opts.by_scale(3, 5, 10);

    let domain = ConditionDomain::default();
    let threads = opts.threads;

    // Training data comes from a production-like collection campaign
    // (paper §2.2: operators "collect data from production and miss
    // observing unique cases"); the candidate pool is sampled uniformly at
    // random, exactly like the paper's 2000-point candidate set; and the
    // test data is uniform over the whole domain — the deployed model must
    // decide for ANY network condition, including the rare regimes the
    // production traces under-sample. That coverage gap is precisely what
    // the feedback loop exists to close.
    let datagen_span = aml_telemetry::span!("bench.datagen");
    aml_telemetry::serve::set_phase("datagen");
    note(&format!(
        "generating datasets (train {n_train}, pool {n_pool}, test {n_test})..."
    ));
    let spec = |mode, n, seed| NetsimSpec {
        domain,
        mode,
        n,
        seed,
    };
    let train = cached_netsim(
        &opts.out_dir,
        &spec(SamplingMode::Production, n_train, opts.seed),
        threads,
    );
    let pool = cached_netsim(
        &opts.out_dir,
        &spec(SamplingMode::Uniform, n_pool, opts.seed ^ 0xB00B),
        threads,
    );
    let test = cached_netsim(
        &opts.out_dir,
        &spec(SamplingMode::Uniform, n_test, opts.seed ^ 0x7E57),
        threads,
    );
    note(&format!(
        "train balance {:?} | pool {:?} | test {:?}",
        train.class_counts(),
        pool.class_counts(),
        test.class_counts()
    ));
    drop(datagen_span);

    let strategies = [
        Strategy::NoFeedback,
        Strategy::WithinAle,
        Strategy::CrossAle,
        Strategy::Uniform,
        Strategy::Confidence,
        Strategy::Upsampling,
        Strategy::Qbc,
        Strategy::WithinAlePool,
        Strategy::CrossAlePool,
    ];

    // Pooled paired scores across repeats: repeats × test-sets entries per
    // strategy, paired by (repeat, test-set).
    let mut all_scores: BTreeMap<Strategy, Vec<f64>> = BTreeMap::new();
    let mut points_added: BTreeMap<Strategy, usize> = BTreeMap::new();

    let strategies_span = aml_telemetry::span!("bench.strategies");
    aml_telemetry::serve::set_phase("strategies");
    // Checkpoint/resume: each (repeat, strategy) application is one
    // feedback round; rounds recorded in a `--checkpoint` file are
    // skipped on `--resume` and their scores reused.
    let mut exp_loop = opts.experiment_loop();
    let mut round: u64 = 0;
    for rep in 0..repeats {
        let rep_seed = opts.seed ^ ((rep as u64 + 1) * 0xA5A5);
        let test_sets = split_into_k(&test, n_test_sets, rep_seed).expect("test split");
        let oracle = |rows: &[Vec<f64>]| -> aml_core::Result<Dataset> {
            label_rows(rows, &domain, rep_seed ^ 0x04AC1E, threads)
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
            n_cross_runs,
            // A 0.75-quantile threshold: with small committees the std
            // landscape is flatter than auto-sklearn's 50-member ensembles,
            // so the paper's median rule over-flags; the higher quantile
            // recovers Figure-1-like focused regions (DESIGN.md notes the
            // deviation).
            ale: AleFeedback {
                threshold: ThresholdRule::QuantileStd(0.75),
                ..Default::default()
            },
            seed: rep_seed,
        };
        for strategy in strategies {
            let t0 = std::time::Instant::now();
            let (rec, resumed) = exp_loop
                .run_round(round, strategy, || {
                    run_strategy(
                        strategy,
                        &cfg,
                        &train,
                        Some(&pool),
                        Some(&oracle),
                        &test_sets,
                    )
                })
                .unwrap_or_else(|e| panic!("round {round} ({}) failed: {e}", strategy.name()));
            round += 1;
            note(&format!(
                "repeat {}/{repeats} | {:<18} | mean BA {:>5.1}% | +{:>4} pts | {}",
                rep + 1,
                strategy.name(),
                mean(&rec.scores) * 100.0,
                rec.points_added,
                if resumed {
                    "resumed".to_string()
                } else {
                    format!("{:>5.1?}", t0.elapsed())
                }
            ));
            all_scores
                .entry(strategy)
                .or_default()
                .extend(rec.scores.iter());
            *points_added.entry(strategy).or_default() += rec.points_added as usize;
        }
    }

    drop(strategies_span);

    // Assemble the paper-layout table from the pooled paired scores.
    let report_span = aml_telemetry::span!("bench.report");
    aml_telemetry::serve::set_phase("report");
    let mut outcomes_sorted: Vec<(Strategy, Vec<f64>, usize)> = strategies
        .iter()
        .map(|s| (*s, all_scores[s].clone(), points_added[s] / repeats))
        .collect();
    // Keep Table-1 row order.
    let table = build_table(&mut outcomes_sorted);
    report(&format!("\n{table}"));
    write_artifact(&opts.out_dir, "table1_scream.txt", &table);
    let json: BTreeMap<String, Vec<f64>> = all_scores
        .iter()
        .map(|(s, v)| (s.name().to_string(), v.clone()))
        .collect();
    write_json(&opts.out_dir, "table1_scream_scores.json", &json);

    // Shape checks against the paper (printed, not asserted — EXPERIMENTS.md
    // records them).
    let m = |s: Strategy| mean(&all_scores[&s]);
    report("\nshape checks vs the paper:");
    check(
        "Cross-ALE > Within-ALE",
        m(Strategy::CrossAle) > m(Strategy::WithinAle),
    );
    check(
        "Within-ALE > no feedback",
        m(Strategy::WithinAle) > m(Strategy::NoFeedback),
    );
    check(
        "Uniform < no feedback",
        m(Strategy::Uniform) < m(Strategy::NoFeedback),
    );
    check(
        "free ALE > pool-restricted ALE",
        m(Strategy::CrossAle) > m(Strategy::CrossAlePool)
            && m(Strategy::WithinAle) > m(Strategy::WithinAlePool),
    );
    check(
        "upsampling competitive (within 3% of best)",
        m(Strategy::Upsampling) >= strategies.iter().map(|s| m(*s)).fold(f64::MIN, f64::max) - 0.03,
    );

    drop(report_span);
    opts.finish();
}

fn build_table(outcomes: &mut [(Strategy, Vec<f64>, usize)]) -> String {
    use aml_stats::PairwiseMatrix;
    let mut matrix = PairwiseMatrix::new();
    for (s, scores, pts) in outcomes.iter() {
        let name = if matches!(s, Strategy::WithinAlePool | Strategy::CrossAlePool) {
            format!("{} ({} points)", s.name(), pts)
        } else {
            s.name().to_string()
        };
        matrix.add(name, scores.clone()).expect("paired scores");
    }
    matrix
        .render(&["Without feedback", "Within-ALE", "Cross-ALE"])
        .expect("render")
}

fn check(what: &str, ok: bool) {
    report(&format!("  [{}] {what}", if ok { "ok" } else { "MISS" }));
}
