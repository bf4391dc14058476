//! **Figure 1**: the ALE band of `config.link_rate` for the Scream-vs-rest
//! problem, with the high-variance feedback regions extracted — the paper's
//! `x ≤ 45 ∪ x ≥ 99` example output.
//!
//! ```sh
//! cargo run --release -p aml-bench --bin fig1_scream_ale [--quick|--full] [--seed N]
//! ```
//!
//! Emits `fig1_link_rate.csv`, `fig1_link_rate.svg`, an ASCII rendering,
//! and the extracted region description. Bands for all four features go to
//! `fig1_all_features.json`.

use aml_automl::{AutoMl, AutoMlConfig};
use aml_bench::{ale_bands_json, write_artifact, write_json, RunOpts};
use aml_core::{AleFeedback, AleMode};
use aml_interpret::plot::{band_to_ascii, band_to_csv, band_to_svg};
use aml_netsim::datagen::SamplingMode;
use aml_netsim::ConditionDomain;
use aml_telemetry::{note, report};

fn main() {
    let opts = RunOpts::parse_for("fig1_scream_ale");
    opts.banner("Figure 1: ALE of config.link_rate (Scream vs rest)");

    let n_train = opts.by_scale(200, 600, 1161);
    let n_runs = opts.by_scale(3, 6, 10);
    let domain = ConditionDomain::default();

    let datagen_span = aml_telemetry::span!("bench.datagen");
    aml_telemetry::serve::set_phase("datagen");
    note(&format!(
        "generating {n_train} training samples from the simulator..."
    ));
    let spec = aml_bench::NetsimSpec {
        domain,
        mode: SamplingMode::Uniform,
        n: n_train,
        seed: opts.seed,
    };
    let train = aml_bench::cached_netsim(&opts.out_dir, &spec, opts.threads);
    note(&format!(
        "class balance (rest, scream): {:?}",
        train.class_counts()
    ));
    drop(datagen_span);

    let fit_span = aml_telemetry::span!("bench.automl_runs");
    aml_telemetry::serve::set_phase("automl_runs");
    note(&format!(
        "fitting {n_runs} independent AutoML runs (Cross-ALE, as in the figure)..."
    ));
    let runs: Vec<_> = (0..n_runs)
        .map(|r| {
            let mut cfg = AutoMlConfig {
                n_candidates: 16,
                parallelism: opts.threads,
                seed: opts.seed ^ ((r as u64 + 1) * 7919),
                ..Default::default()
            };
            opts.apply_automl_limits(&mut cfg);
            AutoMl::new(cfg).fit(&train).expect("automl fit")
        })
        .collect();

    drop(fit_span);

    let report_span = aml_telemetry::span!("bench.report");
    aml_telemetry::serve::set_phase("report");
    let ale = AleFeedback {
        mode: AleMode::Cross,
        n_intervals: 24,
        ..Default::default()
    };
    let analysis = ale.analyze(&runs, &train).expect("ALE analysis");
    report(&format!(
        "\nthreshold T = {:.4} (median of ALE std values across features)\n",
        analysis.threshold
    ));

    let link_rate = train
        .feature_index("config.link_rate")
        .expect("schema has config.link_rate");
    let band = &analysis.bands[link_rate];
    report(&band_to_ascii(band, 70, 14));
    let region = &analysis.regions[link_rate];
    report("feedback region (the paper's `x <= 45 ∪ x >= 99` analogue):");
    report(&format!("  {}\n", region.describe()));
    report(&format!(
        "coverage: {:.0}% of the link-rate domain flagged",
        region.coverage() * 100.0
    ));

    write_artifact(&opts.out_dir, "fig1_link_rate.csv", &band_to_csv(band));
    write_artifact(
        &opts.out_dir,
        "fig1_link_rate.svg",
        &band_to_svg(band, 640, 360),
    );
    write_json(
        &opts.out_dir,
        "fig1_all_features.json",
        &ale_bands_json(&analysis.bands),
    );

    report("\nper-feature summary:");
    for (band, region) in analysis.bands.iter().zip(&analysis.regions) {
        report(&format!(
            "  {:<18} max std {:.4} | mean std {:.4} | {}",
            band.feature_name,
            band.max_std(),
            band.mean_std(),
            region.describe()
        ));
    }

    drop(report_span);
    opts.finish();
}
