//! **Figures 2a/2b**: ALE bands of `src_port` and `dst_port` on the
//! firewall dataset — the interpretability showcase. Expected shape:
//! high cross-model variance at *low source ports* (kernel-assigned, weak
//! contradictory signal → discard) and around *destination ports 443–445*
//! (HTTPS DDoS target → collect more data).
//!
//! ```sh
//! cargo run --release -p aml-bench --bin fig2_firewall_ale [--quick|--full]
//! ```

use aml_automl::{AutoMl, AutoMlConfig};
use aml_bench::{ale_bands_json, write_artifact, write_json, RunOpts};
use aml_core::{AleFeedback, AleMode, ThresholdRule};
use aml_dataset::split::three_way_split;
use aml_fwgen::{generate, FwGenConfig};
use aml_interpret::plot::{band_to_ascii, band_to_csv, band_to_svg};
use aml_telemetry::{note, report};

fn main() {
    let opts = RunOpts::parse_for("fig2_firewall_ale");
    opts.banner("Figures 2a/2b: firewall src/dst port ALE");

    let n_rows = opts.by_scale(4_000, 12_000, 65_532);
    let n_runs = opts.by_scale(3, 5, 10);

    let datagen_span = aml_telemetry::span!("bench.datagen");
    aml_telemetry::serve::set_phase("datagen");
    note(&format!("generating {n_rows} firewall rows..."));
    let full = generate(&FwGenConfig {
        n: n_rows,
        seed: opts.seed,
        ..Default::default()
    })
    .expect("fwgen");
    note(&format!("class counts {:?}", full.class_counts()));

    // Paper protocol: 40% train / 20% test / 40% pool.
    let (train, _test, _pool) = three_way_split(&full, 0.4, 0.2, opts.seed).expect("split");
    drop(datagen_span);
    let fit_span = aml_telemetry::span!("bench.automl_runs");
    aml_telemetry::serve::set_phase("automl_runs");
    note(&format!("training on {} rows...", train.n_rows()));

    let runs: Vec<_> = (0..n_runs)
        .map(|r| {
            let mut cfg = AutoMlConfig {
                n_candidates: 12,
                parallelism: opts.threads,
                seed: opts.seed ^ ((r as u64 + 1) * 6271),
                ..Default::default()
            };
            opts.apply_automl_limits(&mut cfg);
            AutoMl::new(cfg).fit(&train).expect("automl")
        })
        .collect();

    // ALE of the "allow" probability. The paper quotes a fixed T = 0.01 for
    // the UCL dataset; our std scale differs (3-10 committee members vs
    // auto-sklearn's ~50), so we use the §5-sanctioned per-feature rule:
    // each feature flags its own top-variance regions. The realized median
    // T is printed for the record.
    let ale = AleFeedback {
        mode: AleMode::Cross,
        n_intervals: 32,
        threshold: ThresholdRule::PerFeatureQuantile(0.85),
        target_class: 0,
        ..Default::default()
    };
    drop(fit_span);
    let report_span = aml_telemetry::span!("bench.report");
    aml_telemetry::serve::set_phase("report");
    let analysis = ale.analyze(&runs, &train).expect("analysis");
    report(&format!(
        "realized threshold T = {:.4}\n",
        analysis.threshold
    ));

    for (fig, feature_name) in [("fig2a", "src_port"), ("fig2b", "dst_port")] {
        let idx = train.feature_index(feature_name).expect("schema");
        let band = &analysis.bands[idx];
        let region = &analysis.regions[idx];
        report(&format!("=== {fig}: {feature_name} ==="));
        report(&band_to_ascii(band, 70, 12));
        report(&format!("flagged: {}\n", region.describe()));
        write_artifact(
            &opts.out_dir,
            &format!("{fig}_{feature_name}.csv"),
            &band_to_csv(band),
        );
        write_artifact(
            &opts.out_dir,
            &format!("{fig}_{feature_name}.svg"),
            &band_to_svg(band, 640, 360),
        );
    }
    write_json(
        &opts.out_dir,
        "fig2_all_bands.json",
        &ale_bands_json(&analysis.bands),
    );

    // The §4.2 shape checks.
    let src = train.feature_index("src_port").expect("schema");
    let dst = train.feature_index("dst_port").expect("schema");
    let src_band = &analysis.bands[src];
    let dst_band = &analysis.bands[dst];

    // (a) source-port variance concentrated at low values.
    let low_std = avg_std_in(src_band, 0.0, 1024.0);
    let high_std = avg_std_in(src_band, 1024.0, 65535.0);
    report(&format!(
        "src_port mean std: low ports (<1024) {:.4} vs rest {:.4} -> {}",
        low_std,
        high_std,
        if low_std > high_std {
            "matches Figure 2a"
        } else {
            "MISS"
        }
    ));

    // (b) the dst-port variance *peak* sits in 443-445 — the paper's "high
    // variance across the destination port range 443-445". Two comparisons:
    // against the other *dense* service-port region (< 1024, where the
    // committee has plenty of data — the apples-to-apples Figure 2b
    // reading) and against the sparse high-port tail, whose disagreement is
    // a separate sparsity phenomenon our synthetic generator amplifies.
    let https_peak = max_std_in(dst_band, 440.0, 450.0);
    let dense_peak = max_std_in(dst_band, 0.0, 440.0);
    let sparse_peak = max_std_in(dst_band, 1024.0, 65536.0);
    report(&format!(
        "dst_port peak std: 443-region {:.4} vs other service ports {:.4} -> {}",
        https_peak,
        dense_peak,
        if https_peak > dense_peak {
            "matches Figure 2b"
        } else {
            "MISS"
        }
    ));
    report(&format!(
        "  (sparse high-port tail peak {:.4} — sparsity-driven disagreement, reported separately)",
        sparse_peak
    ));

    drop(report_span);
    opts.finish();
}

/// Max std over grid points in `[lo, hi)`.
fn max_std_in(band: &aml_interpret::AleBand, lo: f64, hi: f64) -> f64 {
    band.grid
        .iter()
        .zip(&band.std)
        .filter(|(g, _)| **g >= lo && **g < hi)
        .map(|(_, s)| *s)
        .fold(0.0, f64::max)
}

/// Mean std over grid points in `[lo, hi)`; 0 if none fall there.
fn avg_std_in(band: &aml_interpret::AleBand, lo: f64, hi: f64) -> f64 {
    let vals: Vec<f64> = band
        .grid
        .iter()
        .zip(&band.std)
        .filter(|(g, _)| **g >= lo && **g < hi)
        .map(|(_, s)| *s)
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}
