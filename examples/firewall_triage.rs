//! The paper's §4.2 interpretability walk-through on the firewall dataset
//! (Figure 2): the operator reads the ALE feedback and decides — with
//! domain knowledge — which suggestions to act on.
//!
//! ```sh
//! cargo run --release --example firewall_triage
//! ```

use interpretable_automl::automl::{AutoMl, AutoMlConfig};
use interpretable_automl::data::split::three_way_split;
use interpretable_automl::feedback::{AleFeedback, ThresholdRule};
use interpretable_automl::fwgen::{generate, FwGenConfig};
use interpretable_automl::interpret::plot::band_to_ascii;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    println!("generating the synthetic Internet-Firewall dataset...");
    let full = generate(&FwGenConfig {
        n: 6_000,
        seed: 11,
        ..Default::default()
    })?;
    println!(
        "  {} rows, classes {:?}",
        full.n_rows(),
        full.class_counts()
    );

    // The paper's protocol: 40% train / 20% test / 40% candidate pool.
    let (train, _test, _pool) = three_way_split(&full, 0.4, 0.2, 3)?;

    println!("training AutoML on {} rows...", train.n_rows());
    let run = AutoMl::new(AutoMlConfig {
        n_candidates: 12,
        parallelism: threads,
        seed: 21,
        ..Default::default()
    })
    .fit(&train)?;
    println!("  ensemble: {:?}", run.member_names());

    // ALE of the "allow" class probability with per-feature thresholds
    // (paper §5: operators tune the threshold per feature).
    let ale = AleFeedback {
        target_class: 0,
        threshold: ThresholdRule::PerFeatureQuantile(0.85),
        ..Default::default()
    };
    let (analysis, feedback) = ale.feedback(&[run], &train)?;
    println!("\n{}", feedback.describe());

    for name in ["src_port", "dst_port"] {
        let Some(band) = analysis.bands.iter().find(|b| b.feature_name == name) else {
            continue;
        };
        println!("{}", band_to_ascii(band, 64, 12));
        let region = &analysis.regions[band.feature];
        println!("flagged: {}\n", region.describe());
    }

    println!("--- operator triage (the paper's §4.2 reasoning) ---");
    println!("* src_port: kernel-assigned, noisy by nature -> DISCARD this bound");
    println!("* dst_port 443-445: HTTPS, a prime DDoS target -> COLLECT more data here");

    Ok(())
}
