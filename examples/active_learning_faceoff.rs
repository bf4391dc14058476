//! The nine Table-1 strategies head to head on one dataset — a miniature
//! Table 1.
//!
//! ```sh
//! cargo run --release --example active_learning_faceoff
//! ```

use interpretable_automl::automl::AutoMlConfig;
use interpretable_automl::data::{split::split_into_k, synth, Dataset};
use interpretable_automl::feedback::{run_strategy, ExperimentConfig, Strategy, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    // Noisy XOR with a known oracle: every strategy can play.
    let train = synth::noisy_xor(250, 0.1, 1)?;
    let pool = synth::noisy_xor(600, 0.1, 2)?;
    let test = synth::noisy_xor(800, 0.0, 3)?;
    let test_sets = split_into_k(&test, 8, 4)?;

    let oracle = |rows: &[Vec<f64>]| -> interpretable_automl::feedback::Result<Dataset> {
        let labels: Vec<usize> = rows
            .iter()
            .map(|r| usize::from((r[0] > 0.5) != (r[1] > 0.5)))
            .collect();
        Ok(Dataset::from_rows(rows, &labels, 2)?)
    };

    let cfg = ExperimentConfig {
        automl: AutoMlConfig {
            n_candidates: 10,
            parallelism: threads,
            ..Default::default()
        },
        n_feedback_points: 60,
        n_cross_runs: 3,
        seed: 9,
        ..Default::default()
    };

    let mut outcomes = Vec::new();
    for strategy in Strategy::ALL {
        print!("running {:<22} ... ", strategy.name());
        let out = run_strategy(
            strategy,
            &cfg,
            &train,
            Some(&pool),
            Some(&oracle),
            &test_sets,
        )?;
        let mean = out.scores.iter().sum::<f64>() / out.scores.len() as f64;
        println!(
            "balanced accuracy {:.1}% (+{} points)",
            mean * 100.0,
            out.n_points_added
        );
        outcomes.push(out);
    }

    println!("\n{}", Table::build(&outcomes)?.render()?);
    println!("(p-values: one-sided Wilcoxon, H1 = row is worse than column)");
    Ok(())
}
