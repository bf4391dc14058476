//! Resume reproduces every ledger-derived artifact (DESIGN.md §7): a run
//! checkpointed after every round, killed after round 2 and resumed with
//! `--resume`, must write the same `search.json` and `quality.json` bytes
//! and the same history-record ML fields as the run left uninterrupted.
//!
//! The test drives [`RunOpts`] the way the bench bins do, with
//! `--ledger-out --search-out --quality-out --record --checkpoint`. The
//! reports of the resumed run cover the whole run because `prepare`
//! replays the kept ledger prefix into every armed fold. One `#[test]`
//! per file: the sink list and the ledger round counter are
//! process-global.

use aml_bench::RunOpts;
use aml_core::{run_strategy, ExperimentConfig, Strategy};
use aml_dataset::{split::split_into_k, split::train_test_split, synth, Dataset};
use aml_telemetry::{ledger, sink, HistoryRecord, Snapshot};
use std::fs;
use std::path::Path;

const SEED: u64 = 21;
const ROUNDS: [Strategy; 4] = [
    Strategy::NoFeedback,
    Strategy::Uniform,
    Strategy::NoFeedback,
    Strategy::Uniform,
];

fn fixtures() -> (Dataset, Vec<Dataset>) {
    let ds = synth::two_moons(240, 0.25, 9).unwrap();
    let (train, test) = train_test_split(&ds, 0.3, true, 1).unwrap();
    let test_sets = split_into_k(&test, 3, 7).unwrap();
    (train, test_sets)
}

/// Prepare a run writing every artifact into `dir`, plus `extra` flags.
fn prepare(dir: &Path, extra: &[&str]) -> RunOpts {
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let mut args: Vec<String> = vec![
        "--seed".into(),
        SEED.to_string(),
        "--ledger-out".into(),
        path("ledger.jsonl"),
        "--search-out".into(),
        path("search.json"),
        "--quality-out".into(),
        path("quality.json"),
        "--record".into(),
        path("history.jsonl"),
        "--checkpoint".into(),
        path("run.ckpt"),
    ];
    args.extend(extra.iter().map(|s| s.to_string()));
    let mut opts = RunOpts::parse_from(&args).unwrap().unwrap();
    opts.workload = "resume_reports".into();
    opts.out_dir = dir.to_path_buf();
    opts.prepare().expect("prepare");
    opts
}

/// Run rounds `[0, to)` through the run's experiment loop, skipping the
/// rounds its checkpoint already holds.
fn drive(opts: &RunOpts, train: &Dataset, test_sets: &[Dataset], to: usize) {
    let oracle = |rows: &[Vec<f64>]| -> aml_core::Result<Dataset> {
        let labels: Vec<usize> = rows.iter().map(|r| usize::from(r[0] > 0.5)).collect();
        Dataset::from_rows(rows, &labels, 2)
            .map_err(|e| aml_core::CoreError::InvalidParameter(e.to_string()))
    };
    let mut exp_loop = opts.experiment_loop();
    for (round, strategy) in ROUNDS.iter().take(to).enumerate() {
        let round = round as u64;
        let cfg = ExperimentConfig {
            automl: aml_automl::AutoMlConfig {
                n_candidates: 6,
                parallelism: 2,
                ..Default::default()
            },
            n_feedback_points: 10,
            n_cross_runs: 2,
            seed: SEED ^ ((round + 1) * 0xA5A5),
            ..Default::default()
        };
        exp_loop
            .run_round(round, *strategy, || {
                run_strategy(*strategy, &cfg, train, None, Some(&oracle), test_sets)
            })
            .expect("round");
    }
}

fn history(dir: &Path) -> HistoryRecord {
    let text = fs::read_to_string(dir.join("history.jsonl")).expect("history written");
    let records = aml_bench::gate::parse_history(&text);
    assert_eq!(records.len(), 1, "{text}");
    records[0].clone()
}

fn sorted_ledger(dir: &Path) -> Vec<String> {
    let text = fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    lines.sort();
    lines
}

#[test]
fn resumed_run_reports_what_the_uninterrupted_run_reports() {
    let root = std::env::temp_dir().join(format!("aml_resume_reports_{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let (dir_a, dir_b) = (root.join("a"), root.join("b"));
    let (train, test_sets) = fixtures();

    // Run A: four rounds straight through.
    ledger::set_next_round(0);
    let opts = prepare(&dir_a, &[]);
    drive(&opts, &train, &test_sets, ROUNDS.len());
    opts.finish();

    // Run B: two rounds, then a simulated SIGKILL — the sinks go away
    // without any report being written; round 2's checkpoint and its
    // flushed ledger bytes are all that survive.
    ledger::set_next_round(0);
    let opts = prepare(&dir_b, &[]);
    drive(&opts, &train, &test_sets, 2);
    sink::finish(&Snapshot::default());
    assert!(!dir_b.join("search.json").exists());

    // ...resumed to completion.
    let ckpt = dir_b.join("run.ckpt").to_string_lossy().into_owned();
    let opts = prepare(&dir_b, &["--resume", &ckpt]);
    drive(&opts, &train, &test_sets, ROUNDS.len());
    opts.finish();

    assert_eq!(sorted_ledger(&dir_b), sorted_ledger(&dir_a));
    for artifact in ["search.json", "quality.json"] {
        assert_eq!(
            fs::read_to_string(dir_b.join(artifact)).unwrap(),
            fs::read_to_string(dir_a.join(artifact)).unwrap(),
            "resumed {artifact} differs from the uninterrupted run's"
        );
    }
    let (a, b) = (history(&dir_a), history(&dir_b));
    assert_eq!(a.rounds, ROUNDS.len() as u64, "{a:?}");
    assert!(a.trials_finished > 0 && a.ece.is_some(), "{a:?}");
    assert_eq!(
        (b.trials_finished, b.trials_failed, b.rounds),
        (a.trials_finished, a.trials_failed, a.rounds)
    );
    assert_eq!(b.final_acc, a.final_acc);
    assert_eq!(b.ece, a.ece);

    aml_telemetry::serve::set_history_path(Path::new(aml_telemetry::history::DEFAULT_HISTORY_PATH));
    aml_telemetry::set_level(aml_telemetry::TelemetryLevel::Off);
    fs::remove_dir_all(&root).ok();
}
