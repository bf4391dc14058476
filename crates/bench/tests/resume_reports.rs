//! Resume reproduces every ledger-derived artifact (DESIGN.md §7): a run
//! checkpointed after every round, SIGKILLed mid-round and resumed with
//! `--resume`, must write the same ledger lines, recompute to the same
//! search and quality reports and write the same history-record ML
//! fields as the run left uninterrupted.
//!
//! The test drives [`RunOpts`] the way the bench bins do, with
//! `--ledger-out --record --checkpoint`. The
//! interrupted life of run B is a real process: the test re-executes its
//! own binary with [`CHILD_ENV`] naming the run directory, and the child
//! pauses in round index 2 after the round's trials reached the ledger
//! but before the round's checkpoint. The parent SIGKILLs it there, so
//! the ledger on disk ends in a tail that no checkpoint covers, then
//! resumes in-process. The search and quality reports are recomputed
//! from each run's `ledger.jsonl` the way `amlinspect` does; the history
//! record of the resumed run covers the whole run because `prepare`
//! replays the kept ledger prefix into the `--record` fold. One
//! `#[test]` per file: the sink list and the ledger round counter are
//! process-global.

use aml_bench::qualityview::parse_quality_ledger;
use aml_bench::searchview::parse_search_ledger;
use aml_bench::RunOpts;
use aml_core::{run_strategy, Checkpoint, ExperimentConfig, Strategy};
use aml_dataset::{split::split_into_k, split::train_test_split, synth, Dataset};
use aml_telemetry::{ledger, sink, HistoryRecord};
use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const TEST_NAME: &str = "resumed_run_reports_what_the_uninterrupted_run_reports";
/// Set in the child process only: the run directory of its life.
const CHILD_ENV: &str = "AML_RESUME_REPORTS_CHILD_DIR";
/// The round the child is killed in (0-based).
const KILL_ROUND: u64 = 2;
/// Written by the child once it is paused in [`KILL_ROUND`].
const MARKER: &str = "paused";

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

/// Run every round through the run's experiment loop, skipping the
/// rounds its checkpoint already holds. With `pause_at`, round
/// [`KILL_ROUND`] never commits: once its strategy has returned, the
/// sinks are flushed (so its trial events are on disk), the marker file
/// `pause_at` is written, and the process sleeps until it is killed.
fn drive(opts: &RunOpts, train: &Dataset, test_sets: &[Dataset], pause_at: Option<&Path>) {
    let oracle = |rows: &[Vec<f64>]| -> aml_core::Result<Dataset> {
        let labels: Vec<usize> = rows.iter().map(|r| usize::from(r[0] > 0.5)).collect();
        Dataset::from_rows(rows, &labels, 2)
            .map_err(|e| aml_core::CoreError::InvalidParameter(e.to_string()))
    };
    let mut exp_loop = opts.experiment_loop();
    for (round, strategy) in ROUNDS.iter().enumerate() {
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
                let out = run_strategy(*strategy, &cfg, train, None, Some(&oracle), test_sets);
                if let (Some(marker), KILL_ROUND) = (pause_at, round) {
                    sink::flush_installed().expect("flush the uncheckpointed tail");
                    fs::write(marker, "").expect("write marker");
                    std::thread::sleep(Duration::from_secs(300));
                    panic!("the parent never killed this process");
                }
                out
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

/// The ledger's event lines, sorted. The `"type":"ledger"` header is
/// dropped: its `run_id` carries the pid of the process that wrote it.
fn sorted_ledger(dir: &Path) -> Vec<String> {
    let text = fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
    let mut lines: Vec<String> = text
        .lines()
        .filter(|l| !l.contains("\"type\":\"ledger\""))
        .map(String::from)
        .collect();
    lines.sort();
    lines
}

/// The search and quality reports of a finished run, recomputed from
/// its ledger the way `amlinspect search|quality --json` does.
fn ledger_reports(dir: &Path) -> [String; 2] {
    let text = fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
    [
        parse_search_ledger(&text).unwrap().render_json(),
        parse_quality_ledger(&text).unwrap().render_json(),
    ]
}

/// Run B's first life, in a child process: every round up to
/// [`KILL_ROUND`], where it pauses to be killed.
fn child_life(dir: &Path) {
    let (train, test_sets) = fixtures();
    ledger::set_next_round(0);
    let opts = prepare(dir, &[]);
    drive(&opts, &train, &test_sets, Some(&dir.join(MARKER)));
}

/// Start run B's first life in a child process, wait until it pauses
/// inside [`KILL_ROUND`], and SIGKILL it.
fn run_and_kill_child(dir: &Path) {
    fs::create_dir_all(dir).unwrap();
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args([TEST_NAME, "--exact", "--nocapture"])
        .env(CHILD_ENV, dir)
        .stdout(Stdio::null())
        .spawn()
        .expect("re-execute the test binary");
    let deadline = Instant::now() + Duration::from_secs(300);
    while !dir.join(MARKER).exists() {
        if let Some(status) = child.try_wait().unwrap() {
            panic!("child exited before pausing in round {KILL_ROUND}: {status}");
        }
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("child never paused in round {KILL_ROUND}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("SIGKILL the child");
    let status = child.wait().unwrap();
    assert!(!status.success(), "child was not killed: {status}");
}

#[test]
fn resumed_run_reports_what_the_uninterrupted_run_reports() {
    if let Some(dir) = std::env::var_os(CHILD_ENV) {
        child_life(Path::new(&dir));
        return;
    }
    let root = std::env::temp_dir().join(format!("aml_resume_reports_{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let (dir_a, dir_b) = (root.join("a"), root.join("b"));
    let (train, test_sets) = fixtures();

    // Run A: four rounds straight through.
    ledger::set_next_round(0);
    let opts = prepare(&dir_a, &[]);
    drive(&opts, &train, &test_sets, None);
    opts.finish();
    let reports_a = ledger_reports(&dir_a);

    // Run B: a real process SIGKILLed inside round 2. Rounds 0 and 1 are
    // checkpointed; round 2's trial events lie past the checkpoint's
    // ledger length.
    run_and_kill_child(&dir_b);
    let ckpt = Checkpoint::load(&dir_b.join("run.ckpt")).expect("checkpoint survives");
    assert_eq!(ckpt.rounds.len(), KILL_ROUND as usize, "{ckpt:?}");
    let ledger_len = fs::metadata(dir_b.join("ledger.jsonl")).unwrap().len();
    assert!(
        ledger_len > ckpt.ledger_bytes,
        "no torn tail: ledger {ledger_len} bytes, checkpoint {}",
        ckpt.ledger_bytes
    );

    // ...resumed to completion in this process.
    let ckpt = dir_b.join("run.ckpt").to_string_lossy().into_owned();
    let opts = prepare(&dir_b, &["--resume", &ckpt]);
    drive(&opts, &train, &test_sets, None);
    opts.finish();

    assert_eq!(sorted_ledger(&dir_b), sorted_ledger(&dir_a));
    let [search_b, quality_b] = ledger_reports(&dir_b);
    assert!(
        !search_b.contains("\"trials\":{\"started\":0,"),
        "{search_b}"
    );
    assert_eq!(
        search_b, reports_a[0],
        "resumed search report differs from the uninterrupted run's"
    );
    assert_eq!(
        quality_b, reports_a[1],
        "resumed quality report differs from the uninterrupted run's"
    );
    let (a, b) = (history(&dir_a), history(&dir_b));
    assert_eq!(a.rounds, ROUNDS.len() as u64, "{a:?}");
    assert!(a.trials_finished > 0 && a.ece.is_some(), "{a:?}");
    assert_eq!(
        (b.trials_finished, b.trials_failed, b.rounds),
        (a.trials_finished, a.trials_failed, a.rounds)
    );
    assert_eq!(b.final_acc, a.final_acc);
    assert_eq!(b.ece, a.ece);

    aml_telemetry::set_level(aml_telemetry::TelemetryLevel::Off);
    fs::remove_dir_all(&root).ok();
}
