//! Kill-and-resume identity (DESIGN.md §7): a run checkpointed after
//! every feedback round and killed mid-experiment, then resumed with
//! `--resume`, must produce a final ledger whose sorted lines are
//! byte-identical to the same-seed run left uninterrupted.
//!
//! The test drives the same machinery the bench bins use —
//! [`aml_core::ExperimentLoop`] + [`aml_telemetry::LedgerJsonlSink`] —
//! in-process: it runs four feedback rounds straight through, then
//! replays the first two into a second ledger, simulates a SIGKILL by
//! appending a partially-flushed line past the last checkpoint, resumes,
//! and diffs. One `#[test]` per file: the sink list, the fault plan, and
//! the ledger round counter are process-global.

use aml_core::{run_strategy, Checkpoint, ExperimentConfig, ExperimentLoop, Strategy};
use aml_dataset::{split::split_into_k, split::train_test_split, synth, Dataset};
use aml_telemetry::sink::{self, RunHeader};
use aml_telemetry::{LedgerJsonlSink, Snapshot};
use std::fs;
use std::path::Path;

const WORKLOAD: &str = "resume_identity";
const SEED: u64 = 21;
const ROUNDS: [Strategy; 4] = [
    Strategy::NoFeedback,
    Strategy::Uniform,
    Strategy::NoFeedback,
    Strategy::Uniform,
];

fn header() -> RunHeader {
    // Every field pinned: the header line must be byte-identical across
    // the uninterrupted and the resumed ledger.
    RunHeader {
        run_id: format!("{WORKLOAD}-s{SEED}-p1"),
        workload: WORKLOAD.into(),
        seed: SEED,
        git: "test".into(),
    }
}

fn fixtures() -> (Dataset, Vec<Dataset>) {
    let ds = synth::two_moons(240, 0.25, 9).unwrap();
    let (train, test) = train_test_split(&ds, 0.3, true, 1).unwrap();
    let test_sets = split_into_k(&test, 3, 7).unwrap();
    (train, test_sets)
}

/// Per-round config: randomness derives from the master seed and the
/// round index alone (the checkpoint module's determinism contract), so
/// a resumed round 2 equals an uninterrupted round 2.
fn round_cfg(round: u64) -> ExperimentConfig {
    ExperimentConfig {
        automl: aml_automl::AutoMlConfig {
            n_candidates: 6,
            parallelism: 2,
            ..Default::default()
        },
        n_feedback_points: 10,
        n_cross_runs: 2,
        seed: SEED ^ ((round + 1) * 0xA5A5),
        ..Default::default()
    }
}

/// Run rounds `[from, to)` through the experiment loop, exactly like the
/// bench bins: skip checkpointed rounds, record fresh ones.
fn drive(exp_loop: &mut ExperimentLoop, train: &Dataset, test_sets: &[Dataset], to: usize) {
    let oracle = |rows: &[Vec<f64>]| -> aml_core::Result<Dataset> {
        let labels: Vec<usize> = rows.iter().map(|r| usize::from(r[0] > 0.5)).collect();
        Dataset::from_rows(rows, &labels, 2)
            .map_err(|e| aml_core::CoreError::InvalidParameter(e.to_string()))
    };
    for (round, strategy) in ROUNDS.iter().take(to).enumerate() {
        let round = round as u64;
        exp_loop
            .run_round(round, *strategy, || {
                run_strategy(
                    *strategy,
                    &round_cfg(round),
                    train,
                    None,
                    Some(&oracle),
                    test_sets,
                )
            })
            .expect("round");
    }
}

fn sorted_lines(path: &Path) -> Vec<String> {
    let mut lines: Vec<String> = fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();
    lines.sort();
    lines
}

#[test]
fn resumed_ledger_is_byte_identical_to_uninterrupted_run() {
    let dir = std::env::temp_dir().join(format!("aml_resume_identity_{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let (train, test_sets) = fixtures();

    // Uninterrupted reference run: four rounds, one process.
    let ledger_a = dir.join("a.jsonl");
    let ckpt_a = dir.join("a.ckpt");
    aml_telemetry::ledger::set_next_round(0);
    sink::install(Box::new(
        LedgerJsonlSink::create(&ledger_a, &header()).unwrap(),
    ));
    let mut loop_a =
        ExperimentLoop::new(WORKLOAD, SEED, Some(ckpt_a.clone()), Some(ledger_a.clone()));
    drive(&mut loop_a, &train, &test_sets, ROUNDS.len());
    sink::finish(&Snapshot::default());
    let reference = sorted_lines(&ledger_a);
    assert!(
        reference
            .iter()
            .any(|l| l.contains("\"type\":\"round_completed\"") && l.contains("\"round\":3,")),
        "reference run must ledger all four rounds"
    );

    // Interrupted run: two rounds, then a simulated SIGKILL — the last
    // flushed state is checkpoint 1, plus a half-written ledger line
    // that never got its newline.
    let ledger_b = dir.join("b.jsonl");
    let ckpt_b = dir.join("b.ckpt");
    aml_telemetry::ledger::set_next_round(0);
    sink::install(Box::new(
        LedgerJsonlSink::create(&ledger_b, &header()).unwrap(),
    ));
    let mut loop_b =
        ExperimentLoop::new(WORKLOAD, SEED, Some(ckpt_b.clone()), Some(ledger_b.clone()));
    drive(&mut loop_b, &train, &test_sets, 2);
    sink::finish(&Snapshot::default());
    let flushed = fs::metadata(&ledger_b).unwrap().len();
    let mut torn = fs::read(&ledger_b).unwrap();
    torn.extend_from_slice(b"{\"type\":\"trial_started\",\"trial\":0,\"ru");
    fs::write(&ledger_b, &torn).unwrap();

    // Resume: prepare_resume drops the torn tail (back to the
    // checkpoint's recorded length) and fast-forwards the round counter
    // before the sink reopens the ledger in append mode — the same
    // ordering RunOpts::prepare uses.
    let ckpt = aml_core::checkpoint::prepare_resume(WORKLOAD, SEED, &ckpt_b, Some(&ledger_b))
        .expect("resume");
    // The original run already wrote its once-per-run search_space line;
    // mark the gate so the continuation doesn't append a second one
    // (RunOpts::prepare does the same on --resume).
    aml_telemetry::ledger::mark_search_space_emitted();
    assert_eq!(ckpt.rounds.len(), 2, "two rounds checkpointed");
    assert_eq!(
        fs::metadata(&ledger_b).unwrap().len(),
        flushed,
        "the torn tail is truncated away"
    );
    sink::install(Box::new(LedgerJsonlSink::append(&ledger_b).unwrap()));
    let mut resumed = ExperimentLoop::from_checkpoint(ckpt, Some(ckpt_b), Some(ledger_b.clone()));
    drive(&mut resumed, &train, &test_sets, ROUNDS.len());
    sink::finish(&Snapshot::default());

    assert_eq!(
        sorted_lines(&ledger_b),
        reference,
        "sorted resumed ledger must be byte-identical to the uninterrupted run"
    );

    // A truncated checkpoint is a typed error, never a panic.
    let text = fs::read_to_string(&ckpt_a).unwrap();
    let cut = &text[..text.len() - 7];
    let err = Checkpoint::decode(cut).expect_err("truncated checkpoint must be rejected");
    assert!(
        matches!(err, aml_core::ExperimentError::CheckpointTruncated { .. }),
        "unexpected error: {err}"
    );

    fs::remove_dir_all(&dir).ok();
}
