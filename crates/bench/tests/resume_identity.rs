//! Resume identity (DESIGN.md §7): the ledger is the checkpoint. A run
//! whose ledger was cut short anywhere — mid-line, mid-round, right after
//! its header — and then resumed with `--resume` must end with a ledger
//! whose sorted lines are byte-identical to the same-seed run left
//! uninterrupted.
//!
//! The tests drive [`RunOpts`] and its experiment loop the way the bench
//! bins do, in-process. A reference run writes four rounds straight
//! through; an interrupted run's ledger is a prefix of the reference's
//! bytes, which is what a SIGKILL leaves on disk. The sink list and the
//! ledger round counter are process-global, so the tests take turns
//! through [`serial`].

use aml_bench::RunOpts;
use aml_core::resume::committed_prefix;
use aml_core::{run_strategy, ExperimentConfig, Strategy};
use aml_dataset::{split::split_into_k, split::train_test_split, synth, Dataset};
use aml_telemetry::{ledger, sink, Snapshot};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

const WORKLOAD: &str = "resume_identity";
const SEED: u64 = 21;
const ROUNDS: [Strategy; 4] = [
    Strategy::NoFeedback,
    Strategy::Uniform,
    Strategy::NoFeedback,
    Strategy::Uniform,
];

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("aml_resume_identity_{}_{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixtures() -> (Dataset, Vec<Dataset>) {
    let ds = synth::two_moons(240, 0.25, 9).unwrap();
    let (train, test) = train_test_split(&ds, 0.3, true, 1).unwrap();
    let test_sets = split_into_k(&test, 3, 7).unwrap();
    (train, test_sets)
}

/// Run every round of [`ROUNDS`] into `dir/ledger.jsonl`, exactly like
/// the bench bins: the loop skips the rounds a `--resume`d ledger
/// committed and runs the rest. Randomness derives from the master seed
/// and the round index alone, so a rerun round equals the original.
fn run(dir: &Path, resume: bool) {
    let mut args = vec![
        "--seed".to_string(),
        SEED.to_string(),
        "--ledger-out".to_string(),
        dir.join("ledger.jsonl").to_string_lossy().into_owned(),
    ];
    if resume {
        args.push("--resume".into());
    } else {
        ledger::set_next_round(0);
    }
    let mut opts = RunOpts::parse_from(&args).unwrap().unwrap();
    opts.workload = WORKLOAD.into();
    opts.out_dir = dir.to_path_buf();
    opts.prepare().expect("prepare");
    let (train, test_sets) = fixtures();
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
                run_strategy(*strategy, &cfg, &train, None, Some(&oracle), &test_sets)
            })
            .expect("round");
    }
    sink::finish(&Snapshot::default());
    aml_telemetry::set_level(aml_telemetry::TelemetryLevel::Off);
}

/// The uninterrupted four-round ledger, written once per test process.
/// Every run here shares the pid in the header's `run_id`, so whole
/// files compare, header included.
fn reference() -> &'static [u8] {
    static REFERENCE: OnceLock<Vec<u8>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let dir = scratch("reference");
        run(&dir, false);
        let bytes = fs::read(dir.join("ledger.jsonl")).unwrap();
        fs::remove_dir_all(&dir).ok();
        bytes
    })
}

fn sorted(bytes: &[u8]) -> Vec<String> {
    let mut lines: Vec<String> = String::from_utf8_lossy(bytes)
        .lines()
        .map(String::from)
        .collect();
    lines.sort();
    lines
}

/// Byte offsets just past each line's newline, in file order.
fn line_ends(bytes: &[u8]) -> Vec<usize> {
    (0..bytes.len())
        .filter(|&i| bytes[i] == b'\n')
        .map(|i| i + 1)
        .collect()
}

/// Line ends of the `round_completed` lines, in file order.
fn round_ends(bytes: &[u8]) -> Vec<usize> {
    let mut start = 0;
    let mut ends = Vec::new();
    for end in line_ends(bytes) {
        if String::from_utf8_lossy(&bytes[start..end]).contains("\"type\":\"round_completed\"") {
            ends.push(end);
        }
        start = end;
    }
    ends
}

/// Resume from `cut` (an interrupted ledger) and require the reference's
/// sorted lines; returns the length `--resume` truncated the file to.
fn resume_matches_reference(name: &str, cut: &[u8]) -> u64 {
    let dir = scratch(name);
    let path = dir.join("ledger.jsonl");
    fs::write(&path, cut).unwrap();
    let kept = committed_prefix(cut).unwrap().len;
    run(&dir, true);
    let resumed = fs::read(&path).unwrap();
    assert_eq!(
        sorted(&resumed),
        sorted(reference()),
        "{name}: the sorted resumed ledger must be byte-identical to the uninterrupted run"
    );
    assert_eq!(
        resumed
            .split(|&b| b == b'\n')
            .filter(|l| l.starts_with(b"{\"type\":\"search_space\""))
            .count(),
        1,
        "{name}: exactly one search_space line"
    );
    fs::remove_dir_all(&dir).ok();
    kept
}

#[test]
fn resumed_ledger_is_byte_identical_to_uninterrupted_run() {
    let _serial = serial();
    let full = reference();
    let rounds = round_ends(full);
    assert_eq!(
        rounds.len(),
        ROUNDS.len(),
        "the reference ledgers every round"
    );

    // Killed inside round 2: round 1's line is the last committed one,
    // then three complete lines of round 2 and a torn fourth.
    let ends = line_ends(full);
    let third = ends.iter().position(|&e| e == rounds[1]).unwrap() + 3;
    let cut = &full[..ends[third] + 20];
    let kept = resume_matches_reference("mid_round", cut);
    assert_eq!(kept, rounds[1] as u64, "the kept prefix ends after round 1");
}

#[test]
fn resume_with_no_committed_round_reruns_from_round_zero() {
    let _serial = serial();
    let full = reference();
    let ends = line_ends(full);
    let header = ends[0];

    // Killed before round 0 committed: an empty ledger (nothing was
    // flushed yet, so resume writes a fresh header), a header-only one...
    assert_eq!(resume_matches_reference("empty", &[]), 0);
    assert_eq!(
        resume_matches_reference("header_only", &full[..header]),
        header as u64
    );
    // ...and one with complete lines of round 0 (its search_space line
    // among them) but no round_completed line.
    let cut = &full[..ends[4]];
    assert!(String::from_utf8_lossy(cut).contains("\"type\":\"search_space\""));
    assert!(round_ends(cut).is_empty());
    assert_eq!(resume_matches_reference("uncommitted", cut), header as u64);
}

#[test]
fn every_cut_of_the_ledger_keeps_exactly_the_committed_rounds() {
    let _serial = serial();
    let full = reference();
    let rounds = round_ends(full);
    let header = line_ends(full)[0];
    for cut in 0..=full.len() {
        let prefix = committed_prefix(&full[..cut])
            .unwrap_or_else(|e| panic!("cut at {cut}/{}: {e}", full.len()));
        let committed = rounds.iter().filter(|&&end| end <= cut).count();
        assert_eq!(prefix.rounds.len(), committed, "cut at {cut}");
        for (i, rec) in prefix.rounds.iter().enumerate() {
            assert_eq!(rec.round, i as u64, "cut at {cut}");
        }
        let expected = match committed {
            0 if cut < header => 0,
            0 => header,
            n => rounds[n - 1],
        };
        assert_eq!(prefix.len, expected as u64, "cut at {cut}");
        assert!(expected == 0 || full[expected - 1] == b'\n');
    }

    // A gap in the round sequence (round 1's line lost, as a failing
    // sink write leaves it) ends the prefix: only round 0 is kept.
    let mut gapped = full[..rounds[0]].to_vec();
    let round1_start = line_ends(&full[..rounds[1] - 1]).pop().unwrap();
    gapped.extend_from_slice(&full[rounds[0]..round1_start]);
    gapped.extend_from_slice(&full[rounds[1]..]);
    let prefix = committed_prefix(&gapped).unwrap();
    assert_eq!(prefix.rounds.len(), 1);
    assert_eq!(prefix.len, rounds[0] as u64);
}
