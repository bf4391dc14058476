//! Resume for the experiment loop (DESIGN.md §7): the ledger is the
//! checkpoint.
//!
//! Every feedback round ends in a `round_completed` ledger line that
//! carries the round's per-test-set scores, and
//! [`ExperimentLoop::run_round`] flushes the sinks after every round it
//! runs (the ledger sink also syncs its file). So the `--ledger-out` file
//! itself records which rounds completed, and a `--resume` run continues
//! it ([`prepare_resume`]):
//!
//! * the kept prefix ends after the last `round_completed` line whose
//!   `round` continues the sequence 0, 1, 2, … ([`committed_prefix`]); a
//!   torn last line, the complete lines of a round that never committed,
//!   and a gap left by a dropped write all end it;
//! * the file is truncated to that byte offset and reopened for append,
//!   and the process-wide round counter is fast-forwarded, so appended
//!   `round_completed` lines continue the original numbering;
//! * the kept rounds become [`RoundRecord`]s, which the loop reuses
//!   instead of running those rounds again.
//!
//! The resumed run reproduces the uninterrupted one byte for byte in the
//! sorted ledger: every round's randomness is derived from the master
//! seed and the round's position (there is no long-lived RNG stream to
//! snapshot), and scores are written in their shortest round-trip form,
//! so the reused ones read back bit for bit.

use crate::experiment::{Strategy, StrategyOutcome};
use aml_telemetry::{LedgerEvent, RunHeader};
use std::fs;
use std::path::{Path, PathBuf};

/// Typed failures of resuming an experiment from its ledger.
#[derive(Debug)]
pub enum ExperimentError {
    /// I/O failure reading or truncating the ledger.
    LedgerIo {
        /// The ledger file.
        path: PathBuf,
        /// The underlying I/O error.
        message: String,
    },
    /// The ledger cannot continue this run: it belongs to another run
    /// (workload or seed differ), a kept round ran another strategy, or
    /// it carries no per-round scores to reuse.
    ResumeMismatch {
        /// Human-readable description of the mismatch.
        message: String,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::LedgerIo { path, message } => {
                write!(f, "ledger I/O error at {}: {message}", path.display())
            }
            ExperimentError::ResumeMismatch { message } => {
                write!(f, "ledger cannot resume this run: {message}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

fn mismatch(message: String) -> ExperimentError {
    ExperimentError::ResumeMismatch { message }
}

/// Summary of one completed feedback round, sufficient to skip the round
/// on resume: its accuracies feed the report, and its randomness is
/// re-derived from the master seed + round position, never replayed.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Process-wide round sequence number (matches the ledger's).
    pub round: u64,
    /// Strategy display name (matches `Strategy::name`).
    pub strategy: String,
    /// Labeled points added to the training set this round.
    pub points_added: u64,
    /// Balanced accuracy per test set.
    pub scores: Vec<f64>,
}

/// The committed prefix of a ledger file, as [`committed_prefix`] finds
/// it.
#[derive(Debug, Default)]
pub struct LedgerPrefix {
    /// The run header, when the file starts with a complete header line.
    pub header: Option<RunHeader>,
    /// Byte length of the prefix: the end of its last committed round's
    /// line, of the header line when no round committed, 0 without a
    /// complete header line.
    pub len: u64,
    /// Every event of the prefix in file order: what a resumed run
    /// replays into its in-process folds.
    pub events: Vec<LedgerEvent>,
    /// The committed rounds, rebuilt from their `round_completed` lines.
    pub rounds: Vec<RoundRecord>,
}

/// Find the committed prefix of a ledger file's bytes (see the module
/// docs). Only newline-terminated lines count, and the first line that
/// does not parse ends the scan. A first line that is complete but no
/// ledger header, and a committed `round_completed` line whose `scores`
/// are empty, are
/// [`ExperimentError::ResumeMismatch`]; anything else is a prefix, never
/// a panic.
pub fn committed_prefix(bytes: &[u8]) -> Result<LedgerPrefix, ExperimentError> {
    let mut prefix = LedgerPrefix::default();
    let mut lines = bytes
        .split_inclusive(|&b| b == b'\n')
        .filter(|line| line.ends_with(b"\n"))
        .map(|line| std::str::from_utf8(&line[..line.len() - 1]).map_err(|e| e.to_string()));
    let Some(first) = lines.next() else {
        return Ok(prefix);
    };
    let mut end = first.as_ref().map_or(0, |l| l.len()) + 1;
    let header = first
        .and_then(aml_telemetry::ledger::parse_header)
        .map_err(|e| mismatch(format!("line 1: {e}")))?;
    prefix.header = Some(header);
    prefix.len = end as u64;
    let mut pending = Vec::new();
    for line in lines {
        let Ok(line) = line else { break };
        end += line.len() + 1;
        let event = match LedgerEvent::from_json_line(line) {
            Ok(Some(event)) => event,
            // An event type this build does not know.
            Ok(None) => continue,
            Err(_) => break,
        };
        if let LedgerEvent::RoundCompleted {
            round,
            strategy,
            points_added,
            scores,
            ..
        } = &event
        {
            if *round != prefix.rounds.len() as u64 {
                break;
            }
            if scores.is_empty() {
                return Err(mismatch(format!(
                    "round {round}'s round_completed line has empty `scores`, \
                     so the round's scores cannot be reused"
                )));
            }
            prefix.rounds.push(RoundRecord {
                round: *round,
                strategy: strategy.clone(),
                points_added: *points_added,
                scores: scores.clone(),
            });
            prefix.events.append(&mut pending);
            prefix.events.push(event);
            prefix.len = end as u64;
        } else {
            pending.push(event);
        }
    }
    Ok(prefix)
}

/// First half of a resume: read the ledger at `ledger` once, check that
/// its header names this run (workload and seed, else
/// [`ExperimentError::ResumeMismatch`]), truncate the file to its
/// [`committed_prefix`], and fast-forward the process-wide round counter.
///
/// Must run **before** the ledger sink is (re)installed: the caller
/// reopens the ledger in append mode afterwards, or creates it afresh
/// when the prefix kept no header.
pub fn prepare_resume(
    workload: &str,
    seed: u64,
    ledger: &Path,
) -> Result<LedgerPrefix, ExperimentError> {
    let io = |e: std::io::Error| ExperimentError::LedgerIo {
        path: ledger.to_path_buf(),
        message: e.to_string(),
    };
    let prefix = committed_prefix(&fs::read(ledger).map_err(io)?)?;
    if let Some(header) = &prefix.header {
        if header.workload != workload {
            return Err(mismatch(format!(
                "ledger is for workload '{}', this run is '{workload}'",
                header.workload
            )));
        }
        if header.seed != seed {
            return Err(mismatch(format!(
                "ledger seed {} != run seed {seed}",
                header.seed
            )));
        }
    }
    fs::OpenOptions::new()
        .write(true)
        .open(ledger)
        .and_then(|file| file.set_len(prefix.len))
        .map_err(io)?;
    aml_telemetry::ledger::set_next_round(prefix.rounds.len() as u64);
    Ok(prefix)
}

/// Driver state for a (possibly resumed) sequence of feedback rounds.
/// Every bench bin runs each round through [`ExperimentLoop::run_round`]:
/// a round the resumed ledger already holds is skipped and its record
/// reused; a fresh one runs and is committed by flushing the sinks.
#[derive(Debug, Default)]
pub struct ExperimentLoop {
    resumed: Vec<RoundRecord>,
}

impl ExperimentLoop {
    /// A loop that reuses `resumed`: the committed rounds of a resumed
    /// ledger ([`LedgerPrefix::rounds`]), empty for a fresh run.
    pub fn new(resumed: Vec<RoundRecord>) -> ExperimentLoop {
        ExperimentLoop { resumed }
    }

    /// The recorded outcome of `round`, if the resumed ledger already
    /// holds it — the caller skips the round and reuses the scores.
    pub fn completed(&self, round: u64) -> Option<&RoundRecord> {
        self.resumed.iter().find(|r| r.round == round)
    }

    /// Run feedback round `round` with `strategy`: when the resumed
    /// ledger already holds it, return its record without calling `run`;
    /// otherwise call `run`, commit the round by flushing the sinks, and
    /// return the new record. The flag says whether the round was
    /// resumed. A kept round naming a different strategy is
    /// [`ExperimentError::ResumeMismatch`] — the run was resumed with
    /// different settings.
    pub fn run_round(
        &mut self,
        round: u64,
        strategy: Strategy,
        run: impl FnOnce() -> crate::Result<StrategyOutcome>,
    ) -> crate::Result<(RoundRecord, bool)> {
        if let Some(rec) = self.completed(round) {
            if rec.strategy != strategy.name() {
                return Err(mismatch(format!(
                    "ledger round {round} ran '{}', this run asks for '{}'",
                    rec.strategy,
                    strategy.name()
                ))
                .into());
            }
            return Ok((rec.clone(), true));
        }
        let out = run()?;
        // Best-effort: a failing ledger write already counts
        // telemetry.events_dropped, and a round whose line never reached
        // the file is simply run again on resume.
        let _ = aml_telemetry::sink::flush_installed();
        let rec = RoundRecord {
            round,
            strategy: strategy.name().to_string(),
            points_added: out.n_points_added as u64,
            scores: out.scores,
        };
        Ok((rec, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aml_telemetry::ledger::header_line;

    fn header() -> RunHeader {
        RunHeader {
            run_id: "r".into(),
            workload: "w".into(),
            seed: 3,
            git: "g".into(),
        }
    }

    fn round(round: u64, scores: Vec<f64>) -> LedgerEvent {
        LedgerEvent::RoundCompleted {
            round,
            strategy: "Uniform".into(),
            acc_mean: 0.5,
            acc_min: 0.5,
            acc_max: 0.5,
            points_added: 40,
            regions: 0,
            ale_std_mean: 0.0,
            ale_std_max: 0.0,
            scores,
        }
    }

    fn trial(trial: u64) -> LedgerEvent {
        LedgerEvent::TrialFailed {
            trial,
            family: "mlp".into(),
            reason: "error".into(),
        }
    }

    /// A ledger file's text: the header line, then one line per event.
    fn ledger(events: &[LedgerEvent]) -> String {
        let mut text = header_line(&header()) + "\n";
        for event in events {
            text += &event.to_json_line();
            text.push('\n');
        }
        text
    }

    #[test]
    fn prefix_ends_after_the_last_committed_round() {
        let kept = ledger(&[
            trial(0),
            round(0, vec![1.0 / 3.0, 0.5]),
            trial(1),
            round(1, vec![0.75]),
        ]);
        let text = kept.clone() + &trial(2).to_json_line() + "\n{\"type\":\"trial_fin";
        let prefix = committed_prefix(text.as_bytes()).unwrap();
        assert_eq!(prefix.len, kept.len() as u64);
        assert_eq!(prefix.header.unwrap().workload, "w");
        assert_eq!(prefix.events.len(), 4);
        assert_eq!(prefix.rounds.len(), 2);
        // Scores read back bit for bit (1/3 has no short decimal form).
        assert_eq!(prefix.rounds[0].scores, vec![1.0 / 3.0, 0.5]);
        assert_eq!(prefix.rounds[1].points_added, 40);
    }

    #[test]
    fn scores_read_back_bit_for_bit() {
        // Values without a short decimal form, the extremes of the finite
        // range, a subnormal and a negative zero.
        let scores = vec![
            1.0 / 3.0,
            0.1 + 0.2,
            -2.0 / 7.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            -0.0,
            1e-300,
        ];
        let text = ledger(&[round(0, scores.clone())]);
        let back = &committed_prefix(text.as_bytes()).unwrap().rounds[0].scores;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back), bits(&scores));
    }

    #[test]
    fn a_prefix_without_a_committed_round_keeps_only_the_header() {
        assert_eq!(committed_prefix(b"").unwrap().len, 0);
        let head = ledger(&[]);
        let torn_header = committed_prefix(&head.as_bytes()[..head.len() - 1]).unwrap();
        assert!(torn_header.header.is_none() && torn_header.len == 0);
        let text = ledger(&[trial(0), trial(1)]);
        let prefix = committed_prefix(text.as_bytes()).unwrap();
        assert_eq!(prefix.len, head.len() as u64);
        assert!(prefix.header.is_some() && prefix.events.is_empty() && prefix.rounds.is_empty());
    }

    #[test]
    fn a_gap_or_a_corrupt_line_ends_the_prefix() {
        let kept = ledger(&[round(0, vec![0.5])]);
        let gap = ledger(&[round(0, vec![0.5]), trial(1), round(2, vec![0.5])]);
        // Round 1 would continue the sequence, but follows a corrupt line.
        let after = ledger(&[round(0, vec![0.5]), trial(1), round(1, vec![0.5])]);
        let corrupt =
            kept.clone() + "{\"type\":\"trial_failed\",\"trial\":one}\n" + &after[kept.len()..];
        for text in [gap, corrupt] {
            let prefix = committed_prefix(text.as_bytes()).unwrap();
            assert_eq!(prefix.rounds.len(), 1, "{text}");
            assert_eq!(prefix.len, kept.len() as u64, "{text}");
        }
    }

    #[test]
    fn an_unresumable_ledger_is_a_typed_error() {
        let err = committed_prefix(ledger(&[round(0, vec![])]).as_bytes()).unwrap_err();
        assert!(matches!(err, ExperimentError::ResumeMismatch { .. }));
        assert!(err.to_string().contains("`scores`"), "{err}");
        let err = committed_prefix(b"not a ledger\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        // A ledger of any other schema version, v1 included, is refused.
        for version in [1, 99] {
            let other = ledger(&[]).replace(
                "\"schema_version\":2",
                &format!("\"schema_version\":{version}"),
            );
            let err = committed_prefix(other.as_bytes()).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("schema_version {version}")),
                "{err}"
            );
        }
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("aml_resume_{name}_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn prepare_resume_truncates_to_the_committed_prefix() {
        let dir = scratch("truncate");
        let path = dir.join("ledger.jsonl");
        let kept = ledger(&[trial(0), round(0, vec![0.5])]);
        fs::write(&path, kept.clone() + &trial(1).to_json_line()).unwrap();
        let prefix = prepare_resume("w", 3, &path).unwrap();
        assert_eq!(prefix.rounds.len(), 1);
        assert_eq!(fs::read_to_string(&path).unwrap(), kept);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_a_ledger_of_another_run() {
        let dir = scratch("other_run");
        let path = dir.join("ledger.jsonl");
        fs::write(&path, ledger(&[round(0, vec![0.5])])).unwrap();
        for (workload, seed) in [("other", 3), ("w", 99)] {
            assert!(matches!(
                prepare_resume(workload, seed, &path),
                Err(ExperimentError::ResumeMismatch { .. })
            ));
        }
        // A rejected ledger is left as it was.
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            ledger(&[round(0, vec![0.5])])
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_ledger_is_io_error() {
        assert!(matches!(
            prepare_resume("w", 3, Path::new("/nonexistent/ledger.jsonl")),
            Err(ExperimentError::LedgerIo { .. })
        ));
    }

    #[test]
    fn loop_reuses_resumed_rounds_and_rejects_another_strategy() {
        let rec = RoundRecord {
            round: 0,
            strategy: "Uniform".into(),
            points_added: 40,
            scores: vec![0.5],
        };
        let mut resumed = ExperimentLoop::new(vec![rec.clone()]);
        assert!(resumed.completed(1).is_none());
        // run_round reuses the resumed round without running it...
        let never = || -> crate::Result<StrategyOutcome> { panic!("a resumed round must not run") };
        let (back, was_resumed) = resumed.run_round(0, Strategy::Uniform, never).unwrap();
        assert!(was_resumed);
        assert_eq!(back, rec);
        // ...and a kept round naming another strategy is a typed mismatch.
        let err = resumed
            .run_round(0, Strategy::WithinAle, never)
            .expect_err("strategy mismatch");
        assert!(
            matches!(
                err,
                crate::CoreError::Experiment(ExperimentError::ResumeMismatch { .. })
            ),
            "{err}"
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use aml_propcheck::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For arbitrary ledgers (rounds of any score count, with other
        /// events between them, scores that stress the shortest
        /// round-trip float form), the whole file keeps every round as
        /// written, and a cut at any byte keeps exactly the rounds whose
        /// line ends before the cut — never a panic, never a round that
        /// did not commit.
        #[test]
        fn prop_every_cut_keeps_the_committed_rounds(
            seed in 0u64..1_000_000,
            n_rounds in 0usize..5,
            n_scores in 1usize..8,
        ) {
            let header = RunHeader {
                run_id: format!("run {seed}"),
                workload: "prop workload".into(),
                seed,
                git: "g".into(),
            };
            let mut text = aml_telemetry::ledger::header_line(&header) + "\n";
            let header_end = text.len();
            let mut rounds = Vec::new();
            let mut round_ends = Vec::new();
            for r in 0..n_rounds {
                for t in 0..(seed as usize + r) % 3 {
                    let event = LedgerEvent::TrialFailed {
                        trial: (r * 3 + t) as u64,
                        family: "mlp".into(),
                        reason: "error".into(),
                    };
                    text += &event.to_json_line();
                    text.push('\n');
                }
                let scores: Vec<f64> = (0..n_scores)
                    .map(|s| {
                        let x = ((seed ^ (r as u64 * 97 + s as u64)) % 2003) as f64;
                        x / 3.0 - 333.0
                    })
                    .collect();
                let rec = RoundRecord {
                    round: r as u64,
                    strategy: format!("Strategy {r}"),
                    points_added: (seed % 97) * r as u64,
                    scores: scores.clone(),
                };
                let event = LedgerEvent::RoundCompleted {
                    round: rec.round,
                    strategy: rec.strategy.clone(),
                    acc_mean: 0.5,
                    acc_min: 0.5,
                    acc_max: 0.5,
                    points_added: rec.points_added,
                    regions: 0,
                    ale_std_mean: 0.0,
                    ale_std_max: 0.0,
                    scores,
                };
                text += &event.to_json_line();
                text.push('\n');
                rounds.push(rec);
                round_ends.push(text.len());
            }
            let bytes = text.as_bytes();
            let whole = committed_prefix(bytes).expect("whole ledger");
            prop_assert_eq!(&whole.rounds, &rounds);
            for cut in 0..=bytes.len() {
                let prefix = committed_prefix(&bytes[..cut])
                    .unwrap_or_else(|e| panic!("cut at {cut}/{}: {e}", bytes.len()));
                let committed = round_ends.iter().filter(|&&end| end <= cut).count();
                prop_assert_eq!(&prefix.rounds[..], &rounds[..committed], "cut at {}", cut);
                let expected = match committed {
                    0 if cut < header_end => 0,
                    0 => header_end,
                    n => round_ends[n - 1],
                };
                prop_assert_eq!(prefix.len, expected as u64, "cut at {}", cut);
            }
        }
    }
}
