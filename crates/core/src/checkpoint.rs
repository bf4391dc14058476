//! Checkpoint/resume for the experiment loop (DESIGN.md §7).
//!
//! After every completed feedback round the loop writes a versioned
//! [`Checkpoint`] **atomically** (write to a temp file in the same
//! directory, fsync, rename), so a SIGKILL at any instant leaves either
//! the previous checkpoint or the new one — never a half-written file.
//!
//! A `--resume <ckpt>` run must reproduce the uninterrupted run
//! byte-for-byte in the sorted ledger. Two things make that possible:
//!
//! * every round's randomness is derived from the master seed and the
//!   round's position (there is no long-lived RNG stream to snapshot —
//!   the "stream position" *is* the round index), and
//! * the checkpoint records the ledger file's flushed byte length at the
//!   moment it was committed. On resume the ledger is truncated back to
//!   exactly that length (dropping any partially-flushed later events)
//!   and reopened in append mode, and the process-wide round counter is
//!   fast-forwarded, so appended `round_completed` lines continue the
//!   original numbering.
//!
//! ## Format
//!
//! A line-oriented text file, `\t`-separated where fields may contain
//! spaces, with an `end` trailer for truncation detection:
//!
//! ```text
//! amlckpt v1
//! workload table1_scream
//! seed 11
//! ledger_bytes 4096
//! rounds 2
//! round 0\tWithout feedback\t0\t0.5,0.25
//! round 1\tWithin-ALE\t40\t0.75,0.8125
//! end 2
//! ```
//!
//! Scores use `f64`'s shortest round-trip `Display` form, which parses
//! back bit-exactly. [`Checkpoint::decode`] returns typed
//! [`ExperimentError`]s — version mismatch, truncation, corruption — and
//! never panics, no matter how the input was mangled (property-tested by
//! truncating a valid encoding at every byte).

use crate::experiment::{Strategy, StrategyOutcome};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Version of the checkpoint format; bump on any incompatible change.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Typed failures of the experiment loop's persistence layer.
#[derive(Debug)]
pub enum ExperimentError {
    /// I/O failure reading or writing a checkpoint (or truncating the
    /// ledger on resume).
    CheckpointIo {
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error.
        message: String,
    },
    /// The checkpoint was written by an incompatible format version.
    CheckpointVersionMismatch {
        /// Version found in the file.
        found: String,
        /// Version this build understands.
        expected: u64,
    },
    /// The checkpoint is incomplete — the `end` trailer is missing or
    /// inconsistent, i.e. the writer died mid-write (only possible for
    /// non-atomic copies; the loop's own writes are rename-atomic).
    CheckpointTruncated {
        /// What was wrong with the trailer.
        message: String,
    },
    /// The checkpoint is structurally invalid.
    CheckpointCorrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The checkpoint belongs to a different run (workload or seed
    /// differ) and cannot resume this one.
    CheckpointMismatch {
        /// Human-readable description of the mismatch.
        message: String,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::CheckpointIo { path, message } => {
                write!(f, "checkpoint I/O error at {}: {message}", path.display())
            }
            ExperimentError::CheckpointVersionMismatch { found, expected } => write!(
                f,
                "checkpoint version mismatch: file says '{found}', this build expects v{expected}"
            ),
            ExperimentError::CheckpointTruncated { message } => {
                write!(f, "checkpoint truncated: {message}")
            }
            ExperimentError::CheckpointCorrupt { line, message } => {
                write!(f, "checkpoint corrupt at line {line}: {message}")
            }
            ExperimentError::CheckpointMismatch { message } => {
                write!(f, "checkpoint does not match this run: {message}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

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

/// The persisted state of an experiment loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Workload (bench bin) name; resume refuses a different workload.
    pub workload: String,
    /// Master seed; resume refuses a different seed.
    pub seed: u64,
    /// Flushed byte length of the ledger file when this checkpoint was
    /// committed (0 when no ledger sink is active).
    pub ledger_bytes: u64,
    /// Completed rounds, in execution order.
    pub rounds: Vec<RoundRecord>,
}

impl Checkpoint {
    /// Fresh checkpoint for a run that has completed no rounds yet.
    pub fn new(workload: &str, seed: u64) -> Checkpoint {
        Checkpoint {
            workload: workload.to_string(),
            seed,
            ledger_bytes: 0,
            rounds: Vec::new(),
        }
    }

    /// Serialize to the line format described in the module docs.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(128 + self.rounds.len() * 64);
        out.push_str(&format!("amlckpt v{CHECKPOINT_VERSION}\n"));
        out.push_str(&format!("workload {}\n", self.workload));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("ledger_bytes {}\n", self.ledger_bytes));
        out.push_str(&format!("rounds {}\n", self.rounds.len()));
        for r in &self.rounds {
            let scores: Vec<String> = r.scores.iter().map(|s| format!("{s}")).collect();
            out.push_str(&format!(
                "round {}\t{}\t{}\t{}\n",
                r.round,
                r.strategy,
                r.points_added,
                scores.join(",")
            ));
        }
        out.push_str(&format!("end {}\n", self.rounds.len()));
        out
    }

    /// Parse an encoded checkpoint; typed errors, never panics.
    pub fn decode(text: &str) -> Result<Checkpoint, ExperimentError> {
        let lines: Vec<&str> = text.lines().collect();
        let magic = lines.first().ok_or(ExperimentError::CheckpointTruncated {
            message: "empty file".into(),
        })?;
        let version =
            magic
                .strip_prefix("amlckpt v")
                .ok_or_else(|| ExperimentError::CheckpointCorrupt {
                    line: 1,
                    message: format!(
                        "bad magic '{magic}' (expected 'amlckpt v{CHECKPOINT_VERSION}')"
                    ),
                })?;
        if version.parse::<u64>() != Ok(CHECKPOINT_VERSION) {
            return Err(ExperimentError::CheckpointVersionMismatch {
                found: version.to_string(),
                expected: CHECKPOINT_VERSION,
            });
        }
        // Truncation check before structural parsing: a file that does
        // not close with a consistent `end N` trailer was cut short.
        if !text.ends_with('\n') {
            return Err(ExperimentError::CheckpointTruncated {
                message: "final line is not newline-terminated".into(),
            });
        }
        let trailer = lines.last().unwrap_or(&"");
        let declared_end: u64 = trailer
            .strip_prefix("end ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| ExperimentError::CheckpointTruncated {
                message: format!("missing 'end N' trailer (last line: '{trailer}')"),
            })?;

        let field = |idx: usize, key: &str| -> Result<String, ExperimentError> {
            let line = lines
                .get(idx)
                .ok_or_else(|| ExperimentError::CheckpointTruncated {
                    message: format!("missing '{key}' line"),
                })?;
            line.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| ExperimentError::CheckpointCorrupt {
                    line: idx + 1,
                    message: format!("expected '{key} …', got '{line}'"),
                })
        };
        let int_field = |idx: usize, key: &str| -> Result<u64, ExperimentError> {
            let raw = field(idx, key)?;
            raw.parse().map_err(|_| ExperimentError::CheckpointCorrupt {
                line: idx + 1,
                message: format!("'{key}' is not an integer: '{raw}'"),
            })
        };

        let workload = field(1, "workload")?;
        let seed = int_field(2, "seed")?;
        let ledger_bytes = int_field(3, "ledger_bytes")?;
        let n_rounds = int_field(4, "rounds")? as usize;
        if declared_end != n_rounds as u64 {
            return Err(ExperimentError::CheckpointTruncated {
                message: format!("trailer says {declared_end} rounds, header says {n_rounds}"),
            });
        }
        if lines.len() != 6 + n_rounds {
            return Err(ExperimentError::CheckpointTruncated {
                message: format!(
                    "expected {} lines for {n_rounds} round(s), found {}",
                    6 + n_rounds,
                    lines.len()
                ),
            });
        }

        let mut rounds = Vec::with_capacity(n_rounds);
        for i in 0..n_rounds {
            let idx = 5 + i;
            let line = lines[idx];
            let corrupt = |message: String| ExperimentError::CheckpointCorrupt {
                line: idx + 1,
                message,
            };
            let rest = line
                .strip_prefix("round ")
                .ok_or_else(|| corrupt(format!("expected 'round …', got '{line}'")))?;
            let parts: Vec<&str> = rest.split('\t').collect();
            let [round, strategy, points, scores] = parts[..] else {
                return Err(corrupt(format!(
                    "expected 4 tab-separated fields, got {}",
                    parts.len()
                )));
            };
            let round: u64 = round
                .parse()
                .map_err(|_| corrupt(format!("bad round index '{round}'")))?;
            let points_added: u64 = points
                .parse()
                .map_err(|_| corrupt(format!("bad points_added '{points}'")))?;
            let scores: Vec<f64> = if scores.is_empty() {
                Vec::new()
            } else {
                scores
                    .split(',')
                    .map(|s| s.parse().map_err(|_| corrupt(format!("bad score '{s}'"))))
                    .collect::<Result<_, _>>()?
            };
            rounds.push(RoundRecord {
                round,
                strategy: strategy.to_string(),
                points_added,
                scores,
            });
        }

        Ok(Checkpoint {
            workload,
            seed,
            ledger_bytes,
            rounds,
        })
    }

    /// Read and decode the checkpoint at `path`.
    pub fn load(path: &Path) -> Result<Checkpoint, ExperimentError> {
        let text = fs::read_to_string(path).map_err(|e| ExperimentError::CheckpointIo {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        Checkpoint::decode(&text)
    }

    /// Write atomically: temp file in the target directory, fsync,
    /// rename over `path`. A crash at any point leaves either the old
    /// checkpoint or the new one.
    pub fn write_atomic(&self, path: &Path) -> Result<(), ExperimentError> {
        let io_err = |e: std::io::Error| ExperimentError::CheckpointIo {
            path: path.to_path_buf(),
            message: e.to_string(),
        };
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut file = fs::File::create(&tmp).map_err(io_err)?;
        file.write_all(self.encode().as_bytes()).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
        drop(file);
        fs::rename(&tmp, path).map_err(io_err)
    }
}

/// First half of a resume: load the checkpoint at `resume_path`,
/// validate it against this run (workload and seed must match — a
/// checkpoint from a different run is rejected with
/// [`ExperimentError::CheckpointMismatch`]), truncate the ledger file
/// back to the checkpoint's recorded byte length (dropping any
/// partially-flushed post-checkpoint events), and fast-forward the
/// process-wide round counter.
///
/// Must run **before** the ledger sink is (re)installed — the caller
/// reopens the ledger in append mode afterwards.
pub fn prepare_resume(
    workload: &str,
    seed: u64,
    resume_path: &Path,
    ledger_path: Option<&Path>,
) -> Result<Checkpoint, ExperimentError> {
    let ckpt = Checkpoint::load(resume_path)?;
    if ckpt.workload != workload {
        return Err(ExperimentError::CheckpointMismatch {
            message: format!(
                "checkpoint is for workload '{}', this run is '{workload}'",
                ckpt.workload
            ),
        });
    }
    if ckpt.seed != seed {
        return Err(ExperimentError::CheckpointMismatch {
            message: format!("checkpoint seed {} != run seed {seed}", ckpt.seed),
        });
    }
    if let Some(ledger) = ledger_path {
        let file = fs::OpenOptions::new()
            .write(true)
            .open(ledger)
            .map_err(|e| ExperimentError::CheckpointIo {
                path: ledger.to_path_buf(),
                message: format!("cannot reopen ledger for truncation: {e}"),
            })?;
        let len = file
            .metadata()
            .map_err(|e| ExperimentError::CheckpointIo {
                path: ledger.to_path_buf(),
                message: e.to_string(),
            })?
            .len();
        if len < ckpt.ledger_bytes {
            return Err(ExperimentError::CheckpointMismatch {
                message: format!(
                    "ledger at {} is {len} bytes, shorter than the checkpoint's {} — \
                     wrong ledger file?",
                    ledger.display(),
                    ckpt.ledger_bytes
                ),
            });
        }
        file.set_len(ckpt.ledger_bytes)
            .map_err(|e| ExperimentError::CheckpointIo {
                path: ledger.to_path_buf(),
                message: format!("cannot truncate ledger: {e}"),
            })?;
    }
    aml_telemetry::ledger::set_next_round(ckpt.rounds.len() as u64);
    Ok(ckpt)
}

/// Driver state for a checkpointed (and possibly resumed) sequence of
/// feedback rounds. Every driver (the bench bins, the `amlserve`
/// worker) runs each round through [`ExperimentLoop::run_round`]: a
/// round the checkpoint already holds is skipped and its record reused;
/// a fresh one runs and is recorded, which flushes the telemetry sinks
/// and commits a new checkpoint referencing the flushed ledger length.
pub struct ExperimentLoop {
    checkpoint_path: Option<PathBuf>,
    ledger_path: Option<PathBuf>,
    ckpt: Checkpoint,
}

impl ExperimentLoop {
    /// Fresh loop: checkpoints go to `checkpoint_path` after every round
    /// (no checkpointing when `None`); `ledger_path` is the `--ledger-out`
    /// file whose flushed length each checkpoint records.
    pub fn new(
        workload: &str,
        seed: u64,
        checkpoint_path: Option<PathBuf>,
        ledger_path: Option<PathBuf>,
    ) -> ExperimentLoop {
        ExperimentLoop {
            checkpoint_path,
            ledger_path,
            ckpt: Checkpoint::new(workload, seed),
        }
    }

    /// Build a loop around a checkpoint validated by [`prepare_resume`]
    /// (which runs early — before the ledger sink is reinstalled — while
    /// the loop is built later).
    pub fn from_checkpoint(
        ckpt: Checkpoint,
        checkpoint_path: Option<PathBuf>,
        ledger_path: Option<PathBuf>,
    ) -> ExperimentLoop {
        ExperimentLoop {
            checkpoint_path,
            ledger_path,
            ckpt,
        }
    }

    /// The recorded outcome of `round`, if a prior (checkpointed) run
    /// already completed it — the caller skips the round and reuses the
    /// scores.
    pub fn completed(&self, round: u64) -> Option<&RoundRecord> {
        self.ckpt.rounds.iter().find(|r| r.round == round)
    }

    /// Record one freshly completed round and commit a checkpoint
    /// (when a checkpoint path is configured): flush the telemetry sinks
    /// so every ledger line of this round is on disk, capture the
    /// ledger's byte length, and atomically replace the checkpoint file.
    fn record(&mut self, rec: RoundRecord) -> Result<(), ExperimentError> {
        self.ckpt.rounds.push(rec);
        if let Some(path) = self.checkpoint_path.clone() {
            // Best-effort flush: a failing sink already counts
            // telemetry.events_dropped; the checkpoint then records
            // whatever actually reached the file.
            let _ = aml_telemetry::sink::flush_installed();
            self.ckpt.ledger_bytes = self
                .ledger_path
                .as_ref()
                .and_then(|p| fs::metadata(p).ok())
                .map(|m| m.len())
                .unwrap_or(0);
            self.ckpt.write_atomic(&path)?;
        }
        Ok(())
    }

    /// Run feedback round `round` with `strategy`: when the checkpoint
    /// already holds it, return its record without calling `run`;
    /// otherwise call `run`, record the outcome (committing a
    /// checkpoint), and return the new record. The flag says whether
    /// the round was resumed. A checkpointed round naming a different
    /// strategy is [`ExperimentError::CheckpointMismatch`] — the run was
    /// resumed with different settings.
    pub fn run_round(
        &mut self,
        round: u64,
        strategy: Strategy,
        run: impl FnOnce() -> crate::Result<StrategyOutcome>,
    ) -> crate::Result<(RoundRecord, bool)> {
        if let Some(rec) = self.completed(round) {
            if rec.strategy != strategy.name() {
                return Err(ExperimentError::CheckpointMismatch {
                    message: format!(
                        "checkpoint round {round} ran '{}', this run asks for '{}'",
                        rec.strategy,
                        strategy.name()
                    ),
                }
                .into());
            }
            return Ok((rec.clone(), true));
        }
        let out = run()?;
        let rec = RoundRecord {
            round,
            strategy: strategy.name().to_string(),
            points_added: out.n_points_added as u64,
            scores: out.scores,
        };
        self.record(rec.clone())?;
        Ok((rec, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            workload: "table1_scream".into(),
            seed: 11,
            ledger_bytes: 4096,
            rounds: vec![
                RoundRecord {
                    round: 0,
                    strategy: "Without feedback".into(),
                    points_added: 0,
                    scores: vec![0.5, 0.25, 1.0 / 3.0],
                },
                RoundRecord {
                    round: 1,
                    strategy: "Within-ALE".into(),
                    points_added: 40,
                    scores: vec![0.75, 0.8125],
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let ckpt = sample();
        let decoded = Checkpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(decoded, ckpt);
        // Scores round-trip bit-exactly (1/3 has no short decimal form).
        assert_eq!(decoded.rounds[0].scores[2], 1.0 / 3.0);
    }

    #[test]
    fn empty_rounds_round_trip() {
        let ckpt = Checkpoint::new("w", 3);
        assert_eq!(Checkpoint::decode(&ckpt.encode()).unwrap(), ckpt);
    }

    #[test]
    fn version_mismatch_is_typed() {
        let text = sample().encode().replace("amlckpt v1", "amlckpt v99");
        assert!(matches!(
            Checkpoint::decode(&text),
            Err(ExperimentError::CheckpointVersionMismatch { .. })
        ));
    }

    #[test]
    fn truncation_at_every_byte_is_rejected_never_panics() {
        let full = sample().encode();
        for cut in 0..full.len() {
            // Cut only at char boundaries (the encoding is ASCII here,
            // but stay robust).
            if !full.is_char_boundary(cut) {
                continue;
            }
            let result = Checkpoint::decode(&full[..cut]);
            assert!(
                result.is_err(),
                "decode of {cut}/{} bytes must fail",
                full.len()
            );
        }
        assert!(Checkpoint::decode(&full).is_ok());
    }

    #[test]
    fn corrupt_lines_are_typed() {
        let good = sample().encode();
        for (needle, replacement) in [
            ("seed 11", "seed eleven"),
            ("round 1\t", "round one\t"),
            ("0.75", "threequarters"),
            ("workload table1_scream", "workloat table1_scream"),
        ] {
            let bad = good.replace(needle, replacement);
            assert!(
                matches!(
                    Checkpoint::decode(&bad),
                    Err(ExperimentError::CheckpointCorrupt { .. })
                ),
                "replacing {needle:?} must be corrupt, got {:?}",
                Checkpoint::decode(&bad)
            );
        }
    }

    #[test]
    fn inconsistent_trailer_is_truncation() {
        let bad = sample().encode().replace("end 2", "end 7");
        assert!(matches!(
            Checkpoint::decode(&bad),
            Err(ExperimentError::CheckpointTruncated { .. })
        ));
    }

    #[test]
    fn write_atomic_then_load() {
        let dir = std::env::temp_dir().join(format!("aml_ckpt_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let ckpt = sample();
        ckpt.write_atomic(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ckpt);
        // Overwrite with more rounds; still atomic, still loads.
        let mut more = ckpt.clone();
        more.rounds.push(RoundRecord {
            round: 2,
            strategy: "Uniform".into(),
            points_added: 40,
            scores: vec![0.9],
        });
        more.write_atomic(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), more);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_wrong_run() {
        let dir = std::env::temp_dir().join(format!("aml_ckpt_resume_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        sample().write_atomic(&path).unwrap();
        assert!(matches!(
            prepare_resume("other_workload", 11, &path, None),
            Err(ExperimentError::CheckpointMismatch { .. })
        ));
        assert!(matches!(
            prepare_resume("table1_scream", 99, &path, None),
            Err(ExperimentError::CheckpointMismatch { .. })
        ));
        assert!(prepare_resume("table1_scream", 11, &path, None).is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_checkpoint_is_io_error() {
        assert!(matches!(
            Checkpoint::load(Path::new("/nonexistent/run.ckpt")),
            Err(ExperimentError::CheckpointIo { .. })
        ));
    }

    #[test]
    fn loop_records_and_reports_completed_rounds() {
        let dir = std::env::temp_dir().join(format!("aml_ckpt_loop_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let mut lp = ExperimentLoop::new("w", 1, Some(path.clone()), None);
        assert!(lp.completed(0).is_none());
        lp.record(RoundRecord {
            round: 0,
            strategy: "Uniform".into(),
            points_added: 40,
            scores: vec![0.5],
        })
        .unwrap();
        assert_eq!(lp.completed(0).unwrap().points_added, 40);

        let ckpt = prepare_resume("w", 1, &path, None).unwrap();
        let mut resumed = ExperimentLoop::from_checkpoint(ckpt, None, None);
        assert_eq!(resumed.completed(0).unwrap().scores, vec![0.5]);
        assert!(resumed.completed(1).is_none());

        // run_round reuses the checkpointed round without running it...
        let never = || -> crate::Result<StrategyOutcome> { panic!("a resumed round must not run") };
        let (rec, was_resumed) = resumed.run_round(0, Strategy::Uniform, never).unwrap();
        assert!(was_resumed);
        assert_eq!(rec.scores, vec![0.5]);
        // ...and a checkpoint naming another strategy is a typed mismatch.
        let err = resumed
            .run_round(0, Strategy::WithinAle, never)
            .expect_err("strategy mismatch");
        assert!(
            matches!(
                err,
                crate::CoreError::Experiment(ExperimentError::CheckpointMismatch { .. })
            ),
            "{err}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use aml_propcheck::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Encode → decode is the identity for arbitrary round shapes
        /// (including non-terminating decimals that stress the shortest
        /// round-trip float encoding), and decoding any strict prefix of
        /// the encoding is a typed error — never a panic and never a
        /// silently shorter checkpoint.
        #[test]
        fn prop_round_trip_and_every_prefix_rejected(
            seed in 0u64..1_000_000,
            n_rounds in 0usize..5,
            n_scores in 0usize..8,
        ) {
            let mut ckpt = Checkpoint::new("prop workload", seed);
            ckpt.ledger_bytes = seed.wrapping_mul(31) % 10_000;
            for r in 0..n_rounds {
                let scores: Vec<f64> = (0..n_scores)
                    .map(|s| {
                        let x = ((seed ^ (r as u64 * 97 + s as u64)) % 2003) as f64;
                        x / 3.0 - 333.0
                    })
                    .collect();
                ckpt.rounds.push(RoundRecord {
                    round: r as u64,
                    strategy: format!("Strategy {r}"),
                    points_added: (seed % 97) * r as u64,
                    scores,
                });
            }
            let text = ckpt.encode();
            let back = Checkpoint::decode(&text).expect("decode");
            prop_assert_eq!(back, ckpt);
            for cut in 0..text.len() {
                prop_assert!(
                    Checkpoint::decode(&text[..cut]).is_err(),
                    "a {cut}-byte prefix of a {}-byte checkpoint must be rejected",
                    text.len()
                );
            }
        }
    }
}
