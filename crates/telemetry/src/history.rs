//! Cross-run perf/accuracy history: an append-only JSONL store.
//!
//! Every other telemetry surface sees **one run at a time** — the
//! manifest, the BENCH record, the ledger, and the live plane all start
//! from zero when the process does. The history store is the first
//! cross-run surface: one [`HistoryRecord`] line per completed run,
//! appended to `results/history/history.jsonl` (committed alongside the
//! frozen baselines), so `perfgate --against-history N` can gate against
//! the rolling median of the last N runs instead of a single frozen
//! file.
//!
//! ## Record shape
//!
//! One JSON object per line, fixed field order, shortest round-trip
//! floats (same discipline as the ledger):
//!
//! ```text
//! {"type":"history","schema_version":1,"workload":"table1_scream",
//!  "seed":11,"git":"…","source":"run","wall_time_s":12.3,
//!  "top_span_total_s":11.8,"peak_rss_bytes":73400320,
//!  "alloc_peak_bytes":0,"final_acc":0.91,"trials_finished":120,
//!  "trials_failed":3,"rounds":12}
//! ```
//!
//! Perf fields come from the BENCH record; `final_acc`, `ece` and the
//! trial/failure/round counts come from [`LedgerSummary`], the one fold
//! that turns ledger events into them — live under `--record` and over
//! the rep-0 ledger in `perfgate --record`. `final_acc` is `null` when
//! the run completed no feedback rounds (the figure bins, for instance).
//!
//! ## Versioning and off-is-free
//!
//! [`HISTORY_SCHEMA_VERSION`] is stamped into every line and bumped only
//! on breaking shape changes; consumers skip lines with unknown
//! versions. Nothing in this module runs unless `--record` is given —
//! no thread, no allocation, no file handle.

use crate::json;
use crate::ledger::{Fold, LedgerEvent};
use std::io::Write;
use std::path::Path;

/// Version of the history line shape; stamped into every record. Bump on
/// breaking changes only (field rename/removal, semantic change).
pub const HISTORY_SCHEMA_VERSION: u64 = 1;

/// Where history records land unless a path is given explicitly — both
/// for `--record` (the writer) and `perfgate --history` (the reader).
pub const DEFAULT_HISTORY_PATH: &str = "results/history/history.jsonl";

/// One completed run, as remembered across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistoryRecord {
    /// Workload name (joins records of the same benchmark).
    pub workload: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Build git describe.
    pub git: String,
    /// Who appended the record: `run` (a workload bin's `--record`) or
    /// `perfgate` (the median of a gate run).
    pub source: String,
    /// Wall-clock duration of the run, seconds.
    pub wall_time_s: f64,
    /// Total seconds across the top-level `bench.*` phase spans.
    pub top_span_total_s: f64,
    /// Peak resident set size observed, bytes (0 when unknown).
    pub peak_rss_bytes: u64,
    /// Peak live heap bytes (0 unless built with `alloc-track`).
    pub alloc_peak_bytes: u64,
    /// Mean accuracy of the last completed feedback round; `None` when
    /// the run had no feedback rounds (serialized as JSON `null`).
    pub final_acc: Option<f64>,
    /// `trial_finished` ledger events observed.
    pub trials_finished: u64,
    /// `trial_failed` ledger events observed.
    pub trials_failed: u64,
    /// `round_completed` ledger events observed.
    pub rounds: u64,
    /// Expected Calibration Error of the last feedback round's model
    /// diagnostics; `None` when the run emitted none (serialized as
    /// JSON `null`). Trailing field added without a schema bump —
    /// records written before it simply parse as `None`.
    pub ece: Option<f64>,
}

impl HistoryRecord {
    /// Serialize as one JSON line (no trailing newline) with fixed field
    /// order, pinned by the golden test in `aml-bench`.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"type\":\"history\",\"schema_version\":{HISTORY_SCHEMA_VERSION},\"workload\":{},\"seed\":{},\"git\":{},\"source\":{},\"wall_time_s\":{},\"top_span_total_s\":{},\"peak_rss_bytes\":{},\"alloc_peak_bytes\":{},\"final_acc\":{},\"trials_finished\":{},\"trials_failed\":{},\"rounds\":{},\"ece\":{}}}",
            json::string(&self.workload),
            self.seed,
            json::string(&self.git),
            json::string(&self.source),
            json::num(self.wall_time_s),
            json::num(self.top_span_total_s),
            self.peak_rss_bytes,
            self.alloc_peak_bytes,
            json::num(self.final_acc.unwrap_or(f64::NAN)),
            self.trials_finished,
            self.trials_failed,
            self.rounds,
            json::num(self.ece.unwrap_or(f64::NAN)),
        )
    }

    /// Parse one line written by [`Self::to_json_line`]. Lines of another
    /// type or schema version are errors, so callers can skip them. The
    /// optional `final_acc`/`ece` read `null` as `None`; `ece` is a
    /// trailing field, and records written before it parse as `None`.
    pub fn from_json_line(line: &str) -> Result<HistoryRecord, String> {
        let v = json::parse(line)?;
        if v.str_at("type")? != "history" {
            return Err("not a history record".into());
        }
        let version = v.u64_at("schema_version")?;
        if version != HISTORY_SCHEMA_VERSION {
            return Err(format!("unsupported history schema_version {version}"));
        }
        let opt = |key: &str| v.get(key).and_then(json::Value::as_f64);
        Ok(HistoryRecord {
            workload: v.str_at("workload")?.to_string(),
            seed: v.u64_at("seed")?,
            git: v.str_at("git")?.to_string(),
            source: v.str_at("source")?.to_string(),
            wall_time_s: v.f64_at("wall_time_s")?,
            top_span_total_s: v.f64_at("top_span_total_s")?,
            peak_rss_bytes: v.u64_at("peak_rss_bytes")?,
            alloc_peak_bytes: v.u64_at("alloc_peak_bytes")?,
            final_acc: opt("final_acc"),
            trials_finished: v.u64_at("trials_finished")?,
            trials_failed: v.u64_at("trials_failed")?,
            rounds: v.u64_at("rounds")?,
            ece: opt("ece"),
        })
    }

    /// Append this record to `path` as one line, creating the parent
    /// directory if needed. The store is append-only: existing lines are
    /// never rewritten, so concurrent readers (`perfgate`) only
    /// ever see whole records plus possibly a torn trailing line, which
    /// they skip.
    ///
    /// Safe under concurrent writers: the line (newline included) goes
    /// out as a single `write` on an `O_APPEND` handle, so the kernel
    /// positions each write atomically at the current end of file and two
    /// runs finishing together cannot interleave bytes within a line.
    /// (`writeln!` would issue the body and the newline as separate
    /// syscalls, which is exactly the interleaving window this avoids.)
    pub fn append(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut line = self.to_json_line();
        line.push('\n');
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(line.as_bytes())
    }
}

/// The ML totals a completed run is remembered by, folded from its
/// ledger: how many trials finished and failed, how many feedback rounds
/// ran, and the last round's accuracy and calibration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LedgerSummary {
    /// `trial_finished` ledger events observed.
    pub trials_finished: u64,
    /// `trial_failed` ledger events observed.
    pub trials_failed: u64,
    /// `round_completed` ledger events observed.
    pub rounds: u64,
    /// Mean accuracy of the last completed feedback round; `None` before
    /// the first round or when that accuracy is not finite.
    pub final_acc: Option<f64>,
    /// Expected Calibration Error of the last `model_diagnostics` event;
    /// `None` before the first one or when it is not finite.
    pub ece: Option<f64>,
}

impl LedgerSummary {
    /// Nothing observed yet.
    pub const fn new() -> LedgerSummary {
        LedgerSummary {
            trials_finished: 0,
            trials_failed: 0,
            rounds: 0,
            final_acc: None,
            ece: None,
        }
    }
}

impl Fold for LedgerSummary {
    fn observe(&mut self, event: &LedgerEvent) {
        match event {
            LedgerEvent::TrialFinished { .. } => self.trials_finished += 1,
            LedgerEvent::TrialFailed { .. } => self.trials_failed += 1,
            LedgerEvent::RoundCompleted { acc_mean, .. } => {
                self.rounds += 1;
                self.final_acc = Some(*acc_mean).filter(|a| a.is_finite());
            }
            LedgerEvent::ModelDiagnostics {
                bin_count,
                bin_conf_sum,
                bin_hit,
                ..
            } => {
                let ece = crate::quality::ece_from_bins(bin_count, bin_conf_sum, bin_hit);
                self.ece = Some(ece).filter(|e| e.is_finite());
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HistoryRecord {
        HistoryRecord {
            workload: "table1_scream".into(),
            seed: 11,
            git: "abc1234".into(),
            source: "run".into(),
            wall_time_s: 12.5,
            top_span_total_s: 11.25,
            peak_rss_bytes: 73_400_320,
            alloc_peak_bytes: 0,
            final_acc: Some(0.91),
            trials_finished: 120,
            trials_failed: 3,
            rounds: 12,
            ece: Some(0.05),
        }
    }

    #[test]
    fn line_shape_is_pinned() {
        assert_eq!(
            sample().to_json_line(),
            "{\"type\":\"history\",\"schema_version\":1,\"workload\":\"table1_scream\",\
             \"seed\":11,\"git\":\"abc1234\",\"source\":\"run\",\"wall_time_s\":12.5,\
             \"top_span_total_s\":11.25,\"peak_rss_bytes\":73400320,\"alloc_peak_bytes\":0,\
             \"final_acc\":0.91,\"trials_finished\":120,\"trials_failed\":3,\"rounds\":12,\
             \"ece\":0.05}",
        );
    }

    #[test]
    fn lines_round_trip_including_seeds_above_two_to_the_53() {
        for seed in [11, (1u64 << 53) + 1, u64::MAX] {
            let rec = HistoryRecord { seed, ..sample() };
            let line = rec.to_json_line();
            let back = HistoryRecord::from_json_line(&line).unwrap();
            assert_eq!(back, rec);
            assert_eq!(back.to_json_line(), line);
        }
        let mut rec = sample();
        rec.final_acc = None;
        rec.ece = None;
        assert_eq!(HistoryRecord::from_json_line(&rec.to_json_line()), Ok(rec));
    }

    #[test]
    fn foreign_lines_are_rejected() {
        let line = sample().to_json_line();
        let other = line.replace("\"type\":\"history\"", "\"type\":\"ledger\"");
        assert!(HistoryRecord::from_json_line(&other).is_err());
        let future = line.replace("\"schema_version\":1", "\"schema_version\":2");
        assert!(HistoryRecord::from_json_line(&future).is_err());
        assert!(HistoryRecord::from_json_line(&line[..line.len() / 2]).is_err());
        // Records written before the trailing `ece` field read it as None.
        let old = line.replace(",\"ece\":0.05", "");
        assert_eq!(HistoryRecord::from_json_line(&old).unwrap().ece, None);
    }

    #[test]
    fn missing_accuracy_serializes_as_null() {
        let mut rec = sample();
        rec.final_acc = None;
        assert!(rec.to_json_line().contains("\"final_acc\":null"));
        rec.final_acc = Some(f64::NAN);
        assert!(rec.to_json_line().contains("\"final_acc\":null"));
    }

    #[test]
    fn concurrent_appends_never_tear_lines() {
        let dir = std::env::temp_dir().join(format!("aml_history_conc_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("history.jsonl");
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 200;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let path = path.clone();
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        let mut rec = sample();
                        rec.seed = w * PER_WRITER + i;
                        rec.append(&path).unwrap();
                    }
                });
            }
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), (WRITERS * PER_WRITER) as usize);
        let mut seen = vec![false; (WRITERS * PER_WRITER) as usize];
        for line in lines {
            assert!(
                line.starts_with("{\"type\":\"history\"") && line.ends_with('}'),
                "torn line: {line}"
            );
            let seed: usize = line
                .split("\"seed\":")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("unparseable line: {line}"));
            assert!(!seen[seed], "duplicate seed {seed}");
            seen[seed] = true;
        }
        assert!(seen.iter().all(|&s| s), "missing records");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_creates_parents_and_accumulates_lines() {
        let dir = std::env::temp_dir().join(format!("aml_history_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/history.jsonl");
        sample().append(&path).unwrap();
        let mut second = sample();
        second.seed = 12;
        second.append(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"seed\":11"));
        assert!(lines[1].contains("\"seed\":12"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn summary_tallies_trials_failures_and_rounds() {
        let round = |round: u64, acc_mean: f64| LedgerEvent::RoundCompleted {
            round,
            strategy: "Within-ALE".into(),
            acc_mean,
            acc_min: acc_mean - 0.02,
            acc_max: acc_mean + 0.02,
            points_added: 50,
            regions: 1,
            ale_std_mean: 0.0,
            ale_std_max: 0.0,
        };
        let mut events: Vec<LedgerEvent> = (0..3)
            .map(|trial| LedgerEvent::TrialFinished {
                trial,
                rung: 0,
                family: "forest".into(),
                score: 0.8,
            })
            .collect();
        events.push(LedgerEvent::TrialFailed {
            trial: 3,
            rung: 0,
            family: "mlp".into(),
            reason: "error".into(),
        });
        events.push(round(0, 0.82));
        events.push(round(1, 0.91));
        assert_eq!(LedgerSummary::from_events(&[]), LedgerSummary::new());
        let summary = LedgerSummary::from_events(&events);
        assert_eq!(
            summary,
            LedgerSummary {
                trials_finished: 3,
                trials_failed: 1,
                rounds: 2,
                final_acc: Some(0.91),
                ece: None,
            }
        );
        // A model_diagnostics event fills in the calibration summary.
        events.push(LedgerEvent::ModelDiagnostics {
            round: 1,
            strategy: "Within-ALE".into(),
            rows: 4,
            classes: vec!["a".into(), "b".into()],
            confusion: vec![vec![2, 0], vec![1, 1]],
            brier: 0.2,
            bin_count: vec![4],
            bin_conf_sum: vec![3.2],
            bin_hit: vec![3],
            ale_band_width: 0.0,
        });
        let ece = LedgerSummary::from_events(&events)
            .ece
            .expect("diagnostics set ece");
        assert!((ece - 0.05).abs() < 1e-12, "{ece}");
    }

    #[test]
    fn summary_reads_non_finite_round_accuracy_as_none() {
        let summary = LedgerSummary::from_events(&[LedgerEvent::RoundCompleted {
            round: 0,
            strategy: "Random".into(),
            acc_mean: f64::NAN,
            acc_min: f64::NAN,
            acc_max: f64::NAN,
            points_added: 0,
            regions: 0,
            ale_std_mean: 0.0,
            ale_std_max: 0.0,
        }]);
        assert_eq!(summary.rounds, 1);
        assert_eq!(summary.final_acc, None);
    }

    #[test]
    fn armed_summary_store_folds_emitted_events_and_writes_nothing() {
        static STORE: crate::ledger::FoldStore<LedgerSummary> =
            crate::ledger::FoldStore::new("ledger summary (in memory)", LedgerSummary::new());
        let _guard = crate::test_lock::hold();
        STORE.arm(LedgerSummary::new());
        assert!(crate::ledger::active(), "arming raises the ledger gate");
        crate::ledger::emit(&LedgerEvent::TrialFailed {
            trial: 0,
            rung: 0,
            family: "mlp".into(),
            reason: "error".into(),
        });
        let finished = crate::sink::finish(&crate::Snapshot::default());
        assert_eq!(finished.len(), 1);
        assert_eq!(finished[0].0, "ledger summary (in memory)");
        assert!(finished[0].1.is_ok());
        assert_eq!(STORE.read(|s, armed| (s.trials_failed, armed)), (1, false));
    }
}
