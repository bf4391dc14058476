//! # aml-faults
//!
//! Deterministic fault injection for the AutoML loop — the test oracle
//! behind trial sandboxing, resume, and sink-failure
//! accounting (DESIGN.md §7).
//!
//! A [`FaultPlan`] names *sites* and *indices*:
//!
//! ```text
//! trial_panic@3,trial_slow@7:500ms,trial_nan@2,sink_fail@2,nan_labels@1
//! ```
//!
//! * `trial_panic@N` — trial id `N` panics inside its sandbox.
//! * `trial_slow@N:DURms` — trial id `N` sleeps `DUR` milliseconds before
//!   training (drives the `--max-trial-time` timeout path).
//! * `trial_nan@N` — trial id `N` reports a NaN validation score (drives
//!   the non-finite-score guard).
//! * `sink_fail@N` — the `N`-th ledger event write (0-based, counted
//!   while a plan is installed) fails, exercising the
//!   `telemetry.events_dropped` accounting.
//! * `nan_labels@N` — the `N`-th labeling call (0-based) has its
//!   suggested rows poisoned with NaN feature values, exercising the
//!   experiment loop's non-finite-row filter.
//!
//! Because every site is keyed by a deterministic index (trial ids are
//! assigned before any parallel work; labeling calls are sequential),
//! the injected faults — and therefore the resulting `trial_failed`
//! ledger events — are reproducible run over run.
//!
//! ## Off-is-free
//!
//! All hooks gate on one relaxed [`AtomicBool`] load. Without
//! [`install`], no plan is consulted, no counters tick, and the hooks
//! compile down to a load-and-branch.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// What an injected trial-site fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialFault {
    /// Panic inside the trial sandbox (`reason: panic`).
    Panic,
    /// Sleep this long before training (`reason: timeout` when a
    /// `--max-trial-time` budget is set and exceeded).
    Slow(Duration),
    /// Report a NaN validation score (`reason: nonfinite`).
    NanScore,
}

/// A parsed, deterministic fault plan. See the crate docs for the spec
/// grammar.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Trial ids that panic.
    pub trial_panic: Vec<u64>,
    /// Trial ids that sleep, with their delays.
    pub trial_slow: Vec<(u64, Duration)>,
    /// Trial ids that report a NaN score.
    pub trial_nan: Vec<u64>,
    /// 0-based ledger-write indices that fail.
    pub sink_fail: Vec<u64>,
    /// 0-based labeling-call indices whose rows are NaN-poisoned.
    pub nan_labels: Vec<u64>,
}

/// A malformed `--fault-plan` entry: the offending token plus what was
/// wrong with it. `Display` renders both, so error surfaces that only
/// show a string still name the token that failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    /// The comma-separated plan entry that failed to parse (the whole
    /// spec when it was empty).
    pub token: String,
    /// What was wrong with the token.
    pub message: String,
}

impl FaultParseError {
    fn new(token: impl Into<String>, message: impl Into<String>) -> Self {
        FaultParseError {
            token: token.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault-plan entry '{}': {}", self.token, self.message)
    }
}

impl std::error::Error for FaultParseError {}

impl FaultPlan {
    /// Parse a comma-separated plan spec such as
    /// `trial_panic@3,trial_slow@7:500ms,sink_fail@2,nan_labels@1`.
    /// Empty specs and empty items are rejected with a typed error that
    /// names the offending token.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultParseError> {
        let mut plan = FaultPlan::default();
        if spec.trim().is_empty() {
            return Err(FaultParseError::new(spec, "empty fault plan"));
        }
        for item in spec.split(',') {
            let item = item.trim();
            let (site, arg) = item
                .split_once('@')
                .ok_or_else(|| FaultParseError::new(item, "expected SITE@INDEX"))?;
            match site {
                "trial_panic" => plan.trial_panic.push(parse_index(item, arg)?),
                "trial_nan" => plan.trial_nan.push(parse_index(item, arg)?),
                "sink_fail" => plan.sink_fail.push(parse_index(item, arg)?),
                "nan_labels" => plan.nan_labels.push(parse_index(item, arg)?),
                "trial_slow" => {
                    let (idx, dur) = arg.split_once(':').ok_or_else(|| {
                        FaultParseError::new(item, "trial_slow expects trial_slow@N:DURms")
                    })?;
                    plan.trial_slow
                        .push((parse_index(item, idx)?, parse_duration(item, dur)?));
                }
                other => {
                    return Err(FaultParseError::new(
                        item,
                        format!(
                            "unknown fault site '{other}' (expected trial_panic, trial_slow, \
                             trial_nan, sink_fail, or nan_labels)"
                        ),
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self == &FaultPlan::default()
    }
}

fn parse_index(item: &str, arg: &str) -> Result<u64, FaultParseError> {
    arg.parse()
        .map_err(|_| FaultParseError::new(item, "index must be a non-negative integer"))
}

fn parse_duration(item: &str, arg: &str) -> Result<Duration, FaultParseError> {
    let ms = arg
        .strip_suffix("ms")
        .ok_or_else(|| FaultParseError::new(item, "duration must end in 'ms'"))?;
    ms.parse::<u64>()
        .map(Duration::from_millis)
        .map_err(|_| FaultParseError::new(item, "duration must be an integer millisecond count"))
}

/// Hot-path gate: true iff a plan is installed.
static FAULTS_ACTIVE: AtomicBool = AtomicBool::new(false);
/// The installed plan (None when inactive).
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
/// 0-based index of the next ledger event write (counts only while a
/// plan is installed).
static SINK_WRITES: AtomicU64 = AtomicU64::new(0);
/// 0-based index of the next labeling call.
static LABEL_CALLS: AtomicU64 = AtomicU64::new(0);

/// Whether a fault plan is installed (one relaxed atomic load).
#[inline]
pub fn active() -> bool {
    FAULTS_ACTIVE.load(Ordering::Relaxed)
}

/// Install `plan` process-wide and reset the site counters. Replaces any
/// previously installed plan.
pub fn install(plan: FaultPlan) {
    let mut slot = PLAN.lock().unwrap_or_else(PoisonError::into_inner);
    SINK_WRITES.store(0, Ordering::Relaxed);
    LABEL_CALLS.store(0, Ordering::Relaxed);
    *slot = Some(plan);
    FAULTS_ACTIVE.store(true, Ordering::Release);
}

/// Remove the installed plan (tests; also safe to call when none is
/// installed).
pub fn clear() {
    let mut slot = PLAN.lock().unwrap_or_else(PoisonError::into_inner);
    FAULTS_ACTIVE.store(false, Ordering::Release);
    *slot = None;
}

fn with_plan<T>(f: impl FnOnce(&FaultPlan) -> T) -> Option<T> {
    let slot = PLAN.lock().unwrap_or_else(PoisonError::into_inner);
    slot.as_ref().map(f)
}

/// Site hook: the fault (if any) scheduled for trial `trial`. Checked by
/// the search sandbox before training. Precedence when a trial appears
/// at several sites: panic, then slow, then NaN.
#[inline]
pub fn trial_fault(trial: u64) -> Option<TrialFault> {
    if !active() {
        return None;
    }
    with_plan(|p| {
        if p.trial_panic.contains(&trial) {
            Some(TrialFault::Panic)
        } else if let Some(&(_, d)) = p.trial_slow.iter().find(|&&(t, _)| t == trial) {
            Some(TrialFault::Slow(d))
        } else if p.trial_nan.contains(&trial) {
            Some(TrialFault::NanScore)
        } else {
            None
        }
    })
    .flatten()
}

/// Site hook: should this ledger event write fail? Ticks the write
/// counter and answers true for scheduled `sink_fail` indices.
#[inline]
pub fn sink_write_fails() -> bool {
    if !active() {
        return false;
    }
    let idx = SINK_WRITES.fetch_add(1, Ordering::Relaxed);
    with_plan(|p| p.sink_fail.contains(&idx)).unwrap_or(false)
}

/// Site hook: should this labeling call's suggested rows be
/// NaN-poisoned? Ticks the label-call counter and answers true for
/// scheduled `nan_labels` indices.
#[inline]
pub fn label_rows_poisoned() -> bool {
    if !active() {
        return false;
    }
    let idx = LABEL_CALLS.fetch_add(1, Ordering::Relaxed);
    with_plan(|p| p.nan_labels.contains(&idx)).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share the process-global plan; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn hold() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn parses_the_full_grammar() {
        let plan = FaultPlan::parse(
            "trial_panic@3,trial_slow@7:500ms,trial_nan@2,sink_fail@2,nan_labels@1",
        )
        .unwrap();
        assert_eq!(plan.trial_panic, vec![3]);
        assert_eq!(plan.trial_slow, vec![(7, Duration::from_millis(500))]);
        assert_eq!(plan.trial_nan, vec![2]);
        assert_eq!(plan.sink_fail, vec![2]);
        assert_eq!(plan.nan_labels, vec![1]);
        assert!(!plan.is_empty());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            "",
            "   ",
            "trial_panic",
            "trial_panic@x",
            "trial_slow@3",
            "trial_slow@3:fast",
            "trial_slow@3:500s",
            "bogus@1",
            "worker_crash@0",
            "submit_burst@4",
            "trial_panic@1,,sink_fail@0",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_error_names_the_offending_token() {
        let err = FaultPlan::parse("trial_panic@1,bogus@7,sink_fail@0").unwrap_err();
        assert_eq!(err.token, "bogus@7");
        assert!(err.message.contains("unknown fault site 'bogus'"), "{err}");
        let rendered = err.to_string();
        assert!(
            rendered.starts_with("bad fault-plan entry 'bogus@7': "),
            "{rendered}"
        );

        let err = FaultPlan::parse("trial_slow@3:fast").unwrap_err();
        assert_eq!(err.token, "trial_slow@3:fast");
        assert!(err.to_string().contains("duration must end in 'ms'"));

        let err = FaultPlan::parse("trial_panic@x").unwrap_err();
        assert_eq!(err.token, "trial_panic@x");
        assert!(err.to_string().contains("non-negative integer"));

        let err = FaultPlan::parse("  ").unwrap_err();
        assert!(err.to_string().contains("empty fault plan"));
    }

    #[test]
    fn hooks_are_inert_without_a_plan() {
        let _guard = hold();
        clear();
        assert!(!active());
        assert_eq!(trial_fault(3), None);
        assert!(!sink_write_fails());
        assert!(!label_rows_poisoned());
    }

    #[test]
    fn trial_faults_fire_at_their_indices_only() {
        let _guard = hold();
        install(FaultPlan::parse("trial_panic@3,trial_slow@7:500ms,trial_nan@2").unwrap());
        assert_eq!(trial_fault(3), Some(TrialFault::Panic));
        assert_eq!(
            trial_fault(7),
            Some(TrialFault::Slow(Duration::from_millis(500)))
        );
        assert_eq!(trial_fault(2), Some(TrialFault::NanScore));
        assert_eq!(trial_fault(0), None);
        assert_eq!(trial_fault(4), None);
        clear();
    }

    #[test]
    fn sink_and_label_counters_tick_per_call() {
        let _guard = hold();
        install(FaultPlan::parse("sink_fail@2,nan_labels@1").unwrap());
        assert!(!sink_write_fails()); // write 0
        assert!(!sink_write_fails()); // write 1
        assert!(sink_write_fails()); // write 2 — fails
        assert!(!sink_write_fails()); // write 3
        assert!(!label_rows_poisoned()); // call 0
        assert!(label_rows_poisoned()); // call 1 — poisoned
        assert!(!label_rows_poisoned()); // call 2
        clear();
    }

    #[test]
    fn install_resets_counters() {
        let _guard = hold();
        install(FaultPlan::parse("sink_fail@0").unwrap());
        assert!(sink_write_fails());
        install(FaultPlan::parse("sink_fail@0").unwrap());
        assert!(sink_write_fails(), "counter must restart at 0 on install");
        clear();
    }
}
