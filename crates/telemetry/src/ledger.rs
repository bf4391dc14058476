//! Experiment ledger: typed, versioned ML-level events of a run.
//!
//! Spans and counters (PRs 1–2) describe the *system* — where time and
//! allocations go. The ledger describes the *experiment*: which candidate
//! configurations the search tried and how each scored, what the final
//! ensemble is composed of, how accuracy /
//! label budget / suggested regions evolved across feedback rounds, and
//! the provenance of every ALE curve. One [`LedgerEvent`] per fact,
//! serialized as one JSON line with a fixed field order
//! ([`LedgerEvent::to_json_line`]).
//!
//! ## Determinism
//!
//! Ledger events carry **no wall-clock or thread identity** — timing
//! lives in spans and histograms. Trial ids are the sequential sampling
//! indices assigned before any parallel work starts, so the multiset of
//! ledger lines is identical whether the search runs on 1 or N threads;
//! sorting the lines yields byte-identical content. The determinism test
//! in `aml-automl` relies on this, which makes the ledger double as a
//! correctness oracle for the parallel search.
//!
//! ## Off-is-free
//!
//! Emission is gated on a dedicated atomic ([`active`]) that is only set
//! when a ledger-consuming sink is installed. [`emit_with`] takes a
//! closure so argument construction (config debug strings, band copies)
//! is skipped entirely when no ledger sink is listening.
//!
//! ## Versioning
//!
//! [`LEDGER_SCHEMA_VERSION`] is stamped into the ledger file header and
//! bumped on any breaking change to a line shape (field rename/removal,
//! semantic change). Adding a new event type or a new trailing field is
//! backward compatible and does not bump the version. The golden test in
//! `aml-bench` pins every line shape.

use crate::json::{self, Value};
use crate::registry::Snapshot;
use crate::sink::{RunHeader, Sink};
use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Version of the ledger line shapes; stamped into the file header and
/// pinned by the `ledger_golden` test. Bump on breaking changes only.
pub const LEDGER_SCHEMA_VERSION: u64 = 2;

/// A typed hyperparameter value as sampled for one trial. Rendered into
/// the `trial_started` line's trailing `params` object: `Int` as a bare
/// integer, `Float` via the shortest round-trip form, `Cat` as a string
/// tag matching one of the dimension's declared `choices`.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Integer-valued dimension (tree depth, neighbour count, …).
    Int(i64),
    /// Real-valued dimension (regularization strength, smoothing, …).
    Float(f64),
    /// Categorical dimension (split criterion, weighting scheme, …).
    Cat(String),
}

impl ParamValue {
    pub(crate) fn to_json(&self) -> String {
        match self {
            ParamValue::Int(v) => format!("{v}"),
            ParamValue::Float(v) => json::num(*v),
            ParamValue::Cat(tag) => json::string(tag),
        }
    }

    /// Re-type one rendered value. `Int` renders as a bare integer and
    /// `Float` in its shortest form, so an integral float reads back as
    /// `Int` — it renders to the same bytes either way.
    fn from_json(v: &Value) -> Result<ParamValue, String> {
        Ok(match v {
            Value::Int(n) => {
                i64::try_from(*n).map_or(ParamValue::Float(*n as f64), ParamValue::Int)
            }
            Value::Num(n) => ParamValue::Float(*n),
            Value::Null => ParamValue::Float(f64::NAN),
            Value::Str(tag) => ParamValue::Cat(tag.clone()),
            _ => return Err("param is not a number or a string".into()),
        })
    }
}

/// One declared hyperparameter dimension of a model family, as described
/// by the once-per-run `search_space` ledger event.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceDim {
    /// Dimension name; matches the key in each trial's `params` map.
    pub name: String,
    /// Value kind: `int`, `float`, or `cat`.
    pub kind: String,
    /// Sampling scale: `linear` or `log10` (uniform in log-space).
    pub scale: String,
    /// Inclusive lower bound of the declared range (0 for `cat`).
    pub lo: f64,
    /// Inclusive upper bound of the declared range (0 for `cat`).
    pub hi: f64,
    /// Declared category tags (empty for numeric dimensions).
    pub choices: Vec<String>,
}

/// The declared search space of one model family.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceFamily {
    /// Model family name (matches `trial_*` lines).
    pub family: String,
    /// Declared dimensions in sampling order.
    pub dims: Vec<SpaceDim>,
}

/// One member of a selected ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleMember {
    /// Trial id of the leaderboard candidate (joins with `trial_*` lines).
    pub trial: u64,
    /// Model family name (`forest`, `logreg`, …).
    pub family: String,
    /// Ensemble weight (greedy-selection pick count).
    pub weight: f64,
    /// Validation score of the member on the inner split.
    pub score: f64,
}

/// One ML-level fact about the run. See the module docs for the
/// determinism contract (no wall time, no thread ids).
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerEvent {
    /// A candidate configuration enters training.
    TrialStarted {
        /// Stable trial id: the sequential sampling index of the config.
        trial: u64,
        /// Model family name.
        family: String,
        /// Human-readable hyperparameter dump of the configuration.
        config: String,
        /// Typed hyperparameter map in the family's declared dimension
        /// order. Trailing field added without a schema bump (see the
        /// module docs' versioning policy); joins with the run's
        /// `search_space` event for range/scale context.
        params: Vec<(String, ParamValue)>,
    },
    /// A candidate finished training and was scored on the validation
    /// split.
    TrialFinished {
        /// Stable trial id (matches the `TrialStarted` line).
        trial: u64,
        /// Model family name.
        family: String,
        /// Balanced accuracy on the validation split.
        score: f64,
    },
    /// A candidate failed to train (solver error, panic, budget
    /// timeout, or a non-finite score).
    TrialFailed {
        /// Stable trial id.
        trial: u64,
        /// Model family name.
        family: String,
        /// Failure class: `error` (fit/scoring returned an error),
        /// `panic` (the sandbox caught an unwind), `timeout` (the
        /// `--max-trial-time` budget expired), or `nonfinite` (the
        /// validation score was NaN/inf). Trailing field added without a
        /// schema bump (see the module docs' versioning policy).
        reason: String,
    },
    /// The greedy ensemble selection committed to its final members.
    EnsembleSelected {
        /// Ensemble validation score on the inner split.
        val_score: f64,
        /// The selected members with their weights.
        members: Vec<EnsembleMember>,
    },
    /// One feedback round (strategy application) completed.
    RoundCompleted {
        /// Process-wide round sequence number (see [`next_round`]).
        round: u64,
        /// Strategy name (`Within-ALE`, `Random`, …).
        strategy: String,
        /// Mean accuracy across the round's test sets.
        acc_mean: f64,
        /// Minimum accuracy across the round's test sets.
        acc_min: f64,
        /// Maximum accuracy across the round's test sets.
        acc_max: f64,
        /// Labeled points added to the training set this round.
        points_added: u64,
        /// Number of suggested half-space intervals this round.
        regions: u64,
        /// Mean ALE cross-model std over all grid cells (0 if no ALE).
        ale_std_mean: f64,
        /// Max ALE cross-model std over all grid cells (0 if no ALE).
        ale_std_max: f64,
        /// Balanced accuracy per test set, in test-set order: the paired
        /// scores the Wilcoxon tests pool, and what a `--resume` run
        /// reuses for a round it skips. Trailing field added without a
        /// schema bump (see the module docs' versioning policy).
        scores: Vec<f64>,
    },
    /// The feedback loop suggested under-explored regions for a feature,
    /// with the ALE mean±std band they were derived from.
    RegionSuggested {
        /// Feature index.
        feature: u64,
        /// Feature name.
        name: String,
        /// Std threshold above which a cell counts as uncertain.
        threshold: f64,
        /// Suggested `[lo, hi]` intervals in feature units.
        intervals: Vec<(f64, f64)>,
        /// ALE grid cell centers.
        grid: Vec<f64>,
        /// Cross-model mean ALE value per cell.
        mean: Vec<f64>,
        /// Cross-model std of the ALE value per cell.
        std: Vec<f64>,
    },
    /// The declared search space: every family's hyperparameter
    /// dimensions with their ranges, scales, and categorical choices.
    /// Emitted once per run, before the first trial (see
    /// [`claim_search_space_emission`]).
    SearchSpace {
        /// One entry per model family, in registration order.
        families: Vec<SpaceFamily>,
    },
    /// Provenance of one computed interpretability curve.
    AleCurveComputed {
        /// Feature index the curve explains.
        feature: u64,
        /// Name of the explained model.
        model: String,
        /// Curve method (`ale` or `pdp`).
        method: String,
        /// Number of grid points.
        grid_points: u64,
        /// Number of data rows the curve was computed over.
        rows: u64,
    },
    /// Per-feature distribution summary of one split (train/eval) at one
    /// feedback round, feeding the quality plane's drift scores.
    /// Additive event type, no schema bump (see the versioning policy).
    DatasetProfile {
        /// Process-wide round sequence number.
        round: u64,
        /// Split name (`train` or `eval`).
        split: String,
        /// Rows in the split.
        rows: u64,
        /// Rows per class (class balance), class-index order.
        class_counts: Vec<u64>,
        /// Per-feature summaries with fixed-edge histograms.
        features: Vec<crate::quality::FeatureProfile>,
    },
    /// Raw model-quality tallies of one feedback round, computed from
    /// the refit ensemble's eval predictions. Carries only counts and
    /// sums; accuracy/PRF1/ECE are derived on the read side so a
    /// recompute from the ledger is byte-identical. Additive event
    /// type, no schema bump.
    ModelDiagnostics {
        /// Process-wide round sequence number.
        round: u64,
        /// Strategy applied this round.
        strategy: String,
        /// Eval rows the tallies cover.
        rows: u64,
        /// Class names, confusion-matrix order.
        classes: Vec<String>,
        /// Confusion matrix, `confusion[true][pred]`.
        confusion: Vec<Vec<u64>>,
        /// Multiclass Brier score (mean over rows of the squared
        /// probability-vector error).
        brier: f64,
        /// Predictions per reliability confidence bin.
        bin_count: Vec<u64>,
        /// Sum of predicted max-probabilities per confidence bin.
        bin_conf_sum: Vec<f64>,
        /// Correct predictions per confidence bin.
        bin_hit: Vec<u64>,
        /// Mean ALE ±σ band width (2σ) over all grid cells; 0 without
        /// ALE feedback.
        ale_band_width: f64,
    },
}

impl LedgerEvent {
    /// Serialize as one JSON line (no trailing newline) with fixed field
    /// order. Pinned by the `ledger_golden` test in `aml-bench`.
    pub fn to_json_line(&self) -> String {
        match self {
            LedgerEvent::TrialStarted {
                trial,
                family,
                config,
                params,
            } => {
                let mut out = format!(
                    "{{\"type\":\"trial_started\",\"trial\":{trial},\"family\":{},\"config\":{},\"params\":{{",
                    json::string(family),
                    json::string(config),
                );
                for (i, (name, value)) in params.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:{}", json::string(name), value.to_json());
                }
                out.push_str("}}");
                out
            }
            LedgerEvent::TrialFinished {
                trial,
                family,
                score,
            } => format!(
                "{{\"type\":\"trial_finished\",\"trial\":{trial},\"family\":{},\"score\":{}}}",
                json::string(family),
                json::num(*score),
            ),
            LedgerEvent::TrialFailed {
                trial,
                family,
                reason,
            } => format!(
                "{{\"type\":\"trial_failed\",\"trial\":{trial},\"family\":{},\"reason\":{}}}",
                json::string(family),
                json::string(reason),
            ),
            LedgerEvent::EnsembleSelected { val_score, members } => {
                let mut out = format!(
                    "{{\"type\":\"ensemble_selected\",\"val_score\":{},\"members\":[",
                    json::num(*val_score)
                );
                for (i, m) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"trial\":{},\"family\":{},\"weight\":{},\"score\":{}}}",
                        m.trial,
                        json::string(&m.family),
                        json::num(m.weight),
                        json::num(m.score),
                    );
                }
                out.push_str("]}");
                out
            }
            LedgerEvent::RoundCompleted {
                round,
                strategy,
                acc_mean,
                acc_min,
                acc_max,
                points_added,
                regions,
                ale_std_mean,
                ale_std_max,
                scores,
            } => format!(
                "{{\"type\":\"round_completed\",\"round\":{round},\"strategy\":{},\"acc_mean\":{},\"acc_min\":{},\"acc_max\":{},\"points_added\":{points_added},\"regions\":{regions},\"ale_std_mean\":{},\"ale_std_max\":{},\"scores\":{}}}",
                json::string(strategy),
                json::num(*acc_mean),
                json::num(*acc_min),
                json::num(*acc_max),
                json::num(*ale_std_mean),
                json::num(*ale_std_max),
                json::f64_array(scores),
            ),
            LedgerEvent::RegionSuggested {
                feature,
                name,
                threshold,
                intervals,
                grid,
                mean,
                std,
            } => {
                let mut ivals = String::from("[");
                for (i, (lo, hi)) in intervals.iter().enumerate() {
                    if i > 0 {
                        ivals.push(',');
                    }
                    let _ = write!(ivals, "[{},{}]", json::num(*lo), json::num(*hi));
                }
                ivals.push(']');
                format!(
                    "{{\"type\":\"region_suggested\",\"feature\":{feature},\"name\":{},\"threshold\":{},\"intervals\":{ivals},\"grid\":{},\"mean\":{},\"std\":{}}}",
                    json::string(name),
                    json::num(*threshold),
                    json::f64_array(grid),
                    json::f64_array(mean),
                    json::f64_array(std),
                )
            }
            LedgerEvent::SearchSpace { families } => {
                let mut out = String::from("{\"type\":\"search_space\",\"families\":[");
                for (i, fam) in families.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{{\"family\":{},\"dims\":[", json::string(&fam.family));
                    for (j, d) in fam.dims.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let mut choices = String::from("[");
                        for (k, c) in d.choices.iter().enumerate() {
                            if k > 0 {
                                choices.push(',');
                            }
                            choices.push_str(&json::string(c));
                        }
                        choices.push(']');
                        let _ = write!(
                            out,
                            "{{\"name\":{},\"kind\":{},\"scale\":{},\"lo\":{},\"hi\":{},\"choices\":{choices}}}",
                            json::string(&d.name),
                            json::string(&d.kind),
                            json::string(&d.scale),
                            json::num(d.lo),
                            json::num(d.hi),
                        );
                    }
                    out.push_str("]}");
                }
                out.push_str("]}");
                out
            }
            LedgerEvent::AleCurveComputed {
                feature,
                model,
                method,
                grid_points,
                rows,
            } => format!(
                "{{\"type\":\"ale_curve\",\"feature\":{feature},\"model\":{},\"method\":{},\"grid_points\":{grid_points},\"rows\":{rows}}}",
                json::string(model),
                json::string(method),
            ),
            LedgerEvent::DatasetProfile {
                round,
                split,
                rows,
                class_counts,
                features,
            } => {
                let mut out = format!(
                    "{{\"type\":\"dataset_profile\",\"round\":{round},\"split\":{},\"rows\":{rows},\"class_counts\":{},\"features\":[",
                    json::string(split),
                    json::u64_array(class_counts),
                );
                for (i, f) in features.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&f.to_json());
                }
                out.push_str("]}");
                out
            }
            LedgerEvent::ModelDiagnostics {
                round,
                strategy,
                rows,
                classes,
                confusion,
                brier,
                bin_count,
                bin_conf_sum,
                bin_hit,
                ale_band_width,
            } => {
                let mut out = format!(
                    "{{\"type\":\"model_diagnostics\",\"round\":{round},\"strategy\":{},\"rows\":{rows},\"classes\":[",
                    json::string(strategy),
                );
                for (i, c) in classes.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json::string(c));
                }
                out.push_str("],\"confusion\":[");
                for (i, row) in confusion.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json::u64_array(row));
                }
                let _ = write!(
                    out,
                    "],\"brier\":{},\"bin_count\":{},\"bin_conf_sum\":{},\"bin_hit\":{},\"ale_band_width\":{}}}",
                    json::num(*brier),
                    json::u64_array(bin_count),
                    json::f64_array(bin_conf_sum),
                    json::u64_array(bin_hit),
                    json::num(*ale_band_width),
                );
                out
            }
        }
    }
}

impl LedgerEvent {
    /// Parse one event line: the exact inverse of [`Self::to_json_line`]
    /// (`to_json_line(from_json_line(l)) == l` byte for byte). Three
    /// trailing fields added without a schema bump have defaults: a
    /// missing `params` or `scores` reads as empty, a missing `reason` as
    /// `"error"`.
    /// An event type this build does not know parses as `Ok(None)` —
    /// additive schema changes don't bump the version.
    pub fn from_json_line(line: &str) -> Result<Option<LedgerEvent>, String> {
        let v = json::parse(line)?;
        let s = |key: &str| v.str_at(key).map(str::to_string);
        let event = match v.str_at("type")? {
            "trial_started" => LedgerEvent::TrialStarted {
                trial: v.u64_at("trial")?,
                family: s("family")?,
                config: s("config")?,
                params: match v.get("params") {
                    None => Vec::new(),
                    Some(_) => v
                        .obj_at("params")?
                        .iter()
                        .map(|(name, p)| Ok((name.clone(), ParamValue::from_json(p)?)))
                        .collect::<Result<_, String>>()?,
                },
            },
            "trial_finished" => LedgerEvent::TrialFinished {
                trial: v.u64_at("trial")?,
                family: s("family")?,
                score: v.f64_at("score")?,
            },
            "trial_failed" => LedgerEvent::TrialFailed {
                trial: v.u64_at("trial")?,
                family: s("family")?,
                reason: match v.get("reason") {
                    None => "error".to_string(),
                    Some(_) => s("reason")?,
                },
            },
            "ensemble_selected" => LedgerEvent::EnsembleSelected {
                val_score: v.f64_at("val_score")?,
                members: v
                    .arr_at("members")?
                    .iter()
                    .map(|m| {
                        Ok(EnsembleMember {
                            trial: m.u64_at("trial")?,
                            family: m.str_at("family")?.to_string(),
                            weight: m.f64_at("weight")?,
                            score: m.f64_at("score")?,
                        })
                    })
                    .collect::<Result<_, String>>()?,
            },
            "round_completed" => LedgerEvent::RoundCompleted {
                round: v.u64_at("round")?,
                strategy: s("strategy")?,
                acc_mean: v.f64_at("acc_mean")?,
                acc_min: v.f64_at("acc_min")?,
                acc_max: v.f64_at("acc_max")?,
                points_added: v.u64_at("points_added")?,
                regions: v.u64_at("regions")?,
                ale_std_mean: v.f64_at("ale_std_mean")?,
                ale_std_max: v.f64_at("ale_std_max")?,
                scores: match v.get("scores") {
                    None => Vec::new(),
                    Some(_) => v.f64s_at("scores")?,
                },
            },
            "region_suggested" => LedgerEvent::RegionSuggested {
                feature: v.u64_at("feature")?,
                name: s("name")?,
                threshold: v.f64_at("threshold")?,
                intervals: v
                    .arr_at("intervals")?
                    .iter()
                    .map(|pair| match pair.f64s().as_deref() {
                        Some(&[lo, hi]) => Ok((lo, hi)),
                        _ => Err("interval is not a [lo, hi] pair".to_string()),
                    })
                    .collect::<Result<_, String>>()?,
                grid: v.f64s_at("grid")?,
                mean: v.f64s_at("mean")?,
                std: v.f64s_at("std")?,
            },
            "search_space" => LedgerEvent::SearchSpace {
                families: v
                    .arr_at("families")?
                    .iter()
                    .map(|f| {
                        Ok(SpaceFamily {
                            family: f.str_at("family")?.to_string(),
                            dims: f
                                .arr_at("dims")?
                                .iter()
                                .map(|d| {
                                    Ok(SpaceDim {
                                        name: d.str_at("name")?.to_string(),
                                        kind: d.str_at("kind")?.to_string(),
                                        scale: d.str_at("scale")?.to_string(),
                                        lo: d.f64_at("lo")?,
                                        hi: d.f64_at("hi")?,
                                        choices: d.strs_at("choices")?,
                                    })
                                })
                                .collect::<Result<_, String>>()?,
                        })
                    })
                    .collect::<Result<_, String>>()?,
            },
            "ale_curve" => LedgerEvent::AleCurveComputed {
                feature: v.u64_at("feature")?,
                model: s("model")?,
                method: s("method")?,
                grid_points: v.u64_at("grid_points")?,
                rows: v.u64_at("rows")?,
            },
            "dataset_profile" => LedgerEvent::DatasetProfile {
                round: v.u64_at("round")?,
                split: s("split")?,
                rows: v.u64_at("rows")?,
                class_counts: v.u64s_at("class_counts")?,
                features: v
                    .arr_at("features")?
                    .iter()
                    .map(crate::quality::FeatureProfile::from_json)
                    .collect::<Result<_, String>>()?,
            },
            "model_diagnostics" => LedgerEvent::ModelDiagnostics {
                round: v.u64_at("round")?,
                strategy: s("strategy")?,
                rows: v.u64_at("rows")?,
                classes: v.strs_at("classes")?,
                confusion: v
                    .arr_at("confusion")?
                    .iter()
                    .map(|row| row.u64s().ok_or("confusion row is not an integer array"))
                    .collect::<Result<_, _>>()?,
                brier: v.f64_at("brier")?,
                bin_count: v.u64s_at("bin_count")?,
                bin_conf_sum: v.f64s_at("bin_conf_sum")?,
                bin_hit: v.u64s_at("bin_hit")?,
                ale_band_width: v.f64_at("ale_band_width")?,
            },
            _ => return Ok(None),
        };
        Ok(Some(event))
    }
}

/// The first line of every ledger file: run identity plus
/// [`LEDGER_SCHEMA_VERSION`].
pub fn header_line(header: &RunHeader) -> String {
    format!(
        "{{\"type\":\"ledger\",\"schema_version\":{LEDGER_SCHEMA_VERSION},\"run_id\":{},\"workload\":{},\"seed\":{},\"git\":{}}}",
        json::string(&header.run_id),
        json::string(&header.workload),
        header.seed,
        json::string(&header.git),
    )
}

/// Parse a ledger file's first line: a `{"type":"ledger", ...}` header
/// carrying this build's [`LEDGER_SCHEMA_VERSION`].
pub fn parse_header(line: &str) -> Result<RunHeader, String> {
    let header = json::parse(line)?;
    if header.str_at("type") != Ok("ledger") {
        return Err("not a ledger header".into());
    }
    let version = header.u64_at("schema_version")?;
    if version != LEDGER_SCHEMA_VERSION {
        return Err(format!(
            "unsupported ledger schema_version {version} (expected {LEDGER_SCHEMA_VERSION})"
        ));
    }
    let field = |key: &str| header.str_at(key).map(str::to_string);
    Ok(RunHeader {
        run_id: field("run_id")?,
        workload: field("workload")?,
        seed: header.u64_at("seed")?,
        git: field("git")?,
    })
}

/// Read a whole `ledger.jsonl`: the header line (see [`parse_header`])
/// and every event after it. Blank lines and unknown event types are
/// skipped; any other malformed line is an error naming its line number.
pub fn read(text: &str) -> Result<(RunHeader, Vec<LedgerEvent>), String> {
    let mut lines = text.lines().enumerate();
    let (_, first) = lines.next().ok_or("empty ledger file")?;
    let run = parse_header(first).map_err(|e| format!("line 1: {e}"))?;
    let mut events = Vec::new();
    for (idx, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        if let Some(event) =
            LedgerEvent::from_json_line(line).map_err(|e| format!("line {}: {e}", idx + 1))?
        {
            events.push(event);
        }
    }
    Ok((run, events))
}

/// Whether any installed sink consumes ledger events — the hot-path gate
/// for emission (one relaxed atomic load).
static LEDGER_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Whether a ledger-consuming sink is installed.
#[inline]
pub fn active() -> bool {
    LEDGER_ACTIVE.load(Ordering::Relaxed)
}

pub(crate) fn set_active(on: bool) {
    LEDGER_ACTIVE.store(on, Ordering::Release);
}

/// Deliver `event` to every installed ledger-consuming sink. No-op when
/// none is installed; prefer [`emit_with`] when building the event
/// allocates.
pub fn emit(event: &LedgerEvent) {
    if active() {
        crate::sink::emit_ledger_event(event);
    }
}

/// Build (lazily) and deliver a ledger event. The closure only runs when
/// a ledger sink is installed, so emission sites stay allocation-free in
/// the common no-sink case.
#[inline]
pub fn emit_with(f: impl FnOnce() -> LedgerEvent) {
    if active() {
        crate::sink::emit_ledger_event(&f());
    }
}

/// Whether this run's `search_space` event has already been emitted.
/// The search loop runs once per strategy/round within a workload, but
/// the declared space never changes — one descriptor line per run keeps
/// the ledger lean and the 1-vs-N-worker sorted-line identity intact.
static SEARCH_SPACE_EMITTED: AtomicBool = AtomicBool::new(false);

/// Claim the right to emit this run's single `search_space` event.
/// Returns `true` exactly once per run (until [`reset_search_space_gate`]).
/// Callers must only claim while [`active`] — claiming with no sink
/// listening would silently swallow the event for the armed run.
pub fn claim_search_space_emission() -> bool {
    SEARCH_SPACE_EMITTED
        .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
}

/// Mark the `search_space` event as already emitted without claiming it —
/// the `--resume` path, when the kept ledger prefix already carries the
/// line: appending a second copy would break resume byte-identity.
pub fn mark_search_space_emitted() {
    SEARCH_SPACE_EMITTED.store(true, Ordering::Relaxed);
}

/// Re-arm the once-per-run `search_space` gate; called when sinks finish
/// so the next run in the same process gets its own descriptor line.
pub fn reset_search_space_gate() {
    SEARCH_SPACE_EMITTED.store(false, Ordering::Relaxed);
}

/// Process-wide feedback-round sequence counter (see [`next_round`]).
static NEXT_ROUND: AtomicU64 = AtomicU64::new(0);

/// Next process-wide feedback-round sequence number (0, 1, 2, …).
/// Strategies run sequentially within a workload, so this is
/// deterministic for a given run.
pub fn next_round() -> u64 {
    NEXT_ROUND.fetch_add(1, Ordering::Relaxed)
}

/// Fast-forward the round counter so a `--resume`d run continues the
/// sequence after the ledger's last committed round — round numbers in
/// the appended ledger lines must match the uninterrupted run's.
pub fn set_next_round(next: u64) {
    NEXT_ROUND.store(next, Ordering::Relaxed);
}

/// Ledger sink: one JSON line per [`LedgerEvent`], preceded by a header
/// line identifying the run and the schema version:
///
/// ```text
/// {"type":"ledger","schema_version":2,"run_id":"…","workload":"…","seed":1,"git":"…"}
/// ```
///
/// Ignores span closes entirely; write failures are counted in the
/// `telemetry.events_dropped` counter rather than crashing the run.
/// A file-backed sink's [`Sink::flush_now`] also syncs the file's data
/// to disk: the experiment loop flushes after every round, and the
/// flushed ledger is what `--resume` continues.
pub struct LedgerJsonlSink {
    target: String,
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
    /// A second handle on the ledger file, for `sync_data`.
    file: Option<std::fs::File>,
}

impl LedgerJsonlSink {
    /// Create (truncate) `path` and write the ledger header line.
    pub fn create(path: &Path, header: &RunHeader) -> std::io::Result<LedgerJsonlSink> {
        let file = std::fs::File::create(path)?;
        let sync = file.try_clone()?;
        let mut sink =
            LedgerJsonlSink::from_writer(Box::new(file), &path.display().to_string(), header)?;
        sink.file = Some(sync);
        Ok(sink)
    }

    /// Reopen an existing ledger for append, without writing a header —
    /// the resume path: the original run's header and committed rounds
    /// are already in the file, which the caller has truncated to that
    /// committed prefix first.
    pub fn append(path: &Path) -> std::io::Result<LedgerJsonlSink> {
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(LedgerJsonlSink {
            target: path.display().to_string(),
            file: Some(file.try_clone()?),
            writer: Mutex::new(BufWriter::new(Box::new(file))),
        })
    }

    /// Wrap an arbitrary writer (tests inject failing writers here).
    pub fn from_writer(
        writer: Box<dyn Write + Send>,
        target: &str,
        header: &RunHeader,
    ) -> std::io::Result<LedgerJsonlSink> {
        let mut writer = BufWriter::new(writer);
        writeln!(writer, "{}", header_line(header))?;
        Ok(LedgerJsonlSink {
            target: target.to_string(),
            writer: Mutex::new(writer),
            file: None,
        })
    }
}

impl Sink for LedgerJsonlSink {
    fn on_ledger_event(&self, event: &LedgerEvent) {
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        if writeln!(w, "{}", event.to_json_line()).is_err() {
            crate::counter_add("telemetry.events_dropped", 1);
        }
    }

    fn wants_ledger(&self) -> bool {
        true
    }

    fn flush_now(&self) -> std::io::Result<()> {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        writer.flush()?;
        match &self.file {
            Some(file) => file.sync_data(),
            None => Ok(()),
        }
    }

    fn finish(&self, _snapshot: &Snapshot) -> std::io::Result<()> {
        self.writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush()
    }

    fn target(&self) -> String {
        self.target.clone()
    }
}

/// An in-process reader of the ledger: a value that folds events one at
/// a time. The search and quality collectors and the run summary are
/// folds. Each runs offline over a parsed `ledger.jsonl` through
/// [`Fold::from_events`]; the run summary also runs live, fed by the
/// sink a [`FoldStore`] installs — one piece of code both ways, so a
/// live summary equals its offline recompute by construction.
pub trait Fold: Default + Send + 'static {
    /// Ingest one event; events this fold does not read are ignored.
    fn observe(&mut self, event: &LedgerEvent);

    /// Fold a sequence of events into a fresh value.
    fn from_events<'a>(events: impl IntoIterator<Item = &'a LedgerEvent>) -> Self {
        let mut fold = Self::default();
        for event in events {
            fold.observe(event);
        }
        fold
    }
}

/// Process-global home of one live [`Fold`] (the state behind a
/// `--record` line). [`FoldStore::arm`] installs a sink
/// that feeds it every ledger event, and a resumed run's kept prefix
/// through [`crate::sink::replay_ledger`]. The sink's `finish` disarms
/// the store; the folded state stays readable after the run.
pub struct FoldStore<F> {
    target: &'static str,
    slot: Mutex<FoldSlot<F>>,
}

struct FoldSlot<F> {
    fold: F,
    armed: bool,
}

impl<F: Fold> FoldStore<F> {
    /// A disarmed store holding `fold`; `target` names its sink in the
    /// end-of-run notes.
    pub const fn new(target: &'static str, fold: F) -> FoldStore<F> {
        FoldStore {
            target,
            slot: Mutex::new(FoldSlot { fold, armed: false }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FoldSlot<F>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Start the store over from `fresh` and, unless a sink already
    /// feeds it, install one (raising the ledger emission gate).
    pub fn arm(&'static self, fresh: F) {
        let mut slot = self.lock();
        slot.fold = fresh;
        if !std::mem::replace(&mut slot.armed, true) {
            drop(slot);
            crate::sink::install(Box::new(FoldSink(self)));
        }
    }

    /// Run `f` over the folded state and whether a sink still feeds it.
    pub fn read<R>(&self, f: impl FnOnce(&F, bool) -> R) -> R {
        let slot = self.lock();
        f(&slot.fold, slot.armed)
    }
}

/// The sink an armed [`FoldStore`] installs: folds live and replayed
/// events into the store, writes nothing.
struct FoldSink<F: 'static>(&'static FoldStore<F>);

impl<F: Fold> Sink for FoldSink<F> {
    fn on_ledger_event(&self, event: &LedgerEvent) {
        self.0.lock().fold.observe(event);
    }

    fn on_ledger_replay(&self, event: &LedgerEvent) {
        self.on_ledger_event(event);
    }

    fn wants_ledger(&self) -> bool {
        true
    }

    fn finish(&self, _snapshot: &Snapshot) -> std::io::Result<()> {
        self.0.lock().armed = false;
        Ok(())
    }

    fn target(&self) -> String {
        self.0.target.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let line = LedgerEvent::TrialFinished {
            trial: 1,
            family: "mlp".into(),
            score: f64::NAN,
        }
        .to_json_line();
        assert!(line.contains("\"score\":null"), "{line}");
    }

    #[test]
    fn trial_started_params_render_as_trailing_typed_map() {
        let line = LedgerEvent::TrialStarted {
            trial: 7,
            family: "knn".into(),
            config: "KnnConfig { k: 5 }".into(),
            params: vec![
                ("k".into(), ParamValue::Int(5)),
                ("weights".into(), ParamValue::Cat("distance".into())),
                ("smoothing".into(), ParamValue::Float(1e-7)),
            ],
        }
        .to_json_line();
        assert_eq!(
            line,
            "{\"type\":\"trial_started\",\"trial\":7,\"family\":\"knn\",\"config\":\"KnnConfig { k: 5 }\",\"params\":{\"k\":5,\"weights\":\"distance\",\"smoothing\":0.0000001}}"
        );
    }

    #[test]
    fn search_space_line_describes_every_dimension() {
        let line = LedgerEvent::SearchSpace {
            families: vec![SpaceFamily {
                family: "knn".into(),
                dims: vec![
                    SpaceDim {
                        name: "k".into(),
                        kind: "int".into(),
                        scale: "linear".into(),
                        lo: 1.0,
                        hi: 25.0,
                        choices: vec![],
                    },
                    SpaceDim {
                        name: "weights".into(),
                        kind: "cat".into(),
                        scale: "linear".into(),
                        lo: 0.0,
                        hi: 0.0,
                        choices: vec!["uniform".into(), "distance".into()],
                    },
                ],
            }],
        }
        .to_json_line();
        assert_eq!(
            line,
            "{\"type\":\"search_space\",\"families\":[{\"family\":\"knn\",\"dims\":[{\"name\":\"k\",\"kind\":\"int\",\"scale\":\"linear\",\"lo\":1,\"hi\":25,\"choices\":[]},{\"name\":\"weights\",\"kind\":\"cat\",\"scale\":\"linear\",\"lo\":0,\"hi\":0,\"choices\":[\"uniform\",\"distance\"]}]}]}"
        );
    }

    #[test]
    fn search_space_gate_claims_once_until_reset() {
        let _guard = crate::test_lock::hold();
        reset_search_space_gate();
        assert!(claim_search_space_emission());
        assert!(!claim_search_space_emission(), "second claim must fail");
        reset_search_space_gate();
        assert!(claim_search_space_emission(), "reset re-arms the gate");
        mark_search_space_emitted();
        reset_search_space_gate();
    }

    #[test]
    fn ledger_sink_writes_header_and_event_lines() {
        let dir = std::env::temp_dir().join(format!("aml_ledger_sink_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let header = RunHeader {
            run_id: "w-s1-p1".into(),
            workload: "w".into(),
            seed: 1,
            git: "abc".into(),
        };
        let sink = LedgerJsonlSink::create(&path, &header).unwrap();
        sink.on_ledger_event(&LedgerEvent::TrialFailed {
            trial: 3,
            family: "mlp".into(),
            reason: "error".into(),
        });
        sink.finish(&Snapshot::default()).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert_eq!(
            lines[0],
            "{\"type\":\"ledger\",\"schema_version\":2,\"run_id\":\"w-s1-p1\",\"workload\":\"w\",\"seed\":1,\"git\":\"abc\"}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"trial_failed\",\"trial\":3,\"family\":\"mlp\",\"reason\":\"error\"}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A ledger with one line of every event type plus a future one.
    fn sample_ledger_text() -> String {
        [
            r#"{"type":"ledger","schema_version":2,"run_id":"w-s1-p2","workload":"w","seed":1,"git":"abc"}"#,
            r#"{"type":"search_space","families":[{"family":"forest","dims":[{"name":"trees","kind":"int","scale":"linear","lo":4,"hi":16,"choices":[]}]},{"family":"logreg","dims":[{"name":"l2","kind":"float","scale":"log10","lo":0.00001,"hi":1,"choices":[]}]}]}"#,
            r#"{"type":"trial_started","trial":0,"family":"forest","config":"ForestConfig { trees: 8 }","params":{"trees":8}}"#,
            r#"{"type":"trial_finished","trial":0,"family":"forest","score":0.91}"#,
            r#"{"type":"trial_started","trial":3,"family":"forest","config":"ForestConfig { trees: 14 }","params":{"trees":14}}"#,
            r#"{"type":"trial_finished","trial":3,"family":"forest","score":0.84}"#,
            r#"{"type":"trial_started","trial":1,"family":"logreg","config":"LogRegConfig { l2: 0.1 }","params":{"l2":0.1}}"#,
            r#"{"type":"trial_failed","trial":1,"family":"logreg","reason":"panic"}"#,
            r#"{"type":"trial_finished","trial":2,"family":"forest","score":null}"#,
            r#"{"type":"ensemble_selected","val_score":0.93,"members":[{"trial":0,"family":"forest","weight":3,"score":0.91}]}"#,
            r#"{"type":"round_completed","round":0,"strategy":"Within-ALE","acc_mean":0.8,"acc_min":0.7,"acc_max":0.9,"points_added":40,"regions":2,"ale_std_mean":0.02,"ale_std_max":0.09,"scores":[0.7,0.8,0.9]}"#,
            r#"{"type":"round_completed","round":1,"strategy":"Within-ALE","acc_mean":0.85,"acc_min":0.8,"acc_max":0.9,"points_added":40,"regions":1,"ale_std_mean":0.01,"ale_std_max":0.05,"scores":[0.8,0.85,0.9]}"#,
            r#"{"type":"round_completed","round":2,"strategy":"Random","acc_mean":0.75,"acc_min":0.7,"acc_max":0.8,"points_added":40,"regions":0,"ale_std_mean":0,"ale_std_max":0,"scores":[0.7,0.75,0.8]}"#,
            r#"{"type":"region_suggested","feature":0,"name":"pkt_size","threshold":0.05,"intervals":[[0.2,0.4],[0.7,0.9]],"grid":[0,0.25,0.5,0.75,1],"mean":[0.1,0.3,0.2,0.4,0.1],"std":[0.01,0.08,0.02,0.09,0.01]}"#,
            r#"{"type":"ale_curve","feature":0,"model":"forest","method":"ale","grid_points":5,"rows":200}"#,
            r#"{"type":"dataset_profile","round":0,"split":"train","rows":4,"class_counts":[2,2],"features":[{"name":"pkt_size","count":4,"mean":0.4,"std":0.2,"min":0.1,"max":0.9,"log10":false,"lo":0,"hi":1,"bins":[2,1,0,1]}]}"#,
            r#"{"type":"model_diagnostics","round":0,"strategy":"Within-ALE","rows":2,"classes":["a","b"],"confusion":[[1,0],[1,0]],"brier":0.4,"bin_count":[0,0,0,0,0,0,0,2,0,0],"bin_conf_sum":[0,0,0,0,0,0,0,1.5,0,0],"bin_hit":[0,0,0,0,0,0,0,1,0,0],"ale_band_width":0.3}"#,
            r#"{"type":"some_future_event","payload":42}"#,
        ]
        .join("\n")
    }

    #[test]
    fn read_parses_every_event_type_and_skips_unknown_ones() {
        let text = sample_ledger_text();
        let (header, events) = read(&text).unwrap();
        assert_eq!(header.run_id, "w-s1-p2");
        assert_eq!(header.workload, "w");
        assert_eq!(header.seed, 1);
        assert_eq!(header.git, "abc");
        // Every known line parses; the future event is skipped.
        assert_eq!(events.len(), text.lines().count() - 2);
        let count = |is: fn(&LedgerEvent) -> bool| events.iter().filter(|e| is(e)).count();
        assert_eq!(count(|e| matches!(e, LedgerEvent::TrialStarted { .. })), 3);
        assert_eq!(count(|e| matches!(e, LedgerEvent::TrialFinished { .. })), 3);
        assert_eq!(
            count(|e| matches!(e, LedgerEvent::RoundCompleted { .. })),
            3
        );
        assert_eq!(
            count(|e| matches!(e, LedgerEvent::AleCurveComputed { .. })),
            1
        );
        let finished: Vec<(&str, f64)> = events
            .iter()
            .filter_map(|e| match e {
                LedgerEvent::TrialFinished { family, score, .. } => Some((family.as_str(), *score)),
                _ => None,
            })
            .collect();
        assert_eq!(finished[0], ("forest", 0.91));
        assert!(finished[2].1.is_nan(), "null score reads as NaN");
        assert!(events.contains(&LedgerEvent::TrialFailed {
            trial: 1,
            family: "logreg".into(),
            reason: "panic".into(),
        }));
        assert!(events.iter().any(|e| matches!(
            e,
            LedgerEvent::EnsembleSelected { members, .. } if members[0].family == "forest"
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            LedgerEvent::RoundCompleted { round: 2, strategy, .. } if strategy == "Random"
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            LedgerEvent::RegionSuggested { intervals, .. } if intervals == &[(0.2, 0.4), (0.7, 0.9)]
        )));
        // And every known line is reproduced byte for byte.
        let rendered: Vec<String> = events.iter().map(LedgerEvent::to_json_line).collect();
        let known: Vec<&str> = text
            .lines()
            .skip(1)
            .filter(|l| !l.contains("future"))
            .collect();
        assert_eq!(rendered, known);
    }

    #[test]
    fn trailing_fields_default_when_absent() {
        let started = LedgerEvent::from_json_line(
            r#"{"type":"trial_started","trial":9,"family":"knn","config":"c"}"#,
        )
        .unwrap()
        .unwrap();
        assert!(matches!(started, LedgerEvent::TrialStarted { params, .. } if params.is_empty()));
        let failed =
            LedgerEvent::from_json_line(r#"{"type":"trial_failed","trial":1,"family":"mlp"}"#)
                .unwrap()
                .unwrap();
        assert!(matches!(failed, LedgerEvent::TrialFailed { reason, .. } if reason == "error"));
        // A round written before `scores` existed still inspects.
        let round = LedgerEvent::from_json_line(
            r#"{"type":"round_completed","round":0,"strategy":"Uniform","acc_mean":0.5,"acc_min":0.5,"acc_max":0.5,"points_added":0,"regions":0,"ale_std_mean":0,"ale_std_max":0}"#,
        )
        .unwrap()
        .unwrap();
        assert!(matches!(round, LedgerEvent::RoundCompleted { scores, .. } if scores.is_empty()));
        // Any other missing field is an error naming it.
        let err =
            LedgerEvent::from_json_line(r#"{"type":"trial_finished","trial":1}"#).unwrap_err();
        assert!(err.contains("'family'"), "{err}");
    }

    #[test]
    fn unknown_types_and_blank_lines_are_skipped() {
        assert_eq!(
            LedgerEvent::from_json_line(r#"{"type":"mystery_event","x":1}"#),
            Ok(None)
        );
        let header = header_line(&RunHeader::default());
        let text = format!(
            "{header}\n\n   \n{{\"type\":\"mystery_event\",\"x\":1}}\n{}\n\n",
            r#"{"type":"trial_failed","trial":3,"family":"mlp","reason":"error"}"#
        );
        let (_, events) = read(&text).unwrap();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn a_torn_line_names_its_line_number() {
        let header = header_line(&RunHeader::default());
        let text = format!(
            "{header}\n{}\n{{\"type\":\"trial_fin",
            r#"{"type":"trial_failed","trial":3,"family":"mlp","reason":"error"}"#
        );
        let err = read(&text).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        let err = read(&format!("{header}\n{{oops")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn wrong_header_or_schema_version_is_rejected() {
        assert_eq!(read("").unwrap_err(), "empty ledger file");
        assert!(read("{\"type\":\"events\"}")
            .unwrap_err()
            .contains("not a ledger header"));
        assert!(read("not json").unwrap_err().starts_with("line 1:"));
        for version in [1, 99] {
            let other = sample_ledger_text().replace(
                "\"schema_version\":2",
                &format!("\"schema_version\":{version}"),
            );
            let err = read(&other).unwrap_err();
            assert!(err.contains(&format!("schema_version {version}")), "{err}");
        }
        let no_seed = header_line(&RunHeader::default()).replace(",\"seed\":0", "");
        assert!(read(&no_seed).unwrap_err().contains("'seed'"));
    }

    #[test]
    fn header_seed_round_trips_above_two_to_the_53() {
        for seed in [0, (1u64 << 53) + 1, u64::MAX] {
            let header = RunHeader {
                run_id: "r".into(),
                workload: "w \"quoted\"".into(),
                seed,
                git: "g".into(),
            };
            let (back, events) = read(&header_line(&header)).unwrap();
            assert_eq!(back.seed, seed);
            assert_eq!(back.workload, header.workload);
            assert!(events.is_empty());
        }
    }

    #[test]
    fn param_values_re_type_from_their_rendering() {
        let v = json::parse("{\"a\":3,\"b\":0.05,\"c\":\"gini\",\"d\":null,\"e\":1e30}").unwrap();
        let obj = v.as_obj().unwrap();
        let typed: Vec<ParamValue> = obj
            .iter()
            .map(|(_, p)| ParamValue::from_json(p).unwrap())
            .collect();
        assert_eq!(typed[0], ParamValue::Int(3));
        assert_eq!(typed[1], ParamValue::Float(0.05));
        assert_eq!(typed[2], ParamValue::Cat("gini".into()));
        assert!(matches!(typed[3], ParamValue::Float(v) if v.is_nan()));
        assert_eq!(typed[4], ParamValue::Float(1e30));
        assert!(ParamValue::from_json(&json::Value::Bool(true)).is_err());
    }

    /// Fails every write; exercises the ledger's drop accounting.
    struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("disk full"))
        }
    }

    #[test]
    fn failed_ledger_writes_count_as_dropped_events() {
        let _guard = crate::test_lock::hold();
        crate::set_level(crate::TelemetryLevel::Summary);
        crate::global().reset();
        // The header line fits in the BufWriter's buffer, so creation
        // succeeds even over a dead writer — same as the event sink.
        let sink =
            LedgerJsonlSink::from_writer(Box::new(FailingWriter), "failing", &RunHeader::default())
                .unwrap();
        // An event larger than the buffer forces a real write — which
        // fails and must be accounted, not silently lost.
        sink.on_ledger_event(&LedgerEvent::TrialFailed {
            trial: 1,
            family: "x".repeat(16 * 1024),
            reason: "error".into(),
        });
        let snap = crate::global().snapshot();
        assert!(
            snap.counters
                .iter()
                .any(|(n, v)| n == "telemetry.events_dropped" && *v >= 1),
            "{:?}",
            snap.counters
        );
        assert!(sink.finish(&snap).is_err(), "flush over a dead writer");
        crate::set_level(crate::TelemetryLevel::Off);
        crate::global().reset();
    }

    #[test]
    fn emit_with_skips_closure_when_inactive() {
        let _guard = crate::test_lock::hold();
        assert!(!active(), "no ledger sink should be installed here");
        let mut ran = false;
        emit_with(|| {
            ran = true;
            LedgerEvent::TrialFailed {
                trial: 0,
                family: "x".into(),
                reason: "error".into(),
            }
        });
        assert!(!ran, "closure must not run without a ledger sink");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use aml_propcheck::prelude::*;
    use aml_propcheck::TestRng;

    /// Integers biased toward the edges that break float-backed parsers.
    fn any_u64(rng: &mut TestRng) -> u64 {
        let small = rng.next_u64() % 1000;
        match rng.next_u64() % 4 {
            0 => small,
            1 => (1u64 << 53) + small,
            2 => u64::MAX - small,
            _ => rng.next_u64(),
        }
    }

    /// Floats covering the writer's special cases: non-finite (written as
    /// `null`), signed zero, integral values, extremes, and random bits.
    fn any_f64(rng: &mut TestRng) -> f64 {
        const SPECIAL: [f64; 12] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.0,
            -3.0,
            1e-7,
            1e20,
            1e300,
            5e-324,
            f64::MAX,
        ];
        match rng.next_u64() % 3 {
            0 => SPECIAL[(rng.next_u64() % SPECIAL.len() as u64) as usize],
            1 => (rng.next_u64() % 100_000) as f64 / 1000.0,
            _ => f64::from_bits(rng.next_u64()),
        }
    }

    /// A balanced accuracy: always finite in `[0, 1]`, often a fraction
    /// with no short decimal form, like 1/3.
    fn any_score(rng: &mut TestRng) -> f64 {
        let den = 1 + rng.next_u64() % 97;
        match rng.next_u64() % 3 {
            0 => 1.0 / 3.0,
            1 => (rng.next_u64() % (den + 1)) as f64 / den as f64,
            _ => (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64,
        }
    }

    /// Short strings over the escaper's interesting characters.
    fn any_string(rng: &mut TestRng) -> String {
        const CHARS: [char; 14] = [
            'a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '😀',
        ];
        let len = rng.next_u64() % 8;
        (0..len)
            .map(|_| CHARS[(rng.next_u64() % CHARS.len() as u64) as usize])
            .collect()
    }

    fn vec_of<T>(rng: &mut TestRng, mut item: impl FnMut(&mut TestRng) -> T) -> Vec<T> {
        let len = rng.next_u64() % 5;
        (0..len).map(|_| item(rng)).collect()
    }

    fn any_param(rng: &mut TestRng) -> ParamValue {
        match rng.next_u64() % 3 {
            0 => ParamValue::Int(rng.next_u64() as i64),
            1 => ParamValue::Float(any_f64(rng)),
            _ => ParamValue::Cat(any_string(rng)),
        }
    }

    /// One event of the given variant, fields drawn at random.
    fn any_event(variant: u64, rng: &mut TestRng) -> LedgerEvent {
        match variant {
            0 => LedgerEvent::TrialStarted {
                trial: any_u64(rng),
                family: any_string(rng),
                config: any_string(rng),
                params: vec_of(rng, |r| (any_string(r), any_param(r))),
            },
            1 => LedgerEvent::TrialFinished {
                trial: any_u64(rng),
                family: any_string(rng),
                score: any_f64(rng),
            },
            2 => LedgerEvent::TrialFailed {
                trial: any_u64(rng),
                family: any_string(rng),
                reason: any_string(rng),
            },
            3 => LedgerEvent::EnsembleSelected {
                val_score: any_f64(rng),
                members: vec_of(rng, |r| EnsembleMember {
                    trial: any_u64(r),
                    family: any_string(r),
                    weight: any_f64(r),
                    score: any_f64(r),
                }),
            },
            4 => LedgerEvent::RoundCompleted {
                round: any_u64(rng),
                strategy: any_string(rng),
                acc_mean: any_f64(rng),
                acc_min: any_f64(rng),
                acc_max: any_f64(rng),
                points_added: any_u64(rng),
                regions: any_u64(rng),
                ale_std_mean: any_f64(rng),
                ale_std_max: any_f64(rng),
                scores: vec_of(rng, any_score),
            },
            5 => LedgerEvent::RegionSuggested {
                feature: any_u64(rng),
                name: any_string(rng),
                threshold: any_f64(rng),
                intervals: vec_of(rng, |r| (any_f64(r), any_f64(r))),
                grid: vec_of(rng, any_f64),
                mean: vec_of(rng, any_f64),
                std: vec_of(rng, any_f64),
            },
            6 => LedgerEvent::SearchSpace {
                families: vec_of(rng, |r| SpaceFamily {
                    family: any_string(r),
                    dims: vec_of(r, |r| SpaceDim {
                        name: any_string(r),
                        kind: any_string(r),
                        scale: any_string(r),
                        lo: any_f64(r),
                        hi: any_f64(r),
                        choices: vec_of(r, any_string),
                    }),
                }),
            },
            7 => LedgerEvent::AleCurveComputed {
                feature: any_u64(rng),
                model: any_string(rng),
                method: any_string(rng),
                grid_points: any_u64(rng),
                rows: any_u64(rng),
            },
            8 => LedgerEvent::DatasetProfile {
                round: any_u64(rng),
                split: any_string(rng),
                rows: any_u64(rng),
                class_counts: vec_of(rng, any_u64),
                features: vec_of(rng, |r| crate::quality::FeatureProfile {
                    name: any_string(r),
                    count: any_u64(r),
                    mean: any_f64(r),
                    std: any_f64(r),
                    min: any_f64(r),
                    max: any_f64(r),
                    log10: r.next_u64() % 2 == 0,
                    lo: any_f64(r),
                    hi: any_f64(r),
                    bins: vec_of(r, any_u64),
                }),
            },
            _ => LedgerEvent::ModelDiagnostics {
                round: any_u64(rng),
                strategy: any_string(rng),
                rows: any_u64(rng),
                classes: vec_of(rng, any_string),
                confusion: vec_of(rng, |r| vec_of(r, any_u64)),
                brier: any_f64(rng),
                bin_count: vec_of(rng, any_u64),
                bin_conf_sum: vec_of(rng, any_f64),
                bin_hit: vec_of(rng, any_u64),
                ale_band_width: any_f64(rng),
            },
        }
    }

    /// One generated event of every variant per case.
    struct EveryVariant;

    impl Strategy for EveryVariant {
        type Value = Vec<LedgerEvent>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<LedgerEvent> {
            (0..10).map(|variant| any_event(variant, rng)).collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The codec is a fixpoint on the writer's output:
        /// `to_json_line(from_json_line(l)) == l` byte for byte, and a
        /// round's scores read back bit for bit (resume reuses them).
        #[test]
        fn prop_ledger_lines_are_a_codec_fixpoint(events in EveryVariant) {
            for event in &events {
                let line = event.to_json_line();
                let back = LedgerEvent::from_json_line(&line)
                    .unwrap_or_else(|e| panic!("{line}: {e}"))
                    .unwrap_or_else(|| panic!("{line}: type not recognized"));
                prop_assert_eq!(back.to_json_line(), line);
                if let (
                    LedgerEvent::RoundCompleted { scores, .. },
                    LedgerEvent::RoundCompleted { scores: read, .. },
                ) = (event, &back)
                {
                    let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(read), bits(scores), "{}", line);
                }
            }
        }
    }
}
