//! Model- & data-quality plane: dataset profiles, drift scores, and
//! calibration/confusion diagnostics.
//!
//! The performance planes (BENCH record, ledger, searchview) watch *how
//! fast* the pipeline runs and *where the search goes*; nobody watches
//! what the model actually learned or whether the data it sees is
//! shifting. This module closes that gap with the same ledger-fold
//! design as [`crate::searchview`]:
//!
//! * **write side** — `aml-core::experiment` computes, once per feedback
//!   round, a [`FeatureProfile`] per feature for the train and eval
//!   splits plus the ensemble's confusion matrix, Brier score, and
//!   10-bin reliability counts, and emits them as two additive ledger
//!   events (`dataset_profile`, `model_diagnostics`). The events carry
//!   only *raw counts and sums*; every derived metric (accuracy,
//!   precision/recall/F1, ECE, PSI) is recomputed on the read side, so
//!   an `amlinspect quality` recompute from the ledger is byte-identical
//!   across worker counts and across resume.
//! * **collector** — a [`QualityCollector`] [`Fold`] keeps a copy of each
//!   quality event; `amlinspect quality` folds the events parsed from a
//!   `ledger.jsonl` through it and renders the pinned-field-order report.
//! * **drift** — [`psi`] scores each feature's histogram against the
//!   previous round's profile. Bins are epsilon-smoothed so an empty bin
//!   can never produce an infinite score.

use crate::json;
use crate::ledger::{Fold, LedgerEvent};
use std::fmt::Write as _;

/// Version stamped into the rendered quality report. Bump
/// only on breaking shape changes; the read side rejects newer versions.
pub const QUALITY_SCHEMA_VERSION: u32 = 1;

/// Histogram resolution cap for feature profiles.
pub const MAX_PROFILE_BINS: usize = 16;

/// Number of confidence bins in the reliability diagram.
pub const RELIABILITY_BINS: usize = 10;

/// A dimension whose domain spans at least this ratio (with a positive
/// lower bound) is binned in log10 space.
const LOG_SCALE_RATIO: f64 = 1e3;

/// Laplace-style smoothing mass added to every bin before computing
/// [`psi`], so empty bins cannot produce `ln(0)` infinities.
const PSI_EPSILON: f64 = 1e-6;

/// Stored quality events are capped so a pathological run cannot grow
/// the store unboundedly; further events count as `dropped`.
const EVENT_CAP: usize = 4096;

/// Per-feature summary of one split: moment statistics plus a fixed
/// equal-width histogram over the feature's *declared* domain (log10
/// space for log-scaled dims), so two profiles of the same feature —
/// across rounds or across runs — always share bin edges and are
/// directly comparable with [`psi`]. For small integer domains the bins
/// degenerate to per-category counts.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureProfile {
    /// Feature name (joins profiles across rounds and runs).
    pub name: String,
    /// Finite observations profiled (non-finite values are skipped).
    pub count: u64,
    /// Mean of the observed values (NaN → `null` when `count == 0`).
    pub mean: f64,
    /// Population standard deviation (NaN → `null` when `count == 0`).
    pub std: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Whether the histogram is binned in log10 space.
    pub log10: bool,
    /// Lower histogram edge (log10 units when [`Self::log10`]).
    pub lo: f64,
    /// Upper histogram edge (log10 units when [`Self::log10`]).
    pub hi: f64,
    /// Equal-width bin counts over `[lo, hi]`; out-of-domain values
    /// clamp into the edge bins.
    pub bins: Vec<u64>,
}

impl FeatureProfile {
    /// Pinned-field-order JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":{},\"count\":{},\"mean\":{},\"std\":{},\"min\":{},\"max\":{},\"log10\":{},\"lo\":{},\"hi\":{},\"bins\":{}}}",
            json::string(&self.name),
            self.count,
            json::num(self.mean),
            json::num(self.std),
            json::num(self.min),
            json::num(self.max),
            self.log10,
            json::num(self.lo),
            json::num(self.hi),
            json::u64_array(&self.bins),
        )
    }

    /// Parse the object [`Self::to_json`] writes (`null` moments read
    /// back as NaN).
    pub fn from_json(v: &json::Value) -> Result<FeatureProfile, String> {
        Ok(FeatureProfile {
            name: v.str_at("name")?.to_string(),
            count: v.u64_at("count")?,
            mean: v.f64_at("mean")?,
            std: v.f64_at("std")?,
            min: v.f64_at("min")?,
            max: v.f64_at("max")?,
            log10: v.bool_at("log10")?,
            lo: v.f64_at("lo")?,
            hi: v.f64_at("hi")?,
            bins: v.u64s_at("bins")?,
        })
    }
}

/// Profile one feature column. `lo`/`hi` are the feature's declared
/// domain bounds (raw units; the log10 transform, when detected, is
/// applied internally). `max_bins` is clamped to
/// `1..=`[`MAX_PROFILE_BINS`] — pass the category count for small
/// integer domains to get per-category counts, or `usize::MAX` for the
/// default resolution. Non-finite values are skipped.
pub fn profile_feature(
    name: &str,
    lo: f64,
    hi: f64,
    max_bins: usize,
    values: &[f64],
) -> FeatureProfile {
    let n_bins = max_bins.clamp(1, MAX_PROFILE_BINS);
    let log10 = lo > 0.0 && hi.is_finite() && lo.is_finite() && hi / lo >= LOG_SCALE_RATIO;
    let (blo, bhi) = if log10 {
        (lo.log10(), hi.log10())
    } else {
        (lo, hi)
    };
    let mut bins = vec![0u64; n_bins];
    let mut count = 0u64;
    let mut sum = 0.0;
    let mut sumsq = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in values {
        if !v.is_finite() {
            continue;
        }
        count += 1;
        sum += v;
        sumsq += v * v;
        min = min.min(v);
        max = max.max(v);
        let t = if log10 {
            v.max(f64::MIN_POSITIVE).log10()
        } else {
            v
        };
        let idx = if bhi > blo && bhi.is_finite() && blo.is_finite() {
            (((t - blo) / (bhi - blo)) * n_bins as f64).floor()
        } else {
            0.0
        };
        let idx = (idx as i64).clamp(0, n_bins as i64 - 1) as usize;
        bins[idx] += 1;
    }
    let (mean, std) = if count > 0 {
        let m = sum / count as f64;
        (m, (sumsq / count as f64 - m * m).max(0.0).sqrt())
    } else {
        (f64::NAN, f64::NAN)
    };
    FeatureProfile {
        name: name.to_string(),
        count,
        mean,
        std,
        min: if count > 0 { min } else { f64::NAN },
        max: if count > 0 { max } else { f64::NAN },
        log10,
        lo: blo,
        hi: bhi,
        bins,
    }
}

/// Population Stability Index between an `expected` (reference) and
/// `observed` histogram over shared bin edges. Bins are smoothed with
/// [`PSI_EPSILON`] mass, so the score is always finite; it is `0`
/// exactly for identical histograms and non-negative otherwise (tiny
/// negative float error is clamped). Histograms of unequal length are
/// compared over the longer length with missing bins read as empty.
pub fn psi(expected: &[u64], observed: &[u64]) -> f64 {
    let n = expected.len().max(observed.len());
    if n == 0 {
        return 0.0;
    }
    let e_total: f64 = expected.iter().map(|&c| c as f64).sum();
    let o_total: f64 = observed.iter().map(|&c| c as f64).sum();
    let smooth_total = PSI_EPSILON * n as f64;
    let mut score = 0.0;
    for i in 0..n {
        let e =
            (expected.get(i).copied().unwrap_or(0) as f64 + PSI_EPSILON) / (e_total + smooth_total);
        let o =
            (observed.get(i).copied().unwrap_or(0) as f64 + PSI_EPSILON) / (o_total + smooth_total);
        if e != o {
            score += (o - e) * (o / e).ln();
        }
    }
    score.max(0.0)
}

/// Expected Calibration Error from raw reliability-bin tallies:
/// `count[b]` predictions fell in confidence bin `b`, their predicted
/// probabilities summing to `conf_sum[b]`, of which `hit[b]` were
/// correct. Empty bins contribute nothing; an empty diagram scores 0.
pub fn ece_from_bins(count: &[u64], conf_sum: &[f64], hit: &[u64]) -> f64 {
    let total: u64 = count.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut ece = 0.0;
    for (b, &c) in count.iter().enumerate() {
        let n = c as f64;
        if n == 0.0 {
            continue;
        }
        let conf = conf_sum.get(b).copied().unwrap_or(0.0) / n;
        let acc = hit.get(b).copied().unwrap_or(0) as f64 / n;
        ece += n / total as f64 * (acc - conf).abs();
    }
    ece
}

/// One feedback round's quality summary, derived from its
/// `model_diagnostics` (and `dataset_profile`) events.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundQuality {
    /// Process-wide round sequence number.
    pub round: u64,
    /// Strategy applied this round.
    pub strategy: String,
    /// Eval rows the diagnostics were computed over.
    pub rows: u64,
    /// Plain accuracy (confusion-matrix trace / total).
    pub accuracy: f64,
    /// Mean recall over classes present in eval.
    pub balanced_accuracy: f64,
    /// Mean F1 over classes present in eval.
    pub macro_f1: f64,
    /// Multiclass Brier score (mean squared probability error).
    pub brier: f64,
    /// Expected Calibration Error over the reliability bins.
    pub ece: f64,
    /// Mean ALE ±σ band width (2σ) over all grid cells; 0 without ALE.
    pub ale_band_width: f64,
    /// Mean per-feature PSI of this round's train profile against the
    /// previous round's; `None` for the first round.
    pub psi_mean: Option<f64>,
    /// Max per-feature PSI against the previous round's profile.
    pub psi_max: Option<f64>,
}

/// Per-class quality of the final round.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassQuality {
    /// Class name.
    pub class: String,
    /// True rows of this class in eval.
    pub support: u64,
    /// tp / predicted; 0 when the class was never predicted.
    pub precision: f64,
    /// tp / support; 0 when the class is absent from eval.
    pub recall: f64,
    /// Harmonic mean of precision and recall; 0 when both are 0.
    pub f1: f64,
}

/// Reliability-diagram data of the final round: per confidence bin, how
/// many predictions landed there, their mean confidence, and their
/// empirical accuracy (`null` for empty bins).
#[derive(Debug, Clone, PartialEq)]
pub struct Reliability {
    /// Predictions per confidence bin.
    pub count: Vec<u64>,
    /// Mean predicted probability per bin (NaN → `null` when empty).
    pub confidence: Vec<f64>,
    /// Empirical accuracy per bin (NaN → `null` when empty).
    pub accuracy: Vec<f64>,
}

/// Full diagnostics of the last completed round.
#[derive(Debug, Clone, PartialEq)]
pub struct FinalDiagnostics {
    /// Round the diagnostics belong to.
    pub round: u64,
    /// Class names, confusion-matrix order.
    pub classes: Vec<String>,
    /// Confusion matrix, `confusion[true][pred]`.
    pub confusion: Vec<Vec<u64>>,
    /// Per-class precision/recall/F1.
    pub per_class: Vec<ClassQuality>,
    /// Reliability-diagram data.
    pub reliability: Reliability,
}

/// One feature's drift score in the report's `drift` section.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureDrift {
    /// Feature name.
    pub name: String,
    /// PSI against the reference; `None` when the reference lacks the
    /// feature or no reference exists.
    pub psi: Option<f64>,
}

/// The drift section: which reference the scores are against, and the
/// latest train profile's per-feature PSI.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// `"previous_round"`, or `"none"` (fewer than two rounds).
    pub reference: String,
    /// Per-feature drift of the latest train profile.
    pub features: Vec<FeatureDrift>,
}

/// One split's profile as carried in the report (the latest round's).
#[derive(Debug, Clone, PartialEq)]
pub struct SplitProfile {
    /// Round the profile was computed in.
    pub round: u64,
    /// Split name (`train` or `eval`).
    pub split: String,
    /// Rows in the split.
    pub rows: u64,
    /// Rows per class (class balance), class-index order.
    pub class_counts: Vec<u64>,
    /// Per-feature summaries.
    pub features: Vec<FeatureProfile>,
}

impl SplitProfile {
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"round\":{},\"split\":{},\"rows\":{},\"class_counts\":{},\"features\":[",
            self.round,
            json::string(&self.split),
            self.rows,
            json::u64_array(&self.class_counts),
        );
        for (i, f) in self.features.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&f.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// The full quality report: per-round series, final-round diagnostics,
/// drift scores, and the latest profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// Report shape version ([`QUALITY_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// One entry per feedback round with diagnostics, round order.
    pub rounds: Vec<RoundQuality>,
    /// Diagnostics of the last round; `None` when no round completed.
    pub final_diag: Option<FinalDiagnostics>,
    /// Drift of the latest train profile against the reference.
    pub drift: DriftReport,
    /// The latest round's split profiles (train first, then eval).
    pub profiles: Vec<SplitProfile>,
    /// Quality events discarded after the collector cap was hit.
    pub dropped: u64,
}

impl QualityReport {
    /// Render the pinned-field-order JSON document (trailing newline
    /// included), as `amlinspect quality --json` prints it.
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"active\":true,\"schema_version\":{},\"rounds\":[",
            self.schema_version
        );
        for (i, r) in self.rounds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"round\":{},\"strategy\":{},\"rows\":{},\"accuracy\":{},\"balanced_accuracy\":{},\"macro_f1\":{},\"brier\":{},\"ece\":{},\"ale_band_width\":{},\"psi_mean\":{},\"psi_max\":{}}}",
                r.round,
                json::string(&r.strategy),
                r.rows,
                json::num(r.accuracy),
                json::num(r.balanced_accuracy),
                json::num(r.macro_f1),
                json::num(r.brier),
                json::num(r.ece),
                json::num(r.ale_band_width),
                json::num(r.psi_mean.unwrap_or(f64::NAN)),
                json::num(r.psi_max.unwrap_or(f64::NAN)),
            );
        }
        out.push_str("],\"final\":");
        match &self.final_diag {
            None => out.push_str("null"),
            Some(d) => {
                let _ = write!(out, "{{\"round\":{},\"classes\":[", d.round);
                for (i, c) in d.classes.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json::string(c));
                }
                out.push_str("],\"confusion\":[");
                for (i, row) in d.confusion.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json::u64_array(row));
                }
                out.push_str("],\"per_class\":[");
                for (i, c) in d.per_class.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"class\":{},\"support\":{},\"precision\":{},\"recall\":{},\"f1\":{}}}",
                        json::string(&c.class),
                        c.support,
                        json::num(c.precision),
                        json::num(c.recall),
                        json::num(c.f1),
                    );
                }
                let _ = write!(
                    out,
                    "],\"reliability\":{{\"count\":{},\"confidence\":{},\"accuracy\":{}}}}}",
                    json::u64_array(&d.reliability.count),
                    json::f64_array(&d.reliability.confidence),
                    json::f64_array(&d.reliability.accuracy),
                );
            }
        }
        let _ = write!(
            out,
            ",\"drift\":{{\"reference\":{},\"features\":[",
            json::string(&self.drift.reference)
        );
        for (i, f) in self.drift.features.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"psi\":{}}}",
                json::string(&f.name),
                json::num(f.psi.unwrap_or(f64::NAN)),
            );
        }
        out.push_str("]},\"profiles\":[");
        for (i, p) in self.profiles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&p.to_json());
        }
        let _ = writeln!(out, "],\"dropped\":{}}}", self.dropped);
        out
    }

    /// Human-readable summary table (round series, final confusion
    /// matrix, drift scores).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "model quality — {} round(s)", self.rounds.len());
        if !self.rounds.is_empty() {
            let _ = writeln!(
                out,
                "{:>5}  {:<14} {:>6}  {:>7}  {:>7}  {:>7}  {:>7}  {:>7}  {:>8}",
                "round", "strategy", "rows", "acc", "bal_acc", "f1", "brier", "ece", "psi_mean"
            );
            for r in &self.rounds {
                let _ = writeln!(
                    out,
                    "{:>5}  {:<14} {:>6}  {:>7.4}  {:>7.4}  {:>7.4}  {:>7.4}  {:>7.4}  {:>8}",
                    r.round,
                    r.strategy,
                    r.rows,
                    r.accuracy,
                    r.balanced_accuracy,
                    r.macro_f1,
                    r.brier,
                    r.ece,
                    r.psi_mean.map_or("-".to_string(), |p| format!("{p:.4}")),
                );
            }
        }
        if let Some(d) = &self.final_diag {
            let _ = writeln!(out, "confusion (round {}; rows = true class):", d.round);
            let name_w = d.classes.iter().map(String::len).max().unwrap_or(4).max(4);
            let mut header = format!("  {:>name_w$}", "");
            for c in &d.classes {
                let _ = write!(header, "  {c:>name_w$}");
            }
            let _ = writeln!(out, "{header}");
            for (i, row) in d.confusion.iter().enumerate() {
                let mut line = format!(
                    "  {:>name_w$}",
                    d.classes.get(i).map_or("?", String::as_str)
                );
                for v in row {
                    let _ = write!(line, "  {v:>name_w$}");
                }
                let _ = writeln!(out, "{line}");
            }
            for c in &d.per_class {
                let _ = writeln!(
                    out,
                    "  class {:<10} support {:>6}  precision {:.4}  recall {:.4}  f1 {:.4}",
                    c.class, c.support, c.precision, c.recall, c.f1,
                );
            }
        }
        if !self.drift.features.is_empty() {
            let _ = writeln!(out, "drift vs {}:", self.drift.reference);
            for f in &self.drift.features {
                let _ = writeln!(
                    out,
                    "  {:<20} psi {}",
                    f.name,
                    f.psi.map_or("-".to_string(), |p| format!("{p:.4}")),
                );
            }
        }
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "({} quality event(s) dropped at the store cap)",
                self.dropped
            );
        }
        out
    }
}

/// Derive accuracy, balanced accuracy, macro F1, and per-class PRF1
/// from a confusion matrix. All divisions are guarded: an empty eval
/// split or an absent class yields 0, never NaN.
pub fn confusion_quality(
    classes: &[String],
    confusion: &[Vec<u64>],
) -> (f64, f64, f64, Vec<ClassQuality>) {
    let k = confusion.len();
    let total: u64 = confusion.iter().flat_map(|r| r.iter()).sum();
    let correct: u64 = (0..k)
        .map(|i| confusion[i].get(i).copied().unwrap_or(0))
        .sum();
    let accuracy = if total > 0 {
        correct as f64 / total as f64
    } else {
        0.0
    };
    let mut per_class = Vec::with_capacity(k);
    let mut recall_sum = 0.0;
    let mut f1_sum = 0.0;
    let mut present = 0u64;
    for i in 0..k {
        let support: u64 = confusion[i].iter().sum();
        let predicted: u64 = confusion
            .iter()
            .map(|r| r.get(i).copied().unwrap_or(0))
            .sum();
        let tp = confusion[i].get(i).copied().unwrap_or(0) as f64;
        let precision = if predicted > 0 {
            tp / predicted as f64
        } else {
            0.0
        };
        let recall = if support > 0 {
            tp / support as f64
        } else {
            0.0
        };
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        if support > 0 {
            present += 1;
            recall_sum += recall;
            f1_sum += f1;
        }
        per_class.push(ClassQuality {
            class: classes
                .get(i)
                .cloned()
                .unwrap_or_else(|| format!("class{i}")),
            support,
            precision,
            recall,
            f1,
        });
    }
    let balanced = if present > 0 {
        recall_sum / present as f64
    } else {
        0.0
    };
    let macro_f1 = if present > 0 {
        f1_sum / present as f64
    } else {
        0.0
    };
    (accuracy, balanced, macro_f1, per_class)
}

fn split_rank(split: &str) -> u8 {
    match split {
        "train" => 0,
        "eval" => 1,
        _ => 2,
    }
}

/// Pure reduction: build the [`QualityReport`] from quality ledger
/// events (`DatasetProfile` / `ModelDiagnostics`; other variants are
/// ignored). Events are canonically sorted first, so the result is
/// independent of arrival order — the same 1-vs-N-worker identity
/// contract the ledger itself keeps.
pub fn report_from_events<'a, I>(events: I, dropped: u64) -> QualityReport
where
    I: IntoIterator<Item = &'a LedgerEvent>,
{
    // One model_diagnostics event's payload, in field order.
    type DiagTuple = (
        u64,
        String,
        u64,
        Vec<String>,
        Vec<Vec<u64>>,
        f64,
        Vec<u64>,
        Vec<f64>,
        Vec<u64>,
        f64,
    );
    let mut profiles: Vec<SplitProfile> = Vec::new();
    let mut diags: Vec<DiagTuple> = Vec::new();
    for event in events {
        match event {
            LedgerEvent::DatasetProfile {
                round,
                split,
                rows,
                class_counts,
                features,
            } => profiles.push(SplitProfile {
                round: *round,
                split: split.clone(),
                rows: *rows,
                class_counts: class_counts.clone(),
                features: features.clone(),
            }),
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
            } => diags.push((
                *round,
                strategy.clone(),
                *rows,
                classes.clone(),
                confusion.clone(),
                *brier,
                bin_count.clone(),
                bin_conf_sum.clone(),
                bin_hit.clone(),
                *ale_band_width,
            )),
            _ => {}
        }
    }
    profiles.sort_by(|a, b| {
        (a.round, split_rank(&a.split), a.split.as_str()).cmp(&(
            b.round,
            split_rank(&b.split),
            b.split.as_str(),
        ))
    });
    // Last write wins for a duplicated (round, split) pair.
    profiles.dedup_by(|b, a| {
        if a.round == b.round && a.split == b.split {
            std::mem::swap(a, b);
            true
        } else {
            false
        }
    });
    diags.sort_by_key(|d| d.0);
    diags.dedup_by(|b, a| {
        if a.0 == b.0 {
            std::mem::swap(a, b);
            true
        } else {
            false
        }
    });

    let train_profiles: Vec<&SplitProfile> =
        profiles.iter().filter(|p| p.split == "train").collect();
    let psi_against = |round: u64| -> Option<Vec<FeatureDrift>> {
        let pos = train_profiles.iter().position(|p| p.round == round)?;
        let current = train_profiles[pos];
        if pos == 0 {
            return None;
        }
        let reference_features = &train_profiles[pos - 1].features;
        Some(
            current
                .features
                .iter()
                .map(|f| FeatureDrift {
                    name: f.name.clone(),
                    psi: reference_features
                        .iter()
                        .find(|r| r.name == f.name)
                        .map(|r| psi(&r.bins, &f.bins)),
                })
                .collect(),
        )
    };

    let rounds: Vec<RoundQuality> = diags
        .iter()
        .map(
            |(
                round,
                strategy,
                rows,
                classes,
                confusion,
                brier,
                bin_count,
                bin_conf_sum,
                bin_hit,
                band,
            )| {
                let (accuracy, balanced, macro_f1, _) = confusion_quality(classes, confusion);
                let drift = psi_against(*round);
                let scores: Vec<f64> = drift.iter().flatten().filter_map(|f| f.psi).collect();
                let (psi_mean, psi_max) = if scores.is_empty() {
                    (None, None)
                } else {
                    (
                        Some(scores.iter().sum::<f64>() / scores.len() as f64),
                        Some(scores.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
                    )
                };
                RoundQuality {
                    round: *round,
                    strategy: strategy.clone(),
                    rows: *rows,
                    accuracy,
                    balanced_accuracy: balanced,
                    macro_f1,
                    brier: *brier,
                    ece: ece_from_bins(bin_count, bin_conf_sum, bin_hit),
                    ale_band_width: *band,
                    psi_mean,
                    psi_max,
                }
            },
        )
        .collect();

    let final_diag = diags.last().map(
        |(round, _, _, classes, confusion, _, bin_count, bin_conf_sum, bin_hit, _)| {
            let (_, _, _, per_class) = confusion_quality(classes, confusion);
            let confidence: Vec<f64> = bin_count
                .iter()
                .zip(bin_conf_sum)
                .map(|(&n, &s)| if n > 0 { s / n as f64 } else { f64::NAN })
                .collect();
            let accuracy: Vec<f64> = bin_count
                .iter()
                .zip(bin_hit)
                .map(|(&n, &h)| if n > 0 { h as f64 / n as f64 } else { f64::NAN })
                .collect();
            FinalDiagnostics {
                round: *round,
                classes: classes.clone(),
                confusion: confusion.clone(),
                per_class,
                reliability: Reliability {
                    count: bin_count.clone(),
                    confidence,
                    accuracy,
                },
            }
        },
    );

    let last_round = profiles.iter().map(|p| p.round).max();
    let latest_profiles: Vec<SplitProfile> = match last_round {
        Some(r) => profiles.iter().filter(|p| p.round == r).cloned().collect(),
        None => Vec::new(),
    };
    let drift = match last_round.and_then(psi_against) {
        Some(features) => DriftReport {
            reference: "previous_round".to_string(),
            features,
        },
        None => DriftReport {
            reference: "none".to_string(),
            features: Vec::new(),
        },
    };

    QualityReport {
        schema_version: QUALITY_SCHEMA_VERSION,
        rounds,
        final_diag,
        drift,
        profiles: latest_profiles,
        dropped,
    }
}

// ---------------------------------------------------------------------
// Collector (the ledger fold behind `amlinspect quality`)
// ---------------------------------------------------------------------

/// The quality collector: a copy of each quality event (capped at
/// `EVENT_CAP`, later events count as dropped).
#[derive(Debug, Clone, Default)]
pub struct QualityCollector {
    events: Vec<LedgerEvent>,
    dropped: u64,
}

impl QualityCollector {
    /// Reduce the recorded events into a [`QualityReport`].
    pub fn report(&self) -> QualityReport {
        report_from_events(&self.events, self.dropped)
    }
}

impl Fold for QualityCollector {
    /// Records quality events (`dataset_profile`, `model_diagnostics`);
    /// other events are ignored.
    fn observe(&mut self, event: &LedgerEvent) {
        if !matches!(
            event,
            LedgerEvent::DatasetProfile { .. } | LedgerEvent::ModelDiagnostics { .. }
        ) {
            return;
        }
        if self.events.len() >= EVENT_CAP {
            self.dropped += 1;
        } else {
            self.events.push(event.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_event(round: u64, split: &str, values: &[f64]) -> LedgerEvent {
        LedgerEvent::DatasetProfile {
            round,
            split: split.to_string(),
            rows: values.len() as u64,
            class_counts: vec![
                values.len() as u64 / 2,
                values.len() as u64 - values.len() as u64 / 2,
            ],
            features: vec![profile_feature("loss", 0.0, 1.0, 4, values)],
        }
    }

    fn diag_event(round: u64, acc_rows: u64) -> LedgerEvent {
        LedgerEvent::ModelDiagnostics {
            round,
            strategy: "Within-ALE".to_string(),
            rows: acc_rows,
            classes: vec!["ok".to_string(), "bad".to_string()],
            confusion: vec![vec![acc_rows / 2, 1], vec![1, acc_rows / 2 - 2]],
            brier: 0.25,
            bin_count: vec![0, 0, 0, 0, 0, 0, 0, 2, 3, 5],
            bin_conf_sum: vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.5, 2.55, 4.75],
            bin_hit: vec![0, 0, 0, 0, 0, 0, 0, 1, 3, 5],
            ale_band_width: 0.125,
        }
    }

    #[test]
    fn psi_is_zero_for_identical_and_positive_for_shifted() {
        assert_eq!(psi(&[10, 20, 30], &[10, 20, 30]), 0.0);
        assert_eq!(psi(&[0, 0, 0], &[0, 0, 0]), 0.0);
        assert_eq!(psi(&[], &[]), 0.0);
        let shifted = psi(&[30, 20, 10], &[10, 20, 30]);
        assert!(shifted > 0.0 && shifted.is_finite(), "{shifted}");
    }

    #[test]
    fn psi_is_finite_under_adversarial_histograms() {
        // Empty vs populated, single-bin, disjoint support, and
        // length-mismatched histograms must all stay finite and ≥ 0.
        for (e, o) in [
            (vec![], vec![5u64]),
            (vec![0u64], vec![1_000_000]),
            (vec![1_000_000, 0], vec![0, 1_000_000]),
            (vec![1], vec![0, 0, 0, 7]),
        ] {
            let score = psi(&e, &o);
            assert!(
                score.is_finite() && score >= 0.0,
                "{e:?} vs {o:?} -> {score}"
            );
        }
    }

    #[test]
    fn profile_feature_bins_and_moments() {
        let p = profile_feature("x", 0.0, 1.0, 4, &[0.1, 0.1, 0.6, 0.9, 2.5, f64::NAN]);
        assert_eq!(p.count, 5); // NaN skipped
        assert_eq!(p.bins, vec![2, 0, 1, 2]); // 2.5 clamps into the top bin
        assert!(!p.log10);
        assert_eq!(p.min, 0.1);
        assert_eq!(p.max, 2.5);
        assert!((p.mean - 0.84).abs() < 1e-12, "{}", p.mean);
    }

    #[test]
    fn wide_positive_domains_bin_in_log10_space() {
        let p = profile_feature("rate", 1.0, 1e6, 6, &[1.0, 10.0, 100.0, 1e3, 1e4, 1e5]);
        assert!(p.log10);
        assert_eq!(p.lo, 0.0);
        assert_eq!(p.hi, 6.0);
        assert_eq!(p.bins, vec![1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn empty_column_profiles_to_null_moments() {
        let p = profile_feature("x", 0.0, 1.0, 4, &[]);
        assert_eq!(p.count, 0);
        assert!(p.mean.is_nan() && p.std.is_nan() && p.min.is_nan() && p.max.is_nan());
        assert_eq!(p.bins, vec![0, 0, 0, 0]);
        assert!(p.to_json().contains("\"mean\":null"));
    }

    #[test]
    fn degenerate_domain_puts_everything_in_bin_zero() {
        let p = profile_feature("k", 3.0, 3.0, 4, &[3.0, 3.0, 3.0]);
        assert_eq!(p.bins, vec![3, 0, 0, 0]);
    }

    #[test]
    fn ece_matches_hand_computation_and_guards_empty() {
        assert_eq!(ece_from_bins(&[], &[], &[]), 0.0);
        assert_eq!(ece_from_bins(&[0, 0], &[0.0, 0.0], &[0, 0]), 0.0);
        // One bin: 4 predictions at mean conf 0.8, 3 correct → |0.75-0.8|.
        let ece = ece_from_bins(&[4], &[3.2], &[3]);
        assert!((ece - 0.05).abs() < 1e-12, "{ece}");
    }

    #[test]
    fn confusion_quality_guards_absent_classes_and_empty_eval() {
        let classes = vec!["a".to_string(), "b".to_string()];
        // Class b absent from eval and never predicted: all zeros, no NaN.
        let (acc, bal, f1, per) = confusion_quality(&classes, &[vec![5, 0], vec![0, 0]]);
        assert_eq!(acc, 1.0);
        assert_eq!(bal, 1.0);
        assert_eq!(f1, 1.0);
        assert_eq!(per[1].support, 0);
        assert_eq!(
            (per[1].precision, per[1].recall, per[1].f1),
            (0.0, 0.0, 0.0)
        );
        // Empty eval split: everything 0, never NaN.
        let (acc, bal, f1, per) = confusion_quality(&classes, &[vec![0, 0], vec![0, 0]]);
        assert_eq!((acc, bal, f1), (0.0, 0.0, 0.0));
        assert!(per
            .iter()
            .all(|c| c.precision == 0.0 && c.recall == 0.0 && c.f1 == 0.0));
    }

    #[test]
    fn report_orders_rounds_and_scores_drift_against_previous_round() {
        // Arrival order scrambled: the reduction must sort.
        let events = vec![
            diag_event(1, 20),
            profile_event(1, "train", &[0.9, 0.9, 0.9, 0.8]),
            profile_event(0, "eval", &[0.2, 0.6]),
            diag_event(0, 20),
            profile_event(0, "train", &[0.1, 0.2, 0.3, 0.4]),
            profile_event(1, "eval", &[0.2, 0.6]),
        ];
        let report = report_from_events(&events, 0);
        assert_eq!(report.rounds.len(), 2);
        assert_eq!(report.rounds[0].round, 0);
        assert_eq!(
            report.rounds[0].psi_mean, None,
            "no reference before round 1"
        );
        let psi1 = report.rounds[1]
            .psi_mean
            .expect("round 1 drifts vs round 0");
        assert!(psi1 > 0.0 && psi1.is_finite());
        assert_eq!(report.drift.reference, "previous_round");
        assert_eq!(report.profiles.len(), 2);
        assert_eq!(report.profiles[0].split, "train");
        assert_eq!(report.profiles[1].split, "eval");
        // Shuffled arrival renders byte-identically.
        let mut reversed = events.clone();
        reversed.reverse();
        assert_eq!(
            report.render_json(),
            report_from_events(&reversed, 0).render_json()
        );
    }

    #[test]
    fn json_rendering_is_byte_pinned() {
        let report = QualityReport {
            schema_version: 1,
            rounds: vec![RoundQuality {
                round: 0,
                strategy: "Random".to_string(),
                rows: 4,
                accuracy: 0.75,
                balanced_accuracy: 0.75,
                macro_f1: 0.75,
                brier: 0.5,
                ece: 0.25,
                ale_band_width: 0.125,
                psi_mean: None,
                psi_max: None,
            }],
            final_diag: Some(FinalDiagnostics {
                round: 0,
                classes: vec!["ok".to_string(), "bad".to_string()],
                confusion: vec![vec![2, 1], vec![0, 1]],
                per_class: vec![ClassQuality {
                    class: "ok".to_string(),
                    support: 3,
                    precision: 1.0,
                    recall: 0.5,
                    f1: 0.625,
                }],
                reliability: Reliability {
                    count: vec![0, 4],
                    confidence: vec![f64::NAN, 0.75],
                    accuracy: vec![f64::NAN, 0.75],
                },
            }),
            drift: DriftReport {
                reference: "previous_round".to_string(),
                features: vec![FeatureDrift {
                    name: "loss".to_string(),
                    psi: Some(0.125),
                }],
            },
            profiles: vec![SplitProfile {
                round: 0,
                split: "train".to_string(),
                rows: 2,
                class_counts: vec![1, 1],
                features: vec![FeatureProfile {
                    name: "loss".to_string(),
                    count: 2,
                    mean: 0.5,
                    std: 0.25,
                    min: 0.25,
                    max: 0.75,
                    log10: false,
                    lo: 0.0,
                    hi: 1.0,
                    bins: vec![1, 1],
                }],
            }],
            dropped: 0,
        };
        assert_eq!(
            report.render_json(),
            concat!(
                "{\"active\":true,\"schema_version\":1,",
                "\"rounds\":[{\"round\":0,\"strategy\":\"Random\",\"rows\":4,",
                "\"accuracy\":0.75,\"balanced_accuracy\":0.75,\"macro_f1\":0.75,",
                "\"brier\":0.5,\"ece\":0.25,\"ale_band_width\":0.125,",
                "\"psi_mean\":null,\"psi_max\":null}],",
                "\"final\":{\"round\":0,\"classes\":[\"ok\",\"bad\"],",
                "\"confusion\":[[2,1],[0,1]],",
                "\"per_class\":[{\"class\":\"ok\",\"support\":3,\"precision\":1,",
                "\"recall\":0.5,\"f1\":0.625}],",
                "\"reliability\":{\"count\":[0,4],\"confidence\":[null,0.75],",
                "\"accuracy\":[null,0.75]}},",
                "\"drift\":{\"reference\":\"previous_round\",",
                "\"features\":[{\"name\":\"loss\",\"psi\":0.125}]},",
                "\"profiles\":[{\"round\":0,\"split\":\"train\",\"rows\":2,",
                "\"class_counts\":[1,1],\"features\":[{\"name\":\"loss\",\"count\":2,",
                "\"mean\":0.5,\"std\":0.25,\"min\":0.25,\"max\":0.75,\"log10\":false,",
                "\"lo\":0,\"hi\":1,\"bins\":[1,1]}]}],",
                "\"dropped\":0}\n",
            )
        );
        // The table renders without panicking and mentions the strategy.
        assert!(report.render_table().contains("Random"));
    }

    #[test]
    fn collector_keeps_only_quality_events() {
        let events = [
            profile_event(0, "train", &[0.1, 0.9]),
            diag_event(0, 20),
            // Non-quality events are ignored.
            LedgerEvent::TrialFinished {
                trial: 0,
                rung: 0,
                family: "forest".to_string(),
                score: 0.5,
            },
        ];
        let c = QualityCollector::from_events(&events);
        assert_eq!(c.events.len(), 2);
        let report = c.report();
        assert_eq!(report.rounds.len(), 1);
        assert_eq!(report.profiles.len(), 1);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn store_cap_counts_dropped_events() {
        let events = vec![diag_event(0, 20); EVENT_CAP + 3];
        let report = QualityCollector::from_events(&events).report();
        assert_eq!(report.dropped, 3);
        assert!(report.render_json().contains("\"dropped\":3"));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use aml_propcheck::prelude::*;

    proptest! {
        /// PSI is finite and non-negative for any pair of histograms,
        /// including empty bins, all-zero histograms, mismatched
        /// lengths, and counts spanning the full u64 magnitude range.
        #[test]
        fn prop_psi_is_finite_and_non_negative(
            expected in aml_propcheck::collection::vec((0u64..65, 0u64..u64::MAX), 0..24),
            observed in aml_propcheck::collection::vec((0u64..65, 0u64..u64::MAX), 0..24)
        ) {
            // Shift mantissas down so bins cover every magnitude,
            // including zero (shift 64) and full u64 (shift 0).
            let shift = |raw: &[(u64, u64)]| -> Vec<u64> {
                raw.iter()
                    .map(|&(s, m)| if s >= 64 { 0 } else { m >> s })
                    .collect()
            };
            let e = shift(&expected);
            let o = shift(&observed);
            let score = psi(&e, &o);
            prop_assert!(score.is_finite(), "psi({e:?}, {o:?}) = {score}");
            prop_assert!(score >= 0.0, "psi({e:?}, {o:?}) = {score}");
        }

        /// PSI of a histogram against itself is exactly 0: every bin's
        /// smoothed proportions are equal, so no term contributes.
        #[test]
        fn prop_psi_of_identical_histograms_is_zero(
            hist in aml_propcheck::collection::vec(0u64..1_000_000, 0..24)
        ) {
            prop_assert_eq!(psi(&hist, &hist), 0.0);
        }

        /// Concentrating all mass in a different bin than the reference
        /// always registers as drift (strictly positive PSI).
        #[test]
        fn prop_psi_detects_disjoint_mass(
            bins in 2usize..16,
            a in 0usize..16,
            b in 0usize..16,
            mass in 1u64..1_000_000
        ) {
            let (a, b) = (a % bins, b % bins);
            prop_assume!(a != b);
            let mut e = vec![0u64; bins];
            let mut o = vec![0u64; bins];
            e[a] = mass;
            o[b] = mass;
            prop_assert!(psi(&e, &o) > 0.0, "disjoint mass scored 0");
        }
    }
}
