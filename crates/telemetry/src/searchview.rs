//! Search-space observability: coverage and hyperparameter importance
//! over the structured trial telemetry.
//!
//! The ledger records *what* the search tried; this module answers the
//! questions a non-ML expert asks of an AutoML system (ATMSeer's
//! thesis): which part of the declared space was actually visited, how
//! many fits finished or failed, and which hyperparameters the scores
//! actually depended on.
//!
//! ## Data flow
//!
//! A [`SearchCollector`] keeps the declared [`SpaceFamily`] descriptors
//! (from the once-per-run `search_space` event) plus one [`TrialRec`]
//! per `trial_started`, settled by the matching `trial_finished` /
//! `trial_failed` line. It is a [`Fold`]: `amlinspect search` folds the
//! events parsed from a `ledger.jsonl` through it. [`analyze`] is pure
//! and order-independent: it sorts the records by content first, so the
//! report is byte-identical whether the search ran on 1 or N workers —
//! the same determinism contract as `crit.json`.
//!
//! ## Analytics
//!
//! - **Coverage**: per dimension, the declared range is split into
//!   equal-width bins (equal-width in log10-space for `log10` dims; one
//!   bin per category for `cat` dims) and each start marks its bin
//!   visited. Coverage is the visited-bin fraction.
//! - **Importance (fANOVA-lite)**: per configuration, the *observation*
//!   is the mean of its finished scores (a configuration recurs when
//!   several searches share a seed). Per dimension, observations are
//!   binned as for coverage, and importance is the between-bin variance
//!   fraction `Vb / V` — the share of score variance the dimension
//!   explains on its own. Deterministic, no external deps.
//!
//! Rendered two ways: [`SearchReport::render_json`] (pinned field
//! order, printed by `amlinspect search --json`) and
//! [`SearchReport::render_table`] (the `amlinspect search` summary).

use crate::json;
use crate::ledger::{Fold, LedgerEvent, ParamValue, SpaceDim, SpaceFamily};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema version stamped into `search.json`.
pub const SEARCH_SCHEMA_VERSION: u32 = 2;

/// Retained trial records before the collector starts counting drops —
/// ~64k records is two orders of magnitude above a full table-1 run.
pub const TRIAL_CAP: usize = 65_536;

/// Scatter points kept per dimension in the rendered report (the
/// analytics always use every observation; only the plot payload is
/// thinned, by a deterministic stride).
const POINT_CAP: usize = 256;

/// Maximum bins for a numeric dimension's coverage histogram.
const MAX_BINS: usize = 8;

/// One trial fit as observed from the ledger: a `trial_started` line,
/// settled by the matching `trial_finished` (score) or `trial_failed`
/// (reason) line.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRec {
    /// Stable trial id (the sequential sampling index).
    pub trial: u64,
    /// Model family name.
    pub family: String,
    /// Typed hyperparameters in declared dimension order.
    pub params: Vec<(String, ParamValue)>,
    /// Validation score, when the fit finished.
    pub score: Option<f64>,
    /// Failure reason, when the fit failed.
    pub failed: Option<String>,
}

/// The search collector: the declared space plus one [`TrialRec`] per
/// `trial_started` event, settled by the matching outcome event. Past
/// [`TRIAL_CAP`] starts it counts drops instead of growing.
#[derive(Debug, Clone, Default)]
pub struct SearchCollector {
    space: Vec<SpaceFamily>,
    trials: Vec<TrialRec>,
    dropped: u64,
}

impl SearchCollector {
    /// Settle the most recent unsettled record for `(trial, family)`.
    /// Trial ids repeat across the many searches of one run, so matching
    /// from the back pairs each outcome with its own start.
    fn settle(&mut self, trial: u64, family: &str, score: Option<f64>, failed: Option<String>) {
        if let Some(rec) = self.trials.iter_mut().rev().find(|r| {
            r.trial == trial && r.family == family && r.score.is_none() && r.failed.is_none()
        }) {
            rec.score = score;
            rec.failed = failed;
        }
    }

    /// Analyze the collected records.
    pub fn report(&self) -> SearchReport {
        analyze(&self.space, &self.trials, self.dropped)
    }
}

impl Fold for SearchCollector {
    /// Non-search events are ignored. The first `search_space` event wins
    /// (a resumed run that re-emitted keeps the original), and starts
    /// past [`TRIAL_CAP`] count as dropped.
    fn observe(&mut self, event: &LedgerEvent) {
        match event {
            LedgerEvent::SearchSpace { families } if self.space.is_empty() => {
                self.space = families.clone();
            }
            LedgerEvent::TrialStarted {
                trial,
                family,
                params,
                ..
            } => {
                if self.trials.len() >= TRIAL_CAP {
                    self.dropped += 1;
                } else {
                    self.trials.push(TrialRec {
                        trial: *trial,
                        family: family.clone(),
                        params: params.clone(),
                        score: None,
                        failed: None,
                    });
                }
            }
            LedgerEvent::TrialFinished {
                trial,
                family,
                score,
            } => self.settle(*trial, family, Some(*score), None),
            LedgerEvent::TrialFailed {
                trial,
                family,
                reason,
            } => self.settle(*trial, family, None, Some(reason.clone())),
            _ => {}
        }
    }
}

/// Coverage + importance for one declared hyperparameter dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct DimReport {
    /// Dimension name.
    pub name: String,
    /// `int`, `float`, or `cat`.
    pub kind: String,
    /// `linear` or `log10`.
    pub scale: String,
    /// Declared lower bound (0 for `cat`).
    pub lo: f64,
    /// Declared upper bound (0 for `cat`).
    pub hi: f64,
    /// Declared category tags (empty for numeric dims).
    pub choices: Vec<String>,
    /// Number of coverage bins.
    pub bins: usize,
    /// Start count per bin.
    pub hist: Vec<u64>,
    /// Bins with at least one visit.
    pub visited: usize,
    /// `visited / bins`.
    pub coverage: f64,
    /// fANOVA-lite importance: between-bin variance fraction of the
    /// configuration scores, in `[0, 1]`; 0 when under 2 observations or the
    /// scores are constant.
    pub importance: f64,
    /// `(normalized position, configuration score)` scatter, thinned to
    /// `POINT_CAP` (256) points by a deterministic stride.
    pub points: Vec<(f64, f64)>,
}

/// Search observability for one model family.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyReport {
    /// Family name.
    pub family: String,
    /// Distinct sampled configurations.
    pub configs: u64,
    /// Total fits (one per `trial_started` line).
    pub fits: u64,
    /// Failed fits.
    pub failed: u64,
    /// Best configuration score, when any configuration finished.
    pub best_score: Option<f64>,
    /// Mean configuration score over finished configurations.
    pub mean_score: Option<f64>,
    /// Per-dimension coverage and importance, in declared order.
    pub dims: Vec<DimReport>,
}

/// The full search-observability report.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// Total fits started.
    pub started: u64,
    /// Total fits finished with a score.
    pub finished: u64,
    /// Total fits failed.
    pub failed: u64,
    /// Per-family breakdown: declared families in declaration order,
    /// then any undeclared family seen in the trials, by name.
    pub families: Vec<FamilyReport>,
    /// Trial records dropped at the collection cap.
    pub dropped: u64,
}

/// Numeric view of a parameter value under its declared dimension:
/// `cat` tags map to their choice index.
fn param_num(dim: &SpaceDim, value: &ParamValue) -> Option<f64> {
    match value {
        ParamValue::Int(v) => Some(*v as f64),
        ParamValue::Float(v) => v.is_finite().then_some(*v),
        ParamValue::Cat(tag) => dim.choices.iter().position(|c| c == tag).map(|i| i as f64),
    }
}

fn dim_bins(dim: &SpaceDim) -> usize {
    match dim.kind.as_str() {
        "cat" => dim.choices.len().max(1),
        "int" => (((dim.hi - dim.lo).round() as i64 + 1).max(1) as usize).min(MAX_BINS),
        _ => MAX_BINS,
    }
}

/// Normalized position of `v` in the dimension's declared range,
/// clamped to `[0, 1]`. Category indices land at their bin centers.
fn norm_pos(dim: &SpaceDim, v: f64, bins: usize) -> f64 {
    let t = if dim.kind == "cat" {
        (v + 0.5) / bins as f64
    } else if dim.scale == "log10" && dim.lo > 0.0 && dim.hi > dim.lo && v > 0.0 {
        (v.log10() - dim.lo.log10()) / (dim.hi.log10() - dim.lo.log10())
    } else if dim.hi > dim.lo {
        (v - dim.lo) / (dim.hi - dim.lo)
    } else {
        0.5
    };
    t.clamp(0.0, 1.0)
}

fn bin_index(dim: &SpaceDim, v: f64, bins: usize) -> usize {
    if dim.kind == "cat" {
        (v as usize).min(bins - 1)
    } else {
        ((norm_pos(dim, v, bins) * bins as f64) as usize).min(bins - 1)
    }
}

/// Stable content signature of a parameter map, for grouping and
/// order-independent sorting.
fn params_sig(params: &[(String, ParamValue)]) -> String {
    let mut sig = String::new();
    for (name, value) in params {
        let _ = write!(
            sig,
            "{name}={};",
            match value {
                ParamValue::Int(v) => format!("{v}"),
                ParamValue::Float(v) => format!("{v:?}"),
                ParamValue::Cat(tag) => tag.clone(),
            }
        );
    }
    sig
}

/// Analyze trial records against the declared space. Pure; the records
/// are sorted by content first, so any arrival order (1 worker, N
/// workers, shuffled) yields the identical report.
pub fn analyze(space: &[SpaceFamily], trials: &[TrialRec], dropped: u64) -> SearchReport {
    let mut recs: Vec<&TrialRec> = trials.iter().collect();
    recs.sort_by_cached_key(|r| {
        (
            r.trial,
            r.family.clone(),
            params_sig(&r.params),
            r.score.map(f64::to_bits),
            r.failed.clone(),
        )
    });

    // Family order: declaration order, then undeclared families by name.
    let mut family_names: Vec<String> = space.iter().map(|f| f.family.clone()).collect();
    let mut extra: Vec<String> = recs
        .iter()
        .map(|r| r.family.clone())
        .filter(|f| !family_names.contains(f))
        .collect();
    extra.sort();
    extra.dedup();
    family_names.extend(extra);

    let families: Vec<FamilyReport> = family_names
        .iter()
        .map(|name| {
            let fam_recs: Vec<&&TrialRec> = recs.iter().filter(|r| &r.family == name).collect();
            let dims = space
                .iter()
                .find(|f| &f.family == name)
                .map_or(&[][..], |f| &f.dims[..]);

            // Group fits into configurations; the observation is the
            // mean of the group's finished scores.
            let mut groups: BTreeMap<(u64, String), Vec<&&TrialRec>> = BTreeMap::new();
            for r in &fam_recs {
                groups
                    .entry((r.trial, params_sig(&r.params)))
                    .or_default()
                    .push(r);
            }
            let mut observations: Vec<(&[(String, ParamValue)], f64)> = Vec::new();
            for group in groups.values() {
                let scores: Vec<f64> = group.iter().filter_map(|r| r.score).collect();
                if !scores.is_empty() {
                    let mean = scores.iter().sum::<f64>() / scores.len() as f64;
                    observations.push((&group[0].params, mean));
                }
            }
            let best_score = observations
                .iter()
                .map(|(_, s)| *s)
                .fold(None, |acc: Option<f64>, s| {
                    Some(acc.map_or(s, |a| a.max(s)))
                });
            let mean_score = (!observations.is_empty()).then(|| {
                observations.iter().map(|(_, s)| s).sum::<f64>() / observations.len() as f64
            });

            let dims = dims
                .iter()
                .map(|dim| dim_report(dim, &fam_recs, &observations))
                .collect();

            FamilyReport {
                family: name.clone(),
                configs: groups.len() as u64,
                fits: fam_recs.len() as u64,
                failed: fam_recs.iter().filter(|r| r.failed.is_some()).count() as u64,
                best_score,
                mean_score,
                dims,
            }
        })
        .collect();

    SearchReport {
        started: recs.len() as u64,
        finished: recs.iter().filter(|r| r.score.is_some()).count() as u64,
        failed: recs.iter().filter(|r| r.failed.is_some()).count() as u64,
        families,
        dropped,
    }
}

fn dim_report(
    dim: &SpaceDim,
    fam_recs: &[&&TrialRec],
    observations: &[(&[(String, ParamValue)], f64)],
) -> DimReport {
    let bins = dim_bins(dim);
    let lookup = |params: &[(String, ParamValue)]| {
        params
            .iter()
            .find(|(n, _)| n == &dim.name)
            .and_then(|(_, v)| param_num(dim, v))
    };

    // Coverage over starts: the sampler's footprint.
    let mut hist = vec![0u64; bins];
    for r in fam_recs {
        if let Some(v) = lookup(&r.params) {
            hist[bin_index(dim, v, bins)] += 1;
        }
    }
    let visited = hist.iter().filter(|&&c| c > 0).count();

    // fANOVA-lite: between-bin variance fraction of the configuration
    // scores.
    let obs: Vec<(f64, f64)> = observations
        .iter()
        .filter_map(|(params, score)| lookup(params).map(|v| (v, *score)))
        .collect();
    let importance = if obs.len() < 2 {
        0.0
    } else {
        let n = obs.len() as f64;
        let mean = obs.iter().map(|(_, s)| s).sum::<f64>() / n;
        let var = obs.iter().map(|(_, s)| (s - mean).powi(2)).sum::<f64>() / n;
        if var <= 1e-12 {
            0.0
        } else {
            let mut bin_sum = vec![0.0f64; bins];
            let mut bin_n = vec![0u64; bins];
            for (v, s) in &obs {
                let b = bin_index(dim, *v, bins);
                bin_sum[b] += s;
                bin_n[b] += 1;
            }
            let between = (0..bins)
                .filter(|&b| bin_n[b] > 0)
                .map(|b| {
                    let bm = bin_sum[b] / bin_n[b] as f64;
                    bin_n[b] as f64 / n * (bm - mean).powi(2)
                })
                .sum::<f64>();
            (between / var).clamp(0.0, 1.0)
        }
    };

    let mut points: Vec<(f64, f64)> = obs
        .iter()
        .map(|(v, s)| (norm_pos(dim, *v, bins), *s))
        .collect();
    if points.len() > POINT_CAP {
        let stride = points.len().div_ceil(POINT_CAP);
        points = points.into_iter().step_by(stride).collect();
    }

    DimReport {
        name: dim.name.clone(),
        kind: dim.kind.clone(),
        scale: dim.scale.clone(),
        lo: dim.lo,
        hi: dim.hi,
        choices: dim.choices.clone(),
        bins,
        hist,
        visited,
        coverage: visited as f64 / bins as f64,
        importance,
        points,
    }
}

impl SearchReport {
    /// Render as one JSON line (plus trailing newline). Field order and
    /// formatting are pinned by a golden test; `amlinspect search
    /// --json` prints exactly this.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"active\":true,\"schema_version\":{SEARCH_SCHEMA_VERSION},\"trials\":{{\"started\":{},\"finished\":{},\"failed\":{}}}",
            self.started, self.finished, self.failed
        );
        out.push_str(",\"families\":[");
        for (i, f) in self.families.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"family\":{},\"configs\":{},\"fits\":{},\"failed\":{},\"best_score\":{},\"mean_score\":{},\"dims\":[",
                json::string(&f.family),
                f.configs,
                f.fits,
                f.failed,
                json::fixed(f.best_score.unwrap_or(f64::NAN), 6),
                json::fixed(f.mean_score.unwrap_or(f64::NAN), 6),
            );
            for (j, d) in f.dims.iter().enumerate() {
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
                let mut hist = String::from("[");
                for (k, c) in d.hist.iter().enumerate() {
                    if k > 0 {
                        hist.push(',');
                    }
                    let _ = write!(hist, "{c}");
                }
                hist.push(']');
                let mut points = String::from("[");
                for (k, (t, s)) in d.points.iter().enumerate() {
                    if k > 0 {
                        points.push(',');
                    }
                    let _ = write!(points, "[{t:.4},{s:.4}]");
                }
                points.push(']');
                let _ = write!(
                    out,
                    "{{\"name\":{},\"kind\":{},\"scale\":{},\"lo\":{},\"hi\":{},\"choices\":{choices},\"bins\":{},\"hist\":{hist},\"visited\":{},\"coverage\":{},\"importance\":{},\"points\":{points}}}",
                    json::string(&d.name),
                    json::string(&d.kind),
                    json::string(&d.scale),
                    json::num(d.lo),
                    json::num(d.hi),
                    d.bins,
                    d.visited,
                    json::fixed(d.coverage, 6),
                    json::fixed(d.importance, 6),
                );
            }
            out.push_str("]}");
        }
        let _ = write!(out, "],\"dropped\":{}}}", self.dropped);
        out.push('\n');
        out
    }

    /// The human-readable summary `amlinspect search` prints.
    pub fn render_table(&self) -> String {
        let mut out = String::from("hyperparameter search:\n");
        let _ = writeln!(
            out,
            "  {} fits started | {} finished | {} failed | {} families",
            self.started,
            self.finished,
            self.failed,
            self.families.len()
        );
        if self.started == 0 {
            out.push_str("  (no trials recorded)\n");
            return out;
        }
        let _ = writeln!(
            out,
            "  {:<22} {:>7} {:>6} {:>5} {:>8} {:>8}",
            "family", "configs", "fits", "fail", "best", "mean"
        );
        for f in &self.families {
            let fmt_opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
            let _ = writeln!(
                out,
                "  {:<22} {:>7} {:>6} {:>5} {:>8} {:>8}",
                f.family,
                f.configs,
                f.fits,
                f.failed,
                fmt_opt(f.best_score),
                fmt_opt(f.mean_score),
            );
            for d in &f.dims {
                let _ = writeln!(
                    out,
                    "    {:<20} {:<5} {:<6} coverage {:>2}/{:<2} importance {:.3}",
                    d.name, d.kind, d.scale, d.visited, d.bins, d.importance
                );
            }
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "  ({} trial records dropped at cap)", self.dropped);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knn_space() -> Vec<SpaceFamily> {
        vec![SpaceFamily {
            family: "knn".into(),
            dims: vec![
                SpaceDim {
                    name: "k".into(),
                    kind: "int".into(),
                    scale: "linear".into(),
                    lo: 1.0,
                    hi: 8.0,
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
        }]
    }

    fn rec(
        trial: u64,
        k: i64,
        weights: &str,
        score: Option<f64>,
        failed: Option<&str>,
    ) -> TrialRec {
        TrialRec {
            trial,
            family: "knn".into(),
            params: vec![
                ("k".into(), ParamValue::Int(k)),
                ("weights".into(), ParamValue::Cat(weights.into())),
            ],
            score,
            failed: failed.map(str::to_string),
        }
    }

    /// 4 configs, of which trials 0 and 1 recur in a second search that
    /// shares the seed; score depends on k (low k good), not on weights.
    fn fixture() -> Vec<TrialRec> {
        vec![
            rec(0, 1, "uniform", Some(0.9), None),
            rec(1, 2, "distance", Some(0.85), None),
            rec(2, 7, "uniform", Some(0.5), None),
            rec(3, 8, "distance", None, Some("error")),
            rec(0, 1, "uniform", Some(0.94), None),
            rec(1, 2, "distance", Some(0.89), None),
        ]
    }

    #[test]
    fn configuration_scores_drive_family_stats() {
        let report = analyze(&knn_space(), &fixture(), 0);
        assert_eq!((report.started, report.finished, report.failed), (6, 5, 1));
        let fam = &report.families[0];
        assert_eq!(fam.family, "knn");
        assert_eq!(fam.configs, 4);
        assert_eq!(fam.fits, 6);
        assert_eq!(fam.failed, 1);
        // Configuration scores: 0.92 (trial 0), 0.87 (trial 1), 0.5 (trial 2).
        let best = fam.best_score.unwrap();
        assert!((best - 0.92).abs() < 1e-12, "{best}");
        let mean = fam.mean_score.unwrap();
        assert!((mean - (0.92 + 0.87 + 0.5) / 3.0).abs() < 1e-12, "{mean}");
    }

    #[test]
    fn coverage_counts_bins_and_importance_ranks_k_over_weights() {
        let report = analyze(&knn_space(), &fixture(), 0);
        let k = &report.families[0].dims[0];
        // 8-bin int dim, started values 1,2,7,8,1,2 -> bins 0,1,6,7.
        assert_eq!(k.bins, 8);
        assert_eq!(k.hist, vec![2, 2, 0, 0, 0, 0, 1, 1]);
        assert_eq!(k.visited, 4);
        assert!((k.coverage - 0.5).abs() < 1e-12);
        let w = &report.families[0].dims[1];
        assert_eq!(w.bins, 2);
        assert_eq!(w.hist, vec![3, 3]);
        assert!((w.coverage - 1.0).abs() < 1e-12);
        // k separates the scores cleanly; weights mixes good and bad.
        assert!(
            k.importance > w.importance,
            "k {} vs weights {}",
            k.importance,
            w.importance
        );
        assert!(k.importance > 0.5, "{}", k.importance);
    }

    #[test]
    fn report_is_arrival_order_independent() {
        let mut reversed = fixture();
        reversed.reverse();
        let a = analyze(&knn_space(), &fixture(), 0).render_json();
        let b = analyze(&knn_space(), &reversed, 0).render_json();
        assert_eq!(a, b);
    }

    #[test]
    fn undeclared_families_appear_without_dims() {
        let mut trials = fixture();
        trials.push(TrialRec {
            trial: 9,
            family: "mystery".into(),
            params: vec![],
            score: Some(0.7),
            failed: None,
        });
        let report = analyze(&knn_space(), &trials, 0);
        assert_eq!(report.families.len(), 2);
        assert_eq!(report.families[1].family, "mystery");
        assert!(report.families[1].dims.is_empty());
        assert_eq!(report.families[1].configs, 1);
    }

    #[test]
    fn json_rendering_is_byte_pinned() {
        let report = analyze(&knn_space(), &fixture(), 0);
        assert_eq!(
            report.render_json(),
            concat!(
                "{\"active\":true,\"schema_version\":2,",
                "\"trials\":{\"started\":6,\"finished\":5,\"failed\":1},",
                "\"families\":[",
                "{\"family\":\"knn\",\"configs\":4,\"fits\":6,\"failed\":1,",
                "\"best_score\":0.920000,\"mean_score\":0.763333,\"dims\":[",
                "{\"name\":\"k\",\"kind\":\"int\",\"scale\":\"linear\",\"lo\":1,\"hi\":8,\"choices\":[],",
                "\"bins\":8,\"hist\":[2,2,0,0,0,0,1,1],\"visited\":4,\"coverage\":0.500000,\"importance\":1.000000,",
                "\"points\":[[0.0000,0.9200],[0.1429,0.8700],[0.8571,0.5000]]},",
                "{\"name\":\"weights\",\"kind\":\"cat\",\"scale\":\"linear\",\"lo\":0,\"hi\":0,",
                "\"choices\":[\"uniform\",\"distance\"],\"bins\":2,\"hist\":[3,3],\"visited\":2,",
                "\"coverage\":1.000000,\"importance\":0.162128,",
                "\"points\":[[0.2500,0.9200],[0.7500,0.8700],[0.2500,0.5000]]}",
                "]}],\"dropped\":0}\n",
            )
        );
    }

    #[test]
    fn table_mentions_the_key_figures() {
        let report = analyze(&knn_space(), &fixture(), 0);
        let table = report.render_table();
        assert!(table.contains("6 fits started"), "{table}");
        assert!(table.contains("knn"), "{table}");
        assert!(table.contains("coverage"), "{table}");
        assert!(table.contains("importance"), "{table}");
        let empty = analyze(&[], &[], 0).render_table();
        assert!(empty.contains("no trials recorded"), "{empty}");
    }

    #[test]
    fn observe_collects_and_settles_trials() {
        let events = [
            LedgerEvent::SearchSpace {
                families: knn_space(),
            },
            LedgerEvent::TrialStarted {
                trial: 0,
                family: "knn".into(),
                config: "KnnConfig".into(),
                params: vec![("k".into(), ParamValue::Int(3))],
            },
            LedgerEvent::TrialFinished {
                trial: 0,
                family: "knn".into(),
                score: 0.8,
            },
            LedgerEvent::TrialStarted {
                trial: 1,
                family: "knn".into(),
                config: "KnnConfig".into(),
                params: vec![("k".into(), ParamValue::Int(5))],
            },
            LedgerEvent::TrialFailed {
                trial: 1,
                family: "knn".into(),
                reason: "panic".into(),
            },
        ];
        let c = SearchCollector::from_events(&events);
        assert_eq!(c.space.len(), 1);
        assert_eq!(c.trials.len(), 2);
        assert_eq!(c.trials[0].score, Some(0.8));
        assert_eq!(c.trials[1].failed.as_deref(), Some("panic"));
        assert_eq!(c.dropped, 0);
        assert!(c.report().render_json().starts_with("{\"active\":true,"));
    }
}
