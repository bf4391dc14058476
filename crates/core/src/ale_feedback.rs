//! The ALE-variance feedback algorithm — the paper's §3 in full.
//!
//! Given one or more fitted AutoML runs, compute per-model ALE curves for
//! every feature on shared grids, threshold the cross-model standard
//! deviation with 𝒯, and return (a) the high-variance sampling regions,
//! (b) the mean±std ALE bands as the interpretable explanation, and
//! (c) concrete suggested points — either freely sampled from the regions
//! or selected from a fixed candidate pool (the `-Pool` variants).

use crate::feedback::{Feedback, Suggestion};
use crate::{CoreError, Result};
use aml_automl::FittedAutoMl;
use aml_dataset::Dataset;
use aml_interpret::ale::AleConfig;
use aml_interpret::grid::Grid;
use aml_interpret::region::FeatureRegions;
use aml_interpret::variance::{ale_band_on_grid, pdp_band_on_grid, AleBand};
use aml_models::Classifier;
use aml_rng::rngs::StdRng;
use aml_rng::{Rng, SeedableRng};

/// Which model-agnostic interpretation method supplies the per-model
/// curves. The paper uses ALE ("we use ALE in this work", §3) but its
/// algorithm is explicitly method-agnostic — partial dependence is the
/// classic alternative, and the ablation benches compare the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpretationMethod {
    /// Accumulated Local Effects (the paper's choice).
    Ale,
    /// Partial dependence.
    Pdp,
}

/// Which model bag supplies the disagreement signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AleMode {
    /// The members of a single AutoML run's ensemble (paper: "Within-ALE").
    Within,
    /// Each independent AutoML run's *whole ensemble* is one committee
    /// member (paper: "Cross-ALE"; the paper uses 10 runs).
    Cross,
}

/// How the variance threshold 𝒯 is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdRule {
    /// The paper's default: "the median of the standard deviation across
    /// features" — we take the median over all (feature, grid-point) std
    /// values.
    MedianStd,
    /// A fixed user-supplied 𝒯 (the paper's §4 quotes 0.02 and 0.01).
    Fixed(f64),
    /// 𝒯 = the q-th quantile of all (feature, grid-point) std values.
    /// `QuantileStd(0.5)` equals [`ThresholdRule::MedianStd`]; higher
    /// quantiles focus the suggested subspace on the most confusing
    /// regions — useful when the committee is small and its std landscape
    /// flat (the paper's budget discussion: "when the sampling budget is
    /// low, a higher threshold may be better").
    QuantileStd(f64),
    /// A separate 𝒯 per feature: the q-th quantile of *that feature's* std
    /// values. Flags each feature's own most-confusing regions even when
    /// global disagreement levels differ across features — the paper's §5
    /// explicitly invites per-feature threshold tuning ("operators can …
    /// tune the threshold they use for each feature").
    PerFeatureQuantile(f64),
}

/// Configuration of the ALE feedback algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct AleFeedback {
    /// Within- or Cross-ALE.
    pub mode: AleMode,
    /// Grid intervals per feature.
    pub n_intervals: usize,
    /// Threshold rule for 𝒯.
    pub threshold: ThresholdRule,
    /// Class whose probability the curves explain.
    pub target_class: usize,
    /// Interpretation method (ALE by default, as in the paper).
    pub method: InterpretationMethod,
}

impl Default for AleFeedback {
    fn default() -> Self {
        AleFeedback {
            mode: AleMode::Within,
            n_intervals: 24,
            threshold: ThresholdRule::MedianStd,
            target_class: 1,
            method: InterpretationMethod::Ale,
        }
    }
}

/// The q-th quantile of all (feature, grid-point) std values.
fn quantile_std(bands: &[AleBand], q: f64) -> Result<f64> {
    let mut all: Vec<f64> = bands.iter().flat_map(|b| b.std.iter().copied()).collect();
    if all.is_empty() {
        return Err(CoreError::InvalidParameter("no std values computed".into()));
    }
    all.sort_by(|a, b| a.partial_cmp(b).expect("stds are finite"));
    let idx = ((all.len() - 1) as f64 * q).round() as usize;
    Ok(all[idx])
}

/// The analysis artifact: bands, the realized threshold, and the regions.
#[derive(Debug, Clone)]
pub struct AleAnalysis {
    /// Mean±std ALE band per feature.
    pub bands: Vec<AleBand>,
    /// The realized 𝒯.
    pub threshold: f64,
    /// High-variance regions per feature (same order as `bands`).
    pub regions: Vec<FeatureRegions>,
}

impl AleAnalysis {
    /// Total number of flagged intervals across features.
    pub fn n_intervals_flagged(&self) -> usize {
        self.regions.iter().map(|r| r.intervals.len()).sum()
    }

    /// Features with at least one flagged interval.
    pub fn flagged_features(&self) -> Vec<usize> {
        self.regions
            .iter()
            .filter(|r| !r.intervals.is_empty())
            .map(|r| r.feature)
            .collect()
    }
}

impl AleFeedback {
    /// Run the analysis over the fitted runs. `Within` uses `runs[0]`'s
    /// ensemble members; `Cross` uses each run's full ensemble as one
    /// committee member (and therefore needs ≥ 2 runs).
    ///
    /// The per-feature bands are computed on as many worker threads as
    /// `runs[0]` was fit with; they come back in feature order, and the
    /// result is the same bits at any thread count.
    pub fn analyze(&self, runs: &[FittedAutoMl], data: &Dataset) -> Result<AleAnalysis> {
        if runs.is_empty() {
            return Err(CoreError::InvalidParameter(
                "need at least one AutoML run".into(),
            ));
        }
        if self.n_intervals < 2 {
            return Err(CoreError::InvalidParameter(
                "n_intervals must be >= 2".into(),
            ));
        }
        // Assemble the committee.
        let models: Vec<&dyn Classifier> = match self.mode {
            AleMode::Within => runs[0]
                .ensemble()
                .members()
                .iter()
                .map(|m| m.as_ref() as &dyn Classifier)
                .collect(),
            AleMode::Cross => {
                if runs.len() < 2 {
                    return Err(CoreError::InvalidParameter(
                        "Cross-ALE needs at least 2 AutoML runs".into(),
                    ));
                }
                runs.iter()
                    .map(|r| r.ensemble() as &dyn Classifier)
                    .collect()
            }
        };
        if models.len() < 2 {
            return Err(CoreError::InvalidParameter(format!(
                "disagreement needs >= 2 committee members, got {}",
                models.len()
            )));
        }

        let jobs = (0..data.n_features()).map(|f| (f as u64, f)).collect();
        let ctx = aml_telemetry::TraceContext::current();
        let bands = aml_telemetry::tracetree::par_map(ctx, runs[0].parallelism(), jobs, |_, f| {
            self.band(&models, data, f)
        })
        .unwrap_or_else(|message| std::panic::resume_unwind(Box::new(message)))
        .into_iter()
        .collect::<Result<Vec<_>>>()?;

        // Per-feature thresholds (identical for the scalar rules).
        let per_feature: Vec<f64> = match self.threshold {
            ThresholdRule::Fixed(t) => {
                if !(t.is_finite() && t >= 0.0) {
                    return Err(CoreError::InvalidParameter(format!(
                        "threshold {t} invalid"
                    )));
                }
                vec![t; bands.len()]
            }
            ThresholdRule::MedianStd => vec![quantile_std(&bands, 0.5)?; bands.len()],
            ThresholdRule::QuantileStd(q) => {
                if !(0.0..=1.0).contains(&q) {
                    return Err(CoreError::InvalidParameter(format!(
                        "quantile {q} outside [0, 1]"
                    )));
                }
                vec![quantile_std(&bands, q)?; bands.len()]
            }
            ThresholdRule::PerFeatureQuantile(q) => {
                if !(0.0..=1.0).contains(&q) {
                    return Err(CoreError::InvalidParameter(format!(
                        "quantile {q} outside [0, 1]"
                    )));
                }
                bands
                    .iter()
                    .map(|b| quantile_std(std::slice::from_ref(b), q))
                    .collect::<Result<Vec<f64>>>()?
            }
        };

        let regions = bands
            .iter()
            .zip(&per_feature)
            .map(|(b, &t)| {
                let domain = data.domain(b.feature)?;
                Ok(FeatureRegions::from_band(b, t, domain)?)
            })
            .collect::<Result<Vec<_>>>()?;

        // The scalar `threshold` reports the median of the per-feature
        // values (they coincide for scalar rules).
        let mut sorted = per_feature.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("thresholds are finite"));
        let threshold = sorted[sorted.len() / 2];

        Ok(AleAnalysis {
            bands,
            threshold,
            regions,
        })
    }

    /// One feature's band across the committee `models`.
    fn band(&self, models: &[&dyn Classifier], data: &Dataset, feature: usize) -> Result<AleBand> {
        let cfg = AleConfig {
            target_class: self.target_class,
        };
        let column = data.column(feature)?;
        // Quantile grids follow the data; constant features get a
        // degenerate band with zero variance rather than an error.
        match Grid::quantile(&column, self.n_intervals) {
            Ok(grid) => Ok(match self.method {
                InterpretationMethod::Ale => ale_band_on_grid(models, data, feature, &grid, &cfg)?,
                InterpretationMethod::Pdp => pdp_band_on_grid(models, data, feature, &grid, &cfg)?,
            }),
            Err(aml_interpret::InterpretError::DegenerateGrid) => Ok(AleBand {
                feature,
                feature_name: data.features()[feature].name.clone(),
                grid: vec![column[0], column[0] + 1e-9],
                mean: vec![0.0, 0.0],
                std: vec![0.0, 0.0],
                n_models: models.len(),
            }),
            Err(e) => Err(e.into()),
        }
    }

    /// Free-sampling suggestion: draw `n_points` rows from the **union**
    /// `∪ᵢ Aᵢx ≤ bᵢ` — "we uniformly sample from the regions of the
    /// ALE-plot that exceed the variance threshold" (§4).
    ///
    /// Each point picks *one* flagged `(feature, interval)` system —
    /// chosen with probability proportional to the interval's integrated
    /// *excess* std (how far above 𝒯 it is, times its width), so the most
    /// confusing regions get the most samples — places that feature
    /// uniformly inside the interval, and fills every other feature
    /// uniformly from its domain. Sampling the union (not the intersection
    /// of all flagged features' regions) matters: the paper's subspace is
    /// explicitly a union of half-space systems.
    pub fn suggest_points(
        &self,
        analysis: &AleAnalysis,
        data: &Dataset,
        n_points: usize,
        seed: u64,
    ) -> Result<Vec<Vec<f64>>> {
        // Build the weighted list of (feature, interval, weight) systems.
        let mut systems: Vec<(usize, aml_interpret::region::Interval, f64)> = Vec::new();
        for region in &analysis.regions {
            let band = &analysis.bands[region.feature];
            for iv in &region.intervals {
                // Integrated excess std over the interval's grid points.
                let excess: f64 = band
                    .grid
                    .iter()
                    .zip(&band.std)
                    .filter(|(g, _)| iv.contains(**g))
                    .map(|(_, s)| (s - analysis.threshold).max(0.0))
                    .sum();
                let weight = (excess + 1e-9) * iv.width().max(1e-9);
                systems.push((region.feature, *iv, weight));
            }
        }
        if systems.is_empty() {
            return Err(CoreError::NoRegions);
        }
        let total_weight: f64 = systems.iter().map(|(_, _, w)| w).sum();

        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n_points);
        for _ in 0..n_points {
            // Pick one system ∝ weight.
            let mut pick = rng.gen::<f64>() * total_weight;
            let mut chosen = systems.last().expect("non-empty");
            for sys in &systems {
                if pick <= sys.2 {
                    chosen = sys;
                    break;
                }
                pick -= sys.2;
            }
            let (flagged_feature, interval, _) = *chosen;

            let mut row = Vec::with_capacity(data.n_features());
            for feature in 0..data.n_features() {
                let domain = data.domain(feature)?;
                let value = if feature == flagged_feature {
                    if interval.width() > 0.0 {
                        rng.gen_range(interval.lo..=interval.hi)
                    } else {
                        interval.lo
                    }
                } else {
                    rng.gen_range(domain.lo()..=domain.hi())
                };
                row.push(domain.clamp(value));
            }
            rows.push(row);
        }
        Ok(rows)
    }

    /// Pool-restricted suggestion (the `-Pool` variants): indices of pool
    /// rows that fall inside the suggested subspace `∪ᵢ Aᵢx ≤ bᵢ`, i.e.
    /// inside *any* flagged interval of *any* feature. At most `cap`
    /// indices are returned (first-come in pool order — deterministic);
    /// fewer when the pool doesn't reach the subspace, which is exactly the
    /// disadvantage Table 1 shows for the pool variants.
    pub fn suggest_from_pool(
        &self,
        analysis: &AleAnalysis,
        pool: &Dataset,
        cap: usize,
    ) -> Result<Vec<usize>> {
        if analysis.n_intervals_flagged() == 0 {
            return Err(CoreError::NoRegions);
        }
        let mut picked = Vec::new();
        for i in 0..pool.n_rows() {
            let row = pool.row(i);
            let inside = analysis
                .regions
                .iter()
                .any(|r| !r.intervals.is_empty() && r.contains(row[r.feature]));
            if inside {
                picked.push(i);
                if picked.len() >= cap {
                    break;
                }
            }
        }
        Ok(picked)
    }

    /// Full feedback packaging (analysis + explanation notes).
    pub fn feedback(
        &self,
        runs: &[FittedAutoMl],
        data: &Dataset,
    ) -> Result<(AleAnalysis, Feedback)> {
        let analysis = self.analyze(runs, data)?;
        // Ledger: one region_suggested per feature, carrying the band the
        // intervals were derived from so reports can redraw the plot.
        if aml_telemetry::ledger::active() {
            for (band, region) in analysis.bands.iter().zip(&analysis.regions) {
                aml_telemetry::ledger::emit(&aml_telemetry::LedgerEvent::RegionSuggested {
                    feature: band.feature as u64,
                    name: band.feature_name.clone(),
                    threshold: region.threshold,
                    intervals: region.intervals.iter().map(|iv| (iv.lo, iv.hi)).collect(),
                    grid: band.grid.clone(),
                    mean: band.mean.clone(),
                    std: band.std.clone(),
                });
            }
        }
        let mode = match self.mode {
            AleMode::Within => "Within-ALE",
            AleMode::Cross => "Cross-ALE",
        };
        let notes = format!(
            "{mode}: {} committee members, threshold T = {:.4} ({}), {} feature(s) flagged",
            analysis.bands.first().map_or(0, |b| b.n_models),
            analysis.threshold,
            match self.threshold {
                ThresholdRule::MedianStd => "median of ALE std values",
                ThresholdRule::Fixed(_) => "fixed",
                ThresholdRule::QuantileStd(_) => "quantile of ALE std values",
                ThresholdRule::PerFeatureQuantile(_) => "per-feature quantile of ALE std",
            },
            analysis.flagged_features().len(),
        );
        let fb = Feedback {
            suggestion: Suggestion::Regions(analysis.regions.clone()),
            explanations: analysis.bands.clone(),
            notes,
        };
        Ok((analysis, fb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aml_automl::{AutoMl, AutoMlConfig};
    use aml_dataset::synth;

    fn quick_automl(seed: u64, ds: &Dataset) -> FittedAutoMl {
        AutoMl::new(AutoMlConfig {
            n_candidates: 8,
            ensemble_rounds: 6,
            seed,
            ..Default::default()
        })
        .fit(ds)
        .unwrap()
    }

    fn moons() -> Dataset {
        synth::two_moons(250, 0.25, 3).unwrap()
    }

    #[test]
    fn within_analysis_produces_band_per_feature() {
        let ds = moons();
        let run = quick_automl(1, &ds);
        let fb = AleFeedback::default();
        let analysis = fb.analyze(&[run], &ds).unwrap();
        assert_eq!(analysis.bands.len(), 2);
        assert_eq!(analysis.regions.len(), 2);
        assert!(analysis.threshold >= 0.0);
    }

    #[test]
    fn cross_needs_two_runs() {
        let ds = moons();
        let run = quick_automl(1, &ds);
        let fb = AleFeedback {
            mode: AleMode::Cross,
            ..Default::default()
        };
        assert!(matches!(
            fb.analyze(&[run], &ds),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    #[test]
    fn cross_analysis_works_with_multiple_runs() {
        let ds = moons();
        let runs = vec![
            quick_automl(1, &ds),
            quick_automl(2, &ds),
            quick_automl(3, &ds),
        ];
        let fb = AleFeedback {
            mode: AleMode::Cross,
            ..Default::default()
        };
        let analysis = fb.analyze(&runs, &ds).unwrap();
        assert_eq!(analysis.bands[0].n_models, 3);
    }

    #[test]
    fn median_threshold_flags_roughly_half_the_grid() {
        // With MedianStd, by construction about half of all grid points are
        // above 𝒯 (ties aside), so something is always flagged on noisy
        // problems.
        let ds = synth::noisy_xor(300, 0.15, 5).unwrap();
        let run = quick_automl(4, &ds);
        let fb = AleFeedback::default();
        let analysis = fb.analyze(&[run], &ds).unwrap();
        assert!(
            analysis.n_intervals_flagged() > 0,
            "median threshold must flag regions"
        );
    }

    #[test]
    fn suggested_points_lie_in_the_union_and_domain() {
        let ds = moons();
        let run = quick_automl(5, &ds);
        let fb = AleFeedback::default();
        let analysis = fb.analyze(&[run], &ds).unwrap();
        let points = fb.suggest_points(&analysis, &ds, 50, 9).unwrap();
        assert_eq!(points.len(), 50);
        for p in &points {
            assert_eq!(p.len(), 2);
            for (j, &v) in p.iter().enumerate() {
                let d = ds.domain(j).unwrap();
                assert!(v >= d.lo() - 1e-9 && v <= d.hi() + 1e-9);
            }
            // Union membership: at least one flagged feature region
            // contains the point (the paper's ∪ᵢ Aᵢx ≤ bᵢ).
            let inside_union = analysis
                .regions
                .iter()
                .any(|r| !r.intervals.is_empty() && r.contains(p[r.feature]));
            assert!(inside_union, "point {p:?} outside the suggested union");
        }
    }

    #[test]
    fn suggestions_deterministic_per_seed() {
        let ds = moons();
        let run = quick_automl(6, &ds);
        let fb = AleFeedback::default();
        let analysis = fb.analyze(&[run], &ds).unwrap();
        let a = fb.suggest_points(&analysis, &ds, 10, 1).unwrap();
        let b = fb.suggest_points(&analysis, &ds, 10, 1).unwrap();
        let c = fb.suggest_points(&analysis, &ds, 10, 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn pool_selection_respects_subspace_and_cap() {
        let ds = moons();
        let run = quick_automl(7, &ds);
        let fb = AleFeedback::default();
        let analysis = fb.analyze(&[run], &ds).unwrap();
        let pool = synth::two_moons(400, 0.25, 11).unwrap();
        let picked = fb.suggest_from_pool(&analysis, &pool, 30).unwrap();
        assert!(picked.len() <= 30);
        for &i in &picked {
            let row = pool.row(i);
            assert!(analysis
                .regions
                .iter()
                .any(|r| !r.intervals.is_empty() && r.contains(row[r.feature])));
        }
    }

    #[test]
    fn fixed_threshold_respected_and_validated() {
        let ds = moons();
        let run = quick_automl(8, &ds);
        let fb = AleFeedback {
            threshold: ThresholdRule::Fixed(0.5),
            ..Default::default()
        };
        let analysis = fb.analyze(&[run], &ds).unwrap();
        assert_eq!(analysis.threshold, 0.5);
        let bad = AleFeedback {
            threshold: ThresholdRule::Fixed(f64::NAN),
            ..Default::default()
        };
        assert!(bad.analyze(&[quick_automl(9, &ds)], &ds).is_err());
    }

    #[test]
    fn lower_threshold_flags_at_least_as_much() {
        // The paper's threshold-setting discussion: lower 𝒯 ⇒ larger
        // suggested subspace.
        let ds = synth::noisy_xor(300, 0.1, 12).unwrap();
        let run = quick_automl(10, &ds);
        let analysis_hi = AleFeedback {
            threshold: ThresholdRule::Fixed(0.05),
            ..Default::default()
        }
        .analyze(&[run], &ds)
        .unwrap();
        let run2 = quick_automl(10, &ds);
        let analysis_lo = AleFeedback {
            threshold: ThresholdRule::Fixed(0.01),
            ..Default::default()
        }
        .analyze(&[run2], &ds)
        .unwrap();
        let width = |a: &AleAnalysis| -> f64 { a.regions.iter().map(|r| r.total_width()).sum() };
        assert!(width(&analysis_lo) >= width(&analysis_hi));
    }

    #[test]
    fn quantile_threshold_tightens_regions() {
        let ds = synth::noisy_xor(300, 0.15, 21).unwrap();
        let run = quick_automl(22, &ds);
        let med = AleFeedback::default()
            .analyze(std::slice::from_ref(&run), &ds)
            .unwrap();
        let tight = AleFeedback {
            threshold: ThresholdRule::QuantileStd(0.9),
            ..Default::default()
        }
        .analyze(&[run], &ds)
        .unwrap();
        assert!(tight.threshold >= med.threshold);
        let width = |a: &AleAnalysis| -> f64 { a.regions.iter().map(|r| r.total_width()).sum() };
        assert!(width(&tight) <= width(&med));
        // Invalid quantile rejected.
        let ds2 = synth::two_moons(100, 0.2, 1).unwrap();
        let run2 = quick_automl(23, &ds2);
        assert!(AleFeedback {
            threshold: ThresholdRule::QuantileStd(1.5),
            ..Default::default()
        }
        .analyze(&[run2], &ds2)
        .is_err());
    }

    #[test]
    fn per_feature_quantile_flags_every_feature_independently() {
        let ds = synth::noisy_xor(300, 0.15, 31).unwrap();
        let run = quick_automl(32, &ds);
        let analysis = AleFeedback {
            threshold: ThresholdRule::PerFeatureQuantile(0.8),
            ..Default::default()
        }
        .analyze(&[run], &ds)
        .unwrap();
        // With a per-feature quantile below 1.0 every non-degenerate
        // feature flags at least one region (its own top-variance zone).
        for region in &analysis.regions {
            assert!(
                !region.intervals.is_empty(),
                "feature {} flagged nothing under its own quantile",
                region.feature_name
            );
        }
    }

    #[test]
    fn pdp_method_produces_bands_and_regions_too() {
        let ds = synth::noisy_xor(200, 0.15, 41).unwrap();
        let run = quick_automl(42, &ds);
        let analysis = AleFeedback {
            method: InterpretationMethod::Pdp,
            ..Default::default()
        }
        .analyze(&[run], &ds)
        .unwrap();
        assert_eq!(analysis.bands.len(), 2);
        // PDP means are probabilities (uncentred), unlike ALE's zero-mean
        // curves.
        let mean_level: f64 =
            analysis.bands[0].mean.iter().sum::<f64>() / analysis.bands[0].mean.len() as f64;
        assert!(
            mean_level > 0.05,
            "PDP level {mean_level} should be a probability scale"
        );
    }

    #[test]
    fn feedback_notes_are_informative() {
        let ds = moons();
        let run = quick_automl(13, &ds);
        let fb = AleFeedback::default();
        let (_, feedback) = fb.feedback(&[run], &ds).unwrap();
        assert!(feedback.notes.contains("Within-ALE"));
        assert!(feedback.notes.contains("threshold"));
    }
}
