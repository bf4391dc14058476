//! The top-level AutoML driver: split → search → ensemble-select → package.

use crate::search::{run_search, SearchLimits, TrainedCandidate};
use crate::selection::greedy_ensemble_selection;
use crate::space::ModelFamily;
use crate::{AutoMlError, Result};
use aml_dataset::{split::train_test_split, Dataset};
use aml_models::{Classifier, SoftVotingEnsemble};
use std::sync::Arc;

/// Configuration of one AutoML run.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoMlConfig {
    /// Candidate configurations to sample and train.
    pub n_candidates: usize,
    /// Greedy ensemble-selection rounds (bag size with replacement).
    pub ensemble_rounds: usize,
    /// Seed the ensemble with the top-k leaderboard models before greedy
    /// selection (auto-sklearn's `ensemble_nbest`). Guarantees a diverse
    /// multi-member bag — required by QBC and the ALE feedback committee.
    pub ensemble_init_top_k: usize,
    /// Fraction of the training data held out for validation/selection.
    pub validation_fraction: f64,
    /// Model families to search over.
    pub families: Vec<ModelFamily>,
    /// Master seed. Different seeds → different model bags, which is what
    /// the paper's Cross-ALE variant exploits.
    pub seed: u64,
    /// Worker threads for candidate training (1 = sequential).
    pub parallelism: usize,
    /// Wall-clock budget per trial (`--max-trial-time`); `None` runs
    /// trials inline with no budget machinery (off-is-free).
    pub max_trial_time: Option<std::time::Duration>,
    /// Minimum trials that must survive the search (`--min-trials`);
    /// below this the run errors instead of degrading further.
    pub min_trials: usize,
}

impl Default for AutoMlConfig {
    fn default() -> Self {
        AutoMlConfig {
            n_candidates: 24,
            ensemble_rounds: 15,
            ensemble_init_top_k: 5,
            validation_fraction: 0.2,
            families: ModelFamily::ALL.to_vec(),
            seed: 0,
            parallelism: 1,
            max_trial_time: None,
            min_trials: 1,
        }
    }
}

impl AutoMlConfig {
    fn validate(&self) -> Result<()> {
        if self.n_candidates == 0 {
            return Err(AutoMlError::InvalidConfig(
                "n_candidates must be >= 1".into(),
            ));
        }
        if self.ensemble_rounds == 0 {
            return Err(AutoMlError::InvalidConfig(
                "ensemble_rounds must be >= 1".into(),
            ));
        }
        if !(self.validation_fraction > 0.0 && self.validation_fraction < 0.9) {
            return Err(AutoMlError::InvalidConfig(format!(
                "validation_fraction {} outside (0, 0.9)",
                self.validation_fraction
            )));
        }
        if self.families.is_empty() {
            return Err(AutoMlError::InvalidConfig(
                "families must not be empty".into(),
            ));
        }
        if self.parallelism == 0 {
            return Err(AutoMlError::InvalidConfig(
                "parallelism must be >= 1".into(),
            ));
        }
        if self.min_trials == 0 {
            return Err(AutoMlError::InvalidConfig("min_trials must be >= 1".into()));
        }
        if self.min_trials > self.n_candidates {
            return Err(AutoMlError::InvalidConfig(format!(
                "min_trials {} exceeds n_candidates {}",
                self.min_trials, self.n_candidates
            )));
        }
        Ok(())
    }
}

/// The AutoML entry point.
#[derive(Debug, Clone)]
pub struct AutoMl {
    config: AutoMlConfig,
}

/// Output of a fitted AutoML run: the weighted ensemble plus the full
/// leaderboard, with the individual distinct ensemble members accessible for
/// the feedback algorithms.
pub struct FittedAutoMl {
    ensemble: SoftVotingEnsemble,
    leaderboard: Vec<TrainedCandidate>,
    val_score: f64,
    seed: u64,
    parallelism: usize,
}

impl AutoMl {
    /// Create a driver with the given configuration.
    pub fn new(config: AutoMlConfig) -> Self {
        AutoMl { config }
    }

    /// Access the configuration.
    pub fn config(&self) -> &AutoMlConfig {
        &self.config
    }

    /// Run the full AutoML pipeline on `train_data`.
    pub fn fit(&self, train_data: &Dataset) -> Result<FittedAutoMl> {
        let _span = aml_telemetry::span!("automl.fit");
        self.config.validate()?;
        // Inner split: train'/validation (stratified; falls back to
        // unstratified when a class is too rare to stratify).
        let (inner_train, inner_val) = train_test_split(
            train_data,
            self.config.validation_fraction,
            true,
            self.config.seed ^ 0x5EED_5EED,
        )
        .or_else(|_| {
            train_test_split(
                train_data,
                self.config.validation_fraction,
                false,
                self.config.seed ^ 0x5EED_5EED,
            )
        })?;

        let leaderboard = run_search(
            self.config.n_candidates,
            &self.config.families,
            &inner_train,
            &inner_val,
            self.config.seed,
            self.config.parallelism,
            &SearchLimits {
                max_trial_time: self.config.max_trial_time,
                min_trials: self.config.min_trials,
            },
        )?;

        let outcome = greedy_ensemble_selection(
            &leaderboard,
            inner_val.labels(),
            train_data.n_classes(),
            self.config.ensemble_rounds,
            self.config.ensemble_init_top_k,
        )?;

        // Distinct picked members with their counts as weights.
        let mut members: Vec<Arc<dyn Classifier>> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        for (ci, &count) in outcome.counts.iter().enumerate() {
            if count > 0 {
                members.push(leaderboard[ci].model.clone());
                weights.push(count as f64);
            }
        }
        aml_telemetry::ledger::emit_with(|| aml_telemetry::LedgerEvent::EnsembleSelected {
            val_score: outcome.val_score,
            members: outcome
                .counts
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0)
                .map(|(ci, &count)| aml_telemetry::EnsembleMember {
                    trial: leaderboard[ci].trial,
                    family: leaderboard[ci].config.family().name().to_string(),
                    weight: count as f64,
                    score: leaderboard[ci].val_score,
                })
                .collect(),
        });
        let ensemble = SoftVotingEnsemble::new(members, weights)?;

        Ok(FittedAutoMl {
            ensemble,
            leaderboard,
            val_score: outcome.val_score,
            seed: self.config.seed,
            parallelism: self.config.parallelism,
        })
    }
}

impl FittedAutoMl {
    /// The final weighted soft-voting ensemble.
    pub fn ensemble(&self) -> &SoftVotingEnsemble {
        &self.ensemble
    }

    /// Every trained candidate, best-first (the leaderboard).
    pub fn leaderboard(&self) -> &[TrainedCandidate] {
        &self.leaderboard
    }

    /// Validation balanced accuracy of the selected ensemble.
    pub fn validation_score(&self) -> f64 {
        self.val_score
    }

    /// The seed this run used.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The worker-thread count this run was fit with; analyses of the
    /// fitted run fan out over as many.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Names of the distinct ensemble members (diagnostics / reports).
    pub fn member_names(&self) -> Vec<&'static str> {
        self.ensemble.members().iter().map(|m| m.name()).collect()
    }
}

impl Classifier for FittedAutoMl {
    fn n_classes(&self) -> usize {
        self.ensemble.n_classes()
    }

    fn n_features(&self) -> usize {
        self.ensemble.n_features()
    }

    fn predict_proba_into(&self, rows: &[f64], out: &mut [f64]) -> aml_models::Result<()> {
        self.ensemble.predict_proba_into(rows, out)
    }

    fn name(&self) -> &'static str {
        "automl_ensemble"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aml_dataset::synth;
    use aml_models::metrics::balanced_accuracy;

    fn quick_cfg(seed: u64) -> AutoMlConfig {
        AutoMlConfig {
            n_candidates: 8,
            ensemble_rounds: 6,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn fits_moons_with_decent_accuracy() {
        let train = synth::two_moons(300, 0.2, 1).unwrap();
        let test = synth::two_moons(200, 0.2, 2).unwrap();
        let fitted = AutoMl::new(quick_cfg(3)).fit(&train).unwrap();
        let preds = fitted.predict(&test).unwrap();
        let ba = balanced_accuracy(test.labels(), &preds, 2).unwrap();
        assert!(ba > 0.9, "AutoML balanced accuracy {ba}");
    }

    #[test]
    fn ensemble_members_are_accessible_and_multiple() {
        let train = synth::noisy_xor(400, 0.1, 2).unwrap();
        let fitted = AutoMl::new(AutoMlConfig {
            n_candidates: 16,
            ensemble_rounds: 10,
            seed: 5,
            ..Default::default()
        })
        .fit(&train)
        .unwrap();
        assert!(!fitted.ensemble().members().is_empty());
        assert_eq!(
            fitted.ensemble().members().len(),
            fitted.member_names().len()
        );
        // Leaderboard is sorted.
        for w in fitted.leaderboard().windows(2) {
            assert!(w[0].val_score >= w[1].val_score);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let train = synth::two_moons(200, 0.25, 7).unwrap();
        let probe = [0.5, 0.2];
        let a = AutoMl::new(quick_cfg(11)).fit(&train).unwrap();
        let b = AutoMl::new(quick_cfg(11)).fit(&train).unwrap();
        assert_eq!(
            a.predict_proba_row(&probe).unwrap(),
            b.predict_proba_row(&probe).unwrap()
        );
    }

    #[test]
    fn different_seeds_give_different_bags() {
        // The Cross-ALE premise: independent runs → diverse bags. With
        // different seeds, either the member set or the predictions differ.
        let train = synth::two_moons(200, 0.25, 7).unwrap();
        let a = AutoMl::new(quick_cfg(1)).fit(&train).unwrap();
        let c = AutoMl::new(quick_cfg(2)).fit(&train).unwrap();
        let probe = [0.5, 0.2];
        let pa = a.predict_proba_row(&probe).unwrap();
        let pc = c.predict_proba_row(&probe).unwrap();
        let differs = a.member_names() != c.member_names()
            || pa.iter().zip(&pc).any(|(x, y)| (x - y).abs() > 1e-12);
        assert!(differs, "seeds 1 and 2 produced identical AutoML outputs");
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad = AutoMlConfig {
            n_candidates: 0,
            ..Default::default()
        };
        let ds = synth::two_moons(100, 0.2, 0).unwrap();
        assert!(AutoMl::new(bad).fit(&ds).is_err());
        let bad2 = AutoMlConfig {
            validation_fraction: 0.95,
            ..Default::default()
        };
        assert!(AutoMl::new(bad2).fit(&ds).is_err());
        let bad3 = AutoMlConfig {
            parallelism: 0,
            ..Default::default()
        };
        assert!(AutoMl::new(bad3).fit(&ds).is_err());
    }

    #[test]
    fn parallel_fit_matches_sequential() {
        let train = synth::two_moons(200, 0.2, 9).unwrap();
        let mut cfg = quick_cfg(13);
        cfg.parallelism = 1;
        let seq = AutoMl::new(cfg.clone()).fit(&train).unwrap();
        cfg.parallelism = 4;
        let par = AutoMl::new(cfg).fit(&train).unwrap();
        let probe = [0.0, 0.5];
        assert_eq!(
            seq.predict_proba_row(&probe).unwrap(),
            par.predict_proba_row(&probe).unwrap()
        );
        assert_eq!(seq.validation_score(), par.validation_score());
    }
}
