//! # aml-automl
//!
//! A from-scratch mini-AutoML system standing in for auto-sklearn
//! (the paper's AutoML of choice). The pipeline is:
//!
//! 1. **Search** ([`search`]): sample candidate configurations (model
//!    family, hyperparameters, scaler) from the search space ([`space`]),
//!    fit each on a training split, and score on a held-out validation
//!    split. Every sampled candidate is trained once on the full split.
//! 2. **Ensemble selection** ([`selection`]): Caruana-style greedy forward
//!    selection *with replacement* over the validation predictions, the same
//!    algorithm auto-sklearn uses to build its final ensemble.
//! 3. The result ([`automl::FittedAutoMl`]) exposes
//!    both the combined [`SoftVotingEnsemble`](aml_models::SoftVotingEnsemble) and
//!    the individual members — the paper's feedback algorithms need the
//!    members ("for each model in ℳ we apply a model-agnostic
//!    interpretation algorithm").
//!
//! Runs are **deterministic given a seed** but intentionally seed-sensitive:
//! the paper's Cross-ALE variant relies on independent AutoML runs producing
//! different model bags, which different seeds provide.
//!
//! ## Example
//!
//! ```
//! use aml_automl::{AutoMl, AutoMlConfig};
//! use aml_dataset::synth;
//! use aml_models::Classifier;
//!
//! let ds = synth::two_moons(300, 0.2, 7).unwrap();
//! let cfg = AutoMlConfig { n_candidates: 8, seed: 1, ..Default::default() };
//! let fitted = AutoMl::new(cfg).fit(&ds).unwrap();
//! assert!(fitted.ensemble().len() >= 1);
//! let acc = fitted.validation_score();
//! assert!(acc > 0.8, "validation balanced accuracy {acc}");
//! ```

pub mod automl;
pub mod search;
pub mod selection;
pub mod space;

pub use automl::{AutoMl, AutoMlConfig, FittedAutoMl};
pub use search::{SearchLimits, TrainedCandidate};
pub use space::{CandidateConfig, ModelFamily};

/// Typed failures of the candidate search itself (as opposed to
/// individual trial failures, which are ledgered and survived).
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// A training worker thread died outside the per-trial sandbox —
    /// a harness bug, not a trial failure.
    WorkerPanicked(String),
    /// Fewer trials survived the search than the configured
    /// `min_trials` floor: the leaderboard is too thin to trust
    /// ensemble selection or ALE feedback.
    TooFewSurvivors {
        /// Trials that produced a usable model.
        survived: usize,
        /// The configured floor.
        required: usize,
    },
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::WorkerPanicked(m) => {
                write!(f, "candidate training worker panicked: {m}")
            }
            SearchError::TooFewSurvivors { survived, required } => write!(
                f,
                "only {survived} trial(s) survived the search, below the min_trials floor of {required}"
            ),
        }
    }
}

impl std::error::Error for SearchError {}

/// Errors from the AutoML layer.
#[derive(Debug, Clone, PartialEq)]
pub enum AutoMlError {
    /// Invalid configuration value.
    InvalidConfig(String),
    /// Every sampled candidate failed to train.
    AllCandidatesFailed(String),
    /// The search aborted (worker harness failure or too few survivors).
    Search(SearchError),
    /// Error from the model layer.
    Model(aml_models::ModelError),
    /// Error from the dataset layer.
    Data(aml_dataset::DataError),
}

impl std::fmt::Display for AutoMlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AutoMlError::InvalidConfig(m) => write!(f, "invalid AutoML config: {m}"),
            AutoMlError::AllCandidatesFailed(m) => {
                write!(f, "every AutoML candidate failed to train: {m}")
            }
            AutoMlError::Search(e) => write!(f, "search error: {e}"),
            AutoMlError::Model(e) => write!(f, "model error: {e}"),
            AutoMlError::Data(e) => write!(f, "dataset error: {e}"),
        }
    }
}

impl std::error::Error for AutoMlError {}

impl From<SearchError> for AutoMlError {
    fn from(e: SearchError) -> Self {
        AutoMlError::Search(e)
    }
}

impl From<aml_models::ModelError> for AutoMlError {
    fn from(e: aml_models::ModelError) -> Self {
        AutoMlError::Model(e)
    }
}

impl From<aml_dataset::DataError> for AutoMlError {
    fn from(e: aml_dataset::DataError) -> Self {
        AutoMlError::Data(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AutoMlError>;
