//! # aml-core — Interpretable feedback for AutoML
//!
//! The paper's contribution: when AutoML produces a model whose accuracy
//! disappoints, tell the operator **which regions of feature space to
//! collect more training data from, and why** — in terms a non-ML expert
//! can check against their domain knowledge.
//!
//! ## The algorithm (paper §3)
//!
//! 1. Run AutoML → an ensemble ℳ of diverse models
//!    ([`aml_automl::FittedAutoMl`]).
//! 2. Per model, compute ALE curves per feature
//!    ([`aml_interpret::ale`]).
//! 3. Threshold the cross-model standard deviation of the ALE values with
//!    𝒯 ([`aml_interpret::variance`], [`aml_interpret::region`]).
//! 4. Return the high-variance feature subspaces `∪ᵢ Aᵢx ≤ bᵢ` as sampling
//!    regions plus the mean±std ALE plots as the explanation
//!    ([`ale_feedback::AleAnalysis`]).
//! 5. The operator samples those regions, labels the points, retrains.
//!
//! Two variants ([`ale_feedback::AleMode`]): **Within-ALE** uses the members
//! of one AutoML ensemble as the model bag; **Cross-ALE** uses the full
//! ensembles of several independent AutoML runs (more diverse, more
//! expensive). Each has a pool-restricted variant for head-to-head
//! comparison with active learning.
//!
//! ## Baselines (paper §4)
//!
//! [`uniform`] random sampling, [`confidence`]-based active learning,
//! [`qbc`] (vote-entropy query-by-committee over the AutoML ensemble),
//! [`upsampling`] (random oversampling).
//!
//! ## The experiment loop
//!
//! [`experiment`] packages the evaluate → feedback → augment → retrain →
//! re-evaluate protocol behind Table 1 and §4.2, generic over a
//! [`feedback::Labeler`] (the simulator, the firewall generator, or any
//! oracle).

pub mod ale_feedback;
pub mod checkpoint;
pub mod confidence;
pub mod experiment;
pub mod feedback;
pub mod qbc;
pub mod quality;
pub mod report;
pub mod uniform;
pub mod upsampling;

pub use ale_feedback::{AleAnalysis, AleFeedback, AleMode, InterpretationMethod, ThresholdRule};
pub use checkpoint::{Checkpoint, ExperimentError, ExperimentLoop, RoundRecord};
pub use experiment::{run_strategy, ExperimentConfig, Strategy, StrategyOutcome};
pub use feedback::{Feedback, Labeler, Suggestion};
pub use report::Table;

/// Errors from the feedback layer.
#[derive(Debug)]
pub enum CoreError {
    /// A strategy needed a capability that wasn't provided (e.g. a free
    /// labeler or a candidate pool).
    MissingCapability(String),
    /// Invalid parameter.
    InvalidParameter(String),
    /// No region exceeded the threshold — there is nothing to suggest.
    NoRegions,
    /// AutoML failure.
    AutoMl(aml_automl::AutoMlError),
    /// Interpretation failure.
    Interpret(aml_interpret::InterpretError),
    /// Model failure.
    Model(aml_models::ModelError),
    /// Dataset failure.
    Data(aml_dataset::DataError),
    /// Statistics failure.
    Stats(aml_stats::StatsError),
    /// Experiment-loop persistence failure (checkpoint/resume).
    Experiment(checkpoint::ExperimentError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::MissingCapability(m) => write!(f, "missing capability: {m}"),
            CoreError::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
            CoreError::NoRegions => write!(f, "no feature region exceeds the variance threshold"),
            CoreError::AutoMl(e) => write!(f, "automl error: {e}"),
            CoreError::Interpret(e) => write!(f, "interpretation error: {e}"),
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::Data(e) => write!(f, "dataset error: {e}"),
            CoreError::Stats(e) => write!(f, "stats error: {e}"),
            CoreError::Experiment(e) => write!(f, "experiment error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<aml_automl::AutoMlError> for CoreError {
    fn from(e: aml_automl::AutoMlError) -> Self {
        CoreError::AutoMl(e)
    }
}
impl From<aml_interpret::InterpretError> for CoreError {
    fn from(e: aml_interpret::InterpretError) -> Self {
        CoreError::Interpret(e)
    }
}
impl From<aml_models::ModelError> for CoreError {
    fn from(e: aml_models::ModelError) -> Self {
        CoreError::Model(e)
    }
}
impl From<aml_dataset::DataError> for CoreError {
    fn from(e: aml_dataset::DataError) -> Self {
        CoreError::Data(e)
    }
}
impl From<aml_stats::StatsError> for CoreError {
    fn from(e: aml_stats::StatsError) -> Self {
        CoreError::Stats(e)
    }
}
impl From<checkpoint::ExperimentError> for CoreError {
    fn from(e: checkpoint::ExperimentError) -> Self {
        CoreError::Experiment(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
