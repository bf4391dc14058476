//! # aml-models
//!
//! From-scratch classical ML classifiers, the building blocks of the
//! mini-AutoML system (`aml-automl`). The paper relies on auto-sklearn,
//! whose accuracy comes from "ensembles which contain a set of diverse ML
//! models with uncorrelated errors" — so this crate provides the diversity:
//!
//! * [`tree::DecisionTree`] — CART with gini/entropy, best or random splits
//! * [`forest::RandomForest`] — bagged trees with feature subsampling
//! * [`forest::ExtraTrees`] — extremely randomized trees
//! * [`gbdt::GradientBoosting`] — one-vs-rest boosted regression trees on
//!   logistic loss
//! * [`adaboost::AdaBoost`] — AdaBoost.SAMME over shallow trees
//! * [`knn::KNearestNeighbors`] — brute-force kNN with optional distance
//!   weighting
//! * [`naive_bayes::GaussianNaiveBayes`]
//! * [`logistic::LogisticRegression`] — multinomial softmax, L2, full-batch
//!   gradient descent
//! * [`linear_svm::LinearSvm`] — one-vs-rest hinge loss via SGD with
//!   softmax-over-margins probability calibration
//!
//! plus preprocessing ([`preprocess`]), pipelines ([`pipeline`]), soft-voting
//! ensembles ([`ensemble`]) and the evaluation metrics the paper reports
//! ([`metrics::balanced_accuracy`] et al.).
//!
//! All five tree families are built on one tree learner in [`tree`]: one
//! node arena, one depth-first grower, one split scan and one leaf walk,
//! parameterised by the node statistic (class-weight counts for the
//! classifiers, squared error for GBDT's regression trees).
//!
//! Every classifier implements the object-safe [`Classifier`] trait
//! (the batch `predict_proba_into` is the only required prediction
//! method), takes an explicit seed where stochastic, and returns `Result`
//! rather than panicking on malformed input.

pub mod adaboost;
pub mod ensemble;
pub mod forest;
pub mod gbdt;
pub mod knn;
pub mod linear_svm;
pub mod logistic;
pub mod metrics;
pub mod model;
pub mod naive_bayes;
pub mod pipeline;
pub mod preprocess;
mod regression;
pub mod tree;

pub use adaboost::AdaBoost;
pub use ensemble::SoftVotingEnsemble;
pub use forest::{ExtraTrees, RandomForest};
pub use gbdt::GradientBoosting;
pub use knn::KNearestNeighbors;
pub use linear_svm::LinearSvm;
pub use logistic::LogisticRegression;
pub use model::Classifier;
pub use naive_bayes::GaussianNaiveBayes;
pub use pipeline::Pipeline;
pub use tree::DecisionTree;

/// Errors produced while fitting or evaluating models.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// Training data was empty.
    EmptyTrainingSet,
    /// A hyperparameter had an invalid value.
    InvalidHyperparameter(String),
    /// Prediction input had the wrong number of features.
    DimensionMismatch {
        /// Expected number of features (for a batch, of values).
        expected: usize,
        /// Provided number of features (for a batch, of values).
        got: usize,
    },
    /// The model has not been fitted (internal misuse).
    NotFitted,
    /// Training data contained fewer than two classes with samples.
    SingleClass,
    /// Numerical failure (non-finite loss/weights) during optimization.
    NumericalFailure(String),
    /// Error bubbled up from the dataset layer.
    Data(aml_dataset::DataError),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::EmptyTrainingSet => write!(f, "training set is empty"),
            ModelError::InvalidHyperparameter(m) => write!(f, "invalid hyperparameter: {m}"),
            ModelError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} features, got {got}")
            }
            ModelError::NotFitted => write!(f, "model is not fitted"),
            ModelError::SingleClass => write!(f, "training data contains a single class"),
            ModelError::NumericalFailure(m) => write!(f, "numerical failure: {m}"),
            ModelError::Data(e) => write!(f, "dataset error: {e}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<aml_dataset::DataError> for ModelError {
    fn from(e: aml_dataset::DataError) -> Self {
        ModelError::Data(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ModelError>;
