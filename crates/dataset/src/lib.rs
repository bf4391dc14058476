//! # aml-dataset
//!
//! Tabular dataset representation shared by every crate in the workspace:
//! a dense row-major feature matrix with integer class labels, per-feature
//! metadata (name + value domain `R(X_s)` — the feedback algorithm needs
//! the domain of every feature to suggest sampling regions), train/test
//! splitting utilities implementing the paper's evaluation protocols
//! (stratified splits, the "divide the test data into 20 test sets"
//! scheme, repeated resplits), CSV I/O, and synthetic toy generators used
//! by tests and the quickstart example.
//!
//! ## Example
//!
//! ```
//! use aml_dataset::{synth, split::train_test_split};
//!
//! let ds = synth::gaussian_blobs(200, 2, 3, 1.5, 42).unwrap();
//! let (train, test) = train_test_split(&ds, 0.25, true, 7).unwrap();
//! assert_eq!(train.n_rows() + test.n_rows(), 200);
//! assert_eq!(train.n_features(), 2);
//! ```

pub mod csv;
pub mod dataset;
pub mod feature;
pub mod split;
pub mod synth;

pub use dataset::Dataset;
pub use feature::{FeatureDomain, FeatureMeta};
pub use split::train_test_split;

/// Errors produced by dataset manipulation.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// A row had the wrong number of features.
    DimensionMismatch {
        /// Expected number of features.
        expected: usize,
        /// Number of features actually provided.
        got: usize,
    },
    /// The dataset (or a requested subset) is empty.
    Empty,
    /// An index was out of bounds.
    IndexOutOfBounds {
        /// Offending index.
        index: usize,
        /// Exclusive bound.
        bound: usize,
    },
    /// A fraction/probability argument was outside its valid range.
    InvalidFraction(f64),
    /// Label value exceeds the declared number of classes.
    InvalidLabel {
        /// Offending label.
        label: usize,
        /// Declared class count.
        n_classes: usize,
    },
    /// CSV parsing failed before any row was read (empty input, bad
    /// header shape). Row-level failures use [`DataError::Csv`].
    Parse(String),
    /// CSV parsing failed at a specific line. `line` is 1-based and
    /// counts the header, so it matches what an editor or `sed -n`
    /// shows for the offending row.
    Csv {
        /// 1-based line number in the input text.
        line: usize,
        /// What went wrong on that line.
        message: String,
    },
    /// Underlying I/O failure (file read/write).
    Io(String),
    /// A feature value was NaN or infinite.
    NonFinite,
    /// Stratified splitting needs every class present in sufficient count.
    InsufficientClassCount {
        /// The class that was too rare.
        class: usize,
        /// How many samples of it existed.
        have: usize,
        /// How many were needed.
        need: usize,
    },
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::DimensionMismatch { expected, got } => {
                write!(f, "row has {got} features, dataset expects {expected}")
            }
            DataError::Empty => write!(f, "dataset is empty"),
            DataError::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds (< {bound})")
            }
            DataError::InvalidFraction(x) => write!(f, "fraction {x} outside (0, 1)"),
            DataError::InvalidLabel { label, n_classes } => {
                write!(f, "label {label} >= n_classes {n_classes}")
            }
            DataError::Parse(m) => write!(f, "CSV parse error: {m}"),
            DataError::Csv { line, message } => {
                write!(f, "CSV parse error at line {line}: {message}")
            }
            DataError::Io(m) => write!(f, "I/O error: {m}"),
            DataError::NonFinite => write!(f, "feature value is NaN or infinite"),
            DataError::InsufficientClassCount { class, have, need } => {
                write!(f, "class {class} has {have} samples, need at least {need}")
            }
        }
    }
}

impl std::error::Error for DataError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataError>;
