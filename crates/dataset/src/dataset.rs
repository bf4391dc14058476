//! Dense, row-major tabular dataset with integer class labels.
//!
//! Rows are samples, columns are features. Labels are class indices in
//! `0..n_classes`. The representation is deliberately simple — a flat
//! `Vec<f64>` — because every consumer (trees, kNN, ALE grids, SMOTE)
//! iterates rows or columns linearly and cache-friendliness beats
//! abstraction here.

use crate::feature::{FeatureDomain, FeatureMeta};
use crate::{DataError, Result};

/// A labelled tabular dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Flat row-major feature matrix, `n_rows * n_features` entries.
    data: Vec<f64>,
    /// Class label per row, values in `0..n_classes`.
    labels: Vec<usize>,
    /// Number of feature columns.
    n_features: usize,
    /// Number of classes (fixed at construction; may exceed the number of
    /// classes actually present in a subset).
    n_classes: usize,
    /// Per-feature metadata.
    features: Vec<FeatureMeta>,
    /// Human-readable class names, `n_classes` entries.
    class_names: Vec<String>,
}

impl Dataset {
    /// Create an empty dataset with the given schema.
    ///
    /// # Errors
    /// [`DataError::DimensionMismatch`] if `class_names.len() != n_classes`
    /// is violated (class names must cover every class).
    pub fn new(features: Vec<FeatureMeta>, class_names: Vec<String>) -> Result<Self> {
        if class_names.is_empty() {
            return Err(DataError::Empty);
        }
        Ok(Dataset {
            data: Vec::new(),
            labels: Vec::new(),
            n_features: features.len(),
            n_classes: class_names.len(),
            features,
            class_names,
        })
    }

    /// Convenience constructor with auto-named features (`x0`, `x1`, …) and
    /// classes (`class0`, …), inferring domains from the provided rows
    /// (with a 5% margin so the domain is not degenerate at the extremes).
    pub fn from_rows(rows: &[Vec<f64>], labels: &[usize], n_classes: usize) -> Result<Self> {
        if rows.is_empty() {
            return Err(DataError::Empty);
        }
        if rows.len() != labels.len() {
            return Err(DataError::DimensionMismatch {
                expected: rows.len(),
                got: labels.len(),
            });
        }
        let n_features = rows[0].len();
        let mut lo = vec![f64::INFINITY; n_features];
        let mut hi = vec![f64::NEG_INFINITY; n_features];
        for row in rows {
            if row.len() != n_features {
                return Err(DataError::DimensionMismatch {
                    expected: n_features,
                    got: row.len(),
                });
            }
            for (j, &v) in row.iter().enumerate() {
                if !v.is_finite() {
                    return Err(DataError::NonFinite);
                }
                lo[j] = lo[j].min(v);
                hi[j] = hi[j].max(v);
            }
        }
        let features = (0..n_features)
            .map(|j| {
                let margin = 0.05 * (hi[j] - lo[j]).max(1e-9);
                FeatureMeta::continuous(format!("x{j}"), lo[j] - margin, hi[j] + margin)
            })
            .collect();
        let class_names = (0..n_classes).map(|c| format!("class{c}")).collect();
        let mut ds = Dataset::new(features, class_names)?;
        for (row, &label) in rows.iter().zip(labels) {
            ds.push_row(row, label)?;
        }
        Ok(ds)
    }

    /// Append one sample.
    ///
    /// # Errors
    /// Dimension mismatch, non-finite values, or an out-of-range label.
    pub fn push_row(&mut self, row: &[f64], label: usize) -> Result<()> {
        if row.len() != self.n_features {
            return Err(DataError::DimensionMismatch {
                expected: self.n_features,
                got: row.len(),
            });
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Err(DataError::NonFinite);
        }
        if label >= self.n_classes {
            return Err(DataError::InvalidLabel {
                label,
                n_classes: self.n_classes,
            });
        }
        self.data.extend_from_slice(row);
        self.labels.push(label);
        Ok(())
    }

    /// Append every row of `other` (schemas must be dimension-compatible).
    pub fn extend(&mut self, other: &Dataset) -> Result<()> {
        if other.n_features != self.n_features {
            return Err(DataError::DimensionMismatch {
                expected: self.n_features,
                got: other.n_features,
            });
        }
        for i in 0..other.n_rows() {
            self.push_row(other.row(i), other.label(i))?;
        }
        Ok(())
    }

    /// Number of samples.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes declared at construction.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Borrow row `i` as a feature slice.
    ///
    /// # Panics
    /// If `i >= n_rows()` — row indices are internal invariants; use
    /// [`Dataset::try_row`] for untrusted indices.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Checked row access.
    pub fn try_row(&self, i: usize) -> Result<&[f64]> {
        if i >= self.n_rows() {
            return Err(DataError::IndexOutOfBounds {
                index: i,
                bound: self.n_rows(),
            });
        }
        Ok(self.row(i))
    }

    /// Every row's features, row-major (`n_rows() * n_features()` values).
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Label of row `i`.
    ///
    /// # Panics
    /// If `i >= n_rows()`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Copy column `j` into a vector.
    pub fn column(&self, j: usize) -> Result<Vec<f64>> {
        if j >= self.n_features {
            return Err(DataError::IndexOutOfBounds {
                index: j,
                bound: self.n_features,
            });
        }
        Ok((0..self.n_rows()).map(|i| self.row(i)[j]).collect())
    }

    /// Feature metadata.
    pub fn features(&self) -> &[FeatureMeta] {
        &self.features
    }

    /// Domain of feature `j`.
    pub fn domain(&self, j: usize) -> Result<FeatureDomain> {
        self.features
            .get(j)
            .map(|f| f.domain)
            .ok_or(DataError::IndexOutOfBounds {
                index: j,
                bound: self.n_features,
            })
    }

    /// Index of the feature named `name`, if any.
    pub fn feature_index(&self, name: &str) -> Option<usize> {
        self.features.iter().position(|f| f.name == name)
    }

    /// Class names.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Count of samples per class (length `n_classes`).
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// A new dataset containing the rows at `indices` (in that order),
    /// sharing this dataset's schema. Duplicate indices are allowed (used by
    /// upsampling).
    pub fn subset(&self, indices: &[usize]) -> Result<Dataset> {
        let mut out = self.empty_like();
        for &i in indices {
            out.push_row(self.try_row(i)?, self.labels[i])?;
        }
        Ok(out)
    }

    /// An empty dataset with the same schema.
    pub fn empty_like(&self) -> Dataset {
        Dataset {
            data: Vec::new(),
            labels: Vec::new(),
            n_features: self.n_features,
            n_classes: self.n_classes,
            features: self.features.clone(),
            class_names: self.class_names.clone(),
        }
    }

    /// True when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Replace the feature metadata (names/domains), keeping the data. Used
    /// by generators that know tighter domains than the observed min/max.
    pub fn set_features(&mut self, features: Vec<FeatureMeta>) -> Result<()> {
        if features.len() != self.n_features {
            return Err(DataError::DimensionMismatch {
                expected: self.n_features,
                got: features.len(),
            });
        }
        self.features = features;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_feature_ds() -> Dataset {
        let mut ds = Dataset::new(
            vec![
                FeatureMeta::continuous("a", 0.0, 10.0),
                FeatureMeta::continuous("b", -1.0, 1.0),
            ],
            vec!["neg".into(), "pos".into()],
        )
        .unwrap();
        ds.push_row(&[1.0, 0.5], 0).unwrap();
        ds.push_row(&[2.0, -0.5], 1).unwrap();
        ds.push_row(&[3.0, 0.0], 1).unwrap();
        ds
    }

    #[test]
    fn push_and_access() {
        let ds = two_feature_ds();
        assert_eq!(ds.n_rows(), 3);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.row(1), &[2.0, -0.5]);
        assert_eq!(ds.label(2), 1);
        assert_eq!(ds.column(0).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut ds = two_feature_ds();
        assert!(matches!(
            ds.push_row(&[1.0], 0),
            Err(DataError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn bad_label_rejected() {
        let mut ds = two_feature_ds();
        assert!(matches!(
            ds.push_row(&[0.0, 0.0], 5),
            Err(DataError::InvalidLabel { .. })
        ));
    }

    #[test]
    fn nan_rejected() {
        let mut ds = two_feature_ds();
        assert_eq!(ds.push_row(&[f64::NAN, 0.0], 0), Err(DataError::NonFinite));
    }

    #[test]
    fn class_counts() {
        let ds = two_feature_ds();
        assert_eq!(ds.class_counts(), vec![1, 2]);
    }

    #[test]
    fn subset_preserves_order_and_allows_duplicates() {
        let ds = two_feature_ds();
        let sub = ds.subset(&[2, 0, 2]).unwrap();
        assert_eq!(sub.n_rows(), 3);
        assert_eq!(sub.row(0), &[3.0, 0.0]);
        assert_eq!(sub.row(1), &[1.0, 0.5]);
        assert_eq!(sub.row(2), &[3.0, 0.0]);
        assert_eq!(sub.labels(), &[1, 0, 1]);
    }

    #[test]
    fn subset_out_of_bounds() {
        let ds = two_feature_ds();
        assert!(matches!(
            ds.subset(&[9]),
            Err(DataError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn from_rows_infers_domains_with_margin() {
        let rows = vec![vec![0.0, 10.0], vec![4.0, 20.0]];
        let ds = Dataset::from_rows(&rows, &[0, 1], 2).unwrap();
        let d0 = ds.domain(0).unwrap();
        assert!(d0.lo() < 0.0 && d0.hi() > 4.0);
        assert_eq!(ds.feature_index("x1"), Some(1));
    }

    #[test]
    fn extend_appends_rows() {
        let mut a = two_feature_ds();
        let b = two_feature_ds();
        a.extend(&b).unwrap();
        assert_eq!(a.n_rows(), 6);
    }

    #[test]
    fn empty_like_shares_schema() {
        let ds = two_feature_ds();
        let e = ds.empty_like();
        assert!(e.is_empty());
        assert_eq!(e.n_features(), 2);
        assert_eq!(e.class_names(), ds.class_names());
    }

    #[test]
    fn ragged_from_rows_rejected() {
        let rows = vec![vec![0.0, 1.0], vec![2.0]];
        assert!(Dataset::from_rows(&rows, &[0, 0], 1).is_err());
    }
}
