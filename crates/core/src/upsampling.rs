//! Label-imbalance correction by random oversampling.
//!
//! The paper's strongest Table-1 baseline: "we compare our solution to a
//! standard data-science solution to label imbalance, upsampling \[13\]".
//! [`random_oversample`] duplicates minority-class rows until every class
//! matches the majority count.

use crate::{CoreError, Result};
use aml_dataset::Dataset;
use aml_rng::rngs::StdRng;
use aml_rng::{Rng, SeedableRng};

/// Duplicate minority-class rows (sampled with replacement) until all
/// classes present reach the majority class count. Returns the augmented
/// dataset (original rows first, duplicates appended).
pub fn random_oversample(data: &Dataset, seed: u64) -> Result<Dataset> {
    if data.is_empty() {
        return Err(CoreError::InvalidParameter("empty dataset".into()));
    }
    let counts = data.class_counts();
    let max = *counts.iter().max().expect("non-empty");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = data.clone();
    for (class, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let members: Vec<usize> = (0..data.n_rows())
            .filter(|&i| data.label(i) == class)
            .collect();
        for _ in count..max {
            let pick = members[rng.gen_range(0..members.len())];
            out.push_row(data.row(pick), class)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imbalanced() -> Dataset {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            rows.push(vec![i as f64, 0.0]);
            labels.push(0usize);
        }
        for i in 0..5 {
            rows.push(vec![100.0 + i as f64, 1.0]);
            labels.push(1usize);
        }
        Dataset::from_rows(&rows, &labels, 2).unwrap()
    }

    #[test]
    fn oversample_balances_counts() {
        let ds = imbalanced();
        let out = random_oversample(&ds, 1).unwrap();
        assert_eq!(out.class_counts(), vec![20, 20]);
        assert_eq!(out.n_rows(), 40);
    }

    #[test]
    fn oversample_only_duplicates_existing_rows() {
        let ds = imbalanced();
        let out = random_oversample(&ds, 2).unwrap();
        for i in ds.n_rows()..out.n_rows() {
            let row = out.row(i);
            let found = (0..ds.n_rows()).any(|j| ds.row(j) == row);
            assert!(found, "row {row:?} is not an original");
        }
    }

    #[test]
    fn balanced_input_is_unchanged() {
        let rows = vec![vec![0.0], vec![1.0], vec![10.0], vec![11.0]];
        let labels = vec![0, 0, 1, 1];
        let ds = Dataset::from_rows(&rows, &labels, 2).unwrap();
        assert_eq!(random_oversample(&ds, 1).unwrap().n_rows(), 4);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let empty = imbalanced().empty_like();
        assert!(random_oversample(&empty, 0).is_err());
    }
}
