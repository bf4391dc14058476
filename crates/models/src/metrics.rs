//! Classification metrics.
//!
//! The paper's headline metric is **balanced accuracy** — "we use this
//! metric to avoid biases due to label imbalance" — i.e. the unweighted mean
//! of per-class recalls. We also provide plain accuracy, confusion matrices
//! and log-loss.

use crate::{ModelError, Result};

/// Fraction of predictions equal to the true label.
pub fn accuracy(y_true: &[usize], y_pred: &[usize]) -> Result<f64> {
    check_paired(y_true, y_pred)?;
    let hits = y_true.iter().zip(y_pred).filter(|(a, b)| a == b).count();
    Ok(hits as f64 / y_true.len() as f64)
}

/// Balanced accuracy: mean recall over classes that appear in `y_true`.
///
/// Matches `sklearn.metrics.balanced_accuracy_score`: classes absent from
/// `y_true` are ignored rather than contributing zero.
pub fn balanced_accuracy(y_true: &[usize], y_pred: &[usize], n_classes: usize) -> Result<f64> {
    check_paired(y_true, y_pred)?;
    let cm = confusion_matrix(y_true, y_pred, n_classes)?;
    let mut recall_sum = 0.0;
    let mut present = 0usize;
    for (c, row) in cm.iter().enumerate() {
        let support: usize = row.iter().sum();
        if support > 0 {
            recall_sum += row[c] as f64 / support as f64;
            present += 1;
        }
    }
    if present == 0 {
        return Err(ModelError::EmptyTrainingSet);
    }
    Ok(recall_sum / present as f64)
}

/// Confusion matrix `cm[true][pred]`.
pub fn confusion_matrix(
    y_true: &[usize],
    y_pred: &[usize],
    n_classes: usize,
) -> Result<Vec<Vec<usize>>> {
    check_paired(y_true, y_pred)?;
    let mut cm = vec![vec![0usize; n_classes]; n_classes];
    for (&t, &p) in y_true.iter().zip(y_pred) {
        if t >= n_classes || p >= n_classes {
            return Err(ModelError::InvalidHyperparameter(format!(
                "label {} exceeds n_classes {}",
                t.max(p),
                n_classes
            )));
        }
        cm[t][p] += 1;
    }
    Ok(cm)
}

/// Multiclass logarithmic loss, probabilities clipped to `[1e-15, 1-1e-15]`.
pub fn log_loss(y_true: &[usize], proba: &[Vec<f64>]) -> Result<f64> {
    if y_true.len() != proba.len() {
        return Err(ModelError::DimensionMismatch {
            expected: y_true.len(),
            got: proba.len(),
        });
    }
    if y_true.is_empty() {
        return Err(ModelError::EmptyTrainingSet);
    }
    let mut total = 0.0;
    for (&t, p) in y_true.iter().zip(proba) {
        if t >= p.len() {
            return Err(ModelError::InvalidHyperparameter(format!(
                "label {t} exceeds probability vector length {}",
                p.len()
            )));
        }
        total -= p[t].clamp(1e-15, 1.0 - 1e-15).ln();
    }
    Ok(total / y_true.len() as f64)
}

fn check_paired(a: &[usize], b: &[usize]) -> Result<()> {
    if a.len() != b.len() {
        return Err(ModelError::DimensionMismatch {
            expected: a.len(),
            got: b.len(),
        });
    }
    if a.is_empty() {
        return Err(ModelError::EmptyTrainingSet);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1, 1, 0], &[0, 1, 0, 0]).unwrap(), 0.75);
    }

    #[test]
    fn balanced_accuracy_corrects_for_imbalance() {
        // 9 of class 0, 1 of class 1; predicting all-zero gives 90% accuracy
        // but only 50% balanced accuracy.
        let y_true = [0, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        let y_pred = [0; 10];
        assert_eq!(accuracy(&y_true, &y_pred).unwrap(), 0.9);
        assert_eq!(balanced_accuracy(&y_true, &y_pred, 2).unwrap(), 0.5);
    }

    #[test]
    fn balanced_accuracy_ignores_absent_classes() {
        // 3 classes declared, only 2 present in y_true.
        let y_true = [0, 0, 1, 1];
        let y_pred = [0, 1, 1, 1];
        let ba = balanced_accuracy(&y_true, &y_pred, 3).unwrap();
        assert!((ba - 0.75).abs() < 1e-12);
    }

    #[test]
    fn confusion_matrix_layout() {
        let cm = confusion_matrix(&[0, 1, 1], &[1, 1, 0], 2).unwrap();
        assert_eq!(cm, vec![vec![0, 1], vec![1, 1]]);
    }

    #[test]
    fn perfect_prediction_scores_one() {
        let y = [0, 1, 2, 1, 0];
        assert_eq!(accuracy(&y, &y).unwrap(), 1.0);
        assert_eq!(balanced_accuracy(&y, &y, 3).unwrap(), 1.0);
    }

    #[test]
    fn log_loss_of_confident_correct_is_small() {
        let l = log_loss(&[0, 1], &[vec![0.99, 0.01], vec![0.01, 0.99]]).unwrap();
        assert!(l < 0.02);
        let bad = log_loss(&[0], &[vec![0.0, 1.0]]).unwrap();
        assert!(bad > 30.0, "clipped log loss is large but finite: {bad}");
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert!(accuracy(&[0], &[0, 1]).is_err());
        assert!(log_loss(&[0, 1], &[vec![1.0, 0.0]]).is_err());
    }

    #[test]
    fn out_of_range_label_rejected() {
        assert!(confusion_matrix(&[5], &[0], 2).is_err());
        assert!(log_loss(&[3], &[vec![0.5, 0.5]]).is_err());
    }

    #[test]
    fn empty_eval_split_is_a_typed_error_not_nan() {
        // The quality plane feeds eval predictions straight into these;
        // an empty split must surface as an error the caller can guard,
        // never as a silent NaN that would poison quality.json.
        assert!(matches!(
            accuracy(&[], &[]),
            Err(ModelError::EmptyTrainingSet)
        ));
        assert!(matches!(
            confusion_matrix(&[], &[], 2),
            Err(ModelError::EmptyTrainingSet)
        ));
        assert!(matches!(
            balanced_accuracy(&[], &[], 2),
            Err(ModelError::EmptyTrainingSet)
        ));
        assert!(matches!(
            log_loss(&[], &[]),
            Err(ModelError::EmptyTrainingSet)
        ));
    }
}
