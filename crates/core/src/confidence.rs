//! Confidence-based (least-confidence) active learning — "one of the most
//! commonly used active learning solutions" (paper §4).
//!
//! Scores every candidate-pool point by `1 − max_c p(c | x)` under the
//! AutoML ensemble's predicted probability ("we use the prediction
//! probability returned by AutoSKlearn as a measure of confidence") and
//! returns the least-confident points.

use crate::{CoreError, Result};
use aml_dataset::Dataset;
use aml_models::Classifier;

/// Least-confidence score of one row: `1 − max_c p(c|x)`.
pub fn least_confidence(model: &dyn Classifier, row: &[f64]) -> Result<f64> {
    let p = model.predict_proba_row(row)?;
    let max = p.iter().cloned().fold(f64::MIN, f64::max);
    Ok(1.0 - max)
}

/// Select the `n` least-confident pool rows. Ties break toward lower pool
/// index. Returns pool indices sorted by descending uncertainty.
pub fn confidence_select(model: &dyn Classifier, pool: &Dataset, n: usize) -> Result<Vec<usize>> {
    if pool.is_empty() {
        return Err(CoreError::MissingCapability(
            "confidence-based feedback needs a candidate pool".into(),
        ));
    }
    let mut scored: Vec<(f64, usize)> = (0..pool.n_rows())
        .map(|i| Ok((least_confidence(model, pool.row(i))?, i)))
        .collect::<Result<_>>()?;
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("confidences are finite")
            .then(a.1.cmp(&b.1))
    });
    Ok(scored.into_iter().take(n).map(|(_, i)| i).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// p(class 1) = clamp(x, 0, 1): confidence lowest at x = 0.5.
    struct LinearProb;
    impl Classifier for LinearProb {
        fn n_classes(&self) -> usize {
            2
        }
        fn n_features(&self) -> usize {
            1
        }
        fn predict_proba_into(&self, rows: &[f64], out: &mut [f64]) -> aml_models::Result<()> {
            for (row, p) in rows.chunks(1).zip(out.chunks_mut(2)) {
                let x = row[0].clamp(0.0, 1.0);
                p.copy_from_slice(&[1.0 - x, x]);
            }
            Ok(())
        }
        fn name(&self) -> &'static str {
            "linear_prob"
        }
    }

    fn pool(values: &[f64]) -> Dataset {
        let rows: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
        Dataset::from_rows(&rows, &vec![0usize; values.len()], 2).unwrap()
    }

    #[test]
    fn score_peaks_at_decision_boundary() {
        let lc_mid = least_confidence(&LinearProb, &[0.5]).unwrap();
        let lc_edge = least_confidence(&LinearProb, &[0.95]).unwrap();
        assert!((lc_mid - 0.5).abs() < 1e-12);
        assert!(lc_edge < 0.1);
    }

    #[test]
    fn selects_boundary_points_first() {
        let p = pool(&[0.05, 0.45, 0.95, 0.55, 0.30]);
        let picked = confidence_select(&LinearProb, &p, 2).unwrap();
        // 0.45 and 0.55 are the closest to the boundary.
        assert!(picked.contains(&1));
        assert!(picked.contains(&3));
    }

    #[test]
    fn ties_break_by_pool_order() {
        let p = pool(&[0.4, 0.6, 0.4, 0.6]); // all score 0.4
        let picked = confidence_select(&LinearProb, &p, 2).unwrap();
        assert_eq!(picked, vec![0, 1]);
    }

    #[test]
    fn empty_pool_rejected() {
        let p = pool(&[0.5]).empty_like();
        assert!(matches!(
            confidence_select(&LinearProb, &p, 5),
            Err(CoreError::MissingCapability(_))
        ));
    }

    #[test]
    fn cap_respected() {
        let p = pool(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        assert_eq!(confidence_select(&LinearProb, &p, 3).unwrap().len(), 3);
        assert_eq!(confidence_select(&LinearProb, &p, 50).unwrap().len(), 5);
    }
}
