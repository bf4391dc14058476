//! Additional uncertainty-sampling active-learning baselines: smallest
//! margin and predictive entropy.
//!
//! The paper's §6 surveys the active-learning family ("uncertainty sampling
//! \[32\]" et al.); least-confidence ([`crate::confidence`]) is the variant
//! its evaluation uses, and these two complete the classic trio — useful
//! for the extended baseline comparisons in the ablation benches.

use crate::{CoreError, Result};
use aml_dataset::Dataset;
use aml_models::Classifier;

/// Margin score: `p(top1) − p(top2)`, *smaller = more uncertain*.
pub fn margin(model: &dyn Classifier, row: &[f64]) -> Result<f64> {
    let p = model.predict_proba_row(row)?;
    if p.len() < 2 {
        return Err(CoreError::InvalidParameter(
            "margin sampling needs >= 2 classes".into(),
        ));
    }
    let (mut top1, mut top2) = (f64::MIN, f64::MIN);
    for &v in &p {
        if v > top1 {
            top2 = top1;
            top1 = v;
        } else if v > top2 {
            top2 = v;
        }
    }
    Ok(top1 - top2)
}

/// Predictive entropy `−Σ p ln p` (natural log), *larger = more uncertain*.
pub fn predictive_entropy(model: &dyn Classifier, row: &[f64]) -> Result<f64> {
    let p = model.predict_proba_row(row)?;
    Ok(p.iter().filter(|&&v| v > 0.0).map(|&v| -v * v.ln()).sum())
}

/// Select the `n` smallest-margin pool rows (ties → lower index).
pub fn margin_select(model: &dyn Classifier, pool: &Dataset, n: usize) -> Result<Vec<usize>> {
    if pool.is_empty() {
        return Err(CoreError::MissingCapability(
            "margin sampling needs a candidate pool".into(),
        ));
    }
    let mut scored: Vec<(f64, usize)> = (0..pool.n_rows())
        .map(|i| Ok((margin(model, pool.row(i))?, i)))
        .collect::<Result<_>>()?;
    scored.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("margins are finite")
            .then(a.1.cmp(&b.1))
    });
    Ok(scored.into_iter().take(n).map(|(_, i)| i).collect())
}

/// Select the `n` highest-entropy pool rows (ties → lower index).
pub fn entropy_select(model: &dyn Classifier, pool: &Dataset, n: usize) -> Result<Vec<usize>> {
    if pool.is_empty() {
        return Err(CoreError::MissingCapability(
            "entropy sampling needs a candidate pool".into(),
        ));
    }
    let mut scored: Vec<(f64, usize)> = (0..pool.n_rows())
        .map(|i| Ok((predictive_entropy(model, pool.row(i))?, i)))
        .collect::<Result<_>>()?;
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("entropies are finite")
            .then(a.1.cmp(&b.1))
    });
    Ok(scored.into_iter().take(n).map(|(_, i)| i).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// p(class 1) = clamp(x, 0, 1).
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
    fn margin_is_zero_at_the_boundary() {
        assert!(margin(&LinearProb, &[0.5]).unwrap().abs() < 1e-12);
        assert!((margin(&LinearProb, &[1.0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_peaks_at_the_boundary() {
        let mid = predictive_entropy(&LinearProb, &[0.5]).unwrap();
        let edge = predictive_entropy(&LinearProb, &[0.99]).unwrap();
        assert!((mid - std::f64::consts::LN_2).abs() < 1e-9, "H(0.5) = ln 2");
        assert!(edge < mid);
    }

    #[test]
    fn both_selectors_prefer_boundary_points() {
        let p = pool(&[0.1, 0.48, 0.9, 0.52, 0.02]);
        assert_eq!(margin_select(&LinearProb, &p, 2).unwrap(), vec![1, 3]);
        let e = entropy_select(&LinearProb, &p, 2).unwrap();
        assert!(e.contains(&1) && e.contains(&3));
    }

    #[test]
    fn in_binary_problems_margin_and_entropy_rank_identically() {
        // Binary case: all three uncertainty measures are monotone in
        // |p − 0.5|, so the selected sets agree (values chosen with
        // distinct |p − 0.5| so floating-point summation order can't flip
        // near-ties).
        let p = pool(&[0.3, 0.45, 0.72, 0.55, 0.05, 0.95]);
        let m: std::collections::BTreeSet<usize> = margin_select(&LinearProb, &p, 3)
            .unwrap()
            .into_iter()
            .collect();
        let e: std::collections::BTreeSet<usize> = entropy_select(&LinearProb, &p, 3)
            .unwrap()
            .into_iter()
            .collect();
        assert_eq!(m, e);
    }

    #[test]
    fn empty_pool_rejected() {
        let empty = pool(&[0.5]).empty_like();
        assert!(margin_select(&LinearProb, &empty, 1).is_err());
        assert!(entropy_select(&LinearProb, &empty, 1).is_err());
    }
}
