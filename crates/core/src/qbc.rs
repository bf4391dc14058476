//! Query-by-Committee over the AutoML ensemble (paper §4's "QBC for
//! AutoML" baseline).
//!
//! The paper repurposes the AutoML ensemble's members as the QBC committee
//! — "we modify QBC so that it uses the models in the AutoML ensemble as
//! the committee instead of creating a curated ensemble" — and scores each
//! unlabeled candidate-pool point by **vote entropy** (Dagan & Engelson):
//! `H = −Σ_c (v_c/|C|) log (v_c/|C|)` over the committee's hard votes. The
//! highest-entropy points are returned for labeling. "The main difference
//! between this approach and ours is in using ALE-variance instead of
//! entropy."

use crate::{CoreError, Result};
use aml_dataset::Dataset;
use aml_models::{Classifier, SoftVotingEnsemble};

/// Vote entropy of one row under the committee.
pub fn vote_entropy(committee: &[&dyn Classifier], row: &[f64]) -> Result<f64> {
    if committee.is_empty() {
        return Err(CoreError::InvalidParameter("empty committee".into()));
    }
    let n_classes = committee[0].n_classes();
    let mut votes = vec![0usize; n_classes];
    for m in committee {
        votes[m.predict_row(row)?] += 1;
    }
    let total = committee.len() as f64;
    Ok(votes
        .iter()
        .filter(|&&v| v > 0)
        .map(|&v| {
            let p = v as f64 / total;
            -p * p.ln()
        })
        .sum())
}

/// Select the `n` pool rows with the highest vote entropy. Ties break
/// toward lower pool index (deterministic). Returns pool indices sorted by
/// descending entropy.
pub fn qbc_select(ensemble: &SoftVotingEnsemble, pool: &Dataset, n: usize) -> Result<Vec<usize>> {
    if pool.is_empty() {
        return Err(CoreError::MissingCapability(
            "QBC needs a candidate pool".into(),
        ));
    }
    let committee: Vec<&dyn Classifier> = ensemble
        .members()
        .iter()
        .map(|m| m.as_ref() as &dyn Classifier)
        .collect();
    let mut scored: Vec<(f64, usize)> = (0..pool.n_rows())
        .map(|i| Ok((vote_entropy(&committee, pool.row(i))?, i)))
        .collect::<Result<_>>()?;
    // Descending entropy, ascending index on ties.
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
    use std::sync::Arc;

    /// A classifier that thresholds feature 0 at a fixed boundary.
    struct Thresh(f64);
    impl Classifier for Thresh {
        fn n_classes(&self) -> usize {
            2
        }
        fn n_features(&self) -> usize {
            1
        }
        fn predict_proba_into(&self, rows: &[f64], out: &mut [f64]) -> aml_models::Result<()> {
            for (&x, p) in rows.iter().zip(out.chunks_mut(2)) {
                let p1 = if x > self.0 { 0.9 } else { 0.1 };
                p.copy_from_slice(&[1.0 - p1, p1]);
            }
            Ok(())
        }
        fn name(&self) -> &'static str {
            "thresh"
        }
    }

    fn committee_ensemble() -> SoftVotingEnsemble {
        // Committee disagrees exactly on (0.3, 0.7): member boundaries at
        // 0.3, 0.5, 0.7.
        let members: Vec<Arc<dyn Classifier>> = vec![
            Arc::new(Thresh(0.3)),
            Arc::new(Thresh(0.5)),
            Arc::new(Thresh(0.7)),
        ];
        SoftVotingEnsemble::uniform(members).unwrap()
    }

    fn pool(values: &[f64]) -> Dataset {
        let rows: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
        let labels = vec![0usize; values.len()];
        Dataset::from_rows(&rows, &labels, 2).unwrap()
    }

    #[test]
    fn entropy_zero_when_unanimous() {
        let e = committee_ensemble();
        let committee: Vec<&dyn Classifier> = e
            .members()
            .iter()
            .map(|m| m.as_ref() as &dyn Classifier)
            .collect();
        assert_eq!(vote_entropy(&committee, &[0.0]).unwrap(), 0.0);
        assert_eq!(vote_entropy(&committee, &[1.0]).unwrap(), 0.0);
    }

    #[test]
    fn entropy_positive_in_disagreement_zone() {
        let e = committee_ensemble();
        let committee: Vec<&dyn Classifier> = e
            .members()
            .iter()
            .map(|m| m.as_ref() as &dyn Classifier)
            .collect();
        let h = vote_entropy(&committee, &[0.6]).unwrap(); // votes 2:1
        assert!(h > 0.5, "2:1 split entropy {h}");
    }

    #[test]
    fn qbc_picks_disagreement_zone_points() {
        let e = committee_ensemble();
        let p = pool(&[0.05, 0.35, 0.55, 0.65, 0.95, 0.45]);
        let picked = qbc_select(&e, &p, 3).unwrap();
        // Points inside (0.3, 0.7): indices 1 (0.35), 2 (0.55), 3 (0.65),
        // 5 (0.45) — the three picked must all come from that set.
        for &i in &picked {
            let v = p.row(i)[0];
            assert!(
                (0.3..0.7).contains(&v),
                "picked {v} outside disagreement zone"
            );
        }
        assert_eq!(picked.len(), 3);
    }

    #[test]
    fn ties_break_by_pool_order() {
        let e = committee_ensemble();
        // All four points have identical entropy (all 2:1 splits).
        let p = pool(&[0.55, 0.56, 0.57, 0.58]);
        let picked = qbc_select(&e, &p, 2).unwrap();
        assert_eq!(picked, vec![0, 1]);
    }

    #[test]
    fn cap_larger_than_pool_returns_everything() {
        let e = committee_ensemble();
        let p = pool(&[0.1, 0.5]);
        let picked = qbc_select(&e, &p, 99).unwrap();
        assert_eq!(picked.len(), 2);
    }

    #[test]
    fn empty_pool_rejected() {
        let e = committee_ensemble();
        let p = pool(&[0.5]);
        let empty = p.empty_like();
        assert!(matches!(
            qbc_select(&e, &empty, 5),
            Err(CoreError::MissingCapability(_))
        ));
    }
}
