//! Train/test splitting utilities implementing the paper's protocols.
//!
//! The evaluation splits data three ways: an initial training set, a test
//! portion that is *further divided into 20 test sets* (for paired Wilcoxon
//! testing), and — for the UCL/firewall experiments — a 40% unlabeled
//! *candidate feedback pool*. [`three_way_split`] and [`split_into_k`]
//! implement exactly that. All shuffles are seeded and deterministic.

use crate::dataset::Dataset;
use crate::{DataError, Result};
use aml_rng::rngs::StdRng;
use aml_rng::seq::SliceRandom;
use aml_rng::SeedableRng;

/// Deterministically shuffle `0..n` with the given seed.
fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    idx
}

/// Split into train and test with `test_fraction` of the rows in the test
/// set. With `stratify = true` the split preserves per-class proportions
/// (each class is shuffled and split independently).
///
/// # Errors
/// Empty dataset, `test_fraction` outside `(0, 1)`, or (stratified) a class
/// with fewer than 2 samples of a represented class.
pub fn train_test_split(
    ds: &Dataset,
    test_fraction: f64,
    stratify: bool,
    seed: u64,
) -> Result<(Dataset, Dataset)> {
    if ds.is_empty() {
        return Err(DataError::Empty);
    }
    if !(test_fraction > 0.0 && test_fraction < 1.0) {
        return Err(DataError::InvalidFraction(test_fraction));
    }
    let (train_idx, test_idx) = if stratify {
        stratified_two_way(ds, test_fraction, seed)?
    } else {
        let idx = shuffled_indices(ds.n_rows(), seed);
        let n_test = ((ds.n_rows() as f64) * test_fraction).round().max(1.0) as usize;
        let n_test = n_test.min(ds.n_rows() - 1);
        (idx[n_test..].to_vec(), idx[..n_test].to_vec())
    };
    Ok((ds.subset(&train_idx)?, ds.subset(&test_idx)?))
}

fn stratified_two_way(
    ds: &Dataset,
    test_fraction: f64,
    seed: u64,
) -> Result<(Vec<usize>, Vec<usize>)> {
    let mut train = Vec::new();
    let mut test = Vec::new();
    for class in 0..ds.n_classes() {
        let mut members: Vec<usize> = (0..ds.n_rows()).filter(|&i| ds.label(i) == class).collect();
        if members.is_empty() {
            continue;
        }
        if members.len() < 2 {
            return Err(DataError::InsufficientClassCount {
                class,
                have: members.len(),
                need: 2,
            });
        }
        let mut rng =
            StdRng::seed_from_u64(seed ^ (class as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        members.shuffle(&mut rng);
        let n_test = ((members.len() as f64) * test_fraction).round().max(1.0) as usize;
        let n_test = n_test.min(members.len() - 1);
        test.extend_from_slice(&members[..n_test]);
        train.extend_from_slice(&members[n_test..]);
    }
    Ok((train, test))
}

/// The paper's three-way protocol for the firewall dataset: 40% train,
/// 20% test, 40% candidate pool (fractions are parameters). Stratified.
///
/// Returns `(train, test, pool)`.
pub fn three_way_split(
    ds: &Dataset,
    train_fraction: f64,
    test_fraction: f64,
    seed: u64,
) -> Result<(Dataset, Dataset, Dataset)> {
    if ds.is_empty() {
        return Err(DataError::Empty);
    }
    if !(train_fraction > 0.0 && test_fraction > 0.0 && train_fraction + test_fraction < 1.0) {
        return Err(DataError::InvalidFraction(train_fraction + test_fraction));
    }
    // First carve off the train portion, then split the remainder into
    // test and pool. Each split is stratified.
    let rest_fraction = 1.0 - train_fraction;
    let (train, rest) = train_test_split(ds, rest_fraction, true, seed)?;
    let test_within_rest = test_fraction / rest_fraction;
    let (pool, test) = train_test_split(&rest, test_within_rest, true, seed ^ 0xABCD_EF01)?;
    Ok((train, test, pool))
}

/// Divide a dataset into `k` (roughly equally sized) disjoint pieces at
/// random — the paper's "divide into 20 test sets" protocol for measuring
/// statistical significance with paired tests.
///
/// # Errors
/// `k == 0` or `k > n_rows`.
pub fn split_into_k(ds: &Dataset, k: usize, seed: u64) -> Result<Vec<Dataset>> {
    if k == 0 || k > ds.n_rows() {
        return Err(DataError::IndexOutOfBounds {
            index: k,
            bound: ds.n_rows() + 1,
        });
    }
    let idx = shuffled_indices(ds.n_rows(), seed);
    let mut out = Vec::with_capacity(k);
    // Distribute remainder one-per-chunk so sizes differ by at most 1.
    let base = ds.n_rows() / k;
    let extra = ds.n_rows() % k;
    let mut start = 0;
    for piece in 0..k {
        let len = base + usize::from(piece < extra);
        out.push(ds.subset(&idx[start..start + len])?);
        start += len;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    fn ds() -> Dataset {
        synth::gaussian_blobs(120, 3, 3, 1.0, 99).unwrap()
    }

    #[test]
    fn split_sizes_add_up() {
        let d = ds();
        let (train, test) = train_test_split(&d, 0.25, false, 1).unwrap();
        assert_eq!(train.n_rows() + test.n_rows(), d.n_rows());
        assert_eq!(test.n_rows(), 30);
    }

    #[test]
    fn split_is_deterministic_and_seed_sensitive() {
        let d = ds();
        let (a, _) = train_test_split(&d, 0.3, false, 5).unwrap();
        let (b, _) = train_test_split(&d, 0.3, false, 5).unwrap();
        let (c, _) = train_test_split(&d, 0.3, false, 6).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stratified_split_preserves_proportions() {
        let d = ds(); // 3 balanced classes
        let (train, test) = train_test_split(&d, 0.25, true, 2).unwrap();
        let tc = test.class_counts();
        // 120 rows, 3 classes of 40, 25% test → 10 per class.
        assert_eq!(tc, vec![10, 10, 10]);
        assert_eq!(train.class_counts(), vec![30, 30, 30]);
    }

    #[test]
    fn split_rejects_bad_fraction() {
        let d = ds();
        assert!(train_test_split(&d, 0.0, false, 0).is_err());
        assert!(train_test_split(&d, 1.0, false, 0).is_err());
    }

    #[test]
    fn three_way_matches_paper_fractions() {
        let d = ds();
        let (train, test, pool) = three_way_split(&d, 0.4, 0.2, 3).unwrap();
        assert_eq!(train.n_rows() + test.n_rows() + pool.n_rows(), d.n_rows());
        // 40/20/40 on 120 rows
        assert!((train.n_rows() as i64 - 48).abs() <= 3);
        assert!((test.n_rows() as i64 - 24).abs() <= 3);
        assert!((pool.n_rows() as i64 - 48).abs() <= 3);
    }

    #[test]
    fn split_into_k_is_a_partition() {
        let d = ds();
        let pieces = split_into_k(&d, 7, 11).unwrap();
        assert_eq!(pieces.len(), 7);
        let total: usize = pieces.iter().map(|p| p.n_rows()).sum();
        assert_eq!(total, d.n_rows());
        let sizes: Vec<usize> = pieces.iter().map(|p| p.n_rows()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes must be balanced: {sizes:?}");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::synth;
    use aml_propcheck::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any split partitions the rows: no loss, no duplication (checked
        /// by total count and by per-class counts).
        #[test]
        fn prop_split_partitions(
            n in 10usize..200,
            frac in 0.1f64..0.9,
            seed in 0u64..1000,
            stratify in aml_propcheck::bool::ANY,
        ) {
            let d = synth::gaussian_blobs(n, 2, 2, 1.0, seed).unwrap();
            prop_assume!(d.class_counts().iter().all(|&c| c >= 2));
            let (train, test) = train_test_split(&d, frac, stratify, seed).unwrap();
            prop_assert_eq!(train.n_rows() + test.n_rows(), d.n_rows());
            let tc = train.class_counts();
            let sc = test.class_counts();
            let dc = d.class_counts();
            for c in 0..d.n_classes() {
                prop_assert_eq!(tc[c] + sc[c], dc[c]);
            }
        }

        /// split_into_k always balances piece sizes within 1.
        #[test]
        fn prop_k_split_balanced(n in 20usize..150, k in 2usize..15, seed in 0u64..100) {
            let d = synth::gaussian_blobs(n, 2, 2, 1.0, seed).unwrap();
            let pieces = split_into_k(&d, k, seed).unwrap();
            let sizes: Vec<usize> = pieces.iter().map(|p| p.n_rows()).collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            prop_assert!(max - min <= 1);
            prop_assert_eq!(sizes.iter().sum::<usize>(), n);
        }
    }
}
