//! Order statistics and the sample-count rule for reported percentiles.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Arithmetic mean of `xs`; `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Percentiles the benchmark may report, lowest first.
const PERCENTILES: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The highest percentile with at least [`MIN_TAIL_SAMPLES`] of `n`
/// samples beyond it, or `None` when not even the median qualifies.
pub fn highest_reportable_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= MIN_TAIL_SAMPLES as f64)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_ignores_one_outlier() {
        assert_eq!(median(&[1.0, 1.1, 0.9, 1.0, 250.0]), Some(1.0));
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn sample_count_rule_needs_ten_beyond() {
        assert_eq!(highest_reportable_percentile(19), None);
        assert_eq!(highest_reportable_percentile(20), Some(50.0));
        assert_eq!(highest_reportable_percentile(39), Some(50.0));
        assert_eq!(highest_reportable_percentile(40), Some(75.0));
        assert_eq!(highest_reportable_percentile(100), Some(90.0));
        assert_eq!(highest_reportable_percentile(200), Some(95.0));
        assert_eq!(highest_reportable_percentile(1000), Some(99.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
