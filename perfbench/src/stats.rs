//! Order statistics over wall-time samples.

/// Sorted copy of `xs` (NaN-free input; wall times never are NaN).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("wall-time samples are never NaN"));
    v
}

/// Median; the mean of the two middle samples when the count is even.
///
/// # Panics
/// On an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0 (a count the workload never makes).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples. Computed in
/// integer tenths of a percent so that e.g. p99.9 of 10 000 samples is
/// rank 9 990 exactly, not one more from float rounding.
fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `xs`.
///
/// # Panics
/// On an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let v = sorted(xs);
    v[rank(p, v.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// Fewest samples that leave at least ten beyond percentile `p`: a run
/// reports a tail percentile only with that many.
pub fn samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(p, n) >= 10)
        .expect("some count suffices")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(90.0, 100), 10);
        // 99 samples: rank 90 leaves only 9 above, so p90 is not supported.
        assert_eq!(beyond(90.0, 99), 9);
        assert_eq!(samples_for(90.0), 100);
        assert_eq!(beyond(50.0, 19), 9);
        assert_eq!(samples_for(50.0), 20);
    }

    #[test]
    fn higher_percentiles_need_more_samples() {
        assert_eq!(samples_for(99.0), 1000);
        // Integer rank arithmetic: p99.9 of 10 000 is rank 9 990 exactly.
        assert_eq!(beyond(99.9, 10_000), 10);
        assert_eq!(samples_for(99.9), 10_000);
        assert_eq!(beyond(90.0, 0), 0);
    }
}
