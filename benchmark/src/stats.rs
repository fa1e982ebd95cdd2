//! The estimators every reported number goes through.

/// Median of `xs` (mean of the two middle values for an even count).
/// `xs` must be non-empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// First and third quartile by linear interpolation between order
/// statistics.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    (quantile_sorted(&s, 0.25), quantile_sorted(&s, 0.75))
}

/// First quartile: the estimator of every timed sample series. What
/// interference from outside does to a sample is make it larger.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    quartiles(xs).0
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. No interpolation, so the p99 of 10 000
/// job latencies is a latency some job really had.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Geometric mean of positive ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_ignores_one_outlier() {
        assert_eq!(median(&[1.0, 1.1, 0.9, 1.0, 50.0]), 1.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, q3), (2.0, 4.0));
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((q1, q3), (1.75, 3.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // 10 samples: p99 is the maximum, p50 the 5th.
        let ys: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ys, 99.0), 10.0);
        assert_eq!(percentile(&ys, 50.0), 5.0);
    }

    #[test]
    fn geomean_of_reciprocal_pair_is_one() {
        assert!((geomean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[1.1, 1.1, 1.1]) - 1.1).abs() < 1e-12);
    }
}
