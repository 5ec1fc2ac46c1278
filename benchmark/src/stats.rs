//! Sample arithmetic: nearest-rank percentiles and medians.

/// Nearest-rank percentile of `samples` (sorted in place): the smallest
/// value with at least `p` of the samples at or below it. `0.0` for an
/// empty sample.
pub fn percentile(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(percentile(&mut s, 0.5), 5.0);
        assert_eq!(percentile(&mut s, 0.9), 9.0);
        assert_eq!(percentile(&mut s, 0.99), 10.0);
        assert_eq!(percentile(&mut s, 0.0), 1.0);
        assert_eq!(percentile(&mut [7], 0.5), 7.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        // 11 samples: p50 is the 6th, p90 the 10th (ceil(9.9)).
        let mut s: Vec<u64> = (10..=110).step_by(10).collect();
        assert_eq!(percentile(&mut s, 0.5), 60.0);
        assert_eq!(percentile(&mut s, 0.9), 100.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
