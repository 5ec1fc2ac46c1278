//! Streaming statistics.
//!
//! The re-weighting feedback strategies (paper §2) reduce to statistics of
//! the "good" result points: MARS uses `wᵢ = 1/σᵢ`, MindReader/ISF98 use
//! `wᵢ ∝ 1/σᵢ²`. [`RunningStats`] implements Welford's numerically
//! stable one-pass update.

/// Welford one-pass mean/variance accumulator for a single dimension.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one observation in.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Fold one observation with a non-negative weight (graded relevance
    /// scores weight the good examples in Eq. 2 of the paper; West's
    /// weighted incremental update).
    #[inline]
    pub fn push_weighted(&mut self, x: f64, w: f64, wsum: &mut f64) {
        debug_assert!(w >= 0.0);
        if w == 0.0 {
            return;
        }
        self.n += 1;
        let new_wsum = *wsum + w;
        let delta = x - self.mean;
        let r = delta * w / new_wsum;
        self.mean += r;
        self.m2 += *wsum * delta * r;
        *wsum = new_wsum;
    }

    /// Number of observations folded in.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean (0.0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (÷ n). The feedback formulas use population
    /// variance: the good set IS the population the user defined.
    #[inline]
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.m2 / self.n as f64).max(0.0)
        }
    }

    /// Sample variance (÷ n−1); 0.0 with fewer than two observations.
    #[inline]
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).max(0.0)
        }
    }

    /// Population standard deviation.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merge another accumulator (parallel reduction; Chan's formula).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_known_values() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        let mut s1 = RunningStats::new();
        s1.push(42.0);
        assert_eq!(s1.mean(), 42.0);
        assert_eq!(s1.variance(), 0.0);
        assert_eq!(s1.sample_variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data = [1.0, 2.5, -3.0, 4.0, 0.0, 7.5, -1.0];
        let mut whole = RunningStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &data[..3] {
            a.push(x);
        }
        for &x in &data[3..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-12);
        // Merging an empty accumulator is a no-op either way.
        let empty = RunningStats::new();
        let before = a.clone();
        a.merge(&empty);
        assert!((a.mean() - before.mean()).abs() < 1e-15);
        let mut e2 = RunningStats::new();
        e2.merge(&before);
        assert!((e2.variance() - before.variance()).abs() < 1e-15);
    }

    #[test]
    fn weighted_push_matches_repetition() {
        // Weight 3 on x should equal pushing x three times.
        let mut w = RunningStats::new();
        let mut wsum = 0.0;
        w.push_weighted(2.0, 3.0, &mut wsum);
        w.push_weighted(5.0, 1.0, &mut wsum);
        let mut r = RunningStats::new();
        for x in [2.0, 2.0, 2.0, 5.0] {
            r.push(x);
        }
        assert!((w.mean() - r.mean()).abs() < 1e-12);
        // Zero-weight observations are ignored entirely.
        let before = w.mean();
        w.push_weighted(100.0, 0.0, &mut wsum);
        assert_eq!(w.mean(), before);
    }

    #[test]
    fn welford_stable_under_large_offset() {
        // Classic catastrophic-cancellation probe: variance of values near
        // 1e9 must come out exact.
        let mut s = RunningStats::new();
        for x in [1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0] {
            s.push(x);
        }
        assert!((s.mean() - (1e9 + 10.0)).abs() < 1e-3);
        assert!((s.sample_variance() - 30.0).abs() < 1e-6);
    }
}
