//! Lp norms: Manhattan, Euclidean, Chebyshev, general p ≥ 1.

use super::{kernels, sq_dist, Distance, F32KeyBound};
use crate::{Result, VecdbError};

/// Euclidean (`L2`) distance — the paper's default distance function.
#[derive(Debug, Clone, Copy, Default)]
pub struct Euclidean;

impl Distance for Euclidean {
    #[inline]
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        sq_dist(a, b).sqrt()
    }

    fn name(&self) -> &str {
        "euclidean"
    }

    fn euclidean_distortion(&self) -> Option<(f64, f64)> {
        Some((1.0, 1.0))
    }

    /// Squared distance through the unrolled kernel (may differ from
    /// `eval(a, b)²` in the last ulp: different summation order).
    #[inline]
    fn eval_key(&self, a: &[f64], b: &[f64]) -> f64 {
        kernels::l2_sq_row(a, b)
    }

    #[inline]
    fn finish_key(&self, key: f64) -> f64 {
        key.sqrt()
    }

    #[inline]
    fn key_of_dist(&self, dist: f64) -> f64 {
        dist * dist
    }

    fn eval_key_batch(
        &self,
        query: &[f64],
        block: &[f64],
        dim: usize,
        bound: f64,
        out: &mut [f64],
    ) {
        kernels::l2_sq_block(query, block, dim, bound, out);
    }

    fn eval_key_multi(
        &self,
        queries: &[f64],
        block: &[f64],
        dim: usize,
        bounds: &[f64],
        out: &mut [f64],
    ) {
        kernels::l2_sq_multi_block(queries, block, dim, bounds, out);
    }

    fn f32_key_bound(&self, dim: usize, max_abs: f64) -> Option<F32KeyBound> {
        super::weighted_f32_bound(dim, dim as f64, 1.0, 1.0, max_abs)
    }

    fn eval_key_batch_f32(
        &self,
        query: &[f32],
        block: &[f32],
        dim: usize,
        bound: f32,
        out: &mut [f32],
    ) {
        kernels::l2_sq_block_f32(query, block, dim, bound, out);
    }

    fn eval_key_multi_f32(
        &self,
        queries: &[f32],
        block: &[f32],
        dim: usize,
        bounds: &[f32],
        out: &mut [f32],
    ) {
        kernels::l2_sq_multi_block_f32(queries, block, dim, bounds, out);
    }
}

/// Manhattan (`L1`) distance.
#[derive(Debug, Clone, Copy, Default)]
pub struct Manhattan;

impl Distance for Manhattan {
    #[inline]
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum()
    }

    fn name(&self) -> &str {
        "manhattan"
    }

    fn euclidean_distortion(&self) -> Option<(f64, f64)> {
        // d₂ ≤ d₁ ≤ √D·d₂, but D is unknown here; the lower factor 1 is
        // still usable for pruning.
        Some((1.0, f64::INFINITY))
    }
}

/// Chebyshev (`L∞`) distance.
#[derive(Debug, Clone, Copy, Default)]
pub struct Chebyshev;

impl Distance for Chebyshev {
    #[inline]
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b.iter())
            .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()))
    }

    fn name(&self) -> &str {
        "chebyshev"
    }
}

/// General Minkowski `Lp` distance, `p ≥ 1`.
#[derive(Debug, Clone, Copy)]
pub struct Lp {
    p: f64,
}

impl Lp {
    /// Construct; `p` must be ≥ 1 for the triangle inequality to hold.
    pub fn new(p: f64) -> Result<Self> {
        // `!(p >= 1.0)` deliberately catches NaN as well as p < 1.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(p >= 1.0) {
            return Err(VecdbError::BadParameters(format!(
                "Lp requires p >= 1, got {p}"
            )));
        }
        Ok(Lp { p })
    }

    /// The exponent.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Distance for Lp {
    #[inline]
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.finish_key(self.eval_key(a, b))
    }

    fn name(&self) -> &str {
        "lp"
    }

    /// Surrogate key `Σ |aᵢ − bᵢ|^p`: monotone in the distance and skips
    /// the final `powf(1/p)` root.
    #[inline]
    fn eval_key(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs().powf(self.p))
            .sum()
    }

    #[inline]
    fn finish_key(&self, key: f64) -> f64 {
        key.powf(1.0 / self.p)
    }

    #[inline]
    fn key_of_dist(&self, dist: f64) -> f64 {
        dist.powf(self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::test_support::{check_metric_axioms, sample_points};

    #[test]
    fn euclidean_known() {
        let d = Euclidean;
        assert_eq!(d.eval(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(d.eval(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn manhattan_known() {
        let d = Manhattan;
        assert_eq!(d.eval(&[0.0, 0.0], &[3.0, -4.0]), 7.0);
    }

    #[test]
    fn chebyshev_known() {
        let d = Chebyshev;
        assert_eq!(d.eval(&[0.0, 0.0], &[3.0, -4.0]), 4.0);
    }

    #[test]
    fn lp_interpolates_between_norms() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        let l1 = Lp::new(1.0).unwrap();
        let l2 = Lp::new(2.0).unwrap();
        assert!((l1.eval(&a, &b) - 7.0).abs() < 1e-12);
        assert!((l2.eval(&a, &b) - 5.0).abs() < 1e-12);
        // p = 3 lies between L2 and L∞.
        let l3 = Lp::new(3.0).unwrap();
        let v = l3.eval(&a, &b);
        assert!(v < 5.0 && v > 4.0);
    }

    #[test]
    fn lp_rejects_bad_p() {
        assert!(Lp::new(0.5).is_err());
        assert!(Lp::new(f64::NAN).is_err());
    }

    #[test]
    fn metric_axioms_hold() {
        let pts = sample_points(4);
        check_metric_axioms(&Euclidean, &pts, 1e-9);
        check_metric_axioms(&Manhattan, &pts, 1e-9);
        check_metric_axioms(&Chebyshev, &pts, 1e-9);
        check_metric_axioms(&Lp::new(3.0).unwrap(), &pts, 1e-9);
    }
}
