//! Euclidean (`L2`) distance: the uniform member of the weighted class.

use super::{kernels, partition_safe_lower, sq_dist, Distance, F32KeyBound};

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

    /// The triangle inequality alone: every member `x` has
    /// `d(q, x) ≥ d(q, c) − r`, deflated by `partition_safe_lower`.
    fn partition_lower_key(&self, query: &[f64], centroid: &[f64], radius_l2: f64) -> f64 {
        let d2 = sq_dist(query, centroid).sqrt();
        self.key_of_dist(partition_safe_lower(d2 - radius_l2, d2 + radius_l2))
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
    fn metric_axioms_hold() {
        check_metric_axioms(&Euclidean, &sample_points(4), 1e-9);
    }
}
