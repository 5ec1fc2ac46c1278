//! Weighted Euclidean distance — Equation 1 of the paper, the class of
//! distance functions learned in its experiments:
//!
//! ```text
//! L2W(p, q; W) = ( Σᵢ wᵢ·(pᵢ − qᵢ)² )^½ ,   wᵢ > 0
//! ```

use super::{kernels, partition_safe_lower, Distance, F32KeyBound};
use crate::{Result, VecdbError};

/// Weighted Euclidean distance with strictly positive per-component
/// weights.
#[derive(Debug, Clone)]
pub struct WeightedEuclidean {
    weights: Vec<f64>,
    /// f32-rounded weights for the mirror-scanning kernels, cached at
    /// construction (the rounding is part of the class's
    /// [`Distance::f32_key_bound`] error budget).
    weights_f32: Vec<f32>,
    min_w: f64,
    max_w: f64,
    /// `Σ wᵢ`, cached at construction: the serving path asks for
    /// [`Distance::f32_key_bound`] once per request per pass.
    sum_w: f64,
}

impl WeightedEuclidean {
    /// Construct from weights (all must be finite and > 0).
    pub fn new(weights: Vec<f64>) -> Result<Self> {
        if weights.is_empty() {
            return Err(VecdbError::BadParameters("empty weight vector".into()));
        }
        if weights.iter().any(|w| !w.is_finite() || *w <= 0.0) {
            return Err(VecdbError::BadParameters(
                "weights must be finite and positive".into(),
            ));
        }
        let min_w = weights.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_w = weights.iter().cloned().fold(0.0, f64::max);
        let sum_w = weights.iter().sum();
        let weights_f32 = weights.iter().map(|&w| w as f32).collect();
        Ok(WeightedEuclidean {
            weights,
            weights_f32,
            min_w,
            max_w,
            sum_w,
        })
    }

    /// The unweighted special case (`wᵢ = 1`), dimension `dim`.
    pub fn uniform(dim: usize) -> Self {
        WeightedEuclidean {
            weights: vec![1.0; dim],
            weights_f32: vec![1.0; dim],
            min_w: 1.0,
            max_w: 1.0,
            sum_w: dim as f64,
        }
    }

    /// Component weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The cached f32 rounding of the weights (the mirror-scan layout).
    pub(crate) fn weights_f32(&self) -> &[f32] {
        &self.weights_f32
    }

    /// Smallest weight (drives the Euclidean-index pruning bound).
    pub fn min_weight(&self) -> f64 {
        self.min_w
    }

    /// Largest weight.
    pub fn max_weight(&self) -> f64 {
        self.max_w
    }

    /// Squared distance (saves the `sqrt` in rank-only comparisons).
    /// Reference sequential accumulation — the engines' ranking paths use
    /// the unrolled kernel via [`Distance::eval_key`] instead.
    #[inline]
    pub fn eval_sq(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len(), self.weights.len());
        let mut acc = 0.0;
        for i in 0..a.len() {
            let d = a[i] - b[i];
            acc += self.weights[i] * d * d;
        }
        acc
    }
}

impl Distance for WeightedEuclidean {
    #[inline]
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval_sq(a, b).sqrt()
    }

    fn name(&self) -> &str {
        "weighted-euclidean"
    }

    /// Two-path bound, each path deflated by `partition_safe_lower`:
    ///
    /// * distortion path — `√w_min·(d₂(q,c) − r)`, sound because
    ///   `√w_min·d₂ ≤ d_W` componentwise;
    /// * triangle path — `d_W(q,c) − √w_max·r`, sound because `d_W` is a
    ///   norm-induced metric and every member has
    ///   `d_W(c,x) ≤ √w_max·d₂(c,x) ≤ √w_max·r`.
    ///
    /// The max of two sound lower bounds is sound; the triangle path wins
    /// when the query's displacement from the centroid lies along heavy
    /// axes.
    fn partition_lower_key(&self, query: &[f64], centroid: &[f64], radius_l2: f64) -> f64 {
        let d2 = super::sq_dist(query, centroid).sqrt();
        let dqc = self.eval(query, centroid);
        let (lo, hi) = (self.min_w.sqrt(), self.max_w.sqrt());
        let distortion = partition_safe_lower(lo * (d2 - radius_l2), lo * (d2 + radius_l2));
        let triangle = partition_safe_lower(dqc - hi * radius_l2, dqc + hi * radius_l2);
        self.key_of_dist(distortion.max(triangle))
    }

    #[inline]
    fn eval_key(&self, a: &[f64], b: &[f64]) -> f64 {
        kernels::weighted_sq_row(&self.weights, a, b)
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
        kernels::weighted_sq_block(&self.weights, query, block, dim, bound, out);
    }

    fn f32_key_bound(&self, dim: usize, max_abs: f64) -> Option<F32KeyBound> {
        super::weighted_f32_bound(dim, self.sum_w, self.min_w, self.max_w, max_abs)
    }

    fn eval_key_batch_f32(
        &self,
        query: &[f32],
        block: &[f32],
        dim: usize,
        bound: f32,
        out: &mut [f32],
    ) {
        kernels::weighted_sq_block_f32(&self.weights_f32, query, block, dim, bound, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::sq_dist;
    use crate::distance::test_support::{check_metric_axioms, sample_points};

    #[test]
    fn uniform_equals_euclidean() {
        // Unit weights give the plain Euclidean distance, the naive sum.
        assert_eq!(
            WeightedEuclidean::uniform(2).eval(&[0.0, 0.0], &[3.0, 4.0]),
            5.0
        );
        assert_eq!(WeightedEuclidean::uniform(1).eval(&[1.0], &[1.0]), 0.0);
        let w = WeightedEuclidean::uniform(3);
        let a = [1.0, -2.0, 0.5];
        let b = [0.0, 1.0, 2.0];
        let naive = (1.0f64 + 9.0 + 2.25).sqrt();
        assert!((w.eval(&a, &b) - naive).abs() < 1e-12);
    }

    #[test]
    fn weights_scale_components() {
        let w = WeightedEuclidean::new(vec![4.0, 1.0]).unwrap();
        // Distance along the first axis doubles.
        assert!((w.eval(&[0.0, 0.0], &[1.0, 0.0]) - 2.0).abs() < 1e-12);
        assert!((w.eval(&[0.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distortion_bounds_hold() {
        // √w_min·d₂ ≤ d_W ≤ √w_max·d₂: the factors both partition-bound
        // paths rest on.
        let w = WeightedEuclidean::new(vec![0.25, 4.0, 1.0]).unwrap();
        let (lo, hi) = (w.min_weight().sqrt(), w.max_weight().sqrt());
        assert_eq!(lo, 0.5);
        assert_eq!(hi, 2.0);
        for pts in sample_points(3).windows(2) {
            let dw = w.eval(&pts[0], &pts[1]);
            let d2 = sq_dist(&pts[0], &pts[1]).sqrt();
            assert!(dw >= lo * d2 - 1e-12, "lower bound violated");
            assert!(dw <= hi * d2 + 1e-12, "upper bound violated");
        }
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(WeightedEuclidean::new(vec![]).is_err());
        assert!(WeightedEuclidean::new(vec![1.0, 0.0]).is_err());
        assert!(WeightedEuclidean::new(vec![1.0, -2.0]).is_err());
        assert!(WeightedEuclidean::new(vec![f64::NAN]).is_err());
        assert!(WeightedEuclidean::new(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn metric_axioms_hold() {
        let w = WeightedEuclidean::new(vec![0.5, 2.0, 1.0, 3.0]).unwrap();
        check_metric_axioms(&w, &sample_points(4), 1e-9);
        check_metric_axioms(&WeightedEuclidean::uniform(4), &sample_points(4), 1e-9);
    }

    #[test]
    fn eval_sq_consistent() {
        let w = WeightedEuclidean::new(vec![2.0, 3.0]).unwrap();
        let a = [1.0, 2.0];
        let b = [-1.0, 0.5];
        assert!((w.eval(&a, &b).powi(2) - w.eval_sq(&a, &b)).abs() < 1e-12);
    }
}
