//! The Rui-Huang hierarchical similarity model \[RH00\] (paper §2).
//!
//! Objects are described by `F` *features* (e.g. color histogram, texture,
//! shape), each occupying a contiguous span of the flat feature vector.
//! The overall distance combines per-feature distances with feature-level
//! weights `uₑ`, while each feature's distance is itself a weighted
//! (diagonal-quadratic) form with component weights:
//!
//! ```text
//! d²(p, q) = Σₑ uₑ · dₑ²(p, q),    dₑ²  = Σ_{i ∈ span(e)} wᵢ·(pᵢ−qᵢ)²
//! ```
//!
//! Re-weighting then happens at both levels (see `fbp-feedback`): the
//! component weights within a feature by the `1/σ²` rule, the feature
//! weights by how well each feature's distance separates good matches.

use super::{kernels, Distance, F32KeyBound};
use crate::{Result, VecdbError};

/// A contiguous component span of one feature in the flat vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureSpan {
    /// First component index.
    pub start: usize,
    /// One past the last component index.
    pub end: usize,
}

impl FeatureSpan {
    /// Construct a span (`start < end`).
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start < end, "empty feature span");
        FeatureSpan { start, end }
    }

    /// Components in the span.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Hierarchical weighted distance over a feature partition.
#[derive(Debug, Clone)]
pub struct HierarchicalDistance {
    spans: Vec<FeatureSpan>,
    /// Feature-level weights `uₑ` (one per span, positive).
    feature_weights: Vec<f64>,
    /// Component-level weights `wᵢ` (full dim, positive).
    component_weights: Vec<f64>,
    /// Flattened effective weights `uₑ·wᵢ`, precomputed so evaluation
    /// collapses to a single weighted-Euclidean kernel pass.
    effective_weights: Vec<f64>,
    /// f32-rounded effective weights for the mirror-scanning kernels
    /// (the rounding is part of [`Distance::f32_key_bound`]).
    effective_weights_f32: Vec<f32>,
    dim: usize,
}

impl HierarchicalDistance {
    /// Construct; spans must partition `0..dim` contiguously in order.
    pub fn new(
        spans: Vec<FeatureSpan>,
        feature_weights: Vec<f64>,
        component_weights: Vec<f64>,
    ) -> Result<Self> {
        if spans.is_empty() {
            return Err(VecdbError::BadParameters("no feature spans".into()));
        }
        if spans.len() != feature_weights.len() {
            return Err(VecdbError::BadParameters(format!(
                "{} spans but {} feature weights",
                spans.len(),
                feature_weights.len()
            )));
        }
        let mut expected_start = 0usize;
        for s in &spans {
            if s.start != expected_start {
                return Err(VecdbError::BadParameters(format!(
                    "spans must tile the vector: expected start {expected_start}, got {}",
                    s.start
                )));
            }
            expected_start = s.end;
        }
        let dim = expected_start;
        if component_weights.len() != dim {
            return Err(VecdbError::DimMismatch {
                expected: dim,
                got: component_weights.len(),
            });
        }
        if feature_weights
            .iter()
            .chain(component_weights.iter())
            .any(|w| !w.is_finite() || *w <= 0.0)
        {
            return Err(VecdbError::BadParameters(
                "all weights must be finite and positive".into(),
            ));
        }
        let mut effective_weights = vec![0.0; dim];
        for (e, span) in spans.iter().enumerate() {
            for i in span.start..span.end {
                effective_weights[i] = feature_weights[e] * component_weights[i];
            }
        }
        let effective_weights_f32 = effective_weights.iter().map(|&w| w as f32).collect();
        Ok(HierarchicalDistance {
            spans,
            feature_weights,
            component_weights,
            effective_weights,
            effective_weights_f32,
            dim,
        })
    }

    /// Uniform model: `F` equal spans over `dim` components, all weights 1.
    pub fn uniform(dim: usize, features: usize) -> Result<Self> {
        if features == 0 || !dim.is_multiple_of(features) {
            return Err(VecdbError::BadParameters(format!(
                "cannot split {dim} components into {features} equal features"
            )));
        }
        let per = dim / features;
        let spans = (0..features)
            .map(|f| FeatureSpan::new(f * per, (f + 1) * per))
            .collect();
        HierarchicalDistance::new(spans, vec![1.0; features], vec![1.0; dim])
    }

    /// Dimensionality of the flat vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The feature partition.
    pub fn spans(&self) -> &[FeatureSpan] {
        &self.spans
    }

    /// Feature-level weights.
    pub fn feature_weights(&self) -> &[f64] {
        &self.feature_weights
    }

    /// Component-level weights.
    pub fn component_weights(&self) -> &[f64] {
        &self.component_weights
    }

    /// Squared per-feature distance `dₑ²`.
    pub fn feature_dist_sq(&self, e: usize, a: &[f64], b: &[f64]) -> f64 {
        let span = &self.spans[e];
        let mut acc = 0.0;
        for i in span.start..span.end {
            let d = a[i] - b[i];
            acc += self.component_weights[i] * d * d;
        }
        acc
    }

    /// Full squared distance `Σₑ uₑ·dₑ²`. Reference per-span
    /// accumulation — the engines' ranking paths use the flattened
    /// effective weights through [`Distance::eval_key`] instead.
    #[inline]
    pub fn eval_sq(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.dim);
        debug_assert_eq!(b.len(), self.dim);
        let mut acc = 0.0;
        for (e, span) in self.spans.iter().enumerate() {
            let mut fe = 0.0;
            for i in span.start..span.end {
                let d = a[i] - b[i];
                fe += self.component_weights[i] * d * d;
            }
            acc += self.feature_weights[e] * fe;
        }
        acc
    }
}

impl Distance for HierarchicalDistance {
    #[inline]
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval_sq(a, b).sqrt()
    }

    fn name(&self) -> &str {
        "hierarchical"
    }

    fn euclidean_distortion(&self) -> Option<(f64, f64)> {
        // Effective per-component weight is uₑ·wᵢ; min/max over all
        // components bound the form exactly like weighted Euclidean.
        let mut lo = f64::INFINITY;
        let mut hi = 0.0_f64;
        for &w in &self.effective_weights {
            lo = lo.min(w);
            hi = hi.max(w);
        }
        Some((lo.sqrt(), hi.sqrt()))
    }

    /// Two-path bound: the hierarchical form is a weighted Euclidean
    /// norm over the flattened `uₑ·wᵢ` weights, hence a metric — the
    /// triangle route `d(q,c) − hi·r` composes with the distortion
    /// route exactly as for [`WeightedEuclidean`](super::WeightedEuclidean).
    fn partition_lower_key(&self, query: &[f64], centroid: &[f64], radius_l2: f64) -> Option<f64> {
        let (lo, hi) = self.euclidean_distortion()?;
        if !lo.is_finite() || lo <= 0.0 {
            return None;
        }
        let d2 = super::sq_dist(query, centroid).sqrt();
        let dqc = self.eval(query, centroid);
        let lb = super::metric_partition_lower(dqc, lo, hi, d2, radius_l2);
        Some(self.key_of_dist(lb))
    }

    /// Squared distance via the flattened `uₑ·wᵢ` weights and the
    /// unrolled kernel (ulp-level differences from `eval_sq` possible:
    /// different association order).
    #[inline]
    fn eval_key(&self, a: &[f64], b: &[f64]) -> f64 {
        kernels::weighted_sq_row(&self.effective_weights, a, b)
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
        kernels::weighted_sq_block(&self.effective_weights, query, block, dim, bound, out);
    }

    fn eval_key_multi(
        &self,
        queries: &[f64],
        block: &[f64],
        dim: usize,
        bounds: &[f64],
        out: &mut [f64],
    ) {
        kernels::weighted_sq_multi_block(
            &self.effective_weights,
            0,
            queries,
            block,
            dim,
            bounds,
            out,
        );
    }

    fn f32_key_bound(&self, dim: usize, max_abs: f64) -> Option<F32KeyBound> {
        // The flattened form is exactly a weighted Euclidean with the
        // effective weights, so the same rounding budget applies.
        let w = &self.effective_weights;
        let w_min = w.iter().cloned().fold(f64::INFINITY, f64::min);
        let w_max = w.iter().cloned().fold(0.0, f64::max);
        super::weighted_f32_bound(dim, w.iter().sum(), w_min, w_max, max_abs)
    }

    fn eval_key_batch_f32(
        &self,
        query: &[f32],
        block: &[f32],
        dim: usize,
        bound: f32,
        out: &mut [f32],
    ) {
        kernels::weighted_sq_block_f32(&self.effective_weights_f32, query, block, dim, bound, out);
    }

    fn eval_key_multi_f32(
        &self,
        queries: &[f32],
        block: &[f32],
        dim: usize,
        bounds: &[f32],
        out: &mut [f32],
    ) {
        kernels::weighted_sq_multi_block_f32(
            &self.effective_weights_f32,
            0,
            queries,
            block,
            dim,
            bounds,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::test_support::{check_metric_axioms, sample_points};
    use crate::distance::{Euclidean, WeightedEuclidean};

    #[test]
    fn uniform_equals_euclidean() {
        let h = HierarchicalDistance::uniform(6, 2).unwrap();
        let e = Euclidean;
        let a = [1.0, 0.0, -1.0, 2.0, 0.5, 0.0];
        let b = [0.0, 1.0, 1.0, 0.0, 0.0, 0.25];
        assert!((h.eval(&a, &b) - e.eval(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn equals_weighted_euclidean_with_effective_weights() {
        let spans = vec![FeatureSpan::new(0, 2), FeatureSpan::new(2, 4)];
        let h = HierarchicalDistance::new(spans, vec![2.0, 0.5], vec![1.0, 3.0, 4.0, 1.0]).unwrap();
        // Effective weights: [2·1, 2·3, 0.5·4, 0.5·1].
        let we = WeightedEuclidean::new(vec![2.0, 6.0, 2.0, 0.5]).unwrap();
        let a = [0.3, -1.0, 2.0, 0.0];
        let b = [1.0, 0.0, 0.0, -2.0];
        assert!((h.eval(&a, &b) - we.eval(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn feature_dist_decomposes_total() {
        let h = HierarchicalDistance::uniform(4, 2).unwrap();
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [0.0, 0.0, 0.0, 0.0];
        let total = h.eval_sq(&a, &b);
        let parts = h.feature_dist_sq(0, &a, &b) + h.feature_dist_sq(1, &a, &b);
        assert!((total - parts).abs() < 1e-12);
    }

    #[test]
    fn validation_errors() {
        // Gap in the partition.
        let gap = vec![FeatureSpan::new(0, 2), FeatureSpan::new(3, 4)];
        assert!(HierarchicalDistance::new(gap, vec![1.0, 1.0], vec![1.0; 4]).is_err());
        // Wrong weight counts.
        let spans = vec![FeatureSpan::new(0, 2)];
        assert!(HierarchicalDistance::new(spans.clone(), vec![], vec![1.0; 2]).is_err());
        assert!(HierarchicalDistance::new(spans.clone(), vec![1.0], vec![1.0; 3]).is_err());
        // Non-positive weights.
        assert!(HierarchicalDistance::new(spans, vec![0.0], vec![1.0; 2]).is_err());
        // Bad uniform splits.
        assert!(HierarchicalDistance::uniform(5, 2).is_err());
        assert!(HierarchicalDistance::uniform(4, 0).is_err());
    }

    #[test]
    fn metric_axioms_hold() {
        let spans = vec![FeatureSpan::new(0, 2), FeatureSpan::new(2, 4)];
        let h =
            HierarchicalDistance::new(spans, vec![1.5, 0.75], vec![2.0, 0.5, 1.0, 4.0]).unwrap();
        check_metric_axioms(&h, &sample_points(4), 1e-9);
    }

    #[test]
    fn distortion_bounds_hold() {
        let spans = vec![FeatureSpan::new(0, 1), FeatureSpan::new(1, 3)];
        let h = HierarchicalDistance::new(spans, vec![4.0, 1.0], vec![1.0, 0.25, 9.0]).unwrap();
        let (lo, hi) = h.euclidean_distortion().unwrap();
        assert!((lo - 0.5).abs() < 1e-12); // min eff. weight 0.25
        assert!((hi - 3.0).abs() < 1e-12); // max eff. weight 9
        let e = Euclidean;
        for pts in sample_points(3).windows(2) {
            let dh = h.eval(&pts[0], &pts[1]);
            let d2 = e.eval(&pts[0], &pts[1]);
            assert!(dh >= lo * d2 - 1e-9 && dh <= hi * d2 + 1e-9);
        }
    }
}
