//! Quadratic (Mahalanobis-style) distance — paper §2:
//!
//! ```text
//! d²(p, q; W) = Σᵢ Σⱼ wᵢⱼ·(pᵢ − qᵢ)·(pⱼ − qⱼ) = (p−q)ᵀ·W·(p−q)
//! ```
//!
//! with symmetric positive-definite `W`, yielding arbitrarily-oriented
//! ellipsoidal iso-distance surfaces ("a rotated weighted Euclidean
//! norm"). Positive definiteness is certified at construction by a
//! Cholesky factorization, which also evaluates the form as `‖Lᵀ·x‖²`.

use super::{Distance, F32KeyBound};
use crate::{Result, VecdbError};
use fbp_linalg::{Cholesky, Matrix};

/// Quadratic-form distance with SPD parameter matrix.
#[derive(Debug, Clone)]
pub struct QuadraticDistance {
    chol: Cholesky,
    dim: usize,
    /// Extremal eigenvalue bounds estimated from the Cholesky factor (via
    /// Gershgorin on `W`); used for Euclidean distortion pruning.
    eig_lo: f64,
    eig_hi: f64,
    /// f32-rounded lower-triangular Cholesky factor, flattened row-major
    /// (`n × n`, zeros above the diagonal), for the mirror-scanning f32
    /// kernel; its rounding is part of [`Distance::f32_key_bound`].
    l_f32: Vec<f32>,
    /// Largest `|L[i,j]|` (drives the f32 rounding budget).
    l_max: f64,
}

impl QuadraticDistance {
    /// Construct from a symmetric positive-definite matrix.
    pub fn new(w: &Matrix) -> Result<Self> {
        if !w.is_square() {
            return Err(VecdbError::BadParameters("matrix must be square".into()));
        }
        if !w.is_symmetric(1e-9) {
            return Err(VecdbError::BadParameters("matrix must be symmetric".into()));
        }
        let chol = Cholesky::factor(w).map_err(|e| {
            VecdbError::BadParameters(format!("matrix must be positive definite: {e}"))
        })?;
        // Gershgorin bounds on the spectrum of W: every eigenvalue lies in
        // ∪ᵢ [wᵢᵢ − Rᵢ, wᵢᵢ + Rᵢ] with Rᵢ the off-diagonal row sum.
        let n = w.rows();
        let mut lo = f64::INFINITY;
        let mut hi = 0.0_f64;
        for i in 0..n {
            let mut radius = 0.0;
            for j in 0..n {
                if i != j {
                    radius += w[(i, j)].abs();
                }
            }
            lo = lo.min(w[(i, i)] - radius);
            hi = hi.max(w[(i, i)] + radius);
        }
        let l = chol.l();
        let mut l_f32 = vec![0.0f32; n * n];
        let mut l_max = 0.0f64;
        for i in 0..n {
            for j in 0..=i {
                l_f32[i * n + j] = l[(i, j)] as f32;
                l_max = l_max.max(l[(i, j)].abs());
            }
        }
        Ok(QuadraticDistance {
            chol,
            dim: n,
            eig_lo: lo.max(0.0),
            eig_hi: hi,
            l_f32,
            l_max,
        })
    }

    /// Mahalanobis distance: quadratic form with `W = Σ⁻¹` for a given
    /// covariance matrix `Σ` (ridge-regularized by `ridge·I` so nearly
    /// singular covariances — few feedback examples — stay usable).
    pub fn mahalanobis(covariance: &Matrix, ridge: f64) -> Result<Self> {
        if !covariance.is_square() {
            return Err(VecdbError::BadParameters(
                "covariance must be square".into(),
            ));
        }
        let n = covariance.rows();
        let mut reg = covariance.clone();
        for i in 0..n {
            reg[(i, i)] += ridge;
        }
        let chol = Cholesky::factor(&reg)
            .map_err(|e| VecdbError::BadParameters(format!("covariance not PSD: {e}")))?;
        // W = Σ⁻¹ column by column.
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for c in 0..n {
            e[c] = 1.0;
            let col = chol
                .solve(&e)
                .map_err(|e| VecdbError::BadParameters(format!("solve failed: {e}")))?;
            e[c] = 0.0;
            for r in 0..n {
                inv[(r, c)] = col[r];
            }
        }
        // Symmetrize against round-off before factoring.
        for r in 0..n {
            for c in (r + 1)..n {
                let m = 0.5 * (inv[(r, c)] + inv[(c, r)]);
                inv[(r, c)] = m;
                inv[(c, r)] = m;
            }
        }
        QuadraticDistance::new(&inv)
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Squared distance `(a−b)ᵀ·W·(a−b)`.
    #[inline]
    pub fn eval_sq(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.dim);
        debug_assert_eq!(b.len(), self.dim);
        let mut diff = [0.0; QUAD_STACK_DIM];
        if self.dim <= QUAD_STACK_DIM {
            for i in 0..self.dim {
                diff[i] = a[i] - b[i];
            }
            self.sq_of_diff(&diff[..self.dim], f64::INFINITY)
        } else {
            let diff: Vec<f64> = a.iter().zip(b.iter()).map(|(x, y)| x - y).collect();
            self.sq_of_diff(&diff, f64::INFINITY)
        }
    }

    /// `‖Lᵀ·diff‖²` from the Cholesky factor, abandoning once the partial
    /// sum of squares exceeds `bound` (each `yⱼ²` term is non-negative).
    #[inline]
    fn sq_of_diff(&self, diff: &[f64], bound: f64) -> f64 {
        let l = self.chol.l();
        let n = self.dim;
        let mut acc = 0.0;
        for j in 0..n {
            // (Lᵀ·diff)ⱼ = Σ_{i ≥ j} L[i,j]·diffᵢ (L is lower-triangular).
            let mut y = 0.0;
            for i in j..n {
                y += l[(i, j)] * diff[i];
            }
            acc += y * y;
            if acc > bound {
                return f64::INFINITY;
            }
        }
        acc
    }

    /// f32 counterpart of [`Self::sq_of_diff`] over the cached f32
    /// factor; same non-negative-prefix structure, so abandonment against
    /// a bound never understates a surviving key.
    #[inline]
    fn sq_of_diff_f32(&self, diff: &[f32], bound: f32) -> f32 {
        let n = self.dim;
        let mut acc = 0.0f32;
        for j in 0..n {
            let mut y = 0.0f32;
            for (i, &df) in diff.iter().enumerate().skip(j) {
                y += self.l_f32[i * n + j] * df;
            }
            acc += y * y;
            if acc > bound {
                return f32::INFINITY;
            }
        }
        acc
    }
}

/// Stack-buffer size for per-pair difference vectors (avoids a heap
/// allocation per evaluation at the paper's dimensionalities).
const QUAD_STACK_DIM: usize = 128;

impl Distance for QuadraticDistance {
    #[inline]
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval_sq(a, b).sqrt()
    }

    fn name(&self) -> &str {
        "quadratic"
    }

    fn euclidean_distortion(&self) -> Option<(f64, f64)> {
        if self.eig_lo > 0.0 {
            Some((self.eig_lo.sqrt(), self.eig_hi.sqrt()))
        } else {
            None
        }
    }

    /// Derivable only when the certified Gershgorin spectrum stays
    /// positive: then `d_A = ‖Lᵀ(a−b)‖` is a norm-induced metric and
    /// both the distortion and triangle routes apply. When `eig_lo`
    /// touches zero no sound lower bound exists (the form can collapse
    /// an arbitrarily long Euclidean displacement to distance ~0), so
    /// this returns `None` and the partitioned scan must take the flat
    /// pass — the explicit per-class fallback the pruning layer
    /// requires.
    fn partition_lower_key(&self, query: &[f64], centroid: &[f64], radius_l2: f64) -> Option<f64> {
        let (lo, hi) = self.euclidean_distortion()?;
        let d2 = super::sq_dist(query, centroid).sqrt();
        let dqc = self.eval(query, centroid);
        let lb = super::metric_partition_lower(dqc, lo, hi, d2, radius_l2);
        Some(self.key_of_dist(lb))
    }

    #[inline]
    fn eval_key(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval_sq(a, b)
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
        debug_assert_eq!(query.len(), dim);
        debug_assert_eq!(dim, self.dim);
        debug_assert_eq!(block.len(), dim * out.len());
        // One scratch diff buffer for the whole block (no per-row allocs).
        let mut diff = vec![0.0; dim];
        for (row, slot) in block.chunks_exact(dim).zip(out.iter_mut()) {
            for i in 0..dim {
                diff[i] = query[i] - row[i];
            }
            *slot = self.sq_of_diff(&diff, bound);
        }
    }

    fn eval_key_multi(
        &self,
        queries: &[f64],
        block: &[f64],
        dim: usize,
        bounds: &[f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(dim, self.dim);
        debug_assert_eq!(queries.len(), bounds.len() * dim);
        debug_assert_eq!(out.len() * dim, bounds.len() * block.len());
        let rows = block.len().checked_div(dim).unwrap_or(0);
        // Row-outer loop: each block row is differenced against every
        // query while hot. Per-pair arithmetic is identical to
        // `eval_key_batch`, so surviving keys are bit-identical.
        let mut diff = vec![0.0; dim];
        for (r, row) in block.chunks_exact(dim).enumerate() {
            for (q, query) in queries.chunks_exact(dim).enumerate() {
                for i in 0..dim {
                    diff[i] = query[i] - row[i];
                }
                out[q * rows + r] = self.sq_of_diff(&diff, bounds[q]);
            }
        }
    }

    /// Rounding bound of the f32 `‖Lᵀ₃₂·diff₃₂‖²` evaluation. First the
    /// error `e_y` of each transformed coordinate `yⱼ = Σᵢ Lᵢⱼ·dᵢ`:
    /// factor conversion, difference rounding and f32 dot-product
    /// accumulation against worst-case magnitudes (`|diff| ≤ 2M`,
    /// `|L| ≤ l_max`), plus `η = 2⁻¹⁵⁰` per conversion and product that
    /// underflows. The key `Σ yⱼ²` then sums non-negative squares, so with
    /// `c = γₙ₊₁` (one square rounding, at most `n` accumulation roundings
    /// on a term's path) and `Σ|yⱼ| ≤ √n·√key`:
    ///
    /// ```text
    /// |key32 − key| ≤ c·key + (1+c)·(2·e_y·√n·√key + n·e_y² + n·η)
    /// ```
    ///
    /// The `e_y·|y|` cross term is the `sqrt` part; `e_y²` and the
    /// squares' own underflow are the `abs` part. All doubled as the
    /// safety margin; the ceiling is the bound at the largest key the
    /// data can produce.
    fn f32_key_bound(&self, dim: usize, max_abs: f64) -> Option<F32KeyBound> {
        let (u, eta) = (super::F32_UNIT_ROUNDOFF, super::F32_UNDERFLOW_ROUNDOFF);
        let n = dim as f64;
        let m = max_abs;
        // |y32 − y| per coordinate: n product terms each off by
        // ≤ 8.5·u·l_max·M, plus f32 accumulation of n terms of magnitude
        // ≤ 2.01·l_max·M, plus each product's underflow.
        let e_y = u * self.l_max * m * n * (8.5 + 2.01 * n)
            + n * eta * (2.1 * self.l_max + 2.1 * m + 1.1);
        // Magnitude bound on the computed coordinate.
        let y_hi = 2.01 * self.l_max * m * n + e_y;
        // No finite bound is sound once the worst-case key (Σ y² ≤
        // n·y_hi², partial sums included) could overflow f32 — the scan
        // must fall back to pure f64 (see `F32_KEY_OVERFLOW_GUARD`).
        let worst_key = n * y_hi * y_hi;
        // `!(x <= guard)` deliberately catches NaN as well as overflow.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(worst_key <= super::F32_KEY_OVERFLOW_GUARD) {
            return None;
        }
        let c = super::f32_gamma(n + 1.0);
        let relative = F32KeyBound {
            rel: 2.0 * c,
            sqrt: 2.0 * (1.0 + c) * 2.0 * e_y * n.sqrt(),
            abs: 2.0 * (1.0 + c) * n * (e_y * e_y + eta),
            max: f64::INFINITY,
        };
        Some(F32KeyBound {
            max: relative.at(worst_key),
            ..relative
        })
    }

    fn eval_key_batch_f32(
        &self,
        query: &[f32],
        block: &[f32],
        dim: usize,
        bound: f32,
        out: &mut [f32],
    ) {
        debug_assert_eq!(query.len(), dim);
        debug_assert_eq!(dim, self.dim);
        debug_assert_eq!(block.len(), dim * out.len());
        let mut diff = vec![0.0f32; dim];
        for (row, slot) in block.chunks_exact(dim).zip(out.iter_mut()) {
            for i in 0..dim {
                diff[i] = query[i] - row[i];
            }
            *slot = self.sq_of_diff_f32(&diff, bound);
        }
    }

    fn eval_key_multi_f32(
        &self,
        queries: &[f32],
        block: &[f32],
        dim: usize,
        bounds: &[f32],
        out: &mut [f32],
    ) {
        debug_assert_eq!(dim, self.dim);
        debug_assert_eq!(queries.len(), bounds.len() * dim);
        debug_assert_eq!(out.len() * dim, bounds.len() * block.len());
        let rows = block.len().checked_div(dim).unwrap_or(0);
        let mut diff = vec![0.0f32; dim];
        for (r, row) in block.chunks_exact(dim).enumerate() {
            for (q, query) in queries.chunks_exact(dim).enumerate() {
                for i in 0..dim {
                    diff[i] = query[i] - row[i];
                }
                out[q * rows + r] = self.sq_of_diff_f32(&diff, bounds[q]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::test_support::{check_metric_axioms, sample_points};
    use crate::distance::{Euclidean, WeightedEuclidean};

    #[test]
    fn identity_matrix_is_euclidean() {
        let q = QuadraticDistance::new(&Matrix::identity(3)).unwrap();
        let e = Euclidean;
        let a = [1.0, 2.0, 3.0];
        let b = [0.0, -1.0, 0.5];
        assert!((q.eval(&a, &b) - e.eval(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn diagonal_matrix_is_weighted_euclidean() {
        let w = vec![2.0, 5.0];
        let q = QuadraticDistance::new(&Matrix::from_diag(&w)).unwrap();
        let we = WeightedEuclidean::new(w).unwrap();
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert!((q.eval(&a, &b) - we.eval(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn rotated_form_captures_correlation() {
        // W with positive off-diagonal: moving along (1,-1) costs more than
        // along (1,1).
        let w = Matrix::from_rows(&[&[1.0, 0.8], &[0.8, 1.0]]);
        let q = QuadraticDistance::new(&w).unwrap();
        let o = [0.0, 0.0];
        let diag = q.eval(&o, &[1.0, 1.0]);
        let anti = q.eval(&o, &[1.0, -1.0]);
        assert!(
            diag > anti,
            "correlated direction should cost more: {diag} vs {anti}"
        );
    }

    #[test]
    fn rejects_bad_matrices() {
        assert!(QuadraticDistance::new(&Matrix::zeros(2, 3)).is_err());
        let asym = Matrix::from_rows(&[&[1.0, 0.5], &[0.0, 1.0]]);
        assert!(QuadraticDistance::new(&asym).is_err());
        let indef = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(QuadraticDistance::new(&indef).is_err());
    }

    #[test]
    fn mahalanobis_whitens_covariance() {
        // Covariance with variance 4 in x, 1 in y: Mahalanobis distance of
        // (2,0) and (0,1) from the origin should both be 1.
        let cov = Matrix::from_diag(&[4.0, 1.0]);
        let m = QuadraticDistance::mahalanobis(&cov, 0.0).unwrap();
        let o = [0.0, 0.0];
        assert!((m.eval(&o, &[2.0, 0.0]) - 1.0).abs() < 1e-9);
        assert!((m.eval(&o, &[0.0, 1.0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mahalanobis_ridge_rescues_singular_covariance() {
        // Rank-deficient covariance (constant second dim) fails without a
        // ridge, succeeds with one.
        let cov = Matrix::from_diag(&[1.0, 0.0]);
        assert!(QuadraticDistance::mahalanobis(&cov, 0.0).is_err());
        assert!(QuadraticDistance::mahalanobis(&cov, 1e-6).is_ok());
    }

    #[test]
    fn metric_axioms_hold() {
        let w = Matrix::from_rows(&[&[2.0, 0.3, 0.0], &[0.3, 1.0, -0.2], &[0.0, -0.2, 1.5]]);
        let q = QuadraticDistance::new(&w).unwrap();
        check_metric_axioms(&q, &sample_points(3), 1e-9);
    }

    #[test]
    fn distortion_bounds_hold() {
        let w = Matrix::from_rows(&[&[2.0, 0.3], &[0.3, 1.0]]);
        let q = QuadraticDistance::new(&w).unwrap();
        let (lo, hi) = q.euclidean_distortion().unwrap();
        let e = Euclidean;
        for pts in sample_points(2).windows(2) {
            let dq = q.eval(&pts[0], &pts[1]);
            let d2 = e.eval(&pts[0], &pts[1]);
            assert!(dq >= lo * d2 - 1e-9);
            assert!(dq <= hi * d2 + 1e-9);
        }
    }
}
