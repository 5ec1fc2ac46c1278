//! Property-based tests for the linear algebra kernels.

use fbp_linalg::{lu, vector, Lu, Matrix};
use proptest::prelude::*;

/// Strategy: a well-conditioned n×n matrix (random entries + diagonal boost).
fn regular_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0..1.0f64, n * n).prop_map(move |data| {
        let mut m = Matrix::from_vec(n, n, data);
        for i in 0..n {
            m[(i, i)] += 2.0 * n as f64;
        }
        m
    })
}

proptest! {
    #[test]
    fn lu_solve_residual_small(
        a in regular_matrix(6),
        b in prop::collection::vec(-10.0..10.0f64, 6),
    ) {
        let x = lu::solve(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for i in 0..6 {
            prop_assert!((ax[i] - b[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn lu_inverse_roundtrip(a in regular_matrix(5)) {
        let inv = Lu::factor(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        prop_assert!(prod.max_abs_diff(&Matrix::identity(5)) < 1e-8);
    }

    #[test]
    fn det_of_product_is_product_of_dets(
        a in regular_matrix(4),
        b in regular_matrix(4),
    ) {
        let ab = a.matmul(&b).unwrap();
        let lhs = lu::det(&ab);
        let rhs = lu::det(&a) * lu::det(&b);
        prop_assert!((lhs - rhs).abs() <= 1e-6 * rhs.abs().max(1.0));
    }

    #[test]
    fn dot_is_bilinear(
        a in prop::collection::vec(-10.0..10.0f64, 8),
        b in prop::collection::vec(-10.0..10.0f64, 8),
        alpha in -3.0..3.0f64,
    ) {
        let mut scaled = a.clone();
        vector::scale(alpha, &mut scaled);
        let lhs = vector::dot(&scaled, &b);
        let rhs = alpha * vector::dot(&a, &b);
        prop_assert!((lhs - rhs).abs() < 1e-9 * rhs.abs().max(1.0));
    }

    #[test]
    fn norm_triangle_inequality(
        a in prop::collection::vec(-10.0..10.0f64, 8),
        b in prop::collection::vec(-10.0..10.0f64, 8),
    ) {
        let mut sum = vec![0.0; 8];
        vector::add(&a, &b, &mut sum);
        prop_assert!(vector::norm2(&sum) <= vector::norm2(&a) + vector::norm2(&b) + 1e-9);
    }

    #[test]
    fn normalize_l1_is_idempotent(mut v in prop::collection::vec(0.001..10.0f64, 1..32)) {
        prop_assert!(vector::normalize_l1(&mut v));
        let first: Vec<f64> = v.clone();
        prop_assert!(vector::normalize_l1(&mut v));
        for (a, b) in first.iter().zip(v.iter()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
        prop_assert!((vector::kahan_sum(&v) - 1.0).abs() < 1e-12);
    }
}
