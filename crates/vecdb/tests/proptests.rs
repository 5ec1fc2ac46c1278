//! Property-based tests: range queries must agree with the k-NN ranking,
//! distances must obey their distortion contracts (the partition bounds
//! rest on them), and the f32-rescore machinery must obey its rounding-bound
//! contract (`|key32 − key64| ≤ f32_key_slack`) — the inequality the
//! two-phase scan's exactness proof stands on.

use fbp_linalg::Matrix;
use fbp_vecdb::distance::FeatureSpan;
use fbp_vecdb::{
    Collection, CollectionBuilder, Distance, Euclidean, HierarchicalDistance, KnnEngine,
    LinearScan, Precision, QuadraticDistance, ScanMode, WeightedEuclidean,
};
use proptest::prelude::*;

const DIM: usize = 4;

fn build_collection(points: &[Vec<f64>]) -> Collection {
    let mut b = CollectionBuilder::new();
    for p in points {
        b.push_unlabelled(p).unwrap();
    }
    b.build()
}

fn points_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0..1.0f64, DIM), 2..120)
}

fn weights_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.1..10.0f64, DIM)
}

/// `|key32 − key64| ≤ slack` for one (query, row) pair under `dist` —
/// keys computed exactly as the scan engines compute them (one-row block
/// through the dispatched f32 kernel vs the exact f64 kernel).
fn assert_key_within_slack(
    dist: &dyn Distance,
    q: &[f64],
    row: &[f64],
) -> std::result::Result<(), TestCaseError> {
    let dim = q.len();
    let max_abs = q
        .iter()
        .chain(row.iter())
        .fold(0.0f64, |m, &v| m.max(v.abs()));
    let slack = dist
        .f32_key_slack(dim, max_abs)
        .expect("class under test supports f32");
    prop_assert!(slack.is_finite() && slack >= 0.0);
    let mut key64 = [0.0f64; 1];
    dist.eval_key_batch(q, row, dim, f64::INFINITY, &mut key64);
    let q32: Vec<f32> = q.iter().map(|&v| v as f32).collect();
    let row32: Vec<f32> = row.iter().map(|&v| v as f32).collect();
    let mut key32 = [0.0f32; 1];
    dist.eval_key_batch_f32(&q32, &row32, dim, f32::INFINITY, &mut key32);
    prop_assert!(
        (key32[0] as f64 - key64[0]).abs() <= slack,
        "{}: |key32 − key64| = {} exceeds slack {slack} (key64 {})",
        dist.name(),
        (key32[0] as f64 - key64[0]).abs(),
        key64[0]
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn range_queries_agree(
        points in points_strategy(),
        q in prop::collection::vec(0.0..1.0f64, DIM),
        w in weights_strategy(),
        radius in 0.05..1.0f64,
    ) {
        let coll = build_collection(&points);
        let dist = WeightedEuclidean::new(w).unwrap();
        // A range answer is the within-radius prefix of the full ranking.
        let scan = LinearScan::new(&coll);
        let mut ranked = scan.knn(&q, coll.len(), &dist);
        ranked.retain(|n| n.dist <= radius);
        prop_assert_eq!(scan.range(&q, radius, &dist), ranked);
    }

    #[test]
    fn weighted_distortion_contract(
        a in prop::collection::vec(-2.0..2.0f64, DIM),
        b in prop::collection::vec(-2.0..2.0f64, DIM),
        w in weights_strategy(),
    ) {
        let dist = WeightedEuclidean::new(w).unwrap();
        let (lo, hi) = dist.euclidean_distortion().unwrap();
        let dw = dist.eval(&a, &b);
        let d2 = Euclidean.eval(&a, &b);
        prop_assert!(dw >= lo * d2 - 1e-9);
        prop_assert!(dw <= hi * d2 + 1e-9);
    }

    #[test]
    fn quadratic_distortion_contract(
        a in prop::collection::vec(-2.0..2.0f64, 3),
        b in prop::collection::vec(-2.0..2.0f64, 3),
        diag in prop::collection::vec(0.5..4.0f64, 3),
        off in -0.2..0.2f64,
    ) {
        // Diagonally dominant ⇒ SPD with positive Gershgorin lower bound.
        let mut m = Matrix::from_diag(&diag);
        m[(0, 1)] = off;
        m[(1, 0)] = off;
        let q = QuadraticDistance::new(&m).unwrap();
        if let Some((lo, hi)) = q.euclidean_distortion() {
            let dq = q.eval(&a, &b);
            let d2 = Euclidean.eval(&a, &b);
            prop_assert!(dq >= lo * d2 - 1e-9);
            prop_assert!(dq <= hi * d2 + 1e-9);
        }
    }

    #[test]
    fn f32_key_slack_is_sound_all_classes(
        a in prop::collection::vec(-3.0..3.0f64, DIM),
        b in prop::collection::vec(-3.0..3.0f64, DIM),
        w in weights_strategy(),
        diag in prop::collection::vec(0.5..4.0f64, DIM),
        off in -0.2..0.2f64,
    ) {
        // The inequality every phase-1 candidate-containment argument
        // rests on, for all four f32-capable distance classes.
        assert_key_within_slack(&Euclidean, &a, &b)?;
        assert_key_within_slack(&WeightedEuclidean::new(w.clone()).unwrap(), &a, &b)?;
        let h = HierarchicalDistance::new(
            vec![FeatureSpan::new(0, 2), FeatureSpan::new(2, DIM)],
            vec![1.7, 0.6],
            w.clone(),
        )
        .unwrap();
        assert_key_within_slack(&h, &a, &b)?;
        let mut m = Matrix::from_diag(&diag);
        m[(0, 1)] = off;
        m[(1, 0)] = off;
        assert_key_within_slack(&QuadraticDistance::new(&m).unwrap(), &a, &b)?;
    }

    #[test]
    fn f32_rescore_scan_identical_to_f64_scan(
        points in points_strategy(),
        q in prop::collection::vec(0.0..1.0f64, DIM),
        w in weights_strategy(),
        k in 1usize..20,
    ) {
        // End-to-end soundness of the inflated bound: if phase 1 ever
        // dropped a true top-k row, the rescored answer would differ
        // from the f64 scan in indices or distances.
        let mut coll = build_collection(&points);
        coll.ensure_f32_mirror();
        let dist = WeightedEuclidean::new(w).unwrap();
        for mode in [ScanMode::Batched, ScanMode::Parallel] {
            let f64_res = LinearScan::with_mode(&coll, mode).knn(&q, k, &dist);
            let f32_res = LinearScan::with_mode(&coll, mode)
                .with_precision(Precision::F32Rescore)
                .knn(&q, k, &dist);
            prop_assert_eq!(&f32_res, &f64_res, "mode {:?}", mode);
        }
    }

    #[test]
    fn hierarchical_reduces_to_weighted(
        a in prop::collection::vec(-2.0..2.0f64, DIM),
        b in prop::collection::vec(-2.0..2.0f64, DIM),
        w in weights_strategy(),
    ) {
        // One feature spanning everything with unit feature weight must
        // equal plain weighted Euclidean.
        let h = HierarchicalDistance::new(
            vec![fbp_vecdb::distance::FeatureSpan::new(0, DIM)],
            vec![1.0],
            w.clone(),
        )
        .unwrap();
        let we = WeightedEuclidean::new(w).unwrap();
        prop_assert!((h.eval(&a, &b) - we.eval(&a, &b)).abs() < 1e-9);
    }
}
