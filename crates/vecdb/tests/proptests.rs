//! Property-based tests: weighted distances must obey their distortion
//! contract (the partition bounds rest on it), and the f32-rescore
//! machinery must obey its rounding-bound contract
//! (`|key32 − key64| ≤ Δ(key64)` for the key-relative `f32_key_bound`,
//! and its reverse) — the inequalities the two-phase scan's exactness
//! proof stands on.

use fbp_vecdb::{
    Collection, CollectionBuilder, Distance, KnnEngine, LinearScan, Precision, ScanMode,
    WeightedEuclidean,
};
use proptest::prelude::*;

mod common;
use common::log_spread_weights;

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

/// The key-independent scalar slack of the diagonal family
/// (`Σ wᵢ·(aᵢ−bᵢ)²`), sized by the largest key the data can produce:
/// `Δ(key)` must never exceed it, so no rescore band is wider.
fn scalar_diagonal_slack(dim: usize, w: &[f64], max_abs: f64) -> f64 {
    let (u, eta) = (
        1.0 / (1u64 << 24) as f64,
        f32::MIN_POSITIVE as f64 / (1u64 << 24) as f64,
    );
    let (n, w_sum) = (dim as f64, w.iter().sum::<f64>());
    let relative = u * w_sum * (max_abs * max_abs) * (29.0 + 4.1 * n);
    let underflow = eta * (w_sum * (9.0 * max_abs + 1.0) + 2.0 * n);
    2.0 * (relative + underflow)
}

/// For one (query, row) pair under `dist`, with keys computed exactly as
/// the scan engines compute them (one-row block through the dispatched
/// f32 kernel vs the exact f64 kernel): `|key32 − key64| ≤ Δ(key64)`,
/// `key64 ≤ key32 + Δ'(key32)`, `Δ` monotone over probe keys around
/// both, and — when `scalar` is given — `Δ ≤ scalar` at every probe.
fn assert_key_within_bound(
    dist: &WeightedEuclidean,
    q: &[f64],
    row: &[f64],
    scalar: Option<f64>,
) -> std::result::Result<(), TestCaseError> {
    let dim = q.len();
    let max_abs = q
        .iter()
        .chain(row.iter())
        .fold(0.0f64, |m, &v| m.max(v.abs()));
    let bound = dist
        .f32_key_bound(dim, max_abs)
        .expect("class under test supports f32");
    prop_assert!(bound.is_finite());
    let mut key64 = [0.0f64; 1];
    dist.eval_key_batch(q, row, dim, f64::INFINITY, &mut key64);
    let key64 = key64[0];
    let q32: Vec<f32> = q.iter().map(|&v| v as f32).collect();
    let row32: Vec<f32> = row.iter().map(|&v| v as f32).collect();
    let mut key32 = [0.0f32; 1];
    dist.eval_key_batch_f32(&q32, &row32, dim, f32::INFINITY, &mut key32);
    let key32 = key32[0] as f64;
    prop_assert!(
        (key32 - key64).abs() <= bound.at(key64),
        "{}: |key32 − key64| = {} exceeds Δ(key64) = {} (key64 {key64})",
        dist.name(),
        (key32 - key64).abs(),
        bound.at(key64)
    );
    prop_assert!(
        key64 <= key32 + bound.reverse().at(key32),
        "{}: key64 {key64} above key32 {key32} + Δ'(key32)",
        dist.name()
    );
    let mut probes: Vec<f64> = [0.0, 0.5, 1.0, 2.0, 1e3]
        .iter()
        .flat_map(|f| [f * key64, f * key32])
        .chain([f64::INFINITY])
        .collect();
    probes.sort_by(f64::total_cmp);
    for pair in probes.windows(2) {
        prop_assert!(
            bound.at(pair[0]) <= bound.at(pair[1]),
            "{}: Δ not monotone between {} and {}",
            dist.name(),
            pair[0],
            pair[1]
        );
    }
    if let Some(scalar) = scalar {
        for &key in &probes {
            prop_assert!(
                bound.at(key) <= scalar,
                "{}: Δ({key}) = {} above the scalar slack {scalar}",
                dist.name(),
                bound.at(key)
            );
        }
    }
    Ok(())
}

/// The largest power of two `s` for which every class below still
/// offers f32 scanning on data of magnitude `3·s` — magnitudes just
/// under the overflow guard.
fn near_guard_scale(classes: &[&WeightedEuclidean]) -> f64 {
    let mut s = 2f64.powi(64);
    while classes
        .iter()
        .any(|d| d.f32_key_bound(DIM, 3.0 * s).is_none())
    {
        s /= 2.0;
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn weighted_distortion_contract(
        a in prop::collection::vec(-2.0..2.0f64, DIM),
        b in prop::collection::vec(-2.0..2.0f64, DIM),
        w in weights_strategy(),
    ) {
        // √w_min·d₂ ≤ d_W ≤ √w_max·d₂.
        let dist = WeightedEuclidean::new(w).unwrap();
        let (lo, hi) = (dist.min_weight().sqrt(), dist.max_weight().sqrt());
        let dw = dist.eval(&a, &b);
        let d2 = WeightedEuclidean::uniform(DIM).eval(&a, &b);
        prop_assert!(dw >= lo * d2 - 1e-9);
        prop_assert!(dw <= hi * d2 + 1e-9);
    }

    #[test]
    fn f32_key_bound_is_sound_all_classes(
        a in prop::collection::vec(-3.0..3.0f64, DIM),
        b in prop::collection::vec(-3.0..3.0f64, DIM),
        w in weights_strategy(),
        regime in 0usize..5,
        nudge in prop::collection::vec(-1.0..1.0f64, DIM),
    ) {
        // The inequalities every phase-1 candidate-containment argument
        // rests on, for uniform, random and log-spread weights, in five
        // regimes: the plain ranges; near-zero keys
        // (b ≈ a, differences below f32 resolution); data whose f32
        // squares underflow; subnormal f32 data; magnitudes just under
        // the overflow guard.
        let weighted = WeightedEuclidean::new(w.clone()).unwrap();
        let skewed = log_spread_weights(DIM);
        let scale = match regime {
            2 => 1e-22,
            3 => 1e-40,
            4 => near_guard_scale(&[&WeightedEuclidean::uniform(DIM), &weighted, &skewed]),
            _ => 1.0,
        };
        let a: Vec<f64> = a.iter().map(|v| v * scale).collect();
        let b: Vec<f64> = if regime == 1 {
            a.iter().zip(&nudge).map(|(v, n)| v + n * 1e-9).collect()
        } else {
            b.iter().map(|v| v * scale).collect()
        };
        let max_abs = a.iter().chain(&b).fold(0.0f64, |m, v| m.max(v.abs()));
        assert_key_within_bound(
            &WeightedEuclidean::uniform(DIM),
            &a,
            &b,
            Some(scalar_diagonal_slack(DIM, &[1.0; DIM], max_abs)),
        )?;
        assert_key_within_bound(
            &weighted,
            &a,
            &b,
            Some(scalar_diagonal_slack(DIM, &w, max_abs)),
        )?;
        assert_key_within_bound(
            &skewed,
            &a,
            &b,
            Some(scalar_diagonal_slack(DIM, skewed.weights(), max_abs)),
        )?;
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

}
