//! f32-rescore consistency suite: `Precision::F32Rescore` must return
//! **bit-identical** neighbor indices and f64 distances to the pure-f64
//! scan, across all four distance classes, Q ∈ {1, 16}, k ∈ {1, 10, 50},
//! in every kernel mode and through every entry point (LinearScan,
//! shared-metric multi, per-query-metric multi). The phase-1 f32 filter
//! with its inflated bounds may only change *how much* the scan reads,
//! never *what* it answers.

use fbp_linalg::Matrix;
use fbp_vecdb::distance::{FeatureSpan, HierarchicalDistance};
use fbp_vecdb::{
    Collection, CollectionBuilder, Distance, Euclidean, KnnEngine, LinearScan, Manhattan,
    MultiQueryScan, Precision, QuadraticDistance, QueryBatch,
    QueryMetrics::{PerQuery, Shared, Weighted},
    ScanMode, WeightedEuclidean,
};

const DIM: usize = 24;

fn collection(n: usize, mirror: bool) -> Collection {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut b = CollectionBuilder::new();
    if mirror {
        b = b.with_f32_mirror();
    }
    for _ in 0..n {
        let v: Vec<f64> = (0..DIM).map(|_| next()).collect();
        b.push_unlabelled(&v).unwrap();
    }
    b.build()
}

fn queries(nq: usize) -> Vec<Vec<f64>> {
    (0..nq)
        .map(|q| {
            (0..DIM)
                .map(|i| ((q * 31 + i * 17) as f64 * 0.23).sin().abs())
                .collect()
        })
        .collect()
}

/// All four distance classes, in key-comparable parameterizations.
fn distance_classes() -> Vec<Box<dyn Distance>> {
    let w: Vec<f64> = (0..DIM).map(|i| 0.4 + (i % 6) as f64).collect();
    let spans = vec![FeatureSpan::new(0, 8), FeatureSpan::new(8, DIM)];
    let h = HierarchicalDistance::new(spans, vec![1.5, 0.75], w.clone()).unwrap();
    let mut m = Matrix::identity(DIM);
    for i in 0..DIM {
        m[(i, i)] = 0.5 + (i % 4) as f64;
        if i + 1 < DIM {
            m[(i, i + 1)] = 0.1;
            m[(i + 1, i)] = 0.1;
        }
    }
    vec![
        Box::new(Euclidean),
        Box::new(WeightedEuclidean::new(w).unwrap()),
        Box::new(QuadraticDistance::new(&m).unwrap()),
        Box::new(h),
    ]
}

#[test]
fn linear_scan_f32_rescore_bit_identical_all_classes() {
    let coll = collection(1500, true);
    let qs = queries(3);
    for dist in distance_classes() {
        for q in &qs {
            for k in [1usize, 10, 50] {
                for mode in [ScanMode::Batched, ScanMode::Parallel] {
                    let f64_res = LinearScan::with_mode(&coll, mode).knn(q, k, &*dist);
                    let f32_res = LinearScan::with_mode(&coll, mode)
                        .with_precision(Precision::F32Rescore)
                        .knn(q, k, &*dist);
                    assert_eq!(
                        f32_res,
                        f64_res,
                        "{} k={k} mode={mode:?}: f32-rescore diverged",
                        dist.name()
                    );
                }
            }
        }
    }
}

#[test]
fn multi_query_f32_rescore_bit_identical_all_classes() {
    let coll = collection(1200, true);
    for dist in distance_classes() {
        for nq in [1usize, 16] {
            let qs = queries(nq);
            let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
            for k in [1usize, 10, 50] {
                for mode in [ScanMode::Batched, ScanMode::Parallel] {
                    let batch = QueryBatch::new(&refs, Shared(&*dist), k);
                    let f64_res = MultiQueryScan::with_mode(&coll, mode).knn(&batch);
                    let f32_res = MultiQueryScan::with_mode(&coll, mode)
                        .with_precision(Precision::F32Rescore)
                        .knn(&batch);
                    assert_eq!(
                        f32_res,
                        f64_res,
                        "{} Q={nq} k={k} mode={mode:?}: f32-rescore diverged",
                        dist.name()
                    );
                }
            }
        }
    }
}

#[test]
fn per_query_metrics_f32_rescore_bit_identical() {
    let coll = collection(1000, true);
    let owned = distance_classes();
    let qs = queries(owned.len());
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let dists: Vec<&dyn Distance> = owned.iter().map(|d| &**d).collect();
    for mode in [ScanMode::Batched, ScanMode::Parallel] {
        let batch = QueryBatch::new(&refs, PerQuery(&dists), 20);
        let f64_res = MultiQueryScan::with_mode(&coll, mode).knn(&batch);
        let f32_res = MultiQueryScan::with_mode(&coll, mode)
            .with_precision(Precision::F32Rescore)
            .knn(&batch);
        assert_eq!(f32_res, f64_res, "mode={mode:?}");
    }
}

#[test]
fn range_f32_rescore_bit_identical_all_classes() {
    let coll = collection(1500, true);
    let qs = queries(3);
    for dist in distance_classes() {
        for q in &qs {
            // Radii spanning empty → sparse → bulky result sets, derived
            // from the actual neighbor distances so every class gets
            // non-trivial membership (including one radius sitting
            // exactly ON a neighbor distance — boundary membership must
            // be decided identically by both precisions).
            let nn = LinearScan::with_mode(&coll, ScanMode::Batched).knn(q, 50, &*dist);
            let radii = [
                nn[0].dist * 0.5,
                nn[9].dist,
                nn[49].dist * 1.1,
                f64::INFINITY,
            ];
            for (ri, &radius) in radii.iter().enumerate() {
                for mode in [ScanMode::Batched, ScanMode::Parallel] {
                    let f64_res = LinearScan::with_mode(&coll, mode).range(q, radius, &*dist);
                    let f32_res = LinearScan::with_mode(&coll, mode)
                        .with_precision(Precision::F32Rescore)
                        .range(q, radius, &*dist);
                    assert_eq!(
                        f32_res,
                        f64_res,
                        "{} radius#{ri} mode={mode:?}: f32-rescore range diverged",
                        dist.name()
                    );
                }
            }
        }
    }
}

#[test]
fn range_f32_rescore_fallbacks_match_f64() {
    // No mirror, unsupported class (Manhattan), and Scalar mode must all
    // transparently serve the f64 range answer.
    let unmirrored = collection(400, false);
    let mirrored = collection(400, true);
    let q = queries(1).pop().unwrap();
    let w = WeightedEuclidean::new((0..DIM).map(|i| 0.5 + (i % 3) as f64).collect()).unwrap();
    let radius = 1.5;
    let expect = LinearScan::with_mode(&unmirrored, ScanMode::Batched).range(&q, radius, &w);
    let no_mirror = LinearScan::with_mode(&unmirrored, ScanMode::Batched)
        .with_precision(Precision::F32Rescore)
        .range(&q, radius, &w);
    assert_eq!(no_mirror, expect);
    let manhattan_f64 =
        LinearScan::with_mode(&mirrored, ScanMode::Batched).range(&q, radius, &Manhattan);
    let manhattan_f32 = LinearScan::with_mode(&mirrored, ScanMode::Batched)
        .with_precision(Precision::F32Rescore)
        .range(&q, radius, &Manhattan);
    assert_eq!(manhattan_f32, manhattan_f64);
    let scalar = LinearScan::with_mode(&mirrored, ScanMode::Scalar)
        .with_precision(Precision::F32Rescore)
        .range(&q, radius, &w);
    let scalar_f64 = LinearScan::with_mode(&mirrored, ScanMode::Scalar).range(&q, radius, &w);
    assert_eq!(scalar, scalar_f64);
}

#[test]
fn weighted_per_query_f32_rescore_bit_identical() {
    let coll = collection(1100, true);
    let qs = queries(5);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let metrics: Vec<WeightedEuclidean> = (0..5)
        .map(|q| {
            WeightedEuclidean::new((0..DIM).map(|i| 0.3 + ((q + i) % 5) as f64).collect()).unwrap()
        })
        .collect();
    let ks = [1usize, 10, 50, 7, 25];
    let mrefs: Vec<&WeightedEuclidean> = metrics.iter().collect();
    let weighted = QueryBatch::new(&refs, Weighted(&mrefs), 0).with_ks(&ks);
    for mode in [ScanMode::Batched, ScanMode::Parallel] {
        let f64_res = MultiQueryScan::with_mode(&coll, mode).knn(&weighted);
        let f32_res = MultiQueryScan::with_mode(&coll, mode)
            .with_precision(Precision::F32Rescore)
            .knn(&weighted);
        assert_eq!(f32_res, f64_res, "mode {mode:?}");
        for ((q, m), (res, &k)) in refs
            .iter()
            .zip(metrics.iter())
            .zip(f32_res.iter().zip(ks.iter()))
        {
            let expect = LinearScan::with_mode(&coll, ScanMode::Batched).knn(q, k, m);
            assert_eq!(
                res, &expect,
                "mode {mode:?} k={k}: diverged from LinearScan"
            );
        }
    }
}

#[test]
fn f32_rescore_without_mirror_falls_back_to_f64() {
    let coll = collection(400, false);
    let qs = queries(2);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let w = WeightedEuclidean::new((0..DIM).map(|i| 0.5 + (i % 3) as f64).collect()).unwrap();
    let batch = QueryBatch::new(&refs, Shared(&w), 9);
    let f64_res = MultiQueryScan::with_mode(&coll, ScanMode::Batched).knn(&batch);
    let f32_res = MultiQueryScan::with_mode(&coll, ScanMode::Batched)
        .with_precision(Precision::F32Rescore)
        .knn(&batch);
    assert_eq!(f32_res, f64_res);
}

#[test]
fn f32_rescore_unsupported_class_falls_back_to_f64() {
    // Manhattan has no f32 kernel (no `f32_key_bound`): requesting
    // F32Rescore must transparently serve the f64 answer.
    let coll = collection(400, true);
    let qs = queries(2);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let batch = QueryBatch::new(&refs, Shared(&Manhattan), 5);
    let f64_res = MultiQueryScan::with_mode(&coll, ScanMode::Batched).knn(&batch);
    let f32_res = MultiQueryScan::with_mode(&coll, ScanMode::Batched)
        .with_precision(Precision::F32Rescore)
        .knn(&batch);
    assert_eq!(f32_res, f64_res);
}

#[test]
fn f32_rescore_scalar_mode_ignores_precision() {
    let coll = collection(300, true);
    let q = queries(1).pop().unwrap();
    let f64_res = LinearScan::with_mode(&coll, ScanMode::Scalar).knn(&q, 7, &Euclidean);
    let f32_res = LinearScan::with_mode(&coll, ScanMode::Scalar)
        .with_precision(Precision::F32Rescore)
        .knn(&q, 7, &Euclidean);
    assert_eq!(f32_res, f64_res);
}

#[test]
fn f32_rescore_edge_ks() {
    let coll = collection(120, true);
    let qs = queries(3);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let w = WeightedEuclidean::new((0..DIM).map(|i| 0.5 + (i % 3) as f64).collect()).unwrap();
    let scan =
        MultiQueryScan::with_mode(&coll, ScanMode::Batched).with_precision(Precision::F32Rescore);
    // k = 0 returns empty; oversized k returns the whole collection.
    for res in scan.knn(&QueryBatch::new(&refs, Shared(&w), 0)) {
        assert!(res.is_empty());
    }
    let batch = QueryBatch::new(&refs, Shared(&w), 500);
    let full = scan.knn(&batch);
    let expect = MultiQueryScan::with_mode(&coll, ScanMode::Batched).knn(&batch);
    assert_eq!(full, expect);
    for res in &full {
        assert_eq!(res.len(), 120);
    }
    // Empty collection with a mirror.
    let empty = CollectionBuilder::new()
        .with_dim(DIM)
        .with_f32_mirror()
        .build();
    let scan = MultiQueryScan::new(&empty).with_precision(Precision::F32Rescore);
    assert_eq!(
        scan.knn(&QueryBatch::new(&refs, Shared(&w), 3)),
        vec![Vec::new(); 3]
    );
}

/// Components ≳1e18 drive weighted keys toward `f32::MAX`, where an f32
/// key can saturate to `+∞` while its f64 counterpart stays finite — no
/// finite rounding bound is sound there. The classes must refuse f32
/// scanning (`f32_key_bound` → `None`) so the scan transparently serves
/// the exact f64 answer.
#[test]
fn f32_rescore_huge_magnitudes_fall_back_to_f64() {
    let mut b = CollectionBuilder::new().with_f32_mirror();
    let mut state = 0xD1B5_4A32_D192_ED03u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..300 {
        let v: Vec<f64> = (0..DIM).map(|_| next() * 1e18).collect();
        b.push_unlabelled(&v).unwrap();
    }
    let coll = b.build();
    let q: Vec<f64> = (0..DIM).map(|i| (i as f64) * 1e16).collect();
    for dist in distance_classes() {
        assert!(
            dist.f32_key_bound(DIM, coll.max_abs().unwrap()).is_none(),
            "{}: bound must be refused near f32 overflow",
            dist.name()
        );
        let f64_res = LinearScan::with_mode(&coll, ScanMode::Batched).knn(&q, 10, &*dist);
        let f32_res = LinearScan::with_mode(&coll, ScanMode::Batched)
            .with_precision(Precision::F32Rescore)
            .knn(&q, 10, &*dist);
        assert_eq!(f32_res, f64_res, "{}", dist.name());
    }
}

/// Adversarial near-tie data: many rows at (almost) the same distance,
/// differing by less than f32 resolution — exactly the regime where a
/// naive f32 scan reorders neighbors, and where the inflated bound must
/// keep every contender alive for the rescore.
#[test]
fn f32_rescore_survives_sub_f32_ties() {
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for i in 0..512 {
        // All rows at radius ~1 from the origin in the first coordinate,
        // perturbed by ± a few f64 ulps-in-f32 (1e-9 ≪ f32 eps ≈ 1.2e-7).
        let eps = ((i * 2654435761u64 as usize) % 1000) as f64 * 1e-9;
        let mut v = vec![0.0; DIM];
        v[0] = 1.0 + eps;
        v[1] = (i % 7) as f64 * 1e-9;
        b.push_unlabelled(&v).unwrap();
    }
    let coll = b.build();
    let q = vec![0.0; DIM];
    let w = WeightedEuclidean::new(vec![1.0; DIM]).unwrap();
    for k in [1usize, 10, 50] {
        let f64_res = LinearScan::with_mode(&coll, ScanMode::Batched).knn(&q, k, &w);
        let f32_res = LinearScan::with_mode(&coll, ScanMode::Batched)
            .with_precision(Precision::F32Rescore)
            .knn(&q, k, &w);
        assert_eq!(f32_res, f64_res, "k={k}: sub-f32 ties were reordered");
    }
}

/// The axis [`assert_weighted_edge_matches_f64`] quantizes.
const COARSE: usize = 3;

/// `F32Rescore` against `F64` for one Shared weighted pass (and its
/// hierarchical twin, whose effective weights are the same vector) over
/// 2,000 × 24-d uniform rows scaled by `scale`, `k = 10`, Batched.
/// Component [`COARSE`] is snapped to quarters and the query sits on
/// one, so a quarter of the rows differ from it by exactly 0 there.
fn assert_weighted_edge_matches_f64(weights: Vec<f64>, scale: f64, case: &str) {
    let mut b = CollectionBuilder::new().with_f32_mirror();
    let unit = collection(2000, false);
    for i in 0..unit.len() {
        let mut v = unit.vector(i).to_vec();
        v[COARSE] = (v[COARSE] * 4.0).floor() / 4.0;
        b.push_unlabelled(&v.iter().map(|x| x * scale).collect::<Vec<_>>())
            .unwrap();
    }
    let coll = b.build();
    let mut q = queries(1).pop().unwrap();
    q[COARSE] = 0.5;
    let q: Vec<f64> = q.iter().map(|x| x * scale).collect();
    let refs = [q.as_slice()];
    let w = WeightedEuclidean::new(weights.clone()).unwrap();
    let spans = vec![FeatureSpan::new(0, 8), FeatureSpan::new(8, DIM)];
    let h = HierarchicalDistance::new(spans, vec![1.0, 1.0], weights).unwrap();
    for dist in [&w as &dyn Distance, &h] {
        let batch = QueryBatch::new(&refs, Shared(dist), 10);
        let f64_res = MultiQueryScan::with_mode(&coll, ScanMode::Batched).knn(&batch);
        let f32_res = MultiQueryScan::with_mode(&coll, ScanMode::Batched)
            .with_precision(Precision::F32Rescore)
            .knn(&batch);
        assert_eq!(f64_res[0].len(), 10, "{case} {}", dist.name());
        assert_eq!(f32_res, f64_res, "{case} {}", dist.name());
    }
}

/// Every weight `1e-45` rounds to an f32 subnormal, where f32 rounding
/// is no longer relative: the bound must refuse the f32 pass.
#[test]
fn f32_rescore_subnormal_weights_match_f64() {
    assert_weighted_edge_matches_f64(vec![1e-45; DIM], 1.0, "subnormal weights");
}

/// Rows and query scaled by `1e-22`: every f32 square underflows, so
/// the bound needs its absolute underflow term.
#[test]
fn f32_rescore_underflowing_squares_match_f64() {
    let w: Vec<f64> = (0..DIM).map(|i| 0.4 + (i % 6) as f64).collect();
    assert_weighted_edge_matches_f64(w, 1e-22, "underflowing squares");
}

/// One weight above `f32::MAX` rounds to `inf` (small data keeps the
/// worst-case key under the overflow guard): the rows level with the
/// query on that axis — the true nearest — get `inf·0 = NaN` f32 keys,
/// which the admit drops.
#[test]
fn f32_rescore_weight_beyond_f32_max_matches_f64() {
    let mut w: Vec<f64> = (0..DIM).map(|i| 0.4 + (i % 6) as f64).collect();
    w[COARSE] = 1e39;
    assert_weighted_edge_matches_f64(w, 1e-3, "weight beyond f32::MAX");
}

/// The quadratic-form twin of
/// [`f32_rescore_underflowing_squares_match_f64`]: rows and query scaled
/// so every f32 square `y²` of the transformed difference underflows,
/// where only an absolute underflow term keeps the bound sound.
#[test]
fn f32_rescore_quadratic_underflowing_squares_match_f64() {
    let quad = distance_classes().swap_remove(2);
    assert_eq!(quad.name(), "quadratic");
    for scale in [1e-22, 1e-23] {
        let unit = collection(2000, false);
        let mut b = CollectionBuilder::new().with_f32_mirror();
        for i in 0..unit.len() {
            b.push_unlabelled(&unit.vector(i).iter().map(|x| x * scale).collect::<Vec<_>>())
                .unwrap();
        }
        let coll = b.build();
        let q: Vec<f64> = queries(1)[0].iter().map(|x| x * scale).collect();
        let refs = [q.as_slice()];
        let batch = QueryBatch::new(&refs, Shared(&*quad), 10);
        let f64_res = MultiQueryScan::with_mode(&coll, ScanMode::Batched).knn(&batch);
        let f32_res = MultiQueryScan::with_mode(&coll, ScanMode::Batched)
            .with_precision(Precision::F32Rescore)
            .knn(&batch);
        assert_eq!(f64_res[0].len(), 10, "scale {scale}");
        assert_eq!(f32_res, f64_res, "scale {scale}");
    }
}
