//! f32-rescore consistency suite: `Precision::F32Rescore` must return
//! **bit-identical** neighbor indices and f64 distances to the pure-f64
//! scan, across uniform, varied and log-spread
//! weights, Q ∈ {1, 16}, k ∈ {1, 10, 50},
//! in every kernel mode and through every entry point (LinearScan,
//! shared-metric multi, per-query-metric multi), with and without sound
//! pruning caps. The phase-1 f32 filter with its inflated bounds may
//! only change *how much* the scan reads, never *what* it answers.

use fbp_vecdb::{
    Collection, CollectionBuilder, Distance, KnnEngine, LinearScan, MultiQueryScan, Precision,
    QueryBatch,
    QueryMetrics::{Shared, Weighted},
    ScanMode, WeightedEuclidean,
};

mod common;
use common::{log_spread_weights, sound_caps};

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

/// The weight shapes every suite runs: uniform (plain Euclidean),
/// mildly varied, and log-spread learned-looking weights.
fn distance_classes() -> Vec<WeightedEuclidean> {
    let w: Vec<f64> = (0..DIM).map(|i| 0.4 + (i % 6) as f64).collect();
    vec![
        WeightedEuclidean::uniform(DIM),
        WeightedEuclidean::new(w).unwrap(),
        log_spread_weights(DIM),
    ]
}

#[test]
fn capped_f32_rescore_bit_identical_all_classes() {
    // A cap tightens the phase-1 ceiling `T` from row one; the f32 band
    // around it must still hold every true neighbour.
    let coll = collection(1200, true);
    let qs = queries(4);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let ks = [1usize, 10, 50, 7];
    let metrics: Vec<WeightedEuclidean> = (0..refs.len())
        .map(|q| {
            WeightedEuclidean::new((0..DIM).map(|i| 0.3 + ((q * 5 + i) % 4) as f64).collect())
                .unwrap()
        })
        .collect();
    let mrefs: Vec<&WeightedEuclidean> = metrics.iter().collect();
    let classes = distance_classes();
    let mut batches: Vec<(String, QueryBatch<'_>)> = (classes.iter())
        .map(|d| {
            let batch = QueryBatch::new(&refs, Shared(d), 0).with_ks(&ks);
            (d.name().to_string(), batch)
        })
        .collect();
    batches.push((
        "weighted".into(),
        QueryBatch::new(&refs, Weighted(&mrefs), 0).with_ks(&ks),
    ));
    for (name, batch) in &batches {
        let want = MultiQueryScan::with_mode(&coll, ScanMode::Batched).knn(batch);
        for mode in [ScanMode::Batched, ScanMode::Parallel] {
            let scan = MultiQueryScan::with_mode(&coll, mode).with_precision(Precision::F32Rescore);
            for round in 0..4 {
                let caps = sound_caps(&coll, batch, &ks, false, round);
                assert_eq!(
                    scan.knn(&batch.with_caps(&caps)),
                    want,
                    "{name} mode={mode:?} round {round}: capped f32-rescore diverged"
                );
            }
        }
    }
}

#[test]
fn linear_scan_f32_rescore_bit_identical_all_classes() {
    let coll = collection(1500, true);
    let qs = queries(3);
    for dist in distance_classes() {
        for q in &qs {
            for k in [1usize, 10, 50] {
                for mode in [ScanMode::Batched, ScanMode::Parallel] {
                    let f64_res = LinearScan::with_mode(&coll, mode).knn(q, k, &dist);
                    let f32_res = LinearScan::with_mode(&coll, mode)
                        .with_precision(Precision::F32Rescore)
                        .knn(q, k, &dist);
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
                    let batch = QueryBatch::new(&refs, Shared(&dist), k);
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
    let dists: Vec<&WeightedEuclidean> = owned.iter().collect();
    for mode in [ScanMode::Batched, ScanMode::Parallel] {
        let batch = QueryBatch::new(&refs, Weighted(&dists), 20);
        let f64_res = MultiQueryScan::with_mode(&coll, mode).knn(&batch);
        let f32_res = MultiQueryScan::with_mode(&coll, mode)
            .with_precision(Precision::F32Rescore)
            .knn(&batch);
        assert_eq!(f32_res, f64_res, "mode={mode:?}");
    }
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
fn f32_rescore_scalar_mode_ignores_precision() {
    let coll = collection(300, true);
    let q = queries(1).pop().unwrap();
    let f64_res =
        LinearScan::with_mode(&coll, ScanMode::Scalar).knn(&q, 7, &WeightedEuclidean::uniform(DIM));
    let f32_res = LinearScan::with_mode(&coll, ScanMode::Scalar)
        .with_precision(Precision::F32Rescore)
        .knn(&q, 7, &WeightedEuclidean::uniform(DIM));
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
        let f64_res = LinearScan::with_mode(&coll, ScanMode::Batched).knn(&q, 10, &dist);
        let f32_res = LinearScan::with_mode(&coll, ScanMode::Batched)
            .with_precision(Precision::F32Rescore)
            .knn(&q, 10, &dist);
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

/// `F32Rescore` against `F64` for one Shared weighted pass over
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
    let w = WeightedEuclidean::new(weights).unwrap();
    let batch = QueryBatch::new(&refs, Shared(&w), 10);
    let f64_res = MultiQueryScan::with_mode(&coll, ScanMode::Batched).knn(&batch);
    let f32_res = MultiQueryScan::with_mode(&coll, ScanMode::Batched)
        .with_precision(Precision::F32Rescore)
        .knn(&batch);
    assert_eq!(f64_res[0].len(), 10, "{case}");
    assert_eq!(f32_res, f64_res, "{case}");
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
