//! Multi-query scan consistency suite: [`MultiQueryScan`] must return
//! **bit-identical** neighbor indices and distances to Q independent
//! [`LinearScan`] runs in the same key-space mode, across
//! uniform, varied and log-spread weights and
//! Q ∈ {1, 3, 16} — per-query early-abandon bounds,
//! block boundaries, thread merges and sound pruning caps must never
//! change an answer.

use fbp_vecdb::{
    Collection, CollectionBuilder, Distance, KnnEngine, LinearScan, MultiQueryScan, QueryBatch,
    QueryMetrics::{Shared, Weighted},
    ScanMode, WeightedEuclidean,
};

mod common;
use common::{log_spread_weights, sound_caps};

const DIM: usize = 24;

fn collection(n: usize) -> Collection {
    // Deterministic LCG filler (no dev-dependency on rand needed).
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut b = CollectionBuilder::new();
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
fn sound_caps_keep_answers_bit_identical() {
    // Caps as a router seeds them: the k-th key of some row subset.
    // Every mode, shared and per-query metric forms, per-query k.
    let coll = collection(1200);
    let qs = queries(3);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let ks = [1usize, 10, 50];
    let classes = distance_classes();
    let dists: Vec<&WeightedEuclidean> = classes[..3].iter().collect();
    let mut batches: Vec<(String, QueryBatch<'_>)> = (classes.iter())
        .map(|d| {
            let batch = QueryBatch::new(&refs, Shared(d), 0).with_ks(&ks);
            (d.name().to_string(), batch)
        })
        .collect();
    batches.push((
        "per-query".into(),
        QueryBatch::new(&refs, Weighted(&dists), 0).with_ks(&ks),
    ));
    for (name, batch) in &batches {
        for mode in [ScanMode::Scalar, ScanMode::Batched, ScanMode::Parallel] {
            let scan = MultiQueryScan::with_mode(&coll, mode);
            let want = scan.knn(batch);
            for round in 0..4 {
                let caps = sound_caps(&coll, batch, &ks, mode == ScanMode::Scalar, round);
                assert_eq!(
                    scan.knn(&batch.with_caps(&caps)),
                    want,
                    "{name} mode={mode:?} round {round}: a sound cap changed the answer"
                );
            }
        }
    }
}

#[test]
fn shared_metric_bit_identical_to_independent_scans() {
    let coll = collection(1200);
    for dist in distance_classes() {
        for nq in [1usize, 3, 16] {
            let qs = queries(nq);
            let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
            for k in [1usize, 10, 50] {
                let expected: Vec<_> = refs
                    .iter()
                    .map(|q| LinearScan::with_mode(&coll, ScanMode::Batched).knn(q, k, &dist))
                    .collect();
                for mode in [ScanMode::Batched, ScanMode::Parallel] {
                    let batch = QueryBatch::new(&refs, Shared(&dist), k);
                    let got = MultiQueryScan::with_mode(&coll, mode).knn(&batch);
                    assert_eq!(
                        got,
                        expected,
                        "{} Q={nq} k={k} mode={mode:?}: multi-scan diverged",
                        dist.name()
                    );
                }
            }
        }
    }
}

#[test]
fn scalar_mode_matches_scalar_linear_scan() {
    let coll = collection(400);
    for dist in distance_classes() {
        let qs = queries(3);
        let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
        let batch = QueryBatch::new(&refs, Shared(&dist), 12);
        let got = MultiQueryScan::with_mode(&coll, ScanMode::Scalar).knn(&batch);
        for (q, res) in refs.iter().zip(got.iter()) {
            let expected = LinearScan::with_mode(&coll, ScanMode::Scalar).knn(q, 12, &dist);
            assert_eq!(res, &expected, "{}: scalar multi diverged", dist.name());
        }
    }
}

#[test]
fn per_query_metrics_bit_identical_to_independent_scans() {
    let coll = collection(1000);
    // Heterogeneous per-query metrics, one of each weight shape.
    let owned = distance_classes();
    let qs = queries(owned.len());
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let dists: Vec<&WeightedEuclidean> = owned.iter().collect();
    for mode in [ScanMode::Batched, ScanMode::Parallel] {
        let batch = QueryBatch::new(&refs, Weighted(&dists), 20);
        let got = MultiQueryScan::with_mode(&coll, mode).knn(&batch);
        for ((q, d), res) in refs.iter().zip(dists.iter()).zip(got.iter()) {
            let expected = LinearScan::with_mode(&coll, ScanMode::Batched).knn(q, 20, d);
            assert_eq!(res, &expected, "{} mode={mode:?}", d.name());
        }
    }
}

#[test]
fn auto_mode_agrees_with_explicit_modes() {
    let coll = collection(2500);
    let qs = queries(5);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let w: Vec<f64> = (0..DIM).map(|i| 0.7 + (i % 3) as f64).collect();
    let dist = WeightedEuclidean::new(w).unwrap();
    let batch = QueryBatch::new(&refs, Shared(&dist), 15);
    let auto = MultiQueryScan::new(&coll).knn(&batch);
    let batched = MultiQueryScan::with_mode(&coll, ScanMode::Batched).knn(&batch);
    assert_eq!(auto, batched);
}
