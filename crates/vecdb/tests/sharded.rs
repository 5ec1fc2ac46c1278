//! Sliced-rows consistency suite: a collection cut into contiguous row
//! slices — what a router deployment serves, one slice per shard server
//! — and answered as per-slice keyed passes
//! ([`MultiQueryScan::knn_keyed`]), offset to global rows and merged
//! with [`merge_partials`], must return **bit-identical** neighbor
//! indices and f64 distances to the unsliced [`LinearScan`] /
//! [`MultiQueryScan`], across all four distance classes, both
//! precisions, and the slice-boundary edges — S ∈ {1, 3, len}, S > len
//! (empty slices), k larger than any single slice, and per-query k.
//! Cutting the rows is a deployment knob, never a result knob.

use fbp_linalg::Matrix;
use fbp_vecdb::distance::{FeatureSpan, HierarchicalDistance};
use fbp_vecdb::{
    merge_partials, Collection, CollectionBuilder, Distance, Euclidean, KnnEngine, LinearScan,
    MultiQueryScan, Neighbor, Precision, QuadraticDistance, QueryBatch,
    QueryMetrics::{PerQuery, Shared, Weighted},
    ScanMode, ShardPartial, WeightedEuclidean,
};

const DIM: usize = 24;
const N: usize = 900;

fn collection(n: usize, mirror: bool) -> Collection {
    let mut state = 0xB5AD_4ECE_DA1C_E2A9u64;
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
                .map(|i| ((q * 29 + i * 13) as f64 * 0.41).sin().abs())
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

/// The acceptance matrix: slice counts spanning the degenerate edges.
fn slice_counts(len: usize) -> [usize; 3] {
    [1, 3, len]
}

/// The router's cut: slice `i` holds rows `⌊i·len/S⌋..⌊(i+1)·len/S⌋`
/// and its first row is its offset.
fn slices(coll: &Collection, s: usize) -> Vec<(Collection, u32)> {
    let len = coll.len();
    (0..s)
        .map(|i| {
            let (start, end) = (i * len / s, (i + 1) * len / s);
            (coll.slice_rows(start, end), start as u32)
        })
        .collect()
}

/// Every slice's keyed pass for `batch` under the scan `scan` builds,
/// offset to global rows: `parts[slice][query]`.
fn scatter<'c>(
    slices: &'c [(Collection, u32)],
    scan: impl Fn(&'c Collection) -> MultiQueryScan<'c>,
    batch: &QueryBatch<'_>,
) -> Vec<Vec<ShardPartial>> {
    (slices.iter())
        .map(|(slice, offset)| {
            (scan(slice).knn_keyed(batch).into_iter())
                .map(|p| p.offset(*offset))
                .collect()
        })
        .collect()
}

/// Merge every query's slice partials: query `q` keeps `ks[q]` under
/// `dists[q]`.
fn gather(
    parts: &[Vec<ShardPartial>],
    ks: &[usize],
    dists: &[&dyn Distance],
) -> Vec<Vec<Neighbor>> {
    (0..ks.len())
        .map(|q| merge_partials(parts.iter().map(|p| &p[q]), ks[q], dists[q]))
        .collect()
}

#[test]
fn sharded_knn_bit_identical_all_classes_both_precisions() {
    // Mirrored collection: F32Rescore engages the two-phase path, F64
    // pins the single-phase one — both must match the flat LinearScan
    // bit for bit through the slice merge.
    let coll = collection(N, true);
    let qs = queries(2);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    for dist in distance_classes() {
        for s in slice_counts(N) {
            let sliced = slices(&coll, s);
            for precision in [Precision::F64, Precision::F32Rescore] {
                for mode in [ScanMode::Batched, ScanMode::Parallel] {
                    let scan = |c| MultiQueryScan::with_mode(c, mode).with_precision(precision);
                    let flat = LinearScan::with_mode(&coll, mode).with_precision(precision);
                    for k in [1usize, 10, 50] {
                        let batch = QueryBatch::new(&refs, Shared(&*dist), k);
                        let parts = scatter(&sliced, scan, &batch);
                        let got = gather(&parts, &[k, k], &[&*dist, &*dist]);
                        for (q, res) in refs.iter().zip(got.iter()) {
                            let expect = flat.knn(q, k, &*dist);
                            assert_eq!(
                                res, &expect,
                                "S={s} k={k} mode={mode:?} precision={precision:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn scalar_mode_merges_in_distance_space() {
    // The Scalar reference pushes true distances (identity finish); the
    // slice merge must reproduce the flat Scalar scan exactly, too.
    let coll = collection(200, false);
    let qs = queries(2);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let sliced = slices(&coll, 3);
    let flat = LinearScan::with_mode(&coll, ScanMode::Scalar);
    for dist in distance_classes() {
        let batch = QueryBatch::new(&refs, Shared(&*dist), 7);
        let parts = scatter(
            &sliced,
            |c| MultiQueryScan::with_mode(c, ScanMode::Scalar),
            &batch,
        );
        assert!(parts.iter().flatten().all(ShardPartial::is_finished));
        for (q, res) in refs.iter().zip(gather(&parts, &[7, 7], &[&*dist, &*dist])) {
            assert_eq!(res, flat.knn(q, 7, &*dist));
        }
    }
}

#[test]
fn empty_shards_and_k_beyond_shard_len() {
    let n = 10;
    let coll = collection(n, true);
    let q = queries(1).remove(0);
    let w = WeightedEuclidean::new((0..DIM).map(|i| 0.3 + (i % 5) as f64).collect()).unwrap();
    let flat = LinearScan::with_mode(&coll, ScanMode::Batched);
    // S > len: tail slices are empty and contribute empty partials.
    for s in [n, n + 7, 3] {
        let sliced = slices(&coll, s);
        let batched = |c| MultiQueryScan::with_mode(c, ScanMode::Batched);
        // k exceeds every slice's length (and, at k = 100, the whole
        // collection): the merge must still assemble the global answer.
        for k in [4usize, n, 100] {
            let parts = scatter(&sliced, batched, &QueryBatch::new(&[&q], Shared(&w), k));
            assert_eq!(
                gather(&parts, &[k], &[&w]),
                vec![flat.knn(&q, k, &w)],
                "S={s} k={k}"
            );
        }
        // k = 0 stays empty.
        let parts = scatter(&sliced, batched, &QueryBatch::new(&[&q], Shared(&w), 0));
        assert_eq!(gather(&parts, &[0], &[&w]), vec![Vec::new()]);
    }
    // A fully empty collection slices into S empty slices and serves
    // empty results; an empty batch yields no partial at all.
    let empty = slices(&CollectionBuilder::new().build(), 4);
    let eq: &[f64] = &[];
    let parts = scatter(
        &empty,
        MultiQueryScan::new,
        &QueryBatch::new(&[eq], Shared(&Euclidean), 5),
    );
    assert_eq!(gather(&parts, &[5], &[&Euclidean]), vec![Vec::new()]);
    let parts = scatter(
        &empty,
        MultiQueryScan::new,
        &QueryBatch::new(&[], Shared(&Euclidean), 5),
    );
    assert!(parts.iter().all(Vec::is_empty));
}

#[test]
fn per_query_k_and_per_query_metrics_match_flat() {
    let coll = collection(N, true);
    let qs = queries(3);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let ks = [1usize, 50, 7];
    let metrics: Vec<WeightedEuclidean> = (0..3)
        .map(|q| {
            WeightedEuclidean::new((0..DIM).map(|i| 0.3 + ((q + i) % 4) as f64).collect()).unwrap()
        })
        .collect();
    let dists: Vec<&dyn Distance> = metrics.iter().map(|m| m as &dyn Distance).collect();
    let mrefs: Vec<&WeightedEuclidean> = metrics.iter().collect();
    let weighted = QueryBatch::new(&refs, Weighted(&mrefs), 0).with_ks(&ks);
    for s in slice_counts(N) {
        let sliced = slices(&coll, s);
        for precision in [Precision::F64, Precision::F32Rescore] {
            let scan =
                |c| MultiQueryScan::with_mode(c, ScanMode::Batched).with_precision(precision);
            let flat = scan(&coll);
            // Shared metric, per-query k.
            let w = &metrics[0];
            let shared = QueryBatch::new(&refs, Shared(w), 0).with_ks(&ks);
            assert_eq!(
                gather(&scatter(&sliced, scan, &shared), &ks, &[w, w, w]),
                flat.knn(&shared),
                "shared metric S={s} precision={precision:?}"
            );
            // Per-query generic metrics.
            let per_query = QueryBatch::new(&refs, PerQuery(&dists), 0).with_ks(&ks);
            assert_eq!(
                gather(&scatter(&sliced, scan, &per_query), &ks, &dists),
                flat.knn(&per_query),
                "per-query dists S={s} precision={precision:?}"
            );
            // Per-query weighted metrics (the serving fast path).
            assert_eq!(
                gather(&scatter(&sliced, scan, &weighted), &ks, &dists),
                flat.knn(&weighted),
                "per-query weighted S={s} precision={precision:?}"
            );
        }
    }
}

#[test]
fn thread_budget_does_not_change_results() {
    let coll = collection(N, true);
    let qs = queries(2);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let w = WeightedEuclidean::new((0..DIM).map(|i| 0.2 + (i % 5) as f64).collect()).unwrap();
    let sliced = slices(&coll, 4);
    let batch = QueryBatch::new(&refs, Shared(&w), 9);
    let parallel = |c| MultiQueryScan::with_mode(c, ScanMode::Parallel);
    let a = gather(&scatter(&sliced, parallel, &batch), &[9, 9], &[&w, &w]);
    assert_eq!(
        a,
        MultiQueryScan::with_mode(&coll, ScanMode::Batched).knn(&batch)
    );
    for budget in [1, 2] {
        let budgeted = |c| parallel(c).with_thread_budget(budget);
        let b = gather(&scatter(&sliced, budgeted, &batch), &[9, 9], &[&w, &w]);
        assert_eq!(a, b, "budget {budget}");
    }
}

#[test]
fn seeded_scans_stay_bit_identical() {
    // Cross-slice bound propagation, as the router seeds its downstream
    // calls: capping a slice pass with another slice's k-th key (a
    // sound upper bound on the global k-th) must not change the merged
    // answer — for either precision, and even with the tightest legal
    // cap, the exact global k-th key itself.
    let coll = collection(N, true);
    let qs = queries(2);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let metrics: Vec<WeightedEuclidean> = (0..2)
        .map(|q| {
            WeightedEuclidean::new((0..DIM).map(|i| 0.3 + ((q + i) % 4) as f64).collect()).unwrap()
        })
        .collect();
    let dists: Vec<&dyn Distance> = metrics.iter().map(|m| m as &dyn Distance).collect();
    let ks = [10usize, 50];
    let mrefs: Vec<&WeightedEuclidean> = metrics.iter().collect();
    let batch = QueryBatch::new(&refs, Weighted(&mrefs), 0).with_ks(&ks);
    let expect = MultiQueryScan::with_mode(&coll, ScanMode::Batched).knn(&batch);
    for s in [2usize, 3] {
        let sliced = slices(&coll, s);
        for precision in [Precision::F64, Precision::F32Rescore] {
            let scan =
                |c| MultiQueryScan::with_mode(c, ScanMode::Batched).with_precision(precision);
            // An unseeded pass over slice 0 yields each query's local
            // k-th bound; the exact global k-th comes from the flat
            // keyed pass; `+∞` is the degenerate no-op cap.
            let p0 = scatter(&sliced[..1], scan, &batch).remove(0);
            let bound = |parts: &[ShardPartial]| -> Vec<f64> {
                (parts.iter().zip(&ks))
                    .map(|(p, &k)| p.bound_key(k).unwrap_or(f64::INFINITY))
                    .collect()
            };
            let exact = bound(&scan(&coll).knn_keyed(&batch));
            for caps in [vec![f64::INFINITY; 2], bound(&p0), exact] {
                let mut parts = vec![p0.clone()];
                parts.extend(scatter(&sliced[1..], scan, &batch.with_caps(&caps)));
                assert_eq!(
                    gather(&parts, &ks, &dists),
                    expect,
                    "S={s} caps={caps:?} precision={precision:?}: seeded pass diverged"
                );
            }
        }
    }
}

#[test]
fn partial_merge_is_shard_order_independent() {
    // The router's gather receives partials in whatever order the shard
    // servers answer; the merged answer must not care.
    let coll = collection(300, true);
    let q = queries(1).remove(0);
    let w = WeightedEuclidean::new((0..DIM).map(|i| 0.5 + (i % 3) as f64).collect()).unwrap();
    let parts = scatter(
        &slices(&coll, 3),
        |c| MultiQueryScan::with_mode(c, ScanMode::Batched),
        &QueryBatch::new(&[&q], Weighted(&[&w]), 10),
    );
    let expect = LinearScan::with_mode(&coll, ScanMode::Batched).knn(&q, 10, &w);
    // Every permutation of slice arrival order merges identically.
    for order in [[0, 1, 2], [2, 1, 0], [1, 0, 2], [2, 0, 1]] {
        let merged = merge_partials(order.iter().map(|&s| &parts[s][0]), 10, &w);
        assert_eq!(merged, expect, "order {order:?}");
    }
}

#[test]
fn split_scan_shard_plus_merge_matches_one_shot() {
    // Each shard server groups requests into passes on its own. A
    // partial must not depend on which requests shared its slice pass,
    // nor the merged reply on the order partials arrive in. One
    // uniform-weight request and two diverged ones, per-request k: the
    // whole batch is a per-query-weight pass, a singleton a
    // shared-metric one.
    let coll = collection(400, true);
    let qs = queries(3);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let metrics = [
        WeightedEuclidean::uniform(DIM),
        WeightedEuclidean::new((0..DIM).map(|i| 0.25 + (i % 3) as f64).collect()).unwrap(),
        WeightedEuclidean::new((0..DIM).map(|i| 3.0 - (i % 5) as f64 * 0.5).collect()).unwrap(),
    ];
    let mrefs: Vec<&WeightedEuclidean> = metrics.iter().collect();
    let ks = [1usize, 50, 7];
    let sliced = slices(&coll, 3);
    // F32Rescore over mirrored slices: the serving configuration.
    let scan =
        |c| MultiQueryScan::with_mode(c, ScanMode::Batched).with_precision(Precision::F32Rescore);
    let one_shot = scan(&coll).knn(&QueryBatch::new(&refs, Weighted(&mrefs), 0).with_ks(&ks));
    let pass = |slice: usize, reqs: std::ops::Range<usize>| {
        let batch = QueryBatch::new(&refs[reqs.clone()], Weighted(&mrefs[reqs.clone()]), 0)
            .with_ks(&ks[reqs]);
        scatter(&sliced[slice..slice + 1], scan, &batch).remove(0)
    };
    // Slice 0 sees the whole batch at once, slice 1 serves the requests
    // as three singleton passes, slice 2 as a pair plus a singleton.
    let p0 = pass(0, 0..3);
    let p1: Vec<_> = (0..3).map(|r| pass(1, r..r + 1).remove(0)).collect();
    let mut p2 = pass(2, 0..2);
    p2.extend(pass(2, 2..3));
    for r in 0..3 {
        let merged = merge_partials([&p1[r], &p2[r], &p0[r]], ks[r], &metrics[r]);
        assert_eq!(merged, one_shot[r], "request {r}");
    }
}
