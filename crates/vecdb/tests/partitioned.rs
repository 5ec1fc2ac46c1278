//! Partition-pruning bit-identity suite: [`MultiQueryScan`] over a
//! [`PartitionedCollection`] must return **bit-identical** neighbor
//! indices and f64 distances to the flat [`LinearScan`] /
//! [`MultiQueryScan`] — across all distance classes (including ones
//! with no sound partition bound, which must fall back to the flat
//! pass), both precisions, Scalar/Batched/Parallel, per-query metrics
//! and ks, under sound pruning caps, per row slice of a router
//! deployment merged with [`merge_partials`], and across the degenerate
//! layout edges (empty partitions, one-row partitions, more partitions
//! than rows, k > len, k = 0 "prunes everything"). Partition pruning is
//! a rows-visited knob, never a result knob.

use fbp_linalg::Matrix;
use fbp_vecdb::distance::{Chebyshev, FeatureSpan, HierarchicalDistance};
use fbp_vecdb::{
    merge_partials, Collection, CollectionBuilder, Distance, Euclidean, KnnEngine, Layout,
    LinearScan, MultiQueryScan, Neighbor, PartitionConfig, PartitionedCollection, Precision,
    QuadraticDistance, QueryBatch,
    QueryMetrics::{PerQuery, Shared, Weighted},
    ScanMode, ScanStatsSink, ShardPartial, WeightedEuclidean,
};

mod common;
use common::sound_caps;

const DIM: usize = 24;
const N: usize = 900;

/// Clustered rows (so pruning actually engages) with deterministic
/// noise: `clusters` well-separated centers, rows scattered tightly
/// around them.
fn clustered_collection(n: usize, clusters: usize, mirror: bool) -> Collection {
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
    for r in 0..n {
        let c = r % clusters.max(1);
        let v: Vec<f64> = (0..DIM)
            .map(|i| ((c * 37 + i * 11) as f64 * 0.73).sin() * 10.0 + (next() - 0.5) * 0.5)
            .collect();
        b.push_unlabelled(&v).unwrap();
    }
    b.build()
}

fn queries(nq: usize) -> Vec<Vec<f64>> {
    // Anchor queries near cluster centroids (pruning-friendly) with a
    // couple of off-cloud outliers mixed in.
    (0..nq)
        .map(|q| {
            (0..DIM)
                .map(|i| {
                    if q % 5 == 4 {
                        ((q * 29 + i * 13) as f64 * 0.41).sin() * 25.0
                    } else {
                        ((q * 37 + i * 11) as f64 * 0.73).sin() * 10.0 + 0.1
                    }
                })
                .collect()
        })
        .collect()
}

/// The distance classes, including `Chebyshev` — which certifies no
/// partition bound and must transparently run the flat pass.
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
        Box::new(Chebyshev),
    ]
}

fn layout(coll: &Collection, partitions: usize) -> PartitionedCollection {
    PartitionedCollection::build(coll, &PartitionConfig::with_partitions(partitions))
}

#[test]
fn partitioned_knn_bit_identical_all_classes_both_precisions() {
    let coll = clustered_collection(N, 12, true);
    for &nq in &[1usize, 16] {
        let qs = queries(nq);
        let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
        for dist in distance_classes() {
            for &p in &[4usize, 32] {
                let part = layout(&coll, p);
                for precision in [Precision::F64, Precision::F32Rescore] {
                    for mode in [ScanMode::Batched, ScanMode::Parallel] {
                        let pruned =
                            MultiQueryScan::with_mode(&part, mode).with_precision(precision);
                        let flat = MultiQueryScan::with_mode(&coll, mode).with_precision(precision);
                        for k in [1usize, 10, 50] {
                            assert_eq!(
                                pruned.knn(&QueryBatch::new(&refs, Shared(&*dist), k)),
                                flat.knn(&QueryBatch::new(&refs, Shared(&*dist), k)),
                                "P={p} Q={nq} k={k} mode={mode:?} precision={precision:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn scalar_reference_matches_flat_scalar() {
    // The Scalar baseline never prunes and pushes true distances; it
    // must equal the flat Scalar scan (and transitively LinearScan).
    let coll = clustered_collection(300, 8, false);
    let part = layout(&coll, 16);
    let qs = queries(3);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let pruned = MultiQueryScan::with_mode(&part, ScanMode::Scalar);
    let flat = LinearScan::with_mode(&coll, ScanMode::Scalar);
    for dist in distance_classes() {
        for (q, res) in refs
            .iter()
            .zip(pruned.knn(&QueryBatch::new(&refs, Shared(&*dist), 7)))
        {
            assert_eq!(res, flat.knn(q, 7, &*dist));
        }
    }
}

#[test]
fn per_query_metrics_and_ks_bit_identical() {
    let coll = clustered_collection(N, 12, true);
    let part = layout(&coll, 24);
    let qs = queries(6);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let classes = distance_classes();
    // Cycle the classes across queries — mixed bound/no-bound in one
    // pass — and vary k per query, with a k = 0 and a k > len edge in.
    let dists: Vec<&dyn Distance> = (0..refs.len())
        .map(|q| &*classes[q % classes.len()])
        .collect();
    let ks: Vec<usize> = vec![1, 10, 0, 50, N + 7, 3];
    for precision in [Precision::F64, Precision::F32Rescore] {
        for mode in [ScanMode::Batched, ScanMode::Parallel, ScanMode::Scalar] {
            let pruned = MultiQueryScan::with_mode(&part, mode).with_precision(precision);
            let flat = MultiQueryScan::with_mode(&coll, mode).with_precision(precision);
            assert_eq!(
                pruned.knn(&QueryBatch::new(&refs, PerQuery(&dists), 0).with_ks(&ks)),
                flat.knn(&QueryBatch::new(&refs, PerQuery(&dists), 0).with_ks(&ks)),
                "mode={mode:?} precision={precision:?}"
            );
        }
    }
}

#[test]
fn weighted_per_query_bit_identical() {
    let coll = clustered_collection(N, 12, true);
    let part = layout(&coll, 24);
    let qs = queries(5);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let metrics: Vec<WeightedEuclidean> = (0..refs.len())
        .map(|q| {
            let w: Vec<f64> = (0..DIM).map(|i| 0.3 + ((q * 7 + i) % 5) as f64).collect();
            WeightedEuclidean::new(w).unwrap()
        })
        .collect();
    let ks = vec![5usize; refs.len()];
    let mrefs: Vec<&WeightedEuclidean> = metrics.iter().collect();
    let weighted = QueryBatch::new(&refs, Weighted(&mrefs), 0).with_ks(&ks);
    for precision in [Precision::F64, Precision::F32Rescore] {
        for mode in [ScanMode::Batched, ScanMode::Parallel] {
            let pruned = MultiQueryScan::with_mode(&part, mode).with_precision(precision);
            let flat = MultiQueryScan::with_mode(&coll, mode).with_precision(precision);
            assert_eq!(
                pruned.knn(&weighted),
                flat.knn(&weighted),
                "mode={mode:?} precision={precision:?}"
            );
        }
    }
}

#[test]
fn degenerate_layouts_bit_identical() {
    // More partitions than rows (⇒ empty partitions), one-row
    // partitions, a single partition, and k > len — all legal, all
    // answer-identical.
    let coll = clustered_collection(10, 3, true);
    let qs = queries(2);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    for &p in &[1usize, 10, 64] {
        let part = layout(&coll, p);
        assert_eq!(part.partition_count(), p);
        assert_eq!(part.len(), coll.len());
        for dist in distance_classes() {
            for precision in [Precision::F64, Precision::F32Rescore] {
                let pruned =
                    MultiQueryScan::with_mode(&part, ScanMode::Batched).with_precision(precision);
                let flat =
                    MultiQueryScan::with_mode(&coll, ScanMode::Batched).with_precision(precision);
                for k in [1usize, 10, 25] {
                    assert_eq!(
                        pruned.knn(&QueryBatch::new(&refs, Shared(&*dist), k)),
                        flat.knn(&QueryBatch::new(&refs, Shared(&*dist), k)),
                        "P={p} k={k} precision={precision:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn empty_collection_and_k_zero() {
    let empty = CollectionBuilder::new().build();
    let part = layout(&empty, 8);
    let pruned = MultiQueryScan::new(&part);
    let q = vec![0.0; 0];
    assert_eq!(
        pruned.knn(&QueryBatch::new(&[&q], Shared(&Euclidean), 3)),
        vec![Vec::new()]
    );

    // k = 0 queries need nothing: every partition counts as prunable
    // for them, and the answer is empty — same as the flat scan.
    let coll = clustered_collection(200, 4, false);
    let part = layout(&coll, 8);
    let qs = queries(2);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let sink = ScanStatsSink::new();
    let pruned = MultiQueryScan::with_mode(&part, ScanMode::Batched).with_scan_stats(&sink);
    let flat = MultiQueryScan::with_mode(&coll, ScanMode::Batched);
    assert_eq!(
        pruned.knn(&QueryBatch::new(&refs, Shared(&Euclidean), 0)),
        flat.knn(&QueryBatch::new(&refs, Shared(&Euclidean), 0))
    );
    // All-zero k prunes every partition outright: nothing scanned.
    let stats = sink.snapshot();
    assert_eq!(stats.rows_visited, 0, "k = 0 must scan nothing");
    assert_eq!(
        stats.partitions_pruned,
        part.partition_count() as u64,
        "k = 0 prunes every (non-empty) partition"
    );
}

#[test]
fn pruning_engages_and_stays_sublinear_on_clustered_data() {
    // The tentpole's point: on clustered data with a query pinned to
    // one cluster, most partitions must actually be skipped — and the
    // answers still match the flat scan bit for bit.
    let coll = clustered_collection(N, 12, true);
    let part = layout(&coll, 24);
    let qs = queries(4);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    for precision in [Precision::F64, Precision::F32Rescore] {
        let sink = ScanStatsSink::new();
        let pruned = MultiQueryScan::with_mode(&part, ScanMode::Batched)
            .with_precision(precision)
            .with_scan_stats(&sink);
        let flat = MultiQueryScan::with_mode(&coll, ScanMode::Batched).with_precision(precision);
        assert_eq!(
            pruned.knn(&QueryBatch::new(&refs, Shared(&Euclidean), 10)),
            flat.knn(&QueryBatch::new(&refs, Shared(&Euclidean), 10))
        );
        let stats = sink.snapshot();
        assert!(
            stats.partitions_pruned > 0,
            "clustered data must prune partitions ({precision:?}: {stats:?})"
        );
        assert!(
            stats.rows_visited < N as u64,
            "pruned pass must visit fewer rows than the collection holds \
             ({precision:?}: {} of {N})",
            stats.rows_visited
        );
    }
}

/// The router's cut of `coll` into `s` contiguous slices, each with its
/// first global row.
fn router_cut(coll: &Collection, s: usize) -> Vec<(Collection, u32)> {
    let len = coll.len();
    (0..s)
        .map(|i| {
            let (start, end) = (i * len / s, (i + 1) * len / s);
            (coll.slice_rows(start, end), start as u32)
        })
        .collect()
}

/// What a router over one shard server per slice answers: the slices
/// scanned in turn, each capped by the tightest k-th key the earlier
/// slices delivered (the router's seed), offset to global rows and
/// merged per query (`ks[q]` under `dists[q]`).
fn router_answer(
    slices: &[(Layout<'_>, u32)],
    mode: ScanMode,
    precision: Precision,
    batch: &QueryBatch<'_>,
    ks: &[usize],
    dists: &[&dyn Distance],
) -> Vec<Vec<Neighbor>> {
    let mut caps = vec![f64::INFINITY; ks.len()];
    let mut parts: Vec<Vec<ShardPartial>> = Vec::new();
    for &(layout, offset) in slices {
        let scan = MultiQueryScan::with_mode(layout, mode).with_precision(precision);
        let got: Vec<ShardPartial> = (scan.knn_keyed(&batch.with_caps(&caps)).into_iter())
            .map(|p| p.offset(offset))
            .collect();
        for ((cap, part), &k) in caps.iter_mut().zip(&got).zip(ks) {
            if let Some(bound) = part.bound_key(k) {
                *cap = cap.min(bound);
            }
        }
        parts.push(got);
    }
    (0..ks.len())
        .map(|q| merge_partials(parts.iter().map(|p| &p[q]), ks[q], dists[q]))
        .collect()
}

#[test]
fn sharded_partitioned_bit_identical() {
    // The full composition: a router deployment whose shard servers each
    // partition their slice, seeds included — against the unpartitioned
    // slices and the flat scan.
    let coll = clustered_collection(N, 12, true);
    let qs = queries(4);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    for &s in &[1usize, 3] {
        let cut = router_cut(&coll, s);
        let parts: Vec<PartitionedCollection> = cut.iter().map(|(c, _)| layout(c, 16)).collect();
        let plain: Vec<(Layout<'_>, u32)> = cut.iter().map(|(c, o)| (c.into(), *o)).collect();
        let pruned: Vec<(Layout<'_>, u32)> = (parts.iter().zip(&cut))
            .map(|(p, (_, o))| (p.into(), *o))
            .collect();
        for dist in distance_classes() {
            let dists = [&*dist; 4];
            for precision in [Precision::F64, Precision::F32Rescore] {
                for mode in [ScanMode::Batched, ScanMode::Parallel] {
                    let flat = MultiQueryScan::with_mode(&coll, mode).with_precision(precision);
                    for k in [1usize, 10, 50] {
                        let batch = QueryBatch::new(&refs, Shared(&*dist), k);
                        let ks = [k; 4];
                        let got = router_answer(&pruned, mode, precision, &batch, &ks, &dists);
                        assert_eq!(
                            got,
                            router_answer(&plain, mode, precision, &batch, &ks, &dists),
                            "S={s} k={k} mode={mode:?} precision={precision:?} (vs sliced)"
                        );
                        assert_eq!(
                            got,
                            flat.knn(&batch),
                            "S={s} k={k} mode={mode:?} precision={precision:?} (vs flat)"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn sharded_partitioned_per_query_and_weighted() {
    let coll = clustered_collection(N, 12, true);
    let cut = router_cut(&coll, 3);
    let parts: Vec<PartitionedCollection> = cut.iter().map(|(c, _)| layout(c, 16)).collect();
    let plain: Vec<(Layout<'_>, u32)> = cut.iter().map(|(c, o)| (c.into(), *o)).collect();
    let pruned: Vec<(Layout<'_>, u32)> = (parts.iter().zip(&cut))
        .map(|(p, (_, o))| (p.into(), *o))
        .collect();
    let qs = queries(5);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let classes = distance_classes();
    let dists: Vec<&dyn Distance> = (0..refs.len())
        .map(|q| &*classes[q % classes.len()])
        .collect();
    let ks: Vec<usize> = vec![1, 7, 0, 50, 3];
    let metrics: Vec<WeightedEuclidean> = (0..refs.len())
        .map(|q| {
            let w: Vec<f64> = (0..DIM).map(|i| 0.3 + ((q * 7 + i) % 5) as f64).collect();
            WeightedEuclidean::new(w).unwrap()
        })
        .collect();
    let mrefs: Vec<&WeightedEuclidean> = metrics.iter().collect();
    let mdists: Vec<&dyn Distance> = metrics.iter().map(|m| m as &dyn Distance).collect();
    let per_query = QueryBatch::new(&refs, PerQuery(&dists), 0).with_ks(&ks);
    let weighted = QueryBatch::new(&refs, Weighted(&mrefs), 0).with_ks(&ks);
    let mode = ScanMode::Batched;
    for precision in [Precision::F64, Precision::F32Rescore] {
        assert_eq!(
            router_answer(&pruned, mode, precision, &per_query, &ks, &dists),
            router_answer(&plain, mode, precision, &per_query, &ks, &dists),
            "per-query precision={precision:?}"
        );
        assert_eq!(
            router_answer(&pruned, mode, precision, &weighted, &ks, &mdists),
            router_answer(&plain, mode, precision, &weighted, &ks, &mdists),
            "weighted precision={precision:?}"
        );
    }
}

#[test]
fn capped_partitioned_passes_bit_identical() {
    // A cap also tightens the partition skip rule from the first
    // partition on; no partition holding a true neighbour may go.
    let coll = clustered_collection(N, 12, true);
    let parts = layout(&coll, 16);
    let qs = queries(4);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let ks = [1usize, 10, 50, 0];
    for dist in distance_classes() {
        let batch = QueryBatch::new(&refs, Shared(&*dist), 0).with_ks(&ks);
        for mode in [ScanMode::Scalar, ScanMode::Batched, ScanMode::Parallel] {
            for precision in [Precision::F64, Precision::F32Rescore] {
                let want = MultiQueryScan::with_mode(&coll, mode)
                    .with_precision(precision)
                    .knn(&batch);
                let scan = MultiQueryScan::with_mode(&parts, mode).with_precision(precision);
                for round in 0..3 {
                    let caps = sound_caps(&coll, &batch, &ks, mode == ScanMode::Scalar, round);
                    assert_eq!(
                        scan.knn(&batch.with_caps(&caps)),
                        want,
                        "{} mode={mode:?} precision={precision:?} round {round}",
                        dist.name()
                    );
                }
            }
        }
    }
}

#[test]
fn partition_layout_is_deterministic() {
    // Same collection + config ⇒ the same layout, bit for bit: the
    // permutation, offsets, centroids and radii are all pure functions
    // of the input (no ambient randomness, no thread-count dependence).
    let coll = clustered_collection(400, 8, false);
    let a = layout(&coll, 16);
    let b = layout(&coll, 16);
    assert_eq!(a.perm(), b.perm());
    assert_eq!(a.partition_count(), b.partition_count());
    for p in 0..a.partition_count() {
        assert_eq!(a.rows(p), b.rows(p));
        assert_eq!(a.centroid(p), b.centroid(p));
        assert!(a.radius(p) == b.radius(p), "radius mismatch at {p}");
    }
}
