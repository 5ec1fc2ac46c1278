//! Property-based pins for the partial-failure gather
//! ([`merge_partials_policy`]): under `Degraded { min_shards }`, a
//! gather over any surviving shard subset must equal the flat scan over
//! exactly the surviving shards' rows (no phantom rows, no lost rows,
//! bit-identical distances) with the missing shards reported; under
//! `Strict`, any missing shard must always refuse with a typed
//! [`GatherError`] naming them. Checked across all four distance
//! classes and both precisions, over the row slices a router deployment
//! serves (one keyed pass per slice, offset to global rows) — the
//! policy layer must be as result-transparent as the cut beneath it.

use fbp_linalg::Matrix;
use fbp_vecdb::distance::{FeatureSpan, HierarchicalDistance};
use fbp_vecdb::{
    merge_partials_policy, Collection, CollectionBuilder, Distance, Euclidean, FailurePolicy,
    KnnEngine, LinearScan, MultiQueryScan, Neighbor, Precision, QuadraticDistance, QueryBatch,
    QueryMetrics::Shared, ScanMode, ShardPartial, WeightedEuclidean,
};
use proptest::prelude::*;

const DIM: usize = 6;

fn build_collection(points: &[Vec<f64>]) -> Collection {
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for p in points {
        b.push_unlabelled(p).unwrap();
    }
    b.build()
}

/// All four distance classes, parameterized for `DIM`.
fn distance_classes() -> Vec<Box<dyn Distance>> {
    let w: Vec<f64> = (0..DIM).map(|i| 0.4 + (i % 3) as f64).collect();
    let spans = vec![FeatureSpan::new(0, 3), FeatureSpan::new(3, DIM)];
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

fn points_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0..1.0f64, DIM), 6..80)
}

/// The router's cut of `coll` into `shards` contiguous slices, each
/// with its first global row.
fn router_cut(coll: &Collection, shards: usize) -> Vec<(Collection, u32)> {
    let len = coll.len();
    (0..shards)
        .map(|s| {
            let (start, end) = (s * len / shards, (s + 1) * len / shards);
            (coll.slice_rows(start, end), start as u32)
        })
        .collect()
}

/// The global row indices the surviving shards cover, under the
/// router's cut.
fn surviving_rows(len: usize, shards: usize, surviving_mask: &[bool]) -> Vec<usize> {
    let mut rows = Vec::new();
    for (s, &alive) in surviving_mask.iter().enumerate() {
        if alive {
            rows.extend((s * len / shards)..((s + 1) * len / shards));
        }
    }
    rows
}

/// Flat-scan oracle over exactly `rows` of `coll`: rebuild those rows
/// as their own collection, scan it, and map local indices back to
/// global ones (the mapping is monotone, so tie order is preserved).
fn flat_oracle(
    coll: &Collection,
    rows: &[usize],
    q: &[f64],
    k: usize,
    dist: &dyn Distance,
    precision: Precision,
) -> Vec<Neighbor> {
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for &r in rows {
        b.push_unlabelled(coll.vector(r)).unwrap();
    }
    let sub = b.build();
    let scan = LinearScan::with_mode(&sub, ScanMode::Batched).with_precision(precision);
    scan.knn(q, k, dist)
        .into_iter()
        .map(|n| Neighbor {
            index: rows[n.index as usize] as u32,
            dist: n.dist,
        })
        .collect()
}

/// Per-shard partials for one query, with dropped shards as `None`.
fn scatter_with_failures(
    cut: &[(Collection, u32)],
    q: &[f64],
    k: usize,
    dist: &dyn Distance,
    precision: Precision,
    surviving_mask: &[bool],
) -> Vec<Option<ShardPartial>> {
    (cut.iter().zip(surviving_mask))
        .map(|((slice, offset), &alive)| {
            alive.then(|| {
                let scan =
                    MultiQueryScan::with_mode(slice, ScanMode::Batched).with_precision(precision);
                (scan.knn_keyed(&QueryBatch::new(&[q], Shared(dist), k)))
                    .remove(0)
                    .offset(*offset)
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Degraded gathers over every distance class and both precisions:
    // the merged answer over a random surviving subset equals the flat
    // scan over exactly the surviving rows, and the missing shards are
    // reported.
    #[test]
    fn degraded_gather_equals_surviving_flat_scan(
        points in points_strategy(),
        q in prop::collection::vec(0.0..1.0f64, DIM),
        shards in 2usize..5,
        mask_seed in 0u32..(1 << 4),
        k in 1usize..12,
    ) {
        let coll = build_collection(&points);
        let cut = router_cut(&coll, shards);
        // At least one survivor (an all-dead mask is the Strict-like
        // refusal case, covered below).
        let mut mask: Vec<bool> = (0..shards).map(|s| mask_seed & (1 << s) != 0).collect();
        if mask.iter().all(|&a| !a) {
            mask[0] = true;
        }
        let rows = surviving_rows(coll.len(), shards, &mask);
        let expected_missing: Vec<u32> = mask
            .iter()
            .enumerate()
            .filter(|(_, &a)| !a)
            .map(|(s, _)| s as u32)
            .collect();
        for dist in distance_classes() {
            for precision in [Precision::F64, Precision::F32Rescore] {
                let partials =
                    scatter_with_failures(&cut, &q, k, dist.as_ref(), precision, &mask);
                let gathered = merge_partials_policy(
                    &partials,
                    k,
                    dist.as_ref(),
                    FailurePolicy::Degraded { min_shards: 1 },
                )
                .expect("enough survivors for the floor");
                prop_assert_eq!(&gathered.missing_shards, &expected_missing);
                prop_assert_eq!(
                    gathered.is_degraded(),
                    !expected_missing.is_empty()
                );
                let oracle = flat_oracle(&coll, &rows, &q, k, dist.as_ref(), precision);
                prop_assert_eq!(
                    &gathered.neighbors, &oracle,
                    "{} at {:?}: degraded merge diverged from the surviving flat scan",
                    dist.name(), precision
                );
            }
        }
    }

    // Ejection at the router models a dead shard as a slot failed
    // *instantly* — at this layer, exactly a `None` partial. For any
    // ejected subset and any `min_shards` floor: enough survivors must
    // merge bit-identically to the surviving-shard oracle with the
    // ejected shards reported, too few must refuse with a typed error
    // naming them — across all four distance classes × both precisions.
    #[test]
    fn ejected_shards_degrade_to_oracle_or_refuse_at_the_floor(
        points in points_strategy(),
        q in prop::collection::vec(0.0..1.0f64, DIM),
        shards in 2usize..5,
        mask_seed in 0u32..(1 << 4),
        min_shards in 1usize..5,
        k in 1usize..12,
    ) {
        let coll = build_collection(&points);
        let cut = router_cut(&coll, shards);
        let min_shards = 1 + (min_shards - 1) % shards;
        let mask: Vec<bool> = (0..shards).map(|s| mask_seed & (1 << s) != 0).collect();
        let survivors = mask.iter().filter(|&&a| a).count();
        let rows = surviving_rows(coll.len(), shards, &mask);
        let ejected: Vec<u32> = mask
            .iter()
            .enumerate()
            .filter(|(_, &a)| !a)
            .map(|(s, _)| s as u32)
            .collect();
        for dist in distance_classes() {
            for precision in [Precision::F64, Precision::F32Rescore] {
                let partials =
                    scatter_with_failures(&cut, &q, k, dist.as_ref(), precision, &mask);
                let outcome = merge_partials_policy(
                    &partials,
                    k,
                    dist.as_ref(),
                    FailurePolicy::Degraded { min_shards },
                );
                if survivors >= min_shards {
                    let gathered = outcome.expect("survivors meet the floor");
                    prop_assert_eq!(&gathered.missing_shards, &ejected);
                    prop_assert_eq!(gathered.is_degraded(), !ejected.is_empty());
                    let oracle = flat_oracle(&coll, &rows, &q, k, dist.as_ref(), precision);
                    prop_assert_eq!(
                        &gathered.neighbors, &oracle,
                        "{} at {:?}: ejection merge diverged from the surviving oracle",
                        dist.name(), precision
                    );
                } else {
                    let refused = outcome.expect_err("too few survivors for the floor");
                    prop_assert_eq!(&refused.missing_shards, &ejected);
                    prop_assert_eq!(refused.survivors, survivors);
                }
            }
        }
    }

    // Strict gathers with any missing shard always refuse, and the
    // error names exactly the missing shards; with every shard present
    // Strict merges like the plain gather.
    #[test]
    fn strict_gather_always_errors_on_missing_shards(
        points in points_strategy(),
        q in prop::collection::vec(0.0..1.0f64, DIM),
        shards in 2usize..5,
        drop in 0usize..4,
        k in 1usize..12,
    ) {
        let coll = build_collection(&points);
        let cut = router_cut(&coll, shards);
        let drop = drop % shards;
        let mask: Vec<bool> = (0..shards).map(|s| s != drop).collect();
        for dist in distance_classes() {
            for precision in [Precision::F64, Precision::F32Rescore] {
                let partials =
                    scatter_with_failures(&cut, &q, k, dist.as_ref(), precision, &mask);
                let refused = merge_partials_policy(
                    &partials,
                    k,
                    dist.as_ref(),
                    FailurePolicy::Strict,
                )
                .expect_err("a missing shard must refuse under Strict");
                prop_assert_eq!(&refused.missing_shards, &vec![drop as u32]);
                prop_assert_eq!(refused.survivors, shards - 1);
                prop_assert_eq!(refused.required, shards);

                // Same scatter with every shard present: Strict merges
                // and reports nothing missing.
                let all = vec![true; shards];
                let complete =
                    scatter_with_failures(&cut, &q, k, dist.as_ref(), precision, &all);
                let gathered = merge_partials_policy(
                    &complete,
                    k,
                    dist.as_ref(),
                    FailurePolicy::Strict,
                )
                .expect("no shard missing");
                prop_assert!(gathered.missing_shards.is_empty());
                prop_assert!(!gathered.is_degraded());
            }
        }
    }
}
