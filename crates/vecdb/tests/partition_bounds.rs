//! Property tests for the partition-pruning soundness contract — the
//! inequality the whole sub-linear scan stands on:
//!
//! For any random collection, partition layout, and query, and for
//! uniform and random weights, [`Distance::partition_lower_key`] must
//! **never exceed any member
//! row's true key**: `lb(q, partition) ≤ eval_key(q, row)` for every
//! row the partition holds. A violation would let the pruned scan skip
//! a true neighbor — silently, which is why this layer is pinned by
//! properties rather than examples.

use fbp_vecdb::{
    Collection, CollectionBuilder, Distance, MultiQueryScan, PartitionConfig,
    PartitionedCollection, Precision, QueryBatch, QueryMetrics::Shared, ScanMode,
    WeightedEuclidean,
};
use proptest::prelude::*;

const DIM: usize = 4;

fn build_collection(points: &[Vec<f64>], mirror: bool) -> Collection {
    let mut b = CollectionBuilder::new();
    if mirror {
        b = b.with_f32_mirror();
    }
    for p in points {
        b.push_unlabelled(p).unwrap();
    }
    b.build()
}

fn points_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-8.0..8.0f64, DIM), 2..80)
}

fn weights_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05..20.0f64, DIM)
}

/// Uniform weights (plain Euclidean) and random weights.
fn classes(w: &[f64]) -> Vec<WeightedEuclidean> {
    vec![
        WeightedEuclidean::uniform(DIM),
        WeightedEuclidean::new(w.to_vec()).unwrap(),
    ]
}

proptest! {
    // The soundness inequality, directly: for random layouts and
    // queries, no partition's lower bound exceeds any member's key.
    #[test]
    fn partition_lower_bound_never_exceeds_member_keys(
        points in points_strategy(),
        w in weights_strategy(),
        q in prop::collection::vec(-10.0..10.0f64, DIM),
        partitions in 1usize..12,
        seed in 0u64..u64::MAX,
    ) {
        let coll = build_collection(&points, false);
        let cfg = PartitionConfig { partitions, seed, ..PartitionConfig::default() };
        let part = PartitionedCollection::build(&coll, &cfg);
        let inner = part.collection();
        for dist in classes(&w) {
            for p in 0..part.partition_count() {
                let lb = dist.partition_lower_key(&q, part.centroid(p), part.radius(p));
                for r in part.rows(p) {
                    let key = dist.eval_key(&q, inner.vector(r));
                    prop_assert!(
                        lb <= key,
                        "{}: partition {p} lb {lb} exceeds member {r} key {key} \
                         (centroid dist {}, radius {})",
                        dist.name(),
                        WeightedEuclidean::uniform(DIM).eval(&q, part.centroid(p)),
                        part.radius(p),
                    );
                }
            }
        }
    }

    // End-to-end soundness, both precisions: the pruned scan equals
    // the flat scan on random inputs.
    #[test]
    fn partitioned_scan_matches_flat_on_random_inputs(
        points in points_strategy(),
        w in weights_strategy(),
        q in prop::collection::vec(-10.0..10.0f64, DIM),
        partitions in 1usize..12,
        seed in 0u64..u64::MAX,
        k in 1usize..8,
    ) {
        let coll = build_collection(&points, true);
        let cfg = PartitionConfig { partitions, seed, ..PartitionConfig::default() };
        let part = PartitionedCollection::build(&coll, &cfg);
        let refs: Vec<&[f64]> = vec![&q];
        for dist in classes(&w) {
            for precision in [Precision::F64, Precision::F32Rescore] {
                let pruned = MultiQueryScan::with_mode(&part, ScanMode::Batched)
                    .with_precision(precision);
                let flat = MultiQueryScan::with_mode(&coll, ScanMode::Batched)
                    .with_precision(precision);
                prop_assert_eq!(
                    pruned.knn(&QueryBatch::new(&refs, Shared(&dist), k)),
                    flat.knn(&QueryBatch::new(&refs, Shared(&dist), k)),
                    "{} k={} precision={:?}", dist.name(), k, precision
                );
            }
        }
    }
}
