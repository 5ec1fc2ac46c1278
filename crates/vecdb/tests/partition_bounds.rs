//! Property tests for the partition-pruning soundness contract — the
//! inequality the whole sub-linear scan stands on:
//!
//! For any random collection, partition layout, and query, and for
//! every distance class that reports a partition bound at all,
//! [`Distance::partition_lower_key`] must **never exceed any member
//! row's true key**: `lb(q, partition) ≤ eval_key(q, row)` for every
//! row the partition holds. A violation would let the pruned scan skip
//! a true neighbor — silently, which is why this layer is pinned by
//! properties rather than examples.
//!
//! Classes that certify *no* sound bound (`Chebyshev`, general `Lp`,
//! quadratic forms whose certified spectrum floor touches zero) must
//! say so (`None`) for every input — and the partitioned scan must
//! still answer through them bit-identically to the flat scan, i.e.
//! fall back rather than guess.

use fbp_linalg::Matrix;
use fbp_vecdb::distance::{Chebyshev, FeatureSpan, Lp};
use fbp_vecdb::{
    Collection, CollectionBuilder, Distance, Euclidean, HierarchicalDistance, Manhattan,
    MultiQueryScan, PartitionConfig, PartitionedCollection, Precision, QuadraticDistance,
    QueryBatch, QueryMetrics::Shared, ScanMode, WeightedEuclidean,
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

/// Classes that must report a sound bound on every input.
fn bounded_classes(w: &[f64]) -> Vec<Box<dyn Distance>> {
    let spans = vec![FeatureSpan::new(0, 2), FeatureSpan::new(2, DIM)];
    let h = HierarchicalDistance::new(spans, vec![1.5, 0.75], w.to_vec()).unwrap();
    let mut m = Matrix::identity(DIM);
    for i in 0..DIM {
        m[(i, i)] = w[i] + 0.5;
    }
    vec![
        Box::new(Euclidean),
        Box::new(Manhattan),
        Box::new(WeightedEuclidean::new(w.to_vec()).unwrap()),
        Box::new(QuadraticDistance::new(&m).unwrap()),
        Box::new(h),
    ]
}

/// Classes that must certify "no sound bound" on every input.
fn unbounded_classes() -> Vec<Box<dyn Distance>> {
    // An SPD matrix whose Gershgorin floor is exactly zero: PD (det 2),
    // but the *certified* spectrum bound cannot separate it from
    // singular — the class must refuse to prune rather than trust an
    // uncertified eigenvalue.
    let m = Matrix::from_rows(&[
        &[2.0, 2.0, 0.0, 0.0][..],
        &[2.0, 3.0, 0.0, 0.0][..],
        &[0.0, 0.0, 1.0, 0.0][..],
        &[0.0, 0.0, 0.0, 1.0][..],
    ]);
    vec![
        Box::new(Chebyshev),
        Box::new(Lp::new(3.0).unwrap()),
        Box::new(QuadraticDistance::new(&m).unwrap()),
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
        for dist in bounded_classes(&w) {
            for p in 0..part.partition_count() {
                let Some(lb) =
                    dist.partition_lower_key(&q, part.centroid(p), part.radius(p))
                else {
                    prop_assert!(
                        false,
                        "{} must bound every partition",
                        dist.name()
                    );
                    unreachable!()
                };
                for r in part.rows(p) {
                    let key = dist.eval_key(&q, inner.vector(r));
                    prop_assert!(
                        lb <= key,
                        "{}: partition {p} lb {lb} exceeds member {r} key {key} \
                         (centroid dist {}, radius {})",
                        dist.name(),
                        Euclidean.eval(&q, part.centroid(p)),
                        part.radius(p),
                    );
                }
            }
        }
    }

    // Classes without a sound bound must say `None` — for every
    // geometry, not just convenient ones.
    #[test]
    fn unbounded_classes_always_report_none(
        centroid in prop::collection::vec(-8.0..8.0f64, DIM),
        q in prop::collection::vec(-10.0..10.0f64, DIM),
        radius in 0.0..16.0f64,
    ) {
        for dist in unbounded_classes() {
            prop_assert!(
                dist.partition_lower_key(&q, &centroid, radius).is_none(),
                "{} has no sound partition bound and must certify that",
                dist.name()
            );
        }
    }

    // End-to-end soundness, both precisions: the pruned scan equals
    // the flat scan on random inputs — for classes *with* bounds
    // (pruning engages) and *without* (the flat fallback engages).
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
        let mut classes = bounded_classes(&w);
        classes.extend(unbounded_classes());
        for dist in classes {
            for precision in [Precision::F64, Precision::F32Rescore] {
                let pruned = MultiQueryScan::with_mode(&part, ScanMode::Batched)
                    .with_precision(precision);
                let flat = MultiQueryScan::with_mode(&coll, ScanMode::Batched)
                    .with_precision(precision);
                prop_assert_eq!(
                    pruned.knn(&QueryBatch::new(&refs, Shared(&*dist), k)),
                    flat.knn(&QueryBatch::new(&refs, Shared(&*dist), k)),
                    "{} k={} precision={:?}", dist.name(), k, precision
                );
            }
        }
    }
}
