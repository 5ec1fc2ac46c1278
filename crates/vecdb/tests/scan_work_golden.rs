//! Scan-work golden table: the **work** one batched pass does — rows
//! streamed, blocks abandoned, seeded passes, partitions pruned — pinned
//! per layout × metric form, so a refactor of the scan entry points
//! that keeps every answer but quietly changes which kernel or which
//! bound a pass runs under still fails a test.
//!
//! * `Precision::F64`: f64 keys are host-independent, so every cell's
//!   [`ScanStats`] is a literal.
//! * `Precision::F32Rescore`: f32 keys are host-dependent by design, so
//!   only in-build relations are asserted (and the table is printed —
//!   run with `--nocapture` to compare two builds on one host).
//!
//! In both precisions every cell answers exactly what per-query
//! `LinearScan` (Batched, F64) answers, and a `Weighted` batch whose
//! weight vectors are all equal does exactly the work — and returns
//! exactly the bits — of the `Shared` batch under that one metric.

use fbp_vecdb::{
    Collection, CollectionBuilder, Distance, KnnEngine, LinearScan, MultiQueryScan, Neighbor,
    PartitionConfig, PartitionedCollection, PartitionedScan, Precision, QueryBatch,
    QueryMetrics::{PerQuery, Shared, Weighted},
    ScanMode, ScanStats, ScanStatsSink, ShardedCollection, ShardedScan, WeightedEuclidean,
};

const DIM: usize = 16;
const N: usize = 6_000;
const NQ: usize = 8;
const K: usize = 10;
const CLUSTERS: usize = 12;
const PARTITIONS: usize = 16;
const SHARDS: usize = 3;

fn centre(c: usize) -> Vec<f64> {
    (0..DIM)
        .map(|d| ((c * 31 + d * 7) % 97) as f64 / 97.0)
        .collect()
}

/// Fixed-LCG clustered rows: `CLUSTERS` lattice centres, ±0.06 spread.
fn collection() -> Collection {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for _ in 0..N {
        let v: Vec<f64> = centre((next() * CLUSTERS as f64) as usize)
            .iter()
            .map(|base| (base + (next() - 0.5) * 0.12).clamp(0.0, 1.0))
            .collect();
        b.push_unlabelled(&v).unwrap();
    }
    b.build()
}

/// Queries just off the first three cluster centres, so most partitions
/// are far from every query of the batch and pruning engages.
fn queries() -> Vec<Vec<f64>> {
    (0..NQ)
        .map(|q| {
            centre(q % 3)
                .iter()
                .enumerate()
                .map(|(i, c)| c + 0.01 * ((q * 7 + i * 3) as f64 * 0.61).sin())
                .collect()
        })
        .collect()
}

/// One skewed (log-spread, geometric mean 1) weight vector per query.
fn metrics() -> Vec<WeightedEuclidean> {
    (0..NQ)
        .map(|q| {
            let ln_w: Vec<f64> = (0..DIM)
                .map(|i| 2.3 * ((q * 13 + i * 29) as f64 * 0.77).sin())
                .collect();
            let mean = ln_w.iter().sum::<f64>() / DIM as f64;
            WeightedEuclidean::new(ln_w.iter().map(|l| (l - mean).exp()).collect()).unwrap()
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Layout {
    Flat,
    Partitioned,
    Sharded,
    ShardedPartitioned,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    Shared,
    PerQuery,
    Weighted,
    WeightedAllEqual,
}

const LAYOUTS: [Layout; 4] = [
    Layout::Flat,
    Layout::Partitioned,
    Layout::Sharded,
    Layout::ShardedPartitioned,
];
const FORMS: [Form; 4] = [
    Form::Shared,
    Form::PerQuery,
    Form::Weighted,
    Form::WeightedAllEqual,
];

struct Fixture {
    coll: Collection,
    part: PartitionedCollection,
    sharded: ShardedCollection,
    shard_parts: Vec<PartitionedCollection>,
    queries: Vec<Vec<f64>>,
    metrics: Vec<WeightedEuclidean>,
}

impl Fixture {
    fn new() -> Self {
        let coll = collection();
        let cfg = PartitionConfig::with_partitions(PARTITIONS);
        let part = PartitionedCollection::build(&coll, &cfg);
        let sharded = ShardedCollection::split(&coll, SHARDS);
        let shard_parts = sharded.build_partitions(&cfg);
        Fixture {
            coll,
            part,
            sharded,
            shard_parts,
            queries: queries(),
            metrics: metrics(),
        }
    }

    /// One Batched pass of `form` through `layout`: answers + the work.
    fn run(
        &self,
        layout: Layout,
        form: Form,
        precision: Precision,
    ) -> (Vec<Vec<Neighbor>>, ScanStats) {
        let refs: Vec<&[f64]> = self.queries.iter().map(Vec::as_slice).collect();
        let equal = vec![self.metrics[0].clone(); NQ];
        let metrics = match form {
            Form::WeightedAllEqual => &equal,
            _ => &self.metrics,
        };
        let dists: Vec<&dyn Distance> = metrics.iter().map(|m| m as &dyn Distance).collect();
        let sink = ScanStatsSink::new();
        let flat = MultiQueryScan::with_mode(&self.coll, ScanMode::Batched)
            .with_precision(precision)
            .with_scan_stats(&sink);
        let pruned = PartitionedScan::with_mode(&self.part, ScanMode::Batched)
            .with_precision(precision)
            .with_scan_stats(&sink);
        // One scatter worker: shards run in order, so the cross-shard
        // seeds (and with them the abandon counts) are deterministic.
        let sharded = ShardedScan::with_mode(&self.sharded, ScanMode::Batched)
            .with_precision(precision)
            .with_thread_budget(1)
            .with_scan_stats(&sink);
        let sharded_pruned = sharded.with_partitions(&self.shard_parts);
        let mrefs: Vec<&WeightedEuclidean> = metrics.iter().collect();
        let batch = QueryBatch::new(
            &refs,
            match form {
                Form::Shared => Shared(&self.metrics[0]),
                Form::PerQuery => PerQuery(&dists),
                Form::Weighted | Form::WeightedAllEqual => Weighted(&mrefs),
            },
            K,
        );
        let answers = match layout {
            Layout::Flat => flat.knn(&batch),
            Layout::Partitioned => pruned.knn(&batch),
            Layout::Sharded => sharded.knn(&batch),
            Layout::ShardedPartitioned => sharded_pruned.knn(&batch),
        };
        (answers, sink.snapshot())
    }

    /// Per-query flat f64 reference answers for `form`.
    fn reference(&self, form: Form) -> Vec<Vec<Neighbor>> {
        let scan = LinearScan::with_mode(&self.coll, ScanMode::Batched);
        self.queries
            .iter()
            .enumerate()
            .map(|(q, query)| {
                let metric = match form {
                    Form::Shared | Form::WeightedAllEqual => &self.metrics[0],
                    Form::PerQuery | Form::Weighted => &self.metrics[q],
                };
                scan.knn(query, K, metric)
            })
            .collect()
    }
}

/// `(rows_visited, blocks_abandoned, seed_prunes, partitions_pruned)`
/// of every F64 cell, recorded at the commit before the scan entry
/// points were unified. The four counters are block- and
/// partition-granular, and on this data every metric form abandons in
/// the same blocks and prunes the same partitions, so one row per
/// layout covers all four forms.
fn golden_f64(layout: Layout) -> (u64, u64, u64, u64) {
    match layout {
        Layout::Flat => (6000, 23, 0, 0),
        Layout::Partitioned => (1969, 8, 0, 12),
        Layout::Sharded => (6000, 23, 2, 0),
        Layout::ShardedPartitioned => (1969, 21, 2, 27),
    }
}

#[test]
fn f64_work_is_pinned_per_layout_and_metric_form() {
    let fx = Fixture::new();
    for layout in LAYOUTS {
        for form in FORMS {
            let (answers, s) = fx.run(layout, form, Precision::F64);
            assert_eq!(answers, fx.reference(form), "{layout:?} {form:?}");
            println!("F64 {layout:?} {form:?}: {s:?}");
            assert_eq!(
                (
                    s.rows_visited,
                    s.blocks_abandoned,
                    s.seed_prunes,
                    s.partitions_pruned
                ),
                golden_f64(layout),
                "{layout:?} {form:?}"
            );
            assert_eq!(
                (s.candidates_filtered, s.candidates_rescored),
                (0, 0),
                "an f64 pass has no rescore ({layout:?} {form:?})"
            );
        }
    }
}

#[test]
fn f32_rescore_work_obeys_the_in_build_relations() {
    let fx = Fixture::new();
    for layout in LAYOUTS {
        let mut shared = None;
        for form in FORMS {
            let (answers, s) = fx.run(layout, form, Precision::F32Rescore);
            assert_eq!(answers, fx.reference(form), "{layout:?} {form:?}");
            println!("F32Rescore {layout:?} {form:?}: {s:?}");
            assert!(
                s.candidates_rescored >= (K * NQ) as u64,
                "the mirror pass engaged and kept every true top-k ({layout:?} {form:?})"
            );
            match form {
                Form::Shared => shared = Some((answers, s)),
                Form::WeightedAllEqual => {
                    assert_eq!(Some((answers, s)), shared, "{layout:?}: all-equal ≡ shared")
                }
                _ => {}
            }
        }
    }
}
