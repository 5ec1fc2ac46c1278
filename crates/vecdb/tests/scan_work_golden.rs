//! Scan-work golden table: the **work** one batched pass does — rows
//! streamed, blocks abandoned, seeded passes, partitions pruned — pinned
//! per layout × metric form, so a refactor of the scan entry points
//! that keeps every answer but quietly changes which kernel or which
//! bound a pass runs under still fails a test.
//!
//! * `Precision::F64`: f64 keys are host-independent, so every cell's
//!   [`ScanStats`] is a literal — for the Batched pass of every layout,
//!   and for the Parallel pass (two workers) of the flat and partitioned
//!   layouts, which pins how a pass fans out over threads. The Auto pass
//!   of those two layouts (two workers allowed) must do the Batched
//!   pass's work: every row range here is under the fan-out cutoff.
//! * `Precision::F32Rescore`: f32 keys are host-dependent by design, so
//!   only in-build relations are asserted (and the table is printed —
//!   run with `--nocapture` to compare two builds on one host; CI's
//!   release test job prints it on every run).
//!
//! In both precisions every cell answers exactly what per-query
//! `LinearScan` (Batched, F64) answers, and a `Weighted` batch whose
//! weight vectors are all equal does exactly the work — and returns
//! exactly the bits — of the `Shared` batch under that one metric.

use fbp_vecdb::{
    merge_partials, Collection, CollectionBuilder, KnnEngine, LinearScan, MultiQueryScan, Neighbor,
    PartitionConfig, PartitionedCollection, Precision, QueryBatch,
    QueryMetrics::{Shared, Weighted},
    ScanMode, ScanStats, ScanStatsSink, ShardPartial, WeightedEuclidean,
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

/// The scanned layout: the whole collection, flat or partitioned, or
/// the router's cut of it into `SHARDS` row slices, each flat or
/// partitioned — what a router over `SHARDS` shard servers scans.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Layout {
    Flat,
    Partitioned,
    Sharded,
    ShardedPartitioned,
}

/// The router's answer over `slices` (each slice's layout and first
/// global row): the slices in turn, each pass capped by the tightest
/// k-th key the earlier slices delivered (the router's seed), one
/// worker each, offset to global rows and merged under each query's
/// metric.
fn routed(
    slices: &[(fbp_vecdb::Layout<'_>, u32)],
    precision: Precision,
    sink: &ScanStatsSink,
    batch: &QueryBatch<'_>,
    metrics: &[WeightedEuclidean],
) -> Vec<Vec<Neighbor>> {
    let mut caps = vec![f64::INFINITY; NQ];
    let mut parts: Vec<Vec<ShardPartial>> = Vec::new();
    for &(layout, offset) in slices {
        let scan = MultiQueryScan::with_mode(layout, ScanMode::Batched)
            .with_precision(precision)
            .with_thread_budget(1)
            .with_scan_stats(sink);
        let got: Vec<ShardPartial> = (scan.knn_keyed(&batch.with_caps(&caps)).into_iter())
            .map(|p| p.offset(offset))
            .collect();
        for (cap, part) in caps.iter_mut().zip(&got) {
            if let Some(bound) = part.bound_key(K) {
                *cap = cap.min(bound);
            }
        }
        parts.push(got);
    }
    (0..NQ)
        .map(|q| merge_partials(parts.iter().map(|p| &p[q]), K, &metrics[q]))
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    Shared,
    Weighted,
    WeightedAllEqual,
}

/// One pass of every metric form through every layout at `precision`
/// in `mode`: `(layout, form, answers, work)` per cell, each cell's
/// answers already checked against per-query flat f64 `LinearScan`s.
/// A Batched pass covers all four layouts; a Parallel or Auto pass
/// covers the flat and partitioned ones at a budget of two workers (the
/// sliced layouts pin their own one-worker passes).
fn cells(
    precision: Precision,
    mode: ScanMode,
) -> Vec<(Layout, Form, Vec<Vec<Neighbor>>, ScanStats)> {
    let coll = collection();
    let cfg = PartitionConfig::with_partitions(PARTITIONS);
    let part = PartitionedCollection::build(&coll, &cfg);
    let cut: Vec<(Collection, u32)> = (0..SHARDS)
        .map(|i| {
            let (start, end) = (i * N / SHARDS, (i + 1) * N / SHARDS);
            (coll.slice_rows(start, end), start as u32)
        })
        .collect();
    let cut_parts: Vec<PartitionedCollection> = (cut.iter())
        .map(|(slice, _)| PartitionedCollection::build(slice, &cfg))
        .collect();
    let sliced: Vec<(fbp_vecdb::Layout<'_>, u32)> =
        cut.iter().map(|(c, o)| (c.into(), *o)).collect();
    let sliced_parts: Vec<(fbp_vecdb::Layout<'_>, u32)> = (cut_parts.iter().zip(&cut))
        .map(|(p, (_, o))| (p.into(), *o))
        .collect();
    let queries = queries();
    let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
    let diverged = metrics();
    let equal = vec![diverged[0].clone(); NQ];
    let reference = LinearScan::with_mode(&coll, ScanMode::Batched);
    let layouts: &[Layout] = match mode {
        ScanMode::Parallel | ScanMode::Auto => &[Layout::Flat, Layout::Partitioned],
        _ => &[
            Layout::Flat,
            Layout::Partitioned,
            Layout::Sharded,
            Layout::ShardedPartitioned,
        ],
    };
    let mut cells = Vec::new();
    for &layout in layouts {
        for form in [Form::Shared, Form::Weighted, Form::WeightedAllEqual] {
            let metrics = match form {
                Form::Shared | Form::WeightedAllEqual => &equal,
                Form::Weighted => &diverged,
            };
            let mrefs: Vec<&WeightedEuclidean> = metrics.iter().collect();
            let batch = QueryBatch::new(
                &refs,
                match form {
                    Form::Shared => Shared(&equal[0]),
                    Form::Weighted | Form::WeightedAllEqual => Weighted(&mrefs),
                },
                K,
            );
            let sink = ScanStatsSink::new();
            let answers = match layout {
                Layout::Flat => MultiQueryScan::with_mode(&coll, mode)
                    .with_precision(precision)
                    .with_thread_budget(2)
                    .with_scan_stats(&sink)
                    .knn(&batch),
                Layout::Partitioned => MultiQueryScan::with_mode(&part, mode)
                    .with_precision(precision)
                    .with_thread_budget(2)
                    .with_scan_stats(&sink)
                    .knn(&batch),
                // Slices run in order, so the cross-slice seeds (and
                // with them the abandon counts) are deterministic.
                Layout::Sharded => routed(&sliced, precision, &sink, &batch, metrics),
                Layout::ShardedPartitioned => {
                    routed(&sliced_parts, precision, &sink, &batch, metrics)
                }
            };
            for (q, (query, got)) in refs.iter().zip(&answers).enumerate() {
                let expect = reference.knn(query, K, &metrics[q]);
                assert_eq!(got, &expect, "{layout:?} {form:?} {precision:?} query {q}");
            }
            cells.push((layout, form, answers, sink.snapshot()));
        }
    }
    cells
}

/// The work of every F64 cell, recorded at the commit before the scan
/// entry points were unified (Batched) and at the commit before the
/// flat and partitioned drivers were merged (Parallel); an f64 pass
/// filters and rescores nothing. The counters are block- and
/// partition-granular, and on this data every metric form abandons in
/// the same blocks and prunes the same partitions, so one row per
/// layout covers all three forms. Auto shares the Batched rows.
fn golden_f64(layout: Layout, mode: ScanMode) -> ScanStats {
    let (rows_visited, blocks_abandoned, seed_prunes, partitions_pruned) = match (mode, layout) {
        (ScanMode::Parallel, Layout::Flat) => (6000, 22, 0, 0),
        (ScanMode::Parallel, Layout::Partitioned) => (1969, 7, 0, 12),
        (_, Layout::Flat) => (6000, 23, 0, 0),
        (_, Layout::Partitioned) => (1969, 8, 0, 12),
        (_, Layout::Sharded) => (6000, 23, 2, 0),
        (_, Layout::ShardedPartitioned) => (1969, 21, 2, 27),
    };
    ScanStats {
        rows_visited,
        blocks_abandoned,
        seed_prunes,
        partitions_pruned,
        ..Default::default()
    }
}

#[test]
fn f64_work_is_pinned_per_layout_and_metric_form() {
    for mode in [ScanMode::Batched, ScanMode::Parallel, ScanMode::Auto] {
        for (layout, form, _, work) in cells(Precision::F64, mode) {
            assert_eq!(
                work,
                golden_f64(layout, mode),
                "{mode:?} {layout:?} {form:?}"
            );
        }
    }
}

#[test]
fn f32_rescore_work_obeys_the_in_build_relations() {
    let batched = cells(Precision::F32Rescore, ScanMode::Batched);
    for (layout, form, answers, work) in &batched {
        println!("F32Rescore Batched {layout:?} {form:?}: {work:?}");
        assert!(
            work.candidates_rescored >= (K * NQ) as u64,
            "the mirror pass engaged and kept every true top-k ({layout:?} {form:?})"
        );
        if *form == Form::WeightedAllEqual {
            let shared = batched
                .iter()
                .find(|c| c.0 == *layout && c.1 == Form::Shared)
                .expect("every layout has a Shared cell");
            assert_eq!((answers, work), (&shared.2, &shared.3), "{layout:?}");
        }
    }
    // A Parallel pass filters its merged candidate pool once, at the
    // merged threshold — the threshold the Batched pass ends on — so it
    // rescores exactly what the Batched pass rescores (its pool before
    // the filter may differ, so `candidates_filtered` is not compared).
    for (layout, form, _, work) in cells(Precision::F32Rescore, ScanMode::Parallel) {
        println!("F32Rescore Parallel {layout:?} {form:?}: {work:?}");
        let twin = batched
            .iter()
            .find(|c| c.0 == layout && c.1 == form)
            .expect("every Parallel cell has a Batched twin");
        assert_eq!(
            work.candidates_rescored, twin.3.candidates_rescored,
            "{layout:?} {form:?}"
        );
    }
}
