//! Partition-pruning selectivity sweep: rows visited and wall time of
//! a [`MultiQueryScan`] over a [`PartitionedCollection`] against the
//! flat one on a clustered vs a uniform workload (paper scale:
//! 1M × 64-d under `FBP_FULL=1`; reduced otherwise), swept over k.
//!
//! The partition layer's contract is *sound* sub-linearity: identical
//! answers, strictly fewer rows streamed whenever the data actually
//! clusters. This bench records both sides of that trade per PR —
//! `rows_visited` reduction (from [`ScanStatsSink`], the same counter
//! the serving tier exports as `scan_partitions_pruned` /
//! `scan_rows_visited`) and the wall-time ratio — for a clustered
//! workload (where pruning should bite) and a uniform one (where the
//! bounds cannot separate anything and the pruned scan must degrade
//! gracefully to ~flat cost, not fall off a cliff). The bench-smoke CI
//! job runs this with `FBP_BENCH_FAST=1` and **asserts the clustered
//! workload visits ≥ 5× fewer rows** — the acceptance floor for the
//! partition layer; a soundness regression that silently stops pruning
//! fails the job rather than just drifting a number.
//!
//! Set `FBP_BENCH_JSON=path` for the machine-readable record
//! (bench-smoke writes `BENCH_pr.json`).

use fbp_bench::{is_fast, is_full, time_median_ns, write_bench_json};
use fbp_vecdb::{
    Collection, CollectionBuilder, MultiQueryScan, PartitionConfig, PartitionedCollection,
    Precision, QueryBatch, QueryMetrics::Shared, ScanMode, ScanStatsSink, WeightedEuclidean,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;

const DIM: usize = 64;
const CLUSTERS: usize = 64;
const KS: [usize; 3] = [1, 10, 100];
const QUERIES: usize = 16;
/// Acceptance floor: the clustered workload must stream at least this
/// many times fewer rows through the pruned scan than the flat scan.
const MIN_ROWS_REDUCTION: f64 = 5.0;

fn scale_n() -> usize {
    if is_full() {
        1_000_000
    } else if is_fast() {
        120_000
    } else {
        300_000
    }
}

/// Tight, well-separated clusters: the workload partition pruning is
/// for. Centers live on a deterministic lattice spread through the
/// cube; rows scatter ±0.02 around them.
fn clustered(n: usize, seed: u64) -> Collection {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for r in 0..n {
        let c = r % CLUSTERS;
        let v: Vec<f64> = (0..DIM)
            .map(|d| center_coord(c, d) + rng.gen_range(-0.02..0.02))
            .collect();
        b.push_unlabelled(&v).unwrap();
    }
    b.build()
}

/// Rows uniform in the unit cube: centroids overlap, radii stay large,
/// and the sound bounds cannot prune — the graceful-degradation case.
fn uniform(n: usize, seed: u64) -> Collection {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for _ in 0..n {
        let v: Vec<f64> = (0..DIM).map(|_| rng.gen_range(0.0..1.0)).collect();
        b.push_unlabelled(&v).unwrap();
    }
    b.build()
}

fn center_coord(cluster: usize, dim: usize) -> f64 {
    (((cluster * 31 + dim * 7) % 97) as f64) / 97.0
}

/// Queries anchored near cluster centers (every workload's realistic
/// case: users query where the data is), lightly jittered.
fn queries(seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..QUERIES)
        .map(|i| {
            let c = (i * 7) % CLUSTERS;
            (0..DIM)
                .map(|d| center_coord(c, d) + rng.gen_range(-0.03..0.03))
                .collect()
        })
        .collect()
}

struct SweepPoint {
    workload: &'static str,
    k: usize,
    flat_rows: u64,
    pruned_rows: u64,
    partitions_pruned: u64,
    flat_ns: f64,
    pruned_ns: f64,
    pruned_f32_ns: f64,
}

/// Measure one workload at one k: rows via fresh sinks (one exact pass
/// per query, Q = 1 — the latency path the pruning serves), wall time
/// via the shared median timer.
fn measure(
    workload: &'static str,
    coll: &Collection,
    part: &PartitionedCollection,
    qs: &[Vec<f64>],
    dist: &WeightedEuclidean,
    k: usize,
    (warmup, samples): (usize, usize),
) -> SweepPoint {
    let flat_sink = ScanStatsSink::new();
    let flat = MultiQueryScan::with_mode(coll, ScanMode::Batched).with_scan_stats(&flat_sink);
    for q in qs {
        let q = [q.as_slice()];
        black_box(flat.knn(&QueryBatch::new(&q, Shared(dist), k)).len());
    }
    let pruned_sink = ScanStatsSink::new();
    let pruned = MultiQueryScan::with_mode(part, ScanMode::Batched).with_scan_stats(&pruned_sink);
    for q in qs {
        let q = [q.as_slice()];
        black_box(pruned.knn(&QueryBatch::new(&q, Shared(dist), k)).len());
    }
    let flat_rows = flat_sink.snapshot().rows_visited;
    let pruned_stats = pruned_sink.snapshot();

    let flat = MultiQueryScan::with_mode(coll, ScanMode::Batched);
    let flat_ns = time_median_ns(warmup, samples, || {
        for q in qs {
            let q = [q.as_slice()];
            black_box(flat.knn(&QueryBatch::new(&q, Shared(dist), k)).len());
        }
    }) / qs.len() as f64;
    let pruned = MultiQueryScan::with_mode(part, ScanMode::Batched);
    let pruned_ns = time_median_ns(warmup, samples, || {
        for q in qs {
            let q = [q.as_slice()];
            black_box(pruned.knn(&QueryBatch::new(&q, Shared(dist), k)).len());
        }
    }) / qs.len() as f64;
    let pruned_f32 =
        MultiQueryScan::with_mode(part, ScanMode::Batched).with_precision(Precision::F32Rescore);
    let pruned_f32_ns = time_median_ns(warmup, samples, || {
        for q in qs {
            let q = [q.as_slice()];
            black_box(pruned_f32.knn(&QueryBatch::new(&q, Shared(dist), k)).len());
        }
    }) / qs.len() as f64;

    SweepPoint {
        workload,
        k,
        flat_rows,
        pruned_rows: pruned_stats.rows_visited,
        partitions_pruned: pruned_stats.partitions_pruned,
        flat_ns,
        pruned_ns,
        pruned_f32_ns,
    }
}

fn main() {
    let n = scale_n();
    let (warmup, samples) = if is_fast() { (1, 3) } else { (2, 7) };
    let cfg = PartitionConfig::default();
    eprintln!(
        "[bench] partition-prune sweep: {n} × {DIM}-d, {} partitions, k ∈ {KS:?}, {QUERIES} queries, {samples} samples{}",
        cfg.partitions,
        if is_fast() { " (fast)" } else { "" }
    );

    let qs = queries(911);
    let weights: Vec<f64> = {
        let mut rng = StdRng::seed_from_u64(913);
        (0..DIM).map(|_| rng.gen_range(0.5..2.0)).collect()
    };
    let dist = WeightedEuclidean::new(weights).unwrap();

    let mut points: Vec<SweepPoint> = Vec::new();
    let mut build_ms = (0.0f64, 0.0f64);
    for (workload, coll) in [
        ("clustered", clustered(n, 701)),
        ("uniform", uniform(n, 703)),
    ] {
        let t0 = std::time::Instant::now();
        let part = PartitionedCollection::build(&coll, &cfg);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if workload == "clustered" {
            build_ms.0 = ms;
        } else {
            build_ms.1 = ms;
        }
        for k in KS {
            points.push(measure(
                workload,
                &coll,
                &part,
                &qs,
                &dist,
                k,
                (warmup, samples),
            ));
        }
    }

    println!(
        "partition pruning, {n} × {DIM}-d weighted-Euclidean, {} partitions",
        cfg.partitions
    );
    println!(
        "layout build: clustered {:.0} ms, uniform {:.0} ms",
        build_ms.0, build_ms.1
    );
    println!(
        "{:<10} {:>4} {:>12} {:>12} {:>7} {:>11} {:>11} {:>9} {:>11}",
        "workload",
        "k",
        "flat rows",
        "pruned rows",
        "rows×",
        "flat ns/q",
        "pruned ns/q",
        "speedup",
        "f32 ns/q"
    );
    for p in &points {
        println!(
            "{:<10} {:>4} {:>12} {:>12} {:>6.1}x {:>11.0} {:>11.0} {:>8.2}x {:>11.0}",
            p.workload,
            p.k,
            p.flat_rows,
            p.pruned_rows,
            p.flat_rows as f64 / p.pruned_rows.max(1) as f64,
            p.flat_ns,
            p.pruned_ns,
            p.flat_ns / p.pruned_ns,
            p.pruned_f32_ns,
        );
    }

    // The acceptance gate: across the whole clustered sweep, the pruned
    // scan must stream ≥ 5× fewer rows than the flat scan. (Aggregated
    // over k so one generous-k point cannot mask a dead pruning layer,
    // and one lucky k cannot carry a broken one.)
    let (flat_total, pruned_total) = points
        .iter()
        .filter(|p| p.workload == "clustered")
        .fold((0u64, 0u64), |(f, p), pt| {
            (f + pt.flat_rows, p + pt.pruned_rows)
        });
    let reduction = flat_total as f64 / pruned_total.max(1) as f64;
    println!("clustered rows reduction (all k): {reduction:.1}x (floor {MIN_ROWS_REDUCTION:.0}x)");
    assert!(
        reduction >= MIN_ROWS_REDUCTION,
        "partition pruning regressed: clustered workload visited only {reduction:.2}x fewer rows \
         (acceptance floor {MIN_ROWS_REDUCTION:.0}x; flat {flat_total}, pruned {pruned_total})"
    );
    assert!(
        points
            .iter()
            .filter(|p| p.workload == "clustered")
            .all(|p| p.partitions_pruned > 0),
        "clustered workload must prune partitions at every swept k"
    );

    let sweep_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "{{\"workload\":\"{}\",\"k\":{},\"flat_rows\":{},\"pruned_rows\":{},",
                    "\"rows_reduction\":{:.2},\"partitions_pruned\":{},",
                    "\"flat_ns_per_query\":{:.1},\"pruned_ns_per_query\":{:.1},",
                    "\"speedup\":{:.3},\"pruned_f32_ns_per_query\":{:.1}}}"
                ),
                p.workload,
                p.k,
                p.flat_rows,
                p.pruned_rows,
                p.flat_rows as f64 / p.pruned_rows.max(1) as f64,
                p.partitions_pruned,
                p.flat_ns,
                p.pruned_ns,
                p.flat_ns / p.pruned_ns,
                p.pruned_f32_ns,
            )
        })
        .collect();
    write_bench_json(&format!(
        concat!(
            "{{\"bench\":\"partition_prune\",",
            "\"workload\":{{\"n\":{},\"dim\":{},\"partitions\":{},\"queries\":{},\"metric\":\"weighted-euclidean\"}},",
            "\"mode\":\"{}\",",
            "\"build_ms_clustered\":{:.1},",
            "\"build_ms_uniform\":{:.1},",
            "\"clustered_rows_reduction\":{:.2},",
            "\"rows_reduction_floor\":{:.1},",
            "\"sweep\":[{}]}}\n"
        ),
        n,
        DIM,
        cfg.partitions,
        QUERIES,
        if is_fast() { "fast" } else { "full" },
        build_ms.0,
        build_ms.1,
        reduction,
        MIN_ROWS_REDUCTION,
        sweep_json.join(",")
    ));
}
