//! Multi-query scan Q-sweep: per-query cost of answering Q concurrent
//! queries per blocked collection pass, on the acceptance workload
//! (10k × 64-d, weighted Euclidean, k = 50), in **both scan precisions**.
//!
//! The single-query batched scan is memory-bandwidth-bound on small
//! hosts (PR 1 measured it at the raw sequential-read time of the
//! collection), so per-query cost should fall monotonically as Q grows —
//! every block is streamed once for Q queries — until the scan turns
//! compute-bound. Orthogonally, `Precision::F32Rescore` halves the bytes
//! each pass streams (phase 1 reads the f32 mirror, phase 2 rescores the
//! few survivors in f64), which is the lever for the Q = 1 latency path
//! that batching cannot amortize. The sweep is measured manually (not
//! through the criterion shim) because CI tracks the numbers per PR: set
//! `FBP_BENCH_JSON=path` to dump them machine-readably (the bench-smoke
//! job writes `BENCH_pr.json`; records append, one JSON line per bench),
//! `FBP_BENCH_FAST=1` for reduced samples.

use fbp_bench::{emit, is_fast, time_median_ns, write_bench_json};
use fbp_eval::report::Figure;
use fbp_eval::Series;
use fbp_vecdb::{
    CollectionBuilder, KnnEngine, LinearScan, MultiQueryScan, Precision, QueryBatch,
    QueryMetrics::Shared, ScanMode, WeightedEuclidean,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;

const N: usize = 10_000;
const DIM: usize = 64;
const K: usize = 50;
/// Swept batch sizes; every sweep point answers all [`TOTAL_QUERIES`]
/// queries, in batches of Q, so the work compared is identical.
const QS: [usize; 4] = [1, 4, 16, 64];
const TOTAL_QUERIES: usize = 64;

fn collection(seed: u64) -> fbp_vecdb::Collection {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for _ in 0..N {
        let center = rng.gen_range(0..20);
        let v: Vec<f64> = (0..DIM)
            .map(|d| {
                let base = (((center * 31 + d * 7) % 97) as f64) / 97.0;
                (base + rng.gen_range(-0.08..0.08)).clamp(0.0, 1.0)
            })
            .collect();
        b.push_unlabelled(&v).unwrap();
    }
    b.build()
}

fn main() {
    let coll = collection(71);
    let mut rng = StdRng::seed_from_u64(73);
    let queries: Vec<Vec<f64>> = (0..TOTAL_QUERIES)
        .map(|_| (0..DIM).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
    let weights: Vec<f64> = (0..DIM).map(|_| rng.gen_range(0.3..3.0)).collect();
    let weighted = WeightedEuclidean::new(weights).unwrap();

    let (warmup, samples) = if is_fast() { (1, 5) } else { (3, 15) };
    eprintln!(
        "[bench] multi-query scan sweep: {N} × {DIM}-d, k={K}, {TOTAL_QUERIES} queries/sample, {samples} samples{}",
        if is_fast() { " (fast)" } else { "" }
    );

    // Baselines: the single-query batched LinearScan (one pass per
    // query), in both precisions — the f32/f64 ratio at Q = 1 is the
    // acceptance number for the mirror (bandwidth-bound: ideal is 2×).
    let single = LinearScan::with_mode(&coll, ScanMode::Batched);
    let linear_ns = time_median_ns(warmup, samples, || {
        for q in &refs {
            black_box(single.knn(q, K, &weighted).len());
        }
    }) / TOTAL_QUERIES as f64;
    let single_f32 =
        LinearScan::with_mode(&coll, ScanMode::Batched).with_precision(Precision::F32Rescore);
    let linear_f32_ns = time_median_ns(warmup, samples, || {
        for q in &refs {
            black_box(single_f32.knn(q, K, &weighted).len());
        }
    }) / TOTAL_QUERIES as f64;

    // Q-sweep: same 64 queries, answered Q at a time in one pass each,
    // per precision.
    let mut sweeps: Vec<(Precision, Vec<(usize, f64)>)> = Vec::new();
    for precision in [Precision::F64, Precision::F32Rescore] {
        let multi = MultiQueryScan::with_mode(&coll, ScanMode::Batched).with_precision(precision);
        let mut sweep: Vec<(usize, f64)> = Vec::new();
        for q in QS {
            let ns = time_median_ns(warmup, samples, || {
                for batch in refs.chunks(q) {
                    black_box(
                        multi
                            .knn(&QueryBatch::new(batch, Shared(&weighted), K))
                            .len(),
                    );
                }
            }) / TOTAL_QUERIES as f64;
            sweep.push((q, ns));
        }
        sweeps.push((precision, sweep));
    }

    let data_bytes = coll.memory_bytes() - coll.mirror_bytes();
    println!("multi-query scan, {N} × {DIM}-d weighted-Euclidean, k = {K}");
    println!(
        "collection {:.1} MB f64 + {:.1} MB f32 mirror",
        data_bytes as f64 / 1e6,
        coll.mirror_bytes() as f64 / 1e6
    );
    println!("{:<36} {:>12} {:>14}", "path", "ns/query", "queries/sec");
    let row = |name: &str, ns: f64| {
        println!("{name:<36} {ns:>12.0} {:>14.0}", 1e9 / ns);
    };
    row("linear-scan f64 (1 pass/query)", linear_ns);
    row("linear-scan f32-rescore", linear_f32_ns);
    for (precision, sweep) in &sweeps {
        let tag = match precision {
            Precision::F64 => "f64",
            Precision::F32Rescore => "f32-rescore",
        };
        for &(q, ns) in sweep {
            row(&format!("multi-query {tag} shared Q={q}"), ns);
        }
    }
    println!(
        "f32-rescore speedup at Q=1: {:.2}x (bandwidth floor would be ~2x)",
        linear_ns / linear_f32_ns
    );

    // Figure JSON under target/figures/ for the experiment archive.
    let mut series: Vec<Series> = sweeps
        .iter()
        .map(|(precision, sweep)| {
            Series::new(
                match precision {
                    Precision::F64 => "shared metric (f64)",
                    Precision::F32Rescore => "shared metric (f32 rescore)",
                },
                sweep
                    .iter()
                    .map(|&(q, ns)| (q as f64, ns))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    series.push(Series::new(
        "linear-scan baseline",
        QS.iter()
            .map(|&q| (q as f64, linear_ns))
            .collect::<Vec<_>>(),
    ));
    let fig = Figure::new(
        "Multi-query scan — per-query cost vs batch size Q",
        "Q (queries per pass)",
        "ns per query",
        series,
    );
    emit("multi_query_scan", &fig);

    // Machine-readable record for the CI bench-smoke artifact.
    let qsweep_json: Vec<String> = sweeps[0]
        .1
        .iter()
        .zip(sweeps[1].1.iter())
        .map(|(&(q, ns64), &(_, ns32))| {
            format!(
                "{{\"q\":{q},\"ns_per_query\":{ns64:.1},\"ns_per_query_f32\":{ns32:.1},\"queries_per_sec\":{:.1}}}",
                1e9 / ns64
            )
        })
        .collect();
    write_bench_json(&format!(
        concat!(
            "{{\"bench\":\"multi_query_scan\",",
            "\"workload\":{{\"n\":{},\"dim\":{},\"k\":{},\"metric\":\"weighted-euclidean\"}},",
            "\"mode\":\"{}\",",
            "\"collection_bytes\":{},",
            "\"mirror_bytes\":{},",
            "\"linear_scan_ns_per_query\":{:.1},",
            "\"linear_scan_f32_ns_per_query\":{:.1},",
            "\"f32_rescore_speedup_q1\":{:.3},",
            "\"qsweep\":[{}]}}\n"
        ),
        N,
        DIM,
        K,
        if is_fast() { "fast" } else { "full" },
        data_bytes,
        coll.mirror_bytes(),
        linear_ns,
        linear_f32_ns,
        linear_ns / linear_f32_ns,
        qsweep_json.join(",")
    ));
}
