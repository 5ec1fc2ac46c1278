//! Layer probes: fixed-size timed calls into single layers, on the
//! workload's own data and the module it learned. Each reports the
//! median over its repetitions.

use crate::adapter::{self, Collection, Module, Params, Res, ServingScan, Stepper, K};
use crate::host::{median_ns, read_sum};
use crate::report::Metrics;
use crate::stats::{percentile, ratio};
use std::hint::black_box;
use std::time::Instant;

/// Held-out queries the probes draw on.
pub const QUERIES: usize = 32;

/// Repetitions of a whole-collection or network probe.
pub const REPS: usize = 9;

/// Repetitions of a sub-microsecond probe.
const FINE_REPS: usize = 2_000;

/// `vecdb.kernels.*`: one query against every row, against the cost of
/// just reading the same bytes.
pub fn kernels(m: &mut Metrics, coll: &Collection, queries: &[&[f64]]) {
    let rows = coll.len() as f64;
    let q64 = queries[0];
    let q32: Vec<f32> = q64.iter().map(|&v| v as f32).collect();
    let mirror = adapter::mirror_block(coll);
    let floor = median_ns(REPS, || {
        black_box(read_sum(black_box(mirror)));
    }) / rows;
    let mut out32 = vec![0.0f32; coll.len()];
    let f32_ns = median_ns(REPS, || {
        adapter::kernel_f32(coll, black_box(&q32), &mut out32);
        black_box(&out32);
    }) / rows;
    let mut out64 = vec![0.0f64; coll.len()];
    let f64_ns = median_ns(REPS, || {
        adapter::kernel_f64(coll, black_box(q64), &mut out64);
        black_box(&out64);
    }) / rows;
    let reps = REPS as u64;
    m.put("vecdb.kernels.stream_floor_ns_per_row", floor, reps);
    m.put("vecdb.kernels.f32_ns_per_row", f32_ns, reps);
    m.put("vecdb.kernels.f64_ns_per_row", f64_ns, reps);
    m.put("vecdb.kernels.f32_over_floor", f32_ns / floor, reps);
}

/// `vecdb.scan.q1_us`: whole single-query k-NN passes at serving
/// precision.
pub fn scan_q1(m: &mut Metrics, coll: &Collection, queries: &[&[f64]]) {
    let mut q1: Vec<u64> = queries
        .iter()
        .map(|q| {
            let t0 = Instant::now();
            black_box(adapter::serving_knn(coll, q, K));
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    m.put(
        "vecdb.scan.q1_us",
        percentile(&mut q1, 0.5) / 1e3,
        q1.len() as u64,
    );
}

/// `vecdb.scan.q16_us_per_query`: one coalesced pass for sixteen
/// diverged sessions, each request carrying its own weights.
pub fn scan_q16(m: &mut Metrics, coll: &Collection, queries: &[&[f64]]) {
    let requests: Vec<Params> = queries
        .iter()
        .take(16)
        .enumerate()
        .map(|(i, q)| Params {
            point: q.to_vec(),
            weights: (0..q.len())
                .map(|d| 1.0 + ((i + d) % 5) as f64 * 0.25)
                .collect(),
        })
        .collect();
    let module = Module::unit_cube(coll.dim());
    let scan = ServingScan::new(coll);
    let ns = median_ns(REPS, || {
        black_box(module.knn_batch(&scan, &requests).expect("valid requests"));
    });
    m.put(
        "vecdb.scan.q16_us_per_query",
        ns / 1e3 / requests.len() as f64,
        REPS as u64,
    );
}

/// `core.module.*` at the module's current size. Inserts go into a
/// private copy.
pub fn module(m: &mut Metrics, module: &Module, queries: &[&[f64]]) -> Res<()> {
    let mut predict: Vec<u64> = Vec::new();
    let mut predicted = Vec::new();
    for q in queries {
        let t0 = Instant::now();
        predicted.push(module.predict(q)?);
        predict.push(t0.elapsed().as_nanos() as u64);
    }
    let copy = Module::from_image(&module.to_image())?;
    let mut insert: Vec<u64> = Vec::new();
    for (q, p) in queries.iter().zip(&predicted) {
        // Nudged weights, so the tree cannot skip the point as already
        // predicted.
        let mut learned = p.clone();
        learned.weights[0] *= 1.5;
        let t0 = Instant::now();
        copy.insert(q, &learned)?;
        insert.push(t0.elapsed().as_nanos() as u64);
    }
    let n = queries.len() as u64;
    m.put(
        "core.module.predict_us",
        percentile(&mut predict, 0.5) / 1e3,
        n,
    );
    m.put(
        "core.module.insert_us",
        percentile(&mut insert, 0.5) / 1e3,
        n,
    );
    shape_metrics(m, module);
    Ok(())
}

/// `core.module.{stored_points,tree_depth,snapshot_bytes}`.
pub fn shape_metrics(m: &mut Metrics, module: &Module) {
    let shape = module.shape();
    m.put("core.module.stored_points", shape.stored_points as f64, 1);
    m.put("core.module.tree_depth", shape.tree_depth as f64, 1);
    m.put(
        "core.module.snapshot_bytes",
        module.to_image().len() as f64,
        1,
    );
}

/// `core.module.cycles_saved_frac`, the paper's Figure 15: whole
/// feedback loops on never-inserted rows, from the default parameters
/// and from the module's predictions, nothing inserted; the share of
/// cycles the predictions save.
pub fn cycles_saved(
    m: &mut Metrics,
    coll: &Collection,
    module: &Module,
    rows: &[usize],
) -> Res<()> {
    let (mut from_default, mut from_predicted) = (0usize, 0usize);
    for &row in rows {
        let (q, category) = (coll.vector(row), coll.label(row));
        from_default += adapter::loop_cycles(coll, q, category, None)?;
        let predicted = module.predict(q)?;
        from_predicted += adapter::loop_cycles(coll, q, category, Some(&predicted))?;
    }
    let saved = 1.0 - ratio(from_predicted as f64, from_default as f64);
    m.put("core.module.cycles_saved_frac", saved, rows.len() as u64);
    Ok(())
}

/// `core.query.lower_ns` and `server.protocol.*`: per-request work that
/// does not depend on the collection's size. `shard_hops` is how many
/// router → shard round trips one search adds.
pub fn query_and_codec(m: &mut Metrics, coll: &Collection, queries: &[&[f64]], shard_hops: usize) {
    let q = queries[0];
    let fine = FINE_REPS as u64;
    let lower = median_ns(FINE_REPS, || adapter::lower_plain(black_box(q)));
    m.put("core.query.lower_ns", lower, fine);
    let mut req_len = 0;
    let req = median_ns(FINE_REPS, || {
        req_len = adapter::knn_request_roundtrip(black_box(q))
    });
    m.put("server.protocol.knn_req_codec_ns", req, fine);
    let answer = adapter::serving_knn(coll, q, K);
    let mut resp_len = 0;
    let resp = median_ns(FINE_REPS, || {
        resp_len = adapter::knn_response_roundtrip(black_box(&answer))
    });
    m.put("server.protocol.knn_resp_codec_ns", resp, fine);
    // Computed from the encodings, not counted on the socket: both
    // frames with their 4-byte length prefixes, plus the shard hops.
    let bytes = req_len + resp_len + 8 + shard_hops * (adapter::shard_hop_bytes(q.len(), K) + 8);
    m.put("server.protocol.bytes_per_search", bytes as f64, 1);
}

/// `feedback.step_us`: one judge → re-parameterize transition on a real
/// first-round result list, per held-out row.
pub fn feedback_step(m: &mut Metrics, coll: &Collection, rows: &[usize]) -> Res<()> {
    let stepper = Stepper::new(coll);
    let mut ns: Vec<u64> = Vec::new();
    for &row in rows {
        let q = coll.vector(row);
        let results = adapter::serving_knn(coll, q, K);
        let params = Params::default_for(q);
        let t0 = Instant::now();
        black_box(stepper.step(&params, &results, coll.label(row))?);
        ns.push(t0.elapsed().as_nanos() as u64);
    }
    m.put(
        "feedback.step_us",
        percentile(&mut ns, 0.5) / 1e3,
        ns.len() as u64,
    );
    Ok(())
}
