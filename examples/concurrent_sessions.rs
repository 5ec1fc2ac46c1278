//! Concurrent user sessions sharing one FeedbackBypass module.
//!
//! A retrieval service handles many simultaneous users; all of them
//! should read (predict) and extend (insert) the same learned mapping.
//! This example runs several worker threads, each simulating a user
//! session stream against the shared module, and reports the combined
//! learning effect.
//!
//! Run with: `cargo run --release --example concurrent_sessions`

use fbp_eval::metrics;
use fbp_eval::scenario::evaluate_params;
use fbp_feedback::{CategoryOracle, FeedbackConfig, FeedbackLoop};
use fbp_imagegen::{DatasetConfig, SyntheticDataset};
use fbp_vecdb::LinearScan;
use feedbackbypass::{BypassConfig, FeedbackBypass, SharedBypass};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

const WORKERS: usize = 4;
const QUERIES_PER_WORKER: usize = 60;
const K: usize = 30;

fn main() {
    let mut cfg = DatasetConfig::paper();
    cfg.scale = 0.3;
    cfg.noise_images = 2250;
    eprintln!("generating dataset...");
    let ds = SyntheticDataset::generate(cfg);
    let coll = &ds.collection;

    let module = FeedbackBypass::for_histograms(coll.dim(), BypassConfig::default()).unwrap();
    let shared = SharedBypass::new(module);

    // Disjoint query slices per worker.
    let mut pool = ds.labelled.clone();
    pool.shuffle(&mut StdRng::seed_from_u64(42));
    let slices: Vec<Vec<usize>> = (0..WORKERS)
        .map(|w| pool[w * QUERIES_PER_WORKER..(w + 1) * QUERIES_PER_WORKER].to_vec())
        .collect();

    eprintln!("running {WORKERS} session threads...");
    let t0 = std::time::Instant::now();
    std::thread::scope(|scope| {
        for (w, slice) in slices.iter().enumerate() {
            let shared = shared.clone();
            let ds = &ds;
            scope.spawn(move || {
                let coll = &ds.collection;
                let engine = LinearScan::new(coll);
                let fb_cfg = FeedbackConfig {
                    k: K,
                    ..Default::default()
                };
                let fb_loop = FeedbackLoop::new(&engine, coll, fb_cfg);
                let mut bypassed = 0usize;
                for &qidx in slice {
                    let q = coll.vector(qidx);
                    let oracle = CategoryOracle::new(coll, coll.label(qidx));
                    // Figure 5 protocol against the shared module.
                    let pred = shared.predict(q).unwrap();
                    let run = fb_loop
                        .run_from(&pred.point, &pred.weights, &oracle)
                        .unwrap();
                    if run.cycles == 0 {
                        bypassed += 1; // prediction was already stable
                    } else {
                        shared.insert(q, &run.point, &run.weights).unwrap();
                    }
                }
                println!(
                    "worker {w}: {} queries, {} loops fully bypassed",
                    slice.len(),
                    bypassed
                );
            });
        }
    });
    let elapsed = t0.elapsed();

    let (stored, nodes, depth) = shared.stats();
    println!(
        "\nshared tree after {} total queries: {stored} stored points, {nodes} nodes, depth {depth} ({elapsed:.2?})",
        WORKERS * QUERIES_PER_WORKER
    );

    // Fresh queries benefit from everyone's feedback.
    let engine = LinearScan::new(coll);
    let eval_pool: Vec<usize> = pool
        [WORKERS * QUERIES_PER_WORKER..(WORKERS * QUERIES_PER_WORKER + 80).min(pool.len())]
        .to_vec();
    let mut defaults = Vec::new();
    let mut bypassed = Vec::new();
    for qidx in eval_pool {
        let q = coll.vector(qidx);
        let oracle = CategoryOracle::new(coll, coll.label(qidx));
        defaults.push(evaluate_params(&engine, q, &vec![1.0; coll.dim()], K, &oracle).precision);
        let pred = shared.predict(q).unwrap();
        bypassed.push(evaluate_params(&engine, &pred.point, &pred.weights, K, &oracle).precision);
    }
    let d = metrics::mean(&defaults);
    let b = metrics::mean(&bypassed);
    println!(
        "fresh queries: default {d:.3} vs shared-bypass {b:.3} ({:+.1}%)",
        metrics::precision_gain(b, d)
    );
}
