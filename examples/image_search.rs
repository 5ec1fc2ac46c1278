//! Figure 1, qualitatively: top-5 results for one query image with
//! default parameters vs with FeedbackBypass's predicted parameters.
//!
//! The paper's Figure 1 shows a "Mammal" query whose default top-5
//! contains no mammals, while the bypass-predicted parameters yield 4.
//! This example trains the module on a stream of other queries, then
//! prints both result lists for a held-out query with per-result
//! categories.
//!
//! Run with: `cargo run --release --example image_search`

use fbp_eval::stream::query_order;
use fbp_eval::{run_stream, StreamOptions};
use fbp_imagegen::{DatasetConfig, SyntheticDataset};
use fbp_vecdb::{Distance, KnnEngine, LinearScan, WeightedEuclidean};

fn label_of(ds: &SyntheticDataset, idx: u32) -> String {
    let coll = &ds.collection;
    let l = coll.label(idx as usize);
    coll.category_name(l)
        .map(|s| s.to_string())
        .unwrap_or_else(|| "(noise)".to_string())
}

fn show_top5(
    ds: &SyntheticDataset,
    engine: &dyn KnnEngine,
    point: &[f64],
    weights: &[f64],
    header: &str,
    query_cat: &str,
) {
    let dist = WeightedEuclidean::new(weights.to_vec()).unwrap();
    let results = engine.knn(point, 5, &dist);
    println!("{header}");
    let mut hits = 0;
    for (rank, n) in results.iter().enumerate() {
        let cat = label_of(ds, n.index);
        if cat == query_cat {
            hits += 1;
        }
        println!(
            "  {}. image #{:<5} d = {:.4}  [{}]",
            rank + 1,
            n.index,
            n.dist,
            cat
        );
    }
    println!("  → {hits} of 5 in the query's category\n");
}

fn main() {
    let mut cfg = DatasetConfig::paper();
    cfg.scale = 0.5;
    cfg.noise_images = 3750;
    eprintln!("generating dataset...");
    let ds = SyntheticDataset::generate(cfg);
    let engine = LinearScan::new(&ds.collection);

    // Train the module on 400 queries.
    eprintln!("training FeedbackBypass on 400 queries...");
    let opts = StreamOptions {
        n_queries: 400,
        k: 50,
        ..Default::default()
    };
    let trained = run_stream(&ds, &engine, &opts).bypass;

    // Pick an illustrative held-out query, as the paper does for its
    // Figure 1: one where the predicted parameters visibly change the
    // top-5 (scan a slice of never-seen queries and take the biggest
    // improvement).
    let order = query_order(&ds, opts.seed);
    let coll = &ds.collection;
    let top5_hits = |point: &[f64], weights: &[f64], cat: u32| -> usize {
        let dist = WeightedEuclidean::new(weights.to_vec()).unwrap();
        engine
            .knn(point, 5, &dist)
            .iter()
            .filter(|n| coll.label(n.index as usize) == cat)
            .count()
    };
    let qidx = order
        .iter()
        .skip(opts.n_queries)
        .take(120)
        .copied()
        .max_by_key(|&i| {
            let q = coll.vector(i);
            let cat = coll.label(i);
            let d = top5_hits(q, &vec![1.0; q.len()], cat);
            let p = trained.predict(q).unwrap();
            let b = top5_hits(&p.point, &p.weights, cat);
            b as i64 - d as i64
        })
        .expect("held-out query exists");
    let q: Vec<f64> = coll.vector(qidx).to_vec();
    let query_cat = label_of(&ds, qidx as u32);
    println!("query: image #{qidx}, category \"{query_cat}\" (never seen by the module)\n");

    // Default vs FeedbackBypass top-5 (the two rows of Figure 1).
    show_top5(
        &ds,
        &engine,
        &q,
        &vec![1.0; q.len()],
        "Default results (Euclidean, unmoved query):",
        &query_cat,
    );
    let pred = trained.predict(&q).unwrap();
    show_top5(
        &ds,
        &engine,
        &pred.point,
        &pred.weights,
        "FeedbackBypass results (predicted query point + weights):",
        &query_cat,
    );

    // How different are the predicted parameters?
    let moved: f64 = WeightedEuclidean::uniform(q.len()).eval(&q, &pred.point);
    let w_spread = pred.weights.iter().cloned().fold(0.0_f64, f64::max)
        / pred.weights.iter().cloned().fold(f64::INFINITY, f64::min);
    println!("predicted parameters: query moved by {moved:.4}, weight spread {w_spread:.1}×");
}
