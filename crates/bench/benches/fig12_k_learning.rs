//! Figure 12: FeedbackBypass precision (a) and recall (b) learning curves
//! for k ∈ {20, 50, 80}.
//!
//! Run: `cargo bench --bench fig12_k_learning`.

use fbp_bench::{bench_dataset, bench_queries, emit};
use fbp_eval::efficiency::checkpoints;
use fbp_eval::report::Figure;
use fbp_eval::stream::StreamResult;
use fbp_eval::{metrics, run_stream, Series, StreamOptions};
use fbp_vecdb::LinearScan;

fn main() {
    let ds = bench_dataset();
    let n = bench_queries();
    let ks = [20usize, 50, 80];

    // One stream per k, in parallel (they are independent experiments).
    let mut results: Vec<Option<StreamResult>> = vec![None, None, None];
    std::thread::scope(|scope| {
        for (slot, &k) in results.iter_mut().zip(ks.iter()) {
            let ds = &ds;
            scope.spawn(move || {
                let engine = LinearScan::new(&ds.collection);
                let opts = StreamOptions {
                    n_queries: n,
                    k,
                    ..Default::default()
                };
                *slot = Some(run_stream(ds, &engine, &opts));
            });
        }
    });

    let cps = checkpoints(n, (n / 10).max(1));
    let curve = |res: &StreamResult, f: &dyn Fn(&fbp_eval::QueryRecord) -> f64| {
        let v: Vec<f64> = res.records.iter().map(f).collect();
        let c = metrics::cumulative_avg(&v);
        cps.iter()
            .map(|&cp| (cp as f64, c[cp - 1]))
            .collect::<Vec<_>>()
    };

    let mut p_series = Vec::new();
    let mut r_series = Vec::new();
    for (res, &k) in results.iter().zip(ks.iter()) {
        let res = res.as_ref().unwrap();
        p_series.push(Series::new(
            format!("k = {k}"),
            curve(res, &|r| r.bypass.precision),
        ));
        r_series.push(Series::new(
            format!("k = {k}"),
            curve(res, &|r| r.bypass.recall),
        ));
    }
    emit(
        "fig12a_precision",
        &Figure::new(
            "Figure 12a — FeedbackBypass precision vs no. of queries",
            "no. of queries",
            "precision",
            p_series,
        ),
    );
    emit(
        "fig12b_recall",
        &Figure::new(
            "Figure 12b — FeedbackBypass recall vs no. of queries",
            "no. of queries",
            "recall",
            r_series,
        ),
    );
}
