//! Figure 15: efficiency — average feedback cycles (a) and retrieved
//! objects (b) saved by starting the loop from FeedbackBypass's
//! prediction instead of the defaults, for k ∈ {20, 50}.
//!
//! Run: `cargo bench --bench fig15_savings`.

use fbp_bench::{bench_dataset, bench_queries, emit};
use fbp_eval::efficiency::{checkpoints, savings};
use fbp_eval::report::Figure;
use fbp_eval::stream::StreamResult;
use fbp_eval::{run_stream, StreamOptions};
use fbp_vecdb::LinearScan;

fn main() {
    let ds = bench_dataset();
    let n = bench_queries();
    let ks = [20usize, 50];

    let mut results: Vec<Option<StreamResult>> = vec![None, None];
    std::thread::scope(|scope| {
        for (slot, &k) in results.iter_mut().zip(ks.iter()) {
            let ds = &ds;
            scope.spawn(move || {
                let engine = LinearScan::new(&ds.collection);
                let opts = StreamOptions {
                    n_queries: n,
                    k,
                    measure_savings: true,
                    ..Default::default()
                };
                *slot = Some(run_stream(ds, &engine, &opts));
            });
        }
    });

    // The paper plots savings from query 300 on (the module needs some
    // history before predictions help).
    let start = (n * 3 / 10).max(1);
    let cps: Vec<usize> = checkpoints(n, (n / 10).max(1))
        .into_iter()
        .filter(|&c| c >= start)
        .collect();

    let mut cycle_series = Vec::new();
    let mut object_series = Vec::new();
    for (res, &k) in results.iter().zip(ks.iter()) {
        let res = res.as_ref().unwrap();
        let s = savings(&res.records, k, &cps);
        cycle_series.push(s.cycles_series(format!("k = {k}")));
        object_series.push(s.objects_series(format!("k = {k}")));
    }
    emit(
        "fig15a_saved_cycles",
        &Figure::new(
            "Figure 15a — saved feedback cycles vs no. of queries",
            "no. of queries",
            "Saved-Cycles",
            cycle_series,
        ),
    );
    emit(
        "fig15b_saved_objects",
        &Figure::new(
            "Figure 15b — saved retrieved objects vs no. of queries",
            "no. of queries",
            "Saved-Objects",
            object_series,
        ),
    );
}
