//! fbp-server end to end: spawn the TCP serving front-end on an
//! ephemeral loopback port, drive it with the closed-loop load generator
//! (N interactive feedback sessions with think-time), and compare the
//! adaptive micro-batching configuration against `max_batch = 1`.
//!
//! Every session runs the full wire protocol — `OpenSession`, `Knn`,
//! `Feedback` until the server reports the query done, `Close` — so the
//! whole FeedbackBypass loop (predict → search → judge → re-learn →
//! insert) happens over TCP, coalesced into shared multi-query scan
//! passes by the micro-batcher.
//!
//! Run with: `cargo run --release --example serve_loadgen`
//! (`FBP_BENCH_FAST=1` for the short CI smoke burst.)

use fbp_server::{run_loadgen, serve, Client, LoadgenOptions, LoadgenReport, ServerConfig};
use fbp_vecdb::{CategoryId, Collection, CollectionBuilder, KnnEngine, LinearScan, ScanMode};
use feedbackbypass::{BypassConfig, FeedbackBypass, FeedbackConfig, SharedBypass};
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 64;
const K: u32 = 50;
const SESSIONS: usize = 32;
const CLUSTERS: usize = 20;

fn fast() -> bool {
    std::env::var("FBP_BENCH_FAST").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// Clustered, labelled collection in `[0,1]^64` with the f32 mirror the
/// serving scans stream (cluster = category = the relevance oracle).
fn collection(n: usize) -> Collection {
    let mut state = 0x5DEE_CE66_D154_21C5u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut b = CollectionBuilder::new().with_f32_mirror();
    let cats: Vec<CategoryId> = (0..CLUSTERS)
        .map(|c| b.category(&format!("cluster-{c}")))
        .collect();
    for i in 0..n {
        let center = i % CLUSTERS;
        let v: Vec<f64> = (0..DIM)
            .map(|d| {
                let base = (((center * 31 + d * 7) % 97) as f64) / 97.0;
                (base + (next() - 0.5) * 0.16).clamp(0.0, 1.0)
            })
            .collect();
        b.push(&v, cats[center]).unwrap();
    }
    b.build()
}

fn run_config(coll: &Arc<Collection>, queries: &[Vec<f64>], max_batch: usize) -> LoadgenReport {
    let bypass = SharedBypass::new(
        FeedbackBypass::for_unit_cube(DIM, BypassConfig::default()).expect("unit-cube module"),
    );
    let cfg = ServerConfig {
        max_batch,
        feedback: FeedbackConfig {
            k: K as usize,
            ..Default::default()
        },
        ..Default::default()
    };
    let handle = serve("127.0.0.1:0", Arc::clone(coll), bypass, cfg).expect("bind loopback");
    let addr = handle.local_addr();
    let opts = LoadgenOptions {
        sessions: SESSIONS,
        queries_per_session: if fast() { 3 } else { 10 },
        k: K,
        think_time: Duration::from_millis(5),
        max_rounds: 64,
        trace: false,
    };
    let coll_ref = Arc::clone(coll);
    let judge = move |qi: usize, ids: &[u32]| -> Vec<u32> {
        let cat = coll_ref.label(qi);
        ids.iter()
            .copied()
            .filter(|&id| coll_ref.label(id as usize) == cat)
            .collect()
    };
    let report = run_loadgen(addr, queries, Some(&judge), &opts).expect("loadgen run");

    // Spot-check the wire contract before tearing down: a fresh
    // out-of-domain uniform-weight query must come back bit-identical to
    // the in-process LinearScan answer.
    let mut probe = Client::connect(addr).expect("probe client");
    let (session, dim) = probe.open_session().expect("open session");
    assert_eq!(dim as usize, DIM);
    // Components > 1 sit outside the unit-cube module's domain, so the
    // server searches them as-is under the uniform fallback — exactly
    // what the in-process LinearScan below computes.
    let q: Vec<f64> = (0..DIM)
        .map(|d| 1.5 + ((d * 13) as f64 * 0.31).sin().abs())
        .collect();
    let reply = probe.knn(session, 10, &q).expect("probe knn");
    let expect = LinearScan::with_mode(coll, ScanMode::Batched).knn(
        &q,
        10,
        &fbp_vecdb::WeightedEuclidean::uniform(DIM),
    );
    assert_eq!(
        reply.neighbors, expect,
        "wire answer diverged from LinearScan"
    );
    probe.close_session(session).expect("close probe session");

    handle.shutdown(); // joins every thread — returning IS the clean-shutdown proof
    report
}

fn main() {
    let n = 10_000;
    eprintln!("building {n} × {DIM}-d labelled collection (+f32 mirror)...");
    let coll = Arc::new(collection(n));
    let queries: Vec<Vec<f64>> = (0..SESSIONS * 10)
        .map(|i| coll.vector(i).to_vec())
        .collect();

    println!(
        "fbp-server loadgen: {n} × {DIM}-d, k = {K}, {SESSIONS} closed-loop sessions, 5 ms think-time\n"
    );
    println!(
        "{:<24} {:>9} {:>8} {:>13} {:>9} {:>9} {:>11}",
        "config", "searches", "queries", "searches/sec", "p50 µs", "p99 µs", "batch fill"
    );
    let mut reports = Vec::new();
    for (name, max_batch) in [("no batching (max=1)", 1), ("adaptive micro-batch", 16)] {
        let r = run_config(&coll, &queries, max_batch);
        println!(
            "{name:<24} {:>9} {:>8} {:>13.0} {:>9.0} {:>9.0} {:>11.2}",
            r.searches,
            r.queries,
            r.searches_per_sec(),
            r.latency_p50_us,
            r.latency_p99_us,
            r.server.mean_batch_fill,
        );
        // Server-side accounting must agree with the client's view.
        assert_eq!(r.server.requests, r.searches, "dropped or phantom requests");
        assert_eq!(r.server.protocol_errors, 0, "clean traffic only");
        assert_eq!(r.server.sessions_open, 0, "sessions must be closed");
        reports.push(r);
    }
    let speedup = reports[1].searches_per_sec() / reports[0].searches_per_sec();
    println!(
        "\nmicro-batching: {:.2}x searches/sec at mean fill {:.2} ({} passes for {} searches);",
        speedup, reports[1].server.mean_batch_fill, reports[1].server.passes, reports[1].searches,
    );
    println!("both servers shut down cleanly (all threads joined).");
}
