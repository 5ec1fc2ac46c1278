//! Wire-level pin of the evidence-based batch window: two closed-loop
//! clients — each with exactly one `Knn` in flight, as the protocol
//! requires — must be coalesced into one pass per round **without**
//! either of them sitting out `idle_gap`: the window closes the moment
//! both connections have a request queued, because no third request can
//! arrive. Read from the same [`StatsSnapshot`](fbp_server::StatsSnapshot)
//! fields an operator would watch.

use fbp_server::{serve, Client, ServerConfig};
use fbp_vecdb::CollectionBuilder;
use feedbackbypass::{BypassConfig, FeedbackBypass, SharedBypass};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const DIM: usize = 8;
const ROUNDS: usize = 200;

/// Two lock-step clients against one server; returns the stats and the
/// idle gap (µs) none of their rounds may have sat out.
fn closed_loop_pair() -> (fbp_server::StatsSnapshot, f64) {
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for i in 0..2_000 {
        let v: Vec<f64> = (0..DIM)
            .map(|d| (((i * 13 + d * 7) as f64) * 0.37).sin().abs())
            .collect();
        b.push_unlabelled(&v).unwrap();
    }
    let bypass =
        SharedBypass::new(FeedbackBypass::for_histograms(DIM, BypassConfig::default()).unwrap());
    // A gap no healthy round trip comes near: every wait the histogram
    // records is either "the other client's request had not landed yet"
    // (microseconds) or a timer being sat out (≥ 200 ms).
    let idle_gap = Duration::from_millis(200);
    let handle = serve(
        "127.0.0.1:0",
        Arc::new(b.build()),
        bypass,
        ServerConfig {
            max_wait: Duration::from_secs(2),
            idle_gap,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    // Both connections exist before either sends: from the first
    // request on, the server sees two live connections.
    let connected = Barrier::new(2);
    std::thread::scope(|scope| {
        for c in 0..2usize {
            let connected = &connected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let (session, _) = client.open_session().unwrap();
                connected.wait();
                for i in 0..ROUNDS {
                    let q: Vec<f64> = (0..DIM)
                        .map(|d| (((c * ROUNDS + i) * 5 + d) as f64 * 0.11).sin().abs())
                        .collect();
                    let reply = client.knn(session, 10, &q).unwrap();
                    assert_eq!(reply.neighbors.len(), 10);
                }
                // Leaving is evidence too: the slower client's last
                // round must not wait for this connection.
                client.close_session(session).unwrap();
            });
        }
    });

    let stats = handle.stats();
    handle.shutdown();
    assert_eq!(stats.requests, 2 * ROUNDS as u64);
    (stats, idle_gap.as_secs_f64() * 1e6)
}

fn assert_no_round_sat_out_the_gap(stats: &fbp_server::StatsSnapshot, gap_us: f64) {
    assert!(
        stats.queue_wait_p50_us < gap_us / 10.0,
        "median queue wait {:.0} µs against a {gap_us:.0} µs idle gap",
        stats.queue_wait_p50_us
    );
    assert!(
        stats.queue_wait_p99_us < gap_us,
        "p99 queue wait {:.0} µs: some rounds sat out the gap",
        stats.queue_wait_p99_us
    );
}

#[test]
fn two_closed_loop_clients_coalesce_without_sitting_out_the_gap() {
    let (stats, gap_us) = closed_loop_pair();
    assert!(
        stats.mean_batch_fill >= 1.9,
        "closed-loop pairs should share a pass: fill {:.2} over {} passes",
        stats.mean_batch_fill,
        stats.passes
    );
    assert_no_round_sat_out_the_gap(&stats, gap_us);
}
