//! Bit-identical wire serving: results served over loopback TCP — under
//! any batch mix the micro-batcher happens to form — must equal the
//! in-process answers exactly, distances included.
//!
//! Two pins:
//!
//! * concurrent sessions hammering `Knn` (no feedback) must each get
//!   exactly what a per-query [`LinearScan`] answers, regardless of how
//!   their requests coalesced;
//! * a full interactive feedback loop over the wire must reproduce the
//!   in-process concurrent-sessions scenario (`fbp_eval::sessions`)
//!   record-for-record: same cycles, same convergence, same final
//!   precision — the server runs the identical `FeedbackStepper`
//!   transition against the identical shared module state.

use fbp_eval::sessions::{run_sessions, ServingMode, SessionsOptions};
use fbp_eval::stream::query_order;
use fbp_imagegen::{DatasetConfig, SyntheticDataset};
use fbp_server::{route, serve, Client, FailurePolicy, RouterConfig, ServerConfig, ServerHandle};
use fbp_vecdb::{
    Collection, CollectionBuilder, KnnEngine, LinearScan, ScanMode, WeightedEuclidean,
};
use feedbackbypass::{BypassConfig, FeedbackBypass, FeedbackConfig, SharedBypass};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn clustered_collection(n: usize, dim: usize) -> Collection {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for _ in 0..n {
        let v: Vec<f64> = (0..dim).map(|_| next()).collect();
        b.push_unlabelled(&v).unwrap();
    }
    b.build()
}

fn shared_module(dim: usize) -> SharedBypass {
    SharedBypass::new(FeedbackBypass::for_histograms(dim, BypassConfig::default()).unwrap())
}

/// Concurrent burst traffic: every reply must equal the per-query
/// LinearScan answer bit-for-bit, whatever batches formed — and with
/// everyone bursting through a wide `max_wait`, batches MUST form.
#[test]
fn concurrent_batch_mix_matches_linear_scan() {
    const DIM: usize = 16;
    const THREADS: usize = 8;
    const QUERIES_PER_THREAD: usize = 12;
    let coll = Arc::new(clustered_collection(1500, DIM));
    let cfg = ServerConfig {
        max_batch: THREADS,
        max_wait: Duration::from_millis(500),
        ..Default::default()
    };
    let handle = serve("127.0.0.1:0", Arc::clone(&coll), shared_module(DIM), cfg).unwrap();
    let addr = handle.local_addr();

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let coll = Arc::clone(&coll);
            let barrier = &barrier;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let (session, dim) = client.open_session().unwrap();
                assert_eq!(dim as usize, DIM);
                let single = LinearScan::with_mode(&coll, ScanMode::Batched);
                // Everyone fires the first round together so the batcher
                // has real mixes to form; later rounds drift naturally.
                barrier.wait();
                for i in 0..QUERIES_PER_THREAD {
                    let q: Vec<f64> = (0..DIM)
                        .map(|d| (((t * 37 + i * 13 + d * 7) as f64) * 0.29).sin().abs())
                        .collect();
                    let k = [1u32, 7, 50][i % 3];
                    let reply = client.knn(session, k, &q).unwrap();
                    // Out-of-domain queries search under the uniform
                    // metric — the documented fallback.
                    let w = WeightedEuclidean::new(vec![1.0; DIM]).unwrap();
                    let expect = single.knn(&q, k as usize, &w);
                    assert_eq!(
                        reply.neighbors, expect,
                        "thread {t} query {i}: wire answer diverged from LinearScan"
                    );
                }
                client.close_session(session).unwrap();
            });
        }
    });

    let stats = handle.stats();
    assert_eq!(
        stats.requests,
        (THREADS * QUERIES_PER_THREAD) as u64,
        "every request must pass through the batcher"
    );
    assert!(
        stats.mean_batch_fill > 1.0,
        "the synchronized burst must have coalesced (fill {})",
        stats.mean_batch_fill
    );
    assert_eq!(stats.protocol_errors, 0);
    handle.shutdown();
}

/// The full interactive loop over the wire reproduces the in-process
/// sessions scenario record-for-record.
#[test]
fn wire_feedback_loop_matches_in_process_sessions() {
    let ds = SyntheticDataset::generate(DatasetConfig::small());
    let k = 10usize;
    let queries_per_session = 8usize;
    let seed = 0xFEED;

    // In-process reference: one session, coalesced serving (with one
    // session the per-round batches are singletons, so this is also the
    // LinearScan answer — the two in-process modes are proven equal).
    let reference = run_sessions(
        &ds,
        &SessionsOptions {
            n_sessions: 1,
            queries_per_session,
            k,
            serving: ServingMode::Coalesced(ScanMode::Batched),
            seed,
            ..Default::default()
        },
    );

    // Wire run: fresh identical module, same collection, same queries in
    // the same order, judged by the same category oracle client-side.
    let coll = Arc::new(ds.collection.clone());
    let cfg = ServerConfig {
        feedback: FeedbackConfig {
            k,
            ..Default::default()
        },
        ..Default::default()
    };
    let handle = serve(
        "127.0.0.1:0",
        Arc::clone(&coll),
        shared_module(coll.dim()),
        cfg,
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let (session, _) = client.open_session().unwrap();

    let order = query_order(&ds, seed);
    let mut records: Vec<(usize, bool, f64)> = Vec::new();
    for qidx in order.iter().take(queries_per_session) {
        let q = coll.vector(*qidx).to_vec();
        let category = coll.label(*qidx);
        let (cycles, converged, final_precision) = loop {
            let reply = client.knn(session, k as u32, &q).unwrap();
            let precision = reply
                .neighbors
                .iter()
                .filter(|n| coll.label(n.index as usize) == category)
                .count() as f64
                / k as f64;
            if reply.done {
                break (reply.cycles as usize, reply.converged, precision);
            }
            let relevant: Vec<u32> = reply
                .neighbors
                .iter()
                .map(|n| n.index)
                .filter(|&id| coll.label(id as usize) == category)
                .collect();
            let ack = client.feedback(session, &relevant).unwrap();
            if ack.done {
                break (ack.cycles as usize, ack.converged, precision);
            }
        };
        records.push((cycles, converged, final_precision));
    }

    let expected: Vec<(usize, bool, f64)> = reference.per_session[0]
        .iter()
        .map(|r| (r.cycles, r.converged, r.final_precision))
        .collect();
    assert_eq!(
        records, expected,
        "wire loop diverged from the in-process serving scenario"
    );
    assert_eq!(reference.searches, client.stats().unwrap().requests);
    handle.shutdown();
}

/// Sharded serving — a router over S shard servers, one contiguous row
/// slice each — answers bit-identically to the flat per-query
/// LinearScan, under concurrent request mixes, for slice counts
/// spanning the edges (slices shorter than k, more slices than
/// clients).
#[test]
fn sharded_serving_matches_linear_scan() {
    const DIM: usize = 16;
    const THREADS: usize = 6;
    const N: usize = 700;
    let coll = Arc::new(clustered_collection(N, DIM));
    for shards in [2usize, 3, 16] {
        let servers: Vec<ServerHandle> = (0..shards)
            .map(|i| {
                let (start, end) = (i * N / shards, (i + 1) * N / shards);
                let cfg = ServerConfig {
                    row_offset: start,
                    ..Default::default()
                };
                let slice = Arc::new(coll.slice_rows(start, end));
                serve("127.0.0.1:0", slice, shared_module(DIM), cfg).unwrap()
            })
            .collect();
        let addrs: Vec<_> = servers.iter().map(ServerHandle::local_addr).collect();
        let cfg = RouterConfig {
            shard_timeout: Duration::from_secs(5),
            policy: FailurePolicy::Strict,
            ..Default::default()
        };
        let router = route(
            "127.0.0.1:0",
            &addrs,
            Arc::clone(&coll),
            shared_module(DIM),
            cfg,
        );
        let router = router.unwrap();
        let addr = router.local_addr();
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let coll = Arc::clone(&coll);
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let (session, _) = client.open_session().unwrap();
                    let single = LinearScan::with_mode(&coll, ScanMode::Batched);
                    barrier.wait();
                    for i in 0..8 {
                        let q: Vec<f64> = (0..DIM)
                            .map(|d| (((t * 41 + i * 17 + d * 5) as f64) * 0.31).sin().abs())
                            .collect();
                        let k = [1u32, 7, 50][i % 3];
                        let reply = client.knn(session, k, &q).unwrap();
                        let w = WeightedEuclidean::new(vec![1.0; DIM]).unwrap();
                        assert!(!reply.degraded);
                        assert_eq!(
                            reply.neighbors,
                            single.knn(&q, k as usize, &w),
                            "shards={shards} thread {t} query {i}: sharded wire answer diverged"
                        );
                    }
                    client.close_session(session).unwrap();
                });
            }
        });
        // The stats surface reports the shard topology, and every shard
        // server scanned its slice.
        let stats = router.stats();
        assert_eq!(stats.shards, shards as u64);
        assert_eq!(stats.requests, (THREADS * 8) as u64);
        assert_eq!(stats.protocol_errors, 0);
        router.shutdown();
        for (i, server) in servers.into_iter().enumerate() {
            let stats = server.stats();
            assert_eq!(stats.shards, 1);
            assert!(
                stats.scan_rows_visited > 0,
                "shards={shards}: shard {i} scanned"
            );
            server.shutdown();
        }
    }
}

/// k edge cases ride the same coalesced path.
#[test]
fn k_edges_over_the_wire() {
    const DIM: usize = 8;
    let coll = Arc::new(clustered_collection(60, DIM));
    let handle = serve(
        "127.0.0.1:0",
        Arc::clone(&coll),
        shared_module(DIM),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let (session, _) = client.open_session().unwrap();
    let q = vec![0.5; DIM];
    // k = 0 → empty; k far beyond the collection → clamped to len.
    assert!(client.knn(session, 0, &q).unwrap().neighbors.is_empty());
    let all = client.knn(session, u32::MAX, &q).unwrap();
    assert_eq!(all.neighbors.len(), 60);
    handle.shutdown();
}
