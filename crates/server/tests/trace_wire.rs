//! Protocol v3 request tracing over real loopback sockets:
//!
//! * **Bit-identity** — a traced `KnnV2` answers exactly what the
//!   untraced one answers (neighbors, flags, cycles), through a flat
//!   server *and* a router over three remote shard servers;
//!   the only difference is the trailer.
//! * **Self-consistency** — every report satisfies
//!   `wall = gather + merge`, every span fits inside the gather
//!   window, spans are sorted by shard, flat spans carry the batch
//!   fill while router spans carry zero.
//! * **Slow-query ring** — traced requests land in the ring (at a zero
//!   threshold), `GetTraces` drains destructively oldest-first, and
//!   the request is version-gated.
//! * **Attribution** — a hedged shard's span is flagged
//!   `HEDGE_FIRED | HEDGE_WON`; an ejected shard's span is flagged
//!   `FAST_DEGRADED | FAILED` with zero times.

use fbp_server::{
    route, serve, Client, ClientError, ErrorCode, FailurePolicy, FaultMode, FaultPlan, FaultRule,
    HealthConfig, HedgeConfig, RouterConfig, ServerConfig, ServerHandle, TraceReport, SPAN_FAILED,
    SPAN_FAST_DEGRADED, SPAN_HEDGE_FIRED, SPAN_HEDGE_WON,
};
use fbp_vecdb::{Collection, CollectionBuilder, Neighbor};
use feedbackbypass::{BypassConfig, FeedbackBypass, QuerySpec, RocchioWeights, SharedBypass};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 6;
const N: usize = 600;
const SHARDS: usize = 3;

fn collection() -> Collection {
    let mut state = 0xA076_1D64_78BD_642Fu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for _ in 0..N {
        let v: Vec<f64> = (0..DIM).map(|_| next()).collect();
        b.push_unlabelled(&v).unwrap();
    }
    b.build()
}

fn shared_module() -> SharedBypass {
    SharedBypass::new(FeedbackBypass::for_histograms(DIM, BypassConfig::default()).unwrap())
}

fn query(i: usize) -> Vec<f64> {
    (0..DIM)
        .map(|d| (((i * 31 + d * 7) as f64) * 0.37).sin().abs())
        .collect()
}

fn spec(coll: &Collection, i: usize) -> QuerySpec {
    let positives: Vec<Vec<f64>> = (0..2)
        .map(|j| coll.vector((i * 17 + j * 5) % coll.len()).to_vec())
        .collect();
    QuerySpec::builder(query(i))
        .positives(positives)
        .rocchio(RocchioWeights::new(1.0, 0.5, 0.0))
        .build()
        .unwrap()
}

fn assert_neighbors_identical(got: &[Neighbor], want: &[Neighbor], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: neighbor count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.index, w.index, "{ctx}: index");
        assert_eq!(
            g.dist.to_bits(),
            w.dist.to_bits(),
            "{ctx}: distance bits for row {}",
            g.index
        );
    }
}

/// The stage accounting every report must satisfy by construction:
/// one wall clock split exactly into gather + merge, every span's
/// queue + busy inside the gather window, spans sorted by shard.
fn assert_self_consistent(trace: &TraceReport, ctx: &str) {
    assert_eq!(
        trace.wall_ns,
        trace.gather_ns + trace.merge_ns,
        "{ctx}: wall must equal gather + merge exactly"
    );
    for span in &trace.spans {
        assert!(
            span.queue_ns + span.busy_ns <= trace.gather_ns,
            "{ctx}: shard {} span ({} + {}) escapes the {}ns gather window",
            span.shard,
            span.queue_ns,
            span.busy_ns,
            trace.gather_ns
        );
    }
    let mut shards: Vec<u32> = trace.spans.iter().map(|s| s.shard).collect();
    let sorted = {
        let mut s = shards.clone();
        s.sort_unstable();
        s
    };
    assert_eq!(shards, sorted, "{ctx}: spans must be sorted by shard");
    shards.dedup();
    assert_eq!(
        shards.len(),
        trace.spans.len(),
        "{ctx}: at most one span per shard"
    );
}

/// Flat server: a traced round is bit-identical to the untraced one,
/// the trailer is self-consistent, its one span (shard 0, the
/// dispatcher's pass) carries a real batch fill, and traced requests
/// land in the ring while untraced ones never do.
#[test]
fn flat_traced_reply_is_identical_and_self_consistent() {
    let coll = Arc::new(collection());
    let cfg = ServerConfig {
        slow_trace_threshold: Duration::ZERO,
        ..Default::default()
    };
    let handle = serve("127.0.0.1:0", Arc::clone(&coll), shared_module(), cfg).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert!(client.hello().unwrap() >= 3, "server must speak v3");

    // Fresh queries anchor their sessions from the same shared module,
    // so two sessions asking the same spec must answer identically.
    let (plain, _) = client.open_session().unwrap();
    let (traced, _) = client.open_session().unwrap();

    for i in 0..4 {
        let s = spec(&coll, i);
        let a = client.knn_spec(plain, 10, &s).unwrap();
        let b = client.knn_spec_traced(traced, 10, &s).unwrap();
        assert_neighbors_identical(&b.neighbors, &a.neighbors, &format!("q{i}"));
        assert_eq!(a.done, b.done, "q{i}: done");
        assert_eq!(a.converged, b.converged, "q{i}: converged");
        assert_eq!(a.cycles, b.cycles, "q{i}: cycles");
        assert!(a.trace.is_none(), "q{i}: untraced reply grew a trailer");
        let trace = b.trace.expect("traced reply must carry a trailer");
        assert_self_consistent(&trace, &format!("q{i}"));
        assert_eq!(trace.spans.len(), 1, "q{i}: one span, the dispatcher's");
        assert_eq!(trace.spans[0].shard, 0, "q{i}: a server is shard 0");
        for span in &trace.spans {
            assert!(
                span.batch_fill >= 1,
                "q{i}: a flat span rode a real batch (fill {})",
                span.batch_fill
            );
            assert_eq!(span.flags, 0, "q{i}: healthy flat serving sets no flags");
        }
    }

    // Every traced request (threshold zero) is in the ring; the drain
    // is destructive and oldest-first; untraced requests never record.
    let first = client.get_traces(2).unwrap();
    assert_eq!(first.len(), 2);
    let rest = client.get_traces(0).unwrap();
    assert_eq!(rest.len(), 2, "4 traced requests total");
    let mut ids: Vec<u64> = first.iter().chain(&rest).map(|t| t.trace_id).collect();
    let sorted = {
        let mut s = ids.clone();
        s.sort_unstable();
        s
    };
    assert_eq!(ids, sorted, "drain order is oldest first");
    ids.dedup();
    assert_eq!(ids.len(), 4, "consecutive drains are disjoint");
    assert!(
        client.get_traces(0).unwrap().is_empty(),
        "the ring was fully drained"
    );

    client.knn_spec(plain, 10, &spec(&coll, 9)).unwrap();
    assert!(
        client.get_traces(0).unwrap().is_empty(),
        "untraced requests must never record a trace"
    );

    // Scan attribution surfaces in the wire stats: every request rode
    // a pass that streamed the whole collection at least once.
    let stats = handle.stats();
    assert!(
        stats.scan_rows_visited >= N as u64,
        "flat server streamed rows, got {}",
        stats.scan_rows_visited
    );
    handle.shutdown();
}

/// `GetTraces` (and the trace bit) are v3 surface: an un-negotiated
/// connection is refused with `BadRequest`.
#[test]
fn get_traces_requires_negotiation() {
    let coll = Arc::new(collection());
    let handle = serve(
        "127.0.0.1:0",
        Arc::clone(&coll),
        shared_module(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    match client.get_traces(0) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest before Hello, got {other:?}"),
    }
    handle.shutdown();
}

/// One shard server per contiguous slice plus a router over them.
fn start_cluster(
    coll: &Arc<Collection>,
    cfg: RouterConfig,
) -> (Vec<ServerHandle>, fbp_server::RouterHandle) {
    let mut handles = Vec::new();
    let mut addrs: Vec<SocketAddr> = Vec::new();
    for i in 0..SHARDS {
        let (start, end) = (i * coll.len() / SHARDS, (i + 1) * coll.len() / SHARDS);
        let slice = Arc::new(coll.slice_rows(start, end));
        let shard_cfg = ServerConfig {
            row_offset: start,
            ..Default::default()
        };
        let handle = serve("127.0.0.1:0", slice, shared_module(), shard_cfg).unwrap();
        addrs.push(handle.local_addr());
        handles.push(handle);
    }
    let router = route(
        "127.0.0.1:0",
        &addrs,
        Arc::clone(coll),
        shared_module(),
        cfg,
    )
    .unwrap();
    (handles, router)
}

/// Router tier: traced ≡ untraced bit-identity against one flat
/// server over the whole collection, self-consistent trailers whose
/// spans carry downstream round trips (fill 0), and a working ring.
/// Hedging is off: a leg that is merely late on a loaded host would
/// otherwise fire a hedge and set a span flag, and this scenario
/// asserts healthy legs set none (hedges have their own test,
/// `hedge_attribution_lands_in_the_span_flags`).
#[test]
fn router_traced_reply_is_identical_and_self_consistent() {
    let coll = Arc::new(collection());
    let (_shards, router) = start_cluster(
        &coll,
        RouterConfig {
            slow_trace_threshold: Duration::ZERO,
            hedge: None,
            ..Default::default()
        },
    );
    let flat = serve(
        "127.0.0.1:0",
        Arc::clone(&coll),
        shared_module(),
        ServerConfig::default(),
    )
    .unwrap();

    let mut via_router = Client::connect(router.local_addr()).unwrap();
    let mut via_flat = Client::connect(flat.local_addr()).unwrap();
    assert!(via_router.hello().unwrap() >= 3);
    assert!(via_flat.hello().unwrap() >= 3);
    let (rs, _) = via_router.open_session().unwrap();
    let (fs, _) = via_flat.open_session().unwrap();

    for i in 0..4 {
        let s = spec(&coll, i);
        let a = via_flat.knn_spec(fs, 10, &s).unwrap();
        let b = via_router.knn_spec_traced(rs, 10, &s).unwrap();
        assert_neighbors_identical(
            &b.neighbors,
            &a.neighbors,
            &format!("q{i}: traced router vs flat"),
        );
        assert_eq!(a.done, b.done, "q{i}: done");
        assert_eq!(a.cycles, b.cycles, "q{i}: cycles");
        assert!(!b.degraded, "q{i}: healthy cluster");
        let trace = b.trace.expect("traced router reply must carry a trailer");
        assert_self_consistent(&trace, &format!("q{i}"));
        assert_eq!(trace.spans.len(), SHARDS, "q{i}: one span per downstream");
        for span in &trace.spans {
            assert_eq!(span.batch_fill, 0, "q{i}: router legs report no batch fill");
            assert_eq!(span.flags, 0, "q{i}: healthy legs set no flags");
        }
    }
    let drained = via_router.get_traces(0).unwrap();
    assert_eq!(drained.len(), 4, "every traced request landed in the ring");

    // Scan attribution lives on the tier that scans: each shard server
    // streamed its slice, while the router — which scans nothing —
    // reports every scan counter as zero.
    let rstats = router.stats();
    assert_eq!(rstats.scan_rows_visited, 0, "a router never scans");
    assert_eq!(rstats.scan_blocks_abandoned, 0);
    assert_eq!(rstats.scan_seed_prunes, 0);
    for (i, shard) in _shards.iter().enumerate() {
        assert!(
            shard.stats().scan_rows_visited > 0,
            "shard server {i} streamed its slice"
        );
    }
    router.shutdown();
    flat.shutdown();
}

/// A hedged straggler shows up in the trailer: the overtaken shard's
/// span is flagged `HEDGE_FIRED | HEDGE_WON` and the reply is still
/// full and fast.
#[test]
fn hedge_attribution_lands_in_the_span_flags() {
    let coll = Arc::new(collection());
    let delay = Duration::from_millis(400);
    let plan = FaultPlan::new(9).rule(FaultRule {
        shard: Some(0),
        after_calls: 0,
        call_limit: Some(1),
        probability: 1.0,
        mode: FaultMode::Delay(delay),
    });
    let (_shards, router) = start_cluster(
        &coll,
        RouterConfig {
            shard_timeout: Duration::from_secs(2),
            policy: FailurePolicy::Strict,
            hedge: Some(HedgeConfig {
                min_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(10),
            }),
            faults: Some(Arc::new(plan)),
            slow_trace_threshold: Duration::ZERO,
            ..Default::default()
        },
    );
    let mut client = Client::connect(router.local_addr()).unwrap();
    assert!(client.hello().unwrap() >= 3);
    let (session, _) = client.open_session().unwrap();

    let started = Instant::now();
    let reply = client
        .knn_spec_traced(session, 10, &spec(&coll, 5))
        .unwrap();
    assert!(
        started.elapsed() < delay,
        "the hedge should beat the straggler"
    );
    assert!(!reply.degraded, "the hedge answers in full");
    let trace = reply.trace.expect("traced reply");
    assert_self_consistent(&trace, "hedged");
    let span = trace
        .spans
        .iter()
        .find(|s| s.shard == 0)
        .expect("the hedged shard has a span");
    assert_ne!(span.flags & SPAN_HEDGE_FIRED, 0, "hedge fired: {span:?}");
    assert_ne!(span.flags & SPAN_HEDGE_WON, 0, "hedge won: {span:?}");
    assert_eq!(span.flags & SPAN_FAILED, 0, "the winning leg succeeded");
    router.shutdown();
}

/// After the breaker ejects a black-holed shard, a traced degraded
/// reply attributes it: the ejected shard's span is
/// `FAST_DEGRADED | FAILED` with zero times (no downstream work was
/// attempted), and the surviving spans are ordinary.
#[test]
fn fast_degrade_attribution_lands_in_the_span_flags() {
    let coll = Arc::new(collection());
    let timeout = Duration::from_millis(200);
    let plan = FaultPlan::new(17).rule(FaultRule::always(1, FaultMode::BlackHole));
    let (_shards, router) = start_cluster(
        &coll,
        RouterConfig {
            shard_timeout: timeout,
            policy: FailurePolicy::Degraded { min_shards: 1 },
            hedge: None,
            faults: Some(Arc::new(plan)),
            health: HealthConfig {
                consecutive_failures: 2,
                probe_interval: Duration::from_secs(60),
                ..Default::default()
            },
            slow_trace_threshold: Duration::ZERO,
            ..Default::default()
        },
    );
    let mut client = Client::connect(router.local_addr()).unwrap();
    assert!(client.hello().unwrap() >= 3);
    let (session, _) = client.open_session().unwrap();

    // Trip the breaker: these pay the shard timeout, and their traces
    // record the timed-out leg as a FAILED span with real elapsed time.
    for i in 0..2 {
        let reply = client
            .knn_spec_traced(session, 10, &spec(&coll, i))
            .unwrap();
        assert!(reply.degraded, "black-holed request {i} degrades");
        let trace = reply.trace.expect("traced reply");
        assert_self_consistent(&trace, &format!("timeout {i}"));
        let span = trace.spans.iter().find(|s| s.shard == 1).unwrap();
        assert_ne!(span.flags & SPAN_FAILED, 0, "timed-out leg: {span:?}");
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    while router.stats().ejections() < 1 {
        assert!(Instant::now() < deadline, "breaker never tripped");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Post-ejection: the shard is skipped up front and the span says so.
    let reply = client
        .knn_spec_traced(session, 10, &spec(&coll, 7))
        .unwrap();
    assert!(reply.degraded);
    assert_eq!(reply.missing_shards, vec![1]);
    let trace = reply.trace.expect("traced reply");
    assert_self_consistent(&trace, "fast degrade");
    assert_eq!(trace.spans.len(), SHARDS, "every shard is accounted for");
    let ejected = trace.spans.iter().find(|s| s.shard == 1).unwrap();
    assert_ne!(
        ejected.flags & SPAN_FAST_DEGRADED,
        0,
        "ejected span: {ejected:?}"
    );
    assert_ne!(ejected.flags & SPAN_FAILED, 0, "ejected span: {ejected:?}");
    assert_eq!(ejected.queue_ns, 0, "no downstream work was attempted");
    assert_eq!(ejected.busy_ns, 0, "no downstream work was attempted");
    for span in trace.spans.iter().filter(|s| s.shard != 1) {
        assert_eq!(span.flags, 0, "survivors are ordinary: {span:?}");
    }
    router.shutdown();
}
