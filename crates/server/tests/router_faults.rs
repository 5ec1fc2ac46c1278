//! The router tier's two headline claims, pinned over real loopback
//! sockets:
//!
//! * **healthy path** — a router scattering to three remote shard
//!   servers answers bit-identically to one flat server over the whole
//!   collection, through full interactive feedback loops;
//! * **partial failure** — under injected downstream faults every
//!   request resolves to one of the documented outcomes (a healed
//!   retry, a hedged answer, a degraded merge equal to the
//!   surviving-shard oracle, or a typed `ShardUnavailable` error),
//!   always within a bounded time, with the robustness counters
//!   recording what happened.

use fbp_server::{
    route, serve, Client, ClientError, ErrorCode, FailurePolicy, FaultMode, FaultPlan, FaultRule,
    HealthConfig, HealthState, HedgeConfig, RouterConfig, RouterHandle, ServerConfig, ServerHandle,
};
use fbp_vecdb::{
    Collection, CollectionBuilder, KnnEngine, LinearScan, Neighbor, ScanMode, WeightedEuclidean,
};
use feedbackbypass::{BypassConfig, FeedbackBypass, SharedBypass};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 6;
const N: usize = 600;
const SHARDS: usize = 3;

fn collection() -> Collection {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
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

/// Row range shard `i` serves: `SHARDS` balanced contiguous slices.
fn shard_range(len: usize, i: usize) -> (usize, usize) {
    (i * len / SHARDS, (i + 1) * len / SHARDS)
}

/// Start one shard server per slice, each with its global `row_offset`.
fn start_shards(coll: &Arc<Collection>) -> (Vec<ServerHandle>, Vec<SocketAddr>) {
    start_shards_with(coll, ServerConfig::default())
}

/// [`start_shards`] with every shard configured from `base` (its
/// `row_offset` overridden per slice).
fn start_shards_with(
    coll: &Arc<Collection>,
    base: ServerConfig,
) -> (Vec<ServerHandle>, Vec<SocketAddr>) {
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..SHARDS {
        let (start, end) = shard_range(coll.len(), i);
        let slice = Arc::new(coll.slice_rows(start, end));
        let cfg = ServerConfig {
            row_offset: start,
            ..base.clone()
        };
        let handle = serve("127.0.0.1:0", slice, shared_module(), cfg).unwrap();
        addrs.push(handle.local_addr());
        handles.push(handle);
    }
    (handles, addrs)
}

fn start_router(
    addrs: &[SocketAddr],
    coll: &Arc<Collection>,
    bypass: SharedBypass,
    policy: FailurePolicy,
    shard_timeout: Duration,
    faults: Option<FaultPlan>,
) -> RouterHandle {
    let cfg = RouterConfig {
        shard_timeout,
        policy,
        hedge: Some(HedgeConfig::default()),
        faults: faults.map(Arc::new),
        ..Default::default()
    };
    route("127.0.0.1:0", addrs, Arc::clone(coll), bypass, cfg).unwrap()
}

/// Poll `cond` against the router's stats until it holds or `budget`
/// runs out; returns whether it held.
fn wait_for(
    router: &RouterHandle,
    budget: Duration,
    cond: impl Fn(&fbp_server::StatsSnapshot) -> bool,
) -> bool {
    let deadline = Instant::now() + budget;
    loop {
        if cond(&router.stats()) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn query(i: usize) -> Vec<f64> {
    (0..DIM)
        .map(|d| (((i * 31 + d * 7) as f64) * 0.37).sin().abs())
        .collect()
}

/// A normalized (sums-to-one) query — the shape a histogram-domain
/// module accepts as an insert anchor.
fn hist(i: usize) -> Vec<f64> {
    let mut v = query(i);
    let sum: f64 = v.iter().sum();
    for x in &mut v {
        *x /= sum;
    }
    v
}

/// Exact k-NN over the union of the surviving shards' rows: per-slice
/// linear scans with globally-offset indices, merged ascending
/// `(dist, index)` — the answer a degraded gather must equal.
fn surviving_oracle(coll: &Collection, surviving: &[usize], q: &[f64], k: usize) -> Vec<Neighbor> {
    let metric = WeightedEuclidean::new(vec![1.0; DIM]).unwrap();
    let mut merged: Vec<Neighbor> = Vec::new();
    for &s in surviving {
        let (start, end) = shard_range(coll.len(), s);
        let slice = coll.slice_rows(start, end);
        let scan = LinearScan::with_mode(&slice, ScanMode::Batched);
        for n in scan.knn(q, k, &metric) {
            merged.push(Neighbor {
                index: n.index + start as u32,
                dist: n.dist,
            });
        }
    }
    merged.sort_by(|a, b| {
        a.dist
            .partial_cmp(&b.dist)
            .unwrap()
            .then(a.index.cmp(&b.index))
    });
    merged.truncate(k);
    merged
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

/// Healthy-path pin: a router over three remote shard servers is
/// bit-identical to one flat server over the whole collection, through
/// fresh queries and full feedback loops (same flags, cycles,
/// neighbors, and feedback acks round for round).
#[test]
fn healthy_router_matches_one_flat_server() {
    let coll = Arc::new(collection());
    let (_shards, addrs) = start_shards(&coll);
    let router = start_router(
        &addrs,
        &coll,
        shared_module(),
        FailurePolicy::Strict,
        Duration::from_secs(2),
        None,
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
    let (rs, rdim) = via_router.open_session().unwrap();
    let (fs, fdim) = via_flat.open_session().unwrap();
    assert_eq!(rdim, fdim);

    for i in 0..6 {
        let q = query(i);
        let k = 10u32;
        // Interactive loop: search, judge, repeat until the session
        // reports the query done — both deployments must walk the exact
        // same trajectory.
        for round in 0..8 {
            let a = via_router.knn(rs, k, &q).unwrap();
            let b = via_flat.knn(fs, k, &q).unwrap();
            assert_neighbors_identical(&a.neighbors, &b.neighbors, &format!("q{i} round {round}"));
            assert_eq!(a.done, b.done, "q{i} round {round}: done");
            assert_eq!(a.converged, b.converged, "q{i} round {round}: converged");
            assert_eq!(a.cycles, b.cycles, "q{i} round {round}: cycles");
            assert!(!a.degraded, "healthy router must never degrade");
            assert!(a.missing_shards.is_empty());
            if a.done {
                break;
            }
            // Judge a deterministic subset of the current results.
            let relevant: Vec<u32> = a
                .neighbors
                .iter()
                .filter(|n| n.index % 3 == 0)
                .map(|n| n.index)
                .collect();
            let fa = via_router.feedback(rs, &relevant).unwrap();
            let fb = via_flat.feedback(fs, &relevant).unwrap();
            assert_eq!(fa.done, fb.done, "q{i} round {round}: feedback done");
            assert_eq!(fa.converged, fb.converged);
            assert_eq!(fa.cycles, fb.cycles);
            if fa.done {
                break;
            }
        }
    }
    let stats = router.stats();
    assert_eq!(stats.shards, SHARDS as u64);
    assert!(stats.requests > 0);
    assert_eq!(stats.degraded_replies, 0);
    router.shutdown();
    flat.shutdown();
}

/// A black-holed shard under `Degraded { min_shards: 1 }`: the reply is
/// flagged degraded, names the missing shard, equals the
/// surviving-shard oracle exactly, arrives within a small multiple of
/// the shard timeout, and the timeout / degraded counters record it.
#[test]
fn degraded_reply_matches_surviving_shard_oracle() {
    let coll = Arc::new(collection());
    let (_shards, addrs) = start_shards(&coll);
    let timeout = Duration::from_millis(200);
    let plan = FaultPlan::new(11).rule(FaultRule::always(1, FaultMode::BlackHole));
    let router = start_router(
        &addrs,
        &coll,
        shared_module(),
        FailurePolicy::Degraded { min_shards: 1 },
        timeout,
        Some(plan),
    );

    let mut client = Client::connect(router.local_addr()).unwrap();
    let (session, _) = client.open_session().unwrap();
    let q = query(3);
    let started = Instant::now();
    let reply = client.knn(session, 10, &q).unwrap();
    let elapsed = started.elapsed();
    assert!(reply.degraded, "shard 1 was black-holed");
    assert_eq!(reply.missing_shards, vec![1]);
    let oracle = surviving_oracle(&coll, &[0, 2], &q, 10);
    assert_neighbors_identical(&reply.neighbors, &oracle, "degraded merge");
    assert!(
        elapsed < timeout * 5,
        "degraded reply took {elapsed:?} against a {timeout:?} shard timeout"
    );

    let stats = router.stats();
    assert!(stats.downstream_timeouts >= 1, "timeouts: {stats:?}");
    assert_eq!(stats.degraded_replies, 1, "degraded replies: {stats:?}");
    router.shutdown();
}

/// The same black hole under `Strict`: a typed `ShardUnavailable`
/// error, still bounded in time — never a hang, never a silently
/// narrowed answer.
#[test]
fn strict_policy_refuses_with_typed_error() {
    let coll = Arc::new(collection());
    let (_shards, addrs) = start_shards(&coll);
    let timeout = Duration::from_millis(200);
    let plan = FaultPlan::new(5).rule(FaultRule::always(2, FaultMode::BlackHole));
    let router = start_router(
        &addrs,
        &coll,
        shared_module(),
        FailurePolicy::Strict,
        timeout,
        Some(plan),
    );

    let mut client = Client::connect(router.local_addr()).unwrap();
    let (session, _) = client.open_session().unwrap();
    let started = Instant::now();
    let outcome = client.knn(session, 10, &query(0));
    let elapsed = started.elapsed();
    match outcome {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::ShardUnavailable);
            assert!(message.contains("[2]"), "error names the shard: {message}");
        }
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }
    assert!(elapsed < timeout * 5, "strict refusal took {elapsed:?}");
    router.shutdown();
}

/// One-shot wire damage (dropped reply, truncated reply, socket cut
/// mid-request) heals by retry: the answer is full, undegraded, equal
/// to the healthy oracle, and the retry counter shows the recovery.
#[test]
fn wire_faults_heal_by_retry() {
    let coll = Arc::new(collection());
    let (_shards, addrs) = start_shards(&coll);
    let q = query(7);
    let oracle = surviving_oracle(&coll, &[0, 1, 2], &q, 10);
    for mode in [
        FaultMode::DropReply,
        FaultMode::TruncateReply,
        FaultMode::CloseAtByte(9),
    ] {
        let plan = FaultPlan::new(3).rule(FaultRule {
            shard: Some(1),
            after_calls: 0,
            call_limit: Some(1),
            probability: 1.0,
            mode,
        });
        let router = start_router(
            &addrs,
            &coll,
            shared_module(),
            FailurePolicy::Strict,
            Duration::from_secs(2),
            Some(plan),
        );
        let mut client = Client::connect(router.local_addr()).unwrap();
        let (session, _) = client.open_session().unwrap();
        let reply = client.knn(session, 10, &q).unwrap();
        assert!(!reply.degraded, "{mode:?} must heal by retry, not degrade");
        assert_neighbors_identical(&reply.neighbors, &oracle, &format!("{mode:?}"));
        let stats = router.stats();
        assert!(
            stats.downstream_retries + stats.downstream_reconnects >= 1,
            "{mode:?} left no robustness trace: {stats:?}"
        );
        router.shutdown();
    }
}

/// A straggling shard (delayed well past the hedge window) is overtaken
/// by a hedged duplicate: the reply is full and fast, and the hedge
/// counters record a fired and a won hedge.
#[test]
fn hedge_overtakes_straggler() {
    let coll = Arc::new(collection());
    let (_shards, addrs) = start_shards(&coll);
    let delay = Duration::from_millis(400);
    let plan = FaultPlan::new(9).rule(FaultRule {
        shard: Some(0),
        after_calls: 0,
        call_limit: Some(1),
        probability: 1.0,
        mode: FaultMode::Delay(delay),
    });
    let cfg = RouterConfig {
        shard_timeout: Duration::from_secs(2),
        policy: FailurePolicy::Strict,
        hedge: Some(HedgeConfig {
            min_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(10),
        }),
        faults: Some(Arc::new(plan)),
        ..Default::default()
    };
    let router = route(
        "127.0.0.1:0",
        &addrs,
        Arc::clone(&coll),
        shared_module(),
        cfg,
    )
    .unwrap();

    let mut client = Client::connect(router.local_addr()).unwrap();
    let (session, _) = client.open_session().unwrap();
    let q = query(5);
    let started = Instant::now();
    let reply = client.knn(session, 10, &q).unwrap();
    let elapsed = started.elapsed();
    assert!(!reply.degraded, "the hedge answers in full");
    let oracle = surviving_oracle(&coll, &[0, 1, 2], &q, 10);
    assert_neighbors_identical(&reply.neighbors, &oracle, "hedged reply");
    assert!(
        elapsed < delay,
        "hedge should beat the {delay:?} straggler, took {elapsed:?}"
    );
    let stats = router.stats();
    assert!(stats.hedges_fired >= 1, "hedges fired: {stats:?}");
    // The winning leg delivers (which writes the reply) before it counts
    // its win, so the counter may trail the reply by a moment.
    assert!(
        wait_for(&router, Duration::from_secs(2), |s| s.hedges_won >= 1),
        "hedges won: {:?}",
        router.stats()
    );
    router.shutdown();
}

/// Every shard's current module image, in shard order.
fn shard_images(addrs: &[SocketAddr]) -> Vec<Vec<u8>> {
    addrs
        .iter()
        .map(|addr| Client::connect(*addr).unwrap().snapshot_module().unwrap())
        .collect()
}

/// The router owns its module: a wire `RestoreModule` at the router
/// installs the image there (validated like a flat server's) and
/// leaves every shard's module exactly as it was.
#[test]
fn restore_module_at_the_router_leaves_shard_modules_unchanged() {
    let coll = Arc::new(collection());
    let (_shards, addrs) = start_shards(&coll);
    let router = start_router(
        &addrs,
        &coll,
        shared_module(),
        FailurePolicy::Strict,
        Duration::from_secs(2),
        None,
    );
    let shard_start = shard_images(&addrs);

    let fresh = shared_module();
    fresh.insert(&hist(3), &hist(4), &[1.0; DIM]).unwrap();
    let fresh_image = fresh.to_bytes();
    let mut via_router = Client::connect(router.local_addr()).unwrap();
    assert_ne!(via_router.snapshot_module().unwrap(), fresh_image);
    via_router.restore_module(&fresh_image).unwrap();
    assert_eq!(
        via_router.snapshot_module().unwrap(),
        fresh_image,
        "the router must serve the restored module"
    );

    // A module of the wrong dimensionality is refused with a typed
    // error and leaves the installed one in place.
    let wrong_dim = FeedbackBypass::for_histograms(DIM + 1, BypassConfig::default())
        .unwrap()
        .to_bytes();
    match via_router.restore_module(&wrong_dim) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::DimMismatch),
        other => panic!("expected DimMismatch, got {other:?}"),
    }
    assert_eq!(via_router.snapshot_module().unwrap(), fresh_image);

    assert_eq!(
        shard_images(&addrs),
        shard_start,
        "a router RestoreModule must not reach the shards"
    );
    router.shutdown();
}

/// The acceptance pin for circuit-breaking ejection: with one shard
/// black-holed under `Degraded { min_shards: 1 }`, the first couple of
/// requests pay the shard timeout, the breaker trips, and steady-state
/// latency drops back within 2× the healthy-cluster worst case — every
/// post-ejection reply still degraded, naming the shard, and equal to
/// the surviving-shard oracle.
#[test]
fn ejection_restores_near_healthy_latency_under_a_black_holed_shard() {
    let coll = Arc::new(collection());
    let (_shards, addrs) = start_shards(&coll);
    let timeout = Duration::from_millis(200);
    const WARMUP: u64 = 8;
    let plan = FaultPlan::new(17).rule(FaultRule {
        shard: Some(1),
        after_calls: WARMUP,
        call_limit: None,
        probability: 1.0,
        mode: FaultMode::BlackHole,
    });
    let cfg = RouterConfig {
        shard_timeout: timeout,
        policy: FailurePolicy::Degraded { min_shards: 1 },
        // No hedging: hedge legs would consume fault-plan call indices
        // and blur the scripted healthy/black-holed boundary.
        hedge: None,
        faults: Some(Arc::new(plan)),
        health: HealthConfig {
            consecutive_failures: 2,
            // Keep the shard out for the whole test: a probe would
            // succeed (the host is alive, only its scatter calls are
            // black-holed) and re-admit it into the next black hole.
            probe_interval: Duration::from_secs(60),
            ..Default::default()
        },
        ..Default::default()
    };
    let router = route(
        "127.0.0.1:0",
        &addrs,
        Arc::clone(&coll),
        shared_module(),
        cfg,
    )
    .unwrap();
    let mut client = Client::connect(router.local_addr()).unwrap();
    let (session, _) = client.open_session().unwrap();

    // Phase 1 — healthy cluster: measure the worst healthy latency.
    let mut healthy_max = Duration::ZERO;
    for i in 0..WARMUP as usize {
        let started = Instant::now();
        let reply = client.knn(session, 10, &query(i)).unwrap();
        healthy_max = healthy_max.max(started.elapsed());
        assert!(!reply.degraded, "warm-up request {i} must be healthy");
    }

    // Phase 2 — the black hole starts: exactly two requests pay the
    // shard timeout before the consecutive-failure trip ejects shard 1.
    for i in 0..2 {
        let reply = client.knn(session, 10, &query(100 + i)).unwrap();
        assert!(reply.degraded, "black-holed request {i} degrades");
        assert_eq!(reply.missing_shards, vec![1]);
    }
    assert!(
        wait_for(&router, Duration::from_secs(2), |s| s.ejections() >= 1),
        "the breaker never tripped: {:?}",
        router.stats()
    );

    // Phase 3 — steady state: no request pays the shard timeout again.
    // The 2× bound is the acceptance criterion; the floor keeps a
    // microsecond-fast healthy baseline from turning scheduler noise
    // into flakes.
    let budget = 2 * healthy_max.max(Duration::from_millis(25));
    for i in 0..10 {
        let q = query(200 + i);
        let started = Instant::now();
        let reply = client.knn(session, 10, &q).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed < budget,
            "post-ejection request {i} took {elapsed:?}, budget {budget:?} \
             (healthy max {healthy_max:?})"
        );
        assert!(reply.degraded, "ejected shard still reported");
        assert_eq!(reply.missing_shards, vec![1]);
        let oracle = surviving_oracle(&coll, &[0, 2], &q, 10);
        assert_neighbors_identical(&reply.neighbors, &oracle, &format!("fast-degrade {i}"));
    }

    let stats = router.stats();
    assert_eq!(stats.ejections(), 1, "exactly one trip: {stats:?}");
    assert!(stats.fast_degrades() >= 10, "fast degrades: {stats:?}");
    let row = stats.health.iter().find(|h| h.shard == 1).unwrap();
    assert_eq!(row.state, HealthState::Ejected);
    assert!(
        stats
            .health
            .iter()
            .filter(|h| h.shard != 1)
            .all(|h| h.state == HealthState::Healthy),
        "survivors stay healthy: {stats:?}"
    );
    router.shutdown();
}

/// `Strict` under ejection: once the breaker trips, requests are
/// refused **up front** with the typed `ShardUnavailable` error — no
/// downstream work, no shard timeout paid.
#[test]
fn strict_refuses_fast_once_ejected() {
    let coll = Arc::new(collection());
    let (_shards, addrs) = start_shards(&coll);
    let timeout = Duration::from_millis(200);
    let plan = FaultPlan::new(29).rule(FaultRule::always(2, FaultMode::BlackHole));
    let cfg = RouterConfig {
        shard_timeout: timeout,
        policy: FailurePolicy::Strict,
        hedge: None,
        faults: Some(Arc::new(plan)),
        health: HealthConfig {
            consecutive_failures: 1,
            probe_interval: Duration::from_secs(60),
            ..Default::default()
        },
        ..Default::default()
    };
    let router = route(
        "127.0.0.1:0",
        &addrs,
        Arc::clone(&coll),
        shared_module(),
        cfg,
    )
    .unwrap();
    let mut client = Client::connect(router.local_addr()).unwrap();
    let (session, _) = client.open_session().unwrap();

    // First request pays the timeout and trips the breaker.
    match client.knn(session, 10, &query(0)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::ShardUnavailable),
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }
    assert!(
        wait_for(&router, Duration::from_secs(2), |s| s.ejections() >= 1),
        "breaker never tripped: {:?}",
        router.stats()
    );

    // Every later request is refused up front, far under the timeout.
    for i in 0..5 {
        let started = Instant::now();
        let outcome = client.knn(session, 10, &query(1 + i));
        let elapsed = started.elapsed();
        match outcome {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::ShardUnavailable);
                assert!(message.contains("[2]"), "error names the shard: {message}");
                assert!(message.contains("ejected"), "fast path message: {message}");
            }
            other => panic!("expected fast ShardUnavailable, got {other:?}"),
        }
        assert!(
            elapsed < timeout / 2,
            "fast refusal {i} took {elapsed:?} against a {timeout:?} timeout"
        );
    }
    assert!(router.stats().fast_degrades() >= 5);
    router.shutdown();
}

/// Router config for the scripted outage on shard 1 that the
/// re-admission tests share.
fn outage_config() -> RouterConfig {
    let timeout = Duration::from_millis(100);
    // Calls 0-1 healthy; calls 2-7 refused (the outage); calls 8+ serve
    // again (the "restart"). Scatter and control calls share the
    // counter, so the ejection's probes burn through the outage window
    // deterministically.
    let plan = FaultPlan::new(23).rule(FaultRule {
        shard: Some(1),
        after_calls: 2,
        call_limit: None,
        probability: 1.0,
        mode: FaultMode::Down { calls: 6 },
    });
    RouterConfig {
        shard_timeout: timeout,
        policy: FailurePolicy::Degraded { min_shards: 1 },
        hedge: None,
        faults: Some(Arc::new(plan)),
        health: HealthConfig {
            consecutive_failures: 2,
            // Disable the rate trip so ejection happens on exactly the
            // scripted consecutive run.
            failure_rate: 1.1,
            probe_interval: Duration::from_millis(20),
            probe_backoff_max: Duration::from_millis(100),
            readmit_successes: 2,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Drive `router` (built from [`outage_config`]) through the scripted
/// outage: a healthy prelude, then `before_outage`, then two degraded
/// replies that eject shard 1, then re-admission
/// within `budget` — ending with replies bit-identical to the healthy
/// all-shards oracle.
fn outage_round_trip(
    router: &RouterHandle,
    coll: &Collection,
    budget: Duration,
    before_outage: impl FnOnce(),
) {
    let mut client = Client::connect(router.local_addr()).unwrap();
    let (session, _) = client.open_session().unwrap();

    // Healthy prelude (shard-1 calls 0 and 1).
    for i in 0..2 {
        let reply = client.knn(session, 10, &query(i)).unwrap();
        assert!(!reply.degraded, "prelude request {i}");
    }
    before_outage();

    // Outage: two refused calls trip the breaker.
    for i in 0..2 {
        let reply = client.knn(session, 10, &query(50 + i)).unwrap();
        assert!(reply.degraded, "outage request {i} degrades");
        assert_eq!(reply.missing_shards, vec![1]);
    }

    // The prober now burns through the outage window (each refused
    // probe backs off and counts), sees the restarted shard, and earns
    // the quorum of tiling re-validations that re-admits it.
    assert!(
        wait_for(router, budget, |s| {
            s.health
                .iter()
                .any(|h| h.shard == 1 && h.readmissions >= 1 && h.state == HealthState::Healthy)
        }),
        "shard 1 never re-admitted: {:?}",
        router.stats()
    );

    // Post-restart: replies are full and bit-identical to the healthy
    // all-shards oracle again.
    for i in 0..3 {
        let q = query(80 + i);
        let reply = client.knn(session, 10, &q).unwrap();
        assert!(!reply.degraded, "post-readmission request {i}");
        assert!(reply.missing_shards.is_empty());
        let oracle = surviving_oracle(coll, &[0, 1, 2], &q, 10);
        assert_neighbors_identical(&reply.neighbors, &oracle, &format!("post-readmission {i}"));
    }

    let stats = router.stats();
    assert!(stats.ejections() >= 1, "ejections: {stats:?}");
    assert!(stats.readmissions() >= 1, "readmissions: {stats:?}");
    assert!(
        stats.probe_failures() >= 1,
        "refused probes must be counted: {stats:?}"
    );
}

/// The full scripted lifecycle the `Down` fault mode exists for:
/// outage → ejection → backed-off probing (refused while down) →
/// restart → probe quorum → re-admission — ending with replies
/// bit-identical to the healthy all-shards oracle.
#[test]
fn outage_ejection_restart_readmission_round_trip() {
    let coll = Arc::new(collection());
    let (_shards, addrs) = start_shards(&coll);
    let bypass = shared_module();
    let router = route(
        "127.0.0.1:0",
        &addrs,
        Arc::clone(&coll),
        bypass.clone(),
        outage_config(),
    )
    .unwrap();
    // The router's module changes while shard 1 is about to die; the
    // shard's answers never depend on it.
    outage_round_trip(&router, &coll, Duration::from_secs(15), || {
        bypass.insert(&hist(1), &hist(2), &[1.0; DIM]).unwrap();
    });
    router.shutdown();
}

/// Re-admission checks the shard's tiling and nothing else: shards
/// whose frame limit is smaller than the router's module image are
/// still re-admitted after the scripted outage, and answer
/// bit-identically to the all-shards oracle afterwards.
#[test]
fn readmission_does_not_depend_on_the_module_image() {
    const SHARD_FRAME_LIMIT: u32 = 2048;
    let coll = Arc::new(collection());
    let (_shards, addrs) = start_shards_with(
        &coll,
        ServerConfig {
            max_frame_len: SHARD_FRAME_LIMIT,
            ..Default::default()
        },
    );
    let bypass = shared_module();
    for i in 0..6 {
        bypass
            .insert(&hist(10 + 2 * i), &hist(11 + 2 * i), &[1.0; DIM])
            .unwrap();
    }
    let image_len = bypass.to_bytes().len();
    assert!(
        image_len > SHARD_FRAME_LIMIT as usize,
        "the module image ({image_len} B) must outgrow the shards' frame limit"
    );
    let router = route(
        "127.0.0.1:0",
        &addrs,
        Arc::clone(&coll),
        bypass,
        outage_config(),
    )
    .unwrap();
    outage_round_trip(&router, &coll, Duration::from_secs(5), || {});
    router.shutdown();
}

/// Drive one interactive query on `session` to completion, judging
/// every neighbor whose index is a multiple of 3 relevant. Returns the
/// cycles run and the relevant count of the first and the last round.
fn drive_query(client: &mut Client, session: u64, q: &[f64]) -> (u32, usize, usize) {
    let mut first_hits = None;
    for _ in 0..20 {
        let reply = client.knn(session, 10, q).unwrap();
        let relevant: Vec<u32> = reply
            .neighbors
            .iter()
            .filter(|n| n.index % 3 == 0)
            .map(|n| n.index)
            .collect();
        let last = relevant.len();
        let first = *first_hits.get_or_insert(last);
        if reply.done {
            return (reply.cycles, first, last);
        }
        let fa = client.feedback(session, &relevant).unwrap();
        if fa.done {
            return (fa.cycles, first, last);
        }
    }
    panic!("the query did not finish in 20 rounds");
}

/// The router owns the learned module: a feedback loop that converges
/// at the router changes the router's module and leaves every shard's
/// module exactly as it started. The session store keeps Fig. 5's
/// commit rule: a query that ran no feedback cycle stores nothing, and
/// a repeated query starts from what it learned.
#[test]
fn session_commit_leaves_shard_modules_untouched() {
    let coll = Arc::new(collection());
    let (_shards, addrs) = start_shards(&coll);
    let shard_start = shard_images(&addrs);
    let router = start_router(
        &addrs,
        &coll,
        shared_module(),
        FailurePolicy::Strict,
        Duration::from_secs(2),
        None,
    );
    let mut client = Client::connect(router.local_addr()).unwrap();
    let initial_image = client.snapshot_module().unwrap();
    let (session, _) = client.open_session().unwrap();

    // Nothing judged relevant: the query ends at its first judgment
    // with no cycle run, and the module stays as it was.
    assert!(!client.knn(session, 10, &hist(7)).unwrap().done);
    let fa = client.feedback(session, &[]).unwrap();
    assert!(fa.done && fa.cycles == 0, "{fa:?}");
    assert_eq!(
        client.snapshot_module().unwrap(),
        initial_image,
        "a query without feedback cycles must not be stored"
    );

    // Drive one interactive query to completion. The anchor is a
    // normalized histogram, so the commit's module insert is in-domain.
    let q = hist(5);
    let (cycles, _, last_hits) = drive_query(&mut client, session, &q);
    assert!(cycles > 0, "the query must finish with feedback cycles run");

    let router_image = client.snapshot_module().unwrap();
    assert_ne!(
        router_image, initial_image,
        "the commit must have changed the router's module"
    );
    // Give a background push every chance to land before looking.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        shard_images(&addrs),
        shard_start,
        "a session commit must not reach the shards"
    );

    // The same query again needs no more cycles, and its first round
    // is already as good as the first run's last.
    let (again, first_hits, _) = drive_query(&mut client, session, &q);
    assert!(again <= cycles, "repeat ran {again} cycles, first {cycles}");
    assert!(first_hits >= last_hits, "{first_hits} < {last_hits}");
    router.shutdown();
}
