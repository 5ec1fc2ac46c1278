//! The router tier end to end: three shard servers on loopback, a
//! router scattering to them, and the closed-loop load generator
//! driving full interactive feedback sessions through the stack —
//! first healthy, then under an injected partial failure.
//!
//! Four phases, each an executable claim from the partial-failure
//! policy (`ARCHITECTURE.md`, "router tier"):
//!
//! 1. **healthy** — the router answers bit-identically to a flat
//!    in-process scan (probe spot-check) and serves the whole burst
//!    with zero degraded replies;
//! 2. **faulted burst** — with one shard black-holing half its calls
//!    under `FailurePolicy::Degraded`, every request still resolves:
//!    hedges overtake stragglers, timeouts convert to surviving-subset
//!    answers, and the robustness counters record all of it;
//! 3. **deterministic degradation** — with the same shard black-holed
//!    on every call, a probe reply carries the degraded flag, names the
//!    missing shard, and equals the surviving-shard oracle exactly;
//! 4. **crash and restart** — one shard *server* is killed for real
//!    mid-burst (a process outage, not an injected fault): every
//!    in-flight request still resolves, the circuit breaker ejects the
//!    dead shard so later requests stop paying its timeout, and once
//!    the server rebinds on the same address the background prober
//!    re-admits it — restoring answers bit-identical to the flat scan.
//!
//! Run with: `cargo run --release --example router_loadgen`
//! (`FBP_BENCH_FAST=1` for the short CI smoke burst.)

use fbp_server::{
    route, run_loadgen, serve, Client, FailurePolicy, FaultMode, FaultPlan, FaultRule,
    HealthConfig, HealthState, LoadgenOptions, LoadgenReport, RouterConfig, RouterHandle,
    ServerConfig, ServerHandle, PROTOCOL_VERSION,
};
use fbp_vecdb::{
    CategoryId, Collection, CollectionBuilder, KnnEngine, LinearScan, Neighbor, ScanMode,
    WeightedEuclidean,
};
use feedbackbypass::{
    BypassConfig, FeedbackBypass, FeedbackConfig, QuerySpec, RocchioWeights, SharedBypass,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const DIM: usize = 32;
const K: u32 = 20;
const SHARDS: usize = 3;
const CLUSTERS: usize = 12;

fn fast() -> bool {
    std::env::var("FBP_BENCH_FAST").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// Clustered, labelled collection in `[0,1]^32` with the f32 mirror the
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

fn shared_module() -> SharedBypass {
    SharedBypass::new(FeedbackBypass::for_unit_cube(DIM, BypassConfig::default()).unwrap())
}

/// Row range shard `i` serves — the `ShardedCollection::split` formula,
/// so the router-fronted deployment partitions exactly like in-process
/// sharded serving.
fn shard_range(len: usize, i: usize) -> (usize, usize) {
    (i * len / SHARDS, (i + 1) * len / SHARDS)
}

/// One shard server per contiguous slice, each knowing its global
/// `row_offset` so its partials report global row ids.
fn start_shards(coll: &Arc<Collection>) -> (Vec<ServerHandle>, Vec<SocketAddr>) {
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..SHARDS {
        let (start, end) = shard_range(coll.len(), i);
        let slice = Arc::new(coll.slice_rows(start, end));
        let cfg = ServerConfig {
            row_offset: start,
            ..Default::default()
        };
        let handle = serve("127.0.0.1:0", slice, shared_module(), cfg).expect("bind shard");
        addrs.push(handle.local_addr());
        handles.push(handle);
    }
    (handles, addrs)
}

fn start_router(
    addrs: &[SocketAddr],
    coll: &Arc<Collection>,
    policy: FailurePolicy,
    faults: Option<FaultPlan>,
    health: HealthConfig,
) -> RouterHandle {
    let cfg = RouterConfig {
        shard_timeout: Duration::from_millis(150),
        conns_per_downstream: 4,
        policy,
        feedback: FeedbackConfig {
            k: K as usize,
            ..Default::default()
        },
        faults: faults.map(Arc::new),
        health,
        ..Default::default()
    };
    route("127.0.0.1:0", addrs, Arc::clone(coll), shared_module(), cfg).expect("bind router")
}

/// An out-of-domain probe query (components > 1 sit outside the
/// unit-cube module, so the router searches it as-is under the uniform
/// metric — exactly what the oracles below compute).
fn probe_query() -> Vec<f64> {
    (0..DIM)
        .map(|d| 1.5 + ((d * 13) as f64 * 0.31).sin().abs())
        .collect()
}

/// Exact k-NN over the union of the surviving shards' rows, with
/// globally-offset indices — the answer a degraded reply must equal.
fn surviving_oracle(coll: &Collection, surviving: &[usize], q: &[f64], k: usize) -> Vec<Neighbor> {
    let metric = WeightedEuclidean::uniform(DIM);
    let mut merged: Vec<Neighbor> = Vec::new();
    for &s in surviving {
        let (start, end) = shard_range(coll.len(), s);
        let slice = coll.slice_rows(start, end);
        for n in LinearScan::with_mode(&slice, ScanMode::Batched).knn(q, k, &metric) {
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

fn run_burst(addr: SocketAddr, coll: &Arc<Collection>, queries: &[Vec<f64>]) -> LoadgenReport {
    run_burst_with(
        addr,
        coll,
        queries,
        LoadgenOptions {
            sessions: 8,
            queries_per_session: if fast() { 2 } else { 6 },
            k: K,
            think_time: Duration::from_millis(2),
            max_rounds: 32,
            trace: false,
        },
    )
}

fn run_burst_with(
    addr: SocketAddr,
    coll: &Arc<Collection>,
    queries: &[Vec<f64>],
    opts: LoadgenOptions,
) -> LoadgenReport {
    let coll_ref = Arc::clone(coll);
    let judge = move |qi: usize, ids: &[u32]| -> Vec<u32> {
        let cat = coll_ref.label(qi);
        ids.iter()
            .copied()
            .filter(|&id| coll_ref.label(id as usize) == cat)
            .collect()
    };
    run_loadgen(addr, queries, Some(&judge), &opts).expect("loadgen run")
}

fn print_report(name: &str, r: &LoadgenReport) {
    println!(
        "{name:<16} {:>9} {:>9} {:>9} {:>9.0} {:>9.0} {:>9} {:>9} {:>9}",
        r.searches,
        r.queries,
        r.degraded,
        r.latency_p50_us,
        r.latency_p99_us,
        r.server.downstream_timeouts,
        r.server.hedges_fired,
        r.server.hedges_won,
    );
}

fn main() {
    let n = if fast() { 1_500 } else { 6_000 };
    eprintln!("building {n} × {DIM}-d labelled collection (+f32 mirror)...");
    let coll = Arc::new(collection(n));
    let (mut shard_handles, addrs) = start_shards(&coll);
    let queries: Vec<Vec<f64>> = (0..8 * 6).map(|i| coll.vector(i).to_vec()).collect();

    println!("fbp-server router loadgen: {n} × {DIM}-d over {SHARDS} loopback shards, k = {K}\n");
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "phase", "searches", "queries", "degraded", "p50 µs", "p99 µs", "timeouts", "hedged", "won"
    );

    // Phase 1 — healthy router: full burst, zero degradation, and a
    // probe bit-identical to the flat in-process scan.
    let healthy = start_router(
        &addrs,
        &coll,
        FailurePolicy::Strict,
        None,
        HealthConfig::default(),
    );
    let r1 = run_burst(healthy.local_addr(), &coll, &queries);
    print_report("healthy", &r1);
    assert_eq!(
        r1.server.requests, r1.searches,
        "dropped or phantom requests"
    );
    assert_eq!(r1.degraded, 0, "healthy shards must never degrade");
    assert_eq!(r1.server.degraded_replies, 0);
    assert_eq!(r1.server.protocol_errors, 0, "clean traffic only");
    assert_eq!(r1.server.sessions_open, 0, "sessions must be closed");
    assert_eq!(r1.server.shards, SHARDS as u64);
    {
        let mut probe = Client::connect(healthy.local_addr()).expect("probe client");
        let (session, dim) = probe.open_session().expect("open session");
        assert_eq!(dim as usize, DIM);
        let q = probe_query();
        let reply = probe.knn(session, 10, &q).expect("probe knn");
        assert!(!reply.degraded);
        let expect = LinearScan::with_mode(&coll, ScanMode::Batched).knn(
            &q,
            10,
            &WeightedEuclidean::uniform(DIM),
        );
        assert_eq!(reply.neighbors, expect, "router diverged from flat scan");
        probe.close_session(session).expect("close probe session");
    }

    // Phase 1b — multi-example burst: a v2 session negotiates Hello and
    // ships Rocchio specs (anchor + positive/negative example rows).
    // The router lowers each spec once and scatters the derived anchor,
    // so every reply must equal the flat in-process scan against
    // `spec.lower().point()` — the same bit-identity the plain probe
    // pins, extended to the richest query shape the wire carries.
    {
        let mut client = Client::connect(healthy.local_addr()).expect("spec client");
        assert_eq!(
            client.hello().expect("hello"),
            PROTOCOL_VERSION,
            "router must speak v2"
        );
        let (session, _) = client.open_session().expect("open spec session");
        let single = LinearScan::with_mode(&coll, ScanMode::Batched);
        let rounds = if fast() { 4 } else { 16 };
        for i in 0..rounds {
            // Out-of-domain anchors (components > 1) keep the served
            // metric at the documented uniform fallback, whatever the
            // burst above taught the module.
            let anchor: Vec<f64> = (0..DIM)
                .map(|d| 1.5 + (((i * 13 + d * 7) as f64) * 0.29).sin().abs())
                .collect();
            let spec = QuerySpec::builder(anchor)
                .positives(
                    (0..3)
                        .map(|j| coll.vector((i * 17 + j * 5) % coll.len()).to_vec())
                        .collect(),
                )
                .negatives(
                    (0..2)
                        .map(|j| coll.vector((i * 23 + j * 9 + 1) % coll.len()).to_vec())
                        .collect(),
                )
                .rocchio(RocchioWeights::new(1.0, 0.75, 0.25))
                .build()
                .expect("valid spec");
            let reply = client.knn_spec(session, K, &spec).expect("spec knn");
            assert!(!reply.degraded);
            let expect = single.knn(
                spec.lower().point(),
                K as usize,
                &WeightedEuclidean::uniform(DIM),
            );
            assert_eq!(
                reply.neighbors, expect,
                "spec round {i} diverged from the derived-anchor flat scan"
            );
        }
        client.close_session(session).expect("close spec session");
        println!(
            "{:<16} {rounds} multi-example rounds, all bit-identical to the derived-anchor scan",
            "spec burst"
        );
    }
    healthy.shutdown();

    // Phase 1c — trace drill: the same healthy burst, but every request
    // opts into the protocol-v3 trace trailer, through a router whose
    // slow-query threshold is zero so *every* traced reply lands in the
    // ring. Asserts the trailer's self-consistency contract on every
    // drained report (`wall = gather + merge` exactly; every span's
    // queue + busy inside the gather window; one span per shard), then
    // dumps the drained ring as JSON lines to `$FBP_TRACE_DUMP` — the
    // artifact CI uploads from the router-smoke job.
    {
        let cfg = RouterConfig {
            shard_timeout: Duration::from_millis(150),
            conns_per_downstream: 4,
            policy: FailurePolicy::Strict,
            feedback: FeedbackConfig {
                k: K as usize,
                ..Default::default()
            },
            slow_trace_threshold: Duration::ZERO,
            ..Default::default()
        };
        let traced_router = route(
            "127.0.0.1:0",
            &addrs,
            Arc::clone(&coll),
            shared_module(),
            cfg,
        )
        .expect("bind traced router");
        let rt = run_burst_with(
            traced_router.local_addr(),
            &coll,
            &queries,
            LoadgenOptions {
                sessions: 8,
                queries_per_session: if fast() { 2 } else { 6 },
                k: K,
                think_time: Duration::from_millis(2),
                max_rounds: 32,
                trace: true,
            },
        );
        print_report("traced burst", &rt);
        assert!(
            rt.stage_gather_p50_us > 0.0,
            "traced replies must attribute the gather stage"
        );
        assert_eq!(rt.failed_spans, 0, "healthy shards must not fail spans");
        let mut drain = Client::connect(traced_router.local_addr()).expect("drain client");
        assert!(drain.hello().expect("hello") >= 3, "GetTraces needs v3");
        let reports = drain.get_traces(0).expect("drain trace ring");
        assert!(
            !reports.is_empty(),
            "a zero-threshold ring must capture the traced burst"
        );
        for t in &reports {
            assert_eq!(
                t.wall_ns,
                t.gather_ns + t.merge_ns,
                "trace {} breaks wall = gather + merge",
                t.trace_id
            );
            assert_eq!(
                t.spans.len(),
                SHARDS,
                "trace {} must carry one span per shard",
                t.trace_id
            );
            for sp in &t.spans {
                assert!(
                    sp.queue_ns + sp.busy_ns <= t.gather_ns,
                    "trace {} shard {} span escapes the gather window",
                    t.trace_id,
                    sp.shard
                );
            }
        }
        assert!(
            drain.get_traces(0).expect("second drain").is_empty(),
            "the drain must be destructive"
        );
        if let Ok(path) = std::env::var("FBP_TRACE_DUMP") {
            use std::fmt::Write as _;
            let mut out = String::new();
            for t in &reports {
                let mut spans = String::new();
                for (i, sp) in t.spans.iter().enumerate() {
                    if i > 0 {
                        spans.push(',');
                    }
                    write!(
                        spans,
                        "{{\"shard\":{},\"queue_ns\":{},\"busy_ns\":{},\
                         \"batch_fill\":{},\"flags\":{}}}",
                        sp.shard, sp.queue_ns, sp.busy_ns, sp.batch_fill, sp.flags
                    )
                    .expect("format span");
                }
                writeln!(
                    out,
                    "{{\"trace_id\":{},\"wall_ns\":{},\"gather_ns\":{},\
                     \"merge_ns\":{},\"spans\":[{spans}]}}",
                    t.trace_id, t.wall_ns, t.gather_ns, t.merge_ns
                )
                .expect("format trace");
            }
            std::fs::write(&path, out).expect("write trace dump");
            println!(
                "{:<16} drained {} slow-query traces to {path}",
                "trace dump",
                reports.len()
            );
        }
        println!(
            "{:<16} {} traces drained, all self-consistent: gather p50 {:.0} µs, \
             merge p50 {:.0} µs, shard queue p99 {:.0} µs, busy p99 {:.0} µs",
            "trace drill",
            reports.len(),
            rt.stage_gather_p50_us,
            rt.stage_merge_p50_us,
            rt.stage_queue_p99_us,
            rt.stage_busy_p99_us,
        );
        traced_router.shutdown();
    }

    // Phase 2 — faulted burst: shard 1 black-holes half its calls, yet
    // under `Degraded { min_shards: 2 }` every search resolves — hedged
    // or degraded, never hung — and the counters account for it.
    let plan = FaultPlan::new(0xFA117).rule(FaultRule {
        shard: Some(1),
        after_calls: 0,
        call_limit: None,
        probability: 0.5,
        mode: FaultMode::BlackHole,
    });
    let faulted = start_router(
        &addrs,
        &coll,
        FailurePolicy::Degraded { min_shards: 2 },
        Some(plan),
        HealthConfig::default(),
    );
    let r2 = run_burst(faulted.local_addr(), &coll, &queries);
    print_report("shard 1 flaky", &r2);
    faulted.shutdown();
    assert_eq!(r2.server.requests, r2.searches, "every request resolved");
    assert!(
        r2.degraded > 0,
        "a 50% black-hole must degrade some replies"
    );
    assert_eq!(r2.server.degraded_replies, r2.degraded);
    assert!(
        r2.server.downstream_timeouts > 0,
        "black-holes must time out"
    );
    assert!(r2.server.hedges_fired > 0, "stragglers must draw hedges");
    assert_eq!(r2.server.sessions_open, 0, "sessions must be closed");
    // Bounded tail: one shard-timeout budget (plus scheduling slack),
    // never an unbounded hang.
    assert!(
        r2.latency_p99_us < 1_000_000.0,
        "p99 {}µs breaches the bounded-failure contract",
        r2.latency_p99_us
    );

    // Phase 3 — deterministic degradation: shard 1 black-holed on every
    // call; the reply must name it and equal the surviving-shard oracle.
    let always = FaultPlan::new(1).rule(FaultRule::always(1, FaultMode::BlackHole));
    let dead = start_router(
        &addrs,
        &coll,
        FailurePolicy::Degraded { min_shards: 2 },
        Some(always),
        HealthConfig::default(),
    );
    {
        let mut probe = Client::connect(dead.local_addr()).expect("probe client");
        let (session, _) = probe.open_session().expect("open session");
        let q = probe_query();
        let reply = probe.knn(session, 10, &q).expect("degraded knn");
        assert!(reply.degraded, "a dead shard must flag the reply degraded");
        assert_eq!(reply.missing_shards, vec![1], "the missing shard is named");
        let oracle = surviving_oracle(&coll, &[0, 2], &q, 10);
        assert_eq!(
            reply.neighbors, oracle,
            "degraded answer diverged from the surviving-shard oracle"
        );
        probe.close_session(session).expect("close probe session");
    }
    let dead_stats = dead.stats();
    assert!(dead_stats.downstream_timeouts > 0);
    assert_eq!(dead_stats.degraded_replies, 1);
    dead.shutdown();

    // Phase 4 — crash and restart: kill shard 1's *server* mid-burst (a
    // real process outage — connections die, the port goes dark), then
    // bring it back on the same address. The breaker must eject it so
    // requests stop paying its timeout, and the prober must re-admit
    // the restarted server after its tiling re-validates.
    let health = HealthConfig {
        consecutive_failures: 2,
        probe_interval: Duration::from_millis(25),
        probe_backoff_max: Duration::from_millis(200),
        readmit_successes: 2,
        ..Default::default()
    };
    let crash = start_router(
        &addrs,
        &coll,
        FailurePolicy::Degraded { min_shards: 2 },
        None,
        health,
    );
    let crash_addr = crash.local_addr();
    // A slower, longer burst than the other phases: it must comfortably
    // outlive the kill *and* the victim's connection-drain window, so
    // the outage provably overlaps in-flight traffic.
    let burst = {
        let coll = Arc::clone(&coll);
        let opts = LoadgenOptions {
            sessions: 8,
            queries_per_session: if fast() { 4 } else { 12 },
            k: K,
            think_time: Duration::from_millis(10),
            max_rounds: 32,
            trace: false,
        };
        let pool: Vec<Vec<f64>> = (0..opts.sessions * opts.queries_per_session)
            .map(|i| coll.vector(i).to_vec())
            .collect();
        thread::spawn(move || run_burst_with(crash_addr, &coll, &pool, opts))
    };
    thread::sleep(Duration::from_millis(30));
    assert!(!burst.is_finished(), "the kill must land mid-burst");
    let victim = shard_handles.remove(1);
    // The outage: shard 1 stops accepting mid-burst. Its shutdown
    // drains — connections already open keep answering until they fall
    // idle — so in-flight requests may still finish in full; the router
    // learns of the outage from the first calls that find the port dark
    // (the loop below).
    victim.shutdown();
    let r4 = burst.join().expect("burst thread");
    print_report("shard 1 killed", &r4);
    assert_eq!(
        r4.server.requests, r4.searches,
        "an in-flight request hung or vanished across the crash"
    );

    // Keep traffic flowing until the breaker trips (the burst may have
    // drained before enough post-crash failures accumulated), then pin
    // the fast-degrade path: no request pays the dead shard's timeout.
    let deadline = Instant::now() + Duration::from_secs(10);
    while crash.stats().ejections() == 0 {
        assert!(
            Instant::now() < deadline,
            "breaker never ejected the killed shard"
        );
        let mut trip = Client::connect(crash_addr).expect("tripper client");
        let (s, _) = trip.open_session().expect("open tripper session");
        let _ = trip.knn(s, 5, &probe_query());
        trip.close_session(s).expect("close tripper session");
    }
    let shard_budget = Duration::from_millis(150); // the timeout ejection stops charging
    {
        let mut probe = Client::connect(crash_addr).expect("probe client");
        let (session, _) = probe.open_session().expect("open session");
        let q = probe_query();
        for _ in 0..10 {
            let t0 = Instant::now();
            let reply = probe.knn(session, 10, &q).expect("post-ejection knn");
            let took = t0.elapsed();
            assert!(
                took < shard_budget,
                "post-ejection request took {took:?} — the dead shard is still being waited on"
            );
            assert!(reply.degraded, "the ejected shard must flag the reply");
            assert_eq!(reply.missing_shards, vec![1]);
            assert_eq!(
                reply.neighbors,
                surviving_oracle(&coll, &[0, 2], &q, 10),
                "post-ejection answer diverged from the surviving-shard oracle"
            );
        }
        probe.close_session(session).expect("close probe session");
    }

    // The restart: rebind shard 1 on its old address (retry briefly —
    // the freed port can linger a moment after shutdown) and wait for
    // the prober to re-validate its tiling and re-admit it.
    let (start, _) = shard_range(coll.len(), 1);
    let restarted = {
        let slice = Arc::new(coll.slice_rows(start, shard_range(coll.len(), 1).1));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let cfg = ServerConfig {
                row_offset: start,
                ..Default::default()
            };
            match serve(addrs[1], Arc::clone(&slice), shared_module(), cfg) {
                Ok(h) => break h,
                Err(e) => {
                    assert!(Instant::now() < deadline, "could not rebind shard 1: {e}");
                    thread::sleep(Duration::from_millis(50));
                }
            }
        }
    };
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let s = crash.stats();
        let row = s
            .health
            .iter()
            .find(|h| h.shard == 1)
            .expect("shard 1 health row");
        if row.readmissions > 0 && row.state == HealthState::Healthy {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "prober never re-admitted the restarted shard (state {:?})",
            row.state
        );
        thread::sleep(Duration::from_millis(10));
    }
    {
        let mut probe = Client::connect(crash_addr).expect("probe client");
        let (session, _) = probe.open_session().expect("open session");
        let q = probe_query();
        let reply = probe.knn(session, 10, &q).expect("post-restart knn");
        assert!(
            !reply.degraded,
            "a re-admitted shard must restore full answers"
        );
        assert!(reply.missing_shards.is_empty());
        let expect = LinearScan::with_mode(&coll, ScanMode::Batched).knn(
            &q,
            10,
            &WeightedEuclidean::uniform(DIM),
        );
        assert_eq!(
            reply.neighbors, expect,
            "post-restart answer diverged from the flat scan"
        );
        probe.close_session(session).expect("close probe session");
    }
    let crash_stats = crash.stats();
    assert!(crash_stats.ejections() >= 1);
    assert!(crash_stats.readmissions() >= 1);
    assert!(crash_stats.fast_degrades() >= 10);
    crash.shutdown();
    shard_handles.insert(1, restarted);
    println!(
        "{:<16} crash survived: {} ejection(s), {} probe failure(s), {} fast degrade(s), \
         {} re-admission(s); post-restart answers bit-identical to flat",
        "kill + restart",
        crash_stats.ejections(),
        crash_stats.probe_failures(),
        crash_stats.fast_degrades(),
        crash_stats.readmissions(),
    );

    for h in shard_handles {
        h.shutdown(); // joins every thread — returning IS the clean-shutdown proof
    }
    println!(
        "\nfaulted burst: {}/{} replies degraded, {} hedges fired ({} won), \
         {} downstream timeouts, {} retries — all sessions completed, all servers \
         shut down cleanly.",
        r2.degraded,
        r2.searches,
        r2.server.hedges_fired,
        r2.server.hedges_won,
        r2.server.downstream_timeouts,
        r2.server.downstream_retries,
    );
}
