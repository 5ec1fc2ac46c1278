//! The shard-router serving tier: a front-end that speaks the same
//! client protocol as a flat server upstream, and scatters each `Knn`
//! as sessionless `ShardKnn` frames to **remote shard servers**
//! downstream, gathering their partials with the same key-space merge
//! the in-process sharded server uses — **bit-identical** to
//! single-process `shards = N` serving while every shard is healthy.
//!
//! ## Split of responsibilities
//!
//! The router owns the **session tier**: the learned module
//! (predictions, inserts), the per-session feedback state machine, and
//! the full collection (the [`fbp_feedback::FeedbackStepper`] reads
//! judged rows' vectors). Downstream shard servers own the **scan
//! tier**: each serves one contiguous row slice with
//! [`crate::ServerConfig::row_offset`] set, so gathered indices address
//! the full key space. Startup probes every downstream (`ShardInfo`)
//! and refuses to start unless the slices tile the router's collection
//! exactly — the precondition of the bit-identity claim.
//!
//! ## Partial-failure policy
//!
//! Every downstream call is bounded by
//! [`RouterConfig::shard_timeout`]; what happens when a shard misses
//! its deadline is decided by the configured
//! [`FailurePolicy`](fbp_vecdb::FailurePolicy) — a typed
//! `ShardUnavailable` error (`Strict`), or a **degraded answer** merged
//! from the surviving shards, flagged on the wire with the missing
//! shard list (`Degraded`). There is no third outcome: no silent
//! narrowing, no hang. See `ARCHITECTURE.md`, "router tier", for the
//! full contract.
//!
//! ## Hedged retries
//!
//! With [`RouterConfig::hedge`] set, a shard that has not answered
//! within its observed p99 call latency (clamped to the configured
//! window) gets one duplicate request on another pooled connection;
//! the first answer wins and the loser is suppressed. Hedging spends
//! bounded extra downstream work to cut tail latency — it never
//! changes an answer, only when it arrives.
//!
//! ## Downstream health tracking
//!
//! Every downstream carries a circuit breaker (see [`crate::health`]):
//! call failures trip it `Healthy → Suspect → Ejected`, and an
//! **ejected** shard leaves the scatter set up front — `Degraded`
//! merges the survivors immediately with the shard in
//! `missing_shards`, `Strict` refuses fast with `ShardUnavailable`;
//! either way no request pays the shard's `shard_timeout` again. A
//! background prober re-checks ejected shards with `ShardInfo` at
//! exponentially backed-off intervals, and re-admission is earned:
//! [`crate::HealthConfig::readmit_successes`] consecutive probe
//! successes, each re-validating the shard's row slice against what
//! startup accepted — only then does the shard take traffic again.
//!
//! ## One learned module
//!
//! The router is the single owner of the learned module: it predicts a
//! fresh query's parameters, commits converged ones, and lowers every
//! search to `(point, weights)` before the scatter, so no shard ever
//! consults a module. Nothing is replicated downstream — not on commit,
//! not on re-admission. A client's `SnapshotModule`/`RestoreModule`
//! reads or replaces the router's module alone.

use crate::health::HealthConfig;
use crate::metrics::Metrics;
use crate::pool::{control_call, Downstream, Job, PoolConfig};
use crate::protocol::{
    error_code_for, read_frame, write_frame, DecodeError, DownstreamHealth, ErrorCode, FrameError,
    Request, Response, ShardSpan, DEFAULT_MAX_FRAME_LEN, KNN_DEGRADED, KNN_TRACED,
    PROTOCOL_VERSION, SPAN_FAILED, SPAN_FAST_DEGRADED, SPAN_HEDGE_FIRED,
};
use crate::sessions::{err, ExampleSets, SessionStore};
use crate::trace::{RequestTrace, TraceRing};
use fbp_vecdb::{
    merge_partials_policy, Collection, DegradedGather, FailurePolicy, ShardPartial,
    WeightedEuclidean,
};
use feedbackbypass::{FeedbackConfig, KnnRequest, QuerySpec, RocchioWeights, SharedBypass};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::faults::{FaultMode, FaultPlan};

/// Hedged-retry tuning: the hedge delay is the downstream's observed
/// p99 call latency, clamped into `[min_delay, max_delay]` (and
/// `max_delay` alone until a latency sample exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgeConfig {
    /// Never hedge sooner than this (guards cold p99 estimates).
    pub min_delay: Duration,
    /// Never wait longer than this before hedging a silent shard.
    pub max_delay: Duration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            min_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(50),
        }
    }
}

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Budget for one downstream scatter call, connect + retries
    /// included; a shard silent past it is treated as failed and the
    /// [`RouterConfig::policy`] decides the reply.
    pub shard_timeout: Duration,
    /// Bound on each downstream TCP connect attempt.
    pub connect_timeout: Duration,
    /// First reconnect backoff; doubles per consecutive connect
    /// failure.
    pub backoff_base: Duration,
    /// Reconnect backoff clamp.
    pub backoff_max: Duration,
    /// Pooled connections per downstream (each is one worker thread);
    /// keep ≥ 2 so a hedge can overtake a stuck primary.
    pub conns_per_downstream: usize,
    /// Hedged-retry policy (`None` disables hedging).
    pub hedge: Option<HedgeConfig>,
    /// The documented partial-failure contract. Defaults to
    /// [`FailurePolicy::Strict`]: degradation is opt-in, never a
    /// surprise.
    pub policy: FailurePolicy,
    /// Admission bound on in-flight upstream `Knn` requests; beyond it
    /// requests answer [`ErrorCode::Busy`].
    pub queue_capacity: usize,
    /// Largest accepted frame payload, upstream and downstream.
    pub max_frame_len: u32,
    /// Read-timeout slice upstream connection threads park in between
    /// frames (shutdown-poll granularity, not a client timeout).
    pub read_timeout: Duration,
    /// Write timeout on every upstream reply and downstream request.
    pub write_timeout: Duration,
    /// Feedback transition configuration for the router's session tier.
    pub feedback: FeedbackConfig,
    /// Scripted downstream faults for tests and smoke drills (`None` in
    /// production). See [`crate::faults`].
    pub faults: Option<Arc<FaultPlan>>,
    /// Circuit-breaker tuning for the per-downstream health trackers:
    /// ejection thresholds, probe cadence, re-admission quorum. See
    /// [`crate::health`].
    pub health: HealthConfig,
    /// Traced replies at or above this wall time are kept in the
    /// bounded slow-query ring `GetTraces` drains (zero keeps every
    /// traced reply). Untraced requests record nothing.
    pub slow_trace_threshold: Duration,
}

/// Capacity of the router's slow-query trace ring (reports, oldest
/// evicted first).
const TRACE_RING_CAP: usize = 64;

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shard_timeout: Duration::from_millis(500),
            connect_timeout: Duration::from_millis(200),
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(100),
            conns_per_downstream: 2,
            hedge: Some(HedgeConfig::default()),
            policy: FailurePolicy::Strict,
            queue_capacity: 4096,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            read_timeout: Duration::from_millis(20),
            write_timeout: Duration::from_secs(1),
            feedback: FeedbackConfig::default(),
            faults: None,
            health: HealthConfig::default(),
            slow_trace_threshold: Duration::from_millis(5),
        }
    }
}

/// Reply sink for one gathered request: either the policy-approved
/// (possibly degraded) merge, or a ready-to-send error response.
pub(crate) type GatherReply = Box<dyn FnOnce(Result<DegradedGather, Response>) + Send>;

struct GatherState {
    /// Slot per downstream; `None` after delivery means the shard
    /// failed.
    partials: Vec<Option<ShardPartial>>,
    delivered: Vec<bool>,
    remaining: usize,
    reply: Option<GatherReply>,
}

/// One scattered `Knn` in flight across the downstream pools: the
/// request's resolved search parameters, its per-shard delivery slots,
/// and the shared early-abandon seed each delivered partial tightens
/// for the calls still outstanding.
pub(crate) struct RouterGather {
    k: usize,
    metric: WeightedEuclidean,
    point: Vec<f64>,
    weights: Vec<f64>,
    /// Cross-shard early-abandon bound (f64 bits; CAS-tightened). A
    /// retry or hedge serialized after another shard finished carries
    /// the tightened bound — sound because a row subset's k-th best can
    /// only be ≥ the global k-th best.
    seed: AtomicU64,
    created: Instant,
    deadline: Instant,
    /// Per-shard hedge-fired latch (a shard is hedged at most once).
    hedged: Vec<AtomicBool>,
    done: AtomicBool,
    policy: FailurePolicy,
    /// Span collector for a traced request (`None` on the untraced hot
    /// path). Observes timestamps only; it can never change an answer.
    pub(crate) trace: Option<Arc<RequestTrace>>,
    state: Mutex<GatherState>,
}

impl RouterGather {
    #[allow(clippy::too_many_arguments)] // construction site is singular; a params struct would only rename the nine fields
    pub(crate) fn new(
        k: usize,
        metric: WeightedEuclidean,
        point: Vec<f64>,
        weights: Vec<f64>,
        shards: usize,
        deadline_in: Duration,
        policy: FailurePolicy,
        trace: Option<Arc<RequestTrace>>,
        reply: GatherReply,
    ) -> Arc<Self> {
        let created = Instant::now();
        Arc::new(RouterGather {
            k,
            metric,
            point,
            weights,
            seed: AtomicU64::new(f64::INFINITY.to_bits()),
            created,
            deadline: created + deadline_in,
            hedged: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            done: AtomicBool::new(false),
            policy,
            trace,
            state: Mutex::new(GatherState {
                partials: (0..shards).map(|_| None).collect(),
                delivered: vec![false; shards],
                remaining: shards,
                reply: Some(reply),
            }),
        })
    }

    /// Absolute deadline every downstream call for this gather shares.
    pub(crate) fn deadline(&self) -> Instant {
        self.deadline
    }

    /// Whether `shard`'s slot has already been delivered (lets a hedge
    /// or straggling retry stand down without touching the wire).
    pub(crate) fn shard_resolved(&self, shard: usize) -> bool {
        self.done.load(Ordering::Acquire)
            || self.state.lock().expect("gather lock").delivered[shard]
    }

    /// The `ShardKnn` frame for this gather, carrying the seed as
    /// currently tightened — built at send time so retries and hedges
    /// prune with everything already learned.
    pub(crate) fn shard_request(&self) -> Request {
        Request::ShardKnn {
            k: self.k as u32,
            seed: f64::from_bits(self.seed.load(Ordering::Acquire)),
            point: self.point.clone(),
            weights: self.weights.clone(),
        }
    }

    /// Deliver `shard`'s outcome. Duplicate deliveries (a hedge losing
    /// to its primary, a backstop racing a worker) are dropped; returns
    /// whether this call was the one recorded. The final delivery
    /// merges under the failure policy and fires the reply.
    pub(crate) fn complete_shard(
        &self,
        shard: usize,
        outcome: Result<ShardPartial, String>,
    ) -> bool {
        let fire: Option<(GatherReply, Vec<Option<ShardPartial>>)> = {
            let mut state = self.state.lock().expect("gather lock");
            if state.delivered[shard] {
                return false;
            }
            state.delivered[shard] = true;
            state.remaining -= 1;
            if let Ok(partial) = outcome {
                if let Some(bound) = partial.bound_key(self.k) {
                    self.tighten_seed(bound);
                }
                state.partials[shard] = Some(partial);
            }
            if state.remaining == 0 {
                self.done.store(true, Ordering::Release);
                let reply = state.reply.take();
                let partials = std::mem::take(&mut state.partials);
                reply.map(|r| (r, partials))
            } else {
                None
            }
        };
        if let Some((reply, partials)) = fire {
            // The last slot just resolved: everything from here (the
            // policy merge, session bookkeeping, reply encode + write)
            // is merge time.
            if let Some(trace) = &self.trace {
                trace.note_gathered();
            }
            reply(self.merge(&partials));
        }
        true
    }

    /// Record `shard`'s span on a traced gather (no-op otherwise):
    /// `started` is when the leg's wire work began (`None` for legs
    /// that never touched the wire — fast degrades, backstops — which
    /// report zero times). Call **before** the matching
    /// [`Self::complete_shard`] so the delivery that fires the reply
    /// already sees the span; duplicate recordings for a shard (a
    /// losing leg racing the winner) are dropped by the collector.
    pub(crate) fn trace_span(&self, shard: usize, started: Option<Instant>, flags: u8) {
        if let Some(trace) = &self.trace {
            let (queue_ns, busy_ns) = match started {
                Some(s) => (
                    s.saturating_duration_since(trace.t0()).as_nanos() as u64,
                    s.elapsed().as_nanos() as u64,
                ),
                None => (0, 0),
            };
            trace.add_span(ShardSpan {
                shard: shard as u32,
                queue_ns,
                busy_ns,
                batch_fill: 0,
                flags,
            });
        }
    }

    /// CAS-tighten the shared early-abandon bound.
    fn tighten_seed(&self, bound: f64) {
        let mut current = self.seed.load(Ordering::Acquire);
        while bound < f64::from_bits(current) {
            match self.seed.compare_exchange_weak(
                current,
                bound.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(now) => current = now,
            }
        }
    }

    /// Fold the delivered partials under the failure policy into the
    /// reply outcome.
    fn merge(&self, partials: &[Option<ShardPartial>]) -> Result<DegradedGather, Response> {
        // Every downstream must scan in the same mode; a deployment
        // mixing selection spaces would make the merge meaningless, so
        // refuse it as a typed error instead of panicking the merge.
        let mut space: Option<bool> = None;
        for partial in partials.iter().flatten() {
            if partial.entries().is_empty() {
                continue;
            }
            match space {
                None => space = Some(partial.is_finished()),
                Some(f) if f != partial.is_finished() => {
                    return Err(err(
                        ErrorCode::Internal,
                        "downstream shards disagree on scan mode; partials are unmergeable",
                    ));
                }
                Some(_) => {}
            }
        }
        merge_partials_policy(partials, self.k, &self.metric, self.policy)
            .map_err(|ge| err(ErrorCode::ShardUnavailable, ge.to_string()))
    }
}

/// Everything the router threads share.
struct RouterShared {
    store: SessionStore,
    cfg: RouterConfig,
    downstreams: Vec<Arc<Downstream>>,
    /// Sum of the downstream row counts (== the router collection).
    total_rows: usize,
    /// In-flight upstream `Knn` requests (admission bound).
    inflight: AtomicUsize,
    metrics: Arc<Metrics>,
    degraded_replies: AtomicU64,
    /// Live gathers, swept for hedges and backstop delivery.
    gathers: Mutex<Vec<Arc<RouterGather>>>,
    next_conn: AtomicU64,
    /// Trace-id source for traced requests (per-router unique).
    next_trace: AtomicU64,
    /// Slow-query trace ring, drained by `GetTraces`.
    traces: TraceRing,
    shutdown: AtomicBool,
}

impl RouterShared {
    /// Router stats: the shared serving counters plus the six
    /// router-tier fields summed over the downstream pools.
    fn stats(&self) -> crate::protocol::StatsSnapshot {
        let mut snap = self.metrics.snapshot(self.store.count());
        for ds in &self.downstreams {
            snap.downstream_timeouts += ds.stats.timeouts.load(Ordering::Relaxed);
            snap.downstream_retries += ds.stats.retries.load(Ordering::Relaxed);
            snap.downstream_reconnects += ds.stats.reconnects.load(Ordering::Relaxed);
            snap.hedges_fired += ds.stats.hedges_fired.load(Ordering::Relaxed);
            snap.hedges_won += ds.stats.hedges_won.load(Ordering::Relaxed);
        }
        snap.degraded_replies = self.degraded_replies.load(Ordering::Relaxed);
        snap.health = self
            .downstreams
            .iter()
            .map(|ds| DownstreamHealth {
                shard: ds.shard as u32,
                state: ds.health.state(),
                ejections: ds.health.ejections.load(Ordering::Relaxed),
                readmissions: ds.health.readmissions.load(Ordering::Relaxed),
                probe_failures: ds.health.probe_failures.load(Ordering::Relaxed),
                fast_degrades: ds.health.fast_degrades.load(Ordering::Relaxed),
            })
            .collect();
        snap
    }
}

/// Handle to a running router: address, live stats, graceful shutdown.
/// Dropping the handle shuts the router down and joins every thread.
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    accept: Option<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl RouterHandle {
    /// The bound upstream address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stats snapshot: the serving counters plus the router-tier
    /// robustness counters summed over the downstream pools (same
    /// numbers the wire `SnapshotStats` reports).
    pub fn stats(&self) -> crate::protocol::StatsSnapshot {
        self.shared.stats()
    }

    /// Graceful shutdown: stop accepting, fail the in-flight gathers,
    /// drain and join every pool worker and connection thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for ds in &self.shared.downstreams {
            ds.shutdown();
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        for h in conns {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.sweeper.take() {
            let _ = h.join();
        }
        if let Some(h) = self.prober.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        if self.accept.is_some() || self.sweeper.is_some() || self.prober.is_some() {
            self.shutdown_inner();
        }
    }
}

/// Bind `addr` and start routing over the given downstream shard
/// servers. `coll` is the **full** collection (the router's session
/// tier reads judged rows from it); each downstream must serve one
/// contiguous slice of it with a matching
/// [`crate::ServerConfig::row_offset`]. Startup probes every
/// downstream and fails unless the slices tile `coll` exactly — all
/// downstreams must be reachable to start (a router that cannot see
/// its shards has nothing to serve).
pub fn route(
    addr: impl ToSocketAddrs,
    downstreams: &[SocketAddr],
    coll: Arc<Collection>,
    bypass: SharedBypass,
    cfg: RouterConfig,
) -> io::Result<RouterHandle> {
    if downstreams.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a router needs at least one downstream shard server",
        ));
    }
    // Probe: every shard must be reachable, dimensionally compatible,
    // and the row slices must tile the collection in order — the
    // precondition of healthy-path bit-identity with in-process
    // sharding.
    let mut expected_offset: u64 = 0;
    // The validated per-shard tiling, kept so re-admission probes can
    // re-check a restarted shard against exactly what startup accepted.
    let mut tilings: Vec<(u64, u64, u32)> = Vec::with_capacity(downstreams.len());
    for (shard, ds_addr) in downstreams.iter().enumerate() {
        let resp = control_call(
            ds_addr,
            &Request::ShardInfo,
            cfg.connect_timeout,
            cfg.shard_timeout.max(Duration::from_millis(100)),
            cfg.max_frame_len,
        )
        .map_err(|e| io::Error::new(e.kind(), format!("probe shard {shard} ({ds_addr}): {e}")))?;
        let (rows, offset, dim) = match resp {
            Response::ShardInfoResult { rows, offset, dim } => (rows, offset, dim),
            other => {
                return Err(io::Error::other(format!(
                    "shard {shard} unexpected probe reply: {other:?}"
                )));
            }
        };
        tilings.push((rows, offset, dim));
        if dim as usize != coll.dim() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "shard {shard} serves dim {dim}, router collection is dim {}",
                    coll.dim()
                ),
            ));
        }
        if offset != expected_offset {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shard {shard} starts at row {offset}, expected {expected_offset}"),
            ));
        }
        expected_offset += rows;
    }
    if expected_offset != coll.len() as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "downstream slices cover {expected_offset} rows, router collection has {}",
                coll.len()
            ),
        ));
    }

    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let pool_cfg = PoolConfig {
        connect_timeout: cfg.connect_timeout,
        read_slice: Duration::from_millis(5),
        write_timeout: cfg.write_timeout,
        backoff_base: cfg.backoff_base,
        backoff_max: cfg.backoff_max,
        max_frame_len: cfg.max_frame_len,
        workers: cfg.conns_per_downstream.max(1),
    };
    let pools: Vec<Arc<Downstream>> = downstreams
        .iter()
        .enumerate()
        .map(|(shard, ds_addr)| {
            Downstream::new(
                shard,
                *ds_addr,
                pool_cfg.clone(),
                cfg.faults.clone(),
                cfg.health.clone(),
                tilings[shard],
            )
        })
        .collect();
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    for pool in &pools {
        workers.extend(pool.spawn_workers());
    }

    let metrics = Arc::new(Metrics::new(pools.len() as u64));
    let store = SessionStore::new(
        Arc::clone(&coll),
        bypass,
        cfg.feedback.clone(),
        Arc::clone(&metrics),
    );
    let cfg_trace_threshold = cfg.slow_trace_threshold;
    let shared = Arc::new(RouterShared {
        store,
        total_rows: coll.len(),
        cfg,
        downstreams: pools,
        inflight: AtomicUsize::new(0),
        metrics,
        degraded_replies: AtomicU64::new(0),
        gathers: Mutex::new(Vec::new()),
        next_conn: AtomicU64::new(1),
        next_trace: AtomicU64::new(1),
        traces: TraceRing::new(TRACE_RING_CAP, cfg_trace_threshold),
        shutdown: AtomicBool::new(false),
    });

    let sweeper = std::thread::spawn({
        let shared = Arc::clone(&shared);
        move || run_sweeper(&shared)
    });
    let prober = std::thread::spawn({
        let shared = Arc::clone(&shared);
        move || run_prober(&shared)
    });

    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept = std::thread::spawn({
        let shared = Arc::clone(&shared);
        let conns = Arc::clone(&conns);
        move || {
            for stream in listener.incoming() {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match stream {
                    Ok(s) => s,
                    Err(_) => {
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    }
                };
                let shared = Arc::clone(&shared);
                let handle = std::thread::spawn(move || handle_connection(stream, &shared));
                let mut conns = conns.lock().expect("conns lock");
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
        }
    });

    Ok(RouterHandle {
        addr,
        shared,
        accept: Some(accept),
        sweeper: Some(sweeper),
        prober: Some(prober),
        workers,
        conns,
    })
}

/// Sweeper tick interval: hedge-fire and backstop granularity.
const SWEEP_TICK: Duration = Duration::from_millis(1);

/// Periodic gather maintenance: fire hedges at straggling shards,
/// backstop-fail any slot still undelivered well past its deadline
/// (workers normally classify their own timeouts; the backstop bounds
/// even a lost job), and prune finished gathers.
fn run_sweeper(shared: &Arc<RouterShared>) {
    let grace = shared.cfg.connect_timeout + Duration::from_millis(100);
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(SWEEP_TICK);
        let live: Vec<Arc<RouterGather>> = {
            let mut gathers = shared.gathers.lock().expect("gathers lock");
            gathers.retain(|g| !g.done.load(Ordering::Acquire));
            gathers.clone()
        };
        let now = Instant::now();
        for gather in &live {
            if let Some(hedge) = &shared.cfg.hedge {
                fire_due_hedges(shared, gather, hedge, now);
            }
            if now >= gather.deadline() + grace {
                for shard in 0..shared.downstreams.len() {
                    if !gather.shard_resolved(shard) {
                        gather.trace_span(shard, None, SPAN_FAILED);
                        gather.complete_shard(
                            shard,
                            Err(format!(
                                "shard {shard} undelivered past deadline (backstop)"
                            )),
                        );
                    }
                }
            }
        }
    }
    // Shutdown: every live gather must still resolve exactly once. The
    // pools fail their queued jobs; anything left undelivered is
    // backstopped here.
    let live: Vec<Arc<RouterGather>> =
        std::mem::take(&mut *shared.gathers.lock().expect("gathers lock"));
    for gather in live {
        for shard in 0..shared.downstreams.len() {
            if !gather.shard_resolved(shard) {
                gather.complete_shard(shard, Err("router shutting down".into()));
            }
        }
    }
}

/// Prober tick interval: how often ejected downstreams are checked for
/// a due re-admission probe.
const PROBE_TICK: Duration = Duration::from_millis(2);

/// Background health maintenance: re-probe ejected downstreams at their
/// backed-off schedule — the only path back into the scatter set.
fn run_prober(shared: &Arc<RouterShared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(PROBE_TICK);
        let now = Instant::now();
        for ds in &shared.downstreams {
            if ds.health.take_due_probe(now) {
                probe_one(shared, ds);
            }
        }
    }
}

/// One re-admission probe against an ejected downstream (the tracker
/// just moved it `Ejected → Probing`): `ShardInfo` must answer **and**
/// report exactly the tiling startup validated — a restarted shard
/// serving different rows would silently break the key-space merge.
/// The success that completes the re-admission quorum returns the
/// shard to `Healthy`. Nothing else is checked or pushed: a shard only
/// ever answers `ShardKnn` under the `(point, weights)` the router
/// sends, so its own learned module plays no part in its answers.
fn probe_one(shared: &Arc<RouterShared>, ds: &Arc<Downstream>) {
    // A scripted outage refuses control calls too (a dead host refuses
    // every call class).
    if matches!(ds.control_fault(), Some(FaultMode::Down { .. })) {
        ds.health.probe_failed(Instant::now());
        return;
    }
    let cfg = &shared.cfg;
    let resp = control_call(
        &ds.addr,
        &Request::ShardInfo,
        cfg.connect_timeout,
        cfg.shard_timeout.max(Duration::from_millis(100)),
        cfg.max_frame_len,
    );
    let tiling_ok = matches!(
        resp,
        Ok(Response::ShardInfoResult { rows, offset, dim }) if (rows, offset, dim) == ds.expected
    );
    if tiling_ok {
        ds.health.probe_succeeded(Instant::now());
    } else {
        ds.health.probe_failed(Instant::now());
    }
}

/// Enqueue a hedge for every shard of `gather` that is past its
/// downstream's hedge delay and still silent (at most once per shard).
fn fire_due_hedges(
    shared: &Arc<RouterShared>,
    gather: &Arc<RouterGather>,
    hedge: &HedgeConfig,
    now: Instant,
) {
    for ds in &shared.downstreams {
        let shard = ds.shard;
        if gather.hedged[shard].load(Ordering::Relaxed) || gather.shard_resolved(shard) {
            continue;
        }
        if !ds.health.admits_scatter() {
            // An ejected shard's slot was (or will be) failed instantly;
            // a hedge would only queue a job that bails.
            continue;
        }
        let delay = ds
            .stats
            .p99()
            .map(|p| p.clamp(hedge.min_delay, hedge.max_delay))
            .unwrap_or(hedge.max_delay);
        if now < gather.created + delay {
            continue;
        }
        if gather.hedged[shard].swap(true, Ordering::Relaxed) {
            continue; // another tick raced us
        }
        ds.stats.hedges_fired.fetch_add(1, Ordering::Relaxed);
        // The hedge-fired bit lands on whichever leg's span ultimately
        // resolves the shard (stashed until the span arrives).
        if let Some(trace) = &gather.trace {
            trace.flag_shard(shard as u32, SPAN_HEDGE_FIRED);
        }
        ds.enqueue(Job {
            gather: Arc::clone(gather),
            hedge: true,
        });
    }
}

/// Upstream read→handle→reply loop — the same framing discipline as the
/// flat server's (see [`crate::serve`]), with `Knn` deferred to the
/// downstream gather instead of an in-process batcher.
fn handle_connection(stream: TcpStream, shared: &Arc<RouterShared>) {
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let writer: Arc<Mutex<TcpStream>> = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = io::BufReader::with_capacity(16 * 1024, stream);
    let mut owned_sessions: Vec<u64> = Vec::new();
    // Same negotiation state as the flat server: v1 until a `Hello`
    // raises it, so v2-only opcodes are refused on un-negotiated
    // connections and v1 traffic stays byte-for-byte unchanged.
    let mut version: u8 = 1;
    loop {
        let mut keep_waiting = || !shared.shutdown.load(Ordering::SeqCst);
        match read_frame(&mut reader, shared.cfg.max_frame_len, &mut keep_waiting) {
            Ok(None) => break,
            Ok(Some(payload)) => {
                let response = match Request::decode(&payload) {
                    Ok(req) => handle_request(
                        req,
                        shared,
                        &writer,
                        conn_id,
                        &mut owned_sessions,
                        &mut version,
                    ),
                    Err(e) => {
                        shared.metrics.record_protocol_error();
                        let code = match e {
                            DecodeError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
                            _ => ErrorCode::BadFrame,
                        };
                        Some(Response::Error {
                            code,
                            message: e.to_string(),
                        })
                    }
                };
                if let Some(response) = response {
                    if write_response(&writer, &response).is_err() {
                        break;
                    }
                }
            }
            Err(FrameError::Oversized { len, max }) => {
                shared.metrics.record_protocol_error();
                let resp = Response::Error {
                    code: ErrorCode::BadFrame,
                    message: format!("frame of {len} bytes exceeds the {max}-byte maximum"),
                };
                let _ = write_response(&writer, &resp);
                break;
            }
            Err(FrameError::Io(e)) => {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    shared.metrics.record_protocol_error();
                }
                break;
            }
        }
    }
    shared.store.drop_owned(&owned_sessions);
}

/// One reply frame under the connection's write lock.
fn write_response(writer: &Mutex<TcpStream>, response: &Response) -> io::Result<()> {
    let mut w = writer.lock().expect("writer lock");
    write_frame(&mut *w, &response.encode())
}

/// Serve one decoded upstream request; `None` means the reply was
/// deferred to the gather's final delivery.
fn handle_request(
    req: Request,
    shared: &Arc<RouterShared>,
    writer: &Arc<Mutex<TcpStream>>,
    conn_id: u64,
    owned: &mut Vec<u64>,
    version: &mut u8,
) -> Option<Response> {
    match req {
        Request::Hello { version: client } => Some(if client == 0 {
            shared.metrics.record_protocol_error();
            err(ErrorCode::BadRequest, "protocol version 0 is not valid")
        } else {
            *version = client.min(PROTOCOL_VERSION);
            Response::HelloAck { version: *version }
        }),
        Request::OpenSession => {
            let id = shared.store.open(conn_id);
            owned.push(id);
            Some(Response::SessionOpened {
                session: id,
                dim: shared.store.coll().dim() as u32,
            })
        }
        Request::Knn { session, k, query } => handle_router_knn(
            shared,
            writer,
            conn_id,
            session,
            k,
            query,
            ExampleSets::default(),
            false,
        ),
        Request::KnnV2 {
            session,
            k,
            alpha,
            beta,
            gamma,
            clamp,
            trace,
            anchor,
            positives,
            negatives,
        } => {
            if *version < 2 {
                shared.metrics.record_protocol_error();
                return Some(err(
                    ErrorCode::BadRequest,
                    "KnnV2 requires a negotiated protocol version >= 2 (send Hello first)",
                ));
            }
            let spec = match QuerySpec::builder(anchor)
                .positives(positives)
                .negatives(negatives)
                .rocchio(RocchioWeights::new(alpha, beta, gamma))
                .clamp_to_zero(clamp)
                .build()
            {
                Ok(spec) => spec,
                Err(e) => {
                    shared.metrics.record_protocol_error();
                    return Some(err(error_code_for(&e), e.to_string()));
                }
            };
            // Lower once at the router: the scatter below carries the
            // derived anchor in plain `ShardKnn` frames, so downstream
            // shard servers need zero changes for multi-example
            // queries.
            let examples = ExampleSets {
                positives: spec.positives().to_vec(),
                negatives: spec.negatives().to_vec(),
            };
            let derived = spec.lower().into_request().point;
            // Same rule as the flat server: the trace bit is honored
            // only at a negotiated v3+, ignored otherwise.
            let traced = trace && *version >= 3;
            handle_router_knn(
                shared, writer, conn_id, session, k, derived, examples, traced,
            )
        }
        Request::Feedback { session, relevant } => {
            Some(shared.store.feedback(conn_id, session, relevant))
        }
        Request::SnapshotStats => Some(Response::Stats(Box::new(shared.stats()))),
        Request::GetTraces { max } => {
            if *version < 3 {
                shared.metrics.record_protocol_error();
                return Some(err(
                    ErrorCode::BadRequest,
                    "GetTraces requires a negotiated protocol version >= 3 (send Hello first)",
                ));
            }
            Some(Response::TraceList {
                traces: shared.traces.drain(max),
            })
        }
        Request::Close { session } => {
            let removed = shared.store.close(session, conn_id);
            owned.retain(|&id| id != session);
            Some(if removed {
                Response::Closed
            } else {
                err(ErrorCode::UnknownSession, format!("session {session}"))
            })
        }
        // The router is a front-end, not a shard server: it has no
        // local rows to answer a sessionless shard-local scan over.
        Request::ShardKnn { .. } => {
            shared.metrics.record_protocol_error();
            Some(err(
                ErrorCode::BadRequest,
                "ShardKnn targets a shard server, not a router",
            ))
        }
        Request::ShardInfo => Some(Response::ShardInfoResult {
            rows: shared.total_rows as u64,
            offset: 0,
            dim: shared.store.coll().dim() as u32,
        }),
        Request::SnapshotModule => Some(Response::ModuleImage {
            image: shared.store.bypass().to_bytes(),
        }),
        Request::RestoreModule { image } => Some(shared.store.restore_module(&image)),
    }
}

/// `Knn` (and lowered `KnnV2`) upstream: resolve the session's learned
/// parameters, admit, and scatter one `ShardKnn` job into every
/// downstream pool; the last delivered slot merges under the failure
/// policy and writes the reply (degraded answers flagged with their
/// missing shards). `query` is the (possibly derived) anchor point and
/// `examples` the spec's example sets (empty for v1). With `traced`
/// set, a [`RequestTrace`] rides the gather — per-downstream RTT spans,
/// hedge and fast-degrade attribution — and the reply carries the
/// stage-timing trailer; everything else is bit-identical.
#[allow(clippy::too_many_arguments)]
fn handle_router_knn(
    shared: &Arc<RouterShared>,
    writer: &Arc<Mutex<TcpStream>>,
    conn_id: u64,
    session: u64,
    k: u32,
    query: Vec<f64>,
    examples: ExampleSets,
    traced: bool,
) -> Option<Response> {
    let dim = shared.store.coll().dim();
    if query.len() != dim {
        shared.metrics.record_protocol_error();
        return Some(err(
            ErrorCode::DimMismatch,
            format!("expected {dim}, got {}", query.len()),
        ));
    }
    let k = (k as usize).min(shared.total_rows);
    let (point, weights) = match shared.store.resolve_knn(conn_id, session, query, examples) {
        Ok(params) => params,
        Err(resp) => return Some(resp),
    };
    let req = KnnRequest {
        point,
        weights,
        k: Some(k),
        precision: None,
    };
    // Build the metric once at admission — the downstream scatter and
    // the final merge share it (and the validation), exactly like the
    // in-process scatter path.
    let metric = match req.metric(dim) {
        Ok(m) => m,
        Err(e) => {
            shared.metrics.record_protocol_error();
            return Some(err(ErrorCode::BadRequest, e.to_string()));
        }
    };

    // Ejected shards are out of the scatter set up front (the
    // fast-degrade rule): under `Strict` the request is refused here —
    // no downstream work, no `shard_timeout` paid — and under
    // `Degraded` their slots fail instantly below so the survivors
    // merge immediately.
    let ejected: Vec<usize> = shared
        .downstreams
        .iter()
        .filter(|ds| !ds.health.admits_scatter())
        .map(|ds| ds.shard)
        .collect();
    if !ejected.is_empty() && shared.cfg.policy == FailurePolicy::Strict {
        for ds in &shared.downstreams {
            if !ds.health.admits_scatter() {
                ds.health.note_fast_degrade();
            }
        }
        return Some(err(
            ErrorCode::ShardUnavailable,
            format!("shards {ejected:?} ejected from the scatter set"),
        ));
    }

    if shared.inflight.fetch_add(1, Ordering::AcqRel) >= shared.cfg.queue_capacity {
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
        return Some(err(ErrorCode::Busy, "router queue full"));
    }
    shared.metrics.record_request();

    // Admission is t0: every downstream span and the gather/merge split
    // measure offsets from this one monotonic clock.
    let req_trace =
        traced.then(|| RequestTrace::new(shared.next_trace.fetch_add(1, Ordering::Relaxed)));

    let reply: GatherReply = {
        let shared = Arc::clone(shared);
        let writer = Arc::clone(writer);
        let req_trace = req_trace.clone();
        Box::new(move |outcome: Result<DegradedGather, Response>| {
            shared.inflight.fetch_sub(1, Ordering::AcqRel);
            let response = match outcome {
                Ok(gathered) => {
                    let (mut flags, cycles) = shared.store.finish_knn(session, &gathered.neighbors);
                    if gathered.is_degraded() {
                        flags |= KNN_DEGRADED;
                        shared.degraded_replies.fetch_add(1, Ordering::Relaxed);
                    }
                    // Fold the trace last, right before encode; error
                    // replies (including Strict refusals) carry none.
                    let trace = req_trace.as_ref().map(|t| {
                        let report = t.finish();
                        shared.traces.record(&report);
                        Box::new(report)
                    });
                    if trace.is_some() {
                        flags |= KNN_TRACED;
                    }
                    Response::KnnResult {
                        flags,
                        cycles,
                        missing_shards: gathered.missing_shards,
                        trace,
                        neighbors: gathered.neighbors,
                    }
                }
                Err(resp) => resp,
            };
            if write_response(&writer, &response).is_err() {
                let w = writer.lock().expect("writer lock");
                let _ = w.shutdown(std::net::Shutdown::Both);
            }
        })
    };

    let gather = RouterGather::new(
        k,
        metric,
        req.point,
        req.weights,
        shared.downstreams.len(),
        shared.cfg.shard_timeout,
        shared.cfg.policy,
        req_trace,
        reply,
    );
    shared
        .gathers
        .lock()
        .expect("gathers lock")
        .push(Arc::clone(&gather));
    for ds in &shared.downstreams {
        if ds.health.admits_scatter() {
            ds.enqueue(Job {
                gather: Arc::clone(&gather),
                hedge: false,
            });
        } else {
            // Fast degrade: the ejected shard's slot fails instantly —
            // the survivors merge as soon as they answer, with the
            // shard reported in `missing_shards`, instead of every
            // request paying the full `shard_timeout` for a shard known
            // to be dead.
            ds.health.note_fast_degrade();
            gather.trace_span(ds.shard, None, SPAN_FAST_DEGRADED | SPAN_FAILED);
            gather.complete_shard(
                ds.shard,
                Err(format!("shard {} ejected from the scatter set", ds.shard)),
            );
        }
    }
    None
}
