//! The shard-router serving tier: a front-end that speaks the same
//! client protocol as a flat server upstream, and scatters each `Knn`
//! as sessionless `ShardKnn` frames to **remote shard servers**
//! downstream, gathering their partials with a key-space merge
//! ([`merge_partials_policy`]) — **bit-identical** to one flat server
//! over the whole collection while every shard is healthy.
//!
//! ## What the router backend adds
//!
//! The connection layer — accept loop, framing, sessions, `Knn`
//! admission and the reply sink — is the shared front-end in
//! [`crate::frontend`]. The router's [`Backend`] adds the scatter into
//! the downstream pools ([`RouterGather`], merged under the failure
//! policy, replies flagged degraded when shards are missing), the
//! `Strict` fast refusal ahead of admission while a shard is ejected,
//! a `BadRequest` refusal of `ShardKnn` (a router has no local rows),
//! and the downstream-pool and per-shard health fields of its stats.
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

use crate::batcher::Load;
use crate::faults::{FaultMode, FaultPlan};
use crate::frontend::{Backend, FrontEnd, Limits, ReplySink, Running, Search};
use crate::health::HealthConfig;
use crate::metrics::Metrics;
use crate::pool::{control_call, Downstream, Job, PoolConfig};
use crate::protocol::{
    DownstreamHealth, ErrorCode, Request, Response, ShardSpan, StatsSnapshot,
    DEFAULT_MAX_FRAME_LEN, SPAN_FAILED, SPAN_FAST_DEGRADED, SPAN_HEDGE_FIRED,
};
use crate::sessions::{err, SessionStore};
use fbp_vecdb::{merge_partials_policy, Collection, DegradedGather, FailurePolicy, ShardPartial};
use feedbackbypass::{FeedbackConfig, SharedBypass};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// One scattered `Knn` in flight across the downstream pools: the
/// admitted search, one delivery slot per shard, the early-abandon seed
/// each delivered partial tightens for the calls still outstanding, and
/// the deadline and hedge state the pools and the sweeper act on.
pub(crate) struct RouterGather {
    /// The admitted search: point, metric and `k`, resolved once at
    /// admission and shared by every downstream call and the final
    /// merge. Its trace collector (`None` on the untraced hot path)
    /// only observes timestamps, so it can never change the answer.
    pub(crate) search: Search,
    /// Cross-shard pruning seed: the tightest known upper bound on this
    /// request's global k-th key (f64 bits, starts at `+∞`), tightened
    /// from every delivered partial's [`ShardPartial::bound_key`]. A
    /// retry or hedge sent after another shard answered prunes against
    /// a near-global bound instead of its looser local one, and the
    /// bound is provably ≥ the global k-th, so it never changes the
    /// merged answer.
    seed: AtomicU64,
    /// Set when the last slot resolved.
    done: AtomicBool,
    state: Mutex<GatherState>,
    created: Instant,
    deadline: Instant,
    /// Per-shard hedge-fired latch (a shard is hedged at most once).
    hedged: Vec<AtomicBool>,
    policy: FailurePolicy,
}

struct GatherState {
    /// Delivered partials by shard index (`None` for failed shards).
    partials: Vec<Option<ShardPartial>>,
    /// Per-shard delivery marker (a shard delivers exactly once; the
    /// marker makes duplicate deliveries harmless instead of fatal).
    delivered: Vec<bool>,
    /// Shards still outstanding.
    remaining: usize,
    /// Taken by the completing delivery.
    reply: Option<ReplySink>,
}

impl RouterGather {
    /// New gather awaiting `shards` partials. `reply` is invoked exactly
    /// once, by whichever thread delivers the last partial.
    pub(crate) fn new(
        search: Search,
        shards: usize,
        deadline_in: Duration,
        policy: FailurePolicy,
        reply: ReplySink,
    ) -> Arc<Self> {
        let created = Instant::now();
        Arc::new(RouterGather {
            search,
            seed: AtomicU64::new(f64::INFINITY.to_bits()),
            done: AtomicBool::new(false),
            state: Mutex::new(GatherState {
                partials: (0..shards).map(|_| None).collect(),
                delivered: vec![false; shards],
                remaining: shards,
                reply: Some(reply),
            }),
            created,
            deadline: created + deadline_in,
            hedged: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            policy,
        })
    }

    /// The current pruning seed for this request (`+∞` until some
    /// shard delivered a full k-best).
    fn seed(&self) -> f64 {
        f64::from_bits(self.seed.load(Ordering::Acquire))
    }

    /// Tighten the seed to `min(current, bound)` (lock-free; seeds only
    /// ever decrease).
    fn offer_seed(&self, bound: f64) {
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

    /// Whether every slot has resolved.
    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Whether `shard`'s slot has already been delivered (lets a hedge
    /// or straggling retry stand down without touching the wire).
    pub(crate) fn resolved(&self, shard: usize) -> bool {
        self.is_done() || self.state.lock().expect("gather lock").delivered[shard]
    }

    /// Absolute deadline every downstream call for this gather shares.
    pub(crate) fn deadline(&self) -> Instant {
        self.deadline
    }

    /// The `ShardKnn` frame for this gather, carrying the seed as
    /// currently tightened — built at send time so retries and hedges
    /// prune with everything already learned.
    pub(crate) fn shard_request(&self) -> Request {
        let search = &self.search;
        Request::ShardKnn {
            k: search.k as u32,
            seed: self.seed(),
            point: search.req.point.clone(),
            weights: search.req.weights.clone(),
        }
    }

    /// Record `shard`'s outcome (`None`, a failed call, leaves its slot
    /// empty for the failure policy to judge); returns whether this call
    /// was the one recorded. Duplicate deliveries (a hedge losing to its
    /// primary, a backstop racing a worker) are dropped. The delivery
    /// that resolves the last slot merges the partials under the
    /// failure policy (outside the lock) and fires the reply.
    pub(crate) fn complete_shard(&self, shard: usize, outcome: Option<ShardPartial>) -> bool {
        let fire = {
            let mut g = self.state.lock().expect("gather lock");
            if g.delivered[shard] {
                return false;
            }
            g.delivered[shard] = true;
            if let Some(partial) = outcome {
                if let Some(bound) = partial.bound_key(self.search.k) {
                    self.offer_seed(bound);
                }
                g.partials[shard] = Some(partial);
            }
            g.remaining -= 1;
            if g.remaining == 0 {
                self.done.store(true, Ordering::Release);
                g.reply
                    .take()
                    .map(|reply| (reply, std::mem::take(&mut g.partials)))
            } else {
                None
            }
        };
        if let Some((reply, partials)) = fire {
            // The last slot just resolved: everything from here (merge,
            // session bookkeeping, reply encode + write) is merge time.
            if let Some(trace) = &self.search.trace {
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
        if let Some(trace) = &self.search.trace {
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
        let search = &self.search;
        merge_partials_policy(partials, search.k, &search.metric, self.policy)
            .map_err(|ge| err(ErrorCode::ShardUnavailable, ge.to_string()))
    }
}

/// The router's backend: its configuration, the downstream pools, and
/// the live gathers the sweeper watches.
struct Router {
    cfg: RouterConfig,
    downstreams: Vec<Arc<Downstream>>,
    /// Live gathers, swept for hedges and backstop delivery.
    gathers: Mutex<Vec<Arc<RouterGather>>>,
}

/// Handle to a running router: address, live stats, graceful shutdown.
/// Dropping the handle shuts the router down and joins every thread.
pub struct RouterHandle(Running<Router>);

impl RouterHandle {
    /// The bound upstream address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.addr
    }

    /// Stats snapshot: the serving counters plus the router-tier
    /// robustness counters summed over the downstream pools (same
    /// numbers the wire `SnapshotStats` reports).
    pub fn stats(&self) -> StatsSnapshot {
        self.0.front.stats()
    }

    /// Graceful shutdown: stop accepting, fail the in-flight gathers,
    /// drain and join every pool worker and connection thread.
    pub fn shutdown(self) {
        drop(self);
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
    // precondition of healthy-path bit-identity with one flat server.
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
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    for pool in &pools {
        threads.extend(pool.spawn_workers());
    }

    let metrics = Arc::new(Metrics::new(pools.len() as u64));
    let front = FrontEnd::new(
        SessionStore::new(coll, bypass, cfg.feedback.clone(), Arc::clone(&metrics)),
        metrics,
        Arc::new(Load::default()),
        Limits {
            queue_capacity: cfg.queue_capacity,
            max_frame_len: cfg.max_frame_len,
            read_timeout: cfg.read_timeout,
            write_timeout: cfg.write_timeout,
            slow_trace_threshold: cfg.slow_trace_threshold,
        },
        Router {
            cfg,
            downstreams: pools,
            gathers: Mutex::new(Vec::new()),
        },
    );

    threads.push(std::thread::spawn({
        let front = Arc::clone(&front);
        move || run_sweeper(&front)
    }));
    threads.push(std::thread::spawn({
        let front = Arc::clone(&front);
        move || run_prober(&front)
    }));
    Ok(RouterHandle(Running::start(listener, addr, front, threads)))
}

/// Sweeper tick interval: hedge-fire and backstop granularity.
const SWEEP_TICK: Duration = Duration::from_millis(1);

/// Periodic gather maintenance: fire hedges at straggling shards,
/// backstop-fail any slot still undelivered well past its deadline
/// (workers normally classify their own timeouts; the backstop bounds
/// even a lost job), and prune finished gathers.
fn run_sweeper(front: &FrontEnd<Router>) {
    let router = &front.backend;
    let grace = router.cfg.connect_timeout + Duration::from_millis(100);
    while !front.shutting_down() {
        std::thread::sleep(SWEEP_TICK);
        let live: Vec<Arc<RouterGather>> = {
            let mut gathers = router.gathers.lock().expect("gathers lock");
            gathers.retain(|g| !g.is_done());
            gathers.clone()
        };
        let now = Instant::now();
        for gather in &live {
            if let Some(hedge) = &router.cfg.hedge {
                fire_due_hedges(router, gather, hedge, now);
            }
            if now >= gather.deadline() + grace {
                for shard in 0..router.downstreams.len() {
                    if !gather.resolved(shard) {
                        gather.trace_span(shard, None, SPAN_FAILED);
                        gather.complete_shard(shard, None);
                    }
                }
            }
        }
    }
    // Shutdown: every live gather must still resolve exactly once. The
    // pools fail their queued jobs; anything left undelivered is
    // backstopped here.
    let live: Vec<Arc<RouterGather>> =
        std::mem::take(&mut *router.gathers.lock().expect("gathers lock"));
    for gather in live {
        for shard in 0..router.downstreams.len() {
            if !gather.resolved(shard) {
                gather.complete_shard(shard, None);
            }
        }
    }
}

/// Prober tick interval: how often ejected downstreams are checked for
/// a due re-admission probe.
const PROBE_TICK: Duration = Duration::from_millis(2);

/// Background health maintenance: re-probe ejected downstreams at their
/// backed-off schedule — the only path back into the scatter set.
fn run_prober(front: &FrontEnd<Router>) {
    while !front.shutting_down() {
        std::thread::sleep(PROBE_TICK);
        let now = Instant::now();
        for ds in &front.backend.downstreams {
            if ds.health.take_due_probe(now) {
                probe_one(&front.backend.cfg, ds);
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
fn probe_one(cfg: &RouterConfig, ds: &Downstream) {
    // A scripted outage refuses control calls too (a dead host refuses
    // every call class).
    if matches!(ds.control_fault(), Some(FaultMode::Down { .. })) {
        ds.health.probe_failed(Instant::now());
        return;
    }
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
fn fire_due_hedges(router: &Router, gather: &Arc<RouterGather>, hedge: &HedgeConfig, now: Instant) {
    for ds in &router.downstreams {
        let shard = ds.shard;
        if gather.hedged[shard].load(Ordering::Relaxed) || gather.resolved(shard) {
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
        if let Some(trace) = &gather.search.trace {
            trace.flag_shard(shard as u32, SPAN_HEDGE_FIRED);
        }
        ds.enqueue(Job {
            gather: Arc::clone(gather),
            hedge: true,
        });
    }
}

impl Backend for Router {
    const BUSY: &'static str = "router queue full";

    /// Ejected shards are out of the scatter set up front (the
    /// fast-degrade rule): under `Strict` the request is refused here —
    /// no downstream work, no `shard_timeout` paid. Under `Degraded`
    /// their slots fail instantly in [`Backend::scatter`] so the
    /// survivors merge immediately.
    fn refuse_early(&self) -> Option<Response> {
        if self.cfg.policy != FailurePolicy::Strict {
            return None;
        }
        let mut ejected: Vec<usize> = Vec::new();
        for ds in &self.downstreams {
            if !ds.health.admits_scatter() {
                ds.health.note_fast_degrade();
                ejected.push(ds.shard);
            }
        }
        (!ejected.is_empty()).then(|| {
            err(
                ErrorCode::ShardUnavailable,
                format!("shards {ejected:?} ejected from the scatter set"),
            )
        })
    }

    /// Scatter one `ShardKnn` job into every downstream pool; the last
    /// delivered slot merges under the failure policy and fires the
    /// reply (degraded answers carry their missing shards). A traced
    /// search records per-downstream RTT spans and hedge and
    /// fast-degrade attribution.
    fn scatter(&self, search: Search, reply: ReplySink) {
        let gather = RouterGather::new(
            search,
            self.downstreams.len(),
            self.cfg.shard_timeout,
            self.cfg.policy,
            reply,
        );
        self.gathers
            .lock()
            .expect("gathers lock")
            .push(Arc::clone(&gather));
        for ds in &self.downstreams {
            if ds.health.admits_scatter() {
                ds.enqueue(Job {
                    gather: Arc::clone(&gather),
                    hedge: false,
                });
            } else {
                // Fast degrade: the ejected shard's slot fails instantly
                // — the survivors merge as soon as they answer, with the
                // shard reported in `missing_shards`, instead of every
                // request paying the full `shard_timeout` for a shard
                // known to be dead.
                ds.health.note_fast_degrade();
                gather.trace_span(ds.shard, None, SPAN_FAST_DEGRADED | SPAN_FAILED);
                gather.complete_shard(ds.shard, None);
            }
        }
    }

    fn halt(&self) {
        for ds in &self.downstreams {
            ds.shutdown();
        }
    }

    /// The downstream-pool robustness counters summed over the pools,
    /// and one health row per shard.
    fn add_stats(&self, snap: &mut StatsSnapshot) {
        for ds in &self.downstreams {
            snap.downstream_timeouts += ds.stats.timeouts.load(Ordering::Relaxed);
            snap.downstream_retries += ds.stats.retries.load(Ordering::Relaxed);
            snap.downstream_reconnects += ds.stats.reconnects.load(Ordering::Relaxed);
            snap.hedges_fired += ds.stats.hedges_fired.load(Ordering::Relaxed);
            snap.hedges_won += ds.stats.hedges_won.load(Ordering::Relaxed);
        }
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::frontend::testing::{collection, module, storm, DIM};
    use crate::{serve, ServerConfig, ServerHandle};
    use fbp_vecdb::{CollectionBuilder, MultiQueryScan, QueryBatch, QueryMetrics, ScanMode};
    use feedbackbypass::KnnRequest;

    /// An untraced k = 5 search at `point` under the uniform metric.
    fn search(point: Vec<f64>) -> Search {
        let req = KnnRequest::uniform(point);
        let metric = req.metric(req.point.len()).unwrap();
        Search {
            req,
            metric,
            k: 5,
            trace: None,
        }
    }

    /// Every outcome a gather's reply sink fired with.
    type Fired = Arc<Mutex<Vec<crate::frontend::Outcome>>>;

    /// A gather whose reply lands in the returned list.
    fn gather(point: Vec<f64>, shards: usize) -> (Arc<RouterGather>, Fired) {
        let got = Arc::new(Mutex::new(Vec::new()));
        let gather = RouterGather::new(
            search(point),
            shards,
            Duration::from_secs(5),
            FailurePolicy::Strict,
            Box::new({
                let got = Arc::clone(&got);
                move |outcome| got.lock().unwrap().push(outcome)
            }),
        );
        (gather, got)
    }

    #[test]
    fn gather_fires_once_after_all_shards_any_order() {
        let (gather, got) = gather(vec![0.0, 0.0], 3);
        // Real partials, cut the way a router deployment cuts rows: one
        // keyed pass per two-row slice, offset to global rows.
        let mut b = CollectionBuilder::new();
        for i in 0..6 {
            b.push_unlabelled(&[i as f64, 0.0]).unwrap();
        }
        let coll = b.build();
        let metric = fbp_vecdb::WeightedEuclidean::uniform(2);
        let q: &[f64] = &[0.0, 0.0];
        let parts: Vec<ShardPartial> = (0..3)
            .map(|s| {
                let slice = coll.slice_rows(2 * s, 2 * s + 2);
                MultiQueryScan::with_mode(&slice, ScanMode::Batched)
                    .knn_keyed(&QueryBatch::new(&[q], QueryMetrics::Shared(&metric), 5))
                    .remove(0)
                    .offset(2 * s as u32)
            })
            .collect();
        // Out-of-order delivery; the reply fires exactly once, on the
        // last shard, and a duplicate delivery is dropped.
        assert!(gather.complete_shard(2, Some(parts[2].clone())));
        assert!(got.lock().unwrap().is_empty());
        assert!(gather.complete_shard(0, Some(parts[0].clone())));
        assert!(!gather.complete_shard(0, Some(parts[0].clone())));
        assert!(got.lock().unwrap().is_empty() && !gather.is_done());
        assert!(gather.complete_shard(1, Some(parts[1].clone())));
        assert!(gather.is_done() && gather.resolved(1));
        let mut outcomes = got.lock().unwrap();
        assert_eq!(outcomes.len(), 1);
        let merged = outcomes.pop().unwrap().unwrap().neighbors;
        let indices: Vec<u32> = merged.iter().map(|n| n.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
        assert!(merged.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn gather_propagates_shard_errors() {
        // Under `Strict`, a failed shard refuses the whole gather with a
        // typed error — never a silently narrowed answer.
        let (gather, got) = gather(vec![0.0], 2);
        let part = ShardPartial::from_entries(vec![(0.25, 0)], false).unwrap();
        gather.complete_shard(0, Some(part));
        gather.complete_shard(1, None);
        let outcome = got.lock().unwrap().pop().unwrap();
        match outcome {
            Err(Response::Error { code, message }) => {
                assert_eq!(code, ErrorCode::ShardUnavailable);
                assert!(
                    message.contains("[1]"),
                    "names the missing shard: {message}"
                );
            }
            _ => panic!("expected the shard error to refuse the gather"),
        }
    }

    /// The router twin of the shard server's test: after the storm, and
    /// after shutdown, neither load counter has leaked.
    #[test]
    fn vanishing_clients_leak_neither_load_counter() {
        let coll = Arc::new(collection());
        let half = coll.len() / 2;
        let shards: Vec<ServerHandle> = [(0, half), (half, coll.len())]
            .into_iter()
            .map(|(start, end)| {
                let slice = Arc::new(coll.slice_rows(start, end));
                let cfg = ServerConfig {
                    row_offset: start,
                    ..Default::default()
                };
                serve("127.0.0.1:0", slice, module(), cfg).unwrap()
            })
            .collect();
        let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.local_addr()).collect();
        // A capacity small enough that the storm also runs into `Busy`.
        let cfg = RouterConfig {
            queue_capacity: 2,
            ..Default::default()
        };
        let router = route("127.0.0.1:0", &addrs, coll, module(), cfg).unwrap();
        let load = Arc::clone(&router.0.front.load);
        storm(router.local_addr(), &load);

        let mut client = Client::connect(router.local_addr()).unwrap();
        let (session, _) = client.open_session().unwrap();
        let reply = client.knn(session, 3, &[0.5; DIM]).unwrap();
        assert_eq!(reply.neighbors.len(), 3);
        assert_eq!(load.counts(), (0, 1));

        // The shutdown exit: the connection is still open when the
        // router goes.
        router.shutdown();
        assert_eq!(load.counts(), (0, 0));
        for shard in shards {
            shard.shutdown();
        }
    }
}
