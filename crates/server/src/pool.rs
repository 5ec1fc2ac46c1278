//! Per-downstream connection pools for the router tier: a bounded job
//! queue per shard server, drained by a few worker threads that each
//! own one TCP connection with connect/read/write **timeouts**,
//! exponential **backoff + reconnect**, and bounded **retries** — every
//! scatter call resolves within its gather's deadline, no matter what
//! the wire does.
//!
//! Failure taxonomy (each path is deterministic and bounded):
//!
//! * **connect failure** → backoff (`base · 2^fails`, clamped), retry
//!   until the deadline; successful re-establishment after the worker's
//!   first connect counts one reconnect. The failure run resets only on
//!   a successful **call** (a decoded reply frame), never on a bare
//!   connect — an accept-then-die peer must keep backing off;
//! * **I/O failure mid-call** (reset, truncated reply, a peer that
//!   closes under an outstanding call, poisoned stream) → the
//!   connection is discarded (a late reply must never desync a reused
//!   stream), one retry is counted, and the call re-runs on a fresh
//!   connection;
//! * **deadline passed** → one timeout is counted and the shard's slot
//!   is delivered as failed — the gather's failure policy decides
//!   whether the reply degrades or errors;
//! * **downstream protocol error** (a coded `Error` reply, a malformed
//!   partial) → delivered as a failure immediately, no retry — the
//!   shard answered, it just answered wrong.
//!
//! Every terminal outcome also feeds the downstream's
//! [`HealthTracker`]: timeouts, refused outages, and malformed partials
//! count as failures, delivered partials (and typed refusals — the host
//! is alive) as successes. The router reads the tracker to eject
//! persistently dead shards from the scatter set up front; see
//! [`crate::health`].
//!
//! Injected faults (see [`crate::faults`]) are applied here, at the
//! call edge, and fire **once per decided call**: the retry that
//! follows runs clean, so drop/truncate/cut faults prove the retry
//! path heals while black-hole/delay faults prove the timeout path
//! bounds.

use crate::faults::{FaultMode, FaultPlan};
use crate::health::{HealthConfig, HealthTracker};
use crate::metrics::DownstreamStats;
use crate::protocol::{
    frame_bytes, read_frame, write_frame, Request, Response, SPAN_FAILED, SPAN_FAST_DEGRADED,
    SPAN_HEDGE_WON,
};
use crate::router::RouterGather;
use fbp_vecdb::ShardPartial;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sleep slice for bounded waits (fault delays, black holes) — the
/// shutdown-poll granularity of a stalled call.
const SLICE: Duration = Duration::from_millis(5);

/// Pool tuning shared by every downstream (a subset of the router
/// config, resolved once at startup).
#[derive(Debug, Clone)]
pub(crate) struct PoolConfig {
    /// Bound on each TCP connect attempt.
    pub(crate) connect_timeout: Duration,
    /// SO_RCVTIMEO slice workers park in while awaiting a reply — the
    /// deadline-poll granularity, not the call budget.
    pub(crate) read_slice: Duration,
    /// SO_SNDTIMEO on every request write.
    pub(crate) write_timeout: Duration,
    /// First reconnect backoff; doubles per consecutive failure.
    pub(crate) backoff_base: Duration,
    /// Backoff clamp.
    pub(crate) backoff_max: Duration,
    /// Largest accepted reply frame.
    pub(crate) max_frame_len: u32,
    /// Pooled connections (worker threads) per downstream; ≥ 2 lets a
    /// hedge overtake a stuck primary.
    pub(crate) workers: usize,
}

/// One worker's connection state across jobs: the pooled connection,
/// whether it ever connected (reconnect accounting), and the
/// consecutive-failure count driving exponential backoff — reset only
/// by a successful call, never by a bare connect.
#[derive(Default)]
pub(crate) struct WorkerState {
    conn: Option<TcpStream>,
    connected_before: bool,
    consecutive_failures: u32,
}

/// One scatter call: deliver `gather`'s slot for this pool's shard.
pub(crate) struct Job {
    /// The request's gather cell.
    pub(crate) gather: Arc<RouterGather>,
    /// This is a hedge (duplicate) leg: skip it if the primary already
    /// delivered, and count a win if it beats the primary.
    pub(crate) hedge: bool,
}

/// One downstream shard server: its address, job queue, robustness
/// counters, and the workers draining it.
pub(crate) struct Downstream {
    /// Shard index in the router's downstream list (the id degraded
    /// replies report).
    pub(crate) shard: usize,
    /// The shard server's address.
    pub(crate) addr: SocketAddr,
    cfg: PoolConfig,
    faults: Option<Arc<FaultPlan>>,
    jobs: Mutex<VecDeque<Job>>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// Scatter calls issued to this downstream (the fault plan's call
    /// index; plans scripting a `Down` outage also count control
    /// calls here — see [`Downstream::control_fault`]).
    calls: AtomicU64,
    /// Robustness counters + the latency ring behind the hedge delay.
    pub(crate) stats: Arc<DownstreamStats>,
    /// This downstream's circuit breaker, fed by every call outcome
    /// here and read by the router's scatter filter and prober.
    pub(crate) health: HealthTracker,
    /// The `(rows, offset, dim)` the startup probe validated — a
    /// re-admission probe must re-validate against exactly this tiling
    /// (a restarted shard serving different rows would break the
    /// key-space merge).
    pub(crate) expected: (u64, u64, u32),
}

impl Downstream {
    pub(crate) fn new(
        shard: usize,
        addr: SocketAddr,
        cfg: PoolConfig,
        faults: Option<Arc<FaultPlan>>,
        health: HealthConfig,
        expected: (u64, u64, u32),
    ) -> Arc<Self> {
        Arc::new(Downstream {
            shard,
            addr,
            cfg,
            faults,
            jobs: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            calls: AtomicU64::new(0),
            stats: Arc::new(DownstreamStats::default()),
            health: HealthTracker::new(health),
            expected,
        })
    }

    /// The scripted fate of the router's next **control-plane** call to
    /// this downstream (a re-admission probe). Only plans
    /// containing a [`FaultMode::Down`] outage are consulted — a dead
    /// host refuses every call class — and only then does the control
    /// call consume a per-shard call index; wire-damage plans keep
    /// their exact scatter indices and control calls stay fault-free.
    pub(crate) fn control_fault(&self) -> Option<FaultMode> {
        let plan = self.faults.as_ref()?;
        if !plan.has_down() {
            return None;
        }
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        match plan.decide(self.shard, call) {
            down @ Some(FaultMode::Down { .. }) => down,
            _ => None,
        }
    }

    /// Start this downstream's worker threads.
    pub(crate) fn spawn_workers(self: &Arc<Self>) -> Vec<JoinHandle<()>> {
        (0..self.cfg.workers.max(1))
            .map(|_| {
                let ds = Arc::clone(self);
                std::thread::spawn(move || ds.worker_loop())
            })
            .collect()
    }

    /// Enqueue one scatter call. After shutdown the call fails
    /// immediately (the gather still resolves exactly once).
    pub(crate) fn enqueue(&self, job: Job) {
        {
            let mut q = self.jobs.lock().expect("pool lock");
            if !self.shutdown.load(Ordering::SeqCst) {
                q.push_back(job);
                self.cv.notify_one();
                return;
            }
        }
        job.gather.complete_shard(self.shard, None);
    }

    /// Stop accepting; wake every worker. Queued jobs are still drained
    /// (each fails fast under the shutdown flag), so no gather is left
    /// unresolved.
    pub(crate) fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Block for the next job; `None` once shut down **and** drained.
    fn next_job(&self) -> Option<Job> {
        let mut q = self.jobs.lock().expect("pool lock");
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            q = self.cv.wait(q).expect("pool lock");
        }
    }

    fn worker_loop(self: Arc<Self>) {
        let mut state = WorkerState::default();
        while let Some(job) = self.next_job() {
            self.execute(&mut state, &job);
        }
    }

    /// Run one scatter call to completion: apply any scripted fault,
    /// then write/read with retries until success, deadline, or
    /// shutdown. Exactly one `complete_shard` delivery happens unless
    /// another leg (hedge or primary) already resolved the slot.
    fn execute(&self, state: &mut WorkerState, job: &Job) {
        let WorkerState {
            conn,
            connected_before,
            consecutive_failures,
        } = state;
        let gather = &job.gather;
        if gather.resolved(self.shard) {
            return; // the other leg already delivered
        }
        if !self.health.admits_scatter() {
            // The shard was ejected after this job (typically a hedge)
            // was queued: fail the slot instantly rather than paying
            // the deadline — and record nothing, the breaker already
            // tripped.
            gather.trace_span(self.shard, None, SPAN_FAST_DEGRADED | SPAN_FAILED);
            gather.complete_shard(self.shard, None);
            return;
        }
        let deadline = gather.deadline();
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let fault = self
            .faults
            .as_ref()
            .and_then(|p| p.decide(self.shard, call));
        let started = Instant::now();

        if matches!(
            fault,
            Some(FaultMode::BlackHole) | Some(FaultMode::Down { .. })
        ) {
            // Never touch the wire; hold the call to its deadline. A
            // black hole models silence, a `Down` outage a host whose
            // every connect is refused — from this side both are a
            // call that cannot succeed before its deadline.
            while Instant::now() < deadline && !self.shutting_down() {
                std::thread::sleep(SLICE.min(deadline.saturating_duration_since(Instant::now())));
            }
            self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
            self.health.record_failure(Instant::now());
            gather.trace_span(self.shard, Some(started), SPAN_FAILED);
            gather.complete_shard(self.shard, None);
            return;
        }
        if let Some(FaultMode::Delay(d)) = fault {
            // Straggle before sending; the deadline still bounds the
            // call (a delay past it becomes a timeout below).
            let until = (started + d).min(deadline);
            while Instant::now() < until && !self.shutting_down() {
                std::thread::sleep(SLICE.min(until.saturating_duration_since(Instant::now())));
            }
        }

        let mut attempt: u64 = 0;
        loop {
            if self.shutting_down() {
                gather.trace_span(self.shard, Some(started), SPAN_FAILED);
                gather.complete_shard(self.shard, None);
                return;
            }
            if gather.resolved(self.shard) {
                return; // a hedge (or the primary) won meanwhile
            }
            let now = Instant::now();
            if now >= deadline {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                self.health.record_failure(now);
                gather.trace_span(self.shard, Some(started), SPAN_FAILED);
                gather.complete_shard(self.shard, None);
                return;
            }
            let remaining = deadline - now;

            // (Re)connect with exponential backoff, all bounded by the
            // deadline.
            if conn.is_none() {
                if *consecutive_failures > 0 {
                    let backoff = self
                        .cfg
                        .backoff_base
                        .saturating_mul(1u32 << (*consecutive_failures - 1).min(16))
                        .min(self.cfg.backoff_max)
                        .min(remaining);
                    std::thread::sleep(backoff);
                }
                match TcpStream::connect_timeout(
                    &self.addr,
                    self.cfg
                        .connect_timeout
                        .min(remaining.max(Duration::from_millis(1))),
                ) {
                    Ok(s) => {
                        let _ = s.set_nodelay(true);
                        let _ = s.set_read_timeout(Some(self.cfg.read_slice));
                        let _ = s.set_write_timeout(Some(self.cfg.write_timeout));
                        if *connected_before {
                            self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                        }
                        *connected_before = true;
                        // Deliberately NOT resetting the backoff counter
                        // here: only a *successful call* proves the peer
                        // is serving. An accept-then-die loop (a host
                        // whose listener is up but whose process keeps
                        // crashing) used to reset the counter on every
                        // connect, defeating exponential backoff
                        // entirely.
                        *conn = Some(s);
                    }
                    Err(_) => {
                        *consecutive_failures += 1;
                        attempt += 1;
                        continue;
                    }
                }
            }
            let stream = conn.as_mut().expect("connection just ensured");

            // The request frame carries the gather's *current* seed —
            // a retry or hedge sent after another shard finished prunes
            // tighter than the original scatter would have.
            let frame = gather.shard_request().encode();
            let write_res = if attempt == 0 {
                match fault {
                    Some(FaultMode::CloseAtByte(n)) => {
                        // Cut the socket mid-frame: real wire damage for
                        // both sides.
                        let framed = frame_bytes(&frame);
                        let cut = n.min(framed.len());
                        let res = stream.write_all(&framed[..cut]);
                        let _ = stream.shutdown(Shutdown::Both);
                        res.and(Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            "socket cut mid-request (injected)",
                        )))
                    }
                    _ => write_frame(stream, &frame),
                }
            } else {
                write_frame(stream, &frame)
            };
            if write_res.is_err() {
                *conn = None;
                *consecutive_failures += 1;
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
                attempt += 1;
                continue;
            }
            if attempt == 0 && fault == Some(FaultMode::DropReply) {
                // The reply is "lost": abandon the connection without
                // reading it.
                let _ = stream.shutdown(Shutdown::Both);
                *conn = None;
                *consecutive_failures += 1;
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
                attempt += 1;
                continue;
            }

            let mut keep_waiting =
                || Instant::now() < deadline && !self.shutdown.load(Ordering::SeqCst);
            match read_frame(stream, self.cfg.max_frame_len, &mut keep_waiting) {
                Ok(Some(payload)) => {
                    if attempt == 0 && fault == Some(FaultMode::TruncateReply) {
                        // The shard died mid-answer: discard what
                        // arrived and poison the stream.
                        let _ = stream.shutdown(Shutdown::Both);
                        *conn = None;
                        *consecutive_failures += 1;
                        self.stats.retries.fetch_add(1, Ordering::Relaxed);
                        attempt += 1;
                        continue;
                    }
                    match Response::decode(&payload) {
                        Ok(decoded) => {
                            // A decoded reply proves the peer is
                            // serving: the reconnect backoff restarts
                            // from its base. (This is the successful-
                            // call reset; a successful *connect* alone
                            // no longer resets — see above.)
                            *consecutive_failures = 0;
                            match decoded {
                                Response::ShardPartial { finished, entries } => {
                                    // Receivers MUST validate partial
                                    // ordering (protocol rule): a
                                    // malformed partial is a shard
                                    // failure, not a panic in the merge.
                                    match ShardPartial::from_entries(entries, finished) {
                                        Ok(partial) => {
                                            self.stats.record_latency(started.elapsed());
                                            self.health.record_success();
                                            // A hedge leg that records
                                            // the span is the leg that
                                            // resolved the shard — its
                                            // answer won.
                                            gather.trace_span(
                                                self.shard,
                                                Some(started),
                                                if job.hedge { SPAN_HEDGE_WON } else { 0 },
                                            );
                                            let first =
                                                gather.complete_shard(self.shard, Some(partial));
                                            if first && job.hedge {
                                                self.stats
                                                    .hedges_won
                                                    .fetch_add(1, Ordering::Relaxed);
                                            }
                                        }
                                        Err(_) => {
                                            // The host is up but serving
                                            // garbage: a data-plane
                                            // failure the breaker must
                                            // see.
                                            self.health.record_failure(Instant::now());
                                            gather.trace_span(
                                                self.shard,
                                                Some(started),
                                                SPAN_FAILED,
                                            );
                                            gather.complete_shard(self.shard, None);
                                        }
                                    }
                                    return;
                                }
                                Response::Error { .. } => {
                                    // The shard answered with a typed
                                    // refusal; retrying the same request
                                    // cannot help. The host is alive —
                                    // liveness-wise this is a success.
                                    self.health.record_success();
                                    gather.trace_span(self.shard, Some(started), SPAN_FAILED);
                                    gather.complete_shard(self.shard, None);
                                    return;
                                }
                                _ => {
                                    self.health.record_failure(Instant::now());
                                    gather.trace_span(self.shard, Some(started), SPAN_FAILED);
                                    gather.complete_shard(self.shard, None);
                                    return;
                                }
                            }
                        }
                        Err(_) => {
                            // Undecodable frame: the stream can no
                            // longer be trusted.
                            *conn = None;
                            *consecutive_failures += 1;
                            self.stats.retries.fetch_add(1, Ordering::Relaxed);
                            attempt += 1;
                            continue;
                        }
                    }
                }
                Ok(None) => {
                    // The stream ended at a frame boundary with the
                    // reply still outstanding. Two distinct causes: the
                    // deadline/shutdown poll stopped the wait (let the
                    // loop head classify the exit), or the peer closed
                    // the connection under our call — a real failure
                    // that must feed the backoff, or an accept-then-
                    // close peer would be hammered in a hot reconnect
                    // loop.
                    *conn = None;
                    if Instant::now() < deadline && !self.shutting_down() {
                        *consecutive_failures += 1;
                        self.stats.retries.fetch_add(1, Ordering::Relaxed);
                        attempt += 1;
                    }
                    continue;
                }
                Err(_) => {
                    *conn = None;
                    *consecutive_failures += 1;
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                    continue;
                }
            }
        }
    }
}

/// One-shot control-plane round trip on a fresh connection (startup
/// and re-admission probes) — bounded by `connect_timeout` +
/// `io_timeout`, never fault-injected.
pub(crate) fn control_call(
    addr: &SocketAddr,
    req: &Request,
    connect_timeout: Duration,
    io_timeout: Duration,
    max_frame_len: u32,
) -> io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(addr, connect_timeout)?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(Duration::from_millis(20)))?;
    stream.set_write_timeout(Some(io_timeout))?;
    write_frame(&mut stream, &req.encode())?;
    let deadline = Instant::now() + io_timeout;
    let mut keep_waiting = || Instant::now() < deadline;
    match read_frame(&mut stream, max_frame_len, &mut keep_waiting) {
        Ok(Some(payload)) => Response::decode(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        Ok(None) => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "control call timed out",
        )),
        Err(e) => Err(io::Error::other(format!("control call frame: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::Search;
    use crate::router::RouterGather;
    use fbp_vecdb::{FailurePolicy, WeightedEuclidean};
    use feedbackbypass::KnnRequest;
    use std::io::Read as _;
    use std::net::TcpListener;
    use std::sync::mpsc;

    fn test_cfg() -> PoolConfig {
        PoolConfig {
            connect_timeout: Duration::from_millis(200),
            read_slice: Duration::from_millis(5),
            write_timeout: Duration::from_millis(200),
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(20),
            max_frame_len: 1 << 20,
            workers: 1,
        }
    }

    /// A shard-server stand-in whose first connections misbehave:
    /// connections `0..drops` accept and immediately close (an
    /// accept-then-die host), connection `drops` accepts the request
    /// and stalls without replying, every later connection serves empty
    /// `ShardPartial` replies.
    fn misbehaving_server(drops: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for (i, stream) in listener.incoming().enumerate() {
                let Ok(mut stream) = stream else { continue };
                if i < drops {
                    continue; // dropped on the floor: accept-then-die
                }
                std::thread::spawn(move || {
                    if i == drops {
                        // Swallow the request, never answer.
                        let mut buf = [0u8; 4096];
                        let _ = stream.read(&mut buf);
                        std::thread::sleep(Duration::from_millis(500));
                        return;
                    }
                    loop {
                        let mut keep = || true;
                        match read_frame(&mut stream, 1 << 20, &mut keep) {
                            Ok(Some(_)) => {
                                let reply = Response::ShardPartial {
                                    finished: false,
                                    entries: Vec::new(),
                                }
                                .encode();
                                if write_frame(&mut stream, &reply).is_err() {
                                    return;
                                }
                            }
                            _ => return,
                        }
                    }
                });
            }
        });
        addr
    }

    /// A single-shard gather whose reply reports success/failure on a
    /// channel.
    fn gather_for(deadline: Duration) -> (Arc<RouterGather>, mpsc::Receiver<bool>) {
        let (tx, rx) = mpsc::channel();
        let search = Search {
            req: KnnRequest::uniform(vec![0.0, 0.0]),
            metric: WeightedEuclidean::new(vec![1.0, 1.0]).unwrap(),
            k: 1,
            trace: None,
        };
        let gather = RouterGather::new(
            search,
            1,
            deadline,
            FailurePolicy::Strict,
            Box::new(move |outcome: crate::frontend::Outcome| {
                let _ = tx.send(outcome.is_ok());
            }),
        );
        (gather, rx)
    }

    /// Backoff-reset regression: the exponential-backoff run must
    /// survive successful connects to a dead peer (accept-then-die used
    /// to reset it on every connect, defeating backoff entirely) and
    /// reset on the first successful *call* — so a single transient
    /// fault never leaves the downstream paying `backoff_max` forever.
    #[test]
    fn backoff_resets_on_successful_call_not_on_connect() {
        let addr = misbehaving_server(2);
        let ds = Downstream::new(
            0,
            addr,
            test_cfg(),
            None,
            HealthConfig::default(),
            (0, 0, 2),
        );
        let mut state = WorkerState::default();

        // Job 1: two accept-then-die connects, then a stalled reply —
        // the call times out with the failure run intact.
        let (g1, rx1) = gather_for(Duration::from_millis(150));
        ds.execute(
            &mut state,
            &Job {
                gather: g1,
                hedge: false,
            },
        );
        assert!(!rx1.recv().unwrap(), "job 1 must fail by timeout");
        assert!(
            state.consecutive_failures >= 2,
            "successful connects to a dead peer must not reset the backoff run, got {}",
            state.consecutive_failures
        );

        // Job 2: the server answers now — the successful call resets
        // the counter, so the next transient fault restarts backoff
        // from its base instead of near `backoff_max`.
        let (g2, rx2) = gather_for(Duration::from_secs(2));
        ds.execute(
            &mut state,
            &Job {
                gather: g2,
                hedge: false,
            },
        );
        assert!(rx2.recv().unwrap(), "job 2 must succeed");
        assert_eq!(
            state.consecutive_failures, 0,
            "a successful call resets the backoff counter"
        );
        ds.shutdown();
    }
}
