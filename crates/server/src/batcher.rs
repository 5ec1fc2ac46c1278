//! The adaptive micro-batchers: one bounded request queue **per
//! collection shard**, each drained by its own dispatcher thread into
//! per-shard scan passes, with a gather cell per request that assembles
//! the reply once every shard has delivered its partial.
//!
//! Connection threads admit each `Knn` request once (a [`Gather`] cell
//! holding the request and its reply completion), scatter one handle to
//! every shard's [`Batcher`], and go straight back to reading their
//! sockets. Every shard dispatcher runs the same collection policy, from
//! the first queued request: hold the batch open for more arrivals
//! **only while one is possible and the batch is below
//! [`target_fill`](crate::ServerConfig::target_fill)**, and within that
//! window dispatch early when
//! [`max_wait`](crate::ServerConfig::max_wait) has elapsed since the
//! **oldest** queued request or when no new request arrived for
//! [`idle_gap`](crate::ServerConfig::idle_gap); at dispatch it drains up
//! to [`max_batch`](crate::ServerConfig::max_batch) requests into one
//! per-shard multi-query pass ([`ShardedScan::scan_shard`]).
//!
//! *Possible* is decided from evidence, not from a timer. The protocol
//! allows **at most one `Knn` in flight per connection** (replies are
//! written by the dispatcher onto the connection's socket, so a client
//! must read one before sending the next), hence once the admitted,
//! unanswered requests number at least the live connections
//! ([`Load::every_conn_waiting`]) every client is blocked on a reply and
//! the only thing a longer window can add is latency. The window closes
//! at that instant — two closed-loop clients coalesce into fill 2 and
//! dispatch the moment the second request lands, a lone client never
//! pays a gap. The timers still govern whenever some connection is idle
//! or busy with a non-`Knn` round trip (feedback, stats): a lone request
//! then pays at most one idle gap; in the bursty think-time regime the
//! gap cutoff dispatches the moment a burst ends; under saturation each
//! batcher is work-conserving and its fill self-tunes to
//! `arrival rate × per-shard pass time`. All `S` shard batchers read the
//! same server-wide pair: a request stays in flight until its last
//! shard delivered, so "no arrival possible" holds for every queue at
//! once.
//!
//! Shards batch **independently** — shard 0 may serve requests {A, B}
//! in one pass while shard 1 serves A and B in two — and the reply is
//! still exact: a [`ShardPartial`] is the shard's k-best for its request
//! in key space regardless of batch-mates, and the gather merges
//! partials by the deterministic `(key, index)` order
//! ([`merge_partials`]).
//! The dispatcher thread that delivers the **last** partial runs the
//! merge and the reply completion (session bookkeeping, encoding, the
//! socket write), so no extra thread ever sits on the latency path.
//!
//! A dropped client (disconnect mid-request) merely makes its
//! completion's socket write fail — ignored, so abandoned entries can
//! never wedge a queue. On shutdown every queue stops accepting, each
//! dispatcher drains what remains, and exits; a gather whose scatter was
//! cut short by shutdown is completed with an error by the enqueuing
//! thread, so every admitted request resolves exactly once.

use crate::frontend::{Outcome, ReplySink, Search};
use crate::metrics::Metrics;
use crate::protocol::{ErrorCode, ShardSpan};
use crate::sessions::err;
use fbp_vecdb::{
    merge_partials, DegradedGather, PartitionedCollection, Precision, QueryBatch, QueryMetrics,
    ScanMode, ShardPartial, ShardedCollection, ShardedScan, WeightedEuclidean,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-request gather cell: the admitted search (read-only, shared by
/// every shard's pass), one delivery slot per shard, the cross-shard
/// seed, and the reply sink. The shard dispatchers fill it in-process;
/// the router's downstream gather wraps the same cell.
pub(crate) struct Gather {
    /// The admitted search: point, metric and `k`, resolved once at
    /// admission and shared by every shard pass and the final merge.
    /// Its trace collector (`None` on the untraced hot path —
    /// dispatchers pay one branch per stage) only observes timestamps,
    /// so it can never change the merged answer.
    pub search: Search,
    /// Cross-shard pruning seed: the tightest known upper bound on this
    /// request's global k-th key (f64 bits, starts at `+∞`), tightened
    /// from every delivered partial's [`ShardPartial::bound_key`]. A
    /// shard pass (or a router retry or hedge) that runs *after* another
    /// shard finished prunes against a near-global bound instead of its
    /// looser local one — on a host where shard passes serialize this
    /// recovers most of the flat pass's early-abandon power, and it can
    /// never change the merged answer (the bound is provably ≥ the
    /// global k-th).
    seed: AtomicU64,
    /// Set when the last slot resolved.
    done: AtomicBool,
    state: Mutex<GatherState>,
}

struct GatherState {
    /// Delivered partials by shard index (`None` for errored shards).
    partials: Vec<Option<ShardPartial>>,
    /// Per-shard delivery marker (a shard delivers exactly once; the
    /// marker makes duplicate deliveries harmless instead of fatal).
    delivered: Vec<bool>,
    /// First shard error, if any.
    error: Option<String>,
    /// Shards still outstanding.
    remaining: usize,
    /// Taken by the completing delivery.
    reply: Option<ReplySink>,
}

impl Gather {
    /// New cell awaiting `shards` partials. `reply` is invoked exactly
    /// once, by whichever thread delivers the last partial: it finishes
    /// the reply right on that thread.
    pub(crate) fn new(search: Search, shards: usize, reply: ReplySink) -> Self {
        Gather {
            search,
            seed: AtomicU64::new(f64::INFINITY.to_bits()),
            done: AtomicBool::new(false),
            state: Mutex::new(GatherState {
                partials: (0..shards).map(|_| None).collect(),
                delivered: vec![false; shards],
                error: None,
                remaining: shards,
                reply: Some(reply),
            }),
        }
    }

    /// The current pruning seed for this request (`+∞` until some
    /// shard delivered a full k-best).
    pub(crate) fn seed(&self) -> f64 {
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

    /// Whether `shard`'s slot has already been delivered (lets a router
    /// hedge or straggling retry stand down without touching the wire).
    pub(crate) fn resolved(&self, shard: usize) -> bool {
        self.is_done() || self.state.lock().expect("gather lock").delivered[shard]
    }

    /// Deliver shard `shard`'s partial to an in-process gather: the
    /// first shard error becomes the reply (as `Internal`), otherwise
    /// the partials merge into the exact answer.
    pub(crate) fn complete_shard(&self, shard: usize, outcome: Result<ShardPartial, String>) {
        self.deliver(shard, outcome, |partials, error| match error {
            Some(e) => Err(err(ErrorCode::Internal, e)),
            // The merge reuses the admission-built metric — no
            // per-reply metric reconstruction.
            None => Ok(DegradedGather {
                neighbors: merge_partials(
                    partials.iter().flatten(),
                    self.search.k,
                    &self.search.metric,
                ),
                missing_shards: Vec::new(),
            }),
        });
    }

    /// Record shard `shard`'s outcome; returns whether this call was the
    /// one recorded. Duplicate deliveries (a hedge losing to its
    /// primary, a backstop racing a worker) are dropped. The delivery
    /// that resolves the last slot folds the partials and the first
    /// shard error with `merge` (outside the cell's lock) and fires the
    /// reply with the result.
    pub(crate) fn deliver(
        &self,
        shard: usize,
        outcome: Result<ShardPartial, String>,
        merge: impl FnOnce(&[Option<ShardPartial>], Option<String>) -> Outcome,
    ) -> bool {
        let fire = {
            let mut g = self.state.lock().expect("gather lock");
            if g.delivered[shard] {
                return false;
            }
            g.delivered[shard] = true;
            match outcome {
                Ok(partial) => {
                    if let Some(bound) = partial.bound_key(self.search.k) {
                        self.offer_seed(bound);
                    }
                    g.partials[shard] = Some(partial);
                }
                Err(e) => {
                    if g.error.is_none() {
                        g.error = Some(e);
                    }
                }
            }
            g.remaining -= 1;
            if g.remaining == 0 {
                self.done.store(true, Ordering::Release);
                g.reply
                    .take()
                    .map(|reply| (reply, g.error.take(), std::mem::take(&mut g.partials)))
            } else {
                None
            }
        };
        if let Some((reply, error, partials)) = fire {
            // The last slot just resolved: everything from here (merge,
            // session bookkeeping, reply encode + write) is merge time.
            if let Some(trace) = &self.search.trace {
                trace.note_gathered();
            }
            reply(merge(&partials, error));
        }
        true
    }
}

/// The two server-wide counts the window-close rule reads: admitted
/// `Knn` requests whose reply has not fired, and connections whose
/// thread is alive. The front-end owns the writes (on a router it is
/// also the admission bound and nothing else reads it); every shard's
/// [`Batcher`] holds the same `Arc` and only reads.
///
/// A leak would fail silently in either direction — `inflight` stuck
/// high keeps every window closed (no coalescing), `live_conns` stuck
/// high never closes one early (the old timer wait) — so both are
/// released by drop guards only: [`InFlight`] here, the connection
/// thread's guard in the front-end (which also tells the backend).
#[derive(Default)]
pub(crate) struct Load {
    inflight: AtomicUsize,
    live_conns: AtomicUsize,
}

/// One admitted request's claim on [`Load`]'s in-flight count, released
/// on drop — by the reply completion, or by whatever drops the
/// completion unfired.
pub(crate) struct InFlight(Arc<Load>);

impl Load {
    /// Admit one request unless `capacity` are in flight already.
    pub(crate) fn admit(self: &Arc<Self>, capacity: usize) -> Option<InFlight> {
        if self.inflight.fetch_add(1, Ordering::SeqCst) >= capacity {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(InFlight(Arc::clone(self)))
    }

    /// Count one more live connection.
    pub(crate) fn connect(&self) {
        self.live_conns.fetch_add(1, Ordering::SeqCst);
    }

    /// Uncount a connection [`Self::connect`] counted (the front-end
    /// calls this from its connection guard's `Drop`, nowhere else).
    pub(crate) fn disconnect(&self) {
        self.live_conns.fetch_sub(1, Ordering::SeqCst);
    }

    /// Whether every live connection already has its one allowed `Knn`
    /// admitted and unanswered — no further arrival is possible until a
    /// reply fires. Also true when connections died with their requests
    /// still queued (`inflight > live_conns`): nobody is left to wait
    /// for.
    pub(crate) fn every_conn_waiting(&self) -> bool {
        self.inflight.load(Ordering::SeqCst) >= self.live_conns.load(Ordering::SeqCst)
    }

    /// `(inflight, live_conns)` right now.
    #[cfg(test)]
    pub(crate) fn counts(&self) -> (usize, usize) {
        (
            self.inflight.load(Ordering::SeqCst),
            self.live_conns.load(Ordering::SeqCst),
        )
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Why an enqueue was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EnqueueError {
    /// The server is shutting down.
    ShuttingDown,
}

struct Inner<T> {
    queue: VecDeque<(Instant, T)>,
    shutdown: bool,
}

/// Bounded-by-admission queue + wakeup plumbing shared by connection
/// threads and one shard's dispatcher. Capacity is enforced at the
/// *admission* layer ([`Load::admit`] in the front-end), not here: every
/// admitted request lands once in every shard's queue, so a per-queue
/// bound would either double-count the global bound or leave a request
/// half-scattered on overflow.
pub(crate) struct Batcher<T> {
    inner: Mutex<Inner<T>>,
    cv: Condvar,
    /// Read-only here: the evidence that ends a collection window.
    load: Arc<Load>,
    max_batch: usize,
    target_fill: usize,
    max_wait: Duration,
    idle_gap: Duration,
}

impl<T> Batcher<T> {
    pub(crate) fn new(
        load: Arc<Load>,
        max_batch: usize,
        target_fill: usize,
        max_wait: Duration,
        idle_gap: Duration,
    ) -> Self {
        let max_batch = max_batch.max(1);
        Batcher {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            load,
            max_batch,
            target_fill: target_fill.clamp(1, max_batch),
            max_wait,
            idle_gap,
        }
    }

    /// Enqueue one item (stamped now); fails only once shutting down.
    /// The item's [`InFlight`] claim must already be held, so the
    /// dispatcher this wakes sees it counted.
    pub(crate) fn enqueue(&self, item: T) -> Result<(), EnqueueError> {
        let mut g = self.inner.lock().expect("batcher lock");
        if g.shutdown {
            return Err(EnqueueError::ShuttingDown);
        }
        g.queue.push_back((Instant::now(), item));
        self.cv.notify_one();
        Ok(())
    }

    /// Stop accepting and wake the dispatcher so it can drain and exit.
    pub(crate) fn shutdown(&self) {
        self.inner.lock().expect("batcher lock").shutdown = true;
        self.cv.notify_all();
    }

    /// Make a collecting dispatcher re-read [`Load`]: a connection just
    /// left, which can close the window without any arrival. Taking the
    /// lock orders this after the dispatcher's last check, so the
    /// wakeup cannot fall between its check and its wait.
    pub(crate) fn recheck(&self) {
        // Called from a `Drop`: a poisoned lock still serializes, and
        // must not turn an unwinding connection thread into an abort.
        let _g = self.inner.lock();
        self.cv.notify_all();
    }

    /// Block until a batch is ready, returning each item with its
    /// enqueue instant. Returns `None` once shut down **and** drained.
    ///
    /// Collection policy, from the first queued item: hold the batch
    /// open **only while the batch is below `target_fill` and another
    /// arrival is possible** ([`Load::every_conn_waiting`] is false),
    /// and within that, dispatch as soon as one of
    ///
    /// * `max_wait` elapsed since the oldest queued item, or
    /// * no new item arrived for `idle_gap` — think-time traffic is
    ///   bursty (replies fan out together, sessions think together, the
    ///   next requests land together), so a quiet gap means the burst is
    ///   over and further waiting buys latency, not fill.
    ///
    /// At or above `target_fill` the batcher is work-conserving: it
    /// drains up to `max_batch` immediately. Under saturation the fill
    /// then self-tunes to `arrival rate × pass time` — items that landed
    /// during the previous pass ride the next one with no added wait.
    pub(crate) fn next_batch(&self) -> Option<Vec<(Instant, T)>> {
        let mut g = self.inner.lock().expect("batcher lock");
        // Park until the first item (or shutdown).
        while g.queue.is_empty() {
            if g.shutdown {
                return None;
            }
            g = self.cv.wait(g).expect("batcher lock");
        }
        // Collect the burst. Shutdown cuts every wait short.
        let deadline = g.queue.front().expect("non-empty").0 + self.max_wait;
        let mut seen = 0;
        let mut gap_end = deadline;
        while g.queue.len() < self.target_fill && !g.shutdown && !self.load.every_conn_waiting() {
            if g.queue.len() > seen {
                // A new arrival restarts the idle-gap clock.
                seen = g.queue.len();
                gap_end = std::cmp::min(Instant::now() + self.idle_gap, deadline);
            }
            let Some(remaining) = gap_end
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                break; // gap (or deadline) ran out quiet
            };
            let (guard, _timeout) = self.cv.wait_timeout(g, remaining).expect("batcher lock");
            g = guard;
        }
        let take = g.queue.len().min(self.max_batch);
        Some(g.queue.drain(..take).collect())
    }
}

/// The scan both server scan entry points (the shard dispatchers and
/// the `ShardKnn` handler) run their passes on. It is rebuilt per pass
/// (it is a couple of words) and always asks for
/// [`Precision::F32Rescore`], like
/// [`SharedBypass::serving_scan`](feedbackbypass::SharedBypass::serving_scan):
/// a shard with an f32 mirror streams it, a shard without one runs the
/// f64 path, and the answers are the same bits either way. Partition
/// layouts (when the server opted in) redirect every shard pass through
/// the pruning scan; the delivered partials — and therefore the
/// gathered replies — are bit-identical.
pub(crate) fn serving_scan<'a>(
    coll: &'a ShardedCollection,
    partitions: Option<&'a Vec<PartitionedCollection>>,
    scan_mode: ScanMode,
    metrics: &'a Metrics,
) -> ShardedScan<'a> {
    let scan = ShardedScan::with_mode(coll, scan_mode)
        .with_precision(Precision::F32Rescore)
        .with_scan_stats(metrics.scan_stats());
    match partitions {
        Some(parts) => scan.with_partitions(parts),
        None => scan,
    }
}

/// One shard's dispatcher loop: drain batches from this shard's queue,
/// run each as one per-shard scan pass, deliver every request's partial
/// to its gather cell (the last shard to deliver fires the merged
/// reply). Runs until the batcher shuts down and empties.
pub(crate) fn run_shard_dispatcher(
    shard: usize,
    batcher: Arc<Batcher<Arc<Gather>>>,
    coll: Arc<ShardedCollection>,
    partitions: Option<Arc<Vec<PartitionedCollection>>>,
    scan_mode: ScanMode,
    metrics: Arc<Metrics>,
) {
    while let Some(batch) = batcher.next_batch() {
        let dispatched = Instant::now();
        let waits: Vec<Duration> = batch
            .iter()
            .map(|(enqueued, _)| dispatched.saturating_duration_since(*enqueued))
            .collect();
        let gathers: Vec<Arc<Gather>> = batch.into_iter().map(|(_, g)| g).collect();
        // Each request's point, metric, and k were resolved once at
        // admission; the pass borrows them instead of rebuilding the
        // metric per shard dispatch.
        let points: Vec<&[f64]> = gathers
            .iter()
            .map(|g| g.search.req.point.as_slice())
            .collect();
        let pass_metrics: Vec<&WeightedEuclidean> =
            gathers.iter().map(|g| &g.search.metric).collect();
        let ks: Vec<usize> = gathers.iter().map(|g| g.search.k).collect();
        // Cross-shard bound propagation: requests whose gathers already
        // hold another shard's k-th key prune against it from row one.
        let seeds: Vec<f64> = gathers.iter().map(|g| g.seed()).collect();
        let scan = serving_scan(&coll, partitions.as_deref(), scan_mode, &metrics);
        let batch = QueryBatch::new(&points, QueryMetrics::Weighted(&pass_metrics), 0).with_ks(&ks);
        let partials = scan.scan_shard(shard, &batch, Some(&seeds));
        let scanned = Instant::now();
        metrics.record_pass(&waits);
        // Traced requests get their span stamped *before* delivery, so
        // the delivery that completes the gather already sees it.
        let fill = gathers.len() as u32;
        for gather in &gathers {
            if let Some(trace) = &gather.search.trace {
                trace.add_span(ShardSpan {
                    shard: shard as u32,
                    queue_ns: dispatched.saturating_duration_since(trace.t0()).as_nanos() as u64,
                    busy_ns: scanned.saturating_duration_since(dispatched).as_nanos() as u64,
                    batch_fill: fill,
                    flags: 0,
                });
            }
        }
        for (gather, partial) in gathers.iter().zip(partials) {
            gather.complete_shard(shard, Ok(partial));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Response;
    use feedbackbypass::KnnRequest;

    /// Timers no correct rule ever waits out: a test that needs one of
    /// them to expire hangs into its own elapsed-time assertion.
    const NEVER: Duration = Duration::from_secs(10);
    /// What "at once" may cost on a loaded test host.
    const PROMPT: Duration = Duration::from_secs(5);

    /// A batcher over `conns` live connections; `admit` hands back the
    /// claims that keep queued items counted in flight.
    fn rig(conns: usize, max_wait: Duration, idle_gap: Duration) -> (Arc<Load>, Batcher<u32>) {
        let load = Arc::new(Load::default());
        for _ in 0..conns {
            load.connect();
        }
        let b = Batcher::new(Arc::clone(&load), 16, 4, max_wait, idle_gap);
        (load, b)
    }

    fn admit(load: &Arc<Load>, b: &Batcher<u32>, item: u32) -> InFlight {
        let claim = load.admit(usize::MAX).expect("unbounded admission");
        b.enqueue(item).unwrap();
        claim
    }

    fn items(batch: Vec<(Instant, u32)>) -> Vec<u32> {
        batch.into_iter().map(|(_, item)| item).collect()
    }

    /// A dispatcher thread making `calls` `next_batch` calls, each
    /// outcome reported with the instant it returned.
    fn dispatcher<'s>(
        scope: &'s std::thread::Scope<'s, '_>,
        b: &'s Batcher<u32>,
        calls: usize,
    ) -> std::sync::mpsc::Receiver<(Option<Vec<u32>>, Instant)> {
        let (tx, rx) = std::sync::mpsc::channel();
        scope.spawn(move || {
            for _ in 0..calls {
                let batch = b.next_batch().map(items);
                tx.send((batch, Instant::now())).unwrap();
            }
        });
        rx
    }

    /// The dispatcher is holding its window open: nothing comes back.
    fn assert_held(rx: &std::sync::mpsc::Receiver<(Option<Vec<u32>>, Instant)>, why: &str) {
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "{why}"
        );
    }

    #[test]
    fn batch_fills_to_max_batch_without_waiting() {
        let load = Arc::new(Load::default());
        (0..8).for_each(|_| load.connect());
        let b = Batcher::new(Arc::clone(&load), 4, 4, NEVER, NEVER);
        let _claims: Vec<InFlight> = (0..6).map(|i| admit(&load, &b, i)).collect();
        // 6 queued of 8 possible, max_batch 4: the first batch takes 4
        // immediately with no deadline wait.
        let first = b.next_batch().unwrap();
        assert_eq!(first.len(), 4);
        assert_eq!(first[0].1, 0, "FIFO order");
    }

    #[test]
    fn deadline_drains_partial_batch() {
        // A third connection could still send, so the timers decide.
        let gap = Duration::from_millis(5);
        let (load, b) = rig(3, gap, gap);
        let _claims = [admit(&load, &b, 1), admit(&load, &b, 2)];
        let t0 = Instant::now();
        let batch = b.next_batch().unwrap();
        assert_eq!(batch.len(), 2);
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "deadline overshot"
        );
    }

    #[test]
    fn lone_connection_dispatches_at_once() {
        let (load, b) = rig(1, NEVER, NEVER);
        let _claim = admit(&load, &b, 7);
        let t0 = Instant::now();
        assert_eq!(items(b.next_batch().unwrap()), [7]);
        assert!(
            t0.elapsed() < PROMPT,
            "paid a timer with nobody to wait for"
        );
    }

    #[test]
    fn second_of_two_connections_closes_the_window() {
        let (load, b) = rig(2, NEVER, NEVER);
        let _first = admit(&load, &b, 1);
        std::thread::scope(|scope| {
            let rx = dispatcher(scope, &b, 1);
            // The other connection may still send: the first request is
            // held (a rule that dispatched it alone would answer here).
            assert_held(
                &rx,
                "dispatched without waiting for the possible batch-mate",
            );
            let t0 = Instant::now();
            let _second = admit(&load, &b, 2);
            let (batch, at) = rx.recv_timeout(NEVER * 2).unwrap();
            assert_eq!(batch.unwrap(), [1, 2]);
            assert!(at.duration_since(t0) < PROMPT, "window outlived its use");
        });
    }

    #[test]
    fn idle_third_connection_keeps_the_gap_wait() {
        let gap = Duration::from_millis(30);
        let (load, b) = rig(3, NEVER, gap);
        let _claims = [admit(&load, &b, 1), admit(&load, &b, 2)];
        let t0 = Instant::now();
        assert_eq!(items(b.next_batch().unwrap()), [1, 2]);
        let waited = t0.elapsed();
        assert!(waited >= gap, "closed after {waited:?} with a sender left");
        assert!(waited < PROMPT, "idle gap ignored");
    }

    #[test]
    fn requests_outliving_their_connections_dispatch_at_once() {
        // Two connections queued one request each, then one died:
        // inflight 2 > live 1.
        let (load, b) = rig(2, NEVER, NEVER);
        let _claims = [admit(&load, &b, 1), admit(&load, &b, 2)];
        load.disconnect();
        let t0 = Instant::now();
        assert_eq!(items(b.next_batch().unwrap()), [1, 2]);
        assert!(t0.elapsed() < PROMPT);
    }

    #[test]
    fn departing_connection_closes_an_open_window() {
        let (load, b) = rig(2, NEVER, NEVER);
        let _claim = admit(&load, &b, 1);
        std::thread::scope(|scope| {
            let rx = dispatcher(scope, &b, 1);
            assert_held(&rx, "dispatched with a sender left");
            // The idle connection leaves instead of sending.
            load.disconnect();
            b.recheck();
            let (batch, _) = rx.recv_timeout(PROMPT).expect("window stayed open");
            assert_eq!(batch.unwrap(), [1]);
        });
    }

    #[test]
    fn shutdown_cuts_an_open_window() {
        let (load, b) = rig(2, NEVER, NEVER);
        let _claim = admit(&load, &b, 1);
        std::thread::scope(|scope| {
            let rx = dispatcher(scope, &b, 2);
            // Shut down before judging, so a dispatcher that did not
            // hold cannot park on the emptied queue and hang the scope.
            let held = rx.recv_timeout(Duration::from_millis(100)).is_err();
            b.shutdown();
            assert!(held, "dispatched with a sender left");
            let (batch, _) = rx
                .recv_timeout(PROMPT)
                .expect("shutdown did not cut the wait");
            assert_eq!(batch.unwrap(), [1]);
            assert!(
                rx.recv_timeout(PROMPT).unwrap().0.is_none(),
                "drained ⇒ end"
            );
        });
    }

    #[test]
    fn shutdown_drains_then_ends() {
        let (_, b) = rig(1, NEVER, NEVER);
        b.enqueue(7).unwrap();
        b.shutdown();
        assert_eq!(b.enqueue(8), Err(EnqueueError::ShuttingDown));
        assert_eq!(b.next_batch().unwrap().len(), 1);
        assert!(b.next_batch().is_none());
    }

    #[test]
    fn refused_and_dropped_claims_leave_no_count() {
        let load = Arc::new(Load::default());
        let held = load.admit(1).expect("capacity 1 admits the first");
        assert!(load.admit(1).is_none(), "second is refused");
        assert_eq!(load.counts(), (1, 0), "the refusal left nothing behind");
        drop(held);
        assert_eq!(load.counts(), (0, 0));
    }

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

    #[test]
    fn gather_fires_once_after_all_shards_any_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let fired = Arc::new(AtomicUsize::new(0));
        let got = Arc::new(Mutex::new(None));
        let gather = Gather::new(
            search(vec![0.0, 0.0]),
            3,
            Box::new({
                let fired = Arc::clone(&fired);
                let got = Arc::clone(&got);
                move |outcome| {
                    fired.fetch_add(1, Ordering::SeqCst);
                    *got.lock().unwrap() = Some(outcome);
                }
            }),
        );
        // Build real partials through the public scatter API.
        let mut b = fbp_vecdb::CollectionBuilder::new();
        for i in 0..6 {
            b.push_unlabelled(&[i as f64, 0.0]).unwrap();
        }
        let sc = ShardedCollection::split(&b.build(), 3);
        let scan = ShardedScan::with_mode(&sc, ScanMode::Batched);
        let metric = fbp_vecdb::WeightedEuclidean::uniform(2);
        let q: &[f64] = &[0.0, 0.0];
        let parts: Vec<ShardPartial> = (0..3)
            .map(|s| {
                scan.scan_shard(
                    s,
                    &QueryBatch::new(&[q], QueryMetrics::Shared(&metric), 5),
                    None,
                )
                .remove(0)
            })
            .collect();
        // Out-of-order delivery; the reply fires exactly once, on the
        // last shard.
        gather.complete_shard(2, Ok(parts[2].clone()));
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        gather.complete_shard(0, Ok(parts[0].clone()));
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        gather.complete_shard(1, Ok(parts[1].clone()));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        let merged = got.lock().unwrap().take().unwrap().unwrap().neighbors;
        assert_eq!(merged.len(), 5);
        assert_eq!(merged[0].index, 0);
        assert!(merged.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn gather_propagates_shard_errors() {
        let got = Arc::new(Mutex::new(None));
        let gather = Gather::new(
            search(vec![0.0]),
            2,
            Box::new({
                let got = Arc::clone(&got);
                move |outcome| *got.lock().unwrap() = Some(outcome)
            }),
        );
        let mut b = fbp_vecdb::CollectionBuilder::new();
        b.push_unlabelled(&[0.5]).unwrap();
        let sc = ShardedCollection::split(&b.build(), 2);
        let scan = ShardedScan::with_mode(&sc, ScanMode::Batched);
        let metric = fbp_vecdb::WeightedEuclidean::uniform(1);
        let q: &[f64] = &[0.0];
        let part = scan
            .scan_shard(
                0,
                &QueryBatch::new(&[q], QueryMetrics::Shared(&metric), 5),
                None,
            )
            .remove(0);
        gather.complete_shard(0, Ok(part));
        gather.complete_shard(1, Err("pass failed".into()));
        let outcome = got.lock().unwrap().take().unwrap();
        match outcome {
            Err(Response::Error { code, message }) => {
                assert_eq!(code, ErrorCode::Internal);
                assert_eq!(message, "pass failed");
            }
            _ => panic!("expected the shard error to win"),
        }
    }
}
