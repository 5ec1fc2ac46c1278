//! The adaptive micro-batcher: one bounded request queue, drained by
//! one dispatcher thread into coalesced scan passes, each request's
//! reply fired by the dispatcher the moment its pass finishes.
//!
//! Connection threads admit each `Knn` request once (its resolved
//! search and its reply sink), enqueue it into the server's
//! [`Batcher`], and go straight back to reading their sockets. The
//! dispatcher runs one collection policy, from the first queued
//! request: hold the batch open for more arrivals **only while one is
//! possible and the batch is below
//! [`target_fill`](crate::ServerConfig::target_fill)**, and within that
//! window dispatch early when
//! [`max_wait`](crate::ServerConfig::max_wait) has elapsed since the
//! **oldest** queued request or when no new request arrived for
//! [`idle_gap`](crate::ServerConfig::idle_gap); at dispatch it drains up
//! to [`max_batch`](crate::ServerConfig::max_batch) requests into one
//! multi-query pass ([`MultiQueryScan::knn`]).
//!
//! *Possible* is decided from evidence, not from a timer. The protocol
//! allows **at most one `Knn` in flight per connection** (replies are
//! written by the dispatcher onto the connection's socket, so a client
//! must read one before sending the next), hence once the queued
//! requests number at least the live connections every client is
//! blocked on a reply and the only thing a longer window can add is
//! latency. The window closes at that instant — two closed-loop clients
//! coalesce into fill 2 and dispatch the moment the second request
//! lands, a lone client never pays a gap. The count is the queue
//! itself, read under the batcher lock: a request admitted but not yet
//! enqueued is still on its way, and closing on it would dispatch its
//! batch-mate alone. (The dispatcher fires a pass's replies before it
//! collects the next batch, so while it collects, every admitted,
//! unanswered request is queued or about to be.) The timers still
//! govern whenever some connection is idle or busy with a non-`Knn`
//! round trip (feedback, stats): a lone request then pays at most one
//! idle gap; in the bursty think-time regime the gap cutoff dispatches
//! the moment a burst ends; under saturation the batcher is
//! work-conserving and its fill self-tunes to `arrival rate × pass
//! time`.
//!
//! The dispatcher runs each request's reply sink (session bookkeeping,
//! encoding, the socket write) right after the pass, so no extra thread
//! ever sits on the latency path. A dropped client (disconnect
//! mid-request) merely makes its sink's socket write fail — ignored, so
//! abandoned entries can never wedge the queue. On shutdown the queue
//! stops accepting and the dispatcher drains what remains and exits; a
//! request refused by a closing queue is answered with an error by the
//! enqueuing thread, so every admitted request resolves exactly once.

use crate::frontend::{ReplySink, Search};
use crate::metrics::Metrics;
use crate::protocol::ShardSpan;
use fbp_vecdb::{
    Collection, DegradedGather, Layout, MultiQueryScan, PartitionedCollection, Precision,
    QueryBatch, QueryMetrics, ScanMode, WeightedEuclidean,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Two server-wide counts: admitted `Knn` requests whose reply has not
/// fired (the admission bound) and connections whose thread is alive
/// (what the window-close rule compares the queue with). The front-end
/// owns the writes; a server's [`Batcher`] holds the same `Arc` and
/// only reads `live_conns`.
///
/// A leak would fail silently — `inflight` stuck high refuses
/// admissions, `live_conns` stuck high never closes a window early (the
/// timer wait) — so both are released by drop guards only: [`InFlight`]
/// here, the connection thread's guard in the front-end (which also
/// tells the backend).
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

    /// Connections whose thread is alive right now.
    pub(crate) fn live_conns(&self) -> usize {
        self.live_conns.load(Ordering::SeqCst)
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

struct Inner<T> {
    queue: VecDeque<(Instant, T)>,
    shutdown: bool,
}

/// Bounded-by-admission queue + wakeup plumbing shared by connection
/// threads and the dispatcher. Capacity is enforced at the *admission*
/// layer ([`Load::admit`] in the front-end), not here: the in-flight
/// count already bounds what the queue can hold.
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

    /// Enqueue one item (stamped now); once shutting down, the item is
    /// handed back instead. The item's [`InFlight`] claim must already
    /// be held: admission bounds what the queue can hold.
    pub(crate) fn enqueue(&self, item: T) -> Result<(), T> {
        let mut g = self.inner.lock().expect("batcher lock");
        if g.shutdown {
            return Err(item);
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
    /// arrival is possible** — fewer items queued than live connections
    /// (more queued means connections died with their requests in the
    /// queue: nobody is left to wait for) — and within that, dispatch
    /// as soon as one of
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
        while g.queue.len() < self.target_fill
            && !g.shutdown
            && g.queue.len() < self.load.live_conns()
        {
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

/// The rows a server scans and how: its collection, the partition
/// layout built once at startup when the server opted in, and the scan
/// mode. Shared by the dispatcher and the `ShardKnn` handler.
pub(crate) struct ServedRows {
    pub(crate) coll: Arc<Collection>,
    pub(crate) partitions: Option<PartitionedCollection>,
    pub(crate) scan_mode: ScanMode,
}

impl ServedRows {
    /// The scan every pass runs on. It is rebuilt per pass (it is a
    /// couple of words) and always asks for [`Precision::F32Rescore`],
    /// like
    /// [`SharedBypass::serving_scan`](feedbackbypass::SharedBypass::serving_scan):
    /// a collection with an f32 mirror streams it, one without runs the
    /// f64 path, and the answers are the same bits either way. A
    /// partition layout redirects the pass through the pruning scan,
    /// again with the same answers.
    pub(crate) fn scan<'a>(&'a self, metrics: &'a Metrics) -> MultiQueryScan<'a> {
        let layout: Layout<'a> = match &self.partitions {
            Some(parts) => parts.into(),
            None => (&*self.coll).into(),
        };
        MultiQueryScan::with_mode(layout, self.scan_mode)
            .with_precision(Precision::F32Rescore)
            .with_scan_stats(metrics.scan_stats())
    }
}

/// The dispatcher loop: drain batches from the queue, run each as one
/// multi-query pass, and fire every request's reply sink with its
/// neighbours. Runs until the batcher shuts down and empties.
pub(crate) fn run_dispatcher(
    batcher: Arc<Batcher<(Search, ReplySink)>>,
    rows: Arc<ServedRows>,
    metrics: Arc<Metrics>,
) {
    while let Some(batch) = batcher.next_batch() {
        let dispatched = Instant::now();
        let waits: Vec<Duration> = batch
            .iter()
            .map(|(enqueued, _)| dispatched.saturating_duration_since(*enqueued))
            .collect();
        let (searches, replies): (Vec<Search>, Vec<ReplySink>) =
            batch.into_iter().map(|(_, item)| item).unzip();
        // Each request's point, metric, and k were resolved once at
        // admission; the pass borrows them.
        let points: Vec<&[f64]> = searches.iter().map(|s| s.req.point.as_slice()).collect();
        let pass_metrics: Vec<&WeightedEuclidean> = searches.iter().map(|s| &s.metric).collect();
        let ks: Vec<usize> = searches.iter().map(|s| s.k).collect();
        let batch = QueryBatch::new(&points, QueryMetrics::Weighted(&pass_metrics), 0).with_ks(&ks);
        let answers = rows.scan(&metrics).knn(&batch);
        let scanned = Instant::now();
        metrics.record_pass(&waits);
        // Traced requests get their span stamped before any reply
        // fires, so each reply's trace already holds it.
        let fill = searches.len() as u32;
        for search in &searches {
            if let Some(trace) = &search.trace {
                trace.add_span(ShardSpan {
                    shard: 0,
                    queue_ns: dispatched.saturating_duration_since(trace.t0()).as_nanos() as u64,
                    busy_ns: scanned.saturating_duration_since(dispatched).as_nanos() as u64,
                    batch_fill: fill,
                    flags: 0,
                });
            }
        }
        for ((search, reply), neighbors) in searches.iter().zip(replies).zip(answers) {
            // Everything from here (session bookkeeping, reply encode +
            // write) is merge time.
            if let Some(trace) = &search.trace {
                trace.note_gathered();
            }
            reply(Ok(DegradedGather {
                neighbors,
                missing_shards: Vec::new(),
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn admitted_request_still_on_its_way_keeps_the_window_open() {
        // Both connections have a request admitted, but only the first
        // is in the queue: the second is between admission and its
        // enqueue, so it will land, and the first must wait for it.
        let (load, b) = rig(2, NEVER, NEVER);
        let _first = admit(&load, &b, 1);
        let _second = load.admit(usize::MAX).expect("unbounded admission");
        std::thread::scope(|scope| {
            let rx = dispatcher(scope, &b, 1);
            // A head start for the dispatcher to look at the queue. The
            // verdict is the batch's content, which a correct rule makes
            // [1, 2] whether or not it looked before the second enqueue.
            let early = rx.recv_timeout(Duration::from_millis(100)).ok();
            b.enqueue(2).unwrap();
            let (batch, _) = early.unwrap_or_else(|| rx.recv_timeout(NEVER * 2).unwrap());
            assert_eq!(batch.unwrap(), [1, 2], "dispatched without its batch-mate");
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
        assert_eq!(b.enqueue(8), Err(8), "a closing queue hands the item back");
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
}
