//! The shard server: the [`Backend`] that scatters each admitted search
//! into in-process micro-batchers, the startup that builds them, and
//! the graceful-shutdown handle.
//!
//! The connection layer — accept loop, framing, sessions, `Knn`
//! admission and the reply sink — is the shared front-end in
//! [`crate::frontend`]. This backend adds:
//!
//! * **the scatter**: one micro-batcher and dispatcher thread per
//!   internal shard ([`ServerConfig::shards`]); every admitted search
//!   becomes a [`Gather`] cell enqueued into all of them, and the
//!   dispatcher delivering the last partial merges and fires the reply;
//! * **the router downstream surface**: `ShardKnn` is scanned inline
//!   into a sessionless shard-local k-best under the caller's exact
//!   metric, and with [`ServerConfig::row_offset`] set the served
//!   collection acts as one slice of a larger router-fronted
//!   deployment, answering with globally-offset indices (`ShardInfo`
//!   reports the same offset);
//! * **the disconnect hook**: a departing connection makes every
//!   batcher re-read the live-connection count, since it may have been
//!   the only thing holding a collection window open.
//!
//! `SnapshotModule` / `RestoreModule` read and replace the server's own
//! learned module (a router never sends them: it owns the only module
//! its deployment consults).

use crate::batcher::{run_shard_dispatcher, serving_scan, Batcher, EnqueueError, Gather, Load};
use crate::frontend::{Backend, FrontEnd, Limits, ReplySink, Running, Search};
use crate::metrics::Metrics;
use crate::protocol::{ErrorCode, Response, DEFAULT_MAX_FRAME_LEN};
use crate::sessions::{err, SessionStore};
use fbp_vecdb::{
    Collection, PartitionConfig, PartitionedCollection, QueryBatch, QueryMetrics, ScanMode,
    ShardedCollection, WeightedEuclidean,
};
use feedbackbypass::{FeedbackConfig, SharedBypass};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Most requests one coalesced pass serves. `1` disables batching
    /// (every request runs its own pass — the baseline configuration the
    /// serving bench compares against).
    pub max_batch: usize,
    /// Fill level at which the dispatcher stops waiting for more
    /// arrivals and goes work-conserving (it still drains up to
    /// [`ServerConfig::max_batch`] at dispatch). Below it, the batch is
    /// held open only while another arrival is *possible*: the protocol
    /// allows one `Knn` in flight per connection, so as soon as the
    /// admitted, unanswered requests number at least the live
    /// connections, every client is blocked on a reply and the batch
    /// dispatches at once, whatever `max_wait` / `idle_gap` say. While
    /// some connection is idle or mid-feedback, those two bound the
    /// wait.
    pub target_fill: usize,
    /// Longest the dispatcher holds a batch open waiting for it to fill,
    /// measured from the oldest queued request. Never reached once
    /// every live connection has its `Knn` queued (see
    /// [`ServerConfig::target_fill`]).
    pub max_wait: Duration,
    /// Arrival-burst cutoff: once no new request lands for this long,
    /// the batch dispatches early (think-time traffic arrives in bursts;
    /// a quiet gap means waiting further buys latency, not fill). It is
    /// the price a request pays for a *possible* batch-mate — a
    /// connection that is open but not currently waiting on a `Knn` —
    /// and is not paid when there is none (see
    /// [`ServerConfig::target_fill`]).
    pub idle_gap: Duration,
    /// Admission bound on **in-flight requests**: a `Knn` counts
    /// against this from admission until its gathered reply fires
    /// (including while it is mid-scan), and one admitted request
    /// occupies a slot in every shard's queue. Requests beyond it
    /// answer [`ErrorCode::Busy`] before touching any queue, so a
    /// request is either scattered to all shards or refused atomically.
    pub queue_capacity: usize,
    /// Largest accepted frame payload.
    pub max_frame_len: u32,
    /// Scan execution mode for the coalesced passes. The default,
    /// [`ScanMode::Auto`], decides per row range of each pass — a
    /// shard's rows, or each surviving partition — and fans a range
    /// out over the dispatcher's share of the cores only when its own
    /// `rows × dim × queries` work clears the measured spawn break-even,
    /// so a big flat pass uses an idle core while pruned partitions and
    /// thin shard passes stay on the dispatcher thread. Every mode
    /// answers the same bits. Every pass asks for the f32-rescore path,
    /// so a collection built with its f32 mirror streams it and one
    /// without runs the f64 path.
    pub scan_mode: ScanMode,
    /// Collection shards (1 = flat serving). With `S > 1` the served
    /// collection splits into `S` contiguous row shards at startup,
    /// each with its **own micro-batcher and dispatcher thread** riding
    /// the same `target_fill`/`max_wait`/`idle_gap` policy; every `Knn`
    /// request scatters to all `S` queues and its reply is gathered
    /// from the per-shard k-bests — bit-identical to flat serving, but
    /// the scan bandwidth of a round scales with the shard count on a
    /// multi-core host. Keep `S ≤ cores / CPU-per-pass`; each shard
    /// pass also gets an even share of the machine for its own
    /// parallelism.
    pub shards: usize,
    /// Global index of this server's first row, added to every entry a
    /// `ShardKnn` reply carries. A standalone server leaves it `0`; a
    /// router-fronted shard server serving rows `[offset, offset+len)`
    /// of the full collection sets it so the router's gathered indices
    /// address the full key space.
    pub row_offset: usize,
    /// Opt-in partition pruning: when set, every shard's rows are
    /// clustered into a [`PartitionedCollection`] layout once at
    /// startup ([`ShardedCollection::build_partitions`]) and all shard
    /// passes run through the partition-pruning scan — skipping
    /// partitions whose sound lower bound exceeds the running k-th key
    /// and counting the skips in
    /// [`StatsSnapshot::scan_partitions_pruned`](crate::protocol::StatsSnapshot).
    /// Answers are bit-identical to unpartitioned serving (pruning is
    /// answer-transparent); only the rows visited change. `None` (the
    /// default) serves flat.
    pub partitions: Option<PartitionConfig>,
    /// Feedback transition configuration (`k` is per-request on the
    /// wire; `max_cycles` caps each session's loop server-side).
    pub feedback: FeedbackConfig,
    /// Read-timeout slice connection threads park in between frames —
    /// the shutdown-poll granularity, not a client-visible timeout.
    pub read_timeout: Duration,
    /// Write timeout on every reply. The dispatcher writes `Knn` replies
    /// itself, so a peer that stops draining its socket could otherwise
    /// stall every session behind one blocked `write`; on timeout the
    /// reply fails, the offending connection is shut down, and serving
    /// continues.
    pub write_timeout: Duration,
    /// Traced replies at or above this wall time are kept in the
    /// bounded slow-query ring `GetTraces` drains (zero keeps every
    /// traced reply — handy in tests and drills). Only requests that
    /// *asked* for a trace are candidates; the untraced path records
    /// nothing.
    pub slow_trace_threshold: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch: 16,
            target_fill: 4,
            max_wait: Duration::from_millis(2),
            idle_gap: Duration::from_micros(300),
            queue_capacity: 4096,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            scan_mode: ScanMode::Auto,
            shards: 1,
            row_offset: 0,
            partitions: None,
            feedback: FeedbackConfig::default(),
            read_timeout: Duration::from_millis(20),
            write_timeout: Duration::from_secs(1),
            slow_trace_threshold: Duration::from_millis(5),
        }
    }
}

/// The shard server's backend: the internal shard split, one
/// micro-batcher per shard (every admitted search is scattered into
/// all of them), and the partition layouts both the dispatchers and
/// `ShardKnn` scan.
struct Shards {
    batchers: Vec<Arc<Batcher<Arc<Gather>>>>,
    sharded_coll: Arc<ShardedCollection>,
    /// Per-shard partition layouts, built once at startup when
    /// [`ServerConfig::partitions`] opted in (`parts[i]` reorders shard
    /// `i`'s rows partition-contiguously; answers stay identical).
    partitions: Option<Arc<Vec<PartitionedCollection>>>,
    scan_mode: ScanMode,
    row_offset: usize,
}

/// Handle to a running server: address, live stats, graceful shutdown.
///
/// Dropping the handle shuts the server down (and joins every thread),
/// so tests and examples cannot leak listeners; call
/// [`ServerHandle::shutdown`] for the explicit form.
///
/// ```
/// use fbp_server::{serve, ServerConfig};
/// use fbp_vecdb::CollectionBuilder;
/// use feedbackbypass::{BypassConfig, FeedbackBypass, SharedBypass};
/// use std::sync::Arc;
///
/// let mut b = CollectionBuilder::new();
/// b.push_unlabelled(&[0.5, 0.5]).unwrap();
/// let bypass = SharedBypass::new(
///     FeedbackBypass::for_histograms(2, BypassConfig::default()).unwrap(),
/// );
/// // Two shards: two micro-batchers, two dispatcher threads, replies
/// // gathered — results identical to `shards: 1`.
/// let cfg = ServerConfig { shards: 2, ..Default::default() };
/// let handle = serve("127.0.0.1:0", Arc::new(b.build()), bypass, cfg).unwrap();
/// assert!(handle.local_addr().port() != 0, "ephemeral port was bound");
/// let stats = handle.stats();
/// assert_eq!(stats.shards, 2);
/// assert_eq!(stats.sessions_open, 0);
/// handle.shutdown(); // joins the accept loop and both dispatchers
/// ```
pub struct ServerHandle(Running<Shards>);

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.addr
    }

    /// In-process metrics snapshot (same numbers the wire
    /// `SnapshotStats` reports).
    pub fn stats(&self) -> crate::protocol::StatsSnapshot {
        self.0.front.stats()
    }

    /// Graceful shutdown: stop accepting, unpark every thread, drain the
    /// batcher, join everything. Returns once the last thread exited.
    pub fn shutdown(self) {
        drop(self);
    }
}

/// Bind `addr` and start serving `coll` (searches) and `bypass`
/// (predictions, learned-parameter inserts) with the given
/// configuration. Returns once the listener is accepting.
pub fn serve(
    addr: impl ToSocketAddrs,
    coll: Arc<Collection>,
    bypass: SharedBypass,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shards = cfg.shards.max(1);
    // The shard split happens once at startup: each shard copies its
    // rows (and f32 mirror) into its own contiguous buffers, so the
    // per-shard dispatchers stream disjoint memory. A flat server has
    // nothing to separate and shares the collection it was given.
    let sharded_coll = Arc::new(if shards == 1 {
        ShardedCollection::whole(Arc::clone(&coll))
    } else {
        ShardedCollection::split(&coll, shards)
    });
    // Partition layouts (opt-in) are likewise a startup cost: each
    // shard's rows are clustered and reordered once, and every pass
    // after that prunes against the same layout.
    let partitions: Option<Arc<Vec<PartitionedCollection>>> = cfg
        .partitions
        .as_ref()
        .map(|p| Arc::new(sharded_coll.build_partitions(p)));
    let load = Arc::new(Load::default());
    let batchers: Vec<Arc<Batcher<Arc<Gather>>>> = (0..shards)
        .map(|_| {
            Arc::new(Batcher::new(
                Arc::clone(&load),
                cfg.max_batch,
                cfg.target_fill,
                cfg.max_wait,
                cfg.idle_gap,
            ))
        })
        .collect();
    let metrics = Arc::new(Metrics::new(shards as u64));
    let dispatchers: Vec<JoinHandle<()>> = batchers
        .iter()
        .enumerate()
        .map(|(shard, batcher)| {
            std::thread::spawn({
                let batcher = Arc::clone(batcher);
                let coll = Arc::clone(&sharded_coll);
                let partitions = partitions.clone();
                let metrics = Arc::clone(&metrics);
                let scan_mode = cfg.scan_mode;
                move || run_shard_dispatcher(shard, batcher, coll, partitions, scan_mode, metrics)
            })
        })
        .collect();
    let front = FrontEnd::new(
        SessionStore::new(coll, bypass, cfg.feedback, Arc::clone(&metrics)),
        metrics,
        load,
        Limits {
            queue_capacity: cfg.queue_capacity,
            max_frame_len: cfg.max_frame_len,
            read_timeout: cfg.read_timeout,
            write_timeout: cfg.write_timeout,
            slow_trace_threshold: cfg.slow_trace_threshold,
        },
        Shards {
            batchers,
            sharded_coll,
            partitions,
            scan_mode: cfg.scan_mode,
            row_offset: cfg.row_offset,
        },
    );
    Ok(ServerHandle(Running::start(
        listener,
        addr,
        front,
        dispatchers,
    )))
}

impl Backend for Shards {
    const BUSY: &'static str = "batch queue full";

    /// Scatter a gather cell into every shard's micro-batcher; the shard
    /// dispatcher delivering the last partial merges and fires the
    /// reply.
    fn scatter(&self, search: Search, reply: ReplySink) {
        let gather = Arc::new(Gather::new(search, self.batchers.len(), reply));
        for (shard, batcher) in self.batchers.iter().enumerate() {
            if let Err(EnqueueError::ShuttingDown) = batcher.enqueue(Arc::clone(&gather)) {
                // Shutdown raced the scatter: deliver this shard's slot
                // as an error so the gather still resolves exactly once
                // (the reply becomes an `Internal` error frame).
                gather.complete_shard(shard, Err("server shutting down".into()));
            }
        }
    }

    /// `ShardKnn`: a sessionless shard-local k-best under an explicit
    /// metric — the frame a router scatters. The internal shards run as
    /// one serial seeded gather
    /// ([`ShardedScan::knn_keyed`](fbp_vecdb::ShardedScan::knn_keyed)):
    /// the caller's cross-shard early-abandon `seed` caps the first
    /// pass, each shard's k-th key tightens it for the next, and the
    /// partials fold into one that stays in selection space, so the
    /// router's gather merges it exactly like in-process partials. Every
    /// entry's index is offset by [`ServerConfig::row_offset`].
    fn shard_knn(
        front: &FrontEnd<Self>,
        k: u32,
        seed: f64,
        point: Vec<f64>,
        weights: Vec<f64>,
    ) -> Response {
        if let Err(refusal) = front.check_point(&point) {
            return refusal;
        }
        let dim = point.len();
        // Empty weights mean uniform by protocol; anything else must
        // match the dimensionality and be a valid metric — a router
        // relays exact learned weights, so there is no silent uniform
        // fallback here.
        let weights = if weights.is_empty() {
            vec![1.0; dim]
        } else {
            weights
        };
        if weights.len() != dim {
            front.metrics.record_protocol_error();
            return err(
                ErrorCode::DimMismatch,
                format!("expected {dim} weights, got {}", weights.len()),
            );
        }
        let metric = match WeightedEuclidean::new(weights) {
            Ok(m) => m,
            Err(e) => {
                front.metrics.record_protocol_error();
                return err(ErrorCode::BadWeight, format!("shard metric: {e}"));
            }
        };
        let k = (k as usize).min(front.store.coll().len());
        // A NaN seed would poison every key comparison; treat it as
        // unseeded.
        let cap = if seed.is_nan() { f64::INFINITY } else { seed };
        let shards = &front.backend;
        let scan = serving_scan(
            &shards.sharded_coll,
            shards.partitions.as_deref(),
            shards.scan_mode,
            &front.metrics,
        );
        let points = [point.as_slice()];
        let batch = QueryBatch::new(&points, QueryMetrics::Shared(&metric), k);
        let combined = scan.knn_keyed(&batch, Some(&[cap])).remove(0);
        let offset = shards.row_offset as u32;
        let entries: Vec<(f64, u32)> = combined
            .entries()
            .iter()
            .map(|&(key, idx)| (key, idx + offset))
            .collect();
        Response::ShardPartial {
            finished: combined.is_finished(),
            entries,
        }
    }

    fn row_offset(&self) -> u64 {
        self.row_offset as u64
    }

    fn on_disconnect(&self) {
        for batcher in &self.batchers {
            batcher.recheck();
        }
    }

    fn halt(&self) {
        for batcher in &self.batchers {
            batcher.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::frontend::testing::{collection, module, storm, DIM};
    use std::time::Instant;

    #[test]
    fn vanishing_clients_leak_neither_load_counter() {
        // Timers long enough that paying one cannot be mistaken for
        // scheduling noise; a capacity small enough that the storm also
        // runs into `Busy` refusals.
        let timer = Duration::from_secs(3);
        let cfg = ServerConfig {
            shards: 2,
            max_wait: timer,
            idle_gap: timer,
            queue_capacity: 2,
            ..Default::default()
        };
        let handle = serve("127.0.0.1:0", Arc::new(collection()), module(), cfg).unwrap();
        let addr = handle.local_addr();
        let load = Arc::clone(&handle.0.front.load);
        storm(addr, &load);

        // A leaked `live_conns` would make this lone request sit out
        // `idle_gap` waiting for a batch-mate that cannot exist.
        let mut client = Client::connect(addr).unwrap();
        let (session, _) = client.open_session().unwrap();
        let t0 = Instant::now();
        let reply = client.knn(session, 3, &[0.5; DIM]).unwrap();
        assert_eq!(reply.neighbors.len(), 3);
        assert!(
            t0.elapsed() < timer / 3,
            "lone request took {:?}",
            t0.elapsed()
        );
        assert_eq!(load.counts(), (0, 1));

        // The shutdown exit: the connection is still open when the
        // server goes.
        handle.shutdown();
        assert_eq!(load.counts(), (0, 0));
    }
}
