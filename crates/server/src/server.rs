//! The shard server: the [`Backend`] that queues each admitted search
//! into the server's micro-batcher, the startup that builds it, and
//! the graceful-shutdown handle.
//!
//! The connection layer — accept loop, framing, sessions, `Knn`
//! admission and the reply sink — is the shared front-end in
//! [`crate::frontend`]. This backend adds:
//!
//! * **the scan**: one micro-batcher and one dispatcher thread; every
//!   admitted search is queued once, and the dispatcher's coalesced
//!   pass over the served rows (flat, or partitioned when
//!   [`ServerConfig::partitions`] opted in) fires its reply;
//! * **the router downstream surface**: `ShardKnn` is scanned inline
//!   into a sessionless k-best under the caller's exact metric, and
//!   with [`ServerConfig::row_offset`] set the served collection acts
//!   as one slice of a larger router-fronted deployment, answering
//!   with globally-offset indices (`ShardInfo` reports the same
//!   offset);
//! * **the disconnect hook**: a departing connection makes the batcher
//!   re-read the live-connection count, since it may have been the only
//!   thing holding a collection window open.
//!
//! `SnapshotModule` / `RestoreModule` read and replace the server's own
//! learned module (a router never sends them: it owns the only module
//! its deployment consults).

use crate::batcher::{run_dispatcher, Batcher, Load, ServedRows};
use crate::frontend::{Backend, FrontEnd, Limits, ReplySink, Running, Search};
use crate::metrics::Metrics;
use crate::protocol::{ErrorCode, Response, DEFAULT_MAX_FRAME_LEN};
use crate::sessions::{err, SessionStore};
use fbp_vecdb::{
    Collection, PartitionConfig, PartitionedCollection, QueryBatch, QueryMetrics, ScanMode,
    WeightedEuclidean,
};
use feedbackbypass::{FeedbackConfig, SharedBypass};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
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
    /// against this from admission until its reply fires (including
    /// while it is mid-scan). Requests beyond it answer
    /// [`ErrorCode::Busy`] before touching the queue.
    pub queue_capacity: usize,
    /// Largest accepted frame payload.
    pub max_frame_len: u32,
    /// Scan execution mode for the coalesced passes. The default,
    /// [`ScanMode::Auto`], decides per row range of each pass — the
    /// flat rows, or each surviving partition — and fans a range out
    /// over the cores only when its own `rows × dim × queries` work
    /// clears the measured spawn break-even, so a big flat pass uses an
    /// idle core while pruned partitions stay on the dispatcher thread. Every mode
    /// answers the same bits. Every pass asks for the f32-rescore path,
    /// so a collection built with its f32 mirror streams it and one
    /// without runs the f64 path.
    pub scan_mode: ScanMode,
    /// Must be `1`: a server scans its rows in one pass, and
    /// [`serve`] refuses any other value with
    /// [`io::ErrorKind::InvalidInput`]. To cut rows across cores or
    /// machines, run one server per row slice behind a router
    /// ([`crate::route`]); to cut the work of one pass, use
    /// [`ServerConfig::partitions`]. The field survives only because
    /// the repository benchmark's adapter (`benchmark/src/adapter.rs`)
    /// still names it; the next change to that benchmark deletes the
    /// field together with the adapter's `shards: 1`.
    pub shards: usize,
    /// Global index of this server's first row, added to every entry a
    /// `ShardKnn` reply carries. A standalone server leaves it `0`; a
    /// router-fronted shard server serving rows `[offset, offset+len)`
    /// of the full collection sets it so the router's gathered indices
    /// address the full key space.
    pub row_offset: usize,
    /// Opt-in partition pruning: when set, the served rows are
    /// clustered into a [`PartitionedCollection`] layout once at
    /// startup and every pass (and every `ShardKnn`) runs through the
    /// partition-pruning scan — skipping
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

/// The shard server's backend: its one micro-batcher and the rows both
/// the dispatcher and `ShardKnn` scan.
struct Scanner {
    batcher: Arc<Batcher<(Search, ReplySink)>>,
    rows: Arc<ServedRows>,
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
/// let handle = serve("127.0.0.1:0", Arc::new(b.build()), bypass, ServerConfig::default())
///     .unwrap();
/// assert!(handle.local_addr().port() != 0, "ephemeral port was bound");
/// let stats = handle.stats();
/// assert_eq!(stats.shards, 1);
/// assert_eq!(stats.sessions_open, 0);
/// handle.shutdown(); // joins the accept loop and the dispatcher
/// ```
pub struct ServerHandle(Running<Scanner>);

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
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] when [`ServerConfig::shards`] is not
/// 1; otherwise whatever binding `addr` fails with.
pub fn serve(
    addr: impl ToSocketAddrs,
    coll: Arc<Collection>,
    bypass: SharedBypass,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    if cfg.shards != 1 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "shards = {}: a server scans its rows in one pass; cut rows across servers \
                 with a router, or within one with partitions",
                cfg.shards
            ),
        ));
    }
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    // The partition layout (opt-in) is a startup cost: the rows are
    // clustered and reordered once, and every pass after that prunes
    // against the same layout.
    let rows = Arc::new(ServedRows {
        partitions: (cfg.partitions.as_ref()).map(|p| PartitionedCollection::build(&coll, p)),
        coll: Arc::clone(&coll),
        scan_mode: cfg.scan_mode,
    });
    let load = Arc::new(Load::default());
    let batcher = Arc::new(Batcher::new(
        Arc::clone(&load),
        cfg.max_batch,
        cfg.target_fill,
        cfg.max_wait,
        cfg.idle_gap,
    ));
    let metrics = Arc::new(Metrics::new(1));
    let dispatcher = std::thread::spawn({
        let batcher = Arc::clone(&batcher);
        let rows = Arc::clone(&rows);
        let metrics = Arc::clone(&metrics);
        move || run_dispatcher(batcher, rows, metrics)
    });
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
        Scanner {
            batcher,
            rows,
            row_offset: cfg.row_offset,
        },
    );
    Ok(ServerHandle(Running::start(
        listener,
        addr,
        front,
        vec![dispatcher],
    )))
}

impl Backend for Scanner {
    const BUSY: &'static str = "batch queue full";

    /// Queue the search for the dispatcher's next pass, which fires the
    /// reply.
    fn scatter(&self, search: Search, reply: ReplySink) {
        if let Err((_, reply)) = self.batcher.enqueue((search, reply)) {
            // Shutdown raced the enqueue: the search still resolves
            // exactly once, as an `Internal` error frame.
            reply(Err(err(ErrorCode::Internal, "server shutting down")));
        }
    }

    /// `ShardKnn`: a sessionless k-best under an explicit metric — the
    /// frame a router scatters. One keyed pass
    /// ([`MultiQueryScan::knn_keyed`](fbp_vecdb::MultiQueryScan::knn_keyed))
    /// runs with the caller's cross-shard early-abandon `seed` as its
    /// cap, and the partial stays in selection space, so the router's
    /// gather merges it with the other shards' partials. Every entry's
    /// index is offset by [`ServerConfig::row_offset`].
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
        let backend = &front.backend;
        let points = [point.as_slice()];
        let caps = [cap];
        let batch = QueryBatch::new(&points, QueryMetrics::Shared(&metric), k).with_caps(&caps);
        let partial = (backend.rows.scan(&front.metrics).knn_keyed(&batch))
            .remove(0)
            .offset(backend.row_offset as u32);
        Response::ShardPartial {
            finished: partial.is_finished(),
            entries: partial.entries().to_vec(),
        }
    }

    fn row_offset(&self) -> u64 {
        self.row_offset as u64
    }

    fn on_disconnect(&self) {
        self.batcher.recheck();
    }

    fn halt(&self) {
        self.batcher.shutdown();
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

    #[test]
    fn serve_refuses_every_shard_count_but_one() {
        for shards in [0, 2, 3] {
            let cfg = ServerConfig {
                shards,
                ..Default::default()
            };
            let refused = serve("127.0.0.1:0", Arc::new(collection()), module(), cfg);
            let e = refused.err().expect("only shards = 1 is served");
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "shards = {shards}");
        }
    }
}
