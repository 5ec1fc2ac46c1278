//! The TCP front-end: accept loop, per-connection threads, server-side
//! session state, and the graceful-shutdown handle.
//!
//! Each connection gets one thread running a read→handle→reply loop.
//! `Knn` requests park on the micro-batcher and wake with their slice of
//! a coalesced pass; everything else is answered inline. Session state
//! (current query anchor, learned parameters, last un-judged results)
//! lives server-side in a [`SessionStore`] keyed by session id, so the
//! full interactive feedback loop runs over the wire with the same
//! [`fbp_feedback::FeedbackStepper`] transition the in-process serving
//! path executes. Sessions are **connection-scoped**: only the
//! connection that opened a session may use or close it (ids are
//! sequential, so they must not be capabilities), and they are dropped
//! when it disconnects.
//!
//! Besides the interactive session surface, every server also answers
//! the **router downstream surface** (`ShardKnn` / `ShardInfo` — see
//! [`crate::protocol`]): with [`ServerConfig::row_offset`] set, the
//! served collection acts as one slice of a larger router-fronted
//! deployment, answering sessionless shard-local k-bests with
//! globally-offset indices. `SnapshotModule` / `RestoreModule` read and
//! replace the server's own learned module (a router never sends them:
//! it owns the only module its deployment consults).

use crate::batcher::{run_shard_dispatcher, serving_scan, Batcher, EnqueueError, Gather, Load};
use crate::metrics::Metrics;
use crate::protocol::{
    error_code_for, read_frame, write_frame, DecodeError, ErrorCode, FrameError, Request, Response,
    DEFAULT_MAX_FRAME_LEN, KNN_TRACED, PROTOCOL_VERSION,
};
use crate::sessions::{err, ExampleSets, SessionStore};
use crate::trace::{RequestTrace, TraceRing};
use fbp_vecdb::{
    combine_partials, Collection, Neighbor, PartitionConfig, PartitionedCollection, QueryBatch,
    QueryMetrics, ScanMode, ShardPartial, ShardedCollection, WeightedEuclidean,
};
use feedbackbypass::{FeedbackConfig, KnnRequest, QuerySpec, RocchioWeights, SharedBypass};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
    /// answers the same bits. Precision follows
    /// [`SharedBypass::effective_precision`]: mirrored collections are
    /// served with the f32-rescore path automatically.
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

/// Capacity of the slow-query trace ring (reports, oldest evicted
/// first). Bounded so an undrained server holds a fixed few KiB of
/// trace state no matter how long it runs.
const TRACE_RING_CAP: usize = 64;

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

/// Everything the server threads share.
struct Shared {
    store: SessionStore,
    cfg: ServerConfig,
    /// One micro-batcher per shard; every admitted `Knn` is scattered
    /// into all of them.
    batchers: Vec<Arc<Batcher<Arc<Gather>>>>,
    /// The internal shard split (`ShardKnn` scans it inline).
    sharded_coll: Arc<ShardedCollection>,
    /// Per-shard partition layouts, built once at startup when
    /// [`ServerConfig::partitions`] opted in (`parts[i]` reorders shard
    /// `i`'s rows partition-contiguously; answers stay identical).
    partitions: Option<Arc<Vec<PartitionedCollection>>>,
    /// Requests mid-scatter/gather and live connections. The in-flight
    /// count is the admission bound — enforcing the queue capacity here
    /// (instead of per batcher) keeps a request's scatter atomic: it is
    /// either admitted to every shard queue or refused outright with
    /// `Busy` — and, against the connection count, the batchers'
    /// evidence that no further arrival is possible.
    load: Arc<Load>,
    metrics: Arc<Metrics>,
    next_conn: AtomicU64,
    /// Trace-id source for traced requests (ids are per-server unique,
    /// never reused).
    next_trace: AtomicU64,
    /// Slow-query trace ring, drained by `GetTraces`.
    traces: TraceRing,
    shutdown: AtomicBool,
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
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    dispatchers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// In-process metrics snapshot (same numbers the wire
    /// `SnapshotStats` reports).
    pub fn stats(&self) -> crate::protocol::StatsSnapshot {
        self.shared.metrics.snapshot(self.shared.store.count())
    }

    /// Graceful shutdown: stop accepting, unpark every thread, drain the
    /// batcher, join everything. Returns once the last thread exited.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for batcher in &self.shared.batchers {
            batcher.shutdown();
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // After the accept thread exits no new connection threads are
        // spawned; connection threads notice the flag within a
        // read-timeout slice.
        let conns: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        for h in conns {
            let _ = h.join();
        }
        // The shard dispatchers go last: each drains its remaining
        // queue (best-effort completions to whatever sockets still
        // live) before reporting end-of-work.
        for h in self.dispatchers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() || !self.dispatchers.is_empty() {
            self.shutdown_inner();
        }
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
    let shared = Arc::new(Shared {
        store: SessionStore::new(
            Arc::clone(&coll),
            bypass.clone(),
            cfg.feedback.clone(),
            Arc::clone(&metrics),
        ),
        cfg: cfg.clone(),
        batchers: batchers.clone(),
        sharded_coll: Arc::clone(&sharded_coll),
        partitions: partitions.clone(),
        load,
        metrics: Arc::clone(&metrics),
        next_conn: AtomicU64::new(1),
        next_trace: AtomicU64::new(1),
        traces: TraceRing::new(TRACE_RING_CAP, cfg.slow_trace_threshold),
        shutdown: AtomicBool::new(false),
    });

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
                        // Persistent accept failures (EMFILE under fd
                        // exhaustion) must not busy-spin the core.
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    }
                };
                let shared = Arc::clone(&shared);
                let handle = std::thread::spawn(move || handle_connection(stream, &shared));
                let mut conns = conns.lock().expect("conns lock");
                // Reap finished connection threads as we go so a
                // long-lived server doesn't accumulate one JoinHandle
                // per connection ever accepted.
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
        }
    });

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        dispatchers,
        conns,
    })
}

/// Read→handle→reply loop for one connection. Frame-layer failures end
/// the connection; well-framed protocol errors are answered and the
/// connection lives on. Sessions this connection opened die with it.
///
/// The socket is split: this thread owns the read side; the write side
/// sits behind a mutex shared with the dispatcher, which writes `Knn`
/// replies directly from the pass (each reply frame is one `write_all`
/// under the lock, so frames never interleave). A client must therefore
/// keep at most one `Knn` in flight per connection before reading its
/// reply — which a strict request/response client does by construction.
/// The batchers lean on the same invariant: with as many requests in
/// flight as there are live connections, nobody is left to send one.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _live = LiveConnection::enter(shared);
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    // Bounded reply writes: SO_SNDTIMEO is socket-wide, so the clone the
    // dispatcher writes through inherits it — a peer that stops reading
    // can stall a reply for at most this long before the write fails and
    // the connection is shut down.
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let writer: Arc<Mutex<TcpStream>> = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    // Buffered reads: header + body of a frame usually arrive together,
    // so one syscall serves both.
    let mut reader = io::BufReader::with_capacity(16 * 1024, stream);
    let mut owned_sessions: Vec<u64> = Vec::new();
    // Every connection starts at protocol v1; a `Hello` exchange can
    // raise it (to at most [`PROTOCOL_VERSION`]) for the connection's
    // remaining lifetime. v2-only opcodes are refused below the
    // negotiated version, so v1 traffic stays byte-for-byte unchanged.
    let mut version: u8 = 1;
    loop {
        let mut keep_waiting = || !shared.shutdown.load(Ordering::SeqCst);
        match read_frame(&mut reader, shared.cfg.max_frame_len, &mut keep_waiting) {
            Ok(None) => break, // clean close or shutdown
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
                        // The length prefix framed this payload, so the
                        // stream is still in sync: answer and continue.
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
                // `None` means a Knn was enqueued — the dispatcher's
                // completion writes that reply.
                if let Some(response) = response {
                    if write_response(&writer, &response).is_err() {
                        break; // client gone mid-reply
                    }
                }
            }
            Err(FrameError::Oversized { len, max }) => {
                // The oversized body was never read, so the stream can't
                // be resynchronized: report, then drop the connection.
                shared.metrics.record_protocol_error();
                let resp = Response::Error {
                    code: ErrorCode::BadFrame,
                    message: format!("frame of {len} bytes exceeds the {max}-byte maximum"),
                };
                let _ = write_response(&writer, &resp);
                break;
            }
            Err(FrameError::Io(e)) => {
                // Truncated frame / reset: nothing to answer.
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    shared.metrics.record_protocol_error();
                }
                break;
            }
        }
    }
    shared.store.drop_owned(&owned_sessions);
}

/// A connection's membership in the live count, held for the whole of
/// [`handle_connection`] so that every way out of it — clean close,
/// read error, oversized frame, shutdown, a panic — uncounts it. The
/// batchers are told to look again: the departure may have been the
/// only thing keeping a collection window open.
struct LiveConnection<'a>(&'a Shared);

impl<'a> LiveConnection<'a> {
    fn enter(shared: &'a Shared) -> Self {
        shared.load.connect();
        LiveConnection(shared)
    }
}

impl Drop for LiveConnection<'_> {
    fn drop(&mut self) {
        self.0.load.disconnect();
        for batcher in &self.0.batchers {
            batcher.recheck();
        }
    }
}

/// One reply frame under the connection's write lock.
fn write_response(writer: &Mutex<TcpStream>, response: &Response) -> io::Result<()> {
    let mut w = writer.lock().expect("writer lock");
    write_frame(&mut *w, &response.encode())
}

/// Serve one decoded request; `None` means the reply was deferred to the
/// dispatcher (an enqueued `Knn`).
fn handle_request(
    req: Request,
    shared: &Arc<Shared>,
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
        Request::Knn { session, k, query } => handle_knn(
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
            // Lower once, before admission: everything downstream — the
            // session registry, the micro-batchers, the shard scatter —
            // sees a plain point query on the derived anchor, exactly
            // as if the client had sent v1 `Knn` with that point.
            let examples = ExampleSets {
                positives: spec.positives().to_vec(),
                negatives: spec.negatives().to_vec(),
            };
            let derived = spec.lower().into_request().point;
            // The trace bit is honored only at a negotiated v3+; on an
            // older negotiation it is ignored (not an error), so a v3
            // encoder talking through a v2 negotiation degrades to an
            // ordinary untraced reply.
            let traced = trace && *version >= 3;
            handle_knn(
                shared, writer, conn_id, session, k, derived, examples, traced,
            )
        }
        Request::Feedback { session, relevant } => {
            Some(shared.store.feedback(conn_id, session, relevant))
        }
        Request::SnapshotStats => Some(Response::Stats(Box::new(
            shared.metrics.snapshot(shared.store.count()),
        ))),
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
        Request::ShardKnn {
            k,
            seed,
            point,
            weights,
        } => Some(handle_shard_knn(shared, k, seed, point, weights)),
        Request::ShardInfo => Some(Response::ShardInfoResult {
            rows: shared.store.coll().len() as u64,
            offset: shared.cfg.row_offset as u64,
            dim: shared.store.coll().dim() as u32,
        }),
        Request::SnapshotModule => Some(Response::ModuleImage {
            image: shared.store.bypass().to_bytes(),
        }),
        Request::RestoreModule { image } => Some(shared.store.restore_module(&image)),
    }
}

/// `Knn` (and lowered `KnnV2`): resolve the session's search
/// parameters, admit the request, and scatter a gather cell into every
/// shard's micro-batcher; the shard dispatcher delivering the last
/// partial merges and finishes the reply (post-pass bookkeeping + the
/// socket write). `query` is the (possibly derived) anchor point and
/// `examples` the spec's example sets (empty for v1). With `traced`
/// set, a [`RequestTrace`] rides the gather and the reply carries the
/// stage-timing trailer — everything else about the reply is
/// bit-identical to the untraced answer. Returns `None` when the reply
/// was deferred to the dispatcher, `Some(error)` otherwise.
#[allow(clippy::too_many_arguments)]
fn handle_knn(
    shared: &Arc<Shared>,
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
    // `k` can never exceed the collection, so clamp instead of letting a
    // forged request size a gigantic k-best heap.
    let k = (k as usize).min(shared.store.coll().len());

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
    // Build the request's metric exactly once, at admission — every
    // shard pass and the final merge share it, instead of each shard
    // dispatch rebuilding it per pass.
    let metric = match req.metric(dim) {
        Ok(m) => m,
        Err(e) => {
            shared.metrics.record_protocol_error();
            return Some(err(ErrorCode::BadRequest, e.to_string()));
        }
    };

    // Admission: the queue bound applies to whole requests — a request
    // either scatters to every shard queue or is refused up front, so
    // no gather can ever be left half-scattered by backpressure.
    // The claim is released when the reply fires (or its completion is
    // dropped unfired), never by hand.
    let Some(in_flight) = shared.load.admit(shared.cfg.queue_capacity) else {
        return Some(err(ErrorCode::Busy, "batch queue full"));
    };
    shared.metrics.record_request();

    // Admission is t0: the trace's clock starts the moment the request
    // enters the scatter path, so every stage offset shares one origin.
    let req_trace =
        traced.then(|| RequestTrace::new(shared.next_trace.fetch_add(1, Ordering::Relaxed)));

    let completion = {
        let shared = Arc::clone(shared);
        let writer = Arc::clone(writer);
        let req_trace = req_trace.clone();
        Box::new(move |outcome: Result<Vec<Neighbor>, String>| {
            // Before the reply is written: the client's next request
            // must never find this one still counted.
            drop(in_flight);
            let response = match outcome {
                Ok(neighbors) => {
                    let (mut flags, cycles) = shared.store.finish_knn(session, &neighbors);
                    // Fold the trace last, right before encode, so the
                    // merge window covers the session bookkeeping too.
                    // Error replies never carry a trailer.
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
                        missing_shards: Vec::new(),
                        trace,
                        neighbors,
                    }
                }
                Err(msg) => err(ErrorCode::Internal, msg),
            };
            // A failed (or timed-out) write is a vanished or stalled
            // client: shut the socket down so its connection thread's
            // read errors out and reaps the sessions — the dispatcher
            // must never be wedged by one bad peer.
            if write_response(&writer, &response).is_err() {
                let w = writer.lock().expect("writer lock");
                let _ = w.shutdown(std::net::Shutdown::Both);
            }
        })
    };
    let gather = Gather::new(req, metric, k, shared.batchers.len(), req_trace, completion);
    for (shard, batcher) in shared.batchers.iter().enumerate() {
        if let Err(EnqueueError::ShuttingDown) = batcher.enqueue(Arc::clone(&gather)) {
            // Shutdown raced the scatter: deliver this shard's slot as
            // an error so the gather still resolves exactly once (the
            // reply becomes an `Internal` error frame).
            gather.complete_shard(shard, Err("server shutting down".into()));
        }
    }
    None
}

/// `ShardKnn`: a sessionless shard-local k-best under an explicit
/// metric — the frame a router scatters. The scan honors the caller's
/// cross-shard early-abandon `seed` (tightened further across the
/// internal shard split), the internal per-shard partials fold into one
/// via [`combine_partials`] (staying in selection space, so the
/// router's gather merges them exactly like in-process partials), and
/// every entry's index is offset by [`ServerConfig::row_offset`].
fn handle_shard_knn(
    shared: &Shared,
    k: u32,
    seed: f64,
    point: Vec<f64>,
    weights: Vec<f64>,
) -> Response {
    let dim = shared.store.coll().dim();
    if point.len() != dim {
        shared.metrics.record_protocol_error();
        return err(
            ErrorCode::DimMismatch,
            format!("expected {dim}, got {}", point.len()),
        );
    }
    // Empty weights mean uniform by protocol; anything else must match
    // the dimensionality and be a valid metric — a router relays exact
    // learned weights, so there is no silent uniform fallback here.
    let weights = if weights.is_empty() {
        vec![1.0; dim]
    } else {
        weights
    };
    if weights.len() != dim {
        shared.metrics.record_protocol_error();
        return err(
            ErrorCode::DimMismatch,
            format!("expected {dim} weights, got {}", weights.len()),
        );
    }
    let metric = match WeightedEuclidean::new(weights) {
        Ok(m) => m,
        Err(e) => {
            shared.metrics.record_protocol_error();
            return err(ErrorCode::BadRequest, format!("shard metric: {e}"));
        }
    };
    let k = (k as usize).min(shared.store.coll().len());
    // A NaN seed would poison every key comparison; treat it as
    // unseeded.
    let mut cap = if seed.is_nan() { f64::INFINITY } else { seed };
    let scan = serving_scan(
        &shared.sharded_coll,
        shared.partitions.as_deref(),
        shared.cfg.scan_mode,
        &shared.metrics,
    );
    let points = [point.as_slice()];
    let batch = QueryBatch::new(&points, QueryMetrics::Shared(&metric), k);
    let mut parts: Vec<ShardPartial> = Vec::with_capacity(shared.sharded_coll.shard_count());
    for s in 0..shared.sharded_coll.shard_count() {
        let part = scan.scan_shard(s, &batch, Some(&[cap])).remove(0);
        // Serial internal shards: each finished shard's k-th key
        // tightens the next one's bound (answer-preserving, like the
        // dispatcher's cross-shard seeds).
        if let Some(b) = part.bound_key(k) {
            cap = cap.min(b);
        }
        parts.push(part);
    }
    let combined = combine_partials(parts.iter(), k);
    let offset = shared.cfg.row_offset as u32;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use fbp_vecdb::CollectionBuilder;
    use feedbackbypass::{BypassConfig, FeedbackBypass};
    use std::io::Write;
    use std::time::Instant;

    const DIM: usize = 6;

    fn start(cfg: ServerConfig) -> ServerHandle {
        let mut b = CollectionBuilder::new().with_f32_mirror();
        for i in 0..200 {
            let v: Vec<f64> = (0..DIM)
                .map(|d| (((i * 13 + d * 7) as f64) * 0.37).sin().abs())
                .collect();
            b.push_unlabelled(&v).unwrap();
        }
        let bypass = SharedBypass::new(
            FeedbackBypass::for_histograms(DIM, BypassConfig::default()).unwrap(),
        );
        serve("127.0.0.1:0", Arc::new(b.build()), bypass, cfg).unwrap()
    }

    fn send(raw: &mut TcpStream, req: &Request) {
        write_frame(raw, &req.encode()).unwrap();
    }

    /// One client that leaves the way `exit` says, never cleanly.
    fn vanish(addr: SocketAddr, exit: usize) {
        let mut raw = TcpStream::connect(addr).unwrap();
        match exit % 4 {
            // Connects and goes.
            0 => {}
            // Queues a `Knn` and goes without reading its reply.
            1 => {
                send(&mut raw, &Request::OpenSession);
                let payload = read_frame(&mut raw, DEFAULT_MAX_FRAME_LEN, &mut || true)
                    .unwrap()
                    .expect("a reply frame");
                let Response::SessionOpened { session, .. } = Response::decode(&payload).unwrap()
                else {
                    panic!("expected SessionOpened");
                };
                let query = vec![0.5; DIM];
                send(
                    &mut raw,
                    &Request::Knn {
                        session,
                        k: 5,
                        query,
                    },
                );
            }
            // Goes mid-frame (the read-error exit).
            2 => raw.write_all(&[64, 0, 0, 0, 1, 2, 3]).unwrap(),
            // Announces a frame past the limit (the refused-frame exit).
            _ => raw.write_all(&u32::MAX.to_le_bytes()).unwrap(),
        }
    }

    fn settle(load: &Load, want: (usize, usize)) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while load.counts() != want {
            assert!(
                Instant::now() < deadline,
                "(inflight, live_conns) stuck at {:?}, want {want:?}",
                load.counts()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn vanishing_clients_leak_neither_load_counter() {
        // Timers long enough that paying one cannot be mistaken for
        // scheduling noise; a capacity small enough that the storm also
        // runs into `Busy` refusals.
        let timer = Duration::from_secs(3);
        let handle = start(ServerConfig {
            shards: 2,
            max_wait: timer,
            idle_gap: timer,
            queue_capacity: 2,
            ..Default::default()
        });
        let addr = handle.local_addr();
        let load = Arc::clone(&handle.shared.load);
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || (0..12).for_each(|i| vanish(addr, t + i)));
            }
        });
        // Every connection thread has noticed its peer is gone and every
        // abandoned request has been dispatched into its dead socket.
        settle(&load, (0, 0));

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
