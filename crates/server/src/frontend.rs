//! The one connection front-end both serving tiers run: the accept
//! loop, the per-connection read→decode→handle→reply loop with `Hello`
//! version negotiation, the request dispatch, `Knn` admission, and the
//! reply sink that finishes every gathered search.
//!
//! A shard server ([`crate::serve`]) and a router ([`crate::route`])
//! speak the same session protocol, so everything that speaks it lives
//! here once. What really differs sits behind [`Backend`]: where an
//! admitted search goes (the server's micro-batcher, or the
//! downstream pools), an early refusal ahead of admission, how
//! `ShardKnn` is answered, the row offset `ShardInfo` reports, the
//! tier's extra stats fields, and what a disconnect must wake.
//!
//! Session state lives in a [`SessionStore`] keyed by session id, so
//! the full interactive feedback loop runs over the wire with the same
//! [`fbp_feedback::FeedbackStepper`] transition the in-process serving
//! path executes. Sessions are **connection-scoped**: only the
//! connection that opened a session may use or close it (ids are
//! sequential, so they must not be capabilities), and they are dropped
//! when it disconnects.

use crate::batcher::{InFlight, Load};
use crate::metrics::Metrics;
use crate::protocol::{
    error_code_for, read_frame, write_frame, DecodeError, ErrorCode, FrameError, Request, Response,
    StatsSnapshot, KNN_DEGRADED, KNN_TRACED, PROTOCOL_VERSION,
};
use crate::sessions::{err, ExampleSets, SessionStore};
use crate::trace::{RequestTrace, TraceRing};
use fbp_vecdb::{DegradedGather, WeightedEuclidean};
use feedbackbypass::{BypassError, KnnRequest, QuerySpec, RequestError, RocchioWeights};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Capacity of the slow-query trace ring (reports, oldest evicted
/// first). Bounded so an undrained front-end holds a fixed few KiB of
/// trace state no matter how long it runs.
const TRACE_RING_CAP: usize = 64;

/// How a scattered search ended: the gathered neighbours (with the
/// shards missing from a degraded merge), or a ready-to-send error.
pub(crate) type Outcome = Result<DegradedGather, Response>;

/// Reply sink of one admitted search. Whichever backend thread resolves
/// the search's last slot calls it once; dropping it unfired still
/// releases the search's admission claim.
pub(crate) type ReplySink = Box<dyn FnOnce(Outcome) + Send>;

/// One admitted search with its parameters resolved: the request
/// (point, weights), its metric (built **once at admission** and shared
/// by the scan pass or every downstream call and the final merge), the
/// clamped `k`, and the span collector of a traced request (`None` on
/// the untraced path).
pub(crate) struct Search {
    pub(crate) req: KnnRequest,
    pub(crate) metric: WeightedEuclidean,
    pub(crate) k: usize,
    pub(crate) trace: Option<Arc<RequestTrace>>,
}

/// What a serving tier adds to the shared front-end.
pub(crate) trait Backend: Send + Sync + Sized + 'static {
    /// Message of the `Busy` refusal an over-capacity search draws.
    const BUSY: &'static str;

    /// Refuse a resolved search before it is admitted (`None` admits
    /// it). No in-flight claim is taken and no request is counted.
    fn refuse_early(&self) -> Option<Response> {
        None
    }

    /// Scatter one admitted search. `reply` fires exactly once, or is
    /// dropped unfired.
    fn scatter(&self, search: Search, reply: ReplySink);

    /// Answer a sessionless `ShardKnn`. A tier with no rows of its own
    /// (the router) refuses it.
    fn shard_knn(
        front: &FrontEnd<Self>,
        _k: u32,
        _seed: f64,
        _point: Vec<f64>,
        _weights: Vec<f64>,
    ) -> Response {
        front.metrics.record_protocol_error();
        err(
            ErrorCode::BadRequest,
            "ShardKnn targets a shard server, not a router",
        )
    }

    /// Global index of the served collection's first row, as
    /// `ShardInfo` reports it.
    fn row_offset(&self) -> u64 {
        0
    }

    /// Fill in the tier's own stats fields.
    fn add_stats(&self, _snap: &mut StatsSnapshot) {}

    /// A connection just closed.
    fn on_disconnect(&self) {}

    /// Shutdown began: stop taking new work and resolve what is queued,
    /// so the backend's threads can finish.
    fn halt(&self);
}

/// The settings every tier's config carries for its front-end; each
/// field means what the [`crate::ServerConfig`] field of the same name
/// documents.
pub(crate) struct Limits {
    pub(crate) queue_capacity: usize,
    pub(crate) max_frame_len: u32,
    pub(crate) read_timeout: Duration,
    pub(crate) write_timeout: Duration,
    pub(crate) slow_trace_threshold: Duration,
}

/// Everything a front-end's threads share, plus its backend.
pub(crate) struct FrontEnd<B> {
    pub(crate) store: SessionStore,
    pub(crate) metrics: Arc<Metrics>,
    /// Admitted, unanswered searches and live connections. The
    /// in-flight count is the admission bound — enforcing it here,
    /// before any scatter, keeps a router's scatter atomic: it reaches
    /// every shard or is refused outright with `Busy`. Both counts are
    /// released by drop guards only ([`InFlight`], [`LiveConnection`]).
    pub(crate) load: Arc<Load>,
    limits: Limits,
    next_conn: AtomicU64,
    /// Trace-id source for traced requests (unique per front-end).
    next_trace: AtomicU64,
    /// Slow-query trace ring, drained by `GetTraces`.
    traces: TraceRing,
    shutdown: AtomicBool,
    pub(crate) backend: B,
}

/// One connection's state: its id (session ownership), the write half
/// replies go through, the sessions it opened, and its negotiated
/// protocol version.
struct Conn {
    id: u64,
    writer: Arc<Mutex<TcpStream>>,
    owned: Vec<u64>,
    version: u8,
}

impl<B: Backend> FrontEnd<B> {
    pub(crate) fn new(
        store: SessionStore,
        metrics: Arc<Metrics>,
        load: Arc<Load>,
        limits: Limits,
        backend: B,
    ) -> Arc<Self> {
        Arc::new(FrontEnd {
            store,
            metrics,
            load,
            traces: TraceRing::new(TRACE_RING_CAP, limits.slow_trace_threshold),
            limits,
            next_conn: AtomicU64::new(1),
            next_trace: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            backend,
        })
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The shared serving counters plus the backend's own fields (the
    /// numbers the wire `SnapshotStats` reports).
    pub(crate) fn stats(&self) -> StatsSnapshot {
        let mut snap = self.metrics.snapshot(self.store.count());
        self.backend.add_stats(&mut snap);
        snap
    }

    /// Admission check for a search point arriving from the wire: it
    /// must match the served dimensionality and be finite. A NaN or
    /// infinite component would poison every key comparison of the scan.
    /// A refusal counts as a protocol error.
    pub(crate) fn check_point(&self, point: &[f64]) -> Result<(), Response> {
        let dim = self.store.coll().dim();
        let refusal = if point.len() != dim {
            err(
                ErrorCode::DimMismatch,
                format!("expected {dim}, got {}", point.len()),
            )
        } else if let Some(index) = point.iter().position(|c| !c.is_finite()) {
            let e = RequestError::NonFiniteComponent { index };
            err(error_code_for(&e), e.to_string())
        } else {
            return Ok(());
        };
        self.metrics.record_protocol_error();
        Err(refusal)
    }

    /// Read→handle→reply loop for one connection. Frame-layer failures
    /// end the connection; well-framed protocol errors are answered and
    /// the connection lives on. Sessions this connection opened die
    /// with it.
    ///
    /// The socket is split: this thread owns the read side; the write
    /// side sits behind a mutex shared with the backend thread that
    /// finishes a search (each reply frame is one `write_all` under the
    /// lock, so frames never interleave). A client must therefore keep
    /// at most one `Knn` in flight per connection before reading its
    /// reply — which a strict request/response client does by
    /// construction. The server's batcher leans on the same invariant:
    /// with as many searches in flight as there are live connections,
    /// nobody is left to send one.
    fn handle_connection(self: &Arc<Self>, stream: TcpStream) {
        let _live = LiveConnection::enter(self);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.limits.read_timeout));
        // Bounded reply writes: SO_SNDTIMEO is socket-wide, so the clone
        // the reply sink writes through inherits it — a peer that stops
        // reading can stall a reply for at most this long before the
        // write fails and the connection is shut down.
        let _ = stream.set_write_timeout(Some(self.limits.write_timeout));
        let writer: Arc<Mutex<TcpStream>> = match stream.try_clone() {
            Ok(w) => Arc::new(Mutex::new(w)),
            Err(_) => return,
        };
        // Buffered reads: header + body of a frame usually arrive
        // together, so one syscall serves both.
        let mut reader = io::BufReader::with_capacity(16 * 1024, stream);
        // Every connection starts at protocol v1; a `Hello` exchange can
        // raise it (to at most [`PROTOCOL_VERSION`]) for the
        // connection's remaining lifetime. Newer opcodes are refused
        // below the negotiated version, so v1 traffic stays
        // byte-for-byte unchanged.
        let mut conn = Conn {
            id: self.next_conn.fetch_add(1, Ordering::Relaxed),
            writer,
            owned: Vec::new(),
            version: 1,
        };
        loop {
            let mut keep_waiting = || !self.shutting_down();
            match read_frame(&mut reader, self.limits.max_frame_len, &mut keep_waiting) {
                Ok(None) => break, // clean close or shutdown
                Ok(Some(payload)) => {
                    let response = match Request::decode(&payload) {
                        Ok(req) => self.handle_request(req, &mut conn),
                        Err(e) => {
                            // The length prefix framed this payload, so
                            // the stream is still in sync: answer and
                            // continue.
                            self.metrics.record_protocol_error();
                            let code = match e {
                                DecodeError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
                                _ => ErrorCode::BadFrame,
                            };
                            Some(err(code, e.to_string()))
                        }
                    };
                    // `None` means a search was scattered — its reply
                    // sink writes that reply.
                    if let Some(response) = response {
                        if write_response(&conn.writer, &response).is_err() {
                            break; // client gone mid-reply
                        }
                    }
                }
                Err(FrameError::Oversized { len, max }) => {
                    // The oversized body was never read, so the stream
                    // can't be resynchronized: report, then drop the
                    // connection.
                    self.metrics.record_protocol_error();
                    let resp = err(
                        ErrorCode::BadFrame,
                        format!("frame of {len} bytes exceeds the {max}-byte maximum"),
                    );
                    let _ = write_response(&conn.writer, &resp);
                    break;
                }
                Err(FrameError::Io(e)) => {
                    // Truncated frame / reset: nothing to answer.
                    if e.kind() == io::ErrorKind::UnexpectedEof {
                        self.metrics.record_protocol_error();
                    }
                    break;
                }
            }
        }
        self.store.drop_owned(&conn.owned);
    }

    /// Serve one decoded request; `None` means the reply was deferred to
    /// the search's reply sink.
    fn handle_request(self: &Arc<Self>, req: Request, conn: &mut Conn) -> Option<Response> {
        match req {
            Request::Hello { version: client } => Some(if client == 0 {
                self.metrics.record_protocol_error();
                err(ErrorCode::BadRequest, "protocol version 0 is not valid")
            } else {
                conn.version = client.min(PROTOCOL_VERSION);
                Response::HelloAck {
                    version: conn.version,
                }
            }),
            Request::OpenSession => {
                let id = self.store.open(conn.id);
                conn.owned.push(id);
                Some(Response::SessionOpened {
                    session: id,
                    dim: self.store.coll().dim() as u32,
                })
            }
            Request::Knn { session, k, query } => {
                self.admit_knn(conn, session, k, query, ExampleSets::default(), false)
            }
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
                if conn.version < 2 {
                    self.metrics.record_protocol_error();
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
                        self.metrics.record_protocol_error();
                        return Some(err(error_code_for(&e), e.to_string()));
                    }
                };
                // Lower once, before admission: everything downstream —
                // the session registry, the scatter, a router's
                // `ShardKnn` frames — sees a plain point query on the
                // derived anchor, exactly as if the client had sent v1
                // `Knn` with that point.
                let examples = ExampleSets {
                    positives: spec.positives().to_vec(),
                    negatives: spec.negatives().to_vec(),
                };
                let derived = spec.lower().into_request().point;
                // The trace bit is honored only at a negotiated v3+; on
                // an older negotiation it is ignored (not an error), so a
                // v3 encoder talking through a v2 negotiation degrades to
                // an ordinary untraced reply.
                let traced = trace && conn.version >= 3;
                self.admit_knn(conn, session, k, derived, examples, traced)
            }
            Request::Feedback { session, relevant } => {
                Some(self.store.feedback(conn.id, session, relevant))
            }
            Request::SnapshotStats => Some(Response::Stats(Box::new(self.stats()))),
            Request::GetTraces { max } => {
                if conn.version < 3 {
                    self.metrics.record_protocol_error();
                    return Some(err(
                        ErrorCode::BadRequest,
                        "GetTraces requires a negotiated protocol version >= 3 (send Hello first)",
                    ));
                }
                Some(Response::TraceList {
                    traces: self.traces.drain(max),
                })
            }
            Request::Close { session } => {
                let removed = self.store.close(session, conn.id);
                conn.owned.retain(|&id| id != session);
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
            } => Some(B::shard_knn(self, k, seed, point, weights)),
            Request::ShardInfo => Some(Response::ShardInfoResult {
                rows: self.store.coll().len() as u64,
                offset: self.backend.row_offset(),
                dim: self.store.coll().dim() as u32,
            }),
            Request::SnapshotModule => Some(Response::ModuleImage {
                image: self.store.bypass().to_bytes(),
            }),
            Request::RestoreModule { image } => Some(self.store.restore_module(&image)),
        }
    }

    /// `Knn` (and lowered `KnnV2`): check the point, resolve the
    /// session's search parameters, admit, and hand the search to the
    /// backend's scatter. `query` is the (possibly derived) anchor point
    /// and `examples` the spec's example sets (empty for v1). With
    /// `traced` set, a [`RequestTrace`] rides the search and the reply
    /// carries the stage-timing trailer — everything else about the
    /// reply is bit-identical to the untraced answer. Returns `None`
    /// when the reply was deferred to the reply sink, `Some(error)`
    /// otherwise.
    fn admit_knn(
        self: &Arc<Self>,
        conn: &Conn,
        session: u64,
        k: u32,
        query: Vec<f64>,
        examples: ExampleSets,
        traced: bool,
    ) -> Option<Response> {
        if let Err(refusal) = self.check_point(&query) {
            return Some(refusal);
        }
        let dim = self.store.coll().dim();
        // `k` can never exceed the collection, so clamp instead of
        // letting a forged request size a gigantic k-best heap.
        let k = (k as usize).min(self.store.coll().len());
        let (point, weights) = match self.store.resolve_knn(conn.id, session, query, examples) {
            Ok(params) => params,
            Err(resp) => return Some(resp),
        };
        let req = KnnRequest {
            point,
            weights,
            k: Some(k),
        };
        let metric = match req.metric(dim) {
            Ok(m) => m,
            Err(e) => {
                self.metrics.record_protocol_error();
                return Some(err(metric_error_code(&e), e.to_string()));
            }
        };
        if let Some(refusal) = self.backend.refuse_early() {
            return Some(refusal);
        }
        // The claim is released when the reply fires (or its sink is
        // dropped unfired), never by hand.
        let Some(in_flight) = self.load.admit(self.limits.queue_capacity) else {
            return Some(err(ErrorCode::Busy, B::BUSY));
        };
        self.metrics.record_request();
        // Admission is t0: the trace's clock starts the moment the
        // search enters the scatter path, so every stage offset shares
        // one origin.
        let trace =
            traced.then(|| RequestTrace::new(self.next_trace.fetch_add(1, Ordering::Relaxed)));
        let reply = self.reply_sink(conn, session, in_flight, trace.clone());
        self.backend.scatter(
            Search {
                req,
                metric,
                k,
                trace,
            },
            reply,
        );
        None
    }

    /// The sink that turns a search's outcome into its reply frame:
    /// session bookkeeping, the degraded and traced flags, the trace
    /// fold, and the socket write.
    fn reply_sink(
        self: &Arc<Self>,
        conn: &Conn,
        session: u64,
        in_flight: InFlight,
        trace: Option<Arc<RequestTrace>>,
    ) -> ReplySink {
        let front = Arc::clone(self);
        let writer = Arc::clone(&conn.writer);
        Box::new(move |outcome: Outcome| {
            // Before the reply is written: the client's next request
            // must never find this one still counted.
            drop(in_flight);
            let response = match outcome {
                Ok(gathered) => {
                    let (mut flags, cycles) = front.store.finish_knn(session, &gathered.neighbors);
                    if gathered.is_degraded() {
                        flags |= KNN_DEGRADED;
                        front.metrics.record_degraded_reply();
                    }
                    // Fold the trace last, right before encode, so the
                    // merge window covers the session bookkeeping too.
                    // Error replies never carry a trailer.
                    let trace = trace.as_ref().map(|t| {
                        let report = t.finish();
                        front.traces.record(&report);
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
            // A failed (or timed-out) write is a vanished or stalled
            // client: shut the socket down so its connection thread's
            // read errors out and reaps the sessions — the backend
            // thread must never be wedged by one bad peer.
            if write_response(&writer, &response).is_err() {
                let w = writer.lock().expect("writer lock");
                let _ = w.shutdown(std::net::Shutdown::Both);
            }
        })
    }
}

/// A connection's membership in the live count, held for the whole of
/// the connection loop so that every way out of it — clean close, read
/// error, oversized frame, shutdown, a panic — uncounts it. The backend
/// is told, since the departure may have been the only thing keeping a
/// collection window open.
struct LiveConnection<'a, B: Backend>(&'a FrontEnd<B>);

impl<'a, B: Backend> LiveConnection<'a, B> {
    fn enter(front: &'a FrontEnd<B>) -> Self {
        front.load.connect();
        LiveConnection(front)
    }
}

impl<B: Backend> Drop for LiveConnection<'_, B> {
    fn drop(&mut self) {
        self.0.load.disconnect();
        self.0.backend.on_disconnect();
    }
}

/// The wire code of a [`KnnRequest::metric`] refusal: typed request
/// errors map through [`error_code_for`], as a `KnnV2` spec's do, and
/// only untyped ones fall back to `BadRequest`.
fn metric_error_code(e: &BypassError) -> ErrorCode {
    match e {
        BypassError::Request(e) => error_code_for(e),
        BypassError::DimMismatch { .. } => ErrorCode::DimMismatch,
        _ => ErrorCode::BadRequest,
    }
}

/// One reply frame under the connection's write lock.
fn write_response(writer: &Mutex<TcpStream>, response: &Response) -> io::Result<()> {
    let mut w = writer.lock().expect("writer lock");
    write_frame(&mut *w, &response.encode())
}

/// A running front-end: its shared state, the accept thread, the
/// connection threads it spawned, and the backend's own threads.
/// Dropping it shuts everything down and joins every thread, so tests
/// and examples cannot leak listeners.
pub(crate) struct Running<B: Backend> {
    pub(crate) front: Arc<FrontEnd<B>>,
    pub(crate) addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Joined last, after every connection thread.
    backend_threads: Vec<JoinHandle<()>>,
}

impl<B: Backend> Running<B> {
    /// Start accepting on `listener` (bound to `addr`), one thread per
    /// connection.
    pub(crate) fn start(
        listener: TcpListener,
        addr: SocketAddr,
        front: Arc<FrontEnd<B>>,
        backend_threads: Vec<JoinHandle<()>>,
    ) -> Self {
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = std::thread::spawn({
            let front = Arc::clone(&front);
            let conns = Arc::clone(&conns);
            move || {
                for stream in listener.incoming() {
                    if front.shutting_down() {
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
                    let front = Arc::clone(&front);
                    let handle = std::thread::spawn(move || front.handle_connection(stream));
                    let mut conns = conns.lock().expect("conns lock");
                    // Reap finished connection threads as we go so a
                    // long-lived front-end doesn't accumulate one
                    // JoinHandle per connection ever accepted.
                    conns.retain(|h| !h.is_finished());
                    conns.push(handle);
                }
            }
        });
        Running {
            front,
            addr,
            accept: Some(accept),
            conns,
            backend_threads,
        }
    }

    /// Graceful shutdown: stop accepting, halt the backend, join the
    /// accept thread, every connection thread, then the backend's
    /// threads. Returns once the last thread exited; a second call does
    /// nothing.
    fn stop(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.front.shutdown.store(true, Ordering::SeqCst);
        self.front.backend.halt();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
        // After the accept thread exits no new connection threads are
        // spawned; connection threads notice the flag within a
        // read-timeout slice.
        let conns: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        for h in conns {
            let _ = h.join();
        }
        for h in self.backend_threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl<B: Backend> Drop for Running<B> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The vanishing-client storm the load-counter tests of both tiers run.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::protocol::DEFAULT_MAX_FRAME_LEN;
    use fbp_vecdb::{Collection, CollectionBuilder};
    use feedbackbypass::{BypassConfig, FeedbackBypass, SharedBypass};
    use std::io::Write;
    use std::time::Instant;

    pub(crate) const DIM: usize = 6;

    /// The 200 rows the load-counter tests serve.
    pub(crate) fn collection() -> Collection {
        let mut b = CollectionBuilder::new().with_f32_mirror();
        for i in 0..200 {
            let v: Vec<f64> = (0..DIM)
                .map(|d| (((i * 13 + d * 7) as f64) * 0.37).sin().abs())
                .collect();
            b.push_unlabelled(&v).unwrap();
        }
        b.build()
    }

    pub(crate) fn module() -> SharedBypass {
        SharedBypass::new(FeedbackBypass::for_histograms(DIM, BypassConfig::default()).unwrap())
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

    /// 48 clients on four threads leave every way [`vanish`] knows.
    /// Returns once `load` reads `(0, 0)`: every connection thread has
    /// noticed its peer is gone and every abandoned search has been
    /// answered into its dead socket.
    pub(crate) fn storm(addr: SocketAddr, load: &Load) {
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || (0..12).for_each(|i| vanish(addr, t + i)));
            }
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while load.counts() != (0, 0) {
            assert!(
                Instant::now() < deadline,
                "(inflight, live_conns) stuck at {:?}",
                load.counts()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No wire input reaches a `KnnRequest::metric` refusal in
    /// `admit_knn` (the session store swaps degenerate predicted weights
    /// for uniform ones first), so the mapping is pinned here: a bad
    /// weight answers `BadWeight`, exactly the code `error_code_for`
    /// gives a `KnnV2` spec with the same defect.
    #[test]
    fn metric_refusals_carry_their_typed_codes() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let req = KnnRequest {
                point: vec![0.5; 3],
                weights: vec![1.0, bad, 1.0],
                k: None,
            };
            let e = req.metric(3).unwrap_err();
            let typed = RequestError::BadWeight {
                index: 1,
                value: bad,
            };
            assert_eq!(metric_error_code(&e), ErrorCode::BadWeight, "w={bad}");
            assert_eq!(metric_error_code(&e), error_code_for(&typed), "w={bad}");
        }
        let short = KnnRequest {
            point: vec![0.5; 3],
            weights: vec![1.0; 2],
            k: None,
        };
        let e = short.metric(3).unwrap_err();
        assert_eq!(metric_error_code(&e), ErrorCode::DimMismatch);
        let untyped = BypassError::BadQuery("not a histogram".into());
        assert_eq!(metric_error_code(&untyped), ErrorCode::BadRequest);
    }
}
