//! Blocking client for the fbp-server protocol — the counterpart the
//! load generator and the wire tests drive; also the reference for
//! implementing the protocol in other languages.

use crate::protocol::{
    read_frame, write_frame, ErrorCode, FrameError, Request, Response, StatsSnapshot, TraceReport,
    DEFAULT_MAX_FRAME_LEN, KNN_CONVERGED, KNN_DEGRADED, KNN_DONE, PROTOCOL_VERSION,
};
use fbp_vecdb::Neighbor;
use feedbackbypass::QuerySpec;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (includes a server that hung up mid-frame).
    Io(io::Error),
    /// The server answered with a protocol error.
    Server {
        /// Error category.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The server's bytes did not decode, or the reply opcode did not
    /// match the request.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "I/O: {e}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Oversized { .. } => ClientError::Protocol(e.to_string()),
        }
    }
}

/// One `Knn` round's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnReply {
    /// Neighbors, ascending `(dist, index)`.
    pub neighbors: Vec<Neighbor>,
    /// The session's query finished on this round (parameters
    /// committed); no feedback is expected.
    pub done: bool,
    /// It finished by converging (stable ranking) rather than by the
    /// cycle cap.
    pub converged: bool,
    /// The reply is a documented partial answer: a router served it
    /// from the surviving shards under
    /// `FailurePolicy::Degraded` after at least one shard failed.
    pub degraded: bool,
    /// The shard ids missing from a degraded merge (empty when
    /// `degraded` is false).
    pub missing_shards: Vec<u32>,
    /// Feedback cycles the query has run.
    pub cycles: u32,
    /// Stage-level timing report, present iff the request asked for a
    /// trace over a v3+ negotiation (see [`Client::knn_spec_traced`]).
    /// Tracing never changes the answer: everything else in the reply
    /// is bit-identical to the untraced one.
    pub trace: Option<Box<TraceReport>>,
}

/// A `Feedback` acknowledgment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackReply {
    /// The query finished (converged or nothing left to learn).
    pub done: bool,
    /// It finished by converging.
    pub converged: bool,
    /// Feedback cycles run so far.
    pub cycles: u32,
}

/// Blocking connection to an fbp-server.
///
/// One `Client` owns one TCP connection and speaks strict
/// request/response (see [`crate::protocol`] for the wire contract and
/// [`Self::send_feedback`] for the one sanctioned pipelining overlap).
/// Sessions opened on this connection are owned by it — they cannot be
/// used from another connection and die when this one closes.
///
/// ```
/// use fbp_server::{serve, Client, ServerConfig};
/// use fbp_vecdb::CollectionBuilder;
/// use feedbackbypass::{BypassConfig, FeedbackBypass, SharedBypass};
/// use std::sync::Arc;
///
/// // A tiny served collection on an ephemeral loopback port.
/// let mut b = CollectionBuilder::new().with_f32_mirror();
/// b.push_unlabelled(&[0.1, 0.7, 0.2]).unwrap();
/// b.push_unlabelled(&[0.3, 0.3, 0.4]).unwrap();
/// let coll = Arc::new(b.build());
/// let bypass = SharedBypass::new(
///     FeedbackBypass::for_histograms(3, BypassConfig::default()).unwrap(),
/// );
/// let handle = serve("127.0.0.1:0", coll, bypass, ServerConfig::default()).unwrap();
///
/// // The full client surface: open, search, judge, stats, close.
/// let mut client = Client::connect(handle.local_addr()).unwrap();
/// let (session, dim) = client.open_session().unwrap();
/// assert_eq!(dim, 3);
/// let reply = client.knn(session, 2, &[0.1, 0.7, 0.2]).unwrap();
/// assert_eq!(reply.neighbors.len(), 2);
/// if !reply.done {
///     let relevant: Vec<u32> = reply.neighbors.iter().map(|n| n.index).collect();
///     client.feedback(session, &relevant).unwrap();
/// }
/// assert_eq!(client.stats().unwrap().requests, 1);
/// client.close_session(session).unwrap();
/// handle.shutdown();
/// ```
pub struct Client {
    reader: io::BufReader<TcpStream>,
    writer: TcpStream,
    max_frame_len: u32,
}

impl Client {
    /// Connect (Nagle off — the protocol is request/response).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = io::BufReader::with_capacity(16 * 1024, writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        })
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        let payload = read_frame(&mut self.reader, self.max_frame_len, &mut || true)?
            .ok_or_else(|| ClientError::Protocol("server closed before replying".into()))?;
        Response::decode(&payload).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// One request/response round trip.
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.writer, &req.encode())?;
        let resp = self.recv()?;
        if let Response::Error { code, message } = resp {
            return Err(ClientError::Server { code, message });
        }
        Ok(resp)
    }

    /// Negotiate the protocol version (see the `Protocol v2` section of
    /// [`crate::protocol`]): offer [`PROTOCOL_VERSION`], return what the
    /// server settled on. A v1 server that predates the handshake
    /// answers `UnknownOpcode` — that downgrade is folded into `Ok(1)`,
    /// so callers just check the returned version before using v2-only
    /// requests like [`Self::knn_spec`]. Any time before the first
    /// versioned request is fine; without it the connection speaks v1.
    pub fn hello(&mut self) -> Result<u8, ClientError> {
        match self.call(&Request::Hello {
            version: PROTOCOL_VERSION,
        }) {
            Ok(Response::HelloAck { version }) => Ok(version),
            Ok(other) => Err(unexpected("HelloAck", &other)),
            Err(ClientError::Server {
                code: ErrorCode::UnknownOpcode,
                ..
            }) => Ok(1),
            Err(e) => Err(e),
        }
    }

    /// Open a session; returns `(session id, collection dim)`.
    pub fn open_session(&mut self) -> Result<(u64, u32), ClientError> {
        match self.call(&Request::OpenSession)? {
            Response::SessionOpened { session, dim } => Ok((session, dim)),
            other => Err(unexpected("SessionOpened", &other)),
        }
    }

    /// One k-NN round under the session's current learned parameters.
    pub fn knn(&mut self, session: u64, k: u32, query: &[f64]) -> Result<KnnReply, ClientError> {
        let req = Request::Knn {
            session,
            k,
            query: query.to_vec(),
        };
        match self.call(&req)? {
            resp @ Response::KnnResult { .. } => Ok(knn_reply(resp)),
            other => Err(unexpected("KnnResult", &other)),
        }
    }

    /// One multi-example k-NN round: ship a [`QuerySpec`]'s anchor,
    /// example sets, and Rocchio coefficients as a `KnnV2` frame; the
    /// server lowers it to the derived anchor before admission, so the
    /// reply is bit-identical to [`Self::knn`] with that anchor.
    /// Requires a prior [`Self::hello`] that negotiated version ≥ 2 —
    /// otherwise the server refuses with `BadRequest`. The spec's
    /// per-spec `k`, when set, overrides the `k` argument; its weights
    /// do not travel on this frame (sessions own the learned weights).
    pub fn knn_spec(
        &mut self,
        session: u64,
        k: u32,
        spec: &QuerySpec,
    ) -> Result<KnnReply, ClientError> {
        self.knn_spec_inner(session, k, spec, false)
    }

    /// [`Self::knn_spec`] with the v3 trace bit set: the reply carries
    /// a stage-level [`TraceReport`] in [`KnnReply::trace`] — queue and
    /// scan (or downstream round-trip) time per shard, batch fill,
    /// hedge and fast-degrade attribution, and the gather/merge split.
    /// Requires a prior [`Self::hello`] that negotiated version ≥ 3; on
    /// an older negotiation the server ignores the bit and the reply
    /// comes back untraced (`trace: None`), answer unchanged.
    pub fn knn_spec_traced(
        &mut self,
        session: u64,
        k: u32,
        spec: &QuerySpec,
    ) -> Result<KnnReply, ClientError> {
        self.knn_spec_inner(session, k, spec, true)
    }

    fn knn_spec_inner(
        &mut self,
        session: u64,
        k: u32,
        spec: &QuerySpec,
        trace: bool,
    ) -> Result<KnnReply, ClientError> {
        let rocchio = spec.rocchio();
        let req = Request::KnnV2 {
            session,
            k: spec.k().map(|n| n as u32).unwrap_or(k),
            alpha: rocchio.alpha,
            beta: rocchio.beta,
            gamma: rocchio.gamma,
            clamp: spec.clamps_to_zero(),
            trace,
            anchor: spec.anchor().to_vec(),
            positives: spec.positives().to_vec(),
            negatives: spec.negatives().to_vec(),
        };
        match self.call(&req)? {
            resp @ Response::KnnResult { .. } => Ok(knn_reply(resp)),
            other => Err(unexpected("KnnResult", &other)),
        }
    }

    /// Drain up to `max` reports (`0` = all) from the server's
    /// slow-query trace ring, oldest first. The drain is destructive:
    /// consecutive calls return disjoint traces. Requires a negotiated
    /// version ≥ 3 (send [`Self::hello`] first).
    pub fn get_traces(&mut self, max: u32) -> Result<Vec<TraceReport>, ClientError> {
        match self.call(&Request::GetTraces { max })? {
            Response::TraceList { traces } => Ok(traces),
            other => Err(unexpected("TraceList", &other)),
        }
    }

    /// Sessionless shard-local k-best under an explicit metric — the
    /// frame a router scatters to its downstream shard servers. Returns
    /// `(finished, entries)`: the shard's exact local k-best, entries
    /// ascending by `(key, index)` with globally-offset indices, keys in
    /// selection space unless `finished`.
    pub fn shard_knn(
        &mut self,
        k: u32,
        seed: f64,
        point: &[f64],
        weights: &[f64],
    ) -> Result<(bool, Vec<(f64, u32)>), ClientError> {
        let req = Request::ShardKnn {
            k,
            seed,
            point: point.to_vec(),
            weights: weights.to_vec(),
        };
        match self.call(&req)? {
            Response::ShardPartial { finished, entries } => Ok((finished, entries)),
            other => Err(unexpected("ShardPartial", &other)),
        }
    }

    /// Probe the served slice: `(rows, global row offset, dim)`.
    pub fn shard_info(&mut self) -> Result<(u64, u64, u32), ClientError> {
        match self.call(&Request::ShardInfo)? {
            Response::ShardInfoResult { rows, offset, dim } => Ok((rows, offset, dim)),
            other => Err(unexpected("ShardInfoResult", &other)),
        }
    }

    /// Fetch the server's serialized learned module
    /// (`FeedbackBypass::to_bytes` image).
    pub fn snapshot_module(&mut self) -> Result<Vec<u8>, ClientError> {
        match self.call(&Request::SnapshotModule)? {
            Response::ModuleImage { image } => Ok(image),
            other => Err(unexpected("ModuleImage", &other)),
        }
    }

    /// Replace the server's learned module with a serialized image
    /// (against a router, the router's own module; nothing is forwarded
    /// to its shards).
    pub fn restore_module(&mut self, image: &[u8]) -> Result<(), ClientError> {
        let req = Request::RestoreModule {
            image: image.to_vec(),
        };
        match self.call(&req)? {
            Response::ModuleRestored => Ok(()),
            other => Err(unexpected("ModuleRestored", &other)),
        }
    }

    /// Judge the session's last un-judged round.
    pub fn feedback(
        &mut self,
        session: u64,
        relevant: &[u32],
    ) -> Result<FeedbackReply, ClientError> {
        self.send_feedback(session, relevant)?;
        self.recv_feedback()
    }

    /// Fire the `Feedback` frame without waiting for its ack — the
    /// pipelined half of [`Self::feedback`]. A closed-loop client can
    /// overlap the ack's round trip with its own think-time: send the
    /// judgment, think, then [`Self::recv_feedback`] the ack that
    /// arrived meanwhile. Exactly one `recv_feedback` must follow each
    /// `send_feedback` before any other request on this connection.
    pub fn send_feedback(&mut self, session: u64, relevant: &[u32]) -> Result<(), ClientError> {
        let req = Request::Feedback {
            session,
            relevant: relevant.to_vec(),
        };
        write_frame(&mut self.writer, &req.encode())?;
        Ok(())
    }

    /// Collect the ack of a prior [`Self::send_feedback`].
    pub fn recv_feedback(&mut self) -> Result<FeedbackReply, ClientError> {
        match self.recv()? {
            Response::FeedbackAck {
                done,
                converged,
                cycles,
            } => Ok(FeedbackReply {
                done,
                converged,
                cycles,
            }),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(unexpected("FeedbackAck", &other)),
        }
    }

    /// Fetch the server's metrics snapshot. Against a router the
    /// snapshot also carries one [`StatsSnapshot::health`] row per
    /// downstream shard — breaker state plus ejection/re-admission/
    /// probe-failure/fast-degrade counters; a flat shard server reports
    /// no rows.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.call(&Request::SnapshotStats)? {
            Response::Stats(s) => Ok(*s),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Drop a session.
    pub fn close_session(&mut self, session: u64) -> Result<(), ClientError> {
        match self.call(&Request::Close { session })? {
            Response::Closed => Ok(()),
            other => Err(unexpected("Closed", &other)),
        }
    }
}

/// Fold a `KnnResult` into the client-facing reply (the one place the
/// flag bits are interpreted).
///
/// # Panics
///
/// Panics if `resp` is not a `KnnResult`; callers match first.
fn knn_reply(resp: Response) -> KnnReply {
    let Response::KnnResult {
        flags,
        cycles,
        missing_shards,
        trace,
        neighbors,
    } = resp
    else {
        unreachable!("knn_reply called on a non-KnnResult");
    };
    KnnReply {
        neighbors,
        done: flags & KNN_DONE != 0,
        converged: flags & KNN_CONVERGED != 0,
        degraded: flags & KNN_DEGRADED != 0,
        missing_shards,
        cycles,
        trace,
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}
