//! # fbp-server
//!
//! Network serving subsystem for the FeedbackBypass stack: a threaded
//! TCP front-end speaking a small length-prefixed binary protocol, with
//! an **adaptive micro-batcher** at its core that coalesces concurrent
//! sessions' k-NN requests into shared multi-query scan passes — one
//! [`QueryBatch`](fbp_vecdb::QueryBatch) per pass, the same description
//! of the operation the in-process front-end
//! ([`SharedBypass::knn_batch`](feedbackbypass::SharedBypass::knn_batch))
//! builds.
//!
//! ## Why a serving layer
//!
//! Interactive similarity retrieval is a many-user workload: sessions
//! think for a few milliseconds between refinement rounds, and each
//! round is one k-NN scan over the same collection. In-process, the
//! coalesced scan path already answers Q concurrent requests for one
//! streaming pass — but only a server can *create* that concurrency
//! from independent clients. The micro-batcher queues incoming `Knn`
//! requests for at most [`ServerConfig::max_wait`] (measured from the
//! oldest queued request) or until [`ServerConfig::max_batch`]
//! accumulate, then serves the whole batch with one pass: under light
//! load a request pays at most `max_wait` of extra latency, under heavy
//! load batches fill instantly — batch fill adapts to the offered
//! concurrency with no other tuning. It never waits for a request that
//! cannot come: a connection carries one `Knn` at a time, so once every
//! live connection has one queued the batch dispatches on the spot.
//!
//! ## One way to cut the rows
//!
//! A server scans its rows in one pass per batch. Rows are cut two
//! ways, never both inside one process: **within** a server by opt-in
//! partitions ([`ServerConfig::partitions`]), which let a pass skip
//! clusters a per-class lower bound proves irrelevant, and **across**
//! servers by the router tier below, each shard server serving one
//! contiguous row slice. Either cut answers bit-identically to one flat
//! server; see `ARCHITECTURE.md` at the repository root for the
//! invariant argument.
//!
//! ## Router tier
//!
//! [`route`] cuts the rows across **servers**: a router front-end owns
//! the session tier (module prediction, feedback transitions, commits)
//! and scatters each admitted `Knn` as one `ShardKnn` frame per remote
//! shard server, gathering the per-shard k-bests with a key-space merge
//! ([`merge_partials`](fbp_vecdb::merge_partials)) — bit-identical to
//! one flat server while every shard answers. Because downstreams can
//! fail independently, the router adds a robustness layer: per-downstream
//! connection pools with connect/read/write timeouts, exponential
//! backoff, and automatic reconnect; hedged retries that duplicate a
//! straggling shard's call after a p99-derived delay (first answer
//! wins); and an explicit [`FailurePolicy`] deciding what a reply may
//! claim when shards stay silent — `Strict` refuses with a typed
//! [`ErrorCode::ShardUnavailable`], `Degraded` answers from the
//! surviving subset with the reply flagged and the missing shards
//! named. Either way a request resolves within the shard-timeout
//! budget: the policy bounds *what* is answered, the deadline bounds
//! *when*. A scripted [`FaultPlan`] injects downstream faults
//! deterministically for tests and smoke drills. See `ARCHITECTURE.md`,
//! "router tier", for the full partial-failure policy.
//!
//! On top of the per-call machinery sits per-downstream **health
//! tracking** ([`HealthConfig`], [`health`]): a circuit breaker ejects
//! a persistently failing shard from the scatter set so requests stop
//! paying its `shard_timeout` (`Degraded` merges the survivors
//! instantly, `Strict` refuses fast), a background prober re-checks
//! ejected shards at backed-off intervals, and re-admission requires a
//! run of probe successes, each re-validating the shard's row slice.
//! The router owns the only learned module its deployment consults —
//! shards answer under the `(point, weights)` it sends — so no module
//! state ever travels router → shard. Per-shard health appears in
//! [`StatsSnapshot::health`] and on the wire.
//!
//! ## Protocol
//!
//! Frames are `u32` little-endian length + payload; the payload is an
//! opcode byte plus a fixed-layout body (see [`protocol`] for the exact
//! tables). Five requests drive the full interactive loop:
//!
//! * `OpenSession` → session id + collection dim;
//! * `Knn { session, k, query }` → neighbors (+ done/converged flags) —
//!   a fresh query anchors the session and starts from the shared
//!   module's predicted parameters; repeats of the same anchor search
//!   under the session's current learned parameters;
//! * `Feedback { session, relevant ids }` → advances the session one
//!   [`FeedbackStepper`](fbp_feedback::FeedbackStepper) transition (the
//!   same code the in-process serving loop runs); converged parameters
//!   are inserted into the shared module for future bypassing;
//! * `SnapshotStats` → serving metrics (requests, passes, mean batch
//!   fill, queue-wait percentiles);
//! * `Close { session }` → drops the session.
//!
//! Protocol **v2** adds an optional `Hello`/`HelloAck` version
//! handshake and the multi-example `KnnV2` frame (anchor + positive and
//! negative example sets + Rocchio coefficients), which both front-ends
//! lower to a plain derived-anchor query before admission — see the
//! *Protocol v2* section of [`protocol`]. Connections that skip the
//! handshake speak v1 byte-for-byte.
//!
//! Protocol **v3** adds opt-in **request tracing**: a `KnnV2` frame may
//! ask for a stage-level timing trailer on its reply (queue wait, scan
//! or downstream round trip, batch fill, hedge/fast-degrade
//! attribution per shard, plus the gather/merge split), and both
//! front-ends keep a bounded ring of recent slow traces drained by
//! `GetTraces`. Tracing never changes an answer — a traced reply is
//! bit-identical to the untraced one apart from the trailer — see the
//! *Protocol v3* section of [`protocol`] for the normative layout.
//!
//! Malformed frames answer coded errors (and drop the connection only
//! when the stream can no longer be trusted); a disconnected client's
//! queued requests resolve harmlessly — the batcher cannot be wedged by
//! a dead peer.
//!
//! Results over the wire are **bit-identical** to in-process serving:
//! the batcher feeds the same scan entry the `knn_batch` front-end
//! does, whose passes are pinned identical to per-session
//! [`LinearScan`](fbp_vecdb::LinearScan)s — regardless of how requests
//! happen to batch. Every serving pass asks for the f32-rescore
//! precision, as
//! [`SharedBypass::serving_scan`](feedbackbypass::SharedBypass::serving_scan)
//! does: mirrored collections stream f32 and rescore exact, the rest
//! run the f64 path.
//!
//! ## Quickstart
//!
//! ```no_run
//! use fbp_server::{serve, Client, ServerConfig};
//! use fbp_vecdb::CollectionBuilder;
//! use feedbackbypass::{BypassConfig, FeedbackBypass, SharedBypass};
//! use std::sync::Arc;
//!
//! let mut b = CollectionBuilder::new().with_f32_mirror();
//! b.push_unlabelled(&[0.1, 0.7, 0.2]).unwrap();
//! let coll = Arc::new(b.build());
//! let bypass = SharedBypass::new(
//!     FeedbackBypass::for_histograms(3, BypassConfig::default()).unwrap(),
//! );
//! let handle = serve("127.0.0.1:0", coll, bypass, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! let (session, dim) = client.open_session().unwrap();
//! assert_eq!(dim, 3);
//! let reply = client.knn(session, 1, &[0.1, 0.7, 0.2]).unwrap();
//! assert_eq!(reply.neighbors.len(), 1);
//! handle.shutdown();
//! ```

#![warn(missing_docs)]

mod batcher;
mod frontend;
mod metrics;
mod pool;
mod router;
mod server;
mod sessions;
mod trace;

pub mod client;
pub mod faults;
pub mod health;
pub mod loadgen;
pub mod protocol;

pub use client::{Client, ClientError, FeedbackReply, KnnReply};
pub use faults::{FaultMode, FaultPlan, FaultRule};
pub use fbp_vecdb::FailurePolicy;
pub use health::HealthConfig;
pub use loadgen::{run_loadgen, LoadgenOptions, LoadgenReport, Relevance};
pub use protocol::{
    error_code_for, DownstreamHealth, ErrorCode, HealthState, ShardSpan, StatsSnapshot,
    TraceReport, KNN_TRACED, PROTOCOL_VERSION, SPAN_FAILED, SPAN_FAST_DEGRADED, SPAN_HEDGE_FIRED,
    SPAN_HEDGE_WON, TRACE_VERSION,
};
pub use router::{route, HedgeConfig, RouterConfig, RouterHandle};
pub use server::{serve, ServerConfig, ServerHandle};
