//! Wire protocol: length-prefixed binary frames over TCP. **This module
//! is the normative protocol specification** — the tables and rules
//! below define the wire contract; [`Client`](crate::Client) is the
//! reference implementation.
//!
//! # Framing
//!
//! Every message travels as one **frame**: a little-endian `u32` payload
//! length followed by that many payload bytes. The first payload byte is
//! the opcode, the rest is the fixed-layout body (all integers
//! little-endian, all floats IEEE-754 `f64` little-endian bytes; `bool`s
//! are one byte, 0 = false, non-zero = true). The length prefix is the
//! only framing — a reader can always resynchronize by closing the
//! connection, and a writer can always emit a frame with one
//! `write_all`. A frame whose length prefix exceeds the configured
//! maximum ([`DEFAULT_MAX_FRAME_LEN`] by default) is refused *before*
//! its body is read, so the peer must treat the connection as dead.
//! Element counts inside a body are validated against the remaining
//! byte budget before any allocation (a forged count cannot drive an
//! out-of-memory), and every body must account for every payload byte —
//! trailing bytes are a [`DecodeError::TrailingBytes`] protocol error.
//!
//! # Request opcodes (client → server)
//!
//! | op     | message        | body                                          |
//! |--------|----------------|-----------------------------------------------|
//! | `0x01` | `OpenSession`  | —                                             |
//! | `0x02` | `Knn`          | `u64 session`, `u32 k`, `u32 n`, `n × f64`    |
//! | `0x03` | `Feedback`     | `u64 session`, `u32 n`, `n × u32` relevant ids|
//! | `0x04` | `SnapshotStats`| —                                             |
//! | `0x05` | `Close`        | `u64 session`                                 |
//! | `0x06` | `ShardKnn`     | `u32 k`, `f64 seed`, `u32 n`, `n × f64` point, `u32 wn`, `wn × f64` weights |
//! | `0x07` | `ShardInfo`    | —                                             |
//! | `0x08` | `SnapshotModule`| —                                            |
//! | `0x09` | `RestoreModule`| `u32 len`, `len` bytes (serialized module)    |
//! | `0x0A` | `Hello`        | `u8 version` (v2+)                            |
//! | `0x0B` | `KnnV2`        | see *Protocol v2* below (v2+)                 |
//! | `0x0C` | `GetTraces`    | `u32 max` (v3+; see *Protocol v3* below)      |
//!
//! Opcodes `0x06`–`0x07` are the **router tier's downstream surface**
//! (router → shard server), spoken on the same framed connections as
//! the client surface. `ShardKnn` is sessionless: it asks for the
//! shard's exact local k-best under an explicit `(point, weights)`
//! metric (`wn` must equal `n`, or be `0` for uniform weights) and
//! returns a keyed `ShardPartial` — indices already offset by the shard
//! server's configured `row_offset`, `k` clamped to the shard's rows.
//! `seed` is a cross-shard early-abandon cap (another shard's k-th-best
//! bound); `+∞` means unseeded and is always sound. `ShardInfo` probes
//! the served slice (rows, global row offset, dimensionality).
//! `0x08 SnapshotModule`/`0x09 RestoreModule` read and replace the
//! answering front-end's **own** learned module as one serialized image
//! (the `simplex-tree` persistence image) — a client-to-server
//! operation. A router answers them for its module and forwards
//! nothing: it lowers every search to `(point, weights)` itself, so its
//! shards never consult a module. The image travels as one frame, so a
//! module past `max_frame_len` cannot be moved this way.
//!
//! # Response opcodes (server → client)
//!
//! | op     | message         | body                                               |
//! |--------|-----------------|----------------------------------------------------|
//! | `0x81` | `SessionOpened` | `u64 session`, `u32 dim`                           |
//! | `0x82` | `KnnResult`     | `u8 flags`, `u32 cycles`, \[`u32 m`, `m × u32` missing shards — iff `flags & KNN_DEGRADED`\], \[trace trailer — iff `flags & KNN_TRACED`, see *Protocol v3*\], `u32 n`, `n × (u32, f64)` |
//! | `0x83` | `FeedbackAck`   | `u8 done`, `u8 converged`, `u32 cycles`            |
//! | `0x84` | `Stats`         | see below                                          |
//! | `0x85` | `Closed`        | —                                                  |
//! | `0x86` | `ShardPartial`  | `u8 finished`, `u32 n`, `n × (f64 key, u32 index)` |
//! | `0x87` | `ShardInfoResult`| `u64 rows`, `u64 offset`, `u32 dim`               |
//! | `0x88` | `ModuleImage`   | `u32 len`, `len` bytes (serialized module)         |
//! | `0x89` | `ModuleRestored`| —                                                  |
//! | `0x8A` | `HelloAck`      | `u8 version` (v2+)                                 |
//! | `0x8B` | `TraceList`     | `u32 n`, `n ×` trace report (v3+; see *Protocol v3*) |
//! | `0xEE` | `Error`         | `u8 code`, `u32 len`, UTF-8 message                |
//!
//! The degraded-flag encoding in `0x82` is **normative**: bit 2 of
//! `flags` ([`KNN_DEGRADED`]) marks an answer merged from a surviving
//! shard subset under the router's `Degraded{min_shards}` failure
//! policy. When (and only when) the bit is set, the body carries the
//! missing-shard id list between `cycles` and the neighbor count; the
//! neighbors are then exactly the flat scan over the surviving shards'
//! rows. An undegraded reply never carries the list, so pre-router
//! clients parse identically. `0x86 ShardPartial` entries ascend by
//! `(key, index)` — a receiver must validate the ordering (forged
//! partials would corrupt the key-space merge) and treat violations as
//! a protocol error.
//!
//! The `0x84` `Stats` body is the [`StatsSnapshot`] fields in
//! declaration order:
//!
//! | field                  | type  |
//! |------------------------|-------|
//! | `requests`             | `u64` |
//! | `passes`               | `u64` |
//! | `shards`               | `u64` |
//! | `mean_batch_fill`      | `f64` |
//! | `queue_wait_p50_us`    | `f64` |
//! | `queue_wait_p99_us`    | `f64` |
//! | `sessions_open`        | `u64` |
//! | `protocol_errors`      | `u64` |
//! | `downstream_timeouts`  | `u64` |
//! | `downstream_retries`   | `u64` |
//! | `downstream_reconnects`| `u64` |
//! | `hedges_fired`         | `u64` |
//! | `hedges_won`           | `u64` |
//! | `degraded_replies`     | `u64` |
//! | `scan_rows_visited`    | `u64` |
//! | `scan_blocks_abandoned`| `u64` |
//! | `scan_candidates_filtered` | `u64` |
//! | `scan_candidates_rescored` | `u64` |
//! | `scan_seed_prunes`     | `u64` |
//! | `scan_partitions_pruned` | `u64` |
//! | `health_rows`          | `u32` |
//! | `health_rows × row`    | see below |
//!
//! The six `downstream_*`/`hedges_*`/`degraded_replies` fields are the
//! router tier's fault counters, aggregated across its downstreams; a
//! plain shard server reports them as zero. The six `scan_*` fields
//! are the served collection's cumulative scan-path counters (see
//! *Protocol v3* below); a router, which scans nothing itself, reports
//! them as zero. Like the health block when it was introduced, the
//! `scan_*` fields extend the `0x84` body unconditionally: `Stats` is
//! an operator surface whose layout tracks the build, not part of the
//! frozen query surface — both sides of this repository move together.
//!
//! The trailing `health_rows` block is **normative**: one row per
//! router downstream (zero rows on a plain shard server), each row laid
//! out as
//!
//! | field            | type  | meaning                                      |
//! |------------------|-------|----------------------------------------------|
//! | `shard`          | `u32` | downstream shard index                       |
//! | `state`          | `u8`  | [`HealthState`] (0 healthy, 1 suspect, 2 ejected, 3 probing); other values are malformed |
//! | `ejections`      | `u64` | times the shard was ejected from the scatter |
//! | `readmissions`   | `u64` | times it was probed back to `Healthy`        |
//! | `probe_failures` | `u64` | re-admission probes that failed              |
//! | `fast_degrades`  | `u64` | scatters that skipped it while ejected (no `shard_timeout` paid) |
//!
//! An `Ejected` downstream is removed from the scatter set **before**
//! the fan-out: under `Degraded` policy the reply merges the survivors
//! immediately (the shard appears in `missing_shards` without its
//! timeout being paid — that is one `fast_degrades` tick), under
//! `Strict` the request refuses fast with `ShardUnavailable`. Only a
//! successful re-admission probe sequence (each probe re-validating
//! the slice tiling) returns the shard to traffic.
//!
//! # Protocol v2: version negotiation and multi-example queries
//!
//! The original protocol (everything above) is **version 1** and has no
//! handshake: a connection starts in v1 and every v1 frame keeps its
//! exact layout forever. Version 2 adds two opcodes, both **opt-in**:
//!
//! **Hello / HelloAck** — a v2-aware client *may* send `0x0A Hello
//! { u8 version }` (its highest supported version, currently
//! [`PROTOCOL_VERSION`] = 3) as any request; the server replies `0x8A
//! HelloAck { u8 version }` carrying `min(client, server)`, and the
//! connection is **negotiated** to that version from then on. The
//! handshake is normatively optional and idempotent: a connection that
//! never sends `Hello` stays at version 1 and behaves byte-for-byte
//! like an old server/client pair — which is why pre-v2 clients pass
//! the wire-identity suite against a v2 server unmodified. A v2 client
//! talking to a v1 server receives `0xEE Error { UnknownOpcode }` for
//! its `Hello` and must treat the connection as version 1 (the
//! connection stays healthy; `UnknownOpcode` does not drop it).
//! `Hello { version: 0 }` is malformed ([`ErrorCode::BadRequest`]).
//!
//! **KnnV2** — the multi-example search frame, valid **only after** the
//! connection negotiated version ≥ 2 (otherwise
//! [`ErrorCode::BadRequest`]). Body layout:
//!
//! | field       | type            | meaning                                   |
//! |-------------|-----------------|-------------------------------------------|
//! | `session`   | `u64`           | session id (same ownership rules as `Knn`)|
//! | `k`         | `u32`           | result count                              |
//! | `alpha`     | `f64`           | Rocchio anchor coefficient                |
//! | `beta`      | `f64`           | Rocchio positive-centroid coefficient     |
//! | `gamma`     | `f64`           | Rocchio negative-centroid coefficient     |
//! | `flags`     | `u8`            | bit 0 = clamp derived components to ≥ 0; bit 1 = request a trace trailer (v3+, see *Protocol v3*; ignored below v3) |
//! | `n`         | `u32`           | dimensionality of every vector below      |
//! | `anchor`    | `n × f64`       | anchor point                              |
//! | `p`         | `u32`           | positive-example count                    |
//! | `positives` | `p × (n × f64)` | positive examples, back to back           |
//! | `m`         | `u32`           | negative-example count                    |
//! | `negatives` | `m × (n × f64)` | negative examples, back to back           |
//!
//! The reply is an ordinary `0x82 KnnResult`. Semantics are
//! **lower-then-serve**: the server derives the Rocchio anchor
//! `q' = α·anchor + β·mean(positives) − γ·mean(negatives)` (empty sets
//! drop their term; the clamp flag floors each component at zero) once
//! at admission, then proceeds exactly as `Knn` with `q'` — session
//! anchoring, module prediction, batching, sharding, and the router's
//! scatter (`ShardKnn` carries only the derived anchor, so shard
//! servers never see examples and need no v2). The results are
//! therefore **bit-identical** to a v1 `Knn` carrying the derived
//! anchor, and to a flat scan against it. A `KnnV2` with `α = 0` and no
//! examples is refused with [`ErrorCode::EmptyExampleSet`]; non-finite
//! vector components or coefficients with
//! [`ErrorCode::NonFiniteComponent`]; mismatched example lengths are a
//! [`DecodeError`]-level [`ErrorCode::BadFrame`] (the layout fixes one
//! `n` for every vector).
//!
//! # Protocol v3: request tracing
//!
//! Version 3 adds **end-to-end request tracing**: a client that
//! negotiated version ≥ 3 may set bit 1 of the `KnnV2` `flags` byte to
//! ask the server to record stage-level timings for that request and
//! return them on the reply. Tracing is observational only —
//! **normative invariant**: a traced reply's flags (other than
//! [`KNN_TRACED`]), cycles, missing shards, and neighbors are
//! bit-identical to the untraced reply the same request would have
//! drawn. Servers below v3, and connections negotiated below v3,
//! ignore the bit entirely (it was reserved-zero in v2).
//!
//! **Trace trailer** — when (and only when) [`KNN_TRACED`] (bit 3) is
//! set in a `0x82 KnnResult`, the body carries a trace trailer between
//! the (optional) missing-shard block and the neighbor count:
//!
//! | field       | type       | meaning                                   |
//! |-------------|------------|-------------------------------------------|
//! | `version`   | `u8`       | trailer layout version, currently [`TRACE_VERSION`] = 1; other values are malformed |
//! | `trace_id`  | `u64`      | server-assigned id, unique per traced request per server |
//! | `wall_ns`   | `u64`      | admission → reply encode, nanoseconds     |
//! | `gather_ns` | `u64`      | admission → last shard slot resolved      |
//! | `merge_ns`  | `u64`      | last shard slot resolved → reply encode   |
//! | `s`         | `u32`      | span count (one per shard the request touched) |
//! | `spans`     | `s ×` span | per-shard spans, layout below             |
//!
//! Each 25-byte **shard span**:
//!
//! | field        | type  | meaning                                        |
//! |--------------|-------|------------------------------------------------|
//! | `shard`      | `u32` | shard index                                    |
//! | `queue_ns`   | `u64` | admission → this shard's work began (batch dispatch, or a pool worker picking the call up) |
//! | `busy_ns`    | `u64` | work began → slot resolved (the coalesced scan pass, or the downstream round trip) |
//! | `batch_fill` | `u32` | requests in the coalesced pass that served this shard (0 = not batched: a router leg) |
//! | `flags`      | `u8`  | [`SPAN_HEDGE_FIRED`] \| [`SPAN_HEDGE_WON`] \| [`SPAN_FAST_DEGRADED`] \| [`SPAN_FAILED`]; other bits reserved-zero |
//!
//! All times come from one monotonic clock per server, measured as
//! offsets from the request's admission instant, so the decomposition
//! is **self-consistent by construction**:
//! `wall_ns = gather_ns + merge_ns`, and for every span
//! `queue_ns + busy_ns ≤ gather_ns` (a hedged span reports the winning
//! leg; a failed span reports the failing leg with [`SPAN_FAILED`]).
//!
//! **GetTraces / TraceList** — servers keep a bounded ring of recent
//! **slow** traces (every traced reply whose `wall_ns` exceeds the
//! configured slow-query threshold is recorded; the ring evicts
//! oldest-first). `0x0C GetTraces { u32 max }` (valid only after
//! negotiating ≥ 3, [`ErrorCode::BadRequest`] otherwise) **drains** up
//! to `max` of them, oldest first (`max = 0` drains all); the `0x8B
//! TraceList` reply carries `u32 n` followed by `n` trace reports, each
//! laid out exactly like the trailer above *without* the leading
//! version byte (the list is versioned as a whole by the negotiated
//! protocol version). Draining is destructive: two consecutive
//! `GetTraces` calls return disjoint traces.
//!
//! # Conversation rules
//!
//! The protocol is strict request/response per connection: a client
//! sends one request frame and reads exactly one response frame before
//! the next request. (The one sanctioned overlap: a `Feedback` frame
//! may be *sent* and its `FeedbackAck` collected later — but no other
//! request may be issued in between; see
//! [`Client::send_feedback`](crate::Client::send_feedback).) Any
//! request may be answered by `0xEE Error` instead of its normal reply.
//!
//! [`KnnResult`](Response::KnnResult) flags: bit 0 ([`KNN_DONE`]) — the
//! session's current query finished on this round (stable ranking or the
//! cycle cap) and its parameters were committed to the shared module;
//! bit 1 ([`KNN_CONVERGED`]) — it finished by converging rather than by
//! hitting the cap. A reply without `KNN_DONE` invites a `Feedback`
//! frame judging these results. `Knn.k` is clamped server-side to the
//! collection size; a repeated `Knn` with the session's current anchor
//! query re-searches under the session's learned parameters, while a
//! new query point re-anchors the session.
//!
//! # Session ownership
//!
//! Session ids are **sequential, not capabilities**: knowing an id
//! grants nothing. Every `Knn`/`Feedback`/`Close` is checked against
//! the connection that issued the `OpenSession`; a foreign connection
//! gets [`ErrorCode::UnknownSession`] — indistinguishable from a
//! missing id, so ids cannot even be probed for existence. Sessions die
//! with their connection (server-side state is reaped on disconnect);
//! `Close` is the polite form.
//!
//! # Error codes
//!
//! | code | name             | meaning / recovery                                        |
//! |------|------------------|-----------------------------------------------------------|
//! | 1    | `BadFrame`       | malformed frame or body; oversized frames also drop the connection |
//! | 2    | `UnknownOpcode`  | first payload byte unknown; connection continues          |
//! | 3    | `UnknownSession` | id not registered **or not owned by this connection**     |
//! | 4    | `DimMismatch`    | query length ≠ served collection dim                      |
//! | 5    | `BadRequest`     | valid frame, wrong session state (e.g. `Feedback` with no un-judged results) |
//! | 6    | `Busy`           | admission queue full — well-formed backpressure, retry after a pause |
//! | 7    | `Internal`       | server-side failure (shutdown race, scan error)           |
//! | 8    | `ShardUnavailable` | a downstream shard failed and the failure policy refused a degraded answer; retry after the shard recovers |
//! | 9    | `BadWeight`      | a distance weight is non-finite or not strictly positive  |
//! | 10   | `NonFiniteComponent` | a query/example component or Rocchio coefficient is NaN or infinite |
//! | 11   | `EmptyExampleSet`| a `KnnV2` with `α = 0` and no examples — nothing to derive an anchor from |
//! | 12   | `PrecisionConflict` | requests pin conflicting scan precisions for one pass  |
//!
//! Codes 9–12 are the typed request-validation errors introduced with
//! protocol v2; they mirror the in-process `RequestError` variants
//! one-to-one, so a client can branch on the failure without parsing
//! message strings. A v2 server may answer them to v1 frames too (e.g.
//! bad `ShardKnn` weights), which is compatible: v1 defined the error
//! *frame*, not a closed code set, and unknown codes decode as
//! [`DecodeError`]-level failures only in clients older than the code —
//! v1 traffic that was valid before never draws them.

use fbp_vecdb::Neighbor;
use feedbackbypass::RequestError;
use std::io::{self, Read, Write};

/// Largest frame either side accepts by default (1 MiB — a 16k-d f64
/// query is ~128 KiB, so this is generous without letting a bad length
/// prefix allocate gigabytes).
pub const DEFAULT_MAX_FRAME_LEN: u32 = 1 << 20;

/// Highest protocol version this build speaks. Version 1 is the
/// handshake-free original; version 2 adds [`Request::Hello`] /
/// [`Response::HelloAck`] negotiation and the multi-example
/// [`Request::KnnV2`] frame (see the module docs, *Protocol v2*);
/// version 3 adds request tracing — the `KnnV2` trace flag, the
/// [`KNN_TRACED`] reply trailer, and [`Request::GetTraces`] /
/// [`Response::TraceList`] (see *Protocol v3*).
pub const PROTOCOL_VERSION: u8 = 3;

/// [`Response::KnnResult`] flag: the session's query finished.
pub const KNN_DONE: u8 = 0b01;
/// [`Response::KnnResult`] flag: it finished by converging.
pub const KNN_CONVERGED: u8 = 0b10;
/// [`Response::KnnResult`] flag: the answer was merged from a surviving
/// shard subset (the router's `Degraded` failure policy); the body then
/// carries the missing-shard id list and the neighbors are exactly the
/// flat scan over the surviving shards' rows.
pub const KNN_DEGRADED: u8 = 0b100;
/// [`Response::KnnResult`] flag (v3): the body carries a trace trailer
/// between the (optional) missing-shard block and the neighbor count —
/// the stage-level timing report the request opted into. Everything
/// else about the reply is bit-identical to the untraced answer.
pub const KNN_TRACED: u8 = 0b1000;

/// Trace trailer layout version (the trailer's leading byte). Decoders
/// must refuse other values as malformed.
pub const TRACE_VERSION: u8 = 1;

/// [`ShardSpan`] flag: a hedge (duplicate) call was fired at this shard
/// while its primary leg straggled.
pub const SPAN_HEDGE_FIRED: u8 = 0b0001;
/// [`ShardSpan`] flag: the hedge leg's answer beat the primary's — the
/// span's timings describe the winning (hedge) leg.
pub const SPAN_HEDGE_WON: u8 = 0b0010;
/// [`ShardSpan`] flag: the shard was ejected from the scatter set at
/// admission and skipped without paying its timeout (a fast degrade).
pub const SPAN_FAST_DEGRADED: u8 = 0b0100;
/// [`ShardSpan`] flag: the shard's slot resolved as a failure; the
/// span's timings describe the failing leg.
pub const SPAN_FAILED: u8 = 0b1000;

/// Protocol error categories carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Malformed frame: empty payload, truncated body, trailing bytes,
    /// or a length prefix exceeding the configured maximum.
    BadFrame = 1,
    /// First payload byte is not a known opcode.
    UnknownOpcode = 2,
    /// The session id is not (or no longer) registered.
    UnknownSession = 3,
    /// Query dimensionality disagrees with the served collection.
    DimMismatch = 4,
    /// Request is valid on the wire but not in the current session state
    /// (e.g. `Feedback` before any `Knn` results).
    BadRequest = 5,
    /// The batch queue is full; retry after a pause.
    Busy = 6,
    /// Server-side failure (shutdown race, dispatcher gone).
    Internal = 7,
    /// A downstream shard failed and the failure policy refused to
    /// answer degraded (router tier only).
    ShardUnavailable = 8,
    /// A distance weight is non-finite or not strictly positive (v2).
    BadWeight = 9,
    /// A query/example component or Rocchio coefficient is NaN or
    /// infinite (v2).
    NonFiniteComponent = 10,
    /// A `KnnV2` with `α = 0` and no examples: nothing to derive an
    /// anchor from (v2).
    EmptyExampleSet = 11,
    /// Requests pin conflicting scan precisions for one pass (v2).
    PrecisionConflict = 12,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::UnknownOpcode,
            3 => ErrorCode::UnknownSession,
            4 => ErrorCode::DimMismatch,
            5 => ErrorCode::BadRequest,
            6 => ErrorCode::Busy,
            7 => ErrorCode::Internal,
            8 => ErrorCode::ShardUnavailable,
            9 => ErrorCode::BadWeight,
            10 => ErrorCode::NonFiniteComponent,
            11 => ErrorCode::EmptyExampleSet,
            12 => ErrorCode::PrecisionConflict,
            _ => return None,
        })
    }
}

/// The wire error code a typed [`RequestError`] surfaces as — the same
/// mapping both the shard server and the router apply when a `KnnV2`
/// spec fails validation, so in-process and over-the-wire callers see
/// the same category for the same defect.
pub fn error_code_for(e: &RequestError) -> ErrorCode {
    match e {
        RequestError::DimMismatch { .. } => ErrorCode::DimMismatch,
        RequestError::BadWeight { .. } => ErrorCode::BadWeight,
        RequestError::NonFiniteComponent { .. } => ErrorCode::NonFiniteComponent,
        RequestError::EmptyExampleSet => ErrorCode::EmptyExampleSet,
        RequestError::PrecisionConflict => ErrorCode::PrecisionConflict,
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::UnknownOpcode => "unknown-opcode",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::DimMismatch => "dim-mismatch",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Busy => "busy",
            ErrorCode::Internal => "internal",
            ErrorCode::ShardUnavailable => "shard-unavailable",
            ErrorCode::BadWeight => "bad-weight",
            ErrorCode::NonFiniteComponent => "non-finite-component",
            ErrorCode::EmptyExampleSet => "empty-example-set",
            ErrorCode::PrecisionConflict => "precision-conflict",
        };
        f.write_str(name)
    }
}

/// One shard's contribution to a traced request (see the module docs,
/// *Protocol v3*, for the normative 25-byte wire layout). All times are
/// nanosecond offsets measured from the request's admission on one
/// monotonic clock, so `queue_ns + busy_ns ≤` the report's `gather_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardSpan {
    /// Shard index.
    pub shard: u32,
    /// Admission → this shard's work began (batch dispatch on a shard
    /// server; a pool worker picking the call up on the router).
    pub queue_ns: u64,
    /// Work began → the shard's slot resolved (the coalesced scan pass,
    /// or the downstream round trip).
    pub busy_ns: u64,
    /// Requests in the coalesced pass that served this shard; 0 when
    /// the leg was not batched (a router downstream call).
    pub batch_fill: u32,
    /// [`SPAN_HEDGE_FIRED`] | [`SPAN_HEDGE_WON`] | [`SPAN_FAST_DEGRADED`]
    /// | [`SPAN_FAILED`]; other bits reserved-zero.
    pub flags: u8,
}

/// Stage-level timing report for one traced request — the [`KNN_TRACED`]
/// trailer's payload and the unit [`Response::TraceList`] carries (see
/// the module docs, *Protocol v3*). Self-consistent by construction:
/// `wall_ns = gather_ns + merge_ns`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceReport {
    /// Server-assigned id, unique per traced request per server.
    pub trace_id: u64,
    /// Admission → reply encode.
    pub wall_ns: u64,
    /// Admission → last shard slot resolved (the scatter-gather
    /// critical path, covering every span's queue and busy time).
    pub gather_ns: u64,
    /// Last shard slot resolved → reply encode.
    pub merge_ns: u64,
    /// One span per shard the request touched.
    pub spans: Vec<ShardSpan>,
}

/// One client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register a new session; the reply carries its id and the served
    /// collection's dimensionality.
    OpenSession,
    /// Search request: `k` nearest neighbors of `query` under the
    /// session's current learned parameters.
    Knn {
        /// Session id from [`Response::SessionOpened`].
        session: u64,
        /// Result count.
        k: u32,
        /// Query point (must match the collection's dimensionality).
        query: Vec<f64>,
    },
    /// Relevance judgment of the session's last un-judged `Knn` round.
    Feedback {
        /// Session id.
        session: u64,
        /// Result ids the user marked relevant.
        relevant: Vec<u32>,
    },
    /// Request a [`StatsSnapshot`].
    SnapshotStats,
    /// Drop a session.
    Close {
        /// Session id.
        session: u64,
    },
    /// Sessionless shard-local k-best under an explicit metric — the
    /// router tier's scatter frame (see the module docs).
    ShardKnn {
        /// Result count (clamped server-side to the shard's rows).
        k: u32,
        /// Cross-shard early-abandon cap in the scan's selection space
        /// (`f64::INFINITY` = unseeded; always sound).
        seed: f64,
        /// Query point (must match the shard's dimensionality).
        point: Vec<f64>,
        /// Per-dimension metric weights; empty means uniform.
        weights: Vec<f64>,
    },
    /// Probe the served slice: rows, global row offset, dimensionality.
    ShardInfo,
    /// Fetch the serialized learned module.
    SnapshotModule,
    /// Replace the served learned module with a serialized image.
    RestoreModule {
        /// The `simplex-tree` persistence image
        /// (`FeedbackBypass::to_bytes`).
        image: Vec<u8>,
    },
    /// Version negotiation (v2+): announce the client's highest
    /// supported protocol version; the [`Response::HelloAck`] carries
    /// the negotiated `min(client, server)`. Optional — a connection
    /// that never says hello stays at version 1.
    Hello {
        /// Highest protocol version the client speaks (≥ 1).
        version: u8,
    },
    /// Multi-example search (v2+, after negotiation): the server
    /// Rocchio-derives the anchor from the example sets once at
    /// admission, then serves exactly like [`Request::Knn`] with the
    /// derived anchor — replies with an ordinary
    /// [`Response::KnnResult`], bit-identical to a v1 `Knn` carrying
    /// the derived anchor.
    KnnV2 {
        /// Session id from [`Response::SessionOpened`].
        session: u64,
        /// Result count.
        k: u32,
        /// Rocchio anchor coefficient `α`.
        alpha: f64,
        /// Rocchio positive-centroid coefficient `β`.
        beta: f64,
        /// Rocchio negative-centroid coefficient `γ`.
        gamma: f64,
        /// Clamp every derived component to `max(0, ·)`.
        clamp: bool,
        /// Request a trace trailer on the reply (v3; flags-byte bit 1).
        /// Honored only on connections negotiated to version ≥ 3 —
        /// otherwise the bit is ignored and the reply is untraced.
        trace: bool,
        /// Anchor point (dimensionality of every vector in the frame).
        anchor: Vec<f64>,
        /// Positive examples, each `anchor.len()` long.
        positives: Vec<Vec<f64>>,
        /// Negative examples, each `anchor.len()` long.
        negatives: Vec<Vec<f64>>,
    },
    /// Drain up to `max` reports from the server's slow-query trace
    /// ring (v3+, after negotiation; `max = 0` drains all). Draining is
    /// destructive — consecutive calls return disjoint traces.
    GetTraces {
        /// Upper bound on reports returned; 0 = no bound.
        max: u32,
    },
}

/// One server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::OpenSession`].
    SessionOpened {
        /// Fresh session id.
        session: u64,
        /// Collection dimensionality every `Knn` query must match.
        dim: u32,
    },
    /// Reply to [`Request::Knn`].
    KnnResult {
        /// [`KNN_DONE`] | [`KNN_CONVERGED`] | [`KNN_DEGRADED`].
        flags: u8,
        /// Feedback cycles the session's current query has run.
        cycles: u32,
        /// Shard ids missing from a degraded merge. On the wire only
        /// when `flags & KNN_DEGRADED`; must be empty otherwise.
        missing_shards: Vec<u32>,
        /// Stage-level timing report. On the wire (as the v3 trace
        /// trailer) only when `flags & KNN_TRACED`; must be `None`
        /// otherwise. Boxed: traced replies are the rare case and the
        /// report dwarfs the rest of the variant.
        trace: Option<Box<TraceReport>>,
        /// Neighbors, ascending `(dist, index)`.
        neighbors: Vec<Neighbor>,
    },
    /// Reply to [`Request::Feedback`].
    FeedbackAck {
        /// The query finished (converged or nothing left to learn).
        done: bool,
        /// It finished by converging.
        converged: bool,
        /// Feedback cycles run so far.
        cycles: u32,
    },
    /// Reply to [`Request::SnapshotStats`]. Boxed: the snapshot (with
    /// its per-downstream health rows) dwarfs every other variant, and
    /// stats replies are far too rare to pay for inline.
    Stats(Box<StatsSnapshot>),
    /// Reply to [`Request::Close`].
    Closed,
    /// Reply to [`Request::ShardKnn`]: the shard's exact local k-best,
    /// still in selection space (keyed entries ascend by `(key,
    /// index)`, indices globally offset).
    ShardPartial {
        /// True when the keys are finished distances (a Scalar-mode
        /// shard server) rather than surrogate keys.
        finished: bool,
        /// `(key, global index)` entries ascending by `(key, index)`.
        entries: Vec<(f64, u32)>,
    },
    /// Reply to [`Request::ShardInfo`].
    ShardInfoResult {
        /// Rows the shard serves.
        rows: u64,
        /// Global index of the shard's first row (`row_offset`).
        offset: u64,
        /// Served dimensionality.
        dim: u32,
    },
    /// Reply to [`Request::SnapshotModule`].
    ModuleImage {
        /// Serialized learned module.
        image: Vec<u8>,
    },
    /// Reply to [`Request::RestoreModule`].
    ModuleRestored,
    /// Reply to [`Request::Hello`] (v2+): the negotiated connection
    /// version, `min(client, server)`.
    HelloAck {
        /// Version every subsequent frame on this connection is
        /// interpreted under.
        version: u8,
    },
    /// Reply to [`Request::GetTraces`] (v3+): the drained slow-query
    /// trace reports, oldest first.
    TraceList {
        /// Drained reports (each the trailer layout without its leading
        /// version byte).
        traces: Vec<TraceReport>,
    },
    /// Any request can fail with a coded error instead of its reply.
    Error {
        /// Category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// One downstream's circuit-breaker position in the router's health
/// state machine (`Healthy → Suspect → Ejected → Probing → Healthy`),
/// as carried in the `0x84` stats body. The numeric values are the
/// normative wire encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum HealthState {
    /// Taking traffic; no recent consecutive failures.
    #[default]
    Healthy = 0,
    /// Taking traffic, but at least one consecutive failure is on the
    /// books — the state between the first failure and the trip.
    Suspect = 1,
    /// Removed from the scatter set; requests fast-degrade (or
    /// fast-refuse under `Strict`) instead of paying `shard_timeout`.
    Ejected = 2,
    /// A re-admission probe is in flight; still out of the scatter set.
    Probing = 3,
}

impl HealthState {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => HealthState::Healthy,
            1 => HealthState::Suspect,
            2 => HealthState::Ejected,
            3 => HealthState::Probing,
            _ => return None,
        })
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Suspect => write!(f, "suspect"),
            HealthState::Ejected => write!(f, "ejected"),
            HealthState::Probing => write!(f, "probing"),
        }
    }
}

/// Per-downstream health counters, one row of the `0x84` stats body's
/// trailing health block (see the module docs for the normative
/// layout). A plain shard server reports zero rows.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DownstreamHealth {
    /// Downstream shard index.
    pub shard: u32,
    /// Current circuit-breaker state.
    pub state: HealthState,
    /// Times this downstream tripped from taking traffic to `Ejected`.
    pub ejections: u64,
    /// Times a probe sequence returned it to `Healthy` (tiling
    /// re-validated).
    pub readmissions: u64,
    /// Re-admission probes that failed (refused or mis-tiled).
    pub probe_failures: u64,
    /// Scatters that skipped this downstream while it was ejected —
    /// each one is a request that did **not** pay `shard_timeout` for
    /// a dead shard.
    pub fast_degrades: u64,
}

/// Serving metrics at one instant (the `0x84` body, fields in order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Client k-NN requests admitted to the scatter stage (each rides
    /// one pass per shard).
    pub requests: u64,
    /// Per-shard coalesced scan passes issued.
    pub passes: u64,
    /// Collection shards the server is configured with (1 = flat).
    pub shards: u64,
    /// Mean requests per per-shard pass
    /// (`requests × shards / passes`) — the fill the batching policy
    /// controls.
    pub mean_batch_fill: f64,
    /// Median queue wait (enqueue → pass dispatch), microseconds.
    pub queue_wait_p50_us: f64,
    /// 99th-percentile queue wait, microseconds.
    pub queue_wait_p99_us: f64,
    /// Sessions currently registered.
    pub sessions_open: u64,
    /// Protocol errors answered or connections dropped for framing.
    pub protocol_errors: u64,
    /// Downstream calls abandoned on a timeout (router tier; zero on a
    /// shard server — likewise for the five fields below).
    pub downstream_timeouts: u64,
    /// Downstream call attempts retried after an I/O failure.
    pub downstream_retries: u64,
    /// Downstream connections (re-)established after a failure.
    pub downstream_reconnects: u64,
    /// Hedge requests fired at straggling shards.
    pub hedges_fired: u64,
    /// Hedge requests whose answer arrived first.
    pub hedges_won: u64,
    /// Degraded (surviving-subset) answers served.
    pub degraded_replies: u64,
    /// Rows the scan path visited (shard server; zero on a router —
    /// likewise for the four fields below).
    pub scan_rows_visited: u64,
    /// Row blocks the scan early-abandoned partway through.
    pub scan_blocks_abandoned: u64,
    /// Candidates the f32 pre-filter discarded before rescoring.
    pub scan_candidates_filtered: u64,
    /// Candidates rescored at full f64 precision.
    pub scan_candidates_rescored: u64,
    /// Scan passes whose selection bound started from a cross-request
    /// or cross-shard seed instead of `+∞`.
    pub scan_seed_prunes: u64,
    /// Partitions a partition-pruning pass skipped outright (zero when
    /// the server serves flat; the sub-linearity witness otherwise).
    pub scan_partitions_pruned: u64,
    /// Per-downstream health rows (router tier; empty on a shard
    /// server) — state plus ejection/re-admission counters.
    pub health: Vec<DownstreamHealth>,
}

impl StatsSnapshot {
    /// Total scatter-set ejections across the downstreams.
    pub fn ejections(&self) -> u64 {
        self.health.iter().map(|h| h.ejections).sum()
    }

    /// Total probed re-admissions across the downstreams.
    pub fn readmissions(&self) -> u64 {
        self.health.iter().map(|h| h.readmissions).sum()
    }

    /// Total failed re-admission probes across the downstreams.
    pub fn probe_failures(&self) -> u64 {
        self.health.iter().map(|h| h.probe_failures).sum()
    }

    /// Total scatters that skipped an ejected downstream instead of
    /// paying its `shard_timeout`.
    pub fn fast_degrades(&self) -> u64 {
        self.health.iter().map(|h| h.fast_degrades).sum()
    }
}

/// Decode failure for a well-framed payload.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// Empty payload (no opcode byte).
    Empty,
    /// Unknown opcode byte.
    UnknownOpcode(u8),
    /// Body shorter than its fixed layout requires.
    Truncated,
    /// Body longer than its layout (lengths must account for every byte).
    TrailingBytes,
    /// A length field disagrees with the remaining body size.
    BadLength,
    /// A string field is not UTF-8.
    BadUtf8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Empty => write!(f, "empty frame payload"),
            DecodeError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::Truncated => write!(f, "truncated message body"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after message body"),
            DecodeError::BadLength => write!(f, "length field disagrees with body size"),
            DecodeError::BadUtf8 => write!(f, "non-UTF-8 string field"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Byte-wise reader over one frame payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// `n` length-checked against the remaining bytes at `per` bytes per
    /// element, so a forged count cannot drive a huge allocation.
    fn counted(&mut self, per: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n.checked_mul(per).ok_or(DecodeError::BadLength)? > self.buf.len() - self.pos {
            return Err(DecodeError::BadLength);
        }
        Ok(n)
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

/// Append one trace report (without a leading version byte) — the
/// shared body of the [`KNN_TRACED`] trailer and of each
/// [`Response::TraceList`] element.
fn write_trace(out: &mut Vec<u8>, t: &TraceReport) {
    out.extend_from_slice(&t.trace_id.to_le_bytes());
    out.extend_from_slice(&t.wall_ns.to_le_bytes());
    out.extend_from_slice(&t.gather_ns.to_le_bytes());
    out.extend_from_slice(&t.merge_ns.to_le_bytes());
    out.extend_from_slice(&(t.spans.len() as u32).to_le_bytes());
    for s in &t.spans {
        out.extend_from_slice(&s.shard.to_le_bytes());
        out.extend_from_slice(&s.queue_ns.to_le_bytes());
        out.extend_from_slice(&s.busy_ns.to_le_bytes());
        out.extend_from_slice(&s.batch_fill.to_le_bytes());
        out.push(s.flags);
    }
}

/// Parse one trace report (the [`write_trace`] layout; span counts are
/// budget-checked against the remaining bytes like every other count).
fn read_trace(r: &mut Reader) -> Result<TraceReport, DecodeError> {
    let trace_id = r.u64()?;
    let wall_ns = r.u64()?;
    let gather_ns = r.u64()?;
    let merge_ns = r.u64()?;
    let n = r.counted(25)?;
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        spans.push(ShardSpan {
            shard: r.u32()?,
            queue_ns: r.u64()?,
            busy_ns: r.u64()?,
            batch_fill: r.u32()?,
            flags: r.u8()?,
        });
    }
    Ok(TraceReport {
        trace_id,
        wall_ns,
        gather_ns,
        merge_ns,
        spans,
    })
}

impl Request {
    /// Serialize into a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::OpenSession => out.push(0x01),
            Request::Knn { session, k, query } => {
                out.push(0x02);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&(query.len() as u32).to_le_bytes());
                for v in query {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Request::Feedback { session, relevant } => {
                out.push(0x03);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&(relevant.len() as u32).to_le_bytes());
                for id in relevant {
                    out.extend_from_slice(&id.to_le_bytes());
                }
            }
            Request::SnapshotStats => out.push(0x04),
            Request::Close { session } => {
                out.push(0x05);
                out.extend_from_slice(&session.to_le_bytes());
            }
            Request::ShardKnn {
                k,
                seed,
                point,
                weights,
            } => {
                out.push(0x06);
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&seed.to_le_bytes());
                out.extend_from_slice(&(point.len() as u32).to_le_bytes());
                for v in point {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out.extend_from_slice(&(weights.len() as u32).to_le_bytes());
                for w in weights {
                    out.extend_from_slice(&w.to_le_bytes());
                }
            }
            Request::ShardInfo => out.push(0x07),
            Request::SnapshotModule => out.push(0x08),
            Request::RestoreModule { image } => {
                out.push(0x09);
                out.extend_from_slice(&(image.len() as u32).to_le_bytes());
                out.extend_from_slice(image);
            }
            Request::Hello { version } => {
                out.push(0x0A);
                out.push(*version);
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
                out.push(0x0B);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&alpha.to_le_bytes());
                out.extend_from_slice(&beta.to_le_bytes());
                out.extend_from_slice(&gamma.to_le_bytes());
                out.push(u8::from(*clamp) | (u8::from(*trace) << 1));
                out.extend_from_slice(&(anchor.len() as u32).to_le_bytes());
                for v in anchor {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                for set in [positives, negatives] {
                    out.extend_from_slice(&(set.len() as u32).to_le_bytes());
                    for ex in set {
                        debug_assert_eq!(ex.len(), anchor.len(), "examples share the anchor dim");
                        for v in ex {
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                }
            }
            Request::GetTraces { max } => {
                out.push(0x0C);
                out.extend_from_slice(&max.to_le_bytes());
            }
        }
        out
    }

    /// Parse a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(payload);
        let op = r.u8().map_err(|_| DecodeError::Empty)?;
        let req = match op {
            0x01 => Request::OpenSession,
            0x02 => {
                let session = r.u64()?;
                let k = r.u32()?;
                let n = r.counted(8)?;
                let mut query = Vec::with_capacity(n);
                for _ in 0..n {
                    query.push(r.f64()?);
                }
                Request::Knn { session, k, query }
            }
            0x03 => {
                let session = r.u64()?;
                let n = r.counted(4)?;
                let mut relevant = Vec::with_capacity(n);
                for _ in 0..n {
                    relevant.push(r.u32()?);
                }
                Request::Feedback { session, relevant }
            }
            0x04 => Request::SnapshotStats,
            0x05 => Request::Close { session: r.u64()? },
            0x06 => {
                let k = r.u32()?;
                let seed = r.f64()?;
                let n = r.counted(8)?;
                let mut point = Vec::with_capacity(n);
                for _ in 0..n {
                    point.push(r.f64()?);
                }
                let wn = r.counted(8)?;
                let mut weights = Vec::with_capacity(wn);
                for _ in 0..wn {
                    weights.push(r.f64()?);
                }
                Request::ShardKnn {
                    k,
                    seed,
                    point,
                    weights,
                }
            }
            0x07 => Request::ShardInfo,
            0x08 => Request::SnapshotModule,
            0x09 => {
                let n = r.counted(1)?;
                Request::RestoreModule {
                    image: r.take(n)?.to_vec(),
                }
            }
            0x0A => Request::Hello { version: r.u8()? },
            0x0B => {
                let session = r.u64()?;
                let k = r.u32()?;
                let alpha = r.f64()?;
                let beta = r.f64()?;
                let gamma = r.f64()?;
                let flags = r.u8()?;
                let clamp = flags & 0b01 != 0;
                let trace = flags & 0b10 != 0;
                let n = r.counted(8)?;
                let mut anchor = Vec::with_capacity(n);
                for _ in 0..n {
                    anchor.push(r.f64()?);
                }
                // Each example is n × f64; `per` is floored at 1 byte
                // so a zero-dim frame cannot smuggle a huge count past
                // the budget check.
                let read_set = |r: &mut Reader| -> Result<Vec<Vec<f64>>, DecodeError> {
                    let count = r.counted((n * 8).max(1))?;
                    let mut set = Vec::with_capacity(count);
                    for _ in 0..count {
                        let mut ex = Vec::with_capacity(n);
                        for _ in 0..n {
                            ex.push(r.f64()?);
                        }
                        set.push(ex);
                    }
                    Ok(set)
                };
                let positives = read_set(&mut r)?;
                let negatives = read_set(&mut r)?;
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
                }
            }
            0x0C => Request::GetTraces { max: r.u32()? },
            op => return Err(DecodeError::UnknownOpcode(op)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serialize into a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::SessionOpened { session, dim } => {
                out.push(0x81);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&dim.to_le_bytes());
            }
            Response::KnnResult {
                flags,
                cycles,
                missing_shards,
                trace,
                neighbors,
            } => {
                out.push(0x82);
                out.push(*flags);
                out.extend_from_slice(&cycles.to_le_bytes());
                if flags & KNN_DEGRADED != 0 {
                    out.extend_from_slice(&(missing_shards.len() as u32).to_le_bytes());
                    for id in missing_shards {
                        out.extend_from_slice(&id.to_le_bytes());
                    }
                } else {
                    debug_assert!(
                        missing_shards.is_empty(),
                        "missing_shards require KNN_DEGRADED"
                    );
                }
                if flags & KNN_TRACED != 0 {
                    let t = trace.as_ref().expect("KNN_TRACED requires a trace");
                    out.push(TRACE_VERSION);
                    write_trace(&mut out, t);
                } else {
                    debug_assert!(trace.is_none(), "a trace requires KNN_TRACED");
                }
                out.extend_from_slice(&(neighbors.len() as u32).to_le_bytes());
                for n in neighbors {
                    out.extend_from_slice(&n.index.to_le_bytes());
                    out.extend_from_slice(&n.dist.to_le_bytes());
                }
            }
            Response::FeedbackAck {
                done,
                converged,
                cycles,
            } => {
                out.push(0x83);
                out.push(u8::from(*done));
                out.push(u8::from(*converged));
                out.extend_from_slice(&cycles.to_le_bytes());
            }
            Response::Stats(s) => {
                out.push(0x84);
                out.extend_from_slice(&s.requests.to_le_bytes());
                out.extend_from_slice(&s.passes.to_le_bytes());
                out.extend_from_slice(&s.shards.to_le_bytes());
                out.extend_from_slice(&s.mean_batch_fill.to_le_bytes());
                out.extend_from_slice(&s.queue_wait_p50_us.to_le_bytes());
                out.extend_from_slice(&s.queue_wait_p99_us.to_le_bytes());
                out.extend_from_slice(&s.sessions_open.to_le_bytes());
                out.extend_from_slice(&s.protocol_errors.to_le_bytes());
                out.extend_from_slice(&s.downstream_timeouts.to_le_bytes());
                out.extend_from_slice(&s.downstream_retries.to_le_bytes());
                out.extend_from_slice(&s.downstream_reconnects.to_le_bytes());
                out.extend_from_slice(&s.hedges_fired.to_le_bytes());
                out.extend_from_slice(&s.hedges_won.to_le_bytes());
                out.extend_from_slice(&s.degraded_replies.to_le_bytes());
                out.extend_from_slice(&s.scan_rows_visited.to_le_bytes());
                out.extend_from_slice(&s.scan_blocks_abandoned.to_le_bytes());
                out.extend_from_slice(&s.scan_candidates_filtered.to_le_bytes());
                out.extend_from_slice(&s.scan_candidates_rescored.to_le_bytes());
                out.extend_from_slice(&s.scan_seed_prunes.to_le_bytes());
                out.extend_from_slice(&s.scan_partitions_pruned.to_le_bytes());
                out.extend_from_slice(&(s.health.len() as u32).to_le_bytes());
                for h in &s.health {
                    out.extend_from_slice(&h.shard.to_le_bytes());
                    out.push(h.state as u8);
                    out.extend_from_slice(&h.ejections.to_le_bytes());
                    out.extend_from_slice(&h.readmissions.to_le_bytes());
                    out.extend_from_slice(&h.probe_failures.to_le_bytes());
                    out.extend_from_slice(&h.fast_degrades.to_le_bytes());
                }
            }
            Response::Closed => out.push(0x85),
            Response::ShardPartial { finished, entries } => {
                out.push(0x86);
                out.push(u8::from(*finished));
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for (key, index) in entries {
                    out.extend_from_slice(&key.to_le_bytes());
                    out.extend_from_slice(&index.to_le_bytes());
                }
            }
            Response::ShardInfoResult { rows, offset, dim } => {
                out.push(0x87);
                out.extend_from_slice(&rows.to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&dim.to_le_bytes());
            }
            Response::ModuleImage { image } => {
                out.push(0x88);
                out.extend_from_slice(&(image.len() as u32).to_le_bytes());
                out.extend_from_slice(image);
            }
            Response::ModuleRestored => out.push(0x89),
            Response::HelloAck { version } => {
                out.push(0x8A);
                out.push(*version);
            }
            Response::TraceList { traces } => {
                out.push(0x8B);
                out.extend_from_slice(&(traces.len() as u32).to_le_bytes());
                for t in traces {
                    write_trace(&mut out, t);
                }
            }
            Response::Error { code, message } => {
                out.push(0xEE);
                out.push(*code as u8);
                out.extend_from_slice(&(message.len() as u32).to_le_bytes());
                out.extend_from_slice(message.as_bytes());
            }
        }
        out
    }

    /// Parse a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(payload);
        let op = r.u8().map_err(|_| DecodeError::Empty)?;
        let resp = match op {
            0x81 => Response::SessionOpened {
                session: r.u64()?,
                dim: r.u32()?,
            },
            0x82 => {
                let flags = r.u8()?;
                let cycles = r.u32()?;
                let mut missing_shards = Vec::new();
                if flags & KNN_DEGRADED != 0 {
                    let m = r.counted(4)?;
                    missing_shards.reserve(m);
                    for _ in 0..m {
                        missing_shards.push(r.u32()?);
                    }
                }
                let trace = if flags & KNN_TRACED != 0 {
                    // An unknown trailer version cannot be skipped (the
                    // trailer carries no byte length), so it is
                    // malformed — same handling as an unknown enum byte.
                    if r.u8()? != TRACE_VERSION {
                        return Err(DecodeError::Truncated);
                    }
                    Some(Box::new(read_trace(&mut r)?))
                } else {
                    None
                };
                let n = r.counted(12)?;
                let mut neighbors = Vec::with_capacity(n);
                for _ in 0..n {
                    neighbors.push(Neighbor {
                        index: r.u32()?,
                        dist: r.f64()?,
                    });
                }
                Response::KnnResult {
                    flags,
                    cycles,
                    missing_shards,
                    trace,
                    neighbors,
                }
            }
            0x83 => Response::FeedbackAck {
                done: r.u8()? != 0,
                converged: r.u8()? != 0,
                cycles: r.u32()?,
            },
            0x84 => {
                let mut s = StatsSnapshot {
                    requests: r.u64()?,
                    passes: r.u64()?,
                    shards: r.u64()?,
                    mean_batch_fill: r.f64()?,
                    queue_wait_p50_us: r.f64()?,
                    queue_wait_p99_us: r.f64()?,
                    sessions_open: r.u64()?,
                    protocol_errors: r.u64()?,
                    downstream_timeouts: r.u64()?,
                    downstream_retries: r.u64()?,
                    downstream_reconnects: r.u64()?,
                    hedges_fired: r.u64()?,
                    hedges_won: r.u64()?,
                    degraded_replies: r.u64()?,
                    scan_rows_visited: r.u64()?,
                    scan_blocks_abandoned: r.u64()?,
                    scan_candidates_filtered: r.u64()?,
                    scan_candidates_rescored: r.u64()?,
                    scan_seed_prunes: r.u64()?,
                    scan_partitions_pruned: r.u64()?,
                    health: Vec::new(),
                };
                let n = r.counted(37)?;
                s.health.reserve(n);
                for _ in 0..n {
                    s.health.push(DownstreamHealth {
                        shard: r.u32()?,
                        state: HealthState::from_u8(r.u8()?).ok_or(DecodeError::Truncated)?,
                        ejections: r.u64()?,
                        readmissions: r.u64()?,
                        probe_failures: r.u64()?,
                        fast_degrades: r.u64()?,
                    });
                }
                Response::Stats(Box::new(s))
            }
            0x85 => Response::Closed,
            0x86 => {
                let finished = r.u8()? != 0;
                let n = r.counted(12)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push((r.f64()?, r.u32()?));
                }
                Response::ShardPartial { finished, entries }
            }
            0x87 => Response::ShardInfoResult {
                rows: r.u64()?,
                offset: r.u64()?,
                dim: r.u32()?,
            },
            0x88 => {
                let n = r.counted(1)?;
                Response::ModuleImage {
                    image: r.take(n)?.to_vec(),
                }
            }
            0x89 => Response::ModuleRestored,
            0x8A => Response::HelloAck { version: r.u8()? },
            0x8B => {
                // Every report is at least 36 bytes (four u64s + span
                // count), the budget unit for the forged-count check.
                let n = r.counted(36)?;
                let mut traces = Vec::with_capacity(n);
                for _ in 0..n {
                    traces.push(read_trace(&mut r)?);
                }
                Response::TraceList { traces }
            }
            0xEE => {
                let code = ErrorCode::from_u8(r.u8()?).ok_or(DecodeError::Truncated)?;
                let n = r.counted(1)?;
                let bytes = r.take(n)?;
                let message = std::str::from_utf8(bytes)
                    .map_err(|_| DecodeError::BadUtf8)?
                    .to_owned();
                Response::Error { code, message }
            }
            op => return Err(DecodeError::UnknownOpcode(op)),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Frame-layer read failure.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure (includes truncation: `UnexpectedEof` mid-frame).
    Io(io::Error),
    /// The length prefix exceeds the configured maximum.
    Oversized {
        /// Claimed payload length.
        len: u32,
        /// Accepted maximum.
        max: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O: {e}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte maximum")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one frame (length prefix + payload) with a single `write_all`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)
}

/// Read one frame payload. Returns `Ok(None)` on a clean end-of-stream
/// (EOF before any byte of a frame) or when `keep_waiting` reports false
/// while the reader is between frames (the server's shutdown poll; reads
/// park in `read_timeout`-sized slices). EOF *inside* a frame is a
/// truncation and surfaces as `FrameError::Io(UnexpectedEof)`.
pub fn read_frame(
    r: &mut impl Read,
    max_len: u32,
    keep_waiting: &mut dyn FnMut() -> bool,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    if !read_exact_polling(r, &mut header, true, keep_waiting)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(header);
    if len > max_len {
        return Err(FrameError::Oversized { len, max: max_len });
    }
    let mut payload = vec![0u8; len as usize];
    if !read_exact_polling(r, &mut payload, false, keep_waiting)? {
        // Shutdown raced a half-read frame; treat like truncation.
        return Err(FrameError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "shutdown during frame body",
        )));
    }
    Ok(Some(payload))
}

/// `read_exact` that tolerates read-timeout wakeups, consulting
/// `keep_waiting` at each one. Returns `Ok(false)` on clean stop: EOF or
/// `keep_waiting() == false` before the first byte (only when
/// `clean_stop` — i.e. at a frame boundary).
fn read_exact_polling(
    r: &mut impl Read,
    buf: &mut [u8],
    clean_stop: bool,
    keep_waiting: &mut dyn FnMut() -> bool,
) -> Result<bool, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && clean_stop {
                    return Ok(false);
                }
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid-frame",
                )));
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if !keep_waiting() {
                    if filled == 0 && clean_stop {
                        return Ok(false);
                    }
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "shutdown mid-frame",
                    )));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        assert_eq!(Request::decode(&req.encode()), Ok(req));
    }

    fn roundtrip_resp(resp: Response) {
        assert_eq!(Response::decode(&resp.encode()), Ok(resp));
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::OpenSession);
        roundtrip_req(Request::Knn {
            session: 7,
            k: 50,
            query: vec![0.25, -1.5, 3.75],
        });
        roundtrip_req(Request::Feedback {
            session: 7,
            relevant: vec![1, 5, 9],
        });
        roundtrip_req(Request::SnapshotStats);
        roundtrip_req(Request::Close { session: 7 });
        roundtrip_req(Request::ShardKnn {
            k: 10,
            seed: f64::INFINITY,
            point: vec![0.5, 0.25],
            weights: vec![1.0, 2.0],
        });
        roundtrip_req(Request::ShardKnn {
            k: 3,
            seed: 0.125,
            point: vec![0.5, 0.25],
            weights: vec![],
        });
        roundtrip_req(Request::ShardInfo);
        roundtrip_req(Request::SnapshotModule);
        roundtrip_req(Request::RestoreModule {
            image: vec![0xAB; 37],
        });
        roundtrip_req(Request::Hello {
            version: PROTOCOL_VERSION,
        });
        roundtrip_req(Request::KnnV2 {
            session: 11,
            k: 25,
            alpha: 1.0,
            beta: 0.75,
            gamma: 0.25,
            clamp: true,
            trace: false,
            anchor: vec![0.5, 0.25, -1.0],
            positives: vec![vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6]],
            negatives: vec![vec![0.9, 0.8, 0.7]],
        });
        // Both example sets empty: the trivial one-anchor query in v2
        // clothing — and a traced one, exercising flags-byte bit 1.
        roundtrip_req(Request::KnnV2 {
            session: 1,
            k: 5,
            alpha: 1.0,
            beta: 0.75,
            gamma: 0.25,
            clamp: false,
            trace: true,
            anchor: vec![2.0, 3.0],
            positives: vec![],
            negatives: vec![],
        });
        roundtrip_req(Request::GetTraces { max: 0 });
        roundtrip_req(Request::GetTraces { max: 16 });
    }

    #[test]
    fn knn_v2_trace_flag_is_bit_1_of_the_flags_byte() {
        // The clamp and trace bits share one byte; every combination
        // must encode to exactly that bit pattern (old v2 encoders only
        // ever wrote 0 or 1 here).
        for (clamp, trace) in [(false, false), (true, false), (false, true), (true, true)] {
            let frame = Request::KnnV2 {
                session: 1,
                k: 5,
                alpha: 1.0,
                beta: 0.0,
                gamma: 0.0,
                clamp,
                trace,
                anchor: vec![1.0],
                positives: vec![],
                negatives: vec![],
            }
            .encode();
            // opcode + session + k + 3 coefficients = 1 + 8 + 4 + 24.
            let flags_at = 1 + 8 + 4 + 24;
            assert_eq!(
                frame[flags_at],
                u8::from(clamp) | (u8::from(trace) << 1),
                "clamp={clamp} trace={trace}"
            );
        }
    }

    #[test]
    fn knn_v2_forged_example_count_is_rejected() {
        // A KnnV2 frame claiming more examples than its bytes carry
        // must fail the count-budget check, not allocate.
        let mut forged = Request::KnnV2 {
            session: 1,
            k: 5,
            alpha: 1.0,
            beta: 0.75,
            gamma: 0.25,
            clamp: false,
            trace: false,
            anchor: vec![0.5, 0.5],
            positives: vec![],
            negatives: vec![],
        }
        .encode();
        // Overwrite the positive count (4 bytes right after the anchor)
        // with a huge value.
        let pos_count_at = forged.len() - 8;
        forged[pos_count_at..pos_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Request::decode(&forged), Err(DecodeError::BadLength));
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::SessionOpened {
            session: 3,
            dim: 64,
        });
        roundtrip_resp(Response::KnnResult {
            flags: KNN_DONE | KNN_CONVERGED,
            cycles: 4,
            missing_shards: vec![],
            trace: None,
            neighbors: vec![
                Neighbor {
                    index: 2,
                    dist: 0.125,
                },
                Neighbor {
                    index: 9,
                    dist: 2.5,
                },
            ],
        });
        // Degraded replies carry the missing-shard list on the wire.
        roundtrip_resp(Response::KnnResult {
            flags: KNN_DEGRADED,
            cycles: 1,
            missing_shards: vec![1, 2],
            trace: None,
            neighbors: vec![Neighbor {
                index: 4,
                dist: 0.5,
            }],
        });
        // Traced replies carry the trailer; a degraded *and* traced
        // reply carries both blocks in order.
        let report = TraceReport {
            trace_id: 42,
            wall_ns: 1_500_000,
            gather_ns: 1_200_000,
            merge_ns: 300_000,
            spans: vec![
                ShardSpan {
                    shard: 0,
                    queue_ns: 200_000,
                    busy_ns: 900_000,
                    batch_fill: 3,
                    flags: 0,
                },
                ShardSpan {
                    shard: 1,
                    queue_ns: 150_000,
                    busy_ns: 1_000_000,
                    batch_fill: 0,
                    flags: SPAN_HEDGE_FIRED | SPAN_HEDGE_WON,
                },
            ],
        };
        roundtrip_resp(Response::KnnResult {
            flags: KNN_TRACED,
            cycles: 2,
            missing_shards: vec![],
            trace: Some(Box::new(report.clone())),
            neighbors: vec![Neighbor {
                index: 7,
                dist: 0.25,
            }],
        });
        roundtrip_resp(Response::KnnResult {
            flags: KNN_DEGRADED | KNN_TRACED,
            cycles: 0,
            missing_shards: vec![2],
            trace: Some(Box::new(TraceReport {
                spans: vec![ShardSpan {
                    shard: 2,
                    flags: SPAN_FAST_DEGRADED | SPAN_FAILED,
                    ..Default::default()
                }],
                ..report.clone()
            })),
            neighbors: vec![],
        });
        roundtrip_resp(Response::TraceList { traces: vec![] });
        roundtrip_resp(Response::TraceList {
            traces: vec![report.clone(), TraceReport::default()],
        });
        roundtrip_resp(Response::FeedbackAck {
            done: true,
            converged: false,
            cycles: 20,
        });
        roundtrip_resp(Response::Stats(Box::new(StatsSnapshot {
            requests: 100,
            passes: 12,
            shards: 4,
            mean_batch_fill: 8.333,
            queue_wait_p50_us: 450.0,
            queue_wait_p99_us: 2100.5,
            sessions_open: 32,
            protocol_errors: 1,
            downstream_timeouts: 3,
            downstream_retries: 5,
            downstream_reconnects: 2,
            hedges_fired: 7,
            hedges_won: 4,
            degraded_replies: 6,
            scan_rows_visited: 120_000,
            scan_blocks_abandoned: 310,
            scan_candidates_filtered: 4_096,
            scan_candidates_rescored: 512,
            scan_seed_prunes: 9,
            scan_partitions_pruned: 17,
            health: Vec::new(),
        })));
        // Router stats carry per-downstream health rows; every state
        // must survive the trip.
        roundtrip_resp(Response::Stats(Box::new(StatsSnapshot {
            requests: 9,
            shards: 4,
            health: vec![
                DownstreamHealth {
                    shard: 0,
                    state: HealthState::Healthy,
                    ..Default::default()
                },
                DownstreamHealth {
                    shard: 1,
                    state: HealthState::Suspect,
                    ejections: 1,
                    readmissions: 1,
                    probe_failures: 2,
                    fast_degrades: 17,
                },
                DownstreamHealth {
                    shard: 2,
                    state: HealthState::Ejected,
                    ejections: 3,
                    ..Default::default()
                },
                DownstreamHealth {
                    shard: 3,
                    state: HealthState::Probing,
                    probe_failures: 9,
                    ..Default::default()
                },
            ],
            ..Default::default()
        })));
        roundtrip_resp(Response::Closed);
        roundtrip_resp(Response::ShardPartial {
            finished: false,
            entries: vec![(0.25, 3), (0.5, 1), (0.5, 2)],
        });
        roundtrip_resp(Response::ShardInfoResult {
            rows: 300,
            offset: 600,
            dim: 24,
        });
        roundtrip_resp(Response::ModuleImage {
            image: vec![0xCD; 64],
        });
        roundtrip_resp(Response::ModuleRestored);
        roundtrip_resp(Response::Error {
            code: ErrorCode::DimMismatch,
            message: "expected 64, got 3".into(),
        });
        roundtrip_resp(Response::Error {
            code: ErrorCode::ShardUnavailable,
            message: "shards [1] unavailable".into(),
        });
        roundtrip_resp(Response::HelloAck {
            version: PROTOCOL_VERSION,
        });
        for code in [
            ErrorCode::BadWeight,
            ErrorCode::NonFiniteComponent,
            ErrorCode::EmptyExampleSet,
            ErrorCode::PrecisionConflict,
        ] {
            roundtrip_resp(Response::Error {
                code,
                message: format!("{code}"),
            });
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert_eq!(Request::decode(&[]), Err(DecodeError::Empty));
        assert_eq!(
            Request::decode(&[0x7F]),
            Err(DecodeError::UnknownOpcode(0x7F))
        );
        // Truncated Knn body: the element count no longer fits the
        // remaining bytes.
        let mut knn = Request::Knn {
            session: 1,
            k: 5,
            query: vec![1.0, 2.0],
        }
        .encode();
        knn.truncate(knn.len() - 3);
        assert_eq!(Request::decode(&knn), Err(DecodeError::BadLength));
        // Truncated fixed-layout body.
        let mut close = Request::Close { session: 9 }.encode();
        close.truncate(close.len() - 2);
        assert_eq!(Request::decode(&close), Err(DecodeError::Truncated));
        // Trailing garbage.
        let mut open = Request::OpenSession.encode();
        open.push(0);
        assert_eq!(Request::decode(&open), Err(DecodeError::TrailingBytes));
        // Forged element count larger than the body.
        let mut forged = vec![0x03];
        forged.extend_from_slice(&1u64.to_le_bytes());
        forged.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Request::decode(&forged), Err(DecodeError::BadLength));
    }

    #[test]
    fn malformed_trace_trailers_are_rejected() {
        let traced = Response::KnnResult {
            flags: KNN_TRACED,
            cycles: 0,
            missing_shards: vec![],
            trace: Some(Box::new(TraceReport {
                trace_id: 1,
                wall_ns: 10,
                gather_ns: 8,
                merge_ns: 2,
                spans: vec![ShardSpan::default()],
            })),
            neighbors: vec![],
        };
        // An unknown trailer version cannot be skipped: malformed.
        let mut wrong_version = traced.encode();
        // The version byte sits right after opcode + flags + cycles.
        assert_eq!(wrong_version[1 + 1 + 4], TRACE_VERSION);
        wrong_version[1 + 1 + 4] = TRACE_VERSION + 1;
        assert!(Response::decode(&wrong_version).is_err());
        // A forged span count larger than the body must fail the
        // budget check, not allocate.
        let mut forged = traced.encode();
        let span_count_at = 1 + 1 + 4 + 1 + 32;
        forged[span_count_at..span_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Response::decode(&forged), Err(DecodeError::BadLength));
        // Same for a forged TraceList report count.
        let mut list = Response::TraceList {
            traces: vec![TraceReport::default()],
        }
        .encode();
        list[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Response::decode(&list), Err(DecodeError::BadLength));
    }

    #[test]
    fn frames_roundtrip_and_enforce_max_len() {
        let payload = Request::Knn {
            session: 1,
            k: 3,
            query: vec![0.5; 16],
        }
        .encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut rd = &wire[..];
        let got = read_frame(&mut rd, DEFAULT_MAX_FRAME_LEN, &mut || true)
            .unwrap()
            .unwrap();
        assert_eq!(got, payload);
        // Clean EOF between frames.
        assert!(read_frame(&mut rd, DEFAULT_MAX_FRAME_LEN, &mut || true)
            .unwrap()
            .is_none());
        // Oversized prefix is refused before allocating.
        let mut big = &(u32::MAX.to_le_bytes())[..];
        match read_frame(&mut big, 1024, &mut || true) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // EOF mid-frame is a truncation error, not a clean close.
        let mut cut = &wire[..wire.len() - 2];
        assert!(matches!(
            read_frame(&mut cut, DEFAULT_MAX_FRAME_LEN, &mut || true),
            Err(FrameError::Io(_))
        ));
    }
}
