//! Workspace root crate for the FeedbackBypass reproduction.
//!
//! This crate exists to host the runnable examples in `examples/` and the
//! cross-crate integration tests in `tests/`. The actual library lives in
//! [`feedbackbypass`] and the `fbp-*` substrate crates; this crate simply
//! re-exports them under one roof for convenience.

//! For serving over the network, see [`server`] (`fbp-server`): a TCP
//! front-end with adaptive micro-batching over the coalesced scan path
//! — one micro-batcher per collection shard once
//! `ServerConfig::shards > 1`, with scatter/gather replies pinned
//! bit-identical to flat serving — `examples/serve_loadgen.rs` drives
//! it end to end.
//!
//! **`ARCHITECTURE.md` at the repository root** is the map of the whole
//! system: the crate graph, the life of a query from TCP frame to SIMD
//! kernel, the precision model (F64 / F32Rescore / rounding bounds), and
//! the bit-identity invariants every PR must preserve.

pub use fbp_eval as eval;
pub use fbp_feedback as feedback;
pub use fbp_geometry as geometry;
pub use fbp_imagegen as imagegen;
pub use fbp_linalg as linalg;
pub use fbp_server as server;
pub use fbp_simplex_tree as simplex_tree;
pub use fbp_vecdb as vecdb;
pub use fbp_wavelet as wavelet;
pub use feedbackbypass as bypass;
