//! Workspace root crate for the FeedbackBypass reproduction.
//!
//! This crate holds no code. It exists to host the runnable examples in
//! `examples/` and the cross-crate integration tests in `tests/`, which
//! import the library crates directly: `feedbackbypass` (the module
//! itself) and the `fbp-*` substrate crates under `crates/`.
//!
//! For serving over the network, see `fbp-server`: a TCP front-end with
//! adaptive micro-batching over the coalesced scan path;
//! `examples/serve_loadgen.rs` drives it end to end.
//!
//! **`ARCHITECTURE.md` at the repository root** is the map of the whole
//! system: the crate graph, the life of a query from TCP frame to SIMD
//! kernel, the precision model (F64 / F32Rescore / rounding bounds), and
//! the bit-identity invariants every PR must preserve.
