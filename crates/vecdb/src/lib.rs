//! # fbp-vecdb
//!
//! Vector-space similarity database substrate (paper §2).
//!
//! FeedbackBypass sits on top of a retrieval system that represents
//! multimedia objects as points in `R^D` and answers k-nearest-neighbor
//! queries under a parameterized class of distance functions. This crate
//! is that system:
//!
//! * [`collection`] — flat, cache-friendly storage of feature vectors with
//!   category labels (the evaluation needs the labels as its relevance
//!   oracle);
//! * [`distance`] — the distance-function classes the paper discusses:
//!   `Lp` norms, **weighted Euclidean** (Equation 1, the class used in the
//!   paper's experiments), **Mahalanobis / quadratic forms**, and the
//!   **Rui-Huang hierarchical** model;
//! * [`knn`] — the retrieval operation, described once: a
//!   [`knn::QueryBatch`] (query points, a shared / per-query / weighted
//!   metric form, per-query `k`, optional pruning caps).
//!   [`knn::MultiQueryScan::knn`] answers the batch in one blocked
//!   pass, amortizing memory traffic across the queries, over a
//!   [`knn::Layout`]: a flat collection, or a
//!   [`collection::PartitionedCollection`], whose partitions a
//!   per-class lower bound can prove irrelevant and skip;
//!   [`knn::MultiQueryScan::knn_keyed`] stops the same pass in key
//!   space, so the k-bests of row slices (a router's shard servers)
//!   merge with [`knn::merge_partials`] into the unsliced answer. Every
//!   scan accepts [`knn::Precision::F32Rescore`]: phase 1 filters candidates over
//!   the collection's optional f32 mirror at half the bandwidth, phase
//!   2 rescores them in f64 — queries, keys and returned distances stay
//!   f64. Every layout, mode and precision answers bit-identically to
//!   the exhaustive single-query [`knn::LinearScan`], the flat f64
//!   reference (see `ARCHITECTURE.md` at the repository root for the
//!   full invariant list);
//! * [`result`] — ranked result lists and the stable-comparison helper the
//!   feedback loop uses as its convergence test.

#![warn(missing_docs)]

pub mod collection;
pub mod distance;
pub mod knn;
pub mod result;

pub use collection::{
    CategoryId, Collection, CollectionBuilder, PartitionConfig, PartitionedCollection,
};
pub use distance::{
    Distance, Euclidean, F32KeyBound, HierarchicalDistance, Lp, Manhattan, QuadraticDistance,
    WeightedEuclidean,
};
pub use knn::{
    merge_partials, merge_partials_policy, DegradedGather, FailurePolicy, GatherError, KnnEngine,
    Layout, LinearScan, MultiQueryScan, Neighbor, Precision, QueryBatch, QueryMetrics, ScanMode,
    ScanStats, ScanStatsSink, ShardPartial,
};
pub use result::ResultList;

/// Errors from the vector database.
#[derive(Debug, Clone, PartialEq)]
pub enum VecdbError {
    /// Vector dimensionality doesn't match the collection/distance.
    DimMismatch {
        /// Dimensionality the collection/distance expected.
        expected: usize,
        /// Dimensionality actually supplied.
        got: usize,
    },
    /// Invalid distance parameterization (non-positive weights, non-SPD
    /// matrix, bad feature partition...).
    BadParameters(String),
    /// Operation requires a non-empty collection.
    EmptyCollection,
}

impl std::fmt::Display for VecdbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VecdbError::DimMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            VecdbError::BadParameters(msg) => write!(f, "bad parameters: {msg}"),
            VecdbError::EmptyCollection => write!(f, "operation on empty collection"),
        }
    }
}

impl std::error::Error for VecdbError {}

/// Result alias for vecdb operations.
pub type Result<T> = std::result::Result<T, VecdbError>;
