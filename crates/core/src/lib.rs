//! # feedbackbypass
//!
//! **FeedbackBypass** — a reproduction of *"FeedbackBypass: A New Approach
//! to Interactive Similarity Query Processing"* (Bartolini, Ciaccia, Waas;
//! VLDB 2001).
//!
//! Interactive similarity retrieval systems refine queries through
//! relevance-feedback loops, but forget everything between sessions.
//! FeedbackBypass sits next to the feedback engine (Figure 4 of the
//! paper) and *remembers*: it learns the mapping from initial query points
//! to the *optimal query parameters* `(Δopt, Wopt)` their feedback loops
//! converge to, storing it in a wavelet-based [Simplex
//! Tree](fbp_simplex_tree). For an already-seen query the loop can be
//! bypassed outright; for a new query the predicted parameters start the
//! search near-optimal, cutting feedback cycles and database accesses.
//!
//! ## Crate layout
//!
//! * [`bypass`] — the FeedbackBypass module itself: `predict` (the
//!   paper's `Mopt`) and `insert`, plus the domain mapping between
//!   feature space and the Simplex Tree's query domain;
//! * [`shared`] — a thread-safe handle for concurrent retrieval sessions
//!   sharing one learned mapping, plus the batched serving front-end
//!   ([`SharedBypass::knn_batch`]) that coalesces pending sessions' k-NN
//!   requests into one multi-query collection pass. It is the only
//!   in-process batch entry; networked serving lives in `fbp-server`,
//!   whose dispatcher scans through `fbp_vecdb::MultiQueryScan` too.
//!
//! ## Quickstart
//!
//! ```
//! use feedbackbypass::{FeedbackBypass, BypassConfig};
//!
//! // 4-bin histogram features → 3-dimensional simplex query domain.
//! let mut fb = FeedbackBypass::for_histograms(4, BypassConfig::default()).unwrap();
//!
//! // A fresh module predicts the default parameters (Δ = 0, W = 1).
//! let q = [0.4, 0.3, 0.2, 0.1];
//! let p = fb.predict(&q).unwrap();
//! assert!(p.point.iter().zip(&q).all(|(a, b)| (a - b).abs() < 1e-12));
//! assert_eq!(p.weights, vec![1.0; 4]);
//!
//! // After a feedback loop converged elsewhere, store its outcome...
//! let qopt = [0.5, 0.3, 0.15, 0.05];
//! let wopt = [2.0, 1.0, 1.0, 0.5];
//! fb.insert(&q, &qopt, &wopt).unwrap();
//!
//! // ...and the loop can be bypassed next time.
//! let p = fb.predict(&q).unwrap();
//! assert!((p.point[0] - 0.5).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod bypass;
pub mod query;
pub mod shared;

pub use bypass::{BypassConfig, FeedbackBypass, PredictedParams};
pub use query::{LoweredQuery, QuerySpec, QuerySpecBuilder, RequestError, RocchioWeights};
pub use shared::{KnnRequest, SharedBypass};

// Re-export the substrate types users interact with.
pub use fbp_feedback::{FeedbackConfig, MovementStrategy};
pub use fbp_simplex_tree::{InsertOutcome, Oqp, OqpLayout, TreeConfig, WeightScale};
pub use fbp_vecdb::{PartitionConfig, PartitionedCollection, ScanStats, ScanStatsSink};

/// Errors from the FeedbackBypass module.
#[derive(Debug, Clone, PartialEq)]
pub enum BypassError {
    /// Input vector is not a normalized histogram / not in the domain.
    BadQuery(String),
    /// Dimensionality disagrees with the module's feature space.
    DimMismatch {
        /// Feature dimensionality the module was built for.
        expected: usize,
        /// Dimensionality actually supplied.
        got: usize,
    },
    /// Simplex Tree failure.
    Tree(fbp_simplex_tree::TreeError),
    /// Feedback engine failure.
    Feedback(fbp_feedback::FeedbackError),
    /// Typed request/spec validation failure (see [`RequestError`]).
    /// Dimensionality failures keep surfacing as
    /// [`BypassError::DimMismatch`] — the `From<RequestError>` impl
    /// folds that variant over — so this arm carries the rest: bad
    /// weights, non-finite components and empty example sets.
    Request(RequestError),
}

impl std::fmt::Display for BypassError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BypassError::BadQuery(msg) => write!(f, "bad query: {msg}"),
            BypassError::DimMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            BypassError::Tree(e) => write!(f, "simplex tree: {e}"),
            BypassError::Feedback(e) => write!(f, "feedback: {e}"),
            BypassError::Request(e) => write!(f, "bad request: {e}"),
        }
    }
}

impl std::error::Error for BypassError {}

impl From<fbp_simplex_tree::TreeError> for BypassError {
    fn from(e: fbp_simplex_tree::TreeError) -> Self {
        BypassError::Tree(e)
    }
}

impl From<fbp_feedback::FeedbackError> for BypassError {
    fn from(e: fbp_feedback::FeedbackError) -> Self {
        BypassError::Feedback(e)
    }
}

impl From<RequestError> for BypassError {
    fn from(e: RequestError) -> Self {
        match e {
            // Keep the long-standing dimension-error shape: callers
            // (and tests) match on `BypassError::DimMismatch` no matter
            // which layer caught it.
            RequestError::DimMismatch { expected, got } => {
                BypassError::DimMismatch { expected, got }
            }
            other => BypassError::Request(other),
        }
    }
}

/// Result alias for FeedbackBypass operations.
pub type Result<T> = std::result::Result<T, BypassError>;
