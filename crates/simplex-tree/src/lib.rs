//! # fbp-simplex-tree
//!
//! The **Simplex Tree** (paper §4): the index at the core of
//! FeedbackBypass, whose interpolation is the paper's unbalanced-Haar
//! wavelet approximation.
//!
//! The tree organizes the query domain `Q ⊆ R^D` as a hierarchy of
//! simplices. The root simplex `S0` covers the whole domain; every stored
//! query point splits its enclosing leaf simplex into up to `D + 1`
//! children. Each stored vertex carries the N-dimensional vector of
//! *optimal query parameters* (OQPs) learned for it by a relevance
//! feedback loop. Three operations (Figure 8 of the paper):
//!
//! * **Lookup** — descend from the root into the child simplex containing
//!   the query point, tracking barycentric coordinates incrementally in
//!   O(D²) per level ([`tree::SimplexTree::lookup`]);
//! * **Predict** (`Mopt`) — linearly interpolate the OQPs stored at the
//!   `D + 1` vertices of the enclosing leaf — the unbalanced-Haar wavelet
//!   evaluation ([`tree::SimplexTree::predict`]);
//! * **Insert** — store a new `(query point, OQP)` pair *only if* the
//!   current prediction errs by more than a threshold ε, so storage tracks
//!   the intrinsic complexity of the optimal query mapping rather than the
//!   number of queries ([`tree::SimplexTree::insert`]).
//!
//! The tree is arena-backed and **implicit**: a child simplex is its
//! parent with one vertex replaced by the split point, so no node stores
//! its `D + 1` vertex ids — a lookup rebuilds them on the way down (see
//! [`tree`]'s layout notes). A leaf is one 4-byte record; an inner node
//! adds one split record, its `μ` and its child positions, all in flat
//! arrays addressed by `u32` ids. At D = 64 a stored point costs about
//! 2.5 KB of memory and 2.2 KB of image, most of it the point and its OQP
//! (the explicit-list tree needed ≈ 24 KB and 19 KB). The image
//! ([`persist`], version 2) is written in one exactly-sized allocation;
//! version-1 images still load, and every header count is checked
//! against the bytes present before anything is allocated for it.
//!
//! ## Example
//!
//! ```
//! use fbp_simplex_tree::{Oqp, OqpLayout, SimplexTree, TreeConfig};
//! use fbp_geometry::RootSimplex;
//!
//! // 2-D histogram-like domain, OQPs = 2 offset dims + 2 weights.
//! let layout = OqpLayout::new(2, 2);
//! let mut tree = SimplexTree::new(
//!     RootSimplex::standard(2), layout.clone(), TreeConfig::default()).unwrap();
//!
//! // Before any feedback, predictions are the default parameters.
//! let p = tree.predict(&[0.3, 0.3]).unwrap();
//! assert_eq!(p.oqp.delta, vec![0.0, 0.0]);
//! assert_eq!(p.oqp.weights, vec![1.0, 1.0]);
//!
//! // Store the outcome of a feedback loop and ask again.
//! let learned = Oqp { delta: vec![0.05, -0.02], weights: vec![3.0, 0.5] };
//! tree.insert(&[0.3, 0.3], &learned).unwrap();
//! let p = tree.predict(&[0.3, 0.3]).unwrap();
//! assert!((p.oqp.weights[0] - 3.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod oqp;
#[cfg(test)]
mod oracle;
pub mod persist;
pub mod stats;
pub mod tree;

pub use oqp::{Oqp, OqpLayout, WeightScale};
pub use stats::TreeShape;
pub use tree::{DescentRule, InsertOutcome, LeafHit, Prediction, SimplexTree, TreeConfig};

/// Errors from Simplex Tree operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeError {
    /// Query point lies outside the root simplex `S0`.
    OutOfDomain {
        /// The (negative) minimum barycentric coordinate observed.
        min_coord: f64,
    },
    /// Query/OQP dimensionality disagrees with the tree's layout.
    DimMismatch {
        /// Dimensionality the tree expected.
        expected: usize,
        /// Dimensionality actually supplied.
        got: usize,
    },
    /// Underlying geometric failure (degenerate root, ...).
    Geometry(fbp_geometry::GeometryError),
    /// Persistence: malformed or corrupt serialized image.
    Corrupt(String),
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::OutOfDomain { min_coord } => {
                write!(f, "query point outside the root simplex (min barycentric coordinate {min_coord:.3e})")
            }
            TreeError::DimMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            TreeError::Geometry(e) => write!(f, "geometry error: {e}"),
            TreeError::Corrupt(msg) => write!(f, "corrupt tree image: {msg}"),
        }
    }
}

impl std::error::Error for TreeError {}

impl From<fbp_geometry::GeometryError> for TreeError {
    fn from(e: fbp_geometry::GeometryError) -> Self {
        TreeError::Geometry(e)
    }
}

/// Result alias for tree operations.
pub type Result<T> = std::result::Result<T, TreeError>;
