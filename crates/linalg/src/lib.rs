//! # fbp-linalg
//!
//! Small, dependency-free dense linear algebra substrate for the
//! FeedbackBypass reproduction.
//!
//! The FeedbackBypass system needs exactly the kernels collected here:
//!
//! * vector arithmetic over `f64` slices ([`vector`]),
//! * a dense row-major [`Matrix`] with the usual products ([`matrix`]),
//! * LU decomposition with partial pivoting for solving the barycentric
//!   coordinate systems of the Simplex Tree and for determinants
//!   ([`lu`]),
//! * Cholesky decomposition for Mahalanobis (quadratic-form) distances
//!   learned from feedback covariance matrices ([`cholesky`]),
//! * streaming statistics (mean, variance) used by the re-weighting
//!   feedback strategies ([`stats`]).
//!
//! Everything is written against plain `&[f64]` buffers so callers can keep
//! their own storage (the Simplex Tree keeps vertices in flat arenas).

#![warn(missing_docs)]
// Numeric kernels deliberately use explicit index loops: they mirror the
// textbook formulas (row/column index chasing) more faithfully than
// iterator chains, which matters when verifying against the math.
#![allow(clippy::needless_range_loop)]

pub mod cholesky;
pub mod lu;
pub mod matrix;
pub mod stats;
pub mod vector;

pub use cholesky::Cholesky;
pub use lu::Lu;
pub use matrix::Matrix;
pub use stats::RunningStats;

/// Errors produced by the linear algebra kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Matrix is singular (or numerically so) at the given pivot step.
    Singular {
        /// Elimination step at which the pivot vanished.
        step: usize,
    },
    /// Matrix is not positive definite at the given pivot step.
    NotPositiveDefinite {
        /// Pivot index at which positive definiteness failed.
        step: usize,
    },
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Shape the operation required.
        expected: (usize, usize),
        /// Shape actually supplied.
        got: (usize, usize),
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular { step } => {
                write!(f, "matrix is singular at elimination step {step}")
            }
            LinalgError::NotPositiveDefinite { step } => {
                write!(f, "matrix is not positive definite at pivot {step}")
            }
            LinalgError::ShapeMismatch { expected, got } => write!(
                f,
                "shape mismatch: expected {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Result alias for fallible linalg operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
