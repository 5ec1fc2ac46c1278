//! # fbp-feedback
//!
//! Relevance feedback engines (paper §2) and the feedback-loop driver
//! whose converged parameters are what FeedbackBypass stores.
//!
//! The interactive retrieval protocol: the system returns `k` results,
//! the user scores them, and the system derives
//!
//! * a **new query point** — [`movement`]: Rocchio's formula or the
//!   MindReader/ISF98 *optimal* point (Equation 2 of the paper: the
//!   score-weighted average of the good results);
//! * a **new distance function** — [`reweight()`]: the MARS rule
//!   `wᵢ = 1/σᵢ` or the ISF98-optimal `wᵢ ∝ 1/σᵢ²`, the per-component
//!   weights of the weighted-Euclidean class the module learns;
//!
//! then re-runs the query until the result list stops changing
//! ([`loop_driver`], the paper's §5 protocol). [`oracle`] supplies the
//! automated category-based relevance judgments the paper's evaluation
//! uses.

#![warn(missing_docs)]

pub mod loop_driver;
pub mod movement;
pub mod oracle;
pub mod reweight;
pub mod score;
pub mod step;

pub use loop_driver::{FeedbackConfig, FeedbackLoop, LoopResult, MovementStrategy};
pub use movement::{optimal_point, rocchio};
pub use oracle::{CategoryOracle, RelevanceOracle, SetOracle};
pub use reweight::{reweight, ReweightRule};
pub use score::{Relevance, ScoredPoint};
pub use step::{FeedbackStepper, StepOutcome};

/// Errors from the feedback engines.
#[derive(Debug, Clone, PartialEq)]
pub enum FeedbackError {
    /// No positively-scored examples: the formulas are undefined.
    NoPositiveExamples,
    /// Dimension mismatch between inputs.
    DimMismatch {
        /// Dimensionality the operation expected.
        expected: usize,
        /// Dimensionality actually supplied.
        got: usize,
    },
    /// Invalid configuration value.
    BadConfig(String),
}

impl std::fmt::Display for FeedbackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedbackError::NoPositiveExamples => {
                write!(f, "no positively-scored examples")
            }
            FeedbackError::DimMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            FeedbackError::BadConfig(msg) => write!(f, "bad config: {msg}"),
        }
    }
}

impl std::error::Error for FeedbackError {}

/// Result alias for feedback operations.
pub type Result<T> = std::result::Result<T, FeedbackError>;
