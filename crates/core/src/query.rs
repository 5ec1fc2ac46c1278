//! The first-class query model: [`QuerySpec`] and its lowering.
//!
//! The paper's interactive loop assumes one anchor point per query, but
//! real relevance-feedback sessions hand back *sets* of positive and
//! negative examples. `QuerySpec` is the one type that captures every
//! query shape the stack serves — a plain anchor, an anchor plus
//! positive/negative example sets combined Rocchio-style
//! (`q' = α·q + β·centroid(good) − γ·centroid(bad)`), and a per-spec
//! result count `k` — and [`QuerySpec::lower`] is the **single
//! canonicalization step** that turns any of them into the kernel-ready
//! [`LoweredQuery`] *before* the scan.
//!
//! Everything downstream of lowering — kernels, partitions, bound
//! propagation, the router's key-space merge — sees only the lowered
//! `(point, weights, k)` form and is untouched by new query shapes.
//! That is what preserves the repo's bit-identity invariant: a
//! multi-example query is answered **bit-identical** to a flat
//! [`LinearScan`](fbp_vecdb::LinearScan) against its manually derived
//! anchor, because by the time a scan runs there *is* only the derived
//! anchor.
//!
//! ## Lowering, normatively
//!
//! With α/β/γ from [`RocchioWeights`] (defaults `1.0 / 0.75 / 0.25`):
//!
//! 1. **Trivial case** — no positives, no negatives, `α = 1.0`, no
//!    clamp: the anchor is returned **verbatim** (not recomputed), so a
//!    plain one-anchor spec lowers to exactly the bytes it was built
//!    from.
//! 2. Otherwise the derived anchor is
//!    [`fbp_feedback::rocchio`] over the example sets with unit scores:
//!    `out = α·anchor`, `out += β·mean(positives)` (term dropped when
//!    the set is empty), `out −= γ·mean(negatives)` (likewise) — the
//!    **same code** the server-side feedback transition runs, so a
//!    lowered spec and a [`FeedbackStepper`](fbp_feedback::FeedbackStepper)
//!    Rocchio step agree bitwise, not just approximately.
//! 3. With [`QuerySpecBuilder::clamp_to_zero`], every derived component
//!    is clamped to `max(0, ·)` — the classic text-retrieval Rocchio
//!    variant for non-negative feature domains (histograms).
//!
//! Validation happens **once**, in [`QuerySpecBuilder::build`]; a built
//! spec lowers infallibly. Construction errors are the typed
//! [`RequestError`] (not strings), and the serving layers surface the
//! same variants as distinct wire error codes.

use crate::shared::KnnRequest;
use fbp_feedback::{rocchio, ScoredPoint};

/// Typed validation failure of a query spec or request batch.
///
/// One enum covers every way a request can be malformed, in-process and
/// over the wire: the serving layers map each variant to its own
/// protocol error code, so a client can distinguish "your vector is the
/// wrong length" from "your weight is not positive" without parsing
/// message strings.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// A vector (anchor, example, or weights) disagrees with the
    /// feature dimensionality.
    DimMismatch {
        /// Dimensionality the collection/module serves.
        expected: usize,
        /// Dimensionality actually supplied.
        got: usize,
    },
    /// A distance weight is non-finite or not strictly positive.
    BadWeight {
        /// Component index of the offending weight.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A query or example component is NaN or infinite.
    NonFiniteComponent {
        /// Component index of the offending value.
        index: usize,
    },
    /// The spec has no active term: zero `α` and no examples leaves
    /// nothing to derive an anchor from.
    EmptyExampleSet,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::DimMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            RequestError::BadWeight { index, value } => {
                write!(f, "weight[{index}] = {value} is not finite and positive")
            }
            RequestError::NonFiniteComponent { index } => {
                write!(f, "component [{index}] is not finite")
            }
            RequestError::EmptyExampleSet => {
                write!(f, "no active term: alpha = 0 and no examples")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// The Rocchio combination coefficients `α` (anchor), `β` (positive
/// centroid), `γ` (negative centroid).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocchioWeights {
    /// Weight of the original anchor.
    pub alpha: f64,
    /// Weight of the positive-example centroid.
    pub beta: f64,
    /// Weight of the negative-example centroid.
    pub gamma: f64,
}

impl Default for RocchioWeights {
    /// The classic text-retrieval defaults: `α = 1.0`, `β = 0.75`,
    /// `γ = 0.25`.
    fn default() -> Self {
        RocchioWeights {
            alpha: 1.0,
            beta: 0.75,
            gamma: 0.25,
        }
    }
}

impl RocchioWeights {
    /// Explicit coefficients.
    pub fn new(alpha: f64, beta: f64, gamma: f64) -> Self {
        RocchioWeights { alpha, beta, gamma }
    }
}

/// One query, as the caller means it: an anchor point, optional
/// positive/negative example sets with their Rocchio coefficients, an
/// optional per-component metric and per-spec `k`.
///
/// Built only through [`QuerySpec::builder`] (all validation lives in
/// [`QuerySpecBuilder::build`]); consumed by lowering
/// ([`QuerySpec::lower`]) into the kernel-ready [`LoweredQuery`] the
/// serving front-end ([`SharedBypass::knn_batch`](crate::SharedBypass::knn_batch))
/// scans with.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    anchor: Vec<f64>,
    positives: Vec<Vec<f64>>,
    negatives: Vec<Vec<f64>>,
    rocchio: RocchioWeights,
    clamp_to_zero: bool,
    weights: Option<Vec<f64>>,
    k: Option<usize>,
}

impl QuerySpec {
    /// Start building a spec anchored at `anchor`.
    pub fn builder(anchor: Vec<f64>) -> QuerySpecBuilder {
        QuerySpecBuilder {
            spec: QuerySpec {
                anchor,
                positives: Vec::new(),
                negatives: Vec::new(),
                rocchio: RocchioWeights::default(),
                clamp_to_zero: false,
                weights: None,
                k: None,
            },
        }
    }

    /// The anchor point as supplied.
    pub fn anchor(&self) -> &[f64] {
        &self.anchor
    }

    /// Positive examples, in insertion order.
    pub fn positives(&self) -> &[Vec<f64>] {
        &self.positives
    }

    /// Negative examples, in insertion order.
    pub fn negatives(&self) -> &[Vec<f64>] {
        &self.negatives
    }

    /// The Rocchio coefficients in effect.
    pub fn rocchio(&self) -> RocchioWeights {
        self.rocchio
    }

    /// Whether derived components are clamped to `max(0, ·)`.
    pub fn clamps_to_zero(&self) -> bool {
        self.clamp_to_zero
    }

    /// The per-spec result count, if pinned.
    pub fn k(&self) -> Option<usize> {
        self.k
    }

    /// The distance weights, if set (lowering defaults to uniform).
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// The Rocchio-derived anchor this spec searches from — the
    /// normative derivation the module docs spell out. Exposed so tests
    /// and wire handlers can pin "spec result ≡ flat scan on the
    /// derived anchor" without re-deriving by hand.
    pub fn derived_anchor(&self) -> Vec<f64> {
        if self.positives.is_empty()
            && self.negatives.is_empty()
            && self.rocchio.alpha == 1.0
            && !self.clamp_to_zero
        {
            // Trivial case: the anchor verbatim, bit-for-bit.
            return self.anchor.clone();
        }
        let good: Vec<ScoredPoint> = self
            .positives
            .iter()
            .map(|p| ScoredPoint::new(p, 1.0))
            .collect();
        let bad: Vec<ScoredPoint> = self
            .negatives
            .iter()
            .map(|p| ScoredPoint::new(p, 1.0))
            .collect();
        let mut out = rocchio(
            &self.anchor,
            &good,
            &bad,
            self.rocchio.alpha,
            self.rocchio.beta,
            self.rocchio.gamma,
        )
        .expect("builder validated example dimensions");
        if self.clamp_to_zero {
            for v in &mut out {
                *v = v.max(0.0);
            }
        }
        out
    }

    /// Lower to the kernel-ready form: derive the anchor, default the
    /// metric to uniform when unset, and carry `k` through.
    /// Infallible — every failure mode was rejected at
    /// [`QuerySpecBuilder::build`].
    pub fn lower(&self) -> LoweredQuery {
        let point = self.derived_anchor();
        let weights = match &self.weights {
            Some(w) => w.clone(),
            None => vec![1.0; self.anchor.len()],
        };
        LoweredQuery {
            request: KnnRequest {
                point,
                weights,
                k: self.k,
            },
        }
    }
}

/// The kernel-ready form a [`QuerySpec`] lowers to: one derived anchor
/// point, one weighted-Euclidean weight vector and the per-query `k`.
/// This is the *only* shape the scan, server and router layers ever
/// see — in-process it is carried as a [`KnnRequest`], which
/// [`Self::into_request`] unwraps.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredQuery {
    request: KnnRequest,
}

impl LoweredQuery {
    /// The derived anchor the scan searches from.
    pub fn point(&self) -> &[f64] {
        &self.request.point
    }

    /// The per-component distance weights.
    pub fn weights(&self) -> &[f64] {
        &self.request.weights
    }

    /// Per-query result count, if pinned.
    pub fn k(&self) -> Option<usize> {
        self.request.k
    }

    /// Borrow the lowered form as the serving-layer request type.
    pub fn request(&self) -> &KnnRequest {
        &self.request
    }

    /// Unwrap into the serving-layer request type.
    pub fn into_request(self) -> KnnRequest {
        self.request
    }
}

/// The one construction path for [`QuerySpec`]: accumulate anchor,
/// examples, coefficients, metric and `k`, then validate
/// everything in [`Self::build`].
#[derive(Debug, Clone)]
pub struct QuerySpecBuilder {
    spec: QuerySpec,
}

impl QuerySpecBuilder {
    /// Add one positive example.
    pub fn positive(mut self, example: Vec<f64>) -> Self {
        self.spec.positives.push(example);
        self
    }

    /// Add one negative example.
    pub fn negative(mut self, example: Vec<f64>) -> Self {
        self.spec.negatives.push(example);
        self
    }

    /// Set the whole positive-example set at once (wire decode path).
    pub fn positives(mut self, examples: Vec<Vec<f64>>) -> Self {
        self.spec.positives = examples;
        self
    }

    /// Set the whole negative-example set at once (wire decode path).
    pub fn negatives(mut self, examples: Vec<Vec<f64>>) -> Self {
        self.spec.negatives = examples;
        self
    }

    /// Override the default `α/β/γ` coefficients.
    pub fn rocchio(mut self, weights: RocchioWeights) -> Self {
        self.spec.rocchio = weights;
        self
    }

    /// Clamp every derived component to `max(0, ·)` (the non-negative
    /// Rocchio variant for histogram-like domains).
    pub fn clamp_to_zero(mut self, clamp: bool) -> Self {
        self.spec.clamp_to_zero = clamp;
        self
    }

    /// Set explicit distance weights (lowering defaults to uniform).
    pub fn weights(mut self, weights: Vec<f64>) -> Self {
        self.spec.weights = Some(weights);
        self
    }

    /// Pin the per-spec result count.
    pub fn k(mut self, k: usize) -> Self {
        self.spec.k = Some(k);
        self
    }

    /// Validate and seal the spec. Checks, in order:
    ///
    /// * every example matches the anchor's dimensionality
    ///   ([`RequestError::DimMismatch`]);
    /// * anchor, examples, and Rocchio coefficients are all finite
    ///   ([`RequestError::NonFiniteComponent`]);
    /// * explicit weights match the anchor's dimensionality and are
    ///   finite and strictly positive ([`RequestError::BadWeight`]);
    /// * at least one term is active — `α ≠ 0` or a non-empty example
    ///   set ([`RequestError::EmptyExampleSet`]).
    pub fn build(self) -> Result<QuerySpec, RequestError> {
        let spec = self.spec;
        let dim = spec.anchor.len();
        check_finite(&spec.anchor)?;
        for ex in spec.positives.iter().chain(spec.negatives.iter()) {
            if ex.len() != dim {
                return Err(RequestError::DimMismatch {
                    expected: dim,
                    got: ex.len(),
                });
            }
            check_finite(ex)?;
        }
        for (i, c) in [spec.rocchio.alpha, spec.rocchio.beta, spec.rocchio.gamma]
            .iter()
            .enumerate()
        {
            if !c.is_finite() {
                return Err(RequestError::NonFiniteComponent { index: i });
            }
        }
        if let Some(w) = &spec.weights {
            if w.len() != dim {
                return Err(RequestError::DimMismatch {
                    expected: dim,
                    got: w.len(),
                });
            }
            validate_weights(w)?;
        }
        if spec.rocchio.alpha == 0.0 && spec.positives.is_empty() && spec.negatives.is_empty() {
            return Err(RequestError::EmptyExampleSet);
        }
        Ok(spec)
    }
}

fn check_finite(v: &[f64]) -> Result<(), RequestError> {
    match v.iter().position(|c| !c.is_finite()) {
        Some(index) => Err(RequestError::NonFiniteComponent { index }),
        None => Ok(()),
    }
}

/// Shared weight-vector rule (the metric's own invariant, checked up
/// front so it reports a typed error instead of a scan-layer string):
/// every weight finite and strictly positive.
pub(crate) fn validate_weights(w: &[f64]) -> Result<(), RequestError> {
    for (index, &value) in w.iter().enumerate() {
        if !value.is_finite() || value <= 0.0 {
            return Err(RequestError::BadWeight { index, value });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean(examples: &[Vec<f64>]) -> Vec<f64> {
        let dim = examples[0].len();
        let mut acc = vec![0.0; dim];
        for e in examples {
            for d in 0..dim {
                acc[d] += e[d];
            }
        }
        let n = examples.len() as f64;
        acc.iter().map(|v| v / n).collect()
    }

    #[test]
    fn trivial_spec_lowers_to_anchor_verbatim() {
        let anchor = vec![0.25, -0.5, 0.125, 3.0];
        let spec = QuerySpec::builder(anchor.clone()).build().unwrap();
        let low = spec.lower();
        assert_eq!(low.point(), anchor.as_slice());
        assert_eq!(low.weights(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(low.k(), None);
    }

    #[test]
    fn positives_only_matches_manual_rocchio() {
        let anchor = vec![0.5, 0.5];
        let pos = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.5, 0.25]];
        let spec = QuerySpec::builder(anchor.clone())
            .positives(pos.clone())
            .rocchio(RocchioWeights::new(1.0, 0.75, 0.25))
            .build()
            .unwrap();
        let m = mean(&pos);
        let expect: Vec<f64> = anchor
            .iter()
            .zip(&m)
            .map(|(a, c)| 1.0 * a + 0.75 * c)
            .collect();
        assert_eq!(spec.derived_anchor(), expect);
    }

    #[test]
    fn negatives_only_subtracts_the_centroid() {
        let anchor = vec![0.5, 0.5];
        let neg = vec![vec![1.0, 1.0], vec![0.0, 1.0]];
        let spec = QuerySpec::builder(anchor.clone())
            .negatives(neg.clone())
            .build()
            .unwrap();
        let m = mean(&neg);
        let expect: Vec<f64> = anchor
            .iter()
            .zip(&m)
            .map(|(a, c)| 1.0 * a - 0.25 * c)
            .collect();
        assert_eq!(spec.derived_anchor(), expect);
    }

    #[test]
    fn clamp_to_zero_floors_negative_components() {
        let spec = QuerySpec::builder(vec![0.1, 0.1])
            .negative(vec![4.0, 0.0])
            .rocchio(RocchioWeights::new(1.0, 0.75, 1.0))
            .clamp_to_zero(true)
            .build()
            .unwrap();
        let derived = spec.derived_anchor();
        assert_eq!(derived[0], 0.0, "component driven negative must clamp");
        assert!(derived[1] > 0.0);
    }

    #[test]
    fn build_rejects_dim_mismatched_examples() {
        let err = QuerySpec::builder(vec![0.1, 0.2])
            .positive(vec![0.1, 0.2, 0.3])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            RequestError::DimMismatch {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn build_rejects_non_finite_components() {
        let err = QuerySpec::builder(vec![0.1, f64::NAN]).build().unwrap_err();
        assert_eq!(err, RequestError::NonFiniteComponent { index: 1 });
        let err = QuerySpec::builder(vec![0.1, 0.2])
            .negative(vec![f64::INFINITY, 0.0])
            .build()
            .unwrap_err();
        assert_eq!(err, RequestError::NonFiniteComponent { index: 0 });
    }

    #[test]
    fn build_rejects_bad_weights() {
        let err = QuerySpec::builder(vec![0.1, 0.2])
            .weights(vec![1.0, -2.0])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            RequestError::BadWeight {
                index: 1,
                value: -2.0
            }
        );
        let err = QuerySpec::builder(vec![0.1, 0.2])
            .weights(vec![0.0, 1.0])
            .build()
            .unwrap_err();
        assert!(matches!(err, RequestError::BadWeight { index: 0, .. }));
    }

    #[test]
    fn build_rejects_specs_with_no_active_term() {
        let err = QuerySpec::builder(vec![0.1, 0.2])
            .rocchio(RocchioWeights::new(0.0, 0.75, 0.25))
            .build()
            .unwrap_err();
        assert_eq!(err, RequestError::EmptyExampleSet);
        // One example makes the spec meaningful again.
        assert!(QuerySpec::builder(vec![0.1, 0.2])
            .rocchio(RocchioWeights::new(0.0, 1.0, 0.0))
            .positive(vec![0.3, 0.4])
            .build()
            .is_ok());
    }

    #[test]
    fn unit_score_rocchio_matches_feedback_crate_bitwise() {
        // The lowering *is* fbp_feedback::rocchio with unit scores; pin
        // the bitwise agreement the docs promise.
        let anchor = vec![0.3, 0.7, 0.1];
        let pos = vec![vec![0.9, 0.2, 0.4], vec![0.1, 0.8, 0.6]];
        let neg = vec![vec![0.5, 0.5, 0.5]];
        let spec = QuerySpec::builder(anchor.clone())
            .positives(pos.clone())
            .negatives(neg.clone())
            .rocchio(RocchioWeights::new(0.9, 0.6, 0.15))
            .build()
            .unwrap();
        let good: Vec<ScoredPoint> = pos.iter().map(|p| ScoredPoint::new(p, 1.0)).collect();
        let bad: Vec<ScoredPoint> = neg.iter().map(|p| ScoredPoint::new(p, 1.0)).collect();
        let manual = rocchio(&anchor, &good, &bad, 0.9, 0.6, 0.15).unwrap();
        assert_eq!(spec.derived_anchor(), manual);
    }
}
