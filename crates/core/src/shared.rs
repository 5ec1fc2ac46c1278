//! Thread-safe sharing of one FeedbackBypass module, plus the batched
//! serving front-end for concurrent sessions.
//!
//! A retrieval service handles many user sessions concurrently, all of
//! which should benefit from (and contribute to) the same learned
//! mapping. Predictions are read-mostly and cheap; inserts are rare (one
//! per finished feedback loop). An `RwLock` around the module matches
//! that profile: concurrent predictions, exclusive inserts.
//!
//! Beyond the shared *state*, concurrent sessions also share the
//! *collection*: every feedback iteration of every session re-scans the
//! same vectors, and on a memory-bandwidth-bound host those scans are
//! the throughput ceiling. [`SharedBypass::knn_batch`] therefore
//! coalesces the pending sessions' k-NN requests into **one**
//! multi-query block pass ([`MultiQueryScan::knn`] over one
//! [`QueryBatch`]): requests still sharing a metric (e.g. first
//! iterations under uniform weights) ride the shared-metric kernels,
//! diverged per-session metrics the per-query-weight ones. Results are
//! bit-identical to serving each request with its own
//! [`LinearScan`](fbp_vecdb::LinearScan).

use crate::bypass::{FeedbackBypass, PredictedParams};
use crate::query::{validate_weights, QuerySpec, RequestError};
use crate::{BypassError, Result};
use fbp_simplex_tree::InsertOutcome;
use fbp_vecdb::{
    Collection, MultiQueryScan, Neighbor, Precision, QueryBatch, QueryMetrics, WeightedEuclidean,
};
use parking_lot::RwLock;
use std::sync::Arc;

/// One session's pending k-NN request **in lowered form**: its current
/// query point and per-component distance weights (the parameters its
/// feedback loop — or a [`SharedBypass::predict`] — last produced).
///
/// This is the shape [`QuerySpec::lower`] canonicalizes every query
/// into, and the only shape the scan/shard/router layers see. Prefer
/// building queries through [`QuerySpec::builder`](crate::QuerySpec::builder)
/// — it validates once and lowers infallibly; constructing `KnnRequest`
/// by poking fields is the deprecated legacy path kept for the
/// post-lowering plumbing (batchers, session stores) that already holds
/// validated `(point, weights)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnRequest {
    /// Query point in feature space.
    pub point: Vec<f64>,
    /// Weighted-Euclidean component weights (all finite and positive).
    pub weights: Vec<f64>,
    /// Per-request result count; `None` uses the batch-wide `k` passed
    /// to [`SharedBypass::knn_batch`]. Sessions in one pass rarely agree
    /// on `k` (different UIs, different refinement depths), and the
    /// multi-query scan answers mixed counts without widening anyone's
    /// k-best.
    pub k: Option<usize>,
    /// Scan-precision pin for the pass serving this request; `None`
    /// defers to [`SharedBypass::effective_precision`]'s fallback rule.
    /// Pinned requests in one batch must agree (one pass streams one
    /// buffer); results are identical either way — a pin only controls
    /// bandwidth, e.g. `Some(Precision::F64)` to force the single-phase
    /// scan on a mirrored collection.
    pub precision: Option<Precision>,
}

impl KnnRequest {
    /// Request with uniform (default-metric) weights.
    pub fn uniform(point: Vec<f64>) -> Self {
        let dim = point.len();
        KnnRequest {
            point,
            weights: vec![1.0; dim],
            k: None,
            precision: None,
        }
    }

    /// Request from a module prediction.
    pub fn from_prediction(p: &PredictedParams) -> Self {
        KnnRequest {
            point: p.point.clone(),
            weights: p.weights.clone(),
            k: None,
            precision: None,
        }
    }

    /// Override the batch-wide `k` for this request.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Pin the scan precision of the pass serving this request.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = Some(precision);
        self
    }

    /// Validate this request against the served dimensionality and
    /// build its weighted-Euclidean metric — the single-request form of
    /// batch preparation, for schedulers that admit requests one at a
    /// time and want the metric built **once** (shared by every shard
    /// pass and the final gather) instead of once per shard pass.
    pub fn metric(&self, dim: usize) -> Result<WeightedEuclidean> {
        if self.point.len() != dim {
            return Err(BypassError::DimMismatch {
                expected: dim,
                got: self.point.len(),
            });
        }
        if self.weights.len() != dim {
            return Err(BypassError::DimMismatch {
                expected: dim,
                got: self.weights.len(),
            });
        }
        WeightedEuclidean::new(self.weights.clone())
            .map_err(|e| BypassError::BadQuery(format!("request weights: {e}")))
    }
}

/// Validated, kernel-ready form of one request batch — the common
/// front half of the flat ([`SharedBypass::knn_batch_lowered`]) and
/// sharded ([`crate::ShardedBypass::knn_batch_lowered`]) serving paths.
pub(crate) struct PreparedBatch {
    /// One weighted-Euclidean metric per request.
    pub metrics: Vec<WeightedEuclidean>,
    /// Resolved per-request result counts (request `k` or the default).
    pub ks: Vec<usize>,
}

impl PreparedBatch {
    /// Run `scan` over the batch: the requests' points under their
    /// weighted-Euclidean metrics and result counts as one
    /// [`QueryBatch`] (which rides the shared-metric kernels when every
    /// weight vector is equal — typically every session's first
    /// iteration, before feedback diverges the metrics).
    pub(crate) fn scan(
        &self,
        requests: &[KnnRequest],
        scan: impl FnOnce(&QueryBatch<'_>) -> Vec<Vec<Neighbor>>,
    ) -> Vec<Vec<Neighbor>> {
        let points: Vec<&[f64]> = requests.iter().map(|r| r.point.as_slice()).collect();
        let metrics: Vec<&WeightedEuclidean> = self.metrics.iter().collect();
        scan(&QueryBatch::new(&points, QueryMetrics::Weighted(&metrics), 0).with_ks(&self.ks))
    }
}

/// Validate a request batch against the served dimensionality and build
/// its metrics: the scan layer asserts/indexes on dims and would panic
/// instead of reporting a serving error, so everything is checked here
/// first.
pub(crate) fn prepare_requests(
    dim: usize,
    requests: &[KnnRequest],
    default_k: usize,
) -> Result<PreparedBatch> {
    for r in requests {
        if r.point.len() != dim {
            return Err(BypassError::DimMismatch {
                expected: dim,
                got: r.point.len(),
            });
        }
        if r.weights.len() != dim {
            return Err(BypassError::DimMismatch {
                expected: dim,
                got: r.weights.len(),
            });
        }
        validate_weights(&r.weights)?;
    }
    let metrics: Vec<WeightedEuclidean> = requests
        .iter()
        .map(|r| {
            WeightedEuclidean::new(r.weights.clone())
                .map_err(|e| BypassError::BadQuery(format!("request weights: {e}")))
        })
        .collect::<Result<_>>()?;
    let ks: Vec<usize> = requests.iter().map(|r| r.k.unwrap_or(default_k)).collect();
    Ok(PreparedBatch { metrics, ks })
}

/// The serving layer's one precision fallback rule, shared verbatim by
/// the flat and sharded paths (see
/// [`SharedBypass::effective_precision`] for the normative wording):
/// agreeing pins win, `F32Rescore` sticks, an `F64`-default scan
/// upgrades when the collection is mirrored.
pub(crate) fn resolve_precision(
    configured: Precision,
    has_mirror: bool,
    pins: impl IntoIterator<Item = Option<Precision>>,
) -> Result<Precision> {
    let mut pinned: Option<Precision> = None;
    for pin in pins.into_iter().flatten() {
        match pinned {
            Some(q) if q != pin => {
                return Err(RequestError::PrecisionConflict.into());
            }
            _ => pinned = Some(pin),
        }
    }
    Ok(match pinned {
        Some(p) => p,
        None => {
            if configured == Precision::F64 && has_mirror {
                Precision::F32Rescore
            } else {
                configured
            }
        }
    })
}

/// Cloneable, thread-safe handle to a shared [`FeedbackBypass`] module.
#[derive(Clone)]
pub struct SharedBypass {
    inner: Arc<RwLock<FeedbackBypass>>,
}

impl SharedBypass {
    /// Wrap a module for sharing.
    pub fn new(bypass: FeedbackBypass) -> Self {
        SharedBypass {
            inner: Arc::new(RwLock::new(bypass)),
        }
    }

    /// The multi-query scan a serving front-end should hand to
    /// [`Self::knn_batch`]: mode Auto, **f32-rescore precision** — when
    /// the collection carries its f32 mirror
    /// ([`Collection::ensure_f32_mirror`]), every coalesced pass streams
    /// half the bytes and still returns results identical to the pure
    /// f64 scan (without a mirror this is exactly the f64 scan), so the
    /// serving layer opts in unconditionally.
    pub fn serving_scan(coll: &Collection) -> MultiQueryScan<'_> {
        MultiQueryScan::new(coll).with_precision(Precision::F32Rescore)
    }

    /// Predict under a read lock (concurrent with other predictions).
    pub fn predict(&self, q: &[f64]) -> Result<PredictedParams> {
        self.inner.read().predict(q)
    }

    /// Predict for a batch of queries under **one** read lock — the
    /// coalesced form for serving many sessions' predictions at once
    /// (one lock acquisition instead of one per session).
    pub fn predict_batch(&self, queries: &[Vec<f64>]) -> Result<Vec<PredictedParams>> {
        let guard = self.inner.read();
        queries.iter().map(|q| guard.predict(q)).collect()
    }

    /// The scan precision one coalesced pass will actually run at —
    /// **the** fallback rule of the serving layer, in priority order:
    ///
    /// 1. A request carrying [`KnnRequest::precision`] pins the pass.
    ///    All pinned requests in the batch must agree; mixing pins is a
    ///    [`BypassError::BadQuery`] (one pass streams one buffer).
    /// 2. A scan configured with [`Precision::F32Rescore`] keeps it.
    /// 3. A scan left at the [`Precision::F64`] default is **upgraded**
    ///    to `F32Rescore` when the collection carries its f32 mirror —
    ///    the same rule [`Self::serving_scan`] applies. Results are
    ///    identical in both precisions, so a caller who built the mirror
    ///    but constructed the scan themselves no longer silently pays
    ///    full-width streaming; forcing the single-phase f64 pass on a
    ///    mirrored collection takes an explicit per-request pin.
    ///
    /// (`F32Rescore` without a mirror, or for a distance class without
    /// f32 kernels, transparently degrades to the f64 path inside the
    /// scan — requesting it is always safe.)
    pub fn effective_precision(
        scan: &MultiQueryScan<'_>,
        requests: &[KnnRequest],
    ) -> Result<Precision> {
        resolve_precision(
            scan.precision(),
            scan.collection().has_f32_mirror(),
            requests.iter().map(|r| r.precision),
        )
    }

    /// Serve a batch of [`QuerySpec`]s in **one** multi-query block
    /// pass: lower every spec through the single canonicalization step
    /// ([`QuerySpec::lower`] — Rocchio-derive the anchor from its
    /// example sets, default the metric) and hand the lowered batch to
    /// [`Self::knn_batch_lowered`]. Because lowering happens *before*
    /// the scan, a multi-example spec answers bit-identical to a flat
    /// [`LinearScan`](fbp_vecdb::LinearScan) against its derived anchor
    /// — the same invariant the plain-anchor path always had.
    pub fn knn_batch(
        &self,
        scan: &MultiQueryScan<'_>,
        specs: &[QuerySpec],
        k: usize,
    ) -> Result<Vec<Vec<Neighbor>>> {
        let lowered: Vec<KnnRequest> = specs.iter().map(|s| s.lower().into_request()).collect();
        self.knn_batch_lowered(scan, &lowered, k)
    }

    /// Serve pre-lowered k-NN requests in **one** multi-query block
    /// pass over `scan`'s collection, returning each request's
    /// neighbors in request order (bit-identical to serving each request
    /// with its own single-query scan). `k` is the batch-wide default
    /// result count; a request carrying its own [`KnnRequest::k`]
    /// overrides it for that request only, still inside the same pass.
    /// The pass precision follows [`Self::effective_precision`] — the
    /// scan's configured precision is a floor, not a pin: a mirrored
    /// collection is served `F32Rescore` unless a request pins `F64`.
    ///
    /// Requests whose weight vectors are all identical — typically every
    /// session's first iteration, before feedback diverges the metrics —
    /// take the shared-metric kernels (one kernel call per block);
    /// otherwise each request keeps its own learned metric and the pass
    /// rides the per-query-weight multi kernels. The [`QueryBatch`]
    /// decides; this front-end only builds it.
    pub fn knn_batch_lowered(
        &self,
        scan: &MultiQueryScan<'_>,
        requests: &[KnnRequest],
        k: usize,
    ) -> Result<Vec<Vec<Neighbor>>> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let coll = scan.collection();
        if coll.is_empty() {
            return Ok(vec![Vec::new(); requests.len()]);
        }
        let prep = prepare_requests(coll.dim(), requests, k)?;
        let scan = scan.with_precision(Self::effective_precision(scan, requests)?);
        Ok(prep.scan(requests, |batch| scan.knn(batch)))
    }

    /// Insert under a write lock.
    pub fn insert(&self, q: &[f64], qopt: &[f64], weights: &[f64]) -> Result<InsertOutcome> {
        self.inner.write().insert(q, qopt, weights)
    }

    /// Snapshot statistics: `(stored points, tree nodes, tree depth)`.
    pub fn stats(&self) -> (u64, usize, usize) {
        let guard = self.inner.read();
        let shape = guard.tree().shape();
        (shape.stored_points, shape.node_count, shape.depth)
    }

    /// Serialize the current state (read lock held for the duration).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.inner.read().to_bytes()
    }

    /// Run `f` with read access to the module.
    pub fn with_read<T>(&self, f: impl FnOnce(&FeedbackBypass) -> T) -> T {
        f(&self.inner.read())
    }

    /// Swap in a replacement module wholesale (write lock held for the
    /// swap) — what a server does with a client's `RestoreModule`
    /// image: the deserialized copy is installed atomically, so every
    /// session admitted afterwards predicts from the restored state.
    pub fn replace(&self, bypass: FeedbackBypass) {
        *self.inner.write() = bypass;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BypassConfig;

    fn hist(vals: &[f64]) -> Vec<f64> {
        let s: f64 = vals.iter().sum();
        vals.iter().map(|v| v / s).collect()
    }

    #[test]
    fn concurrent_predict_and_insert() {
        let fb = FeedbackBypass::for_histograms(4, BypassConfig::default()).unwrap();
        let shared = SharedBypass::new(fb);
        let mut handles = Vec::new();
        // Writers insert distinct points; readers predict continuously.
        for t in 0..4 {
            let s = shared.clone();
            handles.push(std::thread::spawn(move || {
                let base = 0.1 + 0.15 * t as f64;
                let q = hist(&[base, 0.3, 0.3, 0.4 - base / 2.0]);
                let qopt = hist(&[base + 0.05, 0.25, 0.3, 0.4 - base / 2.0]);
                for _ in 0..50 {
                    s.insert(&q, &qopt, &[2.0, 1.0, 1.0, 0.5]).unwrap();
                    s.predict(&q).unwrap();
                }
            }));
        }
        for t in 0..4 {
            let s = shared.clone();
            handles.push(std::thread::spawn(move || {
                let q = hist(&[0.2 + 0.01 * t as f64, 0.3, 0.25, 0.25]);
                for _ in 0..200 {
                    let p = s.predict(&q).unwrap();
                    assert!(p.weights.iter().all(|&w| w > 0.0));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (stored, nodes, depth) = shared.stats();
        assert!(stored >= 1);
        assert!(nodes >= 1);
        assert!(depth >= 1);
        // State survives serialization after concurrent mutation.
        let img = shared.to_bytes();
        let back = FeedbackBypass::from_bytes(&img).unwrap();
        assert_eq!(back.tree().stored_points(), stored);
    }

    #[test]
    fn with_read_exposes_module() {
        let fb = FeedbackBypass::for_histograms(3, BypassConfig::default()).unwrap();
        let shared = SharedBypass::new(fb);
        let dim = shared.with_read(|m| m.feature_dim());
        assert_eq!(dim, 3);
    }

    #[test]
    fn predict_batch_matches_individual_predictions() {
        let fb = FeedbackBypass::for_histograms(4, BypassConfig::default()).unwrap();
        let shared = SharedBypass::new(fb);
        let q1 = hist(&[0.4, 0.3, 0.2, 0.1]);
        shared
            .insert(&q1, &hist(&[0.5, 0.25, 0.15, 0.1]), &[2.0, 1.0, 1.0, 0.5])
            .unwrap();
        let queries = vec![q1.clone(), hist(&[0.25, 0.25, 0.25, 0.25])];
        let batch = shared.predict_batch(&queries).unwrap();
        assert_eq!(batch.len(), 2);
        for (q, p) in queries.iter().zip(batch.iter()) {
            let single = shared.predict(q).unwrap();
            assert_eq!(p.point, single.point);
            assert_eq!(p.weights, single.weights);
        }
    }

    mod knn_batch {
        use super::*;
        use fbp_vecdb::{
            CollectionBuilder, KnnEngine, LinearScan, MultiQueryScan, ScanMode, WeightedEuclidean,
        };

        fn collection() -> fbp_vecdb::Collection {
            let mut b = CollectionBuilder::new();
            for i in 0..300 {
                let x = (i as f64 * 0.37).sin().abs();
                let y = (i as f64 * 0.73).cos().abs();
                let z = ((i % 17) as f64) / 17.0;
                b.push_unlabelled(&[x, y, z]).unwrap();
            }
            b.build()
        }

        fn shared() -> SharedBypass {
            let fb = FeedbackBypass::for_histograms(3, BypassConfig::default()).unwrap();
            SharedBypass::new(fb)
        }

        #[test]
        fn uniform_requests_match_individual_scans() {
            let coll = collection();
            let scan = MultiQueryScan::with_mode(&coll, ScanMode::Batched);
            let requests: Vec<KnnRequest> = (0..4)
                .map(|i| KnnRequest::uniform(vec![0.1 * i as f64, 0.5, 0.3]))
                .collect();
            let batch = shared().knn_batch_lowered(&scan, &requests, 10).unwrap();
            let single = LinearScan::with_mode(&coll, ScanMode::Batched);
            for (req, res) in requests.iter().zip(batch.iter()) {
                let w = WeightedEuclidean::new(req.weights.clone()).unwrap();
                assert_eq!(res, &single.knn(&req.point, 10, &w));
            }
        }

        #[test]
        fn diverged_metrics_match_individual_scans() {
            let coll = collection();
            let scan = MultiQueryScan::with_mode(&coll, ScanMode::Batched);
            let requests = vec![
                KnnRequest {
                    point: vec![0.2, 0.4, 0.6],
                    weights: vec![3.0, 1.0, 0.5],
                    k: None,
                    precision: None,
                },
                KnnRequest {
                    point: vec![0.8, 0.1, 0.3],
                    weights: vec![0.25, 2.0, 1.5],
                    k: None,
                    precision: None,
                },
            ];
            let batch = shared().knn_batch_lowered(&scan, &requests, 7).unwrap();
            let single = LinearScan::with_mode(&coll, ScanMode::Batched);
            for (req, res) in requests.iter().zip(batch.iter()) {
                let w = WeightedEuclidean::new(req.weights.clone()).unwrap();
                assert_eq!(res, &single.knn(&req.point, 7, &w));
            }
        }

        #[test]
        fn bad_weights_are_rejected() {
            let coll = collection();
            let scan = MultiQueryScan::new(&coll);
            let requests = vec![KnnRequest {
                point: vec![0.1, 0.2, 0.3],
                weights: vec![1.0, -1.0, 0.0],
                k: None,
                precision: None,
            }];
            assert!(shared().knn_batch_lowered(&scan, &requests, 5).is_err());
        }

        #[test]
        fn dim_mismatches_error_instead_of_panicking() {
            let coll = collection();
            let scan = MultiQueryScan::new(&coll);
            let short_point = vec![KnnRequest::uniform(vec![0.1, 0.2])];
            assert!(matches!(
                shared().knn_batch_lowered(&scan, &short_point, 5),
                Err(crate::BypassError::DimMismatch {
                    expected: 3,
                    got: 2
                })
            ));
            let short_weights = vec![KnnRequest {
                point: vec![0.1, 0.2, 0.3],
                weights: vec![1.0, 2.0],
                k: None,
                precision: None,
            }];
            assert!(matches!(
                shared().knn_batch_lowered(&scan, &short_weights, 5),
                Err(crate::BypassError::DimMismatch {
                    expected: 3,
                    got: 2
                })
            ));
        }

        #[test]
        fn mixed_per_request_k_in_one_pass() {
            let coll = collection();
            let scan = MultiQueryScan::with_mode(&coll, ScanMode::Batched);
            let single = LinearScan::with_mode(&coll, ScanMode::Batched);
            // Shared metric (all uniform weights), k ∈ {1, 10, 50} plus
            // one request deferring to the batch default.
            let requests = vec![
                KnnRequest::uniform(vec![0.1, 0.5, 0.3]).with_k(1),
                KnnRequest::uniform(vec![0.4, 0.2, 0.8]).with_k(10),
                KnnRequest::uniform(vec![0.9, 0.6, 0.1]).with_k(50),
                KnnRequest::uniform(vec![0.3, 0.3, 0.3]),
            ];
            let batch = shared().knn_batch_lowered(&scan, &requests, 7).unwrap();
            let expected_k = [1usize, 10, 50, 7];
            for ((req, res), &k) in requests.iter().zip(batch.iter()).zip(expected_k.iter()) {
                assert_eq!(res.len(), k, "per-request k not honored");
                let w = WeightedEuclidean::new(req.weights.clone()).unwrap();
                assert_eq!(res, &single.knn(&req.point, k, &w));
            }
            // Diverged metrics exercise the per-query-metric path.
            let requests = vec![
                KnnRequest {
                    point: vec![0.2, 0.4, 0.6],
                    weights: vec![3.0, 1.0, 0.5],
                    k: Some(1),
                    precision: None,
                },
                KnnRequest {
                    point: vec![0.8, 0.1, 0.3],
                    weights: vec![0.25, 2.0, 1.5],
                    k: Some(50),
                    precision: None,
                },
            ];
            let batch = shared().knn_batch_lowered(&scan, &requests, 7).unwrap();
            for (req, res) in requests.iter().zip(batch.iter()) {
                let k = req.k.unwrap();
                assert_eq!(res.len(), k);
                let w = WeightedEuclidean::new(req.weights.clone()).unwrap();
                assert_eq!(res, &single.knn(&req.point, k, &w));
            }
        }

        #[test]
        fn empty_collection_serves_empty_results() {
            let empty = CollectionBuilder::new().build();
            let scan = MultiQueryScan::new(&empty);
            let requests = vec![KnnRequest::uniform(vec![0.1, 0.2, 0.3])];
            let res = shared().knn_batch_lowered(&scan, &requests, 5).unwrap();
            assert_eq!(res, vec![Vec::new()]);
        }

        #[test]
        fn serving_scan_uses_mirror_and_matches_f64() {
            let mut coll = collection();
            let requests = vec![
                KnnRequest::uniform(vec![0.2, 0.4, 0.6]),
                KnnRequest {
                    point: vec![0.8, 0.1, 0.3],
                    weights: vec![0.25, 2.0, 1.5],
                    k: Some(5),
                    precision: None,
                },
            ];
            // Without a mirror the serving scan is exactly the f64 scan.
            let baseline = {
                let scan = MultiQueryScan::with_mode(&coll, ScanMode::Batched);
                shared().knn_batch_lowered(&scan, &requests, 10).unwrap()
            };
            coll.ensure_f32_mirror();
            let scan = SharedBypass::serving_scan(&coll);
            assert_eq!(scan.precision(), fbp_vecdb::Precision::F32Rescore);
            let served = shared().knn_batch_lowered(&scan, &requests, 10).unwrap();
            assert_eq!(served, baseline);
        }

        #[test]
        fn effective_precision_fallback_rule() {
            let mut coll = collection();
            let reqs = vec![KnnRequest::uniform(vec![0.1, 0.5, 0.3])];
            // No mirror, default scan → F64 (nothing to upgrade to).
            {
                let scan = MultiQueryScan::new(&coll);
                assert_eq!(
                    SharedBypass::effective_precision(&scan, &reqs).unwrap(),
                    Precision::F64
                );
            }
            coll.ensure_f32_mirror();
            let scan = MultiQueryScan::new(&coll);
            // Mirror + unpinned F64-default scan → upgraded to F32Rescore
            // (the serving_scan rule, now applied by knn_batch itself).
            assert_eq!(
                SharedBypass::effective_precision(&scan, &reqs).unwrap(),
                Precision::F32Rescore
            );
            // An explicit per-request pin beats the mirror upgrade.
            let pinned =
                vec![KnnRequest::uniform(vec![0.1, 0.5, 0.3]).with_precision(Precision::F64)];
            assert_eq!(
                SharedBypass::effective_precision(&scan, &pinned).unwrap(),
                Precision::F64
            );
            // Conflicting pins cannot share one pass.
            let mixed = vec![
                KnnRequest::uniform(vec![0.1, 0.5, 0.3]).with_precision(Precision::F64),
                KnnRequest::uniform(vec![0.4, 0.2, 0.8]).with_precision(Precision::F32Rescore),
            ];
            assert!(SharedBypass::effective_precision(&scan, &mixed).is_err());
            assert!(shared().knn_batch_lowered(&scan, &mixed, 5).is_err());
            // The upgraded pass answers bit-identically to the pinned
            // f64 pass (precision is a bandwidth knob, not a result knob).
            let upgraded = shared().knn_batch_lowered(&scan, &reqs, 10).unwrap();
            let forced_f64 = shared().knn_batch_lowered(&scan, &pinned, 10).unwrap();
            assert_eq!(upgraded, forced_f64);
        }

        #[test]
        fn empty_request_batch() {
            let coll = collection();
            let scan = MultiQueryScan::new(&coll);
            assert!(shared()
                .knn_batch_lowered(&scan, &[], 5)
                .unwrap()
                .is_empty());
        }
    }
}
