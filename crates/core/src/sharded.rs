//! Scatter/gather serving over a sharded collection: the
//! [`SharedBypass::knn_batch`] front-end lifted onto
//! [`ShardedCollection`]/[`ShardedScan`], so one coalesced batch of
//! session requests fans out across per-shard scan passes and the
//! per-query k-bests merge back — bit-identical to the flat pass, and
//! therefore to per-session [`LinearScan`](fbp_vecdb::LinearScan)s.
//!
//! [`ShardedBypass::knn_batch`] validates once, fans the batch out
//! over shard worker threads and gathers inline — what
//! `fbp-eval::sessions` and in-process callers use. Serving stacks that
//! schedule each shard independently (the `fbp-server` per-shard
//! micro-batchers) call [`ShardedScan::scan_shard`] and
//! [`merge_partials`](fbp_vecdb::merge_partials) directly: a
//! [`ShardPartial`](fbp_vecdb::ShardPartial) is the exact local k-best
//! in key space regardless of its batch-mates.
//!
//! The learned-module half (predict / insert / stats) is untouched by
//! sharding — it delegates to the wrapped [`SharedBypass`], one module
//! shared by every shard's sessions.

use crate::bypass::{FeedbackBypass, PredictedParams};
use crate::query::QuerySpec;
use crate::shared::{prepare_requests, resolve_precision, KnnRequest, SharedBypass};
use crate::Result;
use fbp_simplex_tree::InsertOutcome;
use fbp_vecdb::{Neighbor, Precision, ShardedCollection, ShardedScan};

/// Cloneable handle pairing the shared learned module with the
/// scatter/gather serving front-end for sharded collections.
#[derive(Clone)]
pub struct ShardedBypass {
    shared: SharedBypass,
}

impl ShardedBypass {
    /// Wrap a module for sharded serving.
    pub fn new(bypass: FeedbackBypass) -> Self {
        ShardedBypass {
            shared: SharedBypass::new(bypass),
        }
    }

    /// Reuse an existing shared handle (the module state is common to
    /// every serving front-end; sharding only changes the scan side).
    pub fn from_shared(shared: SharedBypass) -> Self {
        ShardedBypass { shared }
    }

    /// The wrapped flat handle (predict/insert/stats live there).
    pub fn shared(&self) -> &SharedBypass {
        &self.shared
    }

    /// The sharded scan a serving front-end should hand to
    /// [`Self::knn_batch`]: mode Auto, f32-rescore precision — the same
    /// unconditional mirror opt-in as [`SharedBypass::serving_scan`],
    /// applied per shard.
    pub fn serving_scan(coll: &ShardedCollection) -> ShardedScan<'_> {
        ShardedScan::new(coll).with_precision(Precision::F32Rescore)
    }

    /// The scan precision every shard pass of one coalesced batch will
    /// run at — the exact [`SharedBypass::effective_precision`] fallback
    /// rule (pins win and must agree; `F32Rescore` sticks; an
    /// `F64`-default scan upgrades when **every** shard carries its
    /// mirror).
    pub fn effective_precision(
        scan: &ShardedScan<'_>,
        requests: &[KnnRequest],
    ) -> Result<Precision> {
        resolve_precision(
            scan.precision(),
            scan.collection().has_f32_mirror(),
            requests.iter().map(|r| r.precision),
        )
    }

    /// Serve a batch of [`QuerySpec`]s with one scatter/gather round:
    /// lower every spec ([`QuerySpec::lower`]) and hand the lowered
    /// batch to [`Self::knn_batch_lowered`] — bit-identical to
    /// [`SharedBypass::knn_batch`] over the unsharded collection, and
    /// therefore to a flat `LinearScan` against each spec's derived
    /// anchor.
    pub fn knn_batch(
        &self,
        scan: &ShardedScan<'_>,
        specs: &[QuerySpec],
        k: usize,
    ) -> Result<Vec<Vec<Neighbor>>> {
        let lowered: Vec<KnnRequest> = specs.iter().map(|s| s.lower().into_request()).collect();
        self.knn_batch_lowered(scan, &lowered, k)
    }

    /// Serve pre-lowered k-NN requests with one scatter/gather round
    /// over `scan`'s shards, returning each request's neighbors in
    /// request order — bit-identical to
    /// [`SharedBypass::knn_batch_lowered`] over the unsharded
    /// collection (and therefore to per-request single-query scans).
    /// `k`, per-request [`KnnRequest::k`], the shared-metric fast path,
    /// and the precision rule all behave exactly as in the flat
    /// front-end.
    pub fn knn_batch_lowered(
        &self,
        scan: &ShardedScan<'_>,
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

    /// Predict under a read lock (delegates to the shared module).
    pub fn predict(&self, q: &[f64]) -> Result<PredictedParams> {
        self.shared.predict(q)
    }

    /// Batched predictions under one read lock.
    pub fn predict_batch(&self, queries: &[Vec<f64>]) -> Result<Vec<PredictedParams>> {
        self.shared.predict_batch(queries)
    }

    /// Insert under a write lock (delegates to the shared module).
    pub fn insert(&self, q: &[f64], qopt: &[f64], weights: &[f64]) -> Result<InsertOutcome> {
        self.shared.insert(q, qopt, weights)
    }

    /// Snapshot statistics: `(stored points, tree nodes, tree depth)`.
    pub fn stats(&self) -> (u64, usize, usize) {
        self.shared.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BypassConfig, KnnRequest};
    use fbp_vecdb::{
        CollectionBuilder, KnnEngine, LinearScan, MultiQueryScan, ScanMode, WeightedEuclidean,
    };

    fn collection() -> fbp_vecdb::Collection {
        let mut b = CollectionBuilder::new().with_f32_mirror();
        for i in 0..400 {
            let x = (i as f64 * 0.37).sin().abs();
            let y = (i as f64 * 0.73).cos().abs();
            let z = ((i % 17) as f64) / 17.0;
            b.push_unlabelled(&[x, y, z]).unwrap();
        }
        b.build()
    }

    fn sharded() -> ShardedBypass {
        let fb = FeedbackBypass::for_histograms(3, BypassConfig::default()).unwrap();
        ShardedBypass::new(fb)
    }

    fn requests() -> Vec<KnnRequest> {
        vec![
            KnnRequest::uniform(vec![0.2, 0.4, 0.6]).with_k(1),
            KnnRequest {
                point: vec![0.8, 0.1, 0.3],
                weights: vec![0.25, 2.0, 1.5],
                k: Some(50),
                precision: None,
            },
            KnnRequest {
                point: vec![0.5, 0.5, 0.2],
                weights: vec![3.0, 1.0, 0.5],
                k: None,
                precision: None,
            },
        ]
    }

    #[test]
    fn sharded_knn_batch_matches_flat_serving_and_linear_scans() {
        let coll = collection();
        let reqs = requests();
        let flat_scan = MultiQueryScan::with_mode(&coll, ScanMode::Batched);
        let flat =
            SharedBypass::new(FeedbackBypass::for_histograms(3, BypassConfig::default()).unwrap())
                .knn_batch_lowered(&flat_scan, &reqs, 7)
                .unwrap();
        for s in [1usize, 3, 400] {
            let sc = ShardedCollection::split(&coll, s);
            let scan = ShardedScan::with_mode(&sc, ScanMode::Batched);
            let batch = sharded().knn_batch_lowered(&scan, &reqs, 7).unwrap();
            assert_eq!(batch, flat, "S={s}");
        }
        // And both match per-request LinearScans (the ground truth).
        let single = LinearScan::with_mode(&coll, ScanMode::Batched);
        for (req, res) in reqs.iter().zip(flat.iter()) {
            let w = WeightedEuclidean::new(req.weights.clone()).unwrap();
            assert_eq!(res, &single.knn(&req.point, req.k.unwrap_or(7), &w));
        }
    }

    #[test]
    fn validation_and_precision_rules_match_flat_front_end() {
        let coll = collection();
        let sc = ShardedCollection::split(&coll, 2);
        let scan = ShardedScan::new(&sc);
        // Mirrored shards upgrade an unpinned default scan.
        let reqs = vec![KnnRequest::uniform(vec![0.1, 0.5, 0.3])];
        assert_eq!(
            ShardedBypass::effective_precision(&scan, &reqs).unwrap(),
            Precision::F32Rescore
        );
        // Conflicting pins cannot share one batch.
        let mixed = vec![
            KnnRequest::uniform(vec![0.1, 0.5, 0.3]).with_precision(Precision::F64),
            KnnRequest::uniform(vec![0.4, 0.2, 0.8]).with_precision(Precision::F32Rescore),
        ];
        assert!(sharded().knn_batch_lowered(&scan, &mixed, 5).is_err());
        // Dim mismatches error instead of panicking.
        let short = vec![KnnRequest::uniform(vec![0.1, 0.2])];
        assert!(matches!(
            sharded().knn_batch_lowered(&scan, &short, 5),
            Err(crate::BypassError::DimMismatch {
                expected: 3,
                got: 2
            })
        ));
        // Bad weights are rejected.
        let bad = vec![KnnRequest {
            point: vec![0.1, 0.2, 0.3],
            weights: vec![1.0, -1.0, 0.0],
            k: None,
            precision: None,
        }];
        assert!(sharded().knn_batch_lowered(&scan, &bad, 5).is_err());
        // Empty batches and empty collections serve trivially.
        assert!(sharded()
            .knn_batch_lowered(&scan, &[], 5)
            .unwrap()
            .is_empty());
        let empty = ShardedCollection::split(&CollectionBuilder::new().build(), 3);
        let escan = ShardedScan::new(&empty);
        assert_eq!(
            sharded().knn_batch_lowered(&escan, &reqs, 5).unwrap(),
            vec![Vec::new()]
        );
    }

    #[test]
    fn module_delegation_reaches_the_shared_state() {
        let by = sharded();
        let q = vec![0.5, 0.3, 0.2];
        by.insert(&q, &[0.45, 0.35, 0.2], &[2.0, 1.0, 0.5]).unwrap();
        let p = by.predict(&q).unwrap();
        assert!(p.weights.iter().all(|&w| w > 0.0));
        let batch = by.predict_batch(std::slice::from_ref(&q)).unwrap();
        assert_eq!(batch[0].point, p.point);
        let (stored, nodes, depth) = by.stats();
        assert!(stored >= 1 && nodes >= 1 && depth >= 1);
        // The flat handle is the same underlying module.
        assert_eq!(by.shared().stats().0, stored);
    }
}
