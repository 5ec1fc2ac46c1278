//! Exhaustive linear scan: the correctness baseline, and the engine of
//! choice when the query metric changes every iteration (no index to
//! invalidate, perfectly sequential memory traffic).
//!
//! Three execution paths agree on results: Batched and Parallel are
//! bit-identical to each other (same kernels, deterministic merge);
//! Scalar produces the same ranking with distances matching to ~1e-12
//! (its reference implementation accumulates sequentially, the kernels
//! 8-wide, so last-ulp rounding may differ — and, for `range`, boundary
//! membership of a candidate sitting exactly on the radius can differ
//! between Scalar and the key-space modes by that same ulp):
//!
//! * [`ScanMode::Scalar`] — one `dyn Distance::eval` per vector, a `sqrt`
//!   per candidate. Kept in-tree as the reference the kernel paths are
//!   pinned against (`tests/scan_paths_consistency.rs`).
//! * [`ScanMode::Batched`] — blocks of [`BLOCK_ROWS`] vectors go through
//!   [`Distance::eval_key_batch`]: one virtual call per block, surrogate
//!   keys instead of distances (no `sqrt`), early abandonment against the
//!   running k-best threshold inside the kernel. Only the final `k`
//!   winners pay [`Distance::finish_key`].
//! * [`ScanMode::Parallel`] — the batched path fanned out over worker
//!   threads in contiguous chunks, each with a private k-best; the
//!   per-thread results merge by ascending `(key, index)`, so the answer
//!   is deterministic regardless of thread count or scheduling.
//!
//! [`ScanMode::Auto`] (the default) decides per contiguous row range —
//! the collection's rows here; the flat rows or one surviving partition
//! in the multi-query scan — running the range
//! Batched below [`PARALLEL_CUTOFF`] `rows × dim × queries` and
//! Parallel at or above it.
//!
//! Orthogonally, [`LinearScan::with_precision`] selects
//! [`Precision::F32Rescore`]: the kernel-path modes then run their
//! phase-1 filter over the collection's f32 mirror (half the scan bytes
//! — the dominant cost on a bandwidth-bound host) and rescore the
//! surviving candidates in f64, returning results identical to the pure
//! f64 scan. This covers `range` queries too: phase 1 filters against
//! the radius bound `B` inflated to `B + Δ(B)` by the class's rounding
//! bound, phase 2
//! re-applies the exact bound, so membership on the radius boundary is
//! decided by the same f64 kernel keys as the single-phase scan. Scalar
//! mode deliberately ignores the knob — it *is* the reference the other
//! paths are pinned against.

use super::{
    f32_bound_up, KBest, KeyBand, KnnEngine, MultiQueryScan, Neighbor, Precision, QueryBatch,
    QueryMetrics, ScanConfig, SearchStats, BLOCK_ROWS,
};
use crate::collection::Collection;
use crate::distance::Distance;

/// Execution strategy for [`LinearScan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanMode {
    /// Pick [`ScanMode::Batched`] or [`ScanMode::Parallel`] for each
    /// contiguous row range a pass scans (a flat collection, a surviving
    /// partition) by that range's own
    /// `rows × dim × queries` work.
    #[default]
    Auto,
    /// Per-vector `dyn` dispatch with a `sqrt` per candidate (baseline).
    Scalar,
    /// Blocked surrogate-key kernels, single-threaded.
    Batched,
    /// Blocked surrogate-key kernels across worker threads.
    Parallel,
}

/// Linear-scan engine borrowing a collection.
#[derive(Debug, Clone, Copy)]
pub struct LinearScan<'a> {
    coll: &'a Collection,
    cfg: ScanConfig<'a>,
}

impl<'a> LinearScan<'a> {
    /// New scan engine over `coll` with [`ScanMode::Auto`].
    pub fn new(coll: &'a Collection) -> Self {
        Self::with_mode(coll, ScanMode::Auto)
    }

    /// New scan engine with an explicit execution mode.
    pub fn with_mode(coll: &'a Collection, mode: ScanMode) -> Self {
        LinearScan {
            coll,
            cfg: ScanConfig::with_mode(mode),
        }
    }

    /// Select the scan precision. [`Precision::F32Rescore`] silently
    /// degrades to the f64 path when the collection has no mirror, the
    /// distance class exposes no f32 kernel, or the mode is Scalar —
    /// results are identical in every case.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.cfg.precision = precision;
        self
    }

    /// Cap the parallel path at `threads` worker threads (at least 1)
    /// instead of the machine's full parallelism. Callers that already
    /// run scans from several of their own threads (the `fbp-eval`
    /// sweeps) set this to `available / own_threads` so nested
    /// parallelism does not oversubscribe the host.
    pub fn with_thread_budget(mut self, threads: usize) -> Self {
        self.cfg.thread_budget = Some(threads.max(1));
        self
    }

    /// The mode Auto resolves to for this collection.
    fn effective_mode(&self) -> ScanMode {
        self.cfg.effective_mode(self.coll.len(), self.coll.dim(), 1)
    }

    /// Baseline path: one virtual `eval` (with its `sqrt`) per vector.
    fn knn_scalar(&self, query: &[f64], k: usize, dist: &dyn Distance) -> Vec<Neighbor> {
        let mut kb = KBest::new(k);
        for i in 0..self.coll.len() {
            kb.push(i as u32, dist.eval(query, self.coll.vector(i)));
        }
        kb.into_sorted()
    }

    /// Batched path: blocks through the key kernel, surrogate keys into
    /// one k-best, only the winners pay `finish_key`.
    fn knn_batched(&self, query: &[f64], k: usize, dist: &dyn Distance) -> Vec<Neighbor> {
        let dim = self.coll.dim();
        let mut kb = KBest::new(k);
        let mut keys = [0.0f64; BLOCK_ROWS];
        let mut start = 0;
        while start < self.coll.len() {
            let end = (start + BLOCK_ROWS).min(self.coll.len());
            let n = end - start;
            let block = self.coll.block(start, end);
            dist.eval_key_batch(query, block, dim, kb.threshold(), &mut keys[..n]);
            for (offset, &key) in keys[..n].iter().enumerate() {
                kb.push((start + offset) as u32, key);
            }
            start = end;
        }
        kb.into_sorted_with(|key| dist.finish_key(key))
    }

    /// The parallel path — and the two-phase f32-rescore path in either
    /// kernel mode — is the single-query case of the multi-query scan:
    /// delegating keeps the subtle fan-out/merge and phase-1/phase-2
    /// logic (chunking, per-thread k-bests, inflated-bound candidate
    /// collection, the exact rescore) in one place. For one query the
    /// multi kernels compute the exact same keys, so results stay
    /// bit-identical to [`Self::knn_batched`].
    fn knn_via_multi(
        &self,
        query: &[f64],
        k: usize,
        dist: &dyn Distance,
        mode: ScanMode,
    ) -> Vec<Neighbor> {
        let cfg = ScanConfig { mode, ..self.cfg };
        MultiQueryScan::with_config(self.coll.into(), cfg)
            .knn(&QueryBatch::new(&[query], QueryMetrics::Shared(dist), k))
            .pop()
            .unwrap_or_default()
    }

    /// The containment band of an f32 phase-1 under `dist`, when every
    /// precondition for a two-phase range scan holds — the multi-query
    /// scan's rule, for a batch of this one query.
    fn f32_band(&self, dist: &dyn Distance, query: &[f64]) -> Option<KeyBand> {
        MultiQueryScan::with_config(self.coll.into(), self.cfg)
            .f32_bands(&QueryBatch::new(&[query], QueryMetrics::Shared(dist), 0))?
            .pop()
    }

    /// Two-phase range scan: phase 1 streams the f32 mirror collecting
    /// every row whose f32 key lands under the radius bound `B` inflated
    /// to `B + Δ(B)` ([`KeyBand::inflate`]), phase 2 gather-rescores the
    /// candidates with the exact f64 batch kernel and applies the
    /// *uninflated* key bound — results (membership, indices, distances)
    /// identical to the single-phase f64 pass.
    ///
    /// Why the forward inflation alone suffices (the k-NN paths also need
    /// the reverse bound for their running threshold): the range bound
    /// `B = key_of_dist(radius)` is fixed and exact. Every row obeys
    /// `|key32 − key64| ≤ Δ(key64)` with `Δ` monotone, so a true member
    /// (`key64 ≤ B`) always has `key32 ≤ B + Δ(B)`; its monotone f32
    /// prefix sums never exceed its final `key32`, so the kernel cannot
    /// abandon it and the filter admits it into the candidate pool.
    fn range_f32_rescore(
        &self,
        query: &[f64],
        radius: f64,
        dist: &dyn Distance,
        band: &KeyBand,
    ) -> Vec<Neighbor> {
        let dim = self.coll.dim();
        let bound = dist.key_of_dist(radius);
        let inflated = band.inflate(bound);
        let inflated32 = f32_bound_up(inflated);
        let q32: Vec<f32> = query.iter().map(|&v| v as f32).collect();

        // A range result set is unbounded — once a large share of the
        // collection passes the phase-1 filter, the gather-rescore costs
        // more than the single-phase f64 scan would have, so bail to it.
        // (The partial phase 1 is wasted, but it is at most half the f64
        // pass's bytes.)
        let candidate_cap = self.coll.len() / 4;

        // Phase 1: f32 filter over the mirror.
        let mut cands: Vec<u32> = Vec::new();
        let mut keys32 = [0.0f32; BLOCK_ROWS];
        let mut start = 0;
        while start < self.coll.len() {
            let end = (start + BLOCK_ROWS).min(self.coll.len());
            let n = end - start;
            let block = self
                .coll
                .block_f32(start, end)
                .expect("f32 path requires the mirror");
            dist.eval_key_batch_f32(&q32, block, dim, inflated32, &mut keys32[..n]);
            for (offset, &key) in keys32[..n].iter().enumerate() {
                if (key as f64) <= inflated {
                    cands.push((start + offset) as u32);
                }
            }
            if cands.len() > candidate_cap {
                return self.range_f64_keyspace(query, radius, dist);
            }
            start = end;
        }

        // Phase 2: exact f64 rescore of the candidates, uninflated bound.
        let mut out = Vec::new();
        if dim == 0 {
            return out;
        }
        let mut rows = vec![0.0f64; BLOCK_ROWS * dim];
        let mut keys = [0.0f64; BLOCK_ROWS];
        for chunk in cands.chunks(BLOCK_ROWS) {
            let n = chunk.len();
            for (slot, &i) in rows.chunks_exact_mut(dim).zip(chunk.iter()) {
                slot.copy_from_slice(self.coll.vector(i as usize));
            }
            dist.eval_key_batch(query, &rows[..n * dim], dim, bound, &mut keys[..n]);
            for (&i, &key) in chunk.iter().zip(keys.iter()) {
                if key <= bound {
                    out.push(Neighbor {
                        index: i,
                        dist: dist.finish_key(key),
                    });
                }
            }
        }
        out.sort_unstable_by(Neighbor::total_cmp);
        out
    }

    /// Single-phase key-space range scan over the f64 buffer:
    /// `d ≤ r ⇔ key ≤ key_of_dist(r)`; abandoned rows come back `+∞`
    /// and can never pass the bound.
    fn range_f64_keyspace(&self, query: &[f64], radius: f64, dist: &dyn Distance) -> Vec<Neighbor> {
        let dim = self.coll.dim();
        let bound = dist.key_of_dist(radius);
        let mut out = Vec::new();
        let mut keys = [0.0f64; BLOCK_ROWS];
        let mut start = 0;
        while start < self.coll.len() {
            let end = (start + BLOCK_ROWS).min(self.coll.len());
            let n = end - start;
            let block = self.coll.block(start, end);
            dist.eval_key_batch(query, block, dim, bound, &mut keys[..n]);
            for (offset, &key) in keys[..n].iter().enumerate() {
                if key <= bound {
                    out.push(Neighbor {
                        index: (start + offset) as u32,
                        dist: dist.finish_key(key),
                    });
                }
            }
            start = end;
        }
        out.sort_unstable_by(Neighbor::total_cmp);
        out
    }
}

impl KnnEngine for LinearScan<'_> {
    /// `k` is clamped to the collection (`k` larger than it returns
    /// every row), so no caller-supplied `k` ever sizes a heap.
    fn knn(&self, query: &[f64], k: usize, dist: &dyn Distance) -> Vec<Neighbor> {
        let k = k.min(self.coll.len());
        match (self.effective_mode(), self.cfg.precision) {
            (ScanMode::Scalar, _) => self.knn_scalar(query, k, dist),
            (ScanMode::Batched, Precision::F64) => self.knn_batched(query, k, dist),
            (mode, _) => self.knn_via_multi(query, k, dist, mode),
        }
    }

    fn knn_with_stats(
        &self,
        query: &[f64],
        k: usize,
        dist: &dyn Distance,
    ) -> (Vec<Neighbor>, SearchStats) {
        (
            self.knn(query, k, dist),
            SearchStats {
                distance_evals: self.coll.len() as u64,
            },
        )
    }

    fn range(&self, query: &[f64], radius: f64, dist: &dyn Distance) -> Vec<Neighbor> {
        let mut out = Vec::new();
        if self.effective_mode() == ScanMode::Scalar {
            for i in 0..self.coll.len() {
                let d = dist.eval(query, self.coll.vector(i));
                if d <= radius {
                    out.push(Neighbor {
                        index: i as u32,
                        dist: d,
                    });
                }
            }
        } else if let Some(band) = self.f32_band(dist, query) {
            // Two-phase mirror scan: f32 filter under the inflated radius
            // bound, exact f64 rescore of the candidates (bails back to
            // the single-phase pass for bulky result sets).
            return self.range_f32_rescore(query, radius, dist, &band);
        } else {
            return self.range_f64_keyspace(query, radius, dist);
        }
        out.sort_unstable_by(Neighbor::total_cmp);
        out
    }

    fn name(&self) -> &str {
        "linear-scan"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::CollectionBuilder;
    use crate::distance::{Euclidean, WeightedEuclidean};

    fn grid_collection() -> Collection {
        let mut b = CollectionBuilder::new();
        for x in 0..5 {
            for y in 0..5 {
                b.push_unlabelled(&[x as f64, y as f64]).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn knn_finds_nearest_grid_points() {
        let c = grid_collection();
        let scan = LinearScan::new(&c);
        let res = scan.knn(&[0.1, 0.1], 3, &Euclidean);
        assert_eq!(res.len(), 3);
        // Closest is (0,0), then (1,0) and (0,1) (tie).
        assert_eq!(res[0].index, 0);
        assert!((res[0].dist - (0.02f64).sqrt()).abs() < 1e-12);
        let next: Vec<u32> = res[1..].iter().map(|n| n.index).collect();
        assert!(next.contains(&1) || next.contains(&5));
    }

    #[test]
    fn k_larger_than_collection() {
        let c = grid_collection();
        let scan = LinearScan::new(&c);
        let res = scan.knn(&[0.0, 0.0], 100, &Euclidean);
        assert_eq!(res.len(), 25);
        // Sorted ascending.
        for w in res.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn k_zero_is_empty() {
        let c = grid_collection();
        let scan = LinearScan::new(&c);
        assert!(scan.knn(&[0.0, 0.0], 0, &Euclidean).is_empty());
    }

    #[test]
    fn weighted_metric_changes_ranking() {
        let mut b = CollectionBuilder::new();
        b.push_unlabelled(&[1.0, 0.0]).unwrap(); // index 0
        b.push_unlabelled(&[0.0, 1.1]).unwrap(); // index 1
        let c = b.build();
        let scan = LinearScan::new(&c);
        // Euclidean: point 0 is closer to origin.
        let r1 = scan.knn(&[0.0, 0.0], 1, &Euclidean);
        assert_eq!(r1[0].index, 0);
        // Heavy weight on x flips the ranking.
        let w = WeightedEuclidean::new(vec![100.0, 1.0]).unwrap();
        let r2 = scan.knn(&[0.0, 0.0], 1, &w);
        assert_eq!(r2[0].index, 1);
    }

    #[test]
    fn range_query_inclusive() {
        let c = grid_collection();
        let scan = LinearScan::new(&c);
        let res = scan.range(&[0.0, 0.0], 1.0, &Euclidean);
        // (0,0), (1,0), (0,1) at distances 0, 1, 1.
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].dist, 0.0);
        assert_eq!(res[1].dist, 1.0);
    }

    #[test]
    fn stats_count_all_evals() {
        let c = grid_collection();
        let scan = LinearScan::new(&c);
        let (_, stats) = scan.knn_with_stats(&[0.0, 0.0], 2, &Euclidean);
        assert_eq!(stats.distance_evals, 25);
    }

    fn pseudo_random_collection(n: usize, dim: usize) -> Collection {
        // LCG-based filler: deterministic, no dev-dependency needed here.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut b = CollectionBuilder::new();
        for _ in 0..n {
            let v: Vec<f64> = (0..dim).map(|_| next()).collect();
            b.push_unlabelled(&v).unwrap();
        }
        b.build()
    }

    #[test]
    fn all_modes_agree() {
        let c = pseudo_random_collection(1500, 48);
        let q: Vec<f64> = (0..48).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        let w: Vec<f64> = (0..48).map(|i| 0.2 + (i % 7) as f64).collect();
        let weighted = WeightedEuclidean::new(w).unwrap();
        for k in [1, 7, 50] {
            let scalar = LinearScan::with_mode(&c, ScanMode::Scalar).knn(&q, k, &weighted);
            let batched = LinearScan::with_mode(&c, ScanMode::Batched).knn(&q, k, &weighted);
            let parallel = LinearScan::with_mode(&c, ScanMode::Parallel).knn(&q, k, &weighted);
            // The scalar reference accumulates sequentially, the key
            // kernels 8-wide: same ranking, distances to 1e-12.
            assert_eq!(scalar.len(), batched.len(), "k={k}");
            for (a, b) in scalar.iter().zip(batched.iter()) {
                assert_eq!(a.index, b.index, "k={k}");
                assert!((a.dist - b.dist).abs() <= 1e-12, "k={k}");
            }
            // Batched and parallel share the exact same kernels: the
            // merge is deterministic, results bit-identical.
            assert_eq!(batched, parallel, "k={k}");
        }
        // Range queries agree across modes too (same tolerance contract).
        let r_scalar = LinearScan::with_mode(&c, ScanMode::Scalar).range(&q, 4.0, &weighted);
        let r_batched = LinearScan::with_mode(&c, ScanMode::Batched).range(&q, 4.0, &weighted);
        assert_eq!(r_scalar.len(), r_batched.len());
        for (a, b) in r_scalar.iter().zip(r_batched.iter()) {
            assert_eq!(a.index, b.index);
            assert!((a.dist - b.dist).abs() <= 1e-12);
        }
    }

    #[test]
    fn auto_mode_picks_by_size() {
        let small = pseudo_random_collection(10, 4);
        assert_eq!(LinearScan::new(&small).effective_mode(), ScanMode::Batched);
        // 32 Ki rows × 32 is the cutoff: one row fewer stays Batched.
        let below = pseudo_random_collection(32 * 1024 - 1, 32);
        assert_eq!(LinearScan::new(&below).effective_mode(), ScanMode::Batched);
        let large = pseudo_random_collection(32 * 1024, 32);
        assert_eq!(LinearScan::new(&large).effective_mode(), ScanMode::Parallel);
    }

    #[test]
    fn empty_collection_all_modes() {
        let c = CollectionBuilder::new().build();
        for mode in [ScanMode::Scalar, ScanMode::Batched, ScanMode::Parallel] {
            let scan = LinearScan::with_mode(&c, mode);
            assert!(scan.knn(&[], 5, &Euclidean).is_empty());
            assert!(scan.range(&[], 1.0, &Euclidean).is_empty());
        }
    }
}
