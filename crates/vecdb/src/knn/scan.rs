//! Exhaustive linear scan: the correctness baseline, and the engine of
//! choice when the query metric changes every iteration (no index to
//! invalidate, perfectly sequential memory traffic).
//!
//! Three execution paths agree on results: Batched and Parallel are
//! bit-identical to each other (same kernels, deterministic merge);
//! Scalar produces the same ranking with distances matching to ~1e-12
//! (its reference implementation accumulates sequentially, the kernels
//! 8-wide, so last-ulp rounding may differ):
//!
//! * [`ScanMode::Scalar`] — one [`Distance::eval`] per vector, a `sqrt`
//!   per candidate. Kept in-tree as the reference the kernel paths are
//!   pinned against (`tests/scan_paths_consistency.rs`).
//! * [`ScanMode::Batched`] — blocks of [`BLOCK_ROWS`] vectors go through
//!   [`Distance::eval_key_batch`]: one kernel call per block, surrogate
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
//! f64 scan. Scalar mode deliberately ignores the knob — it *is* the
//! reference the other paths are pinned against.

use super::{
    KBest, KnnEngine, MultiQueryScan, Neighbor, Precision, QueryBatch, QueryMetrics, ScanConfig,
    SearchStats, BLOCK_ROWS,
};
use crate::collection::Collection;
use crate::distance::{Distance, WeightedEuclidean};

/// Execution strategy for [`LinearScan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanMode {
    /// Pick [`ScanMode::Batched`] or [`ScanMode::Parallel`] for each
    /// contiguous row range a pass scans (a flat collection, a surviving
    /// partition) by that range's own
    /// `rows × dim × queries` work.
    #[default]
    Auto,
    /// One sequentially accumulated `eval` with a `sqrt` per candidate
    /// (baseline).
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
    /// data's magnitude admits no finite f32 rounding bound, or the mode
    /// is Scalar — results are identical in every case.
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

    /// Baseline path: one `eval` (with its `sqrt`) per vector.
    fn knn_scalar(&self, query: &[f64], k: usize, dist: &WeightedEuclidean) -> Vec<Neighbor> {
        let mut kb = KBest::new(k);
        for i in 0..self.coll.len() {
            kb.push(i as u32, dist.eval(query, self.coll.vector(i)));
        }
        kb.into_sorted()
    }

    /// Batched path: blocks through the key kernel, surrogate keys into
    /// one k-best, only the winners pay `finish_key`.
    fn knn_batched(&self, query: &[f64], k: usize, dist: &WeightedEuclidean) -> Vec<Neighbor> {
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
        dist: &WeightedEuclidean,
        mode: ScanMode,
    ) -> Vec<Neighbor> {
        let cfg = ScanConfig { mode, ..self.cfg };
        MultiQueryScan::with_config(self.coll.into(), cfg)
            .knn(&QueryBatch::new(&[query], QueryMetrics::Shared(dist), k))
            .pop()
            .unwrap_or_default()
    }
}

impl KnnEngine for LinearScan<'_> {
    /// `k` is clamped to the collection (`k` larger than it returns
    /// every row), so no caller-supplied `k` ever sizes a heap.
    fn knn(&self, query: &[f64], k: usize, dist: &WeightedEuclidean) -> Vec<Neighbor> {
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
        dist: &WeightedEuclidean,
    ) -> (Vec<Neighbor>, SearchStats) {
        (
            self.knn(query, k, dist),
            SearchStats {
                distance_evals: self.coll.len() as u64,
            },
        )
    }

    fn name(&self) -> &str {
        "linear-scan"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::CollectionBuilder;

    fn uniform() -> WeightedEuclidean {
        WeightedEuclidean::uniform(2)
    }

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
        let res = scan.knn(&[0.1, 0.1], 3, &uniform());
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
        let res = scan.knn(&[0.0, 0.0], 100, &uniform());
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
        assert!(scan.knn(&[0.0, 0.0], 0, &uniform()).is_empty());
    }

    #[test]
    fn weighted_metric_changes_ranking() {
        let mut b = CollectionBuilder::new();
        b.push_unlabelled(&[1.0, 0.0]).unwrap(); // index 0
        b.push_unlabelled(&[0.0, 1.1]).unwrap(); // index 1
        let c = b.build();
        let scan = LinearScan::new(&c);
        // Unweighted: point 0 is closer to origin.
        let r1 = scan.knn(&[0.0, 0.0], 1, &uniform());
        assert_eq!(r1[0].index, 0);
        // Heavy weight on x flips the ranking.
        let w = WeightedEuclidean::new(vec![100.0, 1.0]).unwrap();
        let r2 = scan.knn(&[0.0, 0.0], 1, &w);
        assert_eq!(r2[0].index, 1);
    }

    #[test]
    fn stats_count_all_evals() {
        let c = grid_collection();
        let scan = LinearScan::new(&c);
        let (_, stats) = scan.knn_with_stats(&[0.0, 0.0], 2, &uniform());
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
            assert!(scan.knn(&[], 5, &WeightedEuclidean::uniform(0)).is_empty());
        }
    }
}
