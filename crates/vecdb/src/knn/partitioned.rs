//! Scan layouts: the row order a
//! [`MultiQueryScan`](super::MultiQueryScan) pass walks, and the proof
//! that lets it skip partitions.
//!
//! A pass runs over a [`Layout`]. A flat [`Collection`] is the
//! one-partition layout: rows `0..len`, no permutation, and a lower
//! bound of `None`, which never prunes. A [`PartitionedCollection`] is
//! the many-partition layout: its rows are partition-contiguous, so each
//! surviving partition is one contiguous block scan, and the pass
//! **skips** any partition whose per-query key-space lower bound
//! ([`Distance::partition_lower_key`]) exceeds every query's running
//! selection bound. Either way the same
//! loop runs the same kernels, key spaces, `(key, index)` tie-breaks,
//! `F32Rescore` two-phase machinery and `caps` seeding — a weighted
//! batch keeps its per-query-weight multi kernels inside partitions
//! too.
//!
//! # Invariant: pruning is answer-transparent
//!
//! A partition is skipped only when, for **every** query, a sound
//! certificate proves no member row can enter that query's k-best:
//!
//! * f64 paths — skip for query `q` iff `lb > min(threshold_q, cap_q)`
//!   (strictly greater, so key ties at the bound survive). Every member
//!   key is ≥ `lb`, the running threshold never undershoots the final
//!   k-th key, and `cap_q` is caller-guaranteed sound — so a skipped
//!   member could never displace a result.
//! * f32 phase-1 — the running threshold `t` lives in f32-key space,
//!   while `lb` is exact. `t` never undershoots `τ32` (the true k-th
//!   f32 key), and every row obeys `key64 ≤ key32 + Δ'(key32)` (the
//!   reverse of the metric's key-relative bound
//!   `Distance::f32_key_bound`, monotone), so
//!   `τ64 ≤ τ32 + Δ'(τ32) ≤ t + Δ'(t)`: skip iff
//!   `lb > T = min(t + Δ'(t), cap_q)` ([`KeyBand::ceiling`]). Skipped
//!   members have `key64 ≥ lb > T ≥ τ64`, hence are not in the true
//!   top-k, and the surviving candidate pool keeps the same superset
//!   guarantee the flat f32 pass proves.
//! * `k = 0` queries need nothing and always "agree" to skip.
//!
//! Because a partitioned pass pushes **original** row indices during
//! selection (via the layout's permutation) and a k-best's content is
//! insertion-order-independent, visit order — and therefore the
//! ascending-lower-bound order used to tighten thresholds early — can
//! never change an answer. The bit-identity suite
//! (`crates/vecdb/tests/partitioned.rs`) pins all of this against the
//! flat scans.

use super::multi::cap_of;
use super::{KBest, KeyBand, QueryBatch};
use crate::collection::{Collection, PartitionedCollection};
use crate::distance::Distance;
use std::ops::Range;

/// The row layout a [`MultiQueryScan`](super::MultiQueryScan) pass
/// walks, taken from the type of the argument the scan is built over: a
/// flat [`Collection`] is one partition that never prunes, a
/// [`PartitionedCollection`] is many, each pruned by a sound per-query
/// lower bound (module docs).
#[derive(Debug, Clone, Copy)]
pub struct Layout<'a> {
    /// The scanned rows (for a partitioned layout, its reordered
    /// partition-contiguous copy).
    pub(crate) coll: &'a Collection,
    part: Option<&'a PartitionedCollection>,
}

impl<'a> From<&'a Collection> for Layout<'a> {
    fn from(coll: &'a Collection) -> Self {
        Layout { coll, part: None }
    }
}

impl<'a> From<&'a PartitionedCollection> for Layout<'a> {
    fn from(part: &'a PartitionedCollection) -> Self {
        Layout {
            coll: part.collection(),
            part: Some(part),
        }
    }
}

impl<'a> Layout<'a> {
    /// The `scanned row → original row` map (`None`: the identity).
    pub(crate) fn perm(&self) -> Option<&'a [u32]> {
        self.part.map(PartitionedCollection::perm)
    }

    /// Scanned row range of partition `p`.
    pub(crate) fn rows(&self, p: usize) -> Range<usize> {
        self.part.map_or(0..self.coll.len(), |part| part.rows(p))
    }

    /// Per-(partition, query) key-space lower bounds, row-major by
    /// partition (`lbs[p · nq + q]`). `None` ⇔ partition `p` is empty
    /// (skipped, never counted as pruned) or the layout is flat (its one
    /// partition is all `None` and never prunes).
    pub(crate) fn lower_bounds(&self, batch: &QueryBatch<'_>) -> Vec<Option<f64>> {
        let Some(part) = self.part else {
            return vec![None; batch.len()];
        };
        let mut lbs = Vec::with_capacity(part.partition_count() * batch.len());
        for p in 0..part.partition_count() {
            let (centroid, radius) = (part.centroid(p), part.radius(p));
            for (q, query) in batch.queries().iter().enumerate() {
                lbs.push(if part.rows(p).is_empty() {
                    None // empty partitions are skipped, not "pruned"
                } else {
                    Some(batch.metric(q).partition_lower_key(query, centroid, radius))
                });
            }
        }
        lbs
    }

    /// Partition visit order: ascending by the min-over-queries lower
    /// bound (`None` sorts a partition first). Visiting
    /// likely-near partitions first tightens every threshold as early
    /// as possible, maximizing later prunes; by the module invariant
    /// the order itself can never change an answer.
    pub(crate) fn visit_order(&self, lbs: &[Option<f64>], nq: usize) -> Vec<usize> {
        let sort_key = |p: usize| {
            lbs[p * nq..(p + 1) * nq]
                .iter()
                .map(|lb| lb.unwrap_or(f64::NEG_INFINITY))
                .fold(f64::INFINITY, f64::min)
        };
        let count = self.part.map_or(1, PartitionedCollection::partition_count);
        let mut order: Vec<usize> = (0..count).collect();
        order.sort_unstable_by(|&a, &b| {
            sort_key(a)
                .partial_cmp(&sort_key(b))
                .expect("lower bounds are never NaN")
                .then(a.cmp(&b))
        });
        order
    }
}

/// Whether every query proves a partition skippable, given its lower
/// bounds `lbs_p`: `lb > T` with `T` its band's ceiling of the running
/// threshold and cap ([`KeyBand::ceiling`]; `min(t, cap)` on the f64
/// path), strictly (ties at the bound must survive); `k = 0` needs
/// nothing; `None` never prunes.
pub(crate) fn all_prune(
    lbs_p: &[Option<f64>],
    ks: &[usize],
    kbs: &[KBest],
    bands: &[KeyBand],
    caps: Option<&[f64]>,
) -> bool {
    lbs_p.iter().enumerate().all(|(q, lb)| {
        ks[q] == 0 || lb.is_some_and(|l| l > bands[q].ceiling(kbs[q].threshold(), cap_of(caps, q)))
    })
}
