//! Key-space gathers over disjoint row sets: a row cut into slices —
//! one per shard server of a router deployment — answers a query as the
//! per-slice k-bests ([`ShardPartial`], produced by
//! [`MultiQueryScan::knn_keyed`](super::MultiQueryScan::knn_keyed) plus
//! the slice's row offset) merged with [`merge_partials`], and that
//! merge is bit-identical to one flat pass over the whole collection.
//!
//! # Why the merged answer is bit-identical to the unsliced scan
//!
//! * A row's surrogate key depends only on `(query, row)` — never on
//!   where block or slice boundaries fall, which rows precede it, or
//!   which threads scanned it (early-abandon bounds only ever *drop*
//!   rows that cannot enter a k-best; the f32 phase-1 collects a
//!   guaranteed superset and the f64 rescore recomputes exact keys).
//! * Each slice therefore reports its exact local k-best **in key
//!   space** ([`ShardPartial`]), with indices offset to the global row
//!   numbering.
//! * The gather folds those partials through one [`KBest`] per query by
//!   ascending `(key, index)` — the same deterministic order the
//!   parallel scan's per-thread merge uses — and only the final winners
//!   pay [`Distance::finish_key`]. Selection thus happens in the same
//!   space, over the same key bits, with the same tie-break as one flat
//!   pass.
//!
//! The consistency suite (`crates/vecdb/tests/sharded.rs`) pins this
//! across all four distance classes, both precisions, and slice counts
//! up to one row per slice.

use super::{finish_entries, KBest, Neighbor};
use crate::distance::Distance;
use crate::VecdbError;

/// One query's k-best over one row set, still in selection space:
/// `(key, index)` entries ascending by `(key, index)`, plus whether the
/// keys are already finished distances (a Scalar-mode pass). Produce it
/// with [`MultiQueryScan::knn_keyed`](super::MultiQueryScan::knn_keyed)
/// (then [`Self::offset`] it to global rows), consume it with
/// [`merge_partials`]; everything in between (a network hop, a
/// shard server's batching queue) may reorder or regroup partials freely
/// without affecting the merged answer. An empty partial holds no
/// values, so it reports `finished` and fits either space.
#[derive(Debug, Clone)]
pub struct ShardPartial {
    entries: Vec<(f64, u32)>,
    finished: bool,
}

impl ShardPartial {
    /// Reconstruct a partial from its raw parts — the inverse of
    /// [`Self::entries`]/[`Self::is_finished`], for transporting
    /// partials across process boundaries (the router tier decodes
    /// them off the wire). Entries must ascend by `(key, index)` and
    /// hold finite keys; both are validated because wire input is
    /// untrusted — a forged partial that violated the ordering would
    /// silently corrupt [`merge_partials`]' early-break merge.
    pub fn from_entries(entries: Vec<(f64, u32)>, finished: bool) -> crate::Result<Self> {
        for pair in entries.windows(2) {
            if (pair[1].0, pair[1].1) <= (pair[0].0, pair[0].1) {
                return Err(VecdbError::BadParameters(
                    "partial entries must strictly ascend by (key, index)".into(),
                ));
            }
        }
        if entries.iter().any(|&(key, _)| key.is_nan()) {
            return Err(VecdbError::BadParameters(
                "partial entries must hold non-NaN keys".into(),
            ));
        }
        Ok(ShardPartial { entries, finished })
    }

    /// One finished pass's k-best for one query.
    pub(crate) fn from_kbest(kb: KBest, finished: bool) -> Self {
        let entries = kb.into_sorted_entries();
        let finished = finished || entries.is_empty();
        ShardPartial { entries, finished }
    }

    /// Shift every index by `offset`: a slice's local rows become the
    /// global rows of the collection it was cut from.
    pub fn offset(mut self, offset: u32) -> Self {
        for entry in &mut self.entries {
            entry.1 += offset;
        }
        self
    }

    /// Consume into the `(key, index)` entries and the finished flag.
    pub(crate) fn into_parts(self) -> (Vec<(f64, u32)>, bool) {
        (self.entries, self.finished)
    }

    /// The `(key, index)` entries, ascending by `(key, index)`.
    pub fn entries(&self) -> &[(f64, u32)] {
        &self.entries
    }

    /// Whether the keys are already finished distances (a Scalar-mode
    /// pass) rather than surrogate selection keys.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// This shard's `k`-th best value, when the partial holds at least
    /// `k` entries — a **sound pruning seed** for other shards: the
    /// k-th best within any subset of rows can only be ≥ the global
    /// k-th best, so another shard's pass may take `min(running
    /// threshold, bound_key)` as its early-abandon bound without ever
    /// dropping a row of the merged global top-k. `None` when the
    /// shard produced fewer than `k` entries (small or empty shard) —
    /// then it bounds nothing.
    ///
    /// The value lives in the partial's selection space (surrogate
    /// keys, or distances for Scalar passes); only feed it back into
    /// scans configured identically, as the router's seeds do.
    pub fn bound_key(&self, k: usize) -> Option<f64> {
        (k > 0 && self.entries.len() >= k).then(|| self.entries[k - 1].0)
    }
}

/// Merge one query's per-shard partials into its final neighbor list:
/// fold every entry through one k-best by ascending `(key, index)` —
/// shards cover disjoint rows, so this reproduces exactly the selection
/// one flat pass over the concatenated rows would make — then finish
/// the winners with `dist` ([`Distance::finish_key`], or the identity
/// for Scalar-mode partials). The partials may arrive in any shard
/// order; the result does not depend on it. `k` is caller input and
/// never sizes an allocation beyond the entries the partials hold.
///
/// # Panics
///
/// Panics when partials mix Scalar and kernel-mode passes (their values
/// live in different spaces; produce all partials from scans configured
/// identically).
pub fn merge_partials<'p>(
    partials: impl IntoIterator<Item = &'p ShardPartial>,
    k: usize,
    dist: &dyn Distance,
) -> Vec<Neighbor> {
    let partials: Vec<&ShardPartial> = partials.into_iter().collect();
    let held = partials.iter().map(|p| p.entries.len()).sum::<usize>();
    let mut kb = KBest::new(k.min(held));
    let mut finished: Option<bool> = None;
    for part in partials {
        // Empty partials (empty shards, k = 0) carry no values, so they
        // are compatible with either space.
        if part.entries.is_empty() {
            continue;
        }
        match finished {
            None => finished = Some(part.finished),
            Some(f) => assert_eq!(
                f, part.finished,
                "cannot merge Scalar and kernel-mode partials"
            ),
        }
        for &(key, index) in &part.entries {
            if key > kb.threshold() {
                break; // entries ascend: the rest of this shard can't enter
            }
            kb.push(index, key);
        }
    }
    finish_entries(kb.into_sorted_entries(), finished.unwrap_or(true), dist)
}

/// What a gather does when some shards failed to deliver a partial —
/// the serving tier's documented partial-failure contract (see
/// `ARCHITECTURE.md`, "router tier").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Any missing shard fails the whole gather with a typed
    /// [`GatherError`] — never a silently narrowed answer.
    Strict,
    /// Merge whatever survived, as long as at least `min_shards`
    /// partials arrived; the answer is then exactly the flat scan over
    /// the surviving shards' rows, labelled degraded with the missing
    /// shard list. Below the floor the gather fails like `Strict`.
    Degraded {
        /// Minimum surviving shards for a degraded answer.
        min_shards: usize,
    },
}

/// A gather refused by the [`FailurePolicy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatherError {
    /// Shard slots that delivered no partial.
    pub missing_shards: Vec<u32>,
    /// Shard slots that did deliver.
    pub survivors: usize,
    /// Surviving-shard floor the policy demanded.
    pub required: usize,
}

impl std::fmt::Display for GatherError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gather refused: shards {:?} unavailable ({} survivors, {} required)",
            self.missing_shards, self.survivors, self.required
        )
    }
}

impl std::error::Error for GatherError {}

/// A policy-approved gather over the shards that answered.
#[derive(Debug, Clone)]
pub struct DegradedGather {
    /// Merged neighbors — the exact flat-scan answer over the surviving
    /// shards' rows.
    pub neighbors: Vec<Neighbor>,
    /// Shard slots missing from the merge (empty ⇒ the answer is the
    /// full, undegraded gather).
    pub missing_shards: Vec<u32>,
}

impl DegradedGather {
    /// Whether any shard was missing from the merge.
    pub fn is_degraded(&self) -> bool {
        !self.missing_shards.is_empty()
    }
}

/// [`merge_partials`] under a [`FailurePolicy`]: `partials[i]` is shard
/// `i`'s delivery (`None` ⇒ that shard timed out, errored, or was
/// dropped). The policy decides between a merged (possibly degraded)
/// answer and a typed refusal — the two documented outcomes of a
/// partial failure; there is no third, silent one.
///
/// When every partial is present this is exactly [`merge_partials`]
/// (and `missing_shards` is empty); when a subset survives, the merged
/// neighbors equal the flat scan over the surviving shards' rows,
/// because shards cover disjoint rows and the k-best fold never looks
/// at rows it was not given.
pub fn merge_partials_policy(
    partials: &[Option<ShardPartial>],
    k: usize,
    dist: &dyn Distance,
    policy: FailurePolicy,
) -> std::result::Result<DegradedGather, GatherError> {
    let missing_shards: Vec<u32> = partials
        .iter()
        .enumerate()
        .filter(|(_, p)| p.is_none())
        .map(|(i, _)| i as u32)
        .collect();
    let survivors = partials.len() - missing_shards.len();
    let required = match policy {
        FailurePolicy::Strict => partials.len(),
        FailurePolicy::Degraded { min_shards } => min_shards.min(partials.len()),
    };
    if survivors < required {
        return Err(GatherError {
            missing_shards,
            survivors,
            required,
        });
    }
    Ok(DegradedGather {
        neighbors: merge_partials(partials.iter().flatten(), k, dist),
        missing_shards,
    })
}
