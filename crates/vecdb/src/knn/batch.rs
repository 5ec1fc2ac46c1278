//! The one description of the retrieval operation (paper §2): a batch
//! of query points, each under one member of a parameterised distance
//! class, each asking for its own `k` nearest neighbours. Every scan
//! engine (`MultiQueryScan` over a flat or partitioned layout,
//! `ShardedScan`) has exactly one entry taking a [`QueryBatch`].

use super::multi::KeyedResults;
use super::{finish_entries, Neighbor};
use crate::distance::{Distance, WeightedEuclidean};

/// Which metric each query of a [`QueryBatch`] runs under.
#[derive(Clone, Copy)]
pub enum QueryMetrics<'a> {
    /// One metric for the whole batch — the multi-query kernels score a
    /// block against every query in one call.
    Shared(&'a dyn Distance),
    /// `dists[i]` for `queries[i]`, any classes — the block read is
    /// shared, each query runs its own batch kernel on the hot block.
    PerQuery(&'a [&'a dyn Distance]),
    /// Per-query weighted-Euclidean metrics (concurrent sessions whose
    /// learned weights diverged) — every layout's pass rides the
    /// per-query-weight multi kernels. When every weight vector is
    /// equal the batch **is** a [`Self::Shared`] one and runs as one;
    /// [`QueryBatch::new`] is the only place that is detected.
    Weighted(&'a [&'a WeightedEuclidean]),
}

/// A batch of k-NN queries: points, metric form, result counts.
/// Borrowed slices only — building one costs no allocation.
#[derive(Clone, Copy)]
pub struct QueryBatch<'a> {
    queries: &'a [&'a [f64]],
    metrics: QueryMetrics<'a>,
    k: usize,
    ks: Option<&'a [usize]>,
}

impl<'a> QueryBatch<'a> {
    /// `k` nearest neighbours of every query under `metrics`.
    ///
    /// # Panics
    ///
    /// Panics when a per-query metric list is not one per query, the
    /// queries disagree on dimensionality, or a weighted metric's
    /// weight count differs from it.
    pub fn new(queries: &'a [&'a [f64]], metrics: QueryMetrics<'a>, k: usize) -> Self {
        let dim = queries.first().map_or(0, |q| q.len());
        assert!(
            queries.iter().all(|q| q.len() == dim),
            "query dimensionality mismatch"
        );
        let metrics = match metrics {
            QueryMetrics::Shared(_) => metrics,
            QueryMetrics::PerQuery(dists) => {
                assert_eq!(queries.len(), dists.len(), "one distance per query");
                metrics
            }
            QueryMetrics::Weighted(ms) => {
                assert_eq!(queries.len(), ms.len(), "one metric per query");
                assert!(
                    ms.iter().all(|m| m.weights().len() == dim),
                    "metric dimensionality mismatch"
                );
                match ms.split_first() {
                    Some((first, rest)) if rest.iter().all(|m| m.weights() == first.weights()) => {
                        QueryMetrics::Shared(*first)
                    }
                    _ => metrics,
                }
            }
        };
        QueryBatch {
            queries,
            metrics,
            k,
            ks: None,
        }
    }

    /// Per-query result counts (`ks[i]` neighbours for `queries[i]`),
    /// still answered in the same pass: concurrent sessions rarely
    /// agree on `k`, and forcing the batch to the maximum would make
    /// every smaller request pay the widest k-best.
    ///
    /// # Panics
    ///
    /// Panics when `ks` is not one per query.
    pub fn with_ks(mut self, ks: &'a [usize]) -> Self {
        assert_eq!(self.queries.len(), ks.len(), "one k per query");
        self.ks = Some(ks);
        self
    }

    /// Number of queries.
    pub(crate) fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch holds no query.
    pub(crate) fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The query points.
    pub(crate) fn queries(&self) -> &'a [&'a [f64]] {
        self.queries
    }

    /// The metric form (an all-equal `Weighted` list reads `Shared`).
    pub(crate) fn metrics(&self) -> QueryMetrics<'a> {
        self.metrics
    }

    /// Query `q`'s metric.
    pub(crate) fn metric(&self, q: usize) -> &'a dyn Distance {
        match self.metrics {
            QueryMetrics::Shared(d) => d,
            QueryMetrics::PerQuery(dists) => dists[q],
            QueryMetrics::Weighted(ms) => ms[q],
        }
    }

    /// The one check of a batch against a layout of `rows × dim`: the
    /// queries must have the layout's dimensionality, and every result
    /// count is clamped to the row count — `k` larger than the layout
    /// returns every row, and no caller-supplied `k` ever sizes a heap.
    pub(crate) fn ks_for(&self, rows: usize, dim: usize) -> Vec<usize> {
        assert!(
            self.queries.first().is_none_or(|q| q.len() == dim),
            "query dimensionality mismatch"
        );
        match self.ks {
            Some(ks) => ks.iter().map(|&k| k.min(rows)).collect(),
            None => vec![self.k.min(rows); self.queries.len()],
        }
    }

    /// Keys → distances, once, at the edge: finish every query's keyed
    /// k-best under its own metric.
    pub(crate) fn finish(&self, keyed: KeyedResults) -> Vec<Vec<Neighbor>> {
        let finished = keyed.finished;
        keyed
            .entries
            .into_iter()
            .enumerate()
            .map(|(q, entries)| finish_entries(entries, finished, self.metric(q)))
            .collect()
    }
}
