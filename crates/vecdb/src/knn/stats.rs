//! Scan-path counters: where the rows actually went during a pass.
//!
//! The latency side of observability (queue waits, span timings) lives
//! in the serving tier; this module answers the *work* side — how many
//! rows a pass streamed, how often early abandonment actually bit, how
//! much the f32 phase-1 filter saved the rescore, and whether
//! a caller's pruning caps engaged. A [`ScanStatsSink`] is a set of
//! relaxed atomic counters a caller attaches to a scan
//! ([`MultiQueryScan::with_scan_stats`](super::MultiQueryScan::with_scan_stats));
//! the scan accumulates plain local tallies during the pass and flushes
//! them with a handful of `fetch_add`s at the end, so the per-row hot
//! loops pay nothing and the per-pass cost is a few uncontended atomic
//! adds. **Instrumentation never changes an answer**: the counters only
//! observe decisions the pass already made.

use std::sync::atomic::{AtomicU64, Ordering};

/// One pass's (or one sink's cumulative) scan-path tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Rows streamed from the collection (per pass, not per query — the
    /// bytes-moved view the multi-query amortization is about).
    pub rows_visited: u64,
    /// Row blocks in which at least one query's bound dropped at least
    /// one row — blocks where early abandonment actually bit.
    pub blocks_abandoned: u64,
    /// Phase-1 candidates the f32 filter discarded before the rescore
    /// paid any scattered f64 reads.
    pub candidates_filtered: u64,
    /// Phase-1 candidates that survived to the exact f64 rescore.
    pub candidates_rescored: u64,
    /// Passes whose selection bound was seeded by a finite
    /// cap ([`QueryBatch::with_caps`](super::QueryBatch::with_caps))
    /// instead of starting at `+∞`.
    pub seed_prunes: u64,
    /// Partitions skipped outright because every query's sound lower
    /// bound exceeded its running selection bound or the query asked
    /// for `k = 0` (the sub-linear win; rows inside never count in
    /// `rows_visited`). A flat collection is one partition with no
    /// bound, so a flat pass skips it only when every `k` is 0.
    pub partitions_pruned: u64,
}

impl ScanStats {
    /// Whether every counter is zero.
    pub fn is_empty(&self) -> bool {
        *self == ScanStats::default()
    }
}

/// Lock-free accumulator for [`ScanStats`], shared across passes and
/// threads: the parallel scan's workers and every pass a server runs
/// all flush into one sink with relaxed `fetch_add`s.
#[derive(Debug, Default)]
pub struct ScanStatsSink {
    rows_visited: AtomicU64,
    blocks_abandoned: AtomicU64,
    candidates_filtered: AtomicU64,
    candidates_rescored: AtomicU64,
    seed_prunes: AtomicU64,
    partitions_pruned: AtomicU64,
}

impl ScanStatsSink {
    /// New sink with every counter at zero.
    pub fn new() -> Self {
        ScanStatsSink::default()
    }

    /// Fold one pass's tallies into the cumulative counters (relaxed;
    /// counters are monotonic and independent).
    pub fn record(&self, tally: &ScanStats) {
        if tally.rows_visited > 0 {
            self.rows_visited
                .fetch_add(tally.rows_visited, Ordering::Relaxed);
        }
        if tally.blocks_abandoned > 0 {
            self.blocks_abandoned
                .fetch_add(tally.blocks_abandoned, Ordering::Relaxed);
        }
        if tally.candidates_filtered > 0 {
            self.candidates_filtered
                .fetch_add(tally.candidates_filtered, Ordering::Relaxed);
        }
        if tally.candidates_rescored > 0 {
            self.candidates_rescored
                .fetch_add(tally.candidates_rescored, Ordering::Relaxed);
        }
        if tally.seed_prunes > 0 {
            self.seed_prunes
                .fetch_add(tally.seed_prunes, Ordering::Relaxed);
        }
        if tally.partitions_pruned > 0 {
            self.partitions_pruned
                .fetch_add(tally.partitions_pruned, Ordering::Relaxed);
        }
    }

    /// Current cumulative counters.
    pub fn snapshot(&self) -> ScanStats {
        ScanStats {
            rows_visited: self.rows_visited.load(Ordering::Relaxed),
            blocks_abandoned: self.blocks_abandoned.load(Ordering::Relaxed),
            candidates_filtered: self.candidates_filtered.load(Ordering::Relaxed),
            candidates_rescored: self.candidates_rescored.load(Ordering::Relaxed),
            seed_prunes: self.seed_prunes.load(Ordering::Relaxed),
            partitions_pruned: self.partitions_pruned.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_and_snapshot_reads() {
        let sink = ScanStatsSink::new();
        assert!(sink.snapshot().is_empty());
        sink.record(&ScanStats {
            rows_visited: 100,
            blocks_abandoned: 2,
            candidates_filtered: 30,
            candidates_rescored: 10,
            seed_prunes: 1,
            partitions_pruned: 4,
        });
        sink.record(&ScanStats {
            rows_visited: 50,
            ..Default::default()
        });
        let s = sink.snapshot();
        assert_eq!(s.rows_visited, 150);
        assert_eq!(s.blocks_abandoned, 2);
        assert_eq!(s.candidates_filtered, 30);
        assert_eq!(s.candidates_rescored, 10);
        assert_eq!(s.seed_prunes, 1);
        assert_eq!(s.partitions_pruned, 4);
        assert!(!s.is_empty());
    }
}
