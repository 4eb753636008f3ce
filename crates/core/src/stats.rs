//! Per-query records and sequence-level statistics.
//!
//! The paper's adaptive experiments (Figures 4 and 5, Table 1) plot, per
//! query of a 250-query sequence: the response time, the number of scanned
//! physical pages, and the number of views considered — plus the accumulated
//! response time over the whole sequence. [`QueryRecord`] and
//! [`SequenceStats`] capture exactly that and are consumed by the
//! experiment harness.

use std::time::Duration;

use crate::query::QueryOutcome;

/// The measurements of a single query within a sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRecord {
    /// Position of the query in the sequence (0-based).
    pub index: usize,
    /// Response time.
    pub elapsed: Duration,
    /// Number of distinct physical pages scanned.
    pub scanned_pages: usize,
    /// Number of views used to answer the query.
    pub views_used: usize,
    /// Whether the candidate view created alongside the query was retained.
    pub view_retained: bool,
    /// Number of qualifying values (the query's result cardinality).
    pub result_count: u64,
}

impl QueryRecord {
    /// Builds a record from a query outcome.
    pub fn from_outcome(index: usize, outcome: &QueryOutcome) -> Self {
        Self {
            index,
            elapsed: outcome.elapsed,
            scanned_pages: outcome.scanned_pages,
            views_used: outcome.num_views_used(),
            view_retained: outcome.view_maintenance.retained(),
            result_count: outcome.count,
        }
    }

    /// Response time in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e3
    }
}

/// Statistics over a whole query sequence.
#[derive(Clone, Debug, Default)]
pub struct SequenceStats {
    records: Vec<QueryRecord>,
}

impl SequenceStats {
    /// Creates an empty statistics collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the outcome of the next query in the sequence.
    pub fn record(&mut self, outcome: &QueryOutcome) {
        let index = self.records.len();
        self.records.push(QueryRecord::from_outcome(index, outcome));
    }

    /// All per-query records in sequence order.
    pub fn records(&self) -> &[QueryRecord] {
        &self.records
    }

    /// Number of recorded queries.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no queries were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Accumulated response time over the sequence (the quantity of
    /// Table 1).
    pub fn accumulated_time(&self) -> Duration {
        self.records.iter().map(|r| r.elapsed).sum()
    }

    /// Accumulated response time in seconds.
    pub fn accumulated_seconds(&self) -> f64 {
        self.accumulated_time().as_secs_f64()
    }

    /// Total number of pages scanned over the sequence.
    pub fn total_scanned_pages(&self) -> usize {
        self.records.iter().map(|r| r.scanned_pages).sum()
    }

    /// Number of queries whose candidate view was retained.
    pub fn views_retained(&self) -> usize {
        self.records.iter().filter(|r| r.view_retained).count()
    }

    /// Largest number of views used by any single query (Figure 5's right
    /// axis).
    pub fn max_views_used(&self) -> usize {
        self.records.iter().map(|r| r.views_used).max().unwrap_or(0)
    }

    /// Mean response time in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.accumulated_seconds() * 1e3 / self.records.len() as f64
        }
    }
}

/// The measurements of one published alignment chunk.
///
/// Chunked background alignment ([`crate::align`]) publishes a batch as a
/// sequence of bounded chunks, each its own view epoch. The per-chunk
/// publish time is the quantity the chunking exists to bound: it is the
/// only part of alignment that excludes queries. [`crate::AdaptiveColumn`]
/// records one of these per published chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkPublishRecord {
    /// Position of the chunk within its alignment round (0-based).
    pub chunk_index: usize,
    /// Deduplicated updates folded by this chunk.
    pub updates: usize,
    /// `(view, page)` additions performed by this chunk.
    pub pages_added: usize,
    /// `(view, page)` removals performed by this chunk.
    pub pages_removed: usize,
    /// Wall time of the publish step (replaying the chunk's ops onto the
    /// real view buffers) — the query-excluding window.
    pub publish_time: Duration,
    /// The view epoch entered by this publish.
    pub generation: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ViewMaintenance;
    use crate::router::ViewId;

    fn outcome(ms: u64, pages: usize, views: usize, retained: bool) -> QueryOutcome {
        QueryOutcome {
            count: 42,
            sum: 0,
            rows: None,
            scanned_pages: pages,
            views_used: vec![ViewId::Full; views],
            view_maintenance: if retained {
                ViewMaintenance::Inserted
            } else {
                ViewMaintenance::DiscardedSubsumed
            },
            executed: crate::query::QueryExecution::Adaptive,
            elapsed: Duration::from_millis(ms),
        }
    }

    #[test]
    fn empty_stats() {
        let s = SequenceStats::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.accumulated_time(), Duration::ZERO);
        assert_eq!(s.mean_ms(), 0.0);
        assert_eq!(s.max_views_used(), 0);
    }

    #[test]
    fn record_and_aggregate() {
        let mut s = SequenceStats::new();
        s.record(&outcome(10, 100, 1, true));
        s.record(&outcome(30, 50, 3, false));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.accumulated_time(), Duration::from_millis(40));
        assert!((s.accumulated_seconds() - 0.04).abs() < 1e-9);
        assert_eq!(s.total_scanned_pages(), 150);
        assert_eq!(s.views_retained(), 1);
        assert_eq!(s.max_views_used(), 3);
        assert!((s.mean_ms() - 20.0).abs() < 1e-9);
        let r = &s.records()[1];
        assert_eq!(r.index, 1);
        assert_eq!(r.result_count, 42);
        assert!((r.elapsed_ms() - 30.0).abs() < 1e-9);
        assert!(!r.view_retained);
    }

    #[test]
    fn from_outcome_copies_fields() {
        let o = outcome(5, 7, 2, true);
        let r = QueryRecord::from_outcome(9, &o);
        assert_eq!(r.index, 9);
        assert_eq!(r.scanned_pages, 7);
        assert_eq!(r.views_used, 2);
        assert!(r.view_retained);
    }
}
