//! Range queries and their outcomes.

use std::time::Duration;

use asv_util::ValueRange;

use crate::router::ViewId;

/// A range-selection query `SELECT ... WHERE value BETWEEN l AND u`.
///
/// This is the query shape the paper's evaluation fires against the
/// adaptive storage layer (both bounds inclusive). A query may additionally
/// be marked *count-only* ([`Self::count_only`]): the scan then skips the
/// checksum accumulation entirely (the `COUNT(*)` fast path) while view
/// routing and adaptive maintenance behave exactly as for a full query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeQuery {
    range: ValueRange,
    count_only: bool,
}

impl RangeQuery {
    /// Creates a query selecting values in `[low, high]`.
    ///
    /// # Panics
    /// Panics if `low > high`.
    pub fn new(low: u64, high: u64) -> Self {
        Self {
            range: ValueRange::new(low, high),
            count_only: false,
        }
    }

    /// Creates a query from an existing [`ValueRange`].
    pub fn from_range(range: ValueRange) -> Self {
        Self {
            range,
            count_only: false,
        }
    }

    /// Marks this query as count-only: the answer's `sum` stays 0 and the
    /// per-value checksum accumulation is skipped on the scan hot path.
    ///
    /// Row collection takes precedence: when such a query is answered via
    /// `AdaptiveColumn::query_collect`, the rows (and the checksum, which
    /// is a by-product of the collecting scan) are produced as usual.
    pub fn count_only(mut self) -> Self {
        self.count_only = true;
        self
    }

    /// Returns `true` if this query only needs the qualifying-value count.
    pub fn is_count_only(&self) -> bool {
        self.count_only
    }

    /// The selected value range.
    pub fn range(&self) -> &ValueRange {
        &self.range
    }

    /// Lower bound of the selection (inclusive).
    pub fn low(&self) -> u64 {
        self.range.low()
    }

    /// Upper bound of the selection (inclusive).
    pub fn high(&self) -> u64 {
        self.range.high()
    }
}

impl From<ValueRange> for RangeQuery {
    fn from(range: ValueRange) -> Self {
        Self::from_range(range)
    }
}

/// The result of answering one [`RangeQuery`].
///
/// Besides the aggregate answer (count and checksum of qualifying values,
/// plus optionally the qualifying row ids) the outcome records the
/// execution characteristics the paper's figures plot: how many physical
/// pages were scanned, which and how many views were used, and whether a
/// new partial view was retained.
#[derive(Clone, Debug, Default)]
pub struct QueryOutcome {
    /// Number of qualifying values.
    pub count: u64,
    /// Sum of qualifying values (checksum used to validate equivalence with
    /// the full-scan baseline). Stays 0 for count-only queries — which skip
    /// the checksum accumulation on the hot path — unless row collection
    /// was requested, which computes the checksum as a by-product.
    pub sum: u128,
    /// Qualifying row ids, if collection was requested.
    pub rows: Option<Vec<u64>>,
    /// Number of distinct physical pages scanned to answer the query
    /// (plotted in Figure 4).
    pub scanned_pages: usize,
    /// The views used to answer the query (in scan order).
    pub views_used: Vec<ViewId>,
    /// What happened to the candidate partial view created alongside the
    /// query.
    pub view_maintenance: ViewMaintenance,
    /// Which execution strategy produced this outcome.
    pub executed: QueryExecution,
    /// Wall-clock time spent answering the query (including adaptive view
    /// creation).
    pub elapsed: Duration,
}

/// The execution strategy behind a [`QueryOutcome`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueryExecution {
    /// The adaptive path: routed to views, scanned, candidate view
    /// maintained (Listing 1).
    #[default]
    Adaptive,
    /// A plain full scan of the column, bypassing all views.
    FullScan,
}

impl QueryOutcome {
    /// Number of views considered for this query (plotted in Figure 5).
    pub fn num_views_used(&self) -> usize {
        self.views_used.len()
    }

    /// Elapsed time in milliseconds (the unit of the paper's plots).
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e3
    }
}

/// What the adaptive maintenance did with the candidate view produced as a
/// side-product of query answering (paper §2.2, Listing 1 lines 21-32).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ViewMaintenance {
    /// View creation was disabled or the view limit had been reached, so no
    /// candidate view was even built.
    #[default]
    NotAttempted,
    /// The candidate did not improve over the full view (it indexed at
    /// least as many pages) and was dropped.
    DiscardedNotSmaller,
    /// The candidate covered a subset of an existing partial view without
    /// indexing (sufficiently) fewer pages and was dropped.
    DiscardedSubsumed,
    /// The candidate covered a superset of an existing partial view of
    /// similar size and replaced it.
    ReplacedExisting,
    /// The candidate was inserted as a new partial view.
    Inserted,
}

impl ViewMaintenance {
    /// Returns `true` if the candidate view survived (was inserted or
    /// replaced an existing view).
    pub fn retained(&self) -> bool {
        matches!(
            self,
            ViewMaintenance::Inserted | ViewMaintenance::ReplacedExisting
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_constructors() {
        let q = RangeQuery::new(10, 20);
        assert_eq!(q.low(), 10);
        assert_eq!(q.high(), 20);
        assert_eq!(q.range(), &ValueRange::new(10, 20));
        let q2: RangeQuery = ValueRange::new(10, 20).into();
        assert_eq!(q, q2);
        assert_eq!(q, RangeQuery::from_range(ValueRange::new(10, 20)));
        assert!(!q.is_count_only());
        let c = q.count_only();
        assert!(c.is_count_only());
        assert_eq!(c.range(), q.range());
        assert_ne!(c, q);
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn inverted_query_panics() {
        RangeQuery::new(20, 10);
    }

    #[test]
    fn outcome_helpers() {
        let mut o = QueryOutcome::default();
        assert_eq!(o.num_views_used(), 0);
        o.views_used.push(ViewId::Full);
        o.views_used.push(ViewId::Partial(3));
        assert_eq!(o.num_views_used(), 2);
        assert!(o.elapsed_ms() >= 0.0);
        assert_eq!(o.executed, QueryExecution::Adaptive);
    }

    #[test]
    fn maintenance_retained() {
        assert!(ViewMaintenance::Inserted.retained());
        assert!(ViewMaintenance::ReplacedExisting.retained());
        assert!(!ViewMaintenance::DiscardedSubsumed.retained());
        assert!(!ViewMaintenance::DiscardedNotSmaller.retained());
        assert!(!ViewMaintenance::NotAttempted.retained());
    }
}
