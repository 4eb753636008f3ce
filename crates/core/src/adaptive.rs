//! The adaptive column: query answering with adaptive view maintenance.
//!
//! [`AdaptiveColumn`] ties everything together and implements the paper's
//! Listing 1 (`answerQueryAndMaintainViews`): every range query is routed to
//! the most fitting view(s), answered by scanning them (skipping shared
//! pages), and — as a side-product — a new candidate partial view covering
//! (at least) the query range is materialized and offered to the view index.
//! Writes go through the full view, and [`AdaptiveColumn::align_views`]
//! re-aligns the partial views with a batch of them afterwards (§2.4). The
//! column has one owner and runs everything on the calling thread; the
//! concurrent engine is [`crate::ServeTable`].

use asv_storage::{Column, ScanKernel, ScanMode, Update};
use asv_util::{Timer, ValueRange};
use asv_vmem::{Backend, ViewBuffer, VmemError};

use crate::config::{AdaptiveConfig, RoutingMode};
use crate::creation::create_while_scanning;
use crate::exec::scan_selected_views;
use crate::query::{QueryExecution, QueryOutcome, RangeQuery, ViewMaintenance};
use crate::router::{route, ViewId};
use crate::updates::{align_views_after_updates, rebuild_all_views, UpdateAlignmentStats};
use crate::viewset::ViewSet;

/// A column equipped with the adaptive virtual-view layer.
///
/// # Example
///
/// A Listing 1 round trip: querying builds a partial view as a
/// side-product, writes go through the full view, and aligning the views
/// with the batch's update records keeps every answer exact:
///
/// ```
/// use asv_core::{AdaptiveColumn, AdaptiveConfig, RangeQuery};
/// use asv_vmem::SimBackend;
///
/// # fn main() -> Result<(), asv_vmem::VmemError> {
/// let values: Vec<u64> = (0..100_000u64).collect();
/// let mut col = AdaptiveColumn::from_values(
///     SimBackend::new(),
///     &values,
///     AdaptiveConfig::default(),
/// )?;
///
/// // Querying answers exactly and leaves a partial view behind.
/// let q = RangeQuery::new(10_000, 19_999);
/// assert_eq!(col.query(&q)?.count, 10_000);
/// assert_eq!(col.views().num_partial_views(), 1);
///
/// // Writes land in the column; aligning maps the pages they moved into
/// // the view's range, here the page holding row 0.
/// let updates = col.write_batch(&[(0, 15_000), (1, 15_001)]);
/// let stats = col.align_views(&updates)?;
/// assert_eq!(stats.pages_added, 1);
/// assert_eq!(col.query(&q)?.count, 10_002);
/// # Ok(())
/// # }
/// ```
pub struct AdaptiveColumn<B: Backend> {
    column: Column<B>,
    views: ViewSet<B>,
    config: AdaptiveConfig,
}

/// The [`ScanMode`] a query resolves to.
fn scan_mode(query: &RangeQuery) -> ScanMode {
    if query.is_count_only() {
        ScanMode::CountOnly
    } else {
        ScanMode::Aggregate
    }
}

impl<B: Backend> AdaptiveColumn<B> {
    /// Wraps an existing column.
    pub fn new(column: Column<B>, config: AdaptiveConfig) -> Result<Self, VmemError> {
        let views = ViewSet::new(config.max_views);
        Ok(Self {
            column,
            views,
            config,
        })
    }

    /// Materializes a column from values and wraps it in one step.
    pub fn from_values(
        backend: B,
        values: &[u64],
        config: AdaptiveConfig,
    ) -> Result<Self, VmemError> {
        Self::new(Column::from_values(backend, values)?, config)
    }

    /// The underlying physical column.
    pub fn column(&self) -> &Column<B> {
        &self.column
    }

    /// The set of partial views currently maintained.
    pub fn views(&self) -> &ViewSet<B> {
        &self.views
    }

    /// The active configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Changes the routing mode at runtime.
    pub fn set_routing(&mut self, routing: RoutingMode) {
        self.config.routing = routing;
    }

    /// Answers `query`, adaptively maintaining partial views as a
    /// side-product (Listing 1). Returns the aggregate answer.
    pub fn query(&mut self, query: &RangeQuery) -> Result<QueryOutcome, VmemError> {
        let timer = Timer::start();
        let selection = route(
            &self.column,
            &self.views,
            query.range(),
            self.config.routing,
        );
        let create_candidate = self.config.adaptive_creation && self.views.can_create_views();

        let column = &self.column;
        let views = &self.views;
        let kernel = ScanKernel::new(*query.range(), scan_mode(query));

        let (candidate, scan) = if create_candidate {
            let (buffer, scan) = create_while_scanning(column, &self.config.creation, |sink| {
                scan_selected_views(column, views, &selection, &kernel, Some(sink))
            })?;
            (Some(buffer), scan)
        } else {
            let scan = scan_selected_views(column, views, &selection, &kernel, None)?;
            (None, scan)
        };

        // Range widening (Listing 1 lines 13-20): the candidate view covers
        // everything strictly between the closest non-qualifying values
        // observed around the query range, clamped to the covered range of
        // the source views.
        let maintenance = if let Some(buffer) = candidate {
            let widened =
                widen_candidate_range(query.range(), &selection.covered, scan.below, scan.above);
            let candidate_pages = buffer.mapped_pages();
            self.views.offer_candidate(
                widened,
                buffer,
                candidate_pages,
                self.column.num_pages(),
                self.config.discard_tolerance,
                self.config.replacement_tolerance,
            )
        } else {
            ViewMaintenance::NotAttempted
        };

        Ok(QueryOutcome {
            count: scan.result.count,
            sum: scan.result.sum,
            scanned_pages: scan.scanned_pages,
            views_used: selection.views,
            view_maintenance: maintenance,
            executed: QueryExecution::Adaptive,
            elapsed: timer.elapsed(),
        })
    }

    /// Answers `query` with a plain full scan, bypassing all views and all
    /// adaptivity — the baseline of the paper's evaluation (§3.2).
    pub fn full_scan(&self, query: &RangeQuery) -> QueryOutcome {
        let timer = Timer::start();
        let out = self.column.full_scan_with(query.range(), scan_mode(query));
        QueryOutcome {
            count: out.result.count,
            sum: out.result.sum,
            scanned_pages: self.column.num_pages(),
            views_used: vec![ViewId::Full],
            view_maintenance: ViewMaintenance::NotAttempted,
            executed: QueryExecution::FullScan,
            elapsed: timer.elapsed(),
        }
    }

    /// Writes `new_value` into `row` through the full view (§2.4),
    /// returning the update record. The partial views stay untouched until
    /// [`Self::align_views`] re-aligns them with the collected records.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds (see [`Column::write`]).
    pub fn write(&mut self, row: usize, new_value: u64) -> Update {
        self.column.write(row, new_value)
    }

    /// Applies a batch of `(row, value)` writes through the full view,
    /// returning the update records to pass to [`Self::align_views`].
    ///
    /// # Panics
    /// Panics if a row is out of bounds (see [`Column::write`]).
    pub fn write_batch(&mut self, writes: &[(usize, u64)]) -> Vec<Update> {
        self.column.write_batch(writes)
    }

    /// Aligns all partial views with an already-applied batch of updates
    /// (paper §2.4–2.5) on the calling thread: the next query sees the
    /// aligned views.
    pub fn align_views(&mut self, batch: &[Update]) -> Result<UpdateAlignmentStats, VmemError> {
        align_views_after_updates(&self.column, &mut self.views, batch)
    }

    /// The current view epoch: bumped on every alignment or rebuild.
    pub fn view_generation(&self) -> u64 {
        self.views.generation()
    }

    /// Installs a pre-built partial view covering `range` (warm start /
    /// experiment setup). The view bypasses the retention policy.
    pub fn install_view(&mut self, range: ValueRange, buffer: B::View) -> u64 {
        self.views.insert_unchecked(range, buffer)
    }

    /// Rebuilds every partial view from scratch (the comparison point for
    /// batched alignment in Figure 7). Returns the total rebuild time.
    pub fn rebuild_views(&mut self) -> Result<std::time::Duration, VmemError> {
        rebuild_all_views(&self.column, &mut self.views, &self.config.creation)
    }
}

/// Computes the covered range of the candidate view.
fn widen_candidate_range(
    query: &ValueRange,
    source_covered: &ValueRange,
    below: Option<u64>,
    above: Option<u64>,
) -> ValueRange {
    let widened = query.widen_between(below, above);
    // Clamp to the range covered by the source views: pages outside that
    // coverage were never scanned, so nothing can be claimed about them.
    widened
        .intersect(source_covered)
        .unwrap_or(*query)
        .hull(query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CreationOptions;
    use asv_vmem::{MmapBackend, SimBackend, VALUES_PER_PAGE};

    /// Clustered data: page p holds values in [p*1000, p*1000 + 510].
    fn clustered_values(pages: usize) -> Vec<u64> {
        (0..pages * VALUES_PER_PAGE)
            .map(|i| ((i / VALUES_PER_PAGE) * 1000 + i % VALUES_PER_PAGE) as u64)
            .collect()
    }

    fn reference_answer(values: &[u64], range: &ValueRange) -> (u64, u128) {
        let mut count = 0u64;
        let mut sum = 0u128;
        for &v in values {
            if range.contains(v) {
                count += 1;
                sum += v as u128;
            }
        }
        (count, sum)
    }

    fn adaptive<B: Backend>(
        backend: B,
        values: &[u64],
        config: AdaptiveConfig,
    ) -> AdaptiveColumn<B> {
        AdaptiveColumn::from_values(backend, values, config).unwrap()
    }

    #[test]
    fn first_query_answers_correctly_and_creates_a_view() {
        let values = clustered_values(32);
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        let q = RangeQuery::new(5_000, 9_400);
        let out = col.query(&q).unwrap();
        let (count, sum) = reference_answer(&values, q.range());
        assert_eq!(out.count, count);
        assert_eq!(out.sum, sum);
        assert_eq!(out.scanned_pages, 32); // first query = full scan
        assert_eq!(out.views_used, vec![ViewId::Full]);
        assert_eq!(out.view_maintenance, ViewMaintenance::Inserted);
        assert_eq!(col.views().num_partial_views(), 1);
        let view = col.views().partial_view(0).unwrap();
        assert_eq!(view.num_pages(), 5); // pages 5..=9 qualify
        assert!(view.range().covers(q.range()));
    }

    #[test]
    fn second_query_uses_the_new_view_and_scans_fewer_pages() {
        let values = clustered_values(32);
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        col.query(&RangeQuery::new(5_000, 9_400)).unwrap();
        let q = RangeQuery::new(6_000, 8_000);
        let out = col.query(&q).unwrap();
        let (count, sum) = reference_answer(&values, q.range());
        assert_eq!((out.count, out.sum), (count, sum));
        assert_eq!(out.views_used, vec![ViewId::Partial(0)]);
        assert!(out.scanned_pages <= 5);
    }

    /// Runs a query sequence on `backend`, asserting every adaptive answer
    /// against the full-scan baseline. Shared by the sim and mmap arms of
    /// the cross-backend test below.
    fn check_adaptive_matches_full_scans<B: Backend>(make_backend: impl Fn() -> B, label: &str) {
        let values = clustered_values(64);
        let mut config = AdaptiveConfig::default().with_max_views(16);
        config.creation = CreationOptions::ALL;
        // Exercise both routing modes.
        for routing in [RoutingMode::SingleView, RoutingMode::MultiView] {
            config.routing = routing;
            let queries: Vec<RangeQuery> = (0..20)
                .map(|i| {
                    let lo = (i * 2_900) as u64;
                    RangeQuery::new(lo, lo + 4_000)
                })
                .collect();
            let mut col = adaptive(make_backend(), &values, config);
            for q in &queries {
                let out = col.query(q).unwrap();
                let base = col.full_scan(q);
                assert_eq!(out.count, base.count, "{label}/{routing:?}");
                assert_eq!(out.sum, base.sum, "{label}/{routing:?}");
            }
        }
    }

    #[test]
    fn adaptive_answers_match_full_scans_over_a_query_sequence() {
        check_adaptive_matches_full_scans(SimBackend::new, "sim");
        check_adaptive_matches_full_scans(MmapBackend::new, "mmap");
    }

    #[test]
    fn count_only_queries_skip_the_checksum_but_count_correctly() {
        let values = clustered_values(32);
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        let q = RangeQuery::new(5_000, 9_400).count_only();
        let out = col.query(&q).unwrap();
        let (count, _) = reference_answer(&values, q.range());
        assert_eq!(out.count, count);
        assert_eq!(out.sum, 0, "count-only answers carry no checksum");
        // Adaptive maintenance is unaffected: the candidate view still gets
        // created with the same widened range as a full query would build.
        assert_eq!(out.view_maintenance, ViewMaintenance::Inserted);
        assert_eq!(col.views().num_partial_views(), 1);
        let view = col.views().partial_view(0).unwrap();
        assert_eq!(view.num_pages(), 5);
        assert!(view.range().covers(q.range()));
        // The count-only full-scan baseline agrees.
        let base = col.full_scan(&q);
        assert_eq!(base.count, count);
        assert_eq!(base.sum, 0);
    }

    #[test]
    fn install_view_bypasses_retention() {
        let values = clustered_values(16);
        let config = AdaptiveConfig::default().with_adaptive_creation(false);
        let mut col = adaptive(SimBackend::new(), &values, config);
        let range = ValueRange::new(5_000, 9_400);
        let (buffer, _) =
            crate::creation::build_view_for_range(col.column(), &range, &CreationOptions::ALL)
                .unwrap();
        col.install_view(range, buffer);
        assert_eq!(col.views().num_partial_views(), 1);
        let q = RangeQuery::new(6_000, 8_000);
        let out = col.query(&q).unwrap();
        assert_eq!(out.views_used, vec![ViewId::Partial(0)]);
        assert_eq!(out.count, col.full_scan(&q).count);
    }

    #[test]
    fn multi_view_mode_combines_views_without_double_counting() {
        let values = clustered_values(40);
        let config = AdaptiveConfig::paper_multi_view(50);
        let mut col = adaptive(SimBackend::new(), &values, config);
        // Create two overlapping views via two queries.
        col.query(&RangeQuery::new(5_000, 12_000)).unwrap();
        col.query(&RangeQuery::new(11_000, 20_000)).unwrap();
        assert!(col.views().num_partial_views() >= 2);
        // A query spanning both views must use them together and still be
        // exact despite the shared pages.
        let q = RangeQuery::new(6_000, 19_000);
        let out = col.query(&q).unwrap();
        let base = col.full_scan(&q);
        assert_eq!(out.count, base.count);
        assert_eq!(out.sum, base.sum);
        assert!(out.num_views_used() >= 2);
        assert!(out.scanned_pages < 40);
    }

    #[test]
    fn view_limit_freezes_view_creation() {
        let values = clustered_values(32);
        let config = AdaptiveConfig::default().with_max_views(2);
        let mut col = adaptive(SimBackend::new(), &values, config);
        col.query(&RangeQuery::new(1_000, 2_000)).unwrap();
        col.query(&RangeQuery::new(10_000, 11_000)).unwrap();
        assert_eq!(col.views().num_partial_views(), 2);
        let out = col.query(&RangeQuery::new(20_000, 21_000)).unwrap();
        assert_eq!(out.view_maintenance, ViewMaintenance::NotAttempted);
        assert_eq!(col.views().num_partial_views(), 2);
    }

    #[test]
    fn disabling_adaptive_creation_keeps_views_static() {
        let values = clustered_values(16);
        let config = AdaptiveConfig::default().with_adaptive_creation(false);
        let mut col = adaptive(SimBackend::new(), &values, config);
        let out = col.query(&RangeQuery::new(1_000, 2_000)).unwrap();
        assert_eq!(out.view_maintenance, ViewMaintenance::NotAttempted);
        assert_eq!(col.views().num_partial_views(), 0);
    }

    #[test]
    fn repeated_identical_queries_do_not_accumulate_views() {
        let values = clustered_values(32);
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        for _ in 0..5 {
            col.query(&RangeQuery::new(5_000, 9_400)).unwrap();
        }
        // The first query inserts a view; subsequent identical candidates
        // cover a subset (or the same range) with the same page count and
        // are discarded.
        assert_eq!(col.views().num_partial_views(), 1);
    }

    #[test]
    fn uniform_data_yields_no_useful_views_but_correct_answers() {
        // With uniform data every page contains small and large values, so
        // candidate views index (almost) all pages and are discarded.
        let values: Vec<u64> = (0..16 * VALUES_PER_PAGE as u64)
            .map(|i| (i * 2_654_435_761) % 1_000_000)
            .collect();
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        let q = RangeQuery::new(0, 500_000);
        let out = col.query(&q).unwrap();
        let (count, sum) = reference_answer(&values, q.range());
        assert_eq!((out.count, out.sum), (count, sum));
        assert_eq!(out.view_maintenance, ViewMaintenance::DiscardedNotSmaller);
        assert_eq!(col.views().num_partial_views(), 0);
    }

    #[test]
    fn empty_column_queries_return_zero() {
        let mut col = adaptive(SimBackend::new(), &[], AdaptiveConfig::default());
        let out = col.query(&RangeQuery::new(0, 100)).unwrap();
        assert_eq!(out.count, 0);
        assert_eq!(out.scanned_pages, 0);
    }

    #[test]
    fn degenerate_all_equal_column() {
        let values = vec![7u64; 3 * VALUES_PER_PAGE];
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        let hit = col.query(&RangeQuery::new(7, 7)).unwrap();
        assert_eq!(hit.count, values.len() as u64);
        let miss = col.query(&RangeQuery::new(8, 100)).unwrap();
        assert_eq!(miss.count, 0);
    }

    #[test]
    fn writes_are_visible_to_subsequent_queries_via_full_view() {
        let values = clustered_values(8);
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        let updates = col.write_batch(&[(0, 999_999)]);
        assert_eq!(updates[0].old_value, values[0]);
        let out = col.query(&RangeQuery::new(999_999, 999_999)).unwrap();
        assert_eq!(out.count, 1);
        assert_eq!(col.column().value(0), 999_999);
    }

    #[test]
    fn set_routing_switches_mode() {
        let values = clustered_values(8);
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        assert_eq!(col.config().routing, RoutingMode::SingleView);
        col.set_routing(RoutingMode::MultiView);
        assert_eq!(col.config().routing, RoutingMode::MultiView);
    }

    #[test]
    fn widen_candidate_range_clamps_to_source_coverage() {
        let q = ValueRange::new(100, 200);
        // Source views cover [50, 400]; non-qualifying observations at 80
        // and 320 narrow the widened range to [81, 319].
        let w = widen_candidate_range(&q, &ValueRange::new(50, 400), Some(80), Some(320));
        assert_eq!(w, ValueRange::new(81, 319));
        // Without observations the candidate covers the whole source range.
        let w = widen_candidate_range(&q, &ValueRange::new(50, 400), None, None);
        assert_eq!(w, ValueRange::new(50, 400));
        // Observations outside the source coverage cannot widen beyond it.
        let w = widen_candidate_range(&q, &ValueRange::new(90, 210), Some(10), Some(999));
        assert_eq!(w, ValueRange::new(90, 210));
    }
}
