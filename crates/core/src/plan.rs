//! The multi-column conjunctive query planner.
//!
//! `AdaptiveTable::query_conjunctive` used to materialize every predicate's
//! full row set and intersect sorted vectors — "one adaptive column, N
//! times". This module turns that into planned execution:
//!
//! 1. **Estimate** — every predicate's result cardinality is estimated from
//!    cheap per-column state: zone-grained page statistics ([`ZoneStats`],
//!    min/max value bands over fixed page groups, built once when a column
//!    joins the table and widened on writes) refined by the router's view
//!    state (a covering partial view bounds the pages the adaptive path
//!    would touch).
//! 2. **Order** — predicates execute cheapest-first: the most selective
//!    predicate becomes the *driving scan* and runs through the ordinary
//!    adaptive path (routing, scanning, candidate-view maintenance).
//! 3. **Probe** — the remaining predicates are evaluated as semi-join
//!    residual probes: each one re-checks only the rows that survived the
//!    previous steps, touching only the physical pages containing those
//!    rows (the probe mode of `asv_storage::ScanKernel`).
//!
//! Probes are cheap but build no views. So every probe against a column
//! whose views could *not* have covered the predicate feeds that column's
//! [`ProbeTracker`] with the predicate's [`ZoneStats`] page estimate; once
//! the accumulated page cost of uncovered probes reaches the planner's
//! budget (cost-based, not probe-count-based), the planner
//! *promotes* the predicate to a full adaptive scan ([`StepKind::
//! AdaptiveScan`]) on its next execution — the column gets its chance to
//! materialize a partial view, and the tracker resets. This keeps partial
//! views adapting under multi-column workloads even though most residual
//! work is probed.

use asv_storage::Column;
use asv_util::{Parallelism, ValueRange};
use asv_vmem::{Backend, VALUES_PER_PAGE};

use crate::adaptive::AdaptiveColumn;
use crate::query::RangeQuery;
use crate::router::route;

/// Upper bound on the number of zones [`ZoneStats`] keeps per column; small
/// columns get one zone per page (exact page bands), large columns aggregate
/// `num_pages / MAX_ZONES` pages per zone so planning cost stays bounded.
pub const MAX_ZONES: usize = 4096;

/// Zone-grained value statistics of one column: the min/max band of every
/// fixed-size page group.
///
/// Built with one sequential pass when the column joins the table; writes
/// *widen* the affected zone's band ([`ZoneStats::note_write`]), so bands
/// may grow pessimistic under updates but never exclude a value actually
/// present — estimates degrade gracefully instead of becoming wrong.
///
/// Besides ordering conjunctive predicates, the bands decide answers: a
/// served read skips every routed page [`ZoneStats::page_may_match`]
/// rejects (see [`crate::serve`]). That is sound only while a band covers
/// every value its pages hold, which the serving layer keeps true by
/// widening at write acknowledgement and rebuilding only from a store no
/// queued write is about to change.
#[derive(Clone, Debug)]
pub struct ZoneStats {
    /// Per-zone `(min, max)` over the zone's valid values; `None` for zones
    /// without any values.
    zones: Vec<Option<(u64, u64)>>,
    /// Per-zone count of valid values, so partially-filled trailing pages
    /// (and with them sparse columns) don't inflate row estimates to the
    /// zone's full page capacity.
    rows: Vec<usize>,
    pages_per_zone: usize,
    num_pages: usize,
    num_rows: usize,
}

/// A cardinality estimate derived from [`ZoneStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CardinalityEstimate {
    /// Estimated number of qualifying rows.
    pub est_rows: u64,
    /// Estimated number of pages holding at least one qualifying value
    /// (zone-granular upper bound).
    pub est_pages: usize,
}

impl ZoneStats {
    /// Builds the statistics with one pass over the column's pages.
    ///
    /// Each zone's band folds over its pages' valid values through the
    /// chunked [`asv_storage::fold_min_max_chunked`] kernel — one running
    /// `(min, max)` accumulator per zone instead of a per-page `Option`
    /// reduce-and-merge — and the same pass counts the zone's valid values,
    /// which [`ZoneStats::estimate`] uses as the row mass.
    pub fn build<B: Backend>(column: &Column<B>) -> Self {
        let num_pages = column.num_pages();
        let pages_per_zone = num_pages.div_ceil(MAX_ZONES).max(1);
        let num_zones = num_pages.div_ceil(pages_per_zone);
        let mut zones: Vec<Option<(u64, u64)>> = vec![None; num_zones];
        let mut rows: Vec<usize> = vec![0; num_zones];
        for (zone_idx, zone) in zones.iter_mut().enumerate() {
            let first = zone_idx * pages_per_zone;
            let last = (first + pages_per_zone).min(num_pages);
            let mut acc = (u64::MAX, 0u64);
            let mut zone_rows = 0usize;
            for page in first..last {
                let values = column.page_ref(page);
                let values = values.values();
                zone_rows += values.len();
                acc = asv_storage::fold_min_max_chunked(values, acc);
            }
            rows[zone_idx] = zone_rows;
            if zone_rows > 0 {
                *zone = Some(acc);
            }
        }
        Self {
            zones,
            rows,
            pages_per_zone,
            num_pages,
            num_rows: column.num_rows(),
        }
    }

    /// Number of zones kept.
    pub fn num_zones(&self) -> usize {
        self.zones.len()
    }

    /// Pages aggregated per zone.
    pub fn pages_per_zone(&self) -> usize {
        self.pages_per_zone
    }

    /// Number of valid values counted in zone `zone` at build time (0 for
    /// out-of-bounds zones). Updates don't change the count — they replace
    /// values in place — so the count stays exact under writes.
    pub fn zone_rows(&self, zone: usize) -> usize {
        self.rows.get(zone).copied().unwrap_or(0)
    }

    /// The zone index covering `row` (rows past the column map to the last
    /// zone, matching [`ZoneStats::note_write`]'s saturation behaviour).
    pub fn zone_of_row(&self, row: usize) -> usize {
        let zone = (row / VALUES_PER_PAGE) / self.pages_per_zone;
        zone.min(self.zones.len().saturating_sub(1))
    }

    /// The `(min, max)` band of zone `zone` as a [`ValueRange`], or `None`
    /// when the zone holds no values (or is out of bounds).
    pub fn zone_band(&self, zone: usize) -> Option<ValueRange> {
        self.zones
            .get(zone)
            .copied()
            .flatten()
            .map(|(lo, hi)| ValueRange::new(lo, hi))
    }

    /// `false` if physical page `page` holds no value in `range`, as far as
    /// the bands tell: its zone holds no values, its zone's band misses
    /// `range`, or the page lies past the column. `true` means the page
    /// may hold one. With more than one page per zone a page is rejected
    /// only if its whole zone misses.
    pub fn page_may_match(&self, page: usize, range: &ValueRange) -> bool {
        page < self.num_pages
            && self
                .zone_band(page / self.pages_per_zone)
                .is_some_and(|band| band.overlaps(range))
    }

    /// Widens the band of the zone containing `row` to include `new_value`.
    ///
    /// Bands only grow (the old value's contribution is not retracted), so
    /// repeated updates make estimates pessimistic, never unsound.
    pub fn note_write(&mut self, row: usize, new_value: u64) {
        let page = row / VALUES_PER_PAGE;
        if let Some(zone) = self.zones.get_mut(page / self.pages_per_zone) {
            *zone = Some(match zone {
                Some((a, b)) => ((*a).min(new_value), (*b).max(new_value)),
                None => (new_value, new_value),
            });
        }
    }

    /// Estimates result cardinality and qualifying pages for `range`,
    /// assuming values spread uniformly within each zone's band.
    ///
    /// The row mass of each zone is its *counted* valid values (not the
    /// zone's page capacity), so sparse columns and partially-filled
    /// trailing pages don't over-estimate the touched bands.
    pub fn estimate(&self, range: &ValueRange) -> CardinalityEstimate {
        let mut est_pages = 0usize;
        let mut est_rows = 0.0f64;
        for (idx, zone) in self.zones.iter().enumerate() {
            let Some((lo, hi)) = zone else { continue };
            let band = ValueRange::new(*lo, *hi);
            let Some(overlap) = band.intersect(range) else {
                continue;
            };
            // The last zone may be partial: count its actual pages.
            let zone_pages = self
                .pages_per_zone
                .min(self.num_pages - idx * self.pages_per_zone);
            est_pages += zone_pages;
            let fraction = (overlap.width() as f64 / band.width() as f64).min(1.0);
            est_rows += fraction * self.rows[idx] as f64;
        }
        CardinalityEstimate {
            est_rows: (est_rows.round() as u64).min(self.num_rows as u64),
            est_pages: est_pages.min(self.num_pages),
        }
    }
}

/// The per-predicate estimate a plan is ordered by.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredicateEstimate {
    /// Estimated result cardinality (zone statistics, view-bounded).
    pub est_rows: u64,
    /// Estimated qualifying pages (zone statistics).
    pub est_pages: usize,
    /// Pages the adaptive path would scan for this predicate, as routed
    /// against the column's current view set.
    pub routed_pages: usize,
    /// `true` if routing falls back to the full view (no partial-view
    /// cover exists) — the signal the probe tracker counts.
    pub full_scan_fallback: bool,
}

/// How one plan step is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// The driving predicate: the full adaptive path produces the initial
    /// survivor set (and maintains views as usual).
    DrivingScan,
    /// A promoted residual: runs the full adaptive path concurrently with
    /// the driving scan so the column can materialize a partial view; its
    /// row set is intersected with the survivors.
    AdaptiveScan,
    /// A semi-join residual probe restricted to the surviving rows.
    Probe,
}

/// One step of a [`ConjunctivePlan`].
#[derive(Clone, Debug)]
pub struct PlanStep {
    /// Index of the predicate in the caller's input slice.
    pub input_index: usize,
    /// Execution strategy of this step.
    pub kind: StepKind,
    /// The estimate that positioned the step.
    pub estimate: PredicateEstimate,
}

/// An ordered conjunctive execution plan. `steps` is the execution order:
/// the driving scan first, then promoted adaptive scans, then probes —
/// each group ordered by ascending estimated cardinality.
#[derive(Clone, Debug, Default)]
pub struct ConjunctivePlan {
    /// The steps in execution order.
    pub steps: Vec<PlanStep>,
}

impl ConjunctivePlan {
    /// The driving step (always present for a non-empty plan).
    pub fn driving(&self) -> Option<&PlanStep> {
        self.steps.first()
    }

    /// `executed_order[k]` = input index of the `k`-th executed step.
    pub fn executed_order(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.input_index).collect()
    }

    /// Number of steps running the full adaptive path.
    pub fn num_scans(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.kind != StepKind::Probe)
            .count()
    }

    /// Number of semi-join probe steps.
    pub fn num_probes(&self) -> usize {
        self.steps.len() - self.num_scans()
    }
}

/// One same-column group of a conjunction after predicate merging: the
/// intersection of every input range over one column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergedPredicate {
    /// Input position of the column's *first* predicate — the merged
    /// predicate answers for this representative in `executed_order`.
    pub input_idx: usize,
    /// The column all merged inputs filter.
    pub col_idx: usize,
    /// Intersection of the column's input ranges.
    pub range: ValueRange,
}

/// Merges same-column predicates of a conjunction into one closed range per
/// column (the conjunction of ranges over one column *is* their
/// intersection), preserving first-occurrence order. Returns `None` when
/// some column's predicates are mutually unsatisfiable — the whole
/// conjunction is provably empty and need not touch any column.
///
/// This unlocks planned execution for duplicate-column conjunctions, which
/// would otherwise fall back to the naive path.
pub fn merge_same_column(predicates: &[(usize, ValueRange)]) -> Option<Vec<MergedPredicate>> {
    let mut merged: Vec<MergedPredicate> = Vec::with_capacity(predicates.len());
    for (input_idx, &(col_idx, range)) in predicates.iter().enumerate() {
        match merged.iter_mut().find(|m| m.col_idx == col_idx) {
            Some(existing) => existing.range = existing.range.intersect(&range)?,
            None => merged.push(MergedPredicate {
                input_idx,
                col_idx,
                range,
            }),
        }
    }
    Some(merged)
}

/// One predicate's planning input: the column it targets, that column's
/// zone statistics, the query, and whether the column's probe tracker has
/// requested promotion.
pub struct PlanInput<'a, B: Backend> {
    /// The adaptive column the predicate filters.
    pub column: &'a AdaptiveColumn<B>,
    /// The column's zone statistics.
    pub stats: &'a ZoneStats,
    /// The predicate.
    pub query: &'a RangeQuery,
    /// `true` if this predicate should run the full adaptive path even when
    /// it is not the driving predicate (probe-tracker promotion).
    pub promoted: bool,
}

/// Builds the selectivity-ordered plan for one conjunctive query.
///
/// Pure with respect to the columns: routing is consulted immutably, no
/// views are created or modified. Ties break on the input index, so plans
/// are fully deterministic.
pub fn plan_conjunctive<B: Backend>(inputs: &[PlanInput<'_, B>]) -> ConjunctivePlan {
    let mut estimated: Vec<(usize, PredicateEstimate, bool)> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let selection = route(
                input.column.column(),
                input.column.views(),
                input.query.range(),
                input.column.config().routing,
            );
            let card = input.stats.estimate(input.query.range());
            // A covering (partial-)view selection bounds the qualifying
            // rows by the pages it indexes.
            let view_bound = (selection.indexed_pages * VALUES_PER_PAGE) as u64;
            let estimate = PredicateEstimate {
                est_rows: card.est_rows.min(view_bound),
                est_pages: card.est_pages,
                routed_pages: selection.indexed_pages,
                full_scan_fallback: selection.is_full_scan(),
            };
            (i, estimate, input.promoted)
        })
        .collect();
    estimated.sort_by_key(|(i, e, _)| (e.est_rows, e.est_pages, e.routed_pages, *i));

    let mut steps: Vec<PlanStep> = Vec::with_capacity(estimated.len());
    // The cheapest predicate drives; promoted residuals scan; the rest probe.
    for (pos, (input_index, estimate, promoted)) in estimated.iter().enumerate() {
        let kind = if pos == 0 {
            StepKind::DrivingScan
        } else if *promoted {
            StepKind::AdaptiveScan
        } else {
            StepKind::Probe
        };
        steps.push(PlanStep {
            input_index: *input_index,
            kind,
            estimate: *estimate,
        });
    }
    // Execution order: scans (driving + promoted) first, then probes, each
    // group keeping its selectivity order.
    steps.sort_by_key(|s| s.kind == StepKind::Probe);
    ConjunctivePlan { steps }
}

/// Per-column accounting of semi-join probes, driving view-adaptation
/// promotion.
///
/// A probe answers a predicate exactly but builds no partial view. The
/// tracker counts probes whose predicate the column's views could *not*
/// have covered (routing would fall back to the full view); once
/// [`ProbeTracker::should_promote`] trips, the planner runs that column's
/// next residual predicate through the full adaptive path instead, and the
/// executed promotion resets the tracker.
#[derive(Clone, Debug, Default)]
pub struct ProbeTracker {
    probes: usize,
    uncovered_probes: usize,
    uncovered_cost_pages: usize,
    probed_hull: Option<ValueRange>,
}

impl ProbeTracker {
    /// Total probes recorded since the last reset.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// Probes whose range no partial view covered.
    pub fn uncovered_probes(&self) -> usize {
        self.uncovered_probes
    }

    /// Accumulated [`ZoneStats`] page estimates of the uncovered probes:
    /// the scan work a partial view *would have saved*, had one existed.
    pub fn uncovered_cost_pages(&self) -> usize {
        self.uncovered_cost_pages
    }

    /// Hull of all probed ranges since the last reset.
    pub fn probed_hull(&self) -> Option<ValueRange> {
        self.probed_hull
    }

    /// Records a probe against `range`; `covered` says whether the column's
    /// partial views could have answered the predicate without the full
    /// view, `est_pages` is the [`ZoneStats`] page estimate of the
    /// predicate (the pages a full adaptive scan would have touched — an
    /// uncovered probe always accrues at least one page so promotion never
    /// stalls on empty estimates).
    pub fn note_probe(&mut self, range: &ValueRange, covered: bool, est_pages: usize) {
        self.probes += 1;
        if !covered {
            self.uncovered_probes += 1;
            self.uncovered_cost_pages += est_pages.max(1);
        }
        self.probed_hull = Some(match self.probed_hull {
            Some(hull) => hull.hull(range),
            None => *range,
        });
    }

    /// Returns `true` once the accumulated uncovered-probe page cost
    /// reaches `threshold_pages` (a threshold of 0 never promotes).
    ///
    /// Cost-based rather than count-based: a handful of probes over wide,
    /// expensive predicates justifies building a view sooner than many
    /// probes over single-page predicates.
    pub fn should_promote(&self, threshold_pages: usize) -> bool {
        threshold_pages > 0 && self.uncovered_cost_pages >= threshold_pages
    }

    /// Clears the tracker (called after the column ran the adaptive path).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Table-level planner configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannerConfig {
    /// `false` routes every conjunctive query through the naive
    /// scan-all-then-intersect path (useful as an equivalence baseline).
    pub enabled: bool,
    /// Page-cost budget of probe promotion: once the [`ZoneStats`] page
    /// estimates of a column's uncovered probes sum to at least this many
    /// pages, its next residual predicate is promoted to a full adaptive
    /// scan (so the column can materialize a view whose savings now
    /// outweigh its build cost); `0` disables promotion.
    pub promote_cost_pages: usize,
    /// Fork-join parallelism across the *independent column scans* of one
    /// plan (the driving scan plus promoted scans run concurrently). Scans
    /// and probes additionally honour each column's own
    /// [`crate::AdaptiveConfig::parallelism`] internally.
    pub parallelism: Parallelism,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            promote_cost_pages: 32,
            parallelism: Parallelism::Sequential,
        }
    }
}

impl PlannerConfig {
    /// Builder-style switch for planned execution.
    pub fn with_enabled(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }

    /// Builder-style setter for the promotion page-cost budget.
    pub fn with_promote_cost_pages(mut self, promote_cost_pages: usize) -> Self {
        self.promote_cost_pages = promote_cost_pages;
        self
    }

    /// Builder-style setter for the cross-column fork-join parallelism.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdaptiveConfig;
    use asv_vmem::SimBackend;

    /// Clustered data: page p holds values in [p*1000, p*1000 + 510].
    fn clustered_values(pages: usize) -> Vec<u64> {
        (0..pages * VALUES_PER_PAGE)
            .map(|i| ((i / VALUES_PER_PAGE) * 1000 + i % VALUES_PER_PAGE) as u64)
            .collect()
    }

    fn column(pages: usize) -> AdaptiveColumn<SimBackend> {
        AdaptiveColumn::from_values(
            SimBackend::new(),
            &clustered_values(pages),
            AdaptiveConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn zone_stats_are_exact_on_small_columns() {
        let col = column(16);
        let stats = ZoneStats::build(col.column());
        assert_eq!(stats.num_zones(), 16);
        assert_eq!(stats.pages_per_zone(), 1);
        // Pages 5..=9 qualify for [5000, 9400].
        let est = stats.estimate(&ValueRange::new(5_000, 9_400));
        assert_eq!(est.est_pages, 5);
        assert!(est.est_rows > 0);
        // A range outside the domain estimates empty.
        let est = stats.estimate(&ValueRange::new(50_000, 60_000));
        assert_eq!(est, CardinalityEstimate::default());
    }

    #[test]
    fn zone_stats_aggregate_large_columns() {
        let values = clustered_values(2 * MAX_ZONES + 10);
        let col = Column::from_values(SimBackend::new(), &values).unwrap();
        let stats = ZoneStats::build(&col);
        assert_eq!(stats.pages_per_zone(), 3);
        assert!(stats.num_zones() <= MAX_ZONES);
        let est = stats.estimate(&ValueRange::new(0, 5_000));
        assert!(est.est_pages >= 5);
    }

    #[test]
    fn zone_row_counts_track_partial_pages() {
        // Three full clustered pages plus a 10-value tail page.
        let mut values = clustered_values(3);
        values.extend((0..10u64).map(|i| 3_000 + i));
        let col = Column::from_values(SimBackend::new(), &values).unwrap();
        let stats = ZoneStats::build(&col);
        assert_eq!(stats.num_zones(), 4);
        assert_eq!(stats.zone_rows(0), VALUES_PER_PAGE);
        assert_eq!(stats.zone_rows(3), 10);
        assert_eq!(stats.zone_rows(4), 0, "out of bounds counts as empty");
        // The tail zone estimates its actual 10 values, not the page
        // capacity of 511.
        let est = stats.estimate(&ValueRange::new(3_000, 3_009));
        assert_eq!(est.est_pages, 1);
        assert_eq!(est.est_rows, 10);
    }

    #[test]
    fn note_write_widens_the_band() {
        let col = column(8);
        let mut stats = ZoneStats::build(col.column());
        let narrow = ValueRange::new(900_000, 950_000);
        assert_eq!(stats.estimate(&narrow).est_pages, 0);
        stats.note_write(3 * VALUES_PER_PAGE, 920_000);
        assert!(stats.estimate(&narrow).est_pages >= 1);
    }

    #[test]
    fn pages_are_skipped_only_when_their_whole_zone_misses() {
        // 8 194 pages: three pages per zone, the last zone partial (page
        // 8 193 alone).
        let pages = 2 * MAX_ZONES + 2;
        let col = Column::from_values(SimBackend::new(), &clustered_values(pages)).unwrap();
        let stats = ZoneStats::build(&col);
        assert_eq!(stats.pages_per_zone(), 3);
        assert_eq!(stats.num_zones(), pages.div_ceil(3));
        let matching = |range: ValueRange, pages: std::ops::Range<usize>| -> Vec<usize> {
            pages.filter(|&p| stats.page_may_match(p, &range)).collect()
        };
        // Only page 4 holds a value in the range; its zone is pages 3–5.
        assert_eq!(matching(ValueRange::new(4_100, 4_200), 0..12), [3, 4, 5]);
        // No page holds a value between page 4's and page 5's values, but
        // the zone's band spans the gap.
        assert_eq!(matching(ValueRange::new(4_600, 4_900), 0..12), [3, 4, 5]);
        // The last zone holds page 8 193 only; page 8 194 lies past the
        // column although it would fall into that zone.
        let last = (pages as u64 - 1) * 1_000;
        let tail = pages - 6..pages + 3;
        assert_eq!(
            matching(ValueRange::point(last + 100), tail.clone()),
            [pages - 1]
        );
        assert_eq!(
            matching(ValueRange::full(), tail),
            (pages - 6..pages).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_zones_are_skipped_until_a_write_widens_them() {
        // Two full pages and five rows in a store of eight pages.
        let values: Vec<u64> = (0..2 * VALUES_PER_PAGE as u64 + 5).collect();
        let col = Column::from_values_with_capacity(SimBackend::new(), &values, 8).unwrap();
        let mut stats = ZoneStats::build(&col);
        assert_eq!(stats.num_zones(), 8);
        let full = ValueRange::full();
        let matching = |stats: &ZoneStats, range: &ValueRange| -> Vec<usize> {
            (0..8).filter(|&p| stats.page_may_match(p, range)).collect()
        };
        assert_eq!(matching(&stats, &full), [0, 1, 2], "pages past the data");
        assert_eq!(stats.zone_band(5), None);
        stats.note_write(5 * VALUES_PER_PAGE + 9, 42);
        assert_eq!(stats.zone_band(5), Some(ValueRange::point(42)));
        assert_eq!(matching(&stats, &full), [0, 1, 2, 5]);
        assert_eq!(matching(&stats, &ValueRange::new(40, 42)), [0, 5]);
        assert_eq!(
            matching(&stats, &ValueRange::new(2_000, 9_999)),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn plan_orders_by_estimated_cardinality() {
        let wide_col = column(16);
        let narrow_col = column(16);
        let wide_stats = ZoneStats::build(wide_col.column());
        let narrow_stats = ZoneStats::build(narrow_col.column());
        let wide = RangeQuery::new(0, 12_000); // ~13 pages
        let narrow = RangeQuery::new(5_000, 6_000); // ~2 pages
        let plan = plan_conjunctive(&[
            PlanInput {
                column: &wide_col,
                stats: &wide_stats,
                query: &wide,
                promoted: false,
            },
            PlanInput {
                column: &narrow_col,
                stats: &narrow_stats,
                query: &narrow,
                promoted: false,
            },
        ]);
        assert_eq!(plan.steps.len(), 2);
        assert_eq!(plan.driving().unwrap().input_index, 1);
        assert_eq!(plan.driving().unwrap().kind, StepKind::DrivingScan);
        assert_eq!(plan.steps[1].kind, StepKind::Probe);
        assert_eq!(plan.executed_order(), vec![1, 0]);
        assert_eq!(plan.num_scans(), 1);
        assert_eq!(plan.num_probes(), 1);
        assert!(plan.steps[0].estimate.est_rows <= plan.steps[1].estimate.est_rows);
    }

    #[test]
    fn promoted_predicates_scan_before_probes() {
        let cols: Vec<AdaptiveColumn<SimBackend>> = (0..3).map(|_| column(16)).collect();
        let stats: Vec<ZoneStats> = cols.iter().map(|c| ZoneStats::build(c.column())).collect();
        let q0 = RangeQuery::new(5_000, 6_000); // driving (cheapest)
        let q1 = RangeQuery::new(0, 12_000); // widest, promoted
        let q2 = RangeQuery::new(2_000, 8_000); // middle, probed
        let plan = plan_conjunctive(&[
            PlanInput {
                column: &cols[0],
                stats: &stats[0],
                query: &q0,
                promoted: false,
            },
            PlanInput {
                column: &cols[1],
                stats: &stats[1],
                query: &q1,
                promoted: true,
            },
            PlanInput {
                column: &cols[2],
                stats: &stats[2],
                query: &q2,
                promoted: false,
            },
        ]);
        let kinds: Vec<StepKind> = plan.steps.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                StepKind::DrivingScan,
                StepKind::AdaptiveScan,
                StepKind::Probe
            ]
        );
        assert_eq!(plan.executed_order(), vec![0, 1, 2]);
        assert_eq!(plan.num_scans(), 2);
    }

    #[test]
    fn routing_refines_the_estimate() {
        let mut col = column(32);
        // Materialize a small covering view for [5000, 9400] (5 pages).
        col.query(&RangeQuery::new(5_000, 9_400)).unwrap();
        let stats = ZoneStats::build(col.column());
        let q = RangeQuery::new(6_000, 8_000);
        let plan = plan_conjunctive(&[PlanInput {
            column: &col,
            stats: &stats,
            query: &q,
            promoted: false,
        }]);
        let est = plan.driving().unwrap().estimate;
        assert!(!est.full_scan_fallback);
        assert!(est.routed_pages <= 5);
        assert!(est.est_rows <= (est.routed_pages * VALUES_PER_PAGE) as u64);
    }

    #[test]
    fn probe_tracker_promotes_on_accumulated_page_cost() {
        let mut t = ProbeTracker::default();
        assert!(!t.should_promote(8));
        // Covered probes accrue no cost, whatever their estimate.
        t.note_probe(&ValueRange::new(0, 10), true, 100);
        assert_eq!(t.probes(), 1);
        assert_eq!(t.uncovered_probes(), 0);
        assert_eq!(t.uncovered_cost_pages(), 0);
        // Uncovered probes accrue their page estimates; a wide predicate
        // reaches the budget faster than many narrow ones.
        t.note_probe(&ValueRange::new(20, 30), false, 5);
        assert!(!t.should_promote(8));
        t.note_probe(&ValueRange::new(5, 15), false, 3);
        assert_eq!(t.uncovered_probes(), 2);
        assert_eq!(t.uncovered_cost_pages(), 8);
        assert!(t.should_promote(8));
        assert!(!t.should_promote(0), "threshold 0 disables promotion");
        assert_eq!(t.probed_hull(), Some(ValueRange::new(0, 30)));
        t.reset();
        assert_eq!(t.probes(), 0);
        assert_eq!(t.uncovered_cost_pages(), 0);
        assert_eq!(t.probed_hull(), None);
    }

    #[test]
    fn empty_estimates_still_accrue_promotion_cost() {
        let mut t = ProbeTracker::default();
        for _ in 0..3 {
            t.note_probe(&ValueRange::new(0, 1), false, 0);
        }
        assert_eq!(t.uncovered_cost_pages(), 3, "floor of one page per probe");
        assert!(t.should_promote(3));
    }

    #[test]
    fn planner_config_builders() {
        let c = PlannerConfig::default();
        assert!(c.enabled);
        assert_eq!(c.promote_cost_pages, 32);
        assert_eq!(c.parallelism, Parallelism::Sequential);
        let c = c
            .with_enabled(false)
            .with_promote_cost_pages(7)
            .with_parallelism(Parallelism::Threads(2));
        assert!(!c.enabled);
        assert_eq!(c.promote_cost_pages, 7);
        assert_eq!(c.parallelism, Parallelism::Threads(2));
    }
}
