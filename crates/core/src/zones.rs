//! Zone statistics: the per-column value bands that order conjunctive
//! predicates and prune served reads.
//!
//! [`ZoneStats`] keeps the min/max value band and the live row count of
//! every fixed-size page group. [`ZoneStats::estimate`] turns them into a
//! [`CardinalityEstimate`]; [`crate::serve`] applies a conjunction's
//! predicates in ascending order of that estimate and skips every routed
//! page whose band misses the range ([`ZoneStats::page_may_match`]).

use asv_storage::Column;
use asv_util::ValueRange;
use asv_vmem::{Backend, VALUES_PER_PAGE};

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
/// widening at write acknowledgement and never narrowing.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveColumn;
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

    /// [`crate::serve`] applies a conjunction's predicates in ascending
    /// order of this estimate, so the narrower range must estimate fewer
    /// rows and pages than the wider one.
    #[test]
    fn estimates_rank_narrow_ranges_below_wide_ones() {
        let col = column(16);
        let stats = ZoneStats::build(col.column());
        let wide = stats.estimate(&ValueRange::new(0, 12_000)); // 13 pages
        let narrow = stats.estimate(&ValueRange::new(5_000, 6_000)); // 2 pages
        assert_eq!((wide.est_pages, narrow.est_pages), (13, 2));
        assert!(narrow.est_rows < wide.est_rows, "{narrow:?} vs {wide:?}");
        assert!(narrow.est_rows <= (2 * VALUES_PER_PAGE) as u64);
    }
}
