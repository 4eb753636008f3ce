//! The unified page-range scan kernel.
//!
//! Every query path of the reproduction — `Column::full_scan`, the adaptive
//! multi-view scan in `asv-core`, the virtual-view baseline in
//! `asv-baselines` — boils down to the same loop: walk the mapped pages of a
//! view buffer, filter each page against a value range, and fold the
//! per-page results into an accumulated answer. [`ScanKernel`] is that loop,
//! written once and run on the calling thread:
//!
//! * [`ScanKernel::scan_page`] — the per-page step (filter + merge),
//!   parameterized by [`ScanMode`] (count-only fast path, count+sum
//!   aggregation, or row-id collection), handed the page the loop scans
//!   next so the filter can prefetch it;
//! * [`ScanKernel::scan_pages`] — the sequential page loop over any page
//!   sequence, handing each page its successor;
//! * [`ScanKernel::scan_view`] — that loop over every mapped slot of one
//!   view buffer, in slot order.
//!
//! Multi-view scans with *shared* physical pages additionally need
//! cross-view deduplication; `asv-core::exec` builds that on top of
//! [`ScanKernel::scan_page`].
//!
//! Besides full page-range scans the kernel offers a **probe mode**
//! ([`ScanKernel::probe_page_rows`] / [`probe_rows`]): given a set of
//! candidate row ids it touches only the physical pages containing them and
//! re-checks the filter per candidate slot instead of per page value. No
//! engine probes: the serving layer's conjunctive reads intersect the
//! predicates' page sets and filter each page once with per-predicate
//! [`crate::QualifyMask`]s (`asv_core::serve`). Probe mode stays because
//! the benchmark's adapter measures it (`Column::probe_rows_with`).

use std::ops::Range;

use asv_util::{ThreadPool, ValueRange};
use asv_vmem::{Backend, ViewBuffer, VALUES_PER_PAGE};

use crate::column::Column;
use crate::page::{PageRef, PageScanResult};
use crate::simd::ExclusionMasks;

/// What a scan accumulates per qualifying value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ScanMode {
    /// Count qualifying values only (`sum` stays 0) — the fast path for
    /// count-only queries.
    CountOnly,
    /// Count and checksum-sum qualifying values (the default).
    #[default]
    Aggregate,
    /// Count, sum, and collect the global row ids of qualifying values.
    CollectRows,
}

/// The result of scanning a set of pages against a query range.
///
/// `result` folds the count and checksum of *all* scanned pages;
/// `below` / `above` fold the bounds that *non-qualifying* pages report
/// (paper §2.2): if a page contributes no qualifying value, everything
/// strictly between its largest below-range value and its smallest
/// above-range value provably lives on other pages.
#[derive(Clone, Debug, Default)]
pub struct ScanOutput {
    /// Aggregate over all scanned pages: count and checksum. Its bound
    /// fields stay `None` — the scan-level bounds are `below` / `above`.
    pub result: PageScanResult,
    /// Global row ids of qualifying values ([`ScanMode::CollectRows`] only).
    pub rows: Option<Vec<u64>>,
    /// Number of distinct pages scanned.
    pub scanned_pages: usize,
    /// Largest value `< range.low()` observed on *non-qualifying* pages.
    pub below: Option<u64>,
    /// Smallest value `> range.high()` observed on *non-qualifying* pages.
    pub above: Option<u64>,
}

impl ScanOutput {
    /// An empty output configured for `mode`.
    pub fn new(mode: ScanMode) -> Self {
        Self {
            rows: matches!(mode, ScanMode::CollectRows).then(Vec::new),
            ..Self::default()
        }
    }
}

/// The page-range scan kernel: a query range plus an accumulation mode,
/// optionally masking the rows of prebuilt [`ExclusionMasks`].
#[derive(Clone, Copy, Debug)]
pub struct ScanKernel<'a> {
    range: ValueRange,
    mode: ScanMode,
    /// Per-page bitmasks of the rows the scan treats as absent. `None` on
    /// every ordinary scan — the per-page fast paths are untouched then.
    excluded_masks: Option<&'a ExclusionMasks>,
}

impl<'a> ScanKernel<'a> {
    /// Creates a kernel filtering against `range` in the given `mode`.
    pub fn new(range: ValueRange, mode: ScanMode) -> Self {
        Self {
            range,
            mode,
            excluded_masks: None,
        }
    }

    /// Masks the rows of `masks` from every scanned page: excluded rows
    /// contribute neither to the aggregate nor to the widening bounds nor
    /// to the collected row ids. Probes ([`Self::probe_page_rows`]) ignore
    /// the mask.
    ///
    /// No engine read path masks rows: a served write lands in its page's
    /// copy (`asv_core::serve`). The masked mode stays because the
    /// benchmark measures it (`kernel_scan` in `benchmark/src/sut.rs`).
    pub fn with_exclusion_masks(mut self, masks: &'a ExclusionMasks) -> Self {
        self.excluded_masks = Some(masks);
        self
    }

    /// The query range this kernel filters against.
    pub fn range(&self) -> &ValueRange {
        &self.range
    }

    /// The accumulation mode.
    pub fn mode(&self) -> ScanMode {
        self.mode
    }

    /// Scans one page into `out` and returns the page's own result (so
    /// callers can react to per-page outcomes, e.g. feed qualifying pages to
    /// a view-creation sink in scan order). Every page scan of every query
    /// path is this call.
    ///
    /// `next` is the raw slots of the page the caller scans after this
    /// one. The filter prefetches it while it filters `page`, block by
    /// block, so the scan keeps streaming across the 4 KiB boundary at
    /// which the hardware prefetcher stops (see [`crate::simd`]). It never
    /// changes the answer. A sequential loop passes its successor and
    /// resolves each page once: the slice fetched as `next` is the next
    /// iteration's `page` ([`Self::scan_pages`] is that loop). A loop that
    /// cannot tell which page it scans next passes `None`.
    pub fn scan_page(
        &self,
        page: PageRef<'_>,
        next: Option<&[u64]>,
        out: &mut ScanOutput,
    ) -> PageScanResult {
        let exclusion = self
            .excluded_masks
            .and_then(|masks| masks.mask_for(page.page_id()));
        let count_only = matches!(self.mode, ScanMode::CountOnly);
        let rows = matches!(self.mode, ScanMode::CollectRows)
            .then(|| out.rows.get_or_insert_with(Vec::new));
        let res = page.filter(next, &self.range, exclusion, count_only, rows);
        out.scanned_pages += 1;
        // The filter reports bounds only for a page without qualifying
        // values, so these fold only non-qualifying pages.
        if let Some(b) = res.below_max {
            out.below = Some(out.below.map_or(b, |cur| cur.max(b)));
        }
        if let Some(a) = res.above_min {
            out.above = Some(out.above.map_or(a, |cur| cur.min(a)));
        }
        out.result.merge(&res);
        res
    }

    /// Scans the raw pages `pages` in order into `out`, handing each page
    /// its successor as `next` (see [`Self::scan_page`]). Each page is
    /// resolved once: the iterator is read one page ahead, and that slice
    /// is the page scanned next.
    ///
    /// `wrap` supplies a page's valid-value count (see
    /// [`crate::Column::wrap_view_page`]). It runs when the page is
    /// scanned, not when it is fetched as a successor, so it may read the
    /// page's pageID slot: fetching the successor touches no page memory,
    /// and the successor's first line is only loaded after its prefetch.
    pub fn scan_pages<'p, W>(
        &self,
        pages: impl IntoIterator<Item = &'p [u64]>,
        wrap: W,
        out: &mut ScanOutput,
    ) where
        W: Fn(&'p [u64]) -> PageRef<'p>,
    {
        let mut pages = pages.into_iter().peekable();
        while let Some(raw) = pages.next() {
            self.scan_page(wrap(raw), pages.peek().copied(), out);
        }
    }

    /// Probes the candidate rows `rows` (ascending global row ids, all on
    /// the page `page`) against the kernel's range, re-checking each
    /// candidate slot individually instead of scanning the whole page.
    ///
    /// Qualifying rows accumulate into `out` exactly like a scan would
    /// accumulate them ([`ScanMode`] is honoured: `CountOnly` skips the
    /// checksum, `CollectRows` appends the surviving row ids). The widening
    /// bounds `below`/`above` stay untouched — a probe observes individual
    /// slots, not whole pages, so nothing can be claimed about the page's
    /// non-qualifying content.
    pub fn probe_page_rows(&self, page: PageRef<'_>, rows: &[u64], out: &mut ScanOutput) {
        debug_assert!(rows
            .iter()
            .all(|&row| row / VALUES_PER_PAGE as u64 == page.page_id()));
        let count_only = matches!(self.mode, ScanMode::CountOnly);
        let rows_out = matches!(self.mode, ScanMode::CollectRows)
            .then(|| out.rows.get_or_insert_with(Vec::new));
        let res = page.probe_rows(&self.range, rows, count_only, rows_out);
        out.scanned_pages += 1;
        out.result.merge(&res);
    }

    /// Scans every mapped slot of `view` in slot order, wrapping each raw
    /// page via `wrap` (which supplies the valid-value count; see
    /// [`crate::Column::wrap_view_page`]). The slots are consecutive, so
    /// each page prefetches the next slot's page ([`Self::scan_pages`]).
    pub fn scan_view<'p, V, W>(&self, view: &'p V, wrap: W) -> ScanOutput
    where
        V: ViewBuffer,
        W: Fn(&'p [u64]) -> PageRef<'p>,
    {
        let mut out = ScanOutput::new(self.mode);
        let pages = (0..view.mapped_pages()).map(|slot| view.page(slot));
        self.scan_pages(pages, wrap, &mut out);
        out
    }
}

/// [`ScanKernel::scan_view`] in the form `benchmark/src/sut.rs` calls; the
/// pool has no workers, so the scan runs on the calling thread.
pub fn scan_view<'a, V, W>(
    kernel: &ScanKernel<'_>,
    view: &'a V,
    wrap: W,
    _pool: &ThreadPool,
) -> ScanOutput
where
    V: ViewBuffer,
    W: Fn(&'a [u64]) -> PageRef<'a>,
{
    kernel.scan_view(view, wrap)
}

/// Groups ascending candidate rows into per-page runs: each run is a
/// `(physical page, index range into rows)` pair.
fn group_rows_by_page(rows: &[u64]) -> Vec<(usize, Range<usize>)> {
    let mut runs: Vec<(usize, Range<usize>)> = Vec::new();
    let mut start = 0usize;
    while start < rows.len() {
        let page = (rows[start] / VALUES_PER_PAGE as u64) as usize;
        let mut end = start + 1;
        while end < rows.len() && (rows[end] / VALUES_PER_PAGE as u64) as usize == page {
            end += 1;
        }
        runs.push((page, start..end));
        start = end;
    }
    runs
}

/// Probes `rows` (ascending, duplicate-free global row ids of `column`)
/// against `kernel`'s range, touching only the physical pages that contain
/// candidates.
///
/// Pages are probed in ascending order, so `rows` in the output (with
/// [`ScanMode::CollectRows`]) stay ascending. `scanned_pages` reports the
/// number of *distinct* pages touched, which is the probe's entire page
/// effort.
pub fn probe_rows<B: Backend>(
    kernel: &ScanKernel<'_>,
    column: &Column<B>,
    rows: &[u64],
) -> ScanOutput {
    debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must ascend");
    let mut out = ScanOutput::new(kernel.mode());
    for (page, idx) in group_rows_by_page(rows) {
        kernel.probe_page_rows(column.page_ref(page), &rows[idx], &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_util::Parallelism;
    use asv_vmem::{MmapBackend, SimBackend};

    fn clustered_column<B: Backend>(backend: B, pages: usize) -> Column<B> {
        let values: Vec<u64> = (0..pages * VALUES_PER_PAGE)
            .map(|i| ((i / VALUES_PER_PAGE) * 1000 + i % VALUES_PER_PAGE) as u64)
            .collect();
        Column::from_values(backend, &values).unwrap()
    }

    #[test]
    fn count_only_mode_skips_sum() {
        let column = clustered_column(SimBackend::new(), 8);
        let kernel = ScanKernel::new(ValueRange::new(1_000, 3_400), ScanMode::CountOnly);
        let out = kernel.scan_view(column.full_view(), |raw| column.wrap_view_page(raw));
        assert!(out.result.count > 0);
        assert_eq!(out.result.sum, 0);
        assert!(out.rows.is_none());
    }

    #[test]
    fn widening_bounds_come_from_non_qualifying_pages() {
        let column = clustered_column(SimBackend::new(), 16);
        // Pages 5..=9 qualify for [5000, 9400].
        let kernel = ScanKernel::new(ValueRange::new(5_000, 9_400), ScanMode::Aggregate);
        let out = kernel.scan_view(column.full_view(), |raw| column.wrap_view_page(raw));
        // Non-qualifying neighbours: page 4 tops out at 4510, page 10
        // starts at 10000.
        assert_eq!(out.below, Some(4_000 + VALUES_PER_PAGE as u64 - 1));
        assert_eq!(out.above, Some(10_000));
        assert_eq!(out.scanned_pages, 16);
    }

    fn check_probe_matches_reference<B: Backend>(backend: B) {
        let column = clustered_column(backend, 24);
        let values = column.to_vec();
        let range = ValueRange::new(6_000, 14_200);
        // Candidates: every third row of pages 4..=20 (some qualify, some
        // don't, some pages contain no candidate at all).
        let rows: Vec<u64> = (4 * VALUES_PER_PAGE..21 * VALUES_PER_PAGE)
            .step_by(3)
            .map(|r| r as u64)
            .collect();
        let expected: Vec<u64> = rows
            .iter()
            .copied()
            .filter(|&r| range.contains(values[r as usize]))
            .collect();
        let expected_sum: u128 = expected.iter().map(|&r| values[r as usize] as u128).sum();
        let candidate_pages = 21 - 4; // distinct pages holding candidates

        let kernel = ScanKernel::new(range, ScanMode::CollectRows);
        let out = probe_rows(&kernel, &column, &rows);
        assert_eq!(out.rows.as_deref(), Some(&expected[..]));
        assert_eq!(out.result.count, expected.len() as u64);
        assert_eq!(out.result.sum, expected_sum);
        assert_eq!(
            out.scanned_pages, candidate_pages,
            "touches only candidate pages"
        );
        assert_eq!(out.below, None);
        assert_eq!(out.above, None);

        // Count-only probes skip the checksum.
        let count_only =
            column.probe_rows_with(&range, ScanMode::CountOnly, &rows, Parallelism::Sequential);
        assert_eq!(count_only.result.count, expected.len() as u64);
        assert_eq!(count_only.result.sum, 0);
        assert!(count_only.rows.is_none());
    }

    #[test]
    fn probe_matches_reference_sim() {
        check_probe_matches_reference(SimBackend::new());
    }

    #[test]
    fn probe_matches_reference_mmap() {
        check_probe_matches_reference(MmapBackend::new());
    }

    #[test]
    fn probe_with_no_candidates_is_free() {
        let column = clustered_column(SimBackend::new(), 4);
        let kernel = ScanKernel::new(ValueRange::new(0, 10), ScanMode::CollectRows);
        let out = probe_rows(&kernel, &column, &[]);
        assert_eq!(out.scanned_pages, 0);
        assert_eq!(out.result.count, 0);
    }

    #[test]
    fn group_rows_by_page_splits_runs() {
        let vpp = VALUES_PER_PAGE as u64;
        let rows = [0, 1, vpp - 1, vpp, 3 * vpp + 2, 3 * vpp + 3];
        let runs = group_rows_by_page(&rows);
        assert_eq!(runs, vec![(0, 0..3), (1, 3..4), (3, 4..6)]);
        assert!(group_rows_by_page(&[]).is_empty());
    }

    fn check_excluded_rows_are_invisible<B: Backend>(backend: B) {
        let column = clustered_column(backend, 12);
        let values = column.to_vec();
        let range = ValueRange::new(3_000, 8_400);
        // Exclude a scattering of rows, qualifying and not, across pages.
        let excluded: Vec<u64> = [
            0usize,
            3 * VALUES_PER_PAGE,
            3 * VALUES_PER_PAGE + 7,
            5 * VALUES_PER_PAGE + 100,
            11 * VALUES_PER_PAGE + VALUES_PER_PAGE - 1,
        ]
        .iter()
        .map(|&r| r as u64)
        .collect();
        let expected: Vec<u64> = (0..values.len() as u64)
            .filter(|r| !excluded.contains(r) && range.contains(values[*r as usize]))
            .collect();
        let expected_sum: u128 = expected.iter().map(|&r| values[r as usize] as u128).sum();
        let masks = ExclusionMasks::from_rows(excluded);
        for mode in [
            ScanMode::CountOnly,
            ScanMode::Aggregate,
            ScanMode::CollectRows,
        ] {
            let kernel = ScanKernel::new(range, mode).with_exclusion_masks(&masks);
            let out = kernel.scan_view(column.full_view(), |raw| column.wrap_view_page(raw));
            assert_eq!(out.result.count, expected.len() as u64, "{mode:?}");
            match mode {
                ScanMode::CountOnly => assert_eq!(out.result.sum, 0),
                _ => assert_eq!(out.result.sum, expected_sum, "{mode:?}"),
            }
            if mode == ScanMode::CollectRows {
                assert_eq!(out.rows.as_deref(), Some(&expected[..]), "{mode:?}");
            }
        }
    }

    #[test]
    fn excluded_rows_are_invisible_sim() {
        check_excluded_rows_are_invisible(SimBackend::new());
    }

    #[test]
    fn excluded_rows_are_invisible_mmap() {
        check_excluded_rows_are_invisible(MmapBackend::new());
    }

    #[test]
    fn excluded_rows_do_not_feed_widening_bounds() {
        let column = clustered_column(SimBackend::new(), 16);
        // Page 4's maximum (4510) is the widening bound below [5000, 9400];
        // excluding that row must push the bound down to 4509.
        let top_of_page_4 = (4 * VALUES_PER_PAGE + VALUES_PER_PAGE - 1) as u64;
        let masks = ExclusionMasks::from_rows(vec![top_of_page_4]);
        let kernel = ScanKernel::new(ValueRange::new(5_000, 9_400), ScanMode::Aggregate)
            .with_exclusion_masks(&masks);
        let out = kernel.scan_view(column.full_view(), |raw| column.wrap_view_page(raw));
        assert_eq!(out.below, Some(4_509));
        assert_eq!(out.above, Some(10_000));
    }
}
