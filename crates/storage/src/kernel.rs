//! The unified page-range scan kernel.
//!
//! Every query path of the reproduction — `Column::full_scan`, the adaptive
//! multi-view scan in `asv-core`, the virtual-view baseline in
//! `asv-baselines` — boils down to the same loop: walk the mapped pages of a
//! view buffer, filter each page against a value range, and fold the
//! per-page results into an accumulated answer. [`ScanKernel`] is that loop,
//! extracted once so that sequential and parallel execution share a single
//! code path:
//!
//! * [`ScanKernel::scan_page`] — the per-page step (filter + merge),
//!   parameterized by [`ScanMode`] (count-only fast path, count+sum
//!   aggregation, or row-id collection), handed the page the loop scans
//!   next so the filter can prefetch it;
//! * [`ScanKernel::scan_pages`] — the sequential page loop over any page
//!   sequence, handing each page its successor;
//! * [`ScanKernel::scan_view_slots`] — evaluates an arbitrary slot range of
//!   any view buffer, the shard primitive of parallel execution;
//! * [`scan_view`] — shards a whole view across a [`ThreadPool`] and merges
//!   the partial [`ScanOutput`]s (slot-sharded: correct whenever the view
//!   maps every physical page at most once, which holds for the full view
//!   and for all partial views the creation path produces).
//!
//! Multi-view scans with *shared* physical pages additionally need
//! cross-view deduplication; `asv-core::exec` builds that on top of
//! [`ScanKernel::scan_view_slots`] with page-id-sharding.
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

use asv_util::{split_ranges, Parallelism, ThreadPool, ValueRange};
use asv_vmem::{Backend, ViewBuffer, VALUES_PER_PAGE};

use crate::column::Column;
use crate::page::{PageRef, PageScanResult};
use crate::simd::{ExclusionMasks, PageExclusionMask};

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

/// The mergeable result of scanning a set of pages against a query range.
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

    /// Folds another (shard's) output into this one. All fields merge
    /// order-independently except `rows`, which append in call order —
    /// parallel callers merge shards in ascending page-range order to keep
    /// the output deterministic.
    pub fn merge(&mut self, other: ScanOutput) {
        self.result.merge(&other.result);
        self.scanned_pages += other.scanned_pages;
        self.below = match (self.below, other.below) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.above = match (self.above, other.above) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        match (&mut self.rows, other.rows) {
            (Some(mine), Some(theirs)) => mine.extend(theirs),
            (mine @ None, theirs @ Some(_)) => *mine = theirs,
            _ => {}
        }
    }
}

/// The page-range scan kernel: a query range plus an accumulation mode,
/// optionally masking a set of *excluded rows* (the overlay-aware read
/// path: rows with queued-but-unaligned writes are skipped by the scan and
/// answered from the write queue by the caller).
#[derive(Clone, Copy, Debug)]
pub struct ScanKernel<'a> {
    range: ValueRange,
    mode: ScanMode,
    /// Ascending global row ids the scan must treat as absent. Empty on
    /// every ordinary scan — the per-page fast paths are untouched then.
    excluded_rows: &'a [u64],
    /// Precomputed per-page exclusion bitmasks for `excluded_rows`, when
    /// the caller holds them (built once per overlay epoch). Without them
    /// the kernel derives each visited page's mask on the fly.
    excluded_masks: Option<&'a ExclusionMasks>,
}

impl<'a> ScanKernel<'a> {
    /// Creates a kernel filtering against `range` in the given `mode`.
    pub fn new(range: ValueRange, mode: ScanMode) -> Self {
        Self {
            range,
            mode,
            excluded_rows: &[],
            excluded_masks: None,
        }
    }

    /// Masks `rows` (ascending global row ids) from every scanned page:
    /// excluded rows contribute neither to the aggregate nor to the
    /// widening bounds nor to the collected row ids.
    ///
    /// This powers the serving layer's overlay-aware read path: while
    /// writes are queued during an alignment round, scans skip the
    /// stored (stale or not-yet-written) values of the queued rows and the
    /// query layer adds the queued values back afterwards, so every
    /// acknowledged write is reflected exactly once. Probes
    /// ([`Self::probe_page_rows`]) ignore the mask — their candidate lists
    /// are filtered by the caller instead.
    ///
    /// Callers that scan the same exclusion set repeatedly should build an
    /// [`ExclusionMasks`] once and pass it via
    /// [`Self::with_exclusion_masks`] instead.
    pub fn with_excluded_rows(mut self, rows: &'a [u64]) -> Self {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must ascend");
        self.excluded_rows = rows;
        self.excluded_masks = None;
        self
    }

    /// Like [`Self::with_excluded_rows`], but reusing per-page exclusion
    /// bitmasks the caller precomputed (once per overlay epoch) instead of
    /// re-deriving them on every page visit.
    pub fn with_exclusion_masks(mut self, masks: &'a ExclusionMasks) -> Self {
        self.excluded_rows = masks.rows();
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

    /// The rows masked from every scan (empty unless the overlay-aware read
    /// path is active).
    pub fn excluded_rows(&self) -> &'a [u64] {
        self.excluded_rows
    }

    /// Derives the exclusion bitmask of `page` from the excluded row list,
    /// if any of its slots are excluded — the path of kernels that carry no
    /// precomputed [`ExclusionMasks`].
    fn derive_exclusion_mask(&self, page: &PageRef<'_>) -> Option<PageExclusionMask> {
        if self.excluded_rows.is_empty() {
            return None;
        }
        let base = page.page_id() * VALUES_PER_PAGE as u64;
        let end = base + VALUES_PER_PAGE as u64;
        let lo = self.excluded_rows.partition_point(|&r| r < base);
        let hi = self.excluded_rows.partition_point(|&r| r < end);
        if lo == hi {
            return None;
        }
        Some(PageExclusionMask::from_slots(
            self.excluded_rows[lo..hi]
                .iter()
                .map(|&r| (r - base) as usize),
        ))
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
        let derived;
        let exclusion = match self.excluded_masks {
            Some(masks) => masks.mask_for(page.page_id()),
            None => {
                derived = self.derive_exclusion_mask(&page);
                derived.as_ref()
            }
        };
        let count_only = matches!(self.mode, ScanMode::CountOnly);
        let rows = matches!(self.mode, ScanMode::CollectRows)
            .then(|| out.rows.get_or_insert_with(Vec::new));
        let res = page.filter(next, &self.range, exclusion, count_only, rows);
        out.scanned_pages += 1;
        if res.count == 0 {
            if let Some(b) = res.below_max {
                out.below = Some(out.below.map_or(b, |cur| cur.max(b)));
            }
            if let Some(a) = res.above_min {
                out.above = Some(out.above.map_or(a, |cur| cur.min(a)));
            }
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

    /// Evaluates the view slots `slots` of `view`, wrapping each raw page
    /// via `wrap` (which supplies the valid-value count; see
    /// [`crate::Column::wrap_view_page`]).
    ///
    /// This is the shard primitive: a parallel scan hands each worker a
    /// disjoint slot range of the same view. The slots are consecutive, so
    /// each page prefetches the next slot's page ([`Self::scan_pages`]).
    pub fn scan_view_slots<'p, V, W>(
        &self,
        view: &'p V,
        slots: Range<usize>,
        wrap: W,
        out: &mut ScanOutput,
    ) where
        V: ViewBuffer,
        W: Fn(&'p [u64]) -> PageRef<'p>,
    {
        debug_assert!(slots.end <= view.mapped_pages());
        self.scan_pages(slots.map(|slot| view.page(slot)), wrap, out);
    }
}

/// Scans all mapped pages of `view` with `kernel`, sharding the slot range
/// across `pool` and merging the partial outputs in slot order.
///
/// Slot-sharding assumes the view maps every physical page at most once
/// (true for the full view and for every view the creation path builds);
/// multi-view scans with shared pages deduplicate them in `asv-core::exec`.
pub fn scan_view<'a, V, W>(
    kernel: &ScanKernel<'_>,
    view: &'a V,
    wrap: W,
    pool: &ThreadPool,
) -> ScanOutput
where
    V: ViewBuffer,
    W: Fn(&'a [u64]) -> PageRef<'a> + Sync,
{
    let mapped = view.mapped_pages();
    if pool.workers() <= 1 || mapped < 2 {
        let mut out = ScanOutput::new(kernel.mode());
        kernel.scan_view_slots(view, 0..mapped, &wrap, &mut out);
        return out;
    }
    let shards = split_ranges(mapped, pool.workers());
    let wrap = &wrap;
    let partials = pool.scoped_map(
        shards
            .into_iter()
            .map(|slots| {
                move || {
                    let mut out = ScanOutput::new(kernel.mode());
                    kernel.scan_view_slots(view, slots, wrap, &mut out);
                    out
                }
            })
            .collect(),
    );
    let mut merged = ScanOutput::new(kernel.mode());
    for partial in partials {
        merged.merge(partial);
    }
    merged
}

/// Convenience wrapper: [`scan_view`] driven by a [`Parallelism`] setting.
pub fn scan_view_with<'a, V, W>(
    kernel: &ScanKernel<'_>,
    view: &'a V,
    wrap: W,
    parallelism: Parallelism,
) -> ScanOutput
where
    V: ViewBuffer,
    W: Fn(&'a [u64]) -> PageRef<'a> + Sync,
{
    scan_view(kernel, view, wrap, &ThreadPool::new(parallelism))
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
/// The per-page runs are sharded across `pool` and the partial outputs are
/// merged in ascending page order, so `rows` in the output (with
/// [`ScanMode::CollectRows`]) stay ascending and the result is identical
/// for every worker count. `scanned_pages` reports the number of *distinct*
/// pages touched, which is the probe's entire page effort.
pub fn probe_rows<B: Backend>(
    kernel: &ScanKernel<'_>,
    column: &Column<B>,
    rows: &[u64],
    pool: &ThreadPool,
) -> ScanOutput {
    debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must ascend");
    let mut merged = ScanOutput::new(kernel.mode());
    if rows.is_empty() {
        return merged;
    }
    let runs = group_rows_by_page(rows);
    let probe_runs = |slice: &[(usize, Range<usize>)], out: &mut ScanOutput| {
        for (page, idx) in slice {
            kernel.probe_page_rows(column.page_ref(*page), &rows[idx.clone()], out);
        }
    };
    if pool.workers() <= 1 || runs.len() < 2 {
        probe_runs(&runs, &mut merged);
        return merged;
    }
    let shards = split_ranges(runs.len(), pool.workers());
    let runs = &runs;
    let probe_runs = &probe_runs;
    let partials = pool.scoped_map(
        shards
            .into_iter()
            .map(|shard| {
                move || {
                    let mut out = ScanOutput::new(kernel.mode());
                    probe_runs(&runs[shard], &mut out);
                    out
                }
            })
            .collect(),
    );
    for partial in partials {
        merged.merge(partial);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_vmem::{MmapBackend, SimBackend};

    fn clustered_column<B: Backend>(backend: B, pages: usize) -> Column<B> {
        let values: Vec<u64> = (0..pages * VALUES_PER_PAGE)
            .map(|i| ((i / VALUES_PER_PAGE) * 1000 + i % VALUES_PER_PAGE) as u64)
            .collect();
        Column::from_values(backend, &values).unwrap()
    }

    fn check_parallel_matches_sequential<B: Backend>(backend: B) {
        let column = clustered_column(backend, 37);
        let range = ValueRange::new(4_000, 21_300);
        for mode in [
            ScanMode::CountOnly,
            ScanMode::Aggregate,
            ScanMode::CollectRows,
        ] {
            let kernel = ScanKernel::new(range, mode);
            let seq = scan_view(
                &kernel,
                column.full_view(),
                |raw| column.wrap_view_page(raw),
                &ThreadPool::with_workers(1),
            );
            for workers in [2usize, 3, 8] {
                let par = scan_view(
                    &kernel,
                    column.full_view(),
                    |raw| column.wrap_view_page(raw),
                    &ThreadPool::with_workers(workers),
                );
                assert_eq!(par.result.count, seq.result.count, "{mode:?}/{workers}");
                assert_eq!(par.result.sum, seq.result.sum, "{mode:?}/{workers}");
                assert_eq!(par.scanned_pages, seq.scanned_pages, "{mode:?}/{workers}");
                assert_eq!(par.below, seq.below, "{mode:?}/{workers}");
                assert_eq!(par.above, seq.above, "{mode:?}/{workers}");
                // Shards merge in slot order, so even row ids line up.
                assert_eq!(par.rows, seq.rows, "{mode:?}/{workers}");
            }
        }
    }

    #[test]
    fn parallel_scan_matches_sequential_sim() {
        check_parallel_matches_sequential(SimBackend::new());
    }

    #[test]
    fn parallel_scan_matches_sequential_mmap() {
        check_parallel_matches_sequential(MmapBackend::new());
    }

    #[test]
    fn count_only_mode_skips_sum() {
        let column = clustered_column(SimBackend::new(), 8);
        let kernel = ScanKernel::new(ValueRange::new(1_000, 3_400), ScanMode::CountOnly);
        let out = scan_view_with(
            &kernel,
            column.full_view(),
            |raw| column.wrap_view_page(raw),
            Parallelism::Sequential,
        );
        assert!(out.result.count > 0);
        assert_eq!(out.result.sum, 0);
        assert!(out.rows.is_none());
    }

    #[test]
    fn widening_bounds_come_from_non_qualifying_pages() {
        let column = clustered_column(SimBackend::new(), 16);
        // Pages 5..=9 qualify for [5000, 9400].
        let kernel = ScanKernel::new(ValueRange::new(5_000, 9_400), ScanMode::Aggregate);
        let mut out = ScanOutput::new(kernel.mode());
        kernel.scan_view_slots(
            column.full_view(),
            0..column.num_pages(),
            |raw| column.wrap_view_page(raw),
            &mut out,
        );
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
        let seq = probe_rows(&kernel, &column, &rows, &ThreadPool::with_workers(1));
        assert_eq!(seq.rows.as_deref(), Some(&expected[..]));
        assert_eq!(seq.result.count, expected.len() as u64);
        assert_eq!(seq.result.sum, expected_sum);
        assert_eq!(
            seq.scanned_pages, candidate_pages,
            "touches only candidate pages"
        );
        assert_eq!(seq.below, None);
        assert_eq!(seq.above, None);

        for workers in [2usize, 3, 8] {
            let par = probe_rows(&kernel, &column, &rows, &ThreadPool::with_workers(workers));
            assert_eq!(par.rows, seq.rows, "workers={workers}");
            assert_eq!(par.result.count, seq.result.count, "workers={workers}");
            assert_eq!(par.result.sum, seq.result.sum, "workers={workers}");
            assert_eq!(par.scanned_pages, seq.scanned_pages, "workers={workers}");
        }

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
        let out = probe_rows(&kernel, &column, &[], &ThreadPool::with_workers(4));
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
        for mode in [
            ScanMode::CountOnly,
            ScanMode::Aggregate,
            ScanMode::CollectRows,
        ] {
            let kernel = ScanKernel::new(range, mode).with_excluded_rows(&excluded);
            for workers in [1usize, 3] {
                let out = scan_view(
                    &kernel,
                    column.full_view(),
                    |raw| column.wrap_view_page(raw),
                    &ThreadPool::with_workers(workers),
                );
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
        let kernel = ScanKernel::new(ValueRange::new(5_000, 9_400), ScanMode::Aggregate)
            .with_excluded_rows(std::slice::from_ref(&top_of_page_4));
        assert_eq!(kernel.excluded_rows(), &[top_of_page_4]);
        let out = scan_view(
            &kernel,
            column.full_view(),
            |raw| column.wrap_view_page(raw),
            &ThreadPool::with_workers(1),
        );
        assert_eq!(out.below, Some(4_509));
        assert_eq!(out.above, Some(10_000));
    }

    #[test]
    fn merge_combines_all_fields() {
        let mut a = ScanOutput {
            result: PageScanResult {
                count: 2,
                sum: 10,
                below_max: None,
                above_min: None,
            },
            rows: Some(vec![1, 2]),
            scanned_pages: 3,
            below: Some(5),
            above: Some(100),
        };
        let b = ScanOutput {
            result: PageScanResult {
                count: 1,
                sum: 7,
                below_max: Some(3),
                above_min: None,
            },
            rows: Some(vec![9]),
            scanned_pages: 2,
            below: Some(8),
            above: Some(90),
        };
        a.merge(b);
        assert_eq!(a.result.count, 3);
        assert_eq!(a.result.sum, 17);
        assert_eq!(a.scanned_pages, 5);
        assert_eq!(a.below, Some(8));
        assert_eq!(a.above, Some(90));
        assert_eq!(a.rows.as_deref(), Some(&[1, 2, 9][..]));
    }
}
