//! Page layout and page-level scan kernels.
//!
//! A page is [`asv_vmem::SLOTS_PER_PAGE`] (= 512) `u64` slots: slot 0 holds
//! the embedded pageID, slots `1..=VALUES_PER_PAGE` hold values. The last
//! page of a column may be partially filled; [`PageRef`] therefore carries
//! the number of valid values.

use asv_util::ValueRange;
use asv_vmem::{SLOTS_PER_PAGE, VALUES_PER_PAGE};

use crate::simd::{self, PageExclusionMask, QualifyMask};

/// Index of the slot holding the embedded pageID.
pub const PAGE_ID_SLOT: usize = 0;

/// Result of filtering one page against a query range.
///
/// Besides the aggregate of qualifying values, a page **without a
/// qualifying value** reports its largest value below the range and its
/// smallest value above it. Those bounds drive the range-widening step of
/// adaptive view creation (paper §2.2): if a page contains *no* qualifying
/// value, every value strictly between its `below_max` and `above_min` is
/// known to live on other (qualifying) pages. A page with a qualifying
/// value says nothing of that kind, and the production filter reports no
/// bounds for it (the `*_scalar` reference loops still do; nothing may
/// rely on that).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PageScanResult {
    /// Number of values on the page that fall into the query range.
    pub count: u64,
    /// Sum of the qualifying values (used as a result checksum).
    pub sum: u128,
    /// Largest value on the page that is strictly below the query range.
    /// Reported only when `count == 0`.
    pub below_max: Option<u64>,
    /// Smallest value on the page that is strictly above the query range.
    /// Reported only when `count == 0`.
    pub above_min: Option<u64>,
}

impl PageScanResult {
    /// Returns `true` if no value on the page qualified.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds another page's aggregate (count and checksum) into this one —
    /// how a query result accumulates over many pages. The bounds are facts
    /// about one non-qualifying page and are not merged; a scan folds them
    /// into [`crate::ScanOutput::below`] / [`crate::ScanOutput::above`].
    pub fn merge(&mut self, other: &PageScanResult) {
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// A read-only reference to one page of a column, with layout knowledge.
#[derive(Clone, Copy, Debug)]
pub struct PageRef<'a> {
    data: &'a [u64],
    valid_values: usize,
}

impl<'a> PageRef<'a> {
    /// Wraps a raw page slice.
    ///
    /// `valid_values` is the number of value slots in use on this page
    /// (always [`VALUES_PER_PAGE`] except possibly on the last page of a
    /// column).
    ///
    /// # Panics
    /// Panics if the slice is not exactly one page long or if
    /// `valid_values > VALUES_PER_PAGE`.
    pub fn new(data: &'a [u64], valid_values: usize) -> Self {
        assert_eq!(
            data.len(),
            SLOTS_PER_PAGE,
            "a page must be exactly {SLOTS_PER_PAGE} slots"
        );
        assert!(
            valid_values <= VALUES_PER_PAGE,
            "valid_values {valid_values} exceeds {VALUES_PER_PAGE}"
        );
        Self { data, valid_values }
    }

    /// The pageID embedded in slot 0.
    #[inline]
    pub fn page_id(&self) -> u64 {
        self.data[PAGE_ID_SLOT]
    }

    /// Number of valid values stored on this page.
    #[inline]
    pub fn valid_values(&self) -> usize {
        self.valid_values
    }

    /// The valid values of this page (excluding the pageID header).
    #[inline]
    pub fn values(&self) -> &'a [u64] {
        &self.data[1..1 + self.valid_values]
    }

    /// The raw page slice including the header slot.
    #[inline]
    pub fn raw(&self) -> &'a [u64] {
        self.data
    }

    /// The pageID slot followed by the valid values: what the page filter
    /// of [`crate::simd`] runs over. Sliced here, once per page, so the
    /// filter's loops see a plain `&[u64]` and index nothing.
    #[inline]
    pub(crate) fn slots(&self) -> &'a [u64] {
        &self.data[..=self.valid_values]
    }

    /// The value stored at value-slot `idx` (0-based, header excluded).
    ///
    /// # Panics
    /// Panics if `idx >= self.valid_values()`.
    #[inline]
    pub fn value(&self, idx: usize) -> u64 {
        assert!(idx < self.valid_values, "value slot {idx} out of bounds");
        self.data[1 + idx]
    }

    /// Minimum and maximum of the valid values, if the page is non-empty.
    ///
    /// Computed with the chunked branch-free fold of [`crate::simd`].
    pub fn min_max(&self) -> Option<(u64, u64)> {
        simd::min_max_chunked(self.values())
    }

    /// Filters the page against `range`, producing the count and checksum
    /// of its qualifying values — or, if it has none, the bounds needed for
    /// range widening.
    ///
    /// This is the `page.scanAndFilter(q)` primitive of Listing 1,
    /// evaluated by the page filter of [`crate::simd`] (bit-identical to
    /// [`Self::scan_filter_scalar`] up to the narrowed bounds contract of
    /// [`PageScanResult`]).
    pub fn scan_filter(&self, range: &ValueRange) -> PageScanResult {
        self.filter(None, range, None, false, None)
    }

    /// Count-only variant of [`Self::scan_filter`]: skips the checksum
    /// accumulation (`sum` stays 0) — the fast path for `COUNT(*)`-style
    /// queries.
    pub fn scan_filter_count(&self, range: &ValueRange) -> PageScanResult {
        self.filter(None, range, None, true, None)
    }

    /// Like [`Self::scan_filter`], but additionally appends the global row
    /// ids of qualifying values to `rows_out`.
    ///
    /// The global row id is reconstructed from the embedded pageID — this is
    /// exactly why the paper embeds it: a partial view maps an arbitrary
    /// subset of pages, so the slot position within the view says nothing
    /// about the tuple.
    pub fn scan_filter_collect(
        &self,
        range: &ValueRange,
        rows_out: &mut Vec<u64>,
    ) -> PageScanResult {
        self.filter(None, range, None, false, Some(rows_out))
    }

    /// Filters the page against `range` while treating the slots set in
    /// `exclusion` as *absent*: excluded slots contribute neither to the
    /// aggregate nor to the widening bounds nor to the collected rows.
    ///
    /// This is the overlay-aware read path: while a served column holds
    /// queued (not yet aligned) writes, the scan skips the stored values of
    /// the affected rows entirely and the query layer substitutes the
    /// queued values afterwards — so answers reflect every acknowledged
    /// write exactly once. `count_only` skips the checksum accumulation
    /// (the [`Self::scan_filter_count`] equivalent); `rows_out` enables
    /// row-id collection (the [`Self::scan_filter_collect`] equivalent).
    ///
    /// Exclusion bits beyond the valid value count are ignored (the scan
    /// never reads those slots).
    pub fn scan_filter_excluding(
        &self,
        range: &ValueRange,
        exclusion: &PageExclusionMask,
        count_only: bool,
        rows_out: Option<&mut Vec<u64>>,
    ) -> PageScanResult {
        self.filter(None, range, Some(exclusion), count_only, rows_out)
    }

    /// All four scan entry points above, and [`crate::ScanKernel`], are
    /// this one call into the build of the page filter selected for the
    /// running CPU. The single-page entry points above have no successor;
    /// [`crate::ScanKernel::scan_page`] passes the raw slots of the page a
    /// loop scans next as `next`, which the filter prefetches.
    #[inline]
    pub(crate) fn filter(
        &self,
        next: Option<&[u64]>,
        range: &ValueRange,
        exclusion: Option<&PageExclusionMask>,
        count_only: bool,
        rows_out: Option<&mut Vec<u64>>,
    ) -> PageScanResult {
        simd::selected_variant().filter(self, next, range, exclusion, count_only, rows_out)
    }

    /// Narrows `mask` to the slots of this page whose value lies in
    /// `range` (see [`crate::simd::QualifyMask`]); slots past the valid
    /// values are cleared. `next`, the raw slots of the page the caller
    /// reads next, is prefetched and changes no answer.
    #[inline]
    pub fn retain_qualifying(
        &self,
        next: Option<&[u64]>,
        range: &ValueRange,
        mask: &mut QualifyMask,
    ) {
        simd::selected_variant().retain_qualifying(self, next, range, mask)
    }

    /// Qualifies the candidate rows `rows` (ascending global row ids, all
    /// on this page) one slot at a time — the per-page step of
    /// [`crate::ScanKernel::probe_page_rows`]. Reports no bounds: a probe
    /// observes individual slots, not the page.
    ///
    /// A plain per-row loop on purpose: candidates are few and scattered
    /// per page, and gathering them into lanes first measured slower at
    /// every selectivity in a microbenchmark, also when compiled for AVX2.
    ///
    /// # Panics
    /// Panics if a row's slot is not a valid value slot of this page.
    pub fn probe_rows(
        &self,
        range: &ValueRange,
        rows: &[u64],
        count_only: bool,
        mut rows_out: Option<&mut Vec<u64>>,
    ) -> PageScanResult {
        let base_row = self.page_id() * VALUES_PER_PAGE as u64;
        let mut res = PageScanResult::default();
        for &row in rows {
            let slot = (row - base_row) as usize;
            let v = self.value(slot);
            if range.contains(v) {
                res.count += 1;
                if !count_only {
                    res.sum += v as u128;
                }
                if let Some(rows) = rows_out.as_deref_mut() {
                    rows.push(row);
                }
            }
        }
        res
    }
}

/// Scalar reference implementations.
///
/// These are the original per-value loops the page filter of
/// [`crate::simd`] replaced. They are kept (and exercised) as the oracle:
/// the differential property tests assert every compiled build of the
/// filter matches them bit-identically. They report the bounds for every
/// page, also where the filter no longer does.
impl PageRef<'_> {
    /// Scalar reference of [`Self::scan_filter`] (branchy per-value loop).
    pub fn scan_filter_scalar(&self, range: &ValueRange) -> PageScanResult {
        let mut res = PageScanResult::default();
        for &v in self.values() {
            if range.contains(v) {
                res.count += 1;
                res.sum += v as u128;
            } else if v < range.low() {
                res.below_max = Some(res.below_max.map_or(v, |b| b.max(v)));
            } else {
                res.above_min = Some(res.above_min.map_or(v, |a| a.min(v)));
            }
        }
        res
    }

    /// Scalar reference of [`Self::scan_filter_count`].
    pub fn scan_filter_count_scalar(&self, range: &ValueRange) -> PageScanResult {
        let mut res = PageScanResult::default();
        for &v in self.values() {
            if range.contains(v) {
                res.count += 1;
            } else if v < range.low() {
                res.below_max = Some(res.below_max.map_or(v, |b| b.max(v)));
            } else {
                res.above_min = Some(res.above_min.map_or(v, |a| a.min(v)));
            }
        }
        res
    }

    /// Scalar reference of [`Self::scan_filter_collect`].
    pub fn scan_filter_collect_scalar(
        &self,
        range: &ValueRange,
        rows_out: &mut Vec<u64>,
    ) -> PageScanResult {
        let mut res = PageScanResult::default();
        let base_row = self.page_id() * VALUES_PER_PAGE as u64;
        for (idx, &v) in self.values().iter().enumerate() {
            if range.contains(v) {
                res.count += 1;
                res.sum += v as u128;
                rows_out.push(base_row + idx as u64);
            } else if v < range.low() {
                res.below_max = Some(res.below_max.map_or(v, |b| b.max(v)));
            } else {
                res.above_min = Some(res.above_min.map_or(v, |a| a.min(v)));
            }
        }
        res
    }

    /// Scalar reference of [`Self::scan_filter_excluding`], taking the
    /// exclusions as ascending value-slot indexes and skipping them with a
    /// peekable iterator — the shape of the pre-kernel implementation.
    pub fn scan_filter_excluding_scalar(
        &self,
        range: &ValueRange,
        excluded_slots: &[usize],
        count_only: bool,
        mut rows_out: Option<&mut Vec<u64>>,
    ) -> PageScanResult {
        debug_assert!(excluded_slots.windows(2).all(|w| w[0] < w[1]));
        let mut res = PageScanResult::default();
        let base_row = self.page_id() * VALUES_PER_PAGE as u64;
        let mut skip = excluded_slots.iter().copied().peekable();
        for (idx, &v) in self.values().iter().enumerate() {
            if skip.peek() == Some(&idx) {
                skip.next();
                continue;
            }
            if range.contains(v) {
                res.count += 1;
                if !count_only {
                    res.sum += v as u128;
                }
                if let Some(rows) = rows_out.as_deref_mut() {
                    rows.push(base_row + idx as u64);
                }
            } else if v < range.low() {
                res.below_max = Some(res.below_max.map_or(v, |b| b.max(v)));
            } else {
                res.above_min = Some(res.above_min.map_or(v, |a| a.min(v)));
            }
        }
        res
    }
}

/// Writes the page header (embedded pageID) and values into a raw page
/// buffer. Used by tests.
///
/// # Panics
/// Panics if `raw` is not exactly one page long or if `values` holds more
/// than [`VALUES_PER_PAGE`] values.
pub fn write_page(raw: &mut [u64], page_id: u64, values: &[u64]) {
    assert_eq!(raw.len(), SLOTS_PER_PAGE);
    assert!(values.len() <= VALUES_PER_PAGE);
    raw[PAGE_ID_SLOT] = page_id;
    raw[1..1 + values.len()].copy_from_slice(values);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_page(page_id: u64, values: &[u64]) -> Vec<u64> {
        let mut raw = vec![0u64; SLOTS_PER_PAGE];
        write_page(&mut raw, page_id, values);
        raw
    }

    #[test]
    fn page_accessors() {
        let raw = make_page(7, &[10, 20, 30]);
        let page = PageRef::new(&raw, 3);
        assert_eq!(page.page_id(), 7);
        assert_eq!(page.valid_values(), 3);
        assert_eq!(page.values(), &[10, 20, 30]);
        assert_eq!(page.value(2), 30);
        assert_eq!(page.min_max(), Some((10, 30)));
        assert_eq!(page.raw().len(), SLOTS_PER_PAGE);
    }

    #[test]
    fn empty_page_has_no_min_max() {
        let raw = make_page(0, &[]);
        let page = PageRef::new(&raw, 0);
        assert_eq!(page.min_max(), None);
        assert!(page.values().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn value_access_respects_valid_count() {
        let raw = make_page(0, &[1, 2]);
        let page = PageRef::new(&raw, 2);
        page.value(2);
    }

    #[test]
    fn scan_filter_counts_and_bounds() {
        let raw = make_page(3, &[5, 15, 25, 35, 45]);
        let page = PageRef::new(&raw, 5);
        let res = page.scan_filter(&ValueRange::new(10, 30));
        assert_eq!(res.count, 2);
        assert_eq!(res.sum, 15 + 25);
        // A qualifying page reports no bounds; the scalar reference does.
        assert_eq!((res.below_max, res.above_min), (None, None));
        assert!(!res.is_empty());
        let scalar = page.scan_filter_scalar(&ValueRange::new(10, 30));
        assert_eq!((scalar.count, scalar.sum), (res.count, res.sum));
        assert_eq!((scalar.below_max, scalar.above_min), (Some(5), Some(35)));
    }

    #[test]
    fn scan_filter_non_qualifying_page() {
        let raw = make_page(3, &[5, 8, 90, 95]);
        let page = PageRef::new(&raw, 4);
        let res = page.scan_filter(&ValueRange::new(10, 30));
        assert!(res.is_empty());
        assert_eq!(res.below_max, Some(8));
        assert_eq!(res.above_min, Some(90));
    }

    #[test]
    fn scan_filter_count_matches_full_filter_except_sum() {
        let raw = make_page(3, &[5, 15, 25, 35, 45]);
        let page = PageRef::new(&raw, 5);
        let range = ValueRange::new(10, 30);
        let full = page.scan_filter(&range);
        let count_only = page.scan_filter_count(&range);
        assert_eq!(count_only.count, full.count);
        assert_eq!(count_only.below_max, full.below_max);
        assert_eq!(count_only.above_min, full.above_min);
        assert_eq!(count_only.sum, 0);
    }

    #[test]
    fn scan_filter_collect_reconstructs_row_ids() {
        let raw = make_page(2, &[100, 7, 200]);
        let page = PageRef::new(&raw, 3);
        let mut rows = Vec::new();
        let res = page.scan_filter_collect(&ValueRange::new(50, 250), &mut rows);
        assert_eq!(res.count, 2);
        let base = 2 * VALUES_PER_PAGE as u64;
        assert_eq!(rows, vec![base, base + 2]);
    }

    #[test]
    fn merge_accumulates_results() {
        let mut a = PageScanResult {
            count: 1,
            sum: 10,
            below_max: Some(3),
            above_min: None,
        };
        let b = PageScanResult {
            count: 2,
            sum: 30,
            below_max: Some(5),
            above_min: Some(100),
        };
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 40);
        // Bounds are per-page facts and do not merge.
        assert_eq!(a.below_max, Some(3));
        assert_eq!(a.above_min, None);
    }

    #[test]
    #[should_panic(expected = "exactly")]
    fn wrong_page_size_panics() {
        let raw = vec![0u64; 10];
        PageRef::new(&raw, 0);
    }
}
