//! Physical columns: the materialized database content.
//!
//! A [`Column`] owns a physical store (one main-memory file on the mmap
//! backend) holding its values in page layout, plus the *full virtual view*
//! `v[-∞,∞]` that maps the entire physical column (paper §2, component (a)
//! and the default member of component (b)).

use std::sync::Arc;

use asv_util::{Parallelism, ValueRange};
use asv_vmem::{Backend, MapRequest, PhysicalStore, VALUES_PER_PAGE};

use crate::kernel::{ScanKernel, ScanMode, ScanOutput};
use crate::page::{PageRef, PageScanResult, PAGE_ID_SLOT};
use crate::updates::Update;

/// A single physical column of 8-byte unsigned values.
///
/// The column is generic over the rewiring [`Backend`]: on
/// [`asv_vmem::MmapBackend`] the values live in a main-memory file and the
/// full view is a real virtual-memory mapping; on [`asv_vmem::SimBackend`]
/// both are simulated in ordinary heap memory.
pub struct Column<B: Backend> {
    backend: B,
    store: B::Store,
    full_view: Arc<B::View>,
    num_rows: usize,
}

impl<B: Backend> Column<B> {
    /// Materializes a column from a slice of values.
    ///
    /// Values are laid out in page order; every page gets its pageID
    /// embedded in slot 0. The full view is created immediately.
    pub fn from_values(backend: B, values: &[u64]) -> asv_vmem::Result<Self> {
        Self::from_values_with_capacity(backend, values, values.len().div_ceil(VALUES_PER_PAGE))
    }

    /// Creates an empty column (zero rows, zero pages).
    pub fn empty(backend: B) -> asv_vmem::Result<Self> {
        Self::from_values(backend, &[])
    }

    /// Materializes a column whose store spans `capacity_pages` physical
    /// pages even when `values` fills fewer of them — a *sparse* column:
    /// pages past the data carry their pageID but zero valid values
    /// ([`Column::valid_values_on_page`] reports `0` for them), so scans,
    /// views and zone statistics must count live rows rather than
    /// page-capacity bounds.
    ///
    /// # Panics
    /// Panics if `capacity_pages` cannot hold `values`.
    pub fn from_values_with_capacity(
        backend: B,
        values: &[u64],
        capacity_pages: usize,
    ) -> asv_vmem::Result<Self> {
        let needed = values.len().div_ceil(VALUES_PER_PAGE);
        assert!(
            capacity_pages >= needed,
            "capacity of {capacity_pages} pages cannot hold {} values",
            values.len()
        );
        let mut store = backend.create_store(capacity_pages)?;
        for page_idx in 0..capacity_pages {
            let start = page_idx * VALUES_PER_PAGE;
            let end = (start + VALUES_PER_PAGE).min(values.len());
            let page = store.page_mut(page_idx);
            page[PAGE_ID_SLOT] = page_idx as u64;
            if start < values.len() {
                page[1..1 + (end - start)].copy_from_slice(&values[start..end]);
            }
        }
        let full_view = Arc::new(backend.create_full_view(&store)?);
        Ok(Self {
            backend,
            store,
            full_view,
            num_rows: values.len(),
        })
    }

    /// The rewiring backend of this column.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The physical store holding the column's pages.
    pub fn store(&self) -> &B::Store {
        &self.store
    }

    /// The full virtual view `v[-∞,∞]` over the column.
    pub fn full_view(&self) -> &B::View {
        &self.full_view
    }

    /// A shared handle on the full view, for readers that outlive a borrow
    /// of the column. The view is never remapped, so slot `i` stays
    /// physical page `i` and writes to the store show through it.
    pub fn shared_full_view(&self) -> Arc<B::View> {
        Arc::clone(&self.full_view)
    }

    /// Number of rows (values) stored.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of physical pages backing the column.
    pub fn num_pages(&self) -> usize {
        self.store.num_pages()
    }

    /// Returns `true` if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// Maps a row id to its `(physical page, value slot)` location.
    #[inline]
    pub fn row_location(&self, row: usize) -> (usize, usize) {
        (row / VALUES_PER_PAGE, row % VALUES_PER_PAGE)
    }

    /// Number of valid value slots on physical page `page`.
    #[inline]
    pub fn valid_values_on_page(&self, page: usize) -> usize {
        debug_assert!(page < self.num_pages());
        let full_pages = self.num_rows / VALUES_PER_PAGE;
        if page < full_pages {
            VALUES_PER_PAGE
        } else if page == full_pages {
            self.num_rows % VALUES_PER_PAGE
        } else {
            0
        }
    }

    /// Reads the value of `row`.
    ///
    /// # Panics
    /// Panics if `row >= self.num_rows()`.
    pub fn value(&self, row: usize) -> u64 {
        assert!(row < self.num_rows, "row {row} out of bounds");
        let (page, slot) = self.row_location(row);
        self.store.page(page)[1 + slot]
    }

    /// Writes `new_value` into `row` through the physical store, returning
    /// the update record (row, old value, new value) — the shape the
    /// paper's batched view-alignment algorithm consumes (§2.4).
    ///
    /// # Panics
    /// Panics if `row >= self.num_rows()`.
    pub fn write(&mut self, row: usize, new_value: u64) -> Update {
        assert!(row < self.num_rows, "row {row} out of bounds");
        let (page, slot) = self.row_location(row);
        let page_data = self.store.page_mut(page);
        let old_value = page_data[1 + slot];
        page_data[1 + slot] = new_value;
        Update {
            row: row as u64,
            old_value,
            new_value,
        }
    }

    /// Applies a batch of `(row, new value)` writes, returning the full
    /// update records.
    pub fn write_batch(&mut self, writes: &[(usize, u64)]) -> Vec<Update> {
        writes.iter().map(|&(row, v)| self.write(row, v)).collect()
    }

    /// Wraps a physical page in a [`PageRef`] with the correct valid count.
    pub fn page_ref(&self, page: usize) -> PageRef<'_> {
        PageRef::new(self.store.page(page), self.valid_values_on_page(page))
    }

    /// Wraps a raw page slice (e.g. obtained from a view) in a [`PageRef`],
    /// deriving the valid count from the embedded pageID.
    pub fn wrap_view_page<'a>(&self, raw: &'a [u64]) -> PageRef<'a> {
        let page_id = raw[PAGE_ID_SLOT] as usize;
        let valid = if page_id < self.num_pages() {
            self.valid_values_on_page(page_id)
        } else {
            0
        };
        PageRef::new(raw, valid)
    }

    /// Scans the *full view* and filters against `range` — the paper's
    /// full-scan baseline for query answering (§3.2).
    pub fn full_scan(&self, range: &ValueRange) -> PageScanResult {
        self.full_scan_with(range, ScanMode::Aggregate).result
    }

    /// Full scan through the unified page-range [`ScanKernel`], with an
    /// explicit accumulation mode.
    pub fn full_scan_with(&self, range: &ValueRange, mode: ScanMode) -> ScanOutput {
        ScanKernel::new(*range, mode).scan_view(self.full_view(), |raw| self.wrap_view_page(raw))
    }

    /// Probes `rows` (ascending global row ids) against `range`, touching
    /// only the physical pages that contain candidates (see
    /// [`crate::kernel::probe_rows`]). The probe runs on the calling
    /// thread; `benchmark/src/sut.rs` still passes a [`Parallelism`].
    pub fn probe_rows_with(
        &self,
        range: &ValueRange,
        mode: ScanMode,
        rows: &[u64],
        _: Parallelism,
    ) -> ScanOutput {
        crate::kernel::probe_rows(&ScanKernel::new(*range, mode), self, rows)
    }

    /// Copies all values out of the column (test / debugging helper; the
    /// journal checkpoint streams the pages instead).
    pub fn to_vec(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.num_rows);
        for page in 0..self.num_pages() {
            let r = self.page_ref(page);
            out.extend_from_slice(r.values());
        }
        out
    }

    /// Reserves a new (empty) partial-view buffer over this column,
    /// over-allocated to the size of the whole column as the paper
    /// prescribes (§2).
    pub fn reserve_partial_view(&self) -> asv_vmem::Result<B::View> {
        self.backend.reserve_view(&self.store, self.num_pages())
    }

    /// Maps a run of consecutive physical pages into a partial-view buffer.
    pub fn map_run_into(
        &self,
        view: &mut B::View,
        slot: usize,
        phys_page: usize,
        len: usize,
    ) -> asv_vmem::Result<()> {
        self.backend.map_run(
            &self.store,
            view,
            MapRequest {
                slot,
                phys_page,
                len,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_vmem::{MmapBackend, SimBackend, ViewBuffer};

    fn sample_values(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 7 % 1000).collect()
    }

    fn check_roundtrip<B: Backend>(backend: B) {
        let values = sample_values(3 * VALUES_PER_PAGE + 17);
        let col = Column::from_values(backend, &values).unwrap();
        assert_eq!(col.num_rows(), values.len());
        assert_eq!(col.num_pages(), 4);
        assert!(!col.is_empty());
        assert_eq!(col.to_vec(), values);
        for (i, &v) in values.iter().enumerate().step_by(97) {
            assert_eq!(col.value(i), v);
        }
        // Page ids are embedded in physical order.
        for p in 0..col.num_pages() {
            assert_eq!(col.page_ref(p).page_id(), p as u64);
        }
        // The last page is partially valid.
        assert_eq!(col.valid_values_on_page(3), 17);
        assert_eq!(col.valid_values_on_page(0), VALUES_PER_PAGE);
    }

    #[test]
    fn roundtrip_on_sim_backend() {
        check_roundtrip(SimBackend::new());
    }

    #[test]
    fn roundtrip_on_mmap_backend() {
        check_roundtrip(MmapBackend::new());
    }

    #[test]
    fn empty_column() {
        let col = Column::empty(SimBackend::new()).unwrap();
        assert!(col.is_empty());
        assert_eq!(col.num_pages(), 0);
        let res = col.full_scan(&ValueRange::full());
        assert_eq!(res.count, 0);
    }

    #[test]
    fn full_scan_matches_reference_filter() {
        let values = sample_values(2 * VALUES_PER_PAGE + 5);
        let col = Column::from_values(SimBackend::new(), &values).unwrap();
        let range = ValueRange::new(100, 500);
        let res = col.full_scan(&range);
        let expected: Vec<u64> = values
            .iter()
            .copied()
            .filter(|v| range.contains(*v))
            .collect();
        assert_eq!(res.count, expected.len() as u64);
        assert_eq!(res.sum, expected.iter().map(|&v| v as u128).sum::<u128>());
    }

    #[test]
    fn write_returns_update_record_and_mutates() {
        let values = sample_values(VALUES_PER_PAGE + 3);
        let mut col = Column::from_values(SimBackend::new(), &values).unwrap();
        let upd = col.write(VALUES_PER_PAGE + 1, 99_999);
        assert_eq!(upd.row, (VALUES_PER_PAGE + 1) as u64);
        assert_eq!(upd.old_value, values[VALUES_PER_PAGE + 1]);
        assert_eq!(upd.new_value, 99_999);
        assert_eq!(col.value(VALUES_PER_PAGE + 1), 99_999);
        // Visible through the full view as well (single physical copy).
        let res = col.full_scan(&ValueRange::new(99_999, 99_999));
        assert_eq!(res.count, 1);
    }

    #[test]
    fn write_batch_applies_in_order() {
        let mut col = Column::from_values(SimBackend::new(), &[1, 2, 3]).unwrap();
        let updates = col.write_batch(&[(0, 10), (0, 20), (2, 30)]);
        assert_eq!(updates.len(), 3);
        assert_eq!(updates[1].old_value, 10);
        assert_eq!(col.value(0), 20);
        assert_eq!(col.value(2), 30);
    }

    #[test]
    fn row_location_math() {
        let col =
            Column::from_values(SimBackend::new(), &sample_values(VALUES_PER_PAGE * 2)).unwrap();
        assert_eq!(col.row_location(0), (0, 0));
        assert_eq!(
            col.row_location(VALUES_PER_PAGE - 1),
            (0, VALUES_PER_PAGE - 1)
        );
        assert_eq!(col.row_location(VALUES_PER_PAGE), (1, 0));
    }

    #[test]
    fn reserve_and_map_partial_view() {
        let values = sample_values(4 * VALUES_PER_PAGE);
        let col = Column::from_values(SimBackend::new(), &values).unwrap();
        let mut view = col.reserve_partial_view().unwrap();
        assert_eq!(view.capacity_pages(), 4);
        col.map_run_into(&mut view, 0, 2, 2).unwrap();
        assert_eq!(view.mapped_pages(), 2);
        let first = col.wrap_view_page(view.page(0));
        assert_eq!(first.page_id(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn value_out_of_bounds_panics() {
        let col = Column::from_values(SimBackend::new(), &[1, 2, 3]).unwrap();
        col.value(3);
    }

    #[test]
    fn sparse_capacity_pages_hold_no_valid_values() {
        let values = sample_values(VALUES_PER_PAGE + 3);
        let col = Column::from_values_with_capacity(SimBackend::new(), &values, 8).unwrap();
        assert_eq!(col.num_rows(), values.len());
        assert_eq!(col.num_pages(), 8, "the store spans the full capacity");
        assert_eq!(col.valid_values_on_page(0), VALUES_PER_PAGE);
        assert_eq!(col.valid_values_on_page(1), 3, "partial tail page");
        for page in 2..8 {
            assert_eq!(col.valid_values_on_page(page), 0, "empty capacity page");
        }
        assert_eq!(col.to_vec(), values, "live rows round-trip unchanged");
        // Empty pages still carry their embedded pageID.
        assert_eq!(col.page_ref(5).page_id(), 5);
    }

    #[test]
    fn sparse_scan_counts_only_live_rows() {
        let values = sample_values(VALUES_PER_PAGE / 2);
        let col = Column::from_values_with_capacity(SimBackend::new(), &values, 16).unwrap();
        let range = ValueRange::full();
        let out = col.full_scan(&range);
        assert_eq!(
            out.count as usize,
            values.len(),
            "empty pages contribute nothing, even for a full-range scan"
        );
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn sparse_capacity_below_data_panics() {
        let values = sample_values(VALUES_PER_PAGE * 3);
        let _ = Column::from_values_with_capacity(SimBackend::new(), &values, 2);
    }
}
