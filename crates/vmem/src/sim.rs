//! A software-simulated rewiring backend.
//!
//! [`SimBackend`] implements the exact same [`Backend`] interface as the
//! mmap backend, but a view is nothing more than its [`MappingTable`] — the
//! same table the mmap views own — resolved in software over a
//! heap-allocated buffer. No syscalls, no platform requirements, fully
//! deterministic — which makes it the substrate for unit tests, property
//! tests and CI, and a useful "explicit indirection" comparison point for
//! the virtual views.
//!
//! Semantics intentionally mirror the mmap backend:
//!
//! * writes through the store are visible through every view that maps the
//!   written page (there is exactly one physical copy of the data);
//! * mapping a slot that is already mapped re-targets it;
//! * truncating a view releases its tail slots.
//!
//! The one place the simulation is *stricter* than mmap: reading a slot that
//! was never mapped panics (mmap would silently return anonymous zero
//! pages). This catches bookkeeping bugs in the upper layers early.

use std::sync::Arc;

use crate::backend::{Backend, MapRequest, PhysicalStore, ViewBuffer};
use crate::error::Result;
use crate::layout::SLOTS_PER_PAGE;
use crate::maps::MappingTable;

/// Shared physical memory of a simulated store.
///
/// The buffer is held as raw parts and every page access derives its slice
/// straight from the base pointer, so a `&mut` page slice and `&` slices of
/// *other* pages may coexist — exactly the aliasing situation of the mmap
/// backend, where views hold shared mappings into the store while the write
/// path mutates individual pages. (A whole-buffer `&mut` is never formed, so
/// disjoint-page accesses from different threads are sound.)
struct SimBuffer {
    ptr: *mut u64,
    len: usize,
}

// SAFETY: the upper layers never access the *same page* mutably and in any
// other way at the same time (the serving layer hands readers copies of the
// pages a fold is about to write; single-threaded code separates scan and
// update phases). Disjoint pages are distinct memory: the buffer never
// reallocates, so page slices stay valid for its whole lifetime.
unsafe impl Send for SimBuffer {}
unsafe impl Sync for SimBuffer {}

impl SimBuffer {
    fn new(num_pages: usize) -> Self {
        let mut slots = vec![0u64; num_pages * SLOTS_PER_PAGE];
        let ptr = slots.as_mut_ptr();
        let len = slots.len();
        std::mem::forget(slots);
        Self { ptr, len }
    }

    /// # Safety
    /// Caller must ensure `phys_page` is in bounds and that no `&mut` slice
    /// of the *same page* is alive.
    unsafe fn page(&self, phys_page: usize) -> &[u64] {
        debug_assert!((phys_page + 1) * SLOTS_PER_PAGE <= self.len);
        std::slice::from_raw_parts(self.ptr.add(phys_page * SLOTS_PER_PAGE), SLOTS_PER_PAGE)
    }

    /// # Safety
    /// Caller must ensure `phys_page` is in bounds and that no other slice
    /// of the *same page* is alive.
    #[allow(clippy::mut_from_ref)]
    unsafe fn page_mut(&self, phys_page: usize) -> &mut [u64] {
        debug_assert!((phys_page + 1) * SLOTS_PER_PAGE <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(phys_page * SLOTS_PER_PAGE), SLOTS_PER_PAGE)
    }
}

impl Drop for SimBuffer {
    fn drop(&mut self) {
        // SAFETY: reconstructs exactly the Vec leaked in `new` (capacity ==
        // len: the vec was built with `vec![]` and never grown).
        drop(unsafe { Vec::from_raw_parts(self.ptr, self.len, self.len) });
    }
}

/// The simulated rewiring backend.
#[derive(Clone, Debug, Default)]
pub struct SimBackend;

impl SimBackend {
    /// Creates a new simulation backend.
    pub fn new() -> Self {
        Self
    }
}

/// A simulated physical column (heap buffer addressed by page number).
pub struct SimStore {
    buf: Arc<SimBuffer>,
    num_pages: usize,
}

impl PhysicalStore for SimStore {
    fn num_pages(&self) -> usize {
        self.num_pages
    }

    fn page(&self, phys_page: usize) -> &[u64] {
        assert!(
            phys_page < self.num_pages,
            "physical page {phys_page} out of bounds ({} pages)",
            self.num_pages
        );
        // SAFETY: bounds checked; shared read access through &self.
        unsafe { self.buf.page(phys_page) }
    }

    fn page_mut(&mut self, phys_page: usize) -> &mut [u64] {
        assert!(
            phys_page < self.num_pages,
            "physical page {phys_page} out of bounds ({} pages)",
            self.num_pages
        );
        // SAFETY: bounds checked; &mut self gives exclusive access through
        // this handle (views alias read-only, like shared mmap mappings).
        unsafe { self.buf.page_mut(phys_page) }
    }
}

/// A simulated view: a [`MappingTable`] resolved in software.
pub struct SimView {
    buf: Arc<SimBuffer>,
    capacity_pages: usize,
    table: MappingTable,
}

impl ViewBuffer for SimView {
    fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    fn mapped_pages(&self) -> usize {
        self.table.slot_span()
    }

    fn page(&self, slot: usize) -> &[u64] {
        assert!(
            slot < self.mapped_pages(),
            "view slot {slot} out of bounds ({} mapped pages)",
            self.mapped_pages()
        );
        let phys = self
            .table
            .phys_for_slot(slot)
            .unwrap_or_else(|| panic!("view slot {slot} was reserved but never mapped"));
        // SAFETY: phys was validated against the store size in map_run.
        unsafe { self.buf.page(phys) }
    }

    fn mapping(&self) -> &MappingTable {
        &self.table
    }
}

impl Backend for SimBackend {
    type Store = SimStore;
    type View = SimView;

    fn name(&self) -> &'static str {
        "sim"
    }

    fn create_store(&self, num_pages: usize) -> Result<SimStore> {
        Ok(SimStore {
            buf: Arc::new(SimBuffer::new(num_pages)),
            num_pages,
        })
    }

    fn reserve_view(&self, store: &SimStore, capacity_pages: usize) -> Result<SimView> {
        Ok(SimView {
            buf: Arc::clone(&store.buf),
            capacity_pages,
            table: MappingTable::new(),
        })
    }

    fn map_run(&self, store: &SimStore, view: &mut SimView, req: MapRequest) -> Result<()> {
        if req.len == 0 {
            return Ok(());
        }
        req.check_bounds(view.capacity_pages, store.num_pages)?;
        view.table.insert_run(req.slot, req.phys_page, req.len);
        Ok(())
    }

    fn truncate_view(&self, view: &mut SimView, new_mapped_pages: usize) -> Result<()> {
        view.table.truncate(new_mapped_pages);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_page(store: &mut SimStore, page: usize) {
        let data = store.page_mut(page);
        data[0] = page as u64;
        for (i, slot) in data.iter_mut().enumerate().skip(1) {
            *slot = (page * 1000 + i) as u64;
        }
    }

    #[test]
    fn store_roundtrip_and_zero_init() {
        let b = SimBackend::new();
        let mut store = b.create_store(4).unwrap();
        assert!(store.page(3).iter().all(|&v| v == 0));
        fill_page(&mut store, 3);
        assert_eq!(store.page(3)[0], 3);
        assert_eq!(store.page(3)[1], 3001);
    }

    #[test]
    fn view_maps_scattered_pages() {
        let b = SimBackend::new();
        let mut store = b.create_store(16).unwrap();
        for p in 0..16 {
            fill_page(&mut store, p);
        }
        let mut view = b.reserve_view(&store, 16).unwrap();
        b.map_run(
            &store,
            &mut view,
            MapRequest {
                slot: 0,
                phys_page: 5,
                len: 3,
            },
        )
        .unwrap();
        b.map_run(&store, &mut view, MapRequest::single(3, 12))
            .unwrap();
        let ids: Vec<u64> = view.iter_pages().map(|p| p[0]).collect();
        assert_eq!(ids, vec![5, 6, 7, 12]);
        assert_eq!(view.mapping().dense_pages(), Some(vec![5, 6, 7, 12]));
    }

    #[test]
    fn writes_are_visible_through_views() {
        let b = SimBackend::new();
        let mut store = b.create_store(4).unwrap();
        let mut view = b.reserve_view(&store, 4).unwrap();
        b.map_run(&store, &mut view, MapRequest::single(0, 2))
            .unwrap();
        store.page_mut(2)[7] = 42;
        assert_eq!(view.page(0)[7], 42);
    }

    #[test]
    fn full_view_and_truncate() {
        let b = SimBackend::new();
        let mut store = b.create_store(6).unwrap();
        for p in 0..6 {
            fill_page(&mut store, p);
        }
        let mut full = b.create_full_view(&store).unwrap();
        assert_eq!(full.mapped_pages(), 6);
        b.truncate_view(&mut full, 2).unwrap();
        assert_eq!(full.mapped_pages(), 2);
        b.truncate_view(&mut full, 5).unwrap();
        assert_eq!(full.mapped_pages(), 2);
    }

    #[test]
    fn bounds_errors() {
        let b = SimBackend::new();
        let store = b.create_store(4).unwrap();
        let mut view = b.reserve_view(&store, 2).unwrap();
        assert!(b
            .map_run(
                &store,
                &mut view,
                MapRequest {
                    slot: 1,
                    phys_page: 0,
                    len: 2
                }
            )
            .is_err());
        assert!(b
            .map_run(
                &store,
                &mut view,
                MapRequest {
                    slot: 0,
                    phys_page: 4,
                    len: 1
                }
            )
            .is_err());
        b.map_run(
            &store,
            &mut view,
            MapRequest {
                slot: 0,
                phys_page: 0,
                len: 0,
            },
        )
        .unwrap();
        assert_eq!(view.mapped_pages(), 0);
    }

    #[test]
    fn mapping_table_matches_slots() {
        let b = SimBackend::new();
        let store = b.create_store(8).unwrap();
        let mut view = b.reserve_view(&store, 8).unwrap();
        b.map_run(
            &store,
            &mut view,
            MapRequest {
                slot: 0,
                phys_page: 6,
                len: 2,
            },
        )
        .unwrap();
        let table = b.mapping_table(&store, &view).unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.phys_for_slot(1), Some(7));
        assert_eq!(table.slot_for_phys(6), Some(0));
    }

    #[test]
    #[should_panic(expected = "never mapped")]
    fn reading_an_unmapped_gap_panics() {
        let b = SimBackend::new();
        let store = b.create_store(8).unwrap();
        let mut view = b.reserve_view(&store, 8).unwrap();
        // Create a gap at slot 0 by mapping only slot 1.
        b.map_run(&store, &mut view, MapRequest::single(1, 3))
            .unwrap();
        let _ = view.page(0);
    }

    #[test]
    fn remapping_a_slot_changes_its_target() {
        let b = SimBackend::new();
        let mut store = b.create_store(4).unwrap();
        for p in 0..4 {
            fill_page(&mut store, p);
        }
        let mut view = b.reserve_view(&store, 4).unwrap();
        b.map_run(&store, &mut view, MapRequest::single(0, 1))
            .unwrap();
        b.map_run(&store, &mut view, MapRequest::single(0, 3))
            .unwrap();
        assert_eq!(view.page(0)[0], 3);
        assert_eq!(view.mapped_pages(), 1);
    }

    #[test]
    fn backend_name() {
        assert_eq!(SimBackend::new().name(), "sim");
    }
}
