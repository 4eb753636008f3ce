//! Backend abstraction: physical stores, view buffers and rewiring.
//!
//! The storage layer and the adaptive view machinery are generic over a
//! [`Backend`], so that the same algorithms run on the real virtual-memory
//! substrate ([`crate::MmapBackend`]) and on a deterministic software
//! simulation ([`crate::SimBackend`]).
//!
//! The vocabulary follows the paper:
//!
//! * a *physical column* lives in a **physical store** — memory addressed by
//!   physical page number `0..num_pages`;
//! * a *(full or partial) virtual view* lives in a **view buffer** — an
//!   over-allocated area of `capacity_pages` page slots of which the first
//!   `mapped_pages` slots are mapped to physical pages. Scanning a view
//!   touches only the mapped prefix.

use crate::error::{Result, VmemError};
use crate::maps::MappingTable;

/// Read/write access to the physical memory of one column, addressed by
/// physical page number.
///
/// Each page is a slice of [`crate::SLOTS_PER_PAGE`] `u64` slots; slot 0 is
/// reserved for the embedded pageID (see `asv-storage`).
pub trait PhysicalStore: Send + Sync {
    /// Number of physical pages in the store.
    fn num_pages(&self) -> usize;

    /// Immutable access to a physical page.
    ///
    /// # Panics
    /// Panics if `phys_page >= self.num_pages()`.
    fn page(&self, phys_page: usize) -> &[u64];

    /// Mutable access to a physical page.
    ///
    /// Writes through this handle are visible to every view that maps the
    /// page — that is the whole point of views being *virtual*: there is
    /// only one physical copy of the data.
    ///
    /// # Panics
    /// Panics if `phys_page >= self.num_pages()`.
    fn page_mut(&mut self, phys_page: usize) -> &mut [u64];
}

/// An over-allocated virtual memory area whose page slots map to physical
/// pages of one store.
///
/// Views are `Sync`: the parallel scan path shards a view's page range
/// across worker threads that all read through the same `&View`. Mutation
/// (mapping, truncation) goes through `&mut` on the [`Backend`] methods and
/// therefore cannot race with shared scans.
pub trait ViewBuffer: Send + Sync {
    /// Total number of page slots reserved for this view. Views are
    /// over-allocated to the size of the whole column because "we are
    /// unaware of how many physical pages will qualify" (paper §2).
    fn capacity_pages(&self) -> usize;

    /// Number of slots currently mapped to physical pages (the view's size
    /// in pages — part of the per-view metadata the paper keeps).
    fn mapped_pages(&self) -> usize;

    /// Read access to the `slot`-th mapped page of the view.
    ///
    /// # Panics
    /// Panics if `slot >= self.mapped_pages()`. The simulation also panics
    /// for a slot below that which no page was ever mapped to (the kernel
    /// backends read zeros there).
    fn page(&self, slot: usize) -> &[u64];

    /// The view's slot → physical-page table.
    ///
    /// The view owns it: every backend records a mapping here after the
    /// rewiring call that created it succeeded, and drops it when
    /// [`Backend::truncate_view`] released the slot, so the table always
    /// says what the kernel (or the simulation) holds without asking it.
    /// Alignment and serving read it in place; a snapshot is a `clone()`.
    fn mapping(&self) -> &MappingTable;

    /// Base address of the view's virtual reservation, for views that live
    /// in kernel virtual memory (`None` on the simulation). Only the kernel
    /// oracle in [`crate::maps`] needs it.
    fn base_addr(&self) -> Option<usize> {
        None
    }

    /// Iterates over all mapped pages of the view, in slot order.
    fn iter_pages(&self) -> ViewPages<'_, Self>
    where
        Self: Sized,
    {
        ViewPages {
            view: self,
            slot: 0,
        }
    }
}

/// Iterator over the mapped pages of a view (see [`ViewBuffer::iter_pages`]).
pub struct ViewPages<'a, V: ViewBuffer> {
    view: &'a V,
    slot: usize,
}

impl<'a, V: ViewBuffer> Iterator for ViewPages<'a, V> {
    type Item = &'a [u64];

    fn next(&mut self) -> Option<Self::Item> {
        if self.slot < self.view.mapped_pages() {
            let p = self.view.page(self.slot);
            self.slot += 1;
            Some(p)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.view.mapped_pages().saturating_sub(self.slot);
        (rem, Some(rem))
    }
}

impl<V: ViewBuffer> ExactSizeIterator for ViewPages<'_, V> {}

/// A request to map `len` consecutive physical pages starting at
/// `phys_page` into the view, starting at view slot `slot`.
///
/// Batching consecutive pages into a single request is the paper's first
/// view-creation optimization (§2.3): "we map all previously seen qualifying
/// pages in one call".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MapRequest {
    /// First view slot to map.
    pub slot: usize,
    /// First physical page of the run.
    pub phys_page: usize,
    /// Number of consecutive pages to map.
    pub len: usize,
}

impl MapRequest {
    /// Convenience constructor for a single-page mapping.
    pub fn single(slot: usize, phys_page: usize) -> Self {
        Self {
            slot,
            phys_page,
            len: 1,
        }
    }

    /// Rejects a request that leaves the view's `capacity_pages` slots or
    /// the store's `store_pages` pages — the check every backend makes
    /// before it rewires anything.
    pub(crate) fn check_bounds(&self, capacity_pages: usize, store_pages: usize) -> Result<()> {
        if self.slot + self.len > capacity_pages {
            return Err(VmemError::out_of_bounds(format!(
                "view slots [{}, {}) exceed capacity {}",
                self.slot,
                self.slot + self.len,
                capacity_pages
            )));
        }
        if self.phys_page + self.len > store_pages {
            return Err(VmemError::out_of_bounds(format!(
                "physical pages [{}, {}) exceed store size {}",
                self.phys_page,
                self.phys_page + self.len,
                store_pages
            )));
        }
        Ok(())
    }
}

/// A rewiring backend: creates stores and views and manipulates the mapping
/// between them at page granularity.
pub trait Backend: Clone + Send + Sync + 'static {
    /// The physical-store type of this backend.
    type Store: PhysicalStore;
    /// The view-buffer type of this backend.
    type View: ViewBuffer;

    /// Short human-readable backend name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Allocates a physical store of `num_pages` pages, zero-initialized.
    fn create_store(&self, num_pages: usize) -> Result<Self::Store>;

    /// Reserves a view buffer of `capacity_pages` slots over `store`.
    ///
    /// On the mmap backend this is a cheap anonymous reservation — "this
    /// first call to mmap() acts as a mere reservation of virtual memory
    /// for our view and is almost for free" (paper §2).
    fn reserve_view(&self, store: &Self::Store, capacity_pages: usize) -> Result<Self::View>;

    /// Maps a run of consecutive physical pages into consecutive view slots.
    ///
    /// Extends `mapped_pages()` to at least `req.slot + req.len`.
    fn map_run(&self, store: &Self::Store, view: &mut Self::View, req: MapRequest) -> Result<()>;

    /// Shrinks the mapped prefix of the view to `new_mapped_pages` slots,
    /// releasing the mappings of the removed tail slots.
    fn truncate_view(&self, view: &mut Self::View, new_mapped_pages: usize) -> Result<()>;

    /// A copy of `view`'s slot → physical-page table ([`ViewBuffer::mapping`]).
    ///
    /// The paper recovers this table by parsing `/proc/PID/maps` (§2.5);
    /// here the view owns it, so this is a `clone()` and cannot fail. The
    /// `Result` and the `store` argument are what wrappers of this trait
    /// were written against; code that only reads should call
    /// [`ViewBuffer::mapping`] directly.
    fn mapping_table(&self, _store: &Self::Store, view: &Self::View) -> Result<MappingTable> {
        Ok(view.mapping().clone())
    }

    /// [`Backend::mapping_table`] for several views of one store.
    fn mapping_tables(
        &self,
        store: &Self::Store,
        views: &[&Self::View],
    ) -> Result<Vec<MappingTable>> {
        views.iter().map(|v| self.mapping_table(store, v)).collect()
    }

    /// Creates a *full view*: a view whose `num_pages(store)` slots map the
    /// whole store in physical order. Provided for convenience; backends may
    /// override it with something cheaper.
    fn create_full_view(&self, store: &Self::Store) -> Result<Self::View> {
        let n = store.num_pages();
        let mut view = self.reserve_view(store, n)?;
        if n > 0 {
            self.map_run(
                store,
                &mut view,
                MapRequest {
                    slot: 0,
                    phys_page: 0,
                    len: n,
                },
            )?;
        }
        Ok(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_request_single() {
        let r = MapRequest::single(3, 99);
        assert_eq!(
            r,
            MapRequest {
                slot: 3,
                phys_page: 99,
                len: 1
            }
        );
    }
}
