//! The virtual partial view, wrapped in the common baseline interface.
//!
//! This is the paper's own approach (§1.1/§2), exposed through the same
//! [`RangeIndex`] trait as the explicit variants so that the Figure 3
//! micro-benchmark can compare all five implementations uniformly. The view
//! is kept aligned under updates with the batched alignment algorithm of
//! `asv-core`.

use asv_core::{align_views_after_updates, build_view_for_range, CreationOptions, ViewSet};
use asv_storage::{Column, ScanKernel, ScanMode};
use asv_util::ValueRange;
use asv_vmem::Backend;

use crate::index::{IndexAnswer, RangeIndex};

/// A single virtual partial view over a column.
pub struct VirtualViewIndex<B: Backend> {
    column: Column<B>,
    views: ViewSet<B>,
    index_range: ValueRange,
}

impl<B: Backend> VirtualViewIndex<B> {
    /// Materializes the column and creates the partial view for
    /// `index_range` using the given creation options.
    pub fn build(
        backend: B,
        values: &[u64],
        index_range: ValueRange,
        options: &CreationOptions,
    ) -> asv_vmem::Result<Self> {
        let column = Column::from_values(backend, values)?;
        let (buffer, _pages) = build_view_for_range(&column, &index_range, options)?;
        let mut views = ViewSet::new(1);
        views.insert_unchecked(index_range, buffer);
        Ok(Self {
            column,
            views,
            index_range,
        })
    }

    /// The underlying column.
    pub fn column(&self) -> &Column<B> {
        &self.column
    }
}

impl<B: Backend> RangeIndex for VirtualViewIndex<B> {
    fn name(&self) -> &'static str {
        "virtual-view"
    }

    fn index_range(&self) -> ValueRange {
        self.index_range
    }

    fn indexed_pages(&self) -> usize {
        self.views.partial_view(0).map_or(0, |v| v.num_pages())
    }

    fn query(&self, query: &ValueRange) -> IndexAnswer {
        let view = self.views.partial_view(0).expect("view exists");
        // The scan is a linear pass over the view's (virtually contiguous)
        // pages — no per-page indirection in user-space. It runs through
        // the unified page-range kernel.
        let out = ScanKernel::new(*query, ScanMode::Aggregate)
            .scan_view(view.buffer(), |raw| self.column.wrap_view_page(raw));
        IndexAnswer::from(&out)
    }

    fn apply_writes(&mut self, writes: &[(usize, u64)]) {
        let updates = self.column.write_batch(writes);
        align_views_after_updates(&self.column, &mut self.views, &updates)
            .expect("view alignment failed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_vmem::{MmapBackend, SimBackend, VALUES_PER_PAGE};

    fn clustered(pages: usize) -> Vec<u64> {
        (0..pages * VALUES_PER_PAGE)
            .map(|i| ((i / VALUES_PER_PAGE) * 1000 + i % VALUES_PER_PAGE) as u64)
            .collect()
    }

    fn check_build_and_query<B: Backend>(backend: B) {
        let values = clustered(16);
        let idx = VirtualViewIndex::build(
            backend,
            &values,
            ValueRange::new(0, 9_000),
            &CreationOptions::ALL,
        )
        .unwrap();
        assert_eq!(idx.indexed_pages(), 10); // pages 0..=9
        assert_eq!(idx.name(), "virtual-view");
        let q = ValueRange::new(2_000, 5_100);
        let ans = idx.query(&q);
        let expected: Vec<u64> = values.iter().copied().filter(|v| q.contains(*v)).collect();
        assert_eq!(ans.count, expected.len() as u64);
        assert_eq!(ans.sum, expected.iter().map(|&v| v as u128).sum::<u128>());
        assert_eq!(ans.pages_scanned, 10);
        assert_eq!(idx.column().num_pages(), 16);
        assert_eq!(idx.index_range(), ValueRange::new(0, 9_000));
    }

    #[test]
    fn build_and_query_sim() {
        check_build_and_query(SimBackend::new());
    }

    #[test]
    fn build_and_query_mmap() {
        check_build_and_query(MmapBackend::new());
    }

    #[test]
    fn updates_keep_the_view_aligned() {
        let values = clustered(8);
        let mut idx = VirtualViewIndex::build(
            SimBackend::new(),
            &values,
            ValueRange::new(0, 999),
            &CreationOptions::ALL,
        )
        .unwrap();
        assert_eq!(idx.indexed_pages(), 1);
        idx.apply_writes(&[(6 * VALUES_PER_PAGE, 42)]);
        assert_eq!(idx.indexed_pages(), 2);
        assert_eq!(idx.query(&ValueRange::new(42, 42)).count, 2); // row 42 original + new
        let writes: Vec<(usize, u64)> = (0..VALUES_PER_PAGE).map(|s| (s, 91_000)).collect();
        idx.apply_writes(&writes);
        assert_eq!(idx.indexed_pages(), 1);
        assert_eq!(idx.query(&ValueRange::new(0, 999)).count, 1);
    }
}
