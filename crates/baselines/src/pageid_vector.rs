//! The "Vector of Page-IDs" explicit-index variant (paper §3.1).
//!
//! "Variant 'Vector of Page-IDs' maintains a vector containing only IDs of
//! qualifying pages. A lookup utilizes the IDs to locate the actual pages in
//! the column. Note that this variant can benefit from prefetching to speed
//! up lookups to subsequent pages" — the paper issues
//! `__builtin_prefetch(pages[i+1], 0, 0)`. Here every sequential page loop
//! does that: the query hands each page its successor and the page filter
//! prefetches it block by block ([`asv_storage::ScanKernel::scan_page`]),
//! the same as for every other variant.

use asv_storage::Column;
use asv_util::ValueRange;
use asv_vmem::{Backend, PhysicalStore, VALUES_PER_PAGE};

use crate::index::{IndexAnswer, RangeIndex};

/// A column plus a vector of qualifying page ids for one index range.
pub struct PageIdVectorIndex<B: Backend> {
    column: Column<B>,
    page_ids: Vec<u32>,
    index_range: ValueRange,
}

impl<B: Backend> PageIdVectorIndex<B> {
    /// Builds the page-id vector over a freshly materialized column.
    pub fn build(backend: B, values: &[u64], index_range: ValueRange) -> asv_vmem::Result<Self> {
        let column = Column::from_values(backend, values)?;
        let mut page_ids = Vec::new();
        for page in 0..column.num_pages() {
            if column
                .page_ref(page)
                .values()
                .iter()
                .any(|v| index_range.contains(*v))
            {
                page_ids.push(page as u32);
            }
        }
        Ok(Self {
            column,
            page_ids,
            index_range,
        })
    }

    /// The underlying column.
    pub fn column(&self) -> &Column<B> {
        &self.column
    }

    /// The vector of qualifying page ids (in insertion order; updates append
    /// at the end, which "might scatter the order in which pages are
    /// indexed", as the paper notes).
    pub fn page_ids(&self) -> &[u32] {
        &self.page_ids
    }
}

impl<B: Backend> RangeIndex for PageIdVectorIndex<B> {
    fn name(&self) -> &'static str {
        "explicit-pageid-vector"
    }

    fn index_range(&self) -> ValueRange {
        self.index_range
    }

    fn indexed_pages(&self) -> usize {
        self.page_ids.len()
    }

    fn query(&self, query: &ValueRange) -> IndexAnswer {
        // Each qualifying page prefetches the next one while it is scanned.
        let pages = self
            .page_ids
            .iter()
            .map(|&page| self.column.store().page(page as usize));
        IndexAnswer::scan_pages(query, pages, |raw| self.column.wrap_view_page(raw))
    }

    fn apply_writes(&mut self, writes: &[(usize, u64)]) {
        let mut touched: Vec<usize> = Vec::with_capacity(writes.len());
        for &(row, value) in writes {
            self.column.write(row, value);
            touched.push(row / VALUES_PER_PAGE);
        }
        touched.sort_unstable();
        touched.dedup();
        for page in touched {
            let qualifies = self
                .column
                .page_ref(page)
                .values()
                .iter()
                .any(|v| self.index_range.contains(*v));
            let present = self.page_ids.iter().any(|&p| p as usize == page);
            if qualifies && !present {
                self.page_ids.push(page as u32);
            } else if !qualifies && present {
                self.page_ids.retain(|&p| p as usize != page);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_vmem::SimBackend;

    fn clustered(pages: usize) -> Vec<u64> {
        (0..pages * VALUES_PER_PAGE)
            .map(|i| ((i / VALUES_PER_PAGE) * 1000 + i % VALUES_PER_PAGE) as u64)
            .collect()
    }

    #[test]
    fn build_collects_qualifying_page_ids() {
        let values = clustered(16);
        let idx =
            PageIdVectorIndex::build(SimBackend::new(), &values, ValueRange::new(3_000, 6_100))
                .unwrap();
        assert_eq!(idx.page_ids(), &[3, 4, 5, 6]);
        assert_eq!(idx.indexed_pages(), 4);
        assert_eq!(idx.name(), "explicit-pageid-vector");
        assert_eq!(idx.index_range(), ValueRange::new(3_000, 6_100));
        assert_eq!(idx.column().num_rows(), values.len());
    }

    #[test]
    fn query_is_exact_for_subranges() {
        let values = clustered(16);
        let idx = PageIdVectorIndex::build(SimBackend::new(), &values, ValueRange::new(0, 9_000))
            .unwrap();
        let q = ValueRange::new(4_100, 7_050);
        let ans = idx.query(&q);
        let expected: Vec<u64> = values.iter().copied().filter(|v| q.contains(*v)).collect();
        assert_eq!(ans.count, expected.len() as u64);
        assert_eq!(ans.sum, expected.iter().map(|&v| v as u128).sum::<u128>());
        assert_eq!(ans.pages_scanned, idx.indexed_pages());
    }

    #[test]
    fn updates_append_and_remove_page_ids() {
        let values = clustered(8);
        let mut idx =
            PageIdVectorIndex::build(SimBackend::new(), &values, ValueRange::new(0, 999)).unwrap();
        assert_eq!(idx.page_ids(), &[0]);
        idx.apply_writes(&[(6 * VALUES_PER_PAGE, 17)]);
        assert_eq!(idx.page_ids(), &[0, 6]); // appended, scattering order
        let writes: Vec<(usize, u64)> = (0..VALUES_PER_PAGE).map(|s| (s, 90_000)).collect();
        idx.apply_writes(&writes);
        assert_eq!(idx.page_ids(), &[6]);
        assert_eq!(idx.query(&ValueRange::new(0, 999)).count, 1);
    }

    #[test]
    fn empty_column() {
        let idx = PageIdVectorIndex::build(SimBackend::new(), &[], ValueRange::full()).unwrap();
        assert_eq!(idx.indexed_pages(), 0);
        assert_eq!(idx.query(&ValueRange::full()).count, 0);
    }
}
