//! The "Bitmap" explicit-index variant (paper §3.1).
//!
//! "Variant 'Bitmap' maintains a separate bitvector, in which a one denotes
//! that a page qualifies. A lookup basically results in a scan of the
//! bitvector with subsequent jumps into the column for each qualifying
//! page."

use asv_storage::Column;
use asv_util::{BitVec, ValueRange};
use asv_vmem::{Backend, PhysicalStore, VALUES_PER_PAGE};

use crate::index::{IndexAnswer, RangeIndex};

/// A column plus a qualifying-page bitvector for one index range.
pub struct BitmapIndex<B: Backend> {
    column: Column<B>,
    bits: BitVec,
    index_range: ValueRange,
}

impl<B: Backend> BitmapIndex<B> {
    /// Builds the bitmap over a freshly materialized column.
    pub fn build(backend: B, values: &[u64], index_range: ValueRange) -> asv_vmem::Result<Self> {
        let column = Column::from_values(backend, values)?;
        let mut bits = BitVec::new(column.num_pages());
        for page in 0..column.num_pages() {
            if column
                .page_ref(page)
                .values()
                .iter()
                .any(|v| index_range.contains(*v))
            {
                bits.set(page);
            }
        }
        Ok(Self {
            column,
            bits,
            index_range,
        })
    }

    /// The underlying column.
    pub fn column(&self) -> &Column<B> {
        &self.column
    }

    /// The qualifying-page bitvector.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    fn refresh_page(&mut self, page: usize) {
        let qualifies = self
            .column
            .page_ref(page)
            .values()
            .iter()
            .any(|v| self.index_range.contains(*v));
        if qualifies {
            self.bits.set(page);
        } else {
            self.bits.clear(page);
        }
    }
}

impl<B: Backend> RangeIndex for BitmapIndex<B> {
    fn name(&self) -> &'static str {
        "explicit-bitmap"
    }

    fn index_range(&self) -> ValueRange {
        self.index_range
    }

    fn indexed_pages(&self) -> usize {
        self.bits.count_ones()
    }

    fn query(&self, query: &ValueRange) -> IndexAnswer {
        // Scan the bitvector; jump into the column for every set bit.
        let pages = self
            .bits
            .iter_ones()
            .map(|page| self.column.store().page(page));
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
            self.refresh_page(page);
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
    fn build_marks_qualifying_pages() {
        let values = clustered(16);
        let idx =
            BitmapIndex::build(SimBackend::new(), &values, ValueRange::new(0, 4_999)).unwrap();
        assert_eq!(idx.indexed_pages(), 5); // pages 0..=4
        assert_eq!(
            idx.bits().iter_ones().collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(idx.name(), "explicit-bitmap");
        assert_eq!(idx.index_range(), ValueRange::new(0, 4_999));
        assert_eq!(idx.column().num_pages(), 16);
    }

    #[test]
    fn query_only_scans_indexed_pages_and_is_exact() {
        let values = clustered(16);
        let idx =
            BitmapIndex::build(SimBackend::new(), &values, ValueRange::new(0, 7_999)).unwrap();
        let q = ValueRange::new(1_000, 3_200);
        let ans = idx.query(&q);
        let expected: Vec<u64> = values.iter().copied().filter(|v| q.contains(*v)).collect();
        assert_eq!(ans.count, expected.len() as u64);
        assert_eq!(ans.sum, expected.iter().map(|&v| v as u128).sum::<u128>());
        assert_eq!(ans.pages_scanned, 8); // all indexed pages are visited
    }

    #[test]
    fn updates_flip_page_membership() {
        let values = clustered(8);
        let mut idx =
            BitmapIndex::build(SimBackend::new(), &values, ValueRange::new(0, 999)).unwrap();
        assert_eq!(idx.indexed_pages(), 1);
        // Make a value on page 5 qualify.
        idx.apply_writes(&[(5 * VALUES_PER_PAGE + 7, 500)]);
        assert_eq!(idx.indexed_pages(), 2);
        assert!(idx.bits().get(5));
        // Remove all qualifying values from page 0.
        let writes: Vec<(usize, u64)> = (0..VALUES_PER_PAGE)
            .map(|s| (s, 50_000 + s as u64))
            .collect();
        idx.apply_writes(&writes);
        assert!(!idx.bits().get(0));
        assert_eq!(idx.indexed_pages(), 1);
        // The query still finds the moved value.
        assert_eq!(idx.query(&ValueRange::new(0, 999)).count, 1);
    }

    #[test]
    fn empty_column() {
        let idx = BitmapIndex::build(SimBackend::new(), &[], ValueRange::full()).unwrap();
        assert_eq!(idx.indexed_pages(), 0);
        assert_eq!(idx.query(&ValueRange::full()).count, 0);
    }
}
