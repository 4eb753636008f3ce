//! The common interface of all partial-index variants.

use asv_storage::{PageRef, ScanKernel, ScanMode, ScanOutput};
use asv_util::ValueRange;

/// The answer an index produces for a range query: cardinality and checksum
/// of the qualifying values, plus the number of pages that had to be
/// touched (the work metric behind Figure 3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexAnswer {
    /// Number of qualifying values.
    pub count: u64,
    /// Sum of qualifying values (checksum for cross-variant validation).
    pub sum: u128,
    /// Number of pages whose values were actually scanned.
    pub pages_scanned: usize,
}

impl IndexAnswer {
    /// Folds a page-level contribution into the answer.
    pub fn add_page(&mut self, count: u64, sum: u128) {
        self.count += count;
        self.sum += sum;
        self.pages_scanned += 1;
    }

    /// Answers `query` over the raw `pages`, in order, with the production
    /// page loop ([`ScanKernel::scan_pages`]: each page prefetches its
    /// successor; `wrap` supplies the valid-value count). The variants
    /// that visit pages one by one all scan through here, so Figure 3
    /// compares layouts, not kernels or loops.
    pub fn scan_pages<'p>(
        query: &ValueRange,
        pages: impl IntoIterator<Item = &'p [u64]>,
        wrap: impl Fn(&'p [u64]) -> PageRef<'p>,
    ) -> Self {
        let kernel = ScanKernel::new(*query, ScanMode::Aggregate);
        let mut out = ScanOutput::new(kernel.mode());
        kernel.scan_pages(pages, wrap, &mut out);
        Self::from(&out)
    }
}

impl From<&ScanOutput> for IndexAnswer {
    fn from(out: &ScanOutput) -> Self {
        Self {
            count: out.result.count,
            sum: out.result.sum,
            pages_scanned: out.scanned_pages,
        }
    }
}

/// A partial index over one column, restricted to an *index range*: only
/// pages containing at least one value inside that range are indexed.
///
/// The Figure 3 experiment builds each variant for the index range
/// `[0, k]`, applies a batch of random point updates, and then queries a
/// sub-range (`[0, k/2]`).
pub trait RangeIndex {
    /// Short human-readable name of the variant (used in reports).
    fn name(&self) -> &'static str;

    /// The value range this index covers.
    fn index_range(&self) -> ValueRange;

    /// Number of pages currently indexed as qualifying.
    fn indexed_pages(&self) -> usize;

    /// Answers a range query. `query` must be a sub-range of
    /// [`Self::index_range`] for the answer to be complete (as with the
    /// paper's partial views, values outside the indexed range are simply
    /// not visible through the index).
    fn query(&self, query: &ValueRange) -> IndexAnswer;

    /// Applies point updates `(row, new value)` to the underlying data *and*
    /// to the index structure.
    fn apply_writes(&mut self, writes: &[(usize, u64)]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_answer_accumulates() {
        let mut a = IndexAnswer::default();
        a.add_page(3, 30);
        a.add_page(2, 12);
        assert_eq!(a.count, 5);
        assert_eq!(a.sum, 42);
        assert_eq!(a.pages_scanned, 2);
    }
}
