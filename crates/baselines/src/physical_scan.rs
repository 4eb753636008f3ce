//! The "Physical Scan" baseline (paper §3.1).
//!
//! "Variant 'Physical Scan' resembles scanning a consecutive memory area,
//! that has been allocated traditionally with new and already contains all
//! qualifying pages. This resembles an artificial optimal baseline."
//!
//! The qualifying pages are copied into one contiguous heap allocation; a
//! query is a single linear scan over that copy.

use asv_storage::PageRef;
use asv_util::ValueRange;
use asv_vmem::{SLOTS_PER_PAGE, VALUES_PER_PAGE};

use crate::index::{IndexAnswer, RangeIndex};

/// A contiguous physical copy of all qualifying pages.
pub struct PhysicalScanBaseline {
    /// Logical column values (kept to support updates and rebuilds).
    values: Vec<u64>,
    /// Contiguous copy of the qualifying pages, in page layout
    /// (`[pageID, v0, v1, ...]` per page).
    compact: Vec<u64>,
    index_range: ValueRange,
}

impl PhysicalScanBaseline {
    /// Builds the compact physical copy for `index_range`.
    pub fn build(values: &[u64], index_range: ValueRange) -> Self {
        let mut baseline = Self {
            values: values.to_vec(),
            compact: Vec::new(),
            index_range,
        };
        baseline.rebuild_compact();
        baseline
    }

    fn num_pages(&self) -> usize {
        self.values.len().div_ceil(VALUES_PER_PAGE)
    }

    fn rebuild_compact(&mut self) {
        self.compact.clear();
        for page in 0..self.num_pages() {
            let start = page * VALUES_PER_PAGE;
            let end = (start + VALUES_PER_PAGE).min(self.values.len());
            let chunk = &self.values[start..end];
            if chunk.iter().any(|v| self.index_range.contains(*v)) {
                let mut raw = vec![0u64; SLOTS_PER_PAGE];
                raw[0] = page as u64;
                raw[1..1 + chunk.len()].copy_from_slice(chunk);
                self.compact.extend_from_slice(&raw);
            }
        }
    }

    /// Number of values in the logical column.
    pub fn num_rows(&self) -> usize {
        self.values.len()
    }
}

impl RangeIndex for PhysicalScanBaseline {
    fn name(&self) -> &'static str {
        "physical-scan"
    }

    fn index_range(&self) -> ValueRange {
        self.index_range
    }

    fn indexed_pages(&self) -> usize {
        self.compact.len() / SLOTS_PER_PAGE
    }

    fn query(&self, query: &ValueRange) -> IndexAnswer {
        // The same page loop every other variant runs, so Fig. 3 compares
        // layouts, not kernels.
        IndexAnswer::scan_pages(query, self.compact.chunks_exact(SLOTS_PER_PAGE), |raw| {
            let start = raw[0] as usize * VALUES_PER_PAGE;
            let valid = (self.values.len() - start).min(VALUES_PER_PAGE);
            PageRef::new(raw, valid)
        })
    }

    fn apply_writes(&mut self, writes: &[(usize, u64)]) {
        for &(row, value) in writes {
            assert!(row < self.values.len(), "row {row} out of bounds");
            self.values[row] = value;
        }
        // The artificial baseline simply re-materializes its compact copy;
        // the cost is outside the timed query path, exactly as in the paper
        // where the copy "already contains all qualifying pages".
        self.rebuild_compact();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered(pages: usize) -> Vec<u64> {
        (0..pages * VALUES_PER_PAGE)
            .map(|i| ((i / VALUES_PER_PAGE) * 1000 + i % VALUES_PER_PAGE) as u64)
            .collect()
    }

    #[test]
    fn build_copies_only_qualifying_pages() {
        let values = clustered(16);
        let b = PhysicalScanBaseline::build(&values, ValueRange::new(3_000, 6_100));
        assert_eq!(b.indexed_pages(), 4);
        assert_eq!(b.num_rows(), values.len());
        assert_eq!(b.name(), "physical-scan");
        assert_eq!(b.index_range(), ValueRange::new(3_000, 6_100));
    }

    #[test]
    fn query_matches_reference() {
        let values = clustered(16);
        let b = PhysicalScanBaseline::build(&values, ValueRange::new(0, 9_000));
        let q = ValueRange::new(2_000, 5_100);
        let ans = b.query(&q);
        let expected: Vec<u64> = values.iter().copied().filter(|v| q.contains(*v)).collect();
        assert_eq!(ans.count, expected.len() as u64);
        assert_eq!(ans.sum, expected.iter().map(|&v| v as u128).sum::<u128>());
    }

    #[test]
    fn updates_rebuild_the_compact_copy() {
        let values = clustered(8);
        let mut b = PhysicalScanBaseline::build(&values, ValueRange::new(0, 999));
        assert_eq!(b.indexed_pages(), 1);
        b.apply_writes(&[(5 * VALUES_PER_PAGE, 500)]);
        assert_eq!(b.indexed_pages(), 2);
        assert_eq!(b.query(&ValueRange::new(500, 500)).count, 2); // row 500 original + new
        let writes: Vec<(usize, u64)> = (0..VALUES_PER_PAGE).map(|s| (s, 77_000)).collect();
        b.apply_writes(&writes);
        assert_eq!(b.indexed_pages(), 1);
    }

    #[test]
    fn partial_last_page_and_empty_input() {
        let mut values = clustered(2);
        values.truncate(VALUES_PER_PAGE + 3);
        let b = PhysicalScanBaseline::build(&values, ValueRange::full());
        assert_eq!(b.indexed_pages(), 2);
        assert_eq!(b.query(&ValueRange::full()).count, values.len() as u64);
        let empty = PhysicalScanBaseline::build(&[], ValueRange::full());
        assert_eq!(empty.indexed_pages(), 0);
        assert_eq!(empty.query(&ValueRange::full()).count, 0);
    }
}
