//! Update records and batch pre-processing.
//!
//! The paper's batched view alignment (§2.4) receives a sequence of updates
//! `U = [(r0, old0, new0), ...]` and, as its first step, filters it "such
//! that only the very last update to each row remains reflected": several
//! updates to the same row collapse into one record carrying the *original*
//! old value and the *final* new value. The second step groups the filtered
//! updates by modified physical page. [`PageGroups`] does both with one sort
//! of the batch: sorted by row, a row's writes are adjacent (step 1) and a
//! page's rows are adjacent (step 2), so the groups are runs of one flat
//! array. Both steps live here because they are pure storage-layout
//! concerns; the per-view decisions live in `asv-core::align`.

use std::ops::Range;

use asv_vmem::VALUES_PER_PAGE;

/// One update record `(row, old value, new value)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Update {
    /// The row (tuple id) written to.
    pub row: u64,
    /// The value that was overwritten.
    pub old_value: u64,
    /// The value that was written.
    pub new_value: u64,
}

impl Update {
    /// Creates an update record.
    pub fn new(row: u64, old_value: u64, new_value: u64) -> Self {
        Self {
            row,
            old_value,
            new_value,
        }
    }

    /// The physical page this update's row lives on.
    #[inline]
    pub fn page(&self) -> u64 {
        self.row / VALUES_PER_PAGE as u64
    }

    /// The value slot (0-based, header excluded) within the page.
    #[inline]
    pub fn slot(&self) -> usize {
        (self.row % VALUES_PER_PAGE as u64) as usize
    }
}

/// A batch of updates in application order.
pub type UpdateBatch = Vec<Update>;

/// A batch reduced to the last write per row and grouped by physical page
/// (paper §2.4, steps 1 and 2), built from one sort.
///
/// A stable sort by row puts each row's writes next to each other in
/// application order, so a run of one row collapses into
/// one record carrying the run's *first* old value and *last* new value.
/// The collapsed records stay sorted by row, so each page's records form
/// one contiguous run of a single flat array: group `g` is that run, and
/// groups ascend by page id. Iterating a hash map instead would place
/// newly mapped pages in nondeterministic view slots across runs; the
/// ascending order pins the slot ↔ page layout of every aligned view to a
/// single outcome.
///
/// Updates past the column are counted by [`Self::deduped_size`] but form
/// no group. The cost is one stable sort of the batch, O(b log b) for `b`
/// updates, plus one pass to collapse and group; nothing here walks the
/// column's pages.
#[derive(Clone, Debug)]
pub struct PageGroups {
    /// The deduplicated updates on the column's pages, ascending by row.
    updates: Vec<Update>,
    /// The page of every group, ascending.
    pages: Vec<usize>,
    /// Group `g` is `updates[starts[g]..starts[g + 1]]`.
    starts: Vec<usize>,
    /// Deduplicated records, those past the column included.
    deduped_size: usize,
}

impl PageGroups {
    /// Deduplicates and groups `batch` (in application order) for a column
    /// of `num_pages` pages.
    pub fn new(batch: &[Update], num_pages: usize) -> Self {
        let mut updates = dedup_sorted(batch);
        let deduped_size = updates.len();
        // Sorted by row, so the updates past the column are a suffix.
        updates.truncate(updates.partition_point(|u| u.page() < num_pages as u64));
        let mut pages = Vec::new();
        let mut starts = Vec::new();
        for (idx, u) in updates.iter().enumerate() {
            let page = u.page() as usize;
            if pages.last() != Some(&page) {
                pages.push(page);
                starts.push(idx);
            }
        }
        starts.push(updates.len());
        Self {
            updates,
            pages,
            starts,
            deduped_size,
        }
    }

    /// Number of records after last-write-wins deduplication, counting
    /// those past the column.
    pub fn deduped_size(&self) -> usize {
        self.deduped_size
    }

    /// Number of groups (distinct updated pages within the column).
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Returns `true` if no update lies within the column.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The page of group `group`.
    pub fn page(&self, group: usize) -> usize {
        self.pages[group]
    }

    /// The deduplicated updates of group `group`, ascending by row.
    pub fn updates(&self, group: usize) -> &[Update] {
        &self.updates[self.starts[group]..self.starts[group + 1]]
    }

    /// Number of deduplicated updates in the consecutive groups `groups`.
    pub fn num_updates(&self, groups: Range<usize>) -> usize {
        self.starts[groups.end] - self.starts[groups.start]
    }

    /// The groups holding an update for which `meets` holds, ascending,
    /// each once. One pass over the flat array of the batch's updates (a
    /// loop over groups instead pays a mispredicted inner-loop exit per
    /// group).
    pub fn groups_where(&self, mut meets: impl FnMut(&Update) -> bool) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for (idx, u) in self.updates.iter().enumerate() {
            let in_last = out
                .last()
                .is_some_and(|&group| idx < self.starts[group + 1]);
            if !in_last && meets(u) {
                out.push(self.starts.partition_point(|&start| start <= idx) - 1);
            }
        }
        out
    }

    /// Every group as `(page, updates)`, ascending by page.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[Update])> + '_ {
        (0..self.len()).map(|group| (self.page(group), self.updates(group)))
    }
}

/// `batch` collapsed to one record per row, ascending by row: each record
/// carries its row's first old value and last new value.
fn dedup_sorted(batch: &[Update]) -> Vec<Update> {
    let mut out = batch.to_vec();
    // Stable, so a run of one row is that row's writes in application order.
    out.sort_by_key(|u| u.row);
    out.dedup_by(|later, kept| {
        let same_row = later.row == kept.row;
        if same_row {
            // Keep the original old value, adopt the newest new value.
            kept.new_value = later.new_value;
        }
        same_row
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_page_and_slot_math() {
        let u = Update::new(0, 1, 2);
        assert_eq!(u.page(), 0);
        assert_eq!(u.slot(), 0);
        let u = Update::new(VALUES_PER_PAGE as u64, 1, 2);
        assert_eq!(u.page(), 1);
        assert_eq!(u.slot(), 0);
        let u = Update::new(VALUES_PER_PAGE as u64 * 3 + 5, 1, 2);
        assert_eq!(u.page(), 3);
        assert_eq!(u.slot(), 5);
    }

    /// A column wide enough for every page the tests touch.
    const PAGES: usize = 1 << 20;

    fn deduped(groups: &PageGroups) -> Vec<Update> {
        groups
            .iter()
            .flat_map(|(_, updates)| updates)
            .copied()
            .collect()
    }

    #[test]
    fn dedup_keeps_first_old_and_last_new() {
        // The paper's example: u0, u1, u2 on the same row collapse into
        // (row, old_i, new_k).
        let batch = vec![
            Update::new(7, 100, 110),
            Update::new(7, 110, 120),
            Update::new(7, 120, 130),
        ];
        let groups = PageGroups::new(&batch, PAGES);
        assert_eq!(deduped(&groups), vec![Update::new(7, 100, 130)]);
        assert_eq!(groups.deduped_size(), 1);
    }

    #[test]
    fn dedup_preserves_distinct_rows_and_order() {
        // The surviving records come out ascending by row.
        let batch = vec![
            Update::new(3, 1, 2),
            Update::new(9, 5, 6),
            Update::new(3, 2, 4),
            Update::new(1, 0, 9),
        ];
        let groups = PageGroups::new(&batch, PAGES);
        assert_eq!(
            deduped(&groups),
            vec![
                Update::new(1, 0, 9),
                Update::new(3, 1, 4),
                Update::new(9, 5, 6),
            ]
        );
        assert_eq!(groups.deduped_size(), 3);
    }

    #[test]
    fn dedup_empty_batch() {
        let groups = PageGroups::new(&[], PAGES);
        assert!(deduped(&groups).is_empty());
        assert_eq!(groups.deduped_size(), 0);
    }

    #[test]
    fn group_by_page_collects_per_page() {
        let vp = VALUES_PER_PAGE as u64;
        let batch = vec![
            Update::new(0, 1, 2),
            Update::new(vp + 1, 3, 4),
            Update::new(2, 5, 6),
            Update::new(vp * 2, 7, 8),
        ];
        let groups = PageGroups::new(&batch, PAGES);
        assert_eq!(groups.len(), 3);
        assert_eq!(
            groups.updates(0),
            &[Update::new(0, 1, 2), Update::new(2, 5, 6)]
        );
        assert_eq!(groups.updates(1), &[Update::new(vp + 1, 3, 4)]);
        assert_eq!(groups.updates(2), &[Update::new(vp * 2, 7, 8)]);
        assert_eq!(groups.num_updates(0..3), 4);
        assert_eq!(groups.num_updates(1..2), 1);
    }

    #[test]
    fn group_by_page_empty() {
        let groups = PageGroups::new(&[], PAGES);
        assert!(groups.is_empty());
        assert_eq!(groups.len(), 0);
        assert_eq!(groups.iter().count(), 0);
    }

    #[test]
    fn sorted_page_groups_are_ordered_by_page() {
        let vp = VALUES_PER_PAGE as u64;
        let batch = vec![
            Update::new(vp * 9, 1, 2),
            Update::new(0, 3, 4),
            Update::new(vp * 4 + 2, 5, 6),
            Update::new(1, 7, 8),
        ];
        let groups = PageGroups::new(&batch, PAGES);
        let pages: Vec<usize> = groups.iter().map(|(p, _)| p).collect();
        assert_eq!(pages, vec![0, 4, 9]);
        assert_eq!(groups.updates(0).len(), 2);
    }

    #[test]
    fn groups_where_lists_each_meeting_group_once() {
        let vp = VALUES_PER_PAGE as u64;
        let batch = vec![
            Update::new(vp * 6, 5, 50),
            Update::new(vp * 2, 1, 2),
            Update::new(vp * 6 + 1, 50, 6),
            Update::new(vp * 4, 50, 50),
            Update::new(1, 3, 4),
        ];
        let groups = PageGroups::new(&batch, PAGES);
        let meets = |u: &Update| u.old_value == 50 || u.new_value == 50;
        assert_eq!(groups.groups_where(meets), vec![2, 3]);
        assert!(groups.groups_where(|_| false).is_empty());
        assert_eq!(groups.groups_where(|_| true), vec![0, 1, 2, 3]);
    }

    #[test]
    fn updates_past_the_column_count_but_form_no_group() {
        let vp = VALUES_PER_PAGE as u64;
        let batch = vec![
            Update::new(vp * 3, 1, 2),
            Update::new(vp * 2 + 1, 3, 4),
            Update::new(vp * 3 + 5, 5, 6),
        ];
        let groups = PageGroups::new(&batch, 3);
        assert_eq!(groups.deduped_size(), 3);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups.page(0), 2);
    }

    #[test]
    fn rows_near_u64_max_sort_and_collapse() {
        // Rows past the column, however large, still collapse and count.
        let batch = vec![
            Update::new(u64::MAX, 1, 2),
            Update::new(5, 3, 4),
            Update::new(u64::MAX, 2, 7),
            Update::new(5, 4, 6),
        ];
        let groups = PageGroups::new(&batch, PAGES);
        assert_eq!(groups.deduped_size(), 2);
        assert_eq!(deduped(&groups), vec![Update::new(5, 3, 6)]);
    }
}
