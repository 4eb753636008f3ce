//! Batched alignment of partial views after updates (paper §2.4–2.5).
//!
//! The update path works in two phases:
//!
//! 1. Updates are applied to the physical column through the storage layer
//!    (the "full view" write path); the partial views are left untouched and
//!    may temporarily index stale page sets.
//! 2. [`align_views_after_updates`] re-aligns every partial view with a
//!    whole *batch* of update records at once: one sort reduces the batch
//!    to the last write per row and groups it by modified physical page
//!    ([`asv_storage::PageGroups`], in ascending page order, so slot
//!    assignments are deterministic), and each page whose updates meet a
//!    view's range is added to / removed from that view according to the
//!    rules of §2.4.
//!    The current slot ↔ page mapping of each view is copied once per
//!    batch from the table the view itself owns (the paper parses
//!    `/proc/PID/maps` for it, §2.5) and maintained in user-space while
//!    pages are added and removed.
//!
//! [`align_views_after_updates`] runs the three alignment phases of
//! [`crate::align`] (snapshot → plan → publish) back-to-back;
//! [`crate::ServeTable`] runs the same phases, planning when it folds a
//! batch and publishing the plan one chunk per tick, so both produce
//! identical view layouts by construction.

use std::time::Duration;

use asv_storage::{Column, Update};
use asv_util::Timer;
use asv_vmem::{Backend, VmemError};

use crate::align::{apply_chunked_plan, plan_alignment_chunked, snapshot_alignment};
use crate::config::CreationOptions;
use crate::creation::build_view_for_range;
use crate::viewset::ViewSet;

/// Measurements of one batched alignment run (the quantities plotted in
/// Figure 7).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateAlignmentStats {
    /// Number of raw update records in the batch.
    pub batch_size: usize,
    /// Number of records after last-write-wins deduplication.
    pub deduped_size: usize,
    /// Snapshot materialization after the batch is grouped, no `/proc`
    /// read: the pass per view that finds the page groups its range meets,
    /// a copy of each kept view's own mapping table, and the case-(2)
    /// re-inspection of updated pages against the post-batch column. The
    /// one sort that deduplicates and groups the batch is in neither this
    /// timer nor [`Self::align_time`]. The name is the paper's (Fig. 7
    /// splits alignment into "parse" and "update"); what a
    /// `/proc/PID/maps` parse would cost is reported beside it by the
    /// `fig7` experiment.
    pub parse_time: Duration,
    /// Time spent deciding and executing page additions/removals.
    pub align_time: Duration,
    /// Number of `(view, page)` additions: physical pages newly mapped into
    /// a partial view. A page entering several views counts once per view.
    pub pages_added: usize,
    /// Number of `(view, page)` removals: physical pages unmapped from a
    /// partial view. A page leaving several views counts once per view.
    pub pages_removed: usize,
}

impl UpdateAlignmentStats {
    /// Total alignment time (parse + align).
    pub fn total_time(&self) -> Duration {
        self.parse_time + self.align_time
    }

    /// Folds another run's measurements into this one, field-wise. Used to
    /// aggregate the per-chunk stats of a chunked alignment round into one
    /// record.
    pub fn absorb(&mut self, other: &UpdateAlignmentStats) {
        self.batch_size += other.batch_size;
        self.deduped_size += other.deduped_size;
        self.parse_time += other.parse_time;
        self.align_time += other.align_time;
        self.pages_added += other.pages_added;
        self.pages_removed += other.pages_removed;
    }
}

/// Aligns all partial views of `views` with an *already applied* batch of
/// updates on `column`.
///
/// The batch must contain the update records produced when the writes were
/// applied (old and new value per row); the physical column must already
/// reflect the new values. Pages are processed in ascending page-id order,
/// so repeated runs of the same batch produce identical slot ↔ page
/// layouts.
pub fn align_views_after_updates<B: Backend>(
    column: &Column<B>,
    views: &mut ViewSet<B>,
    batch: &[Update],
) -> Result<UpdateAlignmentStats, VmemError> {
    if batch.is_empty() || views.is_empty() {
        return Ok(UpdateAlignmentStats {
            batch_size: batch.len(),
            ..Default::default()
        });
    }
    let snapshot = snapshot_alignment(column, views.mappings(), batch);
    let plan = plan_alignment_chunked(&snapshot, 0);
    apply_chunked_plan(column, views, &plan)
}

/// Rebuilds every partial view from scratch by re-scanning the column — the
/// baseline Figure 7 compares batched alignment against. Returns the total
/// wall-clock time of the rebuild.
pub fn rebuild_all_views<B: Backend>(
    column: &Column<B>,
    views: &mut ViewSet<B>,
    options: &CreationOptions,
) -> Result<Duration, VmemError> {
    let timer = Timer::start();
    for idx in 0..views.num_partial_views() {
        let range = *views
            .partial_view(idx)
            .expect("index within bounds")
            .range();
        let (buffer, _pages) = build_view_for_range(column, &range, options)?;
        let view = views.partial_view_mut(idx).expect("index within bounds");
        *view.buffer_mut() = buffer;
    }
    views.bump_generation();
    Ok(timer.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_util::ValueRange;
    use asv_vmem::{MmapBackend, SimBackend, VALUES_PER_PAGE};

    /// Clustered data: page p holds values in [p*1000, p*1000 + 510].
    fn clustered_values(pages: usize) -> Vec<u64> {
        (0..pages * VALUES_PER_PAGE)
            .map(|i| ((i / VALUES_PER_PAGE) * 1000 + i % VALUES_PER_PAGE) as u64)
            .collect()
    }

    /// Builds a column plus one partial view for `range`.
    fn column_with_view<B: Backend>(
        backend: B,
        pages: usize,
        range: ValueRange,
    ) -> (Column<B>, ViewSet<B>) {
        let column = Column::from_values(backend, &clustered_values(pages)).unwrap();
        let mut views = ViewSet::new(10);
        let (buffer, _) = build_view_for_range(&column, &range, &CreationOptions::ALL).unwrap();
        views.insert_unchecked(range, buffer);
        (column, views)
    }

    /// The set of physical pages a view *should* index for its range.
    fn expected_pages<B: Backend>(column: &Column<B>, range: &ValueRange) -> Vec<usize> {
        (0..column.num_pages())
            .filter(|&p| {
                column
                    .page_ref(p)
                    .values()
                    .iter()
                    .any(|v| range.contains(*v))
            })
            .collect()
    }

    /// The set of physical pages a view currently indexes.
    fn actual_pages<B: Backend>(column: &Column<B>, views: &ViewSet<B>, idx: usize) -> Vec<usize> {
        let view = views.partial_view(idx).unwrap();
        let table = column
            .backend()
            .mapping_table(column.store(), view.buffer())
            .unwrap();
        table.phys_pages_sorted()
    }

    fn check_alignment_adds_pages<B: Backend>(backend: B) {
        let range = ValueRange::new(5_000, 9_400);
        let (mut column, mut views) = column_with_view(backend, 32, range);
        assert_eq!(views.partial_view(0).unwrap().num_pages(), 5);
        // Write a qualifying value into a page far outside the view
        // (page 20) and a non-qualifying value into another (page 25).
        let updates =
            column.write_batch(&[(20 * VALUES_PER_PAGE + 3, 6_000), (25 * VALUES_PER_PAGE, 1)]);
        let stats = align_views_after_updates(&column, &mut views, &updates).unwrap();
        assert_eq!(stats.pages_added, 1);
        assert_eq!(stats.pages_removed, 0);
        assert_eq!(stats.batch_size, 2);
        assert_eq!(stats.deduped_size, 2);
        assert!(stats.total_time() >= stats.parse_time);
        assert_eq!(
            actual_pages(&column, &views, 0),
            expected_pages(&column, &range)
        );
    }

    #[test]
    fn alignment_adds_pages_sim() {
        check_alignment_adds_pages(SimBackend::new());
    }

    #[test]
    fn alignment_adds_pages_mmap() {
        check_alignment_adds_pages(MmapBackend::new());
    }

    fn check_alignment_removes_pages<B: Backend>(backend: B) {
        let range = ValueRange::new(5_000, 5_510);
        let (mut column, mut views) = column_with_view(backend, 16, range);
        // Only page 5 qualifies initially.
        assert_eq!(actual_pages(&column, &views, 0), vec![5]);
        // Overwrite *all* values of page 5 with out-of-range values.
        let writes: Vec<(usize, u64)> = (0..VALUES_PER_PAGE)
            .map(|slot| (5 * VALUES_PER_PAGE + slot, 100_000 + slot as u64))
            .collect();
        let updates = column.write_batch(&writes);
        let stats = align_views_after_updates(&column, &mut views, &updates).unwrap();
        assert_eq!(stats.pages_removed, 1);
        assert_eq!(stats.pages_added, 0);
        assert!(actual_pages(&column, &views, 0).is_empty());
        assert_eq!(views.partial_view(0).unwrap().num_pages(), 0);
    }

    #[test]
    fn alignment_removes_pages_sim() {
        check_alignment_removes_pages(SimBackend::new());
    }

    #[test]
    fn alignment_removes_pages_mmap() {
        check_alignment_removes_pages(MmapBackend::new());
    }

    #[test]
    fn page_with_other_qualifying_values_is_kept() {
        let range = ValueRange::new(5_000, 5_510);
        let (mut column, mut views) = column_with_view(SimBackend::new(), 16, range);
        // Overwrite a single value of page 5 with an out-of-range value:
        // the page still holds other qualifying values and must stay.
        let updates = column.write_batch(&[(5 * VALUES_PER_PAGE, 999_999)]);
        let stats = align_views_after_updates(&column, &mut views, &updates).unwrap();
        assert_eq!(stats.pages_removed, 0);
        assert_eq!(actual_pages(&column, &views, 0), vec![5]);
    }

    #[test]
    fn irrelevant_updates_do_not_touch_the_view() {
        let range = ValueRange::new(5_000, 5_510);
        let (mut column, mut views) = column_with_view(SimBackend::new(), 16, range);
        // Update on an indexed page, but neither old nor new value are in
        // the view's range (page 5 also only keeps its other values).
        // Use page 9 (not indexed): old 9_000, new 900_000 — both outside.
        let updates = column.write_batch(&[(9 * VALUES_PER_PAGE, 900_000)]);
        let stats = align_views_after_updates(&column, &mut views, &updates).unwrap();
        assert_eq!(stats.pages_added, 0);
        assert_eq!(stats.pages_removed, 0);
        assert_eq!(actual_pages(&column, &views, 0), vec![5]);
    }

    #[test]
    fn last_write_wins_determines_membership() {
        let range = ValueRange::new(5_000, 5_510);
        let (mut column, mut views) = column_with_view(SimBackend::new(), 16, range);
        let row = 10 * VALUES_PER_PAGE;
        // First write moves the row into the range, the second one moves it
        // back out — after deduplication the page must not be added.
        let mut updates = Vec::new();
        updates.extend(column.write_batch(&[(row, 5_100)]));
        updates.extend(column.write_batch(&[(row, 700_000)]));
        let stats = align_views_after_updates(&column, &mut views, &updates).unwrap();
        assert_eq!(stats.deduped_size, 1);
        assert_eq!(stats.pages_added, 0);
        assert_eq!(actual_pages(&column, &views, 0), vec![5]);
    }

    #[test]
    fn alignment_matches_rebuild_for_random_batches() {
        // Property-style check with a deterministic pseudo-random sequence:
        // after alignment, every view indexes exactly the pages a rebuild
        // would produce.
        let ranges = [
            ValueRange::new(2_000, 4_500),
            ValueRange::new(7_000, 12_510),
            ValueRange::new(20_000, 20_200),
        ];
        let mut column = Column::from_values(SimBackend::new(), &clustered_values(32)).unwrap();
        let mut views = ViewSet::new(10);
        for r in &ranges {
            let (buffer, _) = build_view_for_range(&column, r, &CreationOptions::ALL).unwrap();
            views.insert_unchecked(*r, buffer);
        }
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let writes: Vec<(usize, u64)> = (0..500)
            .map(|_| {
                let row = (next() % (32 * VALUES_PER_PAGE as u64)) as usize;
                let value = next() % 33_000;
                (row, value)
            })
            .collect();
        let updates = column.write_batch(&writes);
        align_views_after_updates(&column, &mut views, &updates).unwrap();
        for (i, r) in ranges.iter().enumerate() {
            assert_eq!(
                actual_pages(&column, &views, i),
                expected_pages(&column, r),
                "view {i} misaligned"
            );
        }
    }

    /// The slot → page layout of a view, in slot order.
    fn slot_layout<B: Backend>(column: &Column<B>, views: &ViewSet<B>, idx: usize) -> Vec<usize> {
        let view = views.partial_view(idx).unwrap();
        let table = column
            .backend()
            .mapping_table(column.store(), view.buffer())
            .unwrap();
        (0..view.num_pages())
            .map(|slot| table.phys_for_slot(slot).expect("dense mapped prefix"))
            .collect()
    }

    /// Regression test for the `HashMap`-iteration-order bug: case-(1) page
    /// additions must land in identical slots across repeated runs of the
    /// same batch, and in ascending page order.
    fn check_alignment_is_deterministic<B: Backend>(make_backend: impl Fn() -> B) {
        let range = ValueRange::new(5_000, 9_400);
        // Write a qualifying value into many previously unmapped pages so a
        // nondeterministic iteration order would almost surely differ.
        let writes: Vec<(usize, u64)> = (10..30)
            .map(|p| (p * VALUES_PER_PAGE + p, 6_000 + p as u64))
            .collect();
        let mut layouts = Vec::new();
        for _ in 0..3 {
            let (mut column, mut views) = column_with_view(make_backend(), 32, range);
            let updates = column.write_batch(&writes);
            let stats = align_views_after_updates(&column, &mut views, &updates).unwrap();
            assert_eq!(stats.pages_added, 20);
            layouts.push(slot_layout(&column, &views, 0));
        }
        assert_eq!(layouts[0], layouts[1], "identical batches, identical slots");
        assert_eq!(layouts[1], layouts[2], "identical batches, identical slots");
        // Pages 5..=9 qualified initially; the additions follow in
        // ascending page order.
        let expected: Vec<usize> = (5..10).chain(10..30).collect();
        assert_eq!(layouts[0], expected);
    }

    #[test]
    fn alignment_is_deterministic_sim() {
        check_alignment_is_deterministic(SimBackend::new);
    }

    #[test]
    fn alignment_is_deterministic_mmap() {
        check_alignment_is_deterministic(MmapBackend::new);
    }

    #[test]
    fn stats_count_view_page_pairs_not_distinct_pages() {
        // Two overlapping views both index page 5; removing / adding one
        // physical page therefore counts once per affected view.
        let ranges = [ValueRange::new(5_000, 5_510), ValueRange::new(4_000, 6_000)];
        let mut column = Column::from_values(SimBackend::new(), &clustered_values(16)).unwrap();
        let mut views = ViewSet::new(10);
        for r in &ranges {
            let (buffer, _) = build_view_for_range(&column, r, &CreationOptions::ALL).unwrap();
            views.insert_unchecked(*r, buffer);
        }
        assert!(actual_pages(&column, &views, 0).contains(&5));
        assert!(actual_pages(&column, &views, 1).contains(&5));
        // Overwrite all of page 5 with values qualifying for neither view:
        // one physical page leaves two views → pages_removed == 2.
        let writes: Vec<(usize, u64)> = (0..VALUES_PER_PAGE)
            .map(|slot| (5 * VALUES_PER_PAGE + slot, 900_000 + slot as u64))
            .collect();
        let updates = column.write_batch(&writes);
        let stats = align_views_after_updates(&column, &mut views, &updates).unwrap();
        assert_eq!(stats.pages_removed, 2, "one page, two views, two removals");
        // And symmetrically: moving one row of page 12 into both ranges
        // adds the same physical page to both views → pages_added == 2.
        let updates = column.write_batch(&[(12 * VALUES_PER_PAGE, 5_100)]);
        let stats = align_views_after_updates(&column, &mut views, &updates).unwrap();
        assert_eq!(stats.pages_added, 2, "one page, two views, two additions");
    }

    #[test]
    fn sync_alignment_bumps_the_view_generation() {
        let range = ValueRange::new(5_000, 9_400);
        let (mut column, mut views) = column_with_view(SimBackend::new(), 32, range);
        assert_eq!(views.generation(), 0);
        let updates = column.write_batch(&[(20 * VALUES_PER_PAGE, 6_000)]);
        align_views_after_updates(&column, &mut views, &updates).unwrap();
        assert_eq!(views.generation(), 1);
        // Rebuilds are epoch changes, too.
        rebuild_all_views(&column, &mut views, &CreationOptions::ALL).unwrap();
        assert_eq!(views.generation(), 2);
    }

    #[test]
    fn empty_batch_and_empty_view_set_are_noops() {
        let range = ValueRange::new(5_000, 9_400);
        let (column, mut views) = column_with_view(SimBackend::new(), 16, range);
        let stats = align_views_after_updates(&column, &mut views, &[]).unwrap();
        assert_eq!(stats, UpdateAlignmentStats::default());
        let column2 = Column::from_values(SimBackend::new(), &clustered_values(4)).unwrap();
        let mut empty: ViewSet<SimBackend> = ViewSet::new(4);
        let stats =
            align_views_after_updates(&column2, &mut empty, &[Update::new(0, 0, 1)]).unwrap();
        assert_eq!(stats.pages_added, 0);
    }

    #[test]
    fn rebuild_restores_correct_page_sets() {
        let range = ValueRange::new(5_000, 9_400);
        let (mut column, mut views) = column_with_view(SimBackend::new(), 32, range);
        // Make the view stale on purpose (do not align).
        column.write_batch(&[(20 * VALUES_PER_PAGE, 6_000)]);
        let elapsed = rebuild_all_views(&column, &mut views, &CreationOptions::ALL).unwrap();
        assert!(elapsed.as_nanos() > 0);
        assert_eq!(
            actual_pages(&column, &views, 0),
            expected_pages(&column, &range)
        );
    }
}
