//! View alignment after an update batch (paper §2.4).
//!
//! One sort deduplicates the batch and groups it by page
//! ([`asv_storage::PageGroups`]). A view is aligned only where the batch
//! meets its range (see "Only affected views are aligned" below), and
//! there §2.4 decides page by page:
//!
//! * case (1): a page the view does not hold joins it if a new value lies
//!   in the range;
//! * case (2): a page the view holds leaves it if an old value lay in the
//!   range, no new value does, and no value of the post-batch page does.
//!
//! That decision is made in one place, for both owners of views:
//!
//! * [`crate::updates::align_views_after_updates`] (the call behind
//!   [`crate::AdaptiveColumn::align_views`]) aligns mapped views in three
//!   phases on the thread that owns the column, as the paper's Listing 1
//!   does:
//!   1. **Snapshot** ([`snapshot_alignment`]) — the decisions for every
//!      affected view and a copy of the slot ↔ page mapping table the view
//!      owns (where the paper parses `/proc/PID/maps`, §2.5). It is plain
//!      owned data: it borrows nothing from the column.
//!   2. **Plan** ([`plan_alignment`]) — pure computation over the
//!      snapshot: each view's decisions are replayed against a *shadow
//!      copy* of its table, recording the page-table manipulations as
//!      [`ViewOp`]s. A joining page is mapped at the end of the mapped
//!      prefix; a leaving page's slot receives the last mapped page and the
//!      prefix shrinks by one.
//!   3. **Publish** ([`apply_plan`]) — the recorded ops are replayed onto
//!      the real view buffers (a handful of `mmap(MAP_FIXED)` / truncate
//!      calls) and the [`ViewSet`] generation is bumped.
//! * A [`crate::ServeTable`] view maps nothing: it is a sorted page set.
//!   The fold that writes a batch re-aligns every affected set in place
//!   (`realign_pages`, one merge of the set with the view's decisions), and
//!   the next tick publishes the sets that changed.
//!
//! Pages are decided in ascending page-id order — never in `HashMap`
//! iteration order — which pins the layout of newly mapped slots to a
//! single deterministic outcome across runs.
//!
//! # Only affected views are aligned
//!
//! Only the views whose range contains an old or a new value of the
//! deduplicated batch are aligned; every other view is never copied,
//! planned or republished. The filter is exact because §2.4 only acts on a
//! view where the batch meets its range: a page joins only if a new value
//! qualifies (case 1), and is re-inspected for removal only if an old
//! value did (case 2). A view whose range holds neither changes nowhere,
//! so dropping it changes no plan. The same pass finds, per kept view, the
//! groups its range meets, and only those are decided: every other group
//! changes nothing for the view. A batch costs one sort plus one pass over
//! its updates per view; nothing walks every page of the column.
//!
//! Deciding every page before any is applied is exact too. Each page
//! appears in exactly one group, and only that group changes the page's
//! membership in a view (a swap-remove moves the last page to another
//! slot, never out of the view). So the view holds the page when its
//! decision is applied exactly when it did before the batch, and the
//! column already holds the values a case-(2) re-inspection reads.

use std::borrow::Cow;
use std::time::Duration;

use asv_storage::{Column, PageGroups, Update};
use asv_util::{Timer, ValueRange};
use asv_vmem::{Backend, MappingTable, VmemError};

use crate::creation::page_meets_range;
use crate::updates::UpdateAlignmentStats;
use crate::viewset::ViewSet;

/// One mapping manipulation recorded by the planner, replayed on the real
/// view buffer at publish time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViewOp {
    /// Map `phys_page` into view slot `slot` (a single-page rewire).
    Map {
        /// Target view slot.
        slot: usize,
        /// Physical page to map there.
        phys_page: usize,
    },
    /// Shrink the view's mapped prefix to `mapped_pages` slots.
    Truncate {
        /// New mapped-page count.
        mapped_pages: usize,
    },
}

/// The planned alignment of one partial view.
#[derive(Clone, Debug)]
pub struct ViewPlan {
    /// Position of the view in the [`ViewSet`] the snapshot was taken from.
    pub view_idx: usize,
    /// Id of that view (guards against the set changing before publish).
    pub view_id: u64,
    /// Mapping manipulations to replay, in order.
    pub ops: Vec<ViewOp>,
    /// `(view, page)` additions planned for this view.
    pub pages_added: usize,
    /// `(view, page)` removals planned for this view.
    pub pages_removed: usize,
}

/// The planned alignment of a whole view set for one update batch.
#[derive(Clone, Debug)]
pub struct AlignmentPlan {
    /// Number of raw update records in the batch.
    pub batch_size: usize,
    /// Number of records after last-write-wins deduplication.
    pub deduped_size: usize,
    /// Time spent materializing the snapshot after grouping the batch
    /// (see [`UpdateAlignmentStats::parse_time`]).
    pub parse_time: Duration,
    /// Time spent planning.
    pub plan_time: Duration,
    /// Per-view plans; views whose mapping is unaffected are omitted.
    pub views: Vec<ViewPlan>,
}

impl AlignmentPlan {
    /// Total `(view, page)` additions across all views.
    pub fn pages_added(&self) -> usize {
        self.views.iter().map(|v| v.pages_added).sum()
    }

    /// Total `(view, page)` removals across all views.
    pub fn pages_removed(&self) -> usize {
        self.views.iter().map(|v| v.pages_removed).sum()
    }
}

/// The owned state the planner needs to plan an alignment: per kept view
/// its mapping table and its §2.4 page decisions. Borrows nothing from the
/// column or its views.
#[derive(Clone, Debug)]
pub struct AlignmentSnapshot {
    batch_size: usize,
    deduped_size: usize,
    parse_time: Duration,
    /// Per affected partial view: position, id, pre-batch mapping and
    /// page decisions.
    views: Vec<ViewSnapshot>,
}

impl AlignmentSnapshot {
    /// Number of views this snapshot will plan: those whose range contains
    /// an old or a new value of the batch.
    pub fn num_planned_views(&self) -> usize {
        self.views.len()
    }
}

#[derive(Clone, Debug)]
struct ViewSnapshot {
    idx: usize,
    id: u64,
    table: MappingTable,
    /// The view's page decisions, ascending by page.
    changes: Vec<PageChange>,
}

/// A §2.4 decision on one page of one view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PageChange {
    /// Case (1): the page joins the view.
    Add(usize),
    /// Case (2): the page leaves the view.
    Remove(usize),
}

impl PageChange {
    fn page(self) -> usize {
        match self {
            PageChange::Add(page) | PageChange::Remove(page) => page,
        }
    }
}

/// The §2.4 decisions that `groups`, a batch already written to `column`,
/// makes for a view of `range` that holds the pages `holds` accepts,
/// ascending by page; `None` if no old or new value of the batch lies in
/// `range`, so the view is not aligned at all (see the
/// [module docs](self)).
fn page_changes<B: Backend>(
    column: &Column<B>,
    groups: &PageGroups,
    range: &ValueRange,
    holds: impl Fn(usize) -> bool,
) -> Option<Vec<PageChange>> {
    let meets = |u: &Update| range.contains(u.old_value) | range.contains(u.new_value);
    let hits = groups.groups_where(meets);
    if hits.is_empty() {
        return None;
    }
    let changes = hits.into_iter().filter_map(|group| {
        let (page, updates) = (groups.page(group), groups.updates(group));
        let new_qualifies = updates.iter().any(|u| range.contains(u.new_value));
        if !holds(page) {
            return new_qualifies.then_some(PageChange::Add(page));
        }
        // Case (2): none of the new values keep the page qualifying, and
        // an old value did; it leaves if no value left on it qualifies.
        // (If no old value was in range either, the updates are
        // irrelevant to this view.)
        let old_qualified = updates.iter().any(|u| range.contains(u.old_value));
        let leaves = !new_qualifies && old_qualified && !page_meets_range(column, page, range);
        leaves.then_some(PageChange::Remove(page))
    });
    Some(changes.collect())
}

/// Captures everything the alignment planner needs from `column` and the
/// column's partial views for an already-applied `batch` (phase 1).
///
/// `views` yields each partial view's `(position, id, range, mapping
/// table)` — [`ViewSet::mappings`] for a set of view buffers. The batch is
/// deduplicated and grouped by one sort ([`PageGroups`]); a view the batch
/// meets nowhere is dropped (see the [module docs](self)), and each kept
/// view's page decisions are made and its mapping table copied.
pub fn snapshot_alignment<'a, B: Backend>(
    column: &Column<B>,
    views: impl IntoIterator<Item = (usize, u64, ValueRange, &'a MappingTable)>,
    batch: &[Update],
) -> AlignmentSnapshot {
    let groups = PageGroups::new(batch, column.num_pages());

    // The parse timer covers everything after the grouping: the page
    // decisions per view and a copy of every kept view's own mapping
    // table. (The name is the paper's: its Fig. 7 splits alignment into
    // parsing `/proc/PID/maps` and updating the views. Nothing is parsed
    // here.)
    let parse_timer = Timer::start();
    let view_snapshots: Vec<ViewSnapshot> = views
        .into_iter()
        .filter_map(|(idx, id, range, table)| {
            let changes = page_changes(column, &groups, &range, |page| table.contains_phys(page))?;
            // The page → slot index is built on the view's own table the
            // first time it is aligned; this and every later snapshot copy
            // it.
            Some(ViewSnapshot {
                idx,
                id,
                table: table.indexed().clone(),
                changes,
            })
        })
        .collect();
    let parse_time = parse_timer.elapsed();

    AlignmentSnapshot {
        batch_size: batch.len(),
        deduped_size: groups.deduped_size(),
        parse_time,
        views: view_snapshots,
    }
}

/// Replays one view's page decisions against a shadow copy of its mapping
/// table, recording the resulting buffer manipulations: a joining page is
/// mapped at the mapped prefix's end, a leaving page's slot receives the
/// last mapped page and the prefix shrinks by one.
fn plan_view(view: &ViewSnapshot) -> ViewPlan {
    let mut table = view.table.clone();
    let mut mapped = table.len();
    let mut ops = Vec::new();
    let (mut pages_added, mut pages_removed) = (0, 0);
    for change in &view.changes {
        match *change {
            PageChange::Add(page) => {
                ops.push(ViewOp::Map {
                    slot: mapped,
                    phys_page: page,
                });
                table.insert(mapped, page);
                mapped += 1;
                pages_added += 1;
            }
            PageChange::Remove(page) => {
                // Swap-remove: rewire the last mapped slot into the hole,
                // then truncate by one page.
                let hole_slot = table
                    .remove_phys(page)
                    .expect("page is indexed by this view");
                let last_slot = mapped - 1;
                if hole_slot != last_slot {
                    let last_phys = table
                        .phys_for_slot(last_slot)
                        .expect("dense views have a mapping for every slot");
                    ops.push(ViewOp::Map {
                        slot: hole_slot,
                        phys_page: last_phys,
                    });
                    table.remove_slot(last_slot);
                    table.insert(hole_slot, last_phys);
                }
                ops.push(ViewOp::Truncate {
                    mapped_pages: last_slot,
                });
                mapped = last_slot;
                pages_removed += 1;
            }
        }
    }
    ViewPlan {
        view_idx: view.idx,
        view_id: view.id,
        ops,
        pages_added,
        pages_removed,
    }
}

/// Plans the alignment of every view in the snapshot (phase 2), view by
/// view. The plan lists only the views it changes, in snapshot order.
pub fn plan_alignment(snapshot: &AlignmentSnapshot) -> AlignmentPlan {
    let plan_timer = Timer::start();
    let views = snapshot.views.iter().map(plan_view);
    let views = views.filter(|plan| !plan.ops.is_empty()).collect();
    AlignmentPlan {
        batch_size: snapshot.batch_size,
        deduped_size: snapshot.deduped_size,
        parse_time: snapshot.parse_time,
        plan_time: plan_timer.elapsed(),
        views,
    }
}

/// Re-aligns the ascending page set `pages` of a view of `range` with
/// `groups`, a batch already written to `column`: the set with every
/// joining page merged in and every leaving page dropped, borrowed back if
/// nothing changed. `None` if the batch meets `range` nowhere, so the view
/// is not aligned at all.
pub(crate) fn realign_pages<'a, B: Backend>(
    column: &Column<B>,
    groups: &PageGroups,
    range: &ValueRange,
    pages: &'a [usize],
) -> Option<Cow<'a, [usize]>> {
    let holds = |page| pages.binary_search(&page).is_ok();
    let changes = page_changes(column, groups, range, holds)?;
    if changes.is_empty() {
        return Some(Cow::Borrowed(pages));
    }
    let mut realigned = Vec::with_capacity(pages.len() + changes.len());
    let mut rest = pages;
    for change in changes {
        let below = rest.partition_point(|&page| page < change.page());
        realigned.extend_from_slice(&rest[..below]);
        rest = &rest[below..];
        match change {
            PageChange::Add(page) => realigned.push(page),
            PageChange::Remove(_) => rest = &rest[1..],
        }
    }
    realigned.extend_from_slice(rest);
    Some(Cow::Owned(realigned))
}

/// Publishes a plan (phase 3): replays every recorded op onto the real view
/// buffers and bumps the [`ViewSet`] generation, moving queries onto the
/// post-batch view epoch.
///
/// Fails with [`VmemError::Unsupported`] if the view set changed since the
/// snapshot was taken (a view at a planned position no longer carries the
/// snapshotted id).
pub fn apply_plan<B: Backend>(
    column: &Column<B>,
    views: &mut ViewSet<B>,
    plan: &AlignmentPlan,
) -> Result<UpdateAlignmentStats, VmemError> {
    let apply_timer = Timer::start();
    // Validate every planned view position/id up front, before any buffer
    // is touched: a stale plan must fail cleanly, not half-published.
    for view_plan in &plan.views {
        if views
            .partial_view(view_plan.view_idx)
            .map(|v| v.id() != view_plan.view_id)
            .unwrap_or(true)
        {
            return Err(VmemError::Unsupported(
                "view set changed between alignment snapshot and publish",
            ));
        }
    }
    for view_plan in &plan.views {
        let view = views
            .partial_view_mut(view_plan.view_idx)
            .expect("validated above");
        for op in &view_plan.ops {
            match *op {
                ViewOp::Map { slot, phys_page } => {
                    column.map_run_into(view.buffer_mut(), slot, phys_page, 1)?;
                }
                ViewOp::Truncate { mapped_pages } => {
                    column
                        .backend()
                        .truncate_view(view.buffer_mut(), mapped_pages)?;
                }
            }
        }
    }
    views.bump_generation();
    Ok(UpdateAlignmentStats {
        batch_size: plan.batch_size,
        deduped_size: plan.deduped_size,
        parse_time: plan.parse_time,
        align_time: plan.plan_time + apply_timer.elapsed(),
        pages_added: plan.pages_added(),
        pages_removed: plan.pages_removed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CreationOptions;
    use crate::creation::build_view_for_range;
    use asv_vmem::{SimBackend, VALUES_PER_PAGE};

    /// Clustered data: page p holds values in [p*1000, p*1000 + 510].
    fn clustered_values(pages: usize) -> Vec<u64> {
        (0..pages * VALUES_PER_PAGE)
            .map(|i| ((i / VALUES_PER_PAGE) * 1000 + i % VALUES_PER_PAGE) as u64)
            .collect()
    }

    fn column_with_views(
        pages: usize,
        ranges: &[ValueRange],
    ) -> (Column<SimBackend>, ViewSet<SimBackend>) {
        let column = Column::from_values(SimBackend::new(), &clustered_values(pages)).unwrap();
        let mut views = ViewSet::new(10);
        for r in ranges {
            let (buffer, _) = build_view_for_range(&column, r, &CreationOptions::ALL).unwrap();
            views.insert_unchecked(*r, buffer);
        }
        (column, views)
    }

    #[test]
    fn snapshot_keeps_only_views_the_batch_meets() {
        let ranges = [
            ValueRange::new(5_000, 9_400),
            ValueRange::new(12_000, 13_000),
            ValueRange::new(20_000, 20_100),
        ];
        let (mut column, views) = column_with_views(32, &ranges);
        // Old value 12_000 meets the second view, new value 20_050 the
        // third; nothing in the batch meets the first.
        let updates = column.write_batch(&[(12 * VALUES_PER_PAGE, 20_050)]);
        let snap = snapshot_alignment(&column, views.mappings(), &updates);
        let kept: Vec<usize> = snap.views.iter().map(|v| v.idx).collect();
        assert_eq!(kept, vec![1, 2]);
        assert_eq!(snap.num_planned_views(), 2);
    }

    #[test]
    fn snapshot_is_self_contained_and_sorted() {
        // The second view indexes page 7 through its slot-0 value alone.
        let ranges = [ValueRange::new(5_000, 9_400), ValueRange::new(7_000, 7_000)];
        let (mut column, views) = column_with_views(32, &ranges);
        let updates = column.write_batch(&[
            (20 * VALUES_PER_PAGE + 3, 6_000),
            (7 * VALUES_PER_PAGE, 900_000),
            (2 * VALUES_PER_PAGE, 1),
            (20 * VALUES_PER_PAGE + 3, 6_001),
        ]);
        let snap = snapshot_alignment(&column, views.mappings(), &updates);
        assert_eq!(snap.batch_size, 4);
        assert_eq!(snap.deduped_size, 3);
        let changes: Vec<(usize, Vec<PageChange>)> = snap
            .views
            .iter()
            .map(|v| (v.idx, v.changes.clone()))
            .collect();
        // Page 2 meets no range. The re-inspections read post-batch values:
        // the first view keeps page 7 through its other values; the second
        // loses its only value there, which the pre-batch page still held.
        assert_eq!(
            changes,
            vec![
                (0, vec![PageChange::Add(20)]),
                (1, vec![PageChange::Remove(7)])
            ]
        );
    }

    #[test]
    fn plan_records_append_for_new_page() {
        let range = ValueRange::new(5_000, 9_400);
        let (mut column, views) = column_with_views(32, &[range]);
        let before = views.partial_view(0).unwrap().num_pages();
        let updates = column.write_batch(&[(20 * VALUES_PER_PAGE, 6_000)]);
        let snap = snapshot_alignment(&column, views.mappings(), &updates);
        let plan = plan_alignment(&snap);
        assert_eq!(plan.pages_added(), 1);
        assert_eq!(plan.pages_removed(), 0);
        assert_eq!(plan.views.len(), 1);
        assert_eq!(
            plan.views[0].ops,
            vec![ViewOp::Map {
                slot: before,
                phys_page: 20
            }]
        );
    }

    #[test]
    fn publish_fails_if_view_set_changed() {
        let range = ValueRange::new(5_000, 9_400);
        let (mut column, mut views) = column_with_views(32, &[range]);
        let updates = column.write_batch(&[(20 * VALUES_PER_PAGE, 6_000)]);
        let snap = snapshot_alignment(&column, views.mappings(), &updates);
        let plan = plan_alignment(&snap);
        // Replace the view set's only view: ids no longer match.
        views.clear();
        let (buffer, _) = build_view_for_range(&column, &range, &CreationOptions::ALL).unwrap();
        views.insert_unchecked(range, buffer);
        assert!(apply_plan(&column, &mut views, &plan).is_err());
    }
}
