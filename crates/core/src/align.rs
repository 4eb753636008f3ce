//! View alignment in three phases: snapshot, plan, publish.
//!
//! Both callers run the three phases on the one thread that owns the
//! column, as the paper's Listing 1 does (§2.4).
//! [`crate::updates::align_views_after_updates`] (the call behind
//! [`crate::AdaptiveColumn::align_views`]) runs them back-to-back.
//! [`crate::ServeTable`]'s maintenance loop snapshots and plans a round
//! when it folds the write queue and publishes one chunk per tick, while
//! readers keep answering from the epochs they pinned (related work:
//! *Virtual-Memory Assisted Buffer Management* overlaps mapping changes
//! with query execution; *The Virtual Block Interface* decouples mapping
//! management from access latency):
//!
//! 1. **Snapshot** ([`snapshot_alignment`]) — one sort deduplicates the
//!    batch and groups it by page ([`asv_storage::PageGroups`]). Each
//!    partial view then gets the ascending list of groups its range meets
//!    (see "Only affected views are aligned" below); the slot ↔ page
//!    mapping table each kept view owns is copied (where the paper parses `/proc/PID/maps`, §2.5); and
//!    every case-(2) page — indexed, an old value in range, no new value in
//!    it — is re-inspected against the post-batch column. The snapshot
//!    records the verdicts, not the pages. It is plain owned data: it
//!    borrows nothing from the column.
//! 2. **Plan** ([`plan_alignment_chunked`]) — pure computation over the
//!    snapshot: for every kept view, the §2.4 add/remove decisions are
//!    replayed at the groups its range meets against a *shadow copy* of its
//!    mapping table, recording the page-table manipulations as
//!    [`ViewOp`]s, one view after another. The plan reads only the
//!    snapshot, never the column or its views.
//! 3. **Publish** ([`apply_plan`]) — the recorded ops are replayed onto
//!    the real view buffers (a handful of `mmap(MAP_FIXED)` / truncate
//!    calls) and the [`ViewSet`] generation is bumped, moving the column
//!    into the next view epoch. A [`crate::ServeTable`] replays them onto
//!    its views' mapping tables instead, one chunk per tick.
//!
//! Pages are planned in ascending page-id order — never in `HashMap`
//! iteration order — which pins the layout of newly mapped slots to a
//! single deterministic outcome across runs and chunk sizes.
//!
//! # Chunked publishing
//!
//! **Chunked alignment** ([`plan_alignment_chunked`]) serves
//! [`crate::ServeTable`]'s maintenance loop: it splits a large batch into
//! consecutive chunks of bounded update count (whole page groups are never
//! split) and plans *all* of them in one pass against the same evolving
//! shadow mapping tables. Each chunk then publishes as its own epoch, so
//! the publish step is bounded by the chunk size — concatenating the
//! chunks of a [`ChunkedAlignmentPlan`] reproduces the one-chunk plan
//! op-for-op, so every chunk size ends in bit-identical layouts. The
//! writes that arrive while a round is in flight land in their pages'
//! copies and queue for the next round (see [`crate::serve`]).
//!
//! # Only affected views are aligned
//!
//! The snapshot keeps exactly the views whose range contains an old or a
//! new value of the deduplicated batch; every other view is never copied,
//! planned or republished. The filter is exact because §2.4 only acts on a
//! view where the batch meets its range: a page is mapped in only if a new
//! value qualifies (case 1), and re-inspected for removal only if an old
//! value did (case 2). A view whose range holds neither plans zero ops, so
//! dropping it changes no plan. The same pass lists, per kept view, the
//! groups its range meets, and the planner walks only those: every other
//! group changes nothing for the view. A batch costs one sort plus one pass
//! over its updates per view; nothing walks every page of the column.
//!
//! Deciding case (2) in the snapshot is exact too. Each page appears in
//! exactly one group, and only that group changes the page's membership
//! in a view (a swap-remove moves the last page to another slot, never out
//! of the view). So when the planner reaches the group, the shadow table
//! still holds the page exactly when the snapshotted table did, and the
//! column already holds the values the planner would have read.

use std::ops::Range;
use std::time::Duration;

use asv_storage::{Column, PageGroups, Update};
use asv_util::{Timer, ValueRange};
use asv_vmem::{Backend, MappingTable, VmemError};

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

/// The owned state the planner needs to plan an alignment: the grouped
/// batch, and per kept view its mapping table and the page groups its
/// range meets, with the case-(2) re-inspections already decided. Borrows
/// nothing from the column or its views.
#[derive(Clone, Debug)]
pub struct AlignmentSnapshot {
    batch_size: usize,
    parse_time: Duration,
    /// The deduplicated batch grouped by modified page, ascending by page.
    groups: PageGroups,
    /// Per affected partial view: position, id, pre-batch mapping and the
    /// groups its range meets.
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
    /// The groups where an old or a new value lies in the view's range,
    /// ascending.
    hits: Vec<Hit>,
}

/// One page group a view's range meets, read the way §2.4 reads it.
#[derive(Clone, Copy, Debug)]
struct Hit {
    /// Position of the group in the snapshot's [`PageGroups`].
    group: usize,
    /// The group's page.
    page: usize,
    /// Some new value lies in the range.
    new_qualifies: bool,
    /// Some old value lay in the range.
    old_qualified: bool,
    /// For a case-(2) candidate — indexed by the view, no new value in the
    /// range, some old value in it — whether a post-batch value of the
    /// page still lies in the range. `None` for every other hit.
    still_qualifies: Option<bool>,
}

/// The groups of `groups` where an old or a new value lies in `range`.
fn hits_for(groups: &PageGroups, range: &ValueRange) -> Vec<Hit> {
    let meets = |u: &Update| range.contains(u.old_value) | range.contains(u.new_value);
    groups
        .groups_where(meets)
        .into_iter()
        .map(|group| {
            let updates = groups.updates(group);
            Hit {
                group,
                page: groups.page(group),
                new_qualifies: updates.iter().any(|u| range.contains(u.new_value)),
                old_qualified: updates.iter().any(|u| range.contains(u.old_value)),
                still_qualifies: None,
            }
        })
        .collect()
}

/// Captures everything the alignment planner needs from `column` and the
/// column's partial views for an already-applied `batch` (phase 1).
///
/// `views` yields each partial view's `(position, id, range, mapping
/// table)` — [`ViewSet::mappings`] for a set of view buffers. The batch is
/// deduplicated and grouped by one sort ([`PageGroups`]); each view then
/// gets the ascending list of groups its range meets, and a view with an
/// empty list is dropped (see the [module docs](self)). The mapping table
/// of each kept view is copied. Finally every case-(2) candidate is
/// re-inspected: the column already holds the post-batch values, and a
/// page's membership in a view changes only at the page's own group, so
/// whether the page still qualifies can be decided here.
pub fn snapshot_alignment<'a, B: Backend>(
    column: &Column<B>,
    views: impl IntoIterator<Item = (usize, u64, ValueRange, &'a MappingTable)>,
    batch: &[Update],
) -> AlignmentSnapshot {
    let groups = PageGroups::new(batch, column.num_pages());

    // The parse timer covers everything after the grouping: the relevance
    // pass per view, a copy of every kept view's own mapping table and the
    // case-(2) re-inspections. (The name is the paper's: its Fig. 7 splits
    // alignment into parsing `/proc/PID/maps` and updating the views.
    // Nothing is parsed here.)
    let parse_timer = Timer::start();
    let view_snapshots: Vec<ViewSnapshot> = views
        .into_iter()
        .filter_map(|(idx, id, range, table)| {
            let mut hits = hits_for(&groups, &range);
            if hits.is_empty() {
                return None;
            }
            // The page → slot index is built on the view's own table the
            // first time it is aligned; this and every later snapshot copy
            // it.
            let table = table.indexed().clone();
            for hit in &mut hits {
                if !hit.new_qualifies && hit.old_qualified && table.contains_phys(hit.page) {
                    let values = column.page_ref(hit.page).values();
                    hit.still_qualifies = Some(values.iter().any(|v| range.contains(*v)));
                }
            }
            Some(ViewSnapshot {
                idx,
                id,
                table,
                hits,
            })
        })
        .collect();
    let parse_time = parse_timer.elapsed();

    AlignmentSnapshot {
        batch_size: batch.len(),
        parse_time,
        groups,
        views: view_snapshots,
    }
}

/// Replays the §2.4 add/remove rules for one view against a shadow copy of
/// its mapping table, recording the resulting buffer manipulations:
/// case-(1) additions append at the mapped prefix's end, case-(2) removals
/// swap the last slot into the hole and truncate by one. Only the view's
/// hits are walked; every other group leaves the view unchanged.
///
/// The shadow table persists across `boundaries`, so the k-th returned
/// [`ViewPlan`] holds exactly the ops of groups `boundaries[k]` *as they
/// would appear within one uninterrupted pass*. Concatenating all chunks
/// reproduces the one-chunk plan op-for-op.
fn plan_view_chunks(view: &ViewSnapshot, boundaries: &[Range<usize>]) -> Vec<ViewPlan> {
    let mut table = view.table.clone();
    let mut mapped = table.len();
    let mut hits = view.hits.iter().peekable();
    let mut chunks = Vec::with_capacity(boundaries.len());
    for boundary in boundaries {
        let mut ops = Vec::new();
        let mut pages_added = 0usize;
        let mut pages_removed = 0usize;
        while let Some(hit) = hits.next_if(|hit| hit.group < boundary.end) {
            let page = hit.page;
            if !table.contains_phys(page) {
                // Case (1): the page is not indexed but received a value
                // inside the view's range — map it into the first unused
                // slot.
                if hit.new_qualifies {
                    ops.push(ViewOp::Map {
                        slot: mapped,
                        phys_page: page,
                    });
                    table.insert(mapped, page);
                    mapped += 1;
                    pages_added += 1;
                }
            } else if !hit.new_qualifies && hit.old_qualified {
                // Case (2): the page is indexed, none of the new values keep
                // it qualifying *because of this batch*, and an old value
                // did: remove it if no remaining value falls into the
                // range. (If no old value was in range either, the updates
                // are irrelevant to this view.)
                let still_qualifies = hit
                    .still_qualifies
                    .expect("snapshot re-inspected every case-(2) page");
                if !still_qualifies {
                    // Swap-remove: rewire the last mapped slot into the
                    // hole, then truncate by one page.
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
        chunks.push(ViewPlan {
            view_idx: view.idx,
            view_id: view.id,
            ops,
            pages_added,
            pages_removed,
        });
    }
    chunks
}

/// Splits the (deduplicated, page-grouped, page-sorted) update groups into
/// consecutive chunk boundaries of at most `chunk_updates` updates each.
///
/// Page groups are never split across chunks — a chunk exceeds the bound
/// only when a single group already does. `chunk_updates == 0` disables
/// chunking (one boundary covering everything). An empty group list yields
/// one empty boundary, so every plan has at least one chunk (publishing it
/// with [`apply_plan`] bumps the generation even for batches that touch no
/// view).
pub fn chunk_boundaries(groups: &PageGroups, chunk_updates: usize) -> Vec<Range<usize>> {
    if groups.is_empty() || chunk_updates == 0 {
        return std::iter::once(0..groups.len()).collect();
    }
    let mut boundaries = Vec::new();
    let mut start = 0usize;
    let mut in_chunk = 0usize;
    for (idx, (_, updates)) in groups.iter().enumerate() {
        if idx > start && in_chunk + updates.len() > chunk_updates {
            boundaries.push(start..idx);
            start = idx;
            in_chunk = 0;
        }
        in_chunk += updates.len();
    }
    boundaries.push(start..groups.len());
    boundaries
}

/// The planned alignment of a whole batch, split into consecutive chunks
/// that publish as separate [`ViewSet`] epochs.
///
/// Produced by [`plan_alignment_chunked`]. The chunks partition the
/// batch's sorted page groups; concatenating their per-view ops in chunk
/// order reproduces the one-chunk plan exactly, so the final slot ↔ page
/// layout is independent of the chunk size — only the number of
/// intermediate epochs (and the per-publish latency) changes.
#[derive(Clone, Debug)]
pub struct ChunkedAlignmentPlan {
    /// Number of raw update records in the whole batch.
    pub batch_size: usize,
    /// Number of records after last-write-wins deduplication.
    pub deduped_size: usize,
    /// The per-chunk plans, in publish order. Each chunk's
    /// `batch_size`/`deduped_size` count only the updates it folds; the
    /// snapshot's parse time and the (whole-pass) plan time are attributed
    /// to the first chunk so that summing per-chunk stats reproduces the
    /// round totals.
    pub chunks: Vec<AlignmentPlan>,
}

impl ChunkedAlignmentPlan {
    /// Number of chunks (≥ 1).
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Total `(view, page)` additions across all chunks.
    pub fn pages_added(&self) -> usize {
        self.chunks.iter().map(|c| c.pages_added()).sum()
    }

    /// Total `(view, page)` removals across all chunks.
    pub fn pages_removed(&self) -> usize {
        self.chunks.iter().map(|c| c.pages_removed()).sum()
    }
}

/// Plans the alignment of every view in the snapshot as a sequence of
/// chunks of at most `chunk_updates` updates each (phase 2; `0` = one
/// chunk).
///
/// The whole pass runs once, view by view, against
/// shadow mapping tables that persist across chunk boundaries, so the
/// concatenation of all chunks equals the one-chunk plan op-for-op.
/// Publishing chunk-by-chunk therefore walks through intermediate epochs
/// towards the *same* final layout. Each chunk lists only the views it
/// changes, in snapshot order.
pub fn plan_alignment_chunked(
    snapshot: &AlignmentSnapshot,
    chunk_updates: usize,
) -> ChunkedAlignmentPlan {
    let plan_timer = Timer::start();
    let boundaries = chunk_boundaries(&snapshot.groups, chunk_updates);
    let mut chunks: Vec<AlignmentPlan> = boundaries
        .iter()
        .map(|boundary| {
            let updates_in_chunk = snapshot.groups.num_updates(boundary.clone());
            AlignmentPlan {
                batch_size: updates_in_chunk,
                deduped_size: updates_in_chunk,
                parse_time: Duration::ZERO,
                plan_time: Duration::ZERO,
                views: Vec::new(),
            }
        })
        .collect();
    for view in &snapshot.views {
        for (chunk, plan) in chunks.iter_mut().zip(plan_view_chunks(view, &boundaries)) {
            if !plan.ops.is_empty() {
                chunk.views.push(plan);
            }
        }
    }
    chunks[0].parse_time = snapshot.parse_time;
    chunks[0].plan_time = plan_timer.elapsed();
    ChunkedAlignmentPlan {
        batch_size: snapshot.batch_size,
        deduped_size: snapshot.groups.deduped_size(),
        chunks,
    }
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

/// Publishes every chunk of `plan` in order with [`apply_plan`] and returns
/// the round's summed stats, whose `batch_size` is the raw batch size.
pub fn apply_chunked_plan<B: Backend>(
    column: &Column<B>,
    views: &mut ViewSet<B>,
    plan: &ChunkedAlignmentPlan,
) -> Result<UpdateAlignmentStats, VmemError> {
    let mut stats = UpdateAlignmentStats::default();
    for chunk in &plan.chunks {
        stats.absorb(&apply_plan(column, views, chunk)?);
    }
    stats.batch_size = plan.batch_size;
    Ok(stats)
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

    /// The one-chunk plan of `snap`.
    fn plan_whole(snap: &AlignmentSnapshot) -> AlignmentPlan {
        let mut plan = plan_alignment_chunked(snap, 0);
        assert_eq!(plan.num_chunks(), 1);
        plan.chunks.pop().unwrap()
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
        ]);
        let snap = snapshot_alignment(&column, views.mappings(), &updates);
        assert_eq!(snap.batch_size, 3);
        assert_eq!(snap.groups.deduped_size(), 3);
        let pages: Vec<usize> = snap.groups.iter().map(|(p, _)| p).collect();
        assert_eq!(pages, vec![2, 7, 20], "groups sorted by page id");
        assert_eq!(snap.views.len(), 2);
        let hit_pages: Vec<usize> = snap.views[0].hits.iter().map(|h| h.page).collect();
        assert_eq!(hit_pages, vec![7, 20], "page 2 meets no range");
        // Only page 7 may need re-inspection (indexed, old value in range,
        // new value out of range), so only it is decided — pages 2 (never
        // indexed) and 20 (case-1 addition) are not.
        let reinspected: Vec<(usize, usize, bool)> = snap
            .views
            .iter()
            .flat_map(|v| {
                v.hits
                    .iter()
                    .filter_map(move |h| h.still_qualifies.map(|q| (v.idx, h.page, q)))
            })
            .collect();
        // The decisions read post-batch values: the first view keeps page 7
        // through its other values; the second loses its only value there,
        // which the pre-batch page still held.
        assert_eq!(reinspected, vec![(0, 7, true), (1, 7, false)]);
    }

    #[test]
    fn plan_records_append_for_new_page() {
        let range = ValueRange::new(5_000, 9_400);
        let (mut column, views) = column_with_views(32, &[range]);
        let before = views.partial_view(0).unwrap().num_pages();
        let updates = column.write_batch(&[(20 * VALUES_PER_PAGE, 6_000)]);
        let snap = snapshot_alignment(&column, views.mappings(), &updates);
        let plan = plan_whole(&snap);
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
        let plan = plan_whole(&snap);
        // Replace the view set's only view: ids no longer match.
        views.clear();
        let (buffer, _) = build_view_for_range(&column, &range, &CreationOptions::ALL).unwrap();
        views.insert_unchecked(range, buffer);
        assert!(apply_plan(&column, &mut views, &plan).is_err());
    }

    #[test]
    fn chunk_boundaries_pack_whole_page_groups() {
        let batch: Vec<Update> = [(2usize, 3usize), (5, 2), (7, 4), (9, 1), (11, 2)]
            .iter()
            .flat_map(|&(page, n)| {
                (0..n).map(move |i| Update::new((page * VALUES_PER_PAGE + i) as u64, 0, 1))
            })
            .collect();
        let groups = PageGroups::new(&batch, 32);
        // Unchunked: one boundary.
        assert_eq!(chunk_boundaries(&groups, 0), vec![0..5]);
        // Bound 5: [3, 2] = 5, [4, 1] = 5, [2].
        assert_eq!(chunk_boundaries(&groups, 5), vec![0..2, 2..4, 4..5]);
        // Bound 1: every group its own chunk, oversized groups allowed.
        assert_eq!(
            chunk_boundaries(&groups, 1),
            vec![0..1, 1..2, 2..3, 3..4, 4..5]
        );
        // Empty groups: one empty boundary (one epoch, like the sync path).
        assert_eq!(chunk_boundaries(&PageGroups::new(&[], 32), 4), vec![0..0]);
    }

    #[test]
    fn chunked_plan_concatenates_to_the_one_chunk_plan() {
        let ranges = [
            ValueRange::new(5_000, 9_400),
            ValueRange::new(12_000, 20_510),
        ];
        let (mut column, views) = column_with_views(32, &ranges);
        // A mix of additions and removals across many pages: move rows into
        // the first range, wipe page 13 out of the second.
        let mut writes: Vec<(usize, u64)> = (20..30)
            .map(|p| (p * VALUES_PER_PAGE + p, 6_000 + p as u64))
            .collect();
        writes.extend((0..VALUES_PER_PAGE).map(|s| (13 * VALUES_PER_PAGE + s, 1 + s as u64)));
        let updates = column.write_batch(&writes);
        let snap = snapshot_alignment(&column, views.mappings(), &updates);
        let flat = plan_whole(&snap);
        for chunk_updates in [1usize, 3, 64, 1_000] {
            let chunked = plan_alignment_chunked(&snap, chunk_updates);
            assert_eq!(chunked.batch_size, snap.batch_size);
            assert_eq!(chunked.deduped_size, flat.deduped_size);
            assert_eq!(chunked.pages_added(), flat.pages_added());
            assert_eq!(chunked.pages_removed(), flat.pages_removed());
            let total_updates: usize = chunked.chunks.iter().map(|c| c.deduped_size).sum();
            assert_eq!(total_updates, snap.groups.deduped_size());
            // Concatenating the per-view ops across chunks reproduces the
            // unchunked plan op-for-op.
            for view_idx in 0..ranges.len() {
                let concat: Vec<ViewOp> = chunked
                    .chunks
                    .iter()
                    .flat_map(|c| c.views.iter().filter(|v| v.view_idx == view_idx))
                    .flat_map(|v| v.ops.iter().copied())
                    .collect();
                let flat_ops: Vec<ViewOp> = flat
                    .views
                    .iter()
                    .filter(|v| v.view_idx == view_idx)
                    .flat_map(|v| v.ops.iter().copied())
                    .collect();
                assert_eq!(concat, flat_ops, "chunk_updates={chunk_updates}");
            }
        }
    }

    #[test]
    fn publishing_chunks_one_by_one_reaches_the_synchronous_layout() {
        let range = ValueRange::new(5_000, 9_400);
        let writes: Vec<(usize, u64)> = (10..30)
            .map(|p| (p * VALUES_PER_PAGE + p, 6_000 + p as u64))
            .collect();
        // Chunked column: publish each chunk as its own epoch.
        let (mut column, mut views) = column_with_views(32, &[range]);
        let updates = column.write_batch(&writes);
        let snap = snapshot_alignment(&column, views.mappings(), &updates);
        let chunked = plan_alignment_chunked(&snap, 4);
        assert_eq!(chunked.num_chunks(), 5);
        let generation_before = views.generation();
        for chunk in &chunked.chunks {
            apply_plan(&column, &mut views, chunk).unwrap();
        }
        assert_eq!(views.generation(), generation_before + 5);
        // Synchronous twin.
        let (mut sync_col, mut sync_views) = column_with_views(32, &[range]);
        let sync_updates = sync_col.write_batch(&writes);
        crate::updates::align_views_after_updates(&sync_col, &mut sync_views, &sync_updates)
            .unwrap();
        let layout = |col: &Column<SimBackend>, views: &ViewSet<SimBackend>| -> Vec<usize> {
            let view = views.partial_view(0).unwrap();
            let table = col
                .backend()
                .mapping_table(col.store(), view.buffer())
                .unwrap();
            (0..view.num_pages())
                .map(|slot| table.phys_for_slot(slot).unwrap())
                .collect()
        };
        assert_eq!(
            layout(&column, &views),
            layout(&sync_col, &sync_views),
            "chunked publishes end bit-identical to one synchronous pass"
        );
    }
}
