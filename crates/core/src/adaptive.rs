//! The adaptive column: query answering with adaptive view maintenance.
//!
//! [`AdaptiveColumn`] ties everything together and implements the paper's
//! Listing 1 (`answerQueryAndMaintainViews`): every range query is routed to
//! the most fitting view(s), answered by scanning them (skipping shared
//! pages), and — as a side-product — a new candidate partial view covering
//! (at least) the query range is materialized and offered to the view index.

use std::collections::VecDeque;

use asv_storage::{Column, ScanKernel, ScanMode, Update};
use asv_util::{Timer, ValueRange};
use asv_vmem::{Backend, ViewBuffer, VmemError};

use crate::align::{
    apply_plan, snapshot_alignment, spawn_alignment_chunked, AlignmentPlan,
    PendingChunkedAlignment, WriteOverlay,
};
use crate::config::{AdaptiveConfig, RoutingMode};
use crate::creation::create_while_scanning;
use crate::exec::scan_selected_views;
use crate::query::{QueryExecution, QueryOutcome, RangeQuery, ViewMaintenance};
use crate::router::{route, ViewId};
use crate::stats::ChunkPublishRecord;
use crate::updates::{align_views_after_updates_with, rebuild_all_views, UpdateAlignmentStats};
use crate::viewset::ViewSet;

/// A column equipped with the adaptive virtual-view layer.
///
/// # Example
///
/// A full round-trip: querying builds a partial view as a side-product,
/// writes go through the full view, and a background alignment round
/// re-aligns the views while further writes are queued (immediately
/// visible) and folded in automatically:
///
/// ```
/// use asv_core::{AdaptiveColumn, AdaptiveConfig, RangeQuery};
/// use asv_vmem::SimBackend;
///
/// # fn main() -> Result<(), asv_vmem::VmemError> {
/// let values: Vec<u64> = (0..100_000u64).collect();
/// let mut col = AdaptiveColumn::from_values(
///     SimBackend::new(),
///     &values,
///     AdaptiveConfig::default(),
/// )?;
///
/// // Querying answers exactly and leaves a partial view behind.
/// let q = RangeQuery::new(10_000, 19_999);
/// assert_eq!(col.query(&q)?.count, 10_000);
/// assert_eq!(col.views().num_partial_views(), 1);
///
/// // Writes are applied directly while no alignment is in flight ...
/// let updates = col.write_batch(&[(0, 15_000)]);
/// col.align_views_async(&updates)?;
///
/// // ... and queued while one is: this write is acknowledged into the
/// // overlay, visible to every read, and folded in automatically.
/// col.write(1, 15_001);
/// assert_eq!(col.query(&RangeQuery::new(15_001, 15_001))?.count, 2);
///
/// col.flush_pending_writes()?;
/// assert!(!col.alignment_pending());
/// assert_eq!(col.query(&q)?.count, 10_002);
/// # Ok(())
/// # }
/// ```
pub struct AdaptiveColumn<B: Backend> {
    column: Column<B>,
    views: ViewSet<B>,
    config: AdaptiveConfig,
    /// The in-flight background planning worker, if any. While any
    /// alignment work is pending (worker or unpublished chunks), adaptive
    /// view creation is paused (the plans address views by position/id) and
    /// writes are queued in the overlay instead of hitting the column.
    pending_alignment: Option<PendingChunkedAlignment>,
    /// Chunks planned but not yet published, in publish order.
    ready_chunks: VecDeque<AlignmentPlan>,
    /// Raw record count of the round currently publishing (aggregate
    /// stats report it as the round's `batch_size`).
    round_raw_size: usize,
    /// Position of the next publish within its round.
    next_chunk_index: usize,
    /// The pending-writes queue: rows written while alignment work was in
    /// flight, overlaid onto every read until the round folding them
    /// publishes.
    overlay: WriteOverlay,
    /// Per-chunk publish records, accumulated across rounds until drained
    /// with [`Self::take_chunk_records`].
    chunk_records: Vec<ChunkPublishRecord>,
}

/// Upper bound on retained [`ChunkPublishRecord`]s: when a caller never
/// drains them, the oldest half is dropped on overflow so a long-running
/// column cannot accumulate unbounded stats.
const MAX_CHUNK_RECORDS: usize = 4_096;

/// The [`ScanMode`] a query resolves to.
fn scan_mode(query: &RangeQuery, collect_rows: bool) -> ScanMode {
    if collect_rows {
        ScanMode::CollectRows
    } else if query.is_count_only() {
        ScanMode::CountOnly
    } else {
        ScanMode::Aggregate
    }
}

impl<B: Backend> AdaptiveColumn<B> {
    /// Wraps an existing column.
    pub fn new(column: Column<B>, config: AdaptiveConfig) -> Result<Self, VmemError> {
        let views = ViewSet::new(config.max_views);
        Ok(Self {
            column,
            views,
            config,
            pending_alignment: None,
            ready_chunks: VecDeque::new(),
            round_raw_size: 0,
            next_chunk_index: 0,
            overlay: WriteOverlay::new(),
            chunk_records: Vec::new(),
        })
    }

    /// Materializes a column from values and wraps it in one step.
    pub fn from_values(
        backend: B,
        values: &[u64],
        config: AdaptiveConfig,
    ) -> Result<Self, VmemError> {
        Self::new(Column::from_values(backend, values)?, config)
    }

    /// The underlying physical column.
    pub fn column(&self) -> &Column<B> {
        &self.column
    }

    /// The set of partial views currently maintained.
    pub fn views(&self) -> &ViewSet<B> {
        &self.views
    }

    /// The active configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Changes the routing mode at runtime.
    pub fn set_routing(&mut self, routing: RoutingMode) {
        self.config.routing = routing;
    }

    /// Answers `query`, adaptively maintaining partial views as a
    /// side-product (Listing 1). Returns the aggregate answer.
    pub fn query(&mut self, query: &RangeQuery) -> Result<QueryOutcome, VmemError> {
        self.answer_and_maintain(query, false)
    }

    /// Like [`Self::query`], but also collects the qualifying row ids.
    pub fn query_collect(&mut self, query: &RangeQuery) -> Result<QueryOutcome, VmemError> {
        self.answer_and_maintain(query, true)
    }

    /// Answers `query` with a plain full scan, bypassing all views and all
    /// adaptivity — the baseline of the paper's evaluation (§3.2). The scan
    /// honours the configured [`asv_util::Parallelism`] by sharding the full
    /// view's page range across the fork-join pool.
    pub fn full_scan(&self, query: &RangeQuery) -> QueryOutcome {
        self.full_scan_impl(query, false)
    }

    /// Like [`Self::full_scan`], but also collects the qualifying row ids —
    /// the row-level baseline [`Self::query_collect`] is compared against.
    pub fn full_scan_collect(&self, query: &RangeQuery) -> QueryOutcome {
        self.full_scan_impl(query, true)
    }

    fn full_scan_impl(&self, query: &RangeQuery, collect_rows: bool) -> QueryOutcome {
        let timer = Timer::start();
        let mode = scan_mode(query, collect_rows);
        let mut out = if self.overlay.is_empty() {
            self.column
                .full_scan_with(query.range(), mode, self.config.parallelism)
        } else {
            self.column.full_scan_excluding_masks(
                query.range(),
                mode,
                self.config.parallelism,
                &self.overlay.exclusion_masks(),
            )
        };
        apply_overlay_to_answer(
            &self.overlay,
            query.range(),
            mode,
            &mut out.result.count,
            &mut out.result.sum,
            &mut out.rows,
        );
        QueryOutcome {
            count: out.result.count,
            sum: out.result.sum,
            rows: out.rows,
            scanned_pages: self.column.num_pages(),
            views_used: vec![ViewId::Full],
            view_maintenance: ViewMaintenance::NotAttempted,
            executed: QueryExecution::FullScan,
            elapsed: timer.elapsed(),
        }
    }

    /// Writes `new_value` into `row`, returning the update record.
    ///
    /// With no alignment in flight this is the direct "update through the
    /// full view" path of §2.4: the physical column is written immediately
    /// and the partial views stay untouched until [`Self::align_views`] /
    /// [`Self::align_views_async`] re-aligns them with the collected update
    /// records.
    ///
    /// While alignment work *is* pending, the write is **queued** instead:
    /// it lands in the pending-writes overlay, every read resolves it from
    /// there (so the acknowledged value is visible immediately, to queries
    /// and full scans alike), and the queue drains into the next alignment
    /// round automatically when the current round's last chunk publishes —
    /// no extra alignment call is needed for queued writes. The returned
    /// record's `old_value` is the previously *visible* value (overlay or
    /// column).
    ///
    /// When the queue reaches [`crate::AlignChunking::max_queued_writes`],
    /// backpressure is applied *without blocking the writer*: the in-flight
    /// round is nudged forward (one non-blocking publish poll, so a
    /// completed round folds the queue into a fresh one) and the write is
    /// queued regardless — the bound is soft and no write is ever dropped
    /// or stalled.
    ///
    /// # Panics
    /// Panics if the backpressure publish poll fails — impossible through
    /// this API, which pins view positions while plans are in flight.
    pub fn write(&mut self, row: usize, new_value: u64) -> Update {
        if self.alignment_pending() {
            self.queue_write(row, new_value)
        } else {
            self.column.write(row, new_value)
        }
    }

    /// Applies a batch of `(row, value)` writes, returning the update
    /// records to later pass to [`Self::align_views`] — or, while alignment
    /// work is pending, queues the whole batch (see [`Self::write`]):
    /// queued batches fold into the next alignment round automatically and
    /// must *not* be passed to an alignment call again.
    pub fn write_batch(&mut self, writes: &[(usize, u64)]) -> Vec<Update> {
        if self.alignment_pending() {
            // Re-check per element: a backpressure flush mid-batch ends the
            // pending state, and the remaining writes must then go directly
            // to the column (overlay entries may only exist while alignment
            // work is pending — a stranded entry would never drain).
            writes
                .iter()
                .map(|&(row, value)| self.write(row, value))
                .collect()
        } else {
            self.column.write_batch(writes)
        }
    }

    /// Queues one write in the overlay, applying non-blocking backpressure
    /// when the queue bound is hit.
    fn queue_write(&mut self, row: usize, new_value: u64) -> Update {
        debug_assert!(self.alignment_pending(), "queue only while pending");
        if self.overlay.len() >= self.config.chunking.max_queued_writes {
            // Backpressure: *start* draining instead of blocking — publish
            // at most one ready chunk; publishing a round's last chunk
            // completes it and auto-folds the queue into a fresh round.
            // While the planner is still running this is a no-op and the
            // (soft) bound is exceeded; the writer never stalls either way.
            self.poll_aligned_views()
                .expect("publish cannot fail: view positions are pinned while plans are in flight");
            if !self.alignment_pending() {
                // The poll finished all alignment work without re-folding
                // (no views left to align): write directly again.
                return self.column.write(row, new_value);
            }
        }
        let old_value = self
            .overlay
            .value(row as u64)
            .unwrap_or_else(|| self.column.value(row));
        self.overlay.push(row, new_value);
        Update::new(row as u64, old_value, new_value)
    }

    /// The pending-writes overlay (empty unless writes arrived while
    /// alignment work was in flight).
    pub fn write_overlay(&self) -> &WriteOverlay {
        &self.overlay
    }

    /// Aligns all partial views with an already-applied batch of updates
    /// (paper §2.4–2.5), synchronously: queries cannot run until the call
    /// returns. The per-view planning work is fork-joined across the
    /// configured [`asv_util::Parallelism`].
    ///
    /// All pending alignment work — including rounds created by folding
    /// queued writes — is flushed first.
    pub fn align_views(&mut self, batch: &[Update]) -> Result<UpdateAlignmentStats, VmemError> {
        self.flush_pending_writes()?;
        align_views_after_updates_with(
            &self.column,
            &mut self.views,
            batch,
            self.config.parallelism,
        )
    }

    /// Starts aligning all partial views with an already-applied batch of
    /// updates *in the background* (epoch handoff): the batch is shipped to
    /// a worker thread that plans the alignment — split into chunks of at
    /// most [`crate::AlignChunking::chunk_updates`] updates — against
    /// shadow copies of the view mappings, while queries keep running
    /// against the pre-batch view epoch. The aligned views become visible
    /// chunk by chunk as the plan is published
    /// ([`Self::poll_aligned_views`] / [`Self::publish_aligned_views`]);
    /// every published chunk bumps the view-set generation.
    ///
    /// While alignment work is pending, adaptive view creation is paused so
    /// the planned view positions stay valid; queries are answered as
    /// usual. Writes submitted *after* this call are queued in the
    /// pending-writes overlay — immediately visible to reads, folded into
    /// the next alignment round automatically when this round's last chunk
    /// publishes (see [`Self::write`]). All previously pending alignment
    /// work is flushed (blocking) before the new round starts.
    pub fn align_views_async(&mut self, batch: &[Update]) -> Result<(), VmemError> {
        self.flush_pending_writes()?;
        if batch.is_empty() || self.views.is_empty() {
            return Ok(());
        }
        self.start_round(batch)
    }

    /// Snapshots `batch` and ships it to the chunked planning worker.
    fn start_round(&mut self, batch: &[Update]) -> Result<(), VmemError> {
        debug_assert!(!self.alignment_pending());
        let snapshot = snapshot_alignment(&self.column, self.views.mappings(), batch);
        self.round_raw_size = batch.len();
        self.next_chunk_index = 0;
        self.pending_alignment = Some(spawn_alignment_chunked(
            snapshot,
            self.config.parallelism,
            self.config.chunking.chunk_updates,
        ));
        Ok(())
    }

    /// Returns `true` while alignment work is in flight: a worker is
    /// planning or planned chunks await publishing. Writes queue and
    /// adaptive view creation stays paused for as long as this holds.
    pub fn alignment_pending(&self) -> bool {
        self.pending_alignment.is_some() || !self.ready_chunks.is_empty()
    }

    /// Publishes the **next ready chunk** of the pending alignment round,
    /// without blocking: returns `None` while the planning worker is still
    /// running (or nothing is pending), and the published chunk's stats
    /// once a chunk was applied. Epochs advance strictly in chunk order —
    /// chunk `k` of a round always publishes before chunk `k + 1`, and a
    /// later round's chunks never overtake an earlier round's.
    ///
    /// Publishing the last chunk of a round *completes* the round: rows
    /// covered by it leave the read overlay, and any writes queued
    /// meanwhile drain into a fresh round automatically (the worker spawns
    /// immediately; [`Self::alignment_pending`] stays `true`).
    pub fn poll_aligned_views(&mut self) -> Result<Option<UpdateAlignmentStats>, VmemError> {
        match &self.pending_alignment {
            Some(pending) if pending.is_finished() => {
                let plan = self.pending_alignment.take().expect("checked above").join();
                self.ready_chunks.extend(plan.chunks);
            }
            Some(_) => return Ok(None),
            None => {}
        }
        let Some(chunk) = self.ready_chunks.pop_front() else {
            return Ok(None);
        };
        let stats = self.apply_chunk(&chunk)?;
        if self.ready_chunks.is_empty() {
            self.complete_round()?;
        }
        Ok(Some(stats))
    }

    /// Waits for the pending alignment round (if any) and publishes **all**
    /// of its remaining chunks: the recorded mapping manipulations are
    /// replayed onto the real view buffers, bumping the view-set generation
    /// once per chunk. Returns the aggregate stats of the chunks published
    /// by this call (`batch_size` reports the raw size of the round they
    /// belong to), or `None` if nothing was pending.
    ///
    /// Completing the round drains writes queued meanwhile into a fresh
    /// background round (see [`Self::poll_aligned_views`]); use
    /// [`Self::flush_pending_writes`] to block until no work is left at
    /// all.
    pub fn publish_aligned_views(&mut self) -> Result<Option<UpdateAlignmentStats>, VmemError> {
        if let Some(pending) = self.pending_alignment.take() {
            self.ready_chunks.extend(pending.join().chunks);
        }
        if self.ready_chunks.is_empty() {
            return Ok(None);
        }
        let round_raw_size = self.round_raw_size;
        let mut agg = UpdateAlignmentStats::default();
        while let Some(chunk) = self.ready_chunks.pop_front() {
            agg.absorb(&self.apply_chunk(&chunk)?);
        }
        agg.batch_size = round_raw_size;
        self.complete_round()?;
        Ok(Some(agg))
    }

    /// Blocks until every pending alignment round — including the rounds
    /// repeatedly created by folding queued writes — has been planned and
    /// published and the pending-writes queue is empty. Returns the
    /// aggregate stats over everything published, or `None` if nothing was
    /// pending.
    pub fn flush_pending_writes(&mut self) -> Result<Option<UpdateAlignmentStats>, VmemError> {
        let mut agg: Option<UpdateAlignmentStats> = None;
        while self.alignment_pending() {
            if let Some(stats) = self.publish_aligned_views()? {
                agg.get_or_insert_with(UpdateAlignmentStats::default)
                    .absorb(&stats);
            }
        }
        Ok(agg)
    }

    /// Applies one chunk to the real view buffers and records its publish
    /// latency.
    fn apply_chunk(&mut self, chunk: &AlignmentPlan) -> Result<UpdateAlignmentStats, VmemError> {
        let publish_timer = Timer::start();
        let stats = apply_plan(&self.column, &mut self.views, chunk)?;
        // Bounded: callers that never drain the records must not leak —
        // on overflow the oldest half is dropped (amortized O(1) per push).
        if self.chunk_records.len() >= MAX_CHUNK_RECORDS {
            self.chunk_records.drain(..MAX_CHUNK_RECORDS / 2);
        }
        self.chunk_records.push(ChunkPublishRecord {
            chunk_index: self.next_chunk_index,
            updates: chunk.deduped_size,
            pages_added: stats.pages_added,
            pages_removed: stats.pages_removed,
            publish_time: publish_timer.elapsed(),
            generation: self.views.generation(),
        });
        self.next_chunk_index += 1;
        Ok(stats)
    }

    /// Finishes a fully-published round: retires its overlay entries and
    /// folds writes queued meanwhile into the next round.
    fn complete_round(&mut self) -> Result<(), VmemError> {
        debug_assert!(self.pending_alignment.is_none() && self.ready_chunks.is_empty());
        self.round_raw_size = 0;
        self.next_chunk_index = 0;
        // The published round covered every write it folded: those rows
        // read correctly through the aligned views now.
        self.overlay.retire_aligned();
        if self.overlay.queued_writes() == 0 {
            return Ok(());
        }
        // Auto-fold: drain the queue into the physical column and ship the
        // resulting batch to the next background round.
        let writes = self.overlay.take_queued();
        let updates = self.column.write_batch(&writes);
        if self.views.is_empty() {
            // No views to align — the writes are fully visible through the
            // full view already.
            self.overlay.retire_aligned();
            return Ok(());
        }
        self.start_round(&updates)
    }

    /// The per-chunk publish records accumulated since the last
    /// [`Self::take_chunk_records`], across rounds, in publish order. At
    /// most the newest 4096 records are retained — drain them regularly
    /// to observe every publish.
    pub fn chunk_records(&self) -> &[ChunkPublishRecord] {
        &self.chunk_records
    }

    /// Drains the accumulated per-chunk publish records.
    pub fn take_chunk_records(&mut self) -> Vec<ChunkPublishRecord> {
        std::mem::take(&mut self.chunk_records)
    }

    /// The current view epoch: bumped on every published alignment or
    /// rebuild. Queries observe one epoch for their whole execution.
    pub fn view_generation(&self) -> u64 {
        self.views.generation()
    }

    /// Installs a pre-built partial view covering `range` (warm start /
    /// experiment setup). The view bypasses the retention policy.
    pub fn install_view(&mut self, range: ValueRange, buffer: B::View) -> u64 {
        self.views.insert_unchecked(range, buffer)
    }

    /// Rebuilds every partial view from scratch (the comparison point for
    /// batched alignment in Figure 7). Returns the total rebuild time.
    ///
    /// All pending alignment work (including queued writes) is flushed
    /// first.
    pub fn rebuild_views(&mut self) -> Result<std::time::Duration, VmemError> {
        self.flush_pending_writes()?;
        rebuild_all_views(&self.column, &mut self.views, &self.config.creation)
    }

    fn answer_and_maintain(
        &mut self,
        query: &RangeQuery,
        collect_rows: bool,
    ) -> Result<QueryOutcome, VmemError> {
        let timer = Timer::start();
        let selection = route(
            &self.column,
            &self.views,
            query.range(),
            self.config.routing,
        );
        // Adaptive creation is paused while alignment work is pending: the
        // planned chunks address views by position/id, so the set must stay
        // stable until the round is fully published.
        let create_candidate = self.config.adaptive_creation
            && self.views.can_create_views()
            && !self.alignment_pending();

        let column = &self.column;
        let views = &self.views;
        let mode = scan_mode(query, collect_rows);
        // Rows with queued writes are masked from the scan and answered
        // from the overlay below, so mid-alignment reads see every
        // acknowledged write exactly once.
        let overlay_masks = self.overlay.exclusion_masks();
        let kernel = ScanKernel::new(*query.range(), mode).with_exclusion_masks(&overlay_masks);
        let parallelism = self.config.parallelism;

        let (candidate, mut scan) = if create_candidate {
            let (buffer, scan) = create_while_scanning(column, &self.config.creation, |sink| {
                scan_selected_views(column, views, &selection, &kernel, parallelism, Some(sink))
            })?;
            (Some(buffer), scan)
        } else {
            let scan = scan_selected_views(column, views, &selection, &kernel, parallelism, None)?;
            (None, scan)
        };
        apply_overlay_to_answer(
            &self.overlay,
            query.range(),
            mode,
            &mut scan.result.count,
            &mut scan.result.sum,
            &mut scan.rows,
        );

        // Range widening (Listing 1 lines 13-20): the candidate view covers
        // everything strictly between the closest non-qualifying values
        // observed around the query range, clamped to the covered range of
        // the source views.
        let maintenance = if let Some(buffer) = candidate {
            let widened =
                widen_candidate_range(query.range(), &selection.covered, scan.below, scan.above);
            let candidate_pages = buffer.mapped_pages();
            self.views.offer_candidate(
                widened,
                buffer,
                candidate_pages,
                self.column.num_pages(),
                self.config.discard_tolerance,
                self.config.replacement_tolerance,
            )
        } else {
            ViewMaintenance::NotAttempted
        };

        Ok(QueryOutcome {
            count: scan.result.count,
            sum: scan.result.sum,
            rows: scan.rows,
            scanned_pages: scan.scanned_pages,
            views_used: selection.views,
            view_maintenance: maintenance,
            executed: QueryExecution::Adaptive,
            elapsed: timer.elapsed(),
        })
    }
}

/// Folds the overlaid (acknowledged but not yet aligned) writes into a scan
/// answer whose scan masked the overlaid rows: every overlay value falling
/// into `range` is counted (and summed, unless count-only; and collected,
/// if rows are collected). Collected rows are re-sorted when the overlay
/// added any, since overlay rows arrive out of scan order.
fn apply_overlay_to_answer(
    overlay: &WriteOverlay,
    range: &ValueRange,
    mode: ScanMode,
    count: &mut u64,
    sum: &mut u128,
    rows: &mut Option<Vec<u64>>,
) {
    if overlay.is_empty() {
        return;
    }
    let mut added_rows = false;
    overlay.for_each_qualifying(range, |row, value| {
        *count += 1;
        if !matches!(mode, ScanMode::CountOnly) {
            *sum += value as u128;
        }
        if let Some(rows) = rows.as_mut() {
            rows.push(row);
            added_rows = true;
        }
    });
    if added_rows {
        rows.as_mut()
            .expect("rows were just pushed")
            .sort_unstable();
    }
}

/// Computes the covered range of the candidate view.
fn widen_candidate_range(
    query: &ValueRange,
    source_covered: &ValueRange,
    below: Option<u64>,
    above: Option<u64>,
) -> ValueRange {
    let widened = query.widen_between(below, above);
    // Clamp to the range covered by the source views: pages outside that
    // coverage were never scanned, so nothing can be claimed about them.
    widened
        .intersect(source_covered)
        .unwrap_or(*query)
        .hull(query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AlignChunking, CreationOptions};
    use asv_vmem::{MmapBackend, SimBackend, VALUES_PER_PAGE};

    /// Clustered data: page p holds values in [p*1000, p*1000 + 510].
    fn clustered_values(pages: usize) -> Vec<u64> {
        (0..pages * VALUES_PER_PAGE)
            .map(|i| ((i / VALUES_PER_PAGE) * 1000 + i % VALUES_PER_PAGE) as u64)
            .collect()
    }

    fn reference_answer(values: &[u64], range: &ValueRange) -> (u64, u128) {
        let mut count = 0u64;
        let mut sum = 0u128;
        for &v in values {
            if range.contains(v) {
                count += 1;
                sum += v as u128;
            }
        }
        (count, sum)
    }

    fn adaptive<B: Backend>(
        backend: B,
        values: &[u64],
        config: AdaptiveConfig,
    ) -> AdaptiveColumn<B> {
        AdaptiveColumn::from_values(backend, values, config).unwrap()
    }

    #[test]
    fn first_query_answers_correctly_and_creates_a_view() {
        let values = clustered_values(32);
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        let q = RangeQuery::new(5_000, 9_400);
        let out = col.query(&q).unwrap();
        let (count, sum) = reference_answer(&values, q.range());
        assert_eq!(out.count, count);
        assert_eq!(out.sum, sum);
        assert_eq!(out.scanned_pages, 32); // first query = full scan
        assert_eq!(out.views_used, vec![ViewId::Full]);
        assert_eq!(out.view_maintenance, ViewMaintenance::Inserted);
        assert_eq!(col.views().num_partial_views(), 1);
        let view = col.views().partial_view(0).unwrap();
        assert_eq!(view.num_pages(), 5); // pages 5..=9 qualify
        assert!(view.range().covers(q.range()));
    }

    #[test]
    fn second_query_uses_the_new_view_and_scans_fewer_pages() {
        let values = clustered_values(32);
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        col.query(&RangeQuery::new(5_000, 9_400)).unwrap();
        let q = RangeQuery::new(6_000, 8_000);
        let out = col.query(&q).unwrap();
        let (count, sum) = reference_answer(&values, q.range());
        assert_eq!((out.count, out.sum), (count, sum));
        assert_eq!(out.views_used, vec![ViewId::Partial(0)]);
        assert!(out.scanned_pages <= 5);
    }

    /// Runs a query sequence on `backend`, asserting every adaptive answer
    /// against the full-scan baseline. Shared by the sim and mmap arms of
    /// the cross-backend test below (and by its parallel variant), replacing
    /// the previously copy-pasted per-backend loops.
    fn check_adaptive_matches_full_scans<B: Backend>(
        make_backend: impl Fn() -> B,
        label: &str,
        parallelism: asv_util::Parallelism,
    ) {
        let values = clustered_values(64);
        let mut config = AdaptiveConfig::default()
            .with_max_views(16)
            .with_parallelism(parallelism);
        config.creation = CreationOptions::ALL;
        // Exercise both routing modes.
        for routing in [RoutingMode::SingleView, RoutingMode::MultiView] {
            config.routing = routing;
            let queries: Vec<RangeQuery> = (0..20)
                .map(|i| {
                    let lo = (i * 2_900) as u64;
                    RangeQuery::new(lo, lo + 4_000)
                })
                .collect();
            let mut col = adaptive(make_backend(), &values, config);
            for q in &queries {
                let out = col.query(q).unwrap();
                let base = col.full_scan(q);
                assert_eq!(out.count, base.count, "{label}/{routing:?}");
                assert_eq!(out.sum, base.sum, "{label}/{routing:?}");
            }
        }
    }

    #[test]
    fn adaptive_answers_match_full_scans_over_a_query_sequence() {
        check_adaptive_matches_full_scans(
            SimBackend::new,
            "sim",
            asv_util::Parallelism::Sequential,
        );
        check_adaptive_matches_full_scans(
            MmapBackend::new,
            "mmap",
            asv_util::Parallelism::Sequential,
        );
    }

    #[test]
    fn adaptive_answers_match_full_scans_with_parallel_scans() {
        check_adaptive_matches_full_scans(
            SimBackend::new,
            "sim-par",
            asv_util::Parallelism::Threads(4),
        );
        check_adaptive_matches_full_scans(
            MmapBackend::new,
            "mmap-par",
            asv_util::Parallelism::Threads(4),
        );
    }

    #[test]
    fn count_only_queries_skip_the_checksum_but_count_correctly() {
        let values = clustered_values(32);
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        let q = RangeQuery::new(5_000, 9_400).count_only();
        let out = col.query(&q).unwrap();
        let (count, _) = reference_answer(&values, q.range());
        assert_eq!(out.count, count);
        assert_eq!(out.sum, 0, "count-only answers carry no checksum");
        // Adaptive maintenance is unaffected: the candidate view still gets
        // created with the same widened range as a full query would build.
        assert_eq!(out.view_maintenance, ViewMaintenance::Inserted);
        assert_eq!(col.views().num_partial_views(), 1);
        let view = col.views().partial_view(0).unwrap();
        assert_eq!(view.num_pages(), 5);
        assert!(view.range().covers(q.range()));
        // The count-only full-scan baseline agrees.
        let base = col.full_scan(&q);
        assert_eq!(base.count, count);
        assert_eq!(base.sum, 0);
    }

    #[test]
    fn query_collect_returns_matching_rows() {
        let values = clustered_values(8);
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        let q = RangeQuery::new(3_000, 3_050);
        let out = col.query_collect(&q).unwrap();
        let rows = out.rows.unwrap();
        assert_eq!(rows.len() as u64, out.count);
        for &r in &rows {
            assert!(q.range().contains(values[r as usize]));
        }
        // And the rows are exactly the reference set.
        let expected: Vec<u64> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| q.range().contains(**v))
            .map(|(i, _)| i as u64)
            .collect();
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, expected);
    }

    /// The row-collecting baseline: `query_collect` must return exactly the
    /// rows `full_scan_collect` finds (up to order — views scan pages in
    /// slot order, the full scan in physical order).
    fn check_query_collect_matches_full_scan_collect<B: Backend>(backend: B, label: &str) {
        let values = clustered_values(32);
        let mut col = adaptive(backend, &values, AdaptiveConfig::default());
        for (lo, hi) in [
            (5_000, 9_400),
            (6_000, 8_000),
            (0, 40_000),
            (31_400, 31_510),
        ] {
            let q = RangeQuery::new(lo, hi);
            let out = col.query_collect(&q).unwrap();
            let base = col.full_scan_collect(&q);
            assert_eq!(out.count, base.count, "{label} [{lo},{hi}]");
            assert_eq!(out.sum, base.sum, "{label} [{lo},{hi}]");
            let mut rows = out.rows.expect("query_collect returns rows");
            rows.sort_unstable();
            let base_rows = base.rows.expect("full_scan_collect returns rows");
            // The full scan visits pages in physical order: already sorted.
            assert_eq!(rows, base_rows, "{label} [{lo},{hi}]");
        }
    }

    #[test]
    fn query_collect_matches_full_scan_collect() {
        check_query_collect_matches_full_scan_collect(SimBackend::new(), "sim");
        check_query_collect_matches_full_scan_collect(MmapBackend::new(), "mmap");
    }

    /// Background alignment: mid-alignment queries stay on the pre-batch
    /// view epoch, publish advances the generation, and the published view
    /// layout matches what synchronous alignment produces.
    fn check_background_alignment_epoch_handoff<B: Backend>(make_backend: impl Fn() -> B) {
        let values = clustered_values(32);
        let config = AdaptiveConfig::default();
        let mut bg = adaptive(make_backend(), &values, config);
        let mut sync = adaptive(make_backend(), &values, config);
        // Materialize the same partial views on both columns (the probe
        // query inserts its own smaller view on first contact, so run it
        // once up front to settle the view set identically on both twins).
        let seed_query = RangeQuery::new(5_000, 9_400);
        let probe = RangeQuery::new(6_000, 7_000);
        for q in [&seed_query, &probe] {
            bg.query(q).unwrap();
            sync.query(q).unwrap();
        }

        let writes: Vec<(usize, u64)> = (12..20)
            .map(|p| (p * VALUES_PER_PAGE + p, 6_000 + p as u64))
            .collect();
        let bg_updates = bg.write_batch(&writes);
        let sync_updates = sync.write_batch(&writes);

        // Freeze the pre-publish (stale-view) answer for a query routed
        // through the partial views.
        let stale = bg.query(&probe).unwrap();

        let generation_before = bg.view_generation();
        bg.align_views_async(&bg_updates).unwrap();
        assert!(bg.alignment_pending());

        // Mid-alignment: the query is answered on the pre-batch epoch —
        // same views, same answer as before the alignment started — and no
        // new views may appear while the plan is in flight.
        let mid = bg.query(&probe).unwrap();
        assert_eq!(mid.count, stale.count, "pre-batch epoch answer");
        assert_eq!(mid.sum, stale.sum, "pre-batch epoch answer");
        assert_eq!(mid.views_used, stale.views_used);
        assert_eq!(bg.view_generation(), generation_before);
        let uncovered = RangeQuery::new(25_000, 26_000);
        let out = bg.query(&uncovered).unwrap();
        assert_eq!(out.view_maintenance, ViewMaintenance::NotAttempted);

        // Publish and compare against the synchronous twin.
        let bg_stats = bg.publish_aligned_views().unwrap().expect("plan pending");
        assert!(!bg.alignment_pending());
        assert_eq!(bg.view_generation(), generation_before + 1);
        let sync_stats = sync.align_views(&sync_updates).unwrap();
        assert_eq!(bg_stats.pages_added, sync_stats.pages_added);
        assert_eq!(bg_stats.pages_removed, sync_stats.pages_removed);
        assert_eq!(
            bg.views().partial_view(0).unwrap().num_pages(),
            sync.views().partial_view(0).unwrap().num_pages()
        );
        // Post-publish answers match the full scan again.
        let post = bg.query(&probe).unwrap();
        let base = bg.full_scan(&probe);
        assert_eq!(post.count, base.count);
        assert_eq!(post.sum, base.sum);
        // And view creation resumes.
        let out = bg.query(&uncovered).unwrap();
        assert_ne!(out.view_maintenance, ViewMaintenance::NotAttempted);
    }

    #[test]
    fn background_alignment_epoch_handoff_sim() {
        check_background_alignment_epoch_handoff(SimBackend::new);
    }

    #[test]
    fn background_alignment_epoch_handoff_mmap() {
        check_background_alignment_epoch_handoff(MmapBackend::new);
    }

    #[test]
    fn poll_publishes_once_the_worker_finishes() {
        let values = clustered_values(32);
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        col.query(&RangeQuery::new(5_000, 9_400)).unwrap();
        let updates = col.write_batch(&[(20 * VALUES_PER_PAGE, 6_000)]);
        col.align_views_async(&updates).unwrap();
        // Poll until the worker finishes (the plan is tiny, so this is
        // quick); polling must never block and eventually publishes.
        let stats = loop {
            if let Some(stats) = col.poll_aligned_views().unwrap() {
                break stats;
            }
            std::thread::yield_now();
        };
        assert_eq!(stats.pages_added, 1);
        assert!(!col.alignment_pending());
        assert_eq!(col.poll_aligned_views().unwrap(), None);
    }

    #[test]
    fn async_with_empty_batch_or_no_views_is_a_noop() {
        let values = clustered_values(8);
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        // No views yet.
        let updates = col.write_batch(&[(0, 42)]);
        col.align_views_async(&updates).unwrap();
        assert!(!col.alignment_pending());
        // Views exist, but the batch is empty.
        col.query(&RangeQuery::new(1_000, 2_000)).unwrap();
        col.align_views_async(&[]).unwrap();
        assert!(!col.alignment_pending());
        assert_eq!(col.publish_aligned_views().unwrap(), None);
    }

    #[test]
    fn queued_writes_fold_into_the_next_round_automatically() {
        let values = clustered_values(32);
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        col.query(&RangeQuery::new(5_000, 9_400)).unwrap();
        let first = col.write_batch(&[(20 * VALUES_PER_PAGE, 6_000)]);
        col.align_views_async(&first).unwrap();
        assert!(col.alignment_pending());

        // This write arrives mid-alignment: it is queued, not applied, and
        // immediately visible through the overlay.
        let second = col.write_batch(&[(25 * VALUES_PER_PAGE, 7_777)]);
        assert_eq!(second[0].old_value, values[25 * VALUES_PER_PAGE]);
        assert_eq!(col.write_overlay().len(), 1);
        assert_eq!(
            col.column().value(25 * VALUES_PER_PAGE),
            values[25 * VALUES_PER_PAGE],
            "queued write has not reached the physical column"
        );
        let probe = RangeQuery::new(7_777, 7_777);
        assert_eq!(col.query(&probe).unwrap().count, 1, "overlay answers");

        // Publishing the first round completes it and auto-folds the queue
        // into a fresh background round — no alignment call needed.
        let stats = col.publish_aligned_views().unwrap().expect("round pending");
        assert_eq!(stats.pages_added, 1);
        assert_eq!(stats.batch_size, first.len());
        assert!(col.alignment_pending(), "queued write spawned a new round");
        assert_eq!(col.column().value(25 * VALUES_PER_PAGE), 7_777);
        assert_eq!(col.query(&probe).unwrap().count, 1, "still visible");

        col.flush_pending_writes().unwrap();
        assert!(!col.alignment_pending());
        assert!(col.write_overlay().is_empty());
        assert_eq!(col.view_generation(), 2, "two rounds, two epochs");
        // Both pages made it into the view and answers match the baseline.
        let q = RangeQuery::new(5_000, 9_400);
        let out = col.query(&q).unwrap();
        let base = col.full_scan(&q);
        assert_eq!(out.count, base.count);
        assert_eq!(col.query(&probe).unwrap().count, 1);
        // Each published chunk left a record behind.
        assert_eq!(col.chunk_records().len(), 2);
        assert_eq!(col.take_chunk_records().len(), 2);
        assert!(col.chunk_records().is_empty());
    }

    #[test]
    fn starting_a_new_async_alignment_flushes_the_previous_one() {
        let values = clustered_values(32);
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        col.query(&RangeQuery::new(5_000, 9_400)).unwrap();
        let first = col.write_batch(&[(20 * VALUES_PER_PAGE, 6_000)]);
        col.align_views_async(&first).unwrap();
        // Starting another round flushes the previous one (blocking).
        col.align_views_async(&[]).unwrap();
        assert_eq!(col.view_generation(), 1, "first round was published");
        assert!(!col.alignment_pending(), "empty batch starts no round");
        let q = RangeQuery::new(5_000, 9_400);
        let out = col.query(&q).unwrap();
        assert_eq!(out.count, col.full_scan(&q).count);
    }

    /// The core mid-alignment guarantee: every read issued between a
    /// write's acknowledgement and the publish of the round folding it
    /// returns the written value — through adaptive queries, full scans,
    /// row collection and count-only queries alike.
    fn check_mid_alignment_reads_see_acknowledged_writes<B: Backend>(make_backend: impl Fn() -> B) {
        let values = clustered_values(32);
        let mut col = adaptive(make_backend(), &values, AdaptiveConfig::default());
        col.query(&RangeQuery::new(5_000, 9_400)).unwrap();
        col.query(&RangeQuery::new(20_000, 24_000)).unwrap();

        // Base batch, applied directly and shipped to a background round.
        // It only rewrites values on pages the views already map (and keeps
        // them qualifying), so mid-alignment view scans observe it through
        // the physical aliasing — a directly-applied batch that *moves*
        // rows across unmapped pages stays invisible to view-routed scans
        // until publish (the documented pre-batch-epoch contract); the
        // overlay guarantee below is about *queued* writes.
        let base_writes: Vec<(usize, u64)> = (5..9)
            .map(|p| (p * VALUES_PER_PAGE + p, 6_000 + p as u64))
            .collect();
        let updates = col.write_batch(&base_writes);
        col.align_views_async(&updates).unwrap();
        assert!(col.alignment_pending());

        // Acknowledged mid-alignment: moves a row into a view's range, out
        // of another's, and overwrites a previously queued row.
        let queued: Vec<(usize, u64)> = vec![
            (3 * VALUES_PER_PAGE + 1, 8_888),   // into [5000, 9400]
            (21 * VALUES_PER_PAGE, 1),          // out of [20000, 24000]
            (3 * VALUES_PER_PAGE + 1, 21_111),  // overwrite: last write wins
            (30 * VALUES_PER_PAGE + 9, 23_456), // into [20000, 24000]
        ];
        col.write_batch(&queued);

        // Reference model: all writes applied.
        let mut model = values.clone();
        for &(row, v) in base_writes.iter().chain(&queued) {
            model[row] = v;
        }
        let check = |col: &mut AdaptiveColumn<B>, label: &str| {
            for (lo, hi) in [
                (5_000u64, 9_400u64),
                (20_000, 24_000),
                (21_000, 21_200),
                (0, 40_000),
            ] {
                let q = RangeQuery::new(lo, hi);
                let (count, sum) = reference_answer(&model, q.range());
                let out = col.query(&q).unwrap();
                assert_eq!(out.count, count, "{label} query [{lo},{hi}]");
                assert_eq!(out.sum, sum, "{label} query [{lo},{hi}]");
                let base = col.full_scan(&q);
                assert_eq!(base.count, count, "{label} full_scan [{lo},{hi}]");
                assert_eq!(base.sum, sum, "{label} full_scan [{lo},{hi}]");
                let counted = col.query(&q.count_only()).unwrap();
                assert_eq!(counted.count, count, "{label} count_only [{lo},{hi}]");
                assert_eq!(counted.sum, 0, "{label} count_only [{lo},{hi}]");
                let mut rows = col.query_collect(&q).unwrap().rows.unwrap();
                rows.sort_unstable();
                let expected_rows: Vec<u64> = model
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| q.range().contains(**v))
                    .map(|(i, _)| i as u64)
                    .collect();
                assert_eq!(rows, expected_rows, "{label} rows [{lo},{hi}]");
            }
        };
        check(&mut col, "mid-alignment");
        // After the rounds drain, everything still agrees.
        col.flush_pending_writes().unwrap();
        assert!(!col.alignment_pending());
        assert!(col.write_overlay().is_empty());
        check(&mut col, "post-flush");
    }

    #[test]
    fn mid_alignment_reads_see_acknowledged_writes_sim() {
        check_mid_alignment_reads_see_acknowledged_writes(SimBackend::new);
    }

    #[test]
    fn mid_alignment_reads_see_acknowledged_writes_mmap() {
        check_mid_alignment_reads_see_acknowledged_writes(MmapBackend::new);
    }

    #[test]
    fn chunked_rounds_publish_one_epoch_per_chunk() {
        let values = clustered_values(64);
        let chunked_config =
            AdaptiveConfig::default().with_chunking(AlignChunking::default().with_chunk_updates(4));
        let mut chunked = adaptive(SimBackend::new(), &values, chunked_config);
        let mut sync = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        for col in [&mut chunked, &mut sync] {
            col.query(&RangeQuery::new(5_000, 9_400)).unwrap();
        }
        // 20 updates on 20 distinct pages → 5 chunks of 4 updates.
        let writes: Vec<(usize, u64)> = (10..30)
            .map(|p| (p * VALUES_PER_PAGE + p, 6_000 + p as u64))
            .collect();
        let chunked_updates = chunked.write_batch(&writes);
        let sync_updates = sync.write_batch(&writes);

        let generation_before = chunked.view_generation();
        chunked.align_views_async(&chunked_updates).unwrap();
        let agg = chunked
            .publish_aligned_views()
            .unwrap()
            .expect("round pending");
        assert_eq!(
            chunked.view_generation(),
            generation_before + 5,
            "one epoch per chunk"
        );
        let records = chunked.take_chunk_records();
        assert_eq!(records.len(), 5);
        assert!(records.iter().all(|r| r.updates == 4));
        assert_eq!(
            records.iter().map(|r| r.chunk_index).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(agg.pages_added, 20);
        assert_eq!(agg.deduped_size, 20);
        assert_eq!(agg.batch_size, chunked_updates.len());

        // Chunked and unchunked end in the same layout and answers.
        let sync_stats = sync.align_views(&sync_updates).unwrap();
        assert_eq!(sync_stats.pages_added, agg.pages_added);
        let q = RangeQuery::new(5_000, 9_400);
        let a = chunked.query(&q).unwrap();
        let b = sync.query(&q).unwrap();
        assert_eq!((a.count, a.sum), (b.count, b.sum));
        assert_eq!(
            chunked.views().partial_view(0).unwrap().num_pages(),
            sync.views().partial_view(0).unwrap().num_pages()
        );
    }

    #[test]
    fn backpressure_mid_batch_never_strands_overlay_entries() {
        // Regression guard: every write of a batch crossing the queue bound
        // must stay acknowledged and eventually drain — nothing may be
        // stranded in the overlay once all rounds flush.
        let values = clustered_values(32);
        let config = AdaptiveConfig::default()
            .with_chunking(AlignChunking::default().with_max_queued_writes(2));
        let mut col = adaptive(SimBackend::new(), &values, config);
        col.query(&RangeQuery::new(5_000, 9_400)).unwrap();
        let updates = col.write_batch(&[(20 * VALUES_PER_PAGE, 6_000)]);
        col.align_views_async(&updates).unwrap();
        // Four writes: two fill the queue, the rest exceed the soft bound.
        // (Written values lie outside the generated data's domain, so each
        // mid-alignment point query counts exactly the acknowledged write.)
        let batch: Vec<(usize, u64)> = (10..14)
            .map(|p| (p * VALUES_PER_PAGE, 600_000 + p as u64))
            .collect();
        col.write_batch(&batch);
        for &(row, v) in &batch {
            let out = col.query(&RangeQuery::new(v, v)).unwrap();
            assert_eq!(out.count, 1, "row {row} acknowledged mid-alignment");
        }
        col.flush_pending_writes().unwrap();
        assert!(!col.alignment_pending());
        assert!(col.write_overlay().is_empty(), "no stranded entries");
        for &(row, v) in &batch {
            assert_eq!(col.column().value(row), v, "row {row} reached the column");
        }
        // A later direct write stays visible (no stale overlay masking it).
        col.write(13 * VALUES_PER_PAGE, 777_777);
        let out = col.query(&RangeQuery::new(777_777, 777_777)).unwrap();
        assert_eq!(out.count, 1);
    }

    #[test]
    fn queue_backpressure_starts_draining_instead_of_blocking() {
        let values = clustered_values(32);
        let config = AdaptiveConfig::default()
            .with_chunking(AlignChunking::default().with_max_queued_writes(2));
        let mut col = adaptive(SimBackend::new(), &values, config);
        col.query(&RangeQuery::new(5_000, 9_400)).unwrap();
        let updates = col.write_batch(&[(20 * VALUES_PER_PAGE, 6_000)]);
        col.align_views_async(&updates).unwrap();
        // Two writes fit the queue; the third crosses the (soft) bound. The
        // old behaviour blocked the writer on a full flush; now the round is
        // only nudged forward, so the write is acknowledged immediately and
        // alignment work stays in flight (a completed round auto-folds the
        // queue into a fresh one — it never force-drains synchronously).
        col.write(10 * VALUES_PER_PAGE, 700_001);
        col.write(11 * VALUES_PER_PAGE, 700_002);
        assert_eq!(col.write_overlay().len(), 2);
        col.write(12 * VALUES_PER_PAGE, 700_003);
        assert!(
            col.alignment_pending(),
            "backpressure must not flush synchronously"
        );
        for v in 700_001..=700_003u64 {
            let out = col.query(&RangeQuery::new(v, v)).unwrap();
            assert_eq!(out.count, 1, "write {v} acknowledged");
        }
        col.flush_pending_writes().unwrap();
        assert!(col.write_overlay().is_empty());
        assert_eq!(col.column().value(12 * VALUES_PER_PAGE), 700_003);
        assert_eq!(col.column().value(10 * VALUES_PER_PAGE), 700_001);
    }

    #[test]
    fn install_view_bypasses_retention() {
        let values = clustered_values(16);
        let config = AdaptiveConfig::default().with_adaptive_creation(false);
        let mut col = adaptive(SimBackend::new(), &values, config);
        let range = ValueRange::new(5_000, 9_400);
        let (buffer, _) =
            crate::creation::build_view_for_range(col.column(), &range, &CreationOptions::ALL)
                .unwrap();
        col.install_view(range, buffer);
        assert_eq!(col.views().num_partial_views(), 1);
        let q = RangeQuery::new(6_000, 8_000);
        let out = col.query(&q).unwrap();
        assert_eq!(out.views_used, vec![ViewId::Partial(0)]);
        assert_eq!(out.count, col.full_scan(&q).count);
    }

    #[test]
    fn multi_view_mode_combines_views_without_double_counting() {
        let values = clustered_values(40);
        let config = AdaptiveConfig::paper_multi_view(50);
        let mut col = adaptive(SimBackend::new(), &values, config);
        // Create two overlapping views via two queries.
        col.query(&RangeQuery::new(5_000, 12_000)).unwrap();
        col.query(&RangeQuery::new(11_000, 20_000)).unwrap();
        assert!(col.views().num_partial_views() >= 2);
        // A query spanning both views must use them together and still be
        // exact despite the shared pages.
        let q = RangeQuery::new(6_000, 19_000);
        let out = col.query(&q).unwrap();
        let base = col.full_scan(&q);
        assert_eq!(out.count, base.count);
        assert_eq!(out.sum, base.sum);
        assert!(out.num_views_used() >= 2);
        assert!(out.scanned_pages < 40);
    }

    #[test]
    fn view_limit_freezes_view_creation() {
        let values = clustered_values(32);
        let config = AdaptiveConfig::default().with_max_views(2);
        let mut col = adaptive(SimBackend::new(), &values, config);
        col.query(&RangeQuery::new(1_000, 2_000)).unwrap();
        col.query(&RangeQuery::new(10_000, 11_000)).unwrap();
        assert_eq!(col.views().num_partial_views(), 2);
        let out = col.query(&RangeQuery::new(20_000, 21_000)).unwrap();
        assert_eq!(out.view_maintenance, ViewMaintenance::NotAttempted);
        assert_eq!(col.views().num_partial_views(), 2);
    }

    #[test]
    fn disabling_adaptive_creation_keeps_views_static() {
        let values = clustered_values(16);
        let config = AdaptiveConfig::default().with_adaptive_creation(false);
        let mut col = adaptive(SimBackend::new(), &values, config);
        let out = col.query(&RangeQuery::new(1_000, 2_000)).unwrap();
        assert_eq!(out.view_maintenance, ViewMaintenance::NotAttempted);
        assert_eq!(col.views().num_partial_views(), 0);
    }

    #[test]
    fn repeated_identical_queries_do_not_accumulate_views() {
        let values = clustered_values(32);
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        for _ in 0..5 {
            col.query(&RangeQuery::new(5_000, 9_400)).unwrap();
        }
        // The first query inserts a view; subsequent identical candidates
        // cover a subset (or the same range) with the same page count and
        // are discarded.
        assert_eq!(col.views().num_partial_views(), 1);
    }

    #[test]
    fn uniform_data_yields_no_useful_views_but_correct_answers() {
        // With uniform data every page contains small and large values, so
        // candidate views index (almost) all pages and are discarded.
        let values: Vec<u64> = (0..16 * VALUES_PER_PAGE as u64)
            .map(|i| (i * 2_654_435_761) % 1_000_000)
            .collect();
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        let q = RangeQuery::new(0, 500_000);
        let out = col.query(&q).unwrap();
        let (count, sum) = reference_answer(&values, q.range());
        assert_eq!((out.count, out.sum), (count, sum));
        assert_eq!(out.view_maintenance, ViewMaintenance::DiscardedNotSmaller);
        assert_eq!(col.views().num_partial_views(), 0);
    }

    #[test]
    fn empty_column_queries_return_zero() {
        let mut col = adaptive(SimBackend::new(), &[], AdaptiveConfig::default());
        let out = col.query(&RangeQuery::new(0, 100)).unwrap();
        assert_eq!(out.count, 0);
        assert_eq!(out.scanned_pages, 0);
    }

    #[test]
    fn degenerate_all_equal_column() {
        let values = vec![7u64; 3 * VALUES_PER_PAGE];
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        let hit = col.query(&RangeQuery::new(7, 7)).unwrap();
        assert_eq!(hit.count, values.len() as u64);
        let miss = col.query(&RangeQuery::new(8, 100)).unwrap();
        assert_eq!(miss.count, 0);
    }

    #[test]
    fn writes_are_visible_to_subsequent_queries_via_full_view() {
        let values = clustered_values(8);
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        let updates = col.write_batch(&[(0, 999_999)]);
        assert_eq!(updates[0].old_value, values[0]);
        let out = col.query(&RangeQuery::new(999_999, 999_999)).unwrap();
        assert_eq!(out.count, 1);
        assert_eq!(col.column().value(0), 999_999);
    }

    #[test]
    fn set_routing_switches_mode() {
        let values = clustered_values(8);
        let mut col = adaptive(SimBackend::new(), &values, AdaptiveConfig::default());
        assert_eq!(col.config().routing, RoutingMode::SingleView);
        col.set_routing(RoutingMode::MultiView);
        assert_eq!(col.config().routing, RoutingMode::MultiView);
    }

    #[test]
    fn widen_candidate_range_clamps_to_source_coverage() {
        let q = ValueRange::new(100, 200);
        // Source views cover [50, 400]; non-qualifying observations at 80
        // and 320 narrow the widened range to [81, 319].
        let w = widen_candidate_range(&q, &ValueRange::new(50, 400), Some(80), Some(320));
        assert_eq!(w, ValueRange::new(81, 319));
        // Without observations the candidate covers the whole source range.
        let w = widen_candidate_range(&q, &ValueRange::new(50, 400), None, None);
        assert_eq!(w, ValueRange::new(50, 400));
        // Observations outside the source coverage cannot widen beyond it.
        let w = widen_candidate_range(&q, &ValueRange::new(90, 210), Some(10), Some(999));
        assert_eq!(w, ValueRange::new(90, 210));
    }
}
