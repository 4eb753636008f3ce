//! The adapter: every call into the system under test goes through this
//! file, and this file lists the public surface the benchmark is frozen
//! against. A later refactor must keep these signatures or land a
//! `benchmark`-archetype PR first.
//!
//! Frozen surface:
//!
//! * `asv_core::AdaptiveColumn::{from_values, query, full_scan,
//!   write_batch, align_views, views, column}`
//! * `asv_core::ServeTable::{new, with_durability, recover, add_column,
//!   install_view, handle, try_write_batch, tick, quiesce, queued_writes,
//!   round_in_flight, generation, live_epochs, align_activity,
//!   drain_publish_micros}`
//! * `asv_core::TableHandle::pin`, `asv_core::Snapshot::{query_range,
//!   query_conjunctive}`
//! * `asv_core::{AdaptiveConfig, AlignChunking, CreationOptions,
//!   RoutingMode, DurabilityConfig, RangeQuery, ViewMaintenance, ViewId}`
//! * `asv_core::wal::{Journal, WalRecord, replay}`
//! * `asv_vmem::{Backend, AnyBackend, MapRequest, MappingTable, VmemError,
//!   VALUES_PER_PAGE}`
//! * `asv_storage::{Column::{from_values, full_view, wrap_view_page,
//!   num_pages, probe_rows_with}, ScanKernel, ScanMode, scan_view,
//!   ExclusionMasks}`
//! * `asv_util::{EpochCell, Reader::pin, Parallelism, ThreadPool,
//!   ValueRange}`
//!
//! Each wrapper opens the span of its layer boundary and records the counts
//! the library hands back, so ratios are measured where the work happens.
//! With tracing off a wrapper costs one relaxed load.

use std::path::Path;
use std::sync::Arc;

pub use asv_core::{AdaptiveColumn, RecoveryInfo, ServeTable, Snapshot, TableHandle};
pub use asv_vmem::{AnyBackend, Backend, MapRequest, MappingTable, VmemError, VALUES_PER_PAGE};

use asv_core::wal::{self, Journal, WalRecord};
use asv_core::{
    AdaptiveConfig, AlignChunking, CreationOptions, DurabilityConfig, RangeQuery, RoutingMode,
    ViewId, ViewMaintenance,
};
use asv_storage::{scan_view, Column, ExclusionMasks, ScanKernel, ScanMode, Update};
use asv_util::{EpochCell, Parallelism, ThreadPool, ValueRange};

use crate::gen::Range;
use crate::oracle::{Answer, ConjAnswer, RangeAnswer, Read};
use crate::trace;

fn value_range(r: &Range) -> ValueRange {
    ValueRange::new(r.lo, r.hi)
}

// ------------------------------------------------------- AdaptiveColumn ---

/// The two knobs the column workloads vary; everything else is fixed here:
/// multi-view routing, run-coalesced creation on the calling thread (no
/// background mapping thread — the generator stays single-threaded) and
/// sequential scans.
#[derive(Clone, Copy, Debug)]
pub struct ColumnConfig {
    pub max_views: usize,
    pub adaptive_creation: bool,
}

fn column_config(c: ColumnConfig) -> AdaptiveConfig {
    AdaptiveConfig::default()
        .with_routing(RoutingMode::MultiView)
        .with_max_views(c.max_views)
        .with_adaptive_creation(c.adaptive_creation)
        .with_creation(CreationOptions::COALESCED)
        .with_parallelism(Parallelism::Sequential)
}

pub fn column_from_values<B: Backend>(
    backend: B,
    values: &[u64],
    config: ColumnConfig,
) -> Result<AdaptiveColumn<B>, VmemError> {
    AdaptiveColumn::from_values(backend, values, column_config(config))
}

pub fn column_query<B: Backend>(
    column: &mut AdaptiveColumn<B>,
    range: &Range,
    count_only: bool,
) -> Result<RangeAnswer, VmemError> {
    let mut query = RangeQuery::new(range.lo, range.hi);
    if count_only {
        query = query.count_only();
    }
    let _span = trace::span("core.query");
    let out = column.query(&query)?;
    if trace::enabled() {
        trace::count("core.queries", 1);
        trace::count("core.pages_scanned", out.scanned_pages as u64);
        trace::count("core.views_used", out.views_used.len() as u64);
        if out
            .views_used
            .iter()
            .any(|v| matches!(v, ViewId::Partial(_)))
        {
            trace::count("core.partial_hits", 1);
        }
        match out.view_maintenance {
            ViewMaintenance::Inserted => trace::count("core.views_inserted", 1),
            ViewMaintenance::ReplacedExisting => trace::count("core.views_replaced", 1),
            ViewMaintenance::DiscardedNotSmaller | ViewMaintenance::DiscardedSubsumed => {
                trace::count("core.views_discarded", 1)
            }
            ViewMaintenance::NotAttempted => {}
        }
    }
    Ok(RangeAnswer {
        count: out.count,
        sum: out.sum,
    })
}

/// The full-scan baseline of `core.speedup_vs_fullscan`.
pub fn column_full_scan<B: Backend>(column: &AdaptiveColumn<B>, range: &Range) -> RangeAnswer {
    let out = column.full_scan(&RangeQuery::new(range.lo, range.hi));
    RangeAnswer {
        count: out.count,
        sum: out.sum,
    }
}

pub fn column_live_views<B: Backend>(column: &AdaptiveColumn<B>) -> usize {
    column.views().num_partial_views()
}

pub fn column_write_batch<B: Backend>(
    column: &mut AdaptiveColumn<B>,
    writes: &[(usize, u64)],
) -> Vec<Update> {
    let _span = trace::span("core.write_batch");
    column.write_batch(writes)
}

pub fn column_align<B: Backend>(
    column: &mut AdaptiveColumn<B>,
    updates: &[Update],
) -> Result<(), VmemError> {
    let _span = trace::span("core.align_views");
    let stats = column.align_views(updates)?;
    if trace::enabled() {
        trace::count("core.align_pages_added", stats.pages_added as u64);
        trace::count("core.align_pages_removed", stats.pages_removed as u64);
        trace::count("core.align_parse_us", stats.parse_time.as_micros() as u64);
        trace::count("core.align_apply_us", stats.align_time.as_micros() as u64);
    }
    Ok(())
}

// ----------------------------------------------------------- ServeTable ---

/// Serving configuration, fixed: sequential reads, 64-update alignment
/// chunks, fold on the first idle tick, incremental alignment, one lane.
fn serve_config() -> AdaptiveConfig {
    AdaptiveConfig::default()
        .with_creation(CreationOptions::COALESCED)
        .with_parallelism(Parallelism::Sequential)
        .with_chunking(
            AlignChunking::default()
                .with_chunk_updates(64)
                .with_group_commit_idle(0),
        )
}

/// The stated fsync policy of `durable_ingest`: one fsync per commit.
pub const FSYNC_EVERY_CHUNKS: usize = 1;

fn durability(journal: &Path) -> DurabilityConfig {
    DurabilityConfig::new(journal).with_fsync_every_chunks(FSYNC_EVERY_CHUNKS)
}

pub fn table_new<B: Backend>(backend: B) -> ServeTable<B> {
    ServeTable::new(backend, serve_config())
}

pub fn table_durable<B: Backend>(backend: B, journal: &Path) -> Result<ServeTable<B>, VmemError> {
    ServeTable::with_durability(backend, serve_config(), durability(journal))
}

pub fn table_recover<B: Backend>(
    backend: B,
    journal: &Path,
) -> Result<(ServeTable<B>, RecoveryInfo), VmemError> {
    let _span = trace::span("serve.recover");
    ServeTable::recover(backend, serve_config(), durability(journal))
}

pub fn table_add_column<B: Backend>(
    table: &mut ServeTable<B>,
    values: &[u64],
) -> Result<usize, VmemError> {
    table.add_column(values)
}

pub fn table_install_view<B: Backend>(
    table: &mut ServeTable<B>,
    col: usize,
    range: &Range,
) -> Result<(), VmemError> {
    table.install_view(col, value_range(range))
}

pub fn table_write_batch<B: Backend>(
    table: &mut ServeTable<B>,
    col: usize,
    writes: &[(usize, u64)],
) -> Result<(), VmemError> {
    let _span = trace::span("serve.write_batch");
    table.try_write_batch(col, writes)
}

pub fn table_tick<B: Backend>(table: &mut ServeTable<B>) -> Result<(), VmemError> {
    let _span = trace::span("serve.tick");
    table.tick()
}

pub fn table_quiesce<B: Backend>(table: &mut ServeTable<B>) -> Result<(), VmemError> {
    let _span = trace::span("serve.quiesce");
    table.quiesce()
}

pub fn table_handle<B: Backend>(table: &ServeTable<B>) -> TableHandle<B> {
    table.handle()
}

pub fn table_generation<B: Backend>(table: &ServeTable<B>) -> u64 {
    table.generation()
}

/// Published epochs not yet reclaimed. Reclaims as a side effect, like a
/// tick does; the harness samples it in traced runs only.
pub fn table_live_epochs<B: Backend>(table: &mut ServeTable<B>) -> usize {
    table.live_epochs()
}

/// Views replanned versus views live at fold time, summed over all rounds.
pub fn table_align_activity<B: Backend>(table: &ServeTable<B>) -> (u64, u64) {
    let activity = table.align_activity();
    (activity.planned_views, activity.candidate_views)
}

/// Publish latency per delta work item since the last call, microseconds.
pub fn table_publish_micros<B: Backend>(table: &mut ServeTable<B>) -> Vec<f64> {
    table
        .drain_publish_micros()
        .into_iter()
        .map(|us| us as f64)
        .collect()
}

/// Whether any column still has queued writes or a round in flight.
pub fn table_work_pending<B: Backend>(table: &ServeTable<B>, columns: usize) -> bool {
    (0..columns).any(|c| table.queued_writes(c) > 0 || table.round_in_flight(c))
}

pub fn table_queued_writes<B: Backend>(table: &ServeTable<B>, columns: usize) -> usize {
    (0..columns).map(|c| table.queued_writes(c)).sum()
}

pub fn pin<B: Backend>(handle: &TableHandle<B>) -> Snapshot<B> {
    let _span = trace::span("serve.pin");
    handle.pin()
}

/// Answers `read` on a pinned snapshot. The serving layer has no
/// count-only reads; the generators never ask it for one.
pub fn snapshot_answer<B: Backend>(snapshot: &Snapshot<B>, read: &Read) -> Answer {
    match read {
        Read::Range { col, range, .. } => {
            let _span = trace::span("serve.query_range");
            let out = snapshot.query_range(*col, &value_range(range));
            Answer::Range(RangeAnswer {
                count: out.count,
                sum: out.sum,
            })
        }
        Read::Conjunctive { predicates } => {
            let _span = trace::span("serve.query_conj");
            let preds: Vec<(usize, ValueRange)> = predicates
                .iter()
                .map(|(col, range)| (*col, value_range(range)))
                .collect();
            let out = snapshot.query_conjunctive(&preds);
            Answer::Conjunctive(ConjAnswer {
                count: out.count,
                rows_checksum: out.rows_checksum,
            })
        }
    }
}

// -------------------------------------------------------- direct probes ---

/// A bare storage column for the kernel probes.
pub fn storage_column<B: Backend>(backend: B, values: &[u64]) -> Result<Column<B>, VmemError> {
    Column::from_values(backend, values)
}

#[derive(Clone, Copy, Debug)]
pub enum ProbeMode {
    Aggregate,
    CountOnly,
    CollectRows,
}

/// One sequential `scan_view` over the whole column; returns the count so
/// the caller can check it and keep the work observable.
pub fn kernel_scan<B: Backend>(
    column: &Column<B>,
    range: &Range,
    mode: ProbeMode,
    excluded_rows: Option<&ExclusionMasks>,
) -> u64 {
    let mode = match mode {
        ProbeMode::Aggregate => ScanMode::Aggregate,
        ProbeMode::CountOnly => ScanMode::CountOnly,
        ProbeMode::CollectRows => ScanMode::CollectRows,
    };
    let mut kernel = ScanKernel::new(value_range(range), mode);
    if let Some(masks) = excluded_rows {
        kernel = kernel.with_exclusion_masks(masks);
    }
    let pool = ThreadPool::new(Parallelism::Sequential);
    let out = scan_view(
        &kernel,
        column.full_view(),
        |raw| column.wrap_view_page(raw),
        &pool,
    );
    std::hint::black_box(&out.rows);
    out.result.count
}

pub fn exclusion_masks(rows: Vec<u64>) -> ExclusionMasks {
    ExclusionMasks::from_rows(rows)
}

/// Semi-join probe of `rows` (ascending) against `range`.
pub fn kernel_probe<B: Backend>(column: &Column<B>, range: &Range, rows: &[u64]) -> u64 {
    column
        .probe_rows_with(
            &value_range(range),
            ScanMode::CollectRows,
            rows,
            Parallelism::Sequential,
        )
        .result
        .count
}

/// A journal opened for the direct `wal` probes.
pub struct ProbeJournal(Journal);

impl ProbeJournal {
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Journal::create(path, None).map(Self)
    }

    pub fn append_batch(&mut self, writes: &[(usize, u64)]) -> std::io::Result<()> {
        self.0.append(&WalRecord::Batch {
            col: 0,
            writes: writes.iter().map(|&(r, v)| (r as u64, v)).collect(),
        })
    }

    pub fn append_seal(&mut self, epoch: u64) -> std::io::Result<()> {
        self.0.append(&WalRecord::Seal { epoch })
    }

    pub fn sync(&mut self) -> std::io::Result<()> {
        self.0.sync()
    }
}

/// What `wal::replay` found in a journal file.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayInfo {
    pub records: usize,
    pub discarded_bytes: u64,
}

pub fn journal_replay(path: &Path) -> std::io::Result<ReplayInfo> {
    let out = wal::replay(path)?;
    Ok(ReplayInfo {
        records: out.sealed_records.len(),
        discarded_bytes: out.discarded_bytes(),
    })
}

/// `EpochCell` pin and publish cost in nanoseconds per call, on a cell
/// holding a small value (the serving layer's handoff primitive alone).
pub fn epoch_cell_probe(iterations: usize) -> (f64, f64) {
    let cell = Arc::new(EpochCell::new(0u64));
    let reader = cell.reader();
    let started = std::time::Instant::now();
    for _ in 0..iterations {
        std::hint::black_box(*reader.pin());
    }
    let pin_ns = started.elapsed().as_nanos() as f64 / iterations as f64;
    let started = std::time::Instant::now();
    for i in 0..iterations {
        cell.publish(i as u64);
        cell.try_reclaim();
    }
    let publish_ns = started.elapsed().as_nanos() as f64 / iterations as f64;
    (pin_ns, publish_ns)
}
