//! Figure 7 — update performance of partial views.
//!
//! Paper setup (§3.4): a one-column table of 1M pages, filled uniformly
//! (Figure 7a) or with the sine distribution (Figure 7b) over
//! `[0, 2^64 - 1]`. Five partial views are created, each covering a
//! randomly selected 1/1024-th of the value range. A varying number of
//! updates (100 … 1M) is applied in one batch and all views are aligned;
//! the total time is split into the time to parse the memory mappings and
//! the time to update the views. Additionally, the time to rebuild all five
//! views from scratch is reported as the comparison point, together with
//! the number of physical pages added/removed during alignment.
//!
//! In this codebase every view owns its mapping table, so the "parse" share
//! of an alignment is a table copy (`parse_ms`). What the paper's design
//! pays instead — one `/proc/self/maps` parse per batch — is timed beside
//! it, outside the aligned region, through the kernel oracle
//! (`proc_maps_parse_ms`).

use asv_core::{align_views_after_updates, build_view_for_range, CreationOptions, ViewSet};
use asv_storage::Column;
use asv_util::{Timer, ValueRange};
use asv_vmem::maps::kernel_mapping_tables;
use asv_vmem::{Backend, ViewBuffer};
use asv_workloads::{Distribution, UpdateWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Table;
use crate::scale::Scale;

/// Number of partial views maintained in the experiment (as in the paper).
pub const NUM_VIEWS: usize = 5;
/// Each view covers a 1/1024-th of the value range (as in the paper).
pub const RANGE_FRACTION: u64 = 1024;

/// One measured (distribution, batch size) cell of Figure 7.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Distribution name (uniform / sine).
    pub distribution: String,
    /// Number of updates in the batch.
    pub batch_size: usize,
    /// Time to materialize the alignment snapshot (copies of the views' own
    /// mapping tables and of the updated pages), in milliseconds.
    pub parse_ms: f64,
    /// Time of one `/proc/self/maps` parse that rebuilds the same tables
    /// from the kernel — the per-batch cost of the paper's design (§2.5),
    /// measured after the alignment. 0 where views do not live in kernel
    /// virtual memory (`sim`).
    pub proc_maps_parse_ms: f64,
    /// Time to update the partial views, in milliseconds.
    pub align_ms: f64,
    /// Physical pages newly added to some view.
    pub pages_added: usize,
    /// Physical pages removed from some view.
    pub pages_removed: usize,
    /// Time to rebuild all views from scratch instead (the "New" bar), in
    /// milliseconds.
    pub rebuild_ms: f64,
    /// Total pages indexed by the views before the batch.
    pub indexed_pages_before: usize,
}

/// Draws the `NUM_VIEWS` random view ranges (each 1/1024 of the domain).
pub fn draw_view_ranges(seed: u64) -> Vec<ValueRange> {
    let mut rng = StdRng::seed_from_u64(seed);
    let width = u64::MAX / RANGE_FRACTION;
    (0..NUM_VIEWS)
        .map(|_| {
            let start = rng.gen_range(0..=u64::MAX - width);
            ValueRange::new(start, start + width - 1)
        })
        .collect()
}

fn setup_views<B: Backend>(column: &Column<B>, ranges: &[ValueRange]) -> ViewSet<B> {
    let mut views = ViewSet::new(ranges.len());
    for range in ranges {
        let (buffer, _) =
            build_view_for_range(column, range, &CreationOptions::ALL).expect("view creation");
        views.insert_unchecked(*range, buffer);
    }
    views
}

/// Runs Figure 7 for one distribution on `backend`.
pub fn run_distribution<B: Backend>(
    backend: &B,
    dist: &Distribution,
    scale: &Scale,
    seed: u64,
) -> Vec<Fig7Row> {
    let values = dist.generate_pages(scale.fig7_pages, seed);
    let ranges = draw_view_ranges(seed ^ 0xF167);
    let mut rows = Vec::new();
    for &batch_size in &scale.fig7_batch_sizes {
        // Fresh column and fresh views per batch size so measurements are
        // independent of previous batches.
        let mut column = Column::from_values(backend.clone(), &values).expect("column");
        let mut views = setup_views(&column, &ranges);
        let indexed_pages_before: usize = views.partial_views().iter().map(|v| v.num_pages()).sum();

        let writes = UpdateWorkload::new(seed ^ batch_size as u64).uniform_writes(
            batch_size,
            column.num_rows(),
            u64::MAX,
        );
        let updates = column.write_batch(&writes);
        let stats =
            align_views_after_updates(&column, &mut views, &updates).expect("view alignment");

        // What the paper's design would have paid for this batch, and a
        // check that the tables the views own are the kernel's.
        let buffers: Vec<&B::View> = views.partial_views().iter().map(|v| v.buffer()).collect();
        let oracle_timer = Timer::start();
        let kernel_tables = kernel_mapping_tables(&buffers).expect("/proc/self/maps parse");
        let proc_maps_parse_ms = kernel_tables
            .as_ref()
            .map_or(0.0, |_| oracle_timer.elapsed_ms());
        for (buffer, kernel) in buffers.iter().zip(kernel_tables.iter().flatten()) {
            assert_eq!(buffer.mapping(), kernel, "owned mapping table drifted");
        }

        // Rebuild-from-scratch comparison, measured on the updated column.
        let rebuild_timer = Timer::start();
        let rebuilt = setup_views(&column, &ranges);
        let rebuild_ms = rebuild_timer.elapsed_ms();
        drop(rebuilt);

        rows.push(Fig7Row {
            distribution: dist.name().to_string(),
            batch_size,
            parse_ms: stats.parse_time.as_secs_f64() * 1e3,
            proc_maps_parse_ms,
            align_ms: stats.align_time.as_secs_f64() * 1e3,
            pages_added: stats.pages_added,
            pages_removed: stats.pages_removed,
            rebuild_ms,
            indexed_pages_before,
        });
    }
    rows
}

/// Runs Figure 7 for both distributions (7a uniform, 7b sine), over the
/// full `[0, 2^64 - 1]` domain as in the paper.
pub fn run_all<B: Backend>(backend: &B, scale: &Scale, seed: u64) -> Vec<Fig7Row> {
    let uniform = Distribution::Uniform {
        max_value: u64::MAX,
    };
    let sine = Distribution::Sine {
        max_value: u64::MAX,
        period_pages: 100,
    };
    let mut rows = run_distribution(backend, &uniform, scale, seed);
    rows.extend(run_distribution(backend, &sine, scale, seed));
    rows
}

/// Renders the Figure 7 rows.
pub fn to_table(rows: &[Fig7Row]) -> Table {
    let mut table = Table::new(
        "Figure 7: update performance (batched view alignment vs rebuild)",
        &[
            "distribution",
            "batch size",
            "parse ms",
            "update ms",
            "total ms",
            "proc maps parse ms",
            "rebuild ms",
            "pages added",
            "pages removed",
            "indexed before",
        ],
    );
    for r in rows {
        table.add_row(vec![
            r.distribution.clone(),
            r.batch_size.to_string(),
            format!("{:.2}", r.parse_ms),
            format!("{:.2}", r.align_ms),
            format!("{:.2}", r.parse_ms + r.align_ms),
            format!("{:.2}", r.proc_maps_parse_ms),
            format!("{:.2}", r.rebuild_ms),
            r.pages_added.to_string(),
            r.pages_removed.to_string(),
            r.indexed_pages_before.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_reports_alignment_and_rebuild() {
        let scale = Scale::tiny();
        let rows = run_distribution(
            &asv_vmem::SimBackend::new(),
            &Distribution::Uniform {
                max_value: u64::MAX,
            },
            &scale,
            9,
        );
        assert_eq!(rows.len(), scale.fig7_batch_sizes.len());
        for r in &rows {
            assert!(r.parse_ms >= 0.0 && r.align_ms >= 0.0 && r.rebuild_ms > 0.0);
            assert_eq!(
                r.proc_maps_parse_ms, 0.0,
                "sim views have no kernel mapping"
            );
        }
        // Larger batches touch at least as many pages.
        assert!(
            rows.last().unwrap().pages_added + rows.last().unwrap().pages_removed
                >= rows.first().unwrap().pages_added + rows.first().unwrap().pages_removed
        );
        let table = to_table(&rows);
        assert_eq!(table.num_rows(), rows.len());
    }

    #[test]
    fn view_ranges_are_deterministic_fractions() {
        let a = draw_view_ranges(1);
        let b = draw_view_ranges(1);
        assert_eq!(a, b);
        assert_eq!(a.len(), NUM_VIEWS);
        for r in &a {
            assert_eq!(r.width(), u64::MAX / RANGE_FRACTION);
        }
    }
}
