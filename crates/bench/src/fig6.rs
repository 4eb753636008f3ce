//! Figure 6 — impact of the view-creation optimizations.
//!
//! Paper setup (§3.3): the time to create a single partial view on a 3.9 GB
//! column is measured (a) without optimizations, (b) with consecutive
//! qualifying pages mapped in one `mmap()`, (c) with mapping performed by a
//! separate thread, and (d) with both optimizations.
//!
//! * Figure 6a: uniform distribution over `[0, 100M]`, view `v[0, 100k]`
//!   (≈ 40 % of all pages qualify).
//! * Figure 6b: sine distribution over `[0, 2^64 - 1]`, view `v[0, 2^63]`
//!   (≈ 52 % of all pages qualify, heavily clustered).

use asv_core::{build_view_for_range, CreationOptions};
use asv_storage::Column;
use asv_util::{average_runtime, ValueRange};
use asv_vmem::Backend;
use asv_workloads::{Distribution, DEFAULT_MAX_VALUE};

use crate::report::Table;
use crate::scale::Scale;

/// One measured (distribution, optimization variant) cell of Figure 6.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Distribution name (uniform / sine).
    pub distribution: String,
    /// Optimization variant label.
    pub variant: &'static str,
    /// Average time to create the partial view, in milliseconds.
    pub create_ms: f64,
    /// Number of pages the created view maps.
    pub mapped_pages: usize,
}

/// The four optimization variants in the paper's plotting order.
pub const VARIANTS: [(&str, CreationOptions); 4] = [
    ("no-optimizations", CreationOptions::NONE),
    ("consecutively-mapped", CreationOptions::COALESCED),
    ("concurrently-mapped", CreationOptions::CONCURRENT),
    ("both-optimizations", CreationOptions::ALL),
];

/// Runs Figure 6 for both distributions on `backend`.
pub fn run<B: Backend>(backend: &B, scale: &Scale, seed: u64) -> Vec<Fig6Row> {
    let mut rows = Vec::new();
    // Figure 6a: uniform distribution, view [0, 100k].
    {
        let dist = Distribution::Uniform {
            max_value: DEFAULT_MAX_VALUE,
        };
        let values = dist.generate_pages(scale.fig6_pages, seed);
        let column = Column::from_values(backend.clone(), &values).expect("column");
        rows.extend(run_column(
            &column,
            "uniform",
            &ValueRange::new(0, 100_000),
            scale,
        ));
    }
    // Figure 6b: sine distribution over the full u64 domain, view [0, 2^63].
    {
        let dist = Distribution::Sine {
            max_value: u64::MAX,
            period_pages: 100,
        };
        let values = dist.generate_pages(scale.fig6_pages, seed);
        let column = Column::from_values(backend.clone(), &values).expect("column");
        rows.extend(run_column(
            &column,
            "sine",
            &ValueRange::new(0, 1u64 << 63),
            scale,
        ));
    }
    rows
}

fn run_column<B: Backend>(
    column: &Column<B>,
    distribution: &str,
    view_range: &ValueRange,
    scale: &Scale,
) -> Vec<Fig6Row> {
    VARIANTS
        .iter()
        .map(|(label, options)| {
            let mut mapped_pages = 0usize;
            let elapsed = average_runtime(scale.repetitions, || {
                let (view, pages) =
                    build_view_for_range(column, view_range, options).expect("view creation");
                mapped_pages = pages;
                drop(view);
            });
            Fig6Row {
                distribution: distribution.to_string(),
                variant: label,
                create_ms: elapsed.as_secs_f64() * 1e3,
                mapped_pages,
            }
        })
        .collect()
}

/// Renders the Figure 6 rows.
pub fn to_table(rows: &[Fig6Row]) -> Table {
    let mut table = Table::new(
        "Figure 6: time to create a single partial view",
        &["distribution", "variant", "create ms", "mapped pages"],
    );
    for r in rows {
        table.add_row(vec![
            r.distribution.clone(),
            r.variant.to_string(),
            format!("{:.2}", r.create_ms),
            r.mapped_pages.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_measures_all_variants() {
        let rows = run(&asv_vmem::SimBackend::new(), &Scale::tiny(), 11);
        assert_eq!(rows.len(), 8); // 2 distributions × 4 variants
                                   // All variants of one distribution map the same number of pages.
        for chunk in rows.chunks(4) {
            let pages = chunk[0].mapped_pages;
            assert!(pages > 0);
            assert!(chunk.iter().all(|r| r.mapped_pages == pages));
            assert!(chunk.iter().all(|r| r.create_ms >= 0.0));
        }
        let table = to_table(&rows);
        assert_eq!(table.num_rows(), 8);
    }
}
