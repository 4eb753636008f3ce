//! Figure 3 — query performance of explicit vs virtual partial views.
//!
//! Paper setup (§3.1): a column of 1M pages filled with uniform random 8-byte
//! integers in `[0, 100M]`. A single partial view indexes all pages with
//! values in `[0, k]`, with `k` swept in logarithmic steps from 1,250
//! (0.65 % of pages qualify) to 80,000 (33.55 %). After creating the index,
//! 10,000 uniformly selected entries are updated, then a query selecting
//! `[0, k/2]` is answered and timed.

use asv_baselines::{
    BitmapIndex, PageIdVectorIndex, PhysicalScanBaseline, RangeIndex, VirtualViewIndex,
    ZoneMapIndex,
};
use asv_core::CreationOptions;
use asv_util::{average_runtime, ValueRange};
use asv_vmem::Backend;
use asv_workloads::{Distribution, UpdateWorkload, DEFAULT_MAX_VALUE};

use crate::report::Table;
use crate::scale::Scale;

/// The `k` values of the paper's sweep (index range `[0, k]`).
pub const K_VALUES: [u64; 7] = [1_250, 2_500, 5_000, 10_000, 20_000, 40_000, 80_000];

/// One measured (k, variant) cell of Figure 3.
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// Upper bound of the indexed value range `[0, k]`.
    pub k: u64,
    /// Fraction of pages the index covers, in percent.
    pub index_selectivity_pct: f64,
    /// Variant name.
    pub variant: String,
    /// Average query runtime in milliseconds.
    pub runtime_ms: f64,
    /// Result cardinality of the query `[0, k/2]` (identical across
    /// variants; kept as a consistency check).
    pub count: u64,
    /// Number of pages the variant indexes.
    pub indexed_pages: usize,
}

/// Runs the Figure 3 experiment on `backend` and returns one row per
/// (k, variant).
pub fn run<B: Backend>(backend: &B, scale: &Scale, seed: u64) -> Vec<Fig3Row> {
    let dist = Distribution::Uniform {
        max_value: DEFAULT_MAX_VALUE,
    };
    let values = dist.generate_pages(scale.fig3_pages, seed);
    let writes = UpdateWorkload::new(seed ^ 0xF163).uniform_writes(
        scale.fig3_updates,
        values.len(),
        DEFAULT_MAX_VALUE,
    );
    let mut rows = Vec::new();

    for &k in &K_VALUES {
        let index_range = ValueRange::new(0, k);
        let query = ValueRange::new(0, k / 2);
        let mut reference: Option<(u64, u128)> = None;

        // Each variant owns its own representation of the same logical data;
        // build → update → query, timing only the query.
        let mut measure = |index: &mut dyn RangeIndex| -> Fig3Row {
            index.apply_writes(&writes);
            let mut answer = index.query(&query); // warm-up + correctness
            let elapsed = average_runtime(scale.repetitions, || {
                answer = index.query(&query);
            });
            match reference {
                None => reference = Some((answer.count, answer.sum)),
                Some((c, s)) => {
                    assert_eq!(
                        (c, s),
                        (answer.count, answer.sum),
                        "variant {} disagrees with reference for k={k}",
                        index.name()
                    );
                }
            }
            Fig3Row {
                k,
                index_selectivity_pct: 100.0 * index.indexed_pages() as f64
                    / scale.fig3_pages as f64,
                variant: index.name().to_string(),
                runtime_ms: elapsed.as_secs_f64() * 1e3,
                count: answer.count,
                indexed_pages: index.indexed_pages(),
            }
        };

        {
            let mut idx = ZoneMapIndex::build(&values, index_range);
            rows.push(measure(&mut idx));
        }
        {
            let mut idx =
                BitmapIndex::build(backend.clone(), &values, index_range).expect("bitmap column");
            rows.push(measure(&mut idx));
        }
        {
            let mut idx = PageIdVectorIndex::build(backend.clone(), &values, index_range)
                .expect("page-id column");
            rows.push(measure(&mut idx));
        }
        {
            let mut idx = PhysicalScanBaseline::build(&values, index_range);
            rows.push(measure(&mut idx));
        }
        {
            let mut idx = VirtualViewIndex::build(
                backend.clone(),
                &values,
                index_range,
                &CreationOptions::ALL,
            )
            .expect("virtual view column");
            rows.push(measure(&mut idx));
        }
    }
    rows
}

/// Renders the Figure 3 rows as a table (one line per k × variant).
pub fn to_table(rows: &[Fig3Row]) -> Table {
    let mut table = Table::new(
        "Figure 3: explicit vs virtual partial views (query [0, k/2])",
        &["k", "index-sel %", "variant", "runtime ms", "indexed pages"],
    );
    for r in rows {
        table.add_row(vec![
            r.k.to_string(),
            format!("{:.2}", r.index_selectivity_pct),
            r.variant.clone(),
            format!("{:.3}", r.runtime_ms),
            r.indexed_pages.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_consistent_rows() {
        let rows = run(&asv_vmem::SimBackend::new(), &Scale::tiny(), 7);
        // 7 k-values × 5 variants.
        assert_eq!(rows.len(), K_VALUES.len() * 5);
        for chunk in rows.chunks(5) {
            let count = chunk[0].count;
            assert!(chunk.iter().all(|r| r.count == count));
            assert!(chunk.iter().all(|r| r.runtime_ms >= 0.0));
        }
        // Selectivity grows with k for every variant.
        let zonemap: Vec<&Fig3Row> = rows
            .iter()
            .filter(|r| r.variant == "virtual-view")
            .collect();
        assert!(zonemap.first().unwrap().indexed_pages <= zonemap.last().unwrap().indexed_pages);
        let table = to_table(&rows);
        assert_eq!(table.num_rows(), rows.len());
    }
}
