//! Update handling: keeping partial views aligned with a changing column —
//! a miniature of the Figure 7 experiment.
//!
//! Five partial views are created over a column; batches of random updates
//! of increasing size are applied through the storage layer and the views
//! are re-aligned batch-wise. The cost is split into the time to materialize
//! the alignment snapshot (a copy of the mapping table each view owns — the
//! paper parses `/proc/PID/maps` here) and the time to add/remove pages, and
//! compared against rebuilding all views from scratch.
//!
//! Run with:
//! ```text
//! cargo run --release --example update_maintenance [sim|mmap]
//! ```

use adaptive_storage_views::core::{
    align_views_after_updates, build_view_for_range, CreationOptions, ViewSet,
};
use adaptive_storage_views::prelude::*;
use adaptive_storage_views::util::Timer;

fn build_views<B: Backend>(column: &Column<B>, ranges: &[ValueRange]) -> ViewSet<B> {
    let mut views = ViewSet::new(ranges.len());
    for r in ranges {
        let (buffer, _) = build_view_for_range(column, r, &CreationOptions::ALL).expect("view");
        views.insert_unchecked(*r, buffer);
    }
    views
}

fn main() {
    let backend = AnyBackend::from_cli_arg().unwrap_or_else(|e| panic!("{e}"));
    let pages = 8_192;
    let dist = Distribution::Sine {
        max_value: u64::MAX,
        period_pages: 100,
    };
    let values = dist.generate_pages(pages, 21);

    // Five views, each covering 1/1024 of the value domain (as in §3.4).
    let width = u64::MAX / 1024;
    let ranges: Vec<ValueRange> = (0..5u64)
        .map(|i| {
            let start = i * (u64::MAX / 5);
            ValueRange::new(start, start + width - 1)
        })
        .collect();

    println!("column: {pages} pages, sine distribution over the full u64 domain");
    println!("maintaining 5 partial views, each covering 1/1024 of the value range\n");
    println!(
        "{:>10}  {:>10}  {:>10}  {:>10}  {:>7}  {:>7}  {:>11}",
        "batch", "parse ms", "align ms", "total ms", "added", "removed", "rebuild ms"
    );

    for batch_size in [100usize, 1_000, 10_000, 100_000] {
        // Fresh column and views per batch size, so runs are comparable.
        let mut column = Column::from_values(backend.clone(), &values).expect("column");
        let mut views = build_views(&column, &ranges);

        let writes = UpdateWorkload::new(batch_size as u64).uniform_writes(
            batch_size,
            column.num_rows(),
            u64::MAX,
        );
        let updates = column.write_batch(&writes);
        let stats = align_views_after_updates(&column, &mut views, &updates).expect("alignment");

        let rebuild_timer = Timer::start();
        let _rebuilt = build_views(&column, &ranges);
        let rebuild_ms = rebuild_timer.elapsed_ms();

        println!(
            "{:>10}  {:>10.2}  {:>10.2}  {:>10.2}  {:>7}  {:>7}  {:>11.2}",
            batch_size,
            stats.parse_time.as_secs_f64() * 1e3,
            stats.align_time.as_secs_f64() * 1e3,
            stats.total_time().as_secs_f64() * 1e3,
            stats.pages_added,
            stats.pages_removed,
            rebuild_ms
        );
    }

    println!("\nAligning views with a batch of updates is cheaper than rebuilding");
    println!("them from scratch unless the batch rewrites a large fraction of the");
    println!("column (the crossover the paper reports for very large batches).");
}
