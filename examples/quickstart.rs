//! Quickstart: materialize a column, fire range queries, watch partial
//! views appear and accelerate later queries.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart [sim|mmap]
//! ```

use adaptive_storage_views::prelude::*;

fn main() {
    let backend = AnyBackend::from_cli_arg().unwrap_or_else(|e| panic!("{e}"));
    // 1. Generate some clustered data (values correlated with their page) —
    //    the kind of time-series/sensor data the paper targets — and
    //    materialize it as a physical column backed by a main-memory file.
    let dist = Distribution::sine();
    let values = dist.generate_pages(4_096, 42); // 4096 pages ≈ 16 MiB
    let column = Column::from_values(backend.clone(), &values).expect("column");
    println!(
        "materialized column: {} rows on {} pages ({} MiB) on the '{}' backend",
        column.num_rows(),
        column.num_pages(),
        column.num_pages() * 4096 / (1024 * 1024),
        backend.name()
    );

    // 2. Attach the adaptive storage-view layer (single-view routing, up to
    //    100 partial views, both creation optimizations — the paper's
    //    default setup).
    let mut adaptive = AdaptiveColumn::new(column, AdaptiveConfig::default()).expect("adaptive");

    // 3. Fire a few range queries. Every query is answered exactly and, as a
    //    side product, may leave behind a partial virtual view that maps
    //    only the qualifying physical pages.
    let queries = [
        RangeQuery::new(10_000_000, 30_000_000),
        RangeQuery::new(12_000_000, 25_000_000), // subsumed by the first view
        RangeQuery::new(70_000_000, 90_000_000),
        RangeQuery::new(75_000_000, 80_000_000),
    ];
    for (i, q) in queries.iter().enumerate() {
        let outcome = adaptive.query(q).expect("query");
        let baseline = adaptive.full_scan(q);
        println!(
            "query {i}: [{:>9}, {:>9}] -> {:>7} rows | scanned {:>4}/{} pages | {:>2} view(s) | {:.2} ms (full scan {:.2} ms) | candidate view: {:?}",
            q.low(),
            q.high(),
            outcome.count,
            outcome.scanned_pages,
            adaptive.column().num_pages(),
            outcome.num_views_used(),
            outcome.elapsed_ms(),
            baseline.elapsed.as_secs_f64() * 1e3,
            outcome.view_maintenance,
        );
        assert_eq!(
            outcome.count, baseline.count,
            "adaptive answer must be exact"
        );
    }

    // 4. Inspect the view index that emerged as a side product.
    println!("\npartial views after the sequence:");
    for (idx, view) in adaptive.views().iter() {
        println!(
            "  view {idx}: covers {} and maps {} physical pages",
            view.range(),
            view.num_pages()
        );
    }

    // 5. Updates go through the storage layer; views are re-aligned in
    //    batches.
    let updates = adaptive.write_batch(&[(0, 15_000_000), (1, 99_999_999)]);
    let stats = adaptive.align_views(&updates).expect("alignment");
    println!(
        "\napplied {} updates: {} page(s) added to views, {} removed (parse {:.3} ms, align {:.3} ms)",
        updates.len(),
        stats.pages_added,
        stats.pages_removed,
        stats.parse_time.as_secs_f64() * 1e3,
        stats.align_time.as_secs_f64() * 1e3,
    );
}
