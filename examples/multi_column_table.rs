//! Multi-column table: the table representation of Figure 1, served.
//!
//! Every column of a [`ServeTable`] is a physical column with its full view
//! plus the partial views installed on it. A conjunctive read intersects the
//! page sets its predicates route to, skips the pages whose zone band misses
//! a predicate, and filters the remaining pages predicate by predicate.
//! Every answer below is checked against a plain filter over the raw values.
//!
//! Run with:
//! ```text
//! cargo run --release --example multi_column_table [sim|mmap]
//! ```

use adaptive_storage_views::core::{ConjunctiveAnswer, ServeTable};
use adaptive_storage_views::prelude::*;

/// The rows on which every `(column, range)` predicate holds over `columns`.
fn filter(columns: &[Vec<u64>], predicates: &[(usize, ValueRange)]) -> ConjunctiveAnswer {
    let rows = (0..columns[0].len()).filter(|&row| {
        predicates
            .iter()
            .all(|(col, range)| range.contains(columns[*col][row]))
    });
    ConjunctiveAnswer::from_rows(rows.map(|row| row as u64))
}

fn main() {
    let backend = AnyBackend::from_cli_arg();
    let pages = 2_048;
    // Three "sensor" columns over the same rows: a sine-shaped temperature
    // curve, a linearly drifting pressure reading and a sparse error code.
    let names = ["temperature", "pressure", "error_code"];
    let mut columns = vec![
        Distribution::sine().generate_pages(pages, 1),
        Distribution::linear().generate_pages(pages, 2),
        Distribution::sparse().generate_pages(pages, 3),
    ];

    let mut table = ServeTable::new(backend.clone(), AdaptiveConfig::default());
    for values in &columns {
        table.add_column(values).expect("column");
    }
    // One partial view per column over the ranges the reads below ask for.
    let views = [
        ValueRange::new(20_000_000, 40_000_000),
        ValueRange::new(40_000_000, 70_000_000),
        ValueRange::new(1, 100_000_000),
    ];
    for (col, range) in views.iter().enumerate() {
        table.install_view(col, *range).expect("view");
    }
    println!(
        "table with {} columns x {} rows on the '{}' backend\n",
        table.num_columns(),
        table.num_rows(0),
        backend.name()
    );

    let reads: [Vec<(usize, ValueRange)>; 4] = [
        vec![(0, views[0])],
        vec![(0, views[0]), (1, views[1])],
        vec![(0, views[0]), (1, views[1]), (2, views[2])],
        // Two predicates on one column intersect to their common range.
        vec![(1, ValueRange::new(45_000_000, 90_000_000)), (1, views[1])],
    ];
    let check = |table: &ServeTable<AnyBackend>, columns: &[Vec<u64>], label: &str| {
        let snap = table.handle().pin();
        for predicates in &reads {
            let answer = snap.query_conjunctive(predicates);
            assert_eq!(
                answer,
                filter(columns, predicates),
                "{label} {predicates:?}"
            );
            let described: Vec<String> = predicates
                .iter()
                .map(|(col, range)| format!("{} in {range}", names[*col]))
                .collect();
            println!(
                "  {label}: {:>7} rows where {}",
                answer.count,
                described.join(" and ")
            );
        }
        let range = snap.query_range(0, &views[0]);
        let expected = filter(columns, &[(0, views[0])]);
        assert_eq!(range.count, expected.count, "{label} range read");
    };
    check(&table, &columns, "loaded");

    // Writes move some pressure readings into the viewed band; once the
    // maintenance tick folds them, the views and the answers follow.
    let writes: Vec<(usize, u64)> = (0..columns[1].len())
        .step_by(997)
        .map(|row| (row, 55_000_000 + row as u64))
        .collect();
    table.try_write_batch(1, &writes).expect("write batch");
    for &(row, value) in &writes {
        columns[1][row] = value;
    }
    table.quiesce().expect("quiesce");
    println!();
    check(&table, &columns, "after writes");
}
