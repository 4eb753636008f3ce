//! What a [`ServeTable`] asks of its backend and what it refuses.
//!
//! * **No view calls of its own**: a counting backend shows that after the
//!   columns' own loads ([`Column::from_values`] reserves and maps each
//!   column's full view), installing views, churning pages into and out of
//!   them and quiescing make no `reserve_view`, `map_run` or
//!   `truncate_view` call. Served partial views are page sets, read
//!   through the column's full view.
//! * **Bad input is an error, not a panic**: writes and view installs that
//!   name a missing column or a row past the column's end, and sealed
//!   journals whose records contradict the table they rebuild or hold an
//!   inverted view range, return a [`VmemError`] — a rejected write or
//!   install journals nothing. A [`TableWriter`](asv_core::TableWriter)
//!   rejects the same writes before sending them, also for columns added
//!   after it was created.
//! * **Conjunctive reads equal a model**: seeded predicate sets over
//!   columns of unequal length, with views, overlays and frozen page
//!   copies live, answer exactly what a plain row-by-row model answers, on
//!   both backends, sequentially and on two threads. A row past any
//!   predicate column's end qualifies for nothing.
//! * **Zone-band pruning keeps answers exact**: narrow range and
//!   conjunctive reads over views three pages wide, which skip the routed
//!   pages whose zone band misses the range, answer like a model while
//!   writes move values across view bands (and back), pins are held across
//!   folds and retires, and idle ticks re-tighten the bands under older
//!   pins.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use asv_core::wal::{Journal, WalRecord};
use asv_core::{
    AdaptiveConfig, AlignChunking, ConjunctiveAnswer, DurabilityConfig, Parallelism, ServeTable,
    Snapshot,
};
use asv_storage::Column;
use asv_util::ValueRange;
use asv_vmem::{Backend, MapRequest, SimBackend, VmemError, VALUES_PER_PAGE};
use asv_workloads::{Distribution, UpdateWorkload};

/// A [`SimBackend`] that counts the view calls made through it:
/// `[reserve_view, map_run, truncate_view]`.
#[derive(Clone)]
struct CountingBackend {
    inner: SimBackend,
    calls: Arc<Mutex<[usize; 3]>>,
}

impl CountingBackend {
    fn new() -> Self {
        Self {
            inner: SimBackend::new(),
            calls: Arc::default(),
        }
    }

    fn calls(&self) -> [usize; 3] {
        *self.calls.lock().unwrap()
    }

    fn count(&self, call: usize) {
        self.calls.lock().unwrap()[call] += 1;
    }
}

impl Backend for CountingBackend {
    type Store = <SimBackend as Backend>::Store;
    type View = <SimBackend as Backend>::View;

    fn name(&self) -> &'static str {
        "counting-sim"
    }

    fn create_store(&self, num_pages: usize) -> Result<Self::Store, VmemError> {
        self.inner.create_store(num_pages)
    }

    fn reserve_view(
        &self,
        store: &Self::Store,
        capacity_pages: usize,
    ) -> Result<Self::View, VmemError> {
        self.count(0);
        self.inner.reserve_view(store, capacity_pages)
    }

    fn map_run(
        &self,
        store: &Self::Store,
        view: &mut Self::View,
        req: MapRequest,
    ) -> Result<(), VmemError> {
        self.count(1);
        self.inner.map_run(store, view, req)
    }

    fn truncate_view(
        &self,
        view: &mut Self::View,
        new_mapped_pages: usize,
    ) -> Result<(), VmemError> {
        self.count(2);
        self.inner.truncate_view(view, new_mapped_pages)
    }
}

fn serve_config(chunk_updates: usize) -> AdaptiveConfig {
    AdaptiveConfig::default().with_chunking(
        AlignChunking::default()
            .with_chunk_updates(chunk_updates)
            .with_group_commit_idle(0),
    )
}

fn temp_journal(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "asv-serve-boundaries-{}-{tag}-{n}.wal",
        std::process::id()
    ))
}

#[test]
fn serving_makes_no_view_calls_after_the_column_loads() {
    // Page p holds values in [p * 10_000, (p + 1) * 10_000).
    const PAGES: usize = 32;
    const MAX_VALUE: u64 = 320_000;
    let values = Distribution::Linear {
        max_value: MAX_VALUE,
    }
    .generate_pages(PAGES, 5);
    let other: Vec<u64> = values.iter().map(|&v| MAX_VALUE - v).collect();
    let loads = {
        let probe = CountingBackend::new();
        Column::from_values(probe.clone(), &values).unwrap();
        Column::from_values(probe.clone(), &other).unwrap();
        probe.calls()
    };
    assert_ne!(loads, [0; 3], "column loads map their full views");
    // Every new value lies in some page's interval, so the one-page views
    // below gain pages every round.
    let churn =
        UpdateWorkload::new(0x5EED).hot_zone_churn(3, 96, PAGES * VALUES_PER_PAGE, 1.0, MAX_VALUE);
    // Moves page 5 out of the view over [50_000, 59_999].
    let wipe: Vec<(usize, u64)> = (0..VALUES_PER_PAGE)
        .map(|slot| (5 * VALUES_PER_PAGE + slot, 1))
        .collect();
    for chunk_updates in [1usize, 0] {
        let backend = CountingBackend::new();
        let mut table = ServeTable::new(backend.clone(), serve_config(chunk_updates));
        for column in [&values, &other] {
            table.add_column(column).unwrap();
        }
        assert_eq!(backend.calls(), loads, "chunk{chunk_updates}: loads");
        for col in 0..2 {
            for (lo, hi) in [(50_000, 59_999), (200_000, 209_999)] {
                table.install_view(col, ValueRange::new(lo, hi)).unwrap();
            }
        }
        let batches = churn.iter().map(|round| &round.writes[..]);
        for writes in batches.chain([&wipe[..]]) {
            for col in 0..2 {
                table.write_batch(col, writes);
            }
            for _ in 0..4 {
                table.tick().unwrap();
            }
            assert_eq!(backend.calls(), loads, "chunk{chunk_updates}: churn");
        }
        table.quiesce().unwrap();
        assert_eq!(backend.calls(), loads, "chunk{chunk_updates}: quiesce");
        assert!(
            !table.drain_publish_micros().is_empty(),
            "chunk{chunk_updates}: the churn changed views"
        );
    }
}

#[test]
fn bad_writes_and_installs_fail_before_journaling() {
    let path = temp_journal("reject");
    let mut table = ServeTable::with_durability(
        SimBackend::new(),
        serve_config(0),
        DurabilityConfig::new(&path),
    )
    .unwrap();
    let values: Vec<u64> = (0..4 * VALUES_PER_PAGE as u64).collect();
    let col = table.add_column(&values).unwrap();
    let journaled = std::fs::metadata(&path).unwrap().len();
    let rows = values.len();
    let rejected = [
        table.try_write_batch(col + 1, &[(0, 1)]),
        table.try_write_batch(col + 1, &[]),
        table.try_write_batch(col, &[(0, 1), (rows, 2)]),
        table.try_write(col, rows + 7, 3),
        table.install_view(col + 1, ValueRange::new(0, 10)),
    ];
    for result in rejected {
        assert!(matches!(result, Err(VmemError::OutOfBounds { .. })));
    }
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        journaled,
        "nothing was journaled"
    );
    assert_eq!(table.queued_writes(col), 0, "nothing was staged");
    table.tick().unwrap();
    assert_eq!(table.handle().pin().value(col, 0), values[0]);
    drop(table);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn recovery_rejects_records_that_contradict_the_table() {
    let add = |col: u32| WalRecord::AddColumn {
        col,
        values: vec![7; 10],
    };
    let batch = |writes: Vec<(u64, u64)>| WalRecord::Batch { col: 0, writes };
    let view = WalRecord::InstallView {
        col: 0,
        min: 0,
        max: 9,
    };
    let journals = [
        ("column out of order", vec![add(1)]),
        ("batch before its column", vec![batch(vec![(0, 1)])]),
        ("view before its column", vec![view]),
        (
            "batch past its column's end",
            vec![add(0), batch(vec![(3, 1), (10, 2)])],
        ),
        (
            "view range with min above max",
            vec![
                add(0),
                WalRecord::InstallView {
                    col: 0,
                    min: 9,
                    max: 0,
                },
            ],
        ),
    ];
    for (case, records) in journals {
        let path = temp_journal("contradicting");
        let mut journal = Journal::create(&path, None).unwrap();
        for record in &records {
            journal.append(record).unwrap();
        }
        journal.append(&WalRecord::Seal { epoch: 1 }).unwrap();
        journal.sync().unwrap();
        drop(journal);
        let recovered = ServeTable::recover(
            SimBackend::new(),
            serve_config(0),
            DurabilityConfig::new(&path),
        );
        assert!(
            matches!(recovered, Err(VmemError::OutOfBounds { .. })),
            "{case}"
        );
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn table_writers_reject_bad_columns_and_rows_before_sending() {
    let mut table = ServeTable::new(SimBackend::new(), serve_config(0));
    let writer = table.writer();
    assert!(matches!(
        writer.write(0, 0, 1),
        Err(VmemError::OutOfBounds { .. })
    ));
    // The column is added after the writer was created.
    let rows = 3 * VALUES_PER_PAGE + 5;
    let col = table.add_column(&vec![7; rows]).unwrap();
    let rejected = [
        writer.write(col + 1, 0, 1),
        writer.write(col, rows, 1),
        writer.try_write(col + 1, 0, 1).map(drop),
        writer.try_write(col, rows + 100, 1).map(drop),
    ];
    for result in rejected {
        assert!(matches!(result, Err(VmemError::OutOfBounds { .. })));
    }
    writer.write(col, rows - 1, 9).unwrap();
    assert!(writer.try_write(col, 0, 8).unwrap());
    table.tick().unwrap();
    table.quiesce().unwrap();
    let answer = table.handle().pin().query_range(col, &ValueRange::full());
    assert_eq!(answer.count, rows as u64);
    assert_eq!(
        answer.sum,
        7 * (rows as u128 - 2) + 9 + 8,
        "only the good writes landed"
    );
}

/// Page `p` of a clustered column holds the values `[1000 p, 1000 p + 510]`.
fn clustered(row: usize) -> u64 {
    ((row / VALUES_PER_PAGE) * 1_000 + row % VALUES_PER_PAGE) as u64
}

/// What a conjunctive read must answer over the plain `columns`: the rows
/// below every predicate column's end on which every predicate holds.
fn model_conjunctive(
    columns: &[Vec<u64>],
    predicates: &[(usize, ValueRange)],
) -> ConjunctiveAnswer {
    let rows = predicates.iter().map(|&(col, _)| columns[col].len()).min();
    let qualifying = (0..rows.unwrap_or(0)).filter(|&row| {
        predicates
            .iter()
            .all(|(col, range)| range.contains(columns[*col][row]))
    });
    ConjunctiveAnswer::from_rows(qualifying.map(|row| row as u64))
}

#[test]
fn conjunctive_reads_stop_at_the_shortest_predicate_column() {
    // The longer column drives (its predicate is the more selective one)
    // and all its qualifying rows lie past the shorter column's end.
    let long: Vec<u64> = (0..8 * VALUES_PER_PAGE).map(clustered).collect();
    let short: Vec<u64> = (0..2 * VALUES_PER_PAGE).map(|row| row as u64 * 3).collect();
    let columns = [long, short];
    let mut table = ServeTable::new(SimBackend::new(), serve_config(0));
    for values in &columns {
        table.add_column(values).unwrap();
    }
    table
        .install_view(0, ValueRange::new(2_000, 2_999))
        .unwrap();
    let cases = [
        vec![
            (0, ValueRange::new(2_000, 2_100)),
            (1, ValueRange::new(0, 100_000)),
        ],
        vec![
            (1, ValueRange::new(0, 100_000)),
            (0, ValueRange::new(0, 1_200)),
        ],
        vec![(0, ValueRange::full()), (1, ValueRange::full())],
    ];
    for parallelism in [Parallelism::Sequential, Parallelism::from_threads(2)] {
        let snap = table.handle().with_parallelism(parallelism).pin();
        for predicates in &cases {
            let expected = model_conjunctive(&columns, predicates);
            assert_eq!(
                snap.query_conjunctive(predicates),
                expected,
                "{predicates:?}"
            );
        }
        let stranded = snap.query_conjunctive(&cases[0]);
        assert_eq!(stranded, ConjunctiveAnswer::default(), "no row qualifies");
    }
}

/// Three columns of unequal length: `a` clustered over 12 pages, `b` the
/// same pages reversed, `c` 9 pages and 100 rows of scattered values.
fn conjunctive_columns() -> Vec<Vec<u64>> {
    let n = 12 * VALUES_PER_PAGE;
    let a = (0..n).map(clustered).collect();
    let b = (0..n).map(|row| clustered(n - 1 - row)).collect();
    let c = (0..9 * VALUES_PER_PAGE as u64 + 100)
        .map(|row| row * 7_919 % 12_000)
        .collect();
    vec![a, b, c]
}

/// Views on `a` and `b` only: a predicate on `c`, or on a range no view
/// covers, contributes every page. `a`'s first view holds pages 0–2 and
/// `b`'s first view pages 9–11, so those two intersect to nothing.
const CONJUNCTIVE_VIEWS: [(usize, u64, u64); 4] = [
    (0, 0, 2_999),
    (0, 5_000, 8_999),
    (1, 0, 2_999),
    (1, 4_000, 6_999),
];

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// 1–3 predicates on random columns (repeats allowed) over ranges that
/// match a view, straddle views, miss every view or cover everything.
fn random_predicates(state: &mut u64) -> Vec<(usize, ValueRange)> {
    let count = 1 + xorshift(state) % 3;
    (0..count)
        .map(|_| {
            let col = (xorshift(state) % 3) as usize;
            let range = match xorshift(state) % 4 {
                0 => {
                    let (_, lo, hi) = CONJUNCTIVE_VIEWS[(xorshift(state) % 4) as usize];
                    ValueRange::new(lo, hi)
                }
                1 => ValueRange::full(),
                _ => {
                    let lo = xorshift(state) % 12_000;
                    ValueRange::new(lo, lo + xorshift(state) % 4_000)
                }
            };
            (col, range)
        })
        .collect()
}

fn check_conjunctive_model<B: Backend>(backend: B, parallelism: Parallelism, seed: u64) {
    let mut columns = conjunctive_columns();
    let mut table = ServeTable::new(backend, serve_config(3));
    for values in &columns {
        table.add_column(values).unwrap();
    }
    for &(col, lo, hi) in &CONJUNCTIVE_VIEWS {
        table.install_view(col, ValueRange::new(lo, hi)).unwrap();
    }
    let handle = table.handle().with_parallelism(parallelism);
    let fixed = [
        // The views' page sets intersect to nothing: only the rows
        // overlaid in `a` below can qualify.
        vec![
            (0, ValueRange::new(0, 2_999)),
            (1, ValueRange::new(0, 2_999)),
        ],
        // Two predicates on one column.
        vec![
            (0, ValueRange::new(5_000, 8_999)),
            (0, ValueRange::new(6_200, 12_000)),
        ],
        // `c` has no view and ends before `a` does.
        vec![
            (2, ValueRange::new(1_000, 5_000)),
            (0, ValueRange::new(3_000, 9_500)),
        ],
        vec![
            (0, ValueRange::new(4_000, 7_500)),
            (1, ValueRange::new(4_000, 6_999)),
            (2, ValueRange::new(0, 6_000)),
        ],
    ];
    let mut state = seed;
    for round in 0..4 {
        // Most writes go to `a` alone, so most overlaid rows are overlaid
        // in one predicate column only; some move rows of `a`'s pages 9–11
        // into `a`'s first view range.
        for i in 0..40 {
            let col = [0, 0, 0, 1, 2][i % 5];
            let row = (xorshift(&mut state) % columns[col].len() as u64) as usize;
            let value = xorshift(&mut state) % 12_000;
            let (row, value) = if i % 8 == 0 {
                (
                    9 * VALUES_PER_PAGE + row % (3 * VALUES_PER_PAGE),
                    value % 3_000,
                )
            } else {
                (row, value)
            };
            let col = if i % 8 == 0 { 0 } else { col };
            table.write(col, row, value);
            columns[col][row] = value;
        }
        // This tick publishes the writes and folds them into the store;
        // the pinned epoch reads the folded pages from its frozen copies.
        table.tick().unwrap();
        let pinned = handle.pin();
        for _ in 0..4 {
            table.tick().unwrap();
        }
        let fresh = handle.pin();
        let random = (0..12).map(|_| random_predicates(&mut state));
        for predicates in fixed.iter().cloned().chain(random) {
            let expected = model_conjunctive(&columns, &predicates);
            let what = format!("seed {seed:#x} round {round} {predicates:?}");
            assert_eq!(
                pinned.query_conjunctive(&predicates),
                expected,
                "pinned {what}"
            );
            assert_eq!(
                fresh.query_conjunctive(&predicates),
                expected,
                "fresh {what}"
            );
        }
        let empty = model_conjunctive(&columns, &fixed[0]);
        assert!(
            empty.count > 0,
            "the overlay answers the empty intersection"
        );
    }
    table.quiesce().unwrap();
    let snap = handle.pin();
    for predicates in &fixed {
        assert_eq!(
            snap.query_conjunctive(predicates),
            model_conjunctive(&columns, predicates)
        );
    }
}

#[test]
fn conjunctive_reads_match_the_model_sim() {
    for parallelism in [Parallelism::Sequential, Parallelism::from_threads(2)] {
        for seed in [0x9E37_79B9_u64, 0x5EED_0C0D] {
            check_conjunctive_model(SimBackend::new(), parallelism, seed);
        }
    }
}

#[cfg(target_os = "linux")]
#[test]
fn conjunctive_reads_match_the_model_mmap() {
    for parallelism in [Parallelism::Sequential, Parallelism::from_threads(2)] {
        check_conjunctive_model(asv_vmem::MmapBackend::new(), parallelism, 0xC0FF_EE11);
    }
}

/// Pages of each clustered column in the pruning test; eight views of
/// `PRUNE_BAND` values each hold three pages.
const PRUNE_PAGES: usize = 24;
const PRUNE_BAND: u64 = 3_000;

/// A range read's model answer: count, sum and the qualifying rows,
/// ascending.
fn model_range(values: &[u64], range: &ValueRange) -> (u64, u128, Vec<u64>) {
    let rows: Vec<u64> = (0..values.len() as u64)
        .filter(|&row| range.contains(values[row as usize]))
        .collect();
    let sum = rows.iter().map(|&row| values[row as usize] as u128).sum();
    (rows.len() as u64, sum, rows)
}

/// The reads of one step of the pruning test.
struct PrunedReads {
    ranges: Vec<(usize, ValueRange)>,
    conjunctions: Vec<Vec<(usize, ValueRange)>>,
}

/// Range reads mostly narrower than a view band (so a read routes to one
/// or two views and skips most of their pages), one around each of
/// `recent`'s values, and conjunctions pairing a band of column 0 with the
/// mirrored band of column 1 (column 1 is column 0 reversed).
fn pruned_reads(state: &mut u64, recent: &[(usize, u64)]) -> PrunedReads {
    let max = PRUNE_PAGES as u64 * 1_000;
    let mut ranges: Vec<(usize, ValueRange)> = (0..8)
        .map(|_| {
            let lo = xorshift(state) % max;
            (
                (xorshift(state) % 2) as usize,
                ValueRange::new(lo, lo + 20 + xorshift(state) % 1_500),
            )
        })
        .collect();
    ranges.extend(
        recent
            .iter()
            .map(|&(col, value)| (col, ValueRange::new(value.saturating_sub(20), value + 20))),
    );
    let conjunctions = (0..4)
        .map(|_| {
            let page = xorshift(state) % PRUNE_PAGES as u64;
            let lo = page * 1_000 + xorshift(state) % 400;
            let mirrored = (PRUNE_PAGES as u64 - 1 - page) * 1_000 + xorshift(state) % 400;
            vec![
                (0, ValueRange::new(lo, lo + 50 + xorshift(state) % 2_000)),
                (
                    1,
                    ValueRange::new(mirrored, mirrored + 50 + xorshift(state) % 2_000),
                ),
            ]
        })
        .collect();
    PrunedReads {
        ranges,
        conjunctions,
    }
}

/// Checks every read of `reads` on `snap` against the `model` columns of
/// its epoch.
fn check_pruned_reads<B: Backend>(
    snap: &Snapshot<B>,
    model: &[Vec<u64>],
    reads: &PrunedReads,
    what: &str,
) {
    for &(col, range) in &reads.ranges {
        let (count, sum, rows) = model_range(&model[col], &range);
        let answer = snap.query_range(col, &range);
        assert_eq!(
            (answer.count, answer.sum),
            (count, sum),
            "{what} {col} {range:?}"
        );
        assert_eq!(
            snap.collect_rows(col, &range),
            rows,
            "{what} {col} {range:?}"
        );
    }
    for predicates in &reads.conjunctions {
        assert_eq!(
            snap.query_conjunctive(predicates),
            model_conjunctive(model, predicates),
            "{what} {predicates:?}"
        );
    }
}

fn check_pruned_reads_match_the_model<B: Backend>(backend: B, parallelism: Parallelism, seed: u64) {
    let n = PRUNE_PAGES * VALUES_PER_PAGE;
    let loaded: Vec<Vec<u64>> = vec![
        (0..n).map(clustered).collect(),
        (0..n).map(|row| clustered(n - 1 - row)).collect(),
    ];
    let config = AdaptiveConfig::default().with_chunking(
        AlignChunking::default()
            .with_chunk_updates(8)
            .with_group_commit_idle(0)
            .with_retighten_idle_ticks(2),
    );
    let mut table = ServeTable::new(backend, config);
    for (col, values) in loaded.iter().enumerate() {
        table.add_column(values).unwrap();
        for band in 0..8 {
            let lo = band * PRUNE_BAND;
            table
                .install_view(col, ValueRange::new(lo, lo + PRUNE_BAND - 1))
                .unwrap();
        }
    }
    let handle = table.handle().with_parallelism(parallelism);
    let bands = |table: &ServeTable<B>, col: usize| -> Vec<Option<ValueRange>> {
        let stats = table.zone_stats(col);
        (0..stats.num_zones()).map(|z| stats.zone_band(z)).collect()
    };
    let mut model = loaded.clone();
    let mut moved: VecDeque<(usize, usize)> = VecDeque::new();
    let mut state = seed;
    let mut held: Vec<(Snapshot<B>, Vec<Vec<u64>>)> = Vec::new();
    let (mut folds_under_pin, mut retires_under_pin, mut narrowed_under_pin) = (0, 0, 0);
    let mut skipped_view_pages = 0;
    for step in 0..40usize {
        let mut recent = Vec::new();
        if step % 10 < 3 {
            // Each write moves a row's value into a random page's band;
            // every third one moves the oldest moved row back to its
            // loaded value, so its page's band can narrow again.
            for i in 0..6 {
                let back = if i % 3 == 2 { moved.pop_front() } else { None };
                let (col, row, value) = match back {
                    Some((col, row)) => (col, row, loaded[col][row]),
                    None => {
                        let col = (xorshift(&mut state) % 2) as usize;
                        let row = (xorshift(&mut state) % n as u64) as usize;
                        let page = xorshift(&mut state) % PRUNE_PAGES as u64;
                        moved.push_back((col, row));
                        (col, row, page * 1_000 + xorshift(&mut state) % 511)
                    }
                };
                table.write(col, row, value);
                model[col][row] = value;
                recent.push((col, value));
            }
        }
        let rounds = table.align_activity().rounds;
        let in_flight = [0, 1].map(|col| table.round_in_flight(col));
        let before = [bands(&table, 0), bands(&table, 1)];
        table.tick().unwrap();
        if !held.is_empty() {
            folds_under_pin += table.align_activity().rounds - rounds;
            for col in 0..2 {
                retires_under_pin += usize::from(in_flight[col] && !table.round_in_flight(col));
                let after = bands(&table, col);
                let narrowed = before[col].iter().zip(&after).any(|(old, new)| {
                    matches!((old, new), (Some(old), Some(new)) if old != new && old.covers(new))
                });
                narrowed_under_pin += usize::from(narrowed);
            }
        }
        let fresh = handle.pin();
        let reads = pruned_reads(&mut state, &recent);
        for (col, range) in &reads.ranges {
            // The pages of the views the range overlaps that its bands
            // reject: what the read skips if it routes to those views.
            let views = ValueRange::new(
                range.low() / PRUNE_BAND * PRUNE_BAND,
                (range.high() / PRUNE_BAND + 1) * PRUNE_BAND - 1,
            );
            let stats = table.zone_stats(*col);
            let pages = model[*col].chunks(VALUES_PER_PAGE).enumerate();
            skipped_view_pages += pages
                .filter(|(page, values)| {
                    values.iter().any(|&value| views.contains(value))
                        && !stats.page_may_match(*page, range)
                })
                .count();
        }
        check_pruned_reads(&fresh, &model, &reads, &format!("step {step} fresh"));
        for (snap, pinned_model) in &held {
            let what = format!("step {step} pin of generation {}", snap.generation());
            check_pruned_reads(snap, pinned_model, &reads, &what);
        }
        if step % 3 == 2 {
            held.clear();
        }
        held.push((fresh, model.clone()));
    }
    assert!(skipped_view_pages > 0, "reads skip pages of their views");
    assert!(folds_under_pin > 0, "some fold ran under a held pin");
    assert!(retires_under_pin > 0, "some retire ran under a held pin");
    assert!(
        narrowed_under_pin > 0,
        "some band narrowed under a held pin"
    );
    held.clear();
    table.quiesce().unwrap();
    let reads = pruned_reads(&mut state, &[]);
    check_pruned_reads(&handle.pin(), &model, &reads, "quiesced");
}

#[test]
fn pruned_reads_match_the_model_sim() {
    for parallelism in [Parallelism::Sequential, Parallelism::from_threads(2)] {
        for seed in [0x2545_F491_u64, 0x0DDB_1A5E] {
            check_pruned_reads_match_the_model(SimBackend::new(), parallelism, seed);
        }
    }
}

#[cfg(target_os = "linux")]
#[test]
fn pruned_reads_match_the_model_mmap() {
    for parallelism in [Parallelism::Sequential, Parallelism::from_threads(2)] {
        check_pruned_reads_match_the_model(asv_vmem::MmapBackend::new(), parallelism, 0xB5AD_4ECE);
    }
}
