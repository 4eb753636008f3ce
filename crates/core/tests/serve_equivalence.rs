//! Property test: the concurrent serving layer is deterministic.
//!
//! Seeded [`ServeWorkload`]s drive a two-column [`ServeTable`] through
//! barrier-phased rounds — the maintenance thread stages and commits each
//! round's zipfian write burst, then N client threads pin epoch snapshots
//! and answer the round's range/conjunctive reads while maintenance keeps
//! ticking (retiring rounds with their re-aligned views, folding the
//! queue when grace
//! allows). Cells additionally vary the number of writer threads feeding
//! the ingest lane instead of the direct maintenance write path. The
//! properties, checked on both backends across seeds, client counts,
//! and writer counts:
//!
//! * **Concurrent == sequential, bit-identical**: every client-computed
//!   answer (count, sum, collected-row and conjunctive row checksums)
//!   equals the answer a single-threaded twin computes for the same read
//!   of the same round — regardless of which mid-round epoch the client
//!   happened to pin.
//! * **Sequential == model**: the sequential twin's range answers match a
//!   naive rescan of a plain `Vec` mirror, its collected rows match the
//!   mirror's qualifying rows in ascending order, and its conjunctive
//!   counts and row checksums match a naive predicate intersection.
//! * **Multi-view covers are exact**: every column carries several views,
//!   adjacent and overlapping ones sharing pages, so reads straddling two
//!   views (range, collecting and conjunctive driving scans) route to the
//!   union of a view cover while writes, alignment and mid-round pins are
//!   in flight. Collected rows always come out strictly ascending.
//! * **Round-phase invariance**: a twin that fully quiesces after every
//!   round (no write queued, all folds retired) produces the same answers
//!   as the twin serving from page copies — committed acknowledgements
//!   answer identically whether they still sit in page copies or are
//!   already folded.
//! * **Pin consistency**: snapshots pinned mid-round never observe a
//!   partially published epoch — column count and row counts are always
//!   complete, per-client generations only move forward, and repeating a
//!   query on one snapshot is bit-identical.

use std::sync::atomic::{AtomicUsize, Ordering};

use asv_core::{AdaptiveConfig, ConjunctiveAnswer, ServeTable, Snapshot};
use asv_util::ValueRange;
use asv_vmem::{Backend, SimBackend, VALUES_PER_PAGE};
use asv_workloads::{ServeReadOp, ServeRound, ServeSpec, ServeWorkload};

const PAGES: usize = 24;
/// The views installed on every column. Page `p` of column 0 holds values
/// `[p*1000, p*1000 + 510]` (column 1 the same pages reversed), so:
/// views 0 and 1 are adjacent and share page 7, views 1 and 2 overlap and
/// share page 11, and a gap separates view 2 from view 3.
const VIEW_RANGES: [(u64, u64); 4] = [
    (2_000, 7_199),
    (7_200, 11_999),
    (11_000, 15_999),
    (18_000, 23_999),
];

/// `(count, sum, rows_checksum)` — range answers fill all three (the
/// checksum over their collected rows, in order), conjunctive answers the
/// first and last.
type Answer = (u64, u128, u64);

fn spec(seed_bump: u64) -> ServeSpec {
    ServeSpec {
        rounds: 5,
        reads_per_round: 24,
        writes_per_round: 30,
        query_width: 2_000 + 131 * seed_bump,
        conjunctive_every: 4,
        max_value: 30_000,
        zipf_exponent: 1.1,
    }
}

/// Clustered data: page p holds values around p*1000, so the installed
/// views index meaningful page subsets.
fn column_values(col: usize) -> Vec<u64> {
    let n = PAGES * VALUES_PER_PAGE;
    (0..n)
        .map(|i| {
            // Column 1 is the reverse clustering of column 0, so
            // conjunctive predicates intersect non-trivially.
            let row = if col == 0 { i } else { n - 1 - i };
            ((row / VALUES_PER_PAGE) * 1000 + row % VALUES_PER_PAGE) as u64
        })
        .collect()
}

fn build_table<B: Backend>(backend: B) -> ServeTable<B> {
    let mut table = ServeTable::new(backend, AdaptiveConfig::default());
    for col in 0..2 {
        table.add_column(&column_values(col)).expect("column");
        for &(lo, hi) in &VIEW_RANGES {
            table
                .install_view(col, ValueRange::new(lo, hi))
                .expect("view");
        }
    }
    table
}

/// `true` if no single view covers `range` but the views do in
/// conjunction: the read routes to a multi-view cover.
fn straddles_views(range: &ValueRange) -> bool {
    let views: Vec<ValueRange> = VIEW_RANGES
        .iter()
        .map(|&(lo, hi)| ValueRange::new(lo, hi))
        .collect();
    if views.iter().any(|view| view.covers(range)) {
        return false;
    }
    let mut cursor = range.low();
    while let Some(view) = views
        .iter()
        .filter(|view| view.contains(cursor))
        .max_by_key(|view| view.high())
    {
        if view.high() >= range.high() {
            return true;
        }
        cursor = view.high() + 1;
    }
    false
}

/// Order-dependent checksum over a row list.
fn rows_checksum(rows: &[u64]) -> u64 {
    rows.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &row| {
        (hash ^ row).wrapping_mul(0x0100_0000_01B3)
    })
}

fn answer<B: Backend>(snap: &Snapshot<B>, read: &ServeReadOp) -> Answer {
    match read {
        ServeReadOp::Range { col, range } => {
            let out = snap.query_range(*col, range);
            let rows = snap.collect_rows(*col, range);
            assert!(
                rows.windows(2).all(|w| w[0] < w[1]),
                "collected rows strictly ascend"
            );
            assert_eq!(rows.len() as u64, out.count, "collect agrees with count");
            (out.count, out.sum, rows_checksum(&rows))
        }
        ServeReadOp::Conjunctive { predicates } => {
            let out = snap.query_conjunctive(predicates);
            (out.count, 0, out.rows_checksum)
        }
    }
}

/// What the model expects of a read: a range read's count, sum and rows,
/// or a conjunctive read's count and row checksum.
enum ModelAnswer {
    Range(u64, u128, Vec<u64>),
    Conjunctive(ConjunctiveAnswer),
}

fn model_answer(mirrors: &[Vec<u64>], read: &ServeReadOp) -> ModelAnswer {
    match read {
        ServeReadOp::Range { col, range } => {
            let rows: Vec<u64> = (0..mirrors[*col].len() as u64)
                .filter(|&row| range.contains(mirrors[*col][row as usize]))
                .collect();
            let sum = rows
                .iter()
                .map(|&row| mirrors[*col][row as usize] as u128)
                .sum();
            ModelAnswer::Range(rows.len() as u64, sum, rows)
        }
        ServeReadOp::Conjunctive { predicates } => {
            let rows = (0..mirrors[0].len() as u64).filter(|&row| {
                predicates
                    .iter()
                    .all(|(col, range)| range.contains(mirrors[*col][row as usize]))
            });
            ModelAnswer::Conjunctive(ConjunctiveAnswer::from_rows(rows))
        }
    }
}

/// Single-threaded twin: stage + commit each round's writes, then answer
/// every read from one pinned snapshot. With `quiesce_rounds` the twin
/// additionally folds and retires every write before reading, so its
/// answers come from the folded store instead of the page copies.
fn run_sequential<B: Backend>(
    backend: B,
    rounds: &[ServeRound],
    quiesce_rounds: bool,
) -> Vec<Vec<Answer>> {
    let mut table = build_table(backend);
    let handle = table.handle();
    let mut mirrors = vec![column_values(0), column_values(1)];
    rounds
        .iter()
        .map(|round| {
            for &(col, row, value) in &round.writes {
                table.try_write(col, row, value).expect("write");
                mirrors[col][row] = value;
            }
            if quiesce_rounds {
                table.quiesce().expect("quiesce");
            } else {
                table.tick().expect("tick");
            }
            let snap = handle.pin();
            round
                .reads
                .iter()
                .map(|read| {
                    let got = answer(&snap, read);
                    match (read, model_answer(&mirrors, read)) {
                        (
                            ServeReadOp::Range { col, range },
                            ModelAnswer::Range(count, sum, rows),
                        ) => {
                            assert_eq!(got.0, count, "sequential twin vs naive model: count");
                            assert_eq!(got.1, sum, "sequential twin vs naive model: sum");
                            assert_eq!(
                                snap.collect_rows(*col, range),
                                rows,
                                "sequential twin vs naive model: collected rows"
                            );
                        }
                        (_, ModelAnswer::Conjunctive(expected)) => assert_eq!(
                            (got.0, got.2),
                            (expected.count, expected.rows_checksum),
                            "sequential twin vs naive model: conjunctive count and rows"
                        ),
                        _ => unreachable!("the model answers a read in its own kind"),
                    }
                    got
                })
                .collect()
        })
        .collect()
}

/// Concurrent run: one maintenance thread commits each round's writes and
/// keeps ticking while `num_clients` reader threads answer the round's
/// reads (read `i` belongs to client `i % num_clients`) from freshly
/// pinned snapshots. With `num_writers > 0` the round's writes arrive via
/// that many writer threads pushing through the [`TableWriter`] front door
/// instead of direct maintenance-thread writes; writer `w` sends the rows
/// of the page groups [`ServeRound::writes_for_shard`] gives it, so each
/// row keeps one writer and its writes stay in order.
fn run_concurrent<B: Backend>(
    backend: B,
    rounds: &[ServeRound],
    num_clients: usize,
    num_writers: usize,
) -> Vec<Vec<Answer>> {
    let mut table = build_table(backend);
    let handle = table.handle();
    let writer = table.writer();
    let num_rows = PAGES * VALUES_PER_PAGE;
    // Rounds the maintenance thread has committed and opened for reading.
    let round_ready = AtomicUsize::new(0);
    // Total client-round completions; round k is done at (k+1)*clients.
    let finished = AtomicUsize::new(0);
    // Rounds opened for writer threads / writer-round completions.
    let write_round_open = AtomicUsize::new(0);
    let writes_done = AtomicUsize::new(0);

    let mut answers: Vec<Vec<Answer>> = rounds
        .iter()
        .map(|round| vec![Answer::default(); round.reads.len()])
        .collect();

    std::thread::scope(|scope| {
        let round_ready = &round_ready;
        let finished = &finished;
        let write_round_open = &write_round_open;
        let writes_done = &writes_done;
        for w in 0..num_writers {
            let writer = writer.clone();
            scope.spawn(move || {
                for (k, round) in rounds.iter().enumerate() {
                    while write_round_open.load(Ordering::Acquire) <= k {
                        std::thread::yield_now();
                    }
                    for (col, row, value) in round.writes_for_shard(w, num_writers) {
                        writer.write(col, row, value).expect("write");
                    }
                    writes_done.fetch_add(1, Ordering::AcqRel);
                }
            });
        }
        let clients: Vec<_> = (0..num_clients)
            .map(|client| {
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut out: Vec<(usize, usize, Answer)> = Vec::new();
                    let mut last_generation = 0u64;
                    for (k, round) in rounds.iter().enumerate() {
                        while round_ready.load(Ordering::Acquire) <= k {
                            std::thread::yield_now();
                        }
                        for (i, read) in round.reads.iter().enumerate() {
                            if i % num_clients != client {
                                continue;
                            }
                            let snap = handle.pin();
                            // Never a partially published epoch.
                            assert_eq!(snap.num_columns(), 2);
                            assert_eq!(snap.num_rows(0), num_rows);
                            assert_eq!(snap.num_rows(1), num_rows);
                            assert!(
                                snap.generation() >= last_generation,
                                "generations move forward only"
                            );
                            last_generation = snap.generation();
                            let got = answer(&snap, read);
                            if i % 5 == 0 {
                                assert_eq!(
                                    got,
                                    answer(&snap, read),
                                    "one snapshot answers identically twice"
                                );
                            }
                            out.push((k, i, got));
                        }
                        finished.fetch_add(1, Ordering::AcqRel);
                    }
                    out
                })
            })
            .collect();

        for (k, round) in rounds.iter().enumerate() {
            if num_writers == 0 {
                for &(col, row, value) in &round.writes {
                    table.try_write(col, row, value).expect("write");
                }
            } else {
                // Open the round's ingest window and wait until every
                // writer thread has pushed its share of the writes into the
                // lane; the next tick drains them before committing, so
                // the committed epoch is identical to the direct path.
                write_round_open.store(k + 1, Ordering::Release);
                while writes_done.load(Ordering::Acquire) < (k + 1) * num_writers {
                    std::thread::yield_now();
                }
            }
            // One tick commits the staged acknowledgements; every epoch a
            // client pins from here to the next round's commit answers
            // identically (re-aligned views and retires are invariant).
            table.tick().expect("tick");
            round_ready.store(k + 1, Ordering::Release);
            while finished.load(Ordering::Acquire) < (k + 1) * num_clients {
                table.tick().expect("tick");
                std::thread::yield_now();
            }
        }
        for client in clients {
            for (k, i, got) in client.join().expect("client thread") {
                answers[k][i] = got;
            }
        }
    });

    // Drain everything; the final folded state still answers every read of
    // the last round identically (no writes happened since its commit).
    table.quiesce().expect("quiesce");
    let snap = handle.pin();
    if let Some((k, round)) = rounds.iter().enumerate().next_back() {
        for (i, read) in round.reads.iter().enumerate() {
            assert_eq!(
                answer(&snap, read),
                answers[k][i],
                "post-quiesce answers match the last round"
            );
        }
    }
    answers
}

/// `(clients, writer threads)` cells; `writers == 0` means direct
/// maintenance-thread writes.
const CELLS: [(usize, usize); 5] = [(1, 0), (2, 0), (4, 0), (2, 2), (4, 2)];

fn check_backend<B: Backend>(make_backend: impl Fn() -> B, label: &str, seeds: u64) {
    for seed in 0..seeds {
        let workload_spec = spec(seed);
        let rounds = ServeWorkload::new(0xE9_0C * (seed + 1)).rounds(
            &workload_spec,
            2,
            PAGES * VALUES_PER_PAGE,
        );
        let reads = || rounds.iter().flat_map(|round| &round.reads);
        let straddling_ranges = reads()
            .filter(
                |read| matches!(read, ServeReadOp::Range { range, .. } if straddles_views(range)),
            )
            .count();
        let straddling_conjunctions = reads()
            .filter(|read| match read {
                ServeReadOp::Conjunctive { predicates } => {
                    predicates.iter().any(|(_, range)| straddles_views(range))
                }
                ServeReadOp::Range { .. } => false,
            })
            .count();
        assert!(
            straddling_ranges > 0 && straddling_conjunctions > 0,
            "seed {seed}: the workload exercises the multi-view cover \
             ({straddling_ranges} range, {straddling_conjunctions} conjunctive reads)"
        );
        let ctx = format!("{label}/seed={seed}");
        let sequential = run_sequential(make_backend(), &rounds, false);
        let quiesced = run_sequential(make_backend(), &rounds, true);
        assert_eq!(
            sequential, quiesced,
            "{ctx}: copy-serving and fully-folded twins diverge"
        );
        for &(num_clients, num_writers) in &CELLS {
            let concurrent = run_concurrent(make_backend(), &rounds, num_clients, num_writers);
            assert_eq!(
                concurrent, sequential,
                "{ctx}/clients={num_clients}/writers={num_writers}: \
                 concurrent answers diverge"
            );
        }
    }
}

#[test]
fn serve_concurrent_matches_sequential_sim() {
    check_backend(SimBackend::new, "sim", 2);
}

#[cfg(target_os = "linux")]
#[test]
fn serve_concurrent_matches_sequential_mmap() {
    check_backend(asv_vmem::MmapBackend::new, "mmap", 1);
}
