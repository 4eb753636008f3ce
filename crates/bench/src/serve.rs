//! The `serve` experiment: read throughput and tail latency of the
//! concurrent serving layer (new experiment, beyond the paper).
//!
//! A two-column [`ServeTable`] with one installed partial view per column
//! is driven through the barrier-phased rounds of a seeded
//! [`ServeWorkload`]: the maintenance thread stages and commits each
//! round's zipfian write burst, then N client threads pin epoch snapshots
//! and answer the round's range/conjunctive reads (read `i` belongs to
//! client `i % N`) while maintenance keeps ticking — publishing alignment
//! chunks and folding the write queue whenever the grace condition holds.
//!
//! For every client count the harness reports read throughput and the
//! p50/p95/p99 per-read latency, where one "read" is pin + query on a
//! fresh snapshot. Correctness is gated before any timing is reported:
//! every client count must produce the **bit-identical answer set** —
//! counts, sums, conjunctive row checksums — of a single-threaded twin
//! that answers the same reads between commits (the serving layer's
//! answer-invariance property). The per-client answer tables are also
//! exported so `experiments compare DIR_A DIR_B --max-delta-pct 0` can
//! gate cross-client determinism on the rendered CSV bytes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use asv_core::{AdaptiveConfig, AlignChunking, Parallelism, ServeTable, Snapshot};
use asv_util::ValueRange;
use asv_vmem::{Backend, VALUES_PER_PAGE};
use asv_workloads::{ServeReadOp, ServeRound, ServeSpec, ServeWorkload};

use crate::report::Table;
use crate::scale::Scale;

/// Client counts the experiment sweeps unless `--clients` overrides them.
pub const DEFAULT_CLIENTS: [usize; 4] = [1, 2, 4, 8];

/// Writer-shard counts the experiment sweeps unless `--writers` overrides
/// them (`0` = the maintenance thread writes directly, no ingest lanes).
pub const DEFAULT_WRITERS: [usize; 2] = [0, 2];

/// Columns of the served table.
const COLUMNS: usize = 2;

/// The full answer of one read — the equivalence witness asserted across
/// client counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeAnswer {
    /// Qualifying rows.
    pub count: u64,
    /// Sum of qualifying values (range reads; 0 for conjunctive reads).
    pub sum: u128,
    /// Order-independent surviving-row checksum (conjunctive reads; 0 for
    /// range reads).
    pub rows_checksum: u64,
}

impl ServeAnswer {
    /// A compact exact witness, rendered as a non-numeric label so the
    /// `compare` subcommand requires byte equality instead of a float
    /// tolerance.
    pub fn checksum_label(&self) -> String {
        format!("x{:x}.{:x}", self.sum, self.rows_checksum)
    }
}

/// One measured client-count cell.
#[derive(Clone, Debug)]
pub struct ServeCell {
    /// Reader threads (0 = the single-threaded sequential twin).
    pub clients: usize,
    /// Writer threads feeding sharded ingest lanes (0 = the maintenance
    /// thread writes directly).
    pub writers: usize,
    /// Total reads answered across all rounds.
    pub total_reads: usize,
    /// Wall-clock time of the whole run (writes + reads), milliseconds.
    pub wall_ms: f64,
    /// Reads answered per second over the whole run.
    pub reads_per_sec: f64,
    /// Median per-read latency (pin + query), microseconds.
    pub p50_us: f64,
    /// 95th-percentile per-read latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile per-read latency, microseconds.
    pub p99_us: f64,
    /// Table generation after the final quiesce.
    pub final_generation: u64,
    /// Checksum folding every answer in (round, read) order.
    pub checksum: u64,
    /// Every answer, sorted by (round, read index).
    pub answers: Vec<(usize, usize, ServeAnswer)>,
}

/// The full result of one `serve` run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// The sequential twin first, then one cell per swept client count.
    pub cells: Vec<ServeCell>,
    /// Rounds per run.
    pub rounds: usize,
    /// Reads per round.
    pub reads_per_round: usize,
    /// Writes committed before each round.
    pub writes_per_round: usize,
    /// Rows per column.
    pub num_rows: usize,
}

impl ServeReport {
    /// Read-throughput speedup of the best concurrent cell over the
    /// sequential twin — the headline number of the serving layer.
    pub fn best_speedup(&self) -> f64 {
        let seq = self
            .cells
            .iter()
            .find(|c| c.clients == 0)
            .map_or(0.0, |c| c.reads_per_sec);
        if seq <= 0.0 {
            return 1.0;
        }
        self.cells
            .iter()
            .filter(|c| c.clients > 0)
            .map(|c| c.reads_per_sec / seq)
            .fold(1.0, f64::max)
    }
}

fn spec_for(scale: &Scale) -> ServeSpec {
    let domain = scale.serve_pages as u64 * 1_000 + 999;
    ServeSpec {
        rounds: scale.serve_rounds,
        reads_per_round: scale.serve_reads_per_round,
        writes_per_round: scale.serve_writes_per_round,
        query_width: (domain / 16).max(1),
        conjunctive_every: 4,
        max_value: domain,
        zipf_exponent: 1.05,
    }
}

/// Clustered data: page p of column 0 holds values around p*1000; column 1
/// is the reverse clustering, so conjunctive predicates intersect
/// non-trivially.
fn column_values(col: usize, pages: usize) -> Vec<u64> {
    let n = pages * VALUES_PER_PAGE;
    (0..n)
        .map(|i| {
            let row = if col == 0 { i } else { n - 1 - i };
            ((row / VALUES_PER_PAGE) * 1_000 + row % VALUES_PER_PAGE) as u64
        })
        .collect()
}

fn serve_config(parallelism: Parallelism, writer_shards: usize) -> AdaptiveConfig {
    AdaptiveConfig::default()
        .with_parallelism(parallelism)
        .with_chunking(
            AlignChunking::default()
                .with_chunk_updates(64)
                .with_group_commit_idle(0)
                .with_writer_shards(writer_shards.max(1)),
        )
}

fn build_table<B: Backend>(
    backend: &B,
    scale: &Scale,
    parallelism: Parallelism,
    writer_shards: usize,
) -> ServeTable<B> {
    let mut table = ServeTable::new(backend.clone(), serve_config(parallelism, writer_shards));
    let domain = scale.serve_pages as u64 * 1_000 + 999;
    for col in 0..COLUMNS {
        table
            .add_column(&column_values(col, scale.serve_pages))
            .expect("column materialization");
        // One band view per column, offset so the two views cover
        // different row ranges.
        let lo = domain / 8 + col as u64 * domain / 3;
        let hi = (lo + domain / 6).min(domain);
        table
            .install_view(col, ValueRange::new(lo, hi))
            .expect("view installation");
    }
    table
}

fn answer<B: Backend>(snap: &Snapshot<B>, read: &ServeReadOp) -> ServeAnswer {
    match read {
        ServeReadOp::Range { col, range } => {
            let out = snap.query_range(*col, range);
            ServeAnswer {
                count: out.count,
                sum: out.sum,
                rows_checksum: 0,
            }
        }
        ServeReadOp::Conjunctive { predicates } => {
            let out = snap.query_conjunctive(predicates);
            ServeAnswer {
                count: out.count,
                sum: 0,
                rows_checksum: out.rows_checksum,
            }
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Folds the (round, read)-ordered answers into one checksum.
fn fold_answers(answers: &[(usize, usize, ServeAnswer)]) -> u64 {
    answers.iter().fold(0u64, |acc, &(k, i, a)| {
        let mut h = splitmix64(acc ^ (k as u64) << 32 ^ i as u64);
        h = splitmix64(h ^ a.count);
        h = splitmix64(h ^ a.sum as u64);
        h = splitmix64(h ^ (a.sum >> 64) as u64);
        splitmix64(h ^ a.rows_checksum)
    })
}

fn percentile_us(latencies_ns: &mut [f64], pct: f64) -> f64 {
    if latencies_ns.is_empty() {
        return 0.0;
    }
    latencies_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let idx = ((latencies_ns.len() as f64) * pct / 100.0).ceil() as usize;
    latencies_ns[idx.saturating_sub(1).min(latencies_ns.len() - 1)] / 1_000.0
}

fn cell_from(
    clients: usize,
    writers: usize,
    mut answers: Vec<(usize, usize, ServeAnswer)>,
    mut latencies_ns: Vec<f64>,
    wall_ms: f64,
    final_generation: u64,
) -> ServeCell {
    answers.sort_by_key(|&(k, i, _)| (k, i));
    let total_reads = answers.len();
    ServeCell {
        clients,
        writers,
        total_reads,
        wall_ms,
        reads_per_sec: total_reads as f64 / (wall_ms / 1_000.0).max(1e-9),
        p50_us: percentile_us(&mut latencies_ns, 50.0),
        p95_us: percentile_us(&mut latencies_ns, 95.0),
        p99_us: percentile_us(&mut latencies_ns, 99.0),
        final_generation,
        checksum: fold_answers(&answers),
        answers,
    }
}

/// The single-threaded twin: commit each round's writes, answer every read
/// inline between commits.
fn run_sequential<B: Backend>(
    backend: &B,
    scale: &Scale,
    rounds: &[ServeRound],
    parallelism: Parallelism,
) -> ServeCell {
    let mut table = build_table(backend, scale, parallelism, 0);
    let handle = table.handle();
    let mut answers = Vec::new();
    let mut latencies = Vec::new();
    let started = Instant::now();
    for (k, round) in rounds.iter().enumerate() {
        for &(col, row, value) in &round.writes {
            table.write(col, row, value);
        }
        table.tick().expect("tick");
        for (i, read) in round.reads.iter().enumerate() {
            let read_started = Instant::now();
            let snap = handle.pin();
            let got = answer(&snap, read);
            latencies.push(read_started.elapsed().as_nanos() as f64);
            answers.push((k, i, got));
        }
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
    table.quiesce().expect("quiesce");
    cell_from(0, 0, answers, latencies, wall_ms, table.generation())
}

/// One concurrent run: `num_clients` reader threads against one
/// maintenance thread, optionally fed by `num_writers` writer threads
/// through the sharded ingest front door (`num_writers == 0` keeps the
/// direct maintenance-thread write path).
///
/// Readers pin snapshots with the swept `parallelism`, so `--threads`
/// drives the intra-query morsel fan-out; the sequential twin always reads
/// sequentially, which is exactly the bit-identity gate.
fn run_concurrent<B: Backend>(
    backend: &B,
    scale: &Scale,
    rounds: &[ServeRound],
    parallelism: Parallelism,
    num_clients: usize,
    num_writers: usize,
) -> ServeCell {
    let mut table = build_table(backend, scale, parallelism, num_writers);
    let handle = table.handle().with_parallelism(parallelism);
    let writer = table.writer();
    // Rounds the maintenance thread has committed and opened for reading.
    let round_ready = AtomicUsize::new(0);
    // Total client-round completions; round k is done at (k+1)*clients.
    let finished = AtomicUsize::new(0);
    // Rounds opened for writer-thread sends, and completed writer-round
    // sends; round k's lanes are fully fed at (k+1)*writers.
    let write_round_open = AtomicUsize::new(0);
    let writes_done = AtomicUsize::new(0);

    let mut answers = Vec::new();
    let mut latencies = Vec::new();
    let started = Instant::now();
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
                    let mut out = Vec::new();
                    let mut lat = Vec::new();
                    for (k, round) in rounds.iter().enumerate() {
                        while round_ready.load(Ordering::Acquire) <= k {
                            std::thread::yield_now();
                        }
                        for (i, read) in round.reads.iter().enumerate() {
                            if i % num_clients != client {
                                continue;
                            }
                            let read_started = Instant::now();
                            let snap = handle.pin();
                            let got = answer(&snap, read);
                            lat.push(read_started.elapsed().as_nanos() as f64);
                            out.push((k, i, got));
                        }
                        finished.fetch_add(1, Ordering::AcqRel);
                    }
                    (out, lat)
                })
            })
            .collect();

        for (k, round) in rounds.iter().enumerate() {
            if num_writers == 0 {
                for &(col, row, value) in &round.writes {
                    table.write(col, row, value);
                }
            } else {
                // Open the round's lanes and wait for every writer thread
                // to finish its sends: the release/acquire pair makes all
                // sent messages visible to the drain in the tick below, so
                // the commit acknowledges the complete round — the same
                // boundary the direct path has.
                write_round_open.store(k + 1, Ordering::Release);
                while writes_done.load(Ordering::Acquire) < (k + 1) * num_writers {
                    std::thread::yield_now();
                }
            }
            // One tick commits the staged acknowledgements; every epoch a
            // client pins until the next round's commit answers
            // identically (chunk publishes and retires are invariant).
            table.tick().expect("tick");
            round_ready.store(k + 1, Ordering::Release);
            while finished.load(Ordering::Acquire) < (k + 1) * num_clients {
                table.tick().expect("tick");
                std::thread::yield_now();
            }
        }
        for client in clients {
            let (out, lat) = client.join().expect("client thread");
            answers.extend(out);
            latencies.extend(lat);
        }
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
    table.quiesce().expect("quiesce");
    cell_from(
        num_clients,
        num_writers,
        answers,
        latencies,
        wall_ms,
        table.generation(),
    )
}

/// Runs the `clients × writers` sweep on `backend`.
///
/// # Panics
/// Panics if any cell's answer set deviates from the sequential twin's —
/// the serving layer must be deterministic (across reader parallelism,
/// client counts and writer-shard counts alike) before its timings mean
/// anything.
pub fn run_with<B: Backend>(
    backend: &B,
    scale: &Scale,
    seed: u64,
    parallelism: Parallelism,
    clients: &[usize],
    writers: &[usize],
) -> ServeReport {
    let spec = spec_for(scale);
    let num_rows = scale.serve_pages * VALUES_PER_PAGE;
    let rounds = ServeWorkload::new(seed ^ 0x5E57E).rounds(&spec, COLUMNS, num_rows);

    let sequential = run_sequential(backend, scale, &rounds, parallelism);
    let mut cells = vec![sequential];
    for &num_writers in writers {
        for &num_clients in clients {
            assert!(num_clients > 0, "client counts must be positive");
            let cell = run_concurrent(
                backend,
                scale,
                &rounds,
                parallelism,
                num_clients,
                num_writers,
            );
            assert_eq!(
                cell.answers, cells[0].answers,
                "{num_clients} clients / {num_writers} writers diverged \
                 from the sequential twin"
            );
            assert_eq!(cell.checksum, cells[0].checksum);
            cells.push(cell);
        }
    }
    ServeReport {
        cells,
        rounds: spec.rounds,
        reads_per_round: spec.reads_per_round,
        writes_per_round: spec.writes_per_round,
        num_rows,
    }
}

fn clients_label(clients: usize) -> String {
    if clients == 0 {
        "seq".to_string()
    } else {
        clients.to_string()
    }
}

/// The unique label of one swept cell, used for CSV directory names and
/// the JSON record: `seq` for the twin, the client count for direct-write
/// cells, `CLIENTSwWRITERS` for sharded-ingest cells.
pub fn cell_label(cell: &ServeCell) -> String {
    if cell.clients == 0 {
        "seq".to_string()
    } else if cell.writers == 0 {
        clients_label(cell.clients)
    } else {
        format!("{}w{}", cell.clients, cell.writers)
    }
}

/// Renders the throughput/latency cells.
pub fn to_table(report: &ServeReport) -> Table {
    let mut table = Table::new(
        format!(
            "Serve: epoch-pinned readers vs one maintenance thread \
             ({} rounds x {} reads, {} writes/round, {} rows/column)",
            report.rounds, report.reads_per_round, report.writes_per_round, report.num_rows
        ),
        &[
            "clients", "writers", "reads", "wall ms", "reads/s", "p50 us", "p95 us", "p99 us",
            "checksum",
        ],
    );
    for cell in &report.cells {
        table.add_row(vec![
            clients_label(cell.clients),
            cell.writers.to_string(),
            cell.total_reads.to_string(),
            format!("{:.2}", cell.wall_ms),
            format!("{:.0}", cell.reads_per_sec),
            format!("{:.1}", cell.p50_us),
            format!("{:.1}", cell.p95_us),
            format!("{:.1}", cell.p99_us),
            format!("x{:x}", cell.checksum),
        ]);
    }
    table
}

/// Renders one cell's full answer set as an exact-match table (counts are
/// plain integers, checksums non-numeric labels), for
/// `experiments compare ... --max-delta-pct 0` across client counts.
pub fn answers_table(cell: &ServeCell) -> Table {
    let mut table = Table::new(
        "Serve answers (identical for every client count)",
        &["round", "read", "count", "checksum"],
    );
    for &(k, i, a) in &cell.answers {
        table.add_row(vec![
            k.to_string(),
            i.to_string(),
            a.count.to_string(),
            a.checksum_label(),
        ]);
    }
    table
}

/// Builds the one-line JSON record appended to `BENCH_serve.json` after
/// every run — the tracked perf history (hand-rendered: the harness has no
/// JSON dependency).
pub fn bench_json_line(
    report: &ServeReport,
    backend: &str,
    scale: &str,
    seed: u64,
    threads: &str,
    unix_ms: u128,
) -> String {
    let mut cells = String::new();
    for (i, cell) in report.cells.iter().enumerate() {
        if i > 0 {
            cells.push(',');
        }
        cells.push_str(&format!(
            "{{\"clients\":\"{}\",\"writers\":{},\"reads\":{},\"reads_per_sec\":{:.0},\
             \"p50_us\":{:.1},\"p95_us\":{:.1},\"p99_us\":{:.1},\"checksum\":\"{:x}\"}}",
            clients_label(cell.clients),
            cell.writers,
            cell.total_reads,
            cell.reads_per_sec,
            cell.p50_us,
            cell.p95_us,
            cell.p99_us,
            cell.checksum,
        ));
    }
    format!(
        "{{\"experiment\":\"serve\",\"backend\":\"{}\",\"scale\":\"{}\",\
         \"seed\":{},\"threads\":\"{}\",\"unix_ms\":{},\"rounds\":{},\"reads_per_round\":{},\
         \"writes_per_round\":{},\"rows_per_column\":{},\
         \"best_speedup\":{:.3},\"cells\":[{}]}}",
        backend,
        scale,
        seed,
        threads,
        unix_ms,
        report.rounds,
        report.reads_per_round,
        report.writes_per_round,
        report.num_rows,
        report.best_speedup(),
        cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_vmem::SimBackend;

    #[test]
    fn tiny_sweep_is_deterministic_across_client_counts() {
        let scale = Scale::tiny();
        let report = run_with(
            &SimBackend::new(),
            &scale,
            7,
            Parallelism::Sequential,
            &[1, 2],
            &[0],
        );
        assert_eq!(report.cells.len(), 3); // seq + 2 client counts
        assert_eq!(report.cells[0].clients, 0);
        let expected_reads = scale.serve_rounds * scale.serve_reads_per_round;
        for cell in &report.cells {
            assert_eq!(cell.total_reads, expected_reads);
            assert_eq!(cell.checksum, report.cells[0].checksum);
            assert_eq!(cell.answers, report.cells[0].answers);
            assert!(cell.wall_ms > 0.0);
            assert!(cell.reads_per_sec > 0.0);
            assert!(cell.p50_us <= cell.p95_us);
            assert!(cell.p95_us <= cell.p99_us);
        }
        assert!(report.best_speedup() > 0.0);
        // At least one read found something.
        assert!(report.cells[0].answers.iter().any(|&(_, _, a)| a.count > 0));
        let table = to_table(&report);
        assert_eq!(table.num_rows(), report.cells.len());
        let answers = answers_table(&report.cells[1]);
        assert_eq!(answers.num_rows(), expected_reads);
        assert_eq!(
            answers.to_csv(),
            answers_table(&report.cells[2]).to_csv(),
            "answer tables render byte-identically across client counts"
        );
    }

    #[test]
    fn parallel_readers_and_sharded_writers_match_the_twin() {
        // The full grid on the tiny scale: morsel-parallel reads
        // (threads 2) × sharded ingest (writers 2) × 2 clients must all be
        // bit-identical to the sequential twin — run_with asserts it, this
        // test additionally checks the labels and axes land in the report.
        let report = run_with(
            &SimBackend::new(),
            &Scale::tiny(),
            7,
            Parallelism::from_threads(2),
            &[2],
            &[0, 2],
        );
        assert_eq!(report.cells.len(), 3); // seq + (2 clients × {0, 2} writers)
        assert_eq!(cell_label(&report.cells[0]), "seq");
        assert_eq!(cell_label(&report.cells[1]), "2");
        assert_eq!(cell_label(&report.cells[2]), "2w2");
        assert_eq!(report.cells[2].writers, 2);
        for cell in &report.cells {
            assert_eq!(cell.answers, report.cells[0].answers);
        }
    }

    #[test]
    fn bench_json_line_is_one_line_and_balanced() {
        let report = run_with(
            &SimBackend::new(),
            &Scale::tiny(),
            5,
            Parallelism::Sequential,
            &[2],
            &[0, 2],
        );
        let line = bench_json_line(&report, "sim", "tiny", 5, "sequential", 1_700_000_000_000);
        assert!(!line.contains('\n'));
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        assert!(line.contains("\"experiment\":\"serve\""));
        assert!(line.contains("\"threads\":\"sequential\""));
        assert!(line.contains("\"clients\":\"seq\""));
        assert!(line.contains("\"clients\":\"2\""));
        assert!(line.contains("\"writers\":0"));
        assert!(line.contains("\"writers\":2"));
    }

    #[test]
    fn percentiles_of_small_samples() {
        assert_eq!(percentile_us(&mut [], 50.0), 0.0);
        assert_eq!(percentile_us(&mut [2_000.0], 99.0), 2.0);
        let mut four = [4_000.0, 1_000.0, 3_000.0, 2_000.0];
        assert_eq!(percentile_us(&mut four, 50.0), 2.0);
        assert_eq!(percentile_us(&mut four, 99.0), 4.0);
    }
}
