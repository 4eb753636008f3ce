//! The five workloads and what one repetition of each yields.
//!
//! A **repetition** is set-up on fresh state followed by the workload's
//! fixed op sequence (the frozen counts in [`Sizes`]). A run repeats it
//! until `--seconds` of timed phase have accumulated: latencies pool over
//! the repetitions; per-repetition figures (`setup_s`, `sequence_s`,
//! `peak_rss_mb`, the rates) report the median repetition. Every repetition
//! of a run receives identical inputs, so its answers must equal the
//! oracle's — and each other's.
//!
//! Every workload is a closed loop: the next op is issued when the previous
//! one has answered. One generator thread, except `serve_mixed`, which adds
//! the reader beside the maintenance thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use crate::oracle::Answer;
use crate::oracle::Tally;
use crate::stats::supports_percentile;
use crate::sut::{Backend, VmemError};

pub mod adaptive_scan;
pub mod durable_ingest;
pub mod serve_mixed;
pub mod update_align;
pub mod wide_scan;

/// The frozen sizes and op counts of one repetition. Column sizes,
/// selectivities, batch sizes and the read cadences are the issue's; the op
/// counts the issue left open (`wide_queries`, `serve_rounds`,
/// `durable_batches`) were calibrated once on the reference box so that a
/// repetition's timed phase lasts 1.5–9 s and a 15-s run holds at least two,
/// and are frozen here (results carry them in their fingerprint).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    pub smoke: bool,
    /// `adaptive_scan` / `wide_scan`: column pages of 4 KiB.
    pub scan_pages: usize,
    /// `adaptive_scan`: queries per value distribution.
    pub adaptive_queries: usize,
    /// `adaptive_scan`: partial-view limit.
    pub adaptive_max_views: usize,
    /// `wide_scan`: queries.
    pub wide_queries: usize,
    /// `update_align`: column pages.
    pub align_pages: usize,
    pub align_views: usize,
    pub align_small_batches: usize,
    pub align_small_batch: usize,
    pub align_large_batches: usize,
    pub align_large_batch: usize,
    /// `serve_mixed`: pages per column (two columns).
    pub serve_pages: usize,
    pub serve_views: usize,
    pub serve_rounds: usize,
    pub serve_writes_per_round: usize,
    pub serve_reads_per_round: usize,
    /// `durable_ingest`: column pages.
    pub durable_pages: usize,
    pub durable_batches: usize,
    pub durable_batch: usize,
    pub durable_read_every: usize,
    pub durable_recoveries: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        smoke: false,
        scan_pages: 32_768,
        adaptive_queries: 250,
        adaptive_max_views: 256,
        wide_queries: 100,
        align_pages: 16_384,
        align_views: 5,
        align_small_batches: 200,
        align_small_batch: 100,
        align_large_batches: 20,
        align_large_batch: 100_000,
        serve_pages: 4_096,
        serve_views: 8,
        serve_rounds: 42,
        serve_writes_per_round: 256,
        serve_reads_per_round: 24,
        durable_pages: 4_096,
        durable_batches: 600,
        durable_batch: 256,
        durable_read_every: 10,
        durable_recoveries: 5,
    };

    /// Same code paths, tiny sizes: the whole suite in a few seconds.
    pub const SMOKE: Sizes = Sizes {
        smoke: true,
        scan_pages: 1_024,
        adaptive_queries: 40,
        adaptive_max_views: 16,
        wide_queries: 16,
        align_pages: 1_024,
        align_views: 5,
        align_small_batches: 20,
        align_small_batch: 100,
        align_large_batches: 2,
        align_large_batch: 10_000,
        serve_pages: 256,
        serve_views: 4,
        serve_rounds: 10,
        serve_writes_per_round: 64,
        serve_reads_per_round: 24,
        durable_pages: 256,
        durable_batches: 40,
        durable_batch: 64,
        durable_read_every: 4,
        durable_recoveries: 2,
    };
}

/// The five workloads; the names are final.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    AdaptiveScan,
    WideScan,
    UpdateAlign,
    ServeMixed,
    DurableIngest,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::AdaptiveScan,
        Workload::WideScan,
        Workload::UpdateAlign,
        Workload::ServeMixed,
        Workload::DurableIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AdaptiveScan => "adaptive_scan",
            Workload::WideScan => "wide_scan",
            Workload::UpdateAlign => "update_align",
            Workload::ServeMixed => "serve_mixed",
            Workload::DurableIngest => "durable_ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The backend the workload runs on.
    pub fn backend(self) -> &'static str {
        match self {
            Workload::DurableIngest => "file",
            _ => "mmap",
        }
    }

    /// The op the workload exists for, whose latency `op_p50_ms` and
    /// `op_p90_ms` report.
    pub fn defining_op(self) -> DefiningOp {
        match self {
            Workload::AdaptiveScan | Workload::WideScan => DefiningOp::Read,
            Workload::UpdateAlign => DefiningOp::Align,
            Workload::ServeMixed | Workload::DurableIngest => DefiningOp::Commit,
        }
    }

    /// Reads and defining ops one repetition times.
    pub fn samples_per_rep(self, sizes: &Sizes) -> (usize, usize) {
        let reads = match self {
            Workload::AdaptiveScan => 2 * sizes.adaptive_queries,
            Workload::WideScan => sizes.wide_queries,
            Workload::UpdateAlign => sizes.align_small_batches + sizes.align_large_batches,
            Workload::ServeMixed => sizes.serve_rounds * sizes.serve_reads_per_round,
            Workload::DurableIngest => sizes.durable_batches / sizes.durable_read_every,
        };
        let ops = match self {
            Workload::AdaptiveScan | Workload::WideScan => reads,
            Workload::UpdateAlign => sizes.align_small_batches,
            Workload::ServeMixed => sizes.serve_rounds,
            Workload::DurableIngest => sizes.durable_batches,
        };
        (reads, ops)
    }

    /// Repetitions a run needs before its pooled samples leave ten beyond
    /// the gated tails (`read_p95_ms`, `op_p90_ms`).
    pub fn min_reps(self, sizes: &Sizes) -> usize {
        let (reads, ops) = self.samples_per_rep(sizes);
        (1..)
            .find(|n| supports_percentile(n * reads, 95.0) && supports_percentile(n * ops, 90.0))
            .expect("every repetition times at least one read and one op")
    }

    /// Pages of the column `AdaptiveColumn::query` scans (0: no such calls).
    pub fn column_pages(self, sizes: &Sizes) -> usize {
        match self {
            Workload::AdaptiveScan | Workload::WideScan => sizes.scan_pages,
            Workload::UpdateAlign => sizes.align_pages,
            Workload::ServeMixed | Workload::DurableIngest => 0,
        }
    }

    /// One repetition on `backend`.
    pub fn run_rep<B: Backend>(self, backend: &B, env: &RepEnv<'_>) -> Rep {
        match self {
            Workload::AdaptiveScan => adaptive_scan::run(backend, env),
            Workload::WideScan => wide_scan::run(backend, env),
            Workload::UpdateAlign => update_align::run(backend, env),
            Workload::ServeMixed => serve_mixed::run(backend, env),
            Workload::DurableIngest => durable_ingest::run(backend, env),
        }
    }

    /// The oracle's answers for one repetition, in op order.
    pub fn expected_answers(self, seed: u64, sizes: &Sizes) -> Vec<Answer> {
        match self {
            Workload::AdaptiveScan => adaptive_scan::expected(seed, sizes),
            Workload::WideScan => wide_scan::expected(seed, sizes),
            Workload::UpdateAlign => update_align::expected(seed, sizes),
            Workload::ServeMixed => serve_mixed::expected(seed, sizes),
            Workload::DurableIngest => durable_ingest::expected(seed, sizes),
        }
    }

    /// The column the storage-kernel probes run on: the workload's own data.
    pub fn probe_values(self, seed: u64, sizes: &Sizes) -> Vec<u64> {
        match self {
            Workload::AdaptiveScan => adaptive_scan::values(seed, sizes, 0),
            Workload::WideScan => wide_scan::values(seed, sizes),
            Workload::UpdateAlign => update_align::values(seed, sizes),
            Workload::ServeMixed => serve_mixed::values(sizes, 0),
            Workload::DurableIngest => durable_ingest::values(sizes),
        }
    }

    /// Hash of everything the workload feeds the system for `seed`: the same
    /// seed gives the same hash, so two results with equal hashes saw equal
    /// inputs.
    pub fn op_stream_hash(self, seed: u64, sizes: &Sizes) -> u64 {
        let hash = match self {
            Workload::AdaptiveScan => adaptive_scan::stream_hash(seed, sizes),
            Workload::WideScan => wide_scan::stream_hash(seed, sizes),
            Workload::UpdateAlign => update_align::stream_hash(seed, sizes),
            Workload::ServeMixed => serve_mixed::stream_hash(seed, sizes),
            Workload::DurableIngest => durable_ingest::stream_hash(seed, sizes),
        };
        hash.0
    }
}

/// The op a workload exists for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DefiningOp {
    /// One query call.
    Read,
    /// `write_batch` + `align_views` of a small batch.
    Align,
    /// A burst handed over → committed in a pinnable epoch.
    Commit,
}

/// What one repetition measured. Latencies are milliseconds per op.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// Accumulated response time of every op of the sequence.
    pub sequence_s: f64,
    pub peak_rss_mb: f64,
    pub reads_ms: Vec<f64>,
    /// Column values the reads filtered (`wide_scan`: every read filters
    /// the whole column).
    pub values_filtered: u64,
    /// `write_batch` + `align_views` of the small batches.
    pub aligns_ms: Vec<f64>,
    /// Burst handed over → committed in a pinnable epoch.
    pub commits_ms: Vec<f64>,
    /// Acknowledged writes and the time they took (`writes_per_s`).
    pub writes: u64,
    pub write_wall_s: f64,
    pub recovers_s: Vec<f64>,
    pub journal_bytes: u64,
    /// Every answer, in op order, for the oracle; `None` where the op
    /// failed (already counted in `tally`).
    pub answers: Vec<Option<Answer>>,
    /// Ops attempted, and those that returned `Err` or panicked.
    pub tally: Tally,
    /// Thread that drove the timed phase (conservation check).
    pub driver_thread: u32,
    /// Layer figures a workload gathers from outside without spans.
    pub observed: Vec<(&'static str, f64)>,
}

impl Rep {
    /// The latencies of the workload's defining op.
    pub fn op_ms(&self, op: DefiningOp) -> &Vec<f64> {
        match op {
            DefiningOp::Read => &self.reads_ms,
            DefiningOp::Align => &self.aligns_ms,
            DefiningOp::Commit => &self.commits_ms,
        }
    }

    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.observed.push((name, value));
    }

    /// Books one attempted read: its answer and latency, or the gap a
    /// failed read leaves in the answer stream.
    pub fn record_read(&mut self, outcome: Option<(Answer, f64)>) {
        match outcome {
            Some((answer, ms)) => {
                self.reads_ms.push(ms);
                self.answers.push(Some(answer));
            }
            None => self.answers.push(None),
        }
    }
}

/// Runs one op, timing it. An `Err` or a panic counts as a failed op and
/// yields no latency; the workload carries on with the next op.
pub fn attempt<T>(
    tally: &mut Tally,
    op: impl FnOnce() -> Result<T, VmemError>,
) -> Option<(T, f64)> {
    tally.attempted += 1;
    let started = Instant::now();
    match catch_unwind(AssertUnwindSafe(op)) {
        Ok(Ok(value)) => Some((value, started.elapsed().as_secs_f64() * 1e3)),
        Ok(Err(err)) => {
            eprintln!("op failed: {err}");
            tally.failed += 1;
            None
        }
        Err(_) => {
            eprintln!("op panicked");
            tally.failed += 1;
            None
        }
    }
}

/// Where a repetition may put files (`durable_ingest` only).
pub struct RepEnv<'a> {
    pub out_dir: &'a Path,
    pub seed: u64,
    pub sizes: &'a Sizes,
    pub traced: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_stream_different_seed_different() {
        for workload in Workload::ALL {
            let a = workload.op_stream_hash(7, &Sizes::SMOKE);
            assert_eq!(a, workload.op_stream_hash(7, &Sizes::SMOKE), "{workload:?}");
            assert_ne!(a, workload.op_stream_hash(8, &Sizes::SMOKE), "{workload:?}");
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
    }

    #[test]
    fn a_run_supports_the_gated_tails() {
        // What a 15-s run holds anyway on the reference box (repetitions
        // last 7, 7, 9, 4.5 and 1.5 s); the runner waits for `min_reps`.
        let min_reps = Workload::ALL.map(|w| w.min_reps(&Sizes::FULL));
        // 100 reads a repetition: two leave ten beyond p95. 42 commits:
        // three leave ten beyond p90. 60 verifying reads: four.
        assert_eq!(min_reps, [1, 2, 1, 3, 4]);
        for workload in Workload::ALL {
            let (reads, ops) = workload.samples_per_rep(&Sizes::SMOKE);
            assert!(reads > 0 && ops > 0, "{workload:?}");
        }
    }
}
