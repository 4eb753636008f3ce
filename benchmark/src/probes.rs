//! Direct probes of a layer's public functions on the workload's own data,
//! for the layers that are only reachable from inside the library: the
//! `asv_storage` kernels, the `wal` journal and the `EpochCell`.
//!
//! They run after the traced repetition, never inside a timed phase.

use std::path::Path;
use std::time::Instant;

use crate::gen::{uniform_writes, Range, SplitMix};
use crate::oracle::SortedOracle;
use crate::stats::median;
use crate::sut::{self, Backend, ProbeMode};

type Figures = Vec<(&'static str, f64)>;

/// Repetitions of each kernel probe; the fastest is reported (the probe
/// measures the kernel, not the scheduler).
const KERNEL_REPEATS: usize = 3;

fn best_seconds(mut run: impl FnMut() -> u64) -> f64 {
    (0..KERNEL_REPEATS)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(run());
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Kernel throughput per mode × row selectivity on `values`.
pub fn storage<B: Backend>(backend: &B, values: &[u64]) -> Figures {
    let column = sut::storage_column(backend.clone(), values).expect("probe column");
    // Ranges of a known *row* selectivity, centred on the median, from a
    // sorted sample of the data.
    let sample = SortedOracle::new(values.iter().step_by(64).copied().collect());
    let range_of = |selectivity: f64| Range {
        lo: sample.quantile(0.5 - selectivity / 2.0),
        hi: sample.quantile(0.5 + selectivity / 2.0),
    };
    let mvalues = values.len() as f64 / 1e6;
    let scan = |mode: ProbeMode, selectivity: f64| {
        let range = range_of(selectivity);
        mvalues / best_seconds(|| sut::kernel_scan(&column, &range, mode, None))
    };

    let candidates: Vec<u64> = (0..values.len() as u64).step_by(7).collect();
    let probe_range = range_of(0.5);
    let probe_s = best_seconds(|| sut::kernel_probe(&column, &probe_range, &candidates));

    let masks = sut::exclusion_masks((0..values.len() as u64).step_by(101).collect());
    let masked_range = range_of(0.1);
    let masked_s = best_seconds(|| {
        sut::kernel_scan(&column, &masked_range, ProbeMode::Aggregate, Some(&masks))
    });

    vec![
        (
            "storage.scan_mvalues_per_s.sel1",
            scan(ProbeMode::Aggregate, 0.01),
        ),
        (
            "storage.scan_mvalues_per_s.sel10",
            scan(ProbeMode::Aggregate, 0.10),
        ),
        (
            "storage.scan_mvalues_per_s.sel50",
            scan(ProbeMode::Aggregate, 0.50),
        ),
        (
            "storage.scan_mvalues_per_s.sel90",
            scan(ProbeMode::Aggregate, 0.90),
        ),
        (
            "storage.count_mvalues_per_s.sel50",
            scan(ProbeMode::CountOnly, 0.50),
        ),
        (
            "storage.count_mvalues_per_s.sel90",
            scan(ProbeMode::CountOnly, 0.90),
        ),
        (
            "storage.collect_mvalues_per_s.sel1",
            scan(ProbeMode::CollectRows, 0.01),
        ),
        (
            "storage.collect_mvalues_per_s.sel50",
            scan(ProbeMode::CollectRows, 0.50),
        ),
        (
            "storage.probe_mrows_per_s",
            candidates.len() as f64 / 1e6 / probe_s,
        ),
        (
            "storage.masked_scan_mvalues_per_s.sel10",
            mvalues / masked_s,
        ),
    ]
}

/// Commits the journal probe appends and syncs.
const WAL_PROBE_COMMITS: usize = 100;

/// Append and sync cost of a bare `Journal` in `dir`, with the record
/// shapes of the workload: one batch of `batch_len` writes and one seal per
/// commit, one sync per commit.
pub fn wal(dir: &Path, rows: usize, batch_len: usize, max_value: u64) -> Figures {
    let path = dir.join("probe.wal");
    let mut journal = sut::ProbeJournal::create(&path).expect("probe journal");
    let mut rng = SplitMix::new(0x9A1);
    let (mut append_us, mut sync_ms) = (0.0, Vec::new());
    for epoch in 0..WAL_PROBE_COMMITS {
        let writes = uniform_writes(&mut rng, batch_len, rows, max_value);
        let started = Instant::now();
        journal.append_batch(&writes).expect("probe append");
        journal.append_seal(epoch as u64).expect("probe seal");
        append_us += started.elapsed().as_secs_f64() * 1e6;
        let started = Instant::now();
        journal.sync().expect("probe sync");
        sync_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    drop(journal);
    let _ = std::fs::remove_file(&path);
    vec![
        (
            "wal.append_us_per_record",
            append_us / (2 * WAL_PROBE_COMMITS) as f64,
        ),
        ("wal.sync_ms_p50", median(&sync_ms)),
    ]
}

/// `wal::replay` of the workload's own pre-crash journal.
pub fn wal_replay(journal: &Path) -> Figures {
    let started = Instant::now();
    let info = sut::journal_replay(journal).expect("replay of the workload's journal");
    vec![
        ("wal.replay_ms", started.elapsed().as_secs_f64() * 1e3),
        ("wal.records", info.records as f64),
        ("wal.discarded_bytes", info.discarded_bytes as f64),
    ]
}

/// `EpochCell` pin and publish cost.
pub fn util() -> Figures {
    let (pin_ns, publish_ns) = sut::epoch_cell_probe(200_000);
    vec![
        ("util.epoch_pin_ns", pin_ns),
        ("util.epoch_publish_ns", publish_ns),
    ]
}
