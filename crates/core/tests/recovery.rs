//! Property test: crash recovery is exact at the last sealed epoch.
//!
//! Each cell builds a durable [`ServeTable`] with a deterministic
//! [`FaultPlan`] injected into its journal — the plan kills the journal at
//! the Nth append or fsync (dropping, cutting short or tearing the record,
//! or rolling back unsynced bytes), after which every journal operation
//! errors, exactly like a process killed at that instant. The table runs a
//! seeded write workload until the crash surfaces (every kill point lands
//! before the workload ends), then is dropped and recovered from the
//! journal alone.
//!
//! The property, swept across fault kinds × operation indices × torn/short
//! seeds × chunk sizes × backends: the recovered table's answers are
//! **bit-identical** to a never-crashed reference execution replaying
//! exactly the acknowledged batches the journal sealed —
//! `RecoveryInfo::batches_applied` is always a prefix of the acknowledged
//! batch log, never a reordering, never a partial batch.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use asv_core::{
    wal, AdaptiveConfig, AlignChunking, DurabilityConfig, FaultPlan, RangeAnswer, ServeTable,
    WalRecord,
};
use asv_util::ValueRange;
use asv_vmem::{Backend, SimBackend, VALUES_PER_PAGE};

const PAGES: usize = 12;
const BATCHES: usize = 10;
const WRITES_PER_BATCH: usize = 4;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Clustered data: page p holds values in [p*1000, p*1000 + 510].
fn clustered_values(pages: usize) -> Vec<u64> {
    (0..pages * VALUES_PER_PAGE)
        .map(|i| ((i / VALUES_PER_PAGE) * 1000 + i % VALUES_PER_PAGE) as u64)
        .collect()
}

fn reference_answer(values: &[u64], range: &ValueRange) -> RangeAnswer {
    let mut answer = RangeAnswer::default();
    for &v in values {
        if range.contains(v) {
            answer.count += 1;
            answer.sum += v as u128;
        }
    }
    answer
}

fn temp_journal(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("asv-recovery-{}-{tag}-{n}.wal", std::process::id()))
}

fn config(chunk_updates: usize) -> AdaptiveConfig {
    AdaptiveConfig::default().with_chunking(
        AlignChunking::default()
            .with_chunk_updates(chunk_updates)
            .with_group_commit_idle(0),
    )
}

/// Runs one crash cell: drive a durable table into the injected fault,
/// recover from the journal, compare against the reference replay of the
/// sealed batch prefix. Panics if the fault never fired: every cell's
/// kill point must land before the closing quiesce.
fn crash_and_recover<B: Backend>(
    make_backend: impl Fn() -> B,
    fault: FaultPlan,
    workload_seed: u64,
    chunk_updates: usize,
    path: &Path,
    label: &str,
) {
    let values = clustered_values(PAGES);
    let view_range = ValueRange::new(2_000, 9_400);
    // The log of acknowledged batches, in acknowledgement order. A batch
    // enters the log only if `try_write_batch` returned Ok — the
    // write-ahead contract says an Err stages nothing.
    let mut acked: Vec<Vec<(usize, u64)>> = Vec::new();
    {
        let durability = DurabilityConfig::new(path).with_fault(fault);
        let mut table =
            ServeTable::with_durability(make_backend(), config(chunk_updates), durability)
                .expect("journal creation performs no journal append");
        let mut rng = workload_seed;
        let mut crashed = table.add_column(&values).is_err();
        if !crashed {
            crashed = table.install_view(0, view_range).is_err();
        }
        if !crashed {
            for _ in 0..BATCHES {
                let batch: Vec<(usize, u64)> = (0..WRITES_PER_BATCH)
                    .map(|_| {
                        (
                            (splitmix(&mut rng) as usize) % values.len(),
                            splitmix(&mut rng) % 1_000_000,
                        )
                    })
                    .collect();
                match table.try_write_batch(0, &batch) {
                    Ok(()) => acked.push(batch),
                    Err(_) => {
                        crashed = true;
                        break;
                    }
                }
                if table.tick().is_err() {
                    crashed = true;
                    break;
                }
            }
        }
        assert!(
            crashed,
            "{label}: the kill point lands in set-up or the write phase"
        );
        // Dropping the table here is the kill: no flush, no farewell.
    }
    let (table, info) = ServeTable::recover(
        make_backend(),
        config(chunk_updates),
        DurabilityConfig::new(path),
    )
    .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    if table.num_columns() == 0 {
        // The fault killed the journal before the column load was sealed.
        assert_eq!(
            info.batches_applied, 0,
            "{label}: no batches without a column"
        );
        return;
    }
    assert!(
        info.batches_applied <= acked.len(),
        "{label}: replay can never exceed the acknowledged log"
    );
    let mut mirror = values.clone();
    for batch in &acked[..info.batches_applied] {
        for &(row, value) in batch {
            mirror[row] = value;
        }
    }
    let snap = table.handle().pin();
    for range in [
        ValueRange::full(),
        view_range,
        ValueRange::new(0, 3_000),
        ValueRange::new(500_000, u64::MAX),
    ] {
        assert_eq!(
            snap.query_range(0, &range),
            reference_answer(&mirror, &range),
            "{label}: range {range:?} diverges from the sealed reference"
        );
    }
    for row in [0usize, 5, values.len() / 2, values.len() - 1] {
        assert_eq!(snap.value(0, row), mirror[row], "{label}: row {row}");
    }
}

fn sweep_backend<B: Backend>(make_backend: impl Fn() -> B + Copy, backend_tag: &str) {
    // Kill points: ops 0–3 hit the column load, the view install and
    // their seals; from op 4 on, each acknowledged batch costs two appends
    // (the batch and its tick's seal) and one fsync, so the later ops land
    // on batches and seals throughout the 10-batch write phase (24 appends
    // and 12 fsyncs in all). Alignment chunks and retirements append
    // nothing.
    let kill_ops = [0usize, 1, 2, 3, 5, 8, 13, 21];
    for chunk_updates in [0usize, 4] {
        for op in kill_ops {
            let tag = format!("{backend_tag}-c{chunk_updates}-op{op}");
            let path = temp_journal(&tag);
            crash_and_recover(
                make_backend,
                FaultPlan::fail_append(op),
                0xA51CE ^ op as u64,
                chunk_updates,
                &path,
                &format!("{tag}-fail"),
            );
            let _ = std::fs::remove_file(&path);
            for seed in 0..3u64 {
                let path = temp_journal(&tag);
                crash_and_recover(
                    make_backend,
                    FaultPlan::short_append(op, seed),
                    0xA51CE ^ op as u64,
                    chunk_updates,
                    &path,
                    &format!("{tag}-short-s{seed}"),
                );
                let _ = std::fs::remove_file(&path);
                let path = temp_journal(&tag);
                crash_and_recover(
                    make_backend,
                    FaultPlan::torn_append(op, seed),
                    0xA51CE ^ op as u64,
                    chunk_updates,
                    &path,
                    &format!("{tag}-torn-s{seed}"),
                );
                let _ = std::fs::remove_file(&path);
            }
        }
        // Fsync faults: with one fsync per sealing commit the op index is
        // the seal index: the set-up's two, then one per batch.
        for op in [0usize, 1, 3, 7] {
            let tag = format!("{backend_tag}-c{chunk_updates}-fsync{op}");
            let path = temp_journal(&tag);
            crash_and_recover(
                make_backend,
                FaultPlan::fail_fsync(op),
                0xA51CE ^ (op as u64) << 8,
                chunk_updates,
                &path,
                &tag,
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[test]
fn recovery_is_exact_on_sim_backend() {
    sweep_backend(SimBackend::new, "sim");
}

#[cfg(target_os = "linux")]
#[test]
fn recovery_is_exact_on_file_backend() {
    // One process-unique directory for all file-backend cells; the stores
    // persist across the simulated kills (that is the point of the
    // backend), so clean up once at the end.
    let dir = std::env::temp_dir().join(format!("asv-recovery-stores-{}", std::process::id()));
    let make = || asv_vmem::FileBackend::with_dir(&dir);
    sweep_backend(make, "file");
    let _ = std::fs::remove_dir_all(&dir);
}

fn record_kind(record: &WalRecord) -> &'static str {
    match record {
        WalRecord::AddColumn { .. } => "add_column",
        WalRecord::InstallView { .. } => "install_view",
        WalRecord::Batch { .. } => "batch",
        WalRecord::Seal { .. } => "seal",
    }
}

/// Journal shape: exactly one `Seal` per commit that journaled a record,
/// right behind that record. Ticks that only publish an alignment chunk,
/// retire a round, re-tighten zone bands or idle journal nothing, so no
/// `Seal` ever follows another.
fn check_journal_shape<B: Backend>(make_backend: impl Fn() -> B, with_view: bool, tag: &str) {
    let path = temp_journal(tag);
    let values = clustered_values(PAGES);
    // One update per chunk, so a round that meets the view publishes
    // several chunks, one per tick.
    let config = AdaptiveConfig::default().with_chunking(
        AlignChunking::default()
            .with_chunk_updates(1)
            .with_group_commit_idle(0)
            .with_retighten_idle_ticks(2),
    );
    let mut table =
        ServeTable::with_durability(make_backend(), config, DurabilityConfig::new(&path)).unwrap();
    table.add_column(&values).unwrap();
    let mut expected = vec!["add_column", "seal"];
    if with_view {
        table
            .install_view(0, ValueRange::new(2_000, 9_400))
            .unwrap();
        expected.extend(["install_view", "seal"]);
    }
    let sealed_kinds = || -> Vec<&'static str> {
        let outcome = wal::replay(&path).unwrap();
        assert_eq!(
            outcome.unsealed_records, 0,
            "{tag}: no record waits unsealed"
        );
        outcome.sealed_records.iter().map(record_kind).collect()
    };
    assert_eq!(sealed_kinds(), expected, "{tag}: set-up");
    let mut rng = 0x5EA1u64;
    let mut chunk_only_ticks = 0;
    for k in 0..BATCHES {
        let batch: Vec<(usize, u64)> = (0..WRITES_PER_BATCH)
            .map(|_| {
                (
                    (splitmix(&mut rng) as usize) % values.len(),
                    splitmix(&mut rng) % 12_000,
                )
            })
            .collect();
        table.try_write_batch(0, &batch).unwrap();
        table.tick().unwrap();
        expected.extend(["batch", "seal"]);
        assert_eq!(sealed_kinds(), expected, "{tag}: batch {k}");
        if k % 3 == 0 {
            // Tick the round to its end, then idle past the re-tightening
            // threshold: none of it journals or seals anything.
            while table.round_in_flight(0) {
                table.tick().unwrap();
                chunk_only_ticks += usize::from(!table.drain_publish_micros().is_empty());
                std::thread::yield_now();
            }
            for _ in 0..3 {
                table.tick().unwrap();
            }
            assert_eq!(sealed_kinds(), expected, "{tag}: idle after batch {k}");
        }
    }
    if with_view {
        assert!(
            chunk_only_ticks > 0,
            "{tag}: some tick only published a chunk"
        );
    }
    let epochs: Vec<u64> = wal::replay(&path)
        .unwrap()
        .sealed_records
        .iter()
        .filter_map(|record| match record {
            WalRecord::Seal { epoch } => Some(*epoch),
            _ => None,
        })
        .collect();
    assert!(
        epochs.windows(2).all(|w| w[0] < w[1]),
        "{tag}: seal epochs ascend: {epochs:?}"
    );
    drop(table);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journal_seals_once_per_acknowledging_tick_on_sim_backend() {
    check_journal_shape(SimBackend::new, false, "shape-sim");
    check_journal_shape(SimBackend::new, true, "shape-sim-view");
}

#[cfg(target_os = "linux")]
#[test]
fn journal_seals_once_per_acknowledging_tick_on_file_backend() {
    let dir = std::env::temp_dir().join(format!("asv-shape-stores-{}", std::process::id()));
    let make = || asv_vmem::FileBackend::with_dir(&dir);
    check_journal_shape(make, false, "shape-file");
    check_journal_shape(make, true, "shape-file-view");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crashed durable table whose journal never sealed anything recovers
/// to an empty table rather than erroring.
#[test]
fn recovery_of_an_unsealed_journal_is_empty() {
    let path = temp_journal("unsealed");
    {
        let durability = DurabilityConfig::new(&path).with_fault(FaultPlan::fail_append(0));
        let mut table =
            ServeTable::with_durability(SimBackend::new(), config(4), durability).unwrap();
        assert!(table.add_column(&clustered_values(2)).is_err());
    }
    let (table, info) =
        ServeTable::recover(SimBackend::new(), config(4), DurabilityConfig::new(&path)).unwrap();
    assert_eq!(table.num_columns(), 0);
    assert_eq!(info.sealed_epoch, 0);
    assert_eq!(info.records_replayed, 0);
    let _ = std::fs::remove_file(&path);
}
