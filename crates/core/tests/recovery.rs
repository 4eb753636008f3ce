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
//! exactly the committed batches — those whose `tick` sealed and fsynced
//! them — and `RecoveryInfo::batches_applied` is their count: a prefix of
//! the acknowledged batch log, never a reordering, never a partial batch,
//! never an acknowledged batch whose seal did not reach disk.
//!
//! Streamed-column cells load a column larger than the journal's stream
//! buffer, whose record reaches the file in several writes, and cut or
//! tear that append on both sides of a write boundary: recovery keeps
//! exactly the column sealed before it.
//!
//! A no-fault sweep covers the other way a process ends: every batch is
//! acknowledged and committed, and the table is dropped without a quiesce
//! under each fsync policy. Recovery must then replay every acknowledged
//! batch and answer exactly as the live table did before the drop.
//!
//! Recovery writes nothing the journal already holds, so the last cells
//! check what it leaves behind: a column load damaged inside its values
//! is dropped with everything after it, a recovered table killed again
//! recovers the batches of both runs, and a second recovery of the same
//! journal changes no byte of it.

use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use asv_core::{
    wal, AdaptiveConfig, AlignChunking, DurabilityConfig, FaultPlan, RangeAnswer, RecoveryInfo,
    ServeTable, WalRecord,
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
    // The acknowledged batches whose tick returned Ok. Every commit seals
    // and fsyncs (one fsync per seal by default), so these and only these
    // are on disk behind a seal: a failed seal append leaves no valid seal
    // and a failed fsync loses everything since the last one.
    let mut committed = 0usize;
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
                committed += 1;
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
    assert_eq!(
        info.batches_applied, committed,
        "{label}: recovery replays exactly the committed batches"
    );
    let mut mirror = values.clone();
    for batch in &acked[..committed] {
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

/// Pages of the streamed-column cells: a column load of several
/// `wal::STREAM_BUF`-byte journal writes.
const BIG_PAGES: usize = 48;

/// The frame prefix `FaultPlan::short_append(op, seed)` (or, `torn`,
/// `torn_append`) keeps of a record of `frame_len` bytes. This restates
/// the journal's seeded rule (one splitmix64 step of the seed) so a cell
/// can aim its cut; each cell checks the journal length the cut left, so
/// a restatement that drifts from the rule fails rather than aims wrong.
fn planned_cut(seed: u64, frame_len: usize, torn: bool) -> usize {
    let z = splitmix(&mut seed.clone()) as usize;
    usize::from(torn) + z % frame_len
}

/// Streamed-column cells: the second `add_column` journals a column
/// larger than the journal's stream buffer, so its `AddColumn` record
/// reaches the file in several writes. Short and torn appends cut it one
/// byte before, at and one byte after each of the first two write
/// boundaries. Recovery must keep exactly the sealed first column and
/// discard every cut byte.
fn cut_streamed_column<B: Backend>(make_backend: impl Fn() -> B, backend_tag: &str) {
    let small = clustered_values(2);
    let big = clustered_values(BIG_PAGES);
    // Length prefix, kind, column, count, values, checksum.
    let frame_len = 4 + 1 + 4 + 8 + 8 * big.len() + 4;
    let chunk = wal::STREAM_BUF;
    assert!(frame_len > 2 * chunk + 1);
    for torn in [false, true] {
        for at in [
            chunk - 1,
            chunk,
            chunk + 1,
            2 * chunk - 1,
            2 * chunk,
            2 * chunk + 1,
        ] {
            let label = format!("{backend_tag}-big-torn{torn}-cut{at}");
            let seed = (0..)
                .find(|&seed| planned_cut(seed, frame_len, torn) == at)
                .expect("some seed cuts at every offset of the frame");
            // Appends 0 and 1 are the first column and its seal.
            let fault = match torn {
                false => FaultPlan::short_append(2, seed),
                true => FaultPlan::torn_append(2, seed),
            };
            let path = temp_journal(&label);
            {
                let durability = DurabilityConfig::new(&path).with_fault(fault);
                let mut table =
                    ServeTable::with_durability(make_backend(), config(4), durability).unwrap();
                table.add_column(&small).unwrap();
                let sealed_len = std::fs::metadata(&path).unwrap().len();
                assert!(table.add_column(&big).is_err(), "{label}: the cut fires");
                let len = std::fs::metadata(&path).unwrap().len();
                assert_eq!(
                    len,
                    sealed_len + at as u64,
                    "{label}: the cut lands as aimed"
                );
            }
            let (table, info) =
                ServeTable::recover(make_backend(), config(4), DurabilityConfig::new(&path))
                    .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
            assert_eq!(info.discarded_bytes, at as u64, "{label}");
            assert_eq!(table.num_columns(), 1, "{label}: only the sealed column");
            let snap = table.handle().pin();
            for range in [ValueRange::full(), ValueRange::new(500, 1_200)] {
                assert_eq!(
                    snap.query_range(0, &range),
                    reference_answer(&small, &range),
                    "{label}: range {range:?}"
                );
            }
            drop(snap);
            drop(table);
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[test]
fn streamed_column_cuts_recover_the_sealed_prefix_on_sim_backend() {
    cut_streamed_column(SimBackend::new, "sim");
}

#[cfg(target_os = "linux")]
#[test]
fn streamed_column_cuts_recover_the_sealed_prefix_on_file_backend() {
    let dir = std::env::temp_dir().join(format!("asv-big-stores-{}", std::process::id()));
    let make = || asv_vmem::FileBackend::with_dir(&dir);
    cut_streamed_column(make, "file");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs one no-fault cell: acknowledge and commit every batch, record the
/// live answers on a pinned snapshot, drop the table without a quiesce and
/// recover. The recovered answers must equal the live answers and a
/// reference replay of every acknowledged batch.
fn drop_and_recover<B: Backend>(
    make_backend: impl Fn() -> B,
    fsync_every: usize,
    chunk_updates: usize,
    label: &str,
) {
    let path = temp_journal(label);
    let values = clustered_values(PAGES);
    let view_range = ValueRange::new(2_000, 9_400);
    let mut probes = vec![
        ValueRange::full(),
        view_range,
        ValueRange::new(0, 3_000),
        ValueRange::new(6_000, u64::MAX),
    ];
    let mut rng = 0xB007u64;
    for _ in 0..8 {
        let lo = splitmix(&mut rng) % 12_000;
        probes.push(ValueRange::new(lo, lo + splitmix(&mut rng) % 3_000));
    }
    let mut mirror = values.clone();
    let live: Vec<RangeAnswer> = {
        let durability = DurabilityConfig::new(&path).with_fsync_every_chunks(fsync_every);
        let mut table =
            ServeTable::with_durability(make_backend(), config(chunk_updates), durability).unwrap();
        table.add_column(&values).unwrap();
        table.install_view(0, view_range).unwrap();
        let mut rng = 0xD209u64;
        for _ in 0..BATCHES {
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
            for &(row, value) in &batch {
                mirror[row] = value;
            }
        }
        let snap = table.handle().pin();
        probes.iter().map(|r| snap.query_range(0, r)).collect()
        // The table drops here: no quiesce, no final fsync.
    };
    let (table, info) = ServeTable::recover(
        make_backend(),
        config(chunk_updates),
        DurabilityConfig::new(&path),
    )
    .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    assert_eq!(
        info.batches_applied, BATCHES,
        "{label}: every acknowledged batch was committed"
    );
    let snap = table.handle().pin();
    for (i, range) in probes.iter().enumerate() {
        let recovered = snap.query_range(0, range);
        assert_eq!(
            recovered, live[i],
            "{label}: range {range:?} diverges from the live table"
        );
        assert_eq!(
            recovered,
            reference_answer(&mirror, range),
            "{label}: range {range:?} diverges from the reference replay"
        );
    }
    drop(snap);
    drop(table);
    let _ = std::fs::remove_file(&path);
}

/// Fsync policies (a sync per commit, one per 8 commits, quiesce-only) ×
/// chunk sizes.
fn sweep_clean_drops<B: Backend>(make_backend: impl Fn() -> B + Copy, backend_tag: &str) {
    for fsync_every in [1usize, 8, 0] {
        for chunk_updates in [0usize, 4] {
            drop_and_recover(
                make_backend,
                fsync_every,
                chunk_updates,
                &format!("{backend_tag}-drop-f{fsync_every}-c{chunk_updates}"),
            );
        }
    }
}

#[test]
fn clean_drop_recovers_every_acknowledged_batch_on_sim_backend() {
    sweep_clean_drops(SimBackend::new, "sim");
}

#[cfg(target_os = "linux")]
#[test]
fn clean_drop_recovers_every_acknowledged_batch_on_file_backend() {
    let dir = std::env::temp_dir().join(format!("asv-drop-stores-{}", std::process::id()));
    let make = || asv_vmem::FileBackend::with_dir(&dir);
    sweep_clean_drops(make, "file");
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
/// retire a round or idle journal nothing, so no `Seal` ever follows
/// another.
fn check_journal_shape<B: Backend>(make_backend: impl Fn() -> B, with_view: bool, tag: &str) {
    let path = temp_journal(tag);
    let values = clustered_values(PAGES);
    // One update per chunk, so a round that meets the view publishes
    // several chunks, one per tick.
    let config = AdaptiveConfig::default().with_chunking(
        AlignChunking::default()
            .with_chunk_updates(1)
            .with_group_commit_idle(0),
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
            // Tick the round to its end, then idle for a few ticks: none
            // of it journals or seals anything.
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

/// The inode of the file at `path`: recovery cuts a tail in place, so it
/// never changes.
fn inode(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().ino()
}

/// Runs `cell` with a backend maker for the simulation and, on Linux, for
/// the file backend (one store directory per cell, removed afterwards).
fn on_each_backend(tag: &str, cell: impl Fn(&dyn Fn() -> asv_vmem::AnyBackend, &str)) {
    cell(&asv_vmem::AnyBackend::sim, &format!("{tag}-sim"));
    #[cfg(target_os = "linux")]
    {
        let dir = std::env::temp_dir().join(format!("asv-{tag}-stores-{}", std::process::id()));
        cell(
            &|| asv_vmem::AnyBackend::file_in(&dir),
            &format!("{tag}-file"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Recovery answers exactly as `mirror` over the probe ranges and rows.
fn check_answers<B: Backend>(table: &ServeTable<B>, mirror: &[u64], label: &str) {
    let snap = table.handle().pin();
    for range in [
        ValueRange::full(),
        ValueRange::new(2_000, 9_400),
        ValueRange::new(0, 3_000),
        ValueRange::new(6_000, u64::MAX),
    ] {
        assert_eq!(
            snap.query_range(0, &range),
            reference_answer(mirror, &range),
            "{label}: range {range:?}"
        );
    }
    for row in [0usize, 5, mirror.len() / 2, mirror.len() - 1] {
        assert_eq!(snap.value(0, row), mirror[row], "{label}: row {row}");
    }
}

/// `count` seeded batches of column writes, applied to `mirror`.
fn seeded_batches(rng: &mut u64, count: usize, mirror: &mut [u64]) -> Vec<Vec<(usize, u64)>> {
    let batches: Vec<Vec<(usize, u64)>> = (0..count)
        .map(|_| {
            (0..WRITES_PER_BATCH)
                .map(|_| {
                    let row = (splitmix(rng) as usize) % mirror.len();
                    (row, splitmix(rng) % 12_000)
                })
                .collect()
        })
        .collect();
    for &(row, value) in batches.iter().flatten() {
        mirror[row] = value;
    }
    batches
}

/// Acknowledges and seals each batch, then acknowledges one more that no
/// seal covers (the kill comes before the next tick).
fn write_then_die<B: Backend>(mut table: ServeTable<B>, batches: &[Vec<(usize, u64)>]) {
    for batch in batches {
        table.try_write_batch(0, batch).unwrap();
        table.tick().unwrap();
    }
    table.try_write_batch(0, &[(1, 999_999)]).unwrap();
}

#[test]
fn a_column_damaged_inside_its_values_recovers_without_it() {
    on_each_backend("damaged-column", |make_backend, tag| {
        let small = clustered_values(PAGES);
        let big = clustered_values(BIG_PAGES);
        // Bytes into the big column's values: its first, one across the
        // first stream-buffer boundary of its frame, and its last.
        let values_at = 4 + 1 + 4 + 8;
        let values_len = 8 * big.len();
        for at in [0, wal::STREAM_BUF - values_at, values_len - 1] {
            let label = format!("{tag}-byte{at}");
            let path = temp_journal(&label);
            let sealed_len = {
                let durability = DurabilityConfig::new(&path);
                let mut table =
                    ServeTable::with_durability(make_backend(), config(4), durability).unwrap();
                table.add_column(&small).unwrap();
                let sealed_len = std::fs::metadata(&path).unwrap().len();
                table.add_column(&big).unwrap();
                table.try_write_batch(0, &[(3, 7)]).unwrap();
                table.tick().unwrap();
                sealed_len
            };
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[sealed_len as usize + values_at + at] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            let before = inode(&path);
            let (table, info) =
                ServeTable::recover(make_backend(), config(4), DurabilityConfig::new(&path))
                    .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
            assert_eq!(table.num_columns(), 1, "{label}: only the sealed column");
            assert_eq!(info.batches_applied, 0, "{label}: nothing past the damage");
            assert_eq!(info.records_replayed, 2, "{label}: one load, one seal");
            assert_eq!(info.discarded_bytes, bytes.len() as u64 - sealed_len);
            check_answers(&table, &small, &label);
            assert!(
                std::fs::read(&path).unwrap() == bytes[..sealed_len as usize],
                "{label}: the journal is cut to its sealed prefix"
            );
            assert_eq!(inode(&path), before, "{label}: in place");
            drop(table);
            let _ = std::fs::remove_file(&path);
        }
    });
}

#[test]
fn a_recovered_table_killed_again_recovers_both_runs() {
    on_each_backend("killed-twice", |make_backend, tag| {
        for chunk_updates in [0usize, 4] {
            let label = format!("{tag}-c{chunk_updates}");
            let path = temp_journal(&label);
            let values = clustered_values(PAGES);
            let mut mirror = values.clone();
            let mut rng = 0x7A1C_E5E5u64;
            let first = seeded_batches(&mut rng, BATCHES / 2, &mut mirror);
            let durability = DurabilityConfig::new(&path);
            let mut table =
                ServeTable::with_durability(make_backend(), config(chunk_updates), durability)
                    .unwrap();
            table.add_column(&values).unwrap();
            table
                .install_view(0, ValueRange::new(2_000, 9_400))
                .unwrap();
            write_then_die(table, &first);
            let (table, info) = ServeTable::recover(
                make_backend(),
                config(chunk_updates),
                DurabilityConfig::new(&path),
            )
            .unwrap();
            assert_eq!(info.batches_applied, first.len(), "{label}: first run");
            check_answers(&table, &mirror, &format!("{label}-first"));
            let kept_seal = info.sealed_epoch;
            let second = seeded_batches(&mut rng, BATCHES / 2, &mut mirror);
            write_then_die(table, &second);
            let (table, info) = ServeTable::recover(
                make_backend(),
                config(chunk_updates),
                DurabilityConfig::new(&path),
            )
            .unwrap();
            assert_eq!(
                info.batches_applied,
                first.len() + second.len(),
                "{label}: the batches of both runs"
            );
            assert!(info.sealed_epoch > kept_seal, "{label}: seals continue");
            check_answers(&table, &mirror, &format!("{label}-second"));
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
                "{label}: seal epochs ascend across both runs: {epochs:?}"
            );
            drop(table);
            let _ = std::fs::remove_file(&path);
        }
    });
}

#[test]
fn recovering_twice_leaves_the_journal_unchanged() {
    on_each_backend("recover-twice", |make_backend, tag| {
        let path = temp_journal(tag);
        let values = clustered_values(PAGES);
        let mut mirror = values.clone();
        let batches = seeded_batches(&mut 0x2EC0_7E2Eu64, BATCHES, &mut mirror);
        let mut table =
            ServeTable::with_durability(make_backend(), config(4), DurabilityConfig::new(&path))
                .unwrap();
        table.add_column(&values).unwrap();
        write_then_die(table, &batches);
        let (table, first) =
            ServeTable::recover(make_backend(), config(4), DurabilityConfig::new(&path)).unwrap();
        assert!(first.discarded_bytes > 0, "{tag}: the tail is cut");
        drop(table);
        let bytes = std::fs::read(&path).unwrap();
        let before = inode(&path);
        let (table, second) =
            ServeTable::recover(make_backend(), config(4), DurabilityConfig::new(&path)).unwrap();
        assert!(
            std::fs::read(&path).unwrap() == bytes,
            "{tag}: the second recovery writes nothing"
        );
        assert_eq!(inode(&path), before, "{tag}: same file");
        assert_eq!(
            second,
            RecoveryInfo {
                discarded_bytes: 0,
                ..first
            },
            "{tag}: the same sealed prefix"
        );
        assert_eq!(second.batches_applied, BATCHES);
        check_answers(&table, &mirror, tag);
        drop(table);
        let _ = std::fs::remove_file(&path);
    });
}
