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
//!   install journals nothing.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use asv_core::wal::{Journal, WalRecord};
use asv_core::{AdaptiveConfig, AlignChunking, DurabilityConfig, ServeTable};
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
