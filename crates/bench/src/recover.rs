//! Journaled ingest and recovery across a real process boundary.
//!
//! One column of clustered values plus one installed view is driven
//! through a seeded sequence of acknowledged write batches, each followed
//! by a commit (`tick`). The binary's hidden `recover-ingest` /
//! `recover-verify` modes ([`run_ingest`] / [`run_verify`]) split that
//! loop across processes, so the kill-and-recover integration test can
//! deliver a real SIGKILL between them. The verifier regenerates the
//! sealed batch prefix from the same seed and answers a fixed probe-query
//! set both on the recovered table and on the regenerated values.
//!
//! The in-process sweep over fsync policies and fault points lives in
//! `asv_core`'s `recovery` integration test; the recovery cost is
//! measured by `benchmark/`'s `durable_ingest` workload.

use std::path::Path;

use asv_core::{AdaptiveConfig, DurabilityConfig, RecoveryInfo, ServeTable, Snapshot};
use asv_util::ValueRange;
use asv_vmem::{Backend, VmemError, VALUES_PER_PAGE};

use crate::scale::Scale;

/// The full answer of one probe query — the exactness witness compared
/// between the recovered table and the reference replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoverAnswer {
    /// Qualifying rows.
    pub count: u64,
    /// Sum of qualifying values.
    pub sum: u128,
}

/// Clustered base data: page p holds values around p*1000.
fn base_values(scale: &Scale) -> Vec<u64> {
    (0..scale.recover_pages * VALUES_PER_PAGE)
        .map(|i| ((i / VALUES_PER_PAGE) * 1_000 + i % VALUES_PER_PAGE) as u64)
        .collect()
}

/// Value domain of the workload (also bounds the probe ranges).
fn domain(scale: &Scale) -> u64 {
    scale.recover_pages as u64 * 1_000
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `k`-th acknowledged batch — a pure function of `(seed, k)`, so an
/// independent process (the `recover-verify` mode) can regenerate exactly
/// the prefix a killed ingest sealed.
fn batch(seed: u64, k: usize, num_rows: usize, writes_per_batch: usize) -> Vec<(usize, u64)> {
    let mut rng = seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..writes_per_batch)
        .map(|_| {
            (
                (splitmix(&mut rng) as usize) % num_rows,
                splitmix(&mut rng) % (num_rows as u64 * 2),
            )
        })
        .collect()
}

/// The view installed on the column (one band in the middle of the
/// domain).
fn view_range(domain: u64) -> ValueRange {
    ValueRange::new(domain / 8, domain / 8 + domain / 6)
}

/// The fixed probe-query set answered by the recovered table and the
/// reference replay.
fn probe_ranges(domain: u64) -> Vec<ValueRange> {
    let mut ranges = vec![
        ValueRange::full(),
        view_range(domain),
        ValueRange::new(0, domain / 4),
        ValueRange::new(domain / 2, u64::MAX),
    ];
    let mut rng = 0xB007u64;
    for _ in 0..12 {
        let lo = splitmix(&mut rng) % domain;
        let hi = lo + splitmix(&mut rng) % (domain / 4).max(1);
        ranges.push(ValueRange::new(lo, hi));
    }
    ranges
}

/// Answers the probe set on a pinned snapshot.
fn snapshot_answers<B: Backend>(snap: &Snapshot<B>, domain: u64) -> Vec<RecoverAnswer> {
    probe_ranges(domain)
        .iter()
        .map(|range| {
            let out = snap.query_range(0, range);
            RecoverAnswer {
                count: out.count,
                sum: out.sum,
            }
        })
        .collect()
}

/// Answers the probe set by a naive filter over raw values — the
/// journal-independent reference.
fn reference_answers(values: &[u64], domain: u64) -> Vec<RecoverAnswer> {
    probe_ranges(domain)
        .iter()
        .map(|range| {
            let mut answer = RecoverAnswer::default();
            for &v in values {
                if range.contains(v) {
                    answer.count += 1;
                    answer.sum += v as u128;
                }
            }
            answer
        })
        .collect()
}

fn build_table<B: Backend>(table: &mut ServeTable<B>, scale: &Scale) -> Result<(), VmemError> {
    let values = base_values(scale);
    table.add_column(&values)?;
    table.install_view(0, view_range(domain(scale)))?;
    Ok(())
}

/// What a completed (or killed-short) `recover-verify` found.
#[derive(Clone, Debug)]
pub struct VerifyOutcome {
    /// What recovery found in the journal.
    pub info: RecoveryInfo,
    /// Probe answers of the recovered table.
    pub recovered: Vec<RecoverAnswer>,
    /// Probe answers of the reference replay of the sealed batch prefix.
    pub reference: Vec<RecoverAnswer>,
}

/// The binary's hidden `recover-ingest` mode: run the journaled workload
/// for up to `batches` acknowledged-and-committed batches, calling
/// `on_seal(k)` after each commit is sealed — the progress markers the
/// kill-and-recover test waits on before delivering SIGKILL. Exits
/// *without* a quiesce, so even a run that is never killed leaves a
/// journal that exercises the non-checkpoint recovery path.
pub fn run_ingest<B: Backend>(
    backend: &B,
    scale: &Scale,
    seed: u64,
    journal: &Path,
    batches: usize,
    mut on_seal: impl FnMut(usize),
) {
    let durability = DurabilityConfig::new(journal);
    let mut table =
        ServeTable::with_durability(backend.clone(), AdaptiveConfig::default(), durability)
            .expect("journal creation");
    build_table(&mut table, scale).expect("durable column load");
    let num_rows = scale.recover_pages * VALUES_PER_PAGE;
    for k in 0..batches {
        let writes = batch(seed, k, num_rows, scale.recover_writes_per_batch);
        table
            .try_write_batch(0, &writes)
            .expect("acknowledged batch");
        table.tick().expect("commit");
        on_seal(k);
    }
}

/// The binary's hidden `recover-verify` mode: recover the journal a
/// killed `recover-ingest` left behind and answer the probe set twice —
/// once on the recovered table, once by regenerating exactly the sealed
/// batch prefix (`RecoveryInfo::batches_applied` batches of the same
/// seeded generator) over the base values. The two answer sets must match
/// exactly; the binary exits with status 1 when they do not.
pub fn run_verify<B: Backend>(
    backend: &B,
    scale: &Scale,
    seed: u64,
    journal: &Path,
) -> VerifyOutcome {
    let (table, info) = ServeTable::recover(
        backend.clone(),
        AdaptiveConfig::default(),
        DurabilityConfig::new(journal),
    )
    .expect("recovery");
    let dom = domain(scale);
    let recovered = snapshot_answers(&table.handle().pin(), dom);
    let mut mirror = base_values(scale);
    let num_rows = mirror.len();
    for k in 0..info.batches_applied {
        for (row, value) in batch(seed, k, num_rows, scale.recover_writes_per_batch) {
            mirror[row] = value;
        }
    }
    let reference = reference_answers(&mirror, dom);
    VerifyOutcome {
        info,
        recovered,
        reference,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_vmem::SimBackend;
    use std::path::PathBuf;

    fn temp_journal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "asv-bench-recover-{}-{tag}.wal",
            std::process::id()
        ))
    }

    #[test]
    fn ingest_then_verify_round_trips() {
        let scale = Scale::tiny();
        let journal = temp_journal("ingest");
        let mut sealed = Vec::new();
        run_ingest(&SimBackend::new(), &scale, 42, &journal, 4, |k| {
            sealed.push(k)
        });
        assert_eq!(sealed, vec![0, 1, 2, 3]);
        let out = run_verify(&SimBackend::new(), &scale, 42, &journal);
        let _ = std::fs::remove_file(&journal);
        assert_eq!(out.info.batches_applied, 4);
        assert_eq!(out.recovered, out.reference);
        // A wrong seed must not verify: the reference replay diverges.
        let journal = temp_journal("ingest-bad-seed");
        run_ingest(&SimBackend::new(), &scale, 42, &journal, 4, |_| {});
        let bad = run_verify(&SimBackend::new(), &scale, 43, &journal);
        let _ = std::fs::remove_file(&journal);
        assert_ne!(bad.recovered, bad.reference);
    }
}
