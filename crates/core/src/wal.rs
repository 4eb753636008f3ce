//! Crash-consistent write-ahead journal for the serving layer.
//!
//! The journal makes the chunked epoch publishes of [`crate::serve`] the
//! durability points the ROADMAP asks for: every update batch is appended
//! as a length-prefixed, checksummed record *before* it is acknowledged,
//! and every epoch publish that journaled a record appends a **seal**
//! record (an epoch that journaled nothing has nothing to seal, so no
//! seal ever directly follows another). Recovery replays the
//! journal up to the last seal, discards the torn tail, and rebuilds the
//! table (views are reconstructed from the recorded view ranges — they are
//! virtual memory and carry no data of their own).
//!
//! ## On-disk format
//!
//! ```text
//! +----------------------+
//! | magic  "ASVWAL01"    |  8 bytes
//! +----------------------+
//! | record 0             |
//! | record 1             |
//! | ...                  |
//! +----------------------+
//!
//! record := [payload_len: u32 LE] [payload] [fnv1a64(payload): u64 LE]
//! payload := kind-tagged body (see `WalRecord`)
//! ```
//!
//! A record is *valid* iff its length prefix fits in the file and the
//! checksum matches; replay stops at the first invalid record. A prefix of
//! the journal is *sealed* iff it ends in a `Seal` record — the recovery
//! invariant is: **exactly the records up to the last valid seal are
//! replayed; everything after it (acknowledged or torn) is discarded.**
//!
//! ## Fault injection
//!
//! Because this module exists to be crash-tested, the journal carries an
//! optional deterministic [`FaultPlan`]: fail, short-write or tear the Nth
//! append, or fail the Nth fsync (modelled as losing everything written
//! since the last successful sync). After an injected fault the journal is
//! *crashed* — every later operation fails — so a test can drive a workload
//! to an exact crash point, drop the table, and exercise recovery by
//! construction rather than by luck.

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic identifying an asv journal, version 1.
pub const WAL_MAGIC: &[u8; 8] = b"ASVWAL01";

/// Upper bound on a single record payload (sanity check during replay).
const MAX_PAYLOAD: usize = 1 << 30;

const KIND_ADD_COLUMN: u8 = 1;
const KIND_INSTALL_VIEW: u8 = 2;
const KIND_BATCH: u8 = 3;
const KIND_SEAL: u8 = 4;

/// FNV-1a 64-bit hash — the record checksum (no external deps, stable
/// across platforms).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One logical journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A column added to the table with its initial values.
    AddColumn {
        /// Column index (append order).
        col: u32,
        /// Initial column values.
        values: Vec<u64>,
    },
    /// A partial view installed over a value range of a column.
    InstallView {
        /// Column index.
        col: u32,
        /// Inclusive lower bound of the view's value range.
        min: u64,
        /// Inclusive upper bound of the view's value range.
        max: u64,
    },
    /// An acknowledged batch of point writes `(row, new_value)`.
    Batch {
        /// Column index.
        col: u32,
        /// The writes, in acknowledgement order.
        writes: Vec<(u64, u64)>,
    },
    /// An epoch seal: everything before this record is recoverable.
    Seal {
        /// The published epoch (the serve generation counter).
        epoch: u64,
    },
}

impl WalRecord {
    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::AddColumn { col, values } => {
                out.push(KIND_ADD_COLUMN);
                out.extend_from_slice(&col.to_le_bytes());
                out.extend_from_slice(&(values.len() as u64).to_le_bytes());
                for v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            WalRecord::InstallView { col, min, max } => {
                out.push(KIND_INSTALL_VIEW);
                out.extend_from_slice(&col.to_le_bytes());
                out.extend_from_slice(&min.to_le_bytes());
                out.extend_from_slice(&max.to_le_bytes());
            }
            WalRecord::Batch { col, writes } => {
                out.push(KIND_BATCH);
                out.extend_from_slice(&col.to_le_bytes());
                out.extend_from_slice(&(writes.len() as u64).to_le_bytes());
                for (row, value) in writes {
                    out.extend_from_slice(&row.to_le_bytes());
                    out.extend_from_slice(&value.to_le_bytes());
                }
            }
            WalRecord::Seal { epoch } => {
                out.push(KIND_SEAL);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
        }
        out
    }

    fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let mut cur = Cursor { buf: payload };
        let kind = cur.u8()?;
        let record = match kind {
            KIND_ADD_COLUMN => {
                let col = cur.u32()?;
                let n = cur.u64()? as usize;
                // Hostile counts allocate no more than the payload holds.
                let mut values = Vec::with_capacity(n.min(cur.remaining() / 8));
                for _ in 0..n {
                    values.push(cur.u64()?);
                }
                WalRecord::AddColumn { col, values }
            }
            KIND_INSTALL_VIEW => WalRecord::InstallView {
                col: cur.u32()?,
                min: cur.u64()?,
                max: cur.u64()?,
            },
            KIND_BATCH => {
                let col = cur.u32()?;
                let n = cur.u64()? as usize;
                let mut writes = Vec::with_capacity(n.min(cur.remaining() / 16));
                for _ in 0..n {
                    let row = cur.u64()?;
                    let value = cur.u64()?;
                    writes.push((row, value));
                }
                WalRecord::Batch { col, writes }
            }
            KIND_SEAL => WalRecord::Seal { epoch: cur.u64()? },
            _ => return None,
        };
        if cur.remaining() != 0 {
            return None; // trailing garbage inside a framed payload
        }
        Some(record)
    }

    /// The full framed encoding of this record (length prefix + payload +
    /// checksum).
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(payload.len() + 12);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.buf.len()
    }
}

/// Which journal operation a [`FaultPlan`] targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The Nth append writes nothing at all, then the journal is dead.
    FailAppend,
    /// The Nth append writes only a seeded-length clean prefix of the
    /// record (a short write: frame cut off, bytes intact).
    ShortAppend,
    /// The Nth append writes a seeded-length prefix whose last byte is
    /// bit-flipped (a torn write: bytes on disk are wrong).
    TornAppend,
    /// The Nth fsync fails and everything written since the last successful
    /// sync is lost (the power-loss model: the page cache never hit disk).
    FailFsync,
}

/// A deterministic, seeded crash plan for the journal.
///
/// Exactly one operation misbehaves; afterwards the journal is *crashed*
/// and every call returns an error, so the embedding table stops exactly
/// where a killed process would.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    kind: FaultKind,
    /// Zero-based index of the targeted operation (appends for the append
    /// kinds, fsyncs for `FailFsync`).
    at_op: usize,
    seed: u64,
}

impl FaultPlan {
    /// The Nth append (0-based) writes nothing.
    pub fn fail_append(at_op: usize) -> Self {
        Self {
            kind: FaultKind::FailAppend,
            at_op,
            seed: 0,
        }
    }

    /// The Nth append writes a seeded-length clean prefix.
    pub fn short_append(at_op: usize, seed: u64) -> Self {
        Self {
            kind: FaultKind::ShortAppend,
            at_op,
            seed,
        }
    }

    /// The Nth append writes a seeded-length prefix with a corrupted final
    /// byte.
    pub fn torn_append(at_op: usize, seed: u64) -> Self {
        Self {
            kind: FaultKind::TornAppend,
            at_op,
            seed,
        }
    }

    /// The Nth fsync fails, losing everything since the last sync.
    pub fn fail_fsync(at_op: usize) -> Self {
        Self {
            kind: FaultKind::FailFsync,
            at_op,
            seed: 0,
        }
    }

    /// Deterministic prefix length in `[min_len, full_len]` derived from
    /// the seed (splitmix64 step).
    fn prefix_len(&self, full_len: usize, min_len: usize) -> usize {
        let mut z = self.seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let span = full_len - min_len + 1;
        min_len + (z as usize) % span
    }
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected journal fault: {what}"))
}

/// An append-only journal handle with crash-consistent framing and
/// deterministic fault injection.
pub struct Journal {
    file: std::fs::File,
    path: PathBuf,
    fault: Option<FaultPlan>,
    appends: usize,
    fsyncs: usize,
    len: u64,
    synced_len: u64,
    crashed: bool,
}

impl Journal {
    /// Creates (truncating) a fresh journal at `path`, writes the magic and
    /// fsyncs the file and its directory, so the journal's directory entry
    /// survives a power loss just like the records later synced into it.
    pub fn create(path: impl Into<PathBuf>, fault: Option<FaultPlan>) -> io::Result<Journal> {
        let path = path.into();
        if let Some(parent) = non_empty_parent(&path) {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync_data()?;
        sync_parent_dir(&path);
        let len = WAL_MAGIC.len() as u64;
        Ok(Journal {
            file,
            path,
            fault,
            appends: 0,
            fsyncs: 0,
            len,
            synced_len: len,
            crashed: false,
        })
    }

    /// Opens an existing journal for appending. The file must carry the
    /// journal magic; the write position is the end of the file (callers
    /// recover/compact first, so the file ends at a sealed record).
    pub fn open_append(path: impl Into<PathBuf>, fault: Option<FaultPlan>) -> io::Result<Journal> {
        let path = path.into();
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)?;
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)
            .map_err(|_| io::Error::other("journal shorter than its magic"))?;
        if &magic != WAL_MAGIC {
            return Err(io::Error::other("not an asv journal (bad magic)"));
        }
        let len = file.seek(SeekFrom::End(0))?;
        Ok(Journal {
            file,
            path,
            fault,
            appends: 0,
            fsyncs: 0,
            len,
            synced_len: len,
            crashed: false,
        })
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current journal length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Whether an injected fault has killed this journal.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Number of successful record appends so far.
    pub fn appends(&self) -> usize {
        self.appends
    }

    /// Number of successful fsyncs so far.
    pub fn fsyncs(&self) -> usize {
        self.fsyncs
    }

    /// The not-yet-fired fault plan adjusted for a journal reopened after
    /// this one: the targeted op index is reduced by the operations this
    /// journal already counted, so `Journal::open_append(path,
    /// journal.carryover_fault())` fires at the same absolute operation
    /// the original plan targeted.
    pub fn carryover_fault(&self) -> Option<FaultPlan> {
        self.fault.map(|plan| {
            let done = match plan.kind {
                FaultKind::FailFsync => self.fsyncs,
                _ => self.appends,
            };
            FaultPlan {
                at_op: plan.at_op.saturating_sub(done),
                ..plan
            }
        })
    }

    /// Appends one record. With a [`FaultPlan`] targeting this append, the
    /// record is dropped / cut short / torn as planned, the journal goes
    /// into the crashed state and an error is returned — the caller must
    /// not acknowledge the corresponding writes.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        if self.crashed {
            return Err(injected("journal already crashed"));
        }
        let encoded = record.encode();
        if let Some(plan) = self.fault {
            let is_append_fault = matches!(
                plan.kind,
                FaultKind::FailAppend | FaultKind::ShortAppend | FaultKind::TornAppend
            );
            if is_append_fault && self.appends == plan.at_op {
                self.crashed = true;
                match plan.kind {
                    FaultKind::FailAppend => {}
                    FaultKind::ShortAppend => {
                        let keep = plan.prefix_len(encoded.len() - 1, 0);
                        self.file.write_all(&encoded[..keep])?;
                        self.len += keep as u64;
                    }
                    FaultKind::TornAppend => {
                        let keep = plan.prefix_len(encoded.len(), 1);
                        let mut torn = encoded[..keep].to_vec();
                        *torn.last_mut().expect("keep >= 1") ^= 0xFF;
                        self.file.write_all(&torn)?;
                        self.len += keep as u64;
                    }
                    FaultKind::FailFsync => unreachable!("not an append fault"),
                }
                return Err(injected("append"));
            }
        }
        self.file.write_all(&encoded)?;
        self.len += encoded.len() as u64;
        self.appends += 1;
        Ok(())
    }

    /// Fsyncs the journal. With a [`FaultPlan`] targeting this fsync, the
    /// file is rolled back to the last successfully synced length (the
    /// power-loss model) and the journal goes into the crashed state.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.crashed {
            return Err(injected("journal already crashed"));
        }
        if let Some(plan) = self.fault {
            if plan.kind == FaultKind::FailFsync && self.fsyncs == plan.at_op {
                self.crashed = true;
                self.file.set_len(self.synced_len)?;
                self.file.sync_data()?;
                self.len = self.synced_len;
                return Err(injected("fsync"));
            }
        }
        self.file.sync_data()?;
        self.synced_len = self.len;
        self.fsyncs += 1;
        Ok(())
    }
}

/// The result of replaying a journal file.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// All records up to and including the last valid seal, in order.
    pub sealed_records: Vec<WalRecord>,
    /// Epoch of the last seal (`None` if the journal never sealed).
    pub sealed_epoch: Option<u64>,
    /// Byte offset just past the last seal record.
    pub sealed_len: u64,
    /// Byte offset just past the last *valid* record (>= `sealed_len`).
    pub valid_len: u64,
    /// Total journal size in bytes, including any torn tail.
    pub total_len: u64,
    /// Number of valid-but-unsealed records after the last seal.
    pub unsealed_records: usize,
}

impl ReplayOutcome {
    /// Bytes past the last seal that recovery discards (unsealed records
    /// plus any torn tail).
    pub fn discarded_bytes(&self) -> u64 {
        self.total_len - self.sealed_len
    }
}

/// Replays the journal at `path`: validates framing and checksums, stops
/// at the first invalid record, and returns everything up to the last
/// seal. A missing-or-empty file replays as an empty journal.
pub fn replay(path: impl AsRef<Path>) -> io::Result<ReplayOutcome> {
    match std::fs::read(path.as_ref()) {
        Ok(bytes) => replay_bytes(&bytes),
        Err(e) if e.kind() == io::ErrorKind::NotFound => replay_bytes(&[]),
        Err(e) => Err(e),
    }
}

/// [`replay`] over the journal's bytes. Any input, however damaged,
/// yields a sealed prefix of the records it was written with, or an error
/// for a foreign magic.
fn replay_bytes(bytes: &[u8]) -> io::Result<ReplayOutcome> {
    let total_len = bytes.len() as u64;
    if bytes.len() < WAL_MAGIC.len() {
        // Crash before the magic hit the disk: an empty journal.
        return Ok(ReplayOutcome {
            sealed_records: Vec::new(),
            sealed_epoch: None,
            sealed_len: 0,
            valid_len: 0,
            total_len,
            unsealed_records: 0,
        });
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(io::Error::other("not an asv journal (bad magic)"));
    }
    let mut offset = WAL_MAGIC.len();
    let mut records = Vec::new();
    let mut sealed_upto = 0usize; // record count up to last seal
    let mut sealed_epoch = None;
    let mut sealed_len = WAL_MAGIC.len() as u64;
    let mut valid_len = WAL_MAGIC.len() as u64;
    while offset + 4 <= bytes.len() {
        let payload_len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        if payload_len == 0 || payload_len > MAX_PAYLOAD {
            break;
        }
        let payload_start = offset + 4;
        let checksum_start = payload_start + payload_len;
        let record_end = checksum_start + 8;
        if record_end > bytes.len() {
            break; // truncated record
        }
        let payload = &bytes[payload_start..checksum_start];
        let stored = u64::from_le_bytes(bytes[checksum_start..record_end].try_into().unwrap());
        if fnv1a64(payload) != stored {
            break; // torn record
        }
        let Some(record) = WalRecord::decode_payload(payload) else {
            break; // checksummed but undecodable: treat as end of journal
        };
        offset = record_end;
        valid_len = offset as u64;
        let is_seal = matches!(record, WalRecord::Seal { .. });
        if let WalRecord::Seal { epoch } = record {
            sealed_epoch = Some(epoch);
        }
        records.push(record);
        if is_seal {
            sealed_upto = records.len();
            sealed_len = offset as u64;
        }
    }
    let unsealed_records = records.len() - sealed_upto;
    records.truncate(sealed_upto);
    Ok(ReplayOutcome {
        sealed_records: records,
        sealed_epoch,
        sealed_len,
        valid_len,
        total_len,
        unsealed_records,
    })
}

/// Atomically rewrites the journal at `path` to hold exactly `records`
/// (compaction): writes a temp file, fsyncs it, renames it over `path`
/// and fsyncs the directory.
pub fn rewrite(path: impl AsRef<Path>, records: &[WalRecord]) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = path.with_extension("wal.tmp");
    {
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(WAL_MAGIC)?;
        for record in records {
            file.write_all(&record.encode())?;
        }
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// The directory holding `path`, unless `path` is a bare file name.
fn non_empty_parent(path: &Path) -> Option<&Path> {
    path.parent()
        .filter(|parent| !parent.as_os_str().is_empty())
}

/// Best-effort fsync of the directory holding `path`, which makes a
/// created or renamed directory entry durable (a no-op where directories
/// cannot be opened).
fn sync_parent_dir(path: &Path) {
    let dir = non_empty_parent(path).unwrap_or(Path::new("."));
    if let Ok(dir) = std::fs::File::open(dir) {
        let _ = dir.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("asv-wal-test-{}-{tag}-{n}.wal", std::process::id()))
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::AddColumn {
                col: 0,
                values: vec![10, 20, 30],
            },
            WalRecord::InstallView {
                col: 0,
                min: 5,
                max: 25,
            },
            WalRecord::Batch {
                col: 0,
                writes: vec![(1, 99), (2, 98)],
            },
            WalRecord::Seal { epoch: 1 },
        ]
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Reference values of the standard FNV-1a 64 parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn records_roundtrip_through_encode_decode() {
        for record in sample_records() {
            let encoded = record.encode();
            let payload_len = u32::from_le_bytes(encoded[..4].try_into().unwrap()) as usize;
            let payload = &encoded[4..4 + payload_len];
            assert_eq!(WalRecord::decode_payload(payload), Some(record));
        }
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = temp_path("roundtrip");
        let mut journal = Journal::create(&path, None).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        journal.sync().unwrap();
        assert_eq!(journal.appends(), 4);
        assert_eq!(journal.fsyncs(), 1);
        drop(journal);
        let outcome = replay(&path).unwrap();
        assert_eq!(outcome.sealed_records, sample_records());
        assert_eq!(outcome.sealed_epoch, Some(1));
        assert_eq!(outcome.unsealed_records, 0);
        assert_eq!(outcome.discarded_bytes(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unsealed_tail_is_replayed_but_not_included() {
        let path = temp_path("unsealed");
        let mut journal = Journal::create(&path, None).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        // Two acknowledged-but-unsealed batches after the seal.
        journal
            .append(&WalRecord::Batch {
                col: 0,
                writes: vec![(0, 7)],
            })
            .unwrap();
        journal
            .append(&WalRecord::Batch {
                col: 0,
                writes: vec![(1, 8)],
            })
            .unwrap();
        drop(journal);
        let outcome = replay(&path).unwrap();
        assert_eq!(outcome.sealed_records.len(), 4);
        assert_eq!(outcome.unsealed_records, 2);
        assert!(outcome.valid_len > outcome.sealed_len);
        assert!(outcome.discarded_bytes() > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_or_short_journal_replays_empty() {
        let outcome = replay(temp_path("missing")).unwrap();
        assert!(outcome.sealed_records.is_empty());
        assert_eq!(outcome.sealed_epoch, None);

        let path = temp_path("short");
        std::fs::write(&path, b"ASV").unwrap();
        let outcome = replay(&path).unwrap();
        assert!(outcome.sealed_records.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_file_is_rejected() {
        let path = temp_path("foreign");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        assert!(replay(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fail_append_leaves_prior_records_intact() {
        let path = temp_path("fail-append");
        let mut journal = Journal::create(&path, Some(FaultPlan::fail_append(2))).unwrap();
        let records = sample_records();
        journal.append(&records[0]).unwrap();
        journal.append(&records[1]).unwrap();
        let err = journal.append(&records[2]).unwrap_err();
        assert!(err.to_string().contains("injected"));
        assert!(journal.crashed());
        // Every further operation fails.
        assert!(journal.append(&records[3]).is_err());
        assert!(journal.sync().is_err());
        drop(journal);
        let outcome = replay(&path).unwrap();
        // No seal yet: nothing is recovered, but the two records are valid.
        assert_eq!(outcome.sealed_records.len(), 0);
        assert_eq!(outcome.unsealed_records, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn short_and_torn_appends_are_invisible_after_replay() {
        for tag in ["short", "torn"] {
            for seed in 0..16u64 {
                let plan = match tag {
                    "short" => FaultPlan::short_append(4, seed),
                    _ => FaultPlan::torn_append(4, seed),
                };
                let path = temp_path(tag);
                let mut journal = Journal::create(&path, Some(plan)).unwrap();
                for record in sample_records() {
                    journal.append(&record).unwrap();
                }
                let tail = WalRecord::Batch {
                    col: 0,
                    writes: vec![(3, 77), (4, 78)],
                };
                assert!(journal.append(&tail).is_err());
                drop(journal);
                let outcome = replay(&path).unwrap();
                assert_eq!(
                    outcome.sealed_records,
                    sample_records(),
                    "{tag} seed {seed}: torn tail must not change the sealed prefix"
                );
                assert_eq!(outcome.sealed_epoch, Some(1));
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    #[test]
    fn fail_fsync_rolls_back_to_last_synced_length() {
        let path = temp_path("fail-fsync");
        let mut journal = Journal::create(&path, Some(FaultPlan::fail_fsync(1))).unwrap();
        let records = sample_records();
        // First two records are synced; the rest are lost with the fsync.
        journal.append(&records[0]).unwrap();
        journal.append(&records[1]).unwrap();
        journal.sync().unwrap();
        journal.append(&records[2]).unwrap();
        journal.append(&records[3]).unwrap();
        assert!(journal.sync().is_err());
        assert!(journal.crashed());
        drop(journal);
        let outcome = replay(&path).unwrap();
        // The unsynced batch + seal vanished: nothing is sealed, the two
        // synced records survive as an unsealed prefix.
        assert_eq!(outcome.sealed_records.len(), 0);
        assert_eq!(outcome.unsealed_records, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewrite_compacts_and_open_append_continues() {
        let path = temp_path("rewrite");
        let mut journal = Journal::create(&path, None).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);
        // Compact to a checkpoint: one AddColumn + one Seal.
        let checkpoint = vec![
            WalRecord::AddColumn {
                col: 0,
                values: vec![10, 99, 98],
            },
            WalRecord::Seal { epoch: 1 },
        ];
        rewrite(&path, &checkpoint).unwrap();
        let outcome = replay(&path).unwrap();
        assert_eq!(outcome.sealed_records, checkpoint);
        // Appends continue after the checkpoint.
        let mut journal = Journal::open_append(&path, None).unwrap();
        journal
            .append(&WalRecord::Batch {
                col: 0,
                writes: vec![(0, 1)],
            })
            .unwrap();
        journal.append(&WalRecord::Seal { epoch: 2 }).unwrap();
        journal.sync().unwrap();
        drop(journal);
        let outcome = replay(&path).unwrap();
        assert_eq!(outcome.sealed_records.len(), 4);
        assert_eq!(outcome.sealed_epoch, Some(2));
        std::fs::remove_file(&path).unwrap();
    }

    /// A valid journal of several sealed epochs: `sample_records`, then
    /// three more batch + seal pairs. Returns its bytes, its records and
    /// the byte offset each record starts at.
    fn multi_seal_journal() -> (Vec<u8>, Vec<WalRecord>, Vec<usize>) {
        let mut records = sample_records();
        for epoch in 2..5u64 {
            records.push(WalRecord::Batch {
                col: 0,
                writes: vec![(epoch, 100 + epoch), (0, epoch)],
            });
            records.push(WalRecord::Seal { epoch });
        }
        let mut bytes = WAL_MAGIC.to_vec();
        let mut starts = Vec::new();
        for record in &records {
            starts.push(bytes.len());
            bytes.extend_from_slice(&record.encode());
        }
        (bytes, records, starts)
    }

    /// The hostile-input contract of replay: no panic, and either a sealed
    /// prefix of `records` or — only when the magic is damaged — an error.
    /// Returns the number of sealed records recovered.
    fn replay_hostile(bytes: &[u8], records: &[WalRecord], what: &str) -> usize {
        match replay_bytes(bytes) {
            Ok(outcome) => {
                let n = outcome.sealed_records.len();
                assert!(
                    n <= records.len() && outcome.sealed_records[..] == records[..n],
                    "{what}: not a prefix of the written records"
                );
                assert!(
                    n == 0 || matches!(records[n - 1], WalRecord::Seal { .. }),
                    "{what}: the prefix ends in a seal"
                );
                n
            }
            Err(_) => {
                assert!(
                    bytes.len() >= WAL_MAGIC.len() && &bytes[..WAL_MAGIC.len()] != WAL_MAGIC,
                    "{what}: only a damaged magic is an error"
                );
                0
            }
        }
    }

    #[test]
    fn hostile_journal_bytes_replay_a_sealed_prefix() {
        let (bytes, records, starts) = multi_seal_journal();
        assert_eq!(replay_hostile(&bytes, &records, "intact"), records.len());
        // Sealed records wholly before byte `cut`.
        let sealed_before = |cut: usize| {
            (0..records.len())
                .rfind(|&i| {
                    matches!(records[i], WalRecord::Seal { .. })
                        && starts.get(i + 1).copied().unwrap_or(bytes.len()) <= cut
                })
                .map_or(0, |i| i + 1)
        };
        // Truncation at every offset keeps exactly the seals before it.
        for cut in 0..bytes.len() {
            let n = replay_hostile(&bytes[..cut], &records, &format!("cut {cut}"));
            assert_eq!(n, sealed_before(cut), "cut {cut}");
        }
        // Every single bit flip: inside the magic an error, elsewhere the
        // replay stops at the damaged record.
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let n = replay_hostile(&flipped, &records, &format!("flip {bit}"));
            if bit / 8 >= WAL_MAGIC.len() {
                assert!(replay_bytes(&flipped).is_ok(), "flip {bit}");
                assert_eq!(n, sealed_before(bit / 8), "flip {bit}");
            }
        }
        // Length prefixes of zero, past EOF, above MAX_PAYLOAD and at the
        // u32 limit end the journal at that record.
        for (i, &start) in starts.iter().enumerate() {
            let past_eof = (bytes.len() - start) as u32;
            for len in [0, past_eof, MAX_PAYLOAD as u32 + 1, u32::MAX] {
                let mut hostile = bytes.clone();
                hostile[start..start + 4].copy_from_slice(&len.to_le_bytes());
                let n = replay_hostile(&hostile, &records, &format!("record {i} len {len}"));
                assert_eq!(n, sealed_before(start), "record {i} len {len}");
            }
        }
    }

    #[test]
    fn hostile_counts_allocate_no_more_than_the_payload() {
        for kind in [KIND_ADD_COLUMN, KIND_BATCH] {
            let mut payload = vec![kind];
            payload.extend_from_slice(&0u32.to_le_bytes());
            payload.extend_from_slice(&u64::MAX.to_le_bytes());
            payload.extend_from_slice(&7u64.to_le_bytes());
            assert_eq!(WalRecord::decode_payload(&payload), None);
        }
    }

    #[test]
    fn every_short_append_cut_is_recoverable() {
        // Walk the cut point across the whole encoded record length by
        // sweeping seeds — replay must never fail, never see the torn
        // record, and always keep the sealed prefix.
        for seed in 0..64u64 {
            let path = temp_path("cutsweep");
            let mut journal =
                Journal::create(&path, Some(FaultPlan::short_append(1, seed))).unwrap();
            journal.append(&WalRecord::Seal { epoch: 7 }).unwrap();
            assert!(journal
                .append(&WalRecord::Batch {
                    col: 3,
                    writes: vec![(8, 9)],
                })
                .is_err());
            drop(journal);
            let outcome = replay(&path).unwrap();
            assert_eq!(outcome.sealed_records, vec![WalRecord::Seal { epoch: 7 }]);
            assert_eq!(outcome.sealed_epoch, Some(7));
            std::fs::remove_file(&path).unwrap();
        }
    }
}
