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
//! | magic  "ASVWAL02"    |  8 bytes
//! +----------------------+
//! | record 0             |
//! | record 1             |
//! | ...                  |
//! +----------------------+
//!
//! record := [payload_len: u32 LE] [payload] [crc32c(payload): u32 LE]
//! payload := kind-tagged body (see `WalRecord`); integers little-endian
//! ```
//!
//! A record is *valid* iff its length prefix fits in the file and the
//! checksum matches; replay stops at the first invalid record. A prefix of
//! the journal is *sealed* iff it ends in a `Seal` record — the recovery
//! invariant is: **exactly the records up to the last valid seal are
//! replayed; everything after it (acknowledged or torn) is discarded.**
//!
//! ## One pass per byte
//!
//! The checksum is CRC-32C, computed with the CPU's `crc32` instruction
//! where there is one (`crc32c`). A record is framed straight into one
//! encode buffer that the journal reuses across appends, and its payload is
//! checksummed as it is encoded; the buffer moves on to the file every
//! [`STREAM_BUF`] bytes of the frame. A column load therefore streams from
//! the caller's slice, and a compacting checkpoint (`rewrite`) streams
//! each column's pages, through that bounded buffer — no record, and no
//! copy of the column, is built. Replay reads the file once, verifies each
//! checksum and decodes each value or write array in one bounded take.
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

mod crc32c;

/// File magic identifying an asv journal, version 2 (CRC-32C trailers).
pub const WAL_MAGIC: &[u8; 8] = b"ASVWAL02";

/// A record reaches the journal file in writes of this many bytes of its
/// frame, the last one shorter: the size of the journal's encode buffer.
pub const STREAM_BUF: usize = 64 * 1024;

/// Upper bound on a single record payload: larger records are refused on
/// append and end the journal on replay.
const MAX_PAYLOAD: usize = 1 << 30;

/// Frame bytes around a payload: the length prefix and the checksum.
const FRAME_OVERHEAD: usize = 4 + 4;

/// Payload bytes before the array of an `AddColumn` or a `Batch`: kind,
/// column, item count.
const ARRAY_HEADER: usize = 1 + 4 + 8;

const KIND_ADD_COLUMN: u8 = 1;
const KIND_INSTALL_VIEW: u8 = 2;
const KIND_BATCH: u8 = 3;
const KIND_SEAL: u8 = 4;

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
    /// Length of the encoded payload in bytes; the framed record adds
    /// `FRAME_OVERHEAD` (8) bytes.
    pub fn payload_len(&self) -> usize {
        match self {
            WalRecord::AddColumn { values, .. } => array_payload_len(values.len(), 8),
            WalRecord::InstallView { .. } => 1 + 4 + 8 + 8,
            WalRecord::Batch { writes, .. } => array_payload_len(writes.len(), 16),
            WalRecord::Seal { .. } => 1 + 8,
        }
    }

    fn write_payload(&self, frame: &mut Frame<'_>) -> io::Result<()> {
        match self {
            WalRecord::AddColumn { col, values } => {
                frame.put(&array_header(KIND_ADD_COLUMN, *col, values.len()))?;
                frame.put_array(values, |value| value.to_le_bytes())
            }
            WalRecord::InstallView { col, min, max } => {
                frame.put(&[KIND_INSTALL_VIEW])?;
                frame.put(&col.to_le_bytes())?;
                frame.put(&min.to_le_bytes())?;
                frame.put(&max.to_le_bytes())
            }
            WalRecord::Batch { col, writes } => put_batch(frame, *col, writes, |&write| write),
            WalRecord::Seal { epoch } => {
                frame.put(&[KIND_SEAL])?;
                frame.put(&epoch.to_le_bytes())
            }
        }
    }

    fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let mut cur = Cursor { buf: payload };
        let record = match cur.u8()? {
            KIND_ADD_COLUMN => {
                let col = cur.u32()?;
                let count = cur.u64()?;
                let values = cur.array(count, |word: &[u8; 8]| Some(u64::from_le_bytes(*word)))?;
                WalRecord::AddColumn { col, values }
            }
            KIND_INSTALL_VIEW => WalRecord::InstallView {
                col: cur.u32()?,
                min: cur.u64()?,
                max: cur.u64()?,
            },
            KIND_BATCH => {
                let col = cur.u32()?;
                let count = cur.u64()?;
                let writes = cur.array(count, |pair: &[u8; 16]| {
                    let row = u64::from_le_bytes(*pair.first_chunk()?);
                    let value = u64::from_le_bytes(*pair.last_chunk()?);
                    Some((row, value))
                })?;
                WalRecord::Batch { col, writes }
            }
            KIND_SEAL => WalRecord::Seal { epoch: cur.u64()? },
            _ => return None,
        };
        if !cur.buf.is_empty() {
            return None; // trailing garbage inside a framed payload
        }
        Some(record)
    }

    /// The full framed encoding of this record (length prefix + payload +
    /// checksum), written into one buffer of exactly that size.
    pub fn encode(&self) -> Vec<u8> {
        let payload_len = self.payload_len();
        let mut out = Vec::with_capacity(payload_len.saturating_add(FRAME_OVERHEAD));
        let mut frame = Frame::new(&mut out, None, payload_len, usize::MAX, false);
        self.write_payload(&mut frame)
            .and_then(|()| frame.finish())
            .expect("a frame without a file performs no I/O");
        out
    }
}

/// Payload length of an array record of `count` items of `item` bytes.
fn array_payload_len(count: usize, item: usize) -> usize {
    count.saturating_mul(item).saturating_add(ARRAY_HEADER)
}

/// Puts the payload of the [`WalRecord::Batch`] of column `col` holding
/// `writes`, each the `(row, value)` pair `pair` reads from it.
fn put_batch<T>(
    frame: &mut Frame<'_>,
    col: u32,
    writes: &[T],
    pair: impl Fn(&T) -> (u64, u64),
) -> io::Result<()> {
    frame.put(&array_header(KIND_BATCH, col, writes.len()))?;
    frame.put_array(writes, |write| {
        let (row, value) = pair(write);
        let mut bytes = [0; 16];
        bytes[..8].copy_from_slice(&row.to_le_bytes());
        bytes[8..].copy_from_slice(&value.to_le_bytes());
        bytes
    })
}

fn array_header(kind: u8, col: u32, count: usize) -> [u8; ARRAY_HEADER] {
    let mut header = [0; ARRAY_HEADER];
    header[0] = kind;
    header[1..5].copy_from_slice(&col.to_le_bytes());
    header[5..].copy_from_slice(&(count as u64).to_le_bytes());
    header
}

/// One record being framed — `[payload_len] [payload] [crc32c]` — into a
/// buffer, its payload checksummed as it is put. A frame bound to a file
/// writes the buffer out whenever it holds [`STREAM_BUF`] bytes, so the
/// file sees the frame in `STREAM_BUF`-byte writes; a frame without one
/// leaves the whole record in the buffer.
struct Frame<'a> {
    buf: &'a mut Vec<u8>,
    file: Option<&'a mut std::fs::File>,
    /// Buffer length at which bytes move on to the file.
    flush_at: usize,
    /// Frame bytes that may still reach the file: all of them, or the
    /// seeded prefix of a short or torn append.
    keep: usize,
    /// Flip the last byte kept (a torn append).
    tear: bool,
    crc: u32,
}

impl<'a> Frame<'a> {
    /// Starts a frame of `payload_len` payload bytes in `buf` (cleared).
    /// With a `file`, only the first `keep` frame bytes are written to it.
    fn new(
        buf: &'a mut Vec<u8>,
        file: Option<&'a mut std::fs::File>,
        payload_len: usize,
        keep: usize,
        tear: bool,
    ) -> Self {
        buf.clear();
        // A length past `MAX_PAYLOAD` stays past it: replay rejects it.
        let prefix = u32::try_from(payload_len).unwrap_or(u32::MAX);
        buf.extend_from_slice(&prefix.to_le_bytes());
        let flush_at = if file.is_some() {
            STREAM_BUF
        } else {
            usize::MAX
        };
        Frame {
            buf,
            file,
            flush_at,
            keep,
            tear,
            crc: 0,
        }
    }

    /// Appends payload bytes.
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.crc = crc32c::update(self.crc, bytes);
        self.buf.extend_from_slice(bytes);
        self.flush_full()
    }

    /// Appends `items` as payload, `N` bytes each as `bytes_of` spells
    /// them: encoded straight into the buffer a buffer-full at a time, and
    /// checksummed in the same pieces.
    fn put_array<T, const N: usize>(
        &mut self,
        items: &[T],
        bytes_of: impl Fn(&T) -> [u8; N],
    ) -> io::Result<()> {
        let mut rest = items;
        while !rest.is_empty() {
            // At least one item, so an item may straddle the buffer end.
            let room = self.flush_at - self.buf.len();
            let (now, later) = rest.split_at((room / N).clamp(1, rest.len()));
            let start = self.buf.len();
            self.buf.resize(start + now.len() * N, 0);
            for (out, item) in self.buf[start..].chunks_exact_mut(N).zip(now) {
                out.copy_from_slice(&bytes_of(item));
            }
            self.crc = crc32c::update(self.crc, &self.buf[start..]);
            self.flush_full()?;
            rest = later;
        }
        Ok(())
    }

    /// Writes every full `STREAM_BUF` bytes of the buffer out.
    fn flush_full(&mut self) -> io::Result<()> {
        while self.buf.len() >= self.flush_at {
            self.write_out(self.flush_at)?;
        }
        Ok(())
    }

    /// Writes the first `n` buffered bytes to the file — as far as `keep`
    /// allows, the last one kept flipped on a tear — and drops them from
    /// the buffer.
    fn write_out(&mut self, n: usize) -> io::Result<()> {
        let Some(file) = self.file.as_deref_mut() else {
            return Ok(());
        };
        let kept = n.min(self.keep);
        if self.tear && kept == self.keep {
            if let Some(last) = self.buf[..kept].last_mut() {
                *last ^= 0xFF;
            }
        }
        file.write_all(&self.buf[..kept])?;
        self.keep -= kept;
        self.buf.drain(..n);
        Ok(())
    }

    /// Appends the checksum and writes whatever is still buffered.
    fn finish(mut self) -> io::Result<()> {
        let crc = self.crc.to_le_bytes();
        self.buf.extend_from_slice(&crc);
        self.flush_full()?;
        self.write_out(self.buf.len())
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(head)
    }

    fn chunk<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.buf.split_first_chunk::<N>()?;
        self.buf = rest;
        Some(*head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.chunk().map(|[byte]| byte)
    }

    fn u32(&mut self) -> Option<u32> {
        self.chunk().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.chunk().map(u64::from_le_bytes)
    }

    /// `count` items of `N` bytes, decoded by `item`. A count the payload
    /// cannot hold is rejected before anything is allocated, so a hostile
    /// count allocates no more than the payload holds.
    fn array<const N: usize, T>(
        &mut self,
        count: u64,
        item: impl Fn(&[u8; N]) -> Option<T>,
    ) -> Option<Vec<T>> {
        let len = usize::try_from(count).ok()?.checked_mul(N)?;
        let mut bytes = self.take(len)?;
        let mut items = Vec::with_capacity(len / N);
        while let Some((head, rest)) = bytes.split_first_chunk::<N>() {
            items.push(item(head)?);
            bytes = rest;
        }
        Some(items)
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
    /// The encode buffer every append reuses: at most [`STREAM_BUF`]
    /// bytes of the record being framed, plus one straddling array item.
    buf: Vec<u8>,
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
        let file = create_with_magic(&path)?;
        file.sync_data()?;
        sync_parent_dir(&path);
        Ok(Journal::with_file(
            file,
            path,
            fault,
            WAL_MAGIC.len() as u64,
        ))
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
        Ok(Journal::with_file(file, path, fault, len))
    }

    /// A journal over `file`, positioned at its end, `len` bytes long and
    /// synced up to there.
    fn with_file(file: std::fs::File, path: PathBuf, fault: Option<FaultPlan>, len: u64) -> Self {
        Journal {
            file,
            path,
            fault,
            appends: 0,
            fsyncs: 0,
            len,
            synced_len: len,
            crashed: false,
            buf: Vec::new(),
        }
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
        self.append_frame(record.payload_len(), |frame| record.write_payload(frame))
    }

    /// Appends the [`WalRecord::AddColumn`] of column `col` whose values
    /// are `parts` concatenated — a caller's slice, or a column's pages —
    /// streamed through the encode buffer without building the record.
    /// The journal bytes, and the faults a [`FaultPlan`] injects, are those
    /// of appending the record itself.
    pub(crate) fn append_column(&mut self, col: u32, parts: &[&[u64]]) -> io::Result<()> {
        let rows = parts
            .iter()
            .fold(0usize, |rows, part| rows.saturating_add(part.len()));
        self.append_frame(array_payload_len(rows, 8), |frame| {
            frame.put(&array_header(KIND_ADD_COLUMN, col, rows))?;
            parts
                .iter()
                .try_for_each(|part| frame.put_array(part, |value| value.to_le_bytes()))
        })
    }

    /// Appends the [`WalRecord::Batch`] of column `col` holding `writes`,
    /// encoded straight from the caller's slice without building the
    /// record. The journal bytes, and the faults a [`FaultPlan`] injects,
    /// are those of appending the record itself.
    pub(crate) fn append_batch(&mut self, col: u32, writes: &[(usize, u64)]) -> io::Result<()> {
        self.append_frame(array_payload_len(writes.len(), 16), |frame| {
            put_batch(frame, col, writes, |&(row, value)| (row as u64, value))
        })
    }

    /// Appends one frame of `payload_len` payload bytes, which
    /// `write_payload` puts, applying a fault planned for this append.
    fn append_frame(
        &mut self,
        payload_len: usize,
        write_payload: impl FnOnce(&mut Frame<'_>) -> io::Result<()>,
    ) -> io::Result<()> {
        if self.crashed {
            return Err(injected("journal already crashed"));
        }
        if payload_len > MAX_PAYLOAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("a {payload_len}-byte journal record exceeds the {MAX_PAYLOAD}-byte limit"),
            ));
        }
        let frame_len = payload_len + FRAME_OVERHEAD;
        let (mut keep, mut tear) = (frame_len, false);
        if let Some(plan) = self.fault.filter(|plan| plan.at_op == self.appends) {
            match plan.kind {
                FaultKind::FailAppend => keep = 0,
                FaultKind::ShortAppend => keep = plan.prefix_len(frame_len - 1, 0),
                FaultKind::TornAppend => (keep, tear) = (plan.prefix_len(frame_len, 1), true),
                FaultKind::FailFsync => {}
            }
        }
        // Until the frame is whole on disk the journal counts as crashed:
        // an append that fails part-way leaves a tail no later record
        // could be replayed past.
        self.crashed = true;
        if keep > 0 {
            let mut frame =
                Frame::new(&mut self.buf, Some(&mut self.file), payload_len, keep, tear);
            write_payload(&mut frame)?;
            frame.finish()?;
            self.len += keep as u64;
        }
        if keep < frame_len || tear {
            return Err(injected("append"));
        }
        self.crashed = false;
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
    let Some(mut rest) = bytes.strip_prefix(WAL_MAGIC.as_slice()) else {
        return Err(io::Error::other("not an asv journal (bad magic)"));
    };
    let mut records = Vec::new();
    let mut sealed_upto = 0usize; // record count up to last seal
    let mut sealed_epoch = None;
    let mut sealed_len = WAL_MAGIC.len() as u64;
    let mut valid_len = WAL_MAGIC.len() as u64;
    while let Some((len, body)) = rest.split_first_chunk::<4>() {
        let payload_len = u32::from_le_bytes(*len) as usize;
        if payload_len == 0 || payload_len > MAX_PAYLOAD || payload_len > body.len() {
            break; // hostile length or truncated record
        }
        let (payload, body) = body.split_at(payload_len);
        let Some((stored, tail)) = body.split_first_chunk::<4>() else {
            break; // truncated checksum
        };
        if crc32c::update(0, payload) != u32::from_le_bytes(*stored) {
            break; // torn record
        }
        let Some(record) = WalRecord::decode_payload(payload) else {
            break; // checksummed but undecodable: treat as end of journal
        };
        rest = tail;
        valid_len += (payload_len + FRAME_OVERHEAD) as u64;
        let is_seal = matches!(record, WalRecord::Seal { .. });
        if let WalRecord::Seal { epoch } = record {
            sealed_epoch = Some(epoch);
        }
        records.push(record);
        if is_seal {
            sealed_upto = records.len();
            sealed_len = valid_len;
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

/// Atomically replaces the journal at `path` with the records `write`
/// appends to a fresh, fault-free journal (compaction): they go to a temp
/// file beside it, which is fsynced, renamed over `path`, and the
/// directory fsynced.
pub(crate) fn rewrite(
    path: &Path,
    write: impl FnOnce(&mut Journal) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = path.with_extension("wal.tmp");
    let file = create_with_magic(&tmp)?;
    let mut journal = Journal::with_file(file, tmp.clone(), None, WAL_MAGIC.len() as u64);
    write(&mut journal)?;
    journal.sync()?;
    drop(journal);
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Creates (truncating) the file at `path` and writes the journal magic.
fn create_with_magic(path: &Path) -> io::Result<std::fs::File> {
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    file.write_all(WAL_MAGIC)?;
    Ok(file)
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
        rewrite(&path, |journal| {
            checkpoint
                .iter()
                .try_for_each(|record| journal.append(record))
        })
        .unwrap();
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

    /// `rows` distinct values for the streamed-record tests.
    fn streamed_values(rows: usize) -> Vec<u64> {
        (0..rows as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    }

    #[test]
    fn streamed_records_are_byte_identical_to_encode() {
        let stream_rows = STREAM_BUF / 8;
        for rows in [0, 1, stream_rows - 3, stream_rows, 2 * stream_rows + 7] {
            let values = streamed_values(rows);
            let record = WalRecord::AddColumn {
                col: 3,
                values: values.clone(),
            };
            let encoded = record.encode();
            assert_eq!(encoded.len(), record.payload_len() + FRAME_OVERHEAD);
            // The whole slice, page-sized parts (as a checkpoint streams a
            // column) and uneven parts with empty ones among them.
            let pages: Vec<&[u64]> = values.chunks(511).collect();
            let third = rows / 3;
            let uneven = [&values[..third], &[][..], &values[third..]];
            for parts in [&[&values[..]][..], &pages, &uneven] {
                let path = temp_path("stream-column");
                let mut journal = Journal::create(&path, None).unwrap();
                journal.append_column(3, parts).unwrap();
                drop(journal);
                let bytes = std::fs::read(&path).unwrap();
                assert_eq!(&bytes[..WAL_MAGIC.len()], WAL_MAGIC);
                assert!(bytes[WAL_MAGIC.len()..] == encoded[..], "{rows} rows");
                std::fs::remove_file(&path).unwrap();
            }
        }
        // A batch of several writes' worth streams through `append`, and
        // through `append_batch` from a caller's `(usize, u64)` slice.
        let writes: Vec<(u64, u64)> = streamed_values(STREAM_BUF / 8 + 5)
            .chunks_exact(2)
            .map(|pair| (pair[0], pair[1]))
            .collect();
        let slice: Vec<(usize, u64)> = writes.iter().map(|&(r, v)| (r as usize, v)).collect();
        let record = WalRecord::Batch { col: 1, writes };
        for from_slice in [false, true] {
            let path = temp_path("stream-batch");
            let mut journal = Journal::create(&path, None).unwrap();
            match from_slice {
                false => journal.append(&record).unwrap(),
                true => journal.append_batch(1, &slice).unwrap(),
            }
            drop(journal);
            let bytes = std::fs::read(&path).unwrap();
            assert!(
                bytes[WAL_MAGIC.len()..] == record.encode()[..],
                "{from_slice}"
            );
            assert_eq!(
                replay_bytes(&bytes).unwrap().unsealed_records,
                1,
                "the streamed batch replays"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn streamed_cuts_write_the_encoded_prefix() {
        // A short or torn append of a streamed record writes exactly the
        // seeded prefix of its encoding, the last byte flipped on a tear,
        // wherever the cut falls relative to the `STREAM_BUF` writes.
        let values = streamed_values(2 * STREAM_BUF / 8 + 100);
        let encoded = WalRecord::AddColumn {
            col: 0,
            values: values.clone(),
        }
        .encode();
        let frame_len = encoded.len();
        for torn in [false, true] {
            let plan = |seed| match torn {
                false => FaultPlan::short_append(0, seed),
                true => FaultPlan::torn_append(0, seed),
            };
            let cut_of = |seed| match torn {
                false => plan(seed).prefix_len(frame_len - 1, 0),
                true => plan(seed).prefix_len(frame_len, 1),
            };
            let mut seeds: Vec<u64> = (0..8).collect();
            for at in [
                1,
                STREAM_BUF - 1,
                STREAM_BUF,
                STREAM_BUF + 1,
                2 * STREAM_BUF,
            ] {
                seeds.push((0..).find(|&seed| cut_of(seed) == at).unwrap());
            }
            for seed in seeds {
                let keep = cut_of(seed);
                let path = temp_path("stream-cut");
                let mut journal = Journal::create(&path, Some(plan(seed))).unwrap();
                assert!(journal.append_column(0, &[&values]).is_err());
                assert!(journal.crashed());
                drop(journal);
                let bytes = std::fs::read(&path).unwrap();
                let mut expected = WAL_MAGIC.to_vec();
                expected.extend_from_slice(&encoded[..keep]);
                if torn {
                    *expected.last_mut().unwrap() ^= 0xFF;
                }
                assert!(bytes == expected, "torn {torn} seed {seed} cut {keep}");
                assert!(replay_bytes(&bytes).unwrap().sealed_records.is_empty());
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    #[test]
    fn oversized_records_are_refused_before_anything_is_written() {
        let path = temp_path("oversized");
        let mut journal = Journal::create(&path, None).unwrap();
        // One 1 MiB part repeated past the payload limit.
        let part = vec![0u64; 1 << 17];
        let parts = vec![&part[..]; MAX_PAYLOAD / (1 << 20) + 1];
        let err = journal.append_column(0, &parts).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!journal.crashed());
        assert_eq!(journal.len_bytes(), WAL_MAGIC.len() as u64);
        journal.append(&WalRecord::Seal { epoch: 1 }).unwrap();
        drop(journal);
        assert_eq!(replay(&path).unwrap().sealed_epoch, Some(1));
        std::fs::remove_file(&path).unwrap();
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
