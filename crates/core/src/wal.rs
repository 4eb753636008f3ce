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
//! ## One pass per byte on append, two bounded passes on replay
//!
//! The checksum is CRC-32C, computed with the CPU's `crc32` instruction
//! where there is one (`crc32c`). A record is framed straight into one
//! encode buffer that the journal reuses across appends, and its payload is
//! checksummed as it is encoded; the buffer moves on to the file every
//! [`STREAM_BUF`] bytes of the frame. A column load therefore streams from
//! the caller's slice, and a compacting checkpoint (`rewrite`) streams
//! each column's pages, through that bounded buffer — no record, and no
//! copy of the column, is built.
//!
//! Replay reads the journal twice through one [`STREAM_BUF`]-byte buffer
//! (`JournalReader`). The first pass validates every frame — its length
//! against the file's length, its checksum, and its head: an array's item
//! count must fill its frame exactly — and finds the sealed prefix. The
//! second pass reads that prefix again and hands each record over a head
//! at a time; a column's values and a batch's writes are pulled from the
//! buffer straight into the caller's memory (a column's store, in
//! `ServeTable::recover`). So a count only sizes anything after the first
//! pass has checked it, and nothing that grows with the journal is
//! allocated by the reader. [`replay`] is a collector over the same two
//! passes: it builds the sealed records in memory.
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

/// The fixed fields that open a record's payload: everything but the
/// array of an `AddColumn` or a `Batch`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Head {
    /// A column load of `rows` values, which follow.
    AddColumn { col: u32, rows: usize },
    /// A view install (the record is all head).
    InstallView { col: u32, min: u64, max: u64 },
    /// A batch of `writes` `(row, value)` pairs, which follow.
    Batch { col: u32, writes: usize },
    /// An epoch seal (the record is all head).
    Seal { epoch: u64 },
}

/// The longest head: an `InstallView` payload.
const MAX_HEAD: usize = 1 + 4 + 8 + 8;

impl Head {
    /// Payload bytes of the head of a record of `kind` (0: no such kind).
    fn len_of(kind: u8) -> usize {
        match kind {
            KIND_ADD_COLUMN | KIND_BATCH => ARRAY_HEADER,
            KIND_INSTALL_VIEW => MAX_HEAD,
            KIND_SEAL => 1 + 8,
            _ => 0,
        }
    }

    /// Decodes the head at the front of `bytes` of a payload of
    /// `payload_len` bytes. `None` unless the payload is exactly the head
    /// and the items its count announces — so a count is checked against
    /// its frame before anything is sized by it.
    fn decode(bytes: &[u8; MAX_HEAD], payload_len: u64) -> Option<Head> {
        let u32_at = |at: usize| u32::from_le_bytes(array_at(bytes, at));
        let u64_at = |at: usize| u64::from_le_bytes(array_at(bytes, at));
        let kind = bytes[0];
        let items = |item: u64| {
            let count = u64_at(5);
            let fits = count.checked_mul(item)?.checked_add(ARRAY_HEADER as u64)? == payload_len;
            fits.then(|| usize::try_from(count).ok()).flatten()
        };
        let head = match kind {
            KIND_ADD_COLUMN => Head::AddColumn {
                col: u32_at(1),
                rows: items(8)?,
            },
            KIND_BATCH => Head::Batch {
                col: u32_at(1),
                writes: items(16)?,
            },
            KIND_INSTALL_VIEW => Head::InstallView {
                col: u32_at(1),
                min: u64_at(5),
                max: u64_at(13),
            },
            KIND_SEAL => Head::Seal { epoch: u64_at(1) },
            _ => return None,
        };
        // An all-head record carries nothing after its head.
        let array = matches!(head, Head::AddColumn { .. } | Head::Batch { .. });
        (array || payload_len == Self::len_of(kind) as u64).then_some(head)
    }
}

/// What the first pass of a [`JournalReader`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct JournalScan {
    /// Epoch of the last seal (`None` if the journal never sealed).
    pub(crate) sealed_epoch: Option<u64>,
    /// Byte offset just past the last seal record (0 without a magic).
    pub(crate) sealed_len: u64,
    /// Byte offset just past the last *valid* record (>= `sealed_len`).
    pub(crate) valid_len: u64,
    /// Total journal size in bytes, including any torn tail.
    pub(crate) total_len: u64,
    /// Records up to and including the last seal.
    pub(crate) sealed_records: usize,
    /// Valid records after the last seal.
    pub(crate) unsealed_records: usize,
}

impl JournalScan {
    /// Bytes past the last seal that recovery discards.
    pub(crate) fn discarded_bytes(&self) -> u64 {
        self.total_len - self.sealed_len
    }
}

/// A journal read front to back through one [`STREAM_BUF`]-byte buffer,
/// in the two passes the module docs describe: [`JournalReader::scan`]
/// validates it and finds the sealed prefix, then
/// [`JournalReader::next_sealed`] walks that prefix record by record,
/// with the values and writes of each pulled by the caller.
pub(crate) struct JournalReader<R> {
    src: R,
    buf: Vec<u8>,
    /// The unread buffered bytes are `buf[at..end]`.
    at: usize,
    end: usize,
    /// Bytes read from `src` so far: the file offset of `buf[end]`.
    read: u64,
    /// No byte at or past this offset is read (the sealed prefix's end in
    /// the second pass).
    limit: u64,
    /// Bytes from the current offset to the next frame in the second
    /// pass: the unread payload of the current record and its checksum.
    to_next: u64,
}

impl<R: Read + Seek> JournalReader<R> {
    /// A reader over `src`, a whole journal.
    pub(crate) fn new(src: R) -> Self {
        JournalReader {
            src,
            buf: vec![0; STREAM_BUF],
            at: 0,
            end: 0,
            read: 0,
            limit: u64::MAX,
            to_next: 0,
        }
    }

    /// The source, for whatever follows the reading.
    pub(crate) fn into_inner(self) -> R {
        self.src
    }

    /// Offset of the next unread byte.
    fn offset(&self) -> u64 {
        self.read - (self.end - self.at) as u64
    }

    /// Moves to offset `to`, reading nothing at or past `limit`.
    fn seek_to(&mut self, to: u64, limit: u64) -> io::Result<()> {
        self.read = self.src.seek(SeekFrom::Start(to))?;
        (self.at, self.end, self.limit, self.to_next) = (0, 0, limit, 0);
        Ok(())
    }

    /// Buffers at least `want` (<= `STREAM_BUF`) unread bytes, if the
    /// source holds them below the limit.
    fn fill(&mut self, want: usize) -> io::Result<bool> {
        if self.end - self.at >= want {
            return Ok(true);
        }
        self.buf.copy_within(self.at..self.end, 0);
        (self.end, self.at) = (self.end - self.at, 0);
        while self.end < want {
            let room = (self.buf.len() - self.end) as u64;
            let room = room.min(self.limit.saturating_sub(self.read)) as usize;
            let n = match self.src.read(&mut self.buf[self.end..self.end + room]) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if n == 0 {
                return Ok(false);
            }
            self.end += n;
            self.read += n as u64;
        }
        Ok(true)
    }

    /// The next `N` bytes, if the source holds them.
    fn take<const N: usize>(&mut self) -> io::Result<Option<[u8; N]>> {
        if !self.fill(N)? {
            return Ok(None);
        }
        let bytes = array_at(&self.buf, self.at);
        self.at += N;
        Ok(Some(bytes))
    }

    /// The first pass: validates every frame from the front — length,
    /// checksum, head — and returns where the sealed prefix ends. It stops
    /// at the first invalid record. Any input, however damaged, yields a
    /// sealed prefix of the records it was written with, or an error for a
    /// foreign magic.
    pub(crate) fn scan(&mut self) -> io::Result<JournalScan> {
        let total_len = self.src.seek(SeekFrom::End(0))?;
        self.seek_to(0, u64::MAX)?;
        let mut scan = JournalScan {
            sealed_epoch: None,
            sealed_len: 0,
            valid_len: 0,
            total_len,
            sealed_records: 0,
            unsealed_records: 0,
        };
        match self.take::<8>()? {
            // Crash before the magic hit the disk: an empty journal.
            None => return Ok(scan),
            Some(magic) if &magic != WAL_MAGIC => {
                return Err(io::Error::other("not an asv journal (bad magic)"))
            }
            Some(_) => (scan.sealed_len, scan.valid_len) = (8, 8),
        }
        let mut records = 0;
        while let Some(len) = self.take::<4>()? {
            let payload_len = u32::from_le_bytes(len) as u64;
            let frame_end = self.offset() + payload_len + 4;
            if payload_len == 0 || payload_len > MAX_PAYLOAD as u64 || frame_end > total_len {
                break; // hostile length or truncated record
            }
            let Some((head, crc)) = self.checksum_payload(payload_len)? else {
                break; // the file shrank under the reader
            };
            if self.take::<4>()? != Some(crc.to_le_bytes()) {
                break; // torn record
            }
            let Some(head) = Head::decode(&head, payload_len) else {
                break; // checksummed but undecodable: treat as end of journal
            };
            records += 1;
            scan.valid_len = frame_end;
            if let Head::Seal { epoch } = head {
                scan.sealed_epoch = Some(epoch);
                scan.sealed_len = frame_end;
                scan.sealed_records = records;
            }
        }
        scan.unsealed_records = records - scan.sealed_records;
        Ok(scan)
    }

    /// Reads a payload of `len` bytes, returning its first bytes (zeros
    /// past a shorter payload) and its checksum.
    fn checksum_payload(&mut self, len: u64) -> io::Result<Option<([u8; MAX_HEAD], u32)>> {
        let (mut head, mut crc, mut done) = ([0; MAX_HEAD], 0, 0u64);
        while done < len {
            if !self.fill(1)? {
                return Ok(None);
            }
            let n = ((self.end - self.at) as u64).min(len - done) as usize;
            let bytes = &self.buf[self.at..self.at + n];
            crc = crc32c::update(crc, bytes);
            if let Some(room) = head.get_mut(done as usize..) {
                let copy = room.len().min(n);
                room[..copy].copy_from_slice(&bytes[..copy]);
            }
            self.at += n;
            done += n as u64;
        }
        Ok(Some((head, crc)))
    }

    /// Starts the second pass over the `scan.sealed_len` bytes the first
    /// pass sealed.
    pub(crate) fn rewind_sealed(&mut self, scan: &JournalScan) -> io::Result<()> {
        self.seek_to(0, scan.sealed_len)?;
        self.to_next = scan.sealed_len.min(WAL_MAGIC.len() as u64);
        Ok(())
    }

    /// The head of the next sealed record, `None` past the sealed prefix.
    /// Whatever the caller left unread of the previous record is skipped.
    pub(crate) fn next_sealed(&mut self) -> io::Result<Option<Head>> {
        let next = self.offset() + self.to_next;
        if next >= self.limit {
            return Ok(None);
        }
        let buffered = (self.end - self.at) as u64;
        if self.to_next <= buffered {
            self.at += self.to_next as usize;
        } else {
            self.seek_to(next, self.limit)?;
        }
        let (Some(len), Some([kind])) = (self.take::<4>()?, self.take::<1>()?) else {
            return Err(changed());
        };
        let payload_len = u32::from_le_bytes(len) as u64;
        let head_len = Head::len_of(kind);
        let mut bytes = [0; MAX_HEAD];
        bytes[0] = kind;
        if head_len < 1 || !self.fill(head_len - 1)? {
            return Err(changed());
        }
        bytes[1..head_len].copy_from_slice(&self.buf[self.at..self.at + head_len - 1]);
        self.at += head_len - 1;
        let head = Head::decode(&bytes, payload_len).ok_or_else(changed)?;
        self.to_next = payload_len - head_len as u64 + 4;
        Ok(Some(head))
    }

    /// Reads the next `out.len()` values of the current `AddColumn`.
    pub(crate) fn read_values(&mut self, out: &mut [u64]) -> io::Result<()> {
        self.read_items(out, |word: &[u8; 8]| u64::from_le_bytes(*word))
    }

    /// Reads the next `out.len()` `(row, value)` writes of the current
    /// `Batch`.
    pub(crate) fn read_writes(&mut self, out: &mut [(u64, u64)]) -> io::Result<()> {
        self.read_items(out, |pair: &[u8; 16]| {
            let word = |at| u64::from_le_bytes(array_at(pair, at));
            (word(0), word(8))
        })
    }

    /// Fills `out` with the next items of the current record, `N` bytes
    /// each as `decode` reads them, a buffer-full at a time.
    fn read_items<const N: usize, T>(
        &mut self,
        mut out: &mut [T],
        decode: impl Fn(&[u8; N]) -> T,
    ) -> io::Result<()> {
        let bytes = (N * out.len()) as u64;
        if bytes + 4 > self.to_next {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "read past the items of a journal record",
            ));
        }
        self.to_next -= bytes;
        while !out.is_empty() {
            if !self.fill(N)? {
                return Err(changed());
            }
            let n = ((self.end - self.at) / N).min(out.len());
            let (now, later) = std::mem::take(&mut out).split_at_mut(n);
            let (items, _) = self.buf[self.at..self.at + N * n].as_chunks::<N>();
            for (item, bytes) in now.iter_mut().zip(items) {
                *item = decode(bytes);
            }
            self.at += N * n;
            out = later;
        }
        Ok(())
    }
}

/// The `N` bytes of `bytes` from `at` on.
///
/// # Panics
/// Panics if `bytes` holds fewer than `at + N` bytes.
fn array_at<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut array = [0; N];
    array.copy_from_slice(&bytes[at..at + N]);
    array
}

/// The error of a second pass that finds other bytes than the first.
fn changed() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        "the journal changed between the passes of its replay",
    )
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

    /// Continues the journal in `file`, the one at `path`, after the
    /// sealed prefix of `sealed_len` bytes that a [`JournalReader::scan`]
    /// found in it. Nothing the prefix holds is written again: a longer
    /// file is cut back to the prefix in place and fsynced, and only a
    /// file too short to hold the magic starts afresh with one.
    pub(crate) fn resume(
        mut file: std::fs::File,
        path: PathBuf,
        sealed_len: u64,
        fault: Option<FaultPlan>,
    ) -> io::Result<Journal> {
        if sealed_len < WAL_MAGIC.len() as u64 {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(WAL_MAGIC)?;
            file.sync_data()?;
            sync_parent_dir(&path);
            return Ok(Journal::with_file(
                file,
                path,
                fault,
                WAL_MAGIC.len() as u64,
            ));
        }
        if file.seek(SeekFrom::End(0))? != sealed_len {
            file.set_len(sealed_len)?;
            file.sync_data()?;
            file.seek(SeekFrom::Start(sealed_len))?;
        }
        Ok(Journal::with_file(file, path, fault, sealed_len))
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

    /// The not-yet-fired fault plan adjusted for a journal that replaces
    /// this one: the targeted op index is reduced by the operations this
    /// journal already counted, so the compacted journal `rewrite` returns
    /// under `journal.carryover_fault()` fires at the same absolute
    /// operation the original plan targeted.
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
/// seal. A missing-or-empty file replays as an empty journal. The records
/// are collected from the two passes of a `JournalReader`, the reader
/// recovery runs.
pub fn replay(path: impl AsRef<Path>) -> io::Result<ReplayOutcome> {
    match std::fs::File::open(path.as_ref()) {
        Ok(file) => collect(JournalReader::new(file)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => collect(JournalReader::new(io::empty())),
        Err(e) => Err(e),
    }
}

/// The sealed records of `journal`, built in memory.
fn collect<R: Read + Seek>(mut journal: JournalReader<R>) -> io::Result<ReplayOutcome> {
    let scan = journal.scan()?;
    journal.rewind_sealed(&scan)?;
    let mut records = Vec::with_capacity(scan.sealed_records);
    while let Some(head) = journal.next_sealed()? {
        records.push(match head {
            Head::AddColumn { col, rows } => {
                let mut values = vec![0; rows];
                journal.read_values(&mut values)?;
                WalRecord::AddColumn { col, values }
            }
            Head::InstallView { col, min, max } => WalRecord::InstallView { col, min, max },
            Head::Batch { col, writes } => {
                let mut pairs = vec![(0, 0); writes];
                journal.read_writes(&mut pairs)?;
                WalRecord::Batch { col, writes: pairs }
            }
            Head::Seal { epoch } => WalRecord::Seal { epoch },
        });
    }
    Ok(ReplayOutcome {
        sealed_records: records,
        sealed_epoch: scan.sealed_epoch,
        sealed_len: scan.sealed_len,
        valid_len: scan.valid_len,
        total_len: scan.total_len,
        unsealed_records: scan.unsealed_records,
    })
}

/// Atomically replaces the journal at `path` with the records `write`
/// appends to a fresh, fault-free journal (compaction): they go to a temp
/// file beside it, which is fsynced, renamed over `path`, and the
/// directory fsynced. Returns the new journal, open for appends under
/// `fault`.
pub(crate) fn rewrite(
    path: &Path,
    fault: Option<FaultPlan>,
    write: impl FnOnce(&mut Journal) -> io::Result<()>,
) -> io::Result<Journal> {
    let tmp = path.with_extension("wal.tmp");
    let file = create_with_magic(&tmp)?;
    let mut journal = Journal::with_file(file, tmp.clone(), None, WAL_MAGIC.len() as u64);
    write(&mut journal)?;
    journal.sync()?;
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(Journal::with_file(
        journal.file,
        path.to_path_buf(),
        fault,
        journal.len,
    ))
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

    /// The two passes of the streaming reader over a journal's bytes,
    /// collected as [`replay`] collects a file's.
    fn read_journal(bytes: &[u8]) -> io::Result<ReplayOutcome> {
        collect(JournalReader::new(io::Cursor::new(bytes)))
    }

    /// The journal bytes of exactly `records`.
    fn journal_of(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        for record in records {
            bytes.extend_from_slice(&record.encode());
        }
        bytes
    }

    #[test]
    fn records_roundtrip_through_encode_decode() {
        let seal = WalRecord::Seal { epoch: 9 };
        for record in sample_records() {
            let records = [record, seal.clone()];
            let encoded = records[0].encode();
            let payload_len = u32::from_le_bytes(encoded[..4].try_into().unwrap()) as usize;
            assert_eq!(payload_len, records[0].payload_len());
            assert_eq!(encoded.len(), payload_len + FRAME_OVERHEAD);
            let outcome = read_journal(&journal_of(&records)).unwrap();
            assert_eq!(outcome.sealed_records, records);
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
        let mut journal = rewrite(&path, None, |journal| {
            checkpoint
                .iter()
                .try_for_each(|record| journal.append(record))
        })
        .unwrap();
        assert_eq!(journal.path(), path);
        assert_eq!(std::fs::read(&path).unwrap(), journal_of(&checkpoint));
        assert!(!path.with_extension("wal.tmp").exists());
        let outcome = replay(&path).unwrap();
        assert_eq!(outcome.sealed_records, checkpoint);
        // Appends continue after the checkpoint.
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
        match read_journal(bytes) {
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
                assert!(read_journal(&flipped).is_ok(), "flip {bit}");
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

    /// A frame around `payload` with a matching checksum.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&crc32c::update(0, payload).to_le_bytes());
        bytes
    }

    #[test]
    fn hostile_counts_allocate_no_more_than_the_payload() {
        // Checksummed array records whose count does not fill the frame:
        // far past it, one item past it, one item short of it. The first
        // pass ends the journal there, so the count sizes nothing.
        for (kind, item) in [(KIND_ADD_COLUMN, 8), (KIND_BATCH, 16)] {
            for count in [u64::MAX, u64::MAX / item + 1, 3, 1] {
                let mut payload = array_header(kind, 0, 0).to_vec();
                payload[5..].copy_from_slice(&count.to_le_bytes());
                payload.extend_from_slice(&[7; 32]);
                let mut bytes = journal_of(&[WalRecord::Seal { epoch: 1 }]);
                let sealed_len = bytes.len() as u64;
                bytes.extend_from_slice(&frame(&payload));
                bytes.extend_from_slice(&WalRecord::Seal { epoch: 2 }.encode());
                let outcome = read_journal(&bytes).unwrap();
                assert_eq!(
                    outcome.sealed_records,
                    [WalRecord::Seal { epoch: 1 }],
                    "kind {kind} count {count}"
                );
                assert_eq!(outcome.valid_len, sealed_len, "kind {kind} count {count}");
                assert_eq!(outcome.unsealed_records, 0);
            }
        }
        // A count that fills its frame exactly is read.
        let mut payload = array_header(KIND_BATCH, 0, 2).to_vec();
        payload.extend_from_slice(&[7; 32]);
        let mut bytes = journal_of(&[]);
        bytes.extend_from_slice(&frame(&payload));
        bytes.extend_from_slice(&WalRecord::Seal { epoch: 2 }.encode());
        let seven = u64::from_le_bytes([7; 8]);
        assert_eq!(
            read_journal(&bytes).unwrap().sealed_records[0],
            WalRecord::Batch {
                col: 0,
                writes: vec![(seven, seven); 2]
            }
        );
    }

    /// A journal of a column load of `rows` values (several stream
    /// buffers), a batch and a seal, then a valid unsealed batch.
    fn load_journal(rows: usize) -> (Vec<u8>, Vec<WalRecord>) {
        let sealed = vec![
            WalRecord::AddColumn {
                col: 0,
                values: streamed_values(rows),
            },
            WalRecord::Batch {
                col: 0,
                writes: vec![(1, 2), (3, 4)],
            },
            WalRecord::Seal { epoch: 5 },
        ];
        let mut bytes = journal_of(&sealed);
        bytes.extend_from_slice(
            &WalRecord::Batch {
                col: 0,
                writes: vec![(5, 6)],
            }
            .encode(),
        );
        (bytes, sealed)
    }

    #[test]
    fn second_pass_reads_the_sealed_prefix_and_skips_what_is_left_unread() {
        let rows = 2 * STREAM_BUF / 8 + 13;
        let (bytes, sealed) = load_journal(rows);
        let mut reader = JournalReader::new(io::Cursor::new(&bytes[..]));
        let scan = reader.scan().unwrap();
        assert_eq!(
            (scan.sealed_records, scan.unsealed_records),
            (3, 1),
            "the first pass counts the tail"
        );
        assert_eq!(scan.sealed_len, journal_of(&sealed).len() as u64);
        // Read every item, in odd-sized pieces that straddle the buffer.
        reader.rewind_sealed(&scan).unwrap();
        assert_eq!(
            reader.next_sealed().unwrap(),
            Some(Head::AddColumn { col: 0, rows })
        );
        let mut values = vec![0; rows];
        for piece in values.chunks_mut(511) {
            reader.read_values(piece).unwrap();
        }
        assert!(
            reader.read_values(&mut [0]).is_err(),
            "no value past the count"
        );
        let WalRecord::AddColumn {
            values: written, ..
        } = &sealed[0]
        else {
            unreachable!()
        };
        assert!(&values == written);
        assert_eq!(
            reader.next_sealed().unwrap(),
            Some(Head::Batch { col: 0, writes: 2 })
        );
        let mut writes = [(0, 0); 2];
        reader.read_writes(&mut writes[..1]).unwrap();
        reader.read_writes(&mut writes[1..]).unwrap();
        assert_eq!(writes, [(1, 2), (3, 4)]);
        assert!(
            reader.read_writes(&mut writes[..1]).is_err(),
            "no write past the count"
        );
        assert_eq!(reader.next_sealed().unwrap(), Some(Head::Seal { epoch: 5 }));
        assert_eq!(reader.next_sealed().unwrap(), None, "the tail stays unread");
        // Heads alone: every unread item is skipped.
        reader.rewind_sealed(&scan).unwrap();
        let heads: Vec<Head> = std::iter::from_fn(|| reader.next_sealed().unwrap()).collect();
        assert_eq!(
            heads,
            [
                Head::AddColumn { col: 0, rows },
                Head::Batch { col: 0, writes: 2 },
                Head::Seal { epoch: 5 }
            ]
        );
        // Bytes that change between the passes are an error, not a record.
        let mut reader = JournalReader::new(io::Cursor::new(&bytes[..]));
        let scan = reader.scan().unwrap();
        let mut shorter = JournalReader::new(io::Cursor::new(&bytes[..bytes.len() / 2]));
        shorter.rewind_sealed(&scan).unwrap();
        assert_eq!(
            shorter.next_sealed().unwrap(),
            Some(Head::AddColumn { col: 0, rows })
        );
        let mut values = vec![0; rows];
        let err = shorter.read_values(&mut values).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn resume_keeps_the_sealed_prefix_and_cuts_only_the_tail() {
        let (bytes, sealed) = load_journal(100);
        let sealed_bytes = journal_of(&sealed);
        for tail in [false, true] {
            let path = temp_path("resume");
            let written = if tail { &bytes[..] } else { &sealed_bytes[..] };
            std::fs::write(&path, written).unwrap();
            let ino = std::os::unix::fs::MetadataExt::ino(&std::fs::metadata(&path).unwrap());
            let file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            let mut reader = JournalReader::new(file);
            let scan = reader.scan().unwrap();
            assert_eq!(scan.discarded_bytes() > 0, tail);
            let mut journal =
                Journal::resume(reader.into_inner(), path.clone(), scan.sealed_len, None).unwrap();
            assert_eq!(journal.len_bytes(), scan.sealed_len);
            assert!(std::fs::read(&path).unwrap() == sealed_bytes, "tail {tail}");
            let meta = std::fs::metadata(&path).unwrap();
            assert_eq!(std::os::unix::fs::MetadataExt::ino(&meta), ino, "in place");
            journal.append(&WalRecord::Seal { epoch: 6 }).unwrap();
            let outcome = replay(&path).unwrap();
            assert_eq!(outcome.sealed_records.len(), sealed.len() + 1);
            assert_eq!(outcome.sealed_epoch, Some(6));
            std::fs::remove_file(&path).unwrap();
        }
        // Without a whole magic the journal starts afresh with one.
        let path = temp_path("resume-short");
        std::fs::write(&path, b"ASVW").unwrap();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let journal = Journal::resume(file, path.clone(), 0, None).unwrap();
        assert_eq!(journal.len_bytes(), WAL_MAGIC.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), WAL_MAGIC);
        std::fs::remove_file(&path).unwrap();
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
                read_journal(&bytes).unwrap().unsealed_records,
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
                assert!(read_journal(&bytes).unwrap().sealed_records.is_empty());
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
