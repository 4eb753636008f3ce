//! Durable file-backed variant of the mmap backend.
//!
//! [`crate::MmapBackend`] places physical columns in anonymous main-memory
//! files (memfd / unlinked tmpfs), so every table dies with the process.
//! [`FileBackend`] keeps the same rewiring mechanics — a full `MAP_SHARED`
//! write mapping over the store plus anonymous view reservations rewired
//! with `mmap(MAP_FIXED)` — but backs each store with a **named file on
//! disk** that survives the process. Two extra primitives make the store a
//! usable durability substrate:
//!
//! * [`FileStore::flush_pages`] — `msync(MS_SYNC)` a page-group of the
//!   store mapping, so dirty pages reach the file at chunk granularity;
//! * [`FileStore::sync_all`] — `fsync` the backing file, the commit-point
//!   barrier used by the write-ahead journal in `asv_core::wal`.
//!
//! A store gets its first bytes in bulk ([`PhysicalStore::fill_pages`]):
//! 64 KiB `pwrite`s into the file, then one
//! `madvise(MADV_POPULATE_WRITE)` that maps every page writable, rather
//! than one page fault per page of the load.
//!
//! The view type is shared with the mmap backend ([`MmapView`]): views are
//! process-local virtual memory either way and are rebuilt on recovery.
//! Reserving, rewiring and truncating — and the mapping table each view
//! keeps of it — are `MmapView`'s; this backend only supplies the file
//! descriptor to rewire onto.

use std::fs::OpenOptions;
use std::os::fd::AsRawFd;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::backend::{Backend, MapRequest, PhysicalStore};
use crate::error::{Result, VmemError};
use crate::layout::{PAGE_SIZE_BYTES, SLOTS_PER_PAGE};
use crate::mmap::MmapView;

/// Bytes of each `pwrite` that fills a [`FileStore`]: the size of its
/// fill buffer.
const FILL_CHUNK_BYTES: usize = 64 * 1024;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);
static STORE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The file-backed rewiring backend: stores are named files on disk.
#[derive(Clone, Debug)]
pub struct FileBackend {
    dir: PathBuf,
}

impl FileBackend {
    /// Creates a backend that places store files in `dir` (created on first
    /// use).
    pub fn with_dir(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// Creates a backend with a process-unique directory under the system
    /// temp dir. The files persist until the OS cleans the temp dir, which
    /// is what the `--backend file` experiment runs want: durable within a
    /// run, disposable after.
    pub fn temp() -> Self {
        let unique = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        Self::with_dir(
            std::env::temp_dir().join(format!("asv-file-{}-{unique}", std::process::id())),
        )
    }

    /// Directory holding this backend's store files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// A physical column materialized in a named file on disk.
///
/// The store's pages are a full `MAP_SHARED` mapping of the file. Its
/// first bytes reach the file through [`PhysicalStore::fill_pages`] in
/// 64 KiB writes, after which one populate call maps
/// every page writable, so neither the load nor a later fold takes a
/// page fault per page.
pub struct FileStore {
    file: std::fs::File,
    path: PathBuf,
    num_pages: usize,
    /// Full `MAP_SHARED` mapping of the file (write path). Null for empty
    /// stores.
    base: *mut u8,
}

// SAFETY: as for MmapStore — the store owns its file and base mapping
// exclusively and the raw pointer is only dereferenced through &self /
// &mut self methods.
unsafe impl Send for FileStore {}
// SAFETY: as for Send — `&FileStore` only hands out shared page slices and
// passes the mapping to `msync`, which does not write to it.
unsafe impl Sync for FileStore {}

impl FileStore {
    /// Path of the backing file on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Base address of the full write mapping (null for empty stores).
    pub fn base_addr(&self) -> usize {
        self.base as usize
    }

    fn bytes(&self) -> usize {
        self.num_pages * PAGE_SIZE_BYTES
    }

    /// Synchronously writes a run of dirty pages back to the file
    /// (`msync(MS_SYNC)` at page-group granularity).
    pub fn flush_pages(&self, first_page: usize, len: usize) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        if first_page + len > self.num_pages {
            return Err(VmemError::out_of_bounds(format!(
                "flush of pages [{}, {}) exceeds store size {}",
                first_page,
                first_page + len,
                self.num_pages
            )));
        }
        // SAFETY: the page range was checked against the store size, so the
        // address stays inside the store mapping.
        let addr = unsafe { self.base.add(first_page * PAGE_SIZE_BYTES) };
        // SAFETY: `[addr, addr + len pages)` lies inside the store mapping
        // (checked above), which lives as long as &self; msync only reads it.
        let rc = unsafe {
            libc::msync(
                addr as *mut libc::c_void,
                len * PAGE_SIZE_BYTES,
                libc::MS_SYNC,
            )
        };
        if rc != 0 {
            return Err(VmemError::last_os_error("msync"));
        }
        Ok(())
    }

    /// Flushes the whole store mapping and fsyncs the backing file — the
    /// durability barrier used at commit boundaries.
    pub fn sync_all(&self) -> Result<()> {
        self.flush_pages(0, self.num_pages)?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Maps every page of the store writable in one
    /// `madvise(MADV_POPULATE_WRITE)`. A kernel older than 5.14 refuses
    /// the advice with `EINVAL`; then one slot per page is written back
    /// in place, which takes the same faults one page at a time.
    fn populate(&mut self) -> Result<()> {
        if self.base.is_null() {
            return Ok(());
        }
        // SAFETY: `base` maps exactly `bytes()` bytes of the file, owned by
        // this store; populating neither moves nor changes their contents.
        let rc = unsafe {
            libc::madvise(
                self.base as *mut libc::c_void,
                self.bytes(),
                libc::MADV_POPULATE_WRITE,
            )
        };
        if rc == 0 {
            return Ok(());
        }
        let source = std::io::Error::last_os_error();
        if source.raw_os_error() != Some(libc::EINVAL) {
            let call = "madvise(MADV_POPULATE_WRITE)";
            return Err(VmemError::Syscall { call, source });
        }
        for page in 0..self.num_pages {
            let slot = self.page_mut(page).as_mut_ptr();
            // SAFETY: `slot` is the first slot of a page of the mapping,
            // valid for reads and writes through `&mut self`; the volatile
            // pair writes back the value it read, so only the fault shows.
            unsafe { slot.write_volatile(slot.read_volatile()) };
        }
        Ok(())
    }
}

impl PhysicalStore for FileStore {
    fn num_pages(&self) -> usize {
        self.num_pages
    }

    fn page(&self, phys_page: usize) -> &[u64] {
        assert!(
            phys_page < self.num_pages,
            "physical page {phys_page} out of bounds ({} pages)",
            self.num_pages
        );
        // SAFETY: bounds checked above; the mapping covers num_pages pages
        // and lives as long as &self.
        unsafe {
            std::slice::from_raw_parts(
                self.base.add(phys_page * PAGE_SIZE_BYTES) as *const u64,
                SLOTS_PER_PAGE,
            )
        }
    }

    fn page_mut(&mut self, phys_page: usize) -> &mut [u64] {
        assert!(
            phys_page < self.num_pages,
            "physical page {phys_page} out of bounds ({} pages)",
            self.num_pages
        );
        // SAFETY: as above, and &mut self guarantees exclusive access through
        // this handle.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.base.add(phys_page * PAGE_SIZE_BYTES) as *mut u64,
                SLOTS_PER_PAGE,
            )
        }
    }

    /// Fills 64 KiB of pages at a time in one buffer and
    /// `pwrite`s it into the file, then populates the mapping: the pages
    /// arrive in the page cache in bulk, and no page faults one at a time.
    fn fill_pages(&mut self, fill: &mut dyn FnMut(usize, &mut [u64]) -> Result<()>) -> Result<()> {
        const CHUNK_PAGES: usize = FILL_CHUNK_BYTES / PAGE_SIZE_BYTES;
        let mut chunk = vec![0u64; CHUNK_PAGES.min(self.num_pages) * SLOTS_PER_PAGE];
        for first in (0..self.num_pages).step_by(CHUNK_PAGES) {
            let pages = CHUNK_PAGES.min(self.num_pages - first);
            let slots = &mut chunk[..pages * SLOTS_PER_PAGE];
            slots.fill(0);
            for (page, page_slots) in slots.chunks_exact_mut(SLOTS_PER_PAGE).enumerate() {
                fill(first + page, page_slots)?;
            }
            // SAFETY: the bytes of an initialised `u64` slice, read for as
            // long as it is borrowed; `u8` has no alignment to keep. They
            // reach the file in the native byte order the mapping reads.
            let bytes = unsafe {
                std::slice::from_raw_parts(
                    slots.as_ptr().cast::<u8>(),
                    std::mem::size_of_val(slots),
                )
            };
            self.file
                .write_all_at(bytes, (first * PAGE_SIZE_BYTES) as u64)?;
        }
        self.populate()
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        if !self.base.is_null() {
            // SAFETY: `base` is the mapping of exactly `bytes()` bytes
            // created in `create_store`; the store owns it and nothing uses
            // it after drop.
            unsafe {
                libc::munmap(self.base as *mut libc::c_void, self.bytes());
            }
        }
        // The File closes its descriptor on drop; the named file stays on
        // disk — that is the durability contract.
    }
}

impl Backend for FileBackend {
    type Store = FileStore;
    type View = MmapView;

    fn name(&self) -> &'static str {
        "file"
    }

    fn create_store(&self, num_pages: usize) -> Result<FileStore> {
        std::fs::create_dir_all(&self.dir)?;
        let unique = STORE_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = self
            .dir
            .join(format!("store-{}-{unique}.asv", std::process::id()));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let bytes = num_pages * PAGE_SIZE_BYTES;
        file.set_len(bytes as u64)?;
        let base = if bytes == 0 {
            std::ptr::null_mut()
        } else {
            // SAFETY: a fresh shared mapping of the file just sized to
            // `bytes`, at an address the kernel picks; no existing memory is
            // affected, and `file` stays open as long as the store lives.
            let ptr = unsafe {
                libc::mmap(
                    std::ptr::null_mut(),
                    bytes,
                    libc::PROT_READ | libc::PROT_WRITE,
                    libc::MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == libc::MAP_FAILED {
                return Err(VmemError::last_os_error("mmap(file store)"));
            }
            ptr as *mut u8
        };
        Ok(FileStore {
            file,
            path,
            num_pages,
            base,
        })
    }

    fn reserve_view(&self, _store: &FileStore, capacity_pages: usize) -> Result<MmapView> {
        MmapView::reserve(capacity_pages)
    }

    fn map_run(&self, store: &FileStore, view: &mut MmapView, req: MapRequest) -> Result<()> {
        view.map_run(store.file.as_raw_fd(), store.num_pages, req)
    }

    fn truncate_view(&self, view: &mut MmapView, new_mapped_pages: usize) -> Result<()> {
        view.truncate(new_mapped_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ViewBuffer;

    fn temp_backend() -> FileBackend {
        FileBackend::temp()
    }

    fn fill_page(store: &mut FileStore, page: usize) {
        let data = store.page_mut(page);
        data[0] = page as u64;
        for (i, slot) in data.iter_mut().enumerate().skip(1) {
            *slot = (page * 1000 + i) as u64;
        }
    }

    fn cleanup(b: &FileBackend) {
        let _ = std::fs::remove_dir_all(b.dir());
    }

    #[test]
    fn store_write_read_roundtrip() {
        let b = temp_backend();
        let mut store = b.create_store(8).unwrap();
        for p in 0..8 {
            fill_page(&mut store, p);
        }
        for p in 0..8 {
            let page = store.page(p);
            assert_eq!(page[0], p as u64);
            assert_eq!(
                page[SLOTS_PER_PAGE - 1],
                (p * 1000 + SLOTS_PER_PAGE - 1) as u64
            );
        }
        drop(store);
        cleanup(&b);
    }

    #[test]
    fn flushed_pages_survive_in_the_file() {
        let b = temp_backend();
        let mut store = b.create_store(4).unwrap();
        for p in 0..4 {
            fill_page(&mut store, p);
        }
        store.flush_pages(1, 2).unwrap();
        store.sync_all().unwrap();
        let path = store.path().to_path_buf();
        drop(store);
        // Re-read the raw file: the flushed pages must be on disk.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 4 * PAGE_SIZE_BYTES);
        for p in 0..4 {
            let off = p * PAGE_SIZE_BYTES;
            let slot0 = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
            assert_eq!(slot0, p as u64, "page {p} id survived");
            let off1 = off + 8;
            let slot1 = u64::from_le_bytes(bytes[off1..off1 + 8].try_into().unwrap());
            assert_eq!(slot1, (p * 1000 + 1) as u64);
        }
        cleanup(&b);
    }

    #[test]
    fn bulk_fill_reaches_the_file_and_the_mapping_in_every_chunk() {
        // Two full fill chunks and a short last one.
        let chunk_pages = FILL_CHUNK_BYTES / PAGE_SIZE_BYTES;
        let pages = 2 * chunk_pages + 5;
        let b = temp_backend();
        let mut store = b.create_store(pages).unwrap();
        let mut order = Vec::new();
        store
            .fill_pages(&mut |page, slots| {
                assert!(slots.iter().all(|&slot| slot == 0), "page {page} zeroed");
                order.push(page);
                slots[0] = page as u64;
                slots[SLOTS_PER_PAGE - 1] = (page * 1000 + 7) as u64;
                Ok(())
            })
            .unwrap();
        assert_eq!(order, (0..pages).collect::<Vec<_>>());
        let bytes = std::fs::read(store.path()).unwrap();
        assert_eq!(bytes.len(), pages * PAGE_SIZE_BYTES);
        let last = (SLOTS_PER_PAGE - 1) * 8;
        for p in 0..pages {
            let page = store.page(p);
            assert_eq!(
                (page[0], page[SLOTS_PER_PAGE - 1]),
                (p as u64, (p * 1000 + 7) as u64)
            );
            assert!(page[1..SLOTS_PER_PAGE - 1].iter().all(|&slot| slot == 0));
            let raw = &bytes[p * PAGE_SIZE_BYTES..(p + 1) * PAGE_SIZE_BYTES];
            let slot = |at: usize| u64::from_ne_bytes(raw[at..at + 8].try_into().unwrap());
            assert_eq!(
                (slot(0), slot(last)),
                (p as u64, (p * 1000 + 7) as u64),
                "page {p}"
            );
        }
        // The populated mapping is the file: a write shows in a view.
        let mut view = b.reserve_view(&store, 1).unwrap();
        b.map_run(&store, &mut view, MapRequest::single(0, pages - 1))
            .unwrap();
        store.page_mut(pages - 1)[3] = 0xF111;
        assert_eq!(view.page(0)[3], 0xF111);
        drop(view);
        // A failing fill stops at its page.
        let mut fresh = b.create_store(pages).unwrap();
        let mut reached = 0;
        let err = fresh.fill_pages(&mut |page, _| {
            reached = page;
            match page {
                20 => Err(VmemError::out_of_bounds("page 20")),
                _ => Ok(()),
            }
        });
        assert!(err.is_err());
        assert_eq!(reached, 20);
        drop(fresh);
        drop(store);
        cleanup(&b);
    }

    #[test]
    fn flush_bounds_are_checked() {
        let b = temp_backend();
        let store = b.create_store(2).unwrap();
        assert!(store.flush_pages(1, 2).is_err());
        store.flush_pages(0, 0).unwrap();
        drop(store);
        cleanup(&b);
    }

    #[test]
    fn rewired_view_reads_scattered_pages_in_slot_order() {
        let b = temp_backend();
        let mut store = b.create_store(16).unwrap();
        for p in 0..16 {
            fill_page(&mut store, p);
        }
        let mut view = b.reserve_view(&store, 16).unwrap();
        b.map_run(
            &store,
            &mut view,
            MapRequest {
                slot: 0,
                phys_page: 5,
                len: 3,
            },
        )
        .unwrap();
        b.map_run(&store, &mut view, MapRequest::single(3, 12))
            .unwrap();
        assert_eq!(view.mapped_pages(), 4);
        let ids: Vec<u64> = view.iter_pages().map(|p| p[0]).collect();
        assert_eq!(ids, vec![5, 6, 7, 12]);
        drop(view);
        drop(store);
        cleanup(&b);
    }

    #[test]
    fn writes_through_store_are_visible_in_views() {
        let b = temp_backend();
        let mut store = b.create_store(4).unwrap();
        let mut view = b.reserve_view(&store, 4).unwrap();
        b.map_run(&store, &mut view, MapRequest::single(0, 2))
            .unwrap();
        store.page_mut(2)[10] = 0xDEAD_BEEF;
        assert_eq!(view.page(0)[10], 0xDEAD_BEEF);
        drop(view);
        drop(store);
        cleanup(&b);
    }

    #[test]
    fn truncate_and_remap_work_like_the_mmap_backend() {
        let b = temp_backend();
        let store = b.create_store(8).unwrap();
        let mut view = b.reserve_view(&store, 8).unwrap();
        b.map_run(
            &store,
            &mut view,
            MapRequest {
                slot: 0,
                phys_page: 0,
                len: 5,
            },
        )
        .unwrap();
        b.truncate_view(&mut view, 2).unwrap();
        assert_eq!(view.mapped_pages(), 2);
        b.map_run(&store, &mut view, MapRequest::single(2, 7))
            .unwrap();
        assert_eq!(view.mapped_pages(), 3);
        drop(view);
        drop(store);
        cleanup(&b);
    }

    #[test]
    fn mapping_table_reflects_rewiring() {
        let b = temp_backend();
        let store = b.create_store(32).unwrap();
        let mut view = b.reserve_view(&store, 32).unwrap();
        b.map_run(
            &store,
            &mut view,
            MapRequest {
                slot: 0,
                phys_page: 10,
                len: 2,
            },
        )
        .unwrap();
        b.map_run(&store, &mut view, MapRequest::single(2, 30))
            .unwrap();
        let table = view.mapping();
        assert_eq!(table.len(), 3);
        assert_eq!(table.phys_for_slot(0), Some(10));
        assert_eq!(table.phys_for_slot(2), Some(30));
        let kernel = crate::maps::kernel_mapping_tables(&[&view])
            .unwrap()
            .unwrap();
        assert_eq!(&kernel[0], table);
        drop(view);
        drop(store);
        cleanup(&b);
    }

    #[test]
    fn empty_store_is_allowed() {
        let b = temp_backend();
        let store = b.create_store(0).unwrap();
        assert_eq!(store.num_pages(), 0);
        store.sync_all().unwrap();
        let view = b.reserve_view(&store, 0).unwrap();
        assert_eq!(view.capacity_pages(), 0);
        drop(view);
        drop(store);
        cleanup(&b);
    }

    #[test]
    fn backend_reports_its_name() {
        assert_eq!(temp_backend().name(), "file");
    }
}
