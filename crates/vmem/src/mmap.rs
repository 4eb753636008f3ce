//! The real memory-rewiring backend: main-memory files + `mmap(MAP_FIXED)`.
//!
//! "The core idea is to introduce physical memory to user-space in the form
//! of main-memory files. [...] By creating a virtual memory area that maps
//! to such a main-memory file using mmap(), we can establish a controllable
//! mapping from virtual to physical memory." (paper §1.2)
//!
//! * A [`MmapStore`] is a main-memory file (a `memfd`, falling back to an
//!   unlinked tmpfs file) plus one full shared mapping used as the write
//!   path for the physical column.
//! * A [`MmapView`] is an anonymous over-allocated reservation whose page
//!   slots are rewired to arbitrary pages of the file with
//!   `mmap(MAP_SHARED | MAP_FIXED)`. It is also the view type of
//!   [`crate::FileBackend`], and it owns its [`MappingTable`]: nothing but
//!   the view's own `map_run` and `truncate` (behind [`Backend::map_run`]
//!   and [`Backend::truncate_view`]) changes what the kernel maps inside
//!   the reservation, and both record the change once the syscall
//!   succeeded, so the table never has to be read back from
//!   `/proc/self/maps` (the paper's §2.5 parse survives as the test oracle
//!   in [`crate::maps`]).
//!
//! Only Linux is supported; the portable [`crate::SimBackend`] covers other
//! platforms for correctness testing.

use std::ffi::CString;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::backend::{Backend, MapRequest, PhysicalStore, ViewBuffer};
use crate::error::{Result, VmemError};
use crate::layout::{PAGE_SIZE_BYTES, SLOTS_PER_PAGE};
use crate::maps::MappingTable;

/// The mmap-based rewiring backend.
#[derive(Clone, Debug, Default)]
pub struct MmapBackend;

static FILE_COUNTER: AtomicU64 = AtomicU64::new(0);

impl MmapBackend {
    /// Creates a backend that uses `memfd_create`, falling back to `/dev/shm`
    /// if the syscall is unavailable.
    pub fn new() -> Self {
        Self
    }

    fn create_memory_file(&self, bytes: usize) -> Result<libc::c_int> {
        // SAFETY: the name is a NUL-terminated static string; memfd_create
        // reads it and touches nothing else.
        let fd = unsafe { libc::memfd_create(c"asv-column".as_ptr(), 0) };
        let fd = if fd >= 0 {
            fd
        } else {
            // Kernel without memfd support: fall back to an unlinked file
            // in tmpfs (the paper's setup uses a tmpfs mount, §3).
            Self::create_tmpfs_file(std::path::Path::new("/dev/shm"))?
        };
        // SAFETY: `fd` is the descriptor opened above, owned by this
        // function until it is returned; ftruncate takes no pointers.
        if unsafe { libc::ftruncate(fd, bytes as libc::off_t) } != 0 {
            let err = VmemError::last_os_error("ftruncate");
            // SAFETY: `fd` is still owned here and is not used after this.
            unsafe { libc::close(fd) };
            return Err(err);
        }
        Ok(fd)
    }

    fn create_tmpfs_file(dir: &std::path::Path) -> Result<libc::c_int> {
        let unique = FILE_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("asv-{}-{}", std::process::id(), unique));
        let c_path = CString::new(path.as_os_str().as_encoded_bytes())
            .map_err(|_| VmemError::Unsupported("tmpfs path contains NUL"))?;
        // SAFETY: `c_path` is a NUL-terminated string that outlives the
        // call; open reads it and touches no other memory.
        let fd = unsafe {
            libc::open(
                c_path.as_ptr(),
                libc::O_RDWR | libc::O_CREAT | libc::O_EXCL | libc::O_CLOEXEC,
                0o600,
            )
        };
        if fd < 0 {
            return Err(VmemError::last_os_error("open(tmpfs file)"));
        }
        // Unlink immediately: the file keeps existing through the fd, giving
        // the same anonymous-main-memory semantics as a memfd.
        // SAFETY: as for `open` above — the call only reads `c_path`.
        unsafe { libc::unlink(c_path.as_ptr()) };
        Ok(fd)
    }
}

/// A physical column materialized in a main-memory file.
pub struct MmapStore {
    fd: libc::c_int,
    num_pages: usize,
    /// Full `MAP_SHARED` mapping of the file (write path). Null for empty
    /// stores.
    base: *mut u8,
}

// SAFETY: the store owns its fd and its base mapping exclusively; the raw
// pointer is only dereferenced through &self / &mut self methods, so the
// usual borrow rules serialize access exactly like they would for a Vec.
unsafe impl Send for MmapStore {}
// SAFETY: as for Send — `&MmapStore` only hands out shared page slices.
unsafe impl Sync for MmapStore {}

impl MmapStore {
    /// File descriptor of the underlying main-memory file.
    pub fn fd(&self) -> libc::c_int {
        self.fd
    }

    /// Base address of the full write mapping (null for empty stores).
    pub fn base_addr(&self) -> usize {
        self.base as usize
    }

    fn bytes(&self) -> usize {
        self.num_pages * PAGE_SIZE_BYTES
    }
}

impl PhysicalStore for MmapStore {
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
}

impl Drop for MmapStore {
    fn drop(&mut self) {
        // SAFETY: `base` (if non-null) is the mapping of exactly `bytes()`
        // bytes created in `create_store`, and `fd` the descriptor opened
        // there; the store owns both and nothing uses them after drop.
        unsafe {
            if !self.base.is_null() {
                libc::munmap(self.base as *mut libc::c_void, self.bytes());
            }
            libc::close(self.fd);
        }
    }
}

/// A virtual view buffer: an anonymous reservation whose page slots are
/// rewired onto physical pages of a main-memory file ([`MmapStore`]) or a
/// file on disk ([`crate::FileStore`]).
pub struct MmapView {
    /// Start of the reservation. Null for zero-capacity views.
    base: *mut u8,
    capacity_pages: usize,
    /// What the kernel maps at each slot of the reservation; its slot span
    /// is the view's mapped prefix.
    table: MappingTable,
}

// SAFETY: the view owns its reservation exclusively; the raw pointer is
// only dereferenced through &self / &mut self methods, see MmapStore.
unsafe impl Send for MmapView {}
// SAFETY: as for Send — `&MmapView` only hands out shared page slices.
unsafe impl Sync for MmapView {}

impl MmapView {
    /// Reserves `capacity_pages` slots of virtual memory — "a mere
    /// reservation [...] almost for free" (paper §2): anonymous,
    /// `MAP_NORESERVE`, nothing mapped to the store yet.
    pub(crate) fn reserve(capacity_pages: usize) -> Result<Self> {
        let bytes = capacity_pages * PAGE_SIZE_BYTES;
        let base = if bytes == 0 {
            std::ptr::null_mut()
        } else {
            // SAFETY: a fresh anonymous mapping at an address the kernel
            // picks; no existing memory is affected.
            let ptr = unsafe {
                libc::mmap(
                    std::ptr::null_mut(),
                    bytes,
                    libc::PROT_READ | libc::PROT_WRITE,
                    libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE,
                    -1,
                    0,
                )
            };
            if ptr == libc::MAP_FAILED {
                return Err(VmemError::last_os_error("mmap(view reservation)"));
            }
            ptr as *mut u8
        };
        Ok(MmapView {
            base,
            capacity_pages,
            table: MappingTable::new(),
        })
    }

    /// Rewires the slots of `req` onto pages of the file `fd` (which holds
    /// `store_pages` pages) and records the new mappings.
    pub(crate) fn map_run(
        &mut self,
        fd: libc::c_int,
        store_pages: usize,
        req: MapRequest,
    ) -> Result<()> {
        if req.len == 0 {
            return Ok(());
        }
        req.check_bounds(self.capacity_pages, store_pages)?;
        // SAFETY: the slot range was checked against the reservation, so
        // the address stays inside it.
        let addr = unsafe { self.base.add(req.slot * PAGE_SIZE_BYTES) };
        // SAFETY: MAP_FIXED replaces only pages of this view's own
        // reservation (range checked above), and `&mut self` rules out page
        // slices borrowed from it; the file range was checked against the
        // store size.
        let ptr = unsafe {
            libc::mmap(
                addr as *mut libc::c_void,
                req.len * PAGE_SIZE_BYTES,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED | libc::MAP_FIXED,
                fd,
                (req.phys_page * PAGE_SIZE_BYTES) as libc::off_t,
            )
        };
        if ptr == libc::MAP_FAILED {
            return Err(VmemError::last_os_error("mmap(MAP_FIXED rewire)"));
        }
        self.table.insert_run(req.slot, req.phys_page, req.len);
        Ok(())
    }

    /// Releases the slots at and above `new_mapped_pages` and drops their
    /// mappings from the table.
    pub(crate) fn truncate(&mut self, new_mapped_pages: usize) -> Result<()> {
        let mapped_pages = self.table.slot_span();
        if new_mapped_pages >= mapped_pages {
            return Ok(());
        }
        // SAFETY: `new_mapped_pages < mapped_pages <= capacity_pages`, so
        // the address stays inside the reservation.
        let addr = unsafe { self.base.add(new_mapped_pages * PAGE_SIZE_BYTES) };
        // Re-cover the released slots with fresh anonymous memory so the
        // reservation stays intact and the slots can be reused later.
        // SAFETY: MAP_FIXED replaces only the tail `[new_mapped_pages,
        // mapped_pages)` of this view's own reservation, and `&mut self`
        // rules out page slices borrowed from it.
        let ptr = unsafe {
            libc::mmap(
                addr as *mut libc::c_void,
                (mapped_pages - new_mapped_pages) * PAGE_SIZE_BYTES,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_FIXED | libc::MAP_NORESERVE,
                -1,
                0,
            )
        };
        if ptr == libc::MAP_FAILED {
            return Err(VmemError::last_os_error("mmap(anonymous re-cover)"));
        }
        self.table.truncate(new_mapped_pages);
        Ok(())
    }
}

impl ViewBuffer for MmapView {
    fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    fn mapped_pages(&self) -> usize {
        self.table.slot_span()
    }

    fn page(&self, slot: usize) -> &[u64] {
        assert!(
            slot < self.mapped_pages(),
            "view slot {slot} out of bounds ({} mapped pages)",
            self.mapped_pages()
        );
        // SAFETY: bounds checked; every slot below the mapped prefix lies
        // inside the reservation, which stays mapped (to the store, or to
        // anonymous zero pages for a never-mapped gap) while the view lives.
        unsafe {
            std::slice::from_raw_parts(
                self.base.add(slot * PAGE_SIZE_BYTES) as *const u64,
                SLOTS_PER_PAGE,
            )
        }
    }

    fn mapping(&self) -> &MappingTable {
        &self.table
    }

    fn base_addr(&self) -> Option<usize> {
        Some(self.base as usize)
    }
}

impl Drop for MmapView {
    fn drop(&mut self) {
        if !self.base.is_null() {
            // SAFETY: `base` is the reservation of exactly `capacity_pages`
            // pages made in `reserve`; the view owns it and nothing uses it
            // after drop.
            unsafe {
                libc::munmap(
                    self.base as *mut libc::c_void,
                    self.capacity_pages * PAGE_SIZE_BYTES,
                );
            }
        }
    }
}

impl Backend for MmapBackend {
    type Store = MmapStore;
    type View = MmapView;

    fn name(&self) -> &'static str {
        "mmap"
    }

    fn create_store(&self, num_pages: usize) -> Result<MmapStore> {
        let bytes = num_pages * PAGE_SIZE_BYTES;
        let fd = self.create_memory_file(bytes)?;
        let base = if bytes == 0 {
            std::ptr::null_mut()
        } else {
            // SAFETY: a fresh shared mapping of the file just sized to
            // `bytes`, at an address the kernel picks; no existing memory is
            // affected.
            let ptr = unsafe {
                libc::mmap(
                    std::ptr::null_mut(),
                    bytes,
                    libc::PROT_READ | libc::PROT_WRITE,
                    libc::MAP_SHARED,
                    fd,
                    0,
                )
            };
            if ptr == libc::MAP_FAILED {
                let err = VmemError::last_os_error("mmap(store)");
                // SAFETY: `fd` is still owned here and not used afterwards.
                unsafe { libc::close(fd) };
                return Err(err);
            }
            ptr as *mut u8
        };
        Ok(MmapStore {
            fd,
            num_pages,
            base,
        })
    }

    fn reserve_view(&self, _store: &MmapStore, capacity_pages: usize) -> Result<MmapView> {
        MmapView::reserve(capacity_pages)
    }

    fn map_run(&self, store: &MmapStore, view: &mut MmapView, req: MapRequest) -> Result<()> {
        view.map_run(store.fd, store.num_pages, req)
    }

    fn truncate_view(&self, view: &mut MmapView, new_mapped_pages: usize) -> Result<()> {
        view.truncate(new_mapped_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maps::kernel_mapping_tables;

    fn backend() -> MmapBackend {
        MmapBackend::new()
    }

    /// Writes a recognizable pattern into a page: slot 0 = page id,
    /// remaining slots = `id * 1000 + slot`.
    fn fill_page(store: &mut MmapStore, page: usize) {
        let data = store.page_mut(page);
        data[0] = page as u64;
        for (i, slot) in data.iter_mut().enumerate().skip(1) {
            *slot = (page * 1000 + i) as u64;
        }
    }

    #[test]
    fn store_pages_are_zero_initialized() {
        let b = backend();
        let store = b.create_store(4).unwrap();
        assert_eq!(store.num_pages(), 4);
        for p in 0..4 {
            assert!(store.page(p).iter().all(|&v| v == 0));
        }
    }

    #[test]
    fn store_write_read_roundtrip() {
        let b = backend();
        let mut store = b.create_store(8).unwrap();
        for p in 0..8 {
            fill_page(&mut store, p);
        }
        for p in 0..8 {
            let page = store.page(p);
            assert_eq!(page[0], p as u64);
            assert_eq!(page[1], (p * 1000 + 1) as u64);
            assert_eq!(
                page[SLOTS_PER_PAGE - 1],
                (p * 1000 + SLOTS_PER_PAGE - 1) as u64
            );
        }
    }

    #[test]
    fn empty_store_is_allowed() {
        let b = backend();
        let store = b.create_store(0).unwrap();
        assert_eq!(store.num_pages(), 0);
        let view = b.reserve_view(&store, 0).unwrap();
        assert_eq!(view.capacity_pages(), 0);
        assert_eq!(view.mapped_pages(), 0);
    }

    #[test]
    fn rewired_view_reads_scattered_pages_in_slot_order() {
        let b = backend();
        let mut store = b.create_store(16).unwrap();
        for p in 0..16 {
            fill_page(&mut store, p);
        }
        let mut view = b.reserve_view(&store, 16).unwrap();
        // Map pages 5, 6, 7 (one run) and page 12 (second run).
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
    }

    #[test]
    fn writes_through_store_are_visible_in_views() {
        let b = backend();
        let mut store = b.create_store(4).unwrap();
        let mut view = b.reserve_view(&store, 4).unwrap();
        b.map_run(&store, &mut view, MapRequest::single(0, 2))
            .unwrap();
        store.page_mut(2)[10] = 0xDEAD_BEEF;
        assert_eq!(view.page(0)[10], 0xDEAD_BEEF);
    }

    #[test]
    fn full_view_maps_whole_store_in_order() {
        let b = backend();
        let mut store = b.create_store(10).unwrap();
        for p in 0..10 {
            fill_page(&mut store, p);
        }
        let full = b.create_full_view(&store).unwrap();
        assert_eq!(full.mapped_pages(), 10);
        for (slot, page) in full.iter_pages().enumerate() {
            assert_eq!(page[0], slot as u64);
        }
    }

    #[test]
    fn truncate_releases_tail_slots() {
        let b = backend();
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
        // Truncating to a larger value is a no-op.
        b.truncate_view(&mut view, 7).unwrap();
        assert_eq!(view.mapped_pages(), 2);
        // Released slots can be remapped.
        b.map_run(&store, &mut view, MapRequest::single(2, 7))
            .unwrap();
        assert_eq!(view.mapped_pages(), 3);
    }

    #[test]
    fn map_run_bounds_are_checked() {
        let b = backend();
        let store = b.create_store(4).unwrap();
        let mut view = b.reserve_view(&store, 2).unwrap();
        // Slot range exceeds view capacity.
        assert!(b
            .map_run(
                &store,
                &mut view,
                MapRequest {
                    slot: 1,
                    phys_page: 0,
                    len: 2
                }
            )
            .is_err());
        // Physical range exceeds store size.
        assert!(b
            .map_run(
                &store,
                &mut view,
                MapRequest {
                    slot: 0,
                    phys_page: 3,
                    len: 2
                }
            )
            .is_err());
        // Zero-length mapping is a no-op.
        b.map_run(
            &store,
            &mut view,
            MapRequest {
                slot: 0,
                phys_page: 0,
                len: 0,
            },
        )
        .unwrap();
        assert_eq!(view.mapped_pages(), 0);
    }

    #[test]
    fn mapping_table_reflects_rewiring() {
        let b = backend();
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
        assert_eq!(table.phys_for_slot(1), Some(11));
        assert_eq!(table.phys_for_slot(2), Some(30));
        assert_eq!(table.slot_for_phys(30), Some(2));
        assert!(!table.contains_phys(0));
        // The kernel agrees, and the trait method hands out a copy.
        let kernel = kernel_mapping_tables(&[&view]).unwrap().unwrap();
        assert_eq!(&kernel[0], table);
        assert_eq!(&b.mapping_table(&store, &view).unwrap(), table);
    }

    #[test]
    fn rejected_calls_leave_the_table_as_the_kernel_has_it() {
        let b = backend();
        let store = b.create_store(4).unwrap();
        let mut view = b.reserve_view(&store, 3).unwrap();
        b.map_run(&store, &mut view, MapRequest::single(0, 2))
            .unwrap();
        let before = view.mapping().clone();
        for req in [
            MapRequest {
                slot: 2,
                phys_page: 0,
                len: 2,
            },
            MapRequest {
                slot: 1,
                phys_page: 3,
                len: 2,
            },
        ] {
            assert!(b.map_run(&store, &mut view, req).is_err());
            assert_eq!(view.mapping(), &before);
            let kernel = kernel_mapping_tables(&[&view]).unwrap().unwrap();
            assert_eq!(kernel[0], before);
        }
        assert_eq!(view.mapped_pages(), 1);
    }

    /// The file the backend falls back to where `memfd_create` fails.
    #[test]
    fn tmpfs_backend_works_when_dev_shm_exists() {
        use std::os::fd::FromRawFd;
        use std::os::unix::fs::MetadataExt;
        let dir = std::path::Path::new("/dev/shm");
        if !dir.is_dir() {
            return; // environment without tmpfs mount
        }
        let fd = MmapBackend::create_tmpfs_file(dir).unwrap();
        // SAFETY: `fd` was just opened and nothing else owns it.
        let file = unsafe { std::fs::File::from_raw_fd(fd) };
        file.set_len(2 * PAGE_SIZE_BYTES as u64).unwrap();
        let meta = file.metadata().unwrap();
        assert_eq!(meta.nlink(), 0, "unlinked right after creation");
        assert_eq!(meta.len(), 2 * PAGE_SIZE_BYTES as u64);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_page_out_of_bounds_panics() {
        let b = backend();
        let store = b.create_store(2).unwrap();
        let view = b.reserve_view(&store, 2).unwrap();
        let _ = view.page(0); // nothing mapped yet
    }

    #[test]
    fn remapping_a_slot_changes_its_target() {
        let b = backend();
        let mut store = b.create_store(4).unwrap();
        for p in 0..4 {
            fill_page(&mut store, p);
        }
        let mut view = b.reserve_view(&store, 4).unwrap();
        b.map_run(&store, &mut view, MapRequest::single(0, 1))
            .unwrap();
        assert_eq!(view.page(0)[0], 1);
        // Rewire the same slot to another physical page — the essence of
        // "update the mapping freely at page granularity during runtime".
        b.map_run(&store, &mut view, MapRequest::single(0, 3))
            .unwrap();
        assert_eq!(view.page(0)[0], 3);
        assert_eq!(view.mapped_pages(), 1);
    }
}
