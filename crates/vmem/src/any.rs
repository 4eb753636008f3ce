//! A runtime-selectable rewiring backend.
//!
//! The upper layers are generic over [`Backend`], which is ideal for tests
//! and for monomorphized hot loops — but the experiment drivers, examples
//! and the `experiments` binary need to pick the backend *at runtime*
//! (`--backend sim|mmap`) without duplicating every code path per backend.
//! [`AnyBackend`] closes that gap: an enum over the available backends that
//! itself implements [`Backend`] by delegating per variant, the same
//! sim-vs-real split systems like Virtuoso or the Virtual Block Interface
//! use to keep VM research runnable off one specific kernel.
//!
//! On Linux (with the default `mmap` feature) both variants exist and
//! [`AnyBackend::default_backend`] picks the real rewiring backend; on every
//! other platform only the simulation variant is compiled and selected.
//!
//! Mixing variants — e.g. passing a store created by the sim variant to the
//! mmap variant — is a programming error and reported as
//! [`VmemError::Unsupported`].

use crate::backend::{Backend, MapRequest, PhysicalStore, ViewBuffer};
use crate::error::{Result, VmemError};
#[cfg(all(feature = "mmap", target_os = "linux"))]
use crate::file::{FileBackend, FileStore};
use crate::maps::MappingTable;
#[cfg(all(feature = "mmap", target_os = "linux"))]
use crate::mmap::{MmapBackend, MmapStore, MmapView};
use crate::sim::{SimBackend, SimStore, SimView};

/// Error used whenever a store/view of one variant meets a backend of
/// another. With a single compiled variant no mismatch can occur.
#[cfg(all(feature = "mmap", target_os = "linux"))]
const MISMATCH: VmemError =
    VmemError::Unsupported("store/view belongs to a different AnyBackend variant");

/// A rewiring backend selected at runtime.
#[derive(Clone, Debug)]
pub enum AnyBackend {
    /// The portable, deterministic simulation backend.
    Sim(SimBackend),
    /// The real memory-rewiring backend (Linux only).
    #[cfg(all(feature = "mmap", target_os = "linux"))]
    Mmap(MmapBackend),
    /// The durable file-backed rewiring backend (Linux only).
    #[cfg(all(feature = "mmap", target_os = "linux"))]
    File(FileBackend),
}

impl AnyBackend {
    /// The simulation backend (available on every platform).
    pub fn sim() -> Self {
        AnyBackend::Sim(SimBackend::new())
    }

    /// The real mmap backend.
    #[cfg(all(feature = "mmap", target_os = "linux"))]
    pub fn mmap() -> Self {
        AnyBackend::Mmap(MmapBackend::new())
    }

    /// The durable file-backed backend, storing under a process-unique
    /// temp directory (see [`FileBackend::temp`]).
    #[cfg(all(feature = "mmap", target_os = "linux"))]
    pub fn file() -> Self {
        AnyBackend::File(FileBackend::temp())
    }

    /// The durable file-backed backend, storing under `dir`.
    #[cfg(all(feature = "mmap", target_os = "linux"))]
    pub fn file_in(dir: impl Into<std::path::PathBuf>) -> Self {
        AnyBackend::File(FileBackend::with_dir(dir))
    }

    /// The preferred backend of this platform: real memory rewiring where
    /// it exists (Linux), the simulation everywhere else.
    pub fn default_backend() -> Self {
        #[cfg(all(feature = "mmap", target_os = "linux"))]
        {
            Self::mmap()
        }
        #[cfg(not(all(feature = "mmap", target_os = "linux")))]
        {
            Self::sim()
        }
    }

    /// Looks up a backend by its [`Backend::name`]
    /// (`"sim"` / `"mmap"` / `"file"`).
    ///
    /// Returns `None` for unknown names and for backends not available on
    /// this platform (e.g. `"mmap"` and `"file"` off Linux).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "sim" => Some(Self::sim()),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            "mmap" => Some(Self::mmap()),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            "file" => Some(Self::file()),
            _ => None,
        }
    }

    /// Resolves an optional backend name — e.g. the first CLI argument of
    /// an example or tool — to a backend: `None` selects the platform
    /// default, `Some(name)` must be one of [`AnyBackend::available_names`].
    ///
    /// # Errors
    /// [`VmemError::UnknownBackend`] for any other name; its message names
    /// the valid choices.
    pub fn from_optional_name(name: Option<&str>) -> Result<Self> {
        match name {
            None => Ok(Self::default_backend()),
            Some(n) => Self::from_name(n).ok_or_else(|| VmemError::UnknownBackend(n.to_owned())),
        }
    }

    /// Reads the backend choice from the process's first CLI argument —
    /// the convention of this workspace's examples (see
    /// [`Self::from_optional_name`]).
    ///
    /// # Errors
    /// [`VmemError::UnknownBackend`] if the argument names no backend.
    pub fn from_cli_arg() -> Result<Self> {
        Self::from_optional_name(std::env::args().nth(1).as_deref())
    }

    /// Names accepted by [`AnyBackend::from_name`] on this platform.
    pub fn available_names() -> &'static [&'static str] {
        #[cfg(all(feature = "mmap", target_os = "linux"))]
        {
            &["sim", "mmap", "file"]
        }
        #[cfg(not(all(feature = "mmap", target_os = "linux")))]
        {
            &["sim"]
        }
    }
}

impl Default for AnyBackend {
    fn default() -> Self {
        Self::default_backend()
    }
}

/// A physical store created by an [`AnyBackend`].
pub enum AnyStore {
    /// Store of the simulation variant.
    Sim(SimStore),
    /// Store of the mmap variant.
    #[cfg(all(feature = "mmap", target_os = "linux"))]
    Mmap(MmapStore),
    /// Store of the file variant.
    #[cfg(all(feature = "mmap", target_os = "linux"))]
    File(FileStore),
}

impl AnyStore {
    /// The durable [`FileStore`] inside, if this store belongs to the file
    /// variant.
    #[cfg(all(feature = "mmap", target_os = "linux"))]
    pub fn as_file(&self) -> Option<&FileStore> {
        match self {
            AnyStore::File(s) => Some(s),
            _ => None,
        }
    }

    /// Synchronously flushes the store to stable storage where the backend
    /// is durable (`msync` + `fsync` on the file variant); a no-op on
    /// memory-only variants.
    pub fn sync_all(&self) -> Result<()> {
        #[cfg(all(feature = "mmap", target_os = "linux"))]
        if let AnyStore::File(s) = self {
            return s.sync_all();
        }
        Ok(())
    }

    /// Flushes a run of pages to stable storage where the backend is
    /// durable (`msync(MS_SYNC)` on the file variant); a no-op elsewhere.
    pub fn flush_pages(&self, first_page: usize, len: usize) -> Result<()> {
        #[cfg(all(feature = "mmap", target_os = "linux"))]
        if let AnyStore::File(s) = self {
            return s.flush_pages(first_page, len);
        }
        let _ = (first_page, len);
        Ok(())
    }
}

impl PhysicalStore for AnyStore {
    fn num_pages(&self) -> usize {
        match self {
            AnyStore::Sim(s) => s.num_pages(),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            AnyStore::Mmap(s) => s.num_pages(),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            AnyStore::File(s) => s.num_pages(),
        }
    }

    fn page(&self, phys_page: usize) -> &[u64] {
        match self {
            AnyStore::Sim(s) => s.page(phys_page),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            AnyStore::Mmap(s) => s.page(phys_page),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            AnyStore::File(s) => s.page(phys_page),
        }
    }

    fn page_mut(&mut self, phys_page: usize) -> &mut [u64] {
        match self {
            AnyStore::Sim(s) => s.page_mut(phys_page),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            AnyStore::Mmap(s) => s.page_mut(phys_page),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            AnyStore::File(s) => s.page_mut(phys_page),
        }
    }

    fn fill_pages(&mut self, fill: &mut dyn FnMut(usize, &mut [u64]) -> Result<()>) -> Result<()> {
        match self {
            AnyStore::Sim(s) => s.fill_pages(fill),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            AnyStore::Mmap(s) => s.fill_pages(fill),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            AnyStore::File(s) => s.fill_pages(fill),
        }
    }
}

/// A view buffer created by an [`AnyBackend`].
pub enum AnyView {
    /// View of the simulation variant.
    Sim(SimView),
    /// View of the mmap variant.
    #[cfg(all(feature = "mmap", target_os = "linux"))]
    Mmap(MmapView),
    /// View of the file variant (file-backed stores share the mmap view
    /// type — views are process-local virtual memory either way).
    #[cfg(all(feature = "mmap", target_os = "linux"))]
    File(MmapView),
}

impl ViewBuffer for AnyView {
    fn capacity_pages(&self) -> usize {
        match self {
            AnyView::Sim(v) => v.capacity_pages(),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            AnyView::Mmap(v) | AnyView::File(v) => v.capacity_pages(),
        }
    }

    fn mapped_pages(&self) -> usize {
        match self {
            AnyView::Sim(v) => v.mapped_pages(),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            AnyView::Mmap(v) | AnyView::File(v) => v.mapped_pages(),
        }
    }

    fn page(&self, slot: usize) -> &[u64] {
        match self {
            AnyView::Sim(v) => v.page(slot),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            AnyView::Mmap(v) | AnyView::File(v) => v.page(slot),
        }
    }

    fn mapping(&self) -> &MappingTable {
        match self {
            AnyView::Sim(v) => v.mapping(),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            AnyView::Mmap(v) | AnyView::File(v) => v.mapping(),
        }
    }

    fn base_addr(&self) -> Option<usize> {
        match self {
            AnyView::Sim(v) => v.base_addr(),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            AnyView::Mmap(v) | AnyView::File(v) => v.base_addr(),
        }
    }
}

impl Backend for AnyBackend {
    type Store = AnyStore;
    type View = AnyView;

    fn name(&self) -> &'static str {
        match self {
            AnyBackend::Sim(b) => b.name(),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            AnyBackend::Mmap(b) => b.name(),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            AnyBackend::File(b) => b.name(),
        }
    }

    fn create_store(&self, num_pages: usize) -> Result<AnyStore> {
        match self {
            AnyBackend::Sim(b) => Ok(AnyStore::Sim(b.create_store(num_pages)?)),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            AnyBackend::Mmap(b) => Ok(AnyStore::Mmap(b.create_store(num_pages)?)),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            AnyBackend::File(b) => Ok(AnyStore::File(b.create_store(num_pages)?)),
        }
    }

    fn reserve_view(&self, store: &AnyStore, capacity_pages: usize) -> Result<AnyView> {
        match (self, store) {
            (AnyBackend::Sim(b), AnyStore::Sim(s)) => {
                Ok(AnyView::Sim(b.reserve_view(s, capacity_pages)?))
            }
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            (AnyBackend::Mmap(b), AnyStore::Mmap(s)) => {
                Ok(AnyView::Mmap(b.reserve_view(s, capacity_pages)?))
            }
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            (AnyBackend::File(b), AnyStore::File(s)) => {
                Ok(AnyView::File(b.reserve_view(s, capacity_pages)?))
            }
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            _ => Err(MISMATCH),
        }
    }

    fn map_run(&self, store: &AnyStore, view: &mut AnyView, req: MapRequest) -> Result<()> {
        match (self, store, view) {
            (AnyBackend::Sim(b), AnyStore::Sim(s), AnyView::Sim(v)) => b.map_run(s, v, req),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            (AnyBackend::Mmap(b), AnyStore::Mmap(s), AnyView::Mmap(v)) => b.map_run(s, v, req),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            (AnyBackend::File(b), AnyStore::File(s), AnyView::File(v)) => b.map_run(s, v, req),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            _ => Err(MISMATCH),
        }
    }

    fn truncate_view(&self, view: &mut AnyView, new_mapped_pages: usize) -> Result<()> {
        match (self, view) {
            (AnyBackend::Sim(b), AnyView::Sim(v)) => b.truncate_view(v, new_mapped_pages),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            (AnyBackend::Mmap(b), AnyView::Mmap(v)) => b.truncate_view(v, new_mapped_pages),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            (AnyBackend::File(b), AnyView::File(v)) => b.truncate_view(v, new_mapped_pages),
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            _ => Err(MISMATCH),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(backend: AnyBackend) {
        let mut store = backend.create_store(8).unwrap();
        for p in 0..8 {
            let page = store.page_mut(p);
            page[0] = p as u64;
            page[1] = 1000 + p as u64;
        }
        let mut view = backend.reserve_view(&store, 8).unwrap();
        backend
            .map_run(
                &store,
                &mut view,
                MapRequest {
                    slot: 0,
                    phys_page: 3,
                    len: 2,
                },
            )
            .unwrap();
        backend
            .map_run(&store, &mut view, MapRequest::single(2, 7))
            .unwrap();
        let ids: Vec<u64> = view.iter_pages().map(|p| p[0]).collect();
        assert_eq!(ids, vec![3, 4, 7]);
        let table = backend.mapping_table(&store, &view).unwrap();
        assert_eq!(table.phys_pages_sorted(), vec![3, 4, 7]);
        let tables = backend.mapping_tables(&store, &[&view]).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].phys_for_slot(2), Some(7));
        backend.truncate_view(&mut view, 1).unwrap();
        assert_eq!(view.mapped_pages(), 1);
        // Writes stay visible through the enum wrappers.
        store.page_mut(3)[5] = 42;
        assert_eq!(view.page(0)[5], 42);
        let full = backend.create_full_view(&store).unwrap();
        assert_eq!(full.mapped_pages(), 8);
        assert_eq!(full.capacity_pages(), 8);
    }

    #[test]
    fn sim_variant_behaves_like_sim_backend() {
        assert_eq!(AnyBackend::sim().name(), "sim");
        exercise(AnyBackend::sim());
    }

    #[cfg(all(feature = "mmap", target_os = "linux"))]
    #[test]
    fn mmap_variant_behaves_like_mmap_backend() {
        assert_eq!(AnyBackend::mmap().name(), "mmap");
        exercise(AnyBackend::mmap());
    }

    #[cfg(all(feature = "mmap", target_os = "linux"))]
    #[test]
    fn file_variant_behaves_like_file_backend() {
        let b = AnyBackend::file();
        assert_eq!(b.name(), "file");
        let dir = match &b {
            AnyBackend::File(f) => f.dir().to_path_buf(),
            _ => unreachable!(),
        };
        exercise(b);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sync_is_a_noop_on_memory_backends() {
        let b = AnyBackend::sim();
        let store = b.create_store(2).unwrap();
        store.sync_all().unwrap();
        store.flush_pages(0, 2).unwrap();
        #[cfg(all(feature = "mmap", target_os = "linux"))]
        assert!(store.as_file().is_none());
    }

    #[test]
    fn from_name_resolves_platform_backends() {
        for &name in AnyBackend::available_names() {
            let b = AnyBackend::from_name(name).expect("advertised backend must resolve");
            assert_eq!(b.name(), name);
        }
        assert!(AnyBackend::from_name("quantum").is_none());
    }

    #[test]
    fn unknown_backend_names_are_errors() {
        let err = AnyBackend::from_optional_name(Some("quantum")).unwrap_err();
        assert!(matches!(&err, VmemError::UnknownBackend(n) if n == "quantum"));
        assert!(err.to_string().contains("available: sim"), "{err}");
        let default = AnyBackend::from_optional_name(None).unwrap();
        assert_eq!(default.name(), AnyBackend::default_backend().name());
    }

    #[test]
    fn default_backend_prefers_rewiring_on_linux() {
        let name = AnyBackend::default_backend().name();
        if cfg!(all(feature = "mmap", target_os = "linux")) {
            assert_eq!(name, "mmap");
        } else {
            assert_eq!(name, "sim");
        }
    }

    #[cfg(all(feature = "mmap", target_os = "linux"))]
    #[test]
    fn variant_mismatch_is_reported_not_crashed() {
        let sim = AnyBackend::sim();
        let mmap = AnyBackend::mmap();
        let sim_store = sim.create_store(2).unwrap();
        let mmap_store = mmap.create_store(2).unwrap();
        assert!(mmap.reserve_view(&sim_store, 2).is_err());
        let mut sim_view = sim.reserve_view(&sim_store, 2).unwrap();
        assert!(mmap
            .map_run(&mmap_store, &mut sim_view, MapRequest::single(0, 0))
            .is_err());
        assert!(mmap.truncate_view(&mut sim_view, 0).is_err());
    }
}
