//! Virtual-memory rewiring substrate for the adaptive storage layer.
//!
//! The paper builds its storage views on *memory rewiring* (Schuhknecht et
//! al., "RUMA has it", PVLDB 2016): physical main memory is introduced to
//! user-space as a **main-memory file** (a memfd / tmpfs-backed file), and
//! virtual memory areas are freely re-mapped onto arbitrary pages of that
//! file with `mmap(MAP_FIXED)` at page granularity (paper §1.2).
//!
//! This crate provides that substrate behind the [`Backend`] trait:
//!
//! * [`MmapBackend`] — the real thing: memfd/tmpfs main-memory files,
//!   anonymous virtual reservations and `MAP_FIXED` rewiring. Linux only.
//! * [`FileBackend`] — the same rewiring over named files on disk, with
//!   explicit `msync`/`fsync` flushes. Linux only.
//! * [`SimBackend`] — a deterministic, allocation-based simulation of the
//!   same interface (the mapping table resolved in software). It exists so
//!   every algorithm in the upper layers can be unit- and property-tested
//!   on any platform and without touching the VM subsystem.
//! * [`AnyBackend`] — a runtime-selectable enum over the three, used by the
//!   experiment drivers, benches and examples (`--backend sim|mmap`). Its
//!   default is the mmap backend on Linux and the simulation elsewhere;
//!   published measurements should always come from the mmap backend.
//!
//! The two central objects are:
//!
//! * a **physical store** ([`PhysicalStore`]) — the materialized column
//!   memory, addressed by *physical page number*;
//! * a **view buffer** ([`ViewBuffer`]) — an over-allocated virtual memory
//!   area whose page slots can be mapped to arbitrary physical pages of one
//!   store. Scanning a view touches only the mapped prefix, which is exactly
//!   how partial views reduce scan work. Every view owns its slot →
//!   physical-page [`MappingTable`], kept current by the rewiring calls;
//!   where the paper parses `/proc/PID/maps` once per update batch (§2.5),
//!   this crate keeps that parse only as a test oracle (see [`maps`]).

pub mod any;
pub mod backend;
pub mod error;
#[cfg(all(feature = "mmap", target_os = "linux"))]
pub mod file;
pub mod layout;
pub mod maps;
#[cfg(all(feature = "mmap", target_os = "linux"))]
pub mod mmap;
pub mod sim;

pub use any::{AnyBackend, AnyStore, AnyView};
pub use backend::{Backend, MapRequest, PhysicalStore, ViewBuffer};
pub use error::{Result, VmemError};
#[cfg(all(feature = "mmap", target_os = "linux"))]
pub use file::{FileBackend, FileStore};
pub use layout::{PAGE_SIZE_BYTES, SLOTS_PER_PAGE, VALUES_PER_PAGE};
pub use maps::{parse_maps_line, MappingTable, ProcMapsEntry};
#[cfg(all(feature = "mmap", target_os = "linux"))]
pub use mmap::{MmapBackend, MmapStore, MmapView};
pub use sim::{SimBackend, SimStore, SimView};
