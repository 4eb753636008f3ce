//! Columnar storage layer backed by main-memory files.
//!
//! This crate materializes the *physical* side of the paper's design
//! (Figure 1): every column of every table is stored as a sequence of 4 KiB
//! pages inside a physical store provided by `asv-vmem`. Each page embeds
//! its pageID in slot 0 (paper §2) so that scans over arbitrarily-rewired
//! partial views can still attribute every value to its tuple.
//!
//! The crate deliberately stops at the storage-layer interface the paper
//! starts from — `value(row)`, full-column scans, update application — and
//! leaves everything view-related to `asv-core`.

pub mod column;
pub mod kernel;
pub mod page;
pub mod simd;
pub mod updates;

pub use column::Column;
pub use kernel::{probe_rows, scan_view, ScanKernel, ScanMode, ScanOutput};
pub use page::{PageRef, PageScanResult};
pub use simd::{
    copy_values_chunked, fold_min_max_chunked, ExclusionMasks, PageExclusionMask, QualifyMask,
    LANES,
};
pub use updates::{PageGroups, Update, UpdateBatch};

pub use asv_vmem::{PAGE_SIZE_BYTES, SLOTS_PER_PAGE, VALUES_PER_PAGE};
