//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each `figN` module sets up the exact workload of the corresponding figure
//! (scaled by a [`Scale`] preset), runs it, and returns plain row structs
//! that the `experiments` binary prints as aligned tables / CSV and that the
//! Criterion benches re-use as their measured bodies.
//!
//! | Module | Paper artefact |
//! |--------|----------------|
//! | [`fig3`] | Figure 3 — explicit vs virtual partial views |
//! | [`fig4`] | Figure 4 — adaptive query processing, single-view mode |
//! | [`fig5`] | Figure 5 — adaptive query processing, multi-view mode |
//! | [`fig6`] | Figure 6 — impact of view-creation optimizations |
//! | [`fig7`] | Figure 7 — update performance |
//! | [`table1`] | Table 1 — accumulated response times |
//! | [`scaling`] | Multicore scaling of the scan path (beyond the paper) |
//! | [`align_overlap`] | Query throughput during view alignment (beyond the paper) |
//! | [`table_scan`] | Planned vs naive multi-column conjunctive scans (beyond the paper) |
//! | [`filter_kernel`] | Chunked vs scalar page-filter kernels (beyond the paper) |
//! | [`serve`] | Concurrent serving: read throughput/tail latency vs client count (beyond the paper) |
//! | [`recover`] | Durable tier: journal overhead and crash-recovery time (beyond the paper) |
//!
//! The [`compare`] module diffs two `--csv-dir` outputs (the `compare`
//! subcommand of the `experiments` binary), making timing changes between
//! two commits reviewable.

pub mod ablation;
pub mod align_overlap;
pub mod compare;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod filter_kernel;
pub mod recover;
pub mod report;
pub mod scale;
pub mod scaling;
pub mod serve;
pub mod table1;
pub mod table_scan;

pub use report::{write_csv, Table};
pub use scale::Scale;

/// The default RNG seed used by every experiment unless overridden.
pub const DEFAULT_SEED: u64 = 0xA51CE;
