//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each `figN` module sets up the exact workload of the corresponding figure
//! (scaled by a [`Scale`] preset), runs it, and returns plain row structs
//! that the `experiments` binary prints as aligned tables / CSV.
//!
//! Timing claims are measured by the benchmark of record (`benchmark/`,
//! its own package); exactness is checked by the integration tests. This
//! crate keeps the paper's figure drivers and the process-level hook the
//! kill-and-recover test needs.
//!
//! | Module | Paper artefact |
//! |--------|----------------|
//! | [`fig3`] | Figure 3 — explicit vs virtual partial views |
//! | [`fig4`] | Figure 4 — adaptive query processing, single-view mode |
//! | [`fig5`] | Figure 5 — adaptive query processing, multi-view mode |
//! | [`fig6`] | Figure 6 — impact of view-creation optimizations |
//! | [`fig7`] | Figure 7 — update performance |
//! | [`table1`] | Table 1 — accumulated response times |
//! | [`recover`] | Journaled ingest and recovery for the kill-and-recover test (beyond the paper) |

pub mod ablation;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod recover;
pub mod report;
pub mod scale;
pub mod table1;

pub use report::{write_csv, Table};
pub use scale::Scale;

/// The default RNG seed used by every experiment unless overridden.
pub const DEFAULT_SEED: u64 = 0xA51CE;
