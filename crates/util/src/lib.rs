//! Utility data structures shared across the adaptive-storage-views workspace.
//!
//! This crate intentionally has no dependencies besides the standard library.
//! It provides the small, heavily-exercised building blocks that the paper's
//! algorithms rely on:
//!
//! * [`BitVec`] — the fixed-size bitvector used to track already-processed
//!   physical pages during multi-view query answering (paper §2.1).
//! * [`ValueRange`] — closed integer ranges `[l, u]` with the "full range"
//!   (`[-∞, ∞]`) semantics views are described with (paper §2).
//! * [`RunBuilder`] / [`Run`] — grouping of consecutive page numbers into
//!   runs, used by the consecutive-mapping optimization (paper §2.3).
//! * [`ThreadPool`] / [`Parallelism`] — a hand-rolled scoped fork-join pool
//!   powering the sharded parallel scan path.
//! * [`EpochCell`] — a single-publisher, many-reader epoch-pinned value
//!   cell (userspace RCU on std atomics), the primitive behind the
//!   concurrent serving layer's snapshot handoff.
//! * [`Timer`] and [`Summary`] — tiny measurement helpers for the
//!   experiment harness.

#![warn(missing_docs)]

pub mod bitvec;
pub mod epoch;
pub mod pool;
pub mod range;
pub mod runs;
pub mod stats;

pub use bitvec::BitVec;
pub use epoch::{EpochCell, Pinned, Reader};
pub use pool::{available_parallelism, split_ranges, Parallelism, ThreadPool};
pub use range::ValueRange;
pub use runs::{group_into_runs, Run, RunBuilder};
pub use stats::{average_runtime, Summary, Timer};
