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
//! * [`Parallelism`] / [`ThreadPool`] — single-value leftovers of a
//!   removed fork-join pool: every scan, probe and alignment plan runs on
//!   its caller's thread.
//! * [`EpochCell`] — a single-publisher, many-reader epoch-pinned value
//!   cell (userspace RCU on std atomics), the primitive behind the
//!   concurrent serving layer's snapshot handoff.
//! * [`Timer`] and [`Summary`] — tiny measurement helpers for the
//!   experiment harness.

#![warn(missing_docs)]

pub mod bitvec;
pub mod epoch;
pub mod range;
pub mod runs;
pub mod stats;

pub use bitvec::BitVec;
pub use epoch::{EpochCell, Pinned, Reader};
pub use range::ValueRange;
pub use runs::{group_into_runs, Run, RunBuilder};
pub use stats::{average_runtime, Summary, Timer};

/// The one degree of parallelism: the caller's thread. Stays only because
/// `benchmark/src/sut.rs` names it; ROADMAP item 12(a) deletes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run on the calling thread.
    #[default]
    Sequential,
}

/// A pool of no workers. Stays only because `benchmark/src/sut.rs` names
/// it; ROADMAP item 12(a) deletes it.
#[derive(Debug)]
pub struct ThreadPool;

impl ThreadPool {
    /// The pool for `Parallelism::Sequential`: scans run on their caller.
    pub fn new(_: Parallelism) -> Self {
        Self
    }
}
