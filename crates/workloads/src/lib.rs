//! Workload generators for the paper's evaluation.
//!
//! * [`Distribution`] — the four data distributions of §3 / Figure 2
//!   (uniform, linear, sine, sparse), generated page-clustered exactly like
//!   the paper describes them ("clustered data distributions, as seen in
//!   time series or sensor data").
//! * [`QueryWorkload`] — the query sequences of §3.2/§3.3: a shuffled
//!   selectivity sweep (Figure 4) and fixed-selectivity sequences
//!   (Figure 5).
//! * [`UpdateWorkload`] — random point updates (§3.1 and §3.4), plus
//!   hot-zone-churn rounds whose writes stay inside a moving row window
//!   with page-local values, the workload that checks alignment skips the
//!   views a batch does not meet (beyond the paper).
//! * [`TableWorkload`] — multi-column tables with
//!   correlated/anti-correlated/independent columns plus conjunctive query
//!   sequences, the workload of the multi-column query planner (beyond the
//!   paper).
//! * [`MixedWorkload`] — interleaved read/write streams whose write bursts
//!   arrive mid-alignment, the workload of the write-ingestion subsystem
//!   (beyond the paper).
//! * [`ServeWorkload`] — barrier-phased rounds of range/conjunctive reads
//!   interleaved with zipfian-skewed write bursts, the workload of the
//!   concurrent serving layer (beyond the paper).
//! * [`KernelWorkload`] — the isolated inputs of the `filter-kernel`
//!   microbench: a uniform column plus seeded exclusion/probe row sets and
//!   selectivity-targeted predicate ranges (beyond the paper).
//!
//! All generators are seeded and fully deterministic for a given seed.

pub mod distributions;
pub mod kernels;
pub mod queries;
pub mod streams;
pub mod tables;
pub mod updates;

pub use distributions::{Distribution, DEFAULT_MAX_VALUE};
pub use kernels::KernelWorkload;
pub use queries::{QueryWorkload, SweepSpec};
pub use streams::{
    MixedOp, MixedSpec, MixedWorkload, ServeReadOp, ServeRound, ServeSpec, ServeWorkload,
};
pub use tables::{ColumnCorrelation, ConjunctiveQuery, TableWorkload};
pub use updates::{ChurnRound, UpdateWorkload};
