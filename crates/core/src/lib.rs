//! The adaptive storage layer: virtual views, routing, adaptive maintenance.
//!
//! This crate is the paper's primary contribution. For each column it
//! maintains (paper §2):
//!
//! * (a) the physical column (owned by [`asv_storage::Column`]),
//! * (b) a set of virtual views — the full view plus adaptively created
//!   partial views ([`ViewSet`] / [`PartialView`]).
//!
//! On top of that it implements:
//!
//! * **query routing** to the most fitting view(s), in single-view and
//!   multi-view mode (paper §2.1, [`router`]),
//! * **adaptive partial-view creation** as a side-product of query
//!   processing, including the discard/replace retention policy
//!   (paper §2.2 / Listing 1, [`adaptive`]),
//! * **optimized view creation** with consecutive-run coalescing and a
//!   background mapping thread (paper §2.3, [`creation`]),
//! * **batched update alignment** of partial views driven by the
//!   materialized memory mapping (paper §2.4–2.5, [`updates`]),
//! * **background (epoch-handoff) alignment** that plans a batch's
//!   alignment for the views it meets on a worker thread while queries keep
//!   running against the pre-batch views, publishing the aligned set
//!   atomically by bumping the view-set generation ([`align`]),
//! * a **multi-column query planner** that orders the predicates of a
//!   conjunctive query by estimated result cardinality, drives the cheapest
//!   one through the adaptive path and evaluates the rest as semi-join
//!   probes over the surviving rows ([`plan`] / [`AdaptiveTable`]),
//! * a **concurrent serving layer** in which reader threads pin
//!   epoch-consistent snapshots (userspace RCU) and run full queries
//!   lock-free while one maintenance thread ingests writes and publishes
//!   re-aligned view epochs ([`serve`]).
//!
//! The entry points are [`AdaptiveColumn`], [`AdaptiveTable`] and
//! [`ServeTable`].

pub mod adaptive;
pub mod align;
pub mod config;
pub mod creation;
pub mod exec;
pub mod plan;
pub mod query;
pub mod router;
pub mod serve;
pub mod stats;
pub mod table;
pub mod updates;
pub mod view;
pub mod viewset;
pub mod wal;

pub use adaptive::AdaptiveColumn;
pub use align::{
    apply_chunked_plan, apply_plan, chunk_boundaries, plan_alignment_chunked, snapshot_alignment,
    spawn_alignment_chunked, AlignmentPlan, AlignmentSnapshot, ChunkedAlignmentPlan,
    PendingChunkedAlignment, ViewOp, ViewPlan, WriteOverlay,
};
pub use config::{AdaptiveConfig, AlignChunking, CreationOptions, RoutingMode};
// Re-exported so downstream crates can configure the parallel execution
// layer without depending on asv-util directly.
pub use asv_util::{Parallelism, ThreadPool};
pub use creation::{build_view_for_range, build_view_for_range_with, create_while_scanning};
pub use plan::{
    merge_same_column, plan_conjunctive, CardinalityEstimate, ConjunctivePlan, MergedPredicate,
    PlanInput, PlanStep, PlannerConfig, PredicateEstimate, ProbeTracker, StepKind, ZoneStats,
};
pub use query::{QueryExecution, QueryOutcome, RangeQuery, ViewMaintenance};
pub use router::{route, RouteSelection, ViewId};
pub use serve::{
    writer_shard_of, AlignActivity, ColumnEpoch, ConjunctiveAnswer, DurabilityConfig, RangeAnswer,
    RecoveryInfo, ServeTable, Snapshot, TableEpoch, TableHandle, TableWriter, ViewMeta,
};
pub use stats::{
    ChunkPublishRecord, ChunkPublishStats, ConjunctiveRecord, ConjunctiveStats, QueryRecord,
    SequenceStats,
};
pub use table::{AdaptiveTable, ConjunctiveOutcome};
pub use updates::{
    align_views_after_updates, align_views_after_updates_with, rebuild_all_views,
    UpdateAlignmentStats,
};
pub use view::PartialView;
pub use viewset::ViewSet;
pub use wal::{FaultKind, FaultPlan, Journal, ReplayOutcome, WalRecord};
