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
//!   materialized memory mapping (paper §2.4–2.5, [`updates`]), as three
//!   phases — snapshot, plan, publish ([`align`]),
//! * a **concurrent multi-column serving layer** in which reader threads
//!   pin epoch-consistent snapshots (userspace RCU) and run range and
//!   conjunctive queries lock-free while one maintenance thread ingests
//!   writes, plans each batch's alignment and publishes re-aligned view
//!   epochs ([`serve`]); conjunctions intersect the
//!   predicates' page sets and apply the predicates in the order of their
//!   zone-statistics estimates ([`zones`]).
//!
//! The entry points are [`AdaptiveColumn`], one column's adaptive layer
//! (the paper's Listing 1: synchronous, on the caller's thread), and
//! [`ServeTable`], the concurrent multi-column engine.

pub mod adaptive;
pub mod align;
pub mod config;
pub mod creation;
pub mod exec;
pub mod query;
pub mod router;
pub mod serve;
pub mod stats;
pub mod updates;
pub mod view;
pub mod viewset;
pub mod wal;
pub mod zones;

pub use adaptive::AdaptiveColumn;
pub use align::{
    apply_chunked_plan, apply_plan, chunk_boundaries, plan_alignment_chunked, snapshot_alignment,
    AlignmentPlan, AlignmentSnapshot, ChunkedAlignmentPlan, ViewOp, ViewPlan,
};
pub use config::{AdaptiveConfig, AlignChunking, CreationOptions, RoutingMode};
pub use creation::{build_view_for_range, create_while_scanning};
pub use query::{QueryExecution, QueryOutcome, RangeQuery, ViewMaintenance};
pub use router::{route, RouteSelection, ViewId};
pub use serve::{
    AlignActivity, ConjunctiveAnswer, DurabilityConfig, RangeAnswer, RecoveryInfo, ServeTable,
    Snapshot, TableHandle, TableWriter, ViewMeta,
};
pub use stats::{QueryRecord, SequenceStats};
pub use updates::{align_views_after_updates, rebuild_all_views, UpdateAlignmentStats};
pub use view::PartialView;
pub use viewset::ViewSet;
pub use wal::{FaultKind, FaultPlan, Journal, ReplayOutcome, WalRecord};
pub use zones::{CardinalityEstimate, ZoneStats};
