//! # Adaptive Storage Views in Virtual Memory
//!
//! A Rust implementation of the adaptive storage layer described in
//! *"Towards Adaptive Storage Views in Virtual Memory"* (Schuhknecht &
//! Henneberg, CIDR 2023): instead of stacking an indexing layer on top of a
//! storage layer, the storage layer itself exposes **virtual memory views**
//! onto subsets of the physically materialized database. Partial views are
//! created adaptively as a side-product of query processing, queries are
//! routed to the most fitting view(s), and views are kept consistent under
//! batched updates — all by manipulating virtual-memory mappings at page
//! granularity (memory rewiring).
//!
//! This crate is a thin facade that re-exports the workspace crates:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`vmem`] | `asv-vmem` | rewiring substrate: main-memory files, view buffers that own their mapping table, a portable simulation backend, and the runtime-selectable [`AnyBackend`](vmem::AnyBackend) |
//! | [`storage`] | `asv-storage` | page layout, physical columns, tables, update batches |
//! | [`core`] | `asv-core` | virtual views, query routing, adaptive view maintenance, optimized view creation, batched update alignment |
//! | [`baselines`] | `asv-baselines` | explicit-index baselines (zone map, bitmap, page-id vector) and scan baselines |
//! | [`workloads`] | `asv-workloads` | data distributions, query sequences and update batches used in the paper's evaluation |
//! | [`util`] | `asv-util` | bitvector, bidirectional map, value ranges |
//!
//! ## Quick start
//!
//! ```
//! use adaptive_storage_views::prelude::*;
//!
//! // 1. Materialize a column (here: on the portable simulation backend;
//! //    use `AnyBackend::default_backend()` to pick real virtual-memory
//! //    rewiring wherever the platform supports it).
//! let values: Vec<u64> = (0..100_000u64).map(|i| (i * 37) % 1_000_000).collect();
//! let column = Column::from_values(SimBackend::new(), &values).unwrap();
//!
//! // 2. Attach the adaptive view layer.
//! let mut adaptive = AdaptiveColumn::new(column, AdaptiveConfig::default()).unwrap();
//!
//! // 3. Fire range queries: each query is answered from the best view(s)
//! //    and leaves behind a partial view that accelerates future queries.
//! let result = adaptive.query(&RangeQuery::new(1_000, 50_000)).unwrap();
//! assert_eq!(result.count, values.iter().filter(|&&v| (1_000..=50_000).contains(&v)).count() as u64);
//! assert!(adaptive.views().num_partial_views() >= 1);
//! ```

pub use asv_baselines as baselines;
pub use asv_core as core;
pub use asv_storage as storage;
pub use asv_util as util;
pub use asv_vmem as vmem;
pub use asv_workloads as workloads;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use asv_core::{
        AdaptiveColumn, AdaptiveConfig, AdaptiveTable, ConjunctiveOutcome, CreationOptions,
        PlannerConfig, QueryOutcome, RangeQuery, RoutingMode, ViewSet,
    };
    pub use asv_storage::{Column, Table, Update};
    pub use asv_util::ValueRange;
    #[cfg(all(feature = "mmap", target_os = "linux"))]
    pub use asv_vmem::MmapBackend;
    pub use asv_vmem::{AnyBackend, Backend, SimBackend};
    pub use asv_workloads::{Distribution, QueryWorkload, UpdateWorkload};
}
