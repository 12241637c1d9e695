//! Tsunami: an in-memory, read-optimized, learned multi-dimensional index
//! that is robust to correlated data and skewed query workloads.
//!
//! This crate is the reproduction of the paper's primary contribution. It is
//! a composition of two independent data structures (§3):
//!
//! * The **Grid Tree** ([`grid_tree`]) — a space-partitioning decision tree
//!   that divides the data space into non-overlapping regions such that
//!   within each region there is little *query skew* (§4). Query skew is
//!   measured as the Earth Mover's Distance between the empirical query PDF
//!   and the uniform distribution, computed per clustered *query type*.
//!
//! * The **Augmented Grid** ([`augmented_grid`]) — a generalization of
//!   Flood's uniform grid that captures *data correlation* with two extra
//!   per-dimension partitioning strategies: functional mappings and
//!   conditional CDFs (§5). Its layout `(S, P)` — skeleton plus partition
//!   counts — is optimized with Adaptive Gradient Descent against the
//!   analytic cost model.
//!
//! The composed [`TsunamiIndex`] optimizes the Grid Tree over the full data
//! and workload, then builds an independently-optimized Augmented Grid inside
//! every region that receives queries.
//!
//! When the workload later drifts (§8), the index adapts *incrementally*:
//! [`shift::WorkloadMonitor`] fingerprints observed queries against the
//! optimized-for workload (with a sliding observation window), and
//! [`TsunamiIndex::reoptimize`] reuses the sorted data and Grid-Tree
//! skeleton while re-deriving only what the shift invalidated — folding
//! back splits the new workload no longer distinguishes, re-splitting hot
//! regions locally, and re-optimizing grids only where the existing layout
//! prices as stale. See the [`index`] and [`shift`] module docs.
//!
//! # Quick start
//!
//! ```
//! use tsunami_core::{Dataset, MultiDimIndex, Predicate, Query, Workload};
//! use tsunami_index::{TsunamiConfig, TsunamiIndex};
//!
//! // A tiny 2-d dataset with a correlated second dimension.
//! let n = 2000u64;
//! let data = Dataset::from_columns(vec![
//!     (0..n).collect(),
//!     (0..n).map(|v| v * 2 + (v % 7)).collect(),
//! ]).unwrap();
//!
//! // A sample workload: range filters over dimension 0.
//! let workload = Workload::new(
//!     (0..20u64)
//!         .map(|i| {
//!             Query::count(vec![Predicate::range(0, i * 50, i * 50 + 200).unwrap()]).unwrap()
//!         })
//!         .collect(),
//! );
//!
//! let index = TsunamiIndex::build(&data, &workload, &TsunamiConfig::fast()).unwrap();
//! let q = &workload.queries()[3];
//! assert_eq!(index.execute(q).0, q.execute_full_scan(&data));
//! ```

pub mod augmented_grid;
pub mod config;
pub mod cube;
pub mod grid_tree;
pub mod index;
pub mod query_types;
pub mod shift;

pub use augmented_grid::{AugmentedGrid, DimStrategy, OptimizerKind, Skeleton};
pub use config::{IndexVariant, TsunamiConfig};
pub use cube::{CubeEntry, DimAgg, RegionCube};
pub use grid_tree::GridTree;
pub use index::{DeleteReport, Escalation, IngestReport, ReoptReport, TsunamiIndex, TsunamiStats};
pub use query_types::cluster_query_types;
pub use shift::{ShiftReport, WorkloadMonitor};
