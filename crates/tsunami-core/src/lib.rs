//! Shared primitives for the Tsunami learned multi-dimensional index reproduction.
//!
//! This crate holds the vocabulary types used by every other crate in the
//! workspace:
//!
//! * [`Value`], [`Point`], [`Dataset`] — the data model. All attributes are
//!   unsigned 64-bit integers, mirroring the paper's setup where strings are
//!   dictionary encoded and decimals are scaled to integers (§6.1).
//! * [`Predicate`], [`Query`], [`Workload`], [`Aggregation`], [`AggResult`] —
//!   the query model: conjunctions of per-dimension range filters feeding an
//!   aggregation (§2).
//! * [`Histogram`] and [`emd`](crate::emd()) — the building blocks of the Grid Tree's query
//!   skew definition (§4.2.1).
//! * [`CostModel`] — the analytic linear cost model used to optimize both
//!   Flood and the Augmented Grid (§5.3.1).
//! * [`EncodedBlock`], [`encode`] — per-block lightweight column encodings
//!   (frame-of-reference + bit-packing, dictionary codes) with min/max
//!   metadata; the executor's packed kernels evaluate predicates on them
//!   without decoding.
//! * [`ScanPlan`], [`exec`] — the shared scan-execution engine: indexes plan
//!   queries as ordered lists of contiguous physical ranges (with §6.1
//!   exact-range flags and residual predicates) and one vectorized executor
//!   runs every plan, serially or in parallel.
//! * [`MultiDimIndex`] — the trait every index in the workspace (learned and
//!   non-learned) implements so benchmarks can treat them uniformly; query
//!   execution is provided by the trait on top of [`exec`].

pub mod cost;
pub mod dataset;
pub mod emd;
pub mod encode;
pub mod error;
pub mod exec;
pub mod histogram;
pub mod index;
pub mod query;
pub mod sample;
pub mod size;
pub mod tombstone;

pub use cost::{CostFeatures, CostModel};
pub use dataset::{Dataset, Point, Value};
pub use emd::emd;
pub use encode::{BlockData, BlockTest, EncodeOptions, EncodedBlock, PackClass};
pub use error::{Result, TsunamiError};
pub use exec::{
    BlockScratch, KernelTier, PlanPartial, ScanCounters, ScanPlan, ScanRange, ScanSource,
};
pub use histogram::Histogram;
pub use index::{BuildTiming, MultiDimIndex};
pub use query::{AggAccumulator, AggResult, Aggregation, Predicate, Query, Workload};
pub use tombstone::TombstoneSet;
