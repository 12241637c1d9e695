//! In-memory column store substrate.
//!
//! The paper evaluates every index "on data stored in a custom column store
//! with one scan-time optimization: if the range of data being scanned is
//! exact, i.e. we are guaranteed ahead of time that all elements within the
//! range match the query filter, we skip checking each value against the
//! query filter" (§6.1). This crate provides that substrate:
//!
//! * [`Column`] — a single `u64` attribute vector with min/max metadata and
//!   optional per-block lightweight encoding (frame-of-reference
//!   bit-packing, dictionary codes) behind an unencoded ingest tail.
//! * [`ColumnStore`] — the clustered physical table: all indexes produce a
//!   row permutation at build time and the store is reordered once, so query
//!   execution scans contiguous ranges. After restructuring, indexes call
//!   [`ColumnStore::encode_blocks`] to pack full blocks under the
//!   environment-configured [`EncodePolicy`].
//! * [`Dictionary`] — string dictionary encoding (§6.1: "any string values
//!   are dictionary encoded prior to evaluation").
//! * [`Wal`] — the write-ahead log the engine's durability layer appends
//!   mutation records to, with strict checksummed replay (see [`wal`]).
//!
//! Scanning itself — the vectorized kernels, the exact-range fast path, and
//! the per-query [`ScanCounters`] — lives in [`tsunami_core::exec`]; the
//! store implements [`tsunami_core::ScanSource`], and plans run against it
//! through [`tsunami_core::exec::execute_plan`] or
//! [`tsunami_core::exec::fold_plan`].

pub mod column;
pub mod dictionary;
pub mod encode;
pub mod table;
pub mod wal;

pub use column::Column;
pub use dictionary::Dictionary;
pub use encode::EncodePolicy;
pub use table::ColumnStore;
pub use wal::{CrashPoint, Wal, WalRecord};
// Re-exported for backwards compatibility: counters moved into the shared
// executor in `tsunami_core::exec`.
pub use tsunami_core::ScanCounters;
