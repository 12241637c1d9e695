//! Registered-query materialized views.
//!
//! A [`MaterializedView`] is a named aggregate query over one table whose
//! answer the engine keeps pre-folded and maintains *incrementally*:
//!
//! * `insert_batch` folds the batch's matching rows into the cached state as
//!   one delta ([`MaterializedView::apply_insert`]) — never a recompute;
//! * `delete` invalidates the state ([`MaterializedView::invalidate`]); it is
//!   recomputed lazily on the next read (tombstoned rows cannot be
//!   "un-folded" from MIN/MAX, so deletes pay the lazy re-fold);
//! * restructures (reoptimize/reindex/compaction swaps) change only the
//!   physical layout, never the live rows, so the state carries through them
//!   untouched.
//!
//! State is an [`AggAccumulator`] — the exact representation the scan path
//! folds into — seeded from one execution of the view's query through the
//! table's index ([`exec::fold_plan`] returns the unfinished state).
//! [`AggAccumulator::finish`] applies the scan path's finalization (AVG as
//! SUM/COUNT — never an average of averages), so a view's answer is
//! bit-identical to executing its query from scratch, always.
//!
//! Durability: only the view *spec* (table, name, query) is logged
//! ([`tsunami_store::WalRecord::RegisterView`]); state is never persisted —
//! after recovery it is recomputed from the replayed table, so it cannot
//! diverge from the durable data.

use std::sync::Mutex;

use tsunami_core::exec::{self, KernelTier, WorkStealingPool};
use tsunami_core::{AggAccumulator, AggResult, MultiDimIndex, Point, Query};

/// A named, incrementally-maintained aggregate over one table. See the
/// module docs for the maintenance and bit-identity contract.
#[derive(Debug)]
pub struct MaterializedView {
    name: String,
    table: String,
    query: Query,
    /// Pre-folded state, or `None` when invalidated / not yet computed.
    /// Interior mutability so reads (`&Database`) can refresh lazily.
    state: Mutex<Option<AggAccumulator>>,
}

impl MaterializedView {
    /// Creates an unfolded view; the first read computes its state.
    pub fn new(table: String, name: String, query: Query) -> Self {
        Self {
            name,
            table,
            query,
            state: Mutex::new(None),
        }
    }

    /// The view's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table the view aggregates over.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The aggregate query the view materializes.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Whether the state is currently folded (diagnostics/tests; a `false`
    /// only means the next read pays a recompute).
    pub fn is_fresh(&self) -> bool {
        self.state.lock().unwrap().is_some()
    }

    /// Drops the cached state; the next read recomputes from the table.
    pub fn invalidate(&self) {
        *self.state.lock().unwrap() = None;
    }

    /// Folds a batch of newly inserted rows into the cached state as one
    /// delta: matching rows are pre-aggregated and applied with a single
    /// [`AggAccumulator::add_block`]. A no-op while invalidated (the lazy
    /// recompute will see the rows in the table).
    pub fn apply_insert(&self, rows: &[Point]) {
        let mut guard = self.state.lock().unwrap();
        let Some(acc) = guard.as_mut() else {
            return;
        };
        let dim = self.query.aggregation().input_dim().unwrap_or(0);
        let mut n = 0u64;
        let mut sum = 0u128;
        let mut min: Option<u64> = None;
        let mut max: Option<u64> = None;
        for row in rows {
            if !self.query.matches_point(row) {
                continue;
            }
            let v = row[dim];
            n += 1;
            sum += v as u128;
            min = Some(min.map_or(v, |m| m.min(v)));
            max = Some(max.map_or(v, |m| m.max(v)));
        }
        acc.add_block(n, sum, min, max);
    }

    /// The view's current answer, recomputing the state through `index` (the
    /// owning table's index) when invalidated. `index` must answer over the
    /// view's table — the database wires this up. A recompute folds the
    /// view's query serially; `pool` is only the executor's pool handle.
    pub fn value(&self, index: &dyn MultiDimIndex, pool: &WorkStealingPool) -> AggResult {
        let mut guard = self.state.lock().unwrap();
        let state = guard.get_or_insert_with(|| {
            exec::fold_plan(
                index.source(),
                &self.query,
                &index.plan(&self.query),
                KernelTier::default(),
                pool,
                1,
                pool.morsel_rows(),
            )
            .0
        });
        state.finish()
    }
}
