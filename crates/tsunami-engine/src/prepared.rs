//! A validated, reusable (table, query) pair.
//!
//! Validation — schema resolution, predicate normalization, dimension
//! bounds — happens once at prepare time, so execution is infallible and the
//! handle can be cloned into the scheduler's worker threads.

use tsunami_core::{AggResult, Query, ScanCounters};

use crate::table::Table;

/// A query bound to a table, validated and ready to execute any number of
/// times. Cloning is cheap: the table is shared by `Arc` and only the query's
/// predicate list is copied.
#[derive(Clone)]
pub struct PreparedQuery {
    table: Table,
    query: Query,
}

impl PreparedQuery {
    pub(crate) fn new(table: Table, query: Query) -> Self {
        Self { table, query }
    }

    /// The table this query runs against.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The underlying normalized query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Executes through the table's index, returning the result and the
    /// executor's scan counters for this execution.
    pub fn execute(&self) -> (AggResult, ScanCounters) {
        self.table.index().execute(&self.query)
    }

    /// Reference full-scan execution over the table's logical dataset — the
    /// correctness oracle.
    pub fn execute_oracle(&self) -> AggResult {
        self.query.execute_full_scan(self.table.dataset())
    }
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("table", &self.table.name())
            .field("query", &self.query)
            .finish()
    }
}
