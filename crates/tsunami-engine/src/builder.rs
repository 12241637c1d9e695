//! The fluent query builder: named-column predicates and aggregations,
//! validated against the table's schema as they are added.
//!
//! ```
//! # use tsunami_core::{Dataset, Workload};
//! # use tsunami_engine::{Database, IndexSpec};
//! # let data = Dataset::from_columns(vec![(0..100u64).collect(), (0..100u64).collect()]).unwrap();
//! # let mut db = Database::new();
//! # db.create_table("trips", &["pickup", "fare"], data, &Workload::default(), &IndexSpec::FullScan).unwrap();
//! let (total, _counters) = db
//!     .table("trips")?
//!     .query()
//!     .range("pickup", 10, 40)?
//!     .sum("fare")?
//!     .execute()?;
//! assert_eq!(total.as_sum(), Some((10..=40u128).sum()));
//! # Ok::<(), tsunami_core::TsunamiError>(())
//! ```

use tsunami_core::{AggResult, Aggregation, Predicate, Query, Result, ScanCounters, Value};

use crate::prepared::PreparedQuery;
use crate::schema::ColumnRef;
use crate::table::Table;

/// Builds a validated query against one table. Obtained from
/// [`Table::query`]; consumed by [`QueryBuilder::execute`] or
/// [`QueryBuilder::prepare`].
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    table: Table,
    predicates: Vec<Predicate>,
    aggregation: Aggregation,
}

impl QueryBuilder {
    pub(crate) fn new(table: Table) -> Self {
        Self {
            table,
            predicates: Vec::new(),
            aggregation: Aggregation::Count,
        }
    }

    fn dim_of(&self, col: impl ColumnRef) -> Result<usize> {
        col.resolve(self.table.schema())
    }

    /// Adds an inclusive range filter `lo <= column <= hi`. The column may be
    /// a schema name or a raw dimension index; unknown columns and `lo > hi`
    /// are rejected immediately.
    pub fn range(mut self, col: impl ColumnRef, lo: Value, hi: Value) -> Result<Self> {
        let dim = self.dim_of(col)?;
        self.predicates.push(Predicate::range(dim, lo, hi)?);
        Ok(self)
    }

    /// Adds an equality filter `column == value`.
    pub fn eq(mut self, col: impl ColumnRef, value: Value) -> Result<Self> {
        let dim = self.dim_of(col)?;
        self.predicates.push(Predicate::eq(dim, value));
        Ok(self)
    }

    /// Adds an at-least filter `column >= lo`.
    pub fn at_least(self, col: impl ColumnRef, lo: Value) -> Result<Self> {
        self.range(col, lo, Value::MAX)
    }

    /// Adds an at-most filter `column <= hi`.
    pub fn at_most(self, col: impl ColumnRef, hi: Value) -> Result<Self> {
        self.range(col, Value::MIN, hi)
    }

    /// Aggregates with `COUNT(*)` (the default).
    pub fn count(mut self) -> Self {
        self.aggregation = Aggregation::Count;
        self
    }

    /// Aggregates with `SUM(column)`.
    pub fn sum(mut self, col: impl ColumnRef) -> Result<Self> {
        self.aggregation = Aggregation::Sum(self.dim_of(col)?);
        Ok(self)
    }

    /// Aggregates with `MIN(column)`.
    pub fn min(mut self, col: impl ColumnRef) -> Result<Self> {
        self.aggregation = Aggregation::Min(self.dim_of(col)?);
        Ok(self)
    }

    /// Aggregates with `MAX(column)`.
    pub fn max(mut self, col: impl ColumnRef) -> Result<Self> {
        self.aggregation = Aggregation::Max(self.dim_of(col)?);
        Ok(self)
    }

    /// Aggregates with `AVG(column)`.
    pub fn avg(mut self, col: impl ColumnRef) -> Result<Self> {
        self.aggregation = Aggregation::Avg(self.dim_of(col)?);
        Ok(self)
    }

    /// Finalizes into a plain [`Query`] without binding it to the table —
    /// the handoff for [`Database::register_view`](crate::Database::register_view),
    /// so views are built with the same named-column fluent API as ad-hoc
    /// queries.
    pub fn into_query(self) -> Result<Query> {
        Query::new(self.predicates, self.aggregation)
    }

    /// Finalizes into a reusable [`PreparedQuery`] (normalizes predicates,
    /// re-checking conjunction consistency).
    pub fn prepare(self) -> Result<PreparedQuery> {
        let query = Query::new(self.predicates, self.aggregation)?;
        self.table.prepare(query)
    }

    /// Builds and executes the query, returning the result and the
    /// executor's scan counters.
    pub fn execute(self) -> Result<(AggResult, ScanCounters)> {
        Ok(self.prepare()?.execute())
    }
}
