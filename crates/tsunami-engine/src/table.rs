//! A registered table: named, schema-carrying, and backed by one built
//! index. Cheaply cloneable so prepared queries and scheduler workers can
//! share it across threads.
//!
//! A table also carries a bounded **observation log**: callers feed served
//! queries to [`Table::record_query`], and [`crate::Database`] compares the
//! recent observations against the workload the index was optimized for to
//! decide when (incremental) re-optimization is worthwhile — the §8
//! monitor → re-optimize loop.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use tsunami_core::{AggResult, Dataset, MultiDimIndex, Query, Result, Workload};

use crate::builder::QueryBuilder;
use crate::prepared::PreparedQuery;
use crate::schema::Schema;
use crate::spec::{IndexSpec, SharedIndex};

/// Immutable table state shared between the database, prepared queries, and
/// scheduler workers. The logical dataset is held by `Arc` so registering
/// the same data under several index families (the benchmark pattern)
/// shares one copy instead of deep-cloning per table. The observation log is
/// the only mutable state, guarded by its own mutex so recording stays cheap
/// and never blocks query execution.
pub(crate) struct TableState {
    pub(crate) name: String,
    pub(crate) schema: Schema,
    pub(crate) data: Arc<Dataset>,
    pub(crate) index: SharedIndex,
    /// The workload the current index layout was optimized for.
    pub(crate) reference: Workload,
    /// Recently observed queries, oldest first, bounded by `observe_cap`.
    /// Shared (by `Arc`) across the table generations a `reindex`/
    /// `reoptimize` swap creates, so old handles keep feeding the same log
    /// the catalog's current entry reads.
    pub(crate) observed: Arc<Mutex<VecDeque<Query>>>,
    pub(crate) observe_cap: usize,
    /// The spec the index was built from — what `Database::insert_batch`
    /// falls back to for index families without an ingest path, and what
    /// parameterizes the Tsunami ingest. `None` only for tables registered
    /// around a pre-built index (`Database::register_table`).
    pub(crate) spec: Option<IndexSpec>,
    /// Rows inserted since the index layout was last (re)derived for a
    /// workload (build, reindex, or reoptimize) — the engine's data-drift
    /// counter, carried forward across insert swaps and reset by the
    /// re-optimization swaps. Ingestion keeps results correct on its own;
    /// this counter is what lets `Database::auto_reoptimize` notice that
    /// enough data landed to earn the optimizer another pass.
    pub(crate) inserted_since_reopt: usize,
}

/// A handle to a registered table. Cloning is cheap (`Arc`); all query
/// execution goes through the immutable built index, so handles can be used
/// freely from many threads at once.
#[derive(Clone)]
pub struct Table {
    pub(crate) state: Arc<TableState>,
}

impl Table {
    pub(crate) fn new(
        name: String,
        schema: Schema,
        data: Arc<Dataset>,
        index: SharedIndex,
        reference: Workload,
        observe_cap: usize,
        spec: Option<IndexSpec>,
    ) -> Self {
        Self::with_observation_log(
            name,
            schema,
            data,
            index,
            reference,
            observe_cap,
            spec,
            0,
            Arc::new(Mutex::new(VecDeque::new())),
        )
    }

    /// Like [`Table::new`], continuing an existing observation log — the
    /// reindex/reoptimize/insert swap path, where handles to the previous
    /// generation must keep recording into the log the catalog reads.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_observation_log(
        name: String,
        schema: Schema,
        data: Arc<Dataset>,
        index: SharedIndex,
        reference: Workload,
        observe_cap: usize,
        spec: Option<IndexSpec>,
        inserted_since_reopt: usize,
        observed: Arc<Mutex<VecDeque<Query>>>,
    ) -> Self {
        Self {
            state: Arc::new(TableState {
                name,
                schema,
                data,
                index,
                reference,
                observed,
                observe_cap: observe_cap.max(1),
                spec,
                inserted_since_reopt,
            }),
        }
    }

    /// The spec the table's index was built from (`None` for tables
    /// registered around a pre-built index).
    pub fn index_spec(&self) -> Option<&IndexSpec> {
        self.state.spec.as_ref()
    }

    /// The fraction of the table's rows inserted since the index layout was
    /// last (re)derived for a workload — the engine's data-drift signal,
    /// mirroring the observation log's workload-drift signal.
    pub fn data_drift_fraction(&self) -> f64 {
        self.state.inserted_since_reopt as f64 / self.num_rows().max(1) as f64
    }

    /// The table's registered name.
    pub fn name(&self) -> &str {
        &self.state.name
    }

    /// The table's column schema.
    pub fn schema(&self) -> &Schema {
        &self.state.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.state.data.len()
    }

    /// Number of columns (dimensions).
    pub fn num_columns(&self) -> usize {
        self.state.data.num_dims()
    }

    /// The logical dataset the table was registered with (build-order rows;
    /// the index owns its own reorganized copy).
    pub fn dataset(&self) -> &Dataset {
        &self.state.data
    }

    /// The built index backing this table.
    pub fn index(&self) -> &dyn MultiDimIndex {
        self.state.index.as_ref()
    }

    /// Starts a fluent query against this table.
    pub fn query(&self) -> QueryBuilder {
        QueryBuilder::new(self.clone())
    }

    /// Validates a hand-assembled [`Query`] against this table's width and
    /// wraps it as a reusable [`PreparedQuery`].
    pub fn prepare(&self, query: Query) -> Result<PreparedQuery> {
        query.validate_dims(self.num_columns())?;
        Ok(PreparedQuery::new(self.clone(), query))
    }

    /// Prepares every query of a workload against this table.
    pub fn prepare_workload(&self, workload: &Workload) -> Result<Vec<PreparedQuery>> {
        workload
            .queries()
            .iter()
            .map(|q| self.prepare(q.clone()))
            .collect()
    }

    /// Validates and executes a hand-assembled query in one step. The scan
    /// counters are available through [`Table::prepare`] and
    /// [`PreparedQuery::execute`].
    pub fn execute(&self, query: &Query) -> Result<AggResult> {
        query.validate_dims(self.num_columns())?;
        Ok(self.state.index.execute(query).0)
    }

    /// The workload the current index layout was optimized for.
    pub fn reference_workload(&self) -> &Workload {
        &self.state.reference
    }

    /// Records one served query into the table's bounded observation log
    /// (oldest observation evicted first). Feed every production query here
    /// — or a sample of them — and let [`crate::Database::auto_reoptimize`]
    /// decide when the observed mix has drifted enough to re-optimize.
    pub fn record_query(&self, query: &Query) -> Result<()> {
        query.validate_dims(self.num_columns())?;
        let mut observed = self.lock_observed();
        if observed.len() == self.state.observe_cap {
            observed.pop_front();
        }
        observed.push_back(query.clone());
        Ok(())
    }

    /// Number of queries currently in the observation log.
    pub fn observed_len(&self) -> usize {
        self.lock_observed().len()
    }

    /// The observation log as a workload (oldest observation first).
    pub fn observed_workload(&self) -> Workload {
        Workload::new(self.lock_observed().iter().cloned().collect())
    }

    /// Discards all recorded observations (e.g. after re-optimizing).
    pub fn clear_observations(&self) {
        self.lock_observed().clear();
    }

    fn lock_observed(&self) -> std::sync::MutexGuard<'_, VecDeque<Query>> {
        // Recording never panics while holding the lock, but recover from
        // poisoning anyway: a lost observation log must not take the table
        // down with it.
        self.state
            .observed
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.state.name)
            .field("rows", &self.state.data.len())
            .field("columns", &self.state.data.num_dims())
            .field("index", &self.state.index.name())
            .finish()
    }
}
