//! The [`Database`] facade: named tables over built indexes.
//!
//! This is the front door the ROADMAP's serving-scale items plug into: it
//! owns the catalog of tables (each a dataset + schema + one index built from
//! an [`IndexSpec`]), validates every query at the boundary, and hands out
//! cheap [`Table`] handles that the [`crate::Scheduler`]'s workers share.
//!
//! Workload shift (§8) is handled at this layer too: [`Database::reindex`]
//! rebuilds a table's layout from scratch, [`Database::reoptimize`] takes
//! the cheaper incremental path (Tsunami tables keep their Grid Tree and
//! sorted data; only regions whose query mix changed are re-optimized), and
//! [`Database::auto_reoptimize`] closes the loop autonomously from the
//! queries recorded via [`Table::record_query`].

use std::path::Path;
use std::sync::Arc;

use tsunami_baselines::{ClusteredSingleDimIndex, FullScanIndex};
use tsunami_core::exec::pool::{self, WorkStealingPool};
use tsunami_core::{CostModel, Dataset, Point, Predicate, Query, Result, TsunamiError, Workload};
use tsunami_flood::FloodIndex;
use tsunami_index::{IngestReport, ReoptReport, TsunamiConfig, TsunamiIndex, WorkloadMonitor};
use tsunami_store::{CrashPoint, WalRecord};

use crate::durability::{self, Durability};
use crate::scheduler::{Scheduler, SchedulerConfig};
use crate::schema::Schema;
use crate::spec::{IndexSpec, SharedIndex};
use crate::table::Table;
use crate::view::MaterializedView;
use tsunami_core::AggResult;

/// Observation-log capacity for tables built from a spec: Tsunami tables
/// honor their config's window, everything else gets the default.
fn observe_cap(spec: &IndexSpec) -> usize {
    match spec {
        IndexSpec::Tsunami(config) => config.observation_window,
        _ => TsunamiConfig::default().observation_window,
    }
}

/// A catalog of named, indexed tables. Registration order is preserved for
/// iteration (benchmark output stays deterministic).
pub struct Database {
    tables: Vec<Table>,
    /// Registered materialized views (see [`crate::view`]), in registration
    /// order. Maintained by the mutation paths: inserts fold deltas, deletes
    /// invalidate, restructures leave state untouched (live rows unchanged).
    views: Vec<MaterializedView>,
    cost: CostModel,
    /// The execution pool shared by every table: schedulers created via
    /// [`Database::scheduler`] submit into it and fan their intra-query
    /// morsels out on it, and view recomputes fold through it. Defaults to
    /// the process-wide
    /// [`pool::global`] pool; inject a private one with
    /// [`Database::set_pool`].
    pool: Arc<WorkStealingPool>,
    /// WAL + checkpoint state for databases opened with [`Database::open`];
    /// `None` for purely in-memory databases ([`Database::new`]).
    durability: Option<Durability>,
}

impl Database {
    /// Creates an empty database with the default analytic cost model.
    pub fn new() -> Self {
        Self::with_cost_model(CostModel::default())
    }

    /// Creates an empty database using a specific cost model for all index
    /// builds (e.g. [`CostModel::calibrate`]d to the host).
    pub fn with_cost_model(cost: CostModel) -> Self {
        Self {
            tables: Vec::new(),
            views: Vec::new(),
            cost,
            pool: Arc::clone(pool::global()),
            durability: None,
        }
    }

    /// Opens a **durable** database rooted at `dir` with the default cost
    /// model. See [`Database::open_with_cost_model`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_cost_model(dir, CostModel::default())
    }

    /// Opens a durable database rooted at `dir`: recovers the state from
    /// `checkpoint.db` plus the write-ahead log's valid prefix (see
    /// [`crate::durability`]), then logs and fsyncs every subsequent
    /// `create_table` / `insert_batch` / `delete` *before* applying it, so
    /// committed mutations survive a crash. Recovery rebuilds each table's
    /// index from its stored [`IndexSpec`] and reference workload: query
    /// results are bit-identical to the pre-crash state's, while the
    /// physical layout is re-derived.
    pub fn open_with_cost_model(dir: impl AsRef<Path>, cost: CostModel) -> Result<Self> {
        let (durability, records) = Durability::open(dir.as_ref())?;
        let mut db = Self::with_cost_model(cost);
        for record in records {
            db.apply_record(record)?;
        }
        db.durability = Some(durability);
        Ok(db)
    }

    /// Whether this database was opened with [`Database::open`] and is
    /// logging mutations durably.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Applies one replayed WAL record to the in-memory catalog. Only called
    /// while `self.durability` is `None`, so the mutation paths do not log
    /// the record a second time.
    fn apply_record(&mut self, record: WalRecord) -> Result<()> {
        match record {
            WalRecord::CreateTable {
                name,
                columns,
                spec,
                workload,
                data,
            } => {
                let spec = durability::decode_spec(&spec)?;
                self.create_table(&name, &columns, data, &Workload::new(workload), &spec)?;
            }
            WalRecord::InsertBatch { table, rows } => {
                let rows: Vec<Point> = rows.rows().collect();
                self.insert_batch(&table, &rows)?;
            }
            WalRecord::Delete { table, predicates } => {
                self.delete(&table, &predicates)?;
            }
            WalRecord::RegisterView { table, name, query } => {
                self.register_view(&table, &name, query)?;
            }
            // Markers carry recovery bookkeeping, not state.
            WalRecord::Checkpoint { .. } => {}
        }
        Ok(())
    }

    /// Appends and fsyncs `record` if this database is durable — called by
    /// every mutation *before* it changes the in-memory catalog. The record
    /// is built lazily so in-memory databases pay nothing.
    fn log_mutation(&mut self, record: impl FnOnce() -> WalRecord) -> Result<()> {
        match self.durability.as_mut() {
            Some(durability) => durability.log(&record()),
            None => Ok(()),
        }
    }

    /// Writes a checkpoint: a snapshot of every table (current data, spec,
    /// and reference workload) replaces `checkpoint.db` atomically, and the
    /// WAL is reset. Recovery cost becomes proportional to the mutations
    /// since the last checkpoint instead of since the database was created.
    /// Errors on in-memory databases.
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.durability.is_none() {
            return Err(TsunamiError::Durability(
                "checkpoint requires a database opened with Database::open".into(),
            ));
        }
        let mut snapshot = Vec::with_capacity(self.tables.len() + self.views.len());
        let mut names = Vec::with_capacity(self.tables.len());
        for table in &self.tables {
            snapshot.push(Self::snapshot_record(table)?);
            names.push(table.name().to_string());
        }
        // View specs ride in the snapshot after every table record, so
        // recovery re-registers them against already-replayed tables. State
        // is never persisted — it is recomputed from the recovered data.
        for view in &self.views {
            snapshot.push(WalRecord::RegisterView {
                table: view.table().to_string(),
                name: view.name().to_string(),
                query: view.query().clone(),
            });
        }
        self.durability
            .as_mut()
            .expect("checked above")
            .checkpoint(&snapshot, names)
    }

    fn snapshot_record(table: &Table) -> Result<WalRecord> {
        let spec = table.index_spec().ok_or_else(|| {
            TsunamiError::Durability(format!(
                "table '{}' has no index spec and cannot be checkpointed",
                table.name()
            ))
        })?;
        Ok(WalRecord::CreateTable {
            name: table.name().to_string(),
            columns: table.schema().column_names().map(str::to_string).collect(),
            spec: durability::encode_spec(spec),
            workload: table.reference_workload().queries().to_vec(),
            data: table.dataset().clone(),
        })
    }

    /// Arms deterministic fault injection on the durability layer (crash
    /// tests only). The next matching WAL append / commit / checkpoint step
    /// errors out exactly as a crash at that instant would.
    #[doc(hidden)]
    pub fn set_crash_point(&mut self, crash: CrashPoint) {
        if let Some(durability) = self.durability.as_mut() {
            durability.set_crash_point(crash);
        }
    }

    /// The cost model used for index builds.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The work-stealing pool this database's schedulers submit into.
    pub fn pool(&self) -> &Arc<WorkStealingPool> {
        &self.pool
    }

    /// Replaces the execution pool (e.g. a private pool in tests, or a
    /// dedicated pool per tenant). Schedulers already created keep the pool
    /// they were built with.
    pub fn set_pool(&mut self, pool: Arc<WorkStealingPool>) {
        self.pool = pool;
    }

    /// A scheduler over this database's pool running up to `workers` queries
    /// concurrently. Handles from any of this database's tables can be
    /// submitted to it.
    pub fn scheduler(&self, workers: usize) -> Scheduler {
        self.scheduler_with(SchedulerConfig {
            workers: workers.max(1),
            ..SchedulerConfig::default()
        })
    }

    /// A scheduler over this database's pool with explicit tuning.
    pub fn scheduler_with(&self, config: SchedulerConfig) -> Scheduler {
        Scheduler::on_pool(Arc::clone(&self.pool), config)
    }

    /// Registers a table: names the dataset's columns, builds the index
    /// described by `spec` optimized for the sample `workload`, and returns a
    /// handle. The schema's width must match the dataset's and the name must
    /// be unused. `data` accepts either an owned [`Dataset`] or an
    /// `Arc<Dataset>` — pass an `Arc` clone to register the same data under
    /// several index families without copying it per table.
    pub fn create_table<S: Into<String> + Clone>(
        &mut self,
        name: &str,
        columns: &[S],
        data: impl Into<Arc<Dataset>>,
        workload: &Workload,
        spec: &IndexSpec,
    ) -> Result<Table> {
        let data = data.into();
        let schema = Schema::new(columns.to_vec())?;
        let index = self.build_index(&schema, &data, workload, spec)?;
        self.register(
            name,
            schema,
            data,
            index,
            workload.clone(),
            observe_cap(spec),
            Some(spec.clone()),
        )
    }

    /// Like [`Database::create_table`] with auto-generated `col0..colN`
    /// column names.
    pub fn create_table_unnamed(
        &mut self,
        name: &str,
        data: impl Into<Arc<Dataset>>,
        workload: &Workload,
        spec: &IndexSpec,
    ) -> Result<Table> {
        let data = data.into();
        let schema = Schema::numbered(data.num_dims());
        let index = self.build_index(&schema, &data, workload, spec)?;
        self.register(
            name,
            schema,
            data,
            index,
            workload.clone(),
            observe_cap(spec),
            Some(spec.clone()),
        )
    }

    /// Registers a table around an already-built index (escape hatch for
    /// custom index construction). The reference workload starts empty, so
    /// shift detection treats every observed query as new.
    pub fn register_table(
        &mut self,
        name: &str,
        schema: Schema,
        data: impl Into<Arc<Dataset>>,
        index: SharedIndex,
    ) -> Result<Table> {
        let data = data.into();
        if schema.num_columns() != data.num_dims() {
            return Err(TsunamiError::DimensionMismatch {
                expected: data.num_dims(),
                got: schema.num_columns(),
            });
        }
        let cap = TsunamiConfig::default().observation_window;
        self.register(name, schema, data, index, Workload::default(), cap, None)
    }

    fn build_index(
        &self,
        schema: &Schema,
        data: &Dataset,
        workload: &Workload,
        spec: &IndexSpec,
    ) -> Result<SharedIndex> {
        if schema.num_columns() != data.num_dims() {
            return Err(TsunamiError::DimensionMismatch {
                expected: data.num_dims(),
                got: schema.num_columns(),
            });
        }
        for q in workload.queries() {
            q.validate_dims(data.num_dims())?;
        }
        spec.build(data, workload, &self.cost)
    }

    #[allow(clippy::too_many_arguments)]
    fn register(
        &mut self,
        name: &str,
        schema: Schema,
        data: Arc<Dataset>,
        index: SharedIndex,
        reference: Workload,
        observe_cap: usize,
        spec: Option<IndexSpec>,
    ) -> Result<Table> {
        if self.tables.iter().any(|t| t.name() == name) {
            return Err(TsunamiError::DuplicateTable(name.to_string()));
        }
        if self.durability.is_some() {
            let spec = spec.as_ref().ok_or_else(|| {
                TsunamiError::Durability(format!(
                    "table '{name}' was registered around a pre-built index without a spec; \
                     a durable database cannot replay it — use create_table instead"
                ))
            })?;
            let spec = durability::encode_spec(spec);
            self.log_mutation(|| WalRecord::CreateTable {
                name: name.to_string(),
                columns: schema.column_names().map(str::to_string).collect(),
                spec,
                workload: reference.queries().to_vec(),
                data: (*data).clone(),
            })?;
        }
        let table = Table::new(
            name.to_string(),
            schema,
            data,
            index,
            reference,
            observe_cap,
            spec,
        );
        self.tables.push(table.clone());
        Ok(table)
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> Result<Table> {
        self.tables
            .iter()
            .find(|t| t.name() == name)
            .cloned()
            .ok_or_else(|| TsunamiError::UnknownTable(name.to_string()))
    }

    /// All registered tables, in registration order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter()
    }

    /// Number of registered tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Drops a table from the catalog. Outstanding handles and prepared
    /// queries keep working (the state is shared by `Arc`); only the name
    /// becomes free.
    pub fn drop_table(&mut self, name: &str) -> Result<Table> {
        if self.durability.is_some() {
            // There is no DropTable WAL record: recovery would resurrect the
            // table. Refuse rather than silently un-persist a drop.
            return Err(TsunamiError::Durability(
                "drop_table is not supported on a durable database".into(),
            ));
        }
        match self.tables.iter().position(|t| t.name() == name) {
            Some(i) => {
                // Views over the dropped table go with it; keeping them would
                // leave reads that can never resolve their table again.
                self.views.retain(|v| v.table() != name);
                Ok(self.tables.remove(i))
            }
            None => Err(TsunamiError::UnknownTable(name.to_string())),
        }
    }

    /// Registers a named materialized view: an aggregate `query` over table
    /// `table` whose answer the engine keeps pre-folded and maintains
    /// incrementally across inserts/deletes/restructures (see
    /// [`crate::view`]). The query is validated against the table's schema
    /// width up front. On a durable database the view *spec* is WAL-logged
    /// (state is recomputed after recovery, so it cannot diverge from the
    /// durable data). Read the answer with [`Database::view_value`].
    pub fn register_view(&mut self, table: &str, name: &str, query: Query) -> Result<()> {
        let owner = self.table(table)?;
        query.validate_dims(owner.schema().num_columns())?;
        if self.views.iter().any(|v| v.name() == name) {
            return Err(TsunamiError::DuplicateView(name.to_string()));
        }
        self.log_mutation(|| WalRecord::RegisterView {
            table: table.to_string(),
            name: name.to_string(),
            query: query.clone(),
        })?;
        self.views.push(MaterializedView::new(
            table.to_string(),
            name.to_string(),
            query,
        ));
        Ok(())
    }

    /// Looks up a registered view by name.
    pub fn view(&self, name: &str) -> Result<&MaterializedView> {
        self.views
            .iter()
            .find(|v| v.name() == name)
            .ok_or_else(|| TsunamiError::UnknownView(name.to_string()))
    }

    /// All registered views, in registration order.
    pub fn views(&self) -> impl Iterator<Item = &MaterializedView> {
        self.views.iter()
    }

    /// The current answer of a registered view, bit-identical to executing
    /// its query against the table directly. O(1) while the view's state is
    /// fresh; pays one lazy re-fold through the table's index after a delete
    /// or recovery invalidated it.
    pub fn view_value(&self, name: &str) -> Result<AggResult> {
        let view = self.view(name)?;
        let table = self.table(view.table())?;
        Ok(view.value(table.index(), &self.pool))
    }

    /// Rebuilds a table's index for a new workload (the paper's workload-
    /// shift scenario, Fig 9a): same name, same schema, same data, fresh
    /// layout, same position in the catalog's iteration order. Returns the
    /// new handle; old handles keep answering through the stale layout until
    /// dropped — and keep recording into the same observation log, which is
    /// cleared by the swap (the observations are consumed by the new
    /// layout's reference workload). On failure the catalog is unchanged.
    pub fn reindex(&mut self, name: &str, workload: &Workload, spec: &IndexSpec) -> Result<Table> {
        let pos = self.position(name)?;
        let old = &self.tables[pos];
        let schema = old.schema().clone();
        // Shares the dataset with the old table; only the index is rebuilt.
        let data = Arc::clone(&old.state.data);
        let index = self.build_index(&schema, &data, workload, spec)?;
        let table = Table::with_observation_log(
            name.to_string(),
            schema,
            data,
            index,
            workload.clone(),
            observe_cap(spec),
            Some(spec.clone()),
            0,
            Arc::clone(&old.state.observed),
        );
        table.clear_observations();
        self.tables[pos] = table.clone();
        Ok(table)
    }

    /// Adapts a table's index to a new workload *incrementally* where the
    /// index family supports it, keeping the catalog position. Tsunami
    /// tables re-optimized with a Tsunami spec go through
    /// [`TsunamiIndex::reoptimize_with_cost`] — the Grid Tree and sorted
    /// data are reused and only the regions whose query mix changed are
    /// re-optimized, which is far cheaper than [`Database::reindex`]. Every
    /// other (table, spec) combination falls back to a full reindex.
    ///
    /// Like `reindex`, old handles keep answering (with the stale layout)
    /// until dropped, and on failure the catalog is unchanged.
    pub fn reoptimize(
        &mut self,
        name: &str,
        workload: &Workload,
        spec: &IndexSpec,
    ) -> Result<Table> {
        Ok(self.reoptimize_with_report(name, workload, spec)?.0)
    }

    /// Like [`Database::reoptimize`], also returning the incremental path's
    /// [`ReoptReport`] (`None` when the combination fell back to a full
    /// reindex).
    pub fn reoptimize_with_report(
        &mut self,
        name: &str,
        workload: &Workload,
        spec: &IndexSpec,
    ) -> Result<(Table, Option<ReoptReport>)> {
        let pos = self.position(name)?;
        let old = &self.tables[pos];
        if let IndexSpec::Tsunami(config) = spec {
            if let Some(stale) = old
                .index()
                .as_any()
                .and_then(|any| any.downcast_ref::<TsunamiIndex>())
            {
                let data = Arc::clone(&old.state.data);
                let (index, report) =
                    stale.reoptimize_with_cost(&data, workload, &self.cost, config)?;
                let table = Table::with_observation_log(
                    name.to_string(),
                    old.schema().clone(),
                    data,
                    Box::new(index),
                    workload.clone(),
                    observe_cap(spec),
                    Some(spec.clone()),
                    0,
                    Arc::clone(&old.state.observed),
                );
                table.clear_observations();
                self.tables[pos] = table.clone();
                return Ok((table, Some(report)));
            }
        }
        Ok((self.reindex(name, workload, spec)?, None))
    }

    /// Inserts one row into a table. See [`Database::insert_batch`].
    pub fn insert(&mut self, name: &str, row: &[tsunami_core::Value]) -> Result<Table> {
        self.insert_batch(name, std::slice::from_ref(&row.to_vec()))
    }

    /// Inserts a batch of rows into a table, absorbing them into the
    /// existing index **without a rebuild** where the family supports it:
    /// Tsunami goes through [`TsunamiIndex::ingest_with_cost`] (rows routed
    /// to their Grid-Tree regions, only touched regions re-gridded), Flood
    /// and the single-dim/full-scan baselines through their sorted-merge
    /// ingest. Families without an ingest path (the paged baselines) fall
    /// back to rebuilding from the table's stored spec.
    ///
    /// Rows are validated against the table's schema width. Swap semantics
    /// match [`Database::reindex`] — scheduler-safe: the catalog entry is
    /// replaced atomically with a new table generation, outstanding handles
    /// and prepared queries keep answering over the pre-insert snapshot
    /// until dropped, and on failure the catalog is unchanged.
    pub fn insert_batch(&mut self, name: &str, rows: &[Point]) -> Result<Table> {
        Ok(self.insert_batch_with_report(name, rows)?.0)
    }

    /// Like [`Database::insert_batch`], also returning the Tsunami ingest
    /// report (`None` for other index families).
    pub fn insert_batch_with_report(
        &mut self,
        name: &str,
        rows: &[Point],
    ) -> Result<(Table, Option<IngestReport>)> {
        let pos = self.position(name)?;
        let old = &self.tables[pos];
        let width = old.schema().num_columns();
        let batch = Dataset::from_rows(width, rows)?;
        let mut data = (*old.state.data).clone();
        for row in rows {
            data.push_row(row)?;
        }
        // Log-before-apply: the batch is durable before the catalog changes.
        self.log_mutation(|| WalRecord::InsertBatch {
            table: name.to_string(),
            rows: batch.clone(),
        })?;

        let old = &self.tables[pos];
        let any = old.index().as_any();
        let mut report = None;
        // When the insert itself re-derives the whole layout (the
        // spec-rebuild fallback, or a Tsunami ingest that escalated), the
        // drift counter restarts — the fresh layout already covers the
        // batch, so auto_reoptimize must not fire a second rebuild for it.
        let mut layout_rederived = false;
        let index: SharedIndex = if let Some(tsunami) =
            any.and_then(|a| a.downcast_ref::<TsunamiIndex>())
        {
            let config = match &old.state.spec {
                Some(IndexSpec::Tsunami(c)) => c.clone(),
                _ => TsunamiConfig::default(),
            };
            let (index, r) = tsunami.ingest_with_cost(&batch, &self.cost, &config)?;
            layout_rederived = r.rebuilt;
            report = Some(r);
            Box::new(index)
        } else if let Some(flood) = any.and_then(|a| a.downcast_ref::<FloodIndex>()) {
            Box::new(flood.ingest(&batch))
        } else if let Some(single) = any.and_then(|a| a.downcast_ref::<ClusteredSingleDimIndex>()) {
            Box::new(single.ingest(&batch))
        } else if let Some(full) = any.and_then(|a| a.downcast_ref::<FullScanIndex>()) {
            Box::new(full.ingest(&batch))
        } else {
            // No ingest path: rebuild from the stored spec over the grown
            // dataset (still optimized for the current reference workload).
            let spec = old.state.spec.clone().ok_or_else(|| {
                TsunamiError::Build(format!(
                    "table '{name}' was registered around a pre-built index without a spec; \
                     reindex it before inserting"
                ))
            })?;
            layout_rederived = true;
            spec.build(&data, old.reference_workload(), &self.cost)?
        };

        let old = &self.tables[pos];
        let inserted_since_reopt = if layout_rederived {
            0
        } else {
            old.state.inserted_since_reopt + rows.len()
        };
        let table = Table::with_observation_log(
            name.to_string(),
            old.schema().clone(),
            Arc::new(data),
            index,
            old.reference_workload().clone(),
            old.state.observe_cap,
            old.state.spec.clone(),
            inserted_since_reopt,
            Arc::clone(&old.state.observed),
        );
        self.tables[pos] = table.clone();
        // Incremental view maintenance: fold the batch's matching rows into
        // each registered view on this table as one delta — never a
        // recompute (see `crate::view`).
        for view in &self.views {
            if view.table() == name {
                view.apply_insert(rows);
            }
        }
        Ok((table, report))
    }

    /// Deletes every row matching the conjunction of `predicates` from a
    /// table. See [`Database::delete_with_count`].
    pub fn delete(&mut self, name: &str, predicates: &[Predicate]) -> Result<Table> {
        Ok(self.delete_with_count(name, predicates)?.0)
    }

    /// Deletes every row matching the conjunction of `predicates`, returning
    /// the new table handle and the number of rows deleted.
    ///
    /// Deletion is **tombstone-first** where the index family supports it:
    /// Tsunami tables go through
    /// [`TsunamiIndex::delete_where_with_cost`](tsunami_index::TsunamiIndex::delete_where_with_cost)
    /// — matching rows are marked in the store's deletion bitmap and every
    /// scan tier masks them out, while regions whose accumulated mutation
    /// fraction passes [`TsunamiConfig::ingest_region_staleness`] are
    /// physically compacted and the whole index is rebuilt over the live
    /// rows past [`TsunamiConfig::ingest_rebuild_staleness`]. Full-scan
    /// tables tombstone and compact once majority-dead; every other family
    /// rebuilds from its stored spec over the live rows.
    ///
    /// The table's logical dataset shrinks to the live rows immediately, so
    /// reoptimize/ingest fallback paths never resurrect deleted rows.
    /// Deletes feed the same data-drift counter as inserts
    /// ([`Table::data_drift_fraction`]), so [`Database::auto_reoptimize`]
    /// eventually re-optimizes a heavily-deleted table. Swap semantics match
    /// [`Database::insert_batch`]: old handles keep answering over the
    /// pre-delete snapshot, and on failure the catalog is unchanged.
    pub fn delete_with_count(
        &mut self,
        name: &str,
        predicates: &[Predicate],
    ) -> Result<(Table, usize)> {
        let pos = self.position(name)?;
        let query = Query::count(predicates.to_vec())?;
        let old = &self.tables[pos];
        query.validate_dims(old.schema().num_columns())?;

        let data = &old.state.data;
        let keep: Vec<usize> = (0..data.len())
            .filter(|&r| !query.matches_point(&data.row(r)))
            .collect();
        let deleted = data.len() - keep.len();
        if deleted == 0 {
            // Nothing matched: no WAL record, no swap.
            return Ok((old.clone(), 0));
        }
        let live = Arc::new(data.select_rows(&keep));
        self.log_mutation(|| WalRecord::Delete {
            table: name.to_string(),
            predicates: predicates.to_vec(),
        })?;

        let old = &self.tables[pos];
        let any = old.index().as_any();
        let mut layout_rederived = false;
        let index: SharedIndex = if let Some(tsunami) =
            any.and_then(|a| a.downcast_ref::<TsunamiIndex>())
        {
            let config = match &old.state.spec {
                Some(IndexSpec::Tsunami(c)) => c.clone(),
                _ => TsunamiConfig::default(),
            };
            let (index, report) = tsunami.delete_where_with_cost(&query, &self.cost, &config)?;
            layout_rederived = report.rebuilt;
            Box::new(index)
        } else if let Some(full) = any.and_then(|a| a.downcast_ref::<FullScanIndex>()) {
            let (index, _) = full.delete_where(&query);
            Box::new(index)
        } else {
            // No tombstone path: rebuild from the stored spec over the live
            // rows (still optimized for the current reference workload).
            let spec = old.state.spec.clone().ok_or_else(|| {
                TsunamiError::Build(format!(
                    "table '{name}' was registered around a pre-built index without a spec; \
                     reindex it before deleting"
                ))
            })?;
            layout_rederived = true;
            spec.build(&live, old.reference_workload(), &self.cost)?
        };

        let old = &self.tables[pos];
        // Deletes are mutations against the optimized-for layout, exactly
        // like inserts: they feed the same drift counter unless this delete
        // itself re-derived the layout.
        let mutated_since_reopt = if layout_rederived {
            0
        } else {
            old.state.inserted_since_reopt + deleted
        };
        let table = Table::with_observation_log(
            name.to_string(),
            old.schema().clone(),
            live,
            index,
            old.reference_workload().clone(),
            old.state.observe_cap,
            old.state.spec.clone(),
            mutated_since_reopt,
            Arc::clone(&old.state.observed),
        );
        self.tables[pos] = table.clone();
        // Tombstoned rows cannot be un-folded from MIN/MAX state, so views
        // on this table invalidate and re-fold lazily on their next read.
        for view in &self.views {
            if view.table() == name {
                view.invalidate();
            }
        }
        Ok((table, deleted))
    }

    /// The autonomous monitor → re-optimize loop: compares the queries
    /// recorded via [`Table::record_query`] (the table's bounded observation
    /// log is the engine's sliding window) against the workload the table's
    /// layout was optimized for and re-optimizes via
    /// [`Database::reoptimize`] — which also drains the log, so the consumed
    /// observations become the new reference — when either kind of drift is
    /// detected:
    ///
    /// * **workload drift** — the observed query-type mix shifted from the
    ///   optimized-for reference;
    /// * **data drift** — the fraction of rows inserted since the layout
    ///   was last (re)derived ([`Table::data_drift_fraction`]) passed the
    ///   [`TsunamiConfig::ingest_region_staleness`] bar; ingestion keeps
    ///   results correct on its own, but accumulated growth eventually
    ///   earns the optimizer a pass even with an unchanged workload.
    ///
    /// Returns `Ok(None)` when neither drift is present — calling this
    /// periodically is cheap.
    pub fn auto_reoptimize(&mut self, name: &str, spec: &IndexSpec) -> Result<Option<Table>> {
        let table = self.table(name)?;
        let observed = table.observed_workload();
        let config = match spec {
            IndexSpec::Tsunami(c) => c.clone(),
            _ => TsunamiConfig::default(),
        };
        let data_drift = table.data_drift_fraction() > config.ingest_region_staleness;
        let workload_drift = !observed.is_empty()
            && WorkloadMonitor::new(table.dataset(), table.reference_workload(), &config)
                .observe(table.dataset(), &observed, &config)
                .reoptimize;
        if !data_drift && !workload_drift {
            return Ok(None);
        }
        // Data drift alone re-optimizes for whatever workload evidence is at
        // hand: the observation log if any, else the current reference.
        let target = if observed.is_empty() {
            table.reference_workload().clone()
        } else {
            observed
        };
        self.reoptimize(name, &target, spec).map(Some)
    }

    fn position(&self, name: &str) -> Result<usize> {
        self.tables
            .iter()
            .position(|t| t.name() == name)
            .ok_or_else(|| TsunamiError::UnknownTable(name.to_string()))
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.tables)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::{Aggregation, Predicate, Query};

    fn data() -> Dataset {
        Dataset::from_columns(vec![
            (0..1_000u64).collect(),
            (0..1_000u64).map(|v| v * 2).collect(),
        ])
        .unwrap()
    }

    #[test]
    fn create_lookup_and_query_roundtrip() {
        let mut db = Database::new();
        let t = db
            .create_table(
                "orders",
                &["id", "price"],
                data(),
                &Workload::default(),
                &IndexSpec::FullScan,
            )
            .unwrap();
        assert_eq!(t.name(), "orders");
        assert_eq!(db.num_tables(), 1);

        let r = db
            .table("orders")
            .unwrap()
            .query()
            .range("id", 10, 19)
            .unwrap()
            .execute()
            .unwrap()
            .0;
        assert_eq!(r.as_count(), Some(10));

        assert_eq!(
            db.table("nope").err(),
            Some(TsunamiError::UnknownTable("nope".into()))
        );
    }

    #[test]
    fn duplicate_and_mismatched_registrations_are_rejected() {
        let mut db = Database::new();
        db.create_table_unnamed("t", data(), &Workload::default(), &IndexSpec::FullScan)
            .unwrap();
        assert_eq!(
            db.create_table_unnamed("t", data(), &Workload::default(), &IndexSpec::FullScan)
                .err(),
            Some(TsunamiError::DuplicateTable("t".into()))
        );
        // Schema width must match the dataset.
        assert!(matches!(
            db.create_table(
                "u",
                &["only_one"],
                data(),
                &Workload::default(),
                &IndexSpec::FullScan
            )
            .err(),
            Some(TsunamiError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn boundary_validation_rejects_out_of_bounds_queries() {
        let mut db = Database::new();
        let t = db
            .create_table(
                "t",
                &["a", "b"],
                data(),
                &Workload::default(),
                &IndexSpec::FullScan,
            )
            .unwrap();

        // Hand-assembled query with a phantom predicate dimension.
        let q = Query::count(vec![Predicate::range(7, 0, 10).unwrap()]).unwrap();
        assert_eq!(
            t.execute(&q).err(),
            Some(TsunamiError::DimensionOutOfBounds {
                dim: 7,
                num_dims: 2
            })
        );
        // ... and with an out-of-bounds aggregation input.
        let q = Query::new(vec![], Aggregation::Sum(4)).unwrap();
        assert_eq!(
            t.prepare(q).err(),
            Some(TsunamiError::DimensionOutOfBounds {
                dim: 4,
                num_dims: 2
            })
        );
        // The builder can't even express those: unknown names fail earlier.
        assert_eq!(
            t.query().range("zzz", 0, 1).err(),
            Some(TsunamiError::UnknownColumn("zzz".into()))
        );
        assert_eq!(
            t.query().sum(9usize).err(),
            Some(TsunamiError::DimensionOutOfBounds {
                dim: 9,
                num_dims: 2
            })
        );
        // A workload containing an out-of-bounds query is rejected at build.
        let bad = Workload::new(vec![
            Query::count(vec![Predicate::range(5, 0, 1).unwrap()]).unwrap()
        ]);
        assert_eq!(
            db.create_table_unnamed("v", data(), &bad, &IndexSpec::FullScan)
                .err(),
            Some(TsunamiError::DimensionOutOfBounds {
                dim: 5,
                num_dims: 2
            })
        );
    }

    #[test]
    fn drop_and_reindex_manage_the_catalog() {
        let mut db = Database::new();
        db.create_table_unnamed("t", data(), &Workload::default(), &IndexSpec::FullScan)
            .unwrap();
        db.create_table_unnamed("u", data(), &Workload::default(), &IndexSpec::FullScan)
            .unwrap();
        let old = db.table("t").unwrap();

        let reindexed = db
            .reindex("t", &Workload::default(), &IndexSpec::SingleDim)
            .unwrap();
        assert_eq!(db.num_tables(), 2);
        // Reindexing keeps the catalog's registration order.
        let names: Vec<&str> = db.tables().map(|t| t.name()).collect();
        assert_eq!(names, vec!["t", "u"]);
        db.drop_table("u").unwrap();
        assert_eq!(reindexed.index().name(), "SingleDim");
        // The old handle still answers through the stale index.
        let q = Query::count(vec![Predicate::range(0, 0, 9).unwrap()]).unwrap();
        assert_eq!(old.execute(&q).unwrap(), reindexed.execute(&q).unwrap());

        db.drop_table("t").unwrap();
        assert_eq!(db.num_tables(), 0);
        assert!(db.drop_table("t").is_err());
        assert!(db
            .reindex("t", &Workload::default(), &IndexSpec::FullScan)
            .is_err());
    }

    /// Correlated 3-d data plus two disjoint workloads for shift tests.
    fn shift_fixture() -> (Dataset, Workload, Workload) {
        let n = 4_000u64;
        let data = Dataset::from_columns(vec![
            (0..n).collect(),
            (0..n).map(|v| v * 2 + v % 13).collect(),
            (0..n).map(|v| (v * 7919) % 10_000).collect(),
        ])
        .unwrap();
        let day = Workload::new(
            (0..30u64)
                .map(|i| {
                    Query::count(vec![Predicate::range(0, i * 100, i * 100 + 150).unwrap()])
                        .unwrap()
                })
                .collect(),
        );
        let night = Workload::new(
            (0..30u64)
                .map(|i| {
                    Query::count(vec![Predicate::range(2, i * 250, i * 250 + 400).unwrap()])
                        .unwrap()
                })
                .collect(),
        );
        (data, day, night)
    }

    #[test]
    fn reoptimize_takes_the_incremental_path_for_tsunami_tables() {
        let (data, day, night) = shift_fixture();
        let spec = IndexSpec::Tsunami(TsunamiConfig::fast());
        let mut db = Database::new();
        db.create_table_unnamed("t", data.clone(), &day, &spec)
            .unwrap();
        let stale = db.table("t").unwrap();

        let (fresh, report) = db.reoptimize_with_report("t", &night, &spec).unwrap();
        let report = report.expect("Tsunami + Tsunami spec uses the incremental path");
        assert!(!report.escalated(), "{report:?}");
        assert_eq!(fresh.reference_workload().len(), night.len());
        for q in night.queries().iter().chain(day.queries()).step_by(5) {
            let expected = q.execute_full_scan(&data);
            assert_eq!(stale.execute(q).unwrap(), expected);
            assert_eq!(fresh.execute(q).unwrap(), expected);
        }

        // Non-Tsunami specs fall back to a full reindex (no report).
        let (rebuilt, report) = db
            .reoptimize_with_report("t", &night, &IndexSpec::SingleDim)
            .unwrap();
        assert!(report.is_none());
        assert_eq!(rebuilt.index().name(), "SingleDim");
    }

    #[test]
    fn record_query_feeds_a_bounded_observation_log() {
        let (data, day, _) = shift_fixture();
        let spec = IndexSpec::Tsunami(TsunamiConfig {
            observation_window: 4,
            ..TsunamiConfig::fast()
        });
        let mut db = Database::new();
        let t = db.create_table_unnamed("t", data, &day, &spec).unwrap();
        assert_eq!(t.observed_len(), 0);
        for (i, q) in day.queries().iter().enumerate() {
            t.record_query(q).unwrap();
            assert_eq!(t.observed_len(), (i + 1).min(4));
        }
        // Oldest observations were evicted: the log holds the last 4.
        let obs = t.observed_workload();
        assert_eq!(obs.queries(), &day.queries()[day.len() - 4..]);
        // Out-of-bounds observations are rejected at the boundary.
        let bad = Query::count(vec![Predicate::range(9, 0, 1).unwrap()]).unwrap();
        assert!(t.record_query(&bad).is_err());
        t.clear_observations();
        assert_eq!(t.observed_len(), 0);
    }

    #[test]
    fn insert_batch_ingests_across_families_with_swap_semantics() {
        let (data, day, _) = shift_fixture();
        let mut db = Database::new();
        for (name, spec) in [
            ("tsunami", IndexSpec::Tsunami(TsunamiConfig::fast())),
            ("flood", IndexSpec::flood()),
            ("single", IndexSpec::SingleDim),
            ("full", IndexSpec::FullScan),
            // No ingest path: rebuilds from the stored spec.
            ("zorder", IndexSpec::ZOrder(crate::PageSize::Fixed(256))),
        ] {
            db.create_table_unnamed(name, data.clone(), &day, &spec)
                .unwrap();
            let before = db.table(name).unwrap();

            // In-domain rows plus rows beyond every build-time domain.
            let mut rows: Vec<Vec<u64>> = (0..150u64).map(|i| vec![i * 3, i * 5, i * 7]).collect();
            rows.push(vec![1_000_000, 1_000_000, 1_000_000]);
            let after = db.insert_batch(name, &rows).unwrap();

            let mut merged = data.clone();
            for row in &rows {
                merged.push_row(row).unwrap();
            }
            assert_eq!(after.num_rows(), merged.len());
            // Old handles keep answering over the pre-insert snapshot.
            assert_eq!(before.num_rows(), data.len());

            let probes = [
                Query::count(vec![Predicate::range(0, 0, 500).unwrap()]).unwrap(),
                Query::count(vec![Predicate::range(2, 900_000, 2_000_000).unwrap()]).unwrap(),
                Query::new(
                    vec![Predicate::range(1, 0, 800).unwrap()],
                    Aggregation::Sum(2),
                )
                .unwrap(),
            ];
            for q in &probes {
                assert_eq!(
                    after.execute(q).unwrap(),
                    q.execute_full_scan(&merged),
                    "{name} diverged on {q:?}"
                );
                assert_eq!(before.execute(q).unwrap(), q.execute_full_scan(&data));
            }
        }
        // Single-row convenience + schema validation.
        db.insert("tsunami", &[1, 2, 3]).unwrap();
        assert!(db.insert("tsunami", &[1, 2]).is_err());
        assert!(db.insert_batch("nope", &[vec![1, 2, 3]]).is_err());
    }

    #[test]
    fn insert_batch_reports_tsunami_ingest() {
        let (data, day, _) = shift_fixture();
        let spec = IndexSpec::Tsunami(TsunamiConfig::fast());
        let mut db = Database::new();
        db.create_table_unnamed("t", data, &day, &spec).unwrap();
        let rows: Vec<Vec<u64>> = (0..100u64).map(|i| vec![i, 2 * i, 3 * i]).collect();
        let (_, report) = db.insert_batch_with_report("t", &rows).unwrap();
        let report = report.expect("Tsunami tables report their ingest");
        assert_eq!(report.rows_ingested, rows.len());
        assert!(!report.rebuilt);
        // Non-Tsunami families return no report.
        let mut db2 = Database::new();
        let (data2, day2, _) = shift_fixture();
        db2.create_table_unnamed("f", data2, &day2, &IndexSpec::flood())
            .unwrap();
        let (_, report) = db2.insert_batch_with_report("f", &rows).unwrap();
        assert!(report.is_none());
    }

    #[test]
    fn delete_hides_rows_across_families_with_swap_semantics() {
        let (data, day, _) = shift_fixture();
        let mut db = Database::new();
        for (name, spec) in [
            ("tsunami", IndexSpec::Tsunami(TsunamiConfig::fast())),
            ("flood", IndexSpec::flood()),
            ("full", IndexSpec::FullScan),
            // No tombstone path: rebuilds from the stored spec.
            ("zorder", IndexSpec::ZOrder(crate::PageSize::Fixed(256))),
        ] {
            db.create_table_unnamed(name, data.clone(), &day, &spec)
                .unwrap();
            let before = db.table(name).unwrap();

            let band = [Predicate::range(0, 500, 1_499).unwrap()];
            let (after, deleted) = db.delete_with_count(name, &band).unwrap();
            assert_eq!(deleted, 1_000, "{name}");
            assert_eq!(after.num_rows(), data.len() - 1_000, "{name}");
            // Old handles keep answering over the pre-delete snapshot.
            assert_eq!(before.num_rows(), data.len());

            let del = Query::count(band.to_vec()).unwrap();
            let oracle: Dataset = {
                let keep: Vec<usize> = (0..data.len())
                    .filter(|&r| !del.matches_point(&data.row(r)))
                    .collect();
                data.select_rows(&keep)
            };
            let probes = [
                Query::count(vec![Predicate::range(0, 0, 2_000).unwrap()]).unwrap(),
                Query::new(
                    vec![Predicate::range(1, 0, 4_000).unwrap()],
                    Aggregation::Sum(2),
                )
                .unwrap(),
                Query::new(vec![], Aggregation::Avg(0)).unwrap(),
            ];
            for q in &probes {
                assert_eq!(
                    after.execute(q).unwrap(),
                    q.execute_full_scan(&oracle),
                    "{name} diverged on {q:?}"
                );
                assert_eq!(before.execute(q).unwrap(), q.execute_full_scan(&data));
            }

            // Deleting the same band again is a no-op (no rows match the
            // already-deleted range in the live data).
            let (_, again) = db.delete_with_count(name, &band).unwrap();
            assert_eq!(again, 0, "{name}");
        }
        // Deletes feed the engine's data-drift counter (on the tombstoning
        // families; the spec-rebuild fallback re-derives the layout and so
        // restarts the counter).
        assert!(db.table("full").unwrap().data_drift_fraction() > 0.0);
        assert_eq!(db.table("zorder").unwrap().data_drift_fraction(), 0.0);
        // Out-of-bounds predicates are rejected at the boundary.
        assert!(db
            .delete("flood", &[Predicate::range(9, 0, 1).unwrap()])
            .is_err());
        assert!(db.delete("nope", &[]).is_err());
    }

    fn temp_db_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tsunami_engine_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_database_recovers_all_mutations_on_reopen() {
        let dir = temp_db_dir("recover");
        let (data, day, _) = shift_fixture();
        let probes = [
            Query::count(vec![Predicate::range(0, 0, 2_000).unwrap()]).unwrap(),
            Query::new(
                vec![Predicate::range(1, 0, 4_000).unwrap()],
                Aggregation::Sum(2),
            )
            .unwrap(),
            Query::new(vec![], Aggregation::Min(1)).unwrap(),
        ];
        let expected = {
            let mut db = Database::open(&dir).unwrap();
            assert!(db.is_durable());
            assert_eq!(db.num_tables(), 0);
            db.create_table_unnamed("t", data.clone(), &day, &IndexSpec::SingleDim)
                .unwrap();
            let rows: Vec<Vec<u64>> = (0..64u64).map(|i| vec![i, i * 2, i * 3]).collect();
            db.insert_batch("t", &rows).unwrap();
            db.delete("t", &[Predicate::range(0, 100, 299).unwrap()])
                .unwrap();
            let t = db.table("t").unwrap();
            probes
                .iter()
                .map(|q| t.execute(q).unwrap())
                .collect::<Vec<_>>()
        };

        // A fresh process (nothing shared but the directory) sees the same
        // logical state, bit-identically.
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.num_tables(), 1);
        let t = db.table("t").unwrap();
        let replayed: Vec<_> = probes.iter().map(|q| t.execute(q).unwrap()).collect();
        assert_eq!(replayed, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_resets_the_wal_and_survives_reopen() {
        let dir = temp_db_dir("checkpoint");
        let (data, day, _) = shift_fixture();
        let q = Query::count(vec![Predicate::range(0, 0, 2_000).unwrap()]).unwrap();
        let expected = {
            let mut db = Database::open(&dir).unwrap();
            db.create_table_unnamed("t", data, &day, &IndexSpec::FullScan)
                .unwrap();
            db.delete("t", &[Predicate::range(0, 0, 99).unwrap()])
                .unwrap();
            db.checkpoint().unwrap();
            // Post-checkpoint mutations land in the fresh WAL.
            db.insert_batch("t", &[vec![1u64, 2, 3]]).unwrap();
            db.table("t").unwrap().execute(&q).unwrap()
        };
        // The WAL was truncated to just the generation marker + the insert.
        let (records, _) = tsunami_store::wal::replay(&dir.join("wal.log")).unwrap();
        assert!(matches!(
            records.first(),
            Some(WalRecord::Checkpoint { generation: 1, .. })
        ));
        assert_eq!(records.len(), 2);

        let db = Database::open(&dir).unwrap();
        assert_eq!(db.table("t").unwrap().execute(&q).unwrap(), expected);
        // Checkpointing an in-memory database is an error.
        assert!(Database::new().checkpoint().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_database_rejects_unreplayable_operations() {
        let dir = temp_db_dir("rejects");
        let (data, day, _) = shift_fixture();
        let mut db = Database::open(&dir).unwrap();
        db.create_table_unnamed("t", data.clone(), &day, &IndexSpec::FullScan)
            .unwrap();
        // register_table has no spec to replay from; drop_table has no
        // DropTable record. Both must refuse rather than diverge from disk.
        let index: SharedIndex = Box::new(tsunami_baselines::FullScanIndex::build(&data));
        assert!(matches!(
            db.register_table("u", Schema::numbered(3), data, index)
                .err(),
            Some(TsunamiError::Durability(_))
        ));
        assert!(matches!(
            db.drop_table("t").err(),
            Some(TsunamiError::Durability(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_reoptimize_fires_on_data_drift_without_workload_shift() {
        let (data, day, _) = shift_fixture();
        // Tight region bar so a modest batch is already "drifted"; huge
        // rebuild bar so ingest itself never escalates.
        let config = TsunamiConfig {
            ingest_region_staleness: 0.02,
            ingest_rebuild_staleness: 1.0,
            ..TsunamiConfig::fast()
        };
        let spec = IndexSpec::Tsunami(config);
        let mut db = Database::new();
        db.create_table_unnamed("t", data.clone(), &day, &spec)
            .unwrap();

        // Fresh table, nothing observed: no action.
        assert!(db.auto_reoptimize("t", &spec).unwrap().is_none());

        let rows: Vec<Vec<u64>> = (0..400u64).map(|i| vec![i * 2, i * 4, i * 11]).collect();
        db.insert_batch("t", &rows).unwrap();

        // No queries observed, but the ingested fraction passed the bar:
        // the autonomous loop re-optimizes for the reference workload.
        let fresh = db
            .auto_reoptimize("t", &spec)
            .unwrap()
            .expect("data drift must trigger re-optimization");
        let mut merged = data;
        for row in &rows {
            merged.push_row(row).unwrap();
        }
        for q in day.queries().iter().step_by(7) {
            assert_eq!(fresh.execute(q).unwrap(), q.execute_full_scan(&merged));
        }
        // The staleness was repaid: no further action.
        assert!(db.auto_reoptimize("t", &spec).unwrap().is_none());
    }

    #[test]
    fn auto_reoptimize_triggers_only_on_shift() {
        let (data, day, night) = shift_fixture();
        let spec = IndexSpec::Tsunami(TsunamiConfig::fast());
        let mut db = Database::new();
        let t = db
            .create_table_unnamed("t", data.clone(), &day, &spec)
            .unwrap();

        // Nothing observed: no action.
        assert!(db.auto_reoptimize("t", &spec).unwrap().is_none());

        // Same-mix observations: still no action.
        for q in day.queries() {
            t.record_query(q).unwrap();
        }
        assert!(db.auto_reoptimize("t", &spec).unwrap().is_none());

        // Shifted observations: re-optimized for the observed workload.
        for q in night.queries() {
            t.record_query(q).unwrap();
        }
        for q in night.queries() {
            t.record_query(q).unwrap();
        }
        let fresh = db
            .auto_reoptimize("t", &spec)
            .unwrap()
            .expect("shifted observations must trigger re-optimization");
        for q in night.queries().iter().step_by(7) {
            assert_eq!(fresh.execute(q).unwrap(), q.execute_full_scan(&data));
        }

        // The swap consumed the observation log...
        assert_eq!(fresh.observed_len(), 0);
        assert_eq!(t.observed_len(), 0);
        // ...and the log is shared across table generations: queries
        // recorded through a pre-swap handle still reach the catalog's
        // current entry, so the autonomous loop keeps working even when the
        // recording side never re-fetches its handle.
        t.record_query(&night.queries()[0]).unwrap();
        assert_eq!(db.table("t").unwrap().observed_len(), 1);
    }
}
