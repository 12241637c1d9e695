//! The composed Tsunami index: Grid Tree over the data space, with an
//! independently-optimized Augmented Grid inside every region that receives
//! queries (§3).
//!
//! Besides the from-scratch [`TsunamiIndex::build`], the index supports
//! **incremental re-optimization** under workload shift (§8):
//! [`TsunamiIndex::reoptimize`] keeps the sorted data and adapts the
//! existing structure in place of a rebuild —
//!
//! 1. Grid-Tree splits the new workload no longer distinguishes are folded
//!    back ([`GridTree::collapse_for`]); a subtree's leaves occupy a
//!    contiguous slice of the store, so merging costs nothing physically.
//! 2. *Hot* regions — changed query-type mix (per-region
//!    [`WorkloadMonitor`] comparison), newly queried, or merged by the
//!    collapse — are re-split by building a local Grid Tree over just their
//!    rows and grafting it ([`GridTree::with_expanded_leaves`]).
//! 3. The Augmented-Grid optimizer runs only for hot leaves whose current
//!    layout prices as stale under the cost model; everything else keeps
//!    its grid — and its slice of the physical row order — verbatim.
//!
//! Re-optimization time is therefore proportional to how much of the
//! workload moved, not to the index size, and correctness never depends on
//! layout freshness.

use std::time::Instant;

use crate::augmented_grid::optimizer::{heuristic_skeleton, initial_partitions, predicted_cost};
use crate::augmented_grid::{
    optimize_layout, optimize_layout_from, AugmentedGrid, OptimizerKind, Skeleton,
};
use crate::config::{IndexVariant, TsunamiConfig};
use crate::cube::{CubeEntry, RegionCube};
use crate::grid_tree::GridTree;
use crate::query_types::cluster_query_types;
use crate::shift::WorkloadMonitor;
use tsunami_core::{
    BuildTiming, CostModel, Dataset, MultiDimIndex, Point, Query, Result, ScanPlan, ScanSource,
    TsunamiError, Workload,
};
use tsunami_store::ColumnStore;

/// Per-region physical layout information.
#[derive(Debug, Clone)]
struct RegionIndex {
    /// First physical row of the region in the reordered store.
    base: usize,
    /// Number of rows in the region.
    len: usize,
    /// The region's Augmented Grid, or `None` when no query intersects the
    /// region (it is then answered with a plain region scan).
    grid: Option<AugmentedGrid>,
    /// Rows ingested into the region since its layout was last optimized —
    /// the per-region staleness counter. Ingested rows are re-gridded into
    /// the existing layout immediately (correctness never waits), but the
    /// *layout* only re-earns optimizer time once `inserted / len` passes
    /// [`TsunamiConfig::ingest_region_staleness`].
    inserted: usize,
}

/// Statistics of an optimized Tsunami index (Table 4).
#[derive(Debug, Clone, PartialEq)]
pub struct TsunamiStats {
    /// Total Grid Tree nodes (internal + leaf).
    pub num_grid_tree_nodes: usize,
    /// Grid Tree depth.
    pub grid_tree_depth: usize,
    /// Number of leaf regions.
    pub num_leaf_regions: usize,
    /// Minimum points in a region.
    pub min_points_per_region: usize,
    /// Median points in a region.
    pub median_points_per_region: usize,
    /// Maximum points in a region.
    pub max_points_per_region: usize,
    /// Average number of functional mappings per indexed region.
    pub avg_fms_per_region: f64,
    /// Average number of conditional CDFs per indexed region.
    pub avg_ccdfs_per_region: f64,
    /// Total number of grid cells across all regions.
    pub total_grid_cells: usize,
}

/// Why [`TsunamiIndex::reoptimize_with_cost`] abandoned the incremental path
/// for a full rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Escalation {
    /// The dataset's shape (row count or width) no longer matches the data
    /// the index was built over, so region reuse would be unsound. Distinct
    /// from a plain rebuild so callers can tell "the data changed under me"
    /// from "the workload drifted": data changes flow through
    /// [`TsunamiIndex::ingest`] instead of a from-scratch reoptimize.
    DataChanged,
    /// The requested index variant differs from the built one.
    VariantChanged,
    /// Whole-workload frequency drift exceeded
    /// [`TsunamiConfig::reopt_rebuild_drift`].
    WorkloadDrift,
    /// The fraction of ingested rows exceeded
    /// [`TsunamiConfig::ingest_rebuild_staleness`]: too much of the data
    /// post-dates the Grid Tree for structure reuse to stay worthwhile.
    DataStaleness,
}

/// What [`TsunamiIndex::reoptimize_with_cost`] did to adapt the index to a
/// shifted workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ReoptReport {
    /// Total Grid-Tree leaf regions.
    pub regions_total: usize,
    /// Regions whose Augmented Grid was re-optimized (the *hot* regions).
    pub regions_reoptimized: usize,
    /// Regions whose existing layout (and physical row order) was kept
    /// verbatim.
    pub regions_kept: usize,
    /// Why the incremental path was abandoned for a full rebuild (`None`
    /// when it was not — see [`ReoptReport::escalated`] for the boolean
    /// view): see [`Escalation`].
    pub escalation: Option<Escalation>,
    /// Whole-workload frequency drift between the reference workload and the
    /// new one (0 = identical mix, 2 = fully disjoint mixes). NaN when the
    /// comparison was skipped because drift-based escalation is disabled
    /// ([`TsunamiConfig::reopt_rebuild_drift`] ≥ 2.0, the drift maximum) —
    /// fingerprinting two workloads costs two query-type clusterings, which
    /// the incremental path does not spend on a report-only number.
    pub frequency_drift: f64,
    /// The index's ingested-row fraction *before* re-optimization — the
    /// ingest staleness counter routed through the report, so the engine's
    /// autonomous loop can attribute a re-optimization to data drift.
    pub data_staleness: f64,
}

impl ReoptReport {
    /// Whether the cheap incremental path was abandoned for a full rebuild
    /// (equivalently: [`ReoptReport::escalation`] names a reason).
    pub fn escalated(&self) -> bool {
        self.escalation.is_some()
    }
}

/// What [`TsunamiIndex::ingest_with_cost`] did to absorb a batch of rows.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Rows in the ingested batch.
    pub rows_ingested: usize,
    /// Regions that received at least one new row (only these paid re-grid
    /// and re-sort cost).
    pub regions_touched: usize,
    /// Touched regions whose accumulated staleness crossed
    /// [`TsunamiConfig::ingest_region_staleness`] and earned a local layout
    /// re-optimization (warm-started from the current layout).
    pub regions_reoptimized: usize,
    /// Whether the whole index escalated to a from-scratch rebuild — the
    /// batch would have pushed the ingested fraction past
    /// [`TsunamiConfig::ingest_rebuild_staleness`] (or the requested variant
    /// changed).
    pub rebuilt: bool,
    /// The whole-index ingested-row fraction including this batch, *before*
    /// any staleness was repaid by re-optimization or rebuild.
    pub data_staleness: f64,
}

/// What [`TsunamiIndex::delete_where_with_cost`] did to absorb a delete.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteReport {
    /// Rows newly tombstoned by this delete (rows already deleted by an
    /// earlier call do not count again).
    pub rows_deleted: usize,
    /// Regions whose accumulated mutation fraction (inserted + tombstoned
    /// over region rows) crossed [`TsunamiConfig::ingest_region_staleness`]
    /// and were physically compacted — dead rows dropped, the region
    /// re-gridded over its live rows.
    pub regions_compacted: usize,
    /// Whether the whole index escalated to a from-scratch rebuild over the
    /// live rows (the delete pushed the mutated fraction past
    /// [`TsunamiConfig::ingest_rebuild_staleness`]).
    pub rebuilt: bool,
    /// The whole-index mutated-row fraction including this delete, *before*
    /// any staleness was repaid by compaction or rebuild.
    pub data_staleness: f64,
}

/// Tsunami: a learned multi-dimensional index robust to data correlation and
/// query skew.
#[derive(Debug)]
pub struct TsunamiIndex {
    tree: GridTree,
    regions: Vec<RegionIndex>,
    store: ColumnStore,
    timing: BuildTiming,
    name: String,
    variant: IndexVariant,
    /// The workload the current layout was optimized for — the reference the
    /// incremental re-optimization path diffs new workloads against.
    reference: Workload,
    /// Rows ingested since the Grid Tree was last derived from the data
    /// (build or incremental re-optimization) — the whole-index staleness
    /// counter behind [`TsunamiIndex::data_staleness`].
    ingested: usize,
    /// Per-region materialized aggregates (see [`crate::cube`]); entries are
    /// maintained incrementally across ingest/delete/reoptimize and folded
    /// lazily where a restructure dropped them.
    cube: RegionCube,
    /// Whether the planner answers fully-covered regions from the cube
    /// instead of scanning them. Defaults from `TSUNAMI_MATVIEW` at build
    /// (on unless `off|0|false|no`); toggle per index with
    /// [`TsunamiIndex::set_matview`]. Purely a performance switch — results
    /// are bit-identical either way.
    matview: bool,
}

/// The `TSUNAMI_MATVIEW` default: materialized region aggregates are on
/// unless explicitly disabled.
fn matview_env_enabled() -> bool {
    match std::env::var("TSUNAMI_MATVIEW") {
        Ok(v) => !matches!(
            v.to_ascii_lowercase().as_str(),
            "off" | "0" | "false" | "no"
        ),
        Err(_) => true,
    }
}

/// Queries counted by the exact set of dimensions they filter — the cheap
/// first-stage shift fingerprint (different dimension sets ⇒ different query
/// types, no clustering needed).
fn dims_mix(queries: &[Query]) -> std::collections::BTreeMap<Vec<usize>, usize> {
    let mut mix = std::collections::BTreeMap::new();
    for q in queries {
        *mix.entry(q.filtered_dims()).or_insert(0) += 1;
    }
    mix
}

/// The configuration and optimizer actually used for a variant: the
/// Grid-Tree-only ablation disables the correlation-aware strategies so its
/// per-region grids degenerate to Flood-style all-independent layouts.
fn effective_build_config(config: &TsunamiConfig) -> (TsunamiConfig, OptimizerKind) {
    match config.variant {
        IndexVariant::GridTreeOnly => {
            let mut c = config.clone();
            c.fm_error_fraction = 0.0;
            c.ccdf_empty_fraction = 1.1;
            (c, OptimizerKind::GradientOnly)
        }
        _ => (config.clone(), config.optimizer),
    }
}

impl TsunamiIndex {
    /// Builds a Tsunami index with the default configuration's structure but
    /// the provided config (convenience wrapper around
    /// [`TsunamiIndex::build_with_cost`] using a default [`CostModel`]).
    pub fn build(data: &Dataset, workload: &Workload, config: &TsunamiConfig) -> Result<Self> {
        Self::build_with_cost(data, workload, &CostModel::default(), config)
    }

    /// Builds a Tsunami index using an explicit cost model (e.g. one
    /// calibrated on the current machine).
    pub fn build_with_cost(
        data: &Dataset,
        workload: &Workload,
        cost: &CostModel,
        config: &TsunamiConfig,
    ) -> Result<Self> {
        if data.num_dims() == 0 {
            return Err(TsunamiError::Build("dataset has no dimensions".into()));
        }

        // ------------------------------------------------------------------
        // Offline optimization (Fig 9b "optimization time"):
        //   (1) cluster query types, (2) optimize the Grid Tree,
        //   (3) optimize each region's Augmented Grid layout.
        // ------------------------------------------------------------------
        let opt_start = Instant::now();
        let (effective_config, optimizer_kind) = effective_build_config(config);

        let types = if config.variant == IndexVariant::AugmentedGridOnly {
            Vec::new()
        } else {
            cluster_query_types(
                data,
                workload,
                effective_config.dbscan_eps,
                effective_config.dbscan_min_pts,
                effective_config.optimizer_sample_size,
                effective_config.seed,
            )
        };
        let (tree, region_data) = GridTree::build(data, &types, &effective_config);

        // Optimize a layout for every region that has intersecting queries.
        let mut layouts: Vec<Option<(Skeleton, Vec<usize>)>> =
            Vec::with_capacity(region_data.len());
        let mut region_datasets: Vec<Dataset> = Vec::with_capacity(region_data.len());
        for rd in &region_data {
            let region_ds = data.select_rows(&rd.rows);
            if rd.queries.is_empty() || rd.rows.is_empty() {
                layouts.push(None);
            } else {
                let region_workload = Workload::new(rd.queries.clone());
                let layout = optimize_layout(
                    &region_ds,
                    &region_workload,
                    cost,
                    &effective_config,
                    optimizer_kind,
                );
                layouts.push(Some((layout.skeleton, layout.partitions)));
            }
            region_datasets.push(region_ds);
        }
        let optimize_secs = opt_start.elapsed().as_secs_f64();

        // ------------------------------------------------------------------
        // Data organization (Fig 9b "data sorting time"): build each region's
        // grid over its full data and reorder the column store so regions
        // (and cells within regions) are contiguous.
        // ------------------------------------------------------------------
        let sort_start = Instant::now();
        let mut regions = Vec::with_capacity(region_data.len());
        let mut global_perm: Vec<usize> = Vec::with_capacity(data.len());
        for (rd, (region_ds, layout)) in region_data.iter().zip(region_datasets.iter().zip(layouts))
        {
            let base = global_perm.len();
            let grid = match layout {
                None => {
                    global_perm.extend_from_slice(&rd.rows);
                    None
                }
                Some((skeleton, partitions)) => {
                    let (grid, local_perm) =
                        AugmentedGrid::build(region_ds, &skeleton, &partitions);
                    global_perm.extend(local_perm.into_iter().map(|local| rd.rows[local]));
                    Some(grid)
                }
            };
            regions.push(RegionIndex {
                base,
                len: rd.rows.len(),
                grid,
                inserted: 0,
            });
        }
        let mut store = ColumnStore::from_dataset(data);
        store.permute(&global_perm);
        store.encode_blocks();
        let sort_secs = sort_start.elapsed().as_secs_f64();

        let name = match config.variant {
            IndexVariant::Full => "Tsunami",
            IndexVariant::GridTreeOnly => "GridTree-only",
            IndexVariant::AugmentedGridOnly => "AugmentedGrid-only",
        };

        let num_regions = regions.len();
        Ok(Self {
            tree,
            regions,
            store,
            timing: BuildTiming {
                sort_secs,
                optimize_secs,
            },
            name: name.to_string(),
            variant: config.variant,
            reference: workload.clone(),
            ingested: 0,
            cube: RegionCube::new(num_regions),
            matview: matview_env_enabled(),
        })
    }

    /// Incrementally re-optimizes the index for a shifted workload with the
    /// default cost model, discarding the [`ReoptReport`]. See
    /// [`TsunamiIndex::reoptimize_with_cost`].
    pub fn reoptimize(
        &self,
        data: &Dataset,
        new_workload: &Workload,
        config: &TsunamiConfig,
    ) -> Result<Self> {
        Ok(self
            .reoptimize_with_cost(data, new_workload, &CostModel::default(), config)?
            .0)
    }

    /// Incrementally re-optimizes the index for a shifted workload (§8).
    ///
    /// The sorted data and the Grid-Tree skeleton are reused. Both the
    /// reference workload (the one the current layout was optimized for) and
    /// `new_workload` are routed through the existing regions; a region is
    /// *hot* — and gets its Augmented Grid re-optimized, warm-started from
    /// its current layout — when a per-region [`WorkloadMonitor`] reports
    /// that its query-type mix changed, or when a previously unqueried
    /// region now receives queries. Cold regions keep their grids and their
    /// slice of the physical row order verbatim, so only hot regions pay
    /// optimizer and re-sort cost.
    ///
    /// A cheap fallback escalates to a full [`TsunamiIndex::build_with_cost`]
    /// when region reuse would be unsound (the data shape or the index
    /// variant changed) or when the whole-workload frequency drift exceeds
    /// [`TsunamiConfig::reopt_rebuild_drift`].
    ///
    /// Correctness never depends on the layout: stale, incrementally
    /// re-optimized, and freshly rebuilt indexes return identical results —
    /// only scan volume (and therefore latency) differs.
    pub fn reoptimize_with_cost(
        &self,
        data: &Dataset,
        new_workload: &Workload,
        cost: &CostModel,
        config: &TsunamiConfig,
    ) -> Result<(Self, ReoptReport)> {
        if data.num_dims() == 0 {
            return Err(TsunamiError::Build("dataset has no dimensions".into()));
        }
        for q in new_workload.queries() {
            q.validate_dims(data.num_dims())?;
        }

        // Escalation checks: region reuse is only sound over the same data
        // (same rows, same width) and the same component line-up; past the
        // ingest-staleness rebuild bar too much of the data post-dates the
        // Grid Tree; and beyond the configured drift the caller wants a
        // fresh Grid Tree as well. Each reason is reported distinctly — a
        // caller seeing `DataChanged` should be routing data changes through
        // [`TsunamiIndex::ingest`], not a workload reoptimize. The
        // whole-workload drift comparison costs two query-type clusterings,
        // so it is skipped — and the report carries NaN — when the
        // threshold (≥ 2.0, the drift maximum) can never trigger it.
        let data_staleness = self.data_staleness();
        // Live length, not physical: the caller hands us the logical (live)
        // dataset, which tombstoned-but-not-yet-compacted rows are absent
        // from. Comparing against the physical row count would spuriously
        // escalate every post-delete reoptimize as `DataChanged`.
        let escalation =
            if data.len() != self.store.live_len() || data.num_dims() != self.store.num_dims() {
                Some(Escalation::DataChanged)
            } else if config.variant != self.variant {
                Some(Escalation::VariantChanged)
            } else if data_staleness > config.ingest_rebuild_staleness {
                Some(Escalation::DataStaleness)
            } else {
                None
            };
        let global_report = if escalation.is_some() || config.reopt_rebuild_drift >= 2.0 {
            None
        } else {
            Some(WorkloadMonitor::new(data, &self.reference, config).observe(
                data,
                new_workload,
                config,
            ))
        };
        let global_drift = global_report
            .as_ref()
            .map_or(f64::NAN, |r| r.frequency_drift);
        let escalation = escalation.or_else(|| {
            (global_drift > config.reopt_rebuild_drift).then_some(Escalation::WorkloadDrift)
        });
        if let Some(reason) = escalation {
            let rebuilt = Self::build_with_cost(data, new_workload, cost, config)?;
            let regions_total = rebuilt.regions.len();
            return Ok((
                rebuilt,
                ReoptReport {
                    regions_total,
                    regions_reoptimized: regions_total,
                    regions_kept: 0,
                    escalation: Some(reason),
                    frequency_drift: global_drift,
                    data_staleness,
                },
            ));
        }

        // Nothing-shifted fast path: when the new workload's type mix matches
        // the reference — same filtered-dimension sets (cheap), and the
        // monitor's selectivity/frequency fingerprints agree — the current
        // layout is already optimized for it. Keep every region verbatim and
        // just adopt the new workload as the reference. Accumulated ingest
        // staleness disqualifies the shortcut: the mix may be unchanged, but
        // stale regions still owe the optimizer a pass below.
        let same_mix = data_staleness <= config.ingest_region_staleness
            && dims_mix(self.reference.queries()) == dims_mix(new_workload.queries())
            && {
                let report = global_report.unwrap_or_else(|| {
                    WorkloadMonitor::new(data, &self.reference, config).observe(
                        data,
                        new_workload,
                        config,
                    )
                });
                !report.reoptimize
            };
        if same_mix {
            let regions_total = self.regions.len();
            return Ok((
                Self {
                    tree: self.tree.clone(),
                    regions: self.regions.clone(),
                    store: self.store.clone(),
                    timing: BuildTiming::default(),
                    name: self.name.clone(),
                    variant: self.variant,
                    reference: new_workload.clone(),
                    ingested: self.ingested,
                    // Nothing moved: every region's live multiset — and with
                    // it every cube entry — carries verbatim.
                    cube: RegionCube::from_entries(self.cube.snapshot()),
                    matview: self.matview,
                },
                ReoptReport {
                    regions_total,
                    regions_reoptimized: 0,
                    regions_kept: regions_total,
                    escalation: None,
                    frequency_drift: global_drift,
                    data_staleness,
                },
            ));
        }

        // ------------------------------------------------------------------
        // Incremental optimization. First fold back the Grid-Tree splits the
        // new workload no longer distinguishes: splits that only served the
        // old workload's skew provide zero pruning now but tax every plan
        // with extra region visits. A subtree's leaves occupy a contiguous
        // slice of the store, so a merged region is just a wider slice.
        // Then route both workloads through the collapsed tree and
        // re-optimize only the hot regions. (The AugmentedGridOnly ablation
        // never assigns queries to its single region at build time — mirror
        // that here so re-optimization keeps its semantics instead of
        // silently growing a grid.)
        // ------------------------------------------------------------------
        let opt_start = Instant::now();
        let (effective_config, optimizer_kind) = effective_build_config(config);
        let route_queries: &[Query] = if config.variant == IndexVariant::AugmentedGridOnly {
            &[]
        } else {
            new_workload.queries()
        };
        // The same 1%-of-queries bar the from-scratch build uses to stop
        // splitting gates both tree merging and per-region optimizer work.
        let min_queries =
            ((new_workload.len() as f64 * config.min_region_query_fraction).ceil() as usize).max(1);
        let (tree, spans) = self.tree.collapse_for(
            route_queries,
            config.reopt_collapse_reach.clamp(0.0, 1.0),
            min_queries,
        );

        // Region skeletons for the collapsed tree: a span of one old region
        // keeps its base/len/grid; a merged span concatenates the old
        // regions' (adjacent) slices and must be re-laid-out.
        #[derive(Clone)]
        struct Candidate {
            base: usize,
            len: usize,
            /// The surviving grid (single-region spans only).
            grid: Option<AugmentedGrid>,
            /// Merged regions lost their old layouts and must be rebuilt.
            forced_hot: bool,
            /// Rows ingested since the span's layouts were last optimized.
            inserted: usize,
        }
        let candidates: Vec<Candidate> = spans
            .iter()
            .map(|span| {
                let olds = &self.regions[span.clone()];
                if olds.len() == 1 {
                    Candidate {
                        base: olds[0].base,
                        len: olds[0].len,
                        grid: olds[0].grid.clone(),
                        forced_hot: false,
                        inserted: olds[0].inserted,
                    }
                } else {
                    Candidate {
                        base: olds[0].base,
                        len: olds.iter().map(|r| r.len).sum(),
                        grid: None,
                        forced_hot: true,
                        inserted: olds.iter().map(|r| r.inserted).sum(),
                    }
                }
            })
            .collect();
        let num_regions = candidates.len();

        // Cube entries carried per candidate: a single-region span keeps its
        // entry; a merged span is the multiset union of its old regions'
        // entries (droppable to lazy re-fold if any constituent was unfolded).
        let old_entries = self.cube.snapshot();
        let carried_entries: Vec<Option<CubeEntry>> = spans
            .iter()
            .map(|span| {
                let mut acc: Option<CubeEntry> = None;
                for rid in span.clone() {
                    let e = old_entries.get(rid).cloned().flatten()?;
                    match &mut acc {
                        None => acc = Some(e),
                        Some(a) => a.merge(&e),
                    }
                }
                acc
            })
            .collect();

        let route = |w: &Workload| -> Vec<Vec<Query>> {
            let mut per_region: Vec<Vec<Query>> = vec![Vec::new(); num_regions];
            if config.variant != IndexVariant::AugmentedGridOnly {
                for q in w.queries() {
                    for rid in tree.regions_for_query(q) {
                        per_region[rid].push(q.clone());
                    }
                }
            }
            per_region
        };
        let ref_by_region = route(&self.reference);
        let new_by_region = route(new_workload);

        // A region is hot when its query mix changed: merged by the
        // collapse, previously unqueried but queried now, or a per-region
        // comparison reports type shift — first a cheap filtered-dimension
        // mix check (different dims ⇒ different types, no clustering
        // needed), then a full per-region WorkloadMonitor for same-dims
        // selectivity/frequency drift. Regions the new workload never
        // touches stay cold regardless of their old layout — an unused grid
        // is harmless.
        /// One leaf of a hot region's (possibly re-split) local structure:
        /// the rows it owns (indices into the hot region's dataset) and, when
        /// it has intersecting queries, its optimized Augmented Grid layout.
        struct LocalPart {
            rows: Vec<usize>,
            layout: Option<(Skeleton, Vec<usize>)>,
        }
        /// The optimizer's plan for one hot region.
        struct HotPlan {
            region_ds: Dataset,
            /// Local Grid Tree to graft when the region was re-split into
            /// more than one part.
            subtree: Option<GridTree>,
            parts: Vec<LocalPart>,
        }

        // A region only earns optimizer time when it matters to the new
        // workload (`min_queries` again). Rarely-hit regions answer through
        // their existing layout (or a plain region scan) — their
        // contribution to total latency is bounded by how rarely they are
        // hit. Merged regions always qualify: `collapse_for` only merges
        // subtrees with at least `min_queries` routed queries.
        let mut pending: Vec<Option<HotPlan>> = (0..num_regions).map(|_| None).collect();
        for rid in 0..num_regions {
            let candidate = &candidates[rid];
            let new_q = &new_by_region[rid];
            if candidate.len == 0 || new_q.is_empty() {
                continue;
            }
            // Ingest staleness forces a region hot the same way a merge does:
            // enough of its rows post-date the layout that the optimizer owes
            // it a pass regardless of how the query mix compares.
            let stale = candidate.inserted as f64 / candidate.len.max(1) as f64
                > config.ingest_region_staleness;
            let hot = (candidate.forced_hot
                || stale
                || match &candidate.grid {
                    None => true,
                    Some(_) => {
                        let ref_q = &ref_by_region[rid];
                        ref_q.is_empty()
                            || dims_mix(ref_q) != dims_mix(new_q)
                            || WorkloadMonitor::new(data, &Workload::new(ref_q.clone()), config)
                                .observe(data, &Workload::new(new_q.clone()), config)
                                .reoptimize
                    }
                })
                && new_q.len() >= min_queries;
            if !hot {
                continue;
            }
            let region_ds = self
                .store
                .slice_dataset(candidate.base..candidate.base + candidate.len);

            // Layout-fitness gate: a changed query *mix* does not imply the
            // physical layout is wrong for it. Before paying for gradient
            // descent, price the region's current layout on the new queries
            // against the heuristic initialization the optimizer would
            // otherwise start from; when the current layout is already
            // competitive, keep the region verbatim — descent would start
            // from it anyway and buy little.
            if let (false, false, Some(grid)) = (candidate.forced_hot, stale, &candidate.grid) {
                let sample = tsunami_core::sample::sample_dataset(
                    &region_ds,
                    effective_config.optimizer_sample_size,
                    effective_config.seed,
                );
                let eval: Workload = new_q
                    .iter()
                    .step_by(new_q.len().div_ceil(32))
                    .cloned()
                    .collect();
                let cost_cur = predicted_cost(
                    &sample,
                    candidate.len,
                    grid.skeleton(),
                    grid.partitions(),
                    &eval,
                    cost,
                );
                let init_s = heuristic_skeleton(&sample, &effective_config);
                let init_p = initial_partitions(
                    &sample,
                    &init_s,
                    &eval,
                    effective_config.max_cells_per_grid,
                );
                let cost_init =
                    predicted_cost(&sample, candidate.len, &init_s, &init_p, &eval, cost);
                if cost_cur <= cost_init * 1.1 {
                    continue;
                }
            }

            // Re-split the hot region for its new query mix: a local Grid
            // Tree over just this region's rows, with the global leaf-size
            // thresholds rescaled so grafting reproduces fresh-build
            // granularity. Most hot regions don't need a split and stay one
            // leaf.
            let mut local_config = effective_config.clone();
            local_config.min_region_point_fraction = (effective_config.min_region_point_fraction
                * data.len() as f64
                / candidate.len.max(1) as f64)
                .min(1.0);
            local_config.min_region_query_fraction = (effective_config.min_region_query_fraction
                * new_workload.len() as f64
                / new_q.len() as f64)
                .min(1.0);
            let local_types = cluster_query_types(
                &region_ds,
                &Workload::new(new_q.clone()),
                local_config.dbscan_eps,
                local_config.dbscan_min_pts,
                local_config.optimizer_sample_size,
                local_config.seed,
            );
            let (local_tree, local_data) = GridTree::build(&region_ds, &local_types, &local_config);

            let single_leaf = local_tree.num_regions() == 1;
            let parts: Vec<LocalPart> = local_data
                .into_iter()
                .map(|rd| {
                    let layout = if rd.queries.is_empty() || rd.rows.is_empty() {
                        None
                    } else {
                        // Warm-start a single-leaf region from its current
                        // layout (same rows, so the layout transfers
                        // losslessly); re-split parts cover different row
                        // sets, where transplanted layouts measurably
                        // mislead the descent — they start from the
                        // workload-aware heuristic instead.
                        let warm = if single_leaf {
                            candidate
                                .grid
                                .as_ref()
                                .map(|g| (g.skeleton().clone(), g.partitions().to_vec()))
                        } else {
                            None
                        };
                        let part_ds = region_ds.select_rows(&rd.rows);
                        let layout = optimize_layout_from(
                            &part_ds,
                            &Workload::new(rd.queries),
                            cost,
                            &effective_config,
                            optimizer_kind,
                            warm.as_ref().map(|(s, p)| (s, p.as_slice())),
                        );
                        Some((layout.skeleton, layout.partitions))
                    };
                    LocalPart {
                        rows: rd.rows,
                        layout,
                    }
                })
                .collect();
            pending[rid] = Some(HotPlan {
                region_ds,
                subtree: (!single_leaf).then_some(local_tree),
                parts,
            });
        }
        let optimize_secs = opt_start.elapsed().as_secs_f64();

        // ------------------------------------------------------------------
        // Data organization: graft re-split subtrees into the tree, rebuild
        // the hot regions' grids, and rewrite only their slices of the
        // (cloned) store; cold regions — layouts and physical order — are
        // untouched.
        // ------------------------------------------------------------------
        let sort_start = Instant::now();
        let expansions: Vec<Option<GridTree>> = pending
            .iter_mut()
            .map(|p| p.as_mut().and_then(|plan| plan.subtree.take()))
            .collect();
        let (tree, provenance) = tree.with_expanded_leaves(&expansions);

        let mut store = self.store.clone();
        let mut regions: Vec<RegionIndex> = Vec::with_capacity(provenance.len());
        let mut cube_entries: Vec<Option<CubeEntry>> = Vec::with_capacity(provenance.len());
        let mut reoptimized = 0usize;
        for (rid, plan) in pending.into_iter().enumerate() {
            let candidate = &candidates[rid];
            let Some(plan) = plan else {
                // Cold: layout, data order, region slice, and staleness all
                // unchanged.
                regions.push(RegionIndex {
                    base: candidate.base,
                    len: candidate.len,
                    grid: candidate.grid.clone(),
                    inserted: candidate.inserted,
                });
                cube_entries.push(carried_entries[rid].clone());
                continue;
            };
            // A single-part hot region only permutes rows *within* its slice
            // — aggregates are order-free, so its entry carries. A re-split
            // redistributes rows across new regions; those fold lazily.
            let single_part = plan.parts.len() == 1;
            // Lay the hot region's parts out back-to-back within its slice,
            // each sorted by its own grid's cell order.
            let mut region_perm: Vec<usize> = Vec::with_capacity(candidate.len);
            for part in plan.parts {
                let base = candidate.base + region_perm.len();
                let len = part.rows.len();
                let grid = match part.layout {
                    None => {
                        region_perm.extend_from_slice(&part.rows);
                        None
                    }
                    Some((skeleton, partitions)) => {
                        let part_ds = plan.region_ds.select_rows(&part.rows);
                        let (grid, local_perm) =
                            AugmentedGrid::build(&part_ds, &skeleton, &partitions);
                        region_perm.extend(local_perm.into_iter().map(|local| part.rows[local]));
                        // Only parts that actually got an optimized grid
                        // count as re-optimized; query-less parts of a
                        // re-split are plain region scans.
                        reoptimized += 1;
                        Some(grid)
                    }
                };
                regions.push(RegionIndex {
                    base,
                    len,
                    grid,
                    inserted: 0,
                });
                cube_entries.push(if single_part {
                    carried_entries[rid].clone()
                } else {
                    None
                });
            }
            debug_assert_eq!(region_perm.len(), candidate.len);
            store.permute_range(candidate.base, &region_perm);
        }
        store.encode_blocks();
        debug_assert_eq!(regions.len(), tree.num_regions());
        debug_assert_eq!(regions.len(), provenance.len());
        let sort_secs = sort_start.elapsed().as_secs_f64();

        let regions_total = regions.len();
        let report = ReoptReport {
            regions_total,
            regions_reoptimized: reoptimized,
            regions_kept: regions_total - reoptimized,
            escalation: None,
            frequency_drift: global_drift,
            data_staleness,
        };
        // Staleness that survived (cold regions' counters) stays on the
        // books; re-optimized regions just repaid theirs.
        let ingested = regions.iter().map(|r| r.inserted).sum();
        Ok((
            Self {
                tree,
                regions,
                store,
                timing: BuildTiming {
                    sort_secs,
                    optimize_secs,
                },
                name: self.name.clone(),
                variant: self.variant,
                reference: new_workload.clone(),
                ingested,
                cube: RegionCube::from_entries(cube_entries),
                matview: self.matview,
            },
            report,
        ))
    }

    /// Ingests a batch of rows with the default cost model. See
    /// [`TsunamiIndex::ingest_with_cost`].
    pub fn ingest(&self, rows: &[Point], config: &TsunamiConfig) -> Result<(Self, IngestReport)> {
        let batch = Dataset::from_rows(self.store.num_dims(), rows)?;
        self.ingest_with_cost(&batch, &CostModel::default(), config)
    }

    /// Absorbs new rows into the existing index **without a rebuild**.
    ///
    /// Each row is routed to its Grid-Tree region (widening the region's
    /// recorded bounds when the row falls outside the build-time domain) and
    /// appended into that region's contiguous slice of the store. Only the
    /// touched regions pay any cost: their Augmented Grids are *re-gridded*
    /// — per-dimension models re-fit over the merged rows (keeping bucket
    /// value bounds, and with them exactness and residual elimination,
    /// truthful for out-of-domain values) and just their slice re-sorted
    /// into cell order. Untouched regions keep their grids and physical
    /// order verbatim, so ingest cost is proportional to where the data
    /// landed, not to the index — and never includes the layout optimizer
    /// unless staleness escalates:
    ///
    /// * a touched region whose accumulated inserted-row fraction passes
    ///   [`TsunamiConfig::ingest_region_staleness`] gets its layout
    ///   re-optimized locally (warm-started from the current one);
    /// * the whole index escalates to a from-scratch
    ///   [`TsunamiIndex::build_with_cost`] over data + batch when the
    ///   ingested fraction would pass
    ///   [`TsunamiConfig::ingest_rebuild_staleness`].
    ///
    /// Correctness never depends on staleness: an ingested index returns
    /// results bit-identical to one rebuilt from the full dataset — only
    /// scan volume differs.
    pub fn ingest_with_cost(
        &self,
        rows: &Dataset,
        cost: &CostModel,
        config: &TsunamiConfig,
    ) -> Result<(Self, IngestReport)> {
        if rows.num_dims() != self.store.num_dims() {
            return Err(TsunamiError::DimensionMismatch {
                expected: self.store.num_dims(),
                got: rows.num_dims(),
            });
        }
        let n = self.store.len();
        let m = rows.len();
        if m == 0 {
            return Ok((
                Self {
                    tree: self.tree.clone(),
                    regions: self.regions.clone(),
                    store: self.store.clone(),
                    timing: BuildTiming::default(),
                    name: self.name.clone(),
                    variant: self.variant,
                    reference: self.reference.clone(),
                    ingested: self.ingested,
                    cube: RegionCube::from_entries(self.cube.snapshot()),
                    matview: self.matview,
                },
                IngestReport {
                    rows_ingested: 0,
                    regions_touched: 0,
                    regions_reoptimized: 0,
                    rebuilt: false,
                    data_staleness: self.data_staleness(),
                },
            ));
        }

        // Whole-index escalation: past the rebuild bar too much of the data
        // post-dates the Grid Tree for structure reuse to stay worthwhile
        // (and a changed variant invalidates every component anyway). The
        // rebuild consumes the merged dataset — physical store order, which
        // is as good as any for a from-scratch build.
        let staleness =
            (self.ingested + self.store.tombstones().deleted() + m) as f64 / (n + m) as f64;
        if config.variant != self.variant || staleness > config.ingest_rebuild_staleness {
            // Rebuild over the *live* rows plus the batch so tombstoned rows
            // are never resurrected by the merge.
            let mut cols = self.store.live_slice_dataset(0..n).into_columns();
            for (dim, col) in cols.iter_mut().enumerate() {
                col.extend_from_slice(rows.column(dim));
            }
            let merged = Dataset::from_columns(cols)?;
            let rebuilt = Self::build_with_cost(&merged, &self.reference, cost, config)?;
            let regions_touched = rebuilt.regions.len();
            return Ok((
                rebuilt,
                IngestReport {
                    rows_ingested: m,
                    regions_touched,
                    regions_reoptimized: regions_touched,
                    rebuilt: true,
                    data_staleness: staleness,
                },
            ));
        }

        let start = Instant::now();
        let (effective_config, optimizer_kind) = effective_build_config(config);

        // Route each new row to its region, widening recorded bounds so
        // query routing and region-scan exactness stay sound for
        // out-of-domain values.
        let mut tree = self.tree.clone();
        let mut per_region: Vec<Vec<usize>> = vec![Vec::new(); self.regions.len()];
        let mut point = vec![0u64; rows.num_dims()];
        for j in 0..m {
            for (dim, coord) in point.iter_mut().enumerate() {
                *coord = rows.get(j, dim);
            }
            per_region[tree.absorb_point(&point)].push(j);
        }

        // The reference workload routed through the (widened) tree — the
        // per-region workloads any staleness-escalated re-optimization
        // targets. Routing clones every query once per intersecting region,
        // so the common hot path (small batches, no region past its
        // staleness bar) skips it entirely. (The AugmentedGridOnly ablation
        // never assigns queries to its single region; mirror that.)
        let any_stale = self.variant != IndexVariant::AugmentedGridOnly
            && self.regions.iter().enumerate().any(|(rid, region)| {
                let news = per_region[rid].len();
                news > 0
                    && region.grid.is_some()
                    && (region.inserted + news) as f64 / (region.len + news) as f64
                        > config.ingest_region_staleness
            });
        let mut ref_by_region: Vec<Vec<Query>> = vec![Vec::new(); self.regions.len()];
        if any_stale {
            for q in self.reference.queries() {
                for rid in tree.regions_for_query(q) {
                    ref_by_region[rid].push(q.clone());
                }
            }
        }

        // Graft: append the batch at the store's tail, then permute it so
        // every region's slice is contiguous again (rows of untouched
        // regions only shift; their relative order is untouched).
        let mut store = self.store.clone();
        store.append_dataset(rows);
        let mut perm: Vec<usize> = Vec::with_capacity(n + m);
        let mut regions: Vec<RegionIndex> = Vec::with_capacity(self.regions.len());
        // Incremental cube maintenance: a touched region's new live multiset
        // is old ∪ routed rows, so its entry absorbs the batch as one folded
        // delta ([`CubeEntry::merge`]) — never a re-fold over the region.
        // Untouched regions carry; unfolded entries stay lazy.
        let mut cube_entries = self.cube.snapshot();
        for (rid, news) in per_region.iter().enumerate() {
            if news.is_empty() {
                continue;
            }
            if let Some(entry) = &mut cube_entries[rid] {
                entry.merge(&CubeEntry::fold_dataset(&rows.select_rows(news)));
            }
        }
        let mut regions_touched = 0usize;
        let mut regions_reoptimized = 0usize;
        let mut optimize_secs = 0.0f64;
        for (rid, region) in self.regions.iter().enumerate() {
            let news = &per_region[rid];
            let base = perm.len();
            let old_range = region.base..region.base + region.len;
            if news.is_empty() {
                perm.extend(old_range);
                regions.push(RegionIndex {
                    base,
                    len: region.len,
                    grid: region.grid.clone(),
                    inserted: region.inserted,
                });
                continue;
            }
            regions_touched += 1;
            let len = region.len + news.len();
            match &region.grid {
                None => {
                    // Query-less region (plain region scan): order within
                    // the slice is irrelevant, the new rows join at its tail.
                    perm.extend(old_range);
                    perm.extend(news.iter().map(|&j| n + j));
                    regions.push(RegionIndex {
                        base,
                        len,
                        grid: None,
                        inserted: region.inserted + news.len(),
                    });
                }
                Some(grid) => {
                    // The merged region rows (old slice + new rows), and the
                    // appended-store indices parallel to them.
                    let mut cols = self.store.slice_dataset(old_range.clone()).into_columns();
                    for (dim, col) in cols.iter_mut().enumerate() {
                        col.extend(news.iter().map(|&j| rows.get(j, dim)));
                    }
                    let region_ds = Dataset::from_columns(cols).expect("equal-length columns");
                    let indices: Vec<usize> =
                        old_range.chain(news.iter().map(|&j| n + j)).collect();

                    let inserted = region.inserted + news.len();
                    let stale = inserted as f64 / len as f64 > config.ingest_region_staleness;
                    let ref_q = &ref_by_region[rid];
                    let (skeleton, partitions, inserted) = if stale && !ref_q.is_empty() {
                        let t0 = Instant::now();
                        let layout = optimize_layout_from(
                            &region_ds,
                            &Workload::new(ref_q.clone()),
                            cost,
                            &effective_config,
                            optimizer_kind,
                            Some((grid.skeleton(), grid.partitions())),
                        );
                        optimize_secs += t0.elapsed().as_secs_f64();
                        regions_reoptimized += 1;
                        (layout.skeleton, layout.partitions, 0)
                    } else {
                        (
                            grid.skeleton().clone(),
                            grid.partitions().to_vec(),
                            inserted,
                        )
                    };
                    // Re-grid over the merged rows and re-sort only this
                    // region's slice into the grid's cell order.
                    let (grid, local_perm) =
                        AugmentedGrid::build(&region_ds, &skeleton, &partitions);
                    perm.extend(local_perm.into_iter().map(|local| indices[local]));
                    regions.push(RegionIndex {
                        base,
                        len,
                        grid: Some(grid),
                        inserted,
                    });
                }
            }
        }
        debug_assert_eq!(perm.len(), n + m);
        store.permute(&perm);
        store.encode_blocks();

        let ingested = regions.iter().map(|r| r.inserted).sum();
        let sort_secs = (start.elapsed().as_secs_f64() - optimize_secs).max(0.0);
        Ok((
            Self {
                tree,
                regions,
                store,
                timing: BuildTiming {
                    sort_secs,
                    optimize_secs,
                },
                name: self.name.clone(),
                variant: self.variant,
                reference: self.reference.clone(),
                ingested,
                cube: RegionCube::from_entries(cube_entries),
                matview: self.matview,
            },
            IngestReport {
                rows_ingested: m,
                regions_touched,
                regions_reoptimized,
                rebuilt: false,
                data_staleness: staleness,
            },
        ))
    }

    /// Tombstones the rows matching `query`'s predicates with the default
    /// cost model. See [`TsunamiIndex::delete_where_with_cost`].
    pub fn delete_where(
        &self,
        query: &Query,
        config: &TsunamiConfig,
    ) -> Result<(Self, DeleteReport)> {
        self.delete_where_with_cost(query, &CostModel::default(), config)
    }

    /// Deletes the rows matching `query`'s predicates **without a rebuild**.
    ///
    /// Deleted rows are tombstoned in the store's deletion bitmap; every
    /// kernel tier masks liveness into its selections, so results are
    /// immediately exact while the physical layout — and every region's grid
    /// — stays untouched. Tombstones then feed the same staleness machinery
    /// as ingest:
    ///
    /// * a region whose mutation fraction (inserted + tombstoned over region
    ///   rows) passes [`TsunamiConfig::ingest_region_staleness`] is
    ///   *compacted*: its dead rows are physically dropped and the region is
    ///   re-gridded over its live rows with its existing layout (subsequent
    ///   regions shift down — their grids and relative order are untouched);
    /// * the whole index escalates to a from-scratch
    ///   [`TsunamiIndex::build_with_cost`] over the live rows when the
    ///   mutated fraction passes
    ///   [`TsunamiConfig::ingest_rebuild_staleness`].
    ///
    /// Correctness never depends on compaction: a tombstoned index returns
    /// results bit-identical to one rebuilt from the live rows — only scan
    /// volume differs.
    pub fn delete_where_with_cost(
        &self,
        query: &Query,
        cost: &CostModel,
        config: &TsunamiConfig,
    ) -> Result<(Self, DeleteReport)> {
        query.validate_dims(self.store.num_dims())?;
        let mut store = self.store.clone();
        let rows_deleted = store.delete_where(query);
        let n = store.len();
        let staleness = (self.ingested + store.tombstones().deleted()) as f64 / n.max(1) as f64;
        if rows_deleted == 0 {
            return Ok((
                Self {
                    tree: self.tree.clone(),
                    regions: self.regions.clone(),
                    store,
                    timing: BuildTiming::default(),
                    name: self.name.clone(),
                    variant: self.variant,
                    reference: self.reference.clone(),
                    ingested: self.ingested,
                    // No new tombstones: every live multiset is unchanged.
                    cube: RegionCube::from_entries(self.cube.snapshot()),
                    matview: self.matview,
                },
                DeleteReport {
                    rows_deleted: 0,
                    regions_compacted: 0,
                    rebuilt: false,
                    data_staleness: staleness,
                },
            ));
        }

        // Whole-index escalation: past the rebuild bar too much of the data
        // post-dates (or no longer belongs to) the Grid Tree for structure
        // reuse to stay worthwhile. The rebuild consumes only the live rows,
        // so tombstones are physically gone afterwards.
        if staleness > config.ingest_rebuild_staleness {
            let live = store.live_slice_dataset(0..n);
            let rebuilt = Self::build_with_cost(&live, &self.reference, cost, config)?;
            let regions_compacted = rebuilt.regions.len();
            return Ok((
                rebuilt,
                DeleteReport {
                    rows_deleted,
                    regions_compacted,
                    rebuilt: true,
                    data_staleness: staleness,
                },
            ));
        }

        // Cube maintenance: exactly the regions whose tombstone count grew
        // lost live rows — drop their entries (re-folded lazily on the next
        // covered query). Everything else carries: the compaction below only
        // removes already-dead rows and permutes within regions, neither of
        // which changes a live multiset. Compared at the *old* bases, before
        // compaction shifts them.
        let mut cube_entries = self.cube.snapshot();
        for (rid, region) in self.regions.iter().enumerate() {
            let old_range = region.base..region.base + region.len;
            let before = self.store.tombstones().count_deleted_in(old_range.clone());
            let after = store.tombstones().count_deleted_in(old_range);
            if after != before {
                cube_entries[rid] = None;
            }
        }

        // Per-region compaction: regions past the staleness bar drop their
        // dead rows and re-grid over the survivors (keeping their optimized
        // skeleton/partitions — compaction repays *physical* staleness, the
        // layout only re-earns optimizer time through reoptimize/ingest).
        // Rows after a compacted region shift down; bases are re-derived.
        let start = Instant::now();
        let mut regions: Vec<RegionIndex> = Vec::with_capacity(self.regions.len());
        let mut regions_compacted = 0usize;
        let mut shift = 0usize;
        for region in &self.regions {
            let base = region.base - shift;
            let range = base..base + region.len;
            let dead = store.tombstones().count_deleted_in(range.clone());
            let frac = (region.inserted + dead) as f64 / region.len.max(1) as f64;
            if dead == 0 || frac <= config.ingest_region_staleness {
                regions.push(RegionIndex {
                    base,
                    len: region.len,
                    grid: region.grid.clone(),
                    inserted: region.inserted,
                });
                continue;
            }
            let removed = store.drop_deleted_in(range);
            debug_assert_eq!(removed, dead);
            shift += removed;
            regions_compacted += 1;
            let len = region.len - removed;
            let grid = match &region.grid {
                Some(grid) if len > 0 => {
                    // Re-grid the survivors into the existing layout and
                    // re-sort only this region's slice into cell order.
                    let region_ds = store.slice_dataset(base..base + len);
                    let (grid, local_perm) =
                        AugmentedGrid::build(&region_ds, grid.skeleton(), grid.partitions());
                    store.permute_range(base, &local_perm);
                    Some(grid)
                }
                _ => None,
            };
            regions.push(RegionIndex {
                base,
                len,
                grid,
                inserted: region.inserted,
            });
        }
        store.encode_blocks();
        debug_assert_eq!(store.len(), n - shift);

        Ok((
            Self {
                tree: self.tree.clone(),
                regions,
                store,
                timing: BuildTiming {
                    sort_secs: start.elapsed().as_secs_f64(),
                    optimize_secs: 0.0,
                },
                name: self.name.clone(),
                variant: self.variant,
                reference: self.reference.clone(),
                ingested: self.ingested,
                cube: RegionCube::from_entries(cube_entries),
                matview: self.matview,
            },
            DeleteReport {
                rows_deleted,
                regions_compacted,
                rebuilt: false,
                data_staleness: staleness,
            },
        ))
    }

    /// The fraction of stored rows mutated — ingested or tombstoned — since
    /// the Grid Tree was last derived from the data (and not yet repaid with
    /// optimizer attention or compaction) — the data-drift signal the
    /// engine's autonomous re-optimization loop watches, mirroring its
    /// workload-drift monitor.
    pub fn data_staleness(&self) -> f64 {
        (self.ingested + self.store.tombstones().deleted()) as f64 / self.store.len().max(1) as f64
    }

    /// Number of live (non-tombstoned) rows the index answers over.
    pub fn live_len(&self) -> usize {
        self.store.live_len()
    }

    /// Enables or disables answering fully-covered regions from the
    /// materialized region cube (see [`crate::cube`]). Purely a performance
    /// switch — results are bit-identical either way — exposed so benchmarks
    /// and differential tests can compare both paths without racing on the
    /// `TSUNAMI_MATVIEW` environment variable. Rebuild escalations re-read
    /// the environment default.
    pub fn set_matview(&mut self, on: bool) {
        self.matview = on;
    }

    /// Whether the planner currently answers covered regions from the cube.
    pub fn matview_enabled(&self) -> bool {
        self.matview
    }

    /// The Grid Tree component.
    pub fn grid_tree(&self) -> &GridTree {
        &self.tree
    }

    /// Index statistics in the shape of the paper's Table 4.
    pub fn stats(&self) -> TsunamiStats {
        let mut points: Vec<usize> = self.regions.iter().map(|r| r.len).collect();
        points.sort_unstable();
        let indexed: Vec<&AugmentedGrid> = self
            .regions
            .iter()
            .filter_map(|r| r.grid.as_ref())
            .collect();
        let n_indexed = indexed.len().max(1);
        TsunamiStats {
            num_grid_tree_nodes: self.tree.num_nodes(),
            grid_tree_depth: self.tree.depth(),
            num_leaf_regions: self.tree.num_regions(),
            min_points_per_region: points.first().copied().unwrap_or(0),
            median_points_per_region: points.get(points.len() / 2).copied().unwrap_or(0),
            max_points_per_region: points.last().copied().unwrap_or(0),
            avg_fms_per_region: indexed
                .iter()
                .map(|g| g.num_functional_mappings() as f64)
                .sum::<f64>()
                / n_indexed as f64,
            avg_ccdfs_per_region: indexed
                .iter()
                .map(|g| g.num_conditional_cdfs() as f64)
                .sum::<f64>()
                / n_indexed as f64,
            total_grid_cells: indexed.iter().map(|g| g.num_cells()).sum(),
        }
    }

    /// Total number of grid cells across regions (Table 4).
    pub fn total_cells(&self) -> usize {
        self.stats().total_grid_cells
    }
}

impl MultiDimIndex for TsunamiIndex {
    fn name(&self) -> &str {
        &self.name
    }

    fn source(&self) -> &dyn ScanSource {
        &self.store
    }

    fn plan(&self, query: &Query) -> ScanPlan {
        let d = self.store.num_dims();
        let mut plan = ScanPlan::new();
        // Residual elimination: a predicate needs re-checking only if *some*
        // planned region fails to guarantee it by construction (through its
        // grid's visited partitions, or through the Grid Tree region bounds
        // for unindexed regions).
        let mut guaranteed = vec![true; d];
        // A whole-region scan (no grid, or the grid's cell enumeration fell
        // back because it would cost more than the scan): plan the region as
        // one range, with exactness and guarantees derived from the
        // Grid-Tree region bounds.
        let plan_region_scan =
            |plan: &mut ScanPlan, guaranteed: &mut Vec<bool>, region_id: usize| {
                let region = &self.regions[region_id];
                let tree_region = self.tree.region(region_id);
                let exact = tree_region.contained_in(query);
                plan.push(region.base..region.base + region.len, exact);
                for p in query.predicates() {
                    if p.dim < d {
                        let (lo, hi) = tree_region.bounds[p.dim];
                        guaranteed[p.dim] &= p.lo <= lo && hi <= p.hi;
                    }
                }
            };
        // The aggregation's input dimension, whose pre-folded SUM/MIN/MAX a
        // covered region contributes (COUNT only uses the row count; dim 0
        // stands in, and every dataset has at least one dimension).
        let agg_dim = query.aggregation().input_dim().unwrap_or(0);
        for region_id in self.tree.regions_for_query(query) {
            let region = &self.regions[region_id];
            if region.len == 0 {
                continue;
            }
            // Materialized-aggregate coverage: a region whose bounds lie
            // fully inside the query contributes its pre-folded cube entry
            // as a `PlanPartial` instead of a scan range. Only whole exact
            // regions qualify — partial overlaps (the rims) still scan.
            // Containment also means the region cannot weaken any residual
            // guarantee, so skipping the per-dim flag updates is sound.
            if self.matview && self.tree.region(region_id).contained_in(query) {
                let entry = self
                    .cube
                    .get_or_fold(region_id, &self.store, region.base, region.len);
                if let Some(partial) = entry.partial(agg_dim) {
                    plan.push_partial(partial);
                }
                continue;
            }
            match &region.grid {
                Some(grid) => {
                    let ranges = grid.plan_ranges(query);
                    if ranges.fallback {
                        plan_region_scan(&mut plan, &mut guaranteed, region_id);
                        continue;
                    }
                    for (r, exact) in ranges.ranges {
                        plan.push(region.base + r.start..region.base + r.end, exact);
                    }
                    for (g, rg) in guaranteed.iter_mut().zip(&ranges.guaranteed) {
                        *g &= rg;
                    }
                }
                None => plan_region_scan(&mut plan, &mut guaranteed, region_id),
            }
        }
        plan.with_guaranteed_dims(query, &guaranteed)
    }

    fn size_bytes(&self) -> usize {
        self.tree.size_bytes()
            + self
                .regions
                .iter()
                .map(|r| {
                    r.grid.as_ref().map_or(0, AugmentedGrid::size_bytes)
                        + std::mem::size_of::<RegionIndex>()
                })
                .sum::<usize>()
    }

    fn build_timing(&self) -> BuildTiming {
        self.timing
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        // Exposes the concrete index behind `Box<dyn MultiDimIndex>` so the
        // engine's `Database::reoptimize` can take the incremental path.
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::sample::SplitMix;
    use tsunami_core::{AggResult, Predicate};

    /// A dataset with both correlation (dim1 ~ 2*dim0) and a time-like
    /// dimension (dim2) that the workload queries with recency skew.
    fn dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix::new(seed);
        let d0: Vec<u64> = (0..n).map(|_| rng.next_below(50_000)).collect();
        let d1: Vec<u64> = d0.iter().map(|&v| 2 * v + rng.next_below(200)).collect();
        let d2: Vec<u64> = (0..n as u64).map(|i| i * 10_000 / n as u64).collect();
        Dataset::from_columns(vec![d0, d1, d2]).unwrap()
    }

    /// Two query types: broad historical scans over dim0, and narrow recent
    /// scans over dim2 (skewed towards the top of its domain).
    fn workload(seed: u64) -> Workload {
        let mut rng = SplitMix::new(seed);
        let mut qs = Vec::new();
        for _ in 0..30 {
            let lo = rng.next_below(40_000);
            qs.push(Query::count(vec![Predicate::range(0, lo, lo + 8_000).unwrap()]).unwrap());
        }
        for _ in 0..30 {
            let lo = 8_000 + rng.next_below(1_800);
            qs.push(Query::count(vec![Predicate::range(2, lo, lo + 150).unwrap()]).unwrap());
        }
        Workload::new(qs)
    }

    #[test]
    fn tsunami_matches_full_scan_oracle_on_workload_queries() {
        let data = dataset(8_000, 111);
        let w = workload(112);
        let index = TsunamiIndex::build(&data, &w, &TsunamiConfig::fast()).unwrap();
        for q in w.queries() {
            assert_eq!(index.execute(q).0, q.execute_full_scan(&data), "{q:?}");
        }
    }

    #[test]
    fn tsunami_matches_oracle_on_unseen_multidim_queries() {
        let data = dataset(6_000, 113);
        let w = workload(114);
        let index = TsunamiIndex::build(&data, &w, &TsunamiConfig::fast()).unwrap();
        let mut rng = SplitMix::new(115);
        for _ in 0..25 {
            let a = rng.next_below(45_000);
            let c = rng.next_below(9_000);
            let q = Query::count(vec![
                Predicate::range(0, a, a + 10_000).unwrap(),
                Predicate::range(1, 2 * a, 2 * a + 30_000).unwrap(),
                Predicate::range(2, c, c + 2_000).unwrap(),
            ])
            .unwrap();
            assert_eq!(index.execute(&q).0, q.execute_full_scan(&data), "{q:?}");
        }
        // Empty-result query.
        let q = Query::count(vec![Predicate::range(0, 400_000, 500_000).unwrap()]).unwrap();
        assert_eq!(q.execute_full_scan(&data), AggResult::Count(0));
        assert_eq!(index.execute(&q).0, AggResult::Count(0));
    }

    #[test]
    fn tsunami_scans_far_fewer_points_than_a_full_scan() {
        let data = dataset(20_000, 116);
        let w = workload(117);
        let index = TsunamiIndex::build(&data, &w, &TsunamiConfig::fast()).unwrap();
        let mut total_scanned = 0usize;
        for q in w.queries() {
            let (_, stats) = index.execute(q);
            total_scanned += stats.points;
        }
        let avg = total_scanned / w.len();
        assert!(
            avg < data.len() / 3,
            "average scan of {avg} points out of {} is not selective enough",
            data.len()
        );
    }

    #[test]
    fn stats_describe_the_structure() {
        let data = dataset(10_000, 118);
        let w = workload(119);
        let index = TsunamiIndex::build(&data, &w, &TsunamiConfig::fast()).unwrap();
        let stats = index.stats();
        assert_eq!(stats.num_leaf_regions, index.grid_tree().num_regions());
        assert!(stats.num_grid_tree_nodes >= stats.num_leaf_regions);
        assert!(stats.max_points_per_region >= stats.median_points_per_region);
        assert!(stats.median_points_per_region >= stats.min_points_per_region);
        assert!(stats.total_grid_cells > 0);
        let total_points: usize = index.regions.iter().map(|r| r.len).sum();
        assert_eq!(total_points, data.len());
        assert!(index.size_bytes() > 0);
        assert!(index.build_timing().total_secs() > 0.0);
    }

    #[test]
    fn variants_build_and_answer_correctly() {
        let data = dataset(5_000, 120);
        let w = workload(121);
        for variant in [
            IndexVariant::Full,
            IndexVariant::GridTreeOnly,
            IndexVariant::AugmentedGridOnly,
        ] {
            let config = TsunamiConfig::fast().with_variant(variant);
            let index = TsunamiIndex::build(&data, &w, &config).unwrap();
            for q in w.queries().iter().step_by(9) {
                assert_eq!(
                    index.execute(q).0,
                    q.execute_full_scan(&data),
                    "{variant:?} {q:?}"
                );
            }
            match variant {
                IndexVariant::AugmentedGridOnly => {
                    assert_eq!(index.grid_tree().num_regions(), 1);
                    assert_eq!(index.name(), "AugmentedGrid-only");
                }
                IndexVariant::GridTreeOnly => {
                    // Flood-style regions: no correlation-aware strategies.
                    let s = index.stats();
                    assert_eq!(s.avg_fms_per_region, 0.0);
                    assert_eq!(s.avg_ccdfs_per_region, 0.0);
                }
                IndexVariant::Full => {
                    assert_eq!(index.name(), "Tsunami");
                }
            }
        }
    }

    #[test]
    fn skewed_workload_produces_multiple_regions_in_full_variant() {
        let data = dataset(10_000, 122);
        let w = workload(123);
        let index = TsunamiIndex::build(&data, &w, &TsunamiConfig::fast()).unwrap();
        assert!(
            index.grid_tree().num_regions() >= 2,
            "expected the Grid Tree to split this skewed workload"
        );
    }

    #[test]
    fn empty_workload_still_builds_a_valid_index() {
        let data = dataset(2_000, 124);
        let index =
            TsunamiIndex::build(&data, &Workload::default(), &TsunamiConfig::fast()).unwrap();
        let q = Query::count(vec![Predicate::range(0, 0, 25_000).unwrap()]).unwrap();
        assert_eq!(index.execute(&q).0, q.execute_full_scan(&data));
    }

    #[test]
    fn sum_queries_are_supported_end_to_end() {
        let data = dataset(4_000, 125);
        let w = workload(126);
        let index = TsunamiIndex::build(&data, &w, &TsunamiConfig::fast()).unwrap();
        let q = Query::new(
            vec![Predicate::range(0, 0, 25_000).unwrap()],
            tsunami_core::Aggregation::Sum(1),
        )
        .unwrap();
        assert_eq!(index.execute(&q).0, q.execute_full_scan(&data));
    }

    /// A shifted workload over the same data: narrow scans over dim1 (which
    /// the original workload never filters) plus broad historical dim2 scans.
    fn shifted_workload(seed: u64) -> Workload {
        let mut rng = SplitMix::new(seed);
        let mut qs = Vec::new();
        for _ in 0..30 {
            let lo = rng.next_below(90_000);
            qs.push(Query::count(vec![Predicate::range(1, lo, lo + 4_000).unwrap()]).unwrap());
        }
        for _ in 0..30 {
            let lo = rng.next_below(4_000);
            qs.push(Query::count(vec![Predicate::range(2, lo, lo + 2_500).unwrap()]).unwrap());
        }
        Workload::new(qs)
    }

    #[test]
    fn reoptimize_is_incremental_and_preserves_correctness() {
        let data = dataset(9_000, 130);
        let old_w = workload(131);
        let new_w = shifted_workload(132);
        let config = TsunamiConfig::fast();
        let stale = TsunamiIndex::build(&data, &old_w, &config).unwrap();
        let (fresh, report) = stale
            .reoptimize_with_cost(&data, &new_w, &CostModel::default(), &config)
            .unwrap();

        assert!(!report.escalated(), "{report:?}");
        // The report describes the adapted index: collapse and re-splitting
        // may change the region count, but every region is accounted for.
        assert_eq!(report.regions_total, fresh.grid_tree().num_regions());
        assert_eq!(
            report.regions_reoptimized + report.regions_kept,
            report.regions_total
        );
        // Every row is still owned by exactly one region.
        let total_points: usize = fresh.regions.iter().map(|r| r.len).sum();
        assert_eq!(total_points, data.len());

        // Correctness never depends on the layout.
        for q in new_w.queries().iter().chain(old_w.queries()) {
            let expected = q.execute_full_scan(&data);
            assert_eq!(stale.execute(q).0, expected, "stale {q:?}");
            assert_eq!(fresh.execute(q).0, expected, "reoptimized {q:?}");
        }
    }

    #[test]
    fn reoptimize_with_the_same_workload_keeps_every_region() {
        let data = dataset(8_000, 133);
        let w = workload(134);
        let config = TsunamiConfig::fast();
        let index = TsunamiIndex::build(&data, &w, &config).unwrap();
        let (same, report) = index
            .reoptimize_with_cost(&data, &w, &CostModel::default(), &config)
            .unwrap();
        assert!(!report.escalated());
        assert_eq!(
            report.regions_reoptimized, 0,
            "an unchanged workload must not re-optimize any region: {report:?}"
        );
        // Identical layouts: every query scans exactly the same points.
        for q in w.queries().iter().step_by(5) {
            assert_eq!(index.execute(q), same.execute(q));
        }
    }

    #[test]
    fn reoptimize_escalates_on_drift_threshold_and_data_change() {
        let data = dataset(6_000, 135);
        let old_w = workload(136);
        let new_w = shifted_workload(137);
        let config = TsunamiConfig::fast();
        let index = TsunamiIndex::build(&data, &old_w, &config).unwrap();

        // A zero threshold turns any drift into a full rebuild.
        let strict = config.clone().with_reopt_rebuild_drift(0.0);
        let (rebuilt, report) = index
            .reoptimize_with_cost(&data, &new_w, &CostModel::default(), &strict)
            .unwrap();
        assert!(report.escalated(), "{report:?}");
        assert!(report.frequency_drift > 0.0);
        for q in new_w.queries().iter().step_by(7) {
            assert_eq!(rebuilt.execute(q).0, q.execute_full_scan(&data));
        }

        // Changed data shape: region reuse is unsound, rebuild over the new
        // data instead.
        let grown = dataset(7_000, 138);
        let (over_grown, report) = index
            .reoptimize_with_cost(&grown, &new_w, &CostModel::default(), &config)
            .unwrap();
        assert!(report.escalated());
        for q in new_w.queries().iter().step_by(9) {
            assert_eq!(over_grown.execute(q).0, q.execute_full_scan(&grown));
        }

        // Changed variant: also a rebuild.
        let gt_only = config.clone().with_variant(IndexVariant::GridTreeOnly);
        let (_, report) = index
            .reoptimize_with_cost(&data, &new_w, &CostModel::default(), &gt_only)
            .unwrap();
        assert!(report.escalated());
    }

    #[test]
    fn reoptimize_rejects_out_of_bounds_queries() {
        let data = dataset(2_000, 139);
        let index = TsunamiIndex::build(&data, &workload(140), &TsunamiConfig::fast()).unwrap();
        let bad = Workload::new(vec![Query::count(
            vec![Predicate::range(9, 0, 10).unwrap()],
        )
        .unwrap()]);
        assert!(index
            .reoptimize(&data, &bad, &TsunamiConfig::fast())
            .is_err());
    }

    /// A batch of rows drawn from the same distribution as `dataset`, plus a
    /// few rows *outside* the build-time domain (larger dim0/dim2 values).
    fn ingest_batch(n: usize, seed: u64) -> Vec<tsunami_core::Point> {
        let mut rng = SplitMix::new(seed);
        let mut rows: Vec<tsunami_core::Point> = (0..n)
            .map(|_| {
                let d0 = rng.next_below(50_000);
                vec![d0, 2 * d0 + rng.next_below(200), rng.next_below(10_000)]
            })
            .collect();
        for i in 0..(n / 10).max(2) {
            // Out-of-domain tail: beyond every build-time max.
            rows.push(vec![120_000 + i as u64, 900_000, 60_000 + i as u64]);
        }
        rows
    }

    /// The ingested index's data, reconstructed from its own store order.
    fn merged_dataset(data: &Dataset, batch: &[tsunami_core::Point]) -> Dataset {
        let mut merged = data.clone();
        for row in batch {
            merged.push_row(row).unwrap();
        }
        merged
    }

    #[test]
    fn ingest_matches_an_index_rebuilt_from_the_full_dataset() {
        let data = dataset(6_000, 150);
        let w = workload(151);
        let config = TsunamiConfig::fast();
        let index = TsunamiIndex::build(&data, &w, &config).unwrap();

        let batch = ingest_batch(400, 152);
        let (ingested, report) = index.ingest(&batch, &config).unwrap();
        assert!(!report.rebuilt, "{report:?}");
        assert_eq!(report.rows_ingested, batch.len());
        assert!(report.regions_touched >= 1);
        assert!(ingested.data_staleness() > 0.0);

        let merged = merged_dataset(&data, &batch);
        // Every row is owned by exactly one region, and the store grew.
        let total: usize = ingested.regions.iter().map(|r| r.len).sum();
        assert_eq!(total, merged.len());

        // Results identical to a full rebuild — including queries reaching
        // only the out-of-domain tail.
        let rebuilt = TsunamiIndex::build(&merged, &w, &config).unwrap();
        let mut probes: Vec<Query> = w.queries().to_vec();
        probes.push(Query::count(vec![Predicate::range(0, 100_000, 200_000).unwrap()]).unwrap());
        probes.push(
            Query::new(
                vec![Predicate::range(2, 55_000, 70_000).unwrap()],
                tsunami_core::Aggregation::Sum(1),
            )
            .unwrap(),
        );
        for q in &probes {
            let expected = q.execute_full_scan(&merged);
            assert_eq!(ingested.execute(q).0, expected, "ingested {q:?}");
            assert_eq!(rebuilt.execute(q).0, expected, "rebuilt {q:?}");
        }
    }

    #[test]
    fn ingest_accumulates_staleness_and_escalates_to_rebuild() {
        let data = dataset(3_000, 153);
        let w = workload(154);
        let config = TsunamiConfig::fast();
        let index = TsunamiIndex::build(&data, &w, &config).unwrap();

        // A batch below the rebuild bar keeps the structure...
        let small = ingest_batch(300, 155);
        let (after_small, report) = index.ingest(&small, &config).unwrap();
        assert!(!report.rebuilt);
        // ...a batch pushing the ingested fraction past the bar rebuilds.
        let large = ingest_batch(4_000, 156);
        let (after_large, report) = after_small.ingest(&large, &config).unwrap();
        assert!(report.rebuilt, "{report:?}");
        assert!(report.data_staleness > config.ingest_rebuild_staleness);
        assert_eq!(after_large.data_staleness(), 0.0);

        let merged = merged_dataset(&merged_dataset(&data, &small), &large);
        for q in w.queries().iter().step_by(7) {
            assert_eq!(after_large.execute(q).0, q.execute_full_scan(&merged));
        }
    }

    #[test]
    fn ingest_reoptimizes_stale_regions_locally() {
        let data = dataset(4_000, 157);
        let w = workload(158);
        // A hair-trigger region bar: any touched region re-optimizes.
        let config = TsunamiConfig::fast().with_ingest_staleness(0.0, 1.0);
        let index = TsunamiIndex::build(&data, &w, &config).unwrap();
        let batch = ingest_batch(200, 159);
        let (ingested, report) = index.ingest(&batch, &config).unwrap();
        assert!(!report.rebuilt);
        assert!(
            report.regions_reoptimized >= 1,
            "a zero staleness bar must escalate touched regions: {report:?}"
        );
        let merged = merged_dataset(&data, &batch);
        for q in w.queries().iter().step_by(5) {
            assert_eq!(ingested.execute(q).0, q.execute_full_scan(&merged));
        }
    }

    #[test]
    fn ingest_rejects_mismatched_rows_and_accepts_empty_batches() {
        let data = dataset(2_000, 160);
        let config = TsunamiConfig::fast();
        let index = TsunamiIndex::build(&data, &workload(161), &config).unwrap();
        assert!(matches!(
            index.ingest(&[vec![1, 2]], &config),
            Err(TsunamiError::DimensionMismatch { .. })
        ));
        let (same, report) = index.ingest(&[], &config).unwrap();
        assert_eq!(report.rows_ingested, 0);
        assert_eq!(report.regions_touched, 0);
        let q = Query::count(vec![Predicate::range(0, 0, 25_000).unwrap()]).unwrap();
        assert_eq!(same.execute(&q).0, index.execute(&q).0);
    }

    #[test]
    fn reoptimize_reports_distinct_escalation_reasons() {
        let data = dataset(3_000, 162);
        let old_w = workload(163);
        let new_w = shifted_workload(164);
        let config = TsunamiConfig::fast();
        let index = TsunamiIndex::build(&data, &old_w, &config).unwrap();

        // Data change.
        let grown = dataset(3_500, 165);
        let (_, report) = index
            .reoptimize_with_cost(&grown, &new_w, &CostModel::default(), &config)
            .unwrap();
        assert_eq!(report.escalation, Some(Escalation::DataChanged));

        // Variant change.
        let gt_only = config.clone().with_variant(IndexVariant::GridTreeOnly);
        let (_, report) = index
            .reoptimize_with_cost(&data, &new_w, &CostModel::default(), &gt_only)
            .unwrap();
        assert_eq!(report.escalation, Some(Escalation::VariantChanged));

        // Workload drift.
        let strict = config.clone().with_reopt_rebuild_drift(0.0);
        let (_, report) = index
            .reoptimize_with_cost(&data, &new_w, &CostModel::default(), &strict)
            .unwrap();
        assert_eq!(report.escalation, Some(Escalation::WorkloadDrift));

        // Data staleness: ingest under a zero rebuild bar... escalates in
        // ingest itself, so drive it through reoptimize instead — ingest
        // with permissive bars, then reoptimize with a zero rebuild bar.
        let permissive = config.clone().with_ingest_staleness(1.0, 1.0);
        let (stale, report) = index.ingest(&ingest_batch(400, 166), &permissive).unwrap();
        assert!(!report.rebuilt);
        let merged_len = stale.regions.iter().map(|r| r.len).sum::<usize>();
        let merged = stale.store.slice_dataset(0..merged_len);
        let zero_bar = config.clone().with_ingest_staleness(0.0, 0.0);
        let (_, report) = stale
            .reoptimize_with_cost(&merged, &old_w, &CostModel::default(), &zero_bar)
            .unwrap();
        assert_eq!(report.escalation, Some(Escalation::DataStaleness));
        assert!(report.data_staleness > 0.0);

        // No escalation: the incremental path reports `None`.
        let (_, report) = index
            .reoptimize_with_cost(&data, &new_w, &CostModel::default(), &config)
            .unwrap();
        assert_eq!(report.escalation, None);
        assert!(!report.escalated());
    }

    /// The live rows of `data` after deleting everything matching `del`.
    fn live_after(data: &Dataset, del: &Query) -> Dataset {
        let keep: Vec<usize> = (0..data.len())
            .filter(|&r| !del.matches_point(data.row(r).as_slice()))
            .collect();
        data.select_rows(&keep)
    }

    /// All five aggregations over the same predicate set.
    fn all_agg_probes(preds: Vec<Predicate>) -> Vec<Query> {
        use tsunami_core::Aggregation::*;
        [Count, Sum(1), Min(1), Max(1), Avg(2)]
            .into_iter()
            .map(|agg| Query::new(preds.clone(), agg).unwrap())
            .collect()
    }

    #[test]
    fn delete_where_tombstones_and_matches_live_oracle() {
        let data = dataset(6_000, 170);
        let w = workload(171);
        let config = TsunamiConfig::fast();
        let index = TsunamiIndex::build(&data, &w, &config).unwrap();

        let del = Query::count(vec![Predicate::range(0, 10_000, 13_000).unwrap()]).unwrap();
        let (after, report) = index.delete_where(&del, &config).unwrap();
        let live = live_after(&data, &del);
        assert!(!report.rebuilt, "{report:?}");
        assert_eq!(report.rows_deleted, data.len() - live.len());
        assert!(report.rows_deleted > 0);
        assert_eq!(after.live_len(), live.len());
        assert!(after.data_staleness() > 0.0);

        // Bit-identical to the live oracle for every aggregation, on probes
        // overlapping the deleted band, the workload, and the full domain.
        let mut probes = all_agg_probes(vec![Predicate::range(0, 8_000, 20_000).unwrap()]);
        probes.extend(all_agg_probes(vec![]));
        probes.extend(w.queries().iter().step_by(7).cloned());
        for q in &probes {
            assert_eq!(after.execute(q).0, q.execute_full_scan(&live), "{q:?}");
        }

        // Deleting the same band again is a no-op.
        let (_, again) = after.delete_where(&del, &config).unwrap();
        assert_eq!(again.rows_deleted, 0);
    }

    #[test]
    fn delete_compaction_and_rebuild_paths_match_tombstoned_results() {
        let data = dataset(5_000, 172);
        let w = workload(173);
        let del = Query::count(vec![Predicate::range(2, 0, 2_500).unwrap()]).unwrap();
        let live = live_after(&data, &del);
        let mut probes = all_agg_probes(vec![Predicate::range(2, 0, 6_000).unwrap()]);
        probes.extend(all_agg_probes(vec![]));

        // Tombstone-only path (bars never trip).
        let lazy = TsunamiConfig::fast().with_ingest_staleness(1.0, 1.0);
        let index = TsunamiIndex::build(&data, &w, &lazy).unwrap();
        let (tombstoned, report) = index.delete_where(&del, &lazy).unwrap();
        assert!(!report.rebuilt);
        assert_eq!(report.regions_compacted, 0);

        // Per-region compaction path (zero region bar): dead rows are
        // physically gone.
        let eager = TsunamiConfig::fast().with_ingest_staleness(0.0, 1.0);
        let index = TsunamiIndex::build(&data, &w, &eager).unwrap();
        let (compacted, report) = index.delete_where(&del, &eager).unwrap();
        assert!(!report.rebuilt);
        assert!(report.regions_compacted >= 1, "{report:?}");
        assert_eq!(compacted.store.len(), live.len());
        let total: usize = compacted.regions.iter().map(|r| r.len).sum();
        assert_eq!(total, live.len());

        // Whole-index rebuild path (zero rebuild bar).
        let rebuild = TsunamiConfig::fast().with_ingest_staleness(1.0, 0.0);
        let index = TsunamiIndex::build(&data, &w, &rebuild).unwrap();
        let (rebuilt, report) = index.delete_where(&del, &rebuild).unwrap();
        assert!(report.rebuilt, "{report:?}");
        assert_eq!(rebuilt.store.len(), live.len());
        assert_eq!(rebuilt.data_staleness(), 0.0);

        // All three paths are bit-identical to the live oracle.
        for q in &probes {
            let expected = q.execute_full_scan(&live);
            assert_eq!(tombstoned.execute(q).0, expected, "tombstoned {q:?}");
            assert_eq!(compacted.execute(q).0, expected, "compacted {q:?}");
            assert_eq!(rebuilt.execute(q).0, expected, "rebuilt {q:?}");
        }
    }

    #[test]
    fn ingest_after_delete_never_resurrects_tombstoned_rows() {
        let data = dataset(3_000, 174);
        let w = workload(175);
        let lazy = TsunamiConfig::fast().with_ingest_staleness(1.0, 1.0);
        let index = TsunamiIndex::build(&data, &w, &lazy).unwrap();
        let del = Query::count(vec![Predicate::range(0, 0, 20_000).unwrap()]).unwrap();
        let (after, report) = index.delete_where(&del, &lazy).unwrap();
        assert!(!report.rebuilt);
        assert!(report.rows_deleted > 0);
        let live = live_after(&data, &del);

        // An ingest big enough to trip the rebuild bar merges live rows plus
        // the batch — the tombstoned rows must not come back.
        let strict = TsunamiConfig::fast().with_ingest_staleness(1.0, 0.0);
        let batch = ingest_batch(300, 176);
        let (merged_index, report) = after
            .ingest_with_cost(
                &Dataset::from_rows(3, &batch).unwrap(),
                &CostModel::default(),
                &strict,
            )
            .unwrap();
        assert!(report.rebuilt, "{report:?}");
        let merged = merged_dataset(&live, &batch);
        assert_eq!(merged_index.store.len(), merged.len());
        for q in all_agg_probes(vec![Predicate::range(0, 0, 30_000).unwrap()]) {
            assert_eq!(
                merged_index.execute(&q).0,
                q.execute_full_scan(&merged),
                "{q:?}"
            );
        }

        // A post-delete reoptimize over the live dataset must not spuriously
        // escalate as DataChanged.
        let (_, report) = after
            .reoptimize_with_cost(&live, &w, &CostModel::default(), &lazy)
            .unwrap();
        assert_ne!(
            report.escalation,
            Some(Escalation::DataChanged),
            "{report:?}"
        );
    }

    #[test]
    fn zero_dimensional_dataset_is_rejected() {
        let data = Dataset::from_columns(vec![vec![1, 2, 3]])
            .unwrap()
            .select_dims(&[]);
        let err = TsunamiIndex::build(&data, &Workload::default(), &TsunamiConfig::fast());
        assert!(err.is_err());
    }
}
