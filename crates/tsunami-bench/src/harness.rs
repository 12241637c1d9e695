//! Shared machinery for building every index on a dataset/workload bundle
//! and measuring query performance, index size, and build time.
//!
//! Since the `tsunami-engine` front-end landed, the harness goes through the
//! [`Database`] facade: each experiment registers one table per index family
//! (same dataset, different [`IndexSpec`]) and measures through the table
//! handles, exactly like an application would.

use std::time::Instant;

use tsunami_core::{Dataset, MultiDimIndex, Workload};
use tsunami_engine::{Database, IndexSpec, PageSize, Table};
use tsunami_flood::FloodConfig;
use tsunami_index::{IndexVariant, TsunamiConfig};
use tsunami_workloads::DatasetBundle;

/// Scale knobs for the experiment harness. The paper runs 184M–300M rows;
/// this reproduction defaults to laptop-scale sizes that preserve the
/// relative behaviour of the indexes.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Rows per generated dataset.
    pub rows: usize,
    /// Queries per query type.
    pub queries_per_type: usize,
    /// Base random seed.
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            rows: 60_000,
            queries_per_type: 25,
            seed: 42,
        }
    }
}

impl HarnessConfig {
    /// The Tsunami build configuration used by the experiments (moderate
    /// optimizer effort, suitable for repeated builds in one process).
    pub fn tsunami_config(&self) -> TsunamiConfig {
        TsunamiConfig {
            optimizer_sample_size: 800,
            optimizer_max_iters: 6,
            max_cells_per_grid: 1 << 13,
            max_tree_depth: 5,
            ..TsunamiConfig::default()
        }
    }

    /// The Flood build configuration used by the experiments.
    pub fn flood_config(&self) -> FloodConfig {
        FloodConfig {
            max_cells: 1 << 15,
            sample_size: 1_500,
            max_iters: 12,
            seed: self.seed,
        }
    }

    /// Candidate page sizes used when tuning the non-learned baselines.
    pub fn page_size_candidates(&self) -> Vec<usize> {
        vec![256, 1024, 4096]
    }

    /// The paper's full index line-up (Fig 7/8) as engine specs: Tsunami,
    /// Flood, and the tuned non-learned baselines.
    pub fn all_specs(&self) -> Vec<IndexSpec> {
        let tuned = PageSize::TunedOver(self.page_size_candidates());
        vec![
            IndexSpec::Tsunami(self.tsunami_config()),
            IndexSpec::Flood(self.flood_config()),
            IndexSpec::SingleDim,
            IndexSpec::ZOrder(tuned.clone()),
            IndexSpec::Octree(tuned.clone()),
            IndexSpec::KdTree(tuned),
        ]
    }

    /// Just the learned indexes (used by scalability sweeps where re-tuning
    /// every baseline would dominate runtime).
    pub fn learned_specs(&self) -> Vec<IndexSpec> {
        vec![
            IndexSpec::Tsunami(self.tsunami_config()),
            IndexSpec::Flood(self.flood_config()),
        ]
    }
}

/// Measured behaviour of one index on one workload.
#[derive(Debug, Clone)]
pub struct IndexReport {
    /// Index name.
    pub name: String,
    /// Average query latency in microseconds.
    pub avg_query_us: f64,
    /// Queries per second (1e6 / avg_query_us).
    pub throughput_qps: f64,
    /// Index structure size in bytes.
    pub size_bytes: usize,
    /// Seconds spent reorganizing (sorting) the data at build time.
    pub sort_secs: f64,
    /// Seconds spent optimizing the layout at build time.
    pub optimize_secs: f64,
    /// Average number of points scanned per query.
    pub avg_points_scanned: f64,
    /// Average number of contiguous physical ranges scanned per query.
    pub avg_ranges_scanned: f64,
}

/// What [`measure`] observed: latency plus the executor's scan counters,
/// averaged over the workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Measurement {
    /// Average query latency in microseconds.
    pub avg_query_us: f64,
    /// Average number of points scanned per query.
    pub avg_points_scanned: f64,
    /// Average number of contiguous physical ranges scanned per query.
    pub avg_ranges_scanned: f64,
}

/// Measures average query latency and the shared executor's scan counters.
pub fn measure(index: &dyn MultiDimIndex, workload: &Workload) -> Measurement {
    measure_with(workload, |q| index.execute(q))
}

/// Like [`measure`], but running every query through
/// [`tsunami_core::exec::fold_plan`] on `threads` workers of the
/// process-wide pool.
pub fn measure_parallel(
    index: &dyn MultiDimIndex,
    workload: &Workload,
    threads: usize,
) -> Measurement {
    measure_with(workload, |q| execute_pooled(index, q, threads))
}

/// One query through `fold_plan` on `threads` workers of the process-wide
/// pool, with the default kernels.
fn execute_pooled(
    index: &dyn MultiDimIndex,
    q: &tsunami_core::Query,
    threads: usize,
) -> (tsunami_core::AggResult, tsunami_core::ScanCounters) {
    let pool = tsunami_core::exec::pool::global();
    let (acc, counters) = tsunami_core::exec::fold_plan(
        index.source(),
        q,
        &index.plan(q),
        tsunami_core::KernelTier::default(),
        pool,
        threads,
        pool.morsel_rows(),
    );
    (acc.finish(), counters)
}

/// Shared measurement loop: warm-up, one counter-collecting pass, then one
/// timed pass, all through the provided execution closure so the serial and
/// parallel measurements stay methodologically identical.
fn measure_with(
    workload: &Workload,
    execute: impl Fn(&tsunami_core::Query) -> (tsunami_core::AggResult, tsunami_core::ScanCounters),
) -> Measurement {
    if workload.is_empty() {
        return Measurement::default();
    }
    // Warm-up pass (fills caches) followed by the measured pass.
    for q in workload.queries().iter().take(8) {
        std::hint::black_box(execute(q));
    }
    let mut points = 0usize;
    let mut ranges = 0usize;
    for q in workload.queries() {
        let (_, stats) = execute(q);
        points += stats.points;
        ranges += stats.ranges;
    }
    let start = Instant::now();
    for q in workload.queries() {
        std::hint::black_box(execute(q).0);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let n = workload.len() as f64;
    Measurement {
        avg_query_us: elapsed * 1e6 / n,
        avg_points_scanned: points as f64 / n,
        avg_ranges_scanned: ranges as f64 / n,
    }
}

/// Builds a report for a registered table's index.
pub fn report(table: &Table, workload: &Workload) -> IndexReport {
    let index = table.index();
    let m = measure(index, workload);
    let timing = index.build_timing();
    IndexReport {
        name: index.name().to_string(),
        avg_query_us: m.avg_query_us,
        throughput_qps: if m.avg_query_us > 0.0 {
            1e6 / m.avg_query_us
        } else {
            0.0
        },
        size_bytes: index.size_bytes(),
        sort_secs: timing.sort_secs,
        optimize_secs: timing.optimize_secs,
        avg_points_scanned: m.avg_points_scanned,
        avg_ranges_scanned: m.avg_ranges_scanned,
    }
}

/// Registers one table per spec over the same dataset (table names are the
/// spec labels) and returns the database. This is how every experiment
/// compares index families: same data, same workload, different layouts.
pub fn database_for(
    data: &Dataset,
    workload: &Workload,
    columns: &[&str],
    specs: &[IndexSpec],
) -> Database {
    let named: Vec<(String, IndexSpec)> = specs
        .iter()
        .map(|s| (s.label().to_string(), s.clone()))
        .collect();
    database_for_named(data, workload, columns, &named)
}

/// Like [`database_for`] with explicit table names, for line-ups where
/// several specs share a label (e.g. the Fig 12a Tsunami variants). All
/// tables share one `Arc` of the dataset.
pub fn database_for_named(
    data: &Dataset,
    workload: &Workload,
    columns: &[&str],
    named_specs: &[(String, IndexSpec)],
) -> Database {
    let data = std::sync::Arc::new(data.clone());
    let mut db = Database::new();
    for (name, spec) in named_specs {
        if columns.is_empty() {
            db.create_table_unnamed(name, std::sync::Arc::clone(&data), workload, spec)
        } else {
            db.create_table(name, columns, std::sync::Arc::clone(&data), workload, spec)
        }
        .unwrap_or_else(|e| panic!("building {name}: {e}"));
    }
    db
}

/// [`database_for`] over a standard dataset bundle, carrying the bundle's
/// column names into the schema.
pub fn database_for_bundle(bundle: &DatasetBundle, specs: &[IndexSpec]) -> Database {
    database_for(&bundle.data, &bundle.workload, &bundle.columns, specs)
}

/// Flood plus the three Tsunami component ablations (Fig 12a), as
/// `(table name, spec)` pairs — the Tsunami variants share the "Tsunami"
/// label, so they need distinct table names.
pub fn variant_specs(config: &HarnessConfig) -> Vec<(String, IndexSpec)> {
    let mut named = vec![("Flood".to_string(), IndexSpec::Flood(config.flood_config()))];
    for variant in [
        IndexVariant::AugmentedGridOnly,
        IndexVariant::GridTreeOnly,
        IndexVariant::Full,
    ] {
        named.push((
            format!("{variant:?}"),
            IndexSpec::Tsunami(config.tsunami_config().with_variant(variant)),
        ));
    }
    named
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_workloads::DatasetBundle;

    #[test]
    fn full_lineup_builds_and_answers_consistently() {
        let config = HarnessConfig {
            rows: 4_000,
            queries_per_type: 4,
            seed: 7,
        };
        let bundles = DatasetBundle::standard(config.rows, config.queries_per_type, config.seed);
        let bundle = &bundles[0];
        let db = database_for_bundle(bundle, &config.all_specs());
        assert_eq!(db.num_tables(), 6);
        // All indexes agree with the full-scan oracle on a few queries.
        for q in bundle.workload.queries().iter().step_by(7) {
            let expected = q.execute_full_scan(&bundle.data);
            for table in db.tables() {
                assert_eq!(
                    table.execute(q).unwrap(),
                    expected,
                    "{} disagrees on {q:?}",
                    table.name()
                );
            }
        }
        // Reports contain sane values.
        for table in db.tables() {
            let r = report(table, &bundle.workload);
            assert!(r.avg_query_us > 0.0);
            assert!(r.throughput_qps > 0.0);
            assert!(r.avg_points_scanned <= bundle.data.len() as f64);
        }
    }

    #[test]
    fn parallel_executor_agrees_with_serial_across_the_lineup() {
        let config = HarnessConfig {
            rows: 5_000,
            queries_per_type: 3,
            seed: 9,
        };
        let bundles = DatasetBundle::standard(config.rows, config.queries_per_type, config.seed);
        let bundle = &bundles[1];
        let db = database_for_bundle(bundle, &config.all_specs());
        for q in bundle.workload.queries().iter().step_by(5) {
            for table in db.tables() {
                let idx = table.index();
                let (serial, serial_stats) = idx.execute(q);
                let (parallel, parallel_stats) = execute_pooled(idx, q, 4);
                assert_eq!(serial, parallel, "{} result on {q:?}", table.name());
                assert_eq!(
                    serial_stats,
                    parallel_stats,
                    "{} counters on {q:?}",
                    table.name()
                );
            }
        }
    }

    #[test]
    fn learned_only_lineup_is_smaller() {
        let config = HarnessConfig {
            rows: 3_000,
            queries_per_type: 3,
            seed: 8,
        };
        let bundles = DatasetBundle::standard(config.rows, config.queries_per_type, config.seed);
        let db = database_for_bundle(&bundles[2], &config.learned_specs());
        assert_eq!(db.num_tables(), 2);
        let names: Vec<&str> = db.tables().map(|t| t.name()).collect();
        assert_eq!(names, vec!["Tsunami", "Flood"]);
    }
}
