//! Differential shift-testing harness: incremental re-optimization
//! (`Database::reoptimize`) must be indistinguishable from both the stale
//! index and a from-scratch rebuild in *results* — bit-identical answers for
//! all five aggregations, serial and parallel, with residual-predicate
//! elimination intact — while keeping the shifted workload's scan volume
//! within a small tolerance of the fresh rebuild's.

mod common;

use common::run_parallel;
use tsunami_core::sample::SplitMix;
use tsunami_core::{Aggregation, Dataset, Predicate, Query, TsunamiError, Workload};
use tsunami_flood::FloodConfig;
use tsunami_index::TsunamiConfig;
use tsunami_suite::{Database, IndexSpec, Table};
use tsunami_workloads::{synthetic, tpch};

/// Every learned index spec: Tsunami takes the true incremental path,
/// Flood exercises the reindex fallback behind the same API.
fn learned_specs() -> Vec<IndexSpec> {
    vec![
        IndexSpec::Tsunami(TsunamiConfig::fast()),
        IndexSpec::Flood(FloodConfig::fast()),
    ]
}

/// A shifted workload for the synthetic datasets: the original workload
/// skews toward the upper range of the first dimensions, so shift to the
/// *last* dimensions with no skew.
fn synthetic_shifted(data: &Dataset, queries: usize, seed: u64) -> Workload {
    let d = data.num_dims();
    let mut rng = SplitMix::new(seed);
    Workload::new(
        (0..queries)
            .map(|i| {
                let lo = rng.next_below(synthetic::DOMAIN * 7 / 10);
                let span = synthetic::DOMAIN / if i % 2 == 0 { 50 } else { 8 };
                Query::count(vec![
                    Predicate::range(d - 1, lo, lo + span).unwrap(),
                    Predicate::range(d - 2, lo / 2, lo / 2 + 3 * span).unwrap(),
                ])
                .unwrap()
            })
            .collect(),
    )
}

/// (name, data, original workload, shifted workload) sweep cases.
fn cases() -> Vec<(&'static str, Dataset, Workload, Workload)> {
    let tpch_data = tpch::generate(10_000, 21);
    let tpch_original = tpch::workload(&tpch_data, 6, 22);
    let tpch_shifted = tpch::shifted_workload(&tpch_data, 6, 23);

    let corr = synthetic::correlated(6_000, 6, 24);
    let corr_original = synthetic::workload(&corr, 8, 25);
    let corr_shifted = synthetic_shifted(&corr, 24, 26);

    let unc = synthetic::uncorrelated(5_000, 4, 27);
    let unc_original = synthetic::workload(&unc, 8, 28);
    let unc_shifted = synthetic_shifted(&unc, 20, 29);

    vec![
        ("tpch", tpch_data, tpch_original, tpch_shifted),
        ("synthetic-correlated", corr, corr_original, corr_shifted),
        ("synthetic-uncorrelated", unc, unc_original, unc_shifted),
    ]
}

/// Expands a workload's predicate sets across all five aggregations, cycling
/// the aggregation input dimension.
fn all_aggregations(workload: &Workload, dims: usize) -> Vec<Query> {
    let mut out = Vec::new();
    for (i, q) in workload.queries().iter().enumerate() {
        let agg_dim = i % dims;
        for agg in [
            Aggregation::Count,
            Aggregation::Sum(agg_dim),
            Aggregation::Min(agg_dim),
            Aggregation::Max(agg_dim),
            Aggregation::Avg(agg_dim),
        ] {
            out.push(Query::new(q.predicates().to_vec(), agg).unwrap());
        }
    }
    out
}

#[test]
fn incremental_reopt_is_bit_identical_to_stale_and_rebuild() -> Result<(), TsunamiError> {
    for (name, data, original, shifted) in cases() {
        for spec in learned_specs() {
            let mut db = Database::new();
            db.create_table_unnamed("t", data.clone(), &original, &spec)?;
            let stale = db.table("t")?;
            let incremental = db.reoptimize("t", &shifted, &spec)?;
            let rebuilt = db.reindex("t", &shifted, &spec)?;

            // Results are layout-independent: every aggregation, on both the
            // shifted and the original queries, serially and in parallel,
            // with counters proving the parallel executor ran the same plan.
            let mut probes = all_aggregations(&shifted, data.num_dims());
            probes.extend(all_aggregations(&original, data.num_dims()));
            for q in &probes {
                let oracle = q.execute_full_scan(&data);
                for (label, table) in [
                    ("stale", &stale),
                    ("incremental", &incremental),
                    ("rebuilt", &rebuilt),
                ] {
                    let (serial, serial_stats) = table.prepare(q.clone())?.execute();
                    assert_eq!(
                        serial,
                        oracle,
                        "{name}/{}/{label} diverged on {q:?}",
                        spec.label()
                    );
                    let (parallel, parallel_stats) = run_parallel(table.index(), q, 4);
                    assert_eq!(
                        parallel,
                        oracle,
                        "{name}/{}/{label} parallel diverged on {q:?}",
                        spec.label()
                    );
                    assert_eq!(
                        parallel_stats,
                        serial_stats,
                        "{name}/{}/{label} parallel counters diverged on {q:?}",
                        spec.label()
                    );
                }
            }
        }
    }
    Ok(())
}

#[test]
fn incremental_reopt_keeps_residual_elimination_intact() -> Result<(), TsunamiError> {
    // Whole-domain predicates must still be dropped from the residual after
    // incremental re-optimization — including for regions whose cell
    // enumeration fell back to a whole-region scan, where the guarantee
    // comes from the Grid-Tree region bounds instead of the grid.
    let (name, data, original, shifted) = cases().remove(0);
    let spec = IndexSpec::Tsunami(TsunamiConfig::fast());
    let mut db = Database::new();
    db.create_table_unnamed("t", data.clone(), &original, &spec)?;
    let incremental = db.reoptimize("t", &shifted, &spec)?;

    // Probe with a whole-domain predicate on `discount` (dim 2): it is
    // uncorrelated with every other TPC-H dimension, so no region maps it
    // away (filtered *mapped* dimensions stay residual by design).
    const PROBE_DIM: usize = 2;
    let (qlo, qhi) = data.domain(PROBE_DIM).expect("non-empty");
    let whole = Predicate::range(PROBE_DIM, qlo, qhi).unwrap();
    for base in shifted.queries().iter().step_by(5) {
        let mut predicates = vec![whole];
        predicates.extend(
            base.predicates()
                .iter()
                .copied()
                .filter(|p| p.dim != PROBE_DIM),
        );
        let q = Query::count(predicates).unwrap();
        assert_eq!(
            incremental.execute(&q)?,
            q.execute_full_scan(&data),
            "{name}: {q:?}"
        );
        let plan = incremental.index().plan(&q);
        assert!(
            plan.residual(&q).iter().all(|p| p.dim != PROBE_DIM),
            "{name}: whole-domain predicate survived into the residual of {q:?}"
        );
    }
    Ok(())
}

fn avg_scanned(table: &Table, workload: &Workload) -> Result<f64, TsunamiError> {
    let mut total = 0usize;
    for q in workload.queries() {
        total += table.prepare(q.clone())?.execute().1.points;
    }
    Ok(total as f64 / workload.len().max(1) as f64)
}

#[test]
fn incremental_reopt_scan_volume_stays_close_to_a_fresh_rebuild() -> Result<(), TsunamiError> {
    // Re-optimization must actually adapt the layout: on the shifted
    // workload its scan volume may not exceed the fresh rebuild's by more
    // than a modest factor (cold regions with stale-but-rarely-hit layouts
    // are allowed; wholesale staleness is not).
    for (name, data, original, shifted) in cases() {
        for spec in learned_specs() {
            let mut db = Database::new();
            db.create_table_unnamed("t", data.clone(), &original, &spec)?;
            let incremental = db.reoptimize("t", &shifted, &spec)?;
            let rebuilt = db.reindex("t", &shifted, &spec)?;

            let inc = avg_scanned(&incremental, &shifted)?;
            let fresh = avg_scanned(&rebuilt, &shifted)?;
            // Absolute slack keeps tiny-scan cases (a few hundred points)
            // from flapping on block-granularity effects.
            let tolerance = fresh * 1.5 + 256.0;
            assert!(
                inc <= tolerance,
                "{name}/{}: incremental re-opt scans {inc:.0} points/query vs {fresh:.0} \
                 after a fresh rebuild (tolerance {tolerance:.0})",
                spec.label()
            );
        }
    }
    Ok(())
}
