//! Sharded scatter-gather vs a single unsharded `Database`: bit-identical
//! results across index families, shard counts, all five aggregations, and
//! ingest + auto-reoptimization.

use tsunami_core::sample::SplitMix;
use tsunami_core::{Aggregation, Dataset, Point, Predicate, Query};
use tsunami_engine::{shard_of, Database, IndexSpec, ShardedDatabase};
use tsunami_index::TsunamiConfig;
use tsunami_workloads::tpch;

fn small_tsunami() -> IndexSpec {
    IndexSpec::Tsunami(TsunamiConfig {
        optimizer_sample_size: 400,
        optimizer_max_iters: 3,
        max_cells_per_grid: 1 << 10,
        max_tree_depth: 3,
        ..TsunamiConfig::default()
    })
}

fn check_queries(data: &Dataset, seed: u64) -> Vec<Query> {
    let mut rng = SplitMix::new(seed);
    let n = data.len() as u64;
    let mut queries = Vec::new();
    for i in 0..12 {
        let dim = i % data.num_dims();
        let lo = rng.next_below(n.max(1));
        let preds = vec![Predicate::range(0, lo, lo + rng.next_below(n.max(1))).unwrap()];
        for agg in [
            Aggregation::Count,
            Aggregation::Sum(dim),
            Aggregation::Min(dim),
            Aggregation::Max(dim),
            Aggregation::Avg(dim),
        ] {
            queries.push(Query::new(preds.clone(), agg).unwrap());
        }
    }
    queries
}

#[test]
fn learned_indexes_stay_bit_identical_across_shard_counts() {
    let data = tpch::generate(3_000, 21);
    let workload = tpch::workload(&data, 4, 22);
    let columns: Vec<&str> = tpch::COLUMNS.to_vec();
    for spec in [small_tsunami(), IndexSpec::FullScan] {
        let mut oracle = Database::new();
        oracle
            .create_table("lineitem", &columns, data.clone(), &workload, &spec)
            .unwrap();
        let solo = oracle.table("lineitem").unwrap();
        for shards in [1, 4, 6] {
            let mut sharded = ShardedDatabase::new(shards);
            sharded
                .create_table("lineitem", &columns, &data, &workload, &spec)
                .unwrap();
            let wide = sharded.table("lineitem").unwrap();
            for q in check_queries(&data, 31) {
                assert_eq!(
                    wide.execute(&q).unwrap(),
                    solo.execute(&q).unwrap(),
                    "{} K={shards} diverged on {q:?}",
                    spec.label()
                );
            }
        }
    }
}

#[test]
fn ingest_then_auto_reoptimize_preserves_bit_identity() {
    let data = tpch::generate(2_000, 5);
    let workload = tpch::workload(&data, 4, 6);
    let columns: Vec<&str> = tpch::COLUMNS.to_vec();
    let spec = small_tsunami();

    let mut oracle = Database::new();
    oracle
        .create_table("lineitem", &columns, data.clone(), &workload, &spec)
        .unwrap();
    let mut sharded = ShardedDatabase::new(4);
    sharded
        .create_table("lineitem", &columns, &data, &workload, &spec)
        .unwrap();

    // Grow both sides by 40% — enough to cross the data-drift bar.
    let mut rng = SplitMix::new(99);
    let extra: Vec<Point> = (0..800)
        .map(|_| {
            (0..data.num_dims())
                .map(|_| rng.next_below(10_000))
                .collect()
        })
        .collect();
    oracle.insert_batch("lineitem", &extra).unwrap();
    sharded.insert_batch("lineitem", &extra).unwrap();
    assert_eq!(sharded.num_rows("lineitem").unwrap(), 2_800);

    let solo = oracle.table("lineitem").unwrap();
    let wide = sharded.table("lineitem").unwrap();
    for q in check_queries(&data, 41) {
        assert_eq!(wide.execute(&q).unwrap(), solo.execute(&q).unwrap());
    }

    // Data drift (40% inserted) must trigger shard re-optimizations, and
    // the rebuilt layouts must still answer identically.
    let reoptimized = sharded.auto_reoptimize_all().unwrap();
    assert!(reoptimized > 0, "40% growth triggered no re-optimization");
    let wide = sharded.table("lineitem").unwrap();
    for q in check_queries(&data, 41) {
        assert_eq!(wide.execute(&q).unwrap(), solo.execute(&q).unwrap());
    }
}

#[test]
fn hash_routing_is_stable_and_total() {
    let data = tpch::generate(500, 3);
    for k in [1usize, 2, 5, 16] {
        let mut counts = vec![0usize; k];
        for r in 0..data.len() {
            let row = data.row(r);
            let s = shard_of(&row, k);
            assert_eq!(s, shard_of(&row, k), "unstable placement");
            counts[s] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), data.len());
        if k > 1 {
            // FNV over 8 correlated columns should not collapse to one shard.
            assert!(
                counts.iter().filter(|&&c| c > 0).count() > 1,
                "all rows landed on one of {k} shards"
            );
        }
    }
}

/// Every aggregation — AVG included — scatters exactly once: one scheduler
/// job per shard, whose partial states the gather merges.
#[test]
fn every_aggregation_scatters_once_per_shard() {
    let data = tpch::generate(3_000, 17);
    let mut sharded = ShardedDatabase::new(3);
    let table = sharded
        .create_table(
            "t",
            &[],
            &data,
            &tsunami_core::Workload::default(),
            &IndexSpec::FullScan,
        )
        .unwrap();
    let preds = vec![Predicate::range(0, 0, u64::MAX / 2).unwrap()];
    for agg in [
        Aggregation::Avg(1),
        Aggregation::Count,
        Aggregation::Sum(1),
        Aggregation::Min(1),
        Aggregation::Max(1),
    ] {
        let q = Query::new(preds.clone(), agg).unwrap();
        let before = sharded.scheduler().completed();
        assert_eq!(table.execute(&q).unwrap(), q.execute_full_scan(&data));
        assert_eq!(
            sharded.scheduler().completed() - before,
            sharded.num_shards() as u64,
            "{agg:?} scattered more than once"
        );
    }
}
