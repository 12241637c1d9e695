//! Differential tests for the shared scan-execution engine: every index in
//! the workspace — Tsunami, Flood, and all five baselines — must agree with
//! the deliberately scalar, row-at-a-time `Query::execute_full_scan` oracle
//! on randomized workloads across all five aggregations, through both the
//! serial and the parallel executor.
//!
//! The oracle never touches `tsunami_core::exec`, so these tests genuinely
//! cross-check the vectorized selection-vector kernels, the exact-range fast
//! paths (including the MIN/MAX value-fold fallback), and the plan-merging
//! logic against an independent implementation.

mod common;

use common::run_parallel;
use tsunami_baselines::{ClusteredSingleDimIndex, FullScanIndex, HyperOctree, KdTree, ZOrderIndex};
use tsunami_core::sample::SplitMix;
use tsunami_core::{
    AggResult, Aggregation, CostModel, Dataset, MultiDimIndex, Predicate, Query, Workload,
};
use tsunami_flood::{FloodConfig, FloodIndex};
use tsunami_index::{TsunamiConfig, TsunamiIndex};

const ALL_AGGREGATIONS: [fn(usize) -> Aggregation; 5] = [
    |_| Aggregation::Count,
    Aggregation::Sum,
    Aggregation::Min,
    Aggregation::Max,
    Aggregation::Avg,
];

/// A random dataset with one correlated dimension and one low-cardinality
/// dimension (provoking duplicate-heavy cells and exact ranges).
fn random_dataset(rng: &mut SplitMix) -> Dataset {
    let rows = 400 + rng.next_below(1_600) as usize;
    let d0: Vec<u64> = (0..rows).map(|_| rng.next_below(20_000)).collect();
    let d1: Vec<u64> = d0.iter().map(|&v| v * 2 + rng.next_below(500)).collect();
    let d2: Vec<u64> = (0..rows).map(|_| rng.next_below(16)).collect();
    Dataset::from_columns(vec![d0, d1, d2]).unwrap()
}

fn random_workload(rng: &mut SplitMix, dims: usize, n: usize) -> Workload {
    Workload::new(
        (0..n)
            .map(|_| {
                let dim = rng.next_below(dims as u64) as usize;
                let lo = rng.next_below(18_000);
                Query::count(vec![Predicate::range(dim, lo, lo + 2_500).unwrap()]).unwrap()
            })
            .collect(),
    )
}

fn build_all(data: &Dataset, workload: &Workload) -> Vec<Box<dyn MultiDimIndex>> {
    let cost = CostModel::default();
    vec![
        Box::new(
            TsunamiIndex::build_with_cost(data, workload, &cost, &TsunamiConfig::fast()).unwrap(),
        ),
        Box::new(FloodIndex::build(
            data,
            workload,
            &cost,
            &FloodConfig::fast(),
        )),
        Box::new(ClusteredSingleDimIndex::build(data, workload)),
        Box::new(ZOrderIndex::build(data, workload, 128)),
        Box::new(HyperOctree::build(data, workload, 128)),
        Box::new(KdTree::build(data, workload, 128)),
        Box::new(FullScanIndex::build(data)),
    ]
}

#[test]
fn every_index_agrees_with_oracle_on_every_aggregation() {
    for seed in 0..6u64 {
        let mut rng = SplitMix::new(seed * 911 + 13);
        let data = random_dataset(&mut rng);
        let workload = random_workload(&mut rng, data.num_dims(), 10);
        let indexes = build_all(&data, &workload);
        for q in workload.queries() {
            for agg_ctor in ALL_AGGREGATIONS {
                let agg = agg_ctor(1);
                let q = Query::new(q.predicates().to_vec(), agg).unwrap();
                let expected = q.execute_full_scan(&data);
                for idx in &indexes {
                    assert_eq!(
                        idx.execute(&q).0,
                        expected,
                        "{} disagrees with oracle (seed {seed}, {agg:?}, {q:?})",
                        idx.name()
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_executor_matches_serial_for_every_index_and_aggregation() {
    let mut rng = SplitMix::new(4242);
    // Large enough that the parallel executor actually splits work.
    let rows = 30_000usize;
    let d0: Vec<u64> = (0..rows).map(|_| rng.next_below(50_000)).collect();
    let d1: Vec<u64> = d0.iter().map(|&v| v * 3 + rng.next_below(1_000)).collect();
    let d2: Vec<u64> = (0..rows).map(|_| rng.next_below(64)).collect();
    let data = Dataset::from_columns(vec![d0, d1, d2]).unwrap();
    let workload = random_workload(&mut rng, 3, 6);
    let indexes = build_all(&data, &workload);
    for q in workload.queries() {
        for agg_ctor in ALL_AGGREGATIONS {
            let q = Query::new(q.predicates().to_vec(), agg_ctor(1)).unwrap();
            for idx in &indexes {
                let (serial, serial_stats) = idx.execute(&q);
                for threads in [2, 8] {
                    let (parallel, parallel_stats) = run_parallel(idx.as_ref(), &q, threads);
                    assert_eq!(
                        serial,
                        parallel,
                        "{} result ({threads} threads)",
                        idx.name()
                    );
                    assert_eq!(
                        serial_stats,
                        parallel_stats,
                        "{} counters ({threads} threads)",
                        idx.name()
                    );
                }
            }
        }
    }
}

#[test]
fn exact_range_min_max_fallback_is_exercised_and_correct() {
    // A clustered single-dimension index filtered only on its sort dimension
    // plans a single *exact* range; MIN/MAX aggregations must then take the
    // value-fold fallback (the bulk-count/bulk-sum shortcut cannot answer
    // them) and still agree with the oracle.
    let mut rng = SplitMix::new(777);
    let data = random_dataset(&mut rng);
    let idx = ClusteredSingleDimIndex::build_on_dim(&data, 0);
    for _ in 0..25 {
        let lo = rng.next_below(18_000);
        let preds = vec![Predicate::range(0, lo, lo + 3_000).unwrap()];
        // The plan really is exact: one range, flagged exact.
        let probe = Query::count(preds.clone()).unwrap();
        let plan = idx.plan(&probe);
        assert!(plan.num_ranges() <= 1);
        if let Some(r) = plan.ranges().first() {
            assert!(r.exact, "single-filtered sort dim must plan an exact range");
        }
        for agg in [Aggregation::Min(1), Aggregation::Max(1)] {
            let q = Query::new(preds.clone(), agg).unwrap();
            assert_eq!(q.execute_full_scan(&data), idx.execute(&q).0, "{agg:?}");
        }
    }
    // Exact ranges also arise from fully contained tree leaves; cross-check
    // MIN/MAX there too.
    let w = random_workload(&mut rng, data.num_dims(), 8);
    let kd = KdTree::build(&data, &w, 64);
    for q in w.queries() {
        for agg in [Aggregation::Min(2), Aggregation::Max(2)] {
            let q = Query::new(q.predicates().to_vec(), agg).unwrap();
            assert_eq!(kd.execute(&q).0, q.execute_full_scan(&data), "{agg:?}");
        }
    }
}

#[test]
fn single_dim_residual_predicates_stay_correct() {
    // Multi-dimension queries on the single-dim index go through the
    // residual-predicate path (the sort dimension is guaranteed by binary
    // search and only the other predicates are re-checked).
    let mut rng = SplitMix::new(31337);
    let data = random_dataset(&mut rng);
    let idx = ClusteredSingleDimIndex::build_on_dim(&data, 0);
    for _ in 0..25 {
        let lo0 = rng.next_below(15_000);
        let lo2 = rng.next_below(12);
        let q = Query::count(vec![
            Predicate::range(0, lo0, lo0 + 4_000).unwrap(),
            Predicate::range(2, lo2, lo2 + 3).unwrap(),
        ])
        .unwrap();
        assert_eq!(idx.execute(&q).0, q.execute_full_scan(&data), "{q:?}");
    }
}

#[test]
fn empty_and_degenerate_queries_are_consistent() {
    let mut rng = SplitMix::new(99);
    let data = random_dataset(&mut rng);
    let workload = random_workload(&mut rng, data.num_dims(), 4);
    let indexes = build_all(&data, &workload);
    let cases = vec![
        // No predicates: whole-table aggregate.
        Query::new(vec![], Aggregation::Avg(1)).unwrap(),
        // Out-of-domain: empty result.
        Query::new(
            vec![Predicate::range(0, 1_000_000, 2_000_000).unwrap()],
            Aggregation::Min(1),
        )
        .unwrap(),
        // Point query.
        Query::new(vec![Predicate::eq(2, 7)], Aggregation::Sum(0)).unwrap(),
    ];
    for q in &cases {
        let expected = q.execute_full_scan(&data);
        for idx in &indexes {
            assert_eq!(idx.execute(q).0, expected, "{} on {q:?}", idx.name());
        }
    }
    // Out-of-domain MIN is None everywhere.
    assert_eq!(cases[1].execute_full_scan(&data), AggResult::Min(None));
}
