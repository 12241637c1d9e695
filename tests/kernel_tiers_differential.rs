//! Differential tests for the executor's kernel tiers: the branchless
//! selection-vector path, the word-packed selection-bitmap path, and the
//! adaptive per-block switch must all be bit-identical — results *and*
//! [`ScanCounters`] — to the scalar oracle loop, across a seeded sweep of
//! selectivities (0%, ~1%, ~50%, ~99%, 100%), predicate counts (1–4), and
//! block-boundary offsets, for all five aggregations, serial and parallel,
//! and for all seven index families.
//!
//! Block encoding rides the same harness: stores built fully plain
//! ([`EncodePolicy::disabled`]), fully encoded (FOR + Dict + Plain blocks
//! under the default policy), and mixed (encoded blocks behind a plain
//! freshly-appended tail) must all answer bit-identically — and stay
//! bit-identical after tombstone deletes and again after physical
//! compaction re-encodes the survivors. The seven-family test exercises the
//! same property end-to-end: every index re-encodes after restructuring, so
//! its store mixes packed full blocks with a plain partial tail.

mod common;

use common::{run_index, run_plan};
use tsunami_baselines::{ClusteredSingleDimIndex, FullScanIndex, HyperOctree, KdTree, ZOrderIndex};
use tsunami_core::exec::{KernelTier, ScanPlan, BLOCK_ROWS};
use tsunami_core::sample::SplitMix;
use tsunami_core::{Aggregation, CostModel, Dataset, MultiDimIndex, Predicate, Query, Workload};
use tsunami_flood::{FloodConfig, FloodIndex};
use tsunami_index::{TsunamiConfig, TsunamiIndex};
use tsunami_store::{ColumnStore, EncodePolicy};

const ALL_AGGREGATIONS: [Aggregation; 5] = [
    Aggregation::Count,
    Aggregation::Sum(4),
    Aggregation::Min(4),
    Aggregation::Max(4),
    Aggregation::Avg(4),
];

/// Uniform values below `DOMAIN` on 4 predicate dims plus one aggregation
/// input dim, deliberately *not* block-aligned in length.
const DOMAIN: u64 = 1_000;

fn sweep_dataset(rows: usize, seed: u64) -> Dataset {
    let mut rng = SplitMix::new(seed);
    let mut cols: Vec<Vec<u64>> = (0..4)
        .map(|_| (0..rows).map(|_| rng.next_below(DOMAIN)).collect())
        .collect();
    cols.push((0..rows).map(|_| rng.next_below(1_000_000)).collect());
    Dataset::from_columns(cols).unwrap()
}

/// First-predicate ranges for the selectivity sweep: 0% lies outside the
/// domain, 100% covers it entirely.
fn selectivity_ranges() -> [(u64, u64); 5] {
    [
        (DOMAIN + 1, DOMAIN + 2),   // 0%
        (0, DOMAIN / 100 - 1),      // ~1%
        (0, DOMAIN / 2 - 1),        // ~50%
        (0, DOMAIN / 100 * 99 - 1), // ~99%
        (0, DOMAIN),                // 100%
    ]
}

/// Plans hitting block boundaries in awkward ways: gaps right at, just
/// before, and just after multiples of `BLOCK_ROWS`, plus tiny fragments.
fn boundary_plans(rows: usize) -> Vec<ScanPlan> {
    let b = BLOCK_ROWS;
    vec![
        ScanPlan::full(rows),
        ScanPlan::from_ranges([
            (0..b - 1, false),
            (b..2 * b + 1, false),
            (2 * b + 3..rows, false),
        ]),
        ScanPlan::from_ranges([
            (1..17, false),
            (b - 1..b, false),
            (b + 1..3 * b - 5, false),
            (3 * b..rows.min(3 * b + 9), false),
        ]),
    ]
}

#[test]
fn tier_sweep_selectivity_predicates_and_block_offsets() {
    let rows = 3 * BLOCK_ROWS + 517;
    let data = sweep_dataset(rows, 0xeca1);
    for (lo, hi) in selectivity_ranges() {
        for npreds in 1..=4usize {
            let mut preds = vec![Predicate::range(0, lo, hi).unwrap()];
            for dim in 1..npreds {
                // Wide but not full, so every predicate is genuinely checked.
                preds.push(Predicate::range(dim, 1, DOMAIN).unwrap());
            }
            for plan in boundary_plans(rows) {
                for agg in ALL_AGGREGATIONS {
                    let q = Query::new(preds.clone(), agg).unwrap();
                    // Independent oracle over exactly the planned rows.
                    let planned: Vec<usize> =
                        plan.ranges().iter().flat_map(|r| r.range.clone()).collect();
                    let expected = q.execute_full_scan(&data.select_rows(&planned));
                    let (scalar, scalar_counters) =
                        run_plan(&data, &q, &plan, KernelTier::Scalar, 1);
                    assert_eq!(scalar, expected, "scalar vs oracle ({lo}..={hi}, {agg:?})");
                    for tier in KernelTier::ALL {
                        let (res, counters) = run_plan(&data, &q, &plan, tier, 1);
                        assert_eq!(res, scalar, "{tier:?} result ({lo}..={hi}, {npreds} preds)");
                        assert_eq!(
                            counters, scalar_counters,
                            "{tier:?} counters ({lo}..={hi}, {npreds} preds)"
                        );
                        let (par, par_counters) = run_plan(&data, &q, &plan, tier, 3);
                        assert_eq!(par, scalar, "{tier:?} parallel result");
                        assert_eq!(par_counters, scalar_counters, "{tier:?} parallel counters");
                    }
                }
            }
        }
    }
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
fn all_seven_indexes_are_bit_identical_across_tiers_serial_and_parallel() {
    let mut rng = SplitMix::new(0x7157);
    let data = sweep_dataset(2_400, 0x7158);
    let workload = Workload::new(
        (0..8)
            .map(|i| {
                let dim = (i % 4) as usize;
                let lo = rng.next_below(DOMAIN - 200);
                let width = 1 + rng.next_below(DOMAIN / 2);
                Query::count(vec![Predicate::range(dim, lo, lo + width).unwrap()]).unwrap()
            })
            .collect(),
    );
    let indexes = build_all(&data, &workload);
    for q in workload.queries() {
        for agg in ALL_AGGREGATIONS {
            let q = Query::new(q.predicates().to_vec(), agg).unwrap();
            let expected = q.execute_full_scan(&data);
            for idx in &indexes {
                let (scalar, scalar_stats) = run_index(idx.as_ref(), &q, KernelTier::Scalar, 1);
                assert_eq!(
                    scalar,
                    expected,
                    "{} scalar vs oracle ({agg:?})",
                    idx.name()
                );
                for tier in KernelTier::ALL {
                    let (res, stats) = run_index(idx.as_ref(), &q, tier, 1);
                    assert_eq!(res, scalar, "{} {tier:?} ({agg:?})", idx.name());
                    assert_eq!(
                        stats,
                        scalar_stats,
                        "{} {tier:?} stats ({agg:?})",
                        idx.name()
                    );
                    let (par, par_stats) = run_index(idx.as_ref(), &q, tier, 4);
                    assert_eq!(par, scalar, "{} {tier:?} parallel ({agg:?})", idx.name());
                    assert_eq!(
                        par_stats,
                        scalar_stats,
                        "{} {tier:?} parallel stats ({agg:?})",
                        idx.name()
                    );
                }
            }
        }
    }
}

/// Base offset of the FOR-compressible dimension: deltas fit 12 bits, so
/// the default policy frame-of-reference packs it, but absolute values need
/// 21 bits — a scan that forgot the reference would be loudly wrong.
const FOR_BASE: u64 = 1 << 20;
/// Spread of the dictionary dimension: 6 distinct values `k * DICT_STEP`
/// span ~53 bits (FOR-ineligible) but dictionary-code down to 3-bit fields.
const DICT_STEP: u64 = 1 << 50;

/// Four-dim dataset engineered so the default policy picks every block
/// format at once: dim0 FOR, dim1 Dict, dim2 stays Plain (full-width
/// high-cardinality values), dim3 is the aggregation input.
fn encoding_dataset(rows: usize, seed: u64) -> Dataset {
    let mut rng = SplitMix::new(seed);
    let d0: Vec<u64> = (0..rows).map(|_| FOR_BASE + rng.next_below(4096)).collect();
    let d1: Vec<u64> = (0..rows).map(|_| rng.next_below(6) * DICT_STEP).collect();
    let d2: Vec<u64> = (0..rows).map(|_| rng.next_below(u64::MAX)).collect();
    let d3: Vec<u64> = (0..rows).map(|_| rng.next_below(1_000_000)).collect();
    Dataset::from_columns(vec![d0, d1, d2, d3]).unwrap()
}

/// Queries spanning the interesting encoded-scan shapes: packed-only
/// predicates at 0% / ~50% / 100% selectivity (the 100% case drives the
/// exact-range dense paths over packed data), dictionary and plain-block
/// predicates, and multi-dim combinations that force mask intersection
/// across differently-encoded columns.
fn encoding_queries() -> Vec<Vec<Predicate>> {
    vec![
        vec![Predicate::range(0, FOR_BASE, FOR_BASE + 2047).unwrap()],
        vec![Predicate::range(0, 0, 10).unwrap()],
        vec![Predicate::range(0, 0, FOR_BASE + 4096).unwrap()],
        vec![Predicate::range(1, 0, 2 * DICT_STEP).unwrap()],
        vec![
            Predicate::range(0, FOR_BASE, FOR_BASE + 2047).unwrap(),
            Predicate::range(1, 0, 4 * DICT_STEP).unwrap(),
        ],
        vec![
            Predicate::range(0, FOR_BASE + 100, FOR_BASE + 3000).unwrap(),
            Predicate::range(1, DICT_STEP, 4 * DICT_STEP).unwrap(),
            Predicate::range(2, 0, u64::MAX / 2).unwrap(),
        ],
    ]
}

/// Runs every query × aggregation × plan × tier, serial and parallel, on
/// `store`, asserting each run bit-identical (result *and* counters) to the
/// store's own scalar run, and the scalar run equal to an independent
/// full-scan oracle over the planned live rows.
fn assert_store_matches_oracle(store: &ColumnStore, label: &str) {
    let physical = store.slice_dataset(0..store.len());
    let plans = [
        ScanPlan::full(store.len()),
        ScanPlan::from_ranges([
            (1..BLOCK_ROWS - 1, false),
            (BLOCK_ROWS..2 * BLOCK_ROWS + 3, false),
            (2 * BLOCK_ROWS + 5..store.len(), false),
        ]),
    ];
    let aggs = [
        Aggregation::Count,
        Aggregation::Sum(3),
        Aggregation::Min(3),
        Aggregation::Max(3),
        Aggregation::Avg(3),
    ];
    for preds in encoding_queries() {
        for agg in aggs {
            let q = Query::new(preds.clone(), agg).unwrap();
            for plan in &plans {
                let planned: Vec<usize> = plan
                    .ranges()
                    .iter()
                    .flat_map(|r| r.range.clone())
                    .filter(|&row| !store.tombstones().is_deleted(row))
                    .collect();
                let expected = q.execute_full_scan(&physical.select_rows(&planned));
                let (scalar, scalar_counters) = run_plan(store, &q, plan, KernelTier::Scalar, 1);
                assert_eq!(scalar, expected, "{label} scalar vs oracle ({q:?})");
                for tier in KernelTier::ALL {
                    let (res, counters) = run_plan(store, &q, plan, tier, 1);
                    assert_eq!(res, scalar, "{label} {tier:?} result ({q:?})");
                    assert_eq!(
                        counters, scalar_counters,
                        "{label} {tier:?} counters ({q:?})"
                    );
                    let (par, par_counters) = run_plan(store, &q, plan, tier, 3);
                    assert_eq!(par, scalar, "{label} {tier:?} parallel result ({q:?})");
                    assert_eq!(
                        par_counters, scalar_counters,
                        "{label} {tier:?} parallel counters ({q:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn encoded_plain_and_mixed_stores_stay_bit_identical_under_deletes_and_compaction() {
    let rows = 3 * BLOCK_ROWS + 517;
    let data = encoding_dataset(rows, 0xb10c);
    let tail = encoding_dataset(700, 0xb10d);

    let mut plain = ColumnStore::from_dataset(&data);
    plain.encode_blocks_with(&EncodePolicy::disabled());
    let mut encoded = ColumnStore::from_dataset(&data);
    encoded.encode_blocks_with(&EncodePolicy::default());
    // Mixed: packed full blocks behind a freshly-appended (plain) tail.
    let mut mixed = ColumnStore::from_dataset(&data);
    mixed.encode_blocks_with(&EncodePolicy::default());
    mixed.append_dataset(&tail);

    // The dataset must actually exercise every format at once.
    let (nfor, ndict, nplain, _) = plain.encoding_stats();
    assert_eq!((nfor, ndict, nplain), (0, 0, 0), "disabled policy encoded");
    let (nfor, ndict, nplain, tail_rows) = encoded.encoding_stats();
    assert!(nfor > 0, "no FOR blocks chosen");
    assert!(ndict > 0, "no Dict blocks chosen");
    assert!(nplain > 0, "no Plain blocks chosen");
    assert!(
        tail_rows > 0,
        "partial trailing block should stay unencoded"
    );
    let (_, _, _, mixed_tail) = mixed.encoding_stats();
    assert!(
        mixed_tail >= 4 * tail.len(),
        "appended tail must stay plain"
    );

    let mut stores = [
        ("plain", plain, EncodePolicy::disabled()),
        ("encoded", encoded, EncodePolicy::default()),
        ("mixed", mixed, EncodePolicy::default()),
    ];

    for (label, store, _) in &stores {
        assert_store_matches_oracle(store, label);
    }

    // Tombstone a band of the FOR dimension — the same logical rows in every
    // store — and re-run the whole sweep on the live remainder.
    let del = Query::count(vec![
        Predicate::range(0, FOR_BASE + 1000, FOR_BASE + 2400).unwrap()
    ])
    .unwrap();
    let deleted = stores[0].1.delete_where(&del);
    assert!(deleted > 0, "delete band matched nothing");
    for (label, store, _) in &mut stores[1..] {
        let d = store.delete_where(&del);
        assert!(d >= deleted, "{label} deleted fewer rows than plain");
    }
    for (label, store, _) in &stores {
        assert_store_matches_oracle(store, &format!("{label}+tombstones"));
    }

    // Physically compact and re-encode the survivors: rows shift across
    // block boundaries, so every block is rebuilt from scratch.
    for (label, store, policy) in &mut stores {
        let n = store.len();
        let removed = store.drop_deleted_in(0..n);
        assert!(removed > 0, "{label} compaction removed nothing");
        assert_eq!(store.tombstones().deleted(), 0);
        store.encode_blocks_with(policy);
        assert_store_matches_oracle(store, &format!("{label}+compacted"));
    }
}

#[test]
fn residual_elimination_keeps_every_planner_consistent_with_the_oracle() {
    // Queries whose predicates span whole dimension domains are exactly the
    // ones residual elimination fires on (every visited partition / page
    // bbox is fully contained): the plans must still answer identically to
    // the oracle, and whole-domain predicates must actually be dropped from
    // the residual where the planner supports elimination.
    let data = sweep_dataset(3_000, 0x9e51);
    let workload = Workload::new(vec![Query::count(vec![
        Predicate::range(0, 0, DOMAIN / 4).unwrap()
    ])
    .unwrap()]);
    let indexes = build_all(&data, &workload);
    let cases = vec![
        // Whole-domain predicate on dim1 + selective filter on dim0.
        Query::count(vec![
            Predicate::range(0, 100, 400).unwrap(),
            Predicate::range(1, 0, DOMAIN).unwrap(),
        ])
        .unwrap(),
        // Everything whole-domain: plans may drop every residual check.
        Query::count(vec![
            Predicate::range(0, 0, DOMAIN).unwrap(),
            Predicate::range(2, 0, DOMAIN).unwrap(),
        ])
        .unwrap(),
        // Mixed: one selective, one wide, one whole-domain.
        Query::count(vec![
            Predicate::range(0, 50, 150).unwrap(),
            Predicate::range(1, 10, DOMAIN - 10).unwrap(),
            Predicate::range(3, 0, DOMAIN).unwrap(),
        ])
        .unwrap(),
    ];
    for q in &cases {
        let expected = q.execute_full_scan(&data);
        for idx in &indexes {
            assert_eq!(idx.execute(q).0, expected, "{} on {q:?}", idx.name());
            let plan = idx.plan(q);
            let residual = plan.residual(q);
            assert!(
                residual.len() <= q.predicates().len(),
                "{} residual grew",
                idx.name()
            );
            // Whole-domain predicates never survive into the residual of the
            // planners that perform elimination (everything except the plain
            // full scan, which guarantees nothing by construction).
            if idx.name() != "FullScan" {
                for p in residual {
                    assert!(
                        !(p.lo == 0 && p.hi >= DOMAIN),
                        "{} kept a whole-domain predicate in its residual: {p:?}",
                        idx.name()
                    );
                }
            }
        }
    }
}
