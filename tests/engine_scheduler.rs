//! Scheduler correctness: concurrent execution through the engine's worker
//! pool must be indistinguishable from serial execution — across every index
//! family, every aggregation kind, and arbitrary submit/poll interleavings.

use tsunami_core::sample::SplitMix;
use tsunami_core::{Aggregation, Dataset, Predicate, Query, Workload};
use tsunami_index::TsunamiConfig;
use tsunami_suite::{Database, IndexSpec, Scheduler};

fn dataset(rows: usize, seed: u64) -> Dataset {
    let mut rng = SplitMix::new(seed);
    Dataset::from_columns(vec![
        (0..rows).map(|_| rng.next_below(10_000)).collect(),
        (0..rows).map(|_| rng.next_below(1_000)).collect(),
        (0..rows).map(|_| rng.next_below(100_000)).collect(),
    ])
    .unwrap()
}

/// A mixed-aggregation workload: COUNT, SUM, MIN, MAX, AVG over random
/// ranges, including some empty-match ranges.
fn mixed_workload(n: usize, dims: usize, seed: u64) -> Workload {
    let mut rng = SplitMix::new(seed);
    Workload::new(
        (0..n)
            .map(|i| {
                let d = rng.next_below(dims as u64) as usize;
                let lo = rng.next_below(12_000);
                let hi = lo + rng.next_below(4_000);
                let agg_dim = rng.next_below(dims as u64) as usize;
                let agg = match i % 5 {
                    0 => Aggregation::Count,
                    1 => Aggregation::Sum(agg_dim),
                    2 => Aggregation::Min(agg_dim),
                    3 => Aggregation::Max(agg_dim),
                    _ => Aggregation::Avg(agg_dim),
                };
                Query::new(vec![Predicate::range(d, lo, hi).unwrap()], agg).unwrap()
            })
            .collect(),
    )
}

#[test]
fn concurrent_batches_match_serial_execution_across_all_indexes() {
    let data = dataset(3_000, 42);
    let workload = mixed_workload(40, data.num_dims(), 7);
    let mut db = Database::new();
    for spec in IndexSpec::all_fast() {
        db.create_table_unnamed(spec.label(), data.clone(), &workload, &spec)
            .expect("table builds");
    }
    assert_eq!(db.num_tables(), 7);

    // One shared batch interleaving queries from all 7 tables.
    let mut batch = Vec::new();
    for table in db.tables() {
        batch.extend(table.prepare_workload(&workload).unwrap());
    }

    for workers in [1usize, 2, 4, 8] {
        let scheduler = Scheduler::new(workers);
        let concurrent = scheduler.execute_batch(&batch).unwrap();
        assert_eq!(scheduler.completed() as usize, batch.len());
        for (i, (got, q)) in concurrent.iter().zip(&batch).enumerate() {
            let serial = q.execute().0;
            let oracle = q.execute_oracle();
            assert_eq!(
                *got,
                serial,
                "workers={workers} query {i} on {}: scheduler != serial",
                q.table().name()
            );
            assert_eq!(
                *got,
                oracle,
                "workers={workers} query {i} on {}: scheduler != oracle",
                q.table().name()
            );
        }
    }
}

#[test]
fn seeded_submit_poll_stress_preserves_per_handle_results() {
    let data = dataset(2_000, 99);
    let workload = mixed_workload(30, data.num_dims(), 13);
    let mut db = Database::new();
    let table = db
        .create_table_unnamed(
            "t",
            data,
            &workload,
            &IndexSpec::Tsunami(TsunamiConfig::fast()),
        )
        .unwrap();
    let prepared = table.prepare_workload(&workload).unwrap();
    let expected: Vec<_> = prepared.iter().map(|q| q.execute().0).collect();

    // Seeded stress: random bursts of submissions interleaved with random
    // polls and waits; every handle must come back with its own query's
    // result no matter the interleaving or queue pressure.
    for seed in 0..6u64 {
        let mut rng = SplitMix::new(seed * 1_117 + 5);
        let workers = 1 + (seed as usize % 4);
        let scheduler = Scheduler::with_queue_capacity(workers, 8);
        let mut pending: Vec<(usize, tsunami_suite::QueryHandle)> = Vec::new();
        let mut submitted = 0usize;
        let total = 120usize;
        while submitted < total || !pending.is_empty() {
            let burst = 1 + rng.next_below(7) as usize;
            for _ in 0..burst {
                if submitted >= total {
                    break;
                }
                let qi = rng.next_below(prepared.len() as u64) as usize;
                // Blocking submit exercises backpressure on the tiny queue.
                let handle = scheduler.submit(prepared[qi].clone()).unwrap();
                pending.push((qi, handle));
                submitted += 1;
            }
            // Poll a random pending handle; wait on another.
            if !pending.is_empty() {
                let pi = rng.next_below(pending.len() as u64) as usize;
                let (qi, handle) = &pending[pi];
                if let Some(result) = handle.poll() {
                    assert_eq!(result.unwrap(), expected[*qi], "seed {seed}: poll mismatch");
                    assert!(handle.is_done());
                    pending.swap_remove(pi);
                }
            }
            if pending.len() > 16 || (submitted >= total && !pending.is_empty()) {
                let (qi, handle) =
                    pending.swap_remove(rng.next_below(pending.len() as u64) as usize);
                assert_eq!(
                    handle.wait().unwrap(),
                    expected[qi],
                    "seed {seed}: wait mismatch"
                );
            }
        }
        assert_eq!(scheduler.completed() as usize, total, "seed {seed}");
    }
}

#[test]
fn batch_results_preserve_submission_order() {
    let data = dataset(2_000, 3);
    let mut db = Database::new();
    let table = db
        .create_table_unnamed("t", data, &Workload::default(), &IndexSpec::FullScan)
        .unwrap();
    // Queries with pairwise-distinct COUNT results so order mix-ups surface.
    let batch: Vec<_> = (0..50u64)
        .map(|i| {
            table
                .query()
                .range(0usize, 0, 100 + i * 37)
                .unwrap()
                .prepare()
                .unwrap()
        })
        .collect();
    let scheduler = Scheduler::new(4);
    let results = scheduler.execute_batch(&batch).unwrap();
    for (r, q) in results.iter().zip(&batch) {
        assert_eq!(*r, q.execute().0);
    }
}
