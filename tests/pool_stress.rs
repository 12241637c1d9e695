//! Work-stealing pool stress suite: the morsel-driven pooled executor must
//! be bit-identical to serial execution across every index family, every
//! worker count, and morsel sizes that straddle block boundaries — and the
//! pool itself must shut down cleanly (no leaked threads, idempotent
//! shutdown) under concurrent inter-query load.
//!
//! Every test here creates or drops pool threads, and one of them counts the
//! process's threads, so they all run under one lock ([`serial`]): a
//! sibling test starting or stopping a pool mid-count would skew it.

use std::sync::{Arc, Mutex, MutexGuard};

use tsunami_core::exec::{self, KernelTier, WorkStealingPool, BLOCK_ROWS};
use tsunami_core::sample::SplitMix;
use tsunami_core::{Aggregation, Dataset, Predicate, Query, Workload};
use tsunami_suite::{Database, IndexSpec, Scheduler, SchedulerConfig};

fn dataset(rows: usize, seed: u64) -> Dataset {
    let mut rng = SplitMix::new(seed);
    Dataset::from_columns(vec![
        (0..rows).map(|_| rng.next_below(50_000)).collect(),
        (0..rows).map(|_| rng.next_below(5_000)).collect(),
        (0..rows).map(|_| rng.next_below(500)).collect(),
    ])
    .unwrap()
}

/// Mixed-aggregation workload over random ranges, including empty matches.
fn mixed_workload(n: usize, dims: usize, seed: u64) -> Workload {
    let mut rng = SplitMix::new(seed);
    Workload::new(
        (0..n)
            .map(|i| {
                let d = rng.next_below(dims as u64) as usize;
                let lo = rng.next_below(60_000);
                let hi = lo + rng.next_below(20_000);
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

/// Serializes this binary's tests (see the module docs). A test that failed
/// while holding the lock must not fail every later test too, so poisoning
/// is ignored.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Current thread count of this process, from `/proc/self/status`. Returns
/// `None` off Linux so the leak check degrades to a no-op there.
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// [`process_threads`] once the count has stopped moving: a thread that
/// just finished (the previous test's, or a pool worker that was joined)
/// can stay visible for a moment after it is done.
fn settled_threads() -> Option<usize> {
    let mut last = process_threads()?;
    let mut stable = 0;
    for _ in 0..500 {
        std::thread::sleep(std::time::Duration::from_millis(2));
        let now = process_threads()?;
        stable = if now == last { stable + 1 } else { 0 };
        last = now;
        if stable == 3 {
            break;
        }
    }
    Some(last)
}

/// Bit-identity vs serial across all seven index families at 1, 2, and 8
/// workers, each worker count on its own private pool. The dataset is large
/// enough (> 4 blocks) that the pooled path does not fall back to serial.
#[test]
fn pooled_executor_bit_identical_to_serial_across_all_families() {
    let _serial = serial();
    let data = dataset(10 * BLOCK_ROWS, 0xbeef);
    let workload = mixed_workload(24, data.num_dims(), 17);
    let mut db = Database::new();
    for spec in IndexSpec::all_fast() {
        db.create_table_unnamed(spec.label(), data.clone(), &workload, &spec)
            .expect("table builds");
    }
    assert_eq!(db.num_tables(), 7);

    for workers in [1usize, 2, 8] {
        let pool = WorkStealingPool::new(workers);
        for table in db.tables() {
            let index = table.index();
            for q in workload.queries() {
                let plan = index.plan(q);
                let (serial, serial_counters) = exec::execute_plan(index.source(), q, &plan);
                let (pooled, pooled_counters) = exec::fold_plan(
                    index.source(),
                    q,
                    &plan,
                    KernelTier::default(),
                    &pool,
                    workers,
                    exec::DEFAULT_MORSEL_ROWS,
                );
                assert_eq!(
                    pooled.finish(),
                    serial,
                    "workers={workers} {}: pooled result != serial on {q:?}",
                    table.name()
                );
                assert_eq!(
                    pooled_counters,
                    serial_counters,
                    "workers={workers} {}: pooled counters != serial on {q:?}",
                    table.name()
                );
            }
        }
    }
}

/// Morsel sizes straddling block boundaries (sub-block, exactly one block,
/// one row past a block, a ragged multiple) must not change results or
/// counters, at any worker count.
#[test]
fn morsel_sizes_straddling_block_boundaries_stay_bit_identical() {
    let _serial = serial();
    let data = dataset(9 * BLOCK_ROWS + 137, 0x5eed);
    let workload = mixed_workload(16, data.num_dims(), 23);
    let mut db = Database::new();
    let table = db
        .create_table_unnamed("t", data, &workload, &IndexSpec::tsunami())
        .unwrap();
    let index = table.index();
    let pool = WorkStealingPool::new(3);

    for q in workload.queries() {
        let plan = index.plan(q);
        let (serial, serial_counters) = exec::execute_plan(index.source(), q, &plan);
        for morsel_rows in [
            BLOCK_ROWS / 2, // clamped up to one block inside the executor
            BLOCK_ROWS,
            BLOCK_ROWS + 1,
            3 * BLOCK_ROWS + 17,
        ] {
            for threads in [2usize, 5] {
                let (pooled, pooled_counters) = exec::fold_plan(
                    index.source(),
                    q,
                    &plan,
                    KernelTier::default(),
                    &pool,
                    threads,
                    morsel_rows,
                );
                assert_eq!(
                    (pooled.finish(), pooled_counters),
                    (serial, serial_counters),
                    "morsel={morsel_rows} threads={threads} diverged on {q:?}"
                );
            }
        }
    }
}

/// Seeded mixed submit/poll stress through a `Scheduler` running on a
/// private pool, with intra-query parallelism on the same pool — every
/// handle must come back with its own query's serial result.
#[test]
fn mixed_submit_poll_on_private_pool_preserves_results() {
    let _serial = serial();
    let data = dataset(6 * BLOCK_ROWS, 0xab);
    let workload = mixed_workload(20, data.num_dims(), 31);
    let mut db = Database::new();
    let pool = Arc::new(WorkStealingPool::new(2));
    db.set_pool(Arc::clone(&pool));
    let table = db
        .create_table_unnamed("t", data, &workload, &IndexSpec::tsunami())
        .unwrap();
    let prepared = table.prepare_workload(&workload).unwrap();
    let expected: Vec<_> = prepared.iter().map(|q| q.execute().0).collect();

    for seed in 0..4u64 {
        let mut rng = SplitMix::new(seed * 7_919 + 3);
        let scheduler = Scheduler::on_pool(
            Arc::clone(&pool),
            SchedulerConfig {
                workers: 1 + seed as usize % 3,
                queue_capacity: 6,
                intra_query_threads: 1 + seed as usize % 2,
            },
        );
        let mut pending: Vec<(usize, tsunami_suite::QueryHandle)> = Vec::new();
        let mut submitted = 0usize;
        let total = 80usize;
        while submitted < total || !pending.is_empty() {
            for _ in 0..=rng.next_below(5) {
                if submitted >= total {
                    break;
                }
                let qi = rng.next_below(prepared.len() as u64) as usize;
                pending.push((qi, scheduler.submit(prepared[qi].clone()).unwrap()));
                submitted += 1;
            }
            if !pending.is_empty() {
                let pi = rng.next_below(pending.len() as u64) as usize;
                if let Some(result) = pending[pi].1.poll() {
                    let qi = pending[pi].0;
                    assert_eq!(result.unwrap(), expected[qi], "seed {seed}: poll mismatch");
                    pending.swap_remove(pi);
                }
            }
            if pending.len() > 12 || (submitted >= total && !pending.is_empty()) {
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

/// Pool shutdown must join every worker (no leaked threads), survive being
/// called twice, and run any still-queued tasks rather than dropping them.
#[test]
fn shutdown_joins_workers_and_is_idempotent() {
    let _serial = serial();
    let before = settled_threads();
    {
        let mut pool = WorkStealingPool::new(4);
        if let (Some(b), Some(now)) = (before, process_threads()) {
            assert!(now >= b + 4, "expected 4 pool threads: {b} -> {now}");
        }
        let ran = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        for _ in 0..64 {
            let ran = Arc::clone(&ran);
            pool.spawn(move || {
                ran.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(ran.load(std::sync::atomic::Ordering::SeqCst), 64);
        // Second shutdown and the implicit drop-shutdown are both no-ops.
        pool.shutdown();
    }
    if let (Some(b), Some(after)) = (before, settled_threads()) {
        assert_eq!(after, b, "pool leaked threads: {b} -> {after}");
    }
}

/// Shutting a scheduler down with results still unpolled must complete its
/// queue without touching the shared pool's workers, so a second scheduler
/// on the same pool keeps working. `drain` is the completing shutdown;
/// plain `Drop` cancels queued queries instead (see the scheduler docs), so
/// every handle is `Ok` here only because the test drains.
#[test]
fn scheduler_drop_leaves_the_shared_pool_usable() {
    let _serial = serial();
    let data = dataset(4 * BLOCK_ROWS, 0xdd);
    let workload = mixed_workload(10, data.num_dims(), 41);
    let mut db = Database::new();
    let pool = Arc::new(WorkStealingPool::new(2));
    db.set_pool(Arc::clone(&pool));
    let table = db
        .create_table_unnamed("t", data, &workload, &IndexSpec::tsunami())
        .unwrap();
    let prepared = table.prepare_workload(&workload).unwrap();

    let mut handles = Vec::new();
    {
        let scheduler = db.scheduler(2);
        for q in &prepared {
            handles.push(scheduler.submit(q.clone()).unwrap());
        }
        // Shut down with handles unpolled: drain runs what is still queued
        // and waits for in-flight jobs.
        scheduler.drain();
    }
    for (handle, q) in handles.iter().zip(&prepared) {
        assert_eq!(handle.wait().unwrap(), q.execute().0);
    }

    // The pool is still fully functional for a fresh scheduler.
    let scheduler = db.scheduler(2);
    let results = scheduler.execute_batch(&prepared).unwrap();
    for (r, q) in results.iter().zip(&prepared) {
        assert_eq!(*r, q.execute().0);
    }
}
