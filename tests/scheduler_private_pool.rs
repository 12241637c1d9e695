//! A scheduler on a private pool must fan its intra-query morsels out on
//! that pool, never on the process-wide one. The test parks every worker of
//! the process-wide pool, then requires a fanned-out query on a private-pool
//! scheduler to finish anyway.
//!
//! This is a binary of its own: when the fan-out does land on the parked
//! process-wide pool, the query stalls until the pool is released, and that
//! stall must not reach any other test.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tsunami_core::exec::{pool, WorkStealingPool, BLOCK_ROWS};
use tsunami_core::{Dataset, Workload};
use tsunami_suite::{Database, IndexSpec, SchedulerConfig};

/// Holds every worker of the process-wide pool inside a blocking task until
/// dropped — also when an assertion fails, so the binary can still exit.
struct ParkedGlobalPool {
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl ParkedGlobalPool {
    fn park() -> Self {
        let global = pool::global();
        let workers = global.worker_count();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new((Mutex::new(0usize), Condvar::new()));
        for _ in 0..workers {
            let gate = Arc::clone(&gate);
            let entered = Arc::clone(&entered);
            global.spawn(move || {
                {
                    let (count, cv) = &*entered;
                    *count.lock().unwrap() += 1;
                    cv.notify_all();
                }
                let (open, cv) = &*gate;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            });
        }
        // Each worker runs one blocking task at a time, so once every task
        // has started, every worker is parked.
        let (count, cv) = &*entered;
        let mut count = count.lock().unwrap();
        while *count < workers {
            count = cv.wait(count).unwrap();
        }
        Self { gate }
    }
}

impl Drop for ParkedGlobalPool {
    fn drop(&mut self) {
        let (open, cv) = &*self.gate;
        *open.lock().unwrap() = true;
        cv.notify_all();
    }
}

#[test]
fn intra_query_fan_out_stays_on_the_schedulers_pool() {
    // Sixteen blocks: large enough that two threads split the plan.
    let rows = 16 * BLOCK_ROWS as u64;
    let data = Dataset::from_columns(vec![
        (0..rows).collect(),
        (0..rows).map(|v| v % 97).collect(),
    ])
    .unwrap();
    let private = Arc::new(WorkStealingPool::new(2));
    let mut db = Database::new();
    db.set_pool(Arc::clone(&private));
    let table = db
        .create_table(
            "t",
            &["a", "b"],
            data,
            &Workload::default(),
            &IndexSpec::FullScan,
        )
        .unwrap();
    let query = table.query().sum("b").unwrap().prepare().unwrap();
    let expected = query.execute_oracle();
    let scheduler = db.scheduler_with(SchedulerConfig {
        workers: 1,
        intra_query_threads: 2,
        ..SchedulerConfig::default()
    });
    assert!(Arc::ptr_eq(scheduler.pool(), &private));

    let parked = ParkedGlobalPool::park();
    let handle = scheduler.submit(query).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !handle.is_done() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let finished = handle.is_done();
    // Release the process-wide pool before asserting, so a stalled query
    // completes and the scheduler can shut down either way.
    drop(parked);
    assert!(
        finished,
        "a private-pool query stalled while the process-wide pool was busy"
    );
    assert_eq!(handle.wait().unwrap(), expected);
}
