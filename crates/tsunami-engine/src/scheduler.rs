//! The concurrent query scheduler: inter-query parallelism on the shared
//! work-stealing pool.
//!
//! This complements the intra-query parallel executor
//! ([`exec::fold_plan`] with more than one thread, which splits *one*
//! query's scan plan into morsels across pool workers) with *inter-query*
//! parallelism: many small queries in flight at once, which is how
//! serving-scale traffic actually arrives. Queries carry their table handle
//! ([`PreparedQuery`]), so one scheduler serves every table in a database.
//!
//! The scheduler owns **no threads**. It submits drainer tasks into a
//! [`WorkStealingPool`] — by default the process-wide
//! [`pool::global`] pool, the same one the
//! intra-query executor uses — so one saturated box can run one huge
//! morsel-split scan, or many small queries, or any mix, without idle
//! workers or spawn overhead. Each drainer pops queued queries until the
//! queue is empty, then retires; at most
//! [`SchedulerConfig::workers`] drainers run at once, bounding how many
//! queries execute concurrently. With
//! [`SchedulerConfig::intra_query_threads`] > 1, each drained query
//! additionally fans out into morsels on the scheduler's own pool — inter-
//! and intra-query parallelism composing on one substrate.
//!
//! Each query is folded with [`exec::fold_plan`] into an unfinished
//! [`AggAccumulator`], and that partial state is what the completion slot
//! holds: [`QueryHandle::wait`] finishes it into an [`AggResult`], and the
//! sharded gather merges the partials of one query's per-shard executions
//! before finishing once.
//!
//! Two submission APIs:
//!
//! * [`Scheduler::execute_batch`] — run a batch, results in input order.
//! * [`Scheduler::submit`] / [`Scheduler::try_submit`] — enqueue one query
//!   and get a [`QueryHandle`] to `poll`/`wait` on. The queue is bounded:
//!   `submit` blocks when full (backpressure), `try_submit` returns
//!   [`TsunamiError::SchedulerQueueFull`] instead.
//!
//! # Shutdown: drop cancels, `drain` completes
//!
//! Dropping a scheduler **cancels** queued-but-unstarted queries: their
//! handles resolve with [`TsunamiError::SchedulerShutdown`], and the drop
//! waits only for queries already executing. This is what a server needs at
//! shutdown — waiters blocked on a handle unblock at once instead of waiting
//! behind the whole queue. [`Scheduler::drain`] is the completing
//! alternative: it runs every still-queued query on the calling thread, so
//! every handle resolves with its query's real result.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use tsunami_core::exec::pool::{self, WorkStealingPool};
use tsunami_core::exec::{self, KernelTier};
use tsunami_core::{AggAccumulator, AggResult, Result, ScanCounters, TsunamiError};

use crate::prepared::PreparedQuery;

/// What gets written into a completion slot: the unfinished partial state
/// and counters, or the error the query resolved with —
/// [`TsunamiError::QueryPanicked`] when it blew up mid-execution,
/// [`TsunamiError::SchedulerShutdown`] when the scheduler was dropped before
/// a drainer picked it up.
type Outcome = std::result::Result<(AggAccumulator, ScanCounters), TsunamiError>;

/// Completion slot shared between a drainer and the submitter's handle.
struct Slot {
    result: Mutex<Option<Outcome>>,
    done: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            result: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    fn fill(&self, value: Outcome) {
        *self.result.lock().unwrap() = Some(value);
        self.done.notify_all();
    }
}

/// A handle to one submitted query. Obtained from [`Scheduler::submit`];
/// poll for completion or block until the result is ready. A query that
/// panicked on its worker resolves to [`TsunamiError::QueryPanicked`], and
/// one still queued when the scheduler dropped resolves to
/// [`TsunamiError::SchedulerShutdown`] — a handle never hangs its waiter.
pub struct QueryHandle {
    slot: Arc<Slot>,
}

impl QueryHandle {
    /// Non-blocking: the query's outcome if it has finished, `None` if it is
    /// still queued or running.
    pub fn poll(&self) -> Option<Result<AggResult>> {
        self.outcome().map(to_result)
    }

    /// Whether the query has finished.
    pub fn is_done(&self) -> bool {
        self.outcome().is_some()
    }

    /// Blocks until the query finishes and returns its result.
    pub fn wait(&self) -> Result<AggResult> {
        self.wait_partial().map(|(acc, _)| acc.finish())
    }

    /// Blocks until the query finishes; returns its unfinished partial state
    /// plus scan counters (the sharded gather merges these across shards).
    pub(crate) fn wait_partial(&self) -> Result<(AggAccumulator, ScanCounters)> {
        let mut guard = self.slot.result.lock().unwrap();
        loop {
            if let Some(outcome) = guard.clone() {
                return outcome;
            }
            guard = self.slot.done.wait(guard).unwrap();
        }
    }

    fn outcome(&self) -> Option<Outcome> {
        self.slot.result.lock().unwrap().clone()
    }
}

fn to_result(outcome: Outcome) -> Result<AggResult> {
    outcome.map(|(acc, _)| acc.finish())
}

/// Scheduler tuning knobs. `Default` derives everything from the shared
/// pool: as many concurrent queries as the pool has workers, the default
/// queue depth, serial per-query execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Maximum queries executing concurrently (drainer tasks in flight).
    /// `0` means "as many as the pool has workers".
    pub workers: usize,
    /// Queue capacity (queries awaiting a drainer). `0` means
    /// `workers * DEFAULT_QUEUE_PER_WORKER`.
    pub queue_capacity: usize,
    /// Intra-query parallelism: each drained query executes across this many
    /// pool workers via the morsel executor. `1` (the default) runs each
    /// query serially — the right choice when queries are small and
    /// plentiful; raise it when queries are few and large.
    pub intra_query_threads: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 0,
            intra_query_threads: 1,
        }
    }
}

struct QueueState {
    jobs: VecDeque<(PreparedQuery, Arc<Slot>)>,
    /// Drainer tasks currently submitted and not yet retired.
    active: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signals blocked submitters that queue space freed up.
    space_ready: Condvar,
    /// Signals `Drop` that the last drainer retired with an empty queue.
    idle: Condvar,
    capacity: usize,
    max_active: usize,
    intra_query_threads: usize,
    completed: AtomicU64,
    pool: Arc<WorkStealingPool>,
}

/// A bounded query queue drained by tasks on the shared work-stealing pool.
/// Dropping the scheduler waits for in-flight queries to finish and resolves
/// still-queued ones with [`TsunamiError::SchedulerShutdown`] — waiters on
/// their handles (e.g. server connections mid-request) unblock with an error
/// instead of hanging. [`Scheduler::drain`] completes the queue instead.
pub struct Scheduler {
    shared: Arc<Shared>,
}

impl Scheduler {
    /// Default queue capacity per worker used when
    /// [`SchedulerConfig::queue_capacity`] is zero.
    pub const DEFAULT_QUEUE_PER_WORKER: usize = 64;

    /// A scheduler running up to `workers` queries concurrently (clamped to
    /// at least one) on the process-wide pool, with a queue of
    /// `workers * DEFAULT_QUEUE_PER_WORKER` slots.
    pub fn new(workers: usize) -> Self {
        Self::with_config(SchedulerConfig {
            workers: workers.max(1),
            ..SchedulerConfig::default()
        })
    }

    /// A scheduler with an explicit queue capacity (clamped to at least one
    /// slot). Smaller capacities apply backpressure sooner.
    pub fn with_queue_capacity(workers: usize, capacity: usize) -> Self {
        Self::with_config(SchedulerConfig {
            workers: workers.max(1),
            queue_capacity: capacity.max(1),
            ..SchedulerConfig::default()
        })
    }

    /// A scheduler on the process-wide pool with explicit tuning.
    pub fn with_config(config: SchedulerConfig) -> Self {
        Self::on_pool(Arc::clone(pool::global()), config)
    }

    /// A scheduler submitting into an explicit pool (tests inject private
    /// pools; a `Database` injects its shared one).
    pub fn on_pool(pool: Arc<WorkStealingPool>, config: SchedulerConfig) -> Self {
        let max_active = if config.workers == 0 {
            pool.worker_count()
        } else {
            config.workers
        };
        let capacity = if config.queue_capacity == 0 {
            max_active * Self::DEFAULT_QUEUE_PER_WORKER
        } else {
            config.queue_capacity
        };
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(QueueState {
                    jobs: VecDeque::new(),
                    active: 0,
                    shutdown: false,
                }),
                space_ready: Condvar::new(),
                idle: Condvar::new(),
                capacity: capacity.max(1),
                max_active: max_active.max(1),
                intra_query_threads: config.intra_query_threads.max(1),
                completed: AtomicU64::new(0),
                pool,
            }),
        }
    }

    /// Maximum queries executing concurrently.
    pub fn worker_count(&self) -> usize {
        self.shared.max_active
    }

    /// Queue capacity (maximum queries awaiting execution).
    pub fn queue_capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Intra-query parallelism each drained query executes with.
    pub fn intra_query_threads(&self) -> usize {
        self.shared.intra_query_threads
    }

    /// The pool this scheduler submits into.
    pub fn pool(&self) -> &Arc<WorkStealingPool> {
        &self.shared.pool
    }

    /// Total queries completed since the scheduler started.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Enqueues a query, blocking while the queue is full (backpressure).
    pub fn submit(&self, query: PreparedQuery) -> Result<QueryHandle> {
        self.enqueue(query, true)
    }

    /// Enqueues a query without blocking; fails with
    /// [`TsunamiError::SchedulerQueueFull`] when the queue is at capacity.
    pub fn try_submit(&self, query: PreparedQuery) -> Result<QueryHandle> {
        self.enqueue(query, false)
    }

    fn enqueue(&self, query: PreparedQuery, block: bool) -> Result<QueryHandle> {
        let mut state = self.shared.state.lock().unwrap();
        while state.jobs.len() >= self.shared.capacity {
            if state.shutdown {
                return Err(TsunamiError::SchedulerShutdown);
            }
            if !block {
                return Err(TsunamiError::SchedulerQueueFull);
            }
            state = self.shared.space_ready.wait(state).unwrap();
        }
        if state.shutdown {
            return Err(TsunamiError::SchedulerShutdown);
        }
        let slot = Slot::new();
        state.jobs.push_back((query, Arc::clone(&slot)));
        // Spin up another drainer unless the concurrency bound is already
        // met. The increment happens under the lock so a drainer retiring at
        // this instant (it also holds the lock to pop) cannot strand the job.
        let spawn_drainer = state.active < self.shared.max_active;
        if spawn_drainer {
            state.active += 1;
        }
        drop(state);
        if spawn_drainer {
            let shared = Arc::clone(&self.shared);
            self.shared.pool.spawn(move || drainer(&shared));
        }
        Ok(QueryHandle { slot })
    }

    /// Executes a batch of queries across the pool and returns their results
    /// in input order. Submission applies the same backpressure as
    /// [`Scheduler::submit`]; a query that panicked surfaces as an error.
    pub fn execute_batch(&self, queries: &[PreparedQuery]) -> Result<Vec<AggResult>> {
        let handles: Vec<QueryHandle> = queries
            .iter()
            .map(|q| self.submit(q.clone()))
            .collect::<Result<_>>()?;
        handles.iter().map(QueryHandle::wait).collect()
    }

    /// Shuts the scheduler down *completing* its queue: every still-queued
    /// query runs on the calling thread, then the scheduler waits for the
    /// queries its drainers are executing. Every handle resolves with its
    /// query's real outcome — unlike dropping, which cancels queued queries
    /// with [`TsunamiError::SchedulerShutdown`]. Taking `self` means no
    /// submission can race the final empty-queue check.
    pub fn drain(self) {
        loop {
            let job = self.shared.state.lock().unwrap().jobs.pop_front();
            let Some((query, slot)) = job else { break };
            self.shared.space_ready.notify_one();
            run_job(&self.shared, &query, &slot);
        }
        // Drop finds the queue empty and waits for in-flight drainers.
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        let cancelled = {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
            // Wake blocked submitters so they observe the shutdown.
            self.shared.space_ready.notify_all();
            std::mem::take(&mut state.jobs)
        };
        // Resolve queued-but-unstarted queries instead of executing them: a
        // waiter blocked on its handle (a server connection mid-request, say)
        // gets SchedulerShutdown rather than hanging on work that will never
        // be drained. Slots are filled outside the lock — in-flight drainers
        // keep retiring concurrently.
        for (_query, slot) in cancelled {
            slot.fill(Err(TsunamiError::SchedulerShutdown));
        }
        // Wait only for queries already executing on a drainer; the last one
        // to retire with an empty queue signals `idle`.
        let mut state = self.shared.state.lock().unwrap();
        while state.active != 0 {
            state = self.shared.idle.wait(state).unwrap();
        }
    }
}

/// One drainer task: pops queued queries and executes them until the queue
/// is empty, then retires. Runs on a pool worker.
fn drainer(shared: &Shared) {
    loop {
        let (query, slot) = {
            let mut state = shared.state.lock().unwrap();
            match state.jobs.pop_front() {
                Some(job) => job,
                None => {
                    state.active -= 1;
                    if state.active == 0 {
                        shared.idle.notify_all();
                    }
                    return;
                }
            }
        };
        // A slot freed up; wake one blocked submitter.
        shared.space_ready.notify_one();
        run_job(shared, &query, &slot);
    }
}

/// Folds one query into its partial state — on the scheduler's own pool
/// when it fans out — and fills its completion slot.
fn run_job(shared: &Shared, query: &PreparedQuery, slot: &Slot) {
    // Catch panics so a poisoned query can neither hang its waiter (the
    // slot always gets filled) nor kill the pool worker.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let index = query.table().index();
        let q = query.query();
        exec::fold_plan(
            index.source(),
            q,
            &index.plan(q),
            KernelTier::default(),
            &shared.pool,
            shared.intra_query_threads,
            shared.pool.morsel_rows(),
        )
    }))
    .map_err(|payload| {
        TsunamiError::QueryPanicked(
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string()),
        )
    });
    // Count before filling: once `fill` wakes a waiter, the query must
    // already be visible in `completed()`.
    shared.completed.fetch_add(1, Ordering::Relaxed);
    slot.fill(outcome);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::spec::IndexSpec;
    use tsunami_core::{Dataset, Workload};

    fn table() -> crate::table::Table {
        let mut db = Database::new();
        db.create_table(
            "t",
            &["a", "b"],
            Dataset::from_columns(vec![
                (0..5_000u64).collect(),
                (0..5_000u64).map(|v| v % 97).collect(),
            ])
            .unwrap(),
            &Workload::default(),
            &IndexSpec::FullScan,
        )
        .unwrap()
    }

    #[test]
    fn batch_results_match_serial_execution_in_order() {
        let t = table();
        let queries: Vec<_> = (0..40u64)
            .map(|i| {
                t.query()
                    .range("a", i * 100, i * 100 + 500)
                    .unwrap()
                    .sum("b")
                    .unwrap()
                    .prepare()
                    .unwrap()
            })
            .collect();
        let scheduler = Scheduler::new(4);
        let parallel = scheduler.execute_batch(&queries).unwrap();
        let serial: Vec<_> = queries.iter().map(|q| q.execute().0).collect();
        assert_eq!(parallel, serial);
        assert_eq!(scheduler.completed(), 40);
    }

    #[test]
    fn submit_poll_wait_lifecycle() {
        let t = table();
        let q = t.query().range("a", 0, 999).unwrap().prepare().unwrap();
        let scheduler = Scheduler::new(2);
        let handle = scheduler.submit(q.clone()).unwrap();
        let result = handle.wait().unwrap();
        assert_eq!(result.as_count(), Some(1_000));
        assert!(handle.is_done());
        assert_eq!(handle.poll().unwrap().unwrap(), result);
        // wait() is idempotent.
        assert_eq!(handle.wait().unwrap(), result);
    }

    #[test]
    fn worker_panics_surface_as_errors_and_do_not_hang_the_pool() {
        use tsunami_core::exec::{ScanPlan, ScanSource};
        use tsunami_core::{BuildTiming, Dataset, MultiDimIndex, Query};

        /// An index whose planner panics — stands in for any internal
        /// invariant failure during query execution.
        struct Exploding {
            data: Dataset,
        }
        impl MultiDimIndex for Exploding {
            fn name(&self) -> &str {
                "Exploding"
            }
            fn source(&self) -> &dyn ScanSource {
                &self.data
            }
            fn plan(&self, _query: &Query) -> ScanPlan {
                panic!("invariant violated")
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn build_timing(&self) -> BuildTiming {
                BuildTiming::default()
            }
        }

        let data = Dataset::from_columns(vec![(0..100u64).collect()]).unwrap();
        let mut db = Database::new();
        let bad = db
            .register_table(
                "bad",
                crate::schema::Schema::numbered(1),
                data.clone(),
                Box::new(Exploding { data }),
            )
            .unwrap();
        let good = table();

        let scheduler = Scheduler::new(2);
        let bad_handle = scheduler.submit(bad.query().prepare().unwrap()).unwrap();
        match bad_handle.wait() {
            Err(TsunamiError::QueryPanicked(msg)) => assert!(msg.contains("invariant")),
            other => panic!("expected QueryPanicked, got {other:?}"),
        }
        assert!(bad_handle.is_done());
        assert!(bad_handle.poll().unwrap().is_err());

        // The pool keeps serving after the panic.
        let q = good.query().range("a", 0, 9).unwrap().prepare().unwrap();
        for _ in 0..8 {
            let h = scheduler.submit(q.clone()).unwrap();
            assert_eq!(h.wait().unwrap().as_count(), Some(10));
        }
        // execute_batch propagates the panic as an error, not a hang.
        let batch = vec![q.clone(), bad.query().prepare().unwrap(), q];
        assert!(matches!(
            scheduler.execute_batch(&batch),
            Err(TsunamiError::QueryPanicked(_))
        ));
    }

    #[test]
    fn try_submit_applies_backpressure_when_the_queue_is_full() {
        let t = table();
        let q = t.query().prepare().unwrap();
        // One drainer, one queue slot: flooding must hit SchedulerQueueFull.
        let scheduler = Scheduler::with_queue_capacity(1, 1);
        let mut saw_full = false;
        let mut handles = Vec::new();
        for _ in 0..10_000 {
            match scheduler.try_submit(q.clone()) {
                Ok(h) => handles.push(h),
                Err(TsunamiError::SchedulerQueueFull) => {
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(saw_full, "a 1-slot queue never reported backpressure");
        for h in &handles {
            h.wait().unwrap();
        }
    }

    #[test]
    fn shutdown_resolves_every_handle_with_a_result_or_shutdown_error() {
        let t = table();
        let q = t.query().range("a", 0, 99).unwrap().prepare().unwrap();
        let scheduler = Scheduler::new(2);
        let handles: Vec<_> = (0..16)
            .map(|_| scheduler.submit(q.clone()).unwrap())
            .collect();
        drop(scheduler);
        // Every handle resolved by the time drop returned: in-flight queries
        // with their real result, still-queued ones with SchedulerShutdown.
        for h in handles {
            assert!(h.is_done());
            match h.wait() {
                Ok(r) => assert_eq!(r.as_count(), Some(100)),
                Err(TsunamiError::SchedulerShutdown) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }

    #[test]
    fn drain_completes_every_queued_query() {
        let t = table();
        let q = t.query().range("a", 0, 99).unwrap().prepare().unwrap();
        // One drainer on a one-worker pool: most submissions are still
        // queued when `drain` takes over.
        let scheduler = Scheduler::on_pool(
            Arc::new(WorkStealingPool::new(1)),
            SchedulerConfig {
                workers: 1,
                ..SchedulerConfig::default()
            },
        );
        let handles: Vec<_> = (0..16)
            .map(|_| scheduler.submit(q.clone()).unwrap())
            .collect();
        scheduler.drain();
        for h in handles {
            assert!(h.is_done());
            assert_eq!(h.wait().unwrap().as_count(), Some(100));
        }
    }

    #[test]
    fn drop_resolves_unstarted_handles_instead_of_hanging() {
        use tsunami_core::exec::pool::WorkStealingPool;
        use tsunami_core::exec::{ScanPlan, ScanSource};
        use tsunami_core::{BuildTiming, Dataset, MultiDimIndex, Query};

        /// An index whose planner blocks on an external gate — stands in for
        /// any long-running query occupying the only drainer. `entered`
        /// flips when the planner is reached, so the test can tell the
        /// drainer has actually dequeued the query.
        struct Gated {
            data: Dataset,
            gate: Arc<(Mutex<GateState>, Condvar)>,
        }
        #[derive(Default)]
        struct GateState {
            entered: bool,
            open: bool,
        }
        impl MultiDimIndex for Gated {
            fn name(&self) -> &str {
                "Gated"
            }
            fn source(&self) -> &dyn ScanSource {
                &self.data
            }
            fn plan(&self, _query: &Query) -> ScanPlan {
                let (lock, cv) = &*self.gate;
                let mut state = lock.lock().unwrap();
                state.entered = true;
                cv.notify_all();
                while !state.open {
                    state = cv.wait(state).unwrap();
                }
                ScanPlan::full(self.data.len())
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn build_timing(&self) -> BuildTiming {
                BuildTiming::default()
            }
        }

        let gate = Arc::new((Mutex::new(GateState::default()), Condvar::new()));
        let data = Dataset::from_columns(vec![(0..100u64).collect()]).unwrap();
        let mut db = Database::new();
        let t = db
            .register_table(
                "gated",
                crate::schema::Schema::numbered(1),
                data.clone(),
                Box::new(Gated {
                    data,
                    gate: Arc::clone(&gate),
                }),
            )
            .unwrap();

        // One drainer total: the gated query occupies it, so the remaining
        // submissions stay queued until drop cancels them.
        let pool = Arc::new(WorkStealingPool::new(1));
        let scheduler = Scheduler::on_pool(
            pool,
            SchedulerConfig {
                workers: 1,
                ..SchedulerConfig::default()
            },
        );
        let q = t.query().prepare().unwrap();
        let blocked = scheduler.submit(q.clone()).unwrap();
        {
            // Only once the drainer is provably inside the gated planner are
            // further submissions guaranteed to stay queued.
            let (lock, cv) = &*gate;
            let mut state = lock.lock().unwrap();
            while !state.entered {
                state = cv.wait(state).unwrap();
            }
        }
        let queued: Vec<_> = (0..4)
            .map(|_| scheduler.submit(q.clone()).unwrap())
            .collect();

        // A waiter holding the queued handles, like a server connection
        // blocked mid-request. It only opens the gate (letting the in-flight
        // query and therefore `drop` finish) after all queued handles
        // resolved with SchedulerShutdown — with the old drop-executes-all
        // semantics this test deadlocks instead of passing.
        let waiter = std::thread::spawn(move || {
            for h in queued {
                assert!(matches!(h.wait(), Err(TsunamiError::SchedulerShutdown)));
            }
            let (lock, cv) = &*gate;
            lock.lock().unwrap().open = true;
            cv.notify_all();
        });
        drop(scheduler);
        waiter.join().unwrap();
        assert_eq!(blocked.wait().unwrap().as_count(), Some(100));
    }

    #[test]
    fn intra_query_parallel_scheduler_matches_serial() {
        // Inter- and intra-query parallelism composing on one pool: each
        // drained query fans out into morsels without deadlocking, and
        // results stay bit-identical to serial execution.
        let t = table();
        let queries: Vec<_> = (0..12u64)
            .map(|i| {
                t.query()
                    .range("b", i, i + 40)
                    .unwrap()
                    .sum("a")
                    .unwrap()
                    .prepare()
                    .unwrap()
            })
            .collect();
        let scheduler = Scheduler::with_config(SchedulerConfig {
            workers: 4,
            intra_query_threads: 4,
            ..SchedulerConfig::default()
        });
        let results = scheduler.execute_batch(&queries).unwrap();
        for (r, q) in results.iter().zip(&queries) {
            assert_eq!(*r, q.execute().0);
        }
    }
}
