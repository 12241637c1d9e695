//! A persistent work-stealing thread pool: the workspace's single execution
//! substrate for both intra-query morsels and whole inter-query tasks.
//!
//! # Why hand-rolled
//!
//! The container has no rayon (offline workspace), and the executor needs a
//! *persistent* pool anyway: spawning fresh `std::thread`s per parallel
//! execution pays ~tens of microseconds of spawn latency per query — more
//! than a whole small scan — and a per-`Scheduler` dedicated
//! worker set cannot lend idle threads to a big concurrent scan. One shared
//! pool runs one huge scan, or many small queries, or any mix, without idle
//! workers or spawn overhead.
//!
//! # Architecture
//!
//! * **Per-worker Chase-Lev deques** — each worker owns a lock-free deque
//!   (Chase & Lev, *Dynamic circular work-stealing deque*; memory orderings
//!   per Lê et al., *Correct and efficient work-stealing for weak memory
//!   models*, PPoPP 2013). The owner pushes and pops at the bottom
//!   (LIFO — newest task is cache-hottest); thieves steal from the top
//!   (FIFO — oldest task is the largest remaining work unit).
//! * **A global injector** — a mutex-guarded FIFO for tasks submitted from
//!   non-worker threads (query callers, the engine scheduler). Submission
//!   rates are per-query, not per-morsel, so a plain mutex is not a
//!   bottleneck; morsel-grained traffic stays on the lock-free deques.
//! * **Parking** — idle workers sleep on a condvar after re-checking the
//!   queues *while registered as sleepers*, so a concurrent submission either
//!   sees the sleeper and notifies, or the re-check sees the task. A 10 ms
//!   wait timeout bounds any missed-wakeup window defensively.
//! * **Scoped joins** — [`WorkStealingPool::join_helpers`] runs a borrowed
//!   closure on up to N workers plus the calling thread and returns only when
//!   every instance finished, which is what makes lifetime erasure of the
//!   borrow sound. A *worker* waiting on a join helps by draining its own
//!   deque (where its just-pushed helper tasks sit) instead of blocking, so
//!   scheduler tasks that fan out into morsels cannot deadlock the pool.
//!
//! The process-wide pool is created lazily by [`global`] and lives for the
//! process lifetime. Its size comes from `TSUNAMI_POOL_THREADS` (default:
//! `std::thread::available_parallelism`), the morsel granularity from
//! `TSUNAMI_MORSEL_ROWS` (default [`DEFAULT_MORSEL_ROWS`]); both are read
//! once at first use. Tests build private pools with
//! [`WorkStealingPool::with_config`].

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use super::BLOCK_ROWS;

/// Default number of rows per morsel (~1 MiB per touched `u64` column):
/// large enough to amortize claim overhead, small enough to stay
/// cache-resident and to balance across workers. Scans are memory-bandwidth
/// bound, so finer splitting buys balance, not bandwidth.
pub const DEFAULT_MORSEL_ROWS: usize = 128 * 1024;

/// A heap-allocated pool task. Stored in the deques as a thin raw pointer so
/// slots are a single `AtomicPtr`.
struct TaskCell {
    run: Box<dyn FnOnce() + Send + 'static>,
}

type RawTask = *mut TaskCell;

/// Raw task wrapper that is `Send` so it can sit in the injector mutex.
struct InjectedTask(RawTask);
// SAFETY: the wrapped pointer owns a `Box<TaskCell>` whose closure is `Send`;
// the wrapper is only ever moved between threads, never aliased.
unsafe impl Send for InjectedTask {}

/// Growable circular buffer backing one Chase-Lev deque. Capacity is always a
/// power of two so indexing is a mask.
struct Buffer {
    cap: usize,
    slots: Box<[AtomicPtr<TaskCell>]>,
}

impl Buffer {
    fn alloc(cap: usize) -> *mut Buffer {
        debug_assert!(cap.is_power_of_two());
        Box::into_raw(Box::new(Buffer {
            cap,
            slots: (0..cap)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        }))
    }

    fn get(&self, index: isize) -> RawTask {
        self.slots[index as usize & (self.cap - 1)].load(Ordering::Relaxed)
    }

    fn put(&self, index: isize, task: RawTask) {
        self.slots[index as usize & (self.cap - 1)].store(task, Ordering::Relaxed);
    }
}

/// Result of one steal attempt.
enum Steal {
    /// Stole this task.
    Success(RawTask),
    /// Lost a race; the deque may still have tasks — try again.
    Retry,
    /// Deque observed empty.
    Empty,
}

/// One worker's Chase-Lev deque. The owning worker pushes/pops at the
/// bottom; any thread may steal from the top. Retired (outgrown) buffers are
/// kept until the deque drops because concurrent thieves may still read
/// them; the top-CAS guarantees a stale read is never *used*.
struct Deque {
    top: AtomicIsize,
    bottom: AtomicIsize,
    buffer: AtomicPtr<Buffer>,
    retired: Mutex<Vec<*mut Buffer>>,
}

// SAFETY: all cross-thread access goes through atomics (and the retired-list
// mutex); the raw buffer pointers are reclaimed only in `drop`, when no other
// thread can hold a reference to the deque.
unsafe impl Send for Deque {}
unsafe impl Sync for Deque {}

impl Deque {
    const MIN_CAP: usize = 64;

    fn new() -> Self {
        Self {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            buffer: AtomicPtr::new(Buffer::alloc(Self::MIN_CAP)),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Cheap emptiness hint for parking decisions — never used for
    /// correctness of pop/steal themselves.
    fn is_empty_hint(&self) -> bool {
        self.bottom.load(Ordering::Relaxed) <= self.top.load(Ordering::Relaxed)
    }

    /// Owner-only: push a task at the bottom.
    ///
    /// # Safety
    /// Must only be called from the worker thread that owns this deque.
    unsafe fn push(&self, task: RawTask) {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        let mut buf = self.buffer.load(Ordering::Relaxed);
        if b - t >= (*buf).cap as isize {
            buf = self.grow(t, b);
        }
        (*buf).put(b, task);
        // Release: a thief that Acquire-loads the new bottom sees the slot.
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner-only: pop the most recently pushed task.
    ///
    /// # Safety
    /// Must only be called from the worker thread that owns this deque.
    unsafe fn pop(&self) -> Option<RawTask> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        let buf = self.buffer.load(Ordering::Relaxed);
        self.bottom.store(b, Ordering::Relaxed);
        // SeqCst fence: order the bottom decrement against the top load, so
        // this pop and a concurrent steal cannot both miss each other.
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t <= b {
            let task = (*buf).get(b);
            if t == b {
                // Last element: race thieves for it via the top CAS.
                let won = self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.bottom.store(b + 1, Ordering::Relaxed);
                won.then_some(task)
            } else {
                Some(task)
            }
        } else {
            self.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Any thread: try to steal the oldest task.
    fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::Acquire);
        // SeqCst fence: the top load must not be reordered after the bottom
        // load, or a concurrent pop could hide the last element from us
        // while we hide our claim from it.
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let buf = self.buffer.load(Ordering::Acquire);
        // SAFETY: `buf` is either the current buffer or a retired one that
        // stays allocated until the deque drops; if it was retired, the CAS
        // below fails (top moved during the grow window's races) or the
        // entry at `t` is identical in the new buffer (grow copies t..b).
        let task = unsafe { (*buf).get(t) };
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Steal::Success(task)
        } else {
            Steal::Retry
        }
    }

    /// Owner-only (from `push`): double the buffer, copying live entries.
    /// The old buffer is retired, not freed — thieves may still be reading
    /// it.
    unsafe fn grow(&self, t: isize, b: isize) -> *mut Buffer {
        let old = self.buffer.load(Ordering::Relaxed);
        let new = Buffer::alloc((*old).cap * 2);
        for i in t..b {
            (*new).put(i, (*old).get(i));
        }
        self.buffer.store(new, Ordering::Release);
        self.retired.lock().unwrap().push(old);
        new
    }
}

impl Drop for Deque {
    fn drop(&mut self) {
        // Free any tasks never executed (a clean shutdown leaves none).
        loop {
            match self.steal() {
                Steal::Success(task) => unsafe { drop(Box::from_raw(task)) },
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
        unsafe {
            drop(Box::from_raw(self.buffer.load(Ordering::Relaxed)));
            for buf in self.retired.lock().unwrap().drain(..) {
                drop(Box::from_raw(buf));
            }
        }
    }
}

/// Sleep bookkeeping: how many workers are parked on the condvar.
struct SleepState {
    sleepers: usize,
}

/// State shared between the pool handle and its worker threads.
struct PoolShared {
    deques: Vec<Deque>,
    injector: Mutex<VecDeque<InjectedTask>>,
    /// Lock-free injector emptiness hint.
    injector_len: AtomicUsize,
    sleep: Mutex<SleepState>,
    wake: Condvar,
    shutdown: AtomicBool,
    morsel_rows: usize,
}

impl PoolShared {
    fn pop_injector(&self) -> Option<RawTask> {
        if self.injector_len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut queue = self.injector.lock().unwrap();
        let task = queue.pop_front();
        if task.is_some() {
            self.injector_len.fetch_sub(1, Ordering::Relaxed);
        }
        task.map(|InjectedTask(raw)| raw)
    }

    fn push_injector(&self, task: RawTask) {
        let mut queue = self.injector.lock().unwrap();
        queue.push_back(InjectedTask(task));
        self.injector_len.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether any queue plausibly holds work (parking hint only).
    fn has_work_hint(&self) -> bool {
        self.injector_len.load(Ordering::Relaxed) > 0
            || self.deques.iter().any(|d| !d.is_empty_hint())
    }

    /// Wakes sleeping workers after a submission: one for a single task,
    /// everyone for a batch.
    fn notify(&self, tasks: usize) {
        let sleep = self.sleep.lock().unwrap();
        if sleep.sleepers > 0 {
            if tasks <= 1 {
                self.wake.notify_one();
            } else {
                self.wake.notify_all();
            }
        }
    }

    /// Find a task: own deque first (cache-hot LIFO), then the injector,
    /// then steal from the other workers.
    fn find_task(&self, index: usize) -> Option<RawTask> {
        // SAFETY: `find_task` is only called by the worker owning deque
        // `index` (see `worker_loop`).
        if let Some(task) = unsafe { self.deques[index].pop() } {
            return Some(task);
        }
        if let Some(task) = self.pop_injector() {
            return Some(task);
        }
        let n = self.deques.len();
        for sweep in 0..2 {
            let _ = sweep;
            for offset in 1..n {
                let victim = (index + offset) % n;
                loop {
                    match self.deques[victim].steal() {
                        Steal::Success(task) => return Some(task),
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => break,
                    }
                }
            }
        }
        None
    }
}

/// Runs one task, consuming it. Panics are caught so a poisoned task can
/// never kill a pool worker; scoped joins re-surface them to the caller.
fn run_task(raw: RawTask) {
    // SAFETY: `raw` came from `Box::into_raw` in `submit_task` and ownership
    // transfers to exactly one runner (deque/injector hand-off is linear).
    let cell = unsafe { Box::from_raw(raw) };
    let _ = panic::catch_unwind(AssertUnwindSafe(cell.run));
}

thread_local! {
    /// `(pool identity, worker index)` of the pool worker running this
    /// thread, if any. Pool identity is the address of its `PoolShared`.
    static CURRENT_WORKER: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

fn worker_loop(shared: &Arc<PoolShared>, index: usize) {
    CURRENT_WORKER.with(|w| w.set(Some((Arc::as_ptr(shared) as usize, index))));
    loop {
        if let Some(task) = shared.find_task(index) {
            run_task(task);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Park. Registering as a sleeper *before* the re-check closes the
        // lost-wakeup race: a submitter either sees sleepers > 0 and
        // notifies, or we see its task in the re-check. The timeout is a
        // defensive bound, not the wakeup mechanism.
        let mut sleep = shared.sleep.lock().unwrap();
        sleep.sleepers += 1;
        if !shared.shutdown.load(Ordering::Acquire) && !shared.has_work_hint() {
            let (guard, _) = shared
                .wake
                .wait_timeout(sleep, Duration::from_millis(10))
                .unwrap();
            sleep = guard;
        }
        sleep.sleepers -= 1;
    }
}

/// Completion latch for one scoped join: counts outstanding helper
/// invocations and records the first helper panic.
struct Latch {
    state: Mutex<(usize, Option<String>)>,
    done: Condvar,
}

impl Latch {
    fn new(outstanding: usize) -> Self {
        Self {
            state: Mutex::new((outstanding, None)),
            done: Condvar::new(),
        }
    }

    fn arrive(&self, panic_msg: Option<String>) {
        let mut state = self.state.lock().unwrap();
        state.0 -= 1;
        if let Some(msg) = panic_msg {
            state.1.get_or_insert(msg);
        }
        if state.0 == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.state.lock().unwrap().0 == 0
    }

    fn wait(&self) {
        let mut state = self.state.lock().unwrap();
        while state.0 > 0 {
            state = self.done.wait(state).unwrap();
        }
    }

    fn wait_timeout(&self, timeout: Duration) {
        let state = self.state.lock().unwrap();
        if state.0 > 0 {
            let _ = self.done.wait_timeout(state, timeout).unwrap();
        }
    }

    fn take_panic(&self) -> Option<String> {
        self.state.lock().unwrap().1.take()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Configuration for a [`WorkStealingPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Number of worker threads (clamped to at least one).
    pub threads: usize,
    /// Rows per morsel for the pooled plan executors (clamped to at least
    /// one block, [`BLOCK_ROWS`]).
    pub morsel_rows: usize,
}

impl PoolConfig {
    /// Reads `TSUNAMI_POOL_THREADS` and `TSUNAMI_MORSEL_ROWS` from the
    /// environment, falling back to `std::thread::available_parallelism` and
    /// [`DEFAULT_MORSEL_ROWS`]. Unparseable or zero values fall back too.
    pub fn from_env() -> Self {
        let parse = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
        };
        Self {
            threads: parse("TSUNAMI_POOL_THREADS").unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
            morsel_rows: parse("TSUNAMI_MORSEL_ROWS").unwrap_or(DEFAULT_MORSEL_ROWS),
        }
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

/// A persistent work-stealing thread pool (see the module docs).
///
/// Dropping the pool (or calling [`WorkStealingPool::shutdown`]) joins every
/// worker; tasks still queued at shutdown are executed on the shutting-down
/// thread so scoped joins can never be stranded. Shutdown is idempotent.
pub struct WorkStealingPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkStealingPool {
    /// A pool with `threads` workers and the default morsel size.
    pub fn new(threads: usize) -> Self {
        Self::with_config(PoolConfig {
            threads,
            morsel_rows: DEFAULT_MORSEL_ROWS,
        })
    }

    /// A pool with an explicit configuration.
    pub fn with_config(config: PoolConfig) -> Self {
        let threads = config.threads.max(1);
        let shared = Arc::new(PoolShared {
            deques: (0..threads).map(|_| Deque::new()).collect(),
            injector: Mutex::new(VecDeque::new()),
            injector_len: AtomicUsize::new(0),
            sleep: Mutex::new(SleepState { sleepers: 0 }),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            morsel_rows: config.morsel_rows.max(BLOCK_ROWS),
        });
        let workers = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tsunami-pool-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawning pool worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads the pool was built with.
    pub fn worker_count(&self) -> usize {
        self.shared.deques.len()
    }

    /// Rows per morsel for the pooled plan executors.
    pub fn morsel_rows(&self) -> usize {
        self.shared.morsel_rows
    }

    /// The worker index of the calling thread, if it is one of *this* pool's
    /// workers.
    fn current_worker_index(&self) -> Option<usize> {
        CURRENT_WORKER.with(|w| match w.get() {
            Some((pool, index)) if pool == Arc::as_ptr(&self.shared) as usize => Some(index),
            _ => None,
        })
    }

    /// Submits an independent `'static` task (the inter-query path: the
    /// engine scheduler submits whole queries this way). From a worker
    /// thread the task lands on that worker's own deque; from any other
    /// thread it goes through the global injector.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        self.submit_task(Box::new(task));
        self.shared.notify(1);
    }

    fn submit_task(&self, task: Box<dyn FnOnce() + Send + 'static>) {
        let raw = Box::into_raw(Box::new(TaskCell { run: task }));
        match self.current_worker_index() {
            // SAFETY: `current_worker_index` proved we are the owner.
            Some(index) => unsafe { self.shared.deques[index].push(raw) },
            None => self.shared.push_injector(raw),
        }
    }

    /// Runs `work` on up to `helpers` pool workers *and* the calling thread,
    /// returning once every invocation has finished (the intra-query path:
    /// each invocation is one morsel-claiming loop).
    ///
    /// The borrow is erased to `'static` internally; that is sound because
    /// this function never returns — not even by unwinding — before all
    /// helper invocations completed, so `work` outlives every use. A helper
    /// panic is re-raised here on the calling thread; a caller panic
    /// propagates after the helpers finish.
    ///
    /// A calling thread that is itself a pool worker waits by draining its
    /// own deque (where its helper tasks were just pushed), so tasks that
    /// fan out into scoped joins cannot deadlock the pool.
    pub fn join_helpers<'scope>(&self, helpers: usize, work: &(dyn Fn() + Sync + 'scope)) {
        if helpers == 0 {
            work();
            return;
        }
        let latch = Arc::new(Latch::new(helpers));
        // SAFETY: lifetime erasure only; see the doc comment for why `work`
        // outlives every helper invocation.
        let work_static: &'static (dyn Fn() + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync + 'scope), &'static (dyn Fn() + Sync)>(work)
        };
        for _ in 0..helpers {
            let latch = Arc::clone(&latch);
            self.submit_task(Box::new(move || {
                let result = panic::catch_unwind(AssertUnwindSafe(work_static));
                latch.arrive(result.err().map(panic_message));
            }));
        }
        self.shared.notify(helpers);
        let caller = panic::catch_unwind(AssertUnwindSafe(work));
        // Helpers still borrow `work` (and whatever it captures): wait for
        // them before unwinding even if the caller's own invocation panicked.
        self.wait_latch(&latch);
        if let Err(payload) = caller {
            panic::resume_unwind(payload);
        }
        if let Some(msg) = latch.take_panic() {
            panic!("pool helper panicked: {msg}");
        }
    }

    fn wait_latch(&self, latch: &Latch) {
        match self.current_worker_index() {
            Some(index) => {
                while !latch.is_done() {
                    // SAFETY: we are the worker owning deque `index`.
                    match unsafe { self.shared.deques[index].pop() } {
                        Some(task) => run_task(task),
                        // Own deque empty: our helpers were stolen and are
                        // running elsewhere. Briefly block instead of
                        // spinning; arrival notifies the latch condvar.
                        None => latch.wait_timeout(Duration::from_micros(200)),
                    }
                }
            }
            None => latch.wait(),
        }
    }

    /// Stops and joins every worker. Queued-but-unexecuted tasks are run on
    /// this thread so no scoped join is ever stranded. Idempotent — safe to
    /// call before `drop`, twice, or never.
    pub fn shutdown(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::Release);
        {
            // Taking the sleep lock orders the flag store against sleeper
            // registration, so every parked worker observes it.
            let _guard = self.shared.sleep.lock().unwrap();
            self.shared.wake.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Late submissions (or tasks a worker pushed while exiting): run
        // them here rather than dropping latched work on the floor.
        while let Some(task) = self.shared.pop_injector() {
            run_task(task);
        }
        for deque in &self.shared.deques {
            loop {
                match deque.steal() {
                    Steal::Success(task) => run_task(task),
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
    }
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for WorkStealingPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkStealingPool")
            .field("workers", &self.worker_count())
            .field("morsel_rows", &self.morsel_rows())
            .finish()
    }
}

/// The lazily-created process-wide pool every query hot path routes
/// through. Sized by `TSUNAMI_POOL_THREADS` / `TSUNAMI_MORSEL_ROWS` (read
/// once, at first use); lives for the process lifetime.
pub fn global() -> &'static Arc<WorkStealingPool> {
    static GLOBAL: OnceLock<Arc<WorkStealingPool>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(WorkStealingPool::with_config(PoolConfig::from_env())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn spawned_tasks_all_run() {
        let pool = WorkStealingPool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        let latch = Arc::new(Latch::new(100));
        for i in 0..100u64 {
            let counter = Arc::clone(&counter);
            let latch = Arc::clone(&latch);
            pool.spawn(move || {
                counter.fetch_add(i + 1, Ordering::Relaxed);
                latch.arrive(None);
            });
        }
        latch.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn join_helpers_runs_on_caller_and_helpers() {
        let pool = WorkStealingPool::new(2);
        let invocations = AtomicU64::new(0);
        let mut local = 0u64; // borrowed non-'static state
        let claimed = AtomicUsize::new(0);
        pool.join_helpers(2, &|| {
            invocations.fetch_add(1, Ordering::Relaxed);
            while claimed.fetch_add(1, Ordering::Relaxed) < 1000 {}
        });
        // All invocations finished before join_helpers returned.
        assert_eq!(invocations.load(Ordering::Relaxed), 3);
        assert!(claimed.load(Ordering::Relaxed) >= 1001);
        local += 1;
        assert_eq!(local, 1);
    }

    #[test]
    fn join_helpers_resurfaces_helper_panics() {
        let pool = WorkStealingPool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let hits = AtomicU64::new(0);
            pool.join_helpers(2, &|| {
                if hits.fetch_add(1, Ordering::Relaxed) > 0 {
                    panic!("helper boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives the panic and keeps executing work.
        let ran = Arc::new(AtomicBool::new(false));
        let latch = Arc::new(Latch::new(1));
        let flag = Arc::clone(&ran);
        let l = Arc::clone(&latch);
        pool.spawn(move || {
            flag.store(true, Ordering::Relaxed);
            l.arrive(None);
        });
        latch.wait();
        assert!(ran.load(Ordering::Relaxed));
    }

    #[test]
    fn nested_joins_from_worker_tasks_do_not_deadlock() {
        // A task that itself fans out: the scheduler-runs-parallel-query
        // shape. Must complete even when the pool has a single worker.
        for threads in [1, 2, 4] {
            let pool = Arc::new(WorkStealingPool::new(threads));
            let latch = Arc::new(Latch::new(4));
            let total = Arc::new(AtomicU64::new(0));
            for _ in 0..4 {
                let pool2 = Arc::clone(&pool);
                let latch = Arc::clone(&latch);
                let total = Arc::clone(&total);
                pool.spawn(move || {
                    let inner = AtomicU64::new(0);
                    pool2.join_helpers(2, &|| {
                        inner.fetch_add(7, Ordering::Relaxed);
                    });
                    total.fetch_add(inner.load(Ordering::Relaxed), Ordering::Relaxed);
                    latch.arrive(None);
                });
            }
            latch.wait();
            // 4 tasks × 3 invocations × 7.
            assert_eq!(total.load(Ordering::Relaxed), 84, "threads={threads}");
        }
    }

    #[test]
    fn shutdown_is_idempotent_and_runs_queued_tasks() {
        let mut pool = WorkStealingPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        pool.shutdown(); // double shutdown is a no-op
        assert_eq!(counter.load(Ordering::Relaxed), 50);
        drop(pool); // drop after explicit shutdown is safe too
    }

    #[test]
    fn config_clamps_zero_threads_and_tiny_morsels() {
        let pool = WorkStealingPool::with_config(PoolConfig {
            threads: 0,
            morsel_rows: 1,
        });
        assert_eq!(pool.worker_count(), 1);
        assert_eq!(pool.morsel_rows(), BLOCK_ROWS);
    }
}
