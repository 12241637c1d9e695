//! Helpers shared by the integration suites: pinned-tier and parallel
//! execution through `exec::fold_plan`, the one executor entry point that
//! takes a tier, a pool and a thread count.

// Each test binary compiles its own copy and uses a subset.
#![allow(dead_code)]

use tsunami_core::exec::{self, KernelTier, ScanPlan, ScanSource};
use tsunami_core::{AggResult, MultiDimIndex, Query, ScanCounters};

/// Runs `plan` with a pinned kernel tier on `threads` participants of the
/// process-wide pool and finishes the partial state. `threads == 1` is the
/// serial loop.
pub fn run_plan(
    source: &dyn ScanSource,
    query: &Query,
    plan: &ScanPlan,
    tier: KernelTier,
    threads: usize,
) -> (AggResult, ScanCounters) {
    let pool = exec::pool::global();
    let (acc, counters) =
        exec::fold_plan(source, query, plan, tier, pool, threads, pool.morsel_rows());
    (acc.finish(), counters)
}

/// [`run_plan`] over an index's own plan and source.
pub fn run_index<I: MultiDimIndex + ?Sized>(
    index: &I,
    query: &Query,
    tier: KernelTier,
    threads: usize,
) -> (AggResult, ScanCounters) {
    run_plan(index.source(), query, &index.plan(query), tier, threads)
}

/// [`run_index`] with the default kernels on `threads` pool participants.
pub fn run_parallel<I: MultiDimIndex + ?Sized>(
    index: &I,
    query: &Query,
    threads: usize,
) -> (AggResult, ScanCounters) {
    run_index(index, query, KernelTier::default(), threads)
}
