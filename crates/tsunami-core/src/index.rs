//! The common interface implemented by every multi-dimensional index in the
//! workspace, learned or not.
//!
//! The benchmark harness treats all indexes uniformly through this trait: it
//! builds them from a [`crate::Dataset`] and a sample [`crate::Workload`],
//! executes queries, and reports index size and build-time breakdowns
//! (Fig 8 and Fig 9b of the paper).
//!
//! Query execution is *not* implemented per index. An index only answers
//! [`MultiDimIndex::plan`] — which contiguous physical ranges to scan, with
//! the §6.1 exact-range flags — and exposes its reordered data through
//! [`MultiDimIndex::source`]; the one provided method,
//! [`MultiDimIndex::execute`], runs the plan through the shared serial
//! executor ([`exec::execute_plan`]) and returns the result with its
//! [`ScanCounters`]. Callers that need a pinned kernel tier, a pool, or the
//! unfinished partial state call [`exec::fold_plan`] with
//! [`MultiDimIndex::plan`] and [`MultiDimIndex::source`] directly.

use crate::exec::{self, ScanCounters, ScanPlan, ScanSource};
use crate::query::{AggResult, Query};

/// Wall-clock breakdown of building an index (Fig 9b): every index must sort
/// (reorganize) the data according to its layout, and learned indexes
/// additionally spend time optimizing the layout.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BuildTiming {
    /// Seconds spent physically reordering the data.
    pub sort_secs: f64,
    /// Seconds spent optimizing the layout (zero for non-learned indexes).
    pub optimize_secs: f64,
}

impl BuildTiming {
    /// Total build time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.sort_secs + self.optimize_secs
    }
}

/// A clustered in-memory multi-dimensional index over a single table.
///
/// Implementations own their (re-organized) copy of the data, so planning
/// needs only the query. Execution is provided: implement [`Self::plan`] and
/// [`Self::source`] and the shared executor does the rest.
pub trait MultiDimIndex {
    /// Short human-readable name used in benchmark output (e.g. `"Tsunami"`).
    fn name(&self) -> &str;

    /// The physical data the index's plans scan (its clustered copy).
    fn source(&self) -> &dyn ScanSource;

    /// Plans a query: the ordered contiguous physical ranges to scan, with
    /// per-range exactness flags (and optionally residual predicates). This
    /// is the only query-time logic an index implements.
    fn plan(&self, query: &Query) -> ScanPlan;

    /// Executes a query through the shared serial executor, returning the
    /// result and the counters for exactly this execution.
    fn execute(&self, query: &Query) -> (AggResult, ScanCounters) {
        exec::execute_plan(self.source(), query, &self.plan(query))
    }

    /// Size of the index structure in bytes, excluding the data itself
    /// (Fig 8 reports index size, not data size).
    fn size_bytes(&self) -> usize;

    /// Build-time breakdown recorded while constructing the index (Fig 9b).
    fn build_timing(&self) -> BuildTiming;

    /// Downcast hook for capabilities beyond this trait (e.g. the engine's
    /// incremental re-optimization path, which needs the concrete Tsunami
    /// index behind a `Box<dyn MultiDimIndex>`). Indexes with such
    /// capabilities override this to return `Some(self)`; the default opts
    /// out, so plain indexes need no boilerplate.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::query::{AggResult, Predicate};

    /// A trivial index (plain full scan over a small dataset) used to
    /// exercise the trait's provided methods.
    struct Dummy {
        data: Dataset,
    }

    impl Dummy {
        fn new() -> Self {
            Self {
                data: Dataset::from_columns(vec![(0..100u64).collect()]).unwrap(),
            }
        }
    }

    impl MultiDimIndex for Dummy {
        fn name(&self) -> &str {
            "dummy"
        }
        fn source(&self) -> &dyn ScanSource {
            &self.data
        }
        fn plan(&self, _query: &Query) -> ScanPlan {
            ScanPlan::full(self.data.len())
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn build_timing(&self) -> BuildTiming {
            BuildTiming {
                sort_secs: 1.0,
                optimize_secs: 2.0,
            }
        }
    }

    #[test]
    fn build_timing_totals() {
        let d = Dummy::new();
        assert_eq!(d.build_timing().total_secs(), 3.0);
    }

    #[test]
    fn provided_execute_runs_the_plan() {
        let d = Dummy::new();
        let q = Query::count(vec![Predicate::range(0, 10, 19).unwrap()]).unwrap();
        let (res, stats) = d.execute(&q);
        assert_eq!(res, AggResult::Count(10));
        assert_eq!(stats.ranges, 1);
        assert_eq!(stats.points, 100);
        assert_eq!(stats.matched, 10);
        let pool = exec::pool::global();
        let plan = d.plan(&q);
        let (acc, pstats) = exec::fold_plan(
            d.source(),
            &q,
            &plan,
            exec::KernelTier::default(),
            pool,
            4,
            pool.morsel_rows(),
        );
        assert_eq!(acc.finish(), AggResult::Count(10));
        assert_eq!(pstats, stats);
    }
}
