//! The trivial full-scan baseline: no index structure at all.

use std::time::Instant;

use tsunami_core::{BuildTiming, Dataset, MultiDimIndex, Query, ScanPlan, ScanSource};
use tsunami_store::ColumnStore;

/// An "index" that always scans the entire table. Useful as a correctness
/// oracle and as the floor for performance comparisons.
#[derive(Debug)]
pub struct FullScanIndex {
    store: ColumnStore,
    timing: BuildTiming,
}

impl FullScanIndex {
    /// Builds the full-scan baseline (just copies the data into the store).
    pub fn build(data: &Dataset) -> Self {
        let start = Instant::now();
        let mut store = ColumnStore::from_dataset(data);
        store.encode_blocks();
        Self {
            store,
            timing: BuildTiming {
                sort_secs: start.elapsed().as_secs_f64(),
                optimize_secs: 0.0,
            },
        }
    }

    /// Absorbs new rows: a full scan has no layout, so ingest is a plain
    /// append.
    pub fn ingest(&self, rows: &Dataset) -> Self {
        let start = Instant::now();
        let mut store = self.store.clone();
        store.append_dataset(rows);
        Self {
            store,
            timing: BuildTiming {
                sort_secs: start.elapsed().as_secs_f64(),
                optimize_secs: 0.0,
            },
        }
    }

    /// Tombstones the rows matching `query`'s predicates, returning the new
    /// index and the number of rows newly deleted. A full scan has no layout
    /// to protect, so compaction is a simple policy: once the majority of
    /// rows are dead, the dead rows are physically dropped.
    pub fn delete_where(&self, query: &Query) -> (Self, usize) {
        let start = Instant::now();
        let mut store = self.store.clone();
        let deleted = store.delete_where(query);
        if store.tombstones().deleted() * 2 > store.len() {
            let n = store.len();
            store.drop_deleted_in(0..n);
            store.encode_blocks();
        }
        (
            Self {
                store,
                timing: BuildTiming {
                    sort_secs: start.elapsed().as_secs_f64(),
                    optimize_secs: 0.0,
                },
            },
            deleted,
        )
    }
}

impl MultiDimIndex for FullScanIndex {
    fn name(&self) -> &str {
        "FullScan"
    }

    fn source(&self) -> &dyn ScanSource {
        &self.store
    }

    fn plan(&self, _query: &Query) -> ScanPlan {
        ScanPlan::full(self.store.len())
    }

    fn size_bytes(&self) -> usize {
        0
    }

    fn build_timing(&self) -> BuildTiming {
        self.timing
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        // Lets the engine's ingestion path reach `FullScanIndex::ingest`
        // behind a `Box<dyn MultiDimIndex>`.
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::{AggResult, Predicate};

    #[test]
    fn full_scan_matches_reference() {
        let data = Dataset::from_columns(vec![(0..100u64).collect(), (0..100u64).rev().collect()])
            .unwrap();
        let idx = FullScanIndex::build(&data);
        let q = Query::count(vec![Predicate::range(0, 10, 29).unwrap()]).unwrap();
        assert_eq!(idx.execute(&q).0, q.execute_full_scan(&data));
        assert_eq!(idx.size_bytes(), 0);
        assert_eq!(idx.name(), "FullScan");
    }

    #[test]
    fn delete_where_tombstones_then_compacts_past_half_dead() {
        let data = Dataset::from_columns(vec![(0..100u64).collect(), (0..100u64).rev().collect()])
            .unwrap();
        let idx = FullScanIndex::build(&data);
        // A small delete stays tombstoned...
        let del = Query::count(vec![Predicate::range(0, 0, 9).unwrap()]).unwrap();
        let (after, n) = idx.delete_where(&del);
        assert_eq!(n, 10);
        assert_eq!(after.store.len(), 100);
        assert_eq!(after.store.live_len(), 90);
        let q = Query::count(vec![Predicate::range(0, 0, 19).unwrap()]).unwrap();
        assert_eq!(after.execute(&q).0, AggResult::Count(10));
        // ...a majority-dead store compacts physically.
        let big = Query::count(vec![Predicate::range(0, 0, 79).unwrap()]).unwrap();
        let (compacted, n) = after.delete_where(&big);
        assert_eq!(n, 70);
        assert_eq!(compacted.store.len(), 20);
        assert_eq!(compacted.execute(&q).0, AggResult::Count(0));
        // Idempotent on the already-deleted band.
        let (_, n) = compacted.delete_where(&big);
        assert_eq!(n, 0);
    }

    #[test]
    fn stats_report_whole_table_scanned() {
        let data = Dataset::from_columns(vec![(0..50u64).collect()]).unwrap();
        let idx = FullScanIndex::build(&data);
        let q = Query::count(vec![Predicate::range(0, 0, 9).unwrap()]).unwrap();
        let (res, stats) = idx.execute(&q);
        assert_eq!(res, AggResult::Count(10));
        assert_eq!(stats.points, 50);
        assert_eq!(stats.ranges, 1);
        assert_eq!(stats.matched, 10);
    }
}
