//! Clustered single-dimensional index (§6.1, baseline 1).
//!
//! Points are sorted by the workload's most selective dimension. When a query
//! filters that dimension, the matching row range is located with binary
//! search and only that range is scanned (checking the remaining predicates);
//! otherwise the index degenerates to a full scan.

use std::time::Instant;

use tsunami_core::{
    BuildTiming, Dataset, MultiDimIndex, Query, ScanPlan, ScanSource, Value, Workload,
};
use tsunami_store::ColumnStore;

/// A clustered index sorted on a single dimension.
#[derive(Debug)]
pub struct ClusteredSingleDimIndex {
    store: ColumnStore,
    /// Sorted copy of the sort dimension's values for binary search.
    sort_keys: Vec<Value>,
    sort_dim: usize,
    /// Per-dimension `(min, max)` value bounds of the stored data, used to
    /// drop residual predicates the whole table trivially satisfies.
    domains: Vec<(Value, Value)>,
    timing: BuildTiming,
}

impl ClusteredSingleDimIndex {
    /// Picks the most selective dimension of the workload: the filtered
    /// dimension with the lowest average per-dimension selectivity.
    pub fn choose_sort_dim(data: &Dataset, workload: &Workload) -> usize {
        let d = data.num_dims();
        let mut best_dim = 0usize;
        let mut best_sel = f64::INFINITY;
        for dim in 0..d {
            let mut sel_sum = 0.0;
            let mut count = 0usize;
            for q in workload.queries() {
                if q.predicate_on(dim).is_some() {
                    sel_sum += q.dim_selectivity(data, dim);
                    count += 1;
                }
            }
            if count > 0 {
                // Weight by how often the dimension is filtered.
                let avg = sel_sum / count as f64;
                let freq = count as f64 / workload.len().max(1) as f64;
                let score = avg / freq.max(1e-6);
                if score < best_sel {
                    best_sel = score;
                    best_dim = dim;
                }
            }
        }
        best_dim
    }

    /// Builds the index sorted on the workload's most selective dimension.
    pub fn build(data: &Dataset, workload: &Workload) -> Self {
        let sort_dim = Self::choose_sort_dim(data, workload);
        Self::build_on_dim(data, sort_dim)
    }

    /// Builds the index sorted on an explicit dimension.
    pub fn build_on_dim(data: &Dataset, sort_dim: usize) -> Self {
        let start = Instant::now();
        let col = data.column(sort_dim);
        let mut perm: Vec<usize> = (0..data.len()).collect();
        perm.sort_by_key(|&r| col[r]);
        let sort_keys: Vec<Value> = perm.iter().map(|&r| col[r]).collect();
        let domains: Vec<(Value, Value)> = (0..data.num_dims())
            .map(|d| data.domain(d).unwrap_or((0, 0)))
            .collect();
        let mut store = ColumnStore::from_dataset(data);
        store.permute(&perm);
        store.encode_blocks();
        Self {
            store,
            sort_keys,
            sort_dim,
            domains,
            timing: BuildTiming {
                sort_secs: start.elapsed().as_secs_f64(),
                optimize_secs: 0.0,
            },
        }
    }

    /// Absorbs new rows **without a rebuild** — the sorted-merge ingest: the
    /// batch is appended to the store's tail and one stable
    /// [`ColumnStore::sort_range`] over the sort dimension merges it into
    /// place (the old rows are already one sorted run, so the sort
    /// degenerates to a merge). The per-dimension domains backing
    /// residual-predicate elimination are widened to cover the batch.
    pub fn ingest(&self, rows: &Dataset) -> Self {
        assert_eq!(
            rows.num_dims(),
            self.store.num_dims(),
            "ingested rows must match the index width"
        );
        let start = Instant::now();
        let mut store = self.store.clone();
        store.append_dataset(rows);
        store.sort_range(0..store.len(), self.sort_dim);
        store.encode_blocks();
        let sort_keys: Vec<Value> = store.column(self.sort_dim).decode_range(0..store.len());
        let domains: Vec<(Value, Value)> = self
            .domains
            .iter()
            .enumerate()
            .map(|(dim, &(lo, hi))| match rows.domain(dim) {
                Some((blo, bhi)) if !self.store.is_empty() => (lo.min(blo), hi.max(bhi)),
                Some(fresh) => fresh,
                None => (lo, hi),
            })
            .collect();
        Self {
            store,
            sort_keys,
            sort_dim: self.sort_dim,
            domains,
            timing: BuildTiming {
                sort_secs: start.elapsed().as_secs_f64(),
                optimize_secs: 0.0,
            },
        }
    }

    /// Whether the whole table already satisfies a predicate (its range
    /// covers the dimension's entire stored value domain), making any
    /// re-check of it redundant.
    fn covered_by_domain(&self, p: &tsunami_core::Predicate) -> bool {
        match self.domains.get(p.dim) {
            Some(&(lo, hi)) => p.lo <= lo && hi <= p.hi,
            None => false,
        }
    }

    /// The dimension the data is sorted by.
    pub fn sort_dim(&self) -> usize {
        self.sort_dim
    }
}

impl MultiDimIndex for ClusteredSingleDimIndex {
    fn name(&self) -> &str {
        "SingleDim"
    }

    fn source(&self) -> &dyn ScanSource {
        &self.store
    }

    fn plan(&self, query: &Query) -> ScanPlan {
        let on_sort_dim = query.predicate_on(self.sort_dim);
        let plan = match on_sort_dim {
            None => ScanPlan::full(self.store.len()),
            Some(pred) => {
                let start = self.sort_keys.partition_point(|&v| v < pred.lo);
                let end = self.sort_keys.partition_point(|&v| v <= pred.hi);
                // The binary search already guarantees the sort-dimension
                // predicate for every row in the range: if it is the only
                // filter the range is exact.
                ScanPlan::from_ranges([(start..end, query.num_filtered_dims() == 1)])
            }
        };
        // Residual elimination: the binary search guarantees the sort
        // dimension (when filtered), and the stored per-dimension value
        // domains guarantee any predicate covering them whole.
        let guaranteed: Vec<bool> = (0..self.store.num_dims())
            .map(|dim| {
                (dim == self.sort_dim && on_sort_dim.is_some())
                    || query
                        .predicate_on(dim)
                        .is_none_or(|p| self.covered_by_domain(p))
            })
            .collect();
        plan.with_guaranteed_dims(query, &guaranteed)
    }

    fn size_bytes(&self) -> usize {
        // The sorted key copy is the index structure.
        self.sort_keys.len() * std::mem::size_of::<Value>()
    }

    fn build_timing(&self) -> BuildTiming {
        self.timing
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        // Lets the engine's ingestion path reach
        // `ClusteredSingleDimIndex::ingest` behind a `Box<dyn MultiDimIndex>`.
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::sample::SplitMix;
    use tsunami_core::Predicate;

    fn data() -> Dataset {
        let mut rng = SplitMix::new(5);
        Dataset::from_columns(vec![
            (0..2000).map(|_| rng.next_below(1000)).collect(),
            (0..2000u64).map(|v| v % 777).collect(),
        ])
        .unwrap()
    }

    #[test]
    fn chooses_most_selective_dimension() {
        let ds = data();
        let w = Workload::new(vec![Query::count(vec![
            Predicate::range(0, 0, 900).unwrap(),
            Predicate::range(1, 10, 20).unwrap(),
        ])
        .unwrap()]);
        assert_eq!(ClusteredSingleDimIndex::choose_sort_dim(&ds, &w), 1);
    }

    #[test]
    fn matches_full_scan_on_sorted_dim_queries() {
        let ds = data();
        let idx = ClusteredSingleDimIndex::build_on_dim(&ds, 0);
        for (lo, hi) in [(0u64, 99u64), (500, 700), (990, 2000), (1500, 1600)] {
            let q = Query::count(vec![Predicate::range(0, lo, hi).unwrap()]).unwrap();
            assert_eq!(idx.execute(&q).0, q.execute_full_scan(&ds));
        }
    }

    #[test]
    fn matches_full_scan_on_multi_dim_and_unsorted_queries() {
        let ds = data();
        let idx = ClusteredSingleDimIndex::build_on_dim(&ds, 0);
        let q = Query::count(vec![
            Predicate::range(0, 100, 500).unwrap(),
            Predicate::range(1, 0, 300).unwrap(),
        ])
        .unwrap();
        assert_eq!(idx.execute(&q).0, q.execute_full_scan(&ds));
        // Query that does not filter the sort dimension -> full scan path.
        let q = Query::count(vec![Predicate::range(1, 0, 300).unwrap()]).unwrap();
        assert_eq!(idx.execute(&q).0, q.execute_full_scan(&ds));
    }

    #[test]
    fn sorted_dim_queries_scan_fewer_points() {
        let ds = data();
        let idx = ClusteredSingleDimIndex::build_on_dim(&ds, 0);
        let q = Query::count(vec![Predicate::range(0, 100, 150).unwrap()]).unwrap();
        let (_, stats) = idx.execute(&q);
        assert!(stats.points < ds.len() / 2);
        let q = Query::count(vec![Predicate::range(1, 100, 150).unwrap()]).unwrap();
        let (_, stats) = idx.execute(&q);
        assert_eq!(stats.points, ds.len());
    }

    #[test]
    fn ingest_merges_into_sort_order_and_stays_sound() {
        let ds = data();
        let idx = ClusteredSingleDimIndex::build_on_dim(&ds, 0);
        // Batch including values beyond the build-time domain of both dims.
        let batch = Dataset::from_columns(vec![
            vec![5, 500, 999, 5_000, 5_001],
            vec![1, 2, 3, 4, 5_000],
        ])
        .unwrap();
        let ingested = idx.ingest(&batch);

        let mut merged = ds.clone();
        for row in batch.rows() {
            merged.push_row(&row).unwrap();
        }
        // Sort keys stay sorted and cover every row.
        assert!(ingested.sort_keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ingested.sort_keys.len(), merged.len());

        for (lo, hi) in [(0u64, 99u64), (400, 600), (990, 6_000)] {
            let q = Query::count(vec![Predicate::range(0, lo, hi).unwrap()]).unwrap();
            assert_eq!(ingested.execute(&q).0, q.execute_full_scan(&merged));
        }
        // Residual elimination stays sound: the old whole-domain predicate
        // no longer covers the widened domain, so it must be re-checked (the
        // result must exclude the new out-of-domain rows).
        let (old_lo, old_hi) = ds.domain(1).unwrap();
        let q = Query::count(vec![Predicate::range(1, old_lo, old_hi).unwrap()]).unwrap();
        assert_eq!(ingested.execute(&q).0, q.execute_full_scan(&merged));
        // And the *new* whole-domain predicate is dropped from the residual.
        let (lo, hi) = merged.domain(1).unwrap();
        let q = Query::count(vec![Predicate::range(1, lo, hi).unwrap()]).unwrap();
        let plan = ingested.plan(&q);
        assert!(plan.residual(&q).is_empty());
        assert_eq!(ingested.execute(&q).0, q.execute_full_scan(&merged));
    }

    #[test]
    fn build_uses_workload_to_pick_dim() {
        let ds = data();
        let w = Workload::new(vec![Query::count(
            vec![Predicate::range(1, 5, 10).unwrap()],
        )
        .unwrap()]);
        let idx = ClusteredSingleDimIndex::build(&ds, &w);
        assert_eq!(idx.sort_dim(), 1);
        assert!(idx.size_bytes() > 0);
        assert!(idx.build_timing().sort_secs >= 0.0);
        assert_eq!(idx.name(), "SingleDim");
    }
}
