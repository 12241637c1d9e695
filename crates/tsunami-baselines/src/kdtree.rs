//! Clustered k-d tree baseline (§2.1, §6.1 baseline 4).
//!
//! The k-d tree recursively partitions space using the median value along
//! each dimension until the number of points in each leaf falls below the
//! page size. Dimensions are selected round-robin, ordered by workload
//! selectivity (most selective first), matching the paper's tuned setup.
//! Points within each leaf are stored contiguously.

use std::time::Instant;

use tsunami_core::{
    BuildTiming, Dataset, MultiDimIndex, Query, ScanPlan, ScanSource, Value, Workload,
};
use tsunami_store::ColumnStore;

#[derive(Debug)]
enum Node {
    Internal {
        dim: usize,
        split: Value,
        left: Box<Node>,
        right: Box<Node>,
    },
    Leaf {
        start: usize,
        end: usize,
        /// Per-dimension (min, max) bounding box of the leaf's points.
        bbox: Vec<(Value, Value)>,
    },
}

/// A clustered k-d tree over the column store.
#[derive(Debug)]
pub struct KdTree {
    root: Node,
    store: ColumnStore,
    num_leaves: usize,
    num_nodes: usize,
    timing: BuildTiming,
    page_size: usize,
}

impl KdTree {
    /// Orders dimensions by workload selectivity (most selective first);
    /// dimensions never filtered come last.
    pub fn dimension_order(data: &Dataset, workload: &Workload) -> Vec<usize> {
        let d = data.num_dims();
        let mut scored: Vec<(usize, f64)> = (0..d)
            .map(|dim| {
                let mut sel_sum = 0.0;
                let mut count = 0usize;
                for q in workload.queries() {
                    if q.predicate_on(dim).is_some() {
                        sel_sum += q.dim_selectivity(data, dim);
                        count += 1;
                    }
                }
                let score = if count == 0 {
                    f64::INFINITY
                } else {
                    sel_sum / count as f64
                };
                (dim, score)
            })
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.into_iter().map(|(dim, _)| dim).collect()
    }

    /// Builds a k-d tree with the given page size, cycling through dimensions
    /// in workload-selectivity order.
    pub fn build(data: &Dataset, workload: &Workload, page_size: usize) -> Self {
        let dim_order = Self::dimension_order(data, workload);
        Self::build_with_order(data, &dim_order, page_size)
    }

    /// Builds a k-d tree cycling through an explicit dimension order.
    pub fn build_with_order(data: &Dataset, dim_order: &[usize], page_size: usize) -> Self {
        let start_t = Instant::now();
        let page_size = page_size.max(1);
        let mut rows: Vec<usize> = (0..data.len()).collect();
        let mut perm: Vec<usize> = Vec::with_capacity(data.len());
        let mut num_leaves = 0usize;
        let mut num_nodes = 0usize;
        let root = Self::build_node(
            data,
            &mut rows,
            dim_order,
            0,
            page_size,
            &mut perm,
            &mut num_leaves,
            &mut num_nodes,
        );
        let mut store = ColumnStore::from_dataset(data);
        store.permute(&perm);
        store.encode_blocks();
        Self {
            root,
            store,
            num_leaves,
            num_nodes,
            timing: BuildTiming {
                sort_secs: start_t.elapsed().as_secs_f64(),
                optimize_secs: 0.0,
            },
            page_size,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_node(
        data: &Dataset,
        rows: &mut [usize],
        dim_order: &[usize],
        depth: usize,
        page_size: usize,
        perm: &mut Vec<usize>,
        num_leaves: &mut usize,
        num_nodes: &mut usize,
    ) -> Node {
        *num_nodes += 1;
        let dim = dim_order[depth % dim_order.len()];
        // Stop when the page is small enough or no split is possible.
        let make_leaf = rows.len() <= page_size || {
            // All values equal in every dimension -> cannot split.
            dim_order.iter().all(|&d| {
                let first = data.get(rows[0], d);
                rows.iter().all(|&r| data.get(r, d) == first)
            })
        };
        if make_leaf {
            *num_leaves += 1;
            let start = perm.len();
            let bbox = (0..data.num_dims())
                .map(|d| {
                    let mut lo = Value::MAX;
                    let mut hi = Value::MIN;
                    for &r in rows.iter() {
                        let v = data.get(r, d);
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    if rows.is_empty() {
                        (0, 0)
                    } else {
                        (lo, hi)
                    }
                })
                .collect();
            perm.extend_from_slice(rows);
            return Node::Leaf {
                start,
                end: perm.len(),
                bbox,
            };
        }

        // Median split along `dim`; fall back to the next dimension if this
        // one cannot separate the points.
        rows.sort_by_key(|&r| data.get(r, dim));
        let mid = rows.len() / 2;
        let split = data.get(rows[mid], dim);
        // Ensure both sides are non-empty by putting strictly-less values on
        // the left; if everything equals the split value, move the boundary.
        let mut boundary = rows.partition_point_by(|&r| data.get(r, dim) < split);
        if boundary == 0 || boundary == rows.len() {
            boundary = mid.max(1).min(rows.len() - 1);
        }
        let (left_rows, right_rows) = rows.split_at_mut(boundary);
        let left = Self::build_node(
            data,
            left_rows,
            dim_order,
            depth + 1,
            page_size,
            perm,
            num_leaves,
            num_nodes,
        );
        let right = Self::build_node(
            data,
            right_rows,
            dim_order,
            depth + 1,
            page_size,
            perm,
            num_leaves,
            num_nodes,
        );
        Node::Internal {
            dim,
            split,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Number of leaf pages.
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Total number of tree nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Page size the tree was built with.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    fn collect_ranges(
        &self,
        node: &Node,
        query: &Query,
        plan: &mut ScanPlan,
        guaranteed: &mut [bool],
    ) {
        match node {
            Node::Leaf { start, end, bbox } => {
                if *start == *end {
                    return;
                }
                // Prune leaves whose bbox misses the query; mark exact leaves
                // whose bbox is fully inside the query.
                let mut intersects = true;
                let mut contained = true;
                for p in query.predicates() {
                    let (lo, hi) = bbox[p.dim];
                    if hi < p.lo || lo > p.hi {
                        intersects = false;
                        break;
                    }
                    if lo < p.lo || hi > p.hi {
                        contained = false;
                    }
                }
                if intersects {
                    if !contained {
                        for p in query.predicates() {
                            let (lo, hi) = bbox[p.dim];
                            guaranteed[p.dim] &= p.lo <= lo && hi <= p.hi;
                        }
                    }
                    plan.push(*start..*end, contained);
                }
            }
            Node::Internal {
                dim,
                split,
                left,
                right,
            } => {
                match query.predicate_on(*dim) {
                    None => {
                        self.collect_ranges(left, query, plan, guaranteed);
                        self.collect_ranges(right, query, plan, guaranteed);
                    }
                    Some(pred) => {
                        // Left subtree holds values < split, right holds >= split.
                        if pred.lo < *split {
                            self.collect_ranges(left, query, plan, guaranteed);
                        }
                        if pred.hi >= *split {
                            self.collect_ranges(right, query, plan, guaranteed);
                        }
                    }
                }
            }
        }
    }
}

/// Extension trait providing `partition_point_by` over mutable slices of rows.
trait PartitionPointBy {
    fn partition_point_by<F: Fn(&usize) -> bool>(&self, pred: F) -> usize;
}

impl PartitionPointBy for [usize] {
    fn partition_point_by<F: Fn(&usize) -> bool>(&self, pred: F) -> usize {
        let mut count = 0;
        for r in self {
            if pred(r) {
                count += 1;
            } else {
                break;
            }
        }
        count
    }
}

impl MultiDimIndex for KdTree {
    fn name(&self) -> &str {
        "KdTree"
    }

    fn source(&self) -> &dyn ScanSource {
        &self.store
    }

    fn plan(&self, query: &Query) -> ScanPlan {
        let mut plan = ScanPlan::new();
        let mut guaranteed = vec![true; self.store.num_dims()];
        self.collect_ranges(&self.root, query, &mut plan, &mut guaranteed);
        plan.with_guaranteed_dims(query, &guaranteed)
    }

    fn size_bytes(&self) -> usize {
        // Internal node: dim + split + 2 pointers; leaf: range + bbox.
        let internal = self.num_nodes - self.num_leaves;
        internal * (std::mem::size_of::<usize>() + std::mem::size_of::<Value>() + 2 * 8)
            + self.num_leaves
                * (2 * std::mem::size_of::<usize>()
                    + self.store.num_dims() * 2 * std::mem::size_of::<Value>())
    }

    fn build_timing(&self) -> BuildTiming {
        self.timing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::sample::SplitMix;
    use tsunami_core::{AggResult, Predicate};

    fn data(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix::new(seed);
        Dataset::from_columns(
            (0..d)
                .map(|_| (0..n).map(|_| rng.next_below(100_000)).collect())
                .collect(),
        )
        .unwrap()
    }

    fn workload(d: usize, n: usize, seed: u64) -> Workload {
        let mut rng = SplitMix::new(seed);
        Workload::new(
            (0..n)
                .map(|_| {
                    let dim = rng.next_below(d as u64) as usize;
                    let lo = rng.next_below(90_000);
                    Query::count(vec![Predicate::range(dim, lo, lo + 5_000).unwrap()]).unwrap()
                })
                .collect(),
        )
    }

    #[test]
    fn kdtree_matches_full_scan_oracle() {
        let ds = data(4_000, 3, 31);
        let w = workload(3, 25, 32);
        let tree = KdTree::build(&ds, &w, 64);
        for q in w.queries() {
            assert_eq!(tree.execute(q).0, q.execute_full_scan(&ds));
        }
        // Multi-dimensional query.
        let q = Query::count(vec![
            Predicate::range(0, 0, 40_000).unwrap(),
            Predicate::range(2, 20_000, 80_000).unwrap(),
        ])
        .unwrap();
        assert_eq!(tree.execute(&q).0, q.execute_full_scan(&ds));
    }

    #[test]
    fn leaves_respect_page_size_on_distinct_data() {
        let ds = data(5_000, 2, 33);
        let w = workload(2, 5, 34);
        let tree = KdTree::build(&ds, &w, 100);
        // ~5000/100 = 50 leaves minimum; allow some slack for uneven splits.
        assert!(tree.num_leaves() >= 40, "leaves: {}", tree.num_leaves());
        assert!(tree.num_nodes() > tree.num_leaves());
        assert_eq!(tree.page_size(), 100);
    }

    #[test]
    fn pruning_scans_fewer_points_than_full_scan() {
        let ds = data(20_000, 2, 35);
        let w = workload(2, 10, 36);
        let tree = KdTree::build(&ds, &w, 256);
        let q = Query::count(vec![
            Predicate::range(0, 0, 10_000).unwrap(),
            Predicate::range(1, 0, 10_000).unwrap(),
        ])
        .unwrap();
        let (res, stats) = tree.execute(&q);
        assert_eq!(res, q.execute_full_scan(&ds));
        assert!(stats.points < ds.len() / 2);
    }

    #[test]
    fn duplicate_heavy_data_does_not_loop_forever() {
        // All rows identical: the tree must terminate with a single leaf.
        let ds = Dataset::from_columns(vec![vec![7u64; 1000], vec![9u64; 1000]]).unwrap();
        let w = workload(2, 3, 37);
        let tree = KdTree::build(&ds, &w, 10);
        assert!(tree.num_leaves() >= 1);
        let q = Query::count(vec![Predicate::eq(0, 7)]).unwrap();
        assert_eq!(tree.execute(&q).0, AggResult::Count(1000));
    }

    #[test]
    fn dimension_order_puts_selective_dim_first() {
        let ds = data(2_000, 3, 38);
        // Workload highly selective on dim 2 only.
        let w = Workload::new(vec![
            Query::count(vec![Predicate::range(2, 0, 500).unwrap()]).unwrap(),
            Query::count(vec![Predicate::range(0, 0, 99_000).unwrap()]).unwrap(),
        ]);
        let order = KdTree::dimension_order(&ds, &w);
        assert_eq!(order[0], 2);
        // Unfiltered dim 1 comes last.
        assert_eq!(order[2], 1);
    }

    #[test]
    fn size_and_timing_are_reported() {
        let ds = data(1_000, 2, 39);
        let w = workload(2, 5, 40);
        let tree = KdTree::build(&ds, &w, 64);
        assert!(tree.size_bytes() > 0);
        assert!(tree.build_timing().sort_secs >= 0.0);
        assert_eq!(tree.build_timing().optimize_secs, 0.0);
        assert_eq!(tree.name(), "KdTree");
    }
}
