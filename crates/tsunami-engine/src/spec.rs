//! [`IndexSpec`]: a declarative description of which index to build over a
//! table, covering every index family in the workspace.
//!
//! The database facade builds tables from specs instead of concrete index
//! types, so callers pick an index the way they pick a storage engine —
//! `IndexSpec::tsunami()` — without importing the per-crate builder APIs.

use tsunami_baselines::{
    tune_page_size, ClusteredSingleDimIndex, FullScanIndex, HyperOctree, KdTree, ZOrderIndex,
    DEFAULT_PAGE_SIZES,
};
use tsunami_core::{CostModel, Dataset, MultiDimIndex, Result, Workload};
use tsunami_flood::{FloodConfig, FloodIndex};
use tsunami_index::{TsunamiConfig, TsunamiIndex};

/// A boxed index that can be shared across the scheduler's worker threads.
pub type SharedIndex = Box<dyn MultiDimIndex + Send + Sync>;

/// Page-size choice for the paged baselines (Z-order, octree, k-d tree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageSize {
    /// Use this exact page size.
    Fixed(usize),
    /// Tune over the default candidate grid by measuring the sample workload
    /// (the paper's §6.3 setup).
    Tuned,
    /// Tune over an explicit candidate grid.
    TunedOver(Vec<usize>),
}

impl PageSize {
    fn resolve<I, F>(&self, data: &Dataset, workload: &Workload, build: F) -> usize
    where
        I: MultiDimIndex,
        F: FnMut(&Dataset, &Workload, usize) -> I,
    {
        match self {
            PageSize::Fixed(ps) => *ps,
            PageSize::Tuned => {
                tune_page_size(data, workload, DEFAULT_PAGE_SIZES, build).best_page_size
            }
            PageSize::TunedOver(candidates) => {
                tune_page_size(data, workload, candidates, build).best_page_size
            }
        }
    }
}

/// Which index to build over a table's data, with its build configuration.
#[derive(Debug, Clone)]
pub enum IndexSpec {
    /// The paper's learned index (Grid Tree + Augmented Grids).
    Tsunami(TsunamiConfig),
    /// The Flood baseline (uniform learned grid).
    Flood(FloodConfig),
    /// Trivial full-scan baseline.
    FullScan,
    /// Points clustered by the workload's most selective dimension.
    SingleDim,
    /// Morton-order pages with min/max skipping.
    ZOrder(PageSize),
    /// Recursive equal subdivision into hyperoctants.
    Octree(PageSize),
    /// Median-split k-d tree.
    KdTree(PageSize),
}

impl IndexSpec {
    /// Tsunami with its default configuration.
    pub fn tsunami() -> Self {
        IndexSpec::Tsunami(TsunamiConfig::default())
    }

    /// Flood with its default configuration.
    pub fn flood() -> Self {
        IndexSpec::Flood(FloodConfig::default())
    }

    /// All seven index families with default configurations and tuned page
    /// sizes, in the order the paper's figures list them.
    pub fn all() -> Vec<IndexSpec> {
        vec![
            IndexSpec::tsunami(),
            IndexSpec::flood(),
            IndexSpec::SingleDim,
            IndexSpec::ZOrder(PageSize::Tuned),
            IndexSpec::Octree(PageSize::Tuned),
            IndexSpec::KdTree(PageSize::Tuned),
            IndexSpec::FullScan,
        ]
    }

    /// All seven families with reduced build effort and small fixed page
    /// sizes — the configuration the fast integration tests share.
    pub fn all_fast() -> Vec<IndexSpec> {
        vec![
            IndexSpec::Tsunami(TsunamiConfig::fast()),
            IndexSpec::Flood(FloodConfig::fast()),
            IndexSpec::SingleDim,
            IndexSpec::ZOrder(PageSize::Fixed(256)),
            IndexSpec::Octree(PageSize::Fixed(256)),
            IndexSpec::KdTree(PageSize::Fixed(256)),
            IndexSpec::FullScan,
        ]
    }

    /// Short stable label for the spec (matches the built index's
    /// [`MultiDimIndex::name`] for the default configurations).
    pub fn label(&self) -> &'static str {
        match self {
            IndexSpec::Tsunami(_) => "Tsunami",
            IndexSpec::Flood(_) => "Flood",
            IndexSpec::FullScan => "FullScan",
            IndexSpec::SingleDim => "SingleDim",
            IndexSpec::ZOrder(_) => "ZOrder",
            IndexSpec::Octree(_) => "HyperOctree",
            IndexSpec::KdTree(_) => "KdTree",
        }
    }

    /// Builds the described index over a dataset, optimizing for the sample
    /// workload where the family supports it.
    pub fn build(
        &self,
        data: &Dataset,
        workload: &Workload,
        cost: &CostModel,
    ) -> Result<SharedIndex> {
        Ok(match self {
            IndexSpec::Tsunami(config) => {
                Box::new(TsunamiIndex::build_with_cost(data, workload, cost, config)?)
            }
            IndexSpec::Flood(config) => Box::new(FloodIndex::build(data, workload, cost, config)),
            IndexSpec::FullScan => Box::new(FullScanIndex::build(data)),
            IndexSpec::SingleDim => Box::new(ClusteredSingleDimIndex::build(data, workload)),
            IndexSpec::ZOrder(page_size) => {
                let ps = page_size.resolve(data, workload, ZOrderIndex::build);
                Box::new(ZOrderIndex::build(data, workload, ps))
            }
            IndexSpec::Octree(page_size) => {
                let ps = page_size.resolve(data, workload, HyperOctree::build);
                Box::new(HyperOctree::build(data, workload, ps))
            }
            IndexSpec::KdTree(page_size) => {
                let ps = page_size.resolve(data, workload, KdTree::build);
                Box::new(KdTree::build(data, workload, ps))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::{Predicate, Query};

    fn small() -> (Dataset, Workload) {
        let data = Dataset::from_columns(vec![
            (0..2_000u64).collect(),
            (0..2_000u64).map(|v| v * 3 % 1_000).collect(),
        ])
        .unwrap();
        let workload = Workload::new(
            (0..8u64)
                .map(|i| {
                    Query::count(vec![Predicate::range(0, i * 100, i * 100 + 250).unwrap()])
                        .unwrap()
                })
                .collect(),
        );
        (data, workload)
    }

    #[test]
    fn every_spec_builds_and_agrees_with_the_oracle() {
        let (data, workload) = small();
        let cost = CostModel::default();
        let mut specs = IndexSpec::all_fast();
        // Cover the tuned-page-size path on one family.
        specs[4] = IndexSpec::Octree(PageSize::TunedOver(vec![256, 1024]));
        assert_eq!(specs.len(), 7);
        for spec in &specs {
            let index = spec.build(&data, &workload, &cost).unwrap();
            for q in workload.queries().iter().step_by(3) {
                assert_eq!(
                    index.execute(q).0,
                    q.execute_full_scan(&data),
                    "{} disagrees on {q:?}",
                    spec.label()
                );
            }
        }
    }

    #[test]
    fn labels_are_unique_and_cover_all_seven_families() {
        let labels: Vec<&str> = IndexSpec::all().iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Tsunami",
                "Flood",
                "SingleDim",
                "ZOrder",
                "HyperOctree",
                "KdTree",
                "FullScan"
            ]
        );
    }
}
