//! Z-order (Morton order) index baseline (§6.1, baseline 2).
//!
//! Points are ordered by their Z-value — the bit-interleaving of the
//! normalized per-dimension values — and contiguous chunks are grouped into
//! pages. Pages maintain min/max metadata per dimension, which allows queries
//! to skip irrelevant pages. Given a query, the index finds the smallest and
//! largest Z-value contained in the query rectangle and iterates through each
//! page whose Z-range overlaps it.

use std::time::Instant;

use tsunami_core::{
    BuildTiming, Dataset, MultiDimIndex, Query, ScanPlan, ScanSource, Value, Workload,
};
use tsunami_store::ColumnStore;

/// Per-page metadata: physical range, Z-value range, and per-dimension
/// bounding box.
#[derive(Debug, Clone)]
struct Page {
    start: usize,
    end: usize,
    z_min: u64,
    z_max: u64,
    bbox: Vec<(Value, Value)>,
}

/// A clustered Z-order index.
#[derive(Debug)]
pub struct ZOrderIndex {
    store: ColumnStore,
    pages: Vec<Page>,
    /// Per-dimension (min, domain width) used to normalize values.
    domains: Vec<(Value, Value)>,
    bits_per_dim: u32,
    timing: BuildTiming,
    page_size: usize,
}

/// Interleaves the low `bits` bits of each coordinate into a Morton code.
/// Dimension 0 occupies the most significant bit of each group.
pub fn morton_encode(coords: &[u64], bits: u32) -> u64 {
    let d = coords.len() as u32;
    let mut z = 0u64;
    for bit in (0..bits).rev() {
        for (i, &c) in coords.iter().enumerate() {
            z <<= 1;
            z |= (c >> bit) & 1;
            // Guard against exceeding 64 bits (caller sizes bits * d <= 64).
            let _ = i;
        }
    }
    debug_assert!(bits * d <= 64);
    z
}

/// Inverse of [`morton_encode`]: recovers the per-dimension coordinates.
pub fn morton_decode(z: u64, dims: usize, bits: u32) -> Vec<u64> {
    let mut coords = vec![0u64; dims];
    let total = bits * dims as u32;
    for pos in 0..total {
        let bit = (z >> (total - 1 - pos)) & 1;
        let dim = (pos % dims as u32) as usize;
        coords[dim] = (coords[dim] << 1) | bit;
    }
    coords
}

impl ZOrderIndex {
    /// Builds a Z-order index with the given page size. The workload argument
    /// is unused (Z-order is data-only) but kept for interface uniformity.
    pub fn build(data: &Dataset, _workload: &Workload, page_size: usize) -> Self {
        let start_t = Instant::now();
        let d = data.num_dims().max(1);
        let bits_per_dim = (64 / d as u32).clamp(1, 16);
        let domains: Vec<(Value, Value)> = (0..data.num_dims())
            .map(|dim| {
                let (lo, hi) = data.domain(dim).unwrap_or((0, 0));
                (lo, (hi - lo).max(1))
            })
            .collect();

        let page_size = page_size.max(1);
        let mut keyed: Vec<(u64, usize)> = (0..data.len())
            .map(|r| {
                let coords: Vec<u64> = (0..data.num_dims())
                    .map(|dim| normalize(data.get(r, dim), domains[dim], bits_per_dim))
                    .collect();
                (morton_encode(&coords, bits_per_dim), r)
            })
            .collect();
        keyed.sort_unstable();
        let perm: Vec<usize> = keyed.iter().map(|&(_, r)| r).collect();

        // Build pages over the sorted order.
        let mut pages = Vec::with_capacity(data.len() / page_size + 1);
        let mut i = 0usize;
        while i < keyed.len() {
            let end = (i + page_size).min(keyed.len());
            let mut bbox = vec![(Value::MAX, Value::MIN); data.num_dims()];
            for &(_, r) in &keyed[i..end] {
                for (dim, b) in bbox.iter_mut().enumerate() {
                    let v = data.get(r, dim);
                    b.0 = b.0.min(v);
                    b.1 = b.1.max(v);
                }
            }
            pages.push(Page {
                start: i,
                end,
                z_min: keyed[i].0,
                z_max: keyed[end - 1].0,
                bbox,
            });
            i = end;
        }

        let mut store = ColumnStore::from_dataset(data);
        store.permute(&perm);
        store.encode_blocks();
        Self {
            store,
            pages,
            domains,
            bits_per_dim,
            timing: BuildTiming {
                sort_secs: start_t.elapsed().as_secs_f64(),
                optimize_secs: 0.0,
            },
            page_size,
        }
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Page size the index was built with.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    fn z_of_corner(&self, corner: &[Value]) -> u64 {
        let coords: Vec<u64> = corner
            .iter()
            .enumerate()
            .map(|(dim, &v)| normalize(v, self.domains[dim], self.bits_per_dim))
            .collect();
        morton_encode(&coords, self.bits_per_dim)
    }
}

fn normalize(v: Value, (lo, width): (Value, Value), bits: u32) -> u64 {
    let clamped = v.max(lo) - lo;
    let frac = (clamped as u128).min(width as u128);
    let buckets = (1u128 << bits) - 1;
    (frac * buckets / width as u128) as u64
}

impl MultiDimIndex for ZOrderIndex {
    fn name(&self) -> &str {
        "ZOrder"
    }

    fn source(&self) -> &dyn ScanSource {
        &self.store
    }

    fn plan(&self, query: &Query) -> ScanPlan {
        let d = self.store.num_dims();
        // Z-range of the query rectangle: the Z-value of the lower corner is
        // a lower bound and of the upper corner an upper bound for the
        // Z-values of all contained points.
        let z_lo = self.z_of_corner(&query.lower_corner(d));
        let z_hi = self.z_of_corner(&query.upper_corner(d));

        let mut plan = ScanPlan::new();
        // Residual elimination: a predicate stays only if some planned
        // non-exact page's bounding box sticks out of its value range.
        let mut guaranteed = vec![true; d];
        for page in &self.pages {
            if page.z_max < z_lo || page.z_min > z_hi {
                continue;
            }
            // Per-dimension min/max pruning.
            let mut intersects = true;
            let mut contained = true;
            for p in query.predicates() {
                let (lo, hi) = page.bbox[p.dim];
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
                        let (lo, hi) = page.bbox[p.dim];
                        guaranteed[p.dim] &= p.lo <= lo && hi <= p.hi;
                    }
                }
                // Physically adjacent pages of equal exactness merge in the
                // plan automatically.
                plan.push(page.start..page.end, contained);
            }
        }
        plan.with_guaranteed_dims(query, &guaranteed)
    }

    fn size_bytes(&self) -> usize {
        self.pages.len()
            * (2 * std::mem::size_of::<usize>()
                + 2 * std::mem::size_of::<u64>()
                + self.store.num_dims() * 2 * std::mem::size_of::<Value>())
            + self.domains.len() * 2 * std::mem::size_of::<Value>()
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

    #[test]
    fn morton_encode_decode_round_trips() {
        for &(a, b) in &[(0u64, 0u64), (5, 9), (255, 0), (123, 231), (255, 255)] {
            let z = morton_encode(&[a, b], 8);
            assert_eq!(morton_decode(z, 2, 8), vec![a, b]);
        }
        // 3 dimensions.
        let z = morton_encode(&[1, 2, 3], 4);
        assert_eq!(morton_decode(z, 3, 4), vec![1, 2, 3]);
    }

    #[test]
    fn morton_order_preserves_locality_bounds() {
        // Z-value of a point inside a rectangle lies between the Z-values of
        // the rectangle's corners.
        let lo = morton_encode(&[4, 4], 8);
        let hi = morton_encode(&[7, 7], 8);
        for x in 4..=7u64 {
            for y in 4..=7u64 {
                let z = morton_encode(&[x, y], 8);
                assert!(z >= lo && z <= hi);
            }
        }
    }

    fn data(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix::new(seed);
        Dataset::from_columns(
            (0..d)
                .map(|_| (0..n).map(|_| rng.next_below(50_000)).collect())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn zorder_matches_full_scan_oracle() {
        let ds = data(5_000, 3, 41);
        let idx = ZOrderIndex::build(&ds, &Workload::default(), 128);
        let mut rng = SplitMix::new(42);
        for _ in 0..25 {
            let dim = rng.next_below(3) as usize;
            let lo = rng.next_below(45_000);
            let q = Query::count(vec![Predicate::range(dim, lo, lo + 4_000).unwrap()]).unwrap();
            assert_eq!(idx.execute(&q).0, q.execute_full_scan(&ds));
        }
        // Multi-dim query.
        let q = Query::count(vec![
            Predicate::range(0, 0, 25_000).unwrap(),
            Predicate::range(1, 10_000, 30_000).unwrap(),
        ])
        .unwrap();
        assert_eq!(idx.execute(&q).0, q.execute_full_scan(&ds));
    }

    #[test]
    fn small_rectangles_skip_most_pages() {
        let ds = data(20_000, 2, 43);
        let idx = ZOrderIndex::build(&ds, &Workload::default(), 128);
        let q = Query::count(vec![
            Predicate::range(0, 1_000, 3_000).unwrap(),
            Predicate::range(1, 1_000, 3_000).unwrap(),
        ])
        .unwrap();
        let (res, stats) = idx.execute(&q);
        assert_eq!(res, q.execute_full_scan(&ds));
        assert!(
            stats.points < ds.len() / 2,
            "scanned {} of {}",
            stats.points,
            ds.len()
        );
    }

    #[test]
    fn pages_respect_page_size() {
        let ds = data(1_000, 2, 44);
        let idx = ZOrderIndex::build(&ds, &Workload::default(), 100);
        assert_eq!(idx.num_pages(), 10);
        assert_eq!(idx.page_size(), 100);
        assert!(idx.size_bytes() > 0);
        assert_eq!(idx.name(), "ZOrder");
    }

    #[test]
    fn many_dimensions_are_supported() {
        let ds = data(1_000, 8, 45);
        let idx = ZOrderIndex::build(&ds, &Workload::default(), 64);
        let q = Query::count(vec![Predicate::range(5, 0, 25_000).unwrap()]).unwrap();
        assert_eq!(idx.execute(&q).0, q.execute_full_scan(&ds));
    }

    #[test]
    fn constant_column_does_not_break_normalization() {
        let ds = Dataset::from_columns(vec![vec![7u64; 500], (0..500u64).collect()]).unwrap();
        let idx = ZOrderIndex::build(&ds, &Workload::default(), 50);
        let q = Query::count(vec![Predicate::eq(0, 7)]).unwrap();
        assert_eq!(idx.execute(&q).0, AggResult::Count(500));
    }
}
