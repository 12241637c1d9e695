//! The shared scan-execution engine: every index answers queries by emitting
//! a [`ScanPlan`] that one tiered, vectorized executor runs.
//!
//! # The ScanPlan / executor contract
//!
//! Tsunami's core performance claim (§6.1 of the paper) is that *every* query
//! — against the learned indexes and the traditional baselines alike — boils
//! down to scanning an ordered list of contiguous physical row ranges, where
//! some ranges are known *exact* (every row in them is guaranteed to match
//! the query filter, so per-value predicate checks are skipped). Before this
//! module existed, each index hand-rolled its own accumulator loop over those
//! ranges; now an index only implements
//! [`MultiDimIndex::plan`](crate::MultiDimIndex::plan), producing:
//!
//! * `ranges` — the contiguous physical ranges to visit, in scan order, each
//!   tagged with its exactness flag. [`ScanPlan::push`] transparently merges
//!   physically adjacent ranges of equal exactness, so indexes never pay for
//!   an extra range jump they did not need.
//! * `residual` — optionally, the subset of the query's predicates that still
//!   has to be checked inside non-exact ranges. An index that guarantees some
//!   predicate by construction — a clustered single-dimension index whose
//!   binary search already bounds the sort dimension, or a grid/tree index
//!   whose visited cell bounds all lie inside the predicate's range — lists
//!   only the remaining predicates and the executor skips re-checking the
//!   guaranteed ones. When absent, all of the query's predicates are checked.
//!
//! Plans are clamped to the source **once**, at executor entry
//! ([`ScanPlan::clamped`]); the scan kernels then assume in-bounds ranges and
//! never re-clamp per range or per piece.
//!
//! # Kernel tiers
//!
//! The executor evaluates non-exact ranges with columnar, blockwise kernels:
//! predicates are applied one column at a time over fixed-size row blocks
//! ([`BLOCK_ROWS`]), and only the selected rows are fed to the aggregation —
//! touching just the filtered columns plus (at most) the aggregation input
//! column, exactly what the paper's cost model prices. *How* a block's
//! selection is represented and materialized is a [`KernelTier`]:
//!
//! * [`KernelTier::Scalar`] — the reference row-at-a-time branchy loop
//!   (`if matches { keep }`). Kept as the in-tree oracle the other tiers are
//!   differentially tested against, and as the baseline the `fig12kern`
//!   microbenchmark measures speedups over.
//! * [`KernelTier::Vector`] — branchless selection-vector kernels: match
//!   masks are computed with arithmetic compares, rows are materialized with
//!   unconditional stores and a mask-advanced cursor. No data-dependent
//!   branches, so selectivity near 50% costs no misprediction penalty.
//! * [`KernelTier::Bitmap`] — a word-packed selection bitmap (1 bit/row):
//!   8-lane unrolled compare groups build `u64` mask words, further
//!   predicates `AND` into them, and aggregation is mask-native (popcount for
//!   `COUNT`, masked folds with a fully-set-word fast path for
//!   `SUM`/`MIN`/`MAX`). Cheapest when selections are dense.
//! * [`KernelTier::Adaptive`] — the default: per block, picks the cheapest
//!   representation from the selectivity observed so far in this execution.
//!   Very sparse selections (&lt;1/16 matched) drop back to the scalar loop,
//!   whose almost-never-taken branch predicts perfectly and skips all
//!   materialization work; dense ones (≥1/2 matched, ≥3/4 with multiple
//!   predicates since bitmap refinement re-touches whole blocks) engage the
//!   bitmap; the mid band — where the scalar branch mispredicts hardest —
//!   takes the branchless selection vector.
//!
//! Every tier computes the same selection for the same block, so results
//! **and** [`ScanCounters`] are tier-invariant: `ranges`/`points` depend only
//! on the plan, and `matched` is the selection's cardinality, which no
//! representation changes. The differential suites assert bit-identical
//! results across all tiers, serial and parallel.
//!
//! Exact ranges skip selection entirely regardless of tier: `COUNT` never
//! touches data, `SUM`/`AVG` reduce the input column directly, and
//! `MIN`/`MAX` fall back to a tight fold over the input column (they need
//! per-value inspection even when the range is exact).
//!
//! Execution is counter-transparent: the executor returns the
//! [`ScanCounters`] (ranges/points/matched) accumulated *by that call*,
//! threaded through the kernels rather than stored in shared mutable state,
//! so concurrent queries against one source can never corrupt each other's
//! statistics.
//!
//! # Entry points
//!
//! Every read in the workspace runs through one of two functions:
//!
//! * [`execute_plan`] — the serial loop with the default
//!   [`KernelTier::Adaptive`] kernels, returning the finished [`AggResult`].
//!   Every engine read (`Table::execute`, `MultiDimIndex::execute`) takes
//!   this path; it never touches a pool.
//! * [`fold_plan`] — the same plan folded into an unfinished
//!   [`AggAccumulator`] with an explicit tier, pool, thread count and morsel
//!   size. The engine scheduler's completion slots and materialized views
//!   hold this partial state, and the sharded gather merges it across shards
//!   with [`AggAccumulator::merge`]; benchmarks and differential tests use
//!   it to pin a tier or a pool.
//!
//! # Parallel execution: morsels on one persistent pool
//!
//! With `threads > 1`, [`fold_plan`] runs the plan across a work-stealing
//! pool ([`pool`]; std-only — the container has no rayon). The plan's
//! ranges are decomposed into fixed-size cache-resident **morsels**
//! (~[`pool::DEFAULT_MORSEL_ROWS`] rows, tunable via `TSUNAMI_MORSEL_ROWS`)
//! which the participating workers claim from a shared cursor; each worker
//! keeps a private [`AggAccumulator`] and [`ScanCounters`], merged once at
//! the end. Results and counters are bit-identical to the serial executor —
//! aggregation merging is commutative and associative, and morsels carved
//! from one plan range count as a single scanned range — regardless of which
//! worker runs which morsel in which order. Per-worker [`BlockScratch`]
//! lives in thread-local storage (reused across queries on pool workers),
//! and each worker keeps its own adaptive-density estimate; the estimate
//! only steers representation choice, never results.
//!
//! Data access is abstracted behind [`ScanSource`] (rows of `u64` columns),
//! implemented by both the logical [`Dataset`] and the
//! physical `ColumnStore` in `tsunami-store`. Sources must be `Sync`: scans
//! never mutate them.
//!
//! # Encoded columns
//!
//! A source may hand out columns as [`ColumnData::Encoded`]: a prefix of
//! per-block encoded payloads (frame-of-reference bit-packing or dictionary
//! codes, see [`crate::encode`]) aligned to the absolute [`BLOCK_ROWS`]
//! grid, plus a plain unencoded tail that ingest appends to. The scan loop
//! chunks on that grid, so each chunk sees exactly one representation:
//!
//! * the **scalar** tier reads rows one at a time through the per-row
//!   accessor and uses **no** block metadata — it stays the oracle that
//!   catches unsound pruning;
//! * the branchless tiers take one shared **packed** path: per predicate
//!   the block's metadata first classifies the test (skip-before-decode on
//!   live min/max, drop-the-predicate when every live row passes), and
//!   surviving range tests run as SWAR compares directly on the packed
//!   words — 8/4/2 rows per ALU op — with dedicated no-bitmap fast paths
//!   for single-predicate `COUNT` and layout-matched `SUM`/`AVG`.
//!
//! Tombstone liveness is ANDed into every selection exactly as on plain
//! columns (block live bounds are computed at encode time and remain sound
//! because deletes only accrue; physical mutation re-encodes), so results
//! and counters stay bit-identical across tiers, serial and parallel, for
//! any mix of encoded, plain, and tombstoned blocks.

pub mod kernels;
pub mod pool;

use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::dataset::{Dataset, Value};
use crate::encode::{BlockData, BlockTest, EncodedBlock, PackClass};
use crate::query::{AggAccumulator, AggResult, Aggregation, Predicate, Query};
use crate::tombstone::TombstoneSet;

pub use kernels::BlockScratch;

/// Benchmark-only window into [`kernels::packed_count`] (see
/// `examples/packbench.rs`); not part of the public API contract.
#[doc(hidden)]
pub fn packed_count_for_bench(
    eb: &crate::encode::EncodedBlock,
    offset: usize,
    n: usize,
    lo: u64,
    hi: Option<u64>,
) -> usize {
    let (packed, class) = packed_payload(eb);
    kernels::packed_count(packed, class, offset, n, lo, hi)
}

/// Benchmark-only window into [`kernels::packed_sum_same_layout`]; not part
/// of the public API contract.
#[doc(hidden)]
pub fn packed_sum_for_bench(
    eb: &crate::encode::EncodedBlock,
    agg: &crate::encode::EncodedBlock,
    offset: usize,
    n: usize,
    lo: u64,
    hi: Option<u64>,
) -> (u64, u128) {
    let (packed, class) = packed_payload(eb);
    let (agg_packed, agg_class) = packed_payload(agg);
    assert_eq!(class, agg_class);
    kernels::packed_sum_same_layout(packed, agg_packed, class, offset, n, lo, hi)
}
pub use pool::{PoolConfig, WorkStealingPool, DEFAULT_MORSEL_ROWS};

/// Number of rows per vectorized block. Chosen so one block of one column
/// (8 KiB) plus the selection vector stays comfortably inside L1.
pub const BLOCK_ROWS: usize = 1024;

/// End of the absolute-grid block containing `start`, clamped to `limit`.
/// The executor chunks scans on this grid so one chunk never straddles two
/// encoded blocks (encoded block `b` always covers rows
/// `b * BLOCK_ROWS .. (b + 1) * BLOCK_ROWS`).
#[inline(always)]
fn grid_block_end(start: usize, limit: usize) -> usize {
    ((start / BLOCK_ROWS + 1) * BLOCK_ROWS).min(limit)
}

/// Which block-kernel implementation the executor uses for non-exact ranges.
/// See the module docs for the full contract; all tiers are bit-identical in
/// results and counters, they differ only in speed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KernelTier {
    /// Reference branchy row-at-a-time loop (the in-tree oracle).
    Scalar,
    /// Branchless selection-vector kernels.
    Vector,
    /// Branchless word-packed selection-bitmap kernels.
    Bitmap,
    /// Per-block Scalar/Vector/Bitmap choice driven by observed selectivity.
    #[default]
    Adaptive,
}

impl KernelTier {
    /// Every tier, scalar oracle first (benchmark / differential-sweep
    /// order).
    pub const ALL: [KernelTier; 4] = [
        KernelTier::Scalar,
        KernelTier::Vector,
        KernelTier::Bitmap,
        KernelTier::Adaptive,
    ];

    /// Short lowercase label used in benchmark tables and `BENCH_scan.json`.
    pub fn label(&self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Vector => "vector",
            KernelTier::Bitmap => "bitmap",
            KernelTier::Adaptive => "adaptive",
        }
    }
}

/// One column's physical representation as seen by the executor.
///
/// Plain sources hand out contiguous slices; stores with per-block
/// encodings hand out their grid-aligned encoded prefix plus the plain
/// ingest tail. The executor's block loop is aligned to the absolute
/// [`BLOCK_ROWS`] grid, so one processed chunk never straddles two encoded
/// blocks (or an encoded block and the tail).
#[derive(Debug, Clone, Copy)]
pub enum ColumnData<'a> {
    /// Every row as one contiguous plain slice.
    Plain(&'a [Value]),
    /// Encoded blocks covering rows `0 .. blocks.len() * BLOCK_ROWS`
    /// (block `b` holds rows `b * BLOCK_ROWS ..`), then `tail` holds the
    /// remaining (unencoded) rows.
    Encoded {
        blocks: &'a [EncodedBlock],
        tail: &'a [Value],
    },
}

impl<'a> ColumnData<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Plain(s) => s.len(),
            ColumnData::Encoded { blocks, tail } => blocks.len() * BLOCK_ROWS + tail.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether every row is plain (no encoded blocks).
    pub fn is_plain(&self) -> bool {
        matches!(self, ColumnData::Plain(_))
            || matches!(self, ColumnData::Encoded { blocks, .. } if blocks.is_empty())
    }

    /// The encoded block covering `row`, if any.
    #[inline(always)]
    fn block_at(&self, row: usize) -> Option<&'a EncodedBlock> {
        match self {
            ColumnData::Plain(_) => None,
            ColumnData::Encoded { blocks, .. } => blocks.get(row / BLOCK_ROWS),
        }
    }

    /// One row's value, whatever the physical representation (the scalar
    /// oracle's accessor — data only, never block metadata).
    #[inline(always)]
    fn value_at(&self, row: usize) -> Value {
        match self {
            ColumnData::Plain(s) => s[row],
            ColumnData::Encoded { blocks, tail } => match blocks.get(row / BLOCK_ROWS) {
                Some(eb) => eb.value_at(row % BLOCK_ROWS),
                None => tail[row - blocks.len() * BLOCK_ROWS],
            },
        }
    }

    /// Plain view of rows `start..end`; rows must not be encoded.
    #[inline(always)]
    fn slice(&self, start: usize, end: usize) -> &'a [Value] {
        match self {
            ColumnData::Plain(s) => &s[start..end],
            ColumnData::Encoded { blocks, tail } => {
                let covered = blocks.len() * BLOCK_ROWS;
                debug_assert!(start >= covered, "sliced rows must be plain");
                &tail[start - covered..end - covered]
            }
        }
    }
}

/// Read-only columnar data that scan plans execute against.
///
/// `Sync` is a supertrait on purpose: executing a plan never mutates the
/// source, and the parallel executor shares one source across threads.
pub trait ScanSource: Sync {
    /// Number of rows.
    fn num_rows(&self) -> usize;
    /// Number of columns (dimensions).
    fn num_dims(&self) -> usize;
    /// One column's physical representation. Plain sources wrap their value
    /// slice in [`ColumnData::Plain`]; encoding stores expose their encoded
    /// prefix and plain tail, and the executor evaluates predicates directly
    /// on the packed data.
    fn column_data(&self, dim: usize) -> ColumnData<'_>;
    /// The source's deletion bitmap, if it supports tombstone deletes.
    /// Sources that return one with [`TombstoneSet::any`] get liveness
    /// ANDed into every selection — in all kernel tiers and on the dense
    /// exact-range path — so tombstoned rows never reach an aggregate.
    /// [`ScanCounters::matched`] counts live matches only; `ranges` and
    /// `points` still describe the plan's physical visit.
    fn tombstones(&self) -> Option<&TombstoneSet> {
        None
    }
}

impl ScanSource for Dataset {
    fn num_rows(&self) -> usize {
        self.len()
    }
    fn num_dims(&self) -> usize {
        self.num_dims()
    }
    fn column_data(&self, dim: usize) -> ColumnData<'_> {
        ColumnData::Plain(self.column(dim))
    }
}

/// One contiguous physical row range of a scan plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRange {
    /// The physical rows to visit.
    pub range: Range<usize>,
    /// Whether every row in `range` is guaranteed to match the query filter,
    /// enabling the §6.1 exact-range optimization.
    pub exact: bool,
}

/// A pre-folded aggregate contribution attached to a plan instead of a
/// physical range: `rows` live rows whose SUM/MIN/MAX over the aggregation's
/// input dimension are already known (e.g. from a per-region aggregate cube).
/// The executor folds a partial into the accumulator with one
/// [`AggAccumulator::add_block`] call and never touches the underlying rows.
/// Only sound when every contributing row is guaranteed to match the query —
/// the same contract as an exact range, minus the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanPartial {
    /// Number of live rows pre-folded into this partial.
    pub rows: u64,
    /// Exact sum of the aggregation's input dimension over those rows.
    pub sum: u128,
    /// Minimum of the input dimension over those rows (None iff `rows == 0`).
    pub min: Option<Value>,
    /// Maximum of the input dimension over those rows (None iff `rows == 0`).
    pub max: Option<Value>,
}

/// The ordered list of contiguous physical ranges an index wants scanned for
/// one query, plus optional residual predicates and pre-folded aggregate
/// partials. See the module docs for the full contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanPlan {
    ranges: Vec<ScanRange>,
    residual: Option<Vec<Predicate>>,
    partials: Vec<PlanPartial>,
}

impl ScanPlan {
    /// An empty plan (matches nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// The trivial full-scan plan over `len` rows.
    pub fn full(len: usize) -> Self {
        let mut plan = Self::new();
        plan.push(0..len, false);
        plan
    }

    /// Builds a plan from `(range, exact)` pairs, merging adjacent ranges.
    pub fn from_ranges<I: IntoIterator<Item = (Range<usize>, bool)>>(ranges: I) -> Self {
        let mut plan = Self::new();
        for (r, exact) in ranges {
            plan.push(r, exact);
        }
        plan
    }

    /// Appends a range. Empty ranges are dropped; a range physically adjacent
    /// to the previous one with the same exactness is merged into it, so the
    /// executor sees maximal contiguous runs.
    pub fn push(&mut self, range: Range<usize>, exact: bool) {
        if range.start >= range.end {
            return;
        }
        if let Some(last) = self.ranges.last_mut() {
            if last.range.end == range.start && last.exact == exact {
                last.range.end = range.end;
                return;
            }
        }
        self.ranges.push(ScanRange { range, exact });
    }

    /// Declares the predicates still to be checked inside non-exact ranges;
    /// the executor then skips the query predicates not listed. Only sound
    /// when the index guarantees the omitted predicates hold on every planned
    /// range.
    pub fn with_residual(mut self, residual: Vec<Predicate>) -> Self {
        self.residual = Some(residual);
        self
    }

    /// Attaches residual predicates derived from per-dimension guarantee
    /// flags: the query predicates whose dimension is *not* guaranteed (or
    /// lies beyond the flag slice — conservatively kept) become the
    /// residual. A no-op when nothing can be dropped, so planners can call
    /// this unconditionally. This is the one shared implementation of the
    /// guarantee → residual rule; see [`ScanPlan::with_residual`] for the
    /// soundness contract.
    pub fn with_guaranteed_dims(self, query: &Query, guaranteed: &[bool]) -> ScanPlan {
        let residual: Vec<Predicate> = query
            .predicates()
            .iter()
            .filter(|p| !guaranteed.get(p.dim).copied().unwrap_or(false))
            .copied()
            .collect();
        if residual.len() < query.predicates().len() {
            self.with_residual(residual)
        } else {
            self
        }
    }

    /// Attaches a pre-folded aggregate partial. Zero-row partials are
    /// dropped — they contribute nothing and would break the
    /// `min/max == None iff rows == 0` invariant downstream.
    pub fn push_partial(&mut self, partial: PlanPartial) {
        if partial.rows > 0 {
            self.partials.push(partial);
        }
    }

    /// The pre-folded aggregate partials attached to this plan.
    pub fn partials(&self) -> &[PlanPartial] {
        &self.partials
    }

    /// The planned ranges in scan order.
    pub fn ranges(&self) -> &[ScanRange] {
        &self.ranges
    }

    /// The residual predicates for non-exact ranges: the explicitly declared
    /// set, or all of the query's predicates.
    pub fn residual<'a>(&'a self, query: &'a Query) -> &'a [Predicate] {
        match &self.residual {
            Some(r) => r,
            None => query.predicates(),
        }
    }

    /// Number of planned ranges.
    pub fn num_ranges(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the plan scans nothing.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total number of rows the plan visits.
    pub fn total_points(&self) -> usize {
        self.ranges.iter().map(|r| r.range.len()).sum()
    }

    /// The plan with every range clamped to a source of `num_rows` rows
    /// (empty ranges dropped). Borrows when already in bounds — the common
    /// case, since planners derive ranges from the source itself — so the
    /// executors pay one `O(ranges)` check instead of re-clamping every range
    /// (twice, in the parallel executor) per execution.
    pub fn clamped(&self, num_rows: usize) -> Cow<'_, ScanPlan> {
        if self.ranges.iter().all(|r| r.range.end <= num_rows) {
            return Cow::Borrowed(self);
        }
        let mut clamped = ScanPlan {
            ranges: Vec::with_capacity(self.ranges.len()),
            residual: self.residual.clone(),
            partials: self.partials.clone(),
        };
        for r in &self.ranges {
            clamped.push(
                r.range.start.min(num_rows)..r.range.end.min(num_rows),
                r.exact,
            );
        }
        Cow::Owned(clamped)
    }
}

/// Counters accumulated while executing one plan.
///
/// These mirror the features of the paper's cost model (§5.3.1): the number
/// of contiguous physical ranges visited and the number of points scanned.
/// They are returned by value from the executor — never stored in the source
/// — so concurrent executions cannot double-account each other's work. All
/// kernel tiers report identical counters (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounters {
    /// Number of contiguous ranges scanned.
    pub ranges: usize,
    /// Number of points visited (whether or not they matched).
    pub points: usize,
    /// Number of points that matched every predicate. Includes rows answered
    /// from pre-folded partials: they matched, they just were not visited.
    pub matched: usize,
    /// Number of [`PlanPartial`]s folded in without scanning.
    pub partial_regions: usize,
    /// Number of matched rows answered from partials instead of a scan —
    /// always `<= matched`, and excluded from `points`.
    pub rows_prefolded: usize,
}

impl ScanCounters {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &ScanCounters) {
        self.ranges += other.ranges;
        self.points += other.points;
        self.matched += other.matched;
        self.partial_regions += other.partial_regions;
        self.rows_prefolded += other.rows_prefolded;
    }
}

/// Folds a plan's pre-folded partials into the accumulator and counters.
/// Every executor calls this exactly once per execution (the parallel
/// executors only on their non-delegating paths), after the range scans, so
/// results and counters stay bit-identical across executors: the fold is one
/// commutative `add_block` per partial.
fn apply_partials(plan: &ScanPlan, acc: &mut AggAccumulator, counters: &mut ScanCounters) {
    for p in plan.partials() {
        acc.add_block(p.rows, p.sum, p.min, p.max);
        counters.partial_regions += 1;
        counters.rows_prefolded += p.rows as usize;
        counters.matched += p.rows as usize;
    }
}

/// Executes a plan serially with the default [`KernelTier::Adaptive`]
/// kernels.
///
/// Returns the aggregation result together with the counters for exactly
/// this execution. This is the loop every engine read runs: it never touches
/// a pool and allocates one [`BlockScratch`] per call.
pub fn execute_plan(
    source: &dyn ScanSource,
    query: &Query,
    plan: &ScanPlan,
) -> (AggResult, ScanCounters) {
    let (acc, counters) = fold_serial(source, query, plan, KernelTier::default());
    (acc.finish(), counters)
}

/// The serial range loop behind [`execute_plan`] (and behind [`fold_plan`]
/// whenever a plan is not worth splitting), returning the unfinished
/// accumulator.
fn fold_serial(
    source: &dyn ScanSource,
    query: &Query,
    plan: &ScanPlan,
    tier: KernelTier,
) -> (AggAccumulator, ScanCounters) {
    let plan = plan.clamped(source.num_rows());
    let resolved = ResolvedQuery::new(source, plan.residual(query), query.aggregation());
    let mut acc = AggAccumulator::new(query.aggregation());
    let mut counters = ScanCounters::default();
    let mut density = Density::default();
    let mut scratch = BlockScratch::new();
    for sr in plan.ranges() {
        resolved.scan_range(
            sr.range.clone(),
            sr.exact,
            true,
            tier,
            &mut density,
            &mut acc,
            &mut counters,
            &mut scratch,
        );
    }
    apply_partials(&plan, &mut acc, &mut counters);
    (acc, counters)
}

thread_local! {
    /// Per-worker reusable [`BlockScratch`]: pool workers run many morsels
    /// over their lifetime, so the selection vector and bitmap words are
    /// allocated once per thread instead of per claimed morsel. The serial
    /// executor deliberately does NOT use this: funneling its range loop
    /// through the `with` closure costs measurable vectorization on
    /// near-empty scans (see `BENCH_scan.json` sel=0% entries), and one
    /// scratch allocation per query is below timer noise there.
    static THREAD_SCRATCH: RefCell<BlockScratch> = RefCell::new(BlockScratch::new());
}

/// Runs `f` with this thread's reusable scratch. Scan kernels never nest,
/// but if a caller ever re-enters (e.g. an aggregation callback running a
/// scan), fall back to a fresh scratch rather than panicking on the borrow.
fn with_thread_scratch<R>(f: impl FnOnce(&mut BlockScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut BlockScratch::new()),
    })
}

/// Splits a plan's ranges into morsel work units of
/// `(range, exact, counts_as_new_range)`. Only the first morsel carved from
/// a plan range increments the range counter, keeping [`ScanCounters`]
/// identical to the serial executor.
fn split_morsels(plan: &ScanPlan, morsel_rows: usize) -> Vec<(Range<usize>, bool, bool)> {
    let mut units = Vec::new();
    for sr in plan.ranges() {
        let mut start = sr.range.start;
        let mut first = true;
        while start < sr.range.end {
            let end = (start + morsel_rows).min(sr.range.end);
            units.push((start..end, sr.exact, first));
            first = false;
            start = end;
        }
    }
    units
}

/// Folds a plan into an unfinished [`AggAccumulator`] with an explicit
/// kernel tier, on up to `threads` participants of `pool`, splitting the
/// plan into morsels of about `morsel_rows` rows.
///
/// The engine scheduler's completion slots and materialized views hold this
/// partial state, and the sharded gather merges it across shards with
/// [`AggAccumulator::merge`]. [`AggAccumulator::finish`] turns it into the
/// same [`AggResult`] [`execute_plan`] returns.
///
/// With `threads <= 1`, or a plan under four [`BLOCK_ROWS`] blocks, this is
/// the serial loop of [`execute_plan`] and `pool` is not touched. Otherwise
/// the plan is decomposed into cache-resident morsels (clamped to at least
/// one block; shrunk below `morsel_rows` only when the plan is too small to
/// give every participant a morsel). Up to `threads - 1` pool workers join
/// the calling thread; every participant claims morsels from a shared
/// cursor and folds them into a private accumulator and [`ScanCounters`]
/// with thread-local [`BlockScratch`], merged once at the end. Merging is
/// commutative and associative, so results and counters are bit-identical
/// to the serial loop for any tier, worker count, morsel size and
/// completion order.
pub fn fold_plan(
    source: &dyn ScanSource,
    query: &Query,
    plan: &ScanPlan,
    tier: KernelTier,
    pool: &WorkStealingPool,
    threads: usize,
    morsel_rows: usize,
) -> (AggAccumulator, ScanCounters) {
    let threads = threads.max(1);
    let plan = plan.clamped(source.num_rows());
    let plan = plan.as_ref();
    let total = plan.total_points();
    // Parallelism only pays off once there is real work to split.
    if threads == 1 || total < 4 * BLOCK_ROWS {
        return fold_serial(source, query, plan, tier);
    }
    // Cache-resident fixed-size morsels; for plans smaller than
    // threads × morsel_rows, shrink so every participant gets work.
    let configured = morsel_rows.max(BLOCK_ROWS);
    let morsel = configured.min((total / threads).max(BLOCK_ROWS));
    let units = split_morsels(plan, morsel);
    let helpers = threads
        .min(units.len())
        .saturating_sub(1)
        .min(pool.worker_count());
    if helpers == 0 {
        return fold_serial(source, query, plan, tier);
    }

    let agg = query.aggregation();
    let resolved = ResolvedQuery::new(source, plan.residual(query), agg);
    let cursor = AtomicUsize::new(0);
    let merged: Mutex<(AggAccumulator, ScanCounters)> =
        Mutex::new((AggAccumulator::new(agg), ScanCounters::default()));
    pool.join_helpers(helpers, &|| {
        let mut acc = AggAccumulator::new(agg);
        let mut counters = ScanCounters::default();
        let mut density = Density::default();
        with_thread_scratch(|scratch| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some((range, exact, count_range)) = units.get(i).cloned() else {
                break;
            };
            resolved.scan_range(
                range,
                exact,
                count_range,
                tier,
                &mut density,
                &mut acc,
                &mut counters,
                scratch,
            );
        });
        let mut m = merged.lock().unwrap();
        m.0.merge(&acc);
        m.1.merge(&counters);
    });
    let (mut acc, mut counters) = merged.into_inner().unwrap();
    apply_partials(plan, &mut acc, &mut counters);
    (acc, counters)
}

/// The block representation the adaptive tier settles on for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockRepr {
    Scalar,
    Vector,
    Bitmap,
}

/// Running selectivity estimate for the adaptive tier: cumulative filtered
/// points and matches observed so far in one execution (per worker thread in
/// the parallel executor). Only steers the per-block representation choice —
/// results and counters never depend on it.
#[derive(Debug, Clone, Copy, Default)]
struct Density {
    points: usize,
    matched: usize,
}

impl Density {
    /// Picks the cheapest representation for the next block from the
    /// selectivity observed so far:
    ///
    /// * under 1/16 matched — the scalar loop: its almost-never-taken branch
    ///   predicts perfectly and skips all selection-materialization work, so
    ///   sparse scans never pay branchless overhead;
    /// * at least 1/2 matched (3/4 with multiple predicates, whose bitmap
    ///   refinement re-touches whole blocks) — the bitmap: mask words +
    ///   popcount/masked folds amortize best on dense selections;
    /// * in between — the branchless selection vector: mid selectivities are
    ///   exactly where the scalar loop's branch mispredicts.
    ///
    /// The first block (no observations yet) is the **scalar probe**: on
    /// sparse scans the scalar loop is already optimal *and* never touches
    /// the selection buffers (a vector probe unconditionally stores a full
    /// block of indexes — on a near-empty scan that cold-buffer traffic was
    /// the whole cost, which is how adaptive lost to scalar on sparse SUMs
    /// in `BENCH_scan.json`), while on dense scans one scalar block is
    /// amortized away by every later block choosing from real observations.
    fn choose(&self, num_preds: usize) -> BlockRepr {
        if self.points == 0 {
            return BlockRepr::Scalar;
        }
        if self.matched * 16 < self.points {
            BlockRepr::Scalar
        } else if (num_preds == 1 && self.matched * 2 >= self.points)
            || (num_preds > 1 && self.matched * 4 >= self.points * 3)
        {
            BlockRepr::Bitmap
        } else {
            BlockRepr::Vector
        }
    }

    fn observe(&mut self, points: usize, matched: usize) {
        self.points += points;
        self.matched += matched;
    }
}

/// A query resolved against one source: predicate and aggregation columns
/// looked up once, so scanning many ranges (or many split pieces, in the
/// parallel executor) pays no per-range column resolution or allocation.
struct ResolvedQuery<'a> {
    /// `(column, predicate)` pairs for the residual predicates.
    preds: Vec<(ColumnData<'a>, Predicate)>,
    agg: Aggregation,
    agg_col: Option<ColumnData<'a>>,
    num_rows: usize,
    /// The source's deletion bitmap, captured only when it actually holds
    /// tombstones, so delete-free tables keep the zero-cost fast paths.
    live: Option<&'a TombstoneSet>,
    /// Whether every resolved column is one plain contiguous slice — the
    /// common case, which keeps the original tight slice kernels with zero
    /// per-block representation dispatch.
    all_plain: bool,
}

impl<'a> ResolvedQuery<'a> {
    fn new(source: &'a dyn ScanSource, residual: &[Predicate], agg: Aggregation) -> Self {
        let preds: Vec<(ColumnData<'a>, Predicate)> = residual
            .iter()
            .map(|&p| (source.column_data(p.dim), p))
            .collect();
        let agg_col = agg.input_dim().map(|d| source.column_data(d));
        let all_plain = preds.iter().all(|(c, _)| c.is_plain())
            && agg_col.as_ref().is_none_or(|c| c.is_plain());
        Self {
            preds,
            agg,
            agg_col,
            num_rows: source.num_rows(),
            live: source.tombstones().filter(|t| t.any()),
            all_plain,
        }
    }

    /// Whether any resolved column stores the rows at `row`'s block encoded.
    #[inline(always)]
    fn chunk_encoded(&self, row: usize) -> bool {
        self.preds.iter().any(|(c, _)| c.block_at(row).is_some())
            || self
                .agg_col
                .as_ref()
                .is_some_and(|c| c.block_at(row).is_some())
    }

    /// Whether physical row `row` survives the deletion bitmap.
    #[inline(always)]
    fn alive(&self, row: usize) -> bool {
        match self.live {
            Some(t) => !t.is_deleted(row),
            None => true,
        }
    }

    /// Scans one contiguous in-bounds range into an accumulator, blockwise
    /// with the requested kernel tier.
    ///
    /// `count_range` controls whether this call increments the range counter
    /// (the parallel executor passes `false` for continuation pieces of a
    /// split range). The caller provides the reusable [`BlockScratch`] and
    /// the adaptive-density state.
    #[allow(clippy::too_many_arguments)]
    fn scan_range(
        &self,
        range: Range<usize>,
        exact: bool,
        count_range: bool,
        tier: KernelTier,
        density: &mut Density,
        acc: &mut AggAccumulator,
        counters: &mut ScanCounters,
        scratch: &mut BlockScratch,
    ) {
        debug_assert!(range.end <= self.num_rows, "plans are clamped at entry");
        if range.is_empty() {
            return;
        }
        if count_range {
            counters.ranges += 1;
        }
        counters.points += range.len();

        // An exact range — or a query with no predicates left to check —
        // matches every row: aggregate the whole range without building a
        // selection. Tombstones still apply: with deletes present the range
        // is folded through liveness words instead of the raw-slice path.
        if exact || self.preds.is_empty() {
            match self.live {
                None => {
                    counters.matched += range.len();
                    self.aggregate_dense_range(range, acc);
                }
                Some(t) => {
                    counters.matched += self.aggregate_dense_live(t, range, acc, scratch);
                }
            }
            return;
        }

        // Blocks are aligned to the absolute BLOCK_ROWS grid (not to the
        // range start), so a chunk always falls inside one encoded block.
        // Selection semantics are per-row, so alignment never changes
        // results or counters — only which rows share a block.
        let mut start = range.start;
        while start < range.end {
            let end = grid_block_end(start, range.end);
            let encoded = !self.all_plain && self.chunk_encoded(start);
            let matched = match tier {
                KernelTier::Scalar if encoded => {
                    self.scan_chunk_scalar_encoded(start, end, acc, scratch)
                }
                KernelTier::Scalar => self.scan_block_scalar(start, end, acc, scratch),
                // The branchless tiers share one packed path on encoded
                // chunks: with SWAR compares there is no vector/bitmap
                // representation split to choose between.
                _ if encoded => self.scan_chunk_packed(start, end, acc, scratch),
                KernelTier::Vector => self.scan_block_vector(start, end, acc, scratch),
                KernelTier::Bitmap => self.scan_block_bitmap(start, end, acc, scratch),
                KernelTier::Adaptive => match density.choose(self.preds.len()) {
                    BlockRepr::Scalar => self.scan_block_scalar(start, end, acc, scratch),
                    BlockRepr::Vector => self.scan_block_vector(start, end, acc, scratch),
                    BlockRepr::Bitmap => self.scan_block_bitmap(start, end, acc, scratch),
                },
            };
            density.observe(end - start, matched);
            counters.matched += matched;
            start = end;
        }
    }

    /// The aggregation input restricted to grid chunk `start..end` (which
    /// never straddles an encoded block): a plain slice when the rows are
    /// plain — including an encoded block with a `Plain` payload, so the
    /// tight slice kernels keep running — or a fetch view into the packed
    /// payload.
    #[inline(always)]
    fn agg_view(&self, start: usize, end: usize) -> AggView<'a> {
        let Some(col) = self.agg_col else {
            return AggView::None;
        };
        match col.block_at(start) {
            None => AggView::Slice(col.slice(start, end)),
            Some(eb) => {
                let offset = start % BLOCK_ROWS;
                match eb.data() {
                    BlockData::Plain(vals) => AggView::Slice(&vals[offset..offset + (end - start)]),
                    _ => AggView::Block { eb, offset },
                }
            }
        }
    }

    /// Aggregates every row of a dense (exact, tombstone-free) range.
    fn aggregate_dense_range(&self, range: Range<usize>, acc: &mut AggAccumulator) {
        let Some(col) = self.agg_col else {
            return aggregate_dense_view(self.agg, &AggView::None, range.len(), acc);
        };
        if col.is_plain() {
            let view = AggView::Slice(col.slice(range.start, range.end));
            return aggregate_dense_view(self.agg, &view, range.len(), acc);
        }
        let mut start = range.start;
        while start < range.end {
            let end = grid_block_end(start, range.end);
            aggregate_dense_view(self.agg, &self.agg_view(start, end), end - start, acc);
            start = end;
        }
    }

    /// Aggregates a dense (exact) range under tombstones: liveness words are
    /// materialized blockwise and fed to the mask-native aggregation
    /// kernels. Returns the number of live rows aggregated.
    fn aggregate_dense_live(
        &self,
        t: &TombstoneSet,
        range: Range<usize>,
        acc: &mut AggAccumulator,
        scratch: &mut BlockScratch,
    ) -> usize {
        let mut matched = 0usize;
        let mut start = range.start;
        while start < range.end {
            let end = grid_block_end(start, range.end);
            let len = end - start;
            let nw = len.div_ceil(kernels::WORD_BITS);
            let words = &mut scratch.words[..nw];
            for (w, word) in words.iter_mut().enumerate() {
                *word = t.live_word(start + w * kernels::WORD_BITS);
            }
            // Rows past the block tail read as live; trim them off.
            let tail = len % kernels::WORD_BITS;
            if tail != 0 {
                words[nw - 1] &= (1u64 << tail) - 1;
            }
            matched += aggregate_mask(self.agg, &self.agg_view(start, end), words, acc);
            start = end;
        }
        matched
    }

    /// Reference branchy selection loop (the oracle tier) over plain rows.
    fn scan_block_scalar(
        &self,
        start: usize,
        end: usize,
        acc: &mut AggAccumulator,
        scratch: &mut BlockScratch,
    ) -> usize {
        let sel = &mut scratch.sel;
        let (col0, p0) = &self.preds[0];
        let mut n = 0usize;
        for (i, &v) in col0.slice(start, end).iter().enumerate() {
            if p0.matches(v) && self.alive(start + i) {
                sel[n] = i as u32;
                n += 1;
            }
        }
        for (col, p) in &self.preds[1..] {
            if n == 0 {
                break;
            }
            let block = col.slice(start, end);
            let mut out = 0usize;
            for k in 0..n {
                let i = sel[k];
                if p.matches(block[i as usize]) {
                    sel[out] = i;
                    out += 1;
                }
            }
            n = out;
        }
        let view = self.agg_view(start, end);
        aggregate_selected(self.agg, &view, &scratch.sel[..n], acc);
        n
    }

    /// The oracle tier on a chunk with encoded columns: the same branchy
    /// row-at-a-time loop, reading rows through [`ColumnData::value_at`].
    /// Deliberately uses **no** block metadata — no skip, no all-match — so
    /// the differential suites catch any unsound pruning in the packed path.
    fn scan_chunk_scalar_encoded(
        &self,
        start: usize,
        end: usize,
        acc: &mut AggAccumulator,
        scratch: &mut BlockScratch,
    ) -> usize {
        let sel = &mut scratch.sel;
        let (col0, p0) = &self.preds[0];
        let mut n = 0usize;
        for i in 0..end - start {
            let row = start + i;
            if p0.matches(col0.value_at(row)) && self.alive(row) {
                sel[n] = i as u32;
                n += 1;
            }
        }
        for (col, p) in &self.preds[1..] {
            if n == 0 {
                break;
            }
            let mut out = 0usize;
            for k in 0..n {
                let i = sel[k];
                if p.matches(col.value_at(start + i as usize)) {
                    sel[out] = i;
                    out += 1;
                }
            }
            n = out;
        }
        let view = self.agg_view(start, end);
        aggregate_selected(self.agg, &view, &scratch.sel[..n], acc);
        n
    }

    /// Branchless selection-vector kernels over plain rows.
    fn scan_block_vector(
        &self,
        start: usize,
        end: usize,
        acc: &mut AggAccumulator,
        scratch: &mut BlockScratch,
    ) -> usize {
        let sel = &mut scratch.sel;
        let (col0, p0) = &self.preds[0];
        let mut n = kernels::select_first(col0.slice(start, end), *p0, sel);
        for (col, p) in &self.preds[1..] {
            if n == 0 {
                break;
            }
            n = kernels::select_refine(col.slice(start, end), *p, sel, n);
        }
        // Liveness refine: same branchless compaction as select_refine, with
        // the tombstone bit standing in for the predicate.
        if let Some(t) = self.live {
            let mut out = 0usize;
            for k in 0..n {
                let i = sel[k];
                sel[out] = i;
                out += !t.is_deleted(start + i as usize) as usize;
            }
            n = out;
        }
        let view = self.agg_view(start, end);
        aggregate_selected(self.agg, &view, &scratch.sel[..n], acc);
        n
    }

    /// Branchless word-packed selection-bitmap kernels over plain rows, with
    /// mask-native aggregation.
    fn scan_block_bitmap(
        &self,
        start: usize,
        end: usize,
        acc: &mut AggAccumulator,
        scratch: &mut BlockScratch,
    ) -> usize {
        let len = end - start;
        let nw = len.div_ceil(kernels::WORD_BITS);
        let words = &mut scratch.words[..nw];
        let (col0, p0) = &self.preds[0];
        let mut any = kernels::mask_first(col0.slice(start, end), *p0, words);
        // The bitmap tier speaks masks natively: liveness is one AND per
        // word, applied early so refinement can short-circuit on it too.
        if let Some(t) = self.live {
            if any != 0 {
                any = 0;
                for (w, word) in words.iter_mut().enumerate() {
                    *word &= t.live_word(start + w * kernels::WORD_BITS);
                    any |= *word;
                }
            }
        }
        for (col, p) in &self.preds[1..] {
            if any == 0 {
                break;
            }
            any = kernels::mask_refine(col.slice(start, end), *p, words);
        }
        if any == 0 {
            return 0;
        }
        let view = self.agg_view(start, end);
        aggregate_mask(self.agg, &view, &scratch.words[..nw], acc)
    }

    /// The packed path every branchless tier takes on a chunk with encoded
    /// columns. Per predicate, the block's metadata classifies the test
    /// ([`EncodedBlock::classify`]): a `Skip` ends the chunk before touching
    /// any payload (skip-before-decode); an `AllLive` drops the predicate
    /// (every live row passes, and dead rows are masked by liveness below);
    /// otherwise the predicate is evaluated as a SWAR code-range compare
    /// directly on the packed words ([`kernels::packed_mask`]) or, for plain
    /// payloads and plain columns, with the ordinary mask kernels. Liveness
    /// is ANDed in last, exactly as the plain bitmap tier does.
    fn scan_chunk_packed(
        &self,
        start: usize,
        end: usize,
        acc: &mut AggAccumulator,
        scratch: &mut BlockScratch,
    ) -> usize {
        let len = end - start;
        let nw = len.div_ceil(kernels::WORD_BITS);
        let offset = start % BLOCK_ROWS;

        // Single packed predicate on a delete-free source: COUNT needs no
        // bitmap at all, and SUM/AVG whose aggregation block shares the
        // predicate's field layout reduces straight off the packed words.
        if self.preds.len() == 1 && self.live.is_none() {
            let (col, p) = &self.preds[0];
            if let Some(eb) = col.block_at(start) {
                match eb.classify(p.lo, p.hi) {
                    BlockTest::Skip => return 0,
                    BlockTest::AllLive => {
                        self.aggregate_dense_range(start..end, acc);
                        return len;
                    }
                    BlockTest::Packed { lo, hi } => {
                        let (packed, class) = packed_payload(eb);
                        match (self.agg, self.agg_view(start, end)) {
                            (_, AggView::None) | (Aggregation::Count, _) => {
                                let n = kernels::packed_count(packed, class, offset, len, lo, hi);
                                acc.add_bulk(n as u64, 0);
                                return n;
                            }
                            (
                                Aggregation::Sum(_) | Aggregation::Avg(_),
                                AggView::Block { eb: agg_eb, .. },
                            ) => {
                                if let BlockData::For {
                                    class: agg_class,
                                    packed: agg_packed,
                                } = agg_eb.data()
                                {
                                    if *agg_class == class {
                                        let (n, code_sum) = kernels::packed_sum_same_layout(
                                            packed, agg_packed, class, offset, len, lo, hi,
                                        );
                                        let reference = agg_eb.bounds().0 as u128;
                                        acc.add_bulk(n, code_sum + n as u128 * reference);
                                        return n as usize;
                                    }
                                }
                            }
                            _ => {}
                        }
                        // No aggregation fast path: materialize the bitmap.
                        let any = kernels::packed_mask(
                            packed,
                            class,
                            offset,
                            len,
                            lo,
                            hi,
                            kernels::MaskMode::Set,
                            &mut scratch.words[..nw],
                        );
                        if any == 0 {
                            return 0;
                        }
                        let view = self.agg_view(start, end);
                        return aggregate_mask(self.agg, &view, &scratch.words[..nw], acc);
                    }
                    BlockTest::Plain => {} // fall through to the general path
                }
            }
        }

        // General path: fold every predicate into one selection bitmap.
        let mut first = true;
        let mut any = 0u64;
        for (col, p) in &self.preds {
            let mode = if first {
                kernels::MaskMode::Set
            } else {
                kernels::MaskMode::And
            };
            match col.block_at(start) {
                Some(eb) => match eb.classify(p.lo, p.hi) {
                    BlockTest::Skip => return 0,
                    BlockTest::AllLive => continue,
                    BlockTest::Packed { lo, hi } => {
                        let (packed, class) = packed_payload(eb);
                        any = kernels::packed_mask(
                            packed,
                            class,
                            offset,
                            len,
                            lo,
                            hi,
                            mode,
                            &mut scratch.words[..nw],
                        );
                        first = false;
                    }
                    BlockTest::Plain => {
                        let BlockData::Plain(vals) = eb.data() else {
                            unreachable!("Plain classification implies plain payload");
                        };
                        let block = &vals[offset..offset + len];
                        let words = &mut scratch.words[..nw];
                        any = match mode {
                            kernels::MaskMode::Set => kernels::mask_first(block, *p, words),
                            kernels::MaskMode::And => kernels::mask_refine(block, *p, words),
                        };
                        first = false;
                    }
                },
                None => {
                    let block = col.slice(start, end);
                    let words = &mut scratch.words[..nw];
                    any = match mode {
                        kernels::MaskMode::Set => kernels::mask_first(block, *p, words),
                        kernels::MaskMode::And => kernels::mask_refine(block, *p, words),
                    };
                    first = false;
                }
            }
            if !first && any == 0 {
                return 0;
            }
        }

        // Every predicate was AllLive: the chunk is dense up to liveness.
        if first {
            return match self.live {
                None => {
                    self.aggregate_dense_range(start..end, acc);
                    len
                }
                Some(t) => self.aggregate_dense_live(t, start..end, acc, scratch),
            };
        }

        if let Some(t) = self.live {
            any = 0;
            let words = &mut scratch.words[..nw];
            for (w, word) in words.iter_mut().enumerate() {
                *word &= t.live_word(start + w * kernels::WORD_BITS);
                any |= *word;
            }
        }
        if any == 0 {
            return 0;
        }
        let view = self.agg_view(start, end);
        aggregate_mask(self.agg, &view, &scratch.words[..nw], acc)
    }
}

/// The packed words and class of a FOR or Dict payload.
#[inline(always)]
fn packed_payload(eb: &EncodedBlock) -> (&[u64], PackClass) {
    match eb.data() {
        BlockData::For { class, packed } => (packed, *class),
        BlockData::Dict { class, packed, .. } => (packed, *class),
        BlockData::Plain(_) => unreachable!("packed payload requested for plain block"),
    }
}

/// The aggregation input for one grid chunk, with **chunk-local** row
/// indexing (index `i` = physical row `chunk_start + i`): a plain slice, a
/// window into an encoded block's packed payload, or nothing (`COUNT`, or
/// no input column).
#[derive(Clone, Copy)]
enum AggView<'a> {
    None,
    Slice(&'a [Value]),
    Block { eb: &'a EncodedBlock, offset: usize },
}

impl AggView<'_> {
    /// Chunk-local row `i`'s aggregation input value. Only called on
    /// [`AggView::Slice`] / [`AggView::Block`].
    #[inline(always)]
    fn fetch(&self, i: usize) -> Value {
        match self {
            AggView::Slice(s) => s[i],
            AggView::Block { eb, offset } => eb.value_at(offset + i),
            AggView::None => unreachable!("no aggregation input to fetch"),
        }
    }
}

/// Mask-native aggregation of one chunk's selection bitmap, shared by the
/// bitmap tier, the packed path, and the tombstone-aware dense path.
/// Returns the number of selected rows.
fn aggregate_mask(
    agg: Aggregation,
    col: &AggView,
    words: &[u64],
    acc: &mut AggAccumulator,
) -> usize {
    match (agg, col) {
        (Aggregation::Count, _) | (_, AggView::None) => {
            let n = kernels::mask_count(words);
            acc.add_bulk(n as u64, 0);
            n
        }
        (Aggregation::Sum(_) | Aggregation::Avg(_), AggView::Slice(s)) => {
            let (n, sum) = kernels::mask_sum(s, words);
            acc.add_bulk(n, sum);
            n as usize
        }
        (Aggregation::Min(_), AggView::Slice(s)) => {
            let (n, lo) = kernels::mask_min(s, words);
            acc.add_block(n, 0, lo, None);
            n as usize
        }
        (Aggregation::Max(_), AggView::Slice(s)) => {
            let (n, hi) = kernels::mask_max(s, words);
            acc.add_block(n, 0, None, hi);
            n as usize
        }
        (Aggregation::Sum(_) | Aggregation::Avg(_), AggView::Block { eb, offset }) => {
            // FOR-packed aggregation block with word-aligned bitmap groups:
            // sum the packed codes straight off the selection bitmap.
            if let BlockData::For { class, packed } = eb.data() {
                if offset & (class.per_word() - 1) == 0 {
                    let (n, code_sum) = kernels::mask_sum_packed(words, packed, *class, *offset);
                    let reference = eb.bounds().0 as u128;
                    acc.add_bulk(n, code_sum + n as u128 * reference);
                    return n as usize;
                }
            }
            let (n, sum) = kernels::mask_sum_fetch(words, |i| col.fetch(i));
            acc.add_bulk(n, sum);
            n as usize
        }
        (Aggregation::Min(_), _) => {
            let (n, lo) =
                kernels::mask_extreme_fetch(words, Value::MAX, Value::min, |i| col.fetch(i));
            acc.add_block(n, 0, lo, None);
            n as usize
        }
        (Aggregation::Max(_), _) => {
            let (n, hi) =
                kernels::mask_extreme_fetch(words, Value::MIN, Value::max, |i| col.fetch(i));
            acc.add_block(n, 0, None, hi);
            n as usize
        }
    }
}

/// Aggregates every row of one dense chunk (exact-range fast path).
fn aggregate_dense_view(agg: Aggregation, col: &AggView, len: usize, acc: &mut AggAccumulator) {
    let n = len as u64;
    match (agg, col) {
        (Aggregation::Count, _) | (_, AggView::None) => acc.add_bulk(n, 0),
        (Aggregation::Sum(_) | Aggregation::Avg(_), AggView::Slice(s)) => {
            let sum: u128 = s[..len].iter().map(|&v| v as u128).sum();
            acc.add_bulk(n, sum);
        }
        // MIN/MAX cannot use the bulk-sum shortcut: even an exact range needs
        // its values inspected. Fold the slice tightly instead.
        (Aggregation::Min(_), AggView::Slice(s)) => {
            acc.add_block(n, 0, s[..len].iter().copied().min(), None);
        }
        (Aggregation::Max(_), AggView::Slice(s)) => {
            acc.add_block(n, 0, None, s[..len].iter().copied().max());
        }
        (Aggregation::Sum(_) | Aggregation::Avg(_), AggView::Block { eb, offset }) => {
            // A FOR block sums without decoding: every field matches the
            // trivial `code >= 0` test, so the masked-sum kernel degenerates
            // to a straight lane-wise fold of the packed payloads.
            if let BlockData::For { class, packed } = eb.data() {
                let (rows, code_sum) =
                    kernels::packed_sum_same_layout(packed, packed, *class, *offset, len, 0, None);
                debug_assert_eq!(rows, n);
                acc.add_bulk(n, code_sum + n as u128 * eb.bounds().0 as u128);
                return;
            }
            let sum: u128 = (0..len).map(|i| col.fetch(i) as u128).sum();
            acc.add_bulk(n, sum);
        }
        (Aggregation::Min(_), _) => {
            acc.add_block(n, 0, (0..len).map(|i| col.fetch(i)).min(), None);
        }
        (Aggregation::Max(_), _) => {
            acc.add_block(n, 0, None, (0..len).map(|i| col.fetch(i)).max());
        }
    }
}

/// Aggregates the selected rows of one chunk (`sel` holds chunk-local
/// indices).
fn aggregate_selected(agg: Aggregation, col: &AggView, sel: &[u32], acc: &mut AggAccumulator) {
    if sel.is_empty() {
        return;
    }
    let n = sel.len() as u64;
    match (agg, col) {
        (Aggregation::Count, _) | (_, AggView::None) => acc.add_bulk(n, 0),
        (Aggregation::Sum(_) | Aggregation::Avg(_), _) => {
            let sum: u128 = sel.iter().map(|&i| col.fetch(i as usize) as u128).sum();
            acc.add_bulk(n, sum);
        }
        (Aggregation::Min(_), _) => {
            let lo = sel.iter().map(|&i| col.fetch(i as usize)).min();
            acc.add_block(n, 0, lo, None);
        }
        (Aggregation::Max(_), _) => {
            let hi = sel.iter().map(|&i| col.fetch(i as usize)).max();
            acc.add_block(n, 0, None, hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Predicate, Query};

    fn source() -> Dataset {
        // dim0: 0..1000, dim1: reversed, dim2: i*3 % 101.
        Dataset::from_columns(vec![
            (0..1000u64).collect(),
            (0..1000u64).rev().collect(),
            (0..1000u64).map(|v| v * 3 % 101).collect(),
        ])
        .unwrap()
    }

    fn count(preds: Vec<Predicate>) -> Query {
        Query::count(preds).unwrap()
    }

    /// Executes through [`fold_plan`] on the global pool with a pinned tier
    /// and thread count, finishing the partial state.
    fn run(
        source: &dyn ScanSource,
        q: &Query,
        plan: &ScanPlan,
        tier: KernelTier,
        threads: usize,
    ) -> (AggResult, ScanCounters) {
        let pool = pool::global();
        let (acc, counters) = fold_plan(source, q, plan, tier, pool, threads, pool.morsel_rows());
        (acc.finish(), counters)
    }

    #[test]
    fn plan_push_merges_adjacent_equal_exactness() {
        let mut plan = ScanPlan::new();
        plan.push(0..10, false);
        plan.push(10..20, false);
        plan.push(20..30, true);
        plan.push(30..40, true);
        plan.push(50..60, true);
        plan.push(60..60, true); // dropped: empty
        assert_eq!(plan.num_ranges(), 3);
        assert_eq!(plan.ranges()[0].range, 0..20);
        assert!(!plan.ranges()[0].exact);
        assert_eq!(plan.ranges()[1].range, 20..40);
        assert!(plan.ranges()[1].exact);
        assert_eq!(plan.ranges()[2].range, 50..60);
        assert_eq!(plan.total_points(), 50);
    }

    #[test]
    fn clamped_borrows_in_bounds_plans_and_trims_others() {
        let plan = ScanPlan::from_ranges([(0..10, false), (20..30, true)]);
        assert!(matches!(plan.clamped(30), Cow::Borrowed(_)));

        let plan = ScanPlan::from_ranges([(0..10, false), (20..50, true), (60..70, false)]);
        let clamped = plan.clamped(25);
        assert!(matches!(clamped, Cow::Owned(_)));
        assert_eq!(clamped.num_ranges(), 2);
        assert_eq!(clamped.ranges()[1].range, 20..25);
        assert!(clamped.ranges()[1].exact);
        assert_eq!(clamped.total_points(), 15);
    }

    #[test]
    fn executor_matches_oracle_on_full_scan() {
        let ds = source();
        let q = count(vec![Predicate::range(0, 100, 499).unwrap()]);
        let (res, counters) = execute_plan(&ds, &q, &ScanPlan::full(ds.len()));
        assert_eq!(res, q.execute_full_scan(&ds));
        assert_eq!(counters.ranges, 1);
        assert_eq!(counters.points, 1000);
        assert_eq!(counters.matched, 400);
    }

    #[test]
    fn executor_handles_multi_predicate_blocks() {
        let ds = source();
        let q = count(vec![
            Predicate::range(0, 0, 899).unwrap(),
            Predicate::range(1, 200, 999).unwrap(),
            Predicate::range(2, 0, 50).unwrap(),
        ]);
        let (res, _) = execute_plan(&ds, &q, &ScanPlan::full(ds.len()));
        assert_eq!(res, q.execute_full_scan(&ds));
    }

    #[test]
    fn every_tier_is_bit_identical_including_counters() {
        let ds = source();
        let plan = ScanPlan::from_ranges([(0..300, false), (450..700, false), (800..1000, true)]);
        for agg in [
            Aggregation::Count,
            Aggregation::Sum(1),
            Aggregation::Min(1),
            Aggregation::Max(1),
            Aggregation::Avg(1),
        ] {
            let q = Query::new(
                vec![
                    Predicate::range(0, 50, 650).unwrap(),
                    Predicate::range(2, 5, 95).unwrap(),
                ],
                agg,
            )
            .unwrap();
            let (expected, expected_counters) = run(&ds, &q, &plan, KernelTier::Scalar, 1);
            for tier in KernelTier::ALL {
                let (res, counters) = run(&ds, &q, &plan, tier, 1);
                assert_eq!(res, expected, "{agg:?} via {tier:?}");
                assert_eq!(counters, expected_counters, "{agg:?} counters via {tier:?}");
            }
        }
    }

    #[test]
    fn bitmap_tier_handles_all_aggregations_on_dense_selections() {
        // ~99% dense selection: the bitmap's fully-set-word fast paths run.
        let ds = source();
        let preds = vec![Predicate::range(0, 5, 994).unwrap()];
        for agg in [
            Aggregation::Count,
            Aggregation::Sum(1),
            Aggregation::Min(1),
            Aggregation::Max(1),
            Aggregation::Avg(1),
        ] {
            let q = Query::new(preds.clone(), agg).unwrap();
            let (res, _) = run(&ds, &q, &ScanPlan::full(ds.len()), KernelTier::Bitmap, 1);
            assert_eq!(res, q.execute_full_scan(&ds), "{agg:?}");
        }
    }

    #[test]
    fn adaptive_tier_switches_to_bitmap_on_observed_density() {
        // First block seeds the estimate on the vector path; subsequent
        // blocks of this ~90%-dense scan take the bitmap path and must stay
        // correct. (Representation choice is unobservable except through
        // timing, so this asserts end-to-end equality on a multi-block scan.)
        let n = 8 * BLOCK_ROWS as u64;
        let ds = Dataset::from_columns(vec![(0..n).map(|v| v % 10).collect()]).unwrap();
        let q = count(vec![Predicate::range(0, 1, 9).unwrap()]);
        let expected = q.execute_full_scan(&ds);
        let (res, counters) = run(&ds, &q, &ScanPlan::full(ds.len()), KernelTier::Adaptive, 1);
        assert_eq!(res, expected);
        assert_eq!(Some(counters.matched as u64), expected.as_count());
    }

    #[test]
    fn exact_ranges_skip_residual_checks() {
        let ds = source();
        // The filter matches only 0..10 but the plan claims 0..20 is exact:
        // the executor must trust the plan and count all 20.
        let q = count(vec![Predicate::range(0, 0, 9).unwrap()]);
        let (res, counters) = execute_plan(&ds, &q, &ScanPlan::from_ranges([(0..20, true)]));
        assert_eq!(res, AggResult::Count(20));
        assert_eq!(counters.matched, 20);
    }

    #[test]
    fn exact_min_max_uses_value_fold() {
        let ds = source();
        let q = Query::new(vec![], Aggregation::Min(1)).unwrap();
        let (res, _) = execute_plan(&ds, &q, &ScanPlan::from_ranges([(5..10, true)]));
        assert_eq!(res, AggResult::Min(Some(990)));
        let q = Query::new(vec![], Aggregation::Max(1)).unwrap();
        let (res, _) = execute_plan(&ds, &q, &ScanPlan::from_ranges([(5..10, true)]));
        assert_eq!(res, AggResult::Max(Some(994)));
    }

    #[test]
    fn residual_predicates_replace_query_predicates() {
        let ds = source();
        // Query filters dim0 and dim2, but the plan declares only dim2 as
        // residual (claiming dim0 is guaranteed by construction).
        let q = count(vec![
            Predicate::range(0, 500, 509).unwrap(),
            Predicate::range(2, 0, 100).unwrap(),
        ]);
        let plan = ScanPlan::from_ranges([(500..510, false)])
            .with_residual(vec![Predicate::range(2, 0, 100).unwrap()]);
        let (res, _) = execute_plan(&ds, &q, &plan);
        // dim2 predicate matches everything (domain is 0..=100): all 10 rows.
        assert_eq!(res, AggResult::Count(10));
    }

    #[test]
    fn out_of_bounds_ranges_are_clamped() {
        let ds = source();
        let q = count(vec![]);
        let (res, counters) = execute_plan(&ds, &q, &ScanPlan::from_ranges([(990..5000, false)]));
        assert_eq!(res, AggResult::Count(10));
        assert_eq!(counters.points, 10);
        let (res, counters) = execute_plan(&ds, &q, &ScanPlan::from_ranges([(5000..6000, false)]));
        assert_eq!(res, AggResult::Count(0));
        assert_eq!(counters.ranges, 0);
    }

    #[test]
    fn all_aggregations_match_oracle_over_fragmented_plans() {
        let ds = source();
        let preds = vec![Predicate::range(2, 10, 60).unwrap()];
        let plan = ScanPlan::from_ranges([(0..300, false), (300..700, false), (800..1000, false)]);
        for agg in [
            Aggregation::Count,
            Aggregation::Sum(1),
            Aggregation::Min(1),
            Aggregation::Max(1),
            Aggregation::Avg(1),
        ] {
            let q = Query::new(preds.clone(), agg).unwrap();
            // The oracle over the same rows: 0..700 and 800..1000.
            let rows: Vec<usize> = (0..700).chain(800..1000).collect();
            let expected = q.execute_full_scan(&ds.select_rows(&rows));
            let (res, _) = execute_plan(&ds, &q, &plan);
            assert_eq!(res, expected, "{agg:?}");
        }
    }

    #[test]
    fn parallel_executor_matches_serial_results_and_counters() {
        // Big enough to clear the parallel threshold, with a mix of exact and
        // non-exact fragments.
        let n = 40_000u64;
        let ds = Dataset::from_columns(vec![
            (0..n).collect(),
            (0..n).map(|v| v * 7 % 1_000).collect(),
        ])
        .unwrap();
        let plan = ScanPlan::from_ranges([
            (0..15_000, false),
            (15_000..16_000, true),
            (20_000..40_000, false),
        ]);
        for agg in [
            Aggregation::Count,
            Aggregation::Sum(1),
            Aggregation::Min(1),
            Aggregation::Max(1),
            Aggregation::Avg(1),
        ] {
            let q = Query::new(vec![Predicate::range(1, 100, 800).unwrap()], agg).unwrap();
            let (serial, serial_counters) = execute_plan(&ds, &q, &plan);
            for threads in [2, 3, 8] {
                for tier in KernelTier::ALL {
                    let (parallel, parallel_counters) = run(&ds, &q, &plan, tier, threads);
                    assert_eq!(parallel, serial, "{agg:?} with {threads} threads {tier:?}");
                    assert_eq!(
                        parallel_counters, serial_counters,
                        "{agg:?} counters with {threads} threads {tier:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pooled_executor_matches_serial_across_morsel_sizes() {
        // Morsel sizes deliberately straddling BLOCK_ROWS boundaries: pieces
        // that start mid-block re-align blockwise inside scan_range, so
        // selection (and thus results and counters) must not change.
        let n = 30_000u64;
        let ds = Dataset::from_columns(vec![
            (0..n).collect(),
            (0..n).map(|v| v * 13 % 509).collect(),
        ])
        .unwrap();
        let plan = ScanPlan::from_ranges([
            (0..11_111, false),
            (11_111..12_000, true),
            (13_001..30_000, false),
        ]);
        let q = Query::new(
            vec![Predicate::range(1, 40, 333).unwrap()],
            Aggregation::Avg(0),
        )
        .unwrap();
        let (serial, sc) = execute_plan(&ds, &q, &plan);
        let pool = WorkStealingPool::new(2);
        for morsel in [BLOCK_ROWS, BLOCK_ROWS + 1, 1_500, 3 * BLOCK_ROWS + 17] {
            for threads in [2, 5] {
                let (pooled, pc) = fold_plan(
                    &ds,
                    &q,
                    &plan,
                    KernelTier::default(),
                    &pool,
                    threads,
                    morsel,
                );
                assert_eq!(serial, pooled.finish(), "morsel={morsel} threads={threads}");
                assert_eq!(sc, pc, "counters morsel={morsel} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_executor_degrades_to_serial_for_tiny_plans() {
        let ds = source();
        let q = count(vec![Predicate::range(0, 0, 99).unwrap()]);
        let plan = ScanPlan::full(ds.len());
        let (serial, sc) = execute_plan(&ds, &q, &plan);
        let (parallel, pc) = run(&ds, &q, &plan, KernelTier::default(), 8);
        assert_eq!(serial, parallel);
        assert_eq!(sc, pc);
    }

    #[test]
    fn empty_plan_yields_empty_aggregates() {
        let ds = source();
        let q = Query::new(vec![], Aggregation::Min(0)).unwrap();
        let (res, counters) = execute_plan(&ds, &q, &ScanPlan::new());
        assert_eq!(res, AggResult::Min(None));
        assert_eq!(counters, ScanCounters::default());
    }

    /// A dataset with a deletion bitmap bolted on, for exercising the
    /// executor's liveness paths without the store crate.
    struct TombSource {
        ds: Dataset,
        t: TombstoneSet,
    }

    impl ScanSource for TombSource {
        fn num_rows(&self) -> usize {
            self.ds.len()
        }
        fn num_dims(&self) -> usize {
            self.ds.num_dims()
        }
        fn column_data(&self, dim: usize) -> ColumnData<'_> {
            ColumnData::Plain(self.ds.column(dim))
        }
        fn tombstones(&self) -> Option<&TombstoneSet> {
            Some(&self.t)
        }
    }

    #[test]
    fn tombstones_are_excluded_by_every_tier_and_path() {
        let ds = source();
        let mut t = TombstoneSet::new(ds.len());
        // A mix of deletions: word-aligned runs, scattered rows, a row
        // inside the exact range of the plan below.
        for row in (0..200).chain([255, 256, 300, 511, 512, 513, 850, 999]) {
            t.mark(row);
        }
        let live: Vec<usize> = t.live_rows();
        let tomb = TombSource { ds: ds.clone(), t };
        // Oracle: the same plan rows with deleted rows physically absent.
        let plan = ScanPlan::from_ranges([(0..300, false), (450..700, false), (800..1000, true)]);
        let plan_rows: Vec<usize> = (0..300)
            .chain(450..700)
            .chain(800..1000)
            .filter(|r| live.binary_search(r).is_ok())
            .collect();
        for agg in [
            Aggregation::Count,
            Aggregation::Sum(1),
            Aggregation::Min(1),
            Aggregation::Max(1),
            Aggregation::Avg(1),
        ] {
            let q = Query::new(
                vec![
                    Predicate::range(0, 50, 950).unwrap(),
                    Predicate::range(2, 5, 95).unwrap(),
                ],
                agg,
            )
            .unwrap();
            // Exact ranges trust the plan, so the oracle applies predicates
            // only to the non-exact prefix rows.
            let oracle_rows: Vec<usize> = plan_rows
                .iter()
                .copied()
                .filter(|&r| r >= 800 || q.predicates().iter().all(|p| p.matches(ds.get(r, p.dim))))
                .collect();
            let no_pred = Query::new(vec![], agg).unwrap();
            let expected = no_pred.execute_full_scan(&ds.select_rows(&oracle_rows));
            let (scalar, scalar_counters) = run(&tomb, &q, &plan, KernelTier::Scalar, 1);
            assert_eq!(scalar, expected, "{agg:?} scalar vs rebuilt oracle");
            assert_eq!(scalar_counters.matched, oracle_rows.len());
            for tier in KernelTier::ALL {
                let (res, counters) = run(&tomb, &q, &plan, tier, 1);
                assert_eq!(res, expected, "{agg:?} via {tier:?}");
                assert_eq!(counters, scalar_counters, "{agg:?} counters via {tier:?}");
                let (par, par_counters) = run(&tomb, &q, &plan, tier, 4);
                assert_eq!(par, expected, "{agg:?} parallel via {tier:?}");
                assert_eq!(par_counters, scalar_counters, "{agg:?} parallel counters");
            }
        }
    }

    #[test]
    fn empty_tombstone_set_changes_nothing() {
        let ds = source();
        let tomb = TombSource {
            ds: ds.clone(),
            t: TombstoneSet::new(ds.len()),
        };
        let q = count(vec![Predicate::range(0, 100, 499).unwrap()]);
        let plan = ScanPlan::full(ds.len());
        let (plain, pc) = execute_plan(&ds, &q, &plan);
        let (with_t, tc) = execute_plan(&tomb, &q, &plan);
        assert_eq!(plain, with_t);
        assert_eq!(pc, tc);
    }

    #[test]
    fn tier_labels_are_stable() {
        let labels: Vec<&str> = KernelTier::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(labels, vec!["scalar", "vector", "bitmap", "adaptive"]);
        assert_eq!(KernelTier::default(), KernelTier::Adaptive);
    }

    #[test]
    fn adaptive_first_block_probes_with_scalar() {
        // The probe block must be scalar: a vector probe's unconditional
        // full-block stores into a cold selection buffer is pure overhead on
        // sparse scans (the `BENCH_scan.json` sparse-SUM regression), while
        // the scalar loop is free there and one block is noise on dense
        // scans.
        let d = Density::default();
        for num_preds in 1..=4 {
            assert_eq!(d.choose(num_preds), BlockRepr::Scalar);
        }
        // After a dense observation the estimate takes over as before.
        let mut d = Density::default();
        d.observe(1024, 1000);
        assert_eq!(d.choose(1), BlockRepr::Bitmap);
        let mut d = Density::default();
        d.observe(1024, 10);
        assert_eq!(d.choose(1), BlockRepr::Scalar);
        let mut d = Density::default();
        d.observe(1024, 300);
        assert_eq!(d.choose(1), BlockRepr::Vector);
    }

    /// A scan source with per-block encoded columns plus a plain tail, for
    /// exercising the packed executor paths without the store crate.
    struct EncodedSource {
        cols: Vec<(Vec<EncodedBlock>, Vec<Value>)>,
        num_rows: usize,
        t: Option<TombstoneSet>,
    }

    impl EncodedSource {
        /// Encodes every full block of `ds`'s columns, leaving `tail_rows`
        /// rows plain. Rows already tombstoned in `t` are dead at encode
        /// time, so block live bounds reflect them.
        fn encode(ds: &Dataset, tail_rows: usize, t: Option<TombstoneSet>) -> Self {
            let opts = crate::encode::EncodeOptions::default();
            let encoded_rows = (ds.len() - tail_rows) / BLOCK_ROWS * BLOCK_ROWS;
            let cols = (0..ds.num_dims())
                .map(|d| {
                    let col = ds.column(d);
                    let blocks: Vec<EncodedBlock> = (0..encoded_rows / BLOCK_ROWS)
                        .map(|b| {
                            let start = b * BLOCK_ROWS;
                            EncodedBlock::encode(
                                &col[start..start + BLOCK_ROWS],
                                |i| t.as_ref().is_none_or(|t| !t.is_deleted(start + i)),
                                &opts,
                            )
                        })
                        .collect();
                    (blocks, col[encoded_rows..].to_vec())
                })
                .collect();
            Self {
                cols,
                num_rows: ds.len(),
                t,
            }
        }
    }

    impl ScanSource for EncodedSource {
        fn num_rows(&self) -> usize {
            self.num_rows
        }
        fn num_dims(&self) -> usize {
            self.cols.len()
        }
        fn column_data(&self, dim: usize) -> ColumnData<'_> {
            let (blocks, tail) = &self.cols[dim];
            ColumnData::Encoded { blocks, tail }
        }
        fn tombstones(&self) -> Option<&TombstoneSet> {
            self.t.as_ref()
        }
    }

    /// Columns spanning every encoding: dim0 FOR-compressible (12-bit
    /// domain), dim1 low-cardinality (dict), dim2 incompressible (plain
    /// fallback), dim3 a second FOR column for same-layout SUM fast paths.
    fn encodable_dataset(n: u64) -> Dataset {
        Dataset::from_columns(vec![
            (0..n).map(|v| v * 37 % 4096).collect(),
            (0..n).map(|v| (v * 13 % 23) * 1_000_000_007).collect(),
            (0..n)
                .map(|v| v.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            (0..n).map(|v| v * 91 % 4096).collect(),
        ])
        .unwrap()
    }

    #[test]
    fn encoded_source_matches_plain_dataset_across_tiers() {
        let n = 6 * BLOCK_ROWS as u64 + 700;
        let ds = encodable_dataset(n);
        // Mixed: 4 encoded blocks, then 2 full blocks + 700 rows plain tail.
        for tail in [700, 2 * BLOCK_ROWS + 700] {
            let src = EncodedSource::encode(&ds, tail, None);
            let plan = ScanPlan::from_ranges([
                (3..2_000, false),
                (2_000..2_500, true),
                (2_600..ds.len(), false),
            ]);
            for agg in [
                Aggregation::Count,
                Aggregation::Sum(3),
                Aggregation::Sum(2),
                Aggregation::Min(3),
                Aggregation::Max(2),
                Aggregation::Avg(0),
            ] {
                for preds in [
                    vec![Predicate::range(0, 1000, 3000).unwrap()],
                    vec![Predicate::range(1, 5 * 1_000_000_007, 14 * 1_000_000_007).unwrap()],
                    vec![Predicate::range(2, 0, u64::MAX / 2).unwrap()],
                    vec![
                        Predicate::range(0, 100, 3800).unwrap(),
                        Predicate::range(1, 2 * 1_000_000_007, 20 * 1_000_000_007).unwrap(),
                        Predicate::range(2, u64::MAX / 4, u64::MAX).unwrap(),
                    ],
                    // Out-of-domain bounds: every block classifies Skip /
                    // AllLive in turn.
                    vec![Predicate::range(0, 5000, 6000).unwrap()],
                    vec![Predicate::range(0, 0, 4100).unwrap()],
                ] {
                    let q = Query::new(preds.clone(), agg).unwrap();
                    let (expected, expected_counters) = run(&ds, &q, &plan, KernelTier::Scalar, 1);
                    for tier in KernelTier::ALL {
                        let (res, counters) = run(&src, &q, &plan, tier, 1);
                        assert_eq!(res, expected, "tail={tail} {agg:?} {preds:?} via {tier:?}");
                        assert_eq!(counters, expected_counters, "counters via {tier:?}");
                        let (par, pc) = run(&src, &q, &plan, tier, 4);
                        assert_eq!(par, expected, "parallel tail={tail} {agg:?} via {tier:?}");
                        assert_eq!(pc, expected_counters, "parallel counters via {tier:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn encoded_source_respects_tombstones_in_every_tier() {
        let n = 5 * BLOCK_ROWS as u64 + 321;
        let ds = encodable_dataset(n);
        let mut t = TombstoneSet::new(ds.len());
        // Kill a whole block (its live bounds go None => Skip), the extreme
        // rows of another, scattered rows, and some tail rows.
        for row in BLOCK_ROWS..2 * BLOCK_ROWS {
            t.mark(row);
        }
        for row in (0..ds.len()).step_by(97) {
            t.mark(row);
        }
        for row in 5 * BLOCK_ROWS..5 * BLOCK_ROWS + 100 {
            t.mark(row);
        }
        let src = EncodedSource::encode(&ds, 321, Some(t.clone()));
        let tomb = TombSource { ds: ds.clone(), t };
        let plan = ScanPlan::from_ranges([(0..4_000, false), (4_000..ds.len(), false)]);
        for agg in [Aggregation::Count, Aggregation::Sum(3), Aggregation::Min(0)] {
            let q = Query::new(
                vec![
                    Predicate::range(0, 200, 3900).unwrap(),
                    Predicate::range(1, 1_000_000_007, 21 * 1_000_000_007).unwrap(),
                ],
                agg,
            )
            .unwrap();
            let (expected, expected_counters) = run(&tomb, &q, &plan, KernelTier::Scalar, 1);
            for tier in KernelTier::ALL {
                let (res, counters) = run(&src, &q, &plan, tier, 1);
                assert_eq!(res, expected, "{agg:?} via {tier:?}");
                assert_eq!(counters, expected_counters, "{agg:?} counters via {tier:?}");
                let (par, pc) = run(&src, &q, &plan, tier, 4);
                assert_eq!(par, expected, "{agg:?} parallel via {tier:?}");
                assert_eq!(pc, expected_counters, "{agg:?} parallel counters");
            }
        }
    }

    #[test]
    fn fully_dead_encoded_block_is_skipped_but_results_stay_oracle_equal() {
        // One block entirely tombstoned: the packed path classifies it Skip
        // without touching payload, and the scalar oracle (which ignores
        // metadata) must agree because liveness masks every row anyway.
        let n = 3 * BLOCK_ROWS as u64;
        let ds = encodable_dataset(n);
        let mut t = TombstoneSet::new(ds.len());
        for row in 0..BLOCK_ROWS {
            t.mark(row);
        }
        let src = EncodedSource::encode(&ds, 0, Some(t));
        let q = Query::new(
            vec![Predicate::range(0, 0, 4095).unwrap()],
            Aggregation::Sum(3),
        )
        .unwrap();
        let plan = ScanPlan::full(ds.len());
        let (expected, ec) = run(&src, &q, &plan, KernelTier::Scalar, 1);
        for tier in KernelTier::ALL {
            let (res, counters) = run(&src, &q, &plan, tier, 1);
            assert_eq!(res, expected, "via {tier:?}");
            assert_eq!(counters, ec, "counters via {tier:?}");
        }
    }

    #[test]
    fn encoded_exact_ranges_aggregate_densely() {
        let n = 4 * BLOCK_ROWS as u64;
        let ds = encodable_dataset(n);
        let src = EncodedSource::encode(&ds, 0, None);
        // Exact ranges deliberately misaligned to the block grid.
        let plan = ScanPlan::from_ranges([(100..1_500, true), (1_700..3_900, true)]);
        for agg in [
            Aggregation::Count,
            Aggregation::Sum(0),
            Aggregation::Sum(2),
            Aggregation::Min(1),
            Aggregation::Max(3),
            Aggregation::Avg(2),
        ] {
            let q = Query::new(vec![], agg).unwrap();
            let (expected, ec) = run(&ds, &q, &plan, KernelTier::Scalar, 1);
            for tier in KernelTier::ALL {
                let (res, counters) = run(&src, &q, &plan, tier, 1);
                assert_eq!(res, expected, "{agg:?} via {tier:?}");
                assert_eq!(counters, ec, "{agg:?} counters via {tier:?}");
            }
        }
    }
}
