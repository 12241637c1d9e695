//! Pieces every workload shares: the build configuration, the read set,
//! the answer check, repeated set-up, and the on-disk scratch directory.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tsunami_core::{exec, AggResult, Aggregation, Dataset, Query, ScanCounters, Workload};
use tsunami_engine::{IndexSpec, Table};
use tsunami_index::{TsunamiConfig, TsunamiIndex};
use tsunami_workloads::tpch;

use crate::report::{median, ratio, timed, Report, Samples};

/// Largest accepted gap between the traced `Table::execute` time and the
/// sum of its measured layers (validation + plan + scan), as a share of the
/// former. Also stated in BENCHMARK.json.
pub const SELF_TIME_TOLERANCE: f64 = 0.10;

/// Seed of every table's initial rows and of the sample workload its index
/// is optimized for. These are fixed, like a standard benchmark database, so
/// index layouts do not change from seed to seed; `--seed` draws what runs
/// against them: read predicates, inserted rows, deleted ranges.
pub const DATA_SEED: u64 = 42;
/// Rows per generated table.
pub const ROWS: usize = 20_000;
/// Queries per type in the sample workload each index is optimized for.
pub const BUILD_QUERIES_PER_TYPE: usize = 5;
/// Queries per type in the read set, drawn from the same skewed
/// distribution with another seed.
pub const READ_QUERIES_PER_TYPE: usize = 20;
/// Times each workload's set-up runs; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The Tsunami build configuration. The shipped default optimizer takes
/// 4–16 s per table at these sizes, too long to set up several times per
/// run, so the benchmark builds with the reduced optimizer budget the
/// library ships as `TsunamiConfig::fast`.
pub fn tsunami_config() -> TsunamiConfig {
    TsunamiConfig::fast()
}

pub fn tsunami_spec() -> IndexSpec {
    IndexSpec::Tsunami(tsunami_config())
}

/// The TPC-H table of the ingest and serving workloads, with its sample
/// workload: the same rows and sample as the olap workloads' TPC-H table.
pub fn fixed_tpch() -> (Dataset, Workload) {
    let data = tpch::generate(ROWS, DATA_SEED);
    let workload = tpch::workload(&data, BUILD_QUERIES_PER_TYPE, DATA_SEED ^ 10);
    (data, workload)
}

/// Seeds derived from the run seed, one per purpose.
pub fn subseed(seed: u64, purpose: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ purpose.wrapping_mul(0xff51_afd7_ed55_8ccd)
}

/// Each predicate set of `workload` under COUNT, SUM, MIN, MAX and AVG, the
/// aggregated column rotating over the table's columns.
pub fn read_set(workload: &Workload, num_dims: usize) -> Vec<Query> {
    let mut reads = Vec::with_capacity(workload.len() * 5);
    for (i, q) in workload.queries().iter().enumerate() {
        let dim = i % num_dims;
        for agg in [
            Aggregation::Count,
            Aggregation::Sum(dim),
            Aggregation::Min(dim),
            Aggregation::Max(dim),
            Aggregation::Avg(dim),
        ] {
            reads.push(Query::new(q.predicates().to_vec(), agg).expect("valid read"));
        }
    }
    reads
}

/// Full-scan oracle answers for `reads` over `live` rows.
pub fn oracle(reads: &[Query], live: &Dataset) -> Vec<AggResult> {
    reads.iter().map(|q| q.execute_full_scan(live)).collect()
}

/// Executes every read once through `Table::execute` and compares it with
/// the oracle; each mismatch or error is a failed op.
pub fn check_reads(
    report: &mut Report,
    what: &str,
    table: &Table,
    reads: &[Query],
    expected: &[AggResult],
) {
    for (q, want) in reads.iter().zip(expected) {
        report.attempted += 1;
        match table.execute(q) {
            Ok(got) if same(&got, want) => {}
            Ok(got) => report.wrong_answer(format!("{what}: {q:?} gave {got:?}, want {want:?}")),
            Err(e) => report.wrong_answer(format!("{what}: {q:?} failed: {e}")),
        }
    }
}

/// Bit-identical comparison (AVG compares the float's bits).
pub fn same(a: &AggResult, b: &AggResult) -> bool {
    match (a, b) {
        (AggResult::Avg(x), AggResult::Avg(y)) => x.map(f64::to_bits) == y.map(f64::to_bits),
        _ => a == b,
    }
}

/// Runs `setup` [`SETUP_REPS`] times and returns the last result with the
/// median wall time in seconds. Earlier results are dropped before the next
/// repetition starts.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (out, us) = timed(&mut setup);
        times.push(us / 1e6);
        last = Some(out);
    }
    (last.expect("at least one repetition"), median(&times))
}

/// One traced read: the engine call, then the layers it is made of, each
/// timed separately from the benchmark's side.
pub struct TracedRead {
    pub answer: AggResult,
    /// `Table::execute`, microseconds.
    pub execute_us: f64,
    /// Boundary validation (`Query::validate_dims`), microseconds.
    pub validate_us: f64,
    /// `MultiDimIndex::plan`, microseconds.
    pub plan_us: f64,
    /// `exec::execute_plan`, microseconds.
    pub scan_us: f64,
    pub ranges: usize,
    pub partials: usize,
    pub counters: ScanCounters,
    /// Whether the layers ran before the engine call.
    pub layers_first: bool,
}

/// Executes `q` through `Table::execute` and through the layers it is made
/// of. Whichever runs second finds the caches the first one filled, so
/// callers alternate `layers_first` to give both sides the same share of
/// cold starts. Returns `None` when the engine call errors or the layers
/// disagree with it.
pub fn traced_read(table: &Table, q: &Query, layers_first: bool) -> Option<TracedRead> {
    let index = table.index();
    let layers = || {
        let (valid, validate_us) = timed(|| q.validate_dims(table.num_columns()));
        let (plan, plan_us) = timed(|| index.plan(q));
        let ((answer, counters), scan_us) = timed(|| exec::execute_plan(index.source(), q, &plan));
        valid.ok().map(|()| TracedRead {
            answer,
            execute_us: 0.0,
            validate_us,
            plan_us,
            scan_us,
            ranges: plan.num_ranges(),
            partials: plan.partials().len(),
            counters,
            layers_first,
        })
    };
    let engine = || timed(|| table.execute(std::hint::black_box(q)));
    let (mut traced, (answer, execute_us)) = if layers_first {
        let traced = layers();
        (traced, engine())
    } else {
        let engine = engine();
        (layers(), engine)
    };
    let answer = answer.ok()?;
    if let Some(t) = traced.as_mut() {
        t.execute_us = execute_us;
    }
    traced.filter(|t| same(&t.answer, &answer))
}

/// A closed-loop timer: `running()` is true until `seconds` have passed.
pub struct Deadline {
    start: Instant,
    seconds: f64,
}

impl Deadline {
    pub fn new(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
        }
    }

    pub fn running(&self) -> bool {
        self.elapsed() < self.seconds
    }

    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// A scratch directory under the working directory, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(workload: &str) -> std::io::Result<Self> {
        let dir =
            PathBuf::from(".perfbench-tmp").join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; this fails harmlessly while
        // another run still uses it.
        let _ = std::fs::remove_dir(".perfbench-tmp");
    }
}

/// Bytes of every file directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The build and structure metrics of `tables`' indexes under `planner`'s
/// prefix: Σ optimize and sort seconds, and for Tsunami Σ leaf regions and
/// Σ grid cells.
pub fn record_structure<'a>(
    report: &mut Report,
    planner: &str,
    tables: impl Iterator<Item = &'a Table>,
) {
    let (mut optimize_s, mut sort_s, mut regions, mut cells) = (0.0, 0.0, 0, 0);
    for t in tables {
        let timing = t.index().build_timing();
        optimize_s += timing.optimize_secs;
        sort_s += timing.sort_secs;
        if let Some(tsunami) = t
            .index()
            .as_any()
            .and_then(|a| a.downcast_ref::<TsunamiIndex>())
        {
            let stats = tsunami.stats();
            regions += stats.num_leaf_regions;
            cells += stats.total_grid_cells;
        }
    }
    report.set(format!("{planner}.optimize_s"), optimize_s);
    report.set(format!("{planner}.sort_s"), sort_s);
    if planner == "index" {
        report.set("index.leaf_regions", regions as f64);
        report.set("index.grid_cells", cells as f64);
    }
}

/// Per-layer accumulators of traced reads.
#[derive(Default)]
pub struct Layers {
    pub execute: Samples,
    /// `Table::execute` of the reads whose engine call ran first, on the
    /// same caches an untraced read finds.
    pub engine_first: Samples,
    pub validate: Samples,
    pub plan: Samples,
    pub scan: Samples,
    pub ranges: usize,
    pub partials: usize,
    pub points: usize,
    pub matched: usize,
    pub prefolded: usize,
}

impl Layers {
    pub fn merge(&mut self, o: &Layers) {
        self.execute.extend(&o.execute);
        self.engine_first.extend(&o.engine_first);
        self.validate.extend(&o.validate);
        self.plan.extend(&o.plan);
        self.scan.extend(&o.scan);
        self.ranges += o.ranges;
        self.partials += o.partials;
        self.points += o.points;
        self.matched += o.matched;
        self.prefolded += o.prefolded;
    }

    pub fn per_read(&self, total: usize) -> f64 {
        ratio(total as f64, self.execute.len() as f64)
    }

    /// Folds one traced read in.
    pub fn add(&mut self, r: &TracedRead) {
        self.execute.push(r.execute_us);
        if !r.layers_first {
            self.engine_first.push(r.execute_us);
        }
        self.validate.push(r.validate_us);
        self.plan.push(r.plan_us);
        self.scan.push(r.scan_us);
        self.ranges += r.ranges;
        self.partials += r.partials;
        self.points += r.counters.points;
        self.matched += r.counters.matched;
        self.prefolded += r.counters.rows_prefolded;
    }
}

/// The read-path per-layer metrics of traced reads, and the self-time
/// check: validation + plan + scan must add up to `Table::execute`.
pub fn record_read_layers(report: &mut Report, planner: &str, l: &Layers) {
    let execute = l.execute.sum();
    let plan = l.plan.sum();
    let scan = l.scan.sum();
    let parts = l.validate.sum() + plan + scan;
    let gap = ratio((execute - parts).abs(), execute);
    report.set("trace.self_time_gap", gap);
    if gap > SELF_TIME_TOLERANCE {
        report.problem(format!(
            "traced layers sum to {parts:.0} us of {execute:.0} us in Table::execute \
             (gap {gap:.3} > {SELF_TIME_TOLERANCE})"
        ));
    }
    let n = l.execute.len() as f64;
    report.set(format!("{planner}.plan_p50_us"), l.plan.p50());
    report.set(format!("{planner}.plan_share"), ratio(plan, execute));
    report.set(format!("{planner}.ranges_per_query"), l.per_read(l.ranges));
    if planner == "index" {
        report.set("index.partials_per_query", l.per_read(l.partials));
    }
    report.set("exec.scan_p50_us", l.scan.p50());
    report.set("exec.points_per_query", l.per_read(l.points));
    report.set("exec.matched_per_query", l.per_read(l.matched));
    report.set("exec.rows_prefolded_per_query", l.per_read(l.prefolded));
    report.set(
        "exec.scan_efficiency",
        ratio((l.matched - l.prefolded) as f64, l.points as f64),
    );
    report.set("exec.ns_per_point", ratio(scan * 1e3, l.points as f64));
    report.set("engine.read_overhead_us", ratio(execute - plan - scan, n));
}

/// `trace.overhead_frac`: how much slower `Table::execute` reads under
/// tracing than untraced, from alternating untraced and traced passes over
/// `reads` for about `seconds`.
pub fn trace_overhead(table: &Table, reads: &[Query], seconds: f64) -> f64 {
    let mut untraced = Samples::default();
    let mut traced = Layers::default();
    let deadline = Deadline::new(seconds);
    let mut layers_first = false;
    while deadline.running() {
        for q in reads {
            untraced.push(timed(|| table.execute(std::hint::black_box(q))).1);
        }
        for q in reads {
            layers_first = !layers_first;
            if let Some(r) = traced_read(table, q, layers_first) {
                traced.add(&r);
            }
        }
    }
    overhead_frac(&traced, &untraced)
}

/// Traced over untraced `Table::execute` p50, minus one.
pub fn overhead_frac(traced: &Layers, untraced: &Samples) -> f64 {
    ratio(traced.engine_first.p50(), untraced.p50()) - 1.0
}
