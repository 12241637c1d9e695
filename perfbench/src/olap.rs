//! `olap-tsunami` and `olap-flood`: one table per standard dataset, built
//! by `Database::create_table` from its skewed sample workload, read by one
//! client in a closed loop through `Table::execute`.

use std::hint::black_box;
use std::sync::Arc;

use tsunami_core::{AggResult, Dataset, Query, Workload};
use tsunami_engine::{Database, IndexSpec, Table};
use tsunami_workloads::{perfmon, stocks, taxi, tpch, DatasetBundle};

use crate::common::{
    check_reads, oracle, overhead_frac, read_set, record_read_layers, record_structure,
    repeated_setup, same, subseed, traced_read, tsunami_spec, Deadline, Layers,
    BUILD_QUERIES_PER_TYPE, DATA_SEED, READ_QUERIES_PER_TYPE, ROWS,
};
use crate::report::{timed, BestTimes, Report, Samples, DATASETS};

/// Share of a traced run spent in the untraced loop that
/// `trace.overhead_frac` compares against.
const UNTRACED_SHARE: f64 = 1.0 / 3.0;
/// Which index family the tables are built with.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Tsunami,
    Flood,
}

impl Family {
    fn spec(self) -> IndexSpec {
        match self {
            Family::Tsunami => tsunami_spec(),
            Family::Flood => IndexSpec::flood(),
        }
    }

    /// Metric prefix of the family's planner.
    fn planner(self) -> &'static str {
        match self {
            Family::Tsunami => "index",
            Family::Flood => "flood",
        }
    }
}

/// One dataset's table with its read set and oracle answers.
struct OlapTable {
    suffix: &'static str,
    table: Table,
    reads: Vec<Query>,
    expected: Vec<AggResult>,
}

/// The read workload of dataset `suffix`: the dataset's own skewed query
/// generator under another seed.
fn read_workload(suffix: &str, data: &Dataset, seed: u64) -> Workload {
    let generate = match suffix {
        "tpch" => tpch::workload,
        "taxi" => taxi::workload,
        "perfmon" => perfmon::workload,
        "stocks" => stocks::workload,
        other => unreachable!("unknown dataset {other}"),
    };
    generate(data, READ_QUERIES_PER_TYPE, seed)
}

pub fn run(family: Family, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let bundles = DatasetBundle::standard(ROWS, BUILD_QUERIES_PER_TYPE, DATA_SEED);
    let data: Vec<Arc<Dataset>> = bundles.iter().map(|b| Arc::new(b.data.clone())).collect();
    let reads: Vec<Vec<Query>> = bundles
        .iter()
        .zip(DATASETS)
        .enumerate()
        .map(|(i, (b, suffix))| {
            let workload = read_workload(suffix, &b.data, subseed(seed, 100 + i as u64));
            read_set(&workload, b.data.num_dims())
        })
        .collect();
    let expected: Vec<Vec<AggResult>> =
        reads.iter().zip(&data).map(|(r, d)| oracle(r, d)).collect();

    let spec = family.spec();
    let (db, setup_s) = repeated_setup(|| {
        let mut db = Database::new();
        for ((b, suffix), d) in bundles.iter().zip(DATASETS).zip(&data) {
            db.create_table(suffix, &b.columns, Arc::clone(d), &b.workload, &spec)
                .expect("create table");
        }
        db
    });
    report.set("setup_s", setup_s);

    let tables: Vec<OlapTable> = DATASETS
        .iter()
        .zip(reads)
        .zip(expected)
        .map(|((&suffix, reads), expected)| OlapTable {
            suffix,
            table: db.table(suffix).expect("table exists"),
            reads,
            expected,
        })
        .collect();
    for t in &tables {
        check_reads(&mut report, t.suffix, &t.table, &t.reads, &t.expected);
    }
    let index_bytes: usize = tables.iter().map(|t| t.table.index().size_bytes()).sum();
    report.set("index_bytes", index_bytes as f64);

    // Warm-up pass: the loops below then start on filled caches.
    closed_loop(&mut report, &tables, 0.0);
    if trace {
        traced(&mut report, family, &tables, seconds);
    } else {
        let (_, best) = closed_loop(&mut report, &tables, seconds);
        report.set("read_best_p50_us", best.p50());
        report.set("read_best_mean_us", best.mean());
    }
    report
}

/// Whole passes over every table's reads through `Table::execute` until
/// `seconds` have passed (at least one pass). Returns every read's latency
/// and each distinct read's best; every answer is compared with the
/// oracle's.
fn closed_loop(report: &mut Report, tables: &[OlapTable], seconds: f64) -> (Samples, BestTimes) {
    let mut all = Samples::default();
    let mut best = BestTimes::default();
    let deadline = Deadline::new(seconds);
    loop {
        let mut op = 0;
        for t in tables {
            for (q, want) in t.reads.iter().zip(&t.expected) {
                let (got, us) = timed(|| t.table.execute(black_box(q)));
                all.push(us);
                best.observe(op, us);
                op += 1;
                report.attempted += 1;
                match got {
                    Ok(got) if same(&got, want) => {}
                    Ok(got) => report.wrong_answer(format!("{}: {q:?} gave {got:?}", t.suffix)),
                    Err(e) => report.wrong_answer(format!("{}: {q:?} failed: {e}", t.suffix)),
                }
            }
        }
        if !deadline.running() {
            return (all, best);
        }
    }
}

/// The traced run: an untraced loop for the overhead baseline, then traced
/// passes in which each read runs through `Table::execute` and then through
/// the plan and scan layers it is made of.
fn traced(report: &mut Report, family: Family, tables: &[OlapTable], seconds: f64) {
    let (untraced, best) = closed_loop(report, tables, seconds * UNTRACED_SHARE);
    report.set("ops_per_s", best.ops_per_s());
    let mut layers: Vec<Layers> = tables.iter().map(|_| Layers::default()).collect();
    let deadline = Deadline::new(seconds * (1.0 - UNTRACED_SHARE));
    let mut layers_first = false;
    while deadline.running() {
        for (t, l) in tables.iter().zip(&mut layers) {
            for (q, want) in t.reads.iter().zip(&t.expected) {
                report.attempted += 1;
                layers_first = !layers_first;
                let Some(r) = traced_read(&t.table, q, layers_first) else {
                    report.wrong_answer(format!(
                        "{}: {q:?} errored or its layers disagreed",
                        t.suffix
                    ));
                    continue;
                };
                if !same(&r.answer, want) {
                    report.wrong_answer(format!("{}: {q:?} gave {:?}", t.suffix, r.answer));
                }
                l.add(&r);
            }
        }
    }

    let planner = family.planner();
    let mut all = Layers::default();
    for (t, l) in tables.iter().zip(&layers) {
        let ds = t.suffix;
        report.set(format!("read_p50_us.{ds}"), l.execute.p50());
        report.set(format!("{planner}.plan_p50_us.{ds}"), l.plan.p50());
        report.set(format!("exec.scan_p50_us.{ds}"), l.scan.p50());
        report.set(format!("exec.points_per_query.{ds}"), l.per_read(l.points));
        report.set(
            format!("index_bytes.{ds}"),
            t.table.index().size_bytes() as f64,
        );
        all.merge(l);
    }
    record_read_layers(report, planner, &all);
    report.set("read_p50_us", all.execute.p50());
    report.set("read_p99_us", all.execute.p99());
    report.set("trace.overhead_frac", overhead_frac(&all, &untraced));

    record_structure(report, planner, tables.iter().map(|t| &t.table));
}
