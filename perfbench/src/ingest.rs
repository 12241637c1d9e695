//! `ingest-durable`: one Tsunami TPC-H table in a durable database
//! directory. One client runs a fixed closed-loop schedule: each step
//! inserts a batch and then reads; every few steps a predicate delete
//! tombstones a date range, and halfway through the database checkpoints.
//! The schedule runs several times, each time on a freshly set-up
//! database, so every operation has repetitions to take its best time
//! from. After the last run the database is closed and reopened, and must
//! answer exactly as it did before closing. A traced run then measures the
//! serving layers too (see [`crate::serve`]).

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tsunami_core::{AggResult, Dataset, Point, Predicate, Query};
use tsunami_engine::Database;
use tsunami_index::TsunamiIndex;
use tsunami_store::wal::{self, Wal, WalRecord};
use tsunami_workloads::tpch;

use crate::common::{
    check_reads, dir_bytes, fixed_tpch, oracle, read_set, record_read_layers, record_structure,
    same, subseed, trace_overhead, traced_read, tsunami_config, tsunami_spec, Layers, ScratchDir,
    READ_QUERIES_PER_TYPE,
};
use crate::report::{median, ratio, timed, BestTimes, Report, Samples};
use crate::serve;

const TABLE: &str = "lineitem";
/// Rows per inserted batch.
const BATCH_ROWS: usize = 64;
/// Reads after each insert.
const READS_PER_STEP: usize = 20;
/// A delete every this many steps.
const DELETE_EVERY: usize = 8;
/// Ship-date days one delete removes.
const DELETE_DAYS: u64 = 7;
/// Steps per requested second, spread over the [`REPEATS`] runs: the
/// schedule is fixed by `--seconds`, not by how fast the code runs, so
/// parent and change do the same work.
const STEPS_PER_SECOND: f64 = 30.0;
/// Runs of the schedule, each on a freshly set-up database. Each
/// operation's end-to-end time is its fastest run (see [`BestTimes`]) and
/// `setup_s` the median set-up; only the last run is traced, closed and
/// reopened.
const REPEATS: usize = 5;
/// Seconds of alternating untraced and traced read passes behind
/// `trace.overhead_frac`.
const OVERHEAD_SECONDS: f64 = 1.0;
/// Share of `--seconds` a traced run spends on the serving layers' phases,
/// after its own measurements.
const SERVING_SHARE: f64 = 0.5;
/// Shipdate column of the TPC-H table.
const SHIPDATE: usize = 5;

/// The fixed operation schedule of one run.
struct Schedule {
    batches: Vec<Vec<Point>>,
    deletes: Vec<Predicate>,
    reads: Vec<Query>,
}

impl Schedule {
    fn new(data: &Dataset, seed: u64, seconds: f64) -> Self {
        let steps = ((seconds * STEPS_PER_SECOND / REPEATS as f64).round() as usize).max(2);
        let fresh = tpch::generate(steps * BATCH_ROWS, subseed(seed, 201));
        let rows: Vec<Point> = fresh.rows().collect();
        let batches = rows.chunks(BATCH_ROWS).map(<[Point]>::to_vec).collect();
        let mut day = subseed(seed, 202) % tpch::DATE_DOMAIN;
        let deletes = (0..steps / DELETE_EVERY)
            .map(|_| {
                day = (day + 331) % (tpch::DATE_DOMAIN - DELETE_DAYS);
                Predicate::range(SHIPDATE, day, day + DELETE_DAYS - 1).expect("valid range")
            })
            .collect();
        let workload = tpch::workload(data, READ_QUERIES_PER_TYPE, subseed(seed, 204));
        Self {
            batches,
            deletes,
            reads: read_set(&workload, tpch::COLUMNS.len()),
        }
    }
}

/// Timings of the write path. In a traced run each insert is preceded by
/// the index-layer ingest and a side-log append + commit of the same batch.
#[derive(Default)]
struct Writes {
    insert: Samples,
    delete: Samples,
    index_ingest: Samples,
    wal_append: Samples,
    wal_commit: Samples,
    insert_other: Samples,
    rows_inserted: usize,
    regions_touched: usize,
    regions_reoptimized: usize,
    rebuilds: usize,
    checkpoint_s: f64,
}

/// What the traced run records besides the operations' times.
struct Trace {
    /// The log the WAL layer is timed on, beside the database directory.
    side_log: Wal,
    layers: Layers,
    writes: Writes,
}

/// Best times over the runs of the schedule.
#[derive(Default)]
struct Best {
    /// Each operation's, numbered in schedule order so that the runs line
    /// up.
    ops: BestTimes,
    /// Each distinct read's, over every step it runs at: as in the other
    /// workloads, a read is one query of the read set.
    reads: BestTimes,
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let (data, build_workload) = fixed_tpch();
    let schedule = Schedule::new(&data, seed, seconds);
    let data = Arc::new(data);
    let scratch = ScratchDir::new("ingest-durable").expect("create scratch directory");
    let dir = scratch.path().join("db");
    let spec = tsunami_spec();

    let mut setups = Vec::with_capacity(REPEATS);
    let mut best = Best::default();
    let mut traced = None;
    let mut db = None;
    for repeat in 0..REPEATS {
        // The previous run's database closes before its directory goes.
        drop(db.take());
        let (mut fresh, us) = timed(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let mut db = Database::open(&dir).expect("open durable database");
            db.create_table(
                TABLE,
                &tpch::COLUMNS,
                Arc::clone(&data),
                &build_workload,
                &spec,
            )
            .expect("create table");
            db
        });
        setups.push(us / 1e6);
        if trace && repeat + 1 == REPEATS {
            traced = Some(Trace {
                side_log: Wal::create(&scratch.path().join("side.log")).expect("create side log"),
                layers: Layers::default(),
                writes: Writes::default(),
            });
        }
        run_schedule(
            &mut report,
            &mut fresh,
            &schedule,
            traced.as_mut(),
            &mut best,
        );
        db = Some(fresh);
    }
    let db = db.expect("at least one run");
    report.set("setup_s", median(&setups));

    let table = db.table(TABLE).expect("table exists");
    let live_rows = table.num_rows();
    let before_close = oracle(&schedule.reads, table.dataset());
    check_reads(
        &mut report,
        "before close",
        &table,
        &schedule.reads,
        &before_close,
    );
    report.set("index_bytes", table.index().size_bytes() as f64);
    let overhead = trace.then(|| {
        record_structure(&mut report, "index", std::iter::once(&table));
        trace_overhead(&table, &schedule.reads, OVERHEAD_SECONDS)
    });
    drop(table);
    drop(db);
    let traced = traced.map(|t| {
        drop(t.side_log);
        (t.layers, t.writes)
    });

    let user_bytes = (live_rows * tpch::COLUMNS.len() * 8) as f64;
    let disk_bytes = dir_bytes(&dir) as f64;
    let replayed = trace.then(|| replay_logs(&dir));
    let recover_s = recover(&mut report, &dir, &schedule.reads, &before_close, live_rows);

    if let Some((layers, writes)) = traced {
        report.set("trace.overhead_frac", overhead.unwrap_or_default());
        record_read_layers(&mut report, "index", &layers);
        record_writes(&mut report, &writes, schedule.batches.len());
        report.set("ops_per_s", best.ops.ops_per_s());
        report.set("read_p50_us", layers.execute.p50());
        report.set("read_p99_us", layers.execute.p99());
        if let Some((records, replay_s)) = replayed {
            report.set("wal.replay_s", replay_s);
            report.set("wal.records_replayed", records as f64);
            report.set("engine.recover_rebuild_s", recover_s - replay_s);
        }
        let side_bytes = dir_bytes(scratch.path()) as f64;
        report.set(
            "wal.bytes_per_row",
            ratio(side_bytes, writes.rows_inserted as f64),
        );
        report.set("recover_s", recover_s);
        report.set("disk_bytes_per_user_byte", ratio(disk_bytes, user_bytes));
        drop(scratch);
        serve::serving_layers(&mut report, seed, seconds * SERVING_SHARE);
    } else {
        report.set("read_best_p50_us", best.reads.p50());
        report.set("read_best_mean_us", best.reads.mean());
    }
    report
}

/// Runs the schedule once on a freshly set-up `db`, records each
/// operation's time in `best`, and checks every read against a full scan of
/// the live rows. Reads go through the traced layers when `trace` is given.
fn run_schedule(
    report: &mut Report,
    db: &mut Database,
    schedule: &Schedule,
    mut trace: Option<&mut Trace>,
    best: &mut Best,
) {
    let steps = schedule.batches.len();
    let mut op = 0;
    let mut next_read = 0;
    for (step, batch) in schedule.batches.iter().enumerate() {
        report.attempted += 1;
        best.ops
            .observe(op, insert(report, db, batch, trace.as_deref_mut()));
        op += 1;

        let table = db.table(TABLE).expect("table exists");
        let mut answers = Vec::with_capacity(READS_PER_STEP);
        for _ in 0..READS_PER_STEP {
            let read = next_read % schedule.reads.len();
            let q = &schedule.reads[read];
            next_read += 1;
            report.attempted += 1;
            let answer = match trace.as_deref_mut() {
                Some(t) => traced_read(&table, q, (next_read + step) % 2 == 0).map(|r| {
                    t.layers.add(&r);
                    (r.answer, r.execute_us)
                }),
                None => {
                    let (got, us) = timed(|| table.execute(black_box(q)));
                    got.ok().map(|a| (a, us))
                }
            };
            if let Some((_, us)) = answer {
                best.ops.observe(op, us);
                best.reads.observe(read, us);
            }
            op += 1;
            answers.push((q, answer.map(|(a, _)| a)));
        }
        // The oracle scans the live rows after the step's reads, so its
        // passes over the table do not evict what the reads use.
        for (q, answer) in answers {
            let want = q.execute_full_scan(table.dataset());
            match answer {
                Some(got) if same(&got, &want) => {}
                got => {
                    report.wrong_answer(format!("step {step}: {q:?} gave {got:?}, want {want:?}"))
                }
            }
        }

        if step % DELETE_EVERY == DELETE_EVERY - 1 {
            let predicate = &schedule.deletes[step / DELETE_EVERY];
            report.attempted += 1;
            let (deleted, us) = timed(|| db.delete(TABLE, std::slice::from_ref(predicate)));
            best.ops.observe(op, us);
            op += 1;
            if let Some(t) = trace.as_deref_mut() {
                t.writes.delete.push(us);
            }
            if let Err(e) = deleted {
                report.wrong_answer(format!("delete {predicate:?} failed: {e}"));
            }
        }
        if step == steps / 2 {
            report.attempted += 1;
            let (done, us) = timed(|| db.checkpoint());
            best.ops.observe(op, us);
            op += 1;
            if let Some(t) = trace.as_deref_mut() {
                t.writes.checkpoint_s = us / 1e6;
            }
            if let Err(e) = done {
                report.wrong_answer(format!("checkpoint failed: {e}"));
            }
        }
    }
}

/// One timed `insert_batch`; returns its microseconds. A traced run first
/// times the index layer's ingest of the same batch and the WAL append and
/// commit of the same record on the side log, so the rest of the insert
/// (the store copy and the catalog swap) can be told apart.
fn insert(
    report: &mut Report,
    db: &mut Database,
    batch: &[Point],
    trace: Option<&mut Trace>,
) -> f64 {
    let Some(t) = trace else {
        let (inserted, us) = timed(|| db.insert_batch_with_report(TABLE, batch));
        if let Err(e) = inserted {
            report.wrong_answer(format!("insert_batch failed: {e}"));
        }
        return us;
    };
    let w = &mut t.writes;
    let rows = Dataset::from_rows(tpch::COLUMNS.len(), batch).expect("valid batch");
    let table = db.table(TABLE).expect("table exists");
    let index = table
        .index()
        .as_any()
        .and_then(|a| a.downcast_ref::<TsunamiIndex>())
        .expect("a Tsunami table");
    let config = tsunami_config();
    let (_, ingest_us) =
        timed(|| black_box(index.ingest_with_cost(&rows, db.cost_model(), &config)));
    drop(table);
    let record = WalRecord::InsertBatch {
        table: TABLE.to_string(),
        rows,
    };
    let (appended, append_us) = timed(|| t.side_log.append(&record));
    let (committed, commit_us) = timed(|| t.side_log.commit());
    appended.and(committed).expect("side log write");
    w.index_ingest.push(ingest_us);
    w.wal_append.push(append_us);
    w.wal_commit.push(commit_us);

    let (inserted, us) = timed(|| db.insert_batch_with_report(TABLE, batch));
    w.insert.push(us);
    w.insert_other.push(us - ingest_us - append_us - commit_us);
    match inserted {
        Ok((_, ingest)) => {
            w.rows_inserted += batch.len();
            if let Some(r) = ingest {
                w.regions_touched += r.regions_touched;
                w.regions_reoptimized += r.regions_reoptimized;
                w.rebuilds += r.rebuilt as usize;
            }
        }
        Err(e) => report.wrong_answer(format!("insert_batch failed: {e}")),
    }
    us
}

fn record_writes(report: &mut Report, w: &Writes, steps: usize) {
    report.set("insert_p50_us", w.insert.p50());
    report.set("insert_p99_us", w.insert.p99());
    report.set(
        "ingest_rows_per_s",
        ratio(w.rows_inserted as f64, w.insert.sum() / 1e6),
    );
    report.set("delete_p50_us", w.delete.p50());
    report.set("index.ingest_p50_us", w.index_ingest.p50());
    report.set(
        "index.regions_touched_per_batch",
        ratio(w.regions_touched as f64, steps as f64),
    );
    report.set(
        "index.regions_reoptimized_per_batch",
        ratio(w.regions_reoptimized as f64, steps as f64),
    );
    report.set("index.rebuilds", w.rebuilds as f64);
    report.set("wal.append_us", w.wal_append.p50());
    report.set("wal.commit_us", w.wal_commit.p50());
    report.set("engine.insert_other_us", w.insert_other.p50());
    report.set("engine.checkpoint_s", w.checkpoint_s);
}

/// Decodes the checkpoint and the WAL the way recovery does; returns the
/// records found and the seconds it took.
fn replay_logs(dir: &Path) -> (usize, f64) {
    let start = Instant::now();
    let mut records = 0;
    for file in ["checkpoint.db", "wal.log"] {
        records += wal::replay(&dir.join(file)).map_or(0, |(r, _)| r.len());
    }
    (records, start.elapsed().as_secs_f64())
}

/// Reopens the database, times `Database::open` until the first answer, and
/// checks the row count and every read against the answers taken before
/// closing. Returns the recovery seconds.
fn recover(
    report: &mut Report,
    dir: &Path,
    reads: &[Query],
    before_close: &[AggResult],
    live_rows: usize,
) -> f64 {
    let start = Instant::now();
    let reopened = Database::open(dir).and_then(|db| {
        let table = db.table(TABLE)?;
        let first = table.execute(&reads[0])?;
        Ok((db, table, first))
    });
    let recover_s = start.elapsed().as_secs_f64();
    report.attempted += 1;
    match reopened {
        Ok((_db, table, first)) => {
            if !same(&first, &before_close[0]) {
                report.wrong_answer(format!("after reopen: {:?} gave {first:?}", reads[0]));
            }
            if table.num_rows() != live_rows {
                report.wrong_answer(format!(
                    "after reopen: {} rows, {live_rows} before close",
                    table.num_rows()
                ));
            }
            check_reads(report, "after reopen", &table, reads, before_close);
        }
        Err(e) => report.wrong_answer(format!("reopen failed: {e}")),
    }
    recover_s
}
