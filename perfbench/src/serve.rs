//! The serving layers: a loopback `tsunami-server` over a 2-shard
//! `ShardedDatabase` of TPC-H Tsunami tables, driven over 2 client
//! connections with reads over all five aggregations. The traced run of
//! `ingest-durable` runs this after its own measurements; every figure here
//! is per-layer.
//!
//! Phase A is an open loop at a fixed offered rate, 90% reads and 10%
//! inserts; each op's latency counts from its scheduled send time. Phase B
//! is a closed loop of reads on both connections and measures capacity.
//! Before them, probes on the idle server time one connection's round
//! trips, `ShardedTable::execute`, each shard's `Table::execute` and the
//! wire codec.
//!
//! The served path has no end-to-end figure of its own. On a small shared
//! host every read statistic of it (p50, low percentiles, each read's best
//! on one or two connections, capacity) spread by 16-43% between runs of
//! the same code: each read hands off between four threads, and how fast
//! those wake-ups are changes with the host from one run to the next. That
//! is past any bound a comparison of two commits could use.
//!
//! Every read is checked against an unsharded full-scan oracle before the
//! run, and again after the run with the acknowledged inserts replayed into
//! the oracle.

use std::net::SocketAddr;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use tsunami_core::{AggResult, Aggregation, Dataset, Point, Query};
use tsunami_engine::{ShardedDatabase, ShardedTable};
use tsunami_server::{Client, Request, Response, Server, ServerConfig};
use tsunami_workloads::tpch;

use crate::common::{
    fixed_tpch, oracle, read_set, same, subseed, tsunami_spec, Deadline, READ_QUERIES_PER_TYPE,
};
use crate::report::{ratio, timed, Report, Samples, Timeline};

const TABLE: &str = "lineitem";
const SHARDS: usize = 2;
const CONNECTIONS: usize = 2;
/// Phase A's offered load, ops/s, below the knee of this workload's
/// capacity on a 2-core host. Also stated in BENCHMARK.json; keep it fixed
/// so every commit is offered the same load.
pub const OFFERED_OPS_PER_S: f64 = 150.0;
/// Share of the serving seconds spent in phase A; phase B gets the rest.
const OPEN_LOOP_SHARE: f64 = 0.5;
/// Every `INSERT_EVERY`-th op is an insert (a 10% write mix).
const INSERT_EVERY: usize = 10;
/// Rows per insert op.
const INSERT_ROWS: usize = 8;
/// Distinct insert batches; op `k`'s batch is `k % INSERT_POOL`.
const INSERT_POOL: usize = 1024;
/// A generator whose p99 lateness passes one per-connection send interval
/// has fallen behind its schedule (sends bunch up); phase A's latencies are
/// then reported invalid rather than slow.
const LATE_LIMIT_US: f64 = 1e6 * CONNECTIONS as f64 / OFFERED_OPS_PER_S;
/// Seconds of the idle-server probes of a traced run.
const PROBE_SECONDS: f64 = 1.0;

/// The inputs of one run, shared read-only by the client threads.
struct Inputs {
    reads: Vec<Query>,
    inserts: Vec<Vec<Point>>,
}

impl Inputs {
    fn is_insert(op: usize) -> bool {
        op % INSERT_EVERY == INSERT_EVERY - 1
    }

    fn read(&self, op: usize) -> &Query {
        &self.reads[op % self.reads.len()]
    }

    fn insert(&self, op: usize) -> &[Point] {
        &self.inserts[op % self.inserts.len()]
    }
}

/// What one connection saw in a phase.
#[derive(Default)]
struct ConnStats {
    /// Read latencies (open loop only).
    reads: Samples,
    late: Samples,
    ops: usize,
    errors: usize,
    /// Op numbers of the inserts the server acknowledged.
    inserted_ops: Vec<usize>,
    /// Completions on the phase's clock (closed loop only).
    timeline: Timeline,
}

impl ConnStats {
    fn merge(&mut self, o: ConnStats) {
        self.reads.extend(&o.reads);
        self.late.extend(&o.late);
        self.ops += o.ops;
        self.errors += o.errors;
        self.inserted_ops.extend(o.inserted_ops);
        self.timeline.merge(o.timeline);
    }
}

/// Sends op `op` and checks the reply's shape; returns whether it succeeded.
fn send(client: &mut Client, inputs: &Inputs, op: usize, stats: &mut ConnStats) -> bool {
    if Inputs::is_insert(op) {
        let rows = inputs.insert(op);
        let ok = matches!(client.insert(TABLE, rows.to_vec()), Ok(n) if n == rows.len() as u64);
        if ok {
            stats.inserted_ops.push(op);
        }
        ok
    } else {
        read(client, inputs.read(op))
    }
}

/// Sends one read and checks the reply's shape; returns whether it
/// succeeded. (Its value is checked after the run, against the oracle.)
fn read(client: &mut Client, q: &Query) -> bool {
    match client.query(TABLE, q.predicates().to_vec(), q.aggregation()) {
        Ok(r) => matches!(
            (q.aggregation(), r),
            (Aggregation::Count, AggResult::Count(_))
                | (Aggregation::Sum(_), AggResult::Sum(_))
                | (Aggregation::Min(_), AggResult::Min(_))
                | (Aggregation::Max(_), AggResult::Max(_))
                | (Aggregation::Avg(_), AggResult::Avg(_))
        ),
        Err(_) => false,
    }
}

/// Runs the serving phases for about `seconds` (plus set-up and idle
/// probes) and records the serving layers' per-layer metrics in `report`.
pub fn serving_layers(report: &mut Report, seed: u64, seconds: f64) {
    let (data, build_workload) = fixed_tpch();
    let read_workload = tpch::workload(&data, READ_QUERIES_PER_TYPE, subseed(seed, 302));
    let fresh = tpch::generate(INSERT_POOL * INSERT_ROWS, subseed(seed, 303));
    let rows: Vec<Point> = fresh.rows().collect();
    let inputs = Inputs {
        reads: read_set(&read_workload, tpch::COLUMNS.len()),
        inserts: rows.chunks(INSERT_ROWS).map(<[Point]>::to_vec).collect(),
    };

    let mut sharded = ShardedDatabase::new(SHARDS);
    sharded
        .create_table(
            TABLE,
            &tpch::COLUMNS,
            &data,
            &build_workload,
            &tsunami_spec(),
        )
        .expect("create sharded table");
    check_against_oracle(report, "before serving", &sharded, &inputs.reads, &data);

    let db = Arc::new(RwLock::new(sharded));
    let mut server = Server::spawn(Arc::clone(&db), ServerConfig::default()).expect("bind server");
    let addr = server.addr();
    let table = db
        .read()
        .expect("database lock")
        .table(TABLE)
        .expect("table");
    idle_probes(report, addr, &table, &inputs);
    drop(table);

    let open_seconds = seconds * OPEN_LOOP_SHARE;
    let open_ops = (OFFERED_OPS_PER_S * open_seconds).round() as usize;
    let (open, open_wall) = open_loop(addr, &inputs, open_ops);
    let (closed, closed_wall) = closed_loop(addr, &inputs, seconds - open_seconds);
    let errors = open.errors + closed.errors;
    report.attempted += (open.ops + closed.ops) as u64;
    report.failed += errors as u64;
    if errors > 0 {
        report.problem(format!("{errors} ops failed over the wire"));
    }
    let late_p99 = open.late.p99();
    let open_valid = late_p99 <= LATE_LIMIT_US;
    if !open_valid {
        eprintln!(
            "perfbench: phase A is invalid: the generator ran {late_p99:.0} us late at p99 \
             (limit {LATE_LIMIT_US:.0} us); its latencies are not reported"
        );
    }
    let (passes, reoptimized) = (server.daemon().passes(), server.daemon().reoptimized());
    server.shutdown();
    drop(server);

    let sharded = Arc::try_unwrap(db)
        .expect("the server released the database")
        .into_inner()
        .expect("database lock");
    // Only phase A inserts; the oracle takes the rows the server
    // acknowledged, in any order (every aggregate is order-free).
    let mut grown = data.clone();
    for &op in &open.inserted_ops {
        for row in inputs.insert(op) {
            grown.push_row(row).expect("valid row");
        }
    }
    check_against_oracle(report, "after serving", &sharded, &inputs.reads, &grown);

    report.set("capacity_ops_per_s", closed.timeline.rate(closed_wall));
    report.set("loadgen.late_p99_us", late_p99);
    report.set("loadgen.offered_ops_per_s", open.ops as f64 / open_wall);
    report.set("loadgen.open_valid", open_valid as u8 as f64);
    if open_valid {
        report.set("loadgen.open_read_p50_us", open.reads.p50());
        report.set("loadgen.open_read_p99_us", open.reads.p99());
    }
    report.set("daemon.passes", passes as f64);
    report.set("daemon.reoptimized", reoptimized as f64);
}

/// Compares every read through `ShardedTable::execute` with a full scan of
/// `live`, the unsharded rows the shards should hold together.
fn check_against_oracle(
    report: &mut Report,
    when: &str,
    sharded: &ShardedDatabase,
    reads: &[Query],
    live: &Dataset,
) {
    let table = sharded.table(TABLE).expect("table");
    if table.num_rows() != live.len() {
        report.wrong_answer(format!(
            "{when}: the shards hold {} rows, the oracle {}",
            table.num_rows(),
            live.len()
        ));
    }
    for (q, want) in reads.iter().zip(oracle(reads, live)) {
        report.attempted += 1;
        match table.execute(q) {
            Ok(got) if same(&got, &want) => {}
            got => report.wrong_answer(format!("{when}: {q:?} gave {got:?}, want {want:?}")),
        }
    }
}

/// Phase A: ops `0..n` due at `i / rate` seconds, connection `c` sending
/// the ops with `i % CONNECTIONS == c`. Returns the merged stats and the
/// phase's wall time.
fn open_loop(addr: SocketAddr, inputs: &Inputs, n: usize) -> (ConnStats, f64) {
    let epoch = Instant::now();
    let per_conn: Vec<ConnStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut stats = ConnStats::default();
                    let mut free_at = Duration::ZERO;
                    for op in (c..n).step_by(CONNECTIONS) {
                        let due = Duration::from_secs_f64(op as f64 / OFFERED_OPS_PER_S);
                        if let Some(wait) = due.checked_sub(epoch.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let sent = epoch.elapsed();
                        // Late only by the generator's own fault: the
                        // connection was free, yet the send came after due.
                        stats
                            .late
                            .push(sent.saturating_sub(due.max(free_at)).as_secs_f64() * 1e6);
                        let ok = send(&mut client, inputs, op, &mut stats);
                        free_at = epoch.elapsed();
                        if !Inputs::is_insert(op) {
                            stats
                                .reads
                                .push(free_at.saturating_sub(due).as_secs_f64() * 1e6);
                        }
                        stats.ops += 1;
                        stats.errors += !ok as usize;
                    }
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let wall = epoch.elapsed().as_secs_f64();
    let mut all = ConnStats::default();
    for s in per_conn {
        all.merge(s);
    }
    (all, wall)
}

/// Phase B: both connections send reads back to back for `seconds`,
/// connection `c` sending ops `c`, `c + CONNECTIONS`, ...
fn closed_loop(addr: SocketAddr, inputs: &Inputs, seconds: f64) -> (ConnStats, f64) {
    let start = Instant::now();
    let per_conn: Vec<ConnStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut stats = ConnStats::default();
                    let deadline = Deadline::new(seconds);
                    let mut op = c;
                    while deadline.running() {
                        let ok = read(&mut client, inputs.read(op));
                        stats.timeline.op(start.elapsed().as_secs_f64());
                        stats.ops += 1;
                        stats.errors += !ok as usize;
                        op += CONNECTIONS;
                    }
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut all = ConnStats::default();
    for s in per_conn {
        all.merge(s);
    }
    (all, wall)
}

/// Traced-run probes on the idle server: round trips on one connection,
/// the same reads through `ShardedTable::execute` and through each shard's
/// `Table::execute`, and the wire codec alone.
fn idle_probes(report: &mut Report, addr: SocketAddr, table: &ShardedTable, inputs: &Inputs) {
    let mut client = Client::connect(addr).expect("connect");
    let mut rtt = Samples::default();
    let mut sharded = Samples::default();
    let mut per_shard_sum = 0.0;
    let mut sharded_sum = 0.0;
    let mut codec = Samples::default();
    let mut sum_reads = Samples::default();
    let mut avg_reads = Samples::default();
    let deadline = Deadline::new(PROBE_SECONDS);
    while deadline.running() {
        for q in &inputs.reads {
            let (answer, us) =
                timed(|| client.query(TABLE, q.predicates().to_vec(), q.aggregation()));
            rtt.push(us);
            let (local, sharded_us) = timed(|| table.execute(q));
            sharded.push(sharded_us);
            sharded_sum += sharded_us;
            match q.aggregation() {
                Aggregation::Sum(_) => sum_reads.push(sharded_us),
                Aggregation::Avg(_) => avg_reads.push(sharded_us),
                _ => {}
            }
            for shard in table.shard_tables() {
                per_shard_sum += timed(|| shard.execute(q)).1;
            }
            let (Ok(answer), Ok(local)) = (answer, local) else {
                report.wrong_answer(format!("idle probe: {q:?} failed"));
                continue;
            };
            if !same(&answer, &local) {
                report.wrong_answer(format!(
                    "idle probe: {q:?} gave {answer:?} over the wire, {local:?} in process"
                ));
            }
            codec.push(codec_round_trip(q, answer));
        }
    }
    report.set("server.rtt_p50_us", rtt.p50());
    report.set("sharded.execute_p50_us", sharded.p50());
    report.set("server.wire_us", rtt.p50() - sharded.p50());
    report.set(
        "sharded.avg_over_sum",
        ratio(avg_reads.p50(), sum_reads.p50()),
    );
    report.set("sharded.scatter_speedup", ratio(per_shard_sum, sharded_sum));
    report.set("protocol.codec_us", codec.p50());
}

/// Microseconds to encode and decode one read request and its response.
fn codec_round_trip(q: &Query, answer: AggResult) -> f64 {
    let request = Request::Query {
        table: TABLE.to_string(),
        predicates: q.predicates().to_vec(),
        aggregation: q.aggregation(),
    };
    let response = Response::Result(answer);
    let (ok, us) = timed(|| {
        let req = Request::decode(&request.encode().ok()?).ok()?;
        let resp = Response::decode(&response.encode().ok()?).ok()?;
        Some(std::hint::black_box((req, resp)))
    });
    assert!(ok.is_some(), "the codec round-trips a valid frame");
    us
}
