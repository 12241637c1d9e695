//! `repro` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [EXPERIMENT] [--rows N] [--queries-per-type N] [--seed N]
//! ```
//!
//! `EXPERIMENT` is one of `table3`, `table4`, `fig7`, `fig7par`,
//! `fig7net`, `fig8`, `fig9a`, `fig9b`, `fig10`, `fig11a`, `fig11b`,
//! `fig12a`, `fig12b`, `fig12kern`, `figmv`, `walbench`, `check-bench`, or
//! `all` (default). Run in release mode:
//! `cargo run --release -p tsunami-bench --bin repro -- fig7`.
//!
//! `fig12kern` additionally writes machine-readable `BENCH_scan.json`
//! (median ns/row per selectivity × predicate count × kernel tier; path
//! overridable via the `BENCH_SCAN_JSON` env var), `fig9b` writes
//! `BENCH_ingest.json` (ingest-vs-rebuild across batch sizes; override via
//! `BENCH_INGEST_JSON`), and `fig7par` writes `BENCH_pool.json`
//! (serial vs pooled executor latency per dataset × index,
//! with the pool's worker count and morsel size; override via
//! `BENCH_POOL_JSON`), and `fig7net` writes `BENCH_net.json` (open-loop
//! QPS sweep over the sharded wire-protocol server: achieved QPS and
//! p50/p95/p99 latency per target; override via `BENCH_NET_JSON`, tune with
//! `TSUNAMI_SHARDS`, `TSUNAMI_NET_QPS`, `TSUNAMI_NET_DURATION_MS`,
//! `TSUNAMI_NET_CONNS`), and `figmv` writes `BENCH_matview.json`
//! (materialized-aggregate covered-query latency, matview on vs off, per
//! coverage × aggregation; override via `BENCH_MATVIEW_JSON`, disable the
//! layer with `TSUNAMI_MATVIEW=off`), and `walbench` writes `BENCH_wal.json`
//! (`Database::open` replay time vs WAL length before/after a checkpoint,
//! plus scan latency under tombstoned and compacted deletes; override via
//! `BENCH_WAL_JSON`) so performance is tracked across PRs.
//!
//! The pool itself is tunable with `TSUNAMI_POOL_THREADS` (worker count,
//! default `available_parallelism`) and `TSUNAMI_MORSEL_ROWS` (rows per
//! cache-resident morsel, default 131072).
//!
//! `check-bench` is the CI regression gate: it re-runs the `fig12kern` and
//! `figmv` smokes and exits non-zero if any median regressed past
//! `max(2.5x, +slack)` of the checked-in baselines under `bench-baselines/`
//! (`BENCH_scan.json` overridable via `BENCH_BASELINE_JSON`). Fresh
//! `BENCH_pool.json` / `BENCH_ingest.json` files from earlier `fig7par` /
//! `fig9b` steps are gated against their committed baselines when present.

use tsunami_bench::experiments;
use tsunami_bench::HarnessConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = "all".to_string();
    let mut config = HarnessConfig::default();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rows" => {
                config.rows = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(config.rows);
                i += 2;
            }
            "--queries-per-type" | "--qpt" => {
                config.queries_per_type = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(config.queries_per_type);
                i += 2;
            }
            "--seed" => {
                config.seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(config.seed);
                i += 2;
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => {
                experiment = other.to_string();
                i += 1;
            }
        }
    }

    eprintln!(
        "# repro: experiment={experiment} rows={} queries/type={} seed={}",
        config.rows, config.queries_per_type, config.seed
    );

    if experiment == "all" {
        experiments::all(&config);
        return;
    }
    if experiment == "check-bench" {
        match experiments::check_bench(&config) {
            Ok(summary) => println!("{summary}"),
            Err(report) => {
                eprintln!("{report}");
                std::process::exit(1);
            }
        }
        return;
    }
    match experiments::experiments()
        .into_iter()
        .find(|(name, _)| *name == experiment)
    {
        Some((_, f)) => {
            f(&config);
        }
        None => {
            eprintln!("unknown experiment: {experiment}");
            print_usage();
            std::process::exit(1);
        }
    }
}

fn print_usage() {
    eprintln!("usage: repro [EXPERIMENT] [--rows N] [--queries-per-type N] [--seed N]");
    eprintln!("experiments: all, table3, table4, fig7, fig7par, fig7net, fig8, fig9a, fig9b, fig10, fig11a, fig11b, fig12a, fig12b, fig12kern, figmv, walbench, check-bench");
    eprintln!("fig12kern also writes BENCH_scan.json (override path with BENCH_SCAN_JSON); fig9b writes BENCH_ingest.json (BENCH_INGEST_JSON); fig7par writes BENCH_pool.json (BENCH_POOL_JSON); fig7net writes BENCH_net.json (BENCH_NET_JSON); figmv writes BENCH_matview.json (BENCH_MATVIEW_JSON); walbench writes BENCH_wal.json (BENCH_WAL_JSON)");
    eprintln!("fig7net tuning: TSUNAMI_SHARDS, TSUNAMI_NET_QPS (comma-separated sweep), TSUNAMI_NET_DURATION_MS, TSUNAMI_NET_CONNS");
    eprintln!("pool tuning: TSUNAMI_POOL_THREADS (workers), TSUNAMI_MORSEL_ROWS (rows per morsel); matview: TSUNAMI_MATVIEW=off disables materialized aggregates");
    eprintln!("check-bench re-runs fig12kern + figmv and fails on >2.5x median regressions vs bench-baselines/ (BENCH_scan.json path via BENCH_BASELINE_JSON); fresh BENCH_pool.json/BENCH_ingest.json are gated too when present");
}
