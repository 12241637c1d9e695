//! Taxi analytics: the paper's motivating scenario — a skewed, correlated
//! trip-record workload — comparing Tsunami against Flood and a tuned k-d
//! tree, all registered as tables of one engine `Database`, then serving a
//! multi-client burst through the `Scheduler`.
//!
//! Run with: `cargo run --release --example taxi_analytics`

use tsunami_core::{CostModel, TsunamiError};
use tsunami_flood::FloodConfig;
use tsunami_index::TsunamiConfig;
use tsunami_suite::{Database, IndexSpec, PageSize, Scheduler};
use tsunami_workloads::taxi;

/// Demo-scale build-effort configs so the example finishes in seconds;
/// `*Config::default()` searches much harder (use it — and the benchmark
/// harness's settings — for real measurements via the `repro` binary).
fn tsunami_config() -> TsunamiConfig {
    TsunamiConfig::fast()
}

fn flood_config() -> FloodConfig {
    FloodConfig::fast()
}

fn main() -> Result<(), TsunamiError> {
    // Generate a Taxi-like dataset (correlated fares/distances, skewed
    // passenger counts) and its 6-query-type workload.
    let rows = 20_000;
    let data = taxi::generate(rows, 7);
    let workload = taxi::workload(&data, 25, 8);
    println!(
        "taxi dataset: {} rows x {} dims ({} queries in {} types)",
        data.len(),
        data.num_dims(),
        workload.len(),
        workload.group_by_filtered_dims().len()
    );

    // The default cost model keeps the demo deterministic across machines.
    // (`CostModel::calibrate()` measures the host instead; on hosts where it
    // reports a very low w0/w1 ratio the optimizer trades ranges for cells
    // aggressively, which can blow up layout size — tune with care.)
    let cost = CostModel::default();
    println!(
        "cost model: w0={:.1}ns/range w1={:.2}ns/value",
        cost.w0, cost.w1
    );

    // Register the same dataset under three index families.
    let mut db = Database::with_cost_model(cost);
    for spec in [
        IndexSpec::Tsunami(tsunami_config()),
        IndexSpec::Flood(flood_config()),
        IndexSpec::KdTree(PageSize::TunedOver(vec![256, 1024, 4096])),
    ] {
        db.create_table(spec.label(), &taxi::COLUMNS, data.clone(), &workload, &spec)?;
    }

    // Measure average query latency for each table.
    println!(
        "\n{:<12} {:>14} {:>14} {:>18}",
        "index", "avg query (us)", "size (KiB)", "avg points scanned"
    );
    for table in db.tables() {
        let prepared = table.prepare_workload(&workload)?;
        let mut scanned = 0usize;
        let start = std::time::Instant::now();
        for q in &prepared {
            let (_, stats) = q.execute();
            scanned += stats.points;
        }
        let avg_us = start.elapsed().as_secs_f64() * 1e6 / prepared.len() as f64;
        println!(
            "{:<12} {:>14.1} {:>14.1} {:>18.0}",
            table.name(),
            avg_us,
            table.index().size_bytes() as f64 / 1024.0,
            scanned as f64 / prepared.len() as f64
        );
    }

    // A concrete analytics question from the paper's description: how common
    // were single-passenger, short-distance trips in the most recent month?
    let trips = db.table("Tsunami")?;
    let recent_month_start = taxi::TIME_DOMAIN - 30 * 24 * 60;
    let short_single = trips
        .query()
        .range("pickup_time", recent_month_start, taxi::TIME_DOMAIN)?
        .range("trip_distance", 0, 300)?
        .eq("passenger_count", 1)?
        .prepare()?;
    println!(
        "\nsingle-passenger short trips in the last month: {}",
        short_single.execute().0
    );
    assert_eq!(short_single.execute().0, short_single.execute_oracle());

    // Serve a concurrent burst: every workload query plus the ad-hoc one,
    // across all three tables, through one scheduler.
    let mut burst = Vec::new();
    for table in db.tables() {
        burst.extend(table.prepare_workload(&workload)?);
    }
    burst.push(short_single);
    let scheduler = Scheduler::new(4);
    let start = std::time::Instant::now();
    let results = scheduler.execute_batch(&burst)?;
    let secs = start.elapsed().as_secs_f64();
    println!(
        "scheduler burst: {} queries over {} tables on {} workers in {:.1}ms ({:.0} QPS)",
        results.len(),
        db.num_tables(),
        scheduler.worker_count(),
        secs * 1e3,
        results.len() as f64 / secs
    );
    Ok(())
}
