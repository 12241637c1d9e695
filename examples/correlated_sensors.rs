//! Correlated sensors: demonstrates the Augmented Grid's correlation-aware
//! strategies (functional mappings and conditional CDFs) on a
//! performance-monitoring workload where CPU, load, and memory usage track
//! each other — with the comparison tables registered in one engine
//! `Database`.
//!
//! Run with: `cargo run --release --example correlated_sensors`

use tsunami_core::{CostModel, TsunamiError};
use tsunami_flood::FloodConfig;
use tsunami_index::augmented_grid::{optimize_layout, OptimizerKind};
use tsunami_index::{IndexVariant, TsunamiConfig};
use tsunami_suite::{Database, IndexSpec};
use tsunami_workloads::perfmon;

fn main() -> Result<(), TsunamiError> {
    let rows = 40_000;
    let data = perfmon::generate(rows, 11);
    let workload = perfmon::workload(&data, 25, 12);
    println!(
        "perfmon dataset: {} rows x {} dims, {} queries",
        data.len(),
        data.num_dims(),
        workload.len()
    );

    // Ask the optimizer what layout it would choose for a single Augmented
    // Grid over the whole space, and show the skeleton it discovered.
    let cost = CostModel::default();
    // Moderate build effort (the benchmark harness's settings) so the
    // example finishes in seconds; the defaults search much harder.
    let config = TsunamiConfig {
        optimizer_sample_size: 1_200,
        optimizer_max_iters: 10,
        max_cells_per_grid: 1 << 14,
        max_tree_depth: 5,
        ..TsunamiConfig::default()
    };
    let layout = optimize_layout(&data, &workload, &cost, &config, OptimizerKind::Adaptive);
    println!("\nAGD-chosen skeleton: {}", layout.skeleton);
    println!("partition counts:    {:?}", layout.partitions);
    println!(
        "predicted avg cost:  {:.0} (cost-model units)",
        layout.predicted_cost
    );

    // Register Flood, the Augmented-Grid-only ablation (no Grid Tree), and
    // the full Tsunami index over the same data — then compare scan volumes.
    let mut db = Database::new();
    let flood_config = FloodConfig {
        max_cells: 1 << 15,
        sample_size: 1_500,
        max_iters: 12,
        ..FloodConfig::default()
    };
    for (name, spec) in [
        ("flood", IndexSpec::Flood(flood_config)),
        (
            "ag_only",
            IndexSpec::Tsunami(config.clone().with_variant(IndexVariant::AugmentedGridOnly)),
        ),
        ("tsunami", IndexSpec::Tsunami(config)),
    ] {
        db.create_table(name, &perfmon::COLUMNS, data.clone(), &workload, &spec)?;
    }

    // On this skewed monitoring workload the whole-space Augmented Grid
    // typically degenerates (correlation strategies alone cannot fix query
    // skew — §4's motivation for the Grid Tree), while full Tsunami's
    // per-region grids cut the scan volume well below Flood's.
    println!(
        "\n{:<22} {:>16} {:>14}",
        "index", "avg scanned rows", "size (KiB)"
    );
    for table in db.tables() {
        let mut scanned = 0usize;
        for q in table.prepare_workload(&workload)? {
            let (_, stats) = q.execute();
            scanned += stats.points;
        }
        println!(
            "{:<22} {:>16.0} {:>14.1}",
            table.index().name(),
            scanned as f64 / workload.len() as f64,
            table.index().size_bytes() as f64 / 1024.0
        );
    }

    // An operations-monitoring question: "when did machines 100..120 run hot
    // (high user CPU and high 1-minute load) during the last week?"
    let week = 7 * 24 * 60;
    let hot = db
        .table("tsunami")?
        .query()
        .range("time", perfmon::TIME_DOMAIN - week, perfmon::TIME_DOMAIN)?
        .range("machine", 100, 120)?
        .range("cpu_user", 8_000, 10_000)?
        .range("load1", 4_000, 20_000)?
        .prepare()?;
    println!(
        "\nhot samples for machines 100-120 in the last week: {}",
        hot.execute().0
    );
    assert_eq!(hot.execute().0, hot.execute_oracle());
    Ok(())
}
