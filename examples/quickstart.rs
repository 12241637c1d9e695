//! Quickstart: register a table in the engine's `Database`, run fluent
//! schema-validated queries over a Tsunami index, and push a batch of
//! queries through the concurrent `Scheduler`.
//!
//! Run with: `cargo run --release --example quickstart`

use tsunami_core::{Dataset, TsunamiError};
use tsunami_core::{Predicate, Query, Workload};
use tsunami_suite::{Database, IndexSpec, Scheduler};

fn main() -> Result<(), TsunamiError> {
    // ---------------------------------------------------------------------
    // 1. Build a small 3-dimensional dataset.
    //    order_id: uniform; price correlated with quantity.
    // ---------------------------------------------------------------------
    let n: u64 = 50_000;
    let order_id: Vec<u64> = (0..n).collect();
    let quantity: Vec<u64> = (0..n).map(|i| 1 + (i * 7919) % 50).collect();
    let price: Vec<u64> = quantity
        .iter()
        .map(|&q| q * 1_000 + (q * 37) % 500)
        .collect();
    let data = Dataset::from_columns(vec![order_id, price, quantity])?;
    println!("dataset: {} rows x {} dims", data.len(), data.num_dims());

    // ---------------------------------------------------------------------
    // 2. Describe the workload Tsunami should optimize for: recent orders
    //    (high order ids) filtered by price bands.
    // ---------------------------------------------------------------------
    let workload = Workload::new(
        (0..50u64)
            .map(|i| {
                let id_lo = n * 8 / 10 + (i * 97) % (n / 10);
                let price_lo = 5_000 + (i % 40) * 1_000;
                Query::count(vec![
                    Predicate::range(0, id_lo, id_lo + n / 50).unwrap(),
                    Predicate::range(1, price_lo, price_lo + 3_000).unwrap(),
                ])
                .unwrap()
            })
            .collect(),
    );

    // ---------------------------------------------------------------------
    // 3. Register the table: names the columns and builds the index
    //    (offline optimization + data reorganization) from a spec.
    // ---------------------------------------------------------------------
    let mut db = Database::new();
    let orders = db.create_table(
        "orders",
        &["order_id", "price", "quantity"],
        data,
        &workload,
        &IndexSpec::tsunami(),
    )?;
    println!(
        "registered table '{}' over a {} index ({} bytes, {:.3}s optimize + {:.3}s sort)",
        orders.name(),
        orders.index().name(),
        orders.index().size_bytes(),
        orders.index().build_timing().optimize_secs,
        orders.index().build_timing().sort_secs,
    );

    // ---------------------------------------------------------------------
    // 4. Fluent queries: named columns, validated at the boundary.
    // ---------------------------------------------------------------------
    let (recent, _) = db
        .table("orders")?
        .query()
        .range("order_id", n * 9 / 10, n - 1)?
        .range("price", 10_000, 20_000)?
        .execute()?;
    println!("recent orders priced 10k-20k: {recent}");

    let (revenue, _) = orders
        .query()
        .range("quantity", 40, 50)?
        .sum("price")?
        .execute()?;
    println!("total revenue of large orders (quantity 40-50): {revenue}");

    // Mistakes are errors, not silent mis-scans:
    assert!(orders.query().range("pirce", 0, 1).is_err()); // typo'd column
    assert!(orders.query().range("price", 9, 3).is_err()); // lo > hi

    // Diagnostics come from the same call: `execute` returns the executor's
    // scan counters next to the result.
    let (result, scan) = orders
        .query()
        .range("order_id", n * 9 / 10, n - 1)?
        .range("price", 10_000, 20_000)?
        .execute()?;
    println!(
        "diagnostics: {result} scanned {} of {} rows across {} ranges",
        scan.points,
        orders.num_rows(),
        scan.ranges
    );

    // ---------------------------------------------------------------------
    // 5. Concurrent execution: prepare the whole workload once, then let a
    //    worker pool run it (inter-query parallelism).
    // ---------------------------------------------------------------------
    let prepared = orders.prepare_workload(&workload)?;
    let scheduler = Scheduler::new(4);
    let results = scheduler.execute_batch(&prepared)?;
    let serial_first = prepared[0].execute().0;
    println!(
        "scheduler ran {} queries on {} workers (first result {} == serial {})",
        results.len(),
        scheduler.worker_count(),
        results[0],
        serial_first,
    );
    assert_eq!(results[0], serial_first);
    Ok(())
}
