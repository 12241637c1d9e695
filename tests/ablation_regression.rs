//! Pins the known ablation quirk documented in CHANGES.md (PR 2) and the
//! `correlated_sensors` example: on the skewed perfmon workload, the
//! whole-space AugmentedGrid-only ablation degenerates to (almost) a full
//! scan at every configuration — correlation-aware partitioning alone cannot
//! fix query skew, which is §4's motivation for the Grid Tree. This test
//! asserts the *documented* behavior so that a future optimizer change that
//! fixes (or worsens) it shows up as a deliberate test update, not a silent
//! drift.

use tsunami_core::TsunamiError;
use tsunami_index::{IndexVariant, TsunamiConfig};
use tsunami_suite::{Database, IndexSpec, Table};
use tsunami_workloads::perfmon;

fn avg_scanned(table: &Table, workload: &tsunami_core::Workload) -> Result<f64, TsunamiError> {
    let mut total = 0usize;
    for q in workload.queries() {
        total += table.prepare(q.clone())?.execute().1.points;
    }
    Ok(total as f64 / workload.len().max(1) as f64)
}

#[test]
fn augmented_grid_only_degenerates_to_a_full_scan_on_skewed_perfmon() -> Result<(), TsunamiError> {
    let rows = 12_000;
    let data = perfmon::generate(rows, 11);
    let workload = perfmon::workload(&data, 10, 12);

    let config = TsunamiConfig::fast();
    let mut db = Database::new();
    db.create_table(
        "ag_only",
        &perfmon::COLUMNS,
        data.clone(),
        &workload,
        &IndexSpec::Tsunami(config.clone().with_variant(IndexVariant::AugmentedGridOnly)),
    )?;
    db.create_table(
        "full",
        &perfmon::COLUMNS,
        data,
        &workload,
        &IndexSpec::Tsunami(config),
    )?;

    let ag_only = avg_scanned(&db.table("ag_only")?, &workload)?;
    let full = avg_scanned(&db.table("full")?, &workload)?;

    // The documented quirk: the whole-space Augmented Grid scans (nearly)
    // everything on this workload...
    assert!(
        ag_only > 0.9 * rows as f64,
        "AugmentedGrid-only no longer degenerates on skewed perfmon \
         ({ag_only:.0} of {rows} points/query) — the quirk documented in \
         CHANGES.md has changed; update the docs and this pin together"
    );
    // ...while full Tsunami's Grid-Tree regions cut the scan volume to a
    // fraction of it on the same data and workload.
    assert!(
        full < 0.5 * ag_only,
        "full Tsunami ({full:.0} points/query) no longer clearly beats the \
         AugmentedGrid-only ablation ({ag_only:.0}) on skewed perfmon"
    );
    Ok(())
}
