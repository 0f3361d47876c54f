//! **A3 — ablation: fragment max size** (§5.3).
//!
//! Paper: "The maximum size of a Fragment is chosen to be small enough
//! that conversion by the Storage Optimization Service to the ROS format
//! happens frequently, but not so small that too many Fragments are
//! created in the metadata." Sweeps the rotation threshold and records
//! fragment counts (metadata volume) vs how much data
//! a conversion wave can pick up mid-stream.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vortex::{Region, RegionConfig};
use vortex_bench::Run;

use super::workload::{batch_of_bytes, bench_schema};

/// 128 KiB client batches per configuration: 4 MiB of rows.
const BATCHES: usize = 32;

/// (metadata entries, rows convertible mid-stream) at `fragment_max`.
fn run_config(run: &Run, fragment_max: u64) -> (usize, u64) {
    let region = Region::create(RegionConfig {
        fragment_max_bytes: fragment_max,
        ..RegionConfig::default()
    })
    .unwrap();
    let client = region.client();
    let table = client.create_table("a3", bench_schema()).unwrap().table;
    let mut writer = client.create_unbuffered_writer(table).unwrap();
    let mut rng = StdRng::seed_from_u64(0xA3 + (run.seed() << 24));
    for _ in 0..run.iters(BATCHES) {
        writer.append(batch_of_bytes(&mut rng, 128 << 10)).unwrap();
    }
    // Mid-stream (no finalize!): how much did rotation already expose to
    // the optimizer, and how many metadata entries did it cost?
    region.run_heartbeats(false).unwrap();
    let snapshot = region.sms().read_snapshot();
    let entries = region.sms().list_fragments(table, snapshot).len();
    // Finalized fragments are conversion candidates without waiting for
    // the stream to end (§5.3: conversion "happens frequently").
    let converted = region.optimizer().convert_wos(table).unwrap();
    (entries, converted.rows)
}

pub fn run(run: &mut Run) {
    let mut results = Vec::new();
    for size in [64u64 << 10, 512 << 10, 4 << 20, 64 << 20] {
        let (entries, rows) = run_config(run, size);
        run.report(
            format!("max_{}K.metadata_entries", size >> 10),
            entries as f64,
        );
        run.report(format!("max_{}K.rows_convertible", size >> 10), rows as f64);
        results.push((entries, rows));
    }
    if run.full() {
        let (smallest, largest) = (results[0], results[results.len() - 1]);
        assert!(
            smallest.0 > largest.0,
            "smaller fragments must create more metadata entries"
        );
        assert!(
            smallest.1 > largest.1,
            "smaller fragments must expose more rows to mid-stream conversion"
        );
    }
}
