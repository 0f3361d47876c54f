//! Operational observability: a live dashboard over a region under
//! load. Vortex's production deployment exports exactly this kind of
//! telemetry — streamlet lifecycle states, WOS/ROS fragment inventory,
//! clustering health, and background-loop counters (§5.4, §6.2) — so an
//! operator can watch the LSM churn as the storage optimizer keeps up
//! with ingestion.
//!
//! ```sh
//! cargo run --example monitoring
//! ```
#![allow(clippy::print_stdout)] // prints results/tables by design

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use vortex::row::{Row, RowSet, Value};
use vortex::schema::{Field, FieldType, PartitionTransform, Schema};
use vortex::{
    DaemonConfig, FragmentKind, FragmentState, Region, RegionConfig, RegionDaemon, ScanOptions,
    StreamletState,
};
use vortex_common::crashpoints;

fn main() -> vortex::VortexResult<()> {
    let region = Arc::new(Region::create(RegionConfig {
        fragment_max_bytes: 32 * 1024,
        ..RegionConfig::default()
    })?);
    let client = region.client();
    let schema = Schema::new(vec![
        Field::required("shard", FieldType::Int64),
        Field::required("event_id", FieldType::Int64),
        Field::required("body", FieldType::String),
    ])
    .with_partition("shard", PartitionTransform::Identity)
    .with_clustering(&["event_id"]);
    let table = client.create_table("events", schema)?.table;

    // Background maintenance, as production runs it.
    let daemon = RegionDaemon::start(
        Arc::clone(&region),
        DaemonConfig {
            heartbeat_every: Duration::from_millis(20),
            tick_every: Duration::from_millis(40),
            optimize_every: Duration::from_millis(60),
            gc_every: Duration::from_millis(120),
            checkpoint_every: Duration::from_millis(150),
            full_state_every: 8,
        },
    );
    daemon.watch_table(table);

    // Live traffic: two writers ingesting steadily.
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for w in 0..2i64 {
        let client = region.client();
        let stop = Arc::clone(&stop);
        writers.push(std::thread::spawn(move || {
            let mut writer = client.create_unbuffered_writer(table).unwrap();
            let mut next = 0i64;
            while !stop.load(Ordering::Relaxed) {
                let rs = RowSet::new(
                    (0..64)
                        .map(|i| {
                            let id = next + i;
                            Row::insert(vec![
                                Value::Int64(id % 4),
                                Value::Int64(w * 10_000_000 + id),
                                Value::String(format!("event-{w}-{id}")),
                            ])
                        })
                        .collect(),
                );
                writer.append(rs).unwrap();
                next += 64;
                // lint:allow(L003, the example paces a demo writer against real time on purpose)
                std::thread::sleep(Duration::from_millis(2));
            }
            next
        }));
    }

    // The dashboard: poll and render a snapshot every 300ms.
    let engine = region.engine();
    for round in 1..=6u32 {
        // lint:allow(L003, a dashboard polls on wall-clock cadence by definition)
        std::thread::sleep(Duration::from_millis(300));
        let now = client.snapshot();
        let frags = region.sms().list_fragments(table, now);
        let (mut wos_n, mut wos_row_count, mut wos_bytes) = (0u64, 0u64, 0u64);
        let (mut ros_n, mut ros_rows, mut ros_bytes) = (0u64, 0u64, 0u64);
        let mut active = 0u64;
        for f in &frags {
            if f.state == FragmentState::Active {
                active += 1;
            }
            match f.kind {
                FragmentKind::Wos => {
                    wos_n += 1;
                    wos_row_count += f.row_count;
                    wos_bytes += f.committed_size;
                }
                FragmentKind::Ros => {
                    ros_n += 1;
                    ros_rows += f.row_count;
                    ros_bytes += f.committed_size;
                }
            }
        }
        let streamlets = region.sms().list_streamlets(table);
        let writable = streamlets
            .iter()
            .filter(|s| s.state == StreamletState::Writable)
            .count();
        let finalized = streamlets
            .iter()
            .filter(|s| s.state == StreamletState::Finalized)
            .count();
        let visible = engine.count(table, now, &ScanOptions::default())?;
        let ratio = region.optimizer().clustering_ratio(table)?;
        let st = daemon.stats();

        println!("── snapshot {round} ─────────────────────────────────────");
        println!("  visible rows        {visible}");
        println!(
            "  WOS fragments       {wos_n:>4}  ({wos_row_count} rows, {:.1} KiB, {active} active)",
            wos_bytes as f64 / 1024.0
        );
        println!(
            "  ROS blocks          {ros_n:>4}  ({ros_rows} rows, {:.1} KiB)",
            ros_bytes as f64 / 1024.0
        );
        println!(
            "  streamlets          {:>4}  ({writable} writable, {finalized} finalized)",
            streamlets.len()
        );
        println!("  clustering ratio    {ratio:.2}:1");
        println!(
            "  daemon              {} heartbeats, {} deltas, {} idle commits, {} optimizer cycles, {} gc sweeps",
            st.heartbeats.load(Ordering::Relaxed),
            st.deltas.load(Ordering::Relaxed),
            st.idle_commits.load(Ordering::Relaxed),
            st.optimizer_cycles.load(Ordering::Relaxed),
            st.gc_sweeps.load(Ordering::Relaxed),
        );
    }

    stop.store(true, Ordering::Relaxed);
    let written: i64 = writers.into_iter().map(|t| t.join().unwrap()).sum();
    daemon.shutdown();

    // Final consistency check: everything acked is visible.
    region.run_heartbeats(true)?;
    let visible = engine.count(table, client.snapshot(), &ScanOptions::default())?;
    println!("──────────────────────────────────────────────────────");
    println!("writers acked {written} rows; query engine sees {visible}");
    assert_eq!(visible as i64, written);
    println!("ledger clean: every acknowledged row is visible exactly once");

    // Induce one crash-point fire on a host-process checkpoint so the
    // unified snapshot below shows the framework's counter moving. The
    // aborted checkpoint leaves durable state untouched.
    {
        let _cp = crashpoints::arm_nth("server.checkpoint.mid", 1);
        match region.servers()[0].checkpoint() {
            Err(vortex::VortexError::SimulatedCrash(_)) => {}
            other => panic!("armed checkpoint crash point did not fire: {other:?}"),
        }
    }

    // The unified observability snapshot (/varz): registry counters and
    // histograms, per-method RPC percentiles, cache hit rates, what the
    // scans fetched and what each cluster served, crash point fires, and
    // the §8 commit-to-visible freshness histogram fed by the dashboard's
    // own scans.
    let snap = region.metrics_snapshot();
    println!();
    println!("{}", snap.to_table());
    let fresh = region.freshness().histogram();
    assert!(
        fresh.count > 0,
        "freshness probe observed no rows despite live scans"
    );
    let rendered = snap.to_table();
    for needle in [
        "freshness.commit_to_visible_us",
        "scan.cache.",
        "cache.bytes",
        "scan.tail.",
        "scan.bytes_fetched",
        "scan.cells_decoded",
        "scan.bytes_decoded",
        "scan.zones_folded",
        "colossus.cls-0.bytes_read",
        "append.client.calls",
        "rpc",
        "crash_point_fires",
    ] {
        assert!(rendered.contains(needle), "snapshot missing {needle}");
    }
    assert!(snap.crash_point_fires >= 1, "crash point fire not counted");
    println!(
        "freshness: {} rows observed, p50 {}us p99 {}us",
        region.freshness().rows_observed(),
        fresh.p50,
        fresh.p99
    );
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    println!(
        "scans: {} rows scanned, {} matched; {} cells of ROS chunks decoded, from {} chunk bytes; {} zones folded from their stored form",
        counter("scan.rows_scanned"),
        counter("scan.rows_matched"),
        counter("scan.cells_decoded"),
        counter("scan.bytes_decoded"),
        counter("scan.zones_folded")
    );
    let (chunks, encoded) = (
        counter("ros.chunks_built"),
        counter("ros.candidates_encoded"),
    );
    println!(
        "optimizer: {chunks} ROS chunks built from {encoded} candidates encoded ({:.2} per chunk); {} cells copied by value",
        encoded as f64 / chunks.max(1) as f64,
        counter("ros.cells_by_value")
    );
    println!(
        "read cache: {} hits, {} misses, {} bytes held; tails extended by {} bytes read, {} rows decoded",
        counter("scan.cache.hits"),
        counter("scan.cache.misses"),
        snap.gauges.get("cache.bytes").copied().unwrap_or(0),
        counter("scan.tail.bytes_read"),
        counter("scan.tail.rows_decoded")
    );
    println!(
        "log files: {} records framed (CRC-checked) by index walks, {} blocks / {} rows decoded",
        counter("wos.records_indexed"),
        counter("wos.blocks_decoded"),
        counter("wos.rows_decoded")
    );
    println!(
        "read sets: {} listed, {} of them shared from the SMS's last listing at their snapshot",
        counter("sms.list_read_fragments"),
        counter("sms.list_read_fragments.shared")
    );
    Ok(())
}
