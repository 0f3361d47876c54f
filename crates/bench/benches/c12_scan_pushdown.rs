//! **C12 — compute pushdown over compressed ROS blocks** (§5.4.5, §7.2).
//!
//! Two arms, one contract:
//!
//! - **compression**: the cascading encoder (delta/FoR/bit-packing, ALP,
//!   FSST, stackable on Dict/RLE) must produce blocks no larger than the
//!   v1 Plain/Dict/RLE chooser did on the C2 "typical rows" corpus —
//!   pushdown must not be bought with a worse compression ratio. The v1
//!   encoder is gone; its side is the byte count it produced on this
//!   seeded corpus when it was last run ([`LEGACY_BYTES`]).
//! - **scan**: on a highly selective predicate (≤1% of rows) over a
//!   clustered multi-zone table, the engine's scan (zone-map
//!   short-circuit, predicate evaluation over compressed chunks, late
//!   materialization) must beat decode-then-filter by ≥2× wall-clock
//!   while returning identical rows. Decode-then-filter is the
//!   reference a reader without pushdown would run: `read_rows_at`
//!   materializes every row, then `Expr::eval` filters.
//!
//! Emits `BENCH_scan_pushdown.json` at the repo root. `VORTEX_BENCH_ITERS`
//! overrides the scan-arm row count (CI smoke uses a small value; the
//! speedup assertion arms only on full-length runs).
#![allow(clippy::print_stdout)] // prints results/tables by design

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vortex::{Expr, OptimizerConfig, QueryEngine, ScanOptions, StorageOptimizer};
use vortex_client::VortexClient;
use vortex_colossus::StorageFleet;
use vortex_common::compress::compress;
use vortex_common::ids::{ClusterId, IdGen, ServerId, SmsTaskId};
use vortex_common::latency::WriteProfile;
use vortex_common::row::{Row, RowSet, Value};
use vortex_common::schema::{Field, FieldType, PartitionTransform, Schema};
use vortex_common::truetime::{SimClock, Timestamp, TrueTime};
use vortex_metastore::MetaStore;
use vortex_ros::encoding::encode_column;
use vortex_ros::ZONE_ROWS;
use vortex_server::{ServerConfig, StreamServer};
use vortex_sms::sms::{SmsConfig, SmsTask};
use vortex_sms::SmsApi;

/// Rows per customer group in the scan arm; with the default row count
/// this puts the predicate's selectivity at 0.25%.
const GROUP: usize = 100;
/// Timed scan repetitions per arm (median reported).
const SCAN_REPS: usize = 5;

// ---------------------------------------------------------------------
// Compression arm: typed analog of the C2 "typical rows" corpus.
// ---------------------------------------------------------------------

/// The C2 typical-rows corpus as typed columns: a timestamp with
/// repeated scaffolding, a high-cardinality customer key, a constant
/// currency, small integers, and a two-decimal price.
fn typed_corpus(n_rows: usize, seed: u64) -> Vec<(&'static str, Vec<Value>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts = Vec::with_capacity(n_rows);
    let mut customer = Vec::with_capacity(n_rows);
    let mut currency = Vec::with_capacity(n_rows);
    let mut quantity = Vec::with_capacity(n_rows);
    let mut price = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let k: u32 = rng.gen_range(0..1_000_000);
        let secs =
            u64::from(k % 28 + 1) * 86_400 + u64::from(k % 60) * 60 + u64::from((k / 60) % 60);
        ts.push(Value::Timestamp(Timestamp::from_micros(secs * 1_000_000)));
        customer.push(Value::String(format!("cust-{:05}", k % 40_000)));
        currency.push(Value::String("USD".into()));
        quantity.push(Value::Int64(i64::from(k % 13 + 1)));
        price.push(Value::Float64(
            f64::from(k % 90 + 9) + f64::from(k % 100) / 100.0,
        ));
    }
    vec![
        ("orderTimestamp", ts),
        ("customerKey", customer),
        ("currencyKey", currency),
        ("quantity", quantity),
        ("unitPrice", price),
    ]
}

/// Rows in the compression arm's corpus; [`LEGACY_BYTES`] is only valid
/// for this count and the corpus seed.
const CORPUS_ROWS: usize = 20_000;
/// Per-zone vsnap-compressed bytes the v1 Plain/Dict/RLE chooser
/// produced per column of `typed_corpus(CORPUS_ROWS, 0xC12)`, frozen from
/// the committed `BENCH_scan_pushdown.json`.
const LEGACY_BYTES: [usize; 5] = [138_667, 128_088, 180, 20_693, 115_340];

struct ColumnSizes {
    name: &'static str,
    legacy: usize,
    cascade: usize,
}

/// Encodes each column zone-by-zone (as blocks store them) and sums the
/// vsnap-compressed sizes, next to the frozen v1 sizes.
fn compression_arm() -> Vec<ColumnSizes> {
    println!("--- cascading encoder vs frozen v1 Plain/Dict/RLE sizes (per-zone, vsnap) ---");
    let mut out = Vec::new();
    for ((name, values), legacy) in typed_corpus(CORPUS_ROWS, 0xC12)
        .into_iter()
        .zip(LEGACY_BYTES)
    {
        let mut cascade = 0usize;
        for zone in values.chunks(ZONE_ROWS) {
            let (_, bytes) = encode_column(zone);
            cascade += compress(&bytes).len();
        }
        println!(
            "{name:>16} | legacy {legacy:>8} B | cascade {cascade:>8} B | {:>5.2}x",
            legacy as f64 / cascade.max(1) as f64
        );
        out.push(ColumnSizes {
            name,
            legacy,
            cascade,
        });
    }
    out
}

// ---------------------------------------------------------------------
// Scan arm: the engine's scan vs decode-then-filter over the same
// converted table.
// ---------------------------------------------------------------------

struct ScanRig {
    sms: Arc<SmsTask>,
    client: VortexClient,
    engine: QueryEngine,
}

/// One clustered single-partition table, `n` rows in customer order,
/// converted to multi-zone ROS blocks.
fn build_table(n: usize) -> (ScanRig, vortex_common::ids::TableId) {
    let clock = SimClock::new(1_000_000);
    let tt = TrueTime::simulated(clock, 100, 0);
    let fleet = StorageFleet::with_mem_clusters(2, WriteProfile::instant(), 0xC12);
    let store = MetaStore::new(tt.clone());
    let ids = Arc::new(IdGen::new(1));
    let sms = SmsTask::new(
        SmsConfig::new(SmsTaskId::from_raw(0), ClusterId::from_raw(0)),
        store,
        fleet.clone(),
        tt.clone(),
        Arc::clone(&ids),
        None,
    );
    for i in 0..2u64 {
        let server = StreamServer::new(
            ServerConfig::new(ServerId::from_raw(100 + i), ClusterId::from_raw(i % 2)),
            fleet.clone(),
            tt.clone(),
            Arc::clone(&ids),
        )
        .unwrap();
        sms.register_server(server);
    }
    let handle: vortex_sms::api::SmsHandle = sms.clone();
    let client = VortexClient::new(handle.clone(), fleet.clone(), tt.clone());
    let engine = QueryEngine::new(handle.clone(), fleet.clone());
    let opt = StorageOptimizer::new(
        handle,
        fleet,
        tt,
        ids,
        OptimizerConfig {
            target_block_rows: 8192,
            merge_trigger: 0.5,
        },
    );

    let schema = Schema::new(vec![
        Field::required("day", FieldType::Int64),
        Field::required("customer", FieldType::String),
        Field::required("amount", FieldType::Int64),
    ])
    .with_partition("day", PartitionTransform::Identity)
    .with_clustering(&["customer"]);
    let t = sms.create_table("t", schema).unwrap();
    let mut w = client.create_unbuffered_writer(t.table).unwrap();
    // Rows arrive ordered by the clustering key, GROUP rows per
    // customer, so zone maps can localize a point predicate.
    for chunk_start in (0..n).step_by(5_000) {
        let rs = RowSet::new(
            (chunk_start..(chunk_start + 5_000).min(n))
                .map(|k| {
                    Row::insert(vec![
                        Value::Int64(0),
                        Value::String(format!("cust-{:05}", k / GROUP)),
                        Value::Int64(k as i64),
                    ])
                })
                .collect(),
        );
        w.append(rs).unwrap();
    }
    let s = w.stream_id();
    sms.finalize_stream(t.table, s).unwrap();
    opt.convert_wos(t.table).unwrap();
    (
        ScanRig {
            sms,
            client,
            engine,
        },
        t.table,
    )
}

struct ScanPoint {
    arm: &'static str,
    scan_us: u64,
    rows: usize,
    rows_scanned: u64,
    zones_total: usize,
    zones_pruned: usize,
}

/// Median wall-clock of `SCAN_REPS` runs of `scan`, plus one more run's
/// result.
fn time_reps<T>(mut scan: impl FnMut() -> T) -> (u64, T) {
    let mut times: Vec<u64> = (0..SCAN_REPS)
        .map(|_| {
            // lint:allow(L001, bench measures real scan wall-clock, not simulated time)
            let start = Instant::now();
            let res = scan();
            let us = start.elapsed().as_micros() as u64;
            std::hint::black_box(res);
            us
        })
        .collect();
    times.sort_unstable();
    (times[times.len() / 2], scan())
}

fn time_pushdown(rig: &ScanRig, t: vortex_common::ids::TableId, predicate: Expr) -> ScanPoint {
    let snap = rig.sms.read_snapshot();
    let opts = ScanOptions {
        predicate,
        ..ScanOptions::default()
    };
    let (scan_us, res) = time_reps(|| rig.engine.scan(t, snap, &opts).unwrap());
    ScanPoint {
        arm: "pushdown",
        scan_us,
        rows: res.rows.len(),
        rows_scanned: res.stats.rows_scanned,
        zones_total: res.stats.zones_total,
        zones_pruned: res.stats.zones_pruned,
    }
}

fn time_decode_filter(rig: &ScanRig, t: vortex_common::ids::TableId, predicate: Expr) -> ScanPoint {
    let snap = rig.sms.read_snapshot();
    let (scan_us, (rows, rows_scanned)) = time_reps(|| {
        let all = rig.client.read_rows_at(t, snap).unwrap();
        let scanned = all.rows.len() as u64;
        let kept = all
            .rows
            .into_iter()
            .filter(|(_, r)| predicate.eval(&all.schema, r).unwrap())
            .count();
        (kept, scanned)
    });
    ScanPoint {
        arm: "decode_filter",
        scan_us,
        rows,
        rows_scanned,
        zones_total: 0,
        zones_pruned: 0,
    }
}

fn main() {
    let n: usize = std::env::var("VORTEX_BENCH_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40_000);
    println!("\n=== C12: compute pushdown over compressed ROS blocks ({n} rows) ===");

    let sizes = compression_arm();
    let legacy_total: usize = sizes.iter().map(|s| s.legacy).sum();
    let cascade_total: usize = sizes.iter().map(|s| s.cascade).sum();
    println!(
        "corpus total: legacy {legacy_total} B, cascade {cascade_total} B ({:.2}x)",
        legacy_total as f64 / cascade_total.max(1) as f64
    );
    assert!(
        cascade_total <= legacy_total,
        "cascading encoder regressed compressed size: {cascade_total} > {legacy_total}"
    );

    let (rig, t) = build_table(n);
    // Point predicate on the first customer group: GROUP of n rows
    // match, and the group never straddles a zone boundary, so every
    // other zone is prunable at any table size.
    let target = format!("cust-{:05}", 0);
    let predicate = Expr::eq("customer", Value::String(target));
    let pushed = time_pushdown(&rig, t, predicate.clone());
    let decoded = time_decode_filter(&rig, t, predicate);
    assert_eq!(pushed.rows, GROUP, "pushdown returned wrong row count");
    assert_eq!(
        decoded.rows, GROUP,
        "decode-then-filter returned wrong row count"
    );
    let selectivity = GROUP as f64 / n as f64;
    let speedup = decoded.scan_us as f64 / pushed.scan_us.max(1) as f64;
    for p in [&pushed, &decoded] {
        println!(
            "{:>14} | {:>8.2} ms | {:>6} rows | {:>8} scanned | zones {}/{} pruned",
            p.arm,
            p.scan_us as f64 / 1000.0,
            p.rows,
            p.rows_scanned,
            p.zones_pruned,
            p.zones_total,
        );
    }
    println!(
        "selectivity {:.2}% -> pushdown {speedup:.1}x faster; zone map skipped {}/{} zones",
        selectivity * 100.0,
        pushed.zones_pruned,
        pushed.zones_total,
    );
    assert!(
        pushed.zones_pruned > 0,
        "zone map pruned nothing on a clustered point predicate"
    );

    // Full-run acceptance: ≥2× on ≤1% selectivity. Smoke runs (small
    // row counts) keep the correctness assertions but skip timing.
    let full_run = n >= 20_000;
    if full_run {
        assert!(
            selectivity <= 0.01,
            "scan arm selectivity {selectivity} too coarse"
        );
        assert!(
            speedup >= 2.0,
            "pushdown only {speedup:.2}x faster than decode-then-filter"
        );
        println!("scan_pushdown: >=2x on <=1% selectivity at equal-or-better size ✓");
    } else {
        println!("(smoke run: timing assertion skipped at {n} rows)");
    }

    // ---- BENCH_scan_pushdown.json (repo root) ----
    let mut cols_json = String::new();
    for (i, s) in sizes.iter().enumerate() {
        cols_json.push_str(&format!(
            "    {{\"column\": \"{}\", \"legacy_bytes\": {}, \"cascade_bytes\": {}}}{}\n",
            s.name,
            s.legacy,
            s.cascade,
            if i + 1 == sizes.len() { "" } else { "," },
        ));
    }
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"c12_scan_pushdown\",\n  \"rows\": {},\n",
            "  \"compression\": {{\n    \"legacy_bytes\": {}, \"cascade_bytes\": {},\n",
            "    \"columns\": [\n{}    ]\n  }},\n",
            "  \"scan\": {{\"selectivity\": {:.4}, \"pushdown_us\": {}, ",
            "\"decode_filter_us\": {}, \"speedup\": {:.2}, ",
            "\"rows_scanned_pushdown\": {}, \"rows_scanned_decode\": {}, ",
            "\"zones_total\": {}, \"zones_pruned\": {}}}\n}}\n"
        ),
        n,
        legacy_total,
        cascade_total,
        cols_json,
        selectivity,
        pushed.scan_us,
        decoded.scan_us,
        speedup,
        pushed.rows_scanned,
        decoded.rows_scanned,
        pushed.zones_total,
        pushed.zones_pruned,
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scan_pushdown.json");
    std::fs::write(&out, json).expect("write BENCH_scan_pushdown.json");
    println!("wrote {}", out.display());
}
