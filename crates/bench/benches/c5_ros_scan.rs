//! **C5 — WOS→ROS scan advantage** (§5.1, §6.1).
//!
//! Paper: ROS "is the format in which data is optimized for data
//! processing. Typically, this is a columnar format". This bench measures
//! the same analytical scan against (a) raw WOS log fragments, (b)
//! freshly converted level-0 ROS, and (c) the reclustered baseline —
//! plus the columnar fast path of decoding a single column.
#![allow(clippy::print_stdout)] // prints results/tables by design

use criterion::{criterion_group, criterion_main, Criterion};
use vortex::row::Value;
use vortex::{AggKind, Expr, ScanOptions};
use vortex_bench::{bench_schema, fast_region, ingest_finalized};

const ROWS: usize = 30_000;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1_000.0)
}

fn reproduce_table() {
    println!("\n=== C5: the same aggregate against WOS, delta ROS, baseline ROS ===");
    let region = fast_region();
    let client = region.client();
    let table = client.create_table("c5", bench_schema()).unwrap().table;
    for i in 0..3 {
        ingest_finalized(&region, table, ROWS / 3, 0xC5 + i);
    }
    let engine = region.engine();
    let agg = |label: &str| {
        let snapshot = client.snapshot();
        let (groups, ms) = timed(|| {
            engine
                .aggregate(
                    table,
                    snapshot,
                    &ScanOptions {
                        predicate: Expr::gt("amount", Value::Int64(0)),
                        ..ScanOptions::default()
                    },
                    Some("day"),
                    &[(AggKind::Count, None), (AggKind::Sum, Some("amount"))],
                )
                .unwrap()
        });
        let total: i64 = groups
            .iter()
            .map(|(_, v)| match v[0] {
                Value::Int64(c) => c,
                _ => 0,
            })
            .sum();
        println!("{label:>18} | {ms:>8.2} ms | {total} rows aggregated");
        (total, ms)
    };

    let (rows_wos, wos_ms) = agg("WOS (log files)");
    region.optimizer().convert_wos(table).unwrap();
    let (rows_delta, delta_ms) = agg("delta ROS");
    region.optimizer().recluster(table).unwrap();
    let (rows_base, base_ms) = agg("baseline ROS");
    assert_eq!(rows_wos, rows_delta);
    assert_eq!(rows_wos, rows_base);
    println!(
        "speedup vs WOS: delta {:.2}x, baseline {:.2}x",
        wos_ms / delta_ms,
        wos_ms / base_ms
    );
    println!("paper: ROS is the read-optimized side of the LSM; WOS exists to absorb writes");
}

fn bench(c: &mut Criterion) {
    reproduce_table();
    // The columnar fast path: decode ONE column of a wide block vs
    // materializing every row.
    use rand::Rng;
    use vortex_ros::{RosBlockBuilder, RowMeta};
    let schema = bench_schema();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let mut b = RosBlockBuilder::new(&schema);
    for i in 0..8_192u64 {
        let k: u32 = rng.gen_range(0..100_000);
        b.push(
            RowMeta {
                change_type: vortex::schema::ChangeType::Insert,
                ts: vortex::Timestamp(i),
                stream: 1,
                offset: i,
            },
            vortex::row::Row::insert(vec![
                Value::Int64((k % 10) as i64),
                Value::String(format!("customer-{:05}", k % 2_000)),
                Value::Int64(k as i64),
                Value::String(format!("note for row {k} with plenty of padding text")),
            ]),
        )
        .unwrap();
    }
    let block = b.build(true).unwrap();
    c.bench_function("ros_decode_single_column_8k_rows", |bch| {
        // What a scan decodes for one column: a typed vector per zone.
        bch.iter(|| {
            (0..block.zone_count())
                .map(|z| block.decode_zone(2, z).unwrap().len())
                .sum::<usize>()
        })
    });
    c.bench_function("ros_decode_all_rows_8k", |bch| {
        bch.iter(|| block.rows().unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench
}
criterion_main!(benches);
