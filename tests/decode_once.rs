//! Read amplification as a number: what `wos.rows_decoded` gains against
//! the rows a reconciliation or a tail read is about. One test in a
//! binary of its own — the metrics registry is process-global, and any
//! neighbour that reads a log file would move the counter.

use vortex::row::{Row, RowSet, Value};
use vortex::schema::{Field, FieldType, Schema};
use vortex::{Region, RegionConfig, ScanOptions};

fn rows(start: i64, n: usize) -> RowSet {
    RowSet::new(
        (start..start + n as i64)
            .map(|k| Row::insert(vec![Value::Int64(k), Value::String(format!("v{k}"))]))
            .collect(),
    )
}

#[test]
fn every_log_row_is_decoded_once() {
    const R: u64 = 100;
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let schema = || {
        Schema::new(vec![
            Field::required("k", FieldType::Int64),
            Field::required("v", FieldType::String),
        ])
    };
    let decoded = || {
        let counters = region.metrics_snapshot().counters;
        counters.get("wos.rows_decoded").copied().unwrap_or(0)
    };

    // Finalizing a PENDING stream reconciles its streamlet: two healthy
    // replicas are compared by their bytes and the authoritative copy is
    // decoded once, for its row count and column properties.
    let bulk = client.create_table("bulk", schema()).unwrap().table;
    let mut w = client.create_pending_writer(bulk).unwrap();
    w.append(rows(0, 60)).unwrap();
    w.append(rows(60, 40)).unwrap();
    let before = decoded();
    w.finalize().unwrap();
    assert_eq!(decoded() - before, R, "rows decoded by finalize");

    // A count over a table whose only data is a single-file tail: both
    // copies are indexed for the commit rule, one is decoded.
    let fresh = client.create_table("fresh", schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(fresh).unwrap();
    w.append(rows(0, 60)).unwrap();
    w.append(rows(60, 40)).unwrap();
    let before = decoded();
    let counted = region
        .engine()
        .count(fresh, client.snapshot(), &ScanOptions::default());
    assert_eq!(counted.unwrap(), R);
    assert_eq!(decoded() - before, R, "rows decoded by the tail read");

    // The same over a tail of several log files the catalog has not heard
    // of: predecessors come from one replica, the File Map vouching.
    let small = Region::create(RegionConfig {
        fragment_max_bytes: 512,
        ..RegionConfig::default()
    })
    .unwrap();
    let client = small.client();
    let rotated = client.create_table("rotated", schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(rotated).unwrap();
    for start in (0..R as i64).step_by(10) {
        w.append(rows(start, 10)).unwrap();
    }
    let files = small
        .fleet()
        .get(small.sms().get_table(rotated).unwrap().primary);
    assert!(files.unwrap().list("wos/").unwrap().len() > 2);
    let before = decoded();
    let counted = small
        .engine()
        .count(rotated, client.snapshot(), &ScanOptions::default());
    assert_eq!(counted.unwrap(), R);
    assert_eq!(
        decoded() - before,
        R,
        "rows decoded by the multi-file tail read"
    );
}
