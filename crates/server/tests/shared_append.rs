//! What an append's rows cost the calling thread in allocator requests:
//! handed over in an `Arc`, they reach the shard uncopied, so a batch of
//! 1 000 rows asks the allocator as often as one of 10. One test in a
//! binary of its own, because it installs the counting allocator
//! process-wide.

use std::sync::Arc;

use vortex_colossus::StorageFleet;
use vortex_common::crypt::Key;
use vortex_common::ids::{ClusterId, IdGen, ServerId, StreamId, StreamletId, TableId};
use vortex_common::latency::WriteProfile;
use vortex_common::row::{Row, RowSet, Value};
use vortex_common::schema::{Field, FieldType, Schema};
use vortex_common::truetime::{SimClock, Timestamp, TrueTime};
use vortex_server::{ServerConfig, StreamServer};
use vortex_sms::server_ctl::{StreamServerApi, StreamletSpec};

#[path = "../../../tests/support/tally.rs"]
mod tally;

fn rows(n: usize) -> RowSet {
    let row = |k: usize| Row::insert(vec![Value::Int64(k as i64), Value::String(format!("c{k}"))]);
    RowSet::new((0..n).map(row).collect())
}

#[test]
fn shared_rows_reach_the_shard_uncopied() {
    let fleet = StorageFleet::with_mem_clusters(2, WriteProfile::instant(), 5);
    let tt = TrueTime::simulated(SimClock::new(1_000_000), 100, 0);
    let cfg = ServerConfig::new(ServerId::from_raw(1), ClusterId::from_raw(0));
    let server = StreamServer::new(cfg, fleet, tt, Arc::new(IdGen::new(1))).unwrap();
    let streamlet = StreamletId::from_raw(3);
    let schema = Schema::new(vec![
        Field::required("k", FieldType::Int64),
        Field::required("c", FieldType::String),
    ]);
    let spec = StreamletSpec {
        table: TableId::from_raw(1),
        stream: StreamId::from_raw(2),
        streamlet,
        clusters: [ClusterId::from_raw(0), ClusterId::from_raw(1)],
        schema,
        first_stream_row: 0,
        key: Key::derive_from_passphrase("tbl"),
    };
    server.create_streamlet(spec).unwrap();
    let requests = |rows: &Arc<RowSet>| {
        let ((), _, requests) = tally::tallied(|| {
            let ack = server.append_shared(streamlet, Arc::clone(rows), 1, None, Timestamp::MIN);
            assert_eq!(ack.unwrap().row_count, rows.len() as u64);
        });
        requests
    };
    let (small, large) = (Arc::new(rows(10)), Arc::new(rows(1_000)));
    // The first appends intern the metrics the path records.
    requests(&small);
    requests(&large);
    assert_eq!(requests(&large), requests(&small), "allocator requests");
    // What the borrowing adapter pays instead: a copy of every row.
    let ((), _, copied) = tally::tallied(|| {
        let ack = server.append(streamlet, &large, 1, None, Timestamp::MIN);
        assert_eq!(ack.unwrap().row_count, 1_000);
    });
    assert!(copied >= 2_000, "the adapter copies each row: {copied}");
}
