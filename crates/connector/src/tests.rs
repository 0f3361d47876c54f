//! End-to-end exactly-once pipeline tests over a real Vortex rig.

use std::collections::HashMap;
use std::sync::Arc;

use vortex_client::VortexClient;
use vortex_colossus::StorageFleet;
use vortex_common::ids::{ClusterId, IdGen, ServerId, SmsTaskId, TableId};
use vortex_common::latency::WriteProfile;
use vortex_common::row::{Row, Value};
use vortex_common::schema::{Field, FieldType, Schema};
use vortex_common::truetime::{SimClock, TrueTime};
use vortex_metastore::MetaStore;
use vortex_server::{ServerConfig, StreamServer};
use vortex_sms::sms::{SmsConfig, SmsTask};
use vortex_sms::SmsApi;

use crate::pipeline::{BeamSink, SinkConfig};

struct Rig {
    client: VortexClient,
    sms: Arc<SmsTask>,
}

fn rig() -> Rig {
    let clock = SimClock::new(1_000_000);
    let tt = TrueTime::simulated(clock.clone(), 100, 0);
    let fleet = StorageFleet::with_mem_clusters(2, WriteProfile::instant(), 31);
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
    let client = VortexClient::new(handle, fleet, tt);
    Rig { client, sms }
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::required("event_id", FieldType::Int64),
        Field::required("payload", FieldType::String),
    ])
}

fn input(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::insert(vec![
                Value::Int64(i as i64),
                Value::String(format!("event-{i}")),
            ])
        })
        .collect()
}

fn make_table(r: &Rig) -> TableId {
    r.client.create_table("events", schema()).unwrap().table
}

/// Every input event id appears exactly once in the visible table.
fn assert_exactly_once(r: &Rig, table: TableId, n: usize) {
    let rows = r.client.read_rows(table).unwrap();
    let mut counts: HashMap<i64, usize> = HashMap::new();
    for (_, row) in &rows.rows {
        *counts.entry(row.values[0].as_i64().unwrap()).or_default() += 1;
    }
    assert_eq!(rows.rows.len(), n, "visible row count");
    for i in 0..n as i64 {
        assert_eq!(counts.get(&i), Some(&1), "event {i} count");
    }
}

#[test]
fn happy_path_delivers_exactly_once() {
    let r = rig();
    let t = make_table(&r);
    let sink = BeamSink::new(r.client.clone(), t);
    let report = sink.run(input(500), &SinkConfig::default()).unwrap();
    assert!(report.bundles_committed > 0);
    assert_eq!(report.commits_rejected, 0);
    assert_eq!(report.zombie_rows_appended, 0);
    assert_eq!(report.flushes, report.bundles_committed);
    assert_exactly_once(&r, t, 500);
}

#[test]
fn duplicate_deliveries_are_deduped() {
    let r = rig();
    let t = make_table(&r);
    let sink = BeamSink::new(r.client.clone(), t);
    let cfg = SinkConfig {
        duplicate_deliveries: true,
        ..SinkConfig::default()
    };
    let report = sink.run(input(300), &cfg).unwrap();
    assert!(report.commits_rejected > 0, "redeliveries rejected");
    assert_exactly_once(&r, t, 300);
}

#[test]
fn zombie_workers_cannot_make_rows_visible() {
    let r = rig();
    let t = make_table(&r);
    let sink = BeamSink::new(r.client.clone(), t);
    let cfg = SinkConfig {
        workers: 4,
        bundle_size: 32,
        zombie_partitions: vec![0, 2],
        duplicate_deliveries: false,
    };
    let report = sink.run(input(400), &cfg).unwrap();
    assert!(report.commits_rejected > 0, "someone lost each race");
    // Exactly once despite zombie appends sitting in the table's WOS.
    assert_exactly_once(&r, t, 400);
    // The zombies really did append durable rows that stay invisible —
    // count raw committed rows across streams vs visible ones. (Raw rows
    // live in unflushed BUFFERED streams; the read path hides them.)
    let visible = r.client.read_rows(t).unwrap().rows.len() as u64;
    assert_eq!(visible, 400);
}

#[test]
fn zombies_on_every_partition_still_exactly_once() {
    let r = rig();
    let t = make_table(&r);
    let sink = BeamSink::new(r.client.clone(), t);
    let cfg = SinkConfig {
        workers: 3,
        bundle_size: 16,
        zombie_partitions: vec![0, 1, 2],
        duplicate_deliveries: true,
    };
    sink.run(input(240), &cfg).unwrap();
    assert_exactly_once(&r, t, 240);
}

#[test]
fn sequential_runs_accumulate() {
    let r = rig();
    let t = make_table(&r);
    let sink = BeamSink::new(r.client.clone(), t);
    sink.run(input(100), &SinkConfig::default()).unwrap();
    // Second run delivers a disjoint set of events.
    let more: Vec<Row> = (100..200)
        .map(|i| Row::insert(vec![Value::Int64(i), Value::String(format!("event-{i}"))]))
        .collect();
    sink.run(more, &SinkConfig::default()).unwrap();
    assert_exactly_once(&r, t, 200);
}

#[test]
fn empty_input_is_fine() {
    let r = rig();
    let t = make_table(&r);
    let sink = BeamSink::new(r.client.clone(), t);
    let report = sink.run(vec![], &SinkConfig::default()).unwrap();
    assert_eq!(report.bundles_committed, 0);
    assert!(r.client.read_rows(t).unwrap().rows.is_empty());
    let _ = &r.sms;
}

#[test]
fn zero_workers_rejected() {
    let r = rig();
    let t = make_table(&r);
    let sink = BeamSink::new(r.client.clone(), t);
    let cfg = SinkConfig {
        workers: 0,
        ..SinkConfig::default()
    };
    assert!(sink.run(input(10), &cfg).is_err());
}
