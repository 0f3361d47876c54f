//! The names an operator's dashboards and `benchmark/src/layers.rs` read
//! are an interface: interning handles moved where names are built, and
//! must not have moved the names. One test in a binary of its own — the
//! metrics registry is process-global.

use vortex::row::{Row, RowSet, Value};
use vortex::schema::{Field, FieldType, Schema};
use vortex::{Region, RegionConfig, ScanOptions};

/// Every key of the unified snapshot after the cycle below, by section.
const PINNED: &str = "\
counter admission.admitted.background
counter admission.admitted.batch
counter admission.admitted.interactive
counter admission.queued.background
counter admission.queued.batch
counter admission.queued.interactive
counter admission.shed.background
counter admission.shed.batch
counter admission.shed.interactive
counter append.client.calls
counter append.client.dedup
counter append.client.retries
counter append.client.rows
counter append.client.throttled
counter append.server.chunks
counter append.server.rows
counter colossus.cls-0.bytes_read
counter colossus.cls-0.reads
counter colossus.cls-1.bytes_read
counter colossus.cls-1.reads
counter colossus.cls-1499.bytes_read
counter colossus.cls-1499.reads
counter colossus.cls-2828.bytes_read
counter colossus.cls-2828.reads
counter freshness.rows_observed
counter ros.candidates_encoded
counter ros.cells_by_value
counter ros.chunks_built
counter ros.row_metas_built
counter scan.bytes_decoded
counter scan.bytes_fetched
counter scan.cache.hits
counter scan.cache.misses
counter scan.calls
counter scan.cells_decoded
counter scan.fragments_total
counter scan.pruned_by_bloom
counter scan.pruned_by_stats
counter scan.reads
counter scan.rows_matched
counter scan.rows_materialized
counter scan.rows_scanned
counter scan.tail.bytes_read
counter scan.tail.rows_decoded
counter scan.tails_scanned
counter scan.zones_folded
counter scan.zones_pruned
counter scan.zones_total
counter server.group_commit.groups
counter server.group_commit.wal_events
counter server.shard00.appends
counter server.shard01.appends
counter server.shard02.appends
counter server.shard03.appends
counter sms.list_read_fragments
counter sms.list_read_fragments.shared
counter sms.reconcile_streamlet
counter wal.records_logged
counter wos.blocks_decoded
counter wos.blocks_encoded
counter wos.records_indexed
counter wos.rows_decoded
counter wos.rows_encoded
gauge admission.in_flight
gauge admission.limit
gauge admission.queue_depth.background.us
gauge admission.queue_depth.batch.us
gauge admission.queue_depth.interactive.us
gauge cache.bytes
histogram admission.queue_wait.background.us
histogram admission.queue_wait.batch.us
histogram admission.queue_wait.interactive.us
histogram append.server.replica_write_us
histogram append.server.service_us
histogram freshness.commit_to_visible_us
histogram server.group_commit.appends
histogram server.group_commit.bytes
histogram span.append.client.us
histogram span.append.server.us
histogram span.scan.us
rpc server.append
rpc server.create_streamlet
rpc server.finalize_streamlet_ctl
rpc sms.commit_conversion
rpc sms.create_stream
rpc sms.create_table
rpc sms.finalize_stream
rpc sms.heartbeat
rpc sms.list_read_fragments
";

#[test]
fn metric_names_are_pinned() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let schema = Schema::new(vec![Field::required("k", FieldType::Int64)]);
    let table = client.create_table("names", schema).unwrap().table;
    let mut w = client.create_unbuffered_writer(table).unwrap();
    for start in [0i64, 10] {
        let rows = (start..start + 10).map(|k| Row::insert(vec![Value::Int64(k)]));
        w.append(RowSet::new(rows.collect())).unwrap();
    }
    w.finalize().unwrap();
    region.run_heartbeats(false).unwrap();
    region.run_optimizer_cycle(table).unwrap();
    let engine = region.engine();
    let opts = ScanOptions::default();
    assert_eq!(engine.count(table, client.snapshot(), &opts).unwrap(), 20);
    let scanned = engine.scan(table, client.snapshot(), &opts).unwrap();
    assert_eq!(scanned.rows.len(), 20);

    let snap = region.metrics_snapshot();
    let mut names = String::new();
    let sections: [(&str, Vec<&String>); 4] = [
        ("counter", snap.counters.keys().collect()),
        ("gauge", snap.gauges.keys().collect()),
        ("histogram", snap.histograms.keys().collect()),
        ("rpc", snap.rpc.keys().collect()),
    ];
    for (section, keys) in sections {
        for key in keys {
            names.push_str(&format!("{section} {key}\n"));
        }
    }
    assert_eq!(names, PINNED, "the snapshot's key set moved:\n{names}");
}
