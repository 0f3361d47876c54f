//! End-to-end tests over real SMS + Stream Server + Colossus: the client
//! (`ClientRig`, a two-column `k`/`v` table) and the query engine that
//! reads through it — pruning, aggregation, CDC resolution, DML and SQL
//! (`Rig`, a partitioned and clustered `day`/`customer`/`amount` table
//! with a storage optimizer).

use std::sync::Arc;

use vortex_colossus::StorageFleet;
use vortex_common::error::VortexError;
use vortex_common::ids::{ClusterId, IdGen, ServerId, SmsTaskId, TableId};
use vortex_common::latency::WriteProfile;
use vortex_common::row::{Row, RowSet, Value};
use vortex_common::schema::{ChangeType, Field, FieldType, PartitionTransform, Schema};
use vortex_common::truetime::{SimClock, TrueTime};
use vortex_metastore::MetaStore;
use vortex_optimizer::{OptimizerConfig, StorageOptimizer};
use vortex_server::{ServerConfig, StreamServer};
use vortex_sms::server_ctl::StreamServerApi;
use vortex_sms::sms::{SmsConfig, SmsTask};
use vortex_sms::SmsApi;

use crate::api::VortexClient;
use crate::dml::DmlExecutor;
use crate::engine::{AggKind, QueryEngine, ScanOptions};
use crate::expr::Expr;
use crate::write::WriterOptions;

pub(crate) struct ClientRig {
    pub client: VortexClient,
    pub fleet: StorageFleet,
    pub clock: SimClock,
    pub servers: Vec<Arc<StreamServer>>,
    pub sms: Arc<SmsTask>,
}

pub(crate) fn client_rig() -> ClientRig {
    rig_with_profile(WriteProfile::instant())
}

pub(crate) fn rig_with_profile(profile: WriteProfile) -> ClientRig {
    let clock = SimClock::new(1_000_000);
    let tt = TrueTime::simulated(clock.clone(), 100, 0);
    let fleet = StorageFleet::with_mem_clusters(2, profile, 11);
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
    let mut servers = vec![];
    for i in 0..2u64 {
        let server = StreamServer::new(
            ServerConfig::new(ServerId::from_raw(100 + i), ClusterId::from_raw(i % 2)),
            fleet.clone(),
            tt.clone(),
            Arc::clone(&ids),
        )
        .unwrap();
        sms.register_server(server.clone());
        servers.push(server);
    }
    let handle: vortex_sms::api::SmsHandle = sms.clone();
    ClientRig {
        client: VortexClient::new(handle, fleet.clone(), tt),
        fleet,
        clock,
        servers,
        sms,
    }
}

fn kv_schema() -> Schema {
    Schema::new(vec![
        Field::required("k", FieldType::Int64),
        Field::required("v", FieldType::String),
    ])
}

fn kv_rows(start: i64, n: usize) -> RowSet {
    RowSet::new(
        (0..n)
            .map(|i| {
                Row::insert(vec![
                    Value::Int64(start + i as i64),
                    Value::String(format!("v{}", start + i as i64)),
                ])
            })
            .collect(),
    )
}

fn keys(tr: &crate::TableRows) -> Vec<i64> {
    let mut ks: Vec<i64> = tr
        .rows
        .iter()
        .map(|(_, r)| r.values[0].as_i64().unwrap())
        .collect();
    ks.sort_unstable();
    ks
}

#[test]
fn read_after_write_visibility() {
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(kv_rows(0, 10)).unwrap();
    // Immediately readable — no heartbeat has run; this goes through the
    // streamlet tail path (§7).
    let tr = r.client.read_rows(t.table).unwrap();
    assert_eq!(keys(&tr), (0..10).collect::<Vec<_>>());
    // Stream-level offsets are exact.
    let offsets: Vec<u64> = tr.rows.iter().map(|(m, _)| m.offset).collect();
    assert_eq!(offsets, (0..10).collect::<Vec<u64>>());
}

#[test]
fn multiple_appends_accumulate() {
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    for i in 0..5 {
        let res = w.append(kv_rows(i * 10, 10)).unwrap();
        assert_eq!(res.row_offset, (i as u64) * 10);
    }
    assert_eq!(w.next_offset(), 50);
    let tr = r.client.read_rows(t.table).unwrap();
    assert_eq!(tr.rows.len(), 50);
}

#[test]
fn snapshot_isolation_time_travel() {
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(kv_rows(0, 5)).unwrap();
    r.clock.advance(1_000);
    let snap = r.client.snapshot();
    r.clock.advance(1_000);
    w.append(kv_rows(5, 5)).unwrap();
    // Old snapshot sees only the first batch.
    let old = r.client.read_rows_at(t.table, snap).unwrap();
    assert_eq!(keys(&old), (0..5).collect::<Vec<_>>());
    let new = r.client.read_rows(t.table).unwrap();
    assert_eq!(new.rows.len(), 10);
}

#[test]
fn buffered_stream_respects_flush_watermark() {
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap();
    let mut w = r.client.create_buffered_writer(t.table).unwrap();
    w.append(kv_rows(0, 10)).unwrap();
    // Nothing visible before flush.
    assert!(r.client.read_rows(t.table).unwrap().rows.is_empty());
    w.flush(6).unwrap();
    let tr = r.client.read_rows(t.table).unwrap();
    assert_eq!(keys(&tr), (0..6).collect::<Vec<_>>());
    // Flushing is idempotent and monotone; re-flushing less is a no-op.
    w.flush(6).unwrap();
    w.flush(3).unwrap();
    assert_eq!(r.client.read_rows(t.table).unwrap().rows.len(), 6);
    // Appending more keeps the watermark.
    w.append(kv_rows(10, 5)).unwrap();
    assert_eq!(r.client.read_rows(t.table).unwrap().rows.len(), 6);
    w.flush(15).unwrap();
    assert_eq!(r.client.read_rows(t.table).unwrap().rows.len(), 15);
}

#[test]
fn pending_streams_commit_atomically() {
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap();
    let mut w1 = r.client.create_pending_writer(t.table).unwrap();
    let mut w2 = r.client.create_pending_writer(t.table).unwrap();
    w1.append(kv_rows(0, 5)).unwrap();
    w2.append(kv_rows(100, 5)).unwrap();
    assert!(r.client.read_rows(t.table).unwrap().rows.is_empty());
    let s1 = w1.stream_id();
    let s2 = w2.stream_id();
    let commit = r.client.batch_commit(t.table, &[s1, s2]).unwrap();
    // Before the commit: nothing; after: both streams' rows.
    let before = r
        .client
        .read_rows_at(t.table, commit.minus_micros(1))
        .unwrap();
    assert!(before.rows.is_empty());
    let after = r.client.read_rows_at(t.table, commit).unwrap();
    assert_eq!(after.rows.len(), 10);
}

#[test]
fn exactly_once_across_streamlet_failure() {
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(kv_rows(0, 10)).unwrap();
    // Break cluster 1 for a burst of writes: the streamlet fails, the
    // writer reconciles + rotates and retries.
    r.fleet
        .get(ClusterId::from_raw(1))
        .unwrap()
        .faults()
        .fail_next_appends(10);
    let res = w.append(kv_rows(10, 10)).unwrap();
    assert_eq!(res.row_offset, 10);
    w.append(kv_rows(20, 10)).unwrap();
    let tr = r.client.read_rows(t.table).unwrap();
    assert_eq!(keys(&tr), (0..30).collect::<Vec<_>>(), "no loss");
    // Offsets unique: exactly-once.
    let mut offsets: Vec<u64> = tr.rows.iter().map(|(m, _)| m.offset).collect();
    offsets.sort_unstable();
    offsets.dedup();
    assert_eq!(offsets.len(), 30, "no duplicates");
    // More than one streamlet exists now.
    assert!(r.sms.list_streamlets(t.table).len() >= 2);
}

#[test]
fn schema_evolution_mid_stream() {
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(kv_rows(0, 3)).unwrap();
    // Evolve: add a nullable column.
    let evolved = t
        .schema
        .evolve_add_column(Field::nullable("note", FieldType::String))
        .unwrap();
    r.sms.update_schema(t.table, evolved).unwrap();
    // The writer still holds v1; the server rejects, the writer refetches
    // and pads — transparently.
    assert_eq!(w.schema_version(), 1);
    w.append(kv_rows(3, 3)).unwrap();
    assert_eq!(w.schema_version(), 2);
    // New-style rows with the extra column work too.
    w.append(RowSet::new(vec![Row::insert(vec![
        Value::Int64(6),
        Value::String("v6".into()),
        Value::String("annotated".into()),
    ])]))
    .unwrap();
    let tr = r.client.read_rows(t.table).unwrap();
    assert_eq!(tr.rows.len(), 7);
    assert_eq!(tr.schema.version, 2);
}

#[test]
fn at_least_once_mode_appends_at_end() {
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap();
    let mut w = r
        .client
        .create_writer(
            t.table,
            WriterOptions {
                exactly_once: false,
                ..WriterOptions::default()
            },
        )
        .unwrap();
    w.append(kv_rows(0, 4)).unwrap();
    w.append(kv_rows(4, 4)).unwrap();
    assert_eq!(r.client.read_rows(t.table).unwrap().rows.len(), 8);
    // With no offset to dedup by, a retried bundle is visibly duplicated —
    // the at-least-once behaviour the exactly-once sink (§7.4) exists to
    // prevent.
    w.append(kv_rows(4, 4)).unwrap();
    let seen = keys(&r.client.read_rows(t.table).unwrap());
    assert_eq!(seen, vec![0, 1, 2, 3, 4, 4, 5, 5, 6, 6, 7, 7]);
}

#[test]
fn read_with_one_cluster_down() {
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(kv_rows(0, 8)).unwrap();
    // Cluster 0 goes dark. The read path fails over to cluster 1; the
    // ambiguous tail (single replica, uncommitted final block) triggers
    // SMS reconciliation, after which the read completes.
    r.fleet
        .get(ClusterId::from_raw(0))
        .unwrap()
        .faults()
        .set_unavailable(true);
    let tr = r.client.read_rows(t.table).unwrap();
    assert_eq!(keys(&tr), (0..8).collect::<Vec<_>>());
}

#[test]
fn garbage_on_one_replica_is_ignored() {
    use vortex_sms::meta::wos_path;
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(kv_rows(0, 5)).unwrap();
    let sl = r.sms.list_streamlets(t.table)[0].streamlet;
    // Unparseable junk lands on ONE replica (e.g. a torn OS-level write).
    let path = wos_path(t.table, sl, 0);
    r.fleet
        .get(ClusterId::from_raw(0))
        .unwrap()
        .append(
            &path,
            &[0xDE, 0xAD, 0xBE, 0xEF],
            vortex_common::truetime::Timestamp(0),
        )
        .unwrap();
    // The junk never parses as a record: both replicas have the same
    // *valid* prefix, so reads proceed without reconciliation and serve
    // exactly the acked rows.
    let tr = r.client.read_rows(t.table).unwrap();
    assert_eq!(keys(&tr), (0..5).collect::<Vec<_>>());
}

#[test]
fn diverged_replicas_trigger_reconciliation_on_read() {
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(kv_rows(0, 5)).unwrap();
    let sl = r.sms.list_streamlets(t.table)[0].streamlet;
    // One replica write fails AFTER the other replica already wrote: the
    // server rotates fragments internally and retries, leaving one
    // replica's fragment 0 with a VALID but unacked (torn) data block
    // the other replica lacks (§5.6). Replicas are written in cluster
    // order [primary, secondary]; failing the secondary (cluster 0 for
    // this table) tears the write after the primary copy landed.
    r.fleet
        .get(ClusterId::from_raw(0))
        .unwrap()
        .faults()
        .fail_next_appends(1);
    w.append(kv_rows(5, 5)).unwrap();
    // The SMS has heard no heartbeat → the whole streamlet is a tail
    // read. Fragment 0's replicas diverge (a torn block on one), but the
    // successor fragment's File Map certifies f0's committed extent
    // (§7.1) — so the read needs NO reconciliation and serves exactly
    // the acked rows, no dupes from the torn block + its retry.
    let tr = r.client.read_rows(t.table).unwrap();
    assert_eq!(keys(&tr), (0..10).collect::<Vec<_>>());
    let mut offsets: Vec<u64> = tr.rows.iter().map(|(m, _)| m.offset).collect();
    offsets.sort_unstable();
    offsets.dedup();
    assert_eq!(offsets.len(), 10, "torn block must not duplicate rows");
    // No reconciliation happened: the streamlet is still writable.
    let sl_meta = r.sms.get_streamlet(t.table, sl).unwrap();
    assert_eq!(sl_meta.state, vortex_sms::meta::StreamletState::Writable);
    // And writing continues uninterrupted.
    w.append(kv_rows(10, 5)).unwrap();
    assert_eq!(
        keys(&r.client.read_rows(t.table).unwrap()),
        (0..15).collect::<Vec<_>>()
    );
}

#[test]
fn pipelined_appends_overlap_in_virtual_time() {
    // With a realistic latency profile, 8 pipelined appends should finish
    // far sooner than 8 serial ones.
    let serial_total = {
        let r = rig_with_profile(WriteProfile::paper_colossus());
        let t = r.client.create_table("t", kv_schema()).unwrap();
        let mut w = r
            .client
            .create_writer(
                t.table,
                WriterOptions {
                    pipelined: false,
                    ..WriterOptions::default()
                },
            )
            .unwrap();
        let mut last = 0u64;
        for i in 0..8 {
            let res = w.append(kv_rows(i * 10, 10)).unwrap();
            last = res.completion.micros();
        }
        last
    };
    let pipelined_total = {
        let r = rig_with_profile(WriteProfile::paper_colossus());
        let t = r.client.create_table("t", kv_schema()).unwrap();
        let mut w = r
            .client
            .create_writer(
                t.table,
                WriterOptions {
                    pipelined: true,
                    ..WriterOptions::default()
                },
            )
            .unwrap();
        // Warm the transport into bi-di mode (pipelining needs it).
        for i in 0..20 {
            w.append(kv_rows(i * 10, 10)).unwrap();
        }
        let start = r.client.truetime().record_timestamp().micros();
        let mut last = 0u64;
        for i in 20..28 {
            let res = w.append(kv_rows(i * 10, 10)).unwrap();
            last = res.completion.micros();
        }
        last - start
    };
    assert!(
        pipelined_total * 2 < serial_total,
        "pipelined {pipelined_total}us vs serial {serial_total}us"
    );
}

#[test]
fn duplicate_offset_append_rejected() {
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(kv_rows(0, 5)).unwrap();
    // A second writer (e.g. a retried zombie task) targeting the same
    // offset on the same stream: the offset check rejects it. We simulate
    // by rewinding the writer's internal offset through a fresh writer on
    // the same stream — the server-side check is what matters.
    let handle = r.sms.list_streamlets(t.table)[0].clone();
    let server = &r.servers[handle.server.raw() as usize - 100];
    let err = server
        .append(
            handle.streamlet,
            &kv_rows(0, 5),
            1,
            Some(0),
            vortex_common::truetime::Timestamp::MIN,
        )
        .unwrap_err();
    assert!(matches!(
        err,
        VortexError::OffsetMismatch { expected: 5, .. }
    ));
}

#[test]
fn empty_append_rejected() {
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    assert!(w.append(RowSet::default()).is_err());
}

#[test]
fn finalized_stream_rejects_appends() {
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(kv_rows(0, 3)).unwrap();
    let stream = w.stream_id();
    w.finalize().unwrap();
    // A new writer can't be bound to the finalized stream; appends via a
    // fresh writer on the same table still work.
    assert!(r.sms.rotate_streamlet(t.table, stream).is_err());
    let mut w2 = r.client.create_unbuffered_writer(t.table).unwrap();
    w2.append(kv_rows(3, 3)).unwrap();
    assert_eq!(r.client.read_rows(t.table).unwrap().rows.len(), 6);
}

#[test]
fn heartbeat_then_read_uses_fragment_specs() {
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(kv_rows(0, 10)).unwrap();
    // Reconcile (simulating a rotation) so fragments become known, then
    // heartbeat.
    let sl = r.sms.list_streamlets(t.table)[0].streamlet;
    r.sms.reconcile_streamlet(t.table, sl).unwrap();
    let rs = r
        .sms
        .list_read_fragments(t.table, r.sms.read_snapshot())
        .unwrap();
    assert!(!rs.fragments.is_empty());
    assert!(rs.tails.is_empty(), "finalized streamlet has no tail");
    let tr = r.client.read_rows(t.table).unwrap();
    assert_eq!(tr.rows.len(), 10);
}

#[test]
fn dedup_ledger_stays_bounded_under_steady_appends() {
    // Satellite regression: the exactly-once dedup ledger must evict
    // entries below the committed watermark — steady-state appends keep
    // it O(1), never O(stream length).
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    for i in 0..50 {
        w.append(kv_rows(i * 4, 4)).unwrap();
        assert!(
            w.dedup_ledger_len() <= 1,
            "ledger grew to {} after {} appends",
            w.dedup_ledger_len(),
            i + 1
        );
    }
    assert_eq!(w.dedup_ledger_len(), 0, "fully acked writer holds nothing");
    assert_eq!(r.client.read_rows(t.table).unwrap().rows.len(), 200);
}

#[test]
fn dedup_ledger_evicts_after_ambiguous_retry_resolves() {
    // Force the ambiguous-ack path (both replicas fail → rotate →
    // reconcile), then confirm the ledger entry for the ambiguous batch
    // is dropped once the watermark passes it.
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(kv_rows(0, 8)).unwrap();
    for c in 0..2u64 {
        r.fleet
            .get(ClusterId::from_raw(c))
            .unwrap()
            .faults()
            .fail_next_appends(2);
    }
    let res = w.append(kv_rows(8, 8)).unwrap();
    assert_eq!(res.row_offset, 8);
    w.append(kv_rows(16, 8)).unwrap();
    assert!(
        w.dedup_ledger_len() <= 1,
        "ambiguous batches must not pin ledger entries: {}",
        w.dedup_ledger_len()
    );
    assert_eq!(
        keys(&r.client.read_rows(t.table).unwrap()),
        (0..24).collect::<Vec<_>>()
    );
}

mod gate {
    use std::sync::OnceLock;

    use proptest::prelude::*;
    use vortex_common::mask::DeletionMask;
    use vortex_common::truetime::Timestamp;
    use vortex_sms::readset::{FragmentReadSpec, RowVisibility, TailReadSpec};

    use super::*;
    use crate::read::RowGate;

    /// A fragment's read spec and a tail's, from one rig: the tail of a
    /// streamlet before reconciliation, its fragment after.
    fn specs() -> &'static (FragmentReadSpec, TailReadSpec) {
        static SPECS: OnceLock<(FragmentReadSpec, TailReadSpec)> = OnceLock::new();
        SPECS.get_or_init(|| {
            let r = client_rig();
            let t = r.client.create_table("t", kv_schema()).unwrap().table;
            let mut w = r.client.create_unbuffered_writer(t).unwrap();
            w.append(kv_rows(0, 10)).unwrap();
            let listed = || r.sms.list_read_fragments(t, r.sms.read_snapshot()).unwrap();
            let tail = listed().tails[0].clone();
            let sl = r.sms.list_streamlets(t)[0].streamlet;
            r.sms.reconcile_streamlet(t, sl).unwrap();
            (listed().fragments[0].clone(), tail)
        })
    }

    /// Masks of up to three ranges, each starting one row before, at or
    /// after the edge of a zone of 8 rows.
    fn masks() -> impl Strategy<Value = DeletionMask> {
        let range = (0u64..6, 0u64..3, 1u64..12);
        proptest::collection::vec(range, 0..3).prop_map(|ranges| {
            let mut mask = DeletionMask::new();
            for (zone, shift, len) in ranges {
                let start = (zone * 8 + shift).saturating_sub(1);
                mask.delete_range(start, start + len);
            }
            mask
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `admits_all` of a range is `admits` of every row in it, for
        /// each zone of a fragment or a tail and for ranges across zone
        /// edges: under masks at zone edges, a flush limit mid-zone, a
        /// shut gate, a fragment's extent past its first row and a tail's
        /// from its first unlisted row.
        #[test]
        fn admits_all_is_admits_of_every_row(
            mask in masks(),
            flush_limit in prop_oneof![Just(None), (0u64..56).prop_map(Some)],
            shut in any::<bool>(),
            tail in any::<bool>(),
            (first_row, row_count, from_row) in (0u64..12, 0u64..44, 0u64..20),
            spans in proptest::collection::vec((0u64..48, 0u64..20), 0..6),
        ) {
            let (fragment, tail_spec) = specs();
            let visibility = RowVisibility {
                visible_from: Timestamp(if shut { 200 } else { 0 }),
                flush_limit,
            };
            let snapshot = Timestamp(100);
            let (mut fragment, mut tail_spec) = (fragment.clone(), tail_spec.clone());
            fragment.meta.first_row = first_row;
            fragment.meta.row_count = row_count;
            (fragment.mask, tail_spec.mask) = (mask.clone(), mask);
            (fragment.visibility, tail_spec.visibility) = (visibility.clone(), visibility);
            tail_spec.from_row = from_row;
            let gate = match tail {
                true => RowGate::for_tail(&tail_spec, snapshot),
                false => RowGate::for_fragment(&fragment, snapshot),
            };
            let zones = (0..7).map(|z| z * 8..z * 8 + 8);
            for range in zones.chain(spans.into_iter().map(|(at, len)| at..at + len)) {
                let each = range.clone().all(|pos| gate.admits(pos));
                prop_assert_eq!(gate.admits_all(range.clone()), each, "{:?}", range);
            }
        }

        /// `admitted` of a decoded zone is the rows `admits` and no stamp
        /// past the snapshot stops, with the zone's newest stamp: over the
        /// zones and spans above, stamped in write order, one step after
        /// another or backwards, from before, across or after the
        /// snapshot; of a fragment's gate, a tail's and a ROS block's
        /// (which no stamp stops), under the masks, flush limits, shut
        /// gates and extents above.
        #[test]
        fn admitted_is_admits_of_every_row(
            mask in masks(),
            flush_limit in prop_oneof![Just(None), (0u64..56).prop_map(Some)],
            shut in any::<bool>(),
            (tail, ros) in (any::<bool>(), any::<bool>()),
            (first_row, row_count, from_row) in (0u64..12, 0u64..44, 0u64..20),
            spans in proptest::collection::vec((0u64..48, 0u64..20), 0..6),
            stamps in proptest::collection::vec((60u64..130, 0u64..6, any::<bool>()), 13..14),
        ) {
            use vortex_ros::RowMeta;
            use vortex_sms::meta::FragmentKind;
            use crate::read::Zone;
            let (fragment, tail_spec) = specs();
            let visibility = RowVisibility {
                visible_from: Timestamp(if shut { 200 } else { 0 }),
                flush_limit,
            };
            let snapshot = Timestamp(100);
            let (mut fragment, mut tail_spec) = (fragment.clone(), tail_spec.clone());
            fragment.meta.first_row = first_row;
            fragment.meta.row_count = row_count;
            if ros {
                fragment.meta.kind = FragmentKind::Ros;
            }
            (fragment.mask, tail_spec.mask) = (mask.clone(), mask);
            (fragment.visibility, tail_spec.visibility) = (visibility.clone(), visibility);
            tail_spec.from_row = from_row;
            let gate = match tail {
                true => RowGate::for_tail(&tail_spec, snapshot),
                false => RowGate::for_fragment(&fragment, snapshot),
            };
            let zones = (0..7).map(|z| z * 8..z * 8 + 8);
            let ranges = zones.chain(spans.into_iter().map(|(at, len)| at..at + len));
            for (range, (start, step, backwards)) in ranges.zip(stamps) {
                let n = (range.end - range.start) as usize;
                let ts = |i: usize| {
                    let i = if backwards { n - 1 - i } else { i };
                    Timestamp(start + step * i as u64)
                };
                let metas = (0..n).map(|i| RowMeta { ts: ts(i), ..RowMeta::default() });
                let zone = Zone { first: range.start, metas: metas.collect(), cols: vec![] };
                let each = (0..n).filter(|&i| {
                    !gate.stops_at(ts(i)) && gate.admits(range.start + i as u64)
                });
                let newest = (0..n).map(ts).max().unwrap_or_default();
                let want = (each.collect::<Vec<usize>>(), newest);
                prop_assert_eq!(gate.admitted(&zone), want, "{:?}", range);
            }
        }
    }
}

/// A tail whose streamlet was reconciled after the read's snapshot is
/// read from its reconciled fragment records through the read's cache: a
/// second read of it at the same snapshot is a hit and reads, so decodes,
/// nothing.
#[test]
fn a_reconciled_tail_is_read_through_the_cache() {
    use crate::cache::ReadCache;
    use crate::read::read_reconciled_tail;
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap().table;
    let mut w = r.client.create_unbuffered_writer(t).unwrap();
    w.append(kv_rows(0, 8)).unwrap();
    let snap = r.client.snapshot();
    let tail = r.sms.list_read_fragments(t, snap).unwrap().tails[0].clone();
    r.sms.reconcile_streamlet(t, tail.streamlet).unwrap();
    let list_at = r.sms.read_snapshot();
    let sms: vortex_sms::api::SmsHandle = r.sms.clone();
    let key = r.sms.get_table(t).unwrap().encryption_key();
    let cache = ReadCache::new(usize::MAX);
    let read = || {
        let at = (&sms, &r.fleet, &key, Some(&*cache));
        let visible = read_reconciled_tail(at, (t, &tail), (snap, list_at)).unwrap();
        let zones = visible.iter().flat_map(|v| v.iter());
        let offsets = zones.flat_map(|(zone, at)| at.iter().map(|&i| zone.metas[i].offset));
        offsets.collect::<Vec<u64>>()
    };
    let reads = || r.fleet.clusters().map(|c| c.read_counts().0).sum::<u64>();
    let first = read();
    assert_eq!(first, (0..8).collect::<Vec<_>>());
    let (tally, before) = (cache.tally(), reads());
    assert_eq!((tally.hits, tally.misses), (0, 1));
    assert_eq!(read(), first);
    let tally = cache.tally();
    assert_eq!((tally.hits, tally.misses, reads()), (1, 1, before));
}

/// A reconciled tail's fragment record that does not decode fails the
/// read: the listing it plans from leaves no record out.
#[test]
fn an_undecodable_fragment_record_fails_a_reconciled_tail() {
    use crate::read::{read_reconciled_tail, Visible};
    use vortex_sms::meta::{FragmentMeta, Record};
    let r = client_rig();
    let t = r.client.create_table("t", kv_schema()).unwrap().table;
    let mut w = r.client.create_unbuffered_writer(t).unwrap();
    w.append(kv_rows(0, 8)).unwrap();
    let snap = r.client.snapshot();
    let tail = r.sms.list_read_fragments(t, snap).unwrap().tails[0].clone();
    r.sms.reconcile_streamlet(t, tail.streamlet).unwrap();
    let sms: vortex_sms::api::SmsHandle = r.sms.clone();
    let key = r.sms.get_table(t).unwrap().encryption_key();
    let read = |list_at| {
        let at = (&sms, &r.fleet, &key, None);
        read_reconciled_tail(at, (t, &tail), (snap, list_at))
    };
    let rows = |visible: Vec<Visible>| visible.iter().map(Visible::len).sum::<usize>();
    let list_at = r.sms.read_snapshot();
    assert_eq!(rows(read(list_at).unwrap()), 8);
    let listed = sms.try_list_fragments(t, list_at).unwrap();
    let fragment = listed
        .iter()
        .find(|f| f.streamlet == tail.streamlet)
        .unwrap();
    let store = r.sms.store();
    let mut txn = store.begin();
    txn.put(&FragmentMeta::key((t, fragment.fragment)), vec![0xff]);
    txn.commit().unwrap();
    let list_at = r.sms.read_snapshot();
    let failed = read(list_at);
    assert!(
        matches!(failed, Err(VortexError::Decode(_))),
        "not fewer rows"
    );
}

/// The FSST matcher a coded equality builds for a cached block is charged
/// to the cache with the block's cells: `cache.bytes` grows by its size
/// once — a second equality on the column shares it — and falls back by
/// it, with the rest of the block, when the block is evicted.
#[test]
fn a_built_matcher_is_charged_to_the_cache() {
    use crate::cache::ReadCache;
    use crate::read::{open_ros_block, Zone};
    use vortex_common::ids::FragmentId;
    use vortex_common::truetime::Timestamp;
    use vortex_ros::{RosBlockBuilder, RowMeta, ZONE_ROWS};
    use vortex_sms::meta::{FragmentKind, FragmentMeta, FragmentState};
    let r = client_rig();
    let schema = Schema::new(vec![Field::required("s", FieldType::String)]);
    let cell = |i: u64| {
        format!(
            "sess={:08x} ua=Chrome os=Linux",
            i * 2_654_435_761 % (1 << 32)
        )
    };
    let mut b = RosBlockBuilder::new(&schema);
    for i in 0..2 * ZONE_ROWS as u64 {
        let meta = RowMeta {
            offset: i,
            ..RowMeta::default()
        };
        b.push(meta, Row::insert(vec![Value::String(cell(i))]))
            .unwrap();
    }
    let key = vortex_common::crypt::Key::zero();
    let file = b.build(false).unwrap().to_bytes(&key, 5);
    let clusters = [ClusterId::from_raw(0), ClusterId::from_raw(1)];
    for c in clusters {
        let cluster = r.fleet.get(c).unwrap();
        cluster.append("ros/matcher", &file, Timestamp(0)).unwrap();
    }
    let meta = FragmentMeta {
        fragment: FragmentId::from_raw(5),
        table: vortex_common::ids::TableId::from_raw(1),
        streamlet: vortex_common::ids::StreamletId::from_raw(0),
        kind: FragmentKind::Ros,
        ordinal: 0,
        first_row: 0,
        row_count: 2 * ZONE_ROWS as u64,
        committed_size: file.len() as u64,
        state: FragmentState::Finalized,
        created_at: Timestamp::MIN,
        deleted_at: Timestamp::MAX,
        clusters,
        path: "ros/matcher".into(),
        stats: vec![],
        masks: vec![],
        partition_key: None,
        level: 1,
    };
    let cache = ReadCache::new(1 << 20);
    let mut open = open_ros_block(&meta, &r.fleet, &key, Some(&cache)).unwrap();
    open.fetch(|_, _| true).unwrap();
    let held = cache.bytes() as u64;
    let equal = |z: usize, i: u64| {
        let mut sel: Vec<usize> = (0..ZONE_ROWS).collect();
        let literal = [Value::String(cell(i))];
        let kept = open.block.retain_coded((0, z), (&literal, true), &mut sel);
        (kept.unwrap().expect("an Fsst chunk"), sel)
    };
    let (kept, sel) = equal(0, 7);
    assert_eq!(sel, [7]);
    assert!(kept > 0, "the matcher is held with the block");
    open.charge(kept);
    assert_eq!(cache.bytes() as u64, held + kept);
    let (again, sel) = equal(1, ZONE_ROWS as u64 + 3);
    assert_eq!((again, sel), (0, vec![3]), "one matcher per column");
    open.charge(again);
    assert_eq!(cache.bytes() as u64, held + kept);
    // A newer entry past the bound evicts the block, matcher and all.
    let zone = Zone {
        first: 0,
        metas: vec![RowMeta::default(); (1 << 20) / std::mem::size_of::<RowMeta>()],
        cols: vec![],
    };
    let header = vortex_wos::FragmentHeader {
        format_version: 1,
        streamlet: vortex_common::ids::StreamletId::from_raw(1),
        fragment: FragmentId::from_raw(2),
        ordinal: 0,
        schema_version: 1,
        first_row: 0,
        file_map: vec![],
    };
    let (maps, newest, bloom) = (vec![], Timestamp(0), None);
    let stats = crate::read::ZoneStats {
        maps,
        newest,
        bloom,
    };
    let zones = vec![(Arc::new(zone), Arc::new(stats))];
    let (len, epoch, sealed) = (1, 0, true);
    let log = crate::cache::LogFile {
        len,
        header,
        zones,
        epoch,
        sealed,
    };
    cache.put_log("wos/other", &Arc::new(log), None, 0);
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.bytes(), 1 << 20);
}

// ---------------------------------------------------------------------
// The query engine: pruning, aggregation, CDC resolution, DML and SQL.
// ---------------------------------------------------------------------

struct Rig {
    sms: Arc<SmsTask>,
    client: VortexClient,
    engine: QueryEngine,
    opt: StorageOptimizer,
    dml: DmlExecutor,
    clock: SimClock,
}

fn rig() -> Rig {
    rig_with_block_rows(128)
}

fn rig_with_block_rows(target_block_rows: usize) -> Rig {
    let clock = SimClock::new(1_000_000);
    let tt = TrueTime::simulated(clock.clone(), 100, 0);
    let fleet = StorageFleet::with_mem_clusters(2, WriteProfile::instant(), 23);
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
        fleet.clone(),
        ids,
        OptimizerConfig { target_block_rows },
    );
    let dml = DmlExecutor::new(client.clone());
    Rig {
        sms,
        client,
        engine,
        opt,
        dml,
        clock,
    }
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::required("day", FieldType::Int64),
        Field::required("customer", FieldType::String),
        Field::required("amount", FieldType::Int64),
    ])
    .with_partition("day", PartitionTransform::Identity)
    .with_clustering(&["customer"])
}

fn rows(start: i64, n: usize) -> RowSet {
    RowSet::new(
        (0..n)
            .map(|i| {
                let k = start + i as i64;
                Row::insert(vec![
                    Value::Int64(k / 100), // day changes every 100 rows
                    Value::String(format!("cust-{:04}", k % 50)),
                    Value::Int64(k),
                ])
            })
            .collect(),
    )
}

/// Ingest, finalize, convert: everything lands in partition-split ROS.
fn load_converted(r: &Rig, n: usize) -> TableId {
    let t = r.sms.create_table("t", schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(rows(0, n)).unwrap();
    let s = w.stream_id();
    r.sms.finalize_stream(t.table, s).unwrap();
    r.opt.convert_wos(t.table).unwrap();
    t.table
}

/// The reference every scan must be indistinguishable from: all rows
/// visible at `snap` materialized by the decode-everything read, filtered
/// one by one with `Expr::eval`, then every column outside the
/// projection nulled.
fn oracle_scan(
    r: &Rig,
    t: TableId,
    snap: vortex_common::truetime::Timestamp,
    pred: &Expr,
    projection: Option<&[String]>,
) -> Vec<(vortex_ros::RowMeta, Row)> {
    let fleet = r.client.fleet();
    let (schema, all) = crate::read::decode_everything(r.client.sms(), fleet, t, snap).unwrap();
    let mut kept = Vec::new();
    for (meta, mut row) in all {
        if !pred.eval(&schema, &row).unwrap() {
            continue;
        }
        if let Some(cols) = projection {
            for (field, v) in schema.fields.iter().zip(row.values.iter_mut()) {
                if !cols.contains(&field.name) {
                    *v = Value::Null;
                }
            }
        }
        kept.push((meta, row));
    }
    kept
}

fn amounts(rows: &[(vortex_ros::RowMeta, Row)]) -> Vec<i64> {
    let mut v: Vec<i64> = rows
        .iter()
        .map(|(_, r)| r.values[2].as_i64().unwrap())
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn full_scan_returns_everything() {
    let r = rig();
    let t = load_converted(&r, 300);
    let res = r
        .engine
        .scan(t, r.sms.read_snapshot(), &ScanOptions::default())
        .unwrap();
    assert_eq!(res.rows.len(), 300);
    assert_eq!(res.stats.rows_matched, 300);
    assert_eq!(res.stats.pruned_by_stats, 0);
}

#[test]
fn partition_elimination_by_stats() {
    let r = rig();
    let t = load_converted(&r, 300); // days 0,1,2
    let opts = ScanOptions {
        predicate: Expr::eq("day", Value::Int64(1)),
        ..ScanOptions::default()
    };
    let res = r.engine.scan(t, r.sms.read_snapshot(), &opts).unwrap();
    assert_eq!(res.rows.len(), 100);
    assert!(
        res.stats.pruned_by_stats >= 2,
        "other partitions pruned: {:?}",
        res.stats
    );
    // Scanned rows ≈ one partition, not the whole table.
    assert!(res.stats.rows_scanned <= 110, "{:?}", res.stats);
    assert_eq!(amounts(&res.rows), (100..200).collect::<Vec<_>>());

    // A predicate no partition can satisfy opens nothing at all.
    let nowhere = ScanOptions {
        predicate: Expr::eq("day", Value::Int64(99)),
        ..ScanOptions::default()
    };
    let res = r.engine.scan(t, r.sms.read_snapshot(), &nowhere).unwrap();
    assert_eq!(res.stats.pruned_by_stats, res.stats.fragments_total);
    assert_eq!((res.rows.len(), res.stats.rows_scanned), (0, 0));
}

#[test]
fn range_predicates_prune() {
    let r = rig();
    let t = load_converted(&r, 300);
    let opts = ScanOptions {
        predicate: Expr::ge("amount", Value::Int64(250)),
        ..ScanOptions::default()
    };
    let res = r.engine.scan(t, r.sms.read_snapshot(), &opts).unwrap();
    assert_eq!(res.rows.len(), 50);
    assert!(res.stats.pruned_by_stats >= 1);
}

#[test]
fn bloom_pruning_on_wos_fragments() {
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    // Several finalized WOS streams with disjoint customer sets.
    for part in 0..4i64 {
        let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
        let rs = RowSet::new(
            (0..50)
                .map(|i| {
                    Row::insert(vec![
                        Value::Int64(part),
                        Value::String(format!("part{part}-cust{i}")),
                        Value::Int64(part * 100 + i),
                    ])
                })
                .collect(),
        );
        w.append(rs).unwrap();
        let s = w.stream_id();
        r.sms.finalize_stream(t.table, s).unwrap();
    }
    // Point predicate on the clustering column: stats min/max overlap is
    // wide (strings interleave), but blooms nail the one fragment.
    let opts = ScanOptions {
        predicate: Expr::eq("customer", Value::String("part2-cust7".into())),
        ..ScanOptions::default()
    };
    let res = r
        .engine
        .scan(t.table, r.sms.read_snapshot(), &opts)
        .unwrap();
    assert_eq!(res.rows.len(), 1);
    assert!(
        res.stats.pruned_by_bloom + res.stats.pruned_by_stats >= 3,
        "{:?}",
        res.stats
    );
}

#[test]
fn scan_includes_fresh_tail_data() {
    let r = rig();
    let t = load_converted(&r, 100);
    // New unconverted writes land in a tail.
    let mut w = r.client.create_unbuffered_writer(t).unwrap();
    w.append(rows(100, 50)).unwrap();
    let res = r
        .engine
        .scan(t, r.sms.read_snapshot(), &ScanOptions::default())
        .unwrap();
    assert_eq!(res.rows.len(), 150);
    assert!(res.stats.tails_scanned >= 1);

    // Read-after-write (§7.1): every acked row is in the next snapshot,
    // and the freshness probe (§8) observes it exactly once however often
    // a reader polls.
    use vortex_common::obs::{FreshnessProbe, Registry};
    let probe = Arc::new(FreshnessProbe::new(&Registry::new()));
    let handle: vortex_sms::api::SmsHandle = r.sms.clone();
    let polling = QueryEngine::new(handle, r.client.fleet().clone()).with_observability(
        TrueTime::simulated(r.clock.clone(), 100, 0),
        crate::ReadCache::new(1024),
        Arc::clone(&probe),
    );
    let mut acked = 150;
    // A key inside every zone's range that no zone holds: its bloom skips
    // each, and the probe still sees the rows a skipped zone holds.
    let absent = ScanOptions {
        predicate: Expr::eq("customer", Value::String("cust-0000x".into())),
        ..ScanOptions::default()
    };
    for i in 0..5 {
        w.append(rows(150 + i * 10, 10)).unwrap();
        acked += 10;
        r.clock.advance(50_000);
        let skipped = polling.scan(t, r.sms.read_snapshot(), &absent).unwrap();
        assert!(skipped.rows.is_empty() && skipped.stats.zones_pruned > 0);
        assert_eq!(probe.rows_observed(), acked, "append {i}, zones skipped");
        for _poll in 0..2 {
            let visible = polling
                .count(t, r.sms.read_snapshot(), &ScanOptions::default())
                .unwrap();
            assert_eq!(visible, acked, "read-after-write at append {i}");
        }
        assert_eq!(probe.rows_observed(), acked, "append {i}");
    }
}

#[test]
fn aggregate_count_sum_min_max() {
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap().table;
    let mut w = r.client.create_unbuffered_writer(t).unwrap();
    w.append(rows(0, 200)).unwrap();
    r.sms.finalize_stream(t, w.stream_id()).unwrap();
    let grouped = || {
        let aggs = [
            (AggKind::Count, None),
            (AggKind::Sum, Some("amount")),
            (AggKind::Min, Some("amount")),
            (AggKind::Max, Some("amount")),
        ];
        let (snap, opts) = (r.sms.read_snapshot(), ScanOptions::default());
        r.engine.aggregate(t, snap, &opts, Some("day"), &aggs)
    };
    // The same answer from every level of the LSM (§6.1): WOS log files,
    // freshly converted delta ROS, the reclustered baseline.
    let from_wos = grouped().unwrap();
    r.opt.convert_wos(t).unwrap();
    let groups = grouped().unwrap();
    assert_eq!(groups, from_wos, "delta ROS");
    assert!(r.opt.recluster(t).unwrap().merged);
    assert_eq!(grouped().unwrap(), from_wos, "baseline ROS");
    assert_eq!(groups.len(), 2); // days 0 and 1
    for (g, vals) in &groups {
        let day = match g {
            Some(Value::Int64(d)) => *d,
            other => panic!("bad group {other:?}"),
        };
        assert_eq!(vals[0], Value::Int64(100));
        let lo = day * 100;
        let hi = lo + 99;
        let expect_sum: i64 = (lo..=hi).sum();
        assert_eq!(vals[1], Value::Int64(expect_sum));
        assert_eq!(vals[2], Value::Int64(lo));
        assert_eq!(vals[3], Value::Int64(hi));
    }
    // Global aggregate.
    let global = r
        .engine
        .aggregate(
            t,
            r.sms.read_snapshot(),
            &ScanOptions::default(),
            None,
            &[(AggKind::Count, None)],
        )
        .unwrap();
    assert_eq!(global.len(), 1);
    assert_eq!(global[0].1[0], Value::Int64(200));
}

/// Float64 SUM and AVG are the exact sum rounded once, ties to even: bit
/// for bit the same at parallelism 1, 2 and 4, through a cold engine and
/// a warm one, and the correctly rounded sum of the cells — over ROS
/// blocks, whose zones the index sums, and WOS fragments, of floats from
/// 2^-20 to 2^72 of both signs and NULLs, where the order of `f64`
/// additions shows.
#[test]
fn float_sums_are_exact_whatever_the_scan_order() {
    let r = rig_with_block_rows(300);
    let schema = Schema::new(vec![
        Field::required("g", FieldType::Int64),
        Field::nullable("x", FieldType::Float64),
    ]);
    let t = r.sms.create_table("t", schema).unwrap().table;
    // Each cell is m·2^-20 for an `m` of 53 bits or fewer: the cells sum
    // exactly in `i128`, and `as f64` rounds that sum correctly.
    let (mut seed, unit) = (0x57_u64, 2f64.powi(-20));
    let cells: Vec<(i64, Option<i128>)> = (0..4_000)
        .map(|i| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let m = ((seed >> 11) as i128 - (1 << 52)) << (20 * (seed % 3));
            (i % 3, (seed % 7 != 0).then_some(m))
        })
        .collect();
    // The first part converted to ROS, the rest left in WOS.
    for (part, cells) in cells.chunks(2_500).enumerate() {
        let x = |m: Option<i128>| m.map_or(Value::Null, |m| Value::Float64(m as f64 * unit));
        let rows = cells
            .iter()
            .map(|&(g, m)| Row::insert(vec![Value::Int64(g), x(m)]));
        let mut w = r.client.create_unbuffered_writer(t).unwrap();
        w.append(RowSet::new(rows.collect())).unwrap();
        r.sms.finalize_stream(t, w.stream_id()).unwrap();
        if part == 0 {
            r.opt.convert_wos(t).unwrap();
        }
    }
    let oracle = |g: Option<&Value>| {
        let of = |&&(cg, _): &&(i64, Option<i128>)| g.map_or(true, |g| *g == Value::Int64(cg));
        let valued = cells.iter().filter(of).filter_map(|&(_, m)| m);
        let (sum, n) = valued.fold((0, 0), |(sum, n), m| (sum + m, n + 1));
        let sum = sum as f64 * unit;
        [Value::Float64(sum), Value::Float64(sum / n as f64)]
    };
    let mut warm = QueryEngine::new(r.sms.clone(), r.client.fleet().clone());
    warm.read.cache = Some(crate::ReadCache::new(usize::MAX));
    let snap = r.sms.read_snapshot();
    let aggs = [(AggKind::Sum, Some("x")), (AggKind::Avg, Some("x"))];
    for group in [None, Some("g")] {
        for parallelism in [1, 2, 4] {
            let opts = ScanOptions {
                parallelism,
                ..ScanOptions::default()
            };
            for engine in [&r.engine, &warm, &warm] {
                let got = engine.aggregate(t, snap, &opts, group, &aggs).unwrap();
                assert_eq!(got.len(), if group.is_some() { 3 } else { 1 });
                for (g, vals) in &got {
                    let want = oracle(g.as_ref());
                    let same = vals.iter().zip(&want).all(|(v, w)| v.key_eq(w));
                    assert!(
                        same,
                        "{group:?} at {parallelism}: {g:?} {vals:?} != {want:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn aggregate_avg() {
    let r = rig();
    let t = load_converted(&r, 200);
    // Grouped: day 0 holds amounts 0..=99 (mean 49.5), day 1 holds
    // 100..=199 (mean 149.5). AVG(INT64) is FLOAT64, BigQuery-style.
    let groups = r
        .engine
        .aggregate(
            t,
            r.sms.read_snapshot(),
            &ScanOptions::default(),
            Some("day"),
            &[(AggKind::Avg, Some("amount"))],
        )
        .unwrap();
    assert_eq!(groups.len(), 2);
    for (g, vals) in &groups {
        let day = match g {
            Some(Value::Int64(d)) => *d,
            other => panic!("bad group {other:?}"),
        };
        assert_eq!(vals[0], Value::Float64(day as f64 * 100.0 + 49.5));
    }
    // Global.
    let global = r
        .engine
        .aggregate(
            t,
            r.sms.read_snapshot(),
            &ScanOptions::default(),
            None,
            &[(AggKind::Avg, Some("amount")), (AggKind::Count, None)],
        )
        .unwrap();
    assert_eq!(global[0].1[0], Value::Float64(99.5));
    assert_eq!(global[0].1[1], Value::Int64(200));
    // AVG over zero rows is NULL (COUNT stays 0).
    let empty = r
        .engine
        .aggregate(
            t,
            r.sms.read_snapshot(),
            &ScanOptions {
                predicate: Expr::lt("amount", Value::Int64(0)),
                ..ScanOptions::default()
            },
            None,
            &[(AggKind::Avg, Some("amount"))],
        )
        .unwrap();
    assert_eq!(empty[0].1[0], Value::Null);
}

#[test]
fn delete_where_on_fragments_masks_rows() {
    let r = rig();
    let t = load_converted(&r, 200);
    let report = r
        .dml
        .delete_where(t, &Expr::lt("amount", Value::Int64(50)))
        .unwrap();
    assert_eq!(report.rows_matched, 50);
    assert!(report.fragments_masked >= 1);
    assert_eq!(report.tails_masked, 0);
    let res = r
        .engine
        .scan(t, r.sms.read_snapshot(), &ScanOptions::default())
        .unwrap();
    assert_eq!(amounts(&res.rows), (50..200).collect::<Vec<_>>());
    // Snapshot before the DML still sees everything (masks are
    // versioned, §7.3).
}

#[test]
fn delete_snapshot_isolation() {
    let r = rig();
    let t = load_converted(&r, 100);
    let before = r.sms.read_snapshot();
    r.dml
        .delete_where(t, &Expr::ge("amount", Value::Int64(90)))
        .unwrap();
    let old = r.engine.scan(t, before, &ScanOptions::default()).unwrap();
    assert_eq!(old.rows.len(), 100, "pre-DML snapshot unaffected");
    let new = r
        .engine
        .scan(t, r.sms.read_snapshot(), &ScanOptions::default())
        .unwrap();
    assert_eq!(new.rows.len(), 90);
}

#[test]
fn delete_in_tail_masks_whole_tail_and_reinserts() {
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(rows(0, 40)).unwrap(); // all in the tail (no heartbeat)
    let report = r
        .dml
        .delete_where(t.table, &Expr::eq("amount", Value::Int64(7)))
        .unwrap();
    assert_eq!(report.rows_matched, 1);
    assert_eq!(report.tails_masked, 1);
    assert_eq!(report.rows_reinserted_unaffected, 39, "tail copies");
    let res = r
        .engine
        .scan(t.table, r.sms.read_snapshot(), &ScanOptions::default())
        .unwrap();
    let got = amounts(&res.rows);
    assert_eq!(got.len(), 39);
    assert!(!got.contains(&7));
}

#[test]
fn update_where_rewrites_rows() {
    let r = rig();
    let t = load_converted(&r, 100);
    let report = r
        .dml
        .update_where(
            t,
            &Expr::eq("customer", Value::String("cust-0003".into())),
            &[("amount", Value::Int64(-1))],
        )
        .unwrap();
    assert_eq!(report.rows_matched, 2); // rows 3 and 53
    assert_eq!(report.rows_updated, 2);
    let res = r
        .engine
        .scan(t, r.sms.read_snapshot(), &ScanOptions::default())
        .unwrap();
    assert_eq!(res.rows.len(), 100, "row count preserved by UPDATE");
    let negs = res
        .rows
        .iter()
        .filter(|(_, row)| row.values[2].as_i64() == Some(-1))
        .count();
    assert_eq!(negs, 2);
    let got = amounts(&res.rows);
    assert!(!got.contains(&3) && !got.contains(&53));
}

#[test]
fn dml_then_conversion_then_read() {
    // Masks survive WOS→ROS conversion (merged mode drops masked rows).
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(rows(0, 80)).unwrap();
    let s = w.stream_id();
    r.sms.finalize_stream(t.table, s).unwrap();
    r.dml
        .delete_where(t.table, &Expr::lt("amount", Value::Int64(10)))
        .unwrap();
    r.opt.convert_wos(t.table).unwrap();
    let res = r
        .engine
        .scan(t.table, r.sms.read_snapshot(), &ScanOptions::default())
        .unwrap();
    assert_eq!(amounts(&res.rows), (10..80).collect::<Vec<_>>());
}

/// Leaves the first-listed replica of every live fragment of `kind` a
/// few bytes short of the recorded committed size — what a
/// single-replica reconciliation leaves behind when the lagging replica
/// missed the final append: the file reads fine but does not parse.
fn shorten_first_replica(r: &Rig, t: TableId, kind: vortex_sms::meta::FragmentKind) -> usize {
    let mut shortened = 0;
    for f in r.sms.list_fragments(t, r.sms.read_snapshot()) {
        if f.kind != kind || f.deleted_at != vortex_common::truetime::Timestamp::MAX {
            continue;
        }
        let cluster = r.client.fleet().get(f.clusters[0]).unwrap();
        let bytes = cluster.read_all(&f.path).unwrap().data;
        cluster.delete(&f.path).unwrap();
        cluster
            .append(
                &f.path,
                &bytes[..bytes.len() - 7],
                vortex_common::truetime::Timestamp::MIN,
            )
            .unwrap();
        shortened += 1;
    }
    shortened
}

/// Regression: DML and the optimizer used to read the first replica that
/// *answered* and fail when it did not parse; only table reads failed
/// over on a parse error.
#[test]
fn dml_and_optimizer_fail_over_when_first_replica_does_not_parse() {
    use vortex_sms::meta::FragmentKind;
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(rows(0, 200)).unwrap();
    let s = w.stream_id();
    r.sms.finalize_stream(t.table, s).unwrap();
    assert!(shorten_first_replica(&r, t.table, FragmentKind::Wos) > 0);
    assert_eq!(r.client.read_rows(t.table).unwrap().rows.len(), 200);

    let report = r
        .dml
        .delete_where(t.table, &Expr::lt("amount", Value::Int64(20)))
        .unwrap();
    assert_eq!(report.rows_matched, 20);
    let converted = r.opt.convert_wos(t.table).unwrap();
    assert_eq!((converted.rows, converted.rows_masked), (180, 20));

    assert!(shorten_first_replica(&r, t.table, FragmentKind::Ros) > 0);
    assert!(r.opt.recluster(t.table).unwrap().merged);
    let res = r
        .engine
        .scan(t.table, r.sms.read_snapshot(), &ScanOptions::default())
        .unwrap();
    assert_eq!(amounts(&res.rows), (20..200).collect::<Vec<_>>());
}

#[test]
fn upsert_delete_resolution_end_to_end() {
    let r = rig();
    let cdc_schema = Schema::new(vec![
        Field::required("id", FieldType::String),
        Field::required("state", FieldType::String),
    ])
    .with_primary_key(&["id"]);
    let t = r.sms.create_table("cdc", cdc_schema).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    let mk = |id: &str, state: &str, ct: ChangeType| {
        Row::with_change(
            vec![Value::String(id.into()), Value::String(state.into())],
            ct,
        )
    };
    w.append(RowSet::new(vec![
        mk("order-1", "created", ChangeType::Upsert),
        mk("order-2", "created", ChangeType::Upsert),
    ]))
    .unwrap();
    w.append(RowSet::new(vec![
        mk("order-1", "shipped", ChangeType::Upsert),
        mk("order-2", "", ChangeType::Delete),
        mk("order-3", "created", ChangeType::Upsert),
    ]))
    .unwrap();
    let opts = ScanOptions {
        resolve_changes: true,
        ..ScanOptions::default()
    };
    let res = r
        .engine
        .scan(t.table, r.sms.read_snapshot(), &opts)
        .unwrap();
    let mut got: Vec<(String, String)> = res
        .rows
        .iter()
        .map(|(_, row)| {
            (
                row.values[0].as_str().unwrap().into(),
                row.values[1].as_str().unwrap().into(),
            )
        })
        .collect();
    got.sort();
    assert_eq!(
        got,
        vec![
            ("order-1".into(), "shipped".into()),
            ("order-3".into(), "created".into())
        ]
    );
    // Raw scan (no resolution) sees all 5 change records.
    let raw = r
        .engine
        .scan(t.table, r.sms.read_snapshot(), &ScanOptions::default())
        .unwrap();
    assert_eq!(raw.rows.len(), 5);
}

#[test]
fn cdc_resolution_survives_conversion() {
    let r = rig();
    let cdc_schema = Schema::new(vec![
        Field::required("id", FieldType::String),
        Field::required("v", FieldType::Int64),
    ])
    .with_primary_key(&["id"]);
    let t = r.sms.create_table("cdc2", cdc_schema).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    let mk = |id: &str, v: i64, ct: ChangeType| {
        Row::with_change(vec![Value::String(id.into()), Value::Int64(v)], ct)
    };
    w.append(RowSet::new(
        (0..20)
            .map(|i| mk(&format!("k{i}"), i, ChangeType::Upsert))
            .collect(),
    ))
    .unwrap();
    w.append(RowSet::new(
        (0..10)
            .map(|i| mk(&format!("k{i}"), 100 + i, ChangeType::Upsert))
            .collect(),
    ))
    .unwrap();
    let s = w.stream_id();
    r.sms.finalize_stream(t.table, s).unwrap();
    // A selective predicate that the superseded versions of k0..k9
    // satisfy but their current versions do not, with a projection that
    // drops the key: filtering or projecting before resolution would
    // resurrect the old versions or lose the key they resolve by.
    let selective = ScanOptions {
        resolve_changes: true,
        predicate: Expr::lt("v", Value::Int64(50)),
        projection: Some(vec!["v".to_string()]),
        ..ScanOptions::default()
    };
    let unconverted = r
        .engine
        .scan(t.table, r.sms.read_snapshot(), &selective)
        .unwrap();
    r.opt.convert_wos(t.table).unwrap();
    let converted = r
        .engine
        .scan(t.table, r.sms.read_snapshot(), &selective)
        .unwrap();
    assert_eq!(converted.rows, unconverted.rows);
    assert!(converted.stats.zones_total > 0, "{:?}", converted.stats);
    let vs: Vec<Value> = converted
        .rows
        .iter()
        .map(|(_, row)| row.values[1].clone())
        .collect();
    assert_eq!(vs, (10..20).map(Value::Int64).collect::<Vec<_>>());
    assert!(converted
        .rows
        .iter()
        .all(|(_, row)| row.values[0] == Value::Null));

    let opts = ScanOptions {
        resolve_changes: true,
        ..ScanOptions::default()
    };
    let res = r
        .engine
        .scan(t.table, r.sms.read_snapshot(), &opts)
        .unwrap();
    assert_eq!(res.rows.len(), 20);
    let sum: i64 = res
        .rows
        .iter()
        .map(|(_, row)| row.values[1].as_i64().unwrap())
        .sum();
    // k0..k9 → 100..109, k10..19 → 10..19.
    let expect: i64 = (100..110).sum::<i64>() + (10..20).sum::<i64>();
    assert_eq!(sum, expect);
}

#[test]
fn cdc_pruning_keeps_the_superseding_fragment() {
    let r = rig();
    let schema = Schema::new(vec![
        Field::required("k", FieldType::String),
        Field::required("val", FieldType::Int64),
    ])
    .with_primary_key(&["k"]);
    let t = r.sms.create_table("cdc3", schema).unwrap();
    // One fragment holds k→5, a second holds only the upsert k→7.
    for val in [5, 7] {
        let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
        w.append(RowSet::new(vec![Row::with_change(
            vec![Value::String("k".into()), Value::Int64(val)],
            ChangeType::Upsert,
        )]))
        .unwrap();
        r.sms.finalize_stream(t.table, w.stream_id()).unwrap();
    }
    // The second fragment's stats (val ∈ [7,7]) miss the predicate; pruning
    // it by the caller's filter would resurrect the overwritten k→5.
    let stale = ScanOptions {
        resolve_changes: true,
        predicate: Expr::eq("val", Value::Int64(5)),
        ..ScanOptions::default()
    };
    let snap = r.sms.read_snapshot();
    let res = r.engine.scan(t.table, snap, &stale).unwrap();
    assert_eq!(res.rows, vec![], "{:?}", res.stats);
    assert_eq!(res.stats.pruned_by_stats, 0);
    assert_eq!(r.engine.count(t.table, snap, &stale).unwrap(), 0);
}

#[test]
fn count_with_predicate() {
    let r = rig();
    let t = load_converted(&r, 150);
    let n = r
        .engine
        .count(
            t,
            r.sms.read_snapshot(),
            &ScanOptions {
                predicate: Expr::lt("amount", Value::Int64(30)),
                ..ScanOptions::default()
            },
        )
        .unwrap();
    assert_eq!(n, 30);
}

#[test]
fn delete_nothing_is_a_noop() {
    let r = rig();
    let t = load_converted(&r, 50);
    let report = r
        .dml
        .delete_where(t, &Expr::eq("amount", Value::Int64(9999)))
        .unwrap();
    assert_eq!(report.rows_matched, 0);
    assert_eq!(report.fragments_masked, 0);
    assert_eq!(
        r.engine
            .scan(t, r.sms.read_snapshot(), &ScanOptions::default())
            .unwrap()
            .rows
            .len(),
        50
    );
}

#[test]
fn repeated_deletes_layer_masks() {
    let r = rig();
    let t = load_converted(&r, 100);
    r.dml
        .delete_where(t, &Expr::lt("amount", Value::Int64(10)))
        .unwrap();
    r.dml
        .delete_where(t, &Expr::ge("amount", Value::Int64(90)))
        .unwrap();
    let res = r
        .engine
        .scan(t, r.sms.read_snapshot(), &ScanOptions::default())
        .unwrap();
    assert_eq!(amounts(&res.rows), (10..90).collect::<Vec<_>>());
}

// ---------------------------------------------------------------------
// SQL front-end.
// ---------------------------------------------------------------------

use crate::sql::{SqlResult, SqlSession};

fn sql_rig() -> (Rig, SqlSession) {
    let r = rig();
    let session = SqlSession::new(r.client.clone());
    (r, session)
}

fn rows_of(res: &SqlResult) -> &Vec<Vec<Value>> {
    match res {
        SqlResult::Rows { rows, .. } => rows,
        other => panic!("expected rows, got {other:?}"),
    }
}

#[test]
fn sql_select_where_order_limit() {
    let (r, sql) = sql_rig();
    let t = r.sms.create_table("sales", schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(rows(0, 120)).unwrap();

    let res = sql
        .execute("SELECT amount, customer FROM sales WHERE amount >= 100 AND amount < 110 ORDER BY amount DESC LIMIT 3;")
        .unwrap();
    let got = rows_of(&res);
    assert_eq!(got.len(), 3);
    assert_eq!(got[0][0], Value::Int64(109));
    assert_eq!(got[1][0], Value::Int64(108));
    assert_eq!(got[2][0], Value::Int64(107));
    match &res {
        SqlResult::Rows { columns, .. } => {
            assert_eq!(columns, &vec!["amount".to_string(), "customer".to_string()])
        }
        _ => unreachable!(),
    }
    // Star projection.
    let res = sql.execute("SELECT * FROM sales LIMIT 5").unwrap();
    assert_eq!(rows_of(&res).len(), 5);
    assert_eq!(rows_of(&res)[0].len(), 3);
}

#[test]
fn sql_aggregates_and_group_by() {
    let (r, sql) = sql_rig();
    let t = r.sms.create_table("sales", schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(rows(0, 200)).unwrap();

    let res = sql
        .execute("SELECT day, COUNT(*), SUM(amount), MIN(amount), MAX(amount) FROM sales GROUP BY day ORDER BY day")
        .unwrap();
    let got = rows_of(&res);
    assert_eq!(got.len(), 2); // days 0 and 1
    assert_eq!(got[0][0], Value::Int64(0));
    assert_eq!(got[0][1], Value::Int64(100));
    assert_eq!(got[0][3], Value::Int64(0));
    assert_eq!(got[0][4], Value::Int64(99));
    // Global aggregate.
    let res = sql.execute("SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(rows_of(&res)[0][0], Value::Int64(200));
    // SUM over a filter.
    let res = sql
        .execute("SELECT SUM(amount) FROM sales WHERE amount < 3")
        .unwrap();
    assert_eq!(rows_of(&res)[0][0], Value::Int64(3)); // 0+1+2
                                                      // AVG: grouped and filtered.
    let res = sql
        .execute("SELECT day, AVG(amount) FROM sales GROUP BY day ORDER BY day")
        .unwrap();
    let got = rows_of(&res);
    assert_eq!(got[0][1], Value::Float64(49.5));
    assert_eq!(got[1][1], Value::Float64(149.5));
    let res = sql
        .execute("SELECT AVG(amount) FROM sales WHERE amount < 4")
        .unwrap();
    assert_eq!(rows_of(&res)[0][0], Value::Float64(1.5)); // mean of 0..=3
                                                          // AVG over an empty selection is NULL.
    let res = sql
        .execute("SELECT AVG(amount) FROM sales WHERE amount < 0")
        .unwrap();
    assert_eq!(rows_of(&res)[0][0], Value::Null);
}

#[test]
fn sql_delete_and_update() {
    let (r, sql) = sql_rig();
    let t = r.sms.create_table("sales", schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(rows(0, 50)).unwrap();

    let res = sql.execute("DELETE FROM sales WHERE amount < 10").unwrap();
    match res {
        SqlResult::Dml(rep) => assert_eq!(rep.rows_matched, 10),
        other => panic!("{other:?}"),
    }
    let res = sql.execute("SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(rows_of(&res)[0][0], Value::Int64(40));

    sql.execute("UPDATE sales SET customer = 'vip' WHERE amount = 42")
        .unwrap();
    let res = sql
        .execute("SELECT customer FROM sales WHERE amount = 42")
        .unwrap();
    assert_eq!(rows_of(&res)[0][0], Value::String("vip".into()));
}

#[test]
fn sql_time_travel_as_of() {
    let (r, sql) = sql_rig();
    let t = r.sms.create_table("sales", schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(rows(0, 10)).unwrap();
    r.clock.advance(1_000);
    let snap = r.sms.read_snapshot().micros();
    r.clock.advance(1_000);
    w.append(rows(10, 10)).unwrap();

    let res = sql
        .execute(&format!(
            "SELECT COUNT(*) FROM sales FOR SYSTEM_TIME AS OF {snap}"
        ))
        .unwrap();
    assert_eq!(rows_of(&res)[0][0], Value::Int64(10));
    let res = sql.execute("SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(rows_of(&res)[0][0], Value::Int64(20));
}

#[test]
fn sql_predicates_full_grammar() {
    let (r, sql) = sql_rig();
    let t = r.sms.create_table("sales", schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(rows(0, 100)).unwrap();

    let count = |q: &str| -> i64 {
        match sql.execute(q).unwrap() {
            SqlResult::Rows { rows, .. } => match rows[0][0] {
                Value::Int64(n) => n,
                _ => panic!(),
            },
            _ => panic!(),
        }
    };
    assert_eq!(count("SELECT COUNT(*) FROM sales WHERE amount != 5"), 99);
    assert_eq!(count("SELECT COUNT(*) FROM sales WHERE amount <> 5"), 99);
    assert_eq!(
        count("SELECT COUNT(*) FROM sales WHERE (amount < 10 OR amount >= 90) AND NOT amount = 0"),
        19
    );
    // k=3 and k=53 both map to cust-0003 on day 0.
    assert_eq!(
        count("SELECT COUNT(*) FROM sales WHERE customer = 'cust-0003' AND day = 0"),
        2
    );
    assert_eq!(count("SELECT COUNT(*) FROM sales WHERE day IS NULL"), 0);
    assert_eq!(
        count("SELECT COUNT(*) FROM sales WHERE day IS NOT NULL"),
        100
    );
    // Numeric coercion: float literal vs INT64 column.
    assert_eq!(count("SELECT COUNT(*) FROM sales WHERE amount > 97.5"), 2);
}

#[test]
fn sql_cdc_tables_resolve_changes() {
    let (r, sql) = sql_rig();
    let cdc_schema = Schema::new(vec![
        Field::required("id", FieldType::String),
        Field::required("v", FieldType::Int64),
    ])
    .with_primary_key(&["id"]);
    let t = r.sms.create_table("kv", cdc_schema).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    let up = |id: &str, v: i64| {
        Row::with_change(
            vec![Value::String(id.into()), Value::Int64(v)],
            ChangeType::Upsert,
        )
    };
    w.append(RowSet::new(vec![up("a", 1), up("b", 2)])).unwrap();
    w.append(RowSet::new(vec![up("a", 10)])).unwrap();
    // SQL over a primary-keyed table sees resolved state.
    let res = sql.execute("SELECT id, v FROM kv ORDER BY id").unwrap();
    let got = rows_of(&res);
    assert_eq!(got.len(), 2);
    assert_eq!(got[0][1], Value::Int64(10));
    assert_eq!(got[1][1], Value::Int64(2));
}

#[test]
fn sql_errors_are_reported() {
    let (r, sql) = sql_rig();
    r.sms.create_table("sales", schema()).unwrap();
    for bad in [
        "SELEC * FROM sales",
        "SELECT * FROM nonexistent",
        "SELECT bogus FROM sales",
        "SELECT * FROM sales WHERE amount >",
        "SELECT amount FROM sales GROUP BY day", // non-grouped column
        "SELECT * FROM sales LIMIT 'x'",
        "DELETE FROM sales", // DELETE requires WHERE in this dialect
        "SELECT COUNT(* FROM sales",
        "SELECT * FROM sales WHERE name = 'unterminated",
    ] {
        assert!(sql.execute(bad).is_err(), "should fail: {bad}");
    }
}

#[test]
fn sql_result_renders_as_table() {
    let (r, sql) = sql_rig();
    let t = r.sms.create_table("sales", schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(rows(0, 3)).unwrap();
    let res = sql
        .execute("SELECT amount, customer FROM sales ORDER BY amount")
        .unwrap();
    let table = res.to_table();
    assert!(table.contains("amount"), "{table}");
    assert!(table.contains("(3 row(s))"), "{table}");
    let res = sql.execute("DELETE FROM sales WHERE amount = 0").unwrap();
    assert!(res.to_table().contains("1 row(s) affected"));
}

#[test]
fn sql_views_define_expand_and_drop() {
    let (r, sql) = sql_rig();
    let t = r.sms.create_table("sales", schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(rows(0, 100)).unwrap();

    // Define a filtered, projected view.
    sql.execute("CREATE VIEW big_sales AS SELECT customer, amount FROM sales WHERE amount >= 90")
        .unwrap();
    // Duplicate rejected.
    assert!(sql
        .execute("CREATE VIEW big_sales AS SELECT * FROM sales")
        .is_err());

    // Query through the view: outer predicate composes with the view's.
    let res = sql
        .execute("SELECT customer, amount FROM big_sales WHERE amount < 95 ORDER BY amount")
        .unwrap();
    let got = rows_of(&res);
    assert_eq!(got.len(), 5); // 90..94
    assert_eq!(got[0][1], Value::Int64(90));

    // `SELECT *` through the view exposes only the view's projection.
    let res = sql.execute("SELECT * FROM big_sales").unwrap();
    match &res {
        SqlResult::Rows { columns, rows } => {
            assert_eq!(columns, &vec!["customer".to_string(), "amount".to_string()]);
            assert_eq!(rows.len(), 10);
        }
        _ => unreachable!(),
    }

    // Columns outside the projection are rejected.
    assert!(sql.execute("SELECT day FROM big_sales").is_err());

    // Aggregates over the view work.
    let res = sql.execute("SELECT COUNT(*) FROM big_sales").unwrap();
    assert_eq!(rows_of(&res)[0][0], Value::Int64(10));

    // DROP removes it; subsequent queries fail to resolve.
    sql.execute("DROP VIEW big_sales").unwrap();
    assert!(sql.execute("SELECT * FROM big_sales").is_err());
    assert!(sql.execute("DROP VIEW big_sales").is_err());

    // Complex view bodies are rejected up front.
    assert!(sql
        .execute("CREATE VIEW v AS SELECT COUNT(*) FROM sales")
        .is_err());
    assert!(sql
        .execute("CREATE VIEW v AS SELECT day FROM sales GROUP BY day")
        .is_err());
}

#[test]
fn sql_view_definitions_roundtrip_render() {
    // The stored canonical text must itself parse (render → parse fixpoint).
    let (r, sql) = sql_rig();
    r.sms.create_table("sales", schema()).unwrap();
    sql.execute(
        "CREATE VIEW v AS SELECT customer FROM sales WHERE (day = 1 OR day = 2) AND NOT customer = 'x''y'",
    )
    .unwrap();
    let res = sql.execute("SELECT COUNT(*) FROM v").unwrap();
    assert_eq!(rows_of(&res)[0][0], Value::Int64(0));
}

#[test]
fn sql_insert_values() {
    let (r, sql) = sql_rig();
    r.sms.create_table("sales", schema()).unwrap();
    let res = sql
        .execute("INSERT INTO sales VALUES (0, 'walk-in', 500), (1, 'walk-in', 750);")
        .unwrap();
    match res {
        SqlResult::Dml(rep) => assert_eq!(rep.rows_matched, 2),
        other => panic!("{other:?}"),
    }
    // Read-after-write through SQL.
    let res = sql
        .execute("SELECT amount FROM sales WHERE customer = 'walk-in' ORDER BY amount")
        .unwrap();
    let got = rows_of(&res);
    assert_eq!(got.len(), 2);
    assert_eq!(got[0][0], Value::Int64(500));
    // A second INSERT reuses the session's stream (exactly-once offsets).
    sql.execute("INSERT INTO sales VALUES (2, 'walk-in', 900)")
        .unwrap();
    let res = sql.execute("SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(rows_of(&res)[0][0], Value::Int64(3));
    // Arity mismatch rejected.
    assert!(sql.execute("INSERT INTO sales VALUES (1, 'x')").is_err());
    assert!(sql.execute("INSERT INTO nope VALUES (1, 'x', 2)").is_err());
}

// ---------------------------------------------------------------------
// SQL round-trip properties: rendering a parsed expression and parsing
// it back reaches a fixpoint after one normalization pass. Views are
// stored as rendered text (canonical form), so render/parse stability is
// what keeps a view's meaning constant across save/load cycles.
// ---------------------------------------------------------------------

mod sql_roundtrip {
    use proptest::prelude::*;

    use crate::expr::{CmpOp, Expr};
    use crate::sql::{parse, render_expr, Statement};
    use vortex_common::row::Value;

    fn arb_literal() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int64),
            "[a-z '0-9]{0,10}".prop_map(Value::String),
            any::<bool>().prop_map(Value::Bool),
            Just(Value::Null),
        ]
    }

    fn arb_cmp_op() -> impl Strategy<Value = CmpOp> {
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge),
        ]
    }

    fn arb_expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            ("[a-z][a-z_0-9]{0,7}", arb_cmp_op(), arb_literal())
                .prop_map(|(column, op, value)| Expr::Cmp { column, op, value }),
            "[a-z][a-z_0-9]{0,7}".prop_map(Expr::IsNull),
        ];
        leaf.prop_recursive(3, 12, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
                inner.prop_map(|a| Expr::Not(Box::new(a))),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        // parse(render(e)) succeeds, and render is a fixpoint after one
        // pass: render(parse(render(e))) == render(e) textually, and the
        // parsed tree is stable thereafter.
        #[test]
        fn expr_render_parse_fixpoint(e in arb_expr()) {
            let sql = format!("SELECT * FROM t WHERE {}", render_expr(&e));
            let stmt = parse(&sql).unwrap();
            let Statement::Select { predicate, .. } = &stmt else {
                panic!("expected SELECT, got {stmt:?}");
            };
            let rendered = render_expr(predicate);
            let again = parse(&format!("SELECT * FROM t WHERE {rendered}")).unwrap();
            let Statement::Select { predicate: p2, .. } = &again else {
                panic!("expected SELECT");
            };
            prop_assert_eq!(predicate, p2);
            prop_assert_eq!(render_expr(p2), rendered);
        }

        // Keyword case-insensitivity: upper/lower spellings of the
        // connective keywords parse to the same tree.
        #[test]
        fn keyword_case_insensitive(e in arb_expr()) {
            let base = format!("SELECT * FROM t WHERE {}", render_expr(&e));
            let lower = base
                .replace(" AND ", " and ")
                .replace(" OR ", " or ")
                .replace("NOT (", "not (")
                .replace(" IS NULL", " is null");
            let a = parse(&base).unwrap();
            let b = parse(&lower).unwrap();
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}

#[test]
fn sql_across_schema_evolution() {
    let (r, sql) = sql_rig();
    let t = r.sms.create_table("sales", schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(rows(0, 10)).unwrap();

    // Additive evolution: a nullable `region` column (§5.4.1). Use the
    // schema's evolution API so the version bumps; `update_schema`
    // rejects same-version schemas.
    let evolved = t
        .schema
        .evolve_add_column(vortex_common::schema::Field::nullable(
            "region",
            FieldType::String,
        ))
        .unwrap();
    r.sms.update_schema(t.table, evolved).unwrap();

    // Old rows are padded with NULL for the new column.
    let res = sql
        .execute("SELECT region FROM sales WHERE amount = 5")
        .unwrap();
    assert_eq!(rows_of(&res)[0][0], Value::Null);
    let res = sql
        .execute("SELECT COUNT(*) FROM sales WHERE region IS NULL")
        .unwrap();
    assert_eq!(rows_of(&res)[0][0], Value::Int64(10));

    // New INSERTs must supply the new arity, and read back.
    sql.execute("INSERT INTO sales VALUES (9, 'acme', 777, 'emea')")
        .unwrap();
    let res = sql
        .execute("SELECT region FROM sales WHERE amount = 777")
        .unwrap();
    assert_eq!(rows_of(&res)[0][0], Value::String("emea".into()));
    // Old-arity INSERT is rejected post-evolution.
    assert!(sql.execute("INSERT INTO sales VALUES (9, 'x', 1)").is_err());
}

// ---------------------------------------------------------------------
// Compute pushdown over compressed ROS blocks: zone-map pruning, late
// materialization, and the equivalence contract — a scan must be
// indistinguishable from decode-then-filter (`oracle_scan`).
// ---------------------------------------------------------------------

#[test]
fn zone_map_prunes_within_a_block() {
    let r = rig_with_block_rows(4096);
    let t = r.sms.create_table("t", schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    // One partition, 2000 rows already ordered by the clustering key:
    // converts into a single ROS block spanning two zones.
    let rs = RowSet::new(
        (0..2000i64)
            .map(|k| {
                Row::insert(vec![
                    Value::Int64(0),
                    Value::String(format!("cust-{:04}", k / 40)),
                    Value::Int64(k),
                ])
            })
            .collect(),
    );
    w.append(rs).unwrap();
    let s = w.stream_id();
    r.sms.finalize_stream(t.table, s).unwrap();
    r.opt.convert_wos(t.table).unwrap();

    // The last customer lives entirely in the second zone, so the zone
    // map skips the first without decoding it.
    let opts = ScanOptions {
        predicate: Expr::eq("customer", Value::String("cust-0049".into())),
        ..ScanOptions::default()
    };
    let res = r
        .engine
        .scan(t.table, r.sms.read_snapshot(), &opts)
        .unwrap();
    assert_eq!(res.rows.len(), 40);
    assert_eq!(res.stats.zones_total, 2, "{:?}", res.stats);
    assert_eq!(res.stats.zones_pruned, 1, "{:?}", res.stats);
    assert!(res.stats.rows_scanned <= 1024, "{:?}", res.stats);
    assert_eq!(amounts(&res.rows), (1960..2000).collect::<Vec<_>>());

    // Decode-then-filter agrees on the rows.
    let oracle = oracle_scan(&r, t.table, r.sms.read_snapshot(), &opts.predicate, None);
    assert_eq!(amounts(&oracle), amounts(&res.rows));
}

#[test]
fn projection_pushdown_nulls_unrequested_columns() {
    let r = rig();
    let t = load_converted(&r, 300);
    let opts = ScanOptions {
        predicate: Expr::eq("day", Value::Int64(1)),
        projection: Some(vec!["amount".to_string()]),
        ..ScanOptions::default()
    };
    let res = r.engine.scan(t, r.sms.read_snapshot(), &opts).unwrap();
    assert_eq!(res.rows.len(), 100);
    for (_, row) in &res.rows {
        assert_eq!(row.values[0], Value::Null);
        assert_eq!(row.values[1], Value::Null);
        assert!(row.values[2].as_i64().is_some());
    }
    assert_eq!(amounts(&res.rows), (100..200).collect::<Vec<_>>());

    // An unknown projection or predicate column is a hard error, raised
    // when the scan compiles — even where no row would reach the filter.
    let bad_projection = ScanOptions {
        projection: Some(vec!["nope".to_string()]),
        ..ScanOptions::default()
    };
    let bad_predicate = ScanOptions {
        predicate: Expr::eq("day", Value::Int64(99)).and(Expr::IsNull("nope".into())),
        ..ScanOptions::default()
    };
    for bad in [bad_projection, bad_predicate] {
        for resolve_changes in [false, true] {
            let bad = ScanOptions {
                resolve_changes,
                ..bad.clone()
            };
            let err = r.engine.scan(t, r.sms.read_snapshot(), &bad).unwrap_err();
            assert!(
                matches!(err, vortex_common::error::VortexError::InvalidArgument(_)),
                "{err}"
            );
        }
    }
}

#[test]
fn pushdown_handles_columns_added_after_conversion() {
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(rows(0, 100)).unwrap();
    let s = w.stream_id();
    r.sms.finalize_stream(t.table, s).unwrap();
    r.opt.convert_wos(t.table).unwrap();
    let evolved = t
        .schema
        .evolve_add_column(vortex_common::schema::Field::nullable(
            "region",
            FieldType::String,
        ))
        .unwrap();
    r.sms.update_schema(t.table, evolved).unwrap();
    let snap = r.sms.read_snapshot();

    // Old ROS blocks lack the column: IS NULL matches every row, any
    // comparison matches none — and the zone map must not mis-prune.
    let is_null = ScanOptions {
        predicate: Expr::IsNull("region".into()),
        ..ScanOptions::default()
    };
    let res = r.engine.scan(t.table, snap, &is_null).unwrap();
    assert_eq!(res.rows.len(), 100);
    assert!(res.rows.iter().all(|(_, row)| row.values[3] == Value::Null));

    let eq = ScanOptions {
        predicate: Expr::eq("region", Value::String("emea".into())),
        ..ScanOptions::default()
    };
    assert_eq!(r.engine.scan(t.table, snap, &eq).unwrap().rows.len(), 0);

    // Projecting only the post-block column decodes nothing and pads.
    let proj = ScanOptions {
        projection: Some(vec!["region".to_string()]),
        ..ScanOptions::default()
    };
    let res = r.engine.scan(t.table, snap, &proj).unwrap();
    assert_eq!(res.rows.len(), 100);
    assert!(res.rows.iter().all(|(_, row)| row.values[3] == Value::Null));
}

mod pushdown_equivalence {
    use proptest::prelude::*;

    use vortex_common::ids::{ClusterId, FragmentId, StreamletId, TableId};
    use vortex_common::row::{Row, RowSet, Value};
    use vortex_common::schema::{Field, FieldType, PartitionTransform, Schema};
    use vortex_common::stats::ColumnStats;
    use vortex_common::truetime::Timestamp;
    use vortex_sms::meta::{FragmentKind, FragmentMeta, FragmentState};

    use super::{oracle_scan, rig, Rig, SmsApi};
    use crate::engine::ScanOptions;
    use crate::expr::{CmpOp, Expr, Verdict};
    use crate::pushdown::CPred;

    /// Like the shared test schema but with a nullable float column so
    /// NULL, NaN and -0.0 flow through both evaluation paths.
    fn pd_schema() -> Schema {
        Schema::new(vec![
            Field::required("day", FieldType::Int64),
            Field::required("customer", FieldType::String),
            Field::required("amount", FieldType::Int64),
            Field::nullable("score", FieldType::Float64),
        ])
        .with_partition("day", PartitionTransform::Identity)
        .with_clustering(&["customer"])
    }

    fn pd_rows(start: i64, n: usize, seed: i64) -> RowSet {
        RowSet::new(
            (0..n)
                .map(|i| {
                    let k = start + i as i64;
                    let score = if (k + seed) % 7 == 0 {
                        Value::Null
                    } else if k % 13 == 0 {
                        Value::Float64(f64::NAN)
                    } else if k % 11 == 0 {
                        Value::Float64(-0.0)
                    } else {
                        Value::Float64((k % 40) as f64 * 0.5)
                    };
                    Row::insert(vec![
                        Value::Int64(k / 100),
                        Value::String(format!("cust-{:04}", (k + seed) % 50)),
                        Value::Int64(k),
                        score,
                    ])
                })
                .collect(),
        )
    }

    /// Every storage state a scan distinguishes, in one table: a tail
    /// written under the schema version before `score` (its rows one
    /// cell short), converted ROS with a deletion mask, a finalized but
    /// unconverted log file with another, and a fresh tail.
    fn load_mixed(r: &Rig, seed: i64) -> TableId {
        let mut v1 = pd_schema();
        let score = v1.fields.pop().unwrap();
        let t = r.sms.create_table("t", v1).unwrap();
        let mut old = r.client.create_unbuffered_writer(t.table).unwrap();
        let mut short = pd_rows(230, 15, seed);
        short.rows.iter_mut().for_each(|row| row.values.truncate(3));
        old.append(short).unwrap();
        let v2 = t.schema.evolve_add_column(score).unwrap();
        r.sms.update_schema(t.table, v2).unwrap();

        let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
        w.append(pd_rows(0, 200, seed)).unwrap();
        r.sms.finalize_stream(t.table, w.stream_id()).unwrap();
        r.opt.convert_wos(t.table).unwrap();
        let mut wos = r.client.create_unbuffered_writer(t.table).unwrap();
        wos.append(pd_rows(200, 30, seed)).unwrap();
        r.sms.finalize_stream(t.table, wos.stream_id()).unwrap();
        let lo = seed.rem_euclid(160);
        let between = |lo: i64, hi: i64| {
            Expr::ge("amount", Value::Int64(lo)).and(Expr::lt("amount", Value::Int64(hi)))
        };
        let report = r
            .dml
            .delete_where(t.table, &between(lo, lo + 20).or(between(205, 215)))
            .unwrap();
        // The log file and one or two day partitions of ROS; no tail.
        assert_eq!((report.rows_matched, report.tails_masked), (30, 0));
        assert!(report.fragments_masked >= 2, "{report:?}");
        let mut w2 = r.client.create_unbuffered_writer(t.table).unwrap();
        w2.append(pd_rows(245, 15, seed)).unwrap();
        t.table
    }

    fn arb_op() -> impl Strategy<Value = CmpOp> {
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge),
        ]
    }

    fn arb_score_literal() -> impl Strategy<Value = Value> {
        prop_oneof![
            (0i64..40).prop_map(|v| Value::Float64(v as f64 * 0.5)),
            Just(Value::Float64(f64::NAN)),
            Just(Value::Float64(-0.0)),
            Just(Value::Float64(0.0)),
            Just(Value::Null),
        ]
    }

    fn arb_leaf() -> impl Strategy<Value = Expr> {
        prop_oneof![
            (arb_op(), -10i64..260).prop_map(|(op, v)| Expr::Cmp {
                column: "amount".into(),
                op,
                value: Value::Int64(v),
            }),
            (arb_op(), 0i64..3).prop_map(|(op, v)| Expr::Cmp {
                column: "day".into(),
                op,
                value: Value::Int64(v),
            }),
            (arb_op(), 0i64..55).prop_map(|(op, v)| Expr::Cmp {
                column: "customer".into(),
                op,
                value: Value::String(format!("cust-{v:04}")),
            }),
            (arb_op(), arb_score_literal()).prop_map(|(op, value)| Expr::Cmp {
                column: "score".into(),
                op,
                value,
            }),
            collection::vec(-5i64..255, 0..4)
                .prop_map(|vs| Expr::is_in("amount", vs.into_iter().map(Value::Int64).collect(),)),
            collection::vec(arb_score_literal(), 1..3).prop_map(|vs| Expr::is_in("score", vs)),
            prop_oneof![Just("day"), Just("customer"), Just("amount"), Just("score")]
                .prop_map(|c| Expr::IsNull(c.to_string())),
        ]
    }

    fn arb_pred() -> impl Strategy<Value = Expr> {
        arb_leaf().prop_recursive(3, 16, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
                inner.prop_map(|a| a.not()),
            ]
        })
    }

    /// Row identity via the canonical key encoding: `PartialEq` would
    /// call NaN != NaN and -0.0 == 0.0, hiding real divergence.
    fn keys(rows: &[(vortex_ros::RowMeta, Row)]) -> Vec<(vortex_ros::RowMeta, Vec<Vec<u8>>)> {
        rows.iter()
            .map(|(m, r)| (*m, r.values.iter().map(|v| v.encode_key()).collect()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // The pushed-down scan (zone maps, dictionary/run-level predicate
        // evaluation, late materialization) must be indistinguishable
        // from decode-then-filter: same rows, same order, same row
        // provenance, same projection nulling, same match count.
        #[test]
        fn pushdown_equals_decode_then_filter(
            pred in arb_pred(),
            seed in 0i64..6,
            proj_sel in 0usize..4,
        ) {
            let r = rig();
            let t = load_mixed(&r, seed);
            let projection = match proj_sel {
                0 => None,
                1 => Some(vec!["amount".to_string()]),
                2 => Some(vec!["score".to_string(), "customer".to_string()]),
                _ => Some(vec!["day".to_string(), "amount".to_string()]),
            };
            let snap = r.sms.read_snapshot();
            let on = r
                .engine
                .scan(t, snap, &ScanOptions {
                    predicate: pred.clone(),
                    projection: projection.clone(),
                    ..ScanOptions::default()
                })
                .unwrap();
            let off = oracle_scan(&r, t, snap, &pred, projection.as_deref());
            prop_assert_eq!(keys(&on.rows), keys(&off));
            prop_assert_eq!(on.stats.rows_matched, off.len() as u64);
            prop_assert_eq!(on.schema.fields.len(), pd_schema().fields.len());
        }
    }

    /// The rows' cells and change types as a sorted multiset: a DML
    /// statement moves the rows of a masked tail to a stream of its own,
    /// so provenance is not theirs to keep.
    fn cells(rows: &[(vortex_ros::RowMeta, Row)]) -> Vec<(u8, Vec<Vec<u8>>)> {
        let mut cells: Vec<_> = (rows.iter())
            .map(|(_, r)| {
                let values = r.values.iter().map(|v| v.encode_key()).collect();
                (r.change_type as u8, values)
            })
            .collect();
        cells.sort();
        cells
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // DML finds its rows through the scan step: over masked ROS, a
        // masked log file, a live tail and a tail of short rows it must
        // match what `Expr::eval` keeps of the visible rows, a DELETE
        // must leave exactly the rest, and an UPDATE must rewrite exactly
        // those rows and keep every other.
        #[test]
        fn dml_equals_the_eval_oracle(pred in arb_pred(), seed in 0i64..6) {
            let marker = Value::Int64(-1_000);
            for update in [false, true] {
                let r = rig();
                let t = load_mixed(&r, seed);
                let snap = r.sms.read_snapshot();
                let hit = oracle_scan(&r, t, snap, &pred, None);
                let rest = oracle_scan(&r, t, snap, &pred.clone().not(), None);
                let report = match update {
                    false => r.dml.delete_where(t, &pred),
                    true => r.dml.update_where(t, &pred, &[("amount", marker.clone())]),
                };
                let report = report.unwrap();
                prop_assert_eq!(report.rows_matched, hit.len() as u64);
                prop_assert_eq!(report.rows_updated, if update { hit.len() as u64 } else { 0 });
                let mut want = rest;
                if update {
                    want.extend(hit.into_iter().map(|(meta, mut row)| {
                        row.values[2] = marker.clone();
                        (meta, row)
                    }));
                }
                let got = r.client.read_rows(t).unwrap().rows;
                prop_assert_eq!(cells(&got), cells(&want), "update: {}", update);
            }
        }
    }

    /// Rows a log file took before its table gained a column read NULL
    /// there, and reconciliation's properties of the column do not count
    /// them: properties of fewer rows than the fragment holds rule out
    /// nothing.
    #[test]
    fn rows_older_than_a_column_survive_its_properties() {
        let r = rig();
        let mut v1 = pd_schema();
        let score = v1.fields.pop().unwrap();
        let t = r.sms.create_table("t", v1).unwrap();
        let mut old = r.client.create_unbuffered_writer(t.table).unwrap();
        let mut short = pd_rows(0, 15, 0);
        short.rows.iter_mut().for_each(|row| row.values.truncate(3));
        old.append(short).unwrap();
        let v2 = t.schema.evolve_add_column(score).unwrap();
        r.sms.update_schema(t.table, v2).unwrap();
        r.sms.finalize_stream(t.table, old.stream_id()).unwrap();
        let snap = r.sms.read_snapshot();
        let listed = r.sms.list_read_fragments(t.table, snap).unwrap();
        let of_score = |f: &FragmentMeta| f.stats.iter().find(|(n, _)| n == "score").cloned();
        let score = listed
            .fragments
            .iter()
            .map(|f| of_score(&f.meta))
            .collect::<Vec<_>>();
        assert!(
            matches!(&score[..], [Some((_, s))] if s.count == 0),
            "{score:?}"
        );
        let pred = Expr::IsNull("score".into());
        let opts = ScanOptions {
            predicate: pred.clone(),
            ..ScanOptions::default()
        };
        assert_eq!(oracle_scan(&r, t.table, snap, &pred, None).len(), 15);
        assert_eq!(r.engine.count(t.table, snap, &opts).unwrap(), 15);
    }

    /// Properties a catalog may hold of a column of `rows` rows with
    /// values from `value`: none, every row NULL, or a range, with NULLs
    /// or without.
    fn arb_stats(
        value: BoxedStrategy<Value>,
        rows: u64,
    ) -> impl Strategy<Value = Option<ColumnStats>> {
        let range = (value.clone(), value, any::<bool>()).prop_map(move |(a, b, has_null)| {
            let (min, max) = if a.total_cmp(&b).is_le() {
                (a, b)
            } else {
                (b, a)
            };
            ColumnStats {
                min: Some(min),
                max: Some(max),
                has_null,
                count: rows,
            }
        });
        let nulls = ColumnStats {
            has_null: true,
            count: rows,
            ..ColumnStats::new()
        };
        prop_oneof![Just(None), Just(Some(nulls)), range.prop_map(Some)]
    }

    /// A listed fragment of `rows` rows with catalogued `stats`.
    fn fragment_with(rows: u64, stats: Vec<(String, ColumnStats)>) -> FragmentMeta {
        FragmentMeta {
            fragment: FragmentId::from_raw(1),
            table: TableId::from_raw(1),
            streamlet: StreamletId::from_raw(0),
            kind: FragmentKind::Ros,
            ordinal: 0,
            first_row: 0,
            row_count: rows,
            committed_size: 0,
            state: FragmentState::Finalized,
            created_at: Timestamp::MIN,
            deleted_at: Timestamp::MAX,
            clusters: [ClusterId::from_raw(0), ClusterId::from_raw(1)],
            path: String::new(),
            stats,
            masks: vec![],
            partition_key: None,
            level: 0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Partition elimination decides a fragment with the zone-map
        // verdict over its catalogued properties; `Expr::may_match_stats`,
        // the reference the benchmark prunes with, must rule out exactly
        // the same fragments for a predicate without NOT (which the
        // reference never prunes).
        #[test]
        fn catalog_verdicts_are_may_match_stats(
            pred in arb_leaf().prop_recursive(3, 16, 2, |inner| prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
                (inner.clone(), inner).prop_map(|(a, b)| a.or(b)),
            ]),
            stats in (
                arb_stats((0i64..3).prop_map(Value::Int64).boxed(), 40),
                arb_stats((0i64..55).prop_map(|v| Value::String(format!("cust-{v:04}"))).boxed(), 40),
                arb_stats((-10i64..260).prop_map(Value::Int64).boxed(), 40),
                arb_stats(prop_oneof![
                    (0i64..40).prop_map(|v| Value::Float64(v as f64 * 0.5)),
                    Just(Value::Float64(f64::NAN)),
                    Just(Value::Float64(-0.0)),
                ].boxed(), 40),
            ),
        ) {
            let schema = pd_schema();
            let (day, customer, amount, score) = stats;
            let named = ["day", "customer", "amount", "score"].into_iter().map(String::from);
            let stats = named.zip([day, customer, amount, score]);
            let meta = fragment_with(40, stats.filter_map(|(n, s)| Some((n, s?))).collect());
            let lookup = |c: &str| meta.stats.iter().find(|(n, _)| n == c).map(|(_, s)| s.clone());
            let verdict = CPred::compile(&pred, &schema).unwrap().verdict(&(&schema, &meta));
            prop_assert_eq!(verdict != Verdict::None, pred.may_match_stats(&lookup));
        }
    }

    /// A table whose string zones are FSST-coded: `s` is distinct row to
    /// row but for a few repeats, with NULLs, empty values, multi-byte
    /// UTF-8 and values of more than 127 code bytes among them.
    fn coded_schema() -> Schema {
        Schema::new(vec![
            Field::required("k", FieldType::Int64),
            Field::nullable("s", FieldType::String),
        ])
    }

    /// The `s` of row `k`.
    fn coded_cell(k: i64) -> Value {
        let r = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
        Value::String(match k % 13 {
            0 => return Value::Null,
            1 => String::new(),
            2 => format!("é€😀 {k:04} ünïcode"),
            3 => (0..40)
                .map(|i| format!("{:016x}", r.rotate_left(i)))
                .collect(),
            4 if k > 9 => return coded_cell(k - 9),
            _ => format!(
                "sess={:08x} ua=Chrome os=Linux",
                k as u64 * 2_654_435_761 % (1 << 32)
            ),
        })
    }

    fn coded_rows(start: i64, n: usize) -> RowSet {
        let row = |k: i64| Row::insert(vec![Value::Int64(k), coded_cell(k)]);
        RowSet::new((start..start + n as i64).map(row).collect())
    }

    /// Converted ROS — three blocks of 128 rows — with a deletion mask,
    /// and a tail.
    fn load_coded(r: &Rig) -> TableId {
        let t = r.sms.create_table("t", coded_schema()).unwrap().table;
        let mut w = r.client.create_unbuffered_writer(t).unwrap();
        w.append(coded_rows(0, 384)).unwrap();
        r.sms.finalize_stream(t, w.stream_id()).unwrap();
        r.opt.convert_wos(t).unwrap();
        let gone = Expr::ge("k", Value::Int64(100)).and(Expr::lt("k", Value::Int64(120)));
        assert_eq!(r.dml.delete_where(t, &gone).unwrap().rows_matched, 20);
        let mut tail = r.client.create_unbuffered_writer(t).unwrap();
        tail.append(coded_rows(384, 30)).unwrap();
        t
    }

    /// A literal for `s`: a row's value, one that is no row's, one of
    /// bytes the tables lack, empty, of another type, or NULL.
    fn arb_coded_literal() -> impl Strategy<Value = Value> {
        prop_oneof![
            4 => (0i64..430).prop_map(coded_cell),
            1 => (0i64..430).prop_map(|k| match coded_cell(k) {
                Value::String(s) => Value::String(s + "~"),
                v => v,
            }),
            1 => Just(Value::String("QZJ\u{7f}\u{0}".into())),
            1 => Just(Value::String(String::new())),
            1 => (0i64..430).prop_map(|k| match coded_cell(k) {
                Value::String(s) => Value::Bytes(s.into_bytes()),
                v => v,
            }),
            1 => Just(Value::Null),
        ]
    }

    fn arb_coded_pred() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            4 => (arb_op(), arb_coded_literal()).prop_map(|(op, value)| Expr::Cmp {
                column: "s".into(),
                op,
                value,
            }),
            2 => collection::vec(arb_coded_literal(), 0..4).prop_map(|vs| Expr::is_in("s", vs)),
            1 => Just(Expr::IsNull("s".into())),
            1 => (arb_op(), 0i64..440).prop_map(|(op, v)| Expr::Cmp {
                column: "k".into(),
                op,
                value: Value::Int64(v),
            }),
        ];
        leaf.prop_recursive(2, 8, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
                inner.prop_map(|a| a.not()),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Equality on FSST codes, and the zone maps' verdicts, are
        // indistinguishable from decode-then-filter over string zones
        // coded FSST: a scan, a count and a DELETE select what
        // `Expr::eval` keeps of the visible rows.
        #[test]
        fn coded_strings_equal_decode_then_filter(pred in arb_coded_pred()) {
            let r = super::rig();
            let t = load_coded(&r);
            let snap = r.sms.read_snapshot();
            let want = oracle_scan(&r, t, snap, &pred, None);
            let opts = ScanOptions {
                predicate: pred.clone(),
                ..ScanOptions::default()
            };
            let got = r.engine.scan(t, snap, &opts).unwrap();
            prop_assert_eq!(keys(&got.rows), keys(&want));
            prop_assert_eq!(r.engine.count(t, snap, &opts).unwrap(), want.len() as u64);
            let rest = oracle_scan(&r, t, snap, &pred.clone().not(), None);
            prop_assert_eq!(r.dml.delete_where(t, &pred).unwrap().rows_matched, want.len() as u64);
            prop_assert_eq!(cells(&r.client.read_rows(t).unwrap().rows), cells(&rest));
        }
    }

    /// The same rows as decoded zones alone: a finalized stream's log
    /// file, masked, and a live tail, so that every string cell — NULLs
    /// among them — is tested on a decoded `Str` leaf.
    fn load_fresh_coded(r: &Rig) -> TableId {
        let t = r.sms.create_table("t", coded_schema()).unwrap().table;
        let mut w = r.client.create_unbuffered_writer(t).unwrap();
        w.append(coded_rows(0, 200)).unwrap();
        r.sms.finalize_stream(t, w.stream_id()).unwrap();
        let gone = Expr::ge("k", Value::Int64(50)).and(Expr::lt("k", Value::Int64(60)));
        assert_eq!(r.dml.delete_where(t, &gone).unwrap().rows_matched, 10);
        let mut tail = r.client.create_unbuffered_writer(t).unwrap();
        tail.append(coded_rows(200, 230)).unwrap();
        let listed = r.sms.list_read_fragments(t, r.sms.read_snapshot()).unwrap();
        assert!(!listed.fragments.is_empty() && !listed.tails.is_empty());
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // The typed string kernel over WOS and tail zones — `=`, `<>`,
        // `<` and the other orders on a literal, and NOT of each, `IN`
        // on a list, each literal of the column's type, of another or
        // NULL, and a predicate under AND / OR / NOT — selects what
        // `Expr::eval` keeps of the visible rows, to a scan and a count.
        #[test]
        fn fresh_strings_equal_decode_then_filter(
            pred in arb_coded_pred(),
            lit in arb_coded_literal(),
            list in collection::vec(arb_coded_literal(), 0..4),
        ) {
            let r = super::rig();
            let t = load_fresh_coded(&r);
            let snap = r.sms.read_snapshot();
            let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
            let cmp = |op| Expr::Cmp { column: "s".into(), op, value: lit.clone() };
            let mut preds: Vec<Expr> = ops.into_iter().flat_map(|op| [cmp(op), cmp(op).not()]).collect();
            preds.extend([Expr::is_in("s", list), pred]);
            for pred in preds {
                let want = oracle_scan(&r, t, snap, &pred, None);
                let opts = ScanOptions {
                    predicate: pred.clone(),
                    ..ScanOptions::default()
                };
                let got = r.engine.scan(t, snap, &opts).unwrap();
                prop_assert_eq!(keys(&got.rows), keys(&want), "{:?}", pred);
                prop_assert_eq!(r.engine.count(t, snap, &opts).unwrap(), want.len() as u64);
            }
        }
    }

    /// Over that table a count of `s = X` and of `s IN (…)`, `s <> X`
    /// among them, compares codes: of its ROS zones it decodes no cell.
    #[test]
    fn a_string_equality_decodes_no_cell() {
        use crate::consume::Aggregator;
        let r = super::rig();
        let t = load_coded(&r);
        let snap = r.sms.read_snapshot();
        // Row 212 repeats row 203's value.
        let present = coded_cell(203);
        let list = Expr::is_in("s", vec![coded_cell(7), Value::Null, coded_cell(301)]);
        let unequal = Expr::Cmp {
            column: "s".into(),
            op: CmpOp::Ne,
            value: present.clone(),
        };
        for pred in [Expr::eq("s", present), list, unequal] {
            let opts = ScanOptions {
                predicate: pred.clone(),
                ..ScanOptions::default()
            };
            let count = |_: &Schema| Ok(Aggregator::default());
            let (_, _, stats) = r.engine.scan_into(t, snap, &opts, &count).unwrap();
            let want = oracle_scan(&r, t, snap, &pred, None).len() as u64;
            assert!(want >= 2, "{pred:?}");
            assert_eq!(stats.rows_matched, want, "{pred:?}");
            assert_eq!(stats.cells_decoded, 0, "{pred:?}: {stats:?}");
            assert!(stats.bytes_decoded > 0, "{pred:?}: {stats:?}");
        }
    }

    /// Through a cached engine a coded equality charges the cache for the
    /// FSST matcher each block column builds, once: it holds more than
    /// after the same rows found by a range on `s`, which fetches the same
    /// chunks and builds no matcher, and a repeat adds nothing.
    #[test]
    fn a_coded_equality_charges_its_matchers() {
        let r = super::rig();
        let t = load_coded(&r);
        let snap = r.sms.read_snapshot();
        let held = |preds: &[&Expr]| {
            let cache = crate::ReadCache::new(usize::MAX);
            let mut engine = super::QueryEngine::new(r.sms.clone(), r.client.fleet().clone());
            engine.read.cache = Some(std::sync::Arc::clone(&cache));
            for pred in preds {
                let opts = ScanOptions {
                    predicate: (*pred).clone(),
                    ..ScanOptions::default()
                };
                engine.count(t, snap, &opts).unwrap();
            }
            cache.bytes()
        };
        let x = coded_cell(203);
        let (eq, range) = (Expr::eq("s", x.clone()), Expr::ge("s", x.clone()));
        let range = range.and(Expr::le("s", x));
        let coded = held(&[&eq]);
        assert!(coded > held(&[&range]), "the matchers are on the books");
        assert_eq!(held(&[&eq, &eq]), coded, "and only once");
    }
}

/// A DML predicate is compiled by the scan: a column the schema lacks is
/// `InvalidArgument` before any row is read — even on a table with none.
#[test]
fn dml_on_an_unknown_column_is_invalid_argument() {
    use vortex_common::error::VortexError;
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap().table;
    let pred = Expr::eq("nope", Value::Int64(1));
    let set = [("amount", Value::Int64(0))];
    for err in [
        r.dml.delete_where(t, &pred).unwrap_err(),
        r.dml.update_where(t, &pred, &set).unwrap_err(),
    ] {
        assert!(matches!(err, VortexError::InvalidArgument(_)), "{err}");
    }
}

/// Every aggregate but COUNT needs a column; asking for one without is a
/// caller error, not a panic — straight at the engine and through SQL.
#[test]
fn aggregate_without_a_column_is_invalid_argument() {
    use vortex_common::error::VortexError;
    let (r, sql) = sql_rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(rows(0, 10)).unwrap();
    let snap = r.sms.read_snapshot();
    let opts = ScanOptions::default();
    for kind in [AggKind::Sum, AggKind::Min, AggKind::Max, AggKind::Avg] {
        let err = r
            .engine
            .aggregate(t.table, snap, &opts, Some("day"), &[(kind, None)])
            .unwrap_err();
        assert!(matches!(err, VortexError::InvalidArgument(_)), "{err}");
        assert!(err.to_string().contains("needs a column"), "{err}");
    }
    let groups = r
        .engine
        .aggregate(t.table, snap, &opts, None, &[(AggKind::Count, None)])
        .unwrap();
    assert_eq!(groups, vec![(None, vec![Value::Int64(10)])]);
    for q in [
        "SELECT SUM(*) FROM t",
        "SELECT day, AVG(*) FROM t GROUP BY day",
    ] {
        let err = sql.execute(q).unwrap_err();
        assert!(matches!(err, VortexError::InvalidArgument(_)), "{q}: {err}");
    }
}

/// `count` and `aggregate` fold a table as typed vectors — no `Row`
/// exists at any point, converted or not — while `scan` builds exactly
/// the rows it returns.
#[test]
fn only_row_returning_scans_materialize_ros_rows() {
    use crate::consume::{Aggregator, RowCollector};
    let r = rig();
    let t = load_converted(&r, 300);
    let snap = r.sms.read_snapshot();
    let opts = ScanOptions {
        predicate: Expr::ge("amount", Value::Int64(50)),
        ..ScanOptions::default()
    };
    let count = |_: &Schema| Ok(Aggregator::default());
    let aggs = [
        (AggKind::Sum, Some("amount")),
        (AggKind::Max, Some("customer")),
    ];
    let agg = |s: &Schema| Aggregator::new(s, Some("day"), &aggs);
    let collect = |_: &Schema| Ok(RowCollector::default());
    let (_, _, counted) = r.engine.scan_into(t, snap, &opts, &count).unwrap();
    let (_, _, aggregated) = r.engine.scan_into(t, snap, &opts, &agg).unwrap();
    let (_, _, scanned) = r.engine.scan_into(t, snap, &opts, &collect).unwrap();
    for stats in [counted, aggregated, scanned] {
        assert_eq!(stats.rows_matched, 250, "{stats:?}");
        assert!(stats.zones_total > 0, "{stats:?}");
    }
    assert_eq!(counted.rows_materialized, 0, "{counted:?}");
    assert_eq!(aggregated.rows_materialized, 0, "{aggregated:?}");
    assert_eq!(scanned.rows_materialized, 250, "{scanned:?}");
    assert_eq!(r.engine.count(t, snap, &opts).unwrap(), 250);

    // A live tail decodes to zones like everything else: all 40 of its
    // rows are scanned (amounts 40..80), the 30 at or above the
    // predicate's 50 fold, and only `scan` turns those into rows.
    let mut w = r.client.create_unbuffered_writer(t).unwrap();
    w.append(rows(40, 40)).unwrap();
    let snap = r.sms.read_snapshot();
    let (_, _, counted) = r.engine.scan_into(t, snap, &opts, &count).unwrap();
    let (_, _, aggregated) = r.engine.scan_into(t, snap, &opts, &agg).unwrap();
    let (sink, _, scanned) = r.engine.scan_into(t, snap, &opts, &collect).unwrap();
    for stats in [counted, aggregated, scanned] {
        assert_eq!(stats.rows_matched, 250 + 30, "{stats:?}");
        assert_eq!(stats.rows_scanned, 300 + 40, "{stats:?}");
    }
    assert_eq!(counted.rows_materialized, 0, "{counted:?}");
    assert_eq!(aggregated.rows_materialized, 0, "{aggregated:?}");
    assert_eq!(scanned.rows_materialized, sink.rows.len() as u64);
    assert_eq!(sink.rows.len(), 250 + 30);

    // The same over tables with nothing converted: a finalized log file,
    // and a tail alone.
    for finalize in [true, false] {
        let name = format!("unconverted-{finalize}");
        let t = r.sms.create_table(&name, schema()).unwrap().table;
        let mut w = r.client.create_unbuffered_writer(t).unwrap();
        w.append(rows(0, 120)).unwrap();
        if finalize {
            r.sms.finalize_stream(t, w.stream_id()).unwrap();
        }
        let snap = r.sms.read_snapshot();
        let (_, _, counted) = r.engine.scan_into(t, snap, &opts, &count).unwrap();
        let (_, _, aggregated) = r.engine.scan_into(t, snap, &opts, &agg).unwrap();
        let (_, _, scanned) = r.engine.scan_into(t, snap, &opts, &collect).unwrap();
        for stats in [counted, aggregated, scanned] {
            assert_eq!(stats.rows_matched, 70, "{stats:?}");
            assert_eq!(stats.zones_total, 1, "no ROS zone: {stats:?}");
            assert_eq!(stats.tails_scanned, !finalize as usize, "{stats:?}");
        }
        assert_eq!(counted.rows_materialized, 0, "{counted:?}");
        assert_eq!(aggregated.rows_materialized, 0, "{aggregated:?}");
        assert_eq!(scanned.rows_materialized, 70, "{scanned:?}");
    }
}

/// Fresh zones carry statistics: a log file's decoded zones are decided
/// by their zone maps and a bloom over the clustering key, as a ROS
/// block's are, and the row gate still runs after the verdict.
mod fresh_zone_stats {
    use proptest::prelude::*;
    use vortex_ros::{zone_map, ZONE_ROWS};

    use super::*;
    use crate::cache::ReadCache;
    use crate::read::{read_tail, read_tail_cached, TailOutcome};

    /// A live tail of four full zones, each holding customers of its own
    /// whose ranges interleave — so only the bloom tells them apart — and
    /// an open zone holding zone 2's. A point count on one of zone 2's
    /// keys scans that zone and the open one, no other (it scanned every
    /// row before zones carried statistics), and counts what the
    /// decode-then-filter oracle keeps.
    #[test]
    fn a_point_count_scans_the_fresh_zones_holding_its_key() {
        let r = rig();
        let t = r.sms.create_table("t", schema()).unwrap().table;
        let mut w = r.client.create_unbuffered_writer(t).unwrap();
        let sizes = [ZONE_ROWS, ZONE_ROWS, ZONE_ROWS, ZONE_ROWS, 100];
        for (group, n) in [0, 1, 2, 3, 2].into_iter().zip(sizes) {
            let row = |k: usize| {
                Row::insert(vec![
                    Value::Int64(0),
                    Value::String(format!("cust-{:04}", (k % 25) * 4 + group)),
                    Value::Int64(k as i64),
                ])
            };
            for from in (0..n).step_by(256) {
                w.append(RowSet::new((from..n.min(from + 256)).map(row).collect()))
                    .unwrap();
            }
        }
        let snap = r.sms.read_snapshot();
        let key = r.sms.get_table(t).unwrap().encryption_key();
        let rs = r.sms.list_read_fragments(t, snap).unwrap();
        let Ok(TailOutcome::Rows(tail)) = read_tail(&rs.tails[0], r.client.fleet(), &key, snap)
        else {
            panic!("an unbuffered tail is decided");
        };
        let zones: Vec<usize> = tail.iter().map(|(zone, _)| zone.metas.len()).collect();
        assert_eq!(zones, sizes);

        let pred = Expr::eq("customer", Value::String("cust-0042".into()));
        let want = oracle_scan(&r, t, snap, &pred, None);
        let opts = ScanOptions {
            predicate: pred,
            ..ScanOptions::default()
        };
        let got = r.engine.scan(t, snap, &opts).unwrap();
        assert_eq!(amounts(&got.rows), amounts(&want));
        assert_eq!(r.engine.count(t, snap, &opts).unwrap(), want.len() as u64);
        let stats = got.stats;
        assert_eq!(stats.rows_matched, want.len() as u64, "{stats:?}");
        assert_eq!((stats.zones_total, stats.zones_pruned), (5, 3), "{stats:?}");
        assert_eq!(stats.rows_scanned, (ZONE_ROWS + 100) as u64, "{stats:?}");
    }

    /// The zone bloom holds the clustering columns alone: a point on the
    /// partition column `day` is the zone maps' to decide, beside a point
    /// on the clustering key or not, over a finalized log file and a tail.
    #[test]
    fn a_partition_point_is_not_asked_of_the_zone_bloom() {
        let r = rig();
        let t = r.sms.create_table("t", schema()).unwrap().table;
        let mut w = r.client.create_unbuffered_writer(t).unwrap();
        w.append(rows(0, 300)).unwrap();
        r.sms.finalize_stream(t, w.stream_id()).unwrap();
        let mut tail = r.client.create_unbuffered_writer(t).unwrap();
        tail.append(rows(300, 150)).unwrap();
        let snap = r.sms.read_snapshot();
        let listed = r.sms.list_read_fragments(t, snap).unwrap();
        assert!(!listed.fragments.is_empty() && !listed.tails.is_empty());
        let day = |d: i64| Expr::eq("day", Value::Int64(d));
        let customer = |c: &str| Expr::eq("customer", Value::String(c.into()));
        let preds = [
            day(1),
            day(3),
            day(1).and(customer("cust-0007")),
            day(3).and(customer("cust-0007")),
            day(9),
            day(1).and(customer("cust-9999")),
        ];
        for (i, pred) in preds.into_iter().enumerate() {
            let want = oracle_scan(&r, t, snap, &pred, None);
            assert_eq!(want.is_empty(), i >= 4, "{pred:?}");
            let opts = ScanOptions {
                predicate: pred.clone(),
                ..ScanOptions::default()
            };
            let got = r.engine.scan(t, snap, &opts).unwrap();
            assert_eq!(amounts(&got.rows), amounts(&want), "{pred:?}");
            assert_eq!(r.engine.count(t, snap, &opts).unwrap(), want.len() as u64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// A live tail extended in steps of random size — its open zone
        /// reopened by each — keeps per zone what a recount gives: each
        /// column's zone map, the newest stamp, and a bloom holding every
        /// clustering key. Then, beside buffered rows past the flush, an
        /// uncommitted PENDING stream and masked rows, counts and scans
        /// whose verdicts decide zones whole, or none of them, select what
        /// the oracle keeps: the gate runs after the verdict.
        #[test]
        fn fresh_zone_statistics_equal_a_recount(
            steps in collection::vec(1usize..400, 2..8),
            flushed in 0u64..=40,
            (lo, len) in (0i64..2_000, 0i64..300),
        ) {
            let r = rig();
            let t = r.sms.create_table("t", schema()).unwrap().table;
            let key = r.sms.get_table(t).unwrap().encryption_key();
            let cache = ReadCache::new(1 << 26);
            let mut w = r.client.create_unbuffered_writer(t).unwrap();
            let mut start = 0;
            for n in steps {
                w.append(rows(start, n)).unwrap();
                start += n as i64;
                let snap = r.sms.read_snapshot();
                let rs = r.sms.list_read_fragments(t, snap).unwrap();
                for spec in &rs.tails {
                    let read = read_tail_cached(spec, r.client.fleet(), &key, snap, Some(&cache));
                    let Ok(TailOutcome::Rows(tail)) = read else {
                        panic!("an unbuffered tail is decided");
                    };
                    for ((zone, _), stats) in tail.iter().zip(tail.stats()) {
                        let n = zone.metas.len();
                        let maps: Vec<_> = zone.cols.iter().map(|c| zone_map(c, 0..n)).collect();
                        prop_assert_eq!(&stats.maps, &maps);
                        prop_assert_eq!(Some(stats.newest), zone.metas.iter().map(|m| m.ts).max());
                        let (bloom, mut cell) = (stats.bloom.as_ref().unwrap(), Vec::new());
                        for i in 0..n {
                            cell.clear();
                            zone.cols[1].key_into(i, &mut cell);
                            prop_assert!(bloom.may_contain(&cell), "row {} of {:?}", i, zone.first);
                        }
                    }
                }
            }
            let mut buffered = r.client.create_buffered_writer(t).unwrap();
            buffered.append(rows(10_000, 40)).unwrap();
            buffered.flush(flushed).unwrap();
            let mut pending = r.client.create_pending_writer(t).unwrap();
            pending.append(rows(20_000, 30)).unwrap();
            let gone = Expr::ge("amount", Value::Int64(lo)).and(Expr::lt("amount", Value::Int64(lo + len)));
            r.dml.delete_where(t, &gone).unwrap();
            let snap = r.sms.read_snapshot();
            let customer = Expr::eq("customer", Value::String("cust-0007".into()));
            let preds = [
                customer.clone(),
                customer.and(Expr::eq("day", Value::Int64(100))),
                Expr::ge("day", Value::Int64(0)),
                Expr::lt("day", Value::Int64(0)),
                Expr::ge("amount", Value::Int64(lo)),
            ];
            let handle: vortex_sms::api::SmsHandle = r.sms.clone();
            let mut warm = QueryEngine::new(handle, r.client.fleet().clone());
            warm.read.cache = Some(cache);
            for pred in preds {
                let want = oracle_scan(&r, t, snap, &pred, None);
                let opts = ScanOptions {
                    predicate: pred.clone(),
                    ..ScanOptions::default()
                };
                for engine in [&r.engine, &warm] {
                    let got = engine.scan(t, snap, &opts).unwrap();
                    prop_assert_eq!(amounts(&got.rows), amounts(&want), "{:?}", pred);
                    prop_assert_eq!(engine.count(t, snap, &opts).unwrap(), want.len() as u64);
                }
            }
        }
    }
}

mod aggregate_equivalence {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use vortex_common::ids::TableId;
    use vortex_common::row::{Row, RowSet, Value};
    use vortex_common::schema::{ChangeType, Field, FieldType, PartitionTransform, Schema};
    use vortex_common::truetime::Timestamp;

    use super::{oracle_scan, rig, Rig, SmsApi};
    use crate::engine::{AggKind, ScanOptions};
    use crate::expr::Expr;

    const COLUMNS: [&str; 6] = ["day", "customer", "amount", "score", "price", "at"];

    /// One column per type the accumulators distinguish, the float and
    /// numeric ones nullable.
    fn agg_schema(keyed: bool) -> Schema {
        let schema = Schema::new(vec![
            Field::required("day", FieldType::Int64),
            Field::required("customer", FieldType::String),
            Field::required("amount", FieldType::Int64),
            Field::nullable("score", FieldType::Float64),
            Field::nullable("price", FieldType::Numeric),
            Field::nullable("at", FieldType::Timestamp),
        ])
        .with_partition("day", PartitionTransform::Identity)
        .with_clustering(&["customer"]);
        if keyed {
            schema.with_primary_key(&["customer"])
        } else {
            schema
        }
    }

    /// Rows `start..start + n`, shaped by `seed`: NULLs, NaN, -0.0 and 0.0
    /// in `score`, NULLs in `price`, negative amounts, few distinct
    /// customers and timestamps (so grouping by them groups). `keyed`
    /// tables get UPSERTs with the odd DELETE instead of INSERTs.
    fn agg_rows(start: i64, n: usize, seed: i64, keyed: bool) -> RowSet {
        let row = |k: i64| {
            let score = match k {
                _ if (k + seed) % 7 == 0 => Value::Null,
                _ if k % 13 == 0 => Value::Float64(f64::NAN),
                _ if k % 11 == 0 => Value::Float64(-0.0),
                _ if k % 17 == 0 => Value::Float64(0.0),
                _ => Value::Float64(((k * seed.max(1)) % 40) as f64 * 0.25 - 3.0),
            };
            let price = match (k + seed) % 5 {
                0 => Value::Null,
                _ => Value::Numeric((((k * 37 + seed) % 1000) - 500) as i128 * 10_000_000),
            };
            let values = vec![
                Value::Int64(k / 80),
                Value::String(format!("cust-{:03}", (k * 7 + seed) % 23)),
                Value::Int64(k * 3 - 100 + seed),
                score,
                price,
                Value::Timestamp(Timestamp(1_000_000 + ((k + seed) % 9) as u64 * 1000)),
            ];
            match (keyed, k % 10 == 9) {
                (false, _) => Row::insert(values),
                (true, false) => Row::with_change(values, ChangeType::Upsert),
                (true, true) => Row::with_change(values, ChangeType::Delete),
            }
        };
        RowSet::new((start..start + n as i64).map(row).collect())
    }

    /// Part converted ROS, part finalized-but-unconverted WOS under a
    /// deletion mask, part live tail — and a tail from before the schema
    /// had `at`, its rows one cell short.
    fn load_three_ways(r: &Rig, seed: i64, keyed: bool) -> TableId {
        let mut v1 = agg_schema(keyed);
        let at = v1.fields.pop().unwrap();
        let t = r.sms.create_table("t", v1).unwrap();
        let mut old = r.client.create_unbuffered_writer(t.table).unwrap();
        let mut short = agg_rows(250, 20, seed, keyed);
        short.rows.iter_mut().for_each(|row| row.values.truncate(5));
        old.append(short).unwrap();
        let v2 = t.schema.evolve_add_column(at).unwrap();
        r.sms.update_schema(t.table, v2).unwrap();

        let mut ros = r.client.create_unbuffered_writer(t.table).unwrap();
        ros.append(agg_rows(0, 150, seed, keyed)).unwrap();
        r.sms.finalize_stream(t.table, ros.stream_id()).unwrap();
        r.opt.convert_wos(t.table).unwrap();
        let mut wos = r.client.create_unbuffered_writer(t.table).unwrap();
        wos.append(agg_rows(150, 70, seed, keyed)).unwrap();
        r.sms.finalize_stream(t.table, wos.stream_id()).unwrap();
        // Rows 160..170, by their amounts: all in the log file.
        let (lo, hi) = (160 * 3 - 100 + seed, 170 * 3 - 100 + seed);
        let masked = Expr::ge("amount", Value::Int64(lo)).and(Expr::lt("amount", Value::Int64(hi)));
        let report = r.dml.delete_where(t.table, &masked).unwrap();
        assert_eq!((report.rows_matched, report.fragments_masked), (10, 1));
        let mut tail = r.client.create_unbuffered_writer(t.table).unwrap();
        tail.append(agg_rows(220, 30, seed, keyed)).unwrap();
        t.table
    }

    fn arb_leaf() -> impl Strategy<Value = Expr> {
        prop_oneof![
            Just(Expr::True),
            (-150i64..700).prop_map(|v| Expr::ge("amount", Value::Int64(v))),
            (0i64..4).prop_map(|v| Expr::eq("day", Value::Int64(v))),
            (0i64..25).prop_map(|v| Expr::lt("customer", Value::String(format!("cust-{v:03}")))),
            (-12i64..28).prop_map(|v| Expr::le("score", Value::Float64(v as f64 * 0.25))),
            Just(Expr::IsNull("price".into())),
        ]
    }

    fn arb_pred() -> impl Strategy<Value = Expr> {
        (arb_leaf(), arb_leaf(), 0usize..4).prop_map(|(a, b, how)| match how {
            0 => a,
            1 => a.and(b),
            2 => a.or(b),
            _ => a.and(b.not()),
        })
    }

    fn arb_agg() -> impl Strategy<Value = (AggKind, Option<&'static str>)> {
        let kind = prop_oneof![
            Just(AggKind::Sum),
            Just(AggKind::Min),
            Just(AggKind::Max),
            Just(AggKind::Avg),
            Just(AggKind::Count),
        ];
        prop_oneof![
            1 => Just((AggKind::Count, None)),
            6 => (kind, 0usize..COLUMNS.len()).prop_map(|(k, c)| (k, Some(COLUMNS[c]))),
        ]
    }

    /// The aggregate of one group's cells, written down from the
    /// definitions: COUNT counts rows; SUM and AVG take the INT64 /
    /// FLOAT64 / NUMERIC cells (a column has one of these types) and are
    /// NULL without any; MIN and MAX take the non-NULL cells under
    /// `total_cmp`.
    fn reference(kind: AggKind, cells: &[&Value]) -> Value {
        let ints: Vec<i128> = (cells.iter())
            .filter_map(|v| match v {
                Value::Int64(i) => Some(*i as i128),
                Value::Numeric(n) => Some(*n),
                _ => None,
            })
            .collect();
        let floats: Vec<f64> = (cells.iter())
            .filter_map(|v| match v {
                Value::Float64(f) => Some(*f),
                _ => None,
            })
            .collect();
        let numeric = cells.iter().any(|v| matches!(v, Value::Numeric(_)));
        let scale = if numeric { 1e9 } else { 1.0 };
        let total = ints.iter().sum::<i128>() as f64 / scale + floats.iter().sum::<f64>();
        let present = cells.iter().filter(|v| !v.is_null());
        match kind {
            AggKind::Count => Value::Int64(cells.len() as i64),
            AggKind::Min => present
                .min_by(|a, b| a.total_cmp(b))
                .map_or(Value::Null, |v| (*v).clone()),
            AggKind::Max => present
                .max_by(|a, b| a.total_cmp(b))
                .map_or(Value::Null, |v| (*v).clone()),
            _ if ints.is_empty() && floats.is_empty() => Value::Null,
            AggKind::Avg => Value::Float64(total / (ints.len() + floats.len()) as f64),
            _ if !floats.is_empty() => Value::Float64(total),
            _ if numeric => Value::Numeric(ints.iter().sum()),
            _ => Value::Int64(ints.iter().sum::<i128>() as i64),
        }
    }

    /// Floats to 1e-9 relative (NaN equals NaN); everything else exactly,
    /// under the key encoding.
    fn same(got: &Value, want: &Value) -> bool {
        match (got, want) {
            (Value::Float64(g), Value::Float64(w)) if !g.is_nan() || !w.is_nan() => {
                (g - w).abs() <= 1e-9 * g.abs().max(w.abs())
            }
            _ => got.key_eq(want),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // `aggregate` and `count` fold ROS zones as typed vectors, WOS
        // and tail rows as rows, and with `resolve_changes` what
        // merge-on-read leaves; each must equal the definition applied to
        // the rows the row oracle (or, for a keyed table, the resolving
        // scan) returns.
        #[test]
        fn aggregate_equals_fold_over_oracle_rows(
            pred in arb_pred(),
            seed in 0i64..1000,
            keyed in any::<bool>(),
            group in 0usize..=COLUMNS.len(),
            aggs in proptest::collection::vec(arb_agg(), 1..4),
        ) {
            let r = rig();
            let t = load_three_ways(&r, seed, keyed);
            let snap = r.sms.read_snapshot();
            let opts = ScanOptions {
                predicate: pred.clone(),
                resolve_changes: keyed,
                ..ScanOptions::default()
            };
            let rows = match keyed {
                true => r.engine.scan(t, snap, &opts).unwrap().rows,
                false => oracle_scan(&r, t, snap, &pred, None),
            };
            let schema = agg_schema(keyed);
            let cell = |row: &'_ Row, c: &str| row.values[schema.column_index(c).unwrap()].clone();
            prop_assert_eq!(r.engine.count(t, snap, &opts).unwrap(), rows.len() as u64);
            // The drawn grouping, and always the string column: its cells
            // are looked up by their key bytes where they lie.
            for group_by in [COLUMNS.get(group).copied(), Some("customer")] {
                let mut want: BTreeMap<Vec<u8>, (Option<Value>, Vec<Row>)> = BTreeMap::new();
                if group_by.is_none() {
                    want.insert(Vec::new(), (None, Vec::new()));
                }
                for (_, row) in &rows {
                    let g = group_by.map(|c| cell(row, c));
                    let key = g.as_ref().map(|v| v.encode_key()).unwrap_or_default();
                    want.entry(key).or_insert((g, Vec::new())).1.push(row.clone());
                }
                let got = r.engine.aggregate(t, snap, &opts, group_by, &aggs).unwrap();
                prop_assert_eq!(got.len(), want.len());
                for ((g, vals), (wg, members)) in got.iter().zip(want.values()) {
                    prop_assert!(match (g, wg) {
                        (Some(g), Some(w)) => g.key_eq(w),
                        (g, w) => g.is_none() && w.is_none(),
                    }, "group {:?} != {:?}", g, wg);
                    for (v, (kind, col)) in vals.iter().zip(&aggs) {
                        let cells: Vec<Value> = (members.iter())
                            .map(|row| col.map_or(Value::Null, |c| cell(row, c)))
                            .collect();
                        let w = reference(*kind, &cells.iter().collect::<Vec<_>>());
                        prop_assert!(same(v, &w), "{:?}({:?}) of group {:?}: {:?} != {:?}", kind, col, g, v, w);
                    }
                }
            }
        }
    }
}
