//! Control-plane tests: SMS lifecycle, heartbeats, read sets,
//! reconciliation, conversion/DML commits, and double-ownership safety.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use vortex_colossus::StorageFleet;
use vortex_common::bloom::BloomFilter;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{ClusterId, FragmentId, IdGen, ServerId, StreamletId, TableId};
use vortex_common::latency::WriteProfile;
use vortex_common::mask::DeletionMask;
use vortex_common::row::{Row, RowSet, Value};
use vortex_common::schema::{sales_schema, Field, FieldType, Schema};
use vortex_common::truetime::{SimClock, Timestamp, TrueTime};
use vortex_metastore::MetaStore;
use vortex_wos::{FragmentConfig, FragmentWriter};

use crate::api::SmsApi;
use crate::heartbeat::{FragmentDelta, StreamletDelta};
use crate::meta::{
    self, wos_path, FragmentKind, FragmentMeta, FragmentState, Record, StreamMeta, StreamType,
    StreamletMeta, StreamletState,
};
use crate::readset::ReadSet;
use crate::server_ctl::{LoadReport, StreamServerApi, StreamletSpec};
use crate::sms::{SmsConfig, SmsTask};

/// A scriptable in-memory Stream Server for control-plane tests.
struct MockServer {
    id: ServerId,
    cluster: ClusterId,
    specs: Mutex<Vec<StreamletSpec>>,
    live_rows: Mutex<HashMap<StreamletId, u64>>,
    schema_notices: Mutex<Vec<(TableId, u32)>>,
    revoked: Mutex<Vec<StreamletId>>,
    fail_create: AtomicBool,
    load_streamlets: AtomicU64,
    quarantined: AtomicBool,
}

impl MockServer {
    fn new(id: u64, cluster: u64) -> Arc<Self> {
        Arc::new(Self {
            id: ServerId::from_raw(id),
            cluster: ClusterId::from_raw(cluster),
            specs: Mutex::new(vec![]),
            live_rows: Mutex::new(HashMap::new()),
            schema_notices: Mutex::new(vec![]),
            revoked: Mutex::new(vec![]),
            fail_create: AtomicBool::new(false),
            load_streamlets: AtomicU64::new(0),
            quarantined: AtomicBool::new(false),
        })
    }
}

impl StreamServerApi for MockServer {
    fn server_id(&self) -> ServerId {
        self.id
    }

    fn cluster(&self) -> ClusterId {
        self.cluster
    }

    fn create_streamlet(&self, spec: StreamletSpec) -> VortexResult<()> {
        if self.fail_create.load(Ordering::SeqCst) {
            return Err(VortexError::Unavailable("mock create failure".into()));
        }
        self.specs.lock().push(spec);
        self.load_streamlets.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn load(&self) -> LoadReport {
        LoadReport {
            streamlets: self.load_streamlets.load(Ordering::SeqCst),
            append_bytes_per_sec: 0.0,
            in_flight_bytes: 0,
            quarantined: self.quarantined.load(Ordering::SeqCst),
        }
    }

    fn streamlet_rows(&self, streamlet: StreamletId) -> Option<u64> {
        self.live_rows.lock().get(&streamlet).copied()
    }

    fn notify_schema_version(&self, table: TableId, version: u32) {
        self.schema_notices.lock().push((table, version));
    }

    fn gc_fragments(
        &self,
        _table: TableId,
        _streamlet: StreamletId,
        ordinals: Vec<u32>,
    ) -> VortexResult<Vec<u32>> {
        Ok(ordinals)
    }

    fn revoke_streamlet(&self, streamlet: StreamletId) {
        self.revoked.lock().push(streamlet);
    }

    fn finalize_streamlet_ctl(&self, _streamlet: StreamletId) -> VortexResult<Vec<FragmentDelta>> {
        Ok(Vec::new())
    }
}

struct Rig {
    sms: Arc<SmsTask>,
    fleet: StorageFleet,
    clock: SimClock,
    tt: TrueTime,
    servers: Vec<Arc<MockServer>>,
}

fn rig_with_servers(n: usize) -> Rig {
    let clock = SimClock::new(1_000_000);
    let tt = TrueTime::simulated(clock.clone(), 100, 0);
    let fleet = StorageFleet::with_mem_clusters(2, WriteProfile::instant(), 7);
    let store = MetaStore::new(tt.clone());
    let ids = Arc::new(IdGen::new(1));
    let sms = SmsTask::new(
        SmsConfig::new(
            vortex_common::ids::SmsTaskId::from_raw(0),
            ClusterId::from_raw(0),
        ),
        store,
        fleet.clone(),
        tt.clone(),
        ids,
        None,
    );
    let mut servers = vec![];
    for i in 0..n {
        let s = MockServer::new(100 + i as u64, (i % 2) as u64);
        sms.register_server(s.clone());
        servers.push(s);
    }
    Rig {
        sms,
        fleet,
        clock,
        tt,
        servers,
    }
}

fn simple_schema() -> Schema {
    Schema::new(vec![
        Field::required("k", FieldType::Int64),
        Field::required("v", FieldType::String),
    ])
}

#[test]
fn create_table_assigns_clusters_and_rejects_duplicates() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("sales", sales_schema()).unwrap();
    assert_ne!(t.primary, t.secondary);
    assert!(r.sms.create_table("sales", sales_schema()).is_err());
    let by_name = r.sms.get_table_by_name("sales").unwrap();
    assert_eq!(by_name.table, t.table);
    assert!(r.sms.get_table_by_name("nope").is_err());
}

#[test]
fn create_stream_hands_out_writable_streamlet() {
    let r = rig_with_servers(2);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let h = r
        .sms
        .create_stream(t.table, StreamType::Unbuffered)
        .unwrap();
    assert_eq!(h.streamlet.state, StreamletState::Writable);
    assert_eq!(h.streamlet.ordinal, 0);
    assert_eq!(h.streamlet.first_stream_row, 0);
    assert_eq!(h.schema.version, 1);
    // The chosen server got a create_streamlet instruction.
    let total_specs: usize = r.servers.iter().map(|s| s.specs.lock().len()).sum();
    assert_eq!(total_specs, 1);
}

#[test]
fn placement_prefers_least_loaded_server() {
    let r = rig_with_servers(2);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    // Bias server 0 to be busy.
    r.servers[0].load_streamlets.store(100, Ordering::SeqCst);
    for _ in 0..4 {
        r.sms
            .create_stream(t.table, StreamType::Unbuffered)
            .unwrap();
    }
    assert!(r.servers[1].specs.lock().len() >= 3);
}

#[test]
fn quarantined_server_gets_no_streamlets() {
    let r = rig_with_servers(2);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    r.servers[0].quarantined.store(true, Ordering::SeqCst);
    for _ in 0..3 {
        r.sms
            .create_stream(t.table, StreamType::Unbuffered)
            .unwrap();
    }
    assert_eq!(r.servers[0].specs.lock().len(), 0);
    assert_eq!(r.servers[1].specs.lock().len(), 3);
}

#[test]
fn failed_create_retries_on_another_server() {
    let r = rig_with_servers(2);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    r.servers[0].fail_create.store(true, Ordering::SeqCst);
    r.servers[1].fail_create.store(false, Ordering::SeqCst);
    let h = r
        .sms
        .create_stream(t.table, StreamType::Unbuffered)
        .unwrap();
    assert_eq!(h.server.server_id(), r.servers[1].id);
}

#[test]
fn schema_update_notifies_servers_and_bumps_version() {
    let r = rig_with_servers(2);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let evolved = t
        .schema
        .evolve_add_column(Field::nullable("extra", FieldType::Json))
        .unwrap();
    let updated = r.sms.update_schema(t.table, evolved).unwrap();
    assert_eq!(updated.schema.version, 2);
    for s in &r.servers {
        assert_eq!(s.schema_notices.lock().as_slice(), &[(t.table, 2)]);
    }
    // Downgrades rejected.
    assert!(r.sms.update_schema(t.table, simple_schema()).is_err());
}

/// Writes a WOS fragment with `n` rows directly to both replicas,
/// mirroring what a Stream Server does, so reconciliation has real log
/// files to inspect. Returns the logical size.
#[allow(clippy::too_many_arguments)]
fn write_fragment(
    r: &Rig,
    table: TableId,
    streamlet: StreamletId,
    ordinal: u32,
    first_row: u64,
    n: usize,
    key: &vortex_common::crypt::Key,
    clusters: [ClusterId; 2],
    commit: bool,
) -> u64 {
    let cfg = FragmentConfig {
        streamlet,
        fragment: FragmentId::from_raw(50_000 + ordinal as u64 + streamlet.raw() * 100),
        ordinal,
        schema_version: 1,
        key: key.clone(),
    };
    let (mut w, mut bytes) = FragmentWriter::new(cfg, first_row, vec![], r.tt.record_timestamp());
    let rows = RowSet::new(
        (0..n)
            .map(|i| {
                Row::insert(vec![
                    Value::Int64((first_row + i as u64) as i64),
                    Value::String(format!("v{}", first_row + i as u64)),
                ])
            })
            .collect(),
    );
    bytes.extend(w.data_block(&rows.rows, r.tt.record_timestamp()).unwrap());
    if commit {
        bytes.extend(w.commit_record(r.tt.record_timestamp()).unwrap());
    }
    let path = wos_path(table, streamlet, ordinal);
    for c in clusters {
        r.fleet
            .get(c)
            .unwrap()
            .append(&path, &bytes, Timestamp(0))
            .unwrap();
    }
    w.logical_size()
}

#[test]
fn reconcile_determines_length_and_finalizes() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let h = r
        .sms
        .create_stream(t.table, StreamType::Unbuffered)
        .unwrap();
    let key = t.encryption_key();
    write_fragment(
        &r,
        t.table,
        h.streamlet.streamlet,
        0,
        0,
        10,
        &key,
        h.streamlet.clusters,
        true,
    );
    write_fragment(
        &r,
        t.table,
        h.streamlet.streamlet,
        1,
        10,
        5,
        &key,
        h.streamlet.clusters,
        true,
    );

    let m = r
        .sms
        .reconcile_streamlet(t.table, h.streamlet.streamlet)
        .unwrap();
    assert_eq!(m.state, StreamletState::Finalized);
    assert_eq!(m.row_count, 15);
    assert_eq!(m.known_fragments, 2);
    assert!(m.epoch > h.streamlet.epoch);
    // Idempotent.
    let m2 = r
        .sms
        .reconcile_streamlet(t.table, h.streamlet.streamlet)
        .unwrap();
    assert_eq!(m2.row_count, 15);
    // Fragments recorded with authoritative sizes.
    let frags = r.sms.list_fragments(t.table, r.sms.read_snapshot());
    let wos: Vec<_> = frags
        .iter()
        .filter(|f| f.kind == FragmentKind::Wos)
        .collect();
    assert_eq!(wos.len(), 2);
    assert!(wos.iter().all(|f| f.state == FragmentState::Finalized));
    assert_eq!(wos.iter().map(|f| f.row_count).sum::<u64>(), 15);
}

#[test]
fn reconcile_with_diverged_replicas_takes_common_prefix() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let h = r
        .sms
        .create_stream(t.table, StreamType::Unbuffered)
        .unwrap();
    let key = t.encryption_key();
    let slid = h.streamlet.streamlet;
    // Both replicas share 8 rows; replica 0 has an extra *unacked* block.
    write_fragment(&r, t.table, slid, 0, 0, 8, &key, h.streamlet.clusters, true);
    let cfg = FragmentConfig {
        streamlet: slid,
        fragment: FragmentId::from_raw(60_000),
        ordinal: 1,
        schema_version: 1,
        key: key.clone(),
    };
    let (mut w, mut frag1) = FragmentWriter::new(cfg, 8, vec![], r.tt.record_timestamp());
    let rows = RowSet::new(vec![Row::insert(vec![
        Value::Int64(8),
        Value::String("divergent".into()),
    ])]);
    let block = w.data_block(&rows.rows, r.tt.record_timestamp()).unwrap();
    // Replica 0 gets header+block; replica 1 gets only the header.
    let header_only = frag1.clone();
    frag1.extend(block);
    let path = wos_path(t.table, slid, 1);
    r.fleet
        .get(h.streamlet.clusters[0])
        .unwrap()
        .append(&path, &frag1, Timestamp(0))
        .unwrap();
    r.fleet
        .get(h.streamlet.clusters[1])
        .unwrap()
        .append(&path, &header_only, Timestamp(0))
        .unwrap();

    let m = r.sms.reconcile_streamlet(t.table, slid).unwrap();
    // The divergent (single-replica, unacked) row is excluded.
    assert_eq!(m.row_count, 8);
}

#[test]
fn reconcile_with_one_cluster_down_uses_surviving_replica() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let h = r
        .sms
        .create_stream(t.table, StreamType::Unbuffered)
        .unwrap();
    let key = t.encryption_key();
    write_fragment(
        &r,
        t.table,
        h.streamlet.streamlet,
        0,
        0,
        12,
        &key,
        h.streamlet.clusters,
        true,
    );
    // Take down the second replica cluster.
    r.fleet
        .get(h.streamlet.clusters[1])
        .unwrap()
        .faults()
        .set_unavailable(true);
    let m = r
        .sms
        .reconcile_streamlet(t.table, h.streamlet.streamlet)
        .unwrap();
    assert_eq!(m.row_count, 12);
}

#[test]
fn rotate_streamlet_continues_stream_offsets() {
    let r = rig_with_servers(2);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let h = r
        .sms
        .create_stream(t.table, StreamType::Unbuffered)
        .unwrap();
    let key = t.encryption_key();
    write_fragment(
        &r,
        t.table,
        h.streamlet.streamlet,
        0,
        0,
        20,
        &key,
        h.streamlet.clusters,
        true,
    );
    let h2 = r.sms.rotate_streamlet(t.table, h.stream.stream).unwrap();
    assert_eq!(h2.streamlet.ordinal, 1);
    assert_eq!(h2.streamlet.first_stream_row, 20);
    assert_ne!(h2.streamlet.streamlet, h.streamlet.streamlet);
    // The old streamlet is finalized.
    let old = r.sms.get_streamlet(t.table, h.streamlet.streamlet).unwrap();
    assert_eq!(old.state, StreamletState::Finalized);
}

#[test]
fn finalized_stream_cannot_rotate() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let h = r
        .sms
        .create_stream(t.table, StreamType::Unbuffered)
        .unwrap();
    r.sms.finalize_stream(t.table, h.stream.stream).unwrap();
    assert!(matches!(
        r.sms.rotate_streamlet(t.table, h.stream.stream),
        Err(VortexError::StreamFinalized(_))
    ));
}

fn heartbeat_one_fragment(
    r: &Rig,
    h: &crate::sms::StreamHandle,
    fragment: FragmentId,
    rows: u64,
    finalized: bool,
) {
    let delta = StreamletDelta {
        table: h.table,
        streamlet: h.streamlet.streamlet,
        fragments: vec![FragmentDelta {
            fragment,
            ordinal: 0,
            first_row: 0,
            row_count: rows,
            committed_size: 1000,
            finalized,
            stats: vec![],
        }],
        row_count: rows,
        max_flush_row: None,
        finalized: false,
    };
    r.sms.heartbeat(&[delta]).unwrap();
}

#[test]
fn heartbeat_registers_fragments_and_updates_counts() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let h = r
        .sms
        .create_stream(t.table, StreamType::Unbuffered)
        .unwrap();
    heartbeat_one_fragment(&r, &h, FragmentId::from_raw(900), 7, false);
    let sl = r.sms.get_streamlet(t.table, h.streamlet.streamlet).unwrap();
    assert_eq!(sl.row_count, 7);
    let frags = r.sms.list_fragments(t.table, r.sms.read_snapshot());
    assert_eq!(frags.len(), 1);
    assert_eq!(frags[0].state, FragmentState::Active);
    // Second heartbeat finalizes it.
    heartbeat_one_fragment(&r, &h, FragmentId::from_raw(900), 9, true);
    let frags = r.sms.list_fragments(t.table, r.sms.read_snapshot());
    assert_eq!(frags[0].state, FragmentState::Finalized);
    assert_eq!(frags[0].row_count, 9);
    let sl = r.sms.get_streamlet(t.table, h.streamlet.streamlet).unwrap();
    assert_eq!(sl.known_fragments, 1);
}

#[test]
fn heartbeat_for_unknown_streamlet_flags_orphan() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let report = StreamletDelta {
        table: t.table,
        streamlet: StreamletId::from_raw(424242),
        fragments: vec![],
        row_count: 0,
        max_flush_row: None,
        finalized: false,
    };
    let resp = r.sms.heartbeat(&[report]).unwrap();
    assert_eq!(resp.unknown_streamlets, vec![StreamletId::from_raw(424242)]);
}

#[test]
fn read_set_includes_finalized_fragments_and_tail() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let h = r
        .sms
        .create_stream(t.table, StreamType::Unbuffered)
        .unwrap();
    heartbeat_one_fragment(&r, &h, FragmentId::from_raw(901), 5, true);
    let rs = r
        .sms
        .list_read_fragments(t.table, r.sms.read_snapshot())
        .unwrap();
    assert_eq!(rs.fragments.len(), 1);
    assert_eq!(rs.tails.len(), 1);
    let tail = &rs.tails[0];
    assert_eq!(tail.from_ordinal, 1);
    assert_eq!(tail.from_row, 5);
    assert_eq!(rs.fragments[0].meta.row_count, 5);
}

#[test]
fn pending_stream_invisible_until_committed() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let h = r.sms.create_stream(t.table, StreamType::Pending).unwrap();
    let key = t.encryption_key();
    write_fragment(
        &r,
        t.table,
        h.streamlet.streamlet,
        0,
        0,
        4,
        &key,
        h.streamlet.clusters,
        true,
    );
    heartbeat_one_fragment(&r, &h, FragmentId::from_raw(902), 4, true);
    let before = r
        .sms
        .list_read_fragments(t.table, r.sms.read_snapshot())
        .unwrap();
    assert!(before.fragments.is_empty(), "pending data must be hidden");
    assert!(before.tails.is_empty());

    let commit_ts = r
        .sms
        .batch_commit_streams(t.table, &[h.stream.stream])
        .unwrap();
    // Before the commit timestamp: still hidden.
    let at_old = r
        .sms
        .list_read_fragments(t.table, commit_ts.minus_micros(1))
        .unwrap();
    assert!(at_old.fragments.is_empty());
    // After: visible, with a nontrivial visible_from at or before the
    // commit timestamp.
    let after = r
        .sms
        .list_read_fragments(t.table, r.sms.read_snapshot())
        .unwrap();
    assert_eq!(after.fragments.len(), 1);
    let vf = after.fragments[0].visibility.visible_from;
    assert!(vf > Timestamp::MIN && vf <= commit_ts);
}

#[test]
fn batch_commit_is_atomic_across_streams() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let key = t.encryption_key();
    let mut streams = vec![];
    for _ in 0..3 {
        let h = r.sms.create_stream(t.table, StreamType::Pending).unwrap();
        write_fragment(
            &r,
            t.table,
            h.streamlet.streamlet,
            0,
            0,
            2,
            &key,
            h.streamlet.clusters,
            true,
        );
        streams.push(h.stream.stream);
    }
    r.sms.batch_commit_streams(t.table, &streams).unwrap();
    let metas: Vec<_> = streams
        .iter()
        .map(|s| r.sms.get_stream(t.table, *s).unwrap())
        .collect();
    let ts0 = metas[0].committed_at.unwrap();
    assert!(
        metas.iter().all(|m| m.committed_at == Some(ts0)),
        "all streams commit at one timestamp"
    );
    // Committing a non-pending stream fails.
    let h = r
        .sms
        .create_stream(t.table, StreamType::Unbuffered)
        .unwrap();
    assert!(r
        .sms
        .batch_commit_streams(t.table, &[h.stream.stream])
        .is_err());
}

#[test]
fn flush_stream_validates_and_advances_watermark() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let h = r.sms.create_stream(t.table, StreamType::Buffered).unwrap();
    // Mock server reports 10 live rows.
    r.servers[0]
        .live_rows
        .lock()
        .insert(h.streamlet.streamlet, 10);
    r.sms.flush_stream(t.table, h.stream.stream, 7).unwrap();
    // Idempotent + monotone.
    r.sms.flush_stream(t.table, h.stream.stream, 7).unwrap();
    r.sms.flush_stream(t.table, h.stream.stream, 5).unwrap();
    let m = r.sms.get_stream(t.table, h.stream.stream).unwrap();
    assert_eq!(m.flushed_row, 7);
    // Beyond the live length: error (§4.2.3).
    assert!(r.sms.flush_stream(t.table, h.stream.stream, 11).is_err());
    // Unbuffered streams cannot be flushed.
    let h2 = r
        .sms
        .create_stream(t.table, StreamType::Unbuffered)
        .unwrap();
    assert!(r.sms.flush_stream(t.table, h2.stream.stream, 0).is_err());
}

#[test]
fn buffered_visibility_limits_reads_to_flush_watermark() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let h = r.sms.create_stream(t.table, StreamType::Buffered).unwrap();
    r.servers[0]
        .live_rows
        .lock()
        .insert(h.streamlet.streamlet, 10);
    heartbeat_one_fragment(&r, &h, FragmentId::from_raw(903), 10, true);
    r.sms.flush_stream(t.table, h.stream.stream, 6).unwrap();
    let rs = r
        .sms
        .list_read_fragments(t.table, r.sms.read_snapshot())
        .unwrap();
    assert_eq!(rs.fragments.len(), 1);
    assert_eq!(rs.fragments[0].visibility.flush_limit, Some(6));
}

fn make_ros_meta(_r: &Rig, table: TableId, id: u64, rows: u64) -> FragmentMeta {
    FragmentMeta {
        fragment: FragmentId::from_raw(id),
        table,
        streamlet: StreamletId::from_raw(0),
        kind: FragmentKind::Ros,
        ordinal: 0,
        first_row: 0,
        row_count: rows,
        committed_size: 100,
        state: FragmentState::Finalized,
        created_at: Timestamp::MIN,
        deleted_at: Timestamp::MAX,
        clusters: [ClusterId::from_raw(0), ClusterId::from_raw(1)],
        path: format!("ros/t/b{id}"),
        stats: vec![],
        masks: vec![],
        partition_key: None,
        level: 1,
    }
    .clone()
}

#[test]
fn conversion_commit_swaps_visibility_atomically() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let h = r
        .sms
        .create_stream(t.table, StreamType::Unbuffered)
        .unwrap();
    let key = t.encryption_key();
    write_fragment(
        &r,
        t.table,
        h.streamlet.streamlet,
        0,
        0,
        10,
        &key,
        h.streamlet.clusters,
        true,
    );
    r.sms
        .reconcile_streamlet(t.table, h.streamlet.streamlet)
        .unwrap();
    let wos_frag = r
        .sms
        .list_fragments(t.table, r.sms.read_snapshot())
        .into_iter()
        .find(|f| f.kind == FragmentKind::Wos)
        .unwrap();
    let before_ts = r.sms.read_snapshot();

    let ros = make_ros_meta(&r, t.table, 7000, 10);
    let commit_ts = r
        .sms
        .commit_conversion(
            t.table,
            &[(wos_frag.fragment, wos_frag.masks.len())],
            vec![ros],
            true,
        )
        .unwrap();

    // At the old snapshot: WOS only.
    let old = r.sms.list_read_fragments(t.table, before_ts).unwrap();
    let kinds: Vec<_> = old.fragments.iter().map(|f| f.meta.kind).collect();
    assert_eq!(kinds, vec![FragmentKind::Wos]);
    // After: ROS only.
    let new = r
        .sms
        .list_read_fragments(t.table, r.sms.read_snapshot())
        .unwrap();
    let kinds: Vec<_> = new.fragments.iter().map(|f| f.meta.kind).collect();
    assert_eq!(kinds, vec![FragmentKind::Ros]);
    assert!(commit_ts > before_ts);
    // Double conversion of the same source conflicts.
    let ros2 = make_ros_meta(&r, t.table, 7001, 10);
    assert!(r
        .sms
        .commit_conversion(
            t.table,
            &[(wos_frag.fragment, wos_frag.masks.len())],
            vec![ros2],
            true
        )
        .is_err());
}

#[test]
fn optimizer_yields_to_dml() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let h = r
        .sms
        .create_stream(t.table, StreamType::Unbuffered)
        .unwrap();
    let key = t.encryption_key();
    write_fragment(
        &r,
        t.table,
        h.streamlet.streamlet,
        0,
        0,
        5,
        &key,
        h.streamlet.clusters,
        true,
    );
    r.sms
        .reconcile_streamlet(t.table, h.streamlet.streamlet)
        .unwrap();
    let wos_frag = r
        .sms
        .list_fragments(t.table, r.sms.read_snapshot())
        .into_iter()
        .find(|f| f.kind == FragmentKind::Wos)
        .unwrap();

    let ticket = r.sms.begin_dml(t.table).unwrap();
    assert!(r.sms.dml_active(t.table));
    let ros = make_ros_meta(&r, t.table, 7100, 5);
    // Merged conversion yields.
    assert!(matches!(
        r.sms.commit_conversion(
            t.table,
            &[(wos_frag.fragment, wos_frag.masks.len())],
            vec![ros.clone()],
            true
        ),
        Err(VortexError::Unavailable(_))
    ));
    // Stable 1:1 conversion does not (§7.3).
    r.sms
        .commit_conversion(
            t.table,
            &[(wos_frag.fragment, wos_frag.masks.len())],
            vec![ros],
            false,
        )
        .unwrap();
    r.sms.end_dml(t.table, ticket).unwrap();
    assert!(!r.sms.dml_active(t.table));
}

#[test]
fn nested_dml_lock_counts() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let first = r.sms.begin_dml(t.table).unwrap();
    let second = r.sms.begin_dml(t.table).unwrap();
    r.sms.end_dml(t.table, first).unwrap();
    assert!(r.sms.dml_active(t.table), "still one statement running");
    r.sms.end_dml(t.table, second).unwrap();
    assert!(!r.sms.dml_active(t.table));
}

#[test]
fn dml_commit_applies_versioned_masks() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let h = r
        .sms
        .create_stream(t.table, StreamType::Unbuffered)
        .unwrap();
    let key = t.encryption_key();
    write_fragment(
        &r,
        t.table,
        h.streamlet.streamlet,
        0,
        0,
        10,
        &key,
        h.streamlet.clusters,
        true,
    );
    r.sms
        .reconcile_streamlet(t.table, h.streamlet.streamlet)
        .unwrap();
    let frag = r
        .sms
        .list_fragments(t.table, r.sms.read_snapshot())
        .into_iter()
        .find(|f| f.kind == FragmentKind::Wos)
        .unwrap();
    let before = r.sms.read_snapshot();

    let mask = DeletionMask::from_range(2, 5);
    r.sms
        .commit_dml(t.table, &[(frag.fragment, mask)], &[], &[])
        .unwrap();

    // Old snapshot: no mask.
    let old = r.sms.list_read_fragments(t.table, before).unwrap();
    assert!(old.fragments[0].mask.is_empty());
    // New snapshot: mask applies.
    let new = r
        .sms
        .list_read_fragments(t.table, r.sms.read_snapshot())
        .unwrap();
    assert_eq!(new.fragments[0].mask.deleted_count(), 3);
}

#[test]
fn tail_mask_maps_to_fragment_on_heartbeat() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let h = r
        .sms
        .create_stream(t.table, StreamType::Unbuffered)
        .unwrap();
    // DML deletes streamlet tail rows [3, 8) before any heartbeat.
    r.sms
        .commit_dml(
            t.table,
            &[],
            &[(h.streamlet.streamlet, DeletionMask::from_range(3, 8))],
            &[],
        )
        .unwrap();
    // Now a heartbeat reports fragment 0 with rows [0, 10) finalized.
    heartbeat_one_fragment(&r, &h, FragmentId::from_raw(905), 10, true);
    let rs = r
        .sms
        .list_read_fragments(t.table, r.sms.read_snapshot())
        .unwrap();
    assert_eq!(rs.fragments.len(), 1);
    assert_eq!(
        rs.fragments[0].mask.ranges(),
        &[(3, 8)],
        "streamlet tail mask mapped onto the fragment"
    );
}

/// A table with one sealed, reconciled 10-row WOS fragment.
fn one_sealed_fragment(r: &Rig) -> (TableId, FragmentMeta) {
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let h = r
        .sms
        .create_stream(t.table, StreamType::Unbuffered)
        .unwrap();
    let (key, clusters) = (t.encryption_key(), h.streamlet.clusters);
    let streamlet = h.streamlet.streamlet;
    write_fragment(r, t.table, streamlet, 0, 0, 10, &key, clusters, true);
    r.sms.reconcile_streamlet(t.table, streamlet).unwrap();
    let listed = r.sms.list_fragments(t.table, r.sms.read_snapshot());
    let wos = listed.into_iter().find(|f| f.kind == FragmentKind::Wos);
    (t.table, wos.unwrap())
}

/// The kinds and deleted-row counts a fresh read set lists.
fn listed_masks(r: &Rig, t: TableId) -> Vec<(FragmentKind, u64)> {
    let rs = r.sms.list_read_fragments(t, r.sms.read_snapshot()).unwrap();
    let of = |f: &crate::readset::FragmentReadSpec| (f.meta.kind, f.mask.deleted_count());
    rs.fragments.iter().map(of).collect()
}

#[test]
fn a_one_to_one_commit_conflicts_with_a_mask_it_did_not_see() {
    let r = rig_with_servers(1);
    let (t, wos) = one_sealed_fragment(&r);
    // The conversion read its source with no mask; a DML masks a row.
    let row = DeletionMask::from_range(3, 4);
    r.sms
        .commit_dml(t, &[(wos.fragment, row)], &[], &[])
        .unwrap();
    // The 1:1 replacement carries the masks it saw: none.
    let ros = FragmentMeta {
        level: 0,
        ..make_ros_meta(&r, t, 7200, 10)
    };
    let err = r
        .sms
        .commit_conversion(t, &[(wos.fragment, 0)], vec![ros], false)
        .unwrap_err();
    assert!(matches!(err, VortexError::TxnConflict(_)), "{err}");
    assert_eq!(listed_masks(&r, t), vec![(FragmentKind::Wos, 1)]);
}

#[test]
fn a_mask_on_a_fragment_converted_since_fails() {
    let r = rig_with_servers(1);
    let (t, wos) = one_sealed_fragment(&r);
    // A statement resolved its rows to the WOS fragment; a 1:1 conversion
    // replaces it before the statement commits.
    let ros = FragmentMeta {
        level: 0,
        ..make_ros_meta(&r, t, 7300, 10)
    };
    (r.sms)
        .commit_conversion(t, &[(wos.fragment, 0)], vec![ros], false)
        .unwrap();
    let row = DeletionMask::from_range(3, 4);
    let err = r
        .sms
        .commit_dml(t, &[(wos.fragment, row)], &[], &[])
        .unwrap_err();
    assert!(matches!(err, VortexError::NotFound(_)), "{err}");
    assert!(
        !err.is_retryable(),
        "the statement re-resolves, not the channel"
    );
    assert_eq!(listed_masks(&r, t), vec![(FragmentKind::Ros, 0)]);
}

#[test]
fn a_tail_mask_over_rows_converted_since_fails() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap().table;
    let h = r.sms.create_stream(t, StreamType::Unbuffered).unwrap();
    let streamlet = h.streamlet.streamlet;
    // The statement's snapshot has all 30 rows in the streamlet's tail.
    let rs = r.sms.list_read_fragments(t, r.sms.read_snapshot()).unwrap();
    assert_eq!((rs.fragments.len(), rs.tails[0].from_row), (0, 0));
    // Then a heartbeat seals them and a 1:1 conversion replaces them.
    heartbeat_one_fragment(&r, &h, FragmentId::from_raw(906), 30, true);
    let ros = FragmentMeta {
        streamlet,
        level: 0,
        ..make_ros_meta(&r, t, 7400, 30)
    };
    (r.sms)
        .commit_conversion(t, &[(FragmentId::from_raw(906), 0)], vec![ros], false)
        .unwrap();
    let tail = DeletionMask::from_range(0, 30);
    let err = r
        .sms
        .commit_dml(t, &[], &[(streamlet, tail)], &[])
        .unwrap_err();
    assert!(matches!(err, VortexError::NotFound(_)), "{err}");
    assert_eq!(listed_masks(&r, t), vec![(FragmentKind::Ros, 0)]);
    let sl = r.sms.get_streamlet(t, streamlet).unwrap();
    assert!(sl.masks.is_empty(), "nothing of the statement committed");
}

#[test]
fn gc_deletes_files_after_grace() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let h = r
        .sms
        .create_stream(t.table, StreamType::Unbuffered)
        .unwrap();
    let key = t.encryption_key();
    write_fragment(
        &r,
        t.table,
        h.streamlet.streamlet,
        0,
        0,
        5,
        &key,
        h.streamlet.clusters,
        true,
    );
    r.sms
        .reconcile_streamlet(t.table, h.streamlet.streamlet)
        .unwrap();
    let wos_frag = r
        .sms
        .list_fragments(t.table, r.sms.read_snapshot())
        .into_iter()
        .find(|f| f.kind == FragmentKind::Wos)
        .unwrap();
    let ros = make_ros_meta(&r, t.table, 7200, 5);
    r.sms
        .commit_conversion(
            t.table,
            &[(wos_frag.fragment, wos_frag.masks.len())],
            vec![ros],
            true,
        )
        .unwrap();
    // Within grace: nothing GC'd.
    assert_eq!(r.sms.run_gc(t.table).unwrap(), 0);
    assert!(r
        .fleet
        .get(h.streamlet.clusters[0])
        .unwrap()
        .exists(&wos_frag.path));
    // Advance past grace (10 virtual seconds).
    r.clock.advance(20_000_000);
    assert_eq!(r.sms.run_gc(t.table).unwrap(), 1);
    assert!(!r
        .fleet
        .get(h.streamlet.clusters[0])
        .unwrap()
        .exists(&wos_frag.path));
    // Metadata gone too.
    let frags = r.sms.list_fragments(t.table, r.sms.read_snapshot());
    assert!(frags.iter().all(|f| f.fragment != wos_frag.fragment));
}

#[test]
fn failover_swaps_clusters() {
    let r = rig_with_servers(2);
    let t = r.sms.create_table("t", simple_schema()).unwrap();
    let flipped = r.sms.fail_over_table(t.table).unwrap();
    assert_eq!(flipped.primary, t.secondary);
    assert_eq!(flipped.secondary, t.primary);
}

#[test]
fn double_ownership_stays_correct_via_txns() {
    // Two SMS tasks over the SAME metastore both believe they own the
    // table (the Slicer hazard, §5.2.1). Concurrent conversion commits of
    // the same source fragment: exactly one wins.
    let clock = SimClock::new(1_000_000);
    let tt = TrueTime::simulated(clock.clone(), 100, 0);
    let fleet = StorageFleet::with_mem_clusters(2, WriteProfile::instant(), 7);
    let store = MetaStore::new(tt.clone());
    let ids = Arc::new(IdGen::new(1));
    let mk = |task_id: u64| {
        SmsTask::new(
            SmsConfig::new(
                vortex_common::ids::SmsTaskId::from_raw(task_id),
                ClusterId::from_raw(0),
            ),
            Arc::clone(&store),
            fleet.clone(),
            tt.clone(),
            Arc::clone(&ids),
            None,
        )
    };
    let sms_a = mk(0);
    let sms_b = mk(1);
    let server = MockServer::new(100, 0);
    sms_a.register_server(server.clone());
    sms_b.register_server(server);

    let t = sms_a.create_table("t", simple_schema()).unwrap();
    let h = sms_a
        .create_stream(t.table, StreamType::Unbuffered)
        .unwrap();
    let key = t.encryption_key();
    // Write directly (mock server doesn't).
    let cfg = FragmentConfig {
        streamlet: h.streamlet.streamlet,
        fragment: FragmentId::from_raw(80_000),
        ordinal: 0,
        schema_version: 1,
        key: key.clone(),
    };
    let (mut w, mut bytes) = FragmentWriter::new(cfg, 0, vec![], tt.record_timestamp());
    let rows = RowSet::new(vec![Row::insert(vec![
        Value::Int64(1),
        Value::String("x".into()),
    ])]);
    bytes.extend(w.data_block(&rows.rows, tt.record_timestamp()).unwrap());
    bytes.extend(w.commit_record(tt.record_timestamp()).unwrap());
    let path = wos_path(t.table, h.streamlet.streamlet, 0);
    for c in h.streamlet.clusters {
        fleet
            .get(c)
            .unwrap()
            .append(&path, &bytes, Timestamp(0))
            .unwrap();
    }
    sms_a
        .reconcile_streamlet(t.table, h.streamlet.streamlet)
        .unwrap();
    let frag = sms_a
        .list_fragments(t.table, sms_a.read_snapshot())
        .into_iter()
        .find(|f| f.kind == FragmentKind::Wos)
        .unwrap();

    // Both tasks race to convert the same fragment.
    let ros_a = FragmentMeta {
        fragment: FragmentId::from_raw(81_000),
        ..make_meta_template(t.table)
    };
    let ros_b = FragmentMeta {
        fragment: FragmentId::from_raw(81_001),
        ..make_meta_template(t.table)
    };
    let ra = sms_a.commit_conversion(
        t.table,
        &[(frag.fragment, frag.masks.len())],
        vec![ros_a],
        true,
    );
    let rb = sms_b.commit_conversion(
        t.table,
        &[(frag.fragment, frag.masks.len())],
        vec![ros_b],
        true,
    );
    assert!(
        ra.is_ok() ^ rb.is_ok(),
        "exactly one conversion must win: a={ra:?} b={rb:?}"
    );
    // Exactly one live ROS fragment results.
    let live_ros: Vec<_> = sms_a
        .list_fragments(t.table, sms_a.read_snapshot())
        .into_iter()
        .filter(|f| f.kind == FragmentKind::Ros && f.state != FragmentState::Deleted)
        .collect();
    assert_eq!(live_ros.len(), 1);
}

fn make_meta_template(table: TableId) -> FragmentMeta {
    FragmentMeta {
        fragment: FragmentId::from_raw(0),
        table,
        streamlet: StreamletId::from_raw(0),
        kind: FragmentKind::Ros,
        ordinal: 0,
        first_row: 0,
        row_count: 1,
        committed_size: 10,
        state: FragmentState::Finalized,
        created_at: Timestamp::MIN,
        deleted_at: Timestamp::MAX,
        clusters: [ClusterId::from_raw(0), ClusterId::from_raw(1)],
        path: "ros/race".into(),
        stats: vec![],
        masks: vec![],
        partition_key: None,
        level: 1,
    }
}

/// One streamlet's delta: `(fragment id, ordinal, rows, finalized)` per
/// fragment, laid end to end from row 0.
fn delta_of(h: &crate::sms::StreamHandle, frags: &[(u64, u32, u64, bool)]) -> StreamletDelta {
    let mut first_row = 0;
    let fragments = frags.iter().map(|&(id, ordinal, row_count, finalized)| {
        let delta = FragmentDelta {
            fragment: FragmentId::from_raw(id),
            ordinal,
            first_row,
            row_count,
            committed_size: 100 * row_count,
            finalized,
            stats: vec![],
        };
        first_row += row_count;
        delta
    });
    StreamletDelta {
        table: h.table,
        streamlet: h.streamlet.streamlet,
        fragments: fragments.collect(),
        row_count: frags.iter().map(|f| f.2).sum(),
        max_flush_row: None,
        finalized: false,
    }
}

/// Converts the WOS fragments `ids` of `table` into one ROS block `ros`.
fn convert(r: &Rig, table: TableId, ids: &[u64], ros: u64) {
    let all = r.sms.list_fragments(table, r.sms.read_snapshot());
    let sources: Vec<(FragmentId, usize)> = all
        .iter()
        .filter(|f| ids.contains(&f.fragment.raw()))
        .map(|f| (f.fragment, f.masks.len()))
        .collect();
    assert_eq!(sources.len(), ids.len());
    let rows = 10 * ids.len() as u64;
    r.sms
        .commit_conversion(
            table,
            &sources,
            vec![make_ros_meta(r, table, ros, rows)],
            false,
        )
        .unwrap();
}

/// What a `ReadSet` says, flattened for comparison: per spec and per tail
/// the fields a reader acts on.
type SpecView = (u64, Vec<(u64, u64)>, Timestamp, Option<u64>, u64, u64);
type TailView = (u64, u32, u64, Vec<(u64, u64)>, Option<u64>, u64, u64);

fn view_of(rs: &crate::readset::ReadSet) -> (Vec<SpecView>, Vec<TailView>) {
    let specs = rs.fragments.iter().map(|f| {
        (
            f.meta.fragment.raw(),
            f.mask.ranges().to_vec(),
            f.visibility.visible_from,
            f.visibility.flush_limit,
            f.stream.raw(),
            f.streamlet_first_stream_row,
        )
    });
    let tails = rs.tails.iter().map(|t| {
        (
            t.streamlet.raw(),
            t.from_ordinal,
            t.from_row,
            t.mask.ranges().to_vec(),
            t.visibility.flush_limit,
            t.epoch,
            t.expected_rows,
        )
    });
    (specs.collect(), tails.collect())
}

/// The read set computed the way `list_read_fragments` used to: from the
/// diagnostics listings, with every tail's start found by its own pass
/// over all the table's fragments.
fn oracle_view(r: &Rig, table: TableId, snapshot: Timestamp) -> (Vec<SpecView>, Vec<TailView>) {
    let store = r.sms.store();
    let frags = r.sms.list_fragments(table, snapshot);
    let streamlets: Vec<StreamletMeta> = meta::scan(&store, table, snapshot)
        .collect::<VortexResult<_>>()
        .unwrap();
    let flush_limit = |sl: &StreamletMeta| {
        let stream: StreamMeta = meta::load(&store, (table, sl.stream), snapshot).unwrap();
        (stream.stype == StreamType::Buffered)
            .then(|| stream.flushed_row.saturating_sub(sl.first_stream_row))
    };
    let mut specs: Vec<(SpecView, (u64, u32))> = Vec::new();
    for f in frags.iter().filter(|f| f.visible_at(snapshot)) {
        let mask = f.mask_at(snapshot).ranges().to_vec();
        let id = f.fragment.raw();
        if f.kind == FragmentKind::Ros {
            specs.push(((id, mask, Timestamp::MIN, None, 0, 0), (0, 0)));
        } else if f.state == FragmentState::Finalized {
            let sl = streamlets.iter().find(|sl| sl.streamlet == f.streamlet);
            let sl = sl.unwrap();
            let spec = (
                id,
                mask,
                Timestamp::MIN,
                flush_limit(sl),
                sl.stream.raw(),
                sl.first_stream_row,
            );
            specs.push((spec, (f.streamlet.raw(), f.ordinal)));
        }
    }
    specs.sort_by_key(|(spec, order)| (*order, spec.0));
    let mut tails = Vec::new();
    for sl in streamlets
        .iter()
        .filter(|sl| sl.state != StreamletState::Finalized)
    {
        let (mut from_ordinal, mut from_row) = (0u32, 0u64);
        for f in r.sms.list_fragments(table, snapshot) {
            if f.kind == FragmentKind::Wos
                && f.streamlet == sl.streamlet
                && f.state != FragmentState::Active
            {
                from_ordinal = from_ordinal.max(f.ordinal + 1);
                from_row = from_row.max(f.first_row + f.row_count);
            }
        }
        tails.push((
            sl.streamlet.raw(),
            from_ordinal,
            from_row,
            meta::effective_mask(&sl.masks, snapshot).ranges().to_vec(),
            flush_limit(sl),
            sl.epoch,
            sl.row_count,
        ));
    }
    tails.sort();
    (specs.into_iter().map(|(spec, _)| spec).collect(), tails)
}

#[test]
fn read_set_of_many_streamlets_matches_the_per_tail_rescan() {
    let r = rig_with_servers(2);
    let t = r.sms.create_table("t", simple_schema()).unwrap().table;
    // Six open streamlets (one BUFFERED), each with five sealed fragments
    // of ten rows and an active sixth.
    let mut handles = Vec::new();
    for i in 0..6u64 {
        let stype = if i == 5 {
            StreamType::Buffered
        } else {
            StreamType::Unbuffered
        };
        let h = r.sms.create_stream(t, stype).unwrap();
        let base = 1_000 + 10 * i;
        let mut frags: Vec<(u64, u32, u64, bool)> =
            (0..5).map(|o| (base + o, o as u32, 10, true)).collect();
        frags.push((base + 5, 5, 3, false));
        r.sms.heartbeat(&[delta_of(&h, &frags)]).unwrap();
        handles.push(h);
    }
    r.servers[0]
        .live_rows
        .lock()
        .insert(handles[5].streamlet.streamlet, 53);
    r.servers[1]
        .live_rows
        .lock()
        .insert(handles[5].streamlet.streamlet, 53);
    r.sms.flush_stream(t, handles[5].stream.stream, 27).unwrap();
    let before = r.sms.read_snapshot();
    // Convert fragments out from under three of the tails: the tail must
    // still start past them, though no read spec names them any more.
    convert(&r, t, &[1_000, 1_001], 9_000);
    convert(&r, t, &[1_010, 1_011, 1_012, 1_013, 1_014], 9_001);
    convert(&r, t, &[1_054], 9_002);
    // A DML statement: a fragment mask, and a tail mask that reaches back
    // into sealed fragments.
    let sealed = FragmentId::from_raw(1_022);
    let tail = handles[3].streamlet.streamlet;
    r.sms
        .commit_dml(
            t,
            &[(sealed, DeletionMask::from_range(2, 4))],
            &[(tail, DeletionMask::from_range(45, 52))],
            &[],
        )
        .unwrap();
    let after = r.sms.read_snapshot();
    for snapshot in [before, after] {
        let got = view_of(&r.sms.list_read_fragments(t, snapshot).unwrap());
        assert_eq!(got, oracle_view(&r, t, snapshot), "at {snapshot:?}");
        assert_eq!(got.1.len(), 6);
    }
    let now = view_of(&r.sms.list_read_fragments(t, after).unwrap());
    let tail_of = |i: usize| &now.1[i];
    // (tails sort by streamlet id, which follows creation order)
    assert_eq!((tail_of(0).1, tail_of(0).2), (5, 50), "partly converted");
    assert_eq!((tail_of(1).1, tail_of(1).2), (5, 50), "fully converted");
    assert_eq!(tail_of(3).3, vec![(45, 52)]);
    assert_eq!(tail_of(5).4, Some(27));
}

/// A table with four streamlets, two sealed fragments each, the first of
/// each converted and past its GC grace; returns the next round of deltas
/// (a third fragment per streamlet) and an unknown streamlet's delta.
fn rig_due_for_gc() -> (Rig, Vec<StreamletDelta>) {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap().table;
    let mut next = Vec::new();
    for i in 0..4u64 {
        let h = r.sms.create_stream(t, StreamType::Unbuffered).unwrap();
        let base = 2_000 + 10 * i;
        let sealed = [(base, 0, 10, true), (base + 1, 1, 10, true)];
        r.sms.heartbeat(&[delta_of(&h, &sealed)]).unwrap();
        convert(&r, t, &[base], 9_100 + i);
        let mut all = sealed.to_vec();
        all.push((base + 2, 2, 4, false));
        next.push(delta_of(&h, &all));
    }
    let mut unknown = next[0].clone();
    unknown.streamlet = StreamletId::from_raw(424_242);
    next.insert(2, unknown);
    r.clock.advance(20_000_000);
    (r, next)
}

#[test]
fn one_report_of_four_deltas_answers_like_four_reports() {
    let (one, deltas) = rig_due_for_gc();
    let whole = one.sms.heartbeat(&deltas).unwrap();
    let (four, deltas) = rig_due_for_gc();
    let mut merged = crate::heartbeat::HeartbeatResponse::default();
    for d in deltas {
        let part = four.sms.heartbeat(&[d]).unwrap();
        merged.schema_updates.extend(part.schema_updates);
        merged.gc.extend(part.gc);
        merged.unknown_streamlets.extend(part.unknown_streamlets);
    }
    merged.schema_updates.dedup();
    assert_eq!(whole.schema_updates, merged.schema_updates);
    assert_eq!(whole.gc, merged.gc);
    assert_eq!(whole.unknown_streamlets, merged.unknown_streamlets);
    assert_eq!(whole.gc.len(), 4, "each streamlet has one fragment to GC");
    assert!(whole.gc.iter().all(|(_, _, ordinals)| ordinals == &[0]));
    assert_eq!(whole.schema_updates.len(), 1);
    // Both ways leave the same records behind.
    let t = whole.schema_updates[0].0;
    let at = |r: &Rig| r.sms.list_fragments(t, r.sms.read_snapshot());
    assert_eq!(at(&one), at(&four));
    assert_eq!(one.sms.list_streamlets(t), four.sms.list_streamlets(t));
}

/// Overwrites a metastore key with bytes no record decodes from.
fn corrupt(r: &Rig, key: &str) {
    let store = r.sms.store();
    let mut txn = store.begin();
    txn.put(key, vec![0xff]);
    txn.commit().unwrap();
}

#[test]
fn undecodable_streamlet_record_fails_reads_instead_of_hiding_its_tail() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap().table;
    let h = r.sms.create_stream(t, StreamType::Unbuffered).unwrap();
    let other = r.sms.create_stream(t, StreamType::Unbuffered).unwrap();
    heartbeat_one_fragment(&r, &h, FragmentId::from_raw(3_000), 5, true);
    let slid = h.streamlet.streamlet;
    let healthy = r.sms.list_read_fragments(t, r.sms.read_snapshot()).unwrap();
    assert_eq!(healthy.tails.len(), 2);
    corrupt(&r, &StreamletMeta::key((t, slid)));

    let decode = |e: VortexError| matches!(e, VortexError::Decode(_));
    let listed = r.sms.list_read_fragments(t, r.sms.read_snapshot());
    assert!(decode(listed.unwrap_err()), "not a read set missing a tail");
    assert!(decode(r.sms.get_streamlet(t, slid).unwrap_err()));
    assert!(decode(r.sms.stream_length(t, h.stream.stream).unwrap_err()));
    assert!(decode(r.sms.reconcile_streamlet(t, slid).unwrap_err()));
    let report = [delta_of(&h, &[(3_000, 0, 5, true)])];
    assert!(decode(r.sms.heartbeat(&report).unwrap_err()));
    // The diagnostics listing is the one place that leaves it out.
    let listed = r.sms.list_streamlets(t);
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].streamlet, other.streamlet.streamlet);
    // GC and the groomer work by key: they neither need nor decode it.
    assert_eq!(r.sms.run_gc(t).unwrap(), 0);
    r.sms.drop_table(t).unwrap();
    let (entities, _files) = r.sms.run_groomer().unwrap();
    assert_eq!(entities, 5, "2 streams, 2 streamlets, 1 fragment");
    let store = r.sms.store();
    assert!(meta::owned_keys(&store, t, store.now()).is_empty());
}

#[test]
fn undecodable_stream_record_fails_reads() {
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap().table;
    let h = r.sms.create_stream(t, StreamType::Buffered).unwrap();
    corrupt(&r, &StreamMeta::key((t, h.stream.stream)));
    let listed = r.sms.list_read_fragments(t, r.sms.read_snapshot());
    assert!(matches!(listed, Err(VortexError::Decode(_))));
    let fetched = r.sms.get_stream(t, h.stream.stream);
    assert!(matches!(fetched, Err(VortexError::Decode(_))));
}

#[test]
fn bloom_helper_available_for_future_extension() {
    // Smoke check that the bloom type is usable here (fragment pruning
    // tests live in the query crate).
    let mut b = BloomFilter::with_capacity(4, 0.1);
    b.insert(b"x");
    assert!(b.may_contain(b"x"));
}

/// The reconciler's extent and column properties by the rule it replaced:
/// every copy with a header walked, the byte-wise common prefix walked
/// again, the file parsed into rows under it and each tracked cell of
/// each row observed. Stats are compared as bytes: NaN and −0.0 included.
type Reconciled = (u64, u64, u64, Vec<(String, Vec<u8>)>);

fn reference_reconcile(copies: &[Vec<u8>], tracked: &[(usize, String)]) -> Option<Reconciled> {
    use vortex_common::stats::ColumnStats;
    use vortex_wos::{index_fragment, parse_fragment};
    let headed: Vec<_> = (copies.iter())
        .filter(|c| index_fragment(c, None).is_ok())
        .collect();
    let first = headed.first()?;
    let common = headed[1..].iter().fold(first.len(), |acc, c| {
        let same = first.iter().zip(c.iter()).take(acc);
        same.take_while(|(a, b)| a == b).count()
    });
    let v = index_fragment(&first[..common], None).unwrap().valid_len;
    let parsed = parse_fragment(first, &reconcile_key(), Some(v)).unwrap();
    let mut stats = vec![ColumnStats::new(); tracked.len()];
    for row in parsed.blocks.iter().flat_map(|b| &b.rows.rows) {
        for (s, (c, _)) in stats.iter_mut().zip(tracked) {
            if let Some(value) = row.values.get(*c) {
                s.observe(value);
            }
        }
    }
    let stats = (tracked.iter().zip(stats)).map(|((_, n), s)| (n.clone(), s.to_bytes()));
    Some((
        v,
        parsed.header.first_row,
        parsed.total_rows(),
        stats.collect(),
    ))
}

fn reconcile_key() -> vortex_common::crypt::Key {
    vortex_common::crypt::Key::derive_from_passphrase("reconcile")
}

/// A log file of `blocks` data blocks whose rows are of two schema
/// versions (four columns, or five with the added one) in any order,
/// with an all-NULL column, NaN / −0.0 / 0.0 floats and a column that
/// turns mixed; returns the header, each block's record and a commit.
fn reconcile_file(seed: u64, blocks: usize) -> (Vec<u8>, Vec<Vec<u8>>, Vec<u8>) {
    let mut state = seed;
    let mut next = |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let cfg = FragmentConfig {
        streamlet: StreamletId::from_raw(9),
        fragment: FragmentId::from_raw(70_000 + seed),
        ordinal: 0,
        schema_version: 2,
        key: reconcile_key(),
    };
    let (mut w, header) = FragmentWriter::new(cfg, 40, vec![], Timestamp(10));
    let floats = [f64::NAN, -f64::NAN, -0.0, 0.0, 1.5, -2.25, f64::INFINITY];
    let mut records = Vec::new();
    for b in 0..blocks {
        let rows: Vec<Row> = (0..1 + next(40))
            .map(|_| {
                let mut values = vec![
                    Value::Int64(next(1000) as i64 - 500),
                    match next(6) {
                        0 => Value::Null,
                        _ => Value::Float64(floats[next(7) as usize]),
                    },
                    match next(20) {
                        0 => Value::Null,
                        1 if seed % 2 == 0 => Value::Int64(7),
                        _ => Value::String(format!("s{}", next(50))),
                    },
                    Value::Null,
                ];
                if next(3) > 0 {
                    values.push(match next(4) {
                        0 => Value::Null,
                        _ => Value::Int64(next(100) as i64),
                    });
                }
                Row::insert(values)
            })
            .collect();
        records.push(w.data_block(&rows, Timestamp(20 + b as u64)).unwrap());
    }
    (header, records, w.commit_record(Timestamp(99)).unwrap())
}

/// Reconciliation walks each copy once and builds no rows, and finds the
/// extent, first row, row count and column properties the row-wise rule
/// found: copies that agree, a torn tail on one, sentinels at different
/// offsets, headerless stubs — over rows of two schema versions.
#[test]
fn reconciliation_matches_the_row_wise_reference() {
    let tracked: Vec<(usize, String)> = (0..6).map(|c| (c, format!("c{c}"))).collect();
    let check = |copies: &[Vec<u8>]| {
        let got =
            crate::sms::reconcile_copies(3, copies, &reconcile_key(), &tracked, None).unwrap();
        let got = got.map(|r| {
            assert_eq!(r.ordinal, 3);
            let stats = r.stats.iter().map(|(n, s)| (n.clone(), s.to_bytes()));
            (r.committed_size, r.first_row, r.row_count, stats.collect())
        });
        assert_eq!(got, reference_reconcile(copies, &tracked));
        got
    };
    for seed in 0..12 {
        let (header, records, commit) = reconcile_file(seed, 1 + seed as usize % 5);
        let upto = |k: usize| [&[header.clone()][..], &records[..k]].concat().concat();
        let whole = [upto(records.len()), commit].concat();
        let poison = |bytes: &[u8], epoch| {
            let sentinel = FragmentWriter::sentinel_record(epoch, Timestamp(500));
            [bytes, &sentinel[..]].concat()
        };
        let last = records.last().unwrap();
        let torn = [&whole[..], &last[..last.len() / 2]].concat();
        let early = records.len() / 2;
        let stub = FragmentWriter::sentinel_record(4, Timestamp(1));
        let agreed = check(&[poison(&whole, 4), poison(&whole, 4)]).unwrap();
        assert!(agreed.2 > 0 && agreed.0 > whole.len() as u64, "seed {seed}");
        check(&[torn.clone(), whole.clone()]);
        check(&[whole.clone(), poison(&torn, 4)]);
        check(&[poison(&upto(early), 4), poison(&whole, 4)]);
        check(&[poison(&whole, 4), poison(&upto(early), 4)]);
        check(&[stub.clone(), poison(&whole, 4)]);
        check(&[Vec::new(), upto(early)]);
        assert_eq!(check(&[stub.clone(), Vec::new()]), None);
    }
}

/// A log file sealed with bloom + footer, its rows of every tracked type
/// (NULLs included), the last column only in the later rows of two
/// schema versions; and what the server that wrote it reports: each row
/// observed as it was appended, the footer's committed size.
fn sealed_file(seed: u64, blocks: usize, tracked: &[(usize, String)]) -> (Vec<u8>, FragmentDelta) {
    let fragment = FragmentId::from_raw(80_000 + seed);
    let cfg = FragmentConfig {
        streamlet: StreamletId::from_raw(9),
        fragment,
        ordinal: 3,
        schema_version: 2,
        key: reconcile_key(),
    };
    let (mut w, mut file) = FragmentWriter::new(cfg, 40, vec![], Timestamp(10));
    let mut stats = vec![vortex_common::stats::ColumnStats::new(); tracked.len()];
    let mut rows = 0u64;
    for b in 0..blocks as u64 {
        let block: Vec<Row> = (0..1 + (seed * 7 + b * 13) % 30)
            .map(|i| {
                let k = (seed * 31 + b * 17 + i * 5) % 23;
                let valued = |v: Value| if k % 5 == 0 { Value::Null } else { v };
                let mut values = vec![
                    valued(Value::Bool(k % 2 == 0)),
                    valued(Value::Int64(k as i64 - 11)),
                    valued(Value::Float64([f64::NAN, -0.0, 0.0, 2.5][k as usize % 4])),
                    valued(Value::String(format!("s{k}"))),
                    valued(Value::Bytes(vec![k as u8; k as usize % 3])),
                    valued(Value::Timestamp(Timestamp(1_000 + k))),
                    valued(Value::Date(k as i32 - 4)),
                    valued(Value::Numeric(k as i128 * 1_000_000_007 - 9)),
                    valued(Value::Json(format!("{{\"k\":{k}}}"))),
                ];
                if b > 0 && i % 2 == 0 {
                    values.push(valued(Value::Int64(k as i64)));
                }
                Row::insert(values)
            })
            .collect();
        for row in &block {
            for (s, (c, _)) in stats.iter_mut().zip(tracked) {
                if let Some(v) = row.values.get(*c) {
                    s.observe(v);
                }
            }
        }
        rows += block.len() as u64;
        file.extend(w.data_block(&block, Timestamp(20 + b)).unwrap());
    }
    let bloom = BloomFilter::with_capacity(16, 0.01);
    file.extend(w.finalize(&bloom, Timestamp(90)).unwrap());
    let report = FragmentDelta {
        fragment,
        ordinal: 3,
        first_row: 40,
        row_count: rows,
        committed_size: file.len() as u64,
        finalized: true,
        stats: (tracked.iter().map(|(_, n)| n.clone()).zip(stats)).collect(),
    };
    (file, report)
}

/// A graceful finalize's report stands in for the decode only where the
/// copies vouch for it, and then says what the decode says: the same
/// extent, first row, rows and properties, bit for bit. Where it is
/// adopted no block is opened — the copies reconcile even under a key that
/// cannot open one; anywhere else the decode runs, and that key fails it.
#[test]
fn a_vouched_report_is_the_decode() {
    let tracked: Vec<(usize, String)> = (0..10).map(|c| (c, format!("c{c}"))).collect();
    let wrong = vortex_common::crypt::Key::derive_from_passphrase("not the table's");
    let reconcile = |copies: &[Vec<u8>], key: &_, tracked: &[_], report: Option<&FragmentDelta>| {
        let got = crate::sms::reconcile_copies(3, copies, key, tracked, report.cloned());
        got.map(|r| {
            let r = r.unwrap();
            let stats = r.stats.iter().map(|(n, s)| (n.clone(), s.to_bytes()));
            let stats: Vec<_> = stats.collect();
            let at = (r.fragment, r.ordinal, r.first_row);
            (at, r.row_count, r.committed_size, stats)
        })
    };
    // Whether `report` is adopted for `copies`; either way the answer is
    // the decode's.
    let adopted = |copies: &[Vec<u8>], tracked: &[_], report: &FragmentDelta| {
        let decoded = reconcile(copies, &reconcile_key(), tracked, None).unwrap();
        let given = reconcile(copies, &reconcile_key(), tracked, Some(report));
        assert_eq!(given.unwrap(), decoded);
        reconcile(copies, &wrong, tracked, Some(report)).is_ok()
    };
    let poison = |bytes: &[u8]| {
        let sentinel = FragmentWriter::sentinel_record(4, Timestamp(500));
        [bytes, &sentinel[..]].concat()
    };
    for seed in 0..8 {
        let (file, report) = sealed_file(seed, 1 + seed as usize % 4, &tracked);
        let sealed = poison(&file);
        assert!(adopted(
            &[sealed.clone(), sealed.clone()],
            &tracked,
            &report
        ));
        assert!(adopted(std::slice::from_ref(&sealed), &tracked, &report));
        assert!(adopted(&[file.clone(), sealed.clone()], &tracked, &report));

        let torn = poison(&file[..file.len() - 3]);
        assert!(!adopted(&[sealed.clone(), torn], &tracked, &report));
        let mut off = report.clone();
        off.row_count -= 1;
        assert!(!adopted(&[sealed.clone(), sealed.clone()], &tracked, &off));
        let mut off = report.clone();
        off.committed_size += 1;
        assert!(!adopted(&[sealed.clone(), sealed.clone()], &tracked, &off));
        let mut grown = tracked.clone();
        grown.push((10, "added".into()));
        assert!(!adopted(&[sealed.clone(), sealed.clone()], &grown, &report));
    }
}

/// Lists `t` at `at` as a reader does — through the SMS's last listing
/// when it serves — and from the metastore, and requires the two to be
/// the same read set (or the same error).
fn shared_is_fresh(r: &Rig, t: TableId, at: Timestamp) -> Option<Arc<ReadSet>> {
    let shared = r.sms.list_read_fragments(t, at);
    let fresh = r.sms.list_at(t, at);
    assert_eq!(format!("{shared:?}"), format!("{fresh:?}"), "at {at:?}");
    shared.ok()
}

/// One random schedule of metadata changes over a table, each followed
/// by listings at a snapshot the last listing may have been at — an old
/// one, the last commit, a fresh read snapshot, or one ahead of every
/// commit so far — checked by [`shared_is_fresh`]. Returns how many
/// listings were shared and how many were listed again.
fn shared_listing_schedule(seed: u64) -> (usize, usize) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let r = rig_with_servers(1);
    let tmeta = r.sms.create_table("t", simple_schema()).unwrap();
    let (t, key, store) = (tmeta.table, tmeta.encryption_key(), r.sms.store());
    // Per writable stream: its handle and its fragments, as `delta_of`
    // takes them.
    type Fragments = Vec<(u64, u32, u64, bool)>;
    let mut open: Vec<(crate::sms::StreamHandle, Fragments)> = Vec::new();
    let mut next_id = 100_000 + 1_000 * seed;
    let (mut at, mut history) = (r.sms.read_snapshot(), Vec::new());
    let mut last = shared_is_fresh(&r, t, at);
    let (mut shared, mut relisted) = (0, 0);
    for _ in 0..40 {
        next_id += 1;
        let live = |kind: FragmentKind| {
            let all = r.sms.list_fragments(t, store.now()).into_iter();
            let live = all.filter(move |f| f.kind == kind && f.deleted_at == Timestamp::MAX);
            live.filter(|f| f.state == FragmentState::Finalized)
                .collect::<Vec<_>>()
        };
        match rng.gen_range(0..10u32) {
            // A stream of any type.
            0 => {
                let stype = [
                    StreamType::Unbuffered,
                    StreamType::Buffered,
                    StreamType::Pending,
                ][rng.gen_range(0..3usize)];
                open.push((r.sms.create_stream(t, stype).unwrap(), Vec::new()));
            }
            // An append: a log file, then the heartbeat that reports it.
            1..=3 if !open.is_empty() => {
                let i = rng.gen_range(0..open.len());
                let (h, frags) = &mut open[i];
                let (ordinal, rows) = (frags.len() as u32, rng.gen_range(1..20u64));
                let first_row = frags.iter().map(|f| f.2).sum();
                let (sl, clusters) = (h.streamlet.streamlet, h.streamlet.clusters);
                write_fragment(
                    &r,
                    t,
                    sl,
                    ordinal,
                    first_row,
                    rows as usize,
                    &key,
                    clusters,
                    true,
                );
                frags.iter_mut().for_each(|f| f.3 = true);
                frags.push((next_id, ordinal, rows, rng.gen_bool(0.7)));
                let _ = r.sms.heartbeat(&[delta_of(h, frags)]);
                r.servers[0].live_rows.lock().insert(sl, first_row + rows);
            }
            // A flush of a BUFFERED stream, or a PENDING stream committed.
            4 if !open.is_empty() => {
                let i = rng.gen_range(0..open.len());
                let (h, frags) = &open[i];
                let rows: u64 = frags.iter().map(|f| f.2).sum();
                match h.stream.stype {
                    StreamType::Buffered => {
                        let to = rng.gen_range(0..=rows);
                        let _ = r.sms.flush_stream(t, h.stream.stream, to);
                    }
                    StreamType::Pending => {
                        let _ = r.sms.batch_commit_streams(t, &[h.stream.stream]);
                        open.remove(i);
                    }
                    StreamType::Unbuffered => {}
                }
            }
            // Conversion of sealed log files, then a recluster of blocks.
            5 => {
                let wos = live(FragmentKind::Wos);
                let picked = wos.iter().take(rng.gen_range(1..3usize));
                let sources: Vec<_> = picked.map(|f| (f.fragment, f.masks.len())).collect();
                let ros = make_ros_meta(&r, t, next_id, 10);
                let _ = r.sms.commit_conversion(t, &sources, vec![ros], false);
                let blocks = live(FragmentKind::Ros);
                if blocks.len() >= 2 && rng.gen_bool(0.5) {
                    let sources: Vec<_> = (blocks.iter().take(2))
                        .map(|f| (f.fragment, f.masks.len()))
                        .collect();
                    let mut merged = make_ros_meta(&r, t, next_id + 500, 20);
                    merged.level = 2;
                    let _ = r.sms.commit_conversion(t, &sources, vec![merged], false);
                }
            }
            // GC past the grace, and version GC at a watermark that the
            // snapshot listed last may be below or above.
            6 => {
                if rng.gen_bool(0.5) {
                    r.clock.advance(20_000_000);
                }
                let _ = r.sms.run_gc(t);
                let watermark = match history.len() {
                    0 => store.now(),
                    n => history[rng.gen_range(0..n)],
                };
                store.gc_versions(watermark);
            }
            // Reconciliation of an open streamlet.
            7 if !open.is_empty() => {
                let (h, _) = open.remove(rng.gen_range(0..open.len()));
                let _ = r.sms.reconcile_streamlet(t, h.streamlet.streamlet);
            }
            // A DML mask on a sealed fragment and on a tail.
            8 => {
                let wos = live(FragmentKind::Wos);
                let masked = wos.iter().take(1).map(|f| {
                    let end = rng.gen_range(1..f.row_count.max(1) + 1);
                    (f.fragment, DeletionMask::from_range(0, end))
                });
                let masked: Vec<_> = masked.collect();
                let tails: Vec<_> = (open.iter().take(1))
                    .map(|(h, _)| (h.streamlet.streamlet, DeletionMask::from_range(1, 3)))
                    .collect();
                let _ = r.sms.commit_dml(t, &masked, &tails, &[]);
            }
            _ => {}
        }
        // The snapshot listed last, then — now and then — another.
        let mut check = |at: Timestamp, last: &mut Option<Arc<ReadSet>>| {
            let now = shared_is_fresh(&r, t, at);
            match (&*last, &now) {
                (Some(a), Some(b)) if Arc::ptr_eq(a, b) => shared += 1,
                _ => relisted += 1,
            }
            *last = now;
        };
        check(at, &mut last);
        if rng.gen_bool(0.4) {
            history.push(at);
            at = match rng.gen_range(0..4u32) {
                0 => r.sms.read_snapshot(),
                1 => store.now(),
                2 => Timestamp(r.sms.read_snapshot().0 + rng.gen_range(1..100_000u64)),
                _ => history[rng.gen_range(0..history.len())],
            };
            check(at, &mut last);
            check(at, &mut last);
        }
    }
    // Dropping the table drops its listing: the next is listed afresh.
    r.sms.drop_table(t).unwrap();
    let after = shared_is_fresh(&r, t, at);
    assert!(!matches!((&last, &after), (Some(a), Some(b)) if Arc::ptr_eq(a, b)));
    assert!(shared_is_fresh(&r, t, r.sms.read_snapshot()).is_none());
    (shared, relisted)
}

/// Commits that land while a listing at a snapshot ahead of every commit
/// is being read: once one has landed, the listing shared at that
/// snapshot is a fresh one. Returns the rounds where it was not.
fn shared_listing_under_racing_commits() -> Vec<u32> {
    use std::sync::Barrier;
    use std::time::Instant;
    const ROUNDS: u32 = 64;
    let r = rig_with_servers(1);
    let t = r.sms.create_table("t", simple_schema()).unwrap().table;
    let h = r.sms.create_stream(t, StreamType::Unbuffered).unwrap();
    let many: Vec<_> = (0..300u64)
        .map(|o| (10_000 + o, o as u32, 1, true))
        .collect();
    r.sms.heartbeat(&[delta_of(&h, &many)]).unwrap();
    let ahead = r.sms.read_snapshot().0 + 1_000_000_000;
    let start = Instant::now();
    r.sms.list_at(t, Timestamp(ahead)).unwrap();
    let took = start.elapsed();
    let both = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0..ROUNDS {
                both.wait();
                // Lands somewhere inside the racing listing.
                std::thread::sleep(took.mul_f64(f64::from(round % 8 + 1) / 10.0));
                let one = delta_of(&h, &[(20_000 + u64::from(round), 300 + round, 1, true)]);
                let _ = r.sms.heartbeat(&[one]);
                both.wait();
            }
        });
        // Each round at a snapshot the last listing was not at, so the
        // racing one is read; the check runs once the commit has landed.
        let stale = |&round: &u32| {
            let at = Timestamp(ahead + u64::from(round));
            both.wait();
            let _ = r.sms.list_read_fragments(t, at);
            both.wait();
            let shared = r.sms.list_read_fragments(t, at);
            format!("{shared:?}") != format!("{:?}", r.sms.list_at(t, at))
        };
        (0..ROUNDS).filter(stale).collect()
    })
}

/// The SMS shares a table's last listing only while a listing afresh
/// would equal it: at the same snapshot, with no version pruned and no
/// commit possibly landed at or below the snapshot since. Random
/// schedules of appends and heartbeats, PENDING commits, flushes,
/// conversions and reclusters, GC and version GC, reconciliation, DML
/// masks and a dropped table, and commits racing a listing, each checked
/// listing by listing against the metastore's.
#[test]
fn a_shared_listing_is_a_fresh_one() {
    let (mut shared, mut relisted) = (0, 0);
    for seed in 0..16 {
        let (s, l) = shared_listing_schedule(seed);
        (shared, relisted) = (shared + s, relisted + l);
    }
    assert!(
        shared > 0 && relisted > 0,
        "{shared} shared, {relisted} listed"
    );
    let stale = shared_listing_under_racing_commits();
    assert!(
        stale.is_empty(),
        "rounds {stale:?} shared a listing a commit changed"
    );
}
