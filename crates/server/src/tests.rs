//! Data-plane tests: append path, replication, error handling, rotation,
//! heartbeats, flow control, and recovery.

use std::sync::Arc;

use vortex_colossus::StorageFleet;
use vortex_common::crypt::Key;
use vortex_common::error::VortexError;
use vortex_common::ids::{ClusterId, IdGen, ServerId, StreamId, StreamletId, TableId};
use vortex_common::latency::WriteProfile;
use vortex_common::row::{Row, RowSet, Value};
use vortex_common::schema::{Field, FieldType, PartitionTransform, Schema};
use vortex_common::truetime::{SimClock, Timestamp, TrueTime};
use vortex_sms::meta::wos_path;
use vortex_sms::server_ctl::{StreamServerApi, StreamletSpec};
use vortex_wos::parse_fragment;

use crate::hosted::COMMIT_IDLE_MICROS;
use crate::server::{shard_index, ServerConfig, StreamServer};

struct Rig {
    server: Arc<StreamServer>,
    fleet: StorageFleet,
    clock: SimClock,
    key: Key,
}

pub(crate) fn schema() -> Schema {
    Schema::new(vec![
        Field::required("day", FieldType::Int64),
        Field::required("customer", FieldType::String),
        Field::nullable("note", FieldType::String),
    ])
    .with_partition("day", PartitionTransform::Identity)
    .with_clustering(&["customer"])
}

fn rig() -> Rig {
    rig_with(|_| {})
}

fn rig_with(tweak: impl FnOnce(&mut ServerConfig)) -> Rig {
    rig_on(WriteProfile::instant(), tweak)
}

fn rig_on(storage: WriteProfile, tweak: impl FnOnce(&mut ServerConfig)) -> Rig {
    let clock = SimClock::new(1_000_000);
    let tt = TrueTime::simulated(clock.clone(), 100, 0);
    let fleet = StorageFleet::with_mem_clusters(2, storage, 5);
    let ids = Arc::new(IdGen::new(1));
    let mut cfg = ServerConfig::new(ServerId::from_raw(1), ClusterId::from_raw(0));
    tweak(&mut cfg);
    let server = StreamServer::new(cfg, fleet.clone(), tt, ids).unwrap();
    Rig {
        server,
        fleet,
        clock,
        key: Key::derive_from_passphrase("tbl"),
    }
}

fn spec(r: &Rig, slid: u64, first_stream_row: u64) -> StreamletSpec {
    StreamletSpec {
        table: TableId::from_raw(1),
        stream: StreamId::from_raw(2),
        streamlet: StreamletId::from_raw(slid),
        clusters: [ClusterId::from_raw(0), ClusterId::from_raw(1)],
        schema: schema(),
        first_stream_row,
        key: r.key.clone(),
    }
}

pub(crate) fn rows(start: i64, n: usize) -> RowSet {
    RowSet::new(
        (0..n)
            .map(|i| {
                Row::insert(vec![
                    Value::Int64((start + i as i64) % 30),
                    Value::String(format!("cust-{}", (start + i as i64) % 7)),
                    Value::Null,
                ])
            })
            .collect(),
    )
}

#[test]
fn append_replicates_to_both_clusters() {
    let r = rig();
    r.server.create_streamlet(spec(&r, 10, 0)).unwrap();
    let ack = r
        .server
        .append(
            StreamletId::from_raw(10),
            &rows(0, 5),
            1,
            Some(0),
            Timestamp::MIN,
        )
        .unwrap();
    assert_eq!(ack.first_stream_row, 0);
    assert_eq!(ack.row_count, 5);
    let path = wos_path(TableId::from_raw(1), StreamletId::from_raw(10), 0);
    let a = r
        .fleet
        .get(ClusterId::from_raw(0))
        .unwrap()
        .read_all(&path)
        .unwrap()
        .data;
    let b = r
        .fleet
        .get(ClusterId::from_raw(1))
        .unwrap()
        .read_all(&path)
        .unwrap()
        .data;
    assert_eq!(a, b, "physical replication: byte-identical log files");
    let parsed = parse_fragment(&a, &r.key, None).unwrap();
    assert_eq!(parsed.total_rows(), 5);
}

#[test]
fn offset_validation_enforces_exactly_once() {
    let r = rig();
    r.server.create_streamlet(spec(&r, 11, 100)).unwrap();
    let sl = StreamletId::from_raw(11);
    // First append at stream offset 100 (the streamlet's start).
    r.server
        .append(sl, &rows(0, 4), 1, Some(100), Timestamp::MIN)
        .unwrap();
    // Retry with the same offset (duplicate): rejected with the expected
    // offset in the error.
    match r
        .server
        .append(sl, &rows(0, 4), 1, Some(100), Timestamp::MIN)
    {
        Err(VortexError::OffsetMismatch {
            provided, expected, ..
        }) => {
            assert_eq!(provided, 100);
            assert_eq!(expected, 104);
        }
        other => panic!("expected OffsetMismatch, got {other:?}"),
    }
    // Out-of-order pipelined offset (too far ahead): also rejected.
    assert!(r
        .server
        .append(sl, &rows(0, 1), 1, Some(110), Timestamp::MIN)
        .is_err());
    // Correct next offset succeeds.
    r.server
        .append(sl, &rows(4, 2), 1, Some(104), Timestamp::MIN)
        .unwrap();
    // Omitting the offset = at-least-once append at current end.
    let ack = r
        .server
        .append(sl, &rows(6, 3), 1, None, Timestamp::MIN)
        .unwrap();
    assert_eq!(ack.first_stream_row, 106);
    assert_eq!(r.server.streamlet_rows(sl), Some(9));
}

#[test]
fn schema_version_mismatch_surfaces() {
    let r = rig();
    r.server.create_streamlet(spec(&r, 12, 0)).unwrap();
    let sl = StreamletId::from_raw(12);
    r.server.notify_schema_version(TableId::from_raw(1), 3);
    match r.server.append(sl, &rows(0, 1), 1, None, Timestamp::MIN) {
        Err(VortexError::SchemaVersionMismatch {
            writer_version,
            current_version,
            ..
        }) => {
            assert_eq!(writer_version, 1);
            assert_eq!(current_version, 3);
        }
        other => panic!("expected SchemaVersionMismatch, got {other:?}"),
    }
    // A writer that already knows v3 is admitted (row validation skipped
    // since the server's spec still holds v1).
    r.server
        .append(sl, &rows(0, 1), 3, None, Timestamp::MIN)
        .unwrap();
    // Control closures run in posting order relative to the same caller's
    // appends: every bump is visible to the very next append, every time.
    for v in 4..40 {
        r.server.notify_schema_version(TableId::from_raw(1), v);
        assert!(matches!(
            r.server.append(sl, &rows(0, 1), v - 1, None, Timestamp::MIN),
            Err(VortexError::SchemaVersionMismatch { current_version, .. }) if current_version == v
        ));
        r.server
            .append(sl, &rows(0, 1), v, None, Timestamp::MIN)
            .unwrap();
    }
}

#[test]
fn closed_server_answers_unavailable_instead_of_hanging() {
    let r = rig();
    r.server.create_streamlet(spec(&r, 40, 0)).unwrap();
    let sl = StreamletId::from_raw(40);
    r.server.close();
    assert!(matches!(
        r.server.flush(sl, 0),
        Err(VortexError::Unavailable(_))
    ));
    assert!(matches!(
        r.server.create_streamlet(spec(&r, 41, 0)),
        Err(VortexError::Unavailable(_))
    ));
    assert!(matches!(
        r.server.checkpoint(),
        Err(VortexError::Unavailable(_))
    ));
    assert!(matches!(
        r.server.append(sl, &rows(0, 1), 1, None, Timestamp::MIN),
        Err(VortexError::Unavailable(_))
    ));
    assert_eq!(r.server.streamlet_rows(sl), None);
    assert_eq!(r.server.tick(), 0);
    assert!(r.server.build_heartbeat(true).is_empty());
}

#[test]
fn strided_streamlet_ids_reach_every_shard() {
    // Ids come from one sequence shared with tables, streams and
    // fragments, so consecutive streamlets are a fixed stride apart.
    for shards in [4usize, 8] {
        for stride in [1u64, 2, 3, 4, 8] {
            let mut hit = vec![0u32; shards];
            for i in 0..64 {
                hit[shard_index(StreamletId::from_raw(1_000 + i * stride), shards)] += 1;
            }
            assert!(
                hit.iter().all(|&n| n > 0),
                "stride {stride} over {shards} shards left one idle: {hit:?}"
            );
        }
    }
}

#[test]
fn invalid_rows_rejected() {
    let r = rig();
    r.server.create_streamlet(spec(&r, 13, 0)).unwrap();
    let bad = RowSet::new(vec![Row::insert(vec![Value::String("not-int".into())])]);
    assert!(matches!(
        r.server
            .append(StreamletId::from_raw(13), &bad, 1, None, Timestamp::MIN),
        Err(VortexError::SchemaViolation(_))
    ));
    let empty = RowSet::default();
    assert!(r
        .server
        .append(StreamletId::from_raw(13), &empty, 1, None, Timestamp::MIN)
        .is_err());
}

#[test]
fn large_batch_splits_into_blocks() {
    let r = rig_with(|c| c.block_buffer_bytes = 4 * 1024);
    r.server.create_streamlet(spec(&r, 14, 0)).unwrap();
    let sl = StreamletId::from_raw(14);
    // ~50 bytes/row × 1000 rows ≈ 50 KB → should split into many blocks.
    r.server
        .append(sl, &rows(0, 1000), 1, None, Timestamp::MIN)
        .unwrap();
    let path = wos_path(TableId::from_raw(1), sl, 0);
    let data = r
        .fleet
        .get(ClusterId::from_raw(0))
        .unwrap()
        .read_all(&path)
        .unwrap()
        .data;
    let parsed = parse_fragment(&data, &r.key, None).unwrap();
    assert!(
        parsed.blocks.len() >= 4,
        "got {} blocks",
        parsed.blocks.len()
    );
    assert_eq!(parsed.total_rows(), 1000);
    // All but the final block are committed by succession.
    assert_eq!(
        parsed.committed_rows(),
        1000 - parsed.blocks.last().unwrap().rows.len() as u64
    );
}

#[test]
fn fragment_rotation_at_max_size_writes_file_map() {
    let r = rig_with(|c| c.fragment_max_bytes = 1_000);
    r.server.create_streamlet(spec(&r, 15, 0)).unwrap();
    let sl = StreamletId::from_raw(15);
    for i in 0..20 {
        r.server
            .append(sl, &rows(i * 10, 10), 1, None, Timestamp::MIN)
            .unwrap();
    }
    let table = TableId::from_raw(1);
    let c0 = r.fleet.get(ClusterId::from_raw(0)).unwrap();
    // Multiple fragments exist.
    let files = c0.list(&format!("wos/t{:016x}/l{:016x}/", 1, 15)).unwrap();
    assert!(
        files.len() >= 3,
        "rotation should create fragments: {files:?}"
    );
    // A later fragment's File Map covers all previous ones with sizes.
    let last = files.last().unwrap();
    let parsed = parse_fragment(&c0.read_all(last).unwrap().data, &r.key, None).unwrap();
    assert_eq!(parsed.header.file_map.len(), files.len() - 1);
    for (i, e) in parsed.header.file_map.iter().enumerate() {
        assert_eq!(e.ordinal, i as u32);
        assert!(e.committed_size > 0);
        // The recorded committed size matches a parse of that fragment.
        let fdata = c0.read_all(&wos_path(table, sl, e.ordinal)).unwrap().data;
        let fparsed = parse_fragment(&fdata, &r.key, Some(e.committed_size)).unwrap();
        assert_eq!(fparsed.total_rows(), e.row_count);
        assert!(fparsed.is_finalized(), "rotated fragments get footers");
        assert!(fparsed.bloom.is_some());
    }
    // Total rows preserved across fragments.
    let total: u64 = files
        .iter()
        .map(|f| {
            parse_fragment(&c0.read_all(f).unwrap().data, &r.key, None)
                .unwrap()
                .total_rows()
        })
        .sum();
    assert_eq!(total, 200);
}

#[test]
fn replica_failure_rotates_fragment_and_retries() {
    let r = rig();
    r.server.create_streamlet(spec(&r, 16, 0)).unwrap();
    let sl = StreamletId::from_raw(16);
    r.server
        .append(sl, &rows(0, 5), 1, None, Timestamp::MIN)
        .unwrap();
    // Fail the next append on cluster 1 only.
    r.fleet
        .get(ClusterId::from_raw(1))
        .unwrap()
        .faults()
        .fail_next_appends(1);
    let ack = r
        .server
        .append(sl, &rows(5, 3), 1, None, Timestamp::MIN)
        .unwrap();
    assert_eq!(ack.first_stream_row, 5);
    assert_eq!(r.server.streamlet_rows(sl), Some(8));
    // Fragment 1 exists and holds the retried rows; its File Map records
    // fragment 0's committed size (excluding the failed block).
    let c0 = r.fleet.get(ClusterId::from_raw(0)).unwrap();
    let f1 = c0
        .read_all(&wos_path(TableId::from_raw(1), sl, 1))
        .unwrap()
        .data;
    let parsed = parse_fragment(&f1, &r.key, None).unwrap();
    assert_eq!(parsed.total_rows(), 3);
    assert_eq!(parsed.header.first_row, 5);
    assert_eq!(parsed.header.file_map.len(), 1);
    let fm = parsed.header.file_map[0];
    assert_eq!(fm.row_count, 5);
    // Reading fragment 0 limited by the File Map yields exactly the acked
    // rows even though cluster 0 has the torn extra block.
    let f0 = c0
        .read_all(&wos_path(TableId::from_raw(1), sl, 0))
        .unwrap()
        .data;
    assert!(
        f0.len() as u64 > fm.committed_size,
        "cluster 0 kept the unacked block"
    );
    let p0 = parse_fragment(&f0, &r.key, Some(fm.committed_size)).unwrap();
    assert_eq!(p0.total_rows(), 5, "no duplicates via File Map limit");
}

#[test]
fn repeated_failures_finalize_streamlet() {
    let r = rig();
    r.server.create_streamlet(spec(&r, 17, 0)).unwrap();
    let sl = StreamletId::from_raw(17);
    r.server
        .append(sl, &rows(0, 2), 1, None, Timestamp::MIN)
        .unwrap();
    // Fail everything on cluster 1 for a while (data write + rotation
    // header + retried data write).
    r.fleet
        .get(ClusterId::from_raw(1))
        .unwrap()
        .faults()
        .fail_next_appends(10);
    let err = r
        .server
        .append(sl, &rows(2, 2), 1, None, Timestamp::MIN)
        .unwrap_err();
    assert!(
        err.is_retryable(),
        "client should seek a new streamlet: {err}"
    );
    // Subsequent appends rejected, and the streamlet no longer counts as
    // writable: the retry's failed open finalized it.
    assert!(matches!(
        r.server.append(sl, &rows(2, 2), 1, None, Timestamp::MIN),
        Err(VortexError::StreamletFinalized(_))
    ));
    assert_eq!(r.server.load().streamlets, 0);
    // The acked rows survive.
    assert_eq!(r.server.streamlet_rows(sl), Some(2));
}

#[test]
fn flush_record_persists_watermark() {
    let r = rig();
    r.server.create_streamlet(spec(&r, 18, 0)).unwrap();
    let sl = StreamletId::from_raw(18);
    r.server
        .append(sl, &rows(0, 10), 1, None, Timestamp::MIN)
        .unwrap();
    r.server.flush(sl, 7).unwrap();
    // Flush beyond length rejected.
    assert!(r.server.flush(sl, 11).is_err());
    let path = wos_path(TableId::from_raw(1), sl, 0);
    let data = r
        .fleet
        .get(ClusterId::from_raw(0))
        .unwrap()
        .read_all(&path)
        .unwrap()
        .data;
    let parsed = parse_fragment(&data, &r.key, None).unwrap();
    assert_eq!(parsed.max_flush_row(), Some(7));
    // The flush record also commits the preceding data.
    assert_eq!(parsed.committed_rows(), 10);
}

#[test]
fn idle_tick_writes_commit_record() {
    let r = rig();
    r.server.create_streamlet(spec(&r, 19, 0)).unwrap();
    let sl = StreamletId::from_raw(19);
    r.server
        .append(sl, &rows(0, 3), 1, None, Timestamp::MIN)
        .unwrap();
    // Not idle yet.
    assert_eq!(r.server.tick(), 0);
    r.clock.advance(10_000);
    assert_eq!(r.server.tick(), 0);
    r.clock.advance(COMMIT_IDLE_MICROS);
    assert_eq!(r.server.tick(), 1);
    // Idempotent: already committed.
    assert_eq!(r.server.tick(), 0);
    let path = wos_path(TableId::from_raw(1), sl, 0);
    let data = r
        .fleet
        .get(ClusterId::from_raw(0))
        .unwrap()
        .read_all(&path)
        .unwrap()
        .data;
    let parsed = parse_fragment(&data, &r.key, None).unwrap();
    assert_eq!(parsed.committed_rows(), 3, "commit record seals the tail");
}

/// The log files of streamlet `sl` on cluster 0, in ordinal order.
fn fragment_files(r: &Rig, sl: u64) -> Vec<Vec<u8>> {
    let c0 = r.fleet.get(ClusterId::from_raw(0)).unwrap();
    let files = c0.list(&format!("wos/t{:016x}/l{:016x}/", 1, sl)).unwrap();
    files.iter().map(|f| c0.read_all(f).unwrap().data).collect()
}

/// A commit or flush record whose write fails on one replica goes the
/// way data does (§5.3): fragment 0 closes at its acked extent — the
/// record cluster 0 kept is past it — and the record lands on fragment 1.
#[test]
fn record_write_that_fails_once_lands_on_the_next_fragment() {
    for flush in [true, false] {
        let r = rig();
        let slid = if flush { 50 } else { 51 };
        r.server.create_streamlet(spec(&r, slid, 0)).unwrap();
        let sl = StreamletId::from_raw(slid);
        r.server
            .append(sl, &rows(0, 10), 1, None, Timestamp::MIN)
            .unwrap();
        r.fleet
            .get(ClusterId::from_raw(1))
            .unwrap()
            .faults()
            .fail_next_appends(1);
        if flush {
            r.server.flush(sl, 7).unwrap();
        } else {
            r.clock.advance(2 * COMMIT_IDLE_MICROS);
            assert_eq!(r.server.tick(), 1, "the idle commit lands after a retry");
        }
        assert_eq!(r.server.load().streamlets, 1, "still writable");
        assert_eq!(r.server.streamlet_rows(sl), Some(10));

        let files = fragment_files(&r, slid);
        assert_eq!(files.len(), 2, "the record moved to fragment 1");
        let f1 = parse_fragment(&files[1], &r.key, None).unwrap();
        assert_eq!(f1.header.first_row, 10);
        assert_eq!(f1.total_rows(), 0);
        let fm = f1.header.file_map[0];
        assert_eq!(fm.row_count, 10);
        assert!(
            (files[0].len() as u64) > fm.committed_size,
            "cluster 0 kept the failed record past the acked extent"
        );
        let f0 = parse_fragment(&files[0], &r.key, Some(fm.committed_size)).unwrap();
        assert_eq!(f0.total_rows(), 10);
        assert_eq!(f0.max_flush_row(), None, "the failed bytes are excluded");
        if flush {
            assert_eq!(f1.max_flush_row(), Some(7), "the watermark survives");
            let hb = r.server.build_heartbeat(true);
            assert_eq!(hb[0].max_flush_row, Some(7));
        } else {
            assert_eq!(r.server.tick(), 0, "the tail is committed");
        }
        // Appends continue on fragment 1.
        let ack = r
            .server
            .append(sl, &rows(10, 2), 1, None, Timestamp::MIN)
            .unwrap();
        assert_eq!(ack.first_stream_row, 10);
    }
}

/// A record write that fails and whose next fragment cannot be opened
/// either finalizes the streamlet with a retryable error.
#[test]
fn record_write_that_fails_twice_finalizes_streamlet() {
    for flush in [true, false] {
        let r = rig();
        let slid = if flush { 52 } else { 53 };
        r.server.create_streamlet(spec(&r, slid, 0)).unwrap();
        let sl = StreamletId::from_raw(slid);
        r.server
            .append(sl, &rows(0, 4), 1, None, Timestamp::MIN)
            .unwrap();
        r.fleet
            .get(ClusterId::from_raw(1))
            .unwrap()
            .faults()
            .fail_next_appends(2);
        if flush {
            let err = r.server.flush(sl, 4).unwrap_err();
            assert!(err.is_retryable(), "{err}");
            assert!(matches!(err, VortexError::Unavailable(_)), "{err}");
        } else {
            r.clock.advance(2 * COMMIT_IDLE_MICROS);
            assert_eq!(r.server.tick(), 0, "no commit landed");
        }
        assert_eq!(r.server.load().streamlets, 0, "finalized");
        assert!(matches!(
            r.server.append(sl, &rows(4, 1), 1, None, Timestamp::MIN),
            Err(VortexError::StreamletFinalized(_))
        ));
        assert_eq!(r.server.streamlet_rows(sl), Some(4), "acked rows survive");
    }
}

#[test]
fn heartbeat_reports_deltas_then_goes_quiet() {
    let r = rig();
    r.server.create_streamlet(spec(&r, 20, 0)).unwrap();
    let sl = StreamletId::from_raw(20);
    r.server
        .append(sl, &rows(0, 4), 1, None, Timestamp::MIN)
        .unwrap();
    let hb = r.server.build_heartbeat(false);
    assert_eq!(hb.len(), 1);
    let d = &hb[0];
    assert_eq!(d.row_count, 4);
    assert_eq!(d.fragments.len(), 1);
    assert!(!d.fragments[0].finalized);
    assert!(!d.fragments[0].stats.is_empty(), "column properties flow");
    // No changes → no delta.
    let hb2 = r.server.build_heartbeat(false);
    assert!(hb2.is_empty());
    // Full state reports everything regardless.
    let hb3 = r.server.build_heartbeat(true);
    assert_eq!(hb3.len(), 1);
}

#[test]
fn finalize_streamlet_writes_footer_and_blocks_appends() {
    let r = rig();
    r.server.create_streamlet(spec(&r, 21, 0)).unwrap();
    let sl = StreamletId::from_raw(21);
    r.server
        .append(sl, &rows(0, 6), 1, None, Timestamp::MIN)
        .unwrap();
    r.server.finalize_streamlet_ctl(sl).unwrap();
    assert!(matches!(
        r.server.append(sl, &rows(6, 1), 1, None, Timestamp::MIN),
        Err(VortexError::StreamletFinalized(_))
    ));
    let path = wos_path(TableId::from_raw(1), sl, 0);
    let data = r
        .fleet
        .get(ClusterId::from_raw(0))
        .unwrap()
        .read_all(&path)
        .unwrap()
        .data;
    let parsed = parse_fragment(&data, &r.key, None).unwrap();
    assert!(parsed.is_finalized());
    // Bloom covers clustering keys that were written.
    let bloom = parsed.bloom.unwrap();
    assert!(bloom.may_contain(&Value::String("cust-1".into()).encode_key()));
    assert!(!bloom.may_contain(&Value::String("cust-404".into()).encode_key()));
}

/// The streamlet keeps each distinct key value as its hash pair; the
/// bloom record it closes with is, byte for byte, the filter built from
/// the distinct encoded keys themselves.
#[test]
fn closed_bloom_is_the_filter_of_the_key_set() {
    let r = rig();
    r.server.create_streamlet(spec(&r, 23, 0)).unwrap();
    let sl = StreamletId::from_raw(23);
    let mut keys = std::collections::HashSet::new();
    for (start, n) in [(0, 40), (35, 10), (100, 3)] {
        let rows = rows(start, n);
        for row in &rows.rows {
            keys.extend(row.values[..2].iter().map(Value::encode_key));
        }
        r.server.append(sl, &rows, 1, None, Timestamp::MIN).unwrap();
    }
    r.server.finalize_streamlet_ctl(sl).unwrap();
    let path = wos_path(TableId::from_raw(1), sl, 0);
    let data = r.fleet.get(ClusterId::from_raw(1)).unwrap();
    let closed = vortex_wos::index_fragment(&data.read_all(&path).unwrap().data, None);
    let mut want = vortex_common::bloom::BloomFilter::with_capacity(keys.len().max(16), 0.01);
    keys.iter().for_each(|k| want.insert(k));
    assert_eq!(closed.unwrap().bloom.unwrap().to_bytes(), want.to_bytes());
}

#[test]
fn revoked_streamlet_rejects_appends() {
    let r = rig();
    r.server.create_streamlet(spec(&r, 22, 0)).unwrap();
    let sl = StreamletId::from_raw(22);
    r.server.revoke_streamlet(sl);
    assert!(matches!(
        r.server.append(sl, &rows(0, 1), 1, None, Timestamp::MIN),
        Err(VortexError::StreamletFinalized(_))
    ));
}

#[test]
fn flow_control_throttles_oversized_admission() {
    let r = rig();
    r.server.create_streamlet(spec(&r, 23, 0)).unwrap();
    // Admission past the cap is refused with the cap in the error.
    let cap = match r.server.admit(u64::MAX / 2) {
        Err(VortexError::Throttled { limit_bytes, .. }) => limit_bytes,
        other => panic!("expected Throttled, got {:?}", other.map(|_| ())),
    };
    // Bytes held in flight count against it until their guard drops.
    let held = r.server.admit(cap).unwrap();
    assert!(matches!(
        r.server.append(
            StreamletId::from_raw(23),
            &rows(0, 1),
            1,
            None,
            Timestamp::MIN
        ),
        Err(VortexError::Throttled { .. })
    ));
    drop(held);
    // Small appends pass again, and each guard releases (no leak).
    let small = rows(0, 1);
    for _ in 0..5 {
        r.server
            .append(StreamletId::from_raw(23), &small, 1, None, Timestamp::MIN)
            .unwrap();
    }
}

#[test]
fn load_reflects_streamlets_and_quarantine() {
    let r = rig();
    assert_eq!(r.server.load().streamlets, 0);
    r.server.create_streamlet(spec(&r, 24, 0)).unwrap();
    r.server.create_streamlet(spec(&r, 25, 0)).unwrap();
    assert_eq!(r.server.load().streamlets, 2);
    r.server
        .finalize_streamlet_ctl(StreamletId::from_raw(24))
        .unwrap();
    assert_eq!(r.server.load().streamlets, 1, "finalized not writable");
    r.server.set_quarantined(true);
    assert!(r.server.load().quarantined);
}

#[test]
fn gc_fragments_deletes_files_from_all_clusters() {
    let r = rig_with(|c| c.fragment_max_bytes = 1_000);
    r.server.create_streamlet(spec(&r, 26, 0)).unwrap();
    let sl = StreamletId::from_raw(26);
    for i in 0..10 {
        r.server
            .append(sl, &rows(i * 10, 10), 1, None, Timestamp::MIN)
            .unwrap();
    }
    let table = TableId::from_raw(1);
    let deleted = r.server.gc_fragments(table, sl, vec![0, 1]).unwrap();
    assert_eq!(deleted, vec![0, 1]);
    for c in [0u64, 1] {
        let cluster = r.fleet.get(ClusterId::from_raw(c)).unwrap();
        assert!(!cluster.exists(&wos_path(table, sl, 0)));
        assert!(!cluster.exists(&wos_path(table, sl, 1)));
    }
}

#[test]
fn checkpoint_and_recovery_restore_streamlet_identities() {
    let r = rig();
    r.server.create_streamlet(spec(&r, 27, 0)).unwrap();
    r.server.create_streamlet(spec(&r, 28, 0)).unwrap();
    r.server
        .append(
            StreamletId::from_raw(27),
            &rows(0, 5),
            1,
            None,
            Timestamp::MIN,
        )
        .unwrap();
    r.server.checkpoint().unwrap();
    r.server
        .finalize_streamlet_ctl(StreamletId::from_raw(28))
        .unwrap();
    // "Crash" and recover from the metadata log.
    let cfg = r.server.config().clone();
    let summary = StreamServer::recover_summary(&cfg, &r.fleet).unwrap();
    let mut known: Vec<(u64, u64)> = summary.iter().map(|(s, (_, n))| (s.raw(), *n)).collect();
    known.sort_unstable();
    assert_eq!(known, vec![(27, 5), (28, 0)], "rows come from the snapshot");
}

/// Group commit (§5.3): whatever queued on a shard while it was busy
/// lands as one dual-replica write per streamlet, so every ack of the
/// group carries the same durable completion; the same appends sent one
/// at a time pay one write each.
#[test]
fn appends_queued_behind_a_busy_shard_share_one_write() {
    let r = rig_on(WriteProfile::paper_colossus(), |_| {});
    let sl = StreamletId::from_raw(40);
    r.server.create_streamlet(spec(&r, 40, 0)).unwrap();
    let server = &r.server;
    let at = Timestamp::from_micros(2_000_000);
    let (entered, is_in) = std::sync::mpsc::channel();
    let (release, held) = std::sync::mpsc::channel::<()>();
    let grouped: Vec<Timestamp> = std::thread::scope(|s| {
        // Park the owning shard inside a control closure...
        s.spawn(move || {
            server.on_shard(server.shard_of(sl), move |_| {
                entered.send(()).unwrap();
                let _ = held.recv();
            })
        });
        is_in.recv().unwrap();
        // ...until four producers have queued behind it.
        let producers: Vec<_> = (0..4)
            .map(|i| s.spawn(move || server.append(sl, &rows(i * 4, 4), 1, None, at)))
            .collect();
        while server.shard_of(sl).queued() < 4 {
            std::thread::yield_now();
        }
        release.send(()).unwrap();
        let acks = producers.into_iter().map(|p| p.join().unwrap().unwrap());
        acks.map(|ack| ack.completion).collect()
    });
    assert!(grouped[0] > at, "the write takes virtual time: {grouped:?}");
    assert!(grouped.iter().all(|c| *c == grouped[0]), "{grouped:?}");
    assert_eq!(server.streamlet_rows(sl), Some(16));

    let at = grouped[0].plus_micros(1_000_000);
    let serial: Vec<Timestamp> = (0..4)
        .map(|i| server.append(sl, &rows(i * 4, 4), 1, None, at).unwrap())
        .map(|ack| ack.completion)
        .collect();
    assert!(serial.windows(2).all(|w| w[0] < w[1]), "{serial:?}");
}

#[test]
fn concurrent_appends_to_distinct_streamlets() {
    let r = rig();
    for i in 0..4 {
        r.server.create_streamlet(spec(&r, 30 + i, 0)).unwrap();
    }
    let mut handles = vec![];
    for i in 0..4u64 {
        let server = Arc::clone(&r.server);
        handles.push(std::thread::spawn(move || {
            for j in 0..25 {
                server
                    .append(
                        StreamletId::from_raw(30 + i),
                        &rows(j * 4, 4),
                        1,
                        None,
                        Timestamp::MIN,
                    )
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for i in 0..4u64 {
        assert_eq!(
            r.server.streamlet_rows(StreamletId::from_raw(30 + i)),
            Some(100)
        );
    }
}
