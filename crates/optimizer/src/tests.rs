//! Storage-optimizer tests: conversion exactly-once, partition splits,
//! reclustering, DML races, and visibility across the LSM swap.

use std::sync::Arc;

use vortex_colossus::StorageFleet;
use vortex_common::ids::{ClusterId, IdGen, ServerId, SmsTaskId};
use vortex_common::latency::WriteProfile;
use vortex_common::mask::DeletionMask;
use vortex_common::row::{Row, RowSet, Value};
use vortex_common::schema::{Field, FieldType, PartitionTransform, Schema};
use vortex_common::truetime::{SimClock, Timestamp, TrueTime};
use vortex_metastore::MetaStore;
use vortex_server::{ServerConfig, StreamServer};
use vortex_sms::meta::{FragmentKind, FragmentState};
use vortex_sms::sms::{SmsConfig, SmsTask};
use vortex_sms::SmsApi;

use crate::{OptimizerConfig, StorageOptimizer};

struct Rig {
    sms: Arc<SmsTask>,
    fleet: StorageFleet,
    clock: SimClock,
    tt: TrueTime,
    opt: StorageOptimizer,
    client: vortex_client::VortexClient,
}

fn rig() -> Rig {
    rig_with(OptimizerConfig::default())
}

fn rig_with(cfg: OptimizerConfig) -> Rig {
    let clock = SimClock::new(1_000_000);
    let tt = TrueTime::simulated(clock.clone(), 100, 0);
    let fleet = StorageFleet::with_mem_clusters(2, WriteProfile::instant(), 17);
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
    let opt = StorageOptimizer::new(handle.clone(), fleet.clone(), ids, cfg);
    let client = vortex_client::VortexClient::new(handle, fleet.clone(), tt.clone());
    Rig {
        sms,
        fleet,
        clock,
        tt,
        opt,
        client,
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
                    Value::Int64(k % 3), // 3 partitions
                    Value::String(format!("cust-{:04}", (k * 37) % 100)),
                    Value::Int64(k),
                ])
            })
            .collect(),
    )
}

/// Ingest + finalize so fragments become conversion candidates.
fn ingest(r: &Rig, table: vortex_common::ids::TableId, start: i64, n: usize) {
    let mut w = r.client.create_unbuffered_writer(table).unwrap();
    w.append(rows(start, n)).unwrap();
    let stream = w.stream_id();
    // Finalize the stream so the streamlet reconciles and its fragments
    // become Finalized (eligible candidates).
    r.sms.finalize_stream(table, stream).unwrap();
}

fn amounts(tr: &vortex_client::TableRows) -> Vec<i64> {
    let mut ks: Vec<i64> = tr
        .rows
        .iter()
        .map(|(_, r)| r.values[2].as_i64().unwrap())
        .collect();
    ks.sort_unstable();
    ks
}

#[test]
fn conversion_preserves_rows_exactly_once() {
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    ingest(&r, t.table, 0, 300);
    let before = r.client.read_rows(t.table).unwrap();
    assert_eq!(before.rows.len(), 300);

    let report = r.opt.convert_wos(t.table).unwrap();
    assert!(report.fragments_converted >= 1);
    assert!(report.blocks_written >= 3, "3 partitions → ≥3 blocks");
    assert_eq!(report.rows, 300);

    let after = r.client.read_rows(t.table).unwrap();
    assert_eq!(amounts(&after), (0..300).collect::<Vec<_>>());
    // Provenance preserved: same (stream, offset) pairs as before.
    let mut src_before: Vec<(u64, u64)> = before
        .rows
        .iter()
        .map(|(m, _)| (m.stream, m.offset))
        .collect();
    let mut src_after: Vec<(u64, u64)> = after
        .rows
        .iter()
        .map(|(m, _)| (m.stream, m.offset))
        .collect();
    src_before.sort_unstable();
    src_after.sort_unstable();
    assert_eq!(src_before, src_after, "exactly-once conversion (§6.3)");
    // Everything now reads from ROS.
    let rs = r
        .sms
        .list_read_fragments(t.table, r.sms.read_snapshot())
        .unwrap();
    assert!(rs
        .fragments
        .iter()
        .all(|f| f.meta.kind == FragmentKind::Ros));
    assert_eq!(r.opt.backlog(t.table), 0);
}

#[test]
fn time_travel_across_conversion_boundary() {
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    ingest(&r, t.table, 0, 50);
    r.clock.advance(1_000);
    let pre_conv = r.sms.read_snapshot();
    r.clock.advance(1_000);
    r.opt.convert_wos(t.table).unwrap();
    // Read at the pre-conversion snapshot: rows come from WOS, exactly
    // once.
    let old = r.client.read_rows_at(t.table, pre_conv).unwrap();
    assert_eq!(amounts(&old), (0..50).collect::<Vec<_>>());
    // Post-conversion snapshot: same rows from ROS.
    let new = r.client.read_rows(t.table).unwrap();
    assert_eq!(amounts(&new), (0..50).collect::<Vec<_>>());
}

#[test]
fn partition_split_blocks_carry_partition_keys() {
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    ingest(&r, t.table, 0, 90);
    r.opt.convert_wos(t.table).unwrap();
    let frags = r.sms.list_fragments(t.table, r.sms.read_snapshot());
    let ros: Vec<_> = frags
        .iter()
        .filter(|f| f.kind == FragmentKind::Ros && f.state == FragmentState::Finalized)
        .collect();
    let mut pkeys: Vec<i64> = ros.iter().filter_map(|f| f.partition_key).collect();
    pkeys.sort_unstable();
    pkeys.dedup();
    assert_eq!(pkeys, vec![0, 1, 2], "one block set per day partition");
    // Each block's stats bound its partition column.
    for f in &ros {
        let s = f.stats.iter().find(|(n, _)| n == "day").unwrap();
        assert_eq!(s.1.min, s.1.max, "partition-pure blocks");
    }
}

#[test]
fn masked_rows_dropped_during_merged_conversion() {
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    ingest(&r, t.table, 0, 100);
    // DML deletes fragment rows [10, 30) before conversion.
    let frag = r
        .sms
        .list_fragments(t.table, r.sms.read_snapshot())
        .into_iter()
        .find(|f| f.kind == FragmentKind::Wos)
        .unwrap();
    r.sms
        .commit_dml(
            t.table,
            &[(frag.fragment, DeletionMask::from_range(10, 30))],
            &[],
            &[],
        )
        .unwrap();
    let report = r.opt.convert_wos(t.table).unwrap();
    assert_eq!(report.rows_masked, 20);
    assert_eq!(report.rows, 80);
    let after = r.client.read_rows(t.table).unwrap();
    assert_eq!(after.rows.len(), 80);
    let got = amounts(&after);
    assert!(
        !got.contains(&15),
        "deleted rows stay deleted post-conversion"
    );
}

#[test]
fn one_to_one_conversion_carries_masks_positionally() {
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    ingest(&r, t.table, 0, 60);
    let frag = r
        .sms
        .list_fragments(t.table, r.sms.read_snapshot())
        .into_iter()
        .find(|f| f.kind == FragmentKind::Wos)
        .unwrap();
    r.sms
        .commit_dml(
            t.table,
            &[(frag.fragment, DeletionMask::from_range(0, 5))],
            &[],
            &[],
        )
        .unwrap();
    let report = r.opt.convert_one_to_one(t.table).unwrap();
    assert_eq!(report.fragments_converted, 1);
    assert_eq!(report.blocks_written, 1);
    // All 60 rows live in ROS, but the mask hides the first 5.
    let ros = r
        .sms
        .list_fragments(t.table, r.sms.read_snapshot())
        .into_iter()
        .find(|f| f.kind == FragmentKind::Ros)
        .unwrap();
    assert_eq!(ros.row_count, 60);
    assert_eq!(ros.masks.len(), 1);
    let after = r.client.read_rows(t.table).unwrap();
    assert_eq!(amounts(&after), (5..60).collect::<Vec<_>>());
    // DML can keep masking the ROS fragment exactly as it would have
    // masked the WOS one (§7.3).
    r.sms
        .commit_dml(
            t.table,
            &[(ros.fragment, DeletionMask::from_range(5, 10))],
            &[],
            &[],
        )
        .unwrap();
    let after2 = r.client.read_rows(t.table).unwrap();
    assert_eq!(amounts(&after2), (10..60).collect::<Vec<_>>());
}

#[test]
fn optimizer_yields_to_dml_but_one_to_one_does_not() {
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    ingest(&r, t.table, 0, 40);
    let ticket = r.sms.begin_dml(t.table).unwrap();
    // Merged conversion yields → backlog stays.
    assert!(r.opt.convert_wos(t.table).is_err());
    assert!(r.opt.backlog(t.table) > 0);
    // 1:1 conversion proceeds (§7.3).
    let report = r.opt.convert_one_to_one(t.table).unwrap();
    assert!(report.blocks_written >= 1);
    assert_eq!(r.opt.backlog(t.table), 0);
    r.sms.end_dml(t.table, ticket).unwrap();
}

#[test]
fn concurrent_mask_commit_aborts_merged_conversion() {
    // A DML that starts AND finishes between the optimizer's read and its
    // commit is invisible to the lock check; the mask-version validation
    // must catch it.
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    ingest(&r, t.table, 0, 30);
    let frag = r
        .sms
        .list_fragments(t.table, r.sms.read_snapshot())
        .into_iter()
        .find(|f| f.kind == FragmentKind::Wos)
        .unwrap();
    // Simulate: optimizer read happens with 0 masks; a DML commits a mask;
    // then the optimizer tries to commit claiming it saw 0 masks.
    r.sms
        .commit_dml(
            t.table,
            &[(frag.fragment, DeletionMask::from_range(0, 1))],
            &[],
            &[],
        )
        .unwrap();
    let replacement = vortex_sms::meta::FragmentMeta {
        fragment: vortex_common::ids::FragmentId::from_raw(999_999),
        table: t.table,
        streamlet: vortex_common::ids::StreamletId::from_raw(0),
        kind: FragmentKind::Ros,
        ordinal: 0,
        first_row: 0,
        row_count: 30,
        committed_size: 1,
        state: FragmentState::Finalized,
        created_at: Timestamp::MIN,
        deleted_at: Timestamp::MAX,
        clusters: [ClusterId::from_raw(0), ClusterId::from_raw(1)],
        path: "ros/stale".into(),
        stats: vec![],
        masks: vec![],
        partition_key: None,
        level: 0,
    };
    let err = r
        .sms
        .commit_conversion(t.table, &[(frag.fragment, 0)], vec![replacement], true)
        .unwrap_err();
    assert!(
        matches!(err, vortex_common::error::VortexError::TxnConflict(_)),
        "{err}"
    );
}

#[test]
fn recluster_merges_deltas_into_sorted_baseline() {
    let r = rig_with(OptimizerConfig {
        target_block_rows: 64,
        merge_trigger: 0.5,
    });
    let t = r.sms.create_table("t", schema()).unwrap();
    // Two ingest rounds → two delta generations.
    ingest(&r, t.table, 0, 200);
    r.opt.convert_wos(t.table).unwrap();
    ingest(&r, t.table, 200, 200);
    r.opt.convert_wos(t.table).unwrap();
    // All ROS is level 0 → ratio 0.
    assert_eq!(r.opt.clustering_ratio(t.table).unwrap(), 0.0);

    let report = r.opt.recluster(t.table).unwrap();
    assert!(report.merged);
    assert!(report.baseline_blocks > 0);
    assert_eq!(report.clustering_ratio, 1.0, "all rows in the baseline");

    // Baseline blocks are non-overlapping in the clustering key within
    // each partition.
    let frags = r.sms.list_fragments(t.table, r.sms.read_snapshot());
    let mut by_partition: std::collections::BTreeMap<i64, Vec<(Value, Value)>> = Default::default();
    for f in frags
        .iter()
        .filter(|f| f.kind == FragmentKind::Ros && f.deleted_at == Timestamp::MAX)
    {
        assert!(f.level >= 1);
        let s = f.stats.iter().find(|(n, _)| n == "customer").unwrap();
        by_partition
            .entry(f.partition_key.unwrap())
            .or_default()
            .push((s.1.min.clone().unwrap(), s.1.max.clone().unwrap()));
    }
    for (_, mut ranges) in by_partition {
        ranges.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in ranges.windows(2) {
            assert!(
                w[0].1.total_cmp(&w[1].0).is_le(),
                "overlapping baseline blocks: {w:?}"
            );
        }
    }
    // Rows intact.
    let tr = r.client.read_rows(t.table).unwrap();
    assert_eq!(amounts(&tr), (0..400).collect::<Vec<_>>());
}

/// Regression: a torn append persists a prefix of the block, and the
/// retry used to append the whole block *after* it — leaving that
/// replica unparseable for good, so the table went unreadable as soon as
/// the other replica was torn too or away.
#[test]
fn torn_ros_write_is_retried_from_a_clean_file() {
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    ingest(&r, t.table, 0, 90);
    for c in r.fleet.cluster_ids() {
        let faults = r.fleet.get(c).unwrap().faults();
        faults.set_torn_seed(5 + c.raw());
        faults.torn_next_appends(1);
    }
    let report = r.opt.convert_wos(t.table).unwrap();
    assert_eq!(report.rows, 90);
    // Every replica of every block parses on its own.
    for down in r.fleet.cluster_ids() {
        r.fleet.get(down).unwrap().faults().set_unavailable(true);
        let tr = r.client.read_rows(t.table).unwrap();
        assert_eq!(amounts(&tr), (0..90).collect::<Vec<_>>(), "{down} down");
        r.fleet.get(down).unwrap().faults().set_unavailable(false);
    }
}

#[test]
fn recluster_skips_when_deltas_small() {
    let r = rig_with(OptimizerConfig {
        target_block_rows: 64,
        merge_trigger: 0.5,
    });
    let t = r.sms.create_table("t", schema()).unwrap();
    ingest(&r, t.table, 0, 300);
    r.opt.convert_wos(t.table).unwrap();
    r.opt.recluster(t.table).unwrap(); // first merge: baseline
                                       // A small delta (< 50% of baseline) does not trigger a merge.
    ingest(&r, t.table, 300, 50);
    r.opt.convert_wos(t.table).unwrap();
    let report = r.opt.recluster(t.table).unwrap();
    assert!(!report.merged);
    let ratio = r.opt.clustering_ratio(t.table).unwrap();
    assert!(ratio > 0.8 && ratio < 1.0, "ratio {ratio}");
}

#[test]
fn buffered_fragments_convert_only_when_flushed() {
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    let mut w = r.client.create_buffered_writer(t.table).unwrap();
    w.append(rows(0, 40)).unwrap();
    w.flush(20).unwrap();
    let stream = w.stream_id();
    r.sms.finalize_stream(t.table, stream).unwrap();
    // The fragment holds 40 rows but only 20 are flushed → not eligible.
    assert_eq!(r.opt.backlog(t.table), 0);
    let report = r.opt.convert_wos(t.table).unwrap();
    assert_eq!(report.fragments_converted, 0);
    // Flush the rest → now convertible.
    r.sms.flush_stream(t.table, stream, 40).unwrap();
    assert!(r.opt.backlog(t.table) > 0);
    let report = r.opt.convert_wos(t.table).unwrap();
    assert_eq!(report.rows, 40);
    let tr = r.client.read_rows(t.table).unwrap();
    assert_eq!(tr.rows.len(), 40);
}

#[test]
fn pending_fragments_convert_only_after_commit() {
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    let mut w = r.client.create_pending_writer(t.table).unwrap();
    w.append(rows(0, 25)).unwrap();
    let stream = w.stream_id();
    r.sms.finalize_stream(t.table, stream).unwrap();
    assert_eq!(r.opt.convert_wos(t.table).unwrap().fragments_converted, 0);
    r.sms.batch_commit_streams(t.table, &[stream]).unwrap();
    assert!(r.opt.convert_wos(t.table).unwrap().rows == 25);
    assert_eq!(r.client.read_rows(t.table).unwrap().rows.len(), 25);
}

#[test]
fn gc_after_conversion_removes_wos_files() {
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    ingest(&r, t.table, 0, 50);
    let wos_path = r
        .sms
        .list_fragments(t.table, r.sms.read_snapshot())
        .into_iter()
        .find(|f| f.kind == FragmentKind::Wos)
        .unwrap()
        .path;
    r.opt.convert_wos(t.table).unwrap();
    r.clock.advance(20_000_000); // past the GC grace
    let n = r.sms.run_gc(t.table).unwrap();
    assert!(n >= 1);
    assert!(!r
        .fleet
        .get(ClusterId::from_raw(0))
        .unwrap()
        .exists(&wos_path));
    // Reads still work (from ROS).
    assert_eq!(r.client.read_rows(t.table).unwrap().rows.len(), 50);
    // But the pre-conversion snapshot is gone: reading at it can no
    // longer find the WOS file. (Active queries are protected by the
    // grace period, not forever.)
}

#[test]
fn bigmeta_indexes_conversions_and_compacts() {
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    ingest(&r, t.table, 0, 120);
    assert_eq!(r.sms.bigmeta().indexed_count(t.table), 0);
    let live = r.sms.list_fragments(t.table, r.sms.read_snapshot());
    assert!(
        r.sms.bigmeta().tail_count(t.table, &live) > 0,
        "unindexed tail"
    );
    r.opt.convert_wos(t.table).unwrap();
    assert!(r.sms.bigmeta().indexed_count(t.table) >= 3);
    let live = r.sms.list_fragments(t.table, r.sms.read_snapshot());
    let ros_live: Vec<_> = live
        .iter()
        .filter(|f| f.deleted_at == Timestamp::MAX)
        .cloned()
        .collect();
    assert_eq!(
        r.sms.bigmeta().tail_count(t.table, &ros_live),
        0,
        "everything indexed after conversion"
    );
    let compacted = r.opt.compact_metadata(t.table).unwrap();
    let _ = compacted; // nothing tombstoned yet; next conversion creates tombstones
                       // A reclustering creates tombstones for the old delta blocks.
    ingest(&r, t.table, 120, 120);
    r.opt.convert_wos(t.table).unwrap();
    r.opt.recluster(t.table).unwrap();
    let dropped = r.opt.compact_metadata(t.table).unwrap();
    assert!(dropped > 0, "compaction drops converted-away entries");
}

#[test]
fn empty_table_conversion_is_noop() {
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    let report = r.opt.convert_wos(t.table).unwrap();
    assert_eq!(report, crate::ConversionReport::default());
    assert_eq!(r.opt.clustering_ratio(t.table).unwrap(), 1.0);
    let rec = r.opt.recluster(t.table).unwrap();
    assert!(!rec.merged);
}

#[test]
fn read_path_mixes_wos_and_ros() {
    // Half the data converted, half fresh in WOS: the union read (§7)
    // returns everything exactly once.
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    ingest(&r, t.table, 0, 100);
    r.opt.convert_wos(t.table).unwrap();
    // Fresh unconverted data.
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    w.append(rows(100, 100)).unwrap();
    let tr = r
        .client
        .read_rows_at(t.table, r.sms.read_snapshot())
        .unwrap();
    assert_eq!(amounts(&tr), (0..200).collect::<Vec<_>>());
    let _ = &r.tt;
}

/// Rows written before an additive schema change are short of the new
/// column and read NULL in it (§5.4.1) — through conversion and
/// reclustering too, whose blocks are built at the schema's arity. (A
/// short row used to fail the conversion with an arity error.)
#[test]
fn rows_that_predate_a_column_convert_with_it_null() {
    let r = rig();
    let t = r.sms.create_table("t", schema()).unwrap();
    ingest(&r, t.table, 0, 40);
    let note = Field::nullable("note", FieldType::String);
    let evolved = t.schema.evolve_add_column(note).unwrap();
    r.sms.update_schema(t.table, evolved).unwrap();
    let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
    let mut noted = rows(40, 20);
    (noted.rows.iter_mut()).for_each(|row| row.values.push(Value::String("n".into())));
    w.append(noted).unwrap();
    r.sms.finalize_stream(t.table, w.stream_id()).unwrap();
    assert_eq!(r.opt.convert_wos(t.table).unwrap().rows, 60);
    assert!(r.opt.recluster(t.table).unwrap().merged);
    let tr = r.client.read_rows(t.table).unwrap();
    assert_eq!(amounts(&tr), (0..60).collect::<Vec<i64>>());
    for (_, row) in &tr.rows {
        let old = row.values[2].as_i64().unwrap() < 40;
        assert_eq!(row.values[3].is_null(), old, "{row:?}");
    }
}

/// The files a seeded load leaves behind — merged and 1:1 conversions,
/// deletion masks on WOS and on ROS, three baseline merges — do not
/// move unnoticed: `(path, committed_size, crc32c)` of every ROS file,
/// recorded when the layout became version 4 and each `Int64` zone's
/// index entry gained its sum and NULL count (the list before, recorded
/// when a block's string zones began to share one FSST table, had the
/// same files, rows and bodies).
#[test]
fn converted_and_reclustered_files_are_pinned() {
    let r = rig_with(OptimizerConfig {
        target_block_rows: 700,
        merge_trigger: 0.5,
    });
    let wide = Schema::new(vec![
        Field::required("day", FieldType::Int64),
        Field::required("customer", FieldType::String),
        Field::required("amount", FieldType::Int64),
        Field::required("price", FieldType::Float64),
        Field::nullable("note", FieldType::String),
        Field::nullable("at", FieldType::Timestamp),
    ])
    .with_partition("day", PartitionTransform::Identity)
    .with_clustering(&["customer", "amount"]);
    let t = r.sms.create_table("t", wide).unwrap().table;
    let mut seed = 0x5EED_u64;
    let mut load = |n: usize| {
        let rows = (0..n).map(|_| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let x = seed >> 16;
            Row::insert(vec![
                Value::Int64((x % 3) as i64),
                Value::String(format!("cust-{:04}", x % 211)),
                Value::Int64((x >> 8) as i64 % 1_000),
                Value::Float64(((x >> 12) % 100_000) as f64 / 100.0),
                match x % 10 {
                    0 => Value::Null,
                    _ => Value::String(format!("note {:012x} on order {}", x, x % 977)),
                },
                match x % 17 {
                    0 => Value::Null,
                    _ => Value::Timestamp(Timestamp(
                        1_700_000_000_000_000 + (x % 86_400) * 1_000_000,
                    )),
                },
            ])
        });
        let mut w = r.client.create_unbuffered_writer(t).unwrap();
        for chunk in rows.collect::<Vec<_>>().chunks(500) {
            w.append(RowSet::new(chunk.to_vec())).unwrap();
        }
        r.sms.finalize_stream(t, w.stream_id()).unwrap();
    };
    let live = |kind: FragmentKind| {
        let listed = r.sms.list_fragments(t, r.sms.read_snapshot());
        let mut of_kind: Vec<_> = listed
            .into_iter()
            .filter(|f| f.kind == kind && f.deleted_at == Timestamp::MAX)
            .collect();
        of_kind.sort_by_key(|f| f.fragment);
        of_kind
    };
    let mask = |kind: FragmentKind, rows: std::ops::Range<u64>| {
        let f = &live(kind)[0];
        let m = DeletionMask::from_range(rows.start, rows.end);
        r.sms.commit_dml(t, &[(f.fragment, m)], &[], &[]).unwrap();
    };
    // Deltas only → the first baseline.
    load(2_500);
    mask(FragmentKind::Wos, 10..30);
    r.opt.convert_wos(t).unwrap();
    assert!(r.opt.recluster(t).unwrap().merged);
    // A masked baseline block and fresh deltas → the second.
    load(1_500);
    r.opt.convert_wos(t).unwrap();
    mask(FragmentKind::Ros, 100..350);
    assert!(r.opt.recluster(t).unwrap().merged);
    // 1:1 blocks (no partition key, masks carried) → the third.
    load(2_500);
    mask(FragmentKind::Wos, 0..7);
    r.opt.convert_one_to_one(t).unwrap();
    assert!(r.opt.recluster(t).unwrap().merged);
    assert_eq!(
        r.client.read_rows(t).unwrap().rows.len(),
        6_500 - 20 - 250 - 7
    );

    let mut files: Vec<(String, u64, u32)> = r
        .sms
        .list_fragments(t, r.sms.read_snapshot())
        .into_iter()
        .filter(|f| f.kind == FragmentKind::Ros)
        .map(|f| {
            let cluster = r.fleet.get(f.clusters[0]).unwrap();
            let bytes = cluster.read_all(&f.path).unwrap().data;
            // The last four bytes seal the rest.
            let body = vortex_common::crc::crc32c(&bytes[..bytes.len() - 4]);
            (f.path, f.committed_size, body)
        })
        .collect();
    files.sort();
    let want: Vec<(String, u64, u32)> = PINNED_FILES
        .iter()
        .map(|&(path, size, crc)| (path.to_string(), size, crc))
        .collect();
    assert_eq!(files, want);
}

const PINNED_FILES: &[(&str, u64, u32)] = &[
    (
        "ros/t0000000000000001/b0000000000000006",
        21_342,
        0x4252d468,
    ),
    ("ros/t0000000000000001/b0000000000000007", 4_969, 0xe56dd48f),
    (
        "ros/t0000000000000001/b0000000000000008",
        21_567,
        0x3df61485,
    ),
    ("ros/t0000000000000001/b0000000000000009", 6_000, 0x6f3d859f),
    (
        "ros/t0000000000000001/b000000000000000a",
        21_505,
        0x7262ecc4,
    ),
    ("ros/t0000000000000001/b000000000000000b", 5_532, 0x4d6daf5a),
    (
        "ros/t0000000000000001/b000000000000000c",
        21_214,
        0x22b51b72,
    ),
    ("ros/t0000000000000001/b000000000000000d", 4_697, 0x69927e52),
    (
        "ros/t0000000000000001/b000000000000000e",
        21_329,
        0x7a65e740,
    ),
    ("ros/t0000000000000001/b000000000000000f", 5_627, 0x42df1be1),
    (
        "ros/t0000000000000001/b0000000000000010",
        21_132,
        0x54bef1ee,
    ),
    ("ros/t0000000000000001/b0000000000000011", 5_237, 0x5bdbc423),
    (
        "ros/t0000000000000001/b0000000000000016",
        15_866,
        0x90f0013d,
    ),
    (
        "ros/t0000000000000001/b0000000000000017",
        16_068,
        0x56926cfc,
    ),
    (
        "ros/t0000000000000001/b0000000000000018",
        16_551,
        0xa858e05e,
    ),
    (
        "ros/t0000000000000001/b0000000000000019",
        20_791,
        0x7c28bf87,
    ),
    (
        "ros/t0000000000000001/b000000000000001a",
        11_322,
        0xa1919357,
    ),
    (
        "ros/t0000000000000001/b000000000000001b",
        20_678,
        0xf6186e39,
    ),
    (
        "ros/t0000000000000001/b000000000000001c",
        18_929,
        0xf3cadf2b,
    ),
    (
        "ros/t0000000000000001/b000000000000001d",
        20_537,
        0x2ce88ce1,
    ),
    (
        "ros/t0000000000000001/b000000000000001e",
        19_137,
        0x3765b8c7,
    ),
    (
        "ros/t0000000000000001/b0000000000000023",
        70_204,
        0x2f738950,
    ),
    (
        "ros/t0000000000000001/b0000000000000024",
        20_554,
        0x3f89a59d,
    ),
    (
        "ros/t0000000000000001/b0000000000000025",
        20_234,
        0xbafc50da,
    ),
    (
        "ros/t0000000000000001/b0000000000000026",
        16_011,
        0x0bb5b675,
    ),
    (
        "ros/t0000000000000001/b0000000000000027",
        20_389,
        0xc7abcac2,
    ),
    (
        "ros/t0000000000000001/b0000000000000028",
        20_554,
        0x40d1d595,
    ),
    (
        "ros/t0000000000000001/b0000000000000029",
        20_296,
        0xb732096b,
    ),
    ("ros/t0000000000000001/b000000000000002a", 1_362, 0x7b69ef90),
    (
        "ros/t0000000000000001/b000000000000002b",
        20_373,
        0x07e75a98,
    ),
    (
        "ros/t0000000000000001/b000000000000002c",
        20_508,
        0x424f31af,
    ),
    (
        "ros/t0000000000000001/b000000000000002d",
        20_416,
        0x086336f8,
    ),
    ("ros/t0000000000000001/b000000000000002e", 2_492, 0xb2492ab5),
];

/// Conversion and reclustering copy a typed table's cells as typed
/// slices, a column at a time: not one cell of the `orders`-shaped table
/// goes through a `Value` (`ros.cells_by_value`). The count is the
/// process's, and every table this binary's tests convert is typed, so
/// none of them adds to it either.
#[test]
fn a_typed_table_converts_without_a_value_per_cell() {
    let by_value = || {
        vortex_common::obs::global()
            .counter("ros.cells_by_value")
            .get()
    };
    let r = rig_with(OptimizerConfig {
        target_block_rows: 700,
        merge_trigger: 0.5,
    });
    let orders = Schema::new(vec![
        Field::required("day", FieldType::Int64),
        Field::required("customer", FieldType::String),
        Field::required("amount", FieldType::Int64),
        Field::required("price", FieldType::Float64),
        Field::nullable("note", FieldType::String),
        Field::required("seq", FieldType::Int64),
    ])
    .with_partition("day", PartitionTransform::Identity)
    .with_clustering(&["customer"]);
    let t = r.sms.create_table("orders", orders).unwrap().table;
    let before = by_value();
    for round in 0..3i64 {
        let rows = (0..1_500).map(|i| {
            let k = round * 1_500 + i;
            let note = match k % 10 {
                0 => Value::Null,
                _ => Value::String(format!("order note {k:08x} for the ledger")),
            };
            Row::insert(vec![
                Value::Int64(k % 3),
                Value::String(format!("cust-{:05}", (k * 7_919) % 997)),
                Value::Int64(k * 31 % 1_000),
                Value::Float64((k % 10_000) as f64 / 100.0),
                note,
                Value::Int64(k),
            ])
        });
        let mut w = r.client.create_unbuffered_writer(t).unwrap();
        w.append(RowSet::new(rows.collect())).unwrap();
        r.sms.finalize_stream(t, w.stream_id()).unwrap();
        assert_eq!(r.opt.convert_wos(t).unwrap().rows, 1_500);
        assert!(r.opt.recluster(t).unwrap().merged);
    }
    assert_eq!(by_value() - before, 0);
    assert_eq!(r.client.read_rows(t).unwrap().rows.len(), 4_500);
}
