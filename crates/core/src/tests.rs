//! Region-level integration tests: the whole engine working together.

use vortex_common::row::{Row, RowSet, Value};
use vortex_common::schema::{Field, FieldType, PartitionTransform, Schema};

use crate::region::{Region, RegionConfig};
use crate::{Expr, FragmentState, ScanOptions, SinkConfig, StreamType, WriterOptions};

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
                    Value::Int64(k / 100),
                    Value::String(format!("cust-{:03}", k % 40)),
                    Value::Int64(k),
                ])
            })
            .collect(),
    )
}

#[test]
fn full_lifecycle_ingest_optimize_query_dml_gc_verify() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let t = client.create_table("sales", schema()).unwrap().table;

    // 1. Streaming ingest with audited appends.
    let audit = crate::AuditLog::new();
    let mut w = client.create_unbuffered_writer(t).unwrap();
    for i in 0..4 {
        let batch = rows(i * 100, 100);
        let res = w.append(batch.clone()).unwrap();
        audit.record_append(t, w.stream_id(), res.row_offset, &batch);
    }
    let stream = w.stream_id();

    // 2. Fresh data visible instantly; heartbeats register fragments.
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 400);
    region.run_heartbeats(false).unwrap();
    region.run_ticks();

    // 3. Finalize + optimize: WOS→ROS + recluster.
    region.sms().finalize_stream(t, stream).unwrap();
    region.run_optimizer_cycle(t).unwrap();
    assert!(region.optimizer().clustering_ratio(t).unwrap() > 0.99);

    // 4. Query with pruning.
    let engine = region.engine();
    let res = engine
        .scan(
            t,
            region.sms().read_snapshot(),
            &ScanOptions {
                predicate: Expr::eq("day", Value::Int64(2)),
                ..ScanOptions::default()
            },
        )
        .unwrap();
    assert_eq!(res.rows.len(), 100);
    assert!(res.stats.pruned_by_stats > 0);

    // 5. DML delete + update.
    let dml = region.dml();
    let del = dml
        .delete_where(t, &Expr::lt("amount", Value::Int64(50)))
        .unwrap();
    assert_eq!(del.rows_matched, 50);
    dml.update_where(
        t,
        &Expr::eq("amount", Value::Int64(399)),
        &[("customer", Value::String("vip".into()))],
    )
    .unwrap();
    let all = client.read_rows(t).unwrap();
    assert_eq!(all.rows.len(), 350);

    // 6. GC after the grace period.
    region.advance_micros(30_000_000);
    region.run_gc(t).unwrap();
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 350);

    // 7. Verification pipelines: uniqueness holds (the audit check only
    // covers still-visible rows, so run the location-uniqueness part).
    let report = region
        .verifier()
        .verify_appends(t, &crate::AuditLog::new())
        .unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn batch_and_streaming_unify_on_one_table() {
    // §7.5: PENDING batch ETL and UNBUFFERED streaming into one table.
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let t = client.create_table("unified", schema()).unwrap().table;

    // Streaming writers.
    let mut live = client.create_unbuffered_writer(t).unwrap();
    live.append(rows(0, 50)).unwrap();

    // Batch workers: 3 PENDING streams committed atomically.
    let mut streams = vec![];
    for i in 0..3 {
        let mut w = client
            .create_writer(
                t,
                WriterOptions {
                    stream_type: StreamType::Pending,
                    ..WriterOptions::default()
                },
            )
            .unwrap();
        w.append(rows(1000 + i * 100, 100)).unwrap();
        streams.push(w.stream_id());
    }
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 50, "batch hidden");
    client.batch_commit(t, &streams).unwrap();
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 350);
    // Streaming continues after the batch.
    live.append(rows(50, 50)).unwrap();
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 400);
}

#[test]
fn exactly_once_sink_through_region() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let t = client.create_table("events", schema()).unwrap().table;
    let sink = crate::BeamSink::new(client.clone(), t);
    let input: Vec<Row> = (0..200)
        .map(|i| {
            Row::insert(vec![
                Value::Int64(i / 100),
                Value::String(format!("cust-{i}")),
                Value::Int64(i),
            ])
        })
        .collect();
    let cfg = SinkConfig {
        zombie_partitions: vec![1],
        duplicate_deliveries: true,
        ..SinkConfig::default()
    };
    sink.run(input, &cfg).unwrap();
    let rows = client.read_rows(t).unwrap();
    assert_eq!(rows.rows.len(), 200);
}

#[test]
fn cluster_failover_keeps_table_writable() {
    let region = Region::create(RegionConfig {
        clusters: 3,
        ..RegionConfig::default()
    })
    .unwrap();
    let client = region.client();
    let t = client.create_table("ha", schema()).unwrap();
    let mut w = client.create_unbuffered_writer(t.table).unwrap();
    w.append(rows(0, 30)).unwrap();
    // The primary cluster goes down entirely.
    region
        .fleet()
        .get(t.primary)
        .unwrap()
        .faults()
        .set_unavailable(true);
    // Transparent failover: swap primary/secondary, rotate, keep writing.
    region.sms().fail_over_table(t.table).unwrap();
    w.append(rows(30, 30)).unwrap();
    // Reads still work too (replica failover + reconciliation).
    let rows_read = client.read_rows(t.table).unwrap();
    assert_eq!(rows_read.rows.len(), 60);
}

#[test]
fn multi_sms_region_shards_tables() {
    let region = Region::create(RegionConfig {
        sms_tasks: 3,
        ..RegionConfig::default()
    })
    .unwrap();
    // Create several tables; each lands on its Slicer-assigned task.
    let mut seen_tasks = std::collections::HashSet::new();
    for i in 0..8 {
        // Table ids come from the shared IdGen regardless of which task
        // creates them; create through the owning task's client.
        let bootstrap = region.client();
        let t = bootstrap
            .create_table(&format!("tbl-{i}"), schema())
            .unwrap()
            .table;
        let owner = region.sms_for(t);
        seen_tasks.insert(owner.task_id());
        let client = region.client_for(t);
        let mut w = client.create_unbuffered_writer(t).unwrap();
        w.append(rows(0, 10)).unwrap();
        assert_eq!(client.read_rows(t).unwrap().rows.len(), 10);
    }
    assert!(seen_tasks.len() > 1, "tables spread over SMS tasks");
}

#[test]
fn heartbeat_pump_enables_fragment_reads_and_gc() {
    let region = Region::create(RegionConfig {
        fragment_max_bytes: 2_000,
        ..RegionConfig::default()
    })
    .unwrap();
    let client = region.client();
    let t = client.create_table("hb", schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(t).unwrap();
    for i in 0..10 {
        w.append(rows(i * 20, 20)).unwrap();
    }
    // Heartbeats register rotated fragments with the SMS.
    region.run_heartbeats(false).unwrap();
    let rs = region
        .sms()
        .list_read_fragments(t, region.sms().read_snapshot())
        .unwrap();
    assert!(!rs.fragments.is_empty(), "finalized fragments known to SMS");
    // Optimize → WOS fragments become GC candidates; after grace the
    // heartbeat response carries GC orders and acks drop metadata.
    let stream = w.stream_id();
    region.sms().finalize_stream(t, stream).unwrap();
    region.run_optimizer_cycle(t).unwrap();
    region.advance_micros(30_000_000);
    let removed = region.run_gc(t).unwrap();
    assert!(removed > 0);
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 200);
}

/// A heartbeat that reports nothing new writes no catalog record.
#[test]
fn an_unchanged_heartbeat_writes_no_record() {
    let region = Region::create(RegionConfig {
        fragment_max_bytes: 2_000,
        ..RegionConfig::default()
    })
    .unwrap();
    let client = region.client();
    let t = client.create_table("hb", schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(t).unwrap();
    for i in 0..10 {
        w.append(rows(i * 20, 20)).unwrap();
    }
    region.run_heartbeats(false).unwrap();
    let versions = region.store().version_count();
    for _ in 0..2 {
        region.run_heartbeats(true).unwrap();
        assert_eq!(region.store().version_count(), versions);
    }
}

/// A heartbeat an SMS task fails to apply is made good by the next
/// round, an ordinary one: the server reports full state, and the
/// fragments sealed before the missed round are listed as finalized.
#[test]
fn a_missed_heartbeat_is_reported_next_round() {
    let region = Region::create(RegionConfig {
        fragment_max_bytes: 2_000,
        ..RegionConfig::default()
    })
    .unwrap();
    let client = region.client();
    let t = client.create_table("hb", schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(t).unwrap();
    for i in 0..10 {
        w.append(rows(i * 20, 20)).unwrap();
    }
    let finalized = || {
        let listed = region.sms().list_fragments(t, region.sms().read_snapshot());
        let sealed = listed
            .iter()
            .filter(|f| f.state == FragmentState::Finalized);
        sealed.count()
    };
    let faults = region.sms_rpc().faults();
    faults.set_method_filter(Some("heartbeat"));
    faults.set_unavailable(true);
    region.run_heartbeats(false).unwrap();
    faults.clear();
    assert_eq!(finalized(), 0, "the missed round reached no SMS task");
    region.run_heartbeats(false).unwrap();
    assert!(
        finalized() > 0,
        "the next round reported the sealed fragments"
    );
}

/// Every SMS task hears every heartbeat, and only the table's owner
/// applies it: three tasks write what one does.
#[test]
fn each_heartbeat_is_applied_by_one_sms_task() {
    let written = |sms_tasks| {
        let region = Region::create(RegionConfig {
            sms_tasks,
            fragment_max_bytes: 2_000,
            ..RegionConfig::default()
        })
        .unwrap();
        let t = region.client().create_table("hb", schema()).unwrap().table;
        let mut w = region.client_for(t).create_unbuffered_writer(t).unwrap();
        let per_heartbeat = (0..3).map(|round| {
            for i in 0..5 {
                w.append(rows(round * 100 + i * 20, 20)).unwrap();
            }
            let before = region.store().version_count();
            region.run_heartbeats(round == 2).unwrap();
            region.store().version_count() - before
        });
        per_heartbeat.collect::<Vec<_>>()
    };
    let one = written(1);
    assert!(one.iter().all(|&n| n > 0), "{one:?}");
    assert_eq!(written(3), one);
}

#[test]
fn on_disk_region_persists_bytes() {
    let dir = std::env::temp_dir().join(format!("vortex-region-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let region = Region::create(RegionConfig {
        disk_root: Some(dir.clone()),
        ..RegionConfig::default()
    })
    .unwrap();
    let client = region.client();
    let t = client.create_table("disk", schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(t).unwrap();
    w.append(rows(0, 25)).unwrap();
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 25);
    // Real files exist under both cluster roots.
    for c in 0..2 {
        let files = std::fs::read_dir(dir.join(format!("cluster-{c}")))
            .unwrap()
            .count();
        assert!(files > 0, "cluster {c} wrote files");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn doc_example_compiles_and_runs() {
    // Mirrors the crate-level doc example.
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let table = client
        .create_table(
            "events",
            Schema::new(vec![
                Field::required("id", FieldType::Int64),
                Field::required("msg", FieldType::String),
            ]),
        )
        .unwrap();
    let mut writer = client.create_unbuffered_writer(table.table).unwrap();
    writer
        .append(RowSet::new(vec![Row::insert(vec![
            Value::Int64(1),
            Value::String("hello vortex".into()),
        ])]))
        .unwrap();
    assert_eq!(client.read_rows(table.table).unwrap().rows.len(), 1);
}

/// GC lets go of what the region's read cache holds of the files it
/// deletes: a queried table's log files are converted and its first blocks
/// reclustered away, and after the sweep no entry names a deleted file and
/// the bytes held fall by exactly those entries'.
#[test]
fn gc_drops_the_cache_entries_of_collected_files() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let t = client.create_table("collected", schema()).unwrap().table;
    let engine = region.engine();
    let scan = || {
        let all = engine.scan(t, client.snapshot(), &ScanOptions::default());
        all.unwrap().rows.len()
    };
    // Two streams over the same days and customers: each converts to
    // blocks of its own, which a recluster merges.
    for stream in 1..=2 {
        let mut w = client.create_unbuffered_writer(t).unwrap();
        w.append(rows(0, 500)).unwrap();
        region.sms().finalize_stream(t, w.stream_id()).unwrap();
        assert_eq!(scan(), 500 * stream);
        region.optimizer().convert_wos(t).unwrap();
        assert_eq!(scan(), 500 * stream);
    }
    assert!(region.optimizer().recluster(t).unwrap().merged);
    assert_eq!(scan(), 1_000);
    let cache = region.read_cache();
    let (held, bytes) = (cache.entries(), cache.bytes());
    region.advance_micros(30_000_000);
    assert!(region.run_gc(t).unwrap() > 0);
    let exists = |path: &str| region.fleet().clusters().any(|c| c.exists(path));
    let (gone, kept): (Vec<_>, Vec<_>) = held.into_iter().partition(|(p, _)| !exists(p));
    let collected = |kind: &str| gone.iter().filter(|(p, _)| p.starts_with(kind)).count();
    assert!(collected("wos/") > 0 && collected("ros/") > 0, "{gone:?}");
    assert_eq!(cache.entries(), kept);
    assert_eq!(
        cache.bytes(),
        bytes - gone.iter().map(|(_, n)| n).sum::<usize>()
    );
    assert_eq!(scan(), 1_000);
}

/// GC drops the records of converted log files from under a *live*
/// streamlet; its tail must still start where they ended (regression:
/// it restarted at ordinal 0, the probe found nothing and every fresh
/// read failed "snapshot too old: ... tail collected").
#[test]
fn a_fresh_snapshot_is_never_too_old() {
    let region = Region::create(RegionConfig {
        fragment_max_bytes: 8 << 10,
        ..RegionConfig::default()
    })
    .unwrap();
    let client = region.client();
    let t = client.create_table("live", schema()).unwrap();
    let (key, t) = (t.encryption_key(), t.table);
    let mut w = client.create_unbuffered_writer(t).unwrap();
    let tail_of = |at| region.sms().list_read_fragments(t, at).unwrap().tails[0].clone();
    // A cache no fragment goes through: what it holds is tail log files.
    let tails = vortex_client::ReadCache::new(usize::MAX);
    let read_tail = |at| {
        let tails = Some(tails.as_ref());
        vortex_client::read::read_tail_cached(&tail_of(at), region.fleet(), &key, at, tails)
            .map(drop)
    };
    let mut appended = 0u64;
    for round in 0..6 {
        for i in 0..40 {
            w.append(rows(appended as i64, 50)).unwrap();
            appended += 50;
            if i % 20 == 19 {
                region.run_heartbeats(false).unwrap();
                region.run_ticks();
            }
        }
        let engine = region.engine();
        let count = |at| engine.count(t, at, &ScanOptions::default());
        let before = client.snapshot();
        assert_eq!(count(before).unwrap(), appended, "round {round}");
        read_tail(before).unwrap();
        region.run_optimizer_cycle(t).unwrap();
        region.advance_micros(30_000_000);
        assert!(
            region.run_gc(t).unwrap() > 0,
            "round {round}: nothing collected"
        );

        let fresh = client.snapshot();
        let tail = tail_of(fresh);
        assert!(tail.from_ordinal > 0 && tail.from_row > 0, "{tail:?}");
        assert_eq!(count(fresh).unwrap(), appended, "round {round}, after GC");
        // A cache holds an entry for each of the tail's log files, and
        // once it forgets the collected ones, none of a deleted file.
        read_tail(fresh).unwrap();
        let first = format!("{}f{:08x}", tail.path_prefix, tail.from_ordinal);
        let replica = region.fleet().get(tail.clusters[0]).unwrap();
        let mut files = replica.list(&tail.path_prefix).unwrap();
        files.retain(|path| *path >= first);
        let held = || tails.entries().into_iter().map(|(path, _)| path);
        let exists = |path: &String| region.fleet().clusters().any(|c| c.exists(path));
        assert!(
            files.iter().all(|f| held().any(|p| p == *f)),
            "round {round}"
        );
        tails.forget(&held().filter(|p| !exists(p)).collect::<Vec<_>>());
        assert!(held().all(|p| exists(&p)), "round {round}");
        // A snapshot from before the collection still sees the records
        // and, with nothing cached, looks for the files and fails honestly.
        let cold = crate::QueryEngine::new(region.sms().clone(), region.fleet().clone());
        let stale = cold.count(t, before, &ScanOptions::default()).unwrap_err();
        assert!(matches!(stale, crate::VortexError::NotFound(_)), "{stale}");
    }
}
