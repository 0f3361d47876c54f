//! Cross-crate integration tests: end-to-end flows spanning ingestion,
//! optimization, query, DML, CDC, connectors, and verification.

use vortex::row::{Row, RowSet, Value};
use vortex::schema::{ChangeType, Field, FieldType, PartitionTransform, Schema};
use vortex::{
    AggKind, AuditLog, BeamSink, Expr, Region, RegionConfig, ScanOptions, SinkConfig, SqlResult,
    SqlSession, StreamType, WriterOptions,
};

fn sales_schema() -> Schema {
    Schema::new(vec![
        Field::required("day", FieldType::Int64),
        Field::required("customer", FieldType::String),
        Field::required("amount", FieldType::Int64),
    ])
    .with_partition("day", PartitionTransform::Identity)
    .with_clustering(&["customer"])
}

fn sales_rows(start: i64, n: usize) -> RowSet {
    RowSet::new(
        (0..n)
            .map(|i| {
                let k = start + i as i64;
                Row::insert(vec![
                    Value::Int64(k / 250),
                    Value::String(format!("cust-{:04}", (k * 7) % 300)),
                    Value::Int64(k),
                ])
            })
            .collect(),
    )
}

/// The whole lifecycle at a moderate scale: many writers, heartbeats,
/// conversion, reclustering, queries, DML, GC — with invariant checks at
/// every stage.
#[test]
fn large_lifecycle_with_continuous_verification() {
    let region = Region::create(RegionConfig {
        servers_per_cluster: 2,
        fragment_max_bytes: 32 * 1024,
        ..RegionConfig::default()
    })
    .unwrap();
    let client = region.client();
    let engine = region.engine();
    let audit = AuditLog::new();
    let t = client.create_table("sales", sales_schema()).unwrap().table;

    // Phase 1: concurrent streaming ingest (4 writers × 10 batches × 100).
    let streams = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let client = region.client();
                let audit = &audit;
                s.spawn(move || {
                    let mut writer = client.create_unbuffered_writer(t).unwrap();
                    for b in 0..10 {
                        let batch = sales_rows((w * 1000 + b * 100) as i64, 100);
                        let res = writer.append(batch.clone()).unwrap();
                        audit.record_append(t, writer.stream_id(), res.row_offset, &batch);
                    }
                    writer.stream_id()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    let expected = 4 * 10 * 100;

    // Verification pipeline 1+2 on fresh WOS data.
    let report = region.verifier().verify_appends(t, &audit).unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(report.appends_checked, 40);

    // Phase 2: heartbeats + finalize + optimize, verify preservation.
    region.run_heartbeats(false).unwrap();
    for s in &streams {
        region.sms().finalize_stream(t, *s).unwrap();
    }
    region.clock().advance(1_000);
    let before_conv = region.sms().read_snapshot();
    region.clock().advance(1_000);
    region.run_optimizer_cycle(t).unwrap();
    let after_conv = region.sms().read_snapshot();
    let conv_report = region
        .verifier()
        .verify_conversion(t, before_conv, after_conv)
        .unwrap();
    assert!(conv_report.is_clean(), "{:?}", conv_report.violations);

    // Phase 3: queries across the LSM.
    let count = engine
        .count(t, client.snapshot(), &ScanOptions::default())
        .unwrap();
    assert_eq!(count as usize, expected);
    let groups = engine
        .aggregate(
            t,
            client.snapshot(),
            &ScanOptions::default(),
            Some("day"),
            &[(AggKind::Count, None), (AggKind::Max, Some("amount"))],
        )
        .unwrap();
    assert!(!groups.is_empty());
    let total: i64 = groups
        .iter()
        .map(|(_, v)| match v[0] {
            Value::Int64(c) => c,
            _ => 0,
        })
        .sum();
    assert_eq!(total as usize, expected);

    // Phase 4: DML + post-DML verification of uniqueness.
    let dml = region.dml();
    let del = dml
        .delete_where(t, &Expr::lt("amount", Value::Int64(100)))
        .unwrap();
    assert!(del.rows_matched > 0);
    let report = region
        .verifier()
        .verify_appends(t, &AuditLog::new())
        .unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);

    // Phase 5: GC everything converted away; reads unaffected.
    region.advance_micros(60_000_000);
    region.run_gc(t).unwrap();
    let after_gc = engine
        .count(t, client.snapshot(), &ScanOptions::default())
        .unwrap();
    assert_eq!(after_gc, count - del.rows_matched);
}

/// Streaming + batch + CDC + pipeline all hitting one region at once.
#[test]
fn mixed_workloads_share_a_region() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();

    // Table A: streaming.
    let a = client
        .create_table("stream_t", sales_schema())
        .unwrap()
        .table;
    let mut wa = client.create_unbuffered_writer(a).unwrap();
    wa.append(sales_rows(0, 200)).unwrap();

    // Table B: batch ETL.
    let b = client
        .create_table("batch_t", sales_schema())
        .unwrap()
        .table;
    let mut streams = vec![];
    for i in 0..3 {
        let mut w = client
            .create_writer(
                b,
                WriterOptions {
                    stream_type: StreamType::Pending,
                    ..WriterOptions::default()
                },
            )
            .unwrap();
        w.append(sales_rows(i * 100, 100)).unwrap();
        streams.push(w.stream_id());
    }
    client.batch_commit(b, &streams).unwrap();

    // Table C: exactly-once pipeline output.
    let c = client.create_table("pipe_t", sales_schema()).unwrap().table;
    let sink = BeamSink::new(client.clone(), c);
    let input: Vec<Row> = sales_rows(0, 300).rows;
    sink.run(
        input,
        &SinkConfig {
            zombie_partitions: vec![1],
            duplicate_deliveries: true,
            ..SinkConfig::default()
        },
    )
    .unwrap();

    assert_eq!(client.read_rows(a).unwrap().rows.len(), 200);
    assert_eq!(client.read_rows(b).unwrap().rows.len(), 300);
    assert_eq!(client.read_rows(c).unwrap().rows.len(), 300);
}

/// Time travel stays consistent across every storage transition a row
/// can make: WOS tail → finalized WOS → delta ROS → baseline ROS → GC.
#[test]
fn time_travel_across_all_storage_generations() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let engine = region.engine();
    let t = client.create_table("tt", sales_schema()).unwrap().table;

    let mut snapshots = vec![];
    let mut w = client.create_unbuffered_writer(t).unwrap();
    w.append(sales_rows(0, 100)).unwrap();
    region.clock().advance(1_000);
    snapshots.push((client.snapshot(), 100usize));
    region.clock().advance(1_000);

    w.append(sales_rows(100, 100)).unwrap();
    region.clock().advance(1_000);
    snapshots.push((client.snapshot(), 200));
    region.clock().advance(1_000);

    let s = w.stream_id();
    region.sms().finalize_stream(t, s).unwrap();
    region.run_optimizer_cycle(t).unwrap(); // convert
    snapshots.push((client.snapshot(), 200));

    let mut w2 = client.create_unbuffered_writer(t).unwrap();
    w2.append(sales_rows(200, 100)).unwrap();
    let s2 = w2.stream_id();
    region.sms().finalize_stream(t, s2).unwrap();
    region.run_optimizer_cycle(t).unwrap(); // convert + recluster
    snapshots.push((client.snapshot(), 300));

    for (snap, expect) in &snapshots {
        let n = engine.count(t, *snap, &ScanOptions::default()).unwrap();
        assert_eq!(n as usize, *expect, "snapshot {snap}");
    }
}

/// Schema evolution is visible to late readers and transparent to
/// writers mid-stream.
#[test]
fn schema_evolution_end_to_end() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let t = client.create_table("evolve", sales_schema()).unwrap();
    let mut w = client.create_unbuffered_writer(t.table).unwrap();
    w.append(sales_rows(0, 50)).unwrap();

    let evolved = t
        .schema
        .evolve_add_column(Field::nullable("channel", FieldType::String))
        .unwrap();
    region.sms().update_schema(t.table, evolved).unwrap();

    // Old writer keeps going (pads with NULL after transparent refetch).
    w.append(sales_rows(50, 50)).unwrap();

    let rows = client.read_rows(t.table).unwrap();
    assert_eq!(rows.schema.version, 2);
    assert_eq!(rows.rows.len(), 100);
    // Every returned row is padded to the evolved arity.
    assert!(rows.rows.iter().all(|(_, r)| r.values.len() == 4));
    // Engine filters on the new column work: nothing has populated it
    // yet (old rows read as NULL; the transparently-upgraded writer pads
    // with NULL too).
    let n = region
        .engine()
        .count(
            t.table,
            client.snapshot(),
            &ScanOptions {
                predicate: Expr::IsNull("channel".into()),
                ..ScanOptions::default()
            },
        )
        .unwrap();
    assert_eq!(n, 100);
    // A writer that actually supplies the new column produces non-NULL
    // values queryable by the same filter.
    let mut w2 = client.create_unbuffered_writer(t.table).unwrap();
    w2.append(RowSet::new(vec![Row::insert(vec![
        Value::Int64(0),
        Value::String("cust-x".into()),
        Value::Int64(9_999),
        Value::String("web".into()),
    ])]))
    .unwrap();
    let n = region
        .engine()
        .count(
            t.table,
            client.snapshot(),
            &ScanOptions {
                predicate: Expr::eq("channel", Value::String("web".into())),
                ..ScanOptions::default()
            },
        )
        .unwrap();
    assert_eq!(n, 1);
}

/// CDC + optimizer + DML: merge-on-read stays correct while storage
/// reorganizes underneath.
#[test]
fn cdc_correct_across_background_reorganization() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let engine = region.engine();
    let schema = Schema::new(vec![
        Field::required("id", FieldType::Int64),
        Field::required("v", FieldType::Int64),
    ])
    .with_primary_key(&["id"]);
    let t = client.create_table("cdc", schema).unwrap().table;
    let mut w = client.create_unbuffered_writer(t).unwrap();

    let upsert = |id: i64, v: i64| {
        Row::with_change(vec![Value::Int64(id), Value::Int64(v)], ChangeType::Upsert)
    };
    w.append(RowSet::new((0..100).map(|i| upsert(i, i)).collect()))
        .unwrap();
    w.append(RowSet::new((0..50).map(|i| upsert(i, 1000 + i)).collect()))
        .unwrap();
    let s = w.stream_id();
    region.sms().finalize_stream(t, s).unwrap();
    region.run_optimizer_cycle(t).unwrap();

    let opts = ScanOptions {
        resolve_changes: true,
        ..ScanOptions::default()
    };
    let res = engine.scan(t, client.snapshot(), &opts).unwrap();
    assert_eq!(res.rows.len(), 100);
    let updated = res
        .rows
        .iter()
        .filter(|(_, r)| r.values[1].as_i64().unwrap() >= 1000)
        .count();
    assert_eq!(updated, 50, "latest upserts win after conversion");
}

/// BigLake Managed Tables (§6.4): WOS stays in Colossus, ROS lands in
/// the customer bucket; queries read the union.
#[test]
fn blmt_writes_ros_to_customer_bucket() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let t = client
        .create_blmt_table("lake", sales_schema(), "acme-datalake")
        .unwrap();
    assert_eq!(t.external_bucket.as_deref(), Some("acme-datalake"));

    let mut w = client.create_unbuffered_writer(t.table).unwrap();
    w.append(sales_rows(0, 150)).unwrap();
    let s = w.stream_id();
    region.sms().finalize_stream(t.table, s).unwrap();
    region.run_optimizer_cycle(t.table).unwrap();

    // ROS blocks exist in the bucket namespace, not the replica clusters.
    let bucket = region
        .fleet()
        .get(vortex_colossus::BUCKET_CLUSTER_ID)
        .unwrap();
    let objects = bucket.list("bucket/acme-datalake/").unwrap();
    assert!(!objects.is_empty(), "bucket holds the table's ROS blocks");
    for c in [t.primary, t.secondary] {
        let managed_ros = region.fleet().get(c).unwrap().list("ros/").unwrap();
        assert!(managed_ros.is_empty(), "no managed-storage ROS for a BLMT");
    }
    // The union read (bucket ROS + any fresh WOS) returns everything.
    let mut w2 = client.create_unbuffered_writer(t.table).unwrap();
    w2.append(sales_rows(150, 50)).unwrap();
    let rows = client.read_rows(t.table).unwrap();
    assert_eq!(rows.rows.len(), 200);
    // The engine queries it like any table.
    let n = region
        .engine()
        .count(
            t.table,
            client.snapshot(),
            &ScanOptions {
                predicate: Expr::lt("amount", Value::Int64(100)),
                ..ScanOptions::default()
            },
        )
        .unwrap();
    assert_eq!(n, 100);
    // GC of converted WOS works for BLMTs too.
    region.advance_micros(30_000_000);
    region.run_gc(t.table).unwrap();
    assert_eq!(client.read_rows(t.table).unwrap().rows.len(), 200);
}

/// Query-aware read caching (§9 future work): repeated reads of
/// immutable fragments hit the cache and return identical results.
#[test]
fn read_cache_serves_repeated_scans() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let cache = vortex::ReadCache::new(1_000_000);
    let client = region.client().with_cache(std::sync::Arc::clone(&cache));
    let t = client.create_table("hot", sales_schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(t).unwrap();
    w.append(sales_rows(0, 500)).unwrap();
    let s = w.stream_id();
    region.sms().finalize_stream(t, s).unwrap();
    region.run_optimizer_cycle(t).unwrap();

    let first = client.read_rows(t).unwrap();
    assert!(cache.tally().misses > 0 && cache.tally().hits == 0);
    let second = client.read_rows(t).unwrap();
    assert!(
        cache.tally().hits > 0,
        "second scan hits the cache: {cache:?}"
    );
    assert_eq!(first.rows, second.rows, "cache is transparent");
    // Time travel through the cache stays correct: a pre-DML snapshot
    // still sees masked rows (visibility is applied after the cache).
    let before = client.snapshot();
    region
        .dml()
        .delete_where(t, &Expr::lt("amount", Value::Int64(100)))
        .unwrap();
    let old = client.read_rows_at(t, before).unwrap();
    assert_eq!(old.rows.len(), 500);
    let new = client.read_rows(t).unwrap();
    assert_eq!(new.rows.len(), 400);
}

/// Best-effort monitoring reads (§9): with a replica down and an
/// ambiguous tail, the read returns instantly with partial data instead
/// of reconciling.
#[test]
fn best_effort_read_skips_ambiguity() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let t = client.create_table("mon", sales_schema()).unwrap();
    let mut w = client.create_unbuffered_writer(t.table).unwrap();
    w.append(sales_rows(0, 100)).unwrap();
    // One replica cluster goes dark → the tail's final append cannot be
    // decided locally.
    region
        .fleet()
        .get(t.secondary)
        .unwrap()
        .faults()
        .set_unavailable(true);
    let be = client.read_rows_best_effort(t.table).unwrap();
    assert!(!be.complete, "monitoring read reports missing data");
    // No reconciliation happened: the streamlet is still writable.
    let sl = &region.sms().list_streamlets(t.table)[0];
    assert_eq!(sl.state, vortex_sms::meta::StreamletState::Writable);
    // A normal read reconciles and returns everything.
    let full = client.read_rows(t.table).unwrap();
    assert!(full.complete);
    assert_eq!(full.rows.len(), 100);
}

/// Best-effort monitoring reads (§9): a fragment that no replica can
/// serve is skipped and the read says it is incomplete, where a normal
/// read fails with a retryable error; once the fault clears, everything
/// is back.
#[test]
fn best_effort_read_skips_an_unreadable_fragment() {
    let region = Region::create(RegionConfig::default()).unwrap();
    // A client without the region's cache, so that every read goes to
    // the clusters.
    let cold = vortex::VortexClient::new(
        region.sms().clone(),
        region.fleet().clone(),
        region.truetime().clone(),
    );
    let tm = cold.create_table("flaky", sales_schema()).unwrap();
    let t = tm.table;
    for (start, n) in [(0, 30), (30, 70)] {
        let mut w = cold.create_unbuffered_writer(t).unwrap();
        w.append(sales_rows(start, n)).unwrap();
        region.sms().finalize_stream(t, w.stream_id()).unwrap();
    }
    let rs = region
        .sms()
        .list_read_fragments(t, cold.snapshot())
        .unwrap();
    assert_eq!((rs.fragments.len(), rs.tails.len()), (2, 0));
    let kept = &rs.fragments[1];
    let clusters = [tm.primary, tm.secondary].map(|c| region.fleet().get(c).unwrap());
    // The next read of each replica fails: the first fragment's, on both.
    let fail_first = || clusters.iter().for_each(|c| c.faults().fail_next_reads(1));

    fail_first();
    let partial = cold.read_rows_best_effort(t).unwrap();
    assert!(!partial.complete, "a skipped fragment is missing data");
    assert_eq!(partial.rows.len() as u64, kept.meta.row_count);
    assert!(partial
        .rows
        .iter()
        .all(|(m, _)| m.stream == kept.stream.raw()));
    assert!(clusters.iter().all(|c| !c.faults().take_read_failure()));

    fail_first();
    let failed = cold.read_rows(t).unwrap_err();
    assert!(failed.is_retryable(), "{failed:?}");
    assert!(clusters.iter().all(|c| !c.faults().take_read_failure()));

    let full = cold.read_rows_best_effort(t).unwrap();
    assert!(full.complete);
    assert_eq!(full.rows.len(), 100);
}

/// A SQL session reads through its client's cache: a repeated `SELECT`
/// over a Region's client is served by the region's read cache and reads
/// nothing of the table's files again.
#[test]
fn sql_select_reads_through_the_client_cache() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let tm = client.create_table("sold", sales_schema()).unwrap();
    let t = tm.table;
    // A ROS block, then a finalized WOS fragment beside it.
    for (start, convert) in [(0, true), (300, false)] {
        let mut w = client.create_unbuffered_writer(t).unwrap();
        w.append(sales_rows(start, 300)).unwrap();
        region.sms().finalize_stream(t, w.stream_id()).unwrap();
        if convert {
            region.run_optimizer_cycle(t).unwrap();
        }
    }
    let sql = SqlSession::new(region.client());
    let reads = || [tm.primary, tm.secondary].map(|c| region.fleet().get(c).unwrap().read_counts());
    let query = "SELECT COUNT(*), SUM(amount) FROM sold WHERE amount >= 0";
    let first = sql.execute(query).unwrap();
    let (hits, before) = (region.read_cache().tally().hits, reads());
    let second = sql.execute(query).unwrap();
    assert!(region.read_cache().tally().hits > hits, "no cache hit");
    assert_eq!(reads(), before, "the repeat read the table's files");
    let SqlResult::Rows { rows, .. } = second else {
        panic!("a SELECT returns rows");
    };
    assert_eq!(rows, [[Value::Int64(600), Value::Int64(599 * 600 / 2)]]);
    assert!(matches!(first, SqlResult::Rows { rows: r, .. } if r == rows));
}

/// A fragment finalized by heartbeat (the server's running column stats)
/// and one finalized by reconciliation (recomputed from the log file)
/// over the same rows carry the same stats and the same mapped tail
/// masks: both sides track `Schema::tracked_columns`.
#[test]
fn heartbeat_and_reconciliation_finalize_fragments_identically() {
    let region = Region::create(RegionConfig {
        fragment_max_bytes: 1024,
        ..RegionConfig::default()
    })
    .unwrap();
    let client = region.client();
    let schema = Schema::new(vec![
        Field::required("day", FieldType::Int64),
        Field::nullable("customer", FieldType::String),
        Field::repeated("tags", FieldType::String),
        Field::required("amount", FieldType::Int64),
    ]);
    let t = client.create_table("twins", schema).unwrap().table;
    let rows = |start: i64| {
        let row = |k: i64| {
            Row::insert(vec![
                Value::Int64(k / 50),
                Value::String(format!("cust-{:04}", (k * 7) % 300)),
                Value::Array(vec![Value::String(format!("tag-{k}"))]),
                Value::Int64(k),
            ])
        };
        RowSet::new((start..start + 40).map(row).collect())
    };
    let mut by_heartbeat = client.create_unbuffered_writer(t).unwrap();
    let mut by_reconcile = client.create_unbuffered_writer(t).unwrap();
    for batch in 0..12 {
        by_heartbeat.append(rows(batch * 40)).unwrap();
        by_reconcile.append(rows(batch * 40)).unwrap();
    }
    // One statement masks the same rows in both tails, at one timestamp.
    let report = region
        .dml()
        .delete_where(t, &Expr::lt("amount", Value::Int64(130)))
        .unwrap();
    assert_eq!(report.rows_matched, 260);
    // Reconciliation first (it finalizes the streamlet, so the heartbeat
    // below no longer touches it), then the heartbeat for the other.
    let sms = region.sms();
    sms.finalize_stream(t, by_reconcile.stream_id()).unwrap();
    region.run_heartbeats(false).unwrap();

    let streamlet_of = |stream| {
        let all = sms.list_streamlets(t);
        let of_stream = all.iter().find(|sl| sl.stream == stream);
        of_stream.expect("one streamlet per stream").streamlet
    };
    let (a, b) = (
        streamlet_of(by_heartbeat.stream_id()),
        streamlet_of(by_reconcile.stream_id()),
    );
    let frags = sms.list_fragments(t, sms.read_snapshot());
    let sealed = |streamlet, ordinal| {
        frags.iter().find(|f| {
            f.streamlet == streamlet
                && f.ordinal == ordinal
                && f.state == vortex_sms::meta::FragmentState::Finalized
        })
    };
    let mut compared = 0;
    let mut masked = 0;
    for ordinal in 0.. {
        let (Some(x), Some(y)) = (sealed(a, ordinal), sealed(b, ordinal)) else {
            break;
        };
        assert_eq!((x.first_row, x.row_count), (y.first_row, y.row_count));
        assert_eq!(x.stats, y.stats, "stats of fragment {ordinal}");
        assert_eq!(x.masks, y.masks, "masks of fragment {ordinal}");
        let names: Vec<&str> = x.stats.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["day", "customer", "amount"], "scalars only");
        compared += 1;
        masked += usize::from(!x.masks.is_empty());
    }
    assert!(
        compared >= 2,
        "several sealed fragments compared: {compared}"
    );
    assert!(masked >= 1, "the tail mask reached a sealed fragment");
}

/// A catalog record that does not decode fails the query with `Decode`;
/// it used to drop the streamlet's tail from the read set, so the rows
/// vanished from the answer with no error at all.
#[test]
fn undecodable_catalog_record_fails_the_query_instead_of_losing_rows() {
    use vortex_sms::meta::{Record, StreamletMeta};
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let t = client.create_table("torn", sales_schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(t).unwrap();
    w.append(sales_rows(0, 100)).unwrap();
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 100);

    let streamlet = region.sms().list_streamlets(t)[0].streamlet;
    let mut txn = region.store().begin();
    txn.put(&StreamletMeta::key((t, streamlet)), vec![0xff]);
    txn.commit().unwrap();

    let read = client.read_rows(t);
    assert!(
        matches!(read, Err(vortex::VortexError::Decode(_))),
        "{read:?}"
    );
    let scanned = region
        .engine()
        .scan(t, client.snapshot(), &ScanOptions::default());
    assert!(matches!(scanned, Err(vortex::VortexError::Decode(_))));
}

/// The groomer (§5.4.3): dropping a table orphans its data; the sweep
/// deletes files and metadata.
#[test]
fn groomer_cleans_dropped_tables() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let t = client.create_table("doomed", sales_schema()).unwrap();
    let keep = client.create_table("kept", sales_schema()).unwrap();
    for table in [t.table, keep.table] {
        let mut w = client.create_unbuffered_writer(table).unwrap();
        w.append(sales_rows(0, 100)).unwrap();
        let s = w.stream_id();
        region.sms().finalize_stream(table, s).unwrap();
    }
    region.run_optimizer_cycle(t.table).unwrap();

    region.sms().drop_table(t.table).unwrap();
    assert!(client.read_rows(t.table).is_err(), "table record gone");
    // Orphans still on disk until the groomer runs.
    let (entities, files) = region.sms().run_groomer().unwrap();
    assert!(entities > 0, "orphaned metadata removed");
    assert!(files > 0, "orphaned files removed");
    // Nothing of the dropped table remains in storage.
    for c in region.fleet().cluster_ids() {
        let cl = region.fleet().get(c).unwrap();
        let t_hex = format!("{:016x}", t.table.raw());
        assert!(cl.list(&format!("wos/t{t_hex}")).unwrap().is_empty());
        assert!(cl.list(&format!("ros/t{t_hex}")).unwrap().is_empty());
    }
    // The surviving table is untouched.
    assert_eq!(client.read_rows(keep.table).unwrap().rows.len(), 100);
    // Idempotent.
    let (e2, f2) = region.sms().run_groomer().unwrap();
    assert_eq!((e2, f2), (0, 0));
}

/// The background daemon: real threads keep the system converged while
/// clients write and query concurrently.
#[test]
fn daemon_converges_system_under_live_traffic() {
    let region = std::sync::Arc::new(
        Region::create(RegionConfig {
            fragment_max_bytes: 16 * 1024,
            ..RegionConfig::default()
        })
        .unwrap(),
    );
    let client = region.client();
    let t = client.create_table("live", sales_schema()).unwrap().table;
    let daemon = vortex::RegionDaemon::start(
        std::sync::Arc::clone(&region),
        vortex::DaemonConfig::default(),
    );
    daemon.watch_table(t);

    // Live traffic while every background loop runs.
    let mut w = client.create_unbuffered_writer(t).unwrap();
    for i in 0..20 {
        w.append(sales_rows(i * 100, 100)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let s = w.stream_id();
    region.sms().finalize_stream(t, s).unwrap();
    // Give the loops a few rounds to convert + recluster.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        region.advance_micros(1_000_000);
        let backlog = region.optimizer().backlog(t);
        if backlog == 0 && region.optimizer().clustering_ratio(t).unwrap() > 0.99 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon failed to converge: backlog {backlog}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    // Everything still exactly once.
    let rows = client.read_rows(t).unwrap();
    assert_eq!(rows.rows.len(), 2_000);
    let stats = daemon.stats();
    assert!(stats.heartbeats.load(std::sync::atomic::Ordering::Relaxed) > 0);
    assert!(
        stats
            .optimizer_cycles
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
    );
    daemon.shutdown();
    // Post-shutdown the data is intact.
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 2_000);
}

/// On-disk durability across a full region restart: Colossus bytes plus
/// a metastore checkpoint bring every table back.
#[test]
fn region_restart_from_disk_checkpoint() {
    let dir = std::env::temp_dir().join(format!("vortex-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || RegionConfig {
        disk_root: Some(dir.clone()),
        ..RegionConfig::default()
    };
    let table_id;
    {
        let region = Region::create(cfg()).unwrap();
        let client = region.client();
        let t = client.create_table("persistent", sales_schema()).unwrap();
        table_id = t.table;
        let mut w = client.create_unbuffered_writer(t.table).unwrap();
        w.append(sales_rows(0, 120)).unwrap();
        let s = w.stream_id();
        region.sms().finalize_stream(t.table, s).unwrap();
        region.run_optimizer_cycle(t.table).unwrap();
        region.checkpoint_metadata().unwrap();
        // Region dropped: the "process" exits.
    }
    {
        let region = Region::create(cfg()).unwrap();
        let client = region.client();
        // The table resolves by name after restart.
        let t = client.table("persistent").unwrap();
        assert_eq!(t.table, table_id);
        let rows = client.read_rows(t.table).unwrap();
        assert_eq!(rows.rows.len(), 120, "all data survives the restart");
        // And the table is still writable (new streams on fresh servers).
        let mut w = client.create_unbuffered_writer(t.table).unwrap();
        w.append(sales_rows(120, 30)).unwrap();
        assert_eq!(client.read_rows(t.table).unwrap().rows.len(), 150);
        // New tables after restart get fresh ids (no collision with
        // restored metadata).
        let t2 = client.create_table("post_restart", sales_schema()).unwrap();
        assert_ne!(t2.table, t.table);
        let mut w2 = client.create_unbuffered_writer(t2.table).unwrap();
        w2.append(sales_rows(0, 10)).unwrap();
        assert_eq!(client.read_rows(t2.table).unwrap().rows.len(), 10);
        assert_eq!(client.read_rows(t.table).unwrap().rows.len(), 150);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_shutdown_is_prompt_even_with_long_periods() {
    // The loops park on a shutdown-aware condvar between rounds, so
    // stopping the daemon must not wait out the configured cadence.
    let region = std::sync::Arc::new(Region::create(RegionConfig::default()).unwrap());
    let long = std::time::Duration::from_secs(30);
    let daemon = vortex::RegionDaemon::start(
        std::sync::Arc::clone(&region),
        vortex::DaemonConfig {
            heartbeat_every: long,
            tick_every: long,
            optimize_every: long,
            gc_every: long,
            checkpoint_every: long,
            full_state_every: 10,
        },
    );
    // Let every loop reach its first park.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let started = std::time::Instant::now();
    daemon.shutdown();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "shutdown blocked on a sleeping loop: {:?}",
        started.elapsed()
    );
}
