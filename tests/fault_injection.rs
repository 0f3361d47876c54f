//! Failure-injection integration tests: the paper's resilience machinery
//! under cluster outages, write errors, zombies, and restarts.

use vortex::row::{Row, RowSet, Value};
use vortex::schema::{Field, FieldType, Schema};
use vortex::{Expr, QueryEngine, Region, RegionConfig, ScanOptions};

fn schema() -> Schema {
    Schema::new(vec![
        Field::required("k", FieldType::Int64),
        Field::required("v", FieldType::String),
    ])
}

fn rows(start: i64, n: usize) -> RowSet {
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

fn keys(rows: &[(vortex_ros::RowMeta, Row)]) -> Vec<i64> {
    let mut ks: Vec<i64> = rows
        .iter()
        .map(|(_, r)| r.values[0].as_i64().unwrap())
        .collect();
    ks.sort_unstable();
    ks
}

/// Repeated transient write errors on one cluster: the engine rotates
/// fragments and streamlets as designed and loses nothing.
#[test]
fn flaky_cluster_never_loses_acked_rows() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let t = client.create_table("flaky", schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(t).unwrap();

    let flaky = region.fleet().get(t_cluster(&region, t, 1)).unwrap();
    let mut written = 0i64;
    for round in 0..10 {
        if round % 3 == 1 {
            flaky.faults().fail_next_appends(2);
        }
        w.append(rows(written, 20)).unwrap();
        written += 20;
    }
    let got = client.read_rows(t).unwrap();
    assert_eq!(keys(&got.rows), (0..written).collect::<Vec<_>>());
    // Exactly-once offsets.
    let mut offsets: Vec<u64> = got.rows.iter().map(|(m, _)| m.offset).collect();
    offsets.sort_unstable();
    offsets.dedup();
    assert_eq!(offsets.len() as i64, written);
}

fn t_cluster(region: &Region, table: vortex::ids::TableId, which: usize) -> vortex::ids::ClusterId {
    let tm = region.sms().get_table(table).unwrap();
    if which == 0 {
        tm.primary
    } else {
        tm.secondary
    }
}

/// A full cluster outage mid-ingest: writes fail over to a healthy
/// replica pair; reads fail over to the surviving replica.
#[test]
fn cluster_outage_with_failover() {
    let region = Region::create(RegionConfig {
        clusters: 3,
        ..RegionConfig::default()
    })
    .unwrap();
    let client = region.client();
    let t = client.create_table("outage", schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(t).unwrap();
    w.append(rows(0, 50)).unwrap();

    // Primary cluster dies.
    let dead = t_cluster(&region, t, 0);
    region
        .fleet()
        .get(dead)
        .unwrap()
        .faults()
        .set_unavailable(true);
    region.sms().fail_over_table(t).unwrap();

    // Writes continue on a healthy pair.
    w.append(rows(50, 50)).unwrap();
    // Reads reconcile + fail over.
    let got = client.read_rows(t).unwrap();
    assert_eq!(keys(&got.rows), (0..100).collect::<Vec<_>>());

    // The cluster comes back: everything still consistent.
    region
        .fleet()
        .get(dead)
        .unwrap()
        .faults()
        .set_unavailable(false);
    let got = client.read_rows(t).unwrap();
    assert_eq!(got.rows.len(), 100);
}

/// Optimizer + DML racing under churn: run conversions and deletes in
/// alternation with flaky storage; final state must match the ledger.
#[test]
fn optimizer_dml_interleaving_under_faults() {
    let region = Region::create(RegionConfig {
        fragment_max_bytes: 8 * 1024,
        ..RegionConfig::default()
    })
    .unwrap();
    let client = region.client();
    let engine = region.engine();
    let dml = region.dml();
    let t = client.create_table("churn", schema()).unwrap().table;

    let mut expected: std::collections::BTreeSet<i64> = Default::default();
    let mut next = 0i64;
    for round in 0..6 {
        // Ingest.
        let mut w = client.create_unbuffered_writer(t).unwrap();
        w.append(rows(next, 100)).unwrap();
        for k in next..next + 100 {
            expected.insert(k);
        }
        next += 100;
        let s = w.stream_id();
        region.sms().finalize_stream(t, s).unwrap();
        // Fault burst on alternating rounds.
        if round % 2 == 0 {
            region
                .fleet()
                .get(t_cluster(&region, t, 1))
                .unwrap()
                .faults()
                .fail_next_appends(1);
        }
        // Delete a band.
        let lo = round * 40;
        let hi = lo + 20;
        dml.delete_where(
            t,
            &Expr::ge("k", Value::Int64(lo)).and(Expr::lt("k", Value::Int64(hi))),
        )
        .unwrap();
        for k in lo..hi {
            expected.remove(&k);
        }
        // Optimize (may yield or convert).
        region.run_optimizer_cycle(t).unwrap();
    }
    let got = engine
        .scan(t, client.snapshot(), &ScanOptions::default())
        .unwrap();
    assert_eq!(
        keys(&got.rows),
        expected.into_iter().collect::<Vec<_>>(),
        "ledger matches after churn"
    );
}

/// Stream Server metadata-log recovery: a restarted server can identify
/// the streamlets a dead instance hosted.
#[test]
fn stream_server_crash_recovery_summary() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let t = client.create_table("crash", schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(t).unwrap();
    w.append(rows(0, 30)).unwrap();
    // Checkpoint whichever server hosts the streamlet.
    for server in region.servers() {
        server.checkpoint().unwrap();
    }
    // Recover summaries from the metadata logs.
    let mut recovered = 0;
    for server in region.servers() {
        let summary =
            vortex_server::StreamServer::recover_summary(server.config(), region.fleet()).unwrap();
        recovered += summary.len();
    }
    assert!(recovered >= 1, "hosted streamlet identity recoverable");
    // Data remains durable and readable regardless.
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 30);
}

/// Double ownership at the SMS layer (the Slicer hazard): two tasks over
/// one metastore serve the same table concurrently without corruption.
#[test]
fn sms_double_ownership_interleaved_operations() {
    let region = Region::create(RegionConfig {
        sms_tasks: 2,
        ..RegionConfig::default()
    })
    .unwrap();
    // Both tasks will act on the SAME table regardless of assignment —
    // the metastore transactions keep this safe (§5.2.1).
    let bootstrap = region.client();
    let t = bootstrap.create_table("shared", schema()).unwrap().table;
    // Force a double-ownership window: both tasks believe they own it.
    let client_a = vortex::VortexClient::new(
        std::sync::Arc::clone(&region.sms_tasks()[0]),
        region.fleet().clone(),
        region.truetime().clone(),
    );
    let client_b = vortex::VortexClient::new(
        std::sync::Arc::clone(&region.sms_tasks()[1]),
        region.fleet().clone(),
        region.truetime().clone(),
    );
    // Tasks use SlicerViews; make both claim the table.
    region.slicer().reassign(t, region.sms_tasks()[0].task_id());
    let (ca, cb) = (client_a.clone(), client_b.clone());
    // Writer A through task 0's view of the world; B bypasses ownership
    // via direct streams (simulating the stale-assignment window).
    let mut wa = ca.create_unbuffered_writer(t).unwrap();
    wa.append(rows(0, 25)).unwrap();
    region.slicer().reassign(t, region.sms_tasks()[1].task_id());
    let mut wb = cb.create_unbuffered_writer(t).unwrap();
    wb.append(rows(1000, 25)).unwrap();
    // Both streams' rows are present exactly once.
    let got = bootstrap.read_rows(t).unwrap();
    assert_eq!(got.rows.len(), 50);
    let ks = keys(&got.rows);
    assert_eq!(ks[0..25], (0..25).collect::<Vec<_>>()[..]);
    assert_eq!(ks[25..50], (1000..1025).collect::<Vec<_>>()[..]);
}

/// Regression (found by the chaos soak): reconciliation of a streamlet
/// whose replicas are being actively faulted must count every
/// acknowledged row. A replica that is unreachable or mid-fault at
/// poison time cannot silently shrink the record-aligned common prefix.
#[test]
fn reconcile_under_faults_counts_all_acked_rows() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let t = client.create_table("recon", schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(t).unwrap();

    // Interleave acked appends with fault bursts on alternating replicas.
    let c0 = region.fleet().get(t_cluster(&region, t, 0)).unwrap();
    let c1 = region.fleet().get(t_cluster(&region, t, 1)).unwrap();
    let mut acked = 0i64;
    for round in 0..12 {
        match round % 4 {
            1 => c0.faults().fail_next_appends(1),
            3 => c1.faults().fail_next_appends(2),
            _ => {}
        }
        w.append(rows(acked, 15)).unwrap();
        acked += 15;
    }

    // Reconcile every live streamlet while more fault tokens are armed —
    // the poison/copy phase itself must tolerate them.
    c0.faults().fail_next_appends(1);
    c1.faults().fail_next_appends(1);
    let sms = region.sms();
    let mut counted = 0u64;
    for sl in sms.list_streamlets(t) {
        let m = sms.reconcile_streamlet(t, sl.streamlet).unwrap();
        counted += m.row_count;
    }
    assert_eq!(counted as i64, acked, "reconcile lost or invented rows");

    // Every acked row is visible exactly once after reconciliation.
    let got = client.read_rows(t).unwrap();
    assert_eq!(keys(&got.rows), (0..acked).collect::<Vec<_>>());
    let mut offsets: Vec<u64> = got.rows.iter().map(|(m, _)| m.offset).collect();
    offsets.sort_unstable();
    offsets.dedup();
    assert_eq!(offsets.len() as i64, acked);
}

/// Regression (found by the chaos soak): a reconcile racing a live
/// writer must fence it — either an append is fully acknowledged and
/// counted, or it fails and the writer re-drives it onto a fresh
/// streamlet. No row may be acked-but-lost or double-applied.
#[test]
fn reconcile_racing_live_writer_is_exact() {
    use std::sync::atomic::{AtomicI64, Ordering};
    let region = std::sync::Arc::new(Region::create(RegionConfig::default()).unwrap());
    let client = region.client();
    let t = client.create_table("race", schema()).unwrap().table;

    let acked = AtomicI64::new(0);
    std::thread::scope(|s| {
        let region2 = std::sync::Arc::clone(&region);
        let client2 = region2.client();
        let acked = &acked;
        let h = s.spawn(move || {
            let mut w = client2.create_unbuffered_writer(t).unwrap();
            for i in 0..40i64 {
                w.append(rows(i * 10, 10)).unwrap();
                acked.store((i + 1) * 10, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
        });
        // Reconcile whatever is live, repeatedly, while the writer runs.
        let sms = region.sms();
        for _ in 0..6 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            for sl in sms.list_streamlets(t) {
                if sl.state != vortex::StreamletState::Finalized {
                    let _ = sms.reconcile_streamlet(t, sl.streamlet);
                }
            }
        }
        h.join().unwrap();
    });

    let n = acked.load(std::sync::atomic::Ordering::SeqCst);
    assert_eq!(n, 400, "writer must survive reconciliation storms");
    let got = client.read_rows(t).unwrap();
    assert_eq!(keys(&got.rows), (0..n).collect::<Vec<_>>());
}

/// `CreateStream` opens the first fragment on the data plane, so it is
/// exposed to transient storage faults; the client must absorb a burst
/// rather than surface it to the application.
#[test]
fn create_writer_retries_transient_faults() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let t = client.create_table("cw", schema()).unwrap().table;
    for c in region.fleet().cluster_ids() {
        region.fleet().get(c).unwrap().faults().fail_next_appends(1);
    }
    let mut w = client.create_unbuffered_writer(t).unwrap();
    w.append(rows(0, 10)).unwrap();
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 10);
}

/// A Stream Server process death and restart: every call through the
/// dead server's handle fails retryably (never fatally), the restarted
/// instance rebuilds from checkpoint + WAL only, and a writer that kept
/// retrying across the outage lands every row exactly once.
#[test]
fn kill_restart_server_recovers_acked_rows() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let t = client.create_table("kr", schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(t).unwrap();
    w.append(rows(0, 30)).unwrap();

    // Checkpoint one server so recovery exercises snapshot + tail replay
    // (the others rebuild from pure WAL).
    region.servers()[0].checkpoint().unwrap();

    // The whole fleet dies at once: nothing is placeable, so appends —
    // and the rotations they trigger — keep failing, but always
    // retryably.
    for i in 0..region.server_channels().len() {
        region.kill_server(i);
    }
    let err = w.append(rows(30, 10)).unwrap_err();
    assert!(err.is_retryable(), "outage must surface retryably: {err}");

    // Restart from durable state only, reconcile, and retry.
    for i in 0..region.server_channels().len() {
        region.restart_server(i).unwrap();
    }
    region.run_heartbeats(true).unwrap();
    loop {
        match w.append(rows(30, 10)) {
            Ok(_) => break,
            Err(e) if e.is_retryable() => continue,
            Err(e) => panic!("append after restart failed: {e}"),
        }
    }
    let got = client.read_rows(t).unwrap();
    assert_eq!(keys(&got.rows), (0..40).collect::<Vec<_>>());
    let mut offsets: Vec<u64> = got.rows.iter().map(|(m, _)| m.offset).collect();
    offsets.sort_unstable();
    offsets.dedup();
    assert_eq!(offsets.len(), 40, "restart must not duplicate rows");
}

/// An SMS task death and restart: control-plane calls fail retryably
/// while it is down, appends to already-open streamlets keep working
/// (the data plane does not transit the SMS), and the restarted task —
/// a fresh instance over the same durable metastore — serves the same
/// tables, and prunes a converted table on the column properties its
/// catalog holds exactly as the task before the kill did.
#[test]
fn kill_restart_sms_task_preserves_control_plane() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    // Two converted ROS blocks with disjoint keys: `k >= 200` prunes one
    // on its catalogued stats.
    let conv = client.create_table("converted", schema()).unwrap().table;
    for start in [100, 200] {
        let mut w = client.create_unbuffered_writer(conv).unwrap();
        w.append(rows(start, 10)).unwrap();
        region.sms().finalize_stream(conv, w.stream_id()).unwrap();
        region.optimizer().convert_wos(conv).unwrap();
    }
    let filtered = || {
        let opts = ScanOptions {
            predicate: Expr::ge("k", Value::Int64(200)),
            ..ScanOptions::default()
        };
        let cold = QueryEngine::new(region.sms().clone(), region.fleet().clone());
        let res = cold.scan(conv, client.snapshot(), &opts).unwrap();
        let s = res.stats;
        (keys(&res.rows), s.pruned_by_stats, s.fragments_total)
    };
    let before = filtered();
    assert_eq!(before, ((200..210).collect(), 1, 2));

    let t = client.create_table("smskr", schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(t).unwrap();
    w.append(rows(0, 20)).unwrap();

    region.kill_sms_task(0);
    // Control plane down, retryably.
    let err = client.create_table("nope", schema()).unwrap_err();
    assert!(err.is_retryable(), "dead SMS must surface retryably: {err}");
    // Data plane unaffected: the streamlet handle goes straight to its
    // Stream Server.
    w.append(rows(20, 20)).unwrap();

    region.restart_sms_task(0).unwrap();
    region.run_heartbeats(true).unwrap();
    // The restarted task serves durable metadata and takes new work.
    assert_eq!(region.sms().get_table(t).unwrap().table, t);
    let t2 = client.create_table("after", schema()).unwrap().table;
    let mut w2 = client.create_unbuffered_writer(t2).unwrap();
    w2.append(rows(0, 5)).unwrap();
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 40);
    assert_eq!(client.read_rows(t2).unwrap().rows.len(), 5);
    // Column properties live in the catalog, not in task memory.
    assert_eq!(filtered(), before);
}

/// Satellite of the crash framework: cluster failover (§5.2.1) swapping
/// primary and secondary MID-APPEND under concurrent writers. Every
/// acked row must survive, exactly once, across repeated swaps.
#[test]
fn sms_failover_under_concurrent_writers_is_exact() {
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
    let region = std::sync::Arc::new(
        Region::create(RegionConfig {
            clusters: 3,
            ..RegionConfig::default()
        })
        .unwrap(),
    );
    let client = region.client();
    let t = client.create_table("swap", schema()).unwrap().table;

    const WRITERS: usize = 3;
    const STRIDE: i64 = 1_000_000;
    let stop = AtomicBool::new(false);
    let watermarks: Vec<AtomicI64> = (0..WRITERS).map(|_| AtomicI64::new(0)).collect();

    std::thread::scope(|s| {
        for (w, wm) in watermarks.iter().enumerate() {
            let client = region.client();
            let stop = &stop;
            s.spawn(move || {
                let mut writer = client.create_unbuffered_writer(t).unwrap();
                let mut next = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let batch = RowSet::new(
                        (0..25)
                            .map(|i| {
                                let k = next + i;
                                Row::insert(vec![
                                    Value::Int64(w as i64 * STRIDE + k),
                                    Value::String(format!("w{w}-k{k}")),
                                ])
                            })
                            .collect(),
                    );
                    loop {
                        match writer.append(batch.clone()) {
                            Ok(_) => break,
                            // Retry to completion even past `stop`: an
                            // ambiguous ack may already have landed the
                            // batch, and only a successful (deduplicated)
                            // retry tells us to advance the watermark.
                            Err(e) if e.is_retryable() => {
                                std::thread::sleep(std::time::Duration::from_millis(1));
                            }
                            Err(e) => panic!("writer {w} failed: {e}"),
                        }
                    }
                    next += 25;
                    wm.store(next, Ordering::SeqCst);
                    // Pace the writer: the test exercises failover during
                    // writes, not bulk throughput, and unpaced appends
                    // grow streamlets to tens of MB within milliseconds.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            });
        }
        // Swap primary and secondary repeatedly while appends are in
        // flight. Existing streamlets keep their replica pair; only new
        // placements follow the swap — so no acked row may move or drop.
        for round in 0..8 {
            std::thread::sleep(std::time::Duration::from_millis(15));
            region.sms().fail_over_table(t).unwrap();
            if round % 2 == 1 {
                // Force rotations so placements actually land on the
                // post-failover pair mid-run.
                for sl in region.sms().list_streamlets(t) {
                    if sl.state != vortex::StreamletState::Finalized {
                        let _ = region.sms().reconcile_streamlet(t, sl.streamlet);
                    }
                }
            }
            let _ = region.run_heartbeats(false);
        }
        stop.store(true, Ordering::Relaxed);
    });

    let mut expected: Vec<i64> = Vec::new();
    for (w, wm) in watermarks.iter().enumerate() {
        let n = wm.load(std::sync::atomic::Ordering::SeqCst);
        for k in 0..n {
            expected.push(w as i64 * STRIDE + k);
        }
    }
    expected.sort_unstable();
    let got = client.read_rows(t).unwrap();
    assert_eq!(
        keys(&got.rows),
        expected,
        "failover lost or duplicated rows"
    );
    let report = region
        .verifier()
        .verify_appends(t, &vortex::AuditLog::new())
        .unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
}

/// `FlushStream` writes a durable flush record; a transient fault must
/// rotate + retry without losing the visibility watermark, exactly like
/// a failed append (the SMS watermark gates visibility either way).
#[test]
fn flush_retries_transient_faults() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let t = client.create_table("fl", schema()).unwrap().table;
    let mut w = client.create_buffered_writer(t).unwrap();
    w.append(rows(0, 30)).unwrap();
    // Unflushed rows are invisible.
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 0);
    // Fault both clusters right before the flush record lands.
    for c in region.fleet().cluster_ids() {
        region.fleet().get(c).unwrap().faults().fail_next_appends(1);
    }
    w.flush(20).unwrap();
    let got = client.read_rows(t).unwrap();
    assert_eq!(keys(&got.rows), (0..20).collect::<Vec<_>>());
    // The writer still works after the rotation the flush forced.
    w.append(rows(30, 10)).unwrap();
    w.flush(40).unwrap();
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 40);
}

/// A read fault on either replica of a fresh tail fails over like an
/// unreachable replica: the other copy alone cannot vouch for the final
/// append, so the query reconciles and still counts every acked row.
#[test]
fn tail_read_fails_over_on_a_read_fault() {
    for which in [0, 1] {
        let region = Region::create(RegionConfig::default()).unwrap();
        let client = region.client();
        let t = client.create_table("tailfault", schema()).unwrap().table;
        let mut w = client.create_unbuffered_writer(t).unwrap();
        w.append(rows(0, 30)).unwrap();
        w.append(rows(30, 12)).unwrap();

        let faulty = region.fleet().get(t_cluster(&region, t, which)).unwrap();
        faulty.faults().fail_next_reads(1);
        let counted = region
            .engine()
            .count(t, client.snapshot(), &ScanOptions::default());
        assert_eq!(counted.unwrap(), 42, "read fault on replica {which}");
        assert!(
            !faulty.faults().take_read_failure(),
            "the fault was not hit"
        );
    }
}

/// A table whose rows are all in one ROS block, and the catalogued file.
fn one_ros_block(region: &Region, name: &str) -> (vortex::ids::TableId, vortex::FragmentMeta) {
    let client = region.client();
    let t = client.create_table(name, schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(t).unwrap();
    w.append(rows(0, 1_500)).unwrap();
    region.sms().finalize_stream(t, w.stream_id()).unwrap();
    region.optimizer().convert_wos(t).unwrap();
    let mut live = region.sms().list_fragments(t, client.snapshot());
    live.retain(|f| f.deleted_at == vortex::Timestamp::MAX);
    assert_eq!(live.len(), 1);
    assert_eq!(live[0].kind, vortex::FragmentKind::Ros);
    (t, live.remove(0))
}

/// `COUNT(*) WHERE k >= 100` through an engine without a cache, so that
/// every count reads the file: the index of the block, then `k`.
fn count_from_100(region: &Region, t: vortex::ids::TableId) -> vortex::VortexResult<u64> {
    let opts = ScanOptions {
        predicate: Expr::ge("k", Value::Int64(100)),
        ..ScanOptions::default()
    };
    let cold = QueryEngine::new(region.sms().clone(), region.fleet().clone());
    cold.count(t, region.client().snapshot(), &opts)
}

/// Each ranged read of a ROS block fails over by itself: whichever of the
/// trailer, the index and the chunk fetch the primary fails, the other
/// replica serves that read and the count is exact.
#[test]
fn ros_ranged_reads_fail_over_one_by_one() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let (t, file) = one_ros_block(&region, "ranged");
    let primary = region.fleet().get(file.clusters[0]).unwrap();
    let secondary = region.fleet().get(file.clusters[1]).unwrap();
    assert_eq!(count_from_100(&region, t).unwrap(), 1_400);
    for failing in 1..=3 {
        let served = secondary.read_counts().0;
        primary.faults().fail_next_reads(failing);
        assert_eq!(
            count_from_100(&region, t).unwrap(),
            1_400,
            "{failing} reads fail"
        );
        assert!(!primary.faults().take_read_failure(), "a fault was not hit");
        // Three reads make the query; the secondary served those that failed.
        assert_eq!(secondary.read_counts().0 - served, failing as u64);
    }
    // With the secondary gone too, the query fails; it does not miscount.
    secondary.faults().set_unavailable(true);
    primary.faults().fail_next_reads(3);
    assert!(count_from_100(&region, t).is_err());
}

/// A chunk damaged in one copy is a failed read of that copy — its CRC
/// is checked before the read counts as done — and damaged in both it is
/// `CorruptData`, never a wrong count.
#[test]
fn a_corrupt_ros_chunk_fails_over_then_fails() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let (t, file) = one_ros_block(&region, "damaged");
    // The file's first byte is in the first zone of its first column, `k`.
    let damage = |which: usize| {
        let cluster = region.fleet().get(file.clusters[which]).unwrap();
        let mut bytes = cluster.read_all(&file.path).unwrap().data;
        bytes[0] ^= 0x40;
        cluster.delete(&file.path).unwrap();
        cluster
            .append(&file.path, &bytes, vortex::Timestamp::MIN)
            .unwrap();
    };
    damage(0);
    assert_eq!(count_from_100(&region, t).unwrap(), 1_400);
    // A query that does not need the chunk does not meet the damage.
    let engine = region.engine();
    let at = region.client().snapshot();
    let on_v = ScanOptions {
        predicate: Expr::eq("v", Value::String("v7".into())),
        ..ScanOptions::default()
    };
    let secondary = region.fleet().get(file.clusters[1]).unwrap();
    let served = secondary.read_counts().0;
    assert_eq!(engine.count(t, at, &on_v).unwrap(), 1);
    assert_eq!(
        secondary.read_counts().0,
        served,
        "the primary alone served it"
    );
    // Whole-file readers check every chunk of the copy they take (a
    // client without a cache: the region's would keep what it read).
    let uncached = vortex::VortexClient::new(
        region.sms().clone(),
        region.fleet().clone(),
        region.truetime().clone(),
    );
    assert_eq!(uncached.read_rows(t).unwrap().rows.len(), 1_500);
    damage(1);
    let err = count_from_100(&region, t).unwrap_err();
    assert!(matches!(err, vortex::VortexError::CorruptData(_)), "{err}");
    assert_eq!(engine.count(t, at, &on_v).unwrap(), 1);
    let err = uncached.read_rows(t).unwrap_err();
    assert!(matches!(err, vortex::VortexError::CorruptData(_)), "{err}");
}

/// The region's cache keeps a chunk only once its CRC has passed. Damaged
/// in both copies, a scan fails, leaves the chunk's cell empty, and the
/// next scan reads it again; damaged in the primary alone, the read fails
/// over and the cell holds the secondary's good bytes — which later scans
/// decode without reading either copy. Scans racing on a block nothing
/// holds yet share one and agree.
#[test]
fn only_verified_chunks_are_cached() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let (raced, _) = one_ros_block(&region, "raced");
    let (t, file) = one_ros_block(&region, "verified");
    let (engine, at) = (region.engine(), region.client().snapshot());

    let all = ScanOptions::default();
    let start = std::sync::Barrier::new(4);
    let scans: Vec<_> = std::thread::scope(|s| {
        let scan = || {
            start.wait();
            engine.scan(raced, at, &all).unwrap().rows
        };
        let racers: Vec<_> = (0..4).map(|_| s.spawn(scan)).collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(scans[0].len(), 1_500);
    assert!(scans.iter().all(|rows| *rows == scans[0]));
    let cold = QueryEngine::new(region.sms().clone(), region.fleet().clone());
    assert_eq!(cold.scan(raced, at, &all).unwrap().rows, scans[0]);
    assert_eq!(region.read_cache().len(), 1, "one block, shared");

    let cluster = |which: usize| region.fleet().get(file.clusters[which]).unwrap();
    let write = |which: usize, bytes: &[u8]| {
        cluster(which).delete(&file.path).unwrap();
        cluster(which)
            .append(&file.path, bytes, vortex::Timestamp::MIN)
            .unwrap();
    };
    let good = cluster(0).read_all(&file.path).unwrap().data;
    let mut bad = good.clone();
    bad[0] ^= 0x40; // the first zone of `k`
    let served = || (cluster(0).read_counts(), cluster(1).read_counts());
    let from_100 = ScanOptions {
        predicate: Expr::ge("k", Value::Int64(100)),
        ..ScanOptions::default()
    };
    let count = || engine.count(t, at, &from_100);

    write(0, &bad);
    write(1, &bad);
    let err = count().unwrap_err();
    assert!(matches!(err, vortex::VortexError::CorruptData(_)), "{err}");
    let held = || panic!("the index passed its CRC and is held");
    let (block, _) = (region.read_cache())
        .block(&file.path, file.committed_size, held)
        .unwrap();
    let empty = block.decode_zone(0, 0);
    assert!(
        matches!(empty, Err(vortex::VortexError::Internal(_))),
        "{empty:?}"
    );
    let before = served();
    assert!(count().is_err());
    assert_ne!(served(), before, "the next scan reads the chunk again");

    write(1, &good);
    assert_eq!(count().unwrap(), 1_400);
    let first_zone: Vec<Value> = (0..1_024).map(Value::Int64).collect();
    assert_eq!(block.decode_zone(0, 0).unwrap().to_values(), first_zone);
    write(1, &bad);
    let before = served();
    assert_eq!(count().unwrap(), 1_400);
    assert_eq!(served(), before, "a warm count reads nothing");
}
