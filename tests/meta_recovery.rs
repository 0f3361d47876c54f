//! Metastore crash-recovery edge cases at region level: checkpoint
//! crash points, fenced publishes, GC non-resurrection, and the daemon
//! checkpoint loop. The finer-grained durability mechanics (torn WAL
//! tails, pointer-generation rotation, replay equivalence) live in
//! `vortex-metastore`'s unit tests; these tests exercise the same
//! machinery through the full region stack.

use std::sync::Mutex;

use vortex::row::{Row, RowSet, Value};
use vortex::schema::{Field, FieldType, PartitionTransform, Schema};
use vortex::{Region, RegionConfig, VortexError};
use vortex_common::crashpoints;

/// Crash points are process-global; tests that arm them (or commit
/// through a durable store while another test might have them armed)
/// must not overlap.
static ARM_LOCK: Mutex<()> = Mutex::new(());

fn schema() -> Schema {
    Schema::new(vec![
        Field::required("day", FieldType::Int64),
        Field::required("k", FieldType::Int64),
    ])
    .with_partition("day", PartitionTransform::Identity)
    .with_clustering(&["k"])
}

fn rows(start: i64, n: usize) -> RowSet {
    RowSet::new(
        (0..n)
            .map(|i| {
                let k = start + i as i64;
                Row::insert(vec![Value::Int64(k / 100), Value::Int64(k)])
            })
            .collect(),
    )
}

fn region() -> Region {
    Region::create(RegionConfig {
        fragment_max_bytes: 8 * 1024,
        ..RegionConfig::default()
    })
    .unwrap()
}

/// Ingest `n` rows into a fresh finalized stream so the metastore
/// accumulates real table/stream/fragment metadata.
fn ingest(region: &Region, table: vortex::ids::TableId, start: i64, n: usize) {
    let client = region.client();
    let mut w = client.create_unbuffered_writer(table).unwrap();
    w.append(rows(start, n)).unwrap();
    let s = w.stream_id();
    region.sms().finalize_stream(table, s).unwrap();
}

/// A crash mid-checkpoint-snapshot leaves a torn, unpublished candidate
/// file. Recovery must keep using the previous published checkpoint —
/// the regression the in-place-overwrite design would fail.
#[test]
fn checkpoint_mid_write_crash_keeps_previous_checkpoint() {
    let _arm = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let region = region();
    let client = region.client();
    let t = client.create_table("mid_write", schema()).unwrap().table;
    ingest(&region, t, 0, 300);
    let v1 = region.checkpoint_metadata().unwrap().version;

    ingest(&region, t, 300, 100);
    let guard = crashpoints::arm_nth("meta.checkpoint.mid_write", 1);
    let err = region.checkpoint_metadata().unwrap_err();
    assert!(
        matches!(err, VortexError::SimulatedCrash(_)),
        "expected the armed crash point, got {err}"
    );
    drop(guard);

    // Recovery after the death: previous checkpoint + WAL tail, with
    // the exact same visible state as the live store.
    let (replica, rep) = region.recover_metastore_replica().unwrap();
    assert_eq!(rep.checkpoint_version, Some(v1));
    assert_eq!(
        rep.fallback_depth, 0,
        "torn candidate polluted the chain: {rep:?}"
    );
    assert!(
        rep.commits_replayed > 0,
        "post-checkpoint commits lost: {rep:?}"
    );
    assert_eq!(replica.snapshot_bytes(), region.store().snapshot_bytes());

    // The torn candidate must not block the next checkpoint either.
    let v2 = region.checkpoint_metadata().unwrap().version;
    assert_eq!(v2, v1 + 1);
    let (_, rep2) = region.recover_metastore_replica().unwrap();
    assert_eq!(rep2.checkpoint_version, Some(v2));
    assert_eq!(rep2.commits_replayed, 0);
}

/// A crash after the candidate file is durable but before the pointer
/// publish: the candidate simply leaks (until GC) and recovery still
/// lands on the previous published checkpoint.
#[test]
fn checkpoint_pre_publish_crash_keeps_previous_checkpoint() {
    let _arm = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let region = region();
    let client = region.client();
    let t = client.create_table("pre_publish", schema()).unwrap().table;
    ingest(&region, t, 0, 200);
    let v1 = region.checkpoint_metadata().unwrap().version;

    ingest(&region, t, 200, 100);
    let guard = crashpoints::arm_nth("meta.checkpoint.pre_publish", 1);
    let err = region.checkpoint_metadata().unwrap_err();
    assert!(matches!(err, VortexError::SimulatedCrash(_)));
    drop(guard);

    let (replica, rep) = region.recover_metastore_replica().unwrap();
    assert_eq!(rep.checkpoint_version, Some(v1));
    assert_eq!(rep.fallback_depth, 0);
    assert_eq!(replica.snapshot_bytes(), region.store().snapshot_bytes());

    // The next checkpoint supersedes the leaked candidate and GC sweeps
    // every checkpoint file that is not one of the two retained
    // published versions (the leak included).
    let outcome = region.checkpoint_metadata().unwrap();
    assert_eq!(outcome.version, v1 + 1);
    assert!(
        outcome.checkpoints_deleted >= 1,
        "leaked pre-publish candidate survived GC: {outcome:?}"
    );
}

/// Fragments GC'd before a checkpoint must not resurrect in a store
/// recovered from that checkpoint: the ledger a cold-started SMS sees
/// agrees with the live one exactly.
#[test]
fn gcd_fragments_do_not_resurrect_after_recovery() {
    let _arm = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let region = region();
    let client = region.client();
    let t = client.create_table("gc_resurrect", schema()).unwrap().table;
    ingest(&region, t, 0, 1_500);
    // Convert: the WOS fragments become garbage once the ROS versions
    // land.
    region.run_optimizer_cycle(t).unwrap();

    let store = region.store();
    let frag_keys = |s: &vortex::MetaStore| -> Vec<String> {
        s.scan_prefix_at("t/", s.now())
            .into_iter()
            .map(|(k, _)| k)
            .filter(|k| k.contains("/f/"))
            .collect()
    };
    let before = frag_keys(store);
    assert!(
        !before.is_empty(),
        "conversion produced no fragment metadata"
    );

    // Let the GC grace elapse and groom. Some fragment must actually be
    // collected or the test asserts nothing.
    region.advance_micros(3_600_000_000);
    let collected = region.run_gc(t).unwrap();
    assert!(collected > 0, "grooming collected nothing");
    let after = frag_keys(store);
    let gone: Vec<&String> = before.iter().filter(|k| !after.contains(k)).collect();
    assert!(!gone.is_empty(), "no fragment key was deleted by GC");

    // Checkpoint, then recover a standby purely from durable state.
    region.checkpoint_metadata().unwrap();
    let (replica, rep) = region.recover_metastore_replica().unwrap();
    assert_eq!(
        rep.commits_replayed, 0,
        "recovery was not checkpoint-bounded: {rep:?}"
    );
    for k in &gone {
        assert_eq!(
            replica.read_at(k, replica.now()),
            None,
            "GC'd fragment {k} resurrected in the recovered store"
        );
    }
    assert_eq!(replica.snapshot_bytes(), store.snapshot_bytes());

    // A later checkpoint prunes the tombstones themselves once they
    // fall below the MVCC watermark; the stores still agree.
    region.advance_micros(3_600_000_000);
    region.checkpoint_metadata().unwrap();
    let (replica2, _) = region.recover_metastore_replica().unwrap();
    assert_eq!(replica2.snapshot_bytes(), store.snapshot_bytes());
}

/// An SMS task killed and restarted keeps serving the same metadata:
/// the durable ledger a replacement host would recover matches what the
/// revived task sees, with replay bounded by the WAL tail.
#[test]
fn sms_restart_serves_recovered_metadata() {
    let _arm = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let region = region();
    let client = region.client();
    let t = client.create_table("sms_restart", schema()).unwrap().table;
    ingest(&region, t, 0, 200);
    let v1 = region.checkpoint_metadata().unwrap().version;
    // Post-checkpoint tail: more metadata commits land in the WAL only.
    ingest(&region, t, 200, 100);

    region.kill_sms_task(0);
    region.restart_sms_task(0).unwrap();

    // The revived task serves the full ledger...
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 300);
    // ...and a cold-started standby recovers the identical store from
    // checkpoint + tail, never full history.
    let (replica, rep) = region.recover_metastore_replica().unwrap();
    assert_eq!(rep.checkpoint_version, Some(v1));
    assert!(rep.commits_replayed > 0);
    assert_eq!(
        rep.commits_skipped, 0,
        "checkpoint-covered commits re-read: {rep:?}"
    );
    assert_eq!(replica.snapshot_bytes(), region.store().snapshot_bytes());
}

/// `create_blmt_table` binds the name and the bucket in ONE commit.
/// Whichever metastore commit of the call dies, the name is afterwards
/// either free or bound to a BLMT table — never to a managed table that a
/// retry then trips over with `AlreadyExists`.
#[test]
fn blmt_create_never_leaves_the_name_on_a_managed_table() {
    let _arm = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let region = region();
    let sms = region.sms();
    // Die in the WAL append of the call's first commit, then of its
    // second (the two-commit sequence this used to be had one).
    for nth in [1, 2] {
        let name = format!("lake{nth}");
        let guard = crashpoints::arm_nth("meta.wal.mid_append", nth);
        let created = sms.create_blmt_table(&name, schema(), "bkt");
        drop(guard);
        if region.sms_channels()[0].is_dead() {
            region.restart_sms_task(0).unwrap();
        }
        match sms.get_table_by_name(&name) {
            Ok(t) => assert_eq!(t.external_bucket.as_deref(), Some("bkt"), "{name}"),
            Err(VortexError::NotFound(_)) => {
                assert!(created.is_err(), "{name} acknowledged but absent");
                let retried = sms.create_blmt_table(&name, schema(), "bkt").unwrap();
                assert_eq!(retried.external_bucket.as_deref(), Some("bkt"));
            }
            Err(e) => panic!("{name}: {e}"),
        }
    }
    // The torn WAL tails cost nothing that was acknowledged.
    let (replica, _) = region.recover_metastore_replica().unwrap();
    assert_eq!(replica.snapshot_bytes(), region.store().snapshot_bytes());
}

/// The region daemon's checkpoint loop publishes on its own cadence —
/// no manual `checkpoint_metadata` calls anywhere.
#[test]
fn daemon_checkpoint_loop_publishes() {
    let _arm = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let region = std::sync::Arc::new(region());
    let client = region.client();
    let t = client.create_table("daemon_ckpt", schema()).unwrap().table;
    let daemon = vortex::RegionDaemon::start(
        std::sync::Arc::clone(&region),
        vortex::DaemonConfig {
            checkpoint_every: std::time::Duration::from_millis(20),
            ..vortex::DaemonConfig::default()
        },
    );
    daemon.watch_table(t);
    ingest(&region, t, 0, 100);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if daemon
            .stats()
            .meta_checkpoints
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never published a metastore checkpoint"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    daemon.shutdown();
    let (_, rep) = region.recover_metastore_replica().unwrap();
    assert!(
        rep.checkpoint_version.is_some(),
        "daemon checkpoints not visible to recovery: {rep:?}"
    );
}
