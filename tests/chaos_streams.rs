//! Chaos soak over all three stream types (§4.2.2): an UNBUFFERED
//! writer, a BUFFERED writer whose rows gate on explicit flushes, and a
//! PENDING loop publishing atomic batches — all under fault injection
//! and continuous background reorganization. The final table must hold
//! exactly the union of (acked unbuffered) ∪ (flushed buffered) ∪
//! (committed pending) rows, each exactly once.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vortex::row::{Row, RowSet, Value};
use vortex::schema::{Field, FieldType, PartitionTransform, Schema};
use vortex::{Region, RegionConfig, ScanOptions};

fn schema() -> Schema {
    Schema::new(vec![
        Field::required("lane", FieldType::Int64),
        Field::required("k", FieldType::Int64),
        Field::required("body", FieldType::String),
    ])
    .with_partition("lane", PartitionTransform::Identity)
    .with_clustering(&["k"])
}

const LANE_UNBUFFERED: i64 = 0;
const LANE_BUFFERED: i64 = 1;
const LANE_PENDING: i64 = 2;
const STRIDE: i64 = 10_000_000;
const RUN_FOR: Duration = Duration::from_secs(3);

/// Seed for the region's deterministic randomness (placement, latency
/// sampling). Override via `VORTEX_CHAOS_SEED` to reproduce a run.
fn chaos_seed() -> u64 {
    std::env::var("VORTEX_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x57E4_5EED)
}

/// Appends with retry on surfaced transients: exactly-once offsets make a
/// caller-level retry dedup any ambiguously-landed batch (§4.2.2).
fn retry_append(w: &mut vortex::StreamWriter, rows: RowSet) {
    loop {
        match w.append(rows.clone()) {
            Ok(_) => return,
            Err(e) if e.is_retryable() => continue,
            Err(e) => panic!("append failed: {e}"),
        }
    }
}

fn batch(lane: i64, start: i64, n: i64) -> RowSet {
    RowSet::new(
        (0..n)
            .map(|i| {
                let k = start + i;
                Row::insert(vec![
                    Value::Int64(lane),
                    Value::Int64(lane * STRIDE + k),
                    Value::String(format!("lane{lane}-k{k}-padding")),
                ])
            })
            .collect(),
    )
}

#[test]
fn chaos_mixed_stream_types_exact_ledger() {
    let seed = chaos_seed();
    eprintln!("chaos_streams seed = {seed} (override with VORTEX_CHAOS_SEED)");
    let region = Arc::new(
        Region::create(RegionConfig {
            clusters: 3,
            servers_per_cluster: 2,
            fragment_max_bytes: 24 * 1024,
            seed,
            // The optimizer loop below advances the virtual clock 10 s
            // per ~13 ms of wall time; the grace (time-travel horizon)
            // must dwarf that so in-flight scans don't fall off it.
            gc_grace_micros: Some(3_600_000_000),
            ..RegionConfig::default()
        })
        .unwrap(),
    );
    let client = region.client();
    let table = client.create_table("mixed", schema()).unwrap().table;

    // Control-plane RPC fault axis (§4.2.2): 5% pre-execute failures and
    // 1% ambiguous acks (executed, reply lost) on both service hops.
    region.sms_rpc().faults().set_unavailable_permille(50);
    region.sms_rpc().faults().set_reply_lost_permille(10);
    region.server_rpc().faults().set_unavailable_permille(50);
    region.server_rpc().faults().set_reply_lost_permille(10);

    let stop = Arc::new(AtomicBool::new(false));
    // Watermarks of *visible* rows per lane.
    let acked_unbuffered = Arc::new(AtomicI64::new(0));
    let flushed_buffered = Arc::new(AtomicI64::new(0));
    let committed_pending = Arc::new(AtomicI64::new(0));

    std::thread::scope(|s| {
        // UNBUFFERED: visible as soon as acked.
        {
            let client = region.client();
            let stop = Arc::clone(&stop);
            let wm = Arc::clone(&acked_unbuffered);
            s.spawn(move || {
                let mut w = client.create_unbuffered_writer(table).unwrap();
                let mut next = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    retry_append(&mut w, batch(LANE_UNBUFFERED, next, 40));
                    next += 40;
                    wm.store(next, Ordering::SeqCst);
                }
            });
        }
        // BUFFERED: appends run ahead; only every third batch boundary is
        // flushed, and only flushed rows may be visible.
        {
            let client = region.client();
            let stop = Arc::clone(&stop);
            let wm = Arc::clone(&flushed_buffered);
            s.spawn(move || {
                let mut w = client.create_buffered_writer(table).unwrap();
                let mut next = 0i64;
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    retry_append(&mut w, batch(LANE_BUFFERED, next, 30));
                    next += 30;
                    rounds += 1;
                    if rounds % 3 == 0 {
                        // Flush is idempotent end to end; retry on a
                        // surfaced transient.
                        loop {
                            match w.flush(next as u64) {
                                Ok(()) => break,
                                Err(e) if e.is_retryable() => continue,
                                Err(e) => panic!("flush failed: {e}"),
                            }
                        }
                        wm.store(next, Ordering::SeqCst);
                    }
                }
                // Leave the tail deliberately unflushed: the ledger
                // check proves those rows stay invisible.
            });
        }
        // PENDING: each round writes a fresh pending stream and commits
        // it atomically; visibility flips at batch_commit.
        {
            let client = region.client();
            let stop = Arc::clone(&stop);
            let wm = Arc::clone(&committed_pending);
            s.spawn(move || {
                let mut next = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let mut w = client.create_pending_writer(table).unwrap();
                    retry_append(&mut w, batch(LANE_PENDING, next, 25));
                    let stream = w.stream_id();
                    // batch_commit is union-idempotent; retry-safe.
                    loop {
                        match client.batch_commit(table, &[stream]) {
                            Ok(_) => break,
                            Err(e) if e.is_retryable() => continue,
                            Err(e) => panic!("batch_commit failed: {e}"),
                        }
                    }
                    next += 25;
                    wm.store(next, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
        // Background reorganization.
        {
            let region = Arc::clone(&region);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = region.run_heartbeats(false);
                    let _ = region.run_optimizer_cycle(table);
                    region.advance_micros(10_000_000);
                    let _ = region.run_gc(table);
                    std::thread::sleep(Duration::from_millis(13));
                }
            });
        }
        // Reader: visible set respects every lane's watermark *at the
        // time the snapshot was taken* (watermarks only grow, so read
        // counts bound from below by pre-snapshot watermarks and above
        // by post-read watermarks).
        {
            let region = Arc::clone(&region);
            let stop = Arc::clone(&stop);
            let au = Arc::clone(&acked_unbuffered);
            let fb = Arc::clone(&flushed_buffered);
            let cp = Arc::clone(&committed_pending);
            s.spawn(move || {
                let engine = region.engine();
                let client = region.client();
                while !stop.load(Ordering::Relaxed) {
                    let (au0, fb0, cp0) = (
                        au.load(Ordering::SeqCst),
                        fb.load(Ordering::SeqCst),
                        cp.load(Ordering::SeqCst),
                    );
                    let lo = au0 + fb0 + cp0;
                    // The optimizer loop advances the virtual clock ~30s
                    // per wall-millisecond, so a snapshot can fall past
                    // the GC grace horizon mid-scan ("snapshot too old",
                    // surfaced as NotFound on a collected file). The
                    // documented contract is to retry at a fresh
                    // snapshot.
                    let (n, snap, stats1) = loop {
                        let snap = client.snapshot();
                        match engine.scan(table, snap, &ScanOptions::default()) {
                            Ok(r) => break (r.stats.rows_matched as i64, snap, r.stats),
                            Err(vortex::VortexError::NotFound(_)) => continue,
                            Err(e) if e.is_retryable() => continue,
                            Err(e) => panic!("reader failed: {e}"),
                        }
                    };
                    // Slack: each lane can have one operation durable
                    // (hence visible) whose watermark store hasn't
                    // happened yet — a 40-row unbuffered batch, a flush
                    // covering up to 3×30 buffered rows, and a 25-row
                    // pending commit.
                    let hi = au.load(Ordering::SeqCst)
                        + fb.load(Ordering::SeqCst)
                        + cp.load(Ordering::SeqCst)
                        + 40
                        + 90
                        + 25;
                    if n < lo || n > hi {
                        // Confirm at the SAME snapshot before declaring a
                        // violation: the first scan may have raced an
                        // append stamped at ≤ snap that was still landing
                        // on its second replica (the surviving rows only
                        // grow toward the snapshot's true contents). A
                        // rescan that also falls outside the window is a
                        // real failure.
                        let res = engine.scan(table, snap, &ScanOptions::default()).unwrap();
                        let n2 = res.rows.len() as i64;
                        if n2 >= lo && n2 <= hi {
                            continue; // transient in-flight race, healed
                        }
                        let mut lanes = [0i64; 3];
                        for (_, r) in &res.rows {
                            lanes[r.values[0].as_i64().unwrap() as usize] += 1;
                        }
                        for sl in region.sms().list_streamlets(table) {
                            eprintln!(
                                "streamlet {} stream {} state {:?} first {} rows {}",
                                sl.streamlet,
                                sl.stream,
                                sl.state,
                                sl.first_stream_row,
                                sl.row_count
                            );
                        }
                        panic!(
                            "visible {n} (rescan {}) outside [{lo}, {hi}] at snapshot {snap:?}; \
                             per-lane at same snapshot: unbuffered {} (pre-wm {au0}), \
                             buffered {} (pre-wm {fb0}), pending {} (pre-wm {cp0}); \
                             first stats {stats1:?}; rescan stats {:?}",
                            res.rows.len(),
                            lanes[0],
                            lanes[1],
                            lanes[2],
                            res.stats,
                        );
                    }
                    std::thread::sleep(Duration::from_millis(3));
                }
            });
        }
        // Fault injector: storage bursts plus RPC outage bursts on
        // alternating hops.
        {
            let region = Arc::clone(&region);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let ids = region.fleet().cluster_ids();
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let c = ids[i % ids.len()];
                    region.fleet().get(c).unwrap().faults().fail_next_appends(2);
                    if i % 2 == 0 {
                        region.sms_rpc().faults().fail_next_calls(3);
                    } else {
                        region.server_rpc().faults().fail_next_calls(3);
                    }
                    i += 1;
                    std::thread::sleep(Duration::from_millis(19));
                }
            });
        }

        let start = Instant::now();
        while start.elapsed() < RUN_FOR {
            std::thread::sleep(Duration::from_millis(50));
        }
        stop.store(true, Ordering::Relaxed);
    });

    // The RPC fault axis actually fired on both hops.
    for rpc in [region.sms_rpc(), region.server_rpc()] {
        let snap = rpc.metrics().snapshot();
        let injected: u64 = snap
            .values()
            .map(|m| m.injected_unavailable.get() + m.injected_reply_lost.get())
            .sum();
        assert!(
            injected > 0,
            "channel {} saw no injected RPC faults (seed {seed})",
            rpc.name()
        );
    }

    // ---- Final exact ledger ----
    let mut expected: Vec<i64> = Vec::new();
    for k in 0..acked_unbuffered.load(Ordering::SeqCst) {
        expected.push(LANE_UNBUFFERED * STRIDE + k);
    }
    for k in 0..flushed_buffered.load(Ordering::SeqCst) {
        expected.push(LANE_BUFFERED * STRIDE + k);
    }
    for k in 0..committed_pending.load(Ordering::SeqCst) {
        expected.push(LANE_PENDING * STRIDE + k);
    }
    expected.sort_unstable();

    let engine = region.engine();
    let res = engine
        .scan(table, client.snapshot(), &ScanOptions::default())
        .unwrap();
    let mut got: Vec<i64> = res
        .rows
        .iter()
        .map(|(_, r)| r.values[1].as_i64().unwrap())
        .collect();
    got.sort_unstable();
    if got != expected {
        let gs: std::collections::BTreeSet<i64> = got.iter().copied().collect();
        let ws: std::collections::BTreeSet<i64> = expected.iter().copied().collect();
        let missing: Vec<i64> = ws.difference(&gs).copied().collect();
        let extra: Vec<i64> = gs.difference(&ws).copied().collect();
        eprintln!(
            "MISSING ({}): {:?}",
            missing.len(),
            &missing[..missing.len().min(30)]
        );
        eprintln!(
            "EXTRA   ({}): {:?}",
            extra.len(),
            &extra[..extra.len().min(30)]
        );
        panic!(
            "ledger mismatch: got {} want {} (seed {seed})",
            got.len(),
            expected.len()
        );
    }

    // §6.3 invariants stay clean across stream types.
    let report = region
        .verifier()
        .verify_appends(table, &vortex::AuditLog::new())
        .unwrap();
    assert!(
        report.is_clean(),
        "verification violations (seed {seed}): {:?}",
        report.violations
    );
}

/// Repeatable reads: scanning at one fixed snapshot must return the same
/// row set no matter how much reorganization (rotation, conversion,
/// reclustering, GC) happens between repeats. This pins the MVCC
/// contract the watermark windows in the soak above rely on.
#[test]
fn scans_at_fixed_snapshot_are_repeatable() {
    let region = Arc::new(
        Region::create(RegionConfig {
            clusters: 3,
            servers_per_cluster: 2,
            fragment_max_bytes: 24 * 1024,
            gc_grace_micros: Some(3_600_000_000),
            seed: chaos_seed(),
            ..RegionConfig::default()
        })
        .unwrap(),
    );
    let client = region.client();
    let table = client.create_table("repeat", schema()).unwrap().table;
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Churn: one writer + the optimizer loop + faults.
        {
            let client = region.client();
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut w = client.create_unbuffered_writer(table).unwrap();
                let mut next = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    w.append(batch(LANE_UNBUFFERED, next, 40)).unwrap();
                    next += 40;
                }
            });
        }
        {
            let region = Arc::clone(&region);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = region.run_heartbeats(false);
                    let _ = region.run_optimizer_cycle(table);
                    region.advance_micros(10_000_000);
                    let _ = region.run_gc(table);
                    std::thread::sleep(Duration::from_millis(7));
                }
            });
        }
        {
            let region = Arc::clone(&region);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let ids = region.fleet().cluster_ids();
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let c = ids[i % ids.len()];
                    i += 1;
                    region.fleet().get(c).unwrap().faults().fail_next_appends(2);
                    std::thread::sleep(Duration::from_millis(17));
                }
            });
        }

        // Reader: take a snapshot, scan it several times while the churn
        // continues; every repeat must agree with the first. The guard
        // stops the churn threads even when an assertion unwinds, so the
        // scope can join and surface the panic instead of hanging.
        struct StopGuard<'a>(&'a AtomicBool);
        impl Drop for StopGuard<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let _guard = StopGuard(&stop);
        let engine = region.engine();
        let deadline = Instant::now() + RUN_FOR;
        'outer: while Instant::now() < deadline {
            // Bounded staleness: an append is stamped *before* its replica
            // writes land, so a snapshot at the bleeding edge can race an
            // in-flight append whose stamp is ≤ it (it surfaces once
            // durable — growing, never shrinking, the result). Reading a
            // few clock-jumps behind `now` steps off that edge; stale
            // snapshots are exactly repeatable.
            let snap = client.snapshot().minus_micros(30_000_000);
            if snap.micros() <= 1_000_000 {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            let mut first: Option<Vec<i64>> = None;
            for rep in 0..4 {
                let keys = match engine.scan(table, snap, &ScanOptions::default()) {
                    Ok(r) => {
                        let mut ks: Vec<i64> = r
                            .rows
                            .iter()
                            .map(|(_, row)| row.values[1].as_i64().unwrap())
                            .collect();
                        ks.sort_unstable();
                        ks
                    }
                    // Snapshot fell off the GC horizon: abandon it
                    // (retrying cannot change the data it maps to).
                    Err(vortex::VortexError::NotFound(_)) => continue 'outer,
                    Err(e) => panic!("scan failed: {e}"),
                };
                match &first {
                    None => first = Some(keys),
                    Some(f) => {
                        let same = *f == keys;
                        assert!(
                            same,
                            "repeat {rep} at snapshot {snap:?} disagreed: {} rows then {}",
                            f.len(),
                            keys.len()
                        );
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    });
}
