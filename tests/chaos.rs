//! Chaos soak: concurrent writers, DML, the optimizer, readers, and a
//! fault injector all hammer one table; the final state must match an
//! exact ledger and every §6.3 invariant.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vortex::row::{Row, RowSet, Value};
use vortex::schema::{Field, FieldType, PartitionTransform, Schema};
use vortex::{Expr, Region, RegionConfig, ScanOptions};

fn schema() -> Schema {
    Schema::new(vec![
        Field::required("day", FieldType::Int64),
        Field::required("k", FieldType::Int64),
        Field::required("payload", FieldType::String),
    ])
    .with_partition("day", PartitionTransform::Identity)
    .with_clustering(&["k"])
}

const WRITERS: usize = 3;
const KEYSPACE_STRIDE: i64 = 1_000_000;
const RUN_FOR: Duration = Duration::from_secs(3);

/// Seed for the region's deterministic randomness (placement, latency
/// sampling). Override via `VORTEX_CHAOS_SEED` to reproduce a run.
fn chaos_seed() -> u64 {
    std::env::var("VORTEX_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC8A0_5EED)
}

#[test]
fn chaos_soak_exact_ledger() {
    let seed = chaos_seed();
    eprintln!("chaos seed = {seed} (override with VORTEX_CHAOS_SEED)");
    let region = Arc::new(
        Region::create(RegionConfig {
            clusters: 3,
            servers_per_cluster: 2,
            fragment_max_bytes: 24 * 1024,
            seed,
            optimizer: vortex::OptimizerConfig {
                target_block_rows: 512,
            },
            // Time-travel horizon ≫ the 10 s virtual jumps below, so a
            // snapshot held across a scan never falls off it.
            gc_grace_micros: Some(3_600_000_000),
            ..RegionConfig::default()
        })
        .unwrap(),
    );
    let client = region.client();
    let table = client.create_table("chaos", schema()).unwrap().table;

    // Control-plane RPC fault axis (§4.2.2): 5% of calls on each hop
    // fail before executing, 1% execute but lose the reply (the
    // ambiguous-ack case). Idempotent methods are absorbed by channel
    // retries; appends resolve through offset reconciliation.
    region.sms_rpc().faults().set_unavailable_permille(50);
    region.sms_rpc().faults().set_reply_lost_permille(10);
    region.server_rpc().faults().set_unavailable_permille(50);
    region.server_rpc().faults().set_reply_lost_permille(10);

    let stop = Arc::new(AtomicBool::new(false));
    // Per-writer published watermark: keys < watermark are acked+visible.
    let watermarks: Arc<Vec<AtomicI64>> =
        Arc::new((0..WRITERS).map(|_| AtomicI64::new(0)).collect());
    // Ranges the DML thread deleted (stride-local coordinates).
    let deleted: Arc<Mutex<Vec<(usize, i64, i64)>>> = Arc::new(Mutex::new(Vec::new()));

    std::thread::scope(|s| {
        // Writers: disjoint key spaces, steady batches, survive faults.
        for w in 0..WRITERS {
            let client = region.client();
            let stop = Arc::clone(&stop);
            let watermarks = Arc::clone(&watermarks);
            s.spawn(move || {
                let mut writer = client.create_unbuffered_writer(table).unwrap();
                let mut next = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let batch = RowSet::new(
                        (0..50)
                            .map(|i| {
                                let k = next + i;
                                Row::insert(vec![
                                    Value::Int64(k % 5),
                                    Value::Int64(w as i64 * KEYSPACE_STRIDE + k),
                                    Value::String(format!("w{w}-k{k}-padding-padding")),
                                ])
                            })
                            .collect(),
                    );
                    // Retryable surfacing (rotation budget exhausted under
                    // an RPC outage burst) is safe to retry: exactly-once
                    // offsets dedup any ambiguously-landed batch.
                    loop {
                        match writer.append(batch.clone()) {
                            Ok(_) => break,
                            Err(e) if e.is_retryable() => continue,
                            Err(e) => panic!("writer {w} failed: {e}"),
                        }
                    }
                    next += 50;
                    watermarks[w].store(next, Ordering::SeqCst);
                }
            });
        }
        // DML: deletes a settled range below some writer's watermark.
        {
            let region = Arc::clone(&region);
            let stop = Arc::clone(&stop);
            let watermarks = Arc::clone(&watermarks);
            let deleted = Arc::clone(&deleted);
            s.spawn(move || {
                let dml = region.dml();
                let mut round = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let w = round % WRITERS;
                    round += 1;
                    let settled = watermarks[w].load(Ordering::SeqCst);
                    if settled < 100 {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    // A fresh 20-key band strictly below the watermark.
                    let hi = settled.min(round as i64 * 40);
                    let lo = (hi - 20).max(0);
                    if lo >= hi {
                        continue;
                    }
                    let base = w as i64 * KEYSPACE_STRIDE;
                    // Band deletes are idempotent: a retry after an
                    // ambiguous commit matches zero rows and still
                    // succeeds, keeping the ledger exact.
                    let rep = loop {
                        match dml.delete_where(
                            table,
                            &Expr::ge("k", Value::Int64(base + lo))
                                .and(Expr::lt("k", Value::Int64(base + hi))),
                        ) {
                            Ok(r) => break r,
                            Err(e) if e.is_retryable() => continue,
                            Err(e) => panic!("dml failed: {e}"),
                        }
                    };
                    // Only record if it actually deleted (bands can
                    // overlap earlier ones; rows_matched may be < 20).
                    let _ = rep;
                    deleted.lock().unwrap().push((w, lo, hi));
                    std::thread::sleep(Duration::from_millis(7));
                }
            });
        }
        // Optimizer + GC loop.
        {
            let region = Arc::clone(&region);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = region.run_heartbeats(false);
                    let _ = region.run_optimizer_cycle(table);
                    region.advance_micros(10_000_000);
                    let _ = region.run_gc(table);
                    std::thread::sleep(Duration::from_millis(11));
                }
            });
        }
        // Readers: snapshot scans must never error or regress.
        for _ in 0..2 {
            let region = Arc::clone(&region);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let engine = region.engine();
                let client = region.client();
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // "Snapshot too old" (NotFound once GC passes the
                    // snapshot horizon) is retryable at a fresh snapshot.
                    let n = loop {
                        match engine.count(table, client.snapshot(), &ScanOptions::default()) {
                            Ok(n) => break n,
                            Err(vortex::VortexError::NotFound(_)) => continue,
                            Err(e) if e.is_retryable() => continue,
                            Err(e) => panic!("reader failed: {e}"),
                        }
                    };
                    // Not monotone in general (deletes), but must be sane.
                    assert!(n < 10_000_000);
                    last = n;
                    std::thread::sleep(Duration::from_millis(3));
                }
                let _ = last;
            });
        }
        // Fault injector: transient write-error bursts on one cluster,
        // interleaved with RPC outage bursts on alternating hops.
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
                    std::thread::sleep(Duration::from_millis(23));
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
    let mut expected: std::collections::BTreeSet<i64> = Default::default();
    for (w, wm) in watermarks.iter().enumerate() {
        let n = wm.load(Ordering::SeqCst);
        for k in 0..n {
            expected.insert(w as i64 * KEYSPACE_STRIDE + k);
        }
    }
    for (w, lo, hi) in deleted.lock().unwrap().iter() {
        for k in *lo..*hi {
            expected.remove(&(*w as i64 * KEYSPACE_STRIDE + k));
        }
    }
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
    let want: Vec<i64> = expected.into_iter().collect();
    if got != want {
        // Forensics: which keys are missing/extra, and in what pattern?
        let got_set: std::collections::BTreeSet<i64> = got.iter().copied().collect();
        let want_set: std::collections::BTreeSet<i64> = want.iter().copied().collect();
        let missing: Vec<i64> = want_set.difference(&got_set).copied().collect();
        let extra: Vec<i64> = got_set.difference(&want_set).copied().collect();
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
        for sl in region.sms().list_streamlets(table) {
            eprintln!(
                "streamlet {} stream {} state {:?} first {} rows {} masks {}",
                sl.streamlet,
                sl.stream,
                sl.state,
                sl.first_stream_row,
                sl.row_count,
                sl.masks.len()
            );
        }
        eprintln!("deleted bands: {:?}", deleted.lock().unwrap());
        panic!(
            "ledger mismatch: got {} want {} (writers wrote {}, seed {seed})",
            got.len(),
            want.len(),
            watermarks
                .iter()
                .map(|w| w.load(Ordering::SeqCst))
                .sum::<i64>()
        );
    }

    // §6.3 invariants: unique locations, clean verification.
    let report = region
        .verifier()
        .verify_appends(table, &vortex::AuditLog::new())
        .unwrap();
    assert!(
        report.is_clean(),
        "verification violations (seed {seed}): {:?}",
        report.violations
    );

    // Exit telemetry: the unified snapshot, tagged with the seed that
    // reproduces this exact run.
    eprintln!(
        "chaos metrics (seed {seed}):\n{}",
        region.metrics_snapshot().to_table()
    );
}
