//! Kill/restart chaos soak: a supervisor thread murders Stream Servers
//! and the SMS task mid-flight — by decree on a seeded schedule, and
//! whenever an armed crash point fires inside a component — while torn
//! Colossus appends corrupt the tail of failed writes. Every restart
//! rebuilds from durable state only (checkpoint + WAL replay for
//! servers, the metastore for the SMS). The final table must hold
//! exactly the acked rows, each exactly once, and every §6.3 invariant
//! must stay green.
//!
//! Determinism: the whole fault schedule derives from one seed, printed
//! at startup and echoed in every assertion. Reproduce a failure with
//! `VORTEX_CHAOS_SEED=<seed> cargo test --test chaos_crash`.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vortex::row::{Row, RowSet, Value};
use vortex::schema::{Field, FieldType, PartitionTransform, Schema};
use vortex::{Region, RegionConfig, ScanOptions, VortexError};
use vortex_common::{crashpoints, obs};

/// Crash points and the metrics registry are process-global; the two
/// soaks in this binary must not overlap. Each test holds this for its
/// whole body.
static SOAK_LOCK: Mutex<()> = Mutex::new(());

/// Held by every soak thread that calls into a killable process. An
/// armed crash point can fire under any such call, so the supervisor
/// keeps reviving until the last holder is gone — otherwise a process
/// killed after the supervisor's final pass is never restarted and a
/// writer (or the reader) retries against it forever.
struct Caller(Arc<AtomicUsize>);

impl Caller {
    /// Registers a caller; call on the spawning thread, before `spawn`.
    fn enter(live: &Arc<AtomicUsize>) -> Self {
        live.fetch_add(1, Ordering::SeqCst);
        Caller(Arc::clone(live))
    }
}

impl Drop for Caller {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

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
/// The acceptance floor: the soak must complete at least this many
/// kill/restart cycles before it is allowed to finish.
const MIN_CYCLES: usize = 20;

/// Seed for the whole fault schedule: supervisor victims, crash-point
/// permille rolls, and torn-append prefixes. Override via
/// `VORTEX_CHAOS_SEED` to reproduce a failing run.
fn chaos_seed() -> u64 {
    std::env::var("VORTEX_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC8A5_0C8A)
}

/// Plain (non-atomic) xorshift* step for the supervisor's local RNG.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

#[test]
fn chaos_kill_restart_exact_ledger() {
    let _soak = SOAK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let seed = chaos_seed();
    eprintln!("chaos_crash seed = {seed} (override with VORTEX_CHAOS_SEED)");

    let region = Arc::new(
        Region::create(RegionConfig {
            clusters: 3,
            servers_per_cluster: 2,
            fragment_max_bytes: 24 * 1024,
            seed,
            optimizer: vortex::OptimizerConfig {
                target_block_rows: 512,
            },
            // Time-travel horizon ≫ the 10 s virtual jumps below.
            gc_grace_micros: Some(3_600_000_000),
            ..RegionConfig::default()
        })
        .unwrap(),
    );
    let client = region.client();
    let table = client.create_table("chaos_crash", schema()).unwrap().table;
    // The probe records into the process-global registry, which the
    // other soak in this binary also feeds when it runs first: every
    // count below is taken relative to this baseline.
    let (fresh_before, observed_before) = region.freshness().snapshot();

    // Torn-append axis: a failed Colossus append may durably persist a
    // seeded arbitrary prefix of its bytes. The seed makes the prefix
    // lengths reproducible; the injector thread below mints the tokens.
    for (i, c) in region.fleet().cluster_ids().into_iter().enumerate() {
        region
            .fleet()
            .get(c)
            .unwrap()
            .faults()
            .set_torn_seed(seed.wrapping_add(i as u64));
    }
    // The metastore durability domain is deliberately NOT in
    // `cluster_ids()` (separate failure domain, like the bucket store),
    // so its torn-append axis is seeded and dripped explicitly: WAL
    // commit records, checkpoint files, and pointer-generation appends
    // all see corrupted tails.
    region
        .meta_cluster()
        .unwrap()
        .faults()
        .set_torn_seed(seed.wrapping_add(0x5DB));

    // RPC-fault axis: seeded pre-execution unavailability on both
    // service hops plus reply loss on the server hop (the ambiguous-ack
    // path §4.2.2), layered under the kill/restart churn so the
    // freshness probe below measures commit-to-visible latency through
    // genuinely lossy channels.
    region.sms_rpc().faults().set_unavailable_permille(15);
    region.server_rpc().faults().set_unavailable_permille(15);
    region.server_rpc().faults().set_reply_lost_permille(10);

    // Crash-point axis: every registered point armed with a seeded
    // per-mille trigger. Rates are chosen so the data plane keeps
    // making progress between deaths while rarer control-plane paths
    // (checkpoint, GC, streamlet open, optimizer commits) still die a
    // handful of times over the run.
    let guards = [
        crashpoints::arm_permille("server.replica.mid_write", 2, seed ^ 0x01),
        crashpoints::arm_permille("server.append.pre_ack", 2, seed ^ 0x02),
        crashpoints::arm_permille("server.checkpoint.mid", 300, seed ^ 0x03),
        crashpoints::arm_permille("server.gc.mid", 100, seed ^ 0x04),
        crashpoints::arm_permille("sms.open_streamlet.post_txn", 60, seed ^ 0x05),
        crashpoints::arm_permille("optimizer.convert.pre_commit", 80, seed ^ 0x06),
        crashpoints::arm_permille("optimizer.recluster.pre_commit", 80, seed ^ 0x07),
        // Metastore durability points: a mid-append WAL death on any
        // metadata commit (the commit is never acked — the SMS channel
        // converts it into a task death), plus both checkpoint deaths
        // (torn unpublished candidate; durable-but-unpublished file).
        crashpoints::arm_permille("meta.wal.mid_append", 8, seed ^ 0x08),
        crashpoints::arm_permille("meta.checkpoint.mid_write", 300, seed ^ 0x09),
        crashpoints::arm_permille("meta.checkpoint.pre_publish", 300, seed ^ 0x0A),
    ];

    let stop = Arc::new(AtomicBool::new(false));
    let callers = Arc::new(AtomicUsize::new(0));
    // Per-writer published watermark: keys < watermark are acked.
    let watermarks: Arc<Vec<AtomicI64>> =
        Arc::new((0..WRITERS).map(|_| AtomicI64::new(0)).collect());
    // Completed kill→restart pairs across servers and SMS tasks.
    let cycles = Arc::new(AtomicUsize::new(0));
    // Metastore checkpoints successfully published by the supervisor.
    let meta_ckpts = Arc::new(AtomicUsize::new(0));
    // Cold-recovery drills run against the metastore's durable state.
    let meta_drills = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        // Writers: disjoint key spaces; every surfaced error during an
        // outage window is retryable (the process boundary converts a
        // crash into Unavailable), and exactly-once offsets dedup any
        // batch that landed durably before its server died pre-ack.
        for w in 0..WRITERS {
            let client = region.client();
            let stop = Arc::clone(&stop);
            let watermarks = Arc::clone(&watermarks);
            let caller = Caller::enter(&callers);
            s.spawn(move || {
                let _caller = caller;
                // The SMS crash points are armed already: opening the
                // stream follows the same retry rule as an append.
                let mut writer = loop {
                    match client.create_unbuffered_writer(table) {
                        Ok(writer) => break writer,
                        Err(e) if e.is_retryable() => {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(e) => panic!("writer {w} failed to open (seed {seed}): {e}"),
                    }
                };
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
                    loop {
                        match writer.append(batch.clone()) {
                            Ok(_) => break,
                            // The streamlet's server is dead until the
                            // supervisor revives it; don't spin hot.
                            Err(e) if e.is_retryable() => {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Err(e) => panic!("writer {w} failed (seed {seed}): {e}"),
                        }
                    }
                    next += 50;
                    watermarks[w].store(next, Ordering::SeqCst);
                }
            });
        }
        // Supervisor: revives whatever a crash point killed, murders a
        // random victim on a seeded schedule, and periodically forces a
        // WAL checkpoint (which can itself die mid-checkpoint).
        {
            let region = Arc::clone(&region);
            let stop = Arc::clone(&stop);
            let cycles = Arc::clone(&cycles);
            let meta_ckpts = Arc::clone(&meta_ckpts);
            let meta_drills = Arc::clone(&meta_drills);
            let callers = Arc::clone(&callers);
            s.spawn(move || {
                let mut rng = seed ^ 0x50BE_12F1_5012; // supervisor lane
                let n_servers = region.server_channels().len();
                let mut tick = 0usize;
                loop {
                    let done = stop.load(Ordering::Relaxed);
                    // Revive phase: every dead process restarts from
                    // durable state only, then a full-state heartbeat
                    // round reconciles promptly.
                    let mut revived = false;
                    for idx in 0..n_servers {
                        if region.server_channels()[idx].is_dead() {
                            restart_server_with_retry(&region, idx, seed);
                            cycles.fetch_add(1, Ordering::SeqCst);
                            revived = true;
                        }
                    }
                    for idx in 0..region.sms_channels().len() {
                        if region.sms_channels()[idx].is_dead() {
                            restart_sms_with_retry(&region, idx, seed);
                            cycles.fetch_add(1, Ordering::SeqCst);
                            revived = true;
                            // Recovery drill: rebuild a standby metastore
                            // from durable state only — exactly what a
                            // rescheduled SMS host does — and check it
                            // came up from checkpoint + WAL tail.
                            let (_, rep) = region.recover_metastore_replica().unwrap_or_else(|e| {
                                panic!("metastore recovery drill failed (seed {seed}): {e}")
                            });
                            assert_eq!(
                                rep.fallback_depth, 0,
                                "a published checkpoint failed to load (seed {seed}): {rep:?}"
                            );
                            if meta_ckpts.load(Ordering::SeqCst) > 0 {
                                assert!(
                                    rep.checkpoint_version.is_some(),
                                    "recovery ignored published checkpoints (seed {seed}): {rep:?}"
                                );
                            }
                            meta_drills.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    if revived {
                        let _ = region.run_heartbeats(true);
                    }
                    if done {
                        if callers.load(Ordering::SeqCst) == 0 {
                            break; // exits with every process alive
                        }
                        // Revive-only until the callers have drained.
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    // Murder phase: a seeded victim every third tick.
                    if tick % 3 == 0 {
                        let r = next_rand(&mut rng);
                        if r % 5 == 0 {
                            region.kill_sms_task(0);
                        } else {
                            region.kill_server(r as usize % n_servers);
                        }
                    }
                    // Checkpoint phase: force WAL checkpoints so
                    // recovery exercises snapshot+tail replay (and the
                    // mid-checkpoint crash point) rather than pure WAL
                    // rebuilds. A simulated death here is a host-process
                    // death: mark the channel dead, revive next tick.
                    if tick % 4 == 1 {
                        let idx = next_rand(&mut rng) as usize % n_servers;
                        if !region.server_channels()[idx].is_dead() {
                            // Any other outcome (incl. a torn/failed
                            // checkpoint append) aborts the checkpoint
                            // and keeps prior state.
                            if let Err(VortexError::SimulatedCrash(_)) =
                                region.servers()[idx].checkpoint()
                            {
                                region.kill_server(idx);
                            }
                        }
                    }
                    // Metastore checkpoint phase: compaction + atomic
                    // publish + WAL truncation, under the same torn
                    // appends and armed crash points as everything
                    // else. A simulated death mid-checkpoint is an SMS
                    // host death (the checkpoint daemon rides the SMS
                    // task); any other error — torn candidate, torn
                    // pointer append, fencing — just means the next
                    // round retries against intact prior state.
                    if tick % 4 == 3 {
                        match region.checkpoint_metadata() {
                            Ok(_) => {
                                meta_ckpts.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(VortexError::SimulatedCrash(_)) => region.kill_sms_task(0),
                            Err(_) => {}
                        }
                    }
                    tick += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
        // Background reorganization (a crash point firing inside the
        // optimizer aborts that pass; the next cycle redoes the work).
        {
            let region = Arc::clone(&region);
            let stop = Arc::clone(&stop);
            let caller = Caller::enter(&callers);
            s.spawn(move || {
                let _caller = caller;
                while !stop.load(Ordering::Relaxed) {
                    let _ = region.run_heartbeats(false);
                    let _ = region.run_optimizer_cycle(table);
                    region.advance_micros(10_000_000);
                    let _ = region.run_gc(table);
                    std::thread::sleep(Duration::from_millis(11));
                }
            });
        }
        // Reader: scans must keep working across deaths (reads go to
        // Colossus replicas, not the dead server's memory).
        {
            let region = Arc::clone(&region);
            let stop = Arc::clone(&stop);
            let caller = Caller::enter(&callers);
            s.spawn(move || {
                let _caller = caller;
                let engine = region.engine();
                let client = region.client();
                while !stop.load(Ordering::Relaxed) {
                    let n = loop {
                        match engine.count(table, client.snapshot(), &ScanOptions::default()) {
                            Ok(n) => break n,
                            Err(vortex::VortexError::NotFound(_)) => continue,
                            Err(e) if e.is_retryable() => continue,
                            Err(e) => panic!("reader failed (seed {seed}): {e}"),
                        }
                    };
                    assert!(n < 10_000_000, "absurd row count {n} (seed {seed})");
                    std::thread::sleep(Duration::from_millis(3));
                }
            });
        }
        // Torn-append injector: a steady drip of failed-and-torn write
        // tokens across all clusters, so log files, WAL records, and
        // checkpoints all see corrupted tails.
        {
            let region = Arc::clone(&region);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let ids = region.fleet().cluster_ids();
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let c = ids[i % ids.len()];
                    region.fleet().get(c).unwrap().faults().torn_next_appends(2);
                    if i % 3 == 2 {
                        region.fleet().get(c).unwrap().faults().fail_next_appends(1);
                    }
                    // Every few rounds, aim the same drip at the
                    // metastore durability domain, so commit-WAL
                    // records, checkpoint candidates, and pointer
                    // generations all grow torn tails mid-soak.
                    if i % 4 == 1 {
                        let meta = region.meta_cluster().unwrap();
                        meta.faults().torn_next_appends(1);
                        if i % 8 == 5 {
                            meta.faults().fail_next_appends(1);
                        }
                    }
                    i += 1;
                    std::thread::sleep(Duration::from_millis(17));
                }
            });
        }

        // Run until the clock AND the cycle floor are both satisfied.
        let start = Instant::now();
        while start.elapsed() < RUN_FOR || cycles.load(Ordering::SeqCst) < MIN_CYCLES {
            std::thread::sleep(Duration::from_millis(50));
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "soak stalled: only {} kill/restart cycles after 60s (seed {seed})",
                cycles.load(Ordering::SeqCst)
            );
        }
        stop.store(true, Ordering::Relaxed);
    });

    // The fault axes actually fired.
    let completed = cycles.load(Ordering::SeqCst);
    assert!(
        completed >= MIN_CYCLES,
        "only {completed} kill/restart cycles completed (seed {seed})"
    );
    assert!(
        crashpoints::total_fires() > 0,
        "no crash point ever fired (seed {seed})"
    );
    eprintln!(
        "chaos_crash: {completed} kill/restart cycles, {} crash-point fires (seed {seed})",
        crashpoints::total_fires()
    );
    // The metastore axes actually exercised durability: checkpoints
    // published through the churn, and SMS revives drilled recovery.
    assert!(
        meta_ckpts.load(Ordering::SeqCst) > 0,
        "no metastore checkpoint ever published (seed {seed})"
    );
    assert!(
        meta_drills.load(Ordering::SeqCst) > 0,
        "no metastore recovery drill ran (seed {seed})"
    );

    // Settle: disarm every crash point and stop minting storage faults
    // (the ledger below judges durable state, not fault luck), revive
    // anything a last racing iteration killed, then full-state
    // heartbeats reconcile whatever the final death left half-reported.
    drop(guards);
    region.sms_rpc().faults().clear();
    region.server_rpc().faults().clear();
    for c in region.fleet().cluster_ids() {
        let f = region.fleet().get(c).unwrap();
        f.faults().torn_next_appends(0);
        f.faults().fail_next_appends(0);
    }
    let meta = region.meta_cluster().unwrap();
    meta.faults().torn_next_appends(0);
    meta.faults().fail_next_appends(0);
    for idx in 0..region.server_channels().len() {
        if region.server_channels()[idx].is_dead() {
            restart_server_with_retry(&region, idx, seed);
        }
    }
    for idx in 0..region.sms_channels().len() {
        if region.sms_channels()[idx].is_dead() {
            restart_sms_with_retry(&region, idx, seed);
        }
    }
    for _ in 0..3 {
        region.run_heartbeats(true).unwrap();
        region.advance_micros(1_000_000);
    }

    // ---- Final exact ledger ----
    let mut expected: std::collections::BTreeSet<i64> = Default::default();
    for (w, wm) in watermarks.iter().enumerate() {
        let n = wm.load(Ordering::SeqCst);
        for k in 0..n {
            expected.insert(w as i64 * KEYSPACE_STRIDE + k);
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
        panic!(
            "ledger mismatch: got {} want {} after {completed} kill/restart cycles (seed {seed})",
            got.len(),
            want.len(),
        );
    }

    // §6.3 invariants: unique locations, clean verification.
    let report = region
        .verifier()
        .verify_appends(table, &vortex::AuditLog::new())
        .unwrap();
    assert!(
        report.is_clean(),
        "verifier violations after crash soak (seed {seed}): {:?}",
        report.violations
    );

    // ---- Freshness probe (§8) under chaos ----
    // The reader thread's scans plus the final ledger scan fed the
    // region's commit-to-visible histogram through lossy RPC channels
    // and kill/restart churn. It must have observed rows, its tail must
    // stay finite (never the saturated bucket ceiling), and the
    // per-table watermark must prevent double-counting: each row is
    // observed at most once, so the unique-row counter can never exceed
    // the final ledger, and it must agree with the histogram exactly.
    let (fresh, observed) = region.freshness().snapshot();
    let fresh_count = fresh.count - fresh_before.count;
    let observed = observed - observed_before;
    assert!(fresh_count > 0, "freshness histogram empty (seed {seed})");
    assert!(
        fresh.p99 <= fresh.max && fresh.max < u64::MAX / 2,
        "freshness tail saturated: p99={} max={} (seed {seed})",
        fresh.p99,
        fresh.max
    );
    assert_eq!(
        observed, fresh_count,
        "freshness histogram and row counter disagree (seed {seed})"
    );
    assert!(
        observed <= got.len() as u64,
        "freshness double-counted: {observed} observed > {} visible rows (seed {seed})",
        got.len()
    );

    // ---- Metastore durability epilogue ----
    // One final clean checkpoint, then a cold recovery drill: a standby
    // built purely from durable state (published checkpoint + WAL tail)
    // must equal the live store byte-for-byte — every acknowledged
    // commit present, nothing GC'd resurrected — and must come up from
    // the checkpoint alone, never by replaying full history.
    let outcome = {
        let mut last = None;
        for _ in 0..50 {
            match region.checkpoint_metadata() {
                Ok(o) => {
                    last = Some(o);
                    break;
                }
                Err(e) if e.is_retryable() => continue,
                Err(e) => panic!("final metastore checkpoint failed (seed {seed}): {e}"),
            }
        }
        last.unwrap_or_else(|| panic!("final metastore checkpoint kept failing (seed {seed})"))
    };
    let (replica, rep) = region
        .recover_metastore_replica()
        .unwrap_or_else(|e| panic!("final metastore recovery failed (seed {seed}): {e}"));
    assert_eq!(
        rep.checkpoint_version,
        Some(outcome.version),
        "recovery did not land on the just-published checkpoint (seed {seed}): {rep:?}"
    );
    assert_eq!(
        rep.fallback_depth, 0,
        "a published checkpoint failed to load (seed {seed}): {rep:?}"
    );
    assert_eq!(
        rep.commits_replayed, 0,
        "recovery replayed commits the checkpoint should cover (seed {seed}): {rep:?}"
    );
    assert_eq!(
        rep.wal_epochs_replayed, 0,
        "WAL epochs outlived the checkpoint that covers them (seed {seed}): {rep:?}"
    );
    assert_eq!(
        replica.snapshot_bytes(),
        region.store().snapshot_bytes(),
        "standby metastore diverges from the live store after recovery (seed {seed})"
    );
    eprintln!(
        "chaos_crash metastore: {} checkpoints published, {} recovery drills, final recovery {rep:?} (seed {seed})",
        meta_ckpts.load(Ordering::SeqCst),
        meta_drills.load(Ordering::SeqCst),
    );

    // Exit telemetry: the unified snapshot, tagged with the seed that
    // reproduces this exact run.
    eprintln!(
        "chaos_crash metrics (seed {seed}):\n{}",
        region.metrics_snapshot().to_table()
    );
}

/// Shard-routing soak: many more concurrent streams than shards, so
/// streamlet ids interleave across every shard of every server, while
/// RPC faults make acks ambiguous and the supervisor kills/restarts
/// servers mid-group. Verifies the shard-per-core data plane end to
/// end:
///
/// - **exactly-once acks**: the final table holds exactly the acked
///   rows (ambiguous acks dedup through the offset ledger);
/// - **per-streamlet ordering**: within every stream, rows sorted by
///   their storage offset carry strictly increasing writer keys — the
///   single-writer shard discipline never reorders a stream;
/// - **routing spread**: multiple shard mailboxes actually carried
///   appends, and group commit batched them.
#[test]
fn chaos_shard_routing_many_streamlets() {
    let _soak = SOAK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let seed = chaos_seed() ^ 0x5AAD; // distinct schedule from the kill soak
    eprintln!("chaos_shard_routing seed = {seed} (override with VORTEX_CHAOS_SEED)");

    const ROUTE_WRITERS: usize = 10; // > shards-per-server: ids must interleave
    const ROUTE_RUN_FOR: Duration = Duration::from_secs(2);
    const ROUTE_MIN_CYCLES: usize = 8;

    let region = Arc::new(
        Region::create(RegionConfig {
            clusters: 3,
            servers_per_cluster: 1,
            fragment_max_bytes: 24 * 1024,
            seed,
            gc_grace_micros: Some(3_600_000_000),
            ..RegionConfig::default()
        })
        .unwrap(),
    );
    let client = region.client();
    let table = client
        .create_table("chaos_routing", schema())
        .unwrap()
        .table;

    // Ambiguous-ack axis: lost replies force exactly-once retries that
    // must dedup against batches a shard already committed.
    region.sms_rpc().faults().set_unavailable_permille(10);
    region.server_rpc().faults().set_unavailable_permille(15);
    region.server_rpc().faults().set_reply_lost_permille(12);

    // Group-granularity crash axis: pre-ack deaths discard or orphan a
    // whole group commit; restart + WAL replay must agree with the acks.
    let _guards = [
        crashpoints::arm_permille("server.replica.mid_write", 2, seed ^ 0x11),
        crashpoints::arm_permille("server.append.pre_ack", 2, seed ^ 0x12),
    ];

    // Shard-balance baseline: counters are process-global, so judge this
    // soak by deltas. The default config runs 4 shards per server; read
    // a few extra slots in case the default grows.
    let shard_counters: Vec<_> = (0..8)
        .map(|i| obs::global().counter(&format!("{}{i:02}.appends", obs::SHARD_APPENDS_PREFIX)))
        .collect();
    let shard_before: Vec<u64> = shard_counters.iter().map(|c| c.get()).collect();
    let groups_counter = obs::global().counter(obs::GROUP_COMMIT_GROUPS);
    let groups_before = groups_counter.get();

    let stop = Arc::new(AtomicBool::new(false));
    let callers = Arc::new(AtomicUsize::new(0));
    let watermarks: Arc<Vec<AtomicI64>> =
        Arc::new((0..ROUTE_WRITERS).map(|_| AtomicI64::new(0)).collect());
    let cycles = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        // One stream per writer; varied batch sizes so group commits on
        // a shard interleave appends from several streamlets.
        for w in 0..ROUTE_WRITERS {
            let client = region.client();
            let stop = Arc::clone(&stop);
            let watermarks = Arc::clone(&watermarks);
            let caller = Caller::enter(&callers);
            s.spawn(move || {
                let _caller = caller;
                let mut writer = client.create_unbuffered_writer(table).unwrap();
                let batch_rows = 3 + (w as i64 % 5) * 4; // 3..=19 rows
                let mut next = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let batch = RowSet::new(
                        (0..batch_rows)
                            .map(|i| {
                                let k = next + i;
                                Row::insert(vec![
                                    Value::Int64(k % 5),
                                    Value::Int64(w as i64 * KEYSPACE_STRIDE + k),
                                    Value::String(format!("route-w{w}-k{k}")),
                                ])
                            })
                            .collect(),
                    );
                    loop {
                        match writer.append(batch.clone()) {
                            Ok(_) => break,
                            Err(e) if e.is_retryable() => {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Err(e) => panic!("route writer {w} failed (seed {seed}): {e}"),
                        }
                    }
                    next += batch_rows;
                    watermarks[w].store(next, Ordering::SeqCst);
                }
            });
        }
        // Supervisor: revive crash-point victims, murder a seeded server
        // on a schedule. (Server kills only — the SMS stays up so the
        // soak concentrates churn on the shard data plane.)
        {
            let region = Arc::clone(&region);
            let stop = Arc::clone(&stop);
            let cycles = Arc::clone(&cycles);
            let callers = Arc::clone(&callers);
            s.spawn(move || {
                let mut rng = seed ^ 0x0B07_7E50; // routing supervisor lane
                let n_servers = region.server_channels().len();
                let mut tick = 0usize;
                loop {
                    let done = stop.load(Ordering::Relaxed);
                    let mut revived = false;
                    for idx in 0..n_servers {
                        if region.server_channels()[idx].is_dead() {
                            restart_server_with_retry(&region, idx, seed);
                            cycles.fetch_add(1, Ordering::SeqCst);
                            revived = true;
                        }
                    }
                    if revived {
                        let _ = region.run_heartbeats(true);
                    }
                    if done {
                        if callers.load(Ordering::SeqCst) == 0 {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    if tick % 3 == 0 {
                        let r = next_rand(&mut rng);
                        region.kill_server(r as usize % n_servers);
                    }
                    tick += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
        // Heartbeats keep seals/rotations reconciled while writers run.
        {
            let region = Arc::clone(&region);
            let stop = Arc::clone(&stop);
            let caller = Caller::enter(&callers);
            s.spawn(move || {
                let _caller = caller;
                while !stop.load(Ordering::Relaxed) {
                    let _ = region.run_heartbeats(false);
                    region.advance_micros(1_000_000);
                    std::thread::sleep(Duration::from_millis(7));
                }
            });
        }

        let start = Instant::now();
        while start.elapsed() < ROUTE_RUN_FOR || cycles.load(Ordering::SeqCst) < ROUTE_MIN_CYCLES {
            std::thread::sleep(Duration::from_millis(50));
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "routing soak stalled: only {} kill/restart cycles after 60s (seed {seed})",
                cycles.load(Ordering::SeqCst)
            );
        }
        stop.store(true, Ordering::Relaxed);
    });

    let completed = cycles.load(Ordering::SeqCst);
    assert!(
        completed >= ROUTE_MIN_CYCLES,
        "only {completed} kill/restart cycles completed (seed {seed})"
    );

    // Settle, then judge.
    region.sms_rpc().faults().clear();
    region.server_rpc().faults().clear();
    for _ in 0..3 {
        region.run_heartbeats(true).unwrap();
        region.advance_micros(1_000_000);
    }

    // ---- Exactly-once ledger across all streams ----
    let mut expected: std::collections::BTreeSet<i64> = Default::default();
    for (w, wm) in watermarks.iter().enumerate() {
        let n = wm.load(Ordering::SeqCst);
        assert!(n > 0, "route writer {w} never acked a batch (seed {seed})");
        for k in 0..n {
            expected.insert(w as i64 * KEYSPACE_STRIDE + k);
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
    let want: Vec<i64> = expected.iter().copied().collect();
    assert_eq!(
        got.len(),
        want.len(),
        "routing ledger size mismatch after {completed} cycles (seed {seed})"
    );
    assert_eq!(got, want, "routing ledger mismatch (seed {seed})");

    // ---- Per-streamlet ordering ----
    // Group rows by source stream; within a stream, storage offsets must
    // be unique and sorting by offset must sort the writer keys: the
    // single-writer shard never reorders or duplicates a stream's rows.
    let mut by_stream: std::collections::BTreeMap<u64, Vec<(u64, i64)>> = Default::default();
    for (m, r) in &res.rows {
        by_stream
            .entry(m.stream)
            .or_default()
            .push((m.offset, r.values[1].as_i64().unwrap()));
    }
    assert!(
        by_stream.len() >= ROUTE_WRITERS,
        "expected at least {ROUTE_WRITERS} streams, saw {} (seed {seed})",
        by_stream.len()
    );
    for (stream, rows) in &mut by_stream {
        rows.sort_unstable_by_key(|(off, _)| *off);
        let writer = rows[0].1 / KEYSPACE_STRIDE;
        for pair in rows.windows(2) {
            let ((off_a, key_a), (off_b, key_b)) = (pair[0], pair[1]);
            assert!(
                off_b > off_a,
                "stream {stream}: duplicate offset {off_b} (seed {seed})"
            );
            assert!(
                key_b > key_a,
                "stream {stream}: offsets {off_a}->{off_b} reorder keys {key_a}->{key_b} (seed {seed})"
            );
        }
        for (_, key) in rows.iter() {
            assert_eq!(
                key / KEYSPACE_STRIDE,
                writer,
                "stream {stream} mixes writers (seed {seed})"
            );
        }
    }

    // ---- Routing spread + group commit ----
    let spread: Vec<u64> = shard_counters
        .iter()
        .zip(&shard_before)
        .map(|(c, b)| c.get().saturating_sub(*b))
        .collect();
    let busy = spread.iter().filter(|&&d| d > 0).count();
    eprintln!("chaos_shard_routing shard append deltas: {spread:?} (seed {seed})");
    assert!(
        busy >= 2,
        "appends landed on only {busy} shard(s): {spread:?} (seed {seed})"
    );
    let groups = groups_counter.get() - groups_before;
    let appends_total: u64 = spread.iter().sum();
    assert!(groups > 0, "no group commits recorded (seed {seed})");
    assert!(
        appends_total >= groups,
        "group commits ({groups}) exceed shard appends ({appends_total}) (seed {seed})"
    );
    eprintln!(
        "chaos_shard_routing: {completed} cycles, {} streams, {groups} groups, {appends_total} shard appends (seed {seed})",
        by_stream.len()
    );
}

/// Restarts server `idx`, retrying transient recovery failures (a torn
/// token pending on the WAL cluster can fail recovery's bookkeeping
/// writes; the state it recovers from is untouched, so retry is safe).
fn restart_server_with_retry(region: &Region, idx: usize, seed: u64) {
    for _ in 0..50 {
        match region.restart_server(idx) {
            Ok(()) => return,
            Err(e) if e.is_retryable() => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => panic!("restart_server({idx}) failed (seed {seed}): {e}"),
        }
    }
    panic!("restart_server({idx}) kept failing transiently (seed {seed})");
}

/// Restarts SMS task `idx` (see [`restart_server_with_retry`]).
fn restart_sms_with_retry(region: &Region, idx: usize, seed: u64) {
    for _ in 0..50 {
        match region.restart_sms_task(idx) {
            Ok(()) => return,
            Err(e) if e.is_retryable() => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => panic!("restart_sms_task({idx}) failed (seed {seed}): {e}"),
        }
    }
    panic!("restart_sms_task({idx}) kept failing transiently (seed {seed})");
}
