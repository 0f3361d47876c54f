//! Overload chaos soak: a deterministic open-loop driver offers 4× the
//! admitted capacity across the three work classes — interactive
//! appends, batch ingest, and a background write storm — through lossy
//! RPC channels with one Stream Server kill/restart cycle mid-run.
//!
//! With admission enabled, the region token bucket plus the per-class
//! queue bounds must shed the lowest class first: interactive appends
//! keep ≥95% goodput and a bounded p99 while background work is shed
//! wholesale. Every acked append must survive to the final exact
//! ledger. The control arm replays the *same* seeded workload with
//! `AdmissionConfig::disabled()` and must exhibit the failure mode
//! admission exists to prevent: an unbounded storage backlog whose
//! latency grows monotonically with offered load (congestion collapse).
//!
//! Determinism: everything derives from one seed, printed at startup.
//! Reproduce with `VORTEX_CHAOS_SEED=<seed> cargo test --test
//! chaos_overload`.

use vortex::row::{Row, RowSet, Value};
use vortex::schema::{Field, FieldType, Schema};
use vortex::{
    class_scope, AdmissionConfig, AppendResult, ClassStats, Percentiles, Quota, Region,
    RegionConfig, ScanOptions, StreamWriter, VortexError, WorkClass,
};

fn schema() -> Schema {
    Schema::new(vec![
        Field::required("k", FieldType::Int64),
        Field::required("payload", FieldType::String),
    ])
}

/// One virtual tick of the open-loop offered schedule.
const TICK_US: u64 = 20_000;
/// Ticks per arm: 500 × 20 ms = 10 virtual seconds of sustained load.
const TICKS: u64 = 500;
/// Rows per offered append.
const ROWS_PER_APPEND: i64 = 4;
/// Keyspace stride between the class-dedicated writers.
const KEYSPACE_STRIDE: i64 = 1_000_000;
/// Admitted capacity: the region requests/s quota. The offered schedule
/// below (1 interactive + 0.5 batch + 9 background appends per 20 ms
/// tick = 525 req/s) is ≥ 4× this rate.
const QUOTA_RPS: u64 = 130;
/// Tick on which the supervisor kills a Stream Server / restarts it.
const KILL_TICK: u64 = 200;
const RESTART_TICK: u64 = 260;
/// Checkpoint tick for the control arm's queue-growth assertion.
const MID_TICK: u64 = 150;

fn chaos_seed() -> u64 {
    std::env::var("VORTEX_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC8A5_0C8A)
}

/// Per-class tallies for one arm of the experiment.
#[derive(Default)]
struct ClassTally {
    offered: u64,
    acked: u64,
    /// End-to-end virtual latency (send → durable) of each acked append.
    latencies_us: Vec<u64>,
    /// Latest observed latency at [`MID_TICK`] (backlog checkpoint).
    lag_mid_us: u64,
    /// Acked keys, exactly as admitted into the ledger.
    acked_keys: Vec<i64>,
}

impl ClassTally {
    fn record(&mut self, res: &AppendResult, first_key: i64) {
        self.acked += 1;
        self.latencies_us.push(res.latency_us);
        for k in 0..res.row_count as i64 {
            self.acked_keys.push(first_key + k);
        }
    }

    fn p99(&self) -> u64 {
        let mut v = self.latencies_us.clone();
        Percentiles::compute(&mut v).p99
    }

    fn lag_end_us(&self) -> u64 {
        self.latencies_us.last().copied().unwrap_or(0)
    }
}

struct ArmReport {
    interactive: ClassTally,
    batch: ClassTally,
    background: ClassTally,
    stats: [ClassStats; 3],
    snapshot_json: String,
}

fn batch_rows(first_key: i64) -> RowSet {
    RowSet::new(
        (0..ROWS_PER_APPEND)
            .map(|i| Row::insert(vec![Value::Int64(first_key + i), Value::String("p".into())]))
            .collect(),
    )
}

/// Appends that must land: interactive and batch offers retry through
/// transient faults and — honoring the server's `retry_after_us` hint
/// at application level — through throttling, advancing virtual time
/// while they wait. Panics if the append cannot land at all.
fn must_append(
    region: &Region,
    writer: &mut StreamWriter,
    rows: RowSet,
    seed: u64,
) -> AppendResult {
    for _ in 0..100 {
        match writer.append(rows.clone()) {
            Ok(res) => return res,
            Err(VortexError::ResourceExhausted { retry_after_us, .. }) => {
                // The client-side contract for RESOURCE_EXHAUSTED: back
                // off for the quoted interval (clamped) and re-offer.
                region.advance_micros(retry_after_us.clamp(1_000, 50_000));
            }
            Err(e) if e.is_retryable() => continue,
            Err(e) => panic!("append failed (seed {seed}): {e}"),
        }
    }
    panic!("append kept failing transiently (seed {seed})");
}

/// Sheddable offers: background load takes `ResourceExhausted` as a
/// terminal shed (nothing executed — admission rejects before the
/// transport hop) and drops the payload instead of waiting. Persistent
/// `Unavailable` is treated the same way: while a Stream Server is
/// down, the writer's rotation RPCs are background-class too and are
/// shed first, pinning the writer to the dead server — exactly the
/// intended starvation, and (with no reply loss on the data hop) every
/// such failure is pre-execution, so dropping the offer is ledger-safe.
fn try_append(writer: &mut StreamWriter, rows: RowSet, seed: u64) -> Option<AppendResult> {
    for _ in 0..50 {
        match writer.append(rows.clone()) {
            Ok(res) => return Some(res),
            Err(VortexError::ResourceExhausted { .. }) => return None,
            Err(e) if e.is_retryable() => continue,
            Err(e) => panic!("background append failed (seed {seed}): {e}"),
        }
    }
    None
}

fn restart_server_with_retry(region: &Region, idx: usize, seed: u64) {
    for _ in 0..50 {
        match region.restart_server(idx) {
            Ok(()) => return,
            Err(e) if e.is_retryable() => continue,
            Err(e) => panic!("restart_server({idx}) failed (seed {seed}): {e}"),
        }
    }
    panic!("restart_server({idx}) kept failing transiently (seed {seed})");
}

/// Runs one arm — the full seeded overload schedule against a fresh
/// region — and returns its tallies plus the exact-ledger verdict.
fn run_arm(seed: u64, admission: AdmissionConfig, arm: &str) -> ArmReport {
    let region = Region::create(RegionConfig {
        clusters: 2,
        servers_per_cluster: 2,
        seed,
        // Time-travel horizon ≫ the virtual minutes this soak spans.
        gc_grace_micros: Some(3_600_000_000),
        admission,
        ..RegionConfig::paper_latency()
    })
    .unwrap();
    let client = region.client();
    let table = client.create_table("overload", schema()).unwrap().table;

    // RPC-fault axis: seeded pre-execution unavailability on both hops
    // and reply loss on the (idempotently reconciled) metadata hop.
    region.sms_rpc().faults().set_unavailable_permille(10);
    region.sms_rpc().faults().set_reply_lost_permille(5);
    region.server_rpc().faults().set_unavailable_permille(10);

    // Class-dedicated writers. Creation runs un-scoped (interactive) so
    // stream setup cannot be shed before the storm starts.
    let mut w_int = client.create_unbuffered_writer(table).unwrap();
    let mut w_bat = client.create_unbuffered_writer(table).unwrap();
    let mut w_bg = client.create_unbuffered_writer(table).unwrap();

    let mut interactive = ClassTally::default();
    let mut batch = ClassTally::default();
    let mut background = ClassTally::default();
    // Key cursors advance per *offered* append so a shed offer's keys
    // are never reused: the ledger can distinguish "shed, never landed"
    // from "acked, lost".
    let (mut k_int, mut k_bat, mut k_bg) = (0i64, KEYSPACE_STRIDE, 2 * KEYSPACE_STRIDE);

    for tick in 0..TICKS {
        region.advance_micros(TICK_US);

        // One kill/restart cycle mid-storm: the victim's streamlets
        // rotate to surviving servers and rotate back on heartbeats.
        if tick == KILL_TICK {
            region.kill_server(1);
        }
        if tick == RESTART_TICK {
            restart_server_with_retry(&region, 1, seed);
            let _ = region.run_heartbeats(true);
        }
        if tick % 100 == 99 {
            // Real background maintenance rides along, tagged by its
            // own scopes inside Region; shed cycles are tolerated.
            let _ = region.run_optimizer_cycle(table);
            let _ = region.run_gc(table);
        }

        // Interactive: 1 append / tick = 50 req/s (well inside quota).
        interactive.offered += 1;
        let res = must_append(&region, &mut w_int, batch_rows(k_int), seed);
        interactive.record(&res, k_int);
        k_int += ROWS_PER_APPEND;

        // Batch: 1 append every other tick = 25 req/s.
        if tick % 2 == 0 {
            batch.offered += 1;
            let _g = class_scope(WorkClass::Batch);
            let res = must_append(&region, &mut w_bat, batch_rows(k_bat), seed);
            batch.record(&res, k_bat);
            k_bat += ROWS_PER_APPEND;
        }

        // Background write storm: 9 appends / tick = 450 req/s — the
        // overload. Sheddable; dropped payloads are never retried.
        {
            let _g = class_scope(WorkClass::Background);
            for _ in 0..9 {
                background.offered += 1;
                if let Some(res) = try_append(&mut w_bg, batch_rows(k_bg), seed) {
                    background.record(&res, k_bg);
                }
                k_bg += ROWS_PER_APPEND;
            }
        }

        if tick == MID_TICK {
            interactive.lag_mid_us = interactive.lag_end_us();
            background.lag_mid_us = background.lag_end_us();
        }
    }

    let offered_per_sec =
        (interactive.offered + batch.offered + background.offered) * 1_000_000 / (TICKS * TICK_US);
    assert!(
        offered_per_sec >= 4 * QUOTA_RPS,
        "schedule drifted: offered {offered_per_sec}/s < 4× quota {QUOTA_RPS}/s (seed {seed})"
    );

    let stats = [
        region.admission().class_stats(WorkClass::Interactive),
        region.admission().class_stats(WorkClass::Batch),
        region.admission().class_stats(WorkClass::Background),
    ];

    // ---- Settle: lift faults, let every backlog drain, then demand
    // the exact ledger: the table holds precisely the acked keys. ----
    region.sms_rpc().faults().set_unavailable_permille(0);
    region.sms_rpc().faults().set_reply_lost_permille(0);
    region.server_rpc().faults().set_unavailable_permille(0);
    for _ in 0..3 {
        let _ = region.run_heartbeats(true);
        region.advance_micros(1_000_000);
    }
    // Jump past the deepest backlogged completion (control arm builds
    // tens of virtual seconds of queue).
    region.advance_micros(120_000_000);

    let mut want: Vec<i64> = Vec::new();
    want.extend_from_slice(&interactive.acked_keys);
    want.extend_from_slice(&batch.acked_keys);
    want.extend_from_slice(&background.acked_keys);
    want.sort_unstable();
    let res = region
        .engine()
        .scan(table, client.snapshot(), &ScanOptions::default())
        .unwrap();
    let mut got: Vec<i64> = res
        .rows
        .iter()
        .map(|(_, r)| r.values[0].as_i64().unwrap())
        .collect();
    got.sort_unstable();
    if got != want {
        let got_set: std::collections::BTreeSet<i64> = got.iter().copied().collect();
        let want_set: std::collections::BTreeSet<i64> = want.iter().copied().collect();
        let missing: Vec<i64> = want_set.difference(&got_set).copied().collect();
        let extra: Vec<i64> = got_set.difference(&want_set).copied().collect();
        eprintln!(
            "[{arm}] MISSING ({}): {:?}",
            missing.len(),
            &missing[..missing.len().min(30)]
        );
        eprintln!(
            "[{arm}] EXTRA   ({}): {:?}",
            extra.len(),
            &extra[..extra.len().min(30)]
        );
        panic!(
            "[{arm}] acked-append ledger mismatch: got {} want {} (seed {seed})",
            got.len(),
            want.len(),
        );
    }

    let report = region
        .verifier()
        .verify_appends(table, &vortex::AuditLog::new())
        .unwrap();
    assert!(
        report.is_clean(),
        "[{arm}] verifier violations after overload soak (seed {seed}): {:?}",
        report.violations
    );

    let snapshot_json = region.metrics_snapshot().to_json();
    eprintln!(
        "[{arm}] interactive p99={}us goodput={}/{} | batch acked={}/{} | background acked={}/{} \
         | shed I/B/G = {}/{}/{}",
        interactive.p99(),
        interactive.acked,
        interactive.offered,
        batch.acked,
        batch.offered,
        background.acked,
        background.offered,
        stats[0].shed,
        stats[1].shed,
        stats[2].shed,
    );

    ArmReport {
        interactive,
        batch,
        background,
        stats,
        snapshot_json,
    }
}

/// Shed attempts as a fraction of all decided attempts for one class.
fn shed_frac(s: &ClassStats) -> f64 {
    let total = s.admitted + s.shed;
    if total == 0 {
        return 0.0;
    }
    s.shed as f64 / total as f64
}

#[test]
fn overload_sheds_background_first_and_keeps_interactive_bounded() {
    let seed = chaos_seed();
    eprintln!("chaos_overload seed = {seed} (override with VORTEX_CHAOS_SEED)");

    // ---- Arm A: admission enabled, region quota = admitted capacity ----
    let adm = run_arm(
        seed,
        AdmissionConfig {
            quota: Quota {
                requests_per_sec: QUOTA_RPS,
                burst_requests: 20,
                ..Quota::UNLIMITED
            },
            ..AdmissionConfig::default()
        },
        "admission",
    );

    // Interactive: ≥95% goodput and a bounded p99 under 4× overload.
    assert!(
        adm.interactive.acked * 100 >= adm.interactive.offered * 95,
        "interactive goodput {}/{} below 95% (seed {seed})",
        adm.interactive.acked,
        adm.interactive.offered
    );
    let int_p99 = adm.interactive.p99();
    assert!(
        int_p99 > 0 && int_p99 < 500_000,
        "interactive p99 {int_p99}us not bounded under overload (seed {seed})"
    );

    // Background is shed first — and overwhelmingly — while the two
    // higher classes stay (almost) untouched.
    let (fi, fb, fg) = (
        shed_frac(&adm.stats[0]),
        shed_frac(&adm.stats[1]),
        shed_frac(&adm.stats[2]),
    );
    assert!(
        adm.stats[2].shed > 0 && fg >= 0.5,
        "background not shed under 4× overload: frac {fg:.3} (seed {seed})"
    );
    assert!(
        fg > fb && fg > fi,
        "shed ordering violated: interactive {fi:.3} batch {fb:.3} background {fg:.3} (seed {seed})"
    );
    assert!(
        fi < 0.01,
        "interactive attempts shed ({fi:.3}) despite in-quota load (seed {seed})"
    );
    assert!(
        adm.batch.acked * 100 >= adm.batch.offered * 90,
        "batch goodput {}/{} collapsed (seed {seed})",
        adm.batch.acked,
        adm.batch.offered
    );

    // The admission decisions surface in the unified metrics snapshot.
    for metric in [
        "admission.admitted.interactive",
        "admission.shed.background",
        "admission.queue_wait",
    ] {
        assert!(
            adm.snapshot_json.contains(metric),
            "metrics snapshot missing {metric} (seed {seed})"
        );
    }

    // ---- Arm B: control — same seed, same schedule, admission off ----
    let ctrl = run_arm(seed, AdmissionConfig::disabled(), "control");

    // Nothing is shed…
    assert_eq!(
        ctrl.stats[0].shed + ctrl.stats[1].shed + ctrl.stats[2].shed,
        0,
        "control arm shed traffic (seed {seed})"
    );
    assert_eq!(
        ctrl.background.acked, ctrl.background.offered,
        "control arm dropped background offers (seed {seed})"
    );
    // …so the background stream's storage backlog grows without bound:
    // latency at the end of the run dwarfs both the admission arm's
    // bounded tail and its own mid-run checkpoint (queue growth, the
    // signature of congestion collapse).
    let bg_p99_ctrl = ctrl.background.p99();
    let bg_p99_adm = adm.background.p99();
    assert!(
        bg_p99_ctrl >= 2_000_000,
        "control background p99 {bg_p99_ctrl}us did not blow up (seed {seed})"
    );
    assert!(
        bg_p99_ctrl >= 5 * bg_p99_adm.max(1),
        "control background p99 {bg_p99_ctrl}us not ≫ admission arm {bg_p99_adm}us (seed {seed})"
    );
    let (lag_mid, lag_end) = (ctrl.background.lag_mid_us, ctrl.background.lag_end_us());
    assert!(
        lag_end > lag_mid + 1_000_000,
        "control backlog stopped growing: mid {lag_mid}us end {lag_end}us (seed {seed})"
    );
    // The admission arm's backlog, by contrast, stays flat: its end-of-
    // run background latency is bounded by the quota keeping arrivals
    // at or below the stream's service rate.
    assert!(
        adm.background.lag_end_us() < 2_000_000,
        "admission arm background backlog unbounded: {}us (seed {seed})",
        adm.background.lag_end_us()
    );
    // Interactive survives in both arms (its stream is in-quota and
    // under service capacity); what admission buys is the *system*
    // staying out of collapse — every queue bounded, shed work refused
    // up-front with a retry hint instead of silently queueing forever.
    assert!(
        ctrl.interactive.acked == ctrl.interactive.offered,
        "control interactive lost offers (seed {seed})"
    );
}
