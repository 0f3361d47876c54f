//! **C9 — graceful degradation under overload** (§4.2.1, §7.2).
//!
//! Sweeps offered load from 1× to 8× the admitted capacity (the region
//! requests/s quota) and measures, for both arms — admission enabled
//! vs the disabled control — interactive goodput, interactive p99, and
//! how deep the background stream's storage backlog grows.
//!
//! The claim under test: with admission control the system degrades
//! gracefully — interactive traffic keeps ≥95% goodput at a bounded
//! p99 while background work is shed first, and aggregate goodput
//! stays at capacity instead of collapsing. Without it, every offer is
//! admitted into the storage queues and the backlog (and therefore
//! latency) grows without bound — congestion collapse.

use vortex::row::{Row, RowSet, Value};
use vortex::schema::{Field, FieldType, Schema};
use vortex::{
    class_scope, AdmissionConfig, Percentiles, Quota, Region, RegionConfig, StreamWriter,
    VortexError, WorkClass,
};
use vortex_bench::Run;

/// Admitted capacity: the region requests/s quota.
const QUOTA_RPS: u64 = 130;
/// Interactive offered rate, req/s — always inside quota.
const INTERACTIVE_RPS: u64 = 50;
/// Virtual tick of the open-loop schedule.
const TICK_US: u64 = 20_000;
/// Ticks per sweep point: 8 virtual seconds, long enough for the control
/// arm's queues to build.
const TICKS: usize = 400;

struct Point {
    interactive_goodput_pct: f64,
    interactive_p99_us: u64,
    background_shed_pct: f64,
    acked_rps: u64,
    backlog_end_us: u64,
}

fn one_row(k: i64) -> RowSet {
    RowSet::new(vec![Row::insert(vec![
        Value::Int64(k),
        Value::String("c9".into()),
    ])])
}

/// Interactive appends honor `retry_after_us` at application level:
/// back off in virtual time and re-offer until the append lands.
fn must_append(region: &Region, w: &mut StreamWriter, k: i64) -> u64 {
    for _ in 0..100 {
        match w.append(one_row(k)) {
            Ok(res) => return res.latency_us,
            Err(VortexError::ResourceExhausted { retry_after_us, .. }) => {
                region.advance_micros(retry_after_us.clamp(1_000, 50_000));
            }
            Err(e) if e.is_retryable() => continue,
            Err(e) => panic!("interactive append failed: {e}"),
        }
    }
    panic!("interactive append kept failing");
}

/// Background offers shed on `ResourceExhausted` (dropped, not retried).
fn try_append(w: &mut StreamWriter, k: i64) -> Option<u64> {
    for _ in 0..50 {
        match w.append(one_row(k)) {
            Ok(res) => return Some(res.latency_us),
            Err(VortexError::ResourceExhausted { .. }) => return None,
            Err(e) if e.is_retryable() => continue,
            Err(e) => panic!("background append failed: {e}"),
        }
    }
    None
}

fn run_point(run: &Run, mult: u64, enabled: bool) -> Point {
    let admission = if enabled {
        AdmissionConfig {
            quota: Quota {
                requests_per_sec: QUOTA_RPS,
                burst_requests: 20,
                ..Quota::UNLIMITED
            },
            ..AdmissionConfig::default()
        }
    } else {
        AdmissionConfig::disabled()
    };
    let region = Region::create(RegionConfig {
        seed: 0xC9 + mult + (run.seed() << 8),
        gc_grace_micros: Some(3_600_000_000),
        admission,
        ..RegionConfig::paper_latency()
    })
    .unwrap();
    let client = region.client();
    let schema = Schema::new(vec![
        Field::required("k", FieldType::Int64),
        Field::required("payload", FieldType::String),
    ]);
    let table = client.create_table("c9", schema).unwrap().table;
    let mut w_int = client.create_unbuffered_writer(table).unwrap();
    let mut w_bg = client.create_unbuffered_writer(table).unwrap();

    // Offered schedule: interactive at a fixed in-quota rate plus a
    // background storm sized so the total is `mult` × capacity.
    let bg_rps = (mult * QUOTA_RPS).saturating_sub(INTERACTIVE_RPS);
    let mut int_due = 0u64; // fixed-point offer accumulators, µreq
    let mut bg_due = 0u64;
    let mut int_lat = Vec::new();
    let (mut int_offered, mut bg_acked) = (0u64, 0u64);
    let mut k = 0i64;
    let mut backlog_end_us = 0u64;
    let ticks = run.iters(TICKS) as u64;
    for _ in 0..ticks {
        region.advance_micros(TICK_US);
        int_due += INTERACTIVE_RPS * TICK_US;
        while int_due >= 1_000_000 {
            int_due -= 1_000_000;
            int_offered += 1;
            int_lat.push(must_append(&region, &mut w_int, k));
            k += 1;
        }
        bg_due += bg_rps * TICK_US;
        let _g = class_scope(WorkClass::Background);
        while bg_due >= 1_000_000 {
            bg_due -= 1_000_000;
            if let Some(lat) = try_append(&mut w_bg, k) {
                bg_acked += 1;
                backlog_end_us = lat;
            }
            k += 1;
        }
    }
    let stats = region.admission().class_stats(WorkClass::Background);
    let span_s = (ticks * TICK_US) as f64 / 1e6;
    Point {
        interactive_goodput_pct: int_lat.len() as f64 * 100.0 / int_offered.max(1) as f64,
        acked_rps: ((int_lat.len() as u64 + bg_acked) as f64 / span_s) as u64,
        interactive_p99_us: Percentiles::compute(&mut int_lat).p99,
        background_shed_pct: 100.0 * stats.shed as f64
            / (stats.shed + stats.admitted).max(1) as f64,
        backlog_end_us,
    }
}

pub fn run(run: &mut Run) {
    let mut points = Vec::new();
    for mult in [1u64, 2, 4, 8] {
        for enabled in [true, false] {
            let p = run_point(run, mult, enabled);
            let arm = if enabled { "on" } else { "off" };
            for (metric, value) in [
                ("interactive_goodput_pct", p.interactive_goodput_pct),
                ("interactive_p99_us", p.interactive_p99_us as f64),
                ("acked_rps", p.acked_rps as f64),
                ("background_shed_pct", p.background_shed_pct),
                ("backlog_end_us", p.backlog_end_us as f64),
            ] {
                run.report(format!("x{mult}.admission_{arm}.{metric}"), value);
            }
            points.push((mult, enabled, p));
        }
    }
    if !run.full() {
        return;
    }
    let find = |mult: u64, enabled: bool| -> &Point {
        let at = |(m, e, _): &&(u64, bool, Point)| *m == mult && *e == enabled;
        &points.iter().find(at).unwrap().2
    };
    let (on1, on4, off4) = (find(1, true), find(4, true), find(4, false));
    assert!(
        on4.interactive_goodput_pct >= 95.0,
        "interactive goodput collapsed at 4x: {:.1}%",
        on4.interactive_goodput_pct
    );
    assert!(
        on4.interactive_p99_us < 500_000,
        "interactive p99 unbounded at 4x: {}us",
        on4.interactive_p99_us
    );
    assert!(
        on4.background_shed_pct > 50.0,
        "background not shed at 4x: {:.1}%",
        on4.background_shed_pct
    );
    // Graceful degradation: aggregate goodput at 4x stays at (or
    // above) the 1x level instead of collapsing.
    assert!(
        on4.acked_rps * 100 >= on1.acked_rps * 90,
        "goodput collapse: {} r/s at 4x vs {} r/s at 1x",
        on4.acked_rps,
        on1.acked_rps
    );
    // Control: without admission the backlog at 4x dwarfs the
    // admission arm's (queue growth → latency blow-up).
    assert!(
        off4.backlog_end_us >= 5 * on4.backlog_end_us.max(1) && off4.backlog_end_us > 1_000_000,
        "control backlog did not blow up: {}us vs {}us",
        off4.backlog_end_us,
        on4.backlog_end_us
    );
}
