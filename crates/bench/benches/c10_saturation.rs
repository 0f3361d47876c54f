//! **C10 — shard-per-core saturation: locked vs sharded append path**
//! (§5.3 re-architected).
//!
//! Ramps offered append load against a single Stream Server until the
//! knee — the highest rate whose p99 ack latency stays sub-second — for
//! two arms:
//!
//! - **locked**: the pre-refactor design — one `Mutex<HostedStreamlet>`
//!   per streamlet, every append takes the lock and performs its own
//!   dual-replica Colossus write (the full ~600µs base + heavy service
//!   tail charged per append), plus a shared WAL behind a second lock.
//!   That server no longer exists and is not re-implemented here: the
//!   arm is **frozen** ([`LOCKED`]) at the numbers the bench-side
//!   reproduction measured when `BENCH_saturation.json` was committed
//!   (e949b7b, the shard-per-core PR; 120 iterations);
//! - **sharded**: the real [`StreamServer`] — appends routed over
//!   bounded mailboxes to single-writer shards whose group commits
//!   amortize the base write and the service tail across every append
//!   a streamlet has queued.
//!
//! The claim under test: with pipelined producers the sharded server's
//! knee throughput is ≥2× the locked arm's, because a group of K
//! queued appends costs one Colossus write instead of K. Also reports
//! the group-commit batch-size histogram and the per-shard append
//! balance, so regressions in routing or batching show up in the
//! artifact even when the headline ratio holds.
//!
//! Emits `BENCH_saturation.json` at the repo root. `VORTEX_BENCH_ITERS`
//! overrides per-producer appends per sweep point for the sharded arm
//! (CI smoke uses a small value; the ≥2× assertion arms only on
//! full-length runs, whose iteration count matches the frozen arm's).
#![allow(clippy::print_stdout)] // prints results/tables by design

use std::path::Path;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vortex_colossus::StorageFleet;
use vortex_common::crypt::Key;
use vortex_common::ids::{ClusterId, IdGen, ServerId, StreamId, StreamletId, TableId};
use vortex_common::latency::{Percentiles, WriteProfile};
use vortex_common::obs;
use vortex_common::row::{Row, RowSet, Value};
use vortex_common::schema::{Field, FieldType, PartitionTransform, Schema};
use vortex_common::truetime::{SimClock, Timestamp, TrueTime};
use vortex_server::{AppendAck, ServerConfig, StreamServer};
use vortex_sms::server_ctl::{StreamServerApi, StreamletSpec};

/// Streamlets hosted by the server under test (spread across its shards).
const STREAMLETS: usize = 8;
/// Pipelined producer threads per streamlet: the max group size a shard
/// can form for one streamlet in steady state.
const PIPELINE: usize = 4;
/// Offered per-streamlet rates swept toward saturation, appends/s. The
/// locked arm's per-streamlet capacity under the paper write profile is
/// ~1e6/(600+~7500) ≈ 120/s, so the ramp brackets both knees.
const RATES: &[u64] = &[30, 60, 120, 240, 480, 960];
/// Rows per append batch (small: base overhead dominates transfer).
const BATCH_ROWS: usize = 8;
/// Knee criterion: the highest rate whose p99 ack latency stays below
/// this bound (µs).
const P99_BOUND_US: u64 = 1_000_000;
/// Virtual time origin shared by every sweep point.
const BASE_US: u64 = 1_000_000;
/// The locked arm, one `(span_us, p50_us, p99_us)` per entry of
/// [`RATES`]: 3 840 acked appends each (120 iterations), none shed.
/// Frozen from the committed `BENCH_saturation.json`.
const LOCKED: [(u64, u64, u64); 6] = [
    (71_635_130, 9_628, 25_555),
    (38_239_465, 9_649, 26_279),
    (22_499_525, 9_642, 25_955),
    (13_696_347, 9_551, 24_754),
    (9_228_340, 9_572, 23_937),
    (7_199_192, 9_619, 25_200),
];
/// Acked appends behind every [`LOCKED`] point.
const LOCKED_ACKED: u64 = 3_840;

fn sat_schema() -> Schema {
    Schema::new(vec![
        Field::required("day", FieldType::Int64),
        Field::required("k", FieldType::Int64),
        Field::required("payload", FieldType::String),
    ])
    .with_partition("day", PartitionTransform::Identity)
    .with_clustering(&["k"])
}

fn spec(slid: u64, key: &Key) -> StreamletSpec {
    StreamletSpec {
        table: TableId::from_raw(1),
        stream: StreamId::from_raw(100 + slid),
        streamlet: StreamletId::from_raw(slid),
        clusters: [ClusterId::from_raw(0), ClusterId::from_raw(1)],
        schema: sat_schema(),
        first_stream_row: 0,
        key: key.clone(),
        epoch: 1,
    }
}

fn batch(rng: &mut StdRng, k0: i64) -> RowSet {
    RowSet::new(
        (0..BATCH_ROWS)
            .map(|i| {
                let k = k0 + i as i64;
                Row::insert(vec![
                    Value::Int64(rng.gen_range(0..30)),
                    Value::Int64(k),
                    Value::String(format!("c10-sat-{k:024}")),
                ])
            })
            .collect(),
    )
}

/// Exponential interarrival sample, µs.
fn exp_us(rng: &mut StdRng, mean_us: f64) -> u64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-u.ln() * mean_us) as u64
}

struct PointResult {
    arm: &'static str,
    rate_per_streamlet: u64,
    acked: u64,
    shed: u64,
    span_us: u64,
    ops_per_s: f64,
    p50_us: u64,
    p99_us: u64,
}

/// One sweep point of the sharded arm: `append` must block until the
/// append's ack resolves and return its virtual completion.
fn run_point(
    rate: u64,
    iters: usize,
    seed: u64,
    append: impl Fn(usize, &RowSet, Timestamp) -> AppendAck + Sync,
) -> PointResult {
    let append = &append;
    let shed_counter = obs::global().counter(obs::SHARD_MAILBOX_SHED);
    let shed_before = shed_counter.get();
    let per_thread: Vec<(Vec<u64>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..STREAMLETS * PIPELINE)
            .map(|p| {
                s.spawn(move || {
                    let sl = p % STREAMLETS;
                    let mut rng = StdRng::seed_from_u64(seed ^ ((p as u64) << 20));
                    // Each of the PIPELINE threads carries 1/PIPELINE of
                    // the streamlet's offered rate, depth-1 closed-loop:
                    // the next offer is scheduled an exponential gap
                    // after the previous one but never before its own
                    // last completion (a producer thread has one append
                    // outstanding), so idle virtual gaps don't register
                    // as queueing delay.
                    let mean_us = PIPELINE as f64 * 1e6 / rate as f64;
                    let mut t = Timestamp::from_micros(BASE_US);
                    let mut lats = Vec::with_capacity(iters);
                    let mut max_completion = 0u64;
                    for n in 0..iters {
                        t = t.plus_micros(exp_us(&mut rng, mean_us));
                        let rows = batch(&mut rng, (p * iters + n) as i64 * BATCH_ROWS as i64);
                        let ack = append(sl, &rows, t);
                        max_completion = max_completion.max(ack.completion.micros());
                        // The first arrivals are spread over the whole
                        // virtual schedule before the closed loop locks
                        // producers to their completions; their latency
                        // measures that warm-up skew, not the system —
                        // drop them from the percentiles (they still
                        // count toward throughput).
                        if n >= 2 {
                            lats.push(ack.completion.micros().saturating_sub(t.micros()).max(1));
                        }
                        t = t.max(ack.completion);
                    }
                    (lats, max_completion)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut lats: Vec<u64> = Vec::new();
    let mut max_completion = BASE_US;
    for (l, mc) in per_thread {
        lats.extend(l);
        max_completion = max_completion.max(mc);
    }
    let span_us = (max_completion - BASE_US).max(1);
    let p = Percentiles::compute(&mut lats);
    let acked = (STREAMLETS * PIPELINE * iters) as u64;
    PointResult {
        arm: "sharded",
        rate_per_streamlet: rate,
        acked,
        shed: shed_counter.get() - shed_before,
        span_us,
        ops_per_s: acked as f64 * 1e6 / span_us as f64,
        p50_us: p.p50,
        p99_us: p.p99,
    }
}

/// The frozen locked-arm point at `RATES[ri]`.
fn locked_point(ri: usize) -> PointResult {
    let (span_us, p50_us, p99_us) = LOCKED[ri];
    PointResult {
        arm: "locked",
        rate_per_streamlet: RATES[ri],
        acked: LOCKED_ACKED,
        shed: 0,
        span_us,
        ops_per_s: LOCKED_ACKED as f64 * 1e6 / span_us as f64,
        p50_us,
        p99_us,
    }
}

fn sharded_server(seed: u64) -> Arc<StreamServer> {
    let clock = SimClock::new(BASE_US);
    let tt = TrueTime::simulated(clock, 100, 0);
    let fleet = StorageFleet::with_mem_clusters(2, WriteProfile::paper_colossus(), seed);
    let ids = Arc::new(IdGen::new(1));
    let key = Key::derive_from_passphrase("c10");
    let cfg = ServerConfig::new(ServerId::from_raw(1), ClusterId::from_raw(0));
    let server = StreamServer::new(cfg, fleet, tt, ids).unwrap();
    for i in 0..STREAMLETS {
        server.create_streamlet(spec(10 + i as u64, &key)).unwrap();
    }
    server
}

fn sharded_append(server: &StreamServer, sl: usize, rows: &RowSet, start: Timestamp) -> AppendAck {
    let slid = StreamletId::from_raw(10 + sl as u64);
    let mut t = start;
    for _ in 0..1000 {
        match server.append(slid, rows, 1, None, t) {
            Ok(ack) => return ack,
            // Mailbox/flow-control shed: back off in virtual time and
            // re-offer, like a real writer under backpressure.
            Err(e) if e.is_retryable() => t = t.plus_micros(1_000),
            Err(e) => panic!("sharded append failed: {e}"),
        }
    }
    panic!("sharded append kept shedding");
}

fn main() {
    let iters: usize = std::env::var("VORTEX_BENCH_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(120);
    println!(
        "\n=== C10: saturation ramp, locked (frozen) vs sharded ({STREAMLETS} streamlets x {PIPELINE} pipelined producers) ==="
    );
    println!(
        "{:>8} | {:>10} | {:>7} | {:>9} | {:>10} | {:>10} | {:>8}",
        "arm", "rate/sl /s", "acked", "ops/s", "p50 ms", "p99 ms", "shed"
    );

    let shard_counters: Vec<_> = (0..8)
        .map(|i| obs::global().counter(&format!("{}{i:02}.appends", obs::SHARD_APPENDS_PREFIX)))
        .collect();

    let mut points: Vec<PointResult> = Vec::new();
    for (ri, &rate) in RATES.iter().enumerate() {
        let p = locked_point(ri);
        print_point(&p);
        points.push(p);

        let server = sharded_server(0x5C10 + ri as u64);
        let p = run_point(rate, iters, 0x54A2D ^ (ri as u64) << 8, |sl, rows, t| {
            sharded_append(&server, sl, rows, t)
        });
        print_point(&p);
        points.push(p);
    }

    // Knee per arm: highest offered rate whose p99 stays sub-second.
    let knee = |arm: &str| -> &PointResult {
        points
            .iter()
            .rfind(|p| p.arm == arm && p.p99_us < P99_BOUND_US)
            .unwrap_or_else(|| {
                points
                    .iter()
                    .find(|p| p.arm == arm)
                    .expect("at least one point per arm")
            })
    };
    let locked_knee = knee("locked");
    let sharded_knee = knee("sharded");
    let speedup = sharded_knee.ops_per_s / locked_knee.ops_per_s.max(1e-9);
    println!(
        "\nknee (p99 < {}s): locked {:.0} ops/s @ {}/sl, sharded {:.0} ops/s @ {}/sl -> {speedup:.2}x",
        P99_BOUND_US / 1_000_000,
        locked_knee.ops_per_s,
        locked_knee.rate_per_streamlet,
        sharded_knee.ops_per_s,
        sharded_knee.rate_per_streamlet,
    );

    // Group-commit batch sizes across every sharded point, and the
    // per-shard routing balance.
    let groups = obs::global()
        .histogram(obs::GROUP_COMMIT_APPENDS)
        .snapshot();
    println!(
        "group-commit appends/group: mean {:.2} {groups}",
        groups.mean()
    );
    let shard_appends: Vec<u64> = shard_counters.iter().map(|c| c.get()).collect();
    println!("per-shard appends: {shard_appends:?}");

    // Full-run acceptance: the sharded knee carries ≥2× the locked
    // knee's throughput at sub-second p99, groups actually batched, and
    // appends spread over multiple shards. CI smoke (small
    // VORTEX_BENCH_ITERS) exercises the paths without the statistics.
    let full = iters >= 100;
    if full {
        assert!(
            sharded_knee.p99_us < P99_BOUND_US,
            "sharded p99 {}us not sub-second at its knee",
            sharded_knee.p99_us
        );
        assert!(
            speedup >= 2.0,
            "sharded knee {:.0} ops/s < 2x locked knee {:.0} ops/s",
            sharded_knee.ops_per_s,
            locked_knee.ops_per_s
        );
        assert!(
            groups.mean() >= 1.5,
            "group commit never batched: mean {:.2} appends/group",
            groups.mean()
        );
        let busy = shard_appends.iter().filter(|&&c| c > 0).count();
        assert!(busy >= 2, "appends landed on only {busy} shard(s)");
        println!("saturation: sharded ≥2x locked at the knee, sub-second p99 ✓");
    } else {
        println!("(smoke run: saturation assertions skipped at {iters} iters)");
    }

    // ---- BENCH_saturation.json (repo root) ----
    let mut rows_json = String::new();
    for (i, p) in points.iter().enumerate() {
        rows_json.push_str(&format!(
            concat!(
                "    {{\"arm\": \"{}\", \"rate_per_streamlet\": {}, \"acked\": {}, ",
                "\"span_us\": {}, \"ops_per_s\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, ",
                "\"shed\": {}}}{}\n"
            ),
            p.arm,
            p.rate_per_streamlet,
            p.acked,
            p.span_us,
            p.ops_per_s,
            p.p50_us,
            p.p99_us,
            p.shed,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    let shard_json = shard_appends
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"c10_saturation\",\n  \"iters\": {},\n",
            "  \"streamlets\": {}, \"pipeline\": {},\n  \"points\": [\n{}  ],\n",
            "  \"knee\": {{\"locked_ops_per_s\": {:.1}, \"sharded_ops_per_s\": {:.1}, ",
            "\"speedup\": {:.2}}},\n",
            "  \"group_commit\": {{\"groups\": {}, \"mean_appends\": {:.2}, ",
            "\"p50\": {}, \"p99\": {}, \"max\": {}}},\n",
            "  \"shard_appends\": [{}]\n}}\n"
        ),
        iters,
        STREAMLETS,
        PIPELINE,
        rows_json,
        locked_knee.ops_per_s,
        sharded_knee.ops_per_s,
        speedup,
        groups.count,
        groups.mean(),
        groups.p50,
        groups.p99,
        groups.max,
        shard_json,
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_saturation.json");
    std::fs::write(&out, json).expect("write BENCH_saturation.json");
    println!("wrote {}", out.display());
}

fn print_point(p: &PointResult) {
    println!(
        "{:>8} | {:>10} | {:>7} | {:>9.0} | {:>10.1} | {:>10.1} | {:>8}",
        p.arm,
        p.rate_per_streamlet,
        p.acked,
        p.ops_per_s,
        p.p50_us as f64 / 1000.0,
        p.p99_us as f64 / 1000.0,
        p.shed,
    );
}
