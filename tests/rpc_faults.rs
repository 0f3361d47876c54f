//! Control-plane RPC fault injection (§4.2.2, §5.4): every service call
//! in the region rides an [`RpcChannel`], so these tests arm the channel
//! fault plans directly and assert the end-to-end contracts — above all
//! that an *ambiguous append ack* (executed, reply lost) never
//! duplicates rows under the offset-based retry protocol.

use std::collections::HashMap;

use vortex::row::{Row, RowSet, Value};
use vortex::schema::{Field, FieldType, Schema};
use vortex::{Region, RegionConfig, RpcChannelConfig, WriterOptions};
use vortex_common::latency::LogNormal;

fn schema() -> Schema {
    Schema::new(vec![
        Field::required("k", FieldType::Int64),
        Field::required("payload", FieldType::String),
    ])
}

fn batch(from: i64, n: i64) -> RowSet {
    RowSet::new(
        (from..from + n)
            .map(|k| Row::insert(vec![Value::Int64(k), Value::String(format!("p{k}"))]))
            .collect(),
    )
}

/// §4.2.2's ambiguous ack: the append *executes* on the Stream Server but
/// the reply is lost. The channel must not silently re-execute (append is
/// not idempotent at the RPC layer); the writer's offset-based retry must
/// resolve the ambiguity to exactly-once.
#[test]
fn ambiguous_append_ack_is_exactly_once() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let table = client.create_table("ambig", schema()).unwrap().table;

    let mut w = client
        .create_writer(table, WriterOptions::default()) // exactly_once: true
        .unwrap();

    // Only appends are at risk; rotation/reconcile traffic stays clean.
    let faults = region.server_rpc().faults();
    faults.set_method_filter(Some("append"));

    const BATCHES: i64 = 8;
    const PER_BATCH: i64 = 50;
    for b in 0..BATCHES {
        // Every other batch executes but loses its reply.
        if b % 2 == 0 {
            faults.lose_next_replies(1);
        }
        let res = w.append(batch(b * PER_BATCH, PER_BATCH)).unwrap();
        assert_eq!(res.row_count, PER_BATCH as u64);
    }
    faults.clear();

    // Exactly-once: every key present exactly once, no gaps, no dupes.
    let rows = client.read_rows(table).unwrap();
    assert_eq!(
        rows.rows.len() as i64,
        BATCHES * PER_BATCH,
        "ambiguous acks must not duplicate or drop rows"
    );
    let mut seen: HashMap<i64, usize> = HashMap::new();
    for row in &rows.rows {
        match row.1.values[0] {
            Value::Int64(k) => *seen.entry(k).or_default() += 1,
            ref v => panic!("unexpected value {v:?}"),
        }
    }
    for k in 0..BATCHES * PER_BATCH {
        assert_eq!(seen.get(&k), Some(&1), "key {k} must appear exactly once");
    }

    // The channel observed the injections: 4 replies lost, every lost
    // reply surfaced as a caller-visible error (no silent re-execution),
    // and the writer resolved each one by offset reconciliation rather
    // than re-sending the batch — so only the clean batches show as `ok`.
    let append = region.server_rpc().metrics().method("append");
    assert_eq!(append.injected_reply_lost.get(), 4);
    assert_eq!(
        append.err.get(),
        4,
        "each lost reply surfaces to the writer"
    );
    assert_eq!(append.calls.get(), BATCHES as u64);
    assert_eq!(
        append.ok.get(),
        BATCHES as u64 - 4,
        "ambiguous batches must dedup via reconcile, not a second append"
    );
}

/// Pre-execution unavailability on both hops is absorbed by channel
/// retries: callers see clean results while the metrics record the
/// injected failures.
#[test]
fn injected_unavailability_is_retried_transparently() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let table = client.create_table("flaky", schema()).unwrap().table;

    // 20% of SMS calls and 20% of server calls fail before executing,
    // plus a guaranteed burst on each hop (control traffic is sparse, so
    // a probabilistic plan alone could sample zero faults).
    region.sms_rpc().faults().set_unavailable_permille(200);
    region.sms_rpc().faults().fail_next_calls(2);
    region.server_rpc().faults().set_unavailable_permille(200);
    region.server_rpc().faults().fail_next_calls(2);

    let mut w = client
        .create_writer(table, WriterOptions::default())
        .unwrap();
    for b in 0..6 {
        w.append(batch(b * 40, 40)).unwrap();
    }
    region.sms_rpc().faults().clear();
    region.server_rpc().faults().clear();

    assert_eq!(client.read_rows(table).unwrap().rows.len(), 240);

    // The flakiness was real: some attempts were injected-unavailable,
    // and attempts strictly exceed calls somewhere on each channel.
    for rpc in [region.sms_rpc(), region.server_rpc()] {
        let snap = rpc.metrics().snapshot();
        let injected: u64 = snap.values().map(|m| m.injected_unavailable.get()).sum();
        let calls: u64 = snap.values().map(|m| m.calls.get()).sum();
        let attempts: u64 = snap.values().map(|m| m.attempts.get()).sum();
        assert!(
            injected > 0,
            "channel {} saw no injected faults",
            rpc.name()
        );
        assert!(attempts > calls, "channel {} never retried", rpc.name());
    }
}

/// Per-method counters and latency histograms are observable: under an
/// injected LogNormal latency profile the virtual percentiles track the
/// profile, and counts line up with the traffic the test generated.
#[test]
fn per_method_metrics_track_injected_latency() {
    let region = Region::create(RegionConfig {
        rpc: RpcChannelConfig {
            latency: Some(LogNormal::from_median_p99(800.0, 6_000.0)),
            ..RpcChannelConfig::default()
        },
        ..RegionConfig::default()
    })
    .unwrap();
    let client = region.client();
    let table = client.create_table("metrics", schema()).unwrap().table;

    let mut w = client
        .create_writer(table, WriterOptions::default())
        .unwrap();
    const APPENDS: u64 = 32;
    for b in 0..APPENDS {
        w.append(batch(b as i64 * 10, 10)).unwrap();
    }
    assert_eq!(client.read_rows(table).unwrap().rows.len(), 320);

    let append = region.server_rpc().metrics().method("append");
    assert_eq!(append.calls.get(), APPENDS);
    assert_eq!(append.ok.get(), APPENDS);
    let p = append.latency.snapshot();
    assert_eq!(p.count, APPENDS);
    // LogNormal(median 800us, p99 6ms): the virtual p50 sits near the
    // median and the tail stays above it.
    assert!(
        (200..=3_000).contains(&p.p50),
        "p50 {}us does not track the injected profile",
        p.p50
    );
    assert!(p.p99 >= p.p50);
    assert!(p.max < 60_000, "injected latency implausibly large");

    // The SMS hop saw the control traffic too.
    let sms = region.sms_rpc().metrics().snapshot();
    assert!(sms.get("create_table").is_some_and(|m| m.calls.get() == 1));
    assert!(sms.get("create_stream").is_some_and(|m| m.calls.get() >= 1));
    assert!(sms.values().all(|m| m.err.get() == 0));

    // drain() resets: a second snapshot is empty.
    let drained = region.server_rpc().metrics().drain();
    assert!(drained.contains_key("append"));
    assert_eq!(region.server_rpc().metrics().total_calls(), 0);
}

/// A permanently-down endpoint exhausts the retry budget and surfaces a
/// retryable error; clearing the fault restores service on the same
/// channel (no poisoned state).
#[test]
fn hard_outage_exhausts_budget_then_recovers() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();

    region.sms_rpc().faults().set_unavailable(true);
    let err = client.create_table("down", schema()).unwrap_err();
    assert!(
        err.is_retryable(),
        "outage must surface as retryable: {err}"
    );
    region.sms_rpc().faults().clear();

    let t = client.create_table("up", schema()).unwrap().table;
    let mut w = client.create_writer(t, WriterOptions::default()).unwrap();
    w.append(batch(0, 25)).unwrap();
    assert_eq!(client.read_rows(t).unwrap().rows.len(), 25);
}
