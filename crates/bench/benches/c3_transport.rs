//! **C3 — unary vs bi-directional connections** (§5.4.2).
//!
//! Paper: "only 10% of the Streams hold 90% of the data"; the client
//! library adaptively switches between a pooled unary connection (cheap
//! for sparse writers — no standing memory) and a persistent bi-di
//! connection ("very CPU efficient when processing a high volume of
//! RPCs, but has a higher memory overhead"). This bench drives a
//! Zipf-like fleet of streams through all three policies and prints the
//! CPU/memory ledger.
#![allow(clippy::print_stdout)] // prints results/tables by design

use criterion::{criterion_group, criterion_main, Criterion};
use vortex_common::transport::{
    AdaptivePolicy, AdaptiveTransport, TransportCosts, TransportLedger,
};
use vortex_common::truetime::Timestamp;

/// Per-stream request counts with a 90/10 skew: 10% of streams get ~90%
/// of the traffic.
fn stream_request_counts(streams: usize, total_requests: usize) -> Vec<usize> {
    let hot = streams / 10;
    let hot_requests = total_requests * 9 / 10;
    let mut out = vec![0usize; streams];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = if i < hot {
            hot_requests / hot.max(1)
        } else {
            (total_requests - hot_requests) / (streams - hot).max(1)
        };
    }
    out
}

fn run_policy(name: &str, policy: AdaptivePolicy, counts: &[usize]) -> TransportLedger {
    let mut total = TransportLedger::default();
    for (i, &n) in counts.iter().enumerate() {
        let mut tr = AdaptiveTransport::new(TransportCosts::default(), policy);
        // Hot streams send fast (1ms apart), cold ones sparsely (20s).
        let gap = if n > 100 { 1_000 } else { 20_000_000 };
        for r in 0..n {
            tr.on_request(Timestamp(1_000_000 + (i as u64) * 7 + (r as u64) * gap));
            tr.on_response();
        }
        let l = tr.ledger();
        total.cpu_us += l.cpu_us;
        total.peak_memory_bytes += l.peak_memory_bytes; // fleet-wide standing memory
        total.unary_requests += l.unary_requests;
        total.bidi_requests += l.bidi_requests;
        total.switches += l.switches;
    }
    println!(
        "{name:>14} | cpu {:>9}us | standing mem {:>9} B | unary {:>7} | bidi {:>7}",
        total.cpu_us, total.peak_memory_bytes, total.unary_requests, total.bidi_requests
    );
    total
}

fn reproduce_table() {
    println!("\n=== C3: transport policy under a 90/10 stream-size skew ===");
    let counts = stream_request_counts(200, 100_000);
    let unary_only = AdaptivePolicy {
        upgrade_requests: usize::MAX,
        ..AdaptivePolicy::default()
    };
    let bidi_always = AdaptivePolicy {
        upgrade_requests: 1,
        idle_downgrade_micros: u64::MAX,
        ..AdaptivePolicy::default()
    };
    let unary = run_policy("unary-only", unary_only, &counts);
    let bidi = run_policy("bidi-always", bidi_always, &counts);
    let adaptive = run_policy("adaptive", AdaptivePolicy::default(), &counts);
    println!(
        "adaptive vs unary-only CPU: {:.1}x cheaper; adaptive vs bidi-always standing memory: {:.1}x smaller",
        unary.cpu_us as f64 / adaptive.cpu_us as f64,
        bidi.peak_memory_bytes as f64 / adaptive.peak_memory_bytes.max(1) as f64
    );
    assert!(
        adaptive.cpu_us * 2 < unary.cpu_us,
        "adaptive must be far cheaper than unary-only on hot streams"
    );
    assert!(
        adaptive.peak_memory_bytes * 2 < bidi.peak_memory_bytes,
        "adaptive must hold far less standing memory than bidi-always"
    );
}

fn bench(c: &mut Criterion) {
    reproduce_table();
    c.bench_function("adaptive_transport_100k_requests", |b| {
        b.iter(|| {
            let mut tr = AdaptiveTransport::with_defaults();
            for r in 0..100_000u64 {
                tr.on_request(Timestamp(1_000_000 + r * 1_000));
                tr.on_response();
            }
            tr.ledger()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench
}
criterion_main!(benches);
