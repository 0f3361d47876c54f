//! **C3 — unary vs bi-directional connections** (§5.4.2).
//!
//! Paper: "only 10% of the Streams hold 90% of the data"; the client
//! library adaptively switches between a pooled unary connection (cheap
//! for sparse writers — no standing memory) and a persistent bi-di
//! connection ("very CPU efficient when processing a high volume of
//! RPCs, but has a higher memory overhead"). Drives a 90/10-skewed fleet
//! of streams through all three policies and records the CPU/memory
//! ledger of the transport cost model. Nothing here is random: the three
//! seeds agree exactly.

use vortex_bench::Run;
use vortex_common::transport::{AdaptivePolicy, AdaptiveTransport, TransportLedger};
use vortex_common::truetime::Timestamp;

/// Per-stream request counts with a 90/10 skew: 10% of streams get ~90%
/// of the traffic.
fn stream_request_counts(streams: usize, total_requests: usize) -> Vec<usize> {
    let hot = streams / 10;
    let hot_requests = total_requests * 9 / 10;
    (0..streams)
        .map(|i| match i < hot {
            true => hot_requests / hot.max(1),
            false => (total_requests - hot_requests) / (streams - hot).max(1),
        })
        .collect()
}

fn run_policy(
    run: &mut Run,
    name: &str,
    policy: AdaptivePolicy,
    counts: &[usize],
) -> TransportLedger {
    let mut total = TransportLedger::default();
    for (i, &n) in counts.iter().enumerate() {
        let mut tr = AdaptiveTransport::new(policy);
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
    }
    run.report(format!("{name}.cpu_us"), total.cpu_us as f64);
    run.report(
        format!("{name}.standing_mem_bytes"),
        total.peak_memory_bytes as f64,
    );
    run.report(
        format!("{name}.unary_requests"),
        total.unary_requests as f64,
    );
    run.report(format!("{name}.bidi_requests"), total.bidi_requests as f64);
    total
}

pub fn run(run: &mut Run) {
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
    let unary = run_policy(run, "unary_only", unary_only, &counts);
    let bidi = run_policy(run, "bidi_always", bidi_always, &counts);
    let adaptive = run_policy(run, "adaptive", AdaptivePolicy::default(), &counts);
    run.report(
        "adaptive_cpu_saving_vs_unary_only",
        unary.cpu_us as f64 / adaptive.cpu_us as f64,
    );
    run.report(
        "adaptive_mem_saving_vs_bidi_always",
        bidi.peak_memory_bytes as f64 / adaptive.peak_memory_bytes.max(1) as f64,
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
