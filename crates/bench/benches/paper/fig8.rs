//! **Figure 8**: append latency distribution grouped by table append
//! rate.
//!
//! Paper: tables bucketed by throughput — <1MB/s, <2MB/s, <10MB/s,
//! <100MB/s, <1GB/s, ≥1GB/s — show p50 ≈ 10 ms rising gently with batch
//! size while "the p99 latency is under 30 milliseconds" across the whole
//! range. Higher-rate tables use larger batches and more parallel
//! streams, exactly how high-throughput producers drive the Write API.

use vortex::Percentiles;
use vortex_bench::Run;

use super::workload::{bench_schema, open_loop_append_latencies, paper_region};

struct Bucket {
    label: &'static str,
    streams: usize,
    appends_per_stream: usize,
    batch_bytes: usize,
    mean_interarrival_us: f64,
}

/// streams × batch / interarrival ≈ the bucket's aggregate rate.
const BUCKETS: &[Bucket] = &[
    Bucket {
        label: "<1MB/s",
        streams: 1,
        appends_per_stream: 400,
        batch_bytes: 4 << 10,
        mean_interarrival_us: 100_000.0,
    }, // ~40 KB/s
    Bucket {
        label: "<2MB/s",
        streams: 2,
        appends_per_stream: 300,
        batch_bytes: 16 << 10,
        mean_interarrival_us: 50_000.0,
    }, // ~0.6 MB/s
    Bucket {
        label: "<10MB/s",
        streams: 4,
        appends_per_stream: 200,
        batch_bytes: 64 << 10,
        mean_interarrival_us: 50_000.0,
    }, // ~5 MB/s
    Bucket {
        label: "<100MB/s",
        streams: 8,
        appends_per_stream: 100,
        batch_bytes: 256 << 10,
        mean_interarrival_us: 40_000.0,
    }, // ~52 MB/s
    Bucket {
        label: "<1GB/s",
        streams: 16,
        appends_per_stream: 40,
        batch_bytes: 1 << 20,
        mean_interarrival_us: 40_000.0,
    }, // ~420 MB/s
    Bucket {
        label: ">=1GB/s",
        streams: 48,
        appends_per_stream: 20,
        batch_bytes: 1 << 20,
        mean_interarrival_us: 40_000.0,
    }, // ~1.2 GB/s
];

pub fn run(run: &mut Run) {
    for (i, b) in BUCKETS.iter().enumerate() {
        // A fresh region per bucket = a distinct table with its own
        // streams, like the paper's per-table grouping.
        let region = paper_region(run.seed());
        let client = region.client();
        let table = client.create_table("fig8", bench_schema()).unwrap().table;
        let mut lat = open_loop_append_latencies(
            &region,
            table,
            b.streams,
            run.iters(b.appends_per_stream),
            b.batch_bytes,
            b.mean_interarrival_us,
            0xF1608 + i as u64 + (run.seed() << 24),
        );
        let p = Percentiles::compute(&mut lat);
        run.report(format!("{}.p50_us", b.label), p.p50 as f64);
        run.report(format!("{}.p99_us", b.label), p.p99 as f64);
        if run.full() {
            assert!(
                p.p99 < 45_000,
                "{}: p99 {}us must stay low across rates",
                b.label,
                p.p99
            );
        }
    }
}
