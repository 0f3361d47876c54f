//! **C8 — per-table ingest scaling** (§8).
//!
//! Paper: Vortex "supports throughput of multiple GB/sec over a given
//! table" by fanning writers across streams, streamlets, and Stream
//! Servers. Sweeps the stream count at fixed per-stream rate and records
//! aggregate virtual throughput: it should scale near-linearly (streams
//! land on different log files and servers, so they do not queue on each
//! other).

use vortex::Percentiles;
use vortex_bench::Run;

use super::workload::{bench_schema, open_loop_append_latencies, paper_region};

const APPENDS: usize = 40;
const BATCH: usize = 1 << 20; // 1 MiB
const INTERARRIVAL_US: f64 = 25_000.0; // 40 appends/s/stream

/// (aggregate GB/s, p99 µs) at `streams` parallel streams.
fn run_scale(run: &Run, streams: usize) -> (f64, u64) {
    let region = paper_region(run.seed());
    let client = region.client();
    let table = client.create_table("c8", bench_schema()).unwrap().table;
    let appends = run.iters(APPENDS);
    let mut lat = open_loop_append_latencies(
        &region,
        table,
        streams,
        appends,
        BATCH,
        INTERARRIVAL_US,
        0xC8 + streams as u64 + (run.seed() << 24),
    );
    // Virtual makespan: arrivals span ~appends × interarrival; aggregate
    // throughput = total bytes / (virtual time from first submit to a
    // conservative last completion bound).
    let p = Percentiles::compute(&mut lat);
    let span_us = appends as f64 * INTERARRIVAL_US + p.max as f64;
    let bytes = (streams * appends * BATCH) as f64;
    (bytes / (1 << 30) as f64 / (span_us / 1e6), p.p99)
}

pub fn run(run: &mut Run) {
    let mut single_stream = 0.0;
    for streams in [1usize, 4, 16, 64] {
        let (gbps, p99) = run_scale(run, streams);
        run.report(format!("streams_{streams}.gb_per_s"), gbps);
        run.report(format!("streams_{streams}.p99_us"), p99 as f64);
        if streams == 1 {
            single_stream = gbps;
        }
        if streams == 64 {
            run.report("scaling_64_over_1", gbps / single_stream);
        }
        if streams == 64 && run.full() {
            assert!(
                gbps > 1.0,
                "64 streams × 1MiB × 40/s should exceed 1 GB/s (got {gbps:.2})"
            );
            assert!(
                gbps > single_stream * 30.0,
                "scaling should be near-linear: {gbps:.2} vs single-stream {single_stream:.3}"
            );
            assert!(p99 < 60_000, "tail stays bounded while scaling");
        }
    }
}
