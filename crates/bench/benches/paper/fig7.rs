//! **Figure 7**: Vortex append latency distribution over two weeks.
//!
//! Paper: p50 ≈ 10 ms, p90/p95 between, p99 ≈ 30 ms, stable over a
//! 2-week window. We reproduce the *shape* against the simulated Colossus
//! latency model (dual-cluster synchronous writes = max of two lognormal
//! samples): flat percentile series across time buckets with p50 ≈ 10 ms
//! and p99 ≲ 30 ms. Virtual time: two weeks of traffic run in seconds.

use vortex::Percentiles;
use vortex_bench::Run;

use super::workload::{bench_schema, open_loop_append_latencies, paper_region};

const BUCKETS: usize = 14; // one per simulated day
const STREAMS: usize = 8;
const APPENDS_PER_STREAM_PER_BUCKET: usize = 120;

pub fn run(run: &mut Run) {
    let region = paper_region(run.seed());
    let client = region.client();
    let table = client.create_table("fig7", bench_schema()).unwrap().table;
    let mut all = Vec::new();
    let mut days = Vec::new();
    for day in 0..BUCKETS {
        let mut lat = open_loop_append_latencies(
            &region,
            table,
            STREAMS,
            run.iters(APPENDS_PER_STREAM_PER_BUCKET),
            4 * 1024,
            50_000.0, // 20 appends/sec/stream
            0xF1607 + day as u64 + (run.seed() << 24),
        );
        all.extend_from_slice(&lat);
        days.push(Percentiles::compute(&mut lat));
        // Advance the virtual clock by a day between buckets.
        region.advance_micros(86_400_000_000);
    }
    let p = Percentiles::compute(&mut all);
    run.report("appends", p.count as f64);
    for (series, us) in [
        ("p50_us", p.p50),
        ("p90_us", p.p90),
        ("p95_us", p.p95),
        ("p99_us", p.p99),
        // Flatness over the two weeks: the per-day extremes.
        ("day_p50_us.min", days.iter().map(|d| d.p50).min().unwrap()),
        ("day_p50_us.max", days.iter().map(|d| d.p50).max().unwrap()),
        ("day_p99_us.min", days.iter().map(|d| d.p99).min().unwrap()),
        ("day_p99_us.max", days.iter().map(|d| d.p99).max().unwrap()),
    ] {
        run.report(series, us as f64);
    }
    if run.full() {
        assert!(
            (6_000..16_000).contains(&p.p50),
            "p50 {}us should be ~10ms",
            p.p50
        );
        assert!(
            (20_000..45_000).contains(&p.p99),
            "p99 {}us should be ~30ms",
            p.p99
        );
    }
}
