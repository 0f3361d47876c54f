//! **C6 — pipelined appends** (§4.2.2).
//!
//! Paper: "for performance and latency reasons, Vortex allows writes on a
//! Stream to be pipelined" — a client may send the next append before the
//! previous one completes, as long as offsets are issued in order.
//! Compares the virtual completion time of a burst of appends sent
//! serially (wait for each ack) vs pipelined (send immediately).

use rand::rngs::StdRng;
use rand::SeedableRng;
use vortex::WriterOptions;
use vortex_bench::Run;

use super::workload::{batch_of_bytes, bench_schema, paper_region};

const BURST: usize = 64;

/// Virtual µs from submitting the burst to its last durable completion.
fn drain_us(run: &Run, pipelined: bool) -> u64 {
    let region = paper_region(run.seed());
    let client = region.client();
    let table = client.create_table("c6", bench_schema()).unwrap().table;
    let opts = WriterOptions {
        pipelined,
        // A realistic cross-zone ack RTT the serial client must wait
        // out per append; pipelining hides it entirely.
        ack_delay_us: 4_000,
        ..WriterOptions::default()
    };
    let mut writer = client.create_writer(table, opts).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC6 + (run.seed() << 24));
    // Warm the transport into bi-di mode (pipelining requires it).
    let mut t = region.truetime().record_timestamp();
    for _ in 0..20 {
        t = t.plus_micros(1_000);
        writer
            .append_at(batch_of_bytes(&mut rng, 8 * 1024), t)
            .unwrap();
    }
    // The measured burst: all submitted at (virtually) the same instant.
    let start = t.plus_micros(10_000);
    let mut last_completion = start;
    for _ in 0..run.iters(BURST) {
        let res = writer
            .append_at(batch_of_bytes(&mut rng, 8 * 1024), start)
            .unwrap();
        last_completion = last_completion.max(res.completion);
    }
    last_completion.micros() - start.micros()
}

pub fn run(run: &mut Run) {
    let serial = drain_us(run, false);
    let pipelined = drain_us(run, true);
    run.report("serial_drain_us", serial as f64);
    run.report("pipelined_drain_us", pipelined as f64);
    run.report("speedup", serial as f64 / pipelined as f64);
    // Both modes ultimately serialize on the log file (appends are
    // ordered, §4.2.2), but serial additionally pays the ack round trip
    // per append and the per-append max over both replicas; pipelined
    // overlaps those. Expect a clear — not unbounded — win.
    if run.full() {
        assert!(
            (pipelined as f64) * 1.35 < serial as f64,
            "pipelined {pipelined}us should beat serial {serial}us clearly"
        );
    }
}
