//! **A1 — ablation: the 2 MB write buffer** (§5.4.4).
//!
//! Paper: "The Stream Server buffers up to 2MB of records into a single
//! write to a Fragment. Buffering 2MB enables better compression and
//! avoids sending a large number of small writes to the file system."
//! Sweeps the block buffer size and records on-disk bytes (compression
//! efficiency) and the number of file-system writes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vortex::{Region, RegionConfig};
use vortex_bench::Run;

use super::workload::{batch_of_bytes, bench_schema};

/// 256 KiB client batches per configuration: 8 MiB of rows.
const BATCHES: usize = 32;

/// (logical bytes / on-disk bytes, block writes) at `block_buffer`.
fn run_config(run: &Run, block_buffer: usize) -> (f64, usize) {
    let region = Region::create(RegionConfig {
        block_buffer_bytes: block_buffer,
        ..RegionConfig::default()
    })
    .unwrap();
    let client = region.client();
    let table = client.create_table("a1", bench_schema()).unwrap().table;
    let mut writer = client.create_unbuffered_writer(table).unwrap();
    let mut rng = StdRng::seed_from_u64(0xA1 + (run.seed() << 24));
    let mut logical = 0u64;
    // The server re-chunks each client batch to its buffer.
    for _ in 0..run.iters(BATCHES) {
        let batch = batch_of_bytes(&mut rng, 256 << 10);
        logical += batch.approx_bytes() as u64;
        writer.append(batch).unwrap();
    }
    // Count on-disk bytes + log-file records on one replica.
    let tm = region.sms().get_table(table).unwrap();
    let cluster = region.fleet().get(tm.primary).unwrap();
    let mut disk = 0u64;
    let mut blocks = 0usize;
    for f in cluster.list("wos/").unwrap() {
        let bytes = cluster.read_all(&f).unwrap().data;
        disk += bytes.len() as u64;
        let parsed = vortex_wos::parse_fragment(&bytes, &tm.encryption_key(), None).unwrap();
        blocks += parsed.blocks.len();
    }
    (logical as f64 / disk as f64, blocks)
}

pub fn run(run: &mut Run) {
    let mut results = Vec::new();
    for buf in [16usize << 10, 64 << 10, 256 << 10, 2 << 20, 8 << 20] {
        let (ratio, writes) = run_config(run, buf);
        run.report(format!("buffer_{}K.compression_ratio", buf >> 10), ratio);
        run.report(format!("buffer_{}K.fs_writes", buf >> 10), writes as f64);
        results.push((buf, ratio, writes));
    }
    if run.full() {
        let small = results[0];
        let paper_default = results.iter().find(|(b, _, _)| *b == 2 << 20).unwrap();
        assert!(
            paper_default.1 > small.1,
            "bigger buffers must compress better"
        );
        assert!(
            paper_default.2 * 4 < small.2,
            "bigger buffers must issue far fewer writes"
        );
    }
}
