//! The ingest workload the latency experiments share.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vortex::ids::TableId;
use vortex::row::{Row, RowSet, Value};
use vortex::schema::{Field, FieldType, PartitionTransform, Schema};
use vortex::{Region, RegionConfig, WriterOptions};

/// The clickstream-style schema every ingest experiment uses.
pub fn bench_schema() -> Schema {
    Schema::new(vec![
        Field::required("day", FieldType::Int64),
        Field::required("customer", FieldType::String),
        Field::required("amount", FieldType::Int64),
        Field::nullable("note", FieldType::String),
    ])
    .with_partition("day", PartitionTransform::Identity)
    .with_clustering(&["customer"])
}

/// A deterministic batch of rows, `approx_bytes` ≈ `target_bytes`.
pub fn batch_of_bytes(rng: &mut StdRng, target_bytes: usize) -> RowSet {
    // ~96 bytes per row with a mix of repetitive and varying content —
    // the string-heavy shape §5.4.5 describes.
    let mut rows = Vec::new();
    let mut bytes = 0usize;
    while bytes < target_bytes {
        let k: u32 = rng.gen_range(0..1_000_000);
        let row = Row::insert(vec![
            Value::Int64((k % 30) as i64),
            Value::String(format!("customer-{:05}", k % 5_000)),
            Value::Int64(k as i64),
            Value::String(format!(
                "session={} browser=Chrome platform=Linux region=us-central1",
                k
            )),
        ]);
        bytes += row.approx_bytes();
        rows.push(row);
    }
    RowSet::new(rows)
}

/// A region with the paper-calibrated Colossus latency profile
/// (`WriteProfile::paper_colossus()`), its latency RNGs offset by `seed`.
pub fn paper_region(seed: u64) -> Region {
    let cfg = RegionConfig::paper_latency();
    Region::create(RegionConfig {
        seed: cfg.seed + seed,
        ..cfg
    })
    .expect("region")
}

/// An exponential inter-arrival sample (open-loop arrivals), µs.
fn exp_interarrival_us(rng: &mut StdRng, mean_us: f64) -> u64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-mean_us * u.ln()).max(1.0) as u64
}

/// Runs an open-loop append workload against one table and returns the
/// virtual end-to-end latencies (microseconds).
///
/// `streams` writers each submit `appends_per_stream` batches of
/// ~`batch_bytes`, with exponential inter-arrival times of mean
/// `mean_interarrival_us` *per stream*. Latency = durable-on-both-
/// replicas completion minus submission, on the virtual clock — two
/// simulated weeks run in seconds of wall time.
pub fn open_loop_append_latencies(
    region: &Region,
    table: TableId,
    streams: usize,
    appends_per_stream: usize,
    batch_bytes: usize,
    mean_interarrival_us: f64,
    seed: u64,
) -> Vec<u64> {
    let client = region.client();
    let base_now = region.truetime().record_timestamp();
    let results: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..streams)
            .map(|w| {
                let client = client.clone();
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (w as u64) << 32);
                    let opts = WriterOptions {
                        pipelined: true,
                        ..WriterOptions::default()
                    };
                    let mut writer = client.create_writer(table, opts).expect("writer");
                    let mut t = base_now;
                    let mut latencies = Vec::with_capacity(appends_per_stream);
                    for _ in 0..appends_per_stream {
                        t = t.plus_micros(exp_interarrival_us(&mut rng, mean_interarrival_us));
                        let batch = batch_of_bytes(&mut rng, batch_bytes);
                        let res = writer.append_at(batch, t).expect("append");
                        latencies.push(res.latency_us);
                    }
                    latencies
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut all: Vec<u64> = results.into_iter().flatten().collect();
    // Skip the transport warm-up tail: the first few appends per stream
    // ran serially before bi-di pipelining kicked in.
    all.retain(|l| *l > 0);
    all
}
