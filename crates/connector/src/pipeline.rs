//! The two-stage Beam sink: Append stage + Flush stage (§7.4).

use std::sync::Arc;

use vortex_client::{VortexClient, WriterOptions};
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::TableId;
use vortex_common::row::{Row, RowSet};
use vortex_common::rpc::{class_scope, WorkClass};
use vortex_sms::meta::StreamType;

use crate::shuffle::{partition_rows, Bundle, Shuffle};
use crate::state::PipelineState;

/// Sink configuration.
#[derive(Debug, Clone)]
pub struct SinkConfig {
    /// Number of Append-stage workers (= key-space partitions).
    pub workers: usize,
    /// Rows per bundle.
    pub bundle_size: usize,
    /// Partitions that additionally get a zombie worker replaying the
    /// same bundles ("a worker may enter a zombie state due to network
    /// partitions etc.", §7.4).
    pub zombie_partitions: Vec<usize>,
    /// Deliver every bundle twice to the legitimate worker too
    /// (retry-storm simulation).
    pub duplicate_deliveries: bool,
}

impl Default for SinkConfig {
    fn default() -> Self {
        SinkConfig {
            workers: 4,
            bundle_size: 64,
            zombie_partitions: vec![],
            duplicate_deliveries: false,
        }
    }
}

/// What happened during a sink run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkReport {
    /// Bundles committed exactly once.
    pub bundles_committed: u64,
    /// Duplicate/zombie commits rejected by the state store.
    pub commits_rejected: u64,
    /// Rows appended by zombies (durable but never flushed → invisible).
    pub zombie_rows_appended: u64,
    /// FlushStream calls performed by the Flush stage.
    pub flushes: u64,
}

/// The exactly-once Vortex sink (`BigQueryIO.writeTableRows()` in the
/// paper's Listing 7).
pub struct BeamSink {
    client: VortexClient,
    table: TableId,
}

impl BeamSink {
    /// A sink writing to `table`.
    pub fn new(client: VortexClient, table: TableId) -> Self {
        Self { client, table }
    }

    /// Runs the pipeline over `input` and returns the report. Exactly-once
    /// end to end: every input row becomes visible exactly once no matter
    /// how many duplicate deliveries or zombie workers the run injects.
    pub fn run(&self, input: Vec<Row>, cfg: &SinkConfig) -> VortexResult<SinkReport> {
        // Connector ingest is throughput-oriented batch work: it queues
        // behind interactive traffic and sheds before it under overload.
        // (Workers tag their own threads in `run_worker` — the class is
        // thread-local and does not cross `thread::scope`.)
        let _batch = class_scope(WorkClass::Batch);
        if cfg.workers == 0 {
            return Err(VortexError::InvalidArgument(
                "need at least 1 worker".into(),
            ));
        }
        let bundles = partition_rows(input, cfg.workers, cfg.bundle_size);
        let state = Arc::new(PipelineState::new());
        let shuffle = Arc::new(Shuffle::new());

        // ---- Append stage ----
        // Worker w handles partition w; zombies get ids >= workers and
        // replay their partition's bundles against their OWN stream.
        let mut report = SinkReport::default();
        std::thread::scope(|s| -> VortexResult<()> {
            let mut handles = Vec::new();
            for w in 0..cfg.workers {
                let my_bundles: Vec<Bundle> = bundles
                    .iter()
                    .filter(|b| b.partition == w)
                    .cloned()
                    .collect();
                let state = Arc::clone(&state);
                let shuffle = Arc::clone(&shuffle);
                let client = &self.client;
                let table = self.table;
                let dup = cfg.duplicate_deliveries;
                handles.push(s.spawn(move || {
                    run_worker(client, table, w as u64, my_bundles, dup, &state, &shuffle)
                }));
            }
            for (zi, &zp) in cfg.zombie_partitions.iter().enumerate() {
                let my_bundles: Vec<Bundle> = bundles
                    .iter()
                    .filter(|b| b.partition == zp)
                    .cloned()
                    .collect();
                let state = Arc::clone(&state);
                let shuffle = Arc::clone(&shuffle);
                let client = &self.client;
                let table = self.table;
                let zombie_id = (cfg.workers + zi) as u64;
                handles.push(s.spawn(move || {
                    run_worker(
                        client, table, zombie_id, my_bundles, false, &state, &shuffle,
                    )
                }));
            }
            for h in handles {
                let wr = h.join().expect("worker panicked")?;
                report.bundles_committed += wr.committed;
                report.commits_rejected += wr.rejected;
                report.zombie_rows_appended += wr.orphan_rows;
            }
            Ok(())
        })?;

        // ---- Flush stage ----
        while let Some(msg) = shuffle.pop_flush() {
            self.client
                .sms()
                .flush_stream(self.table, msg.stream, msg.row_offset)?;
            report.flushes += 1;
        }
        let m = vortex_common::obs::global();
        m.counter("connector.runs").inc();
        m.counter("connector.bundles_committed")
            .add(report.bundles_committed);
        m.counter("connector.commits_rejected")
            .add(report.commits_rejected);
        m.counter("connector.flushes").add(report.flushes);
        Ok(report)
    }
}

struct WorkerReport {
    committed: u64,
    rejected: u64,
    /// Rows this worker appended for bundles it LOST (never flushed).
    orphan_rows: u64,
}

fn run_worker(
    client: &VortexClient,
    table: TableId,
    worker_id: u64,
    bundles: Vec<Bundle>,
    duplicate_deliveries: bool,
    state: &PipelineState,
    shuffle: &Shuffle,
) -> VortexResult<WorkerReport> {
    let _batch = class_scope(WorkClass::Batch);
    // "Each worker in the Append stage creates its own dedicated BUFFERED
    // stream on the table" (§7.4).
    let mut writer = client.create_writer(
        table,
        WriterOptions {
            stream_type: StreamType::Buffered,
            exactly_once: true,
            pipelined: false,
            ack_delay_us: 0,
        },
    )?;
    state.register_worker(worker_id, writer.stream_id());
    let mut report = WorkerReport {
        committed: 0,
        rejected: 0,
        orphan_rows: 0,
    };
    let deliveries: Vec<&Bundle> = if duplicate_deliveries {
        bundles.iter().chain(bundles.iter()).collect()
    } else {
        bundles.iter().collect()
    };
    for bundle in deliveries {
        // Cheap path for redeliveries: skip bundles already processed.
        // Zombies may still race past this check — the atomic commit is
        // the real guard.
        if state.is_processed(bundle.id()) {
            report.rejected += 1;
            continue;
        }
        let n = bundle.rows.len() as u64;
        // Append to the dedicated stream at the tracked offset. Durable
        // but invisible (BUFFERED) until the Flush stage runs.
        writer.append(RowSet::new(bundle.rows.clone()))?;
        // A crash here leaves the appended rows durable but the bundle
        // uncommitted: the rows sit in the worker's dedicated BUFFERED
        // stream above every offset ever sent to shuffle, so the Flush
        // stage can never expose them. A redelivery re-appends and
        // commits fresh rows — exactly-once is preserved (§7.4).
        vortex_common::crash_point!("connector.state.pre_commit");
        // The atomic triple-commit (§7.4).
        if state.commit_bundle(shuffle, worker_id, bundle.id(), n) {
            report.committed += 1;
        } else {
            // Lost the race: another worker owns this bundle, which means
            // THIS worker is the zombie. It must stop immediately — its
            // just-appended rows are a suffix of its stream above every
            // offset it ever wrote to shuffle, so they can never be
            // flushed. (Continuing would let a later win flush this
            // orphan prefix: the classic zombie double-write.)
            report.rejected += 1;
            report.orphan_rows += n;
            break;
        }
    }
    Ok(report)
}
