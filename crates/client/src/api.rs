//! The user-facing client facade, mirroring the paper's API surface
//! (§4.2): CreateStream, AppendStream, FlushStream, BatchCommitStreams,
//! FinalizeStream — plus snapshot reads.

use std::sync::Arc;

use vortex_colossus::StorageFleet;
use vortex_common::error::VortexResult;
use vortex_common::ids::{StreamId, TableId};
use vortex_common::schema::Schema;
use vortex_common::truetime::{Timestamp, TrueTime};
use vortex_sms::api::SmsHandle;
use vortex_sms::meta::{StreamType, TableMeta};

use crate::engine::{QueryEngine, ScanOptions, ScanResult};
use crate::read::ReadOptions;
use crate::write::{StreamWriter, WriterOptions};

/// All rows of a table visible at a snapshot, with provenance: the result
/// of the scan a table read runs, under no predicate and no projection.
/// Change types come back as written (UPDATE/DELETE resolution is the
/// query engine's merge-on-read step), every row at `schema`'s arity.
pub type TableRows = ScanResult;

/// A handle to a Vortex region from the application's point of view.
///
/// Internally this wraps the SMS (control plane) and the storage fleet
/// (for direct-from-Colossus reads); the Stream Servers are reached via
/// the handles the SMS gives out.
#[derive(Clone)]
pub struct VortexClient {
    sms: SmsHandle,
    fleet: StorageFleet,
    tt: TrueTime,
    cache: Option<Arc<crate::cache::ReadCache>>,
}

impl VortexClient {
    /// Creates a client over a region's control plane and storage fleet.
    pub fn new(sms: SmsHandle, fleet: StorageFleet, tt: TrueTime) -> Self {
        Self {
            sms,
            fleet,
            tt,
            cache: None,
        }
    }

    /// Attaches a query-aware read cache (§9 future work) used by every
    /// read this client issues.
    pub fn with_cache(mut self, cache: Arc<crate::cache::ReadCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached read cache, if any.
    pub fn cache(&self) -> Option<&Arc<crate::cache::ReadCache>> {
        self.cache.as_ref()
    }

    /// The control plane this client talks to.
    pub fn sms(&self) -> &SmsHandle {
        &self.sms
    }

    /// The storage fleet reads go against.
    pub fn fleet(&self) -> &StorageFleet {
        &self.fleet
    }

    /// The TrueTime source.
    pub fn truetime(&self) -> &TrueTime {
        &self.tt
    }

    /// Creates a table.
    pub fn create_table(&self, name: &str, schema: Schema) -> VortexResult<TableMeta> {
        self.sms.create_table(name, schema)
    }

    /// Creates a BigLake Managed Table (§6.4): WOS in Colossus, ROS in
    /// the named customer bucket.
    pub fn create_blmt_table(
        &self,
        name: &str,
        schema: Schema,
        bucket: &str,
    ) -> VortexResult<TableMeta> {
        self.sms.create_blmt_table(name, schema, bucket)
    }

    /// Resolves a table by name.
    pub fn table(&self, name: &str) -> VortexResult<TableMeta> {
        self.sms.get_table_by_name(name)
    }

    /// `CreateStream` + writer (§4.2.1). The default options give an
    /// UNBUFFERED stream with exactly-once offsets.
    pub fn create_writer(&self, table: TableId, opts: WriterOptions) -> VortexResult<StreamWriter> {
        StreamWriter::create(Arc::clone(&self.sms), self.tt.clone(), table, opts)
    }

    /// Convenience: an UNBUFFERED exactly-once writer.
    pub fn create_unbuffered_writer(&self, table: TableId) -> VortexResult<StreamWriter> {
        self.create_writer(table, WriterOptions::default())
    }

    /// Convenience: a BUFFERED writer (visibility via `flush`).
    pub fn create_buffered_writer(&self, table: TableId) -> VortexResult<StreamWriter> {
        self.create_writer(
            table,
            WriterOptions {
                stream_type: StreamType::Buffered,
                ..WriterOptions::default()
            },
        )
    }

    /// Convenience: a PENDING writer (visibility via
    /// [`VortexClient::batch_commit`]).
    pub fn create_pending_writer(&self, table: TableId) -> VortexResult<StreamWriter> {
        self.create_writer(
            table,
            WriterOptions {
                stream_type: StreamType::Pending,
                ..WriterOptions::default()
            },
        )
    }

    /// `BatchCommitStreams` (§4.2.4): atomically publishes PENDING
    /// streams. Returns the commit timestamp; reads at snapshots ≥ it see
    /// all the data.
    pub fn batch_commit(&self, table: TableId, streams: &[StreamId]) -> VortexResult<Timestamp> {
        self.sms.batch_commit_streams(table, streams)
    }

    /// A fresh snapshot with read-after-write guarantees.
    pub fn snapshot(&self) -> Timestamp {
        self.sms.read_snapshot()
    }

    /// Reads all rows of a table visible right now.
    pub fn read_rows(&self, table: TableId) -> VortexResult<TableRows> {
        self.read_rows_at(table, self.snapshot())
    }

    /// Reads all rows of a table visible at `snapshot` (time travel).
    pub fn read_rows_at(&self, table: TableId, snapshot: Timestamp) -> VortexResult<TableRows> {
        self.read_rows_with(
            table,
            snapshot,
            ReadOptions {
                cache: self.cache.clone(),
                ..ReadOptions::default()
            },
        )
    }

    /// Reads with explicit options (best-effort mode, custom cache, …).
    pub fn read_rows_with(
        &self,
        table: TableId,
        snapshot: Timestamp,
        opts: ReadOptions,
    ) -> VortexResult<TableRows> {
        let mut engine = QueryEngine::new(self.sms.clone(), self.fleet.clone());
        engine.read = opts;
        // One shard: the read is sequential.
        let one = ScanOptions {
            parallelism: 1,
            ..ScanOptions::default()
        };
        engine.scan(table, snapshot, &one)
    }

    /// Best-effort monitoring read (§9): returns whatever is unambiguous
    /// right now without reconciliation or replica failover retries; the
    /// result's `complete` flag says whether anything was skipped.
    pub fn read_rows_best_effort(&self, table: TableId) -> VortexResult<TableRows> {
        self.read_rows_with(
            table,
            self.snapshot(),
            ReadOptions {
                best_effort: true,
                cache: self.cache.clone(),
            },
        )
    }
}

impl std::fmt::Debug for VortexClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VortexClient").finish_non_exhaustive()
    }
}
