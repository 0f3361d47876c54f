//! [`StreamServerApi`]: the complete service surface of a Stream Server.
//!
//! The SMS "picks a Stream Server based on load and health characteristics
//! and instructs it to create the Streamlet" (§5.2), and clients append to
//! "the address of the Stream Server" the SMS handed out. The concrete
//! server lives in the `vortex-server` crate (which depends on this one),
//! so both directions — SMS→server control and client→server data plane —
//! are expressed as one trait implemented there and registered with each
//! [`crate::SmsTask`]. Consumers hold a [`ServerHandle`], normally the
//! channel-wrapped [`crate::api::ServerChannel`], never the concrete type.

use std::sync::Arc;

use vortex_common::crypt::Key;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{ClusterId, ServerId, StreamId, StreamletId, TableId};
use vortex_common::row::RowSet;
use vortex_common::schema::Schema;
use vortex_common::truetime::Timestamp;

use crate::heartbeat::{FragmentDelta, HeartbeatResponse, StreamletDelta};

/// Acknowledgement of a successful append (§4.2.2).
#[derive(Debug, Clone, Copy)]
pub struct AppendAck {
    /// Stream-level row offset of the first appended row.
    pub first_stream_row: u64,
    /// Rows appended.
    pub row_count: u64,
    /// Virtual completion time (max over both replica writes, queued on
    /// the log file).
    pub completion: Timestamp,
}

/// Everything a Stream Server needs to host a new streamlet.
#[derive(Debug, Clone)]
pub struct StreamletSpec {
    /// Owning table.
    pub table: TableId,
    /// Owning stream.
    pub stream: StreamId,
    /// The streamlet to create.
    pub streamlet: StreamletId,
    /// Replica clusters to write log files to.
    pub clusters: [ClusterId; 2],
    /// Schema (for validation and column properties).
    pub schema: Schema,
    /// Stream-level row offset where the streamlet begins.
    pub first_stream_row: u64,
    /// Table encryption key.
    pub key: Key,
}

/// Load characteristics of a Stream Server, read by placement (§5.5:
/// "CPU, memory and append throughput" + quarantine status).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Writable streamlets currently hosted.
    pub streamlets: u64,
    /// Append throughput, bytes/sec (moving average).
    pub append_bytes_per_sec: f64,
    /// In-flight (uncommitted) bytes held in memory.
    pub in_flight_bytes: u64,
    /// Quarantined servers receive no new streamlets (rollouts, scale
    /// downs).
    pub quarantined: bool,
}

impl Default for LoadReport {
    fn default() -> Self {
        LoadReport {
            streamlets: 0,
            append_bytes_per_sec: 0.0,
            in_flight_bytes: 0,
            quarantined: false,
        }
    }
}

impl LoadReport {
    /// Scalar load score for placement: fewer streamlets and less traffic
    /// rank first; quarantined servers rank last.
    pub fn score(&self) -> f64 {
        if self.quarantined {
            return f64::INFINITY;
        }
        self.streamlets as f64 * 1_000.0
            + self.append_bytes_per_sec / 1024.0
            + self.in_flight_bytes as f64 / (1 << 20) as f64
    }
}

/// The full Stream Server service surface: SMS-driven control plus the
/// client data plane (append/flush) plus the heartbeat/maintenance hooks
/// the region daemon drives.
pub trait StreamServerApi: Send + Sync {
    /// This server's id.
    fn server_id(&self) -> ServerId;

    /// The cluster this server task runs in (placement prefers servers in
    /// the table's primary cluster, §5.2.1).
    fn cluster(&self) -> ClusterId;

    /// Creates (and persists) a streamlet so it can accept appends.
    fn create_streamlet(&self, spec: StreamletSpec) -> VortexResult<()>;

    /// Current load for placement decisions.
    fn load(&self) -> LoadReport;

    /// Live committed length (rows) of a hosted streamlet, if hosted.
    /// Used by FlushStream validation where the heartbeat cache may lag.
    fn streamlet_rows(&self, streamlet: StreamletId) -> Option<u64>;

    /// Tells the server the table's schema changed; it relays the new
    /// version to writing clients on their next append (§5.4.1).
    fn notify_schema_version(&self, table: TableId, version: u32);

    /// Tells the server to garbage-collect fragment log files it owns
    /// (§5.4.3). Returns the fragments actually deleted.
    fn gc_fragments(
        &self,
        table: TableId,
        streamlet: StreamletId,
        ordinals: Vec<u32>,
    ) -> VortexResult<Vec<u32>>;

    /// Tells the server it no longer owns a streamlet (reconciliation
    /// moved it, or a full-state snapshot revealed it orphaned).
    fn revoke_streamlet(&self, streamlet: StreamletId);

    /// Asks the server to gracefully finalize a hosted streamlet (bloom
    /// filter + footer on the last fragment) before the SMS reconciles
    /// it, and returns what the server knows of every fragment it sealed:
    /// the report reconciliation may adopt instead of decoding the log
    /// (§5.6). Best effort — a dead server simply doesn't answer.
    fn finalize_streamlet_ctl(&self, streamlet: StreamletId) -> VortexResult<Vec<FragmentDelta>>;

    // --------------------------------------------------------------
    // Data plane (§4.2.2 / §5.3). Default implementations refuse, so
    // control-only mocks stay small; the concrete server overrides.
    // --------------------------------------------------------------

    /// Appends `rows` to a hosted streamlet. The rows reach the owning
    /// shard through the `Arc`, never copied. `expected_stream_offset` is
    /// the client's offset-validation token (§4.2.2); `start` is the
    /// virtual submission time for latency accounting.
    fn append_shared(
        &self,
        streamlet: StreamletId,
        rows: Arc<RowSet>,
        declared_schema_version: u32,
        expected_stream_offset: Option<u64>,
        start: Timestamp,
    ) -> VortexResult<AppendAck> {
        let _ = (rows, declared_schema_version, expected_stream_offset, start);
        Err(VortexError::Unavailable(format!(
            "streamlet {streamlet}: endpoint has no data plane"
        )))
    }

    /// [`Self::append_shared`] of a copy of borrowed rows: the adapter
    /// kept for the benchmark's per-layer probes (`benchmark/src/layers.rs`).
    fn append(
        &self,
        streamlet: StreamletId,
        rows: &RowSet,
        version: u32,
        offset: Option<u64>,
        start: Timestamp,
    ) -> VortexResult<AppendAck> {
        // lint:allow(L010, the borrowing adapter copies by definition)
        self.append_shared(streamlet, Arc::new(rows.clone()), version, offset, start)
    }

    /// Persists a flush record at streamlet-relative `flush_row` so the
    /// BUFFERED flush watermark survives crashes (§4.2.3).
    fn flush(&self, streamlet: StreamletId, flush_row: u64) -> VortexResult<()> {
        let _ = flush_row;
        Err(VortexError::Unavailable(format!(
            "streamlet {streamlet}: endpoint has no data plane"
        )))
    }

    // --------------------------------------------------------------
    // Heartbeat / maintenance hooks (§5.5), driven by the region.
    // --------------------------------------------------------------

    /// Runs one maintenance tick (fragment rotation, property flushes);
    /// returns how many hosted streamlets did work.
    fn tick(&self) -> usize {
        0
    }

    /// Builds the next heartbeat: the streamlet deltas since the last
    /// one, or every hosted streamlet when `full`.
    fn build_heartbeat(&self, full: bool) -> Vec<StreamletDelta> {
        let _ = full;
        Vec::new()
    }

    /// Applies an SMS heartbeat response (schema bumps, GC orders,
    /// unknown-streamlet deletions older than `orphan_age_micros`);
    /// returns the GC acknowledgements to relay back. Errors mean the
    /// server died mid-application (e.g. a crash point fired during GC):
    /// unacknowledged work is simply re-issued on the next heartbeat.
    fn apply_heartbeat_response(
        &self,
        resp: &HeartbeatResponse,
        orphan_age_micros: u64,
    ) -> VortexResult<Vec<(TableId, StreamletId, Vec<u32>)>> {
        let _ = (resp, orphan_age_micros);
        Ok(Vec::new())
    }

    /// Forgets the last-reported heartbeat state so the next heartbeat is
    /// a full re-report (used after SMS failovers).
    fn reset_heartbeat_window(&self) {}

    /// Marks the server quarantined (receives no new streamlets).
    fn set_quarantined(&self, quarantined: bool) {
        let _ = quarantined;
    }
}

/// A shareable handle to a Stream Server endpoint.
pub type ServerHandle = Arc<dyn StreamServerApi>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_score_orders_sensibly() {
        let idle = LoadReport::default();
        let busy = LoadReport {
            streamlets: 10,
            append_bytes_per_sec: 1e6,
            in_flight_bytes: 50 << 20,
            quarantined: false,
        };
        let quarantined = LoadReport {
            quarantined: true,
            ..LoadReport::default()
        };
        assert!(idle.score() < busy.score());
        assert!(busy.score() < quarantined.score());
        assert_eq!(quarantined.score(), f64::INFINITY);
    }
}
