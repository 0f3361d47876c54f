//! Heartbeat messages: the Stream Server → SMS reporting channel (§5.5).
//!
//! "The Stream Server sends a heartbeat to each SMS every few seconds to
//! inform it about changes to Streamlet metadata as a result of new
//! appends." A heartbeat is the server's [`StreamletDelta`]s: typically
//! the changes since the previous one, periodically every streamlet it
//! hosts, which lets the SMS detect orphaned streamlets (§5.4.3).
//! Placement reads a server's load when it places, not from heartbeats.

use vortex_common::ids::{FragmentId, StreamletId, TableId};
use vortex_common::stats::ColumnStats;

/// New-or-updated fragment state carried in a heartbeat.
#[derive(Debug, Clone)]
pub struct FragmentDelta {
    /// The fragment.
    pub fragment: FragmentId,
    /// Ordinal within the streamlet.
    pub ordinal: u32,
    /// Streamlet-relative row offset of the fragment's first row.
    pub first_row: u64,
    /// Committed rows in the fragment.
    pub row_count: u64,
    /// Committed byte size of the log file.
    pub committed_size: u64,
    /// Whether the fragment is finalized (immutable).
    pub finalized: bool,
    /// Column properties (§7.2) of a sealed fragment; empty for the open
    /// one, which readers cover by its streamlet's tail.
    pub stats: Vec<(String, ColumnStats)>,
}

/// Per-streamlet delta in a heartbeat.
#[derive(Debug, Clone)]
pub struct StreamletDelta {
    /// Owning table (routes the delta to the right metadata).
    pub table: TableId,
    /// The streamlet.
    pub streamlet: StreamletId,
    /// New or updated fragments since the last heartbeat.
    pub fragments: Vec<FragmentDelta>,
    /// Total committed rows in the streamlet.
    pub row_count: u64,
    /// Highest flushed row offset (BUFFERED streams) seen by the server.
    pub max_flush_row: Option<u64>,
    /// Whether the server has finalized the streamlet (irrecoverable
    /// write error or revocation, §5.3).
    pub finalized: bool,
}

/// The SMS's reply to a heartbeat.
#[derive(Debug, Clone, Default)]
pub struct HeartbeatResponse {
    /// Tables whose schema version moved; the server relays to clients
    /// on their next append (§5.4.1).
    pub schema_updates: Vec<(TableId, u32)>,
    /// Fragments (by streamlet + ordinal) the server should GC (§5.4.3).
    pub gc: Vec<(TableId, StreamletId, Vec<u32>)>,
    /// Streamlets the SMS does not recognize: if sufficiently old, the
    /// server deletes them (§5.4.3: "the system ensures that the
    /// Streamlet is sufficiently old" before deletion).
    pub unknown_streamlets: Vec<StreamletId>,
}
