//! Metadata entities persisted in the (Spanner-lite) metastore, with their
//! key naming scheme and binary serialization.
//!
//! The hierarchy is the paper's §5.1: a table owns Streams; a Stream is an
//! ordered list of Streamlets; a Streamlet is split into Fragments. WOS
//! and ROS fragments share one record type distinguished by
//! [`FragmentKind`], because the Storage Optimizer atomically swaps one
//! for the other inside a single metastore transaction (§6.1).

use vortex_common::codec::{get_bytes, get_str, get_uvarint, put_bytes, put_str, put_uvarint};
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{ClusterId, FragmentId, ServerId, StreamId, StreamletId, TableId};
use vortex_common::mask::DeletionMask;
use vortex_common::schema::Schema;
use vortex_common::schema_codec::{schema_from_bytes, schema_to_bytes};
use vortex_common::stats::ColumnStats;
use vortex_common::truetime::Timestamp;

// ---------------------------------------------------------------------
// Key naming. Fixed-width hex keeps lexicographic order == numeric order.
// ---------------------------------------------------------------------

/// Metastore key of a table record.
pub fn table_key(t: TableId) -> String {
    format!("t/{:016x}", t.raw())
}

/// Metastore key prefix of everything belonging to a table.
pub fn table_prefix(t: TableId) -> String {
    format!("t/{:016x}/", t.raw())
}

/// Metastore key of a stream record.
pub fn stream_key(t: TableId, s: StreamId) -> String {
    format!("t/{:016x}/s/{:016x}", t.raw(), s.raw())
}

/// Prefix of all stream records of a table.
pub fn stream_prefix(t: TableId) -> String {
    format!("t/{:016x}/s/", t.raw())
}

/// Metastore key of a streamlet record.
pub fn streamlet_key(t: TableId, l: StreamletId) -> String {
    format!("t/{:016x}/l/{:016x}", t.raw(), l.raw())
}

/// Prefix of all streamlet records of a table.
pub fn streamlet_prefix(t: TableId) -> String {
    format!("t/{:016x}/l/", t.raw())
}

/// Metastore key of a fragment record.
pub fn fragment_key(t: TableId, f: FragmentId) -> String {
    format!("t/{:016x}/f/{:016x}", t.raw(), f.raw())
}

/// Prefix of all fragment records of a table.
pub fn fragment_prefix(t: TableId) -> String {
    format!("t/{:016x}/f/", t.raw())
}

/// Prefix of a table's DML-in-progress markers (§7.3: "whenever a DML
/// statement is running, storage optimizer will not commit"). Each active
/// statement holds one token key under this prefix, so begin/end are
/// idempotent per ticket and safe to re-execute over a lossy RPC channel.
pub fn dml_lock_prefix(t: TableId) -> String {
    format!("t/{:016x}/dml/", t.raw())
}

/// Metastore key of one active DML statement's marker.
pub fn dml_lock_token_key(t: TableId, token: u64) -> String {
    format!("t/{:016x}/dml/{:016x}", t.raw(), token)
}

/// Colossus path of a WOS fragment log file. The same path exists in both
/// replica clusters — replication is physical (§5.6).
pub fn wos_path(t: TableId, l: StreamletId, ordinal: u32) -> String {
    format!("wos/t{:016x}/l{:016x}/f{:08x}", t.raw(), l.raw(), ordinal)
}

/// Colossus path prefix of a streamlet's log files.
pub fn wos_streamlet_prefix(t: TableId, l: StreamletId) -> String {
    format!("wos/t{:016x}/l{:016x}/", t.raw(), l.raw())
}

/// Colossus path of a ROS block.
pub fn ros_path(t: TableId, f: FragmentId) -> String {
    format!("ros/t{:016x}/b{:016x}", t.raw(), f.raw())
}

/// Path of a BLMT ROS block inside the customer bucket (§6.4): an
/// open-layout object name a non-BigQuery engine could list and read.
pub fn blmt_path(bucket: &str, t: TableId, f: FragmentId) -> String {
    format!(
        "bucket/{bucket}/table={:x}/block-{:016x}.vros",
        t.raw(),
        f.raw()
    )
}

// ---------------------------------------------------------------------
// Serialization helpers.
// ---------------------------------------------------------------------

fn put_masks(out: &mut Vec<u8>, masks: &[(Timestamp, DeletionMask)]) {
    put_uvarint(out, masks.len() as u64);
    for (ts, m) in masks {
        put_uvarint(out, ts.micros());
        put_bytes(out, &m.to_bytes());
    }
}

fn get_masks(buf: &[u8], pos: &mut usize) -> VortexResult<Vec<(Timestamp, DeletionMask)>> {
    let n = get_uvarint(buf, pos)? as usize;
    if n > buf.len() {
        return Err(VortexError::Decode("mask count".into()));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let ts = Timestamp(get_uvarint(buf, pos)?);
        let b = get_bytes(buf, pos)?;
        out.push((ts, DeletionMask::from_bytes(&b)?));
    }
    Ok(out)
}

fn put_stats(out: &mut Vec<u8>, stats: &[(String, ColumnStats)]) {
    put_uvarint(out, stats.len() as u64);
    for (name, s) in stats {
        put_str(out, name);
        put_bytes(out, &s.to_bytes());
    }
}

fn get_stats(buf: &[u8], pos: &mut usize) -> VortexResult<Vec<(String, ColumnStats)>> {
    let n = get_uvarint(buf, pos)? as usize;
    if n > buf.len() {
        return Err(VortexError::Decode("stats count".into()));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(buf, pos)?;
        let b = get_bytes(buf, pos)?;
        let mut p = 0usize;
        out.push((name, ColumnStats::from_bytes(&b, &mut p)?));
    }
    Ok(out)
}

/// Resolves the effective deletion mask at a snapshot: the union of all
/// mask versions committed at or before `ts`.
pub fn effective_mask(masks: &[(Timestamp, DeletionMask)], ts: Timestamp) -> DeletionMask {
    let mut out = DeletionMask::new();
    for (mts, m) in masks {
        if *mts <= ts {
            out.union(m);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Table.
// ---------------------------------------------------------------------

/// Logical + placement metadata of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableMeta {
    /// Table id.
    pub table: TableId,
    /// Human-readable name (unique per region in this engine).
    pub name: String,
    /// Current schema (carries its version).
    pub schema: Schema,
    /// Primary cluster handling the table's workload (§5.2.1).
    pub primary: ClusterId,
    /// Secondary cluster for transparent failover.
    pub secondary: ClusterId,
    /// Passphrase the table's encryption key derives from (stand-in for a
    /// KMS reference; may be customer supplied, §5.4.5).
    pub key_ref: String,
    /// Creation time.
    pub created_at: Timestamp,
    /// BigLake Managed Table (§6.4): when set, ROS blocks are written to
    /// this customer-owned bucket (a dedicated storage namespace) instead
    /// of the table's replica clusters. WOS stays in Colossus either way.
    pub external_bucket: Option<String>,
}

impl TableMeta {
    /// The table's encryption key.
    pub fn encryption_key(&self) -> vortex_common::crypt::Key {
        vortex_common::crypt::Key::derive_from_passphrase(&self.key_ref)
    }

    /// Serializes the record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_uvarint(&mut out, self.table.raw());
        put_str(&mut out, &self.name);
        put_bytes(&mut out, &schema_to_bytes(&self.schema));
        put_uvarint(&mut out, self.primary.raw());
        put_uvarint(&mut out, self.secondary.raw());
        put_str(&mut out, &self.key_ref);
        put_uvarint(&mut out, self.created_at.micros());
        match &self.external_bucket {
            None => out.push(0),
            Some(b) => {
                out.push(1);
                put_str(&mut out, b);
            }
        }
        out
    }

    /// Deserializes the record.
    pub fn from_bytes(buf: &[u8]) -> VortexResult<Self> {
        let mut pos = 0usize;
        let table = TableId::from_raw(get_uvarint(buf, &mut pos)?);
        let name = get_str(buf, &mut pos)?;
        let schema = schema_from_bytes(&get_bytes(buf, &mut pos)?)?;
        let primary = ClusterId::from_raw(get_uvarint(buf, &mut pos)?);
        let secondary = ClusterId::from_raw(get_uvarint(buf, &mut pos)?);
        let key_ref = get_str(buf, &mut pos)?;
        let created_at = Timestamp(get_uvarint(buf, &mut pos)?);
        let flag = *buf
            .get(pos)
            .ok_or_else(|| VortexError::Decode("bucket flag truncated".into()))?;
        pos += 1;
        let external_bucket = match flag {
            0 => None,
            1 => Some(get_str(buf, &mut pos)?),
            o => return Err(VortexError::Decode(format!("bad bucket flag {o}"))),
        };
        let _ = pos;
        Ok(TableMeta {
            table,
            name,
            schema,
            primary,
            secondary,
            key_ref,
            created_at,
            external_bucket,
        })
    }
}

// ---------------------------------------------------------------------
// Stream.
// ---------------------------------------------------------------------

/// The three stream types of §4.2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamType {
    /// Appends are committed and visible once acknowledged.
    Unbuffered,
    /// Appends are durable but invisible until `FlushStream`.
    Buffered,
    /// Nothing is visible until the stream is batch-committed.
    Pending,
}

impl StreamType {
    fn to_u8(self) -> u8 {
        match self {
            StreamType::Unbuffered => 0,
            StreamType::Buffered => 1,
            StreamType::Pending => 2,
        }
    }

    fn from_u8(v: u8) -> VortexResult<Self> {
        Ok(match v {
            0 => StreamType::Unbuffered,
            1 => StreamType::Buffered,
            2 => StreamType::Pending,
            o => return Err(VortexError::Decode(format!("bad stream type {o}"))),
        })
    }
}

/// Metadata of a Stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamMeta {
    /// Stream id.
    pub stream: StreamId,
    /// Owning table.
    pub table: TableId,
    /// UNBUFFERED / BUFFERED / PENDING.
    pub stype: StreamType,
    /// Finalized streams accept no further appends (§4.2.5).
    pub finalized: bool,
    /// For PENDING streams: the batch-commit timestamp (data visible from
    /// here). `None` until committed.
    pub committed_at: Option<Timestamp>,
    /// For BUFFERED streams: rows `[0, flushed_row)` are visible (§4.2.3).
    pub flushed_row: u64,
    /// Creation time.
    pub created_at: Timestamp,
    /// Number of streamlets created so far (ordinal source).
    pub streamlet_count: u32,
}

impl StreamMeta {
    /// Serializes the record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_uvarint(&mut out, self.stream.raw());
        put_uvarint(&mut out, self.table.raw());
        out.push(self.stype.to_u8());
        out.push(self.finalized as u8);
        match self.committed_at {
            None => out.push(0),
            Some(ts) => {
                out.push(1);
                put_uvarint(&mut out, ts.micros());
            }
        }
        put_uvarint(&mut out, self.flushed_row);
        put_uvarint(&mut out, self.created_at.micros());
        put_uvarint(&mut out, self.streamlet_count as u64);
        out
    }

    /// Deserializes the record.
    pub fn from_bytes(buf: &[u8]) -> VortexResult<Self> {
        let mut pos = 0usize;
        let stream = StreamId::from_raw(get_uvarint(buf, &mut pos)?);
        let table = TableId::from_raw(get_uvarint(buf, &mut pos)?);
        let stype = StreamType::from_u8(
            *buf.get(pos)
                .ok_or_else(|| VortexError::Decode("stream type".into()))?,
        )?;
        pos += 1;
        let finalized = *buf
            .get(pos)
            .ok_or_else(|| VortexError::Decode("finalized flag".into()))?
            != 0;
        pos += 1;
        let committed_at = match buf.get(pos) {
            Some(0) => {
                pos += 1;
                None
            }
            Some(1) => {
                pos += 1;
                Some(Timestamp(get_uvarint(buf, &mut pos)?))
            }
            o => return Err(VortexError::Decode(format!("bad committed flag {o:?}"))),
        };
        let flushed_row = get_uvarint(buf, &mut pos)?;
        let created_at = Timestamp(get_uvarint(buf, &mut pos)?);
        let streamlet_count = get_uvarint(buf, &mut pos)? as u32;
        Ok(StreamMeta {
            stream,
            table,
            stype,
            finalized,
            committed_at,
            flushed_row,
            created_at,
            streamlet_count,
        })
    }
}

// ---------------------------------------------------------------------
// Streamlet.
// ---------------------------------------------------------------------

/// Lifecycle of a Streamlet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamletState {
    /// Accepting appends on its Stream Server.
    Writable,
    /// No longer writable (server moved/failed); length not yet
    /// authoritative in the metastore.
    Closed,
    /// Reconciled/finalized: the metastore row count is the source of
    /// truth (§6.2).
    Finalized,
}

impl StreamletState {
    fn to_u8(self) -> u8 {
        match self {
            StreamletState::Writable => 0,
            StreamletState::Closed => 1,
            StreamletState::Finalized => 2,
        }
    }

    fn from_u8(v: u8) -> VortexResult<Self> {
        Ok(match v {
            0 => StreamletState::Writable,
            1 => StreamletState::Closed,
            2 => StreamletState::Finalized,
            o => return Err(VortexError::Decode(format!("bad streamlet state {o}"))),
        })
    }
}

/// Metadata of a Streamlet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamletMeta {
    /// Streamlet id.
    pub streamlet: StreamletId,
    /// Owning stream.
    pub stream: StreamId,
    /// Owning table.
    pub table: TableId,
    /// Position within the stream (0-based).
    pub ordinal: u32,
    /// Stream Server currently hosting it.
    pub server: ServerId,
    /// The two replica clusters (§5.1: "all of which are present in the
    /// same 2 clusters").
    pub clusters: [ClusterId; 2],
    /// Lifecycle state.
    pub state: StreamletState,
    /// Stream-level row offset where this streamlet begins.
    pub first_stream_row: u64,
    /// Committed rows (heartbeat cache until Finalized, then truth).
    pub row_count: u64,
    /// Fragments known to the SMS (cache; the tail may have more).
    pub known_fragments: u32,
    /// Versioned tail deletion masks (streamlet-relative rows, §7.3).
    pub masks: Vec<(Timestamp, DeletionMask)>,
    /// Epoch incremented on every ownership change; used to poison
    /// zombies (§5.6).
    pub epoch: u64,
}

impl StreamletMeta {
    /// Serializes the record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_uvarint(&mut out, self.streamlet.raw());
        put_uvarint(&mut out, self.stream.raw());
        put_uvarint(&mut out, self.table.raw());
        put_uvarint(&mut out, self.ordinal as u64);
        put_uvarint(&mut out, self.server.raw());
        put_uvarint(&mut out, self.clusters[0].raw());
        put_uvarint(&mut out, self.clusters[1].raw());
        out.push(self.state.to_u8());
        put_uvarint(&mut out, self.first_stream_row);
        put_uvarint(&mut out, self.row_count);
        put_uvarint(&mut out, self.known_fragments as u64);
        put_masks(&mut out, &self.masks);
        put_uvarint(&mut out, self.epoch);
        out
    }

    /// Deserializes the record.
    pub fn from_bytes(buf: &[u8]) -> VortexResult<Self> {
        let mut pos = 0usize;
        let streamlet = StreamletId::from_raw(get_uvarint(buf, &mut pos)?);
        let stream = StreamId::from_raw(get_uvarint(buf, &mut pos)?);
        let table = TableId::from_raw(get_uvarint(buf, &mut pos)?);
        let ordinal = get_uvarint(buf, &mut pos)? as u32;
        let server = ServerId::from_raw(get_uvarint(buf, &mut pos)?);
        let clusters = [
            ClusterId::from_raw(get_uvarint(buf, &mut pos)?),
            ClusterId::from_raw(get_uvarint(buf, &mut pos)?),
        ];
        let state = StreamletState::from_u8(
            *buf.get(pos)
                .ok_or_else(|| VortexError::Decode("streamlet state".into()))?,
        )?;
        pos += 1;
        let first_stream_row = get_uvarint(buf, &mut pos)?;
        let row_count = get_uvarint(buf, &mut pos)?;
        let known_fragments = get_uvarint(buf, &mut pos)? as u32;
        let masks = get_masks(buf, &mut pos)?;
        let epoch = get_uvarint(buf, &mut pos)?;
        Ok(StreamletMeta {
            streamlet,
            stream,
            table,
            ordinal,
            server,
            clusters,
            state,
            first_stream_row,
            row_count,
            known_fragments,
            masks,
            epoch,
        })
    }
}

// ---------------------------------------------------------------------
// Fragment.
// ---------------------------------------------------------------------

/// Whether a fragment is write-optimized (a log-file row range) or
/// read-optimized (a columnar block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragmentKind {
    /// A range of rows inside a WOS log file.
    Wos,
    /// A ROS columnar block produced by the Storage Optimizer.
    Ros,
}

/// Lifecycle of a fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragmentState {
    /// Still being written by the Stream Server (WOS only).
    Active,
    /// Immutable; eligible for WOS→ROS conversion.
    Finalized,
    /// Logically deleted (`deleted_at` set); awaiting GC (§5.4.3).
    Deleted,
}

/// Metadata of a fragment (WOS or ROS).
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentMeta {
    /// Fragment id.
    pub fragment: FragmentId,
    /// Owning table.
    pub table: TableId,
    /// Owning streamlet; zero raw id for merged ROS blocks that span
    /// streamlets.
    pub streamlet: StreamletId,
    /// WOS or ROS.
    pub kind: FragmentKind,
    /// Ordinal within the streamlet (WOS) or 0 (ROS).
    pub ordinal: u32,
    /// Streamlet-relative row offset of the first row (WOS) or 0 (ROS).
    pub first_row: u64,
    /// Committed rows.
    pub row_count: u64,
    /// Committed byte size of the log file / block.
    pub committed_size: u64,
    /// Lifecycle state.
    pub state: FragmentState,
    /// Visibility start: `Timestamp::MIN` for streaming WOS fragments
    /// (rows self-gate on their block timestamps), the commit timestamp
    /// for ROS blocks and reinserted-row fragments (§6.1).
    pub created_at: Timestamp,
    /// Visibility end (exclusive); `Timestamp::MAX` while live.
    pub deleted_at: Timestamp,
    /// Replica clusters holding the bytes.
    pub clusters: [ClusterId; 2],
    /// Colossus path.
    pub path: String,
    /// Column properties for pruning (§7.2).
    pub stats: Vec<(String, ColumnStats)>,
    /// Versioned deletion masks (fragment-relative row indices, §7.3).
    pub masks: Vec<(Timestamp, DeletionMask)>,
    /// Partition key for partition-split ROS blocks (§6.1, Figure 5).
    pub partition_key: Option<i64>,
    /// ROS level in the LSM tree: 0 = fresh conversion (delta), higher =
    /// recluster generations (baseline). WOS fragments are level 0.
    pub level: u32,
}

impl FragmentMeta {
    /// Whether the fragment participates in a read at snapshot `ts`
    /// (§6.1: visible in `[creation_timestamp, deletion_timestamp)`).
    pub fn visible_at(&self, ts: Timestamp) -> bool {
        self.created_at <= ts && ts < self.deleted_at
    }

    /// The effective deletion mask at a snapshot.
    pub fn mask_at(&self, ts: Timestamp) -> DeletionMask {
        effective_mask(&self.masks, ts)
    }

    /// Serializes the record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_uvarint(&mut out, self.fragment.raw());
        put_uvarint(&mut out, self.table.raw());
        put_uvarint(&mut out, self.streamlet.raw());
        out.push(match self.kind {
            FragmentKind::Wos => 0,
            FragmentKind::Ros => 1,
        });
        put_uvarint(&mut out, self.ordinal as u64);
        put_uvarint(&mut out, self.first_row);
        put_uvarint(&mut out, self.row_count);
        put_uvarint(&mut out, self.committed_size);
        out.push(match self.state {
            FragmentState::Active => 0,
            FragmentState::Finalized => 1,
            FragmentState::Deleted => 2,
        });
        put_uvarint(&mut out, self.created_at.micros());
        put_uvarint(&mut out, self.deleted_at.micros());
        put_uvarint(&mut out, self.clusters[0].raw());
        put_uvarint(&mut out, self.clusters[1].raw());
        put_str(&mut out, &self.path);
        put_stats(&mut out, &self.stats);
        put_masks(&mut out, &self.masks);
        match self.partition_key {
            None => out.push(0),
            Some(k) => {
                out.push(1);
                put_uvarint(&mut out, (k as u64) ^ (1 << 63)); // order-preserving bias
            }
        }
        put_uvarint(&mut out, self.level as u64);
        out
    }

    /// Deserializes the record.
    pub fn from_bytes(buf: &[u8]) -> VortexResult<Self> {
        let mut pos = 0usize;
        let fragment = FragmentId::from_raw(get_uvarint(buf, &mut pos)?);
        let table = TableId::from_raw(get_uvarint(buf, &mut pos)?);
        let streamlet = StreamletId::from_raw(get_uvarint(buf, &mut pos)?);
        let kind = match buf.get(pos) {
            Some(0) => FragmentKind::Wos,
            Some(1) => FragmentKind::Ros,
            o => return Err(VortexError::Decode(format!("bad fragment kind {o:?}"))),
        };
        pos += 1;
        let ordinal = get_uvarint(buf, &mut pos)? as u32;
        let first_row = get_uvarint(buf, &mut pos)?;
        let row_count = get_uvarint(buf, &mut pos)?;
        let committed_size = get_uvarint(buf, &mut pos)?;
        let state = match buf.get(pos) {
            Some(0) => FragmentState::Active,
            Some(1) => FragmentState::Finalized,
            Some(2) => FragmentState::Deleted,
            o => return Err(VortexError::Decode(format!("bad fragment state {o:?}"))),
        };
        pos += 1;
        let created_at = Timestamp(get_uvarint(buf, &mut pos)?);
        let deleted_at = Timestamp(get_uvarint(buf, &mut pos)?);
        let clusters = [
            ClusterId::from_raw(get_uvarint(buf, &mut pos)?),
            ClusterId::from_raw(get_uvarint(buf, &mut pos)?),
        ];
        let path = get_str(buf, &mut pos)?;
        let stats = get_stats(buf, &mut pos)?;
        let masks = get_masks(buf, &mut pos)?;
        let partition_key = match buf.get(pos) {
            Some(0) => {
                pos += 1;
                None
            }
            Some(1) => {
                pos += 1;
                Some((get_uvarint(buf, &mut pos)? ^ (1 << 63)) as i64)
            }
            o => return Err(VortexError::Decode(format!("bad partition flag {o:?}"))),
        };
        let level = get_uvarint(buf, &mut pos)? as u32;
        Ok(FragmentMeta {
            fragment,
            table,
            streamlet,
            kind,
            ordinal,
            first_row,
            row_count,
            committed_size,
            state,
            created_at,
            deleted_at,
            clusters,
            path,
            stats,
            masks,
            partition_key,
            level,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_common::row::Value;
    use vortex_common::schema::sales_schema;

    fn sample_fragment() -> FragmentMeta {
        let mut stats = ColumnStats::new();
        stats.observe(&Value::String("alice".into()));
        stats.observe(&Value::String("zed".into()));
        FragmentMeta {
            fragment: FragmentId::from_raw(9),
            table: TableId::from_raw(1),
            streamlet: StreamletId::from_raw(3),
            kind: FragmentKind::Wos,
            ordinal: 2,
            first_row: 100,
            row_count: 50,
            committed_size: 12345,
            state: FragmentState::Finalized,
            created_at: Timestamp::MIN,
            deleted_at: Timestamp::MAX,
            clusters: [ClusterId::from_raw(0), ClusterId::from_raw(1)],
            path: wos_path(TableId::from_raw(1), StreamletId::from_raw(3), 2),
            stats: vec![("customerKey".into(), stats)],
            masks: vec![(Timestamp(500), DeletionMask::from_range(3, 7))],
            partition_key: Some(-12),
            level: 0,
        }
    }

    #[test]
    fn table_meta_roundtrip() {
        let m = TableMeta {
            table: TableId::from_raw(5),
            name: "sales".into(),
            schema: sales_schema(),
            primary: ClusterId::from_raw(0),
            secondary: ClusterId::from_raw(1),
            key_ref: "tbl-5-key".into(),
            created_at: Timestamp(999),
            external_bucket: None,
        };
        assert_eq!(TableMeta::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn stream_meta_roundtrip_all_types() {
        for (stype, committed) in [
            (StreamType::Unbuffered, None),
            (StreamType::Buffered, None),
            (StreamType::Pending, Some(Timestamp(42))),
        ] {
            let m = StreamMeta {
                stream: StreamId::from_raw(7),
                table: TableId::from_raw(1),
                stype,
                finalized: stype == StreamType::Pending,
                committed_at: committed,
                flushed_row: 33,
                created_at: Timestamp(10),
                streamlet_count: 2,
            };
            assert_eq!(StreamMeta::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn streamlet_meta_roundtrip() {
        let m = StreamletMeta {
            streamlet: StreamletId::from_raw(3),
            stream: StreamId::from_raw(7),
            table: TableId::from_raw(1),
            ordinal: 1,
            server: ServerId::from_raw(12),
            clusters: [ClusterId::from_raw(0), ClusterId::from_raw(2)],
            state: StreamletState::Closed,
            first_stream_row: 4096,
            row_count: 777,
            known_fragments: 3,
            masks: vec![
                (Timestamp(100), DeletionMask::from_range(0, 5)),
                (Timestamp(200), DeletionMask::from_range(10, 20)),
            ],
            epoch: 4,
        };
        assert_eq!(StreamletMeta::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn fragment_meta_roundtrip() {
        let m = sample_fragment();
        assert_eq!(FragmentMeta::from_bytes(&m.to_bytes()).unwrap(), m);
        // Negative and None partition keys.
        let mut m2 = sample_fragment();
        m2.partition_key = None;
        m2.kind = FragmentKind::Ros;
        m2.level = 3;
        assert_eq!(FragmentMeta::from_bytes(&m2.to_bytes()).unwrap(), m2);
    }

    #[test]
    fn visibility_interval() {
        let mut m = sample_fragment();
        m.created_at = Timestamp(100);
        m.deleted_at = Timestamp(200);
        assert!(!m.visible_at(Timestamp(99)));
        assert!(m.visible_at(Timestamp(100)));
        assert!(m.visible_at(Timestamp(199)));
        assert!(!m.visible_at(Timestamp(200)));
    }

    #[test]
    fn effective_mask_unions_by_snapshot() {
        let masks = vec![
            (Timestamp(100), DeletionMask::from_range(0, 5)),
            (Timestamp(200), DeletionMask::from_range(10, 15)),
        ];
        let at_150 = effective_mask(&masks, Timestamp(150));
        assert!(at_150.contains(2) && !at_150.contains(12));
        let at_250 = effective_mask(&masks, Timestamp(250));
        assert!(at_250.contains(2) && at_250.contains(12));
        let at_50 = effective_mask(&masks, Timestamp(50));
        assert!(at_50.is_empty());
    }

    #[test]
    fn key_naming_sorts_numerically() {
        let a = fragment_key(TableId::from_raw(1), FragmentId::from_raw(9));
        let b = fragment_key(TableId::from_raw(1), FragmentId::from_raw(10));
        let c = fragment_key(TableId::from_raw(1), FragmentId::from_raw(255));
        assert!(a < b && b < c);
        assert!(a.starts_with(&fragment_prefix(TableId::from_raw(1))));
        // Streams, streamlets, fragments have disjoint prefixes.
        let t = TableId::from_raw(1);
        assert_ne!(stream_prefix(t), streamlet_prefix(t));
        assert_ne!(streamlet_prefix(t), fragment_prefix(t));
    }

    /// `bytes` with the one-byte length prefix in front of `field`
    /// replaced by a maximal (`u64::MAX`) varint.
    fn with_max_len_before(bytes: &[u8], field: &[u8]) -> Vec<u8> {
        let at = bytes.windows(field.len()).position(|w| w == field).unwrap();
        let mut bad = bytes[..at - 1].to_vec();
        put_uvarint(&mut bad, u64::MAX);
        bad.extend_from_slice(&bytes[at..]);
        bad
    }

    #[test]
    fn maximal_length_varint_is_an_error_not_an_overflow() {
        // `pos + n` used to overflow on these before the bound could
        // reject them (debug: panic; release: wrap, then a slice panic).
        let t = TableMeta {
            table: TableId::from_raw(5),
            name: "sales".into(),
            schema: sales_schema(),
            primary: ClusterId::from_raw(0),
            secondary: ClusterId::from_raw(1),
            key_ref: "tbl-5-key".into(),
            created_at: Timestamp(999),
            external_bucket: None,
        };
        for field in ["sales", "tbl-5-key"] {
            let bad = with_max_len_before(&t.to_bytes(), field.as_bytes());
            assert!(TableMeta::from_bytes(&bad).is_err(), "{field}");
        }
        let mask = DeletionMask::from_range(0, 5);
        let sl = StreamletMeta {
            streamlet: StreamletId::from_raw(3),
            stream: StreamId::from_raw(7),
            table: TableId::from_raw(1),
            ordinal: 1,
            server: ServerId::from_raw(12),
            clusters: [ClusterId::from_raw(0), ClusterId::from_raw(2)],
            state: StreamletState::Closed,
            first_stream_row: 4096,
            row_count: 777,
            known_fragments: 3,
            masks: vec![(Timestamp(100), mask.clone())],
            epoch: 4,
        };
        let bad = with_max_len_before(&sl.to_bytes(), &mask.to_bytes());
        assert!(StreamletMeta::from_bytes(&bad).is_err());
        let f = sample_fragment();
        for field in [f.path.as_bytes(), b"customerKey", &f.masks[0].1.to_bytes()] {
            let bad = with_max_len_before(&f.to_bytes(), field);
            assert!(FragmentMeta::from_bytes(&bad).is_err());
        }
        // StreamMeta carries no length-prefixed field: a maximal varint
        // anywhere in it is at worst a huge number, never a length.
        let st = StreamMeta {
            stream: StreamId::from_raw(7),
            table: TableId::from_raw(1),
            stype: StreamType::Buffered,
            finalized: false,
            committed_at: None,
            flushed_row: 33,
            created_at: Timestamp(10),
            streamlet_count: 2,
        };
        let bytes = st.to_bytes();
        for at in 0..bytes.len() {
            let mut bad = bytes[..at].to_vec();
            put_uvarint(&mut bad, u64::MAX);
            bad.extend_from_slice(&bytes[at + 1..]);
            let _ = StreamMeta::from_bytes(&bad);
        }
    }

    #[test]
    fn corrupt_meta_rejected() {
        let m = sample_fragment();
        let bytes = m.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                FragmentMeta::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn paths_are_deterministic_and_distinct() {
        let t = TableId::from_raw(1);
        let l = StreamletId::from_raw(2);
        assert_eq!(wos_path(t, l, 0), wos_path(t, l, 0));
        assert_ne!(wos_path(t, l, 0), wos_path(t, l, 1));
        assert!(wos_path(t, l, 0).starts_with(&wos_streamlet_prefix(t, l)));
        assert!(ros_path(t, FragmentId::from_raw(3)).starts_with("ros/"));
    }
}
