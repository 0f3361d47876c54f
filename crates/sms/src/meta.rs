//! Metadata entities persisted in the (Spanner-lite) metastore, with their
//! key naming scheme and binary serialization.
//!
//! The hierarchy is the paper's §5.1: a table owns Streams; a Stream is an
//! ordered list of Streamlets; a Streamlet is split into Fragments. WOS
//! and ROS fragments share one record type distinguished by
//! [`FragmentKind`], because the Storage Optimizer atomically swaps one
//! for the other inside a single metastore transaction (§6.1).

use std::collections::{BTreeSet, HashSet};
use std::fmt::Debug;

use vortex_common::codec::{
    get_bytes, get_len, get_str, get_uvarint, put_bytes, put_str, put_uvarint, take,
};
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{ClusterId, FragmentId, ServerId, StreamId, StreamletId, TableId};
use vortex_common::mask::DeletionMask;
use vortex_common::schema::Schema;
use vortex_common::schema_codec::{schema_from_bytes, schema_to_bytes};
use vortex_common::stats::ColumnStats;
use vortex_common::truetime::Timestamp;
use vortex_metastore::{MetaStore, Txn};

// ---------------------------------------------------------------------
// Catalog access. This file is the only code that knows the metastore
// key scheme and the record bytes; the SMS goes through the helpers
// below. Fixed-width hex keeps lexicographic key order == numeric order.
// ---------------------------------------------------------------------

/// Root of every catalog key: `t/{table}` is a table record and
/// `t/{table}/…` everything the table owns.
const ROOT: &str = "t/";

/// One class of catalog record: where it lives in the metastore and how
/// it is encoded.
pub trait Record: Sized {
    /// What names one record: the table id for a table, `(table, id)`
    /// for the entities a table owns.
    type Id: Copy + Debug;
    /// Kind name used in `NotFound` errors.
    const KIND: &'static str;
    /// Metastore key of record `id`.
    fn key(id: Self::Id) -> String;
    /// Key prefix of every record of this class in `table` (the table
    /// record is alone in its class: its prefix is its key).
    fn prefix(table: TableId) -> String;
    /// The id this record is stored under.
    fn id(&self) -> Self::Id;
    /// Serializes the record.
    fn to_bytes(&self) -> Vec<u8>;
    /// Deserializes the record.
    fn from_bytes(buf: &[u8]) -> VortexResult<Self>;
}

/// The one rule for a missing record: `NotFound` naming kind and id.
fn found<R: Record>(bytes: Option<Vec<u8>>, id: R::Id) -> VortexResult<R> {
    let bytes = bytes.ok_or_else(|| VortexError::NotFound(format!("{} {id:?}", R::KIND)))?;
    R::from_bytes(&bytes)
}

/// The one rule for a record that does not decode: it stays in the
/// listing as its `Decode` error, so the caller decides — every SMS
/// operation propagates it.
fn decoded<R: Record>(rows: Vec<(String, Vec<u8>)>) -> impl Iterator<Item = VortexResult<R>> {
    rows.into_iter().map(|(_, v)| R::from_bytes(&v))
}

/// Reads record `id` as of snapshot `at`.
pub fn load<R: Record>(store: &MetaStore, id: R::Id, at: Timestamp) -> VortexResult<R> {
    found(store.read_at(&R::key(id), at), id)
}

/// Reads record `id` inside a transaction (its own writes included).
pub fn load_in<R: Record>(txn: &mut Txn, id: R::Id) -> VortexResult<R> {
    found(txn.get(&R::key(id)), id)
}

/// For a record that may legitimately be absent: turns the `NotFound` of
/// a [`load`] or [`load_in`] into `None`, leaving every other error.
pub fn optional<R>(loaded: VortexResult<R>) -> VortexResult<Option<R>> {
    match loaded {
        Ok(rec) => Ok(Some(rec)),
        Err(VortexError::NotFound(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Every record of class `R` in `table` as of snapshot `at`, in key order.
pub fn scan<R: Record>(
    store: &MetaStore,
    table: TableId,
    at: Timestamp,
) -> impl Iterator<Item = VortexResult<R>> {
    decoded(store.scan_prefix_at(&R::prefix(table), at))
}

/// Every record of class `R` in `table` as a transaction sees it; the
/// scan joins the transaction's read footprint.
pub fn scan_in<R: Record>(txn: &mut Txn, table: TableId) -> impl Iterator<Item = VortexResult<R>> {
    decoded(txn.scan_prefix(&R::prefix(table)))
}

/// Buffers a write of `rec` under its own key.
pub fn put<R: Record>(txn: &mut Txn, rec: &R) {
    txn.put(&R::key(rec.id()), rec.to_bytes());
}

/// Buffers the deletion of record `id`.
pub fn delete<R: Record>(txn: &mut Txn, id: R::Id) {
    txn.delete(&R::key(id));
}

/// Read-modify-write of record `id`: loads it, applies `f`, writes it
/// back and returns the new value. An error from `f` writes nothing.
pub fn update<R: Record>(
    txn: &mut Txn,
    id: R::Id,
    f: impl FnOnce(&mut R) -> VortexResult<()>,
) -> VortexResult<R> {
    let mut rec = load_in(txn, id)?;
    f(&mut rec)?;
    put(txn, &rec);
    Ok(rec)
}

/// Key of the name index entry of a table; its value is the table's raw
/// id, little-endian. An index entry, not a record.
pub fn name_key(name: &str) -> String {
    format!("tname/{name}")
}

/// Prefix of a table's DML-in-progress markers (§7.3: "whenever a DML
/// statement is running, storage optimizer will not commit"). Each active
/// statement holds one token key under this prefix, so begin/end are
/// idempotent per ticket and safe to re-execute over a lossy RPC channel.
pub fn dml_lock_prefix(t: TableId) -> String {
    format!("{ROOT}{:016x}/dml/", t.raw())
}

/// Metastore key of one active DML statement's marker.
pub fn dml_lock_token_key(t: TableId, token: u64) -> String {
    format!("{ROOT}{:016x}/dml/{:016x}", t.raw(), token)
}

/// Every key a table owns (records of all classes and DML markers),
/// without decoding any: what the groomer deletes for an orphaned table.
pub fn owned_keys(store: &MetaStore, table: TableId, at: Timestamp) -> Vec<String> {
    let rows = store.scan_prefix_at(&format!("{ROOT}{:016x}/", table.raw()), at);
    rows.into_iter().map(|(k, _)| k).collect()
}

/// Tables that still own keys but whose table record is gone — the
/// groomer's work list (§5.4.3).
pub fn orphan_tables(store: &MetaStore, at: Timestamp) -> BTreeSet<TableId> {
    let mut live = HashSet::new();
    let mut orphans = BTreeSet::new();
    // Key order puts `t/{id}` before every `t/{id}/…`, so by the time a
    // child key is seen its table record has been seen too, if it exists.
    for (k, _) in store.scan_prefix_at(ROOT, at) {
        let rest = &k[ROOT.len()..];
        let (id_hex, child) = match rest.split_once('/') {
            Some((id_hex, _)) => (id_hex, true),
            None => (rest, false),
        };
        let Ok(raw) = u64::from_str_radix(id_hex, 16) else {
            continue;
        };
        if !child {
            live.insert(raw);
        } else if !live.contains(&raw) {
            orphans.insert(TableId::from_raw(raw));
        }
    }
    orphans
}

/// The largest id any catalog key uses. Table, stream, streamlet,
/// fragment and DML-token ids share one sequence, so a restarted region
/// seeds its id generator just past this.
pub fn max_id_in_use(store: &MetaStore) -> u64 {
    let rows = store.scan_prefix_at(ROOT, store.now());
    rows.iter()
        .flat_map(|(k, _)| k.split('/'))
        .filter_map(|part| u64::from_str_radix(part, 16).ok())
        .max()
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Colossus paths.
// ---------------------------------------------------------------------

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
    // Every entry takes at least two bytes, so the count is bounded by
    // the remaining input like a byte length is.
    let n = get_len(buf, pos)?;
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
    let n = get_len(buf, pos)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(buf, pos)?;
        let b = get_bytes(buf, pos)?;
        let mut p = 0usize;
        out.push((name, ColumnStats::from_bytes(&b, &mut p)?));
    }
    Ok(out)
}

/// An optional field: `0`, or `1` followed by the value.
fn put_opt<T>(out: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put(out, v);
        }
    }
}

fn get_opt<T>(
    buf: &[u8],
    pos: &mut usize,
    what: &str,
    get: impl FnOnce(&[u8], &mut usize) -> VortexResult<T>,
) -> VortexResult<Option<T>> {
    match take(buf, pos, 1)?[0] {
        0 => Ok(None),
        1 => get(buf, pos).map(Some),
        o => Err(VortexError::Decode(format!("bad {what} flag {o}"))),
    }
}

/// Reads a one-byte enum tag: `variants[tag]`. Variants are written as
/// their explicit discriminants, so `variants` lists them in that order.
fn get_tag<T: Copy>(buf: &[u8], pos: &mut usize, what: &str, variants: &[T]) -> VortexResult<T> {
    let tag = take(buf, pos, 1)?[0];
    let variant = variants.get(tag as usize).copied();
    variant.ok_or_else(|| VortexError::Decode(format!("bad {what} {tag}")))
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
}

impl Record for TableMeta {
    type Id = TableId;
    const KIND: &'static str = "table";

    fn key(t: TableId) -> String {
        format!("{ROOT}{:016x}", t.raw())
    }

    fn prefix(t: TableId) -> String {
        Self::key(t)
    }

    fn id(&self) -> TableId {
        self.table
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_uvarint(&mut out, self.table.raw());
        put_str(&mut out, &self.name);
        put_bytes(&mut out, &schema_to_bytes(&self.schema));
        put_uvarint(&mut out, self.primary.raw());
        put_uvarint(&mut out, self.secondary.raw());
        put_str(&mut out, &self.key_ref);
        put_opt(&mut out, self.external_bucket.as_deref(), put_str);
        out
    }

    fn from_bytes(buf: &[u8]) -> VortexResult<Self> {
        let mut pos = 0usize;
        let table = TableId::from_raw(get_uvarint(buf, &mut pos)?);
        let name = get_str(buf, &mut pos)?;
        let schema = schema_from_bytes(&get_bytes(buf, &mut pos)?)?;
        let primary = ClusterId::from_raw(get_uvarint(buf, &mut pos)?);
        let secondary = ClusterId::from_raw(get_uvarint(buf, &mut pos)?);
        let key_ref = get_str(buf, &mut pos)?;
        let external_bucket = get_opt(buf, &mut pos, "bucket", get_str)?;
        Ok(TableMeta {
            table,
            name,
            schema,
            primary,
            secondary,
            key_ref,
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
    Unbuffered = 0,
    /// Appends are durable but invisible until `FlushStream`.
    Buffered = 1,
    /// Nothing is visible until the stream is batch-committed.
    Pending = 2,
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
    /// Number of streamlets created so far (ordinal source).
    pub streamlet_count: u32,
}

impl Record for StreamMeta {
    type Id = (TableId, StreamId);
    const KIND: &'static str = "stream";

    fn key((t, s): Self::Id) -> String {
        format!("{ROOT}{:016x}/s/{:016x}", t.raw(), s.raw())
    }

    fn prefix(t: TableId) -> String {
        format!("{ROOT}{:016x}/s/", t.raw())
    }

    fn id(&self) -> Self::Id {
        (self.table, self.stream)
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_uvarint(&mut out, self.stream.raw());
        put_uvarint(&mut out, self.table.raw());
        out.push(self.stype as u8);
        out.push(self.finalized as u8);
        put_opt(&mut out, self.committed_at, |out, ts| {
            put_uvarint(out, ts.micros())
        });
        put_uvarint(&mut out, self.flushed_row);
        put_uvarint(&mut out, self.streamlet_count as u64);
        out
    }

    fn from_bytes(buf: &[u8]) -> VortexResult<Self> {
        let mut pos = 0usize;
        let stream = StreamId::from_raw(get_uvarint(buf, &mut pos)?);
        let table = TableId::from_raw(get_uvarint(buf, &mut pos)?);
        use StreamType::{Buffered, Pending, Unbuffered};
        let stype = get_tag(
            buf,
            &mut pos,
            "stream type",
            &[Unbuffered, Buffered, Pending],
        )?;
        let finalized = take(buf, &mut pos, 1)?[0] != 0;
        let committed_at = get_opt(buf, &mut pos, "committed", get_uvarint)?.map(Timestamp);
        let flushed_row = get_uvarint(buf, &mut pos)?;
        let streamlet_count = get_uvarint(buf, &mut pos)? as u32;
        Ok(StreamMeta {
            stream,
            table,
            stype,
            finalized,
            committed_at,
            flushed_row,
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
    Writable = 0,
    /// No longer writable (server moved/failed); length not yet
    /// authoritative in the metastore.
    Closed = 1,
    /// Reconciled/finalized: the metastore row count is the source of
    /// truth (§6.2).
    Finalized = 2,
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
    /// Versioned tail deletion masks (streamlet-relative rows, §7.3).
    pub masks: Vec<(Timestamp, DeletionMask)>,
    /// Epoch incremented on every ownership change; used to poison
    /// zombies (§5.6).
    pub epoch: u64,
    /// Where the WOS fragments GC has collected end — next ordinal, next
    /// streamlet-relative row: the tail starts no earlier once their
    /// records are gone. It trails the stored record, and only once
    /// non-zero, so a record GC never touched keeps its bytes.
    pub collected: (u32, u64),
}

impl Record for StreamletMeta {
    type Id = (TableId, StreamletId);
    const KIND: &'static str = "streamlet";

    fn key((t, l): Self::Id) -> String {
        format!("{ROOT}{:016x}/l/{:016x}", t.raw(), l.raw())
    }

    fn prefix(t: TableId) -> String {
        format!("{ROOT}{:016x}/l/", t.raw())
    }

    fn id(&self) -> Self::Id {
        (self.table, self.streamlet)
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_uvarint(&mut out, self.streamlet.raw());
        put_uvarint(&mut out, self.stream.raw());
        put_uvarint(&mut out, self.table.raw());
        put_uvarint(&mut out, self.ordinal as u64);
        put_uvarint(&mut out, self.server.raw());
        put_uvarint(&mut out, self.clusters[0].raw());
        put_uvarint(&mut out, self.clusters[1].raw());
        out.push(self.state as u8);
        put_uvarint(&mut out, self.first_stream_row);
        put_uvarint(&mut out, self.row_count);
        put_masks(&mut out, &self.masks);
        put_uvarint(&mut out, self.epoch);
        if self.collected != (0, 0) {
            put_uvarint(&mut out, self.collected.0 as u64);
            put_uvarint(&mut out, self.collected.1);
        }
        out
    }

    fn from_bytes(buf: &[u8]) -> VortexResult<Self> {
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
        use StreamletState::{Closed, Finalized, Writable};
        let state = get_tag(
            buf,
            &mut pos,
            "streamlet state",
            &[Writable, Closed, Finalized],
        )?;
        let first_stream_row = get_uvarint(buf, &mut pos)?;
        let row_count = get_uvarint(buf, &mut pos)?;
        let masks = get_masks(buf, &mut pos)?;
        let epoch = get_uvarint(buf, &mut pos)?;
        let mut collected = (0, 0);
        if pos < buf.len() {
            collected.0 = get_uvarint(buf, &mut pos)? as u32;
            collected.1 = get_uvarint(buf, &mut pos)?;
        }
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
            masks,
            epoch,
            collected,
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
    Wos = 0,
    /// A ROS columnar block produced by the Storage Optimizer.
    Ros = 1,
}

/// Lifecycle of a fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragmentState {
    /// Still being written by the Stream Server (WOS only).
    Active = 0,
    /// Immutable; eligible for WOS→ROS conversion.
    Finalized = 1,
    /// Logically deleted (`deleted_at` set); awaiting GC (§5.4.3).
    Deleted = 2,
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
    /// Column properties for pruning (§7.2); a WOS fragment has none
    /// until it is sealed.
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
    /// A WOS fragment the SMS has just learned of (from a heartbeat delta
    /// or by finding its log file during reconciliation): active, empty,
    /// visible to every snapshot, at its streamlet's log path.
    pub fn new_wos(
        fragment: FragmentId,
        streamlet: &StreamletMeta,
        ordinal: u32,
        first_row: u64,
    ) -> Self {
        FragmentMeta {
            fragment,
            table: streamlet.table,
            streamlet: streamlet.streamlet,
            kind: FragmentKind::Wos,
            ordinal,
            first_row,
            row_count: 0,
            committed_size: 0,
            state: FragmentState::Active,
            created_at: Timestamp::MIN,
            deleted_at: Timestamp::MAX,
            clusters: streamlet.clusters,
            path: wos_path(streamlet.table, streamlet.streamlet, ordinal),
            stats: vec![],
            masks: vec![],
            partition_key: None,
            level: 0,
        }
    }

    /// Whether the fragment participates in a read at snapshot `ts`
    /// (§6.1: visible in `[creation_timestamp, deletion_timestamp)`).
    pub fn visible_at(&self, ts: Timestamp) -> bool {
        self.created_at <= ts && ts < self.deleted_at
    }

    /// The effective deletion mask at a snapshot.
    pub fn mask_at(&self, ts: Timestamp) -> DeletionMask {
        effective_mask(&self.masks, ts)
    }

    /// Whether the fragment is logically deleted and `horizon` (now minus
    /// the GC grace) has passed its deletion: only then may its file and
    /// record go (§5.4.3).
    pub fn collectible(&self, horizon: Timestamp) -> bool {
        self.state == FragmentState::Deleted && self.deleted_at <= horizon
    }

    /// Records the part of a streamlet-relative tail mask (§7.3) that
    /// falls inside this fragment's rows; `false` when none does.
    pub fn add_tail_mask(&mut self, ts: Timestamp, tail: &DeletionMask) -> bool {
        let local = tail.slice_rebased(self.first_row, self.first_row + self.row_count);
        let hit = !local.is_empty();
        if hit {
            self.masks.push((ts, local));
        }
        hit
    }

    /// Active → Finalized: the row range is now fixed, so the streamlet's
    /// tail masks are mapped onto it.
    pub fn finalize(&mut self, tail_masks: &[(Timestamp, DeletionMask)]) {
        self.state = FragmentState::Finalized;
        for (ts, tail) in tail_masks {
            self.add_tail_mask(*ts, tail);
        }
    }
}

impl Record for FragmentMeta {
    type Id = (TableId, FragmentId);
    const KIND: &'static str = "fragment";

    fn key((t, f): Self::Id) -> String {
        format!("{ROOT}{:016x}/f/{:016x}", t.raw(), f.raw())
    }

    fn prefix(t: TableId) -> String {
        format!("{ROOT}{:016x}/f/", t.raw())
    }

    fn id(&self) -> Self::Id {
        (self.table, self.fragment)
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_uvarint(&mut out, self.fragment.raw());
        put_uvarint(&mut out, self.table.raw());
        put_uvarint(&mut out, self.streamlet.raw());
        out.push(self.kind as u8);
        put_uvarint(&mut out, self.ordinal as u64);
        put_uvarint(&mut out, self.first_row);
        put_uvarint(&mut out, self.row_count);
        put_uvarint(&mut out, self.committed_size);
        out.push(self.state as u8);
        put_uvarint(&mut out, self.created_at.micros());
        put_uvarint(&mut out, self.deleted_at.micros());
        put_uvarint(&mut out, self.clusters[0].raw());
        put_uvarint(&mut out, self.clusters[1].raw());
        put_str(&mut out, &self.path);
        put_stats(&mut out, &self.stats);
        put_masks(&mut out, &self.masks);
        // (order-preserving bias)
        put_opt(&mut out, self.partition_key, |out, k| {
            put_uvarint(out, (k as u64) ^ (1 << 63))
        });
        put_uvarint(&mut out, self.level as u64);
        out
    }

    fn from_bytes(buf: &[u8]) -> VortexResult<Self> {
        let mut pos = 0usize;
        let fragment = FragmentId::from_raw(get_uvarint(buf, &mut pos)?);
        let table = TableId::from_raw(get_uvarint(buf, &mut pos)?);
        let streamlet = StreamletId::from_raw(get_uvarint(buf, &mut pos)?);
        use FragmentKind::{Ros, Wos};
        let kind = get_tag(buf, &mut pos, "fragment kind", &[Wos, Ros])?;
        let ordinal = get_uvarint(buf, &mut pos)? as u32;
        let first_row = get_uvarint(buf, &mut pos)?;
        let row_count = get_uvarint(buf, &mut pos)?;
        let committed_size = get_uvarint(buf, &mut pos)?;
        use FragmentState::{Active, Deleted, Finalized};
        let state = get_tag(
            buf,
            &mut pos,
            "fragment state",
            &[Active, Finalized, Deleted],
        )?;
        let created_at = Timestamp(get_uvarint(buf, &mut pos)?);
        let deleted_at = Timestamp(get_uvarint(buf, &mut pos)?);
        let clusters = [
            ClusterId::from_raw(get_uvarint(buf, &mut pos)?),
            ClusterId::from_raw(get_uvarint(buf, &mut pos)?),
        ];
        let path = get_str(buf, &mut pos)?;
        let stats = get_stats(buf, &mut pos)?;
        let masks = get_masks(buf, &mut pos)?;
        let partition_key =
            get_opt(buf, &mut pos, "partition", get_uvarint)?.map(|k| (k ^ (1 << 63)) as i64);
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

    fn sample_table() -> TableMeta {
        TableMeta {
            table: TableId::from_raw(5),
            name: "sales".into(),
            schema: sales_schema(),
            primary: ClusterId::from_raw(0),
            secondary: ClusterId::from_raw(1),
            key_ref: "tbl-5-key".into(),
            external_bucket: None,
        }
    }

    fn sample_stream(stype: StreamType, committed_at: Option<Timestamp>) -> StreamMeta {
        StreamMeta {
            stream: StreamId::from_raw(7),
            table: TableId::from_raw(1),
            stype,
            finalized: stype == StreamType::Pending,
            committed_at,
            flushed_row: 33,
            streamlet_count: 2,
        }
    }

    fn sample_streamlet() -> StreamletMeta {
        StreamletMeta {
            streamlet: StreamletId::from_raw(3),
            stream: StreamId::from_raw(7),
            table: TableId::from_raw(1),
            ordinal: 1,
            server: ServerId::from_raw(12),
            clusters: [ClusterId::from_raw(0), ClusterId::from_raw(2)],
            state: StreamletState::Closed,
            first_stream_row: 4096,
            row_count: 777,
            masks: vec![
                (Timestamp(100), DeletionMask::from_range(0, 5)),
                (Timestamp(200), DeletionMask::from_range(10, 20)),
            ],
            epoch: 4,
            collected: (0, 0),
        }
    }

    fn empty_store() -> std::sync::Arc<MetaStore> {
        use vortex_common::truetime::{SimClock, TrueTime};
        MetaStore::new(TrueTime::simulated(SimClock::new(1_000), 10, 0))
    }

    /// What every [`Record`] owes the helpers: bytes round-trip, the key
    /// lies under the class prefix and sorts by id, `put` then `load`
    /// returns the record, and a missing one is `NotFound` naming its
    /// kind. `later` is an id that must sort after the record's own.
    fn check_record<R: Record + PartialEq + Debug>(rec: R, table: TableId, later: R::Id) {
        assert_eq!(R::from_bytes(&rec.to_bytes()).unwrap(), rec);
        let key = R::key(rec.id());
        assert!(key.starts_with(&R::prefix(table)), "{key}");
        assert!(key < R::key(later), "{key} sorts before {}", R::key(later));
        let store = empty_store();
        let mut txn = store.begin();
        put(&mut txn, &rec);
        assert_eq!(load_in::<R>(&mut txn, rec.id()).unwrap(), rec);
        let at = txn.commit().unwrap();
        assert_eq!(load::<R>(&store, rec.id(), at).unwrap(), rec);
        match load::<R>(&store, later, at) {
            Err(VortexError::NotFound(what)) => assert!(what.starts_with(R::KIND), "{what}"),
            other => panic!("expected NotFound, got {other:?}"),
        }
        assert_eq!(optional(load::<R>(&store, later, at)).unwrap(), None);
    }

    #[test]
    fn records_roundtrip_and_keys_sort_by_id() {
        let t = TableId::from_raw(1);
        check_record(sample_table(), TableId::from_raw(5), TableId::from_raw(16));
        for (stype, committed) in [
            (StreamType::Unbuffered, None),
            (StreamType::Buffered, None),
            (StreamType::Pending, Some(Timestamp(42))),
        ] {
            let later = (t, StreamId::from_raw(16));
            check_record(sample_stream(stype, committed), t, later);
        }
        check_record(sample_streamlet(), t, (t, StreamletId::from_raw(255)));
        let mut collected = sample_streamlet();
        collected.collected = (2, 512);
        check_record(collected, t, (t, StreamletId::from_raw(255)));
        check_record(sample_fragment(), t, (t, FragmentId::from_raw(10)));
        // Negative and None partition keys.
        let mut ros = sample_fragment();
        ros.partition_key = None;
        ros.kind = FragmentKind::Ros;
        ros.level = 3;
        check_record(ros, t, (t, FragmentId::from_raw(255)));
    }

    #[test]
    fn record_bytes_are_pinned() {
        // Length and CRC32C of each sample: stored records outlive the
        // code that wrote them, so a moved pin is a format change.
        fn pin<R: Record>(rec: &R) -> (usize, u32) {
            let bytes = rec.to_bytes();
            (bytes.len(), vortex_common::crc::crc32c(&bytes))
        }
        assert_eq!(pin(&sample_table()), (228, 0xaf16_e554));
        let mut blmt = sample_table();
        blmt.external_bucket = Some("bkt".into());
        assert_eq!(pin(&blmt), (232, 0xe15c_c555));
        let unbuffered = sample_stream(StreamType::Unbuffered, None);
        assert_eq!(pin(&unbuffered), (7, 0xc4f9_ba7f));
        let buffered = sample_stream(StreamType::Buffered, None);
        assert_eq!(pin(&buffered), (7, 0xfce8_d5d3));
        let pending = sample_stream(StreamType::Pending, Some(Timestamp(42)));
        assert_eq!(pin(&pending), (8, 0x3bc2_62cf));
        assert_eq!(pin(&sample_streamlet()), (25, 0xc0da_b3b3));
        // The GC floor trails the record only once GC has set it.
        let mut collected = sample_streamlet();
        collected.collected = (2, 512);
        assert_eq!(pin(&collected), (28, 0xd4e6_248f));
        assert_eq!(pin(&sample_fragment()), (119, 0x73a7_1521));
        let mut ros = sample_fragment();
        ros.partition_key = None;
        ros.kind = FragmentKind::Ros;
        ros.state = FragmentState::Deleted;
        ros.level = 3;
        assert_eq!(pin(&ros), (110, 0x97fe_6800));
    }

    #[test]
    fn key_scheme_is_pinned() {
        // Stored keys outlive the code: a restarted region must find what
        // an earlier build wrote.
        let (t, id) = (TableId::from_raw(1), 0xab);
        assert_eq!(TableMeta::key(t), "t/0000000000000001");
        let stream = StreamMeta::key((t, StreamId::from_raw(id)));
        assert_eq!(stream, "t/0000000000000001/s/00000000000000ab");
        let streamlet = StreamletMeta::key((t, StreamletId::from_raw(id)));
        assert_eq!(streamlet, "t/0000000000000001/l/00000000000000ab");
        let fragment = FragmentMeta::key((t, FragmentId::from_raw(id)));
        assert_eq!(fragment, "t/0000000000000001/f/00000000000000ab");
        assert_eq!(
            dml_lock_token_key(t, id),
            "t/0000000000000001/dml/00000000000000ab"
        );
        assert!(dml_lock_token_key(t, id).starts_with(&dml_lock_prefix(t)));
        assert_eq!(name_key("sales"), "tname/sales");
    }

    #[test]
    fn catalog_walks_find_orphans_owned_keys_and_the_max_id() {
        let store = empty_store();
        let mut live = sample_table();
        live.table = TableId::from_raw(1);
        let orphan = TableId::from_raw(2);
        let mut child = sample_streamlet();
        child.table = orphan;
        let mut txn = store.begin();
        put(&mut txn, &live);
        put(&mut txn, &sample_stream(StreamType::Unbuffered, None));
        put(&mut txn, &child);
        // A record that does not decode still counts, and still goes.
        txn.put(
            &FragmentMeta::key((orphan, FragmentId::from_raw(0x40))),
            vec![0xff],
        );
        txn.put(&dml_lock_token_key(orphan, 0x41), vec![1]);
        let at = txn.commit().unwrap();
        let orphans: Vec<TableId> = orphan_tables(&store, at).into_iter().collect();
        assert_eq!(orphans, vec![orphan]);
        assert_eq!(owned_keys(&store, orphan, at).len(), 3);
        assert_eq!(owned_keys(&store, live.table, at).len(), 1);
        assert_eq!(max_id_in_use(&store), 0x41);
        let listed: Vec<_> = scan::<FragmentMeta>(&store, orphan, at).collect();
        assert!(matches!(listed.as_slice(), [Err(VortexError::Decode(_))]));
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
        let t = sample_table();
        for field in ["sales", "tbl-5-key"] {
            let bad = with_max_len_before(&t.to_bytes(), field.as_bytes());
            assert!(TableMeta::from_bytes(&bad).is_err(), "{field}");
        }
        let sl = sample_streamlet();
        let mask = &sl.masks[0].1;
        let bad = with_max_len_before(&sl.to_bytes(), &mask.to_bytes());
        assert!(StreamletMeta::from_bytes(&bad).is_err());
        let f = sample_fragment();
        for field in [f.path.as_bytes(), b"customerKey", &f.masks[0].1.to_bytes()] {
            let bad = with_max_len_before(&f.to_bytes(), field);
            assert!(FragmentMeta::from_bytes(&bad).is_err());
        }
        // StreamMeta carries no length-prefixed field: a maximal varint
        // anywhere in it is at worst a huge number, never a length.
        let st = sample_stream(StreamType::Buffered, None);
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
