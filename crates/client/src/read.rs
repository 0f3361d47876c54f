//! The read path (§7.1): fragments are read directly from Colossus,
//! replicas fail over transparently, and ambiguous final appends go
//! through SMS reconciliation.
//!
//! "Query processing in BigQuery reads data in Vortex directly from
//! Colossus through a thick client library without contacting the Stream
//! Server." Commit rules applied here:
//!
//! - anything inside a File-Map-certified prefix is committed;
//! - a data block followed by any other record is committed;
//! - a *final* data block present in **both** replicas is committed (the
//!   server only acknowledged after both writes);
//! - a final data block in only one reachable replica — or replicas of
//!   different lengths — cannot be decided locally: "the client requests
//!   the SMS to reconcile the state of the final append".
//! - "If a reader encounters an append timestamp greater than the read
//!   snapshot timestamp, it can stop reading."
//!
//! # Consistency contract
//!
//! Because readers go straight to the log files, an append is *stamped*
//! (its TrueTime timestamp fixed) before its replica writes land. Three
//! guarantees follow:
//!
//! 1. **Read-after-write**: every row acknowledged before a snapshot was
//!    taken is visible at that snapshot (its stamp precedes the snapshot
//!    in the TrueTime issuance order, and its bytes are durable in both
//!    replicas).
//! 2. **Bleeding-edge reads grow, never shrink**: a scan that races an
//!    in-flight append stamped at ≤ the snapshot may or may not surface
//!    it, depending on whether the bytes had landed — rescanning the same
//!    snapshot can only add such rows, never lose one.
//! 3. **Bounded-stale repeatability**: snapshots older than the longest
//!    in-flight append are exactly repeatable, until they fall off the GC
//!    grace horizon — after which reads fail with `NotFound` ("snapshot
//!    too old") rather than silently under-count.
//!
//! This mirrors Spanner's split between strong reads and bounded-stale
//! reads; `tests/chaos_streams.rs` pins all three properties under fault
//! injection."

use std::borrow::Borrow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use vortex_colossus::{Colossus, StorageFleet};
use vortex_common::bloom::BloomFilter;
use vortex_common::crypt::Key;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{ClusterId, StreamId, StreamletId, TableId};
use vortex_common::mask::DeletionMask;
use vortex_common::row::{Row, Value};
use vortex_common::schema::Schema;
use vortex_common::truetime::Timestamp;
use vortex_ros::{ReadAt, RosBlock, RowMeta};
use vortex_sms::api::SmsHandle;
use vortex_sms::meta::{FragmentKind, FragmentMeta, FragmentState};
use vortex_sms::readset::{FragmentReadSpec, ReadSet, TailReadSpec};
use vortex_wos::{
    index_fragment, parse_fragment, BlockEntry, DataBlock, FragmentIndex, ParsedFragment,
};

/// Options for table reads.
#[derive(Debug, Clone, Default)]
pub struct ReadOptions {
    /// Optional query-aware cache of decoded immutable fragments (§9
    /// future work).
    pub cache: Option<Arc<crate::cache::ReadCache>>,
    /// Best-effort monitoring mode (§9: "low latency is preferred over
    /// 100% data availability"): unreadable fragments and ambiguous tails
    /// are *skipped* instead of failed over / reconciled; the result is
    /// marked incomplete.
    pub best_effort: bool,
}

/// All rows of a table visible at a snapshot, with provenance.
#[derive(Debug, Clone)]
pub struct TableRows {
    /// The snapshot timestamp.
    pub snapshot: Timestamp,
    /// Schema at the snapshot.
    pub schema: Schema,
    /// Rows (change types unresolved — UPSERT/DELETE resolution is the
    /// query engine's merge-on-read step).
    pub rows: Vec<(RowMeta, Row)>,
    /// False only for best-effort reads that had to skip data.
    pub complete: bool,
}

/// Outcome of probing one streamlet tail.
pub enum TailOutcome {
    /// The tail's committed, visible rows.
    Rows(Vec<(RowMeta, Row)>),
    /// The final append cannot be decided locally; the caller must ask
    /// the SMS to reconcile and retry (§7.1).
    NeedsReconcile,
}

/// Reconcile-and-retry rounds a table read runs before giving up on an
/// ambiguous streamlet tail.
const RECONCILE_ROUNDS: usize = 8;

/// What the settled round of [`drive_table_read`] produced.
pub struct TableRead<T> {
    /// Schema at the snapshot.
    pub schema: Schema,
    /// What the fragment callback returned for the settled read set.
    pub fragments: T,
    /// Committed, visible rows of the streamlet tails (no cached
    /// properties, always read — §7.2: "the properties for the tail of a
    /// Streamlet are maintained by the Stream Server"; the reader goes
    /// to the log).
    pub tail_rows: Vec<(RowMeta, Row)>,
    /// Tails probed.
    pub tails: usize,
    /// False only for best-effort reads that skipped a tail.
    pub complete: bool,
}

/// The table-read driver (§7, §7.1): list the read set at `snapshot`,
/// hand its fragments to `read_fragments`, read the streamlet tails, and
/// when a tail's final append cannot be decided locally ask the SMS to
/// reconcile it and start over with the reconciled metadata.
/// `best_effort` (§9 monitoring reads) skips unreadable and ambiguous
/// tails instead, marking the result incomplete.
pub fn drive_table_read<T>(
    sms: &SmsHandle,
    fleet: &StorageFleet,
    key: &Key,
    table: TableId,
    snapshot: Timestamp,
    best_effort: bool,
    mut read_fragments: impl FnMut(&ReadSet) -> VortexResult<T>,
) -> VortexResult<TableRead<T>> {
    let mut reconciled: HashMap<StreamletId, Timestamp> = HashMap::new();
    for _round in 0..RECONCILE_ROUNDS {
        let rs = sms.list_read_fragments(table, snapshot)?;
        let fragments = read_fragments(&rs)?;
        let mut tail_rows = Vec::new();
        let mut complete = true;
        let mut ambiguous = Vec::new();
        for tail in &rs.tails {
            if let Some(&list_at) = reconciled.get(&tail.streamlet) {
                // The snapshot predates the reconciliation commit, so the
                // metadata still shows a tail — but the reconciled
                // fragment records (listed at the reconcile time) are
                // authoritative and safe to read at the old snapshot (row
                // visibility is still gated by block timestamps).
                tail_rows.extend(read_reconciled_tail(
                    sms, fleet, key, table, tail, snapshot, list_at,
                )?);
                continue;
            }
            match read_tail(tail, fleet, key, snapshot) {
                Ok(TailOutcome::Rows(r)) => tail_rows.extend(r),
                // Monitoring reads don't pay the reconciliation round
                // trip; they return what is unambiguous (§9).
                Ok(TailOutcome::NeedsReconcile) if best_effort => complete = false,
                Ok(TailOutcome::NeedsReconcile) => ambiguous.push(tail.streamlet),
                Err(e) if best_effort && e.is_retryable() => complete = false,
                Err(e) => return Err(e),
            }
        }
        if ambiguous.is_empty() {
            return Ok(TableRead {
                schema: rs.schema,
                fragments,
                tail_rows,
                tails: rs.tails.len(),
                complete,
            });
        }
        for slid in ambiguous {
            sms.reconcile_streamlet(table, slid)?;
            reconciled.insert(slid, sms.read_snapshot());
        }
    }
    Err(VortexError::Unavailable(format!(
        "table {table}: streamlet tails still ambiguous after reconciliation"
    )))
}

/// Reads a whole table at `snapshot`: union of ROS blocks, committed WOS
/// fragments, and streamlet tails (§7).
pub fn read_table(
    sms: &SmsHandle,
    fleet: &StorageFleet,
    table: TableId,
    snapshot: Timestamp,
    opts: &ReadOptions,
) -> VortexResult<TableRows> {
    let key = sms.get_table(table)?.encryption_key();
    let mut fragments_complete = true;
    let read = drive_table_read(sms, fleet, &key, table, snapshot, opts.best_effort, |rs| {
        fragments_complete = true;
        let mut rows: Vec<(RowMeta, Row)> = Vec::new();
        for spec in &rs.fragments {
            match read_fragment_cached(spec, fleet, &key, snapshot, opts.cache.as_deref()) {
                Ok(r) => rows.extend(r),
                Err(e) if opts.best_effort && e.is_retryable() => fragments_complete = false,
                Err(e) => return Err(e),
            }
        }
        Ok(rows)
    })?;
    let mut rows = read.fragments;
    rows.extend(read.tail_rows);
    rows.sort_by_key(|(m, _)| (m.stream, m.offset, m.ts));
    pad_rows(&mut rows, read.schema.fields.len());
    Ok(TableRows {
        snapshot,
        schema: read.schema,
        rows,
        complete: fragments_complete && read.complete,
    })
}

/// Pads rows written under an earlier schema version with NULLs for the
/// additive columns they predate (§5.4.1).
pub fn pad_rows(rows: &mut [(RowMeta, Row)], arity: usize) {
    for (_, r) in rows {
        if r.values.len() < arity {
            r.values.resize(arity, Value::Null);
        }
    }
}

/// Reads a tail whose streamlet was reconciled *after* the read snapshot:
/// the reconciled fragment records (visible at the current metastore
/// time) bound what is committed; block timestamps still gate row
/// visibility at the old snapshot.
fn read_reconciled_tail(
    sms: &SmsHandle,
    fleet: &StorageFleet,
    key: &Key,
    table: TableId,
    tail: &TailReadSpec,
    snapshot: Timestamp,
    list_at: Timestamp,
) -> VortexResult<Vec<(RowMeta, Row)>> {
    // List at the reconciliation timestamp, not a fresh `now`: the
    // fragment records written by the reconcile are MVCC-stable there,
    // while at `now` a fast optimizer+GC cycle may have already deleted
    // them — which would silently drop their rows from this snapshot.
    let mut out = Vec::new();
    let from_offset = tail.first_stream_row + tail.from_row;
    for meta in sms.list_fragments(table, list_at).into_iter().filter(|f| {
        // Include Deleted fragments still visible at the snapshot:
        // the optimizer may convert the reconciled fragments before
        // this read runs, and skipping them would silently drop rows
        // (their ROS replacements are invisible at this snapshot).
        // If the file is already collected, the read fails with
        // NotFound — "snapshot too old" — which is honest.
        f.streamlet == tail.streamlet
            && f.kind == FragmentKind::Wos
            && f.state != FragmentState::Active
            && f.visible_at(snapshot)
    }) {
        let spec = FragmentReadSpec {
            mask: meta.mask_at(snapshot),
            visibility: tail.visibility.clone(),
            stream: tail.stream,
            streamlet_first_stream_row: tail.first_stream_row,
            meta,
        };
        for (m, r) in read_fragment_cached(&spec, fleet, key, snapshot, None)? {
            if m.offset >= from_offset {
                out.push((m, r));
            }
        }
    }
    Ok(out)
}

/// Runs `read` against each replica of the file at `path` in order until
/// one succeeds — the one replica-failover rule. A failure of any kind
/// moves on, whether the replica is unreachable, its read fails or its
/// bytes do not parse: after a single-replica reconciliation the lagging
/// replica's bytes beyond the common prefix can disagree with the
/// recorded committed size. The last error wins.
fn with_replica<T>(
    clusters: [ClusterId; 2],
    path: &str,
    fleet: &StorageFleet,
    mut read: impl FnMut(&Colossus) -> VortexResult<T>,
) -> VortexResult<T> {
    let mut last_err = VortexError::Unavailable(format!("no replica for {path}"));
    for c in clusters {
        match fleet.get(c).and_then(|cluster| read(cluster)) {
            Ok(out) => return Ok(out),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// A fragment fetched whole from a replica and parsed, its rows not yet
/// materialized.
pub enum OpenFragment {
    /// A columnar block, every chunk of it held.
    Ros(RosBlock),
    /// A log file parsed up to the recorded committed size.
    Wos(ParsedFragment),
}

/// Fetches one fragment whole and parses it, with replica failover — for
/// the readers that go on to decode all of it (table reads, DML, the
/// optimizer's passes), which one read serves best. A scan opens a ROS
/// block with [`open_ros_block`] instead.
pub fn open_fragment(
    meta: &FragmentMeta,
    fleet: &StorageFleet,
    key: &Key,
) -> VortexResult<OpenFragment> {
    with_replica(meta.clusters, &meta.path, fleet, |cluster| {
        let bytes = cluster.read_all(&meta.path)?.data;
        Ok(match meta.kind {
            FragmentKind::Ros => {
                OpenFragment::Ros(RosBlock::from_bytes(&bytes, key, meta.fragment.raw())?)
            }
            FragmentKind::Wos => {
                OpenFragment::Wos(parse_fragment(&bytes, key, Some(meta.committed_size))?)
            }
        })
    })
}

/// Opens a ROS block by its index alone — two ranged reads, bounded by
/// the recorded size — and returns it with the reader that fetches the
/// chunks a scan turns out to need ([`RosBlock::fetch`]). Every read runs
/// under the failover rule by itself: a replica whose read fails, or
/// whose bytes fail the block's CRC for them, hands over to the other.
pub fn open_ros_block<'a>(
    meta: &'a FragmentMeta,
    fleet: &'a StorageFleet,
    key: &Key,
) -> VortexResult<(RosBlock, Box<ReadAt<'a>>)> {
    let read = move |offset: u64, len: usize, check: &dyn Fn(&[u8]) -> VortexResult<()>| {
        with_replica(meta.clusters, &meta.path, fleet, |cluster| {
            let data = cluster.read(&meta.path, offset, len)?.data;
            check(&data).map(|()| data)
        })
    };
    // lint:allow(L010, one small box per block opened, so that its reader has a type to name)
    let mut read: Box<ReadAt<'a>> = Box::new(read);
    let block = RosBlock::open_index(meta.committed_size, key, meta.fragment.raw(), &mut *read)?;
    Ok((block, read))
}

/// The on-file bloom filter of a finalized WOS fragment, by two ranged
/// reads with replica failover and without touching row data (§5.4.4);
/// `None` for a file closed without a footer.
pub fn read_fragment_bloom(
    meta: &FragmentMeta,
    fleet: &StorageFleet,
) -> VortexResult<Option<BloomFilter>> {
    with_replica(meta.clusters, &meta.path, fleet, |cluster| {
        vortex_wos::read_bloom(meta.committed_size, |offset, len| {
            Ok(cluster.read(&meta.path, offset, len)?.data)
        })
    })
}

/// The rows of a decoded log-file block in position order, each moved out
/// with its provenance; `stream` and `first_stream_row` are those of the
/// read spec the block is read under.
fn block_rows(
    block: DataBlock,
    stream: StreamId,
    first_stream_row: u64,
) -> impl Iterator<Item = (RowMeta, Row)> {
    let (ts, first) = (block.timestamp, first_stream_row + block.first_row);
    let with_meta = move |(row, offset): (Row, u64)| {
        let meta = RowMeta {
            change_type: row.change_type,
            ts,
            stream: stream.raw(),
            offset,
        };
        (meta, row)
    };
    block.rows.rows.into_iter().zip(first..).map(with_meta)
}

/// The rows of a parsed log file in position order ([`block_rows`] of
/// every block).
pub fn wos_rows(
    parsed: ParsedFragment,
    stream: StreamId,
    first_stream_row: u64,
) -> impl Iterator<Item = (RowMeta, Row)> {
    (parsed.blocks.into_iter()).flat_map(move |block| block_rows(block, stream, first_stream_row))
}

/// Decodes a fragment's full extent, positionally ordered (no visibility
/// filtering) — the cacheable unit: `(path, committed_size)` uniquely
/// identifies this content. The index in the returned vector is the
/// fragment-relative position deletion masks address.
fn decode_fragment(
    spec: &FragmentReadSpec,
    fleet: &StorageFleet,
    key: &Key,
) -> VortexResult<Vec<(RowMeta, Row)>> {
    Ok(match open_fragment(&spec.meta, fleet, key)? {
        OpenFragment::Ros(block) => block.rows()?,
        OpenFragment::Wos(parsed) => {
            let mut rows = Vec::with_capacity(parsed.total_rows() as usize);
            rows.extend(wos_rows(
                parsed,
                spec.stream,
                spec.streamlet_first_stream_row,
            ));
            rows
        }
    })
}

/// The one row-visibility rule (§7.1, §7.3): which rows of a fragment or
/// a streamlet tail a read at `snapshot` may see. Rows are named by the
/// position deletion masks address — fragment-relative for a fragment
/// (ROS block row index, WOS row past `meta.first_row`),
/// streamlet-relative for a tail.
pub struct RowGate<'a> {
    snapshot: Timestamp,
    /// PENDING streams: nothing is visible before the batch commit.
    visible_from: Timestamp,
    /// WOS rows are in write order, so the first one stamped after the
    /// snapshot ends the read; a ROS block's rows all predate the block.
    write_ordered: bool,
    /// Streamlet-relative row of position 0 (flush limits are
    /// streamlet-relative).
    base: u64,
    /// Positions this read owns: a fragment's committed extent, or a
    /// tail's rows past the fragments the SMS already lists.
    extent: Range<u64>,
    /// BUFFERED streams: rows at or past the flush watermark are
    /// invisible.
    flush_limit: Option<u64>,
    /// DML deletions (§7.3).
    mask: &'a DeletionMask,
}

impl<'a> RowGate<'a> {
    /// The rule for a fragment of the read set.
    pub fn for_fragment(spec: &'a FragmentReadSpec, snapshot: Timestamp) -> Self {
        RowGate {
            snapshot,
            visible_from: spec.visibility.visible_from,
            write_ordered: spec.meta.kind == FragmentKind::Wos,
            base: spec.meta.first_row,
            extent: 0..spec.meta.row_count,
            flush_limit: spec.visibility.flush_limit,
            mask: &spec.mask,
        }
    }

    /// The rule for a streamlet tail.
    pub fn for_tail(tail: &'a TailReadSpec, snapshot: Timestamp) -> Self {
        RowGate {
            snapshot,
            visible_from: tail.visibility.visible_from,
            write_ordered: true,
            base: 0,
            extent: tail.from_row..u64::MAX,
            flush_limit: tail.visibility.flush_limit,
            mask: &tail.mask,
        }
    }

    /// Whether no row at all is visible (the stream was not yet committed
    /// at the snapshot): the caller can skip the fetch.
    pub fn is_shut(&self) -> bool {
        self.visible_from > self.snapshot
    }

    /// Whether a row stamped `ts` ends the read (§7.1: "If a reader
    /// encounters an append timestamp greater than the read snapshot
    /// timestamp, it can stop reading").
    pub fn stops_at(&self, ts: Timestamp) -> bool {
        self.write_ordered && ts > self.snapshot
    }

    /// Whether the row at `pos` is visible.
    pub fn admits(&self, pos: u64) -> bool {
        !self.is_shut()
            && self.extent.contains(&pos)
            && self
                .flush_limit
                .map_or(true, |limit| self.base + pos < limit)
            && !self.mask.contains(pos)
    }

    /// The visible rows of a positionally decoded extent, each with its
    /// position. Takes the extent by value (rows move out) or by
    /// reference (a cached extent stays shared).
    pub fn visible<'g, I>(&'g self, decoded: I) -> impl Iterator<Item = (u64, I::Item)> + 'g
    where
        I: IntoIterator + 'g,
        I::Item: Borrow<(RowMeta, Row)>,
    {
        decoded
            .into_iter()
            .take_while(|row| !self.stops_at(row.borrow().0.ts))
            .enumerate()
            .map(|(i, row)| (i as u64, row))
            .filter(|(pos, _)| self.admits(*pos))
    }
}

/// Reads one fragment's visible rows (WOS or ROS) with replica failover,
/// through the decoded-extent cache (§9) if one is given.
pub fn read_fragment_cached(
    spec: &FragmentReadSpec,
    fleet: &StorageFleet,
    key: &Key,
    snapshot: Timestamp,
    cache: Option<&crate::cache::ReadCache>,
) -> VortexResult<Vec<(RowMeta, Row)>> {
    let gate = RowGate::for_fragment(spec, snapshot);
    if gate.is_shut() {
        return Ok(vec![]);
    }
    let Some(cache) = cache else {
        let decoded = decode_fragment(spec, fleet, key)?;
        return Ok(gate.visible(decoded).map(|(_, r)| r).collect());
    };
    let (path, size) = (&spec.meta.path, spec.meta.committed_size);
    let decoded = match cache.get(path, size) {
        Some(hit) => hit,
        None => {
            let decoded = Arc::new(decode_fragment(spec, fleet, key)?);
            cache.put(path, size, decoded.clone());
            decoded
        }
    };
    Ok(gate
        .visible(decoded.iter())
        .map(|(_, r)| r.clone())
        .collect())
}

/// [`read_fragment_cached`] keeping each visible row's position — the
/// coordinate a DML statement's deletion mask is written in (§7.3).
pub fn read_fragment_positions(
    spec: &FragmentReadSpec,
    fleet: &StorageFleet,
    key: &Key,
    snapshot: Timestamp,
) -> VortexResult<Vec<(u64, Row)>> {
    let gate = RowGate::for_fragment(spec, snapshot);
    if gate.is_shut() {
        return Ok(vec![]);
    }
    let decoded = decode_fragment(spec, fleet, key)?;
    Ok(gate
        .visible(decoded)
        .map(|(pos, (_, row))| (pos, row))
        .collect())
}

/// The blocks of an indexed log file that matter to a read through
/// `gate`: those stamped at or before its snapshot. Divergence from
/// in-flight appends past the snapshot is a writer at work, not a failure
/// ("if a reader encounters an append timestamp greater than the read
/// snapshot timestamp, it can stop reading").
fn relevant<'i>(ix: &'i FragmentIndex, gate: &RowGate<'_>) -> &'i [BlockEntry] {
    let n = (ix.blocks.iter().take_while(|b| !gate.stops_at(b.timestamp))).count();
    &ix.blocks[..n]
}

/// Reads an unfinalized streamlet tail by probing log files past the last
/// fragment the SMS knows about.
///
/// §7.1 in full: fragments with a *successor* log file are bounded by
/// that successor's File Map ("the committed final file size of each of
/// the previous Fragments ... serves as a replica of the information that
/// would otherwise be available from the Stream Server") — no replica
/// comparison needed, even if one replica carries a torn block, so one
/// replica is read. Only the *latest* fragment needs the commit rules: a
/// block at or before the snapshot is committed if anything follows it or
/// if it is present in both replicas; otherwise the client asks the SMS
/// to reconcile. The rules need block extents, not rows: every copy of
/// the latest file is indexed, and each visible block is decoded once.
// lint:hotpath(scan) — freshness leg: sub-second tail visibility (§4.2.2/§7.1)
pub fn read_tail(
    tail: &TailReadSpec,
    fleet: &StorageFleet,
    key: &Key,
    snapshot: Timestamp,
) -> VortexResult<TailOutcome> {
    let gate = RowGate::for_tail(tail, snapshot);
    if gate.is_shut() {
        return Ok(TailOutcome::Rows(vec![]));
    }
    // ---- Phase 1: probe log files until one is missing. ----
    let replicas: Vec<&Arc<Colossus>> = (tail.clusters.iter())
        .filter_map(|c| fleet.get(*c).ok())
        .filter(|c| !c.faults().is_unavailable())
        .collect();
    if replicas.is_empty() {
        return Err(VortexError::Unavailable(format!(
            "no replica reachable for streamlet {}",
            tail.streamlet
        )));
    }
    let path = |ordinal: u32| format!("{}f{:08x}", tail.path_prefix, ordinal);
    let mut end = tail.from_ordinal;
    while replicas.iter().any(|c| c.exists(&path(end))) {
        end += 1;
    }
    if end == tail.from_ordinal {
        if tail.expected_rows > tail.from_row {
            // The SMS knew committed rows past the fragment specs at this
            // snapshot, yet no log file remains: the tail was converted
            // and collected after the snapshot was taken.
            return Err(VortexError::NotFound(format!(
                "snapshot too old: streamlet {} tail collected (expected rows {}..{})",
                tail.streamlet, tail.from_row, tail.expected_rows
            )));
        }
        return Ok(TailOutcome::Rows(vec![]));
    }

    // ---- Phase 2: the latest fragment — commit rules + snapshot-bounded
    // replica comparison, on block extents. A replica whose read fails
    // counts as unreachable. A copy that does not even index a header is
    // a reconciler's poison-only fence: the streamlet was reconciled, so
    // ask the SMS (idempotent) and re-read through the authoritative
    // fragment records. ----
    let latest = path(end - 1);
    let mut unread = VortexError::Unavailable(format!("no readable copy of {latest}"));
    let mut copies: Vec<Vec<u8>> = Vec::new();
    for c in replicas.iter().filter(|c| c.exists(&latest)) {
        match c.read_all(&latest) {
            Ok(read) => copies.push(read.data),
            Err(e) => unread = e,
        }
    }
    if copies.is_empty() {
        return Err(unread);
    }
    let indexes: VortexResult<Vec<FragmentIndex>> =
        (copies.iter().map(|c| index_fragment(c, None))).collect();
    let Ok(indexes) = indexes else {
        return Ok(TailOutcome::NeedsReconcile);
    };
    let extent = |ix: &FragmentIndex| {
        let blocks = relevant(ix, &gate);
        let end_row = blocks
            .last()
            .map_or(ix.header.first_row, |b| b.first_row + b.row_count);
        (blocks.len(), end_row)
    };
    let committed = match &indexes[1..] {
        // One readable copy: every relevant block needs a successor
        // record.
        [] => relevant(&indexes[0], &gate).iter().all(|b| b.committed),
        // Present in every replica → committed (the server acknowledged
        // only after both writes); replicas that disagree about data AT
        // the snapshot cannot be decided locally (§7.1's final-append
        // reconciliation).
        others => others.iter().all(|o| extent(o) == extent(&indexes[0])),
    };
    if !committed {
        return Ok(TailOutcome::NeedsReconcile);
    }

    // ---- Phase 3: rows. The gate's pick of an indexed file's relevant
    // blocks, each decoded once; returns the committed streamlet-relative
    // row end recovered (before flush/mask gating). ----
    let mut out = Vec::new();
    let visible = |ix: &FragmentIndex, bytes: &[u8], out: &mut Vec<(RowMeta, Row)>| {
        let mut end_row = tail.from_row;
        for b in relevant(ix, &gate) {
            end_row = end_row.max(b.first_row + b.row_count);
            let rows = block_rows(
                ix.decode_block(bytes, key, b)?,
                tail.stream,
                tail.first_stream_row,
            );
            let admitted = rows.zip(b.first_row..).filter(|(_, pos)| gate.admits(*pos));
            out.extend(admitted.map(|(row, _)| row));
        }
        Ok(end_row)
    };
    let mut recovered_end = tail.from_row;
    for ordinal in tail.from_ordinal..end - 1 {
        // A successor file exists, so one replica serves. Prefer the File
        // Map bound (headers are written before any divergence can occur,
        // so any copy's serves); if the map lacks this ordinal (successor
        // written by a later incarnation after GC), fall back to a lenient
        // walk — the mere existence of the successor certifies every
        // parseable block here (the server opened the next file only
        // after settling this one).
        let entry = (indexes[0].header.file_map.iter()).find(|e| e.ordinal == ordinal);
        let (file, limit, mark) = (path(ordinal), entry.map(|e| e.committed_size), out.len());
        let end_row = with_replica(tail.clusters, &file, fleet, |cluster| {
            out.truncate(mark); // rows of a replica that failed part-way
            let bytes = cluster.read_all(&file)?.data;
            visible(&index_fragment(&bytes, limit)?, &bytes, &mut out)
        })?;
        recovered_end = recovered_end.max(end_row);
    }
    // A copy that frames but does not decode cannot be decided locally
    // either.
    let Ok(end_row) = visible(&indexes[0], &copies[0], &mut out) else {
        return Ok(TailOutcome::NeedsReconcile);
    };
    let recovered_end = recovered_end.max(end_row);
    if recovered_end < tail.expected_rows {
        return Err(VortexError::NotFound(format!(
            "snapshot too old: streamlet {} tail recovered rows to {} but the SMS \
             committed floor at the snapshot was {}",
            tail.streamlet, recovered_end, tail.expected_rows
        )));
    }
    Ok(TailOutcome::Rows(out))
}
