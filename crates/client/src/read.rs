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

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use vortex_colossus::{Colossus, StorageFleet};
use vortex_common::bloom::BloomFilter;
use vortex_common::crypt::Key;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{ClusterId, StreamId, StreamletId, TableId};
use vortex_common::mask::DeletionMask;
use vortex_common::row::Row;
use vortex_common::schema::Schema;
use vortex_common::truetime::Timestamp;
use vortex_ros::{
    add_rowset, gather_rows, ColumnBuilder, ColumnVec, ReadAt, RosBlock, RowMeta, ZONE_ROWS,
};
use vortex_sms::api::SmsHandle;
use vortex_sms::meta::{FragmentKind, FragmentMeta, FragmentState};
use vortex_sms::readset::{FragmentReadSpec, ReadSet, TailReadSpec};
use vortex_wos::{index_fragment, BlockEntry, FragmentIndex};

/// Options for table reads.
#[derive(Debug, Clone, Default)]
pub struct ReadOptions {
    /// Optional query-aware cache of the decoded zones of immutable
    /// fragments (§9 future work).
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
    /// The tail's committed rows as zones, and which of them are
    /// visible.
    Rows(Visible),
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
    /// Committed rows of the streamlet tails, and which are visible (no
    /// cached properties, always read — §7.2: "the properties for the
    /// tail of a Streamlet are maintained by the Stream Server"; the
    /// reader goes to the log).
    pub tail_zones: Vec<Visible>,
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
        let mut tail_zones = Vec::new();
        let mut complete = true;
        let mut ambiguous = Vec::new();
        for tail in &rs.tails {
            if let Some(&list_at) = reconciled.get(&tail.streamlet) {
                // The snapshot predates the reconciliation commit, so the
                // metadata still shows a tail — but the reconciled
                // fragment records (listed at the reconcile time) are
                // authoritative and safe to read at the old snapshot (row
                // visibility is still gated by block timestamps).
                tail_zones.extend(read_reconciled_tail(
                    sms, fleet, key, table, tail, snapshot, list_at,
                )?);
                continue;
            }
            match read_tail(tail, fleet, key, snapshot) {
                Ok(TailOutcome::Rows(zones)) => tail_zones.push(zones),
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
                tail_zones,
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
    // Each fragment's zones are gathered into rows and dropped before the
    // next is read.
    let read = drive_table_read(sms, fleet, &key, table, snapshot, opts.best_effort, |rs| {
        fragments_complete = true;
        let mut rows: Vec<(RowMeta, Row)> = Vec::new();
        for spec in &rs.fragments {
            match read_fragment_cached(spec, fleet, &key, snapshot, opts.cache.as_deref()) {
                Ok(zones) => zones.rows_into(rs.schema.fields.len(), &mut rows),
                Err(e) if opts.best_effort && e.is_retryable() => fragments_complete = false,
                Err(e) => return Err(e),
            }
        }
        Ok(rows)
    })?;
    let mut rows = read.fragments;
    for zones in &read.tail_zones {
        zones.rows_into(read.schema.fields.len(), &mut rows);
    }
    rows.sort_by_key(|(m, _)| (m.stream, m.offset, m.ts));
    Ok(TableRows {
        snapshot,
        schema: read.schema,
        rows,
        complete: fragments_complete && read.complete,
    })
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
) -> VortexResult<Vec<Visible>> {
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
        let mut read = read_fragment_cached(&spec, fleet, key, snapshot, None)?;
        for (zone, sel) in read.zones.iter().zip(&mut read.sel) {
            sel.retain(|&i| zone.metas[i].offset >= from_offset);
        }
        out.push(read);
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

/// The one decoded form: a run of rows of a fragment or a tail as their
/// provenance plus one [`ColumnVec`] per column — leaf vectors for a log
/// file's rows, the vectors a block's chunks decode to for a ROS zone. A
/// column the rows predate (an older schema version) is absent, and reads
/// NULL; a `Row` is built from a zone only by [`gather_rows`].
#[derive(Debug, Clone)]
pub struct Zone {
    /// The position of the zone's first row, in the coordinate a
    /// [`RowGate`] and deletion masks address; its rows are consecutive.
    pub first: u64,
    /// The provenance of each row.
    pub metas: Vec<RowMeta>,
    /// One vector per column.
    pub cols: Vec<ColumnVec>,
}

/// Decoded zones — a fragment's whole extent, or a tail's committed
/// blocks — with the rows of each that a read may see.
#[derive(Debug, Clone)]
pub struct Visible {
    zones: Arc<Vec<Zone>>,
    /// Per zone, the admitted zone-relative rows, ascending.
    sel: Vec<Vec<usize>>,
}

impl Visible {
    /// The rows of `zones` that `gate` admits.
    fn through(gate: &RowGate<'_>, zones: Arc<Vec<Zone>>) -> Self {
        // lint:allow(L010, once per fragment or tail read: a selection per zone)
        let sel = zones.iter().map(|zone| gate.admitted(zone)).collect();
        Visible { zones, sel }
    }

    /// Visible rows.
    pub fn len(&self) -> usize {
        self.sel.iter().map(Vec::len).sum()
    }

    /// Whether no row is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Each zone with its visible rows.
    pub fn iter(&self) -> impl Iterator<Item = (&Zone, &[usize])> {
        self.zones.iter().zip(self.sel.iter().map(Vec::as_slice))
    }

    /// The visible rows (`arity` cells each, as [`Visible::rows_into`]),
    /// each with its position — the coordinate a DML statement's deletion
    /// mask is written in (§7.3).
    pub fn positioned_rows(&self, arity: usize) -> Vec<(u64, Row)> {
        let mut rows = Vec::with_capacity(self.len());
        self.rows_into(arity, &mut rows);
        let positions =
            (self.iter()).flat_map(|(zone, sel)| sel.iter().map(move |&i| zone.first + i as u64));
        (positions.zip(rows).map(|(pos, (_, row))| (pos, row))).collect()
    }

    /// Gathers the visible rows, `arity` cells each (at least the zone's
    /// own width), onto `out`.
    pub fn rows_into(&self, arity: usize, out: &mut Vec<(RowMeta, Row)>) {
        for (zone, sel) in self.iter() {
            let width = arity.max(zone.cols.len());
            let cols: Vec<_> = (0..width).map(|c| zone.cols.get(c)).collect();
            gather_rows(&zone.metas, sel, &cols, out);
        }
    }
}

/// Decodes `blocks` of the indexed log file `bytes` — each with the
/// position of its first row — into zones: consecutive blocks accumulate
/// into one zone of up to [`ZONE_ROWS`] rows (a tail of 16-row appends is
/// a few zones, not hundreds), each block's verified plaintext walked
/// once, cell by cell, into the zone's column builders. A row's
/// provenance is arithmetic on its block's index entry — in a streamlet
/// of `stream` whose row 0 is the stream's row `first_stream_row` — plus
/// its change type.
fn wos_zones<'i>(
    (ix, bytes): (&FragmentIndex, &[u8]),
    key: &Key,
    blocks: impl IntoIterator<Item = (u64, &'i BlockEntry)>,
    (stream, first_stream_row): (StreamId, u64),
) -> VortexResult<Vec<Zone>> {
    // Each zone as it grows: its first position, provenance and columns.
    // lint:allow(L010, once per log file decoded: an entry per zone)
    let mut zones: Vec<(u64, Vec<RowMeta>, Vec<ColumnBuilder>)> = Vec::new();
    for (pos, b) in blocks {
        let continues = zones.last().is_some_and(|(first, metas, _)| {
            let held = metas.len() as u64;
            pos == first + held && held + b.row_count <= ZONE_ROWS as u64
        });
        if !continues {
            // lint:allow(L010, once per zone decoded)
            zones.push((pos, Vec::new(), Vec::new()));
        }
        let Some((_, metas, cols)) = zones.last_mut() else {
            continue;
        };
        let plain = ix.block_plaintext(bytes, key, b)?;
        let (ts, stream, held) = (b.timestamp, stream.raw(), metas.len());
        let mut offset = first_stream_row + b.first_row;
        let rows = add_rowset(cols, held, &plain, |change_type| {
            // lint:allow(L010, grows the zone's provenance vector: 32 bytes a row, amortised)
            metas.push(RowMeta {
                change_type,
                ts,
                stream,
                offset,
            });
            offset += 1;
        })?;
        b.decoded(rows as u64)?;
    }
    let seal = |(first, metas, cols): (u64, _, Vec<ColumnBuilder>)| Zone {
        first,
        metas,
        // lint:allow(L010, once per zone decoded: a vector per column)
        cols: cols.into_iter().map(ColumnBuilder::into_column).collect(),
    };
    // lint:allow(L010, once per log file decoded: an entry per zone)
    Ok(zones.into_iter().map(seal).collect())
}

/// Decodes a fragment's full extent into zones (no visibility filtering),
/// with replica failover — the cacheable unit: `(path, committed_size)`
/// uniquely identifies this content. The file is read whole, which serves
/// best the readers that go on to decode all of it (table reads, DML, the
/// optimizer's passes); a scan opens a ROS block with [`open_ros_block`]
/// instead. Positions are fragment-relative: a ROS block's row index, a
/// log file's row past `meta.first_row`.
pub fn read_zones(
    spec: &FragmentReadSpec,
    fleet: &StorageFleet,
    key: &Key,
) -> VortexResult<Vec<Zone>> {
    let meta = &spec.meta;
    with_replica(meta.clusters, &meta.path, fleet, |cluster| {
        let bytes = cluster.read_all(&meta.path)?.data;
        if meta.kind == FragmentKind::Wos {
            let ix = index_fragment(&bytes, Some(meta.committed_size))?;
            let blocks = ix.blocks.iter().scan(0, |rows, b| {
                *rows += b.row_count;
                Some((*rows - b.row_count, b))
            });
            let of = (spec.stream, spec.streamlet_first_stream_row);
            return wos_zones((&ix, &bytes), key, blocks, of);
        }
        let block = RosBlock::from_bytes(&bytes, key, meta.fragment.raw())?;
        let zone = |z: usize| {
            let cols = (0..block.column_count()).map(|c| block.decode_zone(c, z));
            Ok(Zone {
                first: block.zone_range(z).start as u64,
                metas: block.zone_metas(z)?,
                // lint:allow(L010, once per zone of a block read whole: a vector per column)
                cols: cols.collect::<VortexResult<_>>()?,
            })
        };
        // lint:allow(L010, once per block read whole: an entry per zone)
        (0..block.zone_count()).map(zone).collect()
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

    /// The visible rows of a decoded zone, zone-relative and ascending.
    pub fn admitted(&self, zone: &Zone) -> Vec<usize> {
        let visible =
            |&i: &usize| !self.stops_at(zone.metas[i].ts) && self.admits(zone.first + i as u64);
        (0..zone.metas.len()).filter(visible).collect()
    }
}

/// Reads one fragment (WOS or ROS) into zones with replica failover,
/// through the decoded-extent cache (§9) if one is given — a hit shares
/// the cached zones — and marks the rows visible at `snapshot`.
pub fn read_fragment_cached(
    spec: &FragmentReadSpec,
    fleet: &StorageFleet,
    key: &Key,
    snapshot: Timestamp,
    cache: Option<&crate::cache::ReadCache>,
) -> VortexResult<Visible> {
    let gate = RowGate::for_fragment(spec, snapshot);
    if gate.is_shut() {
        return Ok(Visible::through(&gate, Arc::default()));
    }
    let (path, size) = (&spec.meta.path, spec.meta.committed_size);
    let zones = match cache.and_then(|cache| cache.get(path, size)) {
        Some(hit) => hit,
        None => {
            // lint:allow(L010, once per fragment decoded, so that the cache can share it)
            let zones = Arc::new(read_zones(spec, fleet, key)?);
            if let Some(cache) = cache {
                cache.put(path, size, zones.clone());
            }
            zones
        }
    };
    Ok(Visible::through(&gate, zones))
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
    let nothing = || TailOutcome::Rows(Visible::through(&gate, Arc::default()));
    if gate.is_shut() {
        return Ok(nothing());
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
        return Ok(nothing());
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

    // ---- Phase 3: zones. The gate's pick of an indexed file's relevant
    // blocks, each decoded once; with them the committed streamlet-relative
    // row end recovered (before flush/mask gating). ----
    let zones_of = |ix: &FragmentIndex, bytes: &[u8]| {
        let blocks = relevant(ix, &gate);
        let ends = blocks.iter().map(|b| b.first_row + b.row_count);
        let at = blocks.iter().map(|b| (b.first_row, b));
        let zones = wos_zones((ix, bytes), key, at, (tail.stream, tail.first_stream_row))?;
        Ok((ends.fold(tail.from_row, u64::max), zones))
    };
    let mut zones = Vec::new();
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
        let (file, limit) = (path(ordinal), entry.map(|e| e.committed_size));
        let (end_row, of_file) = with_replica(tail.clusters, &file, fleet, |cluster| {
            let bytes = cluster.read_all(&file)?.data;
            zones_of(&index_fragment(&bytes, limit)?, &bytes)
        })?;
        zones.extend(of_file);
        recovered_end = recovered_end.max(end_row);
    }
    // A copy that frames but does not decode cannot be decided locally
    // either.
    let Ok((end_row, of_latest)) = zones_of(&indexes[0], &copies[0]) else {
        return Ok(TailOutcome::NeedsReconcile);
    };
    zones.extend(of_latest);
    let recovered_end = recovered_end.max(end_row);
    if recovered_end < tail.expected_rows {
        return Err(VortexError::NotFound(format!(
            "snapshot too old: streamlet {} tail recovered rows to {} but the SMS \
             committed floor at the snapshot was {}",
            tail.streamlet, recovered_end, tail.expected_rows
        )));
    }
    // lint:allow(L010, once per tail read)
    Ok(TailOutcome::Rows(Visible::through(&gate, Arc::new(zones))))
}
