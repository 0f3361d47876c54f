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

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use vortex_colossus::{Colossus, StorageFleet};
use vortex_common::bloom::BloomFilter;
use vortex_common::crypt::Key;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{ClusterId, StreamId, TableId};
use vortex_common::mask::DeletionMask;
use vortex_common::stats::ColumnStats;
use vortex_common::truetime::Timestamp;
#[cfg(test)]
use vortex_common::{row::Row, schema::Schema};
use vortex_ros::{
    add_rowset, zone_map, Chunk, ColumnBuilder, ColumnVec, Fetched, ReadAt, RosBlock, RowMeta,
    ZONE_ROWS,
};
use vortex_sms::api::SmsHandle;
use vortex_sms::meta::{FragmentKind, FragmentMeta, FragmentState};
use vortex_sms::readset::{FragmentReadSpec, TailReadSpec};
use vortex_wos::{index_fragment_from, BlockEntry, FragmentIndex};

use crate::cache::{LogFile, ReadCache};

/// Options for table reads.
#[derive(Debug, Clone, Default)]
pub struct ReadOptions {
    /// Optional query-aware cache of opened ROS blocks and of the
    /// certified extents of log files, listed or not (§9 future work).
    pub cache: Option<Arc<ReadCache>>,
    /// Best-effort monitoring mode (§9: "low latency is preferred over
    /// 100% data availability"): unreadable fragments and ambiguous tails
    /// are *skipped* instead of failed over / reconciled; the result is
    /// marked incomplete.
    pub best_effort: bool,
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

/// Reads a tail whose streamlet was reconciled *after* the read snapshot:
/// the reconciled fragment records (visible at the current metastore
/// time) bound what is committed; block timestamps still gate row
/// visibility at the old snapshot. The fragments are read through `cache`.
pub(crate) fn read_reconciled_tail(
    (sms, fleet, key, cache): (&SmsHandle, &StorageFleet, &Key, Option<&ReadCache>),
    (table, tail): (TableId, &TailReadSpec),
    (snapshot, list_at): (Timestamp, Timestamp),
) -> VortexResult<Vec<Visible>> {
    // List at the reconciliation timestamp, not a fresh `now`: the
    // fragment records written by the reconcile are MVCC-stable there,
    // while at `now` a fast optimizer+GC cycle may have already deleted
    // them — which would silently drop their rows from this snapshot. A
    // record that does not decode fails the read: leaving it out would
    // drop its rows just as silently.
    let mut out = Vec::new();
    let from_offset = tail.first_stream_row + tail.from_row;
    let listed = sms.try_list_fragments(table, list_at)?;
    for meta in listed.into_iter().filter(|f| {
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
            clustering: Arc::clone(&tail.clustering),
        };
        let mut read = read_fragment_cached(&spec, fleet, key, snapshot, cache)?;
        for ((zone, _), sel) in read.zones.iter().zip(&mut read.sel) {
            sel.to_mut()
                .retain(|&i| zone.metas[i].offset >= from_offset);
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

/// What the decode of a log file records of each of its zones, once per
/// row, so that a scan decides the zone as it decides a ROS block's
/// (§7.2): per column its zone map, the newest stamp of its rows, and a
/// bloom filter over the keys of its clustering columns' cells.
#[derive(Debug, Clone)]
pub(crate) struct ZoneStats {
    /// Per column the zone's rows have, [`zone_map`] of its vector.
    pub maps: Vec<ColumnStats>,
    /// The newest stamp of the zone's rows.
    pub newest: Timestamp,
    /// The clustering columns' keys; `None` for a table without any.
    pub bloom: Option<BloomFilter>,
}

/// The false-positive rate a decoded zone's bloom filter is sized for.
const ZONE_BLOOM_FALSE_POSITIVES: f64 = 0.05;

impl ZoneStats {
    /// `held` — the statistics of the first `from` rows of `zone`, or
    /// nothing when `from` is 0 — grown by the rows past them, whose
    /// clustering columns are `keys`.
    fn grown(held: Option<&ZoneStats>, zone: &Zone, (from, keys): (usize, &[usize])) -> Self {
        let n = zone.metas.len();
        let bloom =
            || BloomFilter::with_capacity(ZONE_ROWS * keys.len(), ZONE_BLOOM_FALSE_POSITIVES);
        let mut stats = held.cloned().unwrap_or_else(|| ZoneStats {
            // lint:allow(L010, once per zone decoded: a zone map per column)
            maps: Vec::with_capacity(zone.cols.len()),
            newest: Timestamp::default(),
            bloom: (!keys.is_empty()).then(bloom),
        });
        for (c, col) in zone.cols.iter().enumerate() {
            match stats.maps.get_mut(c) {
                Some(map) => map.merge(&zone_map(col, from..n)),
                // A column the held rows predate: they read NULL in it.
                // lint:allow(L010, once per zone decoded: a zone map per column)
                None => stats.maps.push(zone_map(col, 0..n)),
            }
        }
        let newest = zone.metas[from..].iter().map(|m| m.ts).max();
        stats.newest = stats.newest.max(newest.unwrap_or_default());
        if let Some(bloom) = stats.bloom.as_mut() {
            // lint:allow(L010, once per zone decoded: the key buffer its rows share)
            let mut key = Vec::new();
            for col in keys.iter().filter_map(|&c| zone.cols.get(c)) {
                for i in from..n {
                    key.clear();
                    col.key_into(i, &mut key);
                    // lint:allow(L010, sets bits of a filter sized once per zone)
                    bloom.insert(&key);
                }
            }
        }
        stats
    }

    /// The bytes the statistics take on the heap (a zone map counted at
    /// its inline size).
    pub(crate) fn heap_bytes(&self) -> usize {
        let bloom = self.bloom.as_ref().map_or(0, BloomFilter::heap_bytes);
        std::mem::size_of_val(&self.maps[..]) + bloom
    }
}

/// A decoded log-file zone and what its decode recorded of it.
pub(crate) type Stated = (Arc<Zone>, Arc<ZoneStats>);

/// Decoded zones — a fragment's whole extent, or a tail's committed
/// blocks — shared with the cache that holds them, with their statistics
/// and the rows of each that a read may see.
#[derive(Debug, Clone)]
pub struct Visible {
    zones: Vec<Stated>,
    /// Per zone, the admitted zone-relative rows, ascending.
    sel: Vec<Cow<'static, [usize]>>,
}

impl Visible {
    /// The rows of `zones` that `gate` admits.
    fn through(gate: &RowGate<'_>, zones: Vec<Stated>) -> Self {
        let admitted = |(zone, stats): &Stated| gate.select(zone, stats.newest);
        // lint:allow(L010, once per fragment or tail read: a selection per zone)
        let sel = zones.iter().map(admitted).collect();
        Visible { zones, sel }
    }

    /// Visible rows.
    pub fn len(&self) -> usize {
        self.sel.iter().map(|sel| sel.len()).sum()
    }

    /// Whether no row is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Each zone with its visible rows.
    pub fn iter(&self) -> impl Iterator<Item = (&Zone, &[usize])> {
        (self.zones.iter().map(|(zone, _)| &**zone)).zip(self.sel.iter().map(|sel| &**sel))
    }

    /// Each zone's statistics, in [`Visible::iter`]'s order.
    pub(crate) fn stats(&self) -> impl Iterator<Item = &ZoneStats> + '_ {
        self.zones.iter().map(|(_, stats)| &**stats)
    }
}

/// Decodes `blocks` of the indexed log file `bytes` — each with the
/// position of its first row — into zones: consecutive blocks accumulate
/// into one zone of up to [`ZONE_ROWS`] rows (a tail of 16-row appends is
/// a few zones, not hundreds), each block's verified plaintext walked
/// once, cell by cell, into the zone's column builders. The first zone
/// continues `open`, a copy of the rows an earlier decode left short of a
/// full zone. A row's provenance is arithmetic on its block's index entry
/// — in a streamlet of `stream` whose row 0 is the stream's row
/// `first_stream_row` — plus its change type.
fn wos_zones<'i>(
    open: Option<&Zone>,
    (ix, bytes): (&FragmentIndex, &[u8]),
    key: &Key,
    blocks: impl IntoIterator<Item = (u64, &'i BlockEntry)>,
    (stream, first_stream_row): (StreamId, u64),
) -> VortexResult<Vec<Zone>> {
    // Each zone as it grows: its first position, provenance and columns.
    // lint:allow(L010, once per log file decoded: an entry per zone)
    let mut zones: Vec<(u64, Vec<RowMeta>, Vec<ColumnBuilder>)> = Vec::new();
    if let Some(zone) = open {
        let reopened = zone.cols.iter().map(|col| {
            let mut builder = ColumnBuilder::default();
            builder.add_rows(col, 0..zone.metas.len());
            builder
        });
        // lint:allow(L010, once per tail extended: at most a zone of rows copied)
        zones.push((zone.first, zone.metas.clone(), reopened.collect()));
    }
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
        let rows = add_rowset(cols, held, &plain, |change_type, _| {
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
/// with replica failover and nothing remembered. The file is read whole,
/// which serves best the readers that go on to decode all of it (the
/// optimizer's passes); a scan opens a ROS block by its index instead.
/// Positions are a ROS block's row index, a log file's streamlet-relative
/// row.
pub fn read_zones(
    spec: &FragmentReadSpec,
    fleet: &StorageFleet,
    key: &Key,
) -> VortexResult<Vec<Zone>> {
    let meta = &spec.meta;
    with_replica(meta.clusters, &meta.path, fleet, |cluster| {
        if meta.kind == FragmentKind::Ros {
            let bytes = cluster.read_all(&meta.path)?.data;
            return block_zones(&RosBlock::from_bytes(&bytes, key, meta.fragment.raw())?);
        }
        // Its committed blocks, with no statistics: a pass reads it once.
        let bytes = read_past(cluster, &meta.path, 0)?;
        let ix = index_fragment_from(&bytes, None, Some(meta.committed_size))?;
        let at = ix.blocks.iter().map(|b| (b.first_row, b));
        let of = (spec.stream, spec.streamlet_first_stream_row);
        wos_zones(None, (&ix, &bytes), key, at, of)
    })
}

/// Every zone of a block whose every chunk is held, decoded whole.
fn block_zones(block: &RosBlock) -> VortexResult<Vec<Zone>> {
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
}

/// A ROS block opened for a read, with the reader of its file.
pub(crate) struct OpenBlock<'a> {
    /// The block — the cache's, shared, when it went through one.
    pub block: Arc<RosBlock>,
    read: Box<ReadAt<'a>>,
    cache: Option<(&'a ReadCache, &'a FragmentMeta)>,
    /// What this read has read of the file so far: nothing, on a hit.
    pub fetched: Fetched,
}

impl OpenBlock<'_> {
    /// Fetches the chunks `wanted` picks that no cell holds yet
    /// ([`RosBlock::fetch`]), and charges the cells filled to the cache.
    pub(crate) fn fetch(&mut self, wanted: impl Fn(Chunk, usize) -> bool) -> VortexResult<()> {
        let got = self.block.fetch(&mut *self.read, wanted)?;
        self.charge(got.kept);
        self.fetched += got;
        Ok(())
    }

    /// Charges `kept` bytes the block holds more — filled cells, or an
    /// FSST matcher [`RosBlock::retain_coded`] built — to the cache it
    /// came through, if any.
    pub(crate) fn charge(&self, kept: u64) {
        if let Some((cache, meta)) = self.cache.filter(|_| kept > 0) {
            cache.charge(&meta.path, meta.committed_size, kept);
        }
    }
}

/// Opens a ROS block: the one `cache` holds for the file, or the file's
/// by its index alone — two ranged reads, bounded by the recorded size —
/// then left in `cache`. The block comes with the reader that fetches the
/// chunks a scan turns out to need ([`OpenBlock::fetch`]). Every read runs
/// under the failover rule by itself: a replica whose read fails, or
/// whose bytes fail the block's CRC for them, hands over to the other.
pub(crate) fn open_ros_block<'a>(
    meta: &'a FragmentMeta,
    fleet: &'a StorageFleet,
    key: &Key,
    cache: Option<&'a ReadCache>,
) -> VortexResult<OpenBlock<'a>> {
    let read = move |offset: u64, len: usize, check: &dyn Fn(&[u8]) -> VortexResult<()>| {
        with_replica(meta.clusters, &meta.path, fleet, |cluster| {
            let data = cluster.read(&meta.path, offset, len)?.data;
            check(&data).map(|()| data)
        })
    };
    // lint:allow(L010, one small box per block opened, so that its reader has a type to name)
    let mut read: Box<ReadAt<'a>> = Box::new(read);
    let (path, size) = (&meta.path, meta.committed_size);
    let mut open = || RosBlock::open_index(size, key, meta.fragment.raw(), &mut *read);
    let (block, fetched) = match cache {
        Some(cache) => cache.block(path, size, open)?,
        // lint:allow(L010, once per block opened from its file, so that its reads can share it)
        None => open().map(|(block, index)| (Arc::new(block), index))?,
    };
    Ok(OpenBlock {
        block,
        read,
        cache: cache.map(|cache| (cache, meta)),
        fetched,
    })
}

/// The on-file bloom filter of a finalized WOS fragment, by two ranged
/// reads with replica failover and without touching row data (§5.4.4);
/// `None` for a file closed without a footer.
pub(crate) fn read_fragment_bloom(
    meta: &FragmentMeta,
    fleet: &StorageFleet,
) -> VortexResult<Option<BloomFilter>> {
    with_replica(meta.clusters, &meta.path, fleet, |cluster| {
        vortex_wos::read_bloom(meta.committed_size, |offset, len| {
            Ok(cluster.read(&meta.path, offset, len)?.data)
        })
    })
}

/// The position of row 0 of `spec`'s deletion masks: a WOS fragment's
/// rows sit at streamlet-relative positions, a ROS block's at its row
/// index.
pub(crate) fn origin(spec: &FragmentReadSpec) -> u64 {
    match spec.meta.kind {
        FragmentKind::Wos => spec.meta.first_row,
        FragmentKind::Ros => 0,
    }
}

/// The one row-visibility rule (§7.1, §7.3): which rows of a fragment or
/// a streamlet tail a read at `snapshot` may see. Rows are named by their
/// position — a ROS block's row index, a log file's streamlet-relative
/// row — and a deletion mask addresses the row at `pos − origin`.
pub struct RowGate<'a> {
    snapshot: Timestamp,
    /// PENDING streams: nothing is visible before the batch commit.
    visible_from: Timestamp,
    /// WOS rows are in write order, so the first one stamped after the
    /// snapshot ends the read; a ROS block's rows all predate the block.
    write_ordered: bool,
    /// The position of a mask's row 0: a WOS fragment's `first_row`
    /// (its masks are fragment-relative), else 0.
    origin: u64,
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
        let origin = origin(spec);
        RowGate {
            snapshot,
            visible_from: spec.visibility.visible_from,
            write_ordered: spec.meta.kind == FragmentKind::Wos,
            origin,
            extent: origin..origin + spec.meta.row_count,
            flush_limit: spec.visibility.flush_limit,
            mask: &spec.mask,
        }
    }

    /// The rule for a streamlet tail.
    pub(crate) fn for_tail(tail: &'a TailReadSpec, snapshot: Timestamp) -> Self {
        RowGate {
            snapshot,
            visible_from: tail.visibility.visible_from,
            write_ordered: true,
            origin: 0,
            extent: tail.from_row..u64::MAX,
            flush_limit: tail.visibility.flush_limit,
            mask: &tail.mask,
        }
    }

    /// Whether no row at all is visible (the stream was not yet committed
    /// at the snapshot): the caller can skip the fetch.
    pub(crate) fn is_shut(&self) -> bool {
        self.visible_from > self.snapshot
    }

    /// Whether a row stamped `ts` ends the read (§7.1: "If a reader
    /// encounters an append timestamp greater than the read snapshot
    /// timestamp, it can stop reading").
    pub(crate) fn stops_at(&self, ts: Timestamp) -> bool {
        self.write_ordered && ts > self.snapshot
    }

    /// Whether the row at `pos` is visible.
    pub(crate) fn admits(&self, pos: u64) -> bool {
        !self.is_shut()
            && self.extent.contains(&pos)
            && self.flush_limit.map_or(true, |limit| pos < limit)
            && !self.mask.contains(pos - self.origin)
    }

    /// Whether every row of `range` is visible: [`RowGate::admits`] of
    /// each, decided once for the range.
    pub(crate) fn admits_all(&self, range: Range<u64>) -> bool {
        let (masks, origin) = (self.mask.ranges(), self.origin);
        let after = masks.partition_point(|&(_, end)| end + origin <= range.start);
        range.is_empty()
            || (!self.is_shut()
                && self.extent.start <= range.start
                && range.end <= self.extent.end
                && (self.flush_limit).map_or(true, |limit| range.end - 1 < limit)
                && masks
                    .get(after)
                    .map_or(true, |&(start, _)| start + origin >= range.end))
    }

    /// The visible rows of a decoded zone, zone-relative and ascending,
    /// and the newest stamp of its rows: every row, untested one by one,
    /// when none is stamped after the read ([`RowGate::stops_at`]) and
    /// [`RowGate::admits_all`] holds.
    pub fn admitted(&self, zone: &Zone) -> (Vec<usize>, Timestamp) {
        let newest = zone.metas.iter().map(|m| m.ts).max().unwrap_or_default();
        (self.select(zone, newest).into_owned(), newest)
    }

    /// [`RowGate::admitted`] of a zone whose newest stamp is `newest`; a
    /// zone admitted whole shares [`EVERY_ROW`] unless it is past full.
    fn select(&self, zone: &Zone, newest: Timestamp) -> Cow<'static, [usize]> {
        let n = zone.metas.len();
        if !self.stops_at(newest) && self.admits_all(zone.first..zone.first + n as u64) {
            let every = EVERY_ROW.get(..n).map(Cow::Borrowed);
            // lint:allow(L010, once per zone past full admitted whole: its selection)
            return every.unwrap_or_else(|| (0..n).collect());
        }
        let visible =
            |&i: &usize| !self.stops_at(zone.metas[i].ts) && self.admits(zone.first + i as u64);
        Cow::Owned((0..n).filter(visible).collect())
    }
}

/// `0..ZONE_ROWS`: the selection of every row of a zone, shared.
static EVERY_ROW: [usize; ZONE_ROWS] = {
    let (mut rows, mut i) = ([0; ZONE_ROWS], 0);
    while i < ZONE_ROWS {
        rows[i] = i;
        i += 1;
    }
    rows
};

/// Reads a listed WOS fragment — its log file's entry in the read cache
/// (§9) if one is given, shared, and extended to the catalogued size if
/// need be — with replica failover, and marks the rows visible at
/// `snapshot`. A ROS block is opened by its index ([`open_ros_block`]) or
/// read whole ([`read_zones`]).
pub fn read_fragment_cached(
    spec: &FragmentReadSpec,
    fleet: &StorageFleet,
    key: &Key,
    snapshot: Timestamp,
    cache: Option<&ReadCache>,
) -> VortexResult<Visible> {
    let gate = RowGate::for_fragment(spec, snapshot);
    if gate.is_shut() {
        return Ok(Visible::through(&gate, Vec::new()));
    }
    let zones = read_log_fragment(spec, fleet, key, cache)?.zones.clone();
    Ok(Visible::through(&gate, zones))
}

/// What is certified of a listed WOS fragment's log file through its
/// catalogued `committed_size`: the entry `cache` holds if it certifies
/// that far, or else that entry (or nothing) extended to that size from
/// one replica, sealed and left in `cache`. A sealed entry may still be
/// short of it: reconciliation appends its sentinel to every file.
fn read_log_fragment(
    spec: &FragmentReadSpec,
    fleet: &StorageFleet,
    key: &Key,
    cache: Option<&ReadCache>,
) -> VortexResult<Arc<LogFile>> {
    let (meta, size) = (&spec.meta, spec.meta.committed_size);
    let held = cache.and_then(|cache| cache.log_file(&meta.path, |_| true));
    if let Some(held) = held.as_ref().filter(|f| f.len >= size) {
        return Ok(Arc::clone(held));
    }
    let epoch = held.as_ref().map_or(0, |f| f.epoch);
    let of = (spec.stream, spec.streamlet_first_stream_row, epoch);
    let to = (of, (key, &*spec.clustering), cache);
    let file = (meta.path.as_str(), meta.clusters, Some(size));
    seal_log_file(file, fleet, held.as_deref(), to)
}

/// The bytes `cluster` holds of `path` past byte `at`.
fn read_past(cluster: &Colossus, path: &str, at: u64) -> VortexResult<Vec<u8>> {
    let len = cluster.len(path)?.saturating_sub(at);
    Ok(cluster.read(path, at, len as usize)?.data)
}

/// §7.1's commit rule over what each readable copy of the latest log file
/// holds past its certified byte: how many of the new blocks are
/// committed. One copy: those a record follows. More: those every copy
/// holds as the same record in the same place — the server acknowledged
/// only after both writes, and past where the replicas agree nothing can
/// be decided locally.
fn committed_blocks(copies: &[FragmentIndex]) -> usize {
    let Some((first, others)) = copies.split_first() else {
        return 0;
    };
    let agreed = |(i, b): &(usize, &BlockEntry)| match others {
        [] => b.committed,
        _ => (others.iter()).all(|o| o.blocks.get(*i).is_some_and(|x| x.same_record(b))),
    };
    first.blocks.iter().enumerate().take_while(agreed).count()
}

/// The one decoder of log-file blocks: what is `held` of the log file at
/// `path`, extended by `blocks` — committed, and indexed by `ix` out of
/// `bytes`, the `read` bytes fetched of the file past the held extent — in
/// a streamlet of `stream` at `epoch` whose row 0 is the stream's row
/// `first_stream_row`, and left in the cache. `sealed` says the extent
/// is final: a successor file exists, or the catalog recorded its size.
fn extend_log_file(
    (path, held): (&str, Option<&LogFile>),
    (ix, bytes, read): (&FragmentIndex, &[u8], u64),
    (blocks, sealed): (&[BlockEntry], bool),
    ((stream, first_stream_row, epoch), (key, clustering), cache): Extend<'_>,
) -> VortexResult<Arc<LogFile>> {
    // lint:allow(L010, once per log file extended: a pointer per zone held)
    let mut zones = held.map_or_else(Vec::new, |f| f.zones.clone());
    if !blocks.is_empty() {
        // The open last zone is topped up, not left short by every poll;
        // a full one stays as it is.
        let open = match zones.last() {
            Some((zone, _)) if zone.metas.len() < ZONE_ROWS => zones.pop(),
            _ => None,
        };
        let at = blocks.iter().map(|b| (b.first_row, b));
        let reopened = open.as_ref().map(|(zone, _)| &**zone);
        let new = wos_zones(reopened, (ix, bytes), key, at, (stream, first_stream_row))?;
        // The first new zone is the reopened one: its statistics keep what
        // they held and grow by its new rows alone.
        let mut open = open.map(|(zone, stats)| (zone.metas.len(), stats));
        for zone in new {
            let (from, held) = open.take().map_or((0, None), |(n, stats)| (n, Some(stats)));
            let stats = ZoneStats::grown(held.as_deref(), &zone, (from, clustering));
            // lint:allow(L010, once per log file extended: two `Arc`s per new zone, so that reads share them)
            zones.push((Arc::new(zone), Arc::new(stats)));
        }
    }
    let len = match blocks.last() {
        _ if sealed => ix.valid_len,
        Some(last) => last.end(),
        None => held.map_or(ix.header_len, |f| f.len),
    };
    // lint:allow(L010, once per log file extended, so that the cache and this read share it)
    let file = Arc::new(LogFile {
        len,
        header: ix.header.clone(),
        zones,
        epoch,
        sealed,
    });
    if let Some(cache) = cache {
        cache.put_log(path, &file, held, read);
    }
    Ok(file)
}

/// Where [`extend_log_file`] decodes a log file's rows to: its streamlet's
/// stream, the stream row of the streamlet's row 0 and the epoch read at;
/// then the key and the clustering columns its zones' blooms hold, and the
/// cache the entry is left in.
type Extend<'a> = (
    (StreamId, u64, u64),
    (&'a Key, &'a [usize]),
    Option<&'a ReadCache>,
);

/// Extends what is `held` of the log file at `path` to its final extent
/// — through `limit`, the size the catalog or a File Map records, else
/// every block it frames — from one replica, and seals it.
fn seal_log_file(
    (path, clusters, limit): (&str, [ClusterId; 2], Option<u64>),
    fleet: &StorageFleet,
    held: Option<&LogFile>,
    to: Extend<'_>,
) -> VortexResult<Arc<LogFile>> {
    with_replica(clusters, path, fleet, |cluster| {
        let bytes = read_past(cluster, path, held.map_or(0, |f| f.len))?;
        let ix = index_fragment_from(&bytes, held.map(|f| (f.len, f.header.clone())), limit)?;
        let read = bytes.len() as u64;
        extend_log_file((path, held), (&ix, &bytes, read), (&ix.blocks, true), to)
    })
}

/// Reads an unfinalized streamlet tail with nothing remembered: a cold
/// [`read_tail_cached`].
pub fn read_tail(
    tail: &TailReadSpec,
    fleet: &StorageFleet,
    key: &Key,
    snapshot: Timestamp,
) -> VortexResult<TailOutcome> {
    read_tail_cached(tail, fleet, key, snapshot, None)
}

/// Reads an unfinalized streamlet tail by probing log files past the last
/// fragment the SMS knows about, extending what `cache` holds of each —
/// its [`LogFile`], sealed or of the tail's epoch, certified from byte 0
/// when there is none — by what was appended since.
///
/// §7.1 in full: fragments with a *successor* log file are bounded by
/// that successor's File Map ("the committed final file size of each of
/// the previous Fragments ... serves as a replica of the information that
/// would otherwise be available from the Stream Server") — no replica
/// comparison needed, even if one replica carries a torn block, so one
/// replica is read, once: the extent is final. Only the *latest* fragment
/// needs the commit rules ([`committed_blocks`]), over every reachable
/// copy's bytes past the certified extent; a block they leave undecided
/// stays out of the entry, and if the snapshot would see it the client
/// asks the SMS to reconcile. Snapshot gating comes after: one entry
/// serves every snapshot, an older one a prefix.
// lint:hotpath(scan) — freshness leg: sub-second tail visibility (§4.2.2/§7.1)
pub fn read_tail_cached(
    tail: &TailReadSpec,
    fleet: &StorageFleet,
    key: &Key,
    snapshot: Timestamp,
    cache: Option<&ReadCache>,
) -> VortexResult<TailOutcome> {
    let gate = RowGate::for_tail(tail, snapshot);
    let nothing = || TailOutcome::Rows(Visible::through(&gate, Vec::new()));
    if gate.is_shut() {
        return Ok(nothing());
    }
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
    // lint:allow(L010, once per log file of a tail read: its path)
    let path = |ordinal: u32| format!("{}f{:08x}", tail.path_prefix, ordinal);

    // ---- Phase 1: probe log files until one is missing; each comes with
    // what is held of it that serves this epoch. ----
    // lint:allow(L010, once per tail read: an entry per log file)
    let mut files: Vec<(String, Option<Arc<LogFile>>)> = Vec::new();
    let usable = |f: &LogFile| f.sealed || f.epoch == tail.epoch;
    loop {
        let file = path(tail.from_ordinal + files.len() as u32);
        if !replicas.iter().any(|c| c.exists(&file)) {
            break;
        }
        let held = cache.and_then(|cache| cache.log_file(&file, usable));
        // lint:allow(L010, once per tail read: an entry per log file)
        files.push((file, held));
    }
    let Some((latest_path, held)) = files.pop() else {
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
    };
    let resume = |held: &Option<Arc<LogFile>>| held.as_ref().map(|f| (f.len, f.header.clone()));
    let of = (tail.stream, tail.first_stream_row, tail.epoch);
    let to = (of, (key, &*tail.clustering), cache);

    // ---- Phase 2: the latest file — every reachable copy read past the
    // certified extent, and the commit rule over what is new. A replica
    // whose read fails counts as unreachable. A copy that does not even
    // index a header is a reconciler's poison-only fence: the streamlet
    // was reconciled, so ask the SMS (idempotent) and re-read through the
    // authoritative fragment records. ----
    let at = held.as_ref().map_or(0, |f| f.len);
    let mut unread = VortexError::Unavailable(format!("no readable copy of {latest_path}"));
    let mut copies: Vec<Vec<u8>> = Vec::new();
    for c in replicas.iter().filter(|c| c.exists(&latest_path)) {
        match read_past(c, &latest_path, at) {
            // lint:allow(L010, once per tail read: an entry per replica)
            Ok(bytes) => copies.push(bytes),
            Err(e) => unread = e,
        }
    }
    if copies.is_empty() {
        return Err(unread);
    }
    let indexes: VortexResult<Vec<FragmentIndex>> = (copies.iter())
        .map(|c| index_fragment_from(c, resume(&held), None))
        .collect();
    let Ok(indexes) = indexes else {
        return Ok(TailOutcome::NeedsReconcile);
    };
    let blocks = &indexes[0].blocks[..committed_blocks(&indexes)];
    // Divergence from in-flight appends past the snapshot is a writer at
    // work, not a failure ("if a reader encounters an append timestamp
    // greater than the read snapshot timestamp, it can stop reading").
    let undecided = |ix: &FragmentIndex| {
        let past = ix.blocks.get(blocks.len()..).unwrap_or_default();
        past.iter().any(|b| !gate.stops_at(b.timestamp))
    };
    if indexes.iter().any(undecided) {
        return Ok(TailOutcome::NeedsReconcile);
    }
    // A copy that frames but does not decode cannot be decided locally
    // either.
    let read = copies.iter().map(|c| c.len() as u64).sum();
    let Ok(latest) = extend_log_file(
        (&latest_path, held.as_deref()),
        (&indexes[0], &copies[0], read),
        (blocks, false),
        to,
    ) else {
        return Ok(TailOutcome::NeedsReconcile);
    };

    // ---- Phase 3: the predecessors. A successor file exists, so one
    // replica serves and the extent is final. Prefer the File Map bound
    // (headers are written before any divergence can occur, so any copy's
    // serves); if the map lacks this ordinal (successor written by a later
    // incarnation after GC), fall back to a lenient walk — the mere
    // existence of the successor certifies every parseable block here
    // (the server opened the next file only after settling this one). ----
    // lint:allow(L010, once per tail read: a pointer per zone)
    let mut zones: Vec<Stated> = Vec::new();
    for (ordinal, (file, held)) in (tail.from_ordinal..).zip(files) {
        let sealed = match held {
            Some(sealed) if sealed.sealed => sealed,
            held => {
                let entry = (latest.header.file_map.iter()).find(|e| e.ordinal == ordinal);
                let limit = entry.map(|e| e.committed_size);
                let file = (file.as_str(), tail.clusters, limit);
                seal_log_file(file, fleet, held.as_deref(), to)?
            }
        };
        // lint:allow(L010, once per tail read: a pointer per zone)
        zones.extend(sealed.zones.iter().cloned());
    }
    // lint:allow(L010, once per tail read: a pointer per zone)
    zones.extend(latest.zones.iter().cloned());

    // The committed streamlet-relative row end at the snapshot (before
    // flush / mask gating): rows are in write order.
    let end_row = |(zone, _): &Stated| {
        let seen = zone.metas.partition_point(|m| !gate.stops_at(m.ts));
        (seen > 0).then(|| zone.first + seen as u64)
    };
    let recovered_end = zones.iter().rev().find_map(end_row).unwrap_or(0);
    if recovered_end.max(tail.from_row) < tail.expected_rows {
        return Err(VortexError::NotFound(format!(
            "snapshot too old: streamlet {} tail recovered rows to {} but the SMS \
             committed floor at the snapshot was {}",
            tail.streamlet, recovered_end, tail.expected_rows
        )));
    }
    Ok(TailOutcome::Rows(Visible::through(&gate, zones)))
}

/// The decode-everything table read, kept as the reference the scan is
/// tested against: list the read set at `snapshot`, read every fragment
/// whole ([`read_zones`]) and every tail cold, gate each row, gather every
/// visible row at the snapshot schema's arity, and sort by `(stream,
/// offset, ts)`. An ambiguous tail is an error: it reconciles nothing.
#[cfg(test)]
pub(crate) fn decode_everything(
    sms: &SmsHandle,
    fleet: &StorageFleet,
    table: TableId,
    snapshot: Timestamp,
) -> VortexResult<(Schema, Vec<(RowMeta, Row)>)> {
    let rs = sms.list_read_fragments(table, snapshot)?;
    let key = rs.table.encryption_key();
    let (arity, mut rows) = (rs.table.schema.fields.len(), Vec::new());
    let gather = |(zone, sel): (&Zone, &[usize]), out: &mut Vec<(RowMeta, Row)>| {
        let cols: Vec<_> = (0..arity).map(|c| Some((zone.cols.get(c)?, sel))).collect();
        vortex_ros::gather_rows((&zone.metas, sel), &cols, out);
    };
    for spec in &rs.fragments {
        let gate = RowGate::for_fragment(spec, snapshot);
        for zone in read_zones(spec, fleet, &key)? {
            gather((&zone, &gate.admitted(&zone).0), &mut rows);
        }
    }
    for tail in &rs.tails {
        match read_tail(tail, fleet, &key, snapshot)? {
            TailOutcome::Rows(zones) => zones.iter().for_each(|z| gather(z, &mut rows)),
            TailOutcome::NeedsReconcile => {
                let slid = tail.streamlet;
                return Err(VortexError::Unavailable(format!(
                    "tail {slid} is ambiguous"
                )));
            }
        }
    }
    rows.sort_unstable_by_key(|(m, _)| (m.stream, m.offset, m.ts));
    Ok((rs.table.schema.clone(), rows))
}
