//! ROS blocks: columnar, stats-annotated, bloom-filtered units of
//! read-optimized storage produced by the Storage Optimization Service.
//!
//! # File layout (version 4)
//!
//! ```text
//! body     one chunk per (column, zone), column-major: the user columns,
//!          then the four provenance columns change_type, ts, stream,
//!          offset — ordinary integer columns through the same chooser
//! index    schema version, rows, zone size, user columns; per chunk, in
//!          body order: encoding, flags, length, CRC32C, zone map and, of
//!          a user column's zone of `Int64` cells, their sum (zigzagged,
//!          low then high 64 bits) and NULL count — of one of finite
//!          `Float64` cells, their exact sum as such a mantissa, its
//!          binary exponent and the NULL count; the block's column
//!          properties; the bloom filter
//! trailer  index length, index CRC32C, version, magic | trailer CRC32C
//! ```
//!
//! Every byte but the trailer's own CRC is ChaCha20 ciphertext under the
//! block's nonce, each at the keystream position of its file offset, so
//! any range decrypts alone. Every byte is under exactly one CRC, taken
//! over ciphertext: the trailer's covers its fields, which hold the
//! index's, which holds each chunk's. A chunk's offset is the sum of the
//! lengths before it, so chunks tile the body by construction.
//!
//! A reader needs the trailer and the index (two reads whose lengths the
//! file's size bounds), then only the chunks its query decodes:
//! [`RosBlock::open_index`] parses the first two, [`RosBlock::fetch`] reads
//! runs of adjacent wanted chunks into write-once cells — verified,
//! decrypted and expanded, so the block can be shared and every later
//! reader decodes straight from them. [`RosBlock::from_bytes`] is the same
//! two calls over a buffer that holds the whole file.

use std::hash::Hash;
use std::ops::Range;
use std::sync::OnceLock;

use vortex_common::bloom::BloomFilter;
use vortex_common::codec::{
    get_ivarint, get_len, get_str, get_uvarint, put_bytes, put_ivarint, put_str, put_uvarint, take,
    take_array,
};
use vortex_common::compress::{compress, decompress};
use vortex_common::crc::crc32c;
use vortex_common::crypt::{apply_keystream_at, Key, Nonce};
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::obs::{Counter, Lazy, Registry};
use vortex_common::row::{Row, Value};
use vortex_common::schema::{ChangeType, Schema};
use vortex_common::stats::ColumnStats;
use vortex_common::truetime::Timestamp;

use crate::column::{ColumnBuilder, ColumnVec, IntKind, KeyedRows, Prim};
use crate::encoding::{
    decode_chunk_at, dictionary, encode_profiled, fold_chunk, holds_one_key, le_uint, profile,
    retain_coded, BlockTable, Encoding, SharedTable, Sink,
};

static ROW_METAS_BUILT: Lazy<Counter> = Lazy::new("ros.row_metas_built", Registry::counter);

const MAGIC: u32 = 0x534F5256; // "VROS"
const VERSION: u16 = 4;

/// Rows per column chunk (zone). Each column is encoded per zone with its
/// own encoding choice and min/max zone map, so scans can short-circuit
/// inside a block, not just at fragment granularity.
pub const ZONE_ROWS: usize = 1024;

/// Chunk flag: the encoded bytes are additionally vsnap-compressed.
const CHUNK_COMPRESSED: u8 = 0b1;
/// Chunk flag: the entry ends in the zone's sum and NULL count.
const CHUNK_SUMMED: u8 = 0b10;
/// Chunk flag: the entry ends in the zone's float sum — mantissa, then
/// binary exponent — and NULL count.
const CHUNK_FLOAT_SUMMED: u8 = 0b100;

/// The provenance columns, in the order they follow the user columns.
const PROVENANCE: usize = 4;
const CHANGE_TYPE: usize = 0;
const TS: usize = 1;
const STREAM: usize = 2;
const OFFSET: usize = 3;

/// Encrypted trailer fields: index length, index CRC, version, magic.
const TRAILER_FIELDS: usize = 4 + 4 + 2 + 4;
/// The fields, then the CRC of their ciphertext.
const TRAILER_LEN: usize = TRAILER_FIELDS + 4;

/// How a block gets at its file: `len` bytes at `offset` that pass
/// `check`. A reader with more than one copy of the file tries the next
/// when a read, or the check of what it returned, fails.
pub type ReadAt<'r> =
    dyn FnMut(u64, usize, &dyn Fn(&[u8]) -> VortexResult<()>) -> VortexResult<Vec<u8>> + 'r;

/// What one open or [`RosBlock::fetch`] read of a block's file and kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fetched {
    /// Ranged reads made.
    pub reads: u64,
    /// Bytes they returned.
    pub bytes: u64,
    /// Bytes the block now holds that it did not: the index an open
    /// parsed, the cells a fetch filled.
    pub kept: u64,
}

impl std::ops::AddAssign for Fetched {
    fn add_assign(&mut self, other: Fetched) {
        self.reads += other.reads;
        self.bytes += other.bytes;
        self.kept += other.kept;
    }
}

/// What one chunk of a block holds — how [`RosBlock::fetch`] names a
/// chunk to the reader that picks which to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chunk {
    /// A zone of this user column.
    Column(usize),
    /// A zone of the rows' commit timestamps.
    Timestamps,
    /// A zone of the rows' change types, source streams or offsets.
    Provenance,
}

/// One encoded column zone, as the index lists it.
#[derive(Debug, Clone)]
struct ChunkEntry {
    enc: Encoding,
    compressed: bool,
    stats: ColumnStats,
    /// Of a user column's zone of `Int64` cells: their exact sum and how
    /// many rows are NULL.
    sum: Option<(i128, usize)>,
    /// Of one of finite `Float64` cells: their exact sum as
    /// `mantissa·2^exp2` ([`vortex_common::exact::ExactSum::to_scaled`]), if one `i128` holds
    /// it, and how many rows are NULL.
    float_sum: Option<((i128, i32), usize)>,
    /// Where the chunk lies in the file.
    offset: usize,
    len: usize,
    /// CRC32C of the stored bytes; unset in a block not yet sealed.
    crc: u32,
}

/// Provenance of one row inside a ROS block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowMeta {
    /// `_CHANGE_TYPE` of the ingested row (§4.2.6).
    pub change_type: ChangeType,
    /// Server-assigned TrueTime timestamp of the originating WOS write.
    pub ts: Timestamp,
    /// Raw id of the source stream.
    pub stream: u64,
    /// Row offset within the source stream.
    pub offset: u64,
}

impl RowMeta {
    /// Total order for merge-on-read UPSERT/DELETE resolution: later
    /// writes win; ties broken by source position.
    pub fn order_key(&self) -> (Timestamp, u64, u64) {
        (self.ts, self.stream, self.offset)
    }
}

/// One sort of [`clustered`]: the rows `order` holds by their keys, ties
/// by `tie`, then by row. Each row's `(key, tie, row)` is built once and
/// the triples sorted — a total order — by a merge sort, which takes
/// runs already in that order, such as a reclustered block, as they are.
struct ByKey<'a, T> {
    order: &'a mut Vec<u32>,
    tie: &'a dyn Fn(usize) -> T,
}

impl<T: Ord> KeyedRows for ByKey<'_, T> {
    type Out = ();

    fn fold_keys<K: Ord + Hash>(self, _: usize, key: impl Fn(usize) -> Option<K>) {
        let tie = |i: u32| (key(i as usize), (self.tie)(i as usize), i);
        // lint:allow(L010, the build's sort; a scan reaches it only by the name-resolved `fold_keys` of `dictionary`)
        let mut keyed: Vec<_> = self.order.iter().map(|&i| tie(i)).collect();
        keyed.sort();
        (self.order.iter_mut().zip(keyed)).for_each(|(at, (.., i))| *at = i);
    }
}

/// Sorts `order` by the cells of `col`, ties by `tie`, then by row.
fn sort_pass<T: Ord>(col: &ColumnVec, order: &mut Vec<u32>, tie: impl Fn(usize) -> T) {
    if col.with_keys(ByKey { order, tie: &tie }).is_none() {
        // A column without typed keys compares its cells.
        order.sort_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            let by_cell = col.cmp_rows(a, col, b);
            by_cell.then_with(|| tie(a).cmp(&tie(b))).then(a.cmp(&b))
        });
    }
}

/// The rows of `metas` in clustering order: by the cells of the columns
/// `keys` of `cols` (NULL first, `Value::total_cmp`), ties by provenance,
/// then by row — what a stable sort by a comparator of cells gives. One
/// sort per key column, the last first, each by that column's typed keys
/// and the order the sorts before it left.
fn clustered(keys: &[usize], cols: &[ColumnVec], metas: &[RowMeta]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..metas.len() as u32).collect();
    let mut rank = vec![0u32; order.len()];
    for (pass, &c) in keys.iter().rev().enumerate() {
        if pass == 0 {
            sort_pass(&cols[c], &mut order, |i| metas[i].order_key());
            continue;
        }
        (order.iter().zip(0..)).for_each(|(&i, at)| rank[i as usize] = at);
        sort_pass(&cols[c], &mut order, |i| rank[i]);
    }
    order
}

/// A vector and, per row wanted of it, that row's index there.
pub type Picked<'a, V> = (&'a V, &'a [usize]);

/// The one place cells become `Row`s — the late-materialization gather
/// every row-returning reader ends in: appends to `out` one row per index
/// of `metas`, its cells from the vectors of `cols` at their own indices,
/// each ascending and as many (`None`: the column reads NULL).
pub fn gather_rows(
    (metas, at): Picked<'_, [RowMeta]>,
    cols: &[Option<Picked<'_, ColumnVec>>],
    out: &mut Vec<(RowMeta, Row)>,
) {
    let base = out.len();
    // lint:allow(L010, where rows are born: the one allocation per row a read returns)
    out.extend(at.iter().map(|&i| {
        // lint:allow(L010, where rows are born: the one allocation per row a read returns)
        let nulls = vec![Value::Null; cols.len()];
        (metas[i], Row::with_change(nulls, metas[i].change_type))
    }));
    for (c, col) in cols.iter().enumerate() {
        if let Some((col, at)) = col {
            col.gather(at.iter().copied(), |k, v| out[base + k].1.values[c] = v);
        }
    }
}

/// Builds [`RosBlock`]s from rows plus provenance. Cells are kept as one
/// typed leaf vector per column from the moment they arrive; a build
/// orders a permutation of the rows, then summarizes and encodes those
/// vectors in its order, and never builds a row.
#[derive(Debug)]
pub struct RosBlockBuilder {
    shape: Shape,
    metas: Vec<RowMeta>,
    cols: Vec<ColumnBuilder>,
}

/// What a table's schema says about its blocks.
#[derive(Debug)]
struct Shape {
    schema_version: u32,
    clustering_idx: Vec<usize>,
    tracked: Vec<(usize, String)>,
    key_cols: Vec<usize>,
}

impl RosBlockBuilder {
    /// A builder for blocks of the given table schema.
    pub fn new(schema: &Schema) -> Self {
        let clustering_idx: Vec<usize> = schema
            .clustering
            .iter()
            .filter_map(|c| schema.column_index(c))
            .collect();
        let shape = Shape {
            schema_version: schema.version,
            clustering_idx,
            // Stats for every scalar top-level column: the catalog's
            // "fine grained column properties" (§6.2).
            tracked: schema.tracked_columns(),
            key_cols: schema.bloom_key_columns(),
        };
        Self {
            shape,
            metas: Vec::new(),
            cols: (schema.fields.iter().map(|_| ColumnBuilder::default())).collect(),
        }
    }

    fn check_arity(&self, got: usize) -> VortexResult<()> {
        if got == self.cols.len() {
            return Ok(());
        }
        Err(VortexError::InvalidArgument(format!(
            "row has {got} values, block schema has {}",
            self.cols.len()
        )))
    }

    /// Adds a row, moving each cell into its column. The row must match
    /// the schema arity.
    pub fn push(&mut self, meta: RowMeta, row: Row) -> VortexResult<()> {
        self.check_arity(row.values.len())?;
        self.metas.push(meta);
        for (col, v) in self.cols.iter_mut().zip(row.values) {
            col.add_value(v);
        }
        Ok(())
    }

    /// Adds the `rows` of a decoded zone — its provenance `metas`, one
    /// leaf vector per column in `cols` — in the order given, a column at
    /// a time, copying typed cells straight across.
    pub fn push_rows(
        &mut self,
        metas: &[RowMeta],
        cols: &[ColumnVec],
        rows: &[usize],
    ) -> VortexResult<()> {
        self.check_arity(cols.len())?;
        self.metas.extend(rows.iter().map(|&i| metas[i]));
        for (col, src) in self.cols.iter_mut().zip(cols) {
            col.add_rows(src, rows.iter().copied());
        }
        Ok(())
    }

    /// Rows added so far.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether no rows were added.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// The columns the rows were added to.
    fn columns(self) -> (Shape, Vec<ColumnVec>, Vec<RowMeta>) {
        let cols = self.cols.into_iter().map(ColumnBuilder::into_column);
        (self.shape, cols.collect(), self.metas)
    }

    /// Finishes the block. With `sort_by_clustering`, rows are ordered by
    /// the clustering key tuple (ties by provenance) — this is what the
    /// local range-partitioning step of automatic reclustering produces
    /// (§6.1). Only a permutation is sorted, on the key columns alone.
    pub fn build(self, sort_by_clustering: bool) -> VortexResult<RosBlock> {
        if self.is_empty() {
            return Err(VortexError::InvalidArgument(
                "cannot build an empty ROS block".into(),
            ));
        }
        let (shape, cols, metas) = self.columns();
        let order = match sort_by_clustering {
            true => clustered(&shape.clustering_idx, &cols, &metas),
            false => (0..metas.len() as u32).collect(),
        };
        Ok(shape.build(&cols, &metas, &order))
    }

    /// Builds the rows in clustering order as blocks of `block_rows` rows
    /// (the last takes what is left), one sort for all of them, and hands
    /// `put` each block as it is built: reclustering's global order split
    /// into non-overlapping blocks (§6.1).
    pub fn build_clustered(
        self,
        block_rows: usize,
        mut put: impl FnMut(RosBlock) -> VortexResult<()>,
    ) -> VortexResult<()> {
        let (shape, cols, metas) = self.columns();
        let order = clustered(&shape.clustering_idx, &cols, &metas);
        for rows in order.chunks(block_rows.max(1)) {
            put(shape.build(&cols, &metas, rows))?;
        }
        Ok(())
    }
}

impl Shape {
    /// The block of the rows `order` of `cols` and `metas`, in that order.
    fn build(&self, cols: &[ColumnVec], metas: &[RowMeta], order: &[u32]) -> RosBlock {
        let n = order.len();
        // Provenance is four more columns, of integers, in block order.
        let ints = |kind, of: &dyn Fn(&RowMeta) -> u64| {
            let values = order
                .iter()
                .map(|&i| of(&metas[i as usize]) as i64)
                .collect();
            ColumnVec::I64(
                kind,
                Prim {
                    values,
                    nulls: None,
                },
            )
        };
        let provenance = [
            ints(IntKind::Int64, &|m| m.change_type.to_u8() as u64),
            ints(IntKind::Timestamp, &|m| m.ts.micros()),
            ints(IntKind::Int64, &|m| m.stream),
            ints(IntKind::Int64, &|m| m.offset),
        ];
        // Encode per zone: each zone's rows are gathered in block order
        // into a leaf vector of their own, which is profiled once for its
        // own encoding choice (cascading chooser), its zone map, its sum
        // and, of a key column, its runs for the bloom filter, and
        // gets — when it shrinks the chunk — vsnap compression on top.
        // Chunks tile the body; each cell keeps what its decoder reads.
        let zones = n.div_ceil(ZONE_ROWS);
        let ncols = cols.len();
        let mut body = Vec::new();
        let mut chunks = Vec::with_capacity((ncols + PROVENANCE) * zones);
        let mut cells = Vec::with_capacity(chunks.capacity());
        let mut key_runs: Vec<Runs> = vec![Vec::with_capacity(zones); self.key_cols.len()];
        for (c, col) in cols.iter().chain(&provenance).enumerate() {
            let by = (c < ncols).then_some(order);
            let shared = by.and_then(|order| BlockTable::of(col, order));
            for z in 0..zones {
                let range = z * ZONE_ROWS..((z + 1) * ZONE_ROWS).min(n);
                let mut zone = ColumnBuilder::default();
                match by {
                    Some(order) => zone.add_rows(col, order[range].iter().map(|&i| i as usize)),
                    None => zone.add_rows(col, range),
                }
                let zone = zone.into_column();
                let mut profile = profile(&zone);
                let (enc, bytes) = encode_profiled(&zone, &profile, shared.as_ref());
                let packed = compress(&bytes);
                let compressed = packed.len() < bytes.len();
                let stored = if compressed { &packed } else { &bytes };
                chunks.push(ChunkEntry {
                    enc,
                    compressed,
                    stats: summarize_zone((&zone, 0..zone.len()), profile.nulls, profile.ends),
                    sum: by.and(profile.sum.map(|sum| (sum, profile.nulls))),
                    float_sum: by.and(profile.float_sum.map(|sum| (sum, profile.nulls))),
                    offset: body.len(),
                    len: stored.len(),
                    crc: 0,
                });
                body.extend_from_slice(stored);
                cells.push(OnceLock::from(bytes));
                if let Some(k) = self.key_cols.iter().position(|&k| k == c) {
                    key_runs[k].push((std::mem::take(&mut profile.runs), profile.ascending));
                }
            }
        }
        let bloom = block_bloom(&self.key_cols, cols, order, &key_runs);
        // A block's column properties are its zones' merged: in a typed
        // column equal cells are identical, and among mixed cells that
        // compare equal both keep the first.
        let block_stats = |col: usize| {
            let mut stats = ColumnStats::new();
            let of_col = &chunks[col * zones..(col + 1) * zones];
            of_col.iter().for_each(|chunk| stats.merge(&chunk.stats));
            stats
        };
        let stats = (self.tracked.iter())
            .map(|(col, name)| (name.clone(), block_stats(*col)))
            .collect();
        RosBlock {
            schema_version: self.schema_version,
            row_count: n,
            zone_rows: ZONE_ROWS,
            ncols,
            stats,
            bloom,
            chunks,
            cells,
            tables: vec![OnceLock::new(); ncols],
            body: Some(body),
            seal: None,
        }
    }
}

/// Of one key column, per zone in block order: the rows its runs start
/// at, and whether its keys ascend ([`crate::encoding::Profile`]).
type Runs = Vec<(Vec<usize>, bool)>;

/// The bloom filter of a block whose rows are `order` of `cols`, from
/// the runs the zone pass found in each of the key columns `keys`. It
/// holds a set: each key column's distinct cells go in once, and their
/// number is what the filter is sized for.
fn block_bloom(keys: &[usize], cols: &[ColumnVec], order: &[u32], runs: &[Runs]) -> BloomFilter {
    let firsts = keys.iter().zip(runs).map(|(&k, runs)| {
        ascending_runs(&cols[k], order, runs).unwrap_or_else(|| {
            // Keys that do not ascend through the block are numbered.
            let mut leaf = ColumnBuilder::default();
            leaf.add_rows(&cols[k], order.iter().map(|&i| i as usize));
            dictionary(&leaf.into_column()).0
        })
    });
    let firsts: Vec<Vec<usize>> = firsts.collect();
    let distinct: usize = firsts.iter().map(Vec::len).sum();
    let mut bloom = BloomFilter::with_capacity(distinct.max(16), BLOOM_FALSE_POSITIVES);
    let mut key = Vec::new();
    for (&k, rows) in keys.iter().zip(&firsts) {
        for &i in rows {
            key.clear();
            cols[k].key_into(order[i] as usize, &mut key);
            bloom.insert(&key);
        }
    }
    bloom
}

/// The rows in block order at which the typed leaf `col`'s runs start —
/// its distinct cells' first rows, as [`dictionary`] numbers them — when
/// its keys ascend through the block: each zone's keys ascend, and so does
/// each zone's last up to the next zone's first, which starts no run when
/// the two are equal. `None` otherwise.
fn ascending_runs(col: &ColumnVec, order: &[u32], runs: &Runs) -> Option<Vec<usize>> {
    // lint:allow(L010, once per key column of a block built)
    let mut starts = Vec::new();
    for (z, (runs, ascending)) in runs.iter().enumerate() {
        let at = z * ZONE_ROWS;
        let step = (z > 0).then(|| col.cmp_rows(order[at - 1] as usize, col, order[at] as usize));
        if !col.is_typed_leaf() || !ascending || step == Some(std::cmp::Ordering::Greater) {
            return None;
        }
        let continued = step == Some(std::cmp::Ordering::Equal);
        starts.extend(runs.iter().skip(continued as usize).map(|&r| at + r));
    }
    Some(starts)
}

/// The false-positive rate a block's bloom filter is sized for.
const BLOOM_FALSE_POSITIVES: f64 = 0.01;

/// The zone map of the rows `rows` of one leaf vector, from their NULL
/// count and ends: what [`ColumnStats::observe`] makes of those cells in
/// order.
fn summarize_zone(
    (zone, rows): (&ColumnVec, Range<usize>),
    nulls: usize,
    ends: Option<(usize, usize)>,
) -> ColumnStats {
    let mut stats = ColumnStats::new();
    match zone {
        ColumnVec::Any(cells) => cells[rows].iter().for_each(|v| stats.observe(v)),
        typed => {
            stats.count = rows.len() as u64;
            stats.has_null = nulls > 0;
            stats.min = ends.map(|(lo, _)| typed.value(lo));
            stats.max = ends.map(|(_, hi)| typed.value(hi));
        }
    }
    stats
}

/// [`summarize_zone`] of the rows `rows` of a leaf vector that is not
/// being encoded: their ends found by the typed keys of its profile. Of
/// two runs of rows, the zone map of both is the first's merged with the
/// second's ([`ColumnStats::merge`]).
pub fn zone_map(zone: &ColumnVec, rows: Range<usize>) -> ColumnStats {
    // An `Any` leaf has no typed keys: its cells are observed instead.
    // lint:allow(L010, a range is copied, nothing allocated)
    let (nulls, ends) = zone.with_keys(Ends(rows.clone())).unwrap_or_default();
    summarize_zone((zone, rows), nulls, ends)
}

/// A pass that finds, among the rows `.0`, how many are NULL and the first
/// rows of the least and the greatest keys.
struct Ends(Range<usize>);

impl KeyedRows for Ends {
    type Out = (usize, Option<(usize, usize)>);

    fn fold_keys<K: Ord + Hash>(self, _: usize, key: impl Fn(usize) -> Option<K>) -> Self::Out {
        let (mut nulls, mut ends) = (0, None);
        for i in self.0 {
            let Some(k) = key(i) else {
                nulls += 1;
                continue;
            };
            match &mut ends {
                None => ends = key(i).map(|again| ((i, k), (i, again))),
                Some((lo, _)) if k < lo.1 => *lo = (i, k),
                Some((_, hi)) if k > hi.1 => *hi = (i, k),
                Some(_) => {}
            }
        }
        (nulls, ends.map(|((lo, _), (hi, _))| (lo, hi)))
    }
}

/// A read-optimized columnar block: its index, and the chunks it holds —
/// all of them for a block as built, those fetched so far for one opened
/// from a file.
#[derive(Debug, Clone)]
pub struct RosBlock {
    schema_version: u32,
    row_count: usize,
    /// Rows per zone this block was built with (self-describing so the
    /// constant can change without breaking old blocks).
    zone_rows: usize,
    /// User columns; the provenance columns follow them in `chunks`.
    ncols: usize,
    stats: Vec<(String, ColumnStats)>,
    bloom: BloomFilter,
    /// Column-major, in file order: chunk `col * zones + zone`.
    chunks: Vec<ChunkEntry>,
    /// Per chunk, once held: the bytes its decoder reads — CRC-checked,
    /// decrypted and, for a vsnap chunk, expanded. Written once, so
    /// readers sharing the block may fill them at the same time.
    cells: Vec<OnceLock<Vec<u8>>>,
    /// Per user column, the matcher of the FSST table its chunks share.
    tables: Vec<SharedTable>,
    /// The body as stored, unencrypted, of a block as built.
    body: Option<Vec<u8>>,
    /// What a fetched range decrypts with; `None` in a block as built.
    seal: Option<(Key, Nonce)>,
}

impl RosBlock {
    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Number of user columns.
    pub fn column_count(&self) -> usize {
        self.ncols
    }

    /// All tracked column properties.
    pub fn all_stats(&self) -> &[(String, ColumnStats)] {
        &self.stats
    }

    /// The block's bloom filter over partition/clustering key values.
    pub fn bloom(&self) -> &BloomFilter {
        &self.bloom
    }

    /// Number of zones (column chunks per column).
    pub fn zone_count(&self) -> usize {
        self.row_count.div_ceil(self.zone_rows)
    }

    /// Row range covered by zone `z`.
    pub fn zone_range(&self, z: usize) -> std::ops::Range<usize> {
        let start = z * self.zone_rows;
        start..((z + 1) * self.zone_rows).min(self.row_count)
    }

    /// The chunk of column `col` (provenance columns follow the user
    /// columns) in zone `z`, and its place in `chunks`.
    fn chunk(&self, col: usize, z: usize) -> VortexResult<(usize, &ChunkEntry)> {
        let at = (z < self.zone_count()).then(|| col * self.zone_count() + z);
        let found = at.and_then(|i| Some((i, self.chunks.get(i)?)));
        found.ok_or_else(|| {
            VortexError::InvalidArgument(format!("column {col} zone {z} out of range"))
        })
    }

    /// The zone map: min/max/null properties of column `col` within zone
    /// `z`. `None` when either index is out of range.
    pub fn zone_stats(&self, col: usize, z: usize) -> Option<&ColumnStats> {
        let user = (col < self.ncols).then(|| self.chunk(col, z).ok());
        user.flatten().map(|(_, c)| &c.stats)
    }

    /// The newest commit timestamp among the rows of zone `z`, from the
    /// zone map of the timestamp column; `None` when it does not say.
    pub fn zone_newest(&self, z: usize) -> Option<Timestamp> {
        match &self.chunk(self.ncols + TS, z).ok()?.1.stats.max {
            Some(Value::Timestamp(ts)) => Some(*ts),
            _ => None,
        }
    }

    /// The cell of chunk `i`, if the block holds it.
    fn cell(&self, i: usize) -> Option<&[u8]> {
        let empty = || (self.chunks[i].len == 0).then_some(&[][..]);
        self.cells[i].get().map(Vec::as_slice).or_else(empty)
    }

    /// Bytes of the cells of the chunks `chunk` names in zone `z` — what
    /// their decoder walks, whole or at a selection; 0 for a chunk not
    /// held.
    pub fn cell_bytes(&self, chunk: Chunk, z: usize) -> u64 {
        let named = (0..self.ncols + PROVENANCE).filter(|&col| self.kind(col) == chunk);
        let cells = named.filter_map(|col| self.cell(self.chunk(col, z).ok()?.0));
        cells.map(|cell| cell.len() as u64).sum()
    }

    /// What the chunks of column `col` hold, provenance columns included.
    fn kind(&self, col: usize) -> Chunk {
        match col.checked_sub(self.ncols) {
            None => Chunk::Column(col),
            Some(TS) => Chunk::Timestamps,
            Some(_) => Chunk::Provenance,
        }
    }

    /// The encoding, the cell and the rows of chunk `z` of column `col`,
    /// provenance columns included.
    fn stored(&self, col: usize, z: usize) -> VortexResult<(Encoding, &[u8], usize)> {
        let (i, chunk) = self.chunk(col, z)?;
        let bytes = self.cell(i).ok_or_else(|| {
            VortexError::Internal(format!(
                "column {col} zone {z} is read before it is fetched"
            ))
        })?;
        Ok((chunk.enc, bytes, self.zone_range(z).len()))
    }

    /// Decodes chunk `z` of column `col`, provenance columns included:
    /// whole, or its leaf at the ascending zone-relative `rows`.
    fn decode_stored(
        &self,
        col: usize,
        z: usize,
        rows: Option<&[usize]>,
    ) -> VortexResult<ColumnVec> {
        let (enc, bytes, count) = self.stored(col, z)?;
        decode_chunk_at(enc, bytes, count, rows)
    }

    /// `col` if it is a user column.
    fn user_column(&self, col: usize, z: usize) -> VortexResult<usize> {
        let out_of_range = || format!("column {col} zone {z} out of range");
        let user = (col < self.ncols).then_some(col);
        user.ok_or_else(|| VortexError::InvalidArgument(out_of_range()))
    }

    /// Decodes one zone of one column into a typed vector, preserving
    /// dictionary/run structure so predicates can be evaluated on the
    /// compressed form.
    pub fn decode_zone(&self, col: usize, z: usize) -> VortexResult<ColumnVec> {
        self.decode_stored(self.user_column(col, z)?, z, None)
    }

    /// The ascending zone-relative `rows` of one zone of one column as a
    /// leaf vector of `rows.len()` rows ([`decode_chunk_at`]): what a scan
    /// decodes of a column its predicate did not read.
    pub fn decode_zone_at(&self, col: usize, z: usize, rows: &[usize]) -> VortexResult<ColumnVec> {
        self.decode_stored(self.user_column(col, z)?, z, Some(rows))
    }

    /// Hands `sink` the cells of one zone of one column that
    /// [`RosBlock::decode_zone`] decodes, without decoding it
    /// ([`fold_chunk`]): `false` unless the chunk is Alp.
    pub fn fold_zone(&self, col: usize, z: usize, sink: &mut impl Sink<f64>) -> VortexResult<bool> {
        let (enc, bytes, count) = self.stored(self.user_column(col, z)?, z)?;
        fold_chunk(enc, bytes, count, sink)
    }

    /// Keeps the rows of `sel` whose cell in zone `z` of column `col`
    /// equals one of `literals` (`equal`), or is not NULL and equals none
    /// of them, by comparing the stored FSST codes of its chunk with the
    /// literals' ([`retain_coded`]): nothing decodes. `None`, and `sel`
    /// untouched, for a chunk that is neither Fsst nor RleV2 of Fsst run
    /// values; else the bytes the block holds more since the call: the
    /// matcher of the column's table, built by the first such call.
    pub fn retain_coded(
        &self,
        (col, z): (usize, usize),
        (literals, equal): (&[Value], bool),
        sel: &mut Vec<usize>,
    ) -> VortexResult<Option<u64>> {
        let stored = self.stored(self.user_column(col, z)?, z)?;
        retain_coded(stored, (literals, equal), &self.tables[col], sel)
    }

    /// The one value every row of zone `z` of column `col` holds, from
    /// its zone map alone: the zone has no NULL, its min and max are
    /// key-equal, and its chunk is one whose order ties no two cells of
    /// different keys ([`holds_one_key`]) — not an `Any` leaf, which ties
    /// an `Int64` with the equal `Float64`. A zone of `Int64` cells says
    /// so by its integer sum, from the index alone, whatever its encoding.
    /// `None`
    /// otherwise. The chunk is not decoded, so a defect inside it goes
    /// unseen (its CRC is the integrity check).
    pub fn zone_constant(&self, col: usize, z: usize) -> Option<&Value> {
        let (i, chunk) = self.chunk(self.user_column(col, z).ok()?, z).ok()?;
        let (Some(min), Some(max), false) =
            (&chunk.stats.min, &chunk.stats.max, chunk.stats.has_null)
        else {
            return None;
        };
        let one = chunk.sum.is_some() || holds_one_key(chunk.enc, self.cell(i));
        (one && min.key_eq(max)).then_some(min)
    }

    /// SUM and AVG of every row of zone `z` of column `col`, from the
    /// index alone: the exact sum of its cells and how many are not NULL.
    /// `None` unless the zone holds `Int64` cells and NULLs only.
    pub fn zone_sum(&self, col: usize, z: usize) -> Option<(i128, u64)> {
        let (_, chunk) = self.chunk(self.user_column(col, z).ok()?, z).ok()?;
        let (sum, nulls) = chunk.sum?;
        Some((sum, (self.zone_range(z).len() - nulls) as u64))
    }

    /// [`RosBlock::zone_sum`] of a zone of finite `Float64` cells and
    /// NULLs: the exact sum as `mantissa·2^exp2`. `None` for another zone,
    /// or one whose sum one `i128` mantissa does not hold.
    pub fn zone_float_sum(&self, col: usize, z: usize) -> Option<((i128, i32), u64)> {
        let (_, chunk) = self.chunk(self.user_column(col, z).ok()?, z).ok()?;
        let (sum, nulls) = chunk.float_sum?;
        Some((sum, (self.zone_range(z).len() - nulls) as u64))
    }

    /// Hands `put` the integers one provenance column stores for the
    /// ascending `rows` of zone `z`, each with its index in `rows`; `buf`
    /// is scratch, the caller's to share between columns.
    fn provenance(
        &self,
        (col, z): (usize, usize),
        (rows, buf): (&[usize], &mut Vec<usize>),
        mut put: impl FnMut(usize, i64),
    ) -> VortexResult<()> {
        // Every row: the chunk whole, its runs and codes resolved. Fewer:
        // a leaf of those rows alone.
        let every = rows.len() == self.zone_range(z).len();
        let vec = self.decode_stored(self.ncols + col, z, (!every).then_some(rows))?;
        let (leaf, at) = match every {
            true => vec.resolve(rows, buf),
            false => {
                buf.clear();
                // lint:allow(L010, scratch the zone's four provenance columns share)
                buf.extend(0..rows.len());
                (&vec, buf.as_slice())
            }
        };
        match leaf {
            ColumnVec::I64(_, ints) if ints.nulls.is_none() => {
                (at.iter().enumerate()).for_each(|(row, &i)| put(row, ints.values[i]));
                Ok(())
            }
            _ => Err(VortexError::CorruptData(format!(
                "provenance column {col} zone {z} does not hold integers"
            ))),
        }
    }

    /// The commit timestamps of the rows of zone `z`.
    pub fn zone_timestamps(&self, z: usize) -> VortexResult<Vec<Timestamp>> {
        // lint:allow(L010, once per zone whose provenance a query reads, sized by the zone's rows)
        let every: Vec<usize> = (0..self.zone_range(z).len()).collect();
        // lint:allow(L010, once per zone whose provenance a query reads, sized by the zone's rows)
        let (mut out, mut buf) = (vec![Timestamp(0); every.len()], Vec::new());
        self.provenance((TS, z), (&every, &mut buf), |row, t| {
            out[row] = Timestamp(t as u64)
        })?;
        Ok(out)
    }

    /// The provenance of the rows of zone `z`.
    pub fn zone_metas(&self, z: usize) -> VortexResult<Vec<RowMeta>> {
        // lint:allow(L010, once per zone whose provenance a query reads, sized by the zone's rows)
        let every: Vec<usize> = (0..self.zone_range(z).len()).collect();
        self.zone_metas_at(z, &every)
    }

    /// The provenance of the ascending zone-relative `rows` of zone `z`,
    /// one `RowMeta` each: each of the four columns decoded at `rows` and
    /// written straight into its field.
    pub fn zone_metas_at(&self, z: usize, rows: &[usize]) -> VortexResult<Vec<RowMeta>> {
        // lint:allow(L010, once per zone whose provenance a query reads, sized by the rows it returns)
        let mut metas = vec![RowMeta::default(); rows.len()];
        // lint:allow(L010, scratch the zone's four provenance columns share)
        let (mut buf, mut bad) = (Vec::new(), None);
        ROW_METAS_BUILT.add(metas.len() as u64);
        self.provenance((CHANGE_TYPE, z), (rows, &mut buf), |row, kind| {
            // Past a byte it is no change type, whatever its low bits.
            match ChangeType::from_u8(u8::try_from(kind).unwrap_or(u8::MAX)) {
                Ok(kind) => metas[row].change_type = kind,
                Err(e) => bad = Some(e),
            }
        })?;
        self.provenance((TS, z), (rows, &mut buf), |row, ts| {
            metas[row].ts = Timestamp(ts as u64)
        })?;
        self.provenance((STREAM, z), (rows, &mut buf), |row, s| {
            metas[row].stream = s as u64
        })?;
        self.provenance((OFFSET, z), (rows, &mut buf), |row, o| {
            metas[row].offset = o as u64
        })?;
        bad.map_or(Ok(metas), Err)
    }

    /// Decodes all rows with their provenance, zone by zone.
    pub fn rows(&self) -> VortexResult<Vec<(RowMeta, Row)>> {
        let mut out: Vec<(RowMeta, Row)> = Vec::new();
        for z in 0..self.zone_count() {
            let every: Vec<usize> = (0..self.zone_range(z).len()).collect();
            let cols = (0..self.ncols).map(|c| self.decode_zone(c, z));
            let cols = cols.collect::<VortexResult<Vec<ColumnVec>>>()?;
            let shown: Vec<_> = cols.iter().map(|col| Some((col, &every[..]))).collect();
            gather_rows((&self.zone_metas(z)?, &every), &shown, &mut out);
        }
        Ok(out)
    }

    /// Serializes and encrypts the block, every chunk of which must be
    /// held (it was built, or read whole). `block_raw_id` must be unique
    /// per key (the optimizer uses the ROS fragment id) — it seeds the
    /// encryption nonce.
    pub fn to_bytes(&self, key: &Key, block_raw_id: u64) -> Vec<u8> {
        let nonce = Nonce::for_block(block_raw_id, u32::MAX);
        // Encrypts what `out` has gained since `from`, where it lies.
        let encrypt = |out: &mut Vec<u8>, from: usize| {
            apply_keystream_at(key, &nonce, from as u64, &mut out[from..])
        };
        // The index is a few percent of a block of any size worth sizing.
        let body: usize = self.chunks.iter().map(|c| c.len).sum();
        let mut out = Vec::with_capacity(body + body / 8);
        match &self.body {
            // lint:allow(L010, sealing writes the file: the body once)
            Some(body) => out.extend_from_slice(body),
            // An opened block's cells, a vsnap chunk compressed again:
            // vsnap is deterministic, so to the bytes it was read from.
            None => {
                for (i, c) in self.chunks.iter().enumerate() {
                    let cell = self.cell(i);
                    // lint:allow(L002, a block that is serialized was built or read whole; a chunk missing here is a bug in the caller, not input)
                    let cell = cell.expect("every chunk of a block being sealed is held");
                    let packed = c.compressed.then(|| compress(cell));
                    // lint:allow(L010, sealing writes the file: each chunk once)
                    out.extend_from_slice(packed.as_deref().unwrap_or(cell));
                }
            }
        }
        encrypt(&mut out, 0);
        let index_at = out.len();
        put_uvarint(&mut out, self.schema_version as u64);
        put_uvarint(&mut out, self.row_count as u64);
        put_uvarint(&mut out, self.zone_rows as u64);
        put_uvarint(&mut out, self.ncols as u64);
        for c in &self.chunks {
            let crc = crc32c(&out[c.offset..c.offset + c.len]);
            out.push(c.enc.to_u8());
            let summed = match (c.sum, c.float_sum) {
                (Some((sum, nulls)), _) => Some((CHUNK_SUMMED, sum, None, nulls)),
                (_, Some(((m, exp2), nulls))) => Some((CHUNK_FLOAT_SUMMED, m, Some(exp2), nulls)),
                _ => None,
            };
            let flag = summed.map_or(0, |(flag, ..)| flag);
            out.push(flag | if c.compressed { CHUNK_COMPRESSED } else { 0 });
            put_uvarint(&mut out, c.len as u64);
            out.extend_from_slice(&crc.to_le_bytes());
            out.extend_from_slice(&c.stats.to_bytes());
            if let Some((_, sum, exp2, nulls)) = summed {
                // Zigzagged, its low 64 bits, then its high; a float sum's
                // binary exponent.
                let z = ((sum << 1) ^ (sum >> 127)) as u128;
                put_uvarint(&mut out, z as u64);
                put_uvarint(&mut out, (z >> 64) as u64);
                if let Some(e) = exp2 {
                    put_ivarint(&mut out, e as i64);
                }
                put_uvarint(&mut out, nulls as u64);
            }
        }
        put_uvarint(&mut out, self.stats.len() as u64);
        for (name, s) in &self.stats {
            put_str(&mut out, name);
            out.extend_from_slice(&s.to_bytes());
        }
        put_bytes(&mut out, &self.bloom.to_bytes());
        encrypt(&mut out, index_at);
        let index_crc = crc32c(&out[index_at..]);
        let trailer_at = out.len();
        out.extend_from_slice(&((trailer_at - index_at) as u32).to_le_bytes());
        out.extend_from_slice(&index_crc.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        encrypt(&mut out, trailer_at);
        let trailer_crc = crc32c(&out[trailer_at..]);
        out.extend_from_slice(&trailer_crc.to_le_bytes());
        out
    }

    /// Verifies, decrypts, and parses a serialized block held whole:
    /// [`RosBlock::open_index`], then [`RosBlock::fetch`] of every chunk, over
    /// `data`.
    pub fn from_bytes(data: &[u8], key: &Key, block_raw_id: u64) -> VortexResult<Self> {
        let mut read = |offset: u64, len: usize, check: &dyn Fn(&[u8]) -> VortexResult<()>| {
            let at = usize::try_from(offset).ok();
            let bytes = at.and_then(|at| data.get(at..at.checked_add(len)?));
            let bytes = bytes.ok_or_else(|| VortexError::Decode("ros block truncated".into()))?;
            check(bytes).map(|()| bytes.to_vec())
        };
        let (block, _) = Self::open_index(data.len() as u64, key, block_raw_id, &mut read)?;
        block.fetch(&mut read, |_, _| true)?;
        Ok(block)
    }

    /// Opens the block stored in a file of `size` bytes: reads, verifies,
    /// decrypts and parses its trailer and its index. No chunk is read;
    /// [`RosBlock::fetch`] reads the ones a query turns out to need.
    pub fn open_index(
        size: u64,
        key: &Key,
        block_raw_id: u64,
        read: &mut ReadAt<'_>,
    ) -> VortexResult<(Self, Fetched)> {
        let nonce = Nonce::for_block(block_raw_id, u32::MAX);
        let too_short = || VortexError::Decode(format!("{size} bytes are no ros block"));
        let size = usize::try_from(size).map_err(|_| too_short())?;
        let trailer_at = size.checked_sub(TRAILER_LEN).ok_or_else(too_short)?;
        let mut trailer = read_exact(read, trailer_at, TRAILER_LEN, &|b| {
            let (fields, crc) = b.split_at(TRAILER_FIELDS);
            verify(fields, le_uint(crc) as u32, "trailer")
        })?;
        apply_keystream_at(
            key,
            &nonce,
            trailer_at as u64,
            &mut trailer[..TRAILER_FIELDS],
        );
        let [index_len, index_crc, version, magic] =
            [0..4, 4..8, 8..10, 10..14].map(|field| le_uint(&trailer[field]) as usize);
        if magic != MAGIC as usize {
            let wrong = "bad ros magic (wrong key or not a ros block)";
            return Err(VortexError::Decode(wrong.into()));
        }
        if version != VERSION as usize {
            return Err(VortexError::Decode(format!("bad ros version {version}")));
        }
        let index_at = trailer_at.checked_sub(index_len).ok_or_else(|| {
            VortexError::Decode(format!(
                "ros index of {index_len} bytes in a file of {size}"
            ))
        })?;
        let mut index = read_exact(read, index_at, index_len, &|b| {
            verify(b, index_crc as u32, "index")
        })?;
        apply_keystream_at(key, &nonce, index_at as u64, &mut index);
        let mut block = Self::parse_index(&index, index_at)?;
        // lint:allow(L010, 32 bytes per block opened, to decrypt what is fetched of it later)
        block.seal = Some((key.clone(), nonce));
        let index = Fetched {
            reads: 2,
            bytes: (TRAILER_LEN + index_len) as u64,
            kept: index_len as u64,
        };
        Ok((block, index))
    }

    /// Parses a decrypted index; the chunks it lists must tile the
    /// `body_len` bytes before it.
    fn parse_index(b: &[u8], body_len: usize) -> VortexResult<Self> {
        let pos = &mut 0usize;
        let schema_version = u32::try_from(get_uvarint(b, pos)?)
            .map_err(|_| VortexError::Decode("implausible schema version".into()))?;
        // No count is trusted further than the bytes there are to back it.
        let count = |pos: &mut usize, what: &str| {
            let n = usize::try_from(get_uvarint(b, pos)?).ok();
            let n = n.filter(|&n| n <= b.len());
            n.ok_or_else(|| VortexError::Decode(format!("implausible {what} count")))
        };
        let row_count = get_uvarint(b, pos)? as usize;
        let zone_rows = get_uvarint(b, pos)? as usize;
        let ncols = count(pos, "column")?;
        if zone_rows == 0 || (row_count > 0 && zone_rows > ZONE_ROWS.max(row_count)) {
            return Err(VortexError::Decode(format!(
                "implausible zone size {zone_rows}"
            )));
        }
        // Every chunk costs its index entry 9 bytes or more, so more
        // entries than that is corrupt — reject before any allocation is
        // sized by them.
        let zones = row_count.div_ceil(zone_rows);
        let entries = (ncols + PROVENANCE).checked_mul(zones);
        let entries = entries.filter(|&n| n <= b.len() / 9);
        let entries =
            entries.ok_or_else(|| VortexError::Decode("implausible chunk directory".into()))?;
        let mut chunks = Vec::with_capacity(entries);
        let mut offset = 0usize;
        for i in 0..entries {
            let enc = Encoding::from_u8(take(b, pos, 1)?[0])?;
            let flags = take(b, pos, 1)?[0];
            // Only a user column's zone is summed, and one way.
            let summed = CHUNK_SUMMED | CHUNK_FLOAT_SUMMED;
            let allowed = CHUNK_COMPRESSED | if i / zones < ncols { summed } else { 0 };
            if flags & !allowed != 0 || flags & summed == summed {
                return Err(VortexError::Decode(format!("bad chunk flags {flags:#x}")));
            }
            let len = get_uvarint(b, pos)?;
            let len = usize::try_from(len)
                .ok()
                .filter(|&n| n <= body_len - offset);
            let len = len
                .ok_or_else(|| VortexError::Decode("chunks run past the ros block body".into()))?;
            let crc = u32::from_le_bytes(take_array(b, pos)?);
            let stats = ColumnStats::from_bytes(b, pos)?;
            let rows = zone_rows.min(row_count - i % zones * zone_rows);
            let sum = match flags & summed {
                0 => None,
                kind => {
                    let (lo, hi) = (get_uvarint(b, pos)?, get_uvarint(b, pos)?);
                    let z = (hi as u128) << 64 | lo as u128;
                    let sum = (z >> 1) as i128 ^ -((z & 1) as i128);
                    let exp2 = (kind == CHUNK_FLOAT_SUMMED).then(|| get_ivarint(b, pos));
                    let exp2 = exp2
                        .transpose()?
                        .map(|e| i32::try_from(e).unwrap_or(i32::MAX));
                    // No more NULLs than rows, and a sum the other rows'
                    // `i64`s, or finite `f64`s, can make: no fold of the
                    // sums can overflow.
                    let nulls = usize::try_from(get_uvarint(b, pos)?).ok();
                    let nulls = nulls.filter(|&n| n <= rows);
                    let held = nulls.filter(|&n| match exp2 {
                        None => sum.unsigned_abs() <= ((rows - n) as u128) << 63,
                        Some(e) => float_sum_held(sum, e, rows - n),
                    });
                    let nulls = held.ok_or_else(|| {
                        // lint:allow(L010, the error of an index that fails its parse)
                        VortexError::Decode(format!("chunk {i}: a sum {rows} rows cannot hold"))
                    })?;
                    Some((sum, exp2, nulls))
                }
            };
            chunks.push(ChunkEntry {
                enc,
                compressed: flags & CHUNK_COMPRESSED != 0,
                stats,
                sum: sum.and_then(|(sum, exp2, nulls)| exp2.is_none().then_some((sum, nulls))),
                float_sum: sum.and_then(|(sum, exp2, nulls)| Some(((sum, exp2?), nulls))),
                offset,
                len,
                crc,
            });
            offset += len;
        }
        if offset != body_len {
            return Err(VortexError::Decode(format!(
                "ros chunks cover {offset} of {body_len} body bytes"
            )));
        }
        let nstats = count(pos, "stats")?;
        let mut stats = Vec::new();
        for _ in 0..nstats {
            stats.push((get_str(b, pos)?, ColumnStats::from_bytes(b, pos)?));
        }
        let bloom_len = get_len(b, pos)?;
        let bloom =
            BloomFilter::from_bytes(take(b, pos, bloom_len)?).map_err(VortexError::CorruptData)?;
        if *pos != b.len() {
            return Err(VortexError::Decode(format!(
                "ros index has {} trailing bytes",
                b.len() - *pos
            )));
        }
        Ok(RosBlock {
            schema_version,
            row_count,
            zone_rows,
            ncols,
            stats,
            bloom,
            // lint:allow(L010, once per block opened: an empty cell per chunk)
            cells: vec![OnceLock::new(); chunks.len()],
            // lint:allow(L010, once per block opened: an empty cell per column)
            tables: vec![OnceLock::new(); ncols],
            chunks,
            body: None,
            seal: None,
        })
    }

    /// Reads the chunks `wanted` picks and no cell holds yet — it is asked
    /// about each by what it holds and its zone — one read per run of
    /// chunks adjacent in the file (a column's zones are one run, and so
    /// is the whole body). Each chunk is verified against its CRC before
    /// the read counts as done; the run is decrypted, its vsnap chunks
    /// expanded, and only then is a cell filled. A cell another reader
    /// filled meanwhile keeps its bytes: they are the same.
    pub fn fetch(
        &self,
        read: &mut ReadAt<'_>,
        wanted: impl Fn(Chunk, usize) -> bool,
    ) -> VortexResult<Fetched> {
        let zones = self.zone_count().max(1);
        let missing = |i: usize| wanted(self.kind(i / zones), i % zones) && self.cell(i).is_none();
        // lint:allow(L010, once per fetch plan — per block — and an entry per read it makes)
        let mut runs: Vec<(usize, usize)> = Vec::new(); // chunks first..end
        for i in (0..self.chunks.len()).filter(|&i| missing(i)) {
            match runs.last_mut() {
                Some((_, end)) if *end == i => *end += 1,
                // lint:allow(L010, once per fetch plan — per block — and an entry per read it makes)
                _ => runs.push((i, i + 1)),
            }
        }
        let mut fetched = Fetched::default();
        for (first, end) in runs {
            fetched += self.fetch_run(first, end, read)?;
        }
        Ok(fetched)
    }

    /// One read of the adjacent chunks `first..end`, into their cells.
    fn fetch_run(&self, first: usize, end: usize, read: &mut ReadAt<'_>) -> VortexResult<Fetched> {
        let Some((key, nonce)) = &self.seal else {
            return Err(VortexError::Internal(
                "a ros block that was built has no file to fetch from".into(),
            ));
        };
        let run = &self.chunks[first..end];
        let (start, len) = (run[0].offset, run.iter().map(|c| c.len).sum());
        let mut bytes = read_exact(read, start, len, &|b| {
            let each = |(k, c): (usize, &ChunkEntry)| {
                let stored = &b[c.offset - start..][..c.len];
                verify(stored, c.crc, format_args!("chunk {}", first + k))
            };
            run.iter().enumerate().try_for_each(each)
        })?;
        apply_keystream_at(key, nonce, start as u64, &mut bytes);
        let cell = |(k, c): (usize, &ChunkEntry)| {
            let plain = &bytes[c.offset - start..][..c.len];
            match c.compressed {
                true => decompress(plain).map_err(|e| {
                    // lint:allow(L010, the error of a chunk that passed its CRC and does not expand)
                    VortexError::CorruptData(format!("chunk {}: {e}", first + k))
                }),
                // lint:allow(L010, once per chunk fetched: the cell every later reader decodes from)
                false => Ok(plain.to_vec()),
            }
        };
        // lint:allow(L010, once per read made of the block's file: its chunks' cells)
        let filled: VortexResult<Vec<_>> = (run.iter().enumerate()).map(cell).collect();
        let mut kept = 0;
        for (cell, plain) in self.cells[first..end].iter().zip(filled?) {
            let n = plain.len() as u64;
            kept += cell.set(plain).map_or(0, |()| n);
        }
        let bytes = len as u64;
        Ok(Fetched {
            reads: 1,
            bytes,
            kept,
        })
    }
}

/// Whether `mantissa·2^exp2` is a sum `terms` finite `f64`s can make as
/// far as its range tells: its least bit is no finer than 2^-1074 and its
/// magnitude under `terms`·2^1024.
fn float_sum_held(mantissa: i128, exp2: i32, terms: usize) -> bool {
    let bits = 128 - mantissa.unsigned_abs().leading_zeros() as i64;
    let most = 1024 + (usize::BITS - terms.leading_zeros()) as i64;
    (-1074..=1023).contains(&exp2) && (mantissa == 0 || (terms > 0 && bits + exp2 as i64 <= most))
}

/// `len` bytes at `offset` through `read`: exactly that many, and passing
/// `check`.
fn read_exact(
    read: &mut ReadAt<'_>,
    offset: usize,
    len: usize,
    check: &dyn Fn(&[u8]) -> VortexResult<()>,
) -> VortexResult<Vec<u8>> {
    read(
        offset as u64,
        len,
        &|bytes: &[u8]| match bytes.len() == len {
            true => check(bytes),
            false => Err(VortexError::CorruptData(format!(
                "ros block: {} of {len} bytes at {offset}",
                bytes.len()
            ))),
        },
    )
}

/// The one CRC rule: stored bytes against the CRC32C recorded for them.
fn verify(stored: &[u8], crc: u32, what: impl std::fmt::Display) -> VortexResult<()> {
    match crc32c(stored) == crc {
        true => Ok(()),
        false => Err(VortexError::CorruptData(format!(
            "ros block {what} crc mismatch"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::tests::Sum;
    use crate::tally::tallied;
    use vortex_common::exact::ExactSum;
    use vortex_common::row::Value;
    use vortex_common::schema::{sales_schema, Field, FieldType, PartitionTransform};

    fn meta(i: u64) -> RowMeta {
        RowMeta {
            change_type: ChangeType::Insert,
            ts: Timestamp(1_000_000 + i),
            stream: 5,
            offset: i,
        }
    }

    fn small_schema() -> Schema {
        Schema::new(vec![
            Field::required("k", FieldType::Int64),
            Field::required("name", FieldType::String),
            Field::nullable("day", FieldType::Date),
        ])
        .with_partition("day", PartitionTransform::Date)
        .with_clustering(&["name"])
    }

    fn build_block(n: usize) -> RosBlock {
        let schema = small_schema();
        let mut b = RosBlockBuilder::new(&schema);
        for i in 0..n {
            b.push(
                meta(i as u64),
                Row::insert(vec![
                    Value::Int64(i as i64),
                    Value::String(format!("name-{}", i % 10)),
                    Value::Date((i % 3) as i32),
                ]),
            )
            .unwrap();
        }
        b.build(false).unwrap()
    }

    /// A zone's one value comes from its zone map where the chunk holds
    /// one key — a constant integer, float or string column, whatever it
    /// encodes to — and from nowhere for a zone with a NULL, two values, or
    /// an `Any` zone whose min and max are key-equal while it holds a
    /// second value: `Int64(2^53)` beside the `Float64` it equals.
    /// Neither the zone map nor the stored-form fold allocates.
    #[test]
    fn a_zone_map_answers_a_zone_of_one_key_alone() {
        let schema = Schema::new(
            ["int", "float", "string", "nulls", "two", "mixed"]
                .map(|c| Field::nullable(c, FieldType::Int64))
                .to_vec(),
        );
        let big = 1i64 << 53;
        let mut b = RosBlockBuilder::new(&schema);
        for i in 0..300 {
            let values = vec![
                Value::Int64(7),
                Value::Float64(2.5),
                Value::String("one".into()),
                [Value::Int64(7), Value::Null][i % 2].clone(),
                Value::Int64(i as i64 % 2),
                [Value::Int64(big), Value::Float64(big as f64)][i % 2].clone(),
            ];
            b.push(meta(i as u64), Row::insert(values)).unwrap();
        }
        let block = b.build(false).unwrap();
        let stats = block.zone_stats(5, 0).unwrap();
        let (min, max) = (stats.min.as_ref().unwrap(), stats.max.as_ref().unwrap());
        assert!(min.key_eq(max) && !stats.has_null, "{stats:?}");
        let (ones, _, requests) = tallied(|| {
            (0..6)
                .map(|c| block.zone_constant(c, 0))
                .collect::<Vec<_>>()
        });
        assert_eq!(requests, 1, "the vector the answers are collected in");
        let ones: Vec<Option<Value>> = ones.into_iter().map(Option::<&Value>::cloned).collect();
        let want = [
            Value::Int64(7),
            Value::Float64(2.5),
            Value::String("one".into()),
        ];
        assert_eq!(
            ones,
            want.map(Some)
                .into_iter()
                .chain([None, None, None])
                .collect::<Vec<_>>()
        );
        // The `Int64` zones' sums are the index's, NULLs not counted; the
        // others have none.
        let (sums, _, requests) =
            tallied(|| (0..6).map(|c| block.zone_sum(c, 0)).collect::<Vec<_>>());
        assert_eq!(requests, 1, "the vector the sums are collected in");
        let int = [
            Some((2_100, 300)),
            None,
            None,
            Some((1_050, 150)),
            Some((150, 300)),
        ];
        assert_eq!(sums, int.into_iter().chain([None]).collect::<Vec<_>>());
        // The `Float64` zone's is too: 750 = 375·2.
        let floats = (0..6).map(|c| block.zone_float_sum(c, 0));
        let float = [None, Some(((375, 1), 300)), None, None, None, None];
        assert_eq!(floats.collect::<Vec<_>>(), float);
        let mut sum = Sum::default();
        let (leaf, _, requests) = tallied(|| block.fold_zone(1, 0, &mut sum));
        assert_eq!(requests, 0);
        match leaf.unwrap() {
            // A dictionary or runs decode instead.
            false => assert!(matches!(
                block.decode_zone(1, 0).unwrap(),
                ColumnVec::Dict { .. } | ColumnVec::Runs { .. }
            )),
            true => assert_eq!(
                sum,
                Sum {
                    n: 300,
                    float: 750.0
                }
            ),
        }
    }

    #[test]
    fn build_and_read_roundtrip() {
        let block = build_block(100);
        assert_eq!(block.row_count(), 100);
        assert_eq!(block.column_count(), 3);
        let rows = block.rows().unwrap();
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[7].1.values[0], Value::Int64(7));
        assert_eq!(rows[7].0.offset, 7);
    }

    #[test]
    fn serialization_roundtrip_encrypted() {
        let block = build_block(50);
        let key = Key::derive_from_passphrase("ros");
        let bytes = block.to_bytes(&key, 42);
        let back = RosBlock::from_bytes(&bytes, &key, 42).unwrap();
        assert_eq!(back.row_count(), 50);
        assert_eq!(back.rows().unwrap(), block.rows().unwrap());
        assert_eq!(back.schema_version, block.schema_version);
        // Stats survive.
        assert_eq!(back.all_stats(), block.all_stats());
        let (_, s) = &back.all_stats()[0];
        assert_eq!(s.min, Some(Value::Int64(0)));
        assert_eq!(s.max, Some(Value::Int64(49)));
    }

    #[test]
    fn wrong_key_or_id_detected() {
        let block = build_block(10);
        let key = Key::derive_from_passphrase("right");
        let bytes = block.to_bytes(&key, 1);
        let wrong = Key::derive_from_passphrase("wrong");
        assert!(RosBlock::from_bytes(&bytes, &wrong, 1).is_err());
        assert!(RosBlock::from_bytes(&bytes, &key, 2).is_err());
    }

    #[test]
    fn corruption_detected_by_crc() {
        let block = build_block(10);
        let key = Key::derive_from_passphrase("k");
        let mut bytes = block.to_bytes(&key, 1);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            RosBlock::from_bytes(&bytes, &key, 1),
            Err(VortexError::CorruptData(_))
        ));
        // Truncations never panic.
        let good = block.to_bytes(&key, 1);
        for cut in 0..good.len().min(200) {
            let _ = RosBlock::from_bytes(&good[..cut], &key, 1);
        }
    }

    #[test]
    fn lazy_column_decode_matches_rows() {
        let block = build_block(40);
        let names = block.decode_zone(1, 0).unwrap().to_values();
        let rows = block.rows().unwrap();
        for (i, (_, r)) in rows.iter().enumerate() {
            assert_eq!(names[i], r.values[1]);
        }
        assert!(block.decode_zone(9, 0).is_err());
    }

    #[test]
    fn clustering_sort_orders_rows() {
        let schema = small_schema();
        let mut b = RosBlockBuilder::new(&schema);
        for i in (0..50).rev() {
            b.push(
                meta(i as u64),
                Row::insert(vec![
                    Value::Int64(i),
                    Value::String(format!("name-{:03}", i)),
                    Value::Null,
                ]),
            )
            .unwrap();
        }
        let block = b.build(true).unwrap();
        let names = block.decode_zone(1, 0).unwrap().to_values();
        let mut sorted = names.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(names, sorted, "clustered block must be sorted");
    }

    #[test]
    fn bloom_covers_partition_and_clustering() {
        let block = build_block(100);
        // Clustering column 'name' values present.
        assert!(block
            .bloom()
            .may_contain(&Value::String("name-3".into()).encode_key()));
        assert!(!block
            .bloom()
            .may_contain(&Value::String("name-999".into()).encode_key()));
        // Partition column 'day' values present.
        assert!(block.bloom().may_contain(&Value::Date(1).encode_key()));
    }

    #[test]
    fn stats_cover_scalar_columns_only() {
        let schema = sales_schema();
        let mut b = RosBlockBuilder::new(&schema);
        b.push(
            meta(0),
            Row::insert(vec![
                Value::Timestamp(Timestamp(1)),
                Value::String("SO-1".into()),
                Value::String("cust-9".into()),
                Value::Array(vec![]),
                Value::Numeric(100),
                Value::Int64(840),
            ]),
        )
        .unwrap();
        let block = b.build(false).unwrap();
        let tracked: Vec<&str> = block.all_stats().iter().map(|(n, _)| &**n).collect();
        assert!(tracked.contains(&"customerKey"), "{tracked:?}");
        assert!(
            !tracked.contains(&"salesOrderLines"),
            "repeated col untracked"
        );
    }

    #[test]
    fn change_types_preserved() {
        let schema = small_schema();
        let mut b = RosBlockBuilder::new(&schema);
        for (i, ct) in [ChangeType::Insert, ChangeType::Upsert, ChangeType::Delete]
            .iter()
            .enumerate()
        {
            let mut m = meta(i as u64);
            m.change_type = *ct;
            b.push(
                m,
                Row::with_change(
                    vec![
                        Value::Int64(i as i64),
                        Value::String("x".into()),
                        Value::Null,
                    ],
                    *ct,
                ),
            )
            .unwrap();
        }
        let block = b.build(false).unwrap();
        let key = Key::zero();
        let back = RosBlock::from_bytes(&block.to_bytes(&key, 9), &key, 9).unwrap();
        let metas = back.zone_metas(0).unwrap();
        let cts: Vec<ChangeType> = metas.iter().map(|m| m.change_type).collect();
        assert_eq!(
            cts,
            vec![ChangeType::Insert, ChangeType::Upsert, ChangeType::Delete]
        );
    }

    #[test]
    fn empty_block_rejected_and_arity_checked() {
        let schema = small_schema();
        let b = RosBlockBuilder::new(&schema);
        assert!(b.is_empty());
        assert!(b.build(false).is_err());
        let mut b = RosBlockBuilder::new(&schema);
        assert!(b.push(meta(0), Row::insert(vec![Value::Int64(1)])).is_err());
        assert_eq!(b.len(), 0);
    }

    // ---- The file by ranges ---------------------------------------------

    /// A reader over a file held in memory that logs the ranges asked of
    /// it: what a block's [`ReadAt`] is over a Colossus file.
    fn ranges_of<'a>(
        file: &'a [u8],
        log: &'a std::cell::RefCell<Vec<(u64, usize)>>,
    ) -> Box<ReadAt<'a>> {
        Box::new(move |offset, len, check| {
            log.borrow_mut().push((offset, len));
            let end = (offset as usize + len).min(file.len());
            let bytes = &file[(offset as usize).min(end)..end];
            check(bytes).map(|()| bytes.to_vec())
        })
    }

    #[test]
    fn a_scan_reads_the_index_and_the_runs_it_needs() {
        let block = leaves_block(2_500, true, true); // nine columns, three zones
        let key = Key::derive_from_passphrase("ranges");
        let file = block.to_bytes(&key, 9);
        let log = std::cell::RefCell::new(Vec::new());
        let mut read = ranges_of(&file, &log);
        let (open, mut fetched) =
            RosBlock::open_index(file.len() as u64, &key, 9, &mut *read).unwrap();
        // Two reads, the trailer and then the index, make the index.
        assert_eq!(log.borrow().len(), 2);
        assert_eq!(
            log.borrow()[0],
            ((file.len() - TRAILER_LEN) as u64, TRAILER_LEN)
        );
        let index_len = log.borrow()[1].1 as u64;
        let index_bytes = TRAILER_LEN as u64 + index_len;
        assert_eq!(
            fetched,
            Fetched {
                reads: 2,
                bytes: index_bytes,
                kept: index_len
            }
        );
        assert_eq!(open.zone_count(), 3);
        assert_eq!(open.all_stats(), block.all_stats());
        assert_eq!(open.bloom(), block.bloom());
        // Nothing is held yet, and a chunk is not decoded before it is.
        assert!(matches!(
            open.decode_zone(4, 1),
            Err(VortexError::Internal(_))
        ));
        // One zone of one column: one read, of that chunk alone.
        fetched += open
            .fetch(&mut *read, |chunk, z| chunk == Chunk::Column(4) && z == 1)
            .unwrap();
        let (_, c) = open.chunk(4, 1).unwrap();
        assert_eq!(log.borrow()[2..], [(c.offset as u64, c.len)]);
        assert_eq!(
            open.decode_zone(4, 1).unwrap(),
            block.decode_zone(4, 1).unwrap()
        );
        assert!(open.decode_zone(4, 0).is_err() && open.zone_metas(1).is_err());
        // Two neighbouring columns, whole: one read (what is held already
        // splits it in two).
        fetched += open
            .fetch(&mut *read, |chunk, _| matches!(chunk, Chunk::Column(4 | 5)))
            .unwrap();
        assert_eq!(log.borrow().len(), 5);
        // Provenance of one zone: four chunks in four columns, four reads;
        // its timestamps alone were one of them.
        fetched += open
            .fetch(&mut *read, |chunk, z| chunk == Chunk::Timestamps && z == 2)
            .unwrap();
        assert_eq!(log.borrow().len(), 6);
        assert_eq!(
            open.zone_timestamps(2).unwrap().len(),
            2_500 - 2 * ZONE_ROWS
        );
        fetched += open
            .fetch(&mut *read, |chunk, z| {
                !matches!(chunk, Chunk::Column(_)) && z == 2
            })
            .unwrap();
        assert_eq!(log.borrow().len(), 9);
        let metas = open.zone_metas(2).unwrap();
        assert_eq!(metas, block.zone_metas(2).unwrap());
        let fifth: Vec<usize> = (0..metas.len()).step_by(5).collect();
        let picked: Vec<RowMeta> = fifth.iter().map(|&i| metas[i]).collect();
        assert_eq!(open.zone_metas_at(2, &fifth).unwrap(), picked);
        let ts: Vec<Timestamp> = metas.iter().map(|m| m.ts).collect();
        assert_eq!(open.zone_timestamps(2).unwrap(), ts);
        assert_eq!(open.zone_newest(2), ts.iter().copied().max());
        // What is held is not read again.
        fetched += open
            .fetch(&mut *read, |chunk, _| chunk == Chunk::Column(5))
            .unwrap();
        assert_eq!(log.borrow().len(), 9);
        // The rest, and the block reads as the one that was built.
        fetched += open.fetch(&mut *read, |_, _| true).unwrap();
        assert_eq!(open.rows().unwrap(), block.rows().unwrap());
        assert_eq!(fetched.reads as usize, log.borrow().len());
        assert_eq!(fetched.bytes as usize, file.len(), "every byte once");
        // What it keeps is the index and every cell, once: the built block's.
        let cells: usize = block
            .cells
            .iter()
            .filter_map(|c| c.get())
            .map(Vec::len)
            .sum();
        assert_eq!(fetched.kept, index_len + cells as u64);

        // A full read of a block opened by its index is one read more.
        log.borrow_mut().clear();
        let (whole, index) = RosBlock::open_index(file.len() as u64, &key, 9, &mut *read).unwrap();
        let body = whole.fetch(&mut *read, |_, _| true).unwrap();
        assert_eq!(log.borrow().len(), 3);
        assert_eq!(log.borrow()[2].0, 0, "the body, from its first byte");
        assert_eq!(
            (body.reads, index.bytes + body.bytes),
            (1, file.len() as u64)
        );
        assert_eq!(whole.to_bytes(&key, 9), file, "and seals to the same file");
    }

    /// Nothing of a file is trusted before a CRC has covered it, nothing
    /// is sized by what the file says before the bytes are there to back
    /// it, and a chunk is only checked by the read that needs it.
    #[test]
    fn every_truncation_flip_and_tail_is_handled() {
        use crate::tally::largest_request;
        use rand::{Rng, SeedableRng};
        // Two zones; NULLs, Struct and Array cells, mixed types.
        let block = any_block(false);
        assert!(block.chunks.iter().any(|c| c.compressed), "a vsnap chunk");
        let key = Key::derive_from_passphrase("fuzz");
        let file = block.to_bytes(&key, 11);
        let want = block.rows().unwrap();
        // A decoded row takes more memory than its bytes in the file, and
        // a vector that grows asks for twice what it holds.
        let bound = |len: usize| 64 * len + 4096;
        // Every third row of a zone, for the positional entry.
        let third = |block: &RosBlock, z: usize| -> Vec<usize> {
            (0..block.zone_range(z).len()).step_by(3).collect()
        };
        let read_whole = |bytes: &[u8]| {
            let (rows, largest) = largest_request(|| {
                let block = RosBlock::from_bytes(bytes, &key, 11)?;
                for z in 0..block.zone_count() {
                    let metas = block.zone_metas_at(z, &third(&block, z))?;
                    assert_eq!(metas.len(), third(&block, z).len());
                    for col in 0..block.column_count() {
                        block.decode_zone_at(col, z, &third(&block, z))?;
                    }
                }
                block.rows()
            });
            assert!(
                largest <= bound(bytes.len()),
                "{largest} bytes requested for {} of input",
                bytes.len()
            );
            rows
        };
        let refused = |bytes: &[u8], what: &dyn std::fmt::Display| match read_whole(bytes) {
            Err(VortexError::CorruptData(_) | VortexError::Decode(_)) => {}
            other => panic!("{what}: {:?}", other.map(|rows| rows.len())),
        };
        assert_eq!(read_whole(&file).unwrap(), want);
        // The index's zone sums read back, down to a zone of `i64::MIN`s.
        // A NULL count past its zone's rows, a sum its other rows cannot
        // make, or a sum on a provenance chunk, is refused.
        let sums = |block: &RosBlock| block.chunks.iter().map(|c| c.sum).collect::<Vec<_>>();
        let back = RosBlock::from_bytes(&file, &key, 11).unwrap();
        assert_eq!(sums(&back), sums(&block));
        let summed = block.chunks.iter().position(|c| c.sum.is_some());
        let summed = summed.expect("an Int64 zone");
        let (col, z) = (summed / block.zone_count(), summed % block.zone_count());
        let rows = block.zone_range(z).len();
        let least = -((rows as i128) << 63);
        let provenance = block.column_count() * block.zone_count();
        for (i, sum, nulls, held) in [
            (summed, 0, rows, true),
            (summed, least, 0, true),
            (summed, least - 1, 0, false),
            (summed, 0, rows + 1, false),
            (summed, -1, rows, false),
            (provenance, 0, 0, false),
        ] {
            let mut edited = block.clone();
            edited.chunks[i].sum = Some((sum, nulls));
            let opened = RosBlock::from_bytes(&edited.to_bytes(&key, 11), &key, 11);
            match held {
                true => assert_eq!(
                    opened.unwrap().zone_sum(col, z),
                    Some((sum, (rows - nulls) as u64))
                ),
                false => assert!(
                    matches!(opened, Err(VortexError::Decode(_))),
                    "{sum}, {nulls}"
                ),
            }
        }
        for cut in 0..file.len() {
            refused(&file[..cut], &format_args!("cut at {cut}"));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0305);
        for len in [1usize, 17, 18, 19, 500] {
            let mut padded = file.clone();
            padded.extend((0..len).map(|_| rng.gen_range(0..=u8::MAX)));
            refused(&padded, &format_args!("{len} more bytes"));
        }
        // A flip anywhere fails the full read. One in the body leaves the
        // index intact, and every chunk but the one it hit readable.
        let log = std::cell::RefCell::new(Vec::new());
        let zones = block.zone_count();
        for _ in 0..3_000 {
            let mut bad = file.clone();
            let at = rng.gen_range(0..bad.len());
            bad[at] ^= 1u8 << rng.gen_range(0..8u32);
            refused(&bad, &format_args!("flip at {at}"));
            let mut read = ranges_of(&bad, &log);
            let hit =
                (block.chunks.iter()).position(|c| (c.offset..c.offset + c.len).contains(&at));
            let open = RosBlock::open_index(bad.len() as u64, &key, 11, &mut *read);
            let Some(hit) = hit else {
                assert!(
                    matches!(open, Err(VortexError::CorruptData(_))),
                    "flip at {at}"
                );
                continue;
            };
            let ((open, _), hit) = (open.unwrap(), (hit / zones, hit % zones));
            let others = |col: usize, z: usize| col < block.column_count() && (col, z) != hit;
            let column = |chunk| match chunk {
                Chunk::Column(c) => c,
                _ => usize::MAX,
            };
            open.fetch(&mut *read, |chunk, z| others(column(chunk), z))
                .unwrap();
            for (col, z) in (0..block.column_count()).flat_map(|c| (0..zones).map(move |z| (c, z)))
            {
                if others(col, z) {
                    let got = open.decode_zone(col, z).unwrap().to_values();
                    let same = got.iter().zip(&want[block.zone_range(z)]);
                    assert!(same.clone().all(|(g, (_, row))| g.key_eq(&row.values[col])));
                    assert_eq!(same.count(), block.zone_range(z).len());
                    let rows = third(&block, z);
                    let picked = open.decode_zone_at(col, z, &rows).unwrap().to_values();
                    assert_eq!(picked.len(), rows.len());
                    assert!((picked.iter().zip(&rows)).all(|(g, &i)| g.key_eq(&got[i])));
                }
            }
            let damaged = open.fetch(&mut *read, |_, _| true);
            assert!(
                matches!(damaged, Err(VortexError::CorruptData(_))),
                "flip at {at}"
            );
            // A run that fails keeps nothing: the damaged cell stays empty.
            assert!(open.cell(hit.0 * zones + hit.1).is_none(), "flip at {at}");
        }
    }

    /// The last file ROS v2 wrote here (three rows of `all_null_block`'s
    /// schema, key "pinned", block id 42, from the commit before v3): it
    /// ends in a CRC of everything before it, which is no v3 trailer.
    #[test]
    fn a_v2_file_is_refused() {
        #[rustfmt::skip]
        const V2: [u8; 136] = [
            0xdc, 0xbd, 0xa9, 0xb4, 0xd4, 0xf0, 0x40, 0x79, 0xb3, 0x28, 0x5b, 0x1f, 0x5b, 0x1e, 0xf0, 0x1c,
            0x50, 0x28, 0x8d, 0x81, 0x6b, 0x32, 0xd8, 0x45, 0x6e, 0x6b, 0x92, 0x25, 0x11, 0xe2, 0x4c, 0xdb,
            0xfa, 0x74, 0xb2, 0x45, 0x9a, 0x35, 0x31, 0x57, 0x3a, 0x74, 0x21, 0x66, 0xf8, 0x54, 0xb5, 0x77,
            0x9a, 0xd5, 0x68, 0xc6, 0xc2, 0xe8, 0x09, 0x75, 0x10, 0xd0, 0xcf, 0xaf, 0x66, 0x12, 0xf2, 0x98,
            0xe7, 0x22, 0xb3, 0xb0, 0x4f, 0x2a, 0xaa, 0x8f, 0x5c, 0x93, 0x8f, 0xcb, 0xb5, 0x65, 0x63, 0x78,
            0xed, 0x4c, 0x35, 0x0f, 0xe4, 0xa1, 0xcc, 0x44, 0x3d, 0x7f, 0x31, 0xde, 0xc6, 0x37, 0x0b, 0x0a,
            0x10, 0x69, 0x24, 0x2f, 0x5c, 0x32, 0xa8, 0x76, 0xc2, 0x19, 0x53, 0x65, 0x50, 0x31, 0x34, 0x59,
            0x48, 0x2f, 0x8a, 0xb2, 0xc2, 0x2c, 0x9c, 0x9e, 0x6b, 0x4a, 0x2b, 0x63, 0xca, 0x53, 0x6e, 0x1c,
            0x77, 0xd8, 0x54, 0x0e, 0xa3, 0xef, 0xdc, 0x61,
        ];
        // It is the v2 file it says it is: sealed by its last four bytes.
        assert_eq!(crc32c(&V2[..132]) as u128, le_uint(&V2[132..]));
        let opened = RosBlock::from_bytes(&V2, &Key::derive_from_passphrase("pinned"), 42);
        assert!(
            matches!(
                opened,
                Err(VortexError::CorruptData(_) | VortexError::Decode(_))
            ),
            "{:?}",
            opened.map(|block| block.row_count())
        );
    }

    /// A block converted 1:1 from a log file keeps every partition the
    /// file held, so both its key columns feed the bloom filter about a
    /// key per row. Sized for the rows, as it used to be, the filter ran
    /// at twice its load and let through one absent key in six.
    #[test]
    fn the_bloom_filter_is_sized_for_the_keys_it_holds() {
        let schema = small_schema(); // partitioned by `day`, clustered by `name`
        let mut b = RosBlockBuilder::new(&schema);
        for i in 0..4_096i64 {
            let name = Value::String(format!("name-{i:05}"));
            let values = vec![Value::Int64(i), name, Value::Date(i as i32)];
            b.push(meta(i as u64), Row::insert(values)).unwrap();
        }
        let block = b.build(false).unwrap();
        assert_eq!(block.bloom().len(), 2 * 4_096, "each distinct key once");
        let present = |v: Value| block.bloom().may_contain(&v.encode_key());
        assert!((0..4_096).all(|i| present(Value::Date(i))));
        assert!((0..4_096).all(|i| present(Value::String(format!("name-{i:05}")))));
        let absent = (0..20_000).filter(|i| present(Value::String(format!("absent-{i}"))));
        let rate = absent.count() as f64 / 20_000.0;
        assert!(
            rate < 2.5 * BLOOM_FALSE_POSITIVES,
            "false positives: {rate}"
        );
        // Cells that repeat are one key: a partition-split block's one
        // partition value is not a key per row.
        let mut b = RosBlockBuilder::new(&schema);
        for i in 0..1_000i64 {
            let name = Value::String(format!("name-{}", i % 10));
            let values = vec![Value::Int64(i), name, Value::Null];
            b.push(meta(i as u64), Row::insert(values)).unwrap();
        }
        assert_eq!(b.build(true).unwrap().bloom().len(), 10 + 1);
    }

    // ---- The paths the typed build replaced, as its oracles --------------

    /// A row of decoded leaf vectors, one per column: the vectors, the
    /// row's provenance, its index in them.
    type RowRef<'a> = (&'a [ColumnVec], &'a RowMeta, usize);

    /// The clustering order of two rows as the builder compared them
    /// before typed keys: by the cells of the columns `keys` under
    /// `Value::total_cmp`, ties by provenance.
    fn clustering_order(keys: &[usize], a: RowRef<'_>, b: RowRef<'_>) -> std::cmp::Ordering {
        let by_key = |&c: &usize| a.0[c].cmp_rows(a.2, &b.0[c], b.2);
        let by_key = keys.iter().map(by_key).find(|ord| ord.is_ne());
        by_key.unwrap_or_else(|| a.1.order_key().cmp(&b.1.order_key()))
    }

    /// The bloom filter the builder made by hashing: each key column of
    /// the block's rows, as the block stores them, numbered by its cells'
    /// encoded keys.
    fn hashed_bloom(block: &RosBlock, key_cols: &[usize]) -> BloomFilter {
        use crate::encoding::tests::reference_dictionary;
        let stored = |k: usize| {
            let mut col = ColumnBuilder::default();
            for z in 0..block.zone_count() {
                let every: Vec<usize> = block.zone_range(z).map(|i| i - z * ZONE_ROWS).collect();
                col.add_rows(&block.decode_zone(k, z).unwrap().into_leaf(&every), every);
            }
            col.into_column()
        };
        let cols: Vec<ColumnVec> = key_cols.iter().map(|&k| stored(k)).collect();
        let firsts = |col: &ColumnVec| reference_dictionary(col, usize::MAX).unwrap().0;
        let firsts: Vec<Vec<usize>> = cols.iter().map(firsts).collect();
        let distinct = firsts.iter().map(Vec::len).sum::<usize>();
        let mut bloom = BloomFilter::with_capacity(distinct.max(16), BLOOM_FALSE_POSITIVES);
        for (col, rows) in cols.iter().zip(&firsts) {
            for &i in rows {
                let mut key = Vec::new();
                col.key_into(i, &mut key);
                bloom.insert(&key);
            }
        }
        bloom
    }

    /// A block's bloom filter, its key columns' distinct cells found from
    /// their runs where a column does not decrease in block order, is byte
    /// for byte the one hashing every key column made: a sorted key and
    /// an unsorted one, a constant and an all-NULL partition column, a
    /// 1:1-converted block (partitions in arrival order) and the blocks
    /// one reclustered partition splits into.
    #[test]
    fn the_bloom_from_sorted_runs_is_the_hashed_one() {
        let schema = small_schema(); // key columns: `day`, then `name`
        let key_cols = RosBlockBuilder::new(&schema).shape.key_cols;
        assert_eq!(key_cols, [2, 1]);
        let mut mix = Mix(47);
        let mut rows = |day: &dyn Fn(usize) -> Value| {
            let mut b = RosBlockBuilder::new(&schema);
            for i in 0..3_000 {
                let name = Value::String(format!("name-{:03}", mix.next() % 700));
                let values = vec![Value::Int64(i as i64), name, day(i)];
                b.push(pinned_meta(i, i as u64 % 7), Row::insert(values))
                    .unwrap();
            }
            b
        };
        let mut blocks = vec![
            // Arrival order: `day` runs up, `name` is unsorted.
            rows(&|i| Value::Date((i / 700) as i32))
                .build(false)
                .unwrap(),
            // Clustered: `name` runs up, `day` is unsorted.
            rows(&|i| Value::Date((i % 5) as i32)).build(true).unwrap(),
            // One partition: `day` is one run, or all NULL.
            rows(&|_| Value::Date(4)).build(true).unwrap(),
            rows(&|_| Value::Null).build(true).unwrap(),
        ];
        let split = rows(&|_| Value::Date(9)).build_clustered(1_100, |block| {
            blocks.push(block);
            Ok(())
        });
        split.unwrap();
        assert_eq!(blocks.len(), 4 + 3);
        for (k, block) in blocks.iter().enumerate() {
            let want = hashed_bloom(block, &key_cols);
            assert_eq!(block.bloom().to_bytes(), want.to_bytes(), "block {k}");
        }
    }

    /// The bloom filter as the builder made it before the zone pass: each
    /// key column gathered in block order again, its distinct rows found
    /// from that whole column.
    fn reference_block_bloom(key_cols: &[usize], cols: &[ColumnVec], order: &[u32]) -> BloomFilter {
        let in_order = |&k: &usize| {
            let mut leaf = ColumnBuilder::default();
            leaf.add_rows(&cols[k], order.iter().map(|&i| i as usize));
            leaf.into_column()
        };
        let keys: Vec<ColumnVec> = key_cols.iter().map(in_order).collect();
        let firsts: Vec<Vec<usize>> = keys
            .iter()
            .map(crate::encoding::tests::distinct_rows)
            .collect();
        let distinct: usize = firsts.iter().map(Vec::len).sum();
        let mut bloom = BloomFilter::with_capacity(distinct.max(16), BLOOM_FALSE_POSITIVES);
        let mut key = Vec::new();
        for (col, rows) in keys.iter().zip(&firsts) {
            for &i in rows {
                key.clear();
                col.key_into(i, &mut key);
                bloom.insert(&key);
            }
        }
        bloom
    }

    mod properties {
        use super::*;
        use crate::encoding::tests::leaf;
        use crate::encoding::tests::properties::{column_strategy, shaped_column_strategy};
        use proptest::prelude::*;

        /// A numeric cell near 2^53 or zero, of any numeric type, or a
        /// String between them.
        fn numeric_tie() -> impl Strategy<Value = Value> {
            let big = 1i64 << 53;
            (0u8..5, -2i64..3).prop_map(move |(kind, k)| match kind {
                0 => Value::Int64(big + k),
                1 => Value::Float64((big + 2 * k) as f64),
                2 => Value::Numeric((big + k) as i128 * 1_000_000_000 + k as i128),
                3 => [
                    Value::Int64(k),
                    Value::Float64(k as f64),
                    Value::Float64(-0.0),
                ][k.rem_euclid(3) as usize]
                    .clone(),
                _ => Value::String(format!("{k}")),
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The typed-key order is what a stable sort under the cell
            /// comparator gives: over NULLs, NaN and -0.0, Date and
            /// Timestamp extremes, strings, `Any` cells — numerics of
            /// every type among them, equal across types or apart by less
            /// than a float tells — one key column or two, duplicate keys
            /// and provenance that ties.
            #[test]
            fn typed_key_order_is_the_comparators(
                first in shaped_column_strategy(),
                second in prop_oneof![
                    shaped_column_strategy(),
                    column_strategy(),
                    proptest::collection::vec(numeric_tie(), 0..60),
                ],
                keys in 0usize..4,
                seed in any::<u64>(),
            ) {
                let n = first.len();
                let cycled = |i: usize| second.get(i % second.len().max(1)).cloned();
                let second: Vec<Value> = (0..n).map(|i| cycled(i).unwrap_or(Value::Null)).collect();
                let cols = [leaf(&first), leaf(&second)];
                let keys: &[usize] = [&[0][..], &[1], &[0, 1], &[1, 0]][keys];
                let mut mix = Mix(seed);
                let metas: Vec<RowMeta> = (0..n).map(|i| {
                    let r = mix.next();
                    let ts = Timestamp(r % 3);
                    RowMeta { ts, stream: r >> 8 & 1, offset: (r >> 16) % 3, ..pinned_meta(i, r) }
                }).collect();
                let mut want: Vec<usize> = (0..n).collect();
                let row = |i: usize| (&cols[..], &metas[i], i);
                want.sort_by(|&a, &b| clustering_order(keys, row(a), row(b)));
                let got: Vec<usize> = clustered(keys, &cols, &metas).iter().map(|&i| i as usize).collect();
                prop_assert_eq!(got, want);
            }
        }

        /// A key cell of one family: Int64, Timestamp at its extremes,
        /// Float64 with NaN and -0.0, a string, or — mixed — an Int64 or a
        /// string; NULL one cell in `nulls` (never when 0).
        fn key_cell(family: u8, k: u64, r: u64, nulls: u64) -> Value {
            if nulls > 0 && r % nulls == 0 {
                return Value::Null;
            }
            match (family, k % 4) {
                (0, _) => Value::Int64(k as i64 - 20),
                (1, 0) => Value::Timestamp(Timestamp::from_micros(u64::MAX - k)),
                (1, _) => Value::Timestamp(Timestamp::from_micros(k)),
                (2, 0) => Value::Float64(f64::NAN),
                (2, 1) => Value::Float64(-0.0),
                (2, _) => Value::Float64(k as f64 / 4.0),
                (3, _) => Value::String(format!("key-{k:04}")),
                (_, 0) => Value::String(format!("{k}")),
                _ => Value::Int64(k as i64),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The bloom filter from the zone pass's runs is byte for byte
            /// the one numbered from each key column gathered whole: keys
            /// of few values whose runs cross zone boundaries and of many,
            /// blocks of one zone and of several, sorted (a clustered
            /// build, the blocks a split makes) and not (a 1:1 build), a
            /// partition column constant, random or ascending within each
            /// zone and falling at the next, with NULLs, mixed cells.
            #[test]
            fn the_bloom_from_zones_is_block_bloom(
                (n, distinct, family, nulls) in (1usize..3_500, 1u64..3_000, 0u8..5, 0u64..4),
                (partition, sorted, split, seed) in (0u8..3, any::<bool>(), 500usize..2_500, any::<u64>()),
            ) {
                let schema = Schema::new(vec![
                    Field::required("v", FieldType::Int64),
                    Field::nullable("c", FieldType::String),
                    Field::nullable("p", FieldType::Int64),
                    Field::nullable("d", FieldType::String),
                ])
                .with_partition("p", PartitionTransform::Identity)
                .with_clustering(&["c", "d"]);
                let mut mix = Mix(seed);
                let mut builders = [RosBlockBuilder::new(&schema), RosBlockBuilder::new(&schema)];
                for i in 0..n {
                    let (r, s) = (mix.next(), mix.next());
                    let p = match partition {
                        0 => Value::Int64(5),
                        1 => key_cell(0, r % 3, s, nulls),
                        _ => Value::Int64((i % ZONE_ROWS) as i64 / 100),
                    };
                    let values = vec![
                        Value::Int64(i as i64),
                        key_cell(family, r % distinct, s >> 8, nulls),
                        p,
                        key_cell(family, s % 7, r >> 8, nulls),
                    ];
                    for b in &mut builders {
                        b.push(pinned_meta(i, r), Row::insert(values.clone())).unwrap();
                    }
                }
                let [built, twin] = builders;
                let (shape, cols, metas) = twin.columns();
                let order = match sorted {
                    true => clustered(&shape.clustering_idx, &cols, &metas),
                    false => (0..n as u32).collect(),
                };
                let want = reference_block_bloom(&shape.key_cols, &cols, &order);
                let block = shape.build(&cols, &metas, &order);
                prop_assert_eq!(block.bloom().to_bytes(), want.to_bytes());
                let mut blocks = Vec::new();
                let put = |b| {
                    blocks.push(b);
                    Ok(())
                };
                built.build_clustered(split, put).unwrap();
                let order = clustered(&shape.clustering_idx, &cols, &metas);
                for (b, rows) in blocks.iter().zip(order.chunks(split)) {
                    let want = reference_block_bloom(&shape.key_cols, &cols, rows);
                    prop_assert_eq!(b.bloom().to_bytes(), want.to_bytes());
                }
            }
        }
    }

    // ---- The index's zone sums -------------------------------------------

    /// An `Int64` cell of the shapes the chooser stores differently: small
    /// (IntPack), arithmetic (IntPack with deltas; width 0 with no noise),
    /// the whole range (width 64), a few wide values (DictV2), long runs
    /// of them (RleV2) and a constant (a DictV2 of one entry).
    fn int_cell(shape: u8, r: u64, i: usize) -> i64 {
        match shape {
            0 => (r % 2_000) as i64 - 1_000,
            1 => 1_000 + 7 * i as i64 + (r % 3) as i64,
            2 => 1_000 - 7 * i as i64,
            3 => r as i64,
            4 => [i64::MIN, -1, i64::MAX, 1 << 40][r as usize % 4],
            5 => [i64::MIN, i64::MAX, 5][i / 200 % 3],
            _ => -77,
        }
    }

    /// A `Float64` cell of the shapes the chooser stores differently, or
    /// the index sums differently: decimals (Alp), whole mantissas of both
    /// signs (Alp of patches), a constant, magnitudes too far apart for one
    /// mantissa to hold their sum, NaN and infinities now and then, and
    /// zeros of both signs among subnormals.
    fn float_cell(shape: u8, r: u64) -> f64 {
        match shape {
            0 => (r % 100_000) as f64 / 100.0,
            1 => f64::from_bits(r & 1 << 63 | 0x3ff << 52 | r >> 12),
            2 => 2.5,
            3 => [1e300, -1e-300, 7.0][r as usize % 3],
            4 if r % 50 == 0 => f64::NAN,
            5 if r % 97 == 0 => [f64::INFINITY, f64::NEG_INFINITY][r as usize / 97 % 2],
            4 | 5 => (r % 1_000) as f64 - 500.0,
            _ => [-0.0, 0.0, f64::MIN_POSITIVE / 8.0, 1e-310][r as usize % 4],
        }
    }

    /// A block of a nullable `Int64` and a nullable `Float64` column of
    /// `n` cells of `shape`, a NULL where `null` says, sealed and opened
    /// again.
    fn sums_block(shape: u8, n: usize, seed: u64, null: impl Fn(u64) -> bool) -> RosBlock {
        let schema = Schema::new(vec![
            Field::nullable("v", FieldType::Int64),
            Field::nullable("f", FieldType::Float64),
        ]);
        let mut b = RosBlockBuilder::new(&schema);
        let mut mix = Mix(seed);
        for i in 0..n {
            let r = mix.next();
            let v = match null(r) {
                true => [Value::Null, Value::Null],
                false => [
                    Value::Int64(int_cell(shape, r, i)),
                    Value::Float64(float_cell(shape, r)),
                ],
            };
            b.push(meta(i as u64), Row::insert(v.to_vec())).unwrap();
        }
        let block = b.build(false).unwrap();
        RosBlock::from_bytes(&block.to_bytes(&Key::zero(), 3), &Key::zero(), 3).unwrap()
    }

    /// Every zone's index sums against its decoded cells: their exact
    /// sum and how many are not NULL — none for a column with no value,
    /// which is no `Int64` or `Float64` column, and no float sum where a
    /// cell is NaN or infinite or one mantissa does not hold the sum.
    fn sums_are_the_cells(block: &RosBlock) -> Result<(), String> {
        let valued = (block.rows().unwrap().iter()).any(|(_, row)| !row.values[0].is_null());
        for z in 0..block.zone_count() {
            let cells = block.decode_zone(0, z).unwrap().to_values();
            let ints = cells.iter().filter_map(|v| match v {
                Value::Int64(i) => Some(*i as i128),
                _ => None,
            });
            let want = ints.fold((0, 0), |(sum, n), i| (sum + i, n + 1));
            let got = block.zone_sum(0, z);
            if got != valued.then_some(want) {
                return Err(format!("zone {z}: index {got:?}, cells {want:?}"));
            }
            let cells = block.decode_zone(1, z).unwrap().to_values();
            let (mut sum, mut n) = (ExactSum::default(), 0);
            for v in &cells {
                if let Value::Float64(f) = v {
                    (sum.add(*f), n += 1);
                }
            }
            let want = sum.to_scaled().map(|sum| (sum, n));
            let got = block.zone_float_sum(1, z);
            if got != want.filter(|_| valued) {
                return Err(format!("zone {z}: index {got:?}, float cells {want:?}"));
            }
            if block.zone_sum(1, z).is_some() || block.zone_float_sum(0, z).is_some() {
                return Err(format!("zone {z}: a sum of the other kind"));
            }
        }
        Ok(())
    }

    /// Each shape full and without NULLs takes the encoding it is for, and
    /// its index sums are its cells': the floats' in Alp (decimals, and
    /// patches alone) and in a dictionary, and none for a range too wide,
    /// NaN or an infinity.
    #[test]
    fn every_integer_encoding_is_summed() {
        let mut seen = Vec::new();
        let mut floats = Vec::new();
        for shape in 0..7 {
            let block = sums_block(shape, ZONE_ROWS, 5, |_| false);
            sums_are_the_cells(&block).unwrap();
            let f = &block.chunks[block.zone_count()];
            floats.push((f.enc, f.float_sum.is_some()));
            let chunk = &block.chunks[0];
            let frame = match chunk.enc {
                // Tag, flags, non-null count, the first value of a delta
                // chunk, the base, the width.
                Encoding::IntPack => {
                    let bytes = block.cell(0).unwrap();
                    let pos = &mut 2;
                    get_uvarint(bytes, pos).unwrap();
                    let delta = bytes[1] & 0b10 != 0;
                    if delta {
                        vortex_common::codec::get_ivarint(bytes, pos).unwrap();
                    }
                    vortex_common::codec::get_ivarint(bytes, pos).unwrap();
                    Some((delta, bytes[*pos]))
                }
                _ => None,
            };
            seen.push((chunk.enc, frame));
        }
        let intpack = |delta, width| (Encoding::IntPack, Some((delta, width)));
        assert!(
            matches!(seen[0], (Encoding::IntPack, Some((false, 1..=63)))),
            "{seen:?}"
        );
        assert!(
            matches!(seen[1], (Encoding::IntPack, Some((true, 1..=63)))),
            "{seen:?}"
        );
        assert_eq!(seen[2..4], [intpack(true, 0), intpack(false, 64)]);
        let dict = (Encoding::DictV2, None);
        assert_eq!(seen[4..], [dict, (Encoding::RleV2, None), dict]);
        let (summed, unsummed): (Vec<_>, Vec<_>) = (floats.iter()).partition(|(_, sum)| *sum);
        let encodings = summed.iter().map(|(enc, _)| *enc).collect::<Vec<_>>();
        assert_eq!(unsummed.len(), 3, "{floats:?}");
        for enc in [Encoding::Alp, Encoding::DictV2] {
            assert!(encodings.contains(&enc), "{floats:?}");
        }
    }

    /// A float sum reads back as it was sealed, down to the extremes of
    /// its range; one on a provenance chunk, with a NULL count past its
    /// zone's rows, at a binary exponent no `f64` has, or of a magnitude
    /// or a count of terms its rows cannot make, is refused.
    #[test]
    fn a_float_sum_its_rows_cannot_make_is_refused() {
        let block = sums_block(0, 1_500, 3, |r| r % 5 == 0);
        let key = Key::derive_from_passphrase("float sums");
        let zones = block.zone_count();
        let (z, rows) = (1, block.zone_range(1).len());
        let (col, provenance) = (1, 2 * zones + z);
        let (at, most) = (col * zones + z, i128::MAX);
        for (i, (mantissa, exp2), nulls, held) in [
            (at, (-3, -1074), 0, true),
            (at, (1, 1023), rows - 1, true),
            (at, (most >> 10, 1023 - 117), 0, true),
            (at, (0, 0), rows, true),
            (at, (most, 1023 - 116), 0, false),
            (at, (1, 1023), rows, false),
            (at, (1, -1075), 0, false),
            (at, (1, 1024), 0, false),
            (at, (0, 0), rows + 1, false),
            (provenance, (0, 0), 0, false),
        ] {
            let mut edited = block.clone();
            edited.chunks[i].float_sum = Some(((mantissa, exp2), nulls));
            let opened = RosBlock::from_bytes(&edited.to_bytes(&key, 11), &key, 11);
            match held {
                true => assert_eq!(
                    opened.unwrap().zone_float_sum(col, z),
                    Some(((mantissa, exp2), (rows - nulls) as u64))
                ),
                false => assert!(
                    matches!(opened, Err(VortexError::Decode(_))),
                    "{mantissa}·2^{exp2}, {nulls} NULLs"
                ),
            }
        }
    }

    mod sum_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The index's sums of every zone are the sums of the cells
            /// the zone decodes to, and their counts the non-NULL ones:
            /// over IntPack with and without deltas, widths 0 and 64,
            /// DictV2 and RleV2, floats of each [`float_cell`] shape, with
            /// no NULL, some, or only NULLs, in zones full and short.
            #[test]
            fn the_index_sum_is_the_decoded_cells_sum(
                shape in 0u8..7,
                n in 1usize..2_600,
                nulls in 0u64..3,
                seed in any::<u64>(),
            ) {
                let null = |r: u64| match nulls {
                    0 => false,
                    1 => r >> 32 & 7 == 0,
                    _ => true,
                };
                let block = sums_block(shape, n, seed, null);
                prop_assert_eq!(sums_are_the_cells(&block), Ok(()));
            }
        }
    }

    // ---- Pinned bytes ---------------------------------------------------

    /// splitmix64: the pinned blocks' only source of randomness.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn pinned_meta(i: usize, r: u64) -> RowMeta {
        let kinds = [ChangeType::Insert, ChangeType::Upsert, ChangeType::Delete];
        RowMeta {
            change_type: kinds[(r % 11 % 3) as usize],
            ts: Timestamp(1_000_000 + r % 5_000),
            stream: 3 + r % 3,
            offset: i as u64,
        }
    }

    fn pinned_build(
        schema: &Schema,
        sort: bool,
        rows: impl IntoIterator<Item = (RowMeta, Vec<Value>)>,
    ) -> RosBlock {
        let mut b = RosBlockBuilder::new(schema);
        for (meta, values) in rows {
            b.push(meta, Row::with_change(values, meta.change_type))
                .unwrap();
        }
        b.build(sort).unwrap()
    }

    /// Every leaf type; `nulls` blanks each column on its own stride.
    fn leaves_block(n: usize, nulls: bool, sort: bool) -> RosBlock {
        let schema = Schema::new(vec![
            Field::nullable("i", FieldType::Int64),
            Field::nullable("f", FieldType::Float64),
            Field::nullable("b", FieldType::Bool),
            Field::nullable("n", FieldType::Numeric),
            Field::nullable("s", FieldType::String),
            Field::nullable("y", FieldType::Bytes),
            Field::nullable("j", FieldType::Json),
            Field::nullable("d", FieldType::Date),
            Field::nullable("t", FieldType::Timestamp),
        ])
        .with_partition("d", PartitionTransform::Date)
        .with_clustering(&["s", "i"]);
        let mut mix = Mix(17);
        let rows = (0..n).map(|i| {
            let r = mix.next();
            let mut values = vec![
                Value::Int64(if i % 3 == 0 {
                    i as i64
                } else {
                    (r % 1_000_000) as i64
                }),
                Value::Float64((r % 100_000) as f64 / 100.0),
                Value::Bool(r >> 7 & 3 == 0),
                Value::Numeric((r as i64 as i128) * 1_000_003),
                Value::String(format!("cust-{:05}", r % 300)),
                Value::Bytes((0..r % 13).map(|k| (r >> (k * 4)) as u8 & 0x0F).collect()),
                Value::Json(format!(r#"{{"k":{},"tag":"t{}"}}"#, r % 97, r % 5)),
                Value::Date(19_000 + (r % 5) as i32),
                Value::Timestamp(Timestamp(1_700_000_000_000_000 + i as u64 * 1_000)),
            ];
            if nulls {
                for (c, v) in values.iter_mut().enumerate() {
                    if (i + c) % (5 + c) == 0 {
                        *v = Value::Null;
                    }
                }
            }
            (pinned_meta(i, r), values)
        });
        pinned_build(&schema, sort, rows.collect::<Vec<_>>())
    }

    fn floats_block() -> RosBlock {
        let schema = Schema::new(vec![
            Field::nullable("x", FieldType::Float64),
            Field::nullable("y", FieldType::Float64),
        ])
        .with_clustering(&["x"]);
        let odd = [
            f64::NAN,
            -0.0,
            0.0,
            f64::from_bits(0xFFF8_0000_0000_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            std::f64::consts::PI,
            1.0 / 3.0,
            1e300,
            -2.5,
        ];
        let mut mix = Mix(23);
        let rows = (0..1_428usize).map(|i| {
            let r = mix.next();
            let x = match r % 4 {
                0 => Value::Float64(odd[(r >> 8) as usize % odd.len()]),
                1 => Value::Null,
                2 => Value::Float64((r >> 8) as f64 / 7.0),
                _ => Value::Float64(((r >> 8) % 1_000) as f64 / 8.0),
            };
            let y = match i % 50 {
                0 => Value::Float64(odd[i / 50 % odd.len()]),
                _ => Value::Float64(((r >> 16) % 50_000) as f64 / 100.0 + 9.99),
            };
            (pinned_meta(i, r), vec![x, y])
        });
        pinned_build(&schema, true, rows.collect::<Vec<_>>())
    }

    fn extremes_block() -> RosBlock {
        let schema = Schema::new(vec![
            Field::nullable("i", FieldType::Int64),
            Field::nullable("d", FieldType::Date),
            Field::nullable("t", FieldType::Timestamp),
            Field::nullable("u", FieldType::Timestamp),
        ])
        .with_clustering(&["t", "d"]);
        let ts = [0, u64::MAX, 1 << 63, (1 << 63) - 1, 1_700_000_000_000_000];
        let mut mix = Mix(29);
        let rows = (0..1_100usize).map(|i| {
            let r = mix.next();
            let values = vec![
                match i % 4 {
                    0 => Value::Int64(i64::MIN),
                    1 => Value::Int64(i64::MAX),
                    2 => Value::Null,
                    _ => Value::Int64(r as i64),
                },
                Value::Date(match i % 3 {
                    0 => i32::MIN,
                    1 => i32::MAX,
                    _ => r as i32,
                }),
                match r % 7 {
                    0 => Value::Null,
                    k => Value::Timestamp(Timestamp(ts[k as usize % ts.len()])),
                },
                Value::Timestamp(Timestamp(if i < 1_024 { i as u64 * 3 } else { r })),
            ];
            (pinned_meta(i, r), values)
        });
        pinned_build(&schema, true, rows.collect::<Vec<_>>())
    }

    fn strings_block() -> RosBlock {
        let schema = Schema::new(vec![
            Field::nullable("s", FieldType::String),
            Field::nullable("j", FieldType::Json),
            Field::nullable("y", FieldType::Bytes),
            Field::nullable("w", FieldType::String),
        ])
        .with_clustering(&["s"]);
        let mut mix = Mix(31);
        let rows = (0..1_428usize).map(|i| {
            let r = mix.next();
            // Two- to five-letter alphabets with NUL, empties, tails
            // shorter than a symbol, and a few values past the sample.
            let alphabet = [b'a', 0, b'b', b'c', 0xC3];
            let width = 2 + (i / 400) % 4;
            let len = match r % 9 {
                0 => 0,
                1 => 600,
                k => (k * 3) as usize,
            };
            let raw: Vec<u8> = (0..len)
                .map(|k| alphabet[(r.rotate_left(k as u32 * 5) % width as u64) as usize])
                .collect();
            let text: String = raw
                .iter()
                .map(|&b| if b == 0xC3 { 'é' } else { b as char })
                .collect();
            let values = vec![
                if i % 13 == 5 {
                    Value::Null
                } else {
                    Value::String(text)
                },
                Value::Json(format!(r#"{{"region":"us-{}","n":{}}}"#, r % 4, r % 1_000)),
                if i % 4 == 1 {
                    Value::Null
                } else {
                    Value::Bytes(raw)
                },
                Value::String(format!("a-rather-long-category-name-{}", (r >> 20) % 6)),
            ];
            (pinned_meta(i, r), values)
        });
        pinned_build(&schema, true, rows.collect::<Vec<_>>())
    }

    fn all_null_block(n: usize) -> RosBlock {
        let schema = Schema::new(vec![
            Field::required("k", FieldType::Int64),
            Field::nullable("gone", FieldType::Int64),
        ])
        .with_clustering(&["gone", "k"]);
        let rows = (0..n).map(|i| {
            let values = vec![Value::Int64((i as i64 * 7_919) % 1_000), Value::Null];
            (pinned_meta(i, i as u64 * 31), values)
        });
        pinned_build(&schema, true, rows.collect::<Vec<_>>())
    }

    /// A column of mixed types (numeric ties across types included) next
    /// to Struct and Array columns. Unsorted, zone 0 of `m` is all Int64
    /// and zone 1 all String, so each zone is typed though the column is
    /// not.
    fn any_block(sort: bool) -> RosBlock {
        let schema = Schema::new(vec![
            Field::nullable("m", FieldType::Int64),
            Field::nullable("mixed", FieldType::Int64),
            Field::nullable(
                "st",
                FieldType::Struct(vec![
                    Field::nullable("a", FieldType::Int64),
                    Field::nullable("b", FieldType::String),
                ]),
            ),
            Field::repeated("arr", FieldType::Int64),
        ])
        .with_clustering(&["mixed", "m"]);
        let mut mix = Mix(37);
        let rows = (0..1_428usize).map(|i| {
            let r = mix.next();
            let values = vec![
                if i < 1_024 {
                    Value::Int64((r % 50) as i64)
                } else {
                    Value::String(format!("late-{}", r % 50))
                },
                match r % 6 {
                    0 => Value::Int64(3),
                    1 => Value::Float64(3.0),
                    2 => Value::String(format!("s{}", r % 9)),
                    3 => Value::Null,
                    4 => Value::Numeric(3_000_000_000),
                    _ => Value::Date((r % 4) as i32),
                },
                match r % 5 {
                    0 => Value::Null,
                    k => Value::Struct(vec![
                        Value::Int64(k as i64),
                        Value::String(format!("b{}", r % 3)),
                    ]),
                },
                Value::Array((0..r % 4).map(|k| Value::Int64(k as i64)).collect()),
            ];
            (pinned_meta(i, r), values)
        });
        pinned_build(&schema, sort, rows.collect::<Vec<_>>())
    }

    /// Duplicate clustering keys: order falls to `order_key`, and rows
    /// whose `order_key`s are equal too keep their insertion order.
    fn ties_block() -> RosBlock {
        let schema = small_schema();
        let rows = (0..300usize).map(|i| {
            let meta = RowMeta {
                change_type: ChangeType::Upsert,
                ts: Timestamp(2_000_000 - (i as u64 / 4) % 5),
                stream: 9 - (i as u64 / 2) % 2,
                offset: 40 - (i as u64 % 40) / 2,
            };
            let values = vec![
                Value::Int64(i as i64),
                Value::String(format!("k{}", i % 3)),
                Value::Date((i % 2) as i32),
            ];
            (meta, values)
        });
        pinned_build(&schema, true, rows.collect::<Vec<_>>())
    }

    /// Columns shaped for each encoding: runs, few distinct values, a
    /// sequence, noise, a constant.
    fn shapes_block() -> RosBlock {
        let schema = Schema::new(vec![
            Field::required("runs", FieldType::Int64),
            Field::required("few", FieldType::String),
            Field::required("seq", FieldType::Int64),
            Field::required("noise", FieldType::Int64),
            Field::required("same", FieldType::String),
            Field::required("flag", FieldType::Bool),
            Field::required("day", FieldType::Date),
        ]);
        let mut mix = Mix(41);
        let rows = (0..2_100usize).map(|i| {
            let r = mix.next();
            let values = vec![
                Value::Int64((i / 170) as i64),
                Value::String(format!("currency-{}", r % 7)),
                Value::Int64(1_000_000 + i as i64 * 3),
                Value::Int64(r as i64),
                Value::String("constant".into()),
                Value::Bool(i / 300 % 2 == 0),
                Value::Date(19_000 + (i / 50) as i32),
            ];
            (pinned_meta(i, r), values)
        });
        pinned_build(&schema, false, rows.collect::<Vec<_>>())
    }

    /// The benchmark's `orders` shape, one target-size block.
    fn orders_block(n: usize) -> RosBlock {
        let schema = Schema::new(vec![
            Field::required("day", FieldType::Int64),
            Field::required("customer", FieldType::String),
            Field::required("amount", FieldType::Int64),
            Field::required("price", FieldType::Float64),
            Field::nullable("note", FieldType::String),
            Field::required("seq", FieldType::Int64),
        ])
        .with_partition("day", PartitionTransform::Identity)
        .with_clustering(&["customer"]);
        let mut mix = Mix(43);
        let rows = (0..n).map(|i| {
            let r = mix.next();
            let values = vec![
                Value::Int64(3),
                Value::String(format!("cust-{:05}", r % 20_000)),
                Value::Int64((r >> 16) as i64 % 1_000_000),
                Value::Float64(((r >> 24) % 100_000) as f64 / 100.0),
                if r % 10 == 0 {
                    Value::Null
                } else {
                    Value::String(format!(
                        "order note {:016x} for the ledger, line {:04}",
                        r, i
                    ))
                },
                Value::Int64(i as i64),
            ];
            (pinned_meta(i, r), values)
        });
        pinned_build(&schema, true, rows.collect::<Vec<_>>())
    }

    /// No hash map's iteration order may reach the encoded bytes: every
    /// map seeds itself anew, so two builds of the same rows — on two
    /// threads — would differ if one did.
    #[test]
    fn two_threads_build_identical_bytes() {
        let sealed = || orders_block(2_500).to_bytes(&Key::zero(), 7);
        let (a, b) = std::thread::scope(|s| {
            let (a, b) = (s.spawn(sealed), s.spawn(sealed));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(crc32c(&a), crc32c(&b));
        assert_eq!(a, b);
    }

    /// Nor may the keys of the hasher the numbering pass runs under: the
    /// bloom filter takes distinct cells and a dictionary first
    /// appearances, neither a hash.
    #[test]
    fn two_hasher_keyings_build_identical_bytes() {
        use crate::encoding::tests::with_hasher_keys;
        let sealed =
            |keys| with_hasher_keys(keys, || orders_block(2_500).to_bytes(&Key::zero(), 7));
        assert_eq!(sealed([1, 2]), sealed([0xDEAD_BEEF, 0x5EED]));
    }

    /// `(len, crc32c)` of `to_bytes` for a fixed set of blocks, recorded
    /// when the index entry of a `Float64` zone gained its exact sum: a
    /// change that moves a stored byte owns up to it here. Every body byte
    /// is as it was at version 3 (FSST's exact symbol lookup emits the
    /// codes the scan of a prefix's symbols did); only the blocks with a
    /// zone of finite floats grew, by 11 to 51 bytes of index.
    #[test]
    fn block_bytes_are_pinned() {
        let key = Key::derive_from_passphrase("pinned");
        let blocks = [
            ("leaves", leaves_block(1_428, false, false)),
            ("leaves sorted", leaves_block(1_428, false, true)),
            ("leaves nulls", leaves_block(1_428, true, false)),
            ("leaves nulls sorted", leaves_block(1_428, true, true)),
            ("leaves one row", leaves_block(1, false, true)),
            ("leaves one zone", leaves_block(1_024, true, true)),
            ("floats", floats_block()),
            ("extremes", extremes_block()),
            ("strings", strings_block()),
            ("all null", all_null_block(1_428)),
            ("all null one row", all_null_block(1)),
            ("any", any_block(false)),
            ("any sorted", any_block(true)),
            ("ties", ties_block()),
            ("shapes", shapes_block()),
            ("orders", orders_block(4_096)),
        ];
        let got: Vec<(&str, usize, u32)> = blocks
            .iter()
            .map(|(name, block)| {
                let bytes = block.to_bytes(&key, 42);
                // What was pinned also reads back.
                let back = RosBlock::from_bytes(&bytes, &key, 42).unwrap();
                for ((gm, g), (wm, w)) in back.rows().unwrap().iter().zip(block.rows().unwrap()) {
                    assert_eq!(*gm, wm, "{name}");
                    assert!(Value::Struct(g.values.clone()).key_eq(&Value::Struct(w.values)));
                }
                // The last four bytes seal the rest (and would make every
                // whole-file CRC the same residue).
                (*name, bytes.len(), crc32c(&bytes[..bytes.len() - 4]))
            })
            .collect();
        let want = [
            ("leaves", 54_153, 0xf10a9ff0),
            ("leaves sorted", 56_721, 0x48be1435),
            ("leaves nulls", 49_804, 0x872d59d5),
            ("leaves nulls sorted", 52_868, 0x67518234),
            ("leaves one row", 655, 0xaac69009),
            ("leaves one zone", 36_958, 0x7e458e6f),
            ("floats", 14_783, 0xc4dab64e),
            ("extremes", 13_702, 0x7afad540),
            ("strings", 41_010, 0x0193fd33),
            ("all null", 6_446, 0xd0ac6b3d),
            ("all null one row", 178, 0xd817f07a),
            ("any", 7_100, 0x2533243b),
            ("any sorted", 8_268, 0x3e67c988),
            ("ties", 726, 0xccd0c6cb),
            ("shapes", 23_475, 0x42b042d7),
            ("orders", 155_505, 0x961ac107),
        ];
        assert_eq!(got, want);
    }
}
