//! ROS blocks: columnar, stats-annotated, bloom-filtered units of
//! read-optimized storage produced by the Storage Optimization Service.

use std::cmp::Ordering;
use std::hash::Hash;

use vortex_common::bloom::BloomFilter;
use vortex_common::codec::{get_uvarint, put_uvarint, take};
use vortex_common::compress::{compress, decompress};
use vortex_common::crc::crc32c;
use vortex_common::crypt::{apply_keystream, Key, Nonce};
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::row::Row;
use vortex_common::schema::{ChangeType, Schema};
use vortex_common::stats::ColumnStats;
use vortex_common::truetime::Timestamp;

use crate::column::{ColumnBuilder, ColumnVec, KeyedRows};
use crate::encoding::{decode_chunk, encode_column, le_uint, Encoding};

const MAGIC: u32 = 0x534F5256; // "VROS"
const VERSION: u16 = 2;

/// Rows per column chunk (zone). Each column is encoded per zone with its
/// own encoding choice and min/max zone map, so scans can short-circuit
/// inside a block, not just at fragment granularity.
pub const ZONE_ROWS: usize = 1024;

/// Chunk flag: the encoded bytes are additionally vsnap-compressed.
const CHUNK_COMPRESSED: u8 = 0b1;

/// One encoded column zone.
#[derive(Debug, Clone)]
struct ColumnChunk {
    enc: Encoding,
    compressed: bool,
    stats: ColumnStats,
    bytes: Vec<u8>,
}

/// Provenance of one row inside a ROS block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// A row of decoded leaf vectors, one per column: the vectors, the row's
/// provenance, its index in them.
pub type RowRef<'a> = (&'a [ColumnVec], &'a RowMeta, usize);

/// The clustering order of two rows: by the cells of the columns `keys`
/// under `Value::total_cmp`, ties by provenance.
pub fn clustering_order(keys: &[usize], a: RowRef<'_>, b: RowRef<'_>) -> Ordering {
    let by_key = |&c: &usize| a.0[c].cmp_rows(a.2, &b.0[c], b.2);
    let by_key = keys.iter().map(by_key).find(|ord| ord.is_ne());
    by_key.unwrap_or_else(|| a.1.order_key().cmp(&b.1.order_key()))
}

/// Builds a [`RosBlock`] from rows plus provenance. Cells are kept as one
/// typed leaf vector per column from the moment they arrive; `build`
/// orders, summarizes and encodes those vectors and never a row.
#[derive(Debug)]
pub struct RosBlockBuilder {
    schema_version: u32,
    clustering_idx: Vec<usize>,
    tracked: Vec<(usize, String)>,
    key_cols: Vec<usize>,
    metas: Vec<RowMeta>,
    cols: Vec<ColumnBuilder>,
}

impl RosBlockBuilder {
    /// A builder for blocks of the given table schema.
    pub fn new(schema: &Schema) -> Self {
        let clustering_idx: Vec<usize> = schema
            .clustering
            .iter()
            .filter_map(|c| schema.column_index(c))
            .collect();
        // Bloom keys: partitioning and clustering columns (§5.4.4).
        let partition = schema.partition.as_ref();
        let partition = partition.and_then(|p| schema.column_index(&p.column));
        let mut key_cols: Vec<usize> = Vec::new();
        for i in partition.into_iter().chain(clustering_idx.iter().copied()) {
            if !key_cols.contains(&i) {
                key_cols.push(i);
            }
        }
        Self {
            schema_version: schema.version,
            clustering_idx,
            // Stats for every scalar top-level column (Big Metadata
            // tracks "fine grained column properties", §6.2).
            tracked: schema.tracked_columns(),
            key_cols,
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

    /// Adds row `i` of decoded leaf vectors, one per column, copying
    /// typed cells straight across.
    pub fn push_row_of(&mut self, meta: RowMeta, cols: &[ColumnVec], i: usize) -> VortexResult<()> {
        self.check_arity(cols.len())?;
        self.metas.push(meta);
        for (col, src) in self.cols.iter_mut().zip(cols) {
            col.add_rows(src, [i]);
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

    /// Finishes the block. With `sort_by_clustering`, rows are ordered by
    /// the clustering key tuple (ties by provenance) — this is what the
    /// local range-partitioning step of automatic reclustering produces
    /// (§6.1). Only a permutation is sorted, on the key columns alone.
    pub fn build(self, sort_by_clustering: bool) -> VortexResult<RosBlock> {
        let n = self.metas.len();
        if n == 0 {
            return Err(VortexError::InvalidArgument(
                "cannot build an empty ROS block".into(),
            ));
        }
        let cols: Vec<ColumnVec> = self
            .cols
            .into_iter()
            .map(ColumnBuilder::into_column)
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        if sort_by_clustering && !self.clustering_idx.is_empty() {
            let row = |&i: &usize| (&cols[..], &self.metas[i], i);
            order.sort_by(|a, b| clustering_order(&self.clustering_idx, row(a), row(b)));
        }
        // A bloom filter holds a set, so the keys go in column by column,
        // through one buffer.
        let mut bloom = BloomFilter::with_capacity(n.max(16), 0.01);
        let mut key = Vec::new();
        for &k in &self.key_cols {
            for i in 0..n {
                key.clear();
                cols[k].key_into(i, &mut key);
                bloom.insert(&key);
            }
        }
        // Encode per zone: each zone's rows are gathered in block order
        // into a leaf vector of their own, which gets its own encoding
        // choice (cascading chooser), zone map, and — when it shrinks the
        // chunk — vsnap compression on top.
        let encode_zone = |col: &ColumnVec, rows: &[usize]| {
            let mut zone = ColumnBuilder::default();
            zone.add_rows(col, rows.iter().copied());
            let zone = zone.into_column();
            let (enc, bytes) = encode_column(&zone);
            let packed = compress(&bytes);
            let compressed = packed.len() < bytes.len();
            ColumnChunk {
                enc,
                compressed,
                stats: summarize_zone(&zone),
                bytes: if compressed { packed } else { bytes },
            }
        };
        let cols: Vec<Vec<ColumnChunk>> = cols
            .iter()
            .map(|col| (order.chunks(ZONE_ROWS).map(|rows| encode_zone(col, rows))).collect())
            .collect();
        // A block's column properties are its zones' merged: in a typed
        // column equal cells are identical, and among mixed cells that
        // compare equal both keep the first.
        let block_stats = |col: usize| {
            let mut stats = ColumnStats::new();
            cols[col].iter().for_each(|chunk| stats.merge(&chunk.stats));
            stats
        };
        Ok(RosBlock {
            schema_version: self.schema_version,
            row_count: n,
            zone_rows: ZONE_ROWS,
            metas: order.iter().map(|&i| self.metas[i]).collect(),
            stats: (self.tracked.into_iter())
                .map(|(col, name)| (name, block_stats(col)))
                .collect(),
            bloom,
            cols,
        })
    }
}

/// The pass behind a typed zone map: the rows of the first smallest and
/// the first largest cell, and whether any row is NULL.
struct Ends;

impl KeyedRows for Ends {
    type Out = (Option<usize>, Option<usize>, bool);

    fn fold_keys<K: Ord + Hash>(self, n: usize, key: impl Fn(usize) -> Option<K>) -> Self::Out {
        let valued = || (0..n).filter(|&i| key(i).is_some());
        // Of equal cells `min_by_key` keeps the first, `max_by_key` the last.
        let lo = valued().min_by_key(|&i| key(i));
        let hi = valued().rev().max_by_key(|&i| key(i));
        (lo, hi, valued().count() < n)
    }
}

/// The zone map of one leaf vector: what [`ColumnStats::observe`] makes
/// of its cells in order.
fn summarize_zone(zone: &ColumnVec) -> ColumnStats {
    let mut stats = ColumnStats::new();
    match zone.with_keys(Ends) {
        Some((lo, hi, has_null)) => {
            stats.count = zone.len() as u64;
            stats.has_null = has_null;
            stats.min = lo.map(|i| zone.value(i));
            stats.max = hi.map(|i| zone.value(i));
        }
        None => (0..zone.len()).for_each(|i| stats.observe(&zone.value(i))),
    }
    stats
}

/// A read-optimized columnar block.
#[derive(Debug, Clone)]
pub struct RosBlock {
    schema_version: u32,
    row_count: usize,
    /// Rows per zone this block was built with (self-describing so the
    /// constant can change without breaking old blocks).
    zone_rows: usize,
    metas: Vec<RowMeta>,
    stats: Vec<(String, ColumnStats)>,
    bloom: BloomFilter,
    /// Per user column: one encoded chunk per zone.
    cols: Vec<Vec<ColumnChunk>>,
}

impl RosBlock {
    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Schema version the rows conform to.
    pub fn schema_version(&self) -> u32 {
        self.schema_version
    }

    /// Per-row provenance.
    pub fn metas(&self) -> &[RowMeta] {
        &self.metas
    }

    /// Number of user columns.
    pub fn column_count(&self) -> usize {
        self.cols.len()
    }

    /// Column properties for a column name, if tracked.
    pub fn stats_for(&self, name: &str) -> Option<&ColumnStats> {
        self.stats.iter().find(|(n, _)| n == name).map(|(_, s)| s)
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

    /// The zone map: min/max/null properties of column `col` within zone
    /// `z`. `None` when either index is out of range.
    pub fn zone_stats(&self, col: usize, z: usize) -> Option<&ColumnStats> {
        self.cols.get(col).and_then(|c| c.get(z)).map(|c| &c.stats)
    }

    /// Decodes one zone of one column into a typed vector, preserving
    /// dictionary/run structure so predicates can be evaluated on the
    /// compressed form.
    pub fn decode_zone(&self, col: usize, z: usize) -> VortexResult<ColumnVec> {
        let chunk = self.cols.get(col).and_then(|c| c.get(z)).ok_or_else(|| {
            VortexError::InvalidArgument(format!("column {col} zone {z} out of range"))
        })?;
        let rows = self.zone_range(z).len();
        if chunk.compressed {
            let plain = decompress(&chunk.bytes)
                .map_err(|e| VortexError::CorruptData(format!("column {col} zone {z}: {e}")))?;
            decode_chunk(chunk.enc, &plain, rows)
        } else {
            decode_chunk(chunk.enc, &chunk.bytes, rows)
        }
    }

    /// Decodes all rows with their provenance. Each `Value` is built
    /// once, from its zone's vector, and moved into its row.
    pub fn rows(&self) -> VortexResult<Vec<(RowMeta, Row)>> {
        let width = self.cols.len();
        let blank = |m: &RowMeta| {
            (
                *m,
                Row::with_change(Vec::with_capacity(width), m.change_type),
            )
        };
        let mut out: Vec<(RowMeta, Row)> = self.metas.iter().map(blank).collect();
        for z in 0..self.zone_count() {
            let zone = &mut out[self.zone_range(z)];
            for c in 0..width {
                let values = self.decode_zone(c, z)?.to_values();
                for ((_, row), v) in zone.iter_mut().zip(values) {
                    row.values.push(v);
                }
            }
        }
        Ok(out)
    }

    /// Serializes and encrypts the block. `block_raw_id` must be unique
    /// per key (the optimizer uses the ROS fragment id) — it seeds the
    /// encryption nonce.
    pub fn to_bytes(&self, key: &Key, block_raw_id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.schema_version.to_le_bytes());
        out.extend_from_slice(&(self.row_count as u64).to_le_bytes());
        out.extend_from_slice(&(self.cols.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.zone_rows as u32).to_le_bytes());
        // Row meta arrays (delta/varint encoded).
        for m in &self.metas {
            out.push(m.change_type.to_u8());
        }
        let mut prev_ts = 0u64;
        for m in &self.metas {
            put_uvarint(&mut out, m.ts.micros().wrapping_sub(prev_ts));
            prev_ts = m.ts.micros();
        }
        for m in &self.metas {
            put_uvarint(&mut out, m.stream);
        }
        for m in &self.metas {
            put_uvarint(&mut out, m.offset);
        }
        // Stats.
        out.extend_from_slice(&(self.stats.len() as u32).to_le_bytes());
        for (name, s) in &self.stats {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&s.to_bytes());
        }
        // Bloom.
        let bloom_bytes = self.bloom.to_bytes();
        out.extend_from_slice(&(bloom_bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&bloom_bytes);
        // Column directory (per column, per zone: encoding, flags, byte
        // length, zone map) then the chunk payloads, column-major.
        for chunks in &self.cols {
            for c in chunks {
                out.push(c.enc.to_u8());
                out.push(if c.compressed { CHUNK_COMPRESSED } else { 0 });
                put_uvarint(&mut out, c.bytes.len() as u64);
                out.extend_from_slice(&c.stats.to_bytes());
            }
        }
        for chunks in &self.cols {
            for c in chunks {
                out.extend_from_slice(&c.bytes);
            }
        }
        // Encrypt, then seal with a ciphertext CRC.
        let nonce = Nonce::for_block(block_raw_id, u32::MAX);
        apply_keystream(key, &nonce, &mut out);
        let crc = crc32c(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Verifies, decrypts, and parses a serialized block.
    pub fn from_bytes(data: &[u8], key: &Key, block_raw_id: u64) -> VortexResult<Self> {
        if data.len() < 4 {
            return Err(VortexError::Decode("ros block too short".into()));
        }
        let (body, crc_bytes) = data.split_at(data.len() - 4);
        if crc32c(body) as u128 != le_uint(crc_bytes) {
            return Err(VortexError::CorruptData("ros block crc mismatch".into()));
        }
        let mut plain = body.to_vec();
        let nonce = Nonce::for_block(block_raw_id, u32::MAX);
        apply_keystream(key, &nonce, &mut plain);
        Self::parse_plain(&plain)
    }

    fn parse_plain(b: &[u8]) -> VortexResult<Self> {
        // The next `n`-byte little-endian integer.
        let int = |pos: &mut usize, n: usize| take(b, pos, n).map(|raw| le_uint(raw) as usize);
        let pos = &mut 0usize;
        if int(pos, 4)? != MAGIC as usize {
            return Err(VortexError::Decode(
                "bad ros magic (wrong key or not a ros block)".into(),
            ));
        }
        let version = int(pos, 2)?;
        if version != VERSION as usize {
            return Err(VortexError::Decode(format!("bad ros version {version}")));
        }
        let schema_version = int(pos, 4)? as u32;
        let row_count = int(pos, 8)?;
        let ncols = int(pos, 4)?;
        let zone_rows = int(pos, 4)?;
        if row_count > b.len() || ncols > b.len() {
            return Err(VortexError::Decode("implausible ros block header".into()));
        }
        if zone_rows == 0 || (row_count > 0 && zone_rows > ZONE_ROWS.max(row_count)) {
            return Err(VortexError::Decode(format!(
                "implausible zone size {zone_rows}"
            )));
        }
        // Meta arrays.
        let mut metas = Vec::with_capacity(row_count);
        for &ct in take(b, pos, row_count)? {
            metas.push(RowMeta {
                change_type: ChangeType::from_u8(ct)?,
                ts: Timestamp(0),
                stream: 0,
                offset: 0,
            });
        }
        let mut prev_ts = 0u64;
        for m in metas.iter_mut() {
            prev_ts = prev_ts.wrapping_add(get_uvarint(b, pos)?);
            m.ts = Timestamp(prev_ts);
        }
        for m in metas.iter_mut() {
            m.stream = get_uvarint(b, pos)?;
        }
        for m in metas.iter_mut() {
            m.offset = get_uvarint(b, pos)?;
        }
        // Stats.
        let nstats = int(pos, 4)?;
        if nstats > b.len() {
            return Err(VortexError::Decode("implausible stats count".into()));
        }
        let mut stats = Vec::with_capacity(nstats);
        for _ in 0..nstats {
            let nlen = int(pos, 2)?;
            let name = std::str::from_utf8(take(b, pos, nlen)?)
                .map_err(|e| VortexError::Decode(format!("stats name: {e}")))?
                .to_string();
            stats.push((name, ColumnStats::from_bytes(b, pos)?));
        }
        // Bloom.
        let blen = int(pos, 4)?;
        let bloom =
            BloomFilter::from_bytes(take(b, pos, blen)?).map_err(VortexError::CorruptData)?;
        // Column directory: per column, per zone.
        let nzones = row_count.div_ceil(zone_rows);
        // Every directory entry costs ≥2 bytes, so more entries than
        // remaining bytes is corrupt — reject before any allocation.
        if ncols.saturating_mul(nzones) > b.len().saturating_sub(*pos) {
            return Err(VortexError::Decode("implausible chunk directory".into()));
        }
        let mut cols: Vec<Vec<ColumnChunk>> = Vec::with_capacity(ncols);
        let mut lens: Vec<usize> = Vec::with_capacity(ncols * nzones);
        for _ in 0..ncols {
            let mut chunks = Vec::with_capacity(nzones);
            for _ in 0..nzones {
                let enc = Encoding::from_u8(int(pos, 1)? as u8)?;
                let flags = int(pos, 1)? as u8;
                if flags & !CHUNK_COMPRESSED != 0 {
                    return Err(VortexError::Decode(format!("bad chunk flags {flags:#x}")));
                }
                let len = get_uvarint(b, pos)? as usize;
                if len > b.len() {
                    return Err(VortexError::Decode(format!(
                        "implausible chunk of {len} bytes"
                    )));
                }
                let stats = ColumnStats::from_bytes(b, pos)?;
                lens.push(len);
                chunks.push(ColumnChunk {
                    enc,
                    compressed: flags & CHUNK_COMPRESSED != 0,
                    stats,
                    bytes: Vec::new(),
                });
            }
            cols.push(chunks);
        }
        let mut next = 0usize;
        for chunks in cols.iter_mut() {
            for c in chunks.iter_mut() {
                c.bytes = take(b, pos, lens[next])?.to_vec();
                next += 1;
            }
        }
        if *pos != b.len() {
            return Err(VortexError::Decode(format!(
                "ros block has {} trailing bytes",
                b.len() - *pos
            )));
        }
        Ok(RosBlock {
            schema_version,
            row_count,
            zone_rows,
            metas,
            stats,
            bloom,
            cols,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(back.schema_version(), block.schema_version());
        // Stats survive.
        let s = back.stats_for("k").unwrap();
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
        assert!(block.stats_for("customerKey").is_some());
        assert!(
            block.stats_for("salesOrderLines").is_none(),
            "repeated col untracked"
        );
        assert!(block.stats_for("nonexistent").is_none());
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
        let cts: Vec<ChangeType> = back.metas().iter().map(|m| m.change_type).collect();
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

    // ---- Bytes pinned from the `Value`-slice builder -------------------

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

    /// `(len, crc32c)` of `to_bytes` for a fixed set of blocks, recorded
    /// from the builder that took `&[Value]` zones (the commit before the
    /// typed write path): every file the typed builder writes is the file
    /// that one wrote.
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
            ("leaves", 64_608, 0x845052b6),
            ("leaves sorted", 64_780, 0x492806b1),
            ("leaves nulls", 60_770, 0x0a8e3ea0),
            ("leaves nulls sorted", 61_378, 0xab0a4568),
            ("leaves one row", 567, 0x9cd97f66),
            ("leaves one zone", 43_047, 0x1f33e7ad),
            ("floats", 21_012, 0x76004322),
            ("extremes", 17_970, 0xf8fc60db),
            ("strings", 47_674, 0xc0c08937),
            ("all null", 11_558, 0x96fdd94c),
            ("all null one row", 122, 0x69e4c280),
            ("any", 19_625, 0xd1c62e09),
            ("any sorted", 15_929, 0x75f801c7),
            ("ties", 2_114, 0xced5c25c),
            ("shapes", 41_803, 0x6afa1426),
            ("orders", 163_709, 0x1ffc6781),
        ];
        assert_eq!(got, want);
    }
}
