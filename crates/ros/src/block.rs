//! ROS blocks: columnar, stats-annotated, bloom-filtered units of
//! read-optimized storage produced by the Storage Optimization Service.

use vortex_common::bloom::BloomFilter;
use vortex_common::codec::{get_uvarint, put_uvarint, take};
use vortex_common::compress::{compress, decompress};
use vortex_common::crc::crc32c;
use vortex_common::crypt::{apply_keystream, Key, Nonce};
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::row::{Row, Value};
use vortex_common::schema::{ChangeType, Schema};
use vortex_common::stats::ColumnStats;
use vortex_common::truetime::Timestamp;

use crate::column::ColumnVec;
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

/// Builds a [`RosBlock`] from rows plus provenance.
#[derive(Debug)]
pub struct RosBlockBuilder {
    schema_version: u32,
    ncols: usize,
    clustering_idx: Vec<usize>,
    tracked: Vec<(usize, String)>,
    key_cols: Vec<usize>,
    rows: Vec<(RowMeta, Row)>,
}

impl RosBlockBuilder {
    /// A builder for blocks of the given table schema.
    pub fn new(schema: &Schema) -> Self {
        let clustering_idx: Vec<usize> = schema
            .clustering
            .iter()
            .filter_map(|c| schema.column_index(c))
            .collect();
        // Track stats for every scalar top-level column (Big Metadata
        // tracks "fine grained column properties", §6.2).
        let tracked: Vec<(usize, String)> = schema
            .fields
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                !matches!(f.ftype, vortex_common::schema::FieldType::Struct(_))
                    && f.mode != vortex_common::schema::FieldMode::Repeated
            })
            .map(|(i, f)| (i, f.name.clone()))
            .collect();
        // Bloom keys: partitioning and clustering columns (§5.4.4).
        let mut key_cols: Vec<usize> = Vec::new();
        if let Some(p) = &schema.partition {
            if let Some(i) = schema.column_index(&p.column) {
                key_cols.push(i);
            }
        }
        for i in &clustering_idx {
            if !key_cols.contains(i) {
                key_cols.push(*i);
            }
        }
        Self {
            schema_version: schema.version,
            ncols: schema.fields.len(),
            clustering_idx,
            tracked,
            key_cols,
            rows: Vec::new(),
        }
    }

    /// Adds a row. The row must match the schema arity.
    pub fn push(&mut self, meta: RowMeta, row: Row) -> VortexResult<()> {
        if row.values.len() != self.ncols {
            return Err(VortexError::InvalidArgument(format!(
                "row has {} values, block schema has {}",
                row.values.len(),
                self.ncols
            )));
        }
        self.rows.push((meta, row));
        Ok(())
    }

    /// Adds rows the caller owns, moving each one in.
    pub fn push_all(&mut self, rows: impl IntoIterator<Item = (RowMeta, Row)>) -> VortexResult<()> {
        rows.into_iter().try_for_each(|(m, r)| self.push(m, r))
    }

    /// Rows added so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Finishes the block. With `sort_by_clustering`, rows are ordered by
    /// the clustering key tuple (ties by provenance) — this is what the
    /// local range-partitioning step of automatic reclustering produces
    /// (§6.1).
    pub fn build(mut self, sort_by_clustering: bool) -> VortexResult<RosBlock> {
        if self.rows.is_empty() {
            return Err(VortexError::InvalidArgument(
                "cannot build an empty ROS block".into(),
            ));
        }
        if sort_by_clustering && !self.clustering_idx.is_empty() {
            let idx = self.clustering_idx.clone();
            self.rows.sort_by(|(ma, a), (mb, b)| {
                for &i in &idx {
                    let ord = a.values[i].total_cmp(&b.values[i]);
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                ma.order_key().cmp(&mb.order_key())
            });
        }
        // Stats + bloom.
        let mut stats: Vec<(String, ColumnStats)> = self
            .tracked
            .iter()
            .map(|(_, name)| (name.clone(), ColumnStats::new()))
            .collect();
        let mut bloom = BloomFilter::with_capacity(self.rows.len().max(16), 0.01);
        for (_, row) in &self.rows {
            for (slot, (col, _)) in self.tracked.iter().enumerate() {
                stats[slot].1.observe(&row.values[*col]);
            }
            for &k in &self.key_cols {
                bloom.insert(&row.values[k].encode_key());
            }
        }
        // Transpose into columns and encode per zone: each zone gets its
        // own encoding choice (cascading chooser), zone map, and — when
        // it shrinks the chunk — vsnap compression on top. The builder
        // owns the rows and nothing reads them afterwards, so each value
        // moves into its zone column.
        let n = self.rows.len();
        let mut cols = Vec::with_capacity(self.ncols);
        for c in 0..self.ncols {
            let mut chunks = Vec::with_capacity(n.div_ceil(ZONE_ROWS));
            for zone in self.rows.chunks_mut(ZONE_ROWS) {
                let column: Vec<Value> = zone
                    .iter_mut()
                    .map(|(_, r)| std::mem::replace(&mut r.values[c], Value::Null))
                    .collect();
                let mut zstats = ColumnStats::new();
                for v in &column {
                    zstats.observe(v);
                }
                let (enc, bytes) = encode_column(&column);
                let packed = compress(&bytes);
                let (compressed, bytes) = if packed.len() < bytes.len() {
                    (true, packed)
                } else {
                    (false, bytes)
                };
                chunks.push(ColumnChunk {
                    enc,
                    compressed,
                    stats: zstats,
                    bytes,
                });
            }
            cols.push(chunks);
        }
        let metas = self.rows.iter().map(|(m, _)| *m).collect();
        Ok(RosBlock {
            schema_version: self.schema_version,
            row_count: n,
            zone_rows: ZONE_ROWS,
            metas,
            stats,
            bloom,
            cols,
        })
    }
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

    /// Decodes one column to values — the columnar fast path: other
    /// columns are not touched.
    pub fn column(&self, idx: usize) -> VortexResult<Vec<Value>> {
        let mut out = Vec::with_capacity(self.row_count);
        for z in 0..self.zone_count() {
            out.extend(self.decode_zone(idx, z)?.to_values());
        }
        Ok(out)
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

    /// Approximate serialized size (pre-encryption), used by the optimizer
    /// to pace block sizes.
    pub fn approx_bytes(&self) -> usize {
        self.cols
            .iter()
            .flat_map(|c| c.iter())
            .map(|c| c.bytes.len() + 16)
            .sum::<usize>()
            + self.metas.len() * 8
            + 256
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let names = block.column(1).unwrap();
        let rows = block.rows().unwrap();
        for (i, (_, r)) in rows.iter().enumerate() {
            assert_eq!(names[i], r.values[1]);
        }
        assert!(block.column(9).is_err());
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
        let names = block.column(1).unwrap();
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
}
