//! The fragment writer: turns row batches into framed, compressed,
//! encrypted, CRC-protected log records.
//!
//! The writer is storage-agnostic — it produces byte chunks; the Stream
//! Server appends each chunk to *both* replica log files (§5.6 physical
//! replication: "the Stream Server log file writes are identical in both
//! clusters").

use vortex_common::bloom::BloomFilter;
use vortex_common::codec::encode_rows;
use vortex_common::compress::{compress, decompress};
use vortex_common::crc::crc32c;
use vortex_common::crypt::{apply_keystream, Nonce};
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::obs::{Counter, Lazy, Registry};
use vortex_common::row::Row;
use vortex_common::truetime::Timestamp;

use crate::format::{
    FileMapEntry, Footer, FragmentConfig, FragmentHeader, RecordHeader, RecordType, FORMAT_VERSION,
};

static BLOCKS_ENCODED: Lazy<Counter> = Lazy::new("wos.blocks_encoded", Registry::counter);
static ROWS_ENCODED: Lazy<Counter> = Lazy::new("wos.rows_encoded", Registry::counter);

/// Writes one fragment's record stream.
///
/// Typical lifecycle:
/// 1. [`FragmentWriter::new`] → append the returned header chunk;
/// 2. repeated [`FragmentWriter::data_block`] (each chunk ≤ ~2 MB of rows);
/// 3. optional [`FragmentWriter::commit_record`] after idle periods and
///    [`FragmentWriter::flush_record`] for BUFFERED-stream flushes;
/// 4. [`FragmentWriter::finalize`] → bloom + footer chunk.
#[derive(Debug)]
pub struct FragmentWriter {
    cfg: FragmentConfig,
    next_ordinal: u32,
    /// Streamlet-relative row offset the next data block starts at.
    next_row: u64,
    /// Logical bytes emitted so far (header included).
    logical_size: u64,
    rows_in_fragment: u64,
    first_row: u64,
    finalized: bool,
}

impl FragmentWriter {
    /// Creates a writer and returns it together with the encoded header
    /// record (the first chunk to append to the log file).
    ///
    /// `first_row` is the streamlet-relative row offset this fragment
    /// starts at; `file_map` lists the previous live fragments (§5.4.4).
    pub fn new(
        cfg: FragmentConfig,
        first_row: u64,
        file_map: Vec<FileMapEntry>,
        timestamp: Timestamp,
    ) -> (Self, Vec<u8>) {
        let header = FragmentHeader {
            format_version: FORMAT_VERSION,
            streamlet: cfg.streamlet,
            fragment: cfg.fragment,
            ordinal: cfg.ordinal,
            first_row,
            schema_version: cfg.schema_version,
            file_map,
        };
        let payload = header.to_bytes();
        let rec = RecordHeader {
            rtype: RecordType::Header,
            flags: 0,
            block_ordinal: 0,
            timestamp,
            first_row,
            row_count: 0,
            uncompressed_len: payload.len() as u32,
            payload_len: payload.len() as u32,
            plain_crc: crc32c(&payload),
            disk_crc: crc32c(&payload),
        };
        let mut chunk = rec.to_bytes().to_vec();
        chunk.extend_from_slice(&payload);
        let logical_size = chunk.len() as u64;
        (
            Self {
                cfg,
                next_ordinal: 1,
                next_row: first_row,
                logical_size,
                rows_in_fragment: 0,
                first_row,
                finalized: false,
            },
            chunk,
        )
    }

    fn check_writable(&self) -> VortexResult<()> {
        if self.finalized {
            return Err(VortexError::Internal(format!(
                "fragment {} already finalized",
                self.cfg.fragment
            )));
        }
        Ok(())
    }

    fn frame(&mut self, rec: RecordHeader, payload: &[u8]) -> Vec<u8> {
        let mut chunk = rec.to_bytes().to_vec();
        chunk.extend_from_slice(payload);
        self.next_ordinal += 1;
        self.logical_size += chunk.len() as u64;
        chunk
    }

    /// Encodes a data block from a row batch, using the server-assigned
    /// TrueTime `timestamp` for every row in the write.
    ///
    /// The pipeline is: encode → CRC(plaintext) → compress →
    /// decompress-verify (§5.4.5's corruption guard) → encrypt →
    /// CRC(payload) → frame.
    ///
    /// Takes a borrowed row slice so the server can chunk a batch by
    /// index range without materialising per-chunk `RowSet`s.
    // lint:hotpath(append) — encode leg: every durable byte passes through here
    pub fn data_block(&mut self, rows: &[Row], timestamp: Timestamp) -> VortexResult<Vec<u8>> {
        self.check_writable()?;
        if rows.is_empty() {
            return Err(VortexError::InvalidArgument(
                "data block must contain rows".into(),
            ));
        }
        let plain = encode_rows(rows);
        let plain_crc = crc32c(&plain);
        let compressed = compress(&plain);
        // Guard against corruption during compression: decompress and
        // verify the CRC matches the original (§5.4.5).
        let verify = decompress(&compressed)
            .map_err(|e| VortexError::CorruptData(format!("compress self-check: {e}")))?;
        if crc32c(&verify) != plain_crc {
            return Err(VortexError::CorruptData(
                "compress self-check: crc mismatch".into(),
            ));
        }
        let mut payload = compressed;
        let nonce = Nonce::for_block(self.cfg.fragment.raw(), self.next_ordinal);
        apply_keystream(&self.cfg.key, &nonce, &mut payload);
        let rec = RecordHeader {
            rtype: RecordType::Data,
            flags: 0,
            block_ordinal: self.next_ordinal,
            timestamp,
            first_row: self.next_row,
            row_count: rows.len() as u32,
            uncompressed_len: plain.len() as u32,
            payload_len: payload.len() as u32,
            plain_crc,
            disk_crc: crc32c(&payload),
        };
        self.next_row += rows.len() as u64;
        self.rows_in_fragment += rows.len() as u64;
        BLOCKS_ENCODED.inc();
        ROWS_ENCODED.add(rows.len() as u64);
        Ok(self.frame(rec, &payload))
    }

    /// Encodes a commit record: everything written before it is committed.
    /// Written after a small period of inactivity when no further data
    /// append piggybacks the commit (§7.1).
    pub fn commit_record(&mut self, timestamp: Timestamp) -> VortexResult<Vec<u8>> {
        self.check_writable()?;
        let rec = RecordHeader {
            rtype: RecordType::Commit,
            flags: 0,
            block_ordinal: self.next_ordinal,
            timestamp,
            first_row: self.next_row,
            row_count: 0,
            uncompressed_len: 0,
            payload_len: 0,
            plain_crc: 0,
            disk_crc: 0,
        };
        Ok(self.frame(rec, &[]))
    }

    /// Encodes a flush record advancing the streamlet's committed row
    /// offset to `flush_row` (BUFFERED streams, §5.4.4).
    pub fn flush_record(&mut self, flush_row: u64, timestamp: Timestamp) -> VortexResult<Vec<u8>> {
        self.check_writable()?;
        let payload = flush_row.to_le_bytes();
        let crc = crc32c(&payload);
        let rec = RecordHeader {
            rtype: RecordType::Flush,
            flags: 0,
            block_ordinal: self.next_ordinal,
            timestamp,
            first_row: self.next_row,
            row_count: 0,
            uncompressed_len: payload.len() as u32,
            payload_len: payload.len() as u32,
            plain_crc: crc,
            disk_crc: crc,
        };
        Ok(self.frame(rec, &payload))
    }

    /// Encodes a standalone sentinel record with the given writer epoch.
    ///
    /// Sentinels are written by the *reconciler*, not the original writer
    /// (§5.6): appending one invalidates the previous writer's assumption
    /// that it is the sole writer of the log file. This is an associated
    /// function because the reconciler has no [`FragmentWriter`] state —
    /// it appends directly at the replica's current tail.
    pub fn sentinel_record(epoch: u64, timestamp: Timestamp) -> Vec<u8> {
        let payload = epoch.to_le_bytes();
        let crc = crc32c(&payload);
        let rec = RecordHeader {
            rtype: RecordType::Sentinel,
            flags: 0,
            // Sentinels are appended out-of-band; ordinal is not meaningful.
            block_ordinal: u32::MAX,
            timestamp,
            first_row: 0,
            row_count: 0,
            uncompressed_len: payload.len() as u32,
            payload_len: payload.len() as u32,
            plain_crc: crc,
            disk_crc: crc,
        };
        let mut chunk = rec.to_bytes().to_vec();
        chunk.extend_from_slice(&payload);
        chunk
    }

    /// Finalizes: emits the bloom filter record followed by the fixed
    /// footer. After this the writer refuses further records.
    pub fn finalize(&mut self, bloom: &BloomFilter, timestamp: Timestamp) -> VortexResult<Vec<u8>> {
        self.check_writable()?;
        let bloom_offset = self.logical_size;
        let bloom_bytes = bloom.to_bytes();
        let crc = crc32c(&bloom_bytes);
        let bloom_rec = RecordHeader {
            rtype: RecordType::Bloom,
            flags: 0,
            block_ordinal: self.next_ordinal,
            timestamp,
            first_row: self.next_row,
            row_count: 0,
            uncompressed_len: bloom_bytes.len() as u32,
            payload_len: bloom_bytes.len() as u32,
            plain_crc: crc,
            disk_crc: crc,
        };
        let mut chunk = self.frame(bloom_rec, &bloom_bytes);

        let committed_size = self.logical_size + crate::format::FOOTER_TOTAL_LEN as u64;
        let footer = Footer {
            bloom_offset,
            total_rows: self.rows_in_fragment,
            committed_size,
        };
        let payload = footer.to_bytes();
        let fcrc = crc32c(&payload);
        let footer_rec = RecordHeader {
            rtype: RecordType::Footer,
            flags: 0,
            block_ordinal: self.next_ordinal,
            timestamp,
            first_row: self.next_row,
            row_count: 0,
            uncompressed_len: payload.len() as u32,
            payload_len: payload.len() as u32,
            plain_crc: fcrc,
            disk_crc: fcrc,
        };
        chunk.extend_from_slice(&self.frame(footer_rec, &payload));
        self.finalized = true;
        debug_assert_eq!(self.logical_size, committed_size);
        Ok(chunk)
    }

    /// Logical bytes emitted so far.
    pub fn logical_size(&self) -> u64 {
        self.logical_size
    }

    /// Rows written into this fragment so far.
    pub fn rows_written(&self) -> u64 {
        self.rows_in_fragment
    }

    /// Streamlet-relative row offset the next block will start at.
    pub fn next_row(&self) -> u64 {
        self.next_row
    }

    /// Streamlet-relative row offset of the fragment's first row.
    pub fn first_row(&self) -> u64 {
        self.first_row
    }

    /// Whether [`FragmentWriter::finalize`] has run.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_common::crypt::Key;
    use vortex_common::ids::{FragmentId, StreamletId};
    use vortex_common::row::{Row, RowSet, Value};

    fn cfg() -> FragmentConfig {
        FragmentConfig {
            streamlet: StreamletId::from_raw(1),
            fragment: FragmentId::from_raw(10),
            ordinal: 0,
            schema_version: 1,
            key: Key::derive_from_passphrase("test"),
        }
    }

    fn rows(n: usize) -> RowSet {
        RowSet::new(
            (0..n)
                .map(|i| {
                    Row::insert(vec![
                        Value::Int64(i as i64),
                        Value::String(format!("row-{i}")),
                    ])
                })
                .collect(),
        )
    }

    #[test]
    fn writer_tracks_offsets_and_sizes() {
        let (mut w, header) = FragmentWriter::new(cfg(), 100, vec![], Timestamp(1));
        assert_eq!(w.logical_size(), header.len() as u64);
        assert_eq!(w.next_row(), 100);
        let b1 = w.data_block(&rows(5).rows, Timestamp(2)).unwrap();
        assert_eq!(w.next_row(), 105);
        assert_eq!(w.rows_written(), 5);
        let b2 = w.data_block(&rows(3).rows, Timestamp(3)).unwrap();
        assert_eq!(w.next_row(), 108);
        assert_eq!(
            w.logical_size(),
            (header.len() + b1.len() + b2.len()) as u64
        );
    }

    #[test]
    fn empty_data_block_rejected() {
        let (mut w, _) = FragmentWriter::new(cfg(), 0, vec![], Timestamp(1));
        assert!(w.data_block(&[], Timestamp(2)).is_err());
    }

    #[test]
    fn finalize_locks_writer() {
        let (mut w, _) = FragmentWriter::new(cfg(), 0, vec![], Timestamp(1));
        w.data_block(&rows(1).rows, Timestamp(2)).unwrap();
        let bloom = BloomFilter::with_capacity(10, 0.01);
        w.finalize(&bloom, Timestamp(3)).unwrap();
        assert!(w.is_finalized());
        assert!(w.data_block(&rows(1).rows, Timestamp(4)).is_err());
        assert!(w.commit_record(Timestamp(4)).is_err());
        assert!(w.flush_record(0, Timestamp(4)).is_err());
        assert!(w.finalize(&bloom, Timestamp(4)).is_err());
    }

    #[test]
    fn data_block_payload_is_encrypted() {
        let (mut w, _) = FragmentWriter::new(cfg(), 0, vec![], Timestamp(1));
        let marker = "VERYRECOGNIZABLESTRINGVALUE";
        let rs = RowSet::new(vec![Row::insert(vec![Value::String(marker.into())])]);
        let chunk = w.data_block(&rs.rows, Timestamp(2)).unwrap();
        let haystack = chunk
            .windows(marker.len())
            .any(|win| win == marker.as_bytes());
        assert!(!haystack, "plaintext leaked into the on-disk payload");
    }

    #[test]
    fn sentinel_is_self_contained() {
        let chunk = FragmentWriter::sentinel_record(7, Timestamp(9));
        let rec = RecordHeader::from_bytes(&chunk).unwrap();
        assert_eq!(rec.rtype, RecordType::Sentinel);
        assert_eq!(rec.payload_len, 8);
        let epoch = u64::from_le_bytes(chunk[48..56].try_into().unwrap());
        assert_eq!(epoch, 7);
    }

    #[test]
    fn commit_record_carries_row_watermark() {
        let (mut w, _) = FragmentWriter::new(cfg(), 50, vec![], Timestamp(1));
        w.data_block(&rows(7).rows, Timestamp(2)).unwrap();
        let chunk = w.commit_record(Timestamp(3)).unwrap();
        let rec = RecordHeader::from_bytes(&chunk).unwrap();
        assert_eq!(rec.rtype, RecordType::Commit);
        assert_eq!(rec.first_row, 57);
    }

    /// `orders`-shaped rows — a day, a customer, an amount, a price, a
    /// note that is NULL one row in ten, a sequence number — from a fixed
    /// generator.
    fn orders_rows(n: usize, seed: u64) -> Vec<Row> {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        let row = |i: usize, r: u64, cents: u64| {
            let note = match r % 10 {
                0 => Value::Null,
                _ => Value::String(format!("sess={:08x} ua=Chrome os=Linux", r as u32)),
            };
            Row::insert(vec![
                Value::Int64((r % 8) as i64),
                Value::String(format!("cust-{:05}", (r >> 8) % 20_000)),
                Value::Int64((r >> 20) as i64 % 1_000_000),
                Value::Float64((cents % 100_000) as f64 / 100.0),
                note,
                Value::Int64(i as i64),
            ])
        };
        (0..n).map(|i| row(i, next(), next())).collect()
    }

    /// The bytes an append writes — rows encoded, vsnap-compressed,
    /// encrypted, framed — do not move: the length and CRC32C of a writer's
    /// header, a 16-row and a 2 000-row data block. A change that moves
    /// them on purpose re-records them.
    #[test]
    fn data_block_bytes_are_pinned() {
        let (mut w, header) = FragmentWriter::new(cfg(), 0, vec![], Timestamp(1));
        let small = w.data_block(&orders_rows(16, 1), Timestamp(2)).unwrap();
        let large = w.data_block(&orders_rows(2_000, 2), Timestamp(3)).unwrap();
        let got = [&header, &small, &large].map(|b| (b.len(), crc32c(b)));
        assert_eq!(got, PINNED, "{got:?}");
    }

    const PINNED: [(usize, u32); 3] = [(86, 383401335), (674, 3550164837), (67732, 971338879)];
}
