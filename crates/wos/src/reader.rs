//! The log-file reader. One record walker ([`index_fragment`]) frames a
//! fragment log file into a row-free [`FragmentIndex`] — header and File
//! Map, every data block's extent, flush / sentinel records, bloom,
//! footer, and where the valid records end — tolerating torn trailing
//! writes and implementing the paper's commit-visibility rule. It takes no
//! key, so it cannot decode; [`FragmentIndex::block_plaintext`] opens one
//! indexed block for whoever decodes it: the readers walk it into column
//! vectors, [`parse_fragment`] — index and row decode composed — into rows.
//!
//! §7.1: "if a reader sees that a Fragment contains any additional data
//! after an append it just read, it knows that append is considered
//! committed ... When reading the final append in the Fragment, it will
//! typically see there is a commit record afterwards". Accordingly the
//! walker marks every data block as committed except a data block that is
//! the *final* valid record of the file; such a tail block is surfaced
//! with `committed == false` and resolved by the caller (replica
//! comparison or SMS reconciliation, §5.6 — [`common_prefix`]).

use vortex_common::bloom::BloomFilter;
use vortex_common::codec::decode_rowset;
use vortex_common::compress::decompress;
use vortex_common::crc::crc32c;
use vortex_common::crypt::{decrypt, Key, Nonce};
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::obs::{Counter, Lazy, Registry};
use vortex_common::row::RowSet;
use vortex_common::truetime::Timestamp;

use crate::format::{
    Footer, FragmentHeader, RecordHeader, RecordType, FOOTER_TOTAL_LEN, RECORD_HEADER_LEN,
};

static BLOCKS_DECODED: Lazy<Counter> = Lazy::new("wos.blocks_decoded", Registry::counter);
static ROWS_DECODED: Lazy<Counter> = Lazy::new("wos.rows_decoded", Registry::counter);
static RECORDS_INDEXED: Lazy<Counter> = Lazy::new("wos.records_indexed", Registry::counter);

/// An indexed data block: where it sits in the log file and what its
/// record header says of it — everything but the rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Byte offset of this block's record header within the fragment.
    pub offset: u64,
    /// Streamlet-relative row offset of the first row.
    pub first_row: u64,
    /// Rows the record header declares.
    pub row_count: u64,
    /// Server-assigned TrueTime timestamp of the write.
    pub timestamp: Timestamp,
    /// Whether the block is known committed (something follows it).
    pub committed: bool,
    /// What the decode is checked against.
    rec: RecordHeader,
}

/// A decoded data block.
#[derive(Debug, Clone)]
pub struct DataBlock {
    /// Streamlet-relative row offset of the first row.
    pub first_row: u64,
    /// The rows.
    pub rows: RowSet,
    /// Server-assigned TrueTime timestamp of the write.
    pub timestamp: Timestamp,
    /// Byte offset of this block's record header within the fragment.
    pub offset: u64,
    /// Whether the block is known committed (something follows it).
    pub committed: bool,
}

/// A decoded flush record (BUFFERED streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushRecord {
    /// Streamlet-relative row offset flushed up to (exclusive).
    pub flush_row: u64,
    /// When the flush was persisted.
    pub timestamp: Timestamp,
}

/// A decoded sentinel record (zombie-writer poison, §5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentinelRecord {
    /// Epoch of the reconciler that wrote the poison.
    pub epoch: u64,
    /// When it was written.
    pub timestamp: Timestamp,
}

/// Everything recovered from one fragment log file. `B` is what is held
/// of each data block: its extent ([`FragmentIndex`]) or its rows
/// ([`ParsedFragment`]).
#[derive(Debug, Clone)]
pub struct Fragment<B> {
    /// The fragment header (identity + File Map).
    pub header: FragmentHeader,
    /// Data blocks in file order.
    pub blocks: Vec<B>,
    /// Flush records in file order.
    pub flushes: Vec<FlushRecord>,
    /// Sentinel records (normally empty; non-empty means ownership was
    /// revoked).
    pub sentinels: Vec<SentinelRecord>,
    /// The bloom filter, present once finalized.
    pub bloom: Option<BloomFilter>,
    /// The footer, present once finalized.
    pub footer: Option<Footer>,
    /// File offset of the first byte walked: 0, or where
    /// [`index_fragment_from`] resumed.
    pub start: u64,
    /// Bytes of the header record this walk read at byte 0 (none when it
    /// resumed): the replicas agree on them before anything can diverge.
    pub header_len: u64,
    /// Bytes of valid records parsed (offset just past the last one).
    pub valid_len: u64,
    /// Trailing bytes ignored as torn/partial.
    pub torn_bytes: u64,
}

/// The row-free index of a log file: what framing alone tells.
pub type FragmentIndex = Fragment<BlockEntry>;
/// A log file with its rows decoded.
pub type ParsedFragment = Fragment<DataBlock>;

impl<B> Fragment<B> {
    /// Whether the fragment is finalized (footer present).
    pub fn is_finalized(&self) -> bool {
        self.footer.is_some()
    }

    /// Highest flushed row offset recorded, if any.
    pub fn max_flush_row(&self) -> Option<u64> {
        self.flushes.iter().map(|f| f.flush_row).max()
    }
}

impl ParsedFragment {
    /// Total rows in committed blocks.
    pub fn committed_rows(&self) -> u64 {
        self.blocks
            .iter()
            .filter(|b| b.committed)
            .map(|b| b.rows.len() as u64)
            .sum()
    }

    /// Total rows including an uncommitted tail block.
    pub fn total_rows(&self) -> u64 {
        self.blocks.iter().map(|b| b.rows.len() as u64).sum()
    }
}

/// The one record walker: the record at `pos` of `window` with its
/// payload — magic, header CRC, length and payload CRC checked — or `None`
/// where the valid records end. In a `strict` window (a File-Map-certified
/// extent) a record that fails a check is corruption; otherwise it is a
/// torn tail, and the end.
fn record_at(
    window: &[u8],
    pos: usize,
    strict: bool,
) -> VortexResult<Option<(RecordHeader, &[u8])>> {
    if pos + RECORD_HEADER_LEN > window.len() {
        return Ok(None);
    }
    let ends = |why: &dyn std::fmt::Display| {
        if strict {
            return Err(VortexError::CorruptData(format!(
                "record at {pos} inside committed range: {why}"
            )));
        }
        Ok(None)
    };
    let rec = match RecordHeader::from_bytes(&window[pos..]) {
        Ok(rec) => rec,
        Err(e) => return ends(&e),
    };
    let Some(payload) = window[pos + RECORD_HEADER_LEN..].get(..rec.payload_len as usize) else {
        return ends(&"payload truncated");
    };
    if rec.payload_len > 0 && crc32c(payload) != rec.disk_crc {
        return ends(&"payload crc mismatch");
    }
    Ok(Some((rec, payload)))
}

/// The 8-byte payload of a flush or sentinel record.
fn u64_payload(payload: &[u8], what: &str) -> VortexResult<u64> {
    <[u8; 8]>::try_from(payload)
        .map(u64::from_le_bytes)
        .map_err(|_| VortexError::CorruptData(format!("{what} payload size")))
}

/// Indexes a fragment file without decoding a row.
///
/// `limit`, when supplied from a File Map, bounds the walk to the
/// committed final size of the fragment: "clients will not read past the
/// logical finalized size of a Fragment in the File Map, so will ignore
/// failed or partial writes at the end" (§7.1). Inside the limit,
/// corruption is an error; past the limit (or past the last parseable
/// record when no limit is given), bytes are counted in `torn_bytes` and
/// ignored.
pub fn index_fragment(bytes: &[u8], limit: Option<u64>) -> VortexResult<FragmentIndex> {
    index_fragment_from(bytes, None, limit)
}

/// [`index_fragment`] of the file whose bytes from a record boundary on
/// are `bytes`: `resume` names that offset and the header an earlier walk
/// read before it (`None` walks from byte 0). Offsets in the index, and
/// `limit`, stay file-absolute.
pub fn index_fragment_from(
    bytes: &[u8],
    resume: Option<(u64, FragmentHeader)>,
    limit: Option<u64>,
) -> VortexResult<FragmentIndex> {
    let (start, mut header) = resume.map_or((0, None), |(at, header)| (at, Some(header)));
    let window: &[u8] = match limit.map(|l| l.saturating_sub(start) as usize) {
        Some(l) if l < bytes.len() => &bytes[..l],
        _ => bytes,
    };
    let strict = limit.is_some();

    let (mut pos, mut header_len, mut records) = (0usize, 0, 0);
    let mut blocks: Vec<BlockEntry> = Vec::new();
    let (mut flushes, mut sentinels) = (Vec::new(), Vec::new());
    let (mut bloom, mut footer) = (None, None);

    while let Some((rec, payload)) = record_at(window, pos, strict)? {
        if rec.rtype == RecordType::Header && start + pos as u64 != 0 {
            if strict {
                return Err(VortexError::CorruptData(
                    "duplicate or misplaced fragment header".into(),
                ));
            }
            // A re-written header (failed open retried on the same file)
            // marks the end of valid content.
            break;
        }
        // Seeing a record commits every block before it. Only the most
        // recent block can be uncommitted (every earlier one was committed
        // when its successor record was walked), so flipping the last is
        // enough.
        if let Some(b) = blocks.last_mut() {
            b.committed = true;
        }
        let timestamp = rec.timestamp;
        match rec.rtype {
            RecordType::Header => {
                header = Some(FragmentHeader::from_bytes(payload)?);
                header_len = (RECORD_HEADER_LEN + payload.len()) as u64;
            }
            RecordType::Data => {
                if header.is_none() {
                    return Err(VortexError::CorruptData(
                        "data block before fragment header".into(),
                    ));
                }
                blocks.push(BlockEntry {
                    offset: start + pos as u64,
                    first_row: rec.first_row,
                    row_count: rec.row_count as u64,
                    timestamp,
                    committed: false,
                    rec,
                });
            }
            RecordType::Commit => {}
            RecordType::Flush => {
                let flush_row = u64_payload(payload, "flush")?;
                flushes.push(FlushRecord {
                    flush_row,
                    timestamp,
                });
            }
            RecordType::Sentinel => {
                let epoch = u64_payload(payload, "sentinel")?;
                sentinels.push(SentinelRecord { epoch, timestamp });
            }
            RecordType::Bloom => {
                bloom = Some(BloomFilter::from_bytes(payload).map_err(VortexError::CorruptData)?);
            }
            RecordType::Footer => footer = Some(Footer::from_bytes(payload)?),
        }
        pos += RECORD_HEADER_LEN + payload.len();
        records += 1;
    }
    RECORDS_INDEXED.add(records);

    let header = header.ok_or_else(|| {
        VortexError::CorruptData("fragment has no parseable header record".into())
    })?;

    // A footer also certifies the whole file; and a strict (File Map
    // bounded) walk certifies everything inside the limit.
    if footer.is_some() || strict {
        if let Some(b) = blocks.last_mut() {
            b.committed = true;
        }
    }

    Ok(Fragment {
        header,
        blocks,
        flushes,
        sentinels,
        bloom,
        footer,
        start,
        header_len,
        valid_len: start + pos as u64,
        torn_bytes: (bytes.len() - pos) as u64,
    })
}

impl BlockEntry {
    /// File offset just past the block's record.
    pub fn end(&self) -> u64 {
        self.offset + (RECORD_HEADER_LEN + self.rec.payload_len as usize) as u64
    }

    /// Whether `other` — a replica copy's entry — is the same record at
    /// the same place (payload CRC included), whatever follows either.
    pub fn same_record(&self, other: &BlockEntry) -> bool {
        (self.offset, self.rec) == (other.offset, other.rec)
    }

    fn corrupt(&self, what: &str) -> VortexError {
        VortexError::CorruptData(format!("block {} {what}", self.rec.block_ordinal))
    }

    /// Holds a decode of the block's plaintext to the row count its
    /// header declares, and counts it (`wos.blocks_decoded`,
    /// `wos.rows_decoded`) — the last step of every decoder.
    pub fn decoded(&self, rows: u64) -> VortexResult<()> {
        if rows != self.row_count {
            return Err(self.corrupt(&format!(
                "row count mismatch: header {}, decoded {rows}",
                self.row_count
            )));
        }
        BLOCKS_DECODED.inc();
        ROWS_DECODED.add(rows);
        Ok(())
    }
}

impl FragmentIndex {
    /// The verified plaintext — an encoded row set — of one indexed block
    /// out of `bytes`, which are the bytes the index was taken of (the
    /// file's from `start` on) or a replica copy that agrees with them up
    /// to the block's end: decrypt →
    /// decompress → plaintext CRC → length. Whoever decodes it finishes
    /// with [`BlockEntry::decoded`].
    pub fn block_plaintext(
        &self,
        bytes: &[u8],
        key: &Key,
        block: &BlockEntry,
    ) -> VortexResult<Vec<u8>> {
        let rec = &block.rec;
        let payload = (block.offset.checked_sub(self.start))
            .and_then(|at| bytes.get(at as usize + RECORD_HEADER_LEN..))
            .and_then(|rest| rest.get(..rec.payload_len as usize))
            .ok_or_else(|| block.corrupt("lies outside the bytes given"))?;
        let nonce = Nonce::for_block(self.header.fragment.raw(), rec.block_ordinal);
        let plain = decompress(&decrypt(key, &nonce, payload))
            .map_err(|e| block.corrupt(&format!("decompress (wrong key or corruption): {e}")))?;
        if crc32c(&plain) != rec.plain_crc {
            return Err(block.corrupt("plaintext crc mismatch"));
        }
        if plain.len() != rec.uncompressed_len as usize {
            return Err(block.corrupt("uncompressed length mismatch"));
        }
        Ok(plain)
    }
}

/// Parses a fragment file: [`index_fragment`] under the same `limit`, then
/// every indexed block decoded into rows — the row-wise reference the
/// columnar walk (`vortex_ros::add_rowset`) is tested against.
pub fn parse_fragment(bytes: &[u8], key: &Key, limit: Option<u64>) -> VortexResult<ParsedFragment> {
    let index = index_fragment(bytes, limit)?;
    let decode = |block: &BlockEntry| {
        let rows = decode_rowset(&index.block_plaintext(bytes, key, block)?)?;
        block.decoded(rows.len() as u64)?;
        Ok(DataBlock {
            first_row: block.first_row,
            rows,
            timestamp: block.timestamp,
            offset: block.offset,
            committed: block.committed,
        })
    };
    let blocks = index
        .blocks
        .iter()
        .map(decode)
        .collect::<VortexResult<_>>()?;
    Ok(Fragment {
        header: index.header,
        blocks,
        flushes: index.flushes,
        sentinels: index.sentinels,
        bloom: index.bloom,
        footer: index.footer,
        start: index.start,
        header_len: index.header_len,
        valid_len: index.valid_len,
        torn_bytes: index.torn_bytes,
    })
}

/// The §5.6 rule for what a streamlet's replicas agree was written to one
/// log file: of the copies that have a parseable header record (a replica
/// whose very first write failed holds nothing, or a stub, and must not
/// shrink the answer to zero), the longest byte-wise common prefix, cut
/// back to a record boundary. The acked prefix is byte-identical in every
/// replica (physical replication); past it the copies may diverge — a
/// torn block in one, sentinels at different offsets. Returns which copy
/// to read, the first with a header, and its index up to that length
/// (`valid_len`); `None` when no copy has a header. With one copy,
/// everything parseable. Each copy is walked once; the one read is walked
/// again only when another copy diverges before its valid end.
pub fn common_prefix<C: AsRef<[u8]>>(copies: &[C]) -> VortexResult<Option<(usize, FragmentIndex)>> {
    let mut with_header = (copies.iter().map(AsRef::as_ref).enumerate())
        .filter_map(|(at, copy)| Some((at, copy, index_fragment(copy, None).ok()?)));
    let Some((at, first, index)) = with_header.next() else {
        return Ok(None);
    };
    let valid = index.valid_len as usize;
    let common = with_header.fold(valid, |acc, (_, c, _)| match c.get(..acc) {
        Some(same) if same == &first[..acc] => acc,
        _ => (first.iter().zip(c).take(acc))
            .take_while(|(a, b)| a == b)
            .count(),
    });
    match common == valid {
        true => Ok(Some((at, index))),
        false => Ok(Some((at, index_fragment(&first[..common], None)?))),
    }
}

/// The bloom filter of a finalized log file of `size` committed bytes,
/// fetched by `read(offset, len)` without touching row data: the
/// fixed-length footer at the end locates the bloom record, which ends
/// where the footer starts (§5.4.4). `None` for a file closed without a
/// footer.
pub fn read_bloom(
    size: u64,
    mut read: impl FnMut(u64, usize) -> VortexResult<Vec<u8>>,
) -> VortexResult<Option<BloomFilter>> {
    let Some(footer_at) = size.checked_sub(FOOTER_TOTAL_LEN as u64) else {
        return Ok(None);
    };
    let tail = read(footer_at, FOOTER_TOTAL_LEN)?;
    let footer = match record_at(&tail, 0, false)? {
        Some((rec, payload)) if rec.rtype == RecordType::Footer => Footer::from_bytes(payload)?,
        _ => return Ok(None),
    };
    let misplaced =
        || VortexError::CorruptData("footer bloom offset does not point at a bloom record".into());
    let len = footer_at
        .checked_sub(footer.bloom_offset)
        .ok_or_else(misplaced)?;
    let record = read(footer.bloom_offset, len as usize)?;
    match record_at(&record, 0, true)? {
        Some((rec, payload)) if rec.rtype == RecordType::Bloom => BloomFilter::from_bytes(payload)
            .map(Some)
            .map_err(VortexError::CorruptData),
        _ => Err(misplaced()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{FileMapEntry, FragmentConfig};
    use crate::tally::largest_request;
    use crate::writer::FragmentWriter;
    use vortex_common::ids::{FragmentId, StreamletId};
    use vortex_common::row::{Row, Value};

    fn key() -> Key {
        Key::derive_from_passphrase("reader-test")
    }

    fn cfg() -> FragmentConfig {
        FragmentConfig {
            streamlet: StreamletId::from_raw(3),
            fragment: FragmentId::from_raw(77),
            ordinal: 1,
            schema_version: 2,
            key: key(),
        }
    }

    fn rows(start: i64, n: usize) -> RowSet {
        RowSet::new(
            (0..n)
                .map(|i| {
                    Row::insert(vec![
                        Value::Int64(start + i as i64),
                        Value::String(format!("payload-{}", start + i as i64)),
                    ])
                })
                .collect(),
        )
    }

    fn build_fragment() -> (Vec<u8>, FragmentWriter) {
        let fm = vec![FileMapEntry {
            ordinal: 0,
            fragment: FragmentId::from_raw(76),
            committed_size: 4096,
            first_row: 0,
            row_count: 10,
        }];
        let (mut w, mut file) = FragmentWriter::new(cfg(), 10, fm, Timestamp(100));
        file.extend(w.data_block(&rows(0, 4).rows, Timestamp(200)).unwrap());
        file.extend(w.data_block(&rows(4, 6).rows, Timestamp(300)).unwrap());
        (file, w)
    }

    #[test]
    fn roundtrip_with_tail_commit_semantics() {
        let (file, _) = build_fragment();
        let p = parse_fragment(&file, &key(), None).unwrap();
        assert_eq!(p.header.streamlet.raw(), 3);
        assert_eq!(p.header.first_row, 10);
        assert_eq!(p.header.file_map.len(), 1);
        assert_eq!(p.blocks.len(), 2);
        // First block committed (data followed it); tail block not.
        assert!(p.blocks[0].committed);
        assert!(!p.blocks[1].committed);
        assert_eq!(p.blocks[0].first_row, 10);
        assert_eq!(p.blocks[1].first_row, 14);
        assert_eq!(p.committed_rows(), 4);
        assert_eq!(p.total_rows(), 10);
        assert_eq!(p.torn_bytes, 0);
        // Rows decode intact.
        assert_eq!(
            p.blocks[0].rows.rows[0].values[1],
            Value::String("payload-0".into())
        );
    }

    #[test]
    fn commit_record_commits_tail() {
        let (mut file, mut w) = build_fragment();
        file.extend(w.commit_record(Timestamp(400)).unwrap());
        let p = parse_fragment(&file, &key(), None).unwrap();
        assert!(p.blocks.iter().all(|b| b.committed));
        assert_eq!(p.committed_rows(), 10);
        assert_eq!(p.valid_len, file.len() as u64);
        assert_eq!(p.blocks[1].first_row + p.blocks[1].rows.len() as u64, 20);
    }

    #[test]
    fn torn_tail_is_skipped() {
        let (mut file, mut w) = build_fragment();
        let full_len = file.len();
        let block3 = w.data_block(&rows(10, 2).rows, Timestamp(500)).unwrap();
        // Write only half of the third block: simulated torn write.
        file.extend_from_slice(&block3[..block3.len() / 2]);
        let p = parse_fragment(&file, &key(), None).unwrap();
        assert_eq!(p.blocks.len(), 2);
        assert_eq!(p.valid_len as usize, full_len);
        assert!(p.torn_bytes > 0);
        // The torn write *did* commit block 2 though: data followed it on
        // disk... no — the torn record never parsed, so block 2 stays
        // uncommitted pending reconciliation.
        assert!(!p.blocks[1].committed);
    }

    #[test]
    fn file_map_limit_certifies_content() {
        let (mut file, mut w) = build_fragment();
        let committed = file.len() as u64;
        // Garbage beyond the committed size recorded in a File Map.
        file.extend_from_slice(&[0xAB; 100]);
        let p = parse_fragment(&file, &key(), Some(committed)).unwrap();
        assert_eq!(p.blocks.len(), 2);
        // Inside a File-Map-certified range, even the tail data block is
        // committed.
        assert!(p.blocks.iter().all(|b| b.committed));
        assert_eq!(p.torn_bytes, 100);
        // But corruption *inside* the certified range is a hard error.
        let mut corrupt = file.clone();
        corrupt[100] ^= 0xFF;
        assert!(parse_fragment(&corrupt, &key(), Some(committed)).is_err());
        // Appease the unused warning.
        let _ = w.commit_record(Timestamp(1)).unwrap();
    }

    #[test]
    fn flush_records_surface() {
        let (mut file, mut w) = build_fragment();
        file.extend(w.flush_record(12, Timestamp(450)).unwrap());
        file.extend(w.flush_record(17, Timestamp(460)).unwrap());
        let p = parse_fragment(&file, &key(), None).unwrap();
        assert_eq!(p.flushes.len(), 2);
        assert_eq!(p.max_flush_row(), Some(17));
        // Flush records also commit preceding data.
        assert!(p.blocks.iter().all(|b| b.committed));
    }

    #[test]
    fn sentinel_poisons_fragment() {
        let (mut file, _) = build_fragment();
        file.extend(FragmentWriter::sentinel_record(42, Timestamp(999)));
        let p = parse_fragment(&file, &key(), None).unwrap();
        assert_eq!(p.sentinels.len(), 1);
        assert_eq!(p.sentinels[0].epoch, 42);
    }

    #[test]
    fn finalized_fragment_has_bloom_and_footer() {
        let (mut file, mut w) = build_fragment();
        let mut bloom = BloomFilter::with_capacity(16, 0.01);
        bloom.insert(b"cust-1");
        file.extend(w.finalize(&bloom, Timestamp(600)).unwrap());
        let p = parse_fragment(&file, &key(), None).unwrap();
        assert!(p.is_finalized());
        let f = p.footer.unwrap();
        assert_eq!(f.total_rows, 10);
        assert_eq!(f.committed_size, file.len() as u64);
        assert!(p.bloom.as_ref().unwrap().may_contain(b"cust-1"));
        assert!(!p.bloom.as_ref().unwrap().may_contain(b"cust-404"));
        assert!(p.blocks.iter().all(|b| b.committed));
        // The footer's bloom_offset points at the bloom record header.
        let rec = RecordHeader::from_bytes(&file[f.bloom_offset as usize..]).unwrap();
        assert_eq!(rec.rtype, RecordType::Bloom);
    }

    #[test]
    fn wrong_key_is_detected() {
        let (file, _) = build_fragment();
        let wrong = Key::derive_from_passphrase("not-the-key");
        let err = parse_fragment(&file, &wrong, None).unwrap_err();
        assert!(matches!(err, VortexError::CorruptData(_)), "{err}");
    }

    #[test]
    fn headerless_bytes_rejected() {
        assert!(parse_fragment(&[], &key(), None).is_err());
        assert!(parse_fragment(&[0u8; 200], &key(), None).is_err());
    }

    /// What an allocation made on behalf of `len` input bytes may reach:
    /// vsnap's densest element expands 22×, and a decoded `Row` is 32
    /// bytes for what can be 2 encoded ones.
    fn alloc_bound(len: usize) -> usize {
        32 * len + 4096
    }

    /// A finalized, then poisoned file with every record type: File Map
    /// header, three data blocks, flush, commit, bloom, footer, sentinel.
    /// Returns it with its finalized length.
    fn build_full_file() -> (Vec<u8>, usize) {
        let (mut file, mut w) = build_fragment();
        file.extend(w.flush_record(12, Timestamp(350)).unwrap());
        file.extend(w.data_block(&rows(10, 40).rows, Timestamp(400)).unwrap());
        file.extend(w.commit_record(Timestamp(450)).unwrap());
        let mut bloom = BloomFilter::with_capacity(4, 0.1);
        bloom.insert(b"k");
        file.extend(w.finalize(&bloom, Timestamp(600)).unwrap());
        let finalized = file.len();
        file.extend(FragmentWriter::sentinel_record(9, Timestamp(700)));
        (file, finalized)
    }

    /// Index and parse of the same bytes, under the allocation bound: they
    /// fail together or agree on every extent.
    fn index_and_parse_agree(bytes: &[u8], limit: Option<u64>) {
        let ((index, parsed), largest) = largest_request(|| {
            (
                index_fragment(bytes, limit),
                parse_fragment(bytes, &key(), limit),
            )
        });
        assert!(
            largest <= alloc_bound(bytes.len()),
            "{largest} bytes requested for {} of input",
            bytes.len()
        );
        let (index, parsed) = match (index, parsed) {
            (Ok(index), Ok(parsed)) => (index, parsed),
            // Framing passed; only a block's content can still fail.
            (Ok(_), Err(e)) => return assert!(matches!(e, VortexError::CorruptData(_)), "{e}"),
            (Err(_), Err(_)) => return,
            (Err(e), Ok(_)) => panic!("parse succeeded where the index failed: {e}"),
        };
        assert_eq!(index.valid_len, parsed.valid_len);
        assert_eq!(index.torn_bytes, parsed.torn_bytes);
        assert_eq!(index.valid_len + index.torn_bytes, bytes.len() as u64);
        assert_eq!(index.header, parsed.header);
        assert_eq!(index.flushes, parsed.flushes);
        assert_eq!(index.sentinels, parsed.sentinels);
        assert_eq!(index.footer, parsed.footer);
        assert_eq!(index.bloom.is_some(), parsed.bloom.is_some());
        let indexed: Vec<_> = (index.blocks.iter())
            .map(|b| (b.offset, b.first_row, b.row_count, b.timestamp, b.committed))
            .collect();
        let decoded: Vec<_> = (parsed.blocks.iter())
            .map(|b| {
                (
                    b.offset,
                    b.first_row,
                    b.rows.len() as u64,
                    b.timestamp,
                    b.committed,
                )
            })
            .collect();
        assert_eq!(indexed, decoded);
    }

    /// A walk resumed past the header record or any block — what a tail
    /// read that remembers the file does — finds what the whole walk
    /// found from there on, at the same offsets, and decodes it out of the
    /// suffix alone; a strict limit still bounds it.
    #[test]
    fn a_resumed_walk_continues_the_whole_one() {
        let (file, _) = build_full_file();
        let full = index_fragment(&file, None).unwrap();
        assert_eq!(full.start, 0);
        let boundaries = [full.header_len]
            .into_iter()
            .chain(full.blocks.iter().map(BlockEntry::end));
        for (held, at) in boundaries.enumerate() {
            let resume = || Some((at, full.header.clone()));
            let rest = index_fragment_from(&file[at as usize..], resume(), None).unwrap();
            assert_eq!((rest.start, rest.header_len), (at, 0));
            assert_eq!(rest.blocks, full.blocks[held..]);
            assert_eq!((rest.valid_len, rest.torn_bytes), (full.valid_len, 0));
            assert_eq!(rest.footer, full.footer);
            for b in &rest.blocks {
                let plain = rest
                    .block_plaintext(&file[at as usize..], &key(), b)
                    .unwrap();
                assert_eq!(plain, full.block_plaintext(&file, &key(), b).unwrap());
                assert!(rest.block_plaintext(&file, &key(), b).is_err() || at == 0);
            }
            // Bounded to the next block's end: that block and no more,
            // and corruption inside the bound is an error.
            let Some(next) = full.blocks.get(held) else {
                continue;
            };
            let bounded = index_fragment_from(&file[at as usize..], resume(), Some(next.end()));
            let bounded = bounded.unwrap();
            assert_eq!((bounded.blocks.len(), bounded.valid_len), (1, next.end()));
            assert!(bounded.blocks[0].same_record(next) && bounded.blocks[0].committed);
            let mut bad = file[at as usize..].to_vec();
            bad[(next.offset - at) as usize + RECORD_HEADER_LEN] ^= 1;
            assert!(index_fragment_from(&bad, resume(), Some(next.end())).is_err());
            assert!(index_fragment_from(&bad, resume(), None)
                .unwrap()
                .blocks
                .is_empty());
        }
    }

    #[test]
    fn every_truncation_point_is_handled() {
        use rand::{Rng, SeedableRng};
        let (file, _) = build_full_file();
        let full = index_fragment(&file, None).unwrap();
        assert_eq!((full.blocks.len(), full.torn_bytes), (3, 0));
        assert_eq!((full.flushes.len(), full.sentinels.len()), (1, 1));
        assert!(full.bloom.is_some() && full.footer.is_some());
        // Any truncation either parses a prefix or errors; never panics.
        // Strict or lenient, what does index is a record prefix of the
        // whole file.
        for cut in 0..=file.len() {
            for limit in [None, Some(cut as u64), Some(file.len() as u64)] {
                index_and_parse_agree(&file[..cut], limit);
            }
            if let Ok(index) = index_fragment(&file[..cut], None) {
                assert!(index.valid_len <= cut as u64);
                let n = index.blocks.len();
                assert_eq!(
                    index.blocks[..n.saturating_sub(1)],
                    full.blocks[..n.saturating_sub(1)]
                );
            }
        }
        // Single-bit flips anywhere in the file: every CRC-covered byte is
        // caught by framing, so a lenient walk ends at the damaged record
        // and a strict one refuses the file.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x10F);
        for _ in 0..3_000 {
            let mut bad = file.clone();
            let at = rng.gen_range(0..bad.len());
            bad[at] ^= 1u8 << rng.gen_range(0..8u32);
            index_and_parse_agree(&bad, None);
            index_and_parse_agree(&bad, Some(file.len() as u64));
            assert!(
                index_fragment(&bad, Some(file.len() as u64)).is_err(),
                "flip at {at}"
            );
            match index_fragment(&bad, None) {
                Ok(index) => assert!(index.valid_len <= at as u64, "flip at {at}"),
                Err(_) => assert!(at < full.blocks[0].offset as usize, "flip at {at}"),
            }
        }
        // Garbage tails: ignored past a limit, a torn tail without one.
        for len in [1usize, 47, 48, 49, 500] {
            let mut padded = file.clone();
            padded.extend((0..len).map(|_| rng.gen_range(0..=u8::MAX)));
            for limit in [None, Some(file.len() as u64), Some(padded.len() as u64)] {
                index_and_parse_agree(&padded, limit);
            }
            let index = index_fragment(&padded, None).unwrap();
            assert_eq!(
                (index.valid_len, index.torn_bytes),
                (file.len() as u64, len as u64)
            );
            assert_eq!(index.blocks, full.blocks);
        }
    }

    #[test]
    fn wrong_keys_never_over_allocate() {
        // One 8-row block under 4 000 wrong keys: the decrypted bytes are
        // noise, so the vsnap length varint declares anything up to 2^63
        // bytes. Sizing the output by it aborted the process.
        let (mut w, mut file) = FragmentWriter::new(cfg(), 0, vec![], Timestamp(1));
        file.extend(w.data_block(&rows(0, 8).rows, Timestamp(2)).unwrap());
        for i in 0..4_000 {
            let wrong = Key::derive_from_passphrase(&format!("wrong-{i}"));
            let (result, largest) = largest_request(|| parse_fragment(&file, &wrong, None));
            let err = result.expect_err("a wrong key cannot decode");
            assert!(matches!(err, VortexError::CorruptData(_)), "key {i}: {err}");
            assert!(
                largest <= alloc_bound(file.len()),
                "key {i}: {largest} bytes requested"
            );
        }
    }

    #[test]
    fn common_prefix_is_record_aligned_and_skips_stubs() {
        let (file, _) = build_fragment();
        let index = index_fragment(&file, None).unwrap();
        let (block2, whole) = (index.blocks[1].offset, file.len() as u64);
        let agreed = |copies: &[&Vec<u8>]| {
            let found = common_prefix(copies).unwrap();
            found.map(|(at, index)| (at, index.valid_len, index.blocks.len()))
        };
        // One copy: everything parseable.
        assert_eq!(agreed(&[&file]), Some((0, whole, 2)));
        // A copy torn inside the second block, then poisoned: the prefix
        // is cut back to the block's start, in either order.
        let mut torn = file[..block2 as usize + 60].to_vec();
        torn.extend(FragmentWriter::sentinel_record(7, Timestamp(9)));
        assert_eq!(agreed(&[&file, &torn]), Some((0, block2, 1)));
        assert_eq!(agreed(&[&torn, &file]), Some((0, block2, 1)));
        // Headerless stubs do not shrink the answer, and alone give none.
        let stub = FragmentWriter::sentinel_record(7, Timestamp(9));
        assert_eq!(agreed(&[&stub, &file]), Some((1, whole, 2)));
        assert_eq!(agreed(&[&stub, &Vec::new()]), None);
        assert_eq!(agreed(&[]), None);
        // A copy that runs on past the other's end agrees on all of it.
        let mut poisoned = file.clone();
        poisoned.extend(FragmentWriter::sentinel_record(7, Timestamp(9)));
        assert_eq!(agreed(&[&file, &poisoned]), Some((0, whole, 2)));
        assert_eq!(agreed(&[&poisoned, &file]), Some((0, whole, 2)));
    }

    #[test]
    fn bloom_is_read_through_the_footer() {
        let (mut file, finalized) = build_full_file();
        let reads = std::cell::RefCell::new(Vec::new());
        let read = |bytes: &[u8], offset: u64, len: usize| {
            reads.borrow_mut().push(len);
            let start = (offset as usize).min(bytes.len());
            Ok(bytes[start..(start + len).min(bytes.len())].to_vec())
        };
        // Behind the poison the footer is not where the size says: no bloom.
        let poisoned = read_bloom(file.len() as u64, |o, l| read(&file, o, l));
        assert!(poisoned.unwrap().is_none());
        file.truncate(finalized);
        reads.borrow_mut().clear();
        let bloom = read_bloom(file.len() as u64, |o, l| read(&file, o, l)).unwrap();
        assert!(bloom.unwrap().may_contain(b"k"));
        // Two reads, neither of row data: the footer and the bloom record.
        let footer = index_fragment(&file, None).unwrap().footer.unwrap();
        let bloom_len = file.len() - FOOTER_TOTAL_LEN - footer.bloom_offset as usize;
        assert_eq!(*reads.borrow(), [FOOTER_TOTAL_LEN, bloom_len]);
        // No footer (an unfinalized file, or one too short): no bloom.
        let (open, _) = build_fragment();
        let unfinalized = read_bloom(open.len() as u64, |o, l| read(&open, o, l));
        assert!(unfinalized.unwrap().is_none());
        assert!(read_bloom(10, |o, l| read(&open, o, l)).unwrap().is_none());
        // A footer that points anywhere but at the bloom record is corrupt.
        let at = file.len() - FOOTER_TOTAL_LEN;
        for bloom_offset in [0, footer.bloom_offset + 1, file.len() as u64] {
            let moved = Footer {
                bloom_offset,
                ..footer
            }
            .to_bytes();
            let mut rec = RecordHeader::from_bytes(&file[at..]).unwrap();
            rec.disk_crc = crc32c(&moved);
            let mut bad = file[..at].to_vec();
            bad.extend(rec.to_bytes());
            bad.extend(moved);
            let err = read_bloom(bad.len() as u64, |o, l| read(&bad, o, l)).unwrap_err();
            assert!(
                matches!(err, VortexError::CorruptData(_)),
                "{bloom_offset}: {err}"
            );
        }
    }

    #[test]
    fn committed_len_excludes_uncommitted_tail() {
        let (file, _) = build_fragment();
        let p = parse_fragment(&file, &key(), None).unwrap();
        // The committed prefix ends where the uncommitted tail block
        // starts, short of the valid records.
        assert!(p.blocks[0].committed && !p.blocks[1].committed);
        assert!(p.blocks[1].offset < p.valid_len);
    }
}
