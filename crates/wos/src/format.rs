//! Binary layout of WOS fragment files.
//!
//! A fragment file is a sequence of length-framed records, each introduced
//! by a fixed 48-byte [`RecordHeader`]. The first record is always a
//! [`RecordType::Header`] carrying the [`FragmentHeader`] (ids, schema
//! version, File Map); the last two records of a finalized fragment are a
//! [`RecordType::Bloom`] and a [`RecordType::Footer`].

use vortex_common::codec::take_array;
use vortex_common::crc::crc32c;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{FragmentId, StreamletId};
use vortex_common::truetime::Timestamp;

/// Magic for every record header ("VB" little-endian).
pub const RECORD_MAGIC: u16 = 0x4256;
/// Fixed size of a [`RecordHeader`] on disk.
pub const RECORD_HEADER_LEN: usize = 48;
/// Current format version written into fragment headers.
pub const FORMAT_VERSION: u16 = 1;
/// Fixed total size of the footer record (header + 24-byte payload),
/// letting readers locate it from the end of a finalized file.
pub const FOOTER_TOTAL_LEN: usize = RECORD_HEADER_LEN + 24;

/// The kind of a record in a fragment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordType {
    /// Fragment header with the File Map. Always the first record.
    Header,
    /// A block of appended rows (compressed + encrypted).
    Data,
    /// Commit marker: everything before this record is committed.
    Commit,
    /// FlushStream marker for BUFFERED streams.
    Flush,
    /// Zombie-writer poison (§5.6).
    Sentinel,
    /// Serialized bloom filter over partition/clustering keys.
    Bloom,
    /// Fixed-length trailer marking the fragment finalized.
    Footer,
}

impl RecordType {
    /// Wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            RecordType::Header => 1,
            RecordType::Data => 2,
            RecordType::Commit => 3,
            RecordType::Flush => 4,
            RecordType::Sentinel => 5,
            RecordType::Bloom => 6,
            RecordType::Footer => 7,
        }
    }

    /// Parses a wire value.
    pub fn from_u8(v: u8) -> VortexResult<Self> {
        Ok(match v {
            1 => RecordType::Header,
            2 => RecordType::Data,
            3 => RecordType::Commit,
            4 => RecordType::Flush,
            5 => RecordType::Sentinel,
            6 => RecordType::Bloom,
            7 => RecordType::Footer,
            other => return Err(VortexError::Decode(format!("bad record type {other}"))),
        })
    }
}

/// The fixed 48-byte header framing every record.
///
/// Layout (little-endian):
/// `magic u16 | type u8 | flags u8 | block_ordinal u32 | timestamp u64 |
///  first_row u64 | row_count u32 | uncompressed_len u32 | payload_len u32 |
///  plain_crc u32 | disk_crc u32 | header_crc u32`
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// Record kind.
    pub rtype: RecordType,
    /// Reserved flag bits (currently zero).
    pub flags: u8,
    /// Ordinal of this record within the fragment (0 = header record).
    /// Doubles as the encryption-nonce block counter for data blocks.
    pub block_ordinal: u32,
    /// Server-assigned TrueTime timestamp of the write.
    pub timestamp: Timestamp,
    /// For data blocks: streamlet-relative row offset of the first row.
    /// For commit records: the streamlet row count committed so far.
    pub first_row: u64,
    /// Number of rows in a data block (0 otherwise).
    pub row_count: u32,
    /// Plaintext (pre-compression) length of the payload.
    pub uncompressed_len: u32,
    /// On-disk payload length following this header.
    pub payload_len: u32,
    /// CRC32C of the plaintext row bytes (end-to-end protection).
    pub plain_crc: u32,
    /// CRC32C of the on-disk (compressed+encrypted) payload.
    pub disk_crc: u32,
}

impl RecordHeader {
    /// Serializes to the fixed 48-byte layout, computing the header CRC.
    pub fn to_bytes(self) -> [u8; RECORD_HEADER_LEN] {
        let mut b = [0u8; RECORD_HEADER_LEN];
        b[0..2].copy_from_slice(&RECORD_MAGIC.to_le_bytes());
        b[2] = self.rtype.to_u8();
        b[3] = self.flags;
        b[4..8].copy_from_slice(&self.block_ordinal.to_le_bytes());
        b[8..16].copy_from_slice(&self.timestamp.micros().to_le_bytes());
        b[16..24].copy_from_slice(&self.first_row.to_le_bytes());
        b[24..28].copy_from_slice(&self.row_count.to_le_bytes());
        b[28..32].copy_from_slice(&self.uncompressed_len.to_le_bytes());
        b[32..36].copy_from_slice(&self.payload_len.to_le_bytes());
        b[36..40].copy_from_slice(&self.plain_crc.to_le_bytes());
        b[40..44].copy_from_slice(&self.disk_crc.to_le_bytes());
        let crc = crc32c(&b[0..44]);
        b[44..48].copy_from_slice(&crc.to_le_bytes());
        b
    }

    /// Parses and CRC-validates a header. Errors indicate a torn or
    /// corrupt record — callers treat that as end-of-valid-data.
    pub fn from_bytes(b: &[u8]) -> VortexResult<Self> {
        let pos = &mut 0usize;
        let magic = u16::from_le_bytes(take_array(b, pos)?);
        if magic != RECORD_MAGIC {
            return Err(VortexError::Decode(format!(
                "bad record magic {magic:#06x}"
            )));
        }
        let [rtype, flags] = take_array(b, pos)?;
        let block_ordinal = u32::from_le_bytes(take_array(b, pos)?);
        let timestamp = Timestamp::from_micros(u64::from_le_bytes(take_array(b, pos)?));
        let first_row = u64::from_le_bytes(take_array(b, pos)?);
        let row_count = u32::from_le_bytes(take_array(b, pos)?);
        let uncompressed_len = u32::from_le_bytes(take_array(b, pos)?);
        let payload_len = u32::from_le_bytes(take_array(b, pos)?);
        let plain_crc = u32::from_le_bytes(take_array(b, pos)?);
        let disk_crc = u32::from_le_bytes(take_array(b, pos)?);
        let actual = crc32c(&b[..*pos]);
        let stored_crc = u32::from_le_bytes(take_array(b, pos)?);
        if stored_crc != actual {
            return Err(VortexError::CorruptData(format!(
                "record header crc mismatch: stored {stored_crc:#010x}, actual {actual:#010x}"
            )));
        }
        Ok(RecordHeader {
            rtype: RecordType::from_u8(rtype)?,
            flags,
            block_ordinal,
            timestamp,
            first_row,
            row_count,
            uncompressed_len,
            payload_len,
            plain_crc,
            disk_crc,
        })
    }
}

/// One entry of the File Map: a previous, not-yet-deleted fragment of the
/// same streamlet with its committed final size and record range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileMapEntry {
    /// Ordinal of the fragment within the streamlet (0-based).
    pub ordinal: u32,
    /// Fragment id (names the log file).
    pub fragment: FragmentId,
    /// Committed final size of that fragment's log file, in bytes.
    pub committed_size: u64,
    /// Streamlet-relative row offset of the fragment's first row.
    pub first_row: u64,
    /// Number of committed rows in the fragment.
    pub row_count: u64,
}

impl FileMapEntry {
    const LEN: usize = 4 + 8 + 8 + 8 + 8;

    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.ordinal.to_le_bytes());
        out.extend_from_slice(&self.fragment.raw().to_le_bytes());
        out.extend_from_slice(&self.committed_size.to_le_bytes());
        out.extend_from_slice(&self.first_row.to_le_bytes());
        out.extend_from_slice(&self.row_count.to_le_bytes());
    }

    fn read(b: &[u8], pos: &mut usize) -> VortexResult<Self> {
        Ok(FileMapEntry {
            ordinal: u32::from_le_bytes(take_array(b, pos)?),
            fragment: FragmentId::from_raw(u64::from_le_bytes(take_array(b, pos)?)),
            committed_size: u64::from_le_bytes(take_array(b, pos)?),
            first_row: u64::from_le_bytes(take_array(b, pos)?),
            row_count: u64::from_le_bytes(take_array(b, pos)?),
        })
    }
}

/// Identity of a fragment plus the File Map, serialized as the payload of
/// the leading header record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentHeader {
    /// Format version.
    pub format_version: u16,
    /// Owning streamlet.
    pub streamlet: StreamletId,
    /// This fragment's id.
    pub fragment: FragmentId,
    /// Ordinal within the streamlet (0-based).
    pub ordinal: u32,
    /// Streamlet-relative row offset of the first row in this fragment.
    pub first_row: u64,
    /// Schema version rows in this fragment were validated against.
    pub schema_version: u32,
    /// File Map over previous live fragments.
    pub file_map: Vec<FileMapEntry>,
}

impl FragmentHeader {
    /// Serializes the header payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(34 + self.file_map.len() * FileMapEntry::LEN);
        out.extend_from_slice(&self.format_version.to_le_bytes());
        out.extend_from_slice(&self.streamlet.raw().to_le_bytes());
        out.extend_from_slice(&self.fragment.raw().to_le_bytes());
        out.extend_from_slice(&self.ordinal.to_le_bytes());
        out.extend_from_slice(&self.first_row.to_le_bytes());
        out.extend_from_slice(&self.schema_version.to_le_bytes());
        out.extend_from_slice(&(self.file_map.len() as u32).to_le_bytes());
        for e in &self.file_map {
            e.write(&mut out);
        }
        out
    }

    /// Deserializes the header payload.
    pub fn from_bytes(b: &[u8]) -> VortexResult<Self> {
        let pos = &mut 0usize;
        let format_version = u16::from_le_bytes(take_array(b, pos)?);
        if format_version != FORMAT_VERSION {
            return Err(VortexError::Decode(format!(
                "unsupported WOS format version {format_version}"
            )));
        }
        let streamlet = StreamletId::from_raw(u64::from_le_bytes(take_array(b, pos)?));
        let fragment = FragmentId::from_raw(u64::from_le_bytes(take_array(b, pos)?));
        let ordinal = u32::from_le_bytes(take_array(b, pos)?);
        let first_row = u64::from_le_bytes(take_array(b, pos)?);
        let schema_version = u32::from_le_bytes(take_array(b, pos)?);
        let count = u32::from_le_bytes(take_array(b, pos)?) as usize;
        // Bound the count by the bytes present before sizing by it.
        let have = (b.len() - *pos) / FileMapEntry::LEN;
        if count > have {
            return Err(VortexError::Decode(format!(
                "file map declares {count} entries, {have} present"
            )));
        }
        let mut file_map = Vec::with_capacity(count);
        for _ in 0..count {
            file_map.push(FileMapEntry::read(b, pos)?);
        }
        Ok(FragmentHeader {
            format_version,
            streamlet,
            fragment,
            ordinal,
            first_row,
            schema_version,
            file_map,
        })
    }
}

/// Payload of the fixed-length footer record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    /// Byte offset of the bloom record's header within the fragment.
    pub bloom_offset: u64,
    /// Total committed rows in this fragment.
    pub total_rows: u64,
    /// Committed logical size of the fragment in bytes (including the
    /// bloom and footer records).
    pub committed_size: u64,
}

impl Footer {
    /// Serializes the 24-byte footer payload.
    pub fn to_bytes(&self) -> [u8; 24] {
        let mut b = [0u8; 24];
        b[0..8].copy_from_slice(&self.bloom_offset.to_le_bytes());
        b[8..16].copy_from_slice(&self.total_rows.to_le_bytes());
        b[16..24].copy_from_slice(&self.committed_size.to_le_bytes());
        b
    }

    /// Deserializes the footer payload.
    pub fn from_bytes(b: &[u8]) -> VortexResult<Self> {
        let pos = &mut 0usize;
        Ok(Footer {
            bloom_offset: u64::from_le_bytes(take_array(b, pos)?),
            total_rows: u64::from_le_bytes(take_array(b, pos)?),
            committed_size: u64::from_le_bytes(take_array(b, pos)?),
        })
    }
}

/// Static parameters of a fragment being written.
#[derive(Debug, Clone)]
pub struct FragmentConfig {
    /// Owning streamlet.
    pub streamlet: StreamletId,
    /// This fragment's id.
    pub fragment: FragmentId,
    /// Ordinal within the streamlet.
    pub ordinal: u32,
    /// Schema version in force.
    pub schema_version: u32,
    /// Encryption key (system or customer supplied, §5.4.5).
    pub key: vortex_common::crypt::Key,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> RecordHeader {
        RecordHeader {
            rtype: RecordType::Data,
            flags: 0,
            block_ordinal: 3,
            timestamp: Timestamp::from_micros(123_456),
            first_row: 42,
            row_count: 10,
            uncompressed_len: 1000,
            payload_len: 400,
            plain_crc: 0xABCD,
            disk_crc: 0x1234,
        }
    }

    #[test]
    fn record_header_roundtrip() {
        let h = sample_header();
        let b = h.to_bytes();
        assert_eq!(b.len(), RECORD_HEADER_LEN);
        assert_eq!(RecordHeader::from_bytes(&b).unwrap(), h);
    }

    #[test]
    fn record_header_detects_corruption() {
        let h = sample_header();
        let good = h.to_bytes();
        for i in 0..RECORD_HEADER_LEN {
            let mut bad = good;
            bad[i] ^= 0x01;
            assert!(
                RecordHeader::from_bytes(&bad).is_err(),
                "flip at byte {i} undetected"
            );
        }
    }

    #[test]
    fn record_header_truncation() {
        let b = sample_header().to_bytes();
        assert!(RecordHeader::from_bytes(&b[..47]).is_err());
        assert!(RecordHeader::from_bytes(&[]).is_err());
    }

    #[test]
    fn record_types_roundtrip() {
        for t in [
            RecordType::Header,
            RecordType::Data,
            RecordType::Commit,
            RecordType::Flush,
            RecordType::Sentinel,
            RecordType::Bloom,
            RecordType::Footer,
        ] {
            assert_eq!(RecordType::from_u8(t.to_u8()).unwrap(), t);
        }
        assert!(RecordType::from_u8(0).is_err());
        assert!(RecordType::from_u8(99).is_err());
    }

    #[test]
    fn fragment_header_roundtrip_with_file_map() {
        let h = FragmentHeader {
            format_version: FORMAT_VERSION,
            streamlet: StreamletId::from_raw(7),
            fragment: FragmentId::from_raw(100),
            ordinal: 2,
            first_row: 2048,
            schema_version: 5,
            file_map: vec![
                FileMapEntry {
                    ordinal: 0,
                    fragment: FragmentId::from_raw(98),
                    committed_size: 1 << 20,
                    first_row: 0,
                    row_count: 1024,
                },
                FileMapEntry {
                    ordinal: 1,
                    fragment: FragmentId::from_raw(99),
                    committed_size: 2 << 20,
                    first_row: 1024,
                    row_count: 1024,
                },
            ],
        };
        let b = h.to_bytes();
        assert_eq!(FragmentHeader::from_bytes(&b).unwrap(), h);
    }

    #[test]
    fn fragment_header_empty_file_map() {
        let h = FragmentHeader {
            format_version: FORMAT_VERSION,
            streamlet: StreamletId::from_raw(1),
            fragment: FragmentId::from_raw(2),
            ordinal: 0,
            first_row: 0,
            schema_version: 1,
            file_map: vec![],
        };
        assert_eq!(FragmentHeader::from_bytes(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn fragment_header_bad_version_and_truncation() {
        let h = FragmentHeader {
            format_version: FORMAT_VERSION,
            streamlet: StreamletId::from_raw(1),
            fragment: FragmentId::from_raw(2),
            ordinal: 0,
            first_row: 0,
            schema_version: 1,
            file_map: vec![],
        };
        let mut b = h.to_bytes();
        b[0] = 99;
        assert!(FragmentHeader::from_bytes(&b).is_err());
        let b = h.to_bytes();
        assert!(FragmentHeader::from_bytes(&b[..10]).is_err());
    }

    #[test]
    fn footer_roundtrip() {
        let f = Footer {
            bloom_offset: 999,
            total_rows: 10_000,
            committed_size: 123_456,
        };
        assert_eq!(Footer::from_bytes(&f.to_bytes()).unwrap(), f);
        assert!(Footer::from_bytes(&[0; 10]).is_err());
    }

    #[test]
    fn footer_total_len_is_fixed() {
        assert_eq!(FOOTER_TOTAL_LEN, 72);
    }
}
