//! CRC32C (Castagnoli) checksums.
//!
//! Vortex "uses an end-to-end CRC to protect row data as it is sent from
//! the client to the Stream Server, and from the Stream Server to Colossus"
//! (§5.4.5). Data bytes travel alongside their CRC; corruption anywhere in
//! memory or in flight is detected before the bytes are accepted.
//!
//! CRC32C (polynomial 0x1EDC6F41, reflected 0x82F63B78) is the polynomial
//! of iSCSI/ext4 and of the SSE4.2 `crc32` instruction, which computes it
//! where the CPU has it — the workspace's one `unsafe` call, see
//! CONTRIBUTING — and a from-scratch slice-by-8 table walk elsewhere. The
//! two give the same values.

const POLY: u32 = 0x82F63B78;

/// Eight 256-entry tables for slice-by-8 processing.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// The slice-by-8 table walk: the portable path, and the reference the
/// instruction is tested against.
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][((lo >> 24) & 0xFF) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][((hi >> 24) & 0xFF) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The same polynomial in hardware: eight bytes per `crc32` instruction,
/// then one per byte.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut chunks = data.chunks_exact(8);
    let mut wide = crc as u64;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().unwrap_or_default());
        wide = _mm_crc32_u64(wide, word);
    }
    (chunks.remainder().iter()).fold(wide as u32, |crc, &b| _mm_crc32_u8(crc, b))
}

/// A streaming CRC32C hasher.
#[derive(Debug, Clone)]
pub struct Crc32c {
    state: u32,
}

impl Crc32c {
    /// Starts a new checksum computation.
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Feeds `data` into the checksum: with the SSE4.2 `crc32`
    /// instruction where the CPU has it, else through the tables.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: the one precondition of a `#[target_feature]`
            // function — that the CPU has the feature — was checked just
            // above; `update_sse42` reads only through safe slices.
            self.state = unsafe { update_sse42(self.state, data) };
            return;
        }
        self.state = update_table(self.state, data);
    }

    /// Finishes and returns the checksum value.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC32C of a byte slice.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut h = Crc32c::new();
    h.update(data);
    h.finalize()
}

/// Verifies that `data` matches `expected`, returning a descriptive error
/// string on mismatch (callers wrap this into `VortexError::CorruptData`).
pub fn verify_crc32c(data: &[u8], expected: u32) -> Result<(), String> {
    let actual = crc32c(data);
    if actual == expected {
        Ok(())
    } else {
        Err(format!(
            "crc mismatch: expected {expected:#010x}, computed {actual:#010x} over {} bytes",
            data.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer tests from RFC 3720 (iSCSI) appendix B.4.
    #[test]
    fn known_vectors() {
        assert_eq!(crc32c(&[0u8; 32]), 0x8A9136AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD794E);
        let descending: Vec<u8> = (0u8..32).rev().collect();
        assert_eq!(crc32c(&descending), 0x113FDB5C);
    }

    #[test]
    fn crc_of_123456789() {
        // Standard check value for CRC32C.
        assert_eq!(crc32c(b"123456789"), 0xE3069283);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let oneshot = crc32c(&data);
        for split in [0, 1, 7, 8, 9, 100, 999, 4000] {
            let (a, b) = data.split_at(split);
            let mut h = Crc32c::new();
            h.update(a);
            h.update(b);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = b"vortex stream-oriented storage".to_vec();
        let good = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32c(&data), good, "flip {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn verify_helper() {
        let d = b"hello";
        assert!(verify_crc32c(d, crc32c(d)).is_ok());
        let err = verify_crc32c(d, 0xDEADBEEF).unwrap_err();
        assert!(err.contains("crc mismatch"));
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32c(&[]), 0);
    }

    /// `update` (the instruction, where the CPU has it) and the table walk
    /// agree from any state, at every length to 4 KiB and every alignment
    /// of the first byte, and both give the RFC 3720 vectors.
    #[test]
    fn instruction_and_table_agree() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=4096 {
                let bytes = &data[offset..offset + len];
                let mut h = Crc32c::new();
                h.update(bytes);
                let seed = len as u32 ^ 0x5A5A_5A5A;
                let mut seeded = Crc32c { state: seed };
                seeded.update(bytes);
                assert_eq!(h.state, update_table(!0, bytes), "{offset} + {len}");
                assert_eq!(seeded.state, update_table(seed, bytes), "{offset} + {len}");
            }
        }
        let table = |bytes: &[u8]| !update_table(!0, bytes);
        let ascending: Vec<u8> = (0u8..32).collect();
        let descending: Vec<u8> = (0u8..32).rev().collect();
        for v in [
            &[0u8; 32][..],
            &[0xFF; 32],
            &ascending,
            &descending,
            b"123456789",
        ] {
            assert_eq!(crc32c(v), table(v));
        }
        assert_eq!(table(&ascending), 0x46DD794E);
    }
}
