//! "vsnap" — a byte-oriented LZ77 compressor standing in for Snappy.
//!
//! The Stream Server "uses the Snappy compressor, which has a negligible
//! CPU impact, to compress rows before appending them to the Fragment"
//! (§5.4.5); typical ratios are 4:1, up to 10:1 when string values repeat
//! across rows. Snappy itself is not on the approved dependency list, so
//! this module implements a compressor with the same design point: greedy
//! hash-table LZ matching, byte-aligned output, no entropy coding.
//!
//! It is not free. Measured on one pinned CPU of a 2-vCPU host, with
//! `orders`-shaped rows: a 2 000-row data block (155 KB of encoded rows,
//! 62 KB compressed) takes ≈ 310 µs to compress (≈ 0.5 GB/s), about half
//! of the ≈ 640 µs its `FragmentWriter::data_block` takes, and ≈ 97 µs to
//! expand; a 16-row block (1.3 KB) takes ≈ 1.0 of ≈ 4.1 µs. The match
//! finder reads 4-byte windows as words and extends a match 8 bytes at a
//! time; the decoder copies a literal, and a copy's bytes a period at a
//! time, whole.
//!
//! ## Format
//!
//! A varint of the uncompressed length, then a sequence of elements:
//!
//! - **Literal** (`tag & 3 == 0`): `tag >> 2` is `len - 1` for lengths up
//!   to 60; values 60–61 mean 1 or 2 extra little-endian length bytes
//!   follow. `len` literal bytes follow.
//! - **Copy** (`tag & 3 == 1`): `tag >> 2` is `len - 4` (4–66 bytes), then
//!   a 2-byte little-endian back-offset (1–65535). Copies may overlap the
//!   output cursor (RLE-style).
//!
//! Decompression is bounds-checked everywhere; corrupt input yields an
//! error, never UB or a panic.

use crate::codec::{get_uvarint, put_uvarint};

/// Errors produced while decompressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompressError {
    /// Input ended in the middle of an element.
    Truncated,
    /// A copy element referenced bytes before the start of output.
    BadOffset {
        /// The offset requested.
        offset: usize,
        /// Bytes produced so far.
        produced: usize,
    },
    /// The output did not match the declared uncompressed length.
    LengthMismatch {
        /// Length declared in the header.
        declared: usize,
        /// Length actually produced — or, when the declaration is refused
        /// before anything is produced, the most the input could expand to.
        produced: usize,
    },
    /// Reserved tag bits were set.
    BadTag(u8),
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "vsnap input truncated"),
            DecompressError::BadOffset { offset, produced } => {
                write!(f, "vsnap copy offset {offset} exceeds produced {produced}")
            }
            DecompressError::LengthMismatch { declared, produced } => {
                write!(f, "vsnap declared {declared} bytes, produced {produced}")
            }
            DecompressError::BadTag(t) => write!(f, "vsnap bad tag {t:#04x}"),
        }
    }
}

impl std::error::Error for DecompressError {}

const MIN_MATCH: usize = 4;
const MAX_COPY_LEN: usize = 66;
const MAX_OFFSET: usize = 65535;
const HASH_BITS: u32 = 14;

/// The match table's slot of a 4-byte window.
fn hash(window: u32) -> usize {
    (window.wrapping_mul(0x9E3779B1) >> (32 - HASH_BITS)) as usize
}

/// The 4-byte window at `at`, first byte lowest.
fn load32(input: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(input[at..at + 4].try_into().expect("a 4-byte slice"))
}

/// How many bytes from `b` on equal those from `a` on (`a < b`), up to the
/// end of `input`: a word at a time, the first differing byte found as the
/// lowest set bit of the two words' XOR, then the tail byte by byte.
fn match_len(input: &[u8], a: usize, b: usize) -> usize {
    let word = |at: usize| u64::from_le_bytes(input[at..at + 8].try_into().expect("8 bytes"));
    let mut len = 0;
    while b + len + 8 <= input.len() {
        let diff = word(a + len) ^ word(b + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    let tail = input[a + len..].iter().zip(&input[b + len..]);
    len + tail.take_while(|(x, y)| x == y).count()
}

fn emit_literal(out: &mut Vec<u8>, lit: &[u8]) {
    let mut rest = lit;
    while !rest.is_empty() {
        let take = rest.len().min(1 << 16);
        let (head, tail) = rest.split_at(take);
        let n = head.len();
        if n <= 60 {
            out.push(((n - 1) as u8) << 2);
        } else if n <= 256 {
            out.push(60 << 2);
            out.push((n - 1) as u8);
        } else {
            out.push(61 << 2);
            out.extend_from_slice(&((n - 1) as u16).to_le_bytes());
        }
        out.extend_from_slice(head);
        rest = tail;
    }
}

fn emit_copy(out: &mut Vec<u8>, offset: usize, mut len: usize) {
    debug_assert!((1..=MAX_OFFSET).contains(&offset));
    while len >= MIN_MATCH {
        let take = len.min(MAX_COPY_LEN);
        // Avoid leaving a tail shorter than MIN_MATCH.
        let take = if len - take > 0 && len - take < MIN_MATCH {
            len - MIN_MATCH
        } else {
            take
        };
        out.push((((take - MIN_MATCH) as u8) << 2) | 1);
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        len -= take;
    }
    debug_assert_eq!(len, 0);
}

/// The match finder's hash table: a position per hash of a 4-byte window.
type Slots = [u32; 1 << HASH_BITS];

/// The match finder's hash table, kept by each thread across calls so
/// that none pays to allocate and zero 64 KiB: a call stores positions
/// offset by its `base`, above every entry an earlier call left, so those
/// read as position 0 — what a zeroed table holds. `next` is the next
/// call's base; the table is zeroed again only when bases run out.
struct MatchTable {
    slots: Box<Slots>,
    next: u32,
}

thread_local! {
    static TABLE: std::cell::RefCell<MatchTable> = std::cell::RefCell::new(MatchTable {
        // lint:allow(L010, once per thread: every later call reuses it)
        slots: Box::new([0; 1 << HASH_BITS]),
        next: 0,
    });
}

/// Compresses `input`, returning the vsnap-framed bytes.
///
/// Worst case output is `input.len() + input.len()/60 + 10` bytes (pure
/// literals), so incompressible data costs under 2% expansion.
pub fn compress(input: &[u8]) -> Vec<u8> {
    TABLE.with_borrow_mut(|t| {
        if input.len() > (u32::MAX - t.next) as usize {
            t.slots.fill(0);
            t.next = 0;
        }
        let base = t.next;
        t.next = base.saturating_add(u32::try_from(input.len()).unwrap_or(u32::MAX));
        compress_with(input, &mut t.slots, base)
    })
}

/// [`compress`] over `table`, whose entries below `base` all read as
/// position 0.
fn compress_with(input: &[u8], table: &mut Slots, base: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    put_uvarint(&mut out, input.len() as u64);
    if input.len() < MIN_MATCH {
        if !input.is_empty() {
            emit_literal(&mut out, input);
        }
        return out;
    }

    let mut pos = 0usize;
    let mut lit_start = 0usize;
    // The last position where a 4-byte read is valid.
    let limit = input.len() - MIN_MATCH;

    while pos <= limit {
        let window = load32(input, pos);
        let held = std::mem::replace(&mut table[hash(window)], base.wrapping_add(pos as u32));
        let candidate = held.saturating_sub(base) as usize;
        let dist = pos.wrapping_sub(candidate);
        if candidate < pos && dist <= MAX_OFFSET && load32(input, candidate) == window {
            // Extend the match forward.
            let len = MIN_MATCH + match_len(input, candidate + MIN_MATCH, pos + MIN_MATCH);
            if lit_start < pos {
                emit_literal(&mut out, &input[lit_start..pos]);
            }
            emit_copy(&mut out, dist, len);
            // Seed the hash table sparsely inside the match to keep the
            // compressor fast on long runs.
            let end = pos + len;
            let mut seed = pos + 1;
            while seed <= limit && seed < end {
                table[hash(load32(input, seed))] = base.wrapping_add(seed as u32);
                seed += 13;
            }
            pos = end;
            lit_start = pos;
        } else {
            pos += 1;
        }
    }
    if lit_start < input.len() {
        emit_literal(&mut out, &input[lit_start..]);
    }
    out
}

/// Decompresses vsnap-framed bytes produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let mut pos = 0usize;
    let declared = get_uvarint(input, &mut pos).map_err(|_| DecompressError::Truncated)? as usize;
    // The declared length sizes the output buffer, and it arrives
    // unauthenticated (a block decrypted under the wrong key declares
    // noise): the densest element, a copy, turns 3 input bytes into at
    // most `MAX_COPY_LEN`, so nothing longer can be produced.
    let most = (input.len() - pos).saturating_mul(MAX_COPY_LEN) / 3;
    if declared > most {
        return Err(DecompressError::LengthMismatch {
            declared,
            produced: most,
        });
    }
    let mut out: Vec<u8> = Vec::with_capacity(declared);
    while pos < input.len() {
        let tag = input[pos];
        pos += 1;
        match tag & 3 {
            0 => {
                let selector = (tag >> 2) as usize;
                let len = match selector {
                    0..=59 => selector + 1,
                    60 => {
                        let b = *input.get(pos).ok_or(DecompressError::Truncated)?;
                        pos += 1;
                        b as usize + 1
                    }
                    61 => {
                        if pos + 2 > input.len() {
                            return Err(DecompressError::Truncated);
                        }
                        let v = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
                        pos += 2;
                        v + 1
                    }
                    _ => return Err(DecompressError::BadTag(tag)),
                };
                if pos + len > input.len() {
                    return Err(DecompressError::Truncated);
                }
                out.extend_from_slice(&input[pos..pos + len]);
                pos += len;
            }
            1 => {
                let len = ((tag >> 2) as usize) + MIN_MATCH;
                if pos + 2 > input.len() {
                    return Err(DecompressError::Truncated);
                }
                let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
                pos += 2;
                if offset == 0 || offset > out.len() {
                    return Err(DecompressError::BadOffset {
                        offset,
                        produced: out.len(),
                    });
                }
                // Overlapping copies are legal (RLE): what lies past
                // `start` has period `offset`, so each pass may copy all
                // of it that exists — whole periods, until the last.
                let start = out.len() - offset;
                let mut left = len;
                while left > 0 {
                    let run = left.min(out.len() - start);
                    out.extend_from_within(start..start + run);
                    left -= run;
                }
            }
            _ => return Err(DecompressError::BadTag(tag)),
        }
        if out.len() > declared {
            return Err(DecompressError::LengthMismatch {
                declared,
                produced: out.len(),
            });
        }
    }
    if out.len() != declared {
        return Err(DecompressError::LengthMismatch {
            declared,
            produced: out.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let c = compress(data);
        let d = decompress(&c).expect("decompress");
        assert_eq!(d, data, "roundtrip mismatch ({} bytes)", data.len());
        c
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn highly_repetitive_compresses_hard() {
        let data = b"customerKey=alice;".repeat(1000);
        let c = roundtrip(&data);
        let ratio = data.len() as f64 / c.len() as f64;
        assert!(
            ratio > 10.0,
            "expected >10:1 on repeated strings, got {ratio:.1}"
        );
    }

    #[test]
    fn rle_run() {
        let data = vec![7u8; 100_000];
        let c = roundtrip(&data);
        // Copies are capped at 66 bytes / 3 output bytes, so the best an
        // RLE run can do is ~22:1 (same ballpark as Snappy's 64-byte cap).
        assert!(c.len() < 6_000, "RLE run should collapse, got {}", c.len());
    }

    #[test]
    fn mixed_row_like_data_hits_typical_ratio() {
        // Rows with repeated field names and common values, varying keys —
        // the "typical compression ratio is 4:1" shape from §5.4.5.
        let ratio_of = |rows: u32| {
            let mut data = Vec::new();
            for i in 0..rows {
                data.extend_from_slice(
                    format!(
                        "orderTimestamp=2023-10-{:02};customerKey=cust{:04};currency=USD;qty={};",
                        (i % 28) + 1,
                        i % 97,
                        i % 13
                    )
                    .as_bytes(),
                );
            }
            data.len() as f64 / roundtrip(&data).len() as f64
        };
        let ratio = ratio_of(5000);
        assert!(ratio > 4.0, "expected ~4:1, got {ratio:.2}");
        // "More effective the larger the size of the batched append."
        let by_batch = [50, 500, 5000].map(ratio_of);
        assert!(by_batch.windows(2).all(|w| w[0] < w[1]), "{by_batch:?}");
    }

    #[test]
    fn incompressible_data_expands_little() {
        // A fixed LCG so the test is deterministic.
        let mut state = 0x12345678u64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        let c = roundtrip(&data);
        assert!(
            c.len() < data.len() + data.len() / 50 + 16,
            "expansion too large: {} -> {}",
            data.len(),
            c.len()
        );
    }

    #[test]
    fn long_literals_cross_block_boundaries() {
        // Exercise the 60/61 literal length selectors.
        for n in [59, 60, 61, 255, 256, 257, 65536, 65537, 70000] {
            let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let c = compress(&b"hello world hello world hello world".repeat(10));
        for cut in 0..c.len() {
            let _ = decompress(&c[..cut]); // must not panic
        }
    }

    #[test]
    fn bad_offset_rejected() {
        let mut bad = Vec::new();
        put_uvarint(&mut bad, 8);
        bad.push(1); // copy, len 4
        bad.extend_from_slice(&100u16.to_le_bytes()); // offset 100 with 0 produced
        assert!(matches!(
            decompress(&bad),
            Err(DecompressError::BadOffset { .. })
        ));
    }

    /// A copy that overlaps its own output repeats the last `offset`
    /// bytes: every offset 1..=8 × every copy length, against the
    /// byte-by-byte copy the decoder used to make.
    #[test]
    fn overlapping_copies_repeat_their_period() {
        for offset in 1..=8usize {
            for len in MIN_MATCH..=MAX_COPY_LEN {
                let seed: Vec<u8> = (0..offset + 3).map(|i| b'a' + i as u8).collect();
                let mut framed = Vec::new();
                put_uvarint(&mut framed, (seed.len() + len) as u64);
                emit_literal(&mut framed, &seed);
                emit_copy(&mut framed, offset, len);
                let mut want = seed.clone();
                for i in 0..len {
                    want.push(want[seed.len() - offset + i]);
                }
                assert_eq!(decompress(&framed).unwrap(), want, "{offset} × {len}");
            }
        }
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut bad = Vec::new();
        put_uvarint(&mut bad, 100); // declares 100 bytes
        bad.push(0 << 2); // one literal byte
        bad.push(b'x');
        assert!(matches!(
            decompress(&bad),
            Err(DecompressError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn impossible_declared_length_rejected_before_allocating() {
        // u64::MAX bytes declared over a 2-byte body: sizing the output
        // by it would abort the process.
        let mut bad = Vec::new();
        put_uvarint(&mut bad, u64::MAX);
        bad.extend_from_slice(&[0, b'x']);
        assert!(matches!(
            decompress(&bad),
            Err(DecompressError::LengthMismatch { produced: 44, .. })
        ));
        // The bound is the format's own: a run compresses to it exactly.
        roundtrip(&vec![7u8; 4 + 66 * 1000]);
    }

    /// What `compress` made when every call allocated a zeroed table.
    fn zeroed_table_reference(input: &[u8]) -> Vec<u8> {
        compress_with(input, &mut [0; 1 << HASH_BITS], 0)
    }

    /// The kept table changes no output byte: a random sequence of calls
    /// on one thread — short and long, repetitive and not, sharing bytes
    /// with the call before — each matches a freshly zeroed table, and so
    /// do calls across a forced wrap-around of the bases.
    #[test]
    fn kept_table_matches_a_zeroed_one() {
        let mut state = 0x0DDB_1A5E_5BAD_5EEDu64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut prev: Vec<u8> = Vec::new();
        for call in 0..600 {
            let len = [0, 3, 4, 17, 300, 1_200, 20_000][next(7) as usize];
            let alphabet = 1 + next(255);
            let mut input: Vec<u8> = (0..len).map(|_| next(alphabet) as u8).collect();
            if next(2) == 0 {
                let shared = prev.len().min(input.len());
                input[..shared].copy_from_slice(&prev[..shared]);
            }
            if call % 100 == 99 {
                TABLE.with_borrow_mut(|t| t.next = u32::MAX - next(40_000) as u32);
            }
            assert_eq!(
                compress(&input),
                zeroed_table_reference(&input),
                "call {call}"
            );
            prev = input;
        }
        // A wrap-around forgets: the call before stored position 197 for a
        // 4-gram that this call has at 197 too, but skips there (inside a
        // copy) and meets again at 250 — a zeroed table finds no match.
        let mut random = |n: usize| (0..n).map(|_| next(256) as u8).collect::<Vec<u8>>();
        let (r, s) = (random(100), random(50));
        let q = [&random(97)[..], &r[97..]].concat();
        let before = [&r[..], &q, &s].concat();
        let after = [&r[..], &r, &s, &r[97..], &s[..1]].concat();
        for input in [before, after] {
            TABLE.with_borrow_mut(|t| t.next = u32::MAX - 5);
            assert_eq!(compress(&input), zeroed_table_reference(&input));
        }
    }

    /// The byte-at-a-time match finder `compress_with` replaced: each
    /// window read byte by byte, each match extended a byte at a time.
    fn reference_compress_with(input: &[u8], table: &mut Slots, base: u32) -> Vec<u8> {
        let hash4 = |bytes: &[u8]| {
            let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            (v.wrapping_mul(0x9E3779B1) >> (32 - HASH_BITS)) as usize
        };
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        put_uvarint(&mut out, input.len() as u64);
        if input.len() < MIN_MATCH {
            if !input.is_empty() {
                emit_literal(&mut out, input);
            }
            return out;
        }
        let (mut pos, mut lit_start, limit) = (0usize, 0usize, input.len() - MIN_MATCH);
        while pos <= limit {
            let h = hash4(&input[pos..]);
            let candidate = table[h].saturating_sub(base) as usize;
            table[h] = base.wrapping_add(pos as u32);
            let dist = pos.wrapping_sub(candidate);
            if candidate < pos
                && dist <= MAX_OFFSET
                && input[candidate..candidate + MIN_MATCH] == input[pos..pos + MIN_MATCH]
            {
                let mut len = MIN_MATCH;
                while pos + len < input.len() && input[candidate + len] == input[pos + len] {
                    len += 1;
                }
                if lit_start < pos {
                    emit_literal(&mut out, &input[lit_start..pos]);
                }
                emit_copy(&mut out, dist, len);
                let end = pos + len;
                let mut seed = pos + 1;
                while seed <= limit && seed < end {
                    table[hash4(&input[seed..])] = base.wrapping_add(seed as u32);
                    seed += 13;
                }
                pos = end;
                lit_start = pos;
            } else {
                pos += 1;
            }
        }
        if lit_start < input.len() {
            emit_literal(&mut out, &input[lit_start..]);
        }
        out
    }

    /// [`decompress`] a byte at a time: each literal byte and each copied
    /// byte pushed on its own.
    fn reference_decompress(input: &[u8]) -> Result<Vec<u8>, DecompressError> {
        let mut pos = 0usize;
        let declared =
            get_uvarint(input, &mut pos).map_err(|_| DecompressError::Truncated)? as usize;
        let most = (input.len() - pos).saturating_mul(MAX_COPY_LEN) / 3;
        if declared > most {
            return Err(DecompressError::LengthMismatch {
                declared,
                produced: most,
            });
        }
        let mut out: Vec<u8> = Vec::with_capacity(declared);
        while pos < input.len() {
            let tag = input[pos];
            pos += 1;
            match tag & 3 {
                0 => {
                    let len = match (tag >> 2) as usize {
                        selector @ 0..=59 => selector + 1,
                        60 => {
                            let b = *input.get(pos).ok_or(DecompressError::Truncated)?;
                            pos += 1;
                            b as usize + 1
                        }
                        61 => {
                            if pos + 2 > input.len() {
                                return Err(DecompressError::Truncated);
                            }
                            let v = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
                            pos += 2;
                            v + 1
                        }
                        _ => return Err(DecompressError::BadTag(tag)),
                    };
                    if pos + len > input.len() {
                        return Err(DecompressError::Truncated);
                    }
                    input[pos..pos + len].iter().for_each(|&b| out.push(b));
                    pos += len;
                }
                1 => {
                    let len = ((tag >> 2) as usize) + MIN_MATCH;
                    if pos + 2 > input.len() {
                        return Err(DecompressError::Truncated);
                    }
                    let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
                    pos += 2;
                    if offset == 0 || offset > out.len() {
                        return Err(DecompressError::BadOffset {
                            offset,
                            produced: out.len(),
                        });
                    }
                    let start = out.len() - offset;
                    for i in 0..len {
                        out.push(out[start + i]);
                    }
                }
                _ => return Err(DecompressError::BadTag(tag)),
            }
            if out.len() > declared {
                return Err(DecompressError::LengthMismatch {
                    declared,
                    produced: out.len(),
                });
            }
        }
        if out.len() != declared {
            return Err(DecompressError::LengthMismatch {
                declared,
                produced: out.len(),
            });
        }
        Ok(out)
    }

    /// An input of `len` bytes of one of four shapes, drawn from `seed`:
    /// random bytes over a small or a full alphabet, a short period with
    /// noise, rows of repeated field names and varying values, and
    /// FSST-like output (one-byte codes, escapes, length prefixes).
    fn shaped_input(shape: u8, len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound.max(1)
        };
        let mut out = Vec::with_capacity(len + 64);
        let alphabet = [2, 16, 256][next(3) as usize];
        let period = 1 + next(40) as usize;
        while out.len() < len {
            match shape {
                0 => out.push(next(alphabet) as u8),
                1 => match next(50) {
                    0 => out.push(next(256) as u8),
                    _ => out.push(out.len().checked_sub(period).map_or(7, |at| out[at])),
                },
                2 => out.extend_from_slice(
                    format!(
                        "customer=c{:03};amount={};note=ships in {} days;",
                        next(97),
                        next(100_000),
                        next(9)
                    )
                    .as_bytes(),
                ),
                _ => {
                    let codes = 1 + next(30) as usize;
                    out.push(codes as u8);
                    for _ in 0..codes {
                        match next(8) {
                            0 => out.extend_from_slice(&[255, next(256) as u8]),
                            _ => out.push(next(alphabet.min(40)) as u8),
                        }
                    }
                }
            }
        }
        out.truncate(len);
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// The word-at-a-time compressor writes the byte loop's bytes and
        /// leaves its table as the byte loop does, from a fresh table and
        /// from one kept across calls; the decoder and its byte loop agree
        /// on every input and on every truncation and bit flip of it.
        #[test]
        fn word_kernels_match_the_byte_loops(
            (shape, len, seed) in (0u8..4, 0usize..3_000, proptest::prelude::any::<u64>()),
            (kept, flips) in (0u32..u32::MAX, 0usize..24),
        ) {
            let input = shaped_input(shape, len, seed);
            let fresh = compress_with(&input, &mut [0; 1 << HASH_BITS], 0);
            let want = reference_compress_with(&input, &mut [0; 1 << HASH_BITS], 0);
            assert_eq!(fresh, want, "fresh table, shape {shape}");
            // A kept table: another input's positions below the base.
            let mut table = [0; 1 << HASH_BITS];
            let base = kept.clamp(2 * input.len() as u32, u32::MAX - input.len() as u32);
            compress_with(&shaped_input(shape, len, !seed), &mut table, base / 2);
            let mut twin = table;
            let got = compress_with(&input, &mut table, base);
            assert_eq!(got, reference_compress_with(&input, &mut twin, base));
            assert_eq!(table, twin, "tables after a kept-table call");
            assert_eq!(got, want, "a kept table changes no byte");
            assert_eq!(decompress(&got), Ok(input.clone()));
            let mut state = seed;
            for cut in (0..got.len()).step_by(1 + got.len() / 64) {
                assert_eq!(decompress(&got[..cut]), reference_decompress(&got[..cut]));
            }
            for _ in 0..flips {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let mut bad = got.clone();
                if let Some(byte) = bad.get_mut((state >> 33) as usize % got.len().max(1)) {
                    *byte ^= 1 << (state >> 29 & 7);
                }
                assert_eq!(decompress(&bad), reference_decompress(&bad), "flip of {bad:?}");
            }
        }
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }
}
