//! Adaptive per-column cascading encodings.
//!
//! A cascade in the style of the spiraldb Vortex toolkit / BtrBlocks
//! (the classic columnar trade, Abadi et al., cited as \[2\] in the
//! paper), over [`Encoding::Plain`] as the leaf that always applies:
//!
//! * [`Encoding::IntPack`] — delta + frame-of-reference + bit-packing for
//!   `Int64` / `Date` / `Timestamp` columns (FastLanes-style).
//! * [`Encoding::Alp`] — ALP-style decimal decomposition for `Float64`:
//!   each float is stored as a small integer scaled by a per-chunk power
//!   of ten, with bit-exact verification and raw-bits patches for values
//!   that don't decompose (NaN, -0.0, long mantissas).
//! * [`Encoding::Fsst`] — FSST-style symbol-table compression for
//!   `String` / `Json` / `Bytes`: a table of up to 254 byte sequences
//!   (1..=8 bytes) replaces frequent substrings with 1-byte codes.
//! * [`Encoding::DictV2`] — dictionary with bit-packed codes whose value
//!   section is itself encoded by one of the leaf encodings above.
//! * [`Encoding::RleV2`] — run lengths split from run values so the
//!   values column can cascade too.
//!
//! Both directions speak [`ColumnVec`]: the chooser ([`encode_column`])
//! takes one zone of a column as a leaf vector, and decoding writes one —
//! neither builds a `Value` per cell of a typed column.
//!
//! The chooser profiles the zone once (its NULLs, ends, runs and Plain
//! size, the frames of its integers, its distinct cells — under the
//! `Value::key_eq` equality so sizes and encoders agree on NaN / -0.0; the
//! vector's type decides which leaf encoding applies), sizes every
//! candidate that has a closed form from the profile, and encodes the
//! winner alone. A zone is at most [`crate::ZONE_ROWS`] cells, so there
//! is no sampling stage: every candidate is sized exactly.
//!
//! Decoding preserves the compressed structure (dictionary codes, run
//! lengths) so the query engine can evaluate predicates on codes and
//! runs. Every decode path is bounds-checked: declared lengths are
//! bounded by the *remaining* input before any allocation.

use std::borrow::Cow;
use std::cmp::{Ordering, Reverse};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

use crate::column::{
    null_at, nulls_at, ColumnBuilder, ColumnVec, IntKind, KeyedRows, Nulls, Prim, StrKind, Strs,
};
use vortex_common::codec::{
    decode_value, encode_value, get_ivarint, get_len, get_uvarint, put_bytes, put_ivarint,
    put_uvarint, take, TAG_BOOL, TAG_BYTES, TAG_DATE, TAG_FLOAT64, TAG_INT64, TAG_JSON, TAG_NULL,
    TAG_NUMERIC, TAG_STRING, TAG_TIMESTAMP,
};
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::exact::ExactSum;
use vortex_common::obs::{Counter, Lazy, Registry};
use vortex_common::row::Value;

/// How a column chunk is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Values stored back to back.
    Plain = 0,
    /// Delta/frame-of-reference + bit-packed integers (Int64/Date/Timestamp).
    IntPack = 3,
    /// ALP-style decimal floats: scaled integers + raw-bits patches.
    Alp = 4,
    /// FSST-style symbol-table compressed strings/bytes.
    Fsst = 5,
    /// Dictionary with a cascaded value section and bit-packed codes.
    DictV2 = 6,
    /// Run lengths + a cascaded run-value section.
    RleV2 = 7,
}

const ALL_ENCODINGS: [Encoding; 6] = {
    use Encoding::*;
    [Plain, IntPack, Alp, Fsst, DictV2, RleV2]
};

impl Encoding {
    /// Wire value: the discriminant. 1 and 2 were the v1 dictionary /
    /// run-length formats, which nothing writes or reads any more; they
    /// stay unassigned.
    pub fn to_u8(self) -> u8 {
        self as u8
    }

    /// Parses a wire value.
    pub fn from_u8(v: u8) -> VortexResult<Self> {
        let known = ALL_ENCODINGS.into_iter().find(|e| e.to_u8() == v);
        known.ok_or_else(|| VortexError::Decode(format!("bad encoding {v}")))
    }

    /// Whether this encoding may appear as the *value section* of DictV2 /
    /// RleV2. Restricting the nest to leaf encodings bounds decode
    /// recursion on corrupt input.
    fn nestable(self) -> bool {
        matches!(
            self,
            Encoding::Plain | Encoding::IntPack | Encoding::Alp | Encoding::Fsst
        )
    }
}

/// Maximum dictionary size the encoder will build.
const MAX_DICT: usize = 64 * 1024;

// Type tags inside IntPack / Fsst chunks.
const TY_INT64: u8 = 0;
const TY_DATE: u8 = 1;
const TY_TIMESTAMP: u8 = 2;
const TY_STRING: u8 = 0;
const TY_JSON: u8 = 1;
const TY_BYTES: u8 = 2;

const FLAG_NULLS: u8 = 0b01;
const FLAG_DELTA: u8 = 0b10;

/// FSST escape byte: the next code byte is a literal.
const FSST_ESCAPE: u8 = 255;
/// Maximum FSST symbol length.
const FSST_MAX_SYM: usize = 8;

// ---------------------------------------------------------------------------
// Small decode helpers. All bounds-checked; a declared length is always
// clamped against the *remaining* bytes before any allocation.
// ---------------------------------------------------------------------------

fn take_byte(buf: &[u8], pos: &mut usize) -> VortexResult<u8> {
    take(buf, pos, 1).map(|b| b[0])
}

/// Reads a declared element count, rejecting anything that exceeds
/// `limit` (caller-derived: row count, remaining bytes, ...).
fn get_count(buf: &[u8], pos: &mut usize, limit: usize, what: &str) -> VortexResult<usize> {
    let n = get_uvarint(buf, pos)? as usize;
    ensure(
        n <= limit,
        format_args!("declared {what} {n} exceeds limit {limit}"),
    )?;
    Ok(n)
}

// ---------------------------------------------------------------------------
// Bit packing (LSB-first) and null bitmaps.
// ---------------------------------------------------------------------------

/// Bits needed to represent `max` (0 for 0).
fn bits_for(max: u64) -> u8 {
    (64 - max.leading_zeros()) as u8
}

/// Appends `vals` (each below `2^width`) packed at `width` bits each,
/// LSB-first, a word at a time.
fn pack_bits(out: &mut Vec<u8>, vals: impl Iterator<Item = u64>, width: u8) {
    if width == 0 {
        return;
    }
    let (mut acc, mut nbits, width) = (0u64, 0u32, width as u32);
    for v in vals {
        acc |= v << nbits;
        nbits += width;
        if nbits >= 64 {
            out.extend_from_slice(&acc.to_le_bytes());
            nbits -= 64;
            // What of `v` the word had no room for.
            acc = v.checked_shr(width - nbits).unwrap_or(0);
        }
    }
    out.extend_from_slice(&acc.to_le_bytes()[..nbits.div_ceil(8) as usize]);
}

/// Reads values packed at `width` bits each, LSB-first: each from one
/// little-endian 16-byte window at its first byte, shifted by its bit
/// offset in that byte — up to 64 bits from up to 7 bits in, so a window
/// always holds it. Past the bytes the window reads zeros.
struct BitReader<'a> {
    packed: &'a [u8],
    width: usize,
    mask: u64,
    /// The first bit of the value `next_value` returns.
    next: usize,
}

impl<'a> BitReader<'a> {
    /// A reader over the next `n` packed values; consumes their bytes
    /// from `pos` up front, so a short buffer fails here and `next_value`
    /// cannot.
    fn new(buf: &'a [u8], pos: &mut usize, n: usize, width: u8) -> VortexResult<Self> {
        ensure(width <= 64, format_args!("bit width {width} > 64"))?;
        let nbytes = n.saturating_mul(width as usize).div_ceil(8);
        let packed = take(buf, pos, nbytes)?;
        Ok(BitReader {
            packed,
            width: width as usize,
            mask: u64::MAX.checked_shr(64 - width as u32).unwrap_or(0),
            next: 0,
        })
    }

    /// The value whose first bit is `bit`.
    fn bits_at(&self, bit: usize) -> u64 {
        let rest = self.packed.get(bit / 8..).unwrap_or_default();
        let window = rest.get(..16).and_then(|w| <[u8; 16]>::try_from(w).ok());
        // The last 15 bytes are folded.
        let window = window.map_or_else(|| le_uint(rest), u128::from_le_bytes);
        (window >> (bit % 8)) as u64 & self.mask
    }

    /// The next value (0 past the `n`-th).
    fn next_value(&mut self) -> u64 {
        let v = self.bits_at(self.next);
        self.next = self.next.saturating_add(self.width);
        v
    }

    /// The `k`-th value (0 past the `n`-th), wherever `next_value` stands.
    fn value_at(&self, k: usize) -> u64 {
        self.bits_at(k.saturating_mul(self.width))
    }
}

/// A little-endian unsigned integer of up to 16 bytes.
pub(crate) fn le_uint(b: &[u8]) -> u128 {
    b.iter().rev().fold(0, |acc, &x| acc << 8 | x as u128)
}

// ---------------------------------------------------------------------------
// Chooser: one profile of the zone, every closed-form candidate sized from
// it, the winner encoded.
// ---------------------------------------------------------------------------

static CHUNKS_BUILT: Lazy<Counter> = Lazy::new("ros.chunks_built", Registry::counter);
static CANDIDATES_ENCODED: Lazy<Counter> = Lazy::new("ros.candidates_encoded", Registry::counter);

/// What the chooser, the zone map, the index sum and the block's bloom
/// filter take from the cells of a zone, so that none looks at them
/// again: all the sizes of Plain, IntPack and the RleV2 / DictV2 shells are
/// made of.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Profile {
    /// NULL rows.
    pub(crate) nulls: usize,
    /// The rows of the first smallest and the first largest cell, if any
    /// has a value (a typed leaf's, in its cells' order).
    pub(crate) ends: Option<(usize, usize)>,
    /// The row each run of equal cells (NULL is one) starts at.
    pub(crate) runs: Vec<usize>,
    /// Whether no cell is smaller than the one before it: then each
    /// distinct cell is one run.
    pub(crate) ascending: bool,
    /// Bytes of the Plain chunk.
    plain: usize,
    /// Of an integer leaf that has a value, as IntPack packs them: the
    /// first, their frame, and the frame of the steps from each to the
    /// next, where it has one.
    ints: Option<(i64, Option<Frame>, Option<Frame>)>,
    /// Of an `Int64` leaf: the exact sum of the cells that are not NULL.
    pub(crate) sum: Option<i128>,
    /// Of a `Float64` leaf: the exact sum of the cells that are not NULL,
    /// if none is NaN or infinite and one `i128` mantissa holds it
    /// ([`ExactSum::to_scaled`]).
    pub(crate) float_sum: Option<(i128, i32)>,
}

/// A frame of reference: the base, and the bit width of the largest
/// offset from it.
type Frame = (i64, u8);

/// Bytes of `v` as an unsigned LEB128 varint.
fn uvarint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// Bytes of `v` as a zigzag varint.
fn ivarint_len(v: i64) -> usize {
    uvarint_len(((v << 1) ^ (v >> 63)) as u64)
}

/// The pass behind a [`Profile`], compiled for the leaf's key type: the
/// NULL rows, the ends, the run starts and whether the keys ascend; the
/// sizes are [`profile`]'s.
struct Profiler;

impl KeyedRows for Profiler {
    type Out = Profile;

    fn fold_keys<K: Ord + Hash>(self, n: usize, key: impl Fn(usize) -> Option<K>) -> Profile {
        // lint:allow(L010, a zone's profile; a scan reaches it only by the name-resolved `fold_keys` of `dictionary`)
        let (mut runs, mut nulls, mut lo, mut hi) = (Vec::new(), 0, None, None);
        let mut ascending = true;
        for i in 0..n {
            let k = key(i);
            let step = (i > 0).then(|| k.cmp(&key(i - 1)));
            if step != Some(Ordering::Equal) {
                // lint:allow(L010, a zone's profile; a scan reaches it only by the name-resolved `fold_keys` of `dictionary`)
                runs.push(i);
                ascending &= step != Some(Ordering::Less);
            }
            if k.is_none() {
                nulls += 1;
                continue;
            }
            lo = Some(lo.filter(|&lo| k >= key(lo)).unwrap_or(i));
            hi = Some(hi.filter(|&hi| k <= key(hi)).unwrap_or(i));
        }
        Profile {
            nulls,
            ends: lo.zip(hi),
            runs,
            ascending,
            ..Profile::default()
        }
    }
}

/// Runs `pass` over the cells of `col` as keys: a typed leaf's own, and
/// the `encode_key` bytes of cells that have no typed key.
fn keyed<P: KeyedRows>(col: &ColumnVec, pass: impl Fn() -> P) -> P::Out {
    col.with_keys(pass()).unwrap_or_else(|| {
        // lint:allow(L010, once per zone keyed: an untyped column's keys; a scan keys typed leaves only)
        let (mut keys, mut ends) = (Vec::new(), vec![0]);
        for i in 0..col.len() {
            col.key_into(i, &mut keys);
            // lint:allow(L010, once per zone keyed: an untyped column's keys; a scan keys typed leaves only)
            ends.push(keys.len());
        }
        let key = |i: usize| (!col.is_null(i)).then(|| &keys[ends[i]..ends[i + 1]]);
        pass().fold_keys(col.len(), key)
    })
}

/// Profiles one zone of a column: the keyed pass and, where a cell's
/// Plain size is not its type's alone, one more over the leaf's integers
/// — their frames, and of `Int64` cells the sum — or its string lengths;
/// and of `Float64` cells their exact sum.
pub(crate) fn profile(col: &ColumnVec) -> Profile {
    let mut p = keyed(col, || Profiler);
    let (n, m) = (col.len(), col.len() - p.nulls);
    p.plain = match col {
        ColumnVec::I64(kind, ints) => {
            let ints = non_null(ints);
            let len = |&v: &i64| match kind {
                IntKind::Timestamp => uvarint_len(v as u64),
                _ => ivarint_len(v),
            };
            let steps = ints.windows(2).map(|w| w[1] as i128 - w[0] as i128);
            let frames = (frame_of(ints.iter().map(|&v| v as i128)), frame_of(steps));
            p.ints = ints.first().map(|&first| (first, frames.0, frames.1));
            p.sum = (*kind == IntKind::Int64).then(|| ints.iter().map(|&v| v as i128).sum());
            n + ints.iter().map(len).sum::<usize>()
        }
        ColumnVec::Str(_, s) => {
            let valued = (0..n).filter(|&i| !null_at(&s.nulls, i));
            let lens = valued.map(|i| uvarint_len(s.get(i).len() as u64));
            n + s.bytes.len() + lens.sum::<usize>()
        }
        ColumnVec::F64(floats) => {
            let mut sum = ExactSum::default();
            non_null(floats).iter().for_each(|&v| sum.add(v));
            p.float_sum = sum.to_scaled();
            n + 8 * m
        }
        ColumnVec::I128(_) => n + 16 * m,
        ColumnVec::Bool(_) => n + m,
        // Nested or mixed cells, or none but NULLs: Plain is their only
        // leaf encoding, and it is its own sizer.
        untyped => encode_plain(untyped).len(),
    };
    p
}

/// Hashes cells for [`Numbering`]: a folded multiply per word, under two
/// keys drawn once per process — cells are user data. No stored byte
/// depends on it: a dictionary is in order of first appearance.
#[derive(Clone, Copy)]
struct CellHasher(u64, u64);

impl Hasher for CellHasher {
    fn write(&mut self, bytes: &[u8]) {
        let words = (0..bytes.len()).step_by(8);
        words.for_each(|at| self.write_u64(word_at(bytes, at)));
    }

    fn write_u64(&mut self, word: u64) {
        let wide = (self.0 ^ word) as u128 * 0x9E37_79B9_7F4A_7C15;
        self.0 = wide as u64 ^ (wide >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0.wrapping_mul(self.1).rotate_left(26)
    }
}

impl BuildHasher for CellHasher {
    type Hasher = Self;

    fn build_hasher(&self) -> Self {
        *self
    }
}

/// The process's [`CellHasher`].
fn cell_hasher() -> CellHasher {
    static KEYS: OnceLock<[u64; 2]> = OnceLock::new();
    let drawn = || *KEYS.get_or_init(|| [0, 1].map(|k| RandomState::new().hash_one(k)));
    #[cfg(test)]
    let drawn = || tests::hasher_keys().unwrap_or_else(drawn);
    let [state, pad] = drawn();
    CellHasher(state, pad | 1)
}

/// A column's distinct cells under `Value::key_eq` identity, in order of
/// first appearance: the row each first appears at, and every row's
/// index into those (none for a dictionary of one, whose codes take no
/// bits).
type Dictionary = (Vec<usize>, Vec<u32>);

/// The pass that numbers cells into a [`Dictionary`], hashing each key
/// where it lies; `None` once there are more than `limit` distinct.
struct Numbering {
    limit: usize,
}

impl KeyedRows for Numbering {
    type Out = Option<Dictionary>;

    fn fold_keys<K: Ord + Hash>(self, n: usize, key: impl Fn(usize) -> Option<K>) -> Self::Out {
        let mut ids = HashMap::with_capacity_and_hasher(n.min(self.limit), cell_hasher());
        // lint:allow(L010, once per zone numbered, as a GROUP BY of a decoded leaf does: its first rows and codes)
        let mut firsts = Vec::new();
        // lint:allow(L010, once per zone numbered, as a GROUP BY of a decoded leaf does: its first rows and codes)
        let mut codes = Vec::with_capacity(n);
        for i in 0..n {
            let next = firsts.len() as u32;
            let id = *ids.entry(key(i)).or_insert(next);
            if id == next {
                if firsts.len() >= self.limit {
                    return None;
                }
                // lint:allow(L010, once per zone numbered, as a GROUP BY of a decoded leaf does: its first rows and codes)
                firsts.push(i);
            }
            // lint:allow(L010, once per zone numbered, as a GROUP BY of a decoded leaf does: its first rows and codes)
            codes.push(id);
        }
        Some((firsts, codes))
    }
}

/// `col`'s distinct cells (NULL is one) under `Value::key_eq`, numbered in
/// order of first appearance: the row each first appears at, and every
/// row's number. One pass over the typed keys, hashing each where it lies.
pub fn dictionary(col: &ColumnVec) -> (Vec<usize>, Vec<u32>) {
    keyed(col, || Numbering { limit: usize::MAX }).unwrap_or_default()
}

/// A nested value section: its leaf encoding and bytes.
type Section = (Encoding, Vec<u8>);

/// A candidate: its encoding, its exact size, and its bytes once asked
/// for — which only the winner is.
type Sized<'a> = (Encoding, usize, Box<dyn FnOnce() -> Vec<u8> + 'a>);

/// Bytes of the header IntPack / Alp / Fsst share ([`push_nulls_header`])
/// for `n` rows of which `m` hold a value.
fn nulls_header_len(n: usize, m: usize) -> usize {
    uvarint_len(m as u64) + if m < n { n.div_ceil(8) } else { 0 }
}

/// The exact sizes of the two forms of an integer leaf's IntPack chunk
/// — its values framed, its steps framed — each with whether it is the
/// delta form and its frame; `None` for a form that does not apply.
fn intpack_forms(n: usize, p: &Profile) -> [Option<(usize, bool, Frame)>; 2] {
    let Some((first, values, steps)) = p.ints else {
        return [None, None];
    };
    let m = n - p.nulls;
    let header = 2 + nulls_header_len(n, m);
    let stepped = steps.filter(|_| m >= 2);
    [
        values.map(|f| (header + frame_len(f, m), false, f)),
        stepped.map(|f| (header + ivarint_len(first) + frame_len(f, m - 1), true, f)),
    ]
}

/// The leaf encoding of `col` other than Plain — the one of the vector's
/// type; [`ColumnBuilder`] gives a column that vector whenever its cells
/// allow it — with its size: of IntPack from the profile, the smaller of
/// its forms and the plain one of two equals.
fn leaf_candidate<'a>(
    col: &'a ColumnVec,
    p: &Profile,
    must_beat: usize,
    shared: Option<&BlockTable>,
) -> Option<Sized<'a>> {
    let made = |enc, b: Vec<u8>| -> Sized<'a> { (enc, b.len(), Box::new(move || b)) };
    match col {
        ColumnVec::I64(kind, ints) => {
            let forms = intpack_forms(col.len(), p).into_iter().flatten();
            let (len, delta, frame) = forms.min()?;
            let encode = move || intpack_bytes(*kind, ints, delta, frame);
            Some((Encoding::IntPack, len, Box::new(encode)))
        }
        ColumnVec::F64(_) => try_encode_alp(col).map(|b| made(Encoding::Alp, b)),
        ColumnVec::Str(..) => {
            try_encode_fsst(col, must_beat, shared).map(|b| made(Encoding::Fsst, b))
        }
        _ => None,
    }
}

/// The Plain candidate, which always applies.
fn plain_candidate<'a>(col: &'a ColumnVec, p: &Profile) -> Sized<'a> {
    (Encoding::Plain, p.plain, Box::new(|| encode_plain(col)))
}

/// The smaller of two candidates, each sized exactly; of two equals the
/// earlier, `best`.
fn smaller<'a>(best: Sized<'a>, other: Option<Sized<'a>>) -> Sized<'a> {
    match other {
        Some(other) if other.1 < best.1 => other,
        _ => best,
    }
}

/// The nested value section (dictionary values, run values) of the cells
/// at `rows`: a leaf vector of their own, in its smallest leaf encoding.
fn section(col: &ColumnVec, rows: &[usize]) -> Section {
    let mut values = ColumnBuilder::default();
    values.add_rows(col, rows.iter().copied());
    let values = values.into_column();
    let p = profile(&values);
    let leaf = leaf_candidate(&values, &p, p.plain, None);
    let (enc, _, encode) = smaller(plain_candidate(&values, &p), leaf);
    (enc, encode())
}

/// Bytes a section takes in its shell: encoding, length, bytes.
fn section_len((_, bytes): &Section) -> usize {
    1 + uvarint_len(bytes.len() as u64) + bytes.len()
}

/// The length of each run of `n` rows in the runs that start at `runs`.
fn run_lens(n: usize, runs: &[usize]) -> impl Iterator<Item = u64> + '_ {
    let ends = runs.iter().skip(1).copied().chain([n]);
    runs.iter().zip(ends).map(|(from, to)| (to - from) as u64)
}

/// Bytes of the RleV2 chunk of `n` rows in the runs that start at `runs`.
fn rle_len(n: usize, runs: &[usize], values: &Section) -> usize {
    let lens: usize = run_lens(n, runs).map(uvarint_len).sum();
    uvarint_len(runs.len() as u64) + lens + section_len(values)
}

/// Bytes of the DictV2 chunk of `n` rows over `distinct` cells.
fn dict_len(n: usize, distinct: usize, values: &Section) -> usize {
    let codes = n * bits_for(distinct.saturating_sub(1) as u64) as usize;
    uvarint_len(distinct as u64) + section_len(values) + 1 + codes.div_ceil(8)
}

/// Encodes one zone of a column — a leaf vector — as the smallest of
/// Plain and, in the order that breaks ties: run lengths for a column at
/// most half runs, a dictionary for one at most half distinct cells, the
/// leaf encoding of its type. Plain always applies, so every column
/// encodes.
pub fn encode_column(col: &ColumnVec) -> (Encoding, Vec<u8>) {
    encode_profiled(col, &profile(col), None)
}

/// [`encode_column`] of a column already profiled, its Fsst candidate
/// under the table of the block column it is a zone of, if `shared`.
/// Every candidate but Alp and Fsst is sized from the profile and only
/// the winner encoded.
pub(crate) fn encode_profiled(
    col: &ColumnVec,
    p: &Profile,
    shared: Option<&BlockTable>,
) -> (Encoding, Vec<u8>) {
    let (n, runs) = (col.len(), &p.runs[..]);
    // A column of one run is a dictionary of one entry, and one whose
    // cells ascend a dictionary of its runs, which it takes no hashing of
    // its cells to find out.
    let limit = MAX_DICT.min(n / 2);
    let numbered = match (runs.len(), p.ascending) {
        (1, _) if limit >= 1 => Some((vec![0], Vec::new())),
        (_, true) => (runs.len() <= limit).then(|| {
            let codes =
                (run_lens(n, runs).zip(0..)).flat_map(|(len, code)| (0..len).map(move |_| code));
            (runs.to_vec(), codes.collect())
        }),
        _ => keyed(col, || Numbering { limit }),
    };
    let run_values = (runs.len() * 2 <= n).then(|| section(col, runs));
    // Distinct cells that are the run starts (one run; a sorted column)
    // make the same section.
    let dict_values = numbered.as_ref().map(|(firsts, _)| match &run_values {
        Some(values) if firsts == runs => Cow::Borrowed(values),
        _ => Cow::Owned(section(col, firsts)),
    });
    let rle = run_values.as_ref().map(|values| -> Sized<'_> {
        let encode = move || encode_rle_v2(n, runs, values);
        (Encoding::RleV2, rle_len(n, runs, values), Box::new(encode))
    });
    let dict = numbered.as_ref().zip(dict_values.as_deref());
    let dict = dict.map(|(d, values)| -> Sized<'_> {
        let len = dict_len(n, d.0.len(), values);
        (
            Encoding::DictV2,
            len,
            Box::new(move || encode_dict_v2(d, values)),
        )
    });
    let nesting = smaller(smaller(plain_candidate(col, p), rle), dict);
    let leaf = leaf_candidate(col, p, nesting.1, shared);
    // Alp and Fsst have no closed form: sizing them took encoding them.
    let made = |enc| matches!(enc, Encoding::Alp | Encoding::Fsst);
    let sized = leaf.as_ref().is_some_and(|leaf| made(leaf.0));
    let (enc, len, encode) = smaller(nesting, leaf);
    CHUNKS_BUILT.inc();
    CANDIDATES_ENCODED.add(sized as u64 + !made(enc) as u64);
    let bytes = encode();
    debug_assert_eq!(bytes.len(), len, "{enc:?} sized wrong");
    (enc, bytes)
}

// ---------------------------------------------------------------------------
// Encoders
// ---------------------------------------------------------------------------

fn encode_plain(col: &ColumnVec) -> Vec<u8> {
    let mut out = Vec::new();
    match col {
        ColumnVec::Str(kind, s) => {
            let tag = match kind {
                StrKind::String => TAG_STRING,
                StrKind::Json => TAG_JSON,
                StrKind::Bytes => TAG_BYTES,
            };
            out.reserve(s.bytes.len() + 3 * col.len());
            for i in 0..col.len() {
                if null_at(&s.nulls, i) {
                    out.push(TAG_NULL);
                } else {
                    out.push(tag);
                    put_bytes(&mut out, s.get(i));
                }
            }
        }
        ColumnVec::Any(values) => values.iter().for_each(|v| encode_value(&mut out, v)),
        // A fixed-width cell's value lives on the stack.
        fixed => (0..fixed.len()).for_each(|i| encode_value(&mut out, &fixed.value(i))),
    }
    out
}

/// The non-NULL elements of a fixed-width leaf, in row order.
fn non_null<T: Copy>(p: &Prim<T>) -> Cow<'_, [T]> {
    match &p.nulls {
        None => Cow::Borrowed(&p.values),
        Some(nulls) => {
            let kept = (0..p.values.len()).filter(|&i| !nulls.is_null(i));
            Cow::Owned(kept.map(|i| p.values[i]).collect())
        }
    }
}

/// The IntPack chunk of an integer leaf: its values in the frame of
/// their ends, or (`delta`) the first value and then the steps from each
/// to the next in the frame of theirs.
fn intpack_bytes(kind: IntKind, p: &Prim<i64>, delta: bool, frame: Frame) -> Vec<u8> {
    let (n, ints) = (p.values.len(), non_null(p));
    let mut out = Vec::with_capacity(16 + n.div_ceil(8) + ints.len() * 8);
    out.push(match kind {
        IntKind::Int64 => TY_INT64,
        IntKind::Date => TY_DATE,
        IntKind::Timestamp => TY_TIMESTAMP,
    });
    out.push(((ints.len() < n) as u8) | if delta { FLAG_DELTA } else { 0 });
    push_nulls_header(&mut out, n, &p.nulls, ints.len());
    if delta {
        put_ivarint(&mut out, ints[0]);
        let steps = ints.windows(2).map(|w| w[1] as i128 - w[0] as i128);
        push_frame(&mut out, frame, steps);
    } else {
        push_frame(&mut out, frame, ints.iter().map(|&v| v as i128));
    }
    out
}

/// The header IntPack / Alp / Fsst share after their flags: the non-null
/// count — derivable from the bitmap but stored anyway, so decode can
/// validate the caller's row count (bit-packed data is not
/// self-delimiting the way varint streams are) — then the null bitmap if
/// there are NULLs (bit set = null, one bit per row).
fn push_nulls_header(out: &mut Vec<u8>, n: usize, nulls: &Option<Nulls>, non_null: usize) {
    put_uvarint(out, non_null as u64);
    if non_null < n {
        let start = out.len();
        out.resize(start + n.div_ceil(8), 0);
        for i in (0..n).filter(|&i| null_at(nulls, i)) {
            out[start + i / 8] |= 1 << (i % 8);
        }
    }
}

/// The frame of reference of `work`: the smallest as base, and the bit
/// width of the largest offset from it. Computed in i128 so i64 extremes
/// can't overflow; `None` when the base leaves i64 or an offset leaves u64
/// (only deltas can), which is refused rather than widened.
fn frame_of(work: impl Iterator<Item = i128>) -> Option<Frame> {
    let (lo, hi) = work.fold((i128::MAX, i128::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
    let (base, span) = if lo > hi { (0, 0) } else { (lo, hi - lo) };
    let width = bits_for(u64::try_from(span).ok()?);
    Some((i64::try_from(base).ok()?, width))
}

/// Bytes [`push_frame`] appends for `count` integers.
fn frame_len((base, width): Frame, count: usize) -> usize {
    ivarint_len(base) + 1 + (count * width as usize).div_ceil(8)
}

/// Appends `work` packed in `frame`: the base, the width, the offsets.
fn push_frame(out: &mut Vec<u8>, (base, width): Frame, work: impl Iterator<Item = i128>) {
    put_ivarint(out, base);
    out.push(width);
    pack_bits(out, work.map(|v| (v - base as i128) as u64), width);
}

const POW10: [f64; 15] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14,
];

/// The ALP probe: does `f` decompose as a small integer at this scale,
/// reconstructing *bit-exactly*? NaN and -0.0 fail the bit check and
/// become patches.
fn alp_int(f: f64, p10: f64) -> Option<i64> {
    let scaled = f * p10;
    if !scaled.is_finite() || scaled.abs() >= (1i64 << 51) as f64 {
        return None;
    }
    let i = scaled.round() as i64;
    if ((i as f64) / p10).to_bits() == f.to_bits() {
        Some(i)
    } else {
        None
    }
}

fn try_encode_alp(col: &ColumnVec) -> Option<Vec<u8>> {
    let ColumnVec::F64(p) = col else {
        return None;
    };
    let floats = non_null(p);
    if floats.is_empty() {
        return None;
    }
    // Pick the exponent that patches the fewest sampled values.
    let stride = (floats.len() / 128).max(1);
    let mut exp = 0u8;
    let mut best_patches = usize::MAX;
    for (e, &p10) in POW10.iter().enumerate() {
        let sample = floats.iter().step_by(stride);
        let patches = sample.filter(|&&f| alp_int(f, p10).is_none()).count();
        if patches < best_patches {
            best_patches = patches;
            exp = e as u8;
            if patches == 0 {
                break;
            }
        }
    }
    let p10 = POW10[exp as usize];
    let mut ints: Vec<i64> = Vec::with_capacity(floats.len());
    let mut patches: Vec<(usize, u64)> = Vec::new();
    for row in (0..col.len()).filter(|&row| !null_at(&p.nulls, row)) {
        let f = p.values[row];
        match alp_int(f, p10) {
            Some(i) => ints.push(i),
            None => patches.push((row, f.to_bits())),
        }
    }
    let mut out = Vec::with_capacity(16 + col.len().div_ceil(8) + floats.len() * 8);
    out.push((floats.len() < col.len()) as u8);
    push_nulls_header(&mut out, col.len(), &p.nulls, floats.len());
    out.push(exp);
    put_uvarint(&mut out, patches.len() as u64);
    let mut prev = 0usize;
    for &(row, _) in &patches {
        put_uvarint(&mut out, (row - prev) as u64);
        prev = row;
    }
    for &(_, bits) in &patches {
        out.extend_from_slice(&bits.to_le_bytes());
    }
    let ints = ints.iter().map(|&i| i as i128);
    push_frame(&mut out, frame_of(ints.clone())?, ints);
    Some(out)
}

/// The Fsst chunk of a string leaf, unless it cannot come to fewer than
/// `must_beat` bytes: a value takes a length byte and a code per eight
/// of its bytes at the least. Its table is `shared`'s, or trained on it.
fn try_encode_fsst(
    col: &ColumnVec,
    must_beat: usize,
    shared: Option<&BlockTable>,
) -> Option<Vec<u8>> {
    let ColumnVec::Str(kind, s) = col else {
        return None;
    };
    let valued = || (0..col.len()).filter(|&i| !null_at(&s.nulls, i));
    let values = || valued().map(|i| s.get(i));
    let (m, total) = (valued().count(), s.bytes.len());
    let at_least: usize = values().map(|v| 1 + v.len().div_ceil(FSST_MAX_SYM)).sum();
    if total < 64 || 3 + nulls_header_len(col.len(), m) + at_least >= must_beat {
        return None; // not enough material for a table to pay off
    }
    let own;
    let table = match shared {
        Some(shared) => shared.table(),
        None => {
            own = FsstTable::build(values());
            &own
        }
    };
    let mut out = Vec::with_capacity(16 + col.len().div_ceil(8) + total);
    out.push(match kind {
        StrKind::String => TY_STRING,
        StrKind::Json => TY_JSON,
        StrKind::Bytes => TY_BYTES,
    });
    out.push((m < col.len()) as u8);
    push_nulls_header(&mut out, col.len(), &s.nulls, m);
    table.push_symbols(&mut out);
    let mut enc = Vec::new();
    for v in values() {
        enc.clear();
        table.emit_codes(v, &mut enc);
        put_uvarint(&mut out, enc.len() as u64);
        out.extend_from_slice(&enc);
    }
    Some(out)
}

/// The FSST table the string zones of one block column share: trained
/// once, when a zone first asks, on a sample spread over the column's
/// rows in the block. Each chunk still stores it, so a zone decodes alone.
pub(crate) struct BlockTable<'a> {
    col: &'a Strs,
    rows: &'a [u32],
    table: OnceLock<FsstTable>,
}

impl<'a> BlockTable<'a> {
    /// The table of the rows `rows` of `col`, if it is a string leaf.
    pub(crate) fn of(col: &'a ColumnVec, rows: &'a [u32]) -> Option<Self> {
        let ColumnVec::Str(_, col) = col else {
            return None;
        };
        let table = OnceLock::new();
        Some(BlockTable { col, rows, table })
    }

    fn table(&self) -> &FsstTable {
        self.table.get_or_init(|| {
            let valued = || {
                (self.rows.iter().map(|&i| i as usize)).filter(|&i| !null_at(&self.col.nulls, i))
            };
            let bytes: usize = valued().map(|i| self.col.get(i).len()).sum();
            let every = bytes.div_ceil(FSST_SAMPLE_BUDGET).max(1);
            FsstTable::build(valued().step_by(every).map(|i| self.col.get(i)))
        })
    }
}

/// Up to eight bytes of `s` from `pos`, first byte lowest, zero-padded.
fn word_at(s: &[u8], pos: usize) -> u64 {
    let full = |at: usize| <[u8; 8]>::try_from(&s[at..at + 8]).map_or(0, u64::from_le_bytes);
    match s.len().checked_sub(8) {
        Some(last) if pos <= last => full(pos),
        // Past the last full word: that word, moved down to start at `pos`.
        Some(last) => full(last).checked_shr(8 * (pos - last) as u32).unwrap_or(0),
        None => le_uint(&s[pos.min(s.len())..]) as u64,
    }
}

/// The lowest `len` (1..=8) bytes of a word.
fn low_bytes(word: u64, len: usize) -> u64 {
    word & (u64::MAX >> (64 - 8 * len))
}

/// Bytes of the values a symbol table is trained on, at most.
const FSST_SAMPLE_BUDGET: usize = 4096;

/// Slots of a table's length masks, by a hash of the two bytes a symbol
/// starts with.
const FSST_PREFIXES: usize = 4096;

/// Slots of the hash index over a table's symbols of two bytes or more,
/// by their bytes and length: four times the symbols there can be.
const FSST_INDEX: usize = 1024;

/// An FSST symbol table laid out for matching. A symbol is its bytes as
/// a [`word_at`] word, how many they are, and its code.
#[derive(Debug, Clone)]
pub(crate) struct FsstTable {
    /// In code order: a symbol's code is its place.
    symbols: Vec<(u64, u8, u8)>,
    /// Per slot of a two-byte prefix: bit `len - 1` is set when a symbol
    /// of `len` bytes starts with a prefix of that slot.
    lens: [u8; FSST_PREFIXES],
    /// The code of each symbol of two bytes or more, at the first free
    /// slot from the hash of its bytes and length (of two equal symbols,
    /// the first); `u8::MAX` is free.
    index: [u8; FSST_INDEX],
    /// The code of each one-byte symbol, at that byte.
    short: [u8; 256],
}

/// The slot of [`FsstTable::lens`] of a two-byte prefix: the top twelve
/// bits of a multiplicative hash.
fn prefix_slot(pair: u16) -> usize {
    (pair as u32).wrapping_mul(0x9E37_79B1) as usize >> 20
}

impl FsstTable {
    /// Builds a deterministic symbol table from a byte-budget-capped
    /// sample: substrings of length 1..=8 ranked by (occurrences × bytes
    /// saved). A simplification of FSST's iterative table construction —
    /// overlapping occurrences are over-counted, which the final size
    /// comparison in the chooser absorbs.
    fn build<'a>(values: impl Iterator<Item = &'a [u8]>) -> FsstTable {
        // The window at each sampled byte: its word with the first byte
        // highest, so that words order as their byte strings do, and how
        // many of its bytes are the value's own (the rest is padding).
        let mut windows: Vec<(u64, usize)> = Vec::with_capacity(FSST_SAMPLE_BUDGET);
        let mut starts = [0usize; 257];
        for v in values {
            let v = &v[..v.len().min(FSST_SAMPLE_BUDGET - windows.len())];
            for pos in 0..v.len() {
                let own = FSST_MAX_SYM.min(v.len() - pos);
                windows.push((word_at(v, pos).swap_bytes(), own));
                starts[v[pos] as usize + 1] += 1;
            }
            if windows.len() == FSST_SAMPLE_BUDGET {
                break;
            }
        }
        // Counting sort by first byte, then each bucket by the other
        // seven: a window is those seven bytes above its own-count.
        (0..256).for_each(|b| starts[b + 1] += starts[b]);
        let (mut next, mut sorted) = (starts, vec![0u64; windows.len()]);
        for (word, own) in windows {
            let at = &mut next[(word >> 56) as usize];
            sorted[*at] = word << 8 | own as u64;
            *at += 1;
        }
        // Windows that share their first `len` bytes now lie together,
        // for every `len` at once: one walk counts, per length, the run
        // of windows that own that many bytes (a padding zero is not a
        // byte of the value) — eight 16-bit lanes of one word, lane
        // `len - 1`; a run is at most the sample — and closes the runs
        // longer than what a window shares with the one after it. Rank
        // by score, ties in the symbols' byte order: a total order. A
        // symbol emits 1 byte. Without it, each byte costs 1 code byte at
        // best (2 if escaped): saving ≥ len-1 per occurrence; single
        // bytes only pay if they'd otherwise be escaped.
        const LANES: u128 = 0x0001_0001_0001_0001_0001_0001_0001_0001;
        let below: [u128; FSST_MAX_SYM + 1] =
            std::array::from_fn(|len| !u128::MAX.checked_shl(16 * len as u32).unwrap_or(0));
        let mut ranked: Vec<(Reverse<u64>, u64, u8)> = Vec::with_capacity(sorted.len() / 2);
        for first in 0..256 {
            let bucket = &mut sorted[starts[first]..starts[first + 1]];
            bucket.sort_unstable();
            let mut counts = 0u128;
            for (i, &window) in bucket.iter().enumerate() {
                counts += LANES & below[(window & 0xFF) as usize];
                // What the window shares with the next ends no run; of
                // the longer ones, few are of two windows or more.
                let shared = bucket
                    .get(i + 1)
                    .map_or(0, |next| ((next ^ window) >> 8).leading_zeros() / 8);
                let mut repeated = counts & !below[shared as usize] & !LANES;
                while repeated != 0 {
                    let lane = repeated.trailing_zeros() / 16;
                    let (n, len) = ((counts >> (16 * lane)) as u16 as u64, lane as usize + 1);
                    let symbol = ((first as u64) << 56 | window >> 8) & u64::MAX << (64 - 8 * len);
                    ranked.push((Reverse(n * (len as u64 - 1).max(1)), symbol, len as u8));
                    repeated &= !(0xFFFF << (16 * lane));
                }
                counts &= below[shared as usize];
            }
        }
        let keep = (FSST_ESCAPE as usize - 1).min(ranked.len());
        if keep < ranked.len() {
            ranked.select_nth_unstable(keep);
            ranked.truncate(keep);
        }
        ranked.sort_unstable();
        let symbols = (ranked.iter().zip(0u8..))
            .map(|(&(_, bytes, len), code)| (bytes.swap_bytes(), len, code))
            .collect();
        FsstTable::matching(symbols)
    }

    /// The table that matches `symbols`, in code order — what `build`
    /// trained, or what a chunk stores: its stored symbols rebuild exactly
    /// the encoder that wrote it.
    fn matching(symbols: Vec<(u64, u8, u8)>) -> FsstTable {
        let mut table = FsstTable {
            symbols,
            lens: [0; FSST_PREFIXES],
            index: [u8::MAX; FSST_INDEX],
            short: [FSST_ESCAPE; 256],
        };
        for code in 0..table.symbols.len() {
            match table.symbols[code] {
                (word, 1, _) => table.short[word as usize] = code as u8,
                (word, len, _) => {
                    table.lens[prefix_slot(word as u16)] |= 1 << (len - 1);
                    let at = table.index_of(word, len);
                    table.index[at] = table.index[at].min(code as u8);
                }
            }
        }
        table
    }

    /// The slot of `index` that holds the symbol of these bytes and this
    /// length, or the free one a probe for it ends at.
    fn index_of(&self, word: u64, len: u8) -> usize {
        // The top ten bits of a multiplicative hash.
        let mut at = (word ^ len as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize >> 54;
        let other = |&(held, long, _): &(u64, u8, u8)| (held, long) != (word, len);
        while self.symbols.get(self.index[at] as usize).is_some_and(other) {
            at = (at + 1) % FSST_INDEX;
        }
        at
    }

    /// The bytes the table holds: its own, and its symbol vectors'.
    fn held_bytes(&self) -> usize {
        let entries = self.symbols.capacity();
        std::mem::size_of::<Self>() + entries * std::mem::size_of::<(u64, u8, u8)>()
    }

    /// Appends the table as chunks store it: the symbol count, then each
    /// symbol's length and bytes, in code order.
    fn push_symbols(&self, out: &mut Vec<u8>) {
        out.push(self.symbols.len() as u8);
        for &(word, len, _) in &self.symbols {
            out.push(len);
            out.extend_from_slice(&word.to_le_bytes()[..len as usize]);
        }
    }

    /// Appends the codes of one value: greedy longest match. At each
    /// byte, of the lengths the symbols whose first two bytes share a slot
    /// with the next two have, each that fits is looked up longest first,
    /// then the one-byte symbol.
    fn emit_codes(&self, s: &[u8], out: &mut Vec<u8>) {
        let mut pos = 0usize;
        while pos < s.len() {
            let (window, left) = (word_at(s, pos), s.len() - pos);
            let mut lens =
                self.lens[prefix_slot(window as u16)] & u8::MAX >> 8usize.saturating_sub(left);
            let (mut len, mut code) = (1, self.short[s[pos] as usize]);
            while lens != 0 {
                let long = 8 - lens.leading_zeros() as u8;
                let at = self.index[self.index_of(low_bytes(window, long as usize), long)];
                if let Some(&(_, _, coded)) = self.symbols.get(at as usize) {
                    (len, code) = (long as usize, coded);
                    break;
                }
                lens &= !(1 << (long - 1));
            }
            match code {
                // lint:allow(L010, into the caller's buffer: a chunk's, or once per FSST table a literal's)
                FSST_ESCAPE => out.extend_from_slice(&[code, s[pos]]),
                // lint:allow(L010, into the caller's buffer: a chunk's, or once per FSST table a literal's)
                _ => out.push(code),
            }
            pos += len;
        }
    }
}

/// Appends a nested value section.
fn push_section(out: &mut Vec<u8>, (enc, bytes): &Section) {
    out.push(enc.to_u8());
    put_uvarint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn encode_dict_v2((firsts, codes): &Dictionary, values: &Section) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, firsts.len() as u64);
    push_section(&mut out, values);
    let width = bits_for(firsts.len().saturating_sub(1) as u64);
    out.push(width);
    pack_bits(&mut out, codes.iter().map(|&c| c as u64), width);
    out
}

fn encode_rle_v2(n: usize, runs: &[usize], values: &Section) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, runs.len() as u64);
    run_lens(n, runs).for_each(|len| put_uvarint(&mut out, len));
    push_section(&mut out, values);
    out
}

// ---------------------------------------------------------------------------
// Decoders. Every encoding decodes straight into a typed `ColumnVec`; no
// vector is sized by anything but the caller's row count or the bytes
// that remain.
// ---------------------------------------------------------------------------

fn corrupt(what: impl std::fmt::Display) -> VortexError {
    VortexError::Decode(what.to_string())
}

/// `Err(corrupt(what))` unless `ok`.
fn ensure(ok: bool, what: impl std::fmt::Display) -> VortexResult<()> {
    ok.then_some(()).ok_or_else(|| corrupt(what))
}

/// Decodes a column chunk of `count` rows, preserving dictionary / run
/// structure where the encoding has it.
pub fn decode_chunk(enc: Encoding, bytes: &[u8], count: usize) -> VortexResult<ColumnVec> {
    decode_chunk_at(enc, bytes, count, None)
}

/// `col` whole, or its leaf at `rows`.
fn picked(col: ColumnVec, rows: Option<&[usize]>) -> ColumnVec {
    match rows {
        Some(rows) => col.into_leaf(rows),
        None => col,
    }
}

/// The positional entry: the strictly ascending in-bounds `rows` of a
/// chunk of `count` as one leaf vector of `rows.len()` rows, cell for cell
/// what `decode_chunk(..)?.into_leaf(rows)` holds (`None`: the chunk
/// whole, as [`decode_chunk`]). String values (Fsst, Plain) are expanded
/// and UTF-8-checked at `rows` only and bit-packed values (IntPack without
/// deltas or NULLs, Alp without NULLs or patches, DictV2 codes) read at
/// their index; the other forms of IntPack and Alp, RleV2 and the other
/// Plain types decode whole and are picked from. The framing — every
/// length prefix, every count, the trailing bytes — is checked as for the
/// whole chunk; a defect inside a value that is not picked may go unseen
/// (the chunk's CRC is the integrity check).
pub fn decode_chunk_at(
    enc: Encoding,
    bytes: &[u8],
    count: usize,
    rows: Option<&[usize]>,
) -> VortexResult<ColumnVec> {
    let in_order = |r: &[usize]| r.windows(2).all(|w| w[0] < w[1]) && r.last() < Some(&count);
    debug_assert!(rows.map_or(true, in_order));
    let pos = &mut 0usize;
    let col = match enc {
        Encoding::Plain => decode_plain(bytes, pos, count, rows)?,
        // A walker reads `rows` alone, or the chunk whole to be picked from.
        Encoding::IntPack => {
            let mut values = Vec::with_capacity(rows.map_or(count, <[usize]>::len));
            let (kind, nulls, at) = walk_intpack(bytes, pos, (count, rows), &mut values)?;
            let nulls = nulls.map(|bits| Nulls(bits.to_vec()));
            picked(
                ColumnVec::I64(kind, Prim { values, nulls }),
                rows.filter(|_| !at),
            )
        }
        Encoding::Alp => {
            let mut values = Vec::with_capacity(rows.map_or(count, <[usize]>::len));
            let (nulls, at) = walk_alp(bytes, pos, (count, rows), &mut values)?;
            let nulls = nulls.map(|bits| Nulls(bits.to_vec()));
            picked(ColumnVec::F64(Prim { values, nulls }), rows.filter(|_| !at))
        }
        Encoding::Fsst => decode_fsst(bytes, pos, count, rows)?,
        Encoding::DictV2 => {
            let dict_len = get_count(bytes, pos, count, "dict size")?;
            ensure(dict_len > 0 || count == 0, "empty dict for non-empty chunk")?;
            let dict = Box::new(decode_nested(bytes, pos, dict_len)?);
            let width = take_byte(bytes, pos)?;
            let mut bits = BitReader::new(bytes, pos, count, width)?;
            let code = |id: u64| {
                let known = id < dict_len as u64;
                ensure(known, format_args!("dict id {id} out of range")).map(|()| id as u32)
            };
            match rows {
                None => {
                    let mut codes = Vec::with_capacity(count);
                    for _ in 0..count {
                        codes.push(code(bits.next_value())?);
                    }
                    ColumnVec::Dict { codes, dict }
                }
                Some(rows) => {
                    // lint:allow(L010, once per chunk decoded at a selection, sized by the selection)
                    let mut at = Vec::with_capacity(rows.len());
                    for &i in rows {
                        // lint:allow(L010, fills the vector sized above)
                        at.push(code(bits.value_at(i))? as usize);
                    }
                    let mut leaf = ColumnBuilder::default();
                    leaf.add_rows(&dict, at);
                    leaf.into_column()
                }
            }
        }
        Encoding::RleV2 => {
            let lens = read_runs(bytes, pos, count)?;
            let values = Box::new(decode_nested(bytes, pos, lens.len())?);
            picked(ColumnVec::Runs { lens, values }, rows)
        }
    };
    consumed(bytes, *pos)?;
    Ok(col)
}

/// `Ok` if a chunk's decoder stopped at `pos`, its end.
fn consumed(bytes: &[u8], pos: usize) -> VortexResult<()> {
    let trailing = bytes.len() - pos;
    ensure(
        trailing == 0,
        format_args!("column chunk has {trailing} trailing bytes"),
    )
}

/// Whether a chunk whose cells have no NULL and key-equal ends under
/// their order holds one key: an IntPack, Alp or Fsst chunk is a typed
/// leaf, ordered so that only key-equal cells tie; a DictV2 chunk of one
/// entry or an RleV2 chunk of one run holds one cell, which its `bytes`
/// say once they are held. A Plain chunk, or a longer dictionary, may be
/// an `Any` leaf.
pub(crate) fn holds_one_key(enc: Encoding, bytes: Option<&[u8]>) -> bool {
    let one = |b: &[u8]| get_uvarint(b, &mut 0).is_ok_and(|n| n == 1);
    match enc {
        Encoding::IntPack | Encoding::Alp | Encoding::Fsst => true,
        Encoding::DictV2 | Encoding::RleV2 => bytes.is_some_and(one),
        Encoding::Plain => false,
    }
}

/// The run lengths of an RleV2 chunk of `count` rows, which they cover.
fn read_runs(bytes: &[u8], pos: &mut usize, count: usize) -> VortexResult<Vec<u32>> {
    let nruns = get_count(bytes, pos, count, "run count")?;
    let mut lens = Vec::with_capacity(nruns);
    let mut left = count;
    for _ in 0..nruns {
        let run = get_uvarint(bytes, pos)? as usize;
        let fits = run > 0 && run <= left;
        ensure(fits, format_args!("rle run {run} exceeds remaining {left}"))?;
        lens.push(run as u32);
        left -= run;
    }
    let covered = format_args!("rle runs leave {left} of {count} rows");
    ensure(left == 0, covered).map(|()| lens)
}

/// The value section of a DictV2 / RleV2 chunk: its leaf encoding and
/// its bytes.
fn nested<'a>(bytes: &'a [u8], pos: &mut usize) -> VortexResult<(Encoding, &'a [u8])> {
    let venc = Encoding::from_u8(take_byte(bytes, pos)?)?;
    let leaf = format_args!("value section cannot be {venc:?}");
    ensure(venc.nestable(), leaf)?;
    let vlen = get_count(bytes, pos, bytes.len() - *pos, "value section bytes")?;
    Ok((venc, take(bytes, pos, vlen)?))
}

/// The value section of a DictV2 / RleV2 chunk: `n` values in a leaf
/// encoding.
fn decode_nested(bytes: &[u8], pos: &mut usize, n: usize) -> VortexResult<ColumnVec> {
    let (venc, section) = nested(bytes, pos)?;
    decode_chunk(venc, section, n)
}

/// What IntPack / Alp / Fsst chunks share after their type tag: the
/// flags (`allowed` of them), the stored non-null count, and the null
/// bitmap if flagged. Returns the flags, the bitmap as stored and the
/// non-null count, which must agree with the stored one.
fn read_nulls<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    count: usize,
    allowed: u8,
) -> VortexResult<(u8, Option<&'a [u8]>, usize)> {
    let flags = take_byte(bytes, pos)?;
    ensure(
        flags & !allowed == 0,
        format_args!("bad chunk flags {flags:#x}"),
    )?;
    let stored = get_count(bytes, pos, count, "non-null count")?;
    let nulls = match flags & FLAG_NULLS != 0 {
        true => Some(take(bytes, pos, count.div_ceil(8))?),
        false => None,
    };
    // The bits of the last byte past `count` are no rows.
    let nulls_in = |bits: &[u8]| {
        let (whole, last) = bits.split_at(count / 8);
        let last = last.first().map_or(0, |&b| b & !(u8::MAX << (count % 8)));
        let ones = |b: &u8| b.count_ones() as usize;
        whole.iter().map(ones).sum::<usize>() + ones(&last)
    };
    let m = count - nulls.map_or(0, nulls_in);
    let agree = stored == m;
    ensure(
        agree,
        format_args!("chunk declares {stored} values, row count implies {m}"),
    )?;
    Ok((flags, nulls, m))
}

/// Whether row `i` of a stored bitmap is NULL.
fn null_bit(bits: Option<&[u8]>, i: usize) -> bool {
    bits.is_some_and(|bits| bits[i / 8] >> (i % 8) & 1 == 1)
}

/// Where a walker puts the cells it reads, in order (`None` for NULL): a
/// vector it decodes into or, of an Alp chunk, what [`fold_chunk`] folds
/// into. One walker serves both, so every check of the bytes guards
/// either.
pub trait Sink<T> {
    /// Takes the next cells.
    fn cells(&mut self, cells: impl Iterator<Item = Option<T>>);
}

/// Decoding: a placeholder at NULL rows.
impl<T: Default> Sink<T> for Vec<T> {
    fn cells(&mut self, cells: impl Iterator<Item = Option<T>>) {
        self.extend(cells.map(Option::unwrap_or_default));
    }
}

/// Hands `sink` the cells of an Alp chunk of `count` rows, in row order,
/// as [`decode_chunk`] would decode them — with every check decode makes
/// — but without a vector; `false` for another chunk.
pub fn fold_chunk(
    enc: Encoding,
    bytes: &[u8],
    count: usize,
    sink: &mut impl Sink<f64>,
) -> VortexResult<bool> {
    if enc != Encoding::Alp {
        return Ok(false);
    }
    let pos = &mut 0usize;
    walk_alp(bytes, pos, (count, None), sink)?;
    consumed(bytes, *pos).map(|()| true)
}

/// Walks an IntPack chunk of `count` rows into `values`: every row's cell
/// in order or, without NULLs or deltas, the ascending `rows` alone, each
/// read at its index. Fails at the first value out of range. Returns the
/// integer kind, the bitmap, and whether the cells are of `rows` alone.
fn walk_intpack<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    (count, rows): (usize, Option<&[usize]>),
    values: &mut Vec<i64>,
) -> VortexResult<(IntKind, Option<&'a [u8]>, bool)> {
    let tag = take_byte(bytes, pos)? as usize;
    let kinds = [IntKind::Int64, IntKind::Date, IntKind::Timestamp]; // TY_INT64..
    let kind = *kinds
        .get(tag)
        .ok_or_else(|| corrupt(format_args!("bad intpack type {tag}")))?;
    let (flags, nulls, m) = read_nulls(bytes, pos, count, FLAG_NULLS | FLAG_DELTA)?;
    let delta = flags & FLAG_DELTA != 0;
    ensure(!delta || m >= 2, "delta chunk with <2 values")?;
    // A delta chunk stores its first value, then m-1 packed deltas.
    let mut acc = if delta { get_ivarint(bytes, pos)? } else { 0 } as i128;
    let base = get_ivarint(bytes, pos)?;
    let width = take_byte(bytes, pos)?;
    let mut bits = BitReader::new(bytes, pos, m - delta as usize, width)?;
    let in_range = |v: i64| kind != IntKind::Date || i32::try_from(v).is_ok();
    let (plain, mut failed, mut first) = (!delta && nulls.is_none(), false, delta);
    let mut checked = |v: Option<i64>| {
        let v = v.filter(|&v| in_range(v));
        failed |= v.is_none();
        v.map(Some)
    };
    // A frame whose every value is in range needs no check per value.
    let top = base.checked_add_unsigned(bits.mask);
    match rows.filter(|_| plain) {
        None if plain && in_range(base) && top.is_some_and(in_range) => {
            let value = |_| Some(base.wrapping_add_unsigned(bits.next_value()));
            values.cells((0..count).map(value))
        }
        Some(rows) => {
            let at = |&i: &usize| checked(base.checked_add_unsigned(bits.value_at(i)));
            values.cells(rows.iter().map_while(at))
        }
        None => values.cells((0..count).map_while(|row| match null_bit(nulls, row) {
            true => Some(None),
            false if !delta => checked(base.checked_add_unsigned(bits.next_value())),
            false => {
                if !std::mem::take(&mut first) {
                    acc += base as i128 + bits.next_value() as i128;
                }
                checked(i64::try_from(acc).ok())
            }
        })),
    }
    ensure(!failed, "intpack value out of range")?;
    Ok((kind, nulls, plain && rows.is_some()))
}

/// Walks an Alp chunk of `count` rows into `sink`: every row's cell in
/// order or, without NULLs or patches, the ascending `rows` alone, each
/// read at its index. Fails if a patch is left over (at a NULL row).
/// Returns the bitmap, and whether the cells are of `rows` alone.
fn walk_alp<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    (count, rows): (usize, Option<&[usize]>),
    sink: &mut impl Sink<f64>,
) -> VortexResult<(Option<&'a [u8]>, bool)> {
    let (_, nulls, m) = read_nulls(bytes, pos, count, FLAG_NULLS)?;
    let exp = take_byte(bytes, pos)? as usize;
    let p10 = *POW10
        .get(exp)
        .ok_or_else(|| corrupt(format_args!("bad alp exponent {exp}")))?;
    let npatch = get_count(bytes, pos, m, "alp patches")?;
    let (gaps, mut prev) = (*pos, 0usize);
    for i in 0..npatch {
        let gap = get_uvarint(bytes, pos)? as usize;
        prev = prev.saturating_add(gap);
        let ascends = (i == 0 || gap > 0) && prev < count;
        ensure(ascends, format_args!("bad alp patch row {prev}"))?;
    }
    // The patches in row order, read again from the gaps just checked:
    // each one's row and value.
    let (gaps, mut at, mut row) = (&bytes[gaps..*pos], 0, 0usize);
    let mut raw = take(bytes, pos, npatch * 8)?.chunks_exact(8);
    let mut patches = std::iter::from_fn(move || {
        let bits = le_uint(raw.next()?) as u64;
        row = row.saturating_add(get_uvarint(gaps, &mut at).ok()? as usize);
        Some((row, f64::from_bits(bits)))
    })
    .peekable();
    let base = get_ivarint(bytes, pos)?;
    let width = take_byte(bytes, pos)?;
    let mut bits = BitReader::new(bytes, pos, m - npatch, width)?;
    // An `i128` sum past `i64` is the same integer, so the same float.
    let value = |v: u64| match base.checked_add_unsigned(v) {
        Some(i) => i as f64 / p10,
        None => (base as i128 + v as i128) as f64 / p10,
    };
    let plain = nulls.is_none() && npatch == 0;
    match rows.filter(|_| plain) {
        Some(rows) => sink.cells(rows.iter().map(|&i| Some(value(bits.value_at(i))))),
        None if plain => sink.cells((0..count).map(|_| Some(value(bits.next_value())))),
        None => sink.cells((0..count).map(|row| match null_bit(nulls, row) {
            true => None,
            false => match patches.next_if(|&(prow, _)| prow == row) {
                Some((_, patch)) => Some(patch),
                None => Some(value(bits.next_value())),
            },
        })),
    }
    ensure(patches.next().is_none(), "alp patch at null row")?;
    Ok((nulls, plain && rows.is_some()))
}

/// An Fsst chunk's symbol table as its expander reads it: each code's
/// symbol as a little-endian word, and its length — 0 for a code past the
/// table (the escape is tested before the lookup).
struct FsstSymbols {
    words: [u64; 256],
    lens: [u8; 256],
}

impl FsstSymbols {
    /// Parses the table at `pos`: fewer than 255 symbols of 1..=8 bytes.
    fn parse(bytes: &[u8], pos: &mut usize) -> VortexResult<FsstSymbols> {
        let (mut words, mut lens) = ([0; 256], [0; 256]);
        for (word, len, code) in stored_symbols(fsst_table(bytes, pos)?) {
            (words[code as usize], lens[code as usize]) = (word, len);
        }
        Ok(FsstSymbols { words, lens })
    }

    /// Appends what the codes of one value stand for, a word per code:
    /// the symbol's eight bytes are stored and the end moves by its
    /// length.
    fn expand(&self, codes: &[u8], out: &mut Vec<u8>) -> VortexResult<()> {
        let mut codes = codes.iter();
        while let Some(&c) = codes.next() {
            if c == FSST_ESCAPE {
                let literal = codes
                    .next()
                    .ok_or_else(|| corrupt("fsst escape truncated"))?;
                out.push(*literal);
                continue;
            }
            let len = self.lens[c as usize] as usize;
            if len == 0 {
                return Err(corrupt(format_args!("fsst code {c} out of range")));
            }
            let end = out.len() + len;
            out.extend_from_slice(&self.words[c as usize].to_le_bytes());
            out.truncate(end);
        }
        Ok(())
    }
}

/// The symbol table of an Fsst chunk at `pos`, as stored: its count, then
/// each symbol's length and bytes. Checked: fewer than 255 symbols, of
/// 1..=8 bytes each.
fn fsst_table<'a>(bytes: &'a [u8], pos: &mut usize) -> VortexResult<&'a [u8]> {
    let (start, nsyms) = (*pos, take_byte(bytes, pos)? as usize);
    ensure(
        nsyms < FSST_ESCAPE as usize,
        format_args!("fsst table of {nsyms} symbols"),
    )?;
    for _ in 0..nsyms {
        let l = take_byte(bytes, pos)? as usize;
        ensure(
            (1..=FSST_MAX_SYM).contains(&l),
            format_args!("fsst symbol of {l} bytes"),
        )?;
        take(bytes, pos, l)?;
    }
    Ok(&bytes[start..*pos])
}

/// Each symbol of a checked table ([`fsst_table`]) as a [`word_at`] word,
/// its length and its code, in code order.
fn stored_symbols(table: &[u8]) -> impl Iterator<Item = (u64, u8, u8)> + '_ {
    let mut at = 1;
    (0..table[0]).map(move |code| {
        let len = table[at];
        at += 1 + len as usize;
        let word = low_bytes(word_at(table, at - len as usize), len as usize);
        (word, len, code)
    })
}

/// The codes of the value at `pos`: a length prefix under 128 is its own
/// byte, a longer one a varint; either is checked against the bytes that
/// remain.
fn fsst_codes<'a>(bytes: &'a [u8], pos: &mut usize) -> VortexResult<&'a [u8]> {
    let n = match bytes.get(*pos) {
        Some(&n) if n < 0x80 => {
            *pos += 1;
            n as usize
        }
        _ => get_len(bytes, pos)?,
    };
    take(bytes, pos, n)
}

/// The string kind an Fsst chunk's type tag names.
fn fsst_kind(tag: u8) -> VortexResult<StrKind> {
    let kinds = [StrKind::String, StrKind::Json, StrKind::Bytes]; // TY_STRING..
    let kind = kinds.get(tag as usize).copied();
    kind.ok_or_else(|| corrupt(format_args!("bad fsst type {tag}")))
}

/// The matcher of the FSST table a block column's chunks share, with
/// that table as stored: built by the first equality compared in one of
/// them, and kept with the block.
pub(crate) type SharedTable = OnceLock<(Vec<u8>, FsstTable)>;

/// Keeps the rows of `sel` — ascending, in bounds — whose cell in a chunk
/// of `count` rows equals one of `literals` (`equal`), or is not NULL and
/// equals none of them (not `equal`), comparing FSST codes: of an Fsst
/// chunk, each value's; of an RleV2 chunk whose run values are Fsst, each
/// run's. `None`, and `sel` untouched, for another chunk; else the bytes
/// of the matcher this call left in `shared` (0 if one was there). Nothing
/// is expanded, and the framing is checked as [`decode_chunk`] checks it.
pub(crate) fn retain_coded(
    (enc, bytes, count): (Encoding, &[u8], usize),
    test: (&[Value], bool),
    shared: &SharedTable,
    sel: &mut Vec<usize>,
) -> VortexResult<Option<u64>> {
    let pos = &mut 0usize;
    match enc {
        Encoding::Fsst => retain_fsst(bytes, count, test, shared, sel).map(Some),
        Encoding::RleV2 => {
            let lens = read_runs(bytes, pos, count)?;
            let (venc, section) = nested(bytes, pos)?;
            consumed(bytes, *pos)?;
            if venc != Encoding::Fsst {
                return Ok(None);
            }
            // lint:allow(L010, once per zone compared on its codes, sized by its runs)
            let mut runs: Vec<usize> = (0..lens.len()).collect();
            let built = retain_fsst(section, lens.len(), test, shared, &mut runs)?;
            // `sel` ascends, so a cursor over the runs follows it.
            let (mut runs, mut run, mut end, mut kept) = (runs.into_iter().peekable(), 0, 0, false);
            sel.retain(|&i| {
                while i >= end {
                    kept = runs.next_if_eq(&run).is_some();
                    end += lens[run] as usize;
                    run += 1;
                }
                kept
            });
            Ok(Some(built))
        }
        _ => Ok(None),
    }
}

/// [`retain_coded`] of an Fsst chunk: each value's stored codes are
/// compared with the literals' codes under the chunk's own table, rebuilt
/// from its stored symbols — which encodes every value to exactly its
/// stored codes, so that codes are equal iff values are. The matcher of
/// the table the block column shares is built once (`shared`), and its
/// bytes returned by the call that built it; a chunk with a table of its
/// own builds its own.
fn retain_fsst(
    bytes: &[u8],
    count: usize,
    (literals, equal): (&[Value], bool),
    shared: &SharedTable,
    sel: &mut Vec<usize>,
) -> VortexResult<u64> {
    let pos = &mut 0usize;
    let kind = fsst_kind(take_byte(bytes, pos)?)?;
    let (_, nulls, _) = read_nulls(bytes, pos, count, FLAG_NULLS)?;
    let table = fsst_table(bytes, pos)?;
    // lint:allow(L010, once per FSST table a string leaf compares with: its symbols, in code order)
    let matching = || FsstTable::matching(stored_symbols(table).collect());
    let mut kept_now = 0;
    let (held, built) = shared.get_or_init(|| {
        // lint:allow(L010, once per block column: the table its matcher is kept for)
        let (held, built) = (table.to_vec(), matching());
        kept_now = (held.len() + built.held_bytes()) as u64;
        (held, built)
    });
    let own = (held[..] != *table).then(matching);
    let matcher = own.as_ref().unwrap_or(built);
    // Each literal a cell of the chunk's type can equal (`Value::total_cmp`),
    // as the chunk would store it: its codes' count, then the codes.
    let stored = |literal: &[u8]| {
        // lint:allow(L010, once per zone and literal compared on codes: its codes)
        let (mut codes, mut stored) = (Vec::new(), Vec::new());
        matcher.emit_codes(literal, &mut codes);
        put_uvarint(&mut stored, codes.len() as u64);
        // lint:allow(L010, once per zone and literal compared on codes: its codes)
        stored.extend_from_slice(&codes);
        stored
    };
    let literals = literals.iter().filter_map(|v| kind.bytes_of(v));
    // lint:allow(L010, once per zone compared on codes: a code string per literal)
    let literals: Vec<Vec<u8>> = literals.map(stored).collect();
    // One pass over the values, a length prefix under 128 an add; a
    // selected one compares as stored, length prefix first.
    let past_the_end = || corrupt("fsst value past the end of its chunk");
    let (mut kept, mut k) = (0, 0);
    for row in 0..count {
        let (start, valued) = (*pos, !null_bit(nulls, row));
        match bytes.get(*pos) {
            _ if !valued => {}
            Some(&n) if n < 0x80 => *pos += 1 + n as usize,
            _ => fsst_codes(bytes, pos).map(|_| ())?,
        }
        if sel.get(k) == Some(&row) {
            let stored = bytes.get(start..*pos).ok_or_else(past_the_end)?;
            let matched = literals.iter().any(|literal| literal[..] == *stored);
            (sel[kept], k) = (row, k + 1);
            kept += (valued && matched == equal) as usize;
        }
    }
    sel.truncate(kept);
    ensure(*pos <= bytes.len(), "fsst value past the end of its chunk")?;
    consumed(bytes, *pos).map(|()| kept_now)
}

/// Decodes an Fsst chunk: whole, a word stored per code; or at a
/// selection, where the values between picked ones are only skipped and
/// the picked ones expanded afterwards. Either way the buffer grows once,
/// to eight bytes per code of the values it holds (a code stands for at
/// most eight), so no store grows it, and the vector keeps a copy at its
/// length.
fn decode_fsst(
    bytes: &[u8],
    pos: &mut usize,
    count: usize,
    rows: Option<&[usize]>,
) -> VortexResult<ColumnVec> {
    let kind = fsst_kind(take_byte(bytes, pos)?)?;
    let (_, nulls, _) = read_nulls(bytes, pos, count, FLAG_NULLS)?;
    let nulls = nulls.map(|bits| Nulls(bits.to_vec()));
    let table = FsstSymbols::parse(bytes, pos)?;
    let picked = rows.filter(|rows| rows.len() < count);
    let mut offsets = Vec::with_capacity(picked.map_or(count, <[_]>::len) + 1);
    let mut data = Vec::new();
    offsets.push(0);
    match picked {
        None => {
            data.reserve(8 * (bytes.len() - *pos));
            for row in 0..count {
                if !null_at(&nulls, row) {
                    table.expand(fsst_codes(bytes, pos)?, &mut data)?;
                }
                offsets.push(data.len() as u32);
            }
        }
        Some(rows) => {
            // lint:allow(L010, once per chunk decoded at a selection, sized by the selection)
            let (mut values, mut next) = (Vec::with_capacity(rows.len()), 0);
            for &row in rows.iter().chain([&count]) {
                // A skipped NULL row is one bitmap test, a skipped length
                // prefix under 128 an add; the run's end is checked once,
                // before a byte past it is read.
                let mut at = *pos;
                for _ in (next..row).filter(|&i| !null_at(&nulls, i)) {
                    match bytes.get(at) {
                        Some(&n) if n < 0x80 => at += 1 + n as usize,
                        _ => fsst_codes(bytes, &mut at).map(|_| ())?,
                    }
                }
                ensure(at <= bytes.len(), "fsst value past the end of its chunk")?;
                *pos = at;
                if row < count {
                    let valued = !null_at(&nulls, row);
                    values.push(if valued { fsst_codes(bytes, pos)? } else { &[] });
                }
                next = row + 1;
            }
            let code_bytes: usize = values.iter().map(|codes: &&[u8]| codes.len()).sum();
            data.reserve(8 * code_bytes);
            for codes in values {
                table.expand(codes, &mut data)?;
                // lint:allow(L010, fills the vector sized above)
                offsets.push(data.len() as u32);
            }
        }
    }
    // lint:allow(L010, once per chunk decoded: its bytes without the slack of eight a code)
    str_vec(kind, offsets, data.to_vec(), nulls_at(nulls, rows))
}

/// Finishes a `Str` vector: the rows of a String / Json vector must each
/// be UTF-8, which holds iff the whole buffer is and every row starts on
/// a character boundary.
fn str_vec(
    kind: StrKind,
    offsets: Vec<u32>,
    bytes: Vec<u8>,
    nulls: Option<Nulls>,
) -> VortexResult<ColumnVec> {
    ensure(
        u32::try_from(bytes.len()).is_ok(),
        "string chunk over 4 GiB",
    )?;
    if kind != StrKind::Bytes {
        let text = std::str::from_utf8(&bytes).map_err(|e| corrupt(format_args!("utf8: {e}")))?;
        let whole = offsets.iter().all(|&o| text.is_char_boundary(o as usize));
        ensure(whole, "utf8: value splits a character")?;
    }
    let strs = Strs {
        offsets,
        bytes,
        nulls,
    };
    Ok(ColumnVec::Str(kind, strs))
}

/// Plain cells that are each NULL or tagged `tag`, read by `cell`;
/// `None` as soon as another tag shows up.
fn plain_cells<T: Default>(
    bytes: &[u8],
    pos: &mut usize,
    count: usize,
    tag: u8,
    mut cell: impl FnMut(&[u8], &mut usize) -> VortexResult<T>,
) -> VortexResult<Option<Prim<T>>> {
    let mut values = Vec::with_capacity(count.min(bytes.len() - *pos));
    let mut nulls = None;
    for row in 0..count {
        match take_byte(bytes, pos)? {
            TAG_NULL => {
                let bitmap = nulls.get_or_insert_with(|| Nulls(vec![0; count.div_ceil(8)]));
                bitmap.0[row / 8] |= 1 << (row % 8);
                values.push(T::default());
            }
            t if t == tag => values.push(cell(bytes, pos)?),
            _ => return Ok(None),
        }
    }
    Ok(Some(Prim { values, nulls }))
}

/// Plain stores tagged values back to back. The first non-NULL tag names
/// the vector type; a column that then shows another type, nested cells
/// or nothing but NULLs decodes cell by cell into `Any`.
fn decode_plain(
    bytes: &[u8],
    pos: &mut usize,
    count: usize,
    rows: Option<&[usize]>,
) -> VortexResult<ColumnVec> {
    let start = *pos;
    let tag = bytes[start..].iter().take(count).find(|&&t| t != TAG_NULL);
    let tag = tag.copied().unwrap_or(TAG_NULL);
    let typed = match tag {
        TAG_INT64 => plain_cells(bytes, pos, count, tag, get_ivarint)?
            .map(|p| ColumnVec::I64(IntKind::Int64, p)),
        TAG_DATE => plain_cells(bytes, pos, count, tag, |b, p| {
            get_ivarint(b, p).map(|d| d as i32 as i64)
        })?
        .map(|p| ColumnVec::I64(IntKind::Date, p)),
        TAG_TIMESTAMP => plain_cells(bytes, pos, count, tag, |b, p| {
            get_uvarint(b, p).map(|t| t as i64)
        })?
        .map(|p| ColumnVec::I64(IntKind::Timestamp, p)),
        TAG_FLOAT64 => plain_cells(bytes, pos, count, tag, |b, p| {
            take(b, p, 8).map(|raw| f64::from_bits(le_uint(raw) as u64))
        })?
        .map(ColumnVec::F64),
        TAG_NUMERIC => plain_cells(bytes, pos, count, tag, |b, p| {
            take(b, p, 16).map(|raw| le_uint(raw) as i128)
        })?
        .map(ColumnVec::I128),
        TAG_BOOL => plain_cells(bytes, pos, count, tag, |b, p| Ok(take_byte(b, p)? != 0))?
            .map(ColumnVec::Bool),
        TAG_STRING | TAG_JSON | TAG_BYTES => {
            let kind = match tag {
                TAG_STRING => StrKind::String,
                TAG_JSON => StrKind::Json,
                _ => StrKind::Bytes,
            };
            // Each cell yields where its bytes lie (a NULL nowhere); the
            // wanted rows' are then copied out.
            let spans = plain_cells(bytes, pos, count, tag, |b, p| {
                let n = get_count(b, p, b.len() - *p, "string length")?;
                take(b, p, n).map(|_| (*p - n, n))
            })?;
            if let Some(Prim { values, nulls }) = spans {
                let wanted = rows.map_or(count, <[usize]>::len);
                let span = |k: usize| values[rows.map_or(k, |rows| rows[k])];
                let mut offsets = Vec::with_capacity(wanted + 1);
                let mut data = Vec::with_capacity((0..wanted).map(|k| span(k).1).sum());
                // lint:allow(L010, fills the vector sized above)
                offsets.push(0);
                for (at, n) in (0..wanted).map(span) {
                    data.extend_from_slice(&bytes[at..at + n]);
                    offsets.push(data.len() as u32);
                }
                return str_vec(kind, offsets, data, nulls_at(nulls, rows));
            }
            None
        }
        _ => None,
    };
    if let Some(col) = typed {
        return Ok(picked(col, rows));
    }
    *pos = start;
    let mut cells = Vec::with_capacity(count.min(bytes.len() - start));
    for _ in 0..count {
        cells.push(decode_value(bytes, pos)?);
    }
    Ok(picked(ColumnVec::Any(cells), rows))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tally::tallied;
    use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};
    use vortex_common::row::Value;
    use vortex_common::truetime::Timestamp;

    /// Bytes this thread requested from the allocator while `f` ran.
    fn requested_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let (out, bytes, _) = tallied(f);
        (out, bytes)
    }

    thread_local! {
        /// This thread's keys for [`cell_hasher`] instead of the
        /// process's, for the test that no byte depends on them.
        static HASHER_KEYS: std::cell::Cell<Option<[u64; 2]>> =
            const { std::cell::Cell::new(None) };
    }

    pub(super) fn hasher_keys() -> Option<[u64; 2]> {
        HASHER_KEYS.with(|keys| keys.get())
    }

    /// Runs `f` with [`cell_hasher`] keyed by `keys` on this thread.
    pub(crate) fn with_hasher_keys<T>(keys: [u64; 2], f: impl FnOnce() -> T) -> T {
        HASHER_KEYS.with(|k| k.set(Some(keys)));
        let out = f();
        HASHER_KEYS.with(|k| k.set(None));
        out
    }

    // ---- The chooser this crate used to run — every candidate encoded in
    // full, the smallest kept — as the oracle of the one that sizes first.
    // It finds its own runs, distinct cells and frames. ------------------

    /// An encoding and the chunk it makes of a column, if it applies.
    type Made = (Encoding, Option<Vec<u8>>);

    fn reference_runs(col: &ColumnVec) -> Vec<usize> {
        let cells = col.to_values();
        let starts = |&i: &usize| i == 0 || !cells[i - 1].key_eq(&cells[i]);
        (0..cells.len()).filter(starts).collect()
    }

    /// The row each distinct cell of `col` (NULL is one) first appears at:
    /// the starts of its runs when its cells ascend, else numbered by
    /// hashing — how the block's bloom found a key column's distinct cells
    /// before the zone pass.
    pub(crate) fn distinct_rows(col: &ColumnVec) -> Vec<usize> {
        let p = keyed(col, || Profiler);
        if p.ascending {
            p.runs
        } else {
            dictionary(col).0
        }
    }

    pub(crate) fn reference_dictionary(col: &ColumnVec, limit: usize) -> Option<Dictionary> {
        let mut ids: HashMap<Vec<u8>, u32> = HashMap::new();
        let (mut firsts, mut codes) = (Vec::new(), Vec::new());
        for (i, v) in col.to_values().iter().enumerate() {
            let next = firsts.len() as u32;
            let id = *ids.entry(v.encode_key()).or_insert(next);
            if id == next {
                if firsts.len() >= limit {
                    return None;
                }
                firsts.push(i);
            }
            codes.push(id);
        }
        Some((firsts, codes))
    }

    /// One form of IntPack, in the frame of the integers themselves.
    fn reference_intpack(col: &ColumnVec, delta: bool) -> Option<Vec<u8>> {
        let ColumnVec::I64(kind, p) = col else {
            return None;
        };
        let ints = non_null(p);
        let work: Vec<i128> = match delta {
            true if ints.len() < 2 => return None,
            true => (ints.windows(2).map(|w| w[1] as i128 - w[0] as i128)).collect(),
            false => ints.iter().map(|&v| v as i128).collect(),
        };
        let lo = work.iter().copied().min().unwrap_or(0);
        let span = work.iter().copied().max().map_or(0, |hi| hi - lo);
        let width = bits_for(u64::try_from(span).ok()?);
        let frame = (i64::try_from(lo).ok()?, width);
        Some(intpack_bytes(*kind, p, delta, frame))
    }

    fn reference_leaf_candidates(col: &ColumnVec) -> [Made; 3] {
        let forms = (reference_intpack(col, false), reference_intpack(col, true));
        let intpack = match forms {
            (Some(p), Some(d)) => Some(if d.len() < p.len() { d } else { p }),
            (p, d) => p.or(d),
        };
        [
            (Encoding::IntPack, intpack),
            (Encoding::Alp, try_encode_alp(col)),
            (Encoding::Fsst, try_encode_fsst(col, usize::MAX, None)),
        ]
    }

    fn reference_smallest(plain: Vec<u8>, others: impl IntoIterator<Item = Made>) -> Section {
        let mut best = (Encoding::Plain, plain);
        for (e, bytes) in others {
            if let Some(bytes) = bytes.filter(|b| b.len() < best.1.len()) {
                best = (e, bytes);
            }
        }
        best
    }

    fn reference_section(col: &ColumnVec, rows: &[usize]) -> Section {
        let mut values = ColumnBuilder::default();
        values.add_rows(col, rows.iter().copied());
        let values = values.into_column();
        reference_smallest(encode_plain(&values), reference_leaf_candidates(&values))
    }

    /// Every encoding of `col` the chooser compares with Plain, in the
    /// order that breaks ties (`all` lifts the bars on runs and distinct
    /// cells, for a test that names its encoding).
    fn reference_candidates(col: &ColumnVec, all: bool) -> Vec<Made> {
        let n = col.len();
        let runs = reference_runs(col);
        let limit = if all { MAX_DICT } else { MAX_DICT.min(n / 2) };
        let dict = reference_dictionary(col, limit);
        let rle = (all || runs.len() * 2 <= n)
            .then(|| encode_rle_v2(n, &runs, &reference_section(col, &runs)));
        let dict = dict.map(|d| encode_dict_v2(&d, &reference_section(col, &d.0)));
        let nesting = [(Encoding::RleV2, rle), (Encoding::DictV2, dict)];
        (nesting.into_iter().chain(reference_leaf_candidates(col))).collect()
    }

    /// What [`encode_column`] must return.
    fn reference_encode_column(col: &ColumnVec) -> Section {
        match col.is_empty() {
            true => (Encoding::Plain, Vec::new()),
            false => reference_smallest(encode_plain(col), reference_candidates(col, false)),
        }
    }

    /// Encodes with a specific encoding. Errors when the encoding doesn't
    /// apply to this vector (e.g. IntPack on strings).
    fn encode_column_with(col: &ColumnVec, enc: Encoding) -> VortexResult<Vec<u8>> {
        let plain = [(Encoding::Plain, Some(encode_plain(col)))];
        let mut made = plain.into_iter().chain(reference_candidates(col, true));
        let named = made.find_map(|(e, bytes)| bytes.filter(|_| e == enc));
        named.ok_or_else(|| VortexError::InvalidArgument(format!("{enc:?} does not apply here")))
    }

    /// The leaf vector of these cells, as the block builder holds them.
    pub(crate) fn leaf(values: &[Value]) -> ColumnVec {
        let mut col = ColumnBuilder::default();
        values.iter().for_each(|v| col.add_value(v.clone()));
        col.into_column()
    }

    /// Decodes to values through the typed vector — the API edge.
    fn decode_column(enc: Encoding, bytes: &[u8], count: usize) -> VortexResult<Vec<Value>> {
        decode_chunk(enc, bytes, count).map(|col| col.to_values())
    }

    fn roundtrip(values: &[Value]) -> Encoding {
        let (enc, bytes) = encode_column(&leaf(values));
        let back = decode_column(enc, &bytes, values.len()).unwrap();
        assert_key_eq(&back, values);
        enc
    }

    /// Roundtrip equality under `key_eq` (bit-exact floats, NaN == NaN).
    fn assert_key_eq(got: &[Value], want: &[Value]) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(g.key_eq(w), "row {i}: {g:?} != {w:?}");
        }
    }

    #[test]
    fn empty_column() {
        assert_eq!(roundtrip(&[]), Encoding::Plain);
    }

    #[test]
    fn high_cardinality_ints_pick_intpack() {
        let vals: Vec<Value> = (0..1000).map(Value::Int64).collect();
        assert_eq!(roundtrip(&vals), Encoding::IntPack);
    }

    #[test]
    fn low_cardinality_picks_dict() {
        let vals: Vec<Value> = (0..1000)
            .map(|i| Value::String(format!("currency-{}", i % 7)))
            .collect();
        assert_eq!(roundtrip(&vals), Encoding::DictV2);
    }

    #[test]
    fn long_runs_pick_rle() {
        let mut vals = Vec::new();
        for day in 0..10 {
            for _ in 0..100 {
                vals.push(Value::Date(day));
            }
        }
        assert_eq!(roundtrip(&vals), Encoding::RleV2);
    }

    #[test]
    fn intpack_beats_plain_on_sequential_ints() {
        let vals: Vec<Value> = (0..1000).map(|i| Value::Int64(1_000_000 + i)).collect();
        let packed = encode_column_with(&leaf(&vals), Encoding::IntPack).unwrap();
        let plain = encode_column_with(&leaf(&vals), Encoding::Plain).unwrap();
        assert!(
            packed.len() * 2 < plain.len(),
            "{} vs {}",
            packed.len(),
            plain.len()
        );
    }

    #[test]
    fn intpack_handles_extremes_and_nulls() {
        let vals = vec![
            Value::Int64(i64::MIN),
            Value::Null,
            Value::Int64(i64::MAX),
            Value::Int64(0),
            Value::Null,
        ];
        let bytes = encode_column_with(&leaf(&vals), Encoding::IntPack).unwrap();
        assert_key_eq(&decode_column(Encoding::IntPack, &bytes, 5).unwrap(), &vals);
    }

    #[test]
    fn intpack_timestamps_and_dates() {
        let ts: Vec<Value> = (0..100)
            .map(|i| Value::Timestamp(Timestamp::from_micros(1_700_000_000_000_000 + i * 1000)))
            .collect();
        let bytes = encode_column_with(&leaf(&ts), Encoding::IntPack).unwrap();
        assert_key_eq(&decode_column(Encoding::IntPack, &bytes, 100).unwrap(), &ts);
        let dates: Vec<Value> = (0..50).map(|i| Value::Date(19_000 + i)).collect();
        let bytes = encode_column_with(&leaf(&dates), Encoding::IntPack).unwrap();
        assert_key_eq(
            &decode_column(Encoding::IntPack, &bytes, 50).unwrap(),
            &dates,
        );
        // Mixed int-family types don't pack.
        assert!(
            encode_column_with(&leaf(&[Value::Int64(1), Value::Date(1)]), Encoding::IntPack)
                .is_err()
        );
    }

    #[test]
    fn alp_decimal_floats_roundtrip_bitexact() {
        let vals: Vec<Value> = (0..500)
            .map(|i| Value::Float64((i as f64) * 0.01 + 9.99))
            .collect();
        let bytes = encode_column_with(&leaf(&vals), Encoding::Alp).unwrap();
        let plain = encode_column_with(&leaf(&vals), Encoding::Plain).unwrap();
        assert!(
            bytes.len() * 2 < plain.len(),
            "{} vs {}",
            bytes.len(),
            plain.len()
        );
        assert_key_eq(&decode_column(Encoding::Alp, &bytes, 500).unwrap(), &vals);
    }

    #[test]
    fn alp_patches_nan_neg_zero_and_irrationals() {
        let vals = vec![
            Value::Float64(1.25),
            Value::Float64(f64::NAN),
            Value::Float64(-0.0),
            Value::Float64(std::f64::consts::PI),
            Value::Null,
            Value::Float64(f64::INFINITY),
            Value::Float64(2.5),
        ];
        let bytes = encode_column_with(&leaf(&vals), Encoding::Alp).unwrap();
        let back = decode_column(Encoding::Alp, &bytes, vals.len()).unwrap();
        assert_key_eq(&back, &vals);
        // -0.0 sign and NaN bits preserved exactly.
        match (&back[2], &vals[2]) {
            (Value::Float64(g), Value::Float64(w)) => assert_eq!(g.to_bits(), w.to_bits()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn fsst_compresses_common_substrings() {
        let vals: Vec<Value> = (0..300)
            .map(|i| Value::String(format!("customerKey=cust-{:05};region=us-central1", i)))
            .collect();
        let fsst = encode_column_with(&leaf(&vals), Encoding::Fsst).unwrap();
        let plain = encode_column_with(&leaf(&vals), Encoding::Plain).unwrap();
        assert!(
            fsst.len() * 2 < plain.len(),
            "{} vs {}",
            fsst.len(),
            plain.len()
        );
        assert_key_eq(&decode_column(Encoding::Fsst, &fsst, 300).unwrap(), &vals);
    }

    #[test]
    fn fsst_handles_bytes_json_and_nulls() {
        let vals: Vec<Value> = (0..40)
            .flat_map(|i| {
                [
                    Value::Bytes(format!("prefix-{}-suffix", i % 3).into_bytes()),
                    Value::Null,
                ]
            })
            .collect();
        let bytes = encode_column_with(&leaf(&vals), Encoding::Fsst).unwrap();
        assert_key_eq(
            &decode_column(Encoding::Fsst, &bytes, vals.len()).unwrap(),
            &vals,
        );
        let json: Vec<Value> = (0..40)
            .map(|i| Value::Json(format!(r#"{{"region":"us","n":{i}}}"#)))
            .collect();
        let bytes = encode_column_with(&leaf(&json), Encoding::Fsst).unwrap();
        assert_key_eq(&decode_column(Encoding::Fsst, &bytes, 40).unwrap(), &json);
    }

    #[test]
    fn dict_v2_cascades_value_section() {
        // Dictionary of sequential ints: value section should IntPack.
        let vals: Vec<Value> = (0..2000).map(|i| Value::Int64(i % 100)).collect();
        let v2 = encode_column_with(&leaf(&vals), Encoding::DictV2).unwrap();
        let plain = encode_column_with(&leaf(&vals), Encoding::Plain).unwrap();
        assert!(v2.len() < plain.len(), "{} vs {}", v2.len(), plain.len());
        assert_key_eq(&decode_column(Encoding::DictV2, &v2, 2000).unwrap(), &vals);
    }

    #[test]
    fn rle_v2_cascades_value_section() {
        let mut vals = Vec::new();
        for day in 0..40 {
            for _ in 0..50 {
                vals.push(Value::Date(19_000 + day));
            }
        }
        let v2 = encode_column_with(&leaf(&vals), Encoding::RleV2).unwrap();
        let plain = encode_column_with(&leaf(&vals), Encoding::Plain).unwrap();
        assert!(v2.len() < plain.len(), "{} vs {}", v2.len(), plain.len());
        assert_key_eq(
            &decode_column(Encoding::RleV2, &v2, vals.len()).unwrap(),
            &vals,
        );
    }

    #[test]
    fn dict_beats_plain_in_size_on_repetitive_strings() {
        let vals: Vec<Value> = (0..1000)
            .map(|i| Value::String(format!("a-rather-long-category-name-{}", i % 4)))
            .collect();
        let dict = encode_column_with(&leaf(&vals), Encoding::DictV2).unwrap();
        let plain = encode_column_with(&leaf(&vals), Encoding::Plain).unwrap();
        assert!(
            dict.len() * 5 < plain.len(),
            "{} vs {}",
            dict.len(),
            plain.len()
        );
    }

    #[test]
    fn rle_beats_dict_on_sorted_data() {
        let mut vals = Vec::new();
        for k in 0..20 {
            for _ in 0..50 {
                vals.push(Value::Int64(k));
            }
        }
        let rle = encode_column_with(&leaf(&vals), Encoding::RleV2).unwrap();
        let dict = encode_column_with(&leaf(&vals), Encoding::DictV2).unwrap();
        assert!(rle.len() < dict.len());
    }

    #[test]
    fn all_encodings_roundtrip_explicitly() {
        let vals: Vec<Value> = vec![
            Value::Null,
            Value::Int64(1),
            Value::Int64(1),
            Value::String("x".into()),
            Value::Null,
        ];
        for enc in [Encoding::Plain, Encoding::DictV2, Encoding::RleV2] {
            let bytes = encode_column_with(&leaf(&vals), enc).unwrap();
            assert_key_eq(&decode_column(enc, &bytes, vals.len()).unwrap(), &vals);
        }
    }

    #[test]
    fn nulls_and_nested_values_roundtrip() {
        let vals = vec![
            Value::Array(vec![Value::Int64(1), Value::Int64(2)]),
            Value::Null,
            Value::Struct(vec![Value::String("a".into())]),
            Value::Array(vec![Value::Int64(1), Value::Int64(2)]),
        ];
        roundtrip(&vals);
    }

    /// The satellite-2 regression: NaN and -0.0 columns must pick an
    /// encoding whose size estimate matches what actually encodes, and
    /// roundtrip bit-exactly. Under `PartialEq` run counting NaN runs
    /// were invisible (NaN != NaN) while the dict keyed them identical.
    #[test]
    fn nan_and_negative_zero_runs_agree_with_dict_identity() {
        let mut vals = Vec::new();
        for _ in 0..200 {
            vals.push(Value::Float64(f64::NAN));
        }
        for _ in 0..200 {
            vals.push(Value::Float64(-0.0));
        }
        for _ in 0..200 {
            vals.push(Value::Float64(0.0));
        }
        // All-NaN stretches are runs under key_eq: RLE-family must win.
        let enc = roundtrip(&vals);
        assert_eq!(enc, Encoding::RleV2, "NaN runs must count as runs");
        // And -0.0 / 0.0 stay distinct dictionary entries.
        let bytes = encode_column_with(&leaf(&vals), Encoding::DictV2).unwrap();
        let back = decode_column(Encoding::DictV2, &bytes, vals.len()).unwrap();
        assert_key_eq(&back, &vals);
        match &back[200] {
            Value::Float64(f) => assert!(f.is_sign_negative(), "-0.0 collapsed into 0.0"),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn corrupt_chunks_rejected() {
        let vals: Vec<Value> = (0..10).map(Value::Int64).collect();
        for enc in [
            Encoding::Plain,
            Encoding::IntPack,
            Encoding::DictV2,
            Encoding::RleV2,
        ] {
            let bytes = encode_column_with(&leaf(&vals), enc).unwrap();
            // Truncations never panic.
            for cut in 0..bytes.len() {
                let _ = decode_column(enc, &bytes[..cut], vals.len());
            }
            // Wrong count rejected.
            assert!(
                decode_column(enc, &bytes, vals.len() + 1).is_err(),
                "{enc:?}"
            );
            assert!(
                decode_column(enc, &bytes, vals.len() - 1).is_err(),
                "{enc:?}"
            );
        }
    }

    #[test]
    fn rle_zero_run_rejected() {
        let mut value = Vec::new();
        encode_value(&mut value, &Value::Int64(1));
        let mut bytes = Vec::new();
        put_uvarint(&mut bytes, 1); // one run...
        put_uvarint(&mut bytes, 0); // ...of length 0
        bytes.push(Encoding::Plain.to_u8());
        put_uvarint(&mut bytes, value.len() as u64);
        bytes.extend_from_slice(&value);
        assert!(decode_column(Encoding::RleV2, &bytes, 1).is_err());
    }

    #[test]
    fn dict_out_of_range_id_rejected() {
        let mut value = Vec::new();
        encode_value(&mut value, &Value::Int64(7));
        let mut bytes = Vec::new();
        put_uvarint(&mut bytes, 1); // dict of 1 entry
        bytes.push(Encoding::Plain.to_u8());
        put_uvarint(&mut bytes, value.len() as u64);
        bytes.extend_from_slice(&value);
        bytes.push(3); // code width
        pack_bits(&mut bytes, [5].into_iter(), 3); // index 5 — out of range
        assert!(decode_column(Encoding::DictV2, &bytes, 1).is_err());
    }

    /// A corrupt dictionary length is bounded by the row count before
    /// `Vec::with_capacity` can over-allocate.
    #[test]
    fn dict_len_bounded_by_row_count() {
        let mut v2 = Vec::new();
        put_uvarint(&mut v2, 1000);
        v2.resize(2000, 0);
        assert!(decode_column(Encoding::DictV2, &v2, 5).is_err());
    }

    /// Corrupt-chunk fuzz: arbitrary bytes must never panic or
    /// over-allocate, for every encoding. Everything a decode requests
    /// from the allocator — vectors, their regrowth, the error string —
    /// stays within a small multiple of the row count plus the input
    /// length, whatever lengths the bytes declare.
    #[test]
    fn fuzz_decode_arbitrary_bytes_never_panics() {
        // Deterministic xorshift so failures reproduce.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..400 {
            let len = (next() % 197) as usize;
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let count = (next() % 300) as usize;
            // Every third row, from a random first, for the positional entry.
            let rows: Vec<usize> = ((next() % 3) as usize..count).step_by(3).collect();
            for enc in ALL_ENCODINGS {
                // Must return (usually Err), never panic.
                let (whole, requested) = requested_by(|| decode_chunk(enc, &buf, count));
                assert!(
                    requested <= 64 * (count + len) + 1024,
                    "{enc:?}: {requested} bytes requested for {count} rows from {len} bytes"
                );
                let (at, requested) =
                    requested_by(|| decode_chunk_at(enc, &buf, count, Some(&rows)));
                assert!(
                    requested <= 64 * (count + len) + 1024,
                    "{enc:?}: {requested} bytes requested for {count} rows at a selection"
                );
                // What decodes whole decodes at a selection, to the same.
                if let Ok(whole) = whole {
                    let (at, whole) = (at.unwrap().to_values(), whole.into_leaf(&rows));
                    assert_key_eq(&at, &whole.to_values());
                }
            }
            // Also mutate valid chunks: flip bytes in real encodings.
            if round % 4 == 0 {
                let vals: Vec<Value> = (0..50)
                    .map(|i| {
                        if i % 7 == 0 {
                            Value::Null
                        } else {
                            Value::Int64((i % 5) as i64)
                        }
                    })
                    .collect();
                let (enc, mut bytes) = encode_column(&leaf(&vals));
                if !bytes.is_empty() {
                    let at = (next() as usize) % bytes.len();
                    bytes[at] ^= (next() as u8) | 1;
                    let (whole, requested) =
                        requested_by(|| decode_column(enc, &bytes, vals.len()));
                    assert!(
                        requested <= 64 * (vals.len() + bytes.len()) + 1024,
                        "{enc:?}"
                    );
                    let rows: Vec<usize> = (at % 2..vals.len()).step_by(2).collect();
                    let (picked, requested) =
                        requested_by(|| decode_chunk_at(enc, &bytes, vals.len(), Some(&rows)));
                    assert!(
                        requested <= 64 * (vals.len() + bytes.len()) + 1024,
                        "{enc:?}"
                    );
                    // A flip the whole decode survives is in a value: the
                    // positional one sees it where it is picked.
                    if let (Ok(whole), Ok(picked)) = (whole, picked) {
                        let want: Vec<Value> = rows.iter().map(|&i| whole[i].clone()).collect();
                        assert_key_eq(&picked.to_values(), &want);
                    }
                }
            }
        }
    }

    #[test]
    fn bad_encoding_byte_rejected() {
        // 1 and 2 were the v1 Dict / Rle formats.
        for gone in [1u8, 2, 8, 9] {
            let err = Encoding::from_u8(gone).unwrap_err();
            assert!(err.to_string().contains("bad encoding"), "{gone}: {err}");
        }
        for e in ALL_ENCODINGS {
            assert_eq!(Encoding::from_u8(e.to_u8()).unwrap(), e);
        }
    }

    #[test]
    fn nested_sections_must_be_leaf_encodings() {
        // A DictV2 whose value section claims DictV2 is rejected (no
        // recursive nesting on corrupt input).
        let mut bytes = Vec::new();
        put_uvarint(&mut bytes, 1); // dict_len
        bytes.push(Encoding::DictV2.to_u8()); // illegal nested encoding
        put_uvarint(&mut bytes, 0);
        bytes.push(0);
        assert!(decode_column(Encoding::DictV2, &bytes, 1).is_err());
    }

    #[test]
    fn decoded_structure_and_types_preserved() {
        let vals: Vec<Value> = (0..100).map(|i| Value::Int64(i % 4)).collect();
        let bytes = encode_column_with(&leaf(&vals), Encoding::DictV2).unwrap();
        match decode_chunk(Encoding::DictV2, &bytes, 100).unwrap() {
            ColumnVec::Dict { dict, codes } => {
                let values = vec![0, 1, 2, 3];
                let want = ColumnVec::I64(
                    IntKind::Int64,
                    Prim {
                        values,
                        nulls: None,
                    },
                );
                assert_eq!(*dict, want);
                assert_eq!(codes.len(), 100);
                assert_eq!(codes[5], 1);
            }
            other => panic!("expected dict vector, got {other:?}"),
        }
        let mut runs = Vec::new();
        for k in 0..5 {
            for _ in 0..20 {
                runs.push(Value::String(format!("run-{k}")));
            }
        }
        let bytes = encode_column_with(&leaf(&runs), Encoding::RleV2).unwrap();
        match decode_chunk(Encoding::RleV2, &bytes, 100).unwrap() {
            ColumnVec::Runs { lens, values } => {
                assert_eq!(lens, vec![20; 5]);
                match &*values {
                    ColumnVec::Str(StrKind::String, s) => assert_eq!(s.get(4), b"run-4"),
                    other => panic!("expected string vector, got {other:?}"),
                }
            }
            other => panic!("expected runs vector, got {other:?}"),
        }
        // Plain decodes to the vector of its cells' type, NULLs in the
        // bitmap; a second type (or a nested cell) falls back to `Any`.
        let plain = |vals: &[Value]| {
            let bytes = encode_column_with(&leaf(vals), Encoding::Plain).unwrap();
            decode_chunk(Encoding::Plain, &bytes, vals.len()).unwrap()
        };
        match plain(&[Value::Null, Value::Numeric(7), Value::Numeric(-1)]) {
            ColumnVec::I128(p) => {
                assert_eq!(p.values, vec![0, 7, -1]);
                assert!(p.nulls.is_some_and(|n| n.is_null(0) && !n.is_null(1)));
            }
            other => panic!("expected numeric vector, got {other:?}"),
        }
        assert!(matches!(
            plain(&[Value::Bool(true), Value::Null]),
            ColumnVec::Bool(_)
        ));
        assert!(matches!(
            plain(&[Value::Int64(1), Value::Bool(true)]),
            ColumnVec::Any(_)
        ));
        assert!(matches!(
            plain(&[Value::Array(vec![Value::Int64(1)])]),
            ColumnVec::Any(_)
        ));
    }

    /// A String / Json vector rejects bytes that are not UTF-8 row by
    /// row, even when the rows' concatenation is.
    #[test]
    fn string_rows_must_each_be_utf8() {
        let euro = "€".as_bytes(); // three bytes
        let mut bytes = Vec::new();
        for part in [&euro[..1], &euro[1..]] {
            bytes.push(TAG_STRING);
            put_uvarint(&mut bytes, part.len() as u64);
            bytes.extend_from_slice(part);
        }
        assert!(decode_chunk(Encoding::Plain, &bytes, 2).is_err());
        bytes[0] = TAG_BYTES;
        bytes[3] = TAG_BYTES;
        assert!(decode_chunk(Encoding::Plain, &bytes, 2).is_ok());
    }

    /// Encoding goes to the heap per zone and per candidate, never per
    /// cell: a target-size block of the benchmark's `orders` shape — six
    /// columns and the four of its rows' provenance, forty chunks — is
    /// pushed and built in fewer than 64 requests a chunk (≈ 2 000 in all),
    /// which is fewer than it has rows (the `Value`-slice encoders made
    /// several per cell).
    #[test]
    fn building_a_block_allocates_less_often_than_it_has_rows() {
        use crate::block::{RosBlockBuilder, RowMeta};
        use vortex_common::row::Row;
        use vortex_common::schema::{ChangeType, Field, FieldType, PartitionTransform, Schema};
        const ROWS: usize = 4096;
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
        let rows: Vec<Row> = (0..ROWS as u64)
            .map(|i| {
                let r = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23);
                Row::insert(vec![
                    Value::Int64(3),
                    Value::String(format!("cust-{:05}", r % 20_000)),
                    Value::Int64((r >> 16) as i64 % 1_000_000),
                    Value::Float64(((r >> 24) % 100_000) as f64 / 100.0),
                    match r % 10 {
                        0 => Value::Null,
                        _ => Value::String(format!(
                            "order note {r:016x} for the ledger, line {i:04}"
                        )),
                    },
                    Value::Int64(i as i64),
                ])
            })
            .collect();
        let (block, _, requests) = tallied(|| {
            let mut b = RosBlockBuilder::new(&schema);
            for (i, row) in rows.into_iter().enumerate() {
                let meta = RowMeta {
                    change_type: ChangeType::Insert,
                    ts: Timestamp(1_000_000),
                    stream: 1,
                    offset: i as u64,
                };
                b.push(meta, row).unwrap();
            }
            b.build(true).unwrap()
        });
        assert_eq!(block.row_count(), ROWS);
        let chunks = (6 + 4) * ROWS.div_ceil(crate::ZONE_ROWS);
        assert!(64 * chunks < ROWS);
        assert!(
            requests < 64 * chunks,
            "{requests} heap requests for {chunks} chunks"
        );
    }

    // ---- FSST: the slice-keyed encoder this crate used to run, kept as
    // the reference the table-driven one must match byte for byte. ------

    fn reference_fsst_table(slices: &[&[u8]]) -> Vec<Vec<u8>> {
        const SAMPLE_BUDGET: usize = 4096;
        let mut counts: HashMap<&[u8], u32> = HashMap::new();
        let mut budget = SAMPLE_BUDGET;
        for s in slices {
            if budget == 0 {
                break;
            }
            let take = s.len().min(budget);
            budget -= take;
            let s = &s[..take];
            for i in 0..s.len() {
                for l in 1..=FSST_MAX_SYM.min(s.len() - i) {
                    *counts.entry(&s[i..i + l]).or_insert(0) += 1;
                }
            }
        }
        let mut ranked: Vec<(u64, &[u8])> = counts
            .into_iter()
            .filter_map(|(sym, n)| {
                let saved = if sym.len() == 1 {
                    1
                } else {
                    (sym.len() - 1) as u64
                };
                (n >= 2).then_some((n as u64 * saved, sym))
            })
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
        ranked
            .into_iter()
            .take(FSST_ESCAPE as usize - 1)
            .map(|(_, s)| s.to_vec())
            .collect()
    }

    fn reference_fsst_compress(s: &[u8], table: &HashMap<&[u8], u8>, out: &mut Vec<u8>) {
        let mut pos = 0usize;
        'outer: while pos < s.len() {
            let max = FSST_MAX_SYM.min(s.len() - pos);
            for l in (1..=max).rev() {
                if let Some(&code) = table.get(&s[pos..pos + l]) {
                    out.push(code);
                    pos += l;
                    continue 'outer;
                }
            }
            out.push(FSST_ESCAPE);
            out.push(s[pos]);
            pos += 1;
        }
    }

    /// The whole Fsst chunk of a `Bytes` column, as the reference wrote it.
    fn reference_fsst_chunk(values: &[Option<Vec<u8>>]) -> Option<Vec<u8>> {
        let slices: Vec<&[u8]> = values.iter().flatten().map(Vec::as_slice).collect();
        if slices.iter().map(|s| s.len()).sum::<usize>() < 64 {
            return None;
        }
        let symbols = reference_fsst_table(&slices);
        let by_bytes: HashMap<&[u8], u8> = (symbols.iter().map(Vec::as_slice)).zip(0u8..).collect();
        let has_null = slices.len() < values.len();
        let mut out = vec![TY_BYTES, has_null as u8];
        put_uvarint(&mut out, slices.len() as u64);
        if has_null {
            let start = out.len();
            out.resize(start + values.len().div_ceil(8), 0);
            for (i, _) in values.iter().enumerate().filter(|(_, v)| v.is_none()) {
                out[start + i / 8] |= 1 << (i % 8);
            }
        }
        out.push(symbols.len() as u8);
        for s in &symbols {
            out.push(s.len() as u8);
            out.extend_from_slice(s);
        }
        for s in &slices {
            let mut enc = Vec::new();
            reference_fsst_compress(s, &by_bytes, &mut enc);
            put_uvarint(&mut out, enc.len() as u64);
            out.extend_from_slice(&enc);
        }
        Some(out)
    }

    /// The trainer the sorting one replaced: occurrences per (word, len)
    /// in an open-addressed table (slot `at` holds a substring's word in
    /// `words` and `count << 4 | len` in `tally`, 0 = free), ranked the
    /// same way. The symbols, in code order.
    fn hashing_fsst_table(values: &[&[u8]]) -> Vec<(u64, u8)> {
        const SAMPLE_BUDGET: usize = 4096;
        const SLOTS: usize = 16 * SAMPLE_BUDGET;
        let mut words = vec![0u64; SLOTS];
        let mut tally = vec![0u32; SLOTS];
        let mut used: Vec<u32> = Vec::new();
        let mut budget = SAMPLE_BUDGET;
        for v in values {
            let v = &v[..v.len().min(budget)];
            budget -= v.len();
            for pos in 0..v.len() {
                let window = le_uint(&v[pos..v.len().min(pos + FSST_MAX_SYM)]) as u64;
                for len in 1..=FSST_MAX_SYM.min(v.len() - pos) {
                    let word = low_bytes(window, len);
                    let hash = (word ^ len as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut at = (hash >> 40) as usize % SLOTS;
                    while tally[at] != 0 && (words[at], tally[at] as usize & 15) != (word, len) {
                        at = (at + 1) % SLOTS;
                    }
                    if tally[at] == 0 {
                        (words[at], tally[at]) = (word, len as u32);
                        used.push(at as u32);
                    }
                    tally[at] += 1 << 4;
                }
            }
        }
        let counted = used
            .iter()
            .map(|&at| (words[at as usize], tally[at as usize]));
        let mut ranked: Vec<(Reverse<u64>, u64, u8)> = counted
            .filter(|&(_, tally)| tally >> 4 >= 2)
            .map(|(word, tally)| {
                let (n, len) = ((tally >> 4) as u64, tally as u8 & 15);
                (Reverse(n * (len as u64 - 1).max(1)), word.swap_bytes(), len)
            })
            .collect();
        ranked.sort_unstable();
        ranked.truncate(FSST_ESCAPE as usize - 1);
        (ranked.iter())
            .map(|&(_, bytes, len)| (bytes.swap_bytes(), len))
            .collect()
    }

    /// The matcher the two-byte lookup replaced: the first symbol that
    /// fits, of those that start with the byte, longest first.
    fn linear_fsst_codes(symbols: &[(u64, u8)], s: &[u8]) -> Vec<u8> {
        let mut by_len: Vec<(u64, u8, u8)> = (symbols.iter().zip(0u8..))
            .map(|(&(word, len), code)| (word, len, code))
            .collect();
        by_len.sort_by_key(|&(_, len, _)| Reverse(len));
        let (mut out, mut pos) = (Vec::new(), 0usize);
        while pos < s.len() {
            let left = &s[pos..];
            let fits = |&&(word, len, _): &&(u64, u8, u8)| {
                left.starts_with(&word.to_le_bytes()[..len as usize])
            };
            match by_len.iter().find(fits) {
                Some(&(_, len, code)) => {
                    out.push(code);
                    pos += len as usize;
                }
                None => {
                    out.extend_from_slice(&[FSST_ESCAPE, s[pos]]);
                    pos += 1;
                }
            }
        }
        out
    }

    /// A table's symbols, in code order.
    fn trained(table: &FsstTable) -> Vec<(u64, u8)> {
        let coded = table.symbols.iter().zip(0u8..);
        coded
            .map(|(&(word, len, code), at)| {
                assert_eq!(code, at);
                (word, len)
            })
            .collect()
    }

    /// The sorting trainer builds the hashing one's table, and the
    /// two-byte lookup emits the linear matcher's codes.
    fn assert_fsst_table_and_codes(values: &[&[u8]]) {
        let table = FsstTable::build(values.iter().copied());
        let symbols = trained(&table);
        assert_eq!(symbols, hashing_fsst_table(values));
        for v in values {
            let mut codes = Vec::new();
            table.emit_codes(v, &mut codes);
            assert_eq!(codes, linear_fsst_codes(&symbols, v), "{v:?}");
        }
    }

    fn assert_fsst_matches_reference(values: &[Option<Vec<u8>>]) {
        let cells: Vec<Value> = (values.iter().cloned())
            .map(|v| v.map_or(Value::Null, Value::Bytes))
            .collect();
        let col = leaf(&cells);
        let got = try_encode_fsst(&col, usize::MAX, None);
        assert_eq!(got, reference_fsst_chunk(values));
        let slices: Vec<&[u8]> = values.iter().flatten().map(Vec::as_slice).collect();
        assert_fsst_table_and_codes(&slices);
        if let Some(bytes) = got {
            assert_eq!(
                decode_chunk(Encoding::Fsst, &bytes, cells.len()).unwrap(),
                col
            );
        }
    }

    /// The cases a table-driven matcher is most likely to get wrong, by
    /// hand: NUL bytes against zero padding, values shorter than a
    /// symbol, a value that ends inside one, a sample cut by the budget
    /// in the middle of a value, and symbols whose scores tie.
    #[test]
    fn fsst_matches_the_reference_on_edge_cases() {
        let rep = |unit: &[u8], n: usize| Some(unit.repeat(n));
        assert_fsst_matches_reference(&[rep(b"\0", 40), rep(b"\0\0a", 30), None, rep(b"a\0", 9)]);
        assert_fsst_matches_reference(&[rep(b"abcdefgh", 20), rep(b"abcdefg", 1), rep(b"abc", 1)]);
        assert_fsst_matches_reference(&[rep(b"ab", 50), rep(b"ba", 50), rep(b"a", 1), rep(b"", 0)]);
        let long = [
            rep(b"0123456789", 409),
            rep(b"xyzxyz", 3),
            rep(b"0123456789", 2),
        ];
        assert_fsst_matches_reference(&long);
        assert_fsst_matches_reference(&[rep(b"abcdefghijklmnop", 4096 / 16), rep(b"q", 70)]);
        assert_fsst_matches_reference(&[rep(b"\xff\xfe", 33), None, None, rep(b"\xff", 3)]);
    }

    /// Order-note text and customer keys as the benchmark writes them
    /// (the keys' symbols share a few prefixes, dozens each), seeded
    /// random strings, values of 0 / 1 / 8 / 9 bytes, and a sample the
    /// budget cuts in the middle of a value whose tail then must not train
    /// the table.
    #[test]
    fn fsst_trains_and_matches_as_the_hashing_trainer_and_linear_matcher() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let notes: Vec<Vec<u8>> = (0..300)
            .map(|i| format!("order note {:016x} for the ledger, line {i:04}", next()).into_bytes())
            .collect();
        let customers: Vec<Vec<u8>> = (0..400)
            .map(|_| format!("cust-{:05}", next() % 2_000).into_bytes())
            .collect();
        let random: Vec<Vec<u8>> = (0..200)
            .map(|_| {
                (0..next() % 40)
                    .map(|_| b"ab\0c \xff"[(next() % 6) as usize])
                    .collect()
            })
            .collect();
        let sized: Vec<Vec<u8>> = [0usize, 1, 8, 9, 8, 1, 9, 0, 9]
            .iter()
            .map(|&n| b"abcabcabc"[..n].to_vec())
            .collect();
        let mut cut = vec![b"xy".repeat(2047), b"xyzzy plugh".repeat(40)];
        for values in [&notes, &customers, &random, &sized, &cut.clone()] {
            let slices: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
            assert_fsst_table_and_codes(&slices);
        }
        // What lies past the budget leaves the table as it was.
        let slices =
            |values: &[Vec<u8>]| trained(&FsstTable::build(values.iter().map(Vec::as_slice)));
        let before = slices(&cut);
        cut[1].truncate(2);
        cut.push(b"never sampled".repeat(9));
        assert_eq!(slices(&cut), before);
    }

    /// Word-at-a-time packing writes the bytes the byte loop wrote, and
    /// `BitReader` reads the values back, at every width.
    #[test]
    fn pack_bits_matches_the_byte_loop() {
        fn pack_bytewise(out: &mut Vec<u8>, vals: &[u64], width: u8) {
            let (mut acc, mut nbits) = (0u128, 0u32);
            for &v in vals {
                acc |= (v as u128) << nbits;
                nbits += width as u32;
                while nbits >= 8 {
                    out.push(acc as u8);
                    acc >>= 8;
                    nbits -= 8;
                }
            }
            if nbits > 0 {
                out.push(acc as u8);
            }
        }
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for width in 1..=64u8 {
            for len in 0..=130usize {
                let vals: Vec<u64> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state >> (64 - width as u32)
                    })
                    .collect();
                let (mut got, mut want) = (vec![0xAB], vec![0xAB]);
                pack_bits(&mut got, vals.iter().copied(), width);
                pack_bytewise(&mut want, &vals, width);
                assert_eq!(got, want, "width {width}, {len} values");
                let mut bits = BitReader::new(&got, &mut 1, len, width).unwrap();
                let back: Vec<u64> = vals.iter().map(|_| bits.next_value()).collect();
                assert_eq!(back, vals, "width {width}, {len} values");
            }
        }
    }

    // ---- The bit reader, NULL count and Alp decoder this crate used to
    // run, as the oracles of the ones that read a window, popcount the
    // bitmap and add in `i64`. -------------------------------------------

    /// A `u128` refilled a byte per turn; the value at an index folded
    /// from nine bytes.
    struct BytewiseBits<'a> {
        packed: &'a [u8],
        bytes: std::slice::Iter<'a, u8>,
        width: u32,
        mask: u64,
        acc: u128,
        nbits: u32,
    }

    impl<'a> BytewiseBits<'a> {
        fn new(packed: &'a [u8], width: u8) -> Self {
            let width = width as u32;
            let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
            let (bytes, acc, nbits) = (packed.iter(), 0, 0);
            BytewiseBits {
                packed,
                bytes,
                width,
                mask,
                acc,
                nbits,
            }
        }

        fn next_value(&mut self) -> u64 {
            while self.nbits < self.width {
                self.acc |= (self.bytes.next().copied().unwrap_or(0) as u128) << self.nbits;
                self.nbits += 8;
            }
            let v = self.acc as u64 & self.mask;
            self.acc >>= self.width;
            self.nbits -= self.width;
            v
        }

        fn value_at(&self, k: usize) -> u64 {
            let bit = k.saturating_mul(self.width as usize);
            let from = (bit / 8).min(self.packed.len());
            let window = &self.packed[from..self.packed.len().min(from + 9)];
            (le_uint(window) >> (bit % 8)) as u64 & self.mask
        }
    }

    /// `read_nulls` counting the non-NULL rows one row at a time.
    fn reference_read_nulls(
        bytes: &[u8],
        pos: &mut usize,
        count: usize,
        allowed: u8,
    ) -> VortexResult<(u8, Option<Nulls>, usize)> {
        let flags = take_byte(bytes, pos)?;
        ensure(
            flags & !allowed == 0,
            format_args!("bad chunk flags {flags:#x}"),
        )?;
        let stored = get_count(bytes, pos, count, "non-null count")?;
        let nulls = match flags & FLAG_NULLS != 0 {
            true => Some(Nulls(take(bytes, pos, count.div_ceil(8))?.to_vec())),
            false => None,
        };
        let m = (0..count).filter(|&i| !null_at(&nulls, i)).count();
        ensure(
            stored == m,
            format_args!("chunk declares {stored} values, row count implies {m}"),
        )?;
        Ok((flags, nulls, m))
    }

    /// The Alp decoder that added the frame base in `i128` and tested
    /// every row for NULL and patch, over a whole chunk.
    fn reference_decode_alp(bytes: &[u8], count: usize) -> VortexResult<ColumnVec> {
        let pos = &mut 0;
        let (_, nulls, m) = reference_read_nulls(bytes, pos, count, FLAG_NULLS)?;
        let exp = take_byte(bytes, pos)? as usize;
        let p10 = *POW10.get(exp).ok_or_else(|| corrupt("bad alp exponent"))?;
        let npatch = get_count(bytes, pos, m, "alp patches")?;
        let mut patch_rows = Vec::with_capacity(npatch);
        let mut prev = 0usize;
        for i in 0..npatch {
            let gap = get_uvarint(bytes, pos)? as usize;
            prev = prev.saturating_add(gap);
            let ascends = (i == 0 || gap > 0) && prev < count;
            ensure(ascends, format_args!("bad alp patch row {prev}"))?;
            patch_rows.push(prev);
        }
        let patch_bits = take(bytes, pos, npatch * 8)?.chunks_exact(8);
        let mut patches = patch_rows.iter().zip(patch_bits).peekable();
        let base = get_ivarint(bytes, pos)? as i128;
        let width = take_byte(bytes, pos)?;
        ensure(width <= 64, "bit width")?;
        let packed = take(bytes, pos, ((m - npatch) * width as usize).div_ceil(8))?;
        let mut bits = BytewiseBits::new(packed, width);
        let mut values = Vec::with_capacity(count);
        for row in 0..count {
            values.push(if null_at(&nulls, row) {
                0.0
            } else if let Some((_, raw)) = patches.next_if(|&(&prow, _)| prow == row) {
                f64::from_bits(le_uint(raw) as u64)
            } else {
                (base + bits.next_value() as i128) as f64 / p10
            });
        }
        ensure(patches.next().is_none(), "alp patch at null row")?;
        ensure(*pos == bytes.len(), "trailing bytes")?;
        Ok(ColumnVec::F64(Prim { values, nulls }))
    }

    /// The window reader reads what the byte loop read at every width,
    /// value by value and at every index — past the `n`-th value too,
    /// where the last byte's stray high bits are read, then zeros.
    #[test]
    fn bit_reader_matches_the_byte_loop() {
        let mut rng = StdRng::seed_from_u64(0xB175);
        for width in 0..=64u8 {
            for n in 0..=130usize {
                let bits = n * width as usize;
                let mut packed = vec![0u8; bits.div_ceil(8)];
                rng.fill_bytes(&mut packed);
                if let (Some(last), 1..) = (packed.last_mut(), bits % 8) {
                    *last |= u8::MAX << (bits % 8);
                }
                let mut got = BitReader::new(&packed, &mut 0, n, width).unwrap();
                let mut want = BytewiseBits::new(&packed, width);
                for k in 0..n + 3 {
                    let at = got.value_at(k);
                    assert_eq!(at, want.value_at(k), "width {width}, {n} values, at {k}");
                    if k * width as usize >= 8 * packed.len() {
                        assert_eq!(at, 0, "width {width}, {n} values, at {k}");
                    }
                    let next = got.next_value();
                    assert_eq!(
                        next,
                        want.next_value(),
                        "width {width}, {n} values, next {k}"
                    );
                }
            }
        }
    }

    /// A bitmap whose last byte has bits set past `count` is counted —
    /// and its chunk accepted or refused — as the row loop counted it.
    #[test]
    fn null_count_matches_the_row_loop() {
        let mut rng = StdRng::seed_from_u64(0x4E55);
        for count in 0..=70usize {
            for _ in 0..8 {
                let mut bitmap = vec![0u8; count.div_ceil(8)];
                rng.fill_bytes(&mut bitmap);
                if let (Some(last), 1..) = (bitmap.last_mut(), count % 8) {
                    *last |= u8::MAX << (count % 8);
                }
                let valued = (0..count).filter(|&i| bitmap[i / 8] >> (i % 8) & 1 == 0);
                let m = valued.count();
                let set: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
                for stored in [m, m + 1, m.wrapping_sub(1), count.saturating_sub(set)] {
                    for flags in [FLAG_NULLS, 0, FLAG_DELTA] {
                        let mut chunk = vec![flags];
                        put_uvarint(&mut chunk, stored as u64);
                        chunk.extend_from_slice(&bitmap);
                        let (got_at, want_at) = (&mut 0, &mut 0);
                        let got = read_nulls(&chunk, got_at, count, FLAG_NULLS).map(
                            |(flags, bits, m)| (flags, bits.map(|bits| Nulls(bits.to_vec())), m),
                        );
                        let want = reference_read_nulls(&chunk, want_at, count, FLAG_NULLS);
                        let err = |e: VortexError| e.to_string();
                        assert_eq!(got.map_err(err), want.map_err(err), "{count} rows");
                        assert_eq!(got_at, want_at);
                    }
                }
            }
        }
    }

    /// One cell of a hand-made Alp chunk.
    #[derive(Clone, Copy)]
    enum AlpCell {
        Null,
        /// A float stored as its raw bits.
        Patch(f64),
        /// An offset from the frame base.
        Packed(u64),
    }

    /// The Alp chunk of `cells` at exponent `exp` in the frame `(base,
    /// width)`, which the encoder would not make of most: a frame whose
    /// `base + offset` leaves `i64`, a patch that decomposes.
    fn alp_chunk(cells: &[AlpCell], exp: u8, (base, width): Frame) -> Vec<u8> {
        let n = cells.len();
        let mut bitmap = vec![0u8; n.div_ceil(8)];
        let (mut patches, mut packed) = (Vec::new(), Vec::new());
        for (row, cell) in cells.iter().enumerate() {
            match *cell {
                AlpCell::Null => bitmap[row / 8] |= 1 << (row % 8),
                AlpCell::Patch(f) => patches.push((row, f.to_bits())),
                AlpCell::Packed(v) => packed.push(v),
            }
        }
        let m = patches.len() + packed.len();
        let mut out = vec![(m < n) as u8];
        push_nulls_header(&mut out, n, &Some(Nulls(bitmap)), m);
        out.push(exp);
        put_uvarint(&mut out, patches.len() as u64);
        let mut prev = 0;
        for &(row, _) in &patches {
            put_uvarint(&mut out, (row - prev) as u64);
            prev = row;
        }
        patches
            .iter()
            .for_each(|(_, bits)| out.extend_from_slice(&bits.to_le_bytes()));
        put_ivarint(&mut out, base);
        out.push(width);
        pack_bits(&mut out, packed.into_iter(), width);
        out
    }

    /// Each row's float bits, `None` at a NULL row.
    fn float_bits(col: &ColumnVec) -> Vec<Option<u64>> {
        let bits = |v: Value| match v {
            Value::Float64(f) => Some(f.to_bits()),
            Value::Null => None,
            other => panic!("not a float: {other:?}"),
        };
        col.to_values().into_iter().map(bits).collect()
    }

    /// Decoded whole and at a selection, an Alp chunk holds the bits the
    /// `i128` decoder made of it — with NaN, −NaN, −0.0 and irrational
    /// patches, with NULLs, with neither, and in frames whose
    /// `base + offset` leaves `i64` — and a chunk cut short or followed
    /// by a byte is refused by both.
    #[test]
    fn alp_decodes_bit_exactly_as_the_i128_decoder() {
        let mut rng = StdRng::seed_from_u64(0xA1F);
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0ABC),
            -0.0,
            std::f64::consts::PI,
            1.25,
        ];
        let (mut overflowed, mut positional) = (0, 0);
        for case in 0..600 {
            let (nulls, patched) = (case % 3 == 0, case % 2 == 0);
            let width = [0u8, 1, 7, 17, 40, 52, 63, 64][rng.gen_range(0..8usize)];
            let base = match rng.gen_range(0..4u8) {
                0 => rng.gen_range(-1000..1000i64),
                1 => i64::MAX - rng.gen_range(0..1000i64),
                2 => i64::MIN + rng.gen_range(0..1000i64),
                _ => rng.next_u64() as i64,
            };
            let mask = u64::MAX.checked_shr(64 - width as u32).unwrap_or(0);
            let cells: Vec<AlpCell> = (0..rng.gen_range(0..200usize))
                .map(|_| match rng.gen_range(0..10u8) {
                    0 | 1 if nulls => AlpCell::Null,
                    2 if patched => AlpCell::Patch(specials[rng.gen_range(0..specials.len())]),
                    _ => AlpCell::Packed(rng.next_u64() & mask),
                })
                .collect();
            overflowed += cells.iter().any(|c| match *c {
                AlpCell::Packed(v) => base.checked_add_unsigned(v).is_none(),
                _ => false,
            }) as usize;
            let bytes = alp_chunk(&cells, rng.gen_range(0..15u8), (base, width));
            let n = cells.len();
            let want = reference_decode_alp(&bytes, n).unwrap();
            let got = decode_chunk(Encoding::Alp, &bytes, n).unwrap();
            assert_eq!(float_bits(&got), float_bits(&want), "case {case}");
            for keep in [0u8, 1, 3, 8] {
                let rows: Vec<usize> = (0..n).filter(|_| rng.gen_range(0..8u8) < keep).collect();
                let got = decode_chunk_at(Encoding::Alp, &bytes, n, Some(&rows)).unwrap();
                let want = want.clone().into_leaf(&rows);
                assert_eq!(float_bits(&got), float_bits(&want), "case {case}, {rows:?}");
            }
            positional += (!nulls && !patched) as usize;
            for bad in [
                bytes[..bytes.len() - 1].to_vec(),
                [&bytes[..], &[0]].concat(),
            ] {
                assert!(decode_chunk(Encoding::Alp, &bad, n).is_err(), "case {case}");
                assert!(reference_decode_alp(&bad, n).is_err(), "case {case}");
            }
        }
        assert!(
            overflowed >= 100 && positional >= 100,
            "{overflowed} / {positional}"
        );
    }

    // ---- The Fsst decoder this crate used to run — a varint and a slice
    // per length prefix, a symbol slice copied per code — as the oracle of
    // the one that skips what it does not pick and stores words. ---------

    /// The byte-loop decoder, over a whole chunk (trailing bytes refused).
    fn reference_decode_fsst(
        bytes: &[u8],
        count: usize,
        rows: Option<&[usize]>,
    ) -> VortexResult<ColumnVec> {
        let pos = &mut 0usize;
        let tag = take_byte(bytes, pos)? as usize;
        let kinds = [StrKind::String, StrKind::Json, StrKind::Bytes];
        let kind = *kinds.get(tag).ok_or_else(|| corrupt("bad fsst type"))?;
        let (_, nulls, _) = reference_read_nulls(bytes, pos, count, FLAG_NULLS)?;
        let nsyms = take_byte(bytes, pos)? as usize;
        ensure(nsyms < FSST_ESCAPE as usize, "fsst table")?;
        let mut symbols: Vec<&[u8]> = Vec::with_capacity(nsyms);
        for _ in 0..nsyms {
            let l = take_byte(bytes, pos)? as usize;
            ensure((1..=FSST_MAX_SYM).contains(&l), "fsst symbol")?;
            symbols.push(take(bytes, pos, l)?);
        }
        let kept = rows.map_or(count, <[usize]>::len);
        let mut want = rows.map(|rows| rows.iter().peekable());
        let (mut offsets, mut data) = (Vec::with_capacity(kept + 1), Vec::new());
        offsets.push(0);
        for row in 0..count {
            let wanted = (want.as_mut()).map_or(true, |w| w.next_if_eq(&&row).is_some());
            if !null_at(&nulls, row) {
                let elen = get_count(bytes, pos, bytes.len() - *pos, "fsst value")?;
                let mut codes = take(bytes, pos, elen)?.iter();
                while let (true, Some(&c)) = (wanted, codes.next()) {
                    if c == FSST_ESCAPE {
                        data.push(*codes.next().ok_or_else(|| corrupt("escape truncated"))?);
                    } else {
                        let sym = symbols.get(c as usize);
                        data.extend_from_slice(sym.ok_or_else(|| corrupt("code out of range"))?);
                    }
                }
            }
            if wanted {
                offsets.push(data.len() as u32);
            }
        }
        ensure(*pos == bytes.len(), "trailing bytes")?;
        str_vec(kind, offsets, data, nulls_at(nulls, rows))
    }

    /// An Fsst chunk of type `tag` over the table `symbols`, of the
    /// values' codes (`None` is NULL), whatever they say.
    fn fsst_chunk(tag: u8, symbols: &[Vec<u8>], values: &[Option<Vec<u8>>]) -> Vec<u8> {
        let n = values.len();
        let mut bitmap = vec![0u8; n.div_ceil(8)];
        for (row, _) in values.iter().enumerate().filter(|(_, v)| v.is_none()) {
            bitmap[row / 8] |= 1 << (row % 8);
        }
        let m = values.iter().flatten().count();
        let mut out = vec![tag, (m < n) as u8];
        push_nulls_header(&mut out, n, &Some(Nulls(bitmap)), m);
        out.push(symbols.len() as u8);
        for s in symbols {
            out.push(s.len() as u8);
            out.extend_from_slice(s);
        }
        for codes in values.iter().flatten() {
            put_uvarint(&mut out, codes.len() as u64);
            out.extend_from_slice(codes);
        }
        out
    }

    /// What both decoders make of a chunk, whole or at `rows`: the same
    /// vector, or an error from each.
    fn assert_fsst_decoders_agree(bytes: &[u8], n: usize, rows: Option<&[usize]>) -> bool {
        let got = decode_chunk_at(Encoding::Fsst, bytes, n, rows);
        let want = reference_decode_fsst(bytes, n, rows);
        match (got, want) {
            (Ok(got), Ok(want)) => assert_eq!(got, want, "{rows:?}"),
            (Err(_), Err(_)) => return false,
            (got, want) => panic!("{rows:?}: {got:?} against {want:?}"),
        }
        true
    }

    /// The Fsst decoder makes, whole and at every shape of selection, the
    /// vector its byte loop made of hand-made chunks — 1 to 254 symbols
    /// of 1 to 8 bytes, escapes, empty values, values of 128 code bytes
    /// or more, NULLs — and refuses, without a panic, what it refused: a
    /// length prefix past the end inside a skipped run, an escape as a
    /// picked value's last byte, a picked code past the table, a table
    /// cut short, every cut and flip of a chunk.
    #[test]
    fn fsst_decodes_as_the_byte_loop() {
        let mut rng = StdRng::seed_from_u64(0xF557);
        let chars = ['a', 'z', ' ', '{', 'é', '€', '𝄞'];
        let (mut decoded, mut nulled, mut long, mut refused) = (0, 0, 0, 0);
        for case in 0..400 {
            let tag = [TY_STRING, TY_JSON, TY_BYTES][case % 3];
            let text = tag != TY_BYTES;
            let symbol = |rng: &mut StdRng| -> Vec<u8> {
                let len = rng.gen_range(1..=FSST_MAX_SYM);
                if !text {
                    return (0..len).map(|_| rng.next_u32() as u8).collect();
                }
                let mut s = String::new();
                loop {
                    let c = chars[rng.gen_range(0..chars.len())];
                    if s.len() + c.len_utf8() > len {
                        break;
                    }
                    s.push(c);
                }
                s.push_str(if s.is_empty() { "q" } else { "" });
                s.into_bytes()
            };
            let symbols: Vec<Vec<u8>> = (0..rng.gen_range(1..=254usize))
                .map(|_| symbol(&mut rng))
                .collect();
            let nsyms = symbols.len() as u8;
            let null_share = [0u8, 2, 6][case % 5 % 3];
            let n = rng.gen_range(0..200usize);
            let values: Vec<Option<Vec<u8>>> = (0..n)
                .map(|_| {
                    if rng.gen_range(0..8u8) < null_share {
                        return None;
                    }
                    let codes = match rng.gen_range(0..6u8) {
                        0 => 0,
                        1 => rng.gen_range(130..400),
                        _ => rng.gen_range(1..24),
                    };
                    let mut out = Vec::new();
                    while out.len() < codes {
                        match rng.gen_range(0..10u8) {
                            0 if text => {
                                out.extend_from_slice(&[FSST_ESCAPE, rng.gen_range(b'a'..=b'z')])
                            }
                            0 => out.extend_from_slice(&[FSST_ESCAPE, rng.next_u32() as u8]),
                            _ => out.push(rng.gen_range(0..nsyms)),
                        }
                    }
                    Some(out)
                })
                .collect();
            let bytes = fsst_chunk(tag, &symbols, &values);
            assert!(assert_fsst_decoders_agree(&bytes, n, None), "case {case}");
            let third: Vec<usize> = (rng.gen_range(0..3)..n).step_by(3).collect();
            let some: Vec<usize> = (0..n).filter(|_| rng.gen_range(0..8u8) == 0).collect();
            let every: Vec<usize> = (0..n).collect();
            let (first, last) = (&every[..n.min(1)], &every[n.saturating_sub(1)..]);
            for rows in [&[][..], first, last, &every, &third, &some] {
                assert!(assert_fsst_decoders_agree(&bytes, n, Some(rows)));
            }
            decoded += 1;
            nulled += values.iter().any(Option::is_none) as usize;
            long += values.iter().flatten().any(|codes| codes.len() >= 128) as usize;

            // Cut short, by a byte or inside the table; flipped anywhere.
            let framed = |codes: &Vec<u8>| uvarint_len(codes.len() as u64) + codes.len();
            let table_end = bytes.len() - values.iter().flatten().map(framed).sum::<usize>();
            let table_len: usize = symbols.iter().map(|s| 1 + s.len()).sum();
            let cuts = [
                bytes.len() - 1,
                rng.gen_range(table_end - table_len..table_end),
            ];
            for cut in cuts {
                for rows in [None, Some(&[][..]), Some(first), Some(&third)] {
                    refused += !assert_fsst_decoders_agree(&bytes[..cut], n, rows) as usize;
                }
            }
            let mut flipped = bytes.clone();
            if let Some(at) = (!bytes.is_empty()).then(|| rng.gen_range(0..bytes.len())) {
                flipped[at] ^= 1 << rng.gen_range(0..8u32);
                for rows in [None, Some(&third[..]), Some(&some[..])] {
                    assert_fsst_decoders_agree(&flipped, n, rows);
                }
            }

            // One value made bad: past the table, or an escape last.
            let Some(bad) = (0..n).rev().find(|&i| values[i].is_some()) else {
                continue;
            };
            for tail in [[FSST_ESCAPE], [rng.gen_range(nsyms..FSST_ESCAPE)]] {
                let mut broken = values.clone();
                broken[bad].as_mut().unwrap().extend_from_slice(&tail);
                let bytes = fsst_chunk(tag, &symbols, &broken);
                let skipping: Vec<usize> = (0..bad).collect();
                for rows in [None, Some(&[bad][..]), Some(&every)] {
                    assert!(!assert_fsst_decoders_agree(&bytes, n, rows), "case {case}");
                }
                assert!(assert_fsst_decoders_agree(&bytes, n, Some(&skipping)));
            }
            // A length prefix past the end, inside a run of values no
            // selection picks.
            if bad > 0 {
                let mut cut = bytes.clone();
                cut.truncate(bytes.len() - values[bad].as_ref().unwrap().len().min(1));
                if cut.len() < bytes.len() {
                    for rows in [Some(&[][..]), Some(&[0][..])] {
                        assert!(!assert_fsst_decoders_agree(&cut, n, rows), "case {case}");
                    }
                }
            }
        }
        assert!(
            decoded == 400 && nulled >= 200 && long >= 200 && refused >= 400,
            "{decoded} decoded, {nulled} with NULLs, {long} with a two-byte prefix, {refused} refused"
        );
    }

    /// A String / Json cell leaves a decoded vector as the `String` the
    /// lossy copy built — through `value`, `gather` and `to_values`, with
    /// 2-, 3- and 4-byte characters at the ends of values, empty values
    /// and NULLs, from every encoding that takes the column.
    #[test]
    fn string_cells_leave_as_the_lossy_copy_built_them() {
        let mut rng = StdRng::seed_from_u64(0x57E);
        let chars = ['a', 'q', '"', 'é', '€', '𝄞'];
        let mut compared = [0usize; 8];
        for case in 0..240 {
            let n = rng.gen_range(1..120usize);
            let cells: Vec<Value> = (0..n)
                .map(|_| {
                    if rng.gen_range(0..8u8) == 0 {
                        return Value::Null;
                    }
                    let len = rng.gen_range(0..10usize);
                    let mut s: String = (0..len).map(|_| chars[rng.gen_range(0..6usize)]).collect();
                    if rng.gen_bool(0.5) {
                        s.push(chars[rng.gen_range(3..6usize)]);
                    }
                    match case % 2 {
                        0 => Value::String(s),
                        _ => Value::Json(s),
                    }
                })
                .collect();
            for enc in ALL_ENCODINGS {
                let Ok(bytes) = encode_column_with(&leaf(&cells), enc) else {
                    continue;
                };
                let col = decode_chunk(enc, &bytes, n).unwrap();
                let every: Vec<usize> = (0..n).collect();
                let lossy = match col.clone().into_leaf(&every) {
                    ColumnVec::Str(kind, s) => (0..n)
                        .map(|i| match (null_at(&s.nulls, i), kind) {
                            (true, _) => Value::Null,
                            (_, StrKind::Json) => {
                                Value::Json(String::from_utf8_lossy(s.get(i)).into_owned())
                            }
                            _ => Value::String(String::from_utf8_lossy(s.get(i)).into_owned()),
                        })
                        .collect::<Vec<Value>>(),
                    _ => continue, // no string cell
                };
                assert_eq!(lossy, cells);
                assert_eq!(col.to_values(), lossy, "{enc:?}");
                assert!((0..n).all(|i| col.value(i) == lossy[i]), "{enc:?}");
                let rows: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.3)).collect();
                let mut got = Vec::new();
                col.gather(rows.iter().copied(), |k, v| {
                    assert_eq!(k, got.len());
                    got.push(v)
                });
                assert!(
                    rows.iter().zip(&got).all(|(&i, v)| *v == lossy[i]),
                    "{enc:?}"
                );
                compared[enc.to_u8() as usize] += 1;
            }
        }
        let fsst = compared[Encoding::Fsst.to_u8() as usize];
        assert!(fsst >= 100 && compared[0] >= 200, "{compared:?}");
    }

    /// A dictionary is in first-appearance order whatever the hasher's
    /// keys: two keyings that hash differently number alike.
    #[test]
    fn the_hashers_keys_reach_no_dictionary() {
        let cells: Vec<Value> = (0..3000u64)
            .map(|i| match i % 7 {
                0 => Value::Null,
                _ => Value::String(format!("cust-{:05}", i.wrapping_mul(0x9E37_79B9) % 600)),
            })
            .collect();
        let col = leaf(&cells);
        let numbered = |keys| {
            with_hasher_keys(keys, || {
                let d: Dictionary = keyed(&col, || Numbering { limit: usize::MAX }).unwrap();
                (d.0, d.1, cell_hasher().hash_one(b"cust-00001".as_slice()))
            })
        };
        let (a, b) = (numbered([1, 2]), numbered([0xDEAD_BEEF, 0x5EED]));
        assert_eq!((&a.0, &a.1), (&b.0, &b.1));
        assert_ne!(a.2, b.2);
        assert!(a.0.len() > 100);
        let want = reference_dictionary(&col, usize::MAX).unwrap();
        assert_eq!((a.0, a.1), want);
    }

    pub(crate) mod properties {
        use super::*;
        use proptest::prelude::*;

        /// One column of one leaf family — Int64 / Date / Timestamp, each
        /// also at the extremes where a delta frame leaves `u64` and is
        /// refused; Float64 with NaN and -0.0; String / Json / Bytes; Bool;
        /// Numeric; cells only `Any` holds — in one shape: constant,
        /// arithmetic, runs, low cardinality, unique, empty, one row;
        /// with or without NULLs.
        pub(crate) fn shaped_column_strategy() -> impl Strategy<Value = Vec<Value>> {
            let knobs = (0usize..12, 0usize..7, any::<bool>(), any::<u64>(), 2u64..80);
            knobs.prop_map(|(family, shape, nulls, seed, len)| {
                let mix = |i: u64| {
                    (seed ^ i)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .rotate_left(29)
                };
                let micros = |k: u64| Value::Timestamp(Timestamp::from_micros(k));
                let cell = |k: u64| match family {
                    0 => Value::Int64(k as i64 * 7 - 50),
                    1 => Value::Int64([i64::MIN, i64::MAX, 0, -1][(k % 4) as usize]),
                    2 => Value::Date(k as i32 * 3 - 40),
                    3 => Value::Date([i32::MIN, i32::MAX][(k % 2) as usize]),
                    4 => micros(1_700_000_000_000_000 + k * 1000),
                    5 => micros([u64::MAX, 0, 1 << 63, 77][(k % 4) as usize]),
                    6 => Value::Float64(match k % 5 {
                        0 => f64::NAN,
                        1 => -0.0,
                        2 => std::f64::consts::PI,
                        _ => k as f64 / 100.0,
                    }),
                    7 => Value::String(format!("order note {k:04} for the ledger é")),
                    8 => match k % 2 {
                        0 => Value::Json(format!(r#"{{"region":"us","n":{k}}}"#)),
                        _ => Value::Json("{}".into()),
                    },
                    9 => Value::Bytes(
                        format!("\u{0}\u{ff}{k:x}")
                            .repeat(1 + k as usize % 3)
                            .into_bytes(),
                    ),
                    10 => match k % 2 {
                        0 => Value::Bool(k % 4 == 0),
                        _ => Value::Numeric(k as i128 * -1_000_000_007),
                    },
                    _ => match k % 3 {
                        0 => Value::Array(vec![Value::Int64(k as i64), Value::Null]),
                        1 => Value::Struct(vec![Value::String(format!("{k}"))]),
                        _ => Value::Int64(k as i64),
                    },
                };
                let rows = [len, len, len, len, len, 0, 1][shape];
                let row = |i: u64| match shape {
                    _ if nulls && mix(i) % 4 == 0 => Value::Null,
                    0 => cell(3),
                    2 => cell(i / 5),
                    3 => cell(mix(i) % 4),
                    4 => cell(mix(i) % 1000),
                    _ => cell(i),
                };
                (0..rows).map(row).collect()
            })
        }

        /// The keyed pass the one-walk profile replaced: each row's key
        /// compared with the row before's, each valued row's with the
        /// ends found so far, all built again from the rows.
        struct KeyedProfiler;

        impl KeyedRows for KeyedProfiler {
            type Out = Profile;

            fn fold_keys<K: Ord + Hash>(
                self,
                n: usize,
                key: impl Fn(usize) -> Option<K>,
            ) -> Profile {
                let (mut runs, mut nulls, mut lo, mut hi) = (Vec::new(), 0, None, None);
                let mut ascending = true;
                for i in 0..n {
                    let k = key(i);
                    let step = (i > 0).then(|| k.cmp(&key(i - 1)));
                    if step != Some(std::cmp::Ordering::Equal) {
                        runs.push(i);
                        ascending &= step != Some(std::cmp::Ordering::Less);
                    }
                    if k.is_none() {
                        nulls += 1;
                        continue;
                    }
                    lo = Some(lo.filter(|&lo| k >= key(lo)).unwrap_or(i));
                    hi = Some(hi.filter(|&hi| k <= key(hi)).unwrap_or(i));
                }
                let (plain, ints, sum, float_sum) = (0, None, None, None);
                Profile {
                    nulls,
                    ends: lo.zip(hi),
                    runs,
                    ascending,
                    plain,
                    ints,
                    sum,
                    float_sum,
                }
            }
        }

        /// The profile as [`KeyedProfiler`] and a walk per size made it,
        /// with the index sum the block builder took in a walk of its own.
        fn reference_profile(col: &ColumnVec) -> Profile {
            let mut p = keyed(col, || KeyedProfiler);
            let (n, m) = (col.len(), col.len() - p.nulls);
            p.plain = match col {
                ColumnVec::I64(kind, ints) => {
                    let ints = non_null(ints);
                    let len = |&v: &i64| match kind {
                        IntKind::Timestamp => uvarint_len(v as u64),
                        _ => ivarint_len(v),
                    };
                    let steps = ints.windows(2).map(|w| w[1] as i128 - w[0] as i128);
                    let frames = (frame_of(ints.iter().map(|&v| v as i128)), frame_of(steps));
                    p.ints = ints.first().map(|&first| (first, frames.0, frames.1));
                    let sum = ints.iter().map(|&v| v as i128).sum();
                    p.sum = (*kind == IntKind::Int64).then_some(sum);
                    n + ints.iter().map(len).sum::<usize>()
                }
                ColumnVec::Str(_, s) => {
                    let valued = (0..n).filter(|&i| !null_at(&s.nulls, i));
                    let lens = valued.map(|i| uvarint_len(s.get(i).len() as u64));
                    n + s.bytes.len() + lens.sum::<usize>()
                }
                ColumnVec::F64(floats) => {
                    let mut sum = ExactSum::default();
                    non_null(floats).iter().for_each(|&v| sum.add(v));
                    p.float_sum = sum.to_scaled();
                    n + 8 * m
                }
                ColumnVec::I128(_) => n + 16 * m,
                ColumnVec::Bool(_) => n + m,
                untyped => encode_plain(untyped).len(),
            };
            p
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            /// The one walk of a zone profiles it as the keyed pass, a walk
            /// per size and the builder's own sum did: Int64, Date and
            /// Timestamp cells (at their extremes too), floats with NaN and
            /// -0.0, strings, the rest — in every shape, with and without
            /// NULLs, and mixed cells in runs.
            #[test]
            fn the_one_pass_profile_is_the_keyed_one(
                (shaped, mixed) in (shaped_column_strategy(), column_strategy()),
            ) {
                for vals in [shaped, mixed] {
                    let col = leaf(&vals);
                    prop_assert_eq!(profile(&col), reference_profile(&col), "{:?}", vals);
                }
            }

            /// The sizers are the encoders' lengths: what the profile says
            /// a Plain, an IntPack of either form, an RleV2 or a DictV2
            /// chunk takes is what the chunk takes, a form it says does
            /// not apply is one that errors, and the chooser that sizes
            /// first returns the encoding and the bytes of the one that
            /// encoded everything.
            #[test]
            fn the_sizers_are_the_encoders_lengths(vals in shaped_column_strategy()) {
                let col = leaf(&vals);
                let (p, n) = (profile(&col), col.len());
                let len_of = |enc| encode_column_with(&col, enc).ok().map(|b| b.len());
                prop_assert_eq!(Some(p.plain), len_of(Encoding::Plain));
                prop_assert_eq!(p.nulls, vals.iter().filter(|v| v.is_null()).count());
                let forms = intpack_forms(n, &p);
                for (form, delta) in forms.iter().zip([false, true]) {
                    let made = reference_intpack(&col, delta);
                    prop_assert_eq!(form.map(|f| f.0), made.map(|b| b.len()), "delta: {}", delta);
                }
                let applies = forms.iter().any(Option::is_some);
                prop_assert_eq!(applies, encode_column_with(&col, Encoding::IntPack).is_ok());
                if n > 0 {
                    prop_assert_eq!(&p.runs, &reference_runs(&col));
                    let rle = rle_len(n, &p.runs, &section(&col, &p.runs));
                    prop_assert_eq!(Some(rle), len_of(Encoding::RleV2));
                    let firsts = distinct_rows(&col);
                    let dict = dict_len(n, firsts.len(), &section(&col, &firsts));
                    prop_assert_eq!(Some(dict), len_of(Encoding::DictV2));
                }
                prop_assert_eq!(encode_column(&col), reference_encode_column(&col));
            }
        }

        /// Byte strings over the first 2–5 letters of an alphabet that
        /// has NUL and 0xFF in it (so scores tie and symbols repeat):
        /// mostly shorter than a few symbols, now and then long enough
        /// to run the sample past its budget; some rows NULL.
        fn fsst_column_strategy() -> impl Strategy<Value = Vec<Option<Vec<u8>>>> {
            let cell = (0usize..14, any::<u64>());
            (2u64..6, proptest::collection::vec(cell, 0..120)).prop_map(|(width, cells)| {
                let alphabet = [0u8, b'a', 0xFF, b'b', b'z'];
                let value = |(class, seed): (usize, u64)| {
                    let len = match class {
                        0 => return None,
                        13 => 500 + (seed % 1200) as usize,
                        short => short * (1 + (seed % 4) as usize) - 1,
                    };
                    let letter = |k| alphabet[(seed.rotate_left(k as u32 * 7) % width) as usize];
                    Some((0..len).map(letter).collect())
                };
                cells.into_iter().map(value).collect()
            })
        }

        proptest! {
            /// A built column says of its cells what the cells' values
            /// say: `to_values`, the clustering order — within the column
            /// and against one of another type — and the bloom / dictionary
            /// key; and a decoded chunk flattens to the column its rows
            /// would build.
            #[test]
            fn built_column_agrees_with_its_values(
                vals in column_strategy(),
                others in column_strategy(),
                pick in any::<u64>(),
            ) {
                let (col, other) = (leaf(&vals), leaf(&others));
                prop_assert!(!matches!(col, ColumnVec::Dict { .. } | ColumnVec::Runs { .. }));
                let back = col.to_values();
                prop_assert_eq!(back.len(), vals.len());
                for (i, v) in vals.iter().enumerate() {
                    prop_assert!(back[i].key_eq(v), "{:?} != {:?}", back[i], v);
                    let mut key = vec![0xAA];
                    col.key_into(i, &mut key);
                    prop_assert_eq!(&key[1..], v.encode_key());
                    let j = (pick as usize).wrapping_mul(i + 1) % vals.len();
                    prop_assert_eq!(col.cmp_rows(i, &col, j), v.total_cmp(&vals[j]));
                    if let Some(w) = others.get(j % others.len().max(1)) {
                        let j = j % others.len();
                        prop_assert_eq!(col.cmp_rows(i, &other, j), v.total_cmp(w));
                    }
                }
                let rows: Vec<usize> =
                    (0..vals.len()).filter(|i| pick >> (i % 64) & 1 == 1).collect();
                let kept: Vec<Value> = rows.iter().map(|&i| vals[i].clone()).collect();
                for enc in ALL_ENCODINGS {
                    if let Ok(bytes) = encode_column_with(&col, enc) {
                        let decoded = decode_chunk(enc, &bytes, vals.len()).unwrap();
                        // (Not `==`: a NaN cell is not equal to itself.)
                        let (flat, want) = (decoded.into_leaf(&rows), leaf(&kept));
                        prop_assert_eq!(std::mem::discriminant(&flat), std::mem::discriminant(&want));
                        assert_key_eq(&flat.to_values(), &kept);
                    }
                }
            }

            /// Rows added a column at a time make the column their cells
            /// make added one by one: a NULL prefix and the first value
            /// that names the type, a second slice of that type, then one
            /// of any type — each vector matched once, the cells of a
            /// type it cannot hold added by value and counted.
            #[test]
            fn typed_slices_add_as_their_cells(
                first in shaped_column_strategy(),
                then in shaped_column_strategy(),
                pick in any::<u64>(),
            ) {
                let by_value = || vortex_common::obs::global().counter("ros.cells_by_value").get();
                let (mut typed, mut cells) = (ColumnBuilder::default(), ColumnBuilder::default());
                let (mut counted, mut untyped) = (0, 0);
                for (vals, turn) in [(&first, 0), (&first, 17), (&then, 33)] {
                    let src = leaf(vals);
                    let rows: Vec<usize> =
                        (0..vals.len()).filter(|&i| pick.rotate_left((i + turn) as u32) & 1 == 1).collect();
                    let before = by_value();
                    typed.add_rows(&src, rows.iter().copied());
                    counted += by_value() - before;
                    rows.iter().for_each(|&i| cells.add_value(vals[i].clone()));
                    if let ColumnVec::Any(_) = src {
                        untyped += rows.iter().filter(|&&i| !vals[i].is_null()).count() as u64;
                    }
                }
                let (got, want) = (typed.into_column(), cells.into_column());
                prop_assert_eq!(std::mem::discriminant(&got), std::mem::discriminant(&want));
                assert_key_eq(&got.to_values(), &want.to_values());
                // Every cell of an `Any` vector but a NULL went by value
                // (other tests add to the count too, never take from it).
                prop_assert!(counted >= untyped, "{} < {}", counted, untyped);
            }

            /// The table-driven FSST encoder writes the chunk the
            /// slice-keyed one wrote, and it reads back.
            #[test]
            fn fsst_matches_the_reference(values in fsst_column_strategy()) {
                assert_fsst_matches_reference(&values);
            }
        }

        /// Every `Value` variant, weighted toward repetition (so dict/rle
        /// candidates arise) and toward the float edge cases the chooser
        /// used to mis-estimate: NaN, -0.0, 0.0.
        fn value_strategy() -> BoxedStrategy<Value> {
            prop_oneof![
                Just(Value::Null),
                any::<bool>().prop_map(Value::Bool),
                (-4i64..4).prop_map(Value::Int64),
                any::<i64>().prop_map(Value::Int64),
                Just(Value::Float64(f64::NAN)),
                Just(Value::Float64(-0.0)),
                Just(Value::Float64(0.0)),
                (-400i64..400).prop_map(|i| Value::Float64(i as f64 / 100.0)),
                any::<f64>().prop_map(Value::Float64),
                "[a-c]{0,3}".prop_map(Value::String),
                proptest::collection::vec(any::<u8>(), 0..6).prop_map(Value::Bytes),
                (0u64..5000).prop_map(|t| Value::Timestamp(
                    vortex_common::truetime::Timestamp::from_micros(t)
                )),
                (-40i32..40).prop_map(Value::Date),
                any::<i64>().prop_map(|n| Value::Numeric(n as i128)),
                "[a-z]{0,4}".prop_map(|s| Value::Json(format!("\"{s}\""))),
                proptest::collection::vec((-3i64..3).prop_map(Value::Int64), 0..3)
                    .prop_map(Value::Struct),
                proptest::collection::vec((-3i64..3).prop_map(Value::Int64), 0..3)
                    .prop_map(Value::Array),
            ]
            .boxed()
        }

        /// Columns biased toward runs: repeat each drawn value 1..8 times.
        pub(crate) fn column_strategy() -> impl Strategy<Value = Vec<Value>> {
            proptest::collection::vec((value_strategy(), 1usize..8), 0..40).prop_map(|pairs| {
                pairs
                    .into_iter()
                    .flat_map(|(v, n)| std::iter::repeat(v).take(n))
                    .collect()
            })
        }

        /// One column per family of leaf the chooser tells apart — integers
        /// (Int64 / Date / Timestamp), floats (decimals, and the NaN, -0.0
        /// and irrationals Alp patches), strings (String / Json / Bytes,
        /// long enough for a symbol table), the rest (Bool, Numeric,
        /// nested, mixed), decimals alone (an Alp chunk without patches),
        /// and strings long enough for a two-byte length prefix of codes —
        /// in runs, under one null pattern: none, some, all (the long
        /// strings have some NULLs under none too).
        fn family_columns_strategy() -> impl Strategy<Value = Vec<Vec<Value>>> {
            let cells = proptest::collection::vec((any::<u64>(), 1usize..6), 4..40);
            (0u64..3, 0u64..3, cells).prop_map(|(nulls, kind, cells)| {
                let cell = |family: u64, r: u64| match (family, kind, r % 7) {
                    (0, 0, 0) => Value::Int64(r as i64),
                    (0, 0, _) => Value::Int64((r % 2000) as i64 - 1000),
                    (0, 1, _) => Value::Date((r % 4000) as i32 - 2000),
                    (0, _, _) => Value::Timestamp(Timestamp::from_micros(r % 100_000)),
                    (1, _, 0) => {
                        Value::Float64([f64::NAN, -0.0, std::f64::consts::PI][kind as usize])
                    }
                    (1 | 4, _, _) => Value::Float64((r % 100_000) as f64 / 100.0),
                    (2, 0, _) => Value::String(format!("cust-{:05} é", r % 300)),
                    (2, 1, _) => Value::Json(format!(r#"{{"region":"us","n":{}}}"#, r % 300)),
                    (2, _, _) => Value::Bytes(format!("\u{0}\u{ff}{:x}", r % 1000).into_bytes()),
                    (5, _, _) => Value::String(
                        (0..24)
                            .map(|k| {
                                format!("{:016x}", (r ^ k).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                            })
                            .collect(),
                    ),
                    (_, 0, _) => Value::Bool(r % 2 == 0),
                    (_, 1, _) => Value::Numeric(r as i128 - (1 << 40)),
                    (_, _, 0) => Value::Array(vec![Value::Int64(r as i64 % 3)]),
                    (_, _, _) => Value::String(format!("{}", r % 5)),
                };
                let column = |family: u64| {
                    let run = |&(r, n): &(u64, usize)| {
                        let some = nulls == 1 || family == 5;
                        let null = nulls == 2 || (some && r % 4 == 0);
                        let v = if null {
                            Value::Null
                        } else {
                            cell(family, r >> 8)
                        };
                        std::iter::repeat(v).take(n)
                    };
                    cells.iter().flat_map(run).collect()
                };
                (0..6).map(column).collect()
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Positional ≡ whole-then-pick: for every encoding that takes
            /// the column — both forms of IntPack — and any ascending
            /// subset of its rows (none, the first, the last, every row,
            /// a random one), `decode_chunk_at` holds, cell for cell, what
            /// `decode_chunk(..).into_leaf(rows)` holds, as a leaf.
            fn positional_cases(
                columns in family_columns_strategy(),
                subset in 0usize..8,
                pick in any::<u64>(),
            ) {
                for vals in columns {
                    let (col, n) = (leaf(&vals), vals.len());
                    let rows: Vec<usize> = match subset {
                        0 => vec![],
                        1 => vec![0],
                        2 => vec![n - 1],
                        3 => (0..n).collect(),
                        _ => (0..n).filter(|i| pick.rotate_left(*i as u32 * 5) & 3 == 0).collect(),
                    };
                    let mut chunks: Vec<(Encoding, Vec<u8>)> = (ALL_ENCODINGS.into_iter())
                        .filter_map(|enc| Some((enc, encode_column_with(&col, enc).ok()?)))
                        .collect();
                    if let ColumnVec::I64(..) = &col {
                        let forms = [false, true].map(|d| reference_intpack(&col, d));
                        chunks.extend(forms.into_iter().flatten().map(|b| (Encoding::IntPack, b)));
                    }
                    for (enc, bytes) in chunks {
                        let want = decode_chunk(enc, &bytes, n).unwrap().into_leaf(&rows);
                        let got = decode_chunk_at(enc, &bytes, n, Some(&rows)).unwrap();
                        prop_assert!(
                            !matches!(got, ColumnVec::Dict { .. } | ColumnVec::Runs { .. }),
                            "{:?} is no leaf", enc
                        );
                        prop_assert_eq!(got.len(), rows.len());
                        assert_key_eq(&got.to_values(), &want.to_values());
                        APPLIED.with(|a| a.borrow_mut()[enc.to_u8() as usize] += 1);
                        if enc == Encoding::Alp {
                            let patched = alp_patches(&bytes, n) > 0;
                            ALP_PATCHED.with(|a| a.borrow_mut()[patched as usize] += 1);
                        }
                        if enc == Encoding::Fsst {
                            let (nulled, long) = fsst_shape(&bytes, n);
                            FSST_SHAPES.with(|s| {
                                let mut s = s.borrow_mut();
                                s[0] += nulled as usize;
                                s[1] += long as usize;
                            });
                        }
                    }
                }
            }
        }

        thread_local! {
            /// Chunks `positional_cases` compared on this thread, by
            /// encoding.
            static APPLIED: std::cell::RefCell<[usize; 8]> = const { std::cell::RefCell::new([0; 8]) };
            /// Alp chunks it compared without patches, and with.
            static ALP_PATCHED: std::cell::RefCell<[usize; 2]> = const { std::cell::RefCell::new([0; 2]) };
            /// Fsst chunks it compared with NULLs, and with a value whose
            /// codes take a two-byte length prefix.
            static FSST_SHAPES: std::cell::RefCell<[usize; 2]> = const { std::cell::RefCell::new([0; 2]) };
        }

        /// The patches an Alp chunk of `count` rows declares.
        fn alp_patches(bytes: &[u8], count: usize) -> usize {
            let pos = &mut 0;
            read_nulls(bytes, pos, count, FLAG_NULLS).unwrap();
            take_byte(bytes, pos).unwrap();
            get_uvarint(bytes, pos).unwrap() as usize
        }

        /// Of an Fsst chunk of `count` rows: whether it has NULLs, and
        /// whether a value's length prefix takes two bytes or more.
        fn fsst_shape(bytes: &[u8], count: usize) -> (bool, bool) {
            let pos = &mut 1;
            let (_, _, m) = read_nulls(bytes, pos, count, FLAG_NULLS).unwrap();
            FsstSymbols::parse(bytes, pos).unwrap();
            let mut long = false;
            for _ in 0..m {
                long |= bytes[*pos] >= 0x80;
                fsst_codes(bytes, pos).unwrap();
            }
            (m < count, long)
        }

        /// The property, over at least 256 chunks of every encoding; of
        /// Alp both without patches (read at the selection when it has no
        /// NULLs either) and with; of Fsst both with NULLs and with a
        /// two-byte length prefix.
        #[test]
        fn positional_decode_equals_whole_then_pick() {
            positional_cases();
            let applied = APPLIED.with(|a| *a.borrow());
            for enc in ALL_ENCODINGS {
                let n = applied[enc.to_u8() as usize];
                assert!(n >= 256, "{enc:?} compared {n} times: {applied:?}");
            }
            let [plain, patched] = ALP_PATCHED.with(|a| *a.borrow());
            assert!(
                plain >= 256 && patched >= 256,
                "Alp: {plain} unpatched, {patched} patched"
            );
            let [nulled, long] = FSST_SHAPES.with(|s| *s.borrow());
            assert!(
                nulled >= 256 && long >= 256,
                "Fsst: {nulled} with NULLs, {long} with a two-byte prefix"
            );
        }

        proptest! {
            /// The chooser's pick always roundtrips `key_eq`-identically
            /// (bit-exact floats), for any mix of variants.
            #[test]
            fn chosen_encoding_roundtrips(vals in column_strategy()) {
                let (enc, bytes) = encode_column(&leaf(&vals));
                let back = decode_column(enc, &bytes, vals.len()).unwrap();
                prop_assert_eq!(back.len(), vals.len());
                for (g, w) in back.iter().zip(&vals) {
                    prop_assert!(g.key_eq(w), "{:?} != {:?} under {:?}", g, w, enc);
                }
            }

            /// Every encoding that accepts the column roundtrips it, and
            /// its vector agrees with itself: `gather`, `resolve`,
            /// `value`, `is_null` and `cmp_at` all describe the rows
            /// `to_values` lists.
            #[test]
            fn applicable_encodings_roundtrip(vals in column_strategy(), pick in any::<u64>()) {
                for enc in ALL_ENCODINGS {
                    if let Ok(bytes) = encode_column_with(&leaf(&vals), enc) {
                        let col = decode_chunk(enc, &bytes, vals.len()).unwrap();
                        prop_assert_eq!(col.len(), vals.len());
                        let back = col.to_values();
                        for (g, w) in back.iter().zip(&vals) {
                            prop_assert!(g.key_eq(w), "{:?} != {:?} under {:?}", g, w, enc);
                        }
                        let rows: Vec<usize> =
                            (0..vals.len()).filter(|i| pick >> (i % 64) & 1 == 1).collect();
                        let mut got = Vec::new();
                        col.gather(rows.iter().copied(), |k, v| {
                            assert_eq!(k, got.len());
                            got.push(v)
                        });
                        let mut buf = Vec::new();
                        let (leaf, at) = col.resolve(&rows, &mut buf);
                        prop_assert_eq!(at.len(), rows.len());
                        for (k, &i) in rows.iter().enumerate() {
                            prop_assert!(got[k].key_eq(&vals[i]), "gather row {} under {:?}", i, enc);
                            prop_assert!(leaf.value(at[k]).key_eq(&vals[i]), "resolve row {}", i);
                            prop_assert!(col.value(i).key_eq(&vals[i]), "value row {}", i);
                            prop_assert_eq!(col.is_null(i), vals[i].is_null());
                            if !vals[i].is_null() {
                                let other = &vals[(i + 1) % vals.len()];
                                prop_assert_eq!(
                                    leaf.cmp_at(at[k], other),
                                    vals[i].total_cmp(other)
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// `cmp_at` of a String, Json or Bytes leaf is `value(i).total_cmp`:
    /// byte order against a literal of its own kind — multi-byte UTF-8,
    /// the empty string, prefix pairs — and type rank against any other.
    #[test]
    fn cmp_at_orders_every_string_kind_as_its_values() {
        let texts = [
            "", "a", "ab", "abc", "b", "é", "é€", "e\u{301}", "😀", "\u{7f}", "z",
        ];
        let kinds: [fn(&str) -> Value; 3] = [
            |s| Value::String(s.into()),
            |s| Value::Json(s.into()),
            |s| Value::Bytes(s.as_bytes().to_vec()),
        ];
        let others = [
            Value::Null,
            Value::Bool(true),
            Value::Int64(3),
            Value::Float64(1.5),
            Value::Numeric(7),
            Value::Date(1),
        ];
        for make in kinds {
            let mut vals: Vec<Value> = texts.iter().map(|s| make(s)).collect();
            vals.insert(3, Value::Null);
            let col = leaf(&vals);
            assert!(matches!(
                col,
                ColumnVec::Str(_, Strs { nulls: Some(_), .. })
            ));
            let literals = kinds.iter().flat_map(|k| texts.map(k));
            for lit in literals.chain(others.iter().cloned()) {
                for (i, v) in vals.iter().enumerate().filter(|(_, v)| !v.is_null()) {
                    assert_eq!(
                        col.cmp_at(i, &lit),
                        v.total_cmp(&lit),
                        "{v:?} against {lit:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_bits_roundtrip() {
        for width in [0u8, 1, 3, 7, 8, 13, 31, 33, 64] {
            let vals: Vec<u64> = (0..67)
                .map(|i| {
                    if width == 64 {
                        u64::MAX - i
                    } else {
                        (i * 31) % (1u64 << width).max(1)
                    }
                })
                .collect();
            let mut buf = Vec::new();
            pack_bits(&mut buf, vals.iter().copied(), width);
            let mut pos = 0;
            let mut bits = BitReader::new(&buf, &mut pos, vals.len(), width).unwrap();
            assert_eq!(pos, buf.len());
            let back: Vec<u64> = vals.iter().map(|_| bits.next_value()).collect();
            assert_eq!(back, vals, "width {width}");
            // One byte short is caught up front, not while reading.
            assert!(width == 0 || BitReader::new(&buf, &mut 1, vals.len(), width).is_err());
        }
    }

    // ---- The stored-form fold, held to decode-then-fold -----------------

    /// What SUM folds of the floats a sink takes: how many have a value,
    /// and `float` plus each in row order.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub(crate) struct Sum {
        pub(crate) n: u64,
        pub(crate) float: f64,
    }

    impl Sink<f64> for Sum {
        fn cells(&mut self, cells: impl Iterator<Item = Option<f64>>) {
            for v in cells.flatten() {
                (self.n, self.float) = (self.n + 1, self.float + v);
            }
        }
    }

    /// What SUM folds of the leaf a chunk decodes to, onto `float` — the
    /// oracle of [`fold_chunk`] — if it is a `Float64` one.
    fn decode_then_fold(
        enc: Encoding,
        bytes: &[u8],
        count: usize,
        float: f64,
    ) -> VortexResult<Option<Sum>> {
        let mut sum = Sum {
            float,
            ..Sum::default()
        };
        let ColumnVec::F64(p) = decode_chunk(enc, bytes, count)? else {
            return Ok(None);
        };
        sum.n = (0..count).filter(|&i| !null_at(&p.nulls, i)).count() as u64;
        for i in (0..count).filter(|&i| !null_at(&p.nulls, i)) {
            sum.float += p.values[i];
        }
        Ok(Some(sum))
    }

    /// The chunks of `col` the fold is offered: IntPack without deltas and
    /// with them, where each applies, which it declines, and Alp.
    fn fold_chunks(col: &ColumnVec) -> Vec<(Encoding, Vec<u8>)> {
        let ints = [false, true].map(|delta| reference_intpack(col, delta));
        let ints = ints.into_iter().flatten().map(|b| (Encoding::IntPack, b));
        ints.chain(try_encode_alp(col).map(|b| (Encoding::Alp, b)))
            .collect()
    }

    /// Cells of the shapes the fold is offered: the integers of every
    /// IntPack frame, which it declines — small integers, a constant
    /// (width 0), both extremes (width 64, and width 64 deltas when they
    /// alternate), frames at `i64::MAX` and at `i32::MAX` for dates whose
    /// top overflows, arithmetic (deltas), timestamps, a frame at
    /// `i64::MIN` — and the decimals it walks differently: plain, and with
    /// NaN, -0.0 and irrationals (patches).
    fn fold_cells(shape: u8, r: u64, i: usize) -> Value {
        let tiny = (r % 5) as i64;
        match shape {
            0 => Value::Int64((r % 2000) as i64 - 1000),
            1 => Value::Int64(-77),
            2 => Value::Int64([i64::MIN, i64::MAX][r as usize % 2]),
            3 => Value::Int64([0, i64::MAX][i % 2]),
            4 => Value::Int64(i64::MAX - tiny),
            5 => Value::Date(i32::MAX - tiny as i32),
            6 => Value::Int64(1_000 + 7 * i as i64),
            7 => Value::Timestamp(vortex_common::truetime::Timestamp::from_micros(r % 90_000)),
            8 => Value::Float64((r % 100_000) as f64 / 100.0),
            9 => Value::Int64(i64::MIN + tiny + 7 * (i as i64 % 2)),
            _ => Value::Float64(match r % 9 {
                0 => f64::NAN,
                1 => -0.0,
                2 => std::f64::consts::PI,
                3 => 1e300,
                _ => (r % 100_000) as f64 / 100.0,
            }),
        }
    }

    /// Of every shape, with no NULL, some or all: the stored-form fold
    /// allocates nothing, not for a bitmap, a patch list or a value.
    #[test]
    fn the_stored_form_fold_allocates_nothing() {
        let mut walked = 0;
        for shape in 0..11 {
            for nulls in [0, 3, 1] {
                let cell = |i: usize| match nulls != 0 && i % nulls == 0 {
                    true => Value::Null,
                    false => fold_cells(shape, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15), i),
                };
                let col = leaf(&(0..300).map(cell).collect::<Vec<_>>());
                for (enc, bytes) in fold_chunks(&col) {
                    let mut sum = Sum::default();
                    let (folded, _, requests) = tallied(|| fold_chunk(enc, &bytes, 300, &mut sum));
                    assert_eq!(folded.unwrap(), enc == Encoding::Alp, "shape {shape}");
                    assert_eq!(requests, 0, "shape {shape}, {enc:?}, NULLs every {nulls}");
                    walked += 1;
                }
            }
        }
        assert!(walked >= 30, "{walked} chunks");
    }

    /// Only a chunk that holds one key answers from its zone map: a
    /// constant in every encoding that can hold it but Plain, which may
    /// be an `Any` leaf; never `Int64(2^53)` beside the `Float64` it
    /// equals, which tie in their order but are two keys, in any
    /// encoding.
    #[test]
    fn only_a_chunk_of_one_key_is_answered_by_its_zone_map() {
        let big = 1i64 << 53;
        let constant = leaf(&vec![Value::Int64(big); 40]);
        let ties: Vec<Value> = (0..40)
            .map(|i| [Value::Int64(big), Value::Float64(big as f64)][i % 2].clone())
            .collect();
        for enc in [
            Encoding::IntPack,
            Encoding::DictV2,
            Encoding::RleV2,
            Encoding::Plain,
        ] {
            let bytes = encode_column_with(&constant, enc).unwrap();
            assert_eq!(
                holds_one_key(enc, Some(&bytes)),
                enc != Encoding::Plain,
                "{enc:?}"
            );
        }
        for enc in [Encoding::Plain, Encoding::DictV2, Encoding::RleV2] {
            let bytes = encode_column_with(&leaf(&ties), enc).unwrap();
            assert!(!holds_one_key(enc, Some(&bytes)), "{enc:?}");
        }
    }

    /// A frame whose top is past its kind's range is checked value by
    /// value: a packed value the frame can hold but `i64` (or a date)
    /// cannot is refused.
    #[test]
    fn a_value_past_the_range_of_its_kind_is_refused() {
        let extremes = [(i64::MAX, IntKind::Int64), (i32::MAX as i64, IntKind::Date)];
        for (top, kind) in extremes {
            let values = (0..5).map(|k| top - k).collect();
            let col = ColumnVec::I64(
                kind,
                Prim {
                    values,
                    nulls: None,
                },
            );
            let mut bytes = reference_intpack(&col, false).unwrap();
            assert!(decode_chunk(Encoding::IntPack, &bytes, 5).is_ok());
            // Width 3 from `top - 4`: the first value, packed as 7.
            let at = bytes.len() - 2;
            bytes[at] |= 0b111;
            assert!(
                decode_chunk(Encoding::IntPack, &bytes, 5).is_err(),
                "{kind:?}"
            );
        }
    }

    mod fold_properties {
        use super::*;
        use proptest::prelude::*;

        /// `fold_chunk` agrees with decode-then-fold on `bytes`: both
        /// fail, or both fold the same count and float bits — or the fold
        /// declines a chunk that decodes to no `Float64` leaf, or does not
        /// decode.
        fn agrees(enc: Encoding, bytes: &[u8], count: usize, float: f64) {
            let mut got = Sum {
                float,
                ..Sum::default()
            };
            let folded = fold_chunk(enc, bytes, count, &mut got);
            match (folded, decode_then_fold(enc, bytes, count, float)) {
                (Ok(true), Ok(Some(want))) => {
                    prop_assert_eq!(got.n, want.n);
                    prop_assert_eq!(got.float.to_bits(), want.float.to_bits());
                }
                (Ok(false), Ok(None) | Err(_)) | (Err(_), Err(_)) => {}
                (got, want) => panic!("{enc:?}: fold {got:?}, decode {want:?}"),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The stored-form fold is decode-then-fold, bit for bit, over
            /// Alp with patches, NaN, -0.0 and NULLs, onto a float sum
            /// already under way, and declines every IntPack chunk; and
            /// over every such chunk cut short or with a bit flipped, it
            /// accepts and rejects what decode does, without panicking.
            #[test]
            fn the_stored_form_fold_is_decode_then_fold(
                shape in 0u8..11,
                cells in proptest::collection::vec((any::<u64>(), 0u8..8), 0..200),
                nulls in 0u8..3,
                float in prop_oneof![Just(0.0), Just(-0.0), Just(1e16), any::<f64>()],
                (cut, flip) in (any::<usize>(), any::<usize>()),
            ) {
                let cell = |(i, &(r, p)): (usize, &(u64, u8))| match (nulls, p) {
                    (1, 0) | (2, _) => Value::Null,
                    _ => fold_cells(shape, r, i),
                };
                let values: Vec<Value> = cells.iter().enumerate().map(cell).collect();
                // What the cells themselves sum to.
                let mut want = Sum { float, ..Sum::default() };
                for v in &values {
                    if let Value::Float64(f) = v {
                        (want.n, want.float) = (want.n + 1, want.float + f);
                    }
                }
                let (col, count) = (leaf(&values), cells.len());
                for (enc, bytes) in fold_chunks(&col) {
                    agrees(enc, &bytes, count, float);
                    let mut sum = Sum { float, ..Sum::default() };
                    let folded = fold_chunk(enc, &bytes, count, &mut sum);
                    prop_assert_eq!(folded.ok(), Some(enc == Encoding::Alp));
                    if enc == Encoding::Alp {
                        prop_assert_eq!(sum.n, want.n);
                        prop_assert_eq!(sum.float.to_bits(), want.float.to_bits());
                    }
                    agrees(enc, &bytes[..cut % (bytes.len() + 1)], count, float);
                    let mut flipped = bytes.clone();
                    if !flipped.is_empty() {
                        let bit = flip % (8 * flipped.len());
                        flipped[bit / 8] ^= 1 << (bit % 8);
                    }
                    agrees(enc, &flipped, count, float);
                }
            }
        }
    }
    mod coded_properties {
        use super::*;
        use proptest::prelude::*;

        /// Strings a table must code whole or in part: shared prefixes,
        /// empty values, multi-byte UTF-8, bytes no symbol holds, values
        /// of more than 127 code bytes, NULLs — in runs.
        fn cells() -> impl Strategy<Value = Vec<Option<String>>> {
            let cell = prop_oneof![
                4 => (0u64..40).prop_map(|r| Some(format!("cust-{r:05}"))),
                1 => Just(Some(String::new())),
                1 => "[a-c\u{0}\u{7f}é€😀]{0,12}".prop_map(Some),
                1 => any::<u64>().prop_map(|r| {
                    Some((0..24).map(|k| format!("{:016x}|", r.rotate_left(k))).collect())
                }),
                1 => Just(None),
            ];
            let runs = proptest::collection::vec((cell, 1usize..4), 8..60);
            runs.prop_map(|runs| {
                let cells = runs
                    .into_iter()
                    .flat_map(|(c, n)| std::iter::repeat(c).take(n));
                cells.collect()
            })
        }

        /// A cell of `kind` holding `s`.
        fn cell(kind: u8, s: &str) -> Value {
            match kind {
                0 => Value::String(s.into()),
                1 => Value::Json(s.into()),
                _ => Value::Bytes([s.as_bytes(), b"\xff"].concat()),
            }
        }

        /// The RleV2 chunk of `values` whose run values are the Fsst chunk
        /// of its runs' cells, if there are enough of them for a table.
        fn rle_of_fsst(values: &[Value]) -> Option<Vec<u8>> {
            let mut runs: Vec<(Value, u64)> = Vec::new();
            for v in values {
                match runs.last_mut() {
                    Some((last, n)) if last.key_eq(v) => *n += 1,
                    _ => runs.push((v.clone(), 1)),
                }
            }
            let heads: Vec<Value> = runs.iter().map(|(v, _)| v.clone()).collect();
            let section = try_encode_fsst(&leaf(&heads), usize::MAX, None)?;
            let mut out = Vec::new();
            put_uvarint(&mut out, runs.len() as u64);
            runs.iter().for_each(|&(_, n)| put_uvarint(&mut out, n));
            push_section(&mut out, &(Encoding::Fsst, section));
            Some(out)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The table rebuilt from a chunk's stored symbols encodes every
            /// stored value to exactly its stored codes — its own table or
            /// one trained on a sample of the rows, which the others' bytes
            /// escape from — so codes are equal iff values are; and
            /// `retain_coded` keeps, of any selection, the rows
            /// decode-then-compare keeps under `=`, `<>` and `IN`, of an
            /// Fsst chunk and of an RleV2 chunk of Fsst run values, for
            /// literals of the cells' kind, of another kind and NULL, whether
            /// the matcher it shares is its table's or another's — and a
            /// chunk cut short or with a bit flipped does not panic.
            #[test]
            fn stored_symbols_rebuild_the_encoder(
                cells in cells(),
                kind in 0u8..3,
                probes in proptest::collection::vec((any::<usize>(), 0u8..4), 0..3),
                equal in any::<bool>(),
                pick in any::<u64>(),
            ) {
                let values: Vec<Value> = (cells.iter())
                    .map(|c| c.as_deref().map_or(Value::Null, |s| cell(kind, s)))
                    .collect();
                let (col, n) = (leaf(&values), values.len());
                let ColumnVec::Str(_, strs) = &col else {
                    return; // every cell NULL
                };
                let sample: Vec<u32> = (0..n as u32).step_by(3).collect();
                let shared = BlockTable::of(&col, &sample).unwrap();
                let chunks = [None, Some(&shared)].map(|t| try_encode_fsst(&col, usize::MAX, t));
                for bytes in chunks.iter().flatten() {
                    let pos = &mut 1; // past the type tag
                    let (_, nulls, m) = read_nulls(bytes, pos, n, FLAG_NULLS).unwrap();
                    let table = fsst_table(bytes, pos).unwrap();
                    let matcher = FsstTable::matching(stored_symbols(table).collect());
                    let valued = (0..n).filter(|&i| !null_bit(nulls, i));
                    prop_assert_eq!(valued.clone().count(), m);
                    for i in valued {
                        let mut codes = Vec::new();
                        matcher.emit_codes(strs.get(i), &mut codes);
                        prop_assert_eq!(&codes[..], fsst_codes(bytes, pos).unwrap());
                    }
                }
                let literals: Vec<Value> = (probes.iter())
                    .map(|(at, how)| match (how, &cells[at % n]) {
                        (0, Some(s)) => cell(kind, s),
                        (0 | 1, _) => cell(kind, "cust-00007 no such"),
                        (2, s) => cell((kind + 1) % 3, s.as_deref().unwrap_or("")),
                        _ => Value::Null,
                    })
                    .collect();
                let sel: Vec<usize> = (0..n).filter(|i| pick.rotate_left(*i as u32) & 3 != 0).collect();
                let is = |v: &Value| literals.iter().any(|l| !l.is_null() && v.total_cmp(l).is_eq());
                let want: Vec<usize> = (sel.iter().copied())
                    .filter(|&i| !values[i].is_null() && is(&values[i]) == equal)
                    .collect();
                let rle = rle_of_fsst(&values);
                // One shared matcher: the first table fills it, the others
                // build their own, and the first, again, finds it.
                let coded = chunks.iter().flatten().map(|b| (Encoding::Fsst, b));
                let coded: Vec<_> = coded.chain(rle.iter().map(|b| (Encoding::RleV2, b))).collect();
                let shared = SharedTable::new();
                for &(enc, bytes) in coded.iter().chain(&coded) {
                    let mut got = sel.clone();
                    let test = (&literals[..], equal);
                    prop_assert!(retain_coded((enc, bytes, n), test, &shared, &mut got).unwrap().is_some());
                    prop_assert_eq!(&got, &want, "{:?}", enc);
                    // Cut short or with a bit flipped, a chunk is refused or
                    // walked, never read past.
                    let mut flipped = bytes.to_vec();
                    flipped[pick as usize % bytes.len()] ^= 1 << (pick % 8);
                    for bad in [&bytes[..pick as usize % bytes.len()], &flipped[..]] {
                        let _ = retain_coded((enc, bad, n), test, &SharedTable::new(), &mut sel.clone());
                    }
                }
                let plain = encode_column_with(&col, Encoding::Plain).unwrap();
                let mut untouched = sel.clone();
                let test = (&literals[..], equal);
                let shared = &SharedTable::new();
                let declined = retain_coded((Encoding::Plain, &plain, n), test, shared, &mut untouched);
                prop_assert!(declined.unwrap().is_none());
                prop_assert_eq!(untouched, sel);
            }
        }
    }
}
