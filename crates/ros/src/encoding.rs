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
//! The chooser ([`encode_column`]) classifies the column in one pass
//! (type homogeneity, run count, capped distinct count — all under the
//! [`Value::key_eq`] equality so the estimate and the encoders agree on
//! NaN / -0.0), then sizes the applicable candidates. Large columns are
//! ranked on a fixed-position sample first (BtrBlocks-style) and only
//! the finalists are fully encoded.
//!
//! Decoding returns a [`DecodedChunk`] that preserves the compressed
//! structure (dictionary codes, run lengths) so the query engine can
//! evaluate predicates on codes and runs without materializing values.
//! Every decode path is bounds-checked: declared lengths are bounded by
//! the *remaining* input before any allocation.

use std::collections::{HashMap, HashSet};

use vortex_common::codec::{
    decode_value, encode_value, get_ivarint, get_uvarint, put_ivarint, put_uvarint,
};
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::row::Value;
use vortex_common::truetime::Timestamp;

/// How a column chunk is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Values stored back to back.
    Plain,
    /// Delta/frame-of-reference + bit-packed integers (Int64/Date/Timestamp).
    IntPack,
    /// ALP-style decimal floats: scaled integers + raw-bits patches.
    Alp,
    /// FSST-style symbol-table compressed strings/bytes.
    Fsst,
    /// Dictionary with a cascaded value section and bit-packed codes.
    DictV2,
    /// Run lengths + a cascaded run-value section.
    RleV2,
}

impl Encoding {
    /// Wire value. 1 and 2 were the v1 dictionary / run-length formats,
    /// which nothing writes or reads any more; they stay unassigned.
    pub fn to_u8(self) -> u8 {
        match self {
            Encoding::Plain => 0,
            Encoding::IntPack => 3,
            Encoding::Alp => 4,
            Encoding::Fsst => 5,
            Encoding::DictV2 => 6,
            Encoding::RleV2 => 7,
        }
    }

    /// Parses a wire value.
    pub fn from_u8(v: u8) -> VortexResult<Self> {
        Ok(match v {
            0 => Encoding::Plain,
            3 => Encoding::IntPack,
            4 => Encoding::Alp,
            5 => Encoding::Fsst,
            6 => Encoding::DictV2,
            7 => Encoding::RleV2,
            other => return Err(VortexError::Decode(format!("bad encoding {other}"))),
        })
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

/// Columns longer than this are ranked on a sample before full encoding.
const SAMPLE_THRESHOLD: usize = 1024;
/// Sample shape: `SAMPLE_STRIPES` stripes of `SAMPLE_STRIPE_LEN`
/// consecutive values at fixed positions (consecutive runs matter for
/// RLE/delta, fixed positions keep the chooser deterministic).
const SAMPLE_STRIPES: usize = 8;
const SAMPLE_STRIPE_LEN: usize = 32;

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

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> VortexResult<&'a [u8]> {
    if n > buf.len() - *pos {
        return Err(VortexError::Decode(format!(
            "need {n} bytes at {}, have {}",
            *pos,
            buf.len() - *pos
        )));
    }
    let s = &buf[*pos..*pos + n];
    *pos += n;
    Ok(s)
}

fn take_byte(buf: &[u8], pos: &mut usize) -> VortexResult<u8> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| VortexError::Decode("chunk truncated".into()))?;
    *pos += 1;
    Ok(b)
}

/// Reads a declared element count, rejecting anything that exceeds
/// `limit` (caller-derived: row count, remaining bytes, ...).
fn get_count(buf: &[u8], pos: &mut usize, limit: usize, what: &str) -> VortexResult<usize> {
    let n = get_uvarint(buf, pos)? as usize;
    if n > limit {
        return Err(VortexError::Decode(format!(
            "declared {what} {n} exceeds limit {limit}"
        )));
    }
    Ok(n)
}

// ---------------------------------------------------------------------------
// Bit packing (LSB-first) and null bitmaps.
// ---------------------------------------------------------------------------

/// Bits needed to represent `max` (0 for 0).
fn bits_for(max: u64) -> u8 {
    (64 - max.leading_zeros()) as u8
}

/// Appends `vals` packed at `width` bits each, LSB-first.
fn pack_bits(out: &mut Vec<u8>, vals: &[u64], width: u8) {
    if width == 0 {
        return;
    }
    let mut acc: u128 = 0;
    let mut nbits: u32 = 0;
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

/// Reads `n` values packed at `width` bits each.
fn unpack_bits(buf: &[u8], pos: &mut usize, n: usize, width: u8) -> VortexResult<Vec<u64>> {
    if width > 64 {
        return Err(VortexError::Decode(format!("bit width {width} > 64")));
    }
    if width == 0 {
        return Ok(vec![0u64; n]);
    }
    let nbytes = (n * width as usize).div_ceil(8);
    if nbytes > buf.len() - *pos {
        return Err(VortexError::Decode(format!(
            "packed data needs {nbytes} bytes, have {}",
            buf.len() - *pos
        )));
    }
    let mask: u64 = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let mut out = Vec::with_capacity(n);
    let mut acc: u128 = 0;
    let mut nbits: u32 = 0;
    let mut p = *pos;
    for _ in 0..n {
        while nbits < width as u32 {
            acc |= (buf[p] as u128) << nbits;
            p += 1;
            nbits += 8;
        }
        out.push((acc as u64) & mask);
        acc >>= width;
        nbits -= width as u32;
    }
    *pos += nbytes;
    Ok(out)
}

/// Appends a null bitmap (bit set = null), one bit per value.
fn push_null_bitmap(out: &mut Vec<u8>, values: &[Value]) {
    let start = out.len();
    out.resize(start + values.len().div_ceil(8), 0);
    for (i, v) in values.iter().enumerate() {
        if v.is_null() {
            out[start + i / 8] |= 1 << (i % 8);
        }
    }
}

/// Reads an `n`-bit null bitmap.
fn read_null_bitmap(buf: &[u8], pos: &mut usize, n: usize) -> VortexResult<Vec<bool>> {
    let bytes = take(buf, pos, n.div_ceil(8))?;
    Ok((0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect())
}

// ---------------------------------------------------------------------------
// Chooser
// ---------------------------------------------------------------------------

/// What the classification pass learned about a column.
struct ColumnShape {
    runs: usize,
    /// Distinct count under `encode_key` identity; `None` once it
    /// overflows `MAX_DICT`.
    distinct: Option<HashSet<Vec<u8>>>,
    has_int: bool,
    has_float: bool,
    has_str: bool,
    /// Any value outside the Int/Float/Str families (Bool, Numeric,
    /// Struct, ...). Nulls don't count.
    has_other: bool,
    nulls: usize,
}

fn classify(values: &[Value]) -> ColumnShape {
    let mut shape = ColumnShape {
        runs: if values.is_empty() { 0 } else { 1 },
        distinct: Some(HashSet::new()),
        has_int: false,
        has_float: false,
        has_str: false,
        has_other: false,
        nulls: 0,
    };
    for (i, v) in values.iter().enumerate() {
        if i > 0 && !values[i - 1].key_eq(v) {
            shape.runs += 1;
        }
        match v {
            Value::Null => shape.nulls += 1,
            Value::Int64(_) | Value::Date(_) | Value::Timestamp(_) => shape.has_int = true,
            Value::Float64(_) => shape.has_float = true,
            Value::String(_) | Value::Json(_) | Value::Bytes(_) => shape.has_str = true,
            _ => shape.has_other = true,
        }
        if let Some(d) = shape.distinct.as_mut() {
            d.insert(v.encode_key());
            if d.len() > MAX_DICT {
                shape.distinct = None;
            }
        }
    }
    shape
}

/// Candidate encodings worth sizing for a column of this shape.
fn candidates(shape: &ColumnShape, n: usize) -> Vec<Encoding> {
    let mut c = Vec::new();
    if shape.runs * 2 <= n {
        c.push(Encoding::RleV2);
    }
    if let Some(d) = &shape.distinct {
        if d.len() * 2 <= n {
            c.push(Encoding::DictV2);
        }
    }
    if shape.has_int && !shape.has_float && !shape.has_str && !shape.has_other {
        c.push(Encoding::IntPack);
    }
    if shape.has_float && !shape.has_int && !shape.has_str && !shape.has_other {
        c.push(Encoding::Alp);
    }
    if shape.has_str && !shape.has_int && !shape.has_float && !shape.has_other {
        c.push(Encoding::Fsst);
    }
    c
}

/// Encodes a column, choosing the encoding by classification plus
/// candidate sizing (sampled for long columns, exact for short ones).
/// Plain is always a candidate, so every column encodes.
pub fn encode_column(values: &[Value]) -> (Encoding, Vec<u8>) {
    let n = values.len();
    if n == 0 {
        return (Encoding::Plain, Vec::new());
    }
    let shape = classify(values);
    let mut cands = candidates(&shape, n);
    // BtrBlocks-style: long columns rank candidates on a fixed-position
    // sample and only the top two are fully encoded.
    if n > SAMPLE_THRESHOLD && cands.len() > 2 {
        let sample = sample_stripes(values);
        let mut ranked: Vec<(usize, Encoding)> = cands
            .iter()
            .filter_map(|&e| try_encode_with(&sample, e).map(|b| (b.len(), e)))
            .collect();
        ranked.sort_by_key(|&(len, e)| (len, e.to_u8()));
        cands = ranked.into_iter().take(2).map(|(_, e)| e).collect();
    }
    let mut best = (Encoding::Plain, encode_plain(values));
    for e in cands {
        if let Some(bytes) = try_encode_with(values, e) {
            if bytes.len() < best.1.len() {
                best = (e, bytes);
            }
        }
    }
    best
}

fn sample_stripes(values: &[Value]) -> Vec<Value> {
    let n = values.len();
    let mut sample = Vec::with_capacity(SAMPLE_STRIPES * SAMPLE_STRIPE_LEN);
    for s in 0..SAMPLE_STRIPES {
        let start = s * n / SAMPLE_STRIPES;
        let end = (start + SAMPLE_STRIPE_LEN).min(n);
        sample.extend_from_slice(&values[start..end]);
    }
    sample
}

/// Encodes with a specific encoding (benchmarks and tests). Errors when
/// the encoding doesn't apply to these values (e.g. IntPack on strings).
pub fn encode_column_with(values: &[Value], enc: Encoding) -> VortexResult<Vec<u8>> {
    try_encode_with(values, enc).ok_or_else(|| {
        VortexError::InvalidArgument(format!("{enc:?} does not apply to this column"))
    })
}

fn try_encode_with(values: &[Value], enc: Encoding) -> Option<Vec<u8>> {
    match enc {
        Encoding::Plain => Some(encode_plain(values)),
        Encoding::IntPack => try_encode_intpack(values),
        Encoding::Alp => try_encode_alp(values),
        Encoding::Fsst => try_encode_fsst(values),
        Encoding::DictV2 => try_encode_dict_v2(values),
        Encoding::RleV2 => Some(encode_rle_v2(values)),
    }
}

/// Picks the cheapest leaf encoding for a nested value section
/// (dictionary values, run values).
fn encode_nested(values: &[Value]) -> (Encoding, Vec<u8>) {
    let mut best = (Encoding::Plain, encode_plain(values));
    for e in [Encoding::IntPack, Encoding::Alp, Encoding::Fsst] {
        if let Some(bytes) = try_encode_with(values, e) {
            if bytes.len() < best.1.len() {
                best = (e, bytes);
            }
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Encoders
// ---------------------------------------------------------------------------

fn encode_plain(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::new();
    for v in values {
        encode_value(&mut out, v);
    }
    out
}

/// Maps an int-family value to (type tag, i64 payload).
fn int_payload(v: &Value) -> Option<(u8, i64)> {
    match v {
        Value::Int64(i) => Some((TY_INT64, *i)),
        Value::Date(d) => Some((TY_DATE, *d as i64)),
        Value::Timestamp(t) => Some((TY_TIMESTAMP, t.micros() as i64)),
        _ => None,
    }
}

fn try_encode_intpack(values: &[Value]) -> Option<Vec<u8>> {
    let mut tag: Option<u8> = None;
    let mut ints: Vec<i64> = Vec::with_capacity(values.len());
    let mut has_null = false;
    for v in values {
        if v.is_null() {
            has_null = true;
            continue;
        }
        let (t, i) = int_payload(v)?;
        if *tag.get_or_insert(t) != t {
            return None;
        }
        ints.push(i);
    }
    let tag = tag.unwrap_or(TY_INT64);
    let plain = intpack_bytes(tag, has_null, values, &ints, false);
    let delta = intpack_bytes(tag, has_null, values, &ints, true);
    match (plain, delta) {
        (Some(p), Some(d)) => Some(if d.len() < p.len() { d } else { p }),
        (p, d) => p.or(d),
    }
}

fn intpack_bytes(
    tag: u8,
    has_null: bool,
    values: &[Value],
    ints: &[i64],
    delta: bool,
) -> Option<Vec<u8>> {
    // Deltas / frame-of-reference computed in i128 so i64 extremes can't
    // overflow; a candidate whose relative range exceeds u64 (only
    // possible for deltas) is rejected rather than widened.
    let work: Vec<i128> = if delta {
        if ints.len() < 2 {
            return None;
        }
        ints.windows(2)
            .map(|w| w[1] as i128 - w[0] as i128)
            .collect()
    } else {
        ints.iter().map(|&v| v as i128).collect()
    };
    let (base, width, rels) = if work.is_empty() {
        (0i64, 0u8, Vec::new())
    } else {
        let base = *work.iter().min()?;
        if i64::try_from(base).is_err() {
            return None;
        }
        let maxrel = work.iter().map(|&v| (v - base) as u128).max()?;
        if u64::try_from(maxrel).is_err() {
            return None;
        }
        let rels: Vec<u64> = work.iter().map(|&v| (v - base) as u64).collect();
        (base as i64, bits_for(maxrel as u64), rels)
    };
    let mut out = Vec::new();
    out.push(tag);
    out.push((has_null as u8) | if delta { FLAG_DELTA } else { 0 });
    // The non-null count is derivable from the bitmap but stored anyway:
    // it lets decode validate the caller's row count (bit-packed data is
    // not self-delimiting the way varint streams are).
    put_uvarint(&mut out, ints.len() as u64);
    if has_null {
        push_null_bitmap(&mut out, values);
    }
    if delta {
        put_ivarint(&mut out, ints[0]);
    }
    put_ivarint(&mut out, base);
    out.push(width);
    pack_bits(&mut out, &rels, width);
    Some(out)
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

fn try_encode_alp(values: &[Value]) -> Option<Vec<u8>> {
    let mut floats: Vec<f64> = Vec::with_capacity(values.len());
    let mut has_null = false;
    for v in values {
        match v {
            Value::Null => has_null = true,
            Value::Float64(f) => floats.push(*f),
            _ => return None,
        }
    }
    if floats.is_empty() {
        return None;
    }
    // Pick the exponent that patches the fewest sampled values.
    let stride = (floats.len() / 128).max(1);
    let sample: Vec<f64> = floats.iter().step_by(stride).copied().collect();
    let mut exp = 0u8;
    let mut best_patches = usize::MAX;
    for (e, &p10) in POW10.iter().enumerate() {
        let patches = sample
            .iter()
            .filter(|&&f| alp_int(f, p10).is_none())
            .count();
        if patches < best_patches {
            best_patches = patches;
            exp = e as u8;
            if patches == 0 {
                break;
            }
        }
    }
    let p10 = POW10[exp as usize];
    let mut ints: Vec<i64> = Vec::new();
    let mut patches: Vec<(usize, u64)> = Vec::new();
    for (row, v) in values.iter().enumerate() {
        if let Value::Float64(f) = v {
            match alp_int(*f, p10) {
                Some(i) => ints.push(i),
                None => patches.push((row, f.to_bits())),
            }
        }
    }
    let (base, width, rels) = if ints.is_empty() {
        (0i64, 0u8, Vec::new())
    } else {
        let base = *ints.iter().min()?;
        let maxrel = ints
            .iter()
            .map(|&v| (v as i128 - base as i128) as u64)
            .max()?;
        let rels: Vec<u64> = ints
            .iter()
            .map(|&v| (v as i128 - base as i128) as u64)
            .collect();
        (base, bits_for(maxrel), rels)
    };
    let mut out = Vec::new();
    out.push(has_null as u8);
    put_uvarint(&mut out, floats.len() as u64);
    if has_null {
        push_null_bitmap(&mut out, values);
    }
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
    put_ivarint(&mut out, base);
    out.push(width);
    pack_bits(&mut out, &rels, width);
    Some(out)
}

/// Maps a string-family value to (type tag, byte payload).
fn str_payload(v: &Value) -> Option<(u8, &[u8])> {
    match v {
        Value::String(s) => Some((TY_STRING, s.as_bytes())),
        Value::Json(s) => Some((TY_JSON, s.as_bytes())),
        Value::Bytes(b) => Some((TY_BYTES, b)),
        _ => None,
    }
}

fn try_encode_fsst(values: &[Value]) -> Option<Vec<u8>> {
    let mut tag: Option<u8> = None;
    let mut slices: Vec<&[u8]> = Vec::with_capacity(values.len());
    let mut has_null = false;
    let mut total = 0usize;
    for v in values {
        if v.is_null() {
            has_null = true;
            continue;
        }
        let (t, s) = str_payload(v)?;
        if *tag.get_or_insert(t) != t {
            return None;
        }
        total += s.len();
        slices.push(s);
    }
    if total < 64 {
        return None; // not enough material for a table to pay off
    }
    let tag = tag?;
    let m = slices.len();
    let symbols = build_fsst_table(&slices);
    let by_bytes: HashMap<&[u8], u8> = symbols
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_slice(), i as u8))
        .collect();
    let mut out = Vec::new();
    out.push(tag);
    out.push(has_null as u8);
    put_uvarint(&mut out, m as u64);
    if has_null {
        push_null_bitmap(&mut out, values);
    }
    out.push(symbols.len() as u8);
    for s in &symbols {
        out.push(s.len() as u8);
        out.extend_from_slice(s);
    }
    let mut enc = Vec::new();
    for s in &slices {
        enc.clear();
        fsst_compress(s, &by_bytes, &mut enc);
        put_uvarint(&mut out, enc.len() as u64);
        out.extend_from_slice(&enc);
    }
    Some(out)
}

/// Greedy longest-match FSST compression of one value.
fn fsst_compress(s: &[u8], table: &HashMap<&[u8], u8>, out: &mut Vec<u8>) {
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

/// Builds a deterministic symbol table from a byte-budget-capped sample:
/// substrings of length 1..=8 ranked by (occurrences × bytes saved).
/// A simplification of FSST's iterative table construction — overlapping
/// occurrences are over-counted, which the final size comparison in the
/// chooser absorbs.
fn build_fsst_table(slices: &[&[u8]]) -> Vec<Vec<u8>> {
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
            // A symbol emits 1 byte. Without it, each byte costs 1 code
            // byte at best (2 if escaped): saving ≥ len-1 per occurrence;
            // single bytes only pay if they'd otherwise be escaped.
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

fn try_encode_dict_v2(values: &[Value]) -> Option<Vec<u8>> {
    let mut ids: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut dict: Vec<Value> = Vec::new();
    let mut codes: Vec<u64> = Vec::with_capacity(values.len());
    for v in values {
        let next = dict.len() as u32;
        let id = *ids.entry(v.encode_key()).or_insert(next);
        if id == next {
            if dict.len() >= MAX_DICT {
                return None;
            }
            dict.push(v.clone());
        }
        codes.push(id as u64);
    }
    let (venc, vbytes) = encode_nested(&dict);
    let mut out = Vec::new();
    put_uvarint(&mut out, dict.len() as u64);
    out.push(venc.to_u8());
    put_uvarint(&mut out, vbytes.len() as u64);
    out.extend_from_slice(&vbytes);
    let width = bits_for(dict.len().saturating_sub(1) as u64);
    out.push(width);
    pack_bits(&mut out, &codes, width);
    Some(out)
}

fn encode_rle_v2(values: &[Value]) -> Vec<u8> {
    let mut lens: Vec<u64> = Vec::new();
    let mut run_values: Vec<Value> = Vec::new();
    let mut i = 0usize;
    while i < values.len() {
        let mut j = i + 1;
        while j < values.len() && values[j].key_eq(&values[i]) {
            j += 1;
        }
        lens.push((j - i) as u64);
        run_values.push(values[i].clone());
        i = j;
    }
    let (venc, vbytes) = encode_nested(&run_values);
    let mut out = Vec::new();
    put_uvarint(&mut out, lens.len() as u64);
    for &l in &lens {
        put_uvarint(&mut out, l);
    }
    out.push(venc.to_u8());
    put_uvarint(&mut out, vbytes.len() as u64);
    out.extend_from_slice(&vbytes);
    out
}

// ---------------------------------------------------------------------------
// Decoders
// ---------------------------------------------------------------------------

/// A decoded column chunk that preserves the compressed structure, so
/// predicates can be evaluated per dictionary entry or per run instead of
/// per row (compute pushdown over compressed data).
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedChunk {
    /// Fully materialized values.
    Values(Vec<Value>),
    /// Dictionary + per-row codes. Codes are validated in-range at decode.
    Dict {
        /// Distinct values, id-ordered.
        dict: Vec<Value>,
        /// Per-row dictionary ids.
        codes: Vec<u32>,
    },
    /// Run-length form. `lens` are ≥1 and sum to the chunk's row count.
    Runs {
        /// Per-run lengths.
        lens: Vec<u32>,
        /// Per-run values.
        values: Vec<Value>,
    },
}

impl DecodedChunk {
    /// Number of rows in the chunk.
    pub fn len(&self) -> usize {
        match self {
            DecodedChunk::Values(v) => v.len(),
            DecodedChunk::Dict { codes, .. } => codes.len(),
            DecodedChunk::Runs { lens, .. } => lens.iter().map(|&l| l as usize).sum(),
        }
    }

    /// Whether the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        match self {
            DecodedChunk::Values(v) => v.is_empty(),
            DecodedChunk::Dict { codes, .. } => codes.is_empty(),
            DecodedChunk::Runs { lens, .. } => lens.is_empty(),
        }
    }

    /// Materializes every row value.
    pub fn materialize(self) -> Vec<Value> {
        match self {
            DecodedChunk::Values(v) => v,
            DecodedChunk::Dict { dict, codes } => codes
                .into_iter()
                .map(|c| dict[c as usize].clone())
                .collect(),
            DecodedChunk::Runs { lens, values } => {
                let total: usize = lens.iter().map(|&l| l as usize).sum();
                let mut out = Vec::with_capacity(total);
                for (len, v) in lens.into_iter().zip(values) {
                    for _ in 0..len - 1 {
                        out.push(v.clone());
                    }
                    out.push(v);
                }
                out
            }
        }
    }

    /// Materializes the rows at `rows` (which must be strictly ascending
    /// in-bounds indices) — the late-materialization gather.
    pub fn gather(&self, rows: &[usize], out: &mut Vec<Value>) {
        match self {
            DecodedChunk::Values(v) => out.extend(rows.iter().map(|&i| v[i].clone())),
            DecodedChunk::Dict { dict, codes } => {
                out.extend(rows.iter().map(|&i| dict[codes[i] as usize].clone()))
            }
            DecodedChunk::Runs { lens, values } => {
                let mut run = 0usize;
                let mut run_end = lens.first().map(|&l| l as usize).unwrap_or(0);
                for &i in rows {
                    while i >= run_end {
                        run += 1;
                        run_end += lens[run] as usize;
                    }
                    out.push(values[run].clone());
                }
            }
        }
    }
}

/// Decodes a column chunk of `count` values, preserving dictionary /
/// run structure where the encoding has it.
pub fn decode_chunk(enc: Encoding, bytes: &[u8], count: usize) -> VortexResult<DecodedChunk> {
    let mut pos = 0usize;
    let chunk = decode_chunk_at(enc, bytes, &mut pos, count, true)?;
    if pos != bytes.len() {
        return Err(VortexError::Decode(format!(
            "column chunk has {} trailing bytes",
            bytes.len() - pos
        )));
    }
    Ok(chunk)
}

/// Decodes a column chunk of `count` values to materialized rows.
pub fn decode_column(enc: Encoding, bytes: &[u8], count: usize) -> VortexResult<Vec<Value>> {
    decode_chunk(enc, bytes, count).map(DecodedChunk::materialize)
}

fn decode_chunk_at(
    enc: Encoding,
    bytes: &[u8],
    pos: &mut usize,
    count: usize,
    allow_nested: bool,
) -> VortexResult<DecodedChunk> {
    match enc {
        Encoding::Plain => {
            let mut out = Vec::with_capacity(count.min(bytes.len() - *pos)); // lint:allow(L010, decode is off the hot path; capacity bounded by remaining input)
            for _ in 0..count {
                out.push(decode_value(bytes, pos)?);
            }
            Ok(DecodedChunk::Values(out))
        }
        Encoding::IntPack => decode_intpack(bytes, pos, count).map(DecodedChunk::Values),
        Encoding::Alp => decode_alp(bytes, pos, count).map(DecodedChunk::Values),
        Encoding::Fsst => decode_fsst(bytes, pos, count).map(DecodedChunk::Values),
        Encoding::DictV2 => {
            if !allow_nested {
                return Err(VortexError::Decode("nested dict not allowed".into()));
            }
            let dict_len = get_count(bytes, pos, count, "dict size")?;
            if dict_len == 0 && count > 0 {
                return Err(VortexError::Decode("empty dict for non-empty chunk".into()));
            }
            let venc = Encoding::from_u8(take_byte(bytes, pos)?)?;
            if !venc.nestable() {
                return Err(VortexError::Decode(format!(
                    "dict value section cannot be {venc:?}"
                )));
            }
            let vlen = get_count(bytes, pos, bytes.len() - *pos, "dict value bytes")?;
            let vslice = take(bytes, pos, vlen)?;
            let dict = decode_chunk(venc, vslice, dict_len)?.materialize();
            let width = take_byte(bytes, pos)?;
            let raw = unpack_bits(bytes, pos, count, width)?;
            let mut codes = Vec::with_capacity(count);
            for id in raw {
                if id >= dict_len as u64 {
                    return Err(VortexError::Decode(format!("dict id {id} out of range")));
                }
                codes.push(id as u32);
            }
            Ok(DecodedChunk::Dict { dict, codes })
        }
        Encoding::RleV2 => {
            if !allow_nested {
                return Err(VortexError::Decode("nested rle not allowed".into()));
            }
            let nruns = get_count(bytes, pos, count, "run count")?;
            let mut lens = Vec::with_capacity(nruns);
            let mut total = 0usize;
            for _ in 0..nruns {
                let run = get_uvarint(bytes, pos)? as usize;
                if run == 0 || run > count - total {
                    return Err(VortexError::Decode(format!(
                        "rle run {run} exceeds remaining {}",
                        count - total
                    )));
                }
                lens.push(run as u32);
                total += run;
            }
            if total != count {
                return Err(VortexError::Decode(format!(
                    "rle runs cover {total} of {count} rows"
                )));
            }
            let venc = Encoding::from_u8(take_byte(bytes, pos)?)?;
            if !venc.nestable() {
                return Err(VortexError::Decode(format!(
                    "rle value section cannot be {venc:?}"
                )));
            }
            let vlen = get_count(bytes, pos, bytes.len() - *pos, "rle value bytes")?;
            let vslice = take(bytes, pos, vlen)?;
            let values = decode_chunk(venc, vslice, nruns)?.materialize();
            Ok(DecodedChunk::Runs { lens, values })
        }
    }
}

fn decode_intpack(bytes: &[u8], pos: &mut usize, count: usize) -> VortexResult<Vec<Value>> {
    let tag = take_byte(bytes, pos)?;
    if tag > TY_TIMESTAMP {
        return Err(VortexError::Decode(format!("bad intpack type {tag}")));
    }
    let flags = take_byte(bytes, pos)?;
    if flags & !(FLAG_NULLS | FLAG_DELTA) != 0 {
        return Err(VortexError::Decode(format!("bad intpack flags {flags:#x}")));
    }
    let stored_m = get_count(bytes, pos, count, "intpack values")?;
    let nulls = if flags & FLAG_NULLS != 0 {
        read_null_bitmap(bytes, pos, count)?
    } else {
        Vec::new()
    };
    let m = if nulls.is_empty() {
        count
    } else {
        count - nulls.iter().filter(|&&b| b).count()
    };
    if stored_m != m {
        return Err(VortexError::Decode(format!(
            "intpack declares {stored_m} values, row count implies {m}"
        )));
    }
    let delta = flags & FLAG_DELTA != 0;
    if delta && m < 2 {
        return Err(VortexError::Decode("delta chunk with <2 values".into()));
    }
    let first = if delta { get_ivarint(bytes, pos)? } else { 0 };
    let base = get_ivarint(bytes, pos)? as i128;
    let width = take_byte(bytes, pos)?;
    let k = if delta { m - 1 } else { m };
    let rels = unpack_bits(bytes, pos, k, width)?;
    let mut ints = Vec::with_capacity(m);
    if delta {
        let mut acc = first as i128;
        ints.push(first);
        for r in rels {
            acc += base + r as i128;
            ints.push(i128_to_i64(acc)?);
        }
    } else {
        for r in rels {
            ints.push(i128_to_i64(base + r as i128)?);
        }
    }
    interleave_nulls(count, &nulls, ints.into_iter(), |i| int_value(tag, i))
}

fn i128_to_i64(v: i128) -> VortexResult<i64> {
    i64::try_from(v).map_err(|_| VortexError::Decode(format!("intpack value {v} overflows i64")))
}

fn int_value(tag: u8, i: i64) -> VortexResult<Value> {
    Ok(match tag {
        TY_INT64 => Value::Int64(i),
        TY_DATE => Value::Date(
            i32::try_from(i).map_err(|_| VortexError::Decode(format!("date {i} out of range")))?,
        ),
        _ => Value::Timestamp(Timestamp::from_micros(i as u64)),
    })
}

/// Builds the row vector from a null bitmap plus an iterator of decoded
/// non-null payloads. Errors if the payload count mismatches.
fn interleave_nulls<I, F>(
    count: usize,
    nulls: &[bool],
    mut payload: I,
    mut to_value: F,
) -> VortexResult<Vec<Value>>
where
    I: Iterator,
    F: FnMut(I::Item) -> VortexResult<Value>,
{
    let mut out = Vec::with_capacity(count);
    for row in 0..count {
        if nulls.get(row).copied().unwrap_or(false) {
            out.push(Value::Null);
        } else {
            let p = payload
                .next()
                .ok_or_else(|| VortexError::Decode("chunk payload exhausted".into()))?;
            out.push(to_value(p)?);
        }
    }
    Ok(out)
}

fn decode_alp(bytes: &[u8], pos: &mut usize, count: usize) -> VortexResult<Vec<Value>> {
    let flags = take_byte(bytes, pos)?;
    if flags & !FLAG_NULLS != 0 {
        return Err(VortexError::Decode(format!("bad alp flags {flags:#x}")));
    }
    let stored_m = get_count(bytes, pos, count, "alp values")?;
    let nulls = if flags & FLAG_NULLS != 0 {
        read_null_bitmap(bytes, pos, count)?
    } else {
        Vec::new()
    };
    let m = if nulls.is_empty() {
        count
    } else {
        count - nulls.iter().filter(|&&b| b).count()
    };
    if stored_m != m {
        return Err(VortexError::Decode(format!(
            "alp declares {stored_m} values, row count implies {m}"
        )));
    }
    let exp = take_byte(bytes, pos)? as usize;
    if exp >= POW10.len() {
        return Err(VortexError::Decode(format!("bad alp exponent {exp}")));
    }
    let p10 = POW10[exp];
    let npatch = get_count(bytes, pos, m, "alp patches")?;
    let mut patch_rows = Vec::with_capacity(npatch);
    let mut prev = 0usize;
    for i in 0..npatch {
        let gap = get_uvarint(bytes, pos)? as usize;
        if i > 0 && gap == 0 {
            return Err(VortexError::Decode("alp patch rows not ascending".into()));
        }
        prev += gap;
        if prev >= count {
            return Err(VortexError::Decode(format!(
                "alp patch row {prev} out of range"
            )));
        }
        patch_rows.push(prev);
    }
    let mut patch_bits = Vec::with_capacity(npatch);
    for _ in 0..npatch {
        let b = take(bytes, pos, 8)?;
        patch_bits
            .push(u64::from_le_bytes(b.try_into().map_err(|_| {
                VortexError::Decode("alp patch truncated".into())
            })?));
    }
    let base = get_ivarint(bytes, pos)? as i128;
    let width = take_byte(bytes, pos)?;
    let rels = unpack_bits(bytes, pos, m - npatch, width)?;
    let mut ints = rels.into_iter().map(|r| base + r as i128);
    let mut patches = patch_rows.iter().zip(patch_bits.iter()).peekable();
    let mut out = Vec::with_capacity(count);
    for row in 0..count {
        if nulls.get(row).copied().unwrap_or(false) {
            out.push(Value::Null);
            continue;
        }
        if let Some(&(&prow, &bits)) = patches.peek() {
            if prow == row {
                out.push(Value::Float64(f64::from_bits(bits)));
                patches.next();
                continue;
            }
        }
        let i = ints
            .next()
            .ok_or_else(|| VortexError::Decode("alp ints exhausted".into()))?;
        out.push(Value::Float64(i as f64 / p10));
    }
    if patches.next().is_some() {
        return Err(VortexError::Decode("alp patch at null row".into()));
    }
    Ok(out)
}

fn decode_fsst(bytes: &[u8], pos: &mut usize, count: usize) -> VortexResult<Vec<Value>> {
    let tag = take_byte(bytes, pos)?;
    if tag > TY_BYTES {
        return Err(VortexError::Decode(format!("bad fsst type {tag}")));
    }
    let flags = take_byte(bytes, pos)?;
    if flags & !FLAG_NULLS != 0 {
        return Err(VortexError::Decode(format!("bad fsst flags {flags:#x}")));
    }
    let stored_m = get_count(bytes, pos, count, "fsst values")?;
    let nulls = if flags & FLAG_NULLS != 0 {
        read_null_bitmap(bytes, pos, count)?
    } else {
        Vec::new()
    };
    let m = if nulls.is_empty() {
        count
    } else {
        count - nulls.iter().filter(|&&b| b).count()
    };
    if stored_m != m {
        return Err(VortexError::Decode(format!(
            "fsst declares {stored_m} values, row count implies {m}"
        )));
    }
    let nsyms = take_byte(bytes, pos)? as usize;
    if nsyms >= FSST_ESCAPE as usize {
        return Err(VortexError::Decode(format!(
            "fsst table of {nsyms} symbols"
        )));
    }
    let mut symbols: Vec<&[u8]> = Vec::with_capacity(nsyms);
    for _ in 0..nsyms {
        let l = take_byte(bytes, pos)? as usize;
        if l == 0 || l > FSST_MAX_SYM {
            return Err(VortexError::Decode(format!("fsst symbol of {l} bytes")));
        }
        symbols.push(take(bytes, pos, l)?);
    }
    let mut payloads = Vec::with_capacity(m);
    for _ in 0..m {
        let elen = get_count(bytes, pos, bytes.len() - *pos, "fsst value")?;
        let enc = take(bytes, pos, elen)?;
        let mut raw = Vec::with_capacity(elen);
        let mut p = 0usize;
        while p < enc.len() {
            let c = enc[p];
            p += 1;
            if c == FSST_ESCAPE {
                if p >= enc.len() {
                    return Err(VortexError::Decode("fsst escape truncated".into()));
                }
                raw.push(enc[p]);
                p += 1;
            } else if (c as usize) < nsyms {
                raw.extend_from_slice(symbols[c as usize]);
            } else {
                return Err(VortexError::Decode(format!("fsst code {c} out of range")));
            }
        }
        payloads.push(raw);
    }
    interleave_nulls(count, &nulls, payloads.into_iter(), |raw| {
        Ok(match tag {
            TY_BYTES => Value::Bytes(raw),
            t => {
                let s = String::from_utf8(raw)
                    .map_err(|e| VortexError::Decode(format!("fsst utf8: {e}")))?;
                if t == TY_STRING {
                    Value::String(s)
                } else {
                    Value::Json(s)
                }
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_ENCODINGS: [Encoding; 6] = [
        Encoding::Plain,
        Encoding::IntPack,
        Encoding::Alp,
        Encoding::Fsst,
        Encoding::DictV2,
        Encoding::RleV2,
    ];

    fn roundtrip(values: &[Value]) -> Encoding {
        let (enc, bytes) = encode_column(values);
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
        let packed = encode_column_with(&vals, Encoding::IntPack).unwrap();
        let plain = encode_column_with(&vals, Encoding::Plain).unwrap();
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
        let bytes = encode_column_with(&vals, Encoding::IntPack).unwrap();
        assert_key_eq(&decode_column(Encoding::IntPack, &bytes, 5).unwrap(), &vals);
    }

    #[test]
    fn intpack_timestamps_and_dates() {
        let ts: Vec<Value> = (0..100)
            .map(|i| Value::Timestamp(Timestamp::from_micros(1_700_000_000_000_000 + i * 1000)))
            .collect();
        let bytes = encode_column_with(&ts, Encoding::IntPack).unwrap();
        assert_key_eq(&decode_column(Encoding::IntPack, &bytes, 100).unwrap(), &ts);
        let dates: Vec<Value> = (0..50).map(|i| Value::Date(19_000 + i)).collect();
        let bytes = encode_column_with(&dates, Encoding::IntPack).unwrap();
        assert_key_eq(
            &decode_column(Encoding::IntPack, &bytes, 50).unwrap(),
            &dates,
        );
        // Mixed int-family types don't pack.
        assert!(encode_column_with(&[Value::Int64(1), Value::Date(1)], Encoding::IntPack).is_err());
    }

    #[test]
    fn alp_decimal_floats_roundtrip_bitexact() {
        let vals: Vec<Value> = (0..500)
            .map(|i| Value::Float64((i as f64) * 0.01 + 9.99))
            .collect();
        let bytes = encode_column_with(&vals, Encoding::Alp).unwrap();
        let plain = encode_column_with(&vals, Encoding::Plain).unwrap();
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
        let bytes = encode_column_with(&vals, Encoding::Alp).unwrap();
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
        let fsst = encode_column_with(&vals, Encoding::Fsst).unwrap();
        let plain = encode_column_with(&vals, Encoding::Plain).unwrap();
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
        let bytes = encode_column_with(&vals, Encoding::Fsst).unwrap();
        assert_key_eq(
            &decode_column(Encoding::Fsst, &bytes, vals.len()).unwrap(),
            &vals,
        );
        let json: Vec<Value> = (0..40)
            .map(|i| Value::Json(format!(r#"{{"region":"us","n":{i}}}"#)))
            .collect();
        let bytes = encode_column_with(&json, Encoding::Fsst).unwrap();
        assert_key_eq(&decode_column(Encoding::Fsst, &bytes, 40).unwrap(), &json);
    }

    #[test]
    fn dict_v2_cascades_value_section() {
        // Dictionary of sequential ints: value section should IntPack.
        let vals: Vec<Value> = (0..2000).map(|i| Value::Int64(i % 100)).collect();
        let v2 = encode_column_with(&vals, Encoding::DictV2).unwrap();
        let plain = encode_column_with(&vals, Encoding::Plain).unwrap();
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
        let v2 = encode_column_with(&vals, Encoding::RleV2).unwrap();
        let plain = encode_column_with(&vals, Encoding::Plain).unwrap();
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
        let dict = encode_column_with(&vals, Encoding::DictV2).unwrap();
        let plain = encode_column_with(&vals, Encoding::Plain).unwrap();
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
        let rle = encode_column_with(&vals, Encoding::RleV2).unwrap();
        let dict = encode_column_with(&vals, Encoding::DictV2).unwrap();
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
            let bytes = encode_column_with(&vals, enc).unwrap();
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
        let bytes = encode_column_with(&vals, Encoding::DictV2).unwrap();
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
            let bytes = encode_column_with(&vals, enc).unwrap();
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
        pack_bits(&mut bytes, &[5], 3); // index 5 — out of range
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
    /// over-allocate, for every encoding.
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
            for enc in ALL_ENCODINGS {
                // Must return (usually Err), never panic.
                let _ = decode_column(enc, &buf, count);
                let _ = decode_chunk(enc, &buf, count);
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
                let (enc, mut bytes) = encode_column(&vals);
                if !bytes.is_empty() {
                    let at = (next() as usize) % bytes.len();
                    bytes[at] ^= (next() as u8) | 1;
                    let _ = decode_column(enc, &bytes, vals.len());
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
    fn decoded_chunk_structure_preserved() {
        let vals: Vec<Value> = (0..100).map(|i| Value::Int64(i % 4)).collect();
        let bytes = encode_column_with(&vals, Encoding::DictV2).unwrap();
        match decode_chunk(Encoding::DictV2, &bytes, 100).unwrap() {
            DecodedChunk::Dict { dict, codes } => {
                assert_eq!(dict.len(), 4);
                assert_eq!(codes.len(), 100);
                assert_eq!(codes[5], 1);
            }
            other => panic!("expected dict chunk, got {other:?}"),
        }
        let mut runs = Vec::new();
        for k in 0..5 {
            for _ in 0..20 {
                runs.push(Value::Int64(k));
            }
        }
        let bytes = encode_column_with(&runs, Encoding::RleV2).unwrap();
        match decode_chunk(Encoding::RleV2, &bytes, 100).unwrap() {
            DecodedChunk::Runs { lens, values } => {
                assert_eq!(lens, vec![20; 5]);
                assert_eq!(values.len(), 5);
            }
            other => panic!("expected runs chunk, got {other:?}"),
        }
    }

    #[test]
    fn gather_matches_materialize() {
        let vals: Vec<Value> = (0..90)
            .map(|i| {
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int64((i / 10) as i64)
                }
            })
            .collect();
        for enc in [Encoding::Plain, Encoding::DictV2, Encoding::RleV2] {
            let bytes = encode_column_with(&vals, enc).unwrap();
            let chunk = decode_chunk(enc, &bytes, 90).unwrap();
            let all = chunk.clone().materialize();
            let picks: Vec<usize> = vec![0, 3, 11, 40, 41, 89];
            let mut got = Vec::new();
            chunk.gather(&picks, &mut got);
            let want: Vec<Value> = picks.iter().map(|&i| all[i].clone()).collect();
            assert_key_eq(&got, &want);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

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
        fn column_strategy() -> impl Strategy<Value = Vec<Value>> {
            proptest::collection::vec((value_strategy(), 1usize..8), 0..40).prop_map(|pairs| {
                pairs
                    .into_iter()
                    .flat_map(|(v, n)| std::iter::repeat(v).take(n))
                    .collect()
            })
        }

        proptest! {
            /// The chooser's pick always roundtrips `key_eq`-identically
            /// (bit-exact floats), for any mix of variants.
            #[test]
            fn chosen_encoding_roundtrips(vals in column_strategy()) {
                let (enc, bytes) = encode_column(&vals);
                let back = decode_column(enc, &bytes, vals.len()).unwrap();
                prop_assert_eq!(back.len(), vals.len());
                for (g, w) in back.iter().zip(&vals) {
                    prop_assert!(g.key_eq(w), "{:?} != {:?} under {:?}", g, w, enc);
                }
            }

            /// Every encoding that accepts the column roundtrips it.
            #[test]
            fn applicable_encodings_roundtrip(vals in column_strategy()) {
                for enc in ALL_ENCODINGS {
                    if let Ok(bytes) = encode_column_with(&vals, enc) {
                        let back = decode_column(enc, &bytes, vals.len()).unwrap();
                        for (g, w) in back.iter().zip(&vals) {
                            prop_assert!(g.key_eq(w), "{:?} != {:?} under {:?}", g, w, enc);
                        }
                    }
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
            pack_bits(&mut buf, &vals, width);
            let mut pos = 0;
            let back = unpack_bits(&buf, &mut pos, vals.len(), width).unwrap();
            assert_eq!(pos, buf.len());
            assert_eq!(back, vals, "width {width}");
        }
    }
}
