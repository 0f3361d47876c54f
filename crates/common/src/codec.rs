//! The binary wire encoding for rows.
//!
//! Vortex "supports multiple data formats (such as Protocol buffers and
//! Avro) and is extensible to other formats" (§4.2.2). This engine speaks
//! one self-describing binary format with protobuf-style varints; it is
//! the format clients serialize row sets into for `AppendStream`, and the
//! record payload stored inside WOS fragment blocks.
//!
//! All decode paths are bounds-checked and return [`VortexError::Decode`]
//! on malformed input — fragments read back from (simulated) disk go
//! through this code.

use crate::error::{VortexError, VortexResult};
use crate::row::{Row, RowSet, Value};
use crate::schema::ChangeType;
use crate::truetime::Timestamp;

/// Appends an unsigned LEB128 varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads an unsigned LEB128 varint, advancing `pos`.
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> VortexResult<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf
            .get(*pos)
            .ok_or_else(|| VortexError::Decode("varint truncated".into()))?;
        *pos += 1;
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(VortexError::Decode("varint too long".into()));
        }
    }
}

/// Appends a zigzag-encoded signed varint.
pub fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    put_uvarint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Reads a zigzag-encoded signed varint.
pub fn get_ivarint(buf: &[u8], pos: &mut usize) -> VortexResult<i64> {
    let z = get_uvarint(buf, pos)?;
    Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
}

/// The next `n` bytes at `pos`, which moves past them. The bound is
/// checked against the bytes *remaining* (`pos + n` would overflow on a
/// length varint near `u64::MAX`).
pub fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> VortexResult<&'a [u8]> {
    let (at, left) = (*pos, buf.len() - *pos);
    if n > left {
        return Err(VortexError::Decode(format!(
            "need {n} bytes at {at}, have {left}"
        )));
    }
    *pos += n;
    Ok(&buf[at..at + n])
}

/// The next `N` bytes at `pos` as an array, which moves past them — the
/// checked fixed-width read under every `from_le_bytes`.
pub fn take_array<const N: usize>(buf: &[u8], pos: &mut usize) -> VortexResult<[u8; N]> {
    let mut out = [0u8; N];
    out.copy_from_slice(take(buf, pos, N)?);
    Ok(out)
}

/// Reads a declared byte length. It can never exceed the remaining
/// input; rejecting early keeps corrupt lengths from triggering giant
/// allocations.
pub fn get_len(buf: &[u8], pos: &mut usize) -> VortexResult<usize> {
    let n = get_uvarint(buf, pos)? as usize;
    if n > buf.len() - *pos {
        return Err(VortexError::Decode(format!(
            "declared length {n} exceeds remaining {}",
            buf.len() - *pos
        )));
    }
    Ok(n)
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_uvarint(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Reads a length-prefixed byte string.
pub fn get_bytes(buf: &[u8], pos: &mut usize) -> VortexResult<Vec<u8>> {
    let n = get_len(buf, pos)?;
    Ok(take(buf, pos, n)?.to_vec())
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
pub fn get_str(buf: &[u8], pos: &mut usize) -> VortexResult<String> {
    String::from_utf8(get_bytes(buf, pos)?)
        .map_err(|e| VortexError::Decode(format!("bad utf8: {e}")))
}

// Value tags. Stable on-disk values: never renumber. Public for the ROS
// Plain decoder, which reads encoded cells into typed vectors.
/// Tag byte of an encoded `Value::Null`.
pub const TAG_NULL: u8 = 0;
/// Tag byte of an encoded `Value::Bool`.
pub const TAG_BOOL: u8 = 1;
/// Tag byte of an encoded `Value::Int64`.
pub const TAG_INT64: u8 = 2;
/// Tag byte of an encoded `Value::Float64`.
pub const TAG_FLOAT64: u8 = 3;
/// Tag byte of an encoded `Value::String`.
pub const TAG_STRING: u8 = 4;
/// Tag byte of an encoded `Value::Bytes`.
pub const TAG_BYTES: u8 = 5;
/// Tag byte of an encoded `Value::Timestamp`.
pub const TAG_TIMESTAMP: u8 = 6;
/// Tag byte of an encoded `Value::Date`.
pub const TAG_DATE: u8 = 7;
/// Tag byte of an encoded `Value::Numeric`.
pub const TAG_NUMERIC: u8 = 8;
/// Tag byte of an encoded `Value::Json`.
pub const TAG_JSON: u8 = 9;
/// Tag byte of an encoded `Value::Struct`.
pub const TAG_STRUCT: u8 = 10;
/// Tag byte of an encoded `Value::Array`.
pub const TAG_ARRAY: u8 = 11;

/// Appends one encoded value.
pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
        Value::Int64(i) => {
            out.push(TAG_INT64);
            put_ivarint(out, *i);
        }
        Value::Float64(f) => {
            out.push(TAG_FLOAT64);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::String(s) => {
            out.push(TAG_STRING);
            put_str(out, s);
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            put_bytes(out, b);
        }
        Value::Timestamp(t) => {
            out.push(TAG_TIMESTAMP);
            put_uvarint(out, t.micros());
        }
        Value::Date(d) => {
            out.push(TAG_DATE);
            put_ivarint(out, *d as i64);
        }
        Value::Numeric(n) => {
            out.push(TAG_NUMERIC);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::Json(s) => {
            out.push(TAG_JSON);
            put_str(out, s);
        }
        Value::Struct(vs) => {
            out.push(TAG_STRUCT);
            put_uvarint(out, vs.len() as u64);
            for v in vs {
                encode_value(out, v);
            }
        }
        Value::Array(vs) => {
            out.push(TAG_ARRAY);
            put_uvarint(out, vs.len() as u64);
            for v in vs {
                encode_value(out, v);
            }
        }
    }
}

/// Reads one encoded value, advancing `pos`.
pub fn decode_value(buf: &[u8], pos: &mut usize) -> VortexResult<Value> {
    let tag = *buf
        .get(*pos)
        .ok_or_else(|| VortexError::Decode("value tag truncated".into()))?;
    *pos += 1;
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL => Value::Bool(take(buf, pos, 1)?[0] != 0),
        TAG_INT64 => Value::Int64(get_ivarint(buf, pos)?),
        TAG_FLOAT64 => Value::Float64(f64::from_bits(u64::from_le_bytes(take_array(buf, pos)?))),
        TAG_STRING => Value::String(get_str(buf, pos)?),
        TAG_BYTES => Value::Bytes(get_bytes(buf, pos)?),
        TAG_TIMESTAMP => Value::Timestamp(Timestamp::from_micros(get_uvarint(buf, pos)?)),
        TAG_DATE => Value::Date(get_ivarint(buf, pos)? as i32),
        TAG_NUMERIC => Value::Numeric(i128::from_le_bytes(take_array(buf, pos)?)),
        TAG_JSON => Value::Json(get_str(buf, pos)?),
        TAG_STRUCT | TAG_ARRAY => {
            let n = get_uvarint(buf, pos)? as usize;
            // Each element is at least 1 byte (a tag), so n can't exceed
            // the remaining bytes.
            if n > buf.len() - *pos {
                return Err(VortexError::Decode(format!(
                    "declared {n} elements exceeds remaining bytes"
                )));
            }
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(decode_value(buf, pos)?);
            }
            if tag == TAG_STRUCT {
                Value::Struct(vs)
            } else {
                Value::Array(vs)
            }
        }
        other => return Err(VortexError::Decode(format!("unknown value tag {other}"))),
    })
}

/// Appends one encoded row: `change_type | num_values | values...`.
pub fn encode_row(out: &mut Vec<u8>, row: &Row) {
    out.push(row.change_type.to_u8());
    put_uvarint(out, row.values.len() as u64);
    for v in &row.values {
        encode_value(out, v);
    }
}

/// Reads one encoded row, advancing `pos`.
pub fn decode_row(buf: &[u8], pos: &mut usize) -> VortexResult<Row> {
    let ct = ChangeType::from_u8(
        *buf.get(*pos)
            .ok_or_else(|| VortexError::Decode("row truncated".into()))?,
    )?;
    *pos += 1;
    let n = get_uvarint(buf, pos)? as usize;
    if n > buf.len() - *pos {
        return Err(VortexError::Decode(format!(
            "row declares {n} values, not enough bytes"
        )));
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(decode_value(buf, pos)?);
    }
    Ok(Row {
        values,
        change_type: ct,
    })
}

/// Encodes a whole row set: `num_rows | rows...`.
pub fn encode_rowset(rows: &RowSet) -> Vec<u8> {
    encode_rows(&rows.rows)
}

/// Encodes a row slice with the same framing as [`encode_rowset`], so
/// the append path can chunk a borrowed batch by index range without
/// materialising per-chunk `RowSet`s.
pub fn encode_rows(rows: &[Row]) -> Vec<u8> {
    let est: usize = rows.iter().map(|r| r.approx_bytes()).sum();
    let mut out = Vec::with_capacity(est + 8);
    put_uvarint(&mut out, rows.len() as u64);
    for r in rows {
        encode_row(&mut out, r);
    }
    out
}

/// Decodes a row set produced by [`encode_rowset`]; requires the buffer to
/// be fully consumed.
pub fn decode_rowset(buf: &[u8]) -> VortexResult<RowSet> {
    let mut pos = 0usize;
    let n = get_uvarint(buf, &mut pos)? as usize;
    if n > buf.len() {
        return Err(VortexError::Decode(format!("rowset declares {n} rows")));
    }
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(decode_row(buf, &mut pos)?);
    }
    if pos != buf.len() {
        return Err(VortexError::Decode(format!(
            "trailing {} bytes after rowset",
            buf.len() - pos
        )));
    }
    Ok(RowSet::new(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kitchen_sink_row() -> Row {
        Row::with_change(
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Int64(-42),
                Value::Float64(3.5),
                Value::String("héllo".into()),
                Value::Bytes(vec![0, 255, 7]),
                Value::Timestamp(Timestamp::from_micros(1_700_000_000_000_000)),
                Value::Date(-3),
                Value::Numeric(-123_456_789_012_345_678_901_234i128),
                Value::Json(r#"{"a":[1,2]}"#.into()),
                Value::Struct(vec![Value::Int64(1), Value::Null]),
                Value::Array(vec![Value::String("x".into()), Value::String("y".into())]),
            ],
            ChangeType::Upsert,
        )
    }

    #[test]
    fn row_roundtrip_all_types() {
        let row = kitchen_sink_row();
        let mut buf = Vec::new();
        encode_row(&mut buf, &row);
        let mut pos = 0;
        let back = decode_row(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back, row);
    }

    #[test]
    fn rowset_roundtrip() {
        let rs = RowSet::new(vec![
            kitchen_sink_row(),
            Row::insert(vec![Value::Int64(1)]),
            Row::with_change(vec![Value::String("k".into())], ChangeType::Delete),
        ]);
        let buf = encode_rowset(&rs);
        assert_eq!(decode_rowset(&buf).unwrap(), rs);
    }

    #[test]
    fn varint_extremes() {
        let mut buf = Vec::new();
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            buf.clear();
            put_ivarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_ivarint(&buf, &mut pos).unwrap(), v);
        }
        for v in [0u64, u64::MAX] {
            buf.clear();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn truncation_never_panics() {
        let rs = RowSet::new(vec![kitchen_sink_row()]);
        let buf = encode_rowset(&rs);
        for cut in 0..buf.len() {
            assert!(decode_rowset(&buf[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let rs = RowSet::new(vec![Row::insert(vec![Value::Int64(1)])]);
        let mut buf = encode_rowset(&rs);
        buf.push(0);
        assert!(decode_rowset(&buf).is_err());
    }

    #[test]
    fn bogus_length_rejected_without_allocation() {
        // A rowset claiming u64::MAX rows must fail fast.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        assert!(decode_rowset(&buf).is_err());
        // A string claiming a giant length likewise.
        let mut buf = vec![TAG_STRING];
        put_uvarint(&mut buf, 1 << 40);
        let mut pos = 0;
        assert!(decode_value(&buf, &mut pos).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        let buf = vec![200u8];
        let mut pos = 0;
        assert!(matches!(
            decode_value(&buf, &mut pos),
            Err(VortexError::Decode(_))
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = vec![TAG_STRING];
        put_uvarint(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut pos = 0;
        assert!(decode_value(&buf, &mut pos).is_err());
    }

    #[test]
    fn nan_roundtrips_bitexact() {
        let mut buf = Vec::new();
        encode_value(&mut buf, &Value::Float64(f64::NAN));
        let mut pos = 0;
        match decode_value(&buf, &mut pos).unwrap() {
            Value::Float64(f) => assert!(f.is_nan()),
            other => panic!("got {other:?}"),
        }
    }
}
