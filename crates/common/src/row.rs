//! Row values: the dynamic representation of semi-structured records.
//!
//! Clients "serialize structured or semi-structured input data to a binary
//! format" before appending (§4.2.2); [`Value`] is the in-memory form on
//! both sides of that wire format (see [`crate::codec`]). Values carry a
//! total order ([`Value::total_cmp`]) used for clustering-key ranges and
//! min/max column properties, and a canonical key encoding
//! ([`Value::encode_key`]) used for bloom filters and primary keys.

use std::cmp::Ordering;

use crate::schema::ChangeType;
use crate::truetime::Timestamp;

/// A dynamically-typed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int64(i64),
    /// 64-bit IEEE float.
    Float64(f64),
    /// UTF-8 string.
    String(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// Microseconds since epoch.
    Timestamp(Timestamp),
    /// Days since epoch.
    Date(i32),
    /// Fixed-point decimal scaled by 10^9.
    Numeric(i128),
    /// JSON text.
    Json(String),
    /// Nested record values, positionally matching the struct's fields.
    Struct(Vec<Value>),
    /// Repeated values.
    Array(Vec<Value>),
}

impl Value {
    /// Human-readable type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Bool(_) => "BOOL",
            Value::Int64(_) => "INT64",
            Value::Float64(_) => "FLOAT64",
            Value::String(_) => "STRING",
            Value::Bytes(_) => "BYTES",
            Value::Timestamp(_) => "TIMESTAMP",
            Value::Date(_) => "DATE",
            Value::Numeric(_) => "NUMERIC",
            Value::Json(_) => "JSON",
            Value::Struct(_) => "STRUCT",
            Value::Array(_) => "ARRAY",
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int64(_) => 2,
            Value::Float64(_) => 3,
            Value::String(_) => 4,
            Value::Bytes(_) => 5,
            Value::Timestamp(_) => 6,
            Value::Date(_) => 7,
            Value::Numeric(_) => 8,
            Value::Json(_) => 9,
            Value::Struct(_) => 10,
            Value::Array(_) => 11,
        }
    }

    /// Numeric view for cross-type numeric comparisons (SQL coercion): a
    /// float, or an integer scaled by 10^9 (`Numeric`'s fixed point).
    fn as_number(&self) -> Option<Result<f64, i128>> {
        match self {
            Value::Int64(i) => Some(Err(*i as i128 * NUMERIC_SCALE)),
            Value::Float64(f) => Some(Ok(*f)),
            Value::Numeric(n) => Some(Err(*n)),
            _ => None,
        }
    }

    /// A total order over values. NULL sorts first; numeric types
    /// (INT64/FLOAT64/NUMERIC) are one group, at INT64's rank, and compare
    /// exactly across each other (SQL coercion: `Int64(3)` equals
    /// `Float64(3.0)`, and `Int64(2^53 + 1)` is above `Float64(2^53)`);
    /// remaining cross-type pairs order by a fixed type rank (they only
    /// arise in corrupted or mixed inputs — within a column the type is
    /// fixed by the schema).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int64(a), Int64(b)) => a.cmp(b),
            (Float64(a), Float64(b)) => a.total_cmp(b),
            (String(a), String(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Numeric(a), Numeric(b)) => a.cmp(b),
            (Json(a), Json(b)) => a.cmp(b),
            (Struct(a), Struct(b)) | (Array(a), Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.total_cmp(y) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => match (a.as_number(), b.as_number()) {
                (Some(Ok(x)), Some(Ok(y))) => x.total_cmp(&y),
                (Some(Err(x)), Some(Err(y))) => x.cmp(&y),
                (Some(Ok(f)), Some(Err(x))) => cmp_float_scaled(f, x),
                (Some(Err(x)), Some(Ok(f))) => cmp_float_scaled(f, x).reverse(),
                _ => {
                    let int64 = Int64(0).type_rank();
                    let rank = |v: &Value| v.as_number().map_or(v.type_rank(), |_| int64);
                    rank(a).cmp(&rank(b))
                }
            },
        }
    }

    /// Canonical byte encoding used for bloom-filter membership and primary
    /// key bytes. Injective per type (a type-tag byte prevents cross-type
    /// collisions like `Int64(0)` vs `Bool(false)`).
    pub fn encode_key(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_key_into(&mut out);
        out
    }

    /// Appends [`Value::encode_key`]'s bytes to `out` (a caller probing
    /// many keys reuses one buffer).
    pub fn encode_key_into(&self, out: &mut Vec<u8>) {
        out.push(self.type_rank());
        match self {
            Value::Null => {}
            Value::Bool(b) => out.push(*b as u8),
            Value::Int64(i) => out.extend_from_slice(&i.to_le_bytes()),
            Value::Float64(f) => out.extend_from_slice(&f.to_bits().to_le_bytes()),
            Value::String(s) => out.extend_from_slice(s.as_bytes()),
            Value::Bytes(b) => out.extend_from_slice(b),
            Value::Timestamp(t) => out.extend_from_slice(&t.micros().to_le_bytes()),
            Value::Date(d) => out.extend_from_slice(&d.to_le_bytes()),
            Value::Numeric(n) => out.extend_from_slice(&n.to_le_bytes()),
            Value::Json(s) => out.extend_from_slice(s.as_bytes()),
            Value::Struct(vs) | Value::Array(vs) => {
                // Each element: its key's length, backpatched, then its key.
                for v in vs {
                    let at = out.len();
                    out.extend_from_slice(&[0; 4]);
                    v.encode_key_into(out);
                    let len = (out.len() - at - 4) as u32;
                    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
                }
            }
        }
    }

    /// Equality consistent with [`Value::encode_key`], without allocating:
    /// two values are `key_eq` iff their `encode_key` bytes are equal.
    ///
    /// This differs from `PartialEq` for floats: `Float64` compares by bit
    /// pattern, so `NaN == NaN` and `-0.0 != 0.0`. Encoders (run-length
    /// detection, dictionary identity, the encoding chooser) must all use
    /// this one equality — mixing it with `PartialEq` lets the chooser's
    /// size estimate and the actual encoder disagree on NaN/-0.0 columns.
    pub fn key_eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int64(a), Int64(b)) => a == b,
            (Float64(a), Float64(b)) => a.to_bits() == b.to_bits(),
            (String(a), String(b)) => a == b,
            (Bytes(a), Bytes(b)) => a == b,
            (Timestamp(a), Timestamp(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            (Numeric(a), Numeric(b)) => a == b,
            (Json(a), Json(b)) => a == b,
            (Struct(a), Struct(b)) | (Array(a), Array(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.key_eq(y))
            }
            _ => false,
        }
    }

    /// Whether this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extracts an `i64` if this is an `Int64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int64(i) => Some(*i),
            _ => None,
        }
    }

    /// Extracts a `&str` if this is a `String`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts a timestamp if this is a `Timestamp`.
    pub fn as_timestamp(&self) -> Option<Timestamp> {
        match self {
            Value::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    /// Approximate in-memory footprint in bytes, used by flow control and
    /// the 2 MB fragment write buffer accounting.
    pub fn approx_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int64(_) | Value::Float64(_) | Value::Timestamp(_) => 8,
            Value::Date(_) => 4,
            Value::Numeric(_) => 16,
            Value::String(s) | Value::Json(s) => 4 + s.len(),
            Value::Bytes(b) => 4 + b.len(),
            Value::Struct(vs) | Value::Array(vs) => {
                4 + vs.iter().map(Value::approx_bytes).sum::<usize>()
            }
        }
    }
}

/// A row: an ordered list of values plus its `_CHANGE_TYPE` (§4.2.6).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Column values in schema order.
    pub values: Vec<Value>,
    /// INSERT (default), UPSERT, or DELETE.
    pub change_type: ChangeType,
}

impl Row {
    /// An INSERT row.
    pub fn insert(values: Vec<Value>) -> Self {
        Row {
            values,
            change_type: ChangeType::Insert,
        }
    }

    /// A row with an explicit change type.
    pub fn with_change(values: Vec<Value>, change_type: ChangeType) -> Self {
        Row {
            values,
            change_type,
        }
    }

    /// Approximate serialized size, used for batch sizing and flow control.
    pub fn approx_bytes(&self) -> usize {
        1 + self.values.iter().map(Value::approx_bytes).sum::<usize>()
    }
}

/// A batch of rows supplied to one `AppendStream` call (§4.2.2's
/// `RowsSet`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RowSet {
    /// The rows, in append order.
    pub rows: Vec<Row>,
}

impl RowSet {
    /// Creates a row set.
    pub fn new(rows: Vec<Row>) -> Self {
        RowSet { rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Approximate serialized size of the whole batch.
    pub fn approx_bytes(&self) -> usize {
        self.rows.iter().map(Row::approx_bytes).sum()
    }
}

/// `Numeric`'s fixed point: 10^9 units per one.
const NUMERIC_SCALE: i128 = 1_000_000_000;

/// `f` against the integer `x` scaled by 10^9, exactly, in
/// `f64::total_cmp`'s order of the floats: `-0.0` below zero and a NaN
/// past the infinity of its sign.
fn cmp_float_scaled(f: f64, x: i128) -> Ordering {
    match (f.is_sign_negative(), x < 0) {
        _ if f.is_nan() => f.total_cmp(&0.0),
        (false, true) => Ordering::Greater,
        (true, false) => Ordering::Less,
        (false, false) => cmp_magnitude(f, x.unsigned_abs()),
        (true, true) => cmp_magnitude(-f, x.unsigned_abs()).reverse(),
    }
}

/// `f` (not negative, not NaN) against `x` scaled by 10^9, exactly: `f`
/// is `m · 2^e`, so that is `m · 10^9 · 2^e` (`m · 10^9` < 2^83) against
/// `x`.
fn cmp_magnitude(f: f64, x: u128) -> Ordering {
    let (exp, bits) = ((f.to_bits() >> 52) as i32, f.to_bits() & ((1 << 52) - 1));
    let (m, e) = match exp {
        0 => (bits, -1074),
        _ => (bits | 1 << 52, exp - 1075),
    };
    let scaled = m as u128 * NUMERIC_SCALE as u128;
    match e.unsigned_abs() {
        // Past 2^127, which no `x` is.
        _ if e > 45 => Ordering::Greater,
        k if e >= 0 => (scaled << k).cmp(&x),
        k => {
            let whole = scaled.checked_shr(k).unwrap_or(0);
            let part = whole.checked_shl(k).unwrap_or(0) < scaled;
            whole.cmp(&x).then(part.cmp(&false))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_cmp_orders_within_types() {
        assert_eq!(Value::Int64(1).total_cmp(&Value::Int64(2)), Ordering::Less);
        assert_eq!(
            Value::String("b".into()).total_cmp(&Value::String("a".into())),
            Ordering::Greater
        );
        assert_eq!(
            Value::Float64(f64::NAN).total_cmp(&Value::Float64(f64::NAN)),
            Ordering::Equal
        );
        assert_eq!(
            Value::Float64(-0.0).total_cmp(&Value::Float64(0.0)),
            Ordering::Less
        );
    }

    #[test]
    fn numeric_types_coerce_in_comparisons() {
        assert_eq!(
            Value::Int64(2).total_cmp(&Value::Float64(2.5)),
            Ordering::Less
        );
        assert_eq!(
            Value::Float64(3.0).total_cmp(&Value::Int64(3)),
            Ordering::Equal
        );
        // Numeric(2_500_000_000) == 2.5
        assert_eq!(
            Value::Numeric(2_500_000_000).total_cmp(&Value::Float64(2.5)),
            Ordering::Equal
        );
        assert_eq!(
            Value::Int64(3).total_cmp(&Value::Numeric(2_500_000_000)),
            Ordering::Greater
        );
    }

    /// Cells where comparing through `f64` went wrong: integers past
    /// 2^53, fixed-point values finer than a float, the zeros, NaNs and
    /// infinities, and non-numerics between numerics' type ranks.
    fn tricky_cells() -> Vec<Value> {
        let big = 1i64 << 53;
        let mut cells = vec![
            Value::Null,
            Value::Bool(true),
            Value::String("s".into()),
            Value::Date(0),
            Value::Json("{}".into()),
            Value::Float64(f64::NAN),
            Value::Float64(-f64::NAN),
            Value::Float64(f64::INFINITY),
            Value::Float64(f64::NEG_INFINITY),
            Value::Float64(0.0),
            Value::Float64(-0.0),
            Value::Float64(1e-10),
            Value::Float64(-1e-300),
            Value::Float64(big as f64),
            Value::Float64(i64::MAX as f64),
            Value::Float64(1e30),
            Value::Numeric(0),
            Value::Numeric(1),
            Value::Numeric(-1),
            Value::Numeric(i128::MAX),
            Value::Numeric(i128::MIN),
            Value::Numeric(big as i128 * NUMERIC_SCALE + 1),
        ];
        for i in [0, 1, -1, big - 1, big, big + 1, i64::MAX, i64::MIN] {
            cells.push(Value::Int64(i));
        }
        cells
    }

    /// Across every type, over [`tricky_cells`]: antisymmetric, and
    /// transitive in both `Less` and `Equal`.
    #[test]
    fn total_cmp_is_a_total_order_on_mixed_cells() {
        let cells = tricky_cells();
        for a in &cells {
            for b in &cells {
                assert_eq!(a.total_cmp(b), b.total_cmp(a).reverse(), "{a:?} {b:?}");
                for c in &cells {
                    let (ab, bc, ac) = (a.total_cmp(b), b.total_cmp(c), a.total_cmp(c));
                    if ab == bc {
                        assert_eq!(ac, ab, "{a:?} {b:?} {c:?}");
                    }
                }
            }
        }
    }

    /// `f` (finite, not negative) against `x` scaled by 10^9 through
    /// their exact decimal expansions: an integer part, then 1 100
    /// fraction digits, more than a float's 1 074 binary ones need.
    fn decimal_cmp(f: f64, x: u128) -> Ordering {
        let (whole, part) = (x / NUMERIC_SCALE as u128, x % NUMERIC_SCALE as u128);
        let fixed = format!("{whole}.{part:09}{}", "0".repeat(1_091));
        let float = format!("{f:.1100}");
        let digits = |s: &str| s.find('.').unwrap();
        (digits(&float).cmp(&digits(&fixed))).then_with(|| float.cmp(&fixed))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2_000))]

        /// The exact comparison is the decimal one: over floats drawn at
        /// random and floats next to a fixed-point value, integer parts
        /// up to 2^127.
        #[test]
        fn the_exact_comparison_is_the_decimal_one(
            (hi, lo, shift) in (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>(), 0u32..128),
            (step, raw) in (-2i64..3, proptest::prelude::any::<f64>()),
        ) {
            let x = ((hi as u128) << 64 | lo as u128) >> shift >> 1;
            let near = x as f64 / 1e9;
            let near = f64::from_bits((near.to_bits() as i64 + step).max(0) as u64);
            for f in [near, raw.abs(), (x % 1_000_000_000) as f64 / 1e9] {
                if f.is_finite() {
                    assert_eq!(cmp_magnitude(f, x), decimal_cmp(f, x), "{f:e} against {x}");
                }
            }
        }
    }

    #[test]
    fn numerics_compare_exactly() {
        let big = 1i64 << 53;
        let cmp = |a: Value, b: Value| a.total_cmp(&b);
        assert_eq!(
            cmp(Value::Int64(big + 1), Value::Float64(big as f64)),
            Ordering::Greater
        );
        assert_eq!(
            cmp(Value::Int64(big), Value::Float64(big as f64)),
            Ordering::Equal
        );
        assert_eq!(cmp(Value::Numeric(1), Value::Int64(0)), Ordering::Greater);
        assert_eq!(
            cmp(Value::Numeric(1), Value::Float64(1e-10)),
            Ordering::Greater
        );
        assert_eq!(
            cmp(Value::Numeric(3_000_000_000), Value::Int64(3)),
            Ordering::Equal
        );
        assert_eq!(cmp(Value::Float64(-0.0), Value::Int64(0)), Ordering::Less);
        assert_eq!(cmp(Value::Float64(0.0), Value::Numeric(0)), Ordering::Equal);
        // Numerics are one group: no String between them.
        assert_eq!(
            cmp(Value::Numeric(0), Value::String("s".into())),
            Ordering::Less
        );
        assert_eq!(
            cmp(Value::Float64(1e300), Value::String("s".into())),
            Ordering::Less
        );
    }

    #[test]
    fn null_sorts_first() {
        assert_eq!(
            Value::Null.total_cmp(&Value::Int64(i64::MIN)),
            Ordering::Less
        );
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn arrays_compare_lexicographically() {
        let a = Value::Array(vec![Value::Int64(1), Value::Int64(2)]);
        let b = Value::Array(vec![Value::Int64(1), Value::Int64(3)]);
        let c = Value::Array(vec![Value::Int64(1)]);
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        assert_eq!(c.total_cmp(&a), Ordering::Less);
    }

    #[test]
    fn encode_key_injective_across_types() {
        let pairs = [
            (Value::Int64(0), Value::Bool(false)),
            (Value::String("1".into()), Value::Int64(1)),
            (Value::Bytes(b"x".to_vec()), Value::String("x".into())),
            (Value::Null, Value::Bool(false)),
        ];
        for (a, b) in pairs {
            assert_ne!(a.encode_key(), b.encode_key(), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn encode_key_nested_lengths_prevent_ambiguity() {
        // ["ab","c"] must not collide with ["a","bc"].
        let a = Value::Array(vec![Value::String("ab".into()), Value::String("c".into())]);
        let b = Value::Array(vec![Value::String("a".into()), Value::String("bc".into())]);
        assert_ne!(a.encode_key(), b.encode_key());
    }

    #[test]
    fn approx_bytes_scales_with_content() {
        let small = Row::insert(vec![Value::Int64(1)]);
        let big = Row::insert(vec![Value::String("x".repeat(1000))]);
        assert!(big.approx_bytes() > small.approx_bytes() + 900);
        let rs = RowSet::new(vec![small.clone(), big]);
        assert_eq!(rs.len(), 2);
        assert!(rs.approx_bytes() > 1000);
        assert!(!rs.is_empty());
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int64(7).as_i64(), Some(7));
        assert_eq!(Value::Bool(true).as_i64(), None);
        assert_eq!(Value::String("s".into()).as_str(), Some("s"));
        assert!(Value::Null.is_null());
        assert_eq!(
            Value::Timestamp(Timestamp(9)).as_timestamp(),
            Some(Timestamp(9))
        );
    }
}
