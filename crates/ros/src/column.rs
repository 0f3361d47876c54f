//! Typed column vectors: what a ROS column chunk decodes to.
//!
//! A [`ColumnVec`] holds one zone of one column as a typed vector plus a
//! null bitmap, or as dictionary codes / run lengths over such a vector,
//! so predicates and aggregates run as loops over `i64` / `f64` / byte
//! slices and a [`Value`] is only built for a cell that leaves the engine
//! ([`ColumnVec::value`], [`ColumnVec::gather`]).

use std::cmp::Ordering;

use vortex_common::row::Value;
use vortex_common::truetime::Timestamp;

/// Logical type of a [`ColumnVec::I64`] vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntKind {
    /// `Value::Int64`.
    Int64,
    /// `Value::Date` (every element fits `i32`).
    Date,
    /// `Value::Timestamp` (the `u64` micros, reinterpreted).
    Timestamp,
}

/// Logical type of a [`ColumnVec::Str`] vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrKind {
    /// `Value::String` (every row is valid UTF-8).
    String,
    /// `Value::Json` (every row is valid UTF-8).
    Json,
    /// `Value::Bytes`.
    Bytes,
}

/// A null bitmap in the on-disk form: bit `i % 8` of byte `i / 8` set
/// means row `i` is NULL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nulls(pub(crate) Vec<u8>);

impl Nulls {
    /// Whether row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        self.0[i / 8] >> (i % 8) & 1 == 1
    }
}

pub(crate) fn null_at(nulls: &Option<Nulls>, i: usize) -> bool {
    nulls.as_ref().is_some_and(|n| n.is_null(i))
}

/// A fixed-width leaf: one element per row, a placeholder at NULL rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Prim<T> {
    /// One element per row.
    pub values: Vec<T>,
    /// NULL rows, if any.
    pub nulls: Option<Nulls>,
}

/// A variable-width leaf: row `i` is `bytes[offsets[i]..offsets[i + 1]]`,
/// empty at NULL rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Strs {
    /// Row boundaries within `bytes`, ascending; one more than rows.
    pub offsets: Vec<u32>,
    /// The rows' bytes, back to back.
    pub bytes: Vec<u8>,
    /// NULL rows, if any.
    pub nulls: Option<Nulls>,
}

impl Strs {
    /// The bytes of row `i`.
    pub fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// One decoded column chunk. `Dict` and `Runs` nest a leaf vector, so the
/// compressed structure survives decoding and a predicate can be decided
/// once per dictionary entry or per run. As built by
/// [`crate::encoding::decode_chunk`], every code indexes `dict`, every
/// run length is ≥ 1 and `values` has one row per run.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVec {
    /// Int64 / Date / Timestamp.
    I64(IntKind, Prim<i64>),
    /// Float64, bit-exact (NaN payloads and -0.0 survive).
    F64(Prim<f64>),
    /// Bool.
    Bool(Prim<bool>),
    /// Numeric (fixed-point ×10⁹).
    I128(Prim<i128>),
    /// String / Json / Bytes.
    Str(StrKind, Strs),
    /// Struct / Array cells and columns of mixed type.
    Any(Vec<Value>),
    /// Dictionary codes over a vector of the distinct values.
    Dict {
        /// Per-row index into `dict`.
        codes: Vec<u32>,
        /// The distinct values.
        dict: Box<ColumnVec>,
    },
    /// Run lengths over a vector of the run values.
    Runs {
        /// Per-run row count.
        lens: Vec<u32>,
        /// Per-run value.
        values: Box<ColumnVec>,
    },
}

/// Calls `f` with the run each of the ascending `rows` falls in.
fn for_each_run(lens: &[u32], rows: impl IntoIterator<Item = usize>, mut f: impl FnMut(usize)) {
    let (mut run, mut end) = (0usize, lens.first().map_or(0, |&l| l as usize));
    for i in rows {
        while i >= end {
            run += 1;
            end += lens[run] as usize;
        }
        f(run);
    }
}

impl ColumnVec {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::I64(_, p) => p.values.len(),
            ColumnVec::F64(p) => p.values.len(),
            ColumnVec::Bool(p) => p.values.len(),
            ColumnVec::I128(p) => p.values.len(),
            ColumnVec::Str(_, s) => s.offsets.len().saturating_sub(1),
            ColumnVec::Any(values) => values.len(),
            ColumnVec::Dict { codes, .. } => codes.len(),
            ColumnVec::Runs { lens, .. } => lens.iter().map(|&l| l as usize).sum(),
        }
    }

    /// Whether the vector has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Peels `Dict` / `Runs`: the leaf vector under this one and, for
    /// each of the strictly ascending in-bounds `rows`, its index there
    /// (`buf` backs the indices when they differ from `rows`).
    pub fn resolve<'a>(
        &'a self,
        rows: &'a [usize],
        buf: &'a mut Vec<usize>,
    ) -> (&'a ColumnVec, &'a [usize]) {
        buf.clear();
        match self {
            ColumnVec::Dict { codes, dict } => {
                buf.extend(rows.iter().map(|&i| codes[i] as usize));
                (dict, buf)
            }
            ColumnVec::Runs { lens, values } => {
                for_each_run(lens, rows.iter().copied(), |run| buf.push(run));
                (values, buf)
            }
            leaf => (leaf, rows),
        }
    }

    /// Whether row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnVec::I64(_, p) => null_at(&p.nulls, i),
            ColumnVec::F64(p) => null_at(&p.nulls, i),
            ColumnVec::Bool(p) => null_at(&p.nulls, i),
            ColumnVec::I128(p) => null_at(&p.nulls, i),
            ColumnVec::Str(_, s) => null_at(&s.nulls, i),
            ColumnVec::Any(values) => values[i].is_null(),
            nested => nested.value(i).is_null(),
        }
    }

    /// Builds the [`Value`] of row `i` (a linear walk on `Runs`; use
    /// [`ColumnVec::gather`] for more than one row).
    pub fn value(&self, i: usize) -> Value {
        // Strings were validated at decode, so `lossy` replaces nothing.
        let text = |s: &Strs| String::from_utf8_lossy(s.get(i)).into_owned();
        match self {
            ColumnVec::Dict { codes, dict } => dict.value(codes[i] as usize),
            ColumnVec::Runs { lens, values } => {
                let mut at = 0;
                for_each_run(lens, [i], |run| at = run);
                values.value(at)
            }
            leaf if leaf.is_null(i) => Value::Null,
            ColumnVec::I64(IntKind::Int64, p) => Value::Int64(p.values[i]),
            ColumnVec::I64(IntKind::Date, p) => Value::Date(p.values[i] as i32),
            ColumnVec::I64(IntKind::Timestamp, p) => {
                Value::Timestamp(Timestamp::from_micros(p.values[i] as u64))
            }
            ColumnVec::F64(p) => Value::Float64(p.values[i]),
            ColumnVec::Bool(p) => Value::Bool(p.values[i]),
            ColumnVec::I128(p) => Value::Numeric(p.values[i]),
            ColumnVec::Str(StrKind::Bytes, s) => Value::Bytes(s.get(i).to_vec()),
            ColumnVec::Str(StrKind::String, s) => Value::String(text(s)),
            ColumnVec::Str(StrKind::Json, s) => Value::Json(text(s)),
            ColumnVec::Any(values) => values[i].clone(),
        }
    }

    /// Builds the values of the strictly ascending in-bounds `rows` — the
    /// late-materialization gather — and hands `put` each with its index
    /// in `rows`.
    pub fn gather(&self, rows: impl IntoIterator<Item = usize>, mut put: impl FnMut(usize, Value)) {
        match self {
            ColumnVec::Runs { lens, values } => {
                let mut k = 0;
                for_each_run(lens, rows, |run| {
                    put(k, values.value(run));
                    k += 1;
                })
            }
            other => (rows.into_iter().enumerate()).for_each(|(k, i)| put(k, other.value(i))),
        }
    }

    /// Every row's value, in order.
    pub fn to_values(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.len());
        self.gather(0..self.len(), |_, v| out.push(v));
        out
    }

    /// `self.value(i).total_cmp(other)` for a non-NULL row, without
    /// building the value when the types line up.
    pub fn cmp_at(&self, i: usize, other: &Value) -> Ordering {
        match (self, other) {
            (ColumnVec::I64(IntKind::Int64, p), Value::Int64(x)) => p.values[i].cmp(x),
            (ColumnVec::F64(p), Value::Float64(x)) => p.values[i].total_cmp(x),
            (ColumnVec::I128(p), Value::Numeric(x)) => p.values[i].cmp(x),
            (ColumnVec::Str(StrKind::String, s), Value::String(x)) => s.get(i).cmp(x.as_bytes()),
            _ => self.value(i).total_cmp(other),
        }
    }
}
