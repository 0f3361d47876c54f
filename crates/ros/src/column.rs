//! Typed column vectors: what a ROS column chunk decodes to.
//!
//! A [`ColumnVec`] holds one zone of one column as a typed vector plus a
//! null bitmap, or as dictionary codes / run lengths over such a vector,
//! so predicates and aggregates run as loops over `i64` / `f64` / byte
//! slices and a [`Value`] is only built for a cell that leaves the engine
//! ([`ColumnVec::value`], [`ColumnVec::gather`]).

use std::cmp::Ordering;
use std::hash::Hash;

use vortex_common::codec::{self, decode_value, get_len, get_uvarint, take};
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::obs::{Counter, Lazy, Registry};
use vortex_common::row::Value;
use vortex_common::schema::ChangeType;
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

impl StrKind {
    /// The bytes of `v` if it is a value of this kind, which a cell of
    /// the kind orders against byte for byte ([`Value::total_cmp`]).
    pub fn bytes_of(self, v: &Value) -> Option<&[u8]> {
        match (self, v) {
            (StrKind::String, Value::String(x)) => Some(x.as_bytes()),
            (StrKind::Json, Value::Json(x)) => Some(x.as_bytes()),
            (StrKind::Bytes, Value::Bytes(x)) => Some(x),
            _ => None,
        }
    }
}

/// A null bitmap in the on-disk form: bit `i % 8` of byte `i / 8` set
/// means row `i` is NULL.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

/// `nulls`, or the bitmap of the in-bounds `rows` alone in the order
/// given: `None` when none of them is NULL.
pub(crate) fn nulls_at(nulls: Option<Nulls>, rows: Option<&[usize]>) -> Option<Nulls> {
    let Some(rows) = rows else { return nulls };
    let mut picked = None;
    for (k, _) in (rows.iter().enumerate()).filter(|(_, &i)| null_at(&nulls, i)) {
        // lint:allow(L010, once per chunk decoded at a selection, sized by the selection)
        let bits: &mut Nulls = picked.get_or_insert_with(|| Nulls(vec![0; rows.len().div_ceil(8)]));
        bits.0[k / 8] |= 1 << (k % 8);
    }
    picked
}

/// A fixed-width leaf: one element per row, a placeholder at NULL rows.
#[derive(Debug, Clone, Default, PartialEq)]
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

    /// Whether row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        null_at(&self.nulls, i)
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

/// A pass over the rows of a typed leaf seen as one key per row, `None`
/// at NULL rows: the keys' `Ord` is the clustering order of the cells
/// ([`Value::total_cmp`]) and their `Eq` / `Hash` are [`Value::key_eq`]'s,
/// so runs, dictionaries and zone maps come out as they would from the
/// cells' values. [`ColumnVec::with_keys`] picks the key type once per
/// vector and the pass is compiled for it, instead of dispatching on the
/// vector's type at every cell.
pub trait KeyedRows {
    /// What the pass computes.
    type Out;
    /// The pass, over rows `0..n`.
    fn fold_keys<K: Ord + Hash>(self, n: usize, key: impl Fn(usize) -> Option<K>) -> Self::Out;
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

    /// The bytes the vector's elements take on the heap (an `Any` cell
    /// counted at its inline size).
    pub fn heap_bytes(&self) -> usize {
        fn prim<T>(p: &Prim<T>) -> usize {
            std::mem::size_of_val(&p.values[..]) + p.nulls.as_ref().map_or(0, |n| n.0.len())
        }
        match self {
            ColumnVec::I64(_, p) => prim(p),
            ColumnVec::F64(p) => prim(p),
            ColumnVec::Bool(p) => prim(p),
            ColumnVec::I128(p) => prim(p),
            ColumnVec::Str(_, s) => 4 * s.offsets.len() + s.bytes.len(),
            ColumnVec::Any(values) => std::mem::size_of_val(&values[..]),
            ColumnVec::Dict { codes, dict } => 4 * codes.len() + dict.heap_bytes(),
            ColumnVec::Runs { lens, values } => 4 * lens.len() + values.heap_bytes(),
        }
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
            ColumnVec::Str(_, s) => s.is_null(i),
            ColumnVec::Any(values) => values[i].is_null(),
            nested => nested.value(i).is_null(),
        }
    }

    /// Builds the [`Value`] of row `i` (a linear walk on `Runs`; use
    /// [`ColumnVec::gather`] for more than one row).
    pub fn value(&self, i: usize) -> Value {
        // Strings were validated at decode, a chunk's buffer whole: one
        // fast check and a copy. The lossy form only keeps this total.
        let text = |s: &Strs| match std::str::from_utf8(s.get(i)) {
            Ok(text) => text.to_owned(),
            Err(_) => String::from_utf8_lossy(s.get(i)).into_owned(),
        };
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
            (ColumnVec::Str(kind, s), _) => match kind.bytes_of(other) {
                Some(x) => s.get(i).cmp(x),
                None => self.value(i).total_cmp(other),
            },
            _ => self.value(i).total_cmp(other),
        }
    }
}

// ---------------------------------------------------------------------------
// The write side: leaf vectors grown cell by cell.
// ---------------------------------------------------------------------------

static CELLS_BY_VALUE: Lazy<Counter> = Lazy::new("ros.cells_by_value", Registry::counter);

/// Records whether row `i` — the next row of a growing vector — is NULL.
/// The bitmap exists from the first NULL on and then covers every row.
fn mark_row(nulls: &mut Option<Nulls>, i: usize, null: bool) {
    if !null && nulls.is_none() {
        return;
    }
    let bits = &mut nulls.get_or_insert_with(Nulls::default).0;
    if bits.len() <= i / 8 {
        bits.resize(i / 8 + 1, 0);
    }
    if null {
        bits[i / 8] |= 1 << (i % 8);
    }
}

impl<T: Copy + Default> Prim<T> {
    /// Adds one row; `None` is NULL.
    fn add_cell(&mut self, v: Option<T>) {
        mark_row(&mut self.nulls, self.values.len(), v.is_none());
        // lint:allow(L010, grows a column under construction; its only scan edge is the name-resolved `RosBlockBuilder::push`)
        self.values.push(v.unwrap_or_default());
    }

    /// Adds the in-bounds `rows` of `src`: a copy of the elements while
    /// neither side has a NULL.
    fn add_cells(&mut self, src: &Prim<T>, rows: impl Iterator<Item = usize>) {
        match (&self.nulls, &src.nulls) {
            // lint:allow(L010, grows a column under construction; its only scan edge is the name-resolved `RosBlockBuilder::push`)
            (None, None) => self.values.extend(rows.map(|i| src.values[i])),
            _ => rows.for_each(|i| self.add_cell((!null_at(&src.nulls, i)).then(|| src.values[i]))),
        }
    }
}

impl Strs {
    fn blank() -> Self {
        // lint:allow(L010, grows a column under construction; its only scan edge is the name-resolved `RosBlockBuilder::push`)
        let (offsets, bytes, nulls) = (vec![0], Vec::new(), None);
        Strs {
            offsets,
            bytes,
            nulls,
        }
    }

    /// Whether `more` bytes still fit under the `u32` offsets.
    fn fits(&self, more: usize) -> bool {
        u32::try_from(self.bytes.len().saturating_add(more)).is_ok()
    }

    /// Adds one row that [`Strs::fits`]; `None` is NULL.
    fn add_cell(&mut self, v: Option<&[u8]>) {
        mark_row(&mut self.nulls, self.offsets.len() - 1, v.is_none());
        // lint:allow(L010, grows a column under construction; its only scan edge is the name-resolved `RosBlockBuilder::push`)
        self.bytes.extend_from_slice(v.unwrap_or_default());
        // lint:allow(L010, grows a column under construction; its only scan edge is the name-resolved `RosBlockBuilder::push`)
        self.offsets.push(self.bytes.len() as u32);
    }

    /// Adds the in-bounds `rows` of `src` up to the first that does not
    /// [`Strs::fits`], which it returns.
    fn add_cells(&mut self, src: &Strs, rows: impl Iterator<Item = usize>) -> Option<usize> {
        for i in rows {
            let cell = (!null_at(&src.nulls, i)).then(|| src.get(i));
            if !self.fits(cell.map_or(0, <[u8]>::len)) {
                return Some(i);
            }
            self.add_cell(cell);
        }
        None
    }
}

impl ColumnVec {
    /// `self.value(i).total_cmp(&other.value(j))` for two leaf vectors,
    /// without building a value when their types line up — the clustering
    /// order, NULLs first.
    pub fn cmp_rows(&self, i: usize, other: &ColumnVec, j: usize) -> Ordering {
        match (self.is_null(i), other.is_null(j)) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {}
        }
        match (self, other) {
            (ColumnVec::I64(IntKind::Timestamp, a), ColumnVec::I64(IntKind::Timestamp, b)) => {
                (a.values[i] as u64).cmp(&(b.values[j] as u64))
            }
            (ColumnVec::I64(ka, a), ColumnVec::I64(kb, b)) if ka == kb => {
                a.values[i].cmp(&b.values[j])
            }
            (ColumnVec::F64(a), ColumnVec::F64(b)) => a.values[i].total_cmp(&b.values[j]),
            (ColumnVec::Bool(a), ColumnVec::Bool(b)) => a.values[i].cmp(&b.values[j]),
            (ColumnVec::I128(a), ColumnVec::I128(b)) => a.values[i].cmp(&b.values[j]),
            (ColumnVec::Str(ka, a), ColumnVec::Str(kb, b)) if ka == kb => a.get(i).cmp(b.get(j)),
            _ => self.value(i).total_cmp(&other.value(j)),
        }
    }

    /// Runs `pass` over a typed leaf's [`KeyedRows`] view. `None` for
    /// `Any` and nested vectors, whose cells have no such key.
    pub fn with_keys<P: KeyedRows>(&self, pass: P) -> Option<P::Out> {
        fn at<T>(nulls: &Option<Nulls>, i: usize, v: T) -> Option<T> {
            (!null_at(nulls, i)).then_some(v)
        }
        // What `f64::total_cmp` compares: a bijection of the bits.
        let ordered = |f: f64| {
            let bits = f.to_bits() as i64;
            bits ^ (((bits >> 63) as u64) >> 1) as i64
        };
        let n = self.len();
        Some(match self {
            ColumnVec::I64(IntKind::Timestamp, p) => {
                pass.fold_keys(n, |i| at(&p.nulls, i, p.values[i] as u64))
            }
            ColumnVec::I64(_, p) => pass.fold_keys(n, |i| at(&p.nulls, i, p.values[i])),
            ColumnVec::F64(p) => pass.fold_keys(n, |i| at(&p.nulls, i, ordered(p.values[i]))),
            ColumnVec::Bool(p) => pass.fold_keys(n, |i| at(&p.nulls, i, p.values[i])),
            ColumnVec::I128(p) => pass.fold_keys(n, |i| at(&p.nulls, i, p.values[i])),
            ColumnVec::Str(_, s) => pass.fold_keys(n, |i| at(&s.nulls, i, s.get(i))),
            _ => return None,
        })
    }

    /// Appends [`Value::encode_key`] of row `i` to `out`, allocating
    /// nothing for a typed leaf.
    pub fn key_into(&self, i: usize, out: &mut Vec<u8>) {
        match self {
            ColumnVec::Str(kind, s) if !null_at(&s.nulls, i) => {
                // A string's key is its type's key prefix, then its bytes.
                match kind {
                    // lint:allow(L010, an empty string allocates nothing)
                    StrKind::String => Value::String(String::new()),
                    // lint:allow(L010, an empty string allocates nothing)
                    StrKind::Json => Value::Json(String::new()),
                    // lint:allow(L010, an empty vector allocates nothing)
                    StrKind::Bytes => Value::Bytes(Vec::new()),
                }
                .encode_key_into(out);
                // lint:allow(L010, appends to the key buffer the caller reuses)
                out.extend_from_slice(s.get(i));
            }
            ColumnVec::Any(values) => values[i].encode_key_into(out),
            // A fixed-width cell's value lives on the stack.
            other => other.value(i).encode_key_into(out),
        }
    }

    /// Whether this is a leaf of one type: not `Any`, `Dict` or `Runs`.
    pub fn is_typed_leaf(&self) -> bool {
        !matches!(
            self,
            ColumnVec::Any(_) | ColumnVec::Dict { .. } | ColumnVec::Runs { .. }
        )
    }

    /// An empty leaf of this typed leaf's type; `None` for `Any` and
    /// nested vectors.
    fn blank(&self) -> Option<ColumnVec> {
        Some(match self {
            ColumnVec::I64(kind, _) => ColumnVec::I64(*kind, Prim::default()),
            ColumnVec::F64(_) => ColumnVec::F64(Prim::default()),
            ColumnVec::Bool(_) => ColumnVec::Bool(Prim::default()),
            ColumnVec::I128(_) => ColumnVec::I128(Prim::default()),
            ColumnVec::Str(kind, _) => ColumnVec::Str(*kind, Strs::blank()),
            _ => return None,
        })
    }

    /// Adds a NULL row to a leaf under construction.
    fn add_null(&mut self) {
        match self {
            ColumnVec::I64(_, p) => p.add_cell(None),
            ColumnVec::F64(p) => p.add_cell(None),
            ColumnVec::Bool(p) => p.add_cell(None),
            ColumnVec::I128(p) => p.add_cell(None),
            ColumnVec::Str(_, s) => s.add_cell(None),
            untyped => untyped.add_untyped(Value::Null),
        }
    }

    /// Adds `v` as `Any` holds it, which the vector becomes if need be.
    fn add_untyped(&mut self, v: Value) {
        if !matches!(self, ColumnVec::Any(_)) {
            *self = ColumnVec::Any(self.to_values());
        }
        if let ColumnVec::Any(values) = self {
            // lint:allow(L010, grows a column under construction; its only scan edge is the name-resolved `RosBlockBuilder::push`)
            values.push(v);
        }
    }

    /// The rows at the strictly ascending in-bounds `rows` as one leaf
    /// vector, `Dict` / `Runs` flattened — the vector itself when that
    /// is every row of a typed leaf.
    pub fn into_leaf(self, rows: &[usize]) -> ColumnVec {
        if self.is_typed_leaf() && rows.len() == self.len() {
            return self;
        }
        // lint:allow(L010, once per chunk decoded whole and picked from)
        let mut buf = Vec::new();
        let (leaf, at) = self.resolve(rows, &mut buf);
        let mut out = ColumnBuilder::default();
        out.add_rows(leaf, at.iter().copied());
        out.into_column()
    }
}

/// Builds one leaf [`ColumnVec`] cell by cell — the write side's twin of
/// a decoded chunk. The first non-NULL cell names the leaf type; a cell
/// of another type, a Struct / Array cell, or a string vector about to
/// outgrow its `u32` offsets turns the column into `Any`. So a column
/// has a typed vector whenever its cells allow one, whichever way they
/// arrived, and only then.
#[derive(Debug, Default)]
pub struct ColumnBuilder {
    rows: usize,
    /// `None` while every row is NULL.
    col: Option<ColumnVec>,
}

impl ColumnBuilder {
    /// Adds one row from its wire encoding ([`codec::encode_value`]) at
    /// `pos` of `buf`, which moves past it, under every check
    /// [`decode_value`] makes. Only a string cell would allocate as a
    /// [`Value`]: one that continues a string vector is checked and copied
    /// straight into it. Any other cell is decoded and added by value.
    pub fn add_encoded(&mut self, buf: &[u8], pos: &mut usize) -> VortexResult<()> {
        if let (Some(ColumnVec::Str(kind, s)), Some(tag)) = (&mut self.col, buf.get(*pos)) {
            let at = &mut (*pos + 1);
            let continues = match kind {
                StrKind::String => *tag == codec::TAG_STRING,
                StrKind::Json => *tag == codec::TAG_JSON,
                StrKind::Bytes => *tag == codec::TAG_BYTES,
            };
            if continues {
                let len = get_len(buf, at)?;
                let cell = take(buf, at, len)?;
                if *kind != StrKind::Bytes {
                    std::str::from_utf8(cell)
                        .map_err(|_| VortexError::Decode("bad utf8".into()))?;
                }
                if s.fits(cell.len()) {
                    s.add_cell(Some(cell));
                    (self.rows, *pos) = (self.rows + 1, *at);
                    return Ok(());
                }
            }
        }
        self.add_value(decode_value(buf, pos)?);
        Ok(())
    }

    /// Adds one row, moving the cell into the column.
    pub fn add_value(&mut self, v: Value) {
        self.rows += 1;
        if v.is_null() {
            return self.col.iter_mut().for_each(ColumnVec::add_null);
        }
        let col = self.col.get_or_insert_with(|| {
            let mut col = match &v {
                Value::Int64(_) => ColumnVec::I64(IntKind::Int64, Prim::default()),
                Value::Date(_) => ColumnVec::I64(IntKind::Date, Prim::default()),
                Value::Timestamp(_) => ColumnVec::I64(IntKind::Timestamp, Prim::default()),
                Value::Float64(_) => ColumnVec::F64(Prim::default()),
                Value::Bool(_) => ColumnVec::Bool(Prim::default()),
                Value::Numeric(_) => ColumnVec::I128(Prim::default()),
                Value::String(_) => ColumnVec::Str(StrKind::String, Strs::blank()),
                Value::Json(_) => ColumnVec::Str(StrKind::Json, Strs::blank()),
                Value::Bytes(_) => ColumnVec::Str(StrKind::Bytes, Strs::blank()),
                // lint:allow(L010, grows a column under construction; its only scan edge is the name-resolved `RosBlockBuilder::push`)
                _ => ColumnVec::Any(Vec::new()),
            };
            (1..self.rows).for_each(|_| col.add_null());
            col
        });
        match (col, v) {
            (ColumnVec::I64(IntKind::Int64, p), Value::Int64(x)) => p.add_cell(Some(x)),
            (ColumnVec::I64(IntKind::Date, p), Value::Date(x)) => p.add_cell(Some(x as i64)),
            (ColumnVec::I64(IntKind::Timestamp, p), Value::Timestamp(t)) => {
                p.add_cell(Some(t.micros() as i64))
            }
            (ColumnVec::F64(p), Value::Float64(x)) => p.add_cell(Some(x)),
            (ColumnVec::Bool(p), Value::Bool(x)) => p.add_cell(Some(x)),
            (ColumnVec::I128(p), Value::Numeric(x)) => p.add_cell(Some(x)),
            (ColumnVec::Str(kind, s), v) if kind.bytes_of(&v).is_some_and(|x| s.fits(x.len())) => {
                s.add_cell(kind.bytes_of(&v))
            }
            (col, v) => col.add_untyped(v),
        }
    }

    /// Adds the in-bounds `rows` of the leaf vector `src`, in the order
    /// given. The types are matched once per call: a typed `src` whose
    /// type the column has — or takes, at its first value — is copied
    /// straight across; a cell of another type, of an `Any` or nested
    /// `src`, or past a string vector's `u32` offsets goes by value
    /// (`ros.cells_by_value`).
    pub fn add_rows(&mut self, src: &ColumnVec, rows: impl IntoIterator<Item = usize>) {
        let mut rows = rows.into_iter();
        let mut first = None;
        if self.col.is_none() {
            // Leading NULLs leave the column untyped; its first value names it.
            for i in rows.by_ref() {
                if !src.is_null(i) {
                    first = Some(i);
                    break;
                }
                self.rows += 1;
            }
            let Some(mut col) = first.and_then(|_| src.blank()) else {
                return self.by_value(src, first.into_iter().chain(rows));
            };
            (0..self.rows).for_each(|_| col.add_null());
            self.col = Some(col);
        }
        let mut rows = first.into_iter().chain(rows);
        let mut unfit = None;
        match (&mut self.col, src) {
            (Some(ColumnVec::I64(ka, a)), ColumnVec::I64(kb, b)) if ka == kb => {
                a.add_cells(b, rows.by_ref())
            }
            (Some(ColumnVec::F64(a)), ColumnVec::F64(b)) => a.add_cells(b, rows.by_ref()),
            (Some(ColumnVec::Bool(a)), ColumnVec::Bool(b)) => a.add_cells(b, rows.by_ref()),
            (Some(ColumnVec::I128(a)), ColumnVec::I128(b)) => a.add_cells(b, rows.by_ref()),
            (Some(ColumnVec::Str(ka, a)), ColumnVec::Str(kb, b)) if ka == kb => {
                unfit = a.add_cells(b, rows.by_ref())
            }
            _ => {}
        }
        self.rows = self.col.as_ref().map_or(self.rows, ColumnVec::len);
        self.by_value(src, unfit.into_iter().chain(rows));
    }

    /// Adds the `rows` of `src` one [`Value`] at a time.
    fn by_value(&mut self, src: &ColumnVec, rows: impl Iterator<Item = usize>) {
        let mut cells = 0;
        for i in rows {
            let v = src.value(i);
            cells += !v.is_null() as u64;
            self.add_value(v);
        }
        CELLS_BY_VALUE.add(cells);
    }

    /// The column: `Any` NULLs if no row ever held a value.
    pub fn into_column(self) -> ColumnVec {
        // lint:allow(L010, once per all-NULL column built, sized by its rows)
        (self.col).unwrap_or_else(|| ColumnVec::Any(vec![Value::Null; self.rows]))
    }
}

/// Walks the row set `buf` encodes ([`codec::encode_rowset`]) once, adding
/// each cell to its column of `cols`, which hold `held` rows each: a row
/// wider than any before it starts a column that is NULL so far, and a
/// row that stops short (an older schema version) reads NULL in the rest.
/// Hands `row` every row's change type and width in order and returns the
/// row count. Every cell is checked as [`codec::decode_rowset`] checks it and
/// the bytes must be consumed in full; a declared count the bytes cannot
/// back runs out of them, having allocated nothing on its account, and
/// nothing is allocated per cell.
pub fn add_rowset(
    cols: &mut Vec<ColumnBuilder>,
    held: usize,
    buf: &[u8],
    mut row: impl FnMut(ChangeType, usize),
) -> VortexResult<usize> {
    let mut pos = 0usize;
    let rows = get_uvarint(buf, &mut pos)? as usize;
    for r in 0..rows {
        let truncated = || VortexError::Decode("row truncated".into());
        let kind = *buf.get(pos).ok_or_else(truncated)?;
        pos += 1;
        let width = get_uvarint(buf, &mut pos)? as usize;
        for c in 0..width {
            if c == cols.len() {
                // A column that is NULL in every row so far.
                let (rows, col) = (held + r, None);
                // lint:allow(L010, once per column of a zone under construction)
                cols.push(ColumnBuilder { rows, col });
            }
            cols[c].add_encoded(buf, &mut pos)?;
        }
        (cols.iter_mut().skip(width)).for_each(|col| col.add_value(Value::Null));
        row(ChangeType::from_u8(kind)?, width);
    }
    match pos == buf.len() {
        true => Ok(rows),
        false => Err(VortexError::Decode("trailing bytes after rowset".into())),
    }
}
