//! Compute pushdown over compressed ROS blocks (§7.2 plus ROADMAP's
//! "cascading encodings with compute pushdown", after spiraldb Vortex).
//!
//! Every scan runs through this module. A ROS block never has all its
//! rows materialized before the predicate runs; the predicate is
//! evaluated *inside* the block instead:
//!
//! 1. **Zone-map short-circuit** — every column chunk (one zone of
//!    [`vortex_ros::ZONE_ROWS`] rows) carries min/max/null properties;
//!    zones the predicate provably cannot match are never decoded.
//! 2. **Dictionary-id rewrite** — on dictionary chunks the leaf predicate
//!    runs once per distinct value, then rows are selected by indexing
//!    the resulting truth table with their u32 codes.
//! 3. **Run-level evaluation** — on RLE chunks the leaf is decided once
//!    per run and the verdict replicated across the run.
//! 4. **Late materialization** — only projected columns are decoded, and
//!    only at the row positions the filter selected.
//!
//! WOS fragments and streamlet tails are row-oriented and arrive
//! decoded; [`scan_rows`] filters and projects them with [`Expr::eval`],
//! so both storage formats yield the same thing: already-filtered,
//! already-projected rows.
//!
//! Equivalence contract: for any predicate and block, the selected rows
//! are exactly those [`Expr::eval`] keeps over the visible rows — leaf
//! semantics (NULL comparisons false,
//! [`vortex_common::row::Value::total_cmp`] ordering) mirror it case for
//! case, and row visibility is the client's
//! [`vortex_client::read::RowGate`]. `crates/query/src/tests.rs` pins
//! this with an equivalence proptest against a `read_rows_at` +
//! `Expr::eval` oracle.

use std::cmp::Ordering;

use vortex_client::read::{pad_rows, RowGate};
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::row::{Row, Value};
use vortex_common::schema::Schema;
use vortex_common::truetime::Timestamp;
use vortex_ros::{DecodedChunk, RosBlock, RowMeta};

use crate::expr::{CmpOp, Expr};

/// A predicate compiled against the snapshot schema: column names are
/// resolved to positional indices once, so per-zone evaluation does no
/// string lookups. Compilation fails on unknown columns.
#[derive(Debug, Clone)]
pub(crate) enum CPred {
    /// Always true.
    True,
    /// `col <op> literal`.
    Cmp {
        /// Schema column index.
        col: usize,
        /// Operator.
        op: CmpOp,
        /// Literal.
        value: Value,
    },
    /// `col IN (...)`.
    In {
        /// Schema column index.
        col: usize,
        /// Literals.
        values: Vec<Value>,
    },
    /// `col IS NULL`.
    IsNull(usize),
    /// Conjunction.
    And(Box<CPred>, Box<CPred>),
    /// Disjunction.
    Or(Box<CPred>, Box<CPred>),
    /// Negation.
    Not(Box<CPred>),
}

impl CPred {
    /// Resolves every column reference of `e` against `schema`.
    pub(crate) fn compile(e: &Expr, schema: &Schema) -> VortexResult<CPred> {
        let col = |c: &str| {
            schema
                .column_index(c)
                .ok_or_else(|| VortexError::InvalidArgument(format!("unknown column {c}")))
        };
        Ok(match e {
            Expr::True => CPred::True,
            Expr::Cmp { column, op, value } => CPred::Cmp {
                col: col(column)?,
                op: *op,
                value: value.clone(),
            },
            Expr::In { column, values } => CPred::In {
                col: col(column)?,
                values: values.clone(),
            },
            Expr::IsNull(column) => CPred::IsNull(col(column)?),
            Expr::And(a, b) => CPred::And(
                Box::new(CPred::compile(a, schema)?),
                Box::new(CPred::compile(b, schema)?),
            ),
            Expr::Or(a, b) => CPred::Or(
                Box::new(CPred::compile(a, schema)?),
                Box::new(CPred::compile(b, schema)?),
            ),
            Expr::Not(a) => CPred::Not(Box::new(CPred::compile(a, schema)?)),
        })
    }

    /// The zone-map short-circuit: `false` means no row of zone `z` can
    /// satisfy the predicate. Columns past the block's arity were added
    /// by later schema versions and read as NULL for every row, which
    /// decides those leaves exactly instead of conservatively.
    fn may_match_zone(&self, block: &RosBlock, z: usize) -> bool {
        match self {
            CPred::True => true,
            CPred::Cmp { col, op, value } => {
                if *col >= block.column_count() {
                    return false; // all-NULL column: comparisons are false
                }
                let Some(s) = block.zone_stats(*col, z) else {
                    return true;
                };
                match op {
                    CmpOp::Eq => s.may_contain_point(value),
                    CmpOp::Ne => true,
                    CmpOp::Lt | CmpOp::Le => s.may_overlap_range(None, Some(value)),
                    CmpOp::Gt | CmpOp::Ge => s.may_overlap_range(Some(value), None),
                }
            }
            CPred::In { col, values } => {
                if *col >= block.column_count() {
                    return false;
                }
                let Some(s) = block.zone_stats(*col, z) else {
                    return true;
                };
                values.iter().any(|v| s.may_contain_point(v))
            }
            CPred::IsNull(col) => {
                if *col >= block.column_count() {
                    return true; // all-NULL column: IS NULL always matches
                }
                block
                    .zone_stats(*col, z)
                    .map(|s| s.has_null)
                    .unwrap_or(true)
            }
            CPred::And(a, b) => a.may_match_zone(block, z) && b.may_match_zone(block, z),
            CPred::Or(a, b) => a.may_match_zone(block, z) || b.may_match_zone(block, z),
            // NOT needs interval complements to prune; stay safe.
            CPred::Not(_) => true,
        }
    }

    /// Evaluates the predicate over one zone, one verdict per row.
    /// Decodes only referenced columns; dictionary and run chunks are
    /// decided per distinct value / per run, not per row.
    // lint:hotpath(pushdown) — selective-scan kernel: zone predicate evaluation
    fn eval_zone(&self, cols: &mut ZoneCols<'_>, n: usize) -> VortexResult<Vec<bool>> {
        Ok(match self {
            CPred::True => vec![true; n],
            CPred::Cmp { col, op, value } => {
                let op = *op;
                leaf_mask(cols.get(*col)?, n, &|v| cmp_value(v, op, value))
            }
            CPred::In { col, values } => leaf_mask(cols.get(*col)?, n, &|v| in_list(v, values)),
            CPred::IsNull(col) => leaf_mask(cols.get(*col)?, n, &Value::is_null),
            CPred::And(a, b) => {
                let mut m = a.eval_zone(cols, n)?;
                if m.iter().any(|&x| x) {
                    for (x, y) in m.iter_mut().zip(b.eval_zone(cols, n)?) {
                        *x = *x && y;
                    }
                }
                m
            }
            CPred::Or(a, b) => {
                let mut m = a.eval_zone(cols, n)?;
                if m.iter().any(|&x| !x) {
                    for (x, y) in m.iter_mut().zip(b.eval_zone(cols, n)?) {
                        *x = *x || y;
                    }
                }
                m
            }
            CPred::Not(a) => {
                let mut m = a.eval_zone(cols, n)?;
                for x in m.iter_mut() {
                    *x = !*x;
                }
                m
            }
        })
    }
}

/// Mirrors [`Expr::eval`]'s comparison leaf: NULL on either side is
/// false; otherwise total order.
fn cmp_value(v: &Value, op: CmpOp, lit: &Value) -> bool {
    if v.is_null() || lit.is_null() {
        return false;
    }
    let ord = v.total_cmp(lit);
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// Mirrors [`Expr::eval`]'s IN leaf: NULL row values and NULL list
/// elements never match.
fn in_list(v: &Value, list: &[Value]) -> bool {
    !v.is_null()
        && list
            .iter()
            .any(|l| !l.is_null() && v.total_cmp(l) == Ordering::Equal)
}

/// Applies a leaf predicate over a chunk: once per dictionary entry on
/// Dict chunks, once per run on Runs chunks, per row otherwise. A chunk
/// of `None` is a column this block predates (every row reads NULL).
fn leaf_mask(chunk: Option<&DecodedChunk>, n: usize, f: &dyn Fn(&Value) -> bool) -> Vec<bool> {
    let Some(chunk) = chunk else {
        return vec![f(&Value::Null); n];
    };
    match chunk {
        DecodedChunk::Values(vs) => vs.iter().map(f).collect(),
        DecodedChunk::Dict { dict, codes } => {
            let table: Vec<bool> = dict.iter().map(f).collect();
            codes.iter().map(|&c| table[c as usize]).collect()
        }
        DecodedChunk::Runs { lens, values } => {
            let mut out = Vec::with_capacity(n);
            for (&len, v) in lens.iter().zip(values) {
                out.resize(out.len() + len as usize, f(v));
            }
            out
        }
    }
}

/// Lazily decoded chunks of one zone, shared between predicate leaves
/// (two leaves on the same column decode it once) and the projection
/// gather.
struct ZoneCols<'b> {
    block: &'b RosBlock,
    z: usize,
    cols: Vec<Option<DecodedChunk>>,
}

impl<'b> ZoneCols<'b> {
    fn new(block: &'b RosBlock, z: usize) -> Self {
        ZoneCols {
            block,
            z,
            cols: (0..block.column_count()).map(|_| None).collect(),
        }
    }

    /// The decoded chunk for schema column `col`, or `None` when the
    /// block predates the column (rows read NULL).
    fn get(&mut self, col: usize) -> VortexResult<Option<&DecodedChunk>> {
        if col >= self.cols.len() {
            return Ok(None);
        }
        if self.cols[col].is_none() {
            self.cols[col] = Some(self.block.decode_zone(col, self.z)?);
        }
        Ok(self.cols[col].as_ref())
    }
}

/// What a scan pushes down to every fragment and tail: the predicate
/// (compiled for ROS blocks, as written for decoded rows) and the
/// projection.
#[derive(Debug)]
pub(crate) struct ScanPlan<'e> {
    expr: &'e Expr,
    pred: CPred,
    /// Schema column indices to materialize (`None` = all); other
    /// columns read NULL.
    proj: Option<Vec<usize>>,
    /// Snapshot-schema column count; every yielded row has this arity.
    arity: usize,
    /// Whether to collect [`FragmentYield::visible_ts`].
    want_visible_ts: bool,
}

impl<'e> ScanPlan<'e> {
    /// Resolves the predicate's and the projection's column names against
    /// the snapshot schema; an unknown name is `InvalidArgument`.
    pub(crate) fn compile(
        expr: &'e Expr,
        projection: Option<&[String]>,
        schema: &Schema,
        want_visible_ts: bool,
    ) -> VortexResult<Self> {
        let proj = projection
            .map(|cols| {
                cols.iter()
                    .map(|c| {
                        schema.column_index(c).ok_or_else(|| {
                            VortexError::InvalidArgument(format!("unknown projection column {c}"))
                        })
                    })
                    .collect::<VortexResult<Vec<usize>>>()
            })
            .transpose()?;
        Ok(ScanPlan {
            expr,
            pred: CPred::compile(expr, schema)?,
            proj,
            arity: schema.fields.len(),
            want_visible_ts,
        })
    }
}

/// What one fragment (or the tails) contributes to a scan.
#[derive(Debug, Default)]
pub(crate) struct FragmentYield {
    /// Matching rows — already filtered, projected, and padded to the
    /// snapshot schema arity. The caller must NOT re-filter them (the
    /// projection may have nulled the predicate columns).
    pub rows: Vec<(RowMeta, Row)>,
    /// Commit timestamps of every row *visible* at the snapshot,
    /// predicate or not — the freshness probe (§8) measures when
    /// committed data became readable, not whether a filter kept it.
    pub visible_ts: Vec<Timestamp>,
    /// Zones in the ROS blocks scanned.
    pub zones_total: usize,
    /// Zones skipped via the zone map.
    pub zones_pruned: usize,
    /// Rows decoded: rows of the zones the zone map could not skip, plus
    /// every visible row of a WOS fragment or tail.
    pub rows_scanned: u64,
}

impl FragmentYield {
    /// Folds another fragment's contribution into this one.
    pub(crate) fn absorb(&mut self, other: FragmentYield) {
        self.rows.extend(other.rows);
        self.visible_ts.extend(other.visible_ts);
        self.zones_total += other.zones_total;
        self.zones_pruned += other.zones_pruned;
        self.rows_scanned += other.rows_scanned;
    }
}

/// Filters and projects rows that arrive decoded — a WOS fragment's or a
/// tail's visible rows — with the same outcome [`scan_ros_block`] has on
/// a block: the predicate sees stored values, then columns outside the
/// projection read NULL.
pub(crate) fn scan_rows(
    mut rows: Vec<(RowMeta, Row)>,
    schema: &Schema,
    plan: &ScanPlan<'_>,
) -> VortexResult<FragmentYield> {
    let mut out = FragmentYield {
        rows_scanned: rows.len() as u64,
        ..Default::default()
    };
    if plan.want_visible_ts {
        out.visible_ts = rows.iter().map(|(m, _)| m.ts).collect();
    }
    pad_rows(&mut rows, plan.arity);
    for (meta, mut row) in rows {
        if !plan.expr.eval(schema, &row)? {
            continue;
        }
        if let Some(proj) = &plan.proj {
            for (i, v) in row.values.iter_mut().enumerate() {
                if !proj.contains(&i) {
                    *v = Value::Null;
                }
            }
        }
        out.rows.push((meta, row));
    }
    Ok(out)
}

/// Scans one ROS block with the predicate pushed into the compressed
/// chunks; `gate` decides which block rows the snapshot may see.
pub(crate) fn scan_ros_block(
    block: &RosBlock,
    gate: &RowGate<'_>,
    plan: &ScanPlan<'_>,
) -> VortexResult<FragmentYield> {
    let metas = block.metas();
    let (pred, arity) = (&plan.pred, plan.arity);
    let vis = |idx: usize| gate.admits(idx as u64);
    let mut out = FragmentYield {
        zones_total: block.zone_count(),
        ..Default::default()
    };
    if plan.want_visible_ts {
        out.visible_ts = (0..block.row_count())
            .filter(|&i| vis(i))
            .map(|i| metas[i].ts)
            .collect();
    }
    // Projected columns actually present in this block; later-schema
    // columns stay NULL via the arity padding below.
    let proj: Vec<usize> = match &plan.proj {
        Some(p) => p
            .iter()
            .copied()
            .filter(|&c| c < block.column_count().min(arity))
            .collect(),
        None => (0..block.column_count().min(arity)).collect(),
    };
    let mut sel: Vec<usize> = Vec::new(); // zone-relative selected rows
    let mut gathered: Vec<Value> = Vec::new();
    for z in 0..block.zone_count() {
        if !pred.may_match_zone(block, z) {
            out.zones_pruned += 1;
            continue;
        }
        let range = block.zone_range(z);
        let n = range.len();
        out.rows_scanned += n as u64;
        let mut cols = ZoneCols::new(block, z);
        let mask = pred.eval_zone(&mut cols, n)?;
        sel.clear();
        sel.extend(
            mask.iter()
                .enumerate()
                .filter(|&(i, &keep)| keep && vis(range.start + i))
                .map(|(i, _)| i),
        );
        if sel.is_empty() {
            continue;
        }
        // Late materialization: rows are born all-NULL at schema arity,
        // then each projected column gathers its selected values in.
        let base = out.rows.len();
        for &i in &sel {
            let m = metas[range.start + i];
            out.rows
                .push((m, Row::with_change(vec![Value::Null; arity], m.change_type)));
        }
        for &c in &proj {
            gathered.clear();
            if let Some(chunk) = cols.get(c)? {
                chunk.gather(&sel, &mut gathered);
            }
            for (k, v) in gathered.drain(..).enumerate() {
                out.rows[base + k].1.values[c] = v;
            }
        }
    }
    Ok(out)
}
