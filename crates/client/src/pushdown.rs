//! Compute pushdown over column vectors (§7.2 plus ROADMAP's "cascading
//! encodings with compute pushdown", after spiraldb Vortex).
//!
//! Every scan runs through this module, and through one step: a zone —
//! provenance plus one [`ColumnVec`] per column for a run of rows — is
//! filtered to a selection and folded ([`scan_zone`]). No row exists
//! before the predicate has run.
//!
//! 0. **Index first** — a ROS block arrives opened: held by the read
//!    cache, or by its index alone. Its bloom filter can rule the whole
//!    block out for a point predicate on a key column; what is left gets
//!    one fetch plan ([`ScanPlan::fetches`]) whose adjacent chunks no cell
//!    holds yet are one read ([`vortex_ros::RosBlock::fetch`]). Provenance
//!    is fetched for a consumer that returns rows, and commit timestamps
//!    for the zones that hold rows the freshness probe has not seen.
//! 1. **Zone-map verdicts** — every column chunk (one zone of
//!    [`vortex_ros::ZONE_ROWS`] rows) carries min/max/null properties,
//!    from which each part of the predicate gets a verdict per zone: no
//!    row passes, every row does, or it cannot tell ([`Verdict`]). A zone
//!    no row of which passes is skipped; a decided part reads no column,
//!    and a zone every row of which passes is one under no predicate to
//!    a consumer that takes columns from the index
//!    ([`Consumer::index_answers`]). The plan and the filter take the
//!    verdict from one function, so they cannot disagree.
//! 2. **Typed kernels** — a surviving zone decodes to typed
//!    [`ColumnVec`]s and every predicate leaf is a loop over one of them
//!    (`i64`, `f64`, byte slices); no `Value` is built to compare. An
//!    equality on a string chunk not decoded yet compares its stored
//!    FSST codes with the literal's instead.
//! 3. **Dictionary-id rewrite** — on a `Dict` vector the leaf is decided
//!    once per distinct value and rows look the verdict up by their u32
//!    code; on a `Runs` vector it is decided once per run.
//! 4. **Selection, not rows** — the filter narrows a list of row
//!    positions (the zone's visible rows to begin with), each leaf
//!    testing only what the leaves before it kept. The scan's
//!    [`Consumer`] folds the zone's vectors at the surviving positions:
//!    a row collector gathers the projected columns (late
//!    materialization), a count or an aggregate builds no `Row` at all.
//!    Of a block's zone, unless every row is selected, the columns the
//!    filter read stay whole and every other column the consumer reads —
//!    the rows' provenance too — decodes at the selection only
//!    ([`vortex_ros::RosBlock::decode_zone_at`]).
//!
//! A WOS fragment, a streamlet tail and the rows merge-on-read leaves
//! arrive as decoded [`Zone`]s with their visible rows ([`scan_visible`])
//! and take steps 2 to 4 unchanged. So does DML (`dml`), which finds the
//! rows it masks with this step and evaluates no predicate of its own.
//!
//! Equivalence contract: for any predicate and zone, the selected rows
//! are exactly those `Expr::eval` — the row-at-a-time reference, kept
//! for tests only — keeps over the visible rows: leaf semantics (NULL
//! comparisons false, [`vortex_common::row::Value::total_cmp`] ordering)
//! mirror it case for case, and row visibility is the client's
//! [`crate::read::RowGate`]. `crates/client/src/tests.rs` pins
//! this, for scans and for DML, with proptests against an oracle that
//! runs `Expr::eval` over every row a decode-everything read returns.

use std::borrow::Cow;
use std::cell::{Cell, OnceCell};
use std::cmp::Ordering;
use std::sync::Arc;

use vortex_common::bloom::BloomFilter;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::row::{Row, Value};
use vortex_common::schema::Schema;
use vortex_common::stats::ColumnStats;
use vortex_common::truetime::Timestamp;
use vortex_ros::{Chunk, ColumnBuilder, ColumnVec, IntKind, Picked, RosBlock, RowMeta};
use vortex_sms::meta::FragmentMeta;

use crate::consume::Consumer;
use crate::engine::ScanStats;
use crate::expr::{CmpOp, Expr, Test, Verdict};
use crate::read::{OpenBlock, RowGate, Visible, Zone, ZoneStats};

/// A predicate compiled against the snapshot schema: column names are
/// resolved to positional indices once, so per-zone evaluation does no
/// string lookups, and a comparison with a NULL literal — false for
/// every row — becomes the empty IN list. Literals stay borrowed from
/// the expression. Compilation fails on unknown columns.
#[derive(Debug)]
pub(crate) enum CPred<'e> {
    /// Always true.
    True,
    /// A test on the cells of one schema column.
    Leaf(usize, Test<'e>),
    /// Conjunction.
    And(Box<CPred<'e>>, Box<CPred<'e>>),
    /// Disjunction.
    Or(Box<CPred<'e>>, Box<CPred<'e>>),
    /// Negation.
    Not(Box<CPred<'e>>),
}

impl<'e> CPred<'e> {
    /// Resolves every column reference of `e` against `schema`.
    pub(crate) fn compile(e: &'e Expr, schema: &Schema) -> VortexResult<CPred<'e>> {
        let col = |c: &str| {
            schema
                .column_index(c)
                .ok_or_else(|| VortexError::InvalidArgument(format!("unknown column {c}")))
        };
        let sub = |e: &'e Expr| CPred::compile(e, schema).map(Box::new);
        Ok(match e {
            Expr::True => CPred::True,
            Expr::Cmp { column, value, .. } if value.is_null() => {
                CPred::Leaf(col(column)?, Test::In(&[]))
            }
            Expr::Cmp { column, op, value } => CPred::Leaf(col(column)?, Test::Cmp(*op, value)),
            Expr::In { column, values } => CPred::Leaf(col(column)?, Test::In(values)),
            Expr::IsNull(column) => CPred::Leaf(col(column)?, Test::IsNull),
            Expr::And(a, b) => CPred::And(sub(a)?, sub(b)?),
            Expr::Or(a, b) => CPred::Or(sub(a)?, sub(b)?),
            Expr::Not(a) => CPred::Not(sub(a)?),
        })
    }

    /// What a zone's zone maps decide of the predicate — the one verdict
    /// the fetch plan and the filter both take, of a ROS block's zone and
    /// of a decoded log-file zone alike. Columns past the zone's arity were
    /// added by later schema versions and read as NULL for every row,
    /// which decides those leaves too.
    pub(crate) fn verdict(&self, zone: &impl ZoneMaps) -> Verdict {
        match self {
            CPred::True => Verdict::All,
            CPred::Leaf(col, test) => match zone.map(*col) {
                None if matches!(test, Test::IsNull) => Verdict::All,
                None => Verdict::None,
                Some(map) => map.map_or(Verdict::Some, |s| test.verdict(s)),
            },
            CPred::And(a, b) => a.verdict(zone).min(b.verdict(zone)),
            CPred::Or(a, b) => a.verdict(zone).max(b.verdict(zone)),
            // NULL comparisons are false, so NOT is a complement: it
            // flips a decided verdict.
            CPred::Not(a) => [Verdict::All, Verdict::Some, Verdict::None][a.verdict(zone) as usize],
        }
    }

    /// Whether [`CPred::filter_zone`] of zone `z` reads column `col`: a
    /// leaf on it that no zone map decides, found by the filter's walk.
    fn reads(&self, block: &RosBlock, z: usize, col: usize) -> bool {
        self.verdict(&(block, z)) == Verdict::Some
            && match self {
                CPred::True => false,
                CPred::Leaf(c, _) => *c == col,
                CPred::And(a, b) | CPred::Or(a, b) => {
                    a.reads(block, z, col) || b.reads(block, z, col)
                }
                CPred::Not(a) => a.reads(block, z, col),
            }
    }

    /// Narrows `sel` — ascending zone-relative rows — to the ones the
    /// predicate keeps. Of a block's zone, a part the zone map decides
    /// keeps or drops `sel` whole and reads nothing; a leaf reads its
    /// column — an `=`, `<>` or `IN` leaf the FSST codes of its chunk,
    /// else the column decoded whole. A conjunction tests its right side
    /// on what its left side kept.
    // lint:hotpath(pushdown) — selective-scan kernel: zone predicate evaluation
    fn filter_zone(&self, cols: &ZoneCols<'_>, sel: &mut Vec<usize>) -> VortexResult<()> {
        // Drops from `sel` the rows of `gone`, an ascending subset of it.
        fn remove(sel: &mut Vec<usize>, gone: &[usize]) {
            let mut gone = gone.iter().peekable();
            sel.retain(|i| gone.next_if_eq(&i).is_none());
        }
        let decided = match cols {
            ZoneCols::Block(block, z, _) => self.verdict(&(*block, *z)),
            ZoneCols::Fresh(_, stats) => self.verdict(*stats),
            ZoneCols::Decoded(_) => Verdict::Some,
        };
        match self {
            _ if decided == Verdict::None => sel.clear(),
            _ if decided == Verdict::All => {}
            CPred::True => {}
            CPred::Leaf(col, test) if cols.retain_coded(*col, *test, sel)? => {}
            CPred::Leaf(col, test) => match cols.at(*col, None)? {
                Some((col, _)) => filter_leaf(col, *test, sel),
                None if matches!(test, Test::IsNull) => {}
                None => sel.clear(),
            },
            CPred::And(a, b) => {
                a.filter_zone(cols, sel)?;
                b.filter_zone(cols, sel)?;
            }
            CPred::Or(a, b) => {
                let mut left = sel.clone();
                a.filter_zone(cols, &mut left)?;
                remove(sel, &left);
                b.filter_zone(cols, sel)?;
                sel.extend(left);
                sel.sort_unstable();
            }
            CPred::Not(a) => {
                let mut inner = sel.clone();
                a.filter_zone(cols, &mut inner)?;
                remove(sel, &inner);
            }
        }
        Ok(())
    }
}

/// A zone's statistics as [`CPred::verdict`] reads them.
pub(crate) trait ZoneMaps {
    /// Of column `col`: `None` when the zone's rows predate it, else its
    /// zone map if the zone has one.
    fn map(&self, col: usize) -> Option<Option<&ColumnStats>>;
}

/// Zone `.1` of a ROS block: its index's zone maps.
impl ZoneMaps for (&RosBlock, usize) {
    fn map(&self, col: usize) -> Option<Option<&ColumnStats>> {
        (col < self.0.column_count()).then(|| self.0.zone_stats(col, self.1))
    }
}

/// A decoded log-file zone: the zone maps its decode recorded.
impl ZoneMaps for ZoneStats {
    fn map(&self, col: usize) -> Option<Option<&ColumnStats>> {
        self.maps.get(col).map(Some)
    }
}

/// A listed fragment as one zone (§7.2): its catalogued properties of the
/// snapshot schema's columns. Properties that observed fewer rows than
/// the fragment holds — rows written before the column was added — do
/// not summarize it, and decide nothing.
impl ZoneMaps for (&Schema, &FragmentMeta) {
    fn map(&self, col: usize) -> Option<Option<&ColumnStats>> {
        let (name, meta) = (&self.0.fields[col].name, self.1);
        let of = meta.stats.iter().find(|(n, _)| n == name).map(|(_, s)| s);
        Some(of.filter(|s| s.count == meta.row_count))
    }
}

/// Keeps the rows of `sel` whose cell in `col` passes `test`, mirroring
/// `Expr::eval`: a NULL cell or literal fails every comparison,
/// otherwise [`Value::total_cmp`] decides. A `Dict` vector decides each
/// dictionary entry once, a `Runs` vector each run once; a leaf vector is
/// one typed loop — `i64::cmp` / `f64::total_cmp` / byte order when the
/// literal has the vector's type, [`ColumnVec::cmp_at`] (cross-type numeric
/// coercion, type-rank order) when it has not.
fn filter_leaf(col: &ColumnVec, test: Test<'_>, sel: &mut Vec<usize>) {
    // The test on one cell of a leaf vector.
    let cell = |leaf: &ColumnVec, i: usize| match test {
        Test::IsNull => leaf.is_null(i),
        _ if leaf.is_null(i) => false,
        Test::Cmp(op, lit) => op.holds(leaf.cmp_at(i, lit)),
        Test::In(list) => {
            (list.iter()).any(|lit| !lit.is_null() && leaf.cmp_at(i, lit) == Ordering::Equal)
        }
    };
    match (col, test) {
        (ColumnVec::Dict { codes, dict }, _) => {
            let mut verdict = vec![None; dict.len()];
            sel.retain(|&i| {
                let code = codes[i] as usize;
                *verdict[code].get_or_insert_with(|| cell(dict, code))
            });
        }
        (ColumnVec::Runs { lens, values }, _) => {
            // `sel` ascends, so a cursor over the runs follows it.
            let (mut run, mut end, mut verdict) = (0, 0, false);
            sel.retain(|&i| {
                while i >= end {
                    verdict = cell(values, run);
                    end += lens[run] as usize;
                    run += 1;
                }
                verdict
            });
        }
        (ColumnVec::I64(IntKind::Int64, p), Test::Cmp(op, Value::Int64(x)))
            if p.nulls.is_none() =>
        {
            sel.retain(|&i| op.holds(p.values[i].cmp(x)))
        }
        (ColumnVec::F64(p), Test::Cmp(op, Value::Float64(x))) if p.nulls.is_none() => {
            sel.retain(|&i| op.holds(p.values[i].total_cmp(x)))
        }
        // Strings against literals of their kind: lengths, then bytes.
        (ColumnVec::Str(kind, s), Test::Cmp(op, lit)) if kind.bytes_of(lit).is_some() => {
            let x = kind.bytes_of(lit).unwrap_or_default();
            match op {
                CmpOp::Eq | CmpOp::Ne => {
                    sel.retain(|&i| !s.is_null(i) && (s.get(i) == x) == (op == CmpOp::Eq))
                }
                _ => sel.retain(|&i| !s.is_null(i) && op.holds(s.get(i).cmp(x))),
            }
        }
        (ColumnVec::Str(kind, s), Test::In(list)) => {
            let equal = |i, lit| kind.bytes_of(lit).is_some_and(|x| s.get(i) == x);
            sel.retain(|&i| !s.is_null(i) && list.iter().any(|lit| equal(i, lit)))
        }
        (leaf, _) => sel.retain(|&i| cell(leaf, i)),
    }
}

/// The vectors of one zone as the predicate and the consumer read them.
pub(crate) enum ZoneCols<'b> {
    /// Zone `.1` of a ROS block opened by its index, and what of it has
    /// been decoded.
    Block(&'b RosBlock, usize, Held<'b>),
    /// A log-file zone that arrived decoded, with its statistics.
    Fresh(&'b Zone, &'b ZoneStats),
    /// Rows that arrived decoded without statistics.
    Decoded(&'b Zone),
}

/// What a scan has decoded of one zone of a block.
pub(crate) struct Held<'b> {
    /// A column decodes when first read — two leaves on one column, or a
    /// leaf and the consumer, decode it once: whole for the predicate and
    /// for a selection of every row, else the selected rows alone (a
    /// vector shorter than the zone).
    cols: Vec<OnceCell<ColumnVec>>,
    /// `0..n` for a selection of `n` rows, fewer than the zone's: what
    /// indexes a vector that holds the selection alone.
    dense: OnceCell<Vec<usize>>,
    /// What the scan has decoded of the block.
    tally: &'b Decoded,
    /// Whether a consumer took a column of the zone from its stored form
    /// or its zone map instead of decoding it.
    folded: Cell<bool>,
}

/// What a scan has decoded of one block, provenance included: the cells
/// it turned into column vectors, and the bytes of the chunk cells they
/// came from — a chunk's whole, whether decoded whole, at a selection or
/// compared on its codes, which turns no cell into a vector.
#[derive(Default)]
pub(crate) struct Decoded {
    cells: Cell<u64>,
    bytes: Cell<u64>,
    /// Zones a consumer folded a column of without decoding it.
    pub(crate) zones_folded: Cell<u64>,
    /// Bytes the block holds more: the FSST matchers a coded comparison
    /// built.
    kept: Cell<u64>,
}

impl Decoded {
    fn add(&self, cells: usize, bytes: u64) {
        self.cells.set(self.cells.get() + cells as u64);
        self.bytes.set(self.bytes.get() + bytes);
    }
}

impl<'b> ZoneCols<'b> {
    /// Zone `z` of `block`, nothing of it decoded yet; what a scan decodes
    /// of it is added to `tally`.
    pub(crate) fn of_block(block: &'b RosBlock, z: usize, tally: &'b Decoded) -> Self {
        // lint:allow(L010, once per zone scanned: a cell per column)
        let cols = vec![OnceCell::new(); block.column_count()];
        let (dense, folded) = (OnceCell::new(), Cell::new(false));
        let held = Held {
            cols,
            dense,
            tally,
            folded,
        };
        ZoneCols::Block(block, z, held)
    }

    /// The position of the zone's first row, in the coordinate a
    /// [`RowGate`] and deletion masks address.
    pub(crate) fn first(&self) -> u64 {
        match self {
            ZoneCols::Decoded(zone) | ZoneCols::Fresh(zone, _) => zone.first,
            ZoneCols::Block(block, z, _) => block.zone_range(*z).start as u64,
        }
    }

    /// The provenance of the rows `sel` — of a block's, decoded for the
    /// one consumer that said it [`Consumer::reads`] it, at `sel` alone
    /// unless that is every row — and where in it each of them lies.
    pub(crate) fn metas<'s>(
        &'s self,
        sel: &'s [usize],
    ) -> VortexResult<(Cow<'s, [RowMeta]>, &'s [usize])> {
        match self {
            ZoneCols::Decoded(zone) | ZoneCols::Fresh(zone, _) => {
                Ok((Cow::Borrowed(&zone.metas), sel))
            }
            ZoneCols::Block(block, z, held) => {
                let metas = block.zone_metas_at(*z, sel)?;
                let bytes = [Chunk::Timestamps, Chunk::Provenance].map(|c| block.cell_bytes(c, *z));
                held.tally.add(4 * metas.len(), bytes.iter().sum());
                // Every row of the zone is `0..n` already.
                let at = match sel.len() < block.zone_range(*z).len() {
                    // lint:allow(L010, once per zone whose selection is not every row, sized by it)
                    true => held.dense.get_or_init(|| (0..sel.len()).collect()),
                    false => sel,
                };
                Ok((Cow::Owned(metas), at))
            }
        }
    }

    /// `read` of the block and the zone, if this is a block's zone every
    /// row of which `sel` selects and whose column `col` is not decoded yet
    /// — a consumer reading the stored form or the zone map instead of the
    /// vector. The zone counts as folded if `read` answers.
    pub(crate) fn stored<T>(
        &self,
        col: usize,
        sel: &[usize],
        read: impl FnOnce(&'b RosBlock, usize) -> Option<T>,
    ) -> Option<T> {
        let ZoneCols::Block(block, z, held) = self else {
            return None;
        };
        let undecoded = held.cols.get(col).is_some_and(|cell| cell.get().is_none());
        let whole = sel.len() == block.zone_range(*z).len();
        let out = (undecoded && whole).then(|| read(block, *z)).flatten();
        let zones = &held.tally.zones_folded;
        if out.is_some() && !held.folded.replace(true) {
            zones.set(zones.get() + 1);
        }
        out
    }

    /// Of a block's zone whose column `col` is not decoded yet, keeps the
    /// rows of `sel` that pass `test` — `=`, `<>` or `IN` — by comparing
    /// the FSST codes its chunk stores with the literals'
    /// ([`RosBlock::retain_coded`]). `false` for another test, zone or
    /// chunk.
    fn retain_coded(&self, col: usize, test: Test<'_>, sel: &mut Vec<usize>) -> VortexResult<bool> {
        let (literals, equal) = match test {
            Test::Cmp(op @ (CmpOp::Eq | CmpOp::Ne), v) => {
                (std::slice::from_ref(v), op == CmpOp::Eq)
            }
            Test::In(list) => (list, true),
            _ => return Ok(false),
        };
        let ZoneCols::Block(block, z, held) = self else {
            return Ok(false);
        };
        if held.cols.get(col).map_or(true, |cell| cell.get().is_some()) {
            return Ok(false);
        }
        let Some(kept) = block.retain_coded((col, *z), (literals, equal), sel)? else {
            return Ok(false);
        };
        held.tally.add(0, block.cell_bytes(Chunk::Column(col), *z));
        held.tally.kept.set(held.tally.kept.get() + kept);
        Ok(true)
    }

    /// The vector for schema column `col` with the index in it of each
    /// row of `sel` — `None` for the predicate, which reads the column
    /// whole — or `None` when the zone's rows predate the column (they
    /// read NULL). Of a block's zone, a column not yet decoded decodes at
    /// `sel` alone unless that is every row: the one rule, no threshold.
    pub(crate) fn at<'s>(
        &'s self,
        col: usize,
        sel: Option<&'s [usize]>,
    ) -> VortexResult<Option<Picked<'s, ColumnVec>>> {
        let every = sel.unwrap_or_default();
        match self {
            ZoneCols::Decoded(zone) | ZoneCols::Fresh(zone, _) => {
                Ok(zone.cols.get(col).map(|col| (col, every)))
            }
            ZoneCols::Block(block, z, held) => {
                let Some(cell) = held.cols.get(col) else {
                    return Ok(None);
                };
                let rows = block.zone_range(*z).len();
                if cell.get().is_none() {
                    let decoded = match sel.filter(|sel| sel.len() < rows) {
                        Some(sel) => block.decode_zone_at(col, *z, sel)?,
                        None => block.decode_zone(col, *z)?,
                    };
                    let bytes = block.cell_bytes(Chunk::Column(col), *z);
                    held.tally.add(decoded.len(), bytes);
                    let _ = cell.set(decoded);
                }
                let held = cell.get().map(|col| match col.len() < rows {
                    // lint:allow(L010, once per zone whose selection is not every row, sized by it)
                    true => (col, &**held.dense.get_or_init(|| (0..col.len()).collect())),
                    false => (col, every),
                });
                Ok(held)
            }
        }
    }
}

/// What a scan pushes down to every fragment and tail: the compiled
/// predicate and the projection.
#[derive(Debug)]
pub(crate) struct ScanPlan<'e> {
    pub(crate) pred: CPred<'e>,
    /// Per snapshot-schema column: whether the projection keeps it.
    /// Every yielded row has this arity; the other columns read NULL.
    keep: Vec<bool>,
    /// What a bloom filter over the partition and clustering columns
    /// must hold for a fragment to matter: the key of every value the
    /// predicate requires a partition column, then a clustering column,
    /// to equal. A decoded zone's bloom holds the clustering keys alone.
    bloom_keys: (Vec<Vec<u8>>, Vec<Vec<u8>>),
    /// Collect [`FragmentYield::visible_ts`] of rows committed after this
    /// — the freshness probe's watermark when the scan began, below which
    /// it counts nothing; `None` collects none.
    visible_after: Option<Timestamp>,
    /// What the consumer reads of a ROS block, for its fetch plan: its
    /// columns, and whether it reads provenance — once per scan, not per
    /// block. What the predicate reads, the zone maps decide zone by zone.
    reads: (Vec<bool>, bool),
}

impl<'e> ScanPlan<'e> {
    /// Resolves the predicate's and the projection's column names against
    /// the snapshot schema; an unknown name is `InvalidArgument`.
    pub(crate) fn compile(
        expr: &'e Expr,
        projection: Option<&[String]>,
        schema: &Schema,
        visible_after: Option<Timestamp>,
        sink: &impl Consumer,
    ) -> VortexResult<Self> {
        let mut keep = vec![projection.is_none(); schema.fields.len()];
        for c in projection.unwrap_or_default() {
            let i = schema.column_index(c).ok_or_else(|| {
                VortexError::InvalidArgument(format!("unknown projection column {c}"))
            })?;
            keep[i] = true;
        }
        // A literal of another type than the column's can equal a stored
        // cell (3 = 3.0) under a different key, so only a literal of the
        // declared type is worth a lookup.
        let point = |c: &String| {
            let (i, v) = (schema.column_index(c)?, expr.required_point(c)?);
            (schema.fields[i].ftype.name() == v.type_name()).then(|| v.encode_key())
        };
        let partition = schema.partition.iter().filter_map(|p| point(&p.column));
        // lint:allow(L010, once per scan: a key per point predicate on a key column)
        let partition = partition.collect();
        // lint:allow(L010, once per scan: a key per point predicate on a key column)
        let clustering = schema.clustering.iter().filter_map(point).collect();
        let mut plan = ScanPlan {
            pred: CPred::compile(expr, schema)?,
            keep,
            bloom_keys: (partition, clustering),
            visible_after,
            // lint:allow(L010, once per scan, filled in below)
            reads: (Vec::new(), false),
        };
        // lint:allow(L010, once per scan, sized by the schema's columns)
        let mut columns = vec![false; plan.arity()];
        let provenance = sink.reads(&plan, &mut columns);
        plan.reads = (columns, provenance);
        Ok(plan)
    }

    /// Whether a fragment with this bloom filter over its key columns can
    /// hold a matching row.
    pub(crate) fn may_match_bloom(&self, bloom: &BloomFilter) -> bool {
        let (partition, clustering) = &self.bloom_keys;
        partition
            .iter()
            .chain(clustering)
            .all(|key| bloom.may_contain(key))
    }

    /// Whether the predicate requires a key column to equal some value,
    /// so that a bloom filter can decide anything.
    pub(crate) fn has_bloom_keys(&self) -> bool {
        !(self.bloom_keys.0.is_empty() && self.bloom_keys.1.is_empty())
    }

    /// What a decoded zone's statistics decide of the scan: its bloom, over
    /// the clustering columns, rules it out as a ROS block's rules the
    /// block out; then its zone maps give the predicate's verdict.
    fn zone_verdict(&self, stats: &ZoneStats) -> Verdict {
        let holds = |bloom: &BloomFilter| self.bloom_keys.1.iter().all(|k| bloom.may_contain(k));
        match stats.bloom.as_ref().map_or(true, holds) {
            true => self.pred.verdict(stats),
            false => Verdict::None,
        }
    }

    /// Snapshot-schema column count.
    pub(crate) fn arity(&self) -> usize {
        self.keep.len()
    }

    /// Whether a scan into `sink` fetches column `c` of zone `z` of
    /// `block`, a zone its zone maps give `verdict` and the snapshot sees
    /// `whole` or not. Of a zone no row of which passes, nothing; else a
    /// column the consumer reads — unless it takes it from the index of a
    /// zone every row of which is selected — and a column a leaf no zone
    /// map decides reads.
    fn fetches(
        &self,
        sink: &impl Consumer,
        block: &RosBlock,
        (c, z): (usize, usize),
        (verdict, whole): (Verdict, bool),
    ) -> bool {
        let selected = verdict == Verdict::All && whole;
        let consumed = self.reads.0.get(c) == Some(&true)
            && !(selected && sink.index_answers(self, block, z, c));
        verdict != Verdict::None && (consumed || self.pred.reads(block, z, c))
    }

    /// Whether the projection keeps schema column `col`.
    pub(crate) fn keeps(&self, col: usize) -> bool {
        self.keep.get(col) == Some(&true)
    }

    /// Zone vector of column `col` as the projection shows it, with the
    /// index in it of each row of `sel`: `None` (every row NULL) when the
    /// projection drops the column or the zone's rows predate it.
    pub(crate) fn zone_column<'z>(
        &self,
        cols: &'z ZoneCols<'_>,
        col: usize,
        sel: &'z [usize],
    ) -> VortexResult<Option<Picked<'z, ColumnVec>>> {
        match self.keeps(col) {
            true => cols.at(col, Some(sel)),
            false => Ok(None),
        }
    }
}

/// One scan shard's state: its consumer and what it has scanned.
#[derive(Debug)]
pub(crate) struct FragmentYield<C> {
    /// The consumer every matching row is folded into.
    pub sink: C,
    /// The shard's share of the scan's counters.
    pub stats: ScanStats,
    /// Commit timestamps of every row *visible* at the snapshot,
    /// predicate or not — the freshness probe (§8) measures when
    /// committed data became readable, not whether a filter kept it.
    pub visible_ts: Vec<Timestamp>,
}

impl<C: Consumer> FragmentYield<C> {
    /// Nothing scanned yet.
    pub(crate) fn new(sink: C) -> Self {
        let (stats, visible_ts) = Default::default();
        FragmentYield {
            sink,
            stats,
            visible_ts,
        }
    }

    /// Folds another shard's contribution into this one.
    pub(crate) fn absorb(&mut self, other: FragmentYield<C>) {
        self.sink.merge_shard(other.sink);
        self.visible_ts.extend(other.visible_ts);
        self.stats.pruned_by_bloom += other.stats.pruned_by_bloom;
        self.stats.reads += other.stats.reads;
        self.stats.bytes_fetched += other.stats.bytes_fetched;
        self.stats.zones_total += other.stats.zones_total;
        self.stats.zones_pruned += other.stats.zones_pruned;
        self.stats.rows_scanned += other.stats.rows_scanned;
        self.stats.rows_matched += other.stats.rows_matched;
        self.stats.rows_materialized += other.stats.rows_materialized;
        self.stats.cells_decoded += other.stats.cells_decoded;
        self.stats.bytes_decoded += other.stats.bytes_decoded;
        self.stats.zones_folded += other.stats.zones_folded;
        self.stats.skipped += other.stats.skipped;
    }
}

/// The one scan step: narrows `sel` — the zone's visible rows, ascending —
/// to the rows the predicate keeps and folds them into the consumer.
fn scan_zone<C: Consumer>(
    cols: &ZoneCols<'_>,
    sel: &mut Vec<usize>,
    plan: &ScanPlan<'_>,
    out: &mut FragmentYield<C>,
) -> VortexResult<()> {
    plan.pred.filter_zone(cols, sel)?;
    if !sel.is_empty() {
        out.stats.rows_matched += sel.len() as u64;
        out.stats.rows_materialized += out.sink.fold_zone(cols, sel, plan)?;
    }
    Ok(())
}

/// Scans zones that arrive decoded — a WOS fragment's, a streamlet
/// tail's — at their visible rows, with the same outcome
/// [`scan_ros_block`] has on a block: a zone its statistics rule out
/// reads nothing but the stamps the freshness probe is owed.
pub(crate) fn scan_visible<C: Consumer>(
    visible: &Visible,
    plan: &ScanPlan<'_>,
    out: &mut FragmentYield<C>,
) -> VortexResult<()> {
    // lint:allow(L010, once per fragment or tail scanned, reused by its zones)
    let mut sel: Vec<usize> = Vec::new();
    for ((zone, admitted), stats) in visible.iter().zip(visible.stats()) {
        // A zone stamped at or before the probe's watermark has no row it
        // has not seen.
        if let Some(seen) = plan.visible_after.filter(|&seen| stats.newest > seen) {
            let ts = admitted.iter().map(|&i| zone.metas[i].ts);
            out.visible_ts.extend(ts.filter(|ts| *ts > seen));
        }
        out.stats.zones_total += 1;
        if plan.zone_verdict(stats) == Verdict::None {
            out.stats.zones_pruned += 1;
            continue;
        }
        out.stats.rows_scanned += admitted.len() as u64;
        sel.clear();
        // lint:allow(L010, refills the reused selection)
        sel.extend_from_slice(admitted);
        scan_zone(&ZoneCols::Fresh(zone, stats), &mut sel, plan, out)?;
    }
    Ok(())
}

/// Scans rows that exist as rows — what merge-on-read resolution leaves,
/// at the plan's arity — by turning them back into one zone.
pub(crate) fn scan_resolved<C: Consumer>(
    rows: Vec<(RowMeta, Row)>,
    plan: &ScanPlan<'_>,
    out: &mut FragmentYield<C>,
) -> VortexResult<()> {
    // lint:allow(L010, once per resolving scan: its rows become one zone)
    let mut cols: Vec<ColumnBuilder> = Vec::new();
    cols.resize_with(plan.arity(), ColumnBuilder::default);
    // lint:allow(L010, once per resolving scan: its rows become one zone)
    let mut metas = Vec::with_capacity(rows.len());
    for (meta, row) in rows {
        metas.push(meta);
        (cols.iter_mut().zip(row.values)).for_each(|(col, v)| col.add_value(v));
    }
    // lint:allow(L010, once per resolving scan: its rows become one zone)
    let cols = cols.into_iter().map(ColumnBuilder::into_column).collect();
    // lint:allow(L010, once per resolving scan: its rows become one zone)
    let (first, mut sel) = (0, (0..metas.len()).collect());
    let zone = Zone { first, metas, cols };
    scan_zone(&ZoneCols::Decoded(&zone), &mut sel, plan, out)
}

/// Scans one opened ROS block with the predicate pushed into the
/// compressed chunks, fetching what of its file the scan turns out to
/// need and no cell holds yet; `gate` decides which block rows the
/// snapshot may see. Each surviving zone takes the one scan step.
pub(crate) fn scan_ros_block<C: Consumer>(
    open: &mut OpenBlock<'_>,
    gate: &RowGate<'_>,
    plan: &ScanPlan<'_>,
    out: &mut FragmentYield<C>,
) -> VortexResult<()> {
    let held = Arc::clone(&open.block);
    let block = &*held;
    // A zone holds rows the freshness probe has not seen if its newest is
    // past the probe's watermark (a zone map that does not say is read).
    let seen = plan.visible_after;
    let unseen = |z: usize| block.zone_newest(z).map_or(true, |ts| Some(ts) > seen);
    let zones = block.zone_count();
    // lint:allow(L010, once per block scanned, sized by its zones and the schema's columns; never per row)
    let fresh: Vec<bool> = (0..zones).map(|z| seen.is_some() && unseen(z)).collect();
    // The bloom filter first: no chunk of a block it rules out is read,
    // but for the timestamps the probe is owed.
    let ruled_out = !plan.may_match_bloom(block.bloom());
    // lint:allow(L010, once per block scanned, sized by its zones and the schema's columns; never per row)
    let verdicts: Vec<Verdict> = (0..zones).map(|z| plan.pred.verdict(&(block, z))).collect();
    let scan = |z: usize| !ruled_out && verdicts[z] != Verdict::None;
    if ruled_out {
        out.stats.pruned_by_bloom += 1;
    } else {
        out.stats.zones_total += zones;
        out.stats.zones_pruned += (0..zones).filter(|&z| !scan(z)).count();
    }
    // Kept zones the gate admits whole: where the zone maps select every
    // row, so is every row.
    let admitted = |z: usize| {
        let range = block.zone_range(z);
        scan(z) && gate.admits_all(range.start as u64..range.end as u64)
    };
    // lint:allow(L010, once per block scanned, sized by its zones and the schema's columns; never per row)
    let whole: Vec<bool> = (0..zones).map(admitted).collect();
    // One fetch plan for the block.
    let (sink, provenance) = (&out.sink, plan.reads.1);
    open.fetch(|chunk, z| match chunk {
        Chunk::Column(c) => scan(z) && plan.fetches(sink, block, (c, z), (verdicts[z], whole[z])),
        Chunk::Timestamps => fresh[z] || (scan(z) && provenance),
        Chunk::Provenance => scan(z) && provenance,
    })?;
    let decoded = Decoded::default();
    out.stats.reads += open.fetched.reads;
    out.stats.bytes_fetched += open.fetched.bytes;
    for z in (0..zones).filter(|&z| fresh[z]) {
        let range = block.zone_range(z);
        let ts = block.zone_timestamps(z)?;
        decoded.add(ts.len(), block.cell_bytes(Chunk::Timestamps, z));
        let visible = (range.zip(ts)).filter(|(i, ts)| Some(*ts) > seen && gate.admits(*i as u64));
        out.visible_ts.extend(visible.map(|(_, ts)| ts));
    }
    let mut sel: Vec<usize> = Vec::new(); // zone-relative selected rows
    for z in (0..zones).filter(|&z| scan(z)) {
        let range = block.zone_range(z);
        out.stats.rows_scanned += range.len() as u64;
        sel.clear();
        match whole[z] {
            // lint:allow(L010, refills the reused selection)
            true => sel.extend(0..range.len()),
            false => sel.extend((0..range.len()).filter(|i| gate.admits((range.start + i) as u64))),
        }
        scan_zone(&ZoneCols::of_block(block, z, &decoded), &mut sel, plan, out)?;
    }
    out.stats.cells_decoded += decoded.cells.get();
    out.stats.bytes_decoded += decoded.bytes.get();
    out.stats.zones_folded += decoded.zones_folded.get();
    open.charge(decoded.kept.get());
    Ok(())
}

/// The fetch plan and the filter take one verdict of the zone maps
/// ([`ScanPlan::fetches`], `CPred::filter_zone`): of a block opened
/// from its bytes with the chunks the plan fetches and no other — a
/// read of any other fails — every zone filters and folds to what
/// `Expr::eval` keeps of the block's rows, under any predicate, NOT and
/// OR included, into a DML's positions and into a count and a sum
/// grouped by a column. Its columns: `g`, one value in zones 0 and 2;
/// `i`, with NULLs; `s`, distinct strings (FSST); `k`, four strings,
/// one in zone 2; and `late`, past the block's.
#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use vortex_common::crypt::Key;
    use vortex_common::schema::{Field, FieldType};
    use vortex_ros::{RosBlockBuilder, ZONE_ROWS};

    use super::*;
    use crate::consume::{Aggregator, Positions};
    use crate::engine::AggKind;
    use crate::read::Zone;

    const ROWS: usize = 2_500;

    fn cells(k: usize) -> Vec<Value> {
        let (r, z) = (
            (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20,
            k / ZONE_ROWS,
        );
        vec![
            Value::Int64([7, (r % 3) as i64, 9][z]),
            match r % 7 {
                0 => Value::Null,
                _ => Value::Int64((r % 1_000) as i64 - 500),
            },
            Value::String(format!("sess={r:08x} ua=Chrome os=Linux")),
            Value::String(format!("key {}", if z == 2 { 9 } else { r % 4 })),
        ]
    }

    /// The block's columns: all but `late`.
    fn stored() -> Schema {
        let types = [
            FieldType::Int64,
            FieldType::Int64,
            FieldType::String,
            FieldType::String,
        ];
        let fields = ["g", "i", "s", "k"].iter().zip(types);
        Schema::new(fields.map(|(c, t)| Field::nullable(c, t)).collect())
    }

    fn arb_op() -> impl Strategy<Value = CmpOp> {
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        (0usize..6).prop_map(move |i| ops[i])
    }

    fn arb_pred() -> impl Strategy<Value = Expr> {
        let cmp = |column: &'static str| {
            move |(op, value): (CmpOp, Value)| Expr::Cmp {
                column: column.into(),
                op,
                value,
            }
        };
        let string = |k: usize| cells(k).swap_remove(2);
        let leaf = prop_oneof![
            (arb_op(), (5i64..11).prop_map(Value::Int64)).prop_map(cmp("g")),
            (arb_op(), (-600i64..600).prop_map(Value::Int64)).prop_map(cmp("i")),
            collection::vec((-600i64..600).prop_map(Value::Int64), 0..3)
                .prop_map(|vs| Expr::is_in("i", vs)),
            (arb_op(), (0..ROWS).prop_map(string)).prop_map(cmp("s")),
            collection::vec((0..ROWS + 9).prop_map(string), 0..3)
                .prop_map(|vs| Expr::is_in("s", vs)),
            (
                arb_op(),
                (0u64..10).prop_map(|k| Value::String(format!("key {k}")))
            )
                .prop_map(cmp("k")),
            (arb_op(), (0i64..3).prop_map(Value::Int64)).prop_map(cmp("late")),
            prop_oneof![Just("g"), Just("i"), Just("late")]
                .prop_map(|c| Expr::IsNull(c.to_string())),
        ];
        leaf.prop_recursive(3, 12, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
                inner.prop_map(|a| a.not()),
            ]
        })
    }

    /// Folds into `got` what a scan of the block opened from `bytes`
    /// under `pred` selects, fetching what the plan fetches; into
    /// `want`, the zones decoded whole at the rows `Expr::eval` keeps.
    fn scan<C: Consumer>(
        pred: &Expr,
        (block, bytes): (&RosBlock, &[u8]),
        (mut got, mut want): (C, C),
    ) -> (C, C) {
        let schema = stored().evolve_add_column(Field::nullable("late", FieldType::Int64));
        let schema = schema.unwrap();
        let plan = ScanPlan::compile(pred, None, &schema, None, &got).unwrap();
        let key = Key::derive_from_passphrase("plan and filter");
        let mut read = |at: u64, len: usize, check: &dyn Fn(&[u8]) -> VortexResult<()>| {
            let held = &bytes[at as usize..][..len];
            check(held).map(|()| held.to_vec())
        };
        let (cold, _) = RosBlock::open_index(bytes.len() as u64, &key, 1, &mut read).unwrap();
        let verdicts: Vec<_> = (0..cold.zone_count())
            .map(|z| plan.pred.verdict(&(&cold, z)))
            .collect();
        let wanted = |chunk: Chunk, z: usize| match chunk {
            Chunk::Column(c) => plan.fetches(&got, &cold, (c, z), (verdicts[z], true)),
            _ => false,
        };
        cold.fetch(&mut read, wanted).unwrap();
        let (tally, rows) = (Decoded::default(), block.rows().unwrap());
        for z in 0..block.zone_count() {
            let range = block.zone_range(z);
            let mut sel: Vec<usize> = (0..range.len()).collect();
            let held = ZoneCols::of_block(&cold, z, &tally);
            plan.pred.filter_zone(&held, &mut sel).unwrap();
            if !sel.is_empty() {
                got.fold_zone(&held, &sel, &plan).unwrap();
            }
            let keep = |&i: &usize| pred.eval(&schema, &rows[range.start + i].1).unwrap();
            let kept: Vec<usize> = (0..range.len()).filter(keep).collect();
            let cols = (0..4).map(|c| block.decode_zone(c, z).unwrap());
            let zone = Zone {
                first: range.start as u64,
                metas: vec![RowMeta::default(); range.len()],
                cols: cols.collect(),
            };
            want.fold_zone(&ZoneCols::Decoded(&zone), &kept, &plan)
                .unwrap();
        }
        (got, want)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn the_plan_fetches_what_the_filter_reads(pred in arb_pred()) {
            let stored = stored();
            let mut b = RosBlockBuilder::new(&stored);
            for k in 0..ROWS {
                b.push(RowMeta::default(), Row::insert(cells(k))).unwrap();
            }
            let block = b.build(false).unwrap();
            let key = Key::derive_from_passphrase("plan and filter");
            let bytes = block.to_bytes(&key, 1);
            let at = |sink: Positions| sink.at;
            let dml = Positions { at: Vec::new(), rows: None };
            let (got, want) = scan(&pred, (&block, &bytes), (dml.clone(), dml));
            prop_assert_eq!(at(got), at(want), "{:?}", pred);
            let schema = stored.evolve_add_column(Field::nullable("late", FieldType::Int64));
            let aggs = [(AggKind::Count, None), (AggKind::Sum, Some("i"))];
            let agg = Aggregator::new(&schema.unwrap(), Some("g"), &aggs).unwrap();
            let (got, want) = scan(&pred, (&block, &bytes), (agg.clone(), agg));
            let key_eq = |(g, vals): &(Option<Value>, Vec<Value>)| {
                let g = g.as_ref().map(Value::encode_key);
                (g, vals.iter().map(Value::encode_key).collect::<Vec<_>>())
            };
            let groups = |agg: Aggregator| agg.into_groups().iter().map(key_eq).collect::<Vec<_>>();
            prop_assert_eq!(groups(got), groups(want), "{:?}", pred);
        }
    }
}
