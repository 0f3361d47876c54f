//! Scan consumers: what a scan folds its matching rows into.
//!
//! A scan does not return rows for its caller to fold. Every scan shard
//! owns one [`Consumer`]; each fragment step feeds it a zone — of a ROS
//! block, a WOS fragment, a tail or merge-on-read's survivors alike — as
//! typed column vectors plus the selected positions, and the shards'
//! consumers merge at the end. A `Row` is born only in [`RowCollector`],
//! through [`gather_rows`]; an [`Aggregator`] (and a count,
//! which is an aggregation without aggregates) builds none, and DML's
//! [`Positions`] only the rows it rewrites, through a `RowCollector`.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use vortex_common::error::{VortexError, VortexResult};
use vortex_common::exact::ExactSum;
use vortex_common::row::{Row, Value};
use vortex_common::schema::Schema;
use vortex_ros::{
    dictionary, gather_rows, ColumnVec, IntKind, Picked, Prim, RosBlock, RowMeta, Sink,
};

use crate::engine::AggKind;
use crate::pushdown::{ScanPlan, ZoneCols};

/// The fold a scan runs. A scan clones its (empty) consumer once per
/// shard and merges the clones, so an implementation must be mergeable
/// and independent of the order rows arrive in.
pub(crate) trait Consumer: Clone + Send + Sync {
    /// What [`Consumer::fold_zone`] reads of a zone, so that a block's
    /// chunks can be fetched before its zones are folded: marks the
    /// schema columns in `columns` and returns whether it reads the rows'
    /// provenance.
    fn reads(&self, plan: &ScanPlan<'_>, columns: &mut [bool]) -> bool;

    /// Whether [`Consumer::fold_zone`] of zone `z` of `block`, every row
    /// selected and no column decoded, takes column `col` from the
    /// block's index instead of its chunk — so that a fetch plan that
    /// knows the zone will be selected whole reads no chunk of it.
    fn index_answers(&self, _: &ScanPlan<'_>, _: &RosBlock, _: usize, _: usize) -> bool {
        false
    }

    /// Folds the rows of one zone at the zone-relative, ascending
    /// positions `sel`. Returns how many `Row`s it built.
    fn fold_zone(
        &mut self,
        cols: &ZoneCols<'_>,
        sel: &[usize],
        plan: &ScanPlan<'_>,
    ) -> VortexResult<u64>;

    /// Folds another shard's consumer into this one.
    fn merge_shard(&mut self, other: Self);
}

/// Collects the matching rows — the one place a scan turns cells into
/// `Row`s.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowCollector {
    /// Matching rows, in no particular order.
    pub rows: Vec<(RowMeta, Row)>,
}

impl Consumer for RowCollector {
    /// Every projected column, and each row's provenance.
    fn reads(&self, plan: &ScanPlan<'_>, columns: &mut [bool]) -> bool {
        (0..columns.len()).for_each(|c| columns[c] |= plan.keeps(c));
        true
    }

    /// Late materialization: rows at schema arity, each projected column
    /// the zone has gathering its selected values in.
    fn fold_zone(
        &mut self,
        cols: &ZoneCols<'_>,
        sel: &[usize],
        plan: &ScanPlan<'_>,
    ) -> VortexResult<u64> {
        let shown = (0..plan.arity()).map(|c| plan.zone_column(cols, c, sel));
        // lint:allow(L010, once per zone gathered: a reference per column)
        let shown: Vec<Option<Picked<'_, ColumnVec>>> = shown.collect::<VortexResult<_>>()?;
        let (metas, at) = cols.metas(sel)?;
        gather_rows((&metas, at), &shown, &mut self.rows);
        Ok(sel.len() as u64)
    }

    /// The first shard's rows are taken as they are, not copied.
    fn merge_shard(&mut self, other: Self) {
        match self.rows.is_empty() {
            true => self.rows = other.rows,
            false => self.rows.extend(other.rows),
        }
    }
}

/// What a DML statement (§7.3) takes of the rows its predicate matches:
/// their deletion-mask positions and, when it rewrites or reinserts them,
/// the rows themselves.
#[derive(Debug, Clone, Default)]
pub(crate) struct Positions {
    /// Each selected row's position: its zone's first plus the
    /// zone-relative row — the coordinate of `RowGate`, a mask's row past
    /// the fragment's origin.
    pub at: Vec<u64>,
    /// The selected rows, gathered as [`RowCollector`] gathers them
    /// (change types included); `None` reads no column and no provenance,
    /// so the fetch plan is a count's.
    pub rows: Option<RowCollector>,
}

impl Consumer for Positions {
    fn reads(&self, plan: &ScanPlan<'_>, columns: &mut [bool]) -> bool {
        (self.rows.as_ref()).is_some_and(|rows| rows.reads(plan, columns))
    }

    fn fold_zone(
        &mut self,
        cols: &ZoneCols<'_>,
        sel: &[usize],
        plan: &ScanPlan<'_>,
    ) -> VortexResult<u64> {
        let first = cols.first();
        // lint:allow(L010, DML only: a position per row the statement masks)
        self.at.extend(sel.iter().map(|&i| first + i as u64));
        (self.rows.as_mut()).map_or(Ok(0), |rows| rows.fold_zone(cols, sel, plan))
    }

    fn merge_shard(&mut self, other: Self) {
        // lint:allow(L010, DML only: a position per row the statement masks)
        self.at.extend(other.at);
        if let (Some(rows), Some(other)) = (&mut self.rows, other.rows) {
            rows.merge_shard(other);
        }
    }
}

/// One aggregate of one group. SUM and AVG share the numeric fields;
/// integers and floats both add exactly, so no result depends on the
/// order rows, zones or shards are folded in.
#[derive(Debug, Clone, Default)]
struct Acc {
    /// COUNT: rows. SUM / AVG: non-NULL numeric inputs.
    n: u64,
    /// Sum of the Int64 and Numeric inputs (Numeric is fixed-point ×10⁹).
    int: i128,
    saw_numeric: bool,
    /// Sum of the Float64 inputs, rounded once when read; boxed on the
    /// first, so an aggregate of no floats stays small.
    float: Option<Box<ExactSum>>,
    /// MIN / MAX so far.
    best: Option<Value>,
}

impl Acc {
    fn add_int(&mut self, v: i128, numeric: bool) {
        self.n += 1;
        self.int += v;
        self.saw_numeric |= numeric;
    }

    fn add_float(&mut self, v: f64) {
        self.n += 1;
        self.float.get_or_insert_with(Box::default).add(v);
    }

    /// The index's exact sum of a zone's `n` non-NULL floats,
    /// `mantissa·2^exp2`; a zone of NULLs alone adds no float.
    fn add_float_sum(&mut self, (mantissa, exp2): (i128, i32), n: u64) {
        if n > 0 {
            self.n += n;
            let float = self.float.get_or_insert_with(Box::default);
            float.add_scaled(mantissa, exp2);
        }
    }

    /// SUM / AVG input as a `Value`; NULLs and non-numerics are ignored.
    fn add_value(&mut self, v: &Value) {
        match v {
            Value::Int64(i) => self.add_int(*i as i128, false),
            Value::Numeric(n) => self.add_int(*n, true),
            Value::Float64(f) => self.add_float(*f),
            _ => {}
        }
    }

    /// MIN / MAX: takes the candidate `make` builds if it orders `want`
    /// ([`AggKind::wants`]) against the best so far.
    fn offer(
        &mut self,
        want: Ordering,
        against: impl FnOnce(&Value) -> Ordering,
        make: impl FnOnce() -> Value,
    ) {
        if self.best.as_ref().map_or(true, |cur| against(cur) == want) {
            self.best = Some(make());
        }
    }

    fn merge_acc(&mut self, kind: AggKind, other: Acc) {
        self.n += other.n;
        self.int += other.int;
        self.saw_numeric |= other.saw_numeric;
        match (&mut self.float, other.float) {
            (Some(float), Some(other)) => float.merge(&other),
            (float @ None, other) => *float = other,
            _ => {}
        }
        if let Some(v) = other.best {
            if (self.best.as_ref()).map_or(true, |cur| v.total_cmp(cur) == kind.wants()) {
                self.best = Some(v);
            }
        }
    }

    fn into_value(self, kind: AggKind) -> Value {
        let scale = if self.saw_numeric { 1e9 } else { 1.0 };
        let float = self.float.as_ref().map_or(0.0, |float| float.round());
        let total = float + self.int as f64 / scale;
        match kind {
            AggKind::Count => Value::Int64(self.n as i64),
            AggKind::Min | AggKind::Max => self.best.unwrap_or(Value::Null),
            _ if self.n == 0 => Value::Null, // SUM / AVG of no rows
            AggKind::Avg => Value::Float64(total / self.n as f64),
            _ if self.float.is_some() => Value::Float64(total),
            _ if self.saw_numeric => Value::Numeric(self.int),
            _ => match i64::try_from(self.int) {
                Ok(v) => Value::Int64(v),
                Err(_) => Value::Float64(self.int as f64), // beyond i64
            },
        }
    }
}

/// SUM / AVG of the floats of a chunk folded in its stored form.
impl Sink<f64> for Acc {
    fn cells(&mut self, cells: impl Iterator<Item = Option<f64>>) {
        cells.flatten().for_each(|v| self.add_float(v));
    }
}

/// The accumulator a typed loop folds the `k`-th selected row of a zone
/// into.
trait Target {
    fn acc(&mut self, k: usize) -> &mut Acc;
}

/// Every row into one.
impl Target for &mut Acc {
    fn acc(&mut self, _: usize) -> &mut Acc {
        self
    }
}

/// Each row into its group's accumulator of one aggregate: the rows'
/// group slots, the groups, the aggregate.
impl Target for (&[usize], &mut [(Option<Value>, Vec<Acc>)], usize) {
    fn acc(&mut self, k: usize) -> &mut Acc {
        &mut self.1[self.0[k]].1[self.2]
    }
}

/// Folds the rows `at` of a leaf into `into` under `kind` (not COUNT), in
/// row order: the kind and the leaf's type are matched once, and a row is
/// tested for NULL only where the leaf has a bitmap. SUM and AVG ignore
/// non-numeric cells.
fn fold_leaf(kind: AggKind, leaf: &ColumnVec, at: &[usize], mut into: impl Target) {
    match (kind, leaf) {
        (AggKind::Min | AggKind::Max, _) => {
            for (k, &p) in at.iter().enumerate().filter(|&(_, &p)| !leaf.is_null(p)) {
                into.acc(k)
                    .offer(kind.wants(), |m| leaf.cmp_at(p, m), || leaf.value(p));
            }
        }
        (_, ColumnVec::I64(IntKind::Int64, ints)) => {
            valued(ints, at, |k, v| into.acc(k).add_int(v as i128, false))
        }
        (_, ColumnVec::I128(ints)) => valued(ints, at, |k, v| into.acc(k).add_int(v, true)),
        (_, ColumnVec::F64(floats)) => valued(floats, at, |k, v| into.acc(k).add_float(v)),
        (_, ColumnVec::Any(values)) => {
            (at.iter().enumerate()).for_each(|(k, &p)| into.acc(k).add_value(&values[p]))
        }
        _ => {}
    }
}

/// Hands `f` the value of each of the rows `at` of `p` that has one, with
/// its index in `at`.
fn valued<T: Copy>(p: &Prim<T>, at: &[usize], mut f: impl FnMut(usize, T)) {
    let rows = at.iter().enumerate();
    match &p.nulls {
        None => rows.for_each(|(k, &i)| f(k, p.values[i])),
        Some(nulls) => {
            (rows.filter(|&(_, &i)| !nulls.is_null(i))).for_each(|(k, &i)| f(k, p.values[i]))
        }
    }
}

/// Grouped aggregation: one [`Acc`] per aggregate per group, keyed by
/// the group value's [`Value::encode_key`] bytes (which also order the
/// output).
#[derive(Debug, Clone, Default)]
pub(crate) struct Aggregator {
    /// The group column and each aggregate's column, as schema positions.
    group: Option<usize>,
    aggs: Vec<(AggKind, Option<usize>)>,
    slots: BTreeMap<Vec<u8>, usize>,
    groups: Vec<(Option<Value>, Vec<Acc>)>,
    /// Scratch for the key of the group being looked up.
    key: Vec<u8>,
}

impl Aggregator {
    /// Checks the request against the snapshot schema: the columns must
    /// exist, and every aggregate but COUNT needs one.
    pub(crate) fn new(
        schema: &Schema,
        group_by: Option<&str>,
        aggs: &[(AggKind, Option<&str>)],
    ) -> VortexResult<Self> {
        let index = |what: &str, c: &str| {
            schema
                .column_index(c)
                .ok_or_else(|| VortexError::InvalidArgument(format!("unknown {what} column {c}")))
        };
        let agg = |&(kind, c): &(AggKind, Option<&str>)| match c {
            Some(c) => Ok((kind, Some(index("agg", c)?))),
            None if kind == AggKind::Count => Ok((kind, None)),
            None => Err(VortexError::InvalidArgument(format!(
                "{kind:?} needs a column"
            ))),
        };
        Ok(Aggregator {
            group: group_by.map(|c| index("group", c)).transpose()?,
            aggs: aggs.iter().map(agg).collect::<VortexResult<_>>()?,
            ..Aggregator::default()
        })
    }

    /// The group `g` belongs to (`None`: the single global group),
    /// created on first sight.
    fn group_slot(&mut self, g: Option<Value>) -> usize {
        self.key.clear();
        if let Some(v) = &g {
            v.encode_key_into(&mut self.key);
        }
        self.keyed_slot(|| g)
    }

    /// The group whose key `self.key` holds; `value` builds the group
    /// value of one seen for the first time.
    fn keyed_slot(&mut self, value: impl FnOnce() -> Option<Value>) -> usize {
        if let Some(&slot) = self.slots.get(self.key.as_slice()) {
            return slot;
        }
        self.slots.insert(self.key.clone(), self.groups.len());
        let accs = vec![Acc::default(); self.aggs.len()];
        self.groups.push((value(), accs));
        self.groups.len() - 1
    }

    /// One output row per group, in group-key order. SQL: a global
    /// aggregate over zero rows still yields one row — COUNT(*) = 0,
    /// SUM/MIN/MAX/AVG = NULL.
    pub(crate) fn into_groups(mut self) -> Vec<(Option<Value>, Vec<Value>)> {
        if self.group.is_none() {
            self.group_slot(None);
        }
        let (aggs, mut groups) = (self.aggs, self.groups);
        (self.slots.into_values())
            .map(|slot| {
                let (g, accs) = std::mem::take(&mut groups[slot]);
                let vals = accs
                    .into_iter()
                    .zip(&aggs)
                    .map(|(a, (k, _))| a.into_value(*k));
                (g, vals.collect())
            })
            .collect()
    }
}

impl Consumer for Aggregator {
    /// The group column and the aggregates' columns, where the projection
    /// keeps them; no provenance.
    fn reads(&self, plan: &ScanPlan<'_>, columns: &mut [bool]) -> bool {
        let named = self
            .group
            .iter()
            .chain(self.aggs.iter().filter_map(|(_, c)| c.as_ref()));
        named.for_each(|&c| columns[c] |= plan.keeps(c));
        false
    }

    /// The group column when its zone map answers it
    /// ([`RosBlock::zone_constant`]), and a column read only by COUNT and
    /// by SUMs and AVGs the index sums ([`RosBlock::zone_sum`],
    /// [`RosBlock::zone_float_sum`]) into one group it names.
    fn index_answers(&self, plan: &ScanPlan<'_>, block: &RosBlock, z: usize, col: usize) -> bool {
        let constant = |g: usize| block.zone_constant(g, z).is_some();
        let kept = self
            .group
            .filter(|&g| plan.keeps(g) && g < block.column_count());
        let one = kept.map_or(true, constant);
        let summed = |&(kind, c): &(AggKind, Option<usize>)| match kind {
            _ if c != Some(col) => true,
            AggKind::Count => true,
            AggKind::Sum | AggKind::Avg => {
                let float = || block.zone_float_sum(col, z).is_some();
                one && (block.zone_sum(col, z).is_some() || float())
            }
            AggKind::Min | AggKind::Max => false,
        };
        (self.group != Some(col) || constant(col)) && self.aggs.iter().all(summed)
    }

    /// Maps each entry of the group column — a dictionary code, a run, a
    /// distinct cell — to its group slot once, one slot when every
    /// selected row is in one group, then folds each aggregate column's
    /// vector at the selected positions into its slots' accumulators, in
    /// a loop typed once per zone. Of a block's zone selected whole, a
    /// group column its zone map answers is not decoded, and into one
    /// slot a SUM or AVG adds the index's exact sum of an `Int64` or a
    /// `Float64` zone, or folds an Alp chunk as it unpacks it.
    fn fold_zone(
        &mut self,
        cols: &ZoneCols<'_>,
        sel: &[usize],
        plan: &ScanPlan<'_>,
    ) -> VortexResult<u64> {
        let mut buf = Vec::new();
        // Each selected row's group, unless `one` holds them all.
        let mut slots = Vec::new();
        // The group column's one value, if the zone map answers for it.
        let constant = (self.group.filter(|&g| plan.keeps(g)))
            .and_then(|g| cols.stored(g, sel, |block, z| block.zone_constant(g, z)));
        let group = self.group.filter(|_| constant.is_none());
        let group = group.map(|g| plan.zone_column(cols, g, sel));
        let one = match (constant, group.transpose()?) {
            (Some(one), _) => {
                self.key.clear();
                one.encode_key_into(&mut self.key);
                // lint:allow(L010, once per group: its value on first sight)
                Some(self.keyed_slot(|| Some(one.clone())))
            }
            (None, None) => Some(self.group_slot(None)),
            (None, Some(None)) => Some(self.group_slot(Some(Value::Null))),
            (None, Some(Some((col, at)))) => {
                // The column as entries, each looked up once: a
                // dictionary's codes, a run's index, a typed leaf's
                // distinct cells numbered, an `Any` leaf's own rows.
                let (leaf, at) = col.resolve(at, &mut buf);
                let typed = col.is_typed_leaf().then(|| dictionary(leaf));
                let (firsts, codes) = typed.unwrap_or_default();
                let mut memo = vec![usize::MAX; leaf.len()];
                slots.reserve(at.len());
                for &p in at {
                    let e = codes.get(p).map_or(p, |&e| e as usize);
                    if memo[e] == usize::MAX {
                        // Looked up by the key where the entry lies: a
                        // `Value` is built for a group's first row only.
                        let row = firsts.get(e).copied().unwrap_or(e);
                        self.key.clear();
                        leaf.key_into(row, &mut self.key);
                        memo[e] = self.keyed_slot(|| Some(leaf.value(row)));
                    }
                    slots.push(memo[e]);
                }
                (slots.first())
                    .filter(|&&s| slots.iter().all(|&t| t == s))
                    .copied()
            }
        };
        for (a, &(kind, c)) in self.aggs.iter().enumerate() {
            if kind == AggKind::Count {
                match one {
                    Some(s) => self.groups[s].1[a].n += sel.len() as u64,
                    None => slots.iter().for_each(|&s| self.groups[s].1[a].n += 1),
                }
                continue;
            }
            // Into one group, SUM and AVG add the index's exact sum, or
            // fold a chunk as it unpacks.
            let summed = matches!(kind, AggKind::Sum | AggKind::Avg);
            if let Some((s, c)) = one.zip(c).filter(|&(_, c)| summed && plan.keeps(c)) {
                let acc = &mut self.groups[s].1[a];
                if let Some((sum, n)) = cols.stored(c, sel, |block, z| block.zone_sum(c, z)) {
                    (acc.n, acc.int) = (acc.n + n, acc.int + sum);
                    continue;
                }
                let float = |block: &RosBlock, z| block.zone_float_sum(c, z);
                if let Some((sum, n)) = cols.stored(c, sel, float) {
                    acc.add_float_sum(sum, n);
                    continue;
                }
                let fold = |block: &RosBlock, z| {
                    let folded = block.fold_zone(c, z, acc);
                    folded.map(|folded| folded.then_some(())).transpose()
                };
                if cols.stored(c, sel, fold).transpose()?.is_some() {
                    continue;
                }
            }
            // A column that reads NULL in every row folds nothing.
            let col = c.map(|c| plan.zone_column(cols, c, sel)).transpose()?;
            let Some((col, at)) = col.flatten() else {
                continue;
            };
            let (leaf, at) = col.resolve(at, &mut buf);
            match one {
                Some(s) => fold_leaf(kind, leaf, at, &mut self.groups[s].1[a]),
                None => fold_leaf(kind, leaf, at, (&slots[..], &mut self.groups[..], a)),
            }
        }
        Ok(0)
    }

    fn merge_shard(&mut self, other: Self) {
        for (g, accs) in other.groups {
            let slot = self.group_slot(g);
            for ((acc, o), (kind, _)) in self.groups[slot].1.iter_mut().zip(accs).zip(&self.aggs) {
                acc.merge_acc(*kind, o);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use vortex_common::crypt::Key;
    use vortex_common::row::Row;
    use vortex_common::schema::{Field, FieldType};
    use vortex_ros::{Chunk, ColumnBuilder, RosBlockBuilder, ZONE_ROWS};

    use super::*;
    use crate::expr::Expr;
    use crate::pushdown::Decoded;
    use crate::read::Zone;
    use crate::tally;

    impl Aggregator {
        /// The fold this consumer used to run — the kind, the NULL test
        /// and the leaf type matched at every row, and every row folded
        /// into its group's accumulator by index — as the oracle of the
        /// typed loops.
        fn fold_zone_rowwise(
            &mut self,
            cols: &ZoneCols<'_>,
            sel: &[usize],
            plan: &ScanPlan<'_>,
        ) -> VortexResult<()> {
            let mut buf = Vec::new();
            let mut slots = Vec::with_capacity(sel.len());
            let group = self.group.map(|g| plan.zone_column(cols, g, sel));
            match group.transpose()? {
                None => slots.resize(sel.len(), self.group_slot(None)),
                Some(None) => slots.resize(sel.len(), self.group_slot(Some(Value::Null))),
                Some(Some((col, at))) => {
                    let (leaf, at) = col.resolve(at, &mut buf);
                    for &p in at {
                        slots.push(self.group_slot(Some(leaf.value(p))));
                    }
                }
            }
            for (a, (kind, c)) in self.aggs.iter().enumerate() {
                if *kind == AggKind::Count {
                    slots.iter().for_each(|&s| self.groups[s].1[a].n += 1);
                    continue;
                }
                let col = c.map(|c| plan.zone_column(cols, c, sel)).transpose()?;
                let Some((col, at)) = col.flatten() else {
                    continue;
                };
                let (leaf, at) = col.resolve(at, &mut buf);
                for (&p, &s) in at.iter().zip(&slots) {
                    let acc = &mut self.groups[s].1[a];
                    match kind {
                        _ if leaf.is_null(p) => {}
                        AggKind::Min | AggKind::Max => {
                            acc.offer(kind.wants(), |m| leaf.cmp_at(p, m), || leaf.value(p))
                        }
                        _ => match leaf {
                            ColumnVec::I64(IntKind::Int64, ints) => {
                                acc.add_int(ints.values[p] as i128, false)
                            }
                            ColumnVec::I128(ints) => acc.add_int(ints.values[p], true),
                            ColumnVec::F64(floats) => acc.add_float(floats.values[p]),
                            ColumnVec::Any(values) => acc.add_value(&values[p]),
                            _ => {}
                        },
                    }
                }
            }
            Ok(())
        }
    }

    /// The leaf vector of `n` cells.
    fn leaf(n: usize, cell: impl Fn(usize) -> Value) -> ColumnVec {
        let mut col = ColumnBuilder::default();
        (0..n).for_each(|k| col.add_value(cell(k)));
        col.into_column()
    }

    /// The typed loops fold what the row loop folded, bit for bit, over
    /// zones of one group (a run of one value; no group column at all)
    /// and of many (a dictionary, NULL among its entries): COUNT by the
    /// selection's length; SUM / AVG / MIN / MAX of an Int64 and a
    /// Float64 leaf with a bitmap, a Float64 one without, a Numeric one,
    /// an `Any` column mixing Int64, Float64 and NULL, and a string one —
    /// float sums in row order over magnitudes where order shows.
    #[test]
    fn typed_fold_equals_the_row_loop() {
        let names = ["i", "f", "h", "a", "n", "s", "g"];
        let types = [
            FieldType::Int64,
            FieldType::Float64,
            FieldType::Float64,
            FieldType::Float64,
            FieldType::Numeric,
            FieldType::String,
            FieldType::Int64,
        ];
        let fields = names.iter().zip(types).map(|(c, t)| Field::nullable(c, t));
        let schema = Schema::new(fields.collect());
        let n = 300;
        let cols = |g: ColumnVec| {
            let mut cols = vec![
                leaf(n, |k| match k % 7 {
                    0 => Value::Null,
                    _ => Value::Int64((k as i64 * 37) % 1000 - 500),
                }),
                leaf(n, |k| match k % 11 {
                    0 => Value::Null,
                    1 => Value::Float64(1e16),
                    2 => Value::Float64(-1e16),
                    3 => Value::Float64(-0.0),
                    _ => Value::Float64(k as f64 * 0.1 + 1.0 / 3.0),
                }),
                leaf(n, |k| {
                    Value::Float64((k as f64).sqrt() * 1e15 - 7.0 / (k + 1) as f64)
                }),
                leaf(n, |k| match k % 3 {
                    0 => Value::Int64(k as i64 - 150),
                    1 => Value::Float64(k as f64 / 7.0),
                    _ => Value::Null,
                }),
                leaf(n, |k| match k % 5 {
                    0 => Value::Null,
                    _ => Value::Numeric(k as i128 * 1_000_000_007),
                }),
                leaf(n, |k| Value::String(format!("s{:03}", (k * 13) % 97))),
                g,
            ];
            // A zone from before the group column: it reads NULL.
            if cols[6].is_empty() {
                cols.pop();
            }
            cols
        };
        let one = ColumnVec::Runs {
            lens: vec![n as u32],
            values: Box::new(leaf(1, |_| Value::Int64(7))),
        };
        let many = ColumnVec::Dict {
            codes: (0..n as u32).map(|k| k % 3).collect(),
            dict: Box::new(leaf(3, |k| {
                [Value::Int64(1), Value::Int64(7), Value::Null][k].clone()
            })),
        };
        let zones = [one, many, leaf(0, |_| Value::Null)].map(|g| Zone {
            first: 0,
            metas: vec![RowMeta::default(); n],
            cols: cols(g),
        });
        assert!(matches!(
            zones[0].cols[0],
            ColumnVec::I64(_, Prim { nulls: Some(_), .. })
        ));
        assert!(matches!(
            zones[0].cols[2],
            ColumnVec::F64(Prim { nulls: None, .. })
        ));
        assert!(matches!(zones[0].cols[3], ColumnVec::Any(_)));
        let kinds = [AggKind::Sum, AggKind::Avg, AggKind::Min, AggKind::Max];
        let mut aggs = vec![(AggKind::Count, None)];
        aggs.extend(names[..6].iter().flat_map(|c| kinds.map(|k| (k, Some(*c)))));
        let every: Vec<usize> = (0..n).collect();
        let some: Vec<usize> = (0..n).filter(|k| k % 4 != 1).collect();
        let all = Expr::True;
        for group in [None, Some("g")] {
            for sel in [&every, &some] {
                let mut got = Aggregator::new(&schema, group, &aggs).unwrap();
                let mut want = got.clone();
                let plan = ScanPlan::compile(&all, None, &schema, None, &got).unwrap();
                for zone in zones.iter().chain(&zones[..1]) {
                    let zone = ZoneCols::Decoded(zone);
                    assert_eq!(got.fold_zone(&zone, sel, &plan).unwrap(), 0);
                    want.fold_zone_rowwise(&zone, sel, &plan).unwrap();
                }
                let (got, want) = (got.into_groups(), want.into_groups());
                assert_eq!(got.len(), want.len(), "{group:?}");
                assert_eq!(got.len(), if group.is_some() { 3 } else { 1 });
                for ((g, vals), (wg, wvals)) in got.iter().zip(&want) {
                    assert_eq!(g, wg);
                    for ((v, w), agg) in vals.iter().zip(wvals).zip(&aggs) {
                        assert!(v.key_eq(w), "{agg:?} of group {g:?}: {v:?} != {w:?}");
                    }
                }
            }
        }
    }

    /// Grouped by a leaf vector — as a WOS fragment, a tail or merge-on-
    /// read's survivors arrive — the per-entry lookup folds what the row
    /// loop folds, group for group and bit for bit: over a zone of one key
    /// and one of keys distinct but for NULL (and `Bool`'s two), selected
    /// whole and in part, grouped by `Int64` with NULLs, `Float64` with
    /// -0.0, 0.0 and two NaN payloads, `Date`, `Timestamp`, `Numeric`,
    /// `Bool`, `String` with NULL and "", `Bytes`, and an `Any` leaf whose
    /// `Int64(1)` and `Float64(1.0)` are two groups.
    #[test]
    fn a_leaf_group_is_the_row_loop() {
        use vortex_common::truetime::Timestamp;
        let names = ["i", "f", "d", "t", "n", "b", "s", "y", "a", "v", "w"];
        let types = [
            FieldType::Int64,
            FieldType::Float64,
            FieldType::Date,
            FieldType::Timestamp,
            FieldType::Numeric,
            FieldType::Bool,
            FieldType::String,
            FieldType::Bytes,
            FieldType::Int64,
            FieldType::Int64,
            FieldType::Float64,
        ];
        let fields = names.iter().zip(types).map(|(c, t)| Field::nullable(c, t));
        let schema = Schema::new(fields.collect());
        // Column `c`'s cell of key `k`.
        let cell = |c: usize, k: usize| match (c, k) {
            (0, k) if k % 5 == 0 => Value::Null,
            (0, k) => Value::Int64(k as i64 - 50),
            (1, 0) => Value::Float64(-0.0),
            (1, 1) => Value::Float64(0.0),
            (1, 2) => Value::Float64(f64::NAN),
            (1, 3) => Value::Float64(f64::from_bits(0x7ff0_0000_0000_0001)),
            (1, 4) => Value::Null,
            (1, k) => Value::Float64(k as f64 * 0.25 - 9.0),
            (2, k) => Value::Date(k as i32 - 10),
            (3, k) => Value::Timestamp(Timestamp::from_micros(k as u64 * 1_000)),
            (4, k) => Value::Numeric(k as i128 * 1_000_000_007),
            (5, k) if k % 3 == 0 => Value::Null,
            (5, k) => Value::Bool(k % 2 == 0),
            (6, 0) => Value::Null,
            (6, 1) => Value::String(String::new()),
            (6, k) => Value::String(format!("g{k}")),
            (7, k) => Value::Bytes(vec![0xff; k % 3].into_iter().chain([k as u8]).collect()),
            (8, k) if k % 2 == 0 => Value::Int64(k as i64 / 2),
            (8, k) => Value::Float64((k / 2) as f64),
            (9, k) => Value::Int64((k as i64 * 37) % 101 - 50),
            (_, k) => Value::Float64(k as f64 / 3.0),
        };
        let n = 200;
        // A zone of one key per group column, and one of distinct keys.
        let zone = |key: &dyn Fn(usize) -> usize| Zone {
            first: 0,
            metas: vec![RowMeta::default(); n],
            cols: (0..names.len())
                .map(|c| leaf(n, |k| cell(c, if c < 9 { key(k) } else { k })))
                .collect(),
        };
        let zones = [zone(&|_| 3), zone(&|k| k)];
        assert!(zones[1].cols[..8].iter().all(ColumnVec::is_typed_leaf));
        assert!(matches!(zones[1].cols[8], ColumnVec::Any(_)));
        let aggs = [
            (AggKind::Count, None),
            (AggKind::Sum, Some("v")),
            (AggKind::Avg, Some("w")),
            (AggKind::Min, Some("s")),
            (AggKind::Max, Some("v")),
        ];
        let every: Vec<usize> = (0..n).collect();
        let some: Vec<usize> = (0..n).filter(|k| k % 4 != 1).collect();
        let all = Expr::True;
        for group in &names[..9] {
            for sel in [&every, &some] {
                let mut got = Aggregator::new(&schema, Some(group), &aggs).unwrap();
                let mut want = got.clone();
                let plan = ScanPlan::compile(&all, None, &schema, None, &got).unwrap();
                for zone in zones.iter().chain(&zones[..1]) {
                    let zone = ZoneCols::Decoded(zone);
                    got.fold_zone(&zone, sel, &plan).unwrap();
                    want.fold_zone_rowwise(&zone, sel, &plan).unwrap();
                }
                let (got, want) = (got.into_groups(), want.into_groups());
                assert_eq!(got.len(), want.len(), "{group}");
                assert!(got.len() > 2, "{group}");
                for ((g, vals), (wg, wvals)) in got.iter().zip(&want) {
                    let (g, wg) = (g.as_ref().unwrap(), wg.as_ref().unwrap());
                    assert!(g.key_eq(wg), "{group}: {g:?} != {wg:?}");
                    for ((v, w), agg) in vals.iter().zip(wvals).zip(&aggs) {
                        assert!(v.key_eq(w), "{agg:?} of {group} = {g:?}: {v:?} != {w:?}");
                    }
                }
            }
        }
    }

    /// The zones of a block with a column per shape the stored-form fold
    /// and the zone-map group tell apart — integers with NULLs, ones whose
    /// sum leaves `i64`, floats with NaN, -0.0, an irrational and NULLs,
    /// dates, numerics, strings, a constant, and `Any` cells that tie an
    /// `Int64` with the equal `Float64` — grouped by a column constant in
    /// some zones and not in others.
    fn stored_block() -> (Schema, RosBlock, Vec<&'static str>) {
        let names = vec!["g", "i", "big", "f", "d", "n", "s", "c", "a"];
        let types = [
            FieldType::Int64,
            FieldType::Int64,
            FieldType::Int64,
            FieldType::Float64,
            FieldType::Date,
            FieldType::Numeric,
            FieldType::String,
            FieldType::Int64,
            FieldType::Int64,
        ];
        let fields = names.iter().zip(types).map(|(c, t)| Field::nullable(c, t));
        let schema = Schema::new(fields.collect());
        let mut b = RosBlockBuilder::new(&schema);
        let tie = 1i64 << 53;
        for k in 0..2_500usize {
            let r = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
            let values = vec![
                Value::Int64(match k / ZONE_ROWS {
                    1 => (r % 3) as i64,
                    z => 7 + z as i64,
                }),
                match r % 7 {
                    0 => Value::Null,
                    _ => Value::Int64((r % 100_000) as i64 - 50_000),
                },
                Value::Int64(i64::MAX - (r % 9) as i64),
                Value::Float64(match r % 13 {
                    0 => f64::NAN,
                    1 => -0.0,
                    2 => std::f64::consts::E,
                    _ => (r % 100_000) as f64 / 100.0,
                }),
                Value::Date((r % 400) as i32),
                Value::Numeric(r as i128 * 1_000_003),
                Value::String(format!("s{}", r % 50)),
                Value::Int64(42),
                [Value::Int64(tie), Value::Float64(tie as f64)][k % 2].clone(),
            ];
            let values = match k % 11 {
                0 => values
                    .into_iter()
                    .enumerate()
                    .map(|(c, v)| if c == 3 { Value::Null } else { v })
                    .collect(),
                _ => values,
            };
            b.push(RowMeta::default(), Row::insert(values)).unwrap();
        }
        (schema, b.build(false).unwrap(), names)
    }

    /// The stored-form fold and the zone-map group give what decoding the
    /// zone first gives, bit for bit, group by group: over every zone of
    /// [`stored_block`], selected whole and in part (which decodes),
    /// under COUNT / SUM / AVG / MIN /
    /// MAX of every column, grouped by nothing, by `g`, by the `Any`
    /// column and by the strings. And a zone whose group and aggregates
    /// all come from its stored form allocates nothing.
    #[test]
    fn the_stored_form_fold_is_the_decoded_one() {
        let (schema, block, names) = stored_block();
        let kinds = [AggKind::Sum, AggKind::Avg, AggKind::Min, AggKind::Max];
        let mut aggs = vec![(AggKind::Count, None)];
        aggs.extend(names.iter().flat_map(|c| kinds.map(|k| (k, Some(*c)))));
        let all = Expr::True;
        let tally = Decoded::default();
        for group in [None, Some("g"), Some("a"), Some("s")] {
            let mut got = Aggregator::new(&schema, group, &aggs).unwrap();
            let mut want = got.clone();
            let plan = ScanPlan::compile(&all, None, &schema, None, &got).unwrap();
            for z in 0..block.zone_count() {
                let every: Vec<usize> = (0..block.zone_range(z).len()).collect();
                let some: Vec<usize> = every.iter().copied().filter(|k| k % 4 != 1).collect();
                let cols = (0..names.len()).map(|c| block.decode_zone(c, z).unwrap());
                let zone = Zone {
                    first: 0,
                    metas: vec![RowMeta::default(); every.len()],
                    cols: cols.collect(),
                };
                for sel in [&every, &some] {
                    let stored = ZoneCols::of_block(&block, z, &tally);
                    got.fold_zone(&stored, sel, &plan).unwrap();
                    want.fold_zone(&ZoneCols::Decoded(&zone), sel, &plan)
                        .unwrap();
                }
            }
            let (got, want) = (got.into_groups(), want.into_groups());
            assert_eq!(got.len(), want.len(), "{group:?}");
            for ((g, vals), (wg, wvals)) in got.iter().zip(&want) {
                assert!(g
                    .as_ref()
                    .map_or(wg.is_none(), |g| wg.as_ref().is_some_and(|w| g.key_eq(w))));
                for ((v, w), agg) in vals.iter().zip(wvals).zip(&aggs) {
                    assert!(v.key_eq(w), "{agg:?} of group {g:?}: {v:?} != {w:?}");
                }
            }
        }
        // Every zone into the one global group, zones 0 and 2 by `g`.
        assert_eq!(tally.zones_folded.get(), 3 + 2);

        let aggs = [
            (AggKind::Count, None),
            (AggKind::Sum, Some("big")),
            (AggKind::Avg, Some("f")),
        ];
        let mut agg = Aggregator::new(&schema, Some("g"), &aggs).unwrap();
        let plan = ScanPlan::compile(&all, None, &schema, None, &agg).unwrap();
        let every: Vec<usize> = (0..ZONE_ROWS).collect();
        let (zone, again) = (
            ZoneCols::of_block(&block, 0, &tally),
            ZoneCols::of_block(&block, 0, &tally),
        );
        agg.fold_zone(&zone, &every, &plan).unwrap();
        let (_, _, requests) = tally::tallied(|| agg.fold_zone(&again, &every, &plan).unwrap());
        assert_eq!(requests, 0, "a zone folded from its stored form allocates");
    }

    /// A column [`Consumer::index_answers`] says the index answers of a
    /// zone selected whole is one [`Aggregator::fold_zone`] never decodes:
    /// of a block opened from its bytes, with the chunks the fetch plan
    /// reads and no other — a decode of any other fails — every zone
    /// folds whole to what decoding it gives. Grouped by nothing, by `g`
    /// (one key in zones 0 and 2), by the strings `k` (one key in zones 0
    /// and 2, which their dictionary of one entry says once fetched:
    /// fetched first, and not), and by a column past the block's; under
    /// COUNT(i) alone, SUM(g), SUM and MIN of `i`, and SUM / AVG of
    /// integers with NULLs, of a constant and of floats.
    #[test]
    fn what_the_index_answers_is_not_fetched() {
        let names = ["g", "i", "c", "f", "k"];
        let types = [
            FieldType::Int64,
            FieldType::Int64,
            FieldType::Int64,
            FieldType::Float64,
            FieldType::String,
        ];
        let fields = names.iter().zip(types).map(|(c, t)| Field::nullable(c, t));
        let stored = Schema::new(fields.collect());
        let mut b = RosBlockBuilder::new(&stored);
        for k in 0..2_500usize {
            let (r, z) = (
                (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20,
                k / ZONE_ROWS,
            );
            let one = |v: i64| if z == 1 { (r % 3) as i64 } else { v + z as i64 };
            let values = vec![
                Value::Int64(one(7)),
                match r % 7 {
                    0 => Value::Null,
                    _ => Value::Int64((r % 100_000) as i64 - 50_000),
                },
                Value::Int64(42),
                Value::Float64((r % 100_000) as f64 / 100.0 + 1.0 / 3.0),
                Value::String(format!("key {}", one(0))),
            ];
            b.push(RowMeta::default(), Row::insert(values)).unwrap();
        }
        let block = b.build(false).unwrap();
        let schema = (stored.evolve_add_column(Field::nullable("late", FieldType::Int64))).unwrap();
        let key = Key::derive_from_passphrase("index answers");
        let bytes = block.to_bytes(&key, 1);
        let mut read = |at: u64, len: usize, check: &dyn Fn(&[u8]) -> VortexResult<()>| {
            let held = &bytes[at as usize..][..len];
            check(held).map(|()| held.to_vec())
        };
        let (count, sum) = (AggKind::Count, AggKind::Sum);
        let aggs: [&[(AggKind, Option<&str>)]; 4] = [
            &[(count, Some("i"))],
            &[(sum, Some("g"))],
            &[(sum, Some("i")), (AggKind::Min, Some("i"))],
            &[
                (count, None),
                (sum, Some("i")),
                (AggKind::Avg, Some("c")),
                (AggKind::Avg, Some("f")),
            ],
        ];
        let all = Expr::True;
        let mut answered = Vec::new();
        for group in [None, Some("g"), Some("k"), Some("late")] {
            for (set, aggs) in aggs.iter().enumerate() {
                for warm in [false, true] {
                    let mut got = Aggregator::new(&schema, group, aggs).unwrap();
                    let mut want = got.clone();
                    let plan = ScanPlan::compile(&all, None, &schema, None, &got).unwrap();
                    let mut columns = vec![false; schema.fields.len()];
                    got.reads(&plan, &mut columns);
                    let (cold, _) =
                        RosBlock::open_index(bytes.len() as u64, &key, 1, &mut read).unwrap();
                    if warm {
                        cold.fetch(&mut read, |chunk, _| chunk == Chunk::Column(4))
                            .unwrap();
                    }
                    let index = |c: usize, z: usize| got.index_answers(&plan, &cold, z, c);
                    let pairs = (0..cold.zone_count()).flat_map(|z| (0..5).map(move |c| (z, c)));
                    let read_by = |&(z, c): &(usize, usize)| columns[c] && index(c, z);
                    let pairs: Vec<(usize, usize)> = pairs.filter(read_by).collect();
                    let wanted = |chunk: Chunk, z: usize| match chunk {
                        Chunk::Column(c) => columns[c] && !pairs.contains(&(z, c)),
                        _ => false,
                    };
                    cold.fetch(&mut read, wanted).unwrap();
                    answered.push(((group, set, warm), pairs));
                    let tally = Decoded::default();
                    for z in 0..block.zone_count() {
                        let every: Vec<usize> = (0..block.zone_range(z).len()).collect();
                        let held = ZoneCols::of_block(&cold, z, &tally);
                        got.fold_zone(&held, &every, &plan).unwrap();
                        let cols = (0..names.len()).map(|c| block.decode_zone(c, z).unwrap());
                        let zone = Zone {
                            first: 0,
                            metas: vec![RowMeta::default(); every.len()],
                            cols: cols.collect(),
                        };
                        want.fold_zone(&ZoneCols::Decoded(&zone), &every, &plan)
                            .unwrap();
                    }
                    let (got, want) = (got.into_groups(), want.into_groups());
                    assert_eq!(got.len(), want.len(), "{group:?}, {aggs:?}");
                    for ((g, vals), (wg, wvals)) in got.iter().zip(&want) {
                        assert!(g
                            .as_ref()
                            .map_or(wg.is_none(), |g| wg.as_ref().is_some_and(|w| g.key_eq(w))));
                        for ((v, w), agg) in vals.iter().zip(wvals).zip(aggs.iter()) {
                            assert!(v.key_eq(w), "{agg:?} of group {g:?}: {v:?} != {w:?}");
                        }
                    }
                }
            }
        }
        // The (zone, column) pairs the index answered, of some of the runs.
        let of = |run: (Option<&str>, usize, bool)| {
            let pairs = answered.iter().find(|(r, _)| *r == run);
            pairs.map(|(_, pairs)| pairs.clone()).unwrap()
        };
        let (i, c, f, k) = (1, 2, 3, 4);
        assert_eq!(of((None, 0, false)), [(0, i), (1, i), (2, i)]);
        assert_eq!(of((Some("g"), 1, false)), [(0, 0), (2, 0)]);
        // MIN reads what SUM alone would not.
        for group in [None, Some("g"), Some("k"), Some("late")] {
            let pairs = of((group, 2, true));
            assert!(pairs.iter().all(|&(_, col)| col != i), "{group:?}");
        }
        assert_eq!(of((Some("g"), 2, false)), [(0, 0), (2, 0)]);
        assert_eq!(of((Some("k"), 3, false)), []);
        let warm = [
            (0, i),
            (0, c),
            (0, f),
            (0, k),
            (2, i),
            (2, c),
            (2, f),
            (2, k),
        ];
        assert_eq!(of((Some("k"), 3, true)), warm);
        let late: Vec<_> = (0..3).flat_map(|z| [(z, i), (z, c), (z, f)]).collect();
        assert_eq!(of((Some("late"), 3, false)), late);
    }
}
