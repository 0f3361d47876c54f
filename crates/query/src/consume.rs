//! Scan consumers: what a scan folds its matching rows into.
//!
//! A scan does not return rows for its caller to fold. Every scan shard
//! owns one [`Consumer`]; each fragment step feeds it a zone — of a ROS
//! block, a WOS fragment, a tail or merge-on-read's survivors alike — as
//! typed column vectors plus the selected positions, and the shards'
//! consumers merge at the end. A `Row` is born only in [`RowCollector`],
//! through [`gather_rows`]; an [`Aggregator`] (and a count,
//! which is an aggregation without aggregates) builds none.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use vortex_common::error::{VortexError, VortexResult};
use vortex_common::row::{Row, Value};
use vortex_common::schema::Schema;
use vortex_ros::{gather_rows, ColumnVec, IntKind, Picked, RowMeta};

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

    fn merge_shard(&mut self, other: Self) {
        self.rows.extend(other.rows);
    }
}

/// One aggregate of one group. SUM and AVG share the numeric fields;
/// integers add exactly, so only the `float` sum depends on row order.
#[derive(Debug, Clone, Default)]
struct Acc {
    /// COUNT: rows. SUM / AVG: non-NULL numeric inputs.
    n: u64,
    /// Sum of the Int64 and Numeric inputs (Numeric is fixed-point ×10⁹).
    int: i128,
    saw_numeric: bool,
    /// Sum of the Float64 inputs.
    float: f64,
    saw_float: bool,
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
        self.float += v;
        self.saw_float = true;
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
        self.float += other.float;
        self.saw_float |= other.saw_float;
        if let Some(v) = other.best {
            if (self.best.as_ref()).map_or(true, |cur| v.total_cmp(cur) == kind.wants()) {
                self.best = Some(v);
            }
        }
    }

    fn into_value(self, kind: AggKind) -> Value {
        let scale = if self.saw_numeric { 1e9 } else { 1.0 };
        let total = self.float + self.int as f64 / scale;
        match kind {
            AggKind::Count => Value::Int64(self.n as i64),
            AggKind::Min | AggKind::Max => self.best.unwrap_or(Value::Null),
            _ if self.n == 0 => Value::Null, // SUM / AVG of no rows
            AggKind::Avg => Value::Float64(total / self.n as f64),
            _ if self.saw_float => Value::Float64(total),
            _ if self.saw_numeric => Value::Numeric(self.int),
            _ => match i64::try_from(self.int) {
                Ok(v) => Value::Int64(v),
                Err(_) => Value::Float64(self.int as f64), // beyond i64
            },
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

    /// Maps the group column's dictionary codes / runs / rows to group
    /// slots once, then folds each aggregate column's vector at the
    /// selected positions into its slot's accumulator.
    fn fold_zone(
        &mut self,
        cols: &ZoneCols<'_>,
        sel: &[usize],
        plan: &ScanPlan<'_>,
    ) -> VortexResult<u64> {
        let mut buf = Vec::new();
        let mut slots = Vec::with_capacity(sel.len());
        let group = self.group.map(|g| plan.zone_column(cols, g, sel));
        match group.transpose()? {
            None => slots.resize(sel.len(), self.group_slot(None)),
            Some(None) => slots.resize(sel.len(), self.group_slot(Some(Value::Null))),
            Some(Some((col, at))) => {
                let (leaf, at) = col.resolve(at, &mut buf);
                let mut memo = vec![usize::MAX; leaf.len()];
                for &p in at {
                    // Looked up by the key where it lies: a `Value` is
                    // built for a group's first row only.
                    if memo[p] == usize::MAX {
                        self.key.clear();
                        leaf.key_into(p, &mut self.key);
                        memo[p] = self.keyed_slot(|| Some(leaf.value(p)));
                    }
                    slots.push(memo[p]);
                }
            }
        }
        for (a, (kind, c)) in self.aggs.iter().enumerate() {
            if *kind == AggKind::Count {
                slots.iter().for_each(|&s| self.groups[s].1[a].n += 1);
                continue;
            }
            // A column that reads NULL in every row folds nothing.
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
                        _ => {} // non-numerics ignored
                    },
                }
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
