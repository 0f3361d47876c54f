//! Filter expressions and the derivation of pruning predicates.
//!
//! §7.2: "when a query is received, BigQuery uses the filters specified
//! in the query to construct derivative expressions on the column
//! properties. The stored column properties are used to evaluate these
//! expressions for each Fragment and Streamlet ... to determine whether
//! it is relevant to the query." [`Expr::may_match_stats`] is that
//! derivative evaluation: `false` means the fragment provably holds no
//! matching row and is eliminated.

use std::cmp::Ordering;

use vortex_common::row::Value;
use vortex_common::stats::ColumnStats;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    /// Whether `left <op> right` holds when `left` orders `ord` against
    /// `right`.
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// A predicate leaf's test on one cell.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Test<'e> {
    /// `cell <op> literal`.
    Cmp(CmpOp, &'e Value),
    /// `cell IN (...)`.
    In(&'e [Value]),
    /// `cell IS NULL`.
    IsNull,
}

/// What the column properties of a set of rows decide of a predicate:
/// no row passes it, some may, or every row does. The order is AND's:
/// a conjunction is as decided as its least decided side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Verdict {
    /// No row passes.
    None,
    /// The properties cannot tell.
    Some,
    /// Every row passes.
    All,
}

impl Test<'_> {
    /// The §7.2 derivative expression of one leaf over the rows `s`
    /// summarizes: every cell lies between its min and max under
    /// [`Value::total_cmp`], so the orderings a cell can take against a
    /// literal run from the min's to the max's, and the test is decided if
    /// it holds at none of them, or — no cell NULL, the literal of the
    /// ends' own type, under which the order is total — at all of them.
    /// Strict inequalities decide exactly; `<>` decides when the literal
    /// lies outside the range or is its only value.
    pub(crate) fn verdict(&self, s: &ColumnStats) -> Verdict {
        let cmp = |op: CmpOp, v: &Value| {
            // No value (every row NULL), or a NULL literal: no row passes.
            let (Some(lo), Some(hi), false) = (&s.min, &s.max, v.is_null()) else {
                return Verdict::None;
            };
            let reach = lo.total_cmp(v)..=hi.total_cmp(v);
            let orders = [Ordering::Less, Ordering::Equal, Ordering::Greater];
            let held = || {
                (orders.iter())
                    .filter(|o| reach.contains(o))
                    .map(|o| op.holds(*o))
            };
            let same = |end: &Value| std::mem::discriminant(end) == std::mem::discriminant(v);
            match held().any(|h| h) {
                false => Verdict::None,
                true if held().all(|h| h) && !s.has_null && same(lo) && same(hi) => Verdict::All,
                true => Verdict::Some,
            }
        };
        match self {
            Test::Cmp(op, value) => cmp(*op, value),
            Test::In(values) => {
                (values.iter()).fold(Verdict::None, |v, l| v.max(cmp(CmpOp::Eq, l)))
            }
            Test::IsNull if !s.has_null => Verdict::None,
            Test::IsNull if s.min.is_none() => Verdict::All,
            Test::IsNull => Verdict::Some,
        }
    }
}

/// A boolean filter expression over one table's rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Always true.
    True,
    /// `column <op> literal`.
    Cmp {
        /// Column name (top level).
        column: String,
        /// Operator.
        op: CmpOp,
        /// Literal to compare against.
        value: Value,
    },
    /// `column IN (v1, v2, ...)`. NULL list elements never match (SQL
    /// three-valued logic collapsed to boolean, like [`Expr::Cmp`]).
    In {
        /// Column name (top level).
        column: String,
        /// Literals the column may equal.
        values: Vec<Value>,
    },
    /// `column IS NULL`.
    IsNull(String),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

impl Expr {
    /// `column = value`.
    pub fn eq(column: &str, value: Value) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op: CmpOp::Eq,
            value,
        }
    }

    /// `column < value`.
    pub fn lt(column: &str, value: Value) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op: CmpOp::Lt,
            value,
        }
    }

    /// `column <= value`.
    pub fn le(column: &str, value: Value) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op: CmpOp::Le,
            value,
        }
    }

    /// `column > value`.
    pub fn gt(column: &str, value: Value) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op: CmpOp::Gt,
            value,
        }
    }

    /// `column >= value`.
    pub fn ge(column: &str, value: Value) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op: CmpOp::Ge,
            value,
        }
    }

    /// `column IN (values...)`.
    pub fn is_in(column: &str, values: Vec<Value>) -> Expr {
        Expr::In {
            column: column.into(),
            values,
        }
    }

    /// `a AND b`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `a OR b`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT a`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// The §7.2 derivative expression over column properties: returns
    /// `false` only if NO row summarized by `stats` can satisfy the
    /// filter. `stats_of` maps a column name to its properties (absent =
    /// unknown = cannot prune).
    pub fn may_match_stats(&self, stats_of: &dyn Fn(&str) -> Option<ColumnStats>) -> bool {
        // Unknown column properties cannot prune: keep.
        let leaf = |column: &str, test: Test<'_>| {
            stats_of(column).map_or(true, |s| test.verdict(&s) != Verdict::None)
        };
        match self {
            Expr::True => true,
            Expr::Cmp { column, op, value } => leaf(column, Test::Cmp(*op, value)),
            Expr::In { column, values } => leaf(column, Test::In(values)),
            Expr::IsNull(column) => leaf(column, Test::IsNull),
            Expr::And(a, b) => a.may_match_stats(stats_of) && b.may_match_stats(stats_of),
            Expr::Or(a, b) => a.may_match_stats(stats_of) || b.may_match_stats(stats_of),
            // NOT cannot be pruned from min/max alone without interval
            // complements; stay safe.
            Expr::Not(_) => true,
        }
    }

    /// Point-equality values per column, used for bloom-filter pruning:
    /// returns `Some(value)` when the expression *requires* `column ==
    /// value` for every matching row.
    pub fn required_point(&self, column: &str) -> Option<&Value> {
        match self {
            Expr::Cmp {
                column: c,
                op: CmpOp::Eq,
                value,
            } if c == column => Some(value),
            // A one-element IN list is an equality requirement (NULL
            // elements never match, so they don't count).
            Expr::In { column: c, values } if c == column => {
                let mut non_null = values.iter().filter(|v| !v.is_null());
                match (non_null.next(), non_null.next()) {
                    (Some(v), None) => Some(v),
                    _ => None,
                }
            }
            Expr::And(a, b) => a
                .required_point(column)
                .or_else(|| b.required_point(column)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_common::error::{VortexError, VortexResult};
    use vortex_common::row::Row;
    use vortex_common::schema::{Field, FieldType, Schema};

    impl Expr {
        /// Evaluates against a row (SQL three-valued logic collapsed to
        /// boolean: NULL comparisons are false) — the reference the scan
        /// step (`pushdown`) and DML are tested against.
        pub(crate) fn eval(&self, schema: &Schema, row: &Row) -> VortexResult<bool> {
            // Rows written before an additive schema change are short of
            // the new columns; those columns read as NULL.
            let cell = |column: &str| match schema.column_index(column) {
                Some(idx) => Ok(row.values.get(idx).unwrap_or(&Value::Null)),
                None => Err(VortexError::InvalidArgument(format!(
                    "unknown column {column}"
                ))),
            };
            Ok(match self {
                Expr::True => true,
                Expr::Cmp { column, op, value } => {
                    let v = cell(column)?;
                    !v.is_null() && !value.is_null() && op.holds(v.total_cmp(value))
                }
                Expr::In { column, values } => {
                    let v = cell(column)?;
                    !v.is_null()
                        && values
                            .iter()
                            .any(|l| !l.is_null() && v.total_cmp(l) == Ordering::Equal)
                }
                Expr::IsNull(column) => cell(column)?.is_null(),
                Expr::And(a, b) => a.eval(schema, row)? && b.eval(schema, row)?,
                Expr::Or(a, b) => a.eval(schema, row)? || b.eval(schema, row)?,
                Expr::Not(a) => !a.eval(schema, row)?,
            })
        }
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::required("a", FieldType::Int64),
            Field::nullable("b", FieldType::String),
        ])
    }

    fn row(a: i64, b: Option<&str>) -> Row {
        Row::insert(vec![
            Value::Int64(a),
            b.map(|s| Value::String(s.into())).unwrap_or(Value::Null),
        ])
    }

    #[test]
    fn comparisons() {
        let s = schema();
        assert!(Expr::eq("a", Value::Int64(5))
            .eval(&s, &row(5, None))
            .unwrap());
        assert!(!Expr::eq("a", Value::Int64(5))
            .eval(&s, &row(6, None))
            .unwrap());
        assert!(Expr::lt("a", Value::Int64(5))
            .eval(&s, &row(4, None))
            .unwrap());
        assert!(Expr::le("a", Value::Int64(5))
            .eval(&s, &row(5, None))
            .unwrap());
        assert!(Expr::gt("a", Value::Int64(5))
            .eval(&s, &row(6, None))
            .unwrap());
        assert!(Expr::ge("a", Value::Int64(5))
            .eval(&s, &row(5, None))
            .unwrap());
        assert!(Expr::True.eval(&s, &row(0, None)).unwrap());
    }

    #[test]
    fn null_semantics() {
        let s = schema();
        // NULL compares false under every operator.
        assert!(!Expr::eq("b", Value::String("x".into()))
            .eval(&s, &row(1, None))
            .unwrap());
        assert!(Expr::IsNull("b".into()).eval(&s, &row(1, None)).unwrap());
        assert!(!Expr::IsNull("b".into())
            .eval(&s, &row(1, Some("x")))
            .unwrap());
    }

    #[test]
    fn boolean_combinators() {
        let s = schema();
        let e = Expr::ge("a", Value::Int64(0)).and(Expr::lt("a", Value::Int64(10)));
        assert!(e.eval(&s, &row(5, None)).unwrap());
        assert!(!e.eval(&s, &row(10, None)).unwrap());
        let o = Expr::eq("a", Value::Int64(1)).or(Expr::eq("a", Value::Int64(2)));
        assert!(o.eval(&s, &row(2, None)).unwrap());
        assert!(!o.eval(&s, &row(3, None)).unwrap());
        assert!(Expr::eq("a", Value::Int64(1))
            .not()
            .eval(&s, &row(3, None))
            .unwrap());
    }

    #[test]
    fn unknown_column_errors() {
        let s = schema();
        assert!(Expr::eq("zzz", Value::Int64(1))
            .eval(&s, &row(1, None))
            .is_err());
    }

    fn stats(min: i64, max: i64) -> ColumnStats {
        let mut s = ColumnStats::new();
        s.observe(&Value::Int64(min));
        s.observe(&Value::Int64(max));
        s
    }

    #[test]
    fn stats_pruning() {
        let lookup = |c: &str| (c == "a").then(|| stats(10, 20));
        assert!(Expr::eq("a", Value::Int64(15)).may_match_stats(&lookup));
        assert!(!Expr::eq("a", Value::Int64(25)).may_match_stats(&lookup));
        // Strict bounds at the edge prune exactly.
        assert!(!Expr::lt("a", Value::Int64(10)).may_match_stats(&lookup));
        assert!(!Expr::gt("a", Value::Int64(20)).may_match_stats(&lookup));
        assert!(Expr::lt("a", Value::Int64(11)).may_match_stats(&lookup));
        assert!(Expr::gt("a", Value::Int64(19)).may_match_stats(&lookup));
        // But clearly-out-of-range strict bounds do prune.
        assert!(!Expr::lt("a", Value::Int64(9)).may_match_stats(&lookup));
        assert!(!Expr::gt("a", Value::Int64(21)).may_match_stats(&lookup));
        assert!(Expr::ge("a", Value::Int64(20)).may_match_stats(&lookup));
        assert!(!Expr::ge("a", Value::Int64(21)).may_match_stats(&lookup));
        assert!(Expr::le("a", Value::Int64(10)).may_match_stats(&lookup));
        assert!(!Expr::le("a", Value::Int64(9)).may_match_stats(&lookup));
        // Unknown column: keep.
        assert!(Expr::eq("other", Value::Int64(1)).may_match_stats(&lookup));
    }

    #[test]
    fn stats_pruning_through_combinators() {
        let lookup = |c: &str| (c == "a").then(|| stats(10, 20));
        // AND prunes if either side prunes.
        let e = Expr::eq("a", Value::Int64(25)).and(Expr::True);
        assert!(!e.may_match_stats(&lookup));
        // OR keeps if either side may match.
        let e = Expr::eq("a", Value::Int64(25)).or(Expr::eq("a", Value::Int64(15)));
        assert!(e.may_match_stats(&lookup));
        let e = Expr::eq("a", Value::Int64(25)).or(Expr::eq("a", Value::Int64(26)));
        assert!(!e.may_match_stats(&lookup));
        // NOT is conservatively kept.
        assert!(Expr::eq("a", Value::Int64(25))
            .not()
            .may_match_stats(&lookup));
    }

    #[test]
    fn in_list_semantics() {
        let s = schema();
        let e = Expr::is_in("a", vec![Value::Int64(2), Value::Int64(5)]);
        assert!(e.eval(&s, &row(5, None)).unwrap());
        assert!(!e.eval(&s, &row(3, None)).unwrap());
        // NULL row value and NULL list elements never match.
        let e = Expr::is_in("b", vec![Value::Null, Value::String("x".into())]);
        assert!(!e.eval(&s, &row(1, None)).unwrap());
        assert!(e.eval(&s, &row(1, Some("x"))).unwrap());
        assert!(!Expr::is_in("a", vec![Value::Null])
            .eval(&s, &row(1, None))
            .unwrap());
        // Empty list matches nothing.
        assert!(!Expr::is_in("a", vec![]).eval(&s, &row(1, None)).unwrap());
        // Stats pruning: prune only when NO listed value can occur.
        let lookup = |c: &str| (c == "a").then(|| stats(10, 20));
        assert!(Expr::is_in("a", vec![Value::Int64(1), Value::Int64(15)]).may_match_stats(&lookup));
        assert!(!Expr::is_in("a", vec![Value::Int64(1), Value::Int64(25)]).may_match_stats(&lookup));
        // Singleton IN is a bloom-prunable point requirement.
        let e = Expr::is_in("cust", vec![Value::Null, Value::String("c9".into())]);
        assert_eq!(e.required_point("cust"), Some(&Value::String("c9".into())));
        let e = Expr::is_in(
            "cust",
            vec![Value::String("c8".into()), Value::String("c9".into())],
        );
        assert_eq!(e.required_point("cust"), None);
    }

    #[test]
    fn required_point_extraction() {
        let e = Expr::eq("cust", Value::String("c9".into())).and(Expr::gt("a", Value::Int64(0)));
        assert_eq!(e.required_point("cust"), Some(&Value::String("c9".into())));
        assert_eq!(e.required_point("a"), None, "inequality is not a point");
        // OR does not *require* the point.
        let o = Expr::eq("cust", Value::String("c9".into())).or(Expr::True);
        assert_eq!(o.required_point("cust"), None);
    }
}
