//! A SQL front-end for the Dremel-lite engine.
//!
//! "Users can access or mutate these objects using ANSI standard
//! compliant SQL dialect" (§3.2); "this allows applications to query
//! their streaming and batch data through a expressive SQL interface"
//! (§9). This module implements the slice of that dialect the engine
//! executes:
//!
//! ```sql
//! SELECT <*, col, COUNT(*), SUM(col), MIN(col), MAX(col), AVG(col), ...>
//!   FROM <table>
//!   [WHERE <predicate>]
//!   [GROUP BY <col>]
//!   [ORDER BY <col|ordinal> [ASC|DESC]]
//!   [LIMIT <n>];
//! DELETE FROM <table> WHERE <predicate>;
//! UPDATE <table> SET col = <literal>[, ...] WHERE <predicate>;
//! ```
//!
//! Predicates support `=, !=, <>, <, <=, >, >=`, `IS [NOT] NULL`,
//! `AND/OR/NOT`, and parentheses. String literals use single quotes;
//! numbers parse as INT64 when integral, FLOAT64 otherwise. `FROM t FOR
//! SYSTEM_TIME AS OF <micros>` reads at an explicit snapshot (time
//! travel).

use std::fmt::Write as _;
use std::sync::Arc;

use vortex_client::VortexClient;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::row::Value;
use vortex_common::truetime::Timestamp;

use crate::dml::{DmlExecutor, DmlReport};
use crate::engine::{AggKind, QueryEngine, ScanOptions};
use crate::expr::Expr;

// ---------------------------------------------------------------------
// Lexer.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(String),
    Sym(char),
    /// Two-char symbols: `<=`, `>=`, `!=`, `<>`.
    Sym2([char; 2]),
}

fn lex(input: &str) -> VortexResult<Vec<Tok>> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '\'' => {
                // String literal with '' escaping.
                let mut s = String::new();
                i += 1;
                loop {
                    match chars.get(i) {
                        Some('\'') if chars.get(i + 1) == Some(&'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some('\'') => {
                            i += 1;
                            break;
                        }
                        Some(ch) => {
                            s.push(*ch);
                            i += 1;
                        }
                        None => {
                            return Err(VortexError::InvalidArgument(
                                "unterminated string literal".into(),
                            ))
                        }
                    }
                }
                out.push(Tok::Str(s));
            }
            c if c.is_ascii_digit()
                || (c == '-'
                    && chars
                        .get(i + 1)
                        .map(|d| d.is_ascii_digit())
                        .unwrap_or(false)) =>
            {
                let start = i;
                i += 1;
                while i < chars.len()
                    && (chars[i].is_ascii_digit() || chars[i] == '.' || chars[i] == '_')
                {
                    i += 1;
                }
                out.push(Tok::Num(chars[start..i].iter().collect()));
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    i += 1;
                }
                out.push(Tok::Ident(chars[start..i].iter().collect()));
            }
            '<' | '>' | '!' => {
                let next = chars.get(i + 1).copied();
                if next == Some('=') || (c == '<' && next == Some('>')) {
                    out.push(Tok::Sym2([c, next.unwrap()]));
                    i += 2;
                } else if c == '!' {
                    return Err(VortexError::InvalidArgument("lone '!'".into()));
                } else {
                    out.push(Tok::Sym(c));
                    i += 1;
                }
            }
            '=' | '(' | ')' | ',' | '*' | ';' => {
                out.push(Tok::Sym(c));
                i += 1;
            }
            other => {
                return Err(VortexError::InvalidArgument(format!(
                    "unexpected character '{other}' in SQL"
                )))
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// AST + parser.
// ---------------------------------------------------------------------

/// One SELECT-list item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// A plain column.
    Column(String),
    /// An aggregate call.
    Agg(AggKind, Option<String>),
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// SELECT query.
    Select {
        /// Projection.
        items: Vec<SelectItem>,
        /// Source table name.
        table: String,
        /// Optional snapshot (FOR SYSTEM_TIME AS OF micros).
        as_of: Option<u64>,
        /// Filter.
        predicate: Expr,
        /// GROUP BY column.
        group_by: Option<String>,
        /// ORDER BY (1-based projection ordinal or column name, desc?).
        order_by: Option<(String, bool)>,
        /// LIMIT.
        limit: Option<usize>,
    },
    /// DELETE statement.
    Delete {
        /// Target table name.
        table: String,
        /// Filter.
        predicate: Expr,
    },
    /// UPDATE statement.
    Update {
        /// Target table name.
        table: String,
        /// SET assignments.
        set: Vec<(String, Value)>,
        /// Filter.
        predicate: Expr,
    },
    /// CREATE VIEW (§3.2's logical views): a named, stored simple SELECT
    /// (projection + filter) expanded at query time.
    CreateView {
        /// View name.
        name: String,
        /// The stored definition (the SELECT's original text).
        definition: String,
    },
    /// DROP VIEW.
    DropView {
        /// View name.
        name: String,
    },
    /// INSERT INTO t VALUES (...), (...);
    Insert {
        /// Target table name.
        table: String,
        /// Literal rows.
        rows: Vec<Vec<Value>>,
    },
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> VortexResult<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| VortexError::InvalidArgument("unexpected end of SQL".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn expect_kw(&mut self, kw: &str) -> VortexResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(VortexError::InvalidArgument(format!(
                "expected {kw} at token {:?}",
                self.peek()
            )))
        }
    }

    fn eat_sym(&mut self, c: char) -> bool {
        if self.peek() == Some(&Tok::Sym(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> VortexResult<String> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(VortexError::InvalidArgument(format!(
                "expected identifier, got {other:?}"
            ))),
        }
    }

    fn parse_literal(&mut self) -> VortexResult<Value> {
        match self.next()? {
            Tok::Str(s) => Ok(Value::String(s)),
            Tok::Num(n) => {
                let clean = n.replace('_', "");
                if clean.contains('.') {
                    clean
                        .parse::<f64>()
                        .map(Value::Float64)
                        .map_err(|e| VortexError::InvalidArgument(format!("bad number: {e}")))
                } else {
                    clean
                        .parse::<i64>()
                        .map(Value::Int64)
                        .map_err(|e| VortexError::InvalidArgument(format!("bad number: {e}")))
                }
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Tok::Ident(s) if s.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            Tok::Ident(s) if s.eq_ignore_ascii_case("null") => Ok(Value::Null),
            other => Err(VortexError::InvalidArgument(format!(
                "expected literal, got {other:?}"
            ))),
        }
    }

    // predicate := or_term
    fn parse_predicate(&mut self) -> VortexResult<Expr> {
        let mut left = self.parse_and_term()?;
        while self.eat_kw("OR") {
            let right = self.parse_and_term()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn parse_and_term(&mut self) -> VortexResult<Expr> {
        let mut left = self.parse_unary()?;
        while self.eat_kw("AND") {
            let right = self.parse_unary()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> VortexResult<Expr> {
        if self.eat_kw("NOT") {
            return Ok(self.parse_unary()?.not());
        }
        if self.eat_sym('(') {
            let inner = self.parse_predicate()?;
            if !self.eat_sym(')') {
                return Err(VortexError::InvalidArgument("expected ')'".into()));
            }
            return Ok(inner);
        }
        // column <op> literal | column IS [NOT] NULL | TRUE
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case("true") {
                self.pos += 1;
                return Ok(Expr::True);
            }
        }
        let col = self.expect_ident()?;
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            let e = Expr::IsNull(col);
            return Ok(if negated { e.not() } else { e });
        }
        // column [NOT] IN (lit, lit, ...)
        let negated_in = {
            let save = self.pos;
            if self.eat_kw("NOT") {
                if self.peek_kw("IN") {
                    true
                } else {
                    self.pos = save;
                    false
                }
            } else {
                false
            }
        };
        if self.eat_kw("IN") {
            if !self.eat_sym('(') {
                return Err(VortexError::InvalidArgument("expected '(' after IN".into()));
            }
            let mut values = Vec::new();
            loop {
                values.push(self.parse_literal()?);
                if self.eat_sym(',') {
                    continue;
                }
                if self.eat_sym(')') {
                    break;
                }
                return Err(VortexError::InvalidArgument(
                    "expected ',' or ')' in IN list".into(),
                ));
            }
            let e = Expr::In {
                column: col,
                values,
            };
            return Ok(if negated_in { e.not() } else { e });
        }
        let op = self.next()?;
        let lit = self.parse_literal()?;
        Ok(match op {
            Tok::Sym('=') => Expr::eq(&col, lit),
            Tok::Sym('<') => Expr::lt(&col, lit),
            Tok::Sym('>') => Expr::gt(&col, lit),
            Tok::Sym2(['<', '=']) => Expr::le(&col, lit),
            Tok::Sym2(['>', '=']) => Expr::ge(&col, lit),
            Tok::Sym2(['!', '=']) | Tok::Sym2(['<', '>']) => Expr::eq(&col, lit).not(),
            other => {
                return Err(VortexError::InvalidArgument(format!(
                    "unknown comparison {other:?}"
                )))
            }
        })
    }

    fn parse_select_item(&mut self) -> VortexResult<SelectItem> {
        if self.eat_sym('*') {
            return Ok(SelectItem::Star);
        }
        let name = self.expect_ident()?;
        let agg = match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggKind::Count),
            "SUM" => Some(AggKind::Sum),
            "MIN" => Some(AggKind::Min),
            "MAX" => Some(AggKind::Max),
            "AVG" => Some(AggKind::Avg),
            _ => None,
        };
        if let Some(kind) = agg {
            if self.eat_sym('(') {
                let col = if self.eat_sym('*') {
                    None
                } else {
                    Some(self.expect_ident()?)
                };
                if !self.eat_sym(')') {
                    return Err(VortexError::InvalidArgument("expected ')'".into()));
                }
                return Ok(SelectItem::Agg(kind, col));
            }
        }
        Ok(SelectItem::Column(name))
    }

    fn parse_statement(&mut self) -> VortexResult<Statement> {
        if self.eat_kw("SELECT") {
            let mut items = vec![self.parse_select_item()?];
            while self.eat_sym(',') {
                items.push(self.parse_select_item()?);
            }
            self.expect_kw("FROM")?;
            let table = self.expect_ident()?;
            let mut as_of = None;
            if self.eat_kw("FOR") {
                self.expect_kw("SYSTEM_TIME")?;
                self.expect_kw("AS")?;
                self.expect_kw("OF")?;
                match self.parse_literal()? {
                    Value::Int64(us) if us >= 0 => as_of = Some(us as u64),
                    other => {
                        return Err(VortexError::InvalidArgument(format!(
                            "AS OF expects a microsecond timestamp, got {other:?}"
                        )))
                    }
                }
            }
            let predicate = if self.eat_kw("WHERE") {
                self.parse_predicate()?
            } else {
                Expr::True
            };
            let group_by = if self.eat_kw("GROUP") {
                self.expect_kw("BY")?;
                Some(self.expect_ident()?)
            } else {
                None
            };
            let order_by = if self.eat_kw("ORDER") {
                self.expect_kw("BY")?;
                let col = match self.next()? {
                    Tok::Ident(s) => s,
                    Tok::Num(n) => n,
                    other => {
                        return Err(VortexError::InvalidArgument(format!(
                            "ORDER BY expects a column, got {other:?}"
                        )))
                    }
                };
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                Some((col, desc))
            } else {
                None
            };
            let limit = if self.eat_kw("LIMIT") {
                match self.parse_literal()? {
                    Value::Int64(n) if n >= 0 => Some(n as usize),
                    other => {
                        return Err(VortexError::InvalidArgument(format!(
                            "LIMIT expects a non-negative integer, got {other:?}"
                        )))
                    }
                }
            } else {
                None
            };
            self.eat_sym(';');
            return Ok(Statement::Select {
                items,
                table,
                as_of,
                predicate,
                group_by,
                order_by,
                limit,
            });
        }
        if self.eat_kw("DELETE") {
            self.expect_kw("FROM")?;
            let table = self.expect_ident()?;
            self.expect_kw("WHERE")?;
            let predicate = self.parse_predicate()?;
            self.eat_sym(';');
            return Ok(Statement::Delete { table, predicate });
        }
        if self.eat_kw("UPDATE") {
            let table = self.expect_ident()?;
            self.expect_kw("SET")?;
            let mut set = Vec::new();
            loop {
                let col = self.expect_ident()?;
                if !self.eat_sym('=') {
                    return Err(VortexError::InvalidArgument("expected '='".into()));
                }
                set.push((col, self.parse_literal()?));
                if !self.eat_sym(',') {
                    break;
                }
            }
            self.expect_kw("WHERE")?;
            let predicate = self.parse_predicate()?;
            self.eat_sym(';');
            return Ok(Statement::Update {
                table,
                set,
                predicate,
            });
        }
        if self.eat_kw("INSERT") {
            self.expect_kw("INTO")?;
            let table = self.expect_ident()?;
            self.expect_kw("VALUES")?;
            let mut rows = Vec::new();
            loop {
                if !self.eat_sym('(') {
                    return Err(VortexError::InvalidArgument("expected '('".into()));
                }
                let mut row = vec![self.parse_literal()?];
                while self.eat_sym(',') {
                    row.push(self.parse_literal()?);
                }
                if !self.eat_sym(')') {
                    return Err(VortexError::InvalidArgument("expected ')'".into()));
                }
                rows.push(row);
                if !self.eat_sym(',') {
                    break;
                }
            }
            self.eat_sym(';');
            return Ok(Statement::Insert { table, rows });
        }
        if self.eat_kw("CREATE") {
            self.expect_kw("VIEW")?;
            let name = self.expect_ident()?;
            self.expect_kw("AS")?;
            // The rest of the input is the view body; validate that it
            // parses as a *simple* SELECT (no aggregates / GROUP / ORDER /
            // LIMIT — views must compose with outer clauses).
            let rest: Vec<Tok> = self.toks[self.pos..].to_vec();
            self.pos = self.toks.len();
            let mut body = Parser { toks: rest, pos: 0 };
            let stmt = body.parse_statement()?;
            match &stmt {
                Statement::Select {
                    items,
                    group_by: None,
                    order_by: None,
                    limit: None,
                    as_of: None,
                    ..
                } if !items.iter().any(|i| matches!(i, SelectItem::Agg(_, _))) => {}
                _ => {
                    return Err(VortexError::InvalidArgument(
                        "CREATE VIEW supports simple SELECTs only (projection + WHERE)".into(),
                    ))
                }
            }
            return Ok(Statement::CreateView {
                name,
                definition: render_select(&stmt),
            });
        }
        if self.eat_kw("DROP") {
            self.expect_kw("VIEW")?;
            let name = self.expect_ident()?;
            self.eat_sym(';');
            return Ok(Statement::DropView { name });
        }
        Err(VortexError::InvalidArgument(format!(
            "expected SELECT, DELETE, UPDATE, CREATE VIEW, or DROP VIEW; got {:?}",
            self.peek()
        )))
    }
}

/// Renders a parsed simple SELECT back to canonical SQL (stored view
/// definitions survive round trips).
pub(crate) fn render_select(stmt: &Statement) -> String {
    let Statement::Select {
        items,
        table,
        predicate,
        ..
    } = stmt
    else {
        unreachable!("validated as Select");
    };
    let mut out = String::from("SELECT ");
    let parts: Vec<String> = items
        .iter()
        .map(|i| match i {
            SelectItem::Star => "*".to_string(),
            SelectItem::Column(c) => c.clone(),
            SelectItem::Agg(_, _) => unreachable!("validated simple"),
        })
        .collect();
    out.push_str(&parts.join(", "));
    let _ = write!(out, " FROM {table}");
    if *predicate != Expr::True {
        let _ = write!(out, " WHERE {}", render_expr(predicate));
    }
    out
}

pub(crate) fn render_expr(e: &Expr) -> String {
    use crate::expr::CmpOp;
    match e {
        Expr::True => "TRUE".into(),
        Expr::Cmp { column, op, value } => {
            let op = match op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "!=",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            format!("{column} {op} {}", render_literal(value))
        }
        Expr::In { column, values } => {
            let list: Vec<String> = values.iter().map(render_literal).collect();
            format!("{column} IN ({})", list.join(", "))
        }
        Expr::IsNull(c) => format!("{c} IS NULL"),
        Expr::And(a, b) => format!("({} AND {})", render_expr(a), render_expr(b)),
        Expr::Or(a, b) => format!("({} OR {})", render_expr(a), render_expr(b)),
        Expr::Not(a) => format!("NOT ({})", render_expr(a)),
    }
}

fn render_literal(v: &Value) -> String {
    match v {
        Value::String(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Int64(i) => i.to_string(),
        Value::Float64(f) => {
            if f.fract() == 0.0 {
                format!("{f:.1}")
            } else {
                format!("{f}")
            }
        }
        Value::Bool(b) => b.to_string().to_uppercase(),
        Value::Null => "NULL".into(),
        other => format!("{other:?}"),
    }
}

/// Parses one SQL statement.
pub fn parse(sql: &str) -> VortexResult<Statement> {
    let mut p = Parser {
        toks: lex(sql)?,
        pos: 0,
    };
    let stmt = p.parse_statement()?;
    if p.pos != p.toks.len() {
        return Err(VortexError::InvalidArgument(format!(
            "trailing tokens after statement: {:?}",
            &p.toks[p.pos..]
        )));
    }
    Ok(stmt)
}

// ---------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------

/// Result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlResult {
    /// SELECT output: column headers + rows.
    Rows {
        /// Output column names.
        columns: Vec<String>,
        /// Output rows.
        rows: Vec<Vec<Value>>,
    },
    /// DML output.
    Dml(DmlReport),
}

impl SqlResult {
    /// Renders as a plain-text table (examples and the SQL shell).
    pub fn to_table(&self) -> String {
        match self {
            SqlResult::Dml(r) => format!(
                "OK: {} row(s) affected ({} reinserted)\n",
                r.rows_matched, r.rows_updated
            ),
            SqlResult::Rows { columns, rows } => {
                let mut out = String::new();
                let render = |v: &Value| match v {
                    Value::Null => "NULL".to_string(),
                    Value::String(s) => s.clone(),
                    Value::Int64(i) => i.to_string(),
                    Value::Float64(f) => format!("{f}"),
                    Value::Numeric(n) => format!("{}", *n as f64 / 1e9),
                    Value::Bool(b) => b.to_string(),
                    Value::Timestamp(t) => format!("{t}"),
                    other => format!("{other:?}"),
                };
                let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
                let rendered: Vec<Vec<String>> = rows
                    .iter()
                    .map(|r| r.iter().map(render).collect())
                    .collect();
                for r in &rendered {
                    for (i, cell) in r.iter().enumerate() {
                        if i < widths.len() {
                            widths[i] = widths[i].max(cell.len());
                        }
                    }
                }
                for (i, c) in columns.iter().enumerate() {
                    let _ = write!(out, "| {:w$} ", c, w = widths[i]);
                }
                out.push_str("|\n");
                for w in &widths {
                    let _ = write!(out, "|{}", "-".repeat(w + 2));
                }
                out.push_str("|\n");
                for r in &rendered {
                    for (i, cell) in r.iter().enumerate() {
                        let _ = write!(out, "| {:w$} ", cell, w = widths[i]);
                    }
                    out.push_str("|\n");
                }
                let _ = writeln!(out, "({} row(s))", rows.len());
                out
            }
        }
    }
}

/// A SQL session bound to a client (tables resolve by name; CDC tables
/// are read with merge-on-read resolution).
pub struct SqlSession {
    client: VortexClient,
    engine: QueryEngine,
    dml: DmlExecutor,
    /// One UNBUFFERED writer per table this session INSERTed into (a
    /// session holds its own dedicated streams, §4.1).
    writers: parking_lot::Mutex<std::collections::HashMap<String, vortex_client::StreamWriter>>,
}

impl SqlSession {
    /// Creates a session.
    pub fn new(client: VortexClient) -> Self {
        let engine = QueryEngine::new(Arc::clone(client.sms()), client.fleet().clone());
        let dml = DmlExecutor::new(client.clone());
        Self {
            client,
            engine,
            dml,
            writers: parking_lot::Mutex::new(std::collections::HashMap::new()),
        }
    }

    fn view_key(name: &str) -> String {
        format!("view/{name}")
    }

    /// Parses and executes one statement.
    pub fn execute(&self, sql: &str) -> VortexResult<SqlResult> {
        match parse(sql)? {
            Statement::Insert { table, rows } => {
                let tmeta = self.client.table(&table)?;
                let arity = tmeta.schema.fields.len();
                for r in &rows {
                    if r.len() != arity {
                        return Err(VortexError::InvalidArgument(format!(
                            "INSERT row has {} values; {table} has {arity} columns",
                            r.len()
                        )));
                    }
                }
                let batch = vortex_common::row::RowSet::new(
                    rows.into_iter()
                        .map(vortex_common::row::Row::insert)
                        .collect(),
                );
                let n = batch.len() as u64;
                let mut writers = self.writers.lock();
                if !writers.contains_key(&table) {
                    let w = self.client.create_unbuffered_writer(tmeta.table)?;
                    writers.insert(table.clone(), w);
                }
                writers
                    .get_mut(&table)
                    .expect("just inserted")
                    .append(batch)?;
                Ok(SqlResult::Dml(DmlReport {
                    rows_matched: n,
                    ..DmlReport::default()
                }))
            }
            Statement::CreateView { name, definition } => {
                let store = self.client.sms().store().clone();
                let key = Self::view_key(&name);
                store.with_txn(16, |txn| {
                    if txn.get(&key).is_some() {
                        return Err(VortexError::AlreadyExists(format!("view {name}")));
                    }
                    txn.put(&key, definition.clone().into_bytes());
                    Ok(())
                })?;
                Ok(SqlResult::Rows {
                    columns: vec!["view".into()],
                    rows: vec![vec![Value::String(name)]],
                })
            }
            Statement::DropView { name } => {
                let store = self.client.sms().store().clone();
                let key = Self::view_key(&name);
                store.with_txn(16, |txn| {
                    if txn.get(&key).is_none() {
                        return Err(VortexError::NotFound(format!("view {name}")));
                    }
                    txn.delete(&key);
                    Ok(())
                })?;
                Ok(SqlResult::Rows {
                    columns: vec!["dropped".into()],
                    rows: vec![vec![Value::String(name)]],
                })
            }
            Statement::Select {
                items,
                table,
                as_of,
                predicate,
                group_by,
                order_by,
                limit,
            } => {
                // Views shadow tables; expand at most once (views of
                // views are rejected to keep expansion predictable).
                let store = self.client.sms().store();
                if let Some(def) = store.read_at(&Self::view_key(&table), store.now()) {
                    let def = String::from_utf8(def)
                        .map_err(|e| VortexError::Decode(format!("view body: {e}")))?;
                    let Statement::Select {
                        items: v_items,
                        table: v_table,
                        predicate: v_pred,
                        ..
                    } = parse(&def)?
                    else {
                        return Err(VortexError::Internal("view body is not a SELECT".into()));
                    };
                    if store
                        .read_at(&Self::view_key(&v_table), store.now())
                        .is_some()
                    {
                        return Err(VortexError::InvalidArgument(
                            "views over views are not supported".into(),
                        ));
                    }
                    // Outer projection must stay inside the view's.
                    let allowed: Option<Vec<String>> =
                        if v_items.iter().any(|i| matches!(i, SelectItem::Star)) {
                            None // view exposes everything
                        } else {
                            Some(
                                v_items
                                    .iter()
                                    .filter_map(|i| match i {
                                        SelectItem::Column(c) => Some(c.clone()),
                                        _ => None,
                                    })
                                    .collect(),
                            )
                        };
                    let resolved_items: Vec<SelectItem> = match (&allowed, &items[..]) {
                        (Some(cols), [SelectItem::Star]) => {
                            cols.iter().cloned().map(SelectItem::Column).collect()
                        }
                        _ => items.clone(),
                    };
                    if let Some(cols) = &allowed {
                        for i in &resolved_items {
                            let named = match i {
                                SelectItem::Column(c) => Some(c),
                                SelectItem::Agg(_, Some(c)) => Some(c),
                                _ => None,
                            };
                            if let Some(c) = named {
                                if !cols.contains(c) {
                                    return Err(VortexError::InvalidArgument(format!(
                                        "column {c} is not exposed by view {table}"
                                    )));
                                }
                            }
                        }
                    }
                    let combined = if predicate == Expr::True {
                        v_pred
                    } else if v_pred == Expr::True {
                        predicate
                    } else {
                        v_pred.and(predicate)
                    };
                    return self.run_select(
                        resolved_items,
                        &v_table,
                        as_of,
                        combined,
                        group_by,
                        order_by,
                        limit,
                    );
                }
                self.run_select(items, &table, as_of, predicate, group_by, order_by, limit)
            }
            Statement::Delete { table, predicate } => {
                let t = self.client.table(&table)?.table;
                Ok(SqlResult::Dml(self.dml.delete_where(t, &predicate)?))
            }
            Statement::Update {
                table,
                set,
                predicate,
            } => {
                let t = self.client.table(&table)?.table;
                let set_ref: Vec<(&str, Value)> =
                    set.iter().map(|(c, v)| (c.as_str(), v.clone())).collect();
                Ok(SqlResult::Dml(
                    self.dml.update_where(t, &predicate, &set_ref)?,
                ))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_select(
        &self,
        items: Vec<SelectItem>,
        table: &str,
        as_of: Option<u64>,
        predicate: Expr,
        group_by: Option<String>,
        order_by: Option<(String, bool)>,
        limit: Option<usize>,
    ) -> VortexResult<SqlResult> {
        let tmeta = self.client.table(table)?;
        let snapshot = as_of
            .map(Timestamp)
            .unwrap_or_else(|| self.client.snapshot());
        // CDC tables resolve UPSERT/DELETE at read time (§4.2.6).
        let resolve_changes = !tmeta.schema.primary_key.is_empty();
        let has_agg = items.iter().any(|i| matches!(i, SelectItem::Agg(_, _)));
        // A list of plain columns is all its scan decodes (ORDER BY names
        // one of them); `*`, aggregates and change resolution read by
        // their own rules.
        let columns = items.iter().map(|i| match i {
            SelectItem::Column(c) if !resolve_changes => Some(c.clone()),
            _ => None,
        });
        let opts = ScanOptions {
            predicate,
            resolve_changes,
            projection: columns
                .collect::<Option<Vec<String>>>()
                .filter(|_| group_by.is_none()),
            ..ScanOptions::default()
        };
        let (columns, mut rows) = if has_agg || group_by.is_some() {
            // Aggregate path: every non-aggregate item must be the GROUP
            // BY column.
            let aggs: Vec<(AggKind, Option<&str>)> = items
                .iter()
                .filter_map(|i| match i {
                    SelectItem::Agg(k, c) => Some((*k, c.as_deref())),
                    _ => None,
                })
                .collect();
            for i in &items {
                if let SelectItem::Column(c) = i {
                    if group_by.as_deref() != Some(c.as_str()) {
                        return Err(VortexError::InvalidArgument(format!(
                            "column {c} must appear in GROUP BY"
                        )));
                    }
                }
                if matches!(i, SelectItem::Star) {
                    return Err(VortexError::InvalidArgument(
                        "SELECT * cannot be combined with aggregates".into(),
                    ));
                }
            }
            let groups =
                self.engine
                    .aggregate(tmeta.table, snapshot, &opts, group_by.as_deref(), &aggs)?;
            let mut columns = Vec::new();
            for i in &items {
                match i {
                    SelectItem::Column(c) => columns.push(c.clone()),
                    SelectItem::Agg(k, c) => columns.push(match (k, c) {
                        (AggKind::Count, _) => "count".into(),
                        (k, Some(c)) => format!("{}({c})", format!("{k:?}").to_lowercase()),
                        (k, None) => format!("{k:?}").to_lowercase(),
                    }),
                    SelectItem::Star => unreachable!(),
                }
            }
            let rows: Vec<Vec<Value>> = groups
                .into_iter()
                .map(|(gval, aggvals)| {
                    let mut row = Vec::new();
                    let mut agg_iter = aggvals.into_iter();
                    for i in &items {
                        match i {
                            SelectItem::Column(_) => row.push(gval.clone().unwrap_or(Value::Null)),
                            SelectItem::Agg(_, _) => {
                                row.push(agg_iter.next().unwrap_or(Value::Null))
                            }
                            SelectItem::Star => unreachable!(),
                        }
                    }
                    row
                })
                .collect();
            (columns, rows)
        } else {
            // Plain projection path.
            let res = self.engine.scan(tmeta.table, snapshot, &opts)?;
            let mut columns = Vec::new();
            let mut indices: Vec<Option<usize>> = Vec::new();
            for i in &items {
                match i {
                    SelectItem::Star => {
                        for f in &res.schema.fields {
                            columns.push(f.name.clone());
                            indices.push(Some(res.schema.column_index(&f.name).unwrap()));
                        }
                    }
                    SelectItem::Column(c) => {
                        let idx = res.schema.column_index(c).ok_or_else(|| {
                            VortexError::InvalidArgument(format!("unknown column {c}"))
                        })?;
                        columns.push(c.clone());
                        indices.push(Some(idx));
                    }
                    SelectItem::Agg(_, _) => unreachable!(),
                }
            }
            let rows = res
                .rows
                .into_iter()
                .map(|(_, r)| {
                    indices
                        .iter()
                        .map(|idx| {
                            idx.and_then(|i| r.values.get(i).cloned())
                                .unwrap_or(Value::Null)
                        })
                        .collect()
                })
                .collect();
            (columns, rows)
        };
        // ORDER BY: a projected column name or a 1-based ordinal.
        if let Some((key, desc)) = order_by {
            let idx = columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(&key))
                .or_else(|| {
                    key.parse::<usize>()
                        .ok()
                        .filter(|n| (1..=columns.len()).contains(n))
                        .map(|n| n - 1)
                })
                .ok_or_else(|| {
                    VortexError::InvalidArgument(format!("ORDER BY {key}: not in SELECT list"))
                })?;
            rows.sort_by(|a, b| {
                let ord = a[idx].total_cmp(&b[idx]);
                if desc {
                    ord.reverse()
                } else {
                    ord
                }
            });
        }
        if let Some(n) = limit {
            rows.truncate(n);
        }
        Ok(SqlResult::Rows { columns, rows })
    }
}

impl std::fmt::Debug for SqlSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SqlSession").finish_non_exhaustive()
    }
}
