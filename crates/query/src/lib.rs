//! Dremel-lite: the query-side integration of Vortex (§7).
//!
//! "To process a table, a processing engine requests the partitioned
//! metadata for the table as of a specific snapshot read time ... the SMS
//! returns the union of the data in WOS and ROS." This crate is the
//! processing engine: filter expressions and their pruning derivatives
//! ([`expr`]), a partition-eliminating parallel scan ([`engine`], §7.2)
//! with compute pushdown over compressed ROS blocks ([`pushdown`]) that
//! folds what matches straight into the query's consumer (`consume`:
//! rows, a count, group accumulators or DML's positions), merge-on-read
//! resolution of UPSERT/DELETE change types ([`cdc`], §4.2.6), and the
//! DML path — DELETE/UPDATE via deletion masks with reinserted rows,
//! including whole-tail deletes (§7.3), its rows found by the same scan.

#![warn(missing_docs)]

pub mod cdc;
mod consume;
pub mod dml;
pub mod engine;
pub mod expr;
pub mod pushdown;
pub mod sql;

#[cfg(test)]
#[path = "../../../tests/support/tally.rs"]
mod tally;
#[cfg(test)]
mod tests;

pub use cdc::resolve_changes;
pub use dml::{DmlExecutor, DmlReport};
pub use engine::{AggKind, QueryEngine, ScanOptions, ScanResult, ScanStats};
pub use expr::Expr;
pub use sql::{SqlResult, SqlSession};
