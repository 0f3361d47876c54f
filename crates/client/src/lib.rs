//! The Vortex thick client library (§5.4) and the Dremel-lite query
//! engine that reads through it (§7).
//!
//! "Vortex is accessed through a client library which supports reading
//! from and writing to Vortex. It is a thick client library which can
//! retry failed read and write operations."
//!
//! - [`mod@write`]: [`write::StreamWriter`] wraps a writable stream: offset
//!   tracking for exactly-once appends (§4.2.2), pipelining, transparent
//!   retry against a fresh streamlet on retryable failures, and the
//!   schema-evolution dance of §5.4.1 (server relays the new version →
//!   client refetches the schema → pads rows → retries).
//! - [`read`]: the §7.1 read path — fragments are read directly from
//!   Colossus without contacting the Stream Server, replicas are failed
//!   over transparently, commit records and File Maps decide what is
//!   committed, and ambiguous final appends go through SMS
//!   reconciliation.
//! - [`api`]: [`api::VortexClient`], the user-facing facade mirroring the
//!   paper's API (CreateStream / AppendStream / FlushStream /
//!   BatchCommitStreams / FinalizeStream), whose table reads are scans.
//!
//! "To process a table, a processing engine requests the partitioned
//! metadata for the table as of a specific snapshot read time ... the SMS
//! returns the union of the data in WOS and ROS." The rest of the crate
//! is that processing engine: filter expressions and their pruning
//! derivatives ([`expr`]), a partition-eliminating parallel scan
//! ([`engine`], §7.2) with compute pushdown over compressed ROS blocks
//! ([`pushdown`]) that folds what matches straight into the query's
//! consumer (`consume`: rows, a count, group accumulators or DML's
//! positions), merge-on-read resolution of UPSERT/DELETE change types
//! ([`cdc`], §4.2.6), and the DML path — DELETE/UPDATE via deletion masks
//! with reinserted rows, including whole-tail deletes (§7.3), its rows
//! found by the same scan.

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod cdc;
mod consume;
pub mod dml;
pub mod engine;
pub mod expr;
pub mod pushdown;
pub mod read;
pub mod sql;
pub mod write;

#[cfg(test)]
#[path = "../../../tests/support/tally.rs"]
mod tally;
#[cfg(test)]
mod tests;

pub use api::{TableRows, VortexClient};
pub use cache::ReadCache;
pub use cdc::resolve_changes;
pub use dml::{DmlExecutor, DmlReport};
pub use engine::{AggKind, QueryEngine, ScanOptions, ScanResult, ScanStats};
pub use expr::Expr;
pub use read::ReadOptions;
pub use sql::{SqlResult, SqlSession};
pub use write::{AppendResult, StreamWriter, WriterOptions};
