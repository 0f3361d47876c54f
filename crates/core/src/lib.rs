//! Vortex: a stream-oriented storage engine for big data analytics.
//!
//! This is the facade crate of a from-scratch Rust reproduction of
//! *Vortex* (Edara, Forbes, Li — SIGMOD 2024), Google BigQuery's
//! streaming-first storage engine. A [`Region`] assembles the whole
//! system in one process:
//!
//! - a fleet of simulated Colossus clusters ([`vortex_colossus`]),
//! - a Spanner-lite transactional metastore ([`vortex_metastore`]),
//! - SMS control-plane tasks with Slicer sharding ([`vortex_sms`]),
//! - Stream Server data-plane tasks ([`vortex_server`]),
//! - the thick client library with the Dremel-lite query engine + DML
//!   that reads through it ([`vortex_client`]),
//! - the Storage Optimization Service ([`vortex_optimizer`]),
//! - the exactly-once Beam-style connector ([`vortex_connector`]),
//! - and the §6.3 verification pipelines ([`vortex_verify`]).
//!
//! ```
//! use vortex::{Region, RegionConfig};
//! use vortex::schema::{Field, FieldType, Schema};
//! use vortex::row::{Row, RowSet, Value};
//!
//! let region = Region::create(RegionConfig::default()).unwrap();
//! let client = region.client();
//! let table = client
//!     .create_table(
//!         "events",
//!         Schema::new(vec![
//!             Field::required("id", FieldType::Int64),
//!             Field::required("msg", FieldType::String),
//!         ]),
//!     )
//!     .unwrap();
//! let mut writer = client.create_unbuffered_writer(table.table).unwrap();
//! writer
//!     .append(RowSet::new(vec![Row::insert(vec![
//!         Value::Int64(1),
//!         Value::String("hello vortex".into()),
//!     ])]))
//!     .unwrap();
//! let rows = client.read_rows(table.table).unwrap();
//! assert_eq!(rows.rows.len(), 1);
//! ```
//!
//! Or through SQL ([`SqlSession`]), the way applications use BigQuery:
//!
//! ```
//! use vortex::{Region, RegionConfig, SqlResult, SqlSession};
//! use vortex::row::{Row, RowSet, Value};
//! use vortex::schema::{Field, FieldType, Schema};
//!
//! let region = Region::create(RegionConfig::default()).unwrap();
//! let client = region.client();
//! client
//!     .create_table(
//!         "sales",
//!         Schema::new(vec![
//!             Field::required("customer", FieldType::String),
//!             Field::required("amount", FieldType::Int64),
//!         ]),
//!     )
//!     .unwrap();
//! let sql = SqlSession::new(client);
//! sql.execute("INSERT INTO sales VALUES ('acme', 120)").unwrap();
//! sql.execute("INSERT INTO sales VALUES ('acme', 80)").unwrap();
//! let res = sql
//!     .execute("SELECT customer, COUNT(*), SUM(amount), AVG(amount) FROM sales GROUP BY customer")
//!     .unwrap();
//! let SqlResult::Rows { rows, .. } = res else { panic!() };
//! assert_eq!(rows[0][1], Value::Int64(2));
//! assert_eq!(rows[0][2], Value::Int64(200));
//! assert_eq!(rows[0][3], Value::Float64(100.0));
//! ```

#![warn(missing_docs)]

pub mod daemon;
pub mod region;

#[cfg(test)]
mod tests;

pub use daemon::{DaemonConfig, RegionDaemon};
pub use region::{Region, RegionConfig};

// Re-exports: the public API surface downstream code should use.
pub use vortex_admission::{AdmissionConfig, AdmissionController, ClassStats, Quota, TokenBucket};
pub use vortex_client::{
    resolve_changes, AggKind, AppendResult, DmlExecutor, DmlReport, Expr, QueryEngine, ReadCache,
    ReadOptions, ScanOptions, ScanResult, ScanStats, SqlResult, SqlSession, StreamWriter,
    TableRows, VortexClient, WriterOptions,
};
pub use vortex_common::error::{VortexError, VortexResult};
pub use vortex_common::ids;
pub use vortex_common::latency::{Percentiles, WriteProfile};
pub use vortex_common::mask::DeletionMask;
pub use vortex_common::obs;
pub use vortex_common::row;
pub use vortex_common::rpc::{
    class_scope, CallKind, MethodStats, RpcChannel, RpcChannelConfig, RpcFaultPlan, RpcMetrics,
    WorkClass,
};
pub use vortex_common::schema;
pub use vortex_common::truetime::{SimClock, Timestamp, TrueTime};
pub use vortex_connector::{BeamSink, SinkConfig, SinkReport};
pub use vortex_metastore::{MetaCheckpointOutcome, MetaRecovery, MetaStore};
pub use vortex_optimizer::{ConversionReport, OptimizerConfig, ReclusterReport, StorageOptimizer};
pub use vortex_sms::api::{ServerChannel, SmsApi, SmsChannel, SmsHandle};
pub use vortex_sms::meta::{
    FragmentKind, FragmentMeta, FragmentState, StreamType, StreamletMeta, StreamletState, TableMeta,
};
pub use vortex_sms::server_ctl::{ServerHandle, StreamServerApi};
pub use vortex_verify::{AuditLog, VerificationReport, Verifier};
