//! Read-Optimized Storage (ROS): the columnar block format.
//!
//! "The read-optimized storage format ... is the format in which data is
//! optimized for data processing. Typically, this is a columnar format"
//! (§5.1). BigQuery managed tables use Capacitor, BigLake tables use
//! Parquet; this crate is the from-scratch stand-in for both: a columnar
//! block with per-column adaptive cascading encodings, per-zone min/max
//! properties, a bloom filter over the partitioning and clustering keys,
//! and an index at the end of the file through which a reader fetches,
//! verifies and decrypts only the chunks it decodes ([`block`]).
//!
//! Each row carries its provenance ([`RowMeta`]): the source stream, the
//! streamlet row offset, the server-assigned TrueTime timestamp, and the
//! `_CHANGE_TYPE`, stored as four more columns. Provenance gives the
//! Storage Optimizer its exactly-once conversion audit trail (§6.3) and
//! gives merge-on-read UPSERT/DELETE resolution a total order (§4.2.6).
//!
//! Column data decodes lazily, one zone of one column at a time, into a
//! typed [`ColumnVec`]: scanning one column of a wide table only pays for
//! that column — the property the WOS→ROS conversion exists to buy — and
//! no `Value` is built for a cell the query drops.

#![warn(missing_docs)]

pub mod block;
pub mod column;
pub mod encoding;
#[cfg(test)]
#[path = "../../../tests/support/tally.rs"]
mod tally;

pub use block::{
    gather_rows, zone_map, Chunk, Fetched, Picked, ReadAt, RosBlock, RosBlockBuilder, RowMeta,
    ZONE_ROWS,
};
pub use column::{
    add_rowset, ColumnBuilder, ColumnVec, IntKind, KeyedRows, Nulls, Prim, StrKind, Strs,
};
pub use encoding::{dictionary, fold_chunk, Encoding, Sink};
