//! Common types and substrate primitives shared by every Vortex crate.
//!
//! This crate contains the pieces of Google infrastructure that the Vortex
//! paper (SIGMOD 2024) depends on but does not itself describe, implemented
//! from scratch as laptop-scale equivalents:
//!
//! - [`truetime`]: a TrueTime-style clock returning bounded-uncertainty
//!   intervals.
//! - [`crc`]: CRC32C (Castagnoli) used for end-to-end data protection.
//! - [`frame`]: the length + CRC record frame both durable logs (Stream
//!   Server WAL, metastore WAL/checkpoints) write and recover through.
//! - [`compress`]: "vsnap", a byte-oriented LZ compressor standing in for
//!   Snappy.
//! - [`crypt`]: a from-scratch ChaCha20 stream cipher for encryption at
//!   rest and in flight.
//! - [`bloom`]: bloom filters for partition/cluster key pruning.
//! - [`exact`]: exact, order-independent sums of `f64`s, rounded once.
//! - [`latency`]: the virtual-latency model used to reproduce the paper's
//!   latency figures without sleeping for two weeks.
//! - [`rpc`]: the in-process RPC layer — fault/latency-injecting call
//!   channels with deadlines, retries, and per-method metrics.
//! - [`crashpoints`]: deterministic process-death injection — named
//!   crash points on every durable-write path, armed by chaos tests.
//! - [`obs`]: the unified observability layer — metrics registry, spans
//!   over virtual time, and the §8 commit-to-visible freshness probe.
//! - [`transport`]: the unary/bi-di adaptive connection cost model
//!   (§5.4.2) each `StreamWriter` keeps for its own stream.
//! - [`rng`]: the one seeded generator and token counter every fault
//!   plan, jitter and pool-miss roll draws from.
//!
//! It also defines the data model shared by the whole engine: typed
//! [`schema::Schema`]s with nested/repeated fields, [`row::Row`] values,
//! and the binary wire encoding ([`codec`]) used by the append API and the
//! write-optimized storage format.

#![warn(missing_docs)]

pub mod bloom;
pub mod codec;
pub mod compress;
pub mod crashpoints;
pub mod crc;
pub mod crypt;
pub mod error;
pub mod exact;
pub mod frame;
pub mod ids;
pub mod latency;
pub mod mailbox;
pub mod mask;
pub mod obs;
pub mod rng;
pub mod row;
pub mod rpc;
pub mod schema;
pub mod schema_codec;
pub mod stats;
pub mod transport;
pub mod truetime;

pub use error::{VortexError, VortexResult};
