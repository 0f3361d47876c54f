//! The Vortex thick client library (§5.4).
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
//!   BatchCommitStreams / FinalizeStream).

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod read;
pub mod write;

#[cfg(test)]
mod tests;

pub use api::VortexClient;
pub use cache::ReadCache;
pub use read::{read_table, ReadOptions, TableRows};
pub use write::{AppendResult, StreamWriter, WriterOptions};
