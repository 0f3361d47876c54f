//! The Vortex data plane: the Stream Server (§5.3).
//!
//! "The Stream Server is the data plane of Vortex. It owns a set of
//! Streamlets and creates Fragments for those Streamlets." This crate
//! implements:
//!
//! - the **append path**: offset validation (§4.2.2), schema-version
//!   checks (§5.4.1), row validation, 2 MB write buffering, column
//!   properties and bloom keys per fragment, and **synchronous physical
//!   replication** to two Colossus clusters before acknowledging (§5.6);
//! - the **error path**, one rule for every write (`HostedStreamlet::land`
//!   in [`hosted`]): a failed replica write finalizes the current Fragment
//!   and retries on the next one (whose File Map records the committed
//!   size of the failed file); a repeated failure, or a next Fragment that
//!   cannot be opened, finalizes the Streamlet and surfaces the failure so
//!   the client asks the SMS for a new one (§5.3); foreign bytes in a log
//!   file relinquish it (§5.6);
//! - **fragment rotation** at a configurable max size — "small enough
//!   that conversion ... happens frequently, but not so small that too
//!   many Fragments are created in the metadata";
//! - **commit records** piggybacked on the next append or emitted by an
//!   idle tick (§7.1), **flush records** for BUFFERED streams, and
//!   fragment finalization with bloom filter + footer (§5.4.4);
//! - **heartbeat production** (§5.5): per-streamlet deltas since the last
//!   report, load information, and periodic full-state snapshots;
//! - its own metadata durability: a **transaction log and periodic
//!   checkpoints** in Colossus, with recovery (§5.3).

#![warn(missing_docs)]

pub mod hosted;
pub mod server;
mod shard;
pub mod wal;

#[cfg(test)]
mod tests;

pub use server::{AppendAck, ServerConfig, StreamServer};
