//! The Vortex control plane: Stream Metadata Server (SMS), Slicer-style
//! sharding, and the disaster-recovery reconciliation protocol.
//!
//! "The Stream Metadata Server (SMS) is the control plane of Vortex. It
//! manages the physical metadata of Streams, Streamlets and Fragments and
//! is backed by a Spanner database which also stores the table's logical
//! metadata." (§5.2)
//!
//! Responsibilities implemented here:
//!
//! - table/stream lifecycle: create tables, hand out writable Streams and
//!   Streamlets, pick Stream Servers by load (§5.2), flush BUFFERED
//!   streams, atomically commit PENDING streams (§4.2.4), finalize;
//! - heartbeat intake (§5.5): fragment deltas, load reports, full-state
//!   snapshots with age-guarded orphan deletion (§5.4.3);
//! - the **read path metadata**: `list_read_fragments` returns the union
//!   of ROS blocks and WOS fragments visible at a snapshot plus the
//!   unfinalized streamlet tails the SMS doesn't know about yet (§7);
//! - **reconciliation** (§5.6/§7.1): inspect replica log files, poison
//!   zombie writers with sentinel records, record the reconciled length;
//! - conversion commits for the Storage Optimizer: atomically flip
//!   `deletion_timestamp`/`creation_timestamp` so every row is read
//!   exactly once (§6.1);
//! - DML commits: versioned deletion masks on fragments and streamlet
//!   tails, with reinserted rows made visible atomically (§7.3);
//! - Slicer-style eventually-consistent table→task assignment whose
//!   double-ownership hazard is neutralized by metastore transactions
//!   (§5.2.1).
//!
//! Fine grained column properties (§6.2) live in the catalog: each
//! [`FragmentMeta`] carries its columns' statistics, committed with the
//! fragment, so a restarted task prunes exactly as its predecessor did.

#![warn(missing_docs)]

pub mod api;
pub mod heartbeat;
pub mod meta;
pub mod readset;
pub mod server_ctl;
pub mod slicer;
pub mod sms;

#[cfg(test)]
mod tests;

pub use api::{Endpoint, ServerChannel, SmsApi, SmsChannel, SmsHandle};
pub use heartbeat::{FragmentDelta, HeartbeatResponse, StreamletDelta};
pub use meta::{
    FragmentKind, FragmentMeta, FragmentState, StreamMeta, StreamType, StreamletMeta,
    StreamletState, TableMeta,
};
pub use readset::{FragmentReadSpec, ReadSet, TailReadSpec};
pub use server_ctl::{AppendAck, LoadReport, ServerHandle, StreamServerApi, StreamletSpec};
pub use sms::{DmlTicket, SmsConfig, SmsTask, StreamHandle};
