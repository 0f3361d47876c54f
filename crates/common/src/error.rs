//! Error types shared across the Vortex engine.

use std::fmt;

use crate::ids::{FragmentId, StreamId, StreamletId, TableId};

/// Result alias used throughout the workspace.
pub type VortexResult<T> = Result<T, VortexError>;

/// The unified error type for all Vortex operations.
///
/// Variants are grouped by the layer that raises them. Retryable-ness is a
/// property the thick client library cares about: see
/// [`VortexError::is_retryable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VortexError {
    /// A table, stream, or other named entity does not exist.
    NotFound(String),
    /// An entity that was being created already exists.
    AlreadyExists(String),
    /// The request is malformed or violates an API invariant.
    InvalidArgument(String),
    /// An append used a `row_offset` that does not match the current end of
    /// the stream (§4.2.2). Carries the offset the server expected.
    OffsetMismatch {
        /// Stream on which the append was attempted.
        stream: StreamId,
        /// The offset the caller supplied.
        provided: u64,
        /// The next offset the server would accept.
        expected: u64,
    },
    /// The stream has been finalized and no longer accepts appends.
    StreamFinalized(StreamId),
    /// The streamlet has been finalized; the client must ask the SMS for a
    /// new one (§5.3).
    StreamletFinalized(StreamletId),
    /// The writer's schema version is stale; the client must refetch the
    /// table schema from the SMS and retry (§5.4.1).
    SchemaVersionMismatch {
        /// Table whose schema changed.
        table: TableId,
        /// Version the writer used.
        writer_version: u32,
        /// Current version at the server.
        current_version: u32,
    },
    /// A row failed schema validation during an append.
    SchemaViolation(String),
    /// The server or a storage cluster is temporarily unavailable.
    Unavailable(String),
    /// An I/O error from the (simulated) Colossus layer.
    Io(String),
    /// Data failed its end-to-end CRC check (§5.4.5).
    CorruptData(String),
    /// A decoding error while reading a fragment or ROS block.
    Decode(String),
    /// A metastore transaction aborted due to a conflict and may be retried.
    TxnConflict(String),
    /// Flow control rejected the request; back off and retry (§5.4.2).
    Throttled {
        /// Bytes currently in flight on the connection.
        in_flight_bytes: u64,
        /// The connection's in-flight limit.
        limit_bytes: u64,
    },
    /// The requested fragment is deleted at the given snapshot.
    FragmentNotVisible(FragmentId),
    /// A write lease was lost to another writer (zombie poisoning, §5.6).
    LeaseLost(String),
    /// A named crash point fired (`vortex_common::crashpoints`): the
    /// component must unwind to its service boundary and mark itself
    /// dead, exactly as if the process had been killed at that
    /// instruction. Deliberately NOT retryable — internal retry loops
    /// must not swallow a simulated death; only the boundary converts it
    /// into a retryable [`VortexError::Unavailable`] for remote callers.
    SimulatedCrash(String),
    /// Admission control rejected the request before it executed: a
    /// quota bucket is empty, the admission queue for the caller's
    /// priority class is full, or the concurrency window is full
    /// (`vortex-admission`). Retryable — and unlike every other
    /// retryable error it carries an explicit server-side backoff hint,
    /// which [`crate::rpc::RpcChannel`]'s retry rule honors instead of
    /// blind exponential backoff (the gRPC `RESOURCE_EXHAUSTED` +
    /// `RetryInfo` contract). `retry_after_us` must be nonzero (lint
    /// L009): a zero hint strands hint-directed retriers in a busy loop.
    ResourceExhausted {
        /// What was exhausted, e.g. `bytes/s` or `aimd limit`.
        scope: String,
        /// Server-suggested backoff before retrying, virtual µs (> 0).
        retry_after_us: u64,
    },
    /// An RPC exhausted its per-call budget (injected latency plus retry
    /// backoff) before completing. Retryable: the deadline says nothing
    /// about whether the callee executed, exactly like a gRPC
    /// `DEADLINE_EXCEEDED`.
    DeadlineExceeded {
        /// The RPC method that timed out.
        method: String,
        /// The call budget that was exhausted, in microseconds.
        budget_us: u64,
    },
    /// Catch-all internal invariant failure.
    Internal(String),
}

impl VortexError {
    /// Whether the thick client library should transparently retry the
    /// operation (possibly against a new streamlet or replica).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            VortexError::Unavailable(_)
                | VortexError::Io(_)
                | VortexError::TxnConflict(_)
                | VortexError::Throttled { .. }
                | VortexError::ResourceExhausted { .. }
                | VortexError::StreamletFinalized(_)
                | VortexError::DeadlineExceeded { .. }
        )
    }

    /// The server-supplied backoff hint, if this error carries one.
    /// Hint-directed retriers (the RPC channel, the thick client) wait
    /// exactly this long instead of applying exponential backoff.
    pub fn retry_after_us(&self) -> Option<u64> {
        match self {
            VortexError::ResourceExhausted { retry_after_us, .. } => Some(*retry_after_us),
            _ => None,
        }
    }

    /// Whether the error indicates the client must refresh metadata (new
    /// schema or new streamlet) before retrying.
    pub fn needs_metadata_refresh(&self) -> bool {
        matches!(
            self,
            VortexError::SchemaVersionMismatch { .. } | VortexError::StreamletFinalized(_)
        )
    }
}

impl fmt::Display for VortexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VortexError::NotFound(s) => write!(f, "not found: {s}"),
            VortexError::AlreadyExists(s) => write!(f, "already exists: {s}"),
            VortexError::InvalidArgument(s) => write!(f, "invalid argument: {s}"),
            VortexError::OffsetMismatch {
                stream,
                provided,
                expected,
            } => write!(
                f,
                "offset mismatch on stream {stream}: provided {provided}, expected {expected}"
            ),
            VortexError::StreamFinalized(s) => write!(f, "stream {s} is finalized"),
            VortexError::StreamletFinalized(s) => write!(f, "streamlet {s} is finalized"),
            VortexError::SchemaVersionMismatch {
                table,
                writer_version,
                current_version,
            } => write!(
                f,
                "schema version mismatch on table {table}: writer has v{writer_version}, current is v{current_version}"
            ),
            VortexError::SchemaViolation(s) => write!(f, "schema violation: {s}"),
            VortexError::Unavailable(s) => write!(f, "unavailable: {s}"),
            VortexError::Io(s) => write!(f, "io error: {s}"),
            VortexError::CorruptData(s) => write!(f, "corrupt data: {s}"),
            VortexError::Decode(s) => write!(f, "decode error: {s}"),
            VortexError::TxnConflict(s) => write!(f, "transaction conflict: {s}"),
            VortexError::Throttled {
                in_flight_bytes,
                limit_bytes,
            } => write!(
                f,
                "throttled: {in_flight_bytes} bytes in flight exceeds limit {limit_bytes}"
            ),
            VortexError::ResourceExhausted {
                scope,
                retry_after_us,
            } => write!(
                f,
                "resource exhausted ({scope}): retry after {retry_after_us}us"
            ),
            VortexError::FragmentNotVisible(id) => {
                write!(f, "fragment {id} not visible at snapshot")
            }
            VortexError::LeaseLost(s) => write!(f, "write lease lost: {s}"),
            VortexError::SimulatedCrash(p) => {
                write!(f, "simulated crash at point '{p}'")
            }
            VortexError::DeadlineExceeded { method, budget_us } => write!(
                f,
                "rpc deadline exceeded on {method}: call budget {budget_us}us exhausted"
            ),
            VortexError::Internal(s) => write!(f, "internal error: {s}"),
        }
    }
}

impl std::error::Error for VortexError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_classification() {
        assert!(VortexError::Unavailable("x".into()).is_retryable());
        assert!(VortexError::Io("x".into()).is_retryable());
        assert!(VortexError::TxnConflict("x".into()).is_retryable());
        assert!(VortexError::Throttled {
            in_flight_bytes: 10,
            limit_bytes: 5
        }
        .is_retryable());
        assert!(VortexError::DeadlineExceeded {
            method: "append".into(),
            budget_us: 1_000
        }
        .is_retryable());
        assert!(VortexError::ResourceExhausted {
            scope: "bytes/s".into(),
            retry_after_us: 2_500
        }
        .is_retryable());
        assert!(!VortexError::NotFound("x".into()).is_retryable());
        assert!(!VortexError::OffsetMismatch {
            stream: StreamId::from_raw(1),
            provided: 5,
            expected: 4
        }
        .is_retryable());
        assert!(!VortexError::CorruptData("x".into()).is_retryable());
        // A simulated process death must NOT be absorbed by internal
        // retry loops; the component boundary handles it.
        assert!(!VortexError::SimulatedCrash("server.wal.pre_ack".into()).is_retryable());
    }

    #[test]
    fn metadata_refresh_classification() {
        assert!(VortexError::SchemaVersionMismatch {
            table: TableId::from_raw(1),
            writer_version: 1,
            current_version: 2
        }
        .needs_metadata_refresh());
        assert!(VortexError::StreamletFinalized(StreamletId::from_raw(9)).needs_metadata_refresh());
        assert!(!VortexError::Unavailable("x".into()).needs_metadata_refresh());
    }

    #[test]
    fn retry_after_hint_only_on_resource_exhausted() {
        let e = VortexError::ResourceExhausted {
            scope: "aimd limit".into(),
            retry_after_us: 7_500,
        };
        assert_eq!(e.retry_after_us(), Some(7_500));
        assert!(e.to_string().contains("7500us"), "{e}");
        assert_eq!(VortexError::Unavailable("x".into()).retry_after_us(), None);
        assert_eq!(
            VortexError::Throttled {
                in_flight_bytes: 10,
                limit_bytes: 5
            }
            .retry_after_us(),
            None
        );
    }

    #[test]
    fn display_is_informative() {
        let e = VortexError::OffsetMismatch {
            stream: StreamId::from_raw(7),
            provided: 14,
            expected: 4,
        };
        let s = e.to_string();
        assert!(s.contains("14") && s.contains('4'), "{s}");
    }
}
