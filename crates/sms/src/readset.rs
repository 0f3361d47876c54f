//! Read-set metadata: what a processing engine gets when it asks the SMS
//! for "the partitioned metadata for the table as of a specific snapshot
//! read time" (§7).
//!
//! The answer is "the union of the data in WOS and ROS": the fragments
//! the SMS knows about, plus a spec per unfinalized streamlet telling the
//! reader where to look for the **tail** — data appended after the last
//! heartbeat, discoverable only by reading the log files themselves
//! (§7.1).

use std::sync::Arc;

use vortex_common::ids::{ClusterId, StreamId, StreamletId};
use vortex_common::mask::DeletionMask;
use vortex_common::truetime::Timestamp;

use crate::meta::{FragmentMeta, StreamMeta, StreamType, StreamletMeta, TableMeta};

/// Visibility constraints a fragment's rows must additionally satisfy
/// (beyond the fragment-level `[created_at, deleted_at)` interval).
#[derive(Debug, Clone)]
pub struct RowVisibility {
    /// PENDING streams: rows only visible if the snapshot is at or past
    /// the stream's batch-commit time. `Timestamp::MIN` otherwise.
    pub visible_from: Timestamp,
    /// BUFFERED streams: only streamlet-relative rows below this offset
    /// are visible (stream flush watermark mapped into the streamlet).
    /// `None` = no flush limit (UNBUFFERED/PENDING).
    pub flush_limit: Option<u64>,
}

impl RowVisibility {
    /// Unconstrained visibility (UNBUFFERED streams).
    pub fn unconstrained() -> Self {
        RowVisibility {
            visible_from: Timestamp::MIN,
            flush_limit: None,
        }
    }

    /// What a read at `snapshot` may see of `streamlet`'s rows, by the
    /// type and state of its `stream`; `None` while a PENDING stream is
    /// not committed as of the snapshot.
    pub fn of(stream: &StreamMeta, streamlet: &StreamletMeta, snapshot: Timestamp) -> Option<Self> {
        match stream.stype {
            StreamType::Unbuffered => Some(Self::unconstrained()),
            StreamType::Buffered => Some(RowVisibility {
                visible_from: Timestamp::MIN,
                flush_limit: Some(
                    stream
                        .flushed_row
                        .saturating_sub(streamlet.first_stream_row),
                ),
            }),
            StreamType::Pending => {
                let visible_from = stream.committed_at.filter(|at| *at <= snapshot)?;
                Some(RowVisibility {
                    visible_from,
                    flush_limit: None,
                })
            }
        }
    }
}

/// One fragment the reader must scan.
#[derive(Debug, Clone)]
pub struct FragmentReadSpec {
    /// The fragment's metadata (path, clusters, sizes, kind).
    pub meta: FragmentMeta,
    /// Effective deletion mask at the snapshot (fragment-relative rows).
    pub mask: DeletionMask,
    /// Stream-level visibility constraints.
    pub visibility: RowVisibility,
    /// Owning stream (WOS fragments; zero raw id for ROS blocks, whose
    /// rows carry their own provenance).
    pub stream: StreamId,
    /// Stream-level row offset where the owning streamlet begins, so a
    /// WOS row's stream offset is `streamlet_first_stream_row +
    /// fragment.first_row + index` (exactly-once verification, §6.3).
    pub streamlet_first_stream_row: u64,
    /// The table's clustering columns, as snapshot-schema positions: what
    /// the bloom filter a reader keeps per decoded log-file zone holds.
    pub clustering: Arc<[usize]>,
}

/// One unfinalized streamlet whose tail may hold rows the SMS hasn't
/// heard about yet.
#[derive(Debug, Clone)]
pub struct TailReadSpec {
    /// The streamlet.
    pub streamlet: StreamletId,
    /// Its stream (for diagnostics / verification).
    pub stream: StreamId,
    /// Replica clusters holding the log files.
    pub clusters: [ClusterId; 2],
    /// First fragment ordinal the SMS has **no** metadata for: the reader
    /// probes log files from here (§7: "reads the ... portions of the
    /// unfinalized Streamlets that are not present in the list of
    /// Fragments").
    pub from_ordinal: u32,
    /// Streamlet-relative row offset where known fragments end; tail rows
    /// at or past this offset belong to the tail read.
    pub from_row: u64,
    /// Colossus path prefix of the streamlet's log files.
    pub path_prefix: String,
    /// Effective streamlet-level deletion mask at the snapshot
    /// (streamlet-relative rows, §7.3 tail deletes).
    pub mask: DeletionMask,
    /// Stream-level visibility constraints.
    pub visibility: RowVisibility,
    /// Ownership epoch (reconciliation bumps it).
    pub epoch: u64,
    /// Stream-level row offset where the streamlet begins.
    pub first_stream_row: u64,
    /// Committed streamlet-relative row end the SMS knew at the snapshot
    /// (heartbeat floor). A tail probe recovering fewer committed rows
    /// has read log files already collected past the snapshot's horizon
    /// — the read must fail as "snapshot too old" rather than silently
    /// under-count.
    pub expected_rows: u64,
    /// The table's clustering columns, as in [`FragmentReadSpec`].
    pub clustering: Arc<[usize]>,
}

/// Everything a query engine needs to read a table at a snapshot.
#[derive(Debug, Clone)]
pub struct ReadSet {
    /// The table's record at the snapshot: its schema, encryption key and
    /// clusters are what the read set is read with.
    pub table: TableMeta,
    /// Fragments to scan (WOS and ROS, already visibility-filtered at the
    /// fragment level).
    pub fragments: Vec<FragmentReadSpec>,
    /// Unfinalized streamlet tails to probe.
    pub tails: Vec<TailReadSpec>,
}
