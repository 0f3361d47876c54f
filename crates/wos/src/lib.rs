//! Write-Optimized Storage (WOS): the Fragment log-file format.
//!
//! This crate implements §5.4.4 of the paper byte-for-byte in spirit:
//!
//! - every Fragment begins with a **header record** carrying the **File
//!   Map** — "the committed size and record ranges of all previous
//!   Fragments in the same Streamlet which have not yet been deleted" —
//!   used for disaster resilience and for reading without the Stream
//!   Server (§7.1);
//! - row data arrives in **data blocks** of up to 2 MB, each stamped with
//!   "a single server-assigned TrueTime timestamp for all rows in the
//!   write";
//! - a **commit record** follows each append — "in the common case ...
//!   combined with the next data append. Otherwise, it is written after a
//!   small period of inactivity" (§7.1); a reader that sees *anything*
//!   after a data block knows that block is committed;
//! - **flush records** persist `FlushStream` calls on BUFFERED streams —
//!   "a metadata write to the Fragment which advances the committed row
//!   offset";
//! - **sentinel records** poison zombie writers during reconciliation
//!   (§5.6);
//! - on finalize, a **bloom filter** over partition/clustering keys and a
//!   **fixed-length footer** locating it (§5.4.4).
//!
//! Data blocks are compressed (vsnap, §5.4.5), verified by
//! decompress-and-CRC-check before leaving the writer, then encrypted
//! (ChaCha20) — "data is therefore in encrypted form while being sent over
//! RPC to Colossus, while at rest, and while being read back". Every
//! record carries CRCs over both the plaintext rows and the on-disk
//! payload, so torn trailing writes are detected and skipped rather than
//! crashing the reader.
//!
//! Reading is [`reader`]: one record walker indexes a file without a key,
//! a per-block decode turns indexed blocks into rows, and the replica
//! common-prefix rule (§5.6) and the footer → bloom lookup are functions
//! over it. No other crate knows the record layout.

#![warn(missing_docs)]

mod format;
pub mod reader;
#[cfg(test)]
#[path = "../../../tests/support/tally.rs"]
mod tally;
pub mod writer;

pub use format::{FileMapEntry, Footer, FragmentConfig, FragmentHeader};
pub use reader::{
    common_prefix, index_fragment, index_fragment_from, parse_fragment, read_bloom, BlockEntry,
    DataBlock, FlushRecord, FragmentIndex, ParsedFragment, SentinelRecord,
};
pub use writer::FragmentWriter;

/// Default maximum bytes buffered into a single data block (§5.4.4:
/// "The Stream Server buffers up to 2MB of records into a single write").
pub const DEFAULT_BLOCK_BUFFER_BYTES: usize = 2 * 1024 * 1024;

/// Default maximum logical size of a Fragment before the Stream Server
/// finalizes it and opens the next one (§5.3: small enough that WOS→ROS
/// conversion happens frequently, large enough to bound metadata churn).
pub const DEFAULT_FRAGMENT_MAX_BYTES: u64 = 64 * 1024 * 1024;
