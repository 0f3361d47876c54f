//! Per-streamlet write state: the heart of the data plane.
//!
//! A [`HostedStreamlet`] owns the current fragment's [`FragmentWriter`],
//! performs the dual-cluster synchronous writes, accumulates column
//! properties and bloom keys, and runs the paper's error path: failed
//! replica write → close fragment → retry on the next fragment → on
//! repeated failure, finalize the streamlet (§5.3, §5.6).

use std::collections::HashSet;
use std::sync::Arc;

use vortex_colossus::StorageFleet;
use vortex_common::bloom::BloomFilter;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{FragmentId, IdGen};
use vortex_common::obs::{self, Counter, Histogram};
use vortex_common::row::{Row, RowSet};
use vortex_common::stats::ColumnStats;
use vortex_common::truetime::{Timestamp, TrueTime};
use vortex_sms::heartbeat::{FragmentDelta, StreamletDelta};
use vortex_sms::meta::wos_path;
use vortex_sms::server_ctl::StreamletSpec;
use vortex_wos::{FileMapEntry, FragmentConfig, FragmentWriter};

use crate::server::ServerConfig;
use crate::wal::WalEvent;

pub use vortex_sms::server_ctl::AppendAck;

/// State of one fragment currently being written.
struct CurrentFragment {
    writer: FragmentWriter,
    fragment: FragmentId,
    ordinal: u32,
    path: String,
    stats: Vec<(usize, String, ColumnStats)>,
    bloom_keys: HashSet<Vec<u8>>,
    ts_range: Option<(Timestamp, Timestamp)>,
    dirty: bool,
    /// Expected log-file length per replica cluster. The server assumes
    /// it is the sole writer; a length mismatch after an append means a
    /// foreign record (a reconciliation sentinel, §5.6) landed in the
    /// file — ownership is relinquished immediately.
    expected_lens: [u64; 2],
}

/// A fragment this streamlet finished writing.
#[derive(Debug, Clone)]
pub struct DoneFragment {
    /// Fragment id.
    pub fragment: FragmentId,
    /// Ordinal within the streamlet.
    pub ordinal: u32,
    /// Streamlet-relative first row.
    pub first_row: u64,
    /// Committed rows.
    pub row_count: u64,
    /// Committed (logical) byte size.
    pub committed_size: u64,
    /// Column properties at finalization.
    pub stats: Vec<(String, ColumnStats)>,
    /// Record timestamp range.
    pub ts_range: Option<(Timestamp, Timestamp)>,
    /// Whether this fragment still needs to appear in a heartbeat.
    pub dirty: bool,
}

/// Registry handles of the server's append leg, interned when the
/// streamlet opens: the group-commit path never names a metric.
struct AppendMetrics {
    replica_write_us: Arc<Histogram>,
    service_us: Arc<Histogram>,
    span: Arc<Histogram>,
    rows: Arc<Counter>,
    chunks: Arc<Counter>,
}

impl AppendMetrics {
    fn intern() -> Self {
        let m = obs::global();
        AppendMetrics {
            replica_write_us: m.histogram("append.server.replica_write_us"),
            service_us: m.histogram("append.server.service_us"),
            span: m.span("append.server"),
            rows: m.counter("append.server.rows"),
            chunks: m.counter("append.server.chunks"),
        }
    }
}

/// One streamlet hosted by a Stream Server.
pub struct HostedStreamlet {
    /// The creation spec (table, stream, clusters, schema, key, epoch).
    pub spec: StreamletSpec,
    current: Option<CurrentFragment>,
    done: Vec<DoneFragment>,
    rows_acked: u64,
    finalized: bool,
    revoked: bool,
    max_flush_row: Option<u64>,
    flush_dirty: bool,
    rows_dirty: bool,
    /// True when the last log record is a data block (commit piggyback
    /// pending, §7.1).
    uncommitted_tail: bool,
    last_append_at: Timestamp,
    /// (column index, name) pairs eligible for zone-map stats, computed
    /// once at open — the spec is immutable for the streamlet's life, so
    /// the append path never re-derives (or re-allocates) this.
    tracked_cols: Vec<(usize, String)>,
    /// Partition + clustering column indexes, computed once at open.
    key_cols: Vec<usize>,
    /// How many entries of `done` have already been handed to the WAL
    /// (see [`HostedStreamlet::drain_unlogged_seals`]).
    wal_logged_seals: usize,
    m: AppendMetrics,
}

/// Partition column followed by clustering columns, deduplicated.
fn key_columns(spec: &StreamletSpec) -> Vec<usize> {
    let schema = &spec.schema;
    let mut cols = Vec::new();
    if let Some(p) = &schema.partition {
        if let Some(i) = schema.column_index(&p.column) {
            cols.push(i);
        }
    }
    for c in &schema.clustering {
        if let Some(i) = schema.column_index(c) {
            if !cols.contains(&i) {
                cols.push(i);
            }
        }
    }
    cols
}

/// One append inside a shard group commit: a borrowed view of the
/// caller's rows plus the per-append protocol fields of §4.2.2/§5.4.1.
pub struct GroupAppend<'a> {
    /// Rows to append (borrowed from the request; never cloned).
    pub rows: &'a RowSet,
    /// The writer's declared schema version (§5.4.1 schema relay).
    pub declared_schema_version: u32,
    /// The §4.2.2 offset-idempotency token, when the writer sent one.
    pub expected_stream_offset: Option<u64>,
    /// Virtual send time; ack latency is measured from here.
    pub start: Timestamp,
}

/// A staged encoded block: `entry`'s rows `[lo, hi)`, encoded at `ts`,
/// sitting in the group arena awaiting the next flush.
struct StagedChunk {
    entry: usize,
    lo: usize,
    hi: usize,
    ts: Timestamp,
}

/// Per-entry accumulator while a group commit is in flight.
#[derive(Default)]
struct EntryAcc {
    first_stream_row: u64,
    total_rows: u64,
    flushed_rows: u64,
    service_us: u64,
    completion: Timestamp,
    failed: Option<VortexError>,
}

/// Reusable group-commit arenas: a shard allocates one of these at spawn
/// and threads it through every [`HostedStreamlet::append_group`] call,
/// so the steady-state append hot path performs no heap allocation for
/// staging (buffers are cleared, never shrunk).
#[derive(Default)]
pub struct GroupScratch {
    staged: Vec<u8>,
    chunks: Vec<StagedChunk>,
    acc: Vec<EntryAcc>,
}

impl GroupScratch {
    /// A fresh arena set (empty; grows to the shard's working set).
    pub fn new() -> Self {
        Self::default()
    }
}

impl HostedStreamlet {
    /// Opens the streamlet: creates fragment 0 by writing its header to
    /// both replica clusters.
    pub fn open(
        spec: StreamletSpec,
        ids: &IdGen,
        fleet: &StorageFleet,
        tt: &TrueTime,
    ) -> VortexResult<Self> {
        let tracked_cols = spec.schema.tracked_columns();
        let key_cols = key_columns(&spec);
        let mut sl = Self {
            spec,
            current: None,
            done: vec![],
            rows_acked: 0,
            finalized: false,
            revoked: false,
            max_flush_row: None,
            flush_dirty: false,
            rows_dirty: false,
            uncommitted_tail: false,
            last_append_at: Timestamp::MIN,
            tracked_cols,
            key_cols,
            wal_logged_seals: 0,
            m: AppendMetrics::intern(),
        };
        sl.open_fragment(0, ids, fleet, tt)?;
        Ok(sl)
    }

    fn open_fragment(
        &mut self,
        ordinal: u32,
        ids: &IdGen,
        fleet: &StorageFleet,
        tt: &TrueTime,
    ) -> VortexResult<()> {
        let fragment = ids.next_fragment();
        let cfg = FragmentConfig {
            streamlet: self.spec.streamlet,
            fragment,
            ordinal,
            schema_version: self.spec.schema.version,
            key: self.spec.key.clone(),
        };
        let file_map: Vec<FileMapEntry> = self
            .done
            .iter()
            .map(|d| FileMapEntry {
                ordinal: d.ordinal,
                fragment: d.fragment,
                committed_size: d.committed_size,
                first_row: d.first_row,
                row_count: d.row_count,
            })
            .collect();
        let (writer, header) =
            FragmentWriter::new(cfg, self.rows_acked, file_map, tt.record_timestamp());
        let path = wos_path(self.spec.table, self.spec.streamlet, ordinal);
        let header_len = header.len() as u64;
        let (_, _, lens) = self.write_both(fleet, &path, &header, Timestamp::MIN)?;
        // A fresh fragment file must contain exactly our header; anything
        // else means a previous incarnation (or a zombie) owns the path.
        if lens != [header_len, header_len] {
            return Err(VortexError::LeaseLost(format!(
                "fragment file {path} not empty at open: {lens:?}"
            )));
        }
        let stats = self
            .tracked_cols
            .iter()
            .map(|(i, n)| (*i, n.clone(), ColumnStats::new()))
            .collect();
        self.current = Some(CurrentFragment {
            writer,
            fragment,
            ordinal,
            path,
            stats,
            bloom_keys: HashSet::new(),
            ts_range: None,
            dirty: true,
            expected_lens: [header_len, header_len],
        });
        Ok(())
    }

    /// Appends `bytes` to the same path in both replica clusters —
    /// physical replication (§5.6). Returns (service_us, completion).
    fn write_both(
        &self,
        fleet: &StorageFleet,
        path: &str,
        bytes: &[u8],
        start: Timestamp,
    ) -> VortexResult<(u64, Timestamp, [u64; 2])> {
        let mut completion = Timestamp::MIN;
        // The two replica writes happen in parallel in production; the
        // latency is their max, which is what the virtual clock records.
        let mut max_service = 0u64;
        let mut lens = [0u64; 2];
        for (i, c) in self.spec.clusters.into_iter().enumerate() {
            if i == 1 {
                // One replica now has the bytes and the other does not —
                // the §5.6 worst-case instruction for a process death;
                // reconciliation must converge on the common prefix.
                vortex_common::crash_point!("server.replica.mid_write");
            }
            let cluster = fleet.get(c)?;
            let out = cluster.append(path, bytes, start)?;
            max_service = max_service.max(out.service_us);
            completion = completion.max(out.completion);
            lens[i] = out.new_len;
        }
        // Colossus replica-write leg of the append span: the max of the
        // two synchronous replica writes (§5.6) is what the ack waits on.
        self.m.replica_write_us.record(max_service);
        Ok((max_service, completion, lens))
    }

    /// Dual write with the sole-writer check: the append only counts if
    /// BOTH files grew by exactly our bytes from the expected lengths —
    /// otherwise a sentinel (or any foreign writer) got in and ownership
    /// is gone (§5.6: the sentinel "causes it to relinquish ownership").
    fn write_owned(
        &mut self,
        fleet: &StorageFleet,
        bytes: &[u8],
        start: Timestamp,
    ) -> VortexResult<(u64, Timestamp)> {
        let cur = self
            .current
            .as_ref()
            .ok_or(VortexError::StreamletFinalized(self.spec.streamlet))?;
        let expected = cur.expected_lens;
        let (svc, done, lens) = self.write_both(fleet, &cur.path, bytes, start)?;
        let want = [
            expected[0] + bytes.len() as u64,
            expected[1] + bytes.len() as u64,
        ];
        if lens != want {
            let path = self
                .current
                .as_ref()
                .map(|c| c.path.as_str())
                .unwrap_or("<closed>");
            return Err(VortexError::LeaseLost(format!(
                "foreign bytes in {path}: expected lens {want:?}, observed {lens:?}"
            )));
        }
        if let Some(cur) = self.current.as_mut() {
            cur.expected_lens = want;
        }
        Ok((svc, done))
    }

    /// Rotates to the next fragment: records the current one as done
    /// (optionally writing bloom + footer) and opens the next with a File
    /// Map covering all previous fragments.
    fn rotate(
        &mut self,
        write_footer: bool,
        ids: &IdGen,
        fleet: &StorageFleet,
        tt: &TrueTime,
    ) -> VortexResult<()> {
        let cur = self
            .current
            .take()
            .ok_or_else(|| VortexError::Internal("rotate without current fragment".into()))?;
        let done = self.seal_fragment(cur, write_footer, fleet, tt);
        let next_ordinal = done.ordinal + 1;
        self.done.push(done);
        self.open_fragment(next_ordinal, ids, fleet, tt)
    }

    /// Seals a fragment: writes bloom + footer when asked (and possible),
    /// and produces its [`DoneFragment`] record.
    fn seal_fragment(
        &mut self,
        mut cur: CurrentFragment,
        write_footer: bool,
        fleet: &StorageFleet,
        tt: &TrueTime,
    ) -> DoneFragment {
        let first_row = cur.writer.first_row();
        let row_count = cur.writer.rows_written();
        let mut committed_size = cur.writer.logical_size();
        if write_footer {
            let mut bloom = BloomFilter::with_capacity(cur.bloom_keys.len().max(16), 0.01);
            for k in &cur.bloom_keys {
                bloom.insert(k);
            }
            if let Ok(chunk) = cur.writer.finalize(&bloom, tt.record_timestamp()) {
                // Best-effort, but still length-checked: a poisoned file
                // must not have its committed size extended.
                let want = [
                    cur.expected_lens[0] + chunk.len() as u64,
                    cur.expected_lens[1] + chunk.len() as u64,
                ];
                if let Ok((_, _, lens)) = self.write_both(fleet, &cur.path, &chunk, Timestamp::MIN)
                {
                    if lens == want {
                        cur.expected_lens = want;
                        committed_size = cur.writer.logical_size();
                        self.uncommitted_tail = false;
                    }
                }
            }
        }
        DoneFragment {
            fragment: cur.fragment,
            ordinal: cur.ordinal,
            first_row,
            row_count,
            committed_size,
            stats: cur.stats.drain(..).map(|(_, n, s)| (n, s)).collect(),
            ts_range: cur.ts_range,
            dirty: true,
        }
    }

    /// Group commit (§5.3 re-architected): lands a run of appends for this
    /// streamlet with as few Colossus writes as possible. All entries'
    /// data blocks are staged into one arena and written with a single
    /// dual-replica append per fragment extent, so the ~600µs Colossus
    /// base overhead is charged once per *group* instead of once per
    /// append. Pushes exactly one result per entry onto `results`, in
    /// entry order. `expected_stream_offset` implements the offset
    /// idempotency check of §4.2.2; `declared_schema_version` implements
    /// the schema relay of §5.4.1 (`latest_version` is the server's most
    /// recent knowledge for the table).
    ///
    /// Entries are validated against the streamlet state *as if* all
    /// earlier entries in the group had already landed (offset checks see
    /// staged rows), so a writer pipelining appends through one shard
    /// observes the same semantics as the old serial path. A terminal
    /// failure (lease loss, repeated write failure, simulated crash)
    /// fails every entry whose rows were not yet durable; entries that
    /// already flushed keep their acks — the shard layer decides whether
    /// a simulated crash widens to the whole group.
    #[allow(clippy::too_many_arguments)]
    pub fn append_group(
        &mut self,
        entries: &[GroupAppend<'_>],
        latest_version: u32,
        cfg: &ServerConfig,
        ids: &IdGen,
        fleet: &StorageFleet,
        tt: &TrueTime,
        scratch: &mut GroupScratch,
        results: &mut Vec<VortexResult<AppendAck>>,
    ) {
        scratch.staged.clear();
        scratch.chunks.clear();
        scratch.acc.clear();
        scratch.acc.resize_with(entries.len(), EntryAcc::default);
        let GroupScratch {
            staged,
            chunks: staged_chunks,
            acc,
        } = scratch;
        let mut staged_rows: u64 = 0;
        // Acked fragment extent excluding staged-but-unflushed blocks: a
        // failed group write force-closes the fragment here.
        let mut stage_base = self.stage_base();
        // Virtual write start chains across flushes the way the old
        // per-chunk path chained completions.
        let mut write_start: Option<Timestamp> = None;
        // Terminal error: everything staged or later-arriving fails with
        // (a clone of) this.
        let mut dead: Option<VortexError> = None;

        for (i, entry) in entries.iter().enumerate() {
            if let Some(e) = &dead {
                acc[i].failed = Some(e.clone()); // lint:allow(L010, cold terminal-error path)
                continue;
            }
            if self.revoked || self.finalized {
                acc[i].failed = Some(VortexError::StreamletFinalized(self.spec.streamlet));
                continue;
            }
            if entry.rows.is_empty() {
                acc[i].failed = Some(VortexError::InvalidArgument("empty append".into()));
                continue;
            }
            if entry.declared_schema_version < latest_version {
                acc[i].failed = Some(VortexError::SchemaVersionMismatch {
                    table: self.spec.table,
                    writer_version: entry.declared_schema_version,
                    current_version: latest_version,
                });
                continue;
            }
            // Offset check sees staged rows: earlier group entries count
            // as landed for idempotency purposes.
            let next_offset = self.spec.first_stream_row + self.rows_acked + staged_rows;
            if let Some(expected) = entry.expected_stream_offset {
                if expected != next_offset {
                    acc[i].failed = Some(VortexError::OffsetMismatch {
                        stream: self.spec.stream,
                        provided: expected,
                        expected: next_offset,
                    });
                    continue;
                }
            }
            // Row validation against the schema the server holds (when
            // the writer speaks the same version).
            if entry.declared_schema_version == self.spec.schema.version {
                let mut bad = None;
                for r in &entry.rows.rows {
                    if let Err(e) = self.spec.schema.validate_row(r) {
                        bad = Some(e);
                        break;
                    }
                }
                if let Some(e) = bad {
                    acc[i].failed = Some(e);
                    continue;
                }
            }
            acc[i].first_stream_row = next_offset;
            acc[i].total_rows = entry.rows.len() as u64;
            acc[i].completion = entry.start;
            if write_start.is_none() {
                write_start = Some(entry.start);
            }

            // Chunk into ≤ block_buffer_bytes blocks (§5.4.4) and stage
            // each encoded block into the group arena. Chunks are index
            // ranges over the caller's rows — the hot path borrows slices
            // instead of cloning rows into scratch RowSets.
            let all = &entry.rows.rows[..];
            let mut lo = 0usize;
            while lo < all.len() {
                let mut hi = lo;
                let mut acc_bytes = 0usize;
                while hi < all.len() {
                    let rb = all[hi].approx_bytes();
                    if hi > lo && acc_bytes + rb > cfg.block_buffer_bytes {
                        break;
                    }
                    acc_bytes += rb;
                    hi += 1;
                }
                let ts = tt.record_timestamp();
                let Some(cur) = self.current.as_mut() else {
                    acc[i].failed = Some(VortexError::StreamletFinalized(self.spec.streamlet));
                    break;
                };
                match cur.writer.data_block(&all[lo..hi], ts) {
                    Ok(block) => staged.extend_from_slice(&block), // lint:allow(L010, group arena reuse)
                    Err(e) => {
                        acc[i].failed = Some(e);
                        break;
                    }
                }
                staged_chunks.push(StagedChunk {
                    entry: i,
                    lo,
                    hi,
                    ts,
                }); // lint:allow(L010, chunk-index arena reuse)
                staged_rows += (hi - lo) as u64;
                lo = hi;
                // Rotate when the fragment hits its max size: flush the
                // staged arena first so the sealed fragment carries it.
                let needs_rotate = self
                    .current
                    .as_ref()
                    .map(|c| c.writer.logical_size() >= cfg.fragment_max_bytes)
                    .unwrap_or(false);
                if needs_rotate {
                    let ws = write_start.unwrap_or(entry.start);
                    match self.flush_staged_group(
                        fleet,
                        ids,
                        tt,
                        entries,
                        staged,
                        staged_chunks,
                        acc.as_mut_slice(),
                        &mut stage_base,
                        ws,
                    ) {
                        Ok(Some(done_at)) => {
                            staged_rows = 0;
                            write_start = Some(done_at);
                        }
                        Ok(None) => {}
                        Err(e) => {
                            dead = Some(e);
                            break;
                        }
                    }
                    if dead.is_none() {
                        if let Err(e) = self.rotate(true, ids, fleet, tt) {
                            dead = Some(e);
                            break;
                        }
                        stage_base = self.stage_base();
                    }
                }
            }
            if dead.is_some() {
                continue;
            }
        }

        // Land whatever is still staged.
        if dead.is_none() && !staged_chunks.is_empty() {
            let ws = write_start.unwrap_or(Timestamp::MIN);
            match self.flush_staged_group(
                fleet,
                ids,
                tt,
                entries,
                staged,
                staged_chunks,
                acc.as_mut_slice(),
                &mut stage_base,
                ws,
            ) {
                Ok(_) => {}
                Err(e) => dead = Some(e),
            }
        }
        if let Some(e) = &dead {
            // Unflushed staged entries (and any entry not yet failed but
            // not fully flushed) inherit the terminal error.
            for c in staged_chunks.iter() {
                if acc[c.entry].failed.is_none() {
                    acc[c.entry].failed = Some(e.clone()); // lint:allow(L010, cold terminal-error path)
                }
            }
        }

        // Resolve per-entry results, in order, and record metrics for the
        // entries that fully landed.
        let mut group_rows = 0u64;
        for (i, a) in acc.iter_mut().enumerate() {
            if let Some(e) = a.failed.take() {
                results.push(Err(e)); // lint:allow(L010, results arena reuse)
                continue;
            }
            if a.flushed_rows != a.total_rows {
                // A terminal error stopped the group before this entry's
                // rows became durable (covered above unless the entry
                // staged nothing at all).
                let e = dead
                    .clone() // lint:allow(L010, cold terminal-error path)
                    .unwrap_or(VortexError::StreamletFinalized(self.spec.streamlet));
                results.push(Err(e)); // lint:allow(L010, results arena reuse)
                continue;
            }
            group_rows += a.total_rows;
            self.m.service_us.record(a.service_us);
            obs::Span::begin(&self.m.span, entries[i].start).end(a.completion);
            // lint:allow(L010, results arena reuse)
            results.push(Ok(AppendAck {
                first_stream_row: a.first_stream_row,
                row_count: a.total_rows,
                completion: a.completion,
                service_us: a.service_us,
            }));
        }
        if group_rows > 0 {
            self.m.rows.add(group_rows);
        }
    }

    /// Acked extent of the current fragment (size, rows), excluding any
    /// blocks staged in the writer but not yet durable.
    fn stage_base(&self) -> (u64, u64) {
        self.current
            .as_ref()
            .map(|c| (c.writer.logical_size(), c.writer.rows_written()))
            .unwrap_or((0, 0))
    }

    /// Lands the staged arena with one dual-replica write, running the
    /// §5.3 error path on failure: close the fragment at its pre-group
    /// extent, re-encode the staged chunks on the next fragment, retry
    /// once; a second failure finalizes the streamlet. Returns the write
    /// completion (None when nothing was staged); a terminal error fails
    /// the rest of the group.
    #[allow(clippy::too_many_arguments)]
    fn flush_staged_group(
        &mut self,
        fleet: &StorageFleet,
        ids: &IdGen,
        tt: &TrueTime,
        entries: &[GroupAppend<'_>],
        staged: &mut Vec<u8>,
        staged_chunks: &mut Vec<StagedChunk>,
        acc: &mut [EntryAcc],
        stage_base: &mut (u64, u64),
        start: Timestamp,
    ) -> VortexResult<Option<Timestamp>> {
        if staged_chunks.is_empty() {
            return Ok(None);
        }
        for attempt in 0..2 {
            if self.current.is_none() {
                return Err(VortexError::StreamletFinalized(self.spec.streamlet));
            }
            match self.write_owned(fleet, staged, start) {
                Ok((svc, done_at)) => {
                    self.m.chunks.add(staged_chunks.len() as u64);
                    let mut last_entry = usize::MAX;
                    for c in staged_chunks.drain(..) {
                        let rows = (c.hi - c.lo) as u64;
                        self.rows_acked += rows;
                        self.rows_dirty = true;
                        self.uncommitted_tail = true;
                        self.last_append_at = c.ts;
                        self.record_properties(&entries[c.entry].rows.rows[c.lo..c.hi], c.ts);
                        acc[c.entry].flushed_rows += rows;
                        acc[c.entry].completion = done_at;
                        // The group's single write is charged once per
                        // participating entry's ack (each waited on it).
                        if c.entry != last_entry {
                            acc[c.entry].service_us += svc;
                            last_entry = c.entry;
                        }
                    }
                    staged.clear();
                    *stage_base = self.stage_base();
                    return Ok(Some(done_at));
                }
                Err(e @ VortexError::LeaseLost(_)) => {
                    // A reconciler poisoned the log (§5.6): relinquish
                    // ownership immediately — never retry on a new
                    // fragment, the SMS owns this streamlet's fate now.
                    self.finalized = true;
                    self.revoked = true;
                    return Err(VortexError::Unavailable(format!(
                        "streamlet {} relinquished: {e}",
                        self.spec.streamlet
                    )));
                }
                Err(e @ VortexError::SimulatedCrash(_)) => {
                    // A crash point fired: this server is dead at this
                    // instruction. No §5.3 local recovery — the error
                    // unwinds to the service boundary untouched.
                    return Err(e);
                }
                Err(e) if attempt == 0 => {
                    // First failure: the group write may be torn in one
                    // replica. Close this fragment at its pre-group acked
                    // extent, open the next one, and re-encode the staged
                    // chunks there (§5.3); the new fragment's File Map
                    // records the committed size of this one.
                    let _ = e;
                    self.force_close_current(fleet, tt, stage_base.0, stage_base.1);
                    self.open_fragment_after_failure(ids, fleet, tt)?;
                    *stage_base = self.stage_base();
                    staged.clear();
                    for c in staged_chunks.iter() {
                        let cur = self
                            .current
                            .as_mut()
                            .ok_or(VortexError::StreamletFinalized(self.spec.streamlet))?;
                        let block = cur
                            .writer
                            .data_block(&entries[c.entry].rows.rows[c.lo..c.hi], c.ts)?;
                        staged.extend_from_slice(&block); // lint:allow(L010, group arena reuse)
                    }
                }
                Err(e) => {
                    // Second failure: finalize the streamlet; the client
                    // reconciles with the SMS and writes elsewhere (§5.3).
                    self.finalized = true;
                    return Err(VortexError::Unavailable(format!(
                        "streamlet {} finalized after repeated write failures: {e}",
                        self.spec.streamlet
                    )));
                }
            }
        }
        unreachable!("loop returns or errors");
    }

    /// WAL events for fragments sealed since the last drain. The shard
    /// commit loop folds these into the group's single WAL record so a
    /// rotation inside a group costs no extra log write.
    pub fn drain_unlogged_seals(&mut self, out: &mut Vec<WalEvent>) {
        while self.wal_logged_seals < self.done.len() {
            let d = &self.done[self.wal_logged_seals];
            out.push(WalEvent::FragmentSealed {
                streamlet: self.spec.streamlet,
                ordinal: d.ordinal,
                committed_size: d.committed_size,
                rows: d.first_row + d.row_count,
            });
            self.wal_logged_seals += 1;
        }
    }

    fn force_close_current(
        &mut self,
        fleet: &StorageFleet,
        tt: &TrueTime,
        acked_size: u64,
        acked_rows: u64,
    ) {
        if let Some(cur) = self.current.take() {
            // The fragment is closed at its last *acked* extent; no footer
            // (a replica is failing). The next fragment's File Map records
            // the committed size (§5.6).
            let mut done = self.seal_fragment(cur, false, fleet, tt);
            done.committed_size = acked_size;
            done.row_count = acked_rows; // fragment-relative acked rows
            self.done.push(done);
        }
    }

    fn open_fragment_after_failure(
        &mut self,
        ids: &IdGen,
        fleet: &StorageFleet,
        tt: &TrueTime,
    ) -> VortexResult<()> {
        let next = self.done.last().map(|d| d.ordinal + 1).unwrap_or(0);
        match self.open_fragment(next, ids, fleet, tt) {
            Err(e @ VortexError::LeaseLost(_)) => {
                // A reconciler fenced the next ordinal with a poison file
                // (§5.6): ownership is gone; relinquish instead of
                // retrying.
                self.finalized = true;
                self.revoked = true;
                Err(VortexError::Unavailable(format!(
                    "streamlet {} relinquished at rotation: {e}",
                    self.spec.streamlet
                )))
            }
            other => other,
        }
    }

    fn record_properties(&mut self, chunk: &[Row], ts: Timestamp) {
        let key_cols = &self.key_cols;
        let Some(cur) = self.current.as_mut() else {
            return;
        };
        for r in chunk {
            for (idx, _, s) in cur.stats.iter_mut() {
                if let Some(v) = r.values.get(*idx) {
                    s.observe(v);
                }
            }
            for k in key_cols {
                if let Some(v) = r.values.get(*k) {
                    cur.bloom_keys.insert(v.encode_key());
                }
            }
        }
        cur.ts_range = Some(match cur.ts_range {
            None => (ts, ts),
            Some((lo, hi)) => (lo.min(ts), hi.max(ts)),
        });
        cur.dirty = true;
    }

    /// Writes one metadata record (commit/flush) with the same error
    /// path data blocks use: a failed replica write closes the fragment
    /// at its pre-record extent and retries once on the next fragment; a
    /// second failure finalizes the streamlet (§5.3). Without this, the
    /// writer's logical offsets would drift ahead of the file and later
    /// committed-size reports would point past real bytes.
    fn write_meta_record(
        &mut self,
        ids: &IdGen,
        fleet: &StorageFleet,
        tt: &TrueTime,
        encode: impl Fn(&mut FragmentWriter, Timestamp) -> VortexResult<Vec<u8>>,
    ) -> VortexResult<()> {
        for attempt in 0..2 {
            let cur = self
                .current
                .as_mut()
                .ok_or(VortexError::StreamletFinalized(self.spec.streamlet))?;
            let pre_size = cur.writer.logical_size();
            let pre_rows = cur.writer.rows_written();
            let rec = encode(&mut cur.writer, tt.record_timestamp())?;
            match self.write_owned(fleet, &rec, Timestamp::MIN) {
                Ok(_) => return Ok(()),
                Err(e @ VortexError::LeaseLost(_)) => {
                    self.finalized = true;
                    self.revoked = true;
                    return Err(VortexError::Unavailable(format!(
                        "streamlet {} relinquished: {e}",
                        self.spec.streamlet
                    )));
                }
                Err(e @ VortexError::SimulatedCrash(_)) => {
                    // Simulated process death: unwind to the boundary.
                    return Err(e);
                }
                Err(e) if attempt == 0 => {
                    let _ = e;
                    self.force_close_current(fleet, tt, pre_size, pre_rows);
                    self.open_fragment_after_failure(ids, fleet, tt)?;
                }
                Err(e) => {
                    self.finalized = true;
                    return Err(VortexError::Unavailable(format!(
                        "streamlet {} finalized after repeated write failures: {e}",
                        self.spec.streamlet
                    )));
                }
            }
        }
        unreachable!("loop returns or errors");
    }

    /// Writes a commit record if the tail is uncommitted and the streamlet
    /// has been idle since `idle_after` (§7.1: "written after a small
    /// period of inactivity").
    pub fn commit_if_idle(
        &mut self,
        now: Timestamp,
        idle_micros: u64,
        ids: &IdGen,
        fleet: &StorageFleet,
        tt: &TrueTime,
    ) -> VortexResult<bool> {
        if !self.uncommitted_tail || self.finalized || self.revoked {
            return Ok(false);
        }
        if now.micros().saturating_sub(self.last_append_at.micros()) < idle_micros {
            return Ok(false);
        }
        if self.current.is_none() {
            return Ok(false);
        }
        self.write_meta_record(ids, fleet, tt, |w, ts| w.commit_record(ts))?;
        self.uncommitted_tail = false;
        Ok(true)
    }

    /// Persists a `FlushStream` watermark (streamlet-relative rows) as a
    /// flush record in the log (§5.4.4).
    pub fn flush(
        &mut self,
        flush_row: u64,
        ids: &IdGen,
        fleet: &StorageFleet,
        tt: &TrueTime,
    ) -> VortexResult<()> {
        if self.revoked {
            return Err(VortexError::StreamletFinalized(self.spec.streamlet));
        }
        if flush_row > self.rows_acked {
            return Err(VortexError::InvalidArgument(format!(
                "flush row {flush_row} exceeds streamlet length {}",
                self.rows_acked
            )));
        }
        if self.current.is_none() {
            return Err(VortexError::StreamletFinalized(self.spec.streamlet));
        }
        self.write_meta_record(ids, fleet, tt, |w, ts| w.flush_record(flush_row, ts))?;
        self.uncommitted_tail = false;
        self.max_flush_row = Some(self.max_flush_row.unwrap_or(0).max(flush_row));
        self.flush_dirty = true;
        Ok(())
    }

    /// Finalizes the streamlet: seals the current fragment with bloom +
    /// footer; no further appends are accepted.
    pub fn finalize(&mut self, fleet: &StorageFleet, tt: &TrueTime) -> VortexResult<()> {
        if self.finalized {
            return Ok(());
        }
        if let Some(cur) = self.current.take() {
            let done = self.seal_fragment(cur, true, fleet, tt);
            self.done.push(done);
        }
        self.finalized = true;
        self.rows_dirty = true;
        Ok(())
    }

    /// Marks the streamlet revoked (SMS reconciliation took ownership).
    pub fn revoke(&mut self) {
        self.revoked = true;
    }

    /// Whether the streamlet still accepts appends.
    pub fn is_writable(&self) -> bool {
        !self.finalized && !self.revoked
    }

    /// Committed streamlet-relative row count.
    pub fn rows(&self) -> u64 {
        self.rows_acked
    }

    /// Completed fragments (metadata view).
    pub fn done_fragments(&self) -> &[DoneFragment] {
        &self.done
    }

    /// Builds this streamlet's heartbeat delta. With `full`, reports all
    /// fragments; otherwise only dirty ones. Clears dirty flags.
    pub fn heartbeat_delta(&mut self, full: bool) -> Option<StreamletDelta> {
        let mut fragments = Vec::new();
        for d in self.done.iter_mut() {
            if full || d.dirty {
                fragments.push(FragmentDelta {
                    fragment: d.fragment,
                    ordinal: d.ordinal,
                    first_row: d.first_row,
                    row_count: d.row_count,
                    committed_size: d.committed_size,
                    finalized: true,
                    stats: d.stats.clone(),
                    ts_range: d.ts_range,
                });
                d.dirty = false;
            }
        }
        if let Some(cur) = self.current.as_mut() {
            if full || cur.dirty {
                fragments.push(FragmentDelta {
                    fragment: cur.fragment,
                    ordinal: cur.ordinal,
                    first_row: cur.writer.first_row(),
                    row_count: cur.writer.rows_written(),
                    committed_size: cur.writer.logical_size(),
                    finalized: false,
                    stats: cur
                        .stats
                        .iter()
                        .map(|(_, n, s)| (n.clone(), s.clone()))
                        .collect(),
                    ts_range: cur.ts_range,
                });
                cur.dirty = false;
            }
        }
        let rows_changed = std::mem::take(&mut self.rows_dirty);
        let flush_changed = std::mem::take(&mut self.flush_dirty);
        if fragments.is_empty() && !rows_changed && !flush_changed && !full {
            return None;
        }
        Some(StreamletDelta {
            table: self.spec.table,
            streamlet: self.spec.streamlet,
            fragments,
            row_count: self.rows_acked,
            max_flush_row: self.max_flush_row,
            finalized: self.finalized,
        })
    }
}
