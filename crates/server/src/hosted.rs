//! Per-streamlet write state: the heart of the data plane.
//!
//! A [`HostedStreamlet`] owns the current fragment's [`FragmentWriter`],
//! accumulates column properties and bloom keys, and lands every byte it
//! writes — headers, data groups, commit and flush records, footers —
//! through one dual-cluster write with the sole-writer check
//! (`CurrentFragment::write`) and one rule for its failures
//! (`HostedStreamlet::land`): failed replica write → close fragment →
//! retry on the next fragment → on repeated failure, finalize the
//! streamlet; foreign bytes relinquish it (§5.3, §5.6).

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use vortex_colossus::StorageFleet;
use vortex_common::bloom::BloomFilter;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{ClusterId, FragmentId, IdGen, StreamletId};
use vortex_common::mailbox::ReplySlot;
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

/// Idle period after which a lone commit record is written (§7.1: "after
/// a small period of inactivity"): 100 ms of virtual time. A writer that
/// appends more often than that gets its tail committed by its next data
/// block instead, at no extra write.
pub(crate) const COMMIT_IDLE_MICROS: u64 = 100_000;

/// What a streamlet borrows from the shard that owns it in order to
/// write.
pub struct ShardEnv {
    /// The server's configuration (block and fragment sizes, home cluster).
    pub cfg: ServerConfig,
    /// The replica clusters.
    pub fleet: StorageFleet,
    /// Record timestamps.
    pub tt: TrueTime,
    /// Fragment ids.
    pub ids: Arc<IdGen>,
}

/// State of one fragment currently being written.
struct CurrentFragment {
    writer: FragmentWriter,
    fragment: FragmentId,
    ordinal: u32,
    path: String,
    clusters: [ClusterId; 2],
    stats: Vec<(usize, String, ColumnStats)>,
    /// Distinct key values as their [`BloomFilter::hashes`], which is all
    /// the filter built at close depends on.
    bloom_keys: HashSet<(u64, u64), BuildHasherDefault<PairHasher>>,
    /// Where each key value is encoded to be hashed.
    key: Vec<u8>,
    dirty: bool,
    /// The length both replica files have, by the sole-writer rule: the
    /// fragment's acked extent. A fresh fragment starts at 0.
    len: u64,
}

impl CurrentFragment {
    /// The one dual write (§5.6): appends `bytes` to the log file in both
    /// replica clusters, then holds both to the sole-writer rule — each
    /// file must have grown from `len` by exactly our bytes, otherwise a
    /// foreign record (a reconciler's sentinel) got in and ownership is
    /// gone (`LeaseLost`). A header therefore expects empty files. Returns
    /// (service µs, completion).
    fn write(
        &mut self,
        fleet: &StorageFleet,
        replica_write_us: &Histogram,
        bytes: &[u8],
        start: Timestamp,
    ) -> VortexResult<(u64, Timestamp)> {
        let want = self.len + bytes.len() as u64;
        let (mut service, mut completion, mut lens) = (0u64, Timestamp::MIN, [0u64; 2]);
        for (i, c) in self.clusters.into_iter().enumerate() {
            if i == 1 {
                // One replica now has the bytes and the other does not —
                // the §5.6 worst-case instruction for a process death;
                // reconciliation must converge on the common prefix.
                vortex_common::crash_point!("server.replica.mid_write");
            }
            let out = fleet.get(c)?.append(&self.path, bytes, start)?;
            // The two replica writes run in parallel in production; the
            // ack waits on the slower, which is what the clock records.
            service = service.max(out.service_us);
            completion = completion.max(out.completion);
            lens[i] = out.new_len;
        }
        replica_write_us.record(service);
        if lens != [want; 2] {
            return Err(VortexError::LeaseLost(format!(
                "foreign bytes in {}: expected length {want}, observed {lens:?}",
                self.path
            )));
        }
        self.len = want;
        Ok((service, completion))
    }
}

/// Hashes the bloom-key pairs, which are hashes already: one folded
/// multiply per word. What a set of them builds does not depend on it.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u64(&mut self, word: u64) {
        let wide = u128::from(self.0 ^ word) * 0x9E37_79B9_7F4A_7C15;
        self.0 = wide as u64 ^ (wide >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
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
    /// The fragments this streamlet finished writing, as a heartbeat
    /// reports them.
    done: Vec<FragmentDelta>,
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
    /// How many entries of `done` a heartbeat has reported.
    heartbeat_seals: usize,
    m: AppendMetrics,
}

/// One append routed to a shard and landed by its group commit: the
/// caller's rows — shared, never copied — plus the per-append protocol
/// fields of §4.2.2/§5.4.1 and the slot its ack goes to.
pub(crate) struct AppendReq {
    pub streamlet: StreamletId,
    pub rows: Arc<RowSet>,
    /// The writer's declared schema version (§5.4.1 schema relay).
    pub declared_schema_version: u32,
    /// The §4.2.2 offset-idempotency token, when the writer sent one.
    pub expected_stream_offset: Option<u64>,
    /// Virtual send time; ack latency is measured from here.
    pub start: Timestamp,
    /// The rows' summed [`Row::approx_bytes`], as admission counted them.
    pub bytes: u64,
    pub reply: Arc<ReplySlot<VortexResult<AppendAck>>>,
}

/// A staged encoded block: `entry`'s rows `[lo, hi)`, encoded at `ts`,
/// sitting in the group arena awaiting the next landing.
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
    pub fn open(spec: StreamletSpec, env: &ShardEnv) -> VortexResult<Self> {
        let tracked_cols = spec.schema.tracked_columns();
        let key_cols = spec.schema.bloom_key_columns();
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
            heartbeat_seals: 0,
            m: AppendMetrics::intern(),
        };
        sl.open_fragment(env)?;
        Ok(sl)
    }

    /// Opens the fragment after the last one done, with a File Map
    /// covering every previous fragment; its header must land on empty
    /// files (a previous incarnation or a zombie owning the path is
    /// foreign bytes).
    fn open_fragment(&mut self, env: &ShardEnv) -> VortexResult<()> {
        let ordinal = self.done.last().map_or(0, |d| d.ordinal + 1);
        let fragment = env.ids.next_fragment();
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
            FragmentWriter::new(cfg, self.rows_acked, file_map, env.tt.record_timestamp());
        let mut cur = CurrentFragment {
            writer,
            fragment,
            ordinal,
            path: wos_path(self.spec.table, self.spec.streamlet, ordinal),
            clusters: self.spec.clusters,
            stats: self
                .tracked_cols
                .iter()
                .map(|(i, n)| (*i, n.clone(), ColumnStats::new()))
                .collect(),
            bloom_keys: HashSet::default(),
            key: Vec::new(),
            dirty: true,
            len: 0,
        };
        let m = &self.m.replica_write_us;
        cur.write(&env.fleet, m, &header, Timestamp::MIN)?;
        self.current = Some(cur);
        Ok(())
    }

    /// Closes the current fragment into `done`. With `footer`, bloom +
    /// footer are written best-effort: a failed or poisoned footer write
    /// leaves the committed size where it was. Without one (a replica is
    /// failing) the fragment ends at its acked extent, which the next
    /// fragment's File Map records (§5.6).
    fn close_current(&mut self, env: &ShardEnv, footer: bool) {
        let Some(mut cur) = self.current.take() else {
            return;
        };
        if footer {
            let mut bloom = BloomFilter::with_capacity(cur.bloom_keys.len().max(16), 0.01);
            for &pair in &cur.bloom_keys {
                bloom.insert_hashes(pair);
            }
            if let Ok(chunk) = cur.writer.finalize(&bloom, env.tt.record_timestamp()) {
                let m = &self.m.replica_write_us;
                if cur.write(&env.fleet, m, &chunk, Timestamp::MIN).is_ok() {
                    self.uncommitted_tail = false;
                }
            }
        }
        self.done.push(FragmentDelta {
            fragment: cur.fragment,
            ordinal: cur.ordinal,
            first_row: cur.writer.first_row(),
            row_count: self.rows_acked - cur.writer.first_row(),
            committed_size: cur.len,
            finalized: true,
            stats: cur.stats.drain(..).map(|(_, n, s)| (n, s)).collect(),
        });
    }

    /// Rotates at max size: seals the current fragment with bloom +
    /// footer and opens the next. Failing to open it finalizes the
    /// streamlet, like any write the rule gives up on.
    fn rotate(&mut self, env: &ShardEnv) -> VortexResult<()> {
        self.close_current(env, true);
        self.open_fragment(env).map_err(|e| self.fail(e))
    }

    /// The §5.3 write rule — the one way a record reaches the log. Lands
    /// `bytes` (already encoded for the current fragment; when empty,
    /// `encode` makes them) with one dual write. A failure is sorted into
    /// one of four outcomes: a simulated crash unwinds untouched, foreign
    /// bytes relinquish the streamlet, and a first failure — the write may
    /// be torn in one replica — closes the fragment at its acked extent,
    /// opens the next one, re-`encode`s there and retries once; a second
    /// failure, or failing to open the next fragment, finalizes the
    /// streamlet ([`Self::fail`]). Returns the write's (service µs,
    /// completion).
    fn land(
        &mut self,
        env: &ShardEnv,
        bytes: &mut Vec<u8>,
        start: Timestamp,
        encode: impl Fn(&mut FragmentWriter) -> VortexResult<Vec<u8>>,
    ) -> VortexResult<(u64, Timestamp)> {
        let mut retried = false;
        loop {
            let cur = self
                .current
                .as_mut()
                .ok_or(VortexError::StreamletFinalized(self.spec.streamlet))?;
            if bytes.is_empty() {
                *bytes = encode(&mut cur.writer)?;
            }
            let e = match cur.write(&env.fleet, &self.m.replica_write_us, bytes, start) {
                Ok(landed) => return Ok(landed),
                Err(e) => e,
            };
            let terminal = matches!(
                e,
                VortexError::SimulatedCrash(_) | VortexError::LeaseLost(_)
            );
            if retried || terminal {
                return Err(self.fail(e));
            }
            retried = true;
            self.close_current(env, false);
            self.open_fragment(env).map_err(|e| self.fail(e))?;
            bytes.clear();
        }
    }

    /// Where the write rule ends. A simulated crash unwinds to the service
    /// boundary untouched: this server is dead at that instruction. Foreign
    /// bytes mean a reconciler poisoned the log (§5.6): the streamlet is
    /// relinquished, never retried — the SMS owns its fate now. Anything
    /// else finalizes it, and the client reconciles with the SMS and
    /// writes elsewhere (§5.3). Both surface as a retryable `Unavailable`.
    fn fail(&mut self, e: VortexError) -> VortexError {
        let outcome = match e {
            VortexError::SimulatedCrash(_) => return e,
            VortexError::LeaseLost(_) => {
                self.revoked = true;
                "relinquished"
            }
            _ => "finalized after repeated write failures",
        };
        self.finalized = true;
        VortexError::Unavailable(format!("streamlet {} {outcome}: {e}", self.spec.streamlet))
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
    /// already landed keep their acks — the shard layer decides whether
    /// a simulated crash widens to the whole group.
    pub(crate) fn append_group(
        &mut self,
        entries: &[AppendReq],
        latest_version: u32,
        env: &ShardEnv,
        scratch: &mut GroupScratch,
        results: &mut Vec<VortexResult<AppendAck>>,
    ) {
        scratch.staged.clear();
        scratch.chunks.clear();
        scratch.acc.clear();
        scratch.acc.resize_with(entries.len(), EntryAcc::default);
        // Virtual write start chains across landings the way the old
        // per-chunk path chained completions.
        let mut write_start: Option<Timestamp> = None;
        // The next entry to stage, and its first row not yet staged.
        let (mut i, mut lo) = (0usize, 0usize);
        // Terminal error: everything not yet durable fails with (a clone
        // of) this.
        let mut dead: Option<VortexError> = None;
        while dead.is_none() {
            // Stage blocks until the fragment is full or the entries run out.
            let mut full = false;
            while i < entries.len() && !full {
                let (entry, acc) = (&entries[i], &mut scratch.acc[i]);
                if lo == 0 {
                    match self.check(entry, latest_version) {
                        Ok(offset) => acc.first_stream_row = offset,
                        Err(e) => {
                            acc.failed = Some(e);
                            i += 1;
                            continue;
                        }
                    }
                    acc.total_rows = entry.rows.len() as u64;
                    acc.completion = entry.start;
                    write_start.get_or_insert(entry.start);
                }
                // Chunk into ≤ block_buffer_bytes blocks (§5.4.4), each an
                // index range over the caller's rows — the hot path borrows
                // slices instead of cloning rows into scratch RowSets. An
                // entry that fits one block is that block: the per-row walk
                // below would cut it in the same place.
                let all = &entry.rows.rows[..];
                let fits = lo == 0 && entry.bytes <= env.cfg.block_buffer_bytes as u64;
                let (mut hi, mut bytes) = (if fits { all.len() } else { lo }, 0usize);
                while hi < all.len() {
                    let rb = all[hi].approx_bytes();
                    if hi > lo && bytes + rb > env.cfg.block_buffer_bytes {
                        break;
                    }
                    bytes += rb;
                    hi += 1;
                }
                let ts = env.tt.record_timestamp();
                let block = match self.current.as_mut() {
                    Some(cur) => cur.writer.data_block(&all[lo..hi], ts),
                    None => Err(VortexError::StreamletFinalized(self.spec.streamlet)),
                };
                match block {
                    Ok(block) => scratch.staged.extend_from_slice(&block), // lint:allow(L010, group arena reuse)
                    Err(e) => {
                        acc.failed = Some(e);
                        (i, lo) = (i + 1, 0);
                        continue;
                    }
                }
                // lint:allow(L010, chunk-index arena reuse)
                scratch.chunks.push(StagedChunk {
                    entry: i,
                    lo,
                    hi,
                    ts,
                });
                (i, lo) = if hi == all.len() { (i + 1, 0) } else { (i, hi) };
                // At max size the fragment rotates, after the staged
                // blocks land so that the sealed fragment carries them.
                full = self
                    .current
                    .as_ref()
                    .is_some_and(|c| c.writer.logical_size() >= env.cfg.fragment_max_bytes);
            }
            if !scratch.chunks.is_empty() {
                let ws = write_start.unwrap_or(Timestamp::MIN);
                match self.land_staged(env, entries, scratch, ws) {
                    Ok(done_at) => write_start = Some(done_at),
                    Err(e) => dead = Some(e),
                }
            }
            if !full {
                break;
            }
            if dead.is_none() {
                dead = self.rotate(env).err();
            }
        }

        // Resolve per-entry results, in order, and record metrics for the
        // entries that fully landed.
        let mut group_rows = 0u64;
        for (entry, a) in entries.iter().zip(scratch.acc.iter_mut()) {
            if let Some(e) = a.failed.take() {
                results.push(Err(e)); // lint:allow(L010, results arena reuse)
                continue;
            }
            if a.total_rows == 0 || a.flushed_rows != a.total_rows {
                // A terminal error stopped the group before this entry's
                // rows became durable, or before it was reached.
                let e = dead
                    .clone() // lint:allow(L010, cold terminal-error path)
                    .unwrap_or(VortexError::StreamletFinalized(self.spec.streamlet));
                results.push(Err(e)); // lint:allow(L010, results arena reuse)
                continue;
            }
            group_rows += a.total_rows;
            self.m.service_us.record(a.service_us);
            obs::Span::begin(&self.m.span, entry.start).end(a.completion);
            // lint:allow(L010, results arena reuse)
            results.push(Ok(AppendAck {
                first_stream_row: a.first_stream_row,
                row_count: a.total_rows,
                completion: a.completion,
            }));
        }
        if group_rows > 0 {
            self.m.rows.add(group_rows);
        }
    }

    /// Whether `entry` may be staged, as if every earlier entry of the
    /// group had landed; returns its first stream row.
    fn check(&self, entry: &AppendReq, latest_version: u32) -> VortexResult<u64> {
        let cur = match &self.current {
            Some(cur) if self.is_writable() => cur,
            _ => return Err(VortexError::StreamletFinalized(self.spec.streamlet)),
        };
        if entry.rows.is_empty() {
            return Err(VortexError::InvalidArgument("empty append".into()));
        }
        if entry.declared_schema_version < latest_version {
            return Err(VortexError::SchemaVersionMismatch {
                table: self.spec.table,
                writer_version: entry.declared_schema_version,
                current_version: latest_version,
            });
        }
        // The writer's next row counts staged blocks: earlier group
        // entries count as landed for idempotency purposes.
        let next_offset = self.spec.first_stream_row + cur.writer.next_row();
        if let Some(expected) = entry.expected_stream_offset {
            if expected != next_offset {
                return Err(VortexError::OffsetMismatch {
                    stream: self.spec.stream,
                    provided: expected,
                    expected: next_offset,
                });
            }
        }
        // Row validation against the schema the server holds (when the
        // writer speaks the same version).
        if entry.declared_schema_version == self.spec.schema.version {
            for r in &entry.rows.rows {
                self.spec.schema.validate_row(r)?;
            }
        }
        Ok(next_offset)
    }

    /// Lands the staged blocks through the write rule — re-encoded on the
    /// next fragment if the first write fails — and credits each entry
    /// with its rows. Returns the write's completion.
    fn land_staged(
        &mut self,
        env: &ShardEnv,
        entries: &[AppendReq],
        scratch: &mut GroupScratch,
        start: Timestamp,
    ) -> VortexResult<Timestamp> {
        let GroupScratch {
            staged,
            chunks,
            acc,
        } = scratch;
        let rows = |c: &StagedChunk| &entries[c.entry].rows.rows[c.lo..c.hi];
        let (service, done_at) = self.land(env, staged, start, |w| {
            let blocks = chunks.iter().map(|c| w.data_block(rows(c), c.ts));
            // lint:allow(L010, cold retry path: the group re-encoded on the next fragment)
            Ok(blocks.collect::<VortexResult<Vec<_>>>()?.concat())
        })?;
        self.m.chunks.add(chunks.len() as u64);
        let mut last_entry = usize::MAX;
        for c in chunks.drain(..) {
            let n = (c.hi - c.lo) as u64;
            self.rows_acked += n;
            self.last_append_at = c.ts;
            self.record_properties(rows(&c));
            let a = &mut acc[c.entry];
            a.flushed_rows += n;
            a.completion = done_at;
            // The group's single write is charged once per participating
            // entry's ack (each waited on it).
            if c.entry != last_entry {
                a.service_us += service;
                last_entry = c.entry;
            }
        }
        self.rows_dirty = true;
        self.uncommitted_tail = true;
        staged.clear();
        Ok(done_at)
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

    fn record_properties(&mut self, chunk: &[Row]) {
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
                    cur.key.clear();
                    v.encode_key_into(&mut cur.key);
                    cur.bloom_keys.insert(BloomFilter::hashes(&cur.key));
                }
            }
        }
        cur.dirty = true;
    }

    /// Writes a commit record if the tail is uncommitted and the streamlet
    /// has been idle for `COMMIT_IDLE_MICROS` at `now` (§7.1: "written
    /// after a small period of inactivity").
    pub fn commit_if_idle(&mut self, now: Timestamp, env: &ShardEnv) -> VortexResult<bool> {
        let idle = now.micros().saturating_sub(self.last_append_at.micros());
        if !self.uncommitted_tail || !self.is_writable() || idle < COMMIT_IDLE_MICROS {
            return Ok(false);
        }
        let commit = |w: &mut FragmentWriter| w.commit_record(env.tt.record_timestamp());
        // lint:allow(L010, an empty Vec allocates nothing; `land` encodes into it)
        self.land(env, &mut Vec::new(), Timestamp::MIN, commit)?;
        self.uncommitted_tail = false;
        Ok(true)
    }

    /// Persists a `FlushStream` watermark (streamlet-relative rows) as a
    /// flush record in the log (§5.4.4).
    pub fn flush(&mut self, flush_row: u64, env: &ShardEnv) -> VortexResult<()> {
        if self.revoked {
            return Err(VortexError::StreamletFinalized(self.spec.streamlet));
        }
        if flush_row > self.rows_acked {
            return Err(VortexError::InvalidArgument(format!(
                "flush row {flush_row} exceeds streamlet length {}",
                self.rows_acked
            )));
        }
        let record = |w: &mut FragmentWriter| w.flush_record(flush_row, env.tt.record_timestamp());
        // lint:allow(L010, an empty Vec allocates nothing; `land` encodes into it)
        self.land(env, &mut Vec::new(), Timestamp::MIN, record)?;
        self.uncommitted_tail = false;
        self.max_flush_row = Some(self.max_flush_row.unwrap_or(0).max(flush_row));
        self.flush_dirty = true;
        Ok(())
    }

    /// Finalizes the streamlet: seals the current fragment with bloom +
    /// footer; no further appends are accepted.
    pub fn finalize(&mut self, env: &ShardEnv) -> VortexResult<()> {
        if self.finalized {
            return Ok(());
        }
        self.close_current(env, true);
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

    /// Whether the streamlet has written anything: rows, or a fragment
    /// it finished.
    pub(crate) fn has_written(&self) -> bool {
        self.rows_acked > 0 || !self.done.is_empty()
    }

    /// Committed streamlet-relative row count.
    pub fn rows(&self) -> u64 {
        self.rows_acked
    }

    /// Completed fragments (metadata view).
    pub fn done_fragments(&self) -> &[FragmentDelta] {
        &self.done
    }

    /// Builds this streamlet's heartbeat delta. With `full`, reports all
    /// fragments; otherwise only those not reported yet, and the current
    /// one if it changed. Clears the dirty marks.
    pub fn heartbeat_delta(&mut self, full: bool) -> Option<StreamletDelta> {
        let unsent = if full { 0 } else { self.heartbeat_seals };
        let mut fragments = self.done[unsent..].to_vec();
        self.heartbeat_seals = self.done.len();
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

#[cfg(test)]
mod tests {
    use vortex_common::crypt::Key;
    use vortex_common::ids::{ServerId, StreamId, StreamletId, TableId};
    use vortex_common::latency::WriteProfile;
    use vortex_common::truetime::SimClock;

    use super::*;
    use crate::tests::{rows, schema};

    /// A max-size rotation whose next fragment cannot be opened — the
    /// footer (best-effort) and the header both fail on one replica —
    /// finalizes the streamlet like any write the rule gives up on: it no
    /// longer counts as writable and the next append gets a retryable
    /// error. No fault schedule fails only those two writes behind a
    /// group's data write, so this drives `rotate` directly.
    #[test]
    fn failed_open_at_rotation_finalizes_streamlet() {
        let mut cfg = ServerConfig::new(ServerId::from_raw(1), ClusterId::from_raw(0));
        cfg.fragment_max_bytes = 1_000;
        let env = ShardEnv {
            cfg,
            fleet: StorageFleet::with_mem_clusters(2, WriteProfile::instant(), 5),
            tt: TrueTime::simulated(SimClock::new(1_000_000), 100, 0),
            ids: Arc::new(IdGen::new(1)),
        };
        let spec = StreamletSpec {
            table: TableId::from_raw(1),
            stream: StreamId::from_raw(2),
            streamlet: StreamletId::from_raw(3),
            clusters: [ClusterId::from_raw(0), ClusterId::from_raw(1)],
            schema: schema(),
            first_stream_row: 0,
            key: Key::derive_from_passphrase("tbl"),
        };
        let mut sl = HostedStreamlet::open(spec, &env).unwrap();
        let mut scratch = GroupScratch::new();
        let mut append = |sl: &mut HostedStreamlet, rows: &RowSet| {
            let entry = AppendReq {
                streamlet: sl.spec.streamlet,
                rows: Arc::new(rows.clone()),
                declared_schema_version: 1,
                expected_stream_offset: None,
                start: Timestamp::MIN,
                bytes: rows.approx_bytes() as u64,
                reply: ReplySlot::for_caller(),
            };
            let mut results = vec![];
            sl.append_group(&[entry], 1, &env, &mut scratch, &mut results);
            results.pop().unwrap()
        };
        append(&mut sl, &rows(0, 5)).unwrap();
        let acked = sl.current.as_ref().unwrap().len;

        let c1 = env.fleet.get(ClusterId::from_raw(1)).unwrap();
        c1.faults().fail_next_appends(2);
        let err = sl.rotate(&env).unwrap_err();
        assert!(err.is_retryable(), "{err}");
        assert!(
            !sl.is_writable(),
            "a streamlet with no fragment is not counted"
        );
        let sealed = &sl.done_fragments()[0];
        assert_eq!(
            sealed.committed_size, acked,
            "the failed footer is not counted"
        );
        assert_eq!(sealed.row_count, 5);
        let err = append(&mut sl, &rows(5, 1)).unwrap_err();
        assert!(err.is_retryable(), "{err}");
        assert_eq!(sl.rows(), 5);
    }
}
