//! The Stream Metadata Server task: Vortex's control plane (§5.2).
//!
//! Every mutation is a serializable transaction against the Spanner-lite
//! metastore, which is what keeps the system correct when Slicer briefly
//! assigns a table to two tasks at once (§5.2.1) — the loser of any
//! conflicting commit simply retries against fresh state.

use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use vortex_colossus::StorageFleet;
use vortex_common::crypt::Key;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{
    ClusterId, FragmentId, IdGen, ServerId, SmsTaskId, StreamId, StreamletId, TableId,
};
use vortex_common::mask::DeletionMask;
use vortex_common::obs::{self, Counter};
use vortex_common::schema::Schema;
use vortex_common::stats::ColumnStats;
use vortex_common::truetime::{Timestamp, TrueTime};
use vortex_metastore::{MetaStore, Txn};
use vortex_ros::{add_rowset, zone_map};
use vortex_wos::{common_prefix, FragmentIndex, FragmentWriter};

use crate::api::SmsApi;
use crate::heartbeat::{FragmentDelta, HeartbeatResponse, StreamletDelta};
use crate::meta::{
    self, wos_path, wos_streamlet_prefix, FragmentKind, FragmentMeta, FragmentState, Record,
    StreamMeta, StreamType, StreamletMeta, StreamletState, TableMeta,
};
use crate::readset::{FragmentReadSpec, ReadSet, RowVisibility, TailReadSpec};
use crate::server_ctl::{ServerHandle, StreamletSpec};
use crate::slicer::SlicerView;

/// Static configuration of one SMS task.
#[derive(Debug, Clone)]
pub struct SmsConfig {
    /// This task's id.
    pub task: SmsTaskId,
    /// Cluster the task runs in.
    pub cluster: ClusterId,
    /// Grace period before logically-deleted fragments are physically
    /// GC'd ("kept sufficiently long to ensure that any active queries
    /// that are reading from them do not fail", §5.4.3).
    pub gc_grace_micros: u64,
}

/// How often an SMS transaction is retried on a commit conflict.
const TXN_RETRIES: usize = 64;

impl SmsConfig {
    /// Defaults for tests and examples.
    pub fn new(task: SmsTaskId, cluster: ClusterId) -> Self {
        SmsConfig {
            task,
            cluster,
            gc_grace_micros: 10_000_000, // 10 virtual seconds
        }
    }
}

/// A writable stream handle returned to clients: stream + its writable
/// streamlet + the server hosting it (§5.2: "the SMS then responds to the
/// client request with the Streamlet id and the address of the Stream
/// Server").
#[derive(Clone)]
pub struct StreamHandle {
    /// Owning table.
    pub table: TableId,
    /// Stream metadata.
    pub stream: StreamMeta,
    /// The writable streamlet.
    pub streamlet: StreamletMeta,
    /// Schema at handout time (carries the version).
    pub schema: Schema,
    /// The Stream Server hosting the streamlet.
    pub server: ServerHandle,
}

impl std::fmt::Debug for StreamHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamHandle")
            .field("table", &self.table)
            .field("stream", &self.stream.stream)
            .field("streamlet", &self.streamlet.streamlet)
            .field("server", &self.server.server_id())
            .finish()
    }
}

/// A claim ticket for one running DML statement (§7.3). Minted by
/// [`SmsApi::begin_dml`] and surrendered to [`SmsApi::end_dml`]; the
/// token keys the statement's metastore marker, which makes both calls
/// idempotent per statement (safe to re-execute after an ambiguous ack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmlTicket(pub u64);

/// One Stream Metadata Server task. Its operations are the [`SmsApi`]
/// implementation below; what is inherent here is construction and the
/// two-step DML begin the channel wrapper needs.
pub struct SmsTask {
    cfg: SmsConfig,
    store: Arc<MetaStore>,
    fleet: StorageFleet,
    tt: TrueTime,
    ids: Arc<IdGen>,
    servers: RwLock<HashMap<ServerId, ServerHandle>>,
    view: Option<SlicerView>,
    /// Per table, its last listing: served again while [`Listing::serves`].
    listings: Mutex<HashMap<TableId, Listing>>,
    /// `sms.list_read_fragments`, `sms.list_read_fragments.shared` and
    /// `sms.reconcile_streamlet`, interned at construction.
    m: [Arc<Counter>; 3],
}

/// A table's read set at a snapshot, with the metastore's last commit
/// and prune generation as read before it was listed.
struct Listing {
    listed: (Timestamp, Arc<ReadSet>),
    marks: (Timestamp, u64),
}

impl Listing {
    /// Whether a listing at `at` under `marks` (read now) would equal
    /// this one: no version was pruned, and no commit can have landed at
    /// or below the snapshot since — commits are serialized and rise, so
    /// one after the recorded last commit lands above it.
    fn serves(&self, at: Timestamp, (now, prunes): (Timestamp, u64)) -> bool {
        let (then, pruned) = self.marks;
        self.listed.0 == at && pruned == prunes && (at <= then || now == then)
    }
}

/// Applies one heartbeat delta to a streamlet that is not finalized,
/// putting only the records it changes.
fn apply_delta(txn: &mut Txn, mut sl: StreamletMeta, delta: &StreamletDelta) -> VortexResult<()> {
    for f in &delta.fragments {
        let known = meta::optional(meta::load_in::<FragmentMeta>(txn, (sl.table, f.fragment)))?;
        let mut fmeta = known
            .clone()
            .unwrap_or_else(|| FragmentMeta::new_wos(f.fragment, &sl, f.ordinal, f.first_row));
        if fmeta.state == FragmentState::Deleted {
            continue; // already converted; ignore stale delta
        }
        fmeta.row_count = fmeta.row_count.max(f.row_count);
        fmeta.committed_size = fmeta.committed_size.max(f.committed_size);
        // An open fragment is read as the tail, so its stats are the
        // sealed ones, recorded once.
        if f.finalized && fmeta.state == FragmentState::Active {
            fmeta.stats = f.stats.clone();
            fmeta.finalize(&sl.masks);
        }
        if known.as_ref() != Some(&fmeta) {
            meta::put(txn, &fmeta);
        }
    }
    let was = sl.clone();
    sl.row_count = sl.row_count.max(delta.row_count);
    if delta.finalized {
        sl.state = StreamletState::Closed;
    }
    if sl != was {
        meta::put(txn, &sl);
    }
    // Flush watermark recovery from flush records.
    if let Some(fr) = delta.max_flush_row {
        let stream = meta::load_in::<StreamMeta>(txn, (sl.table, sl.stream));
        if let Some(mut sm) = meta::optional(stream)? {
            let stream_level = sl.first_stream_row + fr;
            if stream_level > sm.flushed_row {
                sm.flushed_row = stream_level;
                meta::put(txn, &sm);
            }
        }
    }
    Ok(())
}

impl SmsTask {
    /// Creates a task over shared infrastructure. `view` is the task's
    /// Slicer assignment view; `None` means "owns everything" (single-task
    /// deployments and tests).
    pub fn new(
        cfg: SmsConfig,
        store: Arc<MetaStore>,
        fleet: StorageFleet,
        tt: TrueTime,
        ids: Arc<IdGen>,
        view: Option<SlicerView>,
    ) -> Arc<Self> {
        Arc::new(Self {
            cfg,
            store,
            fleet,
            tt,
            ids,
            servers: RwLock::new(HashMap::new()),
            view,
            listings: Mutex::default(),
            m: [
                "sms.list_read_fragments",
                "sms.list_read_fragments.shared",
                "sms.reconcile_streamlet",
            ]
            .map(|name| obs::global().counter(name)),
        })
    }

    /// This task's static configuration (used to rebuild a replacement
    /// task after a simulated process death).
    pub fn config(&self) -> &SmsConfig {
        &self.cfg
    }

    /// Mints a token for [`SmsTask::begin_dml_with`]. Channel wrappers
    /// call this *outside* their retry loop so every retry of the begin
    /// writes the same marker key.
    pub fn mint_dml_token(&self) -> u64 {
        self.ids.next_raw()
    }

    /// Marks the start of a DML statement under a pre-minted token.
    /// Idempotent for a fixed token: re-execution rewrites the same key,
    /// so an ambiguous ack cannot leak a second marker.
    pub fn begin_dml_with(&self, table: TableId, token: u64) -> VortexResult<DmlTicket> {
        self.txn(|txn| {
            txn.put(&meta::dml_lock_token_key(table, token), vec![1]);
            Ok(())
        })?;
        Ok(DmlTicket(token))
    }

    /// Runs `f` as one metastore transaction, retried on conflict.
    fn txn<T>(&self, f: impl FnMut(&mut Txn) -> VortexResult<T>) -> VortexResult<T> {
        self.store.with_txn(TXN_RETRIES, f)
    }

    fn check_owns(&self, table: TableId) -> VortexResult<()> {
        if let Some(v) = &self.view {
            if !v.owns(table) {
                return Err(VortexError::Unavailable(format!(
                    "table {table} not assigned to SMS task {}",
                    self.cfg.task
                )));
            }
        }
        Ok(())
    }

    /// Registers a table, managed (`bucket == None`) or BigLake-managed,
    /// in one transaction: the name is never bound to a half-made table.
    fn create_table_in(
        &self,
        name: &str,
        schema: Schema,
        bucket: Option<&str>,
    ) -> VortexResult<TableMeta> {
        let clusters = self.fleet.cluster_ids();
        if clusters.len() < 2 {
            return Err(VortexError::InvalidArgument(
                "a region needs at least 2 clusters".into(),
            ));
        }
        let table = self.ids.next_table();
        let tmeta = TableMeta {
            table,
            name: name.to_string(),
            schema,
            primary: clusters[(table.raw() as usize) % clusters.len()],
            secondary: clusters[(table.raw() as usize + 1) % clusters.len()],
            key_ref: format!("table-key-{}", table.raw()),
            external_bucket: bucket.map(str::to_string),
        };
        let name_key = meta::name_key(name);
        self.txn(|txn| {
            if txn.get(&name_key).is_some() {
                return Err(VortexError::AlreadyExists(format!("table name {name}")));
            }
            txn.put(&name_key, table.raw().to_le_bytes().to_vec());
            meta::put(txn, &tmeta);
            Ok(())
        })?;
        Ok(tmeta)
    }

    fn pick_server(&self, primary: ClusterId) -> VortexResult<ServerHandle> {
        let servers = self.servers.read();
        let best = servers
            .values()
            .filter(|s| s.cluster() == primary)
            .chain(servers.values().filter(|s| s.cluster() != primary))
            .map(|s| (s, s.load()))
            .filter(|(_, l)| !l.quarantined)
            .min_by(|(_, a), (_, b)| a.score().total_cmp(&b.score()))
            .map(|(s, _)| Arc::clone(s));
        best.ok_or_else(|| VortexError::Unavailable("no stream servers available".into()))
    }

    fn open_streamlet(
        &self,
        tmeta: &TableMeta,
        mut stream: StreamMeta,
        first_stream_row: u64,
    ) -> VortexResult<StreamHandle> {
        let clusters = self.replica_pair(tmeta)?;
        let mut last_err = VortexError::Unavailable("no stream servers".into());
        for _attempt in 0..3 {
            let server = self.pick_server(tmeta.primary)?;
            let mut slmeta = StreamletMeta {
                streamlet: self.ids.next_streamlet(),
                stream: stream.stream,
                table: tmeta.table,
                ordinal: stream.streamlet_count,
                server: server.server_id(),
                clusters,
                state: StreamletState::Writable,
                first_stream_row,
                row_count: 0,
                masks: vec![],
                epoch: 1,
                collected: (0, 0),
            };
            let spec = StreamletSpec {
                table: tmeta.table,
                stream: stream.stream,
                streamlet: slmeta.streamlet,
                clusters,
                schema: tmeta.schema.clone(),
                first_stream_row,
                key: tmeta.encryption_key(),
            };
            // Persist first, then instruct the server (§5.4.3: the SMS
            // "persist[s] it into Spanner", then RPCs the Stream Server).
            stream.streamlet_count += 1;
            self.txn(|txn| {
                meta::put(txn, &stream);
                meta::put(txn, &slmeta);
                Ok(())
            })?;
            // A crash here leaves the streamlet row committed in the
            // metastore but the Stream Server never instructed: exactly
            // the orphan that reconcile_streamlet's Phase 1 poisons
            // (§5.2). Fires between txn commit and side effect, and
            // bypasses the retry loop below.
            vortex_common::crash_point!("sms.open_streamlet.post_txn");
            match server.create_streamlet(spec) {
                Ok(()) => {
                    return Ok(StreamHandle {
                        table: tmeta.table,
                        stream,
                        streamlet: slmeta,
                        schema: tmeta.schema.clone(),
                        server,
                    });
                }
                Err(e) => {
                    // Mark the stillborn streamlet finalized-empty and try
                    // another server.
                    slmeta.state = StreamletState::Finalized;
                    let _ = self.txn(|txn| {
                        meta::put(txn, &slmeta);
                        Ok(())
                    });
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    /// Picks the two clusters a new streamlet's log files will live in.
    /// Prefers the table's primary and secondary, but §5.1 allows "any 2
    /// clusters of all the available clusters in a region" — so an
    /// unavailable preferred cluster is replaced by the next healthy one.
    fn replica_pair(&self, tmeta: &TableMeta) -> VortexResult<[ClusterId; 2]> {
        let mut chosen: Vec<ClusterId> = Vec::with_capacity(2);
        let preferred = [tmeta.primary, tmeta.secondary];
        for c in preferred.into_iter().chain(self.fleet.cluster_ids()) {
            if chosen.contains(&c) {
                continue;
            }
            if let Ok(cluster) = self.fleet.get(c) {
                if !cluster.faults().is_unavailable() {
                    chosen.push(c);
                }
            }
            if chosen.len() == 2 {
                return Ok([chosen[0], chosen[1]]);
            }
        }
        Err(VortexError::Unavailable(
            "fewer than 2 healthy clusters in the region".into(),
        ))
    }

    /// A stream's streamlets in stream order.
    fn streamlets_of_stream(
        &self,
        table: TableId,
        stream: StreamId,
    ) -> VortexResult<Vec<StreamletMeta>> {
        let mut out: Vec<StreamletMeta> =
            meta::scan(&self.store, table, self.store.now()).collect::<VortexResult<_>>()?;
        out.retain(|m| m.stream == stream);
        out.sort_by_key(|m| m.ordinal);
        Ok(out)
    }

    /// Reconciles a stream's last streamlet unless it already is; returns
    /// it in its final state (`None` for a stream without streamlets).
    fn settle_last_streamlet(
        &self,
        table: TableId,
        stream: StreamId,
    ) -> VortexResult<Option<StreamletMeta>> {
        match self.streamlets_of_stream(table, stream)?.pop() {
            Some(last) if last.state != StreamletState::Finalized => {
                self.reconcile_streamlet(table, last.streamlet).map(Some)
            }
            last => Ok(last),
        }
    }

    /// The read set of `table` at `snapshot`, listed from the metastore:
    /// what [`SmsApi::list_read_fragments`] shares until it may differ.
    pub(crate) fn list_at(&self, table: TableId, snapshot: Timestamp) -> VortexResult<ReadSet> {
        // Each record class is read once at the snapshot.
        let tmeta: TableMeta = meta::load(&self.store, table, snapshot)?;
        let streams: HashMap<StreamId, StreamMeta> = meta::scan(&self.store, table, snapshot)
            .map(|m| m.map(|m: StreamMeta| (m.stream, m)))
            .collect::<VortexResult<_>>()?;
        let streamlets: HashMap<StreamletId, StreamletMeta> =
            meta::scan(&self.store, table, snapshot)
                .map(|m| m.map(|m: StreamletMeta| (m.streamlet, m)))
                .collect::<VortexResult<_>>()?;
        // What the snapshot may see of a streamlet's rows; `None` hides
        // them (stream unknown, or PENDING and not committed by then).
        let visibility_of =
            |sl: &StreamletMeta| RowVisibility::of(streams.get(&sl.stream)?, sl, snapshot);

        // One pass over the fragment records yields the read specs and,
        // per streamlet, where its known WOS fragments end — finalized
        // and still live OR already converted; `collected` speaks for the
        // ones GC has dropped — which is where its tail starts.
        let mut fragments = Vec::new();
        let schema = &tmeta.schema;
        let clustering = schema
            .clustering
            .iter()
            .filter_map(|c| schema.column_index(c));
        // lint:allow(L010, once per listing: the clustering columns its specs share)
        let clustering: Arc<[usize]> = clustering.collect();
        let mut known_end: HashMap<StreamletId, (u32, u64)> = HashMap::new();
        for f in meta::scan::<FragmentMeta>(&self.store, table, snapshot) {
            let f = f?;
            if f.kind == FragmentKind::Wos && f.state != FragmentState::Active {
                let (next_ordinal, next_row) = known_end.entry(f.streamlet).or_default();
                *next_ordinal = (*next_ordinal).max(f.ordinal + 1);
                *next_row = (*next_row).max(f.first_row + f.row_count);
            }
            if !f.visible_at(snapshot) {
                continue;
            }
            // A ROS block stands alone; a WOS fragment is read under its
            // stream's visibility rules, and only once finalized — the
            // active one is covered by its streamlet tail.
            let placed = match f.kind {
                FragmentKind::Ros => {
                    Some((RowVisibility::unconstrained(), StreamId::from_raw(0), 0))
                }
                FragmentKind::Wos if f.state == FragmentState::Finalized => streamlets
                    .get(&f.streamlet)
                    .and_then(|sl| Some((visibility_of(sl)?, sl.stream, sl.first_stream_row))),
                FragmentKind::Wos => None,
            };
            if let Some((visibility, stream, streamlet_first_stream_row)) = placed {
                fragments.push(FragmentReadSpec {
                    mask: f.mask_at(snapshot),
                    visibility,
                    stream,
                    streamlet_first_stream_row,
                    meta: f,
                    clustering: Arc::clone(&clustering),
                });
            }
        }

        // Tails: streamlets not finalized → the reader probes log files
        // past the last known fragment.
        let mut tails = Vec::new();
        for sl in streamlets.values() {
            if sl.state == StreamletState::Finalized {
                continue;
            }
            let Some(visibility) = visibility_of(sl) else {
                continue;
            };
            let known = known_end.get(&sl.streamlet).copied().unwrap_or((0, 0));
            // Ordinals and row ends rise together: the later pair wins.
            let (from_ordinal, from_row) = known.max(sl.collected);
            tails.push(TailReadSpec {
                streamlet: sl.streamlet,
                stream: sl.stream,
                clusters: sl.clusters,
                from_ordinal,
                from_row,
                path_prefix: wos_streamlet_prefix(table, sl.streamlet),
                mask: meta::effective_mask(&sl.masks, snapshot),
                visibility,
                epoch: sl.epoch,
                first_stream_row: sl.first_stream_row,
                expected_rows: sl.row_count,
                clustering: Arc::clone(&clustering),
            });
        }
        tails.sort_by_key(|t| t.streamlet);
        fragments.sort_by_key(|f| (f.meta.streamlet, f.meta.ordinal, f.meta.fragment));
        Ok(ReadSet {
            table: tmeta,
            fragments,
            tails,
        })
    }

    /// The table's fragments whose files and records may be removed now:
    /// logically deleted, with the GC grace elapsed since (§5.4.3).
    fn collectible_fragments(&self, table: TableId) -> VortexResult<Vec<FragmentMeta>> {
        let now = self.tt.record_timestamp().0;
        let horizon = Timestamp(now.saturating_sub(self.cfg.gc_grace_micros));
        let mut all: Vec<FragmentMeta> =
            meta::scan(&self.store, table, self.store.now()).collect::<VortexResult<_>>()?;
        all.retain(|f| f.collectible(horizon));
        Ok(all)
    }

    /// Drops the records of fragments whose files are gone. A live
    /// streamlet's tail starts where its known log files end, so in the
    /// same transaction its record takes over what the dropped ones said
    /// of that (a finalized streamlet has no tail).
    fn drop_fragments(&self, gone: &[FragmentMeta]) -> VortexResult<usize> {
        self.txn(|txn| {
            for f in gone {
                meta::delete::<FragmentMeta>(txn, f.id());
                if f.kind != FragmentKind::Wos {
                    continue;
                }
                let end = (f.ordinal + 1, f.first_row + f.row_count);
                let of = meta::load_in::<StreamletMeta>(txn, (f.table, f.streamlet));
                let live = |sl: &StreamletMeta| sl.state != StreamletState::Finalized;
                if let Some(mut sl) =
                    meta::optional(of)?.filter(|sl| live(sl) && sl.collected < end)
                {
                    sl.collected = end;
                    meta::put(txn, &sl);
                }
            }
            Ok(())
        })?;
        Ok(gone.len())
    }

    /// Reconciliation phase 2 (§5.6): walks the streamlet's log files in
    /// ordinal order, poisons each in every reachable replica, then reads
    /// the poisoned copies to establish what was committed — adopting
    /// what the server `reported` of a file where the copies vouch for it.
    fn inspect_replicas(
        &self,
        tmeta: &TableMeta,
        slmeta: &StreamletMeta,
        mut reported: Vec<FragmentDelta>,
    ) -> VortexResult<Vec<FragmentDelta>> {
        let (table, streamlet) = (slmeta.table, slmeta.streamlet);
        let key = tmeta.encryption_key();
        let replicas: Vec<_> = slmeta
            .clusters
            .iter()
            .filter_map(|c| self.fleet.get(*c).ok().cloned())
            .collect();
        let tracked = tmeta.schema.tracked_columns();
        let mut found = Vec::new();
        for ordinal in 0u32.. {
            let path = wos_path(table, streamlet, ordinal);
            // Poison FIRST (§5.6): once the sentinel is in a log file,
            // the Stream Server's sole-writer length check fails any
            // still-in-flight append, so nothing poisoned-then-read can
            // be acknowledged behind our back. Only after the poison do
            // the reads below decide the authoritative length.
            let sentinel =
                FragmentWriter::sentinel_record(slmeta.epoch, self.tt.record_timestamp());
            let mut reachable = 0usize;
            let mut exists = false;
            for r in &replicas {
                if r.faults().is_unavailable() {
                    continue;
                }
                reachable += 1;
                if r.exists(&path) {
                    exists = true;
                    let _ = r.append(&path, &sentinel, Timestamp(0));
                }
            }
            if reachable == 0 {
                return Err(VortexError::Unavailable(format!(
                    "no replica reachable for streamlet {streamlet}"
                )));
            }
            if !exists {
                break; // no more fragments
            }
            // Now read the poisoned files: the committed extent is what
            // every copy with a header agrees on, up to a record boundary
            // — with one copy, everything parseable (nothing can be
            // acknowledged behind the poison).
            let copies: Vec<Vec<u8>> = (replicas.iter())
                .filter(|r| !r.faults().is_unavailable() && r.exists(&path))
                .filter_map(|r| r.read_all(&path).ok())
                .map(|read| read.data)
                .collect();
            let report = (reported.iter().position(|r| r.ordinal == ordinal))
                .map(|at| reported.swap_remove(at));
            // Headerless stubs only: no committed rows here, but a later
            // ordinal may exist (a failed open was retried on the next
            // file).
            // lint:allow(L010, once per log file reconciled)
            found.extend(reconcile_copies(ordinal, &copies, &key, &tracked, report)?);
        }
        Ok(found)
    }
}

/// What the replica `copies` of log file `ordinal` agree was committed
/// (`None` when none has a header), with the column properties of the
/// `tracked` columns (§7.2) — what [`ColumnStats::observe`] makes of the
/// rows, a row that predates a column counting nothing for it. Where the
/// copies vouch for the server's `report` ([`vouches`]), that is the
/// report at the agreed extent; otherwise each block of the copy read is
/// opened once and walked into columns, and no `Row` is built. Everything
/// inside the agreed extent is committed.
pub(crate) fn reconcile_copies(
    ordinal: u32,
    copies: &[Vec<u8>],
    key: &Key,
    tracked: &[(usize, String)],
    report: Option<FragmentDelta>,
) -> VortexResult<Option<FragmentDelta>> {
    let Some((first, index)) = common_prefix(copies)? else {
        return Ok(None);
    };
    let committed_size = index.valid_len;
    if let Some(r) = report.filter(|r| vouches(&index, r, tracked)) {
        return Ok(Some(FragmentDelta {
            committed_size,
            ..r
        }));
    }
    // lint:allow(L010, once per log file reconciled: the stats it reports)
    let (mut rows, mut stats) = (0, vec![ColumnStats::new(); tracked.len()]);
    for block in &index.blocks {
        // lint:allow(L010, once per block reconciled, replacing its `Row`s)
        let (mut cols, mut widths) = (Vec::new(), Vec::new());
        let plain = index.block_plaintext(&copies[first], key, block)?;
        let n = add_rowset(&mut cols, 0, &plain, |_, width| widths.push(width))?;
        block.decoded(n as u64)?;
        rows += n as u64;
        for (&(c, _), stats) in tracked.iter().zip(&mut stats) {
            let Some(col) = cols.get_mut(c) else { continue };
            let zone = std::mem::take(col).into_column();
            let mut zs = zone_map(&zone, 0..n);
            // NULL-padded rows that predate the column are not its rows.
            let present = widths.iter().filter(|&&w| w > c).count();
            if present < n {
                let nulls = (0..n).filter(|&i| zone.is_null(i)).count();
                (zs.count, zs.has_null) = (present as u64, nulls > n - present);
            }
            stats.merge(&zs);
        }
    }
    Ok(Some(FragmentDelta {
        fragment: index.header.fragment,
        ordinal,
        first_row: index.header.first_row,
        row_count: rows,
        committed_size,
        finalized: true,
        stats: (tracked.iter().map(|(_, n)| n.clone()).zip(stats)).collect(),
    }))
}

/// Whether the agreed extent `index` vouches for the server's report of a
/// sealed log file: it ends in the footer the server wrote (nothing but
/// poison after it), its blocks' headers hold the reported rows from the
/// reported first row, and the report's properties are of the columns
/// tracked now — a column added since the file opened was not observed.
fn vouches(index: &FragmentIndex, r: &FragmentDelta, tracked: &[(usize, String)]) -> bool {
    let blocks = &index.blocks;
    index
        .footer
        .is_some_and(|f| f.committed_size == r.committed_size)
        && blocks.iter().all(|b| b.end() <= r.committed_size)
        && blocks.iter().map(|b| b.row_count).sum::<u64>() == r.row_count
        && (index.header.fragment, index.header.first_row) == (r.fragment, r.first_row)
        && (r.stats.iter().map(|(n, _)| n)).eq(tracked.iter().map(|(_, n)| n))
}

impl SmsApi for SmsTask {
    fn task_id(&self) -> SmsTaskId {
        self.cfg.task
    }

    fn store(&self) -> Arc<MetaStore> {
        Arc::clone(&self.store)
    }

    fn register_server(&self, server: ServerHandle) {
        self.servers.write().insert(server.server_id(), server);
    }

    fn read_snapshot(&self) -> Timestamp {
        // Covers both record timestamps (server TrueTime `latest`) and
        // metastore commit timestamps.
        Timestamp(self.tt.record_timestamp().0.max(self.store.now().0))
    }

    // ------------------------------------------------------------------
    // Tables.
    // ------------------------------------------------------------------

    fn create_table(&self, name: &str, schema: Schema) -> VortexResult<TableMeta> {
        self.create_table_in(name, schema, None)
    }

    fn create_blmt_table(
        &self,
        name: &str,
        schema: Schema,
        bucket: &str,
    ) -> VortexResult<TableMeta> {
        self.create_table_in(name, schema, Some(bucket))
    }

    fn get_table(&self, table: TableId) -> VortexResult<TableMeta> {
        meta::load(&self.store, table, self.store.now())
    }

    fn get_table_by_name(&self, name: &str) -> VortexResult<TableMeta> {
        let bytes = self
            .store
            .read_at(&meta::name_key(name), self.store.now())
            .ok_or_else(|| VortexError::NotFound(format!("table '{name}'")))?;
        let raw = <[u8; 8]>::try_from(bytes.as_slice())
            .map_err(|_| VortexError::Decode("table name index".into()))?;
        self.get_table(TableId::from_raw(u64::from_le_bytes(raw)))
    }

    fn update_schema(&self, table: TableId, new_schema: Schema) -> VortexResult<TableMeta> {
        self.check_owns(table)?;
        let updated = self.txn(|txn| {
            meta::update(txn, table, |m: &mut TableMeta| {
                if new_schema.version <= m.schema.version {
                    return Err(VortexError::InvalidArgument(format!(
                        "schema version must increase: {} -> {}",
                        m.schema.version, new_schema.version
                    )));
                }
                m.schema = new_schema.clone();
                Ok(())
            })
        })?;
        // Notify Stream Servers so they can fail stale-writer appends
        // with SchemaVersionMismatch (§5.4.1).
        for s in self.servers.read().values() {
            s.notify_schema_version(table, updated.schema.version);
        }
        Ok(updated)
    }

    fn fail_over_table(&self, table: TableId) -> VortexResult<TableMeta> {
        self.txn(|txn| {
            meta::update(txn, table, |m: &mut TableMeta| {
                std::mem::swap(&mut m.primary, &mut m.secondary);
                Ok(())
            })
        })
    }

    fn drop_table(&self, table: TableId) -> VortexResult<()> {
        self.check_owns(table)?;
        self.txn(|txn| {
            let tmeta: TableMeta = meta::load_in(txn, table)?;
            txn.delete(&meta::name_key(&tmeta.name));
            meta::delete::<TableMeta>(txn, table);
            Ok(())
        })?;
        self.listings.lock().remove(&table);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Streams and streamlets.
    // ------------------------------------------------------------------

    fn create_stream(&self, table: TableId, stype: StreamType) -> VortexResult<StreamHandle> {
        self.check_owns(table)?;
        let tmeta = self.get_table(table)?;
        let stream = StreamMeta {
            stream: self.ids.next_stream(),
            table,
            stype,
            finalized: false,
            committed_at: None,
            flushed_row: 0,
            streamlet_count: 0,
        };
        self.txn(|txn| {
            meta::put(txn, &stream);
            Ok(())
        })?;
        self.open_streamlet(&tmeta, stream, 0)
    }

    fn rotate_streamlet(&self, table: TableId, stream: StreamId) -> VortexResult<StreamHandle> {
        self.check_owns(table)?;
        let tmeta = self.get_table(table)?;
        let smeta = self.get_stream(table, stream)?;
        if smeta.finalized {
            return Err(VortexError::StreamFinalized(stream));
        }
        // The previous streamlet is reconciled first, so the stream-level
        // row offset of the new one is exact.
        let first_stream_row = self
            .settle_last_streamlet(table, stream)?
            .map_or(0, |last| last.first_stream_row + last.row_count);
        self.open_streamlet(&tmeta, smeta, first_stream_row)
    }

    fn get_stream(&self, table: TableId, stream: StreamId) -> VortexResult<StreamMeta> {
        meta::load(&self.store, (table, stream), self.store.now())
    }

    fn get_streamlet(&self, table: TableId, streamlet: StreamletId) -> VortexResult<StreamletMeta> {
        meta::load(&self.store, (table, streamlet), self.store.now())
    }

    fn stream_length(&self, table: TableId, stream: StreamId) -> VortexResult<u64> {
        let mut total = 0u64;
        for sl in self.streamlets_of_stream(table, stream)? {
            // Finalized streamlets count from the metastore, live ones
            // from their hosting server when it answers.
            total += if sl.state == StreamletState::Finalized {
                sl.row_count
            } else {
                let from_server = self
                    .servers
                    .read()
                    .get(&sl.server)
                    .and_then(|h| h.streamlet_rows(sl.streamlet));
                from_server.unwrap_or(sl.row_count).max(sl.row_count)
            };
        }
        Ok(total)
    }

    fn flush_stream(&self, table: TableId, stream: StreamId, row_offset: u64) -> VortexResult<()> {
        self.check_owns(table)?;
        let smeta = self.get_stream(table, stream)?;
        if smeta.stype != StreamType::Buffered {
            return Err(VortexError::InvalidArgument(
                "FlushStream requires a BUFFERED stream".into(),
            ));
        }
        let length = self.stream_length(table, stream)?;
        if row_offset > length {
            return Err(VortexError::InvalidArgument(format!(
                "flush offset {row_offset} exceeds stream length {length}"
            )));
        }
        self.txn(|txn| {
            meta::update(txn, (table, stream), |m: &mut StreamMeta| {
                m.flushed_row = m.flushed_row.max(row_offset);
                Ok(())
            })
        })?;
        Ok(())
    }

    fn finalize_stream(&self, table: TableId, stream: StreamId) -> VortexResult<StreamMeta> {
        self.check_owns(table)?;
        let out = self.txn(|txn| {
            meta::update(txn, (table, stream), |m: &mut StreamMeta| {
                m.finalized = true;
                Ok(())
            })
        })?;
        // Reconcile the writable streamlet so the stream's length becomes
        // authoritative.
        self.settle_last_streamlet(table, stream)?;
        Ok(out)
    }

    fn batch_commit_streams(
        &self,
        table: TableId,
        streams: &[StreamId],
    ) -> VortexResult<Timestamp> {
        self.check_owns(table)?;
        // Finalized and reconciled first, so the streams' contents are
        // authoritative at commit.
        for &s in streams {
            self.finalize_stream(table, s)?;
        }
        let visible_from = self.tt.record_timestamp();
        let ((), commit_ts) = self.store.with_txn_at(TXN_RETRIES, |txn| {
            for &s in streams {
                let mut m: StreamMeta = meta::load_in(txn, (table, s))?;
                if m.stype != StreamType::Pending {
                    return Err(VortexError::InvalidArgument(format!(
                        "stream {s} is not PENDING"
                    )));
                }
                // Already committed: idempotent, nothing to write.
                if m.committed_at.is_none() {
                    m.committed_at = Some(visible_from);
                    meta::put(txn, &m);
                }
            }
            Ok(())
        })?;
        // Commit-wait so a read snapshot taken after this call observes
        // the data (TrueTime external consistency).
        self.tt.commit_wait(commit_ts);
        Ok(commit_ts)
    }

    // ------------------------------------------------------------------
    // Heartbeats (§5.5).
    // ------------------------------------------------------------------

    fn heartbeat(&self, deltas: &[StreamletDelta]) -> VortexResult<HeartbeatResponse> {
        // Tasks share one metastore: a delta is its table's owner's to apply.
        let owned = |d: &&StreamletDelta| self.view.as_ref().map_or(true, |v| v.owns(d.table));
        // One transaction per report. Per table: its schema version, read
        // once, and the streamlets whose deltas were applied, in report
        // order; a retried attempt collects them afresh.
        let (tables, unknown_streamlets) = self.txn(|txn| {
            let mut tables: BTreeMap<TableId, (u32, Vec<StreamletId>)> = BTreeMap::new();
            let mut unknown = Vec::new();
            for delta in deltas.iter().filter(owned) {
                let (table, slid) = (delta.table, delta.streamlet);
                let known = meta::load_in::<StreamletMeta>(txn, (table, slid));
                let Some(sl) = meta::optional(known)? else {
                    unknown.push(slid);
                    continue;
                };
                if sl.state == StreamletState::Finalized {
                    // Reconciled already; a zombie server reporting stale state.
                    continue;
                }
                let (_, applied) = match tables.entry(table) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        let tmeta: TableMeta = meta::load_in(txn, table)?;
                        e.insert((tmeta.schema.version, Vec::new()))
                    }
                };
                apply_delta(txn, sl, delta)?;
                applied.push(slid);
            }
            Ok((tables, unknown))
        })?;
        let mut resp = HeartbeatResponse {
            unknown_streamlets,
            ..HeartbeatResponse::default()
        };
        for (table, (version, applied)) in tables {
            // Schema updates for the reporting server.
            resp.schema_updates.push((table, version));
            // GC work: one listing per table serves all its streamlets.
            let doomed = self.collectible_fragments(table)?;
            for slid in applied {
                let of_streamlet = doomed.iter().filter(|f| f.streamlet == slid);
                let ordinals: Vec<u32> = of_streamlet.map(|f| f.ordinal).collect();
                if !ordinals.is_empty() {
                    resp.gc.push((table, slid, ordinals));
                }
            }
        }
        Ok(resp)
    }

    fn ack_gc(
        &self,
        table: TableId,
        streamlet: StreamletId,
        ordinals: &[u32],
    ) -> VortexResult<usize> {
        let mut acked = self.collectible_fragments(table)?;
        acked.retain(|f| f.streamlet == streamlet && ordinals.contains(&f.ordinal));
        self.drop_fragments(&acked)
    }

    // ------------------------------------------------------------------
    // Read path (§7).
    // ------------------------------------------------------------------

    fn list_read_fragments(&self, table: TableId, at: Timestamp) -> VortexResult<Arc<ReadSet>> {
        self.m[0].inc();
        let marks = (self.store.now(), self.store.prune_generation());
        let listings = &self.listings;
        // lint:allow(L011, held for one map lookup; no listing happens under it)
        if let Some(held) = listings.lock().get(&table).filter(|l| l.serves(at, marks)) {
            self.m[1].inc();
            return Ok(Arc::clone(&held.listed.1));
        }
        // lint:allow(L010, once per listing the memo cannot serve: the set it shares)
        let set = Arc::new(self.list_at(table, at)?);
        let listed = (at, Arc::clone(&set));
        // lint:allow(L011, held for one map update; no listing happens under it)
        let mut held = listings.lock();
        // lint:allow(L010, once per listing the memo cannot serve: its table's entry)
        held.insert(table, Listing { listed, marks });
        Ok(set)
    }

    // ------------------------------------------------------------------
    // Reconciliation (§5.6, §7.1).
    // ------------------------------------------------------------------

    fn reconcile_streamlet(
        &self,
        table: TableId,
        streamlet: StreamletId,
    ) -> VortexResult<StreamletMeta> {
        self.m[2].inc();
        let tmeta = self.get_table(table)?;
        // Phase 1: close + bump epoch so the outcome is sticky even if
        // two SMS tasks reconcile concurrently (the txn serializes them).
        let slmeta = self.txn(|txn| {
            let mut m: StreamletMeta = meta::load_in(txn, (table, streamlet))?;
            if m.state != StreamletState::Finalized {
                m.state = StreamletState::Closed;
                m.epoch += 1;
                meta::put(txn, &m);
            }
            Ok(m)
        })?;
        if slmeta.state == StreamletState::Finalized {
            return Ok(slmeta); // already reconciled — idempotent
        }
        // Ask the server to finalize gracefully (bloom + footer) and to
        // report what it sealed, then revoke ownership. A dead server
        // simply doesn't answer; the inspection below decodes instead.
        let reported = self.servers.read().get(&slmeta.server).map(|h| {
            let sealed = h.finalize_streamlet_ctl(streamlet);
            h.revoke_streamlet(streamlet);
            sealed.unwrap_or_default()
        });
        // Phase 2: inspect replicas fragment by fragment.
        let found = self.inspect_replicas(&tmeta, &slmeta, reported.unwrap_or_default())?;
        // Phase 3: record the reconciled truth.
        self.txn(|txn| {
            let mut m: StreamletMeta = meta::load_in(txn, (table, streamlet))?;
            m.state = StreamletState::Finalized;
            m.row_count = found
                .iter()
                .map(|r| r.first_row + r.row_count)
                .max()
                .unwrap_or(0);
            // Upsert fragment records with authoritative sizes.
            let mut known: HashMap<u32, FragmentMeta> = HashMap::new();
            for f in meta::scan_in::<FragmentMeta>(txn, table) {
                let f = f?;
                if f.streamlet == streamlet && f.kind == FragmentKind::Wos {
                    known.insert(f.ordinal, f);
                }
            }
            for r in &found {
                let mut f = known.remove(&r.ordinal).unwrap_or_else(|| {
                    FragmentMeta::new_wos(self.ids.next_fragment(), &m, r.ordinal, r.first_row)
                });
                if f.state == FragmentState::Deleted {
                    continue; // converted already; reconciliation cannot resurrect
                }
                f.first_row = r.first_row;
                f.row_count = r.row_count;
                f.committed_size = r.committed_size;
                f.stats = r.stats.clone();
                if f.state == FragmentState::Active {
                    f.finalize(&m.masks);
                }
                meta::put(txn, &f);
            }
            meta::put(txn, &m);
            Ok(m)
        })
    }

    // ------------------------------------------------------------------
    // Storage-optimizer and DML commits (§6.1, §7.3).
    // ------------------------------------------------------------------

    fn begin_dml(&self, table: TableId) -> VortexResult<DmlTicket> {
        self.begin_dml_with(table, self.mint_dml_token())
    }

    fn end_dml(&self, table: TableId, ticket: DmlTicket) -> VortexResult<()> {
        self.txn(|txn| {
            txn.delete(&meta::dml_lock_token_key(table, ticket.0));
            Ok(())
        })
    }

    fn dml_active(&self, table: TableId) -> bool {
        let markers = meta::dml_lock_prefix(table);
        !self
            .store
            .scan_prefix_at(&markers, self.store.now())
            .is_empty()
    }

    fn commit_conversion(
        &self,
        table: TableId,
        sources: &[(FragmentId, usize)],
        mut replacements: Vec<FragmentMeta>,
        yield_to_dml: bool,
    ) -> VortexResult<Timestamp> {
        self.check_owns(table)?;
        let ts = self.tt.record_timestamp();
        let ((), commit_ts) = self.store.with_txn_at(TXN_RETRIES, |txn| {
            if yield_to_dml && !txn.scan_prefix(&meta::dml_lock_prefix(table)).is_empty() {
                return Err(VortexError::Unavailable(format!(
                    "optimizer yielding to active DML on {table}"
                )));
            }
            for (src, seen_masks) in sources {
                meta::update(txn, (table, *src), |f: &mut FragmentMeta| {
                    if f.masks.len() != *seen_masks {
                        return Err(VortexError::TxnConflict(format!(
                            "fragment {src} gained deletion masks during conversion"
                        )));
                    }
                    if f.state == FragmentState::Deleted {
                        return Err(VortexError::TxnConflict(format!(
                            "fragment {src} already converted"
                        )));
                    }
                    if f.state != FragmentState::Finalized {
                        return Err(VortexError::InvalidArgument(format!(
                            "fragment {src} not finalized"
                        )));
                    }
                    f.state = FragmentState::Deleted;
                    f.deleted_at = ts;
                    Ok(())
                })?;
            }
            for r in replacements.iter_mut() {
                r.created_at = ts;
                r.deleted_at = Timestamp::MAX;
                r.state = FragmentState::Finalized;
                meta::put(txn, r);
            }
            Ok(())
        })?;
        self.tt.commit_wait(commit_ts);
        Ok(commit_ts)
    }

    fn commit_dml(
        &self,
        table: TableId,
        fragment_masks: &[(FragmentId, DeletionMask)],
        tail_masks: &[(StreamletId, DeletionMask)],
        reinserted_streams: &[StreamId],
    ) -> VortexResult<Timestamp> {
        self.check_owns(table)?;
        // Reinserted rows live in PENDING streams; finalize them so their
        // contents are authoritative, then flip visibility in the same
        // transaction as the masks.
        for &s in reinserted_streams {
            self.finalize_stream(table, s)?;
        }
        let ts = self.tt.record_timestamp();
        let ((), commit_ts) = self.store.with_txn_at(TXN_RETRIES, |txn| {
            // A mask on a fragment a conversion has replaced since the
            // statement's snapshot would reach no reader: the statement
            // re-resolves (`NotFound` is not retried on the channel).
            let replaced = |what: String| VortexError::NotFound(format!("{what} was converted"));
            for (fid, mask) in fragment_masks {
                meta::update(txn, (table, *fid), |f: &mut FragmentMeta| {
                    if f.state == FragmentState::Deleted {
                        return Err(replaced(format!("fragment {fid}")));
                    }
                    f.masks.push((ts, mask.clone()));
                    Ok(())
                })?;
            }
            for (slid, mask) in tail_masks {
                meta::update(txn, (table, *slid), |m: &mut StreamletMeta| {
                    m.masks.push((ts, mask.clone()));
                    Ok(())
                })?;
                // Rows that were in the tail at the DML's snapshot may by
                // now live in fragments the heartbeat already finalized;
                // map the mask onto those eagerly (the heartbeat mapping
                // only runs at the Active→Finalized transition, which may
                // have happened mid-statement).
                let frags: Vec<FragmentMeta> =
                    meta::scan_in(txn, table).collect::<VortexResult<_>>()?;
                // Rows sealed and then converted since would lose the mask.
                for mut f in frags {
                    if f.streamlet != *slid
                        || f.kind != FragmentKind::Wos
                        || !f.add_tail_mask(ts, mask)
                    {
                        continue;
                    }
                    match f.state {
                        FragmentState::Finalized => meta::put(txn, &f),
                        FragmentState::Deleted => {
                            return Err(replaced(format!(
                                "tail of {slid}: fragment {}",
                                f.fragment
                            )))
                        }
                        FragmentState::Active => {}
                    }
                }
            }
            for &s in reinserted_streams {
                meta::update(txn, (table, s), |m: &mut StreamMeta| {
                    m.committed_at = Some(ts);
                    Ok(())
                })?;
            }
            Ok(())
        })?;
        self.tt.commit_wait(commit_ts);
        Ok(commit_ts)
    }

    // ------------------------------------------------------------------
    // Garbage collection (§5.4.3).
    // ------------------------------------------------------------------

    fn run_gc(&self, table: TableId) -> VortexResult<usize> {
        let doomed = self.collectible_fragments(table)?;
        for f in &doomed {
            for c in f.clusters {
                if let Ok(cluster) = self.fleet.get(c) {
                    let _ = cluster.delete(&f.path);
                }
            }
        }
        self.drop_fragments(&doomed)
    }

    fn run_groomer(&self) -> VortexResult<(usize, usize)> {
        let now = self.store.now();
        let mut entities = 0usize;
        let mut files = 0usize;
        for table in meta::orphan_tables(&self.store, now) {
            // Delete physical files first (fragments name them precisely;
            // the WOS prefix listing catches anything unreported).
            for f in self.list_fragments(table, now) {
                for c in f.clusters {
                    if let Ok(cluster) = self.fleet.get(c) {
                        if cluster.exists(&f.path) && cluster.delete(&f.path).is_ok() {
                            files += 1;
                        }
                    }
                }
            }
            for sl in self.list_streamlets(table) {
                let prefix = wos_streamlet_prefix(table, sl.streamlet);
                for c in sl.clusters {
                    if let Ok(cluster) = self.fleet.get(c) {
                        for p in cluster.list(&prefix).unwrap_or_default() {
                            if cluster.delete(&p).is_ok() {
                                files += 1;
                            }
                        }
                    }
                }
            }
            // Then drop every orphaned metadata key — by key, so a record
            // that no longer decodes goes too.
            let doomed = meta::owned_keys(&self.store, table, now);
            entities += doomed.len();
            self.txn(|txn| {
                for k in &doomed {
                    txn.delete(k);
                }
                for (k, _) in txn.scan_prefix(&meta::dml_lock_prefix(table)) {
                    txn.delete(&k);
                }
                Ok(())
            })?;
        }
        Ok((entities, files))
    }

    // The two diagnostics listings cannot fail by signature, so here, and
    // only here, a record that does not decode is left out.

    fn list_fragments(&self, table: TableId, at: Timestamp) -> Vec<FragmentMeta> {
        meta::scan(&self.store, table, at)
            .filter_map(Result::ok)
            .collect()
    }

    fn list_streamlets(&self, table: TableId) -> Vec<StreamletMeta> {
        meta::scan(&self.store, table, self.store.now())
            .filter_map(Result::ok)
            .collect()
    }
}

impl std::fmt::Debug for SmsTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmsTask")
            .field("task", &self.cfg.task)
            .field("cluster", &self.cfg.cluster)
            .finish_non_exhaustive()
    }
}
