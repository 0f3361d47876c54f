//! The Stream Server task: hosts streamlets, serves appends/flushes,
//! produces heartbeats, and persists its metadata (§5.3, §5.5).
//!
//! Since the shard-per-core refactor this type is a thin, lock-free
//! facade: streamlet state lives on shard threads ([`crate::shard`]),
//! each owned by exactly one thread, and every operation is a message
//! routed to the owning shard (a hash of the streamlet id). The append
//! hot path touches only atomics (flow control), a bounded mailbox post,
//! and a park on the reply slot — no mutex, no shared map — while shards
//! coalesce queued appends into group commits. Every other operation is
//! a closure [`StreamServer::on_shard`] carries to the owning thread.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use vortex_colossus::StorageFleet;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{ClusterId, IdGen, ServerId, StreamletId, TableId};
use vortex_common::mailbox::{mailbox, MailboxReceiver, MailboxSender, PostError, ReplySlot};
use vortex_common::obs;
use vortex_common::row::RowSet;
use vortex_common::truetime::{Timestamp, TrueTime};
use vortex_sms::heartbeat::{FragmentDelta, HeartbeatResponse, StreamletDelta};
use vortex_sms::server_ctl::{LoadReport, StreamServerApi, StreamletSpec};

use crate::hosted::{AppendReq, ShardEnv};
use crate::shard::{Shard, ShardMsg};
use crate::wal::{self, ServerLog, WalEvent};

pub use crate::hosted::AppendAck;

/// How long one park on a reply slot lasts. Delivery unparks the waiter
/// immediately; the interval only bounds the patience for a dead shard.
/// It is deliberately far beyond the scheduler tick: a millisecond park
/// is the CPU's earliest timer on every append, and arming and cancelling
/// it reprograms the clock-event device each time — a VM exit on a
/// virtualized host, measured at ~9µs of a ~28µs append.
const REPLY_PARK: Duration = Duration::from_millis(100);
/// Park budget for append acks (~30s of patience).
const APPEND_MAX_PARKS: u32 = 300;
/// Park budget for control-plane replies (~60s).
const CTL_MAX_PARKS: u32 = 600;
/// Shard threads per server (single-writer streamlet owners). Four keeps
/// a two-cluster, two-servers-per-cluster region at 16 threads — about a
/// core each on the hosts this runs on — and a parked shard costs nothing.
const SHARDS: usize = 4;
/// Bounded depth of each shard's data-plane mailbox; posts beyond it are
/// shed as retryable backpressure. 1024 queued appends is 16 full groups:
/// deep enough to ride out one slow Colossus write, shallow enough that
/// a shed comes before the queue alone exceeds a client's deadline.
const SHARD_QUEUE_DEPTH: usize = 1024;
/// Flow-control cap on in-flight (admitted, unacked) append bytes
/// (§5.4.2: "flow control protects the Stream Server from running out of
/// memory"): 256 MiB, 128 full 2 MB write buffers (§5.4.4), before a
/// writer is throttled.
const FLOW_CONTROL_BYTES: u64 = 256 << 20;

/// Stream Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// This server's id.
    pub server: ServerId,
    /// Home cluster (metadata log lives here; placement prefers servers
    /// in a table's primary cluster).
    pub cluster: ClusterId,
    /// Max bytes per data block (§5.4.4's 2 MB write buffer).
    pub block_buffer_bytes: usize,
    /// Max logical fragment size before rotation (§5.3).
    pub fragment_max_bytes: u64,
}

impl ServerConfig {
    /// Paper-shaped defaults.
    pub fn new(server: ServerId, cluster: ClusterId) -> Self {
        ServerConfig {
            server,
            cluster,
            block_buffer_bytes: vortex_wos::DEFAULT_BLOCK_BUFFER_BYTES,
            fragment_max_bytes: vortex_wos::DEFAULT_FRAGMENT_MAX_BYTES,
        }
    }
}

/// A running Stream Server: a lock-free facade over its shard threads.
pub struct StreamServer {
    cfg: ServerConfig,
    tt: TrueTime,
    /// One mailbox per shard thread, in shard-index order.
    shards: Vec<MailboxSender<ShardMsg>>,
    /// Per-shard writable-streamlet counts, published by the shards.
    writable_counts: Vec<Arc<AtomicU64>>,
    joins: Vec<JoinHandle<()>>,
    /// Streamlets a *previous incarnation* of this server hosted,
    /// replayed from its WAL + checkpoint on [`StreamServer::recover`]:
    /// (table, rows-at-crash). Never writable again — the SMS reconciles
    /// their true committed lengths from Colossus (§7.1) and places new
    /// streamlets elsewhere — but the identity lets the restarted server
    /// answer metadata probes for them. Immutable after construction, so
    /// no lock guards it.
    recovered: HashMap<StreamletId, (TableId, u64)>,
    quarantined: AtomicBool,
    in_flight_bytes: AtomicU64,
    bytes_since_heartbeat: AtomicU64,
    last_heartbeat_at: AtomicU64,
}

impl StreamServer {
    /// Starts a server: opens one metadata-log epoch per shard and spawns
    /// the shard threads.
    pub fn new(
        cfg: ServerConfig,
        fleet: StorageFleet,
        tt: TrueTime,
        ids: Arc<IdGen>,
    ) -> VortexResult<Arc<Self>> {
        // lint:allow(L010, cold construction — once per server lifetime)
        Self::start(cfg, fleet, tt, ids, HashMap::new())
    }

    /// Starts a replacement instance after a process death, rebuilding
    /// from durable state ONLY: the dead incarnation's per-shard
    /// checkpoints + WALs are replayed into the
    /// [recovered-streamlet map](Self::recover_summary) and fresh log
    /// epochs are opened. Nothing of the dead instance's memory survives
    /// — recovered streamlets are identity-only (never writable); the
    /// SMS's reconciliation protocol (§5.6, §7.1) re-derives exact
    /// committed lengths from Colossus.
    pub fn recover(
        cfg: ServerConfig,
        fleet: StorageFleet,
        tt: TrueTime,
        ids: Arc<IdGen>,
    ) -> VortexResult<Arc<Self>> {
        let recovered = Self::recover_summary(&cfg, &fleet)?;
        Self::start(cfg, fleet, tt, ids, recovered)
    }

    fn start(
        cfg: ServerConfig,
        fleet: StorageFleet,
        tt: TrueTime,
        ids: Arc<IdGen>,
        recovered: HashMap<StreamletId, (TableId, u64)>,
    ) -> VortexResult<Arc<Self>> {
        let mut senders = Vec::with_capacity(SHARDS); // lint:allow(L010, cold construction)
        let mut writable_counts = Vec::with_capacity(SHARDS); // lint:allow(L010, cold construction)
        let mut joins = Vec::with_capacity(SHARDS); // lint:allow(L010, cold construction)
        let spawn = |idx: usize| -> VortexResult<(
            MailboxSender<ShardMsg>,
            Arc<AtomicU64>,
            JoinHandle<()>,
        )> {
            let home = fleet.get(cfg.cluster)?;
            let log = ServerLog::open(cfg.server, idx as u32, home)?;
            let (tx, rx) = mailbox::<ShardMsg>(SHARD_QUEUE_DEPTH);
            let w = Arc::new(AtomicU64::new(0)); // lint:allow(L010, cold construction)
            let env = ShardEnv {
                cfg: cfg.clone(),     // lint:allow(L010, cold construction)
                fleet: fleet.clone(), // lint:allow(L010, cold construction)
                tt: tt.clone(),       // lint:allow(L010, cold construction)
                ids: Arc::clone(&ids),
            };
            let shard = Shard::new(idx as u32, env, log, Arc::clone(&w));
            // The shard loop runs on its own thread: blocking there never
            // blocks the spawner. The fn-pointer indirection marks that
            // thread boundary for the call-graph lint (whose reachability
            // is lexical); the loop's hot path is analyzed from its own
            // `lint:hotpath(shard_commit)` root instead.
            let entry: fn(Shard, MailboxReceiver<ShardMsg>) = Shard::run;
            let join = std::thread::Builder::new()
                .name(format!("vortex-shard-{:x}.{idx}", cfg.server.raw())) // lint:allow(L010, cold construction)
                .spawn(move || entry(shard, rx))
                .map_err(|e| VortexError::Internal(format!("spawn shard thread: {e}")))?; // lint:allow(L010, cold construction)
            Ok((tx, w, join))
        };
        for idx in 0..SHARDS {
            match spawn(idx) {
                Ok((tx, w, join)) => {
                    senders.push(tx); // lint:allow(L010, cold construction)
                    writable_counts.push(w); // lint:allow(L010, cold construction)
                    joins.push(join); // lint:allow(L010, cold construction)
                }
                Err(e) => {
                    // Unwind the shards already started.
                    for tx in &senders {
                        tx.close();
                    }
                    for j in joins {
                        let _ = j.join(); // lint:allow(L010, cold unwind — thread join, not string join)
                    }
                    return Err(e);
                }
            }
        }
        // lint:allow(L010, cold construction)
        Ok(Arc::new(Self {
            last_heartbeat_at: AtomicU64::new(tt.record_timestamp().0),
            cfg,
            tt,
            shards: senders,
            writable_counts,
            joins,
            recovered,
            quarantined: AtomicBool::new(false),
            in_flight_bytes: AtomicU64::new(0),
            bytes_since_heartbeat: AtomicU64::new(0),
        }))
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The shard that owns `streamlet`. Ids come from one sequence shared
    /// with tables, streams and fragments, so streamlet ids stride, and a
    /// plain `id % shards` leaves shards idle under even strides;
    /// Fibonacci hashing (multiply by 2^64/φ, keep the high bits) spreads
    /// any stride over every shard.
    pub(crate) fn shard_of(&self, streamlet: StreamletId) -> &MailboxSender<ShardMsg> {
        &self.shards[shard_index(streamlet, self.shards.len())]
    }

    /// Runs `f` on the thread that owns `shard` and parks for its result:
    /// the one way control-plane work reaches shard state. The closure is
    /// never shed and runs in posting order relative to this caller's
    /// appends; a closed or dead shard surfaces as `Unavailable`.
    pub(crate) fn on_shard<T: Clone + Send + Sync + 'static>(
        &self,
        shard: &MailboxSender<ShardMsg>,
        f: impl FnOnce(&mut Shard) -> T + Send + 'static,
    ) -> VortexResult<T> {
        let reply = ReplySlot::for_caller();
        let slot = Arc::clone(&reply);
        // lint:allow(L010, control plane: one boxed closure per control call, never per append)
        let work = Box::new(move |s: &mut Shard| slot.deliver(f(s)));
        if shard.post(ShardMsg::Ctl(work)).is_err() {
            return Err(VortexError::Unavailable("server shutting down".into()));
        }
        match reply.await_reply(CTL_MAX_PARKS, REPLY_PARK) {
            Some(v) => Ok(v.clone()), // lint:allow(L010, control-plane reply copy)
            None => Err(VortexError::Unavailable(
                "shard did not answer control request".into(),
            )),
        }
    }

    /// Admits `bytes` under flow control, erroring with
    /// [`VortexError::Throttled`] when the in-flight cap is exceeded
    /// (§5.4.2: "flow control protects the Stream Server from running out
    /// of memory"). The returned guard releases on drop.
    pub fn admit(&self, bytes: u64) -> VortexResult<FlowGuard<'_>> {
        let prev = self.in_flight_bytes.fetch_add(bytes, Ordering::SeqCst);
        if prev + bytes > FLOW_CONTROL_BYTES {
            self.in_flight_bytes.fetch_sub(bytes, Ordering::SeqCst);
            return Err(VortexError::Throttled {
                in_flight_bytes: prev + bytes,
                limit_bytes: FLOW_CONTROL_BYTES,
            });
        }
        Ok(FlowGuard {
            server: self,
            bytes,
        })
    }

    /// Writes per-shard metadata checkpoints and truncates the WALs
    /// (§5.3).
    pub fn checkpoint(&self) -> VortexResult<()> {
        for shard in &self.shards {
            self.on_shard(shard, Shard::checkpoint)??;
        }
        Ok(())
    }

    /// Recovers hosted-streamlet *identity* from the metadata logs of a
    /// crashed instance: the (table, rows) of each streamlet it hosted,
    /// which the restarted server can heartbeat but never writes to again
    /// (the SMS reconciles and re-places them). Merges every shard log the
    /// dead incarnation left behind.
    pub fn recover_summary(
        cfg: &ServerConfig,
        fleet: &StorageFleet,
    ) -> VortexResult<HashMap<StreamletId, (TableId, u64)>> {
        let home = fleet.get(cfg.cluster)?;
        let mut known: HashMap<StreamletId, (TableId, u64)> = HashMap::new();
        for shard in wal::shards_present(cfg.server, home)? {
            let (snapshot, events) = ServerLog::recover(cfg.server, shard, home)?;
            if let Some(snap) = snapshot {
                for e in wal::decode_snapshot(&snap)? {
                    known.insert(e.streamlet, (e.table, e.rows));
                }
            }
            for e in events {
                match e {
                    WalEvent::StreamletOpened {
                        table, streamlet, ..
                    } => {
                        known.entry(streamlet).or_insert((table, 0));
                    }
                    WalEvent::FragmentSealed {
                        streamlet, rows, ..
                    } => {
                        if let Some((_, r)) = known.get_mut(&streamlet) {
                            *r = (*r).max(rows);
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(known)
    }

    /// Closes every shard mailbox: queued work drains, later posts fail
    /// with `Unavailable`, and the shard threads exit.
    pub(crate) fn close(&self) {
        for tx in &self.shards {
            tx.close();
        }
    }
}

/// Fibonacci hash of a streamlet id onto `shards` slots.
pub(crate) fn shard_index(streamlet: StreamletId, shards: usize) -> usize {
    let mixed = streamlet.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (((mixed >> 32) * shards as u64) >> 32) as usize
}

impl Drop for StreamServer {
    fn drop(&mut self) {
        self.close();
        for j in std::mem::take(&mut self.joins) {
            let _ = j.join(); // lint:allow(L010, cold teardown — thread join, not string join)
        }
    }
}

/// RAII guard for flow-control admission.
pub struct FlowGuard<'a> {
    server: &'a StreamServer,
    bytes: u64,
}

impl Drop for FlowGuard<'_> {
    fn drop(&mut self) {
        self.server
            .in_flight_bytes
            .fetch_sub(self.bytes, Ordering::SeqCst);
    }
}

impl StreamServerApi for StreamServer {
    fn server_id(&self) -> ServerId {
        self.cfg.server
    }

    fn cluster(&self) -> ClusterId {
        self.cfg.cluster
    }

    fn create_streamlet(&self, spec: StreamletSpec) -> VortexResult<()> {
        self.on_shard(self.shard_of(spec.streamlet), move |s| s.open(spec))?
    }

    fn load(&self) -> LoadReport {
        let now = self.tt.record_timestamp().0;
        let last = self.last_heartbeat_at.load(Ordering::Relaxed);
        let dt = (now.saturating_sub(last)).max(1) as f64 / 1e6;
        LoadReport {
            streamlets: self
                .writable_counts
                .iter()
                .map(|w| w.load(Ordering::Acquire))
                .sum(),
            append_bytes_per_sec: self.bytes_since_heartbeat.load(Ordering::Relaxed) as f64 / dt,
            in_flight_bytes: self.in_flight_bytes.load(Ordering::SeqCst),
            quarantined: self.quarantined.load(Ordering::SeqCst),
        }
    }

    fn streamlet_rows(&self, streamlet: StreamletId) -> Option<u64> {
        self.on_shard(self.shard_of(streamlet), move |s| s.rows(streamlet))
            .ok()
            .flatten()
            // A previous incarnation's streamlet: report the rows its WAL
            // knew about (a lower bound; reconciliation reads the truth
            // from Colossus, §7.1).
            .or_else(|| self.recovered.get(&streamlet).map(|&(_, r)| r))
    }

    fn notify_schema_version(&self, table: TableId, version: u32) {
        // Broadcast, fire-and-forget: nothing is returned, and mailbox
        // FIFO guarantees any append the same caller posts afterwards sees
        // the new version — so the SMS does not wait out four queues.
        for shard in &self.shards {
            // lint:allow(L010, control plane: one boxed closure per schema change per shard)
            let bump = Box::new(move |s: &mut Shard| s.set_schema(table, version));
            let _ = shard.post(ShardMsg::Ctl(bump));
        }
    }

    fn gc_fragments(
        &self,
        table: TableId,
        streamlet: StreamletId,
        ordinals: Vec<u32>,
    ) -> VortexResult<Vec<u32>> {
        self.on_shard(self.shard_of(streamlet), move |s| {
            s.gc_run(table, streamlet, &ordinals)
        })?
    }

    fn revoke_streamlet(&self, streamlet: StreamletId) {
        let _ = self.on_shard(self.shard_of(streamlet), move |s| s.revoke(streamlet));
    }

    fn finalize_streamlet_ctl(&self, streamlet: StreamletId) -> VortexResult<Vec<FragmentDelta>> {
        self.on_shard(self.shard_of(streamlet), move |s| s.finalize(streamlet))?
    }

    /// Admit under flow control, route to the owning shard's bounded
    /// mailbox, park until the shard's group commit resolves the ack.
    // lint:hotpath(append) — facade leg: admit → mailbox post → park for group ack
    fn append_shared(
        &self,
        streamlet: StreamletId,
        rows: Arc<RowSet>,
        declared_schema_version: u32,
        expected_stream_offset: Option<u64>,
        start: Timestamp,
    ) -> VortexResult<AppendAck> {
        let bytes = rows.approx_bytes() as u64;
        let _guard = self.admit(bytes)?;
        let reply = ReplySlot::for_caller(); // lint:allow(L010, one-shot reply slot shared with the shard)
        let req = AppendReq {
            streamlet,
            rows,
            declared_schema_version,
            expected_stream_offset,
            start,
            bytes,
            reply: Arc::clone(&reply),
        };
        match self.shard_of(streamlet).post_data(ShardMsg::Append(req)) {
            Ok(()) => {}
            Err(PostError::Full) => {
                obs::global().counter(obs::SHARD_MAILBOX_SHED).inc();
                // Same retryable backpressure signal as flow control —
                // and like it, allocation-free.
                return Err(VortexError::Throttled {
                    in_flight_bytes: bytes,
                    limit_bytes: SHARD_QUEUE_DEPTH as u64,
                });
            }
            Err(PostError::Closed) => {
                return Err(VortexError::Unavailable("server shutting down".into()));
                // lint:allow(L010, cold shutdown path)
            }
        }
        let ack = match reply.await_reply(APPEND_MAX_PARKS, REPLY_PARK) {
            // The ack is a small Copy struct; the slot keeps ownership.
            Some(res) => res.clone(), // lint:allow(L010, copying a Copy-sized ack out of the slot)
            None => Err(VortexError::Unavailable(
                // lint:allow(L010, cold timeout path)
                "append ack timed out".into(),
            )),
        };
        if ack.is_ok() {
            self.bytes_since_heartbeat
                .fetch_add(bytes, Ordering::Relaxed);
        }
        ack
    }

    fn flush(&self, streamlet: StreamletId, flush_row: u64) -> VortexResult<()> {
        self.on_shard(self.shard_of(streamlet), move |s| {
            s.flush(streamlet, flush_row)
        })?
    }

    /// Broadcast to every shard; a closed shard contributes nothing.
    fn tick(&self) -> usize {
        let now = self.tt.record_timestamp();
        self.shards
            .iter()
            .filter_map(|shard| self.on_shard(shard, move |s| s.tick(now)).ok())
            .sum()
    }

    /// Per-streamlet deltas (or full state), merged across shards.
    fn build_heartbeat(&self, full: bool) -> Vec<StreamletDelta> {
        let mut deltas: Vec<_> = self
            .shards
            .iter()
            .filter_map(|shard| self.on_shard(shard, move |s| s.heartbeat(full)).ok())
            .flatten()
            .collect();
        deltas.sort_by_key(|d| d.streamlet);
        deltas
    }

    fn apply_heartbeat_response(
        &self,
        resp: &HeartbeatResponse,
        orphan_age_micros: u64,
    ) -> VortexResult<Vec<(TableId, StreamletId, Vec<u32>)>> {
        for (table, version) in &resp.schema_updates {
            self.notify_schema_version(*table, *version);
        }
        let mut acks = Vec::new();
        for (table, streamlet, ordinals) in &resp.gc {
            match self.gc_fragments(*table, *streamlet, ordinals.clone()) {
                Ok(done) => acks.push((*table, *streamlet, done)),
                // Simulated process death mid-GC: unwind to the boundary
                // with the partial batch unacknowledged — the SMS
                // re-issues it next heartbeat (deletion is idempotent).
                Err(e @ VortexError::SimulatedCrash(_)) => return Err(e),
                // Transient storage error on one streamlet: skip its ack
                // and keep going.
                Err(_) => {}
            }
        }
        // Unknown streamlets: delete only if sufficiently old ("this
        // avoids any in-flight races", §5.4.3).
        let now = self.tt.record_timestamp();
        for &slid in &resp.unknown_streamlets {
            if let Ok(Err(e @ VortexError::SimulatedCrash(_))) = self
                .on_shard(self.shard_of(slid), move |s| {
                    s.gc_unknown(slid, now, orphan_age_micros)
                })
            {
                return Err(e);
            }
        }
        Ok(acks)
    }

    fn reset_heartbeat_window(&self) {
        self.bytes_since_heartbeat.store(0, Ordering::Relaxed);
        self.last_heartbeat_at
            .store(self.tt.record_timestamp().0, Ordering::Relaxed);
    }

    /// Rollouts / scale-down (§5.5): the server keeps serving existing
    /// streamlets but receives no new ones.
    fn set_quarantined(&self, quarantined: bool) {
        self.quarantined.store(quarantined, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for StreamServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamServer")
            .field("server", &self.cfg.server)
            .field("cluster", &self.cfg.cluster)
            .field("shards", &self.shards.len())
            .finish()
    }
}
