//! Shard-per-core Stream Server internals: single-writer shard threads.
//!
//! The server partitions its hosted streamlets across a fixed set of
//! shard threads (a hash of the streamlet id picks the shard). Each
//! [`HostedStreamlet`] is owned by exactly one shard — there is no lock
//! around per-streamlet state, because only its owner thread ever
//! touches it. Appends are routed to shards over bounded mailboxes
//! ([`vortex_common::mailbox`]); the shard coalesces whatever is queued
//! into a size/time-bounded **group commit**: one dual-replica Colossus
//! write per streamlet run and one WAL record per group, amortizing the
//! fixed write overhead (§5.6's ~600µs base service) across every append
//! in the group. Per-append acks resolve through [`ReplySlot`]s after
//! the whole group is durable. Everything that is not an append reaches
//! the shard as one kind of message: a closure the facade posts
//! ([`crate::server::StreamServer::on_shard`]) and the owning thread runs
//! against its `&mut Shard`, in posting order relative to the same
//! caller's appends.
//!
//! Crash semantics move to group granularity: `server.append.pre_ack`
//! fires once per group, after the group's rows and WAL record are
//! durable; every append in the group then observes the simulated death
//! (no acks escape a dead server). A crash during a replica write aborts
//! the rest of the group the same way.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{StreamletId, TableId};
use vortex_common::mailbox::MailboxReceiver;
use vortex_common::obs::{self, Counter, Histogram};
use vortex_common::truetime::Timestamp;
use vortex_sms::heartbeat::{FragmentDelta, StreamletDelta};
use vortex_sms::meta::wos_path;
use vortex_sms::server_ctl::StreamletSpec;

use crate::hosted::{AppendAck, AppendReq, GroupScratch, HostedStreamlet, ShardEnv};
use crate::wal::{self, ServerLog, WalEvent};

/// Max appends coalesced into one group commit: with ~600µs of fixed
/// Colossus overhead per write, 64 already amortizes it below 10µs an
/// append while bounding how long the first append of a group waits.
const GROUP_MAX_APPENDS: usize = 64;
/// Max bytes coalesced into one group commit: four 2 MB write buffers
/// (§5.4.4), so one group never holds more than a few blocks in its arena.
const GROUP_MAX_BYTES: u64 = 8 << 20;

/// The one control message: work carried to the owning thread. Rare,
/// never shed, run in posting order relative to appends from the same
/// caller.
pub(crate) type ShardFn = Box<dyn FnOnce(&mut Shard) + Send>;

/// A message in a shard's mailbox.
pub(crate) enum ShardMsg {
    Append(AppendReq),
    Ctl(ShardFn),
}

/// The ambiguous-ack crash point, at group granularity: the group's rows
/// and WAL record are durable on both replicas, but no caller has seen
/// an ack yet (§4.2.2). A fire here fails *every* append in the group —
/// a dead server sends no acks — and the clients' offset-based retries
/// must dedup.
fn group_pre_ack() -> VortexResult<()> {
    vortex_common::crash_point!("server.append.pre_ack");
    Ok(())
}

/// Everything one shard thread owns. Nothing in here is shared: the
/// streamlet map, WAL epoch, schema cache, and scratch arenas belong to
/// this thread alone (the one exception, `writable`, is an atomic the
/// facade reads for load reports).
pub(crate) struct Shard {
    env: ShardEnv,
    log: ServerLog,
    streamlets: HashMap<StreamletId, HostedStreamlet>,
    latest_schema: HashMap<TableId, u32>,
    /// Writable-streamlet count, published for the facade's LoadReport.
    writable: Arc<AtomicU64>,
    /// Group-commit arenas, allocated once and reused for every group.
    scratch: GroupScratch,
    batch: Vec<AppendReq>,
    results: Vec<VortexResult<AppendAck>>,
    wal_events: Vec<WalEvent>,
    /// Metric handles interned at spawn; the hot path never formats
    /// names or takes the registry lock.
    m_group_appends: Arc<Histogram>,
    m_group_bytes: Arc<Histogram>,
    m_groups: Arc<Counter>,
    m_shard_appends: Arc<Counter>,
}

impl Shard {
    pub(crate) fn new(idx: u32, env: ShardEnv, log: ServerLog, writable: Arc<AtomicU64>) -> Self {
        let m = obs::global();
        Shard {
            m_group_appends: m.histogram(obs::GROUP_COMMIT_APPENDS),
            m_group_bytes: m.histogram(obs::GROUP_COMMIT_BYTES),
            m_groups: m.counter(obs::GROUP_COMMIT_GROUPS),
            // lint:allow(L010, cold construction — once per shard lifetime)
            m_shard_appends: m.counter(&format!("{}{idx:02}.appends", obs::SHARD_APPENDS_PREFIX)),
            env,
            log,
            streamlets: HashMap::new(), // lint:allow(L010, cold construction)
            latest_schema: HashMap::new(), // lint:allow(L010, cold construction)
            writable,
            scratch: GroupScratch::new(),
            batch: Vec::new(),      // lint:allow(L010, cold construction)
            results: Vec::new(),    // lint:allow(L010, cold construction)
            wal_events: Vec::new(), // lint:allow(L010, cold construction)
        }
    }

    /// The shard main loop: pull (parked until a post or `close`) →
    /// greedily coalesce a group → commit → resolve acks → run any control
    /// message that closed the group. Exits when the facade closes the
    /// mailbox and it has drained.
    pub(crate) fn run(mut self, mut rx: MailboxReceiver<ShardMsg>) {
        while let Some(msg) = rx.pull() {
            let first = match msg {
                ShardMsg::Append(first) => first,
                ShardMsg::Ctl(f) => {
                    f(&mut self);
                    continue;
                }
            };
            let mut group_bytes = first.bytes;
            self.batch.push(first);
            // Greedy drain up to the group bounds; stop at the first
            // control message so posting order is kept.
            let mut pending_ctl = None;
            while self.batch.len() < GROUP_MAX_APPENDS && group_bytes < GROUP_MAX_BYTES {
                match rx.try_pull() {
                    Some(ShardMsg::Append(r)) => {
                        group_bytes += r.bytes;
                        self.batch.push(r);
                    }
                    Some(ShardMsg::Ctl(f)) => {
                        pending_ctl = Some(f);
                        break;
                    }
                    None => break,
                }
            }
            self.commit_group(group_bytes);
            if let Some(f) = pending_ctl {
                f(&mut self);
            }
        }
    }

    /// Commits one group: sorts the batch into per-streamlet runs
    /// (stable, so per-streamlet arrival order is preserved), lands each
    /// run through [`HostedStreamlet::append_group`], writes ONE WAL
    /// record covering every fragment sealed by the group, checks the
    /// group-granularity ambiguous-ack crash point, and only then
    /// resolves the acks.
    // lint:hotpath(shard_commit) — shard leg: group commit → dual-replica write → ack fan-out
    fn commit_group(&mut self, group_bytes: u64) {
        let mut batch = std::mem::take(&mut self.batch);
        let mut results = std::mem::take(&mut self.results);
        let mut wal_events = std::mem::take(&mut self.wal_events);
        results.clear();
        wal_events.clear();
        batch.sort_by_key(|r| r.streamlet);

        let mut crashed: Option<VortexError> = None;
        let mut i = 0usize;
        while i < batch.len() {
            let slid = batch[i].streamlet;
            let mut j = i + 1;
            while j < batch.len() && batch[j].streamlet == slid {
                j += 1;
            }
            if let Some(e) = &crashed {
                // A crash earlier in the group: the server is dead at
                // that instruction; no later run executes.
                for _ in i..j {
                    results.push(Err(e.clone())); // lint:allow(L010, cold crash path)
                }
                i = j;
                continue;
            }
            match self.streamlets.get_mut(&slid) {
                None => {
                    // Not hosted by this incarnation: same retryable
                    // signal the facade uses (reconcile + rotate, §5.6).
                    for _ in i..j {
                        results.push(Err(VortexError::StreamletFinalized(slid)));
                        // lint:allow(L010, results arena reuse)
                    }
                }
                Some(sl) => {
                    let latest = self
                        .latest_schema
                        .get(&sl.spec.table)
                        .copied()
                        .unwrap_or(sl.spec.schema.version);
                    let before = results.len();
                    sl.append_group(
                        &batch[i..j],
                        latest,
                        &self.env,
                        &mut self.scratch,
                        &mut results,
                    );
                    sl.drain_unlogged_seals(&mut wal_events);
                    if let Some(e) = results[before..]
                        .iter()
                        .filter_map(|r| r.as_ref().err())
                        .find(|e| matches!(e, VortexError::SimulatedCrash(_)))
                    {
                        crashed = Some(e.clone()); // lint:allow(L010, cold crash path)
                    }
                }
            }
            i = j;
        }

        if crashed.is_none() {
            // One WAL record for the whole group: every fragment sealed
            // while committing it (best-effort, like the old per-event
            // log). Record-aligned framing means a torn tail truncates
            // to a whole-group prefix on recovery.
            if !wal_events.is_empty() {
                if let Ok(home) = self.env.fleet.get(self.env.cfg.cluster) {
                    let _ = self.log.log_batch(home, &wal_events);
                }
            }
            if let Err(e) = group_pre_ack() {
                crashed = Some(e);
            }
        }
        if let Some(e) = crashed {
            // Group-granularity death: a dead server acks nothing, even
            // appends whose rows are already durable — the canonical
            // ambiguous ack, absorbed by client-side offset dedup.
            for r in results.iter_mut() {
                *r = Err(e.clone()); // lint:allow(L010, cold crash path)
            }
        }

        for (req, res) in batch.iter().zip(results.drain(..)) {
            req.reply.deliver(res);
        }
        self.m_group_appends.record(batch.len() as u64);
        self.m_group_bytes.record(group_bytes);
        self.m_groups.inc();
        self.m_shard_appends.add(batch.len() as u64);
        self.publish_writable();

        batch.clear();
        self.batch = batch;
        self.results = results;
        wal_events.clear();
        self.wal_events = wal_events;
    }

    fn publish_writable(&self) {
        let n = self.streamlets.values().filter(|s| s.is_writable()).count() as u64;
        self.writable.store(n, Ordering::Release);
    }

    fn log_one(&mut self, ev: WalEvent) {
        if let Ok(home) = self.env.fleet.get(self.env.cfg.cluster) {
            let _ = self.log.log(home, &ev);
        }
    }

    /// Hosts a new streamlet: fragment 0's header on both replicas, then
    /// the WAL record.
    pub(crate) fn open(&mut self, spec: StreamletSpec) -> VortexResult<()> {
        let opened = WalEvent::StreamletOpened {
            table: spec.table,
            streamlet: spec.streamlet,
            first_stream_row: spec.first_stream_row,
        };
        let sl = HostedStreamlet::open(spec, &self.env)?;
        self.streamlets.insert(sl.spec.streamlet, sl); // lint:allow(L010, control plane: once per streamlet)
        self.log_one(opened);
        self.publish_writable();
        Ok(())
    }

    /// Persists a flush watermark (streamlet-relative) to the log (§5.4.4).
    /// A record the write rule gives up on finalizes the streamlet, so the
    /// writable count is republished.
    pub(crate) fn flush(&mut self, streamlet: StreamletId, flush_row: u64) -> VortexResult<()> {
        let sl = self
            .streamlets
            .get_mut(&streamlet)
            .ok_or(VortexError::StreamletFinalized(streamlet))?;
        let flushed = sl.flush(flush_row, &self.env);
        self.publish_writable();
        flushed
    }

    /// Seals the streamlet's last fragment (bloom + footer) and reports
    /// every fragment it sealed, leaving the heartbeat's dirty flags be.
    pub(crate) fn finalize(&mut self, streamlet: StreamletId) -> VortexResult<Vec<FragmentDelta>> {
        let sl = self
            .streamlets
            .get_mut(&streamlet)
            // lint:allow(L010, control plane: cold not-hosted error)
            .ok_or_else(|| VortexError::NotFound(format!("streamlet {streamlet} not hosted")))?;
        sl.finalize(&self.env)?;
        let sealed = sl.done_fragments().to_vec();
        self.log_one(WalEvent::StreamletFinalized { streamlet });
        self.publish_writable();
        Ok(sealed)
    }

    /// The SMS took ownership away (reconciliation, §5.6).
    pub(crate) fn revoke(&mut self, streamlet: StreamletId) {
        if let Some(sl) = self.streamlets.get_mut(&streamlet) {
            sl.revoke();
        }
        self.publish_writable();
    }

    /// Records the table's newest schema version for the §5.4.1 relay.
    pub(crate) fn set_schema(&mut self, table: TableId, version: u32) {
        let e = self.latest_schema.entry(table).or_insert(version);
        *e = (*e).max(version);
    }

    /// Idle tick: standalone commit records for streamlets whose tail has
    /// been quiet (§7.1). Returns how many were written.
    pub(crate) fn tick(&mut self, now: Timestamp) -> usize {
        let env = &self.env;
        let committed = self
            .streamlets
            .values_mut()
            .filter_map(|sl| sl.commit_if_idle(now, env).ok())
            .filter(|&committed| committed)
            .count();
        self.publish_writable();
        committed
    }

    /// This shard's slice of the heartbeat (§5.5).
    pub(crate) fn heartbeat(&mut self, full: bool) -> Vec<StreamletDelta> {
        self.streamlets
            .values_mut()
            .filter_map(|sl| sl.heartbeat_delta(full))
            .collect()
    }

    /// Committed streamlet-relative rows, if hosted here.
    pub(crate) fn rows(&self, streamlet: StreamletId) -> Option<u64> {
        self.streamlets.get(&streamlet).map(|sl| sl.rows())
    }

    /// Writes this shard's metadata checkpoint and truncates its WAL (§5.3).
    pub(crate) fn checkpoint(&mut self) -> VortexResult<()> {
        let snapshot =
            wal::encode_snapshot(self.streamlets.values().map(|sl| wal::SnapshotEntry {
                streamlet: sl.spec.streamlet,
                table: sl.spec.table,
                rows: sl.rows(),
                fragments: sl.done_fragments().len() as u64,
                writable: sl.is_writable(),
            }));
        let home = self.env.fleet.get(self.env.cfg.cluster)?;
        self.log.checkpoint(home, &snapshot)
    }

    /// Deletes fragment files for one GC order (§5.5). Deletion is
    /// idempotent; a partial batch is simply unacknowledged and the SMS
    /// re-issues it next heartbeat.
    pub(crate) fn gc_run(
        &mut self,
        table: TableId,
        streamlet: StreamletId,
        ordinals: &[u32],
    ) -> VortexResult<Vec<u32>> {
        let mut deleted = Vec::new();
        for ord in ordinals {
            // Mid-GC death: some fragments of the batch are deleted and
            // unacknowledged; the SMS re-issues the work list (§5.5).
            vortex_common::crash_point!("server.gc.mid");
            let path = wos_path(table, streamlet, *ord);
            let mut ok = true;
            for c in self.env.fleet.cluster_ids() {
                if let Ok(cluster) = self.env.fleet.get(c) {
                    if cluster.exists(&path) && cluster.delete(&path).is_err() {
                        ok = false;
                    }
                }
            }
            if ok {
                deleted.push(*ord);
            }
        }
        if !deleted.is_empty() {
            self.log_one(WalEvent::FragmentsDeleted {
                streamlet,
                ordinals: deleted.clone(),
            });
        }
        Ok(deleted)
    }

    /// Deletes a streamlet the SMS does not know, but only if it is old
    /// enough ("this avoids any in-flight races", §5.4.3). Hosted
    /// streamlets keep no creation instant: one that has written nothing
    /// may still be racing its own creation and is never old enough, one
    /// that has is once the clock passes `min_age_micros`. Returns whether
    /// the streamlet was removed.
    pub(crate) fn gc_unknown(
        &mut self,
        streamlet: StreamletId,
        now: Timestamp,
        min_age_micros: u64,
    ) -> VortexResult<bool> {
        let Some(sl) = self.streamlets.get(&streamlet) else {
            return Ok(false);
        };
        if !sl.has_written() || now.micros() < min_age_micros {
            return Ok(false);
        }
        let table = sl.spec.table;
        let ordinals: Vec<u32> = sl.done_fragments().iter().map(|d| d.ordinal).collect();
        match self.gc_run(table, streamlet, &ordinals) {
            Err(e @ VortexError::SimulatedCrash(_)) => Err(e),
            _ => {
                self.streamlets.remove(&streamlet);
                self.publish_writable();
                Ok(true)
            }
        }
    }
}
