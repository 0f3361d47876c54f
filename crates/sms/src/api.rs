//! Service traits and channel wrappers: the in-process RPC boundary.
//!
//! [`SmsApi`] is the complete call surface of an [`SmsTask`]; every
//! consumer crate (client, query, optimizer, verify, connector, core)
//! holds an [`SmsHandle`] — normally an [`SmsChannel`] that routes each
//! method through a [`vortex_common::rpc::RpcChannel`], which injects
//! faults and latency, enforces deadlines, and records per-method
//! metrics. [`ServerChannel`] does the same for the Stream Server surface
//! ([`StreamServerApi`]); the SMS registers channel-wrapped server
//! handles, so the handles it embeds in [`StreamHandle`]s route client
//! appends through the same boundary.
//!
//! Each wrapped method declares its [`CallKind`]: re-executable methods
//! (reads, max-merge updates, token-keyed begin/end DML, rotation) are
//! `Idempotent`; methods whose re-execution would duplicate effects
//! (append, table DDL, conversion commits) are `NonIdempotent`, so an
//! ambiguous ack surfaces as retryable unavailability and the caller's
//! §5.4/§5.6 reconciliation decides what really happened.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{
    ClusterId, FragmentId, ServerId, SmsTaskId, StreamId, StreamletId, TableId,
};
use vortex_common::mask::DeletionMask;
use vortex_common::row::RowSet;
use vortex_common::rpc::{CallKind, RpcChannel};
use vortex_common::schema::Schema;
use vortex_common::truetime::Timestamp;
use vortex_metastore::MetaStore;

use crate::heartbeat::{FragmentDelta, HeartbeatResponse, StreamletDelta};
use crate::meta::{FragmentMeta, StreamMeta, StreamType, StreamletMeta, TableMeta};
use crate::readset::ReadSet;
use crate::server_ctl::{AppendAck, LoadReport, ServerHandle, StreamServerApi, StreamletSpec};
use crate::sms::{DmlTicket, SmsTask, StreamHandle};

/// The complete SMS service surface. `impl SmsApi for SmsTask` (in
/// [`crate::sms`]) is the implementation; [`SmsChannel`] wraps it.
///
/// Infrastructure accessors (`store`, `register_server`, the listing
/// diagnostics) are part of the trait so consumers never need the
/// concrete type, but channel wrappers treat them as local calls — they
/// model in-process state shared with the caller, not RPCs.
pub trait SmsApi: Send + Sync {
    /// This task's id.
    fn task_id(&self) -> SmsTaskId;
    /// The shared metastore (used by verification pipelines).
    fn store(&self) -> Arc<MetaStore>;
    /// Registers a Stream Server endpoint.
    fn register_server(&self, server: ServerHandle);
    /// A fresh snapshot timestamp guaranteeing read-after-write: data
    /// whose append was acknowledged before this call is visible at it.
    fn read_snapshot(&self) -> Timestamp;
    /// Creates a table, assigning it a primary/secondary cluster pair
    /// (§5.2.1's zone assignment).
    fn create_table(&self, name: &str, schema: Schema) -> VortexResult<TableMeta>;
    /// Creates a BigLake Managed Table (§6.4): identical to
    /// [`SmsApi::create_table`] except the optimizer writes ROS blocks
    /// into the named customer bucket; queries read the union of WOS in
    /// Colossus and the bucket's blocks.
    fn create_blmt_table(
        &self,
        name: &str,
        schema: Schema,
        bucket: &str,
    ) -> VortexResult<TableMeta>;
    /// Fetches a table by id at the latest snapshot.
    fn get_table(&self, table: TableId) -> VortexResult<TableMeta>;
    /// Resolves a table by name.
    fn get_table_by_name(&self, name: &str) -> VortexResult<TableMeta>;
    /// Applies a schema change (additive column). Writers learn about it
    /// through the Stream Servers on their next append (§5.4.1).
    fn update_schema(&self, table: TableId, new_schema: Schema) -> VortexResult<TableMeta>;
    /// Swaps primary and secondary clusters — the transparent failover of
    /// §5.2.1. New streamlets will be placed in the new primary.
    fn fail_over_table(&self, table: TableId) -> VortexResult<TableMeta>;
    /// Creates a Stream plus its first Streamlet (§4.2.1 / §5.2).
    fn create_stream(&self, table: TableId, stype: StreamType) -> VortexResult<StreamHandle>;
    /// Opens the next streamlet of a stream after the current one closed
    /// (server restart, migration, irrecoverable write error — §5.2).
    /// Reconciles the previous streamlet first so the stream-level row
    /// offset of the new streamlet is exact.
    fn rotate_streamlet(&self, table: TableId, stream: StreamId) -> VortexResult<StreamHandle>;
    /// Fetches a stream's metadata.
    fn get_stream(&self, table: TableId, stream: StreamId) -> VortexResult<StreamMeta>;
    /// Fetches a streamlet's metadata.
    fn get_streamlet(&self, table: TableId, streamlet: StreamletId) -> VortexResult<StreamletMeta>;
    /// Current committed length (rows) of a stream: finalized streamlets
    /// from the metastore plus live lengths from hosting servers.
    fn stream_length(&self, table: TableId, stream: StreamId) -> VortexResult<u64>;
    /// `FlushStream` (§4.2.3): makes rows `[0, row_offset)` of a BUFFERED
    /// stream visible. Idempotent; errors if the stream is shorter than
    /// `row_offset`.
    fn flush_stream(&self, table: TableId, stream: StreamId, row_offset: u64) -> VortexResult<()>;
    /// `FinalizeStream` (§4.2.5): prevents further appends; reconciles the
    /// writable streamlet so the stream's length becomes authoritative.
    fn finalize_stream(&self, table: TableId, stream: StreamId) -> VortexResult<StreamMeta>;
    /// `BatchCommitStreams` (§4.2.4): atomically makes a set of PENDING
    /// streams visible. Finalizes and reconciles them first so their
    /// contents are authoritative at commit.
    fn batch_commit_streams(&self, table: TableId, streams: &[StreamId])
        -> VortexResult<Timestamp>;
    /// Ingests a Stream Server heartbeat (§5.5): its streamlets' fragment
    /// deltas and row counts; answers with schema updates, GC work, and
    /// unknown streamlets.
    fn heartbeat(&self, deltas: &[StreamletDelta]) -> VortexResult<HeartbeatResponse>;
    /// Acknowledges that a server deleted fragment log files: drops their
    /// metastore records ("when the Stream Server acknowledges it has
    /// deleted the Fragments, the SMS deletes the Fragments from Spanner",
    /// §5.4.3).
    fn ack_gc(
        &self,
        table: TableId,
        streamlet: StreamletId,
        ordinals: &[u32],
    ) -> VortexResult<usize>;
    /// The union of WOS and ROS visible at snapshot `at`: fragment read
    /// specs plus unfinalized streamlet tails (§7). Reads each record
    /// class of the table once; a repeat at the same snapshot that no
    /// commit or version GC can have changed shares the last listing.
    fn list_read_fragments(&self, table: TableId, at: Timestamp) -> VortexResult<Arc<ReadSet>>;
    /// Runs the disaster-resilience reconciliation protocol on a
    /// streamlet (§5.6, §7.1): bump the epoch, poison zombie writers with
    /// sentinel records in every reachable replica, determine the
    /// authoritative length by inspecting replica log files, and record
    /// it in the metastore. Returns the finalized streamlet metadata.
    fn reconcile_streamlet(
        &self,
        table: TableId,
        streamlet: StreamletId,
    ) -> VortexResult<StreamletMeta>;
    /// Marks the start of a DML statement; while any DML is active the
    /// optimizer's merged conversions will not commit (§7.3).
    fn begin_dml(&self, table: TableId) -> VortexResult<DmlTicket>;
    /// Marks the end of the DML statement holding `ticket`. Idempotent.
    fn end_dml(&self, table: TableId, ticket: DmlTicket) -> VortexResult<()>;
    /// Whether any DML statement is currently running on the table.
    fn dml_active(&self, table: TableId) -> bool;
    /// Atomically commits a WOS→ROS conversion (or a recluster merge):
    /// sets `deletion_timestamp` on the source fragments and
    /// `creation_timestamp` on the replacements, "guarantee\[ing\] that a
    /// row is included exactly once" (§6.1).
    ///
    /// With `yield_to_dml` (merged conversions), the commit aborts if a
    /// DML statement is running (§7.3). Stable 1:1 conversions pass
    /// `false`: masks carry over positionally, so they need not wait.
    ///
    /// `sources` carries, per source fragment, the number of mask
    /// versions the optimizer *observed* when it read the data: if a DML
    /// statement added a mask in between, the commit aborts with a
    /// conflict and the optimizer re-reads — whatever `yield_to_dml`
    /// says, since a 1:1 replacement carries the masks it observed.
    fn commit_conversion(
        &self,
        table: TableId,
        sources: &[(FragmentId, usize)],
        replacements: Vec<FragmentMeta>,
        yield_to_dml: bool,
    ) -> VortexResult<Timestamp>;
    /// Atomically commits a DML statement's effects (§7.3): new mask
    /// versions on fragments, tail masks on streamlets, and visibility of
    /// reinserted-row streams — all at one timestamp. Fails with
    /// `NotFound` when a conversion has replaced a masked fragment, or
    /// rows a tail mask covers, since the statement's snapshot: the
    /// statement re-resolves against the replacements.
    fn commit_dml(
        &self,
        table: TableId,
        fragment_masks: &[(FragmentId, DeletionMask)],
        tail_masks: &[(StreamletId, DeletionMask)],
        reinserted_streams: &[StreamId],
    ) -> VortexResult<Timestamp>;
    /// Physically deletes fragment files whose grace period passed and
    /// drops their metadata — the groomer's sweep (§5.4.3).
    fn run_gc(&self, table: TableId) -> VortexResult<usize>;
    /// Drops a table: removes the name index and the table record. The
    /// data and physical metadata stay behind as orphans for the groomer
    /// (§5.4.3: "user initiated actions such as deletions of tables ...
    /// can trigger garbage collection. As a catch all, a 'groomer' job
    /// runs periodically to detect Fragments, Streams, or Streamlets that
    /// may be orphaned").
    fn drop_table(&self, table: TableId) -> VortexResult<()>;
    /// The groomer sweep: finds streams/streamlets/fragments whose table
    /// record no longer exists, deletes their log files and ROS blocks
    /// from storage, and drops their metadata. Returns (entities removed,
    /// files deleted).
    fn run_groomer(&self) -> VortexResult<(usize, usize)>;
    /// All fragment metadata of a table at a snapshot (diagnostics).
    /// Operations plan from [`SmsApi::list_read_fragments`].
    fn list_fragments(&self, table: TableId, at: Timestamp) -> Vec<FragmentMeta>;
    /// [`SmsApi::list_fragments`] that fails on a record that does not
    /// decode instead of leaving it out: what a tail read whose streamlet
    /// was reconciled past its snapshot plans from.
    fn try_list_fragments(&self, table: TableId, at: Timestamp) -> VortexResult<Vec<FragmentMeta>> {
        crate::meta::scan(&self.store(), table, at).collect()
    }
    /// All streamlet metadata of a table (diagnostics).
    fn list_streamlets(&self, table: TableId) -> Vec<StreamletMeta>;
}

/// A shareable handle to an SMS endpoint.
pub type SmsHandle = Arc<dyn SmsApi>;

/// One service instance behind an [`RpcChannel`] — the channel wrapper
/// of both hops ([`SmsChannel`], [`ServerChannel`]).
///
/// The endpoint is also the instance's *process boundary*: the wrapped
/// instance is swappable (kill/restart chaos replaces a dead one with one
/// rebuilt from durable state — the metastore for an SMS task, WAL +
/// checkpoint for a Stream Server), and a
/// [`VortexError::SimulatedCrash`] surfacing from any call marks the
/// instance dead — every subsequent call fails with retryable
/// unavailability until [`Endpoint::restart`] installs a replacement.
/// Callers therefore keep their handles across restarts, exactly like
/// clients keep a service address across task reschedules (§5.2.1).
pub struct Endpoint<S: ?Sized> {
    /// What the instance is called in this boundary's errors.
    name: String,
    inner: parking_lot::RwLock<Arc<S>>,
    channel: Arc<RpcChannel>,
    dead: AtomicBool,
}

/// An [`SmsHandle`] whose every service call crosses an [`RpcChannel`].
pub type SmsChannel = Endpoint<SmsTask>;

/// A [`ServerHandle`] whose data-plane and control calls cross an
/// [`RpcChannel`]; placement/introspection accessors stay local. Dead, it
/// answers no RPCs, reports itself quarantined so placement skips it, and
/// produces empty heartbeats.
pub type ServerChannel = Endpoint<dyn StreamServerApi>;

impl<S: ?Sized> Endpoint<S> {
    /// Wraps `inner` — `name` in error messages — behind a channel.
    pub fn new(name: String, inner: Arc<S>, channel: Arc<RpcChannel>) -> Arc<Self> {
        Arc::new(Endpoint {
            name,
            inner: parking_lot::RwLock::new(inner),
            channel,
            dead: AtomicBool::new(false),
        })
    }

    /// The channel carrying this handle's traffic.
    pub fn channel(&self) -> &Arc<RpcChannel> {
        &self.channel
    }

    /// The wrapped instance (rig plumbing and local accessors; service
    /// calls go through the trait).
    pub fn instance(&self) -> Arc<S> {
        Arc::clone(&self.inner.read())
    }

    /// Marks the instance dead: calls fail with retryable unavailability
    /// until [`Endpoint::restart`].
    pub fn kill(&self) {
        self.dead.store(true, Ordering::SeqCst);
    }

    /// Whether the wrapped instance is currently dead.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Installs a replacement instance (rebuilt from durable state) and
    /// brings the endpoint back up.
    pub fn restart(&self, inner: Arc<S>) {
        *self.inner.write() = inner;
        self.dead.store(false, Ordering::SeqCst);
    }

    /// The process boundary around one call into the instance: a dead
    /// instance refuses, and a crash point firing inside the call kills
    /// the instance and surfaces as retryable unavailability (callers
    /// handle it like any other task death).
    fn boundary<T>(&self, call: impl FnOnce(&S) -> VortexResult<T>) -> VortexResult<T> {
        if self.is_dead() {
            return Err(VortexError::Unavailable(format!("{} is down", self.name)));
        }
        match call(&self.instance()) {
            Err(VortexError::SimulatedCrash(point)) => {
                self.kill();
                Err(VortexError::Unavailable(format!(
                    "{} died at crash point '{point}'",
                    self.name
                )))
            }
            other => other,
        }
    }

    /// Routes one service call through the channel, inside the boundary.
    fn service<T>(
        &self,
        method: &'static str,
        kind: CallKind,
        f: impl FnMut(&S) -> VortexResult<T>,
    ) -> VortexResult<T> {
        self.service_sized(method, kind, 0, f)
    }

    /// [`Endpoint::service`] with a declared payload size, charged against
    /// admission byte quotas (`append` is the only bulk mover).
    fn service_sized<T>(
        &self,
        method: &'static str,
        kind: CallKind,
        payload_bytes: u64,
        mut f: impl FnMut(&S) -> VortexResult<T>,
    ) -> VortexResult<T> {
        self.boundary(|inner| {
            self.channel
                .call_sized(method, kind, payload_bytes, || f(inner))
        })
    }
}

impl<S: ?Sized> std::fmt::Debug for Endpoint<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("name", &self.name)
            .field("dead", &self.is_dead())
            .finish_non_exhaustive()
    }
}

impl SmsApi for SmsChannel {
    // Shared in-process state, not RPCs: served locally (a dead task's
    // durable metadata remains inspectable, like the metastore itself).
    fn task_id(&self) -> SmsTaskId {
        self.instance().task_id()
    }
    fn store(&self) -> Arc<MetaStore> {
        self.instance().store()
    }
    fn register_server(&self, server: ServerHandle) {
        self.instance().register_server(server)
    }
    fn read_snapshot(&self) -> Timestamp {
        self.instance().read_snapshot()
    }
    fn dml_active(&self, table: TableId) -> bool {
        self.instance().dml_active(table)
    }
    fn list_fragments(&self, table: TableId, at: Timestamp) -> Vec<FragmentMeta> {
        self.instance().list_fragments(table, at)
    }
    fn list_streamlets(&self, table: TableId) -> Vec<StreamletMeta> {
        self.instance().list_streamlets(table)
    }

    // DDL and conversion commits: re-execution would duplicate effects.
    fn create_table(&self, name: &str, schema: Schema) -> VortexResult<TableMeta> {
        self.service("create_table", CallKind::NonIdempotent, |t| {
            t.create_table(name, schema.clone())
        })
    }
    fn create_blmt_table(
        &self,
        name: &str,
        schema: Schema,
        bucket: &str,
    ) -> VortexResult<TableMeta> {
        self.service("create_blmt_table", CallKind::NonIdempotent, |t| {
            t.create_blmt_table(name, schema.clone(), bucket)
        })
    }
    fn update_schema(&self, table: TableId, new_schema: Schema) -> VortexResult<TableMeta> {
        self.service("update_schema", CallKind::NonIdempotent, |t| {
            t.update_schema(table, new_schema.clone())
        })
    }
    fn drop_table(&self, table: TableId) -> VortexResult<()> {
        self.service("drop_table", CallKind::NonIdempotent, |t| {
            t.drop_table(table)
        })
    }
    fn commit_conversion(
        &self,
        table: TableId,
        sources: &[(FragmentId, usize)],
        replacements: Vec<FragmentMeta>,
        yield_to_dml: bool,
    ) -> VortexResult<Timestamp> {
        self.service("commit_conversion", CallKind::NonIdempotent, |t| {
            t.commit_conversion(table, sources, replacements.clone(), yield_to_dml)
        })
    }

    // Reads, max-merge mutations, and token-keyed calls: safe to
    // re-execute after an ambiguous ack.
    fn get_table(&self, table: TableId) -> VortexResult<TableMeta> {
        self.service("get_table", CallKind::Idempotent, |t| t.get_table(table))
    }
    fn get_table_by_name(&self, name: &str) -> VortexResult<TableMeta> {
        self.service("get_table_by_name", CallKind::Idempotent, |t| {
            t.get_table_by_name(name)
        })
    }
    fn fail_over_table(&self, table: TableId) -> VortexResult<TableMeta> {
        self.service("fail_over_table", CallKind::Idempotent, |t| {
            t.fail_over_table(table)
        })
    }
    fn create_stream(&self, table: TableId, stype: StreamType) -> VortexResult<StreamHandle> {
        // Re-execution strands an empty stream, which the groomer reaps;
        // the returned handle is the only one the caller writes to.
        self.service("create_stream", CallKind::Idempotent, |t| {
            t.create_stream(table, stype)
        })
    }
    fn rotate_streamlet(&self, table: TableId, stream: StreamId) -> VortexResult<StreamHandle> {
        self.service("rotate_streamlet", CallKind::Idempotent, |t| {
            t.rotate_streamlet(table, stream)
        })
    }
    fn get_stream(&self, table: TableId, stream: StreamId) -> VortexResult<StreamMeta> {
        self.service("get_stream", CallKind::Idempotent, |t| {
            t.get_stream(table, stream)
        })
    }
    fn get_streamlet(&self, table: TableId, streamlet: StreamletId) -> VortexResult<StreamletMeta> {
        self.service("get_streamlet", CallKind::Idempotent, |t| {
            t.get_streamlet(table, streamlet)
        })
    }
    fn stream_length(&self, table: TableId, stream: StreamId) -> VortexResult<u64> {
        self.service("stream_length", CallKind::Idempotent, |t| {
            t.stream_length(table, stream)
        })
    }
    fn flush_stream(&self, table: TableId, stream: StreamId, row_offset: u64) -> VortexResult<()> {
        self.service("flush_stream", CallKind::Idempotent, |t| {
            t.flush_stream(table, stream, row_offset)
        })
    }
    fn finalize_stream(&self, table: TableId, stream: StreamId) -> VortexResult<StreamMeta> {
        self.service("finalize_stream", CallKind::Idempotent, |t| {
            t.finalize_stream(table, stream)
        })
    }
    fn batch_commit_streams(
        &self,
        table: TableId,
        streams: &[StreamId],
    ) -> VortexResult<Timestamp> {
        self.service("batch_commit_streams", CallKind::Idempotent, |t| {
            t.batch_commit_streams(table, streams)
        })
    }
    fn heartbeat(&self, deltas: &[StreamletDelta]) -> VortexResult<HeartbeatResponse> {
        self.service("heartbeat", CallKind::Idempotent, |t| t.heartbeat(deltas))
    }
    fn ack_gc(
        &self,
        table: TableId,
        streamlet: StreamletId,
        ordinals: &[u32],
    ) -> VortexResult<usize> {
        self.service("ack_gc", CallKind::Idempotent, |t| {
            t.ack_gc(table, streamlet, ordinals)
        })
    }
    fn list_read_fragments(&self, table: TableId, at: Timestamp) -> VortexResult<Arc<ReadSet>> {
        self.service("list_read_fragments", CallKind::Idempotent, |t| {
            t.list_read_fragments(table, at)
        })
    }
    fn reconcile_streamlet(
        &self,
        table: TableId,
        streamlet: StreamletId,
    ) -> VortexResult<StreamletMeta> {
        self.service("reconcile_streamlet", CallKind::Idempotent, |t| {
            t.reconcile_streamlet(table, streamlet)
        })
    }
    fn begin_dml(&self, table: TableId) -> VortexResult<DmlTicket> {
        // Token minted OUTSIDE the retry loop: every attempt writes the
        // same marker key, so an ambiguous ack cannot leak a lock.
        let token = self.instance().mint_dml_token();
        self.service("begin_dml", CallKind::Idempotent, |t| {
            t.begin_dml_with(table, token)
        })
    }
    fn end_dml(&self, table: TableId, ticket: DmlTicket) -> VortexResult<()> {
        self.service("end_dml", CallKind::Idempotent, |t| {
            t.end_dml(table, ticket)
        })
    }
    fn commit_dml(
        &self,
        table: TableId,
        fragment_masks: &[(FragmentId, DeletionMask)],
        tail_masks: &[(StreamletId, DeletionMask)],
        reinserted_streams: &[StreamId],
    ) -> VortexResult<Timestamp> {
        // Re-execution re-pushes the same masks at a later timestamp —
        // a union-idempotent effect — and overwrites `committed_at`
        // MVCC-safely, so the ledger a reader sees is unchanged.
        self.service("commit_dml", CallKind::Idempotent, |t| {
            t.commit_dml(table, fragment_masks, tail_masks, reinserted_streams)
        })
    }
    fn run_gc(&self, table: TableId) -> VortexResult<usize> {
        self.service("run_gc", CallKind::Idempotent, |t| t.run_gc(table))
    }
    fn run_groomer(&self) -> VortexResult<(usize, usize)> {
        self.service("run_groomer", CallKind::Idempotent, |t| t.run_groomer())
    }
}

impl StreamServerApi for ServerChannel {
    fn server_id(&self) -> ServerId {
        self.instance().server_id()
    }
    fn cluster(&self) -> ClusterId {
        self.instance().cluster()
    }
    fn load(&self) -> LoadReport {
        if self.is_dead() {
            // Placement must skip a dead server exactly like a
            // quarantined one (§5.5: "health characteristics").
            return LoadReport {
                quarantined: true,
                ..LoadReport::default()
            };
        }
        self.instance().load()
    }
    fn streamlet_rows(&self, streamlet: StreamletId) -> Option<u64> {
        if self.is_dead() {
            return None;
        }
        self.instance().streamlet_rows(streamlet)
    }
    fn notify_schema_version(&self, table: TableId, version: u32) {
        if self.is_dead() {
            return; // dead processes hear nothing
        }
        self.instance().notify_schema_version(table, version)
    }
    fn revoke_streamlet(&self, streamlet: StreamletId) {
        if self.is_dead() {
            return; // recovered streamlets come back revoked anyway
        }
        self.instance().revoke_streamlet(streamlet)
    }
    fn tick(&self) -> usize {
        if self.is_dead() {
            return 0;
        }
        self.instance().tick()
    }
    fn build_heartbeat(&self, full: bool) -> Vec<StreamletDelta> {
        if self.is_dead() {
            // A dead process sends no heartbeats; an empty one keeps
            // drivers that poll unconditionally harmless.
            return Vec::new();
        }
        self.instance().build_heartbeat(full)
    }
    fn apply_heartbeat_response(
        &self,
        resp: &HeartbeatResponse,
        orphan_age_micros: u64,
    ) -> VortexResult<Vec<(TableId, StreamletId, Vec<u32>)>> {
        // A local call, not an RPC — but the same process boundary.
        self.boundary(|s| s.apply_heartbeat_response(resp, orphan_age_micros))
    }
    fn reset_heartbeat_window(&self) {
        if self.is_dead() {
            return;
        }
        self.instance().reset_heartbeat_window()
    }
    fn set_quarantined(&self, quarantined: bool) {
        if self.is_dead() {
            return;
        }
        self.instance().set_quarantined(quarantined)
    }

    fn create_streamlet(&self, spec: StreamletSpec) -> VortexResult<()> {
        self.service("create_streamlet", CallKind::NonIdempotent, |s| {
            s.create_streamlet(spec.clone())
        })
    }
    fn gc_fragments(
        &self,
        table: TableId,
        streamlet: StreamletId,
        ordinals: Vec<u32>,
    ) -> VortexResult<Vec<u32>> {
        self.service("gc_fragments", CallKind::Idempotent, |s| {
            s.gc_fragments(table, streamlet, ordinals.clone())
        })
    }
    fn finalize_streamlet_ctl(&self, streamlet: StreamletId) -> VortexResult<Vec<FragmentDelta>> {
        self.service("finalize_streamlet_ctl", CallKind::Idempotent, |s| {
            s.finalize_streamlet_ctl(streamlet)
        })
    }
    fn append_shared(
        &self,
        streamlet: StreamletId,
        rows: Arc<RowSet>,
        declared_schema_version: u32,
        expected_stream_offset: Option<u64>,
        start: Timestamp,
    ) -> VortexResult<AppendAck> {
        // THE ambiguous-ack case (§4.2.2): re-executing would duplicate
        // rows, so a lost reply surfaces as retryable unavailability and
        // the writer's rotate-reconcile-dedup path resolves it. The row
        // payload size is declared so admission byte quotas see volume.
        self.service_sized(
            "append",
            CallKind::NonIdempotent,
            rows.approx_bytes() as u64,
            |s| {
                s.append_shared(
                    streamlet,
                    Arc::clone(&rows),
                    declared_schema_version,
                    expected_stream_offset,
                    start,
                )
            },
        )
    }
    fn flush(&self, streamlet: StreamletId, flush_row: u64) -> VortexResult<()> {
        self.service("flush", CallKind::Idempotent, |s| {
            s.flush(streamlet, flush_row)
        })
    }
}
