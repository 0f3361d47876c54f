//! A BigQuery region in one process: clusters, control plane, data plane,
//! optimizer, and the background loops that tie them together (§5.2.1's
//! "a BigQuery region consists of 2 or more Borg clusters").

use std::sync::Arc;

use vortex_admission::{AdmissionConfig, AdmissionController};
use vortex_client::{DmlExecutor, QueryEngine, ReadCache, VortexClient};
use vortex_colossus::{Colossus, StorageFleet};
use vortex_common::error::VortexResult;
use vortex_common::ids::{ClusterId, IdGen, ServerId, SmsTaskId, TableId};
use vortex_common::latency::WriteProfile;
use vortex_common::obs::{self, FreshnessProbe, MetricsSnapshot};
use vortex_common::rpc::{class_scope, RpcChannel, RpcChannelConfig, RpcInterceptor, WorkClass};
use vortex_common::truetime::{SimClock, Timestamp, TrueTime};
use vortex_metastore::{MetaCheckpointOutcome, MetaRecovery, MetaStore};
use vortex_optimizer::{OptimizerConfig, StorageOptimizer};
use vortex_server::{ServerConfig, StreamServer};
use vortex_sms::api::{ServerChannel, SmsApi, SmsChannel, SmsHandle};
use vortex_sms::server_ctl::ServerHandle;
use vortex_sms::slicer::{Slicer, SlicerView};
use vortex_sms::sms::{SmsConfig, SmsTask};
use vortex_verify::Verifier;

/// How to assemble a region.
#[derive(Debug, Clone)]
pub struct RegionConfig {
    /// Number of Colossus clusters (≥ 2 for dual-replica writes).
    pub clusters: usize,
    /// Stream Servers per cluster.
    pub servers_per_cluster: usize,
    /// SMS tasks (Slicer shards tables across them when > 1).
    pub sms_tasks: usize,
    /// Latency model of the storage clusters.
    pub write_profile: WriteProfile,
    /// Seed for the latency model's RNGs.
    pub seed: u64,
    /// Starting virtual time (microseconds).
    pub start_micros: u64,
    /// TrueTime uncertainty half-width (§5.4.4: single-digit ms).
    pub tt_epsilon_micros: u64,
    /// Per-server overrides applied to every Stream Server.
    pub block_buffer_bytes: usize,
    /// Fragment rotation threshold.
    pub fragment_max_bytes: u64,
    /// Storage Optimization Service tuning.
    pub optimizer: OptimizerConfig,
    /// Root directory for on-disk clusters; `None` = in-memory.
    pub disk_root: Option<std::path::PathBuf>,
    /// GC grace period override in virtual microseconds (`None` = the
    /// SMS default, 10 s). This is the time-travel horizon: snapshots
    /// older than the grace may fail with `NotFound` ("snapshot too
    /// old") once files are collected, so it must comfortably exceed the
    /// longest read. Tests that advance the virtual clock aggressively
    /// must scale it up in proportion.
    pub gc_grace_micros: Option<u64>,
    /// RPC channel behavior (latency model, seed) for the SMS and Stream
    /// Server hops. Fault plans are armed at runtime
    /// via [`Region::sms_rpc`] / [`Region::server_rpc`].
    pub rpc: RpcChannelConfig,
    /// Admission-control policy installed on both RPC channels (quotas,
    /// priority-class shedding, adaptive overload protection). The
    /// default admits everything (unlimited quotas) while still keeping
    /// per-class counters; overload soaks set real quotas, and
    /// [`vortex_admission::AdmissionConfig::disabled`] is the
    /// no-protection control arm.
    pub admission: AdmissionConfig,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig {
            clusters: 2,
            servers_per_cluster: 2,
            sms_tasks: 1,
            write_profile: WriteProfile::instant(),
            seed: 7,
            start_micros: 1_000_000,
            tt_epsilon_micros: 3_500,
            block_buffer_bytes: vortex_wos::DEFAULT_BLOCK_BUFFER_BYTES,
            fragment_max_bytes: vortex_wos::DEFAULT_FRAGMENT_MAX_BYTES,
            optimizer: OptimizerConfig::default(),
            disk_root: None,
            gc_grace_micros: None,
            rpc: RpcChannelConfig::default(),
            admission: AdmissionConfig::default(),
        }
    }
}

impl RegionConfig {
    /// A config whose storage latencies reproduce the paper's Figures 7–8.
    pub fn paper_latency() -> Self {
        RegionConfig {
            write_profile: WriteProfile::paper_colossus(),
            ..RegionConfig::default()
        }
    }
}

/// Floor of the metastore version-GC horizon: even with a short
/// fragment-GC grace configured, MVCC history younger than this stays
/// readable (the pre-durability default, kept for time-travel tests).
const META_GC_GRACE_FLOOR_MICROS: u64 = 60_000_000;

/// Byte bound of the region's shared read cache (§9). Opened `orders`
/// blocks cost ≈ 65 B a row (5.1 MB for the benchmark's 80 000-row table)
/// and decoded log-file rows ≈ 130 B, so 24 MiB holds a 200 000-row
/// table's blocks beside the ≈ 8 MiB of tail rows that the 64 Ki-row
/// bound it replaces held.
const READ_CACHE_MAX_BYTES: usize = 24 << 20;

/// A fully assembled region.
///
/// Construction hands out *channel-wrapped* service handles: every SMS
/// handle is an [`SmsChannel`] over the shared `"sms"` [`RpcChannel`],
/// and the server handles registered with the SMS (and embedded in the
/// stream handles it gives to clients) are [`ServerChannel`]s over the
/// `"server"` channel. All control- and data-plane traffic therefore
/// crosses the fault/deadline/metrics boundary; the raw
/// [`StreamServer`]s remain reachable only for host-process concerns
/// (checkpointing, crash-recovery tests).
pub struct Region {
    clock: SimClock,
    tt: TrueTime,
    fleet: StorageFleet,
    store: Arc<MetaStore>,
    ids: Arc<IdGen>,
    slicer: Arc<Slicer>,
    sms_channels: Vec<Arc<SmsChannel>>,
    sms_handles: Vec<SmsHandle>,
    /// Raw server instances, index-aligned with `server_channels`. Slots
    /// are swapped on [`Region::restart_server`] — the old instance's
    /// memory is dropped and a WAL-recovered replacement takes its place.
    servers: parking_lot::RwLock<Vec<Arc<StreamServer>>>,
    server_channels: Vec<Arc<ServerChannel>>,
    server_handles: Vec<ServerHandle>,
    sms_rpc: Arc<RpcChannel>,
    server_rpc: Arc<RpcChannel>,
    admission: Arc<AdmissionController>,
    optimizer: StorageOptimizer,
    /// Shared read cache handed to every [`Region::engine`] (§9
    /// query-aware caching).
    read_cache: Arc<ReadCache>,
    /// Region-wide commit-to-visible freshness probe (§8), fed by every
    /// [`Region::engine`] scan.
    freshness: Arc<FreshnessProbe>,
    /// How construction rebuilt the metastore (checkpoint + WAL tail).
    meta_recovery: MetaRecovery,
    /// Effective metastore version-GC grace in virtual microseconds.
    meta_gc_grace: u64,
}

impl Region {
    /// Builds and wires a region.
    ///
    /// ```
    /// use vortex::{Region, RegionConfig};
    ///
    /// // Paper-calibrated storage latency, three clusters:
    /// let region = Region::create(RegionConfig {
    ///     clusters: 3,
    ///     ..RegionConfig::default()
    /// })
    /// .unwrap();
    /// assert_eq!(region.fleet().cluster_ids().len(), 3);
    /// ```
    pub fn create(cfg: RegionConfig) -> VortexResult<Self> {
        assert!(cfg.clusters >= 2, "dual-replica writes need ≥ 2 clusters");
        let clock = SimClock::new(cfg.start_micros);
        let tt = TrueTime::simulated(clock.clone(), cfg.tt_epsilon_micros, 0);
        let mut fleet = StorageFleet::new();
        for i in 0..cfg.clusters {
            let id = ClusterId::from_raw(i as u64);
            let cluster = match &cfg.disk_root {
                Some(root) => Colossus::new_disk(
                    id,
                    root.join(format!("cluster-{i}")),
                    cfg.write_profile,
                    cfg.seed.wrapping_add(i as u64),
                )?,
                None => Colossus::new_mem(id, cfg.write_profile, cfg.seed.wrapping_add(i as u64)),
            };
            fleet.add(cluster);
        }
        // The customer-bucket store for BigLake Managed Tables (§6.4).
        let bucket_store = match &cfg.disk_root {
            Some(root) => Colossus::new_disk(
                vortex_colossus::BUCKET_CLUSTER_ID,
                root.join("bucket"),
                cfg.write_profile,
                cfg.seed.wrapping_add(0xB0C),
            )?,
            None => Colossus::new_mem(
                vortex_colossus::BUCKET_CLUSTER_ID,
                cfg.write_profile,
                cfg.seed.wrapping_add(0xB0C),
            ),
        };
        fleet.add(bucket_store);
        // The metastore durability domain: a dedicated cluster standing
        // in for the regional Spanner deployment (§5.1) — a separate
        // failure domain from the WOS replica fleet, so a dark data
        // cluster never blocks metadata commits.
        let meta_cluster = match &cfg.disk_root {
            Some(root) => Colossus::new_disk(
                vortex_colossus::META_CLUSTER_ID,
                root.join("meta"),
                cfg.write_profile,
                cfg.seed.wrapping_add(0x5DB),
            )?,
            None => Colossus::new_mem(
                vortex_colossus::META_CLUSTER_ID,
                cfg.write_profile,
                cfg.seed.wrapping_add(0x5DB),
            ),
        };
        fleet.add(meta_cluster);
        // Recover control-plane metadata from the latest valid
        // published checkpoint plus the WAL tail. A fresh region cold
        // starts from an empty cluster; every commit from here on is
        // WAL-logged before it is acknowledged.
        let (store, meta_recovery) =
            MetaStore::recover(tt.clone(), fleet.get(vortex_colossus::META_CLUSTER_ID)?)?;
        // The restored metadata carries timestamps from the previous
        // incarnation; the fresh virtual clock must start beyond them or
        // new writes would sort before old snapshots.
        clock.advance_to(Timestamp(store.now().micros()));
        // Seed the id generator past every id the restored metadata
        // uses (table/stream/streamlet/fragment ids share one sequence).
        let ids = Arc::new(IdGen::new(vortex_sms::meta::max_id_in_use(&store) + 1));
        let task_ids: Vec<SmsTaskId> = (0..cfg.sms_tasks as u64).map(SmsTaskId::from_raw).collect();
        let slicer = Slicer::new(task_ids.clone());
        let mut sms_tasks = Vec::new();
        for (i, task) in task_ids.iter().enumerate() {
            let view = if cfg.sms_tasks > 1 {
                Some(SlicerView::new(Arc::clone(&slicer), *task))
            } else {
                None
            };
            let mut sms_cfg = SmsConfig::new(*task, ClusterId::from_raw((i % cfg.clusters) as u64));
            if let Some(g) = cfg.gc_grace_micros {
                sms_cfg.gc_grace_micros = g;
            }
            sms_tasks.push(SmsTask::new(
                sms_cfg,
                Arc::clone(&store),
                fleet.clone(),
                tt.clone(),
                Arc::clone(&ids),
                view,
            ));
        }
        // The two in-process RPC channels: one per service hop. The SMS
        // registers channel-wrapped server handles, so client appends
        // (which go through the handles the SMS gives out) cross the
        // server channel too.
        // One admission controller across both hops: every RPC in the
        // region drains the same quota pool and the same adaptive
        // concurrency window (the single policy point for overload).
        let admission = AdmissionController::new(cfg.admission.clone());
        let rpc = |hop| {
            let admission = Some(admission.clone() as Arc<dyn RpcInterceptor>);
            RpcChannel::new(hop, cfg.rpc.clone(), clock.clone(), admission)
        };
        let (sms_rpc, server_rpc) = (rpc("sms"), rpc("server"));
        let mut servers = Vec::new();
        let mut server_channels: Vec<Arc<ServerChannel>> = Vec::new();
        let mut server_handles: Vec<ServerHandle> = Vec::new();
        for c in 0..cfg.clusters {
            for s in 0..cfg.servers_per_cluster {
                let server = StreamServer::new(
                    ServerConfig {
                        block_buffer_bytes: cfg.block_buffer_bytes,
                        fragment_max_bytes: cfg.fragment_max_bytes,
                        ..ServerConfig::new(
                            ServerId::from_raw((100 + c * 16 + s) as u64),
                            ClusterId::from_raw(c as u64),
                        )
                    },
                    fleet.clone(),
                    tt.clone(),
                    Arc::clone(&ids),
                )?;
                let channel = ServerChannel::new(
                    format!("stream server {}", server.config().server),
                    server.clone(),
                    Arc::clone(&server_rpc),
                );
                let handle: ServerHandle = channel.clone();
                for sms in &sms_tasks {
                    sms.register_server(handle.clone());
                }
                servers.push(server);
                server_channels.push(channel);
                server_handles.push(handle);
            }
        }
        let sms_channels: Vec<Arc<SmsChannel>> = sms_tasks
            .iter()
            .map(|t| {
                let name = format!("sms task {}", t.task_id());
                SmsChannel::new(name, Arc::clone(t), Arc::clone(&sms_rpc))
            })
            .collect();
        let sms_handles: Vec<SmsHandle> = sms_channels
            .iter()
            .map(|c| Arc::clone(c) as SmsHandle)
            .collect();
        let optimizer = StorageOptimizer::new(
            sms_handles[0].clone(),
            fleet.clone(),
            Arc::clone(&ids),
            cfg.optimizer,
        );
        Ok(Region {
            clock,
            tt,
            fleet,
            store,
            ids,
            slicer,
            sms_channels,
            sms_handles,
            servers: parking_lot::RwLock::new(servers),
            server_channels,
            server_handles,
            sms_rpc,
            server_rpc,
            admission,
            optimizer,
            read_cache: ReadCache::new(READ_CACHE_MAX_BYTES),
            freshness: Arc::new(FreshnessProbe::new(obs::global())),
            meta_recovery,
            meta_gc_grace: cfg
                .gc_grace_micros
                .unwrap_or(0)
                .max(META_GC_GRACE_FLOOR_MICROS),
        })
    }

    /// How construction rebuilt the metastore: which checkpoint version
    /// it loaded and how much WAL tail it replayed on top.
    pub fn meta_recovery(&self) -> &MetaRecovery {
        &self.meta_recovery
    }

    /// The metastore version-GC watermark: visible history older than
    /// the effective grace (the configured fragment-GC grace, floored
    /// at 60 virtual seconds) is collectible.
    pub fn meta_gc_watermark(&self) -> Timestamp {
        Timestamp(self.store.now().micros().saturating_sub(self.meta_gc_grace))
    }

    /// Rehydrates a *standby* metastore from cluster 0's durable state
    /// — exactly what a rescheduled SMS host would do on cold restart
    /// (§5.2.1). The replica shares nothing with the live store; soaks
    /// compare the two to prove no acknowledged commit is lost and
    /// nothing GC'd is resurrected.
    pub fn recover_metastore_replica(&self) -> VortexResult<(Arc<MetaStore>, MetaRecovery)> {
        MetaStore::recover(self.tt.clone(), self.meta_cluster()?)
    }

    /// The metastore durability domain: the dedicated cluster holding
    /// the commit WAL, checkpoint files, and version pointer. Exposed
    /// so chaos suites can aim fault injection at the control plane's
    /// storage specifically.
    pub fn meta_cluster(&self) -> VortexResult<&Arc<Colossus>> {
        self.fleet.get(vortex_colossus::META_CLUSTER_ID)
    }

    /// The (channel-wrapped) SMS handle that owns `table` (Slicer
    /// assignment; task 0 when a single task runs).
    pub fn sms_for(&self, table: TableId) -> &SmsHandle {
        if self.sms_handles.len() == 1 {
            return &self.sms_handles[0];
        }
        let owner = self
            .slicer
            .assignment(table)
            .unwrap_or(vortex_common::ids::SmsTaskId::from_raw(0));
        self.sms_handles
            .iter()
            .find(|t| t.task_id() == owner)
            .unwrap_or(&self.sms_handles[0])
    }

    /// The first SMS handle (single-task deployments), channel-wrapped.
    pub fn sms(&self) -> &SmsHandle {
        &self.sms_handles[0]
    }

    /// All SMS handles, channel-wrapped.
    pub fn sms_tasks(&self) -> &[SmsHandle] {
        &self.sms_handles
    }

    /// The Slicer (assignment authority).
    pub fn slicer(&self) -> &Arc<Slicer> {
        &self.slicer
    }

    /// The raw Stream Server tasks — host-process concerns only
    /// (checkpointing, crash recovery). Service traffic goes through
    /// [`Region::server_handles`]. Returns a snapshot: restart swaps
    /// instances underneath.
    pub fn servers(&self) -> Vec<Arc<StreamServer>> {
        self.servers.read().clone()
    }

    /// Channel-wrapped Stream Server handles, index-aligned with
    /// [`Region::servers`].
    pub fn server_handles(&self) -> &[ServerHandle] {
        &self.server_handles
    }

    /// The concrete Stream Server channels (process boundaries),
    /// index-aligned with [`Region::servers`]. These expose the
    /// kill/restart state ([`ServerChannel::is_dead`]).
    pub fn server_channels(&self) -> &[Arc<ServerChannel>] {
        &self.server_channels
    }

    /// The concrete SMS channels, index-aligned with
    /// [`Region::sms_tasks`].
    pub fn sms_channels(&self) -> &[Arc<SmsChannel>] {
        &self.sms_channels
    }

    /// Simulates the death of Stream Server `idx` at this instant: the
    /// process boundary marks it dead, so every in-flight and future call
    /// through its handle fails with retryable unavailability, placement
    /// sees it quarantined, and it stops heartbeating. In-memory state
    /// (buffered blocks, hosted-streamlet maps, flow-control counters) is
    /// unreachable from this point on; only what reached Colossus — log
    /// file bytes, WAL records, checkpoints — survives into the next
    /// incarnation ([`Region::restart_server`]).
    pub fn kill_server(&self, idx: usize) {
        self.server_channels[idx].kill();
    }

    /// Restarts Stream Server `idx` after [`Region::kill_server`]: drops
    /// the dead instance and installs a replacement rebuilt from durable
    /// state ONLY ([`StreamServer::recover`]: checkpoint + WAL replay).
    /// The recovered instance re-registers behind the same channel, so
    /// every handle the SMS and clients already hold starts working
    /// again; its next heartbeat re-reports from recovered state. Call
    /// [`Region::run_heartbeats`] with `full_state = true` afterwards to
    /// reconcile promptly.
    pub fn restart_server(&self, idx: usize) -> VortexResult<()> {
        let cfg = self.servers.read()[idx].config().clone();
        let server = StreamServer::recover(
            cfg,
            self.fleet.clone(),
            self.tt.clone(),
            Arc::clone(&self.ids),
        )?;
        self.servers.write()[idx] = server.clone();
        self.server_channels[idx].restart(server);
        Ok(())
    }

    /// Simulates the death of SMS task `idx` (see [`Region::kill_server`]
    /// — same boundary semantics). Durable control-plane state lives in
    /// the metastore, so nothing but the in-memory Big Metadata index and
    /// server registry dies with the task.
    pub fn kill_sms_task(&self, idx: usize) {
        self.sms_channels[idx].kill();
    }

    /// Restarts SMS task `idx` after [`Region::kill_sms_task`]: a fresh
    /// task over the same (durable) metastore, with an empty Big Metadata
    /// index and a re-registered server set — exactly what a rescheduled
    /// task rebuilds (§5.2.1). Servers are told to re-report full state
    /// on their next heartbeat.
    pub fn restart_sms_task(&self, idx: usize) -> VortexResult<()> {
        let old = self.sms_channels[idx].instance();
        let cfg = old.config().clone();
        let view = if self.sms_channels.len() > 1 {
            Some(SlicerView::new(Arc::clone(&self.slicer), cfg.task))
        } else {
            None
        };
        let task = SmsTask::new(
            cfg,
            Arc::clone(&self.store),
            self.fleet.clone(),
            self.tt.clone(),
            Arc::clone(&self.ids),
            view,
        );
        for handle in &self.server_handles {
            task.register_server(handle.clone());
        }
        self.sms_channels[idx].restart(task);
        // SMS failover: servers re-report everything next heartbeat.
        for handle in &self.server_handles {
            handle.reset_heartbeat_window();
        }
        Ok(())
    }

    /// The RPC channel carrying SMS traffic: arm faults and latency via
    /// [`RpcChannel::faults`], read per-method metrics via
    /// [`RpcChannel::metrics`].
    pub fn sms_rpc(&self) -> &Arc<RpcChannel> {
        &self.sms_rpc
    }

    /// The RPC channel carrying Stream Server traffic (control plane and
    /// client appends alike).
    pub fn server_rpc(&self) -> &Arc<RpcChannel> {
        &self.server_rpc
    }

    /// The region's admission controller (quotas, per-class shed/queue
    /// counters, the adaptive concurrency window) — installed on both
    /// RPC channels at construction.
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admission
    }

    /// The storage fleet.
    pub fn fleet(&self) -> &StorageFleet {
        &self.fleet
    }

    /// The shared metastore.
    pub fn store(&self) -> &Arc<MetaStore> {
        &self.store
    }

    /// The shared id generator.
    pub fn ids(&self) -> &Arc<IdGen> {
        &self.ids
    }

    /// The virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The TrueTime source.
    pub fn truetime(&self) -> &TrueTime {
        &self.tt
    }

    /// Advances virtual time.
    pub fn advance_micros(&self, us: u64) -> Timestamp {
        self.clock.advance(us)
    }

    /// A client bound to the region (single-task: task 0), reading
    /// through the region's read cache.
    pub fn client(&self) -> VortexClient {
        self.client_of(&self.sms_handles[0])
    }

    /// A client routed to the SMS task owning `table`, reading through
    /// the region's read cache.
    pub fn client_for(&self, table: TableId) -> VortexClient {
        self.client_of(self.sms_for(table))
    }

    fn client_of(&self, sms: &SmsHandle) -> VortexClient {
        VortexClient::new(sms.clone(), self.fleet.clone(), self.tt.clone())
            .with_cache(Arc::clone(&self.read_cache))
    }

    /// The query engine.
    ///
    /// ```
    /// use vortex::{Expr, Region, RegionConfig, ScanOptions};
    /// use vortex::row::{Row, RowSet, Value};
    /// use vortex::schema::{Field, FieldType, Schema};
    ///
    /// let region = Region::create(RegionConfig::default()).unwrap();
    /// let client = region.client();
    /// let t = client
    ///     .create_table("m", Schema::new(vec![Field::required("k", FieldType::Int64)]))
    ///     .unwrap()
    ///     .table;
    /// let mut w = client.create_unbuffered_writer(t).unwrap();
    /// w.append(RowSet::new(
    ///     (0..10).map(|k| Row::insert(vec![Value::Int64(k)])).collect(),
    /// ))
    /// .unwrap();
    /// let n = region
    ///     .engine()
    ///     .count(
    ///         t,
    ///         client.snapshot(),
    ///         &ScanOptions {
    ///             predicate: Expr::ge("k", Value::Int64(5)),
    ///             ..ScanOptions::default()
    ///         },
    ///     )
    ///     .unwrap();
    /// assert_eq!(n, 5);
    /// ```
    pub fn engine(&self) -> QueryEngine {
        QueryEngine::new(self.sms_handles[0].clone(), self.fleet.clone()).with_observability(
            self.tt.clone(),
            Arc::clone(&self.read_cache),
            Arc::clone(&self.freshness),
        )
    }

    /// The region-wide read cache shared by every [`Region::engine`] (§9
    /// query-aware caching).
    pub fn read_cache(&self) -> &Arc<ReadCache> {
        &self.read_cache
    }

    /// The region-wide commit-to-visible freshness probe (§8), fed by
    /// every [`Region::engine`] scan.
    pub fn freshness(&self) -> &Arc<FreshnessProbe> {
        &self.freshness
    }

    /// One unified snapshot of the process-wide metrics registry plus
    /// this region's per-method RPC statistics — what `/varz` would
    /// serve. See [`MetricsSnapshot::to_table`] / `to_json`.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = obs::global().snapshot();
        snap.add_rpc("sms", self.sms_rpc.metrics());
        snap.add_rpc("server", self.server_rpc.metrics());
        for cluster in self.fleet.clusters() {
            let (id, (reads, bytes)) = (cluster.cluster_id(), cluster.read_counts());
            for (what, n) in [("reads", reads), ("bytes_read", bytes)] {
                snap.counters.insert(format!("colossus.{id}.{what}"), n);
            }
        }
        snap.gauges
            .insert("cache.bytes".into(), self.read_cache.bytes() as i64);
        snap
    }

    /// The DML executor.
    ///
    /// ```
    /// use vortex::{Expr, Region, RegionConfig};
    /// use vortex::row::{Row, RowSet, Value};
    /// use vortex::schema::{Field, FieldType, Schema};
    ///
    /// let region = Region::create(RegionConfig::default()).unwrap();
    /// let client = region.client();
    /// let t = client
    ///     .create_table("d", Schema::new(vec![Field::required("k", FieldType::Int64)]))
    ///     .unwrap()
    ///     .table;
    /// let mut w = client.create_unbuffered_writer(t).unwrap();
    /// w.append(RowSet::new(
    ///     (0..10).map(|k| Row::insert(vec![Value::Int64(k)])).collect(),
    /// ))
    /// .unwrap();
    /// let report = region
    ///     .dml()
    ///     .delete_where(t, &Expr::lt("k", Value::Int64(3)))
    ///     .unwrap();
    /// assert_eq!(report.rows_matched, 3);
    /// assert_eq!(client.read_rows(t).unwrap().rows.len(), 7);
    /// ```
    pub fn dml(&self) -> DmlExecutor {
        DmlExecutor::new(self.client())
    }

    /// The storage optimizer.
    pub fn optimizer(&self) -> &StorageOptimizer {
        &self.optimizer
    }

    /// The verification pipelines.
    pub fn verifier(&self) -> Verifier {
        Verifier::new(self.sms_handles[0].clone(), self.fleet.clone())
    }

    /// One heartbeat round (§5.5): every server reports deltas to its
    /// SMS, applies the response (schema updates, GC orders, orphan
    /// deletions), and acks completed GC so the SMS can drop metadata.
    /// Returns the number of streamlet deltas processed.
    pub fn run_heartbeats(&self, full_state: bool) -> VortexResult<usize> {
        // Heartbeats themselves are admission-exempt liveness traffic,
        // but the GC acks they trigger are deferrable maintenance.
        let _bg = class_scope(WorkClass::Background);
        let mut deltas = 0;
        for (i, server) in self.server_handles.iter().enumerate() {
            // Dead processes send no heartbeats.
            if self.server_channels[i].is_dead() {
                continue;
            }
            let report = server.build_heartbeat(full_state);
            deltas += report.streamlets.len();
            // Every SMS task sees the heartbeat; each applies what it
            // owns (transactions keep double-apply safe).
            for sms in &self.sms_handles {
                let resp = match sms.heartbeat(&report) {
                    Ok(r) => r,
                    // A dead/unreachable SMS just misses this round; the
                    // delta is re-reported next heartbeat.
                    Err(e) if e.is_retryable() => continue,
                    Err(e) => return Err(e),
                };
                let acks = match server.apply_heartbeat_response(&resp, 60_000_000) {
                    Ok(a) => a,
                    // The server died mid-application (crash point in
                    // GC): unacked work is re-issued after restart.
                    Err(e) if e.is_retryable() => break,
                    Err(e) => return Err(e),
                };
                for (table, streamlet, ordinals) in acks {
                    let _ = sms.ack_gc(table, streamlet, &ordinals);
                }
            }
            server.reset_heartbeat_window();
        }
        Ok(deltas)
    }

    /// One idle tick: servers write standalone commit records for quiet
    /// streamlets (§7.1).
    pub fn run_ticks(&self) -> usize {
        self.server_handles.iter().map(|s| s.tick()).sum()
    }

    /// One optimization cycle for a table: WOS→ROS conversion, then a
    /// recluster check, then metadata compaction (§6).
    pub fn run_optimizer_cycle(&self, table: TableId) -> VortexResult<()> {
        // Optimization is the canonical background class: under overload
        // its RPCs are shed before any interactive or batch work.
        let _bg = class_scope(WorkClass::Background);
        // Yielding to DML surfaces as Unavailable, and transient storage
        // faults surface as retryable errors — both mean "try again next
        // cycle" for a continuous background service (§6.1, §7.3). A
        // simulated process death mid-pass is this boundary's version of
        // the same thing: the pass's unregistered ROS blocks stay
        // invisible and the next cycle redoes the work.
        let tolerate = |r: VortexResult<()>| match r {
            Ok(()) => Ok(()),
            Err(vortex_common::error::VortexError::SimulatedCrash(_)) => Ok(()),
            Err(e) if e.is_retryable() => Ok(()),
            Err(e) => Err(e),
        };
        tolerate(self.optimizer.convert_wos(table).map(|_| ()))?;
        tolerate(self.optimizer.recluster(table).map(|_| ()))?;
        self.optimizer.compact_metadata(table)?;
        Ok(())
    }

    /// Checkpoint + compaction: prunes metastore MVCC versions below
    /// the [`Region::meta_gc_watermark`] (so GC'd fragments vanish from
    /// the snapshot, not just from the visible view), then atomically
    /// publishes a new checkpoint version and truncates the WAL prefix
    /// it covers ([`MetaStore::checkpoint`]). A concurrent publisher
    /// fences this call with `TxnConflict`; a simulated death inside
    /// leaves the previous checkpoint intact.
    pub fn checkpoint_metadata(&self) -> VortexResult<MetaCheckpointOutcome> {
        self.store.gc_versions(self.meta_gc_watermark());
        self.store.checkpoint()
    }

    /// One groomer sweep (§5.4.3): physically deletes fragments whose GC
    /// grace elapsed, drops the read cache's entries of every file gone
    /// and prunes old metastore versions.
    pub fn run_gc(&self, table: TableId) -> VortexResult<usize> {
        let _bg = class_scope(WorkClass::Background);
        let n = self.sms_handles[0].run_gc(table)?;
        let exists = |path: &String| self.fleet.clusters().any(|c| c.exists(path));
        let held = self.read_cache.entries().into_iter().map(|(path, _)| path);
        let gone: Vec<String> = held.filter(|path| !exists(path)).collect();
        self.read_cache.forget(&gone);
        // Metastore MVCC garbage below the daemon watermark.
        self.store.gc_versions(self.meta_gc_watermark());
        Ok(n)
    }
}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Region")
            .field("clusters", &self.fleet.len())
            .field("servers", &self.servers.read().len())
            .field("sms_tasks", &self.sms_handles.len())
            .finish()
    }
}
