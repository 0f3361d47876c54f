//! A simulated Colossus: the distributed append-only file system Vortex
//! stores everything in.
//!
//! "Fragments, checkpoints, and transaction logs are all stored in
//! Colossus" (§5.3); each append is "durably written to 2 clusters before
//! it is reported as success" (§5.1). This crate provides the file-system
//! surface Vortex needs from Colossus:
//!
//! - append-only log files with reads at arbitrary offsets (readers may
//!   observe partially-written tails, which the WOS format tolerates);
//! - multiple independent clusters (failure domains) in a region,
//!   addressed through a [`StorageFleet`];
//! - per-cluster fault injection — full unavailability, failing the next
//!   N appends, or slowdowns — to drive the paper's retry, failover, and
//!   reconciliation paths (§5.6);
//! - a **virtual latency model**: every operation reports a sampled
//!   service time and, for appends, a queued completion time on the
//!   file's single-writer timeline. Benchmarks reproduce the paper's
//!   latency figures from these virtual clocks without sleeping.
//!
//! Intra-cluster replication and erasure coding sit *below* this
//! abstraction in production and are not modelled; the durability unit
//! here is the cluster, exactly as in the paper.

#![warn(missing_docs)]

pub mod backend;
pub mod faults;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::ClusterId;
use vortex_common::latency::{ResourceTimeline, WriteProfile};
use vortex_common::truetime::Timestamp;

use backend::{Backend, DiskBackend, MemBackend};
use faults::FaultPlan;

/// The well-known cluster id of the region's customer-bucket store —
/// the stand-in for customer-owned cloud storage that BigLake Managed
/// Tables write their ROS into (§6.4). Not part of the replica fleet
/// used for WOS placement.
pub const BUCKET_CLUSTER_ID: ClusterId = ClusterId::from_raw(0xB0C);

/// The well-known cluster id of the region's metastore durability
/// domain — the stand-in for the regional Spanner deployment the
/// control plane commits through (§5.1). The simulated metastore WALs
/// and checkpoints into this cluster; like the bucket store, it is a
/// separate failure domain, never part of the WOS replica fleet.
pub const META_CLUSTER_ID: ClusterId = ClusterId::from_raw(0x5DB);

/// Outcome of an append: the file's new length plus virtual-time cost.
#[derive(Debug, Clone, Copy)]
pub struct AppendOutcome {
    /// File length after this append, in bytes.
    pub new_len: u64,
    /// Sampled service time of this write, microseconds.
    pub service_us: u64,
    /// Virtual completion time after FIFO queueing on the file's writer.
    pub completion: Timestamp,
}

/// Outcome of a read: bytes plus sampled service time.
#[derive(Debug, Clone)]
pub struct ReadOutcome {
    /// The bytes read (may be shorter than requested at end of file).
    pub data: Vec<u8>,
    /// Sampled service time, microseconds.
    pub service_us: u64,
}

struct FileState {
    timeline: ResourceTimeline,
}

/// One Colossus cluster: a failure domain holding append-only files.
pub struct Colossus {
    cluster: ClusterId,
    backend: Box<dyn Backend>,
    faults: FaultPlan,
    profile: WriteProfile,
    read_profile: WriteProfile,
    rng: Mutex<StdRng>,
    files: Mutex<HashMap<String, FileState>>,
    /// Reads served and the bytes they returned.
    reads: AtomicU64,
    bytes_read: AtomicU64,
}

impl Colossus {
    /// An in-memory cluster with the given latency profile.
    pub fn new_mem(cluster: ClusterId, profile: WriteProfile, seed: u64) -> Arc<Self> {
        Arc::new(Self {
            cluster,
            backend: Box::new(MemBackend::new()),
            faults: FaultPlan::default(),
            profile,
            read_profile: profile,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            files: Mutex::new(HashMap::new()),
            reads: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        })
    }

    /// An on-disk cluster rooted at `dir`.
    pub fn new_disk(
        cluster: ClusterId,
        dir: impl Into<std::path::PathBuf>,
        profile: WriteProfile,
        seed: u64,
    ) -> VortexResult<Arc<Self>> {
        Ok(Arc::new(Self {
            cluster,
            backend: Box::new(DiskBackend::new(dir.into())?),
            faults: FaultPlan::default(),
            profile,
            read_profile: profile,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            files: Mutex::new(HashMap::new()),
            reads: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        }))
    }

    /// The cluster this instance represents.
    pub fn cluster_id(&self) -> ClusterId {
        self.cluster
    }

    /// Fault-injection controls for this cluster.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    fn check_available(&self, op: &str) -> VortexResult<()> {
        if self.faults.is_unavailable() {
            return Err(VortexError::Unavailable(format!(
                "cluster {} unavailable during {op}",
                self.cluster
            )));
        }
        Ok(())
    }

    fn sample_us(&self, profile: &WriteProfile, bytes: usize) -> u64 {
        let base = profile.sample_us(bytes, &mut *self.rng.lock());
        (base as f64 * self.faults.slow_factor()) as u64
    }

    /// Creates an empty file. Fails if it already exists.
    pub fn create(&self, path: &str) -> VortexResult<()> {
        self.check_available("create")?;
        self.backend.create(path)?;
        self.files.lock().insert(
            path.to_string(),
            FileState {
                timeline: ResourceTimeline::new(),
            },
        );
        Ok(())
    }

    /// Appends `data` to `path` (creating it if absent), starting no
    /// earlier than virtual time `start`.
    ///
    /// Subject to fault injection: a scheduled append failure consumes one
    /// failure token and returns `Io` with nothing written (atomic
    /// failure); a scheduled *torn* failure durably persists a seeded
    /// arbitrary strict prefix of the bytes before returning `Io` — the
    /// caller must treat the file tail as unknown, exactly as after a
    /// mid-write process death. Torn tails are masked by the WOS framing
    /// layer above via File Maps, commit records, and reconciliation
    /// (§5.6, §7.1). An unavailable cluster returns `Unavailable`.
    // lint:hotpath(append) — storage leg: the dual-replica durable write itself
    pub fn append(&self, path: &str, data: &[u8], start: Timestamp) -> VortexResult<AppendOutcome> {
        self.check_available("append")?;
        if self.faults.take_append_failure() {
            return Err(VortexError::Io(format!(
                "injected append failure on cluster {} path {path}",
                self.cluster
            )));
        }
        if let Some(roll) = self.faults.take_torn_append() {
            let keep = if data.is_empty() {
                0
            } else {
                (roll % data.len() as u64) as usize
            };
            if keep > 0 {
                // Best-effort: the torn prefix lands only if the backend
                // accepts it; either way the caller sees a failed write.
                let _ = self.backend.append(path, &data[..keep]);
            }
            return Err(VortexError::Io(format!(
                "injected torn append on cluster {} path {path}: {keep} of {} bytes persisted",
                self.cluster,
                data.len()
            )));
        }
        let new_len = self.backend.append(path, data)?;
        let service_us = self.sample_us(&self.profile, data.len());
        let mut files = self.files.lock();
        let st = files.entry(path.to_string()).or_insert_with(|| FileState {
            timeline: ResourceTimeline::new(),
        });
        let completion = st.timeline.submit(start, service_us);
        Ok(AppendOutcome {
            new_len,
            service_us,
            completion,
        })
    }

    /// Reads up to `len` bytes at `offset`. Reading past EOF returns the
    /// available prefix (possibly empty) — readers of active log files
    /// race with the writer by design (§7.1).
    pub fn read(&self, path: &str, offset: u64, len: usize) -> VortexResult<ReadOutcome> {
        self.check_available("read")?;
        if self.faults.take_read_failure() {
            return Err(VortexError::Io(format!(
                "injected read failure on cluster {} path {path}",
                self.cluster
            )));
        }
        let data = self.backend.read(path, offset, len)?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        let service_us = self.sample_us(&self.read_profile, data.len());
        Ok(ReadOutcome { data, service_us })
    }

    /// Reads this cluster has served and the bytes they returned — what
    /// scans, tail probes, the optimizer and recovery took from it.
    pub fn read_counts(&self) -> (u64, u64) {
        let reads = self.reads.load(Ordering::Relaxed);
        (reads, self.bytes_read.load(Ordering::Relaxed))
    }

    /// Reads the entire file.
    pub fn read_all(&self, path: &str) -> VortexResult<ReadOutcome> {
        let len = self.len(path)?;
        self.read(path, 0, len as usize)
    }

    /// Current length of the file in bytes.
    pub fn len(&self, path: &str) -> VortexResult<u64> {
        self.check_available("len")?;
        self.backend.len(path)
    }

    /// Whether the file exists (false while the cluster is unavailable).
    pub fn exists(&self, path: &str) -> bool {
        !self.faults.is_unavailable() && self.backend.exists(path)
    }

    /// Deletes a file (idempotent).
    pub fn delete(&self, path: &str) -> VortexResult<()> {
        self.check_available("delete")?;
        self.backend.delete(path)?;
        self.files.lock().remove(path);
        Ok(())
    }

    /// Lists file paths with the given prefix, sorted.
    pub fn list(&self, prefix: &str) -> VortexResult<Vec<String>> {
        self.check_available("list")?;
        Ok(self.backend.list(prefix))
    }

    /// Lists the files named `prefix` + a hexadecimal number — the epochs
    /// or generations of a durable log — as `(number, path)` in numeric
    /// order. Other names under the prefix are skipped.
    pub fn list_numbered(&self, prefix: &str) -> VortexResult<Vec<(u64, String)>> {
        let mut out: Vec<(u64, String)> = self
            .list(prefix)?
            .into_iter()
            .filter_map(|p| Some((u64::from_str_radix(&p[prefix.len()..], 16).ok()?, p)))
            .collect(); // lint:allow(L010, log open/recovery/checkpoint listing; its only hot edge is a name-resolved `open`)
        out.sort_unstable();
        Ok(out)
    }
}

impl std::fmt::Debug for Colossus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Colossus")
            .field("cluster", &self.cluster)
            .finish_non_exhaustive()
    }
}

/// The set of Colossus clusters in a region, addressed by [`ClusterId`].
#[derive(Debug, Clone, Default)]
pub struct StorageFleet {
    clusters: HashMap<ClusterId, Arc<Colossus>>,
}

impl StorageFleet {
    /// An empty fleet.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fleet of `n` in-memory clusters with ids `0..n`.
    pub fn with_mem_clusters(n: usize, profile: WriteProfile, seed: u64) -> Self {
        let mut fleet = Self::new();
        for i in 0..n {
            let id = ClusterId::from_raw(i as u64);
            fleet.add(Colossus::new_mem(id, profile, seed.wrapping_add(i as u64)));
        }
        fleet
    }

    /// Adds a cluster to the fleet.
    pub fn add(&mut self, cluster: Arc<Colossus>) {
        self.clusters.insert(cluster.cluster_id(), cluster);
    }

    /// Looks up a cluster.
    pub fn get(&self, id: ClusterId) -> VortexResult<&Arc<Colossus>> {
        self.clusters
            .get(&id)
            .ok_or_else(|| VortexError::NotFound(format!("cluster {id}")))
    }

    /// All *replica* cluster ids, sorted. The service clusters — the
    /// bucket store and the metastore durability domain — are excluded:
    /// WOS placement never lands on them.
    pub fn cluster_ids(&self) -> Vec<ClusterId> {
        let mut ids: Vec<_> = self
            .clusters
            .keys()
            .copied()
            .filter(|c| *c != BUCKET_CLUSTER_ID && *c != META_CLUSTER_ID)
            .collect();
        ids.sort();
        ids
    }

    /// Every cluster of the fleet, service clusters included.
    pub fn clusters(&self) -> impl Iterator<Item = &Arc<Colossus>> {
        self.clusters.values()
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the fleet has no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Arc<Colossus> {
        Colossus::new_mem(ClusterId::from_raw(0), WriteProfile::instant(), 1)
    }

    #[test]
    fn create_append_read_roundtrip() {
        let c = mem();
        c.create("t/log.0").unwrap();
        let a = c.append("t/log.0", b"hello ", Timestamp(0)).unwrap();
        assert_eq!(a.new_len, 6);
        let b = c.append("t/log.0", b"world", Timestamp(0)).unwrap();
        assert_eq!(b.new_len, 11);
        let r = c.read("t/log.0", 0, 11).unwrap();
        assert_eq!(r.data, b"hello world");
        let r = c.read("t/log.0", 6, 100).unwrap();
        assert_eq!(r.data, b"world", "read past EOF returns prefix");
        assert_eq!(c.len("t/log.0").unwrap(), 11);
        assert_eq!(c.read_counts(), (2, 16), "reads and the bytes returned");
    }

    #[test]
    fn append_creates_implicitly() {
        let c = mem();
        c.append("implicit", b"x", Timestamp(0)).unwrap();
        assert!(c.exists("implicit"));
        assert_eq!(c.read_all("implicit").unwrap().data, b"x");
    }

    #[test]
    fn create_existing_fails() {
        let c = mem();
        c.create("f").unwrap();
        assert!(matches!(c.create("f"), Err(VortexError::AlreadyExists(_))));
    }

    #[test]
    fn read_missing_file_fails() {
        let c = mem();
        assert!(matches!(
            c.read("nope", 0, 1),
            Err(VortexError::NotFound(_))
        ));
        assert!(matches!(c.len("nope"), Err(VortexError::NotFound(_))));
        assert!(!c.exists("nope"));
    }

    #[test]
    fn delete_is_idempotent() {
        let c = mem();
        c.create("f").unwrap();
        c.delete("f").unwrap();
        c.delete("f").unwrap();
        assert!(!c.exists("f"));
    }

    #[test]
    fn list_by_prefix_sorted() {
        let c = mem();
        for p in ["a/1", "a/3", "a/2", "b/1"] {
            c.create(p).unwrap();
        }
        assert_eq!(c.list("a/").unwrap(), vec!["a/1", "a/2", "a/3"]);
        assert_eq!(c.list("").unwrap().len(), 4);
        assert!(c.list("zz").unwrap().is_empty());
    }

    #[test]
    fn unavailable_cluster_rejects_everything() {
        let c = mem();
        c.create("f").unwrap();
        c.faults().set_unavailable(true);
        assert!(matches!(
            c.append("f", b"x", Timestamp(0)),
            Err(VortexError::Unavailable(_))
        ));
        assert!(matches!(
            c.read("f", 0, 1),
            Err(VortexError::Unavailable(_))
        ));
        assert!(!c.exists("f"));
        c.faults().set_unavailable(false);
        c.append("f", b"x", Timestamp(0)).unwrap();
    }

    #[test]
    fn injected_append_failures_consume_tokens() {
        let c = mem();
        c.faults().fail_next_appends(2);
        assert!(c.append("f", b"a", Timestamp(0)).is_err());
        assert!(c.append("f", b"b", Timestamp(0)).is_err());
        let ok = c.append("f", b"c", Timestamp(0)).unwrap();
        assert_eq!(ok.new_len, 1, "failed appends must not write");
        assert_eq!(c.read_all("f").unwrap().data, b"c");
    }

    #[test]
    fn list_numbered_orders_by_number_and_skips_other_names() {
        let c = mem();
        for name in ["log/wal.0000000a", "log/wal.00000002", "log/wal.ff"] {
            c.append(name, b"x", Timestamp(0)).unwrap();
        }
        for name in ["log/wal.tmp", "log/wal.", "log/ckpt.00000001"] {
            c.append(name, b"x", Timestamp(0)).unwrap();
        }
        let numbered = c.list_numbered("log/wal.").unwrap();
        let expect = [
            (2, "log/wal.00000002"),
            (10, "log/wal.0000000a"),
            (255, "log/wal.ff"),
        ];
        let expect: Vec<(u64, String)> = expect.iter().map(|(n, p)| (*n, p.to_string())).collect();
        assert_eq!(numbered, expect);
        assert!(c.list_numbered("nothing/").unwrap().is_empty());
        c.faults().set_unavailable(true);
        assert!(c.list_numbered("log/wal.").is_err());
    }

    #[test]
    fn torn_appends_persist_a_strict_prefix() {
        let c = mem();
        c.append("f", b"base", Timestamp(0)).unwrap();
        c.faults().set_torn_seed(1234);
        c.faults().torn_next_appends(1);
        let err = c.append("f", b"0123456789", Timestamp(0)).unwrap_err();
        assert!(matches!(err, VortexError::Io(_)), "{err}");
        let after = c.read_all("f").unwrap().data;
        assert!(after.len() < 4 + 10, "a torn append never lands fully");
        assert!(after.starts_with(b"base"));
        assert!(
            b"base0123456789".starts_with(after.as_slice()),
            "whatever landed is a prefix of the intended bytes"
        );
        // The tear pattern is reproducible from the seed.
        let c2 = mem();
        c2.append("f", b"base", Timestamp(0)).unwrap();
        c2.faults().set_torn_seed(1234);
        c2.faults().torn_next_appends(1);
        let _ = c2.append("f", b"0123456789", Timestamp(0));
        assert_eq!(c2.read_all("f").unwrap().data, after);
        // A later append continues after the torn tail.
        c.append("f", b"!", Timestamp(0)).unwrap();
        assert!(c.read_all("f").unwrap().data.ends_with(b"!"));
    }

    #[test]
    fn virtual_queueing_serializes_appends_per_file() {
        let c = Colossus::new_mem(
            ClusterId::from_raw(1),
            WriteProfile {
                overhead_us: 100,
                per_mib_us: 0,
                tail: vortex_common::latency::LogNormal::from_median_p99(10.0, 11.0),
            },
            7,
        );
        let a = c.append("f", b"1", Timestamp(0)).unwrap();
        let b = c.append("f", b"2", Timestamp(0)).unwrap();
        assert!(b.completion > a.completion, "same file queues");
        // Independent files don't queue on each other.
        let d = c.append("g", b"3", Timestamp(0)).unwrap();
        assert!(d.completion < b.completion);
    }

    #[test]
    fn slow_factor_scales_latency() {
        let c = mem();
        let base = c.append("f", b"x", Timestamp(0)).unwrap().service_us;
        c.faults().set_slow_factor(100.0);
        let slow = c.append("f", b"x", Timestamp(0)).unwrap().service_us;
        assert!(slow >= base * 10, "slow={slow} base={base}");
    }

    #[test]
    fn fleet_lookup_and_ids() {
        let fleet = StorageFleet::with_mem_clusters(3, WriteProfile::instant(), 9);
        assert_eq!(fleet.len(), 3);
        assert!(!fleet.is_empty());
        let ids = fleet.cluster_ids();
        assert_eq!(ids.len(), 3);
        fleet.get(ids[0]).unwrap();
        assert!(fleet.get(ClusterId::from_raw(99)).is_err());
    }

    #[test]
    fn concurrent_appends_from_many_threads() {
        let c = mem();
        let mut handles = vec![];
        for t in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    c.append(
                        &format!("file-{t}"),
                        format!("{i},").as_bytes(),
                        Timestamp(0),
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..8 {
            let data = c.read_all(&format!("file-{t}")).unwrap().data;
            let s = String::from_utf8(data).unwrap();
            assert_eq!(s.split(',').filter(|p| !p.is_empty()).count(), 100);
        }
    }

    #[test]
    fn disk_backend_roundtrip() {
        let dir = std::env::temp_dir().join(format!("vortex-colossus-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c =
            Colossus::new_disk(ClusterId::from_raw(0), &dir, WriteProfile::instant(), 1).unwrap();
        c.append("tbl/frag.1", b"persisted", Timestamp(0)).unwrap();
        assert_eq!(c.read_all("tbl/frag.1").unwrap().data, b"persisted");
        assert_eq!(c.list("tbl/").unwrap(), vec!["tbl/frag.1"]);
        // Reopen from disk: data survives.
        drop(c);
        let c2 =
            Colossus::new_disk(ClusterId::from_raw(0), &dir, WriteProfile::instant(), 1).unwrap();
        assert_eq!(c2.read_all("tbl/frag.1").unwrap().data, b"persisted");
        c2.delete("tbl/frag.1").unwrap();
        assert!(!c2.exists("tbl/frag.1"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
