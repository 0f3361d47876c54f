//! Crash-consistent durability for the metastore: WAL-logged commits,
//! atomically published checkpoints, and fenced recovery.
//!
//! Production Vortex leans on Spanner's own durability (§5.1); the
//! simulated store must earn the same guarantee on top of append-only
//! Colossus files. Three mechanisms compose:
//!
//! - **Commit WAL** (`meta/wal/<epoch>`): [`Durability::log_commit`]
//!   appends one length+CRC-framed record of the transaction's write
//!   set *before* the commit installs or acknowledges. A failed or torn
//!   append aborts the commit (nothing installed, nothing acked) and
//!   rotates to a fresh epoch file so later records never land behind
//!   an unreadable tail; recovery truncates each file at its first
//!   invalid frame.
//! - **Atomic checkpoint publish** ([`MetaStore::checkpoint`]): the
//!   snapshot is written to a fresh `meta/checkpoint/ckpt.<version>.<nonce>`
//!   file, then published by appending a `(prev → next)` record to the
//!   newest `meta/checkpoint/ptr.<gen>` pointer generation. Replaying
//!   the generations in order yields a single linear chain of accepted
//!   records; a record whose `prev` does not match the chain head lost
//!   the CAS. The loser — a split-brain SMS task during a Slicer
//!   double-ownership window — is *fenced*: its checkpoint file is
//!   deleted and it gets a [`VortexError::TxnConflict`]. The previously
//!   published checkpoint is never touched until its successor is fully
//!   durable. A torn pointer tail can never poison the chain: since an
//!   append-only file cannot be truncated, the next publish rotates to
//!   a fresh generation anchored with a re-statement of the chain head
//!   (and the same rotation periodically compacts the chain).
//! - **Recovery** ([`MetaStore::recover`]): load the newest accepted
//!   checkpoint that still validates (falling back down the chain — a
//!   corrupt newest checkpoint just means a longer WAL replay), then
//!   replay WAL epochs the checkpoint does not cover, frame by frame,
//!   stopping each file at the first torn frame. The returned
//!   [`MetaRecovery`] report lets soaks assert recovery was bounded by
//!   the tail, never a full-history replay.
//!
//! Checkpoint GC keeps the two newest published checkpoints (so the
//! corrupt-newest fallback never needs full history) and deletes WAL
//! epochs older than both.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vortex_colossus::Colossus;
use vortex_common::codec::{get_bytes, get_str, get_uvarint, put_uvarint, take};
use vortex_common::crashpoints;
use vortex_common::crc::crc32c;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::frame;
use vortex_common::truetime::{Timestamp, TrueTime};

use crate::MetaStore;

/// Directory-like prefix of the commit WAL (one file per epoch).
const WAL_DIR: &str = "meta/wal/";
/// Filename prefix of checkpoint snapshot files.
const CKPT_FILE_PREFIX: &str = "meta/checkpoint/ckpt.";
/// Filename prefix of version-pointer generations. The publish CAS
/// appends to the newest generation; a torn tail (an append-only file
/// can never be truncated) or an oversized generation rotates to the
/// next, *anchored* with a re-statement of the chain head so older
/// generations can be deleted.
const PTR_PREFIX: &str = "meta/checkpoint/ptr.";
/// Published checkpoints retained by GC: the newest plus one fallback.
const CKPT_RETAIN: usize = 2;
/// Accepted records per pointer generation before the next publish
/// rotates and compacts, keeping the chain read O(1)-ish forever.
const PTR_COMPACT_AFTER: usize = 64;

fn wal_path(epoch: u64) -> String {
    // lint:allow(L010, metadata-rate path formatting; flagged via a name-collision chain, not a real data hot path)
    format!("{WAL_DIR}{epoch:016x}")
}

fn ckpt_path(version: u64, nonce: u64) -> String {
    // lint:allow(L010, checkpoint-rate path formatting; recovery/checkpoint code, not a real data hot path)
    format!("{CKPT_FILE_PREFIX}{version:016x}.{nonce:08x}")
}

fn ptr_path(generation: u64) -> String {
    // lint:allow(L010, checkpoint-rate path formatting; recovery/checkpoint code, not a real data hot path)
    format!("{PTR_PREFIX}{generation:08x}")
}

/// Process-unique nonce source for checkpoint filenames: two racing
/// checkpointers proposing the same version must write distinct files.
fn next_nonce() -> u64 {
    // lint:allow(L008, uniqueness source for filenames, not a metric; exporting it to /varz would be noise)
    static NONCE: AtomicU64 = AtomicU64::new(1);
    NONCE.fetch_add(1, Ordering::Relaxed)
}

/// A strict prefix of `framed`, deterministically derived from its
/// contents — what a mid-append death durably leaves behind.
fn torn_prefix(framed: &[u8]) -> usize {
    if framed.is_empty() {
        return 0;
    }
    crc32c(framed) as usize % framed.len()
}

/// One accepted record of the version-pointer chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PtrRecord {
    prev_version: u64,
    version: u64,
    nonce: u64,
    covers_epoch: u64,
}

impl PtrRecord {
    fn encode(&self) -> Vec<u8> {
        // lint:allow(L010, checkpoint-publish record encoding; checkpoint-rate, flagged via a name-collision chain)
        let mut body = Vec::with_capacity(16);
        put_uvarint(&mut body, self.prev_version);
        put_uvarint(&mut body, self.version);
        put_uvarint(&mut body, self.nonce);
        put_uvarint(&mut body, self.covers_epoch);
        body
    }

    fn decode(body: &[u8]) -> VortexResult<Self> {
        let mut pos = 0usize;
        let rec = PtrRecord {
            prev_version: get_uvarint(body, &mut pos)?,
            version: get_uvarint(body, &mut pos)?,
            nonce: get_uvarint(body, &mut pos)?,
            covers_epoch: get_uvarint(body, &mut pos)?,
        };
        Ok(rec)
    }
}

/// The folded state of the version-pointer generations.
struct PtrState {
    /// Accepted records, oldest surviving first (after a compaction the
    /// oldest is the anchor that re-stated the head at rotation time).
    chain: Vec<PtrRecord>,
    /// The generation the next publish should append to. One past the
    /// newest on-disk generation when that generation's tail is torn
    /// (append-only files cannot be truncated — appending after a torn
    /// frame would make the record unreadable forever) or when it holds
    /// enough records that a compaction is due.
    append_gen: u64,
    /// Whether `append_gen` names a fresh file that must be anchored
    /// with a re-statement of the chain head before the next record.
    needs_anchor: bool,
}

impl PtrState {
    fn head_version(&self) -> u64 {
        self.chain.last().map(|r| r.version).unwrap_or(0)
    }
}

/// Reads every pointer generation in order and folds the accepted
/// chain: records apply in append order, and a record is accepted only
/// when its `prev_version` matches the current chain head — except the
/// very first record overall, which is accepted unconditionally (it is
/// either the genesis record or the anchor a compaction wrote when it
/// deleted the older generations). Everything else — CAS losers, torn
/// tails, duplicate anchors — is ignored.
fn read_ptr_state(cluster: &Colossus) -> VortexResult<PtrState> {
    // lint:allow(L010, recovery/checkpoint-rate pointer-chain read; cold-start path)
    let mut chain: Vec<PtrRecord> = Vec::new();
    let (mut append_gen, mut rotate) = (0u64, false);
    for (generation, path) in &cluster.list_numbered(PTR_PREFIX)? {
        let data = cluster.read_all(path)?.data;
        let (bodies, torn) = frame::read_frames(&data);
        let mut accepted_here = 0usize;
        for body in &bodies {
            let Ok(rec) = PtrRecord::decode(body) else {
                continue;
            };
            if chain.is_empty() || rec.prev_version == chain.last().map(|r| r.version).unwrap_or(0)
            {
                chain.push(rec); // lint:allow(L010, recovery/checkpoint-rate pointer-chain read; cold-start path)
                accepted_here += 1;
            }
        }
        append_gen = *generation;
        rotate = torn > 0 || accepted_here >= PTR_COMPACT_AFTER;
    }
    let needs_anchor = if rotate {
        append_gen += 1;
        !chain.is_empty()
    } else {
        false
    };
    Ok(PtrState {
        chain,
        append_gen,
        needs_anchor,
    })
}

/// The WAL + checkpoint state attached to a durable [`MetaStore`].
pub(crate) struct Durability {
    cluster: Arc<Colossus>,
    /// The WAL epoch commits currently append to. Bumped by checkpoints
    /// (so a snapshot covers exactly the epochs before it) and after
    /// any failed append (so new records never land behind a tail of
    /// unknown integrity).
    epoch: AtomicU64,
}

impl Durability {
    /// Appends the framed write-set record for `ts`; called under the
    /// store's commit lock, before the commit installs.
    pub(crate) fn log_commit(
        &self,
        ts: Timestamp,
        writes: &BTreeMap<String, Option<Vec<u8>>>,
    ) -> VortexResult<()> {
        // lint:allow(L010, WAL record encoding allocates by design; metadata commits are checkpoint-rate next to row appends)
        let mut body = Vec::new();
        put_uvarint(&mut body, ts.micros());
        put_uvarint(&mut body, writes.len() as u64);
        for (k, v) in writes {
            put_uvarint(&mut body, k.len() as u64);
            // lint:allow(L010, WAL record encoding allocates by design; metadata-rate)
            body.extend_from_slice(k.as_bytes());
            match v {
                // lint:allow(L010, WAL record encoding allocates by design; metadata-rate)
                None => body.push(0),
                Some(bytes) => {
                    // lint:allow(L010, WAL record encoding allocates by design; metadata-rate)
                    body.push(1);
                    put_uvarint(&mut body, bytes.len() as u64);
                    // lint:allow(L010, WAL record encoding allocates by design; metadata-rate)
                    body.extend_from_slice(bytes);
                }
            }
        }
        let framed = frame::framed(&body);
        let path = wal_path(self.epoch.load(Ordering::SeqCst));
        // Mid-append process death: a strict prefix of the frame lands
        // durably and the commit is never acknowledged. Direct `check`
        // call (not the macro) because the torn prefix must be written
        // before the error unwinds.
        if let Err(crash) = crashpoints::check("meta.wal.mid_append") {
            let keep = torn_prefix(&framed);
            if keep > 0 {
                let _ = self.cluster.append(&path, &framed[..keep], Timestamp::MIN);
            }
            self.epoch.fetch_add(1, Ordering::SeqCst);
            return Err(crash);
        }
        match self.cluster.append(&path, &framed, Timestamp::MIN) {
            Ok(_) => Ok(()),
            Err(e) => {
                // The file tail is unknown (the cluster may have persisted
                // a torn prefix); rotate so later commits stay readable.
                self.epoch.fetch_add(1, Ordering::SeqCst);
                Err(e)
            }
        }
    }
}

/// A decoded WAL commit: the write set applied at one commit timestamp.
/// `None` values are deletes.
type WalRecord = (Timestamp, Vec<(String, Option<Vec<u8>>)>);

/// Decoded WAL record: commit timestamp plus write set.
fn decode_wal_record(body: &[u8]) -> VortexResult<WalRecord> {
    let mut pos = 0usize;
    let ts = Timestamp(get_uvarint(body, &mut pos)?);
    let n = get_uvarint(body, &mut pos)? as usize;
    if n > body.len() {
        return Err(VortexError::Decode("implausible WAL write count".into()));
    }
    // lint:allow(L010, recovery-only WAL replay decoding; cold-start path)
    let mut writes = Vec::with_capacity(n);
    for _ in 0..n {
        let key = get_str(body, &mut pos)?;
        let value = match take(body, &mut pos, 1)?[0] {
            0 => None,
            1 => Some(get_bytes(body, &mut pos)?),
            // lint:allow(L010, recovery-only WAL replay decoding; cold-start path)
            o => return Err(VortexError::Decode(format!("bad WAL value flag {o}"))),
        };
        writes.push((key, value)); // lint:allow(L010, recovery-only WAL replay decoding; cold-start path)
    }
    Ok((ts, writes))
}

/// What [`MetaStore::checkpoint`] published and cleaned up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaCheckpointOutcome {
    /// The version this checkpoint published (strictly increasing).
    pub version: u64,
    /// First WAL epoch *not* covered by the snapshot: recovery replays
    /// epochs `>= covers_epoch`.
    pub covers_epoch: u64,
    /// Superseded WAL epoch files deleted after publishing.
    pub wal_files_deleted: usize,
    /// Superseded checkpoint files deleted after publishing.
    pub checkpoints_deleted: usize,
}

/// How a [`MetaStore::recover`] call rebuilt the store — the evidence
/// that recovery was checkpoint + tail, not a full-history replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetaRecovery {
    /// Version of the checkpoint the store was restored from (`None` =
    /// cold start with no usable checkpoint).
    pub checkpoint_version: Option<u64>,
    /// Accepted-but-unloadable checkpoints skipped before finding a
    /// valid one (0 = the newest published checkpoint was intact).
    pub fallback_depth: usize,
    /// WAL epoch files replayed on top of the checkpoint.
    pub wal_epochs_replayed: usize,
    /// Commits replayed from the WAL tail.
    pub commits_replayed: usize,
    /// WAL records skipped because the checkpoint already covered them.
    pub commits_skipped: usize,
    /// Bytes dropped from torn WAL/file tails during replay.
    pub torn_bytes_dropped: usize,
}

impl MetaStore {
    /// Rebuilds a durable store from `cluster`: newest valid published
    /// checkpoint (walking the pointer chain backwards past corrupt
    /// ones) plus a frame-by-frame replay of the uncovered WAL tail.
    /// An empty cluster cold-starts an empty durable store. All
    /// subsequent commits through the returned store are WAL-logged
    /// before being acknowledged.
    pub fn recover(
        tt: TrueTime,
        cluster: &Arc<Colossus>,
    ) -> VortexResult<(Arc<Self>, MetaRecovery)> {
        let mut report = MetaRecovery::default();
        let state = read_ptr_state(cluster)?;
        // Newest accepted checkpoint that still loads; a corrupt or
        // missing file just means more WAL to replay from an older one.
        let mut base: Option<(BTreeMap<String, Vec<crate::Version>>, u64, u64)> = None;
        let mut covers_epoch = 0u64;
        for rec in state.chain.iter().rev() {
            match load_checkpoint(cluster, rec) {
                Some((data, last_commit)) => {
                    report.checkpoint_version = Some(rec.version);
                    covers_epoch = rec.covers_epoch;
                    base = Some((data, last_commit, rec.version));
                    break;
                }
                None => report.fallback_depth += 1,
            }
        }
        let store = match base {
            Some((data, last_commit, _)) => Self::from_parts(tt, data, last_commit),
            // lint:allow(L010, cold-start recovery; the append chain through Region::create is a name-collision artifact)
            None => Self::from_parts(tt, BTreeMap::new(), 0),
        };
        // Replay the tail: every epoch the checkpoint does not cover,
        // in epoch order, each file truncated at its first torn frame.
        let mut max_epoch = covers_epoch;
        for (epoch, path) in cluster.list_numbered(WAL_DIR)? {
            max_epoch = max_epoch.max(epoch);
            if epoch < covers_epoch {
                continue;
            }
            let data = cluster.read_all(&path)?.data;
            let (bodies, torn) = frame::read_frames(&data);
            report.torn_bytes_dropped += torn;
            report.wal_epochs_replayed += 1;
            for body in bodies {
                let (ts, writes) = decode_wal_record(body)?;
                if ts.micros() <= store.last_commit.load(Ordering::SeqCst) {
                    report.commits_skipped += 1;
                    continue;
                }
                store.apply_replay(ts, writes);
                report.commits_replayed += 1;
            }
        }
        // Fresh epoch: never append behind a tail of unknown integrity.
        let d = Durability {
            cluster: Arc::clone(cluster),
            epoch: AtomicU64::new(max_epoch + 1),
        };
        // lint:allow(L010, cold-start recovery; runs once per process, never on the data path)
        let store = Arc::new(store);
        // A store constructed in this function cannot already be durable.
        let _ = store.durability.set(d);
        Ok((store, report))
    }

    /// Takes a snapshot and atomically publishes it as the next
    /// checkpoint version, then garbage-collects superseded checkpoint
    /// files and the WAL prefix both retained checkpoints cover.
    ///
    /// The publish goes through a CAS on the version-pointer file: if a
    /// concurrent checkpointer (a split-brain SMS task in a Slicer
    /// double-ownership window) published first, this call is fenced
    /// with [`VortexError::TxnConflict`] and leaves the winner's
    /// checkpoint untouched. Crash points model death mid-snapshot
    /// (`meta.checkpoint.mid_write` — a torn, never-published file) and
    /// just before publish (`meta.checkpoint.pre_publish`): in both
    /// cases the previously published checkpoint keeps recovery intact.
    pub fn checkpoint(&self) -> VortexResult<MetaCheckpointOutcome> {
        let d = self.durability.get().ok_or_else(|| {
            VortexError::InvalidArgument("checkpoint on a non-durable metastore".into())
        })?;
        // Freeze commits just long enough to pair the snapshot with a
        // WAL epoch rotation: the snapshot covers exactly the commits
        // in epochs before `covers_epoch`.
        let (snapshot, covers_epoch) = {
            let _guard = self.commit_lock.lock();
            let snap = self.encode_snapshot();
            let covers = d.epoch.fetch_add(1, Ordering::SeqCst) + 1;
            (snap, covers)
        };
        let state = read_ptr_state(&d.cluster)?;
        let prev_version = state.head_version();
        let rec = PtrRecord {
            prev_version,
            version: prev_version + 1,
            nonce: next_nonce(),
            covers_epoch,
        };
        let path = ckpt_path(rec.version, rec.nonce);
        let mut body = Vec::with_capacity(snapshot.len() + 4);
        put_uvarint(&mut body, covers_epoch);
        body.extend_from_slice(&snapshot);
        let framed = frame::framed(&body);
        // Mid-write process death: a torn, unpublished candidate file.
        // Direct `check` call so the torn prefix lands first.
        if let Err(crash) = crashpoints::check("meta.checkpoint.mid_write") {
            let keep = torn_prefix(&framed);
            if keep > 0 {
                let _ = d.cluster.append(&path, &framed[..keep], Timestamp::MIN);
            }
            return Err(crash);
        }
        d.cluster.append(&path, &framed, Timestamp::MIN)?;
        // Fully durable but not yet published: recovery still uses the
        // previous checkpoint (plus a longer WAL tail) if we die here.
        vortex_common::crash_point!("meta.checkpoint.pre_publish");
        let ptr_file = ptr_path(state.append_gen);
        if state.needs_anchor {
            // Fresh generation (the previous one ended in a torn tail,
            // or a compaction is due): anchor it with a re-statement of
            // the chain head so the older generations become deletable.
            if let Some(head) = state.chain.last() {
                d.cluster
                    .append(&ptr_file, &frame::framed(&head.encode()), Timestamp::MIN)?;
            }
        }
        // On append failure the generation's tail is of unknown
        // integrity; the next publish re-reads and rotates past it. Our
        // candidate file leaks until the next successful checkpoint's GC.
        d.cluster
            .append(&ptr_file, &frame::framed(&rec.encode()), Timestamp::MIN)?;
        let after = read_ptr_state(&d.cluster)?;
        if !after.chain.contains(&rec) {
            // CAS lost: someone else published this version first. Drop
            // our candidate and fence the caller.
            let _ = d.cluster.delete(&path);
            return Err(VortexError::TxnConflict(format!(
                "checkpoint version {} already published by a concurrent writer (fenced)",
                rec.version
            )));
        }
        // Pointer compaction: our anchored generation now carries the
        // chain, so everything older can go.
        if state.needs_anchor {
            for (generation, f) in d.cluster.list_numbered(PTR_PREFIX)? {
                if generation < state.append_gen {
                    d.cluster.delete(&f)?;
                }
            }
        }
        // GC: keep the newest CKPT_RETAIN published checkpoints and the
        // WAL epochs at or after the oldest retained one's coverage.
        let retained: Vec<&PtrRecord> = after.chain.iter().rev().take(CKPT_RETAIN).collect();
        let keep_files: Vec<String> = retained
            .iter()
            .map(|r| ckpt_path(r.version, r.nonce))
            .collect();
        let min_covers = retained
            .iter()
            .map(|r| r.covers_epoch)
            .min()
            .unwrap_or(covers_epoch);
        let mut checkpoints_deleted = 0usize;
        for f in d.cluster.list(CKPT_FILE_PREFIX)? {
            if !keep_files.contains(&f) {
                d.cluster.delete(&f)?;
                checkpoints_deleted += 1;
            }
        }
        let mut wal_files_deleted = 0usize;
        for (epoch, f) in d.cluster.list_numbered(WAL_DIR)? {
            if epoch < min_covers {
                d.cluster.delete(&f)?;
                wal_files_deleted += 1;
            }
        }
        Ok(MetaCheckpointOutcome {
            version: rec.version,
            covers_epoch,
            wal_files_deleted,
            checkpoints_deleted,
        })
    }
}

/// Loads and validates one published checkpoint; `None` means corrupt,
/// torn, or missing — the caller falls back to an older one.
fn load_checkpoint(
    cluster: &Colossus,
    rec: &PtrRecord,
) -> Option<(BTreeMap<String, Vec<crate::Version>>, u64)> {
    let path = ckpt_path(rec.version, rec.nonce);
    if !cluster.exists(&path) {
        return None;
    }
    let data = cluster.read_all(&path).ok()?.data;
    let (bodies, _torn) = frame::read_frames(&data);
    let body = bodies.first()?;
    let mut pos = 0usize;
    let covers = get_uvarint(body, &mut pos).ok()?;
    if covers != rec.covers_epoch {
        return None;
    }
    MetaStore::decode_snapshot(&body[pos..]).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use vortex_common::ids::ClusterId;
    use vortex_common::latency::WriteProfile;
    use vortex_common::truetime::SimClock;

    /// Crash points and fault tokens are process-global; durable-store
    /// tests must not see each other's.
    static ARM_LOCK: Mutex<()> = Mutex::new(());

    fn tt() -> TrueTime {
        TrueTime::simulated(SimClock::new(1_000), 10, 0)
    }

    fn mem_cluster() -> Arc<Colossus> {
        Colossus::new_mem(ClusterId::from_raw(0x5DB), WriteProfile::instant(), 7)
    }

    fn put(s: &Arc<MetaStore>, k: &str, v: &[u8]) -> Timestamp {
        let mut t = s.begin();
        t.put(k, v.to_vec());
        t.commit().unwrap()
    }

    fn del(s: &Arc<MetaStore>, k: &str) -> Timestamp {
        let mut t = s.begin();
        t.delete(k);
        t.commit().unwrap()
    }

    /// The newest checkpoint file on the cluster, by version then nonce
    /// (filenames zero-pad both, so the lexical max is the newest).
    fn newest_ckpt_file(c: &Colossus) -> String {
        c.list(CKPT_FILE_PREFIX).unwrap().into_iter().max().unwrap()
    }

    #[test]
    fn maximal_length_varint_in_wal_record_is_an_error_not_an_overflow() {
        // ts 1, one write, then a key (then a value) of length u64::MAX:
        // `pos + n` used to overflow before the bound could reject it.
        let mut key_len = vec![1, 1];
        put_uvarint(&mut key_len, u64::MAX);
        assert!(decode_wal_record(&key_len).is_err());
        let mut value_len = vec![1, 1, 1, b'k', 1];
        put_uvarint(&mut value_len, u64::MAX);
        assert!(decode_wal_record(&value_len).is_err());
    }

    #[test]
    fn empty_cluster_cold_starts_durable_and_empty() {
        let _arm = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let c = mem_cluster();
        let (s, rep) = MetaStore::recover(tt(), &c).unwrap();
        assert_eq!(rep, MetaRecovery::default());
        assert!(s.is_durable());
        assert_eq!(s.version_count(), 0);
        // The cold-started store logs commits immediately.
        put(&s, "a", b"1");
        let (s2, rep2) = MetaStore::recover(tt(), &c).unwrap();
        assert_eq!(rep2.commits_replayed, 1);
        assert_eq!(rep2.checkpoint_version, None);
        assert_eq!(s2.read_at("a", s2.now()), Some(b"1".to_vec()));
    }

    #[test]
    fn wal_replay_restores_every_acked_commit() {
        let _arm = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let c = mem_cluster();
        let (s, _) = MetaStore::recover(tt(), &c).unwrap();
        put(&s, "a", b"1");
        put(&s, "b", b"2");
        put(&s, "a", b"3");
        del(&s, "b");
        let (r, rep) = MetaStore::recover(tt(), &c).unwrap();
        assert_eq!(rep.commits_replayed, 4);
        assert_eq!(r.snapshot_bytes(), s.snapshot_bytes());
    }

    #[test]
    fn torn_wal_append_aborts_commit_and_replay_drops_the_tail() {
        let _arm = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let c = mem_cluster();
        let (s, _) = MetaStore::recover(tt(), &c).unwrap();
        put(&s, "acked", b"1");
        // The next WAL append durably persists only a seeded prefix and
        // fails: the commit must not ack or install.
        c.faults().set_torn_seed(0xBAD);
        c.faults().torn_next_appends(1);
        let mut t = s.begin();
        t.put("lost", b"x".to_vec());
        assert!(t.commit().is_err());
        assert_eq!(s.read_at("lost", s.now()), None);
        // The epoch rotated past the unreadable tail, so later commits
        // stay recoverable.
        put(&s, "after", b"2");
        let (r, rep) = MetaStore::recover(tt(), &c).unwrap();
        assert_eq!(rep.commits_replayed, 2);
        assert_eq!(r.read_at("lost", r.now()), None);
        assert_eq!(r.snapshot_bytes(), s.snapshot_bytes());
    }

    #[test]
    fn mid_append_crash_is_atomic_per_commit() {
        let _arm = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let c = mem_cluster();
        let (s, _) = MetaStore::recover(tt(), &c).unwrap();
        put(&s, "a", b"1");
        let before = s.now();
        let guard = crashpoints::arm_nth("meta.wal.mid_append", 1);
        let mut t = s.begin();
        t.put("dead", b"x".to_vec());
        let err = t.commit().unwrap_err();
        assert!(matches!(err, VortexError::SimulatedCrash(_)));
        drop(guard);
        // Never acked, never installed, never recovered.
        assert_eq!(s.now(), before);
        assert_eq!(s.read_at("dead", s.now()), None);
        put(&s, "b", b"2");
        let (r, _) = MetaStore::recover(tt(), &c).unwrap();
        assert_eq!(r.read_at("dead", r.now()), None);
        assert_eq!(r.snapshot_bytes(), s.snapshot_bytes());
    }

    #[test]
    fn checkpoint_bounds_recovery_to_the_tail() {
        let _arm = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let c = mem_cluster();
        let (s, _) = MetaStore::recover(tt(), &c).unwrap();
        for i in 0..5 {
            put(&s, &format!("k{i}"), b"v");
        }
        let o1 = s.checkpoint().unwrap();
        assert_eq!(o1.version, 1);
        assert_eq!(o1.wal_files_deleted, 1, "covered WAL prefix kept: {o1:?}");
        for i in 0..3 {
            put(&s, &format!("tail{i}"), b"v");
        }
        let (r, rep) = MetaStore::recover(tt(), &c).unwrap();
        assert_eq!(rep.checkpoint_version, Some(1));
        assert_eq!(rep.commits_replayed, 3, "{rep:?}");
        assert_eq!(rep.commits_skipped, 0, "{rep:?}");
        assert_eq!(r.snapshot_bytes(), s.snapshot_bytes());
        // A second checkpoint empties the replay tail, but keeps the
        // WAL epoch its fallback (version 1) would need; the epoch is
        // only truncated once version 3 pushes version 1 out of the
        // retained window.
        let o2 = s.checkpoint().unwrap();
        assert_eq!(o2.version, 2);
        assert_eq!(o2.wal_files_deleted, 0, "{o2:?}");
        let (r2, rep2) = MetaStore::recover(tt(), &c).unwrap();
        assert_eq!(rep2.checkpoint_version, Some(2));
        assert_eq!(rep2.commits_replayed, 0, "{rep2:?}");
        assert_eq!(r2.snapshot_bytes(), s.snapshot_bytes());
        let o3 = s.checkpoint().unwrap();
        assert_eq!(o3.version, 3);
        assert_eq!(o3.wal_files_deleted, 1, "{o3:?}");
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_previous() {
        let _arm = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let c = mem_cluster();
        let (s, _) = MetaStore::recover(tt(), &c).unwrap();
        put(&s, "a", b"1");
        s.checkpoint().unwrap();
        put(&s, "b", b"2");
        s.checkpoint().unwrap();
        put(&s, "c", b"3");
        // Lose the newest checkpoint file (still published in the
        // pointer chain): recovery walks back to version 1 and replays
        // a longer tail instead.
        c.delete(&newest_ckpt_file(&c)).unwrap();
        let (r, rep) = MetaStore::recover(tt(), &c).unwrap();
        assert_eq!(rep.checkpoint_version, Some(1), "{rep:?}");
        assert_eq!(rep.fallback_depth, 1, "{rep:?}");
        assert_eq!(rep.commits_replayed, 2, "{rep:?}");
        assert_eq!(r.snapshot_bytes(), s.snapshot_bytes());
    }

    #[test]
    fn cas_loser_record_is_rejected_by_the_fold() {
        let _arm = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let c = mem_cluster();
        let (s, _) = MetaStore::recover(tt(), &c).unwrap();
        put(&s, "a", b"1");
        s.checkpoint().unwrap();
        // A split-brain rival that read the chain before our publish
        // appends its own version-1 record; the fold must reject it.
        let loser = PtrRecord {
            prev_version: 0,
            version: 1,
            nonce: 0xDEAD,
            covers_epoch: 1,
        };
        c.append(
            &ptr_path(0),
            &frame::framed(&loser.encode()),
            Timestamp::MIN,
        )
        .unwrap();
        let state = read_ptr_state(&c).unwrap();
        assert_eq!(state.chain.len(), 1);
        assert!(!state.chain.contains(&loser));
        // Publishing continues linearly past the rejected record.
        let o = s.checkpoint().unwrap();
        assert_eq!(o.version, 2);
        let (_, rep) = MetaStore::recover(tt(), &c).unwrap();
        assert_eq!(rep.checkpoint_version, Some(2));
        assert_eq!(rep.fallback_depth, 0);
    }

    #[test]
    fn torn_pointer_tail_rotates_generation_and_heals() {
        let _arm = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let c = mem_cluster();
        let (s, _) = MetaStore::recover(tt(), &c).unwrap();
        put(&s, "a", b"1");
        let o1 = s.checkpoint().unwrap();
        // A death mid-pointer-append leaves a torn frame at the tail of
        // generation 0. Append-only files cannot be truncated, so the
        // generation is unusable from here on.
        let garbage = frame::framed(&[0x42; 20]);
        c.append(&ptr_path(0), &garbage[..7], Timestamp::MIN)
            .unwrap();
        // The next publish rotates to an anchored generation 1, then
        // deletes generation 0.
        put(&s, "b", b"2");
        let o2 = s.checkpoint().unwrap();
        assert_eq!(o2.version, o1.version + 1);
        assert_eq!(c.list(PTR_PREFIX).unwrap(), vec![ptr_path(1)]);
        let (r, rep) = MetaStore::recover(tt(), &c).unwrap();
        assert_eq!(rep.checkpoint_version, Some(o2.version));
        assert_eq!(rep.fallback_depth, 0);
        assert_eq!(r.snapshot_bytes(), s.snapshot_bytes());
        // A healthy generation does not rotate again.
        let o3 = s.checkpoint().unwrap();
        assert_eq!(o3.version, o2.version + 1);
        assert_eq!(c.list(PTR_PREFIX).unwrap(), vec![ptr_path(1)]);
    }

    #[test]
    fn concurrent_checkpoints_publish_one_linear_chain() {
        let _arm = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let c = mem_cluster();
        let (s1, _) = MetaStore::recover(tt(), &c).unwrap();
        put(&s1, "seed", b"1");
        // A second durable store over the same cluster: a split-brain
        // SMS task during a Slicer double-ownership window.
        let (s2, _) = MetaStore::recover(tt(), &c).unwrap();
        let oks = std::sync::atomic::AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for s in [&s1, &s2] {
                scope.spawn(|| {
                    for _ in 0..8 {
                        barrier.wait();
                        match s.checkpoint() {
                            Ok(_) => {
                                oks.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(VortexError::TxnConflict(_)) => {}
                            Err(e) => panic!("unexpected checkpoint error: {e}"),
                        }
                    }
                });
            }
        });
        // Exactly one record per published version: the chain head is
        // the number of successful publishes, however the race fell.
        let state = read_ptr_state(&c).unwrap();
        assert_eq!(state.head_version(), oks.load(Ordering::SeqCst) as u64);
        // And the durable ledger still equals the store that owns all
        // the commits, even if a stale split-brain snapshot published
        // last (the WAL tail fills the gap).
        let (r, _) = MetaStore::recover(tt(), &c).unwrap();
        assert_eq!(r.snapshot_bytes(), s1.snapshot_bytes());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Put(u8, u8),
            Del(u8),
            Checkpoint,
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                4 => (0u8..6, any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
                2 => (0u8..6).prop_map(Op::Del),
                1 => Just(Op::Checkpoint),
            ]
        }

        proptest! {
            /// For any interleaving of commits and checkpoints, a store
            /// recovered from durable state equals the pre-crash store
            /// byte-for-byte, and replay is bounded by the commits
            /// since the last checkpoint — never full history.
            #[test]
            fn replay_of_checkpoint_plus_tail_equals_pre_crash(ops in proptest::collection::vec(op_strategy(), 1..40)) {
                let _arm = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
                let c = mem_cluster();
                let (s, _) = MetaStore::recover(tt(), &c).unwrap();
                let mut since_ckpt = 0usize;
                let mut ckpts = 0usize;
                for op in ops {
                    match op {
                        Op::Put(k, v) => {
                            put(&s, &format!("k{k}"), &[v]);
                            since_ckpt += 1;
                        }
                        Op::Del(k) => {
                            del(&s, &format!("k{k}"));
                            since_ckpt += 1;
                        }
                        Op::Checkpoint => {
                            s.checkpoint().unwrap();
                            ckpts += 1;
                            since_ckpt = 0;
                        }
                    }
                }
                let (r, rep) = MetaStore::recover(tt(), &c).unwrap();
                prop_assert_eq!(r.snapshot_bytes(), s.snapshot_bytes());
                prop_assert_eq!(rep.commits_replayed, since_ckpt);
                prop_assert_eq!(rep.checkpoint_version, (ckpts > 0).then_some(ckpts as u64));
            }
        }
    }
}
