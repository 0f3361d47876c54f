//! A Spanner-lite: the transactional metadata database behind the SMS.
//!
//! Vortex stores "metadata for Streams and Streamlets ... using a regional
//! Spanner database" (§5.1) and leans on "the ACID semantics offered by
//! the Spanner transactions" to stay correct even when Slicer briefly lets
//! two SMS tasks both believe they own a table (§5.2.1). Commit timestamps
//! double as the visibility timestamps of the fragment LSM
//! (`[creation_timestamp, deletion_timestamp)`, §6.1), so they come from
//! the same TrueTime source the Stream Servers stamp records with.
//!
//! This crate implements the slice of Spanner the engine needs:
//!
//! - a multi-version key-value store with string keys and byte values;
//! - **serializable optimistic transactions**: reads are validated at
//!   commit (keys *and* prefix ranges, so phantom inserts are caught),
//!   writes install atomically at a TrueTime-derived commit timestamp;
//! - **snapshot reads** at any timestamp ([`MetaStore::read_at`],
//!   [`MetaStore::scan_prefix_at`]), which is how query-time metadata
//!   resolution sees a consistent fragment set;
//! - version garbage collection below a caller-supplied watermark;
//! - **crash-consistent durability** ([`durability`]): commits append a
//!   length+CRC-framed record of their write set to a WAL in Colossus
//!   before they are acknowledged, checkpoints publish atomically
//!   through a version-pointer CAS, and recovery replays
//!   latest-valid-checkpoint + WAL tail ([`MetaStore::recover`]).
//!
//! Geographic replication is out of scope (it is orthogonal to every claim
//! the paper makes about Vortex itself).

#![warn(missing_docs)]

pub mod durability;

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};

use vortex_common::error::{VortexError, VortexResult};
use vortex_common::truetime::{Timestamp, TrueTime};

use durability::Durability;
pub use durability::{MetaCheckpointOutcome, MetaRecovery};

/// One committed version of a key. `None` value = tombstone (deleted).
#[derive(Debug, Clone)]
pub(crate) struct Version {
    pub(crate) ts: Timestamp,
    pub(crate) value: Option<Vec<u8>>,
}

/// What a transaction read, for commit-time validation.
#[derive(Debug, Clone)]
enum ReadFootprint {
    Key(String),
    Prefix(String),
}

/// The metadata store. Cheap to share via `Arc`.
pub struct MetaStore {
    pub(crate) data: RwLock<BTreeMap<String, Vec<Version>>>,
    pub(crate) commit_lock: Mutex<()>,
    pub(crate) last_commit: AtomicU64,
    /// Bumped by each [`MetaStore::gc_versions`] that removes a version:
    /// a read at a snapshot below its watermark may answer differently.
    prunes: AtomicU64,
    tt: TrueTime,
    /// Optional WAL + checkpoint machinery. Empty for plain in-memory
    /// stores ([`MetaStore::new`]); set exactly once by
    /// [`MetaStore::recover`], after which every commit is WAL-logged
    /// before it is acknowledged.
    pub(crate) durability: OnceLock<Durability>,
}

impl MetaStore {
    /// Creates a store whose commit timestamps come from `tt`.
    pub fn new(tt: TrueTime) -> Arc<Self> {
        Arc::new(Self::from_parts(tt, BTreeMap::new(), 0))
    }

    pub(crate) fn from_parts(
        tt: TrueTime,
        data: BTreeMap<String, Vec<Version>>,
        last_commit: u64,
    ) -> Self {
        Self {
            data: RwLock::new(data),
            commit_lock: Mutex::new(()),
            last_commit: AtomicU64::new(last_commit),
            prunes: AtomicU64::new(0),
            tt,
            durability: OnceLock::new(),
        }
    }

    /// Whether commits are WAL-logged to Colossus before being acked
    /// (true after [`MetaStore::recover`]).
    pub fn is_durable(&self) -> bool {
        self.durability.get().is_some()
    }

    /// The highest commit timestamp so far: a safe snapshot that sees all
    /// committed transactions.
    pub fn now(&self) -> Timestamp {
        Timestamp(self.last_commit.load(Ordering::SeqCst))
    }

    /// How many [`MetaStore::gc_versions`] calls have removed a version:
    /// while it stands, a snapshot read answers as it did.
    pub fn prune_generation(&self) -> u64 {
        self.prunes.load(Ordering::SeqCst)
    }

    /// A fresh read-write transaction snapshotted at [`MetaStore::now`].
    pub fn begin(self: &Arc<Self>) -> Txn {
        Txn {
            store: Arc::clone(self),
            read_ts: self.now(),
            reads: Vec::new(),
            writes: BTreeMap::new(),
        }
    }

    /// Reads the value of `key` visible at `ts` (inclusive).
    pub fn read_at(&self, key: &str, ts: Timestamp) -> Option<Vec<u8>> {
        let data = self.data.read();
        visible(data.get(key)?, ts)
    }

    /// Scans all live keys with the given prefix at `ts`, sorted by key.
    pub fn scan_prefix_at(&self, prefix: &str, ts: Timestamp) -> Vec<(String, Vec<u8>)> {
        let data = self.data.read();
        data.range::<String, _>((Bound::Included(prefix.to_string()), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .filter_map(|(k, versions)| visible(versions, ts).map(|v| (k.clone(), v)))
            .collect()
    }

    /// Runs `f` inside a transaction, retrying on [`VortexError::TxnConflict`]
    /// up to `max_retries` times. The usual way components mutate metadata.
    pub fn with_txn<T>(
        self: &Arc<Self>,
        max_retries: usize,
        f: impl FnMut(&mut Txn) -> VortexResult<T>,
    ) -> VortexResult<T> {
        self.with_txn_at(max_retries, f).map(|(out, _)| out)
    }

    /// Like [`MetaStore::with_txn`], but also returns the commit
    /// timestamp — the snapshot from which the transaction's effects are
    /// visible.
    pub fn with_txn_at<T>(
        self: &Arc<Self>,
        max_retries: usize,
        mut f: impl FnMut(&mut Txn) -> VortexResult<T>,
    ) -> VortexResult<(T, Timestamp)> {
        let mut attempts = 0;
        loop {
            let mut txn = self.begin();
            let out = f(&mut txn)?;
            match txn.commit() {
                Ok(ts) => return Ok((out, ts)),
                Err(VortexError::TxnConflict(msg)) => {
                    attempts += 1;
                    if attempts > max_retries {
                        return Err(VortexError::TxnConflict(format!(
                            "{msg} (after {attempts} attempts)"
                        )));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Drops all versions strictly older than the newest version at or
    /// below `watermark` for each key, and fully-deleted keys whose
    /// tombstone is below the watermark. Returns versions removed.
    pub fn gc_versions(&self, watermark: Timestamp) -> usize {
        let mut data = self.data.write();
        let mut removed = 0usize;
        data.retain(|_, versions| {
            // Find the latest version at or below the watermark; earlier
            // ones can never be read again.
            if let Some(keep_from) = versions.iter().rposition(|v| v.ts <= watermark) {
                removed += keep_from;
                versions.drain(..keep_from);
            }
            // If the only remaining version is an old tombstone, drop the key.
            if versions.len() == 1 && versions[0].value.is_none() && versions[0].ts <= watermark {
                removed += 1;
                return false;
            }
            true
        });
        if removed > 0 {
            self.prunes.fetch_add(1, Ordering::SeqCst);
        }
        removed
    }

    /// Total number of stored versions (diagnostics / GC tests).
    pub fn version_count(&self) -> usize {
        self.data.read().values().map(|v| v.len()).sum()
    }

    /// Serializes the full store (every key's version chain) for
    /// checkpointing — production Spanner is durable on its own; the
    /// simulated store checkpoints into Colossus so on-disk regions
    /// survive restarts.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let _guard = self.commit_lock.lock(); // freeze commits mid-snapshot
        self.encode_snapshot()
    }

    /// Serializes the store without taking the commit lock — callers
    /// (checkpointing) must already hold it to freeze commits.
    pub(crate) fn encode_snapshot(&self) -> Vec<u8> {
        use vortex_common::codec::put_uvarint;
        let data = self.data.read();
        let mut out = Vec::new();
        out.extend_from_slice(b"VMST");
        put_uvarint(&mut out, self.now().micros());
        put_uvarint(&mut out, data.len() as u64);
        for (k, versions) in data.iter() {
            put_uvarint(&mut out, k.len() as u64);
            out.extend_from_slice(k.as_bytes());
            put_uvarint(&mut out, versions.len() as u64);
            for v in versions {
                put_uvarint(&mut out, v.ts.micros());
                match &v.value {
                    None => out.push(0),
                    Some(b) => {
                        out.push(1);
                        put_uvarint(&mut out, b.len() as u64);
                        out.extend_from_slice(b);
                    }
                }
            }
        }
        let crc = vortex_common::crc::crc32c(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Restores a store from [`MetaStore::snapshot_bytes`] output.
    pub fn restore(tt: TrueTime, bytes: &[u8]) -> VortexResult<Arc<Self>> {
        let (data, last_commit) = Self::decode_snapshot(bytes)?;
        Ok(Arc::new(Self::from_parts(tt, data, last_commit)))
    }

    /// Decodes a snapshot into its version map and last-commit
    /// timestamp, validating magic, CRC, and exact length.
    pub(crate) fn decode_snapshot(
        bytes: &[u8],
    ) -> VortexResult<(BTreeMap<String, Vec<Version>>, u64)> {
        use vortex_common::codec::{get_bytes, get_str, get_uvarint, take};
        if bytes.len() < 8 || &bytes[..4] != b"VMST" {
            return Err(VortexError::Decode("not a metastore snapshot".into()));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        // lint:allow(L002, split_at(len - 4) yields exactly 4 bytes; the length was checked above)
        let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if vortex_common::crc::crc32c(body) != stored {
            return Err(VortexError::CorruptData("metastore snapshot crc".into()));
        }
        let mut pos = 4usize;
        let last_commit = get_uvarint(body, &mut pos)?;
        let nkeys = get_uvarint(body, &mut pos)? as usize;
        if nkeys > body.len() {
            return Err(VortexError::Decode("implausible key count".into()));
        }
        let mut data = BTreeMap::new();
        for _ in 0..nkeys {
            let key = get_str(body, &mut pos)?;
            let nver = get_uvarint(body, &mut pos)? as usize;
            if nver > body.len() {
                return Err(VortexError::Decode("implausible version count".into()));
            }
            let mut versions = Vec::with_capacity(nver);
            for _ in 0..nver {
                let ts = Timestamp(get_uvarint(body, &mut pos)?);
                let value = match take(body, &mut pos, 1)?[0] {
                    0 => None,
                    1 => Some(get_bytes(body, &mut pos)?),
                    o => return Err(VortexError::Decode(format!("bad snapshot flag {o}"))),
                };
                versions.push(Version { ts, value });
            }
            data.insert(key, versions);
        }
        if pos != body.len() {
            return Err(VortexError::Decode("trailing snapshot bytes".into()));
        }
        Ok((data, last_commit))
    }

    /// Installs one replayed commit directly, bypassing validation and
    /// the WAL (the record came *from* the WAL). Recovery-only: the
    /// store is not yet shared when this runs.
    pub(crate) fn apply_replay(&self, ts: Timestamp, writes: Vec<(String, Option<Vec<u8>>)>) {
        // lint:allow(L011, replay runs only during cold-start recovery before the store is shared; no hot path can contend)
        let mut data = self.data.write();
        for (k, v) in writes {
            // lint:allow(L010, replay runs only during cold-start recovery, never on the data path)
            data.entry(k).or_default().push(Version { ts, value: v });
        }
        self.last_commit.store(ts.0, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for MetaStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaStore")
            .field("keys", &self.data.read().len())
            .field("last_commit", &self.now())
            .finish()
    }
}

fn visible(versions: &[Version], ts: Timestamp) -> Option<Vec<u8>> {
    versions
        .iter()
        .rev()
        .find(|v| v.ts <= ts)
        .and_then(|v| v.value.clone())
}

/// A serializable read-write transaction.
///
/// Reads see the snapshot at `read_ts` plus the transaction's own writes.
/// `commit` validates every read key and scanned prefix against versions
/// committed after `read_ts`; any overlap aborts with
/// [`VortexError::TxnConflict`].
pub struct Txn {
    store: Arc<MetaStore>,
    read_ts: Timestamp,
    reads: Vec<ReadFootprint>,
    writes: BTreeMap<String, Option<Vec<u8>>>,
}

impl Txn {
    /// The snapshot timestamp this transaction reads at.
    pub fn read_ts(&self) -> Timestamp {
        self.read_ts
    }

    /// Reads a key (own writes win over the snapshot).
    pub fn get(&mut self, key: &str) -> Option<Vec<u8>> {
        if let Some(w) = self.writes.get(key) {
            return w.clone();
        }
        self.reads.push(ReadFootprint::Key(key.to_string()));
        self.store.read_at(key, self.read_ts)
    }

    /// Scans a prefix (own writes merged in), sorted by key.
    pub fn scan_prefix(&mut self, prefix: &str) -> Vec<(String, Vec<u8>)> {
        self.reads.push(ReadFootprint::Prefix(prefix.to_string()));
        let mut snapshot: BTreeMap<String, Vec<u8>> = self
            .store
            .scan_prefix_at(prefix, self.read_ts)
            .into_iter()
            .collect();
        for (k, w) in self
            .writes
            .range::<String, _>((Bound::Included(prefix.to_string()), Bound::Unbounded))
        {
            if !k.starts_with(prefix) {
                break;
            }
            match w {
                Some(v) => {
                    snapshot.insert(k.clone(), v.clone());
                }
                None => {
                    snapshot.remove(k);
                }
            }
        }
        snapshot.into_iter().collect()
    }

    /// Buffers a write.
    pub fn put(&mut self, key: &str, value: Vec<u8>) {
        self.writes.insert(key.to_string(), Some(value));
    }

    /// Buffers a deletion.
    pub fn delete(&mut self, key: &str) {
        self.writes.insert(key.to_string(), None);
    }

    /// Validates and commits; returns the commit timestamp.
    pub fn commit(self) -> VortexResult<Timestamp> {
        let store = self.store;
        let _guard = store.commit_lock.lock();
        {
            let data = store.data.read();
            // Validate reads: abort if anything read was re-written after
            // our snapshot. Prefix footprints also catch phantom inserts.
            for fp in &self.reads {
                match fp {
                    ReadFootprint::Key(k) => {
                        if let Some(versions) = data.get(k) {
                            if versions
                                .last()
                                .map(|v| v.ts > self.read_ts)
                                .unwrap_or(false)
                            {
                                return Err(VortexError::TxnConflict(format!(
                                    "key {k} modified after snapshot {}",
                                    self.read_ts
                                )));
                            }
                        }
                    }
                    ReadFootprint::Prefix(p) => {
                        let conflict = data
                            .range::<String, _>((Bound::Included(p.clone()), Bound::Unbounded))
                            .take_while(|(k, _)| k.starts_with(p.as_str()))
                            .any(|(_, versions)| {
                                versions
                                    .last()
                                    .map(|v| v.ts > self.read_ts)
                                    .unwrap_or(false)
                            });
                        if conflict {
                            return Err(VortexError::TxnConflict(format!(
                                "prefix {p} modified after snapshot {}",
                                self.read_ts
                            )));
                        }
                    }
                }
            }
            // Write-write conflicts (first committer wins).
            for k in self.writes.keys() {
                if let Some(versions) = data.get(k) {
                    if versions
                        .last()
                        .map(|v| v.ts > self.read_ts)
                        .unwrap_or(false)
                    {
                        return Err(VortexError::TxnConflict(format!(
                            "write-write conflict on {k}"
                        )));
                    }
                }
            }
        }
        // Commit timestamp: TrueTime-derived, strictly increasing.
        let tt_now = store.tt.record_timestamp().0;
        let prev = store.last_commit.load(Ordering::SeqCst);
        let commit_ts = Timestamp(tt_now.max(prev + 1));
        // Durability barrier: the write set must be in the WAL before
        // anything is installed or acknowledged. A failed append (torn
        // or otherwise) aborts the commit with nothing installed, so the
        // live store and a recovered store agree on exactly which
        // commits exist.
        if let Some(d) = store.durability.get() {
            d.log_commit(commit_ts, &self.writes)?;
        }
        {
            let mut data = store.data.write();
            for (k, v) in self.writes {
                data.entry(k).or_default().push(Version {
                    ts: commit_ts,
                    value: v,
                });
            }
        }
        store.last_commit.store(commit_ts.0, Ordering::SeqCst);
        Ok(commit_ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_common::truetime::SimClock;

    fn store() -> Arc<MetaStore> {
        MetaStore::new(TrueTime::simulated(SimClock::new(1_000), 10, 0))
    }

    fn commit_with(s: &Arc<MetaStore>, f: impl FnOnce(&mut Txn)) -> Timestamp {
        let mut t = s.begin();
        f(&mut t);
        t.commit().unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let s = store();
        let ts = commit_with(&s, |t| t.put("a", b"1".to_vec()));
        assert_eq!(s.read_at("a", ts), Some(b"1".to_vec()));
        assert_eq!(s.read_at("a", ts.minus_micros(1)), None);
        let mut t = s.begin();
        assert_eq!(t.get("a"), Some(b"1".to_vec()));
    }

    #[test]
    fn snapshot_reads_are_stable() {
        let s = store();
        let ts1 = commit_with(&s, |t| t.put("k", b"v1".to_vec()));
        let ts2 = commit_with(&s, |t| t.put("k", b"v2".to_vec()));
        assert_eq!(s.read_at("k", ts1), Some(b"v1".to_vec()));
        assert_eq!(s.read_at("k", ts2), Some(b"v2".to_vec()));
        assert!(ts2 > ts1);
    }

    #[test]
    fn delete_writes_tombstone() {
        let s = store();
        let ts1 = commit_with(&s, |t| t.put("k", b"v".to_vec()));
        let ts2 = commit_with(&s, |t| t.delete("k"));
        assert_eq!(s.read_at("k", ts1), Some(b"v".to_vec()));
        assert_eq!(s.read_at("k", ts2), None);
    }

    #[test]
    fn txn_sees_own_writes() {
        let s = store();
        let mut t = s.begin();
        t.put("x", b"1".to_vec());
        assert_eq!(t.get("x"), Some(b"1".to_vec()));
        t.delete("x");
        assert_eq!(t.get("x"), None);
        let scan = t.scan_prefix("x");
        assert!(scan.is_empty());
    }

    #[test]
    fn write_write_conflict_aborts_second() {
        let s = store();
        let mut t1 = s.begin();
        let mut t2 = s.begin();
        t1.put("k", b"a".to_vec());
        t2.put("k", b"b".to_vec());
        t1.commit().unwrap();
        assert!(matches!(t2.commit(), Err(VortexError::TxnConflict(_))));
    }

    #[test]
    fn read_write_conflict_detected() {
        let s = store();
        commit_with(&s, |t| t.put("k", b"0".to_vec()));

        let mut reader = s.begin();
        let _ = reader.get("k");
        reader.put("other", b"x".to_vec());

        let mut writer = s.begin();
        writer.put("k", b"1".to_vec());
        writer.commit().unwrap();

        // reader read k at a snapshot that is now stale → serializable
        // validation must abort it.
        assert!(matches!(reader.commit(), Err(VortexError::TxnConflict(_))));
    }

    #[test]
    fn phantom_inserts_conflict_with_prefix_scans() {
        let s = store();
        let mut scanner = s.begin();
        let rows = scanner.scan_prefix("tbl/1/");
        assert!(rows.is_empty());
        scanner.put("summary", b"empty".to_vec());

        let mut inserter = s.begin();
        inserter.put("tbl/1/stream/9", b"s".to_vec());
        inserter.commit().unwrap();

        assert!(matches!(scanner.commit(), Err(VortexError::TxnConflict(_))));
    }

    #[test]
    fn disjoint_transactions_both_commit() {
        let s = store();
        let mut t1 = s.begin();
        let mut t2 = s.begin();
        t1.put("a", b"1".to_vec());
        t2.put("b", b"2".to_vec());
        t1.commit().unwrap();
        t2.commit().unwrap();
        let ts = s.now();
        assert_eq!(s.read_at("a", ts), Some(b"1".to_vec()));
        assert_eq!(s.read_at("b", ts), Some(b"2".to_vec()));
    }

    #[test]
    fn scan_prefix_merges_writes_and_respects_boundaries() {
        let s = store();
        commit_with(&s, |t| {
            t.put("p/a", b"1".to_vec());
            t.put("p/b", b"2".to_vec());
            t.put("q/a", b"3".to_vec());
        });
        let mut t = s.begin();
        t.put("p/c", b"4".to_vec());
        t.delete("p/a");
        let scan = t.scan_prefix("p/");
        let keys: Vec<_> = scan.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["p/b", "p/c"]);
    }

    #[test]
    fn with_txn_retries_conflicts() {
        let s = store();
        commit_with(&s, |t| t.put("counter", 0u64.to_le_bytes().to_vec()));

        // 8 threads × 50 increments with retry: the total must be exact.
        let mut handles = vec![];
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    s.with_txn(10_000, |txn| {
                        let cur = txn
                            .get("counter")
                            .map(|b| u64::from_le_bytes(b[..8].try_into().unwrap()))
                            .unwrap_or(0);
                        txn.put("counter", (cur + 1).to_le_bytes().to_vec());
                        Ok(())
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let v = s.read_at("counter", s.now()).unwrap();
        assert_eq!(u64::from_le_bytes(v[..8].try_into().unwrap()), 400);
    }

    #[test]
    fn bank_transfer_invariant_under_concurrency() {
        let s = store();
        commit_with(&s, |t| {
            t.put("acct/a", 500i64.to_le_bytes().to_vec());
            t.put("acct/b", 500i64.to_le_bytes().to_vec());
        });
        let mut handles = vec![];
        for i in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for j in 0..25 {
                    let amount = ((i * 25 + j) % 7) as i64 + 1;
                    let (from, to) = if j % 2 == 0 {
                        ("acct/a", "acct/b")
                    } else {
                        ("acct/b", "acct/a")
                    };
                    s.with_txn(10_000, |t| {
                        let read = |t: &mut Txn, k: &str| {
                            t.get(k)
                                .map(|b| i64::from_le_bytes(b[..8].try_into().unwrap()))
                                .unwrap()
                        };
                        let f = read(t, from);
                        let g = read(t, to);
                        t.put(from, (f - amount).to_le_bytes().to_vec());
                        t.put(to, (g + amount).to_le_bytes().to_vec());
                        Ok(())
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let ts = s.now();
        let a = i64::from_le_bytes(s.read_at("acct/a", ts).unwrap()[..8].try_into().unwrap());
        let b = i64::from_le_bytes(s.read_at("acct/b", ts).unwrap()[..8].try_into().unwrap());
        assert_eq!(a + b, 1000, "money conserved");
    }

    #[test]
    fn gc_drops_unreachable_versions() {
        let s = store();
        for i in 0..10 {
            commit_with(&s, |t| t.put("k", vec![i]));
        }
        assert_eq!(s.version_count(), 10);
        let now = s.now();
        let removed = s.gc_versions(now);
        assert_eq!(removed, 9);
        assert_eq!(s.read_at("k", now), Some(vec![9]));
        // A sweep that removes nothing leaves the prune generation.
        assert_eq!(s.prune_generation(), 1);
        assert_eq!(s.gc_versions(now), 0);
        assert_eq!(s.prune_generation(), 1);
    }

    #[test]
    fn gc_drops_dead_tombstoned_keys() {
        let s = store();
        commit_with(&s, |t| t.put("k", b"v".to_vec()));
        commit_with(&s, |t| t.delete("k"));
        s.gc_versions(s.now());
        assert_eq!(s.version_count(), 0);
        assert_eq!(s.read_at("k", s.now()), None);
    }

    #[test]
    fn gc_preserves_versions_above_watermark() {
        let s = store();
        commit_with(&s, |t| t.put("k", b"old".to_vec()));
        let old_ts = s.now();
        commit_with(&s, |t| t.put("k", b"new".to_vec()));
        s.gc_versions(old_ts);
        // The old version is the newest at-or-below the watermark: kept.
        assert_eq!(s.read_at("k", old_ts), Some(b"old".to_vec()));
        assert_eq!(s.read_at("k", s.now()), Some(b"new".to_vec()));
    }

    #[test]
    fn commit_timestamps_strictly_increase() {
        let s = store();
        let mut last = Timestamp(0);
        for i in 0..20 {
            let ts = commit_with(&s, |t| t.put("k", vec![i]));
            assert!(ts > last);
            last = ts;
        }
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;
    use vortex_common::truetime::SimClock;

    fn tt() -> TrueTime {
        TrueTime::simulated(SimClock::new(1_000), 10, 0)
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let s = MetaStore::new(tt());
        for i in 0..20u8 {
            s.with_txn(10, |t| {
                t.put(&format!("k{}", i % 5), vec![i]);
                Ok(())
            })
            .unwrap();
        }
        s.with_txn(10, |t| {
            t.delete("k0");
            Ok(())
        })
        .unwrap();
        let bytes = s.snapshot_bytes();
        let r = MetaStore::restore(tt(), &bytes).unwrap();
        assert_eq!(r.now(), s.now());
        assert_eq!(r.version_count(), s.version_count());
        for i in 0..5 {
            let k = format!("k{i}");
            assert_eq!(r.read_at(&k, r.now()), s.read_at(&k, s.now()), "{k}");
        }
        // Historical versions survive too.
        let early = Timestamp(s.now().micros() - 5);
        assert_eq!(r.read_at("k1", early), s.read_at("k1", early));
        // New commits continue with strictly larger timestamps.
        let ts = {
            let mut t = r.begin();
            t.put("new", b"x".to_vec());
            t.commit().unwrap()
        };
        assert!(ts > s.now());
    }

    #[test]
    fn maximal_length_varint_in_snapshot_is_an_error_not_an_overflow() {
        use vortex_common::codec::put_uvarint;
        // A CRC-valid snapshot whose key (then value) length is u64::MAX:
        // `pos + n` used to overflow before the bound could reject it.
        let sealed = |body: &[u8]| {
            let mut bytes = body.to_vec();
            bytes.extend_from_slice(&vortex_common::crc::crc32c(body).to_le_bytes());
            bytes
        };
        let mut key_len = b"VMST".to_vec();
        put_uvarint(&mut key_len, 1); // last commit
        put_uvarint(&mut key_len, 1); // one key
        let mut value_len = key_len.clone();
        put_uvarint(&mut key_len, u64::MAX);
        assert!(MetaStore::decode_snapshot(&sealed(&key_len)).is_err());
        value_len.extend_from_slice(&[1, b'k', 1, 7, 1]); // "k", one version at ts 7, present
        put_uvarint(&mut value_len, u64::MAX);
        assert!(MetaStore::decode_snapshot(&sealed(&value_len)).is_err());
    }

    #[test]
    fn corrupt_snapshot_rejected() {
        let s = MetaStore::new(tt());
        s.with_txn(10, |t| {
            t.put("k", b"v".to_vec());
            Ok(())
        })
        .unwrap();
        let mut bytes = s.snapshot_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(MetaStore::restore(tt(), &bytes).is_err());
        assert!(MetaStore::restore(tt(), b"garbage").is_err());
        for cut in 0..s.snapshot_bytes().len().min(64) {
            let _ = MetaStore::restore(tt(), &s.snapshot_bytes()[..cut]);
        }
    }
}
