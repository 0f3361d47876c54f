//! Query-aware read caching — the paper's §9 future-work direction.
//!
//! "For some streaming applications, the most recent data is also the
//! most interesting to read. Colossus already provides caching, but we
//! are looking into further avenues to build query aware caching on top
//! of our ingestion servers."
//!
//! [`ReadCache`] holds three kinds of entry, under keys none of which can
//! name changed content, so invalidation is structural rather than
//! time-based:
//!
//! - an opened [`RosBlock`] by `(path, committed_size)` — its parsed index
//!   and one write-once cell per chunk read so far, holding what the
//!   chunk's decoder reads: CRC-checked, decrypted, vsnap-expanded. A hit
//!   makes no read and runs no CRC, cipher or vsnap pass;
//! - the decoded zones of a listed WOS fragment by `(path,
//!   committed_size)`; a fragment that is replaced (conversion) is
//!   another path;
//! - a [`TailFile`] by `(path, epoch)`: the certified extent *so far* of a
//!   log file the SMS does not list yet (§7.1's streamlet tail). The file
//!   only grows and a tail read extends the entry by what was appended
//!   since; reconciliation, which alone may cut a log file short, bumps
//!   the streamlet's epoch.
//!
//! Only verified bytes enter: a chunk is kept after its CRC has passed,
//! and one that fails on every replica leaves its cell empty for the next
//! read. Visibility filtering (snapshot timestamps, flush limits, deletion
//! masks) happens *after* the cache, so one entry serves every snapshot,
//! and a hit shares it: nothing is copied.
//!
//! One bound, in bytes: zones are charged their heap bytes, a block its
//! index and then each cell as it fills. Eviction is FIFO in insertion
//! order, and GC drops the entries of the files it deletes
//! ([`ReadCache::forget`]).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use vortex_common::error::VortexResult;
use vortex_ros::{ColumnVec, Fetched, RosBlock};
use vortex_wos::FragmentHeader;

use crate::read::Zone;

/// `(path, committed size or epoch, whether a tail's)`.
type Key = (String, u64, bool);

/// The key of the entry of `path` at `at`.
fn key_of(path: &str, at: u64, tail: bool) -> Key {
    // lint:allow(L010, once per lookup or update of an entry: its key)
    (path.to_string(), at, tail)
}

/// What a tail read remembers of one log file: the rows of the blocks
/// §7.1's commit rule has certified, and where the next read resumes.
#[derive(Debug)]
pub(crate) struct TailFile {
    /// Certified bytes — a record boundary every replica agrees on.
    pub len: u64,
    /// The file's header: the block nonce's fragment id, and the File Map
    /// that certifies the streamlet's earlier files.
    pub header: FragmentHeader,
    /// The certified blocks' rows, at streamlet-relative positions.
    pub zones: Vec<Arc<Zone>>,
    /// A successor file was seen: the extent is final and never re-read.
    pub sealed: bool,
}

enum Entry {
    Fragment(Vec<Arc<Zone>>),
    Tail(Arc<TailFile>),
    Block(Arc<RosBlock>),
}

/// Rows of `zones`.
fn row_count(zones: &[Arc<Zone>]) -> usize {
    zones.iter().map(|zone| zone.metas.len()).sum()
}

/// The heap bytes of `zones`: provenance and column vectors.
fn heap_bytes(zones: &[Arc<Zone>]) -> usize {
    let zone = |z: &Arc<Zone>| {
        let cols: usize = z.cols.iter().map(ColumnVec::heap_bytes).sum();
        std::mem::size_of_val(&z.metas[..]) + cols
    };
    zones.iter().map(zone).sum()
}

/// What a [`ReadCache`] has counted so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Lookups that found their entry.
    pub hits: u64,
    /// Lookups that did not, and had it read.
    pub misses: u64,
    /// Bytes read to extend tail entries.
    pub tail_bytes: u64,
    /// Rows decoded to extend tail entries.
    pub tail_rows: u64,
}

/// A bounded cache of verified block chunks and decoded fragment extents.
pub struct ReadCache {
    inner: Mutex<Inner>,
    max_bytes: usize,
}

#[derive(Default)]
struct Inner {
    /// Each entry with the bytes charged for it.
    map: HashMap<Key, (Entry, usize)>,
    order: VecDeque<Key>,
    bytes: usize,
    tally: Tally,
}

impl ReadCache {
    /// A cache bounded to roughly `max_bytes` bytes held.
    pub fn new(max_bytes: usize) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::default(),
            max_bytes,
        })
    }

    /// Sets `key`'s entry, charged `bytes`, evicting oldest entries past
    /// the bound.
    fn insert(&self, inner: &mut Inner, key: Key, entry: Entry, bytes: usize) {
        inner.bytes += bytes;
        match inner.map.insert(key.clone(), (entry, bytes)) {
            Some((_, old)) => inner.bytes -= old,
            None => inner.order.push_back(key),
        }
        self.evict(inner);
    }

    /// Evicts oldest entries while more than the bound is held — but the
    /// newest, which stays even when it alone is past the bound.
    fn evict(&self, inner: &mut Inner) {
        while inner.bytes > self.max_bytes && inner.order.len() > 1 {
            if let Some((_, n)) = (inner.order.pop_front()).and_then(|old| inner.map.remove(&old)) {
                inner.bytes -= n;
            }
        }
    }

    /// Looks up the fragment or block entry of `path` at `committed_size`
    /// and what `pick` takes of it: a hit if that is anything, else a miss.
    fn lookup<T>(&self, path: &str, size: u64, pick: impl Fn(&Entry) -> Option<T>) -> Option<T> {
        // lint:allow(L011, held for one map lookup; no read happens under it)
        let Inner { map, tally, .. } = &mut *self.inner.lock();
        let entry = map.get(&key_of(path, size, false));
        let hit = entry.and_then(|(entry, _)| pick(entry));
        tally.hits += hit.is_some() as u64;
        tally.misses += hit.is_none() as u64;
        hit
    }

    /// Looks up a fragment extent.
    pub fn get(&self, path: &str, committed_size: u64) -> Option<Vec<Arc<Zone>>> {
        self.lookup(path, committed_size, |entry| match entry {
            // lint:allow(L010, once per fragment read: a pointer per zone of a hit)
            Entry::Fragment(zones) => Some(zones.clone()),
            _ => None,
        })
    }

    /// Inserts a decoded extent, evicting oldest entries past the bound.
    pub fn put(&self, path: &str, committed_size: u64, extent: Vec<Arc<Zone>>) {
        let (key, bytes) = (key_of(path, committed_size, false), heap_bytes(&extent));
        self.insert(&mut self.inner.lock(), key, Entry::Fragment(extent), bytes);
    }

    /// The opened ROS block at `path` of `size`, with what opening it
    /// read: the one held — a hit, which read nothing — or else the one
    /// `open` reads from the file, left here unless a racing open left one
    /// first, which is shared instead. No lock is held while `open` reads.
    pub fn block(
        &self,
        path: &str,
        size: u64,
        open: impl FnOnce() -> VortexResult<(RosBlock, Fetched)>,
    ) -> VortexResult<(Arc<RosBlock>, Fetched)> {
        let held = |entry: &Entry| match entry {
            Entry::Block(block) => Some(Arc::clone(block)),
            _ => None,
        };
        if let Some(hit) = self.lookup(path, size, held) {
            return Ok((hit, Fetched::default()));
        }
        let (block, index) = open()?;
        let key = key_of(path, size, false);
        // lint:allow(L011, held for a map update; no read happens under it)
        let inner = &mut *self.inner.lock();
        if let Some(raced) = inner.map.get(&key).and_then(|(entry, _)| held(entry)) {
            return Ok((raced, index));
        }
        // lint:allow(L010, once per block opened from its file, so that reads can share it)
        let block = Arc::new(block);
        let entry = Entry::Block(Arc::clone(&block));
        // lint:allow(L010, once per block opened from its file: its map slot)
        self.insert(inner, key, entry, index.kept as usize);
        Ok((block, index))
    }

    /// Charges the block at `path` of `committed_size`, if it is still
    /// held, `kept` more bytes: cells a fetch filled.
    pub fn charge(&self, path: &str, committed_size: u64, kept: u64) {
        // lint:allow(L011, held for a map update; no read happens under it)
        let inner = &mut *self.inner.lock();
        let Some((_, n)) = inner.map.get_mut(&key_of(path, committed_size, false)) else {
            return;
        };
        *n += kept as usize;
        inner.bytes += kept as usize;
        self.evict(inner);
    }

    /// What is held of the unlisted log file at `path` of a streamlet at
    /// `epoch`; finding it is a hit.
    pub(crate) fn tail(&self, path: &str, epoch: u64) -> Option<Arc<TailFile>> {
        // lint:allow(L011, held for one map lookup; no read happens under it)
        let Inner { map, tally, .. } = &mut *self.inner.lock();
        let Some((Entry::Tail(file), _)) = map.get(&key_of(path, epoch, true)) else {
            return None;
        };
        tally.hits += 1;
        Some(Arc::clone(file))
    }

    /// Keeps `file`, which `read` bytes were fetched to build, for `path`
    /// — unless what is held is certified at least as far (two reads may
    /// extend one entry at once). A first entry is a miss.
    pub(crate) fn put_tail(&self, path: &str, epoch: u64, file: &Arc<TailFile>, read: u64) {
        let key = key_of(path, epoch, true);
        // lint:allow(L011, held for a map update; no read happens under it)
        let inner = &mut *self.inner.lock();
        let held = match inner.map.get(&key) {
            Some((Entry::Tail(held), _)) if (held.sealed, held.len) >= (file.sealed, file.len) => {
                return
            }
            Some((Entry::Tail(held), _)) => row_count(&held.zones),
            _ => {
                inner.tally.misses += 1;
                0
            }
        };
        inner.tally.tail_bytes += read;
        inner.tally.tail_rows += row_count(&file.zones).saturating_sub(held) as u64;
        let bytes = heap_bytes(&file.zones);
        // lint:allow(L010, once per log file extended: its map slot)
        self.insert(inner, key, Entry::Tail(Arc::clone(file)), bytes);
    }

    /// Drops every entry `gone` names.
    fn drop_where(&self, gone: impl Fn(&Key) -> bool) {
        // lint:allow(L011, held for a pass over the keys; no read happens under it)
        let inner = &mut *self.inner.lock();
        inner.order.retain(|key| !gone(key));
        let Inner { map, bytes, .. } = inner;
        map.retain(|key, (_, n)| {
            let keep = !gone(key);
            *bytes -= if keep { 0 } else { *n };
            keep
        });
    }

    /// Drops the tail entries of the log files under `prefix` — one
    /// streamlet's, which sort by ordinal — but those in `live` held at
    /// `epoch`: the SMS lists the files before by now, the ones after are
    /// gone, and an entry of an earlier epoch can never be found again.
    pub(crate) fn keep_tails(&self, prefix: &str, live: std::ops::Range<&String>, epoch: u64) {
        self.drop_where(|(path, at, tail)| {
            *tail && path.starts_with(prefix) && !(live.contains(&path) && *at == epoch)
        });
    }

    /// Drops every entry of a file at one of the `gone` paths — files GC
    /// deleted, whose entries could only hold budget.
    pub fn forget(&self, gone: &[String]) {
        self.drop_where(|(path, ..)| gone.contains(path));
    }

    /// The file of every entry, oldest first, with the bytes charged for
    /// it.
    pub fn entries(&self) -> Vec<(String, usize)> {
        let inner = self.inner.lock();
        let entry = |key: &Key| (key.0.clone(), inner.map.get(key).map_or(0, |(_, n)| *n));
        inner.order.iter().map(entry).collect()
    }

    /// Hits, misses, and the bytes read and rows decoded to extend tail
    /// entries, so far.
    pub fn tally(&self) -> Tally {
        // lint:allow(L011, held for a copy of four counters)
        self.inner.lock().tally
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Bytes currently charged against the bound. Kept exact even when a
    /// single entry exceeds `max_bytes`: eviction keeps the newest entry
    /// rather than thrash, and its bytes stay on the books until a later
    /// insert evicts it.
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for ReadCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadCache")
            .field("entries", &self.len())
            .field("tally", &self.tally())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_common::schema::ChangeType;
    use vortex_common::truetime::Timestamp;
    use vortex_ros::RowMeta;

    /// What one row of the zones below is charged: its provenance alone.
    const ROW: usize = std::mem::size_of::<RowMeta>();

    /// An extent of `n` rows in zones of four.
    fn rows(n: usize) -> Vec<Arc<Zone>> {
        let meta = |i: usize| RowMeta {
            change_type: ChangeType::Insert,
            ts: Timestamp(i as u64),
            stream: 1,
            offset: i as u64,
        };
        let all: Vec<usize> = (0..n).collect();
        let zone = |of: &[usize]| {
            Arc::new(Zone {
                first: of[0] as u64,
                metas: of.iter().map(|&i| meta(i)).collect(),
                cols: vec![],
            })
        };
        all.chunks(4).map(zone).collect()
    }

    #[test]
    fn hit_miss_accounting() {
        let c = ReadCache::new(1000 * ROW);
        assert!(c.get("a", 10).is_none());
        c.put("a", 10, rows(5));
        assert!(c.get("a", 10).is_some());
        // Different committed_size = different content = miss.
        assert!(c.get("a", 20).is_none());
        assert_eq!((c.tally().hits, c.tally().misses), (1, 2));
    }

    /// A byte bound worth 100 rows keeps about 100 rows, newest first.
    #[test]
    fn eviction_bounds_rows() {
        let c = ReadCache::new(100 * ROW);
        for i in 0..20 {
            c.put(&format!("f{i}"), 1, rows(10));
        }
        assert!(c.len() <= 11, "bounded to ~100 rows: {}", c.len());
        // Newest entries survive.
        assert!(c.get("f19", 1).is_some());
        assert!(c.get("f0", 1).is_none());
    }

    #[test]
    fn oversized_extent_keeps_accounting_exact() {
        // A single extent larger than the bound must stay resident (the
        // `order.len() > 1` guard: evicting the only entry would make
        // the cache useless for it) with its bytes accounted exactly —
        // and the books must return to exact once it IS evicted.
        let c = ReadCache::new(100 * ROW);
        c.put("big", 1, rows(250));
        assert_eq!(c.len(), 1, "oversized sole entry stays resident");
        assert_eq!(
            c.bytes(),
            250 * ROW,
            "accounting covers the oversized entry"
        );
        assert!(c.get("big", 1).is_some());
        // A second insert trips eviction: FIFO pops the oversized entry
        // first; accounting must drop by exactly its bytes.
        c.put("small", 1, rows(10));
        assert_eq!(c.len(), 1);
        assert!(c.get("big", 1).is_none(), "oversized entry evicted FIFO");
        assert!(c.get("small", 1).is_some());
        assert_eq!(c.bytes(), 10 * ROW, "books exact after oversized eviction");
        // Duplicate put of a resident key must not inflate the books.
        c.put("small", 1, rows(10));
        assert_eq!(c.bytes(), 10 * ROW);
    }

    #[test]
    fn duplicate_put_is_noop() {
        let c = ReadCache::new(100 * ROW);
        c.put("x", 1, rows(10));
        c.put("x", 1, rows(10));
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    /// A block opened from its file is charged its index, then each cell
    /// as a fetch fills it; a hit reads nothing, an open that a racing one
    /// beat to the entry shares the winner's block, and GC's `forget`
    /// takes the block's bytes off the books.
    #[test]
    fn blocks_are_charged_as_their_cells_fill() {
        use vortex_common::crypt::Key;
        use vortex_common::row::{Row, Value};
        use vortex_common::schema::{Field, FieldType, Schema};
        let schema = Schema::new(vec![Field::required("s", FieldType::String)]);
        let mut b = vortex_ros::RosBlockBuilder::new(&schema);
        for i in 0..3_000u64 {
            let meta = RowMeta {
                offset: i,
                ..RowMeta::default()
            };
            let s = Value::String(format!("a rather repetitive string {}", i % 7));
            b.push(meta, Row::insert(vec![s])).unwrap();
        }
        let key = Key::zero();
        let file = b.build(false).unwrap().to_bytes(&key, 5);
        let reader = || -> Box<vortex_ros::ReadAt<'_>> {
            Box::new(|at, len, check| {
                let bytes = &file[at as usize..][..len];
                check(bytes).map(|()| bytes.to_vec())
            })
        };
        let size = file.len() as u64;
        let open = || RosBlock::open_index(size, &key, 5, &mut *reader());
        let c = ReadCache::new(1 << 20);
        let (block, index) = c.block("b", size, open).unwrap();
        assert_eq!(c.bytes() as u64, index.kept);
        let (hit, nothing) = c
            .block("b", size, || panic!("a hit opens nothing"))
            .unwrap();
        assert!(Arc::ptr_eq(&hit, &block) && nothing == Fetched::default());
        assert_eq!((c.tally().hits, c.tally().misses), (1, 1));
        let mut won = None;
        let (lost, _) = (c.block("r", size, || {
            won = Some(c.block("r", size, open).unwrap().0);
            open()
        }))
        .unwrap();
        assert!(Arc::ptr_eq(&won.unwrap(), &lost));
        assert_eq!(c.bytes() as u64, 2 * index.kept);
        let body = block.fetch(&mut *reader(), |_, _| true).unwrap();
        assert!(body.kept > body.bytes, "vsnap chunks are held expanded");
        c.charge("b", size, body.kept);
        assert_eq!(c.bytes() as u64, 2 * index.kept + body.kept);
        let again = block.fetch(&mut *reader(), |_, _| true).unwrap();
        assert_eq!(again, Fetched::default());
        c.forget(&["b".to_string()]);
        assert_eq!(c.entries(), [("r".to_string(), index.kept as usize)]);
        assert_eq!(c.bytes() as u64, index.kept);
    }

    /// A tail entry of `n` rows certified through byte `len`.
    fn tail(n: usize, len: u64, sealed: bool) -> Arc<TailFile> {
        use vortex_common::ids::{FragmentId, StreamletId};
        let header = FragmentHeader {
            format_version: 1,
            streamlet: StreamletId::from_raw(1),
            fragment: FragmentId::from_raw(2),
            ordinal: 0,
            schema_version: 1,
            first_row: 0,
            file_map: vec![],
        };
        let zones = rows(n);
        Arc::new(TailFile {
            len,
            header,
            zones,
            sealed,
        })
    }

    #[test]
    fn tail_entries_grow_in_place_and_go_by_range() {
        let c = ReadCache::new(100 * ROW);
        assert!(c.tail("s/f00000001", 1).is_none());
        assert_eq!(
            c.tally(),
            Tally::default(),
            "an absent tail is not a miss yet"
        );
        c.put_tail("s/f00000001", 1, &tail(10, 400, false), 400);
        c.put_tail("s/f00000001", 1, &tail(30, 900, false), 1000);
        assert_eq!(
            (c.len(), c.bytes()),
            (1, 30 * ROW),
            "extended, not added beside"
        );
        // A shorter certified extent loses to the one held; sealed wins.
        c.put_tail("s/f00000001", 1, &tail(20, 700, false), 0);
        assert_eq!(c.tail("s/f00000001", 1).unwrap().len, 900);
        c.put_tail("s/f00000001", 1, &tail(30, 900, true), 0);
        assert!(c.tail("s/f00000001", 1).unwrap().sealed);
        c.put_tail("s/f00000001", 1, &tail(40, 950, false), 0);
        assert_eq!(c.tail("s/f00000001", 1).unwrap().len, 900);
        // One first entry, three hits, the bytes read, the rows added.
        let counted = Tally {
            hits: 3,
            misses: 1,
            tail_bytes: 1400,
            tail_rows: 30,
        };
        assert_eq!(c.tally(), counted);
        // Another epoch, another size, another kind: other entries.
        assert!(c.tail("s/f00000001", 2).is_none());
        assert!(c.get("s/f00000001", 1).is_none());
        c.put("s/f00000001", 1, rows(5));
        c.put_tail("s/f00000000", 1, &tail(10, 100, true), 0);
        c.put_tail("s/f00000002", 1, &tail(10, 100, false), 0);
        c.put_tail("t/f00000000", 1, &tail(10, 100, false), 0);
        c.put_tail("s/f00000001", 0, &tail(7, 100, false), 0);
        assert_eq!((c.len(), c.bytes()), (6, 72 * ROW));
        // Streamlet `s/` keeps ordinal 1 alone, and of it the entry at
        // the epoch it is read at; fragments and `t/` stay.
        let (lo, hi) = ("s/f00000001".to_string(), "s/f00000002".to_string());
        c.keep_tails("s/", &lo..&hi, 1);
        assert_eq!((c.len(), c.bytes()), (3, 45 * ROW));
        assert!(c.tail("s/f00000001", 0).is_none());
        assert!(c.tail("s/f00000001", 1).is_some() && c.tail("t/f00000000", 1).is_some());
        assert!(c.get("s/f00000001", 1).is_some());
        // Eviction counts a grown entry at its grown size.
        c.put("big", 1, rows(80));
        assert!(c.bytes() <= 100 * ROW && c.tail("s/f00000001", 1).is_none());
    }
}
