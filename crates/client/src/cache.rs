//! Query-aware read caching — the paper's §9 future-work direction.
//!
//! "For some streaming applications, the most recent data is also the
//! most interesting to read. Colossus already provides caching, but we
//! are looking into further avenues to build query aware caching on top
//! of our ingestion servers."
//!
//! [`ReadCache`] holds decoded [`Zone`]s under two kinds of key, neither
//! of which can name changed content, so invalidation is structural
//! rather than time-based:
//!
//! - `(path, committed_size)` — the whole extent of an immutable fragment
//!   the SMS lists; a fragment that is replaced (conversion) is another
//!   path;
//! - `(path, epoch)` — a [`TailFile`]: the certified extent *so far* of a
//!   log file the SMS does not list yet (§7.1's streamlet tail). The file
//!   only grows and a tail read extends the entry by what was appended
//!   since; reconciliation, which alone may cut a log file short, bumps
//!   the streamlet's epoch.
//!
//! Visibility filtering (snapshot timestamps, flush limits, deletion
//! masks) happens *after* the cache, so one cached decode serves every
//! snapshot, and a hit shares the zones: nothing is copied.
//!
//! Eviction is a simple FIFO bound on decoded rows — enough to
//! demonstrate the design point (hot recent fragments stay decoded).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use vortex_wos::FragmentHeader;

use crate::read::Zone;

/// `(path, committed size or epoch, whether a tail's)`.
type Key = (String, u64, bool);

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
}

impl Entry {
    fn rows(&self) -> usize {
        let zones = match self {
            Entry::Fragment(zones) => zones,
            Entry::Tail(file) => &file.zones,
        };
        zones.iter().map(|zone| zone.metas.len()).sum()
    }
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

/// A bounded cache of decoded fragment extents.
pub struct ReadCache {
    inner: Mutex<Inner>,
    max_rows: usize,
}

#[derive(Default)]
struct Inner {
    map: HashMap<Key, Entry>,
    order: VecDeque<Key>,
    rows: usize,
    tally: Tally,
}

impl ReadCache {
    /// A cache bounded to roughly `max_rows` decoded rows.
    pub fn new(max_rows: usize) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::default(),
            max_rows,
        })
    }

    /// Sets `key`'s entry, evicting oldest entries past the bound.
    fn insert(&self, inner: &mut Inner, key: Key, entry: Entry) {
        inner.rows += entry.rows();
        match inner.map.insert(key.clone(), entry) {
            Some(old) => inner.rows -= old.rows(),
            None => inner.order.push_back(key),
        }
        while inner.rows > self.max_rows && inner.order.len() > 1 {
            if let Some(e) = (inner.order.pop_front()).and_then(|old| inner.map.remove(&old)) {
                inner.rows -= e.rows();
            }
        }
    }

    /// Looks up a fragment extent.
    pub fn get(&self, path: &str, committed_size: u64) -> Option<Vec<Arc<Zone>>> {
        // lint:allow(L011, held for one map lookup; no read happens under it)
        let Inner { map, tally, .. } = &mut *self.inner.lock();
        // lint:allow(L010, once per fragment read: the key, and a pointer per zone of a hit)
        let hit = match map.get(&(path.to_string(), committed_size, false)) {
            Some(Entry::Fragment(zones)) => Some(zones.clone()),
            _ => None,
        };
        tally.hits += hit.is_some() as u64;
        tally.misses += hit.is_none() as u64;
        hit
    }

    /// Inserts a decoded extent, evicting oldest entries past the bound.
    pub fn put(&self, path: &str, committed_size: u64, extent: Vec<Arc<Zone>>) {
        let key = (path.to_string(), committed_size, false);
        self.insert(&mut self.inner.lock(), key, Entry::Fragment(extent));
    }

    /// What is held of the unlisted log file at `path` of a streamlet at
    /// `epoch`; finding it is a hit.
    pub(crate) fn tail(&self, path: &str, epoch: u64) -> Option<Arc<TailFile>> {
        // lint:allow(L010, once per log file of a tail read: the key)
        // lint:allow(L011, held for one map lookup; no read happens under it)
        let Inner { map, tally, .. } = &mut *self.inner.lock();
        let Some(Entry::Tail(file)) = map.get(&(path.to_string(), epoch, true)) else {
            return None;
        };
        tally.hits += 1;
        Some(Arc::clone(file))
    }

    /// Keeps `file`, which `read` bytes were fetched to build, for `path`
    /// — unless what is held is certified at least as far (two reads may
    /// extend one entry at once). A first entry is a miss.
    pub(crate) fn put_tail(&self, path: &str, epoch: u64, file: &Arc<TailFile>, read: u64) {
        // lint:allow(L010, once per log file extended: the key)
        let key = (path.to_string(), epoch, true);
        // lint:allow(L011, held for a map update; no read happens under it)
        let inner = &mut *self.inner.lock();
        let held = match inner.map.get(&key) {
            Some(Entry::Tail(held)) if (held.sealed, held.len) >= (file.sealed, file.len) => return,
            Some(held) => held.rows(),
            None => {
                inner.tally.misses += 1;
                0
            }
        };
        let entry = Entry::Tail(Arc::clone(file));
        inner.tally.tail_bytes += read;
        inner.tally.tail_rows += entry.rows().saturating_sub(held) as u64;
        // lint:allow(L010, once per log file extended: its map slot)
        self.insert(inner, key, entry);
    }

    /// Drops the tail entries of the log files under `prefix` — one
    /// streamlet's, which sort by ordinal — but those in `live` held at
    /// `epoch`: the SMS lists the files before by now, the ones after are
    /// gone, and an entry of an earlier epoch can never be found again.
    pub(crate) fn keep_tails(&self, prefix: &str, live: std::ops::Range<&String>, epoch: u64) {
        // lint:allow(L011, held for a pass over the keys; no read happens under it)
        let inner = &mut *self.inner.lock();
        let gone = |(path, at, tail): &Key| {
            *tail && path.starts_with(prefix) && !(live.contains(&path) && *at == epoch)
        };
        inner.order.retain(|key| !gone(key));
        let Inner { map, rows, .. } = inner;
        map.retain(|key, entry| {
            let keep = !gone(key);
            *rows -= if keep { 0 } else { entry.rows() };
            keep
        });
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

    /// Decoded rows currently accounted against the bound. Kept exact
    /// even when a single extent exceeds `max_rows` (the eviction loop's
    /// `order.len() > 1` guard keeps one oversized resident entry rather
    /// than thrashing, and its rows stay on the books until it is
    /// evicted by a later insert).
    pub fn rows(&self) -> usize {
        self.inner.lock().rows
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
        let c = ReadCache::new(1000);
        assert!(c.get("a", 10).is_none());
        c.put("a", 10, rows(5));
        assert!(c.get("a", 10).is_some());
        // Different committed_size = different content = miss.
        assert!(c.get("a", 20).is_none());
        assert_eq!((c.tally().hits, c.tally().misses), (1, 2));
    }

    #[test]
    fn eviction_bounds_rows() {
        let c = ReadCache::new(100);
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
        // A single extent larger than max_rows must stay resident (the
        // `order.len() > 1` guard: evicting the only entry would make
        // the cache useless for it) with its rows accounted exactly —
        // and the books must return to exact once it IS evicted.
        let c = ReadCache::new(100);
        c.put("big", 1, rows(250));
        assert_eq!(c.len(), 1, "oversized sole entry stays resident");
        assert_eq!(c.rows(), 250, "accounting covers the oversized entry");
        assert!(c.get("big", 1).is_some());
        // A second insert trips eviction: FIFO pops the oversized entry
        // first; accounting must drop by exactly its row count.
        c.put("small", 1, rows(10));
        assert_eq!(c.len(), 1);
        assert!(c.get("big", 1).is_none(), "oversized entry evicted FIFO");
        assert!(c.get("small", 1).is_some());
        assert_eq!(c.rows(), 10, "books exact after oversized eviction");
        // Duplicate put of a resident key must not inflate the books.
        c.put("small", 1, rows(10));
        assert_eq!(c.rows(), 10);
    }

    #[test]
    fn duplicate_put_is_noop() {
        let c = ReadCache::new(100);
        c.put("x", 1, rows(10));
        c.put("x", 1, rows(10));
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
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
        let c = ReadCache::new(100);
        assert!(c.tail("s/f00000001", 1).is_none());
        assert_eq!(
            c.tally(),
            Tally::default(),
            "an absent tail is not a miss yet"
        );
        c.put_tail("s/f00000001", 1, &tail(10, 400, false), 400);
        c.put_tail("s/f00000001", 1, &tail(30, 900, false), 1000);
        assert_eq!((c.len(), c.rows()), (1, 30), "extended, not added beside");
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
        assert_eq!((c.len(), c.rows()), (6, 72));
        // Streamlet `s/` keeps ordinal 1 alone, and of it the entry at
        // the epoch it is read at; fragments and `t/` stay.
        let (lo, hi) = ("s/f00000001".to_string(), "s/f00000002".to_string());
        c.keep_tails("s/", &lo..&hi, 1);
        assert_eq!((c.len(), c.rows()), (3, 45));
        assert!(c.tail("s/f00000001", 0).is_none());
        assert!(c.tail("s/f00000001", 1).is_some() && c.tail("t/f00000000", 1).is_some());
        assert!(c.get("s/f00000001", 1).is_some());
        // Eviction counts a grown entry at its grown size.
        c.put("big", 1, rows(80));
        assert!(c.rows() <= 100 && c.tail("s/f00000001", 1).is_none());
    }
}
