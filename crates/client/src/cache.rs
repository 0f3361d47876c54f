//! Query-aware read caching — the paper's §9 future-work direction.
//!
//! "For some streaming applications, the most recent data is also the
//! most interesting to read. Colossus already provides caching, but we
//! are looking into further avenues to build query aware caching on top
//! of our ingestion servers."
//!
//! [`ReadCache`] caches the decoded [`Zone`]s of immutable fragment
//! extents: the key is `(path, committed_size)`, which uniquely identifies
//! a fragment's content — a fragment that grows (active WOS) or is
//! replaced (conversion) gets a different key, so invalidation is
//! structural rather than time-based. Visibility filtering (snapshot
//! timestamps, flush limits, deletion masks) happens *after* the cache, so
//! one cached decode serves every snapshot, and a hit shares the zones:
//! nothing is copied.
//!
//! Eviction is a simple FIFO bound on decoded rows — enough to
//! demonstrate the design point (hot recent fragments stay decoded).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::read::Zone;

type Key = (String, u64);
type Entry = Arc<Vec<Zone>>;

fn rows_of(extent: &Entry) -> usize {
    extent.iter().map(|zone| zone.metas.len()).sum()
}

/// A bounded cache of decoded immutable fragment extents.
pub struct ReadCache {
    inner: Mutex<Inner>,
    max_rows: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

struct Inner {
    map: HashMap<Key, Entry>,
    order: VecDeque<Key>,
    rows: usize,
}

impl ReadCache {
    /// A cache bounded to roughly `max_rows` decoded rows.
    pub fn new(max_rows: usize) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
                rows: 0,
            }),
            max_rows,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Looks up a fragment extent.
    pub fn get(&self, path: &str, committed_size: u64) -> Option<Entry> {
        let inner = self.inner.lock();
        match inner.map.get(&(path.to_string(), committed_size)) {
            Some(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(e))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a decoded extent, evicting oldest entries past the bound.
    pub fn put(&self, path: &str, committed_size: u64, extent: Entry) {
        let mut inner = self.inner.lock();
        let key = (path.to_string(), committed_size);
        if inner.map.contains_key(&key) {
            return;
        }
        inner.rows += rows_of(&extent);
        inner.order.push_back(key.clone());
        inner.map.insert(key, extent);
        while inner.rows > self.max_rows && inner.order.len() > 1 {
            if let Some(old) = inner.order.pop_front() {
                if let Some(e) = inner.map.remove(&old) {
                    inner.rows -= rows_of(&e);
                }
            }
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
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
            .field("hits", &self.hits())
            .field("misses", &self.misses())
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
    fn rows(n: usize) -> Entry {
        let meta = |i: usize| RowMeta {
            change_type: ChangeType::Insert,
            ts: Timestamp(i as u64),
            stream: 1,
            offset: i as u64,
        };
        let all: Vec<usize> = (0..n).collect();
        let zone = |of: &[usize]| Zone {
            first: of[0] as u64,
            metas: of.iter().map(|&i| meta(i)).collect(),
            cols: vec![],
        };
        Arc::new(all.chunks(4).map(zone).collect())
    }

    #[test]
    fn hit_miss_accounting() {
        let c = ReadCache::new(1000);
        assert!(c.get("a", 10).is_none());
        c.put("a", 10, rows(5));
        assert!(c.get("a", 10).is_some());
        // Different committed_size = different content = miss.
        assert!(c.get("a", 20).is_none());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
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
}
