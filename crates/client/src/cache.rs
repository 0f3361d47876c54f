//! Query-aware read caching — the paper's §9 future-work direction.
//!
//! "For some streaming applications, the most recent data is also the
//! most interesting to read. Colossus already provides caching, but we
//! are looking into further avenues to build query aware caching on top
//! of our ingestion servers."
//!
//! [`ReadCache`] holds one entry per file, by its path, of two kinds,
//! neither of which can name changed content, so invalidation is
//! structural rather than time-based:
//!
//! - an opened [`RosBlock`] of the `committed_size` it was opened at —
//!   its parsed index and one write-once cell per chunk read so far,
//!   holding what the chunk's decoder reads: CRC-checked, decrypted,
//!   vsnap-expanded. A hit makes no read and runs no CRC, cipher or vsnap
//!   pass; a lookup at another size is a miss;
//! - a [`LogFile`]: the certified extent *so far* of a WOS log file,
//!   whether the SMS lists it (a fragment) or not yet (§7.1's streamlet
//!   tail). The file only grows and a read extends the entry by what was
//!   appended since; reconciliation, which alone may cut a log file short,
//!   bumps the streamlet's epoch, and an entry not yet sealed serves only
//!   tail reads at the epoch it holds.
//!
//! Only verified bytes enter: a chunk is kept after its CRC has passed,
//! and one that fails on every replica leaves its cell empty for the next
//! read. Visibility filtering (snapshot timestamps, flush limits, deletion
//! masks) happens *after* the cache, so one entry serves every snapshot,
//! and a hit shares it: nothing is copied.
//!
//! One bound, in bytes: zones are charged their heap bytes, statistics
//! included, a block its index and then each cell as it fills. Eviction
//! is FIFO in insertion order, and GC drops the entries of the files it
//! deletes ([`ReadCache::forget`]).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use vortex_common::error::VortexResult;
use vortex_ros::{ColumnVec, Fetched, RosBlock};
use vortex_wos::FragmentHeader;

use crate::read::Stated;

/// What a read remembers of one log file: the rows of the blocks §7.1's
/// commit rule (or the catalogued size) has certified, and where the next
/// read resumes.
#[derive(Debug)]
pub(crate) struct LogFile {
    /// Certified bytes — a record boundary every replica agrees on.
    pub len: u64,
    /// The file's header: the block nonce's fragment id, and the File Map
    /// that certifies the streamlet's earlier files.
    pub header: FragmentHeader,
    /// The certified blocks' rows, at streamlet-relative positions, with
    /// each zone's statistics.
    pub zones: Vec<Stated>,
    /// The streamlet's epoch when a tail read certified the extent.
    pub epoch: u64,
    /// A successor file was seen, or the catalogued size reached: the
    /// extent is final, serves every epoch and is never re-read.
    pub sealed: bool,
}

enum Entry {
    Log(Arc<LogFile>),
    /// A block, and the committed size it was opened at.
    Block(Arc<RosBlock>, u64),
}

/// Rows of `zones`.
fn row_count(zones: &[Stated]) -> usize {
    zones.iter().map(|(zone, _)| zone.metas.len()).sum()
}

/// The heap bytes of `zones`: provenance, column vectors and statistics.
fn heap_bytes(zones: &[Stated]) -> usize {
    let zone = |(z, stats): &Stated| {
        let cols: usize = z.cols.iter().map(ColumnVec::heap_bytes).sum();
        std::mem::size_of_val(&z.metas[..]) + cols + stats.heap_bytes()
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
    /// Bytes read to extend log-file entries.
    pub tail_bytes: u64,
    /// Rows decoded to extend log-file entries.
    pub tail_rows: u64,
}

/// A bounded cache of verified block chunks and decoded log-file extents.
pub struct ReadCache {
    inner: Mutex<Inner>,
    max_bytes: usize,
}

#[derive(Default)]
struct Inner {
    /// Each file's entry with the bytes charged for it.
    map: HashMap<String, (Entry, usize)>,
    order: VecDeque<String>,
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

    /// Sets `path`'s entry, charged `bytes`, evicting oldest entries past
    /// the bound.
    fn insert(&self, inner: &mut Inner, path: &str, entry: Entry, bytes: usize) {
        inner.bytes += bytes;
        match inner.map.get_mut(path) {
            Some(held) => inner.bytes -= std::mem::replace(held, (entry, bytes)).1,
            None => {
                // lint:allow(L010, once per file entered: its map slot)
                inner.map.insert(path.to_string(), (entry, bytes));
                // lint:allow(L010, once per file entered: its place in line)
                inner.order.push_back(path.to_string());
            }
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

    /// What `pick` takes of `path`'s entry: a hit if that is anything, and
    /// else a miss if `miss` says so.
    fn lookup<T>(&self, path: &str, miss: bool, pick: impl Fn(&Entry) -> Option<T>) -> Option<T> {
        // lint:allow(L011, held for one map lookup; no read happens under it)
        let Inner { map, tally, .. } = &mut *self.inner.lock();
        let hit = map.get(path).and_then(|(entry, _)| pick(entry));
        tally.hits += hit.is_some() as u64;
        tally.misses += (miss && hit.is_none()) as u64;
        hit
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
            Entry::Block(block, at) if *at == size => Some(Arc::clone(block)),
            _ => None,
        };
        if let Some(hit) = self.lookup(path, true, held) {
            return Ok((hit, Fetched::default()));
        }
        let (block, index) = open()?;
        // lint:allow(L011, held for a map update; no read happens under it)
        let inner = &mut *self.inner.lock();
        if let Some(raced) = inner.map.get(path).and_then(|(entry, _)| held(entry)) {
            return Ok((raced, index));
        }
        // lint:allow(L010, once per block opened from its file, so that reads can share it)
        let block = Arc::new(block);
        let entry = Entry::Block(Arc::clone(&block), size);
        self.insert(inner, path, entry, index.kept as usize);
        Ok((block, index))
    }

    /// Charges the block at `path` of `committed_size`, if it is still
    /// held, `kept` more bytes: cells a fetch filled.
    pub fn charge(&self, path: &str, committed_size: u64, kept: u64) {
        // lint:allow(L011, held for a map update; no read happens under it)
        let inner = &mut *self.inner.lock();
        match inner.map.get_mut(path) {
            Some((Entry::Block(_, at), n)) if *at == committed_size => *n += kept as usize,
            _ => return,
        }
        inner.bytes += kept as usize;
        self.evict(inner);
    }

    /// What is held of the log file at `path`, if `usable` takes it;
    /// finding it is a hit.
    pub(crate) fn log_file(
        &self,
        path: &str,
        usable: impl Fn(&LogFile) -> bool,
    ) -> Option<Arc<LogFile>> {
        self.lookup(path, false, |entry| match entry {
            Entry::Log(file) if usable(file) => Some(Arc::clone(file)),
            _ => None,
        })
    }

    /// Keeps `file` for `path`, extended from `from` by `read` bytes
    /// fetched — unless what is held is certified at least as far and
    /// serves `file`'s epoch (two reads may extend one entry at once). An
    /// entry read from nothing is a miss.
    pub(crate) fn put_log(
        &self,
        path: &str,
        file: &Arc<LogFile>,
        from: Option<&LogFile>,
        read: u64,
    ) {
        // lint:allow(L011, held for a map update; no read happens under it)
        let inner = &mut *self.inner.lock();
        if let Some((Entry::Log(held), _)) = inner.map.get(path) {
            let serves = held.sealed || held.epoch == file.epoch;
            if serves && (held.sealed, held.len) >= (file.sealed, file.len) {
                return;
            }
        }
        let rows = row_count(&file.zones).saturating_sub(from.map_or(0, |f| row_count(&f.zones)));
        inner.tally.misses += from.is_none() as u64;
        inner.tally.tail_bytes += read;
        inner.tally.tail_rows += rows as u64;
        let bytes = heap_bytes(&file.zones);
        self.insert(inner, path, Entry::Log(Arc::clone(file)), bytes);
    }

    /// Drops the entry of each of the `gone` paths — files GC deleted,
    /// whose entries could only hold budget.
    pub fn forget(&self, gone: &[String]) {
        // lint:allow(L011, held for a pass over the entries; no read happens under it)
        let inner = &mut *self.inner.lock();
        for path in gone {
            inner.bytes -= inner.map.remove(path).map_or(0, |(_, n)| n);
        }
        inner.order.retain(|path| inner.map.contains_key(path));
    }

    /// The file of every entry, oldest first, with the bytes charged for
    /// it.
    pub fn entries(&self) -> Vec<(String, usize)> {
        let inner = self.inner.lock();
        let entry = |path: &String| (path.clone(), inner.map.get(path).map_or(0, |(_, n)| *n));
        inner.order.iter().map(entry).collect()
    }

    /// Hits, misses, and the bytes read and rows decoded to extend
    /// log-file entries, so far.
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
    use vortex_common::crypt::Key;
    use vortex_common::schema::ChangeType;
    use vortex_common::truetime::Timestamp;
    use vortex_ros::RowMeta;

    use crate::read::{Zone, ZoneStats};

    /// What one row of the zones below is charged: its provenance alone.
    const ROW: usize = std::mem::size_of::<RowMeta>();

    /// A log-file entry of `n` rows in zones of four, certified through
    /// byte `len` at `epoch`.
    fn log(n: usize, len: u64, epoch: u64, sealed: bool) -> Arc<LogFile> {
        use vortex_common::ids::{FragmentId, StreamletId};
        let meta = |i: usize| RowMeta {
            change_type: ChangeType::Insert,
            ts: Timestamp(i as u64),
            stream: 1,
            offset: i as u64,
        };
        let all: Vec<usize> = (0..n).collect();
        let zone = |of: &[usize]| {
            let zone = Zone {
                first: of[0] as u64,
                metas: of.iter().map(|&i| meta(i)).collect(),
                cols: vec![],
            };
            let (maps, bloom) = (vec![], None);
            let newest = Timestamp(*of.last().unwrap() as u64);
            (
                Arc::new(zone),
                Arc::new(ZoneStats {
                    maps,
                    newest,
                    bloom,
                }),
            )
        };
        let header = FragmentHeader {
            format_version: 1,
            streamlet: StreamletId::from_raw(1),
            fragment: FragmentId::from_raw(2),
            ordinal: 0,
            schema_version: 1,
            first_row: 0,
            file_map: vec![],
        };
        Arc::new(LogFile {
            len,
            header,
            zones: all.chunks(4).map(zone).collect(),
            epoch,
            sealed,
        })
    }

    /// Keeps a first entry of `n` rows for `path`.
    fn put(c: &ReadCache, path: &str, n: usize) {
        c.put_log(path, &log(n, 1, 0, true), None, 0);
    }

    /// Whether an entry for `path` is held; a hit if it is.
    fn held(c: &ReadCache, path: &str) -> bool {
        c.log_file(path, |_| true).is_some()
    }

    /// A one-column ROS block file of 3 000 rows, under `Key::zero`.
    fn block_file() -> Vec<u8> {
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
        b.build(false).unwrap().to_bytes(&Key::zero(), 5)
    }

    /// A reader of `file`'s ranges.
    fn reader(file: &[u8]) -> Box<vortex_ros::ReadAt<'_>> {
        Box::new(|at, len, check| {
            let bytes = &file[at as usize..][..len];
            check(bytes).map(|()| bytes.to_vec())
        })
    }

    /// Opens the block of `file` by its index.
    fn open(file: &[u8]) -> VortexResult<(RosBlock, Fetched)> {
        RosBlock::open_index(file.len() as u64, &Key::zero(), 5, &mut *reader(file))
    }

    /// A lookup that finds its entry is a hit; a block at another size is
    /// a miss, and a log file is a miss when it is first read, not when a
    /// lookup finds nothing.
    #[test]
    fn hit_miss_accounting() {
        let c = ReadCache::new(1 << 20);
        let file = block_file();
        let size = file.len() as u64;
        c.block("a", size, || open(&file)).unwrap();
        c.block("a", size, || panic!("a hit opens nothing"))
            .unwrap();
        assert_eq!((c.tally().hits, c.tally().misses), (1, 1));
        // Different committed_size = different content = miss.
        c.block("a", size + 1, || open(&file)).unwrap();
        assert_eq!((c.tally().hits, c.tally().misses), (1, 2));
        assert!(!held(&c, "l"));
        put(&c, "l", 5);
        assert!(held(&c, "l"));
        assert_eq!((c.tally().hits, c.tally().misses), (2, 3));
    }

    /// A byte bound worth 100 rows keeps about 100 rows, newest first.
    #[test]
    fn eviction_bounds_rows() {
        let c = ReadCache::new(100 * ROW);
        for i in 0..20 {
            put(&c, &format!("f{i}"), 10);
        }
        assert!(c.len() <= 11, "bounded to ~100 rows: {}", c.len());
        // Newest entries survive.
        assert!(held(&c, "f19"));
        assert!(!held(&c, "f0"));
    }

    #[test]
    fn oversized_extent_keeps_accounting_exact() {
        // A single extent larger than the bound must stay resident (the
        // `order.len() > 1` guard: evicting the only entry would make
        // the cache useless for it) with its bytes accounted exactly —
        // and the books must return to exact once it IS evicted.
        let c = ReadCache::new(100 * ROW);
        put(&c, "big", 250);
        assert_eq!(c.len(), 1, "oversized sole entry stays resident");
        assert_eq!(
            c.bytes(),
            250 * ROW,
            "accounting covers the oversized entry"
        );
        assert!(held(&c, "big"));
        // A second insert trips eviction: FIFO pops the oversized entry
        // first; accounting must drop by exactly its bytes.
        put(&c, "small", 10);
        assert_eq!(c.len(), 1);
        assert!(!held(&c, "big"), "oversized entry evicted FIFO");
        assert!(held(&c, "small"));
        assert_eq!(c.bytes(), 10 * ROW, "books exact after oversized eviction");
        // Duplicate put of a resident entry must not inflate the books.
        put(&c, "small", 10);
        assert_eq!(c.bytes(), 10 * ROW);
    }

    #[test]
    fn duplicate_put_is_noop() {
        let c = ReadCache::new(100 * ROW);
        put(&c, "x", 10);
        put(&c, "x", 10);
        assert_eq!((c.len(), c.bytes()), (1, 10 * ROW));
        assert_eq!(c.tally().misses, 1, "the duplicate is not counted");
        assert!(!c.is_empty());
    }

    /// A block opened from its file is charged its index, then each cell
    /// as a fetch fills it; a hit reads nothing, an open that a racing one
    /// beat to the entry shares the winner's block, and GC's `forget`
    /// takes the block's bytes off the books.
    #[test]
    fn blocks_are_charged_as_their_cells_fill() {
        let file = block_file();
        let size = file.len() as u64;
        let c = ReadCache::new(1 << 20);
        let (block, index) = c.block("b", size, || open(&file)).unwrap();
        assert_eq!(c.bytes() as u64, index.kept);
        let (hit, nothing) = c
            .block("b", size, || panic!("a hit opens nothing"))
            .unwrap();
        assert!(Arc::ptr_eq(&hit, &block) && nothing == Fetched::default());
        assert_eq!((c.tally().hits, c.tally().misses), (1, 1));
        let mut won = None;
        let (lost, _) = (c.block("r", size, || {
            won = Some(c.block("r", size, || open(&file)).unwrap().0);
            open(&file)
        }))
        .unwrap();
        assert!(Arc::ptr_eq(&won.unwrap(), &lost));
        assert_eq!(c.bytes() as u64, 2 * index.kept);
        let body = block.fetch(&mut *reader(&file), |_, _| true).unwrap();
        assert!(body.kept > body.bytes, "vsnap chunks are held expanded");
        c.charge("b", size, body.kept);
        // A charge at another size is another block's.
        c.charge("b", size + 1, body.kept);
        assert_eq!(c.bytes() as u64, 2 * index.kept + body.kept);
        let again = block.fetch(&mut *reader(&file), |_, _| true).unwrap();
        assert_eq!(again, Fetched::default());
        c.forget(&["b".to_string()]);
        assert_eq!(c.entries(), [("r".to_string(), index.kept as usize)]);
        assert_eq!(c.bytes() as u64, index.kept);
    }

    /// A log file's one entry grows in place; of two extents the longer
    /// is kept, a sealed one over any open one, and an open one serves
    /// only its own epoch; GC's `forget` drops entries by path.
    #[test]
    fn tail_entries_grow_in_place_and_go_by_range() {
        let c = ReadCache::new(100 * ROW);
        let at = |epoch: u64| move |f: &LogFile| f.sealed || f.epoch == epoch;
        assert!(c.log_file("s/f00000001", at(1)).is_none());
        assert_eq!(
            c.tally(),
            Tally::default(),
            "an absent entry is not a miss yet"
        );
        let first = log(10, 400, 1, false);
        c.put_log("s/f00000001", &first, None, 400);
        c.put_log("s/f00000001", &log(30, 900, 1, false), Some(&first), 1000);
        assert_eq!(
            (c.len(), c.bytes()),
            (1, 30 * ROW),
            "extended, not added beside"
        );
        // A shorter certified extent loses to the one held; sealed wins.
        c.put_log("s/f00000001", &log(20, 700, 1, false), Some(&first), 0);
        assert_eq!(c.log_file("s/f00000001", at(1)).unwrap().len, 900);
        // Another epoch does not take an open entry, and replaces it.
        assert!(c.log_file("s/f00000001", at(2)).is_none());
        c.put_log("s/f00000001", &log(20, 700, 2, false), None, 0);
        assert_eq!(c.log_file("s/f00000001", at(2)).unwrap().len, 700);
        c.put_log("s/f00000001", &log(30, 900, 0, true), None, 0);
        assert!(c.log_file("s/f00000001", at(7)).unwrap().sealed);
        c.put_log("s/f00000001", &log(40, 950, 2, false), None, 0);
        assert_eq!(c.log_file("s/f00000001", at(2)).unwrap().len, 900);
        // Three first entries, four hits, the bytes read, the rows added.
        let counted = Tally {
            hits: 4,
            misses: 3,
            tail_bytes: 1400,
            tail_rows: 80,
        };
        assert_eq!(c.tally(), counted);
        c.put_log("s/f00000000", &log(10, 100, 1, true), None, 0);
        c.put_log("t/f00000000", &log(10, 100, 1, false), None, 0);
        assert_eq!((c.len(), c.bytes()), (3, 50 * ROW));
        c.forget(&["s/f00000000".to_string(), "s/f00000009".to_string()]);
        assert_eq!((c.len(), c.bytes()), (2, 40 * ROW));
        assert!(held(&c, "s/f00000001") && held(&c, "t/f00000000"));
        // Eviction counts a grown entry at its grown size.
        put(&c, "big", 80);
        assert!(c.bytes() <= 100 * ROW && !held(&c, "s/f00000001"));
    }
}
