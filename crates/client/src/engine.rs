//! The scan executor: partition elimination (§7.2) + parallel fragment
//! scans (§7's "dispatches these Fragments and Streamlets to different
//! Dremel shards to process them in parallel") + aggregation.

use std::collections::HashMap;
use std::sync::Arc;

use vortex_colossus::StorageFleet;
use vortex_common::crypt::Key;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{StreamletId, TableId};
use vortex_common::obs::{self, Counter, FreshnessProbe, Histogram};
use vortex_common::row::{Row, Value};
use vortex_common::schema::Schema;
use vortex_common::truetime::{Timestamp, TrueTime};
use vortex_ros::RowMeta;
use vortex_sms::api::SmsHandle;
use vortex_sms::meta::FragmentKind;
use vortex_sms::readset::{FragmentReadSpec, ReadSet};

use crate::cdc::resolve_changes;
use crate::consume::{Aggregator, Consumer, RowCollector};
use crate::expr::{Expr, Verdict};
use crate::pushdown::{scan_resolved, scan_ros_block, scan_visible, FragmentYield, ScanPlan};
use crate::read::{
    open_ros_block, read_fragment_bloom, read_fragment_cached, read_reconciled_tail,
    read_tail_cached, RowGate, TailOutcome,
};
use crate::{ReadCache, ReadOptions, VortexClient};

/// Scan configuration.
#[derive(Debug, Clone)]
pub struct ScanOptions {
    /// Filter predicate (also drives pruning).
    pub predicate: Expr,
    /// Resolve UPSERT/DELETE change types by primary key (merge-on-read,
    /// §4.2.6). Merge-on-read must see every version of a key, including
    /// rows the filter would drop, so such scans read every column of
    /// every visible row and filter + project after resolution.
    pub resolve_changes: bool,
    /// Parallel scan shards.
    pub parallelism: usize,
    /// Columns the caller needs materialized (`None` = all). Columns
    /// outside the projection come back NULL; the predicate still
    /// evaluates against stored values.
    pub projection: Option<Vec<String>>,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            predicate: Expr::True,
            resolve_changes: false,
            parallelism: 8,
            projection: None,
        }
    }
}

/// Pruning / scanning counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Fragments in the read set before pruning.
    pub fragments_total: usize,
    /// Fragments eliminated via min/max column properties.
    pub pruned_by_stats: usize,
    /// Fragments eliminated via bloom filters.
    pub pruned_by_bloom: usize,
    /// Streamlet tails probed.
    pub tails_scanned: usize,
    /// Zones inspected: of the ROS blocks scanned, and the decoded zones
    /// of the WOS fragments and tails.
    pub zones_total: usize,
    /// Zones skipped by their statistics: a ROS zone by its zone map, a
    /// decoded zone by its zone maps or its clustering-key bloom.
    pub zones_pruned: usize,
    /// Rows of the zones their statistics could not skip: of a ROS
    /// block's, every row (masked rows included — the zone was decoded
    /// regardless); of a WOS fragment's or a tail's, every visible row.
    pub rows_scanned: u64,
    /// Rows matching the predicate.
    pub rows_matched: u64,
    /// Rows this scan built as a `Row`: the matching rows of a
    /// row-returning scan, every visible row of one that resolves
    /// changes — none for `count` and `aggregate`, which fold zones as
    /// typed vectors whatever they were read from.
    pub rows_materialized: u64,
    /// Cells of ROS chunks this scan decoded into column vectors, the four
    /// provenance columns' included: a zone's rows per column read whole
    /// (the predicate's, and everything of a zone the filter kept whole),
    /// the selected rows per column decoded at the selection. Against
    /// `rows_scanned` × columns, what the filter saved. (WOS fragments and
    /// tails arrive decoded: `wos.rows_decoded`, `tail_rows_decoded`.)
    pub cells_decoded: u64,
    /// Bytes of the chunk cells (verified, decrypted, vsnap-expanded) of
    /// the ROS chunks behind `cells_decoded`: a chunk's whole whether it
    /// decoded whole or at a selection, since either walks all of it.
    /// Against `cells_decoded`, what was decoded but not returned.
    pub bytes_decoded: u64,
    /// Zones of ROS blocks an aggregate folded a column of without
    /// decoding it: a SUM or AVG from its stored form, the group from its
    /// zone map. Why an aggregate can decode nothing.
    pub zones_folded: u64,
    /// Ranged reads this scan made of the ROS blocks it opened: two for
    /// the index of a block the cache did not hold, then one per run of
    /// adjacent chunks it needed that no cell held — none for a block the
    /// cache held whole. (Log files are read past what the cache holds of
    /// them; every read of either kind is in the clusters'
    /// `colossus.<cluster>.reads`.)
    pub reads: u64,
    /// Bytes those reads returned — against the `committed_size` of the
    /// blocks opened, what the scan paid for what it needed; 0 for a
    /// scan the cache served.
    pub bytes_fetched: u64,
    /// ROS blocks and log files — listed or a tail's — this scan found in
    /// the cache (0 without a cache): a block opened from what it holds,
    /// a log file's decoded zones shared, and extended if need be. These
    /// four are attributed from shared-cache counter deltas, so
    /// concurrent scans may shift counts between each other; totals stay
    /// exact.
    pub cache_hits: u64,
    /// ROS blocks this scan opened from their files, and log files it
    /// decoded from byte 0, and left in the cache.
    pub cache_misses: u64,
    /// Bytes this scan read of log files, every replica's counted, to
    /// extend what the cache holds of them: what was appended since the
    /// previous scan, 0 for a repeat.
    pub tail_bytes_read: u64,
    /// Log-file rows this scan decoded into the cache.
    pub tail_rows_decoded: u64,
    /// Fragments and tails a best-effort read skipped, unreadable or
    /// ambiguous (§9); 0 for every other read.
    pub skipped: usize,
}

/// Result of a scan.
#[derive(Debug, Clone)]
pub struct ScanResult {
    /// Snapshot the scan ran at.
    pub snapshot: Timestamp,
    /// Schema at the snapshot.
    pub schema: Schema,
    /// Matching rows with provenance, ordered by `(stream, offset, ts)`,
    /// change types as written unless the scan resolved them.
    pub rows: Vec<(RowMeta, Row)>,
    /// False only for best-effort reads that had to skip data.
    pub complete: bool,
    /// Pruning/scan counters.
    pub stats: ScanStats,
}

/// Runs `f` over `items` (the surviving fragments) in up to `shards`
/// chunks, each folded into one `init()` accumulator and stopping at its
/// first error. The calling thread folds the first chunk itself and
/// scoped workers the rest, so one shard — or one surviving fragment —
/// spawns nothing. Either way a panic surfaces as `VortexError::Internal`
/// for its chunk instead of aborting the process (regression: scan
/// workers used to be joined with `.unwrap()`, so one poisoned fragment
/// took down the whole engine).
fn scan_shards<'s, I, T, F>(
    items: &'s [I],
    shards: usize,
    init: &(impl Fn() -> T + Sync),
    f: &F,
) -> Vec<VortexResult<T>>
where
    I: Sync,
    T: Send,
    F: Fn(&mut T, &'s I) -> VortexResult<()> + Sync,
{
    let work = |chunk: &'s [I]| {
        let mut acc = init();
        chunk.iter().try_for_each(|i| f(&mut acc, i)).map(|()| acc)
    };
    let caught = |run: std::thread::Result<VortexResult<T>>| {
        run.unwrap_or_else(|payload| Err(panic_error(payload)))
    };
    std::thread::scope(|s| {
        let mut chunks = items.chunks(items.len().div_ceil(shards).max(1));
        let mine = chunks.next();
        let handles: Vec<_> = chunks.map(|chunk| s.spawn(move || work(chunk))).collect();
        // No `&mut` crosses the unwind: `work` owns its accumulator.
        let mine = mine.map(|c| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(c))));
        let theirs = handles.into_iter().map(|h| h.join());
        mine.into_iter().chain(theirs).map(caught).collect()
    })
}

/// Renders a worker thread's panic payload as a scan error.
fn panic_error(payload: Box<dyn std::any::Any + Send>) -> VortexError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    VortexError::Internal(format!("scan worker panicked: {msg}"))
}

#[cfg(test)]
mod shard_tests {
    use super::*;

    /// Regression for the `h.join().unwrap()` bug: a panicking shard
    /// thread must surface as an error, not take down the engine.
    #[test]
    fn worker_panic_becomes_error() {
        // Quiet the default hook for the intentional panic below.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let items = [1i32, 2, 3, 4];
        let results = scan_shards(&items, 2, &|| 0, &|sum: &mut i32, &n| {
            if n == 4 {
                panic!("boom on item {n}");
            }
            *sum += n * 10;
            Ok(())
        });
        let alone = scan_shards(&items, 1, &|| (), &|(), &n| panic!("boom on item {n}"));
        std::panic::set_hook(hook);
        // Chunk [1, 2] completes on the calling thread; chunk [3, 4]
        // panics (its worker dies mid-chunk). The scan sees an error, not
        // a process abort.
        assert_eq!(results.len(), 2);
        assert!(matches!(results[0], Ok(30)), "{results:?}");
        assert!(
            matches!(&results[1], Err(VortexError::Internal(m)) if m.contains("boom on item 4")),
            "{results:?}"
        );
        // With one shard there is no worker to die, and still no abort:
        // the calling thread's own chunk is held to the same rule.
        assert!(
            matches!(&alone[..], [Err(VortexError::Internal(m))] if m.contains("boom on item 1")),
            "{alone:?}"
        );
        // String payloads (panic!("{}", x) style) are preserved too.
        let e = panic_error(Box::new(String::from("owned message")));
        assert!(
            matches!(&e, VortexError::Internal(m) if m.contains("owned message")),
            "{e:?}"
        );
    }

    /// One shard asked for (`parallelism: 1`, the benchmark's pinned CPU)
    /// or one fragment left after pruning: the scan spawns nothing.
    #[test]
    fn a_single_chunk_is_folded_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for (items, shards) in [(&[1, 2, 3][..], 1), (&[7][..], 8)] {
            let folded = scan_shards(items, shards, &Vec::new, &|on: &mut Vec<_>, _| {
                on.push(std::thread::current().id());
                Ok(())
            });
            assert_eq!(folded.len(), 1);
            let on = folded[0].as_ref().unwrap();
            assert_eq!(on.len(), items.len());
            assert!(on.iter().all(|id| *id == caller), "{on:?} vs {caller:?}");
        }
        // More chunks than one: the caller takes the first, workers the rest.
        let folded = scan_shards(&[1, 2, 3], 3, &Vec::new, &|on: &mut Vec<_>, _| {
            on.push(std::thread::current().id());
            Ok(())
        });
        let on: Vec<_> = folded.into_iter().flat_map(Result::unwrap).collect();
        assert_eq!(on.len(), 3);
        assert_eq!(on[0], caller);
        assert!(on[1] != caller && on[2] != caller, "{on:?}");
    }
}

/// Reconcile-and-retry rounds a table read runs before giving up on an
/// ambiguous streamlet tail.
const RECONCILE_ROUNDS: usize = 8;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// COUNT(*)
    Count,
    /// SUM(col) over Int64 / Float64 / Numeric.
    Sum,
    /// MIN(col).
    Min,
    /// MAX(col).
    Max,
    /// AVG(col): arithmetic mean over Int64 / Float64 / Numeric, always
    /// FLOAT64 (BigQuery's `AVG(INT64)` semantics).
    Avg,
}

impl AggKind {
    /// How a MIN / MAX candidate must order against the best so far to
    /// replace it.
    pub(crate) fn wants(self) -> std::cmp::Ordering {
        match self {
            AggKind::Min => std::cmp::Ordering::Less,
            _ => std::cmp::Ordering::Greater,
        }
    }
}

/// The `scan.*` counters mirroring [`ScanStats`] but `skipped`, each with
/// what one scan adds to it: the one table the handles are interned from
/// (for their names) and fed from (for their values).
fn scan_counts(stats: &ScanStats) -> [(&'static str, u64); 19] {
    [
        ("scan.calls", 1),
        ("scan.fragments_total", stats.fragments_total as u64),
        ("scan.pruned_by_stats", stats.pruned_by_stats as u64),
        ("scan.pruned_by_bloom", stats.pruned_by_bloom as u64),
        ("scan.tails_scanned", stats.tails_scanned as u64),
        ("scan.zones_total", stats.zones_total as u64),
        ("scan.zones_pruned", stats.zones_pruned as u64),
        ("scan.rows_scanned", stats.rows_scanned),
        ("scan.rows_matched", stats.rows_matched),
        ("scan.rows_materialized", stats.rows_materialized),
        ("scan.cells_decoded", stats.cells_decoded),
        ("scan.bytes_decoded", stats.bytes_decoded),
        ("scan.zones_folded", stats.zones_folded),
        ("scan.reads", stats.reads),
        ("scan.bytes_fetched", stats.bytes_fetched),
        // Zero without a cache.
        ("scan.cache.hits", stats.cache_hits),
        ("scan.cache.misses", stats.cache_misses),
        ("scan.tail.bytes_read", stats.tail_bytes_read),
        ("scan.tail.rows_decoded", stats.tail_rows_decoded),
    ]
}

/// The Dremel-lite query engine.
pub struct QueryEngine {
    sms: SmsHandle,
    fleet: StorageFleet,
    /// Virtual clock for scan spans and the freshness probe's
    /// "visible at" stamp. Optional: bare engines stay uninstrumented.
    tt: Option<TrueTime>,
    /// How tables are read: through the shared read cache (§9 future
    /// work), if any.
    pub(crate) read: ReadOptions,
    /// End-to-end commit-to-visible freshness probe (§8).
    probe: Option<Arc<FreshnessProbe>>,
    /// Registry handles interned at construction ([`scan_counts`]' names,
    /// then the `scan` span): recording a scan names no metric.
    m: ([Arc<Counter>; 19], Arc<Histogram>),
}

impl QueryEngine {
    /// Creates an engine over the control plane + storage fleet.
    pub fn new(sms: SmsHandle, fleet: StorageFleet) -> Self {
        Self {
            sms,
            fleet,
            tt: None,
            read: ReadOptions::default(),
            probe: None,
            m: (
                scan_counts(&ScanStats::default()).map(|(name, _)| obs::global().counter(name)),
                obs::global().span("scan"),
            ),
        }
    }

    /// An engine that reads as `client` does: over its control plane and
    /// storage fleet, through its read cache.
    pub fn for_client(client: &VortexClient) -> Self {
        let mut engine = Self::new(client.sms().clone(), client.fleet().clone());
        engine.read.cache = client.cache().cloned();
        engine
    }

    /// Wires the engine into the observability layer: scans go through
    /// `cache`, record `scan.*` metrics and spans against the global
    /// registry, and feed `probe` with commit-to-visible latencies
    /// stamped by `tt` (§8 freshness, measured at the query engine).
    pub fn with_observability(
        mut self,
        tt: TrueTime,
        cache: Arc<ReadCache>,
        probe: Arc<FreshnessProbe>,
    ) -> Self {
        self.tt = Some(tt);
        self.read.cache = Some(cache);
        self.probe = Some(probe);
        self
    }

    /// Scans a table at a snapshot with partition elimination; returns
    /// the matching rows ordered by source position.
    pub fn scan(
        &self,
        table: TableId,
        snapshot: Timestamp,
        opts: &ScanOptions,
    ) -> VortexResult<ScanResult> {
        let rows = |_: &Schema| Ok(RowCollector::default());
        let (sink, listed, stats) = self.scan_into(table, snapshot, opts, &rows)?;
        let mut rows = sink.rows;
        rows.sort_unstable_by_key(|(m, _)| (m.stream, m.offset, m.ts));
        Ok(ScanResult {
            snapshot,
            // lint:allow(L010, once per row-returning scan: the schema its result carries)
            schema: listed.table.schema.clone(),
            rows,
            complete: stats.skipped == 0,
            stats,
        })
    }

    /// The one scan every query runs: folds the rows visible at
    /// `snapshot` that match `opts` into the consumer `make` builds for
    /// the snapshot schema; with it comes the read set it listed.
    // lint:hotpath(scan) — query leg: prune, parallel fragment reads, tail
    pub(crate) fn scan_into<C: Consumer>(
        &self,
        table: TableId,
        snapshot: Timestamp,
        opts: &ScanOptions,
        make: &dyn Fn(&Schema) -> VortexResult<C>,
    ) -> VortexResult<(C, Arc<ReadSet>, ScanStats)> {
        let scan_start = self.tt.as_ref().map(|tt| tt.now().latest);
        let cache_base = self.read.cache.as_ref().map(|c| c.tally());
        let projection = opts.projection.as_deref();
        let (mut out, listed) = if opts.resolve_changes {
            // Merge-on-read must see every version of a key, including
            // rows the filter would drop: collect every column of every
            // visible row, resolve, then filter + project into `sink`.
            let rows = |_: &Schema| Ok(RowCollector::default());
            let (all, listed) =
                self.read_into(table, snapshot, opts, (&Expr::True, None), &rows)?;
            let schema = &listed.table.schema;
            let sink = make(schema)?;
            let post = ScanPlan::compile(&opts.predicate, projection, schema, None, &sink)?;
            let mut out = FragmentYield::new(sink);
            let resolved = resolve_changes(schema, all.sink.rows);
            scan_resolved(resolved, &post, &mut out)?;
            // What was read is what `all` read; what matched is what the
            // filter kept afterwards.
            out.stats = ScanStats {
                rows_matched: out.stats.rows_matched,
                ..all.stats
            };
            out.visible_ts = all.visible_ts;
            (out, listed)
        } else {
            self.read_into(table, snapshot, opts, (&opts.predicate, projection), make)?
        };
        if let (Some(base), Some(c)) = (cache_base, &self.read.cache) {
            let (now, stats) = (c.tally(), &mut out.stats);
            stats.cache_hits = now.hits - base.hits;
            stats.cache_misses = now.misses - base.misses;
            stats.tail_bytes_read = now.tail_bytes - base.tail_bytes;
            stats.tail_rows_decoded = now.tail_rows - base.tail_rows;
        }
        self.record_scan(table, &out.stats, scan_start, &out.visible_ts);
        Ok((out.sink, listed, out.stats))
    }

    /// The table read (§7, §7.1): lists the read set at `snapshot` and
    /// folds every fragment and tail, with `pushed` (predicate, projection)
    /// pushed down, into `sink`. When a tail's final append cannot be
    /// decided locally the SMS reconciles it and the read starts over with
    /// the reconciled metadata; a best-effort read (§9 monitoring) skips
    /// such a tail, or one it cannot read, instead.
    fn read_into<'e, C: Consumer>(
        &self,
        table: TableId,
        snapshot: Timestamp,
        opts: &ScanOptions,
        pushed: (&'e Expr, Option<&[String]>),
        make: &dyn Fn(&Schema) -> VortexResult<C>,
    ) -> VortexResult<(FragmentYield<C>, Arc<ReadSet>)> {
        let (sms, fleet, cache) = (&self.sms, &self.fleet, self.read.cache.as_deref());
        let mut reconciled: HashMap<StreamletId, Timestamp> = HashMap::new();
        for _round in 0..RECONCILE_ROUNDS {
            let rs = sms.list_read_fragments(table, snapshot)?;
            let key = rs.table.encryption_key();
            let (plan, mut out) = self.scan_fragments(&rs, &key, snapshot, opts, pushed, make)?;
            out.stats.tails_scanned = rs.tails.len();
            let mut ambiguous = Vec::new();
            for tail in &rs.tails {
                if let Some(&list_at) = reconciled.get(&tail.streamlet) {
                    // The snapshot predates the reconciliation commit, so
                    // the metadata still shows a tail — but the reconciled
                    // fragment records (listed at the reconcile time) are
                    // authoritative and safe to read at the old snapshot
                    // (row visibility is still gated by block timestamps).
                    let at = (snapshot, list_at);
                    for visible in
                        read_reconciled_tail((sms, fleet, &key, cache), (table, tail), at)?
                    {
                        scan_visible(&visible, &plan, &mut out)?;
                    }
                    continue;
                }
                match read_tail_cached(tail, fleet, &key, snapshot, cache) {
                    Ok(TailOutcome::Rows(visible)) => scan_visible(&visible, &plan, &mut out)?,
                    // Monitoring reads don't pay the reconciliation round
                    // trip; they return what is unambiguous (§9).
                    Ok(TailOutcome::NeedsReconcile) if self.read.best_effort => {
                        out.stats.skipped += 1
                    }
                    Ok(TailOutcome::NeedsReconcile) => ambiguous.push(tail.streamlet),
                    Err(e) if self.read.best_effort && e.is_retryable() => out.stats.skipped += 1,
                    Err(e) => return Err(e),
                }
            }
            if ambiguous.is_empty() {
                return Ok((out, rs));
            }
            for slid in ambiguous {
                sms.reconcile_streamlet(table, slid)?;
                reconciled.insert(slid, sms.read_snapshot());
            }
        }
        Err(VortexError::Unavailable(format!(
            "table {table}: streamlet tails still ambiguous after reconciliation"
        )))
    }

    /// One read set's fragments: partition elimination (§7.2), then the
    /// survivors scanned in parallel — each shard folds its fragments'
    /// matching rows into its own clone of `sink`, merged at the end.
    fn scan_fragments<'e, C: Consumer>(
        &self,
        rs: &ReadSet,
        key: &Key,
        snapshot: Timestamp,
        opts: &ScanOptions,
        pushed: (&'e Expr, Option<&[String]>),
        make: &dyn Fn(&Schema) -> VortexResult<C>,
    ) -> VortexResult<(ScanPlan<'e>, FragmentYield<C>)> {
        // Commit timestamps of everything visible are captured before
        // CDC resolution / filtering can drop rows — freshness (§8)
        // measures when *committed* data became readable, not whether a
        // predicate kept it.
        let seen = self.probe.as_ref().map(|p| p.seen_through(rs.table.table));
        let sink = make(&rs.table.schema)?;
        let plan = ScanPlan::compile(pushed.0, pushed.1, &rs.table.schema, seen, &sink)?;
        let mut out = FragmentYield::new(sink.clone());
        let survivors = self.survivors(rs, &plan, &mut out.stats)?;
        let fresh = || FragmentYield::new(sink.clone());
        let shards = scan_shards(
            &survivors,
            opts.parallelism.max(1),
            &fresh,
            &|out, &spec| self.scan_fragment(spec, key, snapshot, &plan, out),
        );
        for shard in shards {
            out.absorb(shard?);
        }
        Ok((plan, out))
    }

    /// Partition elimination (§7.2): the fragments of `rs` that neither
    /// their catalogued column properties nor, for a WOS fragment, its
    /// bloom filter rule out for the predicate `plan` compiled, in list
    /// order; what was ruled out is counted into `stats`.
    pub(crate) fn survivors<'r>(
        &self,
        rs: &'r ReadSet,
        plan: &ScanPlan<'_>,
        stats: &mut ScanStats,
    ) -> VortexResult<Vec<&'r FragmentReadSpec>> {
        stats.fragments_total += rs.fragments.len();
        let mut survivors: Vec<&FragmentReadSpec> = Vec::new();
        for spec in &rs.fragments {
            if plan.pred.verdict(&(&rs.table.schema, &spec.meta)) == Verdict::None {
                stats.pruned_by_stats += 1;
                continue;
            }
            if spec.meta.kind == FragmentKind::Wos && !self.bloom_may_match(spec, plan)? {
                stats.pruned_by_bloom += 1;
                continue;
            }
            survivors.push(spec);
        }
        Ok(survivors)
    }

    /// The per-fragment step, through the cache. A ROS block is not even
    /// read whole: it is opened — held, or by its index — and the chunks
    /// the scan needs that no cell holds are fetched, then decode zone by
    /// zone. A WOS fragment is its log file's cache entry, extended to the
    /// catalogued size. Either way the predicate runs on typed column
    /// vectors and the consumer folds the selected positions. A
    /// best-effort read skips a fragment no replica of which it can read.
    pub(crate) fn scan_fragment<C: Consumer>(
        &self,
        spec: &FragmentReadSpec,
        key: &Key,
        snapshot: Timestamp,
        plan: &ScanPlan<'_>,
        out: &mut FragmentYield<C>,
    ) -> VortexResult<()> {
        let gate = RowGate::for_fragment(spec, snapshot);
        if gate.is_shut() {
            return Ok(());
        }
        let cache = self.read.cache.as_deref();
        // Either fails before it folds a row: a block is fetched, and a
        // log file decoded, before any zone is scanned.
        let scanned = match spec.meta.kind {
            FragmentKind::Ros => open_ros_block(&spec.meta, &self.fleet, key, cache)
                .and_then(|mut open| scan_ros_block(&mut open, &gate, plan, out)),
            FragmentKind::Wos => read_fragment_cached(spec, &self.fleet, key, snapshot, cache)
                .and_then(|zones| scan_visible(&zones, plan, out)),
        };
        match scanned {
            Err(e) if self.read.best_effort && e.is_retryable() => {
                out.stats.skipped += 1;
                Ok(())
            }
            scanned => scanned,
        }
    }

    /// Folds one successful scan into the global registry: `scan.*`
    /// counters mirroring [`ScanStats`], the `span.scan.us` histogram
    /// (virtual time; usually 0 because the sim clock does not advance
    /// during scan CPU work), and the commit-to-visible freshness probe
    /// (§8) stamped at the moment results are handed to the caller.
    pub(crate) fn record_scan(
        &self,
        table: TableId,
        stats: &ScanStats,
        scan_start: Option<Timestamp>,
        visible_ts: &[Timestamp],
    ) {
        let (counters, span) = &self.m;
        for (counter, (_, n)) in counters.iter().zip(scan_counts(stats)) {
            counter.add(n);
        }
        if let Some(tt) = &self.tt {
            let end = tt.now().latest;
            if let Some(start) = scan_start {
                obs::Span::begin(span, start).end(end);
            }
            if let Some(probe) = &self.probe {
                probe.observe(table, visible_ts.iter().copied(), end);
            }
        }
    }

    /// Checks a WOS fragment's on-file bloom filter against the plan's
    /// required points on partition/clustering columns. Reads only the
    /// footer + bloom record, not the data (§5.4.4).
    fn bloom_may_match(&self, spec: &FragmentReadSpec, plan: &ScanPlan<'_>) -> VortexResult<bool> {
        if !plan.has_bloom_keys() {
            return Ok(true); // nothing bloom can decide
        }
        match read_fragment_bloom(&spec.meta, &self.fleet) {
            Ok(Some(bloom)) => Ok(plan.may_match_bloom(&bloom)),
            // Unfinalized / no footer, or no replica reachable: the bloom
            // cannot decide, keep the fragment (its read fails over on its
            // own).
            Ok(None) => Ok(true),
            Err(e) if e.is_retryable() => Ok(true),
            Err(e) => Err(e),
        }
    }

    /// COUNT(*) with a predicate: an aggregation without aggregates, read
    /// off the scan's own `rows_matched`. Counting needs no column
    /// values: a zone contributes the size of its selection, and of a ROS
    /// block nothing is decoded beyond the predicate's columns.
    pub fn count(
        &self,
        table: TableId,
        snapshot: Timestamp,
        opts: &ScanOptions,
    ) -> VortexResult<u64> {
        let nothing = |_: &Schema| Ok(Aggregator::default());
        Ok(self
            .scan_into(table, snapshot, opts, &nothing)?
            .2
            .rows_matched)
    }

    /// Grouped aggregation over a scan. `group_by` of `None` produces a
    /// single global group; every aggregate but COUNT needs a column.
    /// Groups come back ordered by the group value's key encoding. Zones
    /// are folded as typed column vectors — of a ROS block only the group
    /// and aggregate columns are decoded, and none a SUM or AVG takes
    /// from the block index — and no row is built. A Float64 SUM or AVG
    /// is the exact sum rounded once, so its bits do not depend on the
    /// order of rows, zones or shards, nor on `parallelism`.
    pub fn aggregate(
        &self,
        table: TableId,
        snapshot: Timestamp,
        opts: &ScanOptions,
        group_by: Option<&str>,
        aggs: &[(AggKind, Option<&str>)],
    ) -> VortexResult<Vec<(Option<Value>, Vec<Value>)>> {
        let make = |schema: &Schema| Aggregator::new(schema, group_by, aggs);
        Ok(self
            .scan_into(table, snapshot, opts, &make)?
            .0
            .into_groups())
    }
}
