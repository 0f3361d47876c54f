//! The scan executor: partition elimination (§7.2) + parallel fragment
//! scans (§7's "dispatches these Fragments and Streamlets to different
//! Dremel shards to process them in parallel") + aggregation.

use std::sync::Arc;

use vortex_client::read::{
    drive_table_read, open_fragment, read_fragment_cached, with_replica, OpenFragment, RowGate,
};
use vortex_client::ReadCache;
use vortex_colossus::StorageFleet;
use vortex_common::crypt::Key;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::TableId;
use vortex_common::obs::{self, FreshnessProbe};
use vortex_common::row::{Row, Value};
use vortex_common::schema::Schema;
use vortex_common::stats::ColumnStats;
use vortex_common::truetime::{Timestamp, TrueTime};
use vortex_ros::RowMeta;
use vortex_sms::api::SmsHandle;
use vortex_sms::meta::FragmentKind;
use vortex_sms::readset::{FragmentReadSpec, ReadSet};
use vortex_wos::format::{Footer, RecordHeader, RecordType, FOOTER_TOTAL_LEN, RECORD_HEADER_LEN};

use crate::cdc::resolve_changes;
use crate::expr::Expr;
use crate::pushdown::{scan_ros_block, scan_rows, FragmentYield, ScanPlan};

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
    /// Consult WOS fragment bloom filters (footer reads) for point
    /// predicates on partition/clustering columns (§7.2).
    pub use_bloom: bool,
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
            use_bloom: true,
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
    /// Column-chunk zones inspected across the ROS blocks scanned.
    pub zones_total: usize,
    /// Zones skipped via per-zone min/max properties (the zone map).
    pub zones_pruned: usize,
    /// Rows decoded from storage. For ROS blocks this counts the rows of
    /// zones the zone map could not skip (masked rows included — the
    /// zone was decoded regardless); for WOS fragments and tails, every
    /// visible row.
    pub rows_scanned: u64,
    /// Rows matching the predicate.
    pub rows_matched: u64,
    /// Decoded-extent cache hits during this scan (0 without a cache).
    /// Attributed from shared-cache counter deltas, so concurrent scans
    /// may shift hits between each other; totals stay exact.
    pub cache_hits: u64,
    /// Decoded-extent cache misses during this scan (0 without a cache).
    pub cache_misses: u64,
}

/// Result of a scan.
#[derive(Debug, Clone)]
pub struct ScanResult {
    /// Snapshot the scan ran at.
    pub snapshot: Timestamp,
    /// Schema at the snapshot.
    pub schema: Schema,
    /// Matching rows with provenance.
    pub rows: Vec<(RowMeta, Row)>,
    /// Pruning/scan counters.
    pub stats: ScanStats,
}

/// What the fragments of one read set contribute to a scan.
struct FragmentsScan<'e> {
    /// What was pushed down to every fragment (and goes to the tails).
    down: ScanPlan<'e>,
    /// The caller's filter + projection, run after merge-on-read
    /// resolution; `None` when `down` already applied them.
    post: Option<ScanPlan<'e>>,
    /// Pruning counters.
    stats: ScanStats,
    /// The surviving fragments' merged yields.
    out: FragmentYield,
}

/// Runs `f` over `items` (the surviving fragments) on up to `shards`
/// scoped worker threads. A panicking worker surfaces as
/// `VortexError::Internal` for its chunk instead of aborting the process
/// (regression: scan workers used to be joined with `.unwrap()`, so one
/// poisoned fragment took down the whole engine).
fn scan_shards<'s, I, T, F>(items: &'s [I], shards: usize, f: &F) -> Vec<VortexResult<T>>
where
    I: Sync,
    T: Send,
    F: Fn(&'s I) -> VortexResult<T> + Sync,
{
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for chunk in items.chunks(items.len().div_ceil(shards).max(1)) {
            handles.push(s.spawn(move || chunk.iter().map(f).collect::<Vec<_>>()));
        }
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(results) => results,
                Err(payload) => vec![Err(panic_error(payload))],
            })
            .collect()
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
        let items = [1i32, 2, 3];
        let results = scan_shards(&items, 2, &|&n| {
            if n == 2 {
                panic!("boom on item {n}");
            }
            Ok(n * 10)
        });
        std::panic::set_hook(hook);
        // Chunk [1, 2] panics (its worker dies mid-chunk); chunk [3]
        // completes. The scan sees an error, not a process abort.
        assert_eq!(results.len(), 2);
        assert!(
            matches!(&results[0], Err(VortexError::Internal(m)) if m.contains("boom on item 2")),
            "{results:?}"
        );
        assert!(matches!(results[1], Ok(30)), "{results:?}");
        // String payloads (panic!("{}", x) style) are preserved too.
        let e = panic_error(Box::new(String::from("owned message")));
        assert!(
            matches!(&e, VortexError::Internal(m) if m.contains("owned message")),
            "{e:?}"
        );
    }
}

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

/// The Dremel-lite query engine.
pub struct QueryEngine {
    sms: SmsHandle,
    fleet: StorageFleet,
    /// Virtual clock for scan spans and the freshness probe's
    /// "visible at" stamp. Optional: bare engines stay uninstrumented.
    tt: Option<TrueTime>,
    /// Shared decoded-extent cache (§9 future work).
    cache: Option<Arc<ReadCache>>,
    /// End-to-end commit-to-visible freshness probe (§8).
    probe: Option<Arc<FreshnessProbe>>,
}

impl QueryEngine {
    /// Creates an engine over the control plane + storage fleet.
    pub fn new(sms: SmsHandle, fleet: StorageFleet) -> Self {
        Self {
            sms,
            fleet,
            tt: None,
            cache: None,
            probe: None,
        }
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
        self.cache = Some(cache);
        self.probe = Some(probe);
        self
    }

    /// Scans a table at a snapshot with partition elimination.
    // lint:hotpath(scan) — query leg: prune, parallel fragment reads, tail
    pub fn scan(
        &self,
        table: TableId,
        snapshot: Timestamp,
        opts: &ScanOptions,
    ) -> VortexResult<ScanResult> {
        let tmeta = self.sms.get_table(table)?;
        let key = tmeta.encryption_key();
        let scan_start = self.tt.as_ref().map(|tt| tt.now().latest);
        let cache_base = self.cache.as_ref().map(|c| (c.hits(), c.misses()));
        let read = drive_table_read(&self.sms, &self.fleet, &key, table, snapshot, false, |rs| {
            self.scan_fragments(rs, &tmeta.schema, &key, snapshot, opts)
        })?;
        let FragmentsScan {
            down,
            post,
            mut stats,
            mut out,
        } = read.fragments;
        stats.tails_scanned = read.tails;
        out.absorb(scan_rows(read.tail_rows, &read.schema, &down)?);
        stats.zones_total = out.zones_total;
        stats.zones_pruned = out.zones_pruned;
        stats.rows_scanned = out.rows_scanned;
        // ---- CDC resolution over everything visible, then the filter ----
        let mut rows = match &post {
            Some(post) => {
                let resolved = resolve_changes(&tmeta.schema, out.rows);
                scan_rows(resolved, &read.schema, post)?.rows
            }
            None => out.rows,
        };
        stats.rows_matched = rows.len() as u64;
        rows.sort_by_key(|(m, _)| (m.stream, m.offset, m.ts));
        if let Some((h0, m0)) = cache_base {
            let c = self.cache.as_ref().expect("cache_base implies cache");
            stats.cache_hits = c.hits().saturating_sub(h0);
            stats.cache_misses = c.misses().saturating_sub(m0);
        }
        self.record_scan(table, &stats, scan_start, &out.visible_ts);
        Ok(ScanResult {
            snapshot,
            schema: read.schema,
            rows,
            stats,
        })
    }

    /// One read set's fragments: partition elimination (§7.2), then the
    /// survivors scanned in parallel — each yields rows that are already
    /// filtered and projected.
    fn scan_fragments<'e>(
        &self,
        rs: &ReadSet,
        table_schema: &Schema,
        key: &Key,
        snapshot: Timestamp,
        opts: &'e ScanOptions,
    ) -> VortexResult<FragmentsScan<'e>> {
        // Commit timestamps of everything visible are captured before
        // CDC resolution / filtering can drop rows — freshness (§8)
        // measures when *committed* data became readable, not whether a
        // predicate kept it.
        let want_ts = self.probe.is_some();
        let plan =
            |expr, projection, want_ts| ScanPlan::compile(expr, projection, &rs.schema, want_ts);
        let projection = opts.projection.as_deref();
        let (down, post) = if opts.resolve_changes {
            let wanted = plan(&opts.predicate, projection, false)?;
            (plan(&Expr::True, None, want_ts)?, Some(wanted))
        } else {
            (plan(&opts.predicate, projection, want_ts)?, None)
        };
        let mut stats = ScanStats {
            fragments_total: rs.fragments.len(),
            ..ScanStats::default()
        };
        let mut survivors: Vec<&FragmentReadSpec> = Vec::new();
        for spec in &rs.fragments {
            let lookup = |col: &str| -> Option<ColumnStats> {
                spec.meta
                    .stats
                    .iter()
                    .find(|(n, _)| n == col)
                    .map(|(_, s)| s.clone())
            };
            if !opts.predicate.may_match_stats(&lookup) {
                stats.pruned_by_stats += 1;
                continue;
            }
            if opts.use_bloom
                && spec.meta.kind == FragmentKind::Wos
                && !self.bloom_may_match(table_schema, spec, &opts.predicate)?
            {
                stats.pruned_by_bloom += 1;
                continue;
            }
            survivors.push(spec);
        }
        let results = scan_shards(&survivors, opts.parallelism.max(1), &|&spec| {
            self.scan_fragment(spec, key, snapshot, &rs.schema, &down)
        });
        let mut out = FragmentYield::default();
        for r in results {
            out.absorb(r?);
        }
        Ok(FragmentsScan {
            down,
            post,
            stats,
            out,
        })
    }

    /// The per-fragment step. A ROS block is never fully materialized:
    /// the predicate runs on its compressed chunks and only projected
    /// columns of selected rows are decoded. A WOS fragment is
    /// row-oriented; its visible rows come decoded (through the cache)
    /// and are filtered and projected here.
    fn scan_fragment(
        &self,
        spec: &FragmentReadSpec,
        key: &Key,
        snapshot: Timestamp,
        schema: &Schema,
        plan: &ScanPlan<'_>,
    ) -> VortexResult<FragmentYield> {
        let gate = RowGate::for_fragment(spec, snapshot);
        if gate.is_shut() {
            return Ok(FragmentYield::default());
        }
        match spec.meta.kind {
            FragmentKind::Ros => match open_fragment(&spec.meta, &self.fleet, key)? {
                OpenFragment::Ros(block) => scan_ros_block(&block, &gate, plan),
                OpenFragment::Wos(_) => Err(VortexError::Internal(format!(
                    "{} opened as a log file but is listed as a ROS block",
                    spec.meta.path
                ))),
            },
            FragmentKind::Wos => {
                let cache = self.cache.as_deref();
                let rows = read_fragment_cached(spec, &self.fleet, key, snapshot, cache)?;
                scan_rows(rows, schema, plan)
            }
        }
    }

    /// Folds one successful scan into the global registry: `scan.*`
    /// counters mirroring [`ScanStats`], the `span.scan.us` histogram
    /// (virtual time; usually 0 because the sim clock does not advance
    /// during scan CPU work), and the commit-to-visible freshness probe
    /// (§8) stamped at the moment results are handed to the caller.
    fn record_scan(
        &self,
        table: TableId,
        stats: &ScanStats,
        scan_start: Option<Timestamp>,
        visible_ts: &[Timestamp],
    ) {
        let m = obs::global();
        m.counter("scan.calls").inc();
        m.counter("scan.fragments_total")
            .add(stats.fragments_total as u64);
        m.counter("scan.pruned_by_stats")
            .add(stats.pruned_by_stats as u64);
        m.counter("scan.pruned_by_bloom")
            .add(stats.pruned_by_bloom as u64);
        m.counter("scan.tails_scanned")
            .add(stats.tails_scanned as u64);
        m.counter("scan.zones_total").add(stats.zones_total as u64);
        m.counter("scan.zones_pruned")
            .add(stats.zones_pruned as u64);
        m.counter("scan.rows_scanned").add(stats.rows_scanned);
        m.counter("scan.rows_matched").add(stats.rows_matched);
        if self.cache.is_some() {
            m.counter("scan.cache.hits").add(stats.cache_hits);
            m.counter("scan.cache.misses").add(stats.cache_misses);
        }
        if let Some(tt) = &self.tt {
            let end = tt.now().latest;
            if let Some(start) = scan_start {
                obs::Span::begin("scan", start).end(end);
            }
            if let Some(probe) = &self.probe {
                probe.observe(table, visible_ts.iter().copied(), end);
            }
        }
    }

    /// Checks the WOS fragment's on-file bloom filter against every
    /// required point predicate on a partition/clustering column. Reads
    /// only the footer + bloom record, not the data (§5.4.4).
    fn bloom_may_match(
        &self,
        schema: &Schema,
        spec: &FragmentReadSpec,
        predicate: &Expr,
    ) -> VortexResult<bool> {
        // Which columns does the bloom filter cover?
        let mut key_cols: Vec<&str> = Vec::new();
        if let Some(p) = &schema.partition {
            key_cols.push(&p.column);
        }
        for c in &schema.clustering {
            if !key_cols.contains(&c.as_str()) {
                key_cols.push(c);
            }
        }
        let points: Vec<(&str, &Value)> = key_cols
            .iter()
            .filter_map(|c| predicate.required_point(c).map(|v| (*c, v)))
            .collect();
        if points.is_empty() {
            return Ok(true); // nothing bloom can decide
        }
        let Some(bloom) = self.read_fragment_bloom(spec)? else {
            return Ok(true); // unfinalized / no footer: keep
        };
        for (_, v) in points {
            if !bloom.may_contain(&v.encode_key()) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Reads the bloom filter of a finalized WOS fragment via two ranged
    /// reads (footer, then bloom record) without touching row data.
    fn read_fragment_bloom(
        &self,
        spec: &FragmentReadSpec,
    ) -> VortexResult<Option<vortex_common::bloom::BloomFilter>> {
        let size = spec.meta.committed_size;
        if size < FOOTER_TOTAL_LEN as u64 {
            return Ok(None);
        }
        let path = &spec.meta.path;
        let bloom = with_replica(&spec.meta, &self.fleet, |cluster| {
            let tail = cluster.read(path, size - FOOTER_TOTAL_LEN as u64, FOOTER_TOTAL_LEN)?;
            let Ok(rec) = RecordHeader::from_bytes(&tail.data) else {
                return Ok(None); // closed without footer
            };
            if rec.rtype != RecordType::Footer {
                return Ok(None);
            }
            let footer = Footer::from_bytes(&tail.data[RECORD_HEADER_LEN..])?;
            let brec_head = cluster.read(path, footer.bloom_offset, RECORD_HEADER_LEN)?;
            let brec = RecordHeader::from_bytes(&brec_head.data)?;
            if brec.rtype != RecordType::Bloom {
                return Err(VortexError::CorruptData(
                    "footer bloom offset does not point at a bloom record".into(),
                ));
            }
            let payload = cluster.read(
                path,
                footer.bloom_offset + RECORD_HEADER_LEN as u64,
                brec.payload_len as usize,
            )?;
            vortex_common::bloom::BloomFilter::from_bytes(&payload.data)
                .map(Some)
                .map_err(VortexError::CorruptData)
        });
        match bloom {
            // No replica reachable: the bloom cannot decide, keep the
            // fragment (its read fails over on its own).
            Err(e) if e.is_retryable() => Ok(None),
            other => other,
        }
    }

    /// COUNT(*) with a predicate. Counting needs no column values, so an
    /// unset projection narrows to the empty set — pushed-down blocks
    /// then materialize nothing at all for matching rows.
    pub fn count(
        &self,
        table: TableId,
        snapshot: Timestamp,
        opts: &ScanOptions,
    ) -> VortexResult<u64> {
        let mut opts = opts.clone();
        if opts.projection.is_none() {
            opts.projection = Some(Vec::new());
        }
        Ok(self.scan(table, snapshot, &opts)?.stats.rows_matched)
    }

    /// Grouped aggregation over a scan. `group_by` of `None` produces a
    /// single global group.
    pub fn aggregate(
        &self,
        table: TableId,
        snapshot: Timestamp,
        opts: &ScanOptions,
        group_by: Option<&str>,
        aggs: &[(AggKind, Option<&str>)],
    ) -> VortexResult<Vec<(Option<Value>, Vec<Value>)>> {
        // Aggregation touches only the group and aggregate columns; when
        // the caller didn't project explicitly, narrow to those so
        // pushed-down blocks skip decoding everything else.
        let mut opts = opts.clone();
        if opts.projection.is_none() {
            let mut cols: Vec<String> = Vec::new();
            if let Some(g) = group_by {
                cols.push(g.to_string());
            }
            for (_, c) in aggs {
                if let Some(c) = c {
                    if !cols.iter().any(|x| x == c) {
                        cols.push(c.to_string());
                    }
                }
            }
            opts.projection = Some(cols);
        }
        let opts = &opts;
        let result = self.scan(table, snapshot, opts)?;
        let schema = &result.schema;
        let group_idx = match group_by {
            Some(c) => Some(schema.column_index(c).ok_or_else(|| {
                VortexError::InvalidArgument(format!("unknown group column {c}"))
            })?),
            None => None,
        };
        let agg_idx: Vec<Option<usize>> = aggs
            .iter()
            .map(|(_, col)| {
                col.map(|c| {
                    schema.column_index(c).ok_or_else(|| {
                        VortexError::InvalidArgument(format!("unknown agg column {c}"))
                    })
                })
                .transpose()
            })
            .collect::<VortexResult<_>>()?;

        #[derive(Clone)]
        enum Acc {
            Count(u64),
            /// Integer-domain sum; `saw_numeric` tracks whether inputs
            /// were NUMERIC (fixed-point 1e9) so the result keeps that
            /// scale, and `saw_any` whether any non-NULL input arrived.
            SumI {
                sum: i128,
                saw_numeric: bool,
                saw_any: bool,
            },
            SumF(f64),
            Min(Option<Value>),
            Max(Option<Value>),
            Avg {
                sum: f64,
                n: u64,
            },
        }
        let fresh = |kind: AggKind| match kind {
            AggKind::Count => Acc::Count(0),
            AggKind::Sum => Acc::SumI {
                sum: 0,
                saw_numeric: false,
                saw_any: false,
            },
            AggKind::Min => Acc::Min(None),
            AggKind::Max => Acc::Max(None),
            AggKind::Avg => Acc::Avg { sum: 0.0, n: 0 },
        };
        let mut groups: std::collections::BTreeMap<Vec<u8>, (Option<Value>, Vec<Acc>)> =
            Default::default();
        for (_, row) in &result.rows {
            let gval = group_idx.map(|i| row.values[i].clone());
            let gkey = gval.as_ref().map(|v| v.encode_key()).unwrap_or_default();
            let entry = groups
                .entry(gkey)
                .or_insert_with(|| (gval.clone(), aggs.iter().map(|(k, _)| fresh(*k)).collect()));
            for (slot, ((kind, _), idx)) in aggs.iter().zip(agg_idx.iter()).enumerate() {
                let acc = &mut entry.1[slot];
                match kind {
                    AggKind::Count => {
                        if let Acc::Count(c) = acc {
                            *c += 1;
                        }
                    }
                    AggKind::Sum => {
                        let v = &row.values[idx.expect("SUM needs a column")];
                        match (acc, v) {
                            (Acc::SumI { sum, saw_any, .. }, Value::Int64(i)) => {
                                *sum += *i as i128;
                                *saw_any = true;
                            }
                            (
                                Acc::SumI {
                                    sum,
                                    saw_numeric,
                                    saw_any,
                                },
                                Value::Numeric(n),
                            ) => {
                                *sum += n;
                                *saw_numeric = true;
                                *saw_any = true;
                            }
                            (acc @ Acc::SumI { .. }, Value::Float64(f)) => {
                                let base = if let Acc::SumI {
                                    sum, saw_numeric, ..
                                } = acc
                                {
                                    if *saw_numeric {
                                        *sum as f64 / 1e9
                                    } else {
                                        *sum as f64
                                    }
                                } else {
                                    0.0
                                };
                                *acc = Acc::SumF(base + f);
                            }
                            (Acc::SumF(s), Value::Float64(f)) => *s += f,
                            (Acc::SumF(s), Value::Int64(i)) => *s += *i as f64,
                            (Acc::SumF(s), Value::Numeric(n)) => *s += *n as f64 / 1e9,
                            _ => {} // NULLs and non-numerics ignored
                        }
                    }
                    AggKind::Min => {
                        let v = &row.values[idx.expect("MIN needs a column")];
                        if !v.is_null() {
                            if let Acc::Min(m) = acc {
                                let better = m
                                    .as_ref()
                                    .map(|cur| v.total_cmp(cur).is_lt())
                                    .unwrap_or(true);
                                if better {
                                    *m = Some(v.clone());
                                }
                            }
                        }
                    }
                    AggKind::Max => {
                        let v = &row.values[idx.expect("MAX needs a column")];
                        if !v.is_null() {
                            if let Acc::Max(m) = acc {
                                let better = m
                                    .as_ref()
                                    .map(|cur| v.total_cmp(cur).is_gt())
                                    .unwrap_or(true);
                                if better {
                                    *m = Some(v.clone());
                                }
                            }
                        }
                    }
                    AggKind::Avg => {
                        let v = &row.values[idx.expect("AVG needs a column")];
                        if let Acc::Avg { sum, n } = acc {
                            match v {
                                Value::Int64(i) => {
                                    *sum += *i as f64;
                                    *n += 1;
                                }
                                Value::Float64(f) => {
                                    *sum += f;
                                    *n += 1;
                                }
                                Value::Numeric(x) => {
                                    *sum += *x as f64 / 1e9;
                                    *n += 1;
                                }
                                _ => {} // NULLs and non-numerics ignored
                            }
                        }
                    }
                }
            }
        }
        // SQL: a global aggregate over zero rows still yields one row —
        // COUNT(*) = 0, SUM/MIN/MAX = NULL.
        if group_idx.is_none() && groups.is_empty() {
            let vals = aggs
                .iter()
                .map(|(k, _)| match k {
                    AggKind::Count => Value::Int64(0),
                    _ => Value::Null,
                })
                .collect();
            return Ok(vec![(None, vals)]);
        }
        Ok(groups
            .into_values()
            .map(|(gval, accs)| {
                let vals = accs
                    .into_iter()
                    .map(|a| match a {
                        Acc::Count(c) => Value::Int64(c as i64),
                        Acc::SumI { saw_any: false, .. } => Value::Null, // SUM of no rows
                        Acc::SumI {
                            sum,
                            saw_numeric: true,
                            ..
                        } => Value::Numeric(sum),
                        Acc::SumI { sum, .. } => match i64::try_from(sum) {
                            Ok(v) => Value::Int64(v),
                            Err(_) => Value::Float64(sum as f64), // beyond i64
                        },
                        Acc::SumF(f) => Value::Float64(f),
                        Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
                        Acc::Avg { n: 0, .. } => Value::Null, // AVG of no rows
                        Acc::Avg { sum, n } => Value::Float64(sum / n as f64),
                    })
                    .collect();
                (gval, vals)
            })
            .collect())
    }
}
