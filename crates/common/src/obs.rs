//! Unified observability: one pane of glass for the whole engine.
//!
//! The paper's headline claim — sub-second data freshness at multi-GB/s
//! ingest (§1, §8) — is only meaningful if commit-to-visible latency can
//! be *measured* end to end. This module is the measurement substrate:
//!
//! - a process-wide [`Registry`] of named [`Counter`]s, [`Gauge`]s, and
//!   bounded-bucket [`Histogram`]s (p50/p90/p95/p99/max);
//! - [`Span`]s: lightweight structured timers over **virtual** time,
//!   threaded through the append path (client → RPC → Stream Server →
//!   WAL → Colossus replica write → ack, §4.2.2) and the scan path
//!   (list → prune → parallel fragment reads → reconciled tail, §7.2);
//! - the handle idiom: a hot path never names a metric. A type with a
//!   constructor interns its `Arc` handles there (`Shard::new`), a free
//!   function keeps a [`Lazy`] in a `static`;
//! - a [`FreshnessProbe`] that stamps each appended record's commit
//!   timestamp and measures commit-to-visible latency at the query
//!   engine (§8), watermarked so retries and ambiguous acks never
//!   double-count a row;
//! - a [`MetricsSnapshot`] exporter (JSON + aligned text table) that
//!   also folds in per-method RPC stats and crash-point fires, so RPC
//!   histograms and chaos counters stop being islands.
//!
//! Everything here is deterministic under a seed and uses virtual /
//! TrueTime timestamps exclusively — nothing reads the wall clock (the
//! repo's clock discipline, enforced by vortex-lint).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::ids::TableId;
use crate::rpc::RpcMetrics;
use crate::truetime::Timestamp;

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins signed gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Bounded-bucket histogram
// ---------------------------------------------------------------------------

/// Exact buckets below this value; log-scale sub-buckets above.
const LINEAR_BUCKETS: usize = 16;
/// Sub-buckets per power of two (relative error ≤ 1/8 above 16).
const SUB_BUCKETS: usize = 8;
/// Total bucket count: 16 exact + 8 per octave for octaves 4..=63.
const NUM_BUCKETS: usize = LINEAR_BUCKETS + (64 - 4) * SUB_BUCKETS;

/// Bucket index for a value: exact below [`LINEAR_BUCKETS`], then
/// HDR-style (octave, 3-bit mantissa) above.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= 4
    let sub = ((v >> (msb - 3)) & 0x7) as usize;
    LINEAR_BUCKETS + (msb - 4) * SUB_BUCKETS + sub
}

/// Inclusive upper bound of a bucket (the value reported for any
/// percentile falling inside it — a deterministic ≤ 12.5% overestimate).
fn bucket_upper(idx: usize) -> u64 {
    if idx < LINEAR_BUCKETS {
        return idx as u64;
    }
    let msb = 4 + (idx - LINEAR_BUCKETS) / SUB_BUCKETS;
    let sub = (idx - LINEAR_BUCKETS) % SUB_BUCKETS;
    let base = 1u128 << msb;
    let hi = base + (sub as u128 + 1) * (base >> 3) - 1;
    hi.min(u64::MAX as u128) as u64
}

#[derive(Debug)]
struct HistInner {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// A bounded-memory latency histogram: fixed bucket layout, exact
/// count/sum/min/max, percentiles read from bucket upper bounds. All
/// percentile output is deterministic for a given record sequence.
#[derive(Debug)]
pub struct Histogram {
    inner: Mutex<HistInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            inner: Mutex::new(HistInner {
                counts: vec![0; NUM_BUCKETS],
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            }),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical observations.
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let mut h = self.inner.lock();
        h.counts[bucket_index(v)] += n;
        h.count += n;
        h.sum = h.sum.saturating_add(v.saturating_mul(n));
        h.min = h.min.min(v);
        h.max = h.max.max(v);
    }

    /// A point-in-time summary of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = self.inner.lock();
        if h.count == 0 {
            return HistogramSnapshot::default();
        }
        // Nearest-rank percentile over the bucket cumulative counts,
        // clamped into [min, max] so tiny sample sets stay exact-ish.
        let pct = |p: u64| -> u64 {
            let rank = (h.count * p).div_ceil(100).clamp(1, h.count);
            let mut seen = 0u64;
            for (i, c) in h.counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_upper(i).clamp(h.min, h.max);
                }
            }
            h.max
        };
        HistogramSnapshot {
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            p50: pct(50),
            p90: pct(90),
            p95: pct(95),
            p99: pct(99),
        }
    }
}

/// Summary of a [`Histogram`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations (saturating).
    pub sum: u64,
    /// Minimum observation (0 when empty).
    pub min: u64,
    /// Maximum observation.
    pub max: u64,
    /// 50th percentile (bucket upper bound).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl std::fmt::Display for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} p50={} p90={} p99={} max={}",
            self.count, self.p50, self.p90, self.p99, self.max
        )
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A named-metric registry. Instantiable for tests; the engine shares
/// the process-wide [`global`] instance (one pane of glass, mirroring
/// the crash-point registry's process-global design).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// The `span.<name>.us` histogram a [`Span`] over `name` records into.
    pub fn span(&self, name: &str) -> Arc<Histogram> {
        self.histogram(&format!("span.{name}.us"))
    }

    /// Snapshots every metric in the registry, plus the process-wide
    /// crash-point fire total (so chaos counters share the pane).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            rpc: BTreeMap::new(),
            crash_point_fires: crate::crashpoints::total_fires(),
        }
    }
}

/// The handle registered under `name`, a fresh zero the first time. This
/// is the lookup — a lock, a string compare per tree level, an `Arc`
/// clone — that holding a handle keeps off hot paths.
fn intern<T: Default>(metrics: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut metrics = metrics.lock();
    if let Some(known) = metrics.get(name) {
        return Arc::clone(known);
    }
    Arc::clone(metrics.entry(name.to_string()).or_default())
}

/// The process-wide registry every component records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A lightweight structured span over **virtual** time: explicit begin /
/// end timestamps (no wall clock), recorded on end into the histogram
/// [`Registry::span`] interned for its name. Durations of 0 are normal
/// under zero-latency profiles and keep deterministic runs deterministic.
#[derive(Debug)]
#[must_use = "a span records nothing until `end` is called"]
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Timestamp,
}

impl<'a> Span<'a> {
    /// Opens a span at `start` (virtual / TrueTime-derived).
    pub fn begin(hist: &'a Histogram, start: Timestamp) -> Self {
        Span { hist, start }
    }

    /// Closes the span at `end`, recording its duration.
    pub fn end(self, end: Timestamp) {
        self.hist
            .record(end.micros().saturating_sub(self.start.micros()));
    }
}

/// A metric of the [`global`] registry, interned the first time it is
/// touched: the handle a free function keeps in a `static`, so that
/// from then on recording is one load and the atomic itself.
///
/// ```
/// use vortex_common::obs::{Counter, Lazy, Registry};
/// static PARSED: Lazy<Counter> = Lazy::new("doc.blocks_parsed", Registry::counter);
/// PARSED.inc();
/// ```
#[derive(Debug)]
pub struct Lazy<T> {
    name: &'static str,
    intern: fn(&Registry, &str) -> Arc<T>,
    handle: OnceLock<Arc<T>>,
}

impl<T> Lazy<T> {
    /// A handle for `name`, interned on first use by `intern`
    /// ([`Registry::counter`], [`Registry::gauge`], [`Registry::histogram`]
    /// or [`Registry::span`]).
    pub const fn new(name: &'static str, intern: fn(&Registry, &str) -> Arc<T>) -> Self {
        Lazy {
            name,
            intern,
            handle: OnceLock::new(),
        }
    }
}

impl<T> std::ops::Deref for Lazy<T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.handle
            .get_or_init(|| (self.intern)(global(), self.name))
    }
}

// ---------------------------------------------------------------------------
// Group-commit metrics (shard-per-core Stream Server)
// ---------------------------------------------------------------------------

/// Histogram: appends coalesced into each shard group commit. The knee
/// of the saturation bench shows up here as the mean batch size climbing
/// above one.
pub const GROUP_COMMIT_APPENDS: &str = "server.group_commit.appends";
/// Histogram: payload bytes per shard group commit.
pub const GROUP_COMMIT_BYTES: &str = "server.group_commit.bytes";
/// Counter: group commits executed across all shards.
pub const GROUP_COMMIT_GROUPS: &str = "server.group_commit.groups";
/// Counter: WAL events folded into record-aligned group WAL appends.
pub const GROUP_COMMIT_WAL_EVENTS: &str = "server.group_commit.wal_events";
/// Counter: appends shed at a full shard mailbox (backpressure).
pub const SHARD_MAILBOX_SHED: &str = "server.shard.mailbox_shed";
/// Per-shard append counter prefix; shards intern
/// `"{prefix}{idx:02}.appends"` once at spawn so the hot path never
/// formats a metric name.
pub const SHARD_APPENDS_PREFIX: &str = "server.shard";

// ---------------------------------------------------------------------------
// Freshness probe
// ---------------------------------------------------------------------------

/// The end-to-end freshness probe (§8): measures commit-to-visible
/// latency at the query engine.
///
/// Every appended record carries a server-assigned TrueTime commit
/// timestamp. When a scan returns, the engine offers each visible row's
/// commit timestamp together with the scan's observation time; rows at
/// or below the per-table watermark (the max commit timestamp already
/// observed) are skipped, so client retries, ambiguous acks resolved by
/// offset dedup, and repeated polling scans never count a row twice.
#[derive(Debug)]
pub struct FreshnessProbe {
    watermarks: Mutex<BTreeMap<TableId, Timestamp>>,
    hist: Arc<Histogram>,
    observed: Arc<Counter>,
}

/// Registry name of the commit-to-visible latency histogram.
pub const FRESHNESS_HISTOGRAM: &str = "freshness.commit_to_visible_us";
/// Registry name of the unique-rows-observed counter.
pub const FRESHNESS_ROWS_OBSERVED: &str = "freshness.rows_observed";

impl FreshnessProbe {
    /// A probe recording into `registry` under [`FRESHNESS_HISTOGRAM`]
    /// and [`FRESHNESS_ROWS_OBSERVED`].
    pub fn new(registry: &Registry) -> Self {
        FreshnessProbe {
            watermarks: Mutex::new(BTreeMap::new()),
            hist: registry.histogram(FRESHNESS_HISTOGRAM),
            observed: registry.counter(FRESHNESS_ROWS_OBSERVED),
        }
    }

    /// The newest commit timestamp [`FreshnessProbe::observe`] has counted
    /// for `table` (`Timestamp::MIN` before the first). It only rises, and
    /// `observe` drops what is not past it: a scan that read it when it
    /// began need not offer rows committed at or before it.
    pub fn seen_through(&self, table: TableId) -> Timestamp {
        // lint:allow(L011, once per scan, held for one map lookup; `observe` takes the same lock at the scan's end)
        let seen = self.watermarks.lock().get(&table).copied();
        seen.unwrap_or(Timestamp::MIN)
    }

    /// Offers the commit timestamps of every row visible to one scan of
    /// `table`, observed at `visible_at`. Returns how many rows were
    /// *newly* observed (above the prior watermark). Serialized on the
    /// probe's lock, so concurrent scans cannot double-count.
    pub fn observe<I>(&self, table: TableId, commit_ts: I, visible_at: Timestamp) -> u64
    where
        I: IntoIterator<Item = Timestamp>,
    {
        let mut wm = self.watermarks.lock();
        let prior = wm.get(&table).copied().unwrap_or(Timestamp::MIN);
        let mut newest = prior;
        let mut fresh = 0u64;
        for ts in commit_ts {
            if ts > prior {
                // Saturating: TrueTime issuance can stamp a record a hair
                // past `now().latest` while the virtual clock stands
                // still; freshness is then 0, never negative.
                self.hist
                    .record(visible_at.micros().saturating_sub(ts.micros()));
                fresh += 1;
                newest = newest.max(ts);
            }
        }
        if newest > prior {
            wm.insert(table, newest);
        }
        self.observed.add(fresh);
        fresh
    }

    /// The histogram and the unique-row counter read as one consistent
    /// pair: taken under the lock [`FreshnessProbe::observe`] holds
    /// while it feeds both, so no scan is ever half-counted (two separate
    /// loads can land between a scan's `hist.record` and `observed.add`).
    pub fn snapshot(&self) -> (HistogramSnapshot, u64) {
        // lint:allow(L011, operator/test accessor, never called by a scan; reached only through a name-collision chain)
        let _quiesced = self.watermarks.lock();
        (self.hist.snapshot(), self.observed.get())
    }

    /// Snapshot of the commit-to-visible histogram.
    pub fn histogram(&self) -> HistogramSnapshot {
        self.hist.snapshot()
    }

    /// Unique rows observed across all tables.
    pub fn rows_observed(&self) -> u64 {
        self.observed.get()
    }
}

// ---------------------------------------------------------------------------
// Unified snapshot + exporters
// ---------------------------------------------------------------------------

/// Per-method RPC summary folded into a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct RpcMethodSummary {
    /// Calls issued.
    pub calls: u64,
    /// Attempts across all calls (excess over `calls` = retries).
    pub attempts: u64,
    /// Calls that returned `Ok`.
    pub ok: u64,
    /// Calls that returned `Err`.
    pub err: u64,
    /// Attempts failed by injected pre-execution unavailability.
    pub injected_unavailable: u64,
    /// Successful executions whose reply was injected-lost.
    pub injected_reply_lost: u64,
    /// Calls that exhausted their budget.
    pub deadline_exceeded: u64,
    /// Virtual latency of the method's completed calls.
    pub latency: HistogramSnapshot,
}

/// One unified, exportable view over counters, gauges, histograms,
/// per-method RPC stats, and crash-point fires.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// RPC per-method summaries keyed `"<channel>.<method>"`.
    pub rpc: BTreeMap<String, RpcMethodSummary>,
    /// Total crash-point fires in this process.
    pub crash_point_fires: u64,
}

impl MetricsSnapshot {
    /// Folds one RPC channel's per-method metrics into the snapshot
    /// under `"<channel>.<method>"` keys.
    pub fn add_rpc(&mut self, channel: &str, metrics: &RpcMetrics) {
        for (method, stats) in metrics.snapshot() {
            self.rpc.insert(
                format!("{channel}.{method}"),
                RpcMethodSummary {
                    calls: stats.calls.get(),
                    attempts: stats.attempts.get(),
                    ok: stats.ok.get(),
                    err: stats.err.get(),
                    injected_unavailable: stats.injected_unavailable.get(),
                    injected_reply_lost: stats.injected_reply_lost.get(),
                    deadline_exceeded: stats.deadline_exceeded.get(),
                    latency: stats.latency.snapshot(),
                },
            );
        }
    }

    /// Serializes the snapshot as a single JSON object (hand-rolled; the
    /// workspace carries no serde).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => "\\\"".chars().collect::<Vec<_>>(),
                    '\\' => "\\\\".chars().collect(),
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                    c => vec![c],
                })
                .collect()
        }
        let mut out = String::from("{");
        out.push_str("\"counters\":{");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{v}", esc(k)));
        }
        out.push_str("},\"gauges\":{");
        let mut first = true;
        for (k, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{v}", esc(k)));
        }
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for (k, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                 \"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{}}}",
                esc(k),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p90,
                h.p95,
                h.p99
            ));
        }
        out.push_str("},\"rpc\":{");
        let mut first = true;
        for (k, m) in &self.rpc {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{}\":{{\"calls\":{},\"attempts\":{},\"ok\":{},\"err\":{},\
                 \"injected_unavailable\":{},\"injected_reply_lost\":{},\
                 \"deadline_exceeded\":{},\"p50\":{},\"p90\":{},\"p95\":{},\
                 \"p99\":{},\"max\":{},\"samples\":{}}}",
                esc(k),
                m.calls,
                m.attempts,
                m.ok,
                m.err,
                m.injected_unavailable,
                m.injected_reply_lost,
                m.deadline_exceeded,
                m.latency.p50,
                m.latency.p90,
                m.latency.p95,
                m.latency.p99,
                m.latency.max,
                m.latency.count
            ));
        }
        out.push_str(&format!(
            "}},\"crash_point_fires\":{}}}",
            self.crash_point_fires
        ));
        out
    }

    /// Renders the snapshot as an aligned text table (the
    /// `examples/monitoring.rs` dashboard format).
    pub fn to_table(&self) -> String {
        let name_w = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .chain(self.rpc.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(4)
            .max(24);
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str(&format!("{:<name_w$} {:>12}\n", "counter", "value"));
            for (k, v) in &self.counters {
                out.push_str(&format!("{k:<name_w$} {v:>12}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!("{:<name_w$} {:>12}\n", "gauge", "value"));
            for (k, v) in &self.gauges {
                out.push_str(&format!("{k:<name_w$} {v:>12}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "{:<name_w$} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "histogram", "count", "p50", "p90", "p99", "max"
            ));
            for (k, h) in &self.histograms {
                out.push_str(&format!(
                    "{k:<name_w$} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                    h.count, h.p50, h.p90, h.p99, h.max
                ));
            }
        }
        if !self.rpc.is_empty() {
            out.push_str(&format!(
                "{:<name_w$} {:>10} {:>8} {:>8} {:>10} {:>10}\n",
                "rpc method", "calls", "ok", "err", "p50us", "p99us"
            ));
            for (k, m) in &self.rpc {
                out.push_str(&format!(
                    "{k:<name_w$} {:>10} {:>8} {:>8} {:>10} {:>10}\n",
                    m.calls, m.ok, m.err, m.latency.p50, m.latency.p99
                ));
            }
        }
        out.push_str(&format!(
            "{:<name_w$} {:>12}\n",
            "crash_point_fires", self.crash_point_fires
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotonic_and_covering() {
        // Every value maps to a bucket whose upper bound is >= the value
        // and within 12.5% relative error above the linear range.
        let mut prev_upper = 0;
        for idx in 0..NUM_BUCKETS {
            let hi = bucket_upper(idx);
            assert!(hi >= prev_upper, "idx {idx}");
            prev_upper = hi;
        }
        for v in [0, 1, 15, 16, 17, 31, 32, 1000, 65_535, 1 << 40, u64::MAX] {
            let idx = bucket_index(v);
            let hi = bucket_upper(idx);
            assert!(hi >= v, "v={v} idx={idx} hi={hi}");
            if v >= 16 {
                assert!(
                    (hi - v) as f64 <= v as f64 / 8.0 + 1.0,
                    "v={v} hi={hi}: > 12.5% error"
                );
            } else {
                assert_eq!(hi, v, "exact below the linear range");
            }
        }
    }

    #[test]
    fn histogram_percentiles_track_distribution() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // Bucketed nearest-rank: within one sub-bucket (12.5%) of truth.
        assert!((450..=570).contains(&s.p50), "p50={}", s.p50);
        assert!((880..=1000).contains(&s.p99), "p99={}", s.p99);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn histogram_empty_and_single() {
        let h = Histogram::default();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        h.record(42);
        let s = h.snapshot();
        assert_eq!((s.count, s.min, s.max), (1, 42, 42));
        assert_eq!(s.p50, 42, "single sample pins every percentile");
        assert_eq!(s.p99, 42);
    }

    #[test]
    fn registry_interns_and_snapshots() {
        let reg = Registry::new();
        reg.counter("a").inc();
        reg.counter("a").add(2);
        reg.gauge("g").set(-5);
        reg.histogram("h").record(100);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["a"], 3);
        assert_eq!(snap.gauges["g"], -5);
        assert_eq!(snap.histograms["h"].count, 1);
    }

    #[test]
    fn span_records_virtual_duration() {
        let reg = Registry::new();
        let stage = reg.span("test.stage");
        Span::begin(&stage, Timestamp(1_000)).end(Timestamp(3_500));
        let h = reg.histogram("span.test.stage.us").snapshot();
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 2_500);
        // Clock standing still → zero duration, not a panic.
        Span::begin(&stage, Timestamp(9_000)).end(Timestamp(9_000));
        assert_eq!(reg.histogram("span.test.stage.us").snapshot().count, 2);
    }

    #[test]
    fn freshness_probe_never_double_counts() {
        let reg = Registry::new();
        let probe = FreshnessProbe::new(&reg);
        let t = TableId::from_raw(1);
        // First scan: three rows committed at 100/200/300, visible at 500.
        let n = probe.observe(t, [100, 200, 300].map(Timestamp), Timestamp(500));
        assert_eq!(n, 3);
        // Retry / repeated poll re-surfaces the same rows: no new counts.
        let n = probe.observe(t, [100, 200, 300].map(Timestamp), Timestamp(900));
        assert_eq!(n, 0);
        assert_eq!(probe.seen_through(t), Timestamp(300));
        // A later row is counted once, against its own visibility time.
        let n = probe.observe(t, [200, 300, 400].map(Timestamp), Timestamp(900));
        assert_eq!(n, 1);
        assert_eq!(probe.seen_through(t), Timestamp(400));
        assert_eq!(probe.seen_through(TableId::from_raw(2)), Timestamp::MIN);
        assert_eq!(probe.rows_observed(), 4);
        let h = probe.histogram();
        assert_eq!(h.count, 4);
        assert_eq!(h.max, 500, "500 - 100 + the later 900 - 400");
        // Tables are independent watermarks.
        let n = probe.observe(TableId::from_raw(2), [Timestamp(100)], Timestamp(901));
        assert_eq!(n, 1);
    }

    #[test]
    fn freshness_snapshot_pair_agrees_under_concurrent_observe() {
        let reg = Registry::new();
        let probe = FreshnessProbe::new(&reg);
        let stop = std::sync::atomic::AtomicBool::new(false);
        // The reader may only start once the writer is inside its loop,
        // so every snapshot below races a live `observe`.
        let started = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                started.wait();
                let mut next = 1u64;
                loop {
                    let batch = (next..next + 64).map(Timestamp);
                    probe.observe(TableId::from_raw(1), batch, Timestamp(next + 100));
                    next += 64;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
            started.wait();
            for _ in 0..20_000 {
                let (hist, observed) = probe.snapshot();
                assert_eq!(hist.count, observed, "pair torn mid-observe");
            }
            stop.store(true, Ordering::Relaxed);
        });
        let (hist, observed) = probe.snapshot();
        assert!(observed > 0);
        assert_eq!(hist.count, observed);
    }

    #[test]
    fn freshness_probe_saturates_on_clock_skew() {
        let reg = Registry::new();
        let probe = FreshnessProbe::new(&reg);
        // Commit stamp beyond the observation time (issuance tie-break):
        // freshness clamps to zero instead of underflowing.
        let n = probe.observe(TableId::from_raw(9), [Timestamp(1_000)], Timestamp(500));
        assert_eq!(n, 1);
        assert_eq!(probe.histogram().min, 0);
    }

    #[test]
    fn snapshot_exports_json_and_table() {
        let reg = Registry::new();
        reg.counter("scan.calls").add(7);
        reg.gauge("server.hosted").set(3);
        reg.histogram("freshness.commit_to_visible_us").record(1234);
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"scan.calls\":7"), "{json}");
        assert!(json.contains("\"server.hosted\":3"), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
        assert!(json.contains("\"crash_point_fires\":"), "{json}");
        let table = snap.to_table();
        assert!(table.contains("scan.calls"), "{table}");
        assert!(table.contains("crash_point_fires"), "{table}");
        // Aligned: every non-empty line ends in a numeric column.
        for line in table.lines() {
            assert!(!line.trim().is_empty());
        }
    }

    #[test]
    fn a_lazy_handle_interns_into_the_global_registry_once() {
        static TOUCHED: Lazy<Counter> = Lazy::new("obs.test.lazy", Registry::counter);
        assert!(!global().snapshot().counters.contains_key("obs.test.lazy"));
        TOUCHED.inc();
        TOUCHED.add(2);
        assert_eq!(global().counter("obs.test.lazy").get(), 3);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        global().counter("obs.test.singleton").inc();
        assert!(global().snapshot().counters["obs.test.singleton"] >= 1);
    }
}
