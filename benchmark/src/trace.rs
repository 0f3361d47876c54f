//! Timing substrate of the benchmark: the one wall clock, the sample
//! recorder every driver writes into, the in-memory span buffer of a
//! traced run, and the arithmetic on top (percentiles that state their
//! sample count, span self time, the JSON the trace file is written in).
//!
//! Everything is measured from outside the program: a span brackets a
//! call into a layer's public function, nothing inside the crates under
//! test is touched.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host::{SpeedLog, SpeedSampler};

/// The benchmark's only clock read. Every timing in every module goes
/// through here, so "which clock" has one answer: `std::time::Instant`,
/// wall time, never the region's virtual clock.
pub fn wall_now() -> Instant {
    Instant::now()
}

/// The benchmark's median — every `*_p50_*` metric and every "median" it
/// prints: the mean of the central fifth of the order
/// statistics (ranks 40 %..60 %). Up to ten samples this is the textbook
/// median. Beyond that it averages the samples around the middle: the
/// scripts issue deterministic work of varying size (a tail that grows
/// and resets), so a plain median is one particular operation's time, as
/// noisy as any single timing; the central mean is steadier and estimates
/// the same quantity. `None` when empty.
pub fn p50(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    // floor(0.4 n) + ceil(0.6 n) == n: the slice is centred.
    let (lo, hi) = (s.len() * 2 / 5, (s.len() * 3).div_ceil(5));
    Some(s[lo..hi].iter().sum::<f64>() / (hi - lo) as f64)
}

/// Nearest-rank `q`-quantile (`q` in 0..=1) of unsorted samples: the
/// smallest sample with at least `q` of the samples at or below it.
/// `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

/// One recorded interval. `parent` indexes the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `ros.open`.
    pub name: &'static str,
    /// The root operation this span belongs to, e.g. `q_point`.
    pub op: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Records one benchmark run: timed samples, plain values, op counts and
/// (in a traced run) spans. While it lives a [`SpeedSampler`] measures the
/// machine's speed beside it; [`Recorder::finish`] turns the raw wall
/// intervals into a [`Recording`] that hands out scaled durations.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    sampler: SpeedSampler,
    /// Prefix of every series recorded from now on (`hybrid.q_agg`), so
    /// two stages issuing the same operation keep separate samples.
    stage: &'static str,
    /// Per stage-qualified series.
    timings: BTreeMap<String, Vec<Timing>>,
    /// Plain values (counts, bytes), per stage-qualified series.
    notes: BTreeMap<String, Vec<f64>>,
    /// `Some` in a traced run.
    spans: Option<Vec<Span>>,
    open: Vec<usize>,
    /// Timed sections currently open, and top-level ones begun so far.
    depth: usize,
    roots: u64,
    /// Set while a top-level section runs that keeps no spans: a traced
    /// run records spans for every other one, so the two halves of a
    /// series give the cost of recording (`trace.overhead_pct`).
    muted: bool,
    /// Operations issued against the program.
    pub attempted: u64,
    /// Operations that errored or disagreed with the reference.
    pub failed: u64,
}

impl Recorder {
    /// A recorder; `traced` turns the span buffer on.
    pub fn new(traced: bool) -> Self {
        let origin = wall_now();
        Recorder {
            origin,
            sampler: SpeedSampler::start(origin),
            stage: "",
            timings: BTreeMap::new(),
            notes: BTreeMap::new(),
            spans: traced.then(Vec::new),
            open: Vec::new(),
            depth: 0,
            roots: 0,
            muted: false,
            attempted: 0,
            failed: 0,
        }
    }

    /// Names the stage whose operations follow.
    pub fn set_stage(&mut self, stage: &'static str) {
        self.stage = stage;
    }

    fn qualified(&self, series: &str) -> String {
        if self.stage.is_empty() {
            series.to_string()
        } else {
            format!("{}.{series}", self.stage)
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Adds one plain value (a count, a byte total) to the current
    /// stage's `series`.
    pub fn note(&mut self, series: &str, value: f64) {
        let key = self.qualified(series);
        self.notes.entry(key).or_default().push(value);
    }

    /// Records `[start_ns, end_ns]` as one sample of `series`: for
    /// intervals that span several operations (a stage, ack → visible).
    pub fn interval(&mut self, series: &str, start_ns: u64, end_ns: u64) {
        self.push_timing(series, start_ns, end_ns, false);
    }

    fn push_timing(&mut self, series: &str, start_ns: u64, end_ns: u64, spans_kept: bool) {
        let key = self.qualified(series);
        self.timings.entry(key).or_default().push(Timing {
            start_ns,
            end_ns,
            spans_kept,
        });
    }

    /// Times `f` as one sample of `series` and returns its value. In a
    /// traced run the interval is also kept as a span named `series`,
    /// child of whatever span is open.
    pub fn timed<T>(&mut self, series: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if self.depth == 0 {
            self.roots += 1;
            self.muted = self.roots.is_multiple_of(2);
        }
        self.depth += 1;
        let id = self.begin(series);
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.end(id);
        self.depth -= 1;
        if self.depth == 0 {
            self.muted = false;
        }
        self.push_timing(series, start, end, id.is_some());
        out
    }

    /// One operation against the program: timed like [`Recorder::timed`],
    /// counted as attempted, and as failed when `f` reports an error or a
    /// mismatch with the reference (`Ok(false)`).
    pub fn op(
        &mut self,
        series: &'static str,
        f: impl FnOnce(&mut Self) -> Result<bool, String>,
    ) -> bool {
        self.attempted += 1;
        let ok = match self.timed(series, f) {
            Ok(true) => true,
            Ok(false) => {
                eprintln!("FAILED {series}: result disagrees with the reference");
                false
            }
            Err(e) => {
                eprintln!("FAILED {series}: {e}");
                false
            }
        };
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Opens a span (no-op handle when untraced).
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if self.muted {
            return None;
        }
        let start_ns = self.now_ns();
        let spans = self.spans.as_mut()?;
        let parent = self.open.last().copied();
        let op = parent.map_or(name, |p| spans[p].op);
        spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(spans.len() - 1);
        Some(spans.len() - 1)
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, id: Option<usize>) {
        let end_ns = self.now_ns();
        let (Some(id), Some(spans)) = (id, self.spans.as_mut()) else {
            return;
        };
        spans[id].end_ns = end_ns;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Runs `f` under a span without recording a sample.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Stops the speed sampler and closes the recording.
    pub fn finish(self) -> Recording {
        Recording {
            speed: self.sampler.finish(),
            timings: self.timings,
            notes: self.notes,
            spans: self.spans.unwrap_or_default(),
            attempted: self.attempted,
            failed: self.failed,
        }
    }
}

/// One sample of a timed series: raw wall nanoseconds since the
/// recorder's origin, and whether spans were kept while it ran.
#[derive(Debug, Clone, Copy)]
struct Timing {
    start_ns: u64,
    end_ns: u64,
    spans_kept: bool,
}

/// A finished run: what [`Recorder`] kept, with durations scaled to
/// reference speed by the run's [`SpeedLog`] (see `host.rs`).
#[derive(Debug, Default)]
pub struct Recording {
    speed: SpeedLog,
    timings: BTreeMap<String, Vec<Timing>>,
    notes: BTreeMap<String, Vec<f64>>,
    /// The recorded spans (empty when untraced), raw wall nanoseconds.
    pub spans: Vec<Span>,
    /// Operations issued against the program.
    pub attempted: u64,
    /// Operations that errored or disagreed with the reference.
    pub failed: u64,
}

impl Recording {
    /// The wall interval `[a_ns, b_ns]` in microseconds at reference
    /// speed, the sampler's own slices of it left out.
    pub fn scaled_us(&self, a_ns: u64, b_ns: u64) -> f64 {
        self.speed.scaled_ns(a_ns, b_ns) / 1_000.0
    }

    /// Median speed of the machine over the run (1.0 = reference).
    pub fn host_speed(&self) -> f64 {
        self.speed.median_speed()
    }

    /// The plain values of a stage-qualified series.
    pub fn notes(&self, qualified: &str) -> &[f64] {
        self.notes.get(qualified).map_or(&[], Vec::as_slice)
    }

    /// Durations (microseconds at reference speed) of a stage-qualified
    /// timed series, in recording order; empty if never recorded.
    pub fn durations_us(&self, qualified: &str) -> Vec<f64> {
        self.timings.get(qualified).map_or(Vec::new(), |v| {
            v.iter()
                .map(|t| self.scaled_us(t.start_ns, t.end_ns))
                .collect()
        })
    }

    /// A traced run's durations of a series, split into the samples taken
    /// with spans being kept and those taken without.
    pub fn durations_by_tracing(&self, qualified: &str) -> (Vec<f64>, Vec<f64>) {
        let (mut with, mut without) = (Vec::new(), Vec::new());
        for t in self.timings.get(qualified).map_or(&[][..], Vec::as_slice) {
            let us = self.scaled_us(t.start_ns, t.end_ns);
            if t.spans_kept {
                with.push(us);
            } else {
                without.push(us);
            }
        }
        (with, without)
    }

    /// Every timed series, by stage-qualified name.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.timings.keys().map(String::as_str)
    }

    /// Sum of a timed series, microseconds at reference speed.
    pub fn total_us(&self, qualified: &str) -> f64 {
        self.durations_us(qualified).iter().sum()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children of one parent are sequential
/// here, so their durations add).
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as i64)
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= (s.end_ns - s.start_ns) as i64;
        }
    }
    own
}

/// Median self time in microseconds per `(op, name)`, over the traced
/// executions of each op.
pub fn self_time_medians_us(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), f64> {
    let own = self_times_ns(spans);
    let mut by: BTreeMap<(&'static str, &'static str), Vec<f64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        by.entry((s.op, s.name))
            .or_default()
            .push(ns as f64 / 1_000.0);
    }
    by.into_iter()
        .filter_map(|(k, v)| Some((k, p50(&v)?)))
        .collect()
}

/// Escapes a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The span file: one JSON object, spans in recording order.
pub fn spans_to_json(workload: &str, spans: &[Span]) -> String {
    let mut out = format!(
        "{{\"workload\": \"{}\", \"clock\": \"wall\", \"unit\": \"ns\", \"spans\": [\n",
        json_escape(workload)
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"op\": \"{}\", \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}}}{}\n",
            json_escape(s.name),
            json_escape(s.op),
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank_and_p50_is_the_central_mean() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), Some(50.0));
        assert_eq!(quantile(&s, 0.99), Some(99.0));
        assert_eq!(quantile(&s, 1.0), Some(100.0));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        // p50: the textbook median up to ten samples, then the mean of
        // the central fifth.
        assert_eq!(p50(&[7.0]), Some(7.0));
        assert_eq!(p50(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(p50(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(p50(&ten), Some(5.5));
        assert_eq!(p50(&s), Some(50.5), "mean of 41..=60");
        let mut skewed = ten.clone();
        skewed[9] = 1e9;
        assert_eq!(p50(&skewed), Some(5.5), "outliers carry no weight");
        assert_eq!(p50(&[]), None);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let sp = |name, parent, start_ns, end_ns| Span {
            name,
            op: "q",
            parent,
            start_ns,
            end_ns,
        };
        // root 0..100 { a 10..40 { a1 15..25 }, b 50..90 }
        let spans = vec![
            sp("root", None, 0, 100),
            sp("a", Some(0), 10, 40),
            sp("a1", Some(1), 15, 25),
            sp("b", Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let total: i64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times sum to the root's duration");
        let med = self_time_medians_us(&spans);
        assert_eq!(med[&("q", "b")], 0.04);
    }

    #[test]
    fn recorder_nests_spans_and_counts_ops() {
        let mut r = Recorder::new(true);
        let ok = r.op("q_point", |r| {
            r.span("sms.list", |_| ());
            r.span("ros.open", |r| r.span("colossus.read", |_| ()));
            Ok(true)
        });
        assert!(ok);
        assert!(!r.op("q_agg", |_| Ok(false)));
        assert!(!r.op("q_agg", |_| Err("boom".into())));
        assert_eq!((r.attempted, r.failed), (3, 2));
        r.set_stage("hybrid");
        r.op("q_agg", |r| {
            r.note("rows", 7.0);
            Ok(true)
        });
        let r = r.finish();
        assert_eq!(r.durations_us("q_point").len(), 1);
        assert_eq!(r.durations_us("q_agg").len(), 2);
        assert_eq!(
            r.durations_us("hybrid.q_agg").len(),
            1,
            "stages keep separate samples"
        );
        assert_eq!(r.notes("hybrid.rows"), [7.0]);
        assert!(r.host_speed() > 0.0);
        let names: Vec<_> = r.spans.iter().map(|s| (s.name, s.op, s.parent)).collect();
        assert_eq!(
            names[..4],
            [
                ("q_point", "q_point", None),
                ("sms.list", "q_point", Some(0)),
                ("ros.open", "q_point", Some(0)),
                ("colossus.read", "q_point", Some(2)),
            ]
        );
        // Untraced: same samples, no spans.
        let mut u = Recorder::new(false);
        u.timed("x", |_| ());
        let u = u.finish();
        assert_eq!(u.durations_us("x").len(), 1);
        assert!(u.spans.is_empty());
    }

    #[test]
    fn json_escaping_and_span_file_shape() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        let spans = vec![Span {
            name: "ros.open",
            op: "q_point",
            parent: None,
            start_ns: 5,
            end_ns: 9,
        }];
        let j = spans_to_json("query_ros", &spans);
        assert!(j.starts_with("{\"workload\": \"query_ros\""));
        assert!(j.contains("\"parent\": null, \"start_ns\": 5, \"end_ns\": 9}"));
        assert!(j.trim_end().ends_with("]}"));
    }
}
