//! The benchmark's names in one place: workloads (with their sizes and
//! reasons), end-to-end metrics (with units, direction and regression
//! bounds) and per-layer metrics. `BENCHMARK.json` at the repository root
//! is this module printed by `--emit-manifest`; a test keeps the two equal.

use crate::drivers::Plan;

/// Seconds one run measures (the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u32 = 10;

/// The four workloads. Every workload runs the same four-stage pipeline
/// (stream → bulk → query → hybrid); the workload decides which stage
/// carries the run and leaves the other three probe-sized, so that every
/// end-to-end metric is measured on every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Streaming, request-bound.
    IngestSmall,
    /// Batch ETL, byte-bound writes plus the optimizer.
    BulkLoadConvert,
    /// Historical analytics, read-only.
    QueryRos,
    /// Writes beside reads beside background optimisation.
    FreshHybrid,
}

/// All workloads, in the order `--smoke` and `--selfcheck` run them.
pub const WORKLOADS: [Workload; 4] = [
    Workload::IngestSmall,
    Workload::BulkLoadConvert,
    Workload::QueryRos,
    Workload::FreshHybrid,
];

impl Workload {
    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestSmall => "ingest_small",
            Workload::BulkLoadConvert => "bulk_load_convert",
            Workload::QueryRos => "query_ros",
            Workload::FreshHybrid => "fresh_hybrid",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::IngestSmall => {
                "One UNBUFFERED exactly-once stream of 16-row appends, no reads: isolates \
                 per-request cost of client, rpc, admission, server shard and WAL."
            }
            Workload::BulkLoadConvert => {
                "Five rounds of 2000-row PENDING appends, commit, convert, recluster, GC, \
                 checkpoint: byte-bound writes, the optimizer and ROS encode do the work."
            }
            Workload::QueryRos => {
                "Read-only rounds of q_agg, q_filter, q_point, q_narrow, q_export over a \
                 reclustered ROS table at one snapshot: each class loads a different read layer."
            }
            Workload::FreshHybrid => {
                "One deterministic interleave of appends, q_recent/q_point/q_agg at fresh \
                 snapshots, heartbeats and optimizer cycles: writer, reader and optimizer \
                 share WOS, SMS and Colossus."
            }
        }
    }

    /// The stage that carries this workload.
    pub fn main_stage(self) -> &'static str {
        match self {
            Workload::IngestSmall => "stream",
            Workload::BulkLoadConvert => "bulk",
            Workload::QueryRos => "query",
            Workload::FreshHybrid => "hybrid",
        }
    }

    /// Operation counts at `scale` (1.0 = [`RUN_SECONDS`] on a 2-core box).
    /// Scaling changes counts, never the structure of a stage.
    pub fn plan(self, scale: f64) -> Plan {
        let n = |base: usize, step: usize| {
            // Round to a whole number of `step`s, at least one.
            (((base as f64 * scale) / step as f64).round() as usize).max(1) * step
        };
        // Probe sizes: enough samples for a steady median, 1-3 s each.
        let probe = Plan {
            hist_rows: n(80_000, 8_000),
            stream_appends: n(24_000, 100),
            bulk_rounds: 2,
            bulk_appends: n(8, 1),
            query_rounds: n(4, 1),
            hybrid_appends: n(300, 20),
        };
        match self {
            Workload::IngestSmall => Plan {
                stream_appends: n(120_000, 100),
                ..probe
            },
            Workload::BulkLoadConvert => Plan {
                bulk_rounds: 5,
                bulk_appends: n(18, 1),
                ..probe
            },
            Workload::QueryRos => Plan {
                query_rounds: n(10, 1),
                ..probe
            },
            Workload::FreshHybrid => Plan {
                hybrid_appends: n(800, 200),
                ..probe
            },
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The 13 end-to-end metrics. Each bound is at least three times the
/// widest ten-seed quartile spread seen on any workload on the 2-vCPU
/// sandbox, and wider than the largest drift between two campaigns
/// (README, "Spread"); `setup_s` carries the widest the contract allows.
/// `append_p99_us` and `visible_p95_ms` did not repeat within 10 % and
/// are per-layer metrics (`client.append_p99_us`, `query.visible_p95_ms`).
pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("run_s", "s", "lower", 0.20),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("append_p50_us", "us", "lower", 0.20),
    e2e("ingest_rows_per_s", "rows/s", "higher", 0.25),
    e2e("convert_rows_per_s", "rows/s", "higher", 0.25),
    e2e("stored_bytes_per_user_byte", "ratio", "lower", 0.01),
    e2e("visible_p50_ms", "ms", "lower", 0.25),
    e2e("q_agg_p50_ms", "ms", "lower", 0.25),
    e2e("q_point_p50_ms", "ms", "lower", 0.15),
    e2e("q_filter_p50_ms", "ms", "lower", 0.20),
    e2e("q_narrow_p50_ms", "ms", "lower", 0.20),
    e2e("q_export_p50_ms", "ms", "lower", 0.20),
];

/// A per-layer metric (no bound: it locates a change, it does not gate one).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics of a traced run. Layers are the crates; `<q>` is
/// one of the six query classes.
pub const PER_LAYER: [PerLayer; 98] = [
    // client
    pl("client.append_self_us", "us", "lower"),
    pl("client.append_p99_us", "us", "lower"),
    pl("client.retries", "count", "lower"),
    pl("client.dedup", "count", "lower"),
    pl("client.tail_read_us_per_krow", "us/krow", "lower"),
    pl("client.tail_rows", "rows", "lower"),
    // common (rpc) + admission
    pl("rpc.server_hop_us", "us", "lower"),
    pl("rpc.sms_calls_per_append", "calls/op", "lower"),
    pl("rpc.server_calls_per_append", "calls/op", "lower"),
    pl("rpc.sms_calls_per_query", "calls/op", "lower"),
    pl("admission.admitted", "count", "higher"),
    pl("admission.shed", "count", "lower"),
    // server
    pl("server.append_us", "us", "lower"),
    pl("server.append_self_us", "us", "lower"),
    pl("server.group_size_mean", "count", "higher"),
    pl("server.groups", "count", "lower"),
    pl("server.shard_imbalance", "ratio", "lower"),
    pl("server.mailbox_shed", "count", "lower"),
    pl("server.wal_records", "count", "lower"),
    pl("server.wal_bytes_per_append", "B/op", "lower"),
    pl("server.restart_us", "us", "lower"),
    // wos
    pl("wos.encode_us_per_krow", "us/krow", "lower"),
    pl("wos.parse_us_per_krow", "us/krow", "lower"),
    pl("wos.bytes_per_user_byte", "ratio", "lower"),
    pl("wos.blocks_encoded", "count", "lower"),
    pl("wos.fragments", "count", "lower"),
    // colossus
    pl("colossus.append_us", "us", "lower"),
    pl("colossus.read_us_per_mib", "us/MiB", "lower"),
    pl("colossus.files", "count", "lower"),
    pl("colossus.bytes_wos", "B", "lower"),
    pl("colossus.bytes_ros", "B", "lower"),
    pl("colossus.bytes_wal", "B", "lower"),
    pl("colossus.bytes_meta", "B", "lower"),
    pl("colossus.bytes_opened.q_agg", "B", "lower"),
    pl("colossus.bytes_opened.q_filter", "B", "lower"),
    pl("colossus.bytes_opened.q_point", "B", "lower"),
    pl("colossus.bytes_opened.q_narrow", "B", "lower"),
    pl("colossus.bytes_opened.q_export", "B", "lower"),
    pl("colossus.bytes_opened.q_recent", "B", "lower"),
    // sms
    pl("sms.list_us", "us", "lower"),
    pl("sms.list_fragments", "count", "lower"),
    pl("sms.create_stream_us", "us", "lower"),
    pl("sms.heartbeat_round_us", "us", "lower"),
    pl("sms.gc_us", "us", "lower"),
    pl("sms.gc_files", "count", "higher"),
    // metastore
    pl("metastore.commit_us", "us", "lower"),
    pl("metastore.checkpoint_us", "us", "lower"),
    pl("metastore.recover_us", "us", "lower"),
    pl("metastore.commits_replayed", "count", "lower"),
    pl("metastore.wal_bytes", "B", "lower"),
    // optimizer
    pl("optimizer.convert_us_per_krow", "us/krow", "lower"),
    pl("optimizer.recluster_us_per_krow", "us/krow", "lower"),
    pl("optimizer.merges", "count", "lower"),
    pl("optimizer.bytes_out_per_byte_in", "ratio", "lower"),
    pl("optimizer.backlog_max", "count", "lower"),
    pl("optimizer.busy_share", "ratio", "lower"),
    pl("optimizer.stall_max_ms", "ms", "lower"),
    // ros
    pl("ros.build_us_per_krow", "us/krow", "lower"),
    pl("ros.seal_us_per_mib", "us/MiB", "lower"),
    pl("ros.open_us_per_mib", "us/MiB", "lower"),
    pl("ros.decode_ns_per_value", "ns", "lower"),
    pl("ros.bytes_per_user_byte", "ratio", "lower"),
    pl("ros.blocks", "count", "lower"),
    // query
    pl("query.visible_p95_ms", "ms", "lower"),
    pl("query.facade_us.q_agg", "us", "lower"),
    pl("query.facade_us.q_filter", "us", "lower"),
    pl("query.facade_us.q_point", "us", "lower"),
    pl("query.facade_us.q_narrow", "us", "lower"),
    pl("query.facade_us.q_export", "us", "lower"),
    pl("query.facade_us.q_recent", "us", "lower"),
    pl("query.residual_us.q_agg", "us", "lower"),
    pl("query.residual_us.q_filter", "us", "lower"),
    pl("query.residual_us.q_point", "us", "lower"),
    pl("query.residual_us.q_narrow", "us", "lower"),
    pl("query.residual_us.q_export", "us", "lower"),
    pl("query.residual_us.q_recent", "us", "lower"),
    pl("query.rows_scanned_per_match.q_agg", "ratio", "lower"),
    pl("query.rows_scanned_per_match.q_filter", "ratio", "lower"),
    pl("query.rows_scanned_per_match.q_point", "ratio", "lower"),
    pl("query.rows_scanned_per_match.q_narrow", "ratio", "lower"),
    pl("query.rows_scanned_per_match.q_export", "ratio", "lower"),
    pl("query.rows_scanned_per_match.q_recent", "ratio", "lower"),
    pl("query.fragments_pruned_ratio.q_agg", "ratio", "higher"),
    pl("query.fragments_pruned_ratio.q_filter", "ratio", "higher"),
    pl("query.fragments_pruned_ratio.q_point", "ratio", "higher"),
    pl("query.fragments_pruned_ratio.q_narrow", "ratio", "higher"),
    pl("query.fragments_pruned_ratio.q_export", "ratio", "higher"),
    pl("query.fragments_pruned_ratio.q_recent", "ratio", "higher"),
    pl("query.zones_pruned_ratio.q_agg", "ratio", "higher"),
    pl("query.zones_pruned_ratio.q_filter", "ratio", "higher"),
    pl("query.zones_pruned_ratio.q_point", "ratio", "higher"),
    pl("query.zones_pruned_ratio.q_narrow", "ratio", "higher"),
    pl("query.zones_pruned_ratio.q_export", "ratio", "higher"),
    pl("query.zones_pruned_ratio.q_recent", "ratio", "higher"),
    pl("query.cache_hit_ratio", "ratio", "higher"),
    pl("query.tails_scanned", "count", "lower"),
    // the benchmark itself
    pl("trace.overhead_pct", "%", "lower"),
    pl("bench.host_speed", "ratio", "higher"),
];

/// The unit of any metric the benchmark prints.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Quartile spread as the acceptance rule computes it: Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), third minus
/// first quartile, as a share of `statistics.median(values)`.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        // The index is clamped before the weight is taken, so the ends
        // extrapolate — as the Python code does.
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let median = if len % 2 == 1 {
        v[len / 2]
    } else {
        (v[len / 2 - 1] + v[len / 2]) / 2.0
    };
    (quartile(3) - quartile(1)) / median
}

/// `BENCHMARK.json`, exactly the keys the contract names.
pub fn to_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                crate::trace::json_escape(w.why())
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert!((quartile_spread(&[3.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
        // statistics.quantiles([5, 1, 9, 3], n=4) == [1.5, 4.0, 8.0]
        assert!((quartile_spread(&[5.0, 1.0, 9.0, 3.0]) - 6.5 / 4.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|n| ok(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.why().len() <= 200));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn benchmark_json_is_this_module_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, to_json(), "regenerate with --emit-manifest");
    }

    #[test]
    fn scaling_keeps_the_structure() {
        for w in WORKLOADS {
            let small = w.plan(0.05);
            assert!(small.hybrid_appends % 20 == 0 && small.hybrid_appends >= 20);
            assert!(small.bulk_rounds >= 1 && small.query_rounds >= 1);
            assert_eq!(w.plan(1.0).bulk_rounds, w.plan(2.0).bulk_rounds);
        }
    }
}
