//! Layer probes: the only module that reaches below the facade. Each
//! probe calls the coarsest public entry point a layer has and times it
//! from outside; counters are read from what the program already exports
//! (`obs::global()`, `ScanStats`, `RpcChannel::metrics`, reports,
//! `Colossus::list/len`). Nothing here runs in an untraced run except the
//! storage census, so the end-to-end numbers never pay for it.
//!
//! Writes are measured by *boundary peeling*: the same batch is submitted
//! at successive boundaries (client → channel → server → WOS encode →
//! Colossus), each on a scratch stream or path of its own, round-robin so
//! all boundaries see the same machine; a layer's self time is the
//! difference of adjacent medians. Reads are measured by *decomposed
//! replay*: a query is run through the facade and then again step by step
//! under nested spans (`sms.list` → `colossus.read` → `ros.open` →
//! `ros.decode`, `client.wos_read`, `client.tail_read`); `query.residual`
//! is the facade time minus those steps.

use std::collections::BTreeMap;
use std::hint::black_box;

use vortex::ids::TableId;
use vortex::{Region, ScanOptions, ScanStats, StreamServerApi, StreamType, Timestamp};
use vortex_client::read::{read_fragment_cached, read_tail};
use vortex_colossus::Colossus;
use vortex_common::crypt::Key;
use vortex_common::ids::{FragmentId, StreamletId};
use vortex_metastore::MetaStore;
use vortex_ros::{RosBlock, RosBlockBuilder, RowMeta};
use vortex_sms::meta::{FragmentKind, FragmentMeta, FragmentState};
use vortex_wos::{parse_fragment, FragmentConfig, FragmentWriter};

use crate::drivers::{self, Plan, Site, Table, World, CLASSES};
use crate::gen::{orders_schema, Generator, Reference};
use crate::trace::{p50, quantile, Recorder, Recording};

type Metrics = BTreeMap<String, (f64, usize)>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------
// Census and counters (cheap; every run).
// ---------------------------------------------------------------------

/// Bytes and files a region's storage holds (both replica clusters and
/// the metastore's cluster; the customer bucket is unused), by kind.
pub fn stored_bytes(region: &Region) -> Result<BTreeMap<&'static str, u64>, String> {
    let mut out: BTreeMap<&'static str, u64> = [
        "wos",
        "ros",
        "wal",
        "meta",
        "other",
        "files",
        "wos_files",
        "ros_files",
    ]
    .into_iter()
    .map(|k| (k, 0))
    .collect();
    let fleet = region.fleet();
    // `cluster_ids` lists the replica clusters only.
    let ids = fleet
        .cluster_ids()
        .into_iter()
        .chain([vortex_colossus::META_CLUSTER_ID]);
    for id in ids {
        let cluster = fleet.get(id).map_err(err)?;
        for path in cluster.list("").map_err(err)? {
            let kind = match path.split('/').next() {
                Some("wos") => "wos",
                Some("ros") => "ros",
                Some("srv") => "wal",
                Some("meta") => "meta",
                _ => "other",
            };
            *out.entry(kind).or_default() += cluster.len(&path).map_err(err)?;
            *out.entry("files").or_default() += 1;
            match kind {
                "wos" => *out.entry("wos_files").or_default() += 1,
                "ros" => *out.entry("ros_files").or_default() += 1,
                _ => {}
            }
        }
    }
    Ok(out)
}

/// Σ bytes of the kinds that hold data or metadata (not the file counts).
pub fn stored_total(stored: &BTreeMap<&'static str, u64>) -> u64 {
    ["wos", "ros", "wal", "meta", "other"]
        .iter()
        .map(|k| stored[k])
        .sum()
}

/// The process-wide counters (`obs::global()`) plus group-commit
/// histogram totals, as one flat map. Counters only grow, so a run's
/// share is the difference of two snapshots.
pub fn counters() -> BTreeMap<String, u64> {
    let snap = vortex::obs::global().snapshot();
    let mut out = snap.counters;
    if let Some(h) = snap.histograms.get(vortex::obs::GROUP_COMMIT_APPENDS) {
        out.insert("group_commit.appends.count".into(), h.count);
        out.insert("group_commit.appends.sum".into(), h.sum);
    }
    out
}

/// What both regions' storage holds when the measured script ends.
pub struct Census {
    /// [`stored_bytes`] of the main region.
    pub main: BTreeMap<&'static str, u64>,
    /// [`stored_bytes`] of the live region.
    pub live: BTreeMap<&'static str, u64>,
    /// Bytes of the main region's metastore WAL.
    pub meta_wal_bytes: u64,
}

impl Census {
    /// Takes the census.
    pub fn take(w: &World) -> Result<Census, String> {
        let meta = w.main.region.meta_cluster().map_err(err)?;
        let meta_wal_bytes = meta
            .list("meta/wal/")
            .map_err(err)?
            .iter()
            .filter_map(|p| meta.len(p).ok())
            .sum();
        Ok(Census {
            main: stored_bytes(&w.main.region)?,
            live: stored_bytes(&w.live.region)?,
            meta_wal_bytes,
        })
    }
}

/// Counts that must be identical in two runs of the same seed and plan
/// (`--selfcheck`): stored bytes and files, rows through the write and
/// scan paths.
pub fn exact_counts(
    census: &Census,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (site, stored) in [("main", &census.main), ("live", &census.live)] {
        for (k, v) in stored {
            out.insert(format!("stored.{site}.{k}"), *v);
        }
    }
    out.insert("stored.main.meta_wal".into(), census.meta_wal_bytes);
    for k in [
        "append.client.calls",
        "append.client.rows",
        "wos.blocks_encoded",
        "wos.rows_encoded",
        "wal.records_logged",
        "scan.calls",
        "scan.fragments_total",
        "scan.pruned_by_stats",
        "scan.zones_total",
        "scan.zones_pruned",
        "scan.rows_scanned",
        "scan.rows_matched",
        "scan.tails_scanned",
    ] {
        out.insert(format!("obs.{k}"), delta(before, after, k));
    }
    out
}

fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, key: &str) -> u64 {
    after.get(key).copied().unwrap_or(0) - before.get(key).copied().unwrap_or(0)
}

fn delta_prefix(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, p: &str) -> u64 {
    after
        .keys()
        .filter(|k| k.starts_with(p))
        .map(|k| delta(before, after, k))
        .sum()
}

// ---------------------------------------------------------------------
// Probes (traced runs only). Everything is recorded under stage `probe`.
// ---------------------------------------------------------------------

/// Rows per batch of the workload's main stage: the shape peeled.
fn main_batch(main_stage: &str) -> usize {
    match main_stage {
        "bulk" => drivers::BULK_BATCH,
        "hybrid" => drivers::HYBRID_BATCH,
        _ => drivers::STREAM_BATCH,
    }
}

/// Runs every probe. `main_stage` picks the batch shape that is peeled
/// and which table `q_agg`/`q_point` are replayed on.
pub fn probe(
    rec: &mut Recorder,
    gen: &mut Generator,
    w: &World,
    plan: &Plan,
    main_stage: &str,
) -> Result<(), String> {
    rec.set_stage("probe");
    let batch = main_batch(main_stage);
    // ~0.3 s of peeling whatever the shape.
    let iters = (6_000 / batch).clamp(12, 300);
    let scratch = peel(rec, gen, &w.main, batch, iters)?;
    parse_probe(rec, &w.main, scratch)?;
    ros_probe(rec, gen, &w.main, scratch)?;
    storage_probes(rec, &w.main, &w.hist)?;
    metastore_probe(rec, &w.main)?;
    tail_probe(rec, &w.live, &w.orders_live)?;
    let rounds = (plan.query_rounds / 2).clamp(3, 6);
    for class in CLASSES {
        let on_live =
            class == "q_recent" || (main_stage == "hybrid" && matches!(class, "q_agg" | "q_point"));
        let (site, table) = if on_live {
            (&w.live, &w.orders_live)
        } else {
            (&w.main, &w.hist)
        };
        for _ in 0..rounds {
            replay_probe(rec, gen, site, table, class)?;
        }
    }
    Ok(())
}

/// Boundary peeling of the write path. Returns the scratch table.
fn peel(
    rec: &mut Recorder,
    gen: &mut Generator,
    site: &Site,
    rows: usize,
    iters: usize,
) -> Result<TableId, String> {
    let region = &site.region;
    let sms = region.sms();
    let tmeta = site
        .client
        .create_table("orders_probe", orders_schema())
        .map_err(err)?;
    let (table, key) = (tmeta.table, tmeta.encryption_key());
    let mut scratch_ref = Reference::default();
    // Boundary 1: the client library.
    let mut writer = site.client.create_unbuffered_writer(table).map_err(err)?;
    // Boundary 2: the channel-wrapped server handle the SMS hands out.
    let via_channel = sms
        .create_stream(table, StreamType::Unbuffered)
        .map_err(err)?;
    // Boundary 3: the raw server behind the channel.
    let direct = sms
        .create_stream(table, StreamType::Unbuffered)
        .map_err(err)?;
    let raw = region
        .servers()
        .into_iter()
        .find(|s| s.server_id() == direct.streamlet.server)
        .ok_or("no raw server hosts the scratch streamlet")?;
    // Boundary 4: the WOS encoder alone.
    let now = || region.truetime().record_timestamp();
    let (mut encoder, _header) = FragmentWriter::new(
        FragmentConfig {
            streamlet: StreamletId::from_raw(u64::MAX - 1),
            fragment: FragmentId::from_raw(u64::MAX - 1),
            ordinal: 0,
            schema_version: tmeta.schema.version,
            key: key.clone(),
        },
        0,
        Vec::new(),
        now(),
    );
    // Boundary 5: one Colossus append of the encoded block.
    let cluster = region.fleet().get(tmeta.primary).map_err(err)?;
    let (mut off_channel, mut off_direct) = (
        via_channel.streamlet.first_stream_row,
        direct.streamlet.first_stream_row,
    );
    let calls = || {
        (
            region.sms_rpc().metrics().total_calls(),
            region.server_rpc().metrics().total_calls(),
        )
    };
    for _ in 0..iters {
        let batch = gen.batch(rows, &mut scratch_ref);
        let (sms0, srv0) = calls();
        rec.timed("peel.client", |_| writer.append(batch.clone()))
            .map_err(err)?;
        let (sms1, srv1) = calls();
        rec.note("peel.sms_calls", (sms1 - sms0) as f64);
        rec.note("peel.server_calls", (srv1 - srv0) as f64);
        rec.timed("peel.channel", |_| {
            via_channel.server.append(
                via_channel.streamlet.streamlet,
                &batch,
                via_channel.schema.version,
                Some(off_channel),
                now(),
            )
        })
        .map_err(err)?;
        off_channel += rows as u64;
        rec.timed("peel.server", |_| {
            StreamServerApi::append(
                &*raw,
                direct.streamlet.streamlet,
                &batch,
                direct.schema.version,
                Some(off_direct),
                now(),
            )
        })
        .map_err(err)?;
        off_direct += rows as u64;
        let block = rec
            .timed("peel.wos_encode", |_| {
                encoder.data_block(&batch.rows, now())
            })
            .map_err(err)?;
        rec.timed("peel.colossus", |_| {
            cluster.append("probe/peel", &block, Timestamp::MIN)
        })
        .map_err(err)?;
        rec.note("peel.block_bytes", block.len() as f64);
        rec.note("peel.user_bytes", batch.approx_bytes() as f64);
    }
    rec.note("peel.rows", rows as f64);
    // Leave a finalized fragment behind for the parse probe.
    writer.finalize().map_err(err)?;
    region.run_heartbeats(false).map_err(err)?;
    Ok(table)
}

fn read_replica(region: &Region, f: &FragmentMeta) -> Result<Vec<u8>, String> {
    let cluster = region.fleet().get(f.clusters[0]).map_err(err)?;
    Ok(cluster.read_all(&f.path).map_err(err)?.data.to_vec())
}

fn table_key(site: &Site, table: TableId) -> Result<Key, String> {
    Ok(site
        .region
        .sms()
        .get_table(table)
        .map_err(err)?
        .encryption_key())
}

/// `parse_fragment` on the finalized WOS files the peel left behind.
fn parse_probe(rec: &mut Recorder, site: &Site, table: TableId) -> Result<(), String> {
    let sms = site.region.sms();
    let key = table_key(site, table)?;
    let files: Vec<FragmentMeta> = sms
        .list_fragments(table, sms.read_snapshot())
        .into_iter()
        .filter(|f| {
            f.kind == FragmentKind::Wos && f.state == FragmentState::Finalized && f.row_count > 0
        })
        .collect();
    if files.is_empty() {
        return Err("parse probe: no finalized WOS fragment".into());
    }
    for f in &files {
        let bytes = read_replica(&site.region, f)?;
        for _ in 0..5 {
            let parsed = rec
                .timed("wos.parse", |_| {
                    parse_fragment(&bytes, &key, Some(f.committed_size))
                })
                .map_err(err)?;
            rec.note("wos.parse.rows", parsed.committed_rows() as f64);
        }
    }
    Ok(())
}

/// `RosBlockBuilder::push` + `build(true)`, `to_bytes`, `from_bytes`,
/// `rows()` on one target-size block of generated rows.
fn ros_probe(
    rec: &mut Recorder,
    gen: &mut Generator,
    site: &Site,
    table: TableId,
) -> Result<(), String> {
    const BLOCK_ROWS: usize = 4_096;
    let key = table_key(site, table)?;
    let schema = orders_schema();
    let batch = gen.batch(BLOCK_ROWS, &mut Reference::default());
    let ts = site.region.truetime().record_timestamp();
    for _ in 0..5 {
        let block = rec
            .timed("ros.build", |_| {
                let mut b = RosBlockBuilder::new(&schema);
                for (i, row) in batch.rows.iter().enumerate() {
                    let meta = RowMeta {
                        change_type: row.change_type,
                        ts,
                        stream: 1,
                        offset: i as u64,
                    };
                    b.push(meta, row.clone())?;
                }
                b.build(true)
            })
            .map_err(err)?;
        let sealed = rec.timed("ros.seal", |_| block.to_bytes(&key, 1));
        let opened = rec
            .timed("ros.open", |_| RosBlock::from_bytes(&sealed, &key, 1))
            .map_err(err)?;
        let rows = rec.timed("ros.decode", |_| opened.rows()).map_err(err)?;
        rec.note("ros.rows", rows.len() as f64);
        rec.note("ros.values", (rows.len() * schema.fields.len()) as f64);
        rec.note("ros.sealed_bytes", sealed.len() as f64);
        rec.note("ros.user_bytes", batch.approx_bytes() as f64);
    }
    Ok(())
}

/// `Colossus::read_all` of the historical table's real ROS files, and the
/// SMS's two hot control calls.
fn storage_probes(rec: &mut Recorder, site: &Site, hist: &Table) -> Result<(), String> {
    let sms = site.region.sms();
    let at = sms.read_snapshot();
    let files: Vec<FragmentMeta> = sms
        .list_fragments(hist.id, at)
        .into_iter()
        .filter(|f| f.kind == FragmentKind::Ros && f.deleted_at == Timestamp::MAX)
        .collect();
    for f in &files {
        let cluster = site.region.fleet().get(f.clusters[0]).map_err(err)?;
        let out = rec
            .timed("colossus.read", |_| cluster.read_all(&f.path))
            .map_err(err)?;
        rec.note("colossus.read.bytes", out.data.len() as f64);
    }
    for _ in 0..20 {
        let rs = rec
            .timed("sms.list", |_| sms.list_read_fragments(hist.id, at))
            .map_err(err)?;
        rec.note("sms.list.fragments", rs.fragments.len() as f64);
    }
    let scratch = site
        .client
        .create_table("orders_probe_streams", orders_schema())
        .map_err(err)?
        .table;
    for _ in 0..10 {
        rec.timed("sms.create_stream", |_| {
            sms.create_stream(scratch, StreamType::Unbuffered)
        })
        .map_err(err)?;
    }
    Ok(())
}

/// Small transactions on a scratch durable metastore over a scratch
/// cluster: each commit is WAL-logged before it is acknowledged.
fn metastore_probe(rec: &mut Recorder, site: &Site) -> Result<(), String> {
    let cluster = Colossus::new_mem(
        vortex_common::ids::ClusterId::from_raw(0xBE7C),
        vortex::WriteProfile::instant(),
        1,
    );
    let (store, _) = MetaStore::recover(site.region.truetime().clone(), &cluster).map_err(err)?;
    for i in 0..200u32 {
        rec.timed("metastore.commit", |_| {
            store.with_txn(3, |txn| {
                txn.put(&format!("probe/{:04}", i % 50), vec![0xAB; 160]);
                Ok(())
            })
        })
        .map_err(err)?;
    }
    Ok(())
}

/// `read_tail` on the live table's tails as they stand after the run.
fn tail_probe(rec: &mut Recorder, site: &Site, live: &Table) -> Result<(), String> {
    let sms = site.region.sms();
    let key = table_key(site, live.id)?;
    for _ in 0..5 {
        let at = sms.read_snapshot();
        let rs = sms.list_read_fragments(live.id, at).map_err(err)?;
        for tail in &rs.tails {
            let out = rec
                .timed("client.tail_read", |_| {
                    read_tail(tail, site.region.fleet(), &key, at)
                })
                .map_err(err)?;
            let rows = match out {
                vortex_client::read::TailOutcome::Rows(r) => r.len(),
                vortex_client::read::TailOutcome::NeedsReconcile => 0,
            };
            rec.note("client.tail_read.rows", rows as f64);
        }
    }
    Ok(())
}

/// The series a class's facade run, replay and counters are kept under.
fn class_series(class: &str) -> (&'static str, &'static str) {
    match class {
        "q_agg" => ("facade.q_agg", "replay.q_agg"),
        "q_filter" => ("facade.q_filter", "replay.q_filter"),
        "q_point" => ("facade.q_point", "replay.q_point"),
        "q_narrow" => ("facade.q_narrow", "replay.q_narrow"),
        "q_export" => ("facade.q_export", "replay.q_export"),
        _ => ("facade.q_recent", "replay.q_recent"),
    }
}

/// One facade run of a query class (for its time and `ScanStats`), then
/// the same query step by step.
fn replay_probe(
    rec: &mut Recorder,
    gen: &mut Generator,
    site: &Site,
    table: &Table,
    class: &'static str,
) -> Result<(), String> {
    let p = gen.params();
    let (opts, columns) = drivers::class_scan(class, &p, table);
    let at = site.client.snapshot();
    let (facade, replay) = class_series(class);
    let sms_calls = site.region.sms_rpc().metrics().total_calls();
    // What is timed is what the drivers issue. Two classes do not hand
    // back `ScanStats` (an aggregate, the export driver); their counters
    // come from the equivalent engine scan, untimed.
    let checked = |ok: Result<bool, String>| match ok {
        Ok(true) => Ok(()),
        Ok(false) => Err(format!("{class}: result disagrees with the reference")),
        Err(e) => Err(e),
    };
    let stats: ScanStats = match class {
        "q_agg" => {
            checked(rec.timed(facade, |_| drivers::q_agg(site, table, at, &p)))?;
            site.engine.scan(table.id, at, &opts).map_err(err)?.stats
        }
        "q_export" => {
            rec.timed(facade, |_| site.client.read_rows_at(table.id, at))
                .map_err(err)?;
            site.engine.scan(table.id, at, &opts).map_err(err)?.stats
        }
        _ => {
            rec.timed(facade, |_| site.engine.scan(table.id, at, &opts))
                .map_err(err)?
                .stats
        }
    };
    let calls = site.region.sms_rpc().metrics().total_calls() - sms_calls;
    let scans = if matches!(class, "q_agg" | "q_export") {
        2.0
    } else {
        1.0
    };
    rec.note("sms_calls_per_query", calls as f64 / scans);
    for (k, v) in [
        ("fragments_total", stats.fragments_total as u64),
        (
            "fragments_pruned",
            (stats.pruned_by_stats + stats.pruned_by_bloom) as u64,
        ),
        ("zones_total", stats.zones_total as u64),
        ("zones_pruned", stats.zones_pruned as u64),
        ("rows_scanned", stats.rows_scanned),
        ("rows_matched", stats.rows_matched),
    ] {
        rec.note(&format!("{class}.{k}"), v as f64);
    }
    let key = table_key(site, table.id)?;
    let start = rec.now_ns();
    let (opened, children_ns) = rec.timed(replay, |rec| {
        replay_steps(rec, site, table.id, &key, at, &opts, &columns)
    })?;
    // Raw nanoseconds of the root, to scale the raw child total by.
    rec.note(
        &format!("{class}.replay_raw_ns"),
        (rec.now_ns() - start) as f64,
    );
    rec.note(&format!("{class}.children_raw_ns"), children_ns as f64);
    rec.note(&format!("{class}.bytes_opened"), opened as f64);
    Ok(())
}

/// Times one step of a replay as a child span and adds its raw time to
/// `children_ns`.
fn step<T>(
    rec: &mut Recorder,
    name: &'static str,
    children_ns: &mut u64,
    f: impl FnOnce() -> T,
) -> T {
    let start = rec.now_ns();
    let out = rec.span(name, |_| f());
    *children_ns += rec.now_ns() - start;
    out
}

/// The read path by hand: list, prune by fragment properties, fetch,
/// open, decode what the zone maps cannot skip; WOS fragments through the
/// region's cache as the engine reads them; then the tails. Returns the
/// whole-file bytes of the surviving fragments and the raw time spent in
/// the steps.
fn replay_steps(
    rec: &mut Recorder,
    site: &Site,
    table: TableId,
    key: &Key,
    at: Timestamp,
    opts: &ScanOptions,
    columns: &[usize],
) -> Result<(u64, u64), String> {
    let (sms, fleet) = (site.region.sms(), site.region.fleet());
    let schema = orders_schema();
    let (mut opened, mut children_ns) = (0u64, 0u64);
    let rs = step(rec, "sms.list", &mut children_ns, || {
        sms.list_read_fragments(table, at)
    })
    .map_err(err)?;
    for spec in &rs.fragments {
        let by_fragment = |c: &str| {
            spec.meta
                .stats
                .iter()
                .find(|(n, _)| n == c)
                .map(|(_, s)| s.clone())
        };
        if !opts.predicate.may_match_stats(&by_fragment) {
            continue;
        }
        opened += spec.meta.committed_size;
        if spec.meta.kind == FragmentKind::Wos {
            step(rec, "client.wos_read", &mut children_ns, || {
                read_fragment_cached(
                    spec,
                    fleet,
                    key,
                    at,
                    Some(site.region.read_cache().as_ref()),
                )
                .map(|rows| black_box(rows).len())
            })
            .map_err(err)?;
            continue;
        }
        let bytes = step(rec, "colossus.read", &mut children_ns, || {
            fleet
                .get(spec.meta.clusters[0])
                .and_then(|c| c.read_all(&spec.meta.path))
        })
        .map_err(err)?;
        let block = step(rec, "ros.open", &mut children_ns, || {
            RosBlock::from_bytes(&bytes.data, key, spec.meta.fragment.raw())
        })
        .map_err(err)?;
        step(rec, "ros.decode", &mut children_ns, || {
            for z in 0..block.zone_count() {
                let by_zone = |c: &str| {
                    schema
                        .column_index(c)
                        .and_then(|i| block.zone_stats(i, z).cloned())
                };
                if !opts.predicate.may_match_stats(&by_zone) {
                    continue;
                }
                for &c in columns {
                    black_box(block.decode_zone(c, z)?);
                }
            }
            Ok::<(), vortex::VortexError>(())
        })
        .map_err(err)?;
    }
    for tail in &rs.tails {
        step(rec, "client.tail_read", &mut children_ns, || {
            read_tail(tail, fleet, key, at).map(black_box)
        })
        .map_err(err)?;
    }
    Ok((opened, children_ns))
}

// ---------------------------------------------------------------------
// Per-layer metrics from a finished traced run.
// ---------------------------------------------------------------------

/// Everything [`metrics`] needs besides the recording.
pub struct LayerInputs<'a> {
    /// The world the run used.
    pub world: &'a World,
    /// Storage as the measured script left it.
    pub census: &'a Census,
    /// The workload's main stage.
    pub main_stage: &'a str,
    /// `run_s` of this run.
    pub run_s: f64,
    /// [`counters`] before the measured script.
    pub before: &'a BTreeMap<String, u64>,
    /// [`counters`] after it.
    pub after: &'a BTreeMap<String, u64>,
}

/// Builds the per-layer metrics by name.
pub fn metrics(rec: &Recording, inp: &LayerInputs<'_>) -> Metrics {
    let mut out = Metrics::new();
    let mut put = |name: &str, value: f64, n: usize| {
        out.insert(name.to_string(), (value, n));
    };
    let med = |series: &str| {
        let v = rec.durations_us(&format!("probe.{series}"));
        (p50(&v).unwrap_or(0.0), v.len())
    };
    let note_sum = |series: &str| rec.notes(series).iter().sum::<f64>();
    let note_mean = |series: &str| {
        let v = rec.notes(series);
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (before, after) = (inp.before, inp.after);
    let count = |key: &str| delta(before, after, key) as f64;

    // -- write path, peeled -------------------------------------------
    let (client, n) = med("peel.client");
    let (channel, _) = med("peel.channel");
    let (server, _) = med("peel.server");
    let (encode, _) = med("peel.wos_encode");
    let (colossus, _) = med("peel.colossus");
    let peel_rows = note_mean("probe.peel.rows");
    put("client.append_self_us", client - channel, n);
    put("rpc.server_hop_us", channel - server, n);
    put("server.append_us", server, n);
    put("server.append_self_us", server - encode - 2.0 * colossus, n);
    put("wos.encode_us_per_krow", ratio(encode, peel_rows / 1e3), n);
    put("colossus.append_us", colossus, n);
    put(
        "rpc.sms_calls_per_append",
        note_mean("probe.peel.sms_calls"),
        n,
    );
    put(
        "rpc.server_calls_per_append",
        note_mean("probe.peel.server_calls"),
        n,
    );

    // -- client ---------------------------------------------------------
    let stage = inp.main_stage;
    let appends = rec.durations_us(if stage == "hybrid" {
        "hybrid.append"
    } else {
        "stream.append"
    });
    put(
        "client.append_p99_us",
        quantile(&appends, 0.99).unwrap_or(0.0),
        appends.len(),
    );
    put("client.retries", count("append.client.retries"), 1);
    put("client.dedup", count("append.client.dedup"), 1);
    let tail_us = rec.total_us("probe.client.tail_read");
    let tail_rows = note_sum("probe.client.tail_read.rows");
    let tail_n = rec.notes("probe.client.tail_read.rows").len();
    put(
        "client.tail_read_us_per_krow",
        ratio(tail_us, tail_rows / 1e3),
        tail_n,
    );
    put(
        "client.tail_rows",
        note_mean("probe.client.tail_read.rows"),
        tail_n,
    );

    // -- rpc + admission --------------------------------------------------
    put(
        "rpc.sms_calls_per_query",
        note_mean("probe.sms_calls_per_query"),
        rec.notes("probe.sms_calls_per_query").len(),
    );
    put(
        "admission.admitted",
        delta_prefix(before, after, "admission.admitted.") as f64,
        1,
    );
    put(
        "admission.shed",
        delta_prefix(before, after, "admission.shed.") as f64,
        1,
    );

    // -- server -----------------------------------------------------------
    let groups = count(vortex::obs::GROUP_COMMIT_GROUPS);
    put(
        "server.group_size_mean",
        ratio(
            count("group_commit.appends.sum"),
            count("group_commit.appends.count"),
        ),
        groups as usize,
    );
    put("server.groups", groups, 1);
    let shard_appends: Vec<f64> = after
        .keys()
        .filter(|k| k.starts_with(vortex::obs::SHARD_APPENDS_PREFIX) && k.ends_with(".appends"))
        .map(|k| delta(before, after, k) as f64)
        .collect();
    let busiest = shard_appends.iter().copied().fold(0.0, f64::max);
    let mean_shard = ratio(shard_appends.iter().sum(), shard_appends.len() as f64);
    put(
        "server.shard_imbalance",
        ratio(busiest, mean_shard),
        shard_appends.len(),
    );
    put(
        "server.mailbox_shed",
        count(vortex::obs::SHARD_MAILBOX_SHED),
        1,
    );
    put("server.wal_records", count("wal.records_logged"), 1);
    let both = |k: &str| (inp.census.main[k] + inp.census.live[k]) as f64;
    put(
        "server.wal_bytes_per_append",
        ratio(both("wal"), count("append.client.calls")),
        1,
    );
    let restarts = rec.durations_us("epilogue.restart_server");
    put(
        "server.restart_us",
        p50(&restarts).unwrap_or(0.0),
        restarts.len(),
    );

    // -- wos --------------------------------------------------------------
    let (parse, n) = med("wos.parse");
    put(
        "wos.parse_us_per_krow",
        ratio(parse, note_mean("probe.wos.parse.rows") / 1e3),
        n,
    );
    put(
        "wos.bytes_per_user_byte",
        ratio(
            note_sum("probe.peel.block_bytes"),
            note_sum("probe.peel.user_bytes"),
        ),
        1,
    );
    put("wos.blocks_encoded", count("wos.blocks_encoded"), 1);
    put("wos.fragments", both("wos_files") / 2.0, 1);

    // -- colossus -----------------------------------------------------------
    let read_us = rec.total_us("probe.colossus.read");
    let read_mib = note_sum("probe.colossus.read.bytes") / (1 << 20) as f64;
    put(
        "colossus.read_us_per_mib",
        ratio(read_us, read_mib),
        rec.notes("probe.colossus.read.bytes").len(),
    );
    put("colossus.files", both("files"), 1);
    put("colossus.bytes_wos", both("wos"), 1);
    put("colossus.bytes_ros", both("ros"), 1);
    put("colossus.bytes_wal", both("wal"), 1);
    put("colossus.bytes_meta", both("meta"), 1);

    // -- sms ----------------------------------------------------------------
    let (list, n) = med("sms.list");
    put("sms.list_us", list, n);
    put(
        "sms.list_fragments",
        note_mean("probe.sms.list.fragments"),
        n,
    );
    let (create, n) = med("sms.create_stream");
    put("sms.create_stream_us", create, n);
    let mut heartbeats = rec.durations_us("bulk.heartbeats");
    heartbeats.extend(rec.durations_us("hybrid.heartbeats"));
    put(
        "sms.heartbeat_round_us",
        p50(&heartbeats).unwrap_or(0.0),
        heartbeats.len(),
    );
    let gc = rec.durations_us("bulk.gc");
    put("sms.gc_us", p50(&gc).unwrap_or(0.0), gc.len());
    put("sms.gc_files", note_sum("bulk.gc.files"), gc.len());

    // -- metastore ----------------------------------------------------------
    let (commit, n) = med("metastore.commit");
    put("metastore.commit_us", commit, n);
    let ckpt = rec.durations_us("bulk.checkpoint");
    put(
        "metastore.checkpoint_us",
        p50(&ckpt).unwrap_or(0.0),
        ckpt.len(),
    );
    put(
        "metastore.recover_us",
        rec.total_us("epilogue.recover_metastore"),
        1,
    );
    put(
        "metastore.commits_replayed",
        note_sum("epilogue.commits_replayed"),
        1,
    );
    put("metastore.wal_bytes", inp.census.meta_wal_bytes as f64, 1);

    // -- optimizer ----------------------------------------------------------
    let bulk_krows = inp.world.bulk.reference.rows() as f64 / 1e3;
    let convert = rec.durations_us("bulk.convert");
    let recluster = rec.durations_us("bulk.recluster");
    let cycles = rec.durations_us("hybrid.optimizer_cycle");
    put(
        "optimizer.convert_us_per_krow",
        ratio(convert.iter().sum(), bulk_krows),
        convert.len(),
    );
    put(
        "optimizer.recluster_us_per_krow",
        ratio(recluster.iter().sum(), bulk_krows),
        recluster.len(),
    );
    put(
        "optimizer.merges",
        note_sum("bulk.recluster.merged"),
        recluster.len(),
    );
    put(
        "optimizer.bytes_out_per_byte_in",
        ratio(
            note_sum("bulk.convert.bytes_out"),
            note_sum("bulk.convert.bytes_in"),
        ),
        convert.len(),
    );
    put(
        "optimizer.backlog_max",
        rec.notes("hybrid.optimizer.backlog")
            .iter()
            .copied()
            .fold(0.0, f64::max),
        cycles.len(),
    );
    let busy: f64 = convert.iter().chain(&recluster).chain(&cycles).sum();
    put("optimizer.busy_share", ratio(busy / 1e6, inp.run_s), 1);
    let stall = convert
        .iter()
        .chain(&recluster)
        .chain(&cycles)
        .copied()
        .fold(0.0, f64::max);
    put(
        "optimizer.stall_max_ms",
        stall / 1e3,
        convert.len() + recluster.len() + cycles.len(),
    );

    // -- ros ----------------------------------------------------------------
    let (build, n) = med("ros.build");
    let (seal, _) = med("ros.seal");
    let (open, _) = med("ros.open");
    let (decode, _) = med("ros.decode");
    let sealed_mib = note_mean("probe.ros.sealed_bytes") / (1 << 20) as f64;
    let values = note_mean("probe.ros.values");
    put("ros.build_us_per_krow", ratio(build, values / 6.0 / 1e3), n);
    put("ros.seal_us_per_mib", ratio(seal, sealed_mib), n);
    put("ros.open_us_per_mib", ratio(open, sealed_mib), n);
    put("ros.decode_ns_per_value", ratio(decode * 1e3, values), n);
    put(
        "ros.bytes_per_user_byte",
        ratio(
            note_mean("probe.ros.sealed_bytes"),
            note_mean("probe.ros.user_bytes"),
        ),
        n,
    );
    put("ros.blocks", both("ros_files") / 2.0, 1);

    // -- query --------------------------------------------------------------
    let visible = rec.durations_us("hybrid.visible");
    put(
        "query.visible_p95_ms",
        quantile(&visible, 0.95).unwrap_or(0.0) / 1e3,
        visible.len(),
    );
    for class in CLASSES {
        let (facade_series, replay_series) = class_series(class);
        let facade = rec.durations_us(&format!("probe.{facade_series}"));
        let replay = rec.durations_us(&format!("probe.{replay_series}"));
        let raw = rec.notes(&format!("probe.{class}.replay_raw_ns"));
        let children = rec.notes(&format!("probe.{class}.children_raw_ns"));
        // The steps' raw time, scaled as their enclosing replay was.
        let residuals: Vec<f64> = (0..facade.len())
            .map(|i| facade[i] - children[i] / 1e3 * ratio(replay[i] * 1e3, raw[i]))
            .collect();
        let n = residuals.len();
        put(
            &format!("query.residual_us.{class}"),
            p50(&residuals).unwrap_or(0.0),
            n,
        );
        put(
            &format!("query.facade_us.{class}"),
            p50(&facade).unwrap_or(0.0),
            n,
        );
        let total = |k: &str| note_sum(&format!("probe.{class}.{k}"));
        put(
            &format!("query.rows_scanned_per_match.{class}"),
            total("rows_scanned") / total("rows_matched").max(1.0),
            n,
        );
        put(
            &format!("query.fragments_pruned_ratio.{class}"),
            ratio(total("fragments_pruned"), total("fragments_total")),
            n,
        );
        put(
            &format!("query.zones_pruned_ratio.{class}"),
            ratio(total("zones_pruned"), total("zones_total")),
            n,
        );
        put(
            &format!("colossus.bytes_opened.{class}"),
            p50(rec.notes(&format!("probe.{class}.bytes_opened"))).unwrap_or(0.0),
            n,
        );
    }
    let (hits, misses) = (count("scan.cache.hits"), count("scan.cache.misses"));
    put("query.cache_hit_ratio", ratio(hits, hits + misses), 1);
    put("query.tails_scanned", count("scan.tails_scanned"), 1);

    // -- the benchmark itself -------------------------------------------------
    let roots: &[&str] = match stage {
        "stream" => &["stream.append"],
        "bulk" => &["bulk.bulk_append"],
        "query" => &["query.q_point", "query.q_narrow"],
        _ => &["hybrid.append", "hybrid.q_recent"],
    };
    let overheads: Vec<f64> = roots
        .iter()
        .filter_map(|s| {
            let (with, without) = rec.durations_by_tracing(s);
            let (w, wo) = (p50(&with)?, p50(&without)?);
            Some(100.0 * (w - wo) / wo)
        })
        .collect();
    put(
        "trace.overhead_pct",
        ratio(overheads.iter().sum(), overheads.len() as f64),
        overheads.len(),
    );
    put("bench.host_speed", rec.host_speed(), 1);
    out
}

/// The layer budgets of a traced run, as shares of their roots: the write
/// path from the peeled medians, each query class from its replay.
pub fn share_report(rec: &Recording, metrics: &Metrics) -> String {
    let m = |name: &str| metrics.get(name).map_or(0.0, |v| v.0);
    let pct = |part: f64, whole: f64| {
        if whole > 0.0 {
            100.0 * part / whole
        } else {
            0.0
        }
    };
    let root = p50(&rec.durations_us("probe.peel.client")).unwrap_or(0.0);
    let encode = p50(&rec.durations_us("probe.peel.wos_encode")).unwrap_or(0.0);
    let mut out = format!(
        "append ({:.0} rows, root {root:.1} us): client {:.1}%  rpc+admission {:.1}%  \
         server {:.1}%  wos.encode {:.1}%  colossus x2 {:.1}%\n",
        rec.notes("probe.peel.rows").first().copied().unwrap_or(0.0),
        pct(m("client.append_self_us"), root),
        pct(m("rpc.server_hop_us"), root),
        pct(m("server.append_self_us"), root),
        pct(encode, root),
        pct(2.0 * m("colossus.append_us"), root),
    );
    for class in CLASSES {
        let (_, replay_series) = class_series(class);
        let mut by_step: BTreeMap<&str, u64> = BTreeMap::new();
        for s in rec
            .spans
            .iter()
            .filter(|s| s.op == replay_series && s.parent.is_some())
        {
            *by_step.entry(s.name).or_default() += s.end_ns - s.start_ns;
        }
        let replays = rec.notes(&format!("probe.{class}.replay_raw_ns"));
        let scale = rec.total_us(&format!("probe.{replay_series}")) * 1e3
            / replays.iter().sum::<f64>().max(1.0);
        // Spans are kept for every other replay; steps per kept replay.
        let kept = rec
            .spans
            .iter()
            .filter(|s| s.name == replay_series)
            .count()
            .max(1) as f64;
        let facade = m(&format!("query.facade_us.{class}"));
        out.push_str(&format!("{class} (root {facade:.0} us):"));
        for (step, ns) in &by_step {
            let us = *ns as f64 * scale / 1e3 / kept;
            out.push_str(&format!("  {step} {:.1}%", pct(us, facade)));
        }
        out.push_str(&format!(
            "  query.residual {:.1}%\n",
            pct(m(&format!("query.residual_us.{class}")), facade)
        ));
    }
    out
}
