//! End-to-end drivers: the four pipeline stages every workload is made
//! of, written against the facade only (`vortex::{Region, VortexClient,
//! StreamWriter, QueryEngine, ScanOptions, Expr, StorageOptimizer}`), so
//! the crates underneath can be rearranged without editing this file.
//!
//! Load is closed loop with one driver thread: the client API is
//! synchronous (`StreamWriter::append` parks until the group commit
//! acks), so there is exactly one request outstanding.

use vortex::ids::TableId;
use vortex::row::{Row, Value};
use vortex::{
    AggKind, Expr, QueryEngine, Region, RegionConfig, ScanOptions, StreamWriter, Timestamp,
    VortexClient,
};

use crate::gen::{col, customer_name, orders_schema, Generator, Params, Reference, RECENT_ROWS};
use crate::trace::Recorder;

/// Rows per append of the streaming stages' request-bound shape (≈1.5 KB).
pub const STREAM_BATCH: usize = 16;
/// Rows per append of the bulk stage (≈190 KB).
pub const BULK_BATCH: usize = 2_000;
/// Rows per append of the hybrid stage.
pub const HYBRID_BATCH: usize = 50;
/// Streams the historical table is pre-loaded through.
const HIST_STREAMS: usize = 4;
/// Queries of each class in one round of the query stage.
const ROUND: [(&str, usize); 5] = [
    ("q_agg", 2),
    ("q_filter", 2),
    ("q_point", 25),
    ("q_narrow", 10),
    ("q_export", 1),
];
/// Stream-stage row count at which the `seq` read-back is made.
const READ_BACK_AT_ROW: u64 = 16_000;
/// Virtual time that outlasts the default 10 s GC grace.
const PAST_GC_GRACE_US: u64 = 11_000_000;

/// How many operations each stage issues. The structure of a stage never
/// changes with the numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Rows pre-loaded into the historical table during set-up.
    pub hist_rows: usize,
    /// Stream stage: appends of [`STREAM_BATCH`] rows.
    pub stream_appends: usize,
    /// Bulk stage: load → convert → recluster → GC → checkpoint rounds.
    pub bulk_rounds: usize,
    /// Bulk stage: appends of [`BULK_BATCH`] rows per round.
    pub bulk_appends: usize,
    /// Query stage: rounds of [`ROUND`].
    pub query_rounds: usize,
    /// Hybrid stage: appends of [`HYBRID_BATCH`] rows.
    pub hybrid_appends: usize,
}

/// A table and the reference answers for what was loaded into it.
#[derive(Debug)]
pub struct Table {
    /// The table's id.
    pub id: TableId,
    /// What the generator produced for it.
    pub reference: Reference,
}

/// One region with its client and query engine.
pub struct Site {
    /// The region.
    pub region: Region,
    /// A client bound to it.
    pub client: VortexClient,
    /// Its query engine (shares the region's read cache).
    pub engine: QueryEngine,
}

impl Site {
    fn create(cfg: RegionConfig) -> Result<Site, String> {
        let region = Region::create(cfg).map_err(err)?;
        Ok(Site {
            client: region.client(),
            engine: region.engine(),
            region,
        })
    }

    fn table(&self, name: &str) -> Result<Table, String> {
        let meta = self
            .client
            .create_table(name, orders_schema())
            .map_err(err)?;
        Ok(Table {
            id: meta.table,
            reference: Reference::default(),
        })
    }
}

/// Everything set-up builds: two regions and their tables.
pub struct World {
    /// `RegionConfig::default()`: hosts the stream, bulk and historical
    /// tables.
    pub main: Site,
    /// Same, but 1 MiB fragments so the hybrid stage's WOS→ROS lifecycle
    /// turns over many times within a run.
    pub live: Site,
    /// Stream stage target.
    pub stream: Table,
    /// Bulk stage target.
    pub bulk: Table,
    /// Pre-loaded, converted, reclustered, GC'd: what the query stage reads.
    pub hist: Table,
    /// Hybrid stage target (in `live`).
    pub orders_live: Table,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn scan_opts(predicate: Expr) -> ScanOptions {
    ScanOptions {
        predicate,
        parallelism: std::thread::available_parallelism().map_or(1, usize::from),
        ..Default::default()
    }
}

/// Set-up (reported as `setup_s`): both regions, the four tables, and the
/// historical table's pre-load through the whole write path into ROS.
pub fn set_up(rec: &mut Recorder, gen: &mut Generator, plan: &Plan) -> Result<World, String> {
    let start = rec.now_ns();
    let main = Site::create(RegionConfig::default())?;
    let live = Site::create(RegionConfig {
        fragment_max_bytes: 1 << 20,
        ..RegionConfig::default()
    })?;
    let stream = main.table("orders_stream")?;
    let bulk = main.table("orders_bulk")?;
    let mut hist = main.table("orders_hist")?;
    let orders_live = live.table("orders_live")?;

    let mut streams = Vec::new();
    let per_stream = plan.hist_rows / HIST_STREAMS;
    for _ in 0..HIST_STREAMS {
        let mut w = main.client.create_pending_writer(hist.id).map_err(err)?;
        let mut left = per_stream;
        while left > 0 {
            let n = left.min(BULK_BATCH);
            w.append(gen.batch(n, &mut hist.reference)).map_err(err)?;
            left -= n;
        }
        streams.push(w.stream_id());
        w.finalize().map_err(err)?;
    }
    main.client.batch_commit(hist.id, &streams).map_err(err)?;
    main.region.run_heartbeats(false).map_err(err)?;
    let converted = main.region.optimizer().convert_wos(hist.id).map_err(err)?;
    if converted.rows != hist.reference.rows() {
        return Err(format!(
            "set-up converted {} of {} rows",
            converted.rows,
            hist.reference.rows()
        ));
    }
    main.region.optimizer().recluster(hist.id).map_err(err)?;
    main.region.advance_micros(PAST_GC_GRACE_US);
    main.region.run_gc(hist.id).map_err(err)?;
    rec.interval("setup", start, rec.now_ns());
    Ok(World {
        main,
        live,
        stream,
        bulk,
        hist,
        orders_live,
    })
}

// ---------------------------------------------------------------------
// Query classes. Each runs one query through the facade and compares the
// result with the generator's reference.
// ---------------------------------------------------------------------

fn sum_amount<M>(rows: &[(M, Row)]) -> i64 {
    rows.iter()
        .filter_map(|(_, r)| r.values[col::AMOUNT].as_i64())
        .sum()
}

/// The six query classes (the names are part of the benchmark).
pub const CLASSES: [&str; 6] = [
    "q_agg", "q_filter", "q_point", "q_narrow", "q_export", "q_recent",
];

/// The scan a query class amounts to — predicate and projection — and
/// the schema positions of the columns it has to decode.
pub fn class_scan(class: &str, p: &Params, t: &Table) -> (ScanOptions, Vec<usize>) {
    let project = |cols: &[&str]| Some(cols.iter().map(|c| c.to_string()).collect());
    let (predicate, projection, columns) = match class {
        // Decode-bound, three columns, every row.
        "q_agg" => (
            Expr::True,
            project(&["day", "amount", "price"]),
            vec![col::DAY, col::AMOUNT, col::PRICE],
        ),
        // A predicate over every zone, then a gather of every column.
        "q_filter" => (
            Expr::ge("amount", Value::Int64(p.amount_lo))
                .and(Expr::lt("amount", Value::Int64(p.amount_hi))),
            None,
            (0..=col::SEQ).collect(),
        ),
        // Fragment properties + bloom + zone map on the clustering key.
        "q_point" => (
            Expr::eq("customer", Value::String(customer_name(p.customer))),
            project(&[]),
            vec![col::CUSTOMER],
        ),
        // Partition pruning + one-column decode.
        "q_narrow" => (
            Expr::eq("day", Value::Int64(p.day)),
            project(&["amount"]),
            vec![col::DAY, col::AMOUNT],
        ),
        // Full materialisation.
        "q_export" => (Expr::True, None, (0..=col::SEQ).collect()),
        // The newest rows by ingest sequence.
        _ => (
            Expr::ge(
                "seq",
                Value::Int64((t.reference.rows() - RECENT_ROWS) as i64),
            ),
            project(&[]),
            vec![col::SEQ],
        ),
    };
    let opts = ScanOptions {
        projection,
        ..scan_opts(predicate)
    };
    (opts, columns)
}

/// `q_agg`: `SUM(amount), AVG(price) GROUP BY day` over every row
/// (`COUNT(*)` rides along for the check; it reads no extra column).
pub fn q_agg(site: &Site, t: &Table, at: Timestamp, p: &Params) -> Result<bool, String> {
    let groups = site
        .engine
        .aggregate(
            t.id,
            at,
            &class_scan("q_agg", p, t).0,
            Some("day"),
            &[
                (AggKind::Count, None),
                (AggKind::Sum, Some("amount")),
                (AggKind::Avg, Some("price")),
            ],
        )
        .map_err(err)?;
    let want = t.reference.agg_by_day();
    Ok(groups.len() == want.len()
        && groups.iter().zip(&want).all(|((g, v), w)| {
            let avg_ok = matches!(v[2], Value::Float64(a) if (a - w.3).abs() <= 1e-9 * w.3.abs());
            *g == Some(Value::Int64(w.0))
                && v[0] == Value::Int64(w.1 as i64)
                && v[1] == Value::Int64(w.2)
                && avg_ok
        }))
}

/// `q_filter`: `amount` in a 10 % range, every column materialised.
pub fn q_filter(site: &Site, t: &Table, at: Timestamp, p: &Params) -> Result<bool, String> {
    let opts = class_scan("q_filter", p, t).0;
    let res = site.engine.scan(t.id, at, &opts).map_err(err)?;
    let want = t.reference.amount_range(p.amount_lo, p.amount_hi);
    Ok((res.rows.len() as u64, sum_amount(&res.rows)) == want)
}

/// `q_point`: `COUNT(*) WHERE customer = X` (the clustering key).
pub fn q_point(site: &Site, t: &Table, at: Timestamp, p: &Params) -> Result<bool, String> {
    let opts = class_scan("q_point", p, t).0;
    let n = site.engine.count(t.id, at, &opts).map_err(err)?;
    Ok(n == t.reference.customer_rows(p.customer))
}

/// `q_narrow`: `day = d` (the partition column), projection `[amount]`.
pub fn q_narrow(site: &Site, t: &Table, at: Timestamp, p: &Params) -> Result<bool, String> {
    let opts = class_scan("q_narrow", p, t).0;
    let res = site.engine.scan(t.id, at, &opts).map_err(err)?;
    Ok((res.rows.len() as u64, sum_amount(&res.rows)) == t.reference.day(p.day))
}

/// `q_export`: `client.read_rows(table)`, the second read driver, full
/// materialisation.
pub fn q_export(site: &Site, t: &Table) -> Result<bool, String> {
    let rows = site.client.read_rows(t.id).map_err(err)?;
    Ok(rows.complete
        && rows.rows.len() as u64 == t.reference.rows()
        && sum_amount(&rows.rows) == t.reference.sum_amount())
}

/// `q_recent`: `COUNT(*) WHERE seq >= acked - 500`; must see exactly the
/// newest 500 rows, including the append that was just acknowledged.
pub fn q_recent(site: &Site, t: &Table, at: Timestamp, p: &Params) -> Result<bool, String> {
    let opts = class_scan("q_recent", p, t).0;
    let n = site.engine.count(t.id, at, &opts).map_err(err)?;
    Ok(n == RECENT_ROWS)
}

// ---------------------------------------------------------------------
// Stages. A run is `LAPS` laps; each lap runs its share of every stage,
// in pipeline order. A stage's operations are therefore spread over the
// whole run instead of bunched into one second of it, so a slow spell of
// the host falls on every metric alike.
// ---------------------------------------------------------------------

/// Laps per run.
pub const LAPS: usize = 4;

/// The `lap`-th of [`LAPS`] near-equal shares of `total`.
fn share(total: usize, lap: usize) -> usize {
    total / LAPS + usize::from(lap < total % LAPS)
}

/// One append through the client: timed from the call to the durable ack,
/// checked for the exactly-once offset it must land at.
fn append_checked(
    rec: &mut Recorder,
    series: &'static str,
    w: &mut StreamWriter,
    gen: &mut Generator,
    t: &mut Table,
    rows: usize,
) -> bool {
    let batch = gen.batch(rows, &mut t.reference);
    let expect = w.next_offset();
    rec.op(series, |_| {
        let ack = w.append(batch).map_err(err)?;
        Ok(ack.row_offset == expect && ack.row_count == rows as u64)
    })
}

fn open(
    rec: &mut Recorder,
    f: impl FnOnce() -> vortex::VortexResult<StreamWriter>,
) -> Result<StreamWriter, String> {
    let mut out = Err("writer not created".to_string());
    rec.op("create_writer", |_| {
        out = f().map_err(err);
        Ok(out.is_ok())
    });
    out
}

/// Runs `f` as the current stage's share of a lap and records its extent.
fn staged(rec: &mut Recorder, stage: &'static str, f: impl FnOnce(&mut Recorder)) {
    rec.set_stage(stage);
    let start = rec.now_ns();
    f(rec);
    rec.interval("stage", start, rec.now_ns());
}

/// The measured script: the state the four stages carry from lap to lap.
pub struct Pipeline {
    plan: Plan,
    stream_writer: StreamWriter,
    hybrid_writer: StreamWriter,
    /// Hybrid appends issued so far: the every-10th/20th/200th cadence
    /// runs through the laps unbroken.
    hybrid_done: usize,
    /// The query stage's one fixed snapshot.
    query_at: Timestamp,
}

impl Pipeline {
    /// Opens the two long-lived streams and fixes the query snapshot.
    pub fn open(rec: &mut Recorder, w: &World, plan: &Plan) -> Result<Pipeline, String> {
        rec.set_stage("stream");
        let stream_writer = open(rec, || w.main.client.create_unbuffered_writer(w.stream.id))?;
        rec.set_stage("hybrid");
        let hybrid_writer = open(rec, || {
            w.live.client.create_unbuffered_writer(w.orders_live.id)
        })?;
        Ok(Pipeline {
            plan: *plan,
            stream_writer,
            hybrid_writer,
            hybrid_done: 0,
            query_at: w.main.client.snapshot(),
        })
    }

    /// One lap: this lap's share of each stage, in pipeline order.
    pub fn lap(&mut self, rec: &mut Recorder, gen: &mut Generator, w: &mut World, lap: usize) {
        let plan = self.plan;
        staged(rec, "stream", |rec| {
            self.stream(rec, gen, w, share(plan.stream_appends, lap))
        });
        staged(rec, "bulk", |rec| {
            for _ in 0..share(plan.bulk_rounds, lap) {
                bulk_round(rec, gen, w, plan.bulk_appends);
            }
        });
        staged(rec, "query", |rec| {
            self.query(rec, gen, w, share(plan.query_rounds, lap))
        });
        staged(rec, "hybrid", |rec| {
            self.hybrid(rec, gen, w, share(plan.hybrid_appends, lap))
        });
    }

    /// Stream stage (request-bound): one UNBUFFERED exactly-once stream
    /// of small appends, no reads, no maintenance — but for one read-back
    /// early in the stream's life (a tail read costs time in proportion
    /// to the tail, so it is made while the tail is short): after a
    /// heartbeat round, the newest rows must be countable by `seq`.
    fn stream(&mut self, rec: &mut Recorder, gen: &mut Generator, w: &mut World, appends: usize) {
        for _ in 0..appends {
            append_checked(
                rec,
                "append",
                &mut self.stream_writer,
                gen,
                &mut w.stream,
                STREAM_BATCH,
            );
            if self.stream_writer.next_offset() == READ_BACK_AT_ROW {
                let World { main, stream, .. } = &*w;
                rec.op("check.seq_window", |_| {
                    main.region.run_heartbeats(false).map_err(err)?;
                    let from = READ_BACK_AT_ROW - RECENT_ROWS;
                    let pred = Expr::ge("seq", Value::Int64(from as i64));
                    let n = main
                        .engine
                        .count(stream.id, main.client.snapshot(), &scan_opts(pred))
                        .map_err(err)?;
                    Ok(n == RECENT_ROWS)
                });
            }
        }
    }

    /// Query stage (read-only, historical): rounds of the five ROS query
    /// classes at one fixed snapshot, parameters drawn from the seed.
    fn query(&mut self, rec: &mut Recorder, gen: &mut Generator, w: &mut World, rounds: usize) {
        let (World { main, hist, .. }, at) = (w, self.query_at);
        for _ in 0..rounds {
            for (class, times) in ROUND {
                for _ in 0..times {
                    let p = gen.params();
                    rec.op(class, |_| match class {
                        "q_agg" => q_agg(main, hist, at, &p),
                        "q_filter" => q_filter(main, hist, at, &p),
                        "q_point" => q_point(main, hist, at, &p),
                        "q_narrow" => q_narrow(main, hist, at, &p),
                        _ => q_export(main, hist),
                    });
                }
            }
        }
    }

    /// Hybrid stage: writes beside reads beside background optimisation
    /// as one deterministic interleave. After every 10th append, at a
    /// fresh snapshot: `q_recent` (its completion closes the `visible`
    /// interval that the append's ack opened — no poll interval
    /// anywhere), `q_point`, `q_agg`; every 20th: heartbeats + ticks;
    /// every 200th: optimizer cycle + GC. Operation counts, fragment
    /// counts and rows scanned repeat exactly; only CPU time varies.
    fn hybrid(&mut self, rec: &mut Recorder, gen: &mut Generator, w: &mut World, appends: usize) {
        let World {
            live,
            orders_live: t,
            ..
        } = w;
        for _ in 0..appends {
            append_checked(rec, "append", &mut self.hybrid_writer, gen, t, HYBRID_BATCH);
            let acked_ns = rec.now_ns();
            self.hybrid_done += 1;
            let i = self.hybrid_done;
            if i.is_multiple_of(10) {
                let (at, p) = (live.client.snapshot(), gen.params());
                if rec.op("q_recent", |_| q_recent(live, t, at, &p)) {
                    rec.interval("visible", acked_ns, rec.now_ns());
                }
                rec.op("q_point", |_| q_point(live, t, at, &p));
                rec.op("q_agg", |_| q_agg(live, t, at, &p));
            }
            if i.is_multiple_of(20) {
                rec.op("heartbeats", |_| {
                    live.region.run_heartbeats(false).map_err(err)?;
                    live.region.run_ticks();
                    Ok(true)
                });
            }
            if i.is_multiple_of(200) {
                // The virtual clock is left alone here: the stream is
                // live, and collecting converted fragments from under a
                // live streamlet makes later tail reads fail ("snapshot
                // too old"). The GC sweep still runs and finds nothing
                // past its grace.
                rec.op("optimizer_cycle", |rec| {
                    rec.note(
                        "optimizer.backlog",
                        live.region.optimizer().backlog(t.id) as f64,
                    );
                    live.region.run_optimizer_cycle(t.id).map_err(err)?;
                    live.region.run_gc(t.id).map_err(err)?;
                    Ok(true)
                });
            }
        }
    }

    /// Untimed close of the stream stage: after a heartbeat round the SMS
    /// must report the stream's full length.
    pub fn close(self, rec: &mut Recorder, w: &World) {
        let World { main, stream, .. } = w;
        rec.set_stage("epilogue");
        let total = stream.reference.rows();
        rec.op("check.stream_length", |_| {
            main.region.run_heartbeats(false).map_err(err)?;
            let len = main
                .region
                .sms()
                .stream_length(stream.id, self.stream_writer.stream_id())
                .map_err(err)?;
            Ok(len == total && self.stream_writer.next_offset() == total)
        });
    }
}

/// One round of the bulk stage (byte-bound writes plus the optimizer):
/// one PENDING stream of large appends → finalize → batch commit →
/// heartbeats → convert → recluster → past the GC grace → GC → metadata
/// checkpoint.
fn bulk_round(rec: &mut Recorder, gen: &mut Generator, w: &mut World, appends: usize) {
    let World { main, bulk, .. } = w;
    let Ok(mut writer) = open(rec, || main.client.create_pending_writer(bulk.id)) else {
        return;
    };
    let before = bulk.reference.rows();
    for _ in 0..appends {
        append_checked(rec, "bulk_append", &mut writer, gen, bulk, BULK_BATCH);
    }
    let loaded = bulk.reference.rows() - before;
    let stream = writer.stream_id();
    rec.op("finalize", |_| {
        writer.finalize().map(|()| true).map_err(err)
    });
    rec.op("batch_commit", |_| {
        let at = main.client.batch_commit(bulk.id, &[stream]).map_err(err)?;
        Ok(at <= main.client.snapshot())
    });
    rec.op("heartbeats", |_| {
        main.region.run_heartbeats(false).map(|_| true).map_err(err)
    });
    rec.op("convert", |rec| {
        let report = main.region.optimizer().convert_wos(bulk.id).map_err(err)?;
        rec.note("convert.bytes_in", report.bytes_in as f64);
        rec.note("convert.bytes_out", report.bytes_out as f64);
        Ok(report.rows == loaded)
    });
    rec.op("recluster", |rec| {
        let report = main.region.optimizer().recluster(bulk.id).map_err(err)?;
        rec.note("recluster.merged", f64::from(u8::from(report.merged)));
        Ok(true)
    });
    main.region.advance_micros(PAST_GC_GRACE_US);
    rec.op("gc", |rec| {
        let files = main.region.run_gc(bulk.id).map_err(err)?;
        rec.note("gc.files", files as f64);
        Ok(files > 0)
    });
    rec.op("checkpoint", |_| {
        main.region.checkpoint_metadata().map(|_| true).map_err(err)
    });
}

/// Durability epilogue (untimed): kill and restart every Stream Server of
/// the main region, recover a metastore replica from Colossus alone, and
/// require the bulk table to still answer `COUNT(*)` and `SUM(amount)`
/// from the generator's reference.
pub fn durability_epilogue(rec: &mut Recorder, w: &World) {
    let World { main, bulk, .. } = w;
    rec.set_stage("epilogue");
    rec.op("check.restart_servers", |rec| {
        for i in 0..main.region.servers().len() {
            rec.timed("restart_server", |_| {
                main.region.kill_server(i);
                main.region.restart_server(i).map_err(err)
            })?;
        }
        main.region.run_heartbeats(true).map(|_| true).map_err(err)
    });
    rec.op("check.recover_metastore", |rec| {
        let (replica, report) = rec
            .timed("recover_metastore", |_| {
                main.region.recover_metastore_replica()
            })
            .map_err(err)?;
        rec.note("commits_replayed", report.commits_replayed as f64);
        let live = main.region.store();
        Ok(report.fallback_depth == 0
            && report.torn_bytes_dropped == 0
            && replica.scan_prefix_at("", replica.now()) == live.scan_prefix_at("", live.now()))
    });
    rec.op("check.bulk_after_restart", |_| {
        let got = main
            .engine
            .aggregate(
                bulk.id,
                main.client.snapshot(),
                &scan_opts(Expr::True),
                None,
                &[(AggKind::Count, None), (AggKind::Sum, Some("amount"))],
            )
            .map_err(err)?;
        let want = [
            Value::Int64(bulk.reference.rows() as i64),
            Value::Int64(bulk.reference.sum_amount()),
        ];
        Ok(got.len() == 1 && got[0].1 == want)
    });
}
