//! Read amplification as a number: what `wos.rows_decoded` gains against
//! the rows a reconciliation or a tail read is about — none when a live
//! server's report of what it sealed is adopted, each row once when its
//! server is dead — and what `wos.records_indexed` gains against the
//! records a reconciliation reads. One test in a binary of its own — the
//! metrics registry is process-global, and any neighbour that reads a log
//! file would move the counter.

use vortex::row::{Row, RowSet, Value};
use vortex::schema::{Field, FieldType, Schema};
use vortex::{QueryEngine, Region, RegionConfig, ScanOptions};
use vortex_client::read::{read_tail_cached, TailOutcome};

fn rows(start: i64, n: usize) -> RowSet {
    RowSet::new(
        (start..start + n as i64)
            .map(|k| Row::insert(vec![Value::Int64(k), Value::String(format!("v{k}"))]))
            .collect(),
    )
}

#[test]
fn every_log_row_is_decoded_once() {
    const R: u64 = 100;
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let schema = || {
        Schema::new(vec![
            Field::required("k", FieldType::Int64),
            Field::required("v", FieldType::String),
        ])
    };
    let decoded = || {
        let counters = region.metrics_snapshot().counters;
        counters.get("wos.rows_decoded").copied().unwrap_or(0)
    };

    // Finalizing a PENDING stream reconciles its streamlet: two healthy
    // replicas are compared by their bytes, and the row count and column
    // properties are the live server's, which the copies vouch for — no
    // row is decoded.
    let bulk = client.create_table("bulk", schema()).unwrap().table;
    let mut w = client.create_pending_writer(bulk).unwrap();
    w.append(rows(0, 60)).unwrap();
    w.append(rows(60, 40)).unwrap();
    let indexed = || {
        let counters = region.metrics_snapshot().counters;
        counters.get("wos.records_indexed").copied().unwrap_or(0)
    };
    let (before, walked) = (decoded(), indexed());
    w.finalize().unwrap();
    assert_eq!(decoded() - before, 0, "rows decoded by finalize");
    // The two copies agree, so each is framed once and no more: twice the
    // records the finalized (and poisoned) log file holds.
    let walked = indexed() - walked;
    let files = region
        .fleet()
        .get(region.sms().get_table(bulk).unwrap().primary);
    let files = files.unwrap();
    let log = files.list("wos/").unwrap();
    assert_eq!(log.len(), 1);
    let before = indexed();
    vortex_wos::index_fragment(&files.read_all(&log[0]).unwrap().data, None).unwrap();
    assert_eq!(
        walked,
        2 * (indexed() - before),
        "records framed by finalize"
    );

    // A count over a table whose only data is a single-file tail: both
    // copies are indexed for the commit rule, one is decoded.
    let fresh = client.create_table("fresh", schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(fresh).unwrap();
    w.append(rows(0, 60)).unwrap();
    w.append(rows(60, 40)).unwrap();
    let before = decoded();
    let counted = region
        .engine()
        .count(fresh, client.snapshot(), &ScanOptions::default());
    assert_eq!(counted.unwrap(), R);
    assert_eq!(decoded() - before, R, "rows decoded by the tail read");

    // With the hosting server dead nothing is reported: the authoritative
    // copy is decoded once, for its row count and column properties.
    let orphaned = client.create_table("orphaned", schema()).unwrap().table;
    let mut w = client.create_pending_writer(orphaned).unwrap();
    w.append(rows(0, 60)).unwrap();
    w.append(rows(60, 40)).unwrap();
    for i in 0..region.server_channels().len() {
        region.kill_server(i);
    }
    let before = decoded();
    w.finalize().unwrap();
    assert_eq!(
        decoded() - before,
        R,
        "rows decoded by a finalize without a server"
    );

    // The same over a tail of several log files the catalog has not heard
    // of: predecessors come from one replica, the File Map vouching.
    let small = Region::create(RegionConfig {
        fragment_max_bytes: 512,
        ..RegionConfig::default()
    })
    .unwrap();
    let client = small.client();
    let rotated = client.create_table("rotated", schema()).unwrap().table;
    let mut w = client.create_unbuffered_writer(rotated).unwrap();
    for start in (0..R as i64).step_by(10) {
        w.append(rows(start, 10)).unwrap();
    }
    let files = small
        .fleet()
        .get(small.sms().get_table(rotated).unwrap().primary);
    assert!(files.unwrap().list("wos/").unwrap().len() > 2);
    let before = decoded();
    let counted = small
        .engine()
        .count(rotated, client.snapshot(), &ScanOptions::default());
    assert_eq!(counted.unwrap(), R);
    assert_eq!(
        decoded() - before,
        R,
        "rows decoded by the multi-file tail read"
    );

    // Once the catalog lists those files, they are read as fragments from
    // the entries the tail read left: every file a hit, no row decoded.
    // The same after reconciliation, counted from where it left off.
    let primary = small.sms().get_table(rotated).unwrap().primary;
    let log_files = small.fleet().get(primary).unwrap().list("wos/").unwrap();
    let files = log_files.len() as u64;
    small.run_heartbeats(false).unwrap();
    let listed = small.sms().list_read_fragments(rotated, client.snapshot());
    assert!(!listed.unwrap().fragments.is_empty(), "files listed");
    let scan = || {
        let (before, at) = (decoded(), client.snapshot());
        let all = small.engine().scan(rotated, at, &ScanOptions::default());
        let stats = all.unwrap().stats;
        assert_eq!(stats.rows_matched, R);
        (decoded() - before, stats.cache_hits, stats.cache_misses)
    };
    assert_eq!(scan(), (0, files, 0), "a listed file decoded again");
    let slid = small.sms().list_read_fragments(rotated, client.snapshot());
    let slid = slid.unwrap().tails[0].streamlet;
    small.sms().reconcile_streamlet(rotated, slid).unwrap();
    assert_eq!(scan().0, 0, "a reconciled file decoded again");

    repeated_reader(schema());
    full_zones_are_kept(schema());
}

/// A last zone that is exactly full — 64 polls of 16 rows — or over-full
/// from one large block is not open: the poll that extends the file past
/// it leaves it in the entry (regression: the extend step took the last
/// zone out to top it up and dropped it when it was full, so a warm read
/// lost `ZONE_ROWS` or more acked rows). Each poll still decodes what was
/// appended and no more, and counts what a cold read counts.
fn full_zones_are_kept(schema: Schema) {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let engine = region.engine();
    let cold = QueryEngine::new(region.sms().clone(), region.fleet().clone());
    let decoded = || region.metrics_snapshot().counters["wos.rows_decoded"];
    let plans = [
        ("sixteens", vec![16; 140]),
        ("blocks", vec![2000, 50, 1024, 1, 1023, 1024, 5, 1019, 3000]),
    ];
    for (name, plan) in plans {
        let t = client.create_table(name, schema.clone()).unwrap().table;
        let mut w = client.create_unbuffered_writer(t).unwrap();
        let mut total = 0;
        for n in plan {
            w.append(rows(total as i64, n)).unwrap();
            total += n;
            let (at, opts) = (client.snapshot(), ScanOptions::default());
            let before = decoded();
            let warm = engine.count(t, at, &opts).unwrap();
            assert_eq!(warm, total as u64, "{name}: warm count at {total} rows");
            assert_eq!(decoded() - before, n as u64, "{name}: decoded at {total}");
            assert_eq!(cold.count(t, at, &opts).unwrap(), warm, "{name}: cold");
        }
        // One log file, its zones as full as the appends allow.
        let at = client.snapshot();
        let rs = region.sms().list_read_fragments(t, at).unwrap();
        let key = region.sms().get_table(t).unwrap().encryption_key();
        let cache = Some(region.read_cache().as_ref());
        let tail = read_tail_cached(&rs.tails[0], region.fleet(), &key, at, cache).unwrap();
        let TailOutcome::Rows(tail) = tail else {
            panic!("a healthy tail needs no reconciliation");
        };
        assert_eq!(tail.len(), total);
        let sizes: Vec<usize> = tail.iter().map(|(zone, _)| zone.metas.len()).collect();
        if name == "sixteens" {
            assert_eq!(sizes, [1024, 1024, 192], "{name}");
        }
    }
}

/// The repeated reader: a tail the catalog never hears of grows by `K`
/// rows between queries and rotates through several log files. What a
/// query decodes and what it reads of each replica is bounded by what
/// was appended since the previous one — whatever the tail's length.
fn repeated_reader(schema: Schema) {
    const K: usize = 50;
    const STEPS: usize = 120;
    // Record headers a query may read again: the records after the last
    // certified block (an idle-tick commit record, a finalized file's
    // bloom and footer headers).
    const SLACK: u64 = 4 * 48;
    let region = Region::create(RegionConfig {
        fragment_max_bytes: 16 << 10,
        ..RegionConfig::default()
    })
    .unwrap();
    let client = region.client();
    let t = client.create_table("polled", schema).unwrap();
    let (key, t) = (t.encryption_key(), t.table);
    let mut w = client.create_unbuffered_writer(t).unwrap();
    let engine = region.engine();
    let count = |at| engine.count(t, at, &ScanOptions::default()).unwrap();
    let decoded = || region.metrics_snapshot().counters["wos.rows_decoded"];
    let replicas: Vec<_> = region.fleet().clusters().collect();
    let log_files = |c: usize| replicas[c].list("wos/").unwrap();
    // Per cluster: bytes its log files hold, bytes it has served.
    let stored = || {
        let held = |c| (log_files(c).iter().map(|p| replicas[c].len(p).unwrap())).sum();
        (0..replicas.len()).map(held).collect::<Vec<u64>>()
    };
    let served = || (replicas.iter().map(|c| c.read_counts().1)).collect::<Vec<u64>>();

    let mut at_step = Vec::new();
    let mut held = stored();
    for step in 0..STEPS {
        w.append(rows((step * K) as i64, K)).unwrap();
        let rows_now = ((step + 1) * K) as u64;
        let (appended, before) = (stored(), (decoded(), served()));
        let at = client.snapshot();
        assert_eq!(count(at), rows_now);
        at_step.push(at);
        // Tail lengths 10× apart and everything between: one bound.
        let gained = decoded() - before.0;
        assert!(
            gained <= (K + vortex_ros::ZONE_ROWS) as u64,
            "step {step}: {gained} rows"
        );
        assert!(
            step == 0 || gained == K as u64,
            "step {step}: {gained} rows"
        );
        for (c, now) in served().into_iter().enumerate() {
            let (read, new) = (now - before.1[c], appended[c] - held[c]);
            assert!(
                read <= new + SLACK,
                "step {step}, replica {c}: read {read} of {new} new"
            );
        }
        held = appended;
        // The same snapshot again, twice: nothing decoded, nothing new read.
        let before = (decoded(), served());
        assert_eq!((count(at), count(at)), (rows_now, rows_now));
        assert_eq!(decoded(), before.0, "step {step}: a repeat decoded rows");
        for (c, now) in served().into_iter().enumerate() {
            assert!(now - before.1[c] <= 2 * SLACK, "step {step}, replica {c}");
        }
    }
    let files = (0..replicas.len())
        .map(|c| log_files(c).len())
        .max()
        .unwrap();
    assert!(files >= 3, "the tail rotated: {files} log files");

    // The scan says what it added to the cache: the new rows and their
    // bytes on both replicas, then nothing — every log file is a hit.
    let was = stored();
    w.append(rows((STEPS * K) as i64, K)).unwrap();
    let new_bytes: u64 = stored().iter().zip(&was).map(|(now, was)| now - was).sum();
    let at = client.snapshot();
    let first = engine.scan(t, at, &ScanOptions::default()).unwrap().stats;
    assert_eq!(first.tail_rows_decoded, K as u64);
    assert_eq!(first.tail_bytes_read, new_bytes);
    let again = engine.scan(t, at, &ScanOptions::default()).unwrap().stats;
    assert_eq!((again.tail_rows_decoded, again.tail_bytes_read), (0, 0));
    assert_eq!((again.cache_hits, again.cache_misses), (files as u64, 0));
    assert_eq!(again.rows_scanned, ((STEPS + 1) * K) as u64);

    // An older snapshot after a newer one: a prefix of the same entries.
    let before = decoded();
    assert_eq!(count(at_step[11]), 12 * K as u64);
    assert_eq!(decoded(), before, "an older snapshot decoded rows");

    // Zones are topped up, not left one per poll.
    let at = client.snapshot();
    let rs = region.sms().list_read_fragments(t, at).unwrap();
    assert_eq!((rs.fragments.len(), rs.tails.len()), (0, 1));
    let cache = Some(region.read_cache().as_ref());
    let tail = read_tail_cached(&rs.tails[0], region.fleet(), &key, at, cache).unwrap();
    let TailOutcome::Rows(tail) = tail else {
        panic!("a healthy tail needs no reconciliation");
    };
    assert_eq!(tail.len(), (STEPS + 1) * K);
    let zones = tail.iter().count();
    let most = ((STEPS + 1) * K).div_ceil(vortex_ros::ZONE_ROWS) + files;
    assert!(zones <= most, "{zones} zones for {files} files");
}
