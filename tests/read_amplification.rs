//! Read amplification of scans over ROS as numbers: what a query fetches
//! (`scan.bytes_fetched`, `scan.reads`, the clusters' own `bytes_read`)
//! against the size of the files it could not rule out by their catalogued
//! column properties — cold, on a first scan or through an engine without
//! a cache, and warm, through the region's read cache — and what a DELETE
//! or an UPDATE reads to find its rows. One test in a binary of its own —
//! the metrics registry is process-global, and any neighbour that scans
//! would move the counters.

use std::collections::BTreeMap;

use vortex::row::{Row, RowSet, Value};
use vortex::schema::{Field, FieldType, PartitionTransform, Schema};
use vortex::{
    AggKind, DmlExecutor, Expr, FragmentKind, QueryEngine, ReadCache, Region, RegionConfig,
    ScanOptions, SqlSession, VortexClient,
};
use vortex_sms::readset::ReadSet;

const DAYS: i64 = 4;
const ROWS_PER_DAY: i64 = 6_000;
const CUSTOMERS: u64 = 2_000;

fn customer(r: u64) -> Value {
    Value::String(format!("cust-{:05}", r % CUSTOMERS))
}

/// The benchmark's `orders` shape, seeded: `DAYS` partitions, customers
/// uniform over each.
fn orders(day: i64) -> RowSet {
    let row = |i: i64| {
        let r = ((day * ROWS_PER_DAY + i) as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23);
        Row::insert(vec![
            Value::Int64(day),
            customer(r),
            Value::Int64((r >> 16) as i64 % 1_000_000),
            Value::Float64(((r >> 24) % 100_000) as f64 / 100.0),
            match r % 10 {
                0 => Value::Null,
                _ => Value::String(format!("order note {r:016x} for the ledger, line {i:04}")),
            },
            Value::Int64(day * ROWS_PER_DAY + i),
        ])
    };
    RowSet::new((0..ROWS_PER_DAY).map(row).collect())
}

/// The counters a scan moves, summed over the clusters where they are
/// per cluster.
fn counters(region: &Region) -> BTreeMap<&'static str, u64> {
    let all = region.metrics_snapshot().counters;
    let sum = |suffix: &str| {
        let per_cluster = all
            .iter()
            .filter(|(k, _)| k.starts_with("colossus.") && k.ends_with(suffix));
        per_cluster.map(|(_, v)| v).sum()
    };
    let one = |name: &str| all.get(name).copied().unwrap_or(0);
    BTreeMap::from([
        ("bytes_fetched", one("scan.bytes_fetched")),
        ("reads", one("scan.reads")),
        ("row_metas", one("ros.row_metas_built")),
        ("cells", one("scan.cells_decoded")),
        ("bytes_decoded", one("scan.bytes_decoded")),
        ("zones", one("scan.zones_total")),
        ("zones_folded", one("scan.zones_folded")),
        ("cluster_reads", sum(".reads")),
        ("cluster_bytes", sum(".bytes_read")),
    ])
}

/// What `query` added to each counter.
fn moved<T>(region: &Region, query: impl FnOnce() -> T) -> (T, BTreeMap<&'static str, u64>) {
    let before = counters(region);
    let out = query();
    let after = counters(region);
    let delta = |(k, v): (&&'static str, &u64)| (*k, v - before[k]);
    (out, after.iter().map(delta).collect())
}

/// Blocks and bytes of the read set's fragments that their catalogued
/// column properties cannot rule out for `predicate`.
fn surviving(rs: &ReadSet, predicate: &Expr) -> (u64, u64) {
    let kept = rs.fragments.iter().filter(|spec| {
        let by_name = |c: &str| {
            let found = spec.meta.stats.iter().find(|(n, _)| n == c);
            found.map(|(_, s)| s.clone())
        };
        predicate.may_match_stats(&by_name)
    });
    kept.fold((0, 0), |(n, bytes), spec| {
        (n + 1, bytes + spec.meta.committed_size)
    })
}

#[test]
fn a_scan_pays_for_the_chunks_it_decodes() {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let schema = Schema::new(vec![
        Field::required("day", FieldType::Int64),
        Field::required("customer", FieldType::String),
        Field::required("amount", FieldType::Int64),
        Field::required("price", FieldType::Float64),
        Field::nullable("note", FieldType::String),
        Field::required("seq", FieldType::Int64),
    ])
    .with_partition("day", PartitionTransform::Identity)
    .with_clustering(&["customer"]);
    let t = client.create_table("orders", schema).unwrap().table;
    // Two streams, each of every day: a conversion and a recluster leave
    // every partition as blocks with disjoint customer ranges.
    for half in 0..2 {
        let mut w = client.create_unbuffered_writer(t).unwrap();
        for day in 0..DAYS {
            let rows = orders(day).rows;
            let (a, b) = rows.split_at(rows.len() / 2);
            w.append(RowSet::new([a, b][half].to_vec())).unwrap();
        }
        region.sms().finalize_stream(t, w.stream_id()).unwrap();
    }
    region.optimizer().convert_wos(t).unwrap();
    assert!(region.optimizer().recluster(t).unwrap().merged);
    let at = client.snapshot();
    let rs = region.sms().list_read_fragments(t, at).unwrap();
    let all_ros = (rs.fragments.iter()).all(|f| f.meta.kind == FragmentKind::Ros);
    assert!(all_ros && rs.tails.is_empty());
    let (blocks, table_bytes) = surviving(&rs, &Expr::True);
    assert!(blocks >= 8, "{blocks} blocks");
    let engine = region.engine();
    // Engines that remember nothing, and one with a cache of its own that
    // feeds the region's freshness probe.
    let cold = QueryEngine::new(region.sms().clone(), region.fleet().clone());
    let fresh = || {
        QueryEngine::new(region.sms().clone(), region.fleet().clone()).with_observability(
            region.truetime().clone(),
            ReadCache::new(usize::MAX),
            region.freshness().clone(),
        )
    };
    let share = |part: u64, whole: u64| part as f64 / whole as f64;

    // A full scan: the index in two reads and the body in one, every byte
    // of every file once — and the freshness probe has now seen every
    // row, so no later query owes it a timestamp.
    let every = ScanOptions::default();
    let (scan, d) = moved(&region, || engine.scan(t, at, &every).unwrap());
    assert_eq!(scan.rows.len() as i64, DAYS * ROWS_PER_DAY);
    assert_eq!(
        (scan.stats.reads, scan.stats.bytes_fetched),
        (d["reads"], d["bytes_fetched"])
    );
    assert_eq!((d["reads"], d["bytes_fetched"]), (3 * blocks, table_bytes));
    // The scan's counts are the clusters': nothing else was read.
    assert_eq!(
        (d["cluster_reads"], d["cluster_bytes"]),
        (d["reads"], d["bytes_fetched"])
    );
    assert_eq!(d["row_metas"] as i64, DAYS * ROWS_PER_DAY);
    // The region's cache now holds every byte of every file but the
    // trailers' (14 bytes of fields and a CRC), vsnap chunks expanded.
    let held = region.metrics_snapshot().gauges["cache.bytes"] as u64;
    assert!(held >= table_bytes - 18 * blocks, "{held} of {table_bytes}");
    // The same scan again reads nothing: every block is a hit, its index
    // and every chunk held — no read, no CRC, no cipher, no vsnap pass.
    let (again, d) = moved(&region, || engine.scan(t, at, &every).unwrap());
    assert_eq!(again.rows, scan.rows);
    assert_eq!(
        (d["reads"], d["bytes_fetched"], d["cluster_reads"]),
        (0, 0, 0)
    );
    assert_eq!((again.stats.reads, again.stats.bytes_fetched), (0, 0));
    assert!(again.stats.cache_hits >= blocks, "{:?}", again.stats);
    assert_eq!(again.stats.cache_misses, 0);

    // A point count on the clustering key: the blocks whose customer
    // range covers it, less those the bloom filter rules out; of the
    // rest the index and the zones of `customer` the zone maps keep.
    let who = customer(0x5EED);
    let point = ScanOptions {
        predicate: Expr::eq("customer", who.clone()),
        ..ScanOptions::default()
    };
    let expected = scan.rows.iter().filter(|(_, r)| r.values[1] == who).count();
    assert!(expected > 0);
    let (counted, d) = moved(&region, || cold.count(t, at, &point).unwrap());
    assert_eq!(counted as usize, expected);
    let (covering, covering_bytes) = surviving(&rs, &point.predicate);
    assert!(
        covering < blocks,
        "{covering} of {blocks} blocks cover the customer"
    );
    let fetched = share(d["bytes_fetched"], covering_bytes);
    assert!(
        fetched <= 0.15,
        "a point count fetched {fetched:.3} of the files"
    );
    assert_eq!(d["row_metas"], 0, "a count builds no RowMeta");
    assert_eq!(
        (d["cluster_reads"], d["cluster_bytes"]),
        (d["reads"], d["bytes_fetched"])
    );
    // The zones of `customer` it fetches are compared on their FSST codes
    // (its runs' values, here), and not one cell of them decodes.
    assert_eq!((d["bytes_fetched"], d["cells"]), (23_868, 0));
    assert!(d["bytes_decoded"] > 0);
    // Its reads: the index, then at most a run per zone of one column.
    let s = cold.scan(
        t,
        at,
        &ScanOptions {
            projection: Some(vec![]),
            ..point.clone()
        },
    );
    let s = s.unwrap().stats;
    assert_eq!(s.rows_matched as usize, expected);
    let opened = covering - s.pruned_by_bloom as u64;
    let zones_read = (s.zones_total - s.zones_pruned) as u64;
    assert!(d["reads"] >= 2 * covering && d["reads"] <= 2 * covering + zones_read);
    assert!(zones_read <= 2 * opened, "{s:?}");
    // Warm, the same count reads no index, and no chunk either.
    let (counted, d) = moved(&region, || engine.count(t, at, &point).unwrap());
    assert_eq!(
        (counted as usize, d["reads"], d["cluster_reads"]),
        (expected, 0, 0)
    );
    assert_eq!(d["cells"], 0);

    // A customer inside the blocks' ranges who has no row: the bloom
    // filters say so, and the indexes are all that is read.
    let nobody = ScanOptions {
        predicate: Expr::eq("customer", Value::String("cust-00500x".into())),
        projection: Some(vec![]),
        ..ScanOptions::default()
    };
    let (scan, d) = moved(&region, || cold.scan(t, at, &nobody).unwrap());
    let (covering, _) = surviving(&rs, &nobody.predicate);
    assert_eq!(covering * 2, blocks, "min/max cannot tell");
    assert_eq!(
        scan.stats.pruned_by_bloom as u64, covering,
        "{:?}",
        scan.stats
    );
    assert_eq!((scan.rows.len(), scan.stats.zones_total), (0, 0));
    assert_eq!(d["reads"], 2 * covering);

    // One column of one partition, as rows: that partition's blocks, and
    // of them `amount` and the rows' provenance — every zone's map says it
    // holds that day alone, so `day` is neither fetched nor decoded.
    let narrow = ScanOptions {
        predicate: Expr::eq("day", Value::Int64(2)),
        projection: Some(vec!["amount".into()]),
        ..ScanOptions::default()
    };
    let (scan, d) = moved(&region, || cold.scan(t, at, &narrow).unwrap());
    assert_eq!(scan.rows.len() as i64, ROWS_PER_DAY);
    let (of_day, of_day_bytes) = surviving(&rs, &narrow.predicate);
    assert_eq!(of_day * DAYS as u64, blocks);
    let fetched = share(d["bytes_fetched"], of_day_bytes);
    assert!(
        fetched <= 0.35,
        "one column of a partition fetched {fetched:.3}"
    );
    // A column and the four of provenance: two runs after the index.
    assert_eq!(d["reads"], (2 + 2) * of_day);
    let narrow_cells = d["cells"];
    assert_eq!(narrow_cells as i64, (1 + 4) * ROWS_PER_DAY);
    // Counted, that partition is its blocks' indexes alone: their zone
    // maps decide `day`, and a count reads no other column.
    let day_count = ScanOptions {
        projection: None,
        ..narrow.clone()
    };
    let (counted, d) = moved(&region, || cold.count(t, at, &day_count).unwrap());
    assert_eq!(counted as i64, ROWS_PER_DAY);
    assert_eq!(
        (d["reads"], d["cells"], d["bytes_decoded"]),
        (2 * of_day, 0, 0)
    );
    // The SQL shell passes its select list down: it decodes what the
    // engine call with that projection decodes.
    let sql = SqlSession::new(client.clone());
    let (res, d) = moved(&region, || {
        sql.execute("SELECT amount FROM orders WHERE day = 2")
            .unwrap()
    });
    assert!(
        matches!(res, vortex::SqlResult::Rows { rows, .. } if rows.len() as i64 == ROWS_PER_DAY)
    );
    assert_eq!(d["cells"], narrow_cells);
    // Through a cache that holds the partition's blocks — index, `amount`,
    // provenance — a column no cell holds is one run a block, and nothing
    // else is read.
    let warm = fresh();
    warm.scan(t, at, &narrow).unwrap();
    let prices = [(AggKind::Sum, Some("price"))];
    let on_day = |engine: &QueryEngine| {
        let opts = ScanOptions {
            projection: None,
            ..narrow.clone()
        };
        engine.aggregate(t, at, &opts, None, &prices).unwrap()
    };
    let (sum, d) = moved(&region, || on_day(&warm));
    assert_eq!(sum, on_day(&cold));
    assert_eq!(d["reads"], of_day);
    assert!(d["bytes_fetched"] > 0 && d["bytes_fetched"] * 8 < of_day_bytes);

    // A tenth of the rows, spread over every zone, as rows: the
    // predicate's column decodes whole, every other column and the
    // provenance at the rows the filter kept — and the fetch plan is the
    // full scan's, chunk for chunk.
    let tenth = ScanOptions {
        predicate: Expr::lt("amount", Value::Int64(100_000)),
        ..ScanOptions::default()
    };
    let (scan, d) = moved(&region, || cold.scan(t, at, &tenth).unwrap());
    let (scanned, kept) = (scan.stats.rows_scanned, scan.rows.len() as u64);
    assert_eq!(scanned as i64, DAYS * ROWS_PER_DAY);
    assert!(kept * 9 < scanned && scanned < kept * 11, "{kept} rows");
    assert_eq!(d["row_metas"], kept);
    assert_eq!(d["cells"], scanned + kept * (5 + 4));
    assert_eq!(scan.stats.cells_decoded, d["cells"]);
    assert_eq!((d["reads"], d["bytes_fetched"]), (3 * blocks, table_bytes));
    // Decoded but not returned: the filter kept a row in every zone, so
    // every chunk of the table was walked — the chunk bytes a scan that
    // returns every row decodes whole — for a tenth of its cells.
    let (tenth_bytes, tenth_cells) = (d["bytes_decoded"], d["cells"]);
    assert_eq!(scan.stats.bytes_decoded, tenth_bytes);
    // Every row, by a predicate on `amount` that no zone map decides (one
    // they decide reads no column: `amount >= 0` selects every zone whole).
    let all_of = |tenth: &ScanOptions| ScanOptions {
        predicate: tenth.predicate.clone().or(tenth.predicate.clone().not()),
        ..tenth.clone()
    };
    let (all, d) = moved(&region, || cold.scan(t, at, &all_of(&tenth)).unwrap());
    assert_eq!(all.stats.rows_scanned, scanned);
    assert_eq!(
        (all.rows.len() as u64, d["cells"]),
        (scanned, scanned * (6 + 4))
    );
    assert_eq!(d["bytes_decoded"], tenth_bytes);
    assert!(tenth_cells * 5 < d["cells"]);
    // The chunk cells are what the region's cache holds less the indexes.
    assert!(
        tenth_bytes < held && tenth_bytes * 10 > held * 9,
        "{tenth_bytes} of {held}"
    );
    // Two string columns of them: the strings of the kept rows only.
    let strings = ScanOptions {
        projection: Some(vec!["customer".into(), "note".into()]),
        ..tenth.clone()
    };
    let (scan, d) = moved(&region, || cold.scan(t, at, &strings).unwrap());
    assert_eq!(scan.rows.len() as u64, kept);
    assert_eq!(d["row_metas"], kept);
    assert_eq!(d["cells"], scanned + kept * (2 + 4));
    // And the bytes of exactly those chunks: `amount`, `customer`, `note`
    // and the provenance of every zone.
    let strings_bytes = d["bytes_decoded"];
    let (_, whole) = moved(&region, || cold.scan(t, at, &all_of(&strings)).unwrap());
    assert_eq!(whole["cells"], scanned * (3 + 4));
    assert_eq!(strings_bytes, whole["bytes_decoded"]);
    assert!(strings_bytes < tenth_bytes);
    // `customer` and `amount` side by side, `note`, the provenance: three
    // runs after the index, and the bytes of those chunks whole — the
    // fetch plan is made before the filter runs and owes it nothing.
    assert_eq!(
        (d["reads"], d["bytes_fetched"]),
        ((2 + 3) * blocks, 719_298)
    );

    // An aggregate over three of six columns, every row of the table.
    let three = ScanOptions {
        projection: Some(vec!["day".into(), "amount".into(), "price".into()]),
        ..ScanOptions::default()
    };
    let aggs = [
        (AggKind::Count, None),
        (AggKind::Sum, Some("amount")),
        (AggKind::Avg, Some("price")),
    ];
    let (groups, d) = moved(&region, || {
        cold.aggregate(t, at, &three, Some("day"), &aggs).unwrap()
    });
    assert_eq!(groups.len() as i64, DAYS);
    assert!(groups
        .iter()
        .all(|(_, v)| v[0] == Value::Int64(ROWS_PER_DAY)));
    assert_eq!(d["row_metas"], 0, "an aggregate builds no RowMeta");
    // Every zone is selected whole, so the index answers its group (its
    // zone map) and SUM(amount) (its sum), and AVG folds `price` as it
    // unpacks: nothing decodes into a vector, and of the chunks `price`
    // alone is read — the index, then one run a block, the bytes a MIN,
    // which the index does not answer, reads of `price`.
    assert_eq!((d["cells"], d["bytes_decoded"]), (0, 0));
    assert_eq!(d["zones_folded"], d["zones"]);
    // A block is half a day's 6 000 rows: three zones.
    assert_eq!(d["zones"], 3 * blocks);
    let price = ScanOptions {
        projection: Some(vec!["price".into()]),
        ..ScanOptions::default()
    };
    let least = [(AggKind::Min, Some("price"))];
    let (_, of_price) = moved(&region, || {
        cold.aggregate(t, at, &price, None, &least).unwrap()
    });
    assert_eq!(d["reads"], (2 + 1) * blocks);
    assert_eq!(
        (d["reads"], d["bytes_fetched"]),
        (of_price["reads"], of_price["bytes_fetched"])
    );
    assert!(share(d["bytes_fetched"], table_bytes) <= 0.15, "{d:?}");

    // A table read is the scan under no predicate: through a client
    // without a cache it makes the reads of a cold `scan(Expr::True)` and
    // fetches its bytes; through the region's client, whose cache the full
    // scan filled, those of a warm one — none. Either returns its rows.
    let uncached = VortexClient::new(
        region.sms().clone(),
        region.fleet().clone(),
        region.truetime().clone(),
    );
    let reads = |d: &BTreeMap<&str, u64>| {
        let keys = ["reads", "bytes_fetched", "cluster_reads", "cluster_bytes"];
        keys.map(|k| d[k])
    };
    let (rows, d) = moved(&region, || uncached.read_rows_at(t, at).unwrap());
    let (cold_scan, s) = moved(&region, || cold.scan(t, at, &every).unwrap());
    assert_eq!(rows.rows.len() as i64, DAYS * ROWS_PER_DAY);
    assert_eq!(rows.rows, cold_scan.rows);
    assert_eq!(reads(&d), reads(&s));
    assert_eq!(
        reads(&d),
        [3 * blocks, table_bytes, 3 * blocks, table_bytes]
    );
    let (warm_rows, d) = moved(&region, || client.read_rows_at(t, at).unwrap());
    let (warm_scan, s) = moved(&region, || engine.scan(t, at, &every).unwrap());
    assert_eq!(warm_rows.rows, rows.rows);
    assert_eq!(warm_rows.rows, warm_scan.rows);
    assert_eq!(reads(&d), reads(&s));
    assert_eq!(reads(&d), [0; 4]);

    // A later query that does owe the probe timestamps fetches those
    // zones' and nothing else of provenance.
    let mut w = client.create_unbuffered_writer(t).unwrap();
    w.append(orders(1)).unwrap();
    region.sms().finalize_stream(t, w.stream_id()).unwrap();
    region.optimizer().convert_wos(t).unwrap();
    let later = client.snapshot();
    let (counted, d) = moved(&region, || fresh().count(t, later, &every).unwrap());
    assert_eq!(counted as i64, (DAYS + 1) * ROWS_PER_DAY);
    assert_eq!(d["row_metas"], 0);
    let fresh_blocks = (ROWS_PER_DAY as u64).div_ceil(4_096);
    assert_eq!(d["reads"], 2 * (blocks + fresh_blocks) + fresh_blocks);
    assert_eq!(
        region.freshness().rows_observed() as i64,
        (DAYS + 1) * ROWS_PER_DAY
    );

    // DML finds its candidate rows (§7.3) with the same scan, through a
    // client without a cache: a DELETE reads and decodes exactly what the
    // cold count of its predicate does — the index, the bloom filter, the
    // zone maps and one chunk run per surviving zone of `customer`.
    let dml = DmlExecutor::new(uncached);
    let count = |predicate: &Expr| {
        let opts = ScanOptions {
            predicate: predicate.clone(),
            ..ScanOptions::default()
        };
        moved(&region, || cold.count(t, client.snapshot(), &opts).unwrap())
    };
    let gone = Expr::eq("customer", who);
    let (counted, by_count) = count(&gone);
    assert!(counted > 0);
    let (report, d) = moved(&region, || dml.delete_where(t, &gone).unwrap());
    assert_eq!(report.rows_matched, counted);
    for k in [
        "reads",
        "bytes_fetched",
        "cluster_reads",
        "cluster_bytes",
        "cells",
    ] {
        assert_eq!(d[k], by_count[k], "{k}: {d:?} vs {by_count:?}");
    }
    assert_eq!(d["row_metas"], 0, "a DELETE builds no RowMeta");
    // The masks hit those rows, in every zone of a block.
    assert_eq!(count(&gone).0, 0);
    // An UPDATE reads that, and the matched rows' cells at most: of the
    // files their properties keep, and every column and the provenance of
    // the rows it rewrites.
    let moving = Expr::eq("customer", customer(0xD0E));
    let rs = region
        .sms()
        .list_read_fragments(t, client.snapshot())
        .unwrap();
    let (_, moving_bytes) = surviving(&rs, &moving);
    let (counted, by_count) = count(&moving);
    assert!(counted > 0);
    let set = [("amount", Value::Int64(-1))];
    let (report, d) = moved(&region, || dml.update_where(t, &moving, &set).unwrap());
    assert_eq!(
        (report.rows_matched, report.rows_updated),
        (counted, counted)
    );
    assert!(d["cluster_bytes"] <= moving_bytes, "{d:?}");
    assert!(d["cells"] <= by_count["cells"] + counted * (6 + 4), "{d:?}");
    assert_eq!(d["row_metas"], counted);
    let rewritten = moving.clone().and(Expr::eq("amount", Value::Int64(-1)));
    assert_eq!((count(&moving).0, count(&rewritten).0), (counted, counted));
}
