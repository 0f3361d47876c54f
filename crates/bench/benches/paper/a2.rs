//! **A2 — ablation: optimizer yielding vs stable 1:1 conversion under a
//! DML storm** (§7.3).
//!
//! Paper: "whenever a DML statement is running, storage optimizer will
//! not commit. This introduces a problem when there is ... a continuous
//! stream of DML statements ... the Optimizer might accumulate a large
//! backlog of work ... To address this, Vortex supports a stable 1:1
//! conversion". Runs a continuous DML stream and compares the optimizer
//! backlog with merged (yielding) vs 1:1 (non-yielding) conversion.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vortex::ids::TableId;
use vortex::row::{Row, RowSet, Value};
use vortex::{Expr, Region, RegionConfig};
use vortex_bench::Run;

use super::workload::bench_schema;

const ROUNDS: usize = 6;

/// Ingests 1 000 rows through a fresh stream and finalizes it: one WOS
/// fragment ready for conversion.
fn ingest_finalized(region: &Region, table: TableId, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = region.client().create_unbuffered_writer(table).unwrap();
    let row = |k: u32| {
        Row::insert(vec![
            Value::Int64((k % 10) as i64),
            Value::String(format!("customer-{:05}", k % 2_000)),
            Value::Int64(k as i64),
            Value::Null,
        ])
    };
    let rows = (0..1_000).map(|_| row(rng.gen_range(0..1_000_000)));
    w.append(RowSet::new(rows.collect())).unwrap();
    region
        .sms()
        .finalize_stream(table, w.stream_id())
        .expect("finalize");
}

/// Runs ROUNDS of (ingest → DML held open → optimizer attempt) and
/// returns (final backlog, blocks the conversions committed).
fn run_mode(run: &Run, one_to_one: bool) -> (usize, usize) {
    let region = Region::create(RegionConfig::default()).unwrap();
    let client = region.client();
    let table = client.create_table("a2", bench_schema()).unwrap().table;
    let mut committed = 0usize;
    for round in 0..ROUNDS {
        ingest_finalized(&region, table, 0xA2 + round as u64 + (run.seed() << 24));
        // A DML statement is running while the optimizer wakes up — the
        // "continuous stream of DML" regime.
        let ticket = region.sms().begin_dml(table).unwrap();
        let result = match one_to_one {
            true => region.optimizer().convert_one_to_one(table),
            false => region.optimizer().convert_wos(table),
        };
        if let Ok(report) = result {
            committed += report.blocks_written;
        }
        // The DML commits its masks and finishes.
        let _ = region.dml().delete_where(
            table,
            &Expr::eq("amount", Value::Int64((round * 37) as i64)),
        );
        region.sms().end_dml(table, ticket).unwrap();
    }
    (region.optimizer().backlog(table), committed)
}

pub fn run(run: &mut Run) {
    let (backlog_merged, committed_merged) = run_mode(run, false);
    let (backlog_121, committed_121) = run_mode(run, true);
    run.report("merged.backlog_fragments", backlog_merged as f64);
    run.report("merged.blocks_committed", committed_merged as f64);
    run.report("one_to_one.backlog_fragments", backlog_121 as f64);
    run.report("one_to_one.blocks_committed", committed_121 as f64);
    assert!(
        backlog_merged > 0,
        "yielding optimizer must accumulate a backlog under continuous DML"
    );
    assert_eq!(backlog_121, 0, "1:1 conversion must keep up");
    assert!(committed_121 > committed_merged);
}
