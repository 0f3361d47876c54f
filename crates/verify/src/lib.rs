//! Continuous data verification (§6.3).
//!
//! "Vortex continuously traces requests to detect data correctness issues
//! such as missing or duplicated records. The system tracks all calls to
//! the client library ... For every successful Vortex API call, we verify
//! that ... the appended data exists at the expected location (Stream +
//! row_offset). We then verify that each append in the system reports a
//! unique location. Finally, we also verify that each record is reported
//! as converted exactly once from WOS to ROS. Additionally, for each
//! conversion, we validate that the output records are consistent with
//! the input records."
//!
//! [`AuditLog`] is the request trace; [`Verifier`] runs the pipelines.
//! In production these run as SQL over BigQuery; here they are direct
//! scans over the same read path queries use.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use vortex_client::read::{read_table, ReadOptions};
use vortex_colossus::StorageFleet;
use vortex_common::codec::encode_row;
use vortex_common::crc::crc32c;
use vortex_common::error::VortexResult;
use vortex_common::ids::{StreamId, TableId};
use vortex_common::row::{Row, RowSet};
use vortex_common::rpc::{class_scope, WorkClass};
use vortex_common::truetime::Timestamp;
use vortex_sms::api::SmsHandle;

/// One traced append acknowledgement.
#[derive(Debug, Clone)]
pub struct AppendAudit {
    /// Table written.
    pub table: TableId,
    /// Stream written.
    pub stream: StreamId,
    /// Stream-level row offset of the first row.
    pub row_offset: u64,
    /// Per-row content hashes (CRC32C of the encoded row).
    pub row_hashes: Vec<u32>,
}

/// Hashes a row's canonical encoding.
pub fn row_hash(row: &Row) -> u32 {
    let mut buf = Vec::new();
    encode_row(&mut buf, row);
    crc32c(&buf)
}

/// The request trace fed by instrumented writers.
#[derive(Debug, Default)]
pub struct AuditLog {
    appends: Mutex<Vec<AppendAudit>>,
}

impl AuditLog {
    /// An empty log.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Traces one acknowledged append.
    pub fn record_append(&self, table: TableId, stream: StreamId, row_offset: u64, rows: &RowSet) {
        self.appends.lock().push(AppendAudit {
            table,
            stream,
            row_offset,
            row_hashes: rows.rows.iter().map(row_hash).collect(),
        });
    }

    /// Number of traced appends.
    pub fn len(&self) -> usize {
        self.appends.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.appends.lock().is_empty()
    }

    fn snapshot(&self, table: TableId) -> Vec<AppendAudit> {
        self.appends
            .lock()
            .iter()
            .filter(|a| a.table == table)
            .cloned()
            .collect()
    }
}

/// Result of one verification pipeline run.
#[derive(Debug, Clone, Default)]
pub struct VerificationReport {
    /// Appends checked against the table contents.
    pub appends_checked: usize,
    /// Rows checked.
    pub rows_checked: u64,
    /// Human-readable violations (empty = clean).
    pub violations: Vec<String>,
}

impl VerificationReport {
    /// Whether no violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the §6.3 verification pipelines.
pub struct Verifier {
    sms: SmsHandle,
    fleet: StorageFleet,
}

impl Verifier {
    /// A verifier over the region's control plane + storage.
    pub fn new(sms: SmsHandle, fleet: StorageFleet) -> Self {
        Self { sms, fleet }
    }

    /// Pipeline 1+2: every traced append's rows exist at their expected
    /// (stream, row_offset) location with matching content, and every
    /// location in the table is unique.
    pub fn verify_appends(
        &self,
        table: TableId,
        audit: &AuditLog,
    ) -> VortexResult<VerificationReport> {
        // Verification is deferrable maintenance: shed first under load.
        let _bg = class_scope(WorkClass::Background);
        let snapshot = self.sms.read_snapshot();
        let tr = read_table(
            &self.sms,
            &self.fleet,
            table,
            snapshot,
            &ReadOptions::default(),
        )?;
        let mut report = VerificationReport::default();
        // Index the table by (stream, offset).
        let mut by_loc: HashMap<(u64, u64), Vec<u32>> = HashMap::new();
        for (meta, row) in &tr.rows {
            by_loc
                .entry((meta.stream, meta.offset))
                .or_default()
                .push(row_hash(row));
        }
        // Uniqueness: each location reported once (pipeline 2).
        for ((stream, offset), hashes) in &by_loc {
            report.rows_checked += hashes.len() as u64;
            if hashes.len() > 1 {
                report.violations.push(format!(
                    "location (str-{stream}, {offset}) reported {} times",
                    hashes.len()
                ));
            }
        }
        // Existence + content (pipeline 1).
        for a in audit.snapshot(table) {
            report.appends_checked += 1;
            for (i, expect) in a.row_hashes.iter().enumerate() {
                let loc = (a.stream.raw(), a.row_offset + i as u64);
                match by_loc.get(&loc) {
                    None => report.violations.push(format!(
                        "append row missing at (str-{}, {})",
                        a.stream.raw(),
                        a.row_offset + i as u64
                    )),
                    Some(hashes) => {
                        if !hashes.contains(expect) {
                            report.violations.push(format!(
                                "append row content mismatch at (str-{}, {})",
                                a.stream.raw(),
                                a.row_offset + i as u64
                            ));
                        }
                    }
                }
            }
        }
        Ok(report)
    }

    /// Pipeline 3+4: conversion (or any background reorganization) must
    /// preserve the visible row multiset between two snapshots with no
    /// user writes in between — each record converted exactly once, and
    /// output consistent with input.
    pub fn verify_conversion(
        &self,
        table: TableId,
        before: Timestamp,
        after: Timestamp,
    ) -> VortexResult<VerificationReport> {
        let _bg = class_scope(WorkClass::Background);
        let a = read_table(
            &self.sms,
            &self.fleet,
            table,
            before,
            &ReadOptions::default(),
        )?;
        let b = read_table(
            &self.sms,
            &self.fleet,
            table,
            after,
            &ReadOptions::default(),
        )?;
        let mut report = VerificationReport {
            rows_checked: (a.rows.len() + b.rows.len()) as u64,
            ..VerificationReport::default()
        };
        let index = |rows: &[(vortex_ros::RowMeta, Row)]| -> HashMap<(u64, u64), u32> {
            rows.iter()
                .map(|(m, r)| ((m.stream, m.offset), row_hash(r)))
                .collect()
        };
        let ia = index(&a.rows);
        let ib = index(&b.rows);
        if a.rows.len() != ia.len() {
            report
                .violations
                .push("duplicate locations before conversion".into());
        }
        if b.rows.len() != ib.len() {
            report
                .violations
                .push("duplicate locations after conversion (record converted twice?)".into());
        }
        for (loc, h) in &ia {
            match ib.get(loc) {
                None => report.violations.push(format!(
                    "record (str-{}, {}) lost during conversion",
                    loc.0, loc.1
                )),
                Some(h2) if h2 != h => report.violations.push(format!(
                    "record (str-{}, {}) changed during conversion",
                    loc.0, loc.1
                )),
                _ => {}
            }
        }
        for loc in ib.keys() {
            if !ia.contains_key(loc) {
                report.violations.push(format!(
                    "record (str-{}, {}) appeared during conversion",
                    loc.0, loc.1
                ));
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_client::VortexClient;
    use vortex_common::ids::{ClusterId, IdGen, ServerId, SmsTaskId};
    use vortex_common::latency::WriteProfile;
    use vortex_common::row::Value;
    use vortex_common::schema::{Field, FieldType, Schema};
    use vortex_common::truetime::{SimClock, TrueTime};
    use vortex_metastore::MetaStore;
    use vortex_server::{ServerConfig, StreamServer};
    use vortex_sms::sms::{SmsConfig, SmsTask};
    use vortex_sms::SmsApi;

    struct Rig {
        client: VortexClient,
        sms: SmsHandle,
        verifier: Verifier,
        clock: SimClock,
        ids: Arc<IdGen>,
        fleet: StorageFleet,
    }

    fn rig() -> Rig {
        let clock = SimClock::new(1_000_000);
        let tt = TrueTime::simulated(clock.clone(), 100, 0);
        let fleet = StorageFleet::with_mem_clusters(2, WriteProfile::instant(), 41);
        let store = MetaStore::new(tt.clone());
        let ids = Arc::new(IdGen::new(1));
        let sms = SmsTask::new(
            SmsConfig::new(SmsTaskId::from_raw(0), ClusterId::from_raw(0)),
            store,
            fleet.clone(),
            tt.clone(),
            Arc::clone(&ids),
            None,
        );
        for i in 0..2u64 {
            let server = StreamServer::new(
                ServerConfig::new(ServerId::from_raw(100 + i), ClusterId::from_raw(i % 2)),
                fleet.clone(),
                tt.clone(),
                Arc::clone(&ids),
            )
            .unwrap();
            sms.register_server(server);
        }
        let sms: SmsHandle = sms;
        let client = VortexClient::new(sms.clone(), fleet.clone(), tt);
        let verifier = Verifier::new(sms.clone(), fleet.clone());
        Rig {
            client,
            sms,
            verifier,
            clock,
            ids,
            fleet,
        }
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::required("k", FieldType::Int64),
            Field::required("v", FieldType::String),
        ])
    }

    fn rows(start: i64, n: usize) -> RowSet {
        RowSet::new(
            (0..n)
                .map(|i| {
                    Row::insert(vec![
                        Value::Int64(start + i as i64),
                        Value::String(format!("v{}", start + i as i64)),
                    ])
                })
                .collect(),
        )
    }

    #[test]
    fn clean_writes_verify_clean() {
        let r = rig();
        let t = r.client.create_table("t", schema()).unwrap();
        let audit = AuditLog::new();
        let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
        for i in 0..5 {
            let batch = rows(i * 10, 10);
            let res = w.append(batch.clone()).unwrap();
            audit.record_append(t.table, w.stream_id(), res.row_offset, &batch);
        }
        let report = r.verifier.verify_appends(t.table, &audit).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.appends_checked, 5);
        assert_eq!(report.rows_checked, 50);
        assert!(!audit.is_empty());
        assert_eq!(audit.len(), 5);
    }

    #[test]
    fn missing_rows_detected() {
        let r = rig();
        let t = r.client.create_table("t", schema()).unwrap();
        let audit = AuditLog::new();
        let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
        let batch = rows(0, 5);
        let res = w.append(batch.clone()).unwrap();
        audit.record_append(t.table, w.stream_id(), res.row_offset, &batch);
        // Forge an audit entry for rows that were never written.
        audit.record_append(t.table, w.stream_id(), 100, &rows(100, 3));
        let report = r.verifier.verify_appends(t.table, &audit).unwrap();
        assert_eq!(report.violations.len(), 3, "{:?}", report.violations);
        assert!(report.violations[0].contains("missing"));
    }

    #[test]
    fn content_mismatch_detected() {
        let r = rig();
        let t = r.client.create_table("t", schema()).unwrap();
        let audit = AuditLog::new();
        let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
        let batch = rows(0, 3);
        let res = w.append(batch).unwrap();
        // Audit claims different content at the same location.
        audit.record_append(t.table, w.stream_id(), res.row_offset, &rows(50, 3));
        let report = r.verifier.verify_appends(t.table, &audit).unwrap();
        assert_eq!(report.violations.len(), 3);
        assert!(report.violations[0].contains("mismatch"));
    }

    #[test]
    fn conversion_preservation_verified() {
        let r = rig();
        let t = r.client.create_table("t", schema()).unwrap();
        let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
        w.append(rows(0, 100)).unwrap();
        let s = w.stream_id();
        r.sms.finalize_stream(t.table, s).unwrap();
        r.clock.advance(1_000);
        let before = r.sms.read_snapshot();
        r.clock.advance(1_000);
        // Convert WOS → ROS.
        let opt = vortex_optimizer::StorageOptimizer::new(
            Arc::clone(&r.sms),
            r.fleet.clone(),
            Arc::clone(&r.ids),
            vortex_optimizer::OptimizerConfig::default(),
        );
        opt.convert_wos(t.table).unwrap();
        let after = r.sms.read_snapshot();
        let report = r
            .verifier
            .verify_conversion(t.table, before, after)
            .unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.rows_checked, 200);
    }

    #[test]
    fn conversion_loss_detected() {
        // Simulate a buggy conversion by comparing across a DML delete —
        // the verifier flags the "lost" records.
        let r = rig();
        let t = r.client.create_table("t", schema()).unwrap();
        let mut w = r.client.create_unbuffered_writer(t.table).unwrap();
        w.append(rows(0, 20)).unwrap();
        let s = w.stream_id();
        r.sms.finalize_stream(t.table, s).unwrap();
        r.clock.advance(1_000);
        let before = r.sms.read_snapshot();
        r.clock.advance(1_000);
        let frag = r
            .sms
            .list_fragments(t.table, r.sms.read_snapshot())
            .into_iter()
            .next()
            .unwrap();
        r.sms
            .commit_dml(
                t.table,
                &[(
                    frag.fragment,
                    vortex_common::mask::DeletionMask::from_range(0, 5),
                )],
                &[],
                &[],
            )
            .unwrap();
        let after = r.sms.read_snapshot();
        let report = r
            .verifier
            .verify_conversion(t.table, before, after)
            .unwrap();
        assert_eq!(report.violations.len(), 5);
        assert!(report.violations[0].contains("lost"));
    }

    #[test]
    fn row_hash_distinguishes_rows() {
        let a = Row::insert(vec![Value::Int64(1)]);
        let b = Row::insert(vec![Value::Int64(2)]);
        assert_ne!(row_hash(&a), row_hash(&b));
        assert_eq!(row_hash(&a), row_hash(&a.clone()));
    }
}
