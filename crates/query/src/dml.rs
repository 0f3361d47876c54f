//! Mutating DML: DELETE and UPDATE via deletion masks (§7.3).
//!
//! "A DELETE statement first determines the candidate rows to be marked
//! deleted and at commit time persists a deletion mask to the Streamlet
//! or Fragment metadata. ... When a DML statement needs to delete records
//! in the Streamlet tail, the SMS marks the entire Streamlet tail as
//! deleted, and ... the reinserted rows in the tail are copied over by
//! the DML. ... UPDATE statements are implemented as a combination of
//! deletion of the old rows and an insertion of the updated rows."
//!
//! The DML runs under the table's DML marker (so the optimizer yields,
//! §7.3) and commits masks + reinserted-row streams atomically through
//! the SMS. A concurrent 1:1 conversion swaps fragment ids under us; the
//! commit then conflicts and the statement re-resolves against the new
//! (positionally identical) fragments.

use vortex_client::read::{read_fragment_cached, read_tail_cached, TailOutcome};
use vortex_client::{VortexClient, WriterOptions};
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{FragmentId, StreamletId, TableId};
use vortex_common::mask::DeletionMask;
use vortex_common::row::{Row, RowSet, Value};
use vortex_sms::meta::StreamType;

use crate::expr::Expr;

/// Outcome of a DML statement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmlReport {
    /// Rows matching the predicate (deleted or updated).
    pub rows_matched: u64,
    /// Unaffected rows copied over because a whole tail was masked.
    pub rows_reinserted_unaffected: u64,
    /// Updated copies written (UPDATE only).
    pub rows_updated: u64,
    /// Fragments that received a new mask version.
    pub fragments_masked: usize,
    /// Streamlet tails masked wholesale.
    pub tails_masked: usize,
    /// Commit attempts (>1 means a conversion/DML race was retried).
    pub attempts: u32,
}

/// Executes DML statements against a table.
pub struct DmlExecutor {
    client: VortexClient,
}

impl DmlExecutor {
    /// Creates an executor over a client handle.
    pub fn new(client: VortexClient) -> Self {
        Self { client }
    }

    /// `DELETE FROM table WHERE pred`.
    pub fn delete_where(&self, table: TableId, pred: &Expr) -> VortexResult<DmlReport> {
        self.mutate(table, pred, None)
    }

    /// `UPDATE table SET col = value, ... WHERE pred`.
    pub fn update_where(
        &self,
        table: TableId,
        pred: &Expr,
        set: &[(&str, Value)],
    ) -> VortexResult<DmlReport> {
        self.mutate(table, pred, Some(set))
    }

    fn mutate(
        &self,
        table: TableId,
        pred: &Expr,
        set: Option<&[(&str, Value)]>,
    ) -> VortexResult<DmlReport> {
        let sms = self.client.sms().clone();
        let ticket = sms.begin_dml(table)?;
        let result = self.mutate_inner(table, pred, set);
        // Always release the DML marker (§7.3).
        let _ = sms.end_dml(table, ticket);
        result
    }

    fn mutate_inner(
        &self,
        table: TableId,
        pred: &Expr,
        set: Option<&[(&str, Value)]>,
    ) -> VortexResult<DmlReport> {
        let sms = self.client.sms().clone();
        let fleet = self.client.fleet().clone();
        let mut attempts = 0u32;
        'retry: loop {
            attempts += 1;
            if attempts > 12 {
                return Err(VortexError::TxnConflict(
                    "DML could not commit after repeated conversion races".into(),
                ));
            }
            let tmeta = sms.get_table(table)?;
            let key = tmeta.encryption_key();
            let schema = &tmeta.schema;
            let set_idx: Vec<(usize, Value)> = match set {
                Some(pairs) => pairs
                    .iter()
                    .map(|(c, v)| {
                        schema
                            .column_index(c)
                            .map(|i| (i, v.clone()))
                            .ok_or_else(|| {
                                VortexError::InvalidArgument(format!("unknown column {c}"))
                            })
                    })
                    .collect::<VortexResult<_>>()?,
                None => vec![],
            };
            let snapshot = sms.read_snapshot();
            let rs = sms.list_read_fragments(table, snapshot)?;

            let mut report = DmlReport {
                attempts,
                ..DmlReport::default()
            };
            let mut fragment_masks: Vec<(FragmentId, DeletionMask)> = Vec::new();
            let mut tail_masks: Vec<(StreamletId, DeletionMask)> = Vec::new();
            let mut reinserts: Vec<Row> = Vec::new();

            // ---- Fragments: positional scan, mask matched rows ----
            for spec in &rs.fragments {
                // Each visible row comes with its mask position
                // (fragment-relative for WOS, block row index for ROS).
                let mut matched = Vec::new();
                let visible = read_fragment_cached(spec, &fleet, &key, snapshot, None)?;
                for (pos, row) in visible.positioned_rows(schema.fields.len()) {
                    if pred.eval(schema, &row)? {
                        matched.push((pos, row));
                    }
                }
                if matched.is_empty() {
                    continue;
                }
                let mut mask = DeletionMask::new();
                for &(pos, _) in &matched {
                    mask.delete_row(pos);
                }
                report.rows_matched += matched.len() as u64;
                report.fragments_masked += 1;
                fragment_masks.push((spec.meta.fragment, mask));
                if set.is_some() {
                    for (_, row) in matched {
                        reinserts.push(apply_set(row, &set_idx));
                        report.rows_updated += 1;
                    }
                }
            }

            // ---- Tails: whole-tail mask + reinsert unaffected (§7.3) ----
            for tail in &rs.tails {
                let cache = self.client.cache().map(std::sync::Arc::as_ref);
                let outcome = read_tail_cached(tail, &fleet, &key, snapshot, cache)?;
                let rows = match outcome {
                    // A tail's positions are streamlet-relative rows.
                    TailOutcome::Rows(zones) => zones.positioned_rows(schema.fields.len()),
                    TailOutcome::NeedsReconcile => {
                        sms.reconcile_streamlet(table, tail.streamlet)?;
                        continue 'retry;
                    }
                };
                let mut any_match = false;
                let mut tail_end = tail.from_row;
                let mut unaffected = Vec::new();
                let mut matched = Vec::new();
                for (streamlet_row, row) in rows {
                    tail_end = tail_end.max(streamlet_row + 1);
                    if pred.eval(schema, &row)? {
                        any_match = true;
                        matched.push(row);
                    } else {
                        unaffected.push(row);
                    }
                }
                if !any_match {
                    continue;
                }
                report.rows_matched += matched.len() as u64;
                report.tails_masked += 1;
                tail_masks.push((
                    tail.streamlet,
                    DeletionMask::from_range(tail.from_row, tail_end),
                ));
                report.rows_reinserted_unaffected += unaffected.len() as u64;
                reinserts.extend(unaffected);
                if set.is_some() {
                    for row in matched {
                        reinserts.push(apply_set(row, &set_idx));
                        report.rows_updated += 1;
                    }
                }
            }

            if fragment_masks.is_empty() && tail_masks.is_empty() {
                return Ok(report); // nothing matched anywhere
            }

            // ---- Reinserted rows ride a PENDING stream committed with
            // the masks (§7.3: "committed to the table atomically along
            // with the commit of the deletion mask"). ----
            let mut reinsert_streams = Vec::new();
            if !reinserts.is_empty() {
                let mut w = self.client.create_writer(
                    table,
                    WriterOptions {
                        stream_type: StreamType::Pending,
                        ..WriterOptions::default()
                    },
                )?;
                w.append(RowSet::new(reinserts.clone()))?;
                reinsert_streams.push(w.stream_id());
            }
            match sms.commit_dml(table, &fragment_masks, &tail_masks, &reinsert_streams) {
                Ok(_) => return Ok(report),
                Err(VortexError::TxnConflict(_)) | Err(VortexError::NotFound(_)) => {
                    // A conversion swapped fragments (or masks raced);
                    // re-resolve against fresh metadata. The orphaned
                    // PENDING reinsert stream stays invisible forever and
                    // is eventually groomed.
                    continue 'retry;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn apply_set(mut row: Row, set_idx: &[(usize, Value)]) -> Row {
    for (i, v) in set_idx {
        row.values[*i] = v.clone();
    }
    // The change type is preserved: on CDC tables, UPDATE rewrites the
    // change record in place (physically it is delete + reinsert, but the
    // record's CDC semantics must not change).
    row
}
