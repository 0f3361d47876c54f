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
//! The candidate rows are found by the engine's one scan step: partition
//! elimination, then each surviving fragment and each tail scanned on its
//! own into a [`Positions`] consumer, so a DELETE reads what a count of
//! its predicate reads, and an UPDATE that plus the matched rows' cells.
//!
//! The DML runs under the table's DML marker (so the optimizer yields,
//! §7.3) and commits masks + reinserted-row streams atomically through
//! the SMS. A concurrent 1:1 conversion swaps fragment ids under us; the
//! commit then conflicts and the statement re-resolves against the new
//! (positionally identical) fragments.

use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{FragmentId, StreamletId, TableId};
use vortex_common::mask::DeletionMask;
use vortex_common::row::{Row, RowSet, Value};

use crate::consume::{Positions, RowCollector};
use crate::engine::QueryEngine;
use crate::expr::Expr;
use crate::pushdown::{scan_visible, FragmentYield, ScanPlan};
use crate::read::{read_tail_cached, TailOutcome, Zone};
use crate::VortexClient;

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
    /// The scan that finds the candidate rows, over the client's SMS,
    /// fleet and read cache.
    engine: QueryEngine,
}

impl DmlExecutor {
    /// Creates an executor over a client handle.
    pub fn new(client: VortexClient) -> Self {
        let engine = QueryEngine::for_client(&client);
        Self { client, engine }
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
        let sms = self.client.sms();
        let (fleet, cache) = (self.client.fleet(), self.engine.read.cache.as_deref());
        // What a masked tail keeps: NOT is the exact complement of the
        // predicate over the rows it is offered.
        let unaffected = pred.clone().not();
        let mut attempts = 0u32;
        'retry: loop {
            attempts += 1;
            if attempts > 12 {
                return Err(VortexError::TxnConflict(
                    "DML could not commit after repeated conversion races".into(),
                ));
            }
            let key = sms.get_table(table)?.encryption_key();
            let snapshot = sms.read_snapshot();
            let rs = sms.list_read_fragments(table, snapshot)?;
            let set_idx = (set.unwrap_or_default().iter()).map(|(c, v)| {
                let unknown = || VortexError::InvalidArgument(format!("unknown column {c}"));
                Ok((rs.schema.column_index(c).ok_or_else(unknown)?, v.clone()))
            });
            let set_idx: Vec<(usize, Value)> = set_idx.collect::<VortexResult<_>>()?;
            // The matched rows' positions, and for an UPDATE the rows.
            let matched = Positions {
                rows: set.is_some().then(RowCollector::default),
                ..Positions::default()
            };
            let plan = ScanPlan::compile(pred, None, &rs.schema, None, &matched)?;
            let all = RowCollector::default();
            let rest = ScanPlan::compile(&unaffected, None, &rs.schema, None, &all)?;
            let mut scanned = FragmentYield::new(Positions::default());
            let survivors = (self.engine).survivors(&rs, pred, &plan, &mut scanned.stats)?;
            // Each fragment and tail is scanned into a consumer of its own,
            // so that its positions stay its own.
            let mut scan = |step: &dyn Fn(&mut FragmentYield<Positions>) -> VortexResult<()>| {
                let mut out = FragmentYield::new(matched.clone());
                step(&mut out)?;
                let hit = std::mem::take(&mut out.sink);
                scanned.absorb(out);
                VortexResult::Ok((hit.at, hit.rows.map_or_else(Vec::new, |found| found.rows)))
            };
            let mut fragment_masks: Vec<(FragmentId, DeletionMask)> = Vec::new();
            let mut tail_masks: Vec<(StreamletId, DeletionMask)> = Vec::new();
            let mut reinserts: Vec<Row> = Vec::new();
            let updated =
                |rows: Vec<(_, Row)>| rows.into_iter().map(|(_, r)| apply_set(r, &set_idx));

            // ---- Fragments: mask the matched rows ----
            for spec in survivors {
                let (at, rows) =
                    scan(&|out| (self.engine).scan_fragment(spec, &key, snapshot, &plan, out))?;
                if !at.is_empty() {
                    let mut mask = DeletionMask::new();
                    at.iter().for_each(|&pos| mask.delete_row(pos));
                    fragment_masks.push((spec.meta.fragment, mask));
                    reinserts.extend(updated(rows));
                }
            }

            // ---- Tails: whole-tail mask + reinsert unaffected (§7.3) ----
            for tail in &rs.tails {
                let visible = match read_tail_cached(tail, fleet, &key, snapshot, cache)? {
                    TailOutcome::Rows(visible) => visible,
                    TailOutcome::NeedsReconcile => {
                        sms.reconcile_streamlet(table, tail.streamlet)?;
                        continue 'retry;
                    }
                };
                let (at, rows) = scan(&|out| scan_visible(&visible, &plan, out))?;
                if at.is_empty() {
                    continue;
                }
                // A tail's positions are streamlet-relative rows; the mask
                // runs to the last visible one.
                let last = |(z, sel): (&Zone, &[usize])| Some(z.first + *sel.last()? as u64 + 1);
                let end = visible.iter().filter_map(last).max().unwrap_or_default();
                tail_masks.push((tail.streamlet, DeletionMask::from_range(tail.from_row, end)));
                let mut kept = FragmentYield::new(all.clone());
                scan_visible(&visible, &rest, &mut kept)?;
                reinserts.extend(kept.sink.rows.into_iter().map(|(_, row)| row));
                reinserts.extend(updated(rows));
            }
            scanned.stats.tails_scanned = rs.tails.len();
            self.engine.record_scan(table, &scanned.stats, None, &[]);
            let rows_matched = scanned.stats.rows_matched;
            let rows_updated = set.map_or(0, |_| rows_matched);
            let report = DmlReport {
                rows_matched,
                rows_reinserted_unaffected: reinserts.len() as u64 - rows_updated,
                rows_updated,
                fragments_masked: fragment_masks.len(),
                tails_masked: tail_masks.len(),
                attempts,
            };

            if fragment_masks.is_empty() && tail_masks.is_empty() {
                return Ok(report); // nothing matched anywhere
            }

            // ---- Reinserted rows ride a PENDING stream committed with
            // the masks (§7.3: "committed to the table atomically along
            // with the commit of the deletion mask"). ----
            let mut reinsert_streams = Vec::new();
            if !reinserts.is_empty() {
                let mut w = self.client.create_pending_writer(table)?;
                w.append(RowSet::new(reinserts))?;
                reinsert_streams.push(w.stream_id());
            }
            match sms.commit_dml(table, &fragment_masks, &tail_masks, &reinsert_streams) {
                Ok(_) => return Ok(report),
                Err(VortexError::TxnConflict(_)) | Err(VortexError::NotFound(_)) => {
                    // A conversion swapped fragments (or masks raced);
                    // re-resolve against fresh metadata. The orphaned
                    // PENDING reinsert stream is never committed, so its
                    // rows are never visible; nothing reclaims it, and the
                    // stream and its log file stay until the table is
                    // dropped (the groomer reaps only dropped tables).
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
