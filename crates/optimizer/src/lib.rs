//! The Storage Optimization Service (§6.1).
//!
//! "A background service continuously optimizes data in Vortex as it is
//! written ... it maintains an LSM tree of Fragments, starting with
//! Fragments in WOS at the deepest level of the tree, with progressively
//! more optimized ROS versions as we climb up the tree."
//!
//! Implemented here:
//!
//! - **WOS→ROS conversion** ([`StorageOptimizer::convert_wos`]): finalized
//!   WOS fragments are read back, decoded, and rewritten as columnar ROS
//!   blocks split by partition (Figure 5), committed atomically through
//!   the SMS so "a row is included exactly once";
//! - **stable 1:1 conversion** ([`StorageOptimizer::convert_one_to_one`]):
//!   the mode of §7.3 that does not yield to DML — one WOS fragment
//!   becomes exactly one ROS block with identical row order, so deletion
//!   masks carry over positionally. A mask committed after the pass
//!   listed its source fails that commit (the next pass converts it with
//!   the mask), and a statement that masked a fragment, or tail rows,
//!   converted since its snapshot fails its commit and re-resolves;
//! - **automatic reclustering** ([`StorageOptimizer::recluster`]): level-0
//!   delta blocks are range-partitioned and, once large enough relative to
//!   the baseline, merged with it into a new non-overlapping baseline
//!   (Figure 6); the **clustering ratio** — the fraction of ROS rows in
//!   non-overlapping baseline blocks — is the service's steering metric.
//!
//! Every pass plans from one read set at a fresh snapshot — the answer
//! readers plan from (§7) — and reads each source through its listed
//! spec. Each replacement block's column properties are committed with it
//! in its catalog entry (`FragmentMeta::stats`), which is where readers
//! prune (§6.2).

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::Arc;

use vortex_client::read::{read_zones, RowGate, Zone};
use vortex_colossus::{Colossus, StorageFleet};
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{IdGen, StreamletId, TableId};
use vortex_common::mask::DeletionMask;
use vortex_common::row::Value;
use vortex_common::rpc::{class_scope, WorkClass};
use vortex_common::schema::{PartitionSpec, Schema};
use vortex_common::truetime::Timestamp;
use vortex_ros::{dictionary, ColumnVec, RosBlock, RosBlockBuilder};
use vortex_sms::api::SmsHandle;
use vortex_sms::meta::{ros_path, FragmentKind, FragmentMeta, FragmentState, TableMeta};
use vortex_sms::readset::{FragmentReadSpec, ReadSet};

#[cfg(test)]
mod tests;

/// Tunables of the optimization service.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerConfig {
    /// Target rows per ROS block.
    pub target_block_rows: usize,
}

/// Deltas merge into the baseline once `delta_rows >= MERGE_TRIGGER ×
/// baseline_rows` (§6.1: "after the deltas have accumulated sufficient
/// data comparable in size to the size of the current baseline").
const MERGE_TRIGGER: f64 = 0.5;

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            target_block_rows: 4096,
        }
    }
}

/// Outcome of one optimization pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConversionReport {
    /// Source WOS fragments converted.
    pub fragments_converted: usize,
    /// ROS blocks written.
    pub blocks_written: usize,
    /// Rows carried into ROS.
    pub rows: u64,
    /// Rows dropped because a deletion mask covered them (merged mode
    /// applies masks during conversion).
    pub rows_masked: u64,
    /// Source WOS bytes.
    pub bytes_in: u64,
    /// ROS bytes written (per replica).
    pub bytes_out: u64,
}

/// Outcome of a recluster pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReclusterReport {
    /// Whether a baseline merge ran.
    pub merged: bool,
    /// Blocks in the new baseline (0 if no merge).
    pub baseline_blocks: usize,
    /// Clustering ratio after the pass (rows in non-overlapping baseline
    /// blocks / total ROS rows).
    pub clustering_ratio: f64,
}

/// The background storage optimization service.
pub struct StorageOptimizer {
    sms: SmsHandle,
    fleet: StorageFleet,
    ids: Arc<IdGen>,
    cfg: OptimizerConfig,
}

impl StorageOptimizer {
    /// Creates the service over shared infrastructure.
    pub fn new(sms: SmsHandle, fleet: StorageFleet, ids: Arc<IdGen>, cfg: OptimizerConfig) -> Self {
        Self {
            sms,
            fleet,
            ids,
            cfg,
        }
    }

    /// The table's read set at a fresh snapshot: what every pass plans
    /// from, listed as Background work.
    fn read_set(&self, table: TableId) -> VortexResult<Arc<ReadSet>> {
        let _bg = class_scope(WorkClass::Background);
        self.sms
            .list_read_fragments(table, self.sms.read_snapshot())
    }

    /// Decodes a listed fragment this pass rewrites — log file or ROS
    /// block, one reader — into zones of one leaf vector per schema
    /// column, each with the rows its mask leaves. The whole committed
    /// extent is read: a source's stream visibility is settled (see
    /// [`convertible`]) and ROS blocks carry none.
    fn source_zones(
        &self,
        spec: &FragmentReadSpec,
        (schema, key): (&Schema, &vortex_common::crypt::Key),
    ) -> VortexResult<Vec<(Zone, Vec<usize>)>> {
        let gate = RowGate::for_fragment(spec, Timestamp::MAX);
        let leaves = |mut zone: Zone| {
            let (kept, _) = gate.admitted(&zone);
            let every: Vec<usize> = (0..zone.metas.len()).collect();
            let cols = std::mem::take(&mut zone.cols);
            zone.cols = cols.into_iter().map(|c| c.into_leaf(&every)).collect();
            // Rows that predate a column read NULL in it (§5.4.1).
            let nulls = || ColumnVec::Any(vec![Value::Null; every.len()]);
            zone.cols
                .resize_with(schema.fields.len().max(zone.cols.len()), nulls);
            (zone, kept)
        };
        let zones = read_zones(spec, &self.fleet, key)?;
        Ok(zones.into_iter().map(leaves).collect())
    }

    /// Writes a block the pass built where the table keeps its ROS.
    fn write_ros_block(
        &self,
        tmeta: &TableMeta,
        key: &vortex_common::crypt::Key,
        block: &RosBlock,
    ) -> VortexResult<FragmentMeta> {
        let table = tmeta.table;
        let fragment = self.ids.next_fragment();
        let bytes = block.to_bytes(key, fragment.raw());
        // BLMT tables (§6.4) write their ROS into the customer bucket (a
        // single durable copy — the bucket store replicates internally);
        // managed tables dual-write to the replica clusters.
        let (path, clusters, copies) = match &tmeta.external_bucket {
            Some(bucket) => (
                vortex_sms::meta::blmt_path(bucket, table, fragment),
                [vortex_colossus::BUCKET_CLUSTER_ID; 2],
                1,
            ),
            None => (
                ros_path(table, fragment),
                [tmeta.primary, tmeta.secondary],
                2,
            ),
        };
        for c in &clusters[..copies] {
            write_whole_file(self.fleet.get(*c)?, &path, &bytes)?;
        }
        Ok(FragmentMeta {
            fragment,
            table,
            streamlet: StreamletId::from_raw(0),
            kind: FragmentKind::Ros,
            ordinal: 0,
            first_row: 0,
            row_count: block.row_count() as u64,
            committed_size: bytes.len() as u64,
            state: FragmentState::Finalized,
            created_at: Timestamp::MIN, // set by commit_conversion
            deleted_at: Timestamp::MAX,
            clusters,
            path,
            stats: block.all_stats().to_vec(),
            masks: vec![],
            partition_key: None,
            level: 0,
        })
    }

    /// One conversion pass (Figure 5): gathers candidate fragments,
    /// splits their live rows by partition, writes clustered level-0 ROS
    /// blocks, and atomically swaps visibility. Yields to DML (§7.3).
    pub fn convert_wos(&self, table: TableId) -> VortexResult<ConversionReport> {
        let _bg = class_scope(WorkClass::Background);
        let rs = self.read_set(table)?;
        let (tmeta, key) = (&rs.table, rs.table.encryption_key());
        let schema = &tmeta.schema;
        let candidates: Vec<&FragmentReadSpec> = convertible(&rs).collect();
        if candidates.is_empty() {
            return Ok(ConversionReport::default());
        }
        let mut report = ConversionReport {
            fragments_converted: candidates.len(),
            ..ConversionReport::default()
        };
        // Partition key → its blocks' typed columns, each partition's rows
        // of a zone copied a column at a time into the last block until
        // that is full.
        let mut partitions: BTreeMap<Option<i64>, Vec<RosBlockBuilder>> = BTreeMap::new();
        let target = self.cfg.target_block_rows.max(1);
        let partition = partition_column(schema);
        let mut sources = Vec::with_capacity(candidates.len());
        for spec in candidates {
            let f = &spec.meta;
            report.bytes_in += f.committed_size;
            sources.push((f.fragment, f.masks.len()));
            // Merged conversions apply masks now (the commit will
            // conflict if new masks appear concurrently).
            let mut kept = 0;
            for (zone, rows) in self.source_zones(spec, (schema, &key))? {
                kept += rows.len() as u64;
                for (pkey, rows) in partitioned(&zone, partition, rows) {
                    let (blocks, mut rows) = (partitions.entry(pkey).or_default(), &rows[..]);
                    while !rows.is_empty() {
                        if blocks.last().map_or(true, |b| b.len() >= target) {
                            blocks.push(RosBlockBuilder::new(schema));
                        }
                        let Some(block) = blocks.last_mut() else {
                            break;
                        };
                        let (now, rest) = rows.split_at(rows.len().min(target - block.len()));
                        block.push_rows(&zone.metas, &zone.cols, now)?;
                        rows = rest;
                    }
                }
            }
            report.rows_masked += f.row_count - kept;
        }
        // Build per-partition clustered blocks.
        let mut replacements = Vec::new();
        for (pkey, blocks) in partitions {
            for block in blocks {
                let mut meta = self.write_ros_block(tmeta, &key, &block.build(true)?)?;
                report.rows += meta.row_count;
                meta.partition_key = pkey;
                meta.level = 0; // delta level
                report.bytes_out += meta.committed_size;
                report.blocks_written += 1;
                replacements.push(meta);
            }
        }
        // A crash here leaves the new ROS blocks durable in Colossus but
        // unregistered in the metastore: invisible garbage, never served
        // to readers. The WOS sources stay live and the next pass redoes
        // the conversion (§5.4.3).
        vortex_common::crash_point!("optimizer.convert.pre_commit");
        self.sms
            .commit_conversion(table, &sources, replacements, true)?;
        Ok(report)
    }

    /// Stable 1:1 conversion (§7.3): each WOS fragment becomes exactly
    /// one ROS block with the same rows in the same order; deletion masks
    /// carry over positionally, so this does not yield to DML. A mask
    /// committed after the listing fails the commit, and the next pass
    /// converts that fragment with it.
    pub fn convert_one_to_one(&self, table: TableId) -> VortexResult<ConversionReport> {
        let _bg = class_scope(WorkClass::Background);
        let rs = self.read_set(table)?;
        let (tmeta, key) = (&rs.table, rs.table.encryption_key());
        let mut report = ConversionReport::default();
        for spec in convertible(&rs) {
            let f = &spec.meta;
            // Masks carry over positionally, so every row is read.
            let mut rows = RosBlockBuilder::new(&tmeta.schema);
            let every = FragmentReadSpec {
                mask: DeletionMask::new(),
                ..spec.clone()
            };
            for (zone, kept) in self.source_zones(&every, (&tmeta.schema, &key))? {
                rows.push_rows(&zone.metas, &zone.cols, &kept)?;
            }
            if rows.is_empty() {
                continue;
            }
            // NOTE: unsorted — row order must match the WOS fragment so
            // masks stay positionally valid.
            let mut meta = self.write_ros_block(tmeta, &key, &rows.build(false)?)?;
            meta.masks = f.masks.clone(); // §7.3: masks carry over
            meta.streamlet = f.streamlet;
            meta.ordinal = f.ordinal;
            meta.first_row = f.first_row;
            report.bytes_in += f.committed_size;
            report.bytes_out += meta.committed_size;
            report.rows += meta.row_count;
            report.blocks_written += 1;
            report.fragments_converted += 1;
            self.sms
                .commit_conversion(table, &[(f.fragment, f.masks.len())], vec![meta], false)?;
        }
        Ok(report)
    }

    /// Automatic reclustering (Figure 6): when level-0 deltas are large
    /// enough relative to the baseline, merge everything into a new
    /// non-overlapping baseline sorted by the clustering keys.
    pub fn recluster(&self, table: TableId) -> VortexResult<ReclusterReport> {
        let _bg = class_scope(WorkClass::Background);
        let rs = self.read_set(table)?;
        let (tmeta, key) = (&rs.table, rs.table.encryption_key());
        let schema = &tmeta.schema;
        let (ros, baseline_rows, delta_rows) = ros_of(&rs);
        let should_merge = delta_rows > 0
            && (baseline_rows == 0 || delta_rows as f64 >= MERGE_TRIGGER * baseline_rows as f64);
        if !should_merge {
            return Ok(ReclusterReport {
                merged: false,
                baseline_blocks: 0,
                clustering_ratio: ratio(baseline_rows, delta_rows),
            });
        }
        let next_level = ros.iter().map(|s| s.meta.level).max().unwrap_or(0) + 1;
        // Decode all live ROS zones, applying masks: partition key → its
        // rows' typed columns, in source order, each zone dropped once
        // copied. Then per partition one global order by clustering key,
        // split into non-overlapping blocks, each gathered from the
        // partition's columns in that order.
        let mut partitions: BTreeMap<Option<i64>, RosBlockBuilder> = BTreeMap::new();
        let partition = partition_column(schema);
        let mut sources = Vec::new();
        for spec in ros {
            let f = &spec.meta;
            sources.push((f.fragment, f.masks.len()));
            for (zone, kept) in self.source_zones(spec, (schema, &key))? {
                let groups = match f.partition_key {
                    Some(pkey) => vec![(Some(pkey), kept)],
                    None => partitioned(&zone, partition, kept),
                };
                for (pkey, rows) in groups {
                    let of = partitions.entry(pkey);
                    let of = of.or_insert_with(|| RosBlockBuilder::new(schema));
                    of.push_rows(&zone.metas, &zone.cols, &rows)?;
                }
            }
        }
        let mut replacements = Vec::new();
        for (pkey, rows) in partitions {
            rows.build_clustered(self.cfg.target_block_rows, |block| {
                let mut meta = self.write_ros_block(tmeta, &key, &block)?;
                meta.partition_key = pkey;
                meta.level = next_level;
                replacements.push(meta);
                Ok(())
            })?;
        }
        let baseline_blocks = replacements.len();
        // Same invariant as conversion: merged blocks written but not
        // yet registered are invisible; sources remain authoritative.
        vortex_common::crash_point!("optimizer.recluster.pre_commit");
        self.sms
            .commit_conversion(table, &sources, replacements, true)?;
        // Every ROS row the pass listed is now in the baseline.
        Ok(ReclusterReport {
            merged: true,
            baseline_blocks,
            clustering_ratio: 1.0,
        })
    }

    /// Current clustering ratio of the table's ROS data (§6.1).
    pub fn clustering_ratio(&self, table: TableId) -> VortexResult<f64> {
        let (_, baseline_rows, delta_rows) = ros_of(&*self.read_set(table)?);
        Ok(ratio(baseline_rows, delta_rows))
    }

    /// Number of live WOS fragments waiting for conversion (the
    /// optimizer backlog; grows when yielding to DML, §7.3).
    pub fn backlog(&self, table: TableId) -> usize {
        self.read_set(table)
            .map_or(0, |rs| convertible(&rs).count())
    }
}

/// Writes one immutable file in a single append. A background service
/// retries transient write errors itself rather than abandoning the whole
/// pass — but a failed append may have durably persisted a torn prefix,
/// and an append-only file cannot be truncated: every retry starts from a
/// deleted file, and an append that leaves anything but exactly `bytes`
/// behind counts as failed. (Appending the block after a torn prefix
/// used to leave that replica unreadable for good.)
fn write_whole_file(cluster: &Colossus, path: &str, bytes: &[u8]) -> VortexResult<()> {
    let mut last = VortexError::Io(format!("{path}: not written"));
    for _ in 0..3 {
        match cluster.append(path, bytes, Timestamp::MIN) {
            Ok(out) if out.new_len == bytes.len() as u64 => return Ok(()),
            Ok(out) => {
                last = VortexError::Io(format!(
                    "{path}: {} bytes after writing {}",
                    out.new_len,
                    bytes.len()
                ))
            }
            Err(e) => last = e,
        }
        let _ = cluster.delete(path);
    }
    Err(last)
}

/// The listed WOS fragments a conversion may take: those with rows,
/// every one of them visible to every later snapshot. The read set lists
/// a PENDING stream's fragments only once it is committed, so what is left
/// to check is a BUFFERED stream's flush watermark, which must cover the
/// whole fragment — ROS blocks carry no stream visibility.
fn convertible(rs: &ReadSet) -> impl Iterator<Item = &FragmentReadSpec> {
    rs.fragments.iter().filter(|s| {
        let (f, end) = (&s.meta, s.meta.first_row + s.meta.row_count);
        let flushed = s.visibility.flush_limit.map_or(true, |limit| limit >= end);
        f.kind == FragmentKind::Wos && f.row_count > 0 && flushed
    })
}

/// The listed ROS blocks, and the rows they hold in the baseline
/// (level > 0) and in deltas.
fn ros_of(rs: &ReadSet) -> (Vec<&FragmentReadSpec>, u64, u64) {
    let ros: Vec<&FragmentReadSpec> = (rs.fragments.iter())
        .filter(|s| s.meta.kind == FragmentKind::Ros)
        .collect();
    let rows = |delta: bool| ros.iter().filter(move |s| (s.meta.level == 0) == delta);
    let [baseline, delta] = [false, true].map(|d| rows(d).map(|s| s.meta.row_count).sum());
    (ros, baseline, delta)
}

/// The rows `kept` of `zone` grouped by partition key, the partitions in
/// key order and each one's rows ascending (`partition`: the column and
/// its transform; none, or a column the rows predate, keys them `None`).
fn partitioned(
    zone: &Zone,
    partition: Option<(usize, &PartitionSpec)>,
    kept: Vec<usize>,
) -> Vec<(Option<i64>, Vec<usize>)> {
    let Some((col, spec)) = partition.and_then(|(c, spec)| Some((zone.cols.get(c)?, spec))) else {
        return vec![(None, kept)];
    };
    // One key per distinct cell of the zone, each row keyed by its code.
    let (firsts, codes) = dictionary(col);
    let of = |&i: &usize| spec.partition_key(&col.value(i));
    let pkeys: Vec<Option<i64>> = firsts.iter().map(of).collect();
    let mut keyed: Vec<_> = kept
        .into_iter()
        .map(|r| (pkeys[codes[r] as usize], r))
        .collect();
    keyed.sort_unstable();
    let mut groups: Vec<(Option<i64>, Vec<usize>)> = Vec::new();
    for (pkey, r) in keyed {
        match groups.last_mut() {
            Some((at, rows)) if *at == pkey => rows.push(r),
            _ => groups.push((pkey, vec![r])),
        }
    }
    groups
}

/// The clustering ratio: rows in baseline blocks over all ROS rows, 1 for
/// none.
fn ratio(baseline_rows: u64, delta_rows: u64) -> f64 {
    match baseline_rows + delta_rows {
        0 => 1.0,
        total => baseline_rows as f64 / total as f64,
    }
}

/// The column a table is partitioned on and the transform that maps its
/// cells to partition keys.
fn partition_column(schema: &Schema) -> Option<(usize, &PartitionSpec)> {
    let spec = schema.partition.as_ref()?;
    Some((schema.column_index(&spec.column)?, spec))
}
