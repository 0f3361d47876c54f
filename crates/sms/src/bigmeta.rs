//! Big Metadata: the columnar index over fragment column properties
//! (§6.2, and the Big Metadata paper the authors cite as \[8\]).
//!
//! "As the storage optimizer moves data between the layers in the LSM
//! tree, BigQuery's highly scalable metadata management system, called
//! Big Metadata, manages fine grained column properties for accelerating
//! query performance. In steady state, there is a tail of the Fragment
//! and Streamlet metadata that may have not yet been indexed ... we
//! continuously compact the metadata entries ... by maintaining a
//! watermark which is the timestamp of the oldest live Fragment that has
//! not yet been optimized."
//!
//! Here the index is an in-memory per-table map from fragment id to its
//! column properties, fed by optimizer conversion commits. Fragments not
//! in the index (fresh WOS) form the **tail**; its length is an
//! observable metric (benchmarked in A3), and [`BigMeta::compact`]
//! advances the watermark and drops entries for deleted fragments.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use vortex_common::ids::{FragmentId, TableId};
use vortex_common::stats::ColumnStats;
use vortex_common::truetime::Timestamp;

use crate::meta::FragmentMeta;

/// Indexed column properties of one (optimized) fragment.
#[derive(Debug, Clone)]
pub struct IndexedFragment {
    /// The fragment.
    pub fragment: FragmentId,
    /// When it became visible.
    pub created_at: Timestamp,
    /// When it was deleted (MAX while live).
    pub deleted_at: Timestamp,
    /// Column properties.
    pub stats: Vec<(String, ColumnStats)>,
    /// Partition key if the block is partition-split.
    pub partition_key: Option<i64>,
}

#[derive(Debug, Default)]
struct TableIndex {
    fragments: HashMap<FragmentId, IndexedFragment>,
    /// Timestamp of the oldest live fragment not yet optimized — the
    /// compaction watermark (§6.2).
    watermark: Timestamp,
    /// How many conversions fed this index (diagnostics).
    conversions: u64,
}

/// The Big Metadata index, shared by an SMS task.
#[derive(Debug, Default)]
pub struct BigMeta {
    tables: RwLock<HashMap<TableId, TableIndex>>,
}

impl BigMeta {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shareable handle.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Indexes freshly committed (ROS) fragments.
    pub fn index_fragments(&self, table: TableId, metas: &[FragmentMeta]) {
        let mut tables = self.tables.write();
        let idx = tables.entry(table).or_default();
        for m in metas {
            idx.fragments.insert(
                m.fragment,
                IndexedFragment {
                    fragment: m.fragment,
                    created_at: m.created_at,
                    deleted_at: m.deleted_at,
                    stats: m.stats.clone(),
                    partition_key: m.partition_key,
                },
            );
        }
    }

    /// Notes that source fragments were converted away (they leave the
    /// index at the next compaction).
    pub fn note_conversion(&self, table: TableId, sources: &[FragmentId]) {
        let mut tables = self.tables.write();
        let idx = tables.entry(table).or_default();
        idx.conversions += 1;
        for s in sources {
            if let Some(f) = idx.fragments.get_mut(s) {
                f.deleted_at = Timestamp::MIN; // tombstone for compaction
            }
        }
    }

    /// Number of indexed fragments for a table.
    pub fn indexed_count(&self, table: TableId) -> usize {
        self.tables
            .read()
            .get(&table)
            .map(|t| t.fragments.len())
            .unwrap_or(0)
    }

    /// The tail: live fragments of the table (from the metastore view the
    /// caller supplies) that are *not* indexed — scanning these adds
    /// latency to query processing (§6.2).
    pub fn tail_count(&self, table: TableId, live_fragments: &[FragmentMeta]) -> usize {
        let tables = self.tables.read();
        let idx = tables.get(&table);
        live_fragments
            .iter()
            .filter(|f| {
                idx.map(|i| !i.fragments.contains_key(&f.fragment))
                    .unwrap_or(true)
            })
            .count()
    }

    /// Advances the watermark and drops tombstoned entries. Returns how
    /// many entries were compacted away.
    pub fn compact(&self, table: TableId, watermark: Timestamp) -> usize {
        let mut tables = self.tables.write();
        let Some(idx) = tables.get_mut(&table) else {
            return 0;
        };
        let before = idx.fragments.len();
        idx.fragments
            .retain(|_, f| f.deleted_at > watermark || f.deleted_at == Timestamp::MAX);
        idx.watermark = idx.watermark.max(watermark);
        before - idx.fragments.len()
    }

    /// The current compaction watermark for a table.
    pub fn watermark(&self, table: TableId) -> Timestamp {
        self.tables
            .read()
            .get(&table)
            .map(|t| t.watermark)
            .unwrap_or(Timestamp::MIN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{FragmentKind, FragmentState};
    use vortex_common::ids::{ClusterId, StreamletId};
    use vortex_common::row::Value;

    fn frag(id: u64, min: i64, max: i64) -> FragmentMeta {
        let mut s = ColumnStats::new();
        s.observe(&Value::Int64(min));
        s.observe(&Value::Int64(max));
        FragmentMeta {
            fragment: FragmentId::from_raw(id),
            table: TableId::from_raw(1),
            streamlet: StreamletId::from_raw(0),
            kind: FragmentKind::Ros,
            ordinal: 0,
            first_row: 0,
            row_count: 10,
            committed_size: 100,
            state: FragmentState::Finalized,
            created_at: Timestamp(10),
            deleted_at: Timestamp::MAX,
            clusters: [ClusterId::from_raw(0), ClusterId::from_raw(1)],
            path: format!("ros/b{id}"),
            stats: vec![("k".into(), s)],
            masks: vec![],
            partition_key: None,
            level: 1,
        }
    }

    #[test]
    fn tail_counts_unindexed_live_fragments() {
        let bm = BigMeta::new();
        let t = TableId::from_raw(1);
        bm.index_fragments(t, &[frag(1, 0, 10)]);
        let live = vec![frag(1, 0, 10), frag(2, 20, 30), frag(3, 40, 50)];
        assert_eq!(bm.tail_count(t, &live), 2);
        // Unknown table: everything is tail.
        assert_eq!(bm.tail_count(TableId::from_raw(9), &live), 3);
    }

    #[test]
    fn conversion_tombstones_then_compaction_drops() {
        let bm = BigMeta::new();
        let t = TableId::from_raw(1);
        bm.index_fragments(t, &[frag(1, 0, 10), frag(2, 20, 30)]);
        bm.note_conversion(t, &[FragmentId::from_raw(1)]);
        assert_eq!(bm.indexed_count(t), 2, "tombstoned, not yet compacted");
        let dropped = bm.compact(t, Timestamp(100));
        assert_eq!(dropped, 1);
        assert_eq!(bm.indexed_count(t), 1);
        assert_eq!(bm.watermark(t), Timestamp(100));
        // Compacting again drops nothing more: the live fragment stays.
        assert_eq!(bm.compact(t, Timestamp(200)), 0);
        assert_eq!(bm.indexed_count(t), 1);
    }

    #[test]
    fn compact_on_unknown_table_is_zero() {
        let bm = BigMeta::new();
        assert_eq!(bm.compact(TableId::from_raw(7), Timestamp(1)), 0);
        assert_eq!(bm.watermark(TableId::from_raw(7)), Timestamp::MIN);
    }
}
