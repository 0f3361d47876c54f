//! Column properties: min/max statistics used for partition elimination.
//!
//! "Vortex performs partition elimination by maintaining column properties
//! such as min/max values and bloom filters for columns on which the data
//! is partitioned or clustered" (§7.2). The Stream Server accumulates
//! these per Streamlet/Fragment as data is written; the Storage Optimizer
//! and Big Metadata track them per ROS block.

use crate::codec::{decode_value, encode_value, get_uvarint, put_uvarint};
use crate::error::{VortexError, VortexResult};
use crate::row::Value;

/// Min/max (and null presence) for one column over some set of rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnStats {
    /// Smallest non-null value seen, if any.
    pub min: Option<Value>,
    /// Largest non-null value seen, if any.
    pub max: Option<Value>,
    /// Whether any NULL was seen.
    pub has_null: bool,
    /// Rows observed.
    pub count: u64,
}

impl ColumnStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one value into the stats.
    pub fn observe(&mut self, v: &Value) {
        self.count += 1;
        if v.is_null() {
            self.has_null = true;
            return;
        }
        match &self.min {
            Some(m) if m.total_cmp(v).is_le() => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if m.total_cmp(v).is_ge() => {}
            _ => self.max = Some(v.clone()),
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &ColumnStats) {
        if let Some(m) = &other.min {
            match &self.min {
                Some(cur) if cur.total_cmp(m).is_le() => {}
                _ => self.min = Some(m.clone()),
            }
        }
        if let Some(m) = &other.max {
            match &self.max {
                Some(cur) if cur.total_cmp(m).is_ge() => {}
                _ => self.max = Some(m.clone()),
            }
        }
        self.has_null |= other.has_null;
        self.count += other.count;
    }

    /// Binary serialization (embedded in heartbeats and ROS block
    /// metadata).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut flags = 0u8;
        if self.min.is_some() {
            flags |= 1;
        }
        if self.max.is_some() {
            flags |= 2;
        }
        if self.has_null {
            flags |= 4;
        }
        out.push(flags);
        put_uvarint(&mut out, self.count);
        if let Some(m) = &self.min {
            encode_value(&mut out, m);
        }
        if let Some(m) = &self.max {
            encode_value(&mut out, m);
        }
        out
    }

    /// Deserializes from [`ColumnStats::to_bytes`] output, advancing `pos`.
    pub fn from_bytes(buf: &[u8], pos: &mut usize) -> VortexResult<Self> {
        let flags = *buf
            .get(*pos)
            .ok_or_else(|| VortexError::Decode("stats flags truncated".into()))?;
        *pos += 1;
        let count = get_uvarint(buf, pos)?;
        let min = if flags & 1 != 0 {
            Some(decode_value(buf, pos)?)
        } else {
            None
        };
        let max = if flags & 2 != 0 {
            Some(decode_value(buf, pos)?)
        } else {
            None
        };
        Ok(ColumnStats {
            min,
            max,
            has_null: flags & 4 != 0,
            count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_tracks_min_max_null() {
        let mut s = ColumnStats::new();
        s.observe(&Value::Int64(5));
        s.observe(&Value::Int64(-2));
        s.observe(&Value::Null);
        s.observe(&Value::Int64(9));
        assert_eq!(s.min, Some(Value::Int64(-2)));
        assert_eq!(s.max, Some(Value::Int64(9)));
        assert!(s.has_null);
        assert_eq!(s.count, 4);
    }

    /// An all-NULL column records no bounds, only its NULLs: the pruning
    /// rule (`Expr::may_match_stats`) reads that as "no value but NULL",
    /// so `= 0` prunes it and `IS NULL` keeps it. The stats must keep
    /// that shape through merging and serialization.
    #[test]
    fn all_null_column_matches_nothing_but_null() {
        let mut s = ColumnStats::new();
        s.observe(&Value::Null);
        s.observe(&Value::Null);
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
        assert!(s.has_null);
        assert_eq!(s.count, 2);
        let mut merged = ColumnStats::new();
        merged.merge(&s);
        assert_eq!(merged, s);
        let bytes = s.to_bytes();
        let mut pos = 0;
        assert_eq!(ColumnStats::from_bytes(&bytes, &mut pos).unwrap(), s);
    }

    #[test]
    fn merge_combines() {
        let mut a = ColumnStats::new();
        a.observe(&Value::Int64(1));
        let mut b = ColumnStats::new();
        b.observe(&Value::Int64(100));
        b.observe(&Value::Null);
        a.merge(&b);
        assert_eq!(a.min, Some(Value::Int64(1)));
        assert_eq!(a.max, Some(Value::Int64(100)));
        assert!(a.has_null);
        assert_eq!(a.count, 3);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut s = ColumnStats::new();
        s.observe(&Value::String("alpha".into()));
        s.observe(&Value::String("omega".into()));
        s.observe(&Value::Null);
        let bytes = s.to_bytes();
        let mut pos = 0;
        let back = ColumnStats::from_bytes(&bytes, &mut pos).unwrap();
        assert_eq!(pos, bytes.len());
        assert_eq!(back, s);
        // Empty stats roundtrip too.
        let empty = ColumnStats::new();
        let bytes = empty.to_bytes();
        let mut pos = 0;
        assert_eq!(ColumnStats::from_bytes(&bytes, &mut pos).unwrap(), empty);
    }
}
