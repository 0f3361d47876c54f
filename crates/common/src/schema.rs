//! Table schemas: typed, nested (STRUCT) and repeated (ARRAY) fields,
//! partitioning and clustering specs, and schema versioning.
//!
//! BigQuery's data model "has native support for semi-structured data"
//! with `ARRAY` and `STRUCT` fields plus types like `JSON`, `NUMERIC`,
//! `DATE` and `BYTES` (§3.1, §4); tables may declare *unenforced* primary
//! keys (§4.2.6), a partitioning column, and clustering columns (Listing
//! 1). Schemas are versioned because writers learn about schema changes
//! asynchronously through the Stream Server (§5.4.1).

use crate::error::{VortexError, VortexResult};
use crate::row::{Row, Value};

/// The type of a field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE float.
    Float64,
    /// UTF-8 string.
    String,
    /// Raw bytes.
    Bytes,
    /// Microseconds since the Unix epoch.
    Timestamp,
    /// Days since the Unix epoch.
    Date,
    /// Fixed-point decimal scaled by 10^9 (BigQuery NUMERIC).
    Numeric,
    /// JSON document stored as text.
    Json,
    /// Nested record with named sub-fields.
    Struct(Vec<Field>),
}

impl FieldType {
    /// Short display name used in error messages.
    pub fn name(&self) -> &'static str {
        match self {
            FieldType::Bool => "BOOL",
            FieldType::Int64 => "INT64",
            FieldType::Float64 => "FLOAT64",
            FieldType::String => "STRING",
            FieldType::Bytes => "BYTES",
            FieldType::Timestamp => "TIMESTAMP",
            FieldType::Date => "DATE",
            FieldType::Numeric => "NUMERIC",
            FieldType::Json => "JSON",
            FieldType::Struct(_) => "STRUCT",
        }
    }
}

/// Field mode: nullable (default), required, or repeated (ARRAY).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FieldMode {
    /// Value may be NULL.
    #[default]
    Nullable,
    /// Value must be present.
    Required,
    /// Zero or more values (an ARRAY of the field type).
    Repeated,
}

/// A named, typed field within a schema or struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Element type.
    pub ftype: FieldType,
    /// Nullable / required / repeated.
    pub mode: FieldMode,
}

impl Field {
    /// A required field.
    pub fn required(name: &str, ftype: FieldType) -> Self {
        Field {
            name: name.to_string(),
            ftype,
            mode: FieldMode::Required,
        }
    }

    /// A nullable field.
    pub fn nullable(name: &str, ftype: FieldType) -> Self {
        Field {
            name: name.to_string(),
            ftype,
            mode: FieldMode::Nullable,
        }
    }

    /// A repeated (ARRAY) field.
    pub fn repeated(name: &str, ftype: FieldType) -> Self {
        Field {
            name: name.to_string(),
            ftype,
            mode: FieldMode::Repeated,
        }
    }
}

/// How a partitioning column value maps to a partition key (§3.1's
/// `PARTITION BY DATE(orderTimestamp)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionTransform {
    /// Use the column value itself (integer-valued columns).
    Identity,
    /// Truncate a TIMESTAMP to its UTC day (DATE(ts)).
    Date,
}

/// Table partitioning specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Name of the partitioning column (top-level).
    pub column: String,
    /// Transform applied to the value.
    pub transform: PartitionTransform,
}

const MICROS_PER_DAY: i64 = 86_400_000_000;

impl PartitionSpec {
    /// Computes the partition key for a value of the partition column.
    /// Returns `None` for NULL (rows land in the NULL partition).
    pub fn partition_key(&self, v: &Value) -> Option<i64> {
        match (self.transform, v) {
            (_, Value::Null) => None,
            (PartitionTransform::Identity, Value::Int64(i)) => Some(*i),
            (PartitionTransform::Identity, Value::Date(d)) => Some(*d as i64),
            (PartitionTransform::Date, Value::Timestamp(ts)) => {
                Some(ts.micros() as i64 / MICROS_PER_DAY)
            }
            (PartitionTransform::Date, Value::Date(d)) => Some(*d as i64),
            _ => None,
        }
    }
}

/// Change type of an ingested row (§4.2.6). Carried in the `_CHANGE_TYPE`
/// virtual column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum ChangeType {
    /// Append the row (default).
    #[default]
    Insert,
    /// Update the row matching the primary key, or insert it.
    Upsert,
    /// Delete all rows matching the primary key.
    Delete,
}

impl ChangeType {
    /// Wire encoding.
    pub fn to_u8(self) -> u8 {
        match self {
            ChangeType::Insert => 0,
            ChangeType::Upsert => 1,
            ChangeType::Delete => 2,
        }
    }

    /// Wire decoding.
    pub fn from_u8(v: u8) -> VortexResult<Self> {
        match v {
            0 => Ok(ChangeType::Insert),
            1 => Ok(ChangeType::Upsert),
            2 => Ok(ChangeType::Delete),
            other => Err(VortexError::Decode(format!("bad change type {other}"))),
        }
    }
}

/// A versioned table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Top-level fields, in column order.
    pub fields: Vec<Field>,
    /// Monotonically increasing version; bumped on every schema change.
    pub version: u32,
    /// Unenforced primary key column names (§4.2.6). May be empty.
    pub primary_key: Vec<String>,
    /// Optional partitioning spec.
    pub partition: Option<PartitionSpec>,
    /// Clustering column names (weak sort order, §6.1). May be empty.
    pub clustering: Vec<String>,
}

impl Schema {
    /// Creates a version-1 schema with no keys/partitioning/clustering.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema {
            fields,
            version: 1,
            primary_key: vec![],
            partition: None,
            clustering: vec![],
        }
    }

    /// Builder: sets the unenforced primary key columns.
    pub fn with_primary_key(mut self, cols: &[&str]) -> Self {
        self.primary_key = cols.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Builder: sets the partition spec.
    pub fn with_partition(mut self, column: &str, transform: PartitionTransform) -> Self {
        self.partition = Some(PartitionSpec {
            column: column.to_string(),
            transform,
        });
        self
    }

    /// Builder: sets the clustering columns.
    pub fn with_clustering(mut self, cols: &[&str]) -> Self {
        self.clustering = cols.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Index of a top-level column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Indexes of the columns a log file's or a ROS block's bloom filter
    /// keys on (§5.4.4): the partition column, then the clustering
    /// columns, each once.
    pub fn bloom_key_columns(&self) -> Vec<usize> {
        let named = self
            .partition
            .iter()
            .map(|p| &p.column)
            .chain(&self.clustering);
        // lint:allow(L010, once per streamlet open or block builder, like `tracked_columns`)
        let mut cols = Vec::new();
        for i in named.filter_map(|c| self.column_index(c)) {
            if !cols.contains(&i) {
                cols.push(i); // lint:allow(L010, at most one per key column)
            }
        }
        cols
    }

    /// `(column index, name)` of the columns that carry per-fragment
    /// zone-map stats (§7.2): top-level scalars, i.e. neither structs nor
    /// repeated. The Stream Server tracks these while it writes and
    /// reconciliation recomputes them from the log files.
    pub fn tracked_columns(&self) -> Vec<(usize, String)> {
        let scalar =
            |f: &Field| !matches!(f.ftype, FieldType::Struct(_)) && f.mode != FieldMode::Repeated;
        let cols = self.fields.iter().enumerate().filter(|(_, f)| scalar(f));
        // lint:allow(L010, once per streamlet open or reconciliation; moved here from the server, where its only hot edge is a name-resolved `open`)
        cols.map(|(i, f)| (i, f.name.clone())).collect()
    }

    /// Returns a new schema with an extra nullable column appended and the
    /// version bumped — the only evolution the engine supports, mirroring
    /// the common additive case in §5.4.1.
    pub fn evolve_add_column(&self, field: Field) -> VortexResult<Schema> {
        if self.column_index(&field.name).is_some() {
            return Err(VortexError::AlreadyExists(format!("column {}", field.name)));
        }
        if field.mode == FieldMode::Required {
            return Err(VortexError::InvalidArgument(
                "new columns must be NULLABLE or REPEATED (existing rows lack them)".into(),
            ));
        }
        let mut fields = self.fields.clone();
        fields.push(field);
        Ok(Schema {
            fields,
            version: self.version + 1,
            primary_key: self.primary_key.clone(),
            partition: self.partition.clone(),
            clustering: self.clustering.clone(),
        })
    }

    /// Validates one value against a field declaration.
    fn validate_value(field: &Field, v: &Value) -> VortexResult<()> {
        let type_err = |v: &Value| {
            Err(VortexError::SchemaViolation(format!(
                "column '{}' expects {} ({:?}), got {}",
                field.name,
                field.ftype.name(),
                field.mode,
                v.type_name()
            )))
        };
        match field.mode {
            FieldMode::Repeated => {
                let Value::Array(items) = v else {
                    return type_err(v);
                };
                for item in items {
                    Self::validate_scalar(field, item)?;
                }
                Ok(())
            }
            FieldMode::Nullable => {
                if matches!(v, Value::Null) {
                    Ok(())
                } else {
                    Self::validate_scalar(field, v)
                }
            }
            FieldMode::Required => {
                if matches!(v, Value::Null) {
                    Err(VortexError::SchemaViolation(format!(
                        "column '{}' is REQUIRED but got NULL",
                        field.name
                    )))
                } else {
                    Self::validate_scalar(field, v)
                }
            }
        }
    }

    fn validate_scalar(field: &Field, v: &Value) -> VortexResult<()> {
        let ok = match (&field.ftype, v) {
            (FieldType::Bool, Value::Bool(_)) => true,
            (FieldType::Int64, Value::Int64(_)) => true,
            (FieldType::Float64, Value::Float64(_)) => true,
            (FieldType::String, Value::String(_)) => true,
            (FieldType::Bytes, Value::Bytes(_)) => true,
            (FieldType::Timestamp, Value::Timestamp(_)) => true,
            (FieldType::Date, Value::Date(_)) => true,
            (FieldType::Numeric, Value::Numeric(_)) => true,
            (FieldType::Json, Value::Json(_)) => true,
            (FieldType::Struct(subfields), Value::Struct(values)) => {
                if subfields.len() != values.len() {
                    return Err(VortexError::SchemaViolation(format!(
                        "struct '{}' expects {} fields, got {}",
                        field.name,
                        subfields.len(),
                        values.len()
                    )));
                }
                for (sf, sv) in subfields.iter().zip(values.iter()) {
                    Self::validate_value(sf, sv)?;
                }
                true
            }
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(VortexError::SchemaViolation(format!(
                "column '{}' expects {}, got {}",
                field.name,
                field.ftype.name(),
                v.type_name()
            )))
        }
    }

    /// Validates an entire row (arity + per-field types). Mutation rows
    /// (`UPSERT`/`DELETE`) additionally require a primary key on the table.
    pub fn validate_row(&self, row: &Row) -> VortexResult<()> {
        if row.values.len() != self.fields.len() {
            return Err(VortexError::SchemaViolation(format!(
                "row has {} values, schema v{} has {} columns",
                row.values.len(),
                self.version,
                self.fields.len()
            )));
        }
        for (f, v) in self.fields.iter().zip(row.values.iter()) {
            Self::validate_value(f, v)?;
        }
        if row.change_type != ChangeType::Insert && self.primary_key.is_empty() {
            return Err(VortexError::SchemaViolation(
                "UPSERT/DELETE rows require a primary key on the table".into(),
            ));
        }
        Ok(())
    }

    /// Extracts the primary key of a row as a canonical byte string, used
    /// for UPSERT/DELETE resolution. Returns `None` if no key is declared.
    pub fn primary_key_bytes(&self, row: &Row) -> Option<Vec<u8>> {
        if self.primary_key.is_empty() {
            return None;
        }
        let mut out = Vec::new();
        for col in &self.primary_key {
            let idx = self.column_index(col)?;
            let v = row.values.get(idx)?;
            let k = v.encode_key();
            out.extend_from_slice(&(k.len() as u32).to_le_bytes());
            out.extend_from_slice(&k);
        }
        Some(out)
    }
}

/// The Sales table from the paper's Listing 1, used throughout tests and
/// examples.
pub fn sales_schema() -> Schema {
    Schema::new(vec![
        Field::required("orderTimestamp", FieldType::Timestamp),
        Field::required("salesOrderKey", FieldType::String),
        Field::required("customerKey", FieldType::String),
        Field::repeated(
            "salesOrderLines",
            FieldType::Struct(vec![
                Field::required("salesOrderLineKey", FieldType::Int64),
                Field::nullable("dueDate", FieldType::Date),
                Field::nullable("shipDate", FieldType::Date),
                Field::required("quantity", FieldType::Int64),
                Field::required("unitPrice", FieldType::Numeric),
            ]),
        ),
        Field::required("totalSale", FieldType::Numeric),
        Field::required("currencyKey", FieldType::Int64),
    ])
    .with_primary_key(&["salesOrderKey"])
    .with_partition("orderTimestamp", PartitionTransform::Date)
    .with_clustering(&["customerKey"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truetime::Timestamp;

    fn sample_sales_row() -> Row {
        Row::insert(vec![
            Value::Timestamp(Timestamp::from_micros(1_696_118_400_000_000)),
            Value::String("SO-1".into()),
            Value::String("cust-1".into()),
            Value::Array(vec![Value::Struct(vec![
                Value::Int64(1),
                Value::Date(19_700),
                Value::Null,
                Value::Int64(3),
                Value::Numeric(12_990_000_000),
            ])]),
            Value::Numeric(38_970_000_000),
            Value::Int64(840),
        ])
    }

    #[test]
    fn sales_row_validates() {
        sales_schema().validate_row(&sample_sales_row()).unwrap();
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = sample_sales_row();
        r.values.pop();
        let err = sales_schema().validate_row(&r).unwrap_err();
        assert!(matches!(err, VortexError::SchemaViolation(_)));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut r = sample_sales_row();
        r.values[1] = Value::Int64(5); // salesOrderKey is STRING
        assert!(sales_schema().validate_row(&r).is_err());
    }

    #[test]
    fn required_null_rejected_nullable_null_ok() {
        let mut r = sample_sales_row();
        r.values[0] = Value::Null; // REQUIRED
        assert!(sales_schema().validate_row(&r).is_err());
        let mut r = sample_sales_row();
        // dueDate inside struct is NULLABLE
        r.values[3] = Value::Array(vec![Value::Struct(vec![
            Value::Int64(1),
            Value::Null,
            Value::Null,
            Value::Int64(1),
            Value::Numeric(0),
        ])]);
        sales_schema().validate_row(&r).unwrap();
    }

    #[test]
    fn repeated_requires_array() {
        let mut r = sample_sales_row();
        r.values[3] = Value::Int64(1);
        assert!(sales_schema().validate_row(&r).is_err());
    }

    #[test]
    fn struct_arity_checked() {
        let mut r = sample_sales_row();
        r.values[3] = Value::Array(vec![Value::Struct(vec![Value::Int64(1)])]);
        assert!(sales_schema().validate_row(&r).is_err());
    }

    #[test]
    fn mutation_requires_primary_key() {
        let schema = Schema::new(vec![Field::required("a", FieldType::Int64)]);
        let row = Row::with_change(vec![Value::Int64(1)], ChangeType::Delete);
        assert!(schema.validate_row(&row).is_err());
        let keyed = schema.clone().with_primary_key(&["a"]);
        keyed.validate_row(&row).unwrap();
    }

    #[test]
    fn partition_key_date_transform() {
        let spec = PartitionSpec {
            column: "ts".into(),
            transform: PartitionTransform::Date,
        };
        // 2023-10-01T12:00:00Z = day 19631.
        let ts = Value::Timestamp(Timestamp::from_micros(
            19_631 * 86_400_000_000 + 12 * 3_600_000_000,
        ));
        assert_eq!(spec.partition_key(&ts), Some(19_631));
        assert_eq!(spec.partition_key(&Value::Null), None);
    }

    #[test]
    fn schema_evolution_appends_nullable() {
        let s = sales_schema();
        let s2 = s
            .evolve_add_column(Field::nullable("note", FieldType::String))
            .unwrap();
        assert_eq!(s2.version, s.version + 1);
        assert_eq!(s2.fields.len(), s.fields.len() + 1);
        // Duplicate and REQUIRED additions rejected.
        assert!(s2
            .evolve_add_column(Field::nullable("note", FieldType::String))
            .is_err());
        assert!(s2
            .evolve_add_column(Field::required("x", FieldType::Int64))
            .is_err());
    }

    #[test]
    fn primary_key_bytes_distinguish_rows() {
        let s = sales_schema();
        let a = s.primary_key_bytes(&sample_sales_row()).unwrap();
        let mut other = sample_sales_row();
        other.values[1] = Value::String("SO-2".into());
        let b = s.primary_key_bytes(&other).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn change_type_wire_roundtrip() {
        for ct in [ChangeType::Insert, ChangeType::Upsert, ChangeType::Delete] {
            assert_eq!(ChangeType::from_u8(ct.to_u8()).unwrap(), ct);
        }
        assert!(ChangeType::from_u8(9).is_err());
    }
}
