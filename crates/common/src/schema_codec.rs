//! Binary serialization for [`Schema`] — schemas live in the metadata
//! store ("the table's logical metadata includes the table schema",
//! §5.2) and are fetched by clients on schema-version mismatches
//! (§5.4.1).

use crate::codec::{get_str, get_uvarint, put_str, put_uvarint};
use crate::error::{VortexError, VortexResult};
use crate::schema::{Field, FieldMode, FieldType, PartitionSpec, PartitionTransform, Schema};

fn put_ftype(out: &mut Vec<u8>, t: &FieldType) {
    let tag: u8 = match t {
        FieldType::Bool => 0,
        FieldType::Int64 => 1,
        FieldType::Float64 => 2,
        FieldType::String => 3,
        FieldType::Bytes => 4,
        FieldType::Timestamp => 5,
        FieldType::Date => 6,
        FieldType::Numeric => 7,
        FieldType::Json => 8,
        FieldType::Struct(_) => 9,
    };
    out.push(tag);
    if let FieldType::Struct(fields) = t {
        put_uvarint(out, fields.len() as u64);
        for f in fields {
            put_field(out, f);
        }
    }
}

fn get_ftype(buf: &[u8], pos: &mut usize) -> VortexResult<FieldType> {
    let tag = *buf
        .get(*pos)
        .ok_or_else(|| VortexError::Decode("ftype truncated".into()))?;
    *pos += 1;
    Ok(match tag {
        0 => FieldType::Bool,
        1 => FieldType::Int64,
        2 => FieldType::Float64,
        3 => FieldType::String,
        4 => FieldType::Bytes,
        5 => FieldType::Timestamp,
        6 => FieldType::Date,
        7 => FieldType::Numeric,
        8 => FieldType::Json,
        9 => {
            let n = get_uvarint(buf, pos)? as usize;
            if n > buf.len() {
                return Err(VortexError::Decode("struct field count".into()));
            }
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                fields.push(get_field(buf, pos)?);
            }
            FieldType::Struct(fields)
        }
        other => return Err(VortexError::Decode(format!("bad ftype tag {other}"))),
    })
}

fn put_field(out: &mut Vec<u8>, f: &Field) {
    put_str(out, &f.name);
    out.push(match f.mode {
        FieldMode::Nullable => 0,
        FieldMode::Required => 1,
        FieldMode::Repeated => 2,
    });
    put_ftype(out, &f.ftype);
}

fn get_field(buf: &[u8], pos: &mut usize) -> VortexResult<Field> {
    let name = get_str(buf, pos)?;
    let mode = match buf.get(*pos) {
        Some(0) => FieldMode::Nullable,
        Some(1) => FieldMode::Required,
        Some(2) => FieldMode::Repeated,
        other => return Err(VortexError::Decode(format!("bad field mode {other:?}"))),
    };
    *pos += 1;
    let ftype = get_ftype(buf, pos)?;
    Ok(Field { name, ftype, mode })
}

/// Serializes a schema.
pub fn schema_to_bytes(s: &Schema) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&s.version.to_le_bytes());
    put_uvarint(&mut out, s.fields.len() as u64);
    for f in &s.fields {
        put_field(&mut out, f);
    }
    put_uvarint(&mut out, s.primary_key.len() as u64);
    for k in &s.primary_key {
        put_str(&mut out, k);
    }
    match &s.partition {
        None => out.push(0),
        Some(p) => {
            out.push(1);
            put_str(&mut out, &p.column);
            out.push(match p.transform {
                PartitionTransform::Identity => 0,
                PartitionTransform::Date => 1,
            });
        }
    }
    put_uvarint(&mut out, s.clustering.len() as u64);
    for c in &s.clustering {
        put_str(&mut out, c);
    }
    out
}

/// Deserializes a schema from [`schema_to_bytes`] output.
pub fn schema_from_bytes(buf: &[u8]) -> VortexResult<Schema> {
    let mut pos = 0usize;
    if buf.len() < 4 {
        return Err(VortexError::Decode("schema truncated".into()));
    }
    let version = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    pos += 4;
    let nfields = get_uvarint(buf, &mut pos)? as usize;
    if nfields > buf.len() {
        return Err(VortexError::Decode("schema field count".into()));
    }
    let mut fields = Vec::with_capacity(nfields);
    for _ in 0..nfields {
        fields.push(get_field(buf, &mut pos)?);
    }
    let npk = get_uvarint(buf, &mut pos)? as usize;
    if npk > buf.len() {
        return Err(VortexError::Decode("schema pk count".into()));
    }
    let mut primary_key = Vec::with_capacity(npk);
    for _ in 0..npk {
        primary_key.push(get_str(buf, &mut pos)?);
    }
    let partition = match buf.get(pos) {
        Some(0) => {
            pos += 1;
            None
        }
        Some(1) => {
            pos += 1;
            let column = get_str(buf, &mut pos)?;
            let transform = match buf.get(pos) {
                Some(0) => PartitionTransform::Identity,
                Some(1) => PartitionTransform::Date,
                other => return Err(VortexError::Decode(format!("bad transform {other:?}"))),
            };
            pos += 1;
            Some(PartitionSpec { column, transform })
        }
        other => return Err(VortexError::Decode(format!("bad partition flag {other:?}"))),
    };
    let ncl = get_uvarint(buf, &mut pos)? as usize;
    if ncl > buf.len() {
        return Err(VortexError::Decode("schema clustering count".into()));
    }
    let mut clustering = Vec::with_capacity(ncl);
    for _ in 0..ncl {
        clustering.push(get_str(buf, &mut pos)?);
    }
    if pos != buf.len() {
        return Err(VortexError::Decode(format!(
            "schema has {} trailing bytes",
            buf.len() - pos
        )));
    }
    Ok(Schema {
        fields,
        version,
        primary_key,
        partition,
        clustering,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::sales_schema;

    #[test]
    fn sales_schema_roundtrip() {
        let s = sales_schema();
        let bytes = schema_to_bytes(&s);
        assert_eq!(schema_from_bytes(&bytes).unwrap(), s);
    }

    #[test]
    fn maximal_length_varint_is_an_error_not_an_overflow() {
        // The first field name's length prefix, replaced by u64::MAX:
        // `pos + n` used to overflow before the bound could reject it.
        let bytes = schema_to_bytes(&sales_schema());
        let name = sales_schema().fields[0].name.clone();
        let at = bytes
            .windows(name.len())
            .position(|w| w == name.as_bytes())
            .unwrap();
        let mut bad = bytes[..at - 1].to_vec();
        put_uvarint(&mut bad, u64::MAX);
        bad.extend_from_slice(&bytes[at..]);
        assert!(schema_from_bytes(&bad).is_err());
    }

    #[test]
    fn minimal_schema_roundtrip() {
        let s = Schema::new(vec![Field::nullable("x", FieldType::Json)]);
        assert_eq!(schema_from_bytes(&schema_to_bytes(&s)).unwrap(), s);
    }

    #[test]
    fn deeply_nested_struct_roundtrip() {
        let inner = FieldType::Struct(vec![Field::repeated(
            "leaf",
            FieldType::Struct(vec![Field::required("v", FieldType::Bytes)]),
        )]);
        let s = Schema::new(vec![Field::repeated("outer", inner)])
            .with_primary_key(&["outer"])
            .with_clustering(&["outer"]);
        assert_eq!(schema_from_bytes(&schema_to_bytes(&s)).unwrap(), s);
    }

    #[test]
    fn evolved_schema_keeps_version() {
        let s = sales_schema()
            .evolve_add_column(Field::nullable("note", FieldType::String))
            .unwrap();
        let back = schema_from_bytes(&schema_to_bytes(&s)).unwrap();
        assert_eq!(back.version, 2);
        assert_eq!(back.fields.len(), 7);
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = schema_to_bytes(&sales_schema());
        for cut in 0..bytes.len() {
            assert!(schema_from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = schema_to_bytes(&sales_schema());
        bytes.push(7);
        assert!(schema_from_bytes(&bytes).is_err());
    }
}
