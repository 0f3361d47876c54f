//! Property-based tests (proptest) over the core data structures and
//! end-to-end invariants.

use proptest::prelude::*;

use vortex::row::{Row, RowSet, Value};
use vortex::schema::{Field, FieldType, Schema};
use vortex::{DeletionMask, Expr};
use vortex_common::codec::{decode_rowset, encode_rowset};
use vortex_common::compress::{compress, decompress};
use vortex_common::crypt::{apply_keystream_at, decrypt, encrypt, Key, Nonce};
use vortex_common::stats::ColumnStats;

// ---------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int64),
        any::<f64>().prop_map(Value::Float64),
        "[a-zA-Z0-9 ]{0,24}".prop_map(Value::String),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
        (0u64..u64::MAX / 2).prop_map(|t| Value::Timestamp(vortex::Timestamp(t))),
        any::<i32>().prop_map(Value::Date),
        any::<i128>().prop_map(Value::Numeric),
    ];
    leaf.prop_recursive(2, 8, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Struct),
            proptest::collection::vec(inner, 0..4).prop_map(Value::Array),
        ]
    })
}

fn arb_row() -> impl Strategy<Value = Row> {
    proptest::collection::vec(arb_value(), 0..6).prop_map(Row::insert)
}

/// Row sets shaped like a table's: each of six columns has a type most
/// of its cells keep (`kinds`), the rest being NULLs and cells of any
/// type — Struct / Array among them — so that typed, mixed and all-NULL
/// columns all occur; rows stop at any width (an older schema version)
/// and carry any change type.
fn arb_table_rows() -> impl Strategy<Value = Vec<Row>> {
    use vortex::schema::ChangeType;
    let typed = |kind: u8, n: i64| match kind {
        0 => Value::Null,
        1 => Value::Int64(n),
        2 => Value::Float64(n as f64 * 0.5),
        3 => Value::String(format!("s{n}")),
        4 => Value::Json(format!("{{\"a\":{n}}}")),
        5 => Value::Bytes(n.to_le_bytes()[..(n & 7) as usize].to_vec()),
        6 => Value::Timestamp(vortex::Timestamp(n.unsigned_abs())),
        7 => Value::Date(n as i32),
        8 => Value::Bool(n & 1 == 0),
        _ => Value::Numeric(n as i128 * 1_000_000_007),
    };
    let cell = (0u8..8, any::<i64>(), arb_value());
    let row = (0u8..3, proptest::collection::vec(cell, 0..7));
    let kinds = proptest::collection::vec(0u8..10, 6..7);
    (kinds, proptest::collection::vec(row, 0..20)).prop_map(move |(kinds, rows)| {
        let shape = |(change, cells): (u8, Vec<(u8, i64, Value)>)| {
            let cell = |(c, (how, n, any)): (usize, (u8, i64, Value))| match how {
                0 => Value::Null,
                1 => any,
                _ => typed(kinds[c], n),
            };
            let values = cells.into_iter().enumerate().map(cell).collect();
            Row::with_change(values, ChangeType::from_u8(change).unwrap())
        };
        rows.into_iter().map(shape).collect()
    })
}

#[path = "support/tally.rs"]
mod tally;

/// The columnar walk over `blocks` — encoded row sets accumulating into
/// one zone, as consecutive blocks of a log file do — under the largest-
/// request allocator: the columns' values and the change types, or the
/// first error. No single allocation may exceed what the input's length
/// accounts for: a column under construction for what can be a one-byte
/// NULL cell, in a vector that doubles.
fn columnar(blocks: &[&[u8]]) -> vortex::VortexResult<(Vec<Vec<Value>>, Vec<u8>)> {
    use vortex_ros::{add_rowset, ColumnBuilder};
    let (mut cols, mut changes) = (Vec::<ColumnBuilder>::new(), Vec::new());
    let (walked, largest) = tally::largest_request(|| {
        blocks.iter().try_for_each(|bytes| {
            let held = changes.len();
            add_rowset(&mut cols, held, bytes, |change, _| {
                changes.push(change.to_u8())
            })
            .map(|_| ())
        })
    });
    let input: usize = blocks.iter().map(|b| b.len()).sum();
    let bound = 2 * std::mem::size_of::<ColumnBuilder>() * input + 4096;
    assert!(
        largest <= bound,
        "{largest} bytes requested for {input} of input"
    );
    walked?;
    let values = |col: ColumnBuilder| col.into_column().to_values();
    Ok((cols.into_iter().map(values).collect(), changes))
}

/// One row as wide as its bytes allow — every cell a one-byte NULL — is
/// the most a byte of input can ask for; a width the bytes cannot back is
/// an error before anything is allocated for it.
#[test]
fn columnar_decode_of_a_wide_row_is_bounded() {
    for (declared, cells) in [(5_000, 5_000), (u64::MAX, 5_000), (u64::MAX, 0)] {
        let mut wide = vec![1, 0];
        vortex_common::codec::put_uvarint(&mut wide, declared);
        wide.resize(wide.len() + cells, 0);
        let width = columnar(&[&wide]).map(|(cols, _)| cols.len()).ok();
        assert_eq!(width, (declared == 5_000).then_some(5_000));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ------------------------------------------------------------------
    // Wire codec: arbitrary rows round-trip bit-exactly.
    // ------------------------------------------------------------------
    #[test]
    fn rowset_codec_roundtrip(rows in proptest::collection::vec(arb_row(), 0..8)) {
        let rs = RowSet::new(rows);
        let bytes = encode_rowset(&rs);
        let back = decode_rowset(&bytes).unwrap();
        // NaN-safe comparison via re-encoding.
        prop_assert_eq!(encode_rowset(&back), bytes);
    }

    // ------------------------------------------------------------------
    // The columnar walk of a log-file block against its row-wise
    // reference: the columns are `decode_rowset`'s rows transposed and
    // NULL-padded to the widest, change types in order — across two
    // blocks accumulating into one zone — and any truncation or wrong
    // declared count is an error, never a panic or an over-allocation.
    // ------------------------------------------------------------------
    #[test]
    fn columnar_decode_matches_the_row_decode(
        first in arb_table_rows(),
        second in arb_table_rows(),
        loose in proptest::collection::vec(arb_row(), 0..8),
    ) {
        use vortex_common::codec::{encode_rows, encode_value, put_uvarint};
        for (a, b) in [(&first, &second), (&loose, &first), (&second, &loose)] {
            let (a, b) = (encode_rows(a), encode_rows(b));
            let (cols, changes) = columnar(&[&a, &b]).unwrap();
            let mut rows = decode_rowset(&a).unwrap().rows;
            rows.extend(decode_rowset(&b).unwrap().rows);
            let wire = |v: &Value| {
                let mut out = Vec::new();
                encode_value(&mut out, v);
                out
            };
            prop_assert_eq!(cols.len(), rows.iter().map(|r| r.values.len()).max().unwrap_or(0));
            for (c, col) in cols.iter().enumerate() {
                let want = rows.iter().map(|r| wire(r.values.get(c).unwrap_or(&Value::Null)));
                let got: Vec<_> = col.iter().map(wire).collect();
                prop_assert_eq!(got, want.collect::<Vec<_>>(), "column {}", c);
            }
            let want: Vec<u8> = rows.iter().map(|r| r.change_type.to_u8()).collect();
            prop_assert_eq!(changes, want);

            for cut in 0..b.len() {
                prop_assert!(columnar(&[&a, &b[..cut]]).is_err(), "cut at {} decoded", cut);
            }
            // The same rows under a declared count one off, and a hostile one.
            let mut pos = 0;
            let n = vortex_common::codec::get_uvarint(&b, &mut pos).unwrap();
            for declared in [n + 1, n.wrapping_sub(1), u64::MAX] {
                let mut lying = Vec::new();
                put_uvarint(&mut lying, declared);
                lying.extend_from_slice(&b[pos..]);
                prop_assert!(columnar(&[&a, &lying]).is_err(), "{} rows for {}", declared, n);
            }
        }
    }

    // ------------------------------------------------------------------
    // vsnap compression: arbitrary bytes round-trip; framing is safe.
    // ------------------------------------------------------------------
    #[test]
    fn vsnap_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn vsnap_truncation_never_panics(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        cut in 0usize..512,
    ) {
        let c = compress(&data);
        let cut = cut.min(c.len());
        let _ = decompress(&c[..cut]); // must not panic
    }

    // ------------------------------------------------------------------
    // ChaCha20: encryption is invertible and nonce-sensitive.
    // ------------------------------------------------------------------
    #[test]
    fn chacha_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..2048),
                        pass in "[a-z]{1,12}", frag in any::<u64>(), block in any::<u32>()) {
        let key = Key::derive_from_passphrase(&pass);
        let nonce = Nonce::for_block(frag, block);
        let ct = encrypt(&key, &nonce, &data);
        prop_assert_eq!(decrypt(&key, &nonce, &ct), data);
    }

    // The keystream seeks: a message enciphered piece by piece, each
    // piece at its own offset and in any order, is the message
    // enciphered whole — what lets a ROS chunk decrypt without the file
    // before it.
    #[test]
    fn chacha_pieces_at_their_offsets_equal_the_whole(
        data in proptest::collection::vec(any::<u8>(), 0..1024),
        cuts in proptest::collection::vec(0usize..1024, 0..8),
        frag in any::<u64>(),
    ) {
        let key = Key::derive_from_passphrase("pieces");
        let nonce = Nonce::for_block(frag, u32::MAX);
        let whole = encrypt(&key, &nonce, &data);
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        cuts.extend([0, data.len()]);
        cuts.sort_unstable();
        let mut pieces = data.clone();
        for w in cuts.windows(2).rev() {
            apply_keystream_at(&key, &nonce, w[0] as u64, &mut pieces[w[0]..w[1]]);
        }
        prop_assert_eq!(pieces, whole);
    }

    // ------------------------------------------------------------------
    // Deletion masks: equivalent to a reference set under arbitrary ops.
    // ------------------------------------------------------------------
    #[test]
    fn deletion_mask_matches_reference(
        ops in proptest::collection::vec((0u64..500, 1u64..40), 0..40)
    ) {
        let mut mask = DeletionMask::new();
        let mut reference = std::collections::BTreeSet::new();
        for (start, len) in &ops {
            mask.delete_range(*start, start + len);
            for r in *start..start + len {
                reference.insert(r);
            }
        }
        prop_assert_eq!(mask.deleted_count() as usize, reference.len());
        for r in 0..600 {
            prop_assert_eq!(mask.contains(r), reference.contains(&r), "row {}", r);
        }
        // Serialization round-trips.
        let back = DeletionMask::from_bytes(&mask.to_bytes()).unwrap();
        prop_assert_eq!(&back, &mask);
        // Ranges stay sorted, disjoint, non-adjacent.
        for w in mask.ranges().windows(2) {
            prop_assert!(w[0].1 < w[1].0);
        }
    }

    // ------------------------------------------------------------------
    // Column stats: the rule scans prune by (`Expr::may_match_stats`) is
    // conservative — it never prunes a fragment that holds a matching
    // value — and an all-NULL column matches nothing but `IS NULL`.
    // ------------------------------------------------------------------
    #[test]
    fn stats_pruning_is_conservative(values in proptest::collection::vec(any::<i64>(), 1..60),
                                     probe in any::<i64>()) {
        let mut s = ColumnStats::new();
        for v in &values {
            s.observe(&Value::Int64(*v));
        }
        let lookup = |c: &str| (c == "k").then(|| s.clone());
        if values.contains(&probe) {
            prop_assert!(Expr::eq("k", Value::Int64(probe)).may_match_stats(&lookup));
        }
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        let range = Expr::ge("k", Value::Int64(lo)).and(Expr::le("k", Value::Int64(hi)));
        prop_assert!(range.may_match_stats(&lookup));
        let mut nulls = ColumnStats::new();
        nulls.observe(&Value::Null);
        let lookup = |c: &str| (c == "k").then(|| nulls.clone());
        prop_assert!(!Expr::eq("k", Value::Int64(0)).may_match_stats(&lookup));
        prop_assert!(Expr::IsNull("k".into()).may_match_stats(&lookup));
    }

    // ------------------------------------------------------------------
    // WOS fragment format: arbitrary batches of rows written through the
    // fragment writer parse back identically, under any batch split.
    // ------------------------------------------------------------------
    #[test]
    fn wos_fragment_roundtrip(
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<i64>(), "[a-z]{0,12}"), 1..20),
            1..6,
        )
    ) {
        use vortex_wos::{FragmentConfig, FragmentWriter, parse_fragment};
        let key = Key::derive_from_passphrase("prop");
        let cfg = FragmentConfig {
            streamlet: vortex::ids::StreamletId::from_raw(1),
            fragment: vortex::ids::FragmentId::from_raw(2),
            ordinal: 0,
            schema_version: 1,
            key: key.clone(),
        };
        let (mut w, mut file) =
            FragmentWriter::new(cfg, 0, vec![], vortex::Timestamp(1));
        let mut all: Vec<(i64, String)> = vec![];
        for (i, batch) in batches.iter().enumerate() {
            let rs = RowSet::new(
                batch
                    .iter()
                    .map(|(k, s)| Row::insert(vec![Value::Int64(*k), Value::String(s.clone())]))
                    .collect(),
            );
            all.extend(batch.iter().cloned());
            file.extend(w.data_block(&rs.rows, vortex::Timestamp(10 + i as u64)).unwrap());
        }
        file.extend(w.commit_record(vortex::Timestamp(999)).unwrap());
        let parsed = parse_fragment(&file, &key, None).unwrap();
        prop_assert_eq!(parsed.total_rows() as usize, all.len());
        prop_assert_eq!(parsed.committed_rows() as usize, all.len());
        let mut got = vec![];
        for b in &parsed.blocks {
            for r in &b.rows.rows {
                got.push((
                    r.values[0].as_i64().unwrap(),
                    r.values[1].as_str().unwrap().to_string(),
                ));
            }
        }
        prop_assert_eq!(got, all);
    }

    // ------------------------------------------------------------------
    // ROS block: arbitrary rows survive the columnar round trip with
    // provenance, in order.
    // ------------------------------------------------------------------
    #[test]
    fn ros_block_roundtrip(rows in proptest::collection::vec((any::<i64>(), "[a-z]{0,10}"), 1..64)) {
        use vortex_ros::{RosBlock, RosBlockBuilder, RowMeta};
        let schema = Schema::new(vec![
            Field::required("k", FieldType::Int64),
            Field::nullable("s", FieldType::String),
        ]);
        let mut b = RosBlockBuilder::new(&schema);
        for (i, (k, s)) in rows.iter().enumerate() {
            b.push(
                RowMeta {
                    change_type: vortex::schema::ChangeType::Insert,
                    ts: vortex::Timestamp(100 + i as u64),
                    stream: 7,
                    offset: i as u64,
                },
                Row::insert(vec![Value::Int64(*k), Value::String(s.clone())]),
            )
            .unwrap();
        }
        let block = b.build(false).unwrap();
        let key = Key::derive_from_passphrase("ros-prop");
        let bytes = block.to_bytes(&key, 99);
        let back = RosBlock::from_bytes(&bytes, &key, 99).unwrap();
        prop_assert_eq!(back.row_count(), rows.len());
        for (i, (meta, row)) in back.rows().unwrap().into_iter().enumerate() {
            prop_assert_eq!(meta.offset, i as u64);
            prop_assert_eq!(row.values[0].as_i64().unwrap(), rows[i].0);
            prop_assert_eq!(row.values[1].as_str().unwrap(), rows[i].1.as_str());
        }
    }
}

// ---------------------------------------------------------------------
// End-to-end property: arbitrary batch splits of the same logical input
// produce identical visible tables.
// ---------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_split_does_not_affect_visible_table(
        splits in proptest::collection::vec(1usize..40, 1..8)
    ) {
        use vortex::{Region, RegionConfig};
        let region = Region::create(RegionConfig::default()).unwrap();
        let client = region.client();
        let schema = Schema::new(vec![Field::required("k", FieldType::Int64)]);
        let t = client.create_table("prop", schema).unwrap().table;
        let mut w = client.create_unbuffered_writer(t).unwrap();
        let mut next = 0i64;
        for n in &splits {
            let rs = RowSet::new(
                (0..*n).map(|i| Row::insert(vec![Value::Int64(next + i as i64)])).collect(),
            );
            w.append(rs).unwrap();
            next += *n as i64;
        }
        let rows = client.read_rows(t).unwrap();
        let mut ks: Vec<i64> = rows
            .rows
            .iter()
            .map(|(_, r)| r.values[0].as_i64().unwrap())
            .collect();
        ks.sort_unstable();
        prop_assert_eq!(ks, (0..next).collect::<Vec<_>>());
        // Offsets are exactly 0..next with no gaps or duplicates.
        let mut offs: Vec<u64> = rows.rows.iter().map(|(m, _)| m.offset).collect();
        offs.sort_unstable();
        prop_assert_eq!(offs, (0..next as u64).collect::<Vec<_>>());
    }
}

// ---------------------------------------------------------------------
// Torn-tail and reconciliation invariants. These encode exactly the
// guarantees the reconciler (§5.6) depends on: lenient parsing of any
// byte-truncation of a valid fragment yields a clean record-aligned
// prefix, never an error, and the record-aligned common prefix of two
// diverged replicas re-parses strictly.
// ---------------------------------------------------------------------

/// Builds a valid fragment file from `batches` and returns
/// `(bytes, flat rows)`.
fn build_fragment(batches: &[Vec<(i64, String)>], key: &Key) -> (Vec<u8>, Vec<(i64, String)>) {
    use vortex_wos::{FragmentConfig, FragmentWriter};
    let cfg = FragmentConfig {
        streamlet: vortex::ids::StreamletId::from_raw(7),
        fragment: vortex::ids::FragmentId::from_raw(9),
        ordinal: 0,
        schema_version: 1,
        key: key.clone(),
    };
    let (mut w, mut file) = FragmentWriter::new(cfg, 0, vec![], vortex::Timestamp(1));
    let mut all = vec![];
    for (i, batch) in batches.iter().enumerate() {
        let rs = RowSet::new(
            batch
                .iter()
                .map(|(k, s)| Row::insert(vec![Value::Int64(*k), Value::String(s.clone())]))
                .collect(),
        );
        all.extend(batch.iter().cloned());
        file.extend(
            w.data_block(&rs.rows, vortex::Timestamp(10 + i as u64))
                .unwrap(),
        );
    }
    file.extend(w.commit_record(vortex::Timestamp(999)).unwrap());
    (file, all)
}

fn parsed_keys(p: &vortex_wos::ParsedFragment) -> Vec<i64> {
    p.blocks
        .iter()
        .flat_map(|b| b.rows.rows.iter().map(|r| r.values[0].as_i64().unwrap()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Any truncation of a valid fragment parses leniently to a record
    // prefix: no error, `valid_len <= cut`, and the recovered rows are a
    // prefix of the full row sequence.
    #[test]
    fn fragment_truncation_parses_as_record_prefix(
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<i64>(), "[a-z]{0,10}"), 1..12),
            1..5,
        ),
        cut_frac in 0.0f64..=1.0,
    ) {
        use vortex_wos::parse_fragment;
        let key = Key::derive_from_passphrase("torn");
        let (file, all) = build_fragment(&batches, &key);
        let full_keys: Vec<i64> = all.iter().map(|(k, _)| *k).collect();
        let cut = ((file.len() as f64) * cut_frac) as usize;
        // Byte length of the header record (offset of the first block).
        let full = parse_fragment(&file, &key, None).unwrap();
        let header_len = full.blocks.first().map(|b| b.offset).unwrap_or(full.valid_len) as usize;
        match parse_fragment(&file[..cut], &key, None) {
            Ok(p) => {
                prop_assert!(p.valid_len as usize <= cut);
                let got = parsed_keys(&p);
                prop_assert_eq!(&full_keys[..got.len()], &got[..]);
                // The valid prefix re-parses *strictly* (File-Map style).
                let strict =
                    parse_fragment(&file[..p.valid_len as usize], &key, Some(p.valid_len));
                prop_assert!(strict.is_ok(), "strict reparse failed: {:?}", strict.err());
            }
            // Only a cut inside the header record itself may fail; then
            // there is no parseable header at all.
            Err(_) => prop_assert!(
                cut < header_len,
                "parse failed at cut {} of {} (header {})", cut, file.len(), header_len
            ),
        }
    }

    // The reconciler's record-aligned common prefix of two diverged
    // replica copies (one truncated and padded with garbage) strictly
    // re-parses and is a row-prefix of the survivor.
    #[test]
    fn record_aligned_common_prefix_reparses(
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<i64>(), "[a-z]{0,8}"), 1..10),
            1..4,
        ),
        cut_frac in 0.1f64..=1.0,
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        use vortex_wos::parse_fragment;
        let key = Key::derive_from_passphrase("diverge");
        let (file, all) = build_fragment(&batches, &key);
        let full_keys: Vec<i64> = all.iter().map(|(k, _)| *k).collect();
        let cut = ((file.len() as f64) * cut_frac) as usize;
        let mut other = file[..cut].to_vec();
        other.extend_from_slice(&garbage);
        // The reconciler's own rule. `other` drops out when the cut fell
        // inside its header record; the survivor then stands whole.
        let copies = [&file, &other];
        let (first, index) = vortex_wos::common_prefix(&copies).unwrap().unwrap();
        let v = index.valid_len;
        prop_assert_eq!(first, 0);
        match vortex_wos::index_fragment(&other, None) {
            Ok(_) => prop_assert!(v as usize <= other.len()),
            Err(_) => prop_assert_eq!(v as usize, file.len()),
        }
        let strict = parse_fragment(&copies[first][..v as usize], &key, Some(v)).unwrap();
        let got = parsed_keys(&strict);
        prop_assert_eq!(&full_keys[..got.len()], &got[..]);
    }

    // ------------------------------------------------------------------
    // Value::total_cmp is a total order: reflexive, antisymmetric,
    // transitive — required for clustering sort stability and stats.
    // ------------------------------------------------------------------
    #[test]
    fn value_total_cmp_is_total_order(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        // Transitivity: a <= b and b <= c implies a <= c.
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
    }

    // ------------------------------------------------------------------
    // Bloom filters: inserted keys are NEVER reported absent, including
    // after a serialization round trip (finalize writes the filter to
    // the fragment; readers deserialize it for pruning, §7.1).
    // ------------------------------------------------------------------
    #[test]
    fn bloom_has_no_false_negatives(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..200),
    ) {
        use vortex_common::bloom::BloomFilter;
        let mut f = BloomFilter::with_capacity(keys.len().max(8), 0.01);
        for k in &keys {
            f.insert(k);
        }
        for k in &keys {
            prop_assert!(f.may_contain(k));
        }
        let back = BloomFilter::from_bytes(&f.to_bytes()).unwrap();
        for k in &keys {
            prop_assert!(back.may_contain(k));
        }
    }

    // ------------------------------------------------------------------
    // Deletion-mask algebra: union and slice_rebased agree with a
    // reference set model (conversion maps WOS masks onto ROS buckets
    // through exactly these two operations).
    // ------------------------------------------------------------------
    #[test]
    fn mask_union_and_slice_match_reference(
        ops_a in proptest::collection::vec((0u64..300, 1u64..30), 0..20),
        ops_b in proptest::collection::vec((0u64..300, 1u64..30), 0..20),
        window in (0u64..250, 1u64..120),
    ) {
        let mut a = DeletionMask::new();
        let mut b = DeletionMask::new();
        let mut ref_a = std::collections::BTreeSet::new();
        let mut ref_b = std::collections::BTreeSet::new();
        for (s, l) in &ops_a {
            a.delete_range(*s, s + l);
            ref_a.extend(*s..s + l);
        }
        for (s, l) in &ops_b {
            b.delete_range(*s, s + l);
            ref_b.extend(*s..s + l);
        }
        // union
        let mut u = a.clone();
        u.union(&b);
        let ref_u: std::collections::BTreeSet<u64> = ref_a.union(&ref_b).copied().collect();
        prop_assert_eq!(u.deleted_count() as usize, ref_u.len());
        for r in 0..400 {
            prop_assert_eq!(u.contains(r), ref_u.contains(&r));
        }
        // slice_rebased: rows [start, end) shifted to 0-based
        let (start, len) = window;
        let end = start + len;
        let s = u.slice_rebased(start, end);
        for r in start..end {
            prop_assert_eq!(s.contains(r - start), ref_u.contains(&r), "row {}", r);
        }
        prop_assert_eq!(
            s.deleted_count() as usize,
            ref_u.iter().filter(|r| **r >= start && **r < end).count()
        );
    }
}

// ---------------------------------------------------------------------
// Model-based DML: a random interleaving of appends, range deletes, and
// updates applied to both a live region and a BTreeMap model must agree
// exactly on the visible table at every step boundary.
// ---------------------------------------------------------------------

/// One randomized table operation for [`dml_random_ops_match_model`].
#[derive(Debug, Clone)]
enum TableOp {
    /// Append `n` fresh sequential keys.
    Append(usize),
    /// Append `n` fresh keys to a BUFFERED stream: invisible until flushed.
    AppendBuffered(usize),
    /// Flush the BUFFERED stream through its last row.
    Flush,
    /// Append `n` fresh keys to a PENDING stream: invisible until
    /// committed.
    AppendPending(usize),
    /// Batch-commit the PENDING stream, then write through a fresh one.
    Commit,
    /// Delete keys in `[lo, lo+len)`.
    Delete(u64, u64),
    /// Set `v = marker` for keys in `[lo, lo+len)`.
    Update(u64, u64),
    /// Finalize the writer's stream, convert what is finalized to ROS —
    /// and recluster, every other time — then write through a fresh
    /// writer: later DML runs over zone maps, block and log-file blooms
    /// and tails alike.
    Convert,
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        3 => (1usize..60).prop_map(TableOp::Append),
        2 => (1usize..40).prop_map(TableOp::AppendBuffered),
        1 => Just(TableOp::Flush),
        2 => (1usize..40).prop_map(TableOp::AppendPending),
        1 => Just(TableOp::Commit),
        2 => (0u64..200, 1u64..25).prop_map(|(a, b)| TableOp::Delete(a, b)),
        2 => (0u64..200, 1u64..25).prop_map(|(a, b)| TableOp::Update(a, b)),
        1 => Just(TableOp::Convert),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// One reference model — a map from key to value — after every op,
    /// and at the end every snapshot taken on the way read four ways:
    /// `read_rows_at`, a row scan, a count and a `SUM(v)` grouped by `g`.
    /// Nothing collects garbage, so every snapshot stays readable.
    #[test]
    fn dml_random_ops_match_model(ops in proptest::collection::vec(arb_table_op(), 1..16)) {
        use std::collections::BTreeMap;
        use vortex::{AggKind, Expr, Region, RegionConfig, ScanOptions};
        let region = Region::create(RegionConfig::default()).unwrap();
        let client = region.client();
        let schema = Schema::new(vec![
            Field::required("k", FieldType::Int64),
            Field::required("v", FieldType::Int64),
            Field::required("g", FieldType::Int64),
        ])
        .with_clustering(&["k"]);
        let t = client.create_table("model", schema).unwrap().table;
        let mut w = client.create_unbuffered_writer(t).unwrap();
        let mut buffered = client.create_buffered_writer(t).unwrap();
        let mut pending = client.create_pending_writer(t).unwrap();
        let dml = region.dml();
        let mut model: BTreeMap<i64, i64> = Default::default();
        // Rows written but not yet visible, by stream type.
        let (mut unflushed, mut uncommitted) = (Vec::new(), Vec::new());
        let mut next = 0i64;
        let mut marker = 1_000_000i64;
        let mut converts = 0;
        let mut fresh = |n: usize| {
            let keys: Vec<i64> = (next..next + n as i64).collect();
            next += n as i64;
            let row = |k: i64| Row::insert(vec![Value::Int64(k), Value::Int64(-k), Value::Int64(k % 3)]);
            (RowSet::new(keys.iter().map(|&k| row(k)).collect()), keys)
        };
        let mut seen = Vec::new();
        for op in &ops {
            match op {
                TableOp::Convert => {
                    region.sms().finalize_stream(t, w.stream_id()).unwrap();
                    region.optimizer().convert_wos(t).unwrap();
                    converts += 1;
                    if converts % 2 == 1 {
                        region.optimizer().recluster(t).unwrap();
                    }
                    w = client.create_unbuffered_writer(t).unwrap();
                }
                TableOp::Append(n) => {
                    let (rows, keys) = fresh(*n);
                    w.append(rows).unwrap();
                    model.extend(keys.into_iter().map(|k| (k, -k)));
                }
                TableOp::AppendBuffered(n) => {
                    let (rows, keys) = fresh(*n);
                    buffered.append(rows).unwrap();
                    unflushed.extend(keys);
                }
                TableOp::Flush => {
                    buffered.flush(buffered.next_offset()).unwrap();
                    model.extend(unflushed.drain(..).map(|k| (k, -k)));
                }
                TableOp::AppendPending(n) => {
                    let (rows, keys) = fresh(*n);
                    pending.append(rows).unwrap();
                    uncommitted.extend(keys);
                }
                TableOp::Commit if uncommitted.is_empty() => {}
                TableOp::Commit => {
                    client.batch_commit(t, &[pending.stream_id()]).unwrap();
                    model.extend(uncommitted.drain(..).map(|k| (k, -k)));
                    pending = client.create_pending_writer(t).unwrap();
                }
                TableOp::Delete(lo, len) => {
                    let (lo, hi) = (*lo as i64, (*lo + *len) as i64);
                    dml.delete_where(
                        t,
                        &Expr::ge("k", Value::Int64(lo)).and(Expr::lt("k", Value::Int64(hi))),
                    )
                    .unwrap();
                    model.retain(|k, _| *k < lo || *k >= hi);
                }
                TableOp::Update(lo, len) => {
                    let (lo, hi) = (*lo as i64, (*lo + *len) as i64);
                    marker += 1;
                    dml.update_where(
                        t,
                        &Expr::ge("k", Value::Int64(lo)).and(Expr::lt("k", Value::Int64(hi))),
                        &[("v", Value::Int64(marker))],
                    )
                    .unwrap();
                    for (k, v) in model.iter_mut() {
                        if *k >= lo && *k < hi {
                            *v = marker;
                        }
                    }
                }
            }
            seen.push((op, client.snapshot(), model.clone()));
        }
        let engine = region.engine();
        let every = ScanOptions::default();
        let pairs = |rows: &[(_, Row)]| {
            let kv = |(_, r): &(_, Row)| (r.values[0].as_i64().unwrap(), r.values[1].as_i64().unwrap());
            let mut got: Vec<(i64, i64)> = rows.iter().map(kv).collect();
            got.sort_unstable();
            got
        };
        for (op, at, model) in seen {
            let want: Vec<(i64, i64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            let read = client.read_rows_at(t, at).unwrap();
            prop_assert!(read.complete);
            prop_assert_eq!(&pairs(&read.rows), &want, "read_rows_at after {:?}", op);
            let scanned = engine.scan(t, at, &every).unwrap();
            prop_assert_eq!(&pairs(&scanned.rows), &want, "scan after {:?}", op);
            prop_assert_eq!(engine.count(t, at, &every).unwrap(), want.len() as u64, "count after {:?}", op);
            let mut sums: BTreeMap<i64, i64> = BTreeMap::new();
            for (k, v) in &want {
                *sums.entry(k % 3).or_default() += v;
            }
            let sum = [(AggKind::Sum, Some("v"))];
            let groups = engine.aggregate(t, at, &every, Some("g"), &sum).unwrap();
            let groups: BTreeMap<i64, i64> = groups
                .iter()
                .map(|(g, s)| (g.as_ref().unwrap().as_i64().unwrap(), s[0].as_i64().unwrap()))
                .collect();
            prop_assert_eq!(groups, sums, "grouped SUM after {:?}", op);
        }
    }
}

// ---------------------------------------------------------------------
// Metastore MVCC: a snapshot read is frozen — commits that land after a
// snapshot was taken never change what `scan_prefix_at` returns for it,
// including deletes (tombstones are versioned, not destructive). This is
// the property every atomic metadata swap (conversion, reconciliation,
// batch commit) builds on.
// ---------------------------------------------------------------------

/// One randomized metastore mutation for [`metastore_snapshots_are_frozen`].
#[derive(Debug, Clone)]
enum MetaOp {
    /// Upsert key `k` (of a small keyspace) with a payload tag.
    Put(u8, u8),
    /// Delete key `k`.
    Del(u8),
}

fn arb_meta_op() -> impl Strategy<Value = MetaOp> {
    prop_oneof![
        3 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| MetaOp::Put(k % 24, v)),
        1 => any::<u8>().prop_map(|k| MetaOp::Del(k % 24)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn metastore_snapshots_are_frozen(
        ops in proptest::collection::vec(arb_meta_op(), 1..60),
        cut in 0usize..60,
    ) {
        use vortex_metastore::MetaStore;
        use vortex_common::truetime::{SimClock, TrueTime};
        let clock = SimClock::new(1_000);
        let tt = TrueTime::simulated(clock.clone(), 100, 0);
        let store = MetaStore::new(tt);
        let cut = cut.min(ops.len());
        // Apply the first `cut` ops, snapshot, then apply the rest.
        let apply = |op: &MetaOp| {
            store
                .with_txn(8, |txn| {
                    match op {
                        MetaOp::Put(k, v) => txn.put(&format!("mvcc/{k:03}"), vec![*v]),
                        MetaOp::Del(k) => txn.delete(&format!("mvcc/{k:03}")),
                    }
                    Ok(())
                })
                .unwrap();
            clock.advance(3);
        };
        for op in &ops[..cut] {
            apply(op);
        }
        let snap = store.now();
        let frozen = store.scan_prefix_at("mvcc/", snap);
        // Reference state from replaying the prefix.
        let mut reference: std::collections::BTreeMap<String, Vec<u8>> = Default::default();
        for op in &ops[..cut] {
            match op {
                MetaOp::Put(k, v) => {
                    reference.insert(format!("mvcc/{k:03}"), vec![*v]);
                }
                MetaOp::Del(k) => {
                    reference.remove(&format!("mvcc/{k:03}"));
                }
            }
        }
        let want: Vec<(String, Vec<u8>)> = reference.clone().into_iter().collect();
        prop_assert_eq!(&frozen, &want);
        // Later commits must not disturb the frozen view.
        for op in &ops[cut..] {
            apply(op);
        }
        let again = store.scan_prefix_at("mvcc/", snap);
        prop_assert_eq!(&again, &want);
    }

    // ------------------------------------------------------------------
    // Key encoding: distinct values encode to distinct keys within a
    // type (grouping and bloom probes rely on injectivity), and equal
    // values encode identically.
    // ------------------------------------------------------------------
    #[test]
    fn value_key_encoding_is_injective(a in arb_value(), b in arb_value()) {
        use std::cmp::Ordering;
        let (ka, kb) = (a.encode_key(), b.encode_key());
        if a.total_cmp(&b) == Ordering::Equal {
            prop_assert_eq!(&ka, &kb);
        } else {
            prop_assert_ne!(&ka, &kb);
        }
    }
}

// ---------------------------------------------------------------------
// Remembered tails: a read through the region's warm cache — which holds
// the certified extent of every unlisted log file and extends it by what
// was appended since — answers exactly as a read that remembers nothing,
// at current and historical snapshots, across the streamlet lifecycle and
// with storage faults between two reads of one entry.
// ---------------------------------------------------------------------

/// One step of [`cached_reads_match_cold_reads`].
#[derive(Debug, Clone)]
enum LiveOp {
    /// Append `n` rows to the UNBUFFERED stream, with a storage fault
    /// armed first: none, or a failed (1, 2) / torn (3, 4) append on
    /// either replica. The writer re-drives the append; a torn one leaves
    /// a final block in one replica only.
    Append(usize, u8),
    /// Append `n` rows to the BUFFERED stream (invisible until flushed).
    Buffer(usize),
    /// Flush the BUFFERED stream to its end.
    Flush,
    /// A heartbeat round and an idle tick: the SMS hears of finalized log
    /// files, tails shorten, commit records land.
    Heartbeat,
    /// Finalize the UNBUFFERED stream and continue on a new one.
    Finalize,
    /// Convert and recluster what is finalized.
    Optimize,
    /// Reconcile every live streamlet: epochs bump under warm entries.
    Reconcile,
    /// Delete keys in `[lo, lo + len)` — tail masks where they are fresh.
    Delete(i64, i64),
    /// Read with one replica unavailable (0, 1), or with its next read
    /// failing (2, 3): new blocks need a successor record or reconcile.
    ReadUnder(u8),
}

/// Mostly poll-sized appends; some that fill a zone of `ZONE_ROWS` (1024)
/// rows exactly — alone, or two or four in a row — or overfill it, so
/// that warm entries are extended past full and oversized last zones.
fn arb_append_rows() -> impl Strategy<Value = usize> {
    prop_oneof![
        6 => 1usize..40,
        1 => Just(256usize),
        1 => Just(512usize),
        1 => Just(1024usize),
        1 => 1000usize..1100,
    ]
}

fn arb_live_op() -> impl Strategy<Value = LiveOp> {
    prop_oneof![
        6 => (arb_append_rows(), 0u8..5).prop_map(|(n, fault)| LiveOp::Append(n, fault)),
        2 => (1usize..20).prop_map(LiveOp::Buffer),
        1 => Just(LiveOp::Flush),
        2 => Just(LiveOp::Heartbeat),
        1 => Just(LiveOp::Finalize),
        1 => Just(LiveOp::Optimize),
        1 => Just(LiveOp::Reconcile),
        1 => (0i64..300, 1i64..30).prop_map(|(lo, len)| LiveOp::Delete(lo, len)),
        3 => (0u8..4).prop_map(LiveOp::ReadUnder),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cached_reads_match_cold_reads(
        ops in proptest::collection::vec(arb_live_op(), 2..14),
        picks in proptest::collection::vec(any::<usize>(), 14..15),
        roomy in any::<bool>(),
    ) {
        use vortex::{AggKind, Expr, QueryEngine, Region, RegionConfig, ScanOptions};
        // Log files that rotate every few appends, or that hold zones of
        // appends.
        let region = Region::create(RegionConfig {
            fragment_max_bytes: if roomy { 256 << 10 } else { 2 << 10 },
            ..RegionConfig::default()
        })
        .unwrap();
        let client = region.client();
        let schema = Schema::new(vec![
            Field::required("k", FieldType::Int64),
            Field::required("g", FieldType::Int64),
            Field::required("f", FieldType::Float64),
        ]);
        let tmeta = client.create_table("live", schema).unwrap();
        let t = tmeta.table;
        let clusters = [tmeta.primary, tmeta.secondary];
        let replica = |which: u8| region.fleet().get(clusters[which as usize % 2]).unwrap();
        let mut next = 0i64;
        // The next `n` keys, and their rows.
        let mut batch = |n: usize| {
            let row = |k: i64| {
                Row::insert(vec![Value::Int64(k), Value::Int64(k % 3), Value::Float64(k as f64 * 0.1)])
            };
            next += n as i64;
            (next - n as i64..next, RowSet::new((next - n as i64..next).map(row).collect()))
        };
        let mut w = client.create_unbuffered_writer(t).unwrap();
        let mut wb = client.create_buffered_writer(t).unwrap();
        // Keys a fresh read must count: acked and visible, not deleted.
        let mut live = std::collections::BTreeSet::new();
        let mut buffered = Vec::new();

        // The same four reads through the warm cache and through none.
        let warm_client = region.client().with_cache(region.read_cache().clone());
        let cold = QueryEngine::new(region.sms().clone(), region.fleet().clone());
        let aggs = [
            (AggKind::Count, None),
            (AggKind::Sum, Some("k")),
            (AggKind::Sum, Some("f")),
            (AggKind::Min, Some("k")),
            (AggKind::Max, Some("f")),
        ];
        let close = |a: &Value, b: &Value| match (a, b) {
            (Value::Float64(a), Value::Float64(b)) => (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
            _ => a == b,
        };
        let agree = |at: vortex::Timestamp, opts: &ScanOptions| {
            let warm = region.engine();
            let counted = warm.count(t, at, opts).unwrap();
            prop_assert_eq!(counted, cold.count(t, at, opts).unwrap());
            let (rows, cold_rows) = (warm.scan(t, at, opts).unwrap(), cold.scan(t, at, opts).unwrap());
            prop_assert_eq!(&rows.rows, &cold_rows.rows);
            let groups = warm.aggregate(t, at, opts, Some("g"), &aggs).unwrap();
            let cold_groups = cold.aggregate(t, at, opts, Some("g"), &aggs).unwrap();
            prop_assert_eq!(groups.len(), cold_groups.len());
            for ((g, vals), (cold_g, cold_vals)) in groups.iter().zip(&cold_groups) {
                prop_assert_eq!(g, cold_g);
                prop_assert!(vals.iter().zip(cold_vals).all(|(a, b)| close(a, b)), "{vals:?} vs {cold_vals:?}");
            }
            let table = warm_client.read_rows_at(t, at).unwrap();
            prop_assert_eq!(table.rows, client.read_rows_at(t, at).unwrap().rows);
            counted
        };

        let all = ScanOptions::default();
        let some = ScanOptions {
            predicate: Expr::ge("k", Value::Int64(17)),
            ..ScanOptions::default()
        };
        let mut snapshots = Vec::new();
        for (op, pick) in ops.iter().zip(&picks) {
            match op {
                LiveOp::Append(n, fault) => {
                    match fault {
                        1 | 2 => replica(*fault).faults().fail_next_appends(1),
                        3 | 4 => replica(*fault).faults().torn_next_appends(1),
                        _ => {}
                    }
                    let (keys, rows) = batch(*n);
                    w.append(rows).unwrap();
                    live.extend(keys);
                }
                LiveOp::Buffer(n) => {
                    let (keys, rows) = batch(*n);
                    wb.append(rows).unwrap();
                    buffered.extend(keys);
                }
                LiveOp::Flush => {
                    wb.flush(wb.next_offset()).unwrap();
                    live.extend(buffered.drain(..));
                }
                LiveOp::Heartbeat => {
                    region.run_heartbeats(false).unwrap();
                    region.run_ticks();
                }
                LiveOp::Finalize => {
                    region.sms().finalize_stream(t, w.stream_id()).unwrap();
                    w = client.create_unbuffered_writer(t).unwrap();
                }
                LiveOp::Optimize => region.run_optimizer_cycle(t).unwrap(),
                LiveOp::Reconcile => {
                    for sl in region.sms().list_streamlets(t) {
                        if sl.state != vortex::StreamletState::Finalized {
                            region.sms().reconcile_streamlet(t, sl.streamlet).unwrap();
                        }
                    }
                }
                LiveOp::Delete(lo, len) => {
                    let range = Expr::ge("k", Value::Int64(*lo)).and(Expr::lt("k", Value::Int64(lo + len)));
                    region.dml().delete_where(t, &range).unwrap();
                    live.retain(|k| !(*lo..lo + len).contains(k));
                }
                LiveOp::ReadUnder(fault) => {
                    let at = client.snapshot();
                    match fault {
                        0 | 1 => replica(*fault).faults().set_unavailable(true),
                        _ => replica(*fault).faults().fail_next_reads(1),
                    }
                    let counted = region.engine().count(t, at, &all);
                    // A fault the read had no cause to meet is disarmed: the
                    // next op's on the other replica would make two.
                    replica(*fault).faults().set_unavailable(false);
                    replica(*fault).faults().fail_next_reads(0);
                    prop_assert_eq!(counted.unwrap(), live.len() as u64, "under fault {}", fault);
                }
            }
            let now = client.snapshot();
            prop_assert_eq!(agree(now, &all), live.len() as u64, "after {:?}", op);
            agree(now, &some);
            snapshots.push(now);
            agree(snapshots[pick % snapshots.len()], &all);
        }
    }
}
