//! Property tests for the segment codec (DESIGN §13): arbitrary batches
//! — every `ColumnVec` storage class, typed nulls, empty columns, NaN
//! payloads — round-trip through the segment byte image, and corruption
//! (bit flips, truncation) is a typed [`DurError::Corrupt`], never a
//! panic and never silent data.
//!
//! NaN is safe to include in the generators here because comparison is
//! `Batch::structurally_equal` (cell *keys*, which canonicalize NaN),
//! not `==`; the payload-bit check rides in the deterministic test.

use colstore::types::{Cell, Column, PgType};
use colstore::{Batch, ColumnVec, Validity};
use durability::segment::{decode_segment, segment_bytes};
use durability::DurError;
use proptest::prelude::*;

/// A cell belonging to `ty`'s storage class, or NULL. Floats draw from
/// raw bit patterns, so NaN and -0.0 payloads are generated.
fn cell_of(ty: PgType) -> BoxedStrategy<Cell> {
    match ty {
        PgType::Bool => prop_oneof![Just(Cell::Null), any::<bool>().prop_map(Cell::Bool)].boxed(),
        PgType::Int2 | PgType::Int4 | PgType::Int8 => {
            prop_oneof![Just(Cell::Null), any::<i64>().prop_map(Cell::Int)].boxed()
        }
        PgType::Float4 | PgType::Float8 => prop_oneof![
            Just(Cell::Null),
            any::<i64>().prop_map(|b| Cell::Float(f64::from_bits(b as u64))),
        ]
        .boxed(),
        PgType::Varchar | PgType::Text => {
            prop_oneof![Just(Cell::Null), "[a-z]{0,6}".prop_map(Cell::Text)].boxed()
        }
        PgType::Date => {
            prop_oneof![Just(Cell::Null), (-40000i32..40000).prop_map(Cell::Date)].boxed()
        }
        PgType::Time => {
            prop_oneof![Just(Cell::Null), (0i64..86_400_000_000).prop_map(Cell::Time)].boxed()
        }
        PgType::Timestamp => {
            prop_oneof![Just(Cell::Null), any::<i64>().prop_map(Cell::Timestamp)].boxed()
        }
    }
}

fn arb_type() -> impl Strategy<Value = PgType> {
    prop_oneof![
        Just(PgType::Bool),
        Just(PgType::Int2),
        Just(PgType::Int4),
        Just(PgType::Int8),
        Just(PgType::Float4),
        Just(PgType::Float8),
        Just(PgType::Varchar),
        Just(PgType::Text),
        Just(PgType::Date),
        Just(PgType::Time),
        Just(PgType::Timestamp),
    ]
}

/// A whole batch: 1–4 columns sharing one row count (0–12 rows, so the
/// empty batch is generated too).
fn arb_batch() -> impl Strategy<Value = Batch> {
    (0usize..12, 1usize..4).prop_flat_map(|(nrows, ncols)| {
        let col = arb_type().prop_flat_map(move |ty| {
            proptest::collection::vec(cell_of(ty), nrows)
                .prop_map(move |cells| (ty, ColumnVec::from_cells(ty, cells).unwrap()))
        });
        proptest::collection::vec(col, ncols).prop_map(move |cols| {
            let schema: Vec<Column> = cols
                .iter()
                .enumerate()
                .map(|(i, (ty, _))| Column::new(format!("c{i}"), *ty))
                .collect();
            let columns: Vec<ColumnVec> = cols.into_iter().map(|(_, c)| c).collect();
            Batch::new(schema, columns, nrows)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary batches survive the segment byte image losslessly —
    /// table name, schema, every cell, NaN payloads included.
    #[test]
    fn segments_round_trip_arbitrary_batches(
        batch in arb_batch(),
        name in "[a-z_]{1,12}",
    ) {
        let bytes = segment_bytes(&name, &batch);
        let (got_name, got) = decode_segment(&bytes).expect("clean segment must decode");
        prop_assert_eq!(got_name, name);
        prop_assert_eq!(got.rows(), batch.rows());
        prop_assert!(batch.structurally_equal(&got));
    }

    /// A single flipped bit anywhere in the image is caught by the
    /// trailing CRC: decoding returns `Corrupt` — never a panic, never
    /// a silently different batch.
    #[test]
    fn any_bit_flip_is_a_typed_corruption_error(
        batch in arb_batch(),
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut bytes = segment_bytes("t", &batch);
        let idx = (pos % bytes.len() as u64) as usize;
        bytes[idx] ^= 1 << bit;
        match decode_segment(&bytes) {
            Err(DurError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "byte {} bit {}: unexpected error {}", idx, bit, other),
            Ok(_) => prop_assert!(false, "byte {} bit {}: decoded silently", idx, bit),
        }
    }

    /// Every truncation point yields a typed error.
    #[test]
    fn any_truncation_is_a_typed_corruption_error(
        batch in arb_batch(),
        pos in any::<u64>(),
    ) {
        let bytes = segment_bytes("t", &batch);
        let cut = (pos % bytes.len() as u64) as usize;
        prop_assert!(matches!(decode_segment(&bytes[..cut]), Err(DurError::Corrupt(_))));
    }
}

/// Pin the edge shapes deterministically: all-NULL columns, empty
/// columns, and NaN-bearing floats round-trip for every storage class,
/// and NaN payload bits survive verbatim.
#[test]
fn edge_columns_round_trip_for_every_kind() {
    let types = [
        PgType::Bool,
        PgType::Int2,
        PgType::Int4,
        PgType::Int8,
        PgType::Float4,
        PgType::Float8,
        PgType::Varchar,
        PgType::Text,
        PgType::Date,
        PgType::Time,
        PgType::Timestamp,
    ];
    for ty in types {
        // All-NULL.
        let batch = Batch::new(vec![Column::new("n", ty)], vec![ColumnVec::nulls(ty, 4)], 4);
        let (_, got) = decode_segment(&segment_bytes("t", &batch)).unwrap();
        assert!(batch.structurally_equal(&got), "{ty:?} nulls");
        for i in 0..4 {
            assert!(got.columns[0].is_null(i), "{ty:?} slot {i}");
        }
        // Empty.
        let batch = Batch::new(vec![Column::new("e", ty)], vec![ColumnVec::empty(ty)], 0);
        let (_, got) = decode_segment(&segment_bytes("t", &batch)).unwrap();
        assert!(batch.structurally_equal(&got), "{ty:?} empty");
        assert_eq!(got.rows(), 0, "{ty:?} empty");
    }

    // NaN is a value, not a NULL, and its payload bits are preserved.
    let weird = f64::from_bits(0x7ff8_0000_0000_1234);
    let mut v = Validity::all_valid(3);
    v.set_null(2);
    let batch = Batch::new(
        vec![Column::new("f", PgType::Float8)],
        vec![ColumnVec::Float(vec![weird, -0.0, 0.0], v)],
        3,
    );
    let (_, got) = decode_segment(&segment_bytes("t", &batch)).unwrap();
    match &got.columns[0] {
        ColumnVec::Float(data, validity) => {
            assert_eq!(data[0].to_bits(), weird.to_bits());
            assert_eq!(data[1].to_bits(), (-0.0f64).to_bits());
            assert!(!validity.is_null(0));
            assert!(validity.is_null(2));
        }
        other => panic!("float column changed variant: {other:?}"),
    }
}
