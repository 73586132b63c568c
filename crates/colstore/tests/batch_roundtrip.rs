//! Property tests for the columnar representation (DESIGN §10): the
//! batch is a lossless dual of the row set, and every `ColumnVec`
//! storage class round-trips typed nulls and empty columns.
//!
//! NaN is kept out of the `==`-based round-trip generators (`Cell`
//! derives `PartialEq`, so `NaN != NaN` under `==`); NaN handling is
//! pinned by dedicated deterministic tests below.

use colstore::{Batch, Cell, CellKey, Column, ColumnVec, PgType, Rows};
use proptest::prelude::*;

/// A cell of `ty`'s storage class, or NULL.
fn cell_of(ty: PgType) -> BoxedStrategy<Cell> {
    match ty {
        PgType::Bool => prop_oneof![Just(Cell::Null), any::<bool>().prop_map(Cell::Bool)].boxed(),
        PgType::Int2 | PgType::Int4 | PgType::Int8 => {
            prop_oneof![Just(Cell::Null), any::<i64>().prop_map(Cell::Int)].boxed()
        }
        PgType::Float4 | PgType::Float8 => {
            prop_oneof![Just(Cell::Null), (-1.0e12f64..1.0e12).prop_map(Cell::Float)].boxed()
        }
        PgType::Varchar | PgType::Text => {
            prop_oneof![Just(Cell::Null), "[a-zA-Z0-9 ]{0,8}".prop_map(Cell::Text)].boxed()
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

/// One homogeneous typed column: the declared type plus cells that all
/// belong to that type's storage class (or are NULL).
fn arb_typed_column() -> impl Strategy<Value = (PgType, Vec<Cell>)> {
    arb_type().prop_flat_map(|ty| {
        proptest::collection::vec(cell_of(ty), 0..24).prop_map(move |cells| (ty, cells))
    })
}

/// Rows that respect their schema: 1–4 columns of any types, 0–11 rows,
/// each cell of its column's class or NULL.
fn arb_rows() -> impl Strategy<Value = Rows> {
    (1usize..5, 0usize..12).prop_flat_map(|(ncols, nrows)| {
        let column = ("[a-z]{1,6}", arb_type()).prop_flat_map(move |(name, ty)| {
            proptest::collection::vec(cell_of(ty), nrows)
                .prop_map(move |cells| (Column::new(name.clone(), ty), cells))
        });
        proptest::collection::vec(column, ncols).prop_map(move |columns| {
            let data =
                (0..nrows).map(|i| columns.iter().map(|(_, c)| c[i].clone()).collect()).collect();
            Rows { columns: columns.into_iter().map(|(c, _)| c).collect(), data }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The batch is a lossless transpose of rows that respect their
    /// schema: row-major in, row-major out, each column of its declared
    /// class.
    #[test]
    fn from_rows_to_rows_is_identity(rows in arb_rows()) {
        let batch = Batch::from_rows(rows.clone());
        prop_assert_eq!(batch.rows(), rows.len());
        for (col, c) in batch.columns.iter().zip(&batch.schema) {
            prop_assert_eq!(col.class(), c.ty.class());
        }
        prop_assert_eq!(batch.to_rows(), rows.clone());
        prop_assert_eq!(batch.clone().into_rows(), rows);
    }

    /// Every storage class round-trips its typed cells — nulls included —
    /// through `from_cells`/`cell_at`/`to_cells`, and `take` over the
    /// identity permutation is a no-op.
    #[test]
    fn typed_columns_round_trip_cells(col_spec in arb_typed_column()) {
        let (ty, cells) = col_spec;
        let col = ColumnVec::from_cells(ty, cells.clone()).unwrap();
        prop_assert_eq!(col.len(), cells.len());
        for (i, c) in cells.iter().enumerate() {
            prop_assert_eq!(&col.cell_at(i), c);
            prop_assert_eq!(col.is_null(i), *c == Cell::Null);
        }
        prop_assert_eq!(col.to_cells(), cells.clone());
        let idx: Vec<usize> = (0..cells.len()).collect();
        prop_assert_eq!(col.take(&idx).to_cells(), cells);
    }

    /// Structural equality keys every cell: a batch equals its own
    /// row-trip reconstruction.
    #[test]
    fn structural_equality_survives_row_trip(col_spec in arb_typed_column()) {
        let (ty, cells) = col_spec;
        let col = ColumnVec::from_cells(ty, cells.clone()).unwrap();
        let batch = Batch::new(vec![Column::new("c", ty)], vec![col], cells.len());
        let rebuilt = Batch::from_rows(batch.to_rows());
        prop_assert!(batch.structurally_equal(&rebuilt));
    }
}

/// Every storage class: the empty column is empty, typed, and
/// round-trips.
#[test]
fn empty_columns_round_trip_for_every_kind() {
    for ty in [
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
    ] {
        let col = ColumnVec::empty(ty);
        assert_eq!(col.len(), 0, "{ty:?}");
        assert!(col.is_empty(), "{ty:?}");
        assert_eq!(col.to_cells(), Vec::<Cell>::new(), "{ty:?}");
        let again = ColumnVec::from_cells(ty, vec![]).unwrap();
        assert_eq!(again.len(), 0, "{ty:?}");
    }
}

/// Every storage class: an all-NULL column stays all-NULL and typed.
#[test]
fn typed_nulls_round_trip_for_every_kind() {
    for ty in [
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
    ] {
        let col = ColumnVec::nulls(ty, 5);
        assert_eq!(col.len(), 5, "{ty:?}");
        for i in 0..5 {
            assert!(col.is_null(i), "{ty:?} slot {i}");
            assert_eq!(col.cell_at(i), Cell::Null, "{ty:?} slot {i}");
        }
        assert_eq!(col.to_cells(), vec![Cell::Null; 5], "{ty:?}");
    }
}

/// NaN is excluded from the `==` generators above, so pin it here: all
/// NaN bit patterns share one canonical `CellKey`, distinct from any
/// number and from NULL.
#[test]
fn nan_cells_key_canonically() {
    let quiet = CellKey::from_cell(&Cell::Float(f64::NAN));
    let negated = CellKey::from_cell(&Cell::Float(-f64::NAN));
    let weird = CellKey::from_cell(&Cell::Float(f64::from_bits(0x7ff8_0000_0000_1234)));
    assert_eq!(quiet, negated);
    assert_eq!(quiet, weird);
    assert_ne!(quiet, CellKey::from_cell(&Cell::Float(0.0)));
    assert_ne!(quiet, CellKey::from_cell(&Cell::Null));

    // And a NaN-bearing float column still round-trips its validity:
    // NaN is a *value*, not a NULL.
    let col =
        ColumnVec::from_cells(PgType::Float8, vec![Cell::Float(f64::NAN), Cell::Null]).unwrap();
    assert!(!col.is_null(0));
    assert!(col.is_null(1));
    match col.cell_at(0) {
        Cell::Float(f) => assert!(f.is_nan()),
        other => panic!("expected float, got {other:?}"),
    }
}
