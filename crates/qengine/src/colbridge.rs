//! Bridge between the interpreter's Q vectors and the shared columnar
//! representation (`colstore`, DESIGN §10).
//!
//! The reference engine stores table columns as typed `qlang` vectors
//! with kdb+-style *in-band* null sentinels (`0N` is `i64::MIN`, the
//! null symbol is the empty symbol, float null is NaN). `colstore`
//! carries nulls *out of band* in a validity bitmap. This module maps
//! between the two so the differential fuzz driver can compare what the
//! interpreter produced against what the translation pipeline produced
//! **structurally** — batch against batch, via `CellKey` — instead of
//! only through Q-value equality.
//!
//! The mapping is partial by design: `value_to_column` answers `None`
//! for shapes with no columnar storage class (mixed lists, nested
//! tables, lambdas), and callers fall back to Q-value comparison.

use colstore::{Batch, Cell, Column, ColumnVec, PgType};
use qlang::value::{Table, Value};

/// Convert one Q vector into a typed column plus its SQL type, turning
/// in-band null sentinels into validity-bitmap nulls. `None` when the
/// value has no columnar storage class.
pub fn value_to_column(v: &Value) -> Option<(ColumnVec, PgType)> {
    let cells: Vec<Cell> = match v {
        Value::Bools(d) => d.iter().map(|b| Cell::Bool(*b)).collect(),
        Value::Shorts(d) => d
            .iter()
            .map(|x| if *x == i16::MIN { Cell::Null } else { Cell::Int(*x as i64) })
            .collect(),
        Value::Ints(d) => d
            .iter()
            .map(|x| if *x == i32::MIN { Cell::Null } else { Cell::Int(*x as i64) })
            .collect(),
        Value::Longs(d) => d
            .iter()
            .map(|x| if *x == i64::MIN { Cell::Null } else { Cell::Int(*x) })
            .collect(),
        Value::Reals(d) => d
            .iter()
            .map(|x| if x.is_nan() { Cell::Null } else { Cell::Float(*x as f64) })
            .collect(),
        Value::Floats(d) => d
            .iter()
            .map(|x| if x.is_nan() { Cell::Null } else { Cell::Float(*x) })
            .collect(),
        Value::Symbols(d) => d
            .iter()
            .map(|s| if s.is_empty() { Cell::Null } else { Cell::Text(s.clone()) })
            .collect(),
        Value::Dates(d) => d
            .iter()
            .map(|x| if *x == i32::MIN { Cell::Null } else { Cell::Date(*x) })
            .collect(),
        // Q times are milliseconds; the columnar convention is µs.
        Value::Times(d) => d
            .iter()
            .map(|x| {
                if *x == i32::MIN {
                    Cell::Null
                } else {
                    Cell::Time((*x as i64).saturating_mul(1000))
                }
            })
            .collect(),
        // Q timestamps are nanoseconds; the columnar convention is µs.
        Value::Timestamps(d) => d
            .iter()
            .map(|x| if *x == i64::MIN { Cell::Null } else { Cell::Timestamp(*x / 1000) })
            .collect(),
        _ => return None,
    };
    let ty = match v {
        Value::Bools(_) => PgType::Bool,
        Value::Shorts(_) => PgType::Int2,
        Value::Ints(_) => PgType::Int4,
        Value::Longs(_) => PgType::Int8,
        Value::Reals(_) => PgType::Float4,
        Value::Floats(_) => PgType::Float8,
        Value::Symbols(_) => PgType::Varchar,
        Value::Dates(_) => PgType::Date,
        Value::Times(_) => PgType::Time,
        Value::Timestamps(_) => PgType::Timestamp,
        _ => unreachable!("filtered above"),
    };
    Some((ColumnVec::from_cells(ty, cells).expect("cells of the vector's own type"), ty))
}

/// Convert a Q table into a [`Batch`], column by column. `None` when any
/// column lacks a columnar storage class (the caller should fall back to
/// Q-value comparison).
pub fn table_to_batch(t: &Table) -> Option<Batch> {
    let mut schema = Vec::with_capacity(t.names.len());
    let mut columns = Vec::with_capacity(t.names.len());
    for (name, value) in t.names.iter().zip(&t.columns) {
        let (col, ty) = value_to_column(value)?;
        schema.push(Column::new(name.clone(), ty));
        columns.push(col);
    }
    Some(Batch::new(schema, columns, t.rows()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longs_with_sentinel_null_map_to_validity_null() {
        let (col, ty) = value_to_column(&Value::Longs(vec![1, i64::MIN, 3])).unwrap();
        assert_eq!(ty, PgType::Int8);
        assert_eq!(col.cell_at(0), Cell::Int(1));
        assert_eq!(col.cell_at(1), Cell::Null);
        assert_eq!(col.cell_at(2), Cell::Int(3));
    }

    #[test]
    fn null_symbol_and_float_null_are_out_of_band() {
        let (col, _) = value_to_column(&Value::Symbols(vec!["a".into(), "".into()])).unwrap();
        assert_eq!(col.cell_at(1), Cell::Null);
        let (col, _) = value_to_column(&Value::Floats(vec![1.5, f64::NAN])).unwrap();
        assert_eq!(col.cell_at(1), Cell::Null);
    }

    #[test]
    fn temporal_resolutions_follow_the_columnar_convention() {
        // ms → µs.
        let (col, _) = value_to_column(&Value::Times(vec![34_200_000])).unwrap();
        assert_eq!(col.cell_at(0), Cell::Time(34_200_000_000));
        // ns → µs.
        let (col, _) = value_to_column(&Value::Timestamps(vec![1_000_000])).unwrap();
        assert_eq!(col.cell_at(0), Cell::Timestamp(1_000));
    }

    #[test]
    fn mixed_lists_have_no_columnar_class() {
        assert!(value_to_column(&Value::Mixed(vec![Value::long(1)])).is_none());
        let t = Table::new(
            vec!["m".into()],
            vec![Value::Mixed(vec![Value::long(1)])],
        )
        .unwrap();
        assert!(table_to_batch(&t).is_none());
    }

    #[test]
    fn table_round_trips_structurally() {
        let t = Table::new(
            vec!["S".into(), "V".into()],
            vec![
                Value::Symbols(vec!["a".into(), "b".into()]),
                Value::Longs(vec![1, i64::MIN]),
            ],
        )
        .unwrap();
        let a = table_to_batch(&t).unwrap();
        let b = table_to_batch(&t).unwrap();
        assert_eq!(a.rows(), 2);
        assert!(a.structurally_equal(&b));
    }
}
