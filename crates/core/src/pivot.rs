//! Result-set pivoting: SQL result columns → column-oriented Q values.
//!
//! "QIPC forms the result set in a column-oriented fashion and sends it
//! as a single message back to the client" (paper §4.2, Figure 5).
//! Every backend hands Hyper-Q typed column vectors — the in-process
//! engine its own, the PG v3 gateway the ones it decoded the row stream
//! into — and the pivot turns each into a typed Q vector, moving its
//! storage where the representations line up: the implicit `ordcol` is
//! stripped, and SQL types map back onto Q types (varchar → symbol,
//! microsecond temporals → Q resolutions, SQL NULL → the Q null of the
//! column's type).

use algebrizer::ResultShape;
use pgdb::{Batch, Cell, ColumnVec, PgType, Rows};
use qlang::value::{Dict, KeyedTable, Table, Value};
use qlang::{QError, QResult};
use std::sync::Arc;
use xtra::ORD_COL;

/// Columns handed to Q without element-wise re-materialization: the
/// typed vector's storage is moved (null slots patched to Q sentinels
/// in place).
fn zero_copy_counter() -> &'static Arc<obs::Counter> {
    static COUNTER: std::sync::OnceLock<Arc<obs::Counter>> = std::sync::OnceLock::new();
    COUNTER.get_or_init(|| obs::global_registry().counter("hyperq_pivot_zero_copy_total"))
}

/// The empty Q vector matching a SQL column type (so empty results stay
/// typed, not generic lists).
fn empty_vector(ty: PgType) -> Value {
    match ty {
        PgType::Bool => Value::Bools(vec![]),
        PgType::Int2 => Value::Shorts(vec![]),
        PgType::Int4 => Value::Ints(vec![]),
        PgType::Int8 => Value::Longs(vec![]),
        PgType::Float4 => Value::Reals(vec![]),
        PgType::Float8 => Value::Floats(vec![]),
        PgType::Varchar | PgType::Text => Value::Symbols(vec![]),
        PgType::Date => Value::Dates(vec![]),
        PgType::Time => Value::Times(vec![]),
        PgType::Timestamp => Value::Timestamps(vec![]),
    }
}

/// Turn one typed column into the matching Q vector, moving storage
/// where the representations line up. Returns the value and whether the
/// column's backing vector was reused (vs rebuilt element-wise).
///
/// The stored class picks the Q type, the declared type its width
/// (`int4`/`int2`/`float4` narrow, millisecond times rebuild), and null
/// slots become that Q type's null, patched in place on moved storage.
fn column_to_value(col: ColumnVec, ty: PgType) -> (Value, bool) {
    if col.is_empty() {
        return (empty_vector(ty), false);
    }
    match col {
        ColumnVec::Bool(mut d, v) => {
            for (i, slot) in d.iter_mut().enumerate() {
                if v.is_null(i) {
                    *slot = false;
                }
            }
            (Value::Bools(d), true)
        }
        ColumnVec::Int(d, v) if ty == PgType::Int4 => {
            let out = d
                .iter()
                .enumerate()
                .map(|(i, x)| if v.is_null(i) { i32::MIN } else { *x as i32 })
                .collect();
            (Value::Ints(out), false)
        }
        ColumnVec::Int(d, v) if ty == PgType::Int2 => {
            let out = d
                .iter()
                .enumerate()
                .map(|(i, x)| if v.is_null(i) { i16::MIN } else { *x as i16 })
                .collect();
            (Value::Shorts(out), false)
        }
        ColumnVec::Int(mut d, v) => {
            for (i, slot) in d.iter_mut().enumerate() {
                if v.is_null(i) {
                    *slot = i64::MIN;
                }
            }
            (Value::Longs(d), true)
        }
        ColumnVec::Float(d, v) if ty == PgType::Float4 => {
            let out = d
                .iter()
                .enumerate()
                .map(|(i, x)| if v.is_null(i) { f32::NAN } else { *x as f32 })
                .collect();
            (Value::Reals(out), false)
        }
        ColumnVec::Float(mut d, v) => {
            for (i, slot) in d.iter_mut().enumerate() {
                if v.is_null(i) {
                    *slot = f64::NAN;
                }
            }
            (Value::Floats(d), true)
        }
        ColumnVec::Text(mut d, v) => {
            for (i, slot) in d.iter_mut().enumerate() {
                if v.is_null(i) {
                    *slot = String::new();
                }
            }
            (Value::Symbols(d), true)
        }
        ColumnVec::Date(mut d, v) => {
            for (i, slot) in d.iter_mut().enumerate() {
                if v.is_null(i) {
                    *slot = i32::MIN;
                }
            }
            (Value::Dates(d), true)
        }
        // µs → ms (and i64 → i32): width changes, so rebuild.
        ColumnVec::Time(d, v) => {
            let out = d
                .iter()
                .enumerate()
                .map(|(i, us)| if v.is_null(i) { i32::MIN } else { (us / 1000) as i32 })
                .collect();
            (Value::Times(out), false)
        }
        // µs → ns in place on the moved storage.
        ColumnVec::Timestamp(mut d, v) => {
            for (i, x) in d.iter_mut().enumerate() {
                *x = if v.is_null(i) { i64::MIN } else { x.saturating_mul(1000) };
            }
            (Value::Timestamps(d), true)
        }
        ColumnVec::Cells(cells) => (cells_to_value(cells, ty), false),
    }
}

/// The executor's escape hatch. Cells of one class (or none: an all-NULL
/// column) are that class's vector after all; a real mixture has no Q
/// vector type of its own and reads as the widest thing it can all be —
/// floats if every cell is numeric, symbols of the PG text otherwise.
fn cells_to_value(cells: Vec<Cell>, ty: PgType) -> Value {
    match ColumnVec::from_cells(ty, cells) {
        ColumnVec::Cells(mixed) => {
            let all_numeric =
                mixed.iter().all(|c| c.is_null() || matches!(c, Cell::Int(_) | Cell::Float(_)));
            if all_numeric {
                Value::Floats(mixed.iter().map(|c| c.as_f64().unwrap_or(f64::NAN)).collect())
            } else {
                Value::Symbols(mixed.iter().map(|c| c.to_wire_text().unwrap_or_default()).collect())
            }
        }
        typed => column_to_value(typed, ty).0,
    }
}

/// Pivot a columnar result into a Q table, stripping the implicit order
/// column. Where column representations line up this moves storage
/// instead of copying (counted by `hyperq_pivot_zero_copy_total`).
pub fn batch_to_table(mut batch: Batch) -> QResult<Table> {
    let schema = std::mem::take(&mut batch.schema);
    let columns = std::mem::take(&mut batch.columns);
    let mut t = Table::default();
    for (col, vec) in schema.into_iter().zip(columns) {
        if col.name == ORD_COL {
            continue;
        }
        let (v, moved) = column_to_value(vec, col.ty);
        if moved {
            zero_copy_counter().inc();
        }
        t.push_column(col.name, v)?;
    }
    Ok(t)
}

/// Pivot a row set into the Q value shape the application expects: the
/// rows transposed, then [`pivot_batch`].
pub fn pivot(rows: &Rows, shape: ResultShape) -> QResult<Value> {
    pivot_batch(Batch::from_rows(rows.clone()), shape)
}

/// Chunks in, one Q value out: [`pivot_batch`] of the chunks appended
/// with [`Batch::append`]. Exists for hqbench until ROADMAP item 8 step A.
pub struct StreamPivot {
    acc: Batch,
}

impl StreamPivot {
    /// An accumulator for chunks with the given schema.
    pub fn new(schema: &[pgdb::Column]) -> Self {
        StreamPivot { acc: Batch::empty(schema.to_vec()) }
    }

    /// Append one chunk; the first is kept as it is.
    pub fn push(&mut self, batch: Batch) {
        if self.acc.is_empty() {
            self.acc = batch;
        } else {
            self.acc.append(batch);
        }
    }

    /// [`pivot_batch`] of everything pushed.
    pub fn finish(self, shape: ResultShape) -> QResult<Value> {
        pivot_batch(self.acc, shape)
    }
}

/// Pivot a columnar result into the Q value shape the application
/// expects (DESIGN §10).
pub fn pivot_batch(batch: Batch, shape: ResultShape) -> QResult<Value> {
    shape_value(batch_to_table(batch)?, shape)
}

/// Reshape the pivoted table into the Q value the translation promised.
fn shape_value(mut full: Table, shape: ResultShape) -> QResult<Value> {
    match shape {
        ResultShape::Table => Ok(Value::Table(Box::new(full))),
        ResultShape::KeyedTable { key_cols } => {
            if key_cols > full.width() {
                return Err(QError::length("keyed result has fewer columns than keys"));
            }
            let value = Table {
                names: full.names.split_off(key_cols),
                columns: full.columns.split_off(key_cols),
            };
            Ok(Value::KeyedTable(Box::new(KeyedTable { key: full, value })))
        }
        ResultShape::Column => {
            let t = full;
            t.columns
                .into_iter()
                .next()
                .ok_or_else(|| QError::length("exec result has no columns"))
        }
        ResultShape::Dict => {
            let t = full;
            Ok(Value::Dict(Box::new(Dict::new(
                Value::Symbols(t.names),
                Value::Mixed(t.columns),
            )?)))
        }
        ResultShape::GroupDict => {
            // `exec agg by g`: first column keys, second column values.
            let t = full;
            let mut cols = t.columns.into_iter();
            let keys = cols
                .next()
                .ok_or_else(|| QError::length("grouped exec result has no key column"))?;
            let values = cols
                .next()
                .ok_or_else(|| QError::length("grouped exec result has no value column"))?;
            Ok(Value::Dict(Box::new(Dict::new(keys, values)?)))
        }
        ResultShape::Atom => {
            let t = full;
            let col = t
                .columns
                .into_iter()
                .next()
                .ok_or_else(|| QError::length("scalar result has no columns"))?;
            Ok(col.index(0).unwrap_or_else(|| col.null_element()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdb::Column;

    fn sample_rows() -> Rows {
        Rows {
            columns: vec![
                Column::new(ORD_COL, PgType::Int8),
                Column::new("Symbol", PgType::Varchar),
                Column::new("Price", PgType::Float8),
            ],
            data: vec![
                vec![Cell::Int(1), Cell::Text("GOOG".into()), Cell::Float(100.0)],
                vec![Cell::Int(2), Cell::Text("IBM".into()), Cell::Null],
            ],
        }
    }

    #[test]
    fn pivots_rows_to_columns_and_strips_ordcol() {
        let v = pivot(&sample_rows(), ResultShape::Table).unwrap();
        match v {
            Value::Table(t) => {
                assert_eq!(t.names, vec!["Symbol".to_string(), "Price".into()]);
                assert!(t
                    .column("Symbol")
                    .unwrap()
                    .q_eq(&Value::Symbols(vec!["GOOG".into(), "IBM".into()])));
                // SQL NULL became the Q float null.
                match t.column("Price").unwrap() {
                    Value::Floats(v) => {
                        assert_eq!(v[0], 100.0);
                        assert!(v[1].is_nan());
                    }
                    other => panic!("expected floats, got {other:?}"),
                }
            }
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn column_shape_yields_vector() {
        let rows = Rows {
            columns: vec![Column::new("Price", PgType::Float8)],
            data: vec![vec![Cell::Float(1.0)], vec![Cell::Float(2.0)]],
        };
        let v = pivot(&rows, ResultShape::Column).unwrap();
        assert!(v.q_eq(&Value::Floats(vec![1.0, 2.0])));
    }

    #[test]
    fn atom_shape_yields_scalar() {
        let rows = Rows {
            columns: vec![Column::new("mx", PgType::Float8)],
            data: vec![vec![Cell::Float(101.5)]],
        };
        let v = pivot(&rows, ResultShape::Atom).unwrap();
        assert!(v.q_eq(&Value::float(101.5)));
    }

    #[test]
    fn keyed_table_shape_splits_columns() {
        let rows = Rows {
            columns: vec![
                Column::new("Symbol", PgType::Varchar),
                Column::new("mx", PgType::Float8),
            ],
            data: vec![vec![Cell::Text("GOOG".into()), Cell::Float(101.5)]],
        };
        let v = pivot(&rows, ResultShape::KeyedTable { key_cols: 1 }).unwrap();
        match v {
            Value::KeyedTable(k) => {
                assert_eq!(k.key.names, vec!["Symbol".to_string()]);
                assert_eq!(k.value.names, vec!["mx".to_string()]);
            }
            other => panic!("expected keyed table, got {other:?}"),
        }
    }

    #[test]
    fn dict_shape() {
        let rows = Rows {
            columns: vec![
                Column::new("a", PgType::Int8),
                Column::new("b", PgType::Int8),
            ],
            data: vec![vec![Cell::Int(1), Cell::Int(2)]],
        };
        let v = pivot(&rows, ResultShape::Dict).unwrap();
        match v {
            Value::Dict(d) => {
                assert!(d.get(&Value::symbol("a")).q_eq(&Value::Longs(vec![1])));
            }
            other => panic!("expected dict, got {other:?}"),
        }
    }

    #[test]
    fn group_dict_shape_keys_by_first_column() {
        let rows = Rows {
            columns: vec![
                Column::new("Symbol", PgType::Varchar),
                Column::new("mx", PgType::Float8),
            ],
            data: vec![
                vec![Cell::Text("GOOG".into()), Cell::Float(101.5)],
                vec![Cell::Text("IBM".into()), Cell::Float(50.0)],
            ],
        };
        let v = pivot(&rows, ResultShape::GroupDict).unwrap();
        match v {
            Value::Dict(d) => {
                assert!(d.keys.q_eq(&Value::Symbols(vec!["GOOG".into(), "IBM".into()])));
                assert!(d.get(&Value::symbol("IBM")).q_eq(&Value::float(50.0)));
            }
            other => panic!("expected dict, got {other:?}"),
        }
    }

    #[test]
    fn temporal_resolution_restored() {
        let rows = Rows {
            columns: vec![
                Column::new("d", PgType::Date),
                Column::new("t", PgType::Time),
                Column::new("ts", PgType::Timestamp),
            ],
            data: vec![vec![
                Cell::Date(6021),
                Cell::Time(34_200_000_000),
                Cell::Timestamp(1_000),
            ]],
        };
        let t = batch_to_table(Batch::from_rows(rows)).unwrap();
        assert!(t.column("d").unwrap().q_eq(&Value::Dates(vec![6021])));
        // µs → ms.
        assert!(t.column("t").unwrap().q_eq(&Value::Times(vec![34_200_000])));
        // µs → ns.
        assert!(t.column("ts").unwrap().q_eq(&Value::Timestamps(vec![1_000_000])));
    }

    #[test]
    fn int_widths_map_to_q_types() {
        let rows = Rows {
            columns: vec![
                Column::new("a", PgType::Int2),
                Column::new("b", PgType::Int4),
                Column::new("c", PgType::Int8),
            ],
            data: vec![vec![Cell::Int(1), Cell::Int(2), Cell::Int(3)]],
        };
        let t = batch_to_table(Batch::from_rows(rows)).unwrap();
        assert!(matches!(t.column("a").unwrap(), Value::Shorts(_)));
        assert!(matches!(t.column("b").unwrap(), Value::Ints(_)));
        assert!(matches!(t.column("c").unwrap(), Value::Longs(_)));
    }

    #[test]
    fn untyped_cells_pivot_without_a_per_cell_route() {
        let pivoted = |ty, cells: Vec<Cell>| {
            let n = cells.len();
            let batch = Batch::new(vec![Column::new("v", ty)], vec![ColumnVec::Cells(cells)], n);
            pivot_batch(batch, ResultShape::Column).unwrap()
        };
        // One class after all: that class's vector, nulls as its null.
        assert!(pivoted(PgType::Int8, vec![Cell::Int(1), Cell::Null])
            .q_eq(&Value::Longs(vec![1, i64::MIN])));
        // No class at all: the declared type decides.
        assert!(pivoted(PgType::Date, vec![Cell::Null, Cell::Null])
            .q_eq(&Value::Dates(vec![i32::MIN, i32::MIN])));
        // A numeric mixture reads as floats, any other as symbols.
        assert!(pivoted(PgType::Float8, vec![Cell::Int(1), Cell::Float(1.5)])
            .q_eq(&Value::Floats(vec![1.0, 1.5])));
        assert!(pivoted(PgType::Text, vec![Cell::Int(1), Cell::Text("x".into()), Cell::Null])
            .q_eq(&Value::Symbols(vec!["1".into(), "x".into(), "".into()])));
    }

    /// A column whose storage class changes between chunks pivots as the
    /// whole result does: typed Int rows then a mixed chunk are one
    /// mixed column, which reads as symbols.
    #[test]
    fn stream_pivot_is_the_pivot_of_the_appended_chunks() {
        let schema = vec![Column::new("v", PgType::Int8)];
        let ints = Batch::from_rows(Rows {
            columns: schema.clone(),
            data: vec![vec![Cell::Int(1)], vec![Cell::Int(2)]],
        });
        let mixed = Batch::new(
            schema.clone(),
            vec![ColumnVec::Cells(vec![Cell::Int(3), Cell::Text("x".into())])],
            2,
        );
        let mut pv = StreamPivot::new(&schema);
        pv.push(ints.clone());
        pv.push(mixed.clone());
        let mut whole = ints;
        whole.append(mixed);
        let want = pivot_batch(whole, ResultShape::Column).unwrap();
        assert!(want.q_eq(&Value::Symbols(vec!["1".into(), "2".into(), "3".into(), "x".into()])));
        let got = pv.finish(ResultShape::Column).unwrap();
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn empty_result_pivots_to_empty_table() {
        let rows = Rows {
            columns: vec![Column::new("x", PgType::Int8)],
            data: vec![],
        };
        let v = pivot(&rows, ResultShape::Table).unwrap();
        match v {
            Value::Table(t) => assert_eq!(t.rows(), 0),
            other => panic!("expected table, got {other:?}"),
        }
        // Atom over empty rows yields the typed null.
        let rows = Rows {
            columns: vec![Column::new("x", PgType::Int8)],
            data: vec![],
        };
        let v = pivot(&rows, ResultShape::Atom).unwrap();
        assert!(matches!(v, Value::Atom(a) if a.is_null()));
    }
}
