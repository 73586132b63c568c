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
use pgdb::{Batch, ColumnVec, PgType, Rows};
use colstore::Validity;
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

/// Turn one typed column into the matching Q vector, moving storage
/// where the representations line up. Returns the value and whether the
/// column's backing vector was reused (vs rebuilt element-wise).
///
/// The declared type picks the Q type — the column holds its class, so
/// an empty result is a typed empty vector — and the width
/// (`int4`/`int2`/`float4` narrow, millisecond times rebuild); null
/// slots become that Q type's null, patched in place on moved storage.
fn column_to_value(col: ColumnVec, ty: PgType) -> (Value, bool) {
    match col {
        ColumnVec::Bool(d, v) => (Value::Bools(patched(d, &v, false)), true),
        ColumnVec::Int(d, v) if ty == PgType::Int4 => {
            (Value::Ints(rebuilt(&d, &v, i32::MIN, |x| *x as i32)), false)
        }
        ColumnVec::Int(d, v) if ty == PgType::Int2 => {
            (Value::Shorts(rebuilt(&d, &v, i16::MIN, |x| *x as i16)), false)
        }
        ColumnVec::Int(d, v) => (Value::Longs(patched(d, &v, i64::MIN)), true),
        ColumnVec::Float(d, v) if ty == PgType::Float4 => {
            (Value::Reals(rebuilt(&d, &v, f32::NAN, |x| *x as f32)), false)
        }
        ColumnVec::Float(d, v) => (Value::Floats(patched(d, &v, f64::NAN)), true),
        ColumnVec::Text(d, v) => (Value::Symbols(patched(d, &v, String::new())), true),
        ColumnVec::Date(d, v) => (Value::Dates(patched(d, &v, i32::MIN)), true),
        // µs → ms (and i64 → i32): width changes, so rebuild.
        ColumnVec::Time(d, v) => {
            (Value::Times(rebuilt(&d, &v, i32::MIN, |us| (us / 1000) as i32)), false)
        }
        // µs → ns in place on the moved storage.
        ColumnVec::Timestamp(mut d, v) => {
            for (i, x) in d.iter_mut().enumerate() {
                *x = if v.is_null(i) { i64::MIN } else { x.saturating_mul(1000) };
            }
            (Value::Timestamps(d), true)
        }
    }
}

/// `d` with its NULL slots set to `null`, in place.
fn patched<T: Clone>(mut d: Vec<T>, v: &Validity, null: T) -> Vec<T> {
    for (i, slot) in d.iter_mut().enumerate() {
        if v.is_null(i) {
            *slot = null.clone();
        }
    }
    d
}

/// `d` converted element by element, NULL slots as `null`.
fn rebuilt<T, U: Copy>(d: &[T], v: &Validity, null: U, f: impl Fn(&T) -> U) -> Vec<U> {
    d.iter().enumerate().map(|(i, x)| if v.is_null(i) { null } else { f(x) }).collect()
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
    use pgdb::{Cell, Column};

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

    /// Chunks pivot as the whole result does.
    #[test]
    fn stream_pivot_is_the_pivot_of_the_appended_chunks() {
        let schema = vec![Column::new("v", PgType::Float8)];
        let chunk = |data: Vec<Vec<Cell>>| Batch::from_rows(Rows { columns: schema.clone(), data });
        let first = chunk(vec![vec![Cell::Float(1.5)], vec![Cell::Null]]);
        let second = chunk(vec![vec![Cell::Int(3)]]);
        let mut pv = StreamPivot::new(&schema);
        pv.push(first.clone());
        pv.push(second.clone());
        let mut whole = first;
        whole.append(second);
        let want = pivot_batch(whole, ResultShape::Column).unwrap();
        assert!(want.q_eq(&Value::Floats(vec![1.5, f64::NAN, 3.0])));
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
