//! The columnar batch representation shared across the stack.
//!
//! A [`Batch`] is the column-major dual of [`Rows`]: a schema plus one
//! [`ColumnVec`] per column and an **explicit row count**. The explicit
//! count is load-bearing — a scalar `SELECT 1 + 1` (no FROM clause) is
//! a *zero-column, one-row* relation, which a row-major `Vec<Vec<Cell>>`
//! can only express with the `vec![vec![]]` hack but a batch states
//! directly.
//!
//! Each `ColumnVec` stores one typed vector (the natural machine
//! representation of a Q/PG column) plus a [`Validity`] bitmap marking
//! NULL slots; null slots hold an arbitrary placeholder in the data
//! vector and must never be read as values. The vector's storage class
//! is its declared type's ([`PgType::class`]) — an `integer` column is
//! an `Int` vector, a `double precision` one a `Float` vector, NULL-only
//! columns included — and [`Batch::new`] checks that in debug builds.
//! Cells that are not of the declared class are refused where a column
//! is built ([`ColumnVec::from_cells`]), except integers, which widen
//! into a float column.

use crate::key::CellKey;
use crate::types::{Cell, Class, ClassMismatch, Column, PgType, Rows};

/// NULL bitmap for one column: bit `i` set ⇒ slot `i` is NULL.
///
/// The all-valid case (by far the most common) stores no bitmap at all,
/// so scans over fully-valid columns skip the per-slot test via
/// [`Validity::any_null`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Validity {
    len: usize,
    /// Bit `i % 64` of word `i / 64` set ⇒ slot `i` is NULL.
    /// `None` ⇒ every slot is valid.
    nulls: Option<Vec<u64>>,
}

impl Validity {
    /// A validity map of `len` slots, all valid.
    pub fn all_valid(len: usize) -> Validity {
        Validity { len, nulls: None }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is slot `i` NULL?
    pub fn is_null(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "validity index {i} out of {}", self.len);
        match &self.nulls {
            None => false,
            Some(words) => (words[i / 64] >> (i % 64)) & 1 == 1,
        }
    }

    /// Does any slot hold NULL? (Fast path gate: `false` means scans
    /// can skip per-slot tests entirely.)
    pub fn any_null(&self) -> bool {
        self.nulls.as_ref().is_some_and(|w| w.iter().any(|&x| x != 0))
    }

    /// Number of NULL slots.
    pub fn null_count(&self) -> usize {
        match &self.nulls {
            None => 0,
            Some(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Mark slot `i` NULL.
    pub fn set_null(&mut self, i: usize) {
        assert!(i < self.len, "validity index {i} out of {}", self.len);
        let words = self.len.div_ceil(64);
        let w = self.nulls.get_or_insert_with(|| vec![0; words]);
        w[i / 64] |= 1 << (i % 64);
    }

    /// Append one slot.
    pub fn push(&mut self, null: bool) {
        let i = self.len;
        self.len += 1;
        if let Some(w) = &mut self.nulls {
            if w.len() * 64 < self.len {
                w.push(0);
            }
            if null {
                w[i / 64] |= 1 << (i % 64);
            }
        } else if null {
            let mut w = vec![0u64; self.len.div_ceil(64)];
            w[i / 64] |= 1 << (i % 64);
            self.nulls = Some(w);
        }
    }

    /// Gather: validity of `data.take(idx)`.
    pub fn take(&self, idx: &[usize]) -> Validity {
        let mut out = Validity::all_valid(idx.len());
        if self.nulls.is_some() {
            for (k, &i) in idx.iter().enumerate() {
                if self.is_null(i) {
                    out.set_null(k);
                }
            }
        }
        out
    }

    /// Slot-wise union of NULLs: slot `i` is NULL when it is NULL in
    /// either input (the validity of a strict binary operator's result).
    pub fn union(&self, other: &Validity) -> Validity {
        assert_eq!(self.len, other.len, "validity union over unequal lengths");
        let nulls = match (&self.nulls, &other.nulls) {
            (None, None) => None,
            (Some(w), None) | (None, Some(w)) => Some(w.clone()),
            (Some(a), Some(b)) => Some(a.iter().zip(b).map(|(x, y)| x | y).collect()),
        };
        Validity { len: self.len, nulls }
    }

    /// Concatenate `other` onto the end of `self`.
    pub fn append(&mut self, other: &Validity) {
        if other.nulls.is_none() {
            self.len += other.len;
            if let Some(w) = &mut self.nulls {
                w.resize(self.len.div_ceil(64), 0);
            }
            return;
        }
        for i in 0..other.len {
            self.push(other.is_null(i));
        }
    }
}

/// One typed column vector with a validity bitmap: the storage of one
/// [`Class`].
///
/// Integers unify to `i64` and floats to `f64` exactly like [`Cell`];
/// the temporal variants keep the translation stack's conventions
/// (dates are days since 2000-01-01, times/timestamps microseconds).
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVec {
    /// `boolean` column.
    Bool(Vec<bool>, Validity),
    /// Any integer column.
    Int(Vec<i64>, Validity),
    /// Any float column.
    Float(Vec<f64>, Validity),
    /// varchar/text column.
    Text(Vec<String>, Validity),
    /// Days since 2000-01-01.
    Date(Vec<i32>, Validity),
    /// Microseconds since midnight.
    Time(Vec<i64>, Validity),
    /// Microseconds since 2000-01-01 00:00.
    Timestamp(Vec<i64>, Validity),
}

impl ColumnVec {
    /// An empty column of `ty`'s storage class.
    pub fn empty(ty: PgType) -> ColumnVec {
        ColumnVec::nulls(ty, 0)
    }

    /// A column of `n` NULLs.
    pub fn nulls(ty: PgType, n: usize) -> ColumnVec {
        ColumnVec::from_cells(ty, vec![Cell::Null; n]).expect("every type holds NULL")
    }

    /// Build a column of `ty` from runtime cells: each cell as
    /// [`Cell::into_class`] has it (NULLs and same-class cells kept,
    /// integers widened into a float column), the first cell of any
    /// other class a [`ClassMismatch`].
    pub fn from_cells(ty: PgType, cells: Vec<Cell>) -> Result<ColumnVec, ClassMismatch> {
        let n = cells.len();
        let mut validity = Validity::all_valid(n);
        macro_rules! build {
            ($variant:ident, $placeholder:expr, $pat:pat => $val:expr) => {{
                let mut data = Vec::with_capacity(n);
                for (i, c) in cells.into_iter().enumerate() {
                    match c {
                        $pat => data.push($val),
                        Cell::Null => {
                            validity.set_null(i);
                            data.push($placeholder);
                        }
                        other => match other.into_class(ty)? {
                            $pat => data.push($val),
                            widened => unreachable!("{widened:?} is not of {ty:?}'s class"),
                        },
                    }
                }
                ColumnVec::$variant(data, validity)
            }};
        }
        Ok(match ty.class() {
            Class::Bool => build!(Bool, false, Cell::Bool(b) => b),
            Class::Int => build!(Int, 0, Cell::Int(v) => v),
            Class::Float => build!(Float, 0.0, Cell::Float(v) => v),
            Class::Text => build!(Text, String::new(), Cell::Text(s) => s),
            Class::Date => build!(Date, 0, Cell::Date(d) => d),
            Class::Time => build!(Time, 0, Cell::Time(t) => t),
            Class::Timestamp => build!(Timestamp, 0, Cell::Timestamp(t) => t),
        })
    }

    /// Storage class.
    pub fn class(&self) -> Class {
        match self {
            ColumnVec::Bool(..) => Class::Bool,
            ColumnVec::Int(..) => Class::Int,
            ColumnVec::Float(..) => Class::Float,
            ColumnVec::Text(..) => Class::Text,
            ColumnVec::Date(..) => Class::Date,
            ColumnVec::Time(..) => Class::Time,
            ColumnVec::Timestamp(..) => Class::Timestamp,
        }
    }

    /// `n` copies of one cell, as a column of `ty` (zero copies of any
    /// cell are the empty column).
    pub fn broadcast(ty: PgType, cell: &Cell, n: usize) -> Result<ColumnVec, ClassMismatch> {
        ColumnVec::from_cells(ty, vec![cell.clone(); n])
    }

    /// This column as a column of `ty`, by [`ColumnVec::from_cells`]'s
    /// rule: unchanged when the class is already `ty`'s.
    pub fn into_class(self, ty: PgType) -> Result<ColumnVec, ClassMismatch> {
        if self.class() == ty.class() {
            return Ok(self);
        }
        ColumnVec::from_cells(ty, self.into_cells())
    }

    /// The validity bitmap.
    pub fn validity(&self) -> &Validity {
        match self {
            ColumnVec::Bool(_, v)
            | ColumnVec::Int(_, v)
            | ColumnVec::Float(_, v)
            | ColumnVec::Text(_, v)
            | ColumnVec::Date(_, v)
            | ColumnVec::Time(_, v)
            | ColumnVec::Timestamp(_, v) => v,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.validity().len()
    }

    /// True when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is slot `i` NULL?
    pub fn is_null(&self, i: usize) -> bool {
        self.validity().is_null(i)
    }

    /// The cell at slot `i` (clones text).
    pub fn cell_at(&self, i: usize) -> Cell {
        macro_rules! at {
            ($d:expr, $v:expr, $wrap:expr) => {
                if $v.is_null(i) {
                    Cell::Null
                } else {
                    $wrap($d[i].clone())
                }
            };
        }
        match self {
            ColumnVec::Bool(d, v) => at!(d, v, Cell::Bool),
            ColumnVec::Int(d, v) => at!(d, v, Cell::Int),
            ColumnVec::Float(d, v) => at!(d, v, Cell::Float),
            ColumnVec::Text(d, v) => at!(d, v, Cell::Text),
            ColumnVec::Date(d, v) => at!(d, v, Cell::Date),
            ColumnVec::Time(d, v) => at!(d, v, Cell::Time),
            ColumnVec::Timestamp(d, v) => at!(d, v, Cell::Timestamp),
        }
    }

    /// Gather slots by index (indices may repeat or reorder).
    pub fn take(&self, idx: &[usize]) -> ColumnVec {
        macro_rules! gather {
            ($variant:ident, $d:expr, $v:expr) => {
                ColumnVec::$variant(idx.iter().map(|&i| $d[i].clone()).collect(), $v.take(idx))
            };
        }
        match self {
            ColumnVec::Bool(d, v) => gather!(Bool, d, v),
            ColumnVec::Int(d, v) => gather!(Int, d, v),
            ColumnVec::Float(d, v) => gather!(Float, d, v),
            ColumnVec::Text(d, v) => gather!(Text, d, v),
            ColumnVec::Date(d, v) => gather!(Date, d, v),
            ColumnVec::Time(d, v) => gather!(Time, d, v),
            ColumnVec::Timestamp(d, v) => gather!(Timestamp, d, v),
        }
    }

    /// Null-filling gather: `None` slots become NULL (left-join padding).
    pub fn take_opt(&self, idx: &[Option<usize>]) -> ColumnVec {
        macro_rules! gather {
            ($variant:ident, $d:expr, $v:expr, $placeholder:expr) => {{
                let mut validity = Validity::all_valid(idx.len());
                let data = idx
                    .iter()
                    .enumerate()
                    .map(|(k, m)| match m {
                        Some(i) => {
                            if $v.is_null(*i) {
                                validity.set_null(k);
                            }
                            $d[*i].clone()
                        }
                        None => {
                            validity.set_null(k);
                            $placeholder
                        }
                    })
                    .collect();
                ColumnVec::$variant(data, validity)
            }};
        }
        match self {
            ColumnVec::Bool(d, v) => gather!(Bool, d, v, false),
            ColumnVec::Int(d, v) => gather!(Int, d, v, 0),
            ColumnVec::Float(d, v) => gather!(Float, d, v, 0.0),
            ColumnVec::Text(d, v) => gather!(Text, d, v, String::new()),
            ColumnVec::Date(d, v) => gather!(Date, d, v, 0),
            ColumnVec::Time(d, v) => gather!(Time, d, v, 0),
            ColumnVec::Timestamp(d, v) => gather!(Timestamp, d, v, 0),
        }
    }

    /// Concatenate `other` onto `self`; panics when the two are of
    /// different storage classes (an executor invariant: both hold the
    /// class of one declared type).
    pub fn append(&mut self, other: ColumnVec) {
        macro_rules! same {
            ($d:expr, $v:expr, $od:expr, $ov:expr) => {{
                $d.extend($od);
                $v.append(&$ov);
            }};
        }
        match (self, other) {
            (ColumnVec::Bool(d, v), ColumnVec::Bool(od, ov)) => same!(d, v, od, ov),
            (ColumnVec::Int(d, v), ColumnVec::Int(od, ov)) => same!(d, v, od, ov),
            (ColumnVec::Float(d, v), ColumnVec::Float(od, ov)) => same!(d, v, od, ov),
            (ColumnVec::Text(d, v), ColumnVec::Text(od, ov)) => same!(d, v, od, ov),
            (ColumnVec::Date(d, v), ColumnVec::Date(od, ov)) => same!(d, v, od, ov),
            (ColumnVec::Time(d, v), ColumnVec::Time(od, ov)) => same!(d, v, od, ov),
            (ColumnVec::Timestamp(d, v), ColumnVec::Timestamp(od, ov)) => same!(d, v, od, ov),
            (this, other) => {
                panic!("append of a {:?} column onto a {:?} column", other.class(), this.class())
            }
        }
    }

    /// Convert back to runtime cells, consuming the vector (moves text).
    pub fn into_cells(self) -> Vec<Cell> {
        macro_rules! expand {
            ($d:expr, $v:expr, $wrap:expr) => {
                $d.into_iter()
                    .enumerate()
                    .map(|(i, x)| if $v.is_null(i) { Cell::Null } else { $wrap(x) })
                    .collect()
            };
        }
        match self {
            ColumnVec::Bool(d, v) => expand!(d, v, Cell::Bool),
            ColumnVec::Int(d, v) => expand!(d, v, Cell::Int),
            ColumnVec::Float(d, v) => expand!(d, v, Cell::Float),
            ColumnVec::Text(d, v) => expand!(d, v, Cell::Text),
            ColumnVec::Date(d, v) => expand!(d, v, Cell::Date),
            ColumnVec::Time(d, v) => expand!(d, v, Cell::Time),
            ColumnVec::Timestamp(d, v) => expand!(d, v, Cell::Timestamp),
        }
    }

    /// Convert to runtime cells without consuming.
    pub fn to_cells(&self) -> Vec<Cell> {
        (0..self.len()).map(|i| self.cell_at(i)).collect()
    }

    /// Canonical hash key of slot `i` — exactly
    /// `CellKey::from_cell(&self.cell_at(i))`, but without materializing
    /// a cell for the typed variants (text keys clone the string either
    /// way).
    pub fn key_at(&self, i: usize) -> CellKey {
        match self {
            ColumnVec::Text(d, v) => {
                if v.is_null(i) {
                    CellKey::Null
                } else {
                    CellKey::Text(d[i].clone())
                }
            }
            ColumnVec::Int(d, v) => {
                if v.is_null(i) {
                    CellKey::Null
                } else {
                    CellKey::Int(d[i])
                }
            }
            other => CellKey::from_cell(&other.cell_at(i)),
        }
    }

    /// Number of NULL slots.
    pub fn null_cells(&self) -> usize {
        self.validity().null_count()
    }
}

/// A columnar result/table: schema, one [`ColumnVec`] per column, and
/// an explicit row count (meaningful even with zero columns).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Batch {
    /// Output schema (same shape as [`Rows::columns`]).
    pub schema: Vec<Column>,
    /// One column vector per schema entry; every vector has
    /// [`Batch::rows`] slots.
    pub columns: Vec<ColumnVec>,
    rows: usize,
}

impl Batch {
    /// Assemble a batch; panics when a column's length disagrees with
    /// the stated row count (an executor invariant, not user input).
    /// Debug builds also check the representation's invariant: each
    /// column's storage class is its declared type's, NULL-only columns
    /// included.
    pub fn new(schema: Vec<Column>, columns: Vec<ColumnVec>, rows: usize) -> Batch {
        assert_eq!(schema.len(), columns.len(), "schema/column arity mismatch");
        for (c, col) in schema.iter().zip(&columns) {
            assert_eq!(col.len(), rows, "column {} length disagrees with row count", c.name);
            debug_assert_eq!(
                col.class(),
                c.ty.class(),
                "column {} ({}) holds another storage class",
                c.name,
                c.ty.sql_name()
            );
        }
        Batch { schema, columns, rows }
    }

    /// The empty relation over `schema` (zero rows).
    pub fn empty(schema: Vec<Column>) -> Batch {
        let columns = schema.iter().map(|c| ColumnVec::empty(c.ty)).collect();
        Batch { schema, columns, rows: 0 }
    }

    /// The *unit* relation: zero columns, one row. This is the FROM-less
    /// scalar source (`SELECT 1 + 1`) — one row to project expressions
    /// over, no columns to read.
    pub fn unit() -> Batch {
        Batch { schema: Vec::new(), columns: Vec::new(), rows: 1 }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Index of a named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.schema.iter().position(|c| c.name == name)
    }

    /// Transpose row-major data into a batch, each column built by
    /// [`ColumnVec::from_cells`]. Panics on a cell that is not of its
    /// column's declared class: rows handed over must respect their
    /// schema (integers may stand in a float column).
    pub fn from_rows(rows: Rows) -> Batch {
        let ncols = rows.columns.len();
        let nrows = rows.data.len();
        let mut cols: Vec<Vec<Cell>> = (0..ncols).map(|_| Vec::with_capacity(nrows)).collect();
        for row in rows.data {
            debug_assert_eq!(row.len(), ncols, "ragged row");
            for (j, cell) in row.into_iter().enumerate() {
                cols[j].push(cell);
            }
        }
        let columns = rows
            .columns
            .iter()
            .zip(cols)
            .map(|(c, cells)| {
                ColumnVec::from_cells(c.ty, cells).unwrap_or_else(|e| {
                    panic!("rows that break their schema: column {}: {e}", c.name)
                })
            })
            .collect();
        Batch { schema: rows.columns, columns, rows: nrows }
    }

    /// Transpose back to row-major data without consuming the batch.
    pub fn to_rows(&self) -> Rows {
        let data = (0..self.rows).map(|i| self.row(i)).collect();
        Rows { columns: self.schema.clone(), data }
    }

    /// Transpose back to row-major data, consuming the batch (moves
    /// text cells instead of cloning them).
    pub fn into_rows(self) -> Rows {
        let rows = self.rows;
        let mut data: Vec<Vec<Cell>> = (0..rows).map(|_| Vec::with_capacity(self.columns.len())).collect();
        for col in self.columns {
            for (i, cell) in col.into_cells().into_iter().enumerate() {
                data[i].push(cell);
            }
        }
        Rows { columns: self.schema, data }
    }

    /// One row, materialized.
    pub fn row(&self, i: usize) -> Vec<Cell> {
        self.columns.iter().map(|c| c.cell_at(i)).collect()
    }

    /// Gather rows by index (indices may repeat or reorder).
    pub fn take(&self, idx: &[usize]) -> Batch {
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.take(idx)).collect(),
            rows: idx.len(),
        }
    }

    /// Canonical key of row `i` (see [`ColumnVec::key_at`]) — the batch
    /// dual of [`crate::key::row_key`].
    pub fn row_key(&self, i: usize) -> Vec<CellKey> {
        self.columns.iter().map(|c| c.key_at(i)).collect()
    }

    /// Concatenate `other`'s rows onto `self`. The left schema wins;
    /// panics on arity mismatch and on a column of another storage
    /// class (callers bring both sides to one schema first).
    pub fn append(&mut self, other: Batch) {
        assert_eq!(self.columns.len(), other.columns.len(), "append arity mismatch");
        self.rows += other.rows;
        for (dst, src) in self.columns.iter_mut().zip(other.columns) {
            dst.append(src);
        }
    }

    /// Structural equality for differential comparison: same column
    /// names, same row count, and every cell equal under the canonical
    /// [`CellKey`] projection (`IS NOT DISTINCT FROM` semantics — NULLs
    /// equal, numerics compared across widths, NaN = NaN). Declared
    /// types are deliberately *not* compared: the row-based oracle and
    /// the columnar path may disagree on widths (`Int4` vs `Int8`)
    /// while producing the same relation.
    pub fn structurally_equal(&self, other: &Batch) -> bool {
        if self.rows != other.rows || self.schema.len() != other.schema.len() {
            return false;
        }
        if self
            .schema
            .iter()
            .zip(&other.schema)
            .any(|(a, b)| a.name != b.name)
        {
            return false;
        }
        for (a, b) in self.columns.iter().zip(&other.columns) {
            for i in 0..self.rows {
                if CellKey::from_cell(&a.cell_at(i)) != CellKey::from_cell(&b.cell_at(i)) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(columns: Vec<Column>, data: Vec<Vec<Cell>>) -> Rows {
        Rows { columns, data }
    }

    #[test]
    fn unit_batch_is_zero_columns_one_row() {
        let b = Batch::unit();
        assert_eq!(b.rows(), 1);
        assert!(b.schema.is_empty());
        let r = b.to_rows();
        assert_eq!(r.data, vec![Vec::<Cell>::new()]);
    }

    #[test]
    fn unit_batch_round_trips_through_rows() {
        let r = rows(vec![], vec![vec![]]);
        let b = Batch::from_rows(r.clone());
        assert_eq!(b.rows(), 1);
        assert_eq!(b.to_rows(), r);
    }

    #[test]
    fn from_rows_picks_typed_vectors() {
        let r = rows(
            vec![Column::new("a", PgType::Int8), Column::new("b", PgType::Text)],
            vec![
                vec![Cell::Int(1), Cell::Text("x".into())],
                vec![Cell::Null, Cell::Text("y".into())],
            ],
        );
        let b = Batch::from_rows(r.clone());
        assert!(matches!(b.columns[0], ColumnVec::Int(..)));
        assert!(matches!(b.columns[1], ColumnVec::Text(..)));
        assert!(b.columns[0].is_null(1));
        assert_eq!(b.to_rows(), r);
        assert_eq!(b.into_rows(), r);
    }

    #[test]
    fn columns_build_into_the_declared_class() {
        // Integers widen into a float column; NULLs stay NULL.
        let cells = vec![Cell::Int(1), Cell::Null, Cell::Float(1.5)];
        let col = ColumnVec::from_cells(PgType::Float8, cells).unwrap();
        assert_eq!(col.to_cells(), vec![Cell::Float(1.0), Cell::Null, Cell::Float(1.5)]);
        // Any other class is refused, naming both types.
        let err = ColumnVec::from_cells(PgType::Int8, vec![Cell::Int(1), Cell::Text("x".into())]);
        assert_eq!(
            err.unwrap_err().to_string(),
            "a varchar value cannot be stored in a bigint column"
        );
        assert!(ColumnVec::from_cells(PgType::Int4, vec![Cell::Float(0.5)]).is_err());
        // A column already of the class is kept; NULL-only ones take any.
        let ints = ColumnVec::from_cells(PgType::Int8, vec![Cell::Int(2)]).unwrap();
        assert_eq!(ints.clone().into_class(PgType::Int4).unwrap(), ints);
        assert_eq!(ints.into_class(PgType::Float8).unwrap().to_cells(), vec![Cell::Float(2.0)]);
        let nulls = ColumnVec::nulls(PgType::Text, 2).into_class(PgType::Date).unwrap();
        assert_eq!(nulls, ColumnVec::nulls(PgType::Date, 2));
    }

    #[test]
    fn empty_and_all_null_columns_type_from_schema() {
        let b = Batch::from_rows(rows(vec![Column::new("d", PgType::Date)], vec![]));
        assert!(matches!(b.columns[0], ColumnVec::Date(..)));
        let b = Batch::from_rows(rows(
            vec![Column::new("f", PgType::Float4)],
            vec![vec![Cell::Null], vec![Cell::Null]],
        ));
        assert!(matches!(b.columns[0], ColumnVec::Float(..)));
        assert_eq!(b.columns[0].null_cells(), 2);
    }

    #[test]
    fn take_gathers_and_keeps_validity() {
        let col = ColumnVec::from_cells(
            PgType::Int8,
            vec![Cell::Int(10), Cell::Null, Cell::Int(30)],
        )
        .unwrap();
        let t = col.take(&[2, 1, 2, 0]);
        assert_eq!(t.to_cells(), vec![Cell::Int(30), Cell::Null, Cell::Int(30), Cell::Int(10)]);
    }

    #[test]
    fn take_opt_pads_nulls() {
        let col = ColumnVec::from_cells(PgType::Text, vec![Cell::Text("a".into())]).unwrap();
        let t = col.take_opt(&[Some(0), None]);
        assert_eq!(t.to_cells(), vec![Cell::Text("a".into()), Cell::Null]);
    }

    #[test]
    fn append_concatenates_one_class() {
        let ints = |cells| ColumnVec::from_cells(PgType::Int8, cells).unwrap();
        let mut col = ints(vec![Cell::Int(1)]);
        col.append(ints(vec![Cell::Int(2), Cell::Null]));
        assert_eq!(col.to_cells(), vec![Cell::Int(1), Cell::Int(2), Cell::Null]);
    }

    #[test]
    #[should_panic(expected = "append of a Float column onto a Int column")]
    fn append_of_another_class_is_an_invariant_panic() {
        let mut col = ColumnVec::from_cells(PgType::Int8, vec![Cell::Int(1)]).unwrap();
        col.append(ColumnVec::from_cells(PgType::Float8, vec![Cell::Float(0.5)]).unwrap());
    }

    #[test]
    fn structural_equality_tolerates_width_not_names() {
        let a = Batch::from_rows(rows(
            vec![Column::new("v", PgType::Int8)],
            vec![vec![Cell::Int(1)]],
        ));
        let b = Batch::from_rows(rows(
            vec![Column::new("v", PgType::Float8)],
            vec![vec![Cell::Float(1.0)]],
        ));
        assert!(a.structurally_equal(&b), "Int(1) and Float(1.0) are one equivalence class");
        let c = Batch::from_rows(rows(
            vec![Column::new("w", PgType::Int8)],
            vec![vec![Cell::Int(1)]],
        ));
        assert!(!a.structurally_equal(&c), "names must match");
    }

    #[test]
    fn validity_bitmap_crosses_word_boundaries() {
        let mut v = Validity::all_valid(130);
        v.set_null(0);
        v.set_null(64);
        v.set_null(129);
        assert!(v.is_null(0) && v.is_null(64) && v.is_null(129));
        assert!(!v.is_null(63) && !v.is_null(65));
        assert_eq!(v.null_count(), 3);
        let t = v.take(&[129, 65, 0]);
        assert!(t.is_null(0) && !t.is_null(1) && t.is_null(2));
    }

    #[test]
    fn broadcast_builds_constant_columns() {
        let c = ColumnVec::broadcast(PgType::Int8, &Cell::Int(7), 3).unwrap();
        assert_eq!(c.to_cells(), vec![Cell::Int(7); 3]);
        let n = ColumnVec::broadcast(PgType::Date, &Cell::Null, 2).unwrap();
        assert_eq!(n, ColumnVec::nulls(PgType::Date, 2));
        let f = ColumnVec::broadcast(PgType::Float8, &Cell::Int(7), 1).unwrap();
        assert_eq!(f.to_cells(), vec![Cell::Float(7.0)]);
        assert!(ColumnVec::broadcast(PgType::Int8, &Cell::Float(0.5), 0).unwrap().is_empty());
    }
}
