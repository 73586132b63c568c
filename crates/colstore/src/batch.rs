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
//! vector and must never be read as values. Columns whose cells mix
//! storage classes at runtime (the executor is dynamically typed, so
//! `CASE WHEN b THEN 1 ELSE 1.5 END` yields `Int` and `Float` cells in
//! one column) fall back to the [`ColumnVec::Cells`] escape hatch so
//! that `from_rows` → `to_rows` is exactly lossless.

use crate::key::CellKey;
use crate::types::{Cell, Column, PgType, Rows};

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

/// Storage class of one runtime cell — the typed-vector variant it
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Bool,
    Int,
    Float,
    Text,
    Date,
    Time,
    Timestamp,
}

impl Kind {
    fn of(cell: &Cell) -> Option<Kind> {
        Some(match cell {
            Cell::Null => return None,
            Cell::Bool(_) => Kind::Bool,
            Cell::Int(_) => Kind::Int,
            Cell::Float(_) => Kind::Float,
            Cell::Text(_) => Kind::Text,
            Cell::Date(_) => Kind::Date,
            Cell::Time(_) => Kind::Time,
            Cell::Timestamp(_) => Kind::Timestamp,
        })
    }

    /// The storage class a declared SQL type naturally maps to — used
    /// for empty and all-NULL columns, where no runtime cell pins it.
    fn for_type(ty: PgType) -> Kind {
        match ty {
            PgType::Bool => Kind::Bool,
            PgType::Int2 | PgType::Int4 | PgType::Int8 => Kind::Int,
            PgType::Float4 | PgType::Float8 => Kind::Float,
            PgType::Varchar | PgType::Text => Kind::Text,
            PgType::Date => Kind::Date,
            PgType::Time => Kind::Time,
            PgType::Timestamp => Kind::Timestamp,
        }
    }
}

/// One typed column vector with a validity bitmap.
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
    /// Escape hatch: a column whose runtime cells mix storage classes
    /// (the executor is dynamically typed). Kept row-identical so that
    /// batch↔row conversion is exactly lossless.
    Cells(Vec<Cell>),
}

impl ColumnVec {
    /// An empty column of the storage class natural to `ty`.
    pub fn empty(ty: PgType) -> ColumnVec {
        ColumnVec::from_cells(ty, Vec::new())
    }

    /// A column of `n` NULLs.
    pub fn nulls(ty: PgType, n: usize) -> ColumnVec {
        let mut v = Validity::all_valid(n);
        for i in 0..n {
            v.set_null(i);
        }
        match Kind::for_type(ty) {
            Kind::Bool => ColumnVec::Bool(vec![false; n], v),
            Kind::Int => ColumnVec::Int(vec![0; n], v),
            Kind::Float => ColumnVec::Float(vec![0.0; n], v),
            Kind::Text => ColumnVec::Text(vec![String::new(); n], v),
            Kind::Date => ColumnVec::Date(vec![0; n], v),
            Kind::Time => ColumnVec::Time(vec![0; n], v),
            Kind::Timestamp => ColumnVec::Timestamp(vec![0; n], v),
        }
    }

    /// Build from runtime cells. Picks the typed variant when every
    /// non-NULL cell shares one storage class (declared `ty` decides
    /// for empty/all-NULL columns); mixed columns keep the cells as-is.
    pub fn from_cells(ty: PgType, cells: Vec<Cell>) -> ColumnVec {
        let mut kind = None;
        for c in &cells {
            match (kind, Kind::of(c)) {
                (_, None) => {}
                (None, Some(k)) => kind = Some(k),
                (Some(k0), Some(k)) if k0 == k => {}
                _ => return ColumnVec::Cells(cells),
            }
        }
        let kind = kind.unwrap_or_else(|| Kind::for_type(ty));
        let n = cells.len();
        let mut validity = Validity::all_valid(n);
        macro_rules! build {
            ($variant:ident, $placeholder:expr, $pat:pat => $val:expr) => {{
                let mut data = Vec::with_capacity(n);
                for (i, c) in cells.into_iter().enumerate() {
                    match c {
                        $pat => data.push($val),
                        _ => {
                            validity.set_null(i);
                            data.push($placeholder);
                        }
                    }
                }
                ColumnVec::$variant(data, validity)
            }};
        }
        match kind {
            Kind::Bool => build!(Bool, false, Cell::Bool(b) => b),
            Kind::Int => build!(Int, 0, Cell::Int(v) => v),
            Kind::Float => build!(Float, 0.0, Cell::Float(v) => v),
            Kind::Text => build!(Text, String::new(), Cell::Text(s) => s),
            Kind::Date => build!(Date, 0, Cell::Date(d) => d),
            Kind::Time => build!(Time, 0, Cell::Time(t) => t),
            Kind::Timestamp => build!(Timestamp, 0, Cell::Timestamp(t) => t),
        }
    }

    /// `n` copies of one cell.
    pub fn broadcast(cell: &Cell, n: usize) -> ColumnVec {
        match cell {
            Cell::Null => ColumnVec::Cells(vec![Cell::Null; n]),
            Cell::Bool(b) => ColumnVec::Bool(vec![*b; n], Validity::all_valid(n)),
            Cell::Int(v) => ColumnVec::Int(vec![*v; n], Validity::all_valid(n)),
            Cell::Float(v) => ColumnVec::Float(vec![*v; n], Validity::all_valid(n)),
            Cell::Text(s) => ColumnVec::Text(vec![s.clone(); n], Validity::all_valid(n)),
            Cell::Date(d) => ColumnVec::Date(vec![*d; n], Validity::all_valid(n)),
            Cell::Time(t) => ColumnVec::Time(vec![*t; n], Validity::all_valid(n)),
            Cell::Timestamp(t) => ColumnVec::Timestamp(vec![*t; n], Validity::all_valid(n)),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Bool(d, _) => d.len(),
            ColumnVec::Int(d, _) | ColumnVec::Time(d, _) | ColumnVec::Timestamp(d, _) => d.len(),
            ColumnVec::Float(d, _) => d.len(),
            ColumnVec::Text(d, _) => d.len(),
            ColumnVec::Date(d, _) => d.len(),
            ColumnVec::Cells(d) => d.len(),
        }
    }

    /// True when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is slot `i` NULL?
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnVec::Bool(_, v)
            | ColumnVec::Int(_, v)
            | ColumnVec::Float(_, v)
            | ColumnVec::Text(_, v)
            | ColumnVec::Date(_, v)
            | ColumnVec::Time(_, v)
            | ColumnVec::Timestamp(_, v) => v.is_null(i),
            ColumnVec::Cells(d) => d[i].is_null(),
        }
    }

    /// The cell at slot `i` (clones text).
    pub fn cell_at(&self, i: usize) -> Cell {
        match self {
            ColumnVec::Bool(d, v) => {
                if v.is_null(i) {
                    Cell::Null
                } else {
                    Cell::Bool(d[i])
                }
            }
            ColumnVec::Int(d, v) => {
                if v.is_null(i) {
                    Cell::Null
                } else {
                    Cell::Int(d[i])
                }
            }
            ColumnVec::Float(d, v) => {
                if v.is_null(i) {
                    Cell::Null
                } else {
                    Cell::Float(d[i])
                }
            }
            ColumnVec::Text(d, v) => {
                if v.is_null(i) {
                    Cell::Null
                } else {
                    Cell::Text(d[i].clone())
                }
            }
            ColumnVec::Date(d, v) => {
                if v.is_null(i) {
                    Cell::Null
                } else {
                    Cell::Date(d[i])
                }
            }
            ColumnVec::Time(d, v) => {
                if v.is_null(i) {
                    Cell::Null
                } else {
                    Cell::Time(d[i])
                }
            }
            ColumnVec::Timestamp(d, v) => {
                if v.is_null(i) {
                    Cell::Null
                } else {
                    Cell::Timestamp(d[i])
                }
            }
            ColumnVec::Cells(d) => d[i].clone(),
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
            ColumnVec::Cells(d) => ColumnVec::Cells(idx.iter().map(|&i| d[i].clone()).collect()),
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
            ColumnVec::Cells(d) => ColumnVec::Cells(
                idx.iter()
                    .map(|m| m.map_or(Cell::Null, |i| d[i].clone()))
                    .collect(),
            ),
        }
    }

    /// Concatenate `other` onto `self`; storage-class mismatch promotes
    /// to [`ColumnVec::Cells`].
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
            (ColumnVec::Cells(d), other) => d.extend(other.into_cells()),
            (this, other) => {
                let mut cells = std::mem::replace(this, ColumnVec::Cells(Vec::new())).into_cells();
                cells.extend(other.into_cells());
                *this = ColumnVec::Cells(cells);
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
            ColumnVec::Cells(d) => d,
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
            ColumnVec::Cells(d) => CellKey::from_cell(&d[i]),
            other => CellKey::from_cell(&other.cell_at(i)),
        }
    }

    /// Number of NULL slots.
    pub fn null_cells(&self) -> usize {
        match self {
            ColumnVec::Bool(_, v)
            | ColumnVec::Int(_, v)
            | ColumnVec::Float(_, v)
            | ColumnVec::Text(_, v)
            | ColumnVec::Date(_, v)
            | ColumnVec::Time(_, v)
            | ColumnVec::Timestamp(_, v) => v.null_count(),
            ColumnVec::Cells(d) => d.iter().filter(|c| c.is_null()).count(),
        }
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
    pub fn new(schema: Vec<Column>, columns: Vec<ColumnVec>, rows: usize) -> Batch {
        assert_eq!(schema.len(), columns.len(), "schema/column arity mismatch");
        for (c, col) in schema.iter().zip(&columns) {
            assert_eq!(col.len(), rows, "column {} length disagrees with row count", c.name);
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

    /// Transpose row-major data into a batch (lossless: mixed-class
    /// columns keep their cells verbatim).
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
            .map(|(c, cells)| ColumnVec::from_cells(c.ty, cells))
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

    /// Concatenate `other`'s rows onto `self` (set-operation append).
    /// The left schema wins, exactly like the row-major executor, which
    /// extends the left data vector; panics on arity mismatch (checked
    /// by callers before this point).
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
    fn mixed_storage_classes_fall_back_to_cells() {
        let r = rows(
            vec![Column::new("a", PgType::Float8)],
            vec![vec![Cell::Int(1)], vec![Cell::Float(1.5)]],
        );
        let b = Batch::from_rows(r.clone());
        assert!(matches!(b.columns[0], ColumnVec::Cells(..)), "{:?}", b.columns[0]);
        assert_eq!(b.to_rows(), r, "mixed column must round-trip verbatim");
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
        );
        let t = col.take(&[2, 1, 2, 0]);
        assert_eq!(t.to_cells(), vec![Cell::Int(30), Cell::Null, Cell::Int(30), Cell::Int(10)]);
    }

    #[test]
    fn take_opt_pads_nulls() {
        let col = ColumnVec::from_cells(PgType::Text, vec![Cell::Text("a".into())]);
        let t = col.take_opt(&[Some(0), None]);
        assert_eq!(t.to_cells(), vec![Cell::Text("a".into()), Cell::Null]);
    }

    #[test]
    fn append_promotes_on_class_mismatch() {
        let mut col = ColumnVec::from_cells(PgType::Int8, vec![Cell::Int(1)]);
        col.append(ColumnVec::from_cells(PgType::Int8, vec![Cell::Int(2), Cell::Null]));
        assert!(matches!(col, ColumnVec::Int(..)));
        assert_eq!(col.to_cells(), vec![Cell::Int(1), Cell::Int(2), Cell::Null]);
        col.append(ColumnVec::from_cells(PgType::Float8, vec![Cell::Float(0.5)]));
        assert!(matches!(col, ColumnVec::Cells(..)));
        assert_eq!(
            col.to_cells(),
            vec![Cell::Int(1), Cell::Int(2), Cell::Null, Cell::Float(0.5)]
        );
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
        let c = ColumnVec::broadcast(&Cell::Int(7), 3);
        assert_eq!(c.to_cells(), vec![Cell::Int(7); 3]);
        let n = ColumnVec::broadcast(&Cell::Null, 2);
        assert_eq!(n.to_cells(), vec![Cell::Null, Cell::Null]);
    }
}
