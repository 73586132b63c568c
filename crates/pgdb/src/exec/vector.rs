//! The vector evaluator: borrowed, scalar-aware expression evaluation
//! over column storage (DESIGN §10).
//!
//! A value is a [`Val`]: one scalar standing for every row, a column
//! borrowed from the frame together with the rows of it being read, or
//! a column the evaluation produced. Literals and casts of literals stay
//! scalars, column references never copy, and the rows in play are a
//! [`Rows`] — a contiguous range or a selection vector left by an
//! earlier predicate — so a later conjunct reads only the rows an
//! earlier one kept.
//!
//! Typed kernels cover what Hyper-Q's translations are made of:
//! comparisons and `IS [NOT] DISTINCT FROM` column-vs-scalar and
//! column-vs-column, Kleene `AND`/`OR`/`NOT` on masks, `IS [NOT] NULL`,
//! `coalesce(mask, FALSE)`, `+ - *` over Int/Float storage and casts
//! that keep the storage class. Every other node applies the scalar
//! kernels of [`expr`] per element, so values — and which statements
//! fail — stay the row oracle's; `CASE`, `IN (list)` and the
//! error-producing nodes evaluate row by row through [`eval_row`].
//!
//! A column the evaluator builds is of its expression's
//! [`derive_type`]: the per-element path builds into that type's class,
//! and `CASE`, `coalesce`, `greatest` and `least` — whose values come
//! from operands of different types — take it as the scalar evaluator
//! does, integers widening into a float type and any other mismatch an
//! error for the row that produces it.

use super::expr::{self, derive_type, kleene, resolve_column, BoundCol};
use crate::engine::DbError;
use crate::sql::ast::*;
use crate::types::{Cell, PgType};
use colstore::{ColumnVec, Validity};
use std::borrow::Cow;
use std::cell::Cell as Flag;
use std::cmp::Ordering;

/// The rows of a frame an evaluation reads, in output order: logical
/// row `k` of the result is physical row [`Rows::phys`]`(k)` of every
/// borrowed column.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// Every row of the frame, in order: the count is the length of
    /// every column read through it, so a column is used as it is.
    All(usize),
    /// The rows a predicate kept, ascending.
    Sel(&'a [usize]),
}

impl<'a> Rows<'a> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Rows::All(len) => *len,
            Rows::Sel(idx) => idx.len(),
        }
    }

    #[inline]
    pub(crate) fn phys(&self, k: usize) -> usize {
        match self {
            Rows::All(_) => k,
            Rows::Sel(idx) => idx[k],
        }
    }

    /// The physical indices, materialized.
    pub(crate) fn to_vec(self) -> Vec<usize> {
        match self {
            Rows::All(len) => (0..len).collect(),
            Rows::Sel(idx) => idx.to_vec(),
        }
    }
}

/// Everything an expression is evaluated against: the frame's bound
/// columns, their storage, and the rows in play.
#[derive(Clone, Copy)]
pub(crate) struct Ctx<'a> {
    pub(crate) cols: &'a [BoundCol],
    pub(crate) columns: &'a [&'a ColumnVec],
    pub(crate) rows: Rows<'a>,
    /// Columns from index `.0` on are read through `.1` instead of
    /// `rows`, logical row for logical row: a join's right side while
    /// its pairs are evaluated (`rows` then maps the left side's), a
    /// block's window columns, which are computed over its selected
    /// rows and so are read in place.
    pub(crate) pair: Option<(usize, Rows<'a>)>,
}

impl<'a> Ctx<'a> {
    fn with_rows(&self, rows: Rows<'a>) -> Ctx<'a> {
        Ctx { rows, ..*self }
    }

    /// The rows column `idx` is read through.
    #[inline]
    pub(crate) fn rows_of(&self, idx: usize) -> Rows<'a> {
        match self.pair {
            Some((split, right)) if idx >= split => right,
            _ => self.rows,
        }
    }
}

/// The value of an expression over a [`Ctx`].
pub(crate) enum Val<'a> {
    /// The same cell for every row.
    Scalar(Cell),
    /// A frame column, read through a row mapping.
    Col(&'a ColumnVec, Rows<'a>),
    /// A computed column, one slot per logical row.
    Owned(ColumnVec),
}

/// A value in column form: storage plus the row mapping it is read
/// through. Borrowed columns stay borrowed.
pub(crate) struct View<'a> {
    pub(crate) col: Cow<'a, ColumnVec>,
    pub(crate) rows: Rows<'a>,
}

impl View<'_> {
    pub(crate) fn cell_at(&self, k: usize) -> Cell {
        self.col.cell_at(self.rows.phys(k))
    }
}

impl<'a> Val<'a> {
    fn column(&self) -> Option<(&ColumnVec, Rows<'_>)> {
        match self {
            Val::Scalar(_) => None,
            Val::Col(c, rows) => Some((*c, *rows)),
            Val::Owned(c) => Some((c, Rows::All(c.len()))),
        }
    }

    fn cell_at(&self, k: usize) -> Cell {
        match self {
            Val::Scalar(c) => c.clone(),
            Val::Col(c, rows) => c.cell_at(rows.phys(k)),
            Val::Owned(c) => c.cell_at(k),
        }
    }

    /// Column form over `n` rows, of `ty`'s storage class. A column of
    /// that class stays borrowed.
    pub(crate) fn into_view(self, n: usize, ty: PgType) -> Result<View<'a>, DbError> {
        let col = match self {
            Val::Scalar(c) => ColumnVec::broadcast(ty, &c, n)?,
            Val::Col(c, rows) if c.class() == ty.class() => {
                return Ok(View { col: Cow::Borrowed(c), rows });
            }
            // `coalesce` answers with its first argument, of its own class.
            Val::Col(c, Rows::All(_)) => c.clone().into_class(ty)?,
            Val::Col(c, Rows::Sel(idx)) => c.take(idx).into_class(ty)?,
            Val::Owned(c) => c.into_class(ty)?,
        };
        Ok(View { col: Cow::Owned(col), rows: Rows::All(n) })
    }

    /// An owned column of `n` slots, of `ty`'s storage class — the one
    /// copy a projected column pays (a gather when the rows are a
    /// selection).
    pub(crate) fn into_column(self, n: usize, ty: PgType) -> Result<ColumnVec, DbError> {
        let View { col, rows } = self.into_view(n, ty)?;
        Ok(match (col, rows) {
            (Cow::Owned(c), _) => c,
            (Cow::Borrowed(c), Rows::All(len)) => {
                debug_assert_eq!(c.len(), len, "Rows::All reads a column of another length");
                c.clone()
            }
            (Cow::Borrowed(c), Rows::Sel(idx)) => c.take(idx),
        })
    }
}

/// Evaluate `e` into an owned column over the context's rows.
pub(crate) fn eval_column(e: &SqlExpr, ctx: &Ctx<'_>) -> Result<ColumnVec, DbError> {
    eval_val(e, ctx)?.into_column(ctx.rows.len(), derive_type(e, ctx.cols))
}

/// Evaluate `e` over `ctx`.
pub(crate) fn eval_val<'a>(e: &SqlExpr, ctx: &Ctx<'a>) -> Result<Val<'a>, DbError> {
    let n = ctx.rows.len();
    match e {
        SqlExpr::Column { qualifier, name } => {
            match resolve_column(ctx.cols, qualifier.as_deref(), name) {
                Ok(idx) => Ok(Val::Col(ctx.columns[idx], ctx.rows_of(idx))),
                // As in [`fold`]: no row, nobody to raise the error for.
                Err(_) if n == 0 => Ok(Val::Scalar(Cell::Null)),
                Err(e) => Err(e),
            }
        }
        SqlExpr::Literal(c) => Ok(Val::Scalar(c.clone())),
        SqlExpr::Binary { op, lhs, rhs } => {
            let l = eval_val(lhs, ctx)?;
            let r = eval_val(rhs, ctx)?;
            if matches!(op, SqlBinOp::And | SqlBinOp::Or) {
                return Ok(kleene_vals(*op, l, r, n));
            }
            if let (Val::Scalar(a), Val::Scalar(b)) = (&l, &r) {
                return fold(n, expr::binary(*op, a, b));
            }
            let strict = !matches!(op, SqlBinOp::IsNotDistinctFrom | SqlBinOp::IsDistinctFrom);
            if strict && (is_null_scalar(&l) || is_null_scalar(&r)) {
                return Ok(Val::Scalar(Cell::Null));
            }
            let typed = match op {
                SqlBinOp::Eq
                | SqlBinOp::Neq
                | SqlBinOp::Lt
                | SqlBinOp::Le
                | SqlBinOp::Gt
                | SqlBinOp::Ge
                | SqlBinOp::IsNotDistinctFrom
                | SqlBinOp::IsDistinctFrom => compare(*op, &l, &r, n)?,
                SqlBinOp::Add | SqlBinOp::Sub | SqlBinOp::Mul => arith(*op, &l, &r, n),
                _ => None,
            };
            if let Some(col) = typed {
                return Ok(Val::Owned(col));
            }
            per_row(n, derive_type(e, ctx.cols), |k| expr::binary(*op, &l.cell_at(k), &r.cell_at(k)))
        }
        SqlExpr::Not(inner) => {
            let v = eval_val(inner, ctx)?;
            let not = |c: Cell| match c {
                Cell::Null => Ok(Cell::Null),
                Cell::Bool(b) => Ok(Cell::Bool(!b)),
                other => Err(DbError::exec(format!("NOT applied to {other:?}"))),
            };
            match &v {
                Val::Scalar(c) => fold(n, not(c.clone())),
                _ => match v.column() {
                    Some((ColumnVec::Bool(d, valid), rows)) => Ok(Val::Owned(ColumnVec::Bool(
                        Reader { data: &d[..], rows }.map(|b| !b),
                        rows_validity(valid, rows),
                    ))),
                    _ => per_row(n, PgType::Bool, |k| not(v.cell_at(k))),
                },
            }
        }
        SqlExpr::Neg(inner) => {
            let v = eval_val(inner, ctx)?;
            let neg = |c: Cell| match c {
                Cell::Null => Ok(Cell::Null),
                Cell::Int(x) => Ok(Cell::Int(-x)),
                Cell::Float(x) => Ok(Cell::Float(-x)),
                other => Err(DbError::exec(format!("cannot negate {other:?}"))),
            };
            match &v {
                Val::Scalar(c) => fold(n, neg(c.clone())),
                _ => per_row(n, derive_type(e, ctx.cols), |k| neg(v.cell_at(k))),
            }
        }
        SqlExpr::Func { name, args, .. } if !is_aggregate_name(name) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_val(a, ctx)?);
            }
            let ty = derive_type(e, ctx.cols);
            if vals.iter().all(|v| matches!(v, Val::Scalar(_))) {
                let cells: Vec<Cell> = vals.iter().map(|v| v.cell_at(0)).collect();
                let v = expr::scalar_function(name, &cells);
                return fold(n, v.and_then(|c| Ok(c.into_class(ty)?)));
            }
            if name == "coalesce" {
                match coalesce(vals) {
                    Ok(v) => return Ok(Val::Owned(v.into_column(n, ty)?)),
                    Err(back) => vals = back,
                }
            }
            let mut buf: Vec<Cell> = Vec::with_capacity(vals.len());
            per_row(n, ty, |k| {
                buf.clear();
                buf.extend(vals.iter().map(|v| v.cell_at(k)));
                expr::scalar_function(name, &buf)
            })
        }
        SqlExpr::Cast { expr: inner, ty } => {
            let v = eval_val(inner, ctx)?;
            if let Val::Scalar(c) = &v {
                return fold(n, expr::cast(c, *ty));
            }
            // A cast to the class the column already has changes no cell.
            if v.column().is_some_and(|(c, _)| c.class() == ty.class()) {
                return Ok(v);
            }
            per_row(n, *ty, |k| expr::cast(&v.cell_at(k), *ty))
        }
        SqlExpr::IsNull { expr: inner, negated } => {
            let v = eval_val(inner, ctx)?;
            Ok(match v.column() {
                None => Val::Scalar(Cell::Bool(is_null_scalar(&v) != *negated)),
                Some((col, rows)) => Val::Owned(is_null_mask(col, rows, *negated)),
            })
        }
        // CASE and IN (list) are lazy per row; Star/window/subquery
        // nodes and aggregate calls produce the scalar evaluator's own
        // errors. All evaluate row by row.
        SqlExpr::Case { branches, else_result } => per_row(n, derive_type(e, ctx.cols), |k| {
            expr::eval_case(branches, else_result.as_deref(), ctx.cols, &mut reader(ctx, k))
        }),
        other => per_row(n, derive_type(other, ctx.cols), |k| eval_row(other, ctx, k)),
    }
}

/// `e` for logical row `k` alone, through the scalar evaluator: only
/// the columns the evaluation reaches are read, straight from storage.
pub(crate) fn eval_row(e: &SqlExpr, ctx: &Ctx<'_>, k: usize) -> Result<Cell, DbError> {
    expr::eval_with(e, ctx.cols, &mut reader(ctx, k))
}

/// Logical row `k`'s bound columns, as the scalar evaluator reads them.
fn reader<'c>(ctx: &'c Ctx<'_>, k: usize) -> impl FnMut(usize) -> Result<Cell, DbError> + 'c {
    move |c| Ok(ctx.columns[c].cell_at(ctx.rows_of(c).phys(k)))
}

/// A result computed once from scalar operands. An error counts only
/// when there is a row to raise it for, as per-row evaluation would.
fn fold<'a>(n: usize, result: Result<Cell, DbError>) -> Result<Val<'a>, DbError> {
    match result {
        Ok(c) => Ok(Val::Scalar(c)),
        Err(_) if n == 0 => Ok(Val::Scalar(Cell::Null)),
        Err(e) => Err(e),
    }
}

/// The per-element scalar path: `f(k)` for every logical row, collected
/// into a column of `ty`.
fn per_row<'a>(
    n: usize,
    ty: PgType,
    mut f: impl FnMut(usize) -> Result<Cell, DbError>,
) -> Result<Val<'a>, DbError> {
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        out.push(f(k)?);
    }
    Ok(Val::Owned(ColumnVec::from_cells(ty, out)?))
}

fn is_null_scalar(v: &Val<'_>) -> bool {
    matches!(v, Val::Scalar(Cell::Null))
}

/// Typed storage read through a row mapping.
#[derive(Clone, Copy)]
struct Reader<'a, T> {
    data: &'a [T],
    rows: Rows<'a>,
}

impl<'a, T> Reader<'a, T> {
    #[inline]
    fn get(&self, k: usize) -> &'a T {
        &self.data[self.rows.phys(k)]
    }

    /// `f` of every row, one tight loop per row mapping.
    fn map<U>(&self, f: impl Fn(&T) -> U) -> Vec<U> {
        match self.rows {
            Rows::All(len) => self.data[..len].iter().map(f).collect(),
            Rows::Sel(idx) => idx.iter().map(|&i| f(&self.data[i])).collect(),
        }
    }

    /// `f` of every row pair of two readers over the same logical rows.
    fn zip_map<B, U>(&self, other: &Reader<'_, B>, f: impl Fn(&T, &B) -> U) -> Vec<U> {
        match (self.rows, other.rows) {
            (Rows::All(len), Rows::All(_)) => {
                self.data[..len].iter().zip(&other.data[..len]).map(|(a, b)| f(a, b)).collect()
            }
            _ => (0..self.rows.len()).map(|k| f(self.get(k), other.get(k))).collect(),
        }
    }
}

/// Validity of the rows read: `valid` gathered through `rows`.
fn rows_validity(valid: &Validity, rows: Rows<'_>) -> Validity {
    if !valid.any_null() {
        return Validity::all_valid(rows.len());
    }
    match rows {
        Rows::All(len) => {
            debug_assert_eq!(valid.len(), len, "Rows::All reads a bitmap of another length");
            valid.clone()
        }
        Rows::Sel(idx) => valid.take(idx),
    }
}

/// `IS [NOT] NULL` as a mask: straight off the validity bitmap.
fn is_null_mask(col: &ColumnVec, rows: Rows<'_>, negated: bool) -> ColumnVec {
    let n = rows.len();
    let data = if col.validity().any_null() {
        (0..n).map(|k| col.is_null(rows.phys(k)) != negated).collect()
    } else {
        vec![negated; n]
    };
    ColumnVec::Bool(data, Validity::all_valid(n))
}

// ---------------------------------------------------------------------
// Comparisons
// ---------------------------------------------------------------------

/// Element types compared through `f64`, as [`Cell::sql_cmp`] and
/// `eq_not_null` do for every non-text pair.
trait AsF64: Copy {
    fn as_f64(self) -> f64;
}

impl AsF64 for i64 {
    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }
}

impl AsF64 for i32 {
    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }
}

impl AsF64 for f64 {
    #[inline]
    fn as_f64(self) -> f64 {
        self
    }
}

impl AsF64 for bool {
    #[inline]
    fn as_f64(self) -> f64 {
        self as i64 as f64
    }
}

/// Run `$body` with `$d` bound to the typed data slice of a numeric
/// (non-text) column; evaluates to `None` for text.
macro_rules! with_numeric {
    ($col:expr, |$d:ident| $body:expr) => {
        match $col {
            ColumnVec::Int($d, _) | ColumnVec::Time($d, _) | ColumnVec::Timestamp($d, _) => {
                Some($body)
            }
            ColumnVec::Float($d, _) => Some($body),
            ColumnVec::Date($d, _) => Some($body),
            ColumnVec::Bool($d, _) => Some($body),
            ColumnVec::Text(..) => None,
        }
    };
}

/// A non-text column's values as the comparison kernels order them —
/// through `f64` — with `None` in NULL slots. `None` for text.
pub(crate) fn num_keys(col: &ColumnVec) -> Option<Vec<Option<f64>>> {
    let valid = col.validity();
    with_numeric!(col, |d| d
        .iter()
        .enumerate()
        .map(|(i, x)| (!valid.is_null(i)).then_some(x.as_f64()))
        .collect())
}

/// [`num_keys`] for text storage.
pub(crate) fn text_keys(col: &ColumnVec) -> Option<Vec<Option<&str>>> {
    let ColumnVec::Text(d, valid) = col else { return None };
    Some(d.iter().enumerate().map(|(i, s)| (!valid.is_null(i)).then_some(s.as_str())).collect())
}

/// Does `op` hold for a pair that compares as `ord`?
#[inline]
fn ord_holds(op: SqlBinOp, ord: Ordering) -> bool {
    match op {
        SqlBinOp::Lt => ord == Ordering::Less,
        SqlBinOp::Le => ord != Ordering::Greater,
        SqlBinOp::Gt => ord == Ordering::Greater,
        SqlBinOp::Ge => ord != Ordering::Less,
        SqlBinOp::Eq | SqlBinOp::IsNotDistinctFrom => ord == Ordering::Equal,
        _ => ord != Ordering::Equal,
    }
}

fn is_equality(op: SqlBinOp) -> bool {
    matches!(
        op,
        SqlBinOp::Eq | SqlBinOp::Neq | SqlBinOp::IsNotDistinctFrom | SqlBinOp::IsDistinctFrom
    )
}

/// `op` over two non-NULL numerics, the f64-mediated way the scalar
/// kernels do it: equality treats NaN as equal to NaN, ordering has no
/// answer for NaN (`None`, which the scalar path reports as an error).
#[inline]
fn num_holds(op: SqlBinOp, a: f64, b: f64) -> Option<bool> {
    if is_equality(op) {
        let eq = a == b || (a.is_nan() && b.is_nan());
        Some(eq == matches!(op, SqlBinOp::Eq | SqlBinOp::IsNotDistinctFrom))
    } else {
        a.partial_cmp(&b).map(|ord| ord_holds(op, ord))
    }
}

/// Mirror image of a comparison, for swapped operands.
pub(crate) fn flip(op: SqlBinOp) -> SqlBinOp {
    match op {
        SqlBinOp::Lt => SqlBinOp::Gt,
        SqlBinOp::Le => SqlBinOp::Ge,
        SqlBinOp::Gt => SqlBinOp::Lt,
        SqlBinOp::Ge => SqlBinOp::Le,
        other => other,
    }
}

/// Typed comparison of two values, at least one of them a column.
/// `Ok(None)` leaves the pair to the per-element path (text against a
/// number); an error is the scalar kernel's own, raised for the first
/// row it fails on.
fn compare(
    op: SqlBinOp,
    l: &Val<'_>,
    r: &Val<'_>,
    n: usize,
) -> Result<Option<ColumnVec>, DbError> {
    let (values, incomparable, validity) = match (l.column(), r.column()) {
        (Some((lc, lrows)), Some((rc, rrows))) => {
            let Some((values, bad)) = compare_columns(op, lc, lrows, rc, rrows) else {
                return Ok(None);
            };
            let validity =
                rows_validity(lc.validity(), lrows).union(&rows_validity(rc.validity(), rrows));
            (values, bad, validity)
        }
        (Some((col, rows)), None) | (None, Some((col, rows))) => {
            let scalar_left = l.column().is_none();
            let scalar = if scalar_left { l.cell_at(0) } else { r.cell_at(0) };
            if scalar.is_null() {
                // Only IS [NOT] DISTINCT FROM reaches here with a NULL.
                let negated = op == SqlBinOp::IsDistinctFrom;
                return Ok(Some(is_null_mask(col, rows, negated)));
            }
            let col_op = if scalar_left { flip(op) } else { op };
            let Some((values, bad)) = compare_scalar(col_op, col, rows, &scalar) else {
                return Ok(None);
            };
            (values, bad, rows_validity(col.validity(), rows))
        }
        (None, None) => return Ok(None),
    };
    if incomparable {
        // Some slot had no ordering. A NULL slot's placeholder does not
        // count; the first real one reports the scalar kernel's error.
        for k in 0..n {
            if !validity.is_null(k) {
                expr::binary(op, &l.cell_at(k), &r.cell_at(k))?;
            }
        }
    }
    let mut values = values;
    Ok(Some(match op {
        SqlBinOp::IsNotDistinctFrom | SqlBinOp::IsDistinctFrom => {
            // Two-valued: a NULL on one side only is "distinct"; NULL on
            // both sides is not.
            if validity.any_null() {
                let distinct = op == SqlBinOp::IsDistinctFrom;
                for (k, slot) in values.iter_mut().enumerate() {
                    if validity.is_null(k) {
                        let both = l.cell_at(k).is_null() && r.cell_at(k).is_null();
                        *slot = both != distinct;
                    }
                }
            }
            ColumnVec::Bool(values, Validity::all_valid(n))
        }
        _ => ColumnVec::Bool(values, validity),
    }))
}

/// Column against a non-NULL scalar: per-row truth values (NULL slots
/// hold garbage) and whether any pair had no ordering.
fn compare_scalar(
    op: SqlBinOp,
    col: &ColumnVec,
    rows: Rows<'_>,
    scalar: &Cell,
) -> Option<(Vec<bool>, bool)> {
    if let (ColumnVec::Text(d, _), Cell::Text(s)) = (col, scalar) {
        let s = s.as_str();
        return Some((Reader { data: &d[..], rows }.map(|x| ord_holds(op, x.as_str().cmp(s))), false));
    }
    let s = match scalar {
        Cell::Text(_) | Cell::Null => return None,
        other => other.as_f64()?,
    };
    let bad = Flag::new(false);
    let values = with_numeric!(col, |d| Reader { data: &d[..], rows }.map(|x| {
        num_holds(op, x.as_f64(), s).unwrap_or_else(|| {
            bad.set(true);
            false
        })
    }))?;
    Some((values, bad.get()))
}

/// Column against column, same contract as [`compare_scalar`].
fn compare_columns(
    op: SqlBinOp,
    l: &ColumnVec,
    lrows: Rows<'_>,
    r: &ColumnVec,
    rrows: Rows<'_>,
) -> Option<(Vec<bool>, bool)> {
    if let (ColumnVec::Text(a, _), ColumnVec::Text(b, _)) = (l, r) {
        let (a, b) = (Reader { data: &a[..], rows: lrows }, Reader { data: &b[..], rows: rrows });
        return Some((a.zip_map(&b, |x, y| ord_holds(op, x.cmp(y))), false));
    }
    let bad = Flag::new(false);
    let values = with_numeric!(l, |a| with_numeric!(r, |b| {
        let (a, b) = (Reader { data: &a[..], rows: lrows }, Reader { data: &b[..], rows: rrows });
        a.zip_map(&b, |x, y| {
            num_holds(op, x.as_f64(), y.as_f64()).unwrap_or_else(|| {
                bad.set(true);
                false
            })
        })
    }))??;
    Some((values, bad.get()))
}

// ---------------------------------------------------------------------
// Arithmetic kernels
// ---------------------------------------------------------------------

/// One side of a typed `+ - *`.
#[derive(Clone, Copy)]
enum NumSide<'a> {
    Ints(Reader<'a, i64>),
    Floats(Reader<'a, f64>),
    Int(i64),
    Float(f64),
}

fn num_side<'v>(v: &'v Val<'_>) -> Option<(NumSide<'v>, Option<Validity>)> {
    match v {
        Val::Scalar(Cell::Int(x)) => Some((NumSide::Int(*x), None)),
        Val::Scalar(Cell::Float(x)) => Some((NumSide::Float(*x), None)),
        Val::Scalar(_) => None,
        _ => match v.column()? {
            (ColumnVec::Int(d, valid), rows) => {
                Some((NumSide::Ints(Reader { data: &d[..], rows }), Some(rows_validity(valid, rows))))
            }
            (ColumnVec::Float(d, valid), rows) => {
                Some((NumSide::Floats(Reader { data: &d[..], rows }), Some(rows_validity(valid, rows))))
            }
            _ => None,
        },
    }
}

impl NumSide<'_> {
    fn is_int(&self) -> bool {
        matches!(self, NumSide::Ints(_) | NumSide::Int(_))
    }
}

/// `+ - *` over Int/Float storage, value-identical to `expr::arith`:
/// two integers go through f64 and back before the wrapping operation,
/// anything with a float in it is IEEE arithmetic on `as_f64` values.
/// NULL slots compute on their placeholders and stay NULL.
fn arith(op: SqlBinOp, l: &Val<'_>, r: &Val<'_>, n: usize) -> Option<ColumnVec> {
    let ((a, av), (b, bv)) = (num_side(l)?, num_side(r)?);
    let validity = match (av, bv) {
        (Some(x), Some(y)) => x.union(&y),
        (Some(x), None) | (None, Some(x)) => x,
        (None, None) => return None,
    };
    Some(if a.is_int() && b.is_int() {
        let data = match op {
            SqlBinOp::Add => arith_ints(a, b, n, i64::wrapping_add),
            SqlBinOp::Sub => arith_ints(a, b, n, i64::wrapping_sub),
            _ => arith_ints(a, b, n, i64::wrapping_mul),
        };
        ColumnVec::Int(data, validity)
    } else {
        let data = match op {
            SqlBinOp::Add => arith_floats(a, b, n, |x, y| x + y),
            SqlBinOp::Sub => arith_floats(a, b, n, |x, y| x - y),
            _ => arith_floats(a, b, n, |x, y| x * y),
        };
        ColumnVec::Float(data, validity)
    })
}

fn arith_ints(a: NumSide<'_>, b: NumSide<'_>, n: usize, f: impl Fn(i64, i64) -> i64) -> Vec<i64> {
    let f = |x: i64, y: i64| f((x as f64) as i64, (y as f64) as i64);
    match (a, b) {
        (NumSide::Ints(x), NumSide::Ints(y)) => x.zip_map(&y, |p, q| f(*p, *q)),
        (NumSide::Ints(x), NumSide::Int(q)) => x.map(|p| f(*p, q)),
        (NumSide::Int(p), NumSide::Ints(y)) => y.map(|q| f(p, *q)),
        _ => unreachable!("arith_ints takes integer sides, one of them a column ({n} rows)"),
    }
}

fn arith_floats(
    a: NumSide<'_>,
    b: NumSide<'_>,
    n: usize,
    f: impl Fn(f64, f64) -> f64,
) -> Vec<f64> {
    let at = |side: NumSide<'_>, k: usize| match side {
        NumSide::Ints(rd) => *rd.get(k) as f64,
        NumSide::Floats(rd) => *rd.get(k),
        NumSide::Int(x) => x as f64,
        NumSide::Float(x) => x,
    };
    match (a, b) {
        (NumSide::Floats(x), NumSide::Floats(y)) => x.zip_map(&y, |p, q| f(*p, *q)),
        (NumSide::Floats(x), NumSide::Ints(y)) => x.zip_map(&y, |p, q| f(*p, *q as f64)),
        (NumSide::Ints(x), NumSide::Floats(y)) => x.zip_map(&y, |p, q| f(*p as f64, *q)),
        (NumSide::Floats(x), NumSide::Float(q)) => x.map(|p| f(*p, q)),
        (NumSide::Float(p), NumSide::Floats(y)) => y.map(|q| f(p, *q)),
        _ => (0..n).map(|k| f(at(a, k), at(b, k))).collect(),
    }
}

// ---------------------------------------------------------------------
// Mask kernels
// ---------------------------------------------------------------------

/// A three-valued truth source: a constant, or Bool storage.
#[derive(Clone, Copy)]
enum Truth<'a> {
    Const(Option<bool>),
    Col(Reader<'a, bool>, &'a Validity),
}

impl Truth<'_> {
    #[inline]
    fn at(&self, k: usize) -> Option<bool> {
        match self {
            Truth::Const(t) => *t,
            Truth::Col(rd, valid) => (!valid.is_null(rd.rows.phys(k))).then(|| *rd.get(k)),
        }
    }
}

/// Anything that is not a boolean is "unknown" to AND/OR, as in
/// [`kleene`].
fn truth<'v>(v: &'v Val<'_>) -> Option<Truth<'v>> {
    match v {
        Val::Scalar(Cell::Bool(b)) => Some(Truth::Const(Some(*b))),
        Val::Scalar(_) => Some(Truth::Const(None)),
        _ => match v.column()? {
            (ColumnVec::Bool(d, valid), rows) => Some(Truth::Col(Reader { data: &d[..], rows }, valid)),
            _ => None,
        },
    }
}

/// Kleene AND/OR over two evaluated operands.
fn kleene_vals<'a>(op: SqlBinOp, l: Val<'a>, r: Val<'a>, n: usize) -> Val<'a> {
    let and = op == SqlBinOp::And;
    let (Some(a), Some(b)) = (truth(&l), truth(&r)) else {
        let cells = (0..n).map(|k| kleene(op, &l.cell_at(k), &r.cell_at(k))).collect();
        let col = ColumnVec::from_cells(PgType::Bool, cells).expect("Kleene logic yields booleans");
        return Val::Owned(col);
    };
    // A constant decides the result outright or leaves the other mask
    // as it is: FALSE AND x = FALSE, TRUE AND x = x, and dually for OR.
    match (a, b) {
        (Truth::Const(x), Truth::Const(y)) => {
            let cell = |t: Option<bool>| t.map_or(Cell::Null, Cell::Bool);
            return Val::Scalar(kleene(op, &cell(x), &cell(y)));
        }
        (Truth::Const(Some(c)), Truth::Col(..)) | (Truth::Col(..), Truth::Const(Some(c))) => {
            if c != and {
                return Val::Scalar(Cell::Bool(c));
            }
            return if matches!(a, Truth::Const(_)) { r } else { l };
        }
        _ => {}
    }
    let combine = |x: Option<bool>, y: Option<bool>| match (x, y) {
        (Some(p), _) | (_, Some(p)) if p != and => Some(p),
        (Some(_), Some(_)) => Some(and),
        _ => None,
    };
    if let (Truth::Col(x, xv), Truth::Col(y, yv)) = (a, b) {
        if !xv.any_null() && !yv.any_null() {
            let data = x.zip_map(&y, |p, q| if and { *p && *q } else { *p || *q });
            return Val::Owned(ColumnVec::Bool(data, Validity::all_valid(n)));
        }
    }
    let mut data = Vec::with_capacity(n);
    let mut validity = Validity::all_valid(n);
    for k in 0..n {
        match combine(a.at(k), b.at(k)) {
            Some(t) => data.push(t),
            None => {
                data.push(false);
                validity.set_null(k);
            }
        }
    }
    Val::Owned(ColumnVec::Bool(data, validity))
}

/// `coalesce` kernels: a first argument without NULLs is the answer,
/// and a mask followed by a boolean constant is the mask with its
/// unknowns decided (`coalesce(mask, FALSE)`). Other shapes hand the
/// arguments back for the per-element path.
fn coalesce<'a>(mut vals: Vec<Val<'a>>) -> Result<Val<'a>, Vec<Val<'a>>> {
    let Some((col, rows)) = vals.first().and_then(Val::column) else { return Err(vals) };
    let valid = col.validity();
    if !valid.any_null() {
        return Ok(vals.swap_remove(0));
    }
    if let (ColumnVec::Bool(d, _), [_, Val::Scalar(Cell::Bool(dflt))]) = (col, vals.as_slice()) {
        let n = rows.len();
        let data = (0..n)
            .map(|k| {
                let i = rows.phys(k);
                if valid.is_null(i) {
                    *dflt
                } else {
                    d[i]
                }
            })
            .collect();
        return Ok(Val::Owned(ColumnVec::Bool(data, Validity::all_valid(n))));
    }
    Err(vals)
}

// ---------------------------------------------------------------------
// WHERE: selection vectors
// ---------------------------------------------------------------------

/// The rows of a `len`-row frame for which `pred` is definitely TRUE,
/// ascending.
///
/// The predicate's top-level conjuncts run in order. Once a conjunct
/// has narrowed the rows, a later one that cannot fail (see
/// [`infallible`]) reads only the survivors; one that can fail reads
/// every row, so the statement raises exactly when evaluating the
/// whole predicate for every row would.
pub(crate) fn filter(
    pred: &SqlExpr,
    cols: &[BoundCol],
    columns: &[&ColumnVec],
    len: usize,
) -> Result<Vec<usize>, DbError> {
    let full = Ctx { cols, columns, rows: Rows::All(len), pair: None };
    let mut conjuncts = Vec::new();
    flatten_and(pred, &mut conjuncts);
    let mut sel: Option<Vec<usize>> = None;
    for c in conjuncts {
        sel = Some(match sel {
            Some(kept) if infallible(c, &full) => {
                let mask = eval_val(c, &full.with_rows(Rows::Sel(&kept)))?;
                let keep = true_rows(&mask, kept.len());
                keep.into_iter().map(|k| kept[k]).collect()
            }
            kept => {
                let mask = eval_val(c, &full)?;
                let keep = true_rows(&mask, len);
                match kept {
                    None => keep,
                    Some(kept) => {
                        let mut is_true = vec![false; len];
                        for k in keep {
                            is_true[k] = true;
                        }
                        kept.into_iter().filter(|&i| is_true[i]).collect()
                    }
                }
            }
        });
    }
    Ok(sel.unwrap_or_else(|| (0..len).collect()))
}

/// Narrow the candidate join pairs `(lidx[k], ridx[k])` to those every
/// conjunct is definitely TRUE for, each conjunct reading only the
/// pairs the ones before it kept. `columns` is the left side's columns
/// followed, from `split` on, by the right side's. The caller has shown
/// every conjunct [`infallible`]: that is what makes skipping pairs
/// unobservable.
pub(crate) fn filter_pairs(
    conjuncts: &[&SqlExpr],
    cols: &[BoundCol],
    columns: &[&ColumnVec],
    split: usize,
    lidx: &mut Vec<usize>,
    ridx: &mut Vec<usize>,
) -> Result<(), DbError> {
    for c in conjuncts {
        let keep = {
            let pair = Some((split, Rows::Sel(ridx)));
            let mask = eval_val(c, &Ctx { cols, columns, rows: Rows::Sel(lidx), pair })?;
            true_rows(&mask, lidx.len())
        };
        if keep.len() < lidx.len() {
            *lidx = keep.iter().map(|&k| lidx[k]).collect();
            *ridx = keep.iter().map(|&k| ridx[k]).collect();
        }
    }
    Ok(())
}

pub(crate) fn flatten_and<'e>(e: &'e SqlExpr, out: &mut Vec<&'e SqlExpr>) {
    match e {
        SqlExpr::Binary { op: SqlBinOp::And, lhs, rhs } => {
            flatten_and(lhs, out);
            flatten_and(rhs, out);
        }
        other => out.push(other),
    }
}

/// Logical rows at which a predicate value is definitely TRUE.
fn true_rows(mask: &Val<'_>, n: usize) -> Vec<usize> {
    match mask {
        Val::Scalar(Cell::Bool(true)) => (0..n).collect(),
        Val::Scalar(_) => Vec::new(),
        Val::Owned(ColumnVec::Bool(d, v)) if !v.any_null() => {
            d.iter().enumerate().filter_map(|(k, &b)| b.then_some(k)).collect()
        }
        other => (0..n).filter(|&k| matches!(other.cell_at(k), Cell::Bool(true))).collect(),
    }
}

/// Storage class of a comparison operand, as far as it is known without
/// evaluating it.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    /// Always NULL: a strict comparison with it is NULL, never an error.
    Null,
    Text,
    /// Int, Date, Time, Timestamp, Bool: totally ordered through f64.
    Exact,
    /// Float: ordering fails on NaN.
    Float,
}

fn cell_class(c: &Cell) -> Class {
    match c {
        Cell::Null => Class::Null,
        Cell::Text(_) => Class::Text,
        Cell::Float(_) => Class::Float,
        _ => Class::Exact,
    }
}

/// Class of a column reference, literal or cast of a literal; `None`
/// for any other operand shape and anything that does not resolve or
/// fold.
fn operand_class(e: &SqlExpr, ctx: &Ctx<'_>) -> Option<Class> {
    match e {
        SqlExpr::Column { qualifier, name } => {
            let idx = resolve_column(ctx.cols, qualifier.as_deref(), name).ok()?;
            Some(match ctx.columns[idx] {
                ColumnVec::Text(..) => Class::Text,
                ColumnVec::Float(..) => Class::Float,
                _ => Class::Exact,
            })
        }
        SqlExpr::Literal(c) => Some(cell_class(c)),
        SqlExpr::Cast { expr, ty } => match expr.as_ref() {
            SqlExpr::Literal(c) => expr::cast(c, *ty).ok().as_ref().map(cell_class),
            _ => None,
        },
        _ => None,
    }
}

/// Can evaluating `e` raise, for any row? `true` only for the shapes
/// proven not to: comparisons and `IS [NOT] DISTINCT FROM` between
/// columns and literals whose storage classes always compare, `IS
/// NULL`, `coalesce`, and `AND`/`OR`/`NOT` over those. Arithmetic,
/// casts of column values, scalar functions, `CASE` and `IN` can fail
/// on a row the selection would have skipped, so they are not.
pub(crate) fn infallible(e: &SqlExpr, ctx: &Ctx<'_>) -> bool {
    match e {
        SqlExpr::Binary { op: SqlBinOp::And | SqlBinOp::Or, lhs, rhs } => {
            infallible(lhs, ctx) && infallible(rhs, ctx)
        }
        SqlExpr::Binary { op, lhs, rhs } => {
            let (Some(a), Some(b)) = (operand_class(lhs, ctx), operand_class(rhs, ctx)) else {
                return false;
            };
            match op {
                SqlBinOp::Eq
                | SqlBinOp::Neq
                | SqlBinOp::IsNotDistinctFrom
                | SqlBinOp::IsDistinctFrom => true,
                SqlBinOp::Lt | SqlBinOp::Le | SqlBinOp::Gt | SqlBinOp::Ge => {
                    a == Class::Null
                        || b == Class::Null
                        || (a == b && a != Class::Float)
                }
                _ => false,
            }
        }
        SqlExpr::Not(inner) => yields_bool(inner, ctx) && infallible(inner, ctx),
        SqlExpr::IsNull { expr, .. } => {
            operand_class(expr, ctx).is_some() || infallible(expr, ctx)
        }
        SqlExpr::Func { name, args, .. } if name == "coalesce" => {
            args.iter().all(|a| operand_class(a, ctx).is_some() || infallible(a, ctx))
        }
        SqlExpr::Literal(_) => true,
        _ => false,
    }
}

/// Is every value of `e` a boolean or NULL (what `NOT` accepts)?
fn yields_bool(e: &SqlExpr, ctx: &Ctx<'_>) -> bool {
    match e {
        SqlExpr::Binary { op, .. } => matches!(
            op,
            SqlBinOp::And
                | SqlBinOp::Or
                | SqlBinOp::Eq
                | SqlBinOp::Neq
                | SqlBinOp::Lt
                | SqlBinOp::Le
                | SqlBinOp::Gt
                | SqlBinOp::Ge
                | SqlBinOp::IsNotDistinctFrom
                | SqlBinOp::IsDistinctFrom
        ),
        SqlExpr::Not(_) | SqlExpr::IsNull { .. } => true,
        SqlExpr::Literal(c) => matches!(c, Cell::Bool(_) | Cell::Null),
        SqlExpr::Column { qualifier, name } => resolve_column(ctx.cols, qualifier.as_deref(), name)
            .is_ok_and(|i| matches!(ctx.columns[i], ColumnVec::Bool(..))),
        SqlExpr::Func { name, args, .. } if name == "coalesce" => {
            args.iter().all(|a| yields_bool(a, ctx))
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------
// Expression shape
// ---------------------------------------------------------------------

/// Visit every column reference in `e`, window clauses included.
pub(crate) fn visit_columns(e: &SqlExpr, f: &mut impl FnMut(Option<&str>, &str)) {
    match e {
        SqlExpr::Column { qualifier, name } => f(qualifier.as_deref(), name),
        SqlExpr::Literal(_) | SqlExpr::Star => {}
        SqlExpr::Binary { lhs, rhs, .. } => {
            visit_columns(lhs, f);
            visit_columns(rhs, f);
        }
        SqlExpr::Not(x) | SqlExpr::Neg(x) => visit_columns(x, f),
        SqlExpr::Func { args, .. } => args.iter().for_each(|a| visit_columns(a, f)),
        SqlExpr::WindowFunc { args, partition_by, order_by, .. } => {
            args.iter().chain(partition_by).for_each(|a| visit_columns(a, f));
            order_by.iter().for_each(|(a, _)| visit_columns(a, f));
        }
        SqlExpr::Case { branches, else_result } => {
            for (c, r) in branches {
                visit_columns(c, f);
                visit_columns(r, f);
            }
            if let Some(x) = else_result {
                visit_columns(x, f);
            }
        }
        SqlExpr::Cast { expr, .. } | SqlExpr::IsNull { expr, .. } => visit_columns(expr, f),
        SqlExpr::InList { expr, list, .. } => {
            visit_columns(expr, f);
            list.iter().for_each(|x| visit_columns(x, f));
        }
        SqlExpr::InSubquery { expr, .. } => visit_columns(expr, f),
    }
}

/// Frame columns `e` reads, appended to `out` (references that do not
/// resolve are skipped: evaluating them reports the error).
pub(crate) fn referenced_columns(e: &SqlExpr, cols: &[BoundCol], out: &mut Vec<usize>) {
    visit_columns(e, &mut |q, name| {
        if let Ok(i) = resolve_column(cols, q, name) {
            if !out.contains(&i) {
                out.push(i);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Cells of one storage class, edge values included: integers
    /// beyond 2^53 (f64-mediated comparison collapses neighbours),
    /// NaN, ±0.0, the empty string.
    fn cell(kind: usize) -> BoxedStrategy<Cell> {
        let ints = || {
            prop_oneof![
                -3i64..4,
                Just(i64::MAX),
                Just(i64::MIN),
                Just(1 << 53),
                Just((1 << 53) + 1),
                any::<i64>(),
            ]
        };
        match kind {
            0 => ints().prop_map(Cell::Int).boxed(),
            1 => prop_oneof![
                Just(0.0),
                Just(-0.0),
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(1.5),
                (-3i64..4).prop_map(|x| x as f64),
                Just((1u64 << 53) as f64),
            ]
            .prop_map(Cell::Float)
            .boxed(),
            2 => prop_oneof![Just(""), Just("a"), Just("aa"), Just("b"), Just("AAPL")]
                .prop_map(|s| Cell::Text(s.to_string()))
                .boxed(),
            3 => (-3i32..4).prop_map(Cell::Date).boxed(),
            4 => ints().prop_map(Cell::Time).boxed(),
            5 => ints().prop_map(Cell::Timestamp).boxed(),
            _ => any::<bool>().prop_map(Cell::Bool).boxed(),
        }
    }

    /// The declared type of `cell(kind)`'s column.
    fn kind_type(kind: usize) -> PgType {
        [
            PgType::Int8,
            PgType::Float8,
            PgType::Varchar,
            PgType::Date,
            PgType::Time,
            PgType::Timestamp,
            PgType::Bool,
        ][kind]
    }

    /// A column of `n` slots of one storage class, with NULLs, and its
    /// declared type.
    fn column(n: usize) -> BoxedStrategy<(PgType, ColumnVec)> {
        (0usize..7)
            .prop_flat_map(move |kind| {
                prop::collection::vec(prop::option::of(cell(kind)), n..=n)
                    .prop_map(move |cells| (kind_type(kind), cells))
            })
            .prop_map(|(ty, cells)| {
                let cells: Vec<Cell> = cells.into_iter().map(|c| c.unwrap_or(Cell::Null)).collect();
                (ty, ColumnVec::from_cells(ty, cells).unwrap())
            })
            .boxed()
    }

    /// Two columns, a scalar, and the rows to read: the whole frame or a
    /// selection.
    #[derive(Debug)]
    struct Case {
        a: (PgType, ColumnVec),
        b: (PgType, ColumnVec),
        scalar: Cell,
        mode: usize,
        picks: Vec<bool>,
    }

    fn case() -> BoxedStrategy<Case> {
        (0usize..20)
            .prop_flat_map(|n| {
                (
                    column(n),
                    column(n),
                    prop::option::of((0usize..7).prop_flat_map(cell)),
                    0usize..2,
                    prop::collection::vec(any::<bool>(), n..=n),
                )
            })
            .prop_map(|(a, b, scalar, mode, picks)| Case {
                a,
                b,
                scalar: scalar.unwrap_or(Cell::Null),
                mode,
                picks,
            })
            .boxed()
    }

    fn col(name: &str) -> SqlExpr {
        SqlExpr::Column { qualifier: None, name: name.to_string() }
    }

    /// The frame's bound columns: `a` and `b`, of their declared types.
    fn frame_cols(case: &Case) -> Vec<BoundCol> {
        [("a", case.a.0), ("b", case.b.0)]
            .iter()
            .map(|(n, ty)| BoundCol { qualifier: None, name: n.to_string(), ty: *ty })
            .collect()
    }

    fn same(x: &Cell, y: &Cell) -> bool {
        match (x, y) {
            (Cell::Float(p), Cell::Float(q)) => p.to_bits() == q.to_bits(),
            _ => x == y,
        }
    }

    /// `e` through the evaluator against `want` per row through the
    /// scalar kernels, each value taking `e`'s type as a column of it
    /// would ([`Cell::into_class`]): same cells, and an error exactly
    /// when some row has one.
    fn check(
        case: &Case,
        e: &SqlExpr,
        want: impl Fn(&Cell, &Cell) -> Result<Cell, DbError>,
    ) -> Result<(), TestCaseError> {
        let cols = frame_cols(case);
        let (a, b) = (&case.a.1, &case.b.1);
        let columns = [a, b];
        let n = a.len();
        let ty = derive_type(e, &cols);
        let sel: Vec<usize> = (0..n).filter(|&i| case.picks[i]).collect();
        let rows = match case.mode {
            0 => Rows::All(n),
            _ => Rows::Sel(&sel),
        };
        let ctx = Ctx { cols: &cols, columns: &columns, rows, pair: None };
        let expected: Result<Vec<Cell>, DbError> = (0..rows.len())
            .map(|k| Ok(want(&a.cell_at(rows.phys(k)), &b.cell_at(rows.phys(k)))?.into_class(ty)?))
            .collect();
        match (eval_val(e, &ctx), expected) {
            (Ok(got), Ok(expected)) => {
                for (k, want) in expected.iter().enumerate() {
                    let got = got.cell_at(k);
                    prop_assert!(same(&got, want), "{e:?} row {k}: got {got:?}, want {want:?}");
                }
            }
            (Err(_), Err(_)) => {}
            (Ok(_), Err(err)) => prop_assert!(false, "{e:?}: evaluator missed {err:?}"),
            (Err(err), Ok(_)) => prop_assert!(false, "{e:?}: evaluator raised {err:?}"),
        }
        Ok(())
    }

    proptest! {
        /// Every binary kernel — comparisons, IS [NOT] DISTINCT FROM,
        /// arithmetic, Kleene AND/OR — column-vs-column and
        /// column-vs-scalar in both operand orders, element by element
        /// against `expr::binary` / `kleene`.
        #[test]
        fn binary_kernels_match_the_scalar_path(case in case()) {
            use SqlBinOp::*;
            let lit = || SqlExpr::Literal(case.scalar.clone());
            // The scalar kernels' date/time arithmetic is unchecked and
            // overflows on the extreme values generated here.
            let temporal = |c: Cell| matches!(c, Cell::Date(_) | Cell::Time(_) | Cell::Timestamp(_));
            let any_temporal = temporal(case.scalar.clone())
                || [&case.a.1, &case.b.1]
                    .iter()
                    .any(|c| (0..c.len()).any(|i| temporal(c.cell_at(i))));
            for op in [Eq, Neq, Lt, Le, Gt, Ge, IsNotDistinctFrom, IsDistinctFrom, Add, Sub, Mul, And, Or] {
                if any_temporal && matches!(op, Add | Sub | Mul) {
                    continue;
                }
                let bin = |lhs: SqlExpr, rhs: SqlExpr| SqlExpr::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                };
                let s = &case.scalar;
                let want = |a: &Cell, b: &Cell| match op {
                    And | Or => Ok(kleene(op, a, b)),
                    _ => expr::binary(op, a, b),
                };
                check(&case, &bin(col("a"), col("b")), want)?;
                check(&case, &bin(col("a"), lit()), |a, _| want(a, s))?;
                check(&case, &bin(lit(), col("b")), |_, b| want(s, b))?;
            }
        }

        /// NOT, IS [NOT] NULL and coalesce over masks and every other
        /// storage, against the scalar path.
        #[test]
        fn mask_kernels_match_the_scalar_path(case in case()) {
            let eq = |rhs: SqlExpr| SqlExpr::Binary {
                op: SqlBinOp::Eq,
                lhs: Box::new(col("a")),
                rhs: Box::new(rhs),
            };
            let not = |c: Cell| match c {
                Cell::Null => Ok(Cell::Null),
                Cell::Bool(b) => Ok(Cell::Bool(!b)),
                other => Err(DbError::exec(format!("NOT applied to {other:?}"))),
            };
            check(&case, &SqlExpr::Not(Box::new(col("a"))), |a, _| not(a.clone()))?;
            check(&case, &SqlExpr::Not(Box::new(eq(col("b")))), |a, b| {
                not(expr::binary(SqlBinOp::Eq, a, b)?)
            })?;
            for negated in [false, true] {
                let e = SqlExpr::IsNull { expr: Box::new(col("a")), negated };
                check(&case, &e, |a, _| Ok(Cell::Bool(a.is_null() != negated)))?;
            }
            let coalesce = |args: Vec<SqlExpr>| SqlExpr::Func {
                name: "coalesce".into(),
                args,
                distinct: false,
            };
            let s = &case.scalar;
            // The translator's shape: a comparison mask, unknowns decided.
            let mask = coalesce(vec![eq(col("b")), SqlExpr::Literal(s.clone())]);
            check(&case, &mask, |a, b| {
                expr::scalar_function("coalesce", &[expr::binary(SqlBinOp::Eq, a, b)?, s.clone()])
            })?;
            let plain = coalesce(vec![col("a"), col("b"), SqlExpr::Literal(s.clone())]);
            check(&case, &plain, |a, b| {
                expr::scalar_function("coalesce", &[a.clone(), b.clone(), s.clone()])
            })?;
        }

        /// A WHERE of several conjuncts keeps exactly the rows the whole
        /// predicate is TRUE for, and fails exactly when evaluating it
        /// for every row would — narrowing included.
        #[test]
        fn filter_matches_row_by_row_evaluation(case in case()) {
            use SqlBinOp::*;
            let cols = frame_cols(&case);
            let (a, b) = (&case.a.1, &case.b.1);
            let columns = [a, b];
            let n = a.len();
            let bin = |op, lhs: SqlExpr, rhs: SqlExpr| SqlExpr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
            let lit = || SqlExpr::Literal(case.scalar.clone());
            for (first, second) in [(IsDistinctFrom, Lt), (Neq, Ge), (Le, Eq), (IsNotDistinctFrom, Concat)] {
                let pred = bin(
                    And,
                    bin(And, bin(first, col("a"), lit()), bin(second, col("a"), col("b"))),
                    SqlExpr::IsNull { expr: Box::new(col("b")), negated: true },
                );
                let want: Result<Vec<usize>, DbError> = (0..n)
                    .filter_map(|i| {
                        let row = [a.cell_at(i), b.cell_at(i)];
                        match expr::eval(&pred, &cols, &row) {
                            Ok(Cell::Bool(true)) => Some(Ok(i)),
                            Ok(_) => None,
                            Err(e) => Some(Err(e)),
                        }
                    })
                    .collect();
                match (filter(&pred, &cols, &columns, n), want) {
                    (Ok(got), Ok(want)) => prop_assert_eq!(got, want, "{:?}", pred),
                    (Err(_), Err(_)) => {}
                    (got, want) => prop_assert!(false, "{pred:?}: got {got:?}, want {want:?}"),
                }
            }
        }
    }
}
