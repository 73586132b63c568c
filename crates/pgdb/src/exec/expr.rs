//! Scalar expression evaluation with SQL three-valued logic.
//!
//! This is the semantic counterpoint to the Q engine: `NULL = NULL` is
//! unknown, `NOT unknown` is unknown, and a WHERE clause keeps only rows
//! whose predicate is *definitely* true. Hyper-Q's null-logic
//! transformation exists precisely because of the gap between this module
//! and `qengine::ops`.

use crate::engine::DbError;
use crate::sql::ast::{SqlBinOp, SqlExpr};
use crate::types::{Cell, PgType};
use colstore::Class;

/// A bound column during execution.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundCol {
    /// Source alias (for qualified references).
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: PgType,
}

/// Resolve a column reference to an index in the frame. Inlined: the
/// scalar evaluator resolves every reference of every row it evaluates.
#[inline]
pub fn resolve_column(
    cols: &[BoundCol],
    qualifier: Option<&str>,
    name: &str,
) -> Result<usize, DbError> {
    let mut found = None;
    for (i, c) in cols.iter().enumerate() {
        let name_matches = c.name == name;
        let qual_matches = match qualifier {
            None => true,
            Some(q) => c.qualifier.as_deref() == Some(q),
        };
        if name_matches && qual_matches {
            found = Some(i);
            break; // First match wins; Hyper-Q keeps names unique.
        }
    }
    found.ok_or_else(|| {
        DbError::undefined_column(match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.to_string(),
        })
    })
}

/// Evaluate a scalar expression against one row.
pub fn eval(expr: &SqlExpr, cols: &[BoundCol], row: &[Cell]) -> Result<Cell, DbError> {
    eval_with(expr, cols, &mut |i| Ok(row[i].clone()))
}

/// [`eval`] over a row that is read a column at a time: `read(i)` is
/// the value of bound column `i`, asked for only when the evaluation
/// reaches a reference to it — so a row can stay in column storage, and
/// a column can be a value that is computed (and may fail) on demand.
pub(crate) fn eval_with<F>(expr: &SqlExpr, cols: &[BoundCol], read: &mut F) -> Result<Cell, DbError>
where
    F: FnMut(usize) -> Result<Cell, DbError>,
{
    match expr {
        SqlExpr::Column { qualifier, name } => {
            read(resolve_column(cols, qualifier.as_deref(), name)?)
        }
        SqlExpr::Literal(c) => Ok(c.clone()),
        SqlExpr::Star => Err(DbError::exec("'*' outside count(*)")),
        SqlExpr::Binary { op, lhs, rhs } => {
            // AND/OR need Kleene short-circuit over 3VL.
            if *op == SqlBinOp::And || *op == SqlBinOp::Or {
                let l = eval_with(lhs, cols, read)?;
                let r = eval_with(rhs, cols, read)?;
                return Ok(kleene(*op, &l, &r));
            }
            let l = eval_with(lhs, cols, read)?;
            let r = eval_with(rhs, cols, read)?;
            binary(*op, &l, &r)
        }
        SqlExpr::Not(inner) => {
            let v = eval_with(inner, cols, read)?;
            Ok(match v {
                Cell::Null => Cell::Null,
                Cell::Bool(b) => Cell::Bool(!b),
                other => return Err(DbError::exec(format!("NOT applied to {other:?}"))),
            })
        }
        SqlExpr::Neg(inner) => {
            let v = eval_with(inner, cols, read)?;
            Ok(match v {
                Cell::Null => Cell::Null,
                Cell::Int(i) => Cell::Int(-i),
                Cell::Float(f) => Cell::Float(-f),
                other => return Err(DbError::exec(format!("cannot negate {other:?}"))),
            })
        }
        SqlExpr::Func { name, args, .. } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_with(a, cols, read)?);
            }
            let v = scalar_function(name, &vals)?;
            if is_resolving(name) {
                return Ok(v.into_class(derive_type(expr, cols))?);
            }
            Ok(v)
        }
        SqlExpr::WindowFunc { .. } => {
            Err(DbError::exec("window function evaluated outside window context"))
        }
        SqlExpr::Case { branches, else_result } => {
            let v = eval_case(branches, else_result.as_deref(), cols, read)?;
            Ok(v.into_class(derive_type(expr, cols))?)
        }
        SqlExpr::Cast { expr, ty } => {
            let v = eval_with(expr, cols, read)?;
            cast(&v, *ty)
        }
        SqlExpr::InList { expr, list, negated } => {
            let needle = eval_with(expr, cols, read)?;
            if needle.is_null() {
                return Ok(Cell::Null);
            }
            let mut saw_null = false;
            for item in list {
                let v = eval_with(item, cols, read)?;
                match needle.sql_eq(&v) {
                    Some(true) => return Ok(Cell::Bool(!negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            // SQL: x IN (..no match.., NULL) is unknown.
            Ok(if saw_null { Cell::Null } else { Cell::Bool(*negated) })
        }
        SqlExpr::IsNull { expr, negated } => {
            let v = eval_with(expr, cols, read)?;
            Ok(Cell::Bool(v.is_null() != *negated))
        }
        SqlExpr::InSubquery { .. } => Err(DbError::exec(
            "subquery reached row evaluation unresolved (executor bug)",
        )),
    }
}

/// The value of the CASE branch that applies to one row, before it
/// takes the CASE's type.
pub(crate) fn eval_case<F>(
    branches: &[(SqlExpr, SqlExpr)],
    else_result: Option<&SqlExpr>,
    cols: &[BoundCol],
    read: &mut F,
) -> Result<Cell, DbError>
where
    F: FnMut(usize) -> Result<Cell, DbError>,
{
    for (cond, result) in branches {
        if matches!(eval_with(cond, cols, read)?, Cell::Bool(true)) {
            return eval_with(result, cols, read);
        }
    }
    match else_result {
        Some(e) => eval_with(e, cols, read),
        None => Ok(Cell::Null),
    }
}

/// Functions whose value is one of their arguments: their type is the
/// arguments' resolved by [`resolve_types`], and the value takes it.
pub(crate) fn is_resolving(name: &str) -> bool {
    matches!(name, "coalesce" | "greatest" | "least")
}

/// Kleene three-valued AND/OR.
pub(crate) fn kleene(op: SqlBinOp, l: &Cell, r: &Cell) -> Cell {
    let lb = match l {
        Cell::Bool(b) => Some(*b),
        _ => None,
    };
    let rb = match r {
        Cell::Bool(b) => Some(*b),
        _ => None,
    };
    match op {
        SqlBinOp::And => match (lb, rb) {
            (Some(false), _) | (_, Some(false)) => Cell::Bool(false),
            (Some(true), Some(true)) => Cell::Bool(true),
            _ => Cell::Null,
        },
        SqlBinOp::Or => match (lb, rb) {
            (Some(true), _) | (_, Some(true)) => Cell::Bool(true),
            (Some(false), Some(false)) => Cell::Bool(false),
            _ => Cell::Null,
        },
        _ => unreachable!(),
    }
}

/// Evaluate a non-logical binary operator.
pub fn binary(op: SqlBinOp, l: &Cell, r: &Cell) -> Result<Cell, DbError> {
    use SqlBinOp::*;
    match op {
        IsNotDistinctFrom => return Ok(Cell::Bool(l.not_distinct(r))),
        IsDistinctFrom => return Ok(Cell::Bool(!l.not_distinct(r))),
        _ => {}
    }
    if l.is_null() || r.is_null() {
        return Ok(Cell::Null);
    }
    match op {
        Eq => Ok(Cell::Bool(l.sql_eq(r).unwrap_or(false))),
        Neq => Ok(Cell::Bool(!l.sql_eq(r).unwrap_or(true))),
        Lt | Le | Gt | Ge => {
            let ord = l
                .sql_cmp(r)
                .ok_or_else(|| DbError::exec(format!("cannot compare {l:?} and {r:?}")))?;
            let b = match op {
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Cell::Bool(b))
        }
        Concat => {
            let ls = l.to_wire_text().unwrap_or_default();
            let rs = r.to_wire_text().unwrap_or_default();
            Ok(Cell::Text(format!("{ls}{rs}")))
        }
        Like => {
            let text = match l {
                Cell::Text(s) => s.clone(),
                other => other.to_wire_text().unwrap_or_default(),
            };
            let pattern = match r {
                Cell::Text(s) => s.clone(),
                other => return Err(DbError::exec(format!("LIKE pattern must be text, got {other:?}"))),
            };
            Ok(Cell::Bool(like_match(&pattern, &text)))
        }
        Add | Sub | Mul | Div | Mod => arith(op, l, r),
        And | Or => Ok(kleene(op, l, r)),
        IsNotDistinctFrom | IsDistinctFrom => unreachable!(),
    }
}

fn arith(op: SqlBinOp, l: &Cell, r: &Cell) -> Result<Cell, DbError> {
    use SqlBinOp::*;
    // Temporal arithmetic: date ± int, temporal − temporal.
    match (l, r, op) {
        (Cell::Date(d), Cell::Int(n), Add) => return Ok(Cell::Date(d + *n as i32)),
        (Cell::Int(n), Cell::Date(d), Add) => return Ok(Cell::Date(d + *n as i32)),
        (Cell::Date(d), Cell::Int(n), Sub) => return Ok(Cell::Date(d - *n as i32)),
        (Cell::Date(a), Cell::Date(b), Sub) => return Ok(Cell::Int((a - b) as i64)),
        (Cell::Timestamp(a), Cell::Int(n), Add) => return Ok(Cell::Timestamp(a + n)),
        (Cell::Timestamp(a), Cell::Int(n), Sub) => return Ok(Cell::Timestamp(a - n)),
        (Cell::Timestamp(a), Cell::Timestamp(b), Sub) => return Ok(Cell::Int(a - b)),
        (Cell::Time(a), Cell::Int(n), Add) => return Ok(Cell::Time(a + n)),
        (Cell::Time(a), Cell::Int(n), Sub) => return Ok(Cell::Time(a - n)),
        (Cell::Time(a), Cell::Time(b), Sub) => return Ok(Cell::Int(a - b)),
        _ => {}
    }
    let both_int = matches!(l, Cell::Int(_) | Cell::Bool(_)) && matches!(r, Cell::Int(_) | Cell::Bool(_));
    let (x, y) = match (l.as_f64(), r.as_f64()) {
        (Some(x), Some(y)) => (x, y),
        _ => return Err(DbError::exec(format!("arithmetic on {l:?} and {r:?}"))),
    };
    if both_int && op != Div {
        let (ix, iy) = (x as i64, y as i64);
        return Ok(match op {
            Add => Cell::Int(ix.wrapping_add(iy)),
            Sub => Cell::Int(ix.wrapping_sub(iy)),
            Mul => Cell::Int(ix.wrapping_mul(iy)),
            Mod => {
                if iy == 0 {
                    return Err(DbError::exec("division by zero"));
                }
                Cell::Int(ix % iy)
            }
            _ => unreachable!(),
        });
    }
    Ok(match op {
        Add => Cell::Float(x + y),
        Sub => Cell::Float(x - y),
        Mul => Cell::Float(x * y),
        Div => {
            if y == 0.0 && !both_int {
                Cell::Float(x / y) // IEEE semantics for float division.
            } else if y == 0.0 {
                return Err(DbError::exec("division by zero"));
            } else if both_int {
                // PG integer division truncates; Hyper-Q avoids this by
                // casting, but be correct anyway.
                Cell::Int((x as i64) / (y as i64))
            } else {
                Cell::Float(x / y)
            }
        }
        Mod => Cell::Float(x % y),
        _ => unreachable!(),
    })
}

/// SQL LIKE matching (`%`, `_`, backslash escapes).
pub fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    fn go(p: &[char], t: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => go(&p[1..], t) || (!t.is_empty() && go(p, &t[1..])),
            Some('_') => !t.is_empty() && go(&p[1..], &t[1..]),
            Some('\\') if p.len() > 1 => {
                !t.is_empty() && p[1] == t[0] && go(&p[2..], &t[1..])
            }
            Some(c) => !t.is_empty() && *c == t[0] && go(&p[1..], &t[1..]),
        }
    }
    go(&p, &t)
}

/// Cast a runtime value to a declared type.
pub fn cast(v: &Cell, ty: PgType) -> Result<Cell, DbError> {
    if v.is_null() {
        return Ok(Cell::Null);
    }
    Ok(match (v, ty) {
        (Cell::Int(x), PgType::Int2 | PgType::Int4 | PgType::Int8) => Cell::Int(*x),
        (Cell::Float(x), PgType::Int2 | PgType::Int4 | PgType::Int8) => Cell::Int(*x as i64),
        (Cell::Bool(b), PgType::Int2 | PgType::Int4 | PgType::Int8) => Cell::Int(*b as i64),
        (Cell::Int(x), PgType::Float4 | PgType::Float8) => Cell::Float(*x as f64),
        (Cell::Float(x), PgType::Float4 | PgType::Float8) => Cell::Float(*x),
        (Cell::Text(s), PgType::Int2 | PgType::Int4 | PgType::Int8) => {
            Cell::Int(s.trim().parse().map_err(|_| DbError::exec(format!("bad int cast: {s}")))?)
        }
        (Cell::Text(s), PgType::Float4 | PgType::Float8) => Cell::Float(
            s.trim().parse().map_err(|_| DbError::exec(format!("bad float cast: {s}")))?,
        ),
        (Cell::Text(s), PgType::Varchar | PgType::Text) => Cell::Text(s.clone()),
        (Cell::Text(s), PgType::Date | PgType::Time | PgType::Timestamp) => {
            Cell::from_wire_text(s, ty)
                .ok_or_else(|| DbError::exec(format!("bad temporal cast: {s}")))?
        }
        (Cell::Text(s), PgType::Bool) => Cell::Bool(matches!(s.as_str(), "t" | "true" | "TRUE" | "1")),
        (v, PgType::Varchar | PgType::Text) => {
            Cell::Text(v.to_wire_text().unwrap_or_default())
        }
        (Cell::Bool(b), PgType::Bool) => Cell::Bool(*b),
        (Cell::Int(x), PgType::Bool) => Cell::Bool(*x != 0),
        (Cell::Date(d), PgType::Date) => Cell::Date(*d),
        (Cell::Date(d), PgType::Timestamp) => Cell::Timestamp(*d as i64 * 86_400_000_000),
        (Cell::Time(t), PgType::Time) => Cell::Time(*t),
        (Cell::Timestamp(t), PgType::Timestamp) => Cell::Timestamp(*t),
        (Cell::Timestamp(t), PgType::Date) => {
            Cell::Date(t.div_euclid(86_400_000_000) as i32)
        }
        (Cell::Timestamp(t), PgType::Time) => Cell::Time(t.rem_euclid(86_400_000_000)),
        (v, ty) => return Err(DbError::exec(format!("cannot cast {v:?} to {ty:?}"))),
    })
}

/// Built-in scalar functions, including the Hyper-Q toolbox.
pub fn scalar_function(name: &str, args: &[Cell]) -> Result<Cell, DbError> {
    let num1 = |f: &dyn Fn(f64) -> f64| -> Result<Cell, DbError> {
        match &args[0] {
            Cell::Null => Ok(Cell::Null),
            v => {
                let x = v
                    .as_f64()
                    .ok_or_else(|| DbError::exec(format!("{name}: non-numeric argument")))?;
                Ok(Cell::Float(f(x)))
            }
        }
    };
    match (name, args.len()) {
        ("abs", 1) => match &args[0] {
            Cell::Null => Ok(Cell::Null),
            Cell::Int(x) => Ok(Cell::Int(x.abs())),
            Cell::Float(x) => Ok(Cell::Float(x.abs())),
            other => Err(DbError::exec(format!("abs: bad argument {other:?}"))),
        },
        ("sqrt", 1) => num1(&f64::sqrt),
        ("exp", 1) => num1(&f64::exp),
        ("ln", 1) => num1(&f64::ln),
        ("floor", 1) => match &args[0] {
            Cell::Null => Ok(Cell::Null),
            v => Ok(Cell::Int(v.as_f64().ok_or_else(|| DbError::exec("floor: non-numeric"))?.floor()
                as i64)),
        },
        ("ceil" | "ceiling", 1) => match &args[0] {
            Cell::Null => Ok(Cell::Null),
            v => Ok(Cell::Int(v.as_f64().ok_or_else(|| DbError::exec("ceil: non-numeric"))?.ceil()
                as i64)),
        },
        ("sign", 1) => match &args[0] {
            Cell::Null => Ok(Cell::Null),
            v => {
                let x = v.as_f64().ok_or_else(|| DbError::exec("sign: non-numeric"))?;
                Ok(Cell::Int(if x > 0.0 {
                    1
                } else if x < 0.0 {
                    -1
                } else {
                    0
                }))
            }
        },
        ("round", 1) => num1(&f64::round),
        ("round", 2) => match (&args[0], &args[1]) {
            (Cell::Null, _) => Ok(Cell::Null),
            (v, Cell::Int(places)) => {
                let x = v.as_f64().ok_or_else(|| DbError::exec("round: non-numeric"))?;
                let scale = 10f64.powi(*places as i32);
                Ok(Cell::Float((x * scale).round() / scale))
            }
            _ => Err(DbError::exec("round: bad arguments")),
        },
        ("least", _) => {
            let mut best: Option<Cell> = None;
            for a in args {
                if a.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => a.clone(),
                    Some(b) => {
                        if a.sql_cmp(&b) == Some(std::cmp::Ordering::Less) {
                            a.clone()
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Cell::Null))
        }
        ("greatest", _) => {
            let mut best: Option<Cell> = None;
            for a in args {
                if a.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => a.clone(),
                    Some(b) => {
                        if a.sql_cmp(&b) == Some(std::cmp::Ordering::Greater) {
                            a.clone()
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Cell::Null))
        }
        ("coalesce", _) => {
            for a in args {
                if !a.is_null() {
                    return Ok(a.clone());
                }
            }
            Ok(Cell::Null)
        }
        ("nullif", 2) => {
            if args[0].sql_eq(&args[1]) == Some(true) {
                Ok(Cell::Null)
            } else {
                Ok(args[0].clone())
            }
        }
        ("div", 2) => match (&args[0], &args[1]) {
            (Cell::Null, _) | (_, Cell::Null) => Ok(Cell::Null),
            (a, b) => {
                let (x, y) = (
                    a.as_f64().ok_or_else(|| DbError::exec("div: non-numeric"))?,
                    b.as_f64().ok_or_else(|| DbError::exec("div: non-numeric"))?,
                );
                if y == 0.0 {
                    return Err(DbError::exec("division by zero"));
                }
                Ok(Cell::Int((x / y).floor() as i64))
            }
        },
        ("length" | "char_length", 1) => match &args[0] {
            Cell::Null => Ok(Cell::Null),
            Cell::Text(s) => Ok(Cell::Int(s.chars().count() as i64)),
            other => Err(DbError::exec(format!("length: bad argument {other:?}"))),
        },
        ("upper", 1) => match &args[0] {
            Cell::Null => Ok(Cell::Null),
            Cell::Text(s) => Ok(Cell::Text(s.to_uppercase())),
            other => Err(DbError::exec(format!("upper: bad argument {other:?}"))),
        },
        ("lower", 1) => match &args[0] {
            Cell::Null => Ok(Cell::Null),
            Cell::Text(s) => Ok(Cell::Text(s.to_lowercase())),
            other => Err(DbError::exec(format!("lower: bad argument {other:?}"))),
        },
        _ => Err(DbError::exec(format!("unknown function {name}/{}", args.len()))),
    }
}

/// The one type-resolution rule: the type two values that share an
/// output column resolve to — CASE branches, `coalesce`/`greatest`/
/// `least` arguments, VALUES rows, set-operation blocks. Two types of one
/// storage class resolve to the first; an integer beside a float to
/// `double precision`; any other pair has none.
pub fn common_type(a: PgType, b: PgType) -> Option<PgType> {
    match (a.class(), b.class()) {
        (x, y) if x == y => Some(a),
        (Class::Int, Class::Float) | (Class::Float, Class::Int) => Some(PgType::Float8),
        _ => None,
    }
}

/// [`common_type`] over a sequence, in order. `None` stands for an untyped
/// NULL, which takes the others' type; a pair without a common type keeps
/// the type resolved so far, and a value that does not fit it is an error
/// when a row produces one. Nothing but untyped NULLs: `None`.
pub fn resolve_types(types: impl IntoIterator<Item = Option<PgType>>) -> Option<PgType> {
    types.into_iter().fold(None, |acc, t| match (acc, t) {
        (None, t) | (t, None) => t,
        (Some(a), Some(b)) => Some(common_type(a, b).unwrap_or(a)),
    })
}

/// `e`'s type for [`resolve_types`]: `None` for an untyped NULL literal.
pub(crate) fn typed(e: &SqlExpr, cols: &[BoundCol]) -> Option<PgType> {
    (!matches!(e, SqlExpr::Literal(Cell::Null))).then(|| derive_type(e, cols))
}

/// The type of `lhs op rhs` for an arithmetic operator: the class of the
/// value the scalar kernel computes (`binary`). An untyped NULL operand
/// takes the other side's type.
fn arith_type(op: SqlBinOp, lhs: Option<PgType>, rhs: Option<PgType>) -> PgType {
    use SqlBinOp::{Add, Sub};
    let (l, r) = match (lhs, rhs) {
        (Some(l), Some(r)) => (l, r),
        (one, other) => return one.or(other).unwrap_or(PgType::Text),
    };
    let int = |t: PgType| matches!(t.class(), Class::Int | Class::Bool);
    match (l.class(), r.class(), op) {
        (Class::Date, Class::Int, Add | Sub) => PgType::Date,
        (Class::Int, Class::Date, Add) => PgType::Date,
        (Class::Timestamp, Class::Int, Add | Sub) => PgType::Timestamp,
        (Class::Time, Class::Int, Add | Sub) => PgType::Time,
        (Class::Date, Class::Date, Sub)
        | (Class::Timestamp, Class::Timestamp, Sub)
        | (Class::Time, Class::Time, Sub) => PgType::Int8,
        // Operands no arithmetic accepts: the statement fails on its
        // first row, and the type only names a column it never fills.
        (Class::Text, _, _) => l,
        (_, Class::Text, _) => r,
        _ if int(l) && int(r) => PgType::Int8,
        _ => PgType::Float8,
    }
}

/// The type of an expression's values (RowDescription, CTAS schemas, the
/// class of every column the executor builds). Each value an expression
/// yields is of this type's class, or makes the statement fail.
pub fn derive_type(expr: &SqlExpr, cols: &[BoundCol]) -> PgType {
    let resolved = |exprs: &mut dyn Iterator<Item = &SqlExpr>| {
        resolve_types(exprs.map(|e| typed(e, cols))).unwrap_or(PgType::Text)
    };
    match expr {
        SqlExpr::Column { qualifier, name } => {
            resolve_column(cols, qualifier.as_deref(), name)
                .map(|i| cols[i].ty)
                .unwrap_or(PgType::Text)
        }
        SqlExpr::Literal(c) => c.natural_type(),
        SqlExpr::Binary { op, lhs, rhs } => match op {
            SqlBinOp::Eq
            | SqlBinOp::Neq
            | SqlBinOp::Lt
            | SqlBinOp::Le
            | SqlBinOp::Gt
            | SqlBinOp::Ge
            | SqlBinOp::And
            | SqlBinOp::Or
            | SqlBinOp::IsNotDistinctFrom
            | SqlBinOp::IsDistinctFrom
            | SqlBinOp::Like => PgType::Bool,
            SqlBinOp::Concat => PgType::Text,
            _ => arith_type(*op, typed(lhs, cols), typed(rhs, cols)),
        },
        SqlExpr::Not(_)
        | SqlExpr::IsNull { .. }
        | SqlExpr::InList { .. }
        | SqlExpr::InSubquery { .. } => PgType::Bool,
        SqlExpr::Neg(e) => derive_type(e, cols),
        SqlExpr::Func { name, args, .. } => match name.as_str() {
            "count" => PgType::Int8,
            "avg" | "stddev_samp" | "stddev" | "var_samp" | "variance" | "stddev_pop"
            | "var_pop" | "median" | "sqrt" | "exp" | "ln" | "round" => PgType::Float8,
            "floor" | "ceil" | "ceiling" | "sign" | "div" | "length" | "char_length" => PgType::Int8,
            "upper" | "lower" => PgType::Varchar,
            "bool_and" | "bool_or" => PgType::Bool,
            // `fold_cells`: integers (and booleans) sum to an integer,
            // anything else to a float.
            "sum" => match args.first().map(|a| derive_type(a, cols)) {
                Some(t) if t.class() == Class::Int => t,
                Some(PgType::Bool) => PgType::Int8,
                _ => PgType::Float8,
            },
            name if is_resolving(name) => resolved(&mut args.iter()),
            _ => args.first().map(|a| derive_type(a, cols)).unwrap_or(PgType::Text),
        },
        SqlExpr::WindowFunc { name, args, .. } => match name.as_str() {
            "row_number" | "rank" => PgType::Int8,
            _ => args.first().map(|a| derive_type(a, cols)).unwrap_or(PgType::Int8),
        },
        SqlExpr::Case { branches, else_result } => {
            resolved(&mut branches.iter().map(|(_, r)| r).chain(else_result.as_deref()))
        }
        SqlExpr::Cast { ty, .. } => *ty,
        SqlExpr::Star => PgType::Int8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols() -> Vec<BoundCol> {
        vec![
            BoundCol { qualifier: Some("t".into()), name: "a".into(), ty: PgType::Int8 },
            BoundCol { qualifier: Some("u".into()), name: "b".into(), ty: PgType::Varchar },
        ]
    }

    #[test]
    fn column_resolution() {
        let c = cols();
        assert_eq!(resolve_column(&c, None, "a").unwrap(), 0);
        assert_eq!(resolve_column(&c, Some("u"), "b").unwrap(), 1);
        assert!(resolve_column(&c, Some("t"), "b").is_err());
        assert!(resolve_column(&c, None, "zzz").is_err());
    }

    #[test]
    fn three_valued_where_semantics() {
        // NULL = 1 → NULL (not false).
        let r = binary(SqlBinOp::Eq, &Cell::Null, &Cell::Int(1)).unwrap();
        assert_eq!(r, Cell::Null);
        // NULL IS NOT DISTINCT FROM NULL → TRUE.
        let r = binary(SqlBinOp::IsNotDistinctFrom, &Cell::Null, &Cell::Null).unwrap();
        assert_eq!(r, Cell::Bool(true));
    }

    #[test]
    fn kleene_logic() {
        // FALSE AND NULL = FALSE; TRUE AND NULL = NULL.
        assert_eq!(kleene(SqlBinOp::And, &Cell::Bool(false), &Cell::Null), Cell::Bool(false));
        assert_eq!(kleene(SqlBinOp::And, &Cell::Bool(true), &Cell::Null), Cell::Null);
        // TRUE OR NULL = TRUE; FALSE OR NULL = NULL.
        assert_eq!(kleene(SqlBinOp::Or, &Cell::Bool(true), &Cell::Null), Cell::Bool(true));
        assert_eq!(kleene(SqlBinOp::Or, &Cell::Bool(false), &Cell::Null), Cell::Null);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(binary(SqlBinOp::Add, &Cell::Int(2), &Cell::Int(3)).unwrap(), Cell::Int(5));
        assert_eq!(
            binary(SqlBinOp::Mul, &Cell::Int(2), &Cell::Float(1.5)).unwrap(),
            Cell::Float(3.0)
        );
        assert_eq!(binary(SqlBinOp::Div, &Cell::Int(7), &Cell::Int(2)).unwrap(), Cell::Int(3));
        assert!(binary(SqlBinOp::Div, &Cell::Int(1), &Cell::Int(0)).is_err());
    }

    #[test]
    fn temporal_arithmetic() {
        assert_eq!(
            binary(SqlBinOp::Add, &Cell::Date(100), &Cell::Int(5)).unwrap(),
            Cell::Date(105)
        );
        assert_eq!(
            binary(SqlBinOp::Sub, &Cell::Date(105), &Cell::Date(100)).unwrap(),
            Cell::Int(5)
        );
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("GO%", "GOOG"));
        assert!(like_match("_BM", "IBM"));
        assert!(!like_match("GO%", "IBM"));
        assert!(like_match("50\\%", "50%"));
        assert!(!like_match("50\\%", "50x"));
    }

    #[test]
    fn casts() {
        assert_eq!(cast(&Cell::Text("42".into()), PgType::Int8).unwrap(), Cell::Int(42));
        assert_eq!(cast(&Cell::Float(3.9), PgType::Int8).unwrap(), Cell::Int(3));
        assert_eq!(cast(&Cell::Int(1), PgType::Bool).unwrap(), Cell::Bool(true));
        assert_eq!(cast(&Cell::Null, PgType::Int8).unwrap(), Cell::Null);
        assert_eq!(
            cast(&Cell::Date(6021), PgType::Timestamp).unwrap(),
            Cell::Timestamp(6021 * 86_400_000_000)
        );
        assert!(cast(&Cell::Text("junk".into()), PgType::Int8).is_err());
    }

    #[test]
    fn toolbox_scalar_functions() {
        assert_eq!(
            scalar_function("least", &[Cell::Int(3), Cell::Int(1), Cell::Null]).unwrap(),
            Cell::Int(1)
        );
        assert_eq!(
            scalar_function("greatest", &[Cell::Int(3), Cell::Int(1)]).unwrap(),
            Cell::Int(3)
        );
        assert_eq!(
            scalar_function("coalesce", &[Cell::Null, Cell::Int(9)]).unwrap(),
            Cell::Int(9)
        );
        assert_eq!(
            scalar_function("div", &[Cell::Int(7), Cell::Int(2)]).unwrap(),
            Cell::Int(3)
        );
        assert_eq!(
            scalar_function("length", &[Cell::Text("GOOG".into())]).unwrap(),
            Cell::Int(4)
        );
    }

    #[test]
    fn in_list_semantics() {
        let c = cols();
        let row = vec![Cell::Int(5), Cell::Text("x".into())];
        let e = SqlExpr::InList {
            expr: Box::new(SqlExpr::Column { qualifier: None, name: "a".into() }),
            list: vec![SqlExpr::Literal(Cell::Int(5))],
            negated: false,
        };
        assert_eq!(eval(&e, &c, &row).unwrap(), Cell::Bool(true));
        // No match but a NULL in the list → unknown.
        let e = SqlExpr::InList {
            expr: Box::new(SqlExpr::Column { qualifier: None, name: "a".into() }),
            list: vec![SqlExpr::Literal(Cell::Int(1)), SqlExpr::Literal(Cell::Null)],
            negated: false,
        };
        assert_eq!(eval(&e, &c, &row).unwrap(), Cell::Null);
    }

    #[test]
    fn case_without_else_yields_null() {
        let e = SqlExpr::Case {
            branches: vec![(SqlExpr::Literal(Cell::Bool(false)), SqlExpr::Literal(Cell::Int(1)))],
            else_result: None,
        };
        assert_eq!(eval(&e, &[], &[]).unwrap(), Cell::Null);
    }

    #[test]
    fn type_derivation() {
        let c = cols();
        assert_eq!(
            derive_type(&SqlExpr::Column { qualifier: None, name: "a".into() }, &c),
            PgType::Int8
        );
        assert_eq!(
            derive_type(
                &SqlExpr::Func { name: "count".into(), args: vec![SqlExpr::Star], distinct: false },
                &c
            ),
            PgType::Int8
        );
        assert_eq!(
            derive_type(
                &SqlExpr::Cast {
                    expr: Box::new(SqlExpr::Literal(Cell::Int(1))),
                    ty: PgType::Varchar
                },
                &c
            ),
            PgType::Varchar
        );
    }
}
