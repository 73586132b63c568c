//! Query execution: SELECT evaluation over in-memory tables.
//!
//! One executor (DESIGN §10): the columnar batch-at-a-time engine in
//! [`columnar`], built on the vector evaluator in `vector`. The
//! row-major pipeline it replaced lives on in `oracle` as a testing
//! instrument — compiled for tests and debug builds only, where every
//! statement is cross-checked against it. This module holds what both
//! share: the table source, expression-shape helpers, the typing of
//! VALUES lists and set operations, the aggregate folds and the
//! join-shape analysis.
//!
//! A statement executes on the thread that submits it: no operator
//! spawns threads or splits its input (DESIGN §12). Parallelism across
//! a statement is the shards' (DESIGN §14).

pub mod columnar;
pub mod expr;
pub mod key;
#[cfg(any(test, debug_assertions))]
mod oracle;
#[cfg(any(test, debug_assertions))]
pub mod reference;
pub(crate) mod vector;

#[cfg(any(test, debug_assertions))]
pub use oracle::{
    dedup_cells, dedup_rows, except_rows, group_indices, hash_join, intersect_rows, rows_equal,
    run_select_rows, union_rows, Frame,
};

use crate::engine::DbError;
use crate::sql::ast::*;
use crate::types::{Cell, Column, PgType, Rows};
use colstore::{Batch, ColumnVec};
use expr::{derive_type, eval, resolve_types, BoundCol};
use std::borrow::Cow;
use std::sync::Arc;

/// Source of named tables during execution (sessions implement this:
/// temp tables shadow globals shadow catalog virtual tables).
pub trait TableSource {
    /// Fetch a table as a shared columnar batch. Sources with columnar
    /// storage hand out the stored batch itself — a scan is a
    /// reference-count bump, and the executor reads the columns in
    /// place.
    fn get_table_batch(&self, name: &str) -> Option<Arc<Batch>>;

    /// Fetch a table's schema and rows by name: the batch transposed,
    /// for the row oracle. Compiled where the oracle is, so no release
    /// path can transpose a stored table.
    #[cfg(any(test, debug_assertions))]
    fn get_table(&self, name: &str) -> Option<(Vec<Column>, Vec<Vec<Cell>>)> {
        let batch = self.get_table_batch(name)?;
        Some((batch.schema.clone(), batch.to_rows().data))
    }
}

/// Is `pred` proven never to raise, for any row of a frame shaped like
/// `frame`? The executor's one rule (`vector::infallible`, the one WHERE
/// and join conditions are narrowed by). It reads only the columns'
/// storage classes, so a zero-row [`Batch::empty`] of a declared schema
/// answers for every table stored under it. Names resolve unqualified.
pub fn infallible(pred: &SqlExpr, frame: &Batch) -> bool {
    let cols: Vec<BoundCol> = frame
        .schema
        .iter()
        .map(|c| BoundCol { qualifier: None, name: c.name.clone(), ty: c.ty })
        .collect();
    let columns: Vec<&colstore::ColumnVec> = frame.columns.iter().collect();
    let rows = vector::Rows::All(frame.rows());
    vector::infallible(pred, &vector::Ctx { cols: &cols, columns: &columns, rows, pair: None })
}

pub(crate) fn contains_subquery(e: &SqlExpr) -> bool {
    match e {
        SqlExpr::InSubquery { .. } => true,
        SqlExpr::Binary { lhs, rhs, .. } => contains_subquery(lhs) || contains_subquery(rhs),
        SqlExpr::Not(i) | SqlExpr::Neg(i) => contains_subquery(i),
        SqlExpr::Func { args, .. } => args.iter().any(contains_subquery),
        SqlExpr::Case { branches, else_result } => {
            branches.iter().any(|(c, r)| contains_subquery(c) || contains_subquery(r))
                || else_result.as_ref().map(|x| contains_subquery(x)).unwrap_or(false)
        }
        SqlExpr::Cast { expr, .. } => contains_subquery(expr),
        SqlExpr::InList { expr, list, .. } => {
            contains_subquery(expr) || list.iter().any(contains_subquery)
        }
        SqlExpr::IsNull { expr, .. } => contains_subquery(expr),
        _ => false,
    }
}

/// `stmt` with the uncorrelated `IN (SELECT ...)` subqueries of its
/// WHERE replaced by literal lists, each subquery executed once by
/// `run` — the engine the block itself runs on.
pub(crate) fn resolve_where<'s>(
    stmt: &'s SelectStmt,
    run: &dyn Fn(&SelectStmt) -> Result<Rows, DbError>,
) -> Result<Cow<'s, SelectStmt>, DbError> {
    Ok(match &stmt.where_clause {
        Some(p) if contains_subquery(p) => Cow::Owned(SelectStmt {
            where_clause: Some(resolve_subqueries(p, run)?),
            ..stmt.clone()
        }),
        _ => Cow::Borrowed(stmt),
    })
}

fn resolve_subqueries(
    e: &SqlExpr,
    run: &dyn Fn(&SelectStmt) -> Result<Rows, DbError>,
) -> Result<SqlExpr, DbError> {
    Ok(match e {
        SqlExpr::InSubquery { expr, query, negated } => {
            let rows = run(query)?;
            if rows.columns.is_empty() {
                return Err(DbError::exec("IN subquery yields no columns"));
            }
            let list = rows
                .data
                .iter()
                .map(|r| SqlExpr::Literal(r[0].clone()))
                .collect();
            SqlExpr::InList {
                expr: Box::new(resolve_subqueries(expr, run)?),
                list,
                negated: *negated,
            }
        }
        SqlExpr::Binary { op, lhs, rhs } => SqlExpr::Binary {
            op: *op,
            lhs: Box::new(resolve_subqueries(lhs, run)?),
            rhs: Box::new(resolve_subqueries(rhs, run)?),
        },
        SqlExpr::Not(i) => SqlExpr::Not(Box::new(resolve_subqueries(i, run)?)),
        SqlExpr::Neg(i) => SqlExpr::Neg(Box::new(resolve_subqueries(i, run)?)),
        SqlExpr::Func { name, args, distinct } => SqlExpr::Func {
            name: name.clone(),
            args: args.iter().map(|a| resolve_subqueries(a, run)).collect::<Result<_, _>>()?,
            distinct: *distinct,
        },
        SqlExpr::Case { branches, else_result } => SqlExpr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| Ok((resolve_subqueries(c, run)?, resolve_subqueries(r, run)?)))
                .collect::<Result<_, DbError>>()?,
            else_result: match else_result {
                Some(x) => Some(Box::new(resolve_subqueries(x, run)?)),
                None => None,
            },
        },
        SqlExpr::Cast { expr, ty } => {
            SqlExpr::Cast { expr: Box::new(resolve_subqueries(expr, run)?), ty: *ty }
        }
        SqlExpr::InList { expr, list, negated } => SqlExpr::InList {
            expr: Box::new(resolve_subqueries(expr, run)?),
            list: list.iter().map(|a| resolve_subqueries(a, run)).collect::<Result<_, _>>()?,
            negated: *negated,
        },
        SqlExpr::IsNull { expr, negated } => SqlExpr::IsNull {
            expr: Box::new(resolve_subqueries(expr, run)?),
            negated: *negated,
        },
        other => other.clone(),
    })
}

/// The block's select list with `*` expanded over `cols`: an optional
/// alias and the expression, per output column.
pub(crate) fn select_items(stmt: &SelectStmt, cols: &[BoundCol]) -> Vec<(Option<String>, SqlExpr)> {
    let mut items = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => items.extend(cols.iter().map(|c| {
                let column = SqlExpr::Column { qualifier: c.qualifier.clone(), name: c.name.clone() };
                (Some(c.name.clone()), column)
            })),
            SelectItem::Expr { expr, alias } => items.push((alias.clone(), expr.clone())),
        }
    }
    items
}

/// The schema `items` produce when evaluated over `cols`.
pub(crate) fn output_schema(items: &[(Option<String>, SqlExpr)], cols: &[BoundCol]) -> Vec<Column> {
    items
        .iter()
        .enumerate()
        .map(|(i, (alias, e))| {
            let name = alias.clone().unwrap_or_else(|| default_output_name(e, i));
            Column::new(name, derive_type(e, cols))
        })
        .collect()
}

/// A schema's columns as seen through a table alias.
pub(crate) fn bound_cols(schema: &[Column], qualifier: &str) -> Vec<BoundCol> {
    schema
        .iter()
        .map(|c| BoundCol { qualifier: Some(qualifier.to_string()), name: c.name.clone(), ty: c.ty })
        .collect()
}

/// A VALUES list, evaluated: each column of the type its values resolve
/// to ([`resolve_types`], a NULL untyped).
pub(crate) fn values_batch(rows: &[Vec<SqlExpr>], names: &[String]) -> Result<Batch, DbError> {
    let width = rows.first().map_or(names.len(), Vec::len);
    let mut cells: Vec<Vec<Cell>> = vec![Vec::with_capacity(rows.len()); width];
    for r in rows {
        for (j, e) in r.iter().enumerate() {
            cells[j].push(eval(e, &[], &[])?);
        }
    }
    let (mut schema, mut columns) = (Vec::with_capacity(width), Vec::with_capacity(width));
    for (i, cells) in cells.into_iter().enumerate() {
        let types = cells.iter().map(|c| (!c.is_null()).then(|| c.natural_type()));
        let ty = resolve_types(types).unwrap_or(PgType::Text);
        let name = names.get(i).cloned().unwrap_or_else(|| format!("column{}", i + 1));
        schema.push(Column::new(name, ty));
        columns.push(ColumnVec::from_cells(ty, cells)?);
    }
    Ok(Batch::new(schema, columns, rows.len()))
}

/// A set-operation block's output types for [`resolve_types`]: its
/// schema's, `None` for a column it selects as an untyped NULL.
pub(crate) fn block_types(stmt: &SelectStmt, schema: &[Column]) -> Vec<Option<PgType>> {
    let untyped = |i: usize| {
        let null = |item: &SelectItem| {
            matches!(item, SelectItem::Expr { expr: SqlExpr::Literal(Cell::Null), .. })
        };
        stmt.items.iter().all(|item| matches!(item, SelectItem::Expr { .. }))
            && stmt.items.get(i).is_some_and(null)
    };
    schema.iter().enumerate().map(|(i, c)| (!untyped(i)).then_some(c.ty)).collect()
}

/// A set operation's output types, column by column: the two sides'
/// types ([`block_types`], or those resolved so far along a chain)
/// resolved by [`resolve_types`].
pub(crate) fn set_op_types(
    left: &[Option<PgType>],
    right: &[Option<PgType>],
) -> Vec<Option<PgType>> {
    left.iter().zip(right).map(|(l, r)| resolve_types([*l, *r])).collect()
}

fn default_output_name(e: &SqlExpr, i: usize) -> String {
    match e {
        SqlExpr::Column { name, .. } => name.clone(),
        SqlExpr::Func { name, .. } | SqlExpr::WindowFunc { name, .. } => name.clone(),
        _ => format!("column{}", i + 1),
    }
}

/// Fold one group's non-NULL (and, for DISTINCT, deduplicated) argument
/// values into the aggregate's result. Shared with the columnar engine,
/// which gathers the values from column storage.
pub(crate) fn fold_cells(name: &str, values: &[Cell]) -> Result<Cell, DbError> {
    let nums = || -> Vec<f64> { values.iter().filter_map(|c| c.as_f64()).collect() };
    // Sum of squared deviations from the mean, and the value count.
    let deviations = || {
        let ns = nums();
        let mean = ns.iter().sum::<f64>() / ns.len() as f64;
        (ns.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>(), ns.len())
    };
    Ok(match name {
        "count" => Cell::Int(values.len() as i64),
        "sum" => {
            if values.is_empty() {
                Cell::Null
            } else if values.iter().all(|v| matches!(v, Cell::Int(_) | Cell::Bool(_))) {
                Cell::Int(nums().iter().sum::<f64>() as i64)
            } else {
                Cell::Float(nums().iter().sum())
            }
        }
        "avg" => {
            let ns = nums();
            if ns.is_empty() {
                Cell::Null
            } else {
                Cell::Float(ns.iter().sum::<f64>() / ns.len() as f64)
            }
        }
        "min" => fold_extreme(values, false),
        "max" => fold_extreme(values, true),
        // Sample forms divide by n − 1 (NULL below two values); the
        // population forms (Q's `dev`/`var`) by n, from one value up.
        "stddev_samp" | "stddev" | "var_samp" | "variance" | "stddev_pop" | "var_pop" => {
            let (ss, n) = deviations();
            match if name.ends_with("_pop") { n } else { n.saturating_sub(1) } {
                0 => Cell::Null,
                d if name.starts_with("stddev") => Cell::Float((ss / d as f64).sqrt()),
                d => Cell::Float(ss / d as f64),
            }
        }
        "median" => {
            let mut ns = nums();
            if ns.is_empty() {
                Cell::Null
            } else {
                ns.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let n = ns.len();
                Cell::Float(if n % 2 == 1 {
                    ns[n / 2]
                } else {
                    (ns[n / 2 - 1] + ns[n / 2]) / 2.0
                })
            }
        }
        "bool_and" => {
            if values.is_empty() {
                Cell::Null
            } else {
                Cell::Bool(values.iter().all(|v| matches!(v, Cell::Bool(true))))
            }
        }
        "bool_or" => {
            if values.is_empty() {
                Cell::Null
            } else {
                Cell::Bool(values.iter().any(|v| matches!(v, Cell::Bool(true))))
            }
        }
        other => return Err(DbError::exec(format!("unknown aggregate {other}"))),
    })
}

fn fold_extreme(values: &[Cell], want_max: bool) -> Cell {
    let mut best: Option<&Cell> = None;
    for v in values {
        best = Some(match best {
            None => v,
            Some(b) => match v.sql_cmp(b) {
                Some(std::cmp::Ordering::Greater) if want_max => v,
                Some(std::cmp::Ordering::Less) if !want_max => v,
                _ => b,
            },
        });
    }
    best.cloned().unwrap_or(Cell::Null)
}

/// Collect structurally distinct window-function nodes, in the order
/// [`substitute_nodes`] numbers them.
pub(crate) fn collect_windows(e: &SqlExpr, out: &mut Vec<SqlExpr>) {
    match e {
        SqlExpr::WindowFunc { .. }
            if !out.contains(e) => {
                out.push(e.clone());
            }
        SqlExpr::Binary { lhs, rhs, .. } => {
            collect_windows(lhs, out);
            collect_windows(rhs, out);
        }
        SqlExpr::Not(i) | SqlExpr::Neg(i) => collect_windows(i, out),
        SqlExpr::Func { args, .. } => args.iter().for_each(|a| collect_windows(a, out)),
        SqlExpr::Case { branches, else_result } => {
            for (c, r) in branches {
                collect_windows(c, out);
                collect_windows(r, out);
            }
            if let Some(e) = else_result {
                collect_windows(e, out);
            }
        }
        SqlExpr::Cast { expr, .. } => collect_windows(expr, out),
        SqlExpr::InList { expr, list, .. } => {
            collect_windows(expr, out);
            list.iter().for_each(|e| collect_windows(e, out));
        }
        SqlExpr::IsNull { expr, .. } => collect_windows(expr, out),
        _ => {}
    }
}

/// Replace each of `nodes` found in `e` with a reference to its virtual
/// column `<prefix><index>` (window functions, and the columnar
/// engine's per-group aggregate results).
pub(crate) fn substitute_nodes(e: SqlExpr, nodes: &[SqlExpr], prefix: &str) -> SqlExpr {
    if let Some(i) = nodes.iter().position(|w| *w == e) {
        return SqlExpr::Column { qualifier: None, name: format!("{prefix}{i}") };
    }
    let sub = |e: SqlExpr| substitute_nodes(e, nodes, prefix);
    match e {
        SqlExpr::Binary { op, lhs, rhs } => SqlExpr::Binary {
            op,
            lhs: Box::new(sub(*lhs)),
            rhs: Box::new(sub(*rhs)),
        },
        SqlExpr::Not(i) => SqlExpr::Not(Box::new(sub(*i))),
        SqlExpr::Neg(i) => SqlExpr::Neg(Box::new(sub(*i))),
        SqlExpr::Func { name, args, distinct } => SqlExpr::Func {
            name,
            args: args.into_iter().map(sub).collect(),
            distinct,
        },
        SqlExpr::Case { branches, else_result } => SqlExpr::Case {
            branches: branches
                .into_iter()
                .map(|(c, r)| (sub(c), sub(r)))
                .collect(),
            else_result: else_result.map(|e| Box::new(sub(*e))),
        },
        SqlExpr::Cast { expr, ty } => {
            SqlExpr::Cast { expr: Box::new(sub(*expr)), ty }
        }
        SqlExpr::InList { expr, list, negated } => SqlExpr::InList {
            expr: Box::new(sub(*expr)),
            list: list.into_iter().map(sub).collect(),
            negated,
        },
        SqlExpr::IsNull { expr, negated } => {
            SqlExpr::IsNull { expr: Box::new(sub(*expr)), negated }
        }
        other => other,
    }
}

/// One equi-join key pair: left column index, right column index, and
/// whether NULLs match (IS NOT DISTINCT FROM) or not (=).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EquiPair {
    pub left: usize,
    pub right: usize,
    pub nulls_match: bool,
}

/// One end of a join [`Interval`]: the right-side column that bounds
/// the left-side column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Bound {
    /// Right column index.
    pub(crate) col: usize,
    /// `<` rather than `<=`.
    pub(crate) strict: bool,
    /// The conjunct read `x < hi OR hi IS NULL`: a NULL bound is no
    /// bound. Upper bounds only.
    pub(crate) open_on_null: bool,
}

/// `lo <= x [AND x < hi]`: left column `x` falls in the interval the
/// right row's `lo` and `hi` columns span — the shape of an as-of join
/// over `lead()` validity intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Interval {
    /// Left column index.
    pub(crate) x: usize,
    pub(crate) lo: Bound,
    pub(crate) hi: Option<Bound>,
}

/// What a join's `ON` conjunction is made of, by what each part lets an
/// executor do: equalities hash, an interval sorts and binary-searches,
/// the rest is evaluated per candidate pair. Every conjunct lands in
/// exactly one of the three.
///
/// Operands resolve the way the nested loop evaluates the condition —
/// against the left columns, then the right, first match — so a
/// conjunct counts as cross-side only when that evaluation reads one
/// column from each side.
#[derive(Debug, Default)]
pub(crate) struct JoinShape<'e> {
    /// Cross-side column equalities.
    pub(crate) keys: Vec<EquiPair>,
    /// The first lower bound on a left column, with the first upper
    /// bound on the same column.
    pub(crate) interval: Option<Interval>,
    /// Everything else, in conjunct order.
    pub(crate) residual: Vec<&'e SqlExpr>,
}

/// The column a join operand reads — (is on the right side, index in
/// that side) — if it is a bare column reference.
fn join_operand(e: &SqlExpr, l: &[BoundCol], r: &[BoundCol]) -> Option<(bool, usize)> {
    let SqlExpr::Column { qualifier, name } = e else { return None };
    let q = qualifier.as_deref();
    expr::resolve_column(l, q, name)
        .map(|i| (false, i))
        .or_else(|_| expr::resolve_column(r, q, name).map(|i| (true, i)))
        .ok()
}

/// A cross-side comparison `x op c`, left column `x` against right
/// column `c`, whichever way round it was written.
fn cross_comparison(e: &SqlExpr, l: &[BoundCol], r: &[BoundCol]) -> Option<(SqlBinOp, usize, usize)> {
    let SqlExpr::Binary { op, lhs, rhs } = e else { return None };
    match (join_operand(lhs, l, r)?, join_operand(rhs, l, r)?) {
        ((false, x), (true, c)) => Some((*op, x, c)),
        ((true, c), (false, x)) => Some((vector::flip(*op), x, c)),
        _ => None,
    }
}

impl<'e> JoinShape<'e> {
    /// Split `cond` over the two sides' columns.
    pub(crate) fn analyze(cond: &'e SqlExpr, l: &[BoundCol], r: &[BoundCol]) -> JoinShape<'e> {
        enum Part {
            Key(EquiPair),
            Lower(usize, Bound),
            Upper(usize, Bound),
            Other,
        }
        let bound = |col, strict, open_on_null| Bound { col, strict, open_on_null };
        let classify = |c: &SqlExpr| -> Part {
            match cross_comparison(c, l, r) {
                Some((op @ (SqlBinOp::Eq | SqlBinOp::IsNotDistinctFrom), left, right)) => {
                    return Part::Key(EquiPair {
                        left,
                        right,
                        nulls_match: op == SqlBinOp::IsNotDistinctFrom,
                    });
                }
                Some((op @ (SqlBinOp::Ge | SqlBinOp::Gt), x, c)) => {
                    return Part::Lower(x, bound(c, op == SqlBinOp::Gt, false));
                }
                Some((op @ (SqlBinOp::Le | SqlBinOp::Lt), x, c)) => {
                    return Part::Upper(x, bound(c, op == SqlBinOp::Lt, false));
                }
                _ => {}
            }
            // `x < hi OR hi IS NULL`, arms in either order.
            if let SqlExpr::Binary { op: SqlBinOp::Or, lhs, rhs } = c {
                for (cmp, open) in [(lhs, rhs), (rhs, lhs)] {
                    let (
                        Some((op @ (SqlBinOp::Le | SqlBinOp::Lt), x, c)),
                        SqlExpr::IsNull { expr: null_of, negated: false },
                    ) = (cross_comparison(cmp, l, r), open.as_ref())
                    else {
                        continue;
                    };
                    if join_operand(null_of, l, r) == Some((true, c)) {
                        return Part::Upper(x, bound(c, op == SqlBinOp::Lt, true));
                    }
                }
            }
            Part::Other
        };

        let mut conjuncts = Vec::new();
        vector::flatten_and(cond, &mut conjuncts);
        let parts: Vec<Part> = conjuncts.iter().map(|c| classify(c)).collect();
        let lower = parts.iter().enumerate().find_map(|(i, p)| match p {
            Part::Lower(x, lo) => Some((i, *x, *lo)),
            _ => None,
        });
        let upper = lower.and_then(|(_, x, _)| {
            parts.iter().enumerate().find_map(|(i, p)| match p {
                Part::Upper(ux, hi) if *ux == x => Some((i, *hi)),
                _ => None,
            })
        });
        let chosen = [lower.map(|(i, ..)| i), upper.map(|(i, _)| i)];
        let mut shape = JoinShape {
            interval: lower.map(|(_, x, lo)| Interval { x, lo, hi: upper.map(|(_, hi)| hi) }),
            ..JoinShape::default()
        };
        for (i, (part, c)) in parts.iter().zip(conjuncts).enumerate() {
            match part {
                Part::Key(pair) => shape.keys.push(*pair),
                _ if chosen.contains(&Some(i)) => {}
                _ => shape.residual.push(c),
            }
        }
        shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PgType;

    fn frame(name: &str, cols: &[&str], rows: Vec<Vec<Cell>>) -> Frame {
        Frame {
            cols: cols
                .iter()
                .map(|c| BoundCol {
                    qualifier: Some(name.to_string()),
                    name: (*c).to_string(),
                    ty: PgType::Int8,
                })
                .collect(),
            rows,
        }
    }

    fn i(v: i64) -> Cell {
        Cell::Int(v)
    }

    /// Regression: a NULL join key must never match another NULL under
    /// plain `=` (PostgreSQL), only under IS NOT DISTINCT FROM.
    #[test]
    fn null_join_keys_never_match_under_eq() {
        let l = frame("l", &["k", "a"], vec![vec![Cell::Null, i(1)], vec![i(7), i(2)]]);
        let r = frame("r", &["k", "b"], vec![vec![Cell::Null, i(10)], vec![i(7), i(20)]]);
        let pairs = [EquiPair { left: 0, right: 0, nulls_match: false }];

        let mut inner = Vec::new();
        hash_join(&l, &r, &pairs, JoinType::Inner, &mut inner);
        assert_eq!(inner, vec![vec![i(7), i(2), i(7), i(20)]]);

        // LEFT JOIN: the NULL-keyed left row survives with null padding.
        let mut left = Vec::new();
        hash_join(&l, &r, &pairs, JoinType::Left, &mut left);
        assert_eq!(
            left,
            vec![
                vec![Cell::Null, i(1), Cell::Null, Cell::Null],
                vec![i(7), i(2), i(7), i(20)],
            ]
        );
    }

    /// IS NOT DISTINCT FROM joins NULL to NULL.
    #[test]
    fn nulls_match_pairs_join_nulls() {
        let l = frame("l", &["k"], vec![vec![Cell::Null], vec![i(1)]]);
        let r = frame("r", &["k"], vec![vec![Cell::Null], vec![i(2)]]);
        let pairs = [EquiPair { left: 0, right: 0, nulls_match: true }];
        let mut out = Vec::new();
        hash_join(&l, &r, &pairs, JoinType::Inner, &mut out);
        assert_eq!(out, vec![vec![Cell::Null, Cell::Null]]);
    }

    /// Hash join agrees with the retained String-keyed baseline.
    #[test]
    fn hash_join_matches_string_keyed_baseline() {
        let l = frame(
            "l",
            &["k", "a"],
            vec![
                vec![i(1), i(100)],
                vec![Cell::Float(2.0), i(200)],
                vec![Cell::Null, i(300)],
                vec![Cell::Text("x".into()), i(400)],
                vec![i(2), i(500)],
            ],
        );
        let r = frame(
            "r",
            &["k"],
            vec![vec![i(2)], vec![Cell::Text("x".into())], vec![Cell::Null], vec![i(9)]],
        );
        for nulls_match in [false, true] {
            let pairs = [EquiPair { left: 0, right: 0, nulls_match }];
            for kind in [JoinType::Inner, JoinType::Left] {
                let mut fast = Vec::new();
                hash_join(&l, &r, &pairs, kind, &mut fast);
                let mut slow = Vec::new();
                reference::hash_join_string_keyed(&l, &r, &pairs, kind, &mut slow);
                assert_eq!(fast.len(), slow.len());
                for (a, b) in fast.iter().zip(&slow) {
                    assert!(rows_equal(a, b), "{a:?} vs {b:?}");
                }
            }
        }
    }

    /// The columns of `l(k, t, a)` and `r(k, lo, hi, b)`.
    fn sides() -> (Vec<BoundCol>, Vec<BoundCol>) {
        let cols = |q: &str, names: &[&str]| frame(q, names, vec![]).cols;
        (cols("l", &["k", "t", "a"]), cols("r", &["k", "lo", "hi", "b"]))
    }

    fn on_clause(cond: &str) -> SqlExpr {
        let sql = format!("SELECT 1 FROM l JOIN r ON {cond}");
        match crate::sql::parse_statement(&sql) {
            Ok(Stmt::Select(SelectStmt { from: Some(FromItem::Join { on: Some(on), .. }), .. })) => on,
            other => panic!("{sql}: expected a join with ON, got {other:?}"),
        }
    }

    /// `cond` split over `l JOIN r`: keys, interval, residual count.
    fn shape_of(cond: &str) -> (Vec<EquiPair>, Option<Interval>, usize) {
        let (l, r) = sides();
        let on = on_clause(cond);
        let shape = JoinShape::analyze(&on, &l, &r);
        (shape.keys.clone(), shape.interval, shape.residual.len())
    }

    fn bound(col: usize, strict: bool, open_on_null: bool) -> Bound {
        Bound { col, strict, open_on_null }
    }

    /// Equalities become keys whichever way round they are written,
    /// under `=` and `IS NOT DISTINCT FROM`; anything that does not read
    /// one column from each side is residual.
    #[test]
    fn join_shape_keys() {
        let key = |nulls_match| EquiPair { left: 0, right: 0, nulls_match };
        assert_eq!(shape_of("l.k = r.k"), (vec![key(false)], None, 0));
        assert_eq!(shape_of("r.k = l.k"), (vec![key(false)], None, 0));
        assert_eq!(shape_of("r.k IS NOT DISTINCT FROM l.k"), (vec![key(true)], None, 0));
        assert_eq!(
            shape_of("l.k = r.k AND l.a = r.b AND l.a <> r.b"),
            (vec![key(false), EquiPair { left: 2, right: 3, nulls_match: false }], None, 1)
        );
        // Not cross-side, not bare columns, not an equality.
        assert_eq!(shape_of("l.k = l.a"), (vec![], None, 1));
        assert_eq!(shape_of("l.k + 1 = r.k"), (vec![], None, 1));
        assert_eq!(shape_of("l.k = 1"), (vec![], None, 1));
        assert_eq!(shape_of("l.k = r.k OR l.a = r.b"), (vec![], None, 1));
        // An unqualified name found on the left is the left's column,
        // as the nested loop resolves it: `t = lo` crosses, `k = k`
        // does not.
        assert_eq!(
            shape_of("t = lo"),
            (vec![EquiPair { left: 1, right: 1, nulls_match: false }], None, 0)
        );
        assert_eq!(shape_of("k = k"), (vec![], None, 1));
    }

    /// The as-of shape: a lower bound on a left column, `<` or `<=`,
    /// either operand order, with an optional upper bound on the same
    /// column that may be open on NULL.
    #[test]
    fn join_shape_intervals() {
        let iv = |lo, hi| Some(Interval { x: 1, lo, hi });
        // The translation's Figure 2 condition.
        assert_eq!(
            shape_of("l.k IS NOT DISTINCT FROM r.k AND r.lo <= l.t AND (l.t < r.hi OR r.hi IS NULL)"),
            (
                vec![EquiPair { left: 0, right: 0, nulls_match: true }],
                iv(bound(1, false, false), Some(bound(2, true, true))),
                0
            )
        );
        // Swapped operands, strictness, NULL arm first.
        assert_eq!(
            shape_of("l.t > r.lo AND (r.hi IS NULL OR r.hi >= l.t)"),
            (vec![], iv(bound(1, true, false), Some(bound(2, false, true))), 0)
        );
        // An upper bound without the NULL arm is closed on NULL.
        assert_eq!(
            shape_of("r.lo <= l.t AND l.t <= r.hi"),
            (vec![], iv(bound(1, false, false), Some(bound(2, false, false))), 0)
        );
        // Lower bound alone; upper bound alone is no interval.
        assert_eq!(shape_of("r.lo < l.t"), (vec![], iv(bound(1, true, false), None), 0));
        assert_eq!(shape_of("l.t < r.hi"), (vec![], None, 1));
        // The NULL arm must test the bounding column itself.
        assert_eq!(
            shape_of("r.lo <= l.t AND (l.t < r.hi OR r.b IS NULL)"),
            (vec![], iv(bound(1, false, false), None), 1)
        );
        assert_eq!(
            shape_of("r.lo <= l.t AND (l.t < r.hi OR r.hi IS NOT NULL)"),
            (vec![], iv(bound(1, false, false), None), 1)
        );
        // Two candidate intervals: the first lower bound wins, with the
        // first upper bound on its column; the other pair is residual.
        assert_eq!(
            shape_of("r.lo <= l.t AND r.b <= l.a AND l.a < r.hi AND l.t < r.hi AND l.t <= r.b"),
            (vec![], iv(bound(1, false, false), Some(bound(2, true, false))), 3)
        );
        // Non-column operands are residual.
        assert_eq!(shape_of("r.lo <= l.t + 1"), (vec![], None, 1));
        assert_eq!(shape_of("r.lo <= 5 AND l.t < r.hi"), (vec![], None, 2));
    }

    /// Only a pure conjunction of equalities hash-joins on the row
    /// pipeline.
    #[test]
    fn pure_equi_is_keys_and_nothing_else() {
        let (l, r) = sides();
        let pure = |cond: &str| JoinShape::analyze(&on_clause(cond), &l, &r).pure_equi().is_some();
        assert!(pure("l.k = r.k AND l.a IS NOT DISTINCT FROM r.b"));
        assert!(!pure("l.k = r.k AND r.lo <= l.t"));
        assert!(!pure("l.k = r.k AND l.a < 3"));
        assert!(!pure("l.a < r.b"));
    }

    fn table() -> Vec<Vec<Cell>> {
        vec![
            vec![i(1), Cell::Text("a".into())],
            vec![Cell::Float(1.0), Cell::Text("a".into())],
            vec![i(1), Cell::Text("a".into())],
            vec![Cell::Null, Cell::Null],
            vec![Cell::Null, Cell::Null],
            vec![i(2), Cell::Text("b".into())],
            vec![Cell::Float(f64::NAN), Cell::Null],
            vec![Cell::Float(f64::NAN), Cell::Null],
        ]
    }

    #[test]
    fn hash_dedup_matches_naive() {
        let mut fast = table();
        let mut slow = table();
        dedup_rows(&mut fast);
        reference::dedup_rows_naive(&mut slow);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert!(rows_equal(a, b));
        }
    }

    #[test]
    fn hash_set_ops_match_naive() {
        let right = vec![vec![i(1), Cell::Text("a".into())], vec![Cell::Null, Cell::Null]];

        let mut fast = table();
        let mut slow = table();
        except_rows(&mut fast, &right);
        reference::except_rows_naive(&mut slow, &right);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert!(rows_equal(a, b));
        }

        let mut fast = table();
        let mut slow = table();
        intersect_rows(&mut fast, &right);
        reference::intersect_rows_naive(&mut slow, &right);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert!(rows_equal(a, b));
        }

        let mut fast = table();
        let mut slow = table();
        union_rows(&mut fast, right.clone());
        reference::union_rows_naive(&mut slow, right);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert!(rows_equal(a, b));
        }
    }

    #[test]
    fn hash_grouping_matches_naive() {
        let keys = table();
        let fast = group_indices(keys.clone());
        let slow = reference::group_indices_naive(keys);
        assert_eq!(fast.len(), slow.len());
        for ((ka, ia), (kb, ib)) in fast.iter().zip(&slow) {
            assert!(rows_equal(ka, kb));
            assert_eq!(ia, ib);
        }
    }

    #[test]
    fn hash_distinct_cells_matches_naive() {
        let cells = vec![
            i(1),
            Cell::Float(1.0),
            Cell::Null,
            Cell::Null,
            Cell::Float(f64::NAN),
            Cell::Float(f64::NAN),
            Cell::Text("1".into()),
            i(1),
        ];
        let mut fast = cells.clone();
        let mut slow = cells;
        dedup_cells(&mut fast);
        reference::dedup_cells_naive(&mut slow);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert!(a.not_distinct(b));
        }
    }
}
