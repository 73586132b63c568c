//! Query execution: SELECT evaluation over in-memory tables.
//!
//! Two executors share this module (DESIGN §10): the columnar
//! batch-at-a-time engine in [`columnar`] is the default production
//! path, while the original row-major pipeline ([`run_select_rows`])
//! is retained verbatim as its differential oracle — debug builds
//! cross-check every statement against it.

pub mod columnar;
pub mod expr;
pub mod key;
pub mod parallel;
pub mod reference;
pub mod stream;
pub(crate) mod vector;

use crate::engine::DbError;
use crate::sql::ast::*;
use crate::types::{Cell, Column, PgType, Rows};
use colstore::Batch;
use expr::{derive_type, eval, BoundCol};
use key::{row_key, CellKey};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Source of named tables during execution (sessions implement this:
/// temp tables shadow globals shadow catalog virtual tables).
pub trait TableSource {
    /// Fetch a table's schema and rows by name.
    fn get_table(&self, name: &str) -> Option<(Vec<Column>, Vec<Vec<Cell>>)>;

    /// Fetch a table as a shared columnar batch. Sources with columnar
    /// storage hand out the stored batch itself — a scan is a
    /// reference-count bump, and the executor reads the columns in
    /// place. The default transposes the row form.
    fn get_table_batch(&self, name: &str) -> Option<Arc<Batch>> {
        let (columns, rows) = self.get_table(name)?;
        Some(Arc::new(Batch::from_rows(Rows { columns, data: rows })))
    }

    /// Worker count for morsel-driven operators (DESIGN §12). `1` is
    /// the serial path. The default defers to `HQ_EXEC_THREADS` / the
    /// machine's parallelism; sessions override this with their
    /// configured knob.
    fn exec_threads(&self) -> usize {
        parallel::default_exec_threads()
    }
}

/// An intermediate result during execution.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    /// Bound columns (with source qualifiers).
    pub cols: Vec<BoundCol>,
    /// Row data.
    pub rows: Vec<Vec<Cell>>,
}

/// Execute a SELECT statement (columnar engine; see [`columnar`]).
pub fn run_select(src: &dyn TableSource, stmt: &SelectStmt) -> Result<Rows, DbError> {
    columnar::run_select_batch(src, stmt).map(Batch::into_rows)
}

/// Execute a SELECT statement on the retained row-major pipeline — the
/// differential oracle for the columnar engine. Must not be "improved";
/// behavior changes here must be deliberate semantics changes.
pub fn run_select_rows(src: &dyn TableSource, stmt: &SelectStmt) -> Result<Rows, DbError> {
    let mut out = run_block(src, stmt)?;
    // Chained set operations, left-folded. A single block with no set
    // op short-circuits past all dedup work. Across a chain, `seen`
    // carries the key set of the (distinct) accumulated result so
    // UNION never re-deduplicates rows it already admitted; UNION ALL
    // may reintroduce duplicates, which drops the set.
    let mut cursor = &stmt.set_op;
    let mut seen: Option<HashSet<Vec<CellKey>>> = None;
    while let Some((op, rhs)) = cursor {
        let right = run_block(src, rhs)?;
        if right.columns.len() != out.columns.len() {
            return Err(DbError::exec("set operation column count mismatch"));
        }
        match op {
            SetOp::UnionAll => {
                out.data.extend(right.data);
                seen = None;
            }
            SetOp::Union => {
                let set = match seen.as_mut() {
                    Some(set) => set,
                    None => seen.insert(dedup_keyed(&mut out.data)),
                };
                for row in right.data {
                    if set.insert(row_key(&row)) {
                        out.data.push(row);
                    }
                }
            }
            SetOp::Except => {
                let right_keys: HashSet<Vec<CellKey>> =
                    right.data.iter().map(|r| row_key(r)).collect();
                let mut kept = HashSet::with_capacity(out.data.len());
                out.data.retain(|r| {
                    let k = row_key(r);
                    !right_keys.contains(&k) && kept.insert(k)
                });
                seen = Some(kept);
            }
            SetOp::Intersect => {
                let right_keys: HashSet<Vec<CellKey>> =
                    right.data.iter().map(|r| row_key(r)).collect();
                let mut kept = HashSet::with_capacity(out.data.len());
                out.data.retain(|r| {
                    let k = row_key(r);
                    right_keys.contains(&k) && kept.insert(k)
                });
                seen = Some(kept);
            }
        }
        cursor = &rhs.set_op;
    }
    Ok(out)
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

/// Row equality under `IS NOT DISTINCT FROM` (NULLs equal).
pub fn rows_equal(a: &[Cell], b: &[Cell]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.not_distinct(y))
}

/// Single-pass hash dedup keeping first occurrences; returns the key
/// set of the surviving rows so callers can extend it incrementally.
fn dedup_keyed(rows: &mut Vec<Vec<Cell>>) -> HashSet<Vec<CellKey>> {
    #[cfg(debug_assertions)]
    let naive = (rows.len() <= 64).then(|| {
        let mut copy = rows.clone();
        reference::dedup_rows_naive(&mut copy);
        copy
    });
    let mut seen = HashSet::with_capacity(rows.len());
    rows.retain(|r| seen.insert(row_key(r)));
    #[cfg(debug_assertions)]
    if let Some(naive) = naive {
        debug_assert!(
            rows.len() == naive.len() && rows.iter().zip(&naive).all(|(a, b)| rows_equal(a, b)),
            "hash dedup disagrees with naive dedup: {rows:?} vs {naive:?}"
        );
    }
    seen
}

/// Remove duplicate rows (first occurrence wins), O(n) via [`CellKey`].
pub fn dedup_rows(rows: &mut Vec<Vec<Cell>>) {
    dedup_keyed(rows);
}

/// `EXCEPT`: distinct left rows with no match on the right, O(n + m).
pub fn except_rows(left: &mut Vec<Vec<Cell>>, right: &[Vec<Cell>]) {
    let right_keys: HashSet<Vec<CellKey>> = right.iter().map(|r| row_key(r)).collect();
    let mut kept = HashSet::with_capacity(left.len());
    left.retain(|r| {
        let k = row_key(r);
        !right_keys.contains(&k) && kept.insert(k)
    });
}

/// `INTERSECT`: distinct left rows with a match on the right, O(n + m).
pub fn intersect_rows(left: &mut Vec<Vec<Cell>>, right: &[Vec<Cell>]) {
    let right_keys: HashSet<Vec<CellKey>> = right.iter().map(|r| row_key(r)).collect();
    let mut kept = HashSet::with_capacity(left.len());
    left.retain(|r| {
        let k = row_key(r);
        right_keys.contains(&k) && kept.insert(k)
    });
}

/// `UNION` (distinct): dedup `left` then admit unseen right rows.
pub fn union_rows(left: &mut Vec<Vec<Cell>>, right: Vec<Vec<Cell>>) {
    let mut seen = dedup_keyed(left);
    for row in right {
        if seen.insert(row_key(&row)) {
            left.push(row);
        }
    }
}

/// Group row indices by key cells (first-seen group order), O(n).
pub fn group_indices(keys: Vec<Vec<Cell>>) -> Vec<(Vec<Cell>, Vec<usize>)> {
    let mut groups: Vec<(Vec<Cell>, Vec<usize>)> = Vec::new();
    let mut index: HashMap<Vec<CellKey>, usize> = HashMap::with_capacity(keys.len());
    for (ri, key) in keys.into_iter().enumerate() {
        match index.entry(row_key(&key)) {
            Entry::Occupied(e) => groups[*e.get()].1.push(ri),
            Entry::Vacant(v) => {
                v.insert(groups.len());
                groups.push((key, vec![ri]));
            }
        }
    }
    groups
}

/// Replace uncorrelated `IN (SELECT ...)` subqueries with literal lists
/// by executing each subquery once.
pub(crate) fn resolve_subqueries(e: &SqlExpr, src: &dyn TableSource) -> Result<SqlExpr, DbError> {
    Ok(match e {
        SqlExpr::InSubquery { expr, query, negated } => {
            let rows = run_select(src, query)?;
            if rows.columns.is_empty() {
                return Err(DbError::exec("IN subquery yields no columns"));
            }
            let list = rows
                .data
                .iter()
                .map(|r| SqlExpr::Literal(r[0].clone()))
                .collect();
            SqlExpr::InList {
                expr: Box::new(resolve_subqueries(expr, src)?),
                list,
                negated: *negated,
            }
        }
        SqlExpr::Binary { op, lhs, rhs } => SqlExpr::Binary {
            op: *op,
            lhs: Box::new(resolve_subqueries(lhs, src)?),
            rhs: Box::new(resolve_subqueries(rhs, src)?),
        },
        SqlExpr::Not(i) => SqlExpr::Not(Box::new(resolve_subqueries(i, src)?)),
        SqlExpr::Neg(i) => SqlExpr::Neg(Box::new(resolve_subqueries(i, src)?)),
        SqlExpr::Func { name, args, distinct } => SqlExpr::Func {
            name: name.clone(),
            args: args.iter().map(|a| resolve_subqueries(a, src)).collect::<Result<_, _>>()?,
            distinct: *distinct,
        },
        SqlExpr::Case { branches, else_result } => SqlExpr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| Ok((resolve_subqueries(c, src)?, resolve_subqueries(r, src)?)))
                .collect::<Result<_, DbError>>()?,
            else_result: match else_result {
                Some(x) => Some(Box::new(resolve_subqueries(x, src)?)),
                None => None,
            },
        },
        SqlExpr::Cast { expr, ty } => {
            SqlExpr::Cast { expr: Box::new(resolve_subqueries(expr, src)?), ty: *ty }
        }
        SqlExpr::InList { expr, list, negated } => SqlExpr::InList {
            expr: Box::new(resolve_subqueries(expr, src)?),
            list: list.iter().map(|a| resolve_subqueries(a, src)).collect::<Result<_, _>>()?,
            negated: *negated,
        },
        SqlExpr::IsNull { expr, negated } => SqlExpr::IsNull {
            expr: Box::new(resolve_subqueries(expr, src)?),
            negated: *negated,
        },
        other => other.clone(),
    })
}

/// Execute one SELECT block (no set ops), row-major.
pub(crate) fn run_block(src: &dyn TableSource, stmt: &SelectStmt) -> Result<Rows, DbError> {
    // Uncorrelated subqueries are resolved up front.
    let resolved_where = match &stmt.where_clause {
        Some(p) if contains_subquery(p) => Some(resolve_subqueries(p, src)?),
        _ => None,
    };
    let stmt_storage;
    let stmt = if resolved_where.is_some() {
        stmt_storage = SelectStmt { where_clause: resolved_where, ..stmt.clone() };
        &stmt_storage
    } else {
        stmt
    };

    // FROM.
    let mut frame = match &stmt.from {
        Some(item) => eval_from(src, item)?,
        None => Frame { cols: vec![], rows: vec![vec![]] },
    };

    // WHERE (3VL: keep definite TRUE only).
    if let Some(pred) = &stmt.where_clause {
        let mut kept = Vec::with_capacity(frame.rows.len());
        for row in frame.rows.into_iter() {
            if matches!(eval(pred, &frame.cols, &row)?, Cell::Bool(true)) {
                kept.push(row);
            }
        }
        frame.rows = kept;
    }

    project_block(stmt, frame)
}

/// Everything of a SELECT block after FROM and WHERE: aggregation or
/// window materialization, projection, ORDER BY, OFFSET/LIMIT. The
/// columnar engine scans and filters column-major and enters here with
/// the surviving rows for the block shapes it does not vectorize.
pub(crate) fn project_block(stmt: &SelectStmt, mut frame: Frame) -> Result<Rows, DbError> {
    let has_agg = !stmt.group_by.is_empty()
        || stmt.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Wildcard => false,
        });

    if has_agg {
        return aggregate_block(stmt, frame);
    }

    // Window functions: materialize each distinct window expression as a
    // virtual column, then treat items as plain scalars.
    let mut items: Vec<(Option<String>, SqlExpr)> = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                for c in frame.cols.clone() {
                    items.push((
                        Some(c.name.clone()),
                        SqlExpr::Column { qualifier: c.qualifier.clone(), name: c.name },
                    ));
                }
            }
            SelectItem::Expr { expr, alias } => items.push((alias.clone(), expr.clone())),
        }
    }
    let has_window = items.iter().any(|(_, e)| e.contains_window());
    if has_window {
        let mut windows: Vec<SqlExpr> = Vec::new();
        for (_, e) in &items {
            collect_windows(e, &mut windows);
        }
        for (wi, w) in windows.iter().enumerate() {
            let vcol = format!("hq_win_{wi}");
            let values = compute_window(w, &frame)?;
            let ty = match w {
                SqlExpr::WindowFunc { .. } => derive_type(w, &frame.cols),
                _ => PgType::Int8,
            };
            frame.cols.push(BoundCol { qualifier: None, name: vcol.clone(), ty });
            for (row, v) in frame.rows.iter_mut().zip(values) {
                row.push(v);
            }
        }
        // Rewrite items to reference the virtual columns.
        items = items
            .into_iter()
            .map(|(alias, e)| (alias, substitute_nodes(e, &windows, "hq_win_")))
            .collect();
    }

    // Projection (keep input rows alongside for ORDER BY resolution).
    let out_cols: Vec<Column> = items
        .iter()
        .enumerate()
        .map(|(i, (alias, e))| {
            let name = alias.clone().unwrap_or_else(|| default_output_name(e, i));
            Column::new(name, derive_type(e, &frame.cols))
        })
        .collect();
    let mut projected: Vec<(Vec<Cell>, Vec<Cell>)> = Vec::with_capacity(frame.rows.len());
    for row in &frame.rows {
        let mut out_row = Vec::with_capacity(items.len());
        for (_, e) in &items {
            out_row.push(eval(e, &frame.cols, row)?);
        }
        projected.push((out_row, row.clone()));
    }

    // ORDER BY: output aliases take precedence, then input columns.
    if !stmt.order_by.is_empty() {
        let mut combined_cols: Vec<BoundCol> = out_cols
            .iter()
            .map(|c| BoundCol { qualifier: None, name: c.name.clone(), ty: c.ty })
            .collect();
        combined_cols.extend(frame.cols.iter().cloned());
        let key_of = |pair: &(Vec<Cell>, Vec<Cell>)| -> Result<Vec<Cell>, DbError> {
            let mut combined = pair.0.clone();
            combined.extend(pair.1.clone());
            stmt.order_by.iter().map(|(e, _)| eval(e, &combined_cols, &combined)).collect()
        };
        type SortEntry = (Vec<Cell>, (Vec<Cell>, Vec<Cell>));
        let mut keyed: Vec<SortEntry> = Vec::with_capacity(projected.len());
        for p in projected.into_iter() {
            keyed.push((key_of(&p)?, p));
        }
        keyed.sort_by(|(ka, _), (kb, _)| {
            for ((a, b), (_, desc)) in ka.iter().zip(kb).zip(&stmt.order_by) {
                let ord = a.sort_cmp(b);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        projected = keyed.into_iter().map(|(_, p)| p).collect();
    }

    let mut data: Vec<Vec<Cell>> = projected.into_iter().map(|(o, _)| o).collect();

    // OFFSET / LIMIT.
    let offset = stmt.offset.unwrap_or(0) as usize;
    if offset > 0 {
        data = data.into_iter().skip(offset).collect();
    }
    if let Some(limit) = stmt.limit {
        data.truncate(limit as usize);
    }

    Ok(Rows { columns: out_cols, data })
}

pub(crate) fn default_output_name(e: &SqlExpr, i: usize) -> String {
    match e {
        SqlExpr::Column { name, .. } => name.clone(),
        SqlExpr::Func { name, .. } | SqlExpr::WindowFunc { name, .. } => name.clone(),
        _ => format!("column{}", i + 1),
    }
}

/// Grouped / scalar aggregation (row-major; also the columnar
/// engine's fallback for aggregate shapes outside its fast path).
pub(crate) fn aggregate_block(stmt: &SelectStmt, frame: Frame) -> Result<Rows, DbError> {
    // Group rows by key (hash aggregation; first-seen group order).
    let groups: Vec<(Vec<Cell>, Vec<usize>)> = if stmt.group_by.is_empty() {
        vec![(vec![], (0..frame.rows.len()).collect())]
    } else {
        let mut keys = Vec::with_capacity(frame.rows.len());
        for row in &frame.rows {
            keys.push(
                stmt.group_by
                    .iter()
                    .map(|e| eval(e, &frame.cols, row))
                    .collect::<Result<Vec<Cell>, _>>()?,
            );
        }
        group_indices(keys)
    };

    let items: Vec<(Option<String>, SqlExpr)> = stmt
        .items
        .iter()
        .map(|i| match i {
            SelectItem::Expr { expr, alias } => Ok((alias.clone(), expr.clone())),
            SelectItem::Wildcard => Err(DbError::exec("SELECT * with GROUP BY is not supported")),
        })
        .collect::<Result<_, _>>()?;

    let out_cols: Vec<Column> = items
        .iter()
        .enumerate()
        .map(|(i, (alias, e))| {
            let name = alias.clone().unwrap_or_else(|| default_output_name(e, i));
            Column::new(name, derive_type(e, &frame.cols))
        })
        .collect();

    let mut data = Vec::with_capacity(groups.len());
    for (_, row_idx) in &groups {
        // HAVING.
        if let Some(h) = &stmt.having {
            let v = eval_agg(h, &frame, row_idx)?;
            if !matches!(v, Cell::Bool(true)) {
                continue;
            }
        }
        let mut out_row = Vec::with_capacity(items.len());
        for (_, e) in &items {
            out_row.push(eval_agg(e, &frame, row_idx)?);
        }
        data.push(out_row);
    }

    let mut rows = Rows { columns: out_cols, data };

    // ORDER BY over the aggregate output.
    if !stmt.order_by.is_empty() {
        let cols: Vec<BoundCol> = rows
            .columns
            .iter()
            .map(|c| BoundCol { qualifier: None, name: c.name.clone(), ty: c.ty })
            .collect();
        let mut keyed: Vec<(Vec<Cell>, Vec<Cell>)> = Vec::with_capacity(rows.data.len());
        for row in rows.data.into_iter() {
            let key: Vec<Cell> = stmt
                .order_by
                .iter()
                .map(|(e, _)| eval(e, &cols, &row))
                .collect::<Result<_, _>>()?;
            keyed.push((key, row));
        }
        keyed.sort_by(|(ka, _), (kb, _)| {
            for ((a, b), (_, desc)) in ka.iter().zip(kb).zip(&stmt.order_by) {
                let ord = a.sort_cmp(b);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        rows.data = keyed.into_iter().map(|(_, r)| r).collect();
    }

    let offset = stmt.offset.unwrap_or(0) as usize;
    if offset > 0 {
        rows.data = rows.data.into_iter().skip(offset).collect();
    }
    if let Some(limit) = stmt.limit {
        rows.data.truncate(limit as usize);
    }
    Ok(rows)
}

/// Evaluate an expression in aggregate context: aggregate calls compute
/// over the group; bare columns take their value from the group's first
/// row (group keys are constant within a group).
fn eval_agg(e: &SqlExpr, frame: &Frame, group: &[usize]) -> Result<Cell, DbError> {
    match e {
        SqlExpr::Func { name, args, distinct } if is_aggregate_name(name) => {
            compute_aggregate(name, args, *distinct, frame, group)
        }
        SqlExpr::Literal(c) => Ok(c.clone()),
        SqlExpr::Column { .. } => match group.first() {
            Some(&ri) => eval(e, &frame.cols, &frame.rows[ri]),
            None => Ok(Cell::Null),
        },
        SqlExpr::Binary { op, lhs, rhs } => {
            let l = eval_agg(lhs, frame, group)?;
            let r = eval_agg(rhs, frame, group)?;
            expr::binary(*op, &l, &r)
        }
        SqlExpr::Not(inner) => match eval_agg(inner, frame, group)? {
            Cell::Null => Ok(Cell::Null),
            Cell::Bool(b) => Ok(Cell::Bool(!b)),
            other => Err(DbError::exec(format!("NOT applied to {other:?}"))),
        },
        SqlExpr::Neg(inner) => match eval_agg(inner, frame, group)? {
            Cell::Null => Ok(Cell::Null),
            Cell::Int(i) => Ok(Cell::Int(-i)),
            Cell::Float(f) => Ok(Cell::Float(-f)),
            other => Err(DbError::exec(format!("cannot negate {other:?}"))),
        },
        SqlExpr::Func { name, args, .. } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_agg(a, frame, group)?);
            }
            expr::scalar_function(name, &vals)
        }
        SqlExpr::Case { branches, else_result } => {
            for (c, r) in branches {
                if matches!(eval_agg(c, frame, group)?, Cell::Bool(true)) {
                    return eval_agg(r, frame, group);
                }
            }
            match else_result {
                Some(e) => eval_agg(e, frame, group),
                None => Ok(Cell::Null),
            }
        }
        SqlExpr::Cast { expr: inner, ty } => {
            let v = eval_agg(inner, frame, group)?;
            expr::cast(&v, *ty)
        }
        SqlExpr::IsNull { expr: inner, negated } => {
            let v = eval_agg(inner, frame, group)?;
            Ok(Cell::Bool(v.is_null() != *negated))
        }
        SqlExpr::InList { expr: inner, list, negated } => {
            let needle = eval_agg(inner, frame, group)?;
            if needle.is_null() {
                return Ok(Cell::Null);
            }
            for item in list {
                let v = eval_agg(item, frame, group)?;
                if needle.sql_eq(&v) == Some(true) {
                    return Ok(Cell::Bool(!negated));
                }
            }
            Ok(Cell::Bool(*negated))
        }
        other => Err(DbError::exec(format!("unsupported expression in aggregate context: {other:?}"))),
    }
}

fn compute_aggregate(
    name: &str,
    args: &[SqlExpr],
    distinct: bool,
    frame: &Frame,
    group: &[usize],
) -> Result<Cell, DbError> {
    // COUNT(*).
    if name == "count" && matches!(args.first(), Some(SqlExpr::Star)) {
        return Ok(Cell::Int(group.len() as i64));
    }
    let arg = args
        .first()
        .ok_or_else(|| DbError::exec(format!("{name}: missing argument")))?;
    // The hq_first/hq_last toolbox aggregates model q's order-sensitive
    // first/last, which do NOT skip nulls: `first 0N 1 2` is 0N. They
    // must see the raw group, before the SQL null filter below.
    if matches!(name, "hq_first" | "hq_last") {
        let pos = if name == "hq_first" { group.first() } else { group.last() };
        return match pos {
            Some(&ri) => eval(arg, &frame.cols, &frame.rows[ri]),
            None => Ok(Cell::Null),
        };
    }
    let mut values: Vec<Cell> = Vec::with_capacity(group.len());
    for &ri in group {
        let v = eval(arg, &frame.cols, &frame.rows[ri])?;
        if !v.is_null() {
            values.push(v);
        }
    }
    if distinct {
        dedup_cells(&mut values);
    }
    fold_cells(name, &values)
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

/// DISTINCT over aggregate inputs, O(n) via [`CellKey`].
pub fn dedup_cells(values: &mut Vec<Cell>) {
    let mut seen = HashSet::with_capacity(values.len());
    values.retain(|v| seen.insert(CellKey::from_cell(v)));
}

/// Collect structurally distinct window-function nodes.
fn collect_windows(e: &SqlExpr, out: &mut Vec<SqlExpr>) {
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

/// Compute a window function over the whole frame.
fn compute_window(w: &SqlExpr, frame: &Frame) -> Result<Vec<Cell>, DbError> {
    let SqlExpr::WindowFunc { name, args, partition_by, order_by } = w else {
        return Err(DbError::exec("not a window function"));
    };
    let n = frame.rows.len();
    // Partition rows (hash partitioning; first-seen order).
    let mut part_keys = Vec::with_capacity(n);
    for row in &frame.rows {
        part_keys.push(
            partition_by
                .iter()
                .map(|e| eval(e, &frame.cols, row))
                .collect::<Result<Vec<Cell>, _>>()?,
        );
    }
    let partitions = group_indices(part_keys);

    let mut out = vec![Cell::Null; n];
    for (_, mut rows) in partitions {
        // Order within the partition.
        if !order_by.is_empty() {
            let mut keyed: Vec<(Vec<Cell>, usize)> = Vec::with_capacity(rows.len());
            for &ri in &rows {
                let key: Vec<Cell> = order_by
                    .iter()
                    .map(|(e, _)| eval(e, &frame.cols, &frame.rows[ri]))
                    .collect::<Result<_, _>>()?;
                keyed.push((key, ri));
            }
            keyed.sort_by(|(ka, _), (kb, _)| {
                for ((a, b), (_, desc)) in ka.iter().zip(kb).zip(order_by) {
                    let ord = a.sort_cmp(b);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            rows = keyed.into_iter().map(|(_, ri)| ri).collect();
        }

        let arg_at = |pos: usize| -> Result<Cell, DbError> {
            match args.first() {
                Some(a) => eval(a, &frame.cols, &frame.rows[rows[pos]]),
                None => Ok(Cell::Null),
            }
        };
        match name.as_str() {
            "row_number" => {
                for (i, &ri) in rows.iter().enumerate() {
                    out[ri] = Cell::Int(i as i64 + 1);
                }
            }
            "rank" => {
                let mut rank = 1i64;
                for (i, &ri) in rows.iter().enumerate() {
                    if i > 0 {
                        // Compare order keys with the previous row.
                        let prev = rows[i - 1];
                        let equal = order_by.iter().try_fold(true, |acc, (e, _)| {
                            let a = eval(e, &frame.cols, &frame.rows[ri])?;
                            let b = eval(e, &frame.cols, &frame.rows[prev])?;
                            Ok::<bool, DbError>(acc && a.not_distinct(&b))
                        })?;
                        if !equal {
                            rank = i as i64 + 1;
                        }
                    }
                    out[ri] = Cell::Int(rank);
                }
            }
            "lead" => {
                for (i, &ri) in rows.iter().enumerate() {
                    out[ri] = if i + 1 < rows.len() { arg_at(i + 1)? } else { Cell::Null };
                }
            }
            "lag" => {
                for (i, &ri) in rows.iter().enumerate() {
                    out[ri] = if i > 0 { arg_at(i - 1)? } else { Cell::Null };
                }
            }
            "first_value" => {
                let v = if rows.is_empty() { Cell::Null } else { arg_at(0)? };
                for &ri in &rows {
                    out[ri] = v.clone();
                }
            }
            "last_value" => {
                // Whole-partition frame (Hyper-Q's usage; differs from
                // PG's default running frame, which it never relies on).
                let v = if rows.is_empty() { Cell::Null } else { arg_at(rows.len() - 1)? };
                for &ri in &rows {
                    out[ri] = v.clone();
                }
            }
            other => return Err(DbError::exec(format!("unknown window function {other}"))),
        }
    }
    Ok(out)
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

    /// The key pairs, when equalities are all there is — the shape the
    /// row pipeline hash-joins.
    pub(crate) fn pure_equi(&self) -> Option<&[EquiPair]> {
        (!self.keys.is_empty() && self.interval.is_none() && self.residual.is_empty())
            .then_some(&self.keys[..])
    }
}

/// Matched row pairs of a join, in output order: left row `.0[k]` joins
/// right row `.1[k]` — `None` for a LEFT join's unmatched left row.
pub(crate) type JoinPairs = (Vec<usize>, Vec<Option<usize>>);

/// The nested-loop join: `cond` for every (left, right) pair, left-major,
/// so the first pair that fails to evaluate is the error. The condition
/// reads one scratch row holding just the columns it references, which
/// `load(slot, column, row)` fills from row `row` of the side joined
/// column `column` belongs to (the left side's come first, `left_width`
/// of them).
pub(crate) fn nested_loop_join(
    cols: &[BoundCol],
    left_width: usize,
    (left_len, right_len): (usize, usize),
    load: impl Fn(&mut Cell, usize, usize),
    cond: &SqlExpr,
    kind: JoinType,
) -> Result<JoinPairs, DbError> {
    let mut reads = Vec::new();
    vector::referenced_columns(cond, cols, &mut reads);
    let (left_reads, right_reads): (Vec<usize>, Vec<usize>) =
        reads.into_iter().partition(|&c| c < left_width);
    let mut scratch = vec![Cell::Null; cols.len()];
    let (mut lidx, mut ridx) = (Vec::new(), Vec::new());
    for li in 0..left_len {
        for &c in &left_reads {
            load(&mut scratch[c], c, li);
        }
        let matched = lidx.len();
        for ri in 0..right_len {
            for &c in &right_reads {
                load(&mut scratch[c], c, ri);
            }
            if matches!(eval(cond, cols, &scratch)?, Cell::Bool(true)) {
                lidx.push(li);
                ridx.push(Some(ri));
            }
        }
        if lidx.len() == matched && kind == JoinType::Left {
            lidx.push(li);
            ridx.push(None);
        }
    }
    Ok((lidx, ridx))
}

/// Build one side's join key, or `None` when a NULL key column under
/// plain `=` disqualifies the row from matching (PG semantics).
fn join_key(row: &[Cell], pairs: &[EquiPair], right_side: bool) -> Option<Vec<CellKey>> {
    let mut key = Vec::with_capacity(pairs.len());
    for p in pairs {
        let c = &row[if right_side { p.right } else { p.left }];
        if c.is_null() && !p.nulls_match {
            return None; // plain = never matches NULL
        }
        key.push(CellKey::from_cell(c));
    }
    Some(key)
}

/// Equi-join via a hash index on the right side, keyed by the
/// allocation-free-per-column [`CellKey`] (formerly a per-row
/// formatted `String`).
pub fn hash_join(l: &Frame, r: &Frame, pairs: &[EquiPair], kind: JoinType, out: &mut Vec<Vec<Cell>>) {
    let mut index: HashMap<Vec<CellKey>, Vec<usize>> = HashMap::with_capacity(r.rows.len());
    for (ri, row) in r.rows.iter().enumerate() {
        if let Some(key) = join_key(row, pairs, true) {
            index.entry(key).or_default().push(ri);
        }
    }
    for lrow in &l.rows {
        if let Some(matches) = join_key(lrow, pairs, false).and_then(|k| index.get(&k)) {
            for &ri in matches {
                let mut row = lrow.clone();
                row.extend(r.rows[ri].iter().cloned());
                out.push(row);
            }
            continue;
        }
        if kind == JoinType::Left {
            let mut row = lrow.clone();
            row.extend(std::iter::repeat_n(Cell::Null, r.cols.len()));
            out.push(row);
        }
    }
}

/// Evaluate a FROM item into a frame.
fn eval_from(src: &dyn TableSource, item: &FromItem) -> Result<Frame, DbError> {
    match item {
        FromItem::Table { name, alias } => {
            let (columns, rows) =
                src.get_table(name).ok_or_else(|| DbError::undefined_table(name))?;
            let q = alias.clone().or_else(|| Some(name.clone()));
            Ok(Frame {
                cols: columns
                    .into_iter()
                    .map(|c| BoundCol { qualifier: q.clone(), name: c.name, ty: c.ty })
                    .collect(),
                rows,
            })
        }
        FromItem::Subquery { query, alias } => {
            let rows = run_select(src, query)?;
            Ok(Frame {
                cols: rows
                    .columns
                    .into_iter()
                    .map(|c| BoundCol {
                        qualifier: Some(alias.clone()),
                        name: c.name,
                        ty: c.ty,
                    })
                    .collect(),
                rows: rows.data,
            })
        }
        FromItem::Values { rows, alias, columns } => {
            let mut data = Vec::with_capacity(rows.len());
            for r in rows {
                let mut row = Vec::with_capacity(r.len());
                for e in r {
                    row.push(eval(e, &[], &[])?);
                }
                data.push(row);
            }
            let width = data.first().map(|r| r.len()).unwrap_or(columns.len());
            let mut cols = Vec::with_capacity(width);
            for i in 0..width {
                let name =
                    columns.get(i).cloned().unwrap_or_else(|| format!("column{}", i + 1));
                let ty = data
                    .iter()
                    .map(|r| &r[i])
                    .find(|c| !c.is_null())
                    .map(|c| c.natural_type())
                    .unwrap_or(PgType::Text);
                cols.push(BoundCol { qualifier: Some(alias.clone()), name, ty });
            }
            Ok(Frame { cols, rows: data })
        }
        FromItem::Join { kind, left, right, on } => {
            let l = eval_from(src, left)?;
            let r = eval_from(src, right)?;
            let mut cols = l.cols.clone();
            cols.extend(r.cols.clone());
            let mut rows = Vec::new();
            match kind {
                JoinType::Cross => {
                    for lr in &l.rows {
                        for rr in &r.rows {
                            let mut row = lr.clone();
                            row.extend(rr.clone());
                            rows.push(row);
                        }
                    }
                }
                JoinType::Inner | JoinType::Left => {
                    let cond = on
                        .as_ref()
                        .ok_or_else(|| DbError::syntax("JOIN requires ON"))?;
                    // Hash join when the condition is a pure conjunction
                    // of column equalities across the two sides;
                    // otherwise nested loop.
                    let shape = JoinShape::analyze(cond, &l.cols, &r.cols);
                    match shape.pure_equi() {
                        Some(pairs) => hash_join(&l, &r, pairs, *kind, &mut rows),
                        None => {
                            let width = l.cols.len();
                            let load = |slot: &mut Cell, c: usize, i: usize| {
                                slot.clone_from(if c < width { &l.rows[i][c] } else { &r.rows[i][c - width] })
                            };
                            let lens = (l.rows.len(), r.rows.len());
                            let (lidx, ridx) = nested_loop_join(&cols, width, lens, load, cond, *kind)?;
                            let padding = vec![Cell::Null; r.cols.len()];
                            rows.extend(lidx.into_iter().zip(ridx).map(|(li, ri)| {
                                let right = ri.map_or(&padding, |ri| &r.rows[ri]);
                                l.rows[li].iter().chain(right).cloned().collect()
                            }));
                        }
                    }
                }
            }
            Ok(Frame { cols, rows })
        }
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
