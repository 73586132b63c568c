//! The row-major SELECT pipeline: the differential oracle (DESIGN §10).
//!
//! This was pgdb's executor before the columnar engine; it is kept as
//! a testing instrument. Debug builds re-run every statement here and
//! assert the columnar result agrees (`columnar::cross_check`), and the
//! property tests compare the two engines on generated statements. It
//! is compiled only for tests and debug builds, so a release build
//! proves that no production path reaches it.
//!
//! It is independent of the engine it checks: scans transpose to rows,
//! derived tables and `IN (SELECT ...)` run here, joins are this file's
//! hash join or the nested loop (the one operator both sides have: it
//! is what a join *means*), and aggregates and window functions
//! evaluate a row at a time. Must not be "improved"; behavior changes
//! here must be deliberate semantics changes.

use super::columnar::nested_loop_join;
use super::expr::{self, derive_type, eval, BoundCol};
use super::key::{row_key, CellKey};
use super::{
    block_types, bound_cols, collect_windows, fold_cells, output_schema, reference, resolve_where,
    select_items, set_op_types, substitute_nodes, values_batch, EquiPair, JoinShape, TableSource,
};
use crate::engine::DbError;
use crate::sql::ast::*;
use crate::types::{Cell, PgType, Rows};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// An intermediate result during execution.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    /// Bound columns (with source qualifiers).
    pub cols: Vec<BoundCol>,
    /// Row data.
    pub rows: Vec<Vec<Cell>>,
}

/// Execute a SELECT statement on the row-major pipeline.
pub fn run_select_rows(src: &dyn TableSource, stmt: &SelectStmt) -> Result<Rows, DbError> {
    let mut out = run_block(src, stmt)?;
    // Chained set operations, left-folded. A single block with no set
    // op short-circuits past all dedup work. Across a chain, `seen`
    // carries the key set of the (distinct) accumulated result so
    // UNION never re-deduplicates rows it already admitted; UNION ALL
    // may reintroduce duplicates, which drops the set.
    let mut cursor = &stmt.set_op;
    let mut seen: Option<HashSet<Vec<CellKey>>> = None;
    let mut types = block_types(stmt, &out.columns);
    while let Some((op, rhs)) = cursor {
        let mut right = run_block(src, rhs)?;
        if right.columns.len() != out.columns.len() {
            return Err(DbError::exec("set operation column count mismatch"));
        }
        types = set_op_types(&types, &block_types(rhs, &right.columns));
        retype(&mut out, &types)?;
        retype(&mut right, &types)?;
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

/// `rows` with each column of `types` (an untyped one keeps its own).
fn retype(rows: &mut Rows, types: &[Option<PgType>]) -> Result<(), DbError> {
    for (c, ty) in rows.columns.iter_mut().zip(types) {
        c.ty = ty.unwrap_or(c.ty);
    }
    for row in &mut rows.data {
        for (cell, c) in row.iter_mut().zip(&rows.columns) {
            *cell = std::mem::replace(cell, Cell::Null).into_class(c.ty)?;
        }
    }
    Ok(())
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

/// Execute one SELECT block (no set ops), row-major.
fn run_block(src: &dyn TableSource, stmt: &SelectStmt) -> Result<Rows, DbError> {
    // Uncorrelated subqueries are resolved up front, on this pipeline.
    let stmt = resolve_where(stmt, &|query| run_select_rows(src, query))?;
    let stmt = &*stmt;

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
/// window materialization, projection, ORDER BY, OFFSET/LIMIT.
fn project_block(stmt: &SelectStmt, mut frame: Frame) -> Result<Rows, DbError> {
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
    let mut items = select_items(stmt, &frame.cols);
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
    let out_cols = output_schema(&items, &frame.cols);
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

/// Grouped / scalar aggregation.
fn aggregate_block(stmt: &SelectStmt, frame: Frame) -> Result<Rows, DbError> {
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

    let out_cols = output_schema(&items, &frame.cols);

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
        // Deliberate semantics change (PR 19): the reference resolves
        // before the group is looked at, so a column that does not
        // exist is an error over an empty group too, as it is in
        // PostgreSQL — it used to read as NULL there.
        SqlExpr::Column { qualifier, name } => {
            let idx = expr::resolve_column(&frame.cols, qualifier.as_deref(), name)?;
            Ok(group.first().map_or(Cell::Null, |&ri| frame.rows[ri][idx].clone()))
        }
        SqlExpr::Binary { op, lhs, rhs } => {
            let l = eval_agg(lhs, frame, group)?;
            let r = eval_agg(rhs, frame, group)?;
            // Deliberate semantics change (PR 19): AND/OR over aggregate
            // results are Kleene, as everywhere else and in PostgreSQL.
            // They used to go through `expr::binary`, whose NULL-operand
            // rule made `FALSE AND NULL` NULL.
            if matches!(op, SqlBinOp::And | SqlBinOp::Or) {
                return Ok(expr::kleene(*op, &l, &r));
            }
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
            let v = expr::scalar_function(name, &vals)?;
            // Deliberate semantics change: `coalesce`/`greatest`/`least`
            // and CASE take their resolved type, as in `expr::eval_with`.
            if expr::is_resolving(name) {
                return Ok(v.into_class(derive_type(e, &frame.cols))?);
            }
            Ok(v)
        }
        SqlExpr::Case { branches, else_result } => {
            let mut chosen = else_result.as_deref();
            for (c, r) in branches {
                if matches!(eval_agg(c, frame, group)?, Cell::Bool(true)) {
                    chosen = Some(r);
                    break;
                }
            }
            let v = chosen.map_or(Ok(Cell::Null), |r| eval_agg(r, frame, group))?;
            Ok(v.into_class(derive_type(e, &frame.cols))?)
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
            // Deliberate semantics change (PR 19): a NULL in the list
            // makes a miss unknown, as `expr::eval` and PostgreSQL have
            // it. It used to read as a definite miss.
            let mut saw_null = false;
            for item in list {
                let v = eval_agg(item, frame, group)?;
                match needle.sql_eq(&v) {
                    Some(true) => return Ok(Cell::Bool(!negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            Ok(if saw_null { Cell::Null } else { Cell::Bool(*negated) })
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

/// DISTINCT over aggregate inputs, O(n) via [`CellKey`].
pub fn dedup_cells(values: &mut Vec<Cell>) {
    let mut seen = HashSet::with_capacity(values.len());
    values.retain(|v| seen.insert(CellKey::from_cell(v)));
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

impl JoinShape<'_> {
    /// The key pairs, when equalities are all there is — the shape this
    /// pipeline hash-joins.
    pub(crate) fn pure_equi(&self) -> Option<&[EquiPair]> {
        (!self.keys.is_empty() && self.interval.is_none() && self.residual.is_empty())
            .then_some(&self.keys[..])
    }
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
            let rows = run_select_rows(src, query)?;
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
            let batch = values_batch(rows, columns)?;
            Ok(Frame { cols: bound_cols(&batch.schema, alias), rows: batch.into_rows().data })
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
