//! Columnar (batch-at-a-time) SELECT execution over [`ColumnVec`]s.
//!
//! This is the default production executor (DESIGN §10). A scan borrows
//! the stored batch ([`FrameCol::Shared`]), WHERE yields a selection
//! vector over it, and projection, grouping and ordering read the
//! surviving rows through that selection — a column is gathered once,
//! into the result, and only if the block still references it. All
//! expression evaluation goes through the one vector evaluator in
//! [`vector`](super::vector); the result leaves as a [`Batch`] so the
//! engine, the gateway pivot, and QIPC encoding never re-transpose it.
//!
//! Semantics are defined by the retained row-major pipeline in the
//! parent module. Window-function blocks scan and filter here and hand
//! their surviving rows to that pipeline's
//! [`project_block`](super::project_block); aggregate blocks outside
//! [`aggregate_batch_fast`] do the same, and a join whose condition can
//! fail runs that pipeline's nested loop — each hand-over counted in
//! `pgdb_exec_row_fallback_total{reason}`.
//!
//! In debug builds every top-level statement is cross-checked against
//! [`run_select_rows`](super::run_select_rows): values must agree
//! structurally; when both sides fail they may differ in *which* error
//! they report (column-major evaluation order visits rows in a
//! different sequence), which counts as agreement.

use super::expr::{derive_type, eval, resolve_column, BoundCol};
use super::vector::{
    self, eval_column, eval_val, morsel_eligible, referenced_columns, row_fallback, Ctx,
    Fallback, Rows, View,
};
use super::{
    contains_subquery, default_output_name, fold_cells, nested_loop_join, parallel, project_block,
    resolve_subqueries, substitute_nodes, EquiPair, Frame, Interval, JoinPairs, JoinShape,
    TableSource,
};
use crate::engine::DbError;
use crate::sql::ast::*;
use crate::types::{Cell, Column, PgType};
use colstore::{Batch, CellKey, ColumnVec};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// One column of a [`ColFrame`]: a stored table's column read in place,
/// or a column an operator produced.
pub(crate) enum FrameCol {
    /// Column `.1` of a shared stored batch — the zero-copy scan.
    Shared(Arc<Batch>, usize),
    Owned(ColumnVec),
}

impl Deref for FrameCol {
    type Target = ColumnVec;

    fn deref(&self) -> &ColumnVec {
        match self {
            FrameCol::Shared(batch, i) => &batch.columns[*i],
            FrameCol::Owned(c) => c,
        }
    }
}

/// A schema's columns as seen through a table alias.
fn bound_cols(schema: &[Column], qualifier: &str) -> Vec<BoundCol> {
    schema
        .iter()
        .map(|c| BoundCol { qualifier: Some(qualifier.to_string()), name: c.name.clone(), ty: c.ty })
        .collect()
}

/// Column-major intermediate result: the batch dual of [`Frame`].
pub(crate) struct ColFrame {
    /// Bound columns (with source qualifiers).
    pub(crate) cols: Vec<BoundCol>,
    /// One vector per bound column.
    pub(crate) columns: Vec<FrameCol>,
    /// Explicit row count (meaningful with zero columns: the FROM-less
    /// unit relation is zero columns × one row).
    pub(crate) len: usize,
}

impl ColFrame {
    /// The unit relation — one row to project expressions over, no
    /// columns to read. Replaces the row executor's
    /// `Frame { cols: vec![], rows: vec![vec![]] }` hack.
    pub(crate) fn unit() -> ColFrame {
        ColFrame { cols: Vec::new(), columns: Vec::new(), len: 1 }
    }

    /// A stored table's frame: every column borrowed from `batch`.
    pub(crate) fn scan(batch: Arc<Batch>, qualifier: &str) -> ColFrame {
        let columns =
            (0..batch.columns.len()).map(|i| FrameCol::Shared(Arc::clone(&batch), i)).collect();
        ColFrame { cols: bound_cols(&batch.schema, qualifier), columns, len: batch.rows() }
    }

    /// An operator result's frame, qualified by its alias.
    fn from_batch(mut batch: Batch, qualifier: &str) -> ColFrame {
        let columns = std::mem::take(&mut batch.columns).into_iter().map(FrameCol::Owned).collect();
        ColFrame { cols: bound_cols(&batch.schema, qualifier), columns, len: batch.rows() }
    }

    /// The column storage, as the evaluator takes it.
    pub(crate) fn refs(&self) -> Vec<&ColumnVec> {
        self.columns.iter().map(|c| &**c).collect()
    }

    /// The row pipeline's form of `rows` of this frame, holding only
    /// the columns in `keep` (ascending). Dropping the others cannot
    /// change how a surviving reference resolves: resolution takes the
    /// first match, and every column that was some reference's first
    /// match is kept.
    fn to_frame(&self, rows: Rows<'_>, keep: &[usize]) -> Frame {
        Frame {
            cols: keep.iter().map(|&c| self.cols[c].clone()).collect(),
            rows: (0..rows.len())
                .map(|k| keep.iter().map(|&c| self.columns[c].cell_at(rows.phys(k))).collect())
                .collect(),
        }
    }

    /// Transpose row-major data into a frame (lossless).
    fn from_parts(cols: Vec<BoundCol>, rows: Vec<Vec<Cell>>) -> ColFrame {
        let len = rows.len();
        let mut data: Vec<Vec<Cell>> = (0..cols.len()).map(|_| Vec::with_capacity(len)).collect();
        for row in rows {
            for (j, cell) in row.into_iter().enumerate() {
                data[j].push(cell);
            }
        }
        let columns = cols
            .iter()
            .zip(data)
            .map(|(c, cells)| FrameCol::Owned(ColumnVec::from_cells(c.ty, cells)))
            .collect();
        ColFrame { cols, columns, len }
    }
}

fn exec_batches_counter() -> &'static Arc<obs::Counter> {
    static C: std::sync::OnceLock<Arc<obs::Counter>> = std::sync::OnceLock::new();
    C.get_or_init(|| obs::global_registry().counter("pgdb_exec_batches_total"))
}

fn batch_rows_histogram() -> &'static Arc<obs::Histogram> {
    static H: std::sync::OnceLock<Arc<obs::Histogram>> = std::sync::OnceLock::new();
    H.get_or_init(|| {
        obs::global_registry()
            .histogram_with("pgdb_batch_rows", &[1.0, 16.0, 256.0, 4096.0, 65536.0, 1048576.0])
    })
}

/// Execute a SELECT statement, returning the result as a batch.
///
/// Debug builds re-run the statement on the row-major oracle and
/// assert structural agreement.
pub fn run_select_batch(src: &dyn TableSource, stmt: &SelectStmt) -> Result<Batch, DbError> {
    let result = run_select_columnar(src, stmt);
    if let Ok(b) = &result {
        exec_batches_counter().inc();
        batch_rows_histogram().observe_secs(b.rows() as f64);
    }
    #[cfg(debug_assertions)]
    cross_check(src, stmt, &result);
    result
}

/// Differential gate: the columnar engine must agree with the row-major
/// oracle on every statement. Both-failed counts as agreement (the two
/// engines visit (row, node) pairs in different orders, so they may
/// surface different errors from the same statement).
#[cfg(debug_assertions)]
fn cross_check(src: &dyn TableSource, stmt: &SelectStmt, got: &Result<Batch, DbError>) {
    match (got, super::run_select_rows(src, stmt)) {
        (Ok(b), Ok(rows)) => {
            let oracle = Batch::from_rows(rows);
            debug_assert!(
                b.structurally_equal(&oracle),
                "columnar/row divergence\nstmt: {stmt:?}\ncolumnar: {:?}\nrow oracle: {:?}",
                b.to_rows(),
                oracle.to_rows(),
            );
        }
        (Ok(_), Err(e)) => panic!("columnar succeeded where the row oracle failed: {e:?}\nstmt: {stmt:?}"),
        (Err(e), Ok(_)) => panic!("columnar failed ({e:?}) where the row oracle succeeded\nstmt: {stmt:?}"),
        (Err(_), Err(_)) => {}
    }
}

/// Chained set operations over batches, mirroring the row pipeline's
/// left fold (including the incremental `seen` key set).
fn run_select_columnar(src: &dyn TableSource, stmt: &SelectStmt) -> Result<Batch, DbError> {
    let mut out = run_block_batch(src, stmt)?;
    let mut cursor = &stmt.set_op;
    let mut seen: Option<HashSet<Vec<CellKey>>> = None;
    while let Some((op, rhs)) = cursor {
        let right = run_block_batch(src, rhs)?;
        if right.schema.len() != out.schema.len() {
            return Err(DbError::exec("set operation column count mismatch"));
        }
        match op {
            SetOp::UnionAll => {
                out.append(right);
                seen = None;
            }
            SetOp::Union => {
                if seen.is_none() {
                    let mut set = HashSet::with_capacity(out.rows());
                    let mut idx = Vec::with_capacity(out.rows());
                    for i in 0..out.rows() {
                        if set.insert(out.row_key(i)) {
                            idx.push(i);
                        }
                    }
                    out = out.take(&idx);
                    seen = Some(set);
                }
                let set = seen.as_mut().expect("just installed");
                let mut admit = Vec::new();
                for i in 0..right.rows() {
                    if set.insert(right.row_key(i)) {
                        admit.push(i);
                    }
                }
                out.append(right.take(&admit));
            }
            SetOp::Except | SetOp::Intersect => {
                let want = *op == SetOp::Intersect;
                let right_keys: HashSet<Vec<CellKey>> =
                    (0..right.rows()).map(|i| right.row_key(i)).collect();
                let mut kept = HashSet::with_capacity(out.rows());
                let mut idx = Vec::new();
                for i in 0..out.rows() {
                    let k = out.row_key(i);
                    if right_keys.contains(&k) == want && kept.insert(k) {
                        idx.push(i);
                    }
                }
                out = out.take(&idx);
                seen = Some(kept);
            }
        }
        cursor = &rhs.set_op;
    }
    Ok(out)
}

/// Frame columns the block reads once FROM and WHERE are done: its
/// select list, GROUP BY, HAVING and ORDER BY — every column under `*`.
fn block_columns(stmt: &SelectStmt, cols: &[BoundCol]) -> Vec<usize> {
    let mut keep = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => return (0..cols.len()).collect(),
            SelectItem::Expr { expr, .. } => referenced_columns(expr, cols, &mut keep),
        }
    }
    let rest = stmt.group_by.iter().chain(&stmt.having).chain(stmt.order_by.iter().map(|(e, _)| e));
    for e in rest {
        referenced_columns(e, cols, &mut keep);
    }
    keep.sort_unstable();
    keep
}

/// Execute one SELECT block (no set ops), column-major.
fn run_block_batch(src: &dyn TableSource, stmt: &SelectStmt) -> Result<Batch, DbError> {
    let has_agg = !stmt.group_by.is_empty()
        || stmt.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Wildcard => false,
        });
    let has_window = stmt.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr.contains_window(),
        SelectItem::Wildcard => false,
    });

    // Uncorrelated subqueries are resolved up front (same as the row
    // pipeline; the subqueries themselves run columnar via run_select).
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

    let threads = src.exec_threads();

    // FROM.
    let frame = match &stmt.from {
        Some(item) => eval_from_batch(src, item)?,
        None => ColFrame::unit(),
    };
    let columns = frame.refs();

    // WHERE (3VL: keep definite TRUE only) yields a selection vector;
    // nothing is gathered here. Large inputs filter morsel-at-a-time;
    // per-morsel selections concatenate in morsel order, which is
    // exactly the serial selection.
    let sel: Option<Vec<usize>> = match &stmt.where_clause {
        None => None,
        Some(pred) => Some(
            if parallel::should_parallelize(frame.len, threads) && morsel_eligible(pred, &frame.cols) {
                parallel::run_morsels(frame.len, threads, "filter", |_, range| {
                    vector::filter(pred, &frame.cols, &columns, range)
                })?
                .concat()
            } else {
                vector::filter(pred, &frame.cols, &columns, 0..frame.len)?
            },
        ),
    };
    let rows = match &sel {
        Some(sel) => Rows::Sel(sel),
        None => Rows::all(frame.len),
    };
    let ctx = Ctx { cols: &frame.cols, columns: &columns, rows, pair: None };

    // The row pipeline's share of a block it still owns: the surviving
    // rows, pruned to the columns the block reads.
    let on_row_pipeline = |reason: Fallback| {
        row_fallback(reason, rows.len());
        let keep = block_columns(stmt, &frame.cols);
        project_block(stmt, frame.to_frame(rows, &keep)).map(Batch::from_rows)
    };
    if has_window && !has_agg {
        // Window materialization is row-order-sensitive.
        return on_row_pipeline(Fallback::Window);
    }
    if has_agg {
        return match aggregate_batch_fast(stmt, &ctx, threads) {
            Some(out) => order_and_page(stmt, out, None),
            None => on_row_pipeline(Fallback::AggShape),
        };
    }

    // Wildcard expansion.
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

    // Projection: each item evaluates over the selected rows straight
    // into its output column.
    let out_cols: Vec<Column> = items
        .iter()
        .enumerate()
        .map(|(i, (alias, e))| {
            let name = alias.clone().unwrap_or_else(|| default_output_name(e, i));
            Column::new(name, derive_type(e, &frame.cols))
        })
        .collect();
    let mut out_columns = Vec::with_capacity(items.len());
    for (_, e) in &items {
        out_columns.push(eval_column_morsels(e, &ctx, threads)?);
    }
    let out = Batch::new(out_cols, out_columns, rows.len());

    // ORDER BY resolves output aliases first, then input columns.
    order_and_page(stmt, out, Some(&ctx))
}

/// [`eval_column`], split across workers for large inputs. Per-morsel
/// columns concatenate in morsel order into the *same storage class the
/// serial path would pick*: uniform chunks append directly (kernels and
/// gathers are class-stable), mixed chunks — e.g. an all-NULL morsel
/// typed from the declared type next to a value-typed one — re-atomize
/// through one whole-column `from_cells`, which is byte-for-byte the
/// serial construction.
fn eval_column_morsels(e: &SqlExpr, ctx: &Ctx<'_>, threads: usize) -> Result<ColumnVec, DbError> {
    let n = ctx.rows.len();
    if !parallel::should_parallelize(n, threads) || !morsel_eligible(e, ctx.cols) {
        return eval_column(e, ctx);
    }
    let chunks = parallel::run_morsels(n, threads, "project", |_, range| {
        eval_column(e, &Ctx { rows: ctx.rows.slice(range), ..*ctx })
    })?;
    let uniform = chunks
        .windows(2)
        .all(|w| std::mem::discriminant(&w[0]) == std::mem::discriminant(&w[1]));
    let ty = derive_type(e, ctx.cols);
    let mut it = chunks.into_iter();
    let Some(mut first) = it.next() else { return Ok(ColumnVec::empty(ty)) };
    if uniform {
        for c in it {
            first.append(c);
        }
        return Ok(first);
    }
    let mut cells = first.into_cells();
    for c in it {
        cells.extend(c.into_cells());
    }
    Ok(ColumnVec::from_cells(ty, cells))
}

/// Concatenate per-chunk column sets (one `Vec<ColumnVec>` per morsel,
/// all the same width) into whole columns, in chunk order.
fn concat_columns(chunks: Vec<Vec<ColumnVec>>) -> Vec<ColumnVec> {
    let mut it = chunks.into_iter();
    let mut out = it.next().unwrap_or_default();
    for chunk in it {
        for (dst, src) in out.iter_mut().zip(chunk) {
            dst.append(src);
        }
    }
    out
}

/// ORDER BY + OFFSET/LIMIT over an output batch. `input` supplies the
/// pre-projection columns (and the rows of them that were projected)
/// for ORDER BY resolution in non-aggregate blocks — output aliases
/// take precedence; aggregate output orders over its own columns only,
/// exactly like the row pipeline.
fn order_and_page(stmt: &SelectStmt, out: Batch, input: Option<&Ctx<'_>>) -> Result<Batch, DbError> {
    let mut out = out;
    if !stmt.order_by.is_empty() {
        let mut cols: Vec<BoundCol> = out
            .schema
            .iter()
            .map(|c| BoundCol { qualifier: None, name: c.name.clone(), ty: c.ty })
            .collect();
        // Input columns the keys read and no output column shadows,
        // gathered to line up with the output rows.
        let mut gathered: Vec<Cow<'_, ColumnVec>> = Vec::new();
        if let Some(input) = input {
            let mut reads = Vec::new();
            for (e, _) in &stmt.order_by {
                vector::visit_columns(e, &mut |q, name| {
                    if resolve_column(&cols, q, name).is_err() {
                        if let Ok(i) = resolve_column(input.cols, q, name) {
                            if !reads.contains(&i) {
                                reads.push(i);
                            }
                        }
                    }
                });
            }
            reads.sort_unstable();
            for i in reads {
                cols.push(input.cols[i].clone());
                gathered.push(match input.rows {
                    Rows::Range { start: 0, len } if len == input.columns[i].len() => {
                        Cow::Borrowed(input.columns[i])
                    }
                    rows => Cow::Owned(input.columns[i].take(&rows.to_vec())),
                });
            }
        }
        let columns: Vec<&ColumnVec> = out.columns.iter().chain(gathered.iter().map(|c| &**c)).collect();
        let combined =
            Ctx { cols: &cols, columns: &columns, rows: Rows::all(out.rows()), pair: None };
        let mut key_cells: Vec<Vec<Cell>> = Vec::with_capacity(stmt.order_by.len());
        for (e, _) in &stmt.order_by {
            key_cells.push(eval_column(e, &combined)?.into_cells());
        }
        let mut idx: Vec<usize> = (0..out.rows()).collect();
        idx.sort_by(|&a, &b| {
            for (k, (_, desc)) in key_cells.iter().zip(&stmt.order_by) {
                let ord = k[a].sort_cmp(&k[b]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        // Already in order (the translator's `ORDER BY "ordcol"` over a
        // scan): nothing to move.
        if idx.iter().enumerate().any(|(k, &i)| k != i) {
            out = out.take(&idx);
        }
    }
    let offset = stmt.offset.unwrap_or(0) as usize;
    let limit = stmt.limit.map(|l| l as usize);
    if offset > 0 || limit.is_some() {
        let n = out.rows();
        let start = offset.min(n);
        let end = limit.map_or(n, |l| start.saturating_add(l).min(n));
        let idx: Vec<usize> = (start..end).collect();
        out = out.take(&idx);
    }
    Ok(out)
}

/// Rows of each group, as logical row numbers in ascending order, in
/// first-seen group order.
struct Groups {
    /// `rows[starts[g]..starts[g + 1]]` is group `g`.
    starts: Vec<usize>,
    rows: Vec<usize>,
}

impl Groups {
    /// The one group of an aggregate without GROUP BY (possibly empty).
    fn single(n: usize) -> Groups {
        Groups { starts: vec![0, n], rows: (0..n).collect() }
    }

    /// Bucket rows by dense group id (a counting sort, so each group's
    /// rows stay ascending).
    fn from_ids(ids: &[usize], count: usize) -> Groups {
        let mut starts = vec![0usize; count + 1];
        for &g in ids {
            starts[g + 1] += 1;
        }
        for g in 0..count {
            starts[g + 1] += starts[g];
        }
        let mut next = starts.clone();
        let mut rows = vec![0usize; ids.len()];
        for (k, &g) in ids.iter().enumerate() {
            rows[next[g]] = k;
            next[g] += 1;
        }
        Groups { starts, rows }
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn get(&self, g: usize) -> &[usize] {
        &self.rows[self.starts[g]..self.starts[g + 1]]
    }

    fn iter(&self) -> impl Iterator<Item = &[usize]> {
        (0..self.len()).map(|g| self.get(g))
    }
}

/// Dense ids, in first-seen order, for `n` rows keyed by `key`, and the
/// number of distinct keys. Large inputs build per-morsel tables in
/// parallel and merge them in morsel order: morsels tile the input in
/// row order, so "first seen across morsel-ordered partials" is the
/// first-seen order of a serial scan.
fn assign_ids<K: Hash + Eq>(
    n: usize,
    threads: usize,
    key: impl Fn(usize) -> K + Sync,
) -> Result<(Vec<usize>, usize), DbError> {
    fn id_of<K: Hash + Eq>(index: &mut HashMap<K, usize>, key: K, first: impl FnOnce()) -> usize {
        let next = index.len();
        match index.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(v) => {
                first();
                *v.insert(next)
            }
        }
    }
    if !parallel::should_parallelize(n, threads) {
        let mut index = HashMap::new();
        let ids = (0..n).map(|k| id_of(&mut index, key(k), || ())).collect();
        return Ok((ids, index.len()));
    }
    let parts = parallel::run_morsels(n, threads, "group", |_, range| {
        let mut index = HashMap::new();
        let mut firsts = Vec::new();
        let local: Vec<usize> =
            range.map(|k| id_of(&mut index, key(k), || firsts.push(k))).collect();
        Ok((local, firsts))
    })?;
    let mut index = HashMap::new();
    let mut ids = Vec::with_capacity(n);
    for (local, firsts) in parts {
        let global: Vec<usize> =
            firsts.into_iter().map(|k| id_of(&mut index, key(k), || ())).collect();
        ids.extend(local.into_iter().map(|l| global[l]));
    }
    Ok((ids, index.len()))
}

/// [`assign_ids`] over one key column, keyed without allocation where
/// the storage has one obvious key; any other storage goes through its
/// canonical [`CellKey`], which the typed keys agree with.
fn column_ids(view: &View<'_>, n: usize, threads: usize) -> Result<(Vec<usize>, usize), DbError> {
    let phys = |k: usize| view.rows.phys(k);
    match &*view.col {
        ColumnVec::Text(d, v) => assign_ids(n, threads, |k| {
            let i = phys(k);
            (!v.is_null(i)).then(|| d[i].as_str())
        }),
        ColumnVec::Int(d, v) => assign_ids(n, threads, |k| {
            let i = phys(k);
            (!v.is_null(i)).then(|| d[i])
        }),
        ColumnVec::Date(d, v) => assign_ids(n, threads, |k| {
            let i = phys(k);
            (!v.is_null(i)).then(|| d[i])
        }),
        col => assign_ids(n, threads, |k| col.key_at(phys(k))),
    }
}

/// `e` in column form, split across workers when large. A bare column
/// stays borrowed.
fn eval_view<'a>(e: &SqlExpr, ctx: &Ctx<'a>, threads: usize) -> Result<View<'a>, DbError> {
    let n = ctx.rows.len();
    if parallel::should_parallelize(n, threads) && !matches!(e, SqlExpr::Column { .. }) {
        let col = eval_column_morsels(e, ctx, threads)?;
        return Ok(View { col: Cow::Owned(col), rows: Rows::all(n) });
    }
    Ok(eval_val(e, ctx)?.into_view(n, derive_type(e, ctx.cols)))
}

/// The aggregate calls and bare columns of one select item, appended to
/// `calls` / `firsts`; `None` for a shape this path leaves to the row
/// pipeline — a nested aggregate, an unresolved column (whose error, or
/// non-error over an empty group, the row pipeline must produce), or a
/// node its aggregate-context evaluation treats specially.
fn scan_agg_item(
    e: &SqlExpr,
    cols: &[BoundCol],
    calls: &mut Vec<SqlExpr>,
    firsts: &mut Vec<usize>,
) -> Option<()> {
    match e {
        SqlExpr::Func { name, args, .. } if is_aggregate_name(name) => {
            if args.iter().any(|a| a.contains_aggregate()) {
                return None;
            }
            if !calls.contains(e) {
                calls.push(e.clone());
            }
        }
        SqlExpr::Column { qualifier, name } => {
            let i = resolve_column(cols, qualifier.as_deref(), name).ok()?;
            if !firsts.contains(&i) {
                firsts.push(i);
            }
        }
        SqlExpr::Literal(_) => {}
        // Aggregate context gives AND/OR a NULL for any NULL operand
        // (`eval_agg`), where the scalar evaluator is Kleene.
        SqlExpr::Binary { op: SqlBinOp::And | SqlBinOp::Or, .. } => return None,
        SqlExpr::Binary { lhs, rhs, .. } => {
            scan_agg_item(lhs, cols, calls, firsts)?;
            scan_agg_item(rhs, cols, calls, firsts)?;
        }
        SqlExpr::Not(x) | SqlExpr::Neg(x) => scan_agg_item(x, cols, calls, firsts)?,
        SqlExpr::Func { args, .. } => {
            for a in args {
                scan_agg_item(a, cols, calls, firsts)?;
            }
        }
        SqlExpr::Case { branches, else_result } => {
            for (c, r) in branches {
                scan_agg_item(c, cols, calls, firsts)?;
                scan_agg_item(r, cols, calls, firsts)?;
            }
            if let Some(x) = else_result {
                scan_agg_item(x, cols, calls, firsts)?;
            }
        }
        SqlExpr::Cast { expr, .. } | SqlExpr::IsNull { expr, .. } => {
            scan_agg_item(expr, cols, calls, firsts)?
        }
        _ => return None,
    }
    Some(())
}

/// Vectorized aggregation: group once into dense ids, evaluate every
/// aggregate argument as a vector expression over the selected rows,
/// fold per group, then evaluate each select item per group over the
/// aggregate results.
///
/// Covers any group-key expression, any aggregate over any vector
/// argument (plain or DISTINCT; `hq_first`/`hq_last` included), and
/// items that are scalar expressions over aggregate results, bare
/// columns (the group's first-row value) and literals. Returns `None`
/// for HAVING, `*`, the shapes [`scan_agg_item`] rejects, and for *any*
/// evaluation error — the row pipeline then produces the error, or the
/// result where aggregate laziness (a `CASE` guarding an aggregate, an
/// empty input) means there is none.
fn aggregate_batch_fast(stmt: &SelectStmt, ctx: &Ctx<'_>, threads: usize) -> Option<Batch> {
    if stmt.having.is_some() {
        return None;
    }
    let n = ctx.rows.len();
    let mut calls = Vec::new();
    let mut firsts = Vec::new();
    let mut items: Vec<(&Option<String>, &SqlExpr)> = Vec::with_capacity(stmt.items.len());
    for item in &stmt.items {
        let SelectItem::Expr { expr, alias } = item else { return None };
        scan_agg_item(expr, ctx.cols, &mut calls, &mut firsts)?;
        items.push((alias, expr));
    }

    // Each key column gets dense ids; a further key refines the ids so
    // far pairwise. First-seen order carries through both steps.
    let groups = if stmt.group_by.is_empty() {
        Groups::single(n)
    } else {
        let mut ids: Option<(Vec<usize>, usize)> = None;
        for key in &stmt.group_by {
            let (next, count) = column_ids(&eval_view(key, ctx, threads).ok()?, n, threads).ok()?;
            ids = Some(match ids {
                None => (next, count),
                Some((prev, _)) => assign_ids(n, threads, |k| (prev[k], next[k])).ok()?,
            });
        }
        let (ids, count) = ids.expect("GROUP BY has at least one key");
        Groups::from_ids(&ids, count)
    };

    let mut call_cells: Vec<Vec<Cell>> = Vec::with_capacity(calls.len());
    for call in &calls {
        call_cells.push(aggregate_call(call, ctx, &groups, threads)?);
    }
    let first_cells = |c: usize| -> Vec<Cell> {
        groups
            .iter()
            .map(|g| g.first().map_or(Cell::Null, |&k| ctx.columns[c].cell_at(ctx.rows.phys(k))))
            .collect()
    };

    // Compound items evaluate per group through the scalar evaluator,
    // over a virtual row of [aggregate results..., first-row values...]
    // with the aggregate calls replaced by references into it.
    let mut virtual_cols: Vec<BoundCol> = calls
        .iter()
        .enumerate()
        .map(|(i, c)| BoundCol {
            qualifier: None,
            name: format!("hq_agg_{i}"),
            ty: derive_type(c, ctx.cols),
        })
        .collect();
    virtual_cols.extend(firsts.iter().map(|&c| ctx.cols[c].clone()));
    let mut virtual_rows: Option<Vec<Vec<Cell>>> = None;

    let mut out_cols = Vec::with_capacity(items.len());
    let mut out_columns = Vec::with_capacity(items.len());
    for (i, (alias, e)) in items.into_iter().enumerate() {
        let cells: Vec<Cell> = match e {
            SqlExpr::Literal(c) => vec![c.clone(); groups.len()],
            SqlExpr::Column { qualifier, name } => {
                first_cells(resolve_column(ctx.cols, qualifier.as_deref(), name).ok()?)
            }
            _ => match calls.iter().position(|c| c == e) {
                Some(ci) => call_cells[ci].clone(),
                None => {
                    let rows = virtual_rows.get_or_insert_with(|| {
                        let firsts: Vec<Vec<Cell>> = firsts.iter().map(|&c| first_cells(c)).collect();
                        (0..groups.len())
                            .map(|g| {
                                call_cells.iter().chain(&firsts).map(|cells| cells[g].clone()).collect()
                            })
                            .collect()
                    });
                    let sub = substitute_nodes(e.clone(), &calls, "hq_agg_");
                    let mut cells = Vec::with_capacity(rows.len());
                    for row in rows.iter() {
                        cells.push(eval(&sub, &virtual_cols, row).ok()?);
                    }
                    cells
                }
            },
        };
        let ty = derive_type(e, ctx.cols);
        out_cols.push(Column::new(alias.clone().unwrap_or_else(|| default_output_name(e, i)), ty));
        out_columns.push(ColumnVec::from_cells(ty, cells));
    }
    Some(Batch::new(out_cols, out_columns, groups.len()))
}

/// One aggregate call's result per group. The argument is evaluated
/// once, as a vector over all selected rows; groups fold independently
/// (chunked across workers when large), each over its rows in ascending
/// order, so results do not depend on the worker count.
fn aggregate_call(
    call: &SqlExpr,
    ctx: &Ctx<'_>,
    groups: &Groups,
    threads: usize,
) -> Option<Vec<Cell>> {
    let SqlExpr::Func { name, args, distinct } = call else { return None };
    if name == "count" && matches!(args.first(), Some(SqlExpr::Star)) {
        // count(*) short-circuits before DISTINCT handling in the row
        // pipeline too.
        return Some(groups.iter().map(|g| Cell::Int(g.len() as i64)).collect());
    }
    let arg = eval_view(args.first()?, ctx, threads).ok()?;
    if parallel::should_parallelize(ctx.rows.len(), threads) && groups.len() > 1 {
        let ranges = parallel::even_ranges(groups.len(), threads * 4);
        let chunks = parallel::run_ranges(ranges, threads, "aggregate", |_, range| {
            range.map(|g| fold_group(name, *distinct, &arg, groups.get(g))).collect::<Result<Vec<Cell>, _>>()
        });
        return Some(chunks.ok()?.concat());
    }
    groups.iter().map(|g| fold_group(name, *distinct, &arg, g)).collect::<Result<_, _>>().ok()
}

#[derive(Clone, Copy, PartialEq)]
enum AggKind {
    Sum,
    Avg,
    Min,
    Max,
}

/// One aggregate over one group, value-identical to the row pipeline's
/// `compute_aggregate`: `hq_first`/`hq_last` see the raw group, every
/// other aggregate its non-NULL values — for DISTINCT, each value's
/// first occurrence by canonical [`CellKey`] — in ascending row order.
/// sum/avg/min/max over Int/Float storage fold typed (same f64
/// accumulation order, same NaN-keeps-current min/max); everything else
/// folds through the row pipeline's own [`fold_cells`].
fn fold_group(
    name: &str,
    distinct: bool,
    arg: &View<'_>,
    group: &[usize],
) -> Result<Cell, DbError> {
    let col: &ColumnVec = &arg.col;
    if matches!(name, "hq_first" | "hq_last") {
        let pos = if name == "hq_first" { group.first() } else { group.last() };
        return Ok(pos.map_or(Cell::Null, |&k| arg.cell_at(k)));
    }
    let mut seen: HashSet<CellKey> = HashSet::new();
    let live = group
        .iter()
        .map(|&k| arg.rows.phys(k))
        .filter(|&i| !col.is_null(i) && (!distinct || seen.insert(col.key_at(i))));
    let kind = match name {
        "count" => return Ok(Cell::Int(live.count() as i64)),
        "sum" => Some(AggKind::Sum),
        "avg" => Some(AggKind::Avg),
        "min" => Some(AggKind::Min),
        "max" => Some(AggKind::Max),
        _ => None,
    };
    match (col, kind) {
        (ColumnVec::Int(d, _), Some(kind)) => {
            Ok(fold_numeric(kind, live.map(|i| d[i]), |x| x as f64, Cell::Int, true))
        }
        (ColumnVec::Float(d, _), Some(kind)) => {
            Ok(fold_numeric(kind, live.map(|i| d[i]), |x| x, Cell::Float, false))
        }
        _ => {
            let values: Vec<Cell> = live.map(|i| col.cell_at(i)).collect();
            fold_cells(name, &values)
        }
    }
}

/// Shared sum/avg/min/max fold over a typed numeric iterator.
///
/// `as_f64` mirrors `Cell::as_f64`; `wrap` rebuilds the storage cell;
/// `int_sum` applies the row pipeline's all-Int rule (`sum` of an
/// integer column comes back as `Int(f64_total as i64)`).
fn fold_numeric<T: Copy>(
    kind: AggKind,
    values: impl Iterator<Item = T>,
    as_f64: impl Fn(T) -> f64,
    wrap: impl Fn(T) -> Cell,
    int_sum: bool,
) -> Cell {
    match kind {
        AggKind::Sum | AggKind::Avg => {
            let mut acc = 0.0f64;
            let mut count = 0usize;
            for v in values {
                acc += as_f64(v);
                count += 1;
            }
            if count == 0 {
                Cell::Null
            } else if kind == AggKind::Avg {
                Cell::Float(acc / count as f64)
            } else if int_sum {
                Cell::Int(acc as i64)
            } else {
                Cell::Float(acc)
            }
        }
        AggKind::Min | AggKind::Max => {
            let mut best: Option<T> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    // Replace only on a strict ordering, exactly like
                    // fold_extreme: incomparable (NaN) keeps current.
                    Some(b) => match as_f64(v).partial_cmp(&as_f64(b)) {
                        Some(std::cmp::Ordering::Greater) if kind == AggKind::Max => v,
                        Some(std::cmp::Ordering::Less) if kind == AggKind::Min => v,
                        _ => b,
                    },
                });
            }
            best.map(wrap).unwrap_or(Cell::Null)
        }
    }
}

/// One side's join key, or `None` when a NULL key column under plain
/// `=` disqualifies the row (the batch dual of `join_key`).
fn batch_join_key(
    columns: &[&ColumnVec],
    pairs: &[EquiPair],
    right_side: bool,
    i: usize,
) -> Option<Vec<CellKey>> {
    let mut key = Vec::with_capacity(pairs.len());
    for p in pairs {
        let c = &columns[if right_side { p.right } else { p.left }];
        if c.is_null(i) && !p.nulls_match {
            return None;
        }
        key.push(c.key_at(i));
    }
    Some(key)
}

/// How a join ran (`pgdb_exec_join_total{strategy}`).
#[derive(Clone, Copy)]
enum JoinStrategy {
    /// Equality keys only.
    Hash,
    /// Keys (possibly none: one bucket) and a per-pair residual.
    HashResidual,
    /// A sorted-interval probe inside each key bucket.
    Interval,
    /// The row pipeline's nested loop: some conjunct can fail.
    NestedLoop,
}

/// Count one join as started: how it runs.
fn count_join(strategy: JoinStrategy) {
    static COUNTERS: std::sync::OnceLock<[Arc<obs::Counter>; 4]> = std::sync::OnceLock::new();
    let counters = COUNTERS.get_or_init(|| {
        ["hash", "hash_residual", "interval", "nested_loop"].map(|s| {
            obs::global_registry().counter(&format!("pgdb_exec_join_total{{strategy=\"{s}\"}}"))
        })
    });
    counters[strategy as usize].inc();
}

/// Count a finished join's probe work: the pairs it proposed and the
/// pairs that matched — its useful-work ratio.
fn count_join_pairs(candidates: usize, pairs: &JoinPairs) {
    static COUNTERS: std::sync::OnceLock<[Arc<obs::Counter>; 2]> = std::sync::OnceLock::new();
    let [proposed, matched] = COUNTERS.get_or_init(|| {
        ["pgdb_exec_join_candidates_total", "pgdb_exec_join_matches_total"]
            .map(|name| obs::global_registry().counter(name))
    });
    proposed.add(candidates as u64);
    matched.add(pairs.1.iter().flatten().count() as u64);
}

/// The probe of one left row: appends to `.2` the right rows, ascending,
/// that left row `.0` can match within key bucket `.1`.
type Candidates<'a> = Box<dyn Fn(usize, usize, &mut Vec<usize>) + Sync + 'a>;

/// Order every key bucket for the interval probe and return that probe.
/// `keys(c)` is joined column `c`'s values as the comparison kernels
/// order them, `None` in NULL slots.
///
/// Rows whose `lo` is NULL (or `hi`, unless a NULL `hi` leaves the
/// interval open) can never match and are dropped; the rest sort by
/// `lo`, stably. A left value `x` then admits a prefix of the bucket by
/// its lower bound. Where the bucket's `hi` turns out non-decreasing in
/// that order too — `lead(lo)` over the same ordering always is — the
/// rows `x` stays under form a suffix, and the candidates are the run
/// between two binary searches; elsewhere the prefix is checked row by
/// row.
fn interval_candidates<'a, T: PartialOrd + Copy + Send + Sync + 'a>(
    iv: Interval,
    split: usize,
    keys: impl Fn(usize) -> Option<Vec<Option<T>>>,
    mut buckets: Vec<Vec<usize>>,
) -> Candidates<'a> {
    let keys = |c| keys(c).expect("infallible bounds share one ordered storage class");
    let (x, lo) = (keys(iv.x), keys(split + iv.lo.col));
    let hi = iv.hi.map(|b| keys(split + b.col));
    let open = iv.hi.is_some_and(|b| b.open_on_null);
    let hi_strict = iv.hi.is_some_and(|b| b.strict);
    // Is `x` past a row's upper bound `h` (`None`: the open end)?
    let past = move |h: Option<T>, x: T| h.is_some_and(|h| if hi_strict { h <= x } else { h < x });
    let mut hi_sorted = Vec::with_capacity(buckets.len());
    for rows in &mut buckets {
        rows.retain(|&ri| lo[ri].is_some() && hi.as_ref().is_none_or(|hi| open || hi[ri].is_some()));
        rows.sort_by(|&a, &b| lo[a].partial_cmp(&lo[b]).expect("ordered storage has no NaN"));
        hi_sorted.push(hi.as_ref().is_some_and(|hi| {
            rows.windows(2).all(|w| match (hi[w[0]], hi[w[1]]) {
                (_, None) => true,
                (None, Some(_)) => false,
                (Some(a), Some(b)) => a <= b,
            })
        }));
    }
    Box::new(move |li, b, out| {
        let Some(x) = x[li] else { return };
        let rows = &buckets[b];
        let reached = rows.partition_point(|&ri| {
            let lo = lo[ri].expect("NULL bounds were dropped");
            if iv.lo.strict {
                lo < x
            } else {
                lo <= x
            }
        });
        let reached = &rows[..reached];
        let from = out.len();
        match &hi {
            None => out.extend_from_slice(reached),
            Some(hi) if hi_sorted[b] => {
                out.extend_from_slice(&reached[reached.partition_point(|&ri| past(hi[ri], x))..])
            }
            Some(hi) => out.extend(reached.iter().copied().filter(|&ri| !past(hi[ri], x))),
        }
        out[from..].sort_unstable();
    })
}

/// The matching row pairs of `l JOIN r ON cond` (INNER or LEFT):
/// left-major, each left row's matches in right insertion order —
/// the nested loop's output, without the loop.
///
/// One build/probe operator, driven by the condition's [`JoinShape`].
/// Build buckets the right rows by the equality keys (no keys: one
/// bucket) and, under an interval, orders each bucket for
/// [`interval_candidates`]. The probe takes left rows in order (large
/// sides morsel by morsel; per-morsel runs concatenate in morsel order,
/// which is the serial output), proposes each one's candidates from its
/// bucket, and narrows them through the residual a morsel's worth of
/// pairs at a time.
///
/// Proposing fewer than all pairs skips conjuncts for the pairs left
/// out, which is unobservable only if none of them can fail: a
/// condition that is not [`vector::infallible`] as a whole runs as the
/// row pipeline's nested loop instead, so it fails for the same pair
/// with the same error.
fn join_pairs(
    l: &ColFrame,
    r: &ColFrame,
    cols: &[BoundCol],
    cond: &SqlExpr,
    kind: JoinType,
    threads: usize,
) -> Result<JoinPairs, DbError> {
    let (lcolumns, rcolumns) = (l.refs(), r.refs());
    let split = lcolumns.len();
    let columns: Vec<&ColumnVec> = lcolumns.iter().chain(&rcolumns).copied().collect();

    if !vector::infallible(cond, &Ctx { cols, columns: &columns, rows: Rows::all(0), pair: None }) {
        row_fallback(Fallback::NonEquiJoin, l.len + r.len);
        count_join(JoinStrategy::NestedLoop);
        let load = |slot: &mut Cell, c: usize, i: usize| *slot = columns[c].cell_at(i);
        let pairs = nested_loop_join(cols, split, (l.len, r.len), load, cond, kind)?;
        count_join_pairs(l.len * r.len, &pairs);
        return Ok(pairs);
    }

    let shape = JoinShape::analyze(cond, &l.cols, &r.cols);
    count_join(match (&shape.interval, shape.residual.is_empty()) {
        (Some(_), _) => JoinStrategy::Interval,
        (None, true) => JoinStrategy::Hash,
        (None, false) => JoinStrategy::HashResidual,
    });
    let mut index: HashMap<Vec<CellKey>, usize> = HashMap::new();
    let mut buckets: Vec<Vec<usize>> = Vec::new();
    if shape.keys.is_empty() {
        buckets.push((0..r.len).collect());
    } else {
        for ri in 0..r.len {
            if let Some(key) = batch_join_key(&rcolumns, &shape.keys, true, ri) {
                let b = *index.entry(key).or_insert(buckets.len());
                if b == buckets.len() {
                    buckets.push(Vec::new());
                }
                buckets[b].push(ri);
            }
        }
    }
    let bucket_of = |li: usize| {
        if shape.keys.is_empty() {
            return Some(0);
        }
        index.get(&batch_join_key(&lcolumns, &shape.keys, false, li)?).copied()
    };
    let candidates: Candidates<'_> = match shape.interval {
        None => Box::new(move |_, b, out| out.extend_from_slice(&buckets[b])),
        Some(iv) if matches!(lcolumns[iv.x], ColumnVec::Text(..)) => {
            interval_candidates(iv, split, |c| vector::text_keys(columns[c]), buckets)
        }
        Some(iv) => interval_candidates(iv, split, |c| vector::num_keys(columns[c]), buckets),
    };

    let probe = |range: Range<usize>| -> Result<(JoinPairs, usize), DbError> {
        let (mut lidx, mut ridx) = (Vec::new(), Vec::new());
        let (mut cand_l, mut cand_r) = (Vec::new(), Vec::new());
        let mut proposed = 0;
        // First left row whose pairs are still among the candidates.
        let mut pending = range.start;
        for li in range.clone() {
            if let Some(b) = bucket_of(li) {
                candidates(li, b, &mut cand_r);
                cand_l.resize(cand_r.len(), li);
            }
            if cand_r.len() < parallel::MORSEL_ROWS && li + 1 < range.end {
                continue;
            }
            proposed += cand_r.len();
            vector::filter_pairs(&shape.residual, cols, &columns, split, &mut cand_l, &mut cand_r)?;
            let mut k = 0;
            for row in pending..=li {
                let first = k;
                while k < cand_l.len() && cand_l[k] == row {
                    k += 1;
                }
                if k > first {
                    lidx.extend_from_slice(&cand_l[first..k]);
                    ridx.extend(cand_r[first..k].iter().map(|&ri| Some(ri)));
                } else if kind == JoinType::Left {
                    lidx.push(row);
                    ridx.push(None);
                }
            }
            cand_l.clear();
            cand_r.clear();
            pending = li + 1;
        }
        Ok(((lidx, ridx), proposed))
    };
    let (pairs, proposed) = if parallel::should_parallelize(l.len, threads) {
        let chunks = parallel::run_morsels(l.len, threads, "join_probe", |_, range| probe(range))?;
        let (mut pairs, mut proposed) = (JoinPairs::default(), 0);
        for ((lidx, ridx), n) in chunks {
            pairs.0.extend(lidx);
            pairs.1.extend(ridx);
            proposed += n;
        }
        (pairs, proposed)
    } else {
        probe(0..l.len)?
    };
    count_join_pairs(proposed, &pairs);
    Ok(pairs)
}

/// Evaluate a FROM item into a columnar frame.
fn eval_from_batch(src: &dyn TableSource, item: &FromItem) -> Result<ColFrame, DbError> {
    match item {
        FromItem::Table { name, alias } => {
            let batch =
                src.get_table_batch(name).ok_or_else(|| DbError::undefined_table(name))?;
            Ok(ColFrame::scan(batch, alias.as_deref().unwrap_or(name)))
        }
        FromItem::Subquery { query, alias } => {
            Ok(ColFrame::from_batch(run_select_batch(src, query)?, alias))
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
            Ok(ColFrame::from_parts(cols, data))
        }
        FromItem::Join { kind, left, right, on } => {
            let l = eval_from_batch(src, left)?;
            let r = eval_from_batch(src, right)?;
            let (lcolumns, rcolumns) = (l.refs(), r.refs());
            let owned = |columns: Vec<ColumnVec>| columns.into_iter().map(FrameCol::Owned).collect();
            let mut cols = l.cols.clone();
            cols.extend(r.cols.clone());
            match kind {
                JoinType::Cross => {
                    let total = l.len * r.len;
                    let mut lidx = Vec::with_capacity(total);
                    let mut ridx = Vec::with_capacity(total);
                    for li in 0..l.len {
                        for ri in 0..r.len {
                            lidx.push(li);
                            ridx.push(ri);
                        }
                    }
                    let mut columns: Vec<ColumnVec> =
                        lcolumns.iter().map(|c| c.take(&lidx)).collect();
                    columns.extend(rcolumns.iter().map(|c| c.take(&ridx)));
                    Ok(ColFrame { cols, columns: owned(columns), len: total })
                }
                JoinType::Inner | JoinType::Left => {
                    let cond =
                        on.as_ref().ok_or_else(|| DbError::syntax("JOIN requires ON"))?;
                    let threads = src.exec_threads();
                    let (lidx, ridx) = join_pairs(&l, &r, &cols, cond, *kind, threads)?;
                    // Both sides gather by index, partitioned across
                    // workers when the output is large.
                    let gather = |range: Range<usize>| {
                        let mut columns: Vec<ColumnVec> =
                            lcolumns.iter().map(|c| c.take(&lidx[range.clone()])).collect();
                        columns.extend(
                            rcolumns.iter().map(|c| c.take_opt(&ridx[range.clone()])),
                        );
                        columns
                    };
                    let columns = if parallel::should_parallelize(lidx.len(), threads)
                        && !cols.is_empty()
                    {
                        concat_columns(parallel::run_morsels(
                            lidx.len(),
                            threads,
                            "join_gather",
                            |_, range| Ok(gather(range)),
                        )?)
                    } else {
                        gather(0..lidx.len())
                    };
                    Ok(ColFrame { cols, columns: owned(columns), len: lidx.len() })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::Stmt;
    use crate::sql::parse_statement;

    fn select(sql: &str) -> Batch {
        match parse_statement(sql).unwrap() {
            // No tables at all: everything projects over the unit relation.
            Stmt::Select(s) => run_select_batch(&Tables(Vec::new()), &s).unwrap(),
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    /// The FROM-less scalar source is the explicit zero-column, one-row
    /// unit relation (`Batch::unit`), not the row pipeline's
    /// `vec![vec![]]` hack — and it projects exactly one row.
    #[test]
    fn from_less_select_projects_over_the_unit_relation() {
        assert_eq!(ColFrame::unit().len, 1);
        assert!(ColFrame::unit().cols.is_empty());
        assert_eq!(Batch::unit().rows(), 1);
        assert!(Batch::unit().schema.is_empty());

        let b = select("SELECT 1 + 1 AS two");
        assert_eq!(b.rows(), 1);
        assert_eq!(b.schema.len(), 1);
        assert_eq!(b.columns[0].cell_at(0), Cell::Int(2));
    }

    /// Named in-memory tables.
    struct Tables(Vec<(&'static str, crate::types::Rows)>);
    impl TableSource for Tables {
        fn get_table(&self, name: &str) -> Option<(Vec<Column>, Vec<Vec<Cell>>)> {
            let (_, rows) = self.0.iter().find(|(n, _)| *n == name)?;
            Some((rows.columns.clone(), rows.data.clone()))
        }
        fn exec_threads(&self) -> usize {
            1
        }
    }

    fn join_strategy_count(strategy: &str) -> u64 {
        obs::global_registry()
            .counter_value(&format!("pgdb_exec_join_total{{strategy=\"{strategy}\"}}"))
    }

    mod join_oracle {
        use super::*;
        use crate::exec::run_select_rows;
        use proptest::prelude::*;

        /// Storage classes of the as-of columns: three that order
        /// without fail (two of them comparable with each other) and
        /// Float, whose NaN makes every bound fallible.
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Class {
            Int,
            Time,
            Text,
            Float,
        }

        fn class() -> impl Strategy<Value = Class> {
            prop_oneof![Just(Class::Int), Just(Class::Time), Just(Class::Text), Just(Class::Float)]
        }

        /// A small domain, so duplicates and exact hits are common;
        /// `None` is NULL.
        fn asof_cell(class: Class, v: Option<u8>) -> Cell {
            let Some(v) = v else { return Cell::Null };
            match class {
                Class::Int => Cell::Int(v as i64),
                Class::Time => Cell::Time(v as i64 * 1_000),
                Class::Text => Cell::Text(format!("t{v}")),
                Class::Float if v == 0 => Cell::Float(f64::NAN),
                Class::Float => Cell::Float(v as f64 / 2.0),
            }
        }

        fn pg_type(class: Class) -> PgType {
            match class {
                Class::Int => PgType::Int8,
                Class::Time => PgType::Time,
                Class::Text => PgType::Varchar,
                Class::Float => PgType::Float8,
            }
        }

        fn key_cell(v: Option<u8>) -> Cell {
            v.map_or(Cell::Null, |v| Cell::Int(v as i64))
        }

        /// One generated join: both tables and the statement's parts.
        #[derive(Debug)]
        struct Case {
            left_class: Class,
            right_class: Class,
            /// k1, k2, k3, t, a
            left: Vec<Vec<Option<u8>>>,
            /// j1, j2, j3, lo, hi, b
            right: Vec<Vec<Option<u8>>>,
            left_join: bool,
            /// Per key column in use: `IS NOT DISTINCT FROM`, operands swapped.
            keys: Vec<(bool, bool)>,
            /// 0 none, then `lo <= t`, `lo < t`, `t >= lo`, `t > lo`.
            lower: usize,
            /// 0 none, then `t < hi`, `t <= hi`, `hi > t`, `hi >= t`.
            upper: usize,
            open_on_null: bool,
            /// `hi` is `lead(lo)` over the first key instead of the stored column.
            lead_hi: bool,
            /// 0 none, 1 infallible, 2 fallible.
            residual: usize,
        }

        fn case() -> impl Strategy<Value = Case> {
            let rows = |width: usize, max: usize| {
                prop::collection::vec(
                    prop::collection::vec(prop::option::of(0u8..4), width..=width),
                    0..max,
                )
            };
            let bounds = (0usize..5, 0usize..5, any::<bool>(), any::<bool>());
            let keys = prop::collection::vec((any::<bool>(), any::<bool>()), 0..4);
            let residual = (0usize..9).prop_map(|r| [0, 0, 0, 0, 1, 1, 1, 1, 2][r]);
            ((class(), class(), rows(5, 7), rows(6, 9)), (any::<bool>(), keys, bounds, residual)).prop_map(
                |(
                    (left_class, right_class, left, right),
                    (left_join, keys, (lower, upper, open_on_null, lead_hi), residual),
                )| Case {
                    left_class,
                    right_class,
                    left,
                    right,
                    left_join,
                    keys,
                    lower,
                    upper,
                    open_on_null,
                    lead_hi,
                    residual,
                },
            )
        }

        impl Case {
            fn tables(&self) -> Tables {
                let col = |n: &str, ty| Column::new(n, ty);
                let (lt, rt) = (pg_type(self.left_class), pg_type(self.right_class));
                let int = PgType::Int8;
                let left = self
                    .left
                    .iter()
                    .map(|r| {
                        let mut row: Vec<Cell> = r[..3].iter().map(|k| key_cell(*k)).collect();
                        row.extend([asof_cell(self.left_class, r[3]), key_cell(r[4])]);
                        row
                    })
                    .collect();
                let right = self
                    .right
                    .iter()
                    .map(|r| {
                        let mut row: Vec<Cell> = r[..3].iter().map(|k| key_cell(*k)).collect();
                        row.extend([
                            asof_cell(self.right_class, r[3]),
                            asof_cell(self.right_class, r[4]),
                            key_cell(r[5]),
                        ]);
                        row
                    })
                    .collect();
                let left_columns =
                    vec![col("k1", int), col("k2", int), col("k3", int), col("t", lt), col("a", int)];
                let right_columns = vec![
                    col("j1", int),
                    col("j2", int),
                    col("j3", int),
                    col("lo", rt),
                    col("hi", rt),
                    col("b", int),
                ];
                Tables(vec![
                    ("l", crate::types::Rows { columns: left_columns, data: left }),
                    ("r", crate::types::Rows { columns: right_columns, data: right }),
                ])
            }

            fn sql(&self) -> String {
                let mut conjuncts = Vec::new();
                for (i, (nulls_match, swapped)) in self.keys.iter().enumerate() {
                    let (a, b) = (format!("k{}", i + 1), format!("j{}", i + 1));
                    let (a, b) = if *swapped { (b, a) } else { (a, b) };
                    let op = if *nulls_match { "IS NOT DISTINCT FROM" } else { "=" };
                    conjuncts.push(format!("{a} {op} {b}"));
                }
                let hi = if self.lead_hi { "nx" } else { "hi" };
                match self.lower {
                    0 => {}
                    1 => conjuncts.push("lo <= t".into()),
                    2 => conjuncts.push("lo < t".into()),
                    3 => conjuncts.push("t >= lo".into()),
                    _ => conjuncts.push("t > lo".into()),
                }
                let upper = match self.upper {
                    0 => None,
                    1 => Some(format!("t < {hi}")),
                    2 => Some(format!("t <= {hi}")),
                    3 => Some(format!("{hi} > t")),
                    _ => Some(format!("{hi} >= t")),
                };
                if let Some(upper) = upper {
                    conjuncts.push(match self.open_on_null {
                        true => format!("({upper} OR {hi} IS NULL)"),
                        false => upper,
                    });
                }
                match self.residual {
                    0 => {}
                    1 => conjuncts.push("a <> b".into()),
                    _ => conjuncts.push("1 / (a - b) > 0".into()),
                }
                if conjuncts.is_empty() {
                    conjuncts.push("a <= b".into());
                }
                let right = match self.lead_hi {
                    true => "(SELECT *, lead(lo) OVER (PARTITION BY j1 ORDER BY lo ASC) AS nx FROM r) AS r",
                    false => "r",
                };
                let kind = if self.left_join { "LEFT OUTER" } else { "INNER" };
                format!("SELECT * FROM l {kind} JOIN {right} ON {}", conjuncts.join(" AND "))
            }

            /// Does the statement take the interval probe? (The classes
            /// must order without fail and nothing else may fail.)
            fn expects_interval(&self) -> bool {
                let ordered = |c| matches!(c, Class::Int | Class::Time);
                self.lower != 0
                    && self.residual != 2
                    && ((ordered(self.left_class) && ordered(self.right_class))
                        || (self.left_class == Class::Text && self.right_class == Class::Text))
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2000))]

            /// The join operator against the row pipeline's nested loop:
            /// structurally equal results, and the same error string
            /// when the condition fails for some pair.
            #[test]
            fn join_operator_matches_the_nested_loop(case in case()) {
                let src = case.tables();
                let sql = case.sql();
                let Ok(Stmt::Select(stmt)) = parse_statement(&sql) else {
                    panic!("{sql} does not parse to a SELECT")
                };
                let before = (join_strategy_count("interval"), join_strategy_count("nested_loop"));
                let got = run_select_batch(&src, &stmt);
                match (&got, run_select_rows(&src, &stmt)) {
                    (Ok(b), Ok(rows)) => {
                        let oracle = Batch::from_rows(rows);
                        prop_assert!(
                            b.structurally_equal(&oracle),
                            "{sql}\noperator: {:?}\nnested loop: {:?}",
                            b.to_rows(),
                            oracle.to_rows()
                        );
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, &b, "{}", sql),
                    (a, b) => prop_assert!(false, "{sql}\noperator: {a:?}\nnested loop: {b:?}"),
                }
                // Other tests of this binary join too, so the counters
                // only bound from below.
                if case.expects_interval() {
                    prop_assert!(join_strategy_count("interval") > before.0, "{sql}");
                }
                if case.residual == 2 {
                    prop_assert!(join_strategy_count("nested_loop") > before.1, "{sql}");
                }
            }
        }
    }

    /// A filtered-away unit row yields zero rows, still zero columns
    /// worth of input — the count survives without any column storage.
    #[test]
    fn unit_relation_row_count_survives_where() {
        let b = select("SELECT 1 AS one WHERE false");
        assert_eq!(b.rows(), 0);
        let b = select("SELECT 1 AS one WHERE true");
        assert_eq!(b.rows(), 1);
    }
}
