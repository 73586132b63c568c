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
//! [`aggregate_batch_fast`] and non-equi joins do the same — each
//! hand-over counted in `pgdb_exec_row_fallback_total{reason}`.
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
    contains_subquery, default_output_name, extract_equi_pairs, fold_cells, parallel,
    project_block, resolve_subqueries, substitute_nodes, EquiPair, Frame, TableSource,
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
    let ctx = Ctx { cols: &frame.cols, columns: &columns, rows };

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
        let combined = Ctx { cols: &cols, columns: &columns, rows: Rows::all(out.rows()) };
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
                    if let Some(pairs) = extract_equi_pairs(cond, &l.cols, &r.cols) {
                        // Hash equi-join: build on the right (serial —
                        // the built table is shared read-only), probe
                        // the left in order, gather both sides by index
                        // (left-major output, right insertion order —
                        // identical to the row pipeline's hash_join).
                        // Large probe sides partition across workers;
                        // per-morsel (lidx, ridx) runs concatenate in
                        // morsel order, i.e. the serial probe output.
                        let threads = src.exec_threads();
                        let mut index: HashMap<Vec<CellKey>, Vec<usize>> =
                            HashMap::with_capacity(r.len);
                        for ri in 0..r.len {
                            if let Some(k) = batch_join_key(&rcolumns, &pairs, true, ri) {
                                index.entry(k).or_default().push(ri);
                            }
                        }
                        let probe = |range: Range<usize>| {
                            let mut lidx = Vec::new();
                            let mut ridx: Vec<Option<usize>> = Vec::new();
                            for li in range {
                                if let Some(matches) =
                                    batch_join_key(&lcolumns, &pairs, false, li)
                                        .and_then(|k| index.get(&k))
                                {
                                    for &ri in matches {
                                        lidx.push(li);
                                        ridx.push(Some(ri));
                                    }
                                    continue;
                                }
                                if *kind == JoinType::Left {
                                    lidx.push(li);
                                    ridx.push(None);
                                }
                            }
                            (lidx, ridx)
                        };
                        let (lidx, ridx) = if parallel::should_parallelize(l.len, threads) {
                            let chunks = parallel::run_morsels(
                                l.len,
                                threads,
                                "join_probe",
                                |_, range| Ok(probe(range)),
                            )?;
                            let mut lidx = Vec::new();
                            let mut ridx = Vec::new();
                            for (lc, rc) in chunks {
                                lidx.extend(lc);
                                ridx.extend(rc);
                            }
                            (lidx, ridx)
                        } else {
                            probe(0..l.len)
                        };
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
                    } else {
                        // Non-equi conditions: materialize and run the
                        // row pipeline's exact nested loop.
                        row_fallback(Fallback::NonEquiJoin, l.len + r.len);
                        let all = |f: &ColFrame| {
                            f.to_frame(Rows::all(f.len), &(0..f.cols.len()).collect::<Vec<_>>()).rows
                        };
                        let (lrows, rrows) = (all(&l), all(&r));
                        let mut rows = Vec::new();
                        for lr in &lrows {
                            let mut matched = false;
                            for rr in &rrows {
                                let mut row = lr.clone();
                                row.extend(rr.clone());
                                if matches!(eval(cond, &cols, &row)?, Cell::Bool(true)) {
                                    rows.push(row);
                                    matched = true;
                                }
                            }
                            if !matched && *kind == JoinType::Left {
                                let mut row = lr.clone();
                                row.extend(std::iter::repeat_n(Cell::Null, r.cols.len()));
                                rows.push(row);
                            }
                        }
                        Ok(ColFrame::from_parts(cols, rows))
                    }
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

    /// A source with no tables at all — everything must project over
    /// the unit relation.
    struct NoTables;
    impl TableSource for NoTables {
        fn get_table(&self, _name: &str) -> Option<(Vec<Column>, Vec<Vec<Cell>>)> {
            None
        }
    }

    fn select(sql: &str) -> Batch {
        match parse_statement(sql).unwrap() {
            Stmt::Select(s) => run_select_batch(&NoTables, &s).unwrap(),
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
