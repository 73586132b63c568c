//! Columnar (batch-at-a-time) SELECT execution over [`ColumnVec`]s.
//!
//! This is pgdb's executor (DESIGN §10). A scan borrows the stored
//! batch ([`FrameCol::Shared`]), WHERE yields a selection vector over
//! it, and projection, grouping, window functions and ordering read the
//! surviving rows through that selection — a column is gathered once,
//! into the result, and only if the block still references it. All
//! expression evaluation goes through the one vector evaluator in
//! [`vector`](super::vector); the result leaves as a [`Batch`] so the
//! engine, the gateway pivot, and QIPC encoding never re-transpose it.
//!
//! Semantics are defined by the row-major pipeline in `oracle`, which
//! is compiled for tests and debug builds only. There every statement
//! entering [`run_select_batch`] is re-run on it, once, derived tables
//! and subqueries included: values must agree structurally; when both
//! sides fail they may differ in *which* error they report
//! (column-major evaluation order visits rows in a different sequence),
//! which counts as agreement.

use super::expr::{self, derive_type, eval, resolve_column, BoundCol};
use super::vector::{
    self, eval_column, eval_row, eval_val, referenced_columns, Ctx, Rows, View,
};
use super::{
    block_types, bound_cols, collect_windows, fold_cells, output_schema, resolve_where,
    select_items, set_op_types, substitute_nodes, values_batch, EquiPair, Interval, JoinShape,
    TableSource,
};
use crate::engine::DbError;
use crate::sql::ast::*;
use crate::types::{Cell, PgType};
use colstore::{Batch, CellKey, ColumnVec, Validity};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::ops::Deref;
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

/// Column-major intermediate result.
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
    /// columns to read.
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

/// Execute a SELECT statement, returning the result as a batch — the
/// statement entry: nested blocks (derived tables, `IN (SELECT ...)`)
/// run through [`run_select_columnar`].
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

/// Execute a SELECT statement: its blocks, left-folded through their
/// chained set operations (with an incremental `seen` key set). Each
/// step's output columns are of the types the two sides resolve to
/// ([`set_op_types`]); both sides take them before they meet.
fn run_select_columnar(src: &dyn TableSource, stmt: &SelectStmt) -> Result<Batch, DbError> {
    let mut out = run_block_batch(src, stmt)?;
    let mut cursor = &stmt.set_op;
    let mut seen: Option<HashSet<Vec<CellKey>>> = None;
    let mut types = block_types(stmt, &out.schema);
    while let Some((op, rhs)) = cursor {
        let right = run_block_batch(src, rhs)?;
        if right.schema.len() != out.schema.len() {
            return Err(DbError::exec("set operation column count mismatch"));
        }
        types = set_op_types(&types, &block_types(rhs, &right.schema));
        out = retype(out, &types)?;
        let right = retype(right, &types)?;
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

/// `batch` with each column of `types` (an untyped one keeps its own).
fn retype(mut batch: Batch, types: &[Option<PgType>]) -> Result<Batch, DbError> {
    let rows = batch.rows();
    let mut columns = Vec::with_capacity(types.len());
    let columns_in = std::mem::take(&mut batch.columns);
    for ((col, c), ty) in columns_in.into_iter().zip(&mut batch.schema).zip(types) {
        c.ty = ty.unwrap_or(c.ty);
        columns.push(col.into_class(c.ty)?);
    }
    Ok(Batch::new(batch.schema, columns, rows))
}

/// Execute one SELECT block (no set ops), column-major.
fn run_block_batch(src: &dyn TableSource, stmt: &SelectStmt) -> Result<Batch, DbError> {
    // Uncorrelated subqueries are resolved up front, on this engine.
    let stmt = resolve_where(stmt, &|query| run_select_columnar(src, query).map(Batch::into_rows))?;
    let stmt = &*stmt;
    let has_agg = !stmt.group_by.is_empty()
        || stmt.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Wildcard => false,
        });

    // FROM.
    let ColFrame { mut cols, columns: storage, len } = match &stmt.from {
        Some(item) => eval_from_batch(src, item)?,
        None => ColFrame::unit(),
    };
    let mut columns: Vec<&ColumnVec> = storage.iter().map(|c| &**c).collect();

    // WHERE (3VL: keep definite TRUE only) yields a selection vector;
    // nothing is gathered here.
    let sel: Option<Vec<usize>> = match &stmt.where_clause {
        None => None,
        Some(pred) => Some(vector::filter(pred, &cols, &columns, len)?),
    };
    let rows = match &sel {
        Some(sel) => Rows::Sel(sel),
        None => Rows::All(len),
    };
    let ctx = Ctx { cols: &cols, columns: &columns, rows, pair: None };

    if has_agg {
        return order_and_page(stmt, aggregate_batch(stmt, &ctx)?, None);
    }

    // Window functions: each distinct one becomes a column beside the
    // frame's, computed over the selected rows and read in place; the
    // items then reference it like any other column.
    let mut items = select_items(stmt, &cols);
    let mut windows = Vec::new();
    for (_, e) in &items {
        collect_windows(e, &mut windows);
    }
    let mut window_columns = Vec::with_capacity(windows.len());
    for w in &windows {
        window_columns.push((derive_type(w, &cols), window_column(w, &ctx)?));
    }
    let pair = (!windows.is_empty()).then(|| (columns.len(), Rows::All(rows.len())));
    for (i, (ty, column)) in window_columns.iter().enumerate() {
        cols.push(BoundCol { qualifier: None, name: format!("hq_win_{i}"), ty: *ty });
        columns.push(column);
    }
    if !windows.is_empty() {
        items = items
            .into_iter()
            .map(|(alias, e)| (alias, substitute_nodes(e, &windows, "hq_win_")))
            .collect();
    }
    let ctx = Ctx { cols: &cols, columns: &columns, rows, pair };

    // Projection: each item evaluates over the selected rows straight
    // into its output column.
    let mut out_columns = Vec::with_capacity(items.len());
    for (_, e) in &items {
        out_columns.push(eval_column(e, &ctx)?);
    }
    let out = Batch::new(output_schema(&items, &cols), out_columns, rows.len());

    // ORDER BY resolves output aliases first, then input columns.
    order_and_page(stmt, out, Some(&ctx))
}

/// The cells of each ORDER BY key over the rows of `ctx`.
fn order_keys(order_by: &[(SqlExpr, bool)], ctx: &Ctx<'_>) -> Result<Vec<Vec<Cell>>, DbError> {
    order_by.iter().map(|(e, _)| Ok(eval_column(e, ctx)?.into_cells())).collect()
}

/// Sort row numbers by their [`order_keys`]: `Cell::sort_cmp` key by
/// key, DESC by reversal, ties keeping the order they came in.
fn sort_rows(rows: &mut [usize], keys: &[Vec<Cell>], order_by: &[(SqlExpr, bool)]) {
    rows.sort_by(|&a, &b| {
        for (k, (_, desc)) in keys.iter().zip(order_by) {
            let ord = k[a].sort_cmp(&k[b]);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
}

/// One window function over the rows of `ctx`: its value per row.
///
/// Rows are partitioned as GROUP BY groups them ([`group_rows`]:
/// first-seen partition order, rows ascending), each partition is sorted
/// by the window's ORDER BY, and the function is positional access
/// within it: `row_number`/`rank` count, `lead`/`lag`/`first_value`/
/// `last_value` (whole-partition frame) name, per row, the row whose
/// argument value they take. The argument is evaluated once, as a
/// vector, and gathered. If that fails for some row, it is evaluated
/// for just the rows some output row takes its value from — `lead`
/// never reads a partition's first row — which is when the oracle
/// fails too.
fn window_column(w: &SqlExpr, ctx: &Ctx<'_>) -> Result<ColumnVec, DbError> {
    let SqlExpr::WindowFunc { name, args, partition_by, order_by } = w else {
        return Err(DbError::exec("not a window function"));
    };
    let n = ctx.rows.len();
    let ty = derive_type(w, ctx.cols);
    if n == 0 {
        // No row, no partition: not even the function's name is looked at.
        return Ok(ColumnVec::empty(ty));
    }
    let mut partitions = group_rows(partition_by, ctx)?;
    let keys = order_keys(order_by, ctx)?;
    if !order_by.is_empty() {
        for g in 0..partitions.len() {
            sort_rows(partitions.get_mut(g), &keys, order_by);
        }
    }

    let mut source: Vec<Option<usize>> = vec![None; n];
    match name.as_str() {
        "row_number" | "rank" => {
            let mut out = vec![0i64; n];
            for part in partitions.iter() {
                let mut rank = 1;
                for (i, &row) in part.iter().enumerate() {
                    let tied = name == "rank"
                        && i > 0
                        && keys.iter().all(|k| k[row].not_distinct(&k[part[i - 1]]));
                    if !tied {
                        rank = i as i64 + 1;
                    }
                    out[row] = rank;
                }
            }
            return Ok(ColumnVec::Int(out, Validity::all_valid(n)));
        }
        "lead" => partitions.iter().flat_map(|p| p.windows(2)).for_each(|ab| source[ab[0]] = Some(ab[1])),
        "lag" => partitions.iter().flat_map(|p| p.windows(2)).for_each(|ab| source[ab[1]] = Some(ab[0])),
        "first_value" | "last_value" => {
            for part in partitions.iter() {
                let from = if name == "first_value" { part.first() } else { part.last() };
                part.iter().for_each(|&row| source[row] = from.copied());
            }
        }
        other => return Err(DbError::exec(format!("unknown window function {other}"))),
    }
    let Some(arg) = args.first() else { return Ok(ColumnVec::nulls(ty, n)) };
    match eval_view(arg, ctx) {
        Ok(arg) => {
            let phys: Vec<Option<usize>> =
                source.iter().map(|s| s.map(|k| arg.rows.phys(k))).collect();
            Ok(arg.col.take_opt(&phys))
        }
        Err(_) => {
            let cells: Result<Vec<Cell>, DbError> =
                source.iter().map(|s| s.map_or(Ok(Cell::Null), |k| eval_row(arg, ctx, k))).collect();
            Ok(ColumnVec::from_cells(ty, cells?)?)
        }
    }
}

/// ORDER BY + OFFSET/LIMIT over an output batch. `input` supplies the
/// pre-projection columns (and the rows of them that were projected)
/// for ORDER BY resolution in non-aggregate blocks — output aliases
/// take precedence; aggregate output orders over its own columns only.
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
                gathered.push(match input.rows_of(i) {
                    Rows::All(len) => {
                        debug_assert_eq!(input.columns[i].len(), len, "Rows::All length");
                        Cow::Borrowed(input.columns[i])
                    }
                    rows => Cow::Owned(input.columns[i].take(&rows.to_vec())),
                });
            }
        }
        let columns: Vec<&ColumnVec> = out.columns.iter().chain(gathered.iter().map(|c| &**c)).collect();
        let combined =
            Ctx { cols: &cols, columns: &columns, rows: Rows::All(out.rows()), pair: None };
        let keys = order_keys(&stmt.order_by, &combined)?;
        let mut idx: Vec<usize> = (0..out.rows()).collect();
        sort_rows(&mut idx, &keys, &stmt.order_by);
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

    fn get_mut(&mut self, g: usize) -> &mut [usize] {
        &mut self.rows[self.starts[g]..self.starts[g + 1]]
    }

    fn iter(&self) -> impl Iterator<Item = &[usize]> {
        (0..self.len()).map(|g| self.get(g))
    }
}

/// Dense ids, in first-seen order, for `n` rows keyed by `key`, and the
/// number of distinct keys.
fn assign_ids<K: Hash + Eq>(n: usize, key: impl Fn(usize) -> K) -> (Vec<usize>, usize) {
    let mut index = HashMap::new();
    let ids = (0..n)
        .map(|k| {
            let next = index.len();
            *index.entry(key(k)).or_insert(next)
        })
        .collect();
    (ids, index.len())
}

/// [`assign_ids`] over one key column, keyed without allocation where
/// the storage has one obvious key; any other storage goes through its
/// canonical [`CellKey`], which the typed keys agree with.
fn column_ids(view: &View<'_>, n: usize) -> (Vec<usize>, usize) {
    let phys = |k: usize| view.rows.phys(k);
    match &*view.col {
        ColumnVec::Text(d, v) => assign_ids(n, |k| {
            let i = phys(k);
            (!v.is_null(i)).then(|| d[i].as_str())
        }),
        ColumnVec::Int(d, v) => assign_ids(n, |k| {
            let i = phys(k);
            (!v.is_null(i)).then(|| d[i])
        }),
        ColumnVec::Date(d, v) => assign_ids(n, |k| {
            let i = phys(k);
            (!v.is_null(i)).then(|| d[i])
        }),
        col => assign_ids(n, |k| col.key_at(phys(k))),
    }
}

/// `e` in column form. A bare column stays borrowed.
fn eval_view<'a>(e: &SqlExpr, ctx: &Ctx<'a>) -> Result<View<'a>, DbError> {
    eval_val(e, ctx)?.into_view(ctx.rows.len(), derive_type(e, ctx.cols))
}

/// The rows of `ctx` bucketed by the values of `keys` — GROUP BY's
/// groups, PARTITION BY's partitions — in first-seen order, each
/// bucket's rows ascending. No keys: one bucket. Each key column gets
/// dense ids; a further key refines the ids so far pairwise, and
/// first-seen order carries through both steps.
fn group_rows(keys: &[SqlExpr], ctx: &Ctx<'_>) -> Result<Groups, DbError> {
    let n = ctx.rows.len();
    if keys.is_empty() {
        return Ok(Groups::single(n));
    }
    let mut ids: Option<(Vec<usize>, usize)> = None;
    for key in keys {
        let (next, count) = column_ids(&eval_view(key, ctx)?, n);
        ids = Some(match ids {
            None => (next, count),
            Some((prev, _)) => assign_ids(n, |k| (prev[k], next[k])),
        });
    }
    let (ids, count) = ids.expect("at least one key");
    Ok(Groups::from_ids(&ids, count))
}

/// The aggregate calls (outermost ones) and the frame columns `e` reads
/// outside them, appended to `calls` / `firsts`. A reference that does
/// not resolve is left for evaluation to report.
fn collect_agg_refs(e: &SqlExpr, cols: &[BoundCol], calls: &mut Vec<SqlExpr>, firsts: &mut Vec<usize>) {
    let mut visit = |x: &SqlExpr| collect_agg_refs(x, cols, calls, firsts);
    match e {
        SqlExpr::Func { name, .. } if is_aggregate_name(name) => {
            if !calls.contains(e) {
                calls.push(e.clone());
            }
        }
        SqlExpr::Column { qualifier, name } => {
            if let Ok(i) = resolve_column(cols, qualifier.as_deref(), name) {
                if !firsts.contains(&i) {
                    firsts.push(i);
                }
            }
        }
        SqlExpr::Binary { lhs, rhs, .. } => {
            visit(lhs);
            visit(rhs);
        }
        SqlExpr::Not(x) | SqlExpr::Neg(x) => visit(x),
        SqlExpr::Func { args, .. } => args.iter().for_each(visit),
        SqlExpr::Case { branches, else_result } => {
            for (c, r) in branches {
                visit(c);
                visit(r);
            }
            if let Some(x) = else_result {
                visit(x);
            }
        }
        SqlExpr::Cast { expr, .. } | SqlExpr::IsNull { expr, .. } => visit(expr),
        SqlExpr::InList { expr, list, .. } => {
            visit(expr);
            list.iter().for_each(visit);
        }
        // Evaluating these in aggregate context is an error.
        SqlExpr::Literal(_) | SqlExpr::Star | SqlExpr::WindowFunc { .. } | SqlExpr::InSubquery { .. } => {}
    }
}

/// The aggregate operator: group once into dense ids, then HAVING and
/// every select item evaluate per group through the scalar evaluator
/// over a virtual row of [aggregate results..., first-row values of the
/// bare columns...], the aggregate calls replaced by references into it.
///
/// An aggregate's argument is evaluated eagerly — once, as a vector
/// over all selected rows, folded per group — when that evaluation
/// succeeds, which proves it could not have failed for any row. When it
/// fails, whether the statement fails depends on which groups and rows
/// the result is ever asked for: HAVING drops groups, `CASE` guards
/// calls, `hq_first` reads one row, no row means no group. That call is
/// then computed lazily ([`aggregate_group`]): per group, row by row,
/// at the moment the virtual row is read — the evaluations the oracle
/// performs, and their errors. Expressions with nested aggregates and
/// calls without an argument take the same route to the same errors.
fn aggregate_batch(stmt: &SelectStmt, ctx: &Ctx<'_>) -> Result<Batch, DbError> {
    let groups = group_rows(&stmt.group_by, ctx)?;
    let mut items = Vec::with_capacity(stmt.items.len());
    for item in &stmt.items {
        let SelectItem::Expr { expr, alias } = item else {
            return Err(DbError::exec("SELECT * with GROUP BY is not supported"));
        };
        items.push((alias.clone(), expr.clone()));
    }
    let mut calls = Vec::new();
    let mut firsts = Vec::new();
    for e in items.iter().map(|(_, e)| e).chain(&stmt.having) {
        collect_agg_refs(e, ctx.cols, &mut calls, &mut firsts);
    }
    // Frame order, so a reference's first match in the virtual row is
    // its first match in the frame.
    firsts.sort_unstable();
    let eager: Vec<Option<Vec<Cell>>> =
        calls.iter().map(|call| aggregate_call(call, ctx, &groups).ok()).collect();

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
    // Slot `slot` of group `g`'s virtual row.
    let read = |g: usize, slot: usize| -> Result<Cell, DbError> {
        match eager.get(slot) {
            Some(Some(results)) => Ok(results[g].clone()),
            Some(None) => aggregate_group(&calls[slot], ctx, groups.get(g)),
            None => {
                let c = firsts[slot - calls.len()];
                let first = groups.get(g).first();
                Ok(first.map_or(Cell::Null, |&k| ctx.columns[c].cell_at(ctx.rows_of(c).phys(k))))
            }
        }
    };
    let in_group =
        |e: &SqlExpr, g: usize| expr::eval_with(e, &virtual_cols, &mut |slot| read(g, slot));
    let over_results = |e: &SqlExpr| substitute_nodes(e.clone(), &calls, "hq_agg_");

    let mut kept: Vec<usize> = (0..groups.len()).collect();
    if let Some(having) = &stmt.having {
        let having = over_results(having);
        let mut passed = Vec::new();
        for g in kept {
            if matches!(in_group(&having, g)?, Cell::Bool(true)) {
                passed.push(g);
            }
        }
        kept = passed;
    }

    let schema = output_schema(&items, ctx.cols);
    let mut out_columns = Vec::with_capacity(items.len());
    for ((_, e), column) in items.iter().zip(&schema) {
        let e = over_results(e);
        // One slot of the virtual row — a bare aggregate call or
        // column: resolve the name once, not per group.
        let slot = match &e {
            SqlExpr::Column { qualifier, name } => {
                resolve_column(&virtual_cols, qualifier.as_deref(), name).ok()
            }
            _ => None,
        };
        let cells: Result<Vec<Cell>, DbError> = match slot {
            Some(slot) => kept.iter().map(|&g| read(g, slot)).collect(),
            None => kept.iter().map(|&g| in_group(&e, g)).collect(),
        };
        out_columns.push(ColumnVec::from_cells(column.ty, cells?)?);
    }
    Ok(Batch::new(schema, out_columns, kept.len()))
}

/// An aggregate call's name, DISTINCT flag and argument — `None` for
/// `count(*)`, which short-circuits before DISTINCT handling.
fn call_parts(call: &SqlExpr) -> Result<(&str, bool, Option<&SqlExpr>), DbError> {
    let SqlExpr::Func { name, args, distinct } = call else {
        return Err(DbError::exec("not an aggregate call"));
    };
    match args.first() {
        Some(SqlExpr::Star) if name == "count" => Ok((name, *distinct, None)),
        Some(arg) => Ok((name, *distinct, Some(arg))),
        None => Err(DbError::exec(format!("{name}: missing argument"))),
    }
}

/// One aggregate call's result per group, eagerly. The argument is
/// evaluated once, as a vector over all selected rows; each group folds
/// over its rows in ascending order.
fn aggregate_call(call: &SqlExpr, ctx: &Ctx<'_>, groups: &Groups) -> Result<Vec<Cell>, DbError> {
    let (name, distinct, Some(arg)) = call_parts(call)? else {
        return Ok(groups.iter().map(|g| Cell::Int(g.len() as i64)).collect());
    };
    let arg = eval_view(arg, ctx)?;
    groups.iter().map(|g| fold_group(name, distinct, &arg, g)).collect()
}

/// One aggregate call over one group, its argument evaluated row by
/// row for exactly the rows the oracle reads: the group's rows in
/// order — for `hq_first`/`hq_last`, its first/last row only.
fn aggregate_group(call: &SqlExpr, ctx: &Ctx<'_>, group: &[usize]) -> Result<Cell, DbError> {
    let (name, distinct, Some(arg)) = call_parts(call)? else {
        return Ok(Cell::Int(group.len() as i64));
    };
    let read = match name {
        "hq_first" => &group[..group.len().min(1)],
        "hq_last" => &group[group.len().saturating_sub(1)..],
        _ => group,
    };
    let cells: Result<Vec<Cell>, DbError> = read.iter().map(|&k| eval_row(arg, ctx, k)).collect();
    let col = ColumnVec::from_cells(derive_type(arg, ctx.cols), cells?)?;
    let all: Vec<usize> = (0..read.len()).collect();
    fold_group(name, distinct, &View { col: Cow::Owned(col), rows: Rows::All(read.len()) }, &all)
}

#[derive(Clone, Copy, PartialEq)]
enum AggKind {
    Sum,
    Avg,
    Min,
    Max,
}

/// One aggregate over one group, value-identical to the oracle's
/// `compute_aggregate`: `hq_first`/`hq_last` see the raw group, every
/// other aggregate its non-NULL values — for DISTINCT, each value's
/// first occurrence by canonical [`CellKey`] — in ascending row order.
/// sum/avg/min/max over Int/Float storage fold typed (same f64
/// accumulation order, same NaN-keeps-current min/max); everything else
/// folds through [`fold_cells`], which the oracle folds with too.
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
/// `int_sum` applies [`fold_cells`]' all-Int rule (`sum` of an
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
/// `=` disqualifies the row.
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
    /// Every pair, through the scalar evaluator: some conjunct can fail.
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

/// Candidate pairs the join probe collects before narrowing them
/// through the residual: a bound on the probe's scratch vectors.
const PROBE_CHUNK_PAIRS: usize = 65_536;

/// Matched row pairs of a join, in output order: left row `.0[k]` joins
/// right row `.1[k]` — `None` for a LEFT join's unmatched left row.
pub(crate) type JoinPairs = (Vec<usize>, Vec<Option<usize>>);

/// The join operator's fourth strategy, the nested loop: `cond` for
/// every (left, right) pair, left-major, so the first pair that fails to
/// evaluate is the error — the one way to run a condition that can
/// fail, and the oracle's own non-equi join. The condition
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
    referenced_columns(cond, cols, &mut reads);
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

/// The probe of one left row: appends to `.2` the right rows, ascending,
/// that left row `.0` can match within key bucket `.1`.
type Candidates<'a> = Box<dyn Fn(usize, usize, &mut Vec<usize>) + 'a>;

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
fn interval_candidates<'a, T: PartialOrd + Copy + 'a>(
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
/// [`interval_candidates`]. The probe takes left rows in order, proposes
/// each one's candidates from its bucket, and narrows them through the
/// residual [`PROBE_CHUNK_PAIRS`] pairs at a time.
///
/// Proposing fewer than all pairs skips conjuncts for the pairs left
/// out, which is unobservable only if none of them can fail: a
/// condition that is not [`vector::infallible`] as a whole runs as the
/// [`nested_loop_join`] instead, so it fails for the pair, and with the
/// error, that evaluating it pair by pair fails for.
fn join_pairs(
    l: &ColFrame,
    r: &ColFrame,
    cols: &[BoundCol],
    cond: &SqlExpr,
    kind: JoinType,
) -> Result<JoinPairs, DbError> {
    let (lcolumns, rcolumns) = (l.refs(), r.refs());
    let split = lcolumns.len();
    let columns: Vec<&ColumnVec> = lcolumns.iter().chain(&rcolumns).copied().collect();

    if !vector::infallible(cond, &Ctx { cols, columns: &columns, rows: Rows::All(0), pair: None }) {
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

    let (mut lidx, mut ridx) = (Vec::new(), Vec::new());
    let (mut cand_l, mut cand_r) = (Vec::new(), Vec::new());
    let mut proposed = 0;
    // First left row whose pairs are still among the candidates.
    let mut pending = 0;
    for li in 0..l.len {
        if let Some(b) = bucket_of(li) {
            candidates(li, b, &mut cand_r);
            cand_l.resize(cand_r.len(), li);
        }
        if cand_r.len() < PROBE_CHUNK_PAIRS && li + 1 < l.len {
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
    let pairs = (lidx, ridx);
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
            Ok(ColFrame::from_batch(values_batch(rows, columns)?, alias))
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
                    let (lidx, ridx) = join_pairs(&l, &r, &cols, cond, *kind)?;
                    // Both sides gather by index.
                    let mut columns: Vec<ColumnVec> =
                        lcolumns.iter().map(|c| c.take(&lidx)).collect();
                    columns.extend(rcolumns.iter().map(|c| c.take_opt(&ridx)));
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
    use crate::types::Column;

    fn select(sql: &str) -> Batch {
        match parse_statement(sql).unwrap() {
            // No tables at all: everything projects over the unit relation.
            Stmt::Select(s) => run_select_batch(&Tables(Vec::new()), &s).unwrap(),
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    /// The FROM-less scalar source is the explicit zero-column, one-row
    /// unit relation (`Batch::unit`) — and it projects exactly one row.
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
        fn get_table_batch(&self, name: &str) -> Option<Arc<Batch>> {
            let (_, rows) = self.0.iter().find(|(n, _)| *n == name)?;
            Some(Arc::new(Batch::from_rows(rows.clone())))
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

            /// The join operator against the oracle's nested loop:
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

    mod block_oracle {
        use super::*;
        use crate::exec::run_select_rows;
        use proptest::prelude::*;

        /// Generated tables `t(k1, k2, x, v, s)` and `u(k1, w)` — cells
        /// from small domains, `None` is NULL — and the choices that
        /// pick each statement's parts.
        #[derive(Debug)]
        struct Case {
            t: Vec<Vec<Option<u8>>>,
            u: Vec<Vec<Option<u8>>>,
            picks: Vec<usize>,
        }

        fn case() -> impl Strategy<Value = Case> {
            let rows = |width: usize, max: usize| {
                prop::collection::vec(
                    prop::collection::vec(prop::option::of(0u8..4), width..=width),
                    0..max,
                )
            };
            (rows(5, 12), rows(2, 5), prop::collection::vec(0usize..1 << 16, 24..=24))
                .prop_map(|(t, u, picks)| Case { t, u, picks })
        }

        /// The next choice among `n`.
        struct Picks<'a>(std::slice::Iter<'a, usize>);

        impl Picks<'_> {
            fn pick(&mut self, n: usize) -> usize {
                self.0.next().expect("enough picks for one statement") % n
            }

            fn of<'s>(&mut self, options: &[&'s str]) -> &'s str {
                options[self.pick(options.len())]
            }
        }

        const FILTERS: [&str; 5] =
            ["", " WHERE x > 0", " WHERE k1 IS NOT NULL", " WHERE false", " WHERE s = 'a' OR v > 1"];

        impl Case {
            fn tables(&self) -> Tables {
                let int = |v: Option<u8>| v.map_or(Cell::Null, |v| Cell::Int(v as i64));
                let t = self
                    .t
                    .iter()
                    .map(|r| {
                        vec![
                            int(r[0]),
                            // A float key: NaN (which groups with
                            // itself), -0.0 and 0.0 (one key), 1.0.
                            r[1].map_or(Cell::Null, |v| {
                                Cell::Float([f64::NAN, -0.0, 0.0, 1.0][v as usize])
                            }),
                            // x: -1..=2, zero included for `1 / x`.
                            r[2].map_or(Cell::Null, |v| Cell::Int(v as i64 - 1)),
                            r[3].map_or(Cell::Null, |v| Cell::Float(v as f64 / 2.0)),
                            r[4].map_or(Cell::Null, |v| Cell::Text(["a", "b", "c", "d"][v as usize].into())),
                        ]
                    })
                    .collect();
                let u = self.u.iter().map(|r| vec![int(r[0]), int(r[1])]).collect();
                let col = |n: &str, ty| Column::new(n, ty);
                let t_columns = vec![
                    col("k1", PgType::Int8),
                    col("k2", PgType::Float8),
                    col("x", PgType::Int8),
                    col("v", PgType::Float8),
                    col("s", PgType::Varchar),
                ];
                let u_columns = vec![col("k1", PgType::Int8), col("w", PgType::Int8)];
                Tables(vec![
                    ("t", crate::types::Rows { columns: t_columns, data: t }),
                    ("u", crate::types::Rows { columns: u_columns, data: u }),
                ])
            }

            /// A window block: any of the six functions over 0–2
            /// partition keys (NULL and NaN ones included) and
            /// an ORDER BY with ties and NULLs or none; the call bare,
            /// inside an expression, or twice; WHERE before it and
            /// ORDER BY / LIMIT / OFFSET after; alone or as a derived
            /// table under a join.
            fn window_sql(&self) -> String {
                let mut p = Picks(self.picks.iter());
                let arg = p.of(&["x", "v", "s", "x + 1", "1 / x", "CASE WHEN x > 0 THEN v END"]);
                let call = match p.pick(6) {
                    0 => "row_number()".to_string(),
                    1 => "rank()".to_string(),
                    f => format!("{}({arg})", ["lead", "lag", "first_value", "last_value"][f - 2]),
                };
                let partition = p.of(&["", "k1", "k2", "s", "k1, k2", "k2, s"]);
                let order = p.of(&["", "x ASC", "x DESC", "v DESC, x ASC", "s ASC", "k1 DESC, v ASC"]);
                let mut over = Vec::new();
                if !partition.is_empty() {
                    over.push(format!("PARTITION BY {partition}"));
                }
                if !order.is_empty() {
                    over.push(format!("ORDER BY {order}"));
                }
                let w = format!("{call} OVER ({})", over.join(" "));
                let item = match p.pick(6) {
                    0 | 1 => w.clone(),
                    2 => format!("{w} + 1"),
                    3 => format!("CASE WHEN {w} IS NULL THEN NULL ELSE {w} END"),
                    4 => format!("coalesce({w}, {w})"),
                    _ => format!("{w} IS NULL"),
                };
                let second = match p.pick(3) {
                    0 => String::new(),
                    1 => format!(", {w} AS b"),
                    _ => ", row_number() OVER (PARTITION BY k1 ORDER BY x DESC) AS b".to_string(),
                };
                let filter = p.of(&FILTERS);
                let tail = p.of(&[
                    "",
                    " ORDER BY a DESC, x ASC",
                    " ORDER BY x ASC LIMIT 3",
                    " ORDER BY a ASC LIMIT 2 OFFSET 1",
                    " LIMIT 4 OFFSET 2",
                ]);
                let block = format!("SELECT k1, x, {item} AS a{second} FROM t{filter}");
                match p.pick(4) {
                    0 => format!("SELECT u.w, d.a AS a FROM u JOIN ({block}) AS d ON u.k1 = d.k1{tail}"),
                    1 => format!(
                        "SELECT u.w, d.a AS a FROM u LEFT OUTER JOIN ({block}) AS d ON u.k1 = d.k1{tail}"
                    ),
                    _ => format!("{block}{tail}"),
                }
            }

            /// An aggregate block: plain, DISTINCT and order-sensitive
            /// aggregates, compound items, bare columns, `CASE`s that
            /// guard an aggregate whose argument can fail, `*` and a
            /// nested aggregate; 0–2 group keys; HAVING; a WHERE that
            /// can leave no row (no groups, or the one empty group);
            /// over `t`, or over a join in which `k1` and `t.k1` are
            /// different columns.
            fn aggregate_sql(&self) -> String {
                const ITEMS: [&str; 32] = [
                    "count(*)",
                    "count(x)",
                    "sum(x)",
                    "avg(v)",
                    "min(s)",
                    "max(v)",
                    "count(DISTINCT x)",
                    "sum(DISTINCT x)",
                    "median(v)",
                    "stddev_samp(x)",
                    "bool_or(x > 0)",
                    "hq_first(x)",
                    "hq_last(s)",
                    "hq_first(1 / x)",
                    "hq_last(1 / x)",
                    "sum(1 / x)",
                    "sum(x * v)",
                    "sum(x) + count(*)",
                    "coalesce(sum(v), 0) / count(*)",
                    "hq_last(x) - hq_first(x)",
                    "CASE WHEN min(x) > 0 THEN sum(1 / x) END",
                    "CASE WHEN count(x) = 0 THEN -1 ELSE max(10 / x) END",
                    "(count(*) > 2) AND (max(x) > 0)",
                    "(count(*) > 2) OR (min(v) > 0)",
                    "max(x) IN (1, NULL)",
                    "k1",
                    "t.k1",
                    "s",
                    "k1 + count(*)",
                    "nosuch",
                    "sum(count(*))",
                    "*",
                ];
                let mut p = Picks(self.picks.iter());
                let group = p.of(&["", "k1", "k2", "s", "k1, k2", "x % 2"]);
                let mut items: Vec<String> = (0..1 + p.pick(3))
                    .map(|i| match p.of(&ITEMS) {
                        "*" => "*".to_string(),
                        item => format!("{item} AS c{i}"),
                    })
                    .collect();
                let having = p.of(&[
                    "",
                    "",
                    " HAVING count(*) > 1",
                    " HAVING sum(x) > 0",
                    " HAVING max(1 / x) > 0",
                    " HAVING min(x) > 0 AND count(v) > 0",
                    " HAVING k1 IS NOT NULL",
                ]);
                let from = p.of(&["t", "t", "t", "u JOIN t ON u.w = t.x"]);
                if from != "t" {
                    // `k1` is `u.k1` here, read after `t.k1`.
                    items.extend(["t.k1 AS j0", "k1 AS j1"].map(String::from));
                }
                let filter = p.of(&FILTERS);
                let tail = p.of(&["", " ORDER BY c0 DESC", " ORDER BY c0 ASC LIMIT 2", " LIMIT 2 OFFSET 1"]);
                let group = if group.is_empty() { String::new() } else { format!(" GROUP BY {group}") };
                format!("SELECT {} FROM {from}{filter}{group}{having}{tail}", items.join(", "))
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3000))]

            /// Window and aggregate blocks on the vector path against
            /// the row oracle: structurally equal results, or both fail.
            #[test]
            fn window_and_aggregate_blocks_match_the_oracle(case in case()) {
                let src = case.tables();
                for sql in [case.window_sql(), case.aggregate_sql()] {
                    let Ok(Stmt::Select(stmt)) = parse_statement(&sql) else {
                        panic!("{sql} does not parse to a SELECT")
                    };
                    match (run_select_columnar(&src, &stmt), run_select_rows(&src, &stmt)) {
                        (Ok(b), Ok(rows)) => {
                            let oracle = Batch::from_rows(rows);
                            prop_assert!(
                                b.structurally_equal(&oracle),
                                "{sql}\nvector: {:?}\noracle: {:?}",
                                b.to_rows(),
                                oracle.to_rows()
                            );
                        }
                        (Err(_), Err(_)) => {}
                        (a, b) => prop_assert!(false, "{sql}\nvector: {a:?}\noracle: {b:?}"),
                    }
                }
            }
        }
    }

    /// Both engines on `sql` over one table `t(v)` of three rows, `v`
    /// all NULL: the vector path's result, then the oracle's.
    fn both_engines(sql: &str) -> [Result<Vec<Vec<Cell>>, DbError>; 2] {
        let columns = vec![Column::new("v", PgType::Int8)];
        let src = Tables(vec![("t", crate::types::Rows { columns, data: vec![vec![Cell::Null]; 3] })]);
        let Ok(Stmt::Select(stmt)) = parse_statement(sql) else { panic!("{sql} does not parse") };
        [
            run_select_columnar(&src, &stmt).map(|b| b.into_rows().data),
            crate::exec::run_select_rows(&src, &stmt).map(|r| r.data),
        ]
    }

    /// AND/OR over aggregate results are Kleene in both engines: a
    /// FALSE decides an AND and a TRUE an OR whatever the other operand
    /// is, NULL included; only the undecided corners are NULL.
    #[test]
    fn and_or_over_aggregates_are_kleene() {
        let (t, f, null) = ("count(*) < 5", "count(*) > 5", "max(v) > 0");
        let sql = format!(
            "SELECT ({f}) AND ({null}), ({null}) AND ({f}), ({t}) OR ({null}), ({null}) OR ({t}), \
             ({t}) AND ({null}), ({f}) OR ({null}) FROM t"
        );
        let row = [false, false, true, true].map(Cell::Bool).into_iter().chain([Cell::Null, Cell::Null]);
        let want = vec![row.collect::<Vec<Cell>>()];
        for got in both_engines(&sql) {
            assert_eq!(got.as_ref(), Ok(&want));
        }
    }

    /// The other two places aggregate context used to differ from the
    /// scalar evaluator, in both engines: a NULL in an IN list makes a
    /// miss unknown, and a column that does not exist is an error even
    /// when the one group is empty.
    #[test]
    fn aggregate_context_follows_the_scalar_evaluator() {
        for got in both_engines("SELECT count(*) IN (1, NULL), count(*) IN (3, NULL) FROM t") {
            assert_eq!(got, Ok(vec![vec![Cell::Null, Cell::Bool(true)]]));
        }
        for got in both_engines("SELECT nosuch, count(*) FROM t WHERE false") {
            assert_eq!(got.map_err(|e| e.code), Err("42703".to_string()));
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
