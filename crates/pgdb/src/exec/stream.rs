//! True streaming SELECT execution (DESIGN §12).
//!
//! The narrow-but-hot shape — a single-block scan/filter/project over
//! one stored table, no aggregation, no ordering, no paging — can
//! answer without ever materializing its result: each pull evaluates
//! one ~64K-row morsel of the source (slice → filter → project) and
//! yields it as a bounded [`Batch`] chunk. Peak resident *result* state
//! is one chunk, so the 64 MiB wire-frame ceiling becomes flow control
//! rather than a failure mode.
//!
//! Everything outside the gate falls back to the materializing executor
//! and is re-chunked for transport (bounded frames, not bounded peak
//! memory) — see `Session::execute_stream`.

use super::columnar::ColFrame;
use super::parallel::MORSEL_ROWS;
use super::vector::{self, eval_column, morsel_eligible, Ctx, Rows};
use super::{output_schema, select_items, TableSource};
use crate::engine::DbError;
use crate::sql::ast::*;
use crate::types::Column;
use colstore::{Batch, BatchStream};

/// Build a true-streaming plan for `stmt`, or `None` when the statement
/// is outside the streamable gate (the caller falls back to the
/// materializing path, which also owns producing any resolution error).
///
/// The gate: single block (no set ops), no aggregates / GROUP BY /
/// HAVING / window functions, no ORDER BY / LIMIT / OFFSET (all three
/// need the full result), FROM is exactly one stored table, and every
/// projected or filtered expression is [`morsel_eligible`]
/// (vectorizable and fully resolvable).
pub(crate) fn try_select_stream(
    src: &dyn TableSource,
    stmt: &SelectStmt,
) -> Option<BatchStream<DbError>> {
    if stmt.set_op.is_some()
        || !stmt.group_by.is_empty()
        || stmt.having.is_some()
        || !stmt.order_by.is_empty()
        || stmt.limit.is_some()
        || stmt.offset.is_some()
    {
        return None;
    }
    let Some(FromItem::Table { name, alias }) = &stmt.from else { return None };
    let has_agg_or_window = stmt.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr.contains_aggregate() || expr.contains_window(),
        SelectItem::Wildcard => false,
    });
    if has_agg_or_window {
        return None;
    }

    let frame = ColFrame::scan(src.get_table_batch(name)?, alias.as_deref().unwrap_or(name));
    let cols = &frame.cols;

    let items = select_items(stmt, cols);

    // Every expression must be morsel-eligible.
    let mut exprs = stmt.where_clause.iter().chain(items.iter().map(|(_, e)| e));
    if !exprs.all(|e| morsel_eligible(e, cols)) {
        return None;
    }

    let schema = output_schema(&items, cols);
    let exprs: Vec<SqlExpr> = items.into_iter().map(|(_, e)| e).collect();

    let stream = SelectStream {
        frame,
        where_clause: stmt.where_clause.clone(),
        exprs,
        schema: schema.clone(),
        pos: 0,
        done: false,
    };
    Some(BatchStream::new(schema, stream))
}

/// The pull-based morsel pipeline behind [`try_select_stream`]. The
/// frame borrows the stored table for the life of the stream: a
/// concurrent writer copies on write, the stream keeps its snapshot.
struct SelectStream {
    frame: ColFrame,
    where_clause: Option<SqlExpr>,
    exprs: Vec<SqlExpr>,
    schema: Vec<Column>,
    pos: usize,
    done: bool,
}

impl SelectStream {
    /// Evaluate one source morsel into an output chunk: filter the
    /// morsel's range to a selection, project through it.
    fn chunk(&self, start: usize, len: usize) -> Result<Batch, DbError> {
        let columns = self.frame.refs();
        let sel = match &self.where_clause {
            Some(pred) => Some(vector::filter(pred, &self.frame.cols, &columns, start..start + len)?),
            None => None,
        };
        let rows = match &sel {
            Some(sel) => Rows::Sel(sel),
            None => Rows::Range { start, len },
        };
        let ctx = Ctx { cols: &self.frame.cols, columns: &columns, rows, pair: None };
        let mut out = Vec::with_capacity(self.exprs.len());
        for e in &self.exprs {
            out.push(eval_column(e, &ctx)?);
        }
        Ok(Batch::new(self.schema.clone(), out, rows.len()))
    }
}

impl Iterator for SelectStream {
    type Item = Result<Batch, DbError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done && self.pos < self.frame.len {
            let start = self.pos;
            let len = MORSEL_ROWS.min(self.frame.len - start);
            self.pos += len;
            match self.chunk(start, len) {
                Ok(b) if b.rows() == 0 => continue, // fully filtered morsel
                Ok(b) => return Some(Ok(b)),
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        None
    }
}
