//! Client-side merge of per-shard partials.
//!
//! The planner ([`super::planner`]) proves a statement shard-safe and
//! emits a merge *spec*; this module executes it: a k-way ordered merge
//! for scatter scans ([`merge_scan`]) and an engine-semantics
//! re-aggregation over a scratch instance for two-phase aggregates
//! ([`merge_agg`]). It also owns the per-shard outcome collapse
//! ([`gather`]): all-success passes through, pure SQL errors surface as
//! the single-node error, lost shards become a typed partial failure.

use super::PARTIALS;
use crate::wire::{ShardFailure, WireError, WireErrorKind};
use pgdb::{Batch, BatchQueryResult, Cell, Column, Rows};
use std::cmp::Ordering as CmpOrdering;

/// Pass-through scatter: same SQL per shard (with hidden sort keys and
/// the ordinal appended), k-way ordered merge client-side.
#[derive(Debug, Clone)]
pub struct ScanSpec {
    /// SQL executed verbatim on every shard.
    pub shard_sql: String,
    /// Output columns visible to the caller (hidden ones are stripped).
    pub visible: usize,
    /// Merge comparison keys: (column index in shard output, desc).
    pub keys: Vec<(usize, bool)>,
    /// Index of the ordinal tie-break column (always last).
    pub ord_idx: usize,
    /// Row cap applied during the merge (the per-shard LIMIT bounds each
    /// input; this bounds the merged output).
    pub limit: Option<u64>,
}

/// Distributive re-aggregation: per-shard partials, merged by running a
/// rewritten aggregate over a scratch single-node instance (so merge
/// semantics match the engine by construction).
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Per-shard partial-aggregate SQL.
    pub shard_sql: String,
    /// Merge SQL, run over the concatenated partials in `__hq_partials`.
    pub merge_sql: String,
    /// Caller-visible output columns (the trailing `__hq_ho` group
    /// order key is stripped).
    pub visible: usize,
}

pub(crate) fn expect_batch(r: BatchQueryResult) -> Result<Batch, WireError> {
    match r {
        BatchQueryResult::Batch(b) => Ok(b),
        BatchQueryResult::Command(t) => {
            Err(WireError::protocol(format!("shard returned a command tag ({t}) for a scatter query")))
        }
    }
}

/// Collapse per-shard outcomes. All-success passes through; pure SQL
/// errors surface as the lowest shard's error (the same statement fails
/// identically on the coordinator, so the surface matches single-node);
/// anything wire-shaped becomes a typed partial-failure error naming
/// the lost shards and the partials that did arrive.
pub(crate) fn gather<T>(results: Vec<Result<T, WireError>>) -> Result<Vec<T>, WireError> {
    if results.iter().all(|r| r.is_ok()) {
        return Ok(results.into_iter().map(|r| r.unwrap()).collect());
    }
    let mut failed = Vec::new();
    let mut arrived = Vec::new();
    let mut first_db: Option<WireError> = None;
    let mut all_db = true;
    for (i, r) in results.iter().enumerate() {
        match r {
            Ok(_) => arrived.push(i),
            Err(e) => {
                failed.push((i, e.to_string()));
                if e.kind == WireErrorKind::Db {
                    if first_db.is_none() {
                        first_db = Some(e.clone());
                    }
                } else {
                    all_db = false;
                }
            }
        }
    }
    if all_db {
        return Err(first_db.expect("at least one failure"));
    }
    obs::global_registry().counter("shard_degraded_total").inc();
    Err(WireError::shard_partial(ShardFailure { failed, arrived }))
}

/// K-way ordered merge of per-shard scan results.
pub fn merge_scan(batches: Vec<Batch>, spec: &ScanSpec) -> Result<Batch, WireError> {
    let schema: Vec<Column> = batches[0].schema[..spec.visible].to_vec();
    let mut cursors: Vec<(Vec<Vec<Cell>>, usize)> =
        batches.iter().map(|b| (b.to_rows().data, 0)).collect();
    let row_cmp = |a: &[Cell], b: &[Cell]| -> CmpOrdering {
        for (idx, desc) in &spec.keys {
            let o = a[*idx].sort_cmp(&b[*idx]);
            let o = if *desc { o.reverse() } else { o };
            if o != CmpOrdering::Equal {
                return o;
            }
        }
        // The ordinal is globally unique, so ties never span shards.
        a[spec.ord_idx].sort_cmp(&b[spec.ord_idx])
    };
    let cap = spec.limit.map(|l| l as usize).unwrap_or(usize::MAX);
    let mut data: Vec<Vec<Cell>> = Vec::new();
    while data.len() < cap {
        let mut best: Option<usize> = None;
        for ci in 0..cursors.len() {
            if cursors[ci].1 >= cursors[ci].0.len() {
                continue;
            }
            best = Some(match best {
                None => ci,
                Some(bi) => {
                    let a = &cursors[ci].0[cursors[ci].1];
                    let b = &cursors[bi].0[cursors[bi].1];
                    if row_cmp(a, b) == CmpOrdering::Less {
                        ci
                    } else {
                        bi
                    }
                }
            });
        }
        let Some(bi) = best else { break };
        let pos = cursors[bi].1;
        cursors[bi].1 += 1;
        let mut row = cursors[bi].0[pos].clone();
        row.truncate(spec.visible);
        data.push(row);
    }
    Ok(Batch::from_rows(Rows { columns: schema, data }))
}

/// Re-aggregate per-shard partials on a scratch single-node instance:
/// inject the concatenated partial rows (sorted by the group-order key
/// so `hq_first` sees the globally first row first) and run the merge
/// select — the merge inherits the engine's aggregation semantics by
/// construction.
pub fn merge_agg(batches: Vec<Batch>, spec: &AggSpec) -> Result<Batch, WireError> {
    let schema = batches[0].schema.clone();
    let ho = schema.len() - 1;
    let mut rows: Vec<Vec<Cell>> = Vec::new();
    for b in &batches {
        rows.extend(b.to_rows().data);
    }
    // Null group-order keys (empty shards in scalar aggregation) sort
    // last so they can never claim a group's first row.
    rows.sort_by(|a, b| match (&a[ho], &b[ho]) {
        (Cell::Null, Cell::Null) => CmpOrdering::Equal,
        (Cell::Null, _) => CmpOrdering::Greater,
        (_, Cell::Null) => CmpOrdering::Less,
        (x, y) => x.sort_cmp(y),
    });
    let db = pgdb::Db::new();
    db.put_table(PARTIALS, schema.clone(), rows);
    match db.session().execute_batch(&spec.merge_sql) {
        Ok(BatchQueryResult::Batch(b)) => {
            let n = spec.visible;
            Ok(Batch::new(b.schema[..n].to_vec(), b.columns[..n].to_vec(), b.rows()))
        }
        Ok(BatchQueryResult::Command(t)) => {
            Err(WireError::protocol(format!("merge select returned a command tag ({t})")))
        }
        Err(e) => Err(WireError::from(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdb::PgType;

    fn batch(rows: Vec<Vec<Cell>>) -> Batch {
        Batch::from_rows(Rows {
            columns: vec![
                Column::new("v", PgType::Int8),
                Column::new("k", PgType::Int8),
                Column::new("__hq_ord", PgType::Int8),
            ],
            data: rows,
        })
    }

    fn row(v: i64, k: i64, ord: i64) -> Vec<Cell> {
        vec![Cell::Int(v), Cell::Int(k), Cell::Int(ord)]
    }

    #[test]
    fn merge_scan_interleaves_by_key_then_ordinal() {
        // Two shards, sorted per shard by (k, ord); ties on k resolve by
        // the globally unique ordinal, reproducing insertion order.
        let a = batch(vec![row(10, 1, 0), row(30, 1, 4), row(50, 2, 6)]);
        let b = batch(vec![row(20, 1, 1), row(40, 2, 3)]);
        let spec = ScanSpec {
            shard_sql: String::new(),
            visible: 2,
            keys: vec![(1, false)],
            ord_idx: 2,
            limit: None,
        };
        let merged = merge_scan(vec![a, b], &spec).unwrap();
        let got: Vec<i64> = merged
            .to_rows()
            .data
            .iter()
            .map(|r| match r[0] {
                Cell::Int(v) => v,
                _ => panic!("int expected"),
            })
            .collect();
        assert_eq!(got, vec![10, 20, 30, 40, 50]);
        // Hidden ordinal is stripped from the output.
        assert_eq!(merged.schema.len(), 2);
    }

    #[test]
    fn merge_scan_descending_keys_and_limit_cap() {
        let a = batch(vec![row(3, 3, 2), row(1, 1, 0)]);
        let b = batch(vec![row(4, 4, 3), row(2, 2, 1)]);
        let spec = ScanSpec {
            shard_sql: String::new(),
            visible: 1,
            keys: vec![(1, true)],
            ord_idx: 2,
            limit: Some(3),
        };
        let merged = merge_scan(vec![a, b], &spec).unwrap();
        let got: Vec<Vec<Cell>> = merged.to_rows().data;
        assert_eq!(got, vec![vec![Cell::Int(4)], vec![Cell::Int(3)], vec![Cell::Int(2)]]);
    }

    #[test]
    fn merge_agg_refolds_partials_with_engine_semantics() {
        // Partials: (group key g, count partial c, min-ordinal __hq_ho).
        let part = |g: i64, c: i64, ho: Cell| vec![Cell::Int(g), Cell::Int(c), ho];
        let schema = vec![
            Column::new("__hq_g0", PgType::Int8),
            Column::new("__hq_p0", PgType::Int8),
            Column::new("__hq_ho", PgType::Int8),
        ];
        let a = Batch::from_rows(Rows {
            columns: schema.clone(),
            data: vec![part(1, 2, Cell::Int(5)), part(2, 1, Cell::Int(0))],
        });
        // An empty shard's scalar partial would carry a NULL order key;
        // here shard b contributes to group 1 only.
        let b = Batch::from_rows(Rows {
            columns: schema,
            data: vec![part(1, 3, Cell::Int(2))],
        });
        let spec = AggSpec {
            shard_sql: String::new(),
            merge_sql: "SELECT __hq_g0 AS g, sum(__hq_p0) AS n, min(__hq_ho) AS __hq_ho \
                        FROM __hq_partials GROUP BY __hq_g0 ORDER BY __hq_ho"
                .to_string(),
            visible: 2,
        };
        let merged = merge_agg(vec![a, b], &spec).unwrap();
        // Group 2 was seen globally first (ordinal 0), so it leads.
        assert_eq!(
            merged.to_rows().data,
            vec![vec![Cell::Int(2), Cell::Int(1)], vec![Cell::Int(1), Cell::Int(5)]]
        );
    }

    #[test]
    fn gather_surfaces_db_errors_and_types_wire_losses() {
        // All-Db failures collapse to the first shard's error (identical
        // to the coordinator's single-node surface).
        let db_err = || WireError::new(WireErrorKind::Db, "boom");
        let r: Result<Vec<i32>, _> = gather(vec![Ok(1), Err(db_err()), Err(db_err())]);
        assert_eq!(r.unwrap_err().kind, WireErrorKind::Db);
        // A wire-shaped loss becomes a typed partial failure.
        let r: Result<Vec<i32>, _> =
            gather(vec![Ok(1), Err(WireError::lost("shard 1 vanished"))]);
        assert_eq!(r.unwrap_err().kind, WireErrorKind::ShardPartial);
        // All-success passes through untouched.
        assert_eq!(gather(vec![Ok(1), Ok(2)]).unwrap(), vec![1, 2]);
    }
}
