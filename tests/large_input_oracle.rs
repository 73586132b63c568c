//! Large-input oracle gate: statements over a table of more than
//! 200 000 rows, each compared structurally with the row-major oracle
//! (`pgdb::exec::run_select_rows`).
//!
//! The fixture is big enough that the join probe narrows its candidate
//! pairs through the residual in several chunks and every operator sees
//! a ragged tail. The differential oracle and the fuzz slice run small
//! tables; this file is where input size itself is under test.
//!
//! The oracle is compiled into debug builds only, and so is this file.

#![cfg(debug_assertions)]

use pgdb::sql::{parse_statement, Stmt};
use pgdb::{Batch, BatchQueryResult, Cell, Db, Session};

/// Rows in the big fixture: three 65 536-row blocks plus a ragged tail.
const BIG_ROWS: usize = 3 * 65_536 + 1_234;

/// A deterministic fact table: `id` unique, `grp` cycles through 1000
/// groups, `val` floats (every 97th row NULL), `sym` cycles through 8
/// symbols (every 131st row NULL).
fn big_db() -> Db {
    let syms = ["AA", "BB", "CC", "DD", "EE", "FF", "GG", "HH"];
    let columns = vec![
        pgdb::Column::new("id", pgdb::PgType::Int8),
        pgdb::Column::new("grp", pgdb::PgType::Int8),
        pgdb::Column::new("val", pgdb::PgType::Float8),
        pgdb::Column::new("sym", pgdb::PgType::Varchar),
    ];
    let rows: Vec<Vec<Cell>> = (0..BIG_ROWS)
        .map(|i| {
            vec![
                Cell::Int(i as i64),
                Cell::Int((i % 1000) as i64),
                if i % 97 == 0 { Cell::Null } else { Cell::Float((i % 7919) as f64 * 0.5) },
                if i % 131 == 0 {
                    Cell::Null
                } else {
                    Cell::Text(syms[i % syms.len()].to_string())
                },
            ]
        })
        .collect();
    let db = Db::new();
    db.put_table("big", columns, rows);
    // Dimension side for the equi-join: 2000 keys, so only grp values
    // 0..1000 match and half the dimension build side goes unprobed.
    let dim_cols = vec![
        pgdb::Column::new("k", pgdb::PgType::Int8),
        pgdb::Column::new("label", pgdb::PgType::Varchar),
    ];
    let dim_rows: Vec<Vec<Cell>> =
        (0..2000).map(|k| vec![Cell::Int(k), Cell::Text(format!("L{k}"))]).collect();
    db.put_table("dim", dim_cols, dim_rows);
    db
}

fn select(sql: &str) -> pgdb::sql::SelectStmt {
    match parse_statement(sql).unwrap() {
        Stmt::Select(s) => s,
        other => panic!("expected a SELECT for {sql}, got {other:?}"),
    }
}

fn batch(session: &mut Session, sql: &str) -> Batch {
    match session.execute_batch(sql).unwrap() {
        BatchQueryResult::Batch(b) => b,
        other => panic!("expected batch for {sql}, got {other:?}"),
    }
}

/// Filter, projection, grouping, DISTINCT aggregates and the four join
/// strategies, each over the whole big table.
const SHAPES: &[&str] = &[
    // scan + filter + projection (vectorizable predicate and exprs)
    "SELECT id, val * 2.0 AS v2 FROM big WHERE grp > 500 AND val > 100.0",
    // filter keeping almost everything (gather path dominates)
    "SELECT id FROM big WHERE id >= 10",
    // grouped aggregation
    "SELECT grp, sum(val) AS s, count(*) AS n FROM big GROUP BY grp",
    // DISTINCT aggregates on the columnar path
    "SELECT grp, count(DISTINCT sym) AS ds, sum(DISTINCT val) AS dv FROM big GROUP BY grp",
    // scalar aggregate over a filtered input
    "SELECT count(*) AS n, min(val) AS mn, max(val) AS mx FROM big WHERE grp < 900",
    // equi-join: big probe side against a small built side
    "SELECT id, label FROM (SELECT id, grp FROM big) AS f \
     INNER JOIN (SELECT k, label FROM dim) AS d ON grp = k",
    // left join: null-extension (none here) and the gather of both sides
    "SELECT id, label FROM (SELECT id, grp FROM big WHERE val > 2000.0) AS f \
     LEFT OUTER JOIN (SELECT k, label FROM dim) AS d ON grp = k",
    // interval join: each probe row binary-searches the built side's
    // validity intervals (few of them: debug builds cross-check against
    // the nested loop)
    "SELECT id, label FROM (SELECT id, grp FROM big) AS f \
     INNER JOIN (SELECT k, k + 250 AS nx, label FROM dim WHERE k IN (0, 250, 500)) AS d \
     ON k <= grp AND grp < nx",
    // equality key plus a residual over the candidate pairs, which the
    // probe narrows in several chunks
    "SELECT id, label FROM (SELECT id, grp FROM big) AS f \
     LEFT OUTER JOIN (SELECT k, label FROM dim WHERE k < 4) AS d ON grp = k AND id <> 2000",
    // row-wise expression (CASE) over a filtered frame
    "SELECT CASE WHEN grp > 500 THEN val ELSE 0.0 END AS c FROM big WHERE id > 1000",
];

#[test]
fn large_inputs_agree_with_the_row_oracle() {
    let db = big_db();
    let mut session = db.session();
    for sql in SHAPES {
        let got = batch(&mut session, sql);
        let want = Batch::from_rows(pgdb::exec::run_select_rows(&session, &select(sql)).unwrap());
        assert!(got.rows() > 0, "empty result for {sql}");
        assert!(got.structurally_equal(&want), "divergence from the row oracle for {sql}");
    }
}

#[test]
fn large_input_errors_are_pinned() {
    let db = big_db();
    let mut session = db.session();
    // `sym + 1` fails typing at runtime, in the projection and in the
    // WHERE filter; both stop at the first non-NULL `sym` (row 1).
    for sql in [
        "SELECT sym + 1 AS boom FROM big WHERE id >= 0",
        "SELECT id FROM big WHERE sym + 1 > 0",
    ] {
        let err = session.execute_batch(sql).unwrap_err();
        let want = r#"[XX000] arithmetic on Text("BB") and Int(1)"#;
        assert_eq!(err.to_string(), want, "error for {sql}");
    }
}
