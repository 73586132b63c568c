//! Parallel-vs-serial differential gate (DESIGN §12).
//!
//! The morsel-driven executor promises *bit-identical* results at any
//! worker count: canonical merge order makes row order, group order,
//! storage classes, and error identity independent of scheduling. This
//! suite enforces that promise two ways:
//!
//! 1. direct pgdb structural equality on multi-morsel (> 64K-row)
//!    tables across filter / projection / group-by / DISTINCT-aggregate
//!    / equi-join shapes, and error identity, at `exec_threads` 1 vs 4;
//! 2. the full differential-oracle statement list and a fixed-seed qgen
//!    fuzz slice, run under `HQ_EXEC_THREADS` 1 and 4.

use hyperq::side_by_side::SideBySide;
use hyperq_workload::taq::{generate_quotes, generate_trades, TaqConfig};
use pgdb::{Batch, BatchQueryResult, Cell, Db, Session, MORSEL_ROWS};
use qgen::{run_fuzz, FuzzConfig};
use qlang::value::{Table, Value};
use std::sync::Mutex;

/// `HQ_EXEC_THREADS` is process-global; tests that touch it serialize
/// here so concurrently running tests in this binary never observe a
/// half-configured environment.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_exec_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("HQ_EXEC_THREADS", n.to_string());
    let out = f();
    std::env::remove_var("HQ_EXEC_THREADS");
    out
}

// ---------------------------------------------------------------------
// 1. Direct pgdb: multi-morsel tables, serial vs 4-worker bit-equality.
// ---------------------------------------------------------------------

/// Rows in the big fixture: three morsels plus a ragged tail, so every
/// parallel operator splits and the tail range is shorter than a morsel.
const BIG_ROWS: usize = 3 * MORSEL_ROWS + 1_234;

/// A deterministic multi-morsel fact table: `id` unique, `grp` cycles
/// through 1000 groups, `val` floats (every 97th row NULL), `sym`
/// cycles through 8 symbols (every 131st row NULL).
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

fn batch(session: &mut Session, sql: &str) -> Batch {
    match session.execute_batch(sql).unwrap() {
        BatchQueryResult::Batch(b) => b,
        other => panic!("expected batch for {sql}, got {other:?}"),
    }
}

/// The shapes the tentpole parallelizes. Every one is > 1 morsel of
/// input, so the 4-thread run genuinely splits work.
const PARALLEL_SHAPES: &[&str] = &[
    // scan + filter + projection (vectorizable predicate and exprs)
    "SELECT id, val * 2.0 AS v2 FROM big WHERE grp > 500 AND val > 100.0",
    // filter keeping almost everything (gather path dominates)
    "SELECT id FROM big WHERE id >= 10",
    // grouped aggregation, partial tables merged in morsel order
    "SELECT grp, sum(val) AS s, count(*) AS n FROM big GROUP BY grp",
    // DISTINCT aggregates on the columnar path (satellite 1)
    "SELECT grp, count(DISTINCT sym) AS ds, sum(DISTINCT val) AS dv FROM big GROUP BY grp",
    // scalar aggregate over a filtered multi-morsel input
    "SELECT count(*) AS n, min(val) AS mn, max(val) AS mx FROM big WHERE grp < 900",
    // equi-join: big probe side against a small built side
    "SELECT id, label FROM (SELECT id, grp FROM big) AS f \
     INNER JOIN (SELECT k, label FROM dim) AS d ON grp = k",
    // left join null-extends where grp has no dim row (none here) and
    // exercises the parallel gather of both sides
    "SELECT id, label FROM (SELECT id, grp FROM big WHERE val > 2000.0) AS f \
     LEFT OUTER JOIN (SELECT k, label FROM dim) AS d ON grp = k",
    // interval join: the probe side splits into morsels, each binary-
    // searching the built side's validity intervals (few of them: debug
    // builds cross-check against the nested loop)
    "SELECT id, label FROM (SELECT id, grp FROM big) AS f \
     INNER JOIN (SELECT k, k + 250 AS nx, label FROM dim WHERE k IN (0, 250, 500)) AS d \
     ON k <= grp AND grp < nx",
    // equality key plus a residual over the candidate pairs
    "SELECT id, label FROM (SELECT id, grp FROM big) AS f \
     LEFT OUTER JOIN (SELECT k, label FROM dim WHERE k < 4) AS d ON grp = k AND id <> 2000",
    // row-fallback expression (CASE) over the filtered frame: stays
    // serial but must agree after a parallel filter upstream
    "SELECT CASE WHEN grp > 500 THEN val ELSE 0.0 END AS c FROM big WHERE id > 1000",
];

#[test]
fn parallel_execution_is_bit_identical_to_serial() {
    let db = big_db();
    for sql in PARALLEL_SHAPES {
        let mut serial = db.session();
        serial.set_exec_threads(Some(1));
        let mut parallel = db.session();
        parallel.set_exec_threads(Some(4));
        let a = batch(&mut serial, sql);
        let b = batch(&mut parallel, sql);
        assert!(a.structurally_equal(&b), "structural divergence for {sql}");
        assert_eq!(a, b, "bit-level divergence for {sql}");
    }
}

#[test]
fn parallel_errors_match_serial_errors() {
    let db = big_db();
    // `sym + 1` fails typing at runtime; the morsel pool must surface
    // the same canonical error the serial loop stops at.
    for sql in [
        "SELECT sym + 1 AS boom FROM big WHERE id >= 0",
        "SELECT id FROM big WHERE sym + 1 > 0",
    ] {
        let mut serial = db.session();
        serial.set_exec_threads(Some(1));
        let mut parallel = db.session();
        parallel.set_exec_threads(Some(4));
        let ea = serial.execute_batch(sql).unwrap_err();
        let eb = parallel.execute_batch(sql).unwrap_err();
        assert_eq!(ea, eb, "error identity diverged for {sql}");
    }
}

// ---------------------------------------------------------------------
// 2. Oracle + fuzz under HQ_EXEC_THREADS 1 and 4.
// ---------------------------------------------------------------------

fn taq_cfg() -> TaqConfig {
    TaqConfig { rows: 200, symbols: 4, days: 2, seed: 4242 }
}

/// Same fixture as `tests/differential_oracle.rs` (kept in sync by
/// hand — the oracle file pins the statement count).
fn oracle() -> SideBySide {
    let db = pgdb::Db::new();
    let mut f = SideBySide::new(&db);
    f.load("trades", &generate_trades(&taq_cfg())).unwrap();
    f.load("quotes", &generate_quotes(&TaqConfig { rows: 600, ..taq_cfg() })).unwrap();
    let nullable = Table::new(
        vec!["Sym".into(), "Qty".into(), "Px".into()],
        vec![
            Value::Symbols(vec!["A".into(), "B".into(), "A".into(), "C".into(), "B".into()]),
            Value::Longs(vec![10, i64::MIN, 30, i64::MIN, 50]),
            Value::Floats(vec![1.5, 2.5, f64::NAN, 4.0, f64::NAN]),
        ],
    )
    .unwrap();
    f.load("nullable", &nullable).unwrap();
    let refdata = Table::new(
        vec!["Symbol".into(), "Sector".into(), "Lot".into()],
        vec![
            Value::Symbols(vec!["AAPL".into(), "GOOG".into(), "IBM".into()]),
            Value::Symbols(vec!["tech".into(), "tech".into(), "services".into()]),
            Value::Longs(vec![100, 10, 50]),
        ],
    )
    .unwrap();
    f.load("refdata", &refdata).unwrap();
    f
}

/// The oracle statement list, verbatim from `differential_oracle.rs`.
const ORACLE_STATEMENTS: &[&str] = &[
    "select from trades",
    "select Symbol, Price from trades",
    "select Price from trades where Symbol=`GOOG",
    "select Price, Size from trades where Date=2016.06.26",
    "select from trades where Price within 50 150",
    "select Price from trades where Symbol in `GOOG`IBM, Size>100",
    "select Notional: Price*Size from trades where Size>500",
    "exec Price from trades where Symbol=`GOOG",
    "select from quotes where Ask>Bid",
    "select mx: max Price, mn: min Price from trades",
    "select s: sum Size, a: avg Price from trades",
    "select n: count i from trades where Symbol=`IBM",
    "select spread: avg Ask-Bid from quotes",
    "select mx: max Price by Symbol from trades",
    "select s: sum Size by Date from trades",
    "select n: count i by Symbol from trades",
    "select vwap: (sum Price*Size) % sum Size by Symbol from trades",
    "select mx: max Price by Date, Symbol from trades",
    "select s: sum Size by 1000 xbar Size from trades",
    "aj[`Symbol`Time; select Symbol, Time, Price from trades; \
     select Symbol, Time, Bid, Ask from quotes]",
    "aj[`Symbol`Time; select Symbol, Time, Price from trades where Date=2016.06.26; \
     select Symbol, Time, Bid, Ask from quotes where Date=2016.06.26]",
    "trades lj 1!refdata",
    "trades ij 1!refdata",
    "select mx: max Price by Sector from trades lj 1!refdata",
    "(select Symbol, Price from trades where Size>900) uj \
     select Symbol, Price, Size from trades where Size<100",
    "select from nullable where Qty=0N",
    "select from nullable where Qty>20",
    "select s: sum Qty by Sym from nullable",
    "select n: count Px, m: count i from nullable",
    "select mx: max Px, mn: min Px from nullable",
    "update Qty: 0N from nullable where Sym=`A",
    "select Price, prevPx: prev Price from trades",
    "select d: deltas Price from trades where Symbol=`GOOG",
    "select open: first Price, close: last Price by Symbol from trades",
    "select Price, nextPx: next Price from trades where Symbol=`IBM",
    "`Price xdesc select from trades where Date=2016.06.26",
    "`Symbol`Time xasc select Symbol, Time, Price from trades",
    "select last Bid by Symbol from quotes",
];

#[test]
fn oracle_agrees_at_one_and_four_workers() {
    for threads in [1usize, 4] {
        let failures = with_exec_threads(threads, || {
            let mut f = oracle();
            f.check_all(ORACLE_STATEMENTS)
        });
        assert!(
            failures.is_empty(),
            "HQ_EXEC_THREADS={threads}: {} of {} oracle statements diverged:\n{:#?}",
            failures.len(),
            ORACLE_STATEMENTS.len(),
            failures
        );
    }
}

#[test]
fn fuzz_slice_is_clean_at_one_and_four_workers() {
    // Fixed seed, 200 programs, no shrinking (speed): the fuzz gate must
    // pass identically at both worker counts. Divergences where the two
    // runs both error on the same statement count as agreement — the
    // tri-executor driver already treats (Err, Err) that way.
    let cfg = FuzzConfig { seed: 20260807, budget: 200, corpus_dir: None, shrink: false };
    let serial = with_exec_threads(1, || run_fuzz(&cfg));
    let parallel = with_exec_threads(4, || run_fuzz(&cfg));
    assert_eq!(serial.programs, 200);
    assert_eq!(serial.programs, parallel.programs);
    assert_eq!(serial.statements, parallel.statements);
    let describe = |r: &qgen::FuzzReport| {
        r.bugs
            .iter()
            .map(|b| format!("p{}: {}", b.program_index, b.explanation))
            .collect::<Vec<_>>()
    };
    assert!(
        serial.bugs.is_empty(),
        "serial fuzz slice found divergences:\n{:#?}",
        describe(&serial)
    );
    assert!(
        parallel.bugs.is_empty(),
        "4-worker fuzz slice found divergences:\n{:#?}",
        describe(&parallel)
    );
}
