//! IN-subquery support through the whole stack: Q's
//! `Sym in exec Sym from universe` binds to an uncorrelated relational
//! subquery, serializes as `IN (SELECT ...)`, and executes on pgdb.

mod common;

use hyperq::{loader, HyperQSession, SessionConfig};
use qlang::value::{Table, Value};

fn universe() -> Table {
    Table::new(
        vec!["Sym".into(), "Sector".into()],
        vec![
            Value::Symbols(vec!["GOOG".into(), "MSFT".into(), "ORCL".into()]),
            Value::Symbols(vec!["tech".into(), "tech".into(), "tech".into()]),
        ],
    )
    .unwrap()
}

/// `stmts` side by side over `trades` and `universe`.
fn assert_agree(stmts: &[&str]) {
    let tables = [("trades".into(), trades()), ("universe".into(), universe())];
    common::side_by_side(&tables, SessionConfig::default(), stmts);
}

fn trades() -> Table {
    Table::new(
        vec!["Symbol".into(), "Price".into()],
        vec![
            Value::Symbols(vec!["GOOG".into(), "IBM".into(), "MSFT".into(), "GOOG".into()]),
            Value::Floats(vec![100.0, 50.0, 70.0, 101.0]),
        ],
    )
    .unwrap()
}

#[test]
fn in_subquery_generates_in_select_sql() {
    let db = pgdb::Db::new();
    let mut s = HyperQSession::with_direct(&db);
    loader::load_table(&mut s, "trades", &trades()).unwrap();
    loader::load_table(&mut s, "universe", &universe()).unwrap();
    let (v, trs) = s
        .execute_traced("select Price from trades where Symbol in exec Sym from universe")
        .unwrap();
    let sql = &trs[0].statements[0].sql;
    assert!(sql.contains("IN (SELECT"), "{sql}");
    match v {
        Value::Table(t) => {
            assert!(t.column("Price").unwrap().q_eq(&Value::Floats(vec![100.0, 70.0, 101.0])));
        }
        other => panic!("expected table, got {other:?}"),
    }
}

#[test]
fn in_subquery_agrees_with_reference() {
    assert_agree(&[
        "select from trades where Symbol in exec Sym from universe",
        "select n: count i by Symbol from trades where Symbol in exec Sym from universe",
    ]);
}

#[test]
fn in_subquery_over_filtered_universe() {
    assert_agree(&[
        "select Price from trades where Symbol in exec Sym from universe where Sector=`tech",
    ]);
}

#[test]
fn in_subquery_against_table_variable() {
    assert_agree(&[concat!(
        "watchlist: select Sym from universe where Sym in `GOOG`ORCL; ",
        "select from trades where Symbol in exec Sym from watchlist"
    )]);
}
