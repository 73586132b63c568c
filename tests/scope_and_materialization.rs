//! Integration tests for the variable-scope hierarchy (paper Figure 3)
//! and eager materialization (§4.3), exercised through the full pipeline
//! and cross-checked against the reference engine.

mod common;

use algebrizer::MaterializationPolicy;
use hyperq::side_by_side::{agrees, Outcome};
use hyperq::{loader, HyperQSession, SessionConfig};
use qengine::Interp;
use qlang::value::{Table, Value};

fn trades() -> Table {
    Table::new(
        vec!["Symbol".into(), "Price".into(), "Size".into()],
        vec![
            Value::Symbols(vec!["GOOG".into(), "IBM".into(), "GOOG".into(), "MSFT".into()]),
            Value::Floats(vec![100.0, 50.0, 101.5, 70.0]),
            Value::Longs(vec![10, 20, 30, 40]),
        ],
    )
    .unwrap()
}

fn assert_agree(config: SessionConfig, stmts: &[&str]) {
    common::side_by_side(&[("trades".into(), trades())], config, stmts);
}

#[test]
fn locals_shadow_session_variables_in_both_engines() {
    assert_agree(
        SessionConfig::default(),
        &[
            // `lim` exists at session scope AND as a function parameter;
            // the parameter must win inside the function (Figure 3).
            concat!(
                "lim: 60.0; ",
                "g: {[lim] exec count i from trades where Price > lim}; ",
                "g[100.0]"
            ),
            // Outside the function, the session variable is intact.
            "exec count i from trades where Price > lim",
        ],
    );
}

#[test]
fn session_variables_redefine_freely() {
    // Paper §3.2.1: x can be rebound to values of different types.
    let db = pgdb::Db::new();
    let mut s = HyperQSession::with_direct(&db);
    loader::load_table(&mut s, "trades", &trades()).unwrap();
    s.execute("x: 55.0").unwrap();
    let n1 = s.execute("exec count i from trades where Price > x").unwrap();
    assert!(n1.q_eq(&Value::long(3)));
    s.execute("x: 99.0").unwrap();
    let n2 = s.execute("exec count i from trades where Price > x").unwrap();
    assert!(n2.q_eq(&Value::long(2)));
    // Rebind to a list and use with `in`.
    s.execute("x: `GOOG`MSFT").unwrap();
    let n3 = s.execute("exec count i from trades where Symbol in x").unwrap();
    assert!(n3.q_eq(&Value::long(3)));
}

#[test]
fn table_variables_inline_logically() {
    let db = pgdb::Db::new();
    let mut s = HyperQSession::with_direct(&db);
    loader::load_table(&mut s, "trades", &trades()).unwrap();
    let (_, trs) = s
        .execute_traced("goog: select Price, Size from trades where Symbol=`GOOG; select max Price from goog")
        .unwrap();
    // Logical policy: no CREATE TEMP anywhere; the view text is inlined.
    for tr in &trs {
        for stmt in &tr.statements {
            assert!(
                !stmt.sql.contains("CREATE TEMPORARY"),
                "logical policy must not materialize: {}",
                stmt.sql
            );
        }
    }
}

#[test]
fn physical_materialization_generates_paper_sql_shape() {
    let db = pgdb::Db::new();
    let cfg = SessionConfig { policy: MaterializationPolicy::Physical, ..Default::default() };
    let mut s = HyperQSession::with_direct_config(&db, cfg);
    loader::load_table(&mut s, "trades", &trades()).unwrap();
    let (v, trs) = s
        .execute_traced("dt: select Price from trades where Symbol=`GOOG; select max Price from dt")
        .unwrap();
    let sqls: Vec<&str> =
        trs.iter().flat_map(|t| t.statements.iter().map(|s| s.sql.as_str())).collect();
    // §4.3's exact shape: CREATE TEMPORARY TABLE ... ordcol ... IS NOT
    // DISTINCT FROM ... ORDER BY ordcol, then the aggregate over it.
    assert!(sqls[0].starts_with("CREATE TEMPORARY TABLE \"HQ_TEMP_1\" AS SELECT"), "{}", sqls[0]);
    assert!(sqls[0].contains("\"ordcol\""), "{}", sqls[0]);
    assert!(sqls[0].contains("IS NOT DISTINCT FROM"), "{}", sqls[0]);
    assert!(sqls[0].ends_with("ORDER BY \"ordcol\" ASC"), "{}", sqls[0]);
    assert!(sqls[1].contains("max("), "{}", sqls[1]);
    assert!(sqls[1].contains("HQ_TEMP_1"), "{}", sqls[1]);
    match v {
        Value::Table(t) => {
            assert!(t.column("Price").unwrap().q_eq(&Value::Floats(vec![101.5])));
        }
        other => panic!("expected table, got {other:?}"),
    }
}

#[test]
fn temp_table_sequence_numbers_advance() {
    let db = pgdb::Db::new();
    let cfg = SessionConfig { policy: MaterializationPolicy::Physical, ..Default::default() };
    let mut s = HyperQSession::with_direct_config(&db, cfg);
    loader::load_table(&mut s, "trades", &trades()).unwrap();
    let (_, trs) = s
        .execute_traced(concat!(
            "a: select Price from trades where Symbol=`GOOG; ",
            "b: select Price from trades where Symbol=`IBM; ",
            "select (max Price) - min Price from a uj b"
        ))
        .unwrap();
    let all: String = trs
        .iter()
        .flat_map(|t| t.statements.iter().map(|s| s.sql.clone()))
        .collect::<Vec<_>>()
        .join("\n");
    assert!(all.contains("HQ_TEMP_1"), "{all}");
    assert!(all.contains("HQ_TEMP_2"), "{all}");
}

#[test]
fn both_policies_agree_with_reference_on_multi_variable_programs() {
    for policy in [MaterializationPolicy::Logical, MaterializationPolicy::Physical] {
        assert_agree(
            SessionConfig { policy, ..Default::default() },
            &[concat!(
                "cheap: select from trades where Price < 80.0; ",
                "big: select from cheap where Size > 15; ",
                "select s: sum Size by Symbol from big"
            )],
        );
    }
}

#[test]
fn function_redefinition_takes_effect() {
    // §3.2.3: "If f is invoked later in the same session, there is no
    // guarantee that the function definition would still be the same."
    let db = pgdb::Db::new();
    let mut s = HyperQSession::with_direct(&db);
    loader::load_table(&mut s, "trades", &trades()).unwrap();
    s.execute("f: {[s] select max Price from trades where Symbol=s}").unwrap();
    let v1 = s.execute("f[`GOOG]").unwrap();
    s.execute("f: {[s] select min Price from trades where Symbol=s}").unwrap();
    let v2 = s.execute("f[`GOOG]").unwrap();
    match (v1, v2) {
        (Value::Table(a), Value::Table(b)) => {
            assert!(a.column("Price").unwrap().q_eq(&Value::Floats(vec![101.5])));
            assert!(b.column("Price").unwrap().q_eq(&Value::Floats(vec![100.0])));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn global_assignment_survives_session_end() {
    let db = pgdb::Db::new();
    let mut hyperq = HyperQSession::with_direct(&db);
    loader::load_table(&mut hyperq, "trades", &trades()).unwrap();
    let mut reference = Interp::new();
    reference.define_table("trades", trades());
    // Define a global from "one client", end the session, use it again.
    hyperq.execute("GLOBAL_SYMS:: `GOOG`IBM").unwrap();
    reference.run("GLOBAL_SYMS:: `GOOG`IBM").unwrap();
    hyperq.end_session();
    reference.env.end_session();
    let q = "select Price from trades where Symbol in GLOBAL_SYMS";
    let (want, got) = (Outcome::from(reference.run(q)), Outcome::from(hyperq.execute(q)));
    assert!(want.value().is_some() && agrees(&want, &got), "{want:?}\n{got:?}");
}
