//! Golden translations: the exact SQL text and `XformReport` of every
//! statement below, byte for byte, against `tests/golden/translation.sql`.
//!
//! The statements are the 25 Analytical Workload queries over 500-metric
//! tables (the width of the Figure 6 harness's `bench_spec()`), hqbench's
//! `wide_adhoc` point/window/as-of templates over the same tables, the
//! differential-oracle statements, and the TAQ dashboard shapes (`aj`,
//! `lj`, `deltas`, `prev`, `xbar`). Translation only: nothing executes,
//! so row counts do not matter, only schemas.
//!
//! A change to the binder, the Xformer or the serializer that moves any
//! byte of any statement fails here with the first differing case. When
//! a change *means* to alter the SQL, delete the golden file and run this
//! test once: it writes the file afresh and fails, so the new text is
//! reviewed in the diff before it is committed.

use hyperq::{loader, HyperQSession, SessionConfig};
use hyperq_workload::analytical::{analytical_workload, tables, WorkloadSpec};
use hyperq_workload::taq::{generate_quotes, generate_trades, TaqConfig};
use qlang::value::{Table, Value};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/translation.sql")
}

/// The Figure 6 harness's widths (`hyperq_bench::bench_spec()`: five
/// tables of 500 metric columns, seed 2016) with few rows.
fn wide_spec() -> WorkloadSpec {
    WorkloadSpec { tables: 5, metrics: 500, rows: 16, key_cardinality: 16, seed: 2016 }
}

/// hqbench's `wide_adhoc` templates for the point, window and as-of
/// classes (`benchmark/src/gen.rs`, templates 25–27).
const WIDE_ADHOC: &[&str] = &[
    "select k, am25, am32 from w1 where am38 > 512.0000001",
    "select k, d: deltas am26, p: prev am33 from w1 where am39 > 512.0000001",
    "aj[`k; select k, am27 from w1 where am40 > 512.0000001; select k, bm27 from w2]",
];

/// Same fixture as `tests/differential_oracle.rs`.
fn taq_fixture() -> Vec<(&'static str, Table)> {
    let taq_cfg = TaqConfig { rows: 200, symbols: 4, days: 2, seed: 4242 };
    let nullable = Table::new(
        vec!["Sym".into(), "Qty".into(), "Px".into()],
        vec![
            Value::Symbols(vec!["A".into(), "B".into(), "A".into(), "C".into(), "B".into()]),
            Value::Longs(vec![10, i64::MIN, 30, i64::MIN, 50]),
            Value::Floats(vec![1.5, 2.5, f64::NAN, 4.0, f64::NAN]),
        ],
    )
    .unwrap();
    let refdata = Table::new(
        vec!["Symbol".into(), "Sector".into(), "Lot".into()],
        vec![
            Value::Symbols(vec!["AAPL".into(), "GOOG".into(), "IBM".into()]),
            Value::Symbols(vec!["tech".into(), "tech".into(), "services".into()]),
            Value::Longs(vec![100, 10, 50]),
        ],
    )
    .unwrap();
    vec![
        ("trades", generate_trades(&taq_cfg)),
        ("quotes", generate_quotes(&TaqConfig { rows: 600, ..taq_cfg })),
        ("nullable", nullable),
        ("refdata", refdata),
    ]
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
    "select d: dev Price, v: var Price by Symbol from trades",
    "select d: sdev Price, v: svar Price by Symbol from trades",
    "select d: dev Px, v: var Px, sd: sdev Px, sv: svar Px by Sym from nullable",
    "select d: dev Price, sd: sdev Price from trades where Symbol=`NONE",
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

/// hqbench's TAQ dashboard shapes (`benchmark/src/gen.rs` and the
/// `ingest_tail` reader), with fixed literals, plus whole-table joins.
const TAQ_SHAPES: &[&str] = &[
    "select Time, Price, Size from trades where Date=2016.06.26, Symbol=`GOOG",
    "select Time, Bid, Ask from quotes where Date=2016.06.26, Symbol=`IBM",
    "select Time, Notional: Price*Size from trades where Date=2016.06.27, Symbol=`MSFT",
    "select vwap: (sum Price*Size) % sum Size by Symbol from trades \
     where Date=2016.06.26, Size>300",
    "select open: first Price, close: last Price, hi: max Price, lo: min Price \
     by Symbol from trades where Date=2016.06.26, Size>200",
    "select s: sum Size, n: count i by 1000 xbar Size from trades \
     where Date=2016.06.26, Symbol=`GOOG",
    "select Time, Price, d: deltas Price from trades where Date=2016.06.26, Symbol=`GOOG",
    "select Time, Price, p: prev Price from trades where Date=2016.06.26, Symbol=`IBM",
    "select Time, Bid, p: prev Bid, d: deltas Ask from quotes \
     where Date=2016.06.27, Symbol=`AAPL",
    "select hi: max Price, lots: sum Size by Sector from trades lj 1!refdata \
     where Date=2016.06.26, Size>100",
    "aj[`Symbol`Time; select Symbol, Time, Price from trades \
     where Date=2016.06.26, Symbol=`GOOG, Time within (09:30:00.000;10:30:00.000); \
     select Symbol, Time, Bid, Ask from quotes \
     where Date=2016.06.26, Symbol=`GOOG, Time within (09:30:00.000;10:30:00.000)]",
    "select slip: avg Price-Bid by Symbol from aj[`Symbol`Time; \
     select Symbol, Time, Price from trades where Date=2016.06.26, Symbol=`IBM; \
     select Symbol, Time, Bid, Ask from quotes where Date=2016.06.26, Symbol=`IBM]",
    "select Time, Symbol, Price, Size from trades where i>=100, i<180, Size>5000",
    "select px: last Price by Symbol from trades where i>=0, i<150",
    "select n: count i, s: sum Size by Symbol from trades where i>=20, i<200",
    "select Time, Price, d: deltas Price from trades where i>=10, i<190, Symbol=`GOOG",
    "aj[`Symbol`Time; select Symbol, Time, Price from trades where i>=40, i<200; \
     select Symbol, Time, Bid, Ask from quotes \
     where Date=2016.06.26, Time within (09:30:00.000;16:00:00.000)]",
    "aj[`Symbol`Time; trades; quotes]",
    "trades lj 1!select Symbol, Bid, Ask from quotes where Date=2016.06.26",
    "select Price, p: prev Price, n: next Price, d: deltas Size from trades where Symbol=`IBM",
];

/// Translate `statements` in one session and append one record each:
/// a `-- <label> <n>: <q>` header, the report triple, then every SQL
/// statement of the translation (or the translation error).
fn record(out: &mut String, label: &str, session: &mut HyperQSession, statements: &[&str]) {
    for (n, q) in statements.iter().enumerate() {
        writeln!(out, "-- {label} {}: {q}", n + 1).unwrap();
        match session.translate_only(q) {
            Ok(trs) => {
                for tr in trs {
                    let r = &tr.xform_report;
                    writeln!(
                        out,
                        "-- null_rewrites={} columns_pruned={} sorts_elided={}",
                        r.null_rewrites, r.columns_pruned, r.sorts_elided
                    )
                    .unwrap();
                    for stmt in &tr.statements {
                        writeln!(out, "{}", stmt.sql).unwrap();
                    }
                }
            }
            Err(e) => writeln!(out, "-- error: {e}").unwrap(),
        }
        out.push('\n');
    }
}

fn translations() -> String {
    let mut out = String::new();

    let db = pgdb::Db::new();
    for (name, table) in tables(&wide_spec()) {
        loader::load_table_direct(&db, &name, &table).unwrap();
    }
    let mut wide = HyperQSession::with_direct_config(&db, SessionConfig::default());
    let analytical: Vec<String> =
        analytical_workload(&wide_spec()).into_iter().map(|q| q.text).collect();
    let analytical: Vec<&str> = analytical.iter().map(String::as_str).collect();
    record(&mut out, "analytical", &mut wide, &analytical);
    record(&mut out, "wide_adhoc", &mut wide, WIDE_ADHOC);

    let db = pgdb::Db::new();
    let mut taq = HyperQSession::with_direct_config(&db, SessionConfig::default());
    for (name, table) in taq_fixture() {
        loader::load_table(&mut taq, name, &table).unwrap();
    }
    record(&mut out, "oracle", &mut taq, ORACLE_STATEMENTS);
    record(&mut out, "taq", &mut taq, TAQ_SHAPES);
    out
}

#[test]
fn translations_match_the_golden_file_byte_for_byte() {
    let actual = translations();
    let path = golden_path();
    let Ok(golden) = std::fs::read_to_string(&path) else {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        panic!("no golden file: wrote {} — review and commit it", path.display());
    };
    if golden == actual {
        return;
    }
    let (g, a): (Vec<&str>, Vec<&str>) =
        (golden.split("\n\n").collect(), actual.split("\n\n").collect());
    let first = g.iter().zip(&a).position(|(x, y)| x != y).unwrap_or(g.len().min(a.len()));
    panic!(
        "translation {} differs from {} ({} golden records, {} now)\n--- golden\n{}\n--- now\n{}",
        first + 1,
        path.display(),
        g.len(),
        a.len(),
        g.get(first).unwrap_or(&"<none>"),
        a.get(first).unwrap_or(&"<none>")
    );
}
