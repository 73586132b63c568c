//! Differential oracle suite: every statement below runs twice — once on
//! the reference Q interpreter, once through the full Hyper-Q
//! translate → SQL → pgdb pipeline — and the results must be Q-equal.
//!
//! This is the paper's §5 side-by-side framework wielded as a broad
//! oracle: q-sql selects, `by` aggregations, the join vocabulary
//! (aj/lj/ij/uj), two-valued null logic, and ordcol-sensitive queries
//! whose answers depend on row order.

use hyperq::gateway::{Credentials, PgWireBackend};
use hyperq::side_by_side::SideBySide;
use hyperq::{loader, HyperQSession, SessionConfig};
use hyperq_workload::taq::{generate_quotes, generate_trades, TaqConfig};
use qlang::value::{Table, Value};

fn taq_cfg() -> TaqConfig {
    TaqConfig { rows: 200, symbols: 4, days: 2, seed: 4242 }
}

/// Generated TAQ trades + quotes, a small table whose columns carry
/// typed nulls, and static reference data keyed by Symbol for lj/ij
/// lookups.
fn fixture() -> Vec<(&'static str, Table)> {
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
        ("trades", generate_trades(&taq_cfg())),
        ("quotes", generate_quotes(&TaqConfig { rows: 600, ..taq_cfg() })),
        ("nullable", nullable),
        ("refdata", refdata),
    ]
}

/// Framework loaded with the fixture.
fn oracle() -> SideBySide {
    let db = pgdb::Db::new();
    let mut f = SideBySide::new(&db);
    for (name, table) in fixture() {
        f.load(name, &table).unwrap();
    }
    f
}

/// Rows in `big`: more than 65 536, so the result crosses the wire in
/// many more `DataRow`s than any other oracle statement's.
const BIG_ROWS: usize = 70_000;

/// `big`: a long, a float and a symbol column with nulls in each,
/// [`BIG_ROWS`] rows long.
fn big_table() -> Table {
    let syms = ["AA", "BB", "CC", "DD", "EE"];
    Table::new(
        vec!["k".into(), "px".into(), "sym".into()],
        vec![
            Value::Longs(
                (0..BIG_ROWS as i64).map(|i| if i % 1000 == 7 { i64::MIN } else { i }).collect(),
            ),
            Value::Floats(
                (0..BIG_ROWS)
                    .map(|i| if i % 97 == 0 { f64::NAN } else { (i % 7919) as f64 * 0.25 })
                    .collect(),
            ),
            Value::Symbols(
                (0..BIG_ROWS)
                    .map(|i| if i % 131 == 0 { String::new() } else { syms[i % syms.len()].into() })
                    .collect(),
            ),
        ],
    )
    .unwrap()
}

/// An in-process database loaded with the fixture, plus `big`.
fn fixture_db() -> pgdb::Db {
    let db = pgdb::Db::new();
    let mut s = HyperQSession::with_direct(&db);
    for (name, table) in fixture() {
        loader::load_table(&mut s, name, &table).unwrap();
    }
    loader::load_table_direct(&db, "big", &big_table()).unwrap();
    db
}

/// The oracle statements. Kept as one list so the suite's breadth is
/// auditable in a single place; the count is pinned below.
const STATEMENTS: &[&str] = &[
    // --- q-sql selects and filters ---
    "select from trades",
    "select Symbol, Price from trades",
    "select Price from trades where Symbol=`GOOG",
    "select Price, Size from trades where Date=2016.06.26",
    "select from trades where Price within 50 150",
    "select Price from trades where Symbol in `GOOG`IBM, Size>100",
    "select Notional: Price*Size from trades where Size>500",
    "exec Price from trades where Symbol=`GOOG",
    "select from quotes where Ask>Bid",
    // --- plain aggregations ---
    "select mx: max Price, mn: min Price from trades",
    "select s: sum Size, a: avg Price from trades",
    "select n: count i from trades where Symbol=`IBM",
    "select spread: avg Ask-Bid from quotes",
    // --- `by` aggregations ---
    "select mx: max Price by Symbol from trades",
    "select s: sum Size by Date from trades",
    "select n: count i by Symbol from trades",
    "select vwap: (sum Price*Size) % sum Size by Symbol from trades",
    "select mx: max Price by Date, Symbol from trades",
    "select s: sum Size by 1000 xbar Size from trades",
    // dev/var are population statistics, sdev/svar the sample forms;
    // `nullable` has groups with a single non-null Px (dev 0, sdev null).
    "select d: dev Price, v: var Price by Symbol from trades",
    "select d: sdev Price, v: svar Price by Symbol from trades",
    "select d: dev Px, v: var Px, sd: sdev Px, sv: svar Px by Sym from nullable",
    "select d: dev Price, sd: sdev Price from trades where Symbol=`NONE",
    // --- joins: aj (as-of), lj/ij (keyed), uj (union) ---
    "aj[`Symbol`Time; select Symbol, Time, Price from trades; \
     select Symbol, Time, Bid, Ask from quotes]",
    "aj[`Symbol`Time; select Symbol, Time, Price from trades where Date=2016.06.26; \
     select Symbol, Time, Bid, Ask from quotes where Date=2016.06.26]",
    "trades lj 1!refdata",
    "trades ij 1!refdata",
    "select mx: max Price by Sector from trades lj 1!refdata",
    "(select Symbol, Price from trades where Size>900) uj \
     select Symbol, Price, Size from trades where Size<100",
    // --- null logic: typed nulls compare two-valued ---
    "select from nullable where Qty=0N",
    "select from nullable where Qty>20",
    "select s: sum Qty by Sym from nullable",
    "select n: count Px, m: count i from nullable",
    "select mx: max Px, mn: min Px from nullable",
    "update Qty: 0N from nullable where Sym=`A",
    // --- ordcol-sensitive: answers depend on row order ---
    "select Price, prevPx: prev Price from trades",
    "select d: deltas Price from trades where Symbol=`GOOG",
    "select open: first Price, close: last Price by Symbol from trades",
    "select Price, nextPx: next Price from trades where Symbol=`IBM",
    "`Price xdesc select from trades where Date=2016.06.26",
    "`Symbol`Time xasc select Symbol, Time, Price from trades",
    "select last Bid by Symbol from quotes",
];

#[test]
fn oracle_suite_has_at_least_thirty_statements() {
    assert!(
        STATEMENTS.len() >= 30,
        "oracle breadth regressed: {} statements",
        STATEMENTS.len()
    );
}

#[test]
fn all_oracle_statements_agree_between_engines() {
    let mut f = oracle();
    let failures = f.check_all(STATEMENTS);
    assert!(
        failures.is_empty(),
        "{} of {} statements diverged:\n{:#?}",
        failures.len(),
        STATEMENTS.len(),
        failures
    );
}

/// The oracle holds with the translation cache disabled too — the cached
/// and uncached pipelines must be indistinguishable to the application.
#[test]
fn oracle_statements_agree_with_translation_cache_disabled() {
    let mut f = oracle();
    f.hyperq.set_translation_cache(0);
    let failures = f.check_all(STATEMENTS);
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Repeated execution (cache-hit path) returns the same answers as the
/// first (cache-miss) pass. Like every runner in this suite, it checks
/// the whole statement list and reports the complete divergence batch —
/// a bug in statement 3 must not mask one in statement 30.
#[test]
fn oracle_statements_are_stable_across_repeated_execution() {
    let mut f = oracle();
    let mut failures = Vec::new();
    for q in STATEMENTS {
        for pass in ["cold", "warm"] {
            if let Err(e) = f.assert_match(q) {
                failures.push(format!("[{pass}] {q}: {e}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} repeated-execution divergence(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Statements whose error *strings* must survive the wire.
const ERROR_PROBES: &[&str] = &[
    "select from no_such_table",
    "no_such_variable",
    "select nosuchcol from trades",
];

/// Statements over `big`, whose results have [`BIG_ROWS`] rows.
const BIG_PROBES: &[&str] = &["select from big"];

/// The result path over the PG v3 wire is the in-process one: a session
/// whose backend is a `PgWireBackend` to a `PgServer` must answer every
/// oracle statement, and one 70 000-row result, with the
/// `Value` a `DirectBackend` session answers, bit for bit (`Debug` tells
/// `-0.0` from `0.0` and one NaN from no NaN), and fail with the same
/// string — translation cache cold, then warm.
#[test]
fn oracle_statements_are_bit_identical_over_the_pg_wire() {
    let mut direct = HyperQSession::with_direct(&fixture_db());
    let server = pgdb::server::PgServer::start(
        fixture_db(),
        "127.0.0.1:0",
        pgdb::server::ServerConfig::default(),
    )
    .unwrap();
    let creds = Credentials { user: "oracle".into(), password: String::new(), database: "hist".into() };
    let gateway = PgWireBackend::connect(&server.addr.to_string(), &creds).unwrap();
    let mut wire = HyperQSession::new(hyperq::share(gateway), SessionConfig::default());

    let reg = obs::global_registry();
    let binary_before = reg.counter_value("hyperq_gateway_fields_decoded_total{format=\"binary\"}");
    let mut failures = Vec::new();
    for q in STATEMENTS.iter().chain(ERROR_PROBES).chain(BIG_PROBES) {
        for pass in ["cold", "warm"] {
            let a = direct.execute(q).map_err(|e| e.to_string());
            let b = wire.execute(q).map_err(|e| e.to_string());
            if format!("{a:?}") != format!("{b:?}") {
                failures.push(format!("[{pass}] `{q}`\n  direct: {a:?}\n  wire:   {b:?}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} wire-vs-direct divergence(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert!(
        reg.counter_value("hyperq_gateway_fields_decoded_total{format=\"binary\"}") > binary_before,
        "the oracle's results must have crossed the wire in binary"
    );
    server.detach();
}
