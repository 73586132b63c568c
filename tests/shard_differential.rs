//! Shard-count differential oracle (ISSUE 8's headline deliverable).
//!
//! The `ShardRouter` promises results *bit-identical* to single-node
//! execution at any shard count: scatter scans interleave back into
//! insertion order via the hidden ordinal, re-aggregated partials merge
//! on an engine-semantics scratch instance, and everything unprovable
//! falls back to the coordinator's full copy. This suite enforces the
//! promise three ways:
//!
//! 1. direct SQL structural equality (`colstore::structurally_equal`)
//!    between a plain single-node backend and routers at 1, 2 and 4
//!    shards — scans, ordered merges, distributive re-aggregation,
//!    broadcast joins, every fallback shape, and identical error
//!    surfaces;
//! 2. the full 38-statement Q differential-oracle list through the
//!    complete translate → SQL → scatter-gather pipeline at 1, 2 and 4
//!    shards, judged against the reference interpreter;
//! 3. a 200-program qgen fuzz slice executed side by side on 1-, 2- and
//!    4-shard routers, asserting cross-shard-count agreement statement
//!    by statement.

use hyperq::shard::{ShardCluster, ShardOpts};
use hyperq::side_by_side::{values_agree, SideBySide};
use hyperq::{loader, share, Backend, DirectBackend, HyperQSession, SessionConfig};
use hyperq_workload::taq::{generate_quotes, generate_trades, TaqConfig};
use pgdb::{Batch, BatchQueryResult, Cell};
use qengine::Interp;
use qgen::{gen_dataset, Coverage, ProgramGen};
use qlang::ast::Expr;
use qlang::value::{Table, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Deterministic knobs: tests must not depend on ambient `HQ_SHARD_*`.
fn opts() -> ShardOpts {
    ShardOpts { broadcast_threshold: 64, float_agg: false, stats: true, keys: HashMap::new() }
}

fn router(shards: usize) -> hyperq::ShardRouter {
    ShardCluster::in_process_with(shards, opts()).router().unwrap()
}

// ---------------------------------------------------------------------
// 1. Direct SQL: single node vs 1/2/4-shard routers, bit for bit.
// ---------------------------------------------------------------------

/// Identical setup run through every backend. `fact` (150 rows, one
/// INSERT) partitions; `dim` (8 rows) broadcasts.
fn setup_sql() -> Vec<String> {
    let mut out = vec![
        "CREATE TABLE fact (id bigint, grp bigint, sym varchar, qty bigint, px double precision)"
            .to_string(),
        "CREATE TABLE dim (k bigint, label varchar)".to_string(),
    ];
    let syms = ["AA", "BB", "CC", "DD"];
    let rows: Vec<String> = (0..150)
        .map(|i| {
            let sym = if i % 13 == 0 { "NULL".to_string() } else { format!("'{}'", syms[i % 4]) };
            let qty = if i % 11 == 0 { "NULL".to_string() } else { format!("{}", (i * 7) % 100) };
            let px = match i % 17 {
                0 => "NULL".to_string(),
                1 => "(0.0 / 0.0)".to_string(), // NaN: float aggs must stay exact via fallback
                _ => format!("{}.25", i % 50),
            };
            format!("({i}, {}, {sym}, {qty}, {px})", i % 10)
        })
        .collect();
    out.push(format!("INSERT INTO fact VALUES {}", rows.join(", ")));
    let dim: Vec<String> = (0..8).map(|k| format!("({k}, 'L{k}')")).collect();
    out.push(format!("INSERT INTO dim VALUES {}", dim.join(", ")));
    out
}

/// SQL shapes under test. Scatter paths and fallback paths both appear:
/// the differential does not care *how* a statement was routed, only
/// that the answer (or the error) is indistinguishable from single-node.
const SQL_STATEMENTS: &[&str] = &[
    // pass-through scatter: scans, filters, projections
    "SELECT * FROM fact",
    "SELECT id, qty FROM fact WHERE grp > 5",
    "SELECT id, px * 2.0 AS v FROM fact WHERE sym = 'AA'",
    "SELECT id FROM fact WHERE qty IS NULL",
    // k-way ordered merges, including DESC, LIMIT, and NULL keys
    "SELECT id, grp FROM fact ORDER BY grp, id",
    "SELECT id, qty FROM fact ORDER BY qty DESC, id LIMIT 10",
    "SELECT id FROM fact ORDER BY sym, id LIMIT 25",
    "SELECT sym, id FROM fact ORDER BY id DESC",
    // distributive re-aggregation
    "SELECT count(*) AS n, sum(qty) AS s, min(qty) AS mn, max(qty) AS mx, avg(qty) AS a FROM fact",
    "SELECT grp, count(*) AS n, sum(qty) AS s FROM fact GROUP BY grp ORDER BY grp",
    "SELECT sym, avg(qty) AS a FROM fact GROUP BY sym ORDER BY sym",
    "SELECT grp, max(qty) AS mx FROM fact GROUP BY grp",
    "SELECT sym, sum(qty) AS s FROM fact GROUP BY sym HAVING count(*) > 3 ORDER BY s DESC, sym",
    "SELECT grp, sym, count(*) AS n FROM fact GROUP BY grp, sym ORDER BY grp, sym",
    "SELECT sum(qty) + count(*) AS t FROM fact",
    "SELECT count(px) AS with_px FROM fact",
    // empty input: count 0 / NULL sum / NULL min must survive the merge
    "SELECT count(*) AS n, sum(qty) AS s, min(qty) AS m FROM fact WHERE id < 0",
    "SELECT grp, sum(qty) AS s FROM fact WHERE grp > 1000 GROUP BY grp",
    // aggregation over a subquery leaf
    "SELECT sum(s) AS total FROM (SELECT qty AS s FROM fact WHERE grp < 8) AS t",
    "SELECT s FROM (SELECT qty + id AS s FROM fact) AS t ORDER BY s LIMIT 5",
    // broadcast joins stay shard-local
    "SELECT id, label FROM fact INNER JOIN dim ON grp = k ORDER BY id",
    "SELECT id, label FROM fact LEFT OUTER JOIN dim ON grp = k",
    "SELECT label, id FROM fact INNER JOIN dim ON grp = k WHERE qty > 50 ORDER BY id LIMIT 7",
    // provably-unsafe shapes: must fall back, answers still identical
    "SELECT min(px) AS mn, max(px) AS mx, sum(px) AS s, avg(px) AS a FROM fact",
    "SELECT count(DISTINCT sym) AS d FROM fact",
    "SELECT id FROM fact ORDER BY id LIMIT 5 OFFSET 3",
    "SELECT id FROM fact WHERE grp = 1 UNION ALL SELECT id FROM fact WHERE grp = 2",
    "SELECT a.id FROM fact AS a INNER JOIN fact AS b ON a.id = b.id ORDER BY a.id LIMIT 5",
    "SELECT qty, sum(qty) AS s FROM fact GROUP BY grp ORDER BY qty + grp LIMIT 4",
    // gathers that ship only what the statement can observe: pushed
    // WHEREs, pruned columns, and the shapes that must not push
    "SELECT id, qty, row_number() OVER (PARTITION BY grp ORDER BY qty, id) AS rn FROM fact \
     WHERE sym = 'AA' AND grp > 2 ORDER BY id",
    "SELECT id, row_number() OVER (ORDER BY id) FROM fact WHERE sym = 'AA' AND 100 / (grp - 3) > 0",
    "SELECT id, px, row_number() OVER (ORDER BY id) AS rn FROM fact WHERE px > 1.0 ORDER BY id",
    // an error that names the row raising it: each shard's first such
    // row is not the table's, so this WHERE must not run on the shards
    "SELECT id, row_number() OVER (ORDER BY id) FROM fact \
     WHERE CAST(CASE WHEN grp > 1 THEN sym ELSE '0' END AS bigint) > 0",
    "SELECT id, lag(qty) OVER (ORDER BY id) AS prev FROM fact WHERE grp = 1 \
     UNION ALL SELECT id, row_number() OVER (ORDER BY qty, id) AS prev FROM fact WHERE sym = 'BB'",
    "SELECT *, row_number() OVER (ORDER BY id) AS rn FROM fact WHERE grp < 3 ORDER BY id",
    "SELECT s, row_number() OVER (ORDER BY s, i) AS rn FROM (SELECT id AS i, sym AS s FROM fact) AS t \
     WHERE s = 'CC'",
    "SELECT f.id, row_number() OVER (ORDER BY f.qty, f.id) AS rn FROM fact AS f \
     WHERE f.sym IS NOT NULL AND f.grp <> 4 ORDER BY f.id LIMIT 20",
    "SELECT id, row_number() OVER (ORDER BY id) AS rn FROM fact \
     WHERE id IN (SELECT k FROM dim WHERE label <> 'L3')",
    "SELECT id FROM fact WHERE grp = 1 EXCEPT SELECT k FROM dim WHERE k > 3",
    "SELECT count(DISTINCT 1) AS d FROM fact",
    // identical error surfaces
    "SELECT qty / 0 AS boom FROM fact",
    "SELECT nosuch FROM fact",
    "SELECT id FROM nosuchtable",
    "INSERT INTO ghost VALUES (1)",
    "CREATE TABLE dim (k bigint)",
    // DDL / DML lifecycle through the router
    "CREATE TABLE t2 (a bigint, b varchar)",
    "INSERT INTO t2 VALUES (1, 'x'), (2, 'y'), (3, NULL)",
    "SELECT a, b FROM t2 ORDER BY a",
    "SELECT count(*) AS n FROM t2",
    "DROP TABLE t2",
    "SELECT a FROM t2",
];

enum SqlOutcome {
    Batch(Batch),
    Command(String),
    Error(String),
}

fn run_sql(b: &mut dyn Backend, sql: &str) -> SqlOutcome {
    match b.execute_sql_batch(sql) {
        Ok(Some(BatchQueryResult::Batch(batch))) => SqlOutcome::Batch(batch),
        Ok(Some(BatchQueryResult::Command(t))) => SqlOutcome::Command(t),
        Ok(None) => panic!("backend refused the batch path for {sql}"),
        Err(e) => SqlOutcome::Error(e.to_string()),
    }
}

fn agree(a: &SqlOutcome, b: &SqlOutcome) -> bool {
    match (a, b) {
        (SqlOutcome::Batch(x), SqlOutcome::Batch(y)) => x.structurally_equal(y),
        (SqlOutcome::Command(x), SqlOutcome::Command(y)) => x == y,
        (SqlOutcome::Error(x), SqlOutcome::Error(y)) => x == y,
        _ => false,
    }
}

fn describe(o: &SqlOutcome) -> String {
    match o {
        SqlOutcome::Batch(b) => format!("batch of {} rows", b.rows()),
        SqlOutcome::Command(t) => format!("command {t:?}"),
        SqlOutcome::Error(e) => format!("error {e:?}"),
    }
}

#[test]
fn sql_differential_is_bit_identical_at_one_two_and_four_shards() {
    let single_db = pgdb::Db::new();
    let mut backends: Vec<(String, Box<dyn Backend>)> =
        vec![("single-node".into(), Box::new(DirectBackend::new(&single_db)))];
    for shards in [1usize, 2, 4] {
        backends.push((format!("{shards}-shard router"), Box::new(router(shards))));
    }
    for stmt in setup_sql() {
        for (name, b) in &mut backends {
            if let SqlOutcome::Error(e) = run_sql(b.as_mut(), &stmt) {
                panic!("{name}: setup statement failed: {e}\n{stmt}");
            }
        }
    }
    let mut failures = Vec::new();
    for sql in SQL_STATEMENTS {
        let outcomes: Vec<SqlOutcome> =
            backends.iter_mut().map(|(_, b)| run_sql(b.as_mut(), sql)).collect();
        for (i, o) in outcomes.iter().enumerate().skip(1) {
            if !agree(&outcomes[0], o) {
                failures.push(format!(
                    "{}: {} vs single-node {} for {sql}",
                    backends[i].0,
                    describe(o),
                    describe(&outcomes[0]),
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} shard-count divergence(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Sanity guard on the fixture: the differential above only proves
/// anything if the interesting statements really scatter. Pin the
/// routing decisions through `EXPLAIN SHARD` — this router's own plan
/// for the statement, where the process-wide `shard_*_total` counters
/// also move under the sibling tests of this binary.
#[test]
fn differential_fixture_really_scatters() {
    let cluster = ShardCluster::in_process_with(4, opts());
    let mut r = cluster.router().unwrap();
    for stmt in setup_sql() {
        if let SqlOutcome::Error(e) = run_sql(&mut r, &stmt) {
            panic!("setup failed: {e}");
        }
    }
    use hyperq::shard::Mode;
    assert_eq!(cluster.table_meta("fact").unwrap().mode, Mode::Partitioned);
    assert_eq!(cluster.table_meta("dim").unwrap().mode, Mode::Broadcast);
    let mut plan_kind = |sql: &str| match run_sql(&mut r, &format!("EXPLAIN SHARD {sql}")) {
        SqlOutcome::Batch(b) => match b.columns[0].cell_at(0) {
            Cell::Text(kind) => kind,
            other => panic!("EXPLAIN SHARD {sql}: kind is {other:?}"),
        },
        other => panic!("EXPLAIN SHARD {sql}: {}", describe(&other)),
    };
    assert_eq!(
        plan_kind("SELECT id, qty FROM fact ORDER BY qty DESC, id LIMIT 10"),
        "scatter",
        "scans must scatter"
    );
    assert_eq!(
        plan_kind("SELECT grp, sum(qty) AS s FROM fact GROUP BY grp ORDER BY grp"),
        "two_phase_agg",
        "aggregates must scatter"
    );
    // DISTINCT aggregates do not decompose into partials, but their
    // inputs are shard-managed: they gather (exact input
    // reconstruction) instead of falling back to the coordinator.
    assert_eq!(
        plan_kind("SELECT count(DISTINCT sym) AS d FROM fact"),
        "gather",
        "DISTINCT aggregates must execute via gather"
    );
    // The gathers ship only what the statement can observe: an
    // infallible WHERE runs on the shards, one with a conjunct that can
    // raise does not — and on a single node that conjunct does raise,
    // for the rows its sibling conjunct excludes.
    let mut detail = |sql: &str| match run_sql(&mut r, &format!("EXPLAIN SHARD {sql}")) {
        SqlOutcome::Batch(b) => b.columns[2].cell_at(0),
        other => panic!("EXPLAIN SHARD {sql}: {}", describe(&other)),
    };
    let pushed = "SELECT id, qty, row_number() OVER (PARTITION BY grp ORDER BY qty, id) AS rn \
                  FROM fact WHERE sym = 'AA' AND grp > 2 ORDER BY id";
    let want = r#"gather: fact(merge; cols=id,grp,sym,qty; where=(("sym" = 'AA') AND ("grp" > 2)))"#;
    assert_eq!(detail(pushed), Cell::Text(want.to_string()));
    let parity = "SELECT id, row_number() OVER (ORDER BY id) FROM fact \
                  WHERE sym = 'AA' AND 100 / (grp - 3) > 0";
    assert_eq!(detail(parity), Cell::Text("gather: fact(merge; cols=id,grp,sym)".to_string()));
    let single = pgdb::Db::new();
    let mut single = DirectBackend::new(&single);
    for stmt in setup_sql() {
        run_sql(&mut single, &stmt);
    }
    match run_sql(&mut single, parity) {
        SqlOutcome::Error(e) => assert!(e.contains("division by zero"), "{e}"),
        other => panic!("{parity} must raise single-node, got {}", describe(&other)),
    }
}

// ---------------------------------------------------------------------
// 2. The 38-statement Q oracle through the full pipeline, per shard count.
// ---------------------------------------------------------------------

fn taq_cfg() -> TaqConfig {
    TaqConfig { rows: 200, symbols: 4, days: 2, seed: 4242 }
}

/// Same fixture as `tests/differential_oracle.rs`, loaded through a
/// router-backed session: trades (200 rows) and quotes (600) partition,
/// nullable (5) and refdata (3) broadcast.
fn shard_oracle(shards: usize) -> SideBySide {
    let mut f = SideBySide {
        reference: Interp::new(),
        hyperq: HyperQSession::new(share(router(shards)), SessionConfig::default()),
    };
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
fn oracle_agrees_at_one_two_and_four_shards() {
    for shards in [1usize, 2, 4] {
        let mut f = shard_oracle(shards);
        let failures = f.check_all(ORACLE_STATEMENTS);
        assert!(
            failures.is_empty(),
            "HQ_SHARDS={shards}: {} of {} oracle statements diverged:\n{:#?}",
            failures.len(),
            ORACLE_STATEMENTS.len(),
            failures
        );
    }
}

// ---------------------------------------------------------------------
// 3. qgen fuzz slice: 200 programs side by side at 1, 2 and 4 shards.
// ---------------------------------------------------------------------

/// Programs per generated dataset, mirroring `qgen::run_fuzz`.
const PROGRAMS_PER_DATASET: usize = 10;
const FUZZ_BUDGET: usize = 200;
const FUZZ_SEED: u64 = 20260807;

fn shard_sessions(ds_tables: &[(String, Table)]) -> Vec<(usize, HyperQSession)> {
    [1usize, 2, 4]
        .into_iter()
        .map(|shards| {
            let mut s = HyperQSession::new(share(router(shards)), SessionConfig::default());
            for (name, table) in ds_tables {
                loader::load_table(&mut s, name, table).unwrap();
            }
            (shards, s)
        })
        .collect()
}

/// Successful assignments collapse before comparison (their return value
/// is representational), exactly like the tri-executor `BatchDriver`.
fn is_assignment(q: &str) -> bool {
    qlang::parse(q)
        .map(|stmts| {
            stmts
                .last()
                .is_some_and(|e| matches!(e, Expr::Assign { .. } | Expr::IndexAssign { .. }))
        })
        .unwrap_or(false)
}

#[test]
fn fuzz_slice_agrees_across_shard_counts() {
    let mut rng = StdRng::seed_from_u64(FUZZ_SEED);
    let mut gen = ProgramGen::new();
    let mut coverage = Coverage::default();
    let mut dataset = None;
    let mut sessions: Vec<(usize, HyperQSession)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut programs = 0usize;

    for pi in 0..FUZZ_BUDGET {
        if pi % PROGRAMS_PER_DATASET == 0 {
            let ds = gen_dataset(&mut rng);
            sessions = shard_sessions(&ds.tables);
            dataset = Some(ds);
        }
        let ds = dataset.as_ref().unwrap();
        let program = gen.gen_program(&mut rng, ds, &mut coverage);
        programs += 1;
        let mut diverged = false;
        for q in program.render() {
            let normalize = is_assignment(&q);
            let mut results = sessions.iter_mut().map(|(shards, s)| (*shards, s.execute(&q)));
            let (_, baseline) = results.next().unwrap();
            for (shards, r) in results {
                let ok = match (&baseline, &r) {
                    (Ok(a), Ok(b)) => normalize || values_agree(a, b),
                    (Err(_), Err(_)) => true,
                    _ => false,
                };
                if !ok {
                    diverged = true;
                    failures.push(format!(
                        "program {pi}, {shards} shards vs 1: `{q}`\n  1-shard: {:?}\n  {shards}-shard: {:?}",
                        baseline, r
                    ));
                }
            }
        }
        if diverged {
            // Divergence may have forked session state; rebuild all
            // three so later programs are judged from a clean slate.
            sessions = shard_sessions(&dataset.as_ref().unwrap().tables);
        }
    }
    assert_eq!(programs, FUZZ_BUDGET);
    assert!(
        failures.is_empty(),
        "{} cross-shard-count divergence(s) in {FUZZ_BUDGET} programs:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
