//! Shard-count differential: the `ShardRouter` promises results
//! *bit-identical* to single-node execution at any shard count. Scatter
//! scans interleave back into insertion order via the hidden ordinal,
//! re-aggregated partials merge on an engine-semantics scratch
//! instance, every statement no decomposition proves (windows, set ops,
//! DISTINCT and float aggregates, OFFSET, unproven joins) gathers the
//! rows it reads onto a scratch instance, and only statements naming a
//! coordinator-only table (temp/CTAS products) or replicated tables
//! alone run on the coordinator. This suite enforces the promise three
//! ways:
//!
//! 1. direct SQL structural equality (`colstore::structurally_equal`)
//!    between a plain single-node backend and routers at 1, 2 and 4
//!    shards — scans, ordered merges, distributive re-aggregation,
//!    broadcast joins, gathers, and identical error surfaces — plus the
//!    rule that a SELECT over a partitioned table never reaches the
//!    coordinator unless it names a coordinator-only table;
//! 2. the Q oracle statements through the complete translate → SQL →
//!    scatter-gather pipeline at 1, 2 and 4 shards, judged against the
//!    reference interpreter;
//! 3. a 200-program qgen fuzz slice on 1-, 2- and 4-shard routers that
//!    partition every non-empty table, the 2- and 4-shard answers and
//!    error strings judged against the 1-shard ones.

mod common;

use common::corpus::{fixture, ORACLE};
use hyperq::shard::{Mode, ShardCluster, ShardOpts};
use hyperq::side_by_side::{shard_opts, Arm, Baseline, Matrix, Rule};
use hyperq::{Backend, DirectBackend};
use pgdb::{Batch, BatchQueryResult, Cell};
use std::sync::RwLock;

/// `shard_statements_total{shard="coord"}` is process-wide: the test
/// that reads its deltas holds this for writing, every other test that
/// routes statements for reading.
static COORD_COUNTER: RwLock<()> = RwLock::new(());

// ---------------------------------------------------------------------
// 1. Direct SQL: single node vs 1/2/4-shard routers, bit for bit.
// ---------------------------------------------------------------------

/// A cluster with the default placement policy (broadcast up to 64
/// rows), so the fixture below has a table of each placement.
fn cluster(shards: usize) -> std::sync::Arc<ShardCluster> {
    ShardCluster::in_process_with(shards, ShardOpts { broadcast_threshold: 64, ..shard_opts() })
}

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
                1 => "(0.0 / 0.0)".to_string(), // NaN: float aggs must stay exact via gather
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

/// SQL shapes under test. Decomposed, gathered and coordinator-local
/// statements all appear: the differential does not care *how* a
/// statement was routed, only that the answer (or the error) is
/// indistinguishable from single-node.
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
    // shapes no decomposition proves gather: answers still identical
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
    // a temp table lives on the coordinator alone, so a statement
    // joining it runs there
    "CREATE TEMPORARY TABLE tmpf AS SELECT id, grp FROM fact WHERE grp < 3",
    "SELECT f.id, f.sym, t.grp FROM fact AS f INNER JOIN tmpf AS t ON f.id = t.id ORDER BY f.id",
    // a reserved prefix in a literal is data: the row lands on a shard;
    // a reserved column is refused by the coordinator before any shard
    // sees a row
    "INSERT INTO fact VALUES (1000, 1, '__hq_note', 5, 1.5)",
    "INSERT INTO fact (id, __hq_ord) VALUES (1001, 7)",
    "SELECT id, grp, sym FROM fact WHERE grp = 1",
    "SELECT count(*) AS n FROM fact",
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
    let _coord = COORD_COUNTER.read().unwrap_or_else(|e| e.into_inner());
    let single_db = pgdb::Db::new();
    let mut backends: Vec<(String, Box<dyn Backend>)> =
        vec![("single-node".into(), Box::new(DirectBackend::new(&single_db)))];
    for shards in [1usize, 2, 4] {
        backends.push((format!("{shards}-shard router"), Box::new(cluster(shards).router().unwrap())));
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

/// The tables `sql` reads: each name after a FROM or a JOIN.
fn tables_read(sql: &str) -> Vec<&str> {
    let words: Vec<&str> =
        sql.split(|c: char| !(c.is_alphanumeric() || c == '_')).filter(|w| !w.is_empty()).collect();
    words
        .windows(2)
        .filter(|w| w[0].eq_ignore_ascii_case("FROM") || w[0].eq_ignore_ascii_case("JOIN"))
        .map(|w| w[1])
        .filter(|t| !t.eq_ignore_ascii_case("SELECT"))
        .collect()
}

/// The distributed rule, measured where it acts: a SELECT that reads a
/// partitioned table and only shard-managed ones is decomposed or
/// gathered, so the coordinator runs nothing for it, error or not.
#[test]
fn shard_managed_selects_never_reach_the_coordinator() {
    let _coord = COORD_COUNTER.write().unwrap_or_else(|e| e.into_inner());
    let reg = obs::global_registry();
    let coord = "shard_statements_total{shard=\"coord\"}";
    for shards in [1usize, 2, 4] {
        let cluster = cluster(shards);
        let mut r = cluster.router().unwrap();
        for stmt in setup_sql() {
            run_sql(&mut r, &stmt);
        }
        let mut checked = 0;
        for sql in SQL_STATEMENTS {
            let tables = tables_read(sql);
            let modes: Vec<Option<Mode>> =
                tables.iter().map(|t| cluster.table_meta(t).map(|m| m.mode)).collect();
            let distributed = sql.starts_with("SELECT")
                && modes.iter().all(Option::is_some)
                && modes.contains(&Some(Mode::Partitioned));
            let before = reg.counter_value(coord);
            run_sql(&mut r, sql);
            if distributed {
                checked += 1;
                let ran = reg.counter_value(coord) - before;
                assert_eq!(ran, 0, "{shards} shards: {sql} ran on the coordinator");
            }
        }
        assert_eq!(checked, 44, "{shards} shards: SELECTs over partitioned tables");
    }
}

/// Sanity guard on the fixture: the differential above only proves
/// anything if the interesting statements really scatter. Pin the
/// routing decisions through `EXPLAIN SHARD` — this router's own plan
/// for the statement, where the process-wide `shard_*_total` counters
/// also move under the sibling tests of this binary.
#[test]
fn differential_fixture_really_scatters() {
    let _coord = COORD_COUNTER.read().unwrap_or_else(|e| e.into_inner());
    let cluster = cluster(4);
    let mut r = cluster.router().unwrap();
    for stmt in setup_sql() {
        if let SqlOutcome::Error(e) = run_sql(&mut r, &stmt) {
            panic!("setup failed: {e}");
        }
    }
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
    // reconstruction).
    assert_eq!(
        plan_kind("SELECT count(DISTINCT sym) AS d FROM fact"),
        "gather",
        "DISTINCT aggregates must execute via gather"
    );
    // A temp table exists on the coordinator alone.
    assert_eq!(
        plan_kind("SELECT f.id, f.sym, t.grp FROM fact AS f INNER JOIN tmpf AS t ON f.id = t.id"),
        "local",
        "a join with a temp table must run where the temp table lives"
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
// 2. The Q oracle through the full pipeline, per shard count.
// ---------------------------------------------------------------------

/// The router arms partition every non-empty table: trades (200 rows),
/// quotes (600), nullable (5) and refdata (3). Each statement is
/// compared across the six pairs of the four arms.
#[test]
fn oracle_agrees_at_one_two_and_four_shards() {
    let _coord = COORD_COUNTER.read().unwrap_or_else(|e| e.into_inner());
    Matrix::new(&[Arm::Qengine, Arm::Router(1), Arm::Router(2), Arm::Router(4)], Rule::Reference, 1)
        .statements(&fixture(), &[(ORACLE, Baseline::Succeeds)])
        .assert_clean(6 * 42);
}

// ---------------------------------------------------------------------
// 3. qgen fuzz slice: 200 programs side by side at 1, 2 and 4 shards.
// ---------------------------------------------------------------------

/// The slice's 664 statements, compared across the three pairs of routers.
#[test]
fn fuzz_slice_agrees_across_shard_counts() {
    let _coord = COORD_COUNTER.read().unwrap_or_else(|e| e.into_inner());
    Matrix::new(&[Arm::Router(1), Arm::Router(2), Arm::Router(4)], Rule::SameErrors, 1)
        .slice(qgen::slice(20260807, 200).map(qgen::Chunk::into_rendered))
        .assert_clean(3 * 664);
}
