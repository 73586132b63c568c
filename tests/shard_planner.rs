//! Shard planner test surface.
//!
//! 1. Table-driven *pure* planner tests: `planner::plan_select` over a
//!    hand-built catalog, asserting the `ShardPlan` kind and reason for
//!    every statement family — no cluster, no execution.
//! 2. Placement-policy tests: `decide_placement` from routed row counts
//!    and distinct partition keys, and the same placement from an
//!    in-process and a remote cluster.
//! 3. The plan-kind pin: how many statements of the fixed-seed
//!    200-program fuzz slice on a 4-shard router plan each kind.

use hyperq::gateway::Credentials;
use hyperq::shard::planner::{self, decide_placement, plan_select, ShardPlan};
use hyperq::shard::{Mode, ShardCluster, ShardOpts, TableMeta};
use hyperq::side_by_side::{router_session, shard_opts};
use hyperq::{share, Backend, HyperQSession, RetryPolicy, SessionConfig, WireTimeouts};
use pgdb::server::{PgServer, ServerConfig};
use pgdb::sql::ast::Stmt;
use pgdb::sql::render::render_expr;
use pgdb::PgType;
use std::collections::HashMap;
use std::sync::Mutex;

/// Serializes tests that read deltas of the process-global metrics
/// registry, so concurrent planner tests cannot contaminate a window.
static COUNTERS: Mutex<()> = Mutex::new(());

// ---------------------------------------------------------------------
// 1. The planner as a pure function: statement family → (kind, reason).
// ---------------------------------------------------------------------

/// A hand-built placement catalog: two co-partitionable fact tables, a
/// broadcast dimension, and a float-keyed partitioned table. No cluster
/// exists; the planner only ever sees this snapshot.
fn catalog() -> HashMap<String, TableMeta> {
    let fact_cols = vec![
        ("id".to_string(), PgType::Int8),
        ("grp".to_string(), PgType::Int8),
        ("sym".to_string(), PgType::Text),
        ("fv".to_string(), PgType::Float8),
    ];
    let mut cat = HashMap::new();
    cat.insert(
        "fact".to_string(),
        TableMeta::new(fact_cols.clone(), Some(0), Mode::Partitioned, 100),
    );
    cat.insert("fact2".to_string(), TableMeta::new(fact_cols, Some(0), Mode::Partitioned, 100));
    cat.insert(
        "dim".to_string(),
        TableMeta::new(
            vec![("id".to_string(), PgType::Int8), ("label".to_string(), PgType::Text)],
            Some(0),
            Mode::Broadcast,
            10,
        ),
    );
    cat.insert(
        "fkey".to_string(),
        TableMeta::new(
            vec![("fk".to_string(), PgType::Float8), ("v".to_string(), PgType::Int8)],
            Some(0),
            Mode::Partitioned,
            100,
        ),
    );
    cat
}

fn plan_of(sql: &str) -> (String, String) {
    let stmt = pgdb::sql::parse_statement(sql).expect("test SQL must parse");
    let Stmt::Select(sel) = stmt else { panic!("test SQL must be a SELECT: {sql}") };
    let plan = plan_select(&sel, &catalog(), &shard_opts());
    (plan.kind().to_string(), plan.reason().to_string())
}

#[test]
fn planner_assigns_kind_and_reason_per_statement_family() {
    let cases: &[(&str, &str, &str)] = &[
        // No shard-managed tables at all.
        ("SELECT 1", "local", planner::OK_LOCAL),
        // A table outside the shard catalog lives on the coordinator
        // alone, whatever else the statement names.
        ("SELECT t.x FROM tmp AS t", "local", planner::OK_COORD_TABLE),
        (
            "SELECT f.id FROM fact AS f INNER JOIN tmp AS t ON f.id = t.id",
            "local",
            planner::OK_COORD_TABLE,
        ),
        (
            "SELECT row_number() OVER (ORDER BY f.id) FROM fact AS f \
             INNER JOIN tmp AS t ON f.id = t.id",
            "local",
            planner::OK_COORD_TABLE,
        ),
        (
            "SELECT id FROM fact WHERE id IN (SELECT x FROM tmp)",
            "local",
            planner::OK_COORD_TABLE,
        ),
        // Replicated inputs only: the coordinator's answer is exact.
        ("SELECT id, label FROM dim ORDER BY id", "broadcast", planner::OK_REPLICATED),
        // Single partitioned table: scatter + ordinal merge.
        ("SELECT id, grp FROM fact ORDER BY id LIMIT 5", "scatter", planner::OK_SCAN),
        // Partitioned probe against a broadcast build side.
        (
            "SELECT f.id, d.label FROM fact AS f INNER JOIN dim AS d ON f.id = d.id",
            "scatter",
            planner::OK_BROADCAST_JOIN,
        ),
        // Both sides hash-partitioned on the equated join key.
        (
            "SELECT a.id FROM fact AS a INNER JOIN fact2 AS b ON a.id = b.id",
            "shard_local",
            planner::OK_CO_PART,
        ),
        // The proof chains across legs.
        (
            "SELECT a.id FROM fact AS a INNER JOIN fact2 AS b ON a.id = b.id \
             INNER JOIN dim AS d ON a.id = d.id",
            "shard_local",
            planner::OK_CO_PART,
        ),
        // Every failed decomposition below gathers, its reason the
        // obligation that failed.
        // Join keys that are not both partition keys: unprovable.
        (
            "SELECT a.id FROM fact AS a INNER JOIN fact2 AS b ON a.grp = b.id",
            "gather",
            planner::FB_JOIN_KEYS,
        ),
        // Float partition keys never establish co-location (NaN and
        // ±0.0 hash by representation but compare by value).
        (
            "SELECT a.id FROM fact AS a INNER JOIN fkey AS b ON a.fv = b.fk",
            "gather",
            planner::FB_JOIN_KEYS,
        ),
        // Cross joins carry no co-location conjunct.
        ("SELECT a.id FROM fact AS a CROSS JOIN fact2 AS b", "gather", planner::FB_JOIN_KEYS),
        // Distributive aggregation: two-phase with a re-fold.
        ("SELECT grp, count(*) FROM fact GROUP BY grp", "two_phase_agg", planner::OK_AGG),
        (
            "SELECT sum(f.id) AS s FROM fact AS f INNER JOIN dim AS d ON f.id = d.id",
            "two_phase_agg",
            planner::OK_AGG_JOIN,
        ),
        // Float aggregates are not exactly associative: gather unless
        // HQ_SHARD_FLOAT_AGG opts in.
        ("SELECT sum(fv) FROM fact", "gather", planner::FB_FLOAT_AGG),
        // No distributive decomposition exists for median or the
        // deviation family: exact over gathered inputs.
        ("SELECT median(id) FROM fact", "gather", planner::FB_NONDISTRIBUTIVE),
        ("SELECT grp, stddev_pop(id), var_pop(id) FROM fact GROUP BY grp", "gather", planner::FB_NONDISTRIBUTIVE),
        // Non-decomposable statement families over shard-managed inputs
        // gather: exact input reconstruction, whole-statement evaluation.
        (
            "SELECT id, row_number() OVER (ORDER BY id) FROM fact",
            "gather",
            planner::FB_WINDOW,
        ),
        ("SELECT id FROM fact UNION SELECT id FROM fact2", "gather", planner::FB_SET_OP),
        (
            "SELECT id FROM fact WHERE id IN (SELECT id FROM dim)",
            "gather",
            planner::FB_SUBQUERY,
        ),
        ("SELECT count(DISTINCT sym) FROM fact", "gather", planner::FB_DISTINCT_AGG),
        // OFFSET needs a global skip; shards cannot skip locally.
        ("SELECT id FROM fact ORDER BY id LIMIT 5 OFFSET 5", "gather", planner::FB_OFFSET),
        // `SELECT *` over a join cannot be expanded from the catalog.
        (
            "SELECT * FROM fact AS a INNER JOIN dim AS d ON a.id = d.id",
            "gather",
            planner::FB_WILDCARD,
        ),
        // An ORDER BY expression that could capture an output alias.
        ("SELECT id + 1 AS x FROM fact ORDER BY x + 1", "gather", planner::FB_ORDER_ALIAS),
        // Aggregates over joins whose ORDER BY the merge cannot resolve.
        (
            "SELECT count(*) AS c FROM fact AS a INNER JOIN fact2 AS b ON a.id = b.id \
             ORDER BY a.id",
            "gather",
            planner::FB_AGG_JOIN,
        ),
        // A column, qualifier or alias in the router-internal namespace
        // would collide with the per-shard rewrite; a literal cannot.
        ("SELECT __hq_ord FROM fact", "gather", planner::FB_RESERVED),
        ("SELECT id AS __hq_k0 FROM fact ORDER BY grp", "gather", planner::FB_RESERVED),
        ("SELECT __hq_x.id FROM fact AS __hq_x", "gather", planner::FB_RESERVED),
        ("SELECT count(*) AS __hq_ho FROM fact", "gather", planner::FB_RESERVED),
        ("SELECT id FROM fact WHERE sym = '__hq_note'", "scatter", planner::OK_SCAN),
        // Replicated tables read the same on every node, reserved
        // names included.
        ("SELECT __hq_ord FROM dim", "broadcast", planner::OK_REPLICATED),
    ];
    for (sql, kind, reason) in cases {
        let (k, r) = plan_of(sql);
        assert_eq!(
            (k.as_str(), r.as_str()),
            (*kind, *reason),
            "wrong plan for {sql:?}: got ({k}, {r}), want ({kind}, {reason})"
        );
    }
}

/// Each gathered table of `sql`'s plan: (name, columns, rendered
/// filter, filter outcome).
fn gather_of(sql: &str) -> Vec<(String, Vec<String>, Option<String>, &'static str)> {
    let stmt = pgdb::sql::parse_statement(sql).expect("test SQL must parse");
    let Stmt::Select(sel) = stmt else { panic!("test SQL must be a SELECT: {sql}") };
    let ShardPlan::Gather { tables, .. } = plan_select(&sel, &catalog(), &shard_opts()) else {
        panic!("{sql} must plan a gather");
    };
    tables
        .into_iter()
        .map(|t| {
            let cols = t.cols.into_iter().map(|(n, _)| n).collect();
            (t.name, cols, t.filter.as_ref().map(render_expr), t.filter_outcome)
        })
        .collect()
}

/// (statement, table, its gathered columns, its rendered filter, the
/// filter outcome).
type GatherCase = (String, &'static str, &'static [&'static str], Option<&'static str>, &'static str);

#[test]
fn gather_ships_the_columns_and_rows_the_statement_can_observe() {
    let w = "row_number() OVER (ORDER BY id)";
    let cases: Vec<GatherCase> = vec![
        // Every conjunct names only the table's columns and cannot
        // raise: the WHERE runs on the shards; only named columns ship.
        (
            format!("SELECT id, {w} FROM fact WHERE sym = 'AA' AND grp > 2"),
            "fact",
            &["id", "grp", "sym"],
            Some(r#"(("sym" = 'AA') AND ("grp" > 2))"#),
            planner::GF_PUSHED,
        ),
        // Qualifiers by the occurrence's alias are stripped.
        (
            "SELECT f.id, row_number() OVER (ORDER BY f.id) FROM fact AS f \
             WHERE f.sym IS NOT NULL AND f.grp <> 4"
                .to_string(),
            "fact",
            &["id", "grp", "sym"],
            Some(r#"(("sym" IS NOT NULL) AND ("grp" <> 4))"#),
            planner::GF_PUSHED,
        ),
        // Two occurrences with different WHEREs: their OR ships.
        (
            format!(
                "SELECT id, {w} FROM fact WHERE grp = 1 \
                 UNION ALL SELECT id, {w} FROM fact WHERE sym = 'BB'"
            ),
            "fact",
            &["id", "grp", "sym"],
            Some(r#"(("grp" = 1) OR ("sym" = 'BB'))"#),
            planner::GF_PUSHED,
        ),
        // `SELECT *` reads every column; the WHERE still pushes.
        (
            format!("SELECT *, {w} FROM fact WHERE grp < 3"),
            "fact",
            &["id", "grp", "sym", "fv"],
            Some(r#"("grp" < 3)"#),
            planner::GF_PUSHED,
        ),
        // A fallible conjunct sees every row on a single node, so the
        // WHERE stays whole on the scratch engine.
        (
            format!("SELECT id, {w} FROM fact WHERE sym = 'AA' AND 100 / (grp - 3) > 0"),
            "fact",
            &["id", "grp", "sym"],
            None,
            planner::GF_FALLIBLE,
        ),
        // Float ordering fails on NaN.
        (
            format!("SELECT id, {w} FROM fact WHERE fv > 1.0"),
            "fact",
            &["id", "fv"],
            None,
            planner::GF_FALLIBLE,
        ),
        // An IN (SELECT ...) conjunct can fail; its own select's WHERE
        // pushes into the replicated table's read.
        (
            format!("SELECT id, {w} FROM fact WHERE id IN (SELECT id FROM dim WHERE label <> 'L3')"),
            "fact",
            &["id"],
            None,
            planner::GF_FALLIBLE,
        ),
        (
            format!("SELECT id, {w} FROM fact WHERE id IN (SELECT id FROM dim WHERE label <> 'L3')"),
            "dim",
            &["id", "label"],
            Some(r#"("label" <> 'L3')"#),
            planner::GF_PUSHED,
        ),
        // No WHERE: every row ships, still only the named columns.
        (format!("SELECT id, {w} FROM fact"), "fact", &["id"], None, planner::GF_UNFILTERED),
        // The WHERE is a level above the subquery that reads the table.
        (
            "SELECT s, row_number() OVER (ORDER BY s) FROM \
             (SELECT id AS i, sym AS s FROM fact) AS t WHERE s = 'CC'"
                .to_string(),
            "fact",
            &["id", "sym"],
            None,
            planner::GF_UNFILTERED,
        ),
        // A join leg is never filtered.
        (
            "SELECT f.id, row_number() OVER (ORDER BY f.id) FROM fact AS f \
             INNER JOIN dim AS d ON f.id = d.id WHERE f.grp = 1"
                .to_string(),
            "fact",
            &["id", "grp"],
            None,
            planner::GF_UNFILTERED,
        ),
        // A column the table lacks, or a qualifier other than the
        // occurrence's.
        (
            format!("SELECT id, {w} FROM fact WHERE label = 'L1'"),
            "fact",
            &["id"],
            None,
            planner::GF_FOREIGN,
        ),
        (
            "SELECT f.id, row_number() OVER (ORDER BY f.id) FROM fact AS f WHERE fact.grp = 1"
                .to_string(),
            "fact",
            &["id", "grp"],
            None,
            planner::GF_FOREIGN,
        ),
    ];
    for (sql, table, cols, filter, outcome) in cases {
        let got = gather_of(&sql);
        let (_, c, f, o) = got
            .iter()
            .find(|(n, ..)| n == table)
            .unwrap_or_else(|| panic!("{table} is not gathered by {sql}"));
        assert_eq!(
            (c.as_slice(), f.as_deref(), *o),
            (cols.iter().map(|s| s.to_string()).collect::<Vec<_>>().as_slice(), filter, outcome),
            "wrong gather recipe for {table} in {sql:?}"
        );
    }
}

#[test]
fn planner_is_pure_over_the_snapshot() {
    // Same statement, different snapshot → different plan: flip `dim`
    // to partitioned and the broadcast join proof disappears.
    let sql = "SELECT f.id, d.label FROM fact AS f INNER JOIN dim AS d ON f.id = d.id";
    let stmt = pgdb::sql::parse_statement(sql).unwrap();
    let Stmt::Select(sel) = stmt else { unreachable!() };

    let (k, _) = plan_of(sql);
    assert_eq!(k, "scatter");

    let mut cat = catalog();
    cat.get_mut("dim").unwrap().mode = Mode::Partitioned;
    let plan = plan_select(&sel, &cat, &shard_opts());
    // dim's partition key (id) is equated with fact's: still provable,
    // now as a co-partitioned join.
    assert_eq!((plan.kind(), plan.reason()), ("shard_local", planner::OK_CO_PART));

    // Equate a non-key column instead and the proof fails.
    let sql2 = "SELECT f.id, d.label FROM fact AS f INNER JOIN dim AS d ON f.grp = d.label";
    let Stmt::Select(sel2) = pgdb::sql::parse_statement(sql2).unwrap() else { unreachable!() };
    let plan2 = plan_select(&sel2, &cat, &shard_opts());
    assert_eq!((plan2.kind(), plan2.reason()), ("gather", planner::FB_JOIN_KEYS));
}

// ---------------------------------------------------------------------
// 2. Placement policy from routed rows and keys.
// ---------------------------------------------------------------------

/// The default placement policy: broadcast up to 64 rows.
fn placement_opts() -> ShardOpts {
    ShardOpts { broadcast_threshold: 64, ..shard_opts() }
}

#[test]
fn placement_follows_rows_and_key_cardinality() {
    let o = placement_opts();
    // Small tables broadcast regardless of cardinality.
    let p = decide_placement(64, Some(64), 4, &o);
    assert_eq!((p.mode, p.reason), (Mode::Broadcast, "small_table"));
    // Past the row threshold with a well-spread key: partition.
    let p = decide_placement(65, Some(60), 4, &o);
    assert_eq!((p.mode, p.reason), (Mode::Partitioned, "over_threshold"));
    // Past the row threshold but the key has fewer distinct values than
    // there are shards: hashing would leave shards empty — stay
    // broadcast while moderately sized.
    let p = decide_placement(100, Some(3), 4, &o);
    assert_eq!((p.mode, p.reason), (Mode::Broadcast, "low_key_cardinality"));
    // The low-cardinality override expires at 4x the threshold.
    let p = decide_placement(257, Some(3), 4, &o);
    assert_eq!((p.mode, p.reason), (Mode::Partitioned, "over_threshold"));
    // A keyless table: pure row-count threshold.
    let p = decide_placement(100, None, 4, &o);
    assert_eq!((p.mode, p.reason), (Mode::Partitioned, "over_threshold"));
}

#[test]
fn threshold_zero_partitions_everything() {
    let mut o = placement_opts();
    o.broadcast_threshold = 0;
    let p = decide_placement(1, Some(1), 4, &o);
    assert_eq!(p.mode, Mode::Partitioned);
}

/// Placement a cluster reaches for tables of 100 routed rows (past the
/// threshold, within 4x it) on 4 shards, by the partition keys routed.
fn placements(cluster: &std::sync::Arc<ShardCluster>) -> Vec<Mode> {
    let mut r = cluster.router().unwrap();
    let tables: [(&str, &[&str]); 3] = [
        // 3 distinct keys: fewer than the shards.
        ("three", &["0", "1", "2"]),
        // 3 distinct keys and NULLs: a NULL key is no distinct value.
        ("nulls", &["0", "1", "2", "NULL"]),
        // 4 distinct keys: one per shard.
        ("four", &["0", "1", "2", "3"]),
    ];
    tables
        .iter()
        .map(|(t, keys)| {
            r.execute_sql(&format!("CREATE TABLE {t} (g bigint, v bigint)")).unwrap();
            let rows: Vec<String> =
                (0..100).map(|i| format!("({}, {i})", keys[i % keys.len()])).collect();
            r.execute_sql(&format!("INSERT INTO {t} VALUES {}", rows.join(", "))).unwrap();
            cluster.table_meta(t).unwrap().mode
        })
        .collect()
}

/// Placement reads only what the router routes, so an in-process and a
/// remote cluster place a table alike.
#[test]
fn placement_is_the_same_in_process_and_remote() {
    // Both clusters take their knobs from the environment.
    let opts = ShardOpts::from_env();
    let p = decide_placement(100, Some(3), 4, &opts);
    assert_eq!(p.reason, "low_key_cardinality", "needs the default HQ_SHARD_BROADCAST");
    let want = [Mode::Broadcast, Mode::Broadcast, Mode::Partitioned];

    assert_eq!(placements(&ShardCluster::in_process_with(4, opts)), want, "in process");

    let servers: Vec<PgServer> = (0..5)
        .map(|_| PgServer::start(pgdb::Db::new(), "127.0.0.1:0", ServerConfig::default()).unwrap())
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.addr.to_string()).collect();
    let creds = Credentials { user: "u".into(), password: String::new(), database: "d".into() };
    let remote = ShardCluster::remote(
        addrs[..4].to_vec(),
        addrs[4].clone(),
        creds,
        WireTimeouts::default(),
        RetryPolicy::no_retry(),
    );
    assert_eq!(placements(&remote), want, "remote");
    drop(remote);
    for s in servers {
        s.stop();
    }
}

// ---------------------------------------------------------------------
// 3. The session-level EXPLAIN SHARD surface.
// ---------------------------------------------------------------------

#[test]
fn session_explain_shard_surface() {
    let cluster = ShardCluster::in_process_with(2, placement_opts());
    let mut s = HyperQSession::new(share(cluster.router().unwrap()), SessionConfig::default());
    {
        let mut be = s.backend().lock().unwrap();
        be.execute_sql("CREATE TABLE small (k bigint)").unwrap();
        be.execute_sql("INSERT INTO small VALUES (1), (2)").unwrap();
    }
    let rows = s.explain_shard("SELECT k FROM small ORDER BY k").unwrap();
    let names: Vec<&str> = rows.columns.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["kind", "reason", "detail"]);
    assert_eq!(rows.data[0][0], pgdb::Cell::Text("broadcast".to_string()));
    assert_eq!(rows.data[0][1], pgdb::Cell::Text(planner::OK_REPLICATED.to_string()));
    // The per-table row surfaces placement, routed rows and key.
    assert_eq!(rows.data[1][0], pgdb::Cell::Text("table:small".to_string()));
}

// ---------------------------------------------------------------------
// 4. The fixed-seed fuzz slice's plans, kind by kind.
// ---------------------------------------------------------------------

const FUZZ_BUDGET: usize = 200;
const FUZZ_SEED: u64 = 20260807;

/// `shard_plan_total` summed over reasons, per kind.
fn plans_by_kind() -> HashMap<String, u64> {
    let mut out = HashMap::new();
    for line in obs::global_registry().render_prometheus().lines() {
        let Some(rest) = line.strip_prefix("shard_plan_total{kind=\"") else { continue };
        let (kind, _) = rest.split_once('"').expect("a kind label");
        let (_, n) = line.rsplit_once(' ').expect("a value");
        *out.entry(kind.to_string()).or_default() += n.parse::<u64>().expect("a count");
    }
    out
}

#[test]
fn fuzz_slice_plan_kinds_are_pinned() {
    let _serial = COUNTERS.lock().unwrap();
    let before = plans_by_kind();
    for (tables, programs) in qgen::slice(FUZZ_SEED, FUZZ_BUDGET).map(qgen::Chunk::into_rendered) {
        let mut s = router_session(&tables, 4).unwrap();
        for q in programs.iter().flatten() {
            let _ = s.execute(q);
        }
    }
    let after = plans_by_kind();
    let mut got: Vec<(&str, u64)> = after
        .iter()
        .map(|(k, n)| (k.as_str(), n - before.get(k).copied().unwrap_or(0)))
        .filter(|(_, n)| *n > 0)
        .collect();
    got.sort_unstable();
    println!("fuzz-slice plans by kind: {got:?}");
    // The fuzz row partitions every non-empty table, so no statement
    // over stored tables alone runs on the coordinator: each one
    // scatters, aggregates in two phases or gathers, and `local` counts
    // the statements naming a translator temp table.
    assert_eq!(got, [("gather", 345), ("local", 53), ("scatter", 217), ("two_phase_agg", 21)]);
}
