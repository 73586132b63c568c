//! Property tests for the scatter-gather re-aggregation merge math
//! (ISSUE 8): merged per-shard partials for `sum` / `count` / `avg` /
//! `min` / `max` must equal single-node aggregation over the union of
//! the shards — across typed nulls, NaN inputs, NULL group keys, and
//! shard counts that leave some shards empty.
//!
//! Every case runs the same DDL + data + aggregate statements through a
//! plain single-node backend and through routers at several shard
//! counts with a zero broadcast threshold (so even one-row tables
//! partition), then compares batches bit for bit.

use hyperq::shard::{ShardCluster, ShardOpts};
use hyperq::{Backend, DirectBackend};
use pgdb::{Batch, BatchQueryResult, Cell};
use proptest::prelude::*;
use std::collections::HashMap;

/// One generated row of the fact table.
#[derive(Debug, Clone)]
struct Row {
    /// Group key; `None` is a NULL key (groups with other NULLs).
    g: Option<i64>,
    /// Integer measure; `None` is a typed NULL.
    iv: Option<i64>,
    /// Float measure: NULL, NaN, or finite.
    fv: FloatCell,
}

#[derive(Debug, Clone)]
enum FloatCell {
    Null,
    NaN,
    Finite(i32),
}

fn arb_row() -> impl Strategy<Value = Row> {
    (
        prop_oneof![
            (0i64..4).prop_map(Some),
            (0i64..4).prop_map(Some),
            (0i64..4).prop_map(Some),
            Just(None),
        ],
        prop_oneof![
            (-50i64..50).prop_map(Some),
            (-50i64..50).prop_map(Some),
            (-50i64..50).prop_map(Some),
            Just(None),
        ],
        prop_oneof![
            Just(FloatCell::Null),
            Just(FloatCell::NaN),
            (-200i32..200).prop_map(FloatCell::Finite),
            (-200i32..200).prop_map(FloatCell::Finite),
            (-200i32..200).prop_map(FloatCell::Finite),
        ],
    )
        .prop_map(|(g, iv, fv)| Row { g, iv, fv })
}

fn sql_opt(v: Option<i64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "NULL".to_string())
}

fn insert_sql(rows: &[Row]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let fv = match &r.fv {
                FloatCell::Null => "NULL".to_string(),
                // NaN must be *insertable* so float aggregates meet it;
                // the engine's only NaN constructor in plain SQL is an
                // IEEE 0/0 division.
                FloatCell::NaN => "(0.0 / 0.0)".to_string(),
                // Non-dyadic finite floats (x/10) stress exactly the
                // reorder-sensitivity that makes float aggs gather.
                FloatCell::Finite(k) => format!("({k}.0 / 10.0)"),
            };
            format!("({i}, {}, {}, {fv})", sql_opt(r.g), sql_opt(r.iv))
        })
        .collect();
    format!("INSERT INTO t VALUES {}", tuples.join(", "))
}

/// The merge-math surface: scalar and grouped, int-typed (scattered and
/// re-aggregated distributively) and float-typed (gathered),
/// with and without an ORDER BY (the bare GROUP BY pins first-seen group
/// order through the merge).
const AGG_STATEMENTS: &[&str] = &[
    "SELECT count(*) AS n, count(iv) AS c, sum(iv) AS s, min(iv) AS mn, max(iv) AS mx, \
     avg(iv) AS a FROM t",
    "SELECT g, count(*) AS n, sum(iv) AS s, min(iv) AS mn, max(iv) AS mx, avg(iv) AS a \
     FROM t GROUP BY g ORDER BY g",
    "SELECT g, sum(iv) AS s FROM t GROUP BY g",
    "SELECT count(fv) AS c, sum(fv) AS s, min(fv) AS mn, max(fv) AS mx, avg(fv) AS a FROM t",
    "SELECT g, min(fv) AS mn, max(fv) AS mx, avg(fv) AS a FROM t GROUP BY g ORDER BY g",
    "SELECT g, count(*) AS n FROM t GROUP BY g HAVING count(*) > 1 ORDER BY n DESC, g",
];

fn batch_of(b: &mut dyn Backend, sql: &str) -> Batch {
    match b.execute_sql_batch(sql) {
        Ok(Some(BatchQueryResult::Batch(batch))) => batch,
        other => panic!("expected a batch for {sql}, got {other:?}"),
    }
}

/// Zero broadcast threshold: every table partitions, however small, so
/// low row counts genuinely leave shards empty.
fn partition_everything() -> ShardOpts {
    ShardOpts { broadcast_threshold: 0, float_agg: false, stats: true, keys: HashMap::new() }
}

fn load(b: &mut dyn Backend, rows: &[Row]) {
    b.execute_sql_batch("CREATE TABLE t (id bigint, g bigint, iv bigint, fv double precision)")
        .unwrap();
    b.execute_sql_batch(&insert_sql(rows)).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merged_partials_equal_single_node_over_the_union(
        rows in proptest::collection::vec(arb_row(), 1..24),
        shards in 2usize..5,
    ) {
        let db = pgdb::Db::new();
        let mut single = DirectBackend::new(&db);
        load(&mut single, &rows);
        let cluster = ShardCluster::in_process_with(shards, partition_everything());
        let mut sharded = cluster.router().unwrap();
        load(&mut sharded, &rows);
        prop_assert_eq!(
            cluster.table_meta("t").unwrap().mode,
            hyperq::shard::Mode::Partitioned
        );
        for sql in AGG_STATEMENTS {
            let want = batch_of(&mut single, sql);
            let got = batch_of(&mut sharded, sql);
            prop_assert!(
                want.structurally_equal(&got),
                "merge diverged at {} shards for {}:\nsingle: {:?}\nsharded: {:?}",
                shards, sql, want.to_rows().data, got.to_rows().data
            );
        }
    }
}

/// Seed-corpus pin for the avg decomposition: the router merges `avg`
/// as CAST(sum-of-partial-sums AS float) / CAST(sum-of-partial-counts
/// AS float) — one f64 division, exactly what the single-node engine
/// computes. This fixed dataset splits unevenly across 3 shards (one
/// shard empty for group 2), with NULLs thinning the count.
#[test]
fn avg_is_merged_as_sum_over_count() {
    let rows: Vec<Row> = vec![
        Row { g: Some(1), iv: Some(10), fv: FloatCell::Finite(10) },
        Row { g: Some(1), iv: Some(21), fv: FloatCell::Null },
        Row { g: Some(1), iv: None, fv: FloatCell::Finite(-3) },
        Row { g: Some(2), iv: Some(7), fv: FloatCell::NaN },
        Row { g: None, iv: Some(5), fv: FloatCell::Finite(1) },
    ];
    let db = pgdb::Db::new();
    let mut single = DirectBackend::new(&db);
    load(&mut single, &rows);
    let cluster = ShardCluster::in_process_with(3, partition_everything());
    let mut sharded = cluster.router().unwrap();
    load(&mut sharded, &rows);

    let avg = "SELECT g, avg(iv) AS a FROM t GROUP BY g ORDER BY g";
    let decomposed =
        "SELECT g, CAST(sum(iv) AS double precision) / CAST(count(iv) AS double precision) AS a \
         FROM t GROUP BY g ORDER BY g";
    let merged = batch_of(&mut sharded, avg);
    // The decomposition identity itself, on the single node…
    assert!(
        batch_of(&mut single, avg).structurally_equal(&batch_of(&mut single, decomposed)),
        "single-node avg must equal sum/count"
    );
    // …and the merged result agrees with both sides of it.
    assert!(batch_of(&mut single, avg).structurally_equal(&merged));
    // Spot-check the actual quotient: group 1 averages (10+21)/2 (the
    // NULL group key sorts first, so group 1 is the second row).
    let rows_out = merged.to_rows().data;
    assert_eq!(rows_out[1][1], Cell::Float(15.5), "{rows_out:?}");
    // Group with every iv NULL would be absent here; the scalar form
    // must return NULL, not 0/0, through the CASE-guarded merge.
    let scalar = batch_of(&mut sharded, "SELECT avg(iv) AS a FROM t WHERE iv IS NULL");
    assert_eq!(scalar.to_rows().data[0][0], Cell::Null);
}
