//! Emit `BENCH_shard.json`: scatter-gather MPP emulation at 1 shard vs
//! 4 shards, same statements, same data (DESIGN §14).
//!
//!     cargo run --release --bin bench_shard
//!
//! Measures, each best-of-N wall clock, the three BENCH_columnar shapes
//! through full `ShardRouter` clusters (coordinator + shards, routing,
//! scatter, client-side merge included):
//!
//! * int predicate filter (`WHERE v > 500000`) — pass-through scatter,
//!   k-way ordinal merge;
//! * 1k-group `GROUP BY k, sum/avg/count` — per-shard partials
//!   re-aggregated on the merge node;
//! * equi-join against a broadcast dimension table — shard-local joins.
//!
//! Both clusters are loaded through `ShardCluster::put_table_batch`
//! (the columnar bulk path), routers pin per-node execution to one
//! thread so the comparison isolates *sharding* parallelism, and every
//! shape is checked bit-identical against a plain single-node session
//! before any timing. A nonzero `shard_fallback_total` delta during the
//! correctness pass fails the run outright: a benchmark that silently
//! measured coordinator fallback would be measuring nothing.
//!
//! The ≥1.5× speedup bar on at least one shape is only *enforced*
//! (exit 1) on machines with ≥4 cores — in-process shards scatter on
//! real threads, and a 1-core container cannot exhibit that. There the
//! numbers are recorded and the gate is marked hardware-skipped
//! (`"skipped_reason": "insufficient_cores"`, as `bench_concurrency`).
//!
//! `BENCH_SHARD_ROWS` overrides the 2M default for smoke runs.

use colstore::{Batch, ColumnVec, Validity};
use hyperq::shard::{Mode, ShardCluster, ShardOpts};
use hyperq::Backend;
use pgdb::{BatchQueryResult, Column, Db, PgType};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const DEFAULT_ROWS: usize = 2_000_000;
const SHARDS: usize = 4;
const GROUPS: i64 = 1_000;

fn rows_target() -> usize {
    std::env::var("BENCH_SHARD_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(DEFAULT_ROWS)
}

/// `t`: n rows of (k: group key, v: int payload, j: join key).
/// Deterministic mixed-congruential fill — identical across the
/// single-node, 1-shard and 4-shard copies by construction.
fn fact_table(n: usize, join_keys: usize) -> Batch {
    let mut k = Vec::with_capacity(n);
    let mut v = Vec::with_capacity(n);
    let mut j = Vec::with_capacity(n);
    for i in 0..n {
        let h = (i as i64)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        k.push(h.rem_euclid(GROUPS));
        v.push(h.rem_euclid(1_000_000));
        j.push(h.rem_euclid(join_keys as i64));
    }
    Batch::new(
        vec![
            Column::new("k", PgType::Int8),
            Column::new("v", PgType::Int8),
            Column::new("j", PgType::Int8),
        ],
        vec![
            ColumnVec::Int(k, Validity::all_valid(n)),
            ColumnVec::Int(v, Validity::all_valid(n)),
            ColumnVec::Int(j, Validity::all_valid(n)),
        ],
        n,
    )
}

/// `r`: one row per join key — small enough to broadcast, so the join
/// stays shard-local.
fn dim_table(join_keys: usize) -> Batch {
    let n = join_keys;
    Batch::new(
        vec![Column::new("jk", PgType::Int8), Column::new("rv", PgType::Int8)],
        vec![
            ColumnVec::Int((0..n as i64).collect(), Validity::all_valid(n)),
            ColumnVec::Int((0..n as i64).map(|x| x * 3).collect(), Validity::all_valid(n)),
        ],
        n,
    )
}

fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed());
    }
    best
}

fn run_batch(backend: &mut dyn Backend, sql: &str) -> Batch {
    match backend.execute_sql_batch(sql).expect("bench SQL executes") {
        Some(BatchQueryResult::Batch(b)) => b,
        other => panic!("expected batch, got {other:?}"),
    }
}

struct Entry {
    name: &'static str,
    one_shard_s: f64,
    four_shard_s: f64,
    result_rows: usize,
}

impl Entry {
    fn speedup(&self) -> f64 {
        if self.four_shard_s > 0.0 { self.one_shard_s / self.four_shard_s } else { f64::INFINITY }
    }
}

fn main() {
    let rows = rows_target();
    // Dimension sized so it always broadcasts while the fact always
    // partitions, whatever BENCH_SHARD_ROWS says.
    let join_keys = (rows / 200).clamp(1, 10_000);
    let opts = || ShardOpts {
        broadcast_threshold: join_keys as u64,
        float_agg: false,
        stats: true,
        keys: HashMap::new(),
    };
    let available_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("building {rows}-row fixture ({available_cores} cores available)...");

    let db = Db::new();
    db.put_table_batch("t", fact_table(rows, join_keys));
    db.put_table_batch("r", dim_table(join_keys));
    let mut single = db.session();
    single.set_exec_threads(Some(1));

    let one = ShardCluster::in_process_with(1, opts());
    let four = ShardCluster::in_process_with(SHARDS, opts());
    for cluster in [&one, &four] {
        cluster.put_table_batch("t", fact_table(rows, join_keys));
        cluster.put_table_batch("r", dim_table(join_keys));
        assert_eq!(cluster.table_meta("t").unwrap().mode, Mode::Partitioned);
        assert_eq!(cluster.table_meta("r").unwrap().mode, Mode::Broadcast);
    }
    let mut router1 = one.router().expect("1-shard router");
    let mut router4 = four.router().expect("4-shard router");
    // Pin per-node execution to one thread: the quantity under test is
    // sharding parallelism, not the morsel scheduler.
    router1.set_exec_threads(Some(1));
    router4.set_exec_threads(Some(1));

    let shapes: [(&'static str, &'static str); 3] = [
        ("filter_int_predicate", "SELECT k, v FROM t WHERE v > 500000"),
        (
            "group_by_1k_groups",
            "SELECT k, sum(v) AS sv, avg(v) AS av, count(*) AS n FROM t GROUP BY k ORDER BY k",
        ),
        ("equi_join_broadcast_dim", "SELECT t.k, t.v, r.rv FROM t JOIN r ON t.j = r.jk"),
    ];

    // Correctness before any timing, with fallback surveillance: every
    // shape must produce the single-node answer bit for bit at both
    // shard counts, and none may have routed through the coordinator.
    let reg = obs::global_registry();
    let fallbacks_before = reg.counter_value("shard_fallback_total");
    let mut result_rows = Vec::new();
    for (name, sql) in shapes {
        let want = match single.execute_batch(sql).expect("single-node executes") {
            BatchQueryResult::Batch(b) => b,
            other => panic!("expected batch, got {other:?}"),
        };
        for (label, router) in
            [("1-shard", &mut router1 as &mut dyn Backend), ("4-shard", &mut router4)]
        {
            let got = run_batch(router, sql);
            assert!(
                want.structurally_equal(&got),
                "{name}: {label} result diverged from single-node"
            );
        }
        result_rows.push(want.rows());
    }
    let fallbacks = reg.counter_value("shard_fallback_total") - fallbacks_before;
    assert_eq!(fallbacks, 0, "a timed shape fell back to the coordinator — nothing to measure");

    let mut entries = Vec::new();
    for (i, (name, sql)) in shapes.into_iter().enumerate() {
        let one_t = best_of(3, || run_batch(&mut router1, sql));
        let four_t = best_of(3, || run_batch(&mut router4, sql));
        let e = Entry {
            name,
            one_shard_s: one_t.as_secs_f64(),
            four_shard_s: four_t.as_secs_f64(),
            result_rows: result_rows[i],
        };
        println!(
            "{:<26} 1-shard {:>9.3}ms   {}-shard {:>9.3}ms   speedup {:>6.2}x   ({} rows)",
            e.name,
            e.one_shard_s * 1e3,
            SHARDS,
            e.four_shard_s * 1e3,
            e.speedup(),
            e.result_rows,
        );
        entries.push(e);
    }

    let at_bar = entries.iter().filter(|e| e.speedup() >= 1.5).count();
    let speedup_gate_enforced = available_cores >= SHARDS;

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"rows\": {rows},\n"));
    json.push_str(&format!("  \"join_keys\": {join_keys},\n"));
    json.push_str(&format!("  \"available_cores\": {available_cores},\n"));
    json.push_str(&format!("  \"shards\": {SHARDS},\n"));
    json.push_str("  \"benchmarks\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            concat!(
                "    {{\"name\": \"{}\", \"one_shard_s\": {:.6}, \"four_shard_s\": {:.6}, ",
                "\"speedup\": {:.2}, \"result_rows\": {}}}{}\n"
            ),
            e.name,
            e.one_shard_s,
            e.four_shard_s,
            e.speedup(),
            e.result_rows,
            if i + 1 < entries.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"fallbacks_during_timed_shapes\": {fallbacks},\n"));
    json.push_str(&format!("  \"shapes_at_1_5x_or_better\": {at_bar},\n"));
    json.push_str(&format!("  \"speedup_gate_enforced\": {speedup_gate_enforced}"));
    if !speedup_gate_enforced {
        // Machine-readable marker so downstream tooling can tell "the
        // gate passed" apart from "the gate could not run here".
        json.push_str(",\n  \"skipped_reason\": \"insufficient_cores\",\n");
        json.push_str(&format!(
            "  \"speedup_gate_note\": \"hardware-skipped: {available_cores} core(s) < {SHARDS}\"\n"
        ));
    } else {
        json.push('\n');
    }
    json.push_str("}\n");
    std::fs::write("BENCH_shard.json", &json).expect("write BENCH_shard.json");
    println!("wrote BENCH_shard.json");

    if speedup_gate_enforced && at_bar < 1 {
        eprintln!("acceptance: need >=1 shape at >=1.5x with {SHARDS} shards, got {at_bar}");
        std::process::exit(1);
    }
    if !speedup_gate_enforced {
        eprintln!(
            "speedup gate skipped: {available_cores} core(s) available, gate needs {SHARDS}"
        );
    }
}
