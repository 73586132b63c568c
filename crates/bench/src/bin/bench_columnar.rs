//! Emit `BENCH_columnar.json`: pgdb's executor on the translated TAQ
//! statements, in process (EXPERIMENTS.md, DESIGN §10).
//!
//!     cargo run --release --bin bench_columnar
//!
//! Reported, not gated: the translated TAQ point, vwap and `deltas`
//! (a `lag()` window block) statements of hqbench's `taq_wire` over its
//! 60k-row `trades`, timed through `Session::execute_batch`, best of 20.
//!
//! Gated: the translated `aj` over the first 300 / 3 000 / 30 000 rows
//! of `trades` and `quotes`, with the join operator's strategy and
//! probe counters. Ten times the rows must cost less than twenty times
//! the time — the interval probe is O((n + m) log m) where the nested
//! loop it replaced was O(n·m), a hundredfold per step.

use hyperq::{loader, HyperQSession};
use hyperq_workload::taq::{generate_quotes, generate_trades, TaqConfig};
use std::time::{Duration, Instant};

fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed());
    }
    best
}

/// `taq_wire`'s tables: 60k-row `trades` and `quotes`.
fn taq_db() -> pgdb::Db {
    let db = pgdb::Db::new();
    let cfg = TaqConfig { rows: 60_000, symbols: 10, days: 2, seed: 1 };
    loader::load_table_direct(&db, "trades", &generate_trades(&cfg)).expect("load trades");
    loader::load_table_direct(&db, "quotes", &generate_quotes(&cfg)).expect("load quotes");
    db
}

/// The SQL Hyper-Q sends for `q`.
fn translated(hq: &mut HyperQSession, q: &str) -> String {
    let translations = hq.translate_only(q).expect("TAQ statement translates");
    translations.last().and_then(|t| t.statements.last()).expect("one statement").sql.clone()
}

/// The translated TAQ statements over `taq_wire`'s table: name, best
/// wall clock, rows out.
fn taq_statements(db: &pgdb::Db) -> Vec<(&'static str, Duration, usize)> {
    let mut hq = HyperQSession::with_direct(db);
    let mut session = db.session();
    [
        ("taq_point_60k", "select Time, Price, Size from trades where Date=2016.06.26, Symbol=`AAPL"),
        (
            "taq_vwap_by_symbol_60k",
            "select vwap: (sum Price*Size) % sum Size by Symbol from trades where Date=2016.06.26, Size>200",
        ),
        (
            "taq_deltas_60k",
            "select Time, Price, d: deltas Price from trades where Date=2016.06.26, Symbol=`AAPL",
        ),
    ]
    .into_iter()
    .map(|(name, q)| {
        let sql = translated(&mut hq, q);
        let mut rows = 0;
        let best = best_of(20, || match session.execute_batch(&sql).expect(name) {
            pgdb::BatchQueryResult::Batch(b) => rows = b.rows(),
            other => panic!("{name}: expected rows, got {other:?}"),
        });
        (name, best, rows)
    })
    .collect()
}

const JOIN_COUNTERS: [&str; 6] = [
    "pgdb_exec_join_total{strategy=\"hash\"}",
    "pgdb_exec_join_total{strategy=\"hash_residual\"}",
    "pgdb_exec_join_total{strategy=\"interval\"}",
    "pgdb_exec_join_total{strategy=\"nested_loop\"}",
    "pgdb_exec_join_candidates_total",
    "pgdb_exec_join_matches_total",
];

/// One size of the translated `aj`.
struct AjRun {
    rows: usize,
    best: Duration,
    rows_out: usize,
    /// [`JOIN_COUNTERS`] over one execution.
    joins: [u64; 6],
}

/// The translated `aj` over the first `rows` trades and quotes, per size.
fn aj_scaling(db: &pgdb::Db) -> Vec<AjRun> {
    let mut hq = HyperQSession::with_direct(db);
    let mut session = db.session();
    let counters = || JOIN_COUNTERS.map(|c| obs::global_registry().counter_value(c));
    [300usize, 3_000, 30_000]
        .into_iter()
        .map(|rows| {
            let q = format!(
                "aj[`Symbol`Time; select Symbol, Time, Price from trades where i<{rows}; \
                 select Symbol, Time, Bid, Ask from quotes where i<{rows}]"
            );
            let sql = translated(&mut hq, &q);
            let mut run = || match session.execute_batch(&sql).expect("aj executes") {
                pgdb::BatchQueryResult::Batch(b) => b.rows(),
                other => panic!("aj: expected rows, got {other:?}"),
            };
            let before = counters();
            let rows_out = run();
            let after = counters();
            let mut joins = [0; 6];
            for (d, (a, b)) in joins.iter_mut().zip(after.iter().zip(&before)) {
                *d = a - b;
            }
            AjRun { rows, best: best_of(5, &mut run), rows_out, joins }
        })
        .collect()
}

fn main() {
    let mut json = String::from("{\n  \"taq_in_process\": [\n");
    let db = taq_db();
    let taq = taq_statements(&db);
    for (i, (name, best, rows)) in taq.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"best_ms\": {:.3}, \"rows_out\": {rows}}}{}\n",
            best.as_secs_f64() * 1e3,
            if i + 1 < taq.len() { "," } else { "" },
        ));
        println!("{name:<36} best {:>8.3}ms   {rows} rows out", best.as_secs_f64() * 1e3);
    }
    json.push_str("  ],\n  \"aj_scaling\": [\n");
    let aj = aj_scaling(&db);
    for (i, run) in aj.iter().enumerate() {
        let [hash, hash_residual, interval, nested_loop, candidates, matches] = run.joins;
        let ms = run.best.as_secs_f64() * 1e3;
        json.push_str(&format!(
            concat!(
                "    {{\"rows_per_side\": {}, \"best_ms\": {:.3}, \"rows_out\": {}, ",
                "\"joins\": {{\"hash\": {}, \"hash_residual\": {}, \"interval\": {}, \"nested_loop\": {}}}, ",
                "\"candidates\": {}, \"matches\": {}}}{}\n"
            ),
            run.rows,
            ms,
            run.rows_out,
            hash,
            hash_residual,
            interval,
            nested_loop,
            candidates,
            matches,
            if i + 1 < aj.len() { "," } else { "" },
        ));
        println!(
            "aj_{:<33} best {ms:>8.3}ms   {} rows out   interval {interval} nested_loop {nested_loop} \
             hash {hash} hash_residual {hash_residual}   {candidates} candidates {matches} matches",
            format!("{}_x_{}", run.rows, run.rows),
            run.rows_out,
        );
    }
    // Time per tenfold step in rows.
    let steps: Vec<f64> =
        aj.windows(2).map(|w| w[1].best.as_secs_f64() / w[0].best.as_secs_f64()).collect();
    json.push_str(&format!(
        "  ],\n  \"aj_time_ratio_per_10x_rows\": [{}]\n}}\n",
        steps.iter().map(|r| format!("{r:.2}")).collect::<Vec<_>>().join(", ")
    ));
    std::fs::write("BENCH_columnar.json", &json).expect("write BENCH_columnar.json");
    println!("wrote BENCH_columnar.json");

    if let Some(step) = steps.iter().find(|r| **r >= 20.0) {
        eprintln!("aj scaling: 10x the rows cost {step:.1}x the time (limit 20x)");
        std::process::exit(1);
    }
    if aj.iter().any(|run| run.joins[..4] != [0, 0, 1, 0]) {
        eprintln!("aj scaling: every size must run as one interval join");
        std::process::exit(1);
    }
}
