//! What still reaches pgdb's row pipeline, measured: the executor counts
//! every hand-over in `pgdb_exec_row_fallback_total{reason}` (and the
//! rows handed over in `pgdb_exec_row_fallback_rows_total{reason}`).
//! This pins the counts for the statement shapes of hqbench's 42-text
//! TAQ pool and its `ingest_tail` as-of read: point and aggregate
//! statements never leave the vector path, a window statement leaves it
//! only after its WHERE, and an as-of join hands over nothing but the
//! right side's `lead()` block — its probe is the join operator's
//! interval strategy (`pgdb_exec_join_total{strategy}`).
//!
//! One test function on purpose: the counters are process-global, and
//! this file is its own test binary.

use hyperq::{loader, HyperQSession};
use hyperq_workload::taq::{generate_quotes, generate_trades, TaqConfig};
use qlang::value::Value;

const REASONS: [&str; 4] = ["window", "agg_shape", "non_equi_join", "lazy_expr"];
const STRATEGIES: [&str; 4] = ["hash", "hash_residual", "interval", "nested_loop"];

/// (hand-overs, rows handed over) per reason, so far.
fn fallbacks() -> [(u64, u64); 4] {
    let reg = obs::global_registry();
    REASONS.map(|r| {
        (
            reg.counter_value(&format!("pgdb_exec_row_fallback_total{{reason=\"{r}\"}}")),
            reg.counter_value(&format!("pgdb_exec_row_fallback_rows_total{{reason=\"{r}\"}}")),
        )
    })
}

/// Joins run per strategy, then the probe's candidate and matched pairs.
fn joins() -> [u64; 6] {
    let reg = obs::global_registry();
    let mut out = [0; 6];
    for (slot, s) in out.iter_mut().zip(STRATEGIES) {
        *slot = reg.counter_value(&format!("pgdb_exec_join_total{{strategy=\"{s}\"}}"));
    }
    out[4] = reg.counter_value("pgdb_exec_join_candidates_total");
    out[5] = reg.counter_value("pgdb_exec_join_matches_total");
    out
}

/// What one statement did: its row count, the row-pipeline traffic it
/// caused, and the joins it ran.
struct Ran {
    rows: usize,
    fallbacks: [(u64, u64); 4],
    joins: [u64; 6],
}

/// Run `q`; return its row count and the counter deltas it caused.
fn run(s: &mut HyperQSession, q: &str) -> Ran {
    let before = (fallbacks(), joins());
    let rows = match s.execute(q).unwrap_or_else(|e| panic!("{q}: {e}")) {
        Value::Table(t) => t.rows(),
        Value::KeyedTable(kt) => kt.key.rows(),
        other => panic!("{q}: expected a table, got {other:?}"),
    };
    let after = (fallbacks(), joins());
    let mut ran = Ran { rows, fallbacks: [(0, 0); 4], joins: [0; 6] };
    for i in 0..4 {
        ran.fallbacks[i] = (after.0[i].0 - before.0[i].0, after.0[i].1 - before.0[i].1);
    }
    for i in 0..6 {
        ran.joins[i] = after.1[i] - before.1[i];
    }
    ran
}

#[test]
fn taq_pool_shapes_record_their_row_pipeline_traffic() {
    let db = pgdb::Db::new();
    let cfg = TaqConfig { rows: 6_000, symbols: 10, days: 2, seed: 1 };
    loader::load_table_direct(&db, "trades", &generate_trades(&cfg)).unwrap();
    loader::load_table_direct(&db, "quotes", &generate_quotes(&cfg)).unwrap();
    let mut s = HyperQSession::with_direct(&db);
    let none = [(0, 0); 4];

    // point: filter + projection, plain and computed.
    for q in [
        "select Time, Price, Size from trades where Date=2016.06.26, Symbol=`AAPL",
        "select Time, Bid, Ask from quotes where Date=2016.06.26, Symbol=`AAPL",
        "select Time, Notional: Price*Size from trades where Date=2016.06.26, Symbol=`AAPL",
    ] {
        let ran = run(&mut s, q);
        assert!(ran.rows > 0, "{q}");
        assert_eq!(ran.fallbacks, none, "point statement left the vector path: {q}");
    }

    // agg: the three variants (vwap, OHLC first/last/max/min, xbar buckets).
    for q in [
        "select vwap: (sum Price*Size) % sum Size by Symbol from trades where Date=2016.06.26, Size>200",
        "select open: first Price, close: last Price, hi: max Price, lo: min Price by Symbol \
         from trades where Date=2016.06.26, Size>200",
        "select s: sum Size, n: count i by 1000 xbar Size from trades where Date=2016.06.26, Symbol=`AAPL",
        "select s: sum Size, n: count i, hi: max Price by Symbol from trades where Date=2016.06.26, Size>200",
    ] {
        let ran = run(&mut s, q);
        assert!(ran.rows > 0, "{q}");
        assert_eq!(ran.fallbacks, none, "aggregate statement left the vector path: {q}");
    }

    // window: deltas/prev run on the row pipeline — over the rows the
    // WHERE kept, not over the table.
    for q in [
        "select Time, Price, d: deltas Price from trades where Date=2016.06.26, Symbol=`AAPL",
        "select Time, Price, p: prev Price from trades where Date=2016.06.26, Symbol=`AAPL",
    ] {
        let Ran { rows, fallbacks: delta, joins } = run(&mut s, q);
        assert!(rows > 0 && rows < cfg.rows / 4, "{q}: {rows} rows");
        assert_eq!(delta[0], (1, rows as u64), "window hand-over must follow the WHERE: {q}");
        assert_eq!(delta[1..], none[1..], "{q}");
        assert_eq!(joins, [0; 6], "{q}");
    }

    // asof: hqbench's two TAQ shapes (the bare join and the slippage
    // aggregate over it) and `ingest_tail`'s tail read. The probe is the
    // join operator's interval strategy, so no join rows are handed
    // over; the right side's `lead` subquery is a window block, handed
    // over after its WHERE; both scans stay on the vector path.
    let slice = "select Symbol, Time, Price from trades \
                 where Date=2016.06.26, Symbol=`AAPL, Time within (09:30:00.000;10:30:00.000); \
                 select Symbol, Time, Bid, Ask from quotes \
                 where Date=2016.06.26, Symbol=`AAPL, Time within (09:30:00.000;10:30:00.000)";
    for q in [
        format!("aj[`Symbol`Time; {slice}]"),
        format!("select slip: avg Price-Bid by Symbol from aj[`Symbol`Time; {slice}]"),
        "aj[`Symbol`Time; select Symbol, Time, Price from trades where i>=5700, i<6000; \
         select Symbol, Time, Bid, Ask from quotes \
         where Date=2016.06.27, Time within (14:00:00.000;16:00:00.000)]"
            .to_string(),
    ] {
        let Ran { rows, fallbacks: delta, joins } = run(&mut s, &q);
        assert!(rows > 0, "{q}");
        assert_eq!(delta[2], (0, 0), "as-of join handed rows to the nested loop: {q}");
        assert_eq!((delta[1], delta[3]), ((0, 0), (0, 0)), "{q}");
        // Debug builds count more than once: the cross-check's row
        // oracle re-runs derived tables through this executor.
        let repeats = delta[0].0;
        assert!(repeats >= 1 && (repeats == 1 || cfg!(debug_assertions)), "{q}: {repeats} window blocks");
        assert!(
            delta[0].1 / repeats < (cfg.rows / 4) as u64,
            "the window block sees the filtered quotes only: {q}"
        );
        let [hash, hash_residual, interval, nested_loop, candidates, matches] = joins;
        assert_eq!((hash, hash_residual, nested_loop), (0, 0, 0), "{q}");
        assert!(interval >= 1 && (interval == 1 || cfg!(debug_assertions)), "{q}: {interval} joins");
        // `lead()` makes the upper bounds monotone, so the probe's two
        // binary searches propose exactly the pairs that match.
        assert!(matches > 0 && candidates == matches, "{q}: {candidates} proposed, {matches} matched");
    }

    // What `SHOW metrics` / `\metrics` serve.
    let dump = obs::global_registry().render_prometheus();
    for line in [
        "pgdb_exec_join_total{strategy=\"interval\"}",
        "pgdb_exec_join_candidates_total",
        "pgdb_exec_join_matches_total",
    ] {
        assert!(dump.contains(line), "missing {line} in the dump:\n{dump}");
    }
}
