//! What still reaches pgdb's row pipeline, measured: the executor counts
//! every hand-over in `pgdb_exec_row_fallback_total{reason}` (and the
//! rows handed over in `pgdb_exec_row_fallback_rows_total{reason}`).
//! This pins the counts for the statement shapes of hqbench's 42-text
//! TAQ pool: point and aggregate statements never leave the vector
//! path, and a window statement leaves it only after its WHERE.
//!
//! One test function on purpose: the counters are process-global, and
//! this file is its own test binary.

use hyperq::{loader, HyperQSession};
use hyperq_workload::taq::{generate_quotes, generate_trades, TaqConfig};
use qlang::value::Value;

const REASONS: [&str; 4] = ["window", "agg_shape", "non_equi_join", "lazy_expr"];

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

/// Run `q`; return its row count and the counter deltas it caused.
fn run(s: &mut HyperQSession, q: &str) -> (usize, [(u64, u64); 4]) {
    let before = fallbacks();
    let rows = match s.execute(q).unwrap_or_else(|e| panic!("{q}: {e}")) {
        Value::Table(t) => t.rows(),
        Value::KeyedTable(kt) => kt.key.rows(),
        other => panic!("{q}: expected a table, got {other:?}"),
    };
    let after = fallbacks();
    let mut delta = [(0, 0); 4];
    for i in 0..4 {
        delta[i] = (after[i].0 - before[i].0, after[i].1 - before[i].1);
    }
    (rows, delta)
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
        let (rows, delta) = run(&mut s, q);
        assert!(rows > 0, "{q}");
        assert_eq!(delta, none, "point statement left the vector path: {q}");
    }

    // agg: the three variants (vwap, OHLC first/last/max/min, xbar buckets).
    for q in [
        "select vwap: (sum Price*Size) % sum Size by Symbol from trades where Date=2016.06.26, Size>200",
        "select open: first Price, close: last Price, hi: max Price, lo: min Price by Symbol \
         from trades where Date=2016.06.26, Size>200",
        "select s: sum Size, n: count i by 1000 xbar Size from trades where Date=2016.06.26, Symbol=`AAPL",
        "select s: sum Size, n: count i, hi: max Price by Symbol from trades where Date=2016.06.26, Size>200",
    ] {
        let (rows, delta) = run(&mut s, q);
        assert!(rows > 0, "{q}");
        assert_eq!(delta, none, "aggregate statement left the vector path: {q}");
    }

    // window: deltas/prev run on the row pipeline — over the rows the
    // WHERE kept, not over the table.
    for q in [
        "select Time, Price, d: deltas Price from trades where Date=2016.06.26, Symbol=`AAPL",
        "select Time, Price, p: prev Price from trades where Date=2016.06.26, Symbol=`AAPL",
    ] {
        let (rows, delta) = run(&mut s, q);
        assert!(rows > 0 && rows < cfg.rows / 4, "{q}: {rows} rows");
        assert_eq!(delta[0], (1, rows as u64), "window hand-over must follow the WHERE: {q}");
        assert_eq!(delta[1..], none[1..], "{q}");
    }

    // aj: its probe is the row pipeline's nested loop, its `lead`
    // subquery a window block; both scans stay on the vector path.
    let (rows, delta) = run(
        &mut s,
        "aj[`Symbol`Time; \
         select Symbol, Time, Price from trades where Date=2016.06.26, Symbol=`AAPL, Time within (09:30:00.000;10:30:00.000); \
         select Symbol, Time, Bid, Ask from quotes where Date=2016.06.26, Symbol=`AAPL, Time within (09:30:00.000;10:30:00.000)]",
    );
    assert!(rows > 0);
    // (Debug builds count more than once: the cross-check's row oracle
    // re-runs the derived tables through this executor.)
    assert!(delta[2].0 >= 1, "the nested-loop join");
    assert!(delta[0].0 >= 1, "the window block computing the validity interval's lead");
    assert!(
        delta[0].1 / delta[0].0 < (cfg.rows / 4) as u64,
        "the window block sees the filtered quotes only"
    );
    assert_eq!((delta[1], delta[3]), ((0, 0), (0, 0)));
}
