//! How pgdb runs the statement shapes of hqbench's 42-text TAQ pool and
//! its `ingest_tail` as-of read, measured by the executor's own
//! counters: every block — point, aggregate, window, as-of — runs on the
//! one columnar executor (there is no other: the row pipeline is the
//! debug cross-check's oracle and counts nothing), and an as-of join is
//! the join operator's interval strategy (`pgdb_exec_join_total
//! {strategy}`), its probe proposing exactly the pairs that match.
//!
//! One test function on purpose: the counters are process-global, and
//! this file is its own test binary.

use hyperq::{loader, HyperQSession};
use hyperq_workload::taq::{generate_quotes, generate_trades, TaqConfig};
use qlang::value::Value;

const STRATEGIES: [&str; 4] = ["hash", "hash_residual", "interval", "nested_loop"];

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

/// Run `q`; return its row count and the join counter deltas it caused.
fn run(s: &mut HyperQSession, q: &str) -> (usize, [u64; 6]) {
    let before = joins();
    let rows = match s.execute(q).unwrap_or_else(|e| panic!("{q}: {e}")) {
        Value::Table(t) => t.rows(),
        Value::KeyedTable(kt) => kt.key.rows(),
        other => panic!("{q}: expected a table, got {other:?}"),
    };
    let mut delta = joins();
    for (after, before) in delta.iter_mut().zip(before) {
        *after -= before;
    }
    (rows, delta)
}

#[test]
fn taq_pool_shapes_record_their_join_strategies() {
    let db = pgdb::Db::new();
    let cfg = TaqConfig { rows: 6_000, symbols: 10, days: 2, seed: 1 };
    loader::load_table_direct(&db, "trades", &generate_trades(&cfg)).unwrap();
    loader::load_table_direct(&db, "quotes", &generate_quotes(&cfg)).unwrap();
    let mut s = HyperQSession::with_direct(&db);

    // point, agg (vwap, OHLC first/last/max/min, xbar buckets) and window
    // (deltas/prev as lag() blocks): no join at all.
    for q in [
        "select Time, Price, Size from trades where Date=2016.06.26, Symbol=`AAPL",
        "select Time, Notional: Price*Size from trades where Date=2016.06.26, Symbol=`AAPL",
        "select vwap: (sum Price*Size) % sum Size by Symbol from trades where Date=2016.06.26, Size>200",
        "select open: first Price, close: last Price, hi: max Price, lo: min Price by Symbol \
         from trades where Date=2016.06.26, Size>200",
        "select s: sum Size, n: count i by 1000 xbar Size from trades where Date=2016.06.26, Symbol=`AAPL",
        "select Time, Price, d: deltas Price from trades where Date=2016.06.26, Symbol=`AAPL",
        "select Time, Price, p: prev Price from trades where Date=2016.06.26, Symbol=`AAPL",
    ] {
        let (rows, joins) = run(&mut s, q);
        assert!(rows > 0 && rows < cfg.rows / 4, "{q}: {rows} rows");
        assert_eq!(joins, [0; 6], "{q}");
    }

    // asof: hqbench's two TAQ shapes (the bare join and the slippage
    // aggregate over it) and `ingest_tail`'s tail read. One join each,
    // the interval strategy, in debug builds too: the cross-check's
    // oracle runs its own joins and counts nothing.
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
        let (rows, [hash, hash_residual, interval, nested_loop, candidates, matches]) = run(&mut s, &q);
        assert!(rows > 0, "{q}");
        assert_eq!((hash, hash_residual, interval, nested_loop), (0, 0, 1, 0), "{q}");
        // `lead()` makes the upper bounds monotone, so the probe's two
        // binary searches propose exactly the pairs that match.
        assert!(matches > 0 && candidates == matches, "{q}: {candidates} proposed, {matches} matched");
    }

    // What `SHOW metrics` / `\metrics` serve: the join families, and no
    // hand-over family — there is nothing to hand over to.
    let dump = obs::global_registry().render_prometheus();
    for line in [
        "pgdb_exec_join_total{strategy=\"interval\"}",
        "pgdb_exec_join_candidates_total",
        "pgdb_exec_join_matches_total",
    ] {
        assert!(dump.contains(line), "missing {line} in the dump:\n{dump}");
    }
    assert!(!dump.contains("pgdb_exec_row_fallback"), "a hand-over counter is back:\n{dump}");
}
