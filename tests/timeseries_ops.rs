//! Side-by-side validation of the time-series vocabulary: prev/next
//! (windowed shifts), deltas, xbar bucketing, first/last aggregates, and
//! union joins — the primitives the paper's financial workloads lean on.

mod common;

use hyperq::SessionConfig;
use hyperq_workload::taq::{generate_trades, TaqConfig};
use qlang::value::{Table, Value};

fn assert_agree(tables: &[(String, Table)], stmts: &[&str]) {
    common::side_by_side(tables, SessionConfig::default(), stmts);
}

fn trades() -> Vec<(String, Table)> {
    vec![(
        "trades".into(),
        generate_trades(&TaqConfig { rows: 120, symbols: 3, days: 1, seed: 77 }),
    )]
}

#[test]
fn prev_and_next_shift_by_row_order() {
    assert_agree(
        &trades(),
        &[
            "select Price, prevPx: prev Price from trades",
            "select Price, nextPx: next Price from trades",
        ],
    );
}

#[test]
fn deltas_computes_successive_differences() {
    assert_agree(&trades(), &["select d: deltas Size from trades"]);
}

#[test]
fn xbar_buckets_values() {
    // Price bucketed to 10-unit bins; Size to 1000-unit bins.
    assert_agree(
        &trades(),
        &[
            "select bucket: 10.0 xbar Price, Price from trades",
            "select s: sum Size by 1000 xbar Size from trades",
        ],
    );
}

#[test]
fn first_and_last_aggregates_by_group() {
    // Opening and closing price per symbol — order-sensitive aggregates.
    assert_agree(&trades(), &["select open: first Price, close: last Price by Symbol from trades"]);
}

#[test]
fn union_join_aligns_tables() {
    let a = Table::new(
        vec!["Sym".into(), "Px".into()],
        vec![
            Value::Symbols(vec!["A".into(), "B".into()]),
            Value::Floats(vec![1.0, 2.0]),
        ],
    )
    .unwrap();
    let b = Table::new(
        vec!["Sym".into(), "Px".into(), "Sz".into()],
        vec![
            Value::Symbols(vec!["C".into()]),
            Value::Floats(vec![3.0]),
            Value::Longs(vec![30]),
        ],
    )
    .unwrap();
    assert_agree(&[("t1".into(), a), ("t2".into(), b)], &["t1 uj t2"]);
}

#[test]
fn returns_via_deltas_over_prices() {
    // Classic: per-row price change as fraction of previous price.
    assert_agree(&trades(), &["select r: (deltas Price) % prev Price from trades"]);
}
