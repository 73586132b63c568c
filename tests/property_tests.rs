//! Property-based tests over the core invariants:
//!
//! * QIPC (de)serialization round-trips arbitrary Q values;
//! * PG v3 codec round-trips arbitrary message contents;
//! * the Q parser never panics on arbitrary input;
//! * **side-by-side equivalence** — randomly generated q-sql queries give
//!   Q-equal results on the reference interpreter and through the full
//!   Hyper-Q → SQL → pgdb pipeline (the paper's §5 framework as a
//!   property).

mod common;

use proptest::prelude::*;
use qlang::value::{Atom, Table, Value};

// ---------- strategies ----------

fn arb_atom() -> impl Strategy<Value = Atom> {
    prop_oneof![
        any::<bool>().prop_map(Atom::Bool),
        any::<i16>().prop_map(Atom::Short),
        any::<i32>().prop_map(Atom::Int),
        any::<i64>().prop_map(Atom::Long),
        any::<f64>().prop_map(Atom::Float),
        "[a-zA-Z][a-zA-Z0-9_]{0,8}".prop_map(Atom::Symbol),
        Just(Atom::Symbol(String::new())),
        (-40000i32..40000).prop_map(Atom::Date),
        (0i32..86_400_000).prop_map(Atom::Time),
        any::<i64>().prop_map(Atom::Timestamp),
        Just(Atom::Long(i64::MIN)),
        Just(Atom::Float(f64::NAN)),
    ]
}

fn arb_vector() -> impl Strategy<Value = Value> {
    prop_oneof![
        proptest::collection::vec(any::<bool>(), 0..20).prop_map(Value::Bools),
        proptest::collection::vec(any::<i64>(), 0..20).prop_map(Value::Longs),
        proptest::collection::vec(any::<f64>(), 0..20).prop_map(Value::Floats),
        proptest::collection::vec("[a-z]{0,6}", 0..10).prop_map(Value::Symbols),
        "[ -~]{0,24}".prop_map(Value::Chars),
        proptest::collection::vec(-20000i32..20000, 0..20).prop_map(Value::Dates),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![arb_atom().prop_map(Value::Atom), arb_vector()];
    leaf.prop_recursive(2, 16, 5, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::Mixed),
            (proptest::collection::vec("[a-z]{1,5}", 1..4), inner).prop_map(|(keys, v)| {
                let n = keys.len();
                let vals = Value::Mixed(vec![v; n]);
                Value::Dict(Box::new(
                    qlang::Dict::new(Value::Symbols(keys), vals).unwrap(),
                ))
            }),
        ]
    })
}

fn arb_table() -> impl Strategy<Value = Table> {
    (1usize..5, 0usize..12).prop_flat_map(|(cols, rows)| {
        let col = proptest::collection::vec(any::<i64>(), rows..=rows).prop_map(Value::Longs);
        proptest::collection::vec(col, cols..=cols).prop_map(move |columns| {
            let names = (0..columns.len()).map(|i| format!("c{i}")).collect();
            Table::new(names, columns).unwrap()
        })
    })
}

/// One typed column of exactly `rows` cells, with every Q column type
/// represented and a healthy dose of typed nulls (`0N`, `0n`, `0Nd`,
/// `0Nt`, the empty symbol). `rows` may be 0 — empty typed lists must
/// survive the wire with their type intact.
fn arb_typed_column(rows: usize) -> impl Strategy<Value = Value> {
    // The offline proptest shim has no weighted prop_oneof; repeating
    // the non-null arm biases toward values while keeping nulls common.
    prop_oneof![
        proptest::collection::vec(
            prop_oneof![any::<i64>(), any::<i64>(), any::<i64>(), Just(i64::MIN)],
            rows..=rows
        )
        .prop_map(Value::Longs),
        proptest::collection::vec(
            prop_oneof![any::<f64>(), any::<f64>(), any::<f64>(), Just(f64::NAN)],
            rows..=rows
        )
        .prop_map(Value::Floats),
        proptest::collection::vec(
            prop_oneof![
                "[A-Z]{1,4}".prop_map(String::from),
                "[A-Z]{1,4}".prop_map(String::from),
                Just(String::new())
            ],
            rows..=rows
        )
        .prop_map(Value::Symbols),
        proptest::collection::vec(
            prop_oneof![-20000i32..20000, -20000i32..20000, Just(i32::MIN)],
            rows..=rows
        )
        .prop_map(Value::Dates),
        proptest::collection::vec(
            prop_oneof![0i32..86_400_000, 0i32..86_400_000, Just(i32::MIN)],
            rows..=rows
        )
        .prop_map(Value::Times),
        proptest::collection::vec(any::<bool>(), rows..=rows).prop_map(Value::Bools),
    ]
}

fn arb_typed_table() -> impl Strategy<Value = Table> {
    (1usize..6, 0usize..10).prop_flat_map(|(cols, rows)| {
        proptest::collection::vec(arb_typed_column(rows), cols..=cols).prop_map(
            move |columns| {
                let names = (0..columns.len()).map(|i| format!("c{i}")).collect();
                Table::new(names, columns).unwrap()
            },
        )
    })
}

// ---------- QIPC ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn qipc_round_trips_arbitrary_values(v in arb_value()) {
        let msg = qipc::Message::response(v.clone());
        let bytes = qipc::write_message(&msg).unwrap();
        let (decoded, used) = qipc::read_message(&bytes).unwrap().unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert!(decoded.value.q_eq(&v), "decoded {:?} != {:?}", decoded.value, v);
    }

    #[test]
    fn qipc_round_trips_tables(t in arb_table()) {
        let v = Value::Table(Box::new(t));
        let msg = qipc::Message::response(v.clone());
        let bytes = qipc::write_message(&msg).unwrap();
        let (decoded, _) = qipc::read_message(&bytes).unwrap().unwrap();
        prop_assert!(decoded.value.q_eq(&v));
    }

    #[test]
    fn qipc_round_trips_typed_columns_with_nulls(t in arb_typed_table()) {
        // Typed nulls and zero-row tables must survive the wire with
        // column types intact — q_eq treats typed nulls as equal to
        // themselves (0n == 0n), so a dropped or retyped null fails here.
        let v = Value::Table(Box::new(t));
        let msg = qipc::Message::response(v.clone());
        let bytes = qipc::write_message(&msg).unwrap();
        let (decoded, used) = qipc::read_message(&bytes).unwrap().unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert!(decoded.value.q_eq(&v), "decoded {:?} != {:?}", decoded.value, v);
    }

    #[test]
    fn qipc_round_trips_empty_typed_vectors(col in arb_typed_column(0)) {
        // The degenerate case deserves its own property: an empty typed
        // list must come back as the same empty typed list, not a
        // generic empty list or an error.
        let msg = qipc::Message::response(col.clone());
        let bytes = qipc::write_message(&msg).unwrap();
        let (decoded, used) = qipc::read_message(&bytes).unwrap().unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert!(decoded.value.q_eq(&col), "decoded {:?} != {:?}", decoded.value, col);
    }

    #[test]
    fn qipc_decoder_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Errors are fine; panics are not.
        let _ = qipc::read_message(&data);
    }

    #[test]
    fn qipc_handshake_never_panics(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = qipc::parse_handshake(&data);
    }
}

// ---------- QIPC compression ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn qipc_compression_round_trips_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..2048)
    ) {
        if let Some(c) = qipc::compress::compress(&data) {
            prop_assert!(c.len() < data.len(), "compress must only claim wins");
            let back = qipc::compress::decompress(&c, data.len());
            prop_assert_eq!(back.as_deref(), Some(data.as_slice()));
        }
    }

    #[test]
    fn qipc_compressed_messages_round_trip(t in arb_table()) {
        // Force a payload large enough to hit the compression path by
        // widening the table with a repetitive symbol column.
        let n = t.rows();
        let mut t = t;
        t.push_column(
            "Sym".into(),
            Value::Symbols(vec!["REPEATED_TICKER".to_string(); n]),
        ).unwrap();
        let v = Value::Table(Box::new(t));
        let msg = qipc::Message::response(v.clone());
        let bytes = qipc::write_message_compressed(&msg).unwrap();
        let (decoded, used) = qipc::read_message(&bytes).unwrap().unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert!(decoded.value.q_eq(&v));
    }

    #[test]
    fn qipc_decompressor_never_panics(
        data in proptest::collection::vec(any::<u8>(), 0..256),
        len in 0usize..1024,
    ) {
        let _ = qipc::compress::decompress(&data, len);
    }
}

// ---------- PG v3 ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pgwire_data_rows_round_trip(cells in proptest::collection::vec(
        proptest::option::of("[ -~]{0,32}"), 0..10)) {
        use pgwire::codec::{encode_backend, MessageReader};
        use pgwire::messages::BackendMessage;
        let msg = BackendMessage::DataRow(cells);
        let mut buf = Vec::new();
        encode_backend(&msg, &mut buf);
        let mut reader = MessageReader::new(false);
        reader.feed(&buf);
        prop_assert_eq!(reader.next_backend().unwrap(), Some(msg));
    }

    #[test]
    fn pgwire_query_messages_round_trip(sql in "[ -~]{0,200}") {
        use pgwire::codec::{encode_frontend, MessageReader};
        use pgwire::messages::FrontendMessage;
        let msg = FrontendMessage::Query(sql);
        let mut buf = Vec::new();
        encode_frontend(&msg, &mut buf);
        let mut reader = MessageReader::new(false);
        reader.feed(&buf);
        prop_assert_eq!(reader.next_frontend().unwrap(), Some(msg));
    }
}

// ---------- Parsers never panic ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn q_parser_never_panics(src in "[ -~]{0,120}") {
        let _ = qlang::parse(&src);
    }

    #[test]
    fn sql_parser_never_panics(src in "[ -~]{0,120}") {
        let _ = pgdb::sql::parse_statement(&src);
    }
}

// ---------- Side-by-side equivalence on generated q-sql ----------

#[derive(Debug, Clone)]
struct GenQuery(String);

fn arb_query() -> impl Strategy<Value = GenQuery> {
    let agg = prop_oneof![
        Just("max"), Just("min"), Just("sum"), Just("avg"), Just("count")
    ];
    let col = prop_oneof![Just("Price"), Just("Size")];
    let cmp = prop_oneof![Just(">"), Just("<"), Just(">="), Just("<=")];
    let by = prop_oneof![Just(""), Just(" by Symbol"), Just(" by Date")];
    (agg, col, cmp, by, 0.0f64..150.0).prop_map(|(agg, col, cmp, by, thr)| {
        GenQuery(format!(
            "select r: {agg} {col}{by} from trades where Price {cmp} {thr:.2}"
        ))
    })
}

proptest! {
    // Each case runs a full translate+execute on both engines: keep the
    // case count moderate.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_queries_agree_between_reference_and_hyperq(q in arb_query()) {
        use hyperq::SessionConfig;
        use hyperq_workload::taq::{generate_trades, TaqConfig};
        let trades = generate_trades(&TaqConfig { rows: 60, symbols: 3, days: 2, seed: 99 });
        common::side_by_side(&[("trades".into(), trades)], SessionConfig::default(), &[&q.0]);
    }
}

// ---------- Translation cache is observationally transparent ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// With the keyed translation cache on (and hitting) versus off, a
    /// generated query must produce byte-identical SQL AND an identical
    /// obs span structure — the cache must be invisible except for the
    /// hit/miss events themselves.
    #[test]
    fn cached_and_uncached_translation_agree_in_sql_and_span_shape(q in arb_query()) {
        use hyperq::{HyperQSession, SessionConfig};
        use hyperq_workload::taq::{generate_trades, TaqConfig};
        use std::time::Duration;
        let trades = generate_trades(&TaqConfig { rows: 40, symbols: 3, days: 2, seed: 5 });
        let mk = |capacity: usize| {
            let db = pgdb::Db::new();
            let cfg = SessionConfig {
                translation_cache: capacity,
                slow_query: Duration::ZERO,
                ..SessionConfig::default()
            };
            let mut s = HyperQSession::with_direct_config(&db, cfg);
            hyperq::loader::load_table(&mut s, "trades", &trades).unwrap();
            s
        };
        let mut cached = mk(256);
        let mut uncached = mk(0);
        // Run twice on the cached session so the second pass is a hit.
        cached.execute_observed(&q.0).unwrap();
        let (cv, ct) = cached.execute_observed(&q.0).unwrap();
        let (uv, ut) = uncached.execute_observed(&q.0).unwrap();
        prop_assert!(ct.cache_hit, "second pass must hit the cache");
        prop_assert!(!ut.cache_hit, "cache disabled must never hit");
        prop_assert!(cv.q_eq(&uv), "values diverge on {}: {cv:?} vs {uv:?}", q.0);
        prop_assert_eq!(&ct.sql, &ut.sql, "generated SQL diverges on {}", q.0);
        prop_assert_eq!(
            ct.stage_names(),
            ut.stage_names(),
            "span structure diverges on {}",
            q.0
        );
        prop_assert!(ct.covers_all_stages() && ut.covers_all_stages());
    }
}

// ---------- Hash execution hot paths agree with the naive scans ----------
//
// The executor's GROUP BY / DISTINCT / set operations and the qengine's
// distinct/group were rewritten from O(n²) scans to hash passes keyed
// by canonical key types. These properties pin the rewrite to the old
// semantics: over random tables with NULLs, NaNs and mixed numeric
// widths, the hash paths produce exactly the sequence the naive
// first-seen-order scans produce.

use pgdb::exec::{
    dedup_cells, dedup_rows, except_rows, group_indices, intersect_rows, reference, rows_equal,
    union_rows,
};
use pgdb::Cell;

/// Small domains force key collisions, cross-width equalities
/// (`Int(1)` = `Float(1.0)`) and NULL/NaN duplicates.
fn arb_cell() -> impl Strategy<Value = Cell> {
    prop_oneof![
        Just(Cell::Null),
        any::<bool>().prop_map(Cell::Bool),
        (-3i64..4).prop_map(Cell::Int),
        prop_oneof![
            Just(0.0f64),
            Just(-0.0f64),
            Just(1.0),
            Just(2.5),
            Just(f64::NAN),
            Just(f64::INFINITY),
        ]
        .prop_map(Cell::Float),
        "[ab]{0,2}".prop_map(Cell::Text),
        (-2i32..3).prop_map(Cell::Date),
    ]
}

fn arb_cell_rows(max_rows: usize) -> impl Strategy<Value = Vec<Vec<Cell>>> {
    (1usize..4).prop_flat_map(move |width| {
        proptest::collection::vec(
            proptest::collection::vec(arb_cell(), width..=width),
            0..max_rows,
        )
    })
}

/// Rows of the same width as `left`, for set operations.
fn arb_cell_rows_pair(max_rows: usize) -> impl Strategy<Value = (Vec<Vec<Cell>>, Vec<Vec<Cell>>)> {
    (1usize..4).prop_flat_map(move |width| {
        let side = move || {
            proptest::collection::vec(
                proptest::collection::vec(arb_cell(), width..=width),
                0..max_rows,
            )
        };
        (side(), side())
    })
}

fn assert_same_rows(fast: &[Vec<Cell>], slow: &[Vec<Cell>]) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.len(), slow.len(), "row counts differ");
    for (a, b) in fast.iter().zip(slow) {
        prop_assert!(rows_equal(a, b), "row mismatch: {:?} vs {:?}", a, b);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn hash_dedup_agrees_with_naive(rows in arb_cell_rows(24)) {
        let mut fast = rows.clone();
        let mut slow = rows;
        dedup_rows(&mut fast);
        reference::dedup_rows_naive(&mut slow);
        assert_same_rows(&fast, &slow)?;
    }

    #[test]
    fn hash_except_agrees_with_naive(lr in arb_cell_rows_pair(20)) {
        let (l, r) = lr;
        let mut fast = l.clone();
        let mut slow = l;
        except_rows(&mut fast, &r);
        reference::except_rows_naive(&mut slow, &r);
        assert_same_rows(&fast, &slow)?;
    }

    #[test]
    fn hash_intersect_agrees_with_naive(lr in arb_cell_rows_pair(20)) {
        let (l, r) = lr;
        let mut fast = l.clone();
        let mut slow = l;
        intersect_rows(&mut fast, &r);
        reference::intersect_rows_naive(&mut slow, &r);
        assert_same_rows(&fast, &slow)?;
    }

    #[test]
    fn hash_union_agrees_with_naive(lr in arb_cell_rows_pair(20)) {
        let (l, r) = lr;
        let mut fast = l.clone();
        let mut slow = l;
        union_rows(&mut fast, r.clone());
        reference::union_rows_naive(&mut slow, r);
        assert_same_rows(&fast, &slow)?;
    }

    #[test]
    fn hash_grouping_agrees_with_naive(keys in arb_cell_rows(24)) {
        let fast = group_indices(keys.clone());
        let slow = reference::group_indices_naive(keys);
        prop_assert_eq!(fast.len(), slow.len(), "group counts differ");
        for ((ka, ia), (kb, ib)) in fast.iter().zip(&slow) {
            prop_assert!(rows_equal(ka, kb), "group keys diverge: {:?} vs {:?}", ka, kb);
            prop_assert_eq!(ia, ib, "member indices diverge for key {:?}", ka);
        }
    }

    #[test]
    fn hash_distinct_cells_agrees_with_naive(
        cells in proptest::collection::vec(arb_cell(), 0..32)
    ) {
        let mut fast = cells.clone();
        let mut slow = cells;
        dedup_cells(&mut fast);
        reference::dedup_cells_naive(&mut slow);
        prop_assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!(a.not_distinct(b), "cell mismatch: {:?} vs {:?}", a, b);
        }
    }
}

// ---------- qengine distinct/group hash paths ----------

fn arb_q_vector() -> impl Strategy<Value = Value> {
    prop_oneof![
        proptest::collection::vec(-3i64..4, 0..24).prop_map(Value::Longs),
        proptest::collection::vec(
            prop_oneof![Just(0.0f64), Just(-0.0f64), Just(1.0), Just(f64::NAN)],
            0..24
        )
        .prop_map(Value::Floats),
        proptest::collection::vec("[ab]{0,2}", 0..16).prop_map(Value::Symbols),
        proptest::collection::vec(-2i32..3, 0..24).prop_map(Value::Dates),
    ]
}

/// The pre-optimization distinct: linear scan with `q_eq`.
fn naive_q_distinct(a: &Value) -> Value {
    let n = a.len().unwrap();
    let mut seen: Vec<Value> = Vec::new();
    for i in 0..n {
        let v = a.index(i).unwrap();
        if !seen.iter().any(|s| s.q_eq(&v)) {
            seen.push(v);
        }
    }
    Value::from_elements(seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn qengine_distinct_agrees_with_naive(v in arb_q_vector()) {
        let fast = qengine::builtins::distinct(&v).unwrap();
        let slow = naive_q_distinct(&v);
        prop_assert!(fast.q_eq(&slow), "distinct diverges: {:?} vs {:?}", fast, slow);
    }

    #[test]
    fn qengine_group_covers_all_indices(v in arb_q_vector()) {
        // Every index appears exactly once across the groups, and all
        // members of a group are q_eq to the group's key.
        let n = v.len().unwrap();
        let d = match qengine::builtins::group(&v).unwrap() {
            Value::Dict(d) => d,
            other => panic!("group must return dict, got {other:?}"),
        };
        let mut covered = vec![false; n];
        let keys = &d.keys;
        let vals = &d.values;
        for g in 0..keys.len().unwrap() {
            let key = keys.index(g).unwrap();
            let members = vals.index(g).unwrap();
            for m in 0..members.len().unwrap() {
                let idx = match members.index(m).unwrap() {
                    Value::Atom(a) => a.as_i64().unwrap() as usize,
                    other => panic!("index must be long, got {other:?}"),
                };
                prop_assert!(!covered[idx], "index {} grouped twice", idx);
                covered[idx] = true;
                prop_assert!(v.index(idx).unwrap().q_eq(&key), "member not q_eq to key");
            }
        }
        prop_assert!(covered.iter().all(|&c| c), "some index missing from groups");
    }
}
