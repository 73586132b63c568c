//! The one differential corpus: the TAQ fixture, the oracle
//! statements and error probes, the 70 000-row table and its probe, the
//! golden file's dashboard and wide ad-hoc shapes, and the shapes that
//! put two types in one column. Every row of the
//! matrix and the golden translation file read these; nothing else
//! carries a copy.

use hyperq_workload::analytical::WorkloadSpec;
use hyperq_workload::taq::{generate_quotes, generate_trades, TaqConfig};
use qlang::value::{Table, Value};

fn taq_cfg() -> TaqConfig {
    TaqConfig { rows: 200, symbols: 4, days: 2, seed: 4242 }
}

/// Generated TAQ trades (200 rows) and quotes (600), a small table whose
/// columns carry typed nulls, and static reference data keyed by Symbol
/// for lj/ij lookups. Seeded: every call yields identical tables.
pub fn fixture() -> Vec<(String, Table)> {
    let nullable = Table::new(
        vec!["Sym".into(), "Qty".into(), "Px".into()],
        vec![
            Value::Symbols(vec!["A".into(), "B".into(), "A".into(), "C".into(), "B".into()]),
            Value::Longs(vec![10, i64::MIN, 30, i64::MIN, 50]),
            Value::Floats(vec![1.5, 2.5, f64::NAN, 4.0, f64::NAN]),
        ],
    )
    .unwrap();
    let refdata = Table::new(
        vec!["Symbol".into(), "Sector".into(), "Lot".into()],
        vec![
            Value::Symbols(vec!["AAPL".into(), "GOOG".into(), "IBM".into()]),
            Value::Symbols(vec!["tech".into(), "tech".into(), "services".into()]),
            Value::Longs(vec![100, 10, 50]),
        ],
    )
    .unwrap();
    vec![
        ("trades".into(), generate_trades(&taq_cfg())),
        ("quotes".into(), generate_quotes(&TaqConfig { rows: 600, ..taq_cfg() })),
        ("nullable".into(), nullable),
        ("refdata".into(), refdata),
    ]
}

/// The oracle statements over [`fixture`]: q-sql selects, `by`
/// aggregations, the join vocabulary (aj/lj/ij/uj), two-valued null
/// logic, and ordcol-sensitive queries whose answers depend on row
/// order. Each must succeed on the reference engine.
pub const ORACLE: &[&str] = &[
    // --- q-sql selects and filters ---
    "select from trades",
    "select Symbol, Price from trades",
    "select Price from trades where Symbol=`GOOG",
    "select Price, Size from trades where Date=2016.06.26",
    "select from trades where Price within 50 150",
    "select Price from trades where Symbol in `GOOG`IBM, Size>100",
    "select Notional: Price*Size from trades where Size>500",
    "exec Price from trades where Symbol=`GOOG",
    "select from quotes where Ask>Bid",
    // --- plain aggregations ---
    "select mx: max Price, mn: min Price from trades",
    "select s: sum Size, a: avg Price from trades",
    "select n: count i from trades where Symbol=`IBM",
    "select spread: avg Ask-Bid from quotes",
    // --- `by` aggregations ---
    "select mx: max Price by Symbol from trades",
    "select s: sum Size by Date from trades",
    "select n: count i by Symbol from trades",
    "select vwap: (sum Price*Size) % sum Size by Symbol from trades",
    "select mx: max Price by Date, Symbol from trades",
    "select s: sum Size by 1000 xbar Size from trades",
    // dev/var are population statistics, sdev/svar the sample forms;
    // `nullable` has groups with a single non-null Px (dev 0, sdev null).
    "select d: dev Price, v: var Price by Symbol from trades",
    "select d: sdev Price, v: svar Price by Symbol from trades",
    "select d: dev Px, v: var Px, sd: sdev Px, sv: svar Px by Sym from nullable",
    "select d: dev Price, sd: sdev Price from trades where Symbol=`NONE",
    // --- joins: aj (as-of), lj/ij (keyed), uj (union) ---
    "aj[`Symbol`Time; select Symbol, Time, Price from trades; \
     select Symbol, Time, Bid, Ask from quotes]",
    "aj[`Symbol`Time; select Symbol, Time, Price from trades where Date=2016.06.26; \
     select Symbol, Time, Bid, Ask from quotes where Date=2016.06.26]",
    "trades lj 1!refdata",
    "trades ij 1!refdata",
    "select mx: max Price by Sector from trades lj 1!refdata",
    "(select Symbol, Price from trades where Size>900) uj \
     select Symbol, Price, Size from trades where Size<100",
    // --- null logic: typed nulls compare two-valued ---
    "select from nullable where Qty=0N",
    "select from nullable where Qty>20",
    "select s: sum Qty by Sym from nullable",
    "select n: count Px, m: count i from nullable",
    "select mx: max Px, mn: min Px from nullable",
    "update Qty: 0N from nullable where Sym=`A",
    // --- ordcol-sensitive: answers depend on row order ---
    "select Price, prevPx: prev Price from trades",
    "select d: deltas Price from trades where Symbol=`GOOG",
    "select open: first Price, close: last Price by Symbol from trades",
    "select Price, nextPx: next Price from trades where Symbol=`IBM",
    "`Price xdesc select from trades where Date=2016.06.26",
    "`Symbol`Time xasc select Symbol, Time, Price from trades",
    "select last Bid by Symbol from quotes",
];

/// Statements that must fail, and whose error *strings* every
/// connection layer must deliver unchanged.
pub const ERROR_PROBES: &[&str] =
    &["select from no_such_table", "no_such_variable", "select nosuchcol from trades"];

/// Rows in [`big`]: more than 65 536, so the result crosses the wire in
/// many more `DataRow`s than any oracle statement's.
pub const BIG_ROWS: usize = 70_000;

/// `big`: a long, a float and a symbol column with nulls in each,
/// [`BIG_ROWS`] rows long.
pub fn big() -> (String, Table) {
    let syms = ["AA", "BB", "CC", "DD", "EE"];
    let table = Table::new(
        vec!["k".into(), "px".into(), "sym".into()],
        vec![
            Value::Longs(
                (0..BIG_ROWS as i64).map(|i| if i % 1000 == 7 { i64::MIN } else { i }).collect(),
            ),
            Value::Floats(
                (0..BIG_ROWS)
                    .map(|i| if i % 97 == 0 { f64::NAN } else { (i % 7919) as f64 * 0.25 })
                    .collect(),
            ),
            Value::Symbols(
                (0..BIG_ROWS)
                    .map(|i| if i % 131 == 0 { String::new() } else { syms[i % syms.len()].into() })
                    .collect(),
            ),
        ],
    )
    .unwrap();
    ("big".into(), table)
}

/// Statements over [`big`], whose results have [`BIG_ROWS`] rows.
pub const BIG_PROBES: &[&str] = &["select from big"];

/// hqbench's TAQ dashboard shapes (`benchmark/src/gen.rs` and the
/// `ingest_tail` reader), with fixed literals, plus whole-table joins.
pub const TAQ_SHAPES: &[&str] = &[
    "select Time, Price, Size from trades where Date=2016.06.26, Symbol=`GOOG",
    "select Time, Bid, Ask from quotes where Date=2016.06.26, Symbol=`IBM",
    "select Time, Notional: Price*Size from trades where Date=2016.06.27, Symbol=`MSFT",
    "select vwap: (sum Price*Size) % sum Size by Symbol from trades \
     where Date=2016.06.26, Size>300",
    "select open: first Price, close: last Price, hi: max Price, lo: min Price \
     by Symbol from trades where Date=2016.06.26, Size>200",
    "select s: sum Size, n: count i by 1000 xbar Size from trades \
     where Date=2016.06.26, Symbol=`GOOG",
    "select Time, Price, d: deltas Price from trades where Date=2016.06.26, Symbol=`GOOG",
    "select Time, Price, p: prev Price from trades where Date=2016.06.26, Symbol=`IBM",
    "select Time, Bid, p: prev Bid, d: deltas Ask from quotes \
     where Date=2016.06.27, Symbol=`AAPL",
    "select hi: max Price, lots: sum Size by Sector from trades lj 1!refdata \
     where Date=2016.06.26, Size>100",
    "aj[`Symbol`Time; select Symbol, Time, Price from trades \
     where Date=2016.06.26, Symbol=`GOOG, Time within (09:30:00.000;10:30:00.000); \
     select Symbol, Time, Bid, Ask from quotes \
     where Date=2016.06.26, Symbol=`GOOG, Time within (09:30:00.000;10:30:00.000)]",
    "select slip: avg Price-Bid by Symbol from aj[`Symbol`Time; \
     select Symbol, Time, Price from trades where Date=2016.06.26, Symbol=`IBM; \
     select Symbol, Time, Bid, Ask from quotes where Date=2016.06.26, Symbol=`IBM]",
    "select Time, Symbol, Price, Size from trades where i>=100, i<180, Size>5000",
    "select px: last Price by Symbol from trades where i>=0, i<150",
    "select n: count i, s: sum Size by Symbol from trades where i>=20, i<200",
    "select Time, Price, d: deltas Price from trades where i>=10, i<190, Symbol=`GOOG",
    "aj[`Symbol`Time; select Symbol, Time, Price from trades where i>=40, i<200; \
     select Symbol, Time, Bid, Ask from quotes \
     where Date=2016.06.26, Time within (09:30:00.000;16:00:00.000)]",
    "aj[`Symbol`Time; trades; quotes]",
    "trades lj 1!select Symbol, Bid, Ask from quotes where Date=2016.06.26",
    "select Price, p: prev Price, n: next Price, d: deltas Size from trades where Symbol=`IBM",
];

/// The Figure 6 harness's widths (`hyperq_bench::bench_spec()`: five
/// tables of 500 metric columns, seed 2016) with few rows: what the
/// analytical queries and [`WIDE_ADHOC`] are translated over.
pub fn wide_spec() -> WorkloadSpec {
    WorkloadSpec { tables: 5, metrics: 500, rows: 16, key_cardinality: 16, seed: 2016 }
}

/// hqbench's `wide_adhoc` templates for the point, window and as-of
/// classes (`benchmark/src/gen.rs`, templates 25–27).
pub const WIDE_ADHOC: &[&str] = &[
    "select k, am25, am32 from w1 where am38 > 512.0000001",
    "select k, d: deltas am26, p: prev am33 from w1 where am39 > 512.0000001",
    "aj[`k; select k, am27 from w1 where am40 > 512.0000001; select k, bm27 from w2]",
];

/// Statements over `ej` and `aj` of whole fixture tables, the shapes
/// whose scans the binder narrows to the names a template reads, and the
/// forms around them that must bind every column. Each must succeed on
/// the reference engine. `ej`'s right side is keyed uniquely by its join
/// column (the reference keeps one match per key).
pub const JOIN_SHAPES: &[&str] = &[
    // items and `by` over ej and aj
    "select Symbol, Price, Sector from ej[`Symbol; trades; refdata] where Size>500",
    "select mx: max Price, n: count i by Sector from ej[`Symbol; trades; refdata]",
    "select Time, Price, Bid from aj[`Symbol`Time; trades; quotes] where Symbol=`GOOG",
    "select slip: avg Price-Bid by Symbol from aj[`Symbol`Time; trades; quotes]",
    "exec Lot from ej[`Symbol; trades; refdata] where Price>100",
    // a right column whose name the left also has: the left's wins
    "select Date, Symbol, Price, Ask from aj[`Symbol`Time; trades; quotes] where Size>800",
    // no items, `by` without items, update: every column
    "select from ej[`Symbol; trades; refdata]",
    "select by Symbol from ej[`Symbol; trades; refdata]",
    "update Notional: Price*Lot from ej[`Symbol; trades; refdata] where Size>500",
    // ej under lj
    "select Symbol, Price, Sector, Bid from \
     ej[`Symbol; trades; refdata] lj 1!select Symbol, Bid from quotes",
    // a function whose body assigns an ej, used afterwards
    "f: {[s] j: ej[`Symbol; trades; refdata]; select Price, Sector from j where Symbol=s}",
    "f[`IBM]",
];

/// Statements whose translation puts values of two types in one
/// column — a CASE of an integer literal and a float column, a fill of
/// an integer column with a float — each with a variant that updates no
/// row. Every connection layer must answer them alike.
pub const TYPE_SHAPES: &[&str] = &[
    "update Price: 7 from trades where Symbol=`IBM",
    "update Px: 7 from nullable where Sym=`A",
    "select f: 0.5^Qty from nullable",
    "update Qty: 2.5 from nullable where Sym=`A",
    "update Price: 7 from trades where Symbol=`ZZZ",
    "update Px: 7 from nullable where Sym=`ZZZ",
    "select f: 0.5^Qty from nullable where Sym=`ZZZ",
    "update Qty: 2.5 from nullable where Sym=`ZZZ",
];

/// A column neither side of the join has.
pub const JOIN_ERROR_PROBES: &[&str] = &["select NoSuch from ej[`Symbol; trades; refdata]"];

// The corpus sizes are pinned: a statement added or lost changes every
// row's comparison count, and must change these too.
const _: () = assert!(ORACLE.len() == 42);
const _: () = assert!(ERROR_PROBES.len() == 3);
const _: () = assert!(BIG_PROBES.len() == 1);
const _: () = assert!(JOIN_SHAPES.len() == 12);
const _: () = assert!(JOIN_ERROR_PROBES.len() == 1);
const _: () = assert!(TYPE_SHAPES.len() == 8);
