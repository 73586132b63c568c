//! Seeded inputs: tables and statement texts. Everything the program
//! under test receives comes from here, and all of it is a pure
//! function of `(workload, seed, sizes)`.

use hyperq_workload::analytical::{prefix, table_name, tables as wide_tables, WorkloadSpec};
use hyperq_workload::taq::{generate_quotes, generate_trades, TaqConfig, BASE_DATE, SYMBOLS};
use qlang::value::{Table, Value};

/// splitmix64: tiny, seedable, and good enough for drawing literals.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A deck dealt without replacement and shuffled again each time it runs
/// out. Classes and texts are dealt, not drawn: each comes up exactly
/// once a pass, so the shares of a run's statements are the deck's
/// whatever the seed, and the seed decides only the order.
#[derive(Debug, Clone)]
pub struct Deck {
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    /// Card `i` appears `weights[i]` times.
    pub fn weighted(weights: &[usize]) -> Deck {
        let cards = weights
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| std::iter::repeat_n(i, w))
            .collect();
        Deck { cards, next: 0 }
    }

    /// Cards `0..n`, once each.
    pub fn of(n: usize) -> Deck {
        Deck::weighted(&vec![1; n])
    }

    pub fn deal(&mut self, rng: &mut Rng) -> usize {
        if self.next == 0 {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
        }
        let card = self.cards[self.next];
        self.next = (self.next + 1) % self.cards.len();
        card
    }
}

/// Statement classes shared by every workload; one end-to-end median
/// per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Point,
    Agg,
    Window,
    Asof,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Point, Class::Agg, Class::Window, Class::Asof];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Agg => "agg",
            Class::Window => "window",
            Class::Asof => "asof",
        }
    }

    /// Name of the class's end-to-end median.
    pub fn p50_metric(self) -> &'static str {
        match self {
            Class::Point => "point_p50_ms",
            Class::Agg => "agg_p50_ms",
            Class::Window => "window_p50_ms",
            Class::Asof => "asof_p50_ms",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One statement text with its class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    pub class: Class,
    pub text: String,
}

/// Data sizes. `full` is what the driver measures; `quick` is for the
/// crate's own tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows in each of `trades` and `quotes` on `taq_wire`.
    pub taq_rows: usize,
    /// The same on `shard_scatter`, whose gather motion rebuilds whole
    /// tables per statement.
    pub shard_rows: usize,
    /// Rows per wide table (5 tables x 500 metric columns).
    pub wide_rows: usize,
    /// Rows loaded by the `ingest_tail` burst, in `BATCH_ROWS`-row batches.
    pub burst_rows: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        taq_rows: 60_000,
        shard_rows: 30_000,
        wide_rows: 300,
        burst_rows: 30_000,
    };
    pub const QUICK: Sizes = Sizes {
        taq_rows: 20_000,
        shard_rows: 10_000,
        wide_rows: 60,
        burst_rows: 5_000,
    };
}

pub const TAQ_SYMBOLS: usize = 10;
pub const TAQ_DAYS: usize = 2;
/// Rows per INSERT on the ingest path.
pub const BATCH_ROWS: usize = 500;

fn taq_config(rows: usize, seed: u64) -> TaqConfig {
    TaqConfig {
        rows,
        symbols: TAQ_SYMBOLS,
        days: TAQ_DAYS,
        seed,
    }
}

/// TAQ `trades` and `quotes`.
pub fn taq_tables(rows: usize, seed: u64) -> Vec<(String, Table)> {
    let cfg = taq_config(rows, seed);
    vec![
        ("trades".to_string(), generate_trades(&cfg)),
        ("quotes".to_string(), generate_quotes(&cfg)),
    ]
}

/// The 10-row dimension table the shard workload broadcasts.
pub fn refdata() -> Table {
    let syms: Vec<String> = SYMBOLS[..TAQ_SYMBOLS]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let sectors = ["tech", "services", "hardware"];
    Table::new(
        vec!["Symbol".into(), "Sector".into(), "Lot".into()],
        vec![
            Value::Symbols(syms),
            Value::Symbols(
                (0..TAQ_SYMBOLS)
                    .map(|i| sectors[i % 3].to_string())
                    .collect(),
            ),
            Value::Longs((0..TAQ_SYMBOLS as i64).map(|i| 10 * (1 + i % 4)).collect()),
        ],
    )
    .expect("refdata columns are equal length")
}

/// Q literal of trading day `day` (the generator starts at 2016.06.26).
pub fn q_date(day: usize) -> String {
    debug_assert_eq!(BASE_DATE, 6021, "TAQ generator epoch moved");
    format!("2016.06.{:02}", 26 + day)
}

pub fn q_time(ms: i64) -> String {
    let s = ms / 1000;
    format!(
        "{:02}:{:02}:{:02}.{:03}",
        s / 3600,
        (s / 60) % 60,
        s % 60,
        ms % 1000
    )
}

/// Time literals bounding `slice_rows` consecutive trades of one
/// symbol-day, so every `asof` slice has the same left-side row count
/// whatever the seed.
fn asof_window(
    trades: &Table,
    sym: &str,
    day: usize,
    slice_rows: usize,
    rng: &mut Rng,
) -> (String, String) {
    let (Some(Value::Symbols(syms)), Some(Value::Dates(dates)), Some(Value::Times(times))) = (
        trades.column("Symbol"),
        trades.column("Date"),
        trades.column("Time"),
    ) else {
        panic!("TAQ generator changed its column types")
    };
    let date = BASE_DATE + day as i32;
    let rows: Vec<usize> = (0..trades.rows())
        .filter(|&i| dates[i] == date && syms[i] == sym)
        .collect();
    let n = slice_rows.min(rows.len());
    let first = rng.below(rows.len() - n + 1);
    (
        q_time(times[rows[first]] as i64),
        q_time(times[rows[first + n - 1]] as i64),
    )
}

/// One TAQ statement of `class` and `variant` (0..3), literals drawn
/// from `rng`. The three variants of a class cost about the same.
fn taq_stmt(
    class: Class,
    variant: usize,
    (sym, day): (&str, usize),
    rng: &mut Rng,
    trades: &Table,
    sharded: bool,
) -> Stmt {
    let date = q_date(day);
    let text = match class {
        Class::Point => match variant {
            0 => format!("select Time, Price, Size from trades where Date={date}, Symbol=`{sym}"),
            1 => format!("select Time, Bid, Ask from quotes where Date={date}, Symbol=`{sym}"),
            _ => format!(
                "select Time, Notional: Price*Size from trades where Date={date}, Symbol=`{sym}"
            ),
        },
        // Float sums re-folded across shards can differ from the
        // reference in the last bit, and first/last do not decompose
        // into per-shard partials: the sharded pool aggregates integers
        // and float max/min.
        Class::Agg => match (variant, sharded) {
            (0, false) => format!(
                "select vwap: (sum Price*Size) % sum Size by Symbol from trades                  where Date={date}, Size>{}",
                100 * (1 + rng.below(5))
            ),
            (0, true) => format!(
                "select s: sum Size, n: count i, hi: max Price by Symbol from trades                  where Date={date}, Size>{}",
                100 * (1 + rng.below(5))
            ),
            (1, false) => format!(
                "select open: first Price, close: last Price, hi: max Price, lo: min Price                  by Symbol from trades where Date={date}, Size>{}",
                100 * (1 + rng.below(5))
            ),
            (1, true) => format!(
                "select lo: min Price, hi: max Price, n: count i by Symbol from trades \
                 where Date={date}, Size>{}",
                100 * (1 + rng.below(5))
            ),
            _ => format!(
                "select s: sum Size, n: count i by 1000 xbar Size from trades                  where Date={date}, Symbol=`{sym}"
            ),
        },
        // `lj` translates to a `row_number()` window, so on shards the join
        // with the broadcast dimension runs as a gather like the others.
        Class::Window => match (variant, sharded) {
            (0, _) => format!(
                "select Time, Price, d: deltas Price from trades where Date={date}, Symbol=`{sym}"
            ),
            (1, _) => format!(
                "select Time, Price, p: prev Price from trades where Date={date}, Symbol=`{sym}"
            ),
            (_, true) => format!(
                "select hi: max Price, lots: sum Size by Sector from trades lj 1!refdata \
                 where Date={date}, Size>{}",
                100 * (1 + rng.below(5))
            ),
            (_, false) => format!(
                "select Time, Bid, p: prev Bid, d: deltas Ask from quotes \
                 where Date={date}, Symbol=`{sym}"
            ),
        },
        Class::Asof => {
            let (lo, hi) = asof_window(trades, sym, day, ASOF_SLICE_ROWS, rng);
            let join = format!(
                "aj[`Symbol`Time; \
                 select Symbol, Time, Price from trades \
                 where Date={date}, Symbol=`{sym}, Time within ({lo};{hi}); \
                 select Symbol, Time, Bid, Ask from quotes \
                 where Date={date}, Symbol=`{sym}, Time within ({lo};{hi})]"
            );
            if variant == 0 {
                format!("select slip: avg Price-Bid by Symbol from {join}")
            } else {
                join
            }
        }
    };
    Stmt { class, text }
}

/// A fixed pool of distinct statement texts: `counts[c]` of class `c`,
/// a third from each variant.
pub fn taq_pool(seed: u64, trades: &Table, counts: [usize; 4], sharded: bool) -> Vec<Stmt> {
    let mut rng = Rng::new(seed ^ 0x7461_715f_706f_6f6c);
    // Symbols and days are dealt from a seeded shuffle, not drawn one by
    // one: every pool asks about each symbol about equally often, so no
    // seed piles its statements on the busier shard or the bigger symbol.
    let mut deck: Vec<(&str, usize)> = SYMBOLS[..TAQ_SYMBOLS]
        .iter()
        .flat_map(|s| (0..TAQ_DAYS).map(move |d| (*s, d)))
        .collect();
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.below(i + 1));
    }
    let mut dealt = 0;
    let mut pool: Vec<Stmt> = Vec::new();
    for class in Class::ALL {
        for k in 0..counts[class.index()] {
            loop {
                let card = deck[dealt % deck.len()];
                dealt += 1;
                let s = taq_stmt(class, k % 3, card, &mut rng, trades, sharded);
                if !pool.contains(&s) {
                    pool.push(s);
                    break;
                }
            }
        }
    }
    pool
}

/// Rows on the left side of an `asof` slice: `aj` is quadratic in the
/// engine today, so the slices are small on purpose.
pub const ASOF_SLICE_ROWS: usize = 300;
/// Newest trades the `ingest_tail` reader joins as-of.
pub const TAIL_ASOF_ROWS: usize = 300;

/// Texts per class of a TAQ pool: 42 "dashboard" statements.
pub const TAQ_POOL: [usize; 4] = [15, 12, 9, 6];

// ---------------------------------------------------------------------------
// wide_adhoc
// ---------------------------------------------------------------------------

/// Five 502-column tables with a unique join key per row.
pub fn wide_adhoc_tables(rows: usize, seed: u64) -> Vec<(String, Table)> {
    wide_tables(&WorkloadSpec {
        tables: 5,
        metrics: 500,
        rows,
        key_cardinality: rows,
        seed,
    })
}

/// Ad-hoc templates: the paper's 25 analytical queries (`agg`) plus one
/// template each for the other three classes, all over the wide tables.
pub const WIDE_TEMPLATES: usize = 28;
/// Step by which an issue's literal is nudged off its template's
/// threshold, so the text is new to the translation cache while the
/// result is the one the oracle checked.
pub const WIDE_NUDGE: f64 = 1e-7;
/// Largest nudge count an oracle entry vouches for.
pub const WIDE_NUDGE_MAX: u64 = 100_000;

fn wide_col(tab: usize, i: usize) -> String {
    format!("{}m{}", prefix(tab), i % 500)
}

/// The table (1-based) and column a template's threshold filters.
fn wide_filter(template: usize) -> (usize, String) {
    let id = template + 1;
    match template {
        25.. => (1, wide_col(1, template + 13)),
        _ if id % 5 == 4 => (3, wide_col(3, id + 5)),
        _ => (2, wide_col(2, id + 1)),
    }
}

/// One threshold per template, before nudging: just above the median of
/// the column it filters, so every seed keeps half the rows, and at the
/// low end of a gap between two row values wide enough for every nudged
/// literal to select the same rows.
pub fn wide_thresholds(tables: &[(String, Table)]) -> Vec<f64> {
    let room = 4.0 * WIDE_NUDGE * WIDE_NUDGE_MAX as f64;
    (0..WIDE_TEMPLATES)
        .map(|template| {
            let (tab, col) = wide_filter(template);
            let Some(Value::Floats(values)) = tables[tab - 1].1.column(&col) else {
                panic!("wide table {tab} has no float column {col}")
            };
            let mut v = values.clone();
            v.sort_by(f64::total_cmp);
            let gap = (v.len() / 2..v.len())
                .find(|&i| v[i] - v[i - 1] > room)
                .expect("a wide column has a gap between row values");
            v[gap - 1] + room / 4.0
        })
        .collect()
}

/// Text of `template` at threshold `t`. Templates 0..25 follow
/// `hyperq_workload::analytical` query ids 1..=25 (same aggregate
/// families, same join widths: ids 10, 18, 19, 20 join five tables),
/// with every filter carrying a threshold so that no text repeats.
pub fn wide_text(template: usize, t: f64) -> String {
    let mcol = wide_col;
    if template >= 25 {
        let (a, b, f) = (
            mcol(1, template),
            mcol(1, template + 7),
            mcol(1, template + 13),
        );
        // 25 point, 26 window, 27 asof: see `wide_template`.
        return match template {
            25 => format!("select k, {a}, {b} from w1 where {f} > {t:.7}"),
            26 => format!("select k, d: deltas {a}, p: prev {b} from w1 where {f} > {t:.7}"),
            _ => format!(
                "aj[`k; select k, {a} from w1 where {f} > {t:.7}; select k, {} from w2]",
                mcol(2, template)
            ),
        };
    }
    let id = template + 1;
    let joined = if matches!(id, 10 | 18 | 19 | 20) {
        5
    } else {
        3
    };
    let mut join = table_name(1);
    for i in 2..=joined {
        join = format!("ej[`k; {join}; {}]", table_name(i));
    }
    let (c1, c2, c3) = (mcol(1, id), mcol(2, id + 3), mcol(3, id + 5));
    let f = mcol(2, id + 1);
    match id % 5 {
        0 => format!(
            "select mx: max {c1}, mn: min {c2}, s: sum {c3}, n: count i from {join} \
             where {f} > {t:.7}"
        ),
        1 => format!("select mx: max {c1}, av: avg {c2} by agrp from {join} where {f} < {t:.7}"),
        // The paper-shaped workload has `dev` and `var` here. Hyper-Q
        // answers them with sample statistics where Q's are population
        // statistics, and a workload must not contain a failing
        // statement, so this family keeps `med` and takes `avg`/`sum`.
        2 => format!(
            "select av: avg {c1}, sm: sum {c2}, md: med {c3} by agrp from {join} \
             where agrp in `g0`g1`g2, {f} < {t:.7}"
        ),
        3 => format!(
            "select spread: (max {c1}) - min {c1}, ratio: (sum {c2}) % sum {c3} by agrp \
             from {join} where {f} > {t:.7}"
        ),
        _ => format!(
            "select av: avg {c1}, s: sum {c2}, n: count i from {join} \
             where {f} > 50.0, {c3} < {t:.7}, agrp in `g0`g1`g2`g3"
        ),
    }
}

/// Analytical queries among the templates, all of class `agg`.
pub const WIDE_AGG_TEMPLATES: usize = 25;

/// A template of `class`: the `pick`-th of the 25 analytical queries for
/// `agg`, the one extra template for each other class.
pub fn wide_template(class: Class, pick: usize) -> usize {
    match class {
        Class::Agg => pick % WIDE_AGG_TEMPLATES,
        Class::Point => 25,
        Class::Window => 26,
        Class::Asof => 27,
    }
}

// ---------------------------------------------------------------------------
// ingest_tail
// ---------------------------------------------------------------------------

/// The tick stream: `trades`-shaped rows, in arrival order, cut into
/// `BATCH_ROWS`-row INSERT texts whose order column continues across batches.
pub fn tick_table(rows: usize, seed: u64) -> Table {
    generate_trades(&taq_config(rows, seed))
}

/// The static `quotes` side the tail's as-of joins read.
pub fn tick_quotes(rows: usize, seed: u64) -> Table {
    generate_quotes(&taq_config(rows, seed))
}
