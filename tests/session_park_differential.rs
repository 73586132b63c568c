//! Session-park differential: the multiplexed connection layer must be
//! *indistinguishable on the wire* from thread-per-connection.
//!
//! Two QIPC endpoints serve identical fixtures — one blocking
//! thread-per-conn, one readiness-multiplexed with a tiny worker pool —
//! and a client drives the same statement stream through both, sleeping
//! between statements so the multiplexed session genuinely parks in the
//! poller and resumes on a (possibly different) worker each time.
//! Results must agree structurally, and failures must agree *verbatim*:
//! identical error strings, not merely matching error-ness.
//!
//! A third endpoint stands behind both comparisons: multiplexed like
//! the second, but every session's backend is a PG v3 gateway
//! connection to a `PgServer` over the same fixture instead of the
//! in-process engine. Whatever the other two answer, it must answer —
//! the result path over the wire (binary `DataRow`s decoded into column
//! vectors) is not allowed to be observable either.
//!
//! Coverage is the repo's standing differential diet: the 38-statement
//! oracle list (plus deliberate error probes), then a 200-program qgen
//! fuzz slice at a fixed seed.

use hyperq::endpoint::{BackendFactory, EndpointConfig, QipcClient, QipcEndpoint};
use hyperq::gateway::{Credentials, PgWireBackend};
use hyperq::side_by_side::values_agree;
use hyperq::{loader, HyperQSession};
use hyperq_workload::taq::{generate_quotes, generate_trades, TaqConfig};
use netpool::IoModel;
use qgen::{gen_dataset, Coverage, ProgramGen};
use qlang::ast::Expr;
use qlang::value::{Table, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Dispatch threads for the multiplexed endpoint — deliberately tiny so
/// every statement observably travels the park → dispatch → re-park
/// path rather than a dedicated thread.
const NET_WORKERS: usize = 2;

/// Client-side pause between statements on the multiplexed connection:
/// long enough that the worker finishes, re-arms the session, and the
/// poller parks it again before the next frame arrives.
const PARK: Duration = Duration::from_millis(1);

/// The three endpoints under comparison and the PG server the third
/// one's sessions reach their data through.
struct Endpoints {
    blocking: QipcEndpoint,
    multiplexed: QipcEndpoint,
    wire: QipcEndpoint,
    pg: pgdb::server::PgServer,
}

impl Endpoints {
    fn detach(self) {
        self.blocking.detach();
        self.multiplexed.detach();
        self.wire.detach();
        self.pg.detach();
    }
}

fn start_endpoints(db_for: impl Fn() -> pgdb::Db) -> Endpoints {
    let blocking = QipcEndpoint::start(
        db_for(),
        "127.0.0.1:0",
        EndpointConfig { io_model: IoModel::ThreadPerConn, ..EndpointConfig::default() },
    )
    .unwrap();
    let multiplexed = QipcEndpoint::start(
        db_for(),
        "127.0.0.1:0",
        EndpointConfig {
            io_model: IoModel::Multiplexed,
            net_workers: NET_WORKERS,
            ..EndpointConfig::default()
        },
    )
    .unwrap();
    let pg = pgdb::server::PgServer::start(
        db_for(),
        "127.0.0.1:0",
        pgdb::server::ServerConfig::default(),
    )
    .unwrap();
    let pg_addr = pg.addr.to_string();
    let factory: BackendFactory = std::sync::Arc::new(move || {
        let creds =
            Credentials { user: "differ".into(), password: String::new(), database: "hist".into() };
        PgWireBackend::connect(&pg_addr, &creds).map(hyperq::share)
    });
    let wire = QipcEndpoint::start_with(
        "127.0.0.1:0",
        EndpointConfig {
            io_model: IoModel::Multiplexed,
            net_workers: NET_WORKERS,
            ..EndpointConfig::default()
        },
        factory,
    )
    .unwrap();
    Endpoints { blocking, multiplexed, wire, pg }
}

fn connect(ep: &QipcEndpoint) -> QipcClient {
    QipcClient::connect(&ep.addr.to_string(), "differ", "").unwrap()
}

/// Outcome of one statement, in the exact form the application sees.
enum Outcome {
    Ok(Value),
    Err(String),
}

fn run(c: &mut QipcClient, q: &str) -> Outcome {
    match c.query(q) {
        Ok(v) => Outcome::Ok(v),
        Err(e) => Outcome::Err(format!("{e:?}")),
    }
}

/// `normalize`: successful assignments collapse (their return value is
/// representational), mirroring the tri-executor `BatchDriver`.
fn agree(a: &Outcome, b: &Outcome, normalize: bool) -> bool {
    match (a, b) {
        (Outcome::Ok(x), Outcome::Ok(y)) => normalize || values_agree(x, y),
        // The contract under test: errors must match STRING FOR STRING.
        (Outcome::Err(x), Outcome::Err(y)) => x == y,
        _ => false,
    }
}

fn describe(o: &Outcome) -> String {
    match o {
        Outcome::Ok(v) => format!("Ok({v:?})"),
        Outcome::Err(e) => format!("Err({e})"),
    }
}

fn is_assignment(q: &str) -> bool {
    qlang::parse(q)
        .map(|stmts| {
            stmts
                .last()
                .is_some_and(|e| matches!(e, Expr::Assign { .. } | Expr::IndexAssign { .. }))
        })
        .unwrap_or(false)
}

// ---------------------------------------------------------------------
// 1. The 38-statement oracle (plus error probes) through parked sessions.
// ---------------------------------------------------------------------

fn taq_cfg() -> TaqConfig {
    TaqConfig { rows: 200, symbols: 4, days: 2, seed: 4242 }
}

/// The standard oracle fixture, loaded into a fresh in-process db. The
/// generators are seeded, so every call produces identical data — the
/// two endpoints serve byte-identical worlds.
fn oracle_db() -> pgdb::Db {
    let db = pgdb::Db::new();
    let mut s = HyperQSession::with_direct(&db);
    loader::load_table(&mut s, "trades", &generate_trades(&taq_cfg())).unwrap();
    loader::load_table(&mut s, "quotes", &generate_quotes(&TaqConfig { rows: 600, ..taq_cfg() }))
        .unwrap();
    let nullable = Table::new(
        vec!["Sym".into(), "Qty".into(), "Px".into()],
        vec![
            Value::Symbols(vec!["A".into(), "B".into(), "A".into(), "C".into(), "B".into()]),
            Value::Longs(vec![10, i64::MIN, 30, i64::MIN, 50]),
            Value::Floats(vec![1.5, 2.5, f64::NAN, 4.0, f64::NAN]),
        ],
    )
    .unwrap();
    loader::load_table(&mut s, "nullable", &nullable).unwrap();
    let refdata = Table::new(
        vec!["Symbol".into(), "Sector".into(), "Lot".into()],
        vec![
            Value::Symbols(vec!["AAPL".into(), "GOOG".into(), "IBM".into()]),
            Value::Symbols(vec!["tech".into(), "tech".into(), "services".into()]),
            Value::Longs(vec![100, 10, 50]),
        ],
    )
    .unwrap();
    loader::load_table(&mut s, "refdata", &refdata).unwrap();
    db
}

/// The oracle statement list, verbatim from `differential_oracle.rs`,
/// followed by deliberate error probes — the error *strings* must come
/// back identical through both connection layers.
const ORACLE_STATEMENTS: &[&str] = &[
    "select from trades",
    "select Symbol, Price from trades",
    "select Price from trades where Symbol=`GOOG",
    "select Price, Size from trades where Date=2016.06.26",
    "select from trades where Price within 50 150",
    "select Price from trades where Symbol in `GOOG`IBM, Size>100",
    "select Notional: Price*Size from trades where Size>500",
    "exec Price from trades where Symbol=`GOOG",
    "select from quotes where Ask>Bid",
    "select mx: max Price, mn: min Price from trades",
    "select s: sum Size, a: avg Price from trades",
    "select n: count i from trades where Symbol=`IBM",
    "select spread: avg Ask-Bid from quotes",
    "select mx: max Price by Symbol from trades",
    "select s: sum Size by Date from trades",
    "select n: count i by Symbol from trades",
    "select vwap: (sum Price*Size) % sum Size by Symbol from trades",
    "select mx: max Price by Date, Symbol from trades",
    "select s: sum Size by 1000 xbar Size from trades",
    "aj[`Symbol`Time; select Symbol, Time, Price from trades; \
     select Symbol, Time, Bid, Ask from quotes]",
    "aj[`Symbol`Time; select Symbol, Time, Price from trades where Date=2016.06.26; \
     select Symbol, Time, Bid, Ask from quotes where Date=2016.06.26]",
    "trades lj 1!refdata",
    "trades ij 1!refdata",
    "select mx: max Price by Sector from trades lj 1!refdata",
    "(select Symbol, Price from trades where Size>900) uj \
     select Symbol, Price, Size from trades where Size<100",
    "select from nullable where Qty=0N",
    "select from nullable where Qty>20",
    "select s: sum Qty by Sym from nullable",
    "select n: count Px, m: count i from nullable",
    "select mx: max Px, mn: min Px from nullable",
    "update Qty: 0N from nullable where Sym=`A",
    "select Price, prevPx: prev Price from trades",
    "select d: deltas Price from trades where Symbol=`GOOG",
    "select open: first Price, close: last Price by Symbol from trades",
    "select Price, nextPx: next Price from trades where Symbol=`IBM",
    "`Price xdesc select from trades where Date=2016.06.26",
    "`Symbol`Time xasc select Symbol, Time, Price from trades",
    "select last Bid by Symbol from quotes",
];

const ERROR_PROBES: &[&str] = &[
    "select from no_such_table",
    "no_such_variable",
    "select nosuchcol from trades",
];

#[test]
fn oracle_is_bit_identical_through_parked_multiplexed_sessions() {
    let eps = start_endpoints(oracle_db);
    let mut a = connect(&eps.blocking);
    let mut b = connect(&eps.multiplexed);
    let mut c = connect(&eps.wire);
    let reg = obs::global_registry();
    let dispatches_before = reg.counter_value("net_dispatches_total");

    let mut failures = Vec::new();
    let statements = ORACLE_STATEMENTS.iter().chain(ERROR_PROBES);
    let mut count = 0usize;
    for q in statements {
        count += 1;
        let ra = run(&mut a, q);
        // Park: the multiplexed session sits re-armed in the poller
        // between these statements; each query below is a fresh
        // dispatch onto the worker pool.
        std::thread::sleep(PARK);
        let rb = run(&mut b, q);
        let rc = run(&mut c, q);
        if !agree(&ra, &rb, false) || !agree(&ra, &rc, false) {
            failures.push(format!(
                "`{q}`\n  thread-per-conn: {}\n  multiplexed:     {}\n  over the wire:   {}",
                describe(&ra),
                describe(&rb),
                describe(&rc)
            ));
        }
    }
    assert!(count >= 38 + ERROR_PROBES.len(), "oracle breadth regressed: {count}");
    assert!(
        failures.is_empty(),
        "{} connection-layer divergence(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
    // Every statement on the multiplexed connection was a park →
    // dispatch → re-park round trip, not a pinned thread.
    assert!(
        reg.counter_value("net_dispatches_total") - dispatches_before >= count as u64,
        "multiplexed statements must each arrive as a scheduler dispatch"
    );
    eps.detach();
}

// ---------------------------------------------------------------------
// 2. qgen fuzz slice: 200 programs through both connection layers.
// ---------------------------------------------------------------------

/// Programs per generated dataset, mirroring `qgen::run_fuzz`.
const PROGRAMS_PER_DATASET: usize = 10;
const FUZZ_BUDGET: usize = 200;
const FUZZ_SEED: u64 = 20260807;

struct FuzzPair {
    eps: Endpoints,
    a: QipcClient,
    b: QipcClient,
    c: QipcClient,
}

impl FuzzPair {
    /// Fresh endpoints over fresh dbs, all loaded with `tables`.
    fn new(tables: &[(String, Table)]) -> FuzzPair {
        let eps = start_endpoints(|| {
            let db = pgdb::Db::new();
            let mut s = HyperQSession::with_direct(&db);
            for (name, table) in tables {
                loader::load_table(&mut s, name, table).unwrap();
            }
            db
        });
        let a = connect(&eps.blocking);
        let b = connect(&eps.multiplexed);
        let c = connect(&eps.wire);
        FuzzPair { eps, a, b, c }
    }

    fn shutdown(self) {
        self.eps.detach();
    }
}

#[test]
fn fuzz_slice_agrees_between_connection_layers() {
    let mut rng = StdRng::seed_from_u64(FUZZ_SEED);
    let mut gen = ProgramGen::new();
    let mut coverage = Coverage::default();
    let mut dataset = None;
    let mut pair: Option<FuzzPair> = None;
    let mut failures: Vec<String> = Vec::new();
    let mut programs = 0usize;

    for pi in 0..FUZZ_BUDGET {
        if pi % PROGRAMS_PER_DATASET == 0 {
            let ds = gen_dataset(&mut rng);
            if let Some(p) = pair.take() {
                p.shutdown();
            }
            pair = Some(FuzzPair::new(&ds.tables));
            dataset = Some(ds);
        }
        let ds = dataset.as_ref().unwrap();
        let program = gen.gen_program(&mut rng, ds, &mut coverage);
        programs += 1;
        let p = pair.as_mut().unwrap();
        let mut diverged = false;
        for q in program.render() {
            let ra = run(&mut p.a, &q);
            std::thread::sleep(PARK);
            let rb = run(&mut p.b, &q);
            let rc = run(&mut p.c, &q);
            let normalize = is_assignment(&q);
            if !agree(&ra, &rb, normalize) || !agree(&ra, &rc, normalize) {
                diverged = true;
                failures.push(format!(
                    "program {pi}: `{q}`\n  thread-per-conn: {}\n  multiplexed:     {}\n  over the wire:   {}",
                    describe(&ra),
                    describe(&rb),
                    describe(&rc)
                ));
            }
        }
        if diverged {
            // Divergence may have forked session state across the
            // connections; rebuild all worlds so later programs are
            // judged from a clean slate.
            pair.take().unwrap().shutdown();
            pair = Some(FuzzPair::new(&dataset.as_ref().unwrap().tables));
        }
    }
    if let Some(p) = pair.take() {
        p.shutdown();
    }
    assert_eq!(programs, FUZZ_BUDGET);
    assert!(
        failures.is_empty(),
        "{} connection-layer divergence(s) in {FUZZ_BUDGET} programs:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
