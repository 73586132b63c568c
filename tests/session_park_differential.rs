//! Session-park differential: the connection layer must be *invisible*
//! — a Q application must get, through a socket, exactly what a session
//! in its own process would give it.
//!
//! The reference is an in-process `HyperQSession` over the fixture, with
//! no connection layer at all; its errors are rendered the way the wire
//! delivers them (the endpoint sends `e.to_string()` in a kdb+ error
//! frame and `QipcClient` rebuilds an `Other` error from that text).
//! Two QIPC endpoints serve identical fixtures beside it, both on a
//! tiny worker pool — one over the in-process engine, one whose sessions
//! reach their data through a PG v3 gateway connection to a `PgServer`
//! — and every statement runs on all three. The client sleeps after the
//! reference so the endpoint sessions genuinely park in the poller and
//! resume on a (possibly different) worker each time. Results must agree
//! structurally, and failures must agree *verbatim*: identical error
//! strings, not merely matching error-ness. The result path over the
//! wire (binary `DataRow`s decoded into column vectors) is not allowed
//! to be observable either.
//!
//! Coverage is the repo's standing differential diet: the 38-statement
//! oracle list (plus deliberate error probes), then a 200-program qgen
//! fuzz slice at a fixed seed.

use hyperq::endpoint::{BackendFactory, EndpointConfig, QipcClient, QipcEndpoint};
use hyperq::gateway::{Credentials, PgWireBackend};
use hyperq::side_by_side::values_agree;
use hyperq::{loader, HyperQSession};
use hyperq_workload::taq::{generate_quotes, generate_trades, TaqConfig};
use qgen::{gen_dataset, Coverage, ProgramGen};
use qlang::ast::Expr;
use qlang::error::QErrorKind;
use qlang::value::{Table, Value};
use qlang::QError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Dispatch threads per endpoint — deliberately tiny so every statement
/// observably travels the park → dispatch → re-park path rather than a
/// dedicated thread.
const NET_WORKERS: usize = 2;

/// Client-side pause after the reference: long enough that the worker
/// finishes, re-arms the session, and the poller parks it again before
/// the next frame arrives.
const PARK: Duration = Duration::from_millis(1);

/// What each arm is called in a failure report: the reference first,
/// then the connections in the order [`Arms::run`] answers.
const ARM_NAMES: [&str; 3] = ["in-process", "parked", "over the wire"];

/// One statement stream, answered by the in-process reference and by a
/// client of each endpoint.
struct Arms {
    direct: HyperQSession,
    clients: Vec<QipcClient>,
    endpoints: Vec<QipcEndpoint>,
    /// The PG server the wire endpoint's sessions reach their data through.
    pg: pgdb::server::PgServer,
}

impl Arms {
    /// Fresh arms, each over its own db from `db_for`.
    fn new(db_for: impl Fn() -> pgdb::Db) -> Arms {
        let direct = HyperQSession::with_direct(&db_for());
        let config = EndpointConfig { net_workers: NET_WORKERS, ..EndpointConfig::default() };
        let parked = QipcEndpoint::start(db_for(), "127.0.0.1:0", config.clone()).unwrap();
        let pg = pgdb::server::PgServer::start(
            db_for(),
            "127.0.0.1:0",
            pgdb::server::ServerConfig::default(),
        )
        .unwrap();
        let pg_addr = pg.addr.to_string();
        let factory: BackendFactory = std::sync::Arc::new(move || {
            let creds = Credentials {
                user: "differ".into(),
                password: String::new(),
                database: "hist".into(),
            };
            PgWireBackend::connect(&pg_addr, &creds).map(hyperq::share)
        });
        let wire = QipcEndpoint::start_with("127.0.0.1:0", config, factory).unwrap();
        let endpoints = vec![parked, wire];
        let clients = endpoints
            .iter()
            .map(|ep| QipcClient::connect(&ep.addr.to_string(), "differ", "").unwrap())
            .collect();
        Arms { direct, clients, endpoints, pg }
    }

    /// Run `q` on every arm, the reference first.
    fn run(&mut self, q: &str) -> Vec<Outcome> {
        let mut outcomes = vec![run_direct(&mut self.direct, q)];
        // Park: the endpoint sessions sit re-armed in the poller
        // between statements; each query below is a fresh dispatch onto
        // the worker pool.
        std::thread::sleep(PARK);
        outcomes.extend(self.clients.iter_mut().map(|c| run(c, q)));
        outcomes
    }

    fn detach(self) {
        for ep in self.endpoints {
            ep.detach();
        }
        self.pg.detach();
    }
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

/// The reference, its error wrapped as the endpoint's error frame
/// arrives at a `QipcClient`.
fn run_direct(s: &mut HyperQSession, q: &str) -> Outcome {
    match s.execute(q) {
        Ok(v) => Outcome::Ok(v),
        Err(e) => Outcome::Err(format!("{:?}", QError::new(QErrorKind::Other, e.to_string()))),
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

/// Does every arm agree with the reference?
fn all_agree(outcomes: &[Outcome], normalize: bool) -> bool {
    outcomes[1..].iter().all(|o| agree(&outcomes[0], o, normalize))
}

/// One line per arm, for a failure report.
fn describe(outcomes: &[Outcome]) -> String {
    ARM_NAMES
        .iter()
        .zip(outcomes)
        .map(|(name, o)| match o {
            Outcome::Ok(v) => format!("\n  {name:<16} Ok({v:?})"),
            Outcome::Err(e) => format!("\n  {name:<16} Err({e})"),
        })
        .collect()
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
/// generators are seeded, so every call produces identical data — every
/// arm serves a byte-identical world.
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
/// back identical on every arm.
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
    let mut arms = Arms::new(oracle_db);
    let reg = obs::global_registry();
    let dispatches_before = reg.counter_value("net_dispatches_total");

    let mut failures = Vec::new();
    let mut count = 0usize;
    for q in ORACLE_STATEMENTS.iter().chain(ERROR_PROBES) {
        count += 1;
        let outcomes = arms.run(q);
        if !all_agree(&outcomes, false) {
            failures.push(format!("`{q}`{}", describe(&outcomes)));
        }
    }
    assert!(count >= 38 + ERROR_PROBES.len(), "oracle breadth regressed: {count}");
    assert!(
        failures.is_empty(),
        "{} connection-layer divergence(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
    // Every statement on an endpoint connection was a park →
    // dispatch → re-park round trip, not a pinned thread.
    assert!(
        reg.counter_value("net_dispatches_total") - dispatches_before >= count as u64,
        "endpoint statements must each arrive as a scheduler dispatch"
    );
    arms.detach();
}

// ---------------------------------------------------------------------
// 2. qgen fuzz slice: 200 programs through every arm.
// ---------------------------------------------------------------------

/// Programs per generated dataset, mirroring `qgen::run_fuzz`.
const PROGRAMS_PER_DATASET: usize = 10;
const FUZZ_BUDGET: usize = 200;
const FUZZ_SEED: u64 = 20260807;

/// Fresh arms over fresh dbs, all loaded with `tables`.
fn fuzz_arms(tables: &[(String, Table)]) -> Arms {
    Arms::new(|| {
        let db = pgdb::Db::new();
        let mut s = HyperQSession::with_direct(&db);
        for (name, table) in tables {
            loader::load_table(&mut s, name, table).unwrap();
        }
        db
    })
}

#[test]
fn fuzz_slice_agrees_between_connection_layers() {
    let mut rng = StdRng::seed_from_u64(FUZZ_SEED);
    let mut gen = ProgramGen::new();
    let mut coverage = Coverage::default();
    let mut dataset = None;
    let mut arms: Option<Arms> = None;
    let mut failures: Vec<String> = Vec::new();
    let mut programs = 0usize;

    for pi in 0..FUZZ_BUDGET {
        if pi % PROGRAMS_PER_DATASET == 0 {
            let ds = gen_dataset(&mut rng);
            if let Some(a) = arms.take() {
                a.detach();
            }
            arms = Some(fuzz_arms(&ds.tables));
            dataset = Some(ds);
        }
        let ds = dataset.as_ref().unwrap();
        let program = gen.gen_program(&mut rng, ds, &mut coverage);
        programs += 1;
        let a = arms.as_mut().unwrap();
        let mut diverged = false;
        for q in program.render() {
            let outcomes = a.run(&q);
            if !all_agree(&outcomes, is_assignment(&q)) {
                diverged = true;
                failures.push(format!("program {pi}: `{q}`{}", describe(&outcomes)));
            }
        }
        if diverged {
            // Divergence may have forked session state across the arms;
            // rebuild all worlds so later programs are judged from a
            // clean slate.
            arms.take().unwrap().detach();
            arms = Some(fuzz_arms(&dataset.as_ref().unwrap().tables));
        }
    }
    if let Some(a) = arms.take() {
        a.detach();
    }
    assert_eq!(programs, FUZZ_BUDGET);
    assert!(
        failures.is_empty(),
        "{} connection-layer divergence(s) in {FUZZ_BUDGET} programs:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
