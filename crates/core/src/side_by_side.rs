//! The side-by-side testing framework of paper §5.
//!
//! "As we implemented features from the customer workload, we needed a
//! way to ensure the exact same behavior to the application as before.
//! For this purpose we built a side-by-side testing framework."
//!
//! An *arm* is one way of executing a Q statement over a table list:
//! the reference Q engine (the kdb+ stand-in), an in-process session
//! under some configuration, a session over the PG v3 wire, a parked
//! QIPC endpoint, a shard router. A row of the differential matrix is
//! (corpus, arms, rule): [`Matrix`] loads the same data into every arm,
//! runs every statement on every arm, compares every pair of arms under
//! the row's [`Rule`], reports every divergence rather than the first,
//! and counts the (statement, pair of arms) comparisons it made so each
//! row can pin its breadth: a row of `n` arms makes `n(n-1)/2` per
//! statement.
//!
//! [`Matrix`] is the one differential driver: every test row, the
//! examples, and `qgen`'s fuzz loop, shrinker and repro replay run on
//! it, and [`agrees`] is the agreement rule under all of them.

use crate::endpoint::{BackendFactory, EndpointConfig, QipcClient, QipcEndpoint};
use crate::gateway::{Credentials, PgWireBackend};
use crate::session::{HyperQSession, SessionConfig};
use crate::shard::{ShardCluster, ShardOpts, ShardRouter};
use crate::{loader, share, SharedBackend, WireError};
use pgdb::server::{PgServer, ServerConfig};
use qengine::Interp;
use qlang::ast::Expr;
use qlang::error::QErrorKind;
use qlang::value::{Table, Value};
use qlang::QResult;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// What one executor produced for one statement, in the form the
/// application observes it: a value, or the error's text.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The statement evaluated to a value.
    Value(Value),
    /// The statement errored.
    Error(String),
}

impl From<QResult<Value>> for Outcome {
    fn from(r: QResult<Value>) -> Self {
        match r {
            Ok(v) => Outcome::Value(v),
            Err(e) => Outcome::Error(e.to_string()),
        }
    }
}

impl Outcome {
    /// The value, if this outcome carries one.
    pub fn value(&self) -> Option<&Value> {
        match self {
            Outcome::Value(v) => Some(v),
            Outcome::Error(_) => None,
        }
    }

    /// The outcome of `q` as the application observes it: when `q` is a
    /// top-level assignment ([`is_assignment`]), a successful outcome
    /// collapses to `Nil`; errors still count.
    pub fn normalized(self, assignment: bool) -> Outcome {
        match self {
            Outcome::Value(_) if assignment => Outcome::Value(Value::Nil),
            o => o,
        }
    }
}

/// The §5 agreement rule: do two outcomes behave the same toward the
/// application? Both erroring agrees (the application sees an error
/// either way, and the reference engine's error text is not Hyper-Q's);
/// a one-sided error or differing values do not.
///
/// Table results are compared *structurally* where possible: both sides
/// are lowered onto the shared columnar representation via
/// [`qengine::colbridge`] and diffed batch against batch
/// (`Batch::structurally_equal`, which keys every cell), which catches
/// representation-level drift (e.g. a null carried in-band on one side
/// and out-of-band on the other) that value equality would paper over.
/// Shapes the bridge cannot express fall back to [`values_agree`].
pub fn agrees(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (Outcome::Value(a), Outcome::Value(b)) => {
            if let (Some(ba), Some(bb)) = (as_batch(a), as_batch(b)) {
                return ba.structurally_equal(&bb) && values_agree(a, b);
            }
            values_agree(a, b)
        }
        (Outcome::Error(_), Outcome::Error(_)) => true,
        _ => false,
    }
}

/// Lower a table-shaped value onto the shared columnar representation,
/// if every column has a storage class there. Keyed tables are
/// flattened first (key columns then value columns), matching the
/// representational tolerance of [`values_agree`].
fn as_batch(v: &Value) -> Option<colstore::Batch> {
    match v {
        Value::Table(t) => qengine::colbridge::table_to_batch(t),
        Value::KeyedTable(k) => qengine::colbridge::table_to_batch(&flatten(k)),
        _ => None,
    }
}

/// Is this statement a top-level assignment? The interpreter evaluates
/// an assignment to its value while the pipeline materializes it and
/// returns nothing (the console shows nothing either way), so the
/// assignment's *immediate* result is not an application-visible
/// observable — its effect is diffed through subsequent reads of the
/// variable instead.
pub fn is_assignment(q: &str) -> bool {
    qlang::parse(q)
        .map(|stmts| {
            stmts
                .last()
                .is_some_and(|e| matches!(e, Expr::Assign { .. } | Expr::IndexAssign { .. }))
        })
        .unwrap_or(false)
}

/// Q-equality with tolerance for representational differences between
/// the engine and the pivoted backend results: an engine table compares
/// equal to a pivoted table with identical columns even when numeric
/// widths differ (the backend promotes). Public because the qgen
/// differential fuzzer applies the same criterion before drilling into
/// cell-level diffs.
pub fn values_agree(a: &Value, b: &Value) -> bool {
    if a.q_eq(b) {
        return true;
    }
    match (a, b) {
        // Keyed tables vs tables with the same flattened content.
        (Value::KeyedTable(k), Value::KeyedTable(j)) => {
            let fa = flatten(k);
            let fb = flatten(j);
            Value::Table(Box::new(fa)).q_eq(&Value::Table(Box::new(fb)))
        }
        _ => false,
    }
}

/// Flatten a keyed table into key-columns-then-value-columns (used when
/// comparing keyed results whose key/value split differs representationally).
pub fn flatten(k: &qlang::KeyedTable) -> Table {
    Table {
        names: k.key.names.iter().chain(&k.value.names).cloned().collect(),
        columns: k.key.columns.iter().chain(&k.value.columns).cloned().collect(),
    }
}

/// Dispatch threads per endpoint — deliberately tiny so every statement
/// observably travels the park → dispatch → re-park path rather than a
/// dedicated thread.
const NET_WORKERS: usize = 2;

/// Client-side pause before each statement of a row with endpoint arms:
/// long enough that the worker finishes, re-arms the session, and the
/// poller parks it again before the next frame arrives.
const PARK: Duration = Duration::from_millis(1);

/// One way of executing a statement.
#[derive(Clone)]
pub enum Arm {
    /// The qengine interpreter, the kdb+ stand-in.
    Qengine,
    /// An in-process session under this configuration.
    Session(SessionConfig),
    /// An in-process session under this configuration whose cache is
    /// primed: each program runs once, unrecorded, before it is checked,
    /// so repeated statements take the cache-hit path.
    Warm(SessionConfig),
    /// A session whose backend is a PG v3 gateway connection to a
    /// `PgServer`.
    Wire,
    /// A client of a QIPC endpoint over the in-process engine.
    Parked,
    /// A client of a QIPC endpoint whose sessions reach their data
    /// through a PG v3 gateway connection to a `PgServer`.
    ParkedWire,
    /// A session over an in-process router at this many shards.
    Router(usize),
}

/// Which outcomes agree.
#[derive(Clone, Copy, PartialEq)]
pub enum Rule {
    /// Values through [`agrees`]; any two errors agree (qengine's error
    /// text is not Hyper-Q's); successful assignments are normalized.
    Reference,
    /// Values through [`agrees`]; error text verbatim; assignments
    /// normalized.
    SameErrors,
    /// The `{:?}` of the outcomes is identical — `-0.0` is not `0.0`,
    /// one NaN is not two; nothing is normalized.
    Bits,
}

impl Rule {
    fn agree(self, a: &Outcome, b: &Outcome) -> bool {
        match (self, a, b) {
            (Rule::Bits, _, _) => format!("{a:?}") == format!("{b:?}"),
            (Rule::SameErrors, Outcome::Error(x), Outcome::Error(y)) => x == y,
            _ => agrees(a, b),
        }
    }
}

/// What the baseline arm must do with every statement of a corpus.
#[derive(Clone, Copy, PartialEq)]
pub enum Baseline {
    /// Answer with a value.
    Succeeds,
    /// Answer with an error.
    Fails,
}

/// Deterministic shard knobs: a differential row must not depend on
/// ambient `HQ_SHARD_*`. A threshold of 0 partitions every non-empty
/// table, so a row's small tables take the distributed paths too.
pub fn shard_opts() -> ShardOpts {
    ShardOpts { broadcast_threshold: 0, float_agg: false, stats: true, keys: HashMap::new() }
}

/// A router over a fresh in-process cluster of `shards` shards.
pub fn router(shards: usize) -> Result<ShardRouter, WireError> {
    ShardCluster::in_process_with(shards, shard_opts()).router()
}

/// A session over a fresh `shards`-shard router, loaded with `tables`.
pub fn router_session(tables: &[(String, Table)], shards: usize) -> Result<HyperQSession, String> {
    let router = router(shards).map_err(|e| e.to_string())?;
    let mut s = HyperQSession::new(share(router), SessionConfig::default());
    load(&mut s, tables)?;
    Ok(s)
}

/// An in-process session under `config`, over its own db loaded with
/// `tables`.
pub fn session(tables: &[(String, Table)], config: SessionConfig) -> Result<HyperQSession, String> {
    Ok(HyperQSession::with_direct_config(&loaded(tables)?, config))
}

/// A fresh in-process db loaded with `tables`.
fn loaded(tables: &[(String, Table)]) -> Result<pgdb::Db, String> {
    let db = pgdb::Db::new();
    load(&mut HyperQSession::with_direct(&db), tables)?;
    Ok(db)
}

/// A fresh in-process db holding a copy of each of `template`'s stored
/// tables: what loading through SQL stored, without loading again.
fn copy(template: &pgdb::Db) -> pgdb::Db {
    let db = pgdb::Db::new();
    for name in template.table_names() {
        let stored = template.get_table_snapshot(&name).expect("a listed table has a snapshot");
        db.put_table_batch(&name, (*stored.batch).clone());
    }
    db
}

fn load(s: &mut HyperQSession, tables: &[(String, Table)]) -> Result<(), String> {
    for (name, table) in tables {
        loader::load_table(s, name, table).map_err(|e| format!("loading {name}: {e}"))?;
    }
    Ok(())
}

/// A `PgServer` over `db`.
fn pg_server(db: pgdb::Db) -> Result<PgServer, String> {
    PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).map_err(|e| e.to_string())
}

fn gateway(addr: &str) -> Result<SharedBackend, WireError> {
    let creds =
        Credentials { user: "differ".into(), password: String::new(), database: "hist".into() };
    PgWireBackend::connect(addr, &creds).map(share)
}

/// A built arm, ready to execute.
struct Live {
    exec: Exec,
    /// The servers behind `exec`, stopped after it is dropped.
    _servers: Servers,
}

/// What executes an arm's statements.
enum Exec {
    Qengine(Interp),
    Session(Box<HyperQSession>),
    Client(QipcClient),
}

/// The servers an arm started; they stop when the arm is dropped.
#[derive(Default)]
struct Servers {
    endpoint: Option<QipcEndpoint>,
    pg: Option<PgServer>,
}

impl Drop for Servers {
    fn drop(&mut self) {
        if let Some(endpoint) = self.endpoint.take() {
            endpoint.stop();
        }
        if let Some(pg) = self.pg.take() {
            pg.stop();
        }
    }
}

impl Arm {
    /// The arm's name in a divergence report.
    pub fn name(&self) -> String {
        match self {
            Arm::Qengine => "qengine".into(),
            Arm::Session(c) if c.translation_cache == 0 => "cold session".into(),
            Arm::Session(_) => "session".into(),
            Arm::Warm(_) => "warm session".into(),
            Arm::Wire => "wire".into(),
            Arm::Parked => "parked".into(),
            Arm::ParkedWire => "parked wire".into(),
            Arm::Router(n) => format!("{n}-shard router"),
        }
    }

    /// The arm over `tables`; an in-process db is a copy of `template`,
    /// loaded from `tables` once for all the row's arms.
    fn build(
        &self,
        tables: &[(String, Table)],
        template: &OnceLock<Result<pgdb::Db, String>>,
    ) -> Result<Live, String> {
        let endpoint = EndpointConfig { net_workers: NET_WORKERS, ..EndpointConfig::default() };
        let client = |ep: std::io::Result<QipcEndpoint>, mut servers: Servers| {
            let ep = ep.map_err(|e| e.to_string())?;
            let addr = ep.addr.to_string();
            servers.endpoint = Some(ep);
            let client = QipcClient::connect(&addr, "differ", "").map_err(|e| e.to_string())?;
            Ok::<_, String>((Exec::Client(client), servers))
        };
        let db = || {
            template.get_or_init(|| loaded(tables)).as_ref().map(copy).map_err(Clone::clone)
        };
        let (exec, servers) = match self {
            Arm::Qengine => {
                let interp = Interp::with_tables(tables.iter().map(|(n, t)| (n.as_str(), t)));
                (Exec::Qengine(interp), Servers::default())
            }
            Arm::Session(config) | Arm::Warm(config) => {
                let session = HyperQSession::with_direct_config(&db()?, config.clone());
                (Exec::Session(Box::new(session)), Servers::default())
            }
            Arm::Wire => {
                let pg = pg_server(db()?)?;
                let backend = gateway(&pg.addr.to_string()).map_err(|e| e.to_string())?;
                let session = HyperQSession::new(backend, SessionConfig::default());
                (Exec::Session(Box::new(session)), Servers { endpoint: None, pg: Some(pg) })
            }
            Arm::Parked => {
                client(QipcEndpoint::start(db()?, "127.0.0.1:0", endpoint), Servers::default())?
            }
            Arm::ParkedWire => {
                let pg = pg_server(db()?)?;
                let addr = pg.addr.to_string();
                let factory: BackendFactory = Arc::new(move || gateway(&addr));
                let servers = Servers { endpoint: None, pg: Some(pg) };
                client(QipcEndpoint::start_with("127.0.0.1:0", endpoint, factory), servers)?
            }
            Arm::Router(shards) => {
                let session = router_session(tables, *shards)?;
                (Exec::Session(Box::new(session)), Servers::default())
            }
        };
        Ok(Live { exec, _servers: servers })
    }
}

impl Live {
    /// `q`'s outcome as the application sees it. An endpoint sends
    /// `e.to_string()` in its error frame and the client rebuilds an
    /// `Other` error from that text, so the text is the session's; any
    /// other client-side error keeps its kind and cannot pass for one.
    fn run(&mut self, q: &str) -> Outcome {
        match &mut self.exec {
            Exec::Qengine(interp) => Outcome::from(interp.run(q)),
            Exec::Session(s) => Outcome::from(s.execute(q)),
            Exec::Client(c) => match c.query(q) {
                Ok(v) => Outcome::Value(v),
                Err(e) if e.kind == QErrorKind::Other && e.offset.is_none() => {
                    Outcome::Error(e.message)
                }
                Err(e) => Outcome::Error(format!("{e:?}")),
            },
        }
    }
}

/// One (statement, pair of arms) whose outcomes disagree.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The program (or corpus group) the statement belongs to.
    pub program: usize,
    /// The statement's index within it.
    pub index: usize,
    /// The pass over the program that found it.
    pub pass: usize,
    /// The statement.
    pub q: String,
    /// The two arms' names, in row order.
    pub arms: [String; 2],
    /// What each of them answered.
    pub outcomes: [Outcome; 2],
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "program {} stmt {} pass {} `{}`", self.program, self.index, self.pass, self.q)?;
        for (arm, o) in self.arms.iter().zip(&self.outcomes) {
            write!(f, "\n  {arm:<16} {}", brief(o))?;
        }
        Ok(())
    }
}

/// What a row found.
#[derive(Debug, Default)]
pub struct Report {
    /// (statement, pair of arms) comparisons made, passes included.
    pub comparisons: usize,
    /// Every divergence, in execution order.
    pub divergences: Vec<Divergence>,
    /// Every failure that is not a pair's: a baseline arm answering
    /// against its corpus's [`Baseline`], arms that could not be built
    /// over a dataset.
    pub failures: Vec<String>,
    /// Every checked statement's outcomes in execution order, one per
    /// arm in row order.
    pub outcomes: Vec<Vec<Outcome>>,
}

impl Report {
    /// No divergence and no failure.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty() && self.failures.is_empty()
    }

    /// Fail on any failure or divergence, then on a comparison count
    /// other than `comparisons`.
    pub fn assert_clean(&self, comparisons: usize) {
        let lines: Vec<String> = self
            .failures
            .iter()
            .cloned()
            .chain(self.divergences.iter().map(Divergence::to_string))
            .collect();
        assert!(
            lines.is_empty(),
            "{} failure(s) in {} comparisons:\n{}",
            lines.len(),
            self.comparisons,
            lines.join("\n")
        );
        assert_eq!(self.comparisons, comparisons, "comparison count");
    }
}

/// One row's arms and rule; the first arm is the baseline a corpus's
/// [`Baseline`] is checked on.
pub struct Matrix<'a> {
    arms: &'a [Arm],
    rule: Rule,
    /// How many times each program runs on every arm, each pass checked.
    passes: usize,
    report: Report,
}

impl<'a> Matrix<'a> {
    /// A row of `arms` under `rule`, running each program `passes`
    /// times.
    pub fn new(arms: &'a [Arm], rule: Rule, passes: usize) -> Self {
        assert!(arms.len() >= 2, "a row compares at least two arms");
        Matrix { arms, rule, passes, report: Report::default() }
    }

    /// Every arm over `tables`, built side by side: loading is most of
    /// a fuzz row's set-up.
    fn build(&self, tables: &[(String, Table)]) -> Result<Vec<Live>, String> {
        let template = OnceLock::new();
        std::thread::scope(|s| {
            let arms: Vec<_> =
                self.arms.iter().map(|arm| s.spawn(|| arm.build(tables, &template))).collect();
            arms.into_iter().map(|h| h.join().expect("building an arm panicked")).collect()
        })
    }

    /// Each statement group of `corpus` as one program over `tables`,
    /// the baseline's outcome of every statement checked against the
    /// group's [`Baseline`].
    pub fn statements(
        mut self,
        tables: &[(String, Table)],
        corpus: &[(&[&str], Baseline)],
    ) -> Report {
        match self.build(tables) {
            Ok(mut live) => {
                for (group, (stmts, baseline)) in corpus.iter().enumerate() {
                    self.program(&mut live, group, stmts, Some(*baseline));
                }
            }
            Err(e) => self.report.failures.push(e),
        }
        self.report
    }

    /// Every program of every (tables, programs) chunk, the programs
    /// numbered across chunks, each chunk on fresh arms. A divergent
    /// program may leave the arms in different states, so the arms are
    /// rebuilt after one; a program whose arms cannot be built is a
    /// failure.
    pub fn slice(
        mut self,
        chunks: impl IntoIterator<Item = (Vec<(String, Table)>, Vec<Vec<String>>)>,
    ) -> Report {
        let mut index = 0;
        for (tables, programs) in chunks {
            let mut live = None;
            for program in &programs {
                match live.take().map_or_else(|| self.build(&tables), Ok) {
                    Ok(mut arms) => {
                        if !self.program(&mut arms, index, program, None) {
                            live = Some(arms);
                        }
                    }
                    Err(e) => self.report.failures.push(format!("program {index}: {e}")),
                }
                index += 1;
            }
        }
        self.report
    }

    /// Run one program on every arm and compare every pair of arms: two
    /// arms that each agree with the baseline need not agree with each
    /// other where `agrees` falls back to Q equality (a long column and
    /// a float column of the same numbers). True when something failed.
    fn program<S: AsRef<str>>(
        &mut self,
        live: &mut [Live],
        program: usize,
        stmts: &[S],
        baseline: Option<Baseline>,
    ) -> bool {
        for (arm, l) in self.arms.iter().zip(live.iter_mut()) {
            if matches!(arm, Arm::Warm(_)) {
                for q in stmts {
                    let _ = l.run(q.as_ref());
                }
            }
        }
        let parked = live.iter().any(|l| matches!(l.exec, Exec::Client(_)));
        let report = &mut self.report;
        let before = report.divergences.len() + report.failures.len();
        for pass in 0..self.passes {
            for (index, q) in stmts.iter().map(AsRef::as_ref).enumerate() {
                if parked {
                    std::thread::sleep(PARK);
                }
                let assignment = self.rule != Rule::Bits && is_assignment(q);
                let outcomes: Vec<Outcome> =
                    live.iter_mut().map(|l| l.run(q).normalized(assignment)).collect();
                let succeeded = outcomes[0].value().is_some();
                if baseline.is_some_and(|b| succeeded != (b == Baseline::Succeeds)) {
                    let want = if succeeded { "fail" } else { "succeed" };
                    let base = format!("{:<16} {}", self.arms[0].name(), brief(&outcomes[0]));
                    report.failures.push(format!(
                        "program {program} stmt {index} pass {pass} `{q}`: must {want} on\n  {base}"
                    ));
                }
                for j in 1..outcomes.len() {
                    for i in 0..j {
                        report.comparisons += 1;
                        if !self.rule.agree(&outcomes[i], &outcomes[j]) {
                            report.divergences.push(Divergence {
                                program,
                                index,
                                pass,
                                q: q.to_string(),
                                arms: [self.arms[i].name(), self.arms[j].name()],
                                outcomes: [outcomes[i].clone(), outcomes[j].clone()],
                            });
                        }
                    }
                }
                report.outcomes.push(outcomes);
            }
        }
        report.divergences.len() + report.failures.len() > before
    }
}

/// An outcome's `{:?}`, cut short: a 70 000-row table is no diagnosis.
fn brief(o: &Outcome) -> String {
    let s = format!("{o:?}");
    match s.char_indices().nth(800) {
        Some((cut, _)) => format!("{}… ({} bytes)", &s[..cut], s.len()),
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trades() -> Vec<(String, Table)> {
        let trades = Table::new(
            vec!["Date".into(), "Symbol".into(), "Time".into(), "Price".into(), "Size".into()],
            vec![
                Value::Dates(vec![6021, 6021, 6022, 6022]),
                Value::Symbols(vec!["GOOG".into(), "IBM".into(), "GOOG".into(), "MSFT".into()]),
                Value::Times(vec![34_200_000, 34_260_000, 34_320_000, 34_380_000]),
                Value::Floats(vec![100.0, 50.0, 101.5, 70.25]),
                Value::Longs(vec![10, 20, 30, 40]),
            ],
        )
        .unwrap();
        vec![("trades".into(), trades)]
    }

    /// `stmts`, in order, on the reference and a session over
    /// [`trades`]: each must succeed on the reference and agree.
    fn assert_agree(stmts: &[&str]) {
        Matrix::new(&[Arm::Qengine, Arm::Session(SessionConfig::default())], Rule::Reference, 1)
            .statements(&trades(), &[(stmts, Baseline::Succeeds)])
            .assert_clean(stmts.len());
    }

    fn t() -> Vec<(String, Table)> {
        let t = Table::new(
            vec!["S".into(), "V".into()],
            vec![
                Value::Symbols(vec!["a".into(), "b".into(), "a".into()]),
                Value::Longs(vec![1, 2, 3]),
            ],
        )
        .unwrap();
        vec![("t".to_string(), t)]
    }

    /// The fuzz loop's arms: the reference, a cache-cold and a
    /// cache-warm session.
    fn tri() -> [Arm; 3] {
        let cold = SessionConfig { translation_cache: 0, ..SessionConfig::default() };
        [Arm::Qengine, Arm::Session(cold), Arm::Warm(SessionConfig::default())]
    }

    fn program(stmts: &[&str]) -> Vec<Vec<String>> {
        vec![stmts.iter().map(|s| s.to_string()).collect()]
    }

    #[test]
    fn simple_queries_agree() {
        assert_agree(&[
            "select from trades",
            "select Price from trades where Symbol=`GOOG",
            "select Price, Size from trades where Date=2016.06.26",
        ]);
    }

    #[test]
    fn filters_and_membership_agree() {
        assert_agree(&[
            "select Price from trades where Symbol in `GOOG`MSFT",
            "select Price from trades where Size>15, Price<100",
            "select from trades where Price within 50 101",
        ]);
    }

    #[test]
    fn aggregations_agree() {
        assert_agree(&[
            "select mx: max Price, mn: min Price, s: sum Size from trades",
            "exec Price from trades",
        ]);
    }

    #[test]
    fn group_by_agrees() {
        assert_agree(&[
            "select mx: max Price by Symbol from trades",
            "select n: count i by Date from trades",
        ]);
    }

    #[test]
    fn update_and_delete_agree() {
        assert_agree(&[
            "update Notional: Price*Size from trades",
            "delete from trades where Symbol=`IBM",
        ]);
    }

    #[test]
    fn variables_and_functions_agree() {
        assert_agree(&[
            "SYMS: `GOOG`IBM; select Price from trades where Symbol in SYMS",
            concat!(
                "f: {[s] dt: select Price from trades where Symbol=s; :select max Price from dt}; ",
                "f[`GOOG]"
            ),
        ]);
    }

    #[test]
    fn sorting_agrees() {
        assert_agree(&["`Price xdesc trades", "`Symbol`Time xasc trades"]);
    }

    #[test]
    fn mismatch_detection_works() {
        // Deliberately diverge the reference from the session to prove
        // the driver can see a difference.
        let arms = [Arm::Qengine, Arm::Session(SessionConfig::default())];
        let two = Table::new(vec!["x".into()], vec![Value::Longs(vec![2])]).unwrap();
        let mut m = Matrix::new(&arms, Rule::Reference, 1);
        let mut live = m.build(&[("t".into(), two)]).unwrap();
        let Exec::Qengine(reference) = &mut live[0].exec else { unreachable!() };
        let one = Table::new(vec!["x".into()], vec![Value::Longs(vec![1])]).unwrap();
        reference.define_table("t", one);
        assert!(m.program(&mut live, 0, &["exec x from t"], None));
        let [d] = &m.report.divergences[..] else { panic!("{:?}", m.report) };
        assert!(matches!(d.outcomes, [Outcome::Value(_), Outcome::Value(_)]), "{d}");
        assert_eq!(d.arms, ["qengine", "session"]);
    }

    #[test]
    fn clean_program_reports_no_divergence() {
        let report = Matrix::new(&tri(), Rule::Reference, 1).slice([(
            t(),
            program(&["select from t", "select s: sum V by S from t", "exec V from t where S=`a"]),
        )]);
        report.assert_clean(3 * 3);
        assert_eq!(report.outcomes.len(), 3);
        assert!(report.outcomes.iter().all(|o| o.len() == 3));
    }

    #[test]
    fn warm_pass_hits_the_translation_cache() {
        let arms = tri();
        let mut m = Matrix::new(&arms, Rule::Reference, 1);
        let mut live = m.build(&t()).unwrap();
        assert!(!m.program(&mut live, 0, &["select from t"], None));
        let Exec::Session(warm) = &live[2].exec else { unreachable!() };
        assert!(warm.translation_cache_stats().hits > 0, "{:?}", warm.translation_cache_stats());
    }

    #[test]
    fn all_divergent_statements_are_reported_not_just_the_first() {
        // Desync the reference engine from the sessions: statements that
        // read table u diverge, ones that read t agree. Every divergent
        // statement must be present in the report.
        let arms = tri();
        let mut m = Matrix::new(&arms, Rule::Reference, 1);
        let mut live = m.build(&t()).unwrap();
        let Exec::Qengine(reference) = &mut live[0].exec else { unreachable!() };
        let u = Table::new(vec!["x".into()], vec![Value::Longs(vec![42])]).unwrap();
        reference.define_table("u", u);
        let stmts = [
            "exec x from u",     // one-sided: the sessions lack u
            "select from t",     // agrees
            "exec sum x from u", // one-sided again
        ];
        assert!(m.program(&mut live, 0, &stmts, None));
        let pairs: Vec<(usize, &str)> =
            m.report.divergences.iter().map(|d| (d.index, d.arms[1].as_str())).collect();
        assert_eq!(
            pairs,
            [(0, "cold session"), (0, "warm session"), (2, "cold session"), (2, "warm session")]
        );
        assert_eq!(m.report.comparisons, 3 * 3);
    }

    #[test]
    fn both_sides_erroring_counts_as_agreement() {
        Matrix::new(&tri(), Rule::Reference, 1)
            .slice([(t(), program(&["select from ghost"]))])
            .assert_clean(3);
    }

    #[test]
    fn a_dataset_that_fails_to_load_is_a_failure_not_a_skip() {
        let nested =
            Table::new(vec!["x".into()], vec![Value::Mixed(vec![Value::Longs(vec![1, 2])])])
                .unwrap();
        let report = Matrix::new(&tri(), Rule::Reference, 1)
            .slice([(vec![("n".to_string(), nested)], program(&["select from n"]))]);
        let [failure] = &report.failures[..] else { panic!("{report:?}") };
        assert!(failure.starts_with("program 0: loading n"), "{failure}");
        assert_eq!(report.comparisons, 0);
    }
}
