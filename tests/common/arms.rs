//! The arms of the differential matrix and the one driver over them.
//!
//! An *arm* is one way of executing a Q statement: the reference
//! interpreter, an in-process session under some configuration, a
//! session over the PG v3 wire, a parked QIPC endpoint, a shard router.
//! A row of the matrix is (corpus, arms, rule): [`Matrix`] runs every
//! statement on every arm, compares every pair of arms under the row's
//! [`Rule`], reports every divergence rather than the first, and counts
//! the (statement, pair of arms) comparisons it made so each row can pin
//! its breadth: a row of `n` arms makes `n(n-1)/2` per statement.

use hyperq::endpoint::{BackendFactory, EndpointConfig, QipcClient, QipcEndpoint};
use hyperq::gateway::{Credentials, PgWireBackend};
use hyperq::shard::{ShardCluster, ShardOpts};
use hyperq::side_by_side::{agrees, is_assignment, Outcome};
use hyperq::{loader, share, HyperQSession, SessionConfig, ShardRouter};
use pgdb::server::{PgServer, ServerConfig};
use qengine::Interp;
use qlang::error::QErrorKind;
use qlang::value::Table;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Duration;

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
    /// Values through `agrees`; any two errors agree (qengine's error
    /// text is not Hyper-Q's); successful assignments are normalized.
    Reference,
    /// Values through `agrees`; error text verbatim; assignments
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

/// Deterministic shard knobs: tests must not depend on ambient
/// `HQ_SHARD_*`.
pub fn shard_opts() -> ShardOpts {
    ShardOpts { broadcast_threshold: 64, float_agg: false, stats: true, keys: HashMap::new() }
}

/// A router over a fresh in-process cluster of `shards` shards.
pub fn router(shards: usize) -> ShardRouter {
    ShardCluster::in_process_with(shards, shard_opts()).router().unwrap()
}

/// A session over a fresh `shards`-shard router, loaded with `tables`.
pub fn router_session(tables: &[(String, Table)], shards: usize) -> HyperQSession {
    let mut s = HyperQSession::new(share(router(shards)), SessionConfig::default());
    load(&mut s, tables);
    s
}

/// An in-process session under `config`, over its own db loaded with
/// `tables`.
pub fn session(tables: &[(String, Table)], config: SessionConfig) -> HyperQSession {
    HyperQSession::with_direct_config(&loaded(tables), config)
}

/// A fresh in-process db loaded with `tables`.
fn loaded(tables: &[(String, Table)]) -> pgdb::Db {
    let db = pgdb::Db::new();
    let mut s = HyperQSession::with_direct(&db);
    load(&mut s, tables);
    db
}

/// A fresh in-process db holding a copy of each of `template`'s stored
/// tables: what loading through SQL stored, without loading again.
fn copy(template: &pgdb::Db) -> pgdb::Db {
    let db = pgdb::Db::new();
    for name in template.table_names() {
        let stored = template.get_table_snapshot(&name).unwrap();
        db.put_table_batch(&name, (*stored.batch).clone());
    }
    db
}

fn load(s: &mut HyperQSession, tables: &[(String, Table)]) {
    for (name, table) in tables {
        loader::load_table(s, name, table).unwrap();
    }
}

/// A `PgServer` over `db`; dropping the handle leaves it serving.
fn pg_server(db: pgdb::Db) -> String {
    PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap().addr.to_string()
}

fn gateway(addr: &str) -> Result<hyperq::SharedBackend, hyperq::WireError> {
    let creds =
        Credentials { user: "differ".into(), password: String::new(), database: "hist".into() };
    PgWireBackend::connect(addr, &creds).map(share)
}

/// A built arm, ready to execute.
enum Live {
    Qengine(Interp),
    Session(Box<HyperQSession>),
    Client(QipcClient),
}

impl Arm {
    fn name(&self) -> String {
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
    fn build(&self, tables: &[(String, Table)], template: &OnceLock<pgdb::Db>) -> Live {
        let endpoint = EndpointConfig { net_workers: NET_WORKERS, ..EndpointConfig::default() };
        let client = |ep: QipcEndpoint| {
            Live::Client(QipcClient::connect(&ep.addr.to_string(), "differ", "").unwrap())
        };
        let db = || copy(template.get_or_init(|| loaded(tables)));
        match self {
            Arm::Qengine => {
                Live::Qengine(Interp::with_tables(tables.iter().map(|(n, t)| (n.as_str(), t))))
            }
            Arm::Session(config) | Arm::Warm(config) => {
                Live::Session(Box::new(HyperQSession::with_direct_config(&db(), config.clone())))
            }
            Arm::Wire => Live::Session(Box::new(HyperQSession::new(
                gateway(&pg_server(db())).unwrap(),
                SessionConfig::default(),
            ))),
            Arm::Parked => client(QipcEndpoint::start(db(), "127.0.0.1:0", endpoint).unwrap()),
            Arm::ParkedWire => {
                let addr = pg_server(db());
                let factory: BackendFactory = std::sync::Arc::new(move || gateway(&addr));
                client(QipcEndpoint::start_with("127.0.0.1:0", endpoint, factory).unwrap())
            }
            Arm::Router(shards) => Live::Session(Box::new(router_session(tables, *shards))),
        }
    }
}

impl Live {
    /// `q`'s outcome as the application sees it. An endpoint sends
    /// `e.to_string()` in its error frame and the client rebuilds an
    /// `Other` error from that text, so the text is the session's; any
    /// other client-side error keeps its kind and cannot pass for one.
    fn run(&mut self, q: &str) -> Outcome {
        match self {
            Live::Qengine(interp) => Outcome::from(interp.run(q)),
            Live::Session(s) => Outcome::from(s.execute(q)),
            Live::Client(c) => match c.query(q) {
                Ok(v) => Outcome::Value(v),
                Err(e) if e.kind == QErrorKind::Other && e.offset.is_none() => {
                    Outcome::Error(e.message)
                }
                Err(e) => Outcome::Error(format!("{e:?}")),
            },
        }
    }
}

/// One divergent (statement, arm) pair.
pub struct Divergence {
    /// The program (or corpus group) the statement belongs to.
    pub program: usize,
    /// The statement's index within it.
    pub index: usize,
    /// What went wrong, for the failure report.
    pub text: String,
}

/// What a row found.
#[derive(Default)]
pub struct Report {
    /// (statement, pair of arms) comparisons made, passes included.
    pub comparisons: usize,
    /// Every divergence, in execution order.
    pub divergences: Vec<Divergence>,
}

impl Report {
    /// Fail on any divergence, then on a comparison count other than
    /// `comparisons`.
    pub fn assert_clean(&self, comparisons: usize) {
        let lines: Vec<&str> = self.divergences.iter().map(|d| d.text.as_str()).collect();
        assert!(
            lines.is_empty(),
            "{} divergence(s) in {} comparisons:\n{}",
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
    pub fn new(arms: &'a [Arm], rule: Rule, passes: usize) -> Self {
        assert!(arms.len() >= 2, "a row compares at least two arms");
        Matrix { arms, rule, passes, report: Report::default() }
    }

    /// Every arm over `tables`, built side by side: loading is most of
    /// a fuzz row's set-up.
    fn build(&self, tables: &[(String, Table)]) -> Vec<Live> {
        let template = OnceLock::new();
        std::thread::scope(|s| {
            let arms: Vec<_> =
                self.arms.iter().map(|arm| s.spawn(|| arm.build(tables, &template))).collect();
            arms.into_iter().map(|h| h.join().unwrap()).collect()
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
        let mut live = self.build(tables);
        for (group, (stmts, baseline)) in corpus.iter().enumerate() {
            self.program(&mut live, group, stmts, Some(*baseline));
        }
        self.report
    }

    /// Every program of every (tables, programs) chunk, each chunk on
    /// fresh arms. A divergent program may leave the arms in different
    /// states, so the arms are rebuilt after one.
    pub fn slice(
        mut self,
        chunks: impl IntoIterator<Item = (Vec<(String, Table)>, Vec<Vec<String>>)>,
    ) -> Report {
        let mut index = 0;
        for (tables, programs) in chunks {
            let mut live = self.build(&tables);
            for program in &programs {
                if self.program(&mut live, index, program, None) {
                    live = self.build(&tables);
                }
                index += 1;
            }
        }
        self.report
    }

    /// Run one program on every arm and compare every pair of arms: two
    /// arms that each agree with the baseline need not agree with each
    /// other where `agrees` falls back to Q equality (a long column and
    /// a float column of the same numbers). True when some pair diverged.
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
        let parked = live.iter().any(|l| matches!(l, Live::Client(_)));
        let before = self.report.divergences.len();
        for pass in 0..self.passes {
            for (index, q) in stmts.iter().map(AsRef::as_ref).enumerate() {
                if parked {
                    std::thread::sleep(PARK);
                }
                let assignment = self.rule != Rule::Bits && is_assignment(q);
                let outcomes: Vec<Outcome> =
                    live.iter_mut().map(|l| l.run(q).normalized(assignment)).collect();
                let base = &outcomes[0];
                let at = format!("program {program} stmt {index} pass {pass} `{q}`");
                let line = |arm: &Arm, o: &Outcome| format!("\n  {:<16} {}", arm.name(), brief(o));
                let mut diverge = |text: String| {
                    self.report.divergences.push(Divergence { program, index, text });
                };
                let succeeded = base.value().is_some();
                if baseline.is_some_and(|b| succeeded != (b == Baseline::Succeeds)) {
                    let want = if succeeded { "fail" } else { "succeed" };
                    diverge(format!("{at}: must {want} on{}", line(&self.arms[0], base)));
                }
                for (j, (arm, o)) in self.arms.iter().zip(&outcomes).enumerate() {
                    for (earlier, e) in self.arms.iter().zip(&outcomes).take(j) {
                        self.report.comparisons += 1;
                        if !self.rule.agree(e, o) {
                            diverge(format!("{at}{}{}", line(earlier, e), line(arm, o)));
                        }
                    }
                }
            }
        }
        self.report.divergences.len() > before
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
