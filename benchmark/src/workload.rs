//! The four workloads: topology, data load, statement plan and the
//! set-up oracle. Set-up is untimed by the measured window and reported
//! on its own as `setup_s`.

use crate::client::Client;
use crate::gen::{self, Class, Deck, Rng, Sizes, Stmt};
use crate::oracle::{agree, expect_of, Expect};
use hyperq::endpoint::{BackendFactory, EndpointConfig, QipcEndpoint};
use hyperq::gateway::{Credentials, PgWireBackend};
use hyperq::shard::{Mode, ShardCluster, ShardOpts};
use hyperq::{loader, share, Backend, SessionConfig, SharedBackend};
use netpool::IoModel;
use pgdb::server::{PgServer, ServerConfig};
use pgdb::{Db, DurabilityOptions, FsyncPolicy};
use qengine::Interp;
use qlang::value::{Table, Value};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dispatch threads of each server: the box has two cores.
pub const NET_WORKERS: usize = 2;
/// Executor threads per backend session, so that two busy clients are
/// about two busy cores.
pub const EXEC_THREADS: usize = 1;
/// Shards of `shard_scatter`.
pub const SHARDS: usize = 2;
/// Group-commit window of `ingest_tail`.
pub const FSYNC_WINDOW: Duration = Duration::from_millis(5);
/// WAL appends between checkpoints on `ingest_tail`: with four batches a
/// second, one checkpoint every 2.5 s of the paced phase.
pub const CHECKPOINT_EVERY: u64 = 10;
/// Paced batches per second on `ingest_tail`.
pub const PACED_BATCHES_PER_S: u64 = 4;
/// A paced batch acknowledged later than this after its due time counts
/// as failed.
pub const LATE_AFTER: Duration = Duration::from_secs(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TaqWire,
    WideAdhoc,
    ShardScatter,
    IngestTail,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TaqWire,
        Workload::WideAdhoc,
        Workload::ShardScatter,
        Workload::IngestTail,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TaqWire => "taq_wire",
            Workload::WideAdhoc => "wide_adhoc",
            Workload::ShardScatter => "shard_scatter",
            Workload::IngestTail => "ingest_tail",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Relative draw weights of point : agg : window : asof.
    pub fn class_weights(self) -> [usize; 4] {
        match self {
            Workload::TaqWire => [4, 3, 2, 1],
            // One reader: the rarer classes need their share of its samples.
            Workload::IngestTail => [3, 3, 2, 2],
            Workload::WideAdhoc => [1, 7, 1, 1],
            Workload::ShardScatter => [3, 4, 2, 1],
        }
    }

    /// Closed-loop Q clients. `ingest_tail` gives its second client
    /// thread to the paced writer.
    pub fn readers(self) -> usize {
        match self {
            Workload::IngestTail => 1,
            _ => 2,
        }
    }
}

/// How a reply is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Row count and checksum fixed by the set-up oracle.
    Exact(Expect),
    /// Row count the generator worked out from its own copy of the rows.
    Rows(u64),
}

/// One statement to send.
#[derive(Debug, Clone)]
pub struct Issue {
    pub class: Class,
    pub text: String,
    pub check: Check,
}

/// Where a workload's statements come from.
pub enum Plan {
    /// Fixed pool of repeating texts (`taq_wire`, `shard_scatter`).
    Pool {
        stmts: Vec<Stmt>,
        expect: Vec<Expect>,
        /// Indices into `stmts`, by class.
        by_class: [Vec<usize>; 4],
        weights: [usize; 4],
    },
    /// Ad-hoc templates whose literals never repeat (`wide_adhoc`).
    Wide {
        thresholds: Vec<f64>,
        expect: Vec<Expect>,
    },
    /// Tail statements following the acknowledged high-water mark
    /// (`ingest_tail`).
    Tail(Box<Tail>),
}

/// The generator's own copy of the tick stream, to place tail literals
/// and to count the rows a tail statement must return.
pub struct Tail {
    symbols: Vec<String>,
    sizes: Vec<i64>,
    dates: Vec<i32>,
    times: Vec<i32>,
    quote_dates: Vec<i32>,
    quote_times: Vec<i32>,
    /// Rows acknowledged so far; the paced writer advances it.
    pub acked: AtomicU64,
}

/// One client's hand: the decks its statements are dealt from. Classes
/// come up in exactly the workload's weights, and within a class every
/// text, template or literal choice equally often.
pub struct Dealer {
    rng: Rng,
    classes: Deck,
    /// What a class's next statement is, by class: a pool member, an
    /// analytical template, a tail variant or symbol.
    picks: [Deck; 4],
}

impl Dealer {
    fn new(seed: u64, client: usize, weights: [usize; 4], picks: [usize; 4]) -> Dealer {
        Dealer {
            rng: Rng::new(seed ^ (0x636c_6965_6e74 + client as u64)),
            classes: Deck::weighted(&weights),
            picks: picks.map(Deck::of),
        }
    }

    /// The next statement's class and its pick within the class.
    fn deal(&mut self) -> (Class, usize) {
        let class = Class::ALL[self.classes.deal(&mut self.rng)];
        (class, self.picks[class.index()].deal(&mut self.rng))
    }
}

impl Plan {
    /// The decks of `client` for this plan.
    pub fn dealer(&self, seed: u64, client: usize) -> Dealer {
        match self {
            Plan::Pool {
                by_class, weights, ..
            } => Dealer::new(seed, client, *weights, by_class.each_ref().map(Vec::len)),
            Plan::Wide { .. } => Dealer::new(
                seed,
                client,
                Workload::WideAdhoc.class_weights(),
                [1, gen::WIDE_AGG_TEMPLATES, 1, 1],
            ),
            Plan::Tail(_) => Tail::dealer(seed, client),
        }
    }

    /// The next statement of `client`, its `k`-th, dealt from `dealer`.
    /// `Tail` also reads the acknowledged row count.
    pub fn issue(&self, dealer: &mut Dealer, client: usize, k: u64) -> Issue {
        match self {
            Plan::Pool {
                stmts,
                expect,
                by_class,
                ..
            } => {
                let (class, pick) = dealer.deal();
                let i = by_class[class.index()][pick];
                Issue {
                    class,
                    text: stmts[i].text.clone(),
                    check: Check::Exact(expect[i]),
                }
            }
            Plan::Wide { thresholds, expect } => {
                let (class, pick) = dealer.deal();
                let template = gen::wide_template(class, pick);
                // Client-interleaved nudge counts: no two issues of a
                // run share a literal.
                let nudge = 1 + k * 2 + client as u64;
                assert!(
                    nudge <= gen::WIDE_NUDGE_MAX,
                    "wide_adhoc ran out of vouched literals"
                );
                let t = thresholds[template] + nudge as f64 * gen::WIDE_NUDGE;
                Issue {
                    class,
                    text: gen::wide_text(template, t),
                    check: Check::Exact(expect[template]),
                }
            }
            Plan::Tail(tail) => tail.issue(dealer),
        }
    }
}

impl Tail {
    fn new(ticks: &Table, quotes: &Table, acked: u64) -> Tail {
        let col = |t: &Table, n: &str| t.column(n).cloned().expect("TAQ column present");
        let (
            Value::Symbols(symbols),
            Value::Longs(sizes),
            Value::Dates(dates),
            Value::Times(times),
        ) = (
            col(ticks, "Symbol"),
            col(ticks, "Size"),
            col(ticks, "Date"),
            col(ticks, "Time"),
        )
        else {
            panic!("TAQ generator changed its column types")
        };
        let (Value::Dates(quote_dates), Value::Times(quote_times)) =
            (col(quotes, "Date"), col(quotes, "Time"))
        else {
            panic!("TAQ generator changed its column types")
        };
        Tail {
            symbols,
            sizes,
            dates,
            times,
            quote_dates,
            quote_times,
            acked: AtomicU64::new(acked),
        }
    }

    /// `agg` deals one of three select lists, `window` one of the symbols.
    fn dealer(seed: u64, client: usize) -> Dealer {
        Dealer::new(
            seed,
            client,
            Workload::IngestTail.class_weights(),
            [1, 3, gen::TAQ_SYMBOLS, 1],
        )
    }

    /// A statement over the newest acknowledged rows `[hi-back, hi)`.
    /// Both ends are literals below the high-water mark, so the rows it
    /// reads are already immutable and the generator can count them.
    fn issue(&self, dealer: &mut Dealer) -> Issue {
        let hi = self.acked.load(Ordering::Acquire) as usize;
        let (class, pick) = dealer.deal();
        let range = |back: usize| (hi - back.min(hi), hi);
        let count = |(lo, hi): (usize, usize), keep: &dyn Fn(usize) -> bool| {
            (lo..hi).filter(|&i| keep(i)).count() as u64
        };
        let (text, rows) = match class {
            Class::Point => {
                let r = range(2000);
                (
                    format!(
                        "select Time, Symbol, Price, Size from trades where i>={}, i<{}, Size>5000",
                        r.0, r.1
                    ),
                    count(r, &|i| self.sizes[i] > 5000),
                )
            }
            Class::Agg => {
                let r = range(20_000);
                let distinct = {
                    let mut seen: Vec<&str> = Vec::new();
                    for s in &self.symbols[r.0..r.1] {
                        if !seen.contains(&s.as_str()) {
                            seen.push(s);
                        }
                    }
                    seen.len() as u64
                };
                let select = match pick {
                    0 => "px: last Price",
                    1 => "vwap: (sum Price*Size) % sum Size",
                    _ => "n: count i, s: sum Size",
                };
                (
                    format!(
                        "select {select} by Symbol from trades where i>={}, i<{}",
                        r.0, r.1
                    ),
                    distinct,
                )
            }
            Class::Window => {
                let r = range(5000);
                let sym = hyperq_workload::taq::SYMBOLS[pick];
                (
                    format!(
                        "select Time, Price, d: deltas Price from trades \
                         where i>={}, i<{}, Symbol=`{sym}",
                        r.0, r.1
                    ),
                    count(r, &|i| self.symbols[i] == sym),
                )
            }
            Class::Asof => {
                // Newest trades of one day against the quotes of the
                // same stretch of that day.
                let r = range(gen::TAIL_ASOF_ROWS);
                let day = self.dates[r.1 - 1];
                let lo = (r.0..r.1)
                    .find(|&i| self.dates[i] == day)
                    .expect("newest row has its day");
                let (t0, t1) = (self.times[lo], self.times[r.1 - 1]);
                let date = gen::q_date((day - self.dates[0]) as usize);
                let quotes = (0..self.quote_times.len())
                    .filter(|&i| {
                        self.quote_dates[i] == day && (t0..=t1).contains(&self.quote_times[i])
                    })
                    .count();
                assert!(quotes > 0, "tail as-of slice has no quotes");
                (
                    format!(
                        "aj[`Symbol`Time; \
                         select Symbol, Time, Price from trades where i>={lo}, i<{}; \
                         select Symbol, Time, Bid, Ask from quotes \
                         where Date={date}, Time within ({};{})]",
                        r.1,
                        gen::q_time(t0 as i64),
                        gen::q_time(t1 as i64)
                    ),
                    (r.1 - lo) as u64,
                )
            }
        };
        Issue {
            class,
            text,
            check: Check::Rows(rows),
        }
    }
}

/// The durable write side of `ingest_tail`.
pub struct Ingest {
    pub pg_addr: String,
    pub data_dir: PathBuf,
    /// Every INSERT text of the run, burst first, in arrival order.
    pub batches: Vec<String>,
    /// Batches the burst loaded during set-up.
    pub burst_batches: usize,
    /// Wall time of the burst.
    pub burst_s: f64,
    /// The tick rows as generated, for the recovery check.
    pub ticks: Table,
}

impl Drop for Ingest {
    /// The data directory is scratch: nothing of a run stays behind.
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

/// What the trace needs to open a backend like the endpoint's.
pub enum BackendKind {
    Wire { db: Db, pg_addr: String },
    Direct { db: Db },
    Shard { cluster: Arc<ShardCluster> },
}

impl BackendKind {
    /// A backend connection like the ones the endpoint's sessions hold.
    pub fn open(&self) -> SharedBackend {
        match self {
            BackendKind::Wire { pg_addr, .. } => share(
                PgWireBackend::connect(pg_addr, &credentials()).expect("connect to own PG server"),
            ),
            BackendKind::Direct { db } => share(hyperq::DirectBackend::new(db)),
            BackendKind::Shard { cluster } => share(cluster.router().expect("in-process router")),
        }
    }
}

pub struct Setup {
    pub workload: Workload,
    pub seed: u64,
    pub qipc_addr: String,
    pub backend: BackendKind,
    pub plan: Plan,
    pub ingest: Option<Ingest>,
    /// Statements the set-up oracle compared.
    pub oracle_checked: usize,
}

pub fn credentials() -> Credentials {
    Credentials {
        user: "hqbench".into(),
        password: String::new(),
        database: "hq".into(),
    }
}

pub fn session_config() -> SessionConfig {
    SessionConfig {
        exec_threads: EXEC_THREADS,
        ..SessionConfig::default()
    }
}

fn endpoint_config() -> EndpointConfig {
    EndpointConfig {
        session: session_config(),
        io_model: IoModel::Multiplexed,
        net_workers: NET_WORKERS,
        ..EndpointConfig::default()
    }
}

fn start_pg(db: &Db) -> String {
    let server = PgServer::start(
        db.clone(),
        "127.0.0.1:0",
        ServerConfig {
            io_model: IoModel::Multiplexed,
            net_workers: NET_WORKERS,
            ..ServerConfig::default()
        },
    )
    .expect("start PG server");
    let addr = server.addr.to_string();
    server.detach();
    addr
}

fn start_qipc(factory: BackendFactory) -> String {
    let ep = QipcEndpoint::start_with("127.0.0.1:0", endpoint_config(), factory)
        .expect("start QIPC endpoint");
    let addr = ep.addr.to_string();
    ep.detach();
    addr
}

/// Sessions over the in-process engine, one backend session each.
fn direct_factory(db: &Db) -> BackendFactory {
    let db = db.clone();
    Arc::new(move || Ok(share(hyperq::DirectBackend::new(&db))))
}

fn reference(tables: &[(String, Table)]) -> Interp {
    let mut interp = Interp::new();
    for (name, t) in tables {
        interp.define_table(name, t.clone());
    }
    interp
}

/// Run each text on the reference and through the endpoint; all must
/// agree. The two sides run side by side, one thread each.
fn oracle_pass(
    interp: &mut Interp,
    qipc_addr: &str,
    texts: &[String],
) -> Result<Vec<Expect>, String> {
    let mut client = Client::connect(qipc_addr, "oracle")?;
    let (want, got) = std::thread::scope(|s| {
        let reference = s.spawn(|| texts.iter().map(|t| interp.run(t)).collect::<Vec<_>>());
        let got: Vec<_> = texts.iter().map(|t| client.query(t)).collect();
        (reference.join().expect("reference thread"), got)
    });
    texts
        .iter()
        .zip(want.into_iter().zip(got))
        .map(|(t, (w, g))| agree(t, w, g))
        .collect()
}

/// Where this process may write: under the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Build a workload: data, servers, statement plan, oracle.
/// `paced_batches` is how many batches `ingest_tail` may send after its
/// burst.
pub fn setup(
    workload: Workload,
    seed: u64,
    sizes: Sizes,
    paced_batches: usize,
) -> Result<Setup, String> {
    match workload {
        Workload::TaqWire => setup_taq_wire(seed, sizes),
        Workload::WideAdhoc => setup_wide_adhoc(seed, sizes),
        Workload::ShardScatter => setup_shard_scatter(seed, sizes),
        Workload::IngestTail => setup_ingest_tail(seed, sizes, paced_batches),
    }
}

fn pool_plan(
    workload: Workload,
    stmts: Vec<Stmt>,
    interp: &mut Interp,
    qipc_addr: &str,
) -> Result<(Plan, usize), String> {
    let texts: Vec<String> = stmts.iter().map(|s| s.text.clone()).collect();
    let expect = oracle_pass(interp, qipc_addr, &texts)?;
    let n = stmts.len();
    let by_class = Class::ALL.map(|c| (0..n).filter(|&i| stmts[i].class == c).collect());
    Ok((
        Plan::Pool {
            stmts,
            expect,
            by_class,
            weights: workload.class_weights(),
        },
        n,
    ))
}

fn setup_taq_wire(seed: u64, sizes: Sizes) -> Result<Setup, String> {
    let tables = gen::taq_tables(sizes.taq_rows, seed);
    let db = Db::new();
    for (name, t) in &tables {
        loader::load_table_direct(&db, name, t).map_err(|e| e.to_string())?;
    }
    let pg_addr = start_pg(&db);
    let factory: BackendFactory = {
        let pg_addr = pg_addr.clone();
        Arc::new(move || PgWireBackend::connect(&pg_addr, &credentials()).map(share))
    };
    let qipc_addr = start_qipc(factory);
    let stmts = gen::taq_pool(seed, &tables[0].1, gen::TAQ_POOL, false);
    let (plan, oracle_checked) = pool_plan(
        Workload::TaqWire,
        stmts,
        &mut reference(&tables),
        &qipc_addr,
    )?;
    Ok(Setup {
        workload: Workload::TaqWire,
        seed,
        qipc_addr,
        backend: BackendKind::Wire { db, pg_addr },
        plan,
        ingest: None,
        oracle_checked,
    })
}

fn setup_wide_adhoc(seed: u64, sizes: Sizes) -> Result<Setup, String> {
    let tables = gen::wide_adhoc_tables(sizes.wide_rows, seed);
    let db = Db::new();
    for (name, t) in &tables {
        loader::load_table_direct(&db, name, t).map_err(|e| e.to_string())?;
    }
    let qipc_addr = start_qipc(direct_factory(&db));
    // One oracle entry per template. It vouches for every literal in
    // [t, t + NUDGE * NUDGE_MAX]: Hyper-Q's reply at both ends of that
    // stretch must be the same, so no row value lies inside it.
    let mut interp = reference(&tables);
    let mut client = Client::connect(&qipc_addr, "oracle")?;
    let span = gen::WIDE_NUDGE * gen::WIDE_NUDGE_MAX as f64;
    let mut expect = Vec::with_capacity(gen::WIDE_TEMPLATES);
    let thresholds = gen::wide_thresholds(&tables);
    for (template, &t) in thresholds.iter().enumerate() {
        let lo = gen::wide_text(template, t);
        let at_lo = agree(&lo, interp.run(&lo), client.query(&lo))?;
        let hi = gen::wide_text(template, t + span);
        let at_hi = client
            .query(&hi)
            .map(|v| expect_of(&v))
            .map_err(|e| format!("oracle: {e}: {hi}"))?;
        if at_lo != at_hi {
            return Err(format!(
                "wide_adhoc: replies at {t} and {span} above it differ for template {template}"
            ));
        }
        expect.push(at_lo);
    }
    Ok(Setup {
        workload: Workload::WideAdhoc,
        seed,
        qipc_addr,
        backend: BackendKind::Direct { db },
        plan: Plan::Wide { thresholds, expect },
        ingest: None,
        oracle_checked: gen::WIDE_TEMPLATES,
    })
}

pub fn shard_opts() -> ShardOpts {
    ShardOpts {
        broadcast_threshold: 64,
        // Float max/min re-fold exactly; the pool has no float sums.
        float_agg: true,
        stats: true,
        keys: HashMap::from([
            ("trades".to_string(), "Symbol".to_string()),
            ("quotes".to_string(), "Symbol".to_string()),
        ]),
    }
}

fn setup_shard_scatter(seed: u64, sizes: Sizes) -> Result<Setup, String> {
    let mut tables = gen::taq_tables(sizes.shard_rows, seed);
    tables.push(("refdata".to_string(), gen::refdata()));
    let cluster = ShardCluster::in_process_with(SHARDS, shard_opts());
    // The cluster's bulk path takes columnar batches; a scratch engine
    // converts the Q tables.
    let scratch = Db::new();
    for (name, t) in &tables {
        loader::load_table_direct(&scratch, name, t).map_err(|e| e.to_string())?;
        let batch = scratch.get_table_snapshot(name).expect("just loaded").batch;
        cluster.put_table_batch(name, Arc::unwrap_or_clone(batch));
    }
    drop(scratch);
    for (name, mode) in [
        ("trades", Mode::Partitioned),
        ("quotes", Mode::Partitioned),
        ("refdata", Mode::Broadcast),
    ] {
        let got = cluster.table_meta(name).map(|m| m.mode);
        if got != Some(mode) {
            return Err(format!(
                "shard_scatter: {name} placed {got:?}, wanted {mode:?}"
            ));
        }
    }
    let factory: BackendFactory = {
        let cluster = Arc::clone(&cluster);
        Arc::new(move || cluster.router().map(share))
    };
    let qipc_addr = start_qipc(factory);
    let stmts = gen::taq_pool(seed, &tables[0].1, gen::TAQ_POOL, true);
    let (plan, oracle_checked) = pool_plan(
        Workload::ShardScatter,
        stmts,
        &mut reference(&tables),
        &qipc_addr,
    )?;
    Ok(Setup {
        workload: Workload::ShardScatter,
        seed,
        qipc_addr,
        backend: BackendKind::Shard { cluster },
        plan,
        ingest: None,
        oracle_checked,
    })
}

fn setup_ingest_tail(seed: u64, sizes: Sizes, paced_batches: usize) -> Result<Setup, String> {
    let tick_rows = sizes.burst_rows + paced_batches * gen::BATCH_ROWS;
    let ticks = gen::tick_table(tick_rows, seed);
    let quotes = gen::tick_quotes(tick_rows, seed);
    let batches =
        loader::insert_statements("trades", &ticks, gen::BATCH_ROWS).map_err(|e| e.to_string())?;
    // Unique per set-up: tests set up more than once in a process.
    static SETUPS: AtomicU64 = AtomicU64::new(0);
    let data_dir = out_dir().join(format!(
        "ingest-{}-{}",
        std::process::id(),
        SETUPS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&data_dir);
    let db = Db::open(&DurabilityOptions {
        data_dir: data_dir.clone(),
        fsync: FsyncPolicy::Group(FSYNC_WINDOW),
        checkpoint_every: CHECKPOINT_EVERY,
    })
    .map_err(|e| format!("open durable engine: {e}"))?;
    loader::load_table_direct(&db, "quotes", &quotes).map_err(|e| e.to_string())?;
    let pg_addr = start_pg(&db);
    let qipc_addr = start_qipc(direct_factory(&db));

    // The burst: fixed work, closed loop, through the durable wire path.
    let mut writer =
        PgWireBackend::connect(&pg_addr, &credentials()).map_err(|e| format!("writer: {e}"))?;
    writer
        .execute_sql(&loader::create_table_ddl("trades", &ticks))
        .map_err(|e| format!("create trades: {e}"))?;
    let burst_batches = sizes.burst_rows / gen::BATCH_ROWS;
    let t0 = Instant::now();
    for sql in &batches[..burst_batches] {
        writer
            .execute_sql(sql)
            .map_err(|e| format!("burst insert: {e}"))?;
    }
    let burst_s = t0.elapsed().as_secs_f64();

    let tail = Tail::new(&ticks, &quotes, (burst_batches * gen::BATCH_ROWS) as u64);
    // Oracle: the tail statements as they stand after the burst, against
    // a reference holding exactly the burst rows.
    let burst_rows: Vec<usize> = (0..burst_batches * gen::BATCH_ROWS).collect();
    let mut interp = reference(&[
        ("trades".to_string(), ticks.take_rows(&burst_rows)),
        ("quotes".to_string(), quotes),
    ]);
    let mut dealer = Tail::dealer(seed, 0);
    let texts: Vec<String> = (0..24).map(|_| tail.issue(&mut dealer).text).collect();
    let oracle_checked = texts.len();
    oracle_pass(&mut interp, &qipc_addr, &texts)?;

    Ok(Setup {
        workload: Workload::IngestTail,
        seed,
        qipc_addr,
        backend: BackendKind::Direct { db },
        plan: Plan::Tail(Box::new(tail)),
        ingest: Some(Ingest {
            pg_addr,
            data_dir,
            batches,
            burst_batches,
            burst_s,
            ticks,
        }),
        oracle_checked,
    })
}
