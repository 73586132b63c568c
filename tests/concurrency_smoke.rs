//! Concurrency smoke test: 512 live wire sessions — 256 QIPC Q clients
//! and 256 PG v3 clients — multiplexed over two readiness-polled
//! servers backed by one 4-shard scatter-gather cluster, with a worker
//! pool an order of magnitude smaller than the session count.
//!
//! Every client owns a real TCP connection for the whole test. The QIPC
//! half drives translated sessions against the shard cluster (mixed
//! reads, per-session variables, by-aggregations); the PG half drives
//! the pgdb server (same-named per-session temp tables — the strongest
//! isolation probe there is). At a mid-test rendezvous, with all 512
//! sessions connected and idle, the net gauges must show the tentpole
//! property: `net_sessions_active` ≥ 512 while `net_worker_busy` is
//! bounded by the (deliberately small) worker pool — sessions are
//! parked state, not threads. At the same instant the process's own
//! threads — everything but the test's `qipc-*`/`pg-*` clients — must
//! number at most a constant that does not depend on the session
//! count: no connection owns a thread. Afterwards the process-global
//! registry must show:
//!
//! * every shard's `shard_statements_total{shard="i"}` advanced by the
//!   SAME amount — a fan-out touches all shards exactly once, so any
//!   skew means a lost or duplicated scatter leg;
//! * a zero `shard_degraded_total` delta — concurrency must not
//!   manufacture partial failures;
//! * a `hyperq_query_errors_total` delta of exactly one per QIPC
//!   session (the deliberate isolation probe).

use hyperq::endpoint::{BackendFactory, EndpointConfig, QipcClient, QipcEndpoint};
use hyperq::gateway::{Credentials, PgWireBackend};
use hyperq::shard::{Mode, ShardCluster};
use hyperq::side_by_side::shard_opts;
use hyperq::wire::{RetryPolicy, WireTimeouts};
use hyperq::{backend, loader, Backend, HyperQSession, SessionConfig};
use pgdb::server::{PgServer, ServerConfig};
use pgdb::{Cell, QueryResult};
use qlang::value::{Table, Value};
use std::sync::{Arc, Barrier};

const QIPC_SESSIONS: usize = 256;
const PG_SESSIONS: usize = 256;
const SESSIONS: usize = QIPC_SESSIONS + PG_SESSIONS;
const SHARDS: usize = 4;
/// Dispatch threads per server — two servers, so 2×NET_WORKERS total;
/// the point of the exercise is that this is ≪ SESSIONS.
const NET_WORKERS: usize = 8;

fn trades() -> Table {
    // 256 rows: comfortably past the broadcast threshold (64), so the
    // table hash-partitions and session queries genuinely fan out.
    let n = 256;
    let syms = ["GOOG", "IBM", "AAPL", "MSFT"];
    Table::new(
        vec!["Symbol".into(), "Price".into(), "Size".into()],
        vec![
            Value::Symbols((0..n).map(|i| syms[i % syms.len()].into()).collect()),
            Value::Floats((0..n).map(|i| 40.0 + (i as f64) * 0.25).collect()),
            Value::Longs((0..n).map(|i| 100 + (i as i64 % 7) * 50).collect()),
        ],
    )
    .unwrap()
}

/// Threads this process runs that are not the test's own clients (which
/// `spawn_client` names `qipc-<i>` / `pg-<i>`): the servers' accept,
/// poll and worker threads and the test harness.
fn server_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| !comm.starts_with("qipc-") && !comm.starts_with("pg-"))
        .count()
}

fn spawn_client(
    name: String,
    f: impl FnOnce() + Send + 'static,
) -> std::thread::JoinHandle<()> {
    // 512 concurrent client threads: keep their stacks small.
    std::thread::Builder::new().name(name).stack_size(256 * 1024).spawn(f).unwrap()
}

#[test]
fn five_hundred_twelve_wire_sessions_multiplex_over_a_small_worker_pool() {
    // ---- the shared backend: a 4-shard scatter-gather cluster -------
    let cluster = ShardCluster::in_process_with(SHARDS, shard_opts());
    {
        let mut bootstrap =
            HyperQSession::new(backend::share(cluster.router().unwrap()), SessionConfig::default());
        loader::load_table(&mut bootstrap, "trades", &trades()).unwrap();
    }
    assert_eq!(cluster.table_meta("trades").unwrap().mode, Mode::Partitioned);

    // ---- the two multiplexed servers --------------------------------
    let factory: BackendFactory = {
        let cluster = Arc::clone(&cluster);
        Arc::new(move || Ok(backend::share(cluster.router().unwrap())))
    };
    let qipc = QipcEndpoint::start_with(
        "127.0.0.1:0",
        EndpointConfig {
            max_connections: SESSIONS + 64,
            net_workers: NET_WORKERS,
            ..EndpointConfig::default()
        },
        factory,
    )
    .unwrap();
    let pg_db = pgdb::Db::new();
    let pg = PgServer::start(
        pg_db,
        "127.0.0.1:0",
        ServerConfig {
            max_connections: SESSIONS + 64,
            net_workers: NET_WORKERS,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let pg_addr = pg.addr.to_string();
    let creds =
        Credentials { user: "smoke".into(), password: String::new(), database: "hist".into() };
    let reg = obs::global_registry();
    let pre_boot_active = reg.gauge("net_sessions_active").get();
    {
        // Seed a shared table on the pgdb side.
        let mut boot = PgWireBackend::connect(&pg_addr, &creds).unwrap();
        boot.execute_sql("CREATE TABLE ticks (n bigint)").unwrap();
        let values: Vec<String> = (0..64).map(|i| format!("({i})")).collect();
        boot.execute_sql(&format!("INSERT INTO ticks VALUES {}", values.join(", "))).unwrap();
    }
    // The server notices the bootstrap connection's EOF asynchronously;
    // wait for the session gauge to settle before taking baselines.
    let settle_deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while reg.gauge("net_sessions_active").get() > pre_boot_active {
        assert!(std::time::Instant::now() < settle_deadline, "bootstrap session never closed");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // ---- metric baselines -------------------------------------------
    let shard_counter = |i: usize| format!("shard_statements_total{{shard=\"{i}\"}}");
    let per_shard_before: Vec<u64> =
        (0..SHARDS).map(|i| reg.counter_value(&shard_counter(i))).collect();
    let fanout_before = reg.counter_value("shard_fanout_total");
    let degraded_before = reg.counter_value("shard_degraded_total");
    let errors_before = reg.counter_value("hyperq_query_errors_total");
    let dispatches_before = reg.counter_value("net_dispatches_total");
    let active_before = reg.gauge("net_sessions_active").get();

    // Rendezvous: every client finishes its first statement, then holds
    // its connection open and idle while the main thread samples the
    // net gauges at known steady state.
    let connected = Arc::new(Barrier::new(SESSIONS + 1));
    let sampled = Arc::new(Barrier::new(SESSIONS + 1));

    let mut handles = Vec::with_capacity(SESSIONS);
    for i in 0..QIPC_SESSIONS {
        let addr = qipc.addr.to_string();
        let connected = Arc::clone(&connected);
        let sampled = Arc::clone(&sampled);
        handles.push(spawn_client(format!("qipc-{i}"), move || {
            let mut c = QipcClient::connect(&addr, "trader", "").unwrap();
            // 1: a per-session variable no other session defines.
            c.query(&format!("mine{i}: {i} + 100")).unwrap();
            connected.wait();
            sampled.wait();
            // 2: read it back — must be this session's value.
            let mine = c.query(&format!("mine{i}")).unwrap();
            assert!(
                mine.q_eq(&Value::long(i as i64 + 100)),
                "session {i} read {mine:?} for its own variable"
            );
            // 3: a neighbour's variable must NOT be visible here (the
            // one deliberate error this session contributes).
            let other = (i + 1) % QIPC_SESSIONS;
            assert!(
                c.query(&format!("mine{other}")).is_err(),
                "session {i} can see session {other}'s variable"
            );
            // 4: a shared-table scan parameterized by session. This
            // shape plans as a scatter, so every session contributes
            // exactly one statement to EVERY shard — the basis of the
            // equal-delta assertion below.
            let thresh = 50.0 + (i % 64) as f64 * 0.5;
            let expected = (0..256).filter(|j| 40.0 + (*j as f64) * 0.25 > thresh).count();
            match c.query(&format!("select from trades where Price > {thresh:.1}")).unwrap() {
                Value::Table(t) => assert_eq!(
                    t.rows(),
                    expected,
                    "session {i}: scatter scan row count at threshold {thresh}"
                ),
                other => panic!("session {i}: expected table, got {other:?}"),
            }
            // 5: a by-aggregation all sessions agree on.
            match c.query("select mx: max Price by Symbol from trades").unwrap() {
                Value::KeyedTable(k) => assert_eq!(k.key.rows(), 4),
                other => panic!("session {i}: expected keyed table, got {other:?}"),
            }
        }));
    }
    for i in 0..PG_SESSIONS {
        let addr = pg_addr.clone();
        let creds = creds.clone();
        let connected = Arc::clone(&connected);
        let sampled = Arc::clone(&sampled);
        handles.push(spawn_client(format!("pg-{i}"), move || {
            let mut b = PgWireBackend::connect_with(
                &addr,
                &creds,
                WireTimeouts::default(),
                RetryPolicy::no_retry(),
            )
            .unwrap();
            // 1: every session creates a temp table with the SAME name —
            // only per-session isolation keeps the values apart.
            b.execute_sql(&format!(
                "CREATE TEMPORARY TABLE \"HQ_SMOKE\" AS SELECT CAST({i} AS bigint) AS v"
            ))
            .unwrap();
            connected.wait();
            sampled.wait();
            // 2: the value read back must be this session's.
            match b.execute_sql("SELECT v FROM \"HQ_SMOKE\"").unwrap() {
                QueryResult::Rows(rows) => {
                    assert_eq!(rows.data[0][0], Cell::Int(i as i64), "pg session {i} isolation");
                }
                other => panic!("pg session {i}: expected rows, got {other:?}"),
            }
            // 3: the shared table answers under concurrency.
            match b.execute_sql("SELECT count(*) AS n FROM ticks").unwrap() {
                QueryResult::Rows(rows) => assert_eq!(rows.data[0][0], Cell::Int(64)),
                other => panic!("pg session {i}: expected rows, got {other:?}"),
            }
            // 4: a deliberate SQL error must not poison the connection.
            assert!(b.execute_sql("SELECT * FROM missing_relation").is_err());
            assert!(b.execute_sql("SELECT 1").is_ok());
        }));
    }

    // ---- steady-state sample: sessions are parked state, not threads
    connected.wait();
    // Let the last dispatches re-park (the worker decrements its busy
    // gauge after flushing the response the client just read).
    std::thread::sleep(std::time::Duration::from_millis(300));
    // No thread per connection: per server one poll thread and
    // NET_WORKERS workers, plus a few that do not scale (accept loops,
    // the harness). Thread-per-connection would add one per session.
    let threads = server_threads();
    const MAX_SERVER_THREADS: usize = 2 * (NET_WORKERS + 1) + 8;
    assert!(
        threads <= MAX_SERVER_THREADS,
        "{threads} server threads with {SESSIONS} sessions live, at most \
         {MAX_SERVER_THREADS} allowed — a connection must not own a thread"
    );
    let active = reg.gauge("net_sessions_active").get() - active_before;
    let parked = reg.gauge("net_sessions_parked").get();
    let busy = reg.gauge("net_worker_busy").get();
    assert!(
        active >= SESSIONS as i64,
        "expected ≥{SESSIONS} multiplexed sessions live, gauge shows {active}"
    );
    // The whole point of the test: a worker pool an order of magnitude
    // below the session count must still hold every session live.
    const { assert!((2 * NET_WORKERS) * 10 <= SESSIONS) };
    assert!(
        busy <= (2 * NET_WORKERS) as i64,
        "net_worker_busy {busy} exceeds the {NET_WORKERS}-per-server worker pool"
    );
    assert!(
        busy * 10 <= active,
        "net_worker_busy ({busy}) must be ≪ net_sessions_active ({active})"
    );
    assert!(
        parked >= active - (2 * NET_WORKERS) as i64,
        "with all sessions idle, nearly all must be parked: parked={parked} active={active}"
    );
    sampled.wait();

    for h in handles {
        h.join().unwrap();
    }

    // ---- post-workload metric deltas --------------------------------
    // (The metric checks read process-global state, so the deltas would
    // be polluted if other tests shared this binary; this file
    // deliberately holds a single test.)
    assert!(
        reg.counter_value("net_dispatches_total") - dispatches_before >= SESSIONS as u64,
        "every session must have been dispatched through the scheduler at least once"
    );
    let per_shard_after: Vec<u64> =
        (0..SHARDS).map(|i| reg.counter_value(&shard_counter(i))).collect();
    let deltas: Vec<u64> =
        per_shard_after.iter().zip(&per_shard_before).map(|(a, b)| a - b).collect();
    assert!(
        deltas[0] >= QIPC_SESSIONS as u64,
        "each shard must see at least one statement per QIPC session, got {deltas:?}"
    );
    assert!(
        deltas.iter().all(|d| *d == deltas[0]),
        "per-shard statement deltas skewed — a scatter lost or duplicated a leg: {deltas:?}"
    );
    assert!(
        reg.counter_value("shard_fanout_total") - fanout_before >= QIPC_SESSIONS as u64,
        "expected at least one counted fan-out per QIPC session"
    );
    assert_eq!(
        reg.counter_value("shard_degraded_total"),
        degraded_before,
        "concurrency must not manufacture degraded shards"
    );
    assert_eq!(
        reg.counter_value("hyperq_query_errors_total") - errors_before,
        QIPC_SESSIONS as u64,
        "only the {QIPC_SESSIONS} deliberate isolation probes may error"
    );

    qipc.detach();
    pg.detach();
}
