//! Backend-pool chaos suite: deterministic fault injection (via the
//! `chaosnet` proxy) against [`hyperq::BackendPool`] / per-statement
//! checkout.
//!
//! Every scenario asserts BOTH the typed outcome the caller sees and
//! the pool's internal accounting: a connection that dies under fault
//! is *evicted* (socket closed, slot freed, counted), never leaked.
//! Each test finishes with the leak invariant from the issue:
//! `pool_dials_total − pool_evictions_total == open connections`.
//!
//! The tests share the process-global metrics registry, so they
//! serialize on a file-local mutex to keep the per-test counter deltas
//! deterministic.

use chaosnet::{ChaosProxy, FaultPlan, LegFaults};
use hyperq::gateway::Credentials;
use hyperq::{Backend, BackendPool, PoolConfig};
use hyperq::{RetryPolicy, WireErrorKind};
use pgdb::server::{PgServer, ServerConfig};
use pgdb::{Cell, QueryResult};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn creds() -> Credentials {
    Credentials { user: "u".into(), password: String::new(), database: "hist".into() }
}

/// pgdb TCP server + chaos proxy in front of it.
fn chaotic_backend() -> (PgServer, ChaosProxy) {
    let server = PgServer::start(pgdb::Db::new(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let proxy = ChaosProxy::start(&server.addr.to_string()).unwrap();
    (server, proxy)
}

/// Byte length of the startup packet a pool dial sends for [`creds`] —
/// used to place faults precisely past the handshake.
fn startup_len() -> u64 {
    let mut buf = Vec::new();
    pgwire::codec::encode_frontend(
        &pgwire::messages::FrontendMessage::Startup {
            params: vec![
                ("user".to_string(), "u".to_string()),
                ("database".to_string(), "hist".to_string()),
            ],
        },
        &mut buf,
    );
    buf.len() as u64
}

/// Byte length of one read statement as the gateway sends it: the five
/// extended-query messages asking for binary results, in one write.
fn read_len(sql: &str) -> u64 {
    let mut buf = Vec::new();
    pgwire::codec::encode_extended_query(sql, pgwire::Format::Binary, &mut buf);
    buf.len() as u64
}

/// Snapshot of the global pool counters, for per-test deltas.
struct Balance {
    dials: u64,
    evictions: u64,
}

fn balance() -> Balance {
    let reg = obs::global_registry();
    Balance {
        dials: reg.counter_value("pool_dials_total"),
        evictions: reg.counter_value("pool_evictions_total"),
    }
}

/// The suite-wide leak invariant: every dialed connection is either
/// still open or was explicitly evicted.
fn assert_no_leak(before: &Balance, pool: &BackendPool) {
    let after = balance();
    let dials = after.dials - before.dials;
    let evictions = after.evictions - before.evictions;
    assert_eq!(
        dials - evictions,
        pool.open_connections() as u64,
        "pooled connection leaked: {dials} dials − {evictions} evictions ≠ {} open",
        pool.open_connections()
    );
}

/// A backend connection severed between statements: the next statement
/// on a no-retry pool surfaces a typed error, the dead connection is
/// evicted (not leaked), and the next checkout transparently re-dials.
#[test]
fn severed_connection_is_evicted_and_the_next_checkout_redials() {
    let _g = serial();
    let (server, proxy) = chaotic_backend();
    let b0 = balance();
    let cfg = PoolConfig { retry: RetryPolicy::no_retry(), ..PoolConfig::default() };
    let pool = BackendPool::new(&proxy.addr().to_string(), &creds(), cfg);
    let mut s = pool.session();

    s.execute_sql("SELECT 1").unwrap();
    assert_eq!(pool.open_connections(), 1);
    proxy.sever_active();

    let err = s.execute_sql("SELECT 1").unwrap_err();
    assert_eq!(err.kind, WireErrorKind::RetriesExhausted, "{err}");
    assert!(err.message.contains("1 of 1 attempts"), "{err}");
    assert_eq!(pool.open_connections(), 0, "dead connection must be evicted, not leaked");

    // The pool recovers by itself: the next checkout dials afresh.
    assert!(s.execute_sql("SELECT 1").is_ok());
    assert_eq!(pool.open_connections(), 1);
    assert_eq!(proxy.connections(), 2);
    assert_no_leak(&b0, &pool);

    // The pool family is visible in the standard metrics dump.
    let dump = obs::global_registry().render_prometheus();
    for name in ["pool_checkouts_total", "pool_checkout_wait_seconds", "pool_evictions_total"] {
        assert!(dump.contains(name), "{name} missing from metrics dump");
    }
    server.detach();
}

/// With retries enabled the sever is invisible: the statement lands on
/// a fresh connection and the session's temp-table journal re-plays
/// there first — same recovery the dedicated gateway gives, now across
/// a shared pool.
#[test]
fn sever_is_transparently_retried_with_journal_replay() {
    let _g = serial();
    let (server, proxy) = chaotic_backend();
    let b0 = balance();
    let cfg = PoolConfig { retry: RetryPolicy::immediate(3), ..PoolConfig::default() };
    let pool = BackendPool::new(&proxy.addr().to_string(), &creds(), cfg);
    let mut s = pool.session();

    s.execute_sql("CREATE TABLE base (x bigint)").unwrap();
    s.execute_sql("INSERT INTO base VALUES (7), (9)").unwrap();
    s.execute_sql("CREATE TEMPORARY TABLE \"HQ_TEMP_1\" AS SELECT x FROM base WHERE x > 8")
        .unwrap();
    assert_eq!(s.journal().len(), 1);

    // The backend "crashes": the temp table dies with its TCP session.
    proxy.sever_active();
    let reg = obs::global_registry();
    let reconnects_before = reg.counter_value("wire_reconnects_total");
    let retries_before = reg.counter_value("wire_retries_total");

    match s.execute_sql("SELECT x FROM \"HQ_TEMP_1\"").unwrap() {
        QueryResult::Rows(rows) => {
            assert_eq!(rows.data.len(), 1);
            assert_eq!(rows.data[0][0], Cell::Int(9));
        }
        other => panic!("expected rows, got {other:?}"),
    }
    assert_eq!(s.reconnects(), 1, "exactly one transparent reconnect");
    // The recovery shows in the wire metrics as a dedicated session's does.
    assert_eq!(reg.counter_value("wire_reconnects_total") - reconnects_before, 1);
    assert_eq!(reg.counter_value("wire_retries_total") - retries_before, 1);
    assert_eq!(proxy.connections(), 2);
    assert_eq!(pool.open_connections(), 1);
    assert_no_leak(&b0, &pool);
    server.detach();
}

/// A mutation in flight when the connection dies is refused with the
/// same typed non-idempotent error the dedicated gateway raises — and
/// is NOT silently replayed (that could apply it twice).
#[test]
fn mutation_during_sever_is_refused_not_replayed() {
    let _g = serial();
    let (server, proxy) = chaotic_backend();
    let b0 = balance();
    let cfg = PoolConfig { retry: RetryPolicy::immediate(5), ..PoolConfig::default() };
    let pool = BackendPool::new(&proxy.addr().to_string(), &creds(), cfg);
    let mut s = pool.session();

    s.execute_sql("CREATE TABLE t (x bigint)").unwrap();
    proxy.sever_active();

    let err = s.execute_sql("INSERT INTO t VALUES (1)").unwrap_err();
    assert_eq!(err.kind, WireErrorKind::NonIdempotent, "{err}");
    assert!(err.message.contains("a replay could apply the mutation twice"), "{err}");
    assert_eq!(s.reconnects(), 0, "no replay may be attempted for the write");
    assert_eq!(pool.open_connections(), 0, "the dead connection must still be evicted");

    // Re-issued by the caller (the contract of the error): exactly one
    // row lands.
    s.execute_sql("INSERT INTO t VALUES (1)").unwrap();
    match s.execute_sql("SELECT count(*) AS n FROM t").unwrap() {
        QueryResult::Rows(rows) => assert_eq!(rows.data[0][0], Cell::Int(1)),
        other => panic!("expected rows, got {other:?}"),
    }
    assert_no_leak(&b0, &pool);
    server.detach();
}

/// A health check against a stalled backend trips the ping deadline,
/// the connection is evicted (not leaked, and the checkout does not
/// hang), and the statement proceeds on a fresh dial — invisibly to
/// the caller.
#[test]
fn stalled_health_check_trips_deadline_and_evicts() {
    let _g = serial();
    let (server, proxy) = chaotic_backend();
    let b0 = balance();
    // Connection 1: handshake and the first statement at full speed;
    // every upstream frame after that (i.e. the health-check ping) is
    // stalled far past the ping deadline.
    proxy.push_plan(FaultPlan {
        to_upstream: LegFaults {
            delay: Some(Duration::from_secs(5)),
            delay_after: startup_len() + read_len("SELECT 1"),
            ..LegFaults::clean()
        },
        ..FaultPlan::clean()
    });
    let cfg = PoolConfig {
        health_idle: Duration::from_millis(50),
        health_deadline: Some(Duration::from_millis(100)),
        retry: RetryPolicy::no_retry(),
        ..PoolConfig::default()
    };
    let pool = BackendPool::new(&proxy.addr().to_string(), &creds(), cfg);
    let mut s = pool.session();

    s.execute_sql("SELECT 1").unwrap();
    // Let the connection go stale so the next checkout health-checks it.
    std::thread::sleep(Duration::from_millis(80));

    let t0 = Instant::now();
    s.execute_sql("SELECT 1").unwrap();
    let elapsed = t0.elapsed();
    assert!(elapsed < Duration::from_secs(2), "stalled ping must trip its deadline, not hang ({elapsed:?})");
    assert_eq!(proxy.connections(), 2, "the stalled connection must be replaced by a fresh dial");
    assert_eq!(pool.open_connections(), 1);
    let evicted = balance().evictions - b0.evictions;
    assert_eq!(evicted, 1, "the stalled connection must be evicted, not returned to the pool");
    assert_no_leak(&b0, &pool);
    server.detach();
}

/// Pool exhaustion under load: when every connection is busy past the
/// checkout deadline the caller gets the typed overload error — both
/// SQLSTATE 53300 and the kdb+ `'limit` spelling — within the deadline,
/// never a hang; and the very next checkout after the load drains
/// succeeds.
#[test]
fn exhausted_pool_times_out_typed_under_load() {
    let _g = serial();
    let (server, proxy) = chaotic_backend();
    let b0 = balance();
    // Connection 1: the handshake is instant but every statement frame
    // is delayed 800ms — the session that draws this connection holds
    // the pool's single slot that long.
    proxy.push_plan(FaultPlan {
        to_upstream: LegFaults {
            delay: Some(Duration::from_millis(800)),
            delay_after: startup_len(),
            ..LegFaults::clean()
        },
        ..FaultPlan::clean()
    });
    let cfg = PoolConfig {
        size: 1,
        checkout_deadline: Duration::from_millis(150),
        retry: RetryPolicy::no_retry(),
        ..PoolConfig::default()
    };
    let pool = BackendPool::new(&proxy.addr().to_string(), &creds(), cfg);

    let hog = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || {
            let mut a = pool.session();
            a.execute_sql("SELECT 1").unwrap();
        })
    };
    // Wait until the hog is definitely mid-statement on the only slot.
    std::thread::sleep(Duration::from_millis(200));

    let mut b = pool.session();
    let t0 = Instant::now();
    let err = b.execute_sql("SELECT 1").unwrap_err();
    let elapsed = t0.elapsed();
    assert!(elapsed < Duration::from_millis(600), "exhaustion must trip the deadline, not hang ({elapsed:?})");
    assert_eq!(err.kind, WireErrorKind::Rejected, "{err}");
    assert!(err.message.contains("SQLSTATE 53300"), "{err}");
    assert!(err.message.contains("'limit: too many connections"), "{err}");

    hog.join().unwrap();
    // The load drained: the same session's next statement succeeds on
    // the returned connection.
    assert!(b.execute_sql("SELECT 1").is_ok());
    assert_eq!(pool.open_connections(), 1, "exhaustion must not consume the slot");
    assert_no_leak(&b0, &pool);
    server.detach();
}
