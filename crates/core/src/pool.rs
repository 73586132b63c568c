//! Backend connection pool (DESIGN §15).
//!
//! Every gateway session reaches the warehouse through a
//! [`BackendPool`]: a bounded set of authenticated PG v3 connections,
//! checked out **per statement** and returned the moment the response
//! stream drains. A session opened with
//! [`PgWireBackend::connect`](crate::gateway::PgWireBackend::connect)
//! owns a pool of one; sessions handed out by [`BackendPool::session`]
//! share one, so ten thousand mostly-idle Q sessions need not hold ten
//! thousand backend connections. Either way the session is the same
//! [`PgWireBackend`], so the journal, retry and replay rules exist once.
//!
//! ## Checkout protocol
//!
//! A checkout prefers, in order: the connection this session used last
//! (its temp-table state is already materialized there), any connection
//! free of other sessions' temp-table state, any idle connection. A
//! connection idle past the health threshold is pinged under an
//! explicit deadline first — a failed or stalled ping evicts it (the
//! TCP socket is closed, the slot freed) and the checkout moves on.
//! When everything is busy and the pool is at size, the caller waits;
//! if the deadline expires the checkout fails with a typed
//! [`WireError`] carrying both spellings of the overload signal —
//! SQLSTATE `53300` for the PG side, `'limit` for the kdb+ side — and
//! never hangs.
//!
//! ## Session state on pooled connections
//!
//! The journal of session-establishment DDL (the `CREATE TEMPORARY
//! TABLE` statements materializing Q variables) lives per *session*,
//! not per connection: a statement may land on any pooled connection,
//! so the checkout re-materializes whatever the drawn connection lacks
//! — a suffix replay when the session gets its own connection back, a
//! connection reset (fresh TCP session, so the previous owner's temp
//! tables die) plus full replay when it inherits a tainted one, a full
//! replay on a fresh dial. A connection lost mid-statement is evicted,
//! so recovering from a backend fault is that same checkout: redial and
//! replay.

use crate::gateway::{Credentials, PgConn, PgWireBackend, StatementClass};
use crate::wire::{RetryPolicy, WireError, WireErrorKind, WireTimeouts};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Pool-wide counters and gauges, process-global so `SHOW metrics` /
/// `\metrics` surface them alongside the wire and net families. They
/// count every wire session's connections, dedicated ones included.
pub(crate) struct PoolMetrics {
    checkouts: Arc<obs::Counter>,
    checkout_wait: Arc<obs::Histogram>,
    evictions: Arc<obs::Counter>,
    dials: Arc<obs::Counter>,
    resets: Arc<obs::Counter>,
    exhausted: Arc<obs::Counter>,
    conns_open: Arc<obs::Gauge>,
    conns_idle: Arc<obs::Gauge>,
}

pub(crate) fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = obs::global_registry();
        PoolMetrics {
            checkouts: reg.counter("pool_checkouts_total"),
            checkout_wait: reg.histogram("pool_checkout_wait_seconds"),
            evictions: reg.counter("pool_evictions_total"),
            dials: reg.counter("pool_dials_total"),
            resets: reg.counter("pool_resets_total"),
            exhausted: reg.counter("pool_exhausted_total"),
            conns_open: reg.gauge("pool_conns_open"),
            conns_idle: reg.gauge("pool_conns_idle"),
        }
    })
}

/// Pool sizing and health policy.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum concurrently open backend connections.
    pub size: usize,
    /// How long a checkout may wait for a free connection before it
    /// fails with the typed exhaustion error.
    pub checkout_deadline: Duration,
    /// A connection idle longer than this is health-checked before it
    /// is handed out.
    pub health_idle: Duration,
    /// Deadline for the health-check ping; a stalled ping trips this
    /// and evicts the connection instead of hanging the checkout.
    pub health_deadline: Option<Duration>,
    /// Wire deadlines applied to every pooled connection.
    pub timeouts: WireTimeouts,
    /// Retry policy of every session over the pool.
    pub retry: RetryPolicy,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            size: 8,
            checkout_deadline: Duration::from_millis(5000),
            health_idle: Duration::from_secs(30),
            health_deadline: Some(Duration::from_secs(2)),
            timeouts: WireTimeouts::default(),
            retry: RetryPolicy::default(),
        }
    }
}

/// One pooled connection plus the bookkeeping that decides how much
/// session re-materialization a checkout needs.
pub(crate) struct PoolConn {
    pub(crate) pg: PgConn,
    last_used: Instant,
    /// The session whose journal was last replayed onto this
    /// connection, and how far.
    owner: Option<u64>,
    owner_journal_len: usize,
    /// Carries session-scoped backend state (temp tables): handing it
    /// to a *different* session requires a connection reset first.
    tainted: bool,
}

impl PoolConn {
    /// The owning session's journal grew to `len` by a statement that
    /// ran on this connection.
    pub(crate) fn journaled(&mut self, len: usize) {
        self.owner_journal_len = len;
        self.tainted = true;
    }
}

struct PoolState {
    idle: Vec<PoolConn>,
    /// Connections alive right now: idle + checked out + being dialed.
    open: usize,
}

/// A bounded, health-checked pool of authenticated backend connections.
pub struct BackendPool {
    addr: String,
    creds: Credentials,
    cfg: PoolConfig,
    state: Mutex<PoolState>,
    available: Condvar,
    next_session: AtomicU64,
    /// Durability advertisement from the most recent dial (sessions ask
    /// before their first statement runs).
    durable: AtomicBool,
}

impl BackendPool {
    /// Create a pool dialing `addr` with `creds`. No connection is
    /// opened until the first checkout needs one.
    pub fn new(addr: &str, creds: &Credentials, cfg: PoolConfig) -> Arc<BackendPool> {
        Arc::new(BackendPool {
            addr: addr.to_string(),
            creds: creds.clone(),
            cfg,
            state: Mutex::new(PoolState { idle: Vec::new(), open: 0 }),
            available: Condvar::new(),
            next_session: AtomicU64::new(1),
            durable: AtomicBool::new(false),
        })
    }

    /// Open a new gateway session over this pool: its own journal and
    /// reconnect count, statements on whichever connection is free.
    pub fn session(self: &Arc<Self>) -> PgWireBackend {
        PgWireBackend::new(Arc::clone(self), self.next_session.fetch_add(1, Ordering::Relaxed))
    }

    /// Connections currently open (idle + checked out).
    pub fn open_connections(&self) -> usize {
        self.state.lock().unwrap().open
    }

    pub(crate) fn addr(&self) -> &str {
        &self.addr
    }

    pub(crate) fn retry(&self) -> RetryPolicy {
        self.cfg.retry
    }

    pub(crate) fn durable(&self) -> bool {
        self.durable.load(Ordering::Relaxed)
    }

    /// Check a connection out for one statement on behalf of `session`,
    /// brought up to the state its `journal` describes. A connection
    /// that fails on the way is evicted.
    pub(crate) fn checkout(&self, session: u64, journal: &[String]) -> Result<PoolConn, WireError> {
        let mut conn = self.take(session)?;
        match self.ensure_session(&mut conn, session, journal) {
            Ok(()) => Ok(conn),
            Err(e) => {
                self.evict(conn);
                Err(e)
            }
        }
    }

    /// Hand a connection back after a statement: to the idle set when
    /// its reply was read through, evicted when it was cut short.
    pub(crate) fn release(&self, conn: PoolConn) {
        if conn.pg.synced() {
            self.give_back(conn)
        } else {
            self.evict(conn)
        }
    }

    /// Pick (or dial) a connection for `session`, waiting at most the
    /// checkout deadline for one to come free.
    fn take(&self, session: u64) -> Result<PoolConn, WireError> {
        let started = Instant::now();
        let m = pool_metrics();
        let mut state = self.state.lock().unwrap();
        loop {
            // Best idle candidate: my own connection (state already
            // materialized), else an untainted one, else any.
            if !state.idle.is_empty() {
                let pick = state
                    .idle
                    .iter()
                    .position(|c| c.owner == Some(session))
                    .or_else(|| state.idle.iter().position(|c| !c.tainted))
                    .unwrap_or(0);
                let mut conn = state.idle.swap_remove(pick);
                m.conns_idle.add(-1);
                drop(state);
                // Stale connection: prove it alive before handing it
                // out. A dead or stalled backend trips the ping
                // deadline, the connection is evicted (closed, slot
                // freed), and the checkout moves on.
                if conn.last_used.elapsed() >= self.cfg.health_idle
                    && conn.pg.ping(self.cfg.health_deadline).is_err()
                {
                    self.evict(conn);
                    state = self.state.lock().unwrap();
                    continue;
                }
                m.checkouts.inc();
                m.checkout_wait.observe_secs(started.elapsed().as_secs_f64());
                return Ok(conn);
            }
            // Room to grow: dial a fresh connection. The slot is
            // reserved before the dial so concurrent checkouts cannot
            // overshoot the bound.
            if state.open < self.cfg.size {
                state.open += 1;
                m.conns_open.add(1);
                drop(state);
                match PgConn::open(&self.addr, &self.creds, &self.cfg.timeouts) {
                    Ok(pg) => {
                        m.dials.inc();
                        self.durable.store(pg.durable(), Ordering::Relaxed);
                        m.checkouts.inc();
                        m.checkout_wait.observe_secs(started.elapsed().as_secs_f64());
                        return Ok(PoolConn {
                            pg,
                            last_used: Instant::now(),
                            owner: None,
                            owner_journal_len: 0,
                            tainted: false,
                        });
                    }
                    Err(e) => {
                        let mut state = self.state.lock().unwrap();
                        state.open -= 1;
                        m.conns_open.add(-1);
                        drop(state);
                        self.available.notify_one();
                        return Err(e);
                    }
                }
            }
            // Saturated: wait for a return or an eviction, bounded by
            // the checkout deadline — exhaustion is an error, never a
            // hang.
            let elapsed = started.elapsed();
            if elapsed >= self.cfg.checkout_deadline {
                m.exhausted.inc();
                return Err(WireError::new(
                    WireErrorKind::Rejected,
                    format!(
                        "backend pool exhausted: all {} connections busy for {}ms \
                         (SQLSTATE 53300 / 'limit: too many connections)",
                        self.cfg.size,
                        self.cfg.checkout_deadline.as_millis()
                    ),
                ));
            }
            let (s, _) = self
                .available
                .wait_timeout(state, self.cfg.checkout_deadline - elapsed)
                .unwrap();
            state = s;
        }
    }

    /// Bring `conn` up to `session`'s state: nothing if it is already
    /// the session's and current, a suffix replay if it is the
    /// session's but stale, a reset (fresh backend session — the
    /// previous owner's temp tables die with the old TCP session) plus
    /// full replay if it carries another session's state.
    fn ensure_session(
        &self,
        conn: &mut PoolConn,
        session: u64,
        journal: &[String],
    ) -> Result<(), WireError> {
        let replay_from = if conn.owner == Some(session) {
            if conn.owner_journal_len == journal.len() {
                return Ok(());
            }
            conn.owner_journal_len.min(journal.len())
        } else {
            if conn.tainted {
                // Hygiene, not fault recovery: not a dial, not a
                // reconnect.
                conn.pg = PgConn::open(&self.addr, &self.creds, &self.cfg.timeouts)?;
                pool_metrics().resets.inc();
                conn.tainted = false;
            }
            0
        };
        for sql in &journal[replay_from..] {
            conn.pg.exchange(sql, StatementClass::SessionDdl)?;
        }
        conn.owner = Some(session);
        conn.owner_journal_len = journal.len();
        conn.tainted = conn.tainted || !journal.is_empty();
        Ok(())
    }

    /// Return a healthy connection to the idle set.
    fn give_back(&self, mut conn: PoolConn) {
        conn.last_used = Instant::now();
        let m = pool_metrics();
        let mut state = self.state.lock().unwrap();
        state.idle.push(conn);
        m.conns_idle.add(1);
        drop(state);
        self.available.notify_one();
    }

    /// Destroy a connection (closes the socket) and free its slot.
    fn evict(&self, conn: PoolConn) {
        drop(conn);
        let m = pool_metrics();
        let mut state = self.state.lock().unwrap();
        state.open -= 1;
        m.conns_open.add(-1);
        m.evictions.inc();
        drop(state);
        self.available.notify_one();
    }
}

impl Drop for BackendPool {
    fn drop(&mut self) {
        // Idle connections die with the pool; keep the global gauges
        // honest (these are plain closures, not failures, so they do
        // not count as evictions).
        let m = pool_metrics();
        let state = self.state.get_mut().unwrap();
        m.conns_idle.add(-(state.idle.len() as i64));
        m.conns_open.add(-(state.open as i64));
        state.idle.clear();
        state.open = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use pgdb::server::{PgServer, ServerConfig};
    use pgdb::{Cell, QueryResult};

    fn start_server() -> PgServer {
        PgServer::start(pgdb::Db::new(), "127.0.0.1:0", ServerConfig::default()).unwrap()
    }

    fn creds() -> Credentials {
        Credentials { user: "pool".into(), password: String::new(), database: "hist".into() }
    }

    #[test]
    fn statements_share_a_bounded_connection_set() {
        let server = start_server();
        let cfg = PoolConfig { size: 2, ..PoolConfig::default() };
        let pool = BackendPool::new(&server.addr.to_string(), &creds(), cfg);
        let mut a = pool.session();
        let mut b = pool.session();
        let mut c = pool.session();
        a.execute_sql("CREATE TABLE t (x bigint)").unwrap();
        a.execute_sql("INSERT INTO t VALUES (1)").unwrap();
        for s in [&mut a, &mut b, &mut c] {
            match s.execute_sql("SELECT x FROM t").unwrap() {
                QueryResult::Rows(rows) => assert_eq!(rows.data[0][0], Cell::Int(1)),
                other => panic!("expected rows, got {other:?}"),
            }
        }
        // Three sessions, at most two connections ever open.
        assert!(pool.open_connections() <= 2, "open={}", pool.open_connections());
        server.detach();
    }

    #[test]
    fn temp_table_state_rematerializes_across_sessions_sharing_a_conn() {
        let server = start_server();
        // One connection, two sessions with different temp tables: every
        // statement swap forces a reset + replay, and neither session
        // ever sees the other's state.
        let cfg = PoolConfig { size: 1, ..PoolConfig::default() };
        let pool = BackendPool::new(&server.addr.to_string(), &creds(), cfg);
        let mut a = pool.session();
        let mut b = pool.session();
        a.execute_sql("CREATE TEMPORARY TABLE \"HQ_TEMP_A\" AS SELECT 1 AS x").unwrap();
        b.execute_sql("CREATE TEMPORARY TABLE \"HQ_TEMP_B\" AS SELECT 2 AS x").unwrap();
        // a's temp table re-materializes on the (shared) connection…
        match a.execute_sql("SELECT x FROM \"HQ_TEMP_A\"").unwrap() {
            QueryResult::Rows(rows) => assert_eq!(rows.data[0][0], Cell::Int(1)),
            other => panic!("expected rows, got {other:?}"),
        }
        // …and b must NOT see a's table after the swap back.
        assert!(b.execute_sql("SELECT x FROM \"HQ_TEMP_A\"").is_err());
        match b.execute_sql("SELECT x FROM \"HQ_TEMP_B\"").unwrap() {
            QueryResult::Rows(rows) => assert_eq!(rows.data[0][0], Cell::Int(2)),
            other => panic!("expected rows, got {other:?}"),
        }
        assert_eq!(pool.open_connections(), 1);
        server.detach();
    }

    #[test]
    fn exhausted_pool_fails_typed_within_deadline_not_a_hang() {
        let server = start_server();
        let cfg = PoolConfig {
            size: 1,
            checkout_deadline: Duration::from_millis(200),
            ..PoolConfig::default()
        };
        let pool = BackendPool::new(&server.addr.to_string(), &creds(), cfg);
        // Hold the single connection hostage.
        let hostage = pool.checkout(999, &[]).unwrap();
        let mut s = pool.session();
        let t0 = Instant::now();
        let err = s.execute_sql("SELECT 1").unwrap_err();
        assert!(t0.elapsed() < Duration::from_secs(3), "checkout hung: {:?}", t0.elapsed());
        assert_eq!(err.kind, WireErrorKind::Rejected, "{err}");
        assert!(err.message.contains("53300"), "{err}");
        assert!(err.message.contains("'limit"), "{err}");
        // Release: the next checkout succeeds.
        pool.give_back(hostage);
        assert!(s.execute_sql("SELECT 1").is_ok());
        server.detach();
    }
}
