//! Shared backend connection pool (DESIGN §15).
//!
//! Before this pool, every gateway session pinned one backend TCP
//! connection for its whole lifetime — ten thousand mostly-idle Q
//! sessions meant ten thousand backend connections. [`BackendPool`]
//! breaks that coupling: a bounded set of authenticated
//! [`PgWireBackend`] connections, checked out **per statement** and
//! returned the moment the response stream drains.
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
//! PR 2's reconnect logic journals session-establishment DDL (the
//! `CREATE TEMPORARY TABLE` statements materializing Q variables) and
//! replays it after a reconnect. With pooling the journal must live
//! per *session*, not per connection: a statement may land on any
//! pooled connection, so [`PooledBackend`] carries its session's
//! journal and re-materializes whatever is missing on the connection it
//! draws — a suffix replay when it gets its own connection back, a
//! connection reset (fresh TCP session, so the previous owner's temp
//! tables die) plus full replay when it inherits a tainted one.

use crate::backend::{share, Backend, SharedBackend};
use crate::endpoint::BackendFactory;
use crate::gateway::{non_idempotent_error, summarize, Credentials, PgWireBackend, StatementClass};
use crate::wire::{RetryPolicy, WireError, WireErrorKind, WireTimeouts};
use pgdb::BatchQueryResult;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Pool-wide counters and gauges, process-global so `SHOW metrics` /
/// `\metrics` surface them alongside the wire and net families.
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
    /// Retry policy for statement execution over the pool.
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

impl PoolConfig {
    /// Defaults overridden by `HQ_POOL_SIZE` and `HQ_POOL_CHECKOUT_MS`.
    pub fn from_env() -> PoolConfig {
        let mut cfg = PoolConfig::default();
        if let Some(n) = std::env::var("HQ_POOL_SIZE").ok().and_then(|v| v.parse().ok()) {
            if n > 0 {
                cfg.size = n;
            }
        }
        if let Some(ms) = std::env::var("HQ_POOL_CHECKOUT_MS").ok().and_then(|v| v.parse().ok()) {
            cfg.checkout_deadline = Duration::from_millis(ms);
        }
        cfg
    }
}

/// One pooled connection plus the bookkeeping that decides how much
/// session re-materialization a checkout needs.
struct PoolConn {
    backend: PgWireBackend,
    last_used: Instant,
    /// The session whose journal was last replayed onto this
    /// connection, and how far.
    owner: Option<u64>,
    owner_journal_len: usize,
    /// Carries session-scoped backend state (temp tables): handing it
    /// to a *different* session requires a connection reset first.
    tainted: bool,
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

    /// A [`BackendFactory`] for [`crate::endpoint::QipcEndpoint`]: every
    /// accepted Q client gets a [`PooledBackend`] session view over this
    /// shared pool.
    pub fn session_factory(self: &Arc<Self>) -> BackendFactory {
        let pool = Arc::clone(self);
        Arc::new(move || Ok(share(PooledBackend::new(Arc::clone(&pool)))))
    }

    /// Open a standalone session view over the pool.
    pub fn session_backend(self: &Arc<Self>) -> SharedBackend {
        share(PooledBackend::new(Arc::clone(self)))
    }

    /// Connections currently open (idle + checked out).
    pub fn open_connections(&self) -> usize {
        self.state.lock().unwrap().open
    }

    /// Connections currently idle in the pool.
    pub fn idle_connections(&self) -> usize {
        self.state.lock().unwrap().idle.len()
    }

    /// Check a connection out for one statement on behalf of `session`.
    fn checkout(&self, session: u64) -> Result<PoolConn, WireError> {
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
                    && conn.backend.ping(self.cfg.health_deadline).is_err()
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
                match PgWireBackend::connect_with(
                    &self.addr,
                    &self.creds,
                    self.cfg.timeouts,
                    RetryPolicy::no_retry(),
                ) {
                    Ok(backend) => {
                        m.dials.inc();
                        self.durable.store(Backend::durable(&backend), Ordering::Relaxed);
                        m.checkouts.inc();
                        m.checkout_wait.observe_secs(started.elapsed().as_secs_f64());
                        return Ok(PoolConn {
                            backend,
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

/// A gateway session's view over a shared [`BackendPool`]: implements
/// [`Backend`] by checking a connection out per statement and carrying
/// the session's DDL journal so its temp-table state re-materializes on
/// whichever connection the statement lands on.
pub struct PooledBackend {
    pool: Arc<BackendPool>,
    id: u64,
    /// This *session's* establishment journal (per-session, not
    /// per-connection — see the module docs).
    journal: Vec<String>,
    reconnects: u64,
}

impl PooledBackend {
    /// Open a new session view over `pool`.
    pub fn new(pool: Arc<BackendPool>) -> PooledBackend {
        let id = pool.next_session.fetch_add(1, Ordering::Relaxed);
        PooledBackend { pool, id, journal: Vec::new(), reconnects: 0 }
    }

    /// This session's establishment journal (diagnostics/tests).
    pub fn journal(&self) -> &[String] {
        &self.journal
    }

    /// Bring `conn` up to this session's state: nothing if it is already
    /// mine and current, a suffix replay if it is mine but stale, a
    /// reset (fresh backend session — the previous owner's temp tables
    /// die with the old TCP session) plus full replay if it carries
    /// another session's state.
    fn ensure_session(&self, conn: &mut PoolConn) -> Result<(), WireError> {
        let replay_from = if conn.owner == Some(self.id) {
            if conn.owner_journal_len == self.journal.len() {
                return Ok(());
            }
            conn.owner_journal_len.min(self.journal.len())
        } else {
            if conn.tainted {
                conn.backend.reset_connection()?;
                pool_metrics().resets.inc();
                conn.tainted = false;
            }
            0
        };
        for sql in &self.journal[replay_from..] {
            conn.backend.run_statement(sql, StatementClass::SessionDdl)?;
        }
        conn.owner = Some(self.id);
        conn.owner_journal_len = self.journal.len();
        conn.tainted = conn.tainted || !self.journal.is_empty();
        Ok(())
    }
}

impl Backend for PooledBackend {
    fn execute_sql_batch(&mut self, sql: &str) -> Result<Option<BatchQueryResult>, WireError> {
        let class = StatementClass::of(sql);
        let retry = self.pool.cfg.retry;
        let mut attempt: u32 = 1;
        loop {
            if attempt > 1 {
                std::thread::sleep(retry.backoff(attempt - 1));
            }
            let mut conn = match self.pool.checkout(self.id) {
                Ok(c) => c,
                Err(e) if e.retryable() && attempt < retry.max_attempts => {
                    attempt += 1;
                    continue;
                }
                Err(e) if e.retryable() => {
                    return Err(retries_exhausted(sql, attempt, retry.max_attempts, &e));
                }
                Err(e) => return Err(e),
            };
            if let Err(e) = self.ensure_session(&mut conn) {
                self.pool.evict(conn);
                if e.retryable() && attempt < retry.max_attempts {
                    self.reconnects += 1;
                    attempt += 1;
                    continue;
                }
                if e.retryable() {
                    return Err(retries_exhausted(sql, attempt, retry.max_attempts, &e));
                }
                return Err(e);
            }
            match conn.backend.run_statement(sql, class) {
                Ok(result) => {
                    if class == StatementClass::SessionDdl {
                        self.journal.push(sql.to_string());
                        conn.owner_journal_len = self.journal.len();
                        conn.tainted = true;
                    }
                    conn.owner = Some(self.id);
                    self.pool.give_back(conn);
                    return Ok(Some(result));
                }
                Err(e) if e.retryable() => {
                    // The connection died mid-statement: it leaves the
                    // pool for good (evicted, socket closed), and the
                    // statement's fate decides what happens next.
                    let durable = Backend::durable(&conn.backend);
                    self.pool.evict(conn);
                    if !class.replayable() {
                        return Err(non_idempotent_error(sql, durable, &e));
                    }
                    self.reconnects += 1;
                    if attempt >= retry.max_attempts {
                        return Err(retries_exhausted(sql, attempt, retry.max_attempts, &e));
                    }
                    attempt += 1;
                }
                Err(e) => {
                    // A SQL-level error travels on a healthy connection.
                    self.pool.give_back(conn);
                    return Err(e);
                }
            }
        }
    }

    fn describe(&self) -> String {
        format!("pooled pg-wire backend at {} (session {})", self.pool.addr, self.id)
    }

    fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn durable(&self) -> bool {
        self.pool.durable.load(Ordering::Relaxed)
    }
}

/// Mirror of the gateway's retry-exhaustion error (same shape so pooled
/// and dedicated paths read alike in logs and tests).
fn retries_exhausted(sql: &str, attempt: u32, max: u32, failure: &WireError) -> WireError {
    WireError::new(
        WireErrorKind::RetriesExhausted,
        format!(
            "{attempt} of {max} attempts failed for ({}); last failure: {failure}",
            summarize(sql)
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut a = PooledBackend::new(Arc::clone(&pool));
        let mut b = PooledBackend::new(Arc::clone(&pool));
        let mut c = PooledBackend::new(Arc::clone(&pool));
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
        let mut a = PooledBackend::new(Arc::clone(&pool));
        let mut b = PooledBackend::new(Arc::clone(&pool));
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
        let hostage = pool.checkout(999).unwrap();
        let mut s = PooledBackend::new(Arc::clone(&pool));
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
