//! The Gateway plugin: a PG v3 wire client (paper §3.1).
//!
//! "The Gateway component packs a SQL query into a PG formatted message
//! and transmits it to PG database for processing." This backend
//! implementation talks to any PG v3 server — our `pgdb` TCP server in
//! tests, a real PostgreSQL/Greenplum in a deployment. Note the paper's
//! rationale for not using ODBC/JDBC: processing network traffic natively
//! is key for throughput.
//!
//! Two layers, one of each:
//!
//! * `PgConn` is one authenticated connection: the start-up exchange,
//!   one statement's request and reply, the health-check ping and the
//!   durability the server advertised. It keeps no journal and never
//!   retries.
//! * [`PgWireBackend`] is one gateway *session* over a
//!   [`BackendPool`]: it checks a connection out per statement, carries
//!   the session's DDL journal and runs the one retry loop. A dedicated
//!   connection ([`PgWireBackend::connect`]) is a pool of one; a session
//!   sharing warehouse connections with others comes from
//!   [`BackendPool::session`]. Both are the same type and recover alike.
//!
//! ## Fault tolerance
//!
//! The Gateway is the wire leg most likely to fail in production — the
//! backend restarts, a switch drops the flow, a query stalls. Three
//! mechanisms (see `DESIGN.md`, "Fault tolerance") keep a backend
//! hiccup from killing the Q application's session:
//!
//! * [`WireTimeouts`] deadlines on connect/read/write, so a hung
//!   backend surfaces as a typed timeout instead of blocking forever;
//! * a [`RetryPolicy`]-driven retry loop: a lost connection is evicted
//!   from the pool, and the next checkout dials afresh, re-authenticates
//!   and replays the session's **DDL journal** (the `CREATE TEMPORARY
//!   TABLE` statements materializing Q variables, §4.3 — temp tables die
//!   with the backend connection, so they must be rebuilt) before the
//!   in-flight statement re-runs, *if it is idempotent*;
//! * a typed [`WireError`] taxonomy for everything that cannot be
//!   retried: non-idempotent statements, protocol violations, expired
//!   deadlines and exhausted retry budgets.
//!
//! ## The result path
//!
//! Reads go out as one extended-query batch (`Parse`/`Bind`/`Describe`/
//! `Execute`/`Sync`, one write, no extra round trip) asking for every
//! result column in binary; everything else stays a simple `Query`.
//! One response loop serves both: it reads the socket in large reads
//! into the [`MessageReader`]'s buffer, walks the frames in place and
//! appends each `DataRow` field to a typed builder per column
//! ([`BatchDecoder`]), the format of each column read from
//! `RowDescription`. What comes back is the executor's own shape, a
//! [`pgdb::Batch`] — [`Backend::execute_sql`] is that batch transposed.

use crate::backend::Backend;
use crate::pool::{BackendPool, PoolConfig};
use crate::wire::{RetryPolicy, WireError, WireErrorKind, WireTimeouts};
use pgdb::{BatchQueryResult, DbError};
use pgwire::codec::{decode_backend, encode_extended_query, encode_frontend, MessageReader};
use pgwire::messages::{AuthRequest, BackendMessage, Format, FrontendMessage};
use pgwire::rows::{BatchDecoder, RowError};
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Wire-path fault-tolerance counters, aggregated process-wide across
/// every gateway session.
struct WireMetrics {
    reconnects: Arc<obs::Counter>,
    retries: Arc<obs::Counter>,
    /// Mid-flight connection losses under a non-idempotent statement
    /// where the backend is durable: the replay is skipped (not
    /// refused fatally) because a committed mutation survived on disk.
    replay_skipped_durable: Arc<obs::Counter>,
    /// `DataRow` fields decoded, by the format they travelled in: a
    /// backend that answers text where binary was asked for shows up
    /// here as a ratio, not as a slowdown.
    fields_binary: Arc<obs::Counter>,
    fields_text: Arc<obs::Counter>,
    result_rows: Arc<obs::Counter>,
    /// Results poisoned by an undecodable `DataRow`, by the format of
    /// the field at fault (framing faults count as text).
    decode_errors_binary: Arc<obs::Counter>,
    decode_errors_text: Arc<obs::Counter>,
}

fn wire_metrics() -> &'static WireMetrics {
    static METRICS: OnceLock<WireMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = obs::global_registry();
        WireMetrics {
            reconnects: reg.counter("wire_reconnects_total"),
            retries: reg.counter("wire_retries_total"),
            replay_skipped_durable: reg.counter("wire_replay_skipped_durable_total"),
            fields_binary: reg.counter("hyperq_gateway_fields_decoded_total{format=\"binary\"}"),
            fields_text: reg.counter("hyperq_gateway_fields_decoded_total{format=\"text\"}"),
            result_rows: reg.counter("hyperq_gateway_result_rows_total"),
            decode_errors_binary: reg.counter("wire_protocol_errors_total{cause=\"binary_decode\"}"),
            decode_errors_text: reg.counter("wire_protocol_errors_total{cause=\"text_decode\"}"),
        }
    })
}

/// Credentials for the backend connection.
#[derive(Debug, Clone, Default)]
pub struct Credentials {
    /// User name.
    pub user: String,
    /// Password (used when the server requests one).
    pub password: String,
    /// Database name.
    pub database: String,
}

/// How a statement behaves when its connection dies mid-flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StatementClass {
    /// Row-returning and side-effect-free: safe to re-run on a fresh
    /// connection.
    Read,
    /// Session-establishment DDL (temp-table materialization of Q
    /// variables): journaled, and safe to re-run because the temp
    /// table died with the old connection.
    SessionDdl,
    /// Anything that mutates durable state: re-running could apply the
    /// mutation twice, so a mid-flight connection loss is fatal.
    Mutation,
}

impl StatementClass {
    pub(crate) fn of(sql: &str) -> StatementClass {
        let head: String = sql
            .trim_start()
            .chars()
            .take(32)
            .collect::<String>()
            .to_ascii_uppercase();
        if head.starts_with("SELECT")
            || head.starts_with("VALUES")
            || head.starts_with("SHOW")
            || head.starts_with("EXPLAIN")
            || head.starts_with("WITH")
        {
            StatementClass::Read
        } else if head.starts_with("CREATE TEMPORARY TABLE")
            || head.starts_with("CREATE TEMP TABLE")
        {
            StatementClass::SessionDdl
        } else {
            StatementClass::Mutation
        }
    }

    /// Safe to re-run after a reconnect?
    fn replayable(self) -> bool {
        !matches!(self, StatementClass::Mutation)
    }
}

/// First few words of a statement, for error messages.
fn summarize(sql: &str) -> String {
    let mut s: String = sql.trim().chars().take(48).collect();
    if s.len() < sql.trim().len() {
        s.push('…');
    }
    s
}

/// One authenticated PG v3 connection. It runs one statement at a time
/// and neither journals nor retries: that is the session's job
/// ([`PgWireBackend`]).
pub(crate) struct PgConn {
    stream: TcpStream,
    reader: MessageReader,
    /// The read deadline the connection runs under, restored after a
    /// ping armed its own.
    read_deadline: Option<Duration>,
    /// Did the server advertise crash durability (`hyperq_durability`
    /// parameter status) during session establishment? Decides how a
    /// mid-flight connection loss under a mutation is handled.
    durable: bool,
    /// Was the last reply read through to `ReadyForQuery`? A connection
    /// whose reply was cut short — lost, timed out, or unframeable — has
    /// bytes of its own owed or garbled, and must not serve another
    /// statement.
    synced: bool,
    /// Request bytes, reused from statement to statement.
    out: Vec<u8>,
}

impl PgConn {
    /// Establish one authenticated connection: TCP connect under the
    /// connect deadline, the start-up/authentication exchange, then
    /// drain to `ReadyForQuery`, noting the durability advertisement if
    /// the server sends one.
    pub(crate) fn open(
        addr: &str,
        creds: &Credentials,
        timeouts: &WireTimeouts,
    ) -> Result<PgConn, WireError> {
        let stream = match timeouts.connect {
            Some(deadline) => {
                let sock = addr
                    .to_socket_addrs()
                    .map_err(|e| WireError::connect(format!("cannot resolve {addr}: {e}")))?
                    .next()
                    .ok_or_else(|| WireError::connect(format!("{addr} resolves to nothing")))?;
                TcpStream::connect_timeout(&sock, deadline)
            }
            None => TcpStream::connect(addr),
        }
        .map_err(|e| WireError::connect(format!("cannot connect to {addr}: {e}")))?;
        timeouts
            .apply(&stream)
            .map_err(|e| WireError::connect(format!("cannot arm deadlines on {addr}: {e}")))?;

        let mut stream = stream;
        let mut reader = MessageReader::new(false);
        send_on(&mut stream, &FrontendMessage::Startup {
            params: vec![
                ("user".to_string(), creds.user.clone()),
                ("database".to_string(), creds.database.clone()),
            ],
        })?;
        // Authentication loop, then drain to ReadyForQuery.
        let mut durable = false;
        loop {
            match recv_on(&mut stream, &mut reader)? {
                BackendMessage::Authentication(AuthRequest::Ok) => break,
                BackendMessage::Authentication(AuthRequest::CleartextPassword) => {
                    send_on(&mut stream, &FrontendMessage::Password(creds.password.clone()))?;
                }
                BackendMessage::Authentication(AuthRequest::Md5Password { salt }) => {
                    let hashed = pgwire::md5_password(&creds.user, &creds.password, salt);
                    send_on(&mut stream, &FrontendMessage::Password(hashed))?;
                }
                BackendMessage::ParameterStatus { name, value } if name == "hyperq_durability" => {
                    durable = value == "on";
                }
                BackendMessage::ErrorResponse { code, message, .. } => {
                    return Err(connect_rejection(code, message));
                }
                _ => {}
            }
        }
        loop {
            match recv_on(&mut stream, &mut reader)? {
                BackendMessage::ReadyForQuery(_) => break,
                BackendMessage::ParameterStatus { name, value } if name == "hyperq_durability" => {
                    durable = value == "on";
                }
                BackendMessage::ErrorResponse { code, message, .. } => {
                    return Err(connect_rejection(code, message));
                }
                _ => {}
            }
        }
        Ok(PgConn {
            stream,
            reader,
            read_deadline: timeouts.read,
            durable,
            synced: true,
            out: Vec::new(),
        })
    }

    /// Whether the server advertised crash durability.
    pub(crate) fn durable(&self) -> bool {
        self.durable
    }

    /// Whether the last reply was read through to `ReadyForQuery`, so
    /// the connection can serve the next statement.
    pub(crate) fn synced(&self) -> bool {
        self.synced
    }

    /// Health check under an explicit deadline: `SELECT 1` must answer
    /// within `deadline` or the connection is presumed bad. The normal
    /// read deadline is restored afterwards.
    pub(crate) fn ping(&mut self, deadline: Option<Duration>) -> Result<(), WireError> {
        if deadline.is_some() {
            let _ = self.stream.set_read_timeout(deadline);
        }
        let result = self.send("SELECT 1", false).map(|_| ());
        if deadline.is_some() {
            let _ = self.stream.set_read_timeout(self.read_deadline);
        }
        result
    }

    /// Run one statement. Reads ask for binary results; everything else
    /// is a simple `Query`.
    pub(crate) fn exchange(
        &mut self,
        sql: &str,
        class: StatementClass,
    ) -> Result<BatchQueryResult, WireError> {
        self.send(sql, class == StatementClass::Read)
    }

    /// Send `sql` — as one extended-query batch requesting every result
    /// column in binary, or as a simple `Query` — and read its reply.
    fn send(&mut self, sql: &str, binary: bool) -> Result<BatchQueryResult, WireError> {
        self.out.clear();
        if binary {
            encode_extended_query(sql, Format::Binary, &mut self.out);
        } else {
            encode_frontend(&FrontendMessage::Query(sql.to_string()), &mut self.out);
        }
        self.synced = false;
        self.stream
            .write_all(&self.out)
            .map_err(|e| WireError::from_io("write to backend", &e))?;
        self.read_reply()
    }

    /// Read one statement's reply, whichever sub-protocol asked for it.
    /// Frames are walked in place in the reader's buffer; each `DataRow`
    /// field goes straight onto its column's builder. The stream is
    /// always drained to `ReadyForQuery` (when the connection survives),
    /// so a decode error poisons the result, not the connection; only a
    /// corrupt frame *length* — after which frame boundaries are
    /// unknowable — ends the read early.
    fn read_reply(&mut self) -> Result<BatchQueryResult, WireError> {
        let mut decoder: Option<BatchDecoder> = None;
        let mut tag: Option<String> = None;
        let mut error: Option<WireError> = None;
        loop {
            while let Some((ty, body)) =
                self.reader.next_backend_frame().map_err(|e| WireError::protocol(e.to_string()))?
            {
                if ty == b'D' {
                    if error.is_some() {
                        continue; // already poisoned; keep draining
                    }
                    // Do NOT smuggle a Null in: a field that fails to
                    // decode is a protocol-level error.
                    error = match decoder.as_mut() {
                        Some(d) => d.push_row(body).err().map(row_error),
                        None => Some(WireError::protocol("DataRow before RowDescription")),
                    };
                    continue;
                }
                match decode_backend(ty, body) {
                    Some(BackendMessage::RowDescription(fields)) => {
                        match BatchDecoder::new(&fields) {
                            Ok(d) => decoder = Some(d),
                            Err(e) => error = Some(row_error(e)),
                        }
                    }
                    Some(BackendMessage::CommandComplete(t)) => tag = Some(t),
                    Some(BackendMessage::ErrorResponse { code, message, .. }) => {
                        error = Some(WireError::from(DbError { code, message }));
                    }
                    Some(BackendMessage::ReadyForQuery(_)) => {
                        self.synced = true;
                        if let Some(e) = error {
                            return Err(e);
                        }
                        return Ok(match decoder {
                            Some(d) => {
                                let m = wire_metrics();
                                let (binary, text) = d.fields_decoded();
                                m.fields_binary.add(binary);
                                m.fields_text.add(text);
                                m.result_rows.add(d.rows() as u64);
                                BatchQueryResult::Batch(d.finish())
                            }
                            None => BatchQueryResult::Command(tag.unwrap_or_default()),
                        });
                    }
                    Some(_) => {}
                    None => {
                        error.get_or_insert_with(|| {
                            WireError::protocol(format!(
                                "malformed '{}' backend message body",
                                ty as char
                            ))
                        });
                    }
                }
            }
            fill(&mut self.stream, &mut self.reader)?;
        }
    }
}

/// The typed error for an undecodable `DataRow`, counted by cause.
fn row_error(e: RowError) -> WireError {
    let m = wire_metrics();
    if e.binary { &m.decode_errors_binary } else { &m.decode_errors_text }.inc();
    WireError::protocol(e.message)
}

fn send_on(stream: &mut TcpStream, msg: &FrontendMessage) -> Result<(), WireError> {
    let mut buf = Vec::new();
    encode_frontend(msg, &mut buf);
    stream
        .write_all(&buf)
        .map_err(|e| WireError::from_io("write to backend", &e))
}

/// One read from the socket, straight into the reader's buffer.
fn fill(stream: &mut TcpStream, reader: &mut MessageReader) -> Result<(), WireError> {
    match reader.fill_from(stream) {
        Ok(0) => Err(WireError::lost("backend closed the connection")),
        Ok(_) => Ok(()),
        Err(e) => Err(WireError::from_io("read from backend", &e)),
    }
}

fn recv_on(stream: &mut TcpStream, reader: &mut MessageReader) -> Result<BackendMessage, WireError> {
    loop {
        match reader.next_backend() {
            Ok(Some(m)) => return Ok(m),
            Ok(None) => fill(stream, reader)?,
            Err(e) => return Err(WireError::protocol(e.to_string())),
        }
    }
}

/// Classify an `ErrorResponse` received during session establishment.
fn connect_rejection(code: String, message: String) -> WireError {
    if code == "53300" {
        WireError::rejected(message)
    } else {
        WireError::from(DbError { code, message })
    }
}

/// The typed error for a connection lost under a non-idempotent
/// statement. Increments the durable-replay-skip counter when `durable`
/// (the session is re-established by the next statement's checkout).
fn non_idempotent_error(sql: &str, durable: bool, e: &WireError) -> WireError {
    if durable {
        // The backend journals every committed mutation to a WAL: if
        // the statement committed before the connection died, its
        // effects survived on disk, so the only ambiguity is *whether*
        // it committed — which a blind replay would not resolve (it
        // could apply the mutation twice). Skip the replay and tell the
        // caller to verify and re-issue.
        wire_metrics().replay_skipped_durable.inc();
        WireError::new(
            WireErrorKind::NonIdempotent,
            format!(
                "connection failed while a non-idempotent statement \
                 ({}) was in flight; replay skipped — the backend is \
                 durable, so if the statement committed its effects \
                 are preserved on disk; verify and re-issue: {e}",
                summarize(sql)
            ),
        )
    } else {
        WireError::new(
            WireErrorKind::NonIdempotent,
            format!(
                "connection failed while a non-idempotent statement \
                 ({}) was in flight; not retrying — the backend is not \
                 durable, so a committed result may already be lost and \
                 a replay could apply the mutation twice (enable \
                 durability on the backend with HQ_DATA_DIR to preserve \
                 committed effects across crashes): {e}",
                summarize(sql)
            ),
        )
    }
}

/// The typed error for a statement whose every attempt failed.
fn retries_exhausted(sql: &str, attempt: u32, max: u32, failure: &WireError) -> WireError {
    WireError::new(
        WireErrorKind::RetriesExhausted,
        format!(
            "{attempt} of {max} attempts failed for ({}); last failure: {failure}",
            summarize(sql)
        ),
    )
}

/// A gateway session implementing [`Backend`]: statements run on
/// connections checked out of a [`BackendPool`] — its own pool of one
/// when opened with [`PgWireBackend::connect`], a shared one when handed
/// out by [`BackendPool::session`] — under deadlines, with the session's
/// DDL journal replayed onto whichever connection a statement lands on
/// and transparent retry of what is safe to re-run.
pub struct PgWireBackend {
    pool: Arc<BackendPool>,
    id: u64,
    /// Session-establishment DDL journal: every successfully executed
    /// temp-table materialization, in order. Replayed onto a connection
    /// that lacks it (a fresh dial after a loss, or another session's
    /// connection after a reset) before the statement runs.
    journal: Vec<String>,
    /// Statements that reached a connection only on a retry, after an
    /// attempt lost one or could not open one (diagnostics; the chaos
    /// tests assert on it).
    reconnects: u64,
}

impl PgWireBackend {
    /// Connect, authenticate and wait for `ReadyForQuery`, using the
    /// default deadlines and retry policy.
    pub fn connect(addr: &str, creds: &Credentials) -> Result<Self, WireError> {
        Self::connect_with(addr, creds, WireTimeouts::default(), RetryPolicy::default())
    }

    /// Connect with explicit deadlines and retry policy: a session over
    /// a pool of one connection, dialed now so that a refused, rejected
    /// or garbled handshake is this call's typed error.
    pub fn connect_with(
        addr: &str,
        creds: &Credentials,
        timeouts: WireTimeouts,
        retry: RetryPolicy,
    ) -> Result<Self, WireError> {
        let cfg = PoolConfig { size: 1, timeouts, retry, ..PoolConfig::default() };
        let session = BackendPool::new(addr, creds, cfg).session();
        let conn = session.pool.checkout(session.id, &[])?;
        session.pool.release(conn);
        Ok(session)
    }

    pub(crate) fn new(pool: Arc<BackendPool>, id: u64) -> PgWireBackend {
        PgWireBackend { pool, id, journal: Vec::new(), reconnects: 0 }
    }

    /// The session-establishment DDL journal (diagnostics/tests).
    pub fn journal(&self) -> &[String] {
        &self.journal
    }

    /// One attempt at `sql`: check out a connection brought up to this
    /// session's state, run the statement, hand the connection back (or
    /// evict it when its reply was cut short). A connection lost under
    /// a mutation is the typed non-idempotent refusal, never a replay.
    fn attempt(
        &mut self,
        sql: &str,
        class: StatementClass,
        recovering: bool,
    ) -> Result<BatchQueryResult, WireError> {
        let mut conn = self.pool.checkout(self.id, &self.journal)?;
        if recovering {
            self.reconnects += 1;
            wire_metrics().reconnects.inc();
        }
        let result = conn.pg.exchange(sql, class);
        let durable = conn.pg.durable();
        if result.is_ok() && class == StatementClass::SessionDdl {
            self.journal.push(sql.to_string());
            conn.journaled(self.journal.len());
        }
        self.pool.release(conn);
        match result {
            Err(e) if e.retryable() && !class.replayable() => {
                Err(non_idempotent_error(sql, durable, &e))
            }
            other => other,
        }
    }
}

impl Backend for PgWireBackend {
    fn execute_sql_batch(&mut self, sql: &str) -> Result<Option<BatchQueryResult>, WireError> {
        let class = StatementClass::of(sql);
        let retry = self.pool.retry();
        let mut attempt: u32 = 1;
        loop {
            let failure = match self.attempt(sql, class, attempt > 1) {
                Ok(result) => return Ok(Some(result)),
                Err(e) if e.retryable() => e,
                Err(e) => return Err(e),
            };
            // Each attempt that cannot reach a connection burns one too,
            // so a dead backend cannot stall us in here forever.
            if attempt >= retry.max_attempts {
                return Err(retries_exhausted(sql, attempt, retry.max_attempts, &failure));
            }
            wire_metrics().retries.inc();
            std::thread::sleep(retry.backoff(attempt));
            attempt += 1;
        }
    }

    fn describe(&self) -> String {
        format!("pg-wire backend at {} (session {})", self.pool.addr(), self.id)
    }

    fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn durable(&self) -> bool {
        self.pool.durable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdb::server::{AuthMode, PgServer, ServerConfig};
    use pgdb::{Cell, PgType, QueryResult};
    use pgwire::codec::encode_backend;
    use pgwire::messages::{FieldDesc, TransactionStatus, TypeOid};
    use std::collections::HashMap;
    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn statement_classification() {
        assert_eq!(StatementClass::of("SELECT 1"), StatementClass::Read);
        assert_eq!(StatementClass::of("  with x as (select 1) select * from x"), StatementClass::Read);
        assert_eq!(
            StatementClass::of("CREATE TEMPORARY TABLE \"HQ_TEMP_1\" AS SELECT 1"),
            StatementClass::SessionDdl
        );
        assert_eq!(StatementClass::of("INSERT INTO t VALUES (1)"), StatementClass::Mutation);
        assert_eq!(StatementClass::of("CREATE TABLE t (x bigint)"), StatementClass::Mutation);
        assert_eq!(StatementClass::of("DELETE FROM t"), StatementClass::Mutation);
    }

    #[test]
    fn wire_backend_executes_queries_end_to_end() {
        let db = pgdb::Db::new();
        let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let creds = Credentials {
            user: "trader".into(),
            password: String::new(),
            database: "hist".into(),
        };
        let mut backend = PgWireBackend::connect(&server.addr.to_string(), &creds).unwrap();
        backend.execute_sql("CREATE TABLE t (x bigint, s varchar)").unwrap();
        backend.execute_sql("INSERT INTO t VALUES (1, 'a'), (2, NULL)").unwrap();
        match backend.execute_sql("SELECT x, s FROM t ORDER BY x ASC").unwrap() {
            QueryResult::Rows(rows) => {
                assert_eq!(rows.columns[0].ty, PgType::Int8);
                assert_eq!(rows.data[0], vec![Cell::Int(1), Cell::Text("a".into())]);
                assert_eq!(rows.data[1], vec![Cell::Int(2), Cell::Null]);
            }
            other => panic!("expected rows, got {other:?}"),
        }
        server.detach();
    }

    #[test]
    fn wire_backend_md5_authentication() {
        let db = pgdb::Db::new();
        let mut creds_map = HashMap::new();
        creds_map.insert("trader".to_string(), "s3cret".to_string());
        let server = PgServer::start(
            db,
            "127.0.0.1:0",
            ServerConfig { auth: AuthMode::Md5(creds_map), ..ServerConfig::default() },
        )
        .unwrap();
        let good = Credentials {
            user: "trader".into(),
            password: "s3cret".into(),
            database: "hist".into(),
        };
        assert!(PgWireBackend::connect(&server.addr.to_string(), &good).is_ok());
        let bad = Credentials { password: "nope".into(), ..good };
        assert!(PgWireBackend::connect(&server.addr.to_string(), &bad).is_err());
        server.detach();
    }

    #[test]
    fn wire_backend_surfaces_sql_errors() {
        let db = pgdb::Db::new();
        let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let creds = Credentials { user: "x".into(), ..Default::default() };
        let mut backend = PgWireBackend::connect(&server.addr.to_string(), &creds).unwrap();
        let err = backend.execute_sql("SELECT * FROM ghost").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::Db);
        assert_eq!(err.db.as_ref().unwrap().code, "42P01");
        // Connection remains usable after an error.
        assert!(backend.execute_sql("SELECT 1").is_ok());
        server.detach();
    }

    #[test]
    fn temporal_values_round_trip_over_the_wire() {
        let db = pgdb::Db::new();
        let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let creds = Credentials { user: "x".into(), ..Default::default() };
        let mut backend = PgWireBackend::connect(&server.addr.to_string(), &creds).unwrap();
        backend.execute_sql("CREATE TABLE t (d date, ts timestamp)").unwrap();
        backend
            .execute_sql("INSERT INTO t VALUES ('2016-06-26', '2016-06-26 09:30:00.000001')")
            .unwrap();
        match backend.execute_sql("SELECT d, ts FROM t").unwrap() {
            QueryResult::Rows(rows) => {
                assert_eq!(rows.data[0][0], Cell::Date(6021));
                assert_eq!(
                    rows.data[0][1],
                    Cell::Timestamp(6021 * 86_400_000_000 + 9 * 3_600_000_000 + 30 * 60_000_000 + 1)
                );
            }
            other => panic!("expected rows, got {other:?}"),
        }
        server.detach();
    }

    /// The shapes whose columns once mixed storage classes: the PG v3
    /// gateway answers the batch the in-process engine does, declared as
    /// PostgreSQL declares it and sent binary; a `bigint` branch beside a
    /// `varchar` one fails alike both ways, and not over zero rows.
    #[test]
    fn column_types_agree_between_direct_and_wire_backends() {
        use crate::backend::{Backend, DirectBackend};
        let db = pgdb::Db::new();
        let mut direct = DirectBackend::new(&db);
        direct.execute_sql("CREATE TABLE t (x bigint, f double precision, s varchar)").unwrap();
        direct.execute_sql("INSERT INTO t VALUES (1, 0.5, 'a'), (2, 1.5, 'b')").unwrap();
        let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let creds = Credentials { user: "x".into(), ..Default::default() };
        let mut wire = PgWireBackend::connect(&server.addr.to_string(), &creds).unwrap();
        let mut both = |sql: &str| {
            let batch = |b: &mut dyn Backend| match b.execute_sql_batch(sql) {
                Ok(Some(pgdb::BatchQueryResult::Batch(b))) => Ok(b),
                Ok(other) => panic!("{sql}: {other:?}"),
                Err(e) => Err(e.db.expect("a SQL error")),
            };
            (batch(&mut direct), batch(&mut wire))
        };
        for (sql, ty) in [
            ("SELECT CASE WHEN x = 1 THEN NULL ELSE x END AS a FROM t", PgType::Int8),
            ("SELECT coalesce(NULL, x) AS a FROM t", PgType::Int8),
            ("SELECT CASE WHEN x = 1 THEN x ELSE f END AS a FROM t", PgType::Float8),
            ("SELECT x AS a FROM t UNION ALL SELECT f AS a FROM t", PgType::Float8),
            ("SELECT a FROM (VALUES (1), (2.5)) AS v(a)", PgType::Float8),
        ] {
            let (Ok(a), Ok(b)) = both(sql) else { panic!("{sql} failed") };
            assert_eq!(a.schema[0].ty, ty, "{sql}");
            assert_eq!((&a.schema, a.to_rows()), (&b.schema, b.to_rows()), "{sql}");
            let formats = pgwire::rows::result_formats(&a, &[1]).unwrap();
            assert_eq!(formats, vec![pgwire::messages::Format::Binary], "{sql}");
        }
        let mismatch = "SELECT CASE WHEN x = 1 THEN x ELSE s END AS a FROM t";
        let (Err(a), Err(b)) = both(mismatch) else { panic!("{mismatch} succeeded") };
        assert_eq!((a.code.as_str(), &a), ("42804", &b));
        let (Ok(a), Ok(b)) = both(&format!("{mismatch} WHERE x > 5")) else {
            panic!("zero rows failed")
        };
        assert_eq!((a.rows(), &a.schema), (0, &b.schema));
        server.detach();
    }

    /// A hand-rolled fake PG server speaking just enough of the
    /// protocol to misbehave on demand.
    fn fake_server_once(
        responses: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> std::net::SocketAddr {
        fake_server(false, responses)
    }

    /// Like [`fake_server_once`], but advertising crash durability
    /// during session establishment.
    fn fake_durable_server_once(
        responses: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> std::net::SocketAddr {
        fake_server(true, responses)
    }

    fn fake_server(
        durable: bool,
        responses: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Swallow the startup packet.
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf).unwrap();
            // Auth OK (+ durability advertisement) + ReadyForQuery.
            let mut out = Vec::new();
            encode_backend(&BackendMessage::Authentication(AuthRequest::Ok), &mut out);
            if durable {
                encode_backend(
                    &BackendMessage::ParameterStatus {
                        name: "hyperq_durability".into(),
                        value: "on".into(),
                    },
                    &mut out,
                );
            }
            encode_backend(
                &BackendMessage::ReadyForQuery(TransactionStatus::Idle),
                &mut out,
            );
            stream.write_all(&out).unwrap();
            responses(&mut stream);
        });
        addr
    }

    #[test]
    fn undecodable_cell_text_is_a_protocol_error_not_a_silent_null() {
        // Regression: unparseable cell text used to become Cell::Null
        // via unwrap_or — silent data corruption.
        let addr = fake_server_once(|stream| {
            // Wait for the query, then answer with a bigint column whose
            // cell text is not a number.
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf).unwrap();
            let mut out = Vec::new();
            encode_backend(
                &BackendMessage::RowDescription(vec![FieldDesc::text("x", TypeOid::Int8)]),
                &mut out,
            );
            encode_backend(&BackendMessage::DataRow(vec![Some("notanumber".into())]), &mut out);
            encode_backend(&BackendMessage::CommandComplete("SELECT 1".into()), &mut out);
            encode_backend(&BackendMessage::ReadyForQuery(TransactionStatus::Idle), &mut out);
            stream.write_all(&out).unwrap();
            // Keep the connection open until the client is done.
            let _ = stream.read(&mut buf);
        });
        let creds = Credentials { user: "x".into(), ..Default::default() };
        let mut backend = PgWireBackend::connect_with(
            &addr.to_string(),
            &creds,
            WireTimeouts::default(),
            RetryPolicy::no_retry(),
        )
        .unwrap();
        let err = backend.execute_sql("SELECT x FROM t").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::Protocol, "{err}");
        assert!(err.message.contains("notanumber"), "{err}");
    }

    /// A fake server that answers each request it reads with the next
    /// scripted reply and hands back the requests it saw.
    fn scripted_server(
        replies: Vec<Vec<u8>>,
    ) -> (std::net::SocketAddr, std::sync::mpsc::Receiver<Vec<u8>>) {
        let (seen, requests) = std::sync::mpsc::channel();
        let addr = fake_server_once(move |stream| {
            let mut buf = [0u8; 4096];
            for reply in replies {
                let n = stream.read(&mut buf).unwrap();
                seen.send(buf[..n].to_vec()).unwrap();
                stream.write_all(&reply).unwrap();
            }
            // Keep the connection open until the client is done.
            let _ = stream.read(&mut buf);
        });
        (addr, requests)
    }

    /// The frames of one reply: `RowDescription` for `fields` (skipped
    /// when empty), the given `DataRow` bodies, `CommandComplete`,
    /// `ReadyForQuery`.
    fn reply(fields: &[FieldDesc], rows: &[Vec<u8>]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_backend(&BackendMessage::ParseComplete, &mut out);
        encode_backend(&BackendMessage::BindComplete, &mut out);
        if !fields.is_empty() {
            encode_backend(&BackendMessage::RowDescription(fields.to_vec()), &mut out);
        }
        for body in rows {
            out.push(b'D');
            out.extend_from_slice(&(body.len() as i32 + 4).to_be_bytes());
            out.extend_from_slice(body);
        }
        encode_backend(&BackendMessage::CommandComplete(format!("SELECT {}", rows.len())), &mut out);
        encode_backend(&BackendMessage::ReadyForQuery(TransactionStatus::Idle), &mut out);
        out
    }

    /// A `DataRow` body: field count, then `(length, bytes)` pairs.
    fn row(count: i16, fields: &[(i32, &[u8])]) -> Vec<u8> {
        let mut body = count.to_be_bytes().to_vec();
        for (len, bytes) in fields {
            body.extend_from_slice(&len.to_be_bytes());
            body.extend_from_slice(bytes);
        }
        body
    }

    #[test]
    fn bad_binary_replies_are_typed_protocol_errors_on_a_connection_that_keeps_working() {
        let price = |format| FieldDesc { name: "Price".into(), type_oid: TypeOid::Float8, format };
        let good = row(1, &[(8, &101.5f64.to_be_bytes())]);
        let script: Vec<(Vec<u8>, &str)> = vec![
            // Fixed-width field with the wrong length.
            (reply(&[price(1)], &[good.clone(), row(1, &[(7, &[0; 7])])]),
             "column \"Price\" (double precision): binary field is 7 bytes, expected 8"),
            // Field count that is not RowDescription's.
            (reply(&[price(1)], &[row(2, &[(8, &[0; 8]), (8, &[0; 8])])]),
             "DataRow has 2 fields, RowDescription declared 1"),
            // Format code that is neither text nor binary.
            (reply(&[price(2)], std::slice::from_ref(&good)),
             "column \"Price\" (double precision): unknown format code 2"),
            // Negative length other than -1.
            (reply(&[price(1)], &[row(1, &[(-7, &[])])]), "field length -7 is negative"),
            // Rows nobody described.
            (reply(&[], std::slice::from_ref(&good)), "DataRow before RowDescription"),
            // Field running past its frame.
            (reply(&[price(1)], &[row(1, &[(800, &[0; 8])])]), "runs past the end of the DataRow"),
            // Bytes that are not text in a symbol column.
            (reply(&[FieldDesc { name: "Sym".into(), type_oid: TypeOid::Varchar, format: 1 }],
                   &[row(1, &[(2, &[0xC3, 0x28])])]),
             "column \"Sym\" (varchar): field is not UTF-8"),
        ];
        let mut replies: Vec<Vec<u8>> = script.iter().map(|(r, _)| r.clone()).collect();
        replies.push(reply(&[price(1)], &[good.clone(), row(1, &[(-1, &[])])]));
        let (addr, _requests) = scripted_server(replies);
        let creds = Credentials { user: "x".into(), ..Default::default() };
        let mut backend = PgWireBackend::connect_with(
            &addr.to_string(),
            &creds,
            WireTimeouts::default(),
            RetryPolicy::no_retry(),
        )
        .unwrap();
        let errors_before = wire_metrics().decode_errors_binary.get();
        for (_, want) in &script {
            let err = backend.execute_sql("SELECT Price FROM t").unwrap_err();
            assert_eq!(err.kind, WireErrorKind::Protocol, "{err}");
            assert!(err.message.contains(want), "{err} does not mention {want:?}");
        }
        assert!(wire_metrics().decode_errors_binary.get() >= errors_before + 4);
        // Every reply was drained to ReadyForQuery: the next statement
        // on the same connection reads its own answer.
        match backend.execute_sql("SELECT Price FROM t").unwrap() {
            QueryResult::Rows(rows) => {
                assert_eq!(rows.data, vec![vec![Cell::Float(101.5)], vec![Cell::Null]]);
            }
            other => panic!("expected rows, got {other:?}"),
        }
        assert_eq!(backend.reconnects(), 0);
    }

    #[test]
    fn reads_go_out_as_one_extended_batch_and_everything_else_as_a_simple_query() {
        let ok = |tag: &str| {
            let mut out = Vec::new();
            encode_backend(&BackendMessage::CommandComplete(tag.into()), &mut out);
            encode_backend(&BackendMessage::ReadyForQuery(TransactionStatus::Idle), &mut out);
            out
        };
        let (addr, requests) =
            scripted_server(vec![ok("SELECT 0"), ok("INSERT 0 1"), ok("SELECT 1"), ok("SELECT 1")]);
        let creds = Credentials { user: "x".into(), ..Default::default() };
        let mut conn = PgConn::open(&addr.to_string(), &creds, &WireTimeouts::default()).unwrap();
        for sql in [
            "SELECT x FROM t",
            "INSERT INTO t VALUES (1)",
            "CREATE TEMPORARY TABLE scratch AS SELECT 1",
        ] {
            conn.exchange(sql, StatementClass::of(sql)).unwrap();
        }
        conn.ping(None).unwrap();
        // The message types of each request, in the order they arrived
        // in its single write.
        let kinds = |request: Vec<u8>| {
            let mut reader = MessageReader::new(false);
            reader.feed(&request);
            let mut kinds = String::new();
            while let Some(msg) = reader.next_frontend().unwrap() {
                kinds.push(match msg {
                    FrontendMessage::Query(_) => 'Q',
                    FrontendMessage::Parse { .. } => 'P',
                    FrontendMessage::Bind { result_formats, .. } => {
                        assert_eq!(result_formats, vec![1], "every column asked for in binary");
                        'B'
                    }
                    FrontendMessage::Describe { kind: b'P', .. } => 'D',
                    FrontendMessage::Execute { .. } => 'E',
                    FrontendMessage::Sync => 'S',
                    other => panic!("unexpected {other:?}"),
                });
            }
            assert!(!reader.has_partial(), "a request is whole frames");
            kinds
        };
        let seen: Vec<String> = requests.try_iter().map(kinds).collect();
        assert_eq!(seen, ["PBDES", "Q", "Q", "Q"]);
    }

    #[test]
    fn session_ddl_is_journaled_and_reads_are_not() {
        let db = pgdb::Db::new();
        let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let creds = Credentials { user: "x".into(), ..Default::default() };
        let mut backend = PgWireBackend::connect(&server.addr.to_string(), &creds).unwrap();
        backend.execute_sql("CREATE TABLE base (x bigint)").unwrap();
        backend.execute_sql("INSERT INTO base VALUES (1)").unwrap();
        backend
            .execute_sql("CREATE TEMPORARY TABLE \"HQ_TEMP_1\" AS SELECT x FROM base")
            .unwrap();
        backend.execute_sql("SELECT x FROM \"HQ_TEMP_1\"").unwrap();
        assert_eq!(backend.journal().len(), 1);
        assert!(backend.journal()[0].starts_with("CREATE TEMPORARY TABLE"));
        server.detach();
    }

    #[test]
    fn read_deadline_trips_on_a_silent_backend() {
        // A server that accepts, authenticates, then never answers the
        // query.
        let addr = fake_server_once(|stream| {
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(500));
        });
        let creds = Credentials { user: "x".into(), ..Default::default() };
        let timeouts = WireTimeouts {
            read: Some(std::time::Duration::from_millis(50)),
            ..WireTimeouts::default()
        };
        let mut backend =
            PgWireBackend::connect_with(&addr.to_string(), &creds, timeouts, RetryPolicy::no_retry())
                .unwrap();
        let err = backend.execute_sql("SELECT 1").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::Timeout, "{err}");
    }

    #[test]
    fn corrupt_length_prefix_from_backend_is_a_protocol_error() {
        let addr = fake_server_once(|stream| {
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf).unwrap();
            // A 'T' frame declaring 512 MiB.
            let mut evil = vec![b'T'];
            evil.extend_from_slice(&(512 * 1024 * 1024i32).to_be_bytes());
            stream.write_all(&evil).unwrap();
            let _ = stream.read(&mut buf);
        });
        let creds = Credentials { user: "x".into(), ..Default::default() };
        let mut backend = PgWireBackend::connect_with(
            &addr.to_string(),
            &creds,
            WireTimeouts::default(),
            RetryPolicy::no_retry(),
        )
        .unwrap();
        let err = backend.execute_sql("SELECT 1").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::Protocol, "{err}");
    }

    #[test]
    fn connection_refused_is_a_typed_connect_failure() {
        // Grab a port that nothing is listening on.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let creds = Credentials { user: "x".into(), ..Default::default() };
        let timeouts = WireTimeouts {
            connect: Some(std::time::Duration::from_millis(250)),
            ..WireTimeouts::default()
        };
        let t0 = std::time::Instant::now();
        let Err(err) = PgWireBackend::connect_with(
            &addr.to_string(),
            &creds,
            timeouts,
            RetryPolicy::no_retry(),
        ) else {
            panic!("connect to a dead port succeeded");
        };
        assert_eq!(err.kind, WireErrorKind::ConnectFailed, "{err}");
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn durability_advertisement_is_parsed_from_parameter_status() {
        // A non-durable pgdb server advertises "off" → false.
        let db = pgdb::Db::new();
        let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let creds = Credentials { user: "x".into(), ..Default::default() };
        let backend = PgWireBackend::connect(&server.addr.to_string(), &creds).unwrap();
        assert!(!Backend::durable(&backend));
        server.detach();

        // A fake server advertising "on" → true.
        let addr = fake_durable_server_once(|stream| {
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf);
        });
        let backend = PgWireBackend::connect_with(
            &addr.to_string(),
            &creds,
            WireTimeouts::default(),
            RetryPolicy::no_retry(),
        )
        .unwrap();
        assert!(Backend::durable(&backend));
    }

    #[test]
    fn durable_server_advertises_on_over_the_wire() {
        let dir = std::env::temp_dir().join(format!("hq-gw-dur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = pgdb::Db::open(&pgdb::DurabilityOptions::new(&dir)).unwrap();
        let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let creds = Credentials { user: "x".into(), ..Default::default() };
        let backend = PgWireBackend::connect(&server.addr.to_string(), &creds).unwrap();
        assert!(Backend::durable(&backend));
        server.detach();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_idempotent_loss_on_durable_backend_is_a_replay_skip() {
        // The server advertises durability, then dies mid-mutation.
        let addr = fake_durable_server_once(|stream| {
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf).unwrap(); // the INSERT
            // Drop the connection without answering.
        });
        let creds = Credentials { user: "x".into(), ..Default::default() };
        let mut backend = PgWireBackend::connect_with(
            &addr.to_string(),
            &creds,
            WireTimeouts::default(),
            RetryPolicy::no_retry(),
        )
        .unwrap();
        let before = wire_metrics().replay_skipped_durable.get();
        let err = backend.execute_sql("INSERT INTO t VALUES (1)").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::NonIdempotent, "{err}");
        assert!(err.message.contains("replay skipped"), "{err}");
        assert!(err.message.contains("preserved on disk"), "{err}");
        assert_eq!(wire_metrics().replay_skipped_durable.get(), before + 1);
    }

    #[test]
    fn non_idempotent_loss_on_volatile_backend_points_at_durability() {
        let addr = fake_server_once(|stream| {
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf).unwrap();
        });
        let creds = Credentials { user: "x".into(), ..Default::default() };
        let mut backend = PgWireBackend::connect_with(
            &addr.to_string(),
            &creds,
            WireTimeouts::default(),
            RetryPolicy::no_retry(),
        )
        .unwrap();
        let err = backend.execute_sql("INSERT INTO t VALUES (1)").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::NonIdempotent, "{err}");
        assert!(err.message.contains("not durable"), "{err}");
        assert!(err.message.contains("HQ_DATA_DIR"), "{err}");
    }
}
