//! PG v3 TCP server.
//!
//! Start-up → authentication (trust, clear text or MD5 — the mechanisms
//! paper §4.2 lists) → `ReadyForQuery` → a loop of requests answered
//! with `RowDescription` + streamed `DataRow`s + `CommandComplete` (the
//! row-oriented stream of Figure 5). A simple `Query` is answered in PG
//! text; the extended-query messages (`Parse`/`Bind`/`Describe`/
//! `Execute`/`Sync` on the unnamed statement and portal) let a client
//! ask for binary result columns, the only way PG v3 allows it. Either
//! way the `DataRow`s are written column-wise, straight from the
//! executor's vectors into the connection's output buffer
//! (`pgwire::rows`).
//!
//! The protocol itself lives in a sans-io state machine,
//! [`PgConnMachine`]: bytes in, bytes out, no socket in sight. The
//! `netpool` readiness scheduler drives it: every accepted socket is
//! registered there, parked while idle and dispatched to a bounded
//! worker pool when the peer speaks. No connection owns a thread.
//!
//! Robustness: the accept loop survives transient `accept()` errors
//! with a capped exponential backoff, a configurable connection cap
//! turns overload into a clean protocol-level rejection (SQLSTATE
//! 53300, like PostgreSQL), and malformed frames are answered with an
//! `08P01` protocol-violation error instead of killing the process or
//! hanging the peer.

use crate::engine::{BatchQueryResult, Db, DbError, Session};
use crate::sql::ast::Stmt;
use crate::sql::parse_statement;
use crate::types::{Column, PgType};
use colstore::{Batch, ColumnVec, Validity};
use netpool::{Acceptor, HandlerControl, IoModel, SessionHandler};
use pgwire::codec::{encode_backend, MessageReader};
use pgwire::messages::{AuthRequest, BackendMessage, Format, FrontendMessage, TransactionStatus};
use pgwire::rows::{encode_data_rows, field_descs, result_formats};
use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Authentication policy.
#[derive(Debug, Clone, Default)]
pub enum AuthMode {
    /// Accept everyone.
    #[default]
    Trust,
    /// Request a clear-text password and check it against the map.
    Cleartext(HashMap<String, String>),
    /// Request an MD5-hashed password.
    Md5(HashMap<String, String>),
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Authentication policy.
    pub auth: AuthMode,
    /// Concurrent-connection ceiling; connection attempts beyond it are
    /// rejected with SQLSTATE 53300 ("too many connections") after the
    /// start-up packet, mirroring PostgreSQL.
    pub max_connections: usize,
    /// Nothing reads it: there is one connection layer. Goes with ROADMAP item 8 step A.
    pub io_model: IoModel,
    /// Dispatch threads of the connection scheduler; `0` defers to
    /// `HQ_NET_WORKERS` (then a small built-in default).
    pub net_workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            auth: AuthMode::default(),
            max_connections: 64,
            io_model: IoModel::Multiplexed,
            net_workers: 0,
        }
    }
}

/// A running PG v3 server.
pub struct PgServer {
    /// Bound address (useful with port 0).
    pub addr: std::net::SocketAddr,
    acceptor: Acceptor,
}

impl PgServer {
    /// Start serving `db` on `bind_addr` (e.g. `127.0.0.1:0`).
    pub fn start(db: Db, bind_addr: &str, config: ServerConfig) -> std::io::Result<PgServer> {
        let listener = TcpListener::bind(bind_addr)?;
        let workers = config.net_workers;
        let active = Arc::new(AtomicUsize::new(0));
        let acceptor = Acceptor::start(listener, workers, None, move |_peer| {
            let slot = active.fetch_add(1, Ordering::SeqCst);
            let reject = slot >= config.max_connections;
            let guard = ConnGuard(Arc::clone(&active));
            Box::new(PgConnMachine::new(db.clone(), config.auth.clone(), reject, guard))
        })?;
        Ok(PgServer { addr: acceptor.addr(), acceptor })
    }

    /// Stop accepting, close every connection and join every thread the
    /// server started.
    pub fn stop(self) {
        self.acceptor.stop();
    }

    /// Detach the accept thread (it ends when the process does).
    pub fn detach(self) {
        self.acceptor.detach();
    }
}

fn queries_counter() -> &'static Arc<obs::Counter> {
    static COUNTER: std::sync::OnceLock<Arc<obs::Counter>> = std::sync::OnceLock::new();
    COUNTER.get_or_init(|| obs::global_registry().counter("pgdb_queries_total"))
}

/// Releases the connection-cap slot when the connection ends.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn emit(out: &mut Vec<u8>, msg: &BackendMessage) {
    encode_backend(msg, out);
}

fn emit_error(out: &mut Vec<u8>, severity: &str, code: &str, message: impl Into<String>) {
    emit(
        out,
        &BackendMessage::ErrorResponse {
            severity: severity.into(),
            code: code.into(),
            message: message.into(),
        },
    );
}

fn emit_db_error(out: &mut Vec<u8>, e: &DbError) {
    emit_error(out, "ERROR", &e.code, e.message.as_str());
}

fn emit_ready(out: &mut Vec<u8>) {
    emit(out, &BackendMessage::ReadyForQuery(TransactionStatus::Idle));
}

/// `RowDescription` for a result whose columns travel in `formats`.
fn emit_row_description(out: &mut Vec<u8>, schema: &[Column], formats: &[Format]) {
    emit(out, &BackendMessage::RowDescription(field_descs(schema, formats)));
}

/// Admin path (observability): `\metrics` or `SHOW metrics` answers with
/// the process-wide Prometheus dump as a one-column result set, without
/// entering the SQL engine. Operators can point any PG client at the
/// server to scrape it.
fn is_metrics_query(sql: &str) -> bool {
    sql == "\\metrics" || sql.eq_ignore_ascii_case("show metrics")
}

fn metrics_batch() -> Batch {
    let lines: Vec<String> =
        obs::global_registry().render_prometheus().lines().map(str::to_string).collect();
    let n = lines.len();
    Batch::new(
        vec![Column::new("metrics", PgType::Text)],
        vec![ColumnVec::Text(lines, Validity::all_valid(n))],
        n,
    )
}

/// What `Parse` leaves behind: the unnamed prepared statement.
#[derive(Clone)]
enum Prepared {
    /// An empty query string.
    Empty,
    /// The metrics admin query.
    Metrics,
    /// A parsed SQL statement.
    Sql(Box<Stmt>),
}

impl Prepared {
    fn returns_rows(&self) -> bool {
        match self {
            Prepared::Empty => false,
            Prepared::Metrics => true,
            Prepared::Sql(stmt) => matches!(**stmt, Stmt::Select(_)),
        }
    }
}

/// What `Bind` leaves behind: the unnamed portal.
struct Portal {
    /// The statement, until `Describe` or `Execute` runs it.
    statement: Option<Prepared>,
    /// Result-format codes as the client sent them.
    result_formats: Vec<i16>,
    /// The result, once run and not yet sent.
    result: Option<BatchQueryResult>,
}

/// An authenticated connection: the engine session plus what the
/// extended-query messages have set up so far.
struct Ready {
    session: Session,
    statement: Option<Prepared>,
    portal: Option<Portal>,
    /// An extended-query message failed: discard everything up to the
    /// next `Sync`, as PostgreSQL does.
    skipping: bool,
}

/// Where the conversation stands.
enum ConnState {
    /// Waiting for the start-up packet.
    Startup,
    /// Password requested, waiting for the `Password` message.
    AwaitPassword { user: String, md5_salt: Option<[u8; 4]> },
    /// Authenticated; requests drive the engine session.
    Ready(Box<Ready>),
}

/// The PG v3 protocol as a sans-io state machine: raw bytes in,
/// response bytes out, a [`HandlerControl`] verdict per dispatch. The
/// per-connection engine session (and its temp tables) lives inside, so
/// a parked session keeps its state while no thread holds it.
pub struct PgConnMachine {
    db: Db,
    auth: AuthMode,
    /// Over the connection cap: answer the start-up packet with 53300
    /// and close (a protocol-level rejection, not a TCP reset).
    reject: bool,
    reader: MessageReader,
    state: ConnState,
    _guard: Option<ConnGuard>,
}

impl PgConnMachine {
    fn new(db: Db, auth: AuthMode, reject: bool, guard: ConnGuard) -> PgConnMachine {
        PgConnMachine {
            db,
            auth,
            reject,
            reader: MessageReader::new(true),
            state: ConnState::Startup,
            _guard: Some(guard),
        }
    }

    fn handle_msg(&mut self, msg: FrontendMessage, out: &mut Vec<u8>) -> HandlerControl {
        match std::mem::replace(&mut self.state, ConnState::Startup) {
            ConnState::Startup => match msg {
                FrontendMessage::Startup { params } => {
                    if self.reject {
                        emit_error(out, "FATAL", "53300", "too many connections");
                        return HandlerControl::Close;
                    }
                    let user = params
                        .iter()
                        .find(|(k, _)| k == "user")
                        .map(|(_, v)| v.clone())
                        .unwrap_or_default();
                    match &self.auth {
                        AuthMode::Trust => self.complete_auth(out),
                        AuthMode::Cleartext(_) => {
                            emit(out, &BackendMessage::Authentication(AuthRequest::CleartextPassword));
                            self.state = ConnState::AwaitPassword { user, md5_salt: None };
                        }
                        AuthMode::Md5(_) => {
                            let salt = [0x13, 0x37, 0xBE, 0xEF];
                            emit(out, &BackendMessage::Authentication(AuthRequest::Md5Password { salt }));
                            self.state = ConnState::AwaitPassword { user, md5_salt: Some(salt) };
                        }
                    }
                    HandlerControl::Continue
                }
                // Anything else before start-up is ignored.
                _ => HandlerControl::Continue,
            },
            ConnState::AwaitPassword { user, md5_salt } => match msg {
                FrontendMessage::Password(pw) => {
                    let ok = match (&self.auth, md5_salt) {
                        (AuthMode::Cleartext(creds), _) => {
                            creds.get(&user).map(|expect| *expect == pw).unwrap_or(false)
                        }
                        (AuthMode::Md5(creds), Some(salt)) => creds
                            .get(&user)
                            .map(|expect| pgwire::md5_password(&user, expect, salt) == pw)
                            .unwrap_or(false),
                        _ => false,
                    };
                    if !ok {
                        emit_error(
                            out,
                            "FATAL",
                            "28P01",
                            format!("password authentication failed for user \"{user}\""),
                        );
                        return HandlerControl::Close;
                    }
                    self.complete_auth(out);
                    HandlerControl::Continue
                }
                FrontendMessage::Terminate => HandlerControl::Close,
                _ => {
                    self.state = ConnState::AwaitPassword { user, md5_salt };
                    HandlerControl::Continue
                }
            },
            ConnState::Ready(mut ready) => {
                if matches!(msg, FrontendMessage::Terminate) {
                    return HandlerControl::Close;
                }
                ready.handle(msg, out);
                self.state = ConnState::Ready(ready);
                HandlerControl::Continue
            }
        }
    }

    fn complete_auth(&mut self, out: &mut Vec<u8>) {
        emit(out, &BackendMessage::Authentication(AuthRequest::Ok));
        emit(
            out,
            &BackendMessage::ParameterStatus {
                name: "server_version".into(),
                value: "9.2-hyperq-pgdb".into(),
            },
        );
        // Advertise durability so gateways know committed effects
        // survive a crash (they adjust their non-idempotent replay
        // policy on it).
        emit(
            out,
            &BackendMessage::ParameterStatus {
                name: "hyperq_durability".into(),
                value: if self.db.is_durable() { "on" } else { "off" }.into(),
            },
        );
        emit(
            out,
            &BackendMessage::BackendKeyData { pid: std::process::id() as i32, secret: 0 },
        );
        emit_ready(out);
        self.state = ConnState::Ready(Box::new(Ready {
            session: self.db.session(),
            statement: None,
            portal: None,
            skipping: false,
        }));
    }
}

impl SessionHandler for PgConnMachine {
    fn on_bytes(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> HandlerControl {
        self.reader.feed(bytes);
        loop {
            match self.reader.next_frontend() {
                Ok(Some(msg)) => {
                    if self.handle_msg(msg, out) == HandlerControl::Close {
                        return HandlerControl::Close;
                    }
                }
                Ok(None) => return HandlerControl::Continue,
                Err(e) => {
                    emit_error(out, "FATAL", "08P01", e.to_string());
                    return HandlerControl::Close;
                }
            }
        }
    }

    fn mid_frame(&self) -> bool {
        self.reader.has_partial()
    }
}

impl Ready {
    fn handle(&mut self, msg: FrontendMessage, out: &mut Vec<u8>) {
        if self.skipping && !matches!(msg, FrontendMessage::Sync) {
            return;
        }
        match msg {
            FrontendMessage::Query(sql) => {
                // A simple query replaces the unnamed statement and
                // portal, like any other use of them.
                self.statement = None;
                self.portal = None;
                run_query(&mut self.session, &sql, out);
            }
            FrontendMessage::Sync => {
                self.skipping = false;
                emit_ready(out);
            }
            extended => {
                if let Err(e) = self.extended(extended, out) {
                    emit_db_error(out, &e);
                    self.skipping = true;
                }
            }
        }
    }

    /// One extended-query message. An error is reported once and
    /// everything up to the next `Sync` is then discarded.
    fn extended(&mut self, msg: FrontendMessage, out: &mut Vec<u8>) -> Result<(), DbError> {
        let unsupported = |what: &str| DbError { code: "0A000".into(), message: what.into() };
        let unnamed_only = |name: &str| {
            if name.is_empty() {
                Ok(())
            } else {
                Err(unsupported("only the unnamed prepared statement and portal are supported"))
            }
        };
        let no_portal =
            || DbError { code: "34000".into(), message: "portal \"\" does not exist".into() };
        match msg {
            FrontendMessage::Parse { statement, sql, .. } => {
                unnamed_only(&statement)?;
                let mut statements = split_statements(&sql);
                if statements.len() > 1 {
                    return Err(DbError::syntax(
                        "cannot insert multiple commands into a prepared statement",
                    ));
                }
                self.portal = None;
                self.statement = Some(match statements.pop() {
                    None => Prepared::Empty,
                    Some(sql) if is_metrics_query(&sql) => Prepared::Metrics,
                    Some(sql) => Prepared::Sql(Box::new(parse_statement(&sql)?)),
                });
                emit(out, &BackendMessage::ParseComplete);
            }
            FrontendMessage::Bind { portal, statement, params, result_formats, .. } => {
                unnamed_only(&portal)?;
                unnamed_only(&statement)?;
                if !params.is_empty() {
                    return Err(unsupported("statement parameters are not supported"));
                }
                let prepared = self.statement.clone().ok_or_else(|| DbError {
                    code: "26000".into(),
                    message: "unnamed prepared statement does not exist".into(),
                })?;
                self.portal =
                    Some(Portal { statement: Some(prepared), result_formats, result: None });
                emit(out, &BackendMessage::BindComplete);
            }
            FrontendMessage::Describe { kind: b'P', name } => {
                unnamed_only(&name)?;
                let portal = self.portal.as_mut().ok_or_else(no_portal)?;
                // The engine learns a result's columns by producing it,
                // so a row-returning portal runs here and `Execute`
                // sends what was found; anything with effects waits for
                // `Execute`.
                if portal.statement.as_ref().is_some_and(Prepared::returns_rows) {
                    portal.run(&mut self.session)?;
                }
                match &portal.result {
                    Some(BatchQueryResult::Batch(batch)) => {
                        let formats = portal.formats(batch)?;
                        emit_row_description(out, &batch.schema, &formats);
                    }
                    _ => emit(out, &BackendMessage::NoData),
                }
            }
            FrontendMessage::Describe { .. } => {
                return Err(unsupported("only portals can be described"));
            }
            FrontendMessage::Execute { portal, max_rows } => {
                unnamed_only(&portal)?;
                if max_rows != 0 {
                    return Err(unsupported("row-limited execution is not supported"));
                }
                let mut portal = self.portal.take().ok_or_else(no_portal)?;
                portal.run(&mut self.session)?;
                match portal.result.take() {
                    Some(BatchQueryResult::Batch(batch)) => {
                        let formats = portal.formats(&batch)?;
                        encode_data_rows(&batch, &formats, out);
                        emit(out, &BackendMessage::CommandComplete(format!("SELECT {}", batch.rows())));
                    }
                    Some(BatchQueryResult::Command(tag)) => {
                        emit(out, &BackendMessage::CommandComplete(tag));
                    }
                    None => emit(out, &BackendMessage::EmptyQueryResponse),
                }
            }
            // Start-up and password messages have no meaning here.
            _ => {}
        }
        Ok(())
    }
}

impl Portal {
    /// Run the statement, once.
    fn run(&mut self, session: &mut Session) -> Result<(), DbError> {
        self.result = match self.statement.take() {
            None => return Ok(()),
            Some(Prepared::Empty) => None,
            Some(Prepared::Metrics) => Some(BatchQueryResult::Batch(metrics_batch())),
            Some(Prepared::Sql(stmt)) => {
                queries_counter().inc();
                Some(session.execute_stmt(*stmt)?)
            }
        };
        Ok(())
    }

    fn formats(&self, batch: &Batch) -> Result<Vec<Format>, DbError> {
        result_formats(batch, &self.result_formats)
            .map_err(|message| DbError { code: "08P01".into(), message })
    }
}

/// `RowDescription`, the rows and `CommandComplete` of one text-format
/// result.
fn emit_text_result(out: &mut Vec<u8>, batch: &Batch) {
    let formats = vec![Format::Text; batch.schema.len()];
    emit_row_description(out, &batch.schema, &formats);
    encode_data_rows(batch, &formats, out);
    emit(out, &BackendMessage::CommandComplete(format!("SELECT {}", batch.rows())));
}

/// One `Query` message: split, execute, write each result, then
/// `ReadyForQuery`. A statement that fails is answered with an
/// `ErrorResponse` alone — it has produced no rows — and ends the
/// message.
fn run_query(session: &mut Session, sql: &str, out: &mut Vec<u8>) {
    let trimmed = sql.trim();
    if trimmed.is_empty() {
        emit(out, &BackendMessage::EmptyQueryResponse);
    } else if is_metrics_query(trimmed) {
        emit_text_result(out, &metrics_batch());
    } else {
        queries_counter().inc();
        // Multiple statements separated by ';'.
        for stmt_sql in split_statements(trimmed) {
            match session.execute_batch(&stmt_sql) {
                Ok(BatchQueryResult::Batch(batch)) => emit_text_result(out, &batch),
                Ok(BatchQueryResult::Command(tag)) => {
                    emit(out, &BackendMessage::CommandComplete(tag))
                }
                Err(e) => {
                    emit_db_error(out, &e);
                    break;
                }
            }
        }
    }
    emit_ready(out);
}

/// Split on top-level semicolons (quotes respected).
fn split_statements(sql: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut in_ident = false;
    for c in sql.chars() {
        match c {
            '\'' if !in_ident => in_str = !in_str,
            '"' if !in_str => in_ident = !in_ident,
            ';' if !in_str && !in_ident => {
                let t = cur.trim().to_string();
                if !t.is_empty() {
                    out.push(t);
                }
                cur.clear();
                continue;
            }
            _ => {}
        }
        cur.push(c);
    }
    let t = cur.trim().to_string();
    if !t.is_empty() {
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgwire::codec::encode_frontend;
    use std::io::Write;
    use std::net::TcpStream;

    struct TestClient {
        stream: TcpStream,
        reader: MessageReader,
    }

    impl TestClient {
        fn connect(addr: std::net::SocketAddr, user: &str) -> Self {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut buf = Vec::new();
            encode_frontend(
                &FrontendMessage::Startup {
                    params: vec![("user".into(), user.into()), ("database".into(), "hist".into())],
                },
                &mut buf,
            );
            stream.write_all(&buf).unwrap();
            TestClient { stream, reader: MessageReader::new(false) }
        }

        fn send(&mut self, msg: &FrontendMessage) {
            let mut buf = Vec::new();
            encode_frontend(msg, &mut buf);
            self.stream.write_all(&buf).unwrap();
        }

        fn recv(&mut self) -> BackendMessage {
            loop {
                if let Some(m) = self.reader.next_backend().unwrap() {
                    return m;
                }
                let n = self.reader.fill_from(&mut self.stream).unwrap();
                assert!(n > 0, "server closed connection");
            }
        }

        /// One extended-query batch for `sql`, every result column
        /// requested in `format`, sent in a single write; the reply's
        /// frames up to and including `ReadyForQuery`, undecoded.
        fn extended(&mut self, sql: &str, format: Format) -> Vec<(u8, Vec<u8>)> {
            let mut buf = Vec::new();
            pgwire::codec::encode_extended_query(sql, format, &mut buf);
            self.stream.write_all(&buf).unwrap();
            let mut frames = Vec::new();
            loop {
                while let Some((ty, body)) = self.reader.next_backend_frame().unwrap() {
                    frames.push((ty, body.to_vec()));
                    if ty == b'Z' {
                        return frames;
                    }
                }
                assert!(self.reader.fill_from(&mut self.stream).unwrap() > 0, "server closed connection");
            }
        }

        fn recv_until_ready(&mut self) -> Vec<BackendMessage> {
            let mut msgs = Vec::new();
            loop {
                let m = self.recv();
                let done = matches!(m, BackendMessage::ReadyForQuery(_));
                msgs.push(m);
                if done {
                    return msgs;
                }
            }
        }
    }

    #[test]
    fn full_wire_session_with_trust_auth() {
        let db = Db::new();
        let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = TestClient::connect(server.addr, "trader");
        let startup = client.recv_until_ready();
        assert!(matches!(startup[0], BackendMessage::Authentication(AuthRequest::Ok)));

        client.send(&FrontendMessage::Query(
            "CREATE TABLE t (x bigint); INSERT INTO t VALUES (1), (2); SELECT x FROM t ORDER BY x DESC".into(),
        ));
        let msgs = client.recv_until_ready();
        let rows: Vec<&BackendMessage> =
            msgs.iter().filter(|m| matches!(m, BackendMessage::DataRow(_))).collect();
        assert_eq!(rows.len(), 2);
        match rows[0] {
            BackendMessage::DataRow(cells) => assert_eq!(cells[0].as_deref(), Some("2")),
            _ => unreachable!(),
        }
        client.send(&FrontendMessage::Terminate);
        server.detach();
    }

    #[test]
    fn cleartext_auth_rejects_bad_password() {
        let db = Db::new();
        let mut creds = HashMap::new();
        creds.insert("trader".to_string(), "secret".to_string());
        let server = PgServer::start(
            db,
            "127.0.0.1:0",
            ServerConfig { auth: AuthMode::Cleartext(creds), ..ServerConfig::default() },
        )
        .unwrap();

        // Good password.
        let mut ok = TestClient::connect(server.addr, "trader");
        assert!(matches!(
            ok.recv(),
            BackendMessage::Authentication(AuthRequest::CleartextPassword)
        ));
        ok.send(&FrontendMessage::Password("secret".into()));
        let msgs = ok.recv_until_ready();
        assert!(matches!(msgs[0], BackendMessage::Authentication(AuthRequest::Ok)));

        // Bad password.
        let mut bad = TestClient::connect(server.addr, "trader");
        bad.recv();
        bad.send(&FrontendMessage::Password("wrong".into()));
        let m = bad.recv();
        assert!(matches!(m, BackendMessage::ErrorResponse { code, .. } if code == "28P01"));
        server.detach();
    }

    #[test]
    fn md5_auth_end_to_end() {
        let db = Db::new();
        let mut creds = HashMap::new();
        creds.insert("trader".to_string(), "secret".to_string());
        let server = PgServer::start(
            db,
            "127.0.0.1:0",
            ServerConfig { auth: AuthMode::Md5(creds), ..ServerConfig::default() },
        )
        .unwrap();
        let mut client = TestClient::connect(server.addr, "trader");
        let salt = match client.recv() {
            BackendMessage::Authentication(AuthRequest::Md5Password { salt }) => salt,
            other => panic!("expected md5 request, got {other:?}"),
        };
        client.send(&FrontendMessage::Password(pgwire::md5_password("trader", "secret", salt)));
        let msgs = client.recv_until_ready();
        assert!(matches!(msgs[0], BackendMessage::Authentication(AuthRequest::Ok)));
        server.detach();
    }

    #[test]
    fn errors_travel_as_error_responses() {
        let db = Db::new();
        let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = TestClient::connect(server.addr, "x");
        client.recv_until_ready();
        client.send(&FrontendMessage::Query("SELECT * FROM missing_table".into()));
        let msgs = client.recv_until_ready();
        assert!(msgs
            .iter()
            .any(|m| matches!(m, BackendMessage::ErrorResponse { code, .. } if code == "42P01")));

        // A SELECT that fails while executing: the error comes before any
        // RowDescription or DataRow, and ReadyForQuery follows it.
        client.send(&FrontendMessage::Query(
            "CREATE TABLE t (sym varchar); INSERT INTO t VALUES ('a'), ('b')".into(),
        ));
        client.recv_until_ready();
        client.send(&FrontendMessage::Query("SELECT sym + 1 FROM t".into()));
        let msgs = client.recv_until_ready();
        assert!(
            matches!(
                msgs.as_slice(),
                [BackendMessage::ErrorResponse { .. }, BackendMessage::ReadyForQuery(_)]
            ),
            "{msgs:?}"
        );
        // The connection answers the next query with its rows.
        client.send(&FrontendMessage::Query("SELECT sym FROM t".into()));
        let msgs = client.recv_until_ready();
        let rows = msgs.iter().filter(|m| matches!(m, BackendMessage::DataRow(_))).count();
        assert_eq!(rows, 2, "{msgs:?}");
        server.detach();
    }

    #[test]
    fn show_metrics_lists_the_writers_copy_on_write_counters() {
        let db = Db::new();
        let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = TestClient::connect(server.addr, "ops");
        client.recv_until_ready();
        client.send(&FrontendMessage::Query(
            "CREATE TABLE cow (x bigint); INSERT INTO cow VALUES (1)".into(),
        ));
        client.recv_until_ready();
        client.send(&FrontendMessage::Query("SHOW metrics".into()));
        let lines: Vec<String> = client
            .recv_until_ready()
            .iter()
            .filter_map(|m| match m {
                BackendMessage::DataRow(cells) => cells[0].clone(),
                _ => None,
            })
            .collect();
        for name in ["pgdb_table_cow_copies_total", "pgdb_table_cow_rows_total"] {
            assert!(lines.iter().any(|l| l.starts_with(name)), "{name} missing: {lines:?}");
        }
        server.detach();
    }

    #[test]
    fn connection_cap_rejects_with_53300() {
        let db = Db::new();
        let server = PgServer::start(
            db,
            "127.0.0.1:0",
            ServerConfig { max_connections: 1, ..ServerConfig::default() },
        )
        .unwrap();
        let mut first = TestClient::connect(server.addr, "a");
        first.recv_until_ready();
        // The second concurrent connection must be turned away cleanly.
        let mut second = TestClient::connect(server.addr, "b");
        let m = second.recv();
        assert!(
            matches!(&m, BackendMessage::ErrorResponse { code, .. } if code == "53300"),
            "expected 53300 rejection, got {m:?}"
        );
        // The first connection keeps working.
        first.send(&FrontendMessage::Query("SELECT 1".into()));
        let msgs = first.recv_until_ready();
        assert!(msgs.iter().any(|m| matches!(m, BackendMessage::DataRow(_))));
        server.detach();
    }

    #[test]
    fn metrics_admin_query_returns_prometheus_dump() {
        let db = Db::new();
        let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = TestClient::connect(server.addr, "ops");
        client.recv_until_ready();
        // Run a normal query first so pgdb_queries_total is registered.
        client.send(&FrontendMessage::Query("SELECT 1".into()));
        client.recv_until_ready();
        for admin in ["SHOW metrics", "\\metrics"] {
            client.send(&FrontendMessage::Query(admin.into()));
            let msgs = client.recv_until_ready();
            let lines: Vec<String> = msgs
                .iter()
                .filter_map(|m| match m {
                    BackendMessage::DataRow(cells) => cells[0].clone(),
                    _ => None,
                })
                .collect();
            assert!(
                lines.iter().any(|l| l.starts_with("pgdb_queries_total")),
                "{admin}: {lines:?}"
            );
            assert!(lines.iter().any(|l| l.starts_with("# TYPE")), "{admin}: {lines:?}");
        }
        server.detach();
    }

    #[test]
    fn metrics_expose_multiplexed_sessions() {
        let db = Db::new();
        let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = TestClient::connect(server.addr, "ops");
        client.recv_until_ready();
        client.send(&FrontendMessage::Query("SHOW metrics".into()));
        let msgs = client.recv_until_ready();
        let lines: Vec<String> = msgs
            .iter()
            .filter_map(|m| match m {
                BackendMessage::DataRow(cells) => cells[0].clone(),
                _ => None,
            })
            .collect();
        for metric in ["net_sessions_active", "net_sessions_parked", "net_worker_busy"] {
            assert!(lines.iter().any(|l| l.starts_with(metric)), "missing {metric}");
        }
        server.detach();
    }

    fn kinds(frames: &[(u8, Vec<u8>)]) -> String {
        frames.iter().map(|(ty, _)| *ty as char).collect()
    }

    fn error_code(frames: &[(u8, Vec<u8>)]) -> String {
        let (ty, body) = frames.iter().find(|(ty, _)| *ty == b'E').expect("an ErrorResponse");
        match pgwire::codec::decode_backend(*ty, body) {
            Some(BackendMessage::ErrorResponse { code, .. }) => code,
            other => panic!("undecodable ErrorResponse: {other:?}"),
        }
    }

    #[test]
    fn extended_query_answers_binary_columns_in_postgres_frame_order() {
        let db = Db::new();
        let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = TestClient::connect(server.addr, "x");
        client.recv_until_ready();
        client.send(&FrontendMessage::Query(
            "CREATE TABLE t (n bigint, p double precision, s varchar, d date); \
             INSERT INTO t VALUES (7, 1.5, 'GOOG', '2016-06-26'), (NULL, NULL, NULL, NULL)"
                .into(),
        ));
        client.recv_until_ready();

        let frames = client.extended("SELECT n, p, s, d FROM t", Format::Binary);
        assert_eq!(kinds(&frames), "12TDDCZ");
        let Some(BackendMessage::RowDescription(fields)) =
            pgwire::codec::decode_backend(b'T', &frames[2].1)
        else {
            panic!("undecodable RowDescription");
        };
        assert!(fields.iter().all(|f| f.format == Format::Binary.code()), "{fields:?}");
        // int8 | float8 | varchar bytes | date as i32 days since 2000-01-01.
        let mut want = 4i16.to_be_bytes().to_vec();
        for field in [&7i64.to_be_bytes()[..], &1.5f64.to_be_bytes(), b"GOOG", &6021i32.to_be_bytes()] {
            want.extend_from_slice(&(field.len() as i32).to_be_bytes());
            want.extend_from_slice(field);
        }
        assert_eq!(frames[3].1, want);
        let mut nulls = 4i16.to_be_bytes().to_vec();
        nulls.extend_from_slice(&[0xFF; 16]);
        assert_eq!(frames[4].1, nulls);
        assert_eq!(frames[5].1, b"SELECT 2\0");

        // The same statement asked for in text answers what `Query` does.
        let text = client.extended("SELECT n, p, s, d FROM t", Format::Text);
        client.send(&FrontendMessage::Query("SELECT n, p, s, d FROM t".into()));
        let simple = client.recv_until_ready();
        let rows: Vec<BackendMessage> = text
            .iter()
            .filter(|(ty, _)| *ty == b'D')
            .map(|(ty, body)| pgwire::codec::decode_backend(*ty, body).unwrap())
            .collect();
        let simple_rows: Vec<BackendMessage> =
            simple.into_iter().filter(|m| matches!(m, BackendMessage::DataRow(_))).collect();
        assert_eq!(rows, simple_rows);
        server.detach();
    }

    #[test]
    fn extended_query_errors_skip_to_sync_and_the_connection_keeps_working() {
        let db = Db::new();
        let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = TestClient::connect(server.addr, "x");
        client.recv_until_ready();
        // Unparseable: reported at Parse; Bind/Describe/Execute are
        // discarded, Sync answers ReadyForQuery.
        let frames = client.extended("SELEKT 1", Format::Binary);
        assert_eq!(kinds(&frames), "EZ");
        assert_eq!(error_code(&frames), "42601");
        // Fails while running: reported at Describe.
        let frames = client.extended("SELECT * FROM missing_table", Format::Binary);
        assert_eq!(kinds(&frames), "12EZ");
        assert_eq!(error_code(&frames), "42P01");
        // More than one command in a prepared statement, as PostgreSQL.
        let frames = client.extended("SELECT 1; SELECT 2", Format::Binary);
        assert_eq!(kinds(&frames), "EZ");
        assert_eq!(error_code(&frames), "42601");
        // A format that does not exist.
        let mut buf = Vec::new();
        for msg in [
            FrontendMessage::Parse { statement: String::new(), sql: "SELECT 1".into(), param_types: vec![] },
            FrontendMessage::Bind {
                portal: String::new(),
                statement: String::new(),
                param_formats: vec![],
                params: vec![],
                result_formats: vec![7],
            },
            FrontendMessage::Describe { kind: b'P', name: String::new() },
            FrontendMessage::Sync,
        ] {
            encode_frontend(&msg, &mut buf);
        }
        client.stream.write_all(&buf).unwrap();
        let msgs = client.recv_until_ready();
        assert!(
            msgs.iter().any(|m| matches!(m, BackendMessage::ErrorResponse { code, .. } if code == "08P01")),
            "{msgs:?}"
        );
        // And after all that the connection answers.
        let frames = client.extended("SELECT 1 AS x", Format::Binary);
        assert_eq!(kinds(&frames), "12TDCZ");
        assert_eq!(frames[3].1[6..], 1i64.to_be_bytes());
        server.detach();
    }

    #[test]
    fn extended_query_runs_commands_at_execute_and_the_metrics_dump() {
        let db = Db::new();
        let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = TestClient::connect(server.addr, "x");
        client.recv_until_ready();
        let frames = client.extended("CREATE TABLE t (x bigint)", Format::Binary);
        assert_eq!(kinds(&frames), "12nCZ");
        let frames = client.extended("INSERT INTO t VALUES (1)", Format::Binary);
        assert_eq!(kinds(&frames), "12nCZ");
        assert_eq!(frames[3].1, b"INSERT 0 1\0");
        let frames = client.extended("", Format::Binary);
        assert_eq!(kinds(&frames), "12nIZ");
        let frames = client.extended("SHOW metrics", Format::Binary);
        assert!(kinds(&frames).starts_with("12TD"), "{}", kinds(&frames));
        assert!(frames.iter().any(|(ty, body)| *ty == b'D'
            && String::from_utf8_lossy(body).contains("pgdb_queries_total")));
        server.detach();
    }

    #[test]
    fn malformed_frame_gets_a_protocol_violation_error() {
        let db = Db::new();
        let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = TestClient::connect(server.addr, "x");
        client.recv_until_ready();
        // A Query frame whose length prefix declares half a gigabyte.
        let mut evil = vec![b'Q'];
        evil.extend_from_slice(&(512 * 1024 * 1024i32).to_be_bytes());
        client.stream.write_all(&evil).unwrap();
        let m = client.recv();
        assert!(
            matches!(&m, BackendMessage::ErrorResponse { code, .. } if code == "08P01"),
            "expected 08P01, got {m:?}"
        );
        server.detach();
    }
}
