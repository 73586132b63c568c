//! The Endpoint plugin: a QIPC TCP server (paper §3.1).
//!
//! "Hyper-Q takes over kdb+ server by listening to incoming messages on
//! the port used by the original kdb+ server. Q applications run
//! unchanged while, under the hood, their network packets are routed to
//! Hyper-Q instead of kdb+."
//!
//! Each accepted connection gets a [`ProtocolTranslator`] FSM and its own
//! Hyper-Q session (scopes, temp tables, metadata cache) over a backend
//! session — mirroring one kdb+ client connection. The per-connection
//! protocol logic lives in the sans-io [`QipcConnMachine`], which the
//! `netpool` readiness scheduler drives: idle sessions park without a
//! thread and are dispatched to a bounded worker pool when they speak.
//! The session-park differential suite holds what a client gets through
//! this layer to what an in-process session answers.
//!
//! Replies go out as kdb+ sends them: never compressed to a peer on this
//! host or to one whose handshake offered capability 0, and otherwise
//! compressed only when the payload is large and compresses to under
//! half its size ([`ProtocolTranslator::on_results`]). They are encoded
//! straight into the connection's output buffer.
//!
//! Robustness (see `DESIGN.md`, "Fault tolerance"): the accept loop
//! survives transient `accept()` errors with a capped backoff; a
//! connection cap turns overload into a clean kdb+-style error frame
//! instead of a reset; the client leg runs under the session's
//! [`crate::wire::WireTimeouts`] read deadline, but only a peer stalled
//! *mid-frame* is dropped — an idle Q application owes us nothing and is
//! left alone; and when the backend cannot be reached the Endpoint
//! degrades gracefully: the Q connection stays up and every query is
//! answered with an error frame naming the backend failure.

use crate::backend::{share, DirectBackend, SharedBackend};
use crate::session::{HyperQSession, SessionConfig};
use crate::wire::WireError;
use crate::xc::{ProtocolTranslator, PtAction};
use netpool::{Acceptor, HandlerControl, IoModel, SessionHandler};
use qipc::{Compression, Message, MsgType};
use qlang::{QResult, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Bytes written back to Q applications across all endpoint connections.
fn response_bytes_counter() -> &'static Arc<obs::Counter> {
    static COUNTER: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| obs::global_registry().counter("qipc_response_bytes_total"))
}

/// Value replies by how they were encoded and why:
/// `qipc_replies_total{encoding, reason}` (error frames are never
/// compressed and are not counted).
fn replies_counter(how: Compression) -> &'static obs::Counter {
    static COUNTERS: OnceLock<Vec<Arc<obs::Counter>>> = OnceLock::new();
    let counters = COUNTERS.get_or_init(|| {
        let reg = obs::global_registry();
        Compression::ALL
            .iter()
            .map(|c| {
                let (encoding, reason) = c.labels();
                reg.counter(&format!(
                    "qipc_replies_total{{encoding=\"{encoding}\",reason=\"{reason}\"}}"
                ))
            })
            .collect()
    });
    &counters[how as usize]
}

/// Q system commands answered by the endpoint itself (never forwarded to
/// the session): `\metrics` dumps the process-wide registry in
/// Prometheus text format, `\slowlog` renders the slow-query ring.
fn admin_command(text: &str) -> Option<String> {
    match text.trim() {
        "\\metrics" => Some(obs::global_registry().render_prometheus()),
        "\\slowlog" => Some(obs::global_slowlog().render()),
        _ => None,
    }
}

/// Credential check for the QIPC handshake.
pub type Authenticator = Arc<dyn Fn(&str, &str) -> bool + Send + Sync>;

/// Produces a backend connection for each accepted Q client. Failures
/// put the connection in degraded mode rather than dropping it.
pub type BackendFactory = Arc<dyn Fn() -> Result<SharedBackend, WireError> + Send + Sync>;

/// Endpoint configuration.
#[derive(Clone)]
pub struct EndpointConfig {
    /// Credential check for the QIPC handshake. Defaults to accepting
    /// everyone (kdb+'s historical posture, per §2.2: "kdb+ had no need
    /// for access control").
    pub authenticator: Authenticator,
    /// Session configuration applied to every connection (including the
    /// wire deadlines for the client leg).
    pub session: SessionConfig,
    /// Concurrent-connection ceiling; attempts beyond it complete the
    /// handshake and then receive a kdb+ error frame (QIPC has no
    /// pre-handshake error channel).
    pub max_connections: usize,
    /// Inbound QIPC frame-length ceiling.
    pub max_frame: usize,
    /// Nothing reads it: there is one connection layer. Goes with ROADMAP item 8 step A.
    pub io_model: IoModel,
    /// Dispatch threads of the connection scheduler; `0` defers to
    /// `HQ_NET_WORKERS` (then a small built-in default).
    pub net_workers: usize,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            authenticator: Arc::new(|_, _| true),
            session: SessionConfig::default(),
            max_connections: 64,
            max_frame: qipc::DEFAULT_MAX_MESSAGE,
            io_model: IoModel::Multiplexed,
            net_workers: 0,
        }
    }
}

/// A running QIPC endpoint bridging Q applications to a backend.
pub struct QipcEndpoint {
    /// Bound address.
    pub addr: std::net::SocketAddr,
    acceptor: Acceptor,
}

impl QipcEndpoint {
    /// Start the endpoint over an in-process `pgdb` database.
    pub fn start(
        db: pgdb::Db,
        bind_addr: &str,
        config: EndpointConfig,
    ) -> std::io::Result<QipcEndpoint> {
        let factory: BackendFactory =
            Arc::new(move || Ok(share(DirectBackend::new(&db))));
        Self::start_with(bind_addr, config, factory)
    }

    /// Start the endpoint with an explicit backend factory — e.g. one
    /// that hands each Q connection a session over a shared
    /// [`crate::pool::BackendPool`] (`pool.session()`), or one that
    /// opens a dedicated [`crate::gateway::PgWireBackend`] per
    /// connection.
    pub fn start_with(
        bind_addr: &str,
        config: EndpointConfig,
        factory: BackendFactory,
    ) -> std::io::Result<QipcEndpoint> {
        let listener = TcpListener::bind(bind_addr)?;
        let (workers, read_deadline) = (config.net_workers, config.session.wire.read);
        let active = Arc::new(AtomicUsize::new(0));
        let acceptor = Acceptor::start(listener, workers, read_deadline, move |peer| {
            let slot = active.fetch_add(1, Ordering::SeqCst);
            let reject = slot >= config.max_connections;
            let guard = ConnGuard(Arc::clone(&active));
            Box::new(QipcConnMachine::new(&factory, &config, reject, guard, peer))
        })?;
        Ok(QipcEndpoint { addr: acceptor.addr(), acceptor })
    }

    /// Stop accepting, close every connection and join every thread the
    /// endpoint started.
    pub fn stop(self) {
        self.acceptor.stop();
    }

    /// Detach the accept thread.
    pub fn detach(self) {
        self.acceptor.detach();
    }
}

/// Releases the connection-cap slot when the connection ends.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The QIPC conversation as a sans-io state machine: raw bytes in,
/// response bytes out. Wraps the [`ProtocolTranslator`] framing FSM and
/// the per-connection Hyper-Q session (or its degraded-mode error).
pub struct QipcConnMachine {
    pt: ProtocolTranslator,
    /// Graceful degradation: a backend we cannot reach does not cost
    /// the Q application its connection — queries are answered with
    /// error frames naming the failure instead.
    session: Result<HyperQSession, String>,
    auth: Authenticator,
    /// Over the cap: complete the handshake (QIPC has no earlier error
    /// channel), answer the first synchronous request with a kdb+ error
    /// frame, then close.
    reject: bool,
    _guard: Option<ConnGuard>,
}

impl QipcConnMachine {
    /// The machine for one connection from `peer`.
    fn new(
        factory: &BackendFactory,
        config: &EndpointConfig,
        reject: bool,
        guard: ConnGuard,
        peer: SocketAddr,
    ) -> QipcConnMachine {
        let session = if reject {
            Err("'limit: too many connections".to_string())
        } else {
            match factory() {
                Ok(backend) => Ok(HyperQSession::new(backend, config.session.clone())),
                Err(e) => Err(format!("'backend: unavailable ({e})")),
            }
        };
        QipcConnMachine {
            pt: ProtocolTranslator::new(peer.ip(), config.max_frame),
            session,
            auth: Arc::clone(&config.authenticator),
            reject,
            _guard: Some(guard),
        }
    }
}

impl SessionHandler for QipcConnMachine {
    fn on_bytes(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> HandlerControl {
        // The translator stops after each synchronous query until it is
        // answered; frames pipelined behind it in the same read are
        // already buffered, so drive it again (with no new bytes) until
        // it has nothing left to do.
        let mut bytes = bytes;
        loop {
            let actions = match self.pt.on_bytes(bytes, &*self.auth) {
                Ok(a) => a,
                Err(e) => {
                    // Malformed framing: tell the peer why before dropping
                    // (unless it is a doomed over-cap connection).
                    if !self.reject {
                        self.pt.on_error(&format!("'ipc: {e}"), out);
                    }
                    return HandlerControl::Close;
                }
            };
            if actions.is_empty() {
                return HandlerControl::Continue;
            }
            if let HandlerControl::Close = self.perform(actions, out) {
                return HandlerControl::Close;
            }
            bytes = &[];
        }
    }

    fn mid_frame(&self) -> bool {
        self.pt.has_partial()
    }
}

impl QipcConnMachine {
    /// Carry out the translator's actions in order, answering each
    /// synchronous query.
    fn perform(&mut self, actions: Vec<PtAction>, out: &mut Vec<u8>) -> HandlerControl {
        for action in actions {
            match action {
                PtAction::Send(bytes) => {
                    response_bytes_counter().add(bytes.len() as u64);
                    out.extend_from_slice(&bytes);
                }
                PtAction::Close => return HandlerControl::Close,
                PtAction::ForwardQuery { text, respond } => {
                    if self.reject {
                        if respond {
                            self.pt.on_error("'limit: too many connections", out);
                            return HandlerControl::Close;
                        }
                        continue;
                    }
                    let result = match admin_command(&text) {
                        Some(body) => Ok(Value::Chars(body)),
                        None => match &mut self.session {
                            Ok(s) => s.execute(&text),
                            Err(reason) => Err(qlang::QError::new(
                                qlang::error::QErrorKind::Other,
                                reason.clone(),
                            )),
                        },
                    };
                    if respond {
                        // The reply is encoded straight into the
                        // connection's output buffer.
                        let start = out.len();
                        match result.and_then(|value| self.pt.on_results(value, out)) {
                            Ok(how) => replies_counter(how).inc(),
                            Err(e) => self.pt.on_error(&e.to_string(), out),
                        }
                        response_bytes_counter().add((out.len() - start) as u64);
                    }
                }
            }
        }
        HandlerControl::Continue
    }
}

/// A minimal QIPC client — what a Q application's IPC layer does. Used
/// by examples, tests and the side-by-side framework's wire mode.
pub struct QipcClient {
    stream: TcpStream,
    buffer: Vec<u8>,
}

impl QipcClient {
    /// Connect and perform the credential handshake.
    pub fn connect(addr: &str, user: &str, password: &str) -> QResult<QipcClient> {
        let mut stream = TcpStream::connect(addr).map_err(io_err)?;
        stream
            .write_all(&qipc::client_handshake(user, password, 3))
            .map_err(io_err)?;
        let mut capability = [0u8; 1];
        stream.read_exact(&mut capability).map_err(|_| {
            qlang::QError::new(
                qlang::error::QErrorKind::Other,
                "server closed connection during handshake (bad credentials?)",
            )
        })?;
        Ok(QipcClient { stream, buffer: Vec::new() })
    }

    /// Send a synchronous query and wait for the response value.
    pub fn query(&mut self, q: &str) -> QResult<Value> {
        let bytes = qipc::write_message(&Message::query(q))?;
        self.stream.write_all(&bytes).map_err(io_err)?;
        self.read_response()
    }

    /// Send an asynchronous message (no response expected).
    pub fn send_async(&mut self, q: &str) -> QResult<()> {
        let msg = Message { msg_type: MsgType::Async, value: Value::Chars(q.to_string()) };
        let bytes = qipc::write_message(&msg)?;
        self.stream.write_all(&bytes).map_err(io_err)
    }

    /// Write raw bytes onto the connection (chaos tests use this to
    /// inject malformed frames).
    pub fn send_raw(&mut self, bytes: &[u8]) -> QResult<()> {
        self.stream.write_all(bytes).map_err(io_err)
    }

    /// Wait for the next response frame (also used after `send_raw`).
    pub fn read_response(&mut self) -> QResult<Value> {
        let mut chunk = [0u8; 16384];
        loop {
            if let Some(response) = take_response(&mut self.buffer) {
                return response;
            }
            let n = self.stream.read(&mut chunk).map_err(io_err)?;
            if n == 0 {
                return Err(qlang::QError::new(
                    qlang::error::QErrorKind::Other,
                    "connection closed while awaiting response",
                ));
            }
            self.buffer.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Take the first response frame off the front of `buffer`, plain or
/// compressed: its value, or the error a kdb+ error frame carries.
/// `None` until a whole frame is buffered.
fn take_response(buffer: &mut Vec<u8>) -> Option<QResult<Value>> {
    // kdb+-style error frame? (type byte -128 after the header) Only an
    // uncompressed frame has its type byte there: in a compressed one,
    // byte 8 is the low byte of the uncompressed length.
    if buffer.len() >= 9 && buffer[2] == 0 && buffer[8] == 0x80 {
        let total = u32::from_le_bytes([buffer[4], buffer[5], buffer[6], buffer[7]]) as usize;
        if buffer.len() < total {
            return None;
        }
        let text = String::from_utf8_lossy(&buffer[9..total - 1]).into_owned();
        buffer.drain(..total);
        return Some(Err(qlang::QError::new(qlang::error::QErrorKind::Other, text)));
    }
    match qipc::read_message(buffer) {
        Ok(None) => None,
        Ok(Some((msg, used))) => {
            buffer.drain(..used);
            Some(Ok(msg.value))
        }
        Err(e) => Some(Err(e)),
    }
}

fn io_err(e: std::io::Error) -> qlang::QError {
    qlang::QError::new(qlang::error::QErrorKind::Other, format!("io error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader;
    use qlang::value::Table;

    fn start_with_trades() -> (QipcEndpoint, pgdb::Db) {
        let db = pgdb::Db::new();
        // Load through a throwaway session.
        let mut s = HyperQSession::with_direct(&db);
        let trades = Table::new(
            vec!["Symbol".into(), "Price".into()],
            vec![
                Value::Symbols(vec!["GOOG".into(), "IBM".into()]),
                Value::Floats(vec![100.0, 50.0]),
            ],
        )
        .unwrap();
        loader::load_table(&mut s, "trades", &trades).unwrap();
        let ep = QipcEndpoint::start(db.clone(), "127.0.0.1:0", EndpointConfig::default()).unwrap();
        (ep, db)
    }

    #[test]
    fn q_application_runs_unchanged_over_the_wire() {
        let (ep, _db) = start_with_trades();
        let mut client = QipcClient::connect(&ep.addr.to_string(), "trader", "").unwrap();
        let v = client.query("select Price from trades where Symbol=`GOOG").unwrap();
        match v {
            Value::Table(t) => {
                assert!(t.column("Price").unwrap().q_eq(&Value::Floats(vec![100.0])));
            }
            other => panic!("expected table, got {other:?}"),
        }
        ep.detach();
    }

    #[test]
    fn session_state_persists_across_queries() {
        let (ep, _db) = start_with_trades();
        let mut client = QipcClient::connect(&ep.addr.to_string(), "trader", "").unwrap();
        client.query("SYMS: `GOOG`MSFT").unwrap();
        let v = client.query("select Price from trades where Symbol in SYMS").unwrap();
        match v {
            Value::Table(t) => assert_eq!(t.rows(), 1),
            other => panic!("expected table, got {other:?}"),
        }
        ep.detach();
    }

    #[test]
    fn errors_come_back_as_kdb_error_frames() {
        let (ep, _db) = start_with_trades();
        let mut client = QipcClient::connect(&ep.addr.to_string(), "trader", "").unwrap();
        let err = client.query("select from nosuch").unwrap_err();
        assert!(err.to_string().contains("nosuch"), "{err}");
        // Connection survives the error.
        assert!(client.query("1+1").is_ok());
        ep.detach();
    }

    /// Two synchronous queries, one after the other in a single write.
    fn pipelined(first: &str, second: &str) -> Vec<u8> {
        let mut bytes = qipc::write_message(&Message::query(first)).unwrap();
        bytes.extend(qipc::write_message(&Message::query(second)).unwrap());
        bytes
    }

    /// A client that fails a read after three seconds instead of
    /// waiting forever for a reply that is not coming.
    fn impatient_client(ep: &QipcEndpoint) -> QipcClient {
        let client = QipcClient::connect(&ep.addr.to_string(), "trader", "").unwrap();
        client.stream.set_read_timeout(Some(std::time::Duration::from_secs(3))).unwrap();
        client
    }

    #[test]
    fn pipelined_sync_queries_are_answered_in_order() {
        let (ep, _db) = start_with_trades();
        let mut client = impatient_client(&ep);
        client.send_raw(&pipelined("1+1", "2+2")).unwrap();
        assert!(client.read_response().unwrap().q_eq(&Value::long(2)));
        assert!(client.read_response().unwrap().q_eq(&Value::long(4)));
        assert!(client.query("3+3").unwrap().q_eq(&Value::long(6)));
        ep.detach();
    }

    #[test]
    fn async_assignment_is_visible_to_the_sync_query_behind_it() {
        let (ep, _db) = start_with_trades();
        let mut client = impatient_client(&ep);
        client.send_async("lim: 60.0").unwrap();
        match client.query("select Price from trades where Price > lim").unwrap() {
            Value::Table(t) => {
                assert!(t.column("Price").unwrap().q_eq(&Value::Floats(vec![100.0])));
            }
            other => panic!("expected table, got {other:?}"),
        }
        ep.detach();
    }

    #[test]
    fn answered_pipelined_queries_leave_no_partial_frame_to_sweep() {
        let read = std::time::Duration::from_millis(300);
        let config = EndpointConfig {
            session: SessionConfig {
                wire: crate::wire::WireTimeouts { read: Some(read), ..Default::default() },
                ..SessionConfig::default()
            },
            ..EndpointConfig::default()
        };
        let ep = QipcEndpoint::start(pgdb::Db::new(), "127.0.0.1:0", config).unwrap();
        let mut client = impatient_client(&ep);
        client.send_raw(&pipelined("1+1", "2+2")).unwrap();
        assert!(client.read_response().unwrap().q_eq(&Value::long(2)));
        assert!(client.read_response().unwrap().q_eq(&Value::long(4)));
        // Idle past the read deadline: a peer that owes no bytes is
        // left alone.
        std::thread::sleep(read * 2);
        assert!(client.query("3+3").unwrap().q_eq(&Value::long(6)));
        ep.detach();
    }

    #[test]
    fn authentication_rejects_bad_credentials() {
        let db = pgdb::Db::new();
        let config = EndpointConfig {
            authenticator: Arc::new(|user, pass| user == "trader" && pass == "pw"),
            ..EndpointConfig::default()
        };
        let ep = QipcEndpoint::start(db, "127.0.0.1:0", config).unwrap();
        assert!(QipcClient::connect(&ep.addr.to_string(), "trader", "pw").is_ok());
        assert!(QipcClient::connect(&ep.addr.to_string(), "intruder", "x").is_err());
        ep.detach();
    }

    #[test]
    fn multiple_clients_have_isolated_sessions() {
        let (ep, _db) = start_with_trades();
        let mut a = QipcClient::connect(&ep.addr.to_string(), "a", "").unwrap();
        let mut b = QipcClient::connect(&ep.addr.to_string(), "b", "").unwrap();
        a.query("x: 1").unwrap();
        // b does not see a's session variable.
        assert!(b.query("select Price from trades where Price > x").is_err());
        assert!(a.query("select Price from trades where Price > x").is_ok());
        ep.detach();
    }

    #[test]
    fn scalar_results_round_trip() {
        let (ep, _db) = start_with_trades();
        let mut client = QipcClient::connect(&ep.addr.to_string(), "t", "").unwrap();
        let v = client.query("2*3+4").unwrap();
        assert!(v.q_eq(&Value::long(14)));
        ep.detach();
    }

    #[test]
    fn metrics_and_slowlog_system_commands_answer_inline() {
        let (ep, _db) = start_with_trades();
        let mut client = QipcClient::connect(&ep.addr.to_string(), "ops", "").unwrap();
        client.query("select Price from trades").unwrap();
        match client.query("\\metrics").unwrap() {
            Value::Chars(dump) => {
                assert!(dump.contains("hyperq_queries_total"), "{dump}");
                assert!(dump.contains("# TYPE"), "{dump}");
            }
            other => panic!("expected chars, got {other:?}"),
        }
        match client.query("\\slowlog").unwrap() {
            Value::Chars(text) => assert!(!text.is_empty()),
            other => panic!("expected chars, got {other:?}"),
        }
        ep.detach();
    }

    #[test]
    fn connection_cap_rejects_with_error_frame_after_handshake() {
        let db = pgdb::Db::new();
        let config = EndpointConfig { max_connections: 1, ..EndpointConfig::default() };
        let ep = QipcEndpoint::start(db, "127.0.0.1:0", config).unwrap();
        let mut first = QipcClient::connect(&ep.addr.to_string(), "a", "").unwrap();
        // The second connection handshakes fine, then its first query
        // is answered with the rejection frame.
        let mut second = QipcClient::connect(&ep.addr.to_string(), "b", "").unwrap();
        let err = second.query("1+1").unwrap_err();
        assert!(err.to_string().contains("too many connections"), "{err}");
        // The first connection keeps working.
        assert!(first.query("1+1").is_ok());
        ep.detach();
    }

    #[test]
    fn unreachable_backend_degrades_instead_of_dropping_the_client() {
        let factory: BackendFactory = Arc::new(|| {
            Err(WireError::connect("cannot connect to 10.255.255.1:5432: unreachable"))
        });
        let ep =
            QipcEndpoint::start_with("127.0.0.1:0", EndpointConfig::default(), factory).unwrap();
        let mut client = QipcClient::connect(&ep.addr.to_string(), "t", "").unwrap();
        let err = client.query("select from trades").unwrap_err();
        assert!(err.to_string().contains("backend: unavailable"), "{err}");
        // The connection survives; subsequent queries answer too.
        let err = client.query("1+1").unwrap_err();
        assert!(err.to_string().contains("backend: unavailable"), "{err}");
        ep.detach();
    }

    #[test]
    fn oversized_frame_gets_an_error_frame_not_an_allocation() {
        let db = pgdb::Db::new();
        let config = EndpointConfig { max_frame: 1024, ..EndpointConfig::default() };
        let ep = QipcEndpoint::start(db, "127.0.0.1:0", config).unwrap();
        let mut client = QipcClient::connect(&ep.addr.to_string(), "t", "").unwrap();
        // A header declaring 1 GiB.
        let mut evil = vec![1, MsgType::Sync.as_byte(), 0, 0];
        evil.extend_from_slice(&(1024u32 * 1024 * 1024).to_le_bytes());
        client.send_raw(&evil).unwrap();
        let err = client.read_response().unwrap_err();
        assert!(err.to_string().contains("exceeding"), "{err}");
    }

    /// Kdb+'s reply rule, branch by branch, through the sans-io machine
    /// with made-up peers: `flat` (3 000 rows of one symbol and one size)
    /// compresses far under half, the `quotes` reply (`Time, Bid, Ask`)
    /// only to about 0.8.
    mod reply_encoding {
        use super::*;
        use hyperq_workload::taq::{generate_quotes, TaqConfig};

        const REMOTE: [u8; 4] = [192, 0, 2, 1];
        const FLAT: &str = "select from flat";
        const QUOTES: &str = "select Time, Bid, Ask from quotes where Symbol=`GOOG";

        fn db() -> pgdb::Db {
            let db = pgdb::Db::new();
            let mut s = HyperQSession::with_direct(&db);
            let flat = Table::new(
                vec!["Symbol".into(), "Size".into()],
                vec![Value::Symbols(vec!["GOOG".into(); 3000]), Value::Longs(vec![100; 3000])],
            )
            .unwrap();
            loader::load_table(&mut s, "flat", &flat).unwrap();
            let quotes = generate_quotes(&TaqConfig { rows: 4000, ..TaqConfig::default() });
            loader::load_table(&mut s, "quotes", &quotes).unwrap();
            db
        }

        /// The machine for a connection from `peer` over `db`, after a
        /// handshake offering `capability`.
        fn machine(
            db: &pgdb::Db,
            peer: impl Into<std::net::IpAddr>,
            capability: u8,
        ) -> QipcConnMachine {
            let db = db.clone();
            let factory: BackendFactory = Arc::new(move || Ok(share(DirectBackend::new(&db))));
            let guard = ConnGuard(Arc::new(AtomicUsize::new(1)));
            let peer = SocketAddr::new(peer.into(), 50_001);
            let config = EndpointConfig::default();
            let mut m = QipcConnMachine::new(&factory, &config, false, guard, peer);
            let mut out = Vec::new();
            let hello = qipc::client_handshake("t", "", capability);
            assert_eq!(m.on_bytes(&hello, &mut out), HandlerControl::Continue);
            assert_eq!(out, [capability.min(qipc::handshake::SERVER_CAPABILITY)]);
            m
        }

        /// The frame `m` answers `q` with.
        fn reply(m: &mut QipcConnMachine, q: &str) -> Vec<u8> {
            let mut out = Vec::new();
            let query = qipc::write_message(&Message::query(q)).unwrap();
            assert_eq!(m.on_bytes(&query, &mut out), HandlerControl::Continue);
            out
        }

        /// What a client reads off `frame`, which must be one whole frame.
        fn decoded(frame: &[u8]) -> Value {
            let mut buffer = frame.to_vec();
            let value = take_response(&mut buffer).expect("a whole frame").expect("a value");
            assert!(buffer.is_empty(), "one frame");
            value
        }

        /// `frame` went out plain: it is the plain encoding of the value
        /// it carries.
        fn assert_plain(frame: &[u8]) {
            assert_eq!(frame[2], 0, "plain flag");
            let plain = qipc::encode_message(&Message::response(decoded(frame))).unwrap();
            assert_eq!(frame, plain);
        }

        #[test]
        fn a_remote_peer_of_capability_3_gets_a_halved_reply_compressed() {
            let db = db();
            let frame = reply(&mut machine(&db, REMOTE, 3), FLAT);
            assert_eq!(frame[2], 1, "compressed flag");
            let reply = Message::response(decoded(&frame));
            let plain = qipc::encode_message(&reply).unwrap();
            assert_eq!(frame, qipc::encode::encode_message_compressed(&reply).unwrap());
            assert!(frame.len() * 2 < plain.len(), "{} of {}", frame.len(), plain.len());
        }

        #[test]
        fn a_remote_peer_of_capability_0_gets_plain_replies() {
            let db = db();
            assert_plain(&reply(&mut machine(&db, REMOTE, 0), FLAT));
        }

        #[test]
        fn a_reply_that_compresses_but_not_to_half_goes_out_plain() {
            let db = db();
            let frame = reply(&mut machine(&db, REMOTE, 3), QUOTES);
            assert!(frame.len() - 8 >= qipc::compress::COMPRESSION_THRESHOLD, "{}", frame.len());
            assert_plain(&frame);
        }

        #[test]
        fn a_loopback_peer_gets_plain_replies() {
            let db = db();
            for peer in [
                std::net::IpAddr::from([127, 0, 0, 1]),
                std::net::IpAddr::from(std::net::Ipv6Addr::LOCALHOST),
                std::net::IpAddr::from(std::net::Ipv4Addr::LOCALHOST.to_ipv6_mapped()),
            ] {
                assert_plain(&reply(&mut machine(&db, peer, 3), FLAT));
            }
        }

        #[test]
        fn every_encoding_decodes_to_the_same_value() {
            let db = db();
            for q in [FLAT, QUOTES] {
                let want = HyperQSession::with_direct(&db).execute(q).unwrap();
                for (peer, capability) in
                    [(REMOTE, 3), (REMOTE, 0), (REMOTE, 1), ([127, 0, 0, 1], 3)]
                {
                    let got = decoded(&reply(&mut machine(&db, peer, capability), q));
                    let case = format!("{q} from {peer:?} at capability {capability}");
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{case}");
                }
            }
        }

        #[test]
        fn errors_go_out_as_error_frames_to_every_peer() {
            let db = db();
            for (peer, capability) in [(REMOTE, 3), ([127, 0, 0, 1], 3)] {
                let mut buffer = reply(&mut machine(&db, peer, capability), "select from nosuch");
                let err = take_response(&mut buffer).unwrap().unwrap_err();
                assert!(err.to_string().contains("nosuch"), "{err}");
            }
        }
    }

    /// Regression: a compressed reply whose uncompressed length ends in
    /// 0x80 carries that byte where an error frame carries its type
    /// byte; the client must read it as the reply it is.
    #[test]
    fn compressed_reply_with_length_byte_0x80_is_not_an_error() {
        // 8 header + 6 vector header + n chars = 0x..80 bytes.
        let reply = Value::Chars("a".repeat(0x880 - 14));
        let frame = qipc::write_message_compressed(&Message {
            msg_type: MsgType::Response,
            value: reply.clone(),
        })
        .unwrap();
        assert_eq!((frame[2], frame[8]), (1, 0x80), "fixture must be compressed, length ..80");

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut byte = [0u8; 1];
            // Handshake: credentials up to the NUL, then the capability.
            while conn.read_exact(&mut byte).is_ok() && byte[0] != 0 {}
            conn.write_all(&[3]).unwrap();
            // The query frame: 8-byte header carrying the total length.
            let mut header = [0u8; 8];
            conn.read_exact(&mut header).unwrap();
            let total = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
            conn.read_exact(&mut vec![0u8; total - 8]).unwrap();
            conn.write_all(&frame).unwrap();
        });
        let mut client = QipcClient::connect(&addr, "t", "").unwrap();
        let got = client.query("big").unwrap();
        server.join().unwrap();
        assert!(got.q_eq(&reply), "reply decoded as {got:?}");
    }
}
