//! Wire-path chaos suite: deterministic fault injection across both TCP
//! legs (QIPC client leg and PG v3 backend leg) via the `chaosnet`
//! proxy.
//!
//! Every scenario scripts *exactly* which connection fails, at which
//! byte offset, in which direction — and asserts the typed outcome:
//! transparent retry, journal replay, retry exhaustion, deadline
//! expiry, protocol rejection, or non-idempotent refusal.
//!
//! The single-connection scenarios form one fault table over both ways
//! of opening a wire session — a dedicated connection and a session over
//! a shared pool — with the same assertions for each, since both are one
//! `PgWireBackend` with one retry loop.

use chaosnet::{ChaosProxy, FaultPlan, LegFaults};
use hyperq::backend::{share, Backend};
use hyperq::endpoint::{BackendFactory, EndpointConfig, QipcClient, QipcEndpoint};
use hyperq::gateway::{Credentials, PgWireBackend};
use hyperq::{loader, HyperQSession, RetryPolicy, SessionConfig, WireError, WireErrorKind, WireTimeouts};
use hyperq::{BackendPool, PoolConfig};
use pgdb::server::{PgServer, ServerConfig};
use pgdb::{Cell, QueryResult};
use qlang::value::{Table, Value};
use std::sync::Arc;
use std::time::Duration;

fn creds() -> Credentials {
    Credentials { user: "u".into(), password: String::new(), database: "hist".into() }
}

/// Byte length of the startup packet the Gateway sends for [`creds`] —
/// used to place faults precisely at the first post-handshake frame.
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

/// pgdb TCP server + chaos proxy in front of it.
fn chaotic_backend() -> (PgServer, ChaosProxy) {
    let db = pgdb::Db::new();
    let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let proxy = ChaosProxy::start(&server.addr.to_string()).unwrap();
    (server, proxy)
}

/// The two ways to open a wire session through the proxy.
#[derive(Debug, Clone, Copy)]
enum Open {
    /// `PgWireBackend::connect_with`: a pool of one, dialed at once.
    Dedicated,
    /// `BackendPool::session`: a shared pool, dialed by the first
    /// statement.
    Pooled,
}

const BOTH: [Open; 2] = [Open::Dedicated, Open::Pooled];

fn session_via(
    open: Open,
    proxy: &ChaosProxy,
    timeouts: WireTimeouts,
    retry: RetryPolicy,
) -> PgWireBackend {
    let addr = proxy.addr().to_string();
    match open {
        Open::Dedicated => PgWireBackend::connect_with(&addr, &creds(), timeouts, retry).unwrap(),
        Open::Pooled => {
            let cfg = PoolConfig { timeouts, retry, ..PoolConfig::default() };
            BackendPool::new(&addr, &creds(), cfg).session()
        }
    }
}

fn gateway_via(proxy: &ChaosProxy, retry: RetryPolicy) -> PgWireBackend {
    session_via(Open::Dedicated, proxy, WireTimeouts::default(), retry)
}

#[test]
fn mid_query_sever_is_transparently_retried() {
    for open in BOTH {
        let (server, proxy) = chaotic_backend();
        // Connection 1: forward the whole startup packet plus one byte of
        // the first Query frame, then sever — the classic mid-query cut.
        proxy.push_plan(FaultPlan {
            to_upstream: LegFaults {
                truncate_after: Some(startup_len() + 1),
                ..LegFaults::clean()
            },
            ..FaultPlan::clean()
        });
        let mut gw = session_via(open, &proxy, WireTimeouts::default(), RetryPolicy::immediate(3));
        match gw.execute_sql("SELECT 1 AS x").unwrap() {
            QueryResult::Rows(rows) => assert_eq!(rows.data[0][0], Cell::Int(1), "{open:?}"),
            other => panic!("{open:?}: expected rows, got {other:?}"),
        }
        assert_eq!(gw.reconnects(), 1, "{open:?}: exactly one transparent reconnect");
        assert_eq!(proxy.connections(), 2, "{open:?}");
        server.detach();
    }
}

/// Observability of recovery: a mid-query sever that is transparently
/// retried increments `wire_reconnects_total` in the global metrics
/// registry and stamps a `Recovering` event into the query's span tree.
#[test]
fn mid_query_sever_increments_reconnect_metric_and_emits_recovering_event() {
    let (server, proxy) = chaotic_backend();
    proxy.push_plan(FaultPlan {
        to_upstream: LegFaults { truncate_after: Some(startup_len() + 1), ..LegFaults::clean() },
        ..FaultPlan::clean()
    });
    let gw = gateway_via(&proxy, RetryPolicy::immediate(3));
    let reg = obs::global_registry();
    let reconnects_before = reg.counter_value("wire_reconnects_total");

    let mut session = HyperQSession::new(share(gw), SessionConfig::default());
    let (v, trace) = session.execute_observed("1+2").unwrap();
    assert!(v.q_eq(&Value::Atom(qlang::value::Atom::Long(3))), "{v:?}");

    assert!(
        reg.counter_value("wire_reconnects_total") > reconnects_before,
        "reconnect not counted"
    );
    assert!(
        trace.has_event(|e| matches!(e, hyperq::SpanEvent::Recovering { reconnects } if *reconnects >= 1)),
        "no Recovering event in trace:\n{}",
        trace.render()
    );
    server.detach();
}

#[test]
fn journal_replay_rebuilds_temp_tables_after_reconnect() {
    for open in BOTH {
        let (server, proxy) = chaotic_backend();
        let mut gw = session_via(open, &proxy, WireTimeouts::default(), RetryPolicy::immediate(3));
        gw.execute_sql("CREATE TABLE base (x bigint)").unwrap();
        gw.execute_sql("INSERT INTO base VALUES (7), (9)").unwrap();
        gw.execute_sql("CREATE TEMPORARY TABLE \"HQ_TEMP_1\" AS SELECT x FROM base WHERE x > 8")
            .unwrap();
        assert_eq!(gw.journal().len(), 1, "{open:?}");

        // The backend "crashes": the temp table dies with its session.
        proxy.sever_active();

        // The next read reconnects, replays the journal (recreating the
        // temp table on the fresh session) and re-runs transparently.
        match gw.execute_sql("SELECT x FROM \"HQ_TEMP_1\"").unwrap() {
            QueryResult::Rows(rows) => {
                assert_eq!(rows.data.len(), 1, "{open:?}");
                assert_eq!(rows.data[0][0], Cell::Int(9), "{open:?}");
            }
            other => panic!("{open:?}: expected rows, got {other:?}"),
        }
        assert_eq!(gw.reconnects(), 1, "{open:?}");
        server.detach();
    }
}

#[test]
fn retry_exhaustion_yields_a_typed_error() {
    for open in BOTH {
        let (server, proxy) = chaotic_backend();
        let mut gw = session_via(open, &proxy, WireTimeouts::default(), RetryPolicy::immediate(3));
        // Every future connection dies before a byte crosses; the current
        // one dies now.
        proxy.set_default_plan(FaultPlan {
            to_upstream: LegFaults::sever_immediately(),
            ..FaultPlan::clean()
        });
        proxy.sever_active();
        let err = gw.execute_sql("SELECT 1").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::RetriesExhausted, "{open:?}: {err}");
        assert!(err.message.contains("3 of 3 attempts"), "{open:?}: {err}");
        server.detach();
    }
}

#[test]
fn slow_backend_trips_the_read_deadline() {
    for open in BOTH {
        let (server, proxy) = chaotic_backend();
        // Handshake at full speed; every frame after the startup packet
        // is stalled well past the Gateway's read deadline.
        proxy.push_plan(FaultPlan {
            to_upstream: LegFaults {
                delay: Some(Duration::from_millis(500)),
                delay_after: startup_len(),
                ..LegFaults::clean()
            },
            ..FaultPlan::clean()
        });
        let timeouts = WireTimeouts {
            read: Some(Duration::from_millis(80)),
            ..WireTimeouts::default()
        };
        let mut gw = session_via(open, &proxy, timeouts, RetryPolicy::no_retry());
        let err = gw.execute_sql("SELECT 1").unwrap_err();
        // Deliberately NOT retried: the statement may still be executing.
        assert_eq!(err.kind, WireErrorKind::Timeout, "{open:?}: {err}");
        // The late reply lands on the stalled connection. It must not
        // answer the next statement: that connection was evicted, and
        // the next statement runs on a fresh one.
        std::thread::sleep(Duration::from_millis(700));
        match gw.execute_sql("SELECT 2 AS x").unwrap() {
            QueryResult::Rows(rows) => assert_eq!(rows.data, vec![vec![Cell::Int(2)]], "{open:?}"),
            other => panic!("{open:?}: expected rows, got {other:?}"),
        }
        assert_eq!(proxy.connections(), 2, "{open:?}");
        server.detach();
    }
}

#[test]
fn corrupt_backend_length_prefix_is_a_protocol_error() {
    let (server, proxy) = chaotic_backend();
    // Flip a length byte of the very first backend frame (AuthenticationOk).
    proxy.push_plan(FaultPlan {
        to_client: LegFaults { corrupt_at: Some(1), ..LegFaults::clean() },
        ..FaultPlan::clean()
    });
    let Err(err) = PgWireBackend::connect_with(
        &proxy.addr().to_string(),
        &creds(),
        WireTimeouts::default(),
        RetryPolicy::no_retry(),
    ) else {
        panic!("corrupt stream accepted");
    };
    assert_eq!(err.kind, WireErrorKind::Protocol, "{err}");
    server.detach();
}

#[test]
fn non_idempotent_statements_are_not_replayed() {
    for open in BOTH {
        let (server, proxy) = chaotic_backend();
        let mut gw = session_via(open, &proxy, WireTimeouts::default(), RetryPolicy::immediate(5));
        gw.execute_sql("CREATE TABLE t (x bigint)").unwrap();
        // Sever every live connection mid-flight on the next frame.
        proxy.set_default_plan(FaultPlan {
            to_upstream: LegFaults::sever_immediately(),
            ..FaultPlan::clean()
        });
        proxy.sever_active();
        let before = gw.reconnects();
        let err = gw.execute_sql("INSERT INTO t VALUES (1)").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::NonIdempotent, "{open:?}: {err}");
        // No reconnect was attempted for the write: replaying could apply
        // the mutation twice.
        assert_eq!(gw.reconnects(), before, "{open:?}");
        server.detach();
    }
}

// ---------------------------------------------------------------------
// Faults inside a binary reply: reads cross the backend leg as binary
// `DataRow`s, so the cut and the flipped byte land mid-field.
// ---------------------------------------------------------------------

/// A server holding `t(x bigint, p double precision)` with 200 rows.
fn server_with_numbers() -> PgServer {
    let db = pgdb::Db::new();
    let mut s = db.session();
    s.execute("CREATE TABLE t (x bigint, p double precision)").unwrap();
    let rows: Vec<String> = (0..200).map(|i| format!("({i}, {}.5)", i * 3)).collect();
    s.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
    PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap()
}

const NUMBERS: &str = "SELECT x, p FROM t ORDER BY x";

fn assert_numbers(result: QueryResult) {
    let QueryResult::Rows(rows) = result else { panic!("expected rows, got {result:?}") };
    assert_eq!(rows.data.len(), 200);
    for (i, row) in rows.data.iter().enumerate() {
        assert_eq!(row, &vec![Cell::Int(i as i64), Cell::Float(i as f64 * 3.0 + 0.5)]);
    }
}

/// Where each frame of the server's reply to `sql` (sent the way the
/// gateway sends a read) starts, counted from the first byte the server
/// sends on the connection: `(type, offset of the type byte)`.
fn reply_frames(server: &PgServer, sql: &str) -> Vec<(u8, u64)> {
    use pgwire::messages::FrontendMessage;
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(server.addr).unwrap();
    let mut reader = pgwire::MessageReader::new(false);
    let mut offset = 0u64;
    let mut frames_until_ready = |stream: &mut std::net::TcpStream, request: &[u8]| {
        stream.write_all(request).unwrap();
        let mut frames = Vec::new();
        loop {
            while let Some((ty, body)) = reader.next_backend_frame().unwrap() {
                frames.push((ty, offset));
                offset += 5 + body.len() as u64;
                if ty == b'Z' {
                    return frames;
                }
            }
            assert!(reader.fill_from(stream).unwrap() > 0, "server closed the connection");
        }
    };
    let mut request = Vec::new();
    pgwire::codec::encode_frontend(
        &FrontendMessage::Startup {
            params: vec![
                ("user".to_string(), "u".to_string()),
                ("database".to_string(), "hist".to_string()),
            ],
        },
        &mut request,
    );
    frames_until_ready(&mut stream, &request);
    request.clear();
    pgwire::codec::encode_extended_query(sql, pgwire::Format::Binary, &mut request);
    frames_until_ready(&mut stream, &request)
}

/// Offset of the `n`th `DataRow` of the reply to [`NUMBERS`].
fn nth_data_row(server: &PgServer, n: usize) -> u64 {
    let frames = reply_frames(server, NUMBERS);
    let kinds: String = frames.iter().map(|(ty, _)| *ty as char).collect();
    assert!(kinds.starts_with("12TDD"), "not the reply of a binary read: {kinds}");
    frames.iter().filter(|(ty, _)| *ty == b'D').nth(n).unwrap().1
}

#[test]
fn reply_cut_mid_data_row_is_retried_and_the_checked_result_returned() {
    let server = server_with_numbers();
    let proxy = ChaosProxy::start(&server.addr.to_string()).unwrap();
    // Connection 1 dies eleven bytes into the 120th DataRow: after the
    // frame header, the field count and the first field's length, in
    // the middle of its eight value bytes.
    proxy.push_plan(FaultPlan {
        to_client: LegFaults {
            truncate_after: Some(nth_data_row(&server, 119) + 5 + 2 + 4 + 3),
            ..LegFaults::clean()
        },
        ..FaultPlan::clean()
    });
    let mut gw = gateway_via(&proxy, RetryPolicy::immediate(3));
    assert_numbers(gw.execute_sql(NUMBERS).unwrap());
    assert_eq!(gw.reconnects(), 1, "exactly one transparent reconnect");
    assert_eq!(proxy.connections(), 2);
    server.detach();
}

#[test]
fn corrupted_binary_field_length_is_a_protocol_error_never_a_wrong_number() {
    let server = server_with_numbers();
    let proxy = ChaosProxy::start(&server.addr.to_string()).unwrap();
    let first_length = nth_data_row(&server, 40) + 5 + 2;
    // The first field's length is 00 00 00 08. Its low byte flipped
    // claims 247 bytes, more than the row holds; its high byte flipped
    // makes it negative. Neither may come back as a number.
    let flips = [(first_length + 3, "runs past the end of the DataRow"), (first_length, "is negative")];
    for (flipped, want) in flips {
        proxy.push_plan(FaultPlan {
            to_client: LegFaults { corrupt_at: Some(flipped), ..LegFaults::clean() },
            ..FaultPlan::clean()
        });
        let mut gw = gateway_via(&proxy, RetryPolicy::immediate(3));
        let err = gw.execute_sql(NUMBERS).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::Protocol, "{err}");
        assert!(err.message.contains("column \"x\" (bigint)"), "{err}");
        assert!(err.message.contains(want), "{err}");
        // The reply was drained to ReadyForQuery: the same connection
        // answers the same statement, correctly this time.
        assert_numbers(gw.execute_sql(NUMBERS).unwrap());
        assert_eq!(gw.reconnects(), 0, "a decode error poisons the result, not the connection");
    }
    server.detach();
}

#[test]
fn q_client_reads_through_a_reply_cut_mid_field() {
    // The same cut, seen from a Q application: the answer is the one a
    // healthy backend gives.
    let db = pgdb::Db::new();
    let trades = hyperq_workload::taq::generate_trades(&hyperq_workload::taq::TaqConfig {
        rows: 400,
        symbols: 2,
        days: 1,
        seed: 11,
    });
    let mut direct = HyperQSession::with_direct(&db);
    loader::load_table(&mut direct, "trades", &trades).unwrap();
    let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let proxy = ChaosProxy::start(&server.addr.to_string()).unwrap();
    const Q: &str = "select from trades";
    let want = direct.execute(Q).unwrap();

    let mut wire = HyperQSession::new(
        share(gateway_via(&proxy, RetryPolicy::immediate(3))),
        SessionConfig::default(),
    );
    let sql = wire.translate_only(Q).unwrap()[0].statements[0].sql.clone();
    let frames = reply_frames(&server, &sql);
    let row = frames.iter().filter(|(ty, _)| *ty == b'D').nth(250).unwrap().1;
    // The session's connection is already open; the plan is for the
    // one it opens after this one is cut.
    proxy.sever_active();
    proxy.push_plan(FaultPlan {
        to_client: LegFaults { truncate_after: Some(row + 17), ..LegFaults::clean() },
        ..FaultPlan::clean()
    });
    let (got, trace) = wire.execute_observed(Q).unwrap();
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    assert!(
        trace.has_event(|e| matches!(e, hyperq::SpanEvent::Recovering { reconnects } if *reconnects >= 2)),
        "both cuts must show as recoveries:\n{}",
        trace.render()
    );
    server.detach();
}

/// The acceptance demo: a Q application on one QIPC connection, the
/// backend dying and recovering underneath it — queries keep answering
/// on the SAME client connection throughout.
#[test]
fn q_client_survives_backend_crash_end_to_end() {
    let db = pgdb::Db::new();
    {
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
    }
    let server = PgServer::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let proxy = Arc::new(ChaosProxy::start(&server.addr.to_string()).unwrap());

    // Endpoint whose per-connection backend is a Gateway THROUGH the
    // chaos proxy, under the session's wire deadlines.
    let session_cfg = SessionConfig::default();
    let proxy_addr = proxy.addr().to_string();
    let factory: BackendFactory = Arc::new(move || {
        let gw = PgWireBackend::connect_with(
            &proxy_addr,
            &creds(),
            session_cfg.wire,
            RetryPolicy::immediate(4),
        )?;
        Ok(share(gw))
    });
    let config = EndpointConfig { session: session_cfg, ..EndpointConfig::default() };
    let ep = QipcEndpoint::start_with("127.0.0.1:0", config, factory).unwrap();
    let mut client = QipcClient::connect(&ep.addr.to_string(), "trader", "").unwrap();

    // Healthy round trip.
    let v = client.query("select Price from trades where Symbol=`GOOG").unwrap();
    assert!(matches!(v, Value::Table(_)), "{v:?}");

    // Backend crashes; the Gateway reconnects transparently — the Q
    // client sees a correct answer, not an error.
    proxy.sever_active();
    let v = client.query("select Price from trades where Symbol=`IBM").unwrap();
    assert!(matches!(v, Value::Table(_)), "{v:?}");

    // Backend goes DOWN hard: retries exhaust, and the client gets a
    // typed error frame on the still-open connection.
    proxy.set_default_plan(FaultPlan {
        to_upstream: LegFaults::sever_immediately(),
        ..FaultPlan::clean()
    });
    proxy.sever_active();
    let err = client.query("select Price from trades").unwrap_err();
    assert!(err.to_string().contains("retries-exhausted"), "{err}");

    // Backend comes back: the SAME client connection recovers.
    proxy.set_default_plan(FaultPlan::clean());
    let v = client.query("select Price from trades where Symbol=`GOOG").unwrap();
    assert!(matches!(v, Value::Table(_)), "{v:?}");

    ep.detach();
    server.detach();
}

#[test]
fn corrupt_qipc_frame_yields_an_error_frame() {
    let db = pgdb::Db::new();
    let ep = QipcEndpoint::start(db, "127.0.0.1:0", EndpointConfig::default()).unwrap();
    // Chaos proxy on the CLIENT leg this time.
    let proxy = ChaosProxy::start(&ep.addr.to_string()).unwrap();
    let hs_len = qipc::client_handshake("trader", "", 3).len() as u64;
    // Flip the most significant byte of the first query frame's length
    // field (little-endian u32 at bytes 4..8 of the QIPC header), so
    // the frame claims ~4 GiB.
    proxy.push_plan(FaultPlan {
        to_upstream: LegFaults { corrupt_at: Some(hs_len + 7), ..LegFaults::clean() },
        ..FaultPlan::clean()
    });
    let mut client = QipcClient::connect(&proxy.addr().to_string(), "trader", "").unwrap();
    let err = client.query("1+1").unwrap_err();
    assert!(err.to_string().contains("'ipc"), "{err}");
}

#[test]
fn degraded_endpoint_answers_queries_with_backend_errors() {
    // The factory cannot reach the backend at all: the Q client still
    // connects, and every query is answered with a typed error frame.
    let factory: BackendFactory =
        Arc::new(|| Err(WireError::connect("cannot connect to backend: refused")));
    let ep = QipcEndpoint::start_with("127.0.0.1:0", EndpointConfig::default(), factory).unwrap();
    let mut client = QipcClient::connect(&ep.addr.to_string(), "t", "").unwrap();
    for _ in 0..2 {
        let err = client.query("select from trades").unwrap_err();
        assert!(err.to_string().contains("backend: unavailable"), "{err}");
    }
    ep.detach();
}

// ---------------------------------------------------------------------
// Degraded-shard scenarios: chaosnet in front of ONE shard of a remote
// scatter-gather cluster (ISSUE 8). A lost shard must surface as a
// typed partial-failure error naming exactly which shard died and which
// partials arrived — and sessions not touching that shard must keep
// answering normally throughout.
// ---------------------------------------------------------------------

use hyperq::shard::{Mode, ShardCluster, ShardOpts};
use hyperq::ShardFailure;
use pgdb::BatchQueryResult;
use std::collections::HashMap;

/// Remote 2-shard cluster whose shard 1 is reached through a chaos
/// proxy: (servers, proxy, cluster). `fact` (100 rows) partitions
/// across both shards; `dim` (4 rows) broadcasts.
fn chaotic_cluster(
    timeouts: WireTimeouts,
) -> (Vec<PgServer>, ChaosProxy, std::sync::Arc<ShardCluster>) {
    let mut servers: Vec<PgServer> = (0..3)
        .map(|_| PgServer::start(pgdb::Db::new(), "127.0.0.1:0", ServerConfig::default()).unwrap())
        .collect();
    let proxy = ChaosProxy::start(&servers[1].addr.to_string()).unwrap();
    let shard_addrs = vec![servers[0].addr.to_string(), proxy.addr().to_string()];
    let coord_addr = servers[2].addr.to_string();
    let cluster = ShardCluster::remote(
        shard_addrs,
        coord_addr,
        creds(),
        timeouts,
        RetryPolicy::no_retry(),
    );
    {
        let mut r = cluster.router().unwrap();
        r.execute_sql("CREATE TABLE fact (id bigint, v bigint)").unwrap();
        let rows: Vec<String> = (0..100).map(|i| format!("({i}, {})", i * 3)).collect();
        r.execute_sql(&format!("INSERT INTO fact VALUES {}", rows.join(", "))).unwrap();
        r.execute_sql("CREATE TABLE dim (k bigint)").unwrap();
        r.execute_sql("INSERT INTO dim VALUES (1), (2), (3), (4)").unwrap();
    }
    assert_eq!(cluster.table_meta("fact").unwrap().mode, Mode::Partitioned);
    assert_eq!(cluster.table_meta("dim").unwrap().mode, Mode::Broadcast);
    // The env-derived default broadcast threshold (64) is what the
    // fixture sizes assume; pin it so an ambient HQ_SHARD_BROADCAST
    // cannot silently change what this suite tests.
    let _ = ShardOpts { broadcast_threshold: 64, float_agg: false, stats: true, keys: HashMap::new() };
    servers.shrink_to_fit();
    (servers, proxy, cluster)
}

fn shard_count_rows(r: &mut hyperq::ShardRouter, sql: &str) -> Vec<Vec<Cell>> {
    match r.execute_sql_batch(sql).unwrap().unwrap() {
        BatchQueryResult::Batch(b) => b.into_rows().data,
        other => panic!("expected rows, got {other:?}"),
    }
}

#[test]
fn severed_shard_yields_typed_partial_failure_naming_the_shard() {
    let (servers, proxy, cluster) = chaotic_cluster(WireTimeouts::default());
    let mut victim = cluster.router().unwrap();
    // A session that only ever touches broadcast/coordinator state,
    // opened while the cluster is healthy.
    let mut bystander = cluster.router().unwrap();

    let reg = obs::global_registry();
    let degraded_before = reg.counter_value("shard_degraded_total");

    // Shard 1 goes down hard: every live connection through the proxy
    // dies now, and every reconnect attempt dies immediately.
    proxy.set_default_plan(FaultPlan {
        to_upstream: LegFaults::sever_immediately(),
        ..FaultPlan::clean()
    });
    proxy.sever_active();

    let err = victim.execute_sql("SELECT count(*) AS n FROM fact").unwrap_err();
    assert_eq!(err.kind, WireErrorKind::ShardPartial, "{err}");
    let detail: &ShardFailure = err.shard.as_deref().expect("typed shard detail missing");
    assert_eq!(
        detail.failed.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
        vec![1],
        "wrong shard blamed: {err}"
    );
    assert_eq!(detail.arrived, vec![0], "healthy shard's partial must have arrived: {err}");
    assert!(err.to_string().contains("shard 1"), "error must name the lost shard: {err}");
    assert_eq!(reg.counter_value("shard_degraded_total"), degraded_before + 1);

    // The bystander's statements never route to shard 1 (dim is
    // broadcast → coordinator-local), so it is completely unaffected
    // while the shard is down.
    let rows = shard_count_rows(&mut bystander, "SELECT k FROM dim ORDER BY k");
    assert_eq!(rows.len(), 4);

    // Shard 1 comes back: a fresh router over the same cluster answers
    // the exact query that just failed, correctly.
    proxy.set_default_plan(FaultPlan::clean());
    let mut recovered = cluster.router().unwrap();
    let rows = shard_count_rows(&mut recovered, "SELECT count(*) AS n FROM fact");
    assert_eq!(rows[0][0], Cell::Int(100));

    for s in servers {
        s.detach();
    }
}

#[test]
fn stalled_shard_trips_the_deadline_into_a_partial_failure() {
    let timeouts = WireTimeouts { read: Some(Duration::from_millis(80)), ..WireTimeouts::default() };
    let (servers, proxy, cluster) = chaotic_cluster(timeouts);

    // Shard 1 stalls mid-query: bytes flow for the handshake, then every
    // later frame is delayed far past the router's read deadline. The
    // plan lands on connections opened from here on, so the router below
    // handshakes fine and starves on its first scatter.
    proxy.set_default_plan(FaultPlan {
        to_upstream: LegFaults {
            delay: Some(Duration::from_millis(500)),
            delay_after: startup_len(),
            ..LegFaults::clean()
        },
        ..FaultPlan::clean()
    });
    let mut r = cluster.router().unwrap();

    let err = r.execute_sql("SELECT id FROM fact ORDER BY id").unwrap_err();
    assert_eq!(err.kind, WireErrorKind::ShardPartial, "{err}");
    let detail = err.shard.as_deref().expect("typed shard detail missing");
    assert_eq!(detail.failed.len(), 1);
    assert_eq!(detail.failed[0].0, 1, "the stalled shard must be the one named: {err}");
    assert!(
        detail.failed[0].1.contains("timeout") || detail.failed[0].1.contains("deadline"),
        "cause should reflect the deadline: {err}"
    );

    for s in servers {
        s.detach();
    }
}

#[test]
fn delayed_but_healthy_shard_still_merges_correctly() {
    // A slow shard inside the deadline degrades latency, never results.
    let (servers, proxy, cluster) = chaotic_cluster(WireTimeouts::default());
    let mut r = cluster.router().unwrap();
    proxy.set_default_plan(FaultPlan {
        to_upstream: LegFaults { delay: Some(Duration::from_millis(30)), ..LegFaults::clean() },
        ..FaultPlan::clean()
    });
    let mut slow = cluster.router().unwrap();
    let fast_rows = shard_count_rows(&mut r, "SELECT id, v FROM fact ORDER BY id");
    let slow_rows = shard_count_rows(&mut slow, "SELECT id, v FROM fact ORDER BY id");
    assert_eq!(fast_rows, slow_rows, "a delayed shard must not change the merged result");
    assert_eq!(slow_rows.len(), 100);
    for (i, row) in slow_rows.iter().enumerate() {
        assert_eq!(row[0], Cell::Int(i as i64));
    }
    for s in servers {
        s.detach();
    }
}
