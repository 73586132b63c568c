//! Exact movements of process-global counters: queries aggregate in the
//! global registry and its Prometheus rendering; the in-process backend
//! and the PG v3 wire backend both move the zero-copy pivot counter, and
//! what crosses the wire for fixed-width columns crosses it in binary;
//! the QIPC endpoint counts how it encoded each reply, and why.
//!
//! One test function, in a test binary of its own: sibling tests
//! running queries in the same process would move the same counters.

use hyperq::endpoint::{EndpointConfig, QipcClient, QipcEndpoint};
use hyperq::gateway::{Credentials, PgWireBackend};
use hyperq::{loader, HyperQSession, SessionConfig};
use hyperq_workload::taq::{generate_trades, TaqConfig};

fn session_with_trades(db: &pgdb::Db) -> HyperQSession {
    let mut s = HyperQSession::with_direct(db);
    let trades = generate_trades(&TaqConfig { rows: 150, symbols: 3, days: 2, seed: 7 });
    loader::load_table(&mut s, "trades", &trades).unwrap();
    s
}

#[test]
fn global_counters_move_exactly_as_the_queries_run() {
    global_registry_aggregates_query_metrics();
    pivot_moves_columns_for_both_backends();
    demand_counts_each_templates_choice();
    replies_count_each_encoding_choice();
}

/// Counters and per-stage histograms aggregate in the global registry
/// and appear in the Prometheus rendering.
fn global_registry_aggregates_query_metrics() {
    let db = pgdb::Db::new();
    let mut s = session_with_trades(&db);
    let reg = obs::global_registry();
    let queries_before = reg.counter_value("hyperq_queries_total");
    s.execute("select from trades where Symbol=`GOOG").unwrap();
    s.execute("select avg Price by Symbol from trades").unwrap();
    assert_eq!(reg.counter_value("hyperq_queries_total"), queries_before + 2);

    let dump = reg.render_prometheus();
    for metric in [
        "hyperq_queries_total",
        "hyperq_query_seconds_count",
        "hyperq_stage_seconds_bucket{stage=\"parse\",le=",
        "hyperq_stage_seconds_bucket{stage=\"pivot\",le=",
        "hyperq_translation_cache_misses_total",
        "hyperq_rows_total",
    ] {
        assert!(dump.contains(metric), "missing {metric} in dump:\n{dump}");
    }
}

/// One result path (DESIGN §10): the in-process backend hands the pivot
/// whole typed columns, the wire backend hands it the typed columns it
/// decoded the `DataRow` stream into — the zero-copy counter moves for
/// both, both agree on the answer, and a TAQ point
/// statement's fixed-width columns decode zero text fields.
fn pivot_moves_columns_for_both_backends() {
    let reg = obs::global_registry();
    let zero_copy = || reg.counter_value("hyperq_pivot_zero_copy_total");
    let fields = |format: &str| {
        reg.counter_value(&format!("hyperq_gateway_fields_decoded_total{{format=\"{format}\"}}"))
    };
    // Date, Symbol, Price, Size: everything a point reply carries but
    // its millisecond `Time`, whose width changes on the way to Q.
    const POINT: &str = "select Date, Symbol, Price, Size from trades where Symbol=`GOOG";

    // Internal: DirectBackend produces batches; columns move to Q.
    let db = pgdb::Db::new();
    let mut internal = session_with_trades(&db);
    let before = zero_copy();
    let v_internal = internal.execute(POINT).unwrap();
    assert!(zero_copy() - before >= 4, "every column of the reply must move, not be rebuilt");

    // The columnar executor's own metrics surface in the same dump.
    let dump = reg.render_prometheus();
    for metric in
        ["pgdb_exec_batches_total", "pgdb_batch_rows_count", "hyperq_pivot_zero_copy_total"]
    {
        assert!(dump.contains(metric), "missing {metric} in dump:\n{dump}");
    }

    // External: the same logical database behind the PG v3 wire.
    let wire_db = pgdb::Db::new();
    {
        let mut loader_session = session_with_trades(&wire_db);
        loader_session.execute("1+1").unwrap();
    }
    let server = pgdb::server::PgServer::start(
        wire_db,
        "127.0.0.1:0",
        pgdb::server::ServerConfig::default(),
    )
    .unwrap();
    let creds =
        Credentials { user: "ops".into(), password: String::new(), database: "hist".into() };
    let gw = PgWireBackend::connect(&server.addr.to_string(), &creds).unwrap();
    let mut external = HyperQSession::new(hyperq::share(gw), SessionConfig::default());
    // Metadata lookups first, so the counters below see the point
    // statement alone.
    external.translate_only(POINT).unwrap();
    let (before, binary_before, text_before) = (zero_copy(), fields("binary"), fields("text"));
    let rows_before = reg.counter_value("hyperq_gateway_result_rows_total");
    let v_external = external.execute(POINT).unwrap();
    assert!(
        zero_copy() - before >= 4,
        "the wire backend's columns must move as the in-process backend's do"
    );
    let rows = reg.counter_value("hyperq_gateway_result_rows_total") - rows_before;
    assert!(rows > 0, "the point statement must return rows");
    // The four named columns plus the implicit order column.
    assert_eq!(fields("binary") - binary_before, 5 * rows);
    assert_eq!(fields("text"), text_before, "no field of a point reply may travel as text");
    assert_eq!(
        format!("{v_internal:?}"),
        format!("{v_external:?}"),
        "both backends must give the same value, bit for bit"
    );

    // Both families are scrapeable.
    let dump = reg.render_prometheus();
    for metric in [
        "hyperq_gateway_fields_decoded_total{format=\"binary\"}",
        "hyperq_gateway_fields_decoded_total{format=\"text\"}",
        "hyperq_gateway_result_rows_total",
    ] {
        assert!(dump.contains(metric), "missing {metric} in dump:\n{dump}");
    }
    server.detach();
}

/// `hyperq_translate_demand_total{demand, reason}`: one count per q-sql
/// template translated, by how it bound its FROM clause — to the names
/// it reads, or to every column and why. A failed binding counts too.
fn demand_counts_each_templates_choice() {
    let reg = obs::global_registry();
    let series = [
        ("names", "items"),
        ("all", "no_items"),
        ("all", "update_delete"),
        ("all", "opaque"),
        ("all", "pruning_off"),
    ]
    .map(|(d, r)| format!("hyperq_translate_demand_total{{demand=\"{d}\",reason=\"{r}\"}}"));
    let counts = || series.clone().map(|m| reg.counter_value(&m));

    let db = pgdb::Db::new();
    let mut s = session_with_trades(&db);
    let mut unpruned = HyperQSession::with_direct_config(&db, {
        let mut config = SessionConfig::default();
        config.xform.column_pruning = false;
        config
    });
    let before = counts();
    s.translate_only("select Price from trades where Symbol=`GOOG").unwrap();
    s.translate_only("select Price from select from trades").unwrap();
    s.translate_only("select by Symbol from trades").unwrap();
    s.translate_only("update Price: 0.0 from trades where Size>100").unwrap();
    s.translate_only("select {x} Price from trades").unwrap_err();
    unpruned.translate_only("select Price from trades").unwrap();
    let after = counts();
    let moved: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(moved, [2, 2, 1, 1, 1], "names/items, no_items, update_delete, opaque, pruning_off");

    let dump = reg.render_prometheus();
    for metric in &series {
        assert!(dump.contains(metric.as_str()), "missing {metric} in dump:\n{dump}");
    }
}

/// `qipc_replies_total{encoding, reason}`: one count per value reply, by
/// how kdb+'s rule encoded it. The client is on this host, so a reply of
/// over twice the compression threshold goes out plain and counts
/// `plain/loopback`, and no other series moves.
fn replies_count_each_encoding_choice() {
    let reg = obs::global_registry();
    let series = [
        ("plain", "loopback"),
        ("plain", "capability"),
        ("plain", "small"),
        ("plain", "no_gain"),
        ("compressed", "halved"),
    ]
    .map(|(e, r)| format!("qipc_replies_total{{encoding=\"{e}\",reason=\"{r}\"}}"));
    let counts = || series.clone().map(|m| reg.counter_value(&m));

    let db = pgdb::Db::new();
    session_with_trades(&db);
    let ep = QipcEndpoint::start(db, "127.0.0.1:0", EndpointConfig::default()).unwrap();
    let mut client = QipcClient::connect(&ep.addr.to_string(), "ops", "").unwrap();
    let bytes_before = reg.counter_value("qipc_response_bytes_total");
    let before = counts();
    let reply = client.query("select from trades").unwrap();
    let moved: Vec<u64> = counts().iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(moved, [1, 0, 0, 0, 0], "plain/loopback, capability, small, no_gain, halved");
    let plain = qipc::encode_message(&qipc::Message::response(reply)).unwrap();
    assert!(plain.len() > 2 * qipc::compress::COMPRESSION_THRESHOLD, "{} bytes", plain.len());
    assert_eq!(reg.counter_value("qipc_response_bytes_total") - bytes_before, plain.len() as u64);

    let dump = match client.query("\\metrics").unwrap() {
        qlang::Value::Chars(dump) => dump,
        other => panic!("expected chars, got {other:?}"),
    };
    for metric in &series {
        assert!(dump.contains(metric.as_str()), "missing {metric} in dump:\n{dump}");
    }
    ep.stop();
}
