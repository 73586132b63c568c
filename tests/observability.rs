//! End-to-end observability: a traced query yields a six-stage span
//! tree with non-zero durations, the same activity is visible through
//! BOTH metrics exposure paths (the pgdb server's Prometheus admin
//! query and the QIPC endpoint's `\metrics` system command), and slow
//! queries land in the ring-buffer slow-query log.

use hyperq::endpoint::{EndpointConfig, QipcClient, QipcEndpoint};
use hyperq::gateway::{Credentials, PgWireBackend};
use hyperq::{loader, Backend, HyperQSession, SessionConfig, SpanEvent, Stage};
use hyperq_workload::taq::{generate_trades, TaqConfig};
use pgdb::QueryResult;
use std::time::Duration;

fn taq_cfg() -> TaqConfig {
    TaqConfig { rows: 150, symbols: 3, days: 2, seed: 7 }
}

fn session_with_trades(db: &pgdb::Db) -> HyperQSession {
    let mut s = HyperQSession::with_direct(db);
    loader::load_table(&mut s, "trades", &generate_trades(&taq_cfg())).unwrap();
    s
}

/// The acceptance demo: one traced query produces a span tree covering
/// all six pipeline stages, each with a non-zero duration.
#[test]
fn traced_query_covers_all_six_stages_with_nonzero_durations() {
    let db = pgdb::Db::new();
    let mut s = session_with_trades(&db);
    let (v, trace) =
        s.execute_observed("select mx: max Price by Symbol from trades where Size>100").unwrap();
    assert!(matches!(v, qlang::Value::KeyedTable(_) | qlang::Value::Table(_)), "{v:?}");

    assert!(trace.covers_all_stages(), "stages: {:?}", trace.stage_names());
    for stage in Stage::ALL {
        let span = trace.span(stage).unwrap();
        assert!(
            span.duration > Duration::ZERO,
            "stage {} has zero duration:\n{}",
            stage.name(),
            trace.render()
        );
    }
    assert!(trace.total > Duration::ZERO);
    assert!(!trace.sql.is_empty(), "generated SQL recorded on the trace");
    // First execution: the translation cache was consulted and missed.
    assert!(!trace.cache_hit);
    assert!(trace.has_event(|e| matches!(e, SpanEvent::CacheMiss)));
    // The execute span carries one child per emitted SQL statement.
    let exec = trace.span(Stage::Execute).unwrap();
    assert_eq!(exec.children.len(), trace.sql.len());
    assert!(exec.rows > 0, "execute span records returned rows");
}

/// Re-running the same statement is served from the translation cache
/// and the trace says so.
#[test]
fn repeated_query_traces_as_a_cache_hit() {
    let db = pgdb::Db::new();
    let mut s = session_with_trades(&db);
    let q = "select sum Size by Symbol from trades";
    s.execute_observed(q).unwrap();
    let (_, trace) = s.execute_observed(q).unwrap();
    assert!(trace.cache_hit, "{}", trace.render());
    assert!(trace.has_event(|e| matches!(e, SpanEvent::CacheHit)));
    assert!(trace.covers_all_stages());
}

/// `last_trace` retains the most recent span tree, including failures.
#[test]
fn failed_queries_are_traced_and_counted() {
    let db = pgdb::Db::new();
    let mut s = session_with_trades(&db);
    let reg = obs::global_registry();
    let errors_before = reg.counter_value("hyperq_query_errors_total");
    assert!(s.execute_observed("select from no_such_table").is_err());
    assert!(s.last_trace().is_some());
    assert_eq!(reg.counter_value("hyperq_query_errors_total"), errors_before + 1);
}

/// Exposure path 1: the pgdb server answers `SHOW metrics` (and
/// `\metrics`) over the PG v3 wire with the Prometheus dump.
#[test]
fn prometheus_dump_is_served_over_the_pg_wire() {
    let db = pgdb::Db::new();
    let mut s = session_with_trades(&db);
    s.execute("select max Price from trades").unwrap();

    let server =
        pgdb::server::PgServer::start(db, "127.0.0.1:0", pgdb::server::ServerConfig::default())
            .unwrap();
    let creds =
        Credentials { user: "ops".into(), password: String::new(), database: "hist".into() };
    let mut gw = PgWireBackend::connect(&server.addr.to_string(), &creds).unwrap();
    match gw.execute_sql("SHOW metrics").unwrap() {
        QueryResult::Rows(rows) => {
            let lines: Vec<String> = rows
                .data
                .iter()
                .map(|r| match &r[0] {
                    pgdb::Cell::Text(s) => s.clone(),
                    other => panic!("expected text cell, got {other:?}"),
                })
                .collect();
            let dump = lines.join("\n");
            assert!(dump.contains("# TYPE"), "{dump}");
            assert!(dump.contains("hyperq_queries_total"), "{dump}");
            assert!(dump.contains("hyperq_stage_seconds"), "{dump}");
            assert!(
                dump.contains("hyperq_translate_demand_total{demand=\"names\",reason=\"items\"}"),
                "{dump}"
            );
        }
        other => panic!("expected rows, got {other:?}"),
    }
    server.detach();
}

/// Exposure path 2: the QIPC endpoint answers the `\metrics` system
/// command inline on a live Q connection, and `\slowlog` dumps the
/// slow-query ring buffer.
#[test]
fn qipc_metrics_and_slowlog_commands_reflect_traffic() {
    let db = pgdb::Db::new();
    {
        let mut s = session_with_trades(&db);
        s.execute("1+1").unwrap();
    }
    // Slow-query threshold of 1ns: everything is "slow".
    let config = EndpointConfig {
        session: SessionConfig { slow_query: Duration::from_nanos(1), ..SessionConfig::default() },
        ..EndpointConfig::default()
    };
    let ep = QipcEndpoint::start(db, "127.0.0.1:0", config).unwrap();
    let mut client = QipcClient::connect(&ep.addr.to_string(), "ops", "").unwrap();

    client.query("select Price from trades where Symbol=`GOOG").unwrap();

    let recorded_before = obs::global_slowlog().recorded();
    assert!(recorded_before > 0, "1ns threshold must have recorded the query");

    match client.query("\\metrics").unwrap() {
        qlang::Value::Chars(dump) => {
            assert!(dump.contains("# TYPE"), "{dump}");
            assert!(dump.contains("hyperq_queries_total"), "{dump}");
            assert!(dump.contains("hyperq_slow_queries_total"), "{dump}");
        }
        other => panic!("expected chars, got {other:?}"),
    }
    match client.query("\\slowlog").unwrap() {
        qlang::Value::Chars(dump) => {
            assert!(dump.contains("select Price from trades"), "{dump}");
        }
        other => panic!("expected chars, got {other:?}"),
    }
    ep.detach();
}

/// The slow-query log captures Q text, generated SQL and per-stage
/// timings; a generous threshold captures nothing.
#[test]
fn slow_query_log_captures_stages_and_respects_threshold() {
    let db = pgdb::Db::new();
    let cfg = SessionConfig { slow_query: Duration::from_nanos(1), ..SessionConfig::default() };
    let mut s = HyperQSession::with_direct_config(&db, cfg);
    loader::load_table(&mut s, "trades", &generate_trades(&taq_cfg())).unwrap();

    let recorded_before = obs::global_slowlog().recorded();
    s.execute("select first Price by Symbol from trades").unwrap();
    let log = obs::global_slowlog();
    assert!(log.recorded() > recorded_before);
    let entries = log.entries();
    let rec = entries
        .iter()
        .rev()
        .find(|r| r.q_text.contains("first Price"))
        .expect("slow query recorded");
    assert!(!rec.sql.is_empty(), "generated SQL captured");
    assert_eq!(rec.stages.len(), 6, "per-stage timings captured: {:?}", rec.stages);

    // A generous threshold records nothing for a fast query.
    let mut quiet = HyperQSession::with_direct_config(
        &db,
        SessionConfig { slow_query: Duration::from_secs(3600), ..SessionConfig::default() },
    );
    let quiet_before = obs::global_slowlog().recorded();
    quiet.execute("select last Price by Symbol from trades").unwrap();
    assert_eq!(obs::global_slowlog().recorded(), quiet_before);
}
