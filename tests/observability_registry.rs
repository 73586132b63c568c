//! Exact movements of process-global counters: queries aggregate in the
//! global registry and its Prometheus rendering, and only the
//! in-process backend moves the zero-copy pivot counter.
//!
//! One test function, in a test binary of its own: sibling tests
//! running queries in the same process would move the same counters.

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
    pivot_zero_copy_counts_internal_backend_only();
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

/// The representation boundary (DESIGN §10): the in-process backend
/// hands the pivot whole typed columns — the zero-copy counter moves —
/// while an external wire backend streams rows through the unchanged
/// row pivot, leaving the counter where it was, and both agree on the
/// answer.
fn pivot_zero_copy_counts_internal_backend_only() {
    let reg = obs::global_registry();

    // Internal: DirectBackend produces batches; columns move to Q.
    let db = pgdb::Db::new();
    let mut internal = session_with_trades(&db);
    let before = reg.counter_value("hyperq_pivot_zero_copy_total");
    let v_internal = internal.execute("select Price from trades where Symbol=`GOOG").unwrap();
    let after_internal = reg.counter_value("hyperq_pivot_zero_copy_total");
    assert!(
        after_internal > before,
        "internal backend must pivot zero-copy ({before} -> {after_internal})"
    );

    // The columnar executor's own metrics surface in the same dump.
    let dump = reg.render_prometheus();
    for metric in
        ["pgdb_exec_batches_total", "pgdb_batch_rows_count", "hyperq_pivot_zero_copy_total"]
    {
        assert!(dump.contains(metric), "missing {metric} in dump:\n{dump}");
    }

    // External: the same logical database behind the PG v3 wire. The
    // gateway backend only streams rows, so the session takes the row
    // pivot and the zero-copy counter must not move.
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
    let before_ext = reg.counter_value("hyperq_pivot_zero_copy_total");
    let v_external = external.execute("select Price from trades where Symbol=`GOOG").unwrap();
    let after_ext = reg.counter_value("hyperq_pivot_zero_copy_total");
    assert_eq!(
        before_ext, after_ext,
        "external wire backend must take the row-pivot path"
    );
    assert!(
        hyperq::side_by_side::values_agree(&v_internal, &v_external),
        "both pivot paths must agree: {v_internal:?} vs {v_external:?}"
    );
    server.detach();
}
