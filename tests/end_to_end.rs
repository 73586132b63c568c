//! Cross-crate integration tests: the full Figure 1 pipeline, including
//! wire-level deployments where every byte crosses a real TCP socket.

mod common;

use common::side_by_side;
use hyperq::endpoint::{EndpointConfig, QipcClient, QipcEndpoint};
use hyperq::gateway::{Credentials, PgWireBackend};
use hyperq::{backend, loader, HyperQSession, SessionConfig};
use hyperq_workload::taq::{generate_quotes, generate_trades, TaqConfig};
use qlang::value::{Table, Value};

fn taq_cfg() -> TaqConfig {
    TaqConfig { rows: 300, symbols: 4, days: 2, seed: 2016 }
}

/// Paper Example 1: the prevailing-quote as-of join, validated against
/// the reference Q engine on generated TAQ data.
#[test]
fn paper_example_1_point_in_time_query_agrees_with_reference() {
    let tables = [
        ("trades".into(), generate_trades(&taq_cfg())),
        ("quotes".into(), generate_quotes(&TaqConfig { rows: 900, ..taq_cfg() })),
    ];
    let q = concat!(
        "aj[`Symbol`Time; ",
        "select Symbol, Time, Price from trades where Date=2016.06.26, Symbol in `GOOG`IBM; ",
        "select Symbol, Time, Bid, Ask from quotes where Date=2016.06.26]"
    );
    let report = side_by_side(&tables, SessionConfig::default(), &[q]);
    match report.outcomes[0][1].value() {
        Some(Value::Table(t)) => {
            assert!(t.rows() > 0);
            assert!(t.column("Bid").is_some());
            assert!(t.column("Ask").is_some());
        }
        other => panic!("expected table, got {other:?}"),
    }
}

/// Paper Example 3 agrees between engines under both materialization
/// policies.
#[test]
fn paper_example_3_agrees_under_both_policies() {
    for policy in [
        algebrizer::MaterializationPolicy::Logical,
        algebrizer::MaterializationPolicy::Physical,
    ] {
        let cfg = SessionConfig { policy, ..SessionConfig::default() };
        side_by_side(
            &[("trades".into(), generate_trades(&taq_cfg()))],
            cfg,
            &[concat!(
                "f: {[Sym] dt: select Price from trades where Symbol=Sym; ",
                ":select max Price from dt}; f[`GOOG]"
            )],
        );
    }
}

/// The full wire topology: QIPC client → Hyper-Q endpoint → translation →
/// pgdb over the PG v3 TCP protocol (Gateway), results pivoted back.
#[test]
fn full_wire_topology_qipc_to_pgv3() {
    // Backend DB + PG v3 server.
    let db = pgdb::Db::new();
    let mut bootstrap = HyperQSession::with_direct(&db);
    loader::load_table(&mut bootstrap, "trades", &generate_trades(&taq_cfg())).unwrap();
    let pg = pgdb::server::PgServer::start(
        db.clone(),
        "127.0.0.1:0",
        pgdb::server::ServerConfig::default(),
    )
    .unwrap();

    // A Hyper-Q session whose backend is the remote PG server (not the
    // in-process engine) — the deployment shape of the paper.
    let gateway = PgWireBackend::connect(
        &pg.addr.to_string(),
        &Credentials { user: "hyperq".into(), password: String::new(), database: "hist".into() },
    )
    .unwrap();
    let mut session =
        HyperQSession::new(backend::share(gateway), SessionConfig::default());
    let v = session.execute("select mx: max Price by Symbol from trades").unwrap();
    match v {
        Value::KeyedTable(k) => assert!(k.key.rows() > 0),
        other => panic!("expected keyed table, got {other:?}"),
    }

    // Cross-check against the in-process path.
    let mut direct = HyperQSession::with_direct(&db);
    let v2 = direct.execute("select mx: max Price by Symbol from trades").unwrap();
    let v1 = session.execute("select mx: max Price by Symbol from trades").unwrap();
    assert!(v1.q_eq(&v2), "wire and direct backends must agree");
    pg.detach();
}

/// QIPC endpoint serves concurrent clients with isolated sessions.
#[test]
fn endpoint_serves_concurrent_clients() {
    let db = pgdb::Db::new();
    let mut bootstrap = HyperQSession::with_direct(&db);
    loader::load_table(&mut bootstrap, "trades", &generate_trades(&taq_cfg())).unwrap();
    let ep = QipcEndpoint::start(db, "127.0.0.1:0", EndpointConfig::default()).unwrap();
    let addr = ep.addr.to_string();

    let handles: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = QipcClient::connect(&addr, &format!("user{i}"), "").unwrap();
                c.query(&format!("threshold: {}.0", 40 + i)).unwrap();
                let v = c.query("exec count i from trades where Price > threshold").unwrap();
                assert!(matches!(v, Value::Atom(_) | Value::Longs(_)), "got {v:?}");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    ep.detach();
}

/// Large result sets round-trip over QIPC. This client is on the
/// endpoint's host, so, as kdb+ does for a loopback peer, the reply goes
/// out plain; compressed replies to remote peers (paper §3.1) are tested
/// in `hyperq::endpoint`'s `reply_encoding` unit tests.
#[test]
fn large_results_round_trip_compressed_over_the_wire() {
    let db = pgdb::Db::new();
    let mut bootstrap = HyperQSession::with_direct(&db);
    loader::load_table(
        &mut bootstrap,
        "trades",
        &generate_trades(&TaqConfig { rows: 5000, symbols: 4, days: 2, seed: 1 }),
    )
    .unwrap();
    let ep = QipcEndpoint::start(db, "127.0.0.1:0", EndpointConfig::default()).unwrap();
    let mut client = QipcClient::connect(&ep.addr.to_string(), "t", "").unwrap();
    let v = client.query("select Symbol, Price, Size from trades").unwrap();
    match v {
        Value::Table(t) => assert_eq!(t.rows(), 5000),
        other => panic!("expected table, got {other:?}"),
    }
    ep.detach();
}

/// Q update semantics survive the whole pipeline: output changed, source
/// untouched (the paper's §2.2 warning case).
#[test]
fn update_does_not_mutate_backend_state() {
    let db = pgdb::Db::new();
    let mut s = HyperQSession::with_direct(&db);
    let t = Table::new(
        vec!["Sym".into(), "Px".into()],
        vec![
            Value::Symbols(vec!["A".into(), "B".into()]),
            Value::Floats(vec![1.0, 2.0]),
        ],
    )
    .unwrap();
    loader::load_table(&mut s, "t", &t).unwrap();
    let updated = s.execute("update Px: 100.0 from t").unwrap();
    match updated {
        Value::Table(u) => assert!(u.column("Px").unwrap().q_eq(&Value::Floats(vec![100.0, 100.0]))),
        other => panic!("expected table, got {other:?}"),
    }
    let source = s.execute("exec Px from t").unwrap();
    assert!(source.q_eq(&Value::Floats(vec![1.0, 2.0])), "backend state must be unchanged");
}

/// Ordered-list semantics: row order survives translation, execution and
/// pivoting, repeatedly.
#[test]
fn ordering_is_stable_across_round_trips() {
    let db = pgdb::Db::new();
    let mut s = HyperQSession::with_direct(&db);
    loader::load_table(&mut s, "trades", &generate_trades(&taq_cfg())).unwrap();
    let first = s.execute("select Time, Price from trades").unwrap();
    for _ in 0..3 {
        let again = s.execute("select Time, Price from trades").unwrap();
        assert!(first.q_eq(&again), "repeated reads must preserve identical order");
    }
}

/// Two-valued logic end to end: Q's null-equals-null visible through the
/// whole translated pipeline.
#[test]
fn two_valued_null_logic_end_to_end() {
    let t = Table::new(
        vec!["Sym".into(), "Px".into()],
        vec![
            Value::Symbols(vec!["".into(), "A".into(), "".into()]),
            Value::Floats(vec![1.0, 2.0, f64::NAN]),
        ],
    )
    .unwrap();
    side_by_side(
        &[("t".into(), t)],
        SessionConfig::default(),
        &[
            // Null symbol matches null symbol.
            "select Px from t where Sym=`",
            // <> under 2VL.
            "select Px from t where Sym<>`",
            // Aggregates skip nulls identically.
            "select s: sum Px, n: count i from t",
        ],
    );
}

/// Metadata cache ablation: identical results, fewer backend catalog
/// queries.
#[test]
fn metadata_cache_reduces_backend_lookups_without_changing_results() {
    let db = pgdb::Db::new();
    // Translation caching off: repeats must reach the MDI so the
    // *metadata* cache is what serves them.
    let mut warm = HyperQSession::with_direct_config(
        &db,
        SessionConfig { translation_cache: 0, ..Default::default() },
    );
    loader::load_table(&mut warm, "trades", &generate_trades(&taq_cfg())).unwrap();
    let q = "select mx: max Price by Symbol from trades";
    let baseline = warm.execute(q).unwrap();
    for _ in 0..5 {
        let v = warm.execute(q).unwrap();
        assert!(v.q_eq(&baseline));
    }
    let stats = warm.cache_stats();
    assert!(stats.hits >= 4, "cache must serve repeats: {stats:?}");

    let mut cold = HyperQSession::with_direct_config(
        &db,
        SessionConfig { metadata_cache_ttl: std::time::Duration::ZERO, ..Default::default() },
    );
    let v = cold.execute(q).unwrap();
    assert!(v.q_eq(&baseline), "cache must be semantically transparent");
}
