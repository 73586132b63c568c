//! # hyperq — the Adaptive Data Virtualization platform
//!
//! This crate assembles the full Hyper-Q pipeline of the paper: a Q
//! application connects over QIPC, its queries are parsed, algebrized
//! into XTRA, transformed, serialized to PG SQL, executed on a
//! PG-compatible backend, and the row-oriented results are pivoted back
//! into column-oriented QIPC messages — all transparently to the
//! application (paper Figure 1).
//!
//! Components, mapped to the paper's architecture:
//!
//! * [`translate`] — the Query Translator: drives Algebrizer → Xformer →
//!   Serializer with per-stage timing instrumentation (the measurements
//!   behind Figures 6 and 7).
//! * [`backend`] — the backend abstraction: in-process `pgdb` or a remote
//!   PG v3 server over TCP.
//! * [`gateway`] — the PG-specific Gateway plugin: a PG v3 wire client
//!   (start-up, clear-text/MD5 authentication, simple and extended
//!   query) and the one wire session, [`gateway::PgWireBackend`], with
//!   its DDL journal and retry loop.
//! * [`pool`] — the backend connections a wire session checks out per
//!   statement: shared by many sessions, or a pool of one for a
//!   dedicated connection.
//! * [`mdi_backend`] — the PG MetaData Interface: binds names by querying
//!   `information_schema.columns` on the backend (§3.2.3), always wrapped
//!   in the configurable metadata cache.
//! * [`pivot`] — result-set pivoting: buffering the PG row stream and
//!   re-assembling it into Q's column-oriented values (§4.2, Figure 5).
//! * [`session`] — a Hyper-Q session: variable scopes, eager
//!   materialization of Q variables (§4.3), statement execution.
//! * [`qcache`] — the keyed translation cache: repeated Q statements
//!   skip the translation pipeline entirely until a scope or catalog
//!   mutation invalidates them.
//! * [`xc`] — the Cross Compiler's Protocol Translator finite state
//!   machine (§3.4); its Query Translator is [`translate`], run by the
//!   session.
//! * [`endpoint`] — the kdb+-specific Endpoint plugin: a QIPC TCP server
//!   that Q applications connect to unchanged (§3.1).
//! * [`wire`] — wire-path resilience: the typed [`wire::WireError`]
//!   taxonomy, [`wire::WireTimeouts`] deadlines on both TCP legs and the
//!   deterministic [`wire::RetryPolicy`] driving Gateway reconnects.
//! * [`loader`] — schema mapping and data movement helpers (the part the
//!   paper's customers found easy; we provide it for the examples).
//! * [`side_by_side`] — the §5 side-by-side testing framework: the
//!   differential matrix that runs the same Q on the reference engine
//!   and on any number of Hyper-Q arms and diffs every pair.
//!
//! Observability: every stage boundary above is instrumented through the
//! zero-dependency `obs` crate. [`session::HyperQSession::execute_observed`]
//! returns a per-query span tree ([`obs::QueryTrace`]); counters and
//! latency histograms aggregate in [`obs::global_registry`] (dumped via
//! the pgdb server's `\metrics` admin query or the QIPC endpoint's
//! `\metrics` system command); queries slower than
//! [`session::SessionConfig::slow_query`] land in [`obs::global_slowlog`]
//! (the endpoint's `\slowlog` command).
//!
//! # Example
//!
//! ```
//! use hyperq::{loader, HyperQSession};
//! use qlang::value::{Table, Value};
//!
//! let db = pgdb::Db::new();
//! let mut session = HyperQSession::with_direct(&db);
//!
//! let trades = Table::new(
//!     vec!["Symbol".into(), "Price".into()],
//!     vec![
//!         Value::Symbols(vec!["GOOG".into(), "IBM".into()]),
//!         Value::Floats(vec![100.0, 50.0]),
//!     ],
//! ).unwrap();
//! loader::load_table(&mut session, "trades", &trades).unwrap();
//!
//! // Q in, Q values out; PostgreSQL-compatible SQL in between.
//! let v = session.execute("select Price from trades where Symbol=`GOOG").unwrap();
//! match v {
//!     qlang::Value::Table(t) => {
//!         assert!(t.column("Price").unwrap().q_eq(&Value::Floats(vec![100.0])));
//!     }
//!     other => panic!("expected table, got {other:?}"),
//! }
//! ```

pub mod backend;
pub mod endpoint;
pub mod gateway;
pub mod loader;
pub mod mdi_backend;
pub mod pivot;
pub mod pool;
pub mod qcache;
pub mod session;
pub mod shard;
pub mod side_by_side;
pub mod translate;
pub mod wire;
pub mod xc;

pub use backend::{share, Backend, DirectBackend, SharedBackend};
pub use side_by_side::Outcome;
pub use obs::{QueryTrace, Span, SpanEvent, Stage};
pub use pool::{BackendPool, PoolConfig};
pub use qcache::{CacheStats, TranslationCache};
pub use session::{HyperQSession, SessionConfig};
pub use shard::{env_shards, ShardCluster, ShardOpts, ShardRouter};
pub use translate::{StageTimings, Translation, TranslationStats, Translator};
pub use wire::{RetryPolicy, ShardFailure, WireError, WireErrorKind, WireTimeouts};
