//! Backend abstraction.
//!
//! Hyper-Q virtualizes *which* database executes the SQL: the paper's
//! deployments used Greenplum over the PG v3 protocol; tests and
//! benchmarks here use the in-process `pgdb` engine. Both sit behind one
//! trait so the translation pipeline cannot tell the difference — that
//! indifference is the point of ADV.

use crate::wire::WireError;
use pgdb::{BatchQueryResult, QueryResult, Session, StreamQueryResult};
use std::sync::{Arc, Mutex};

/// Something that executes SQL statements and returns their results —
/// columnar, whichever side of a socket the executor is on.
///
/// Failures come back as the typed [`WireError`] taxonomy: a plain SQL
/// error is `WireErrorKind::Db`, while wire-level failures (lost
/// connections, deadlines, protocol violations, exhausted retries)
/// carry their own kinds so callers can degrade gracefully instead of
/// tearing the session down.
pub trait Backend: Send {
    /// Execute one SQL statement and hand the result back as typed
    /// column vectors. Every backend answers `Some`: the in-process
    /// engine hands over its own batch, the PG v3 gateway decodes
    /// `DataRow` frames straight into one (DESIGN §10). The `Option` is
    /// what is left of an earlier "`None` = this backend only has rows"
    /// contract; hqbench matches on it and `benchmark/` is not this
    /// repository's to edit in the same change.
    fn execute_sql_batch(&mut self, sql: &str) -> Result<Option<BatchQueryResult>, WireError>;

    /// Execute one SQL statement, row-major result: the batch of
    /// [`Backend::execute_sql_batch`] transposed — a convenience for
    /// callers that read a handful of cells (loader, metadata lookups,
    /// `EXPLAIN SHARD`), not a second result path.
    fn execute_sql(&mut self, sql: &str) -> Result<QueryResult, WireError> {
        Ok(match execute_batch(self, sql)? {
            BatchQueryResult::Batch(b) => QueryResult::Rows(b.into_rows()),
            BatchQueryResult::Command(tag) => QueryResult::Command(tag),
        })
    }

    /// [`Backend::execute_sql_batch`] as a one-chunk stream, `None` on
    /// all but the in-process backend. Exists for hqbench until ROADMAP
    /// item 8 step A.
    fn execute_sql_stream(
        &mut self,
        _sql: &str,
    ) -> Result<Option<StreamQueryResult>, WireError> {
        Ok(None)
    }

    /// Does nothing: a statement runs on one executor thread. Goes with ROADMAP item 8 step A.
    fn set_exec_threads(&mut self, _threads: Option<usize>) {}

    /// Human-readable description (for diagnostics).
    fn describe(&self) -> String {
        "backend".to_string()
    }

    /// How many times this backend has transparently reconnected over
    /// its lifetime (0 for backends that cannot reconnect). Sessions
    /// diff this around statement execution to surface `Recovering`
    /// span events in query traces.
    fn reconnects(&self) -> u64 {
        0
    }

    /// Whether committed mutations on this backend survive a crash
    /// (WAL + recovery). The gateway consults this when a connection
    /// dies mid-mutation: against a durable backend the refusal to
    /// blind-replay becomes "replay skipped, effects preserved",
    /// because a committed statement cannot have been lost.
    fn durable(&self) -> bool {
        false
    }
}

/// [`Backend::execute_sql_batch`] without the `Option` its signature
/// still carries: the one place that knows every backend answers.
pub(crate) fn execute_batch<B: Backend + ?Sized>(
    backend: &mut B,
    sql: &str,
) -> Result<BatchQueryResult, WireError> {
    backend
        .execute_sql_batch(sql)?
        .ok_or_else(|| WireError::protocol("backend produced no result"))
}

/// In-process backend: a `pgdb` session (temp tables and all).
pub struct DirectBackend {
    session: Session,
}

impl DirectBackend {
    /// Open a backend session against a shared `pgdb` database.
    pub fn new(db: &pgdb::Db) -> Self {
        DirectBackend { session: db.session() }
    }
}

impl Backend for DirectBackend {
    fn execute_sql_batch(
        &mut self,
        sql: &str,
    ) -> Result<Option<BatchQueryResult>, WireError> {
        self.session.execute_batch(sql).map(Some).map_err(WireError::from)
    }

    fn execute_sql_stream(
        &mut self,
        sql: &str,
    ) -> Result<Option<StreamQueryResult>, WireError> {
        self.session.execute_stream(sql).map(Some).map_err(WireError::from)
    }

    fn describe(&self) -> String {
        "pgdb (in-process)".to_string()
    }

    fn durable(&self) -> bool {
        self.session.db().is_durable()
    }
}

/// A shareable backend handle: the session and the metadata interface
/// both need access, so the backend lives behind `Arc<Mutex<_>>`.
pub type SharedBackend = Arc<Mutex<dyn Backend>>;

/// Wrap a backend for sharing.
pub fn share(backend: impl Backend + 'static) -> SharedBackend {
    Arc::new(Mutex::new(backend))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdb::Cell;

    #[test]
    fn direct_backend_round_trip() {
        let db = pgdb::Db::new();
        let mut b = DirectBackend::new(&db);
        b.execute_sql("CREATE TABLE t (x bigint)").unwrap();
        b.execute_sql("INSERT INTO t VALUES (7)").unwrap();
        match b.execute_sql("SELECT x FROM t").unwrap() {
            QueryResult::Rows(r) => assert_eq!(r.data[0][0], Cell::Int(7)),
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn shared_backend_is_usable_from_clones() {
        let db = pgdb::Db::new();
        let shared = share(DirectBackend::new(&db));
        let clone = Arc::clone(&shared);
        clone.lock().unwrap().execute_sql("CREATE TABLE t (x bigint)").unwrap();
        shared.lock().unwrap().execute_sql("INSERT INTO t VALUES (1)").unwrap();
        let r = clone.lock().unwrap().execute_sql("SELECT count(*) FROM t").unwrap();
        match r {
            QueryResult::Rows(rows) => assert_eq!(rows.data[0][0], Cell::Int(1)),
            other => panic!("expected rows, got {other:?}"),
        }
    }
}
