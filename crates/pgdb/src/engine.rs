//! The database facade: shared store, sessions, statement execution.
//!
//! The global table store is shared across sessions (analytical tables
//! loaded once, queried by many connections — the "increased concurrency"
//! the paper's §5 customer valued). Temporary tables are session-scoped,
//! which is what makes them the right target for Hyper-Q's physical
//! materialization of Q variables (§4.3).

use crate::catalog;
use crate::exec::columnar::run_select_batch;
use crate::exec::expr::{cast, eval};
use crate::exec::TableSource;
use crate::sql::ast::Stmt;
use crate::sql::parse_statement;
use crate::types::{Cell, Column, Rows};
use colstore::{Batch, BatchStream};
use durability::{Durability, WalRecord};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A database error with a SQLSTATE code (transported in PG v3
/// `ErrorResponse` messages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbError {
    /// SQLSTATE code.
    pub code: String,
    /// Human-readable message.
    pub message: String,
}

impl DbError {
    /// `42601` syntax error.
    pub fn syntax(msg: impl Into<String>) -> Self {
        DbError { code: "42601".into(), message: msg.into() }
    }

    /// `42P01` undefined table.
    pub fn undefined_table(name: &str) -> Self {
        DbError { code: "42P01".into(), message: format!("relation \"{name}\" does not exist") }
    }

    /// `42703` undefined column.
    pub fn undefined_column(name: String) -> Self {
        DbError { code: "42703".into(), message: format!("column \"{name}\" does not exist") }
    }

    /// `42P07` duplicate table.
    pub fn duplicate_table(name: &str) -> Self {
        DbError { code: "42P07".into(), message: format!("relation \"{name}\" already exists") }
    }

    /// `XX000` internal/execution error.
    pub fn exec(msg: impl Into<String>) -> Self {
        DbError { code: "XX000".into(), message: msg.into() }
    }
}

/// `42804` datatype mismatch: a row produced a value its column's
/// declared type cannot hold.
impl From<colstore::ClassMismatch> for DbError {
    fn from(e: colstore::ClassMismatch) -> Self {
        DbError { code: "42804".into(), message: e.to_string() }
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for DbError {}

/// A stored table. Storage is columnar (DESIGN §10): scans hand the
/// executor typed vectors without per-cell work, and `CREATE TABLE AS`
/// stores the executor's result batch without transposing it.
///
/// The batch sits behind an `Arc` so snapshots — [`Db::get_table_snapshot`],
/// checkpoint captures — are reference-count bumps, not deep copies;
/// in-place mutation goes through `Arc::make_mut` (copy-on-write, and
/// the copy only happens while a snapshot is actually outstanding).
#[derive(Debug, Clone, Default)]
pub struct StoredTable {
    /// Columnar data (schema + typed column vectors), shared with any
    /// outstanding snapshots.
    pub batch: Arc<Batch>,
}

impl StoredTable {
    /// Wrap a batch for storage.
    pub fn new(batch: Batch) -> Self {
        StoredTable { batch: Arc::new(batch) }
    }

    /// Column definitions.
    pub fn columns(&self) -> &[Column] {
        &self.batch.schema
    }

    /// Row-major snapshot of the data.
    pub fn rows(&self) -> Vec<Vec<Cell>> {
        self.batch.to_rows().data
    }
}

/// The shared database: a handle cloneable across threads/sessions.
#[derive(Debug, Clone, Default)]
pub struct Db {
    tables: Arc<RwLock<HashMap<String, StoredTable>>>,
    /// Durability manager; `None` keeps the pure in-memory hot path —
    /// no WAL, no fsync, byte-for-byte the pre-durability behaviour.
    dur: Option<Arc<Durability>>,
}

/// Map a durability failure onto the SQLSTATE surface (`XX000`): the
/// statement did not commit.
fn dur_err(e: durability::DurError) -> DbError {
    DbError::exec(format!("durability: {e}"))
}

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// A row set (SELECT).
    Rows(Rows),
    /// A command tag (DDL/DML): e.g. `CREATE TABLE`, `INSERT 0 3`.
    Command(String),
}

/// Result of executing one statement, columnar: row sets stay batches
/// all the way to the wire codec (which serializes cells only at the
/// protocol boundary).
#[derive(Debug, Clone, PartialEq)]
pub enum BatchQueryResult {
    /// A columnar row set (SELECT).
    Batch(Batch),
    /// A command tag (DDL/DML): e.g. `CREATE TABLE`, `INSERT 0 3`.
    Command(String),
}

/// [`BatchQueryResult`] with the batch as a one-chunk stream. Exists
/// for hqbench until ROADMAP item 8 step A.
#[derive(Debug)]
pub enum StreamQueryResult {
    /// A columnar row set (SELECT), as one chunk.
    Stream(BatchStream<DbError>),
    /// A command tag (DDL/DML): e.g. `CREATE TABLE`, `INSERT 0 3`.
    Command(String),
}

impl Db {
    /// Create an empty, in-memory-only database.
    pub fn new() -> Self {
        Db::default()
    }

    /// Open a durable database: recover the catalog from the data
    /// directory (newest valid checkpoint + WAL tail), then WAL-log
    /// every committed mutation from here on.
    pub fn open(options: &durability::Options) -> Result<Db, DbError> {
        let (dur, recovered) = Durability::open_full(options).map_err(dur_err)?;
        let map = recovered
            .tables
            .into_iter()
            .map(|(n, b)| (n, StoredTable::new(b)))
            .collect();
        Ok(Db {
            tables: Arc::new(RwLock::new(map)),
            dur: Some(Arc::new(dur)),
        })
    }

    /// Open per `HQ_DATA_DIR` / `HQ_FSYNC` / `HQ_CHECKPOINT_EVERY`;
    /// falls back to a plain in-memory database when `HQ_DATA_DIR` is
    /// unset.
    pub fn open_from_env() -> Result<Db, DbError> {
        match durability::Options::from_env() {
            Some(opts) => Db::open(&opts),
            None => Ok(Db::new()),
        }
    }

    /// Whether committed mutations survive process death.
    pub fn is_durable(&self) -> bool {
        self.dur.is_some()
    }

    /// Open a session.
    pub fn session(&self) -> Session {
        Session { db: self.clone(), temps: HashMap::new() }
    }

    /// WAL-log one record. Must be called with the table write lock
    /// held so LSN order equals apply order — a checkpoint snapshots
    /// under the same lock and must never capture LSN `n` before the
    /// commit carrying `n-1` has applied. No-op when not durable.
    fn log(&self, rec: impl FnOnce() -> WalRecord) -> Result<Option<u64>, DbError> {
        match &self.dur {
            Some(d) => Ok(Some(d.append(&rec()).map_err(dur_err)?)),
            None => Ok(None),
        }
    }

    /// After the table lock is released: block until the logged record
    /// is durable per the fsync policy — under `always`/`group` this
    /// commit either leads one fsync covering everything appended so
    /// far or waits for the one in flight, never for a timer — then
    /// checkpoint if due, inline, so the statement that makes a
    /// checkpoint due acks only after it. The client ack happens
    /// strictly after this returns.
    fn finish_commit(&self, lsn: Option<u64>) -> Result<(), DbError> {
        if let (Some(d), Some(lsn)) = (&self.dur, lsn) {
            d.wait_durable(lsn).map_err(dur_err)?;
            self.maybe_checkpoint();
        }
        Ok(())
    }

    /// Spill all tables as a checkpoint when enough mutations have
    /// accumulated. The snapshot (Arc bumps) and the WAL rotation
    /// happen atomically with respect to commits — the read lock
    /// excludes writers; segment writing runs outside any lock.
    fn maybe_checkpoint(&self) {
        let Some(d) = &self.dur else { return };
        if !d.should_checkpoint() || !d.try_begin_checkpoint() {
            return;
        }
        let (snapshot, lsn) = {
            let guard = self.tables.read();
            let snap: Vec<(String, Arc<Batch>)> =
                guard.iter().map(|(n, t)| (n.clone(), Arc::clone(&t.batch))).collect();
            match d.rotate_for_checkpoint() {
                Ok(lsn) => (snap, lsn),
                Err(e) => {
                    eprintln!("pgdb: wal rotation for checkpoint failed: {e}");
                    d.abandon_checkpoint();
                    return;
                }
            }
        };
        if let Err(e) = d.write_checkpoint(lsn, &snapshot) {
            // Best effort: the WAL retains everything the checkpoint
            // would have captured, so durability is unaffected.
            eprintln!("pgdb: checkpoint at lsn {lsn} failed: {e}");
        }
    }

    /// Host API: create (or replace) a global table directly.
    pub fn put_table(&self, name: &str, columns: Vec<Column>, rows: Vec<Vec<Cell>>) {
        let batch = Batch::from_rows(Rows { columns, data: rows });
        self.put_table_batch(name, batch);
    }

    /// Host API: create (or replace) a global table from a columnar
    /// batch directly — no row-major round trip (bench loaders).
    /// Panics on a durability failure; hosts that need to handle that
    /// use [`Db::try_put_table_batch`].
    pub fn put_table_batch(&self, name: &str, batch: Batch) {
        self.try_put_table_batch(name, batch)
            .expect("durable put_table failed");
    }

    /// Fallible form of [`Db::put_table_batch`].
    pub fn try_put_table_batch(&self, name: &str, batch: Batch) -> Result<(), DbError> {
        let mut guard = self.tables.write();
        let lsn = self.log(|| WalRecord::PutTable { name: name.to_string(), batch: batch.clone() })?;
        guard.insert(name.to_string(), StoredTable::new(batch));
        drop(guard);
        self.finish_commit(lsn)
    }

    /// Host API: fetch a snapshot of a global table. Cheap — the
    /// returned handle shares the stored batch (copy-on-write), so this
    /// is a map lookup plus a reference-count bump regardless of table
    /// size.
    pub fn get_table_snapshot(&self, name: &str) -> Option<StoredTable> {
        self.tables.read().get(name).cloned()
    }

    /// Names of all global tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }
}

/// A session: shares the global store, owns its temp tables.
#[derive(Debug)]
pub struct Session {
    db: Db,
    temps: HashMap<String, StoredTable>,
}

impl TableSource for Session {
    fn get_table_batch(&self, name: &str) -> Option<Arc<Batch>> {
        // The stored batch itself: the executor reads it in place, and
        // a writer arriving meanwhile copies on write.
        if let Some(t) = self.temps.get(name) {
            return Some(Arc::clone(&t.batch));
        }
        if let Some(t) = self.db.tables.read().get(name) {
            return Some(Arc::clone(&t.batch));
        }
        let (columns, rows) = catalog::virtual_table(self, name)?;
        Some(Arc::new(Batch::from_rows(Rows { columns, data: rows })))
    }
}

impl Session {
    /// Access the shared database handle.
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// Does nothing: a statement runs on one executor thread. Goes with ROADMAP item 8 step A.
    pub fn set_exec_threads(&mut self, _threads: Option<usize>) {}

    /// Snapshot of temp + global tables for catalog purposes.
    pub(crate) fn all_tables_meta(&self) -> Vec<(String, Vec<Column>)> {
        let mut out: Vec<(String, Vec<Column>)> = self
            .temps
            .iter()
            .map(|(n, t)| (n.clone(), t.columns().to_vec()))
            .collect();
        for (n, t) in self.db.tables.read().iter() {
            out.push((n.clone(), t.columns().to_vec()));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Execute one SQL statement, row-major result (transposes the
    /// batch at the API boundary; see [`Session::execute_batch`]).
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, DbError> {
        Ok(match self.execute_batch(sql)? {
            BatchQueryResult::Batch(b) => QueryResult::Rows(b.into_rows()),
            BatchQueryResult::Command(tag) => QueryResult::Command(tag),
        })
    }

    /// [`Session::execute_batch`] as a one-chunk stream. Exists for
    /// hqbench until ROADMAP item 8 step A.
    pub fn execute_stream(&mut self, sql: &str) -> Result<StreamQueryResult, DbError> {
        Ok(match self.execute_batch(sql)? {
            BatchQueryResult::Batch(b) => StreamQueryResult::Stream(BatchStream::once(b)),
            BatchQueryResult::Command(tag) => StreamQueryResult::Command(tag),
        })
    }

    /// Execute one SQL statement, columnar result.
    pub fn execute_batch(&mut self, sql: &str) -> Result<BatchQueryResult, DbError> {
        self.execute_stmt(parse_statement(sql)?)
    }

    /// Execute one statement that is already parsed (what the wire
    /// server's `Parse` message leaves behind), columnar result.
    pub fn execute_stmt(&mut self, stmt: Stmt) -> Result<BatchQueryResult, DbError> {
        match stmt {
            Stmt::Select(s) => {
                let batch = run_select_batch(self, &s)?;
                Ok(BatchQueryResult::Batch(batch))
            }
            Stmt::CreateTableAs { name, query, temp } => {
                if self.table_exists(&name) {
                    return Err(DbError::duplicate_table(&name));
                }
                let batch = run_select_batch(self, &query)?;
                let count = batch.rows();
                self.store(name, batch, temp)?;
                Ok(BatchQueryResult::Command(format!("SELECT {count}")))
            }
            Stmt::CreateTable { name, columns, temp } => {
                if self.table_exists(&name) {
                    return Err(DbError::duplicate_table(&name));
                }
                let schema: Vec<Column> =
                    columns.into_iter().map(|(n, t)| Column::new(n, t)).collect();
                self.store(name, Batch::empty(schema), temp)?;
                Ok(BatchQueryResult::Command("CREATE TABLE".into()))
            }
            Stmt::Insert { table, columns, rows } => {
                // A stored table's batch is a reference-count bump, and
                // it is dropped here, before `append_rows` needs it alone.
                let meta = self
                    .get_table_batch(&table)
                    .map(|b| b.schema.clone())
                    .ok_or_else(|| DbError::undefined_table(&table))?;
                // Map provided columns to table positions.
                let positions: Vec<usize> = match &columns {
                    None => (0..meta.len()).collect(),
                    Some(cols) => cols
                        .iter()
                        .map(|c| {
                            meta.iter()
                                .position(|m| m.name == *c)
                                .ok_or_else(|| DbError::undefined_column(c.clone()))
                        })
                        .collect::<Result<_, _>>()?,
                };
                let mut new_rows = Vec::with_capacity(rows.len());
                for r in &rows {
                    if r.len() != positions.len() {
                        return Err(DbError::exec("INSERT value count mismatch"));
                    }
                    let mut row = vec![Cell::Null; meta.len()];
                    for (expr, &pos) in r.iter().zip(&positions) {
                        let v = eval(expr, &[], &[])?;
                        row[pos] = cast(&v, meta[pos].ty)?;
                    }
                    new_rows.push(row);
                }
                let count = new_rows.len();
                self.append_rows(&table, new_rows)?;
                Ok(BatchQueryResult::Command(format!("INSERT 0 {count}")))
            }
            Stmt::DropTable { name, if_exists } => {
                let mut existed = self.temps.remove(&name).is_some();
                if !existed {
                    let mut guard = self.db.tables.write();
                    if guard.contains_key(&name) {
                        let lsn = self.db.log(|| WalRecord::DropTable { name: name.clone() })?;
                        guard.remove(&name);
                        drop(guard);
                        self.db.finish_commit(lsn)?;
                        existed = true;
                    }
                }
                if !existed && !if_exists {
                    return Err(DbError::undefined_table(&name));
                }
                Ok(BatchQueryResult::Command("DROP TABLE".into()))
            }
            Stmt::NoOp(tag) => Ok(BatchQueryResult::Command(tag)),
        }
    }

    fn table_exists(&self, name: &str) -> bool {
        self.temps.contains_key(name) || self.db.tables.read().contains_key(name)
    }

    /// Store a table. Temp tables are session-local and never logged;
    /// global tables commit through the WAL when durable.
    fn store(&mut self, name: String, batch: Batch, temp: bool) -> Result<(), DbError> {
        if temp {
            self.temps.insert(name, StoredTable::new(batch));
            return Ok(());
        }
        let mut guard = self.db.tables.write();
        // CREATE TABLE AS logs the *computed* result, so replay never
        // re-runs the query; a plain empty CREATE logs just the schema.
        let lsn = self.db.log(|| {
            if batch.rows() == 0 {
                WalRecord::CreateTable { name: name.clone(), schema: batch.schema.clone() }
            } else {
                WalRecord::PutTable { name: name.clone(), batch: batch.clone() }
            }
        })?;
        guard.insert(name, StoredTable::new(batch));
        drop(guard);
        self.db.finish_commit(lsn)
    }

    fn append_rows(&mut self, name: &str, rows: Vec<Vec<Cell>>) -> Result<(), DbError> {
        if let Some(t) = self.temps.get_mut(name) {
            let add = Batch::from_rows(Rows { columns: t.batch.schema.clone(), data: rows });
            append_in_place(&mut t.batch, add);
            return Ok(());
        }
        let mut guard = self.db.tables.write();
        let Some(t) = guard.get_mut(name) else {
            return Err(DbError::undefined_table(name));
        };
        let add = Batch::from_rows(Rows { columns: t.batch.schema.clone(), data: rows });
        let lsn = self
            .db
            .log(|| WalRecord::InsertBatch { table: name.to_string(), batch: add.clone() })?;
        append_in_place(&mut t.batch, add);
        drop(guard);
        self.db.finish_commit(lsn)
    }
}

/// Append `add` to a stored batch. In place unless a reader or a
/// checkpoint still holds the batch; then `Arc::make_mut` copies the
/// whole table first, and `pgdb_table_cow_copies_total` /
/// `pgdb_table_cow_rows_total` count the copy and the rows it moved —
/// the one cost of an INSERT that still grows with the table.
fn append_in_place(batch: &mut Arc<Batch>, add: Batch) {
    static COUNTERS: std::sync::OnceLock<[Arc<obs::Counter>; 2]> = std::sync::OnceLock::new();
    let [copies, copied_rows] = COUNTERS.get_or_init(|| {
        ["pgdb_table_cow_copies_total", "pgdb_table_cow_rows_total"]
            .map(|name| obs::global_registry().counter(name))
    });
    if Arc::strong_count(batch) > 1 {
        copies.inc();
        copied_rows.add(batch.rows() as u64);
    }
    Arc::make_mut(batch).append(add);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PgType;

    fn rows(r: QueryResult) -> Rows {
        match r {
            QueryResult::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    fn setup() -> Session {
        let db = Db::new();
        let mut s = db.session();
        s.execute(
            "CREATE TABLE trades (ordcol bigint, \"Symbol\" varchar, \"Price\" double precision, \"Size\" bigint)",
        )
        .unwrap();
        s.execute(concat!(
            "INSERT INTO trades VALUES ",
            "(1, 'GOOG', 100.0, 10), (2, 'IBM', 50.0, 20), (3, 'GOOG', 101.5, 30)"
        ))
        .unwrap();
        s
    }

    #[test]
    fn create_insert_select() {
        let mut s = setup();
        let r = rows(s.execute("SELECT \"Price\" FROM trades WHERE \"Symbol\" = 'GOOG'").unwrap());
        assert_eq!(r.len(), 2);
        assert_eq!(r.data[0][0], Cell::Float(100.0));
    }

    #[test]
    fn select_star_and_order() {
        let mut s = setup();
        let r = rows(s.execute("SELECT * FROM trades ORDER BY \"Price\" DESC").unwrap());
        assert_eq!(r.columns.len(), 4);
        assert_eq!(r.data[0][2], Cell::Float(101.5));
    }

    #[test]
    fn aggregates() {
        let mut s = setup();
        let r = rows(s.execute("SELECT max(\"Price\") AS mx, count(*) AS n FROM trades").unwrap());
        assert_eq!(r.data[0], vec![Cell::Float(101.5), Cell::Int(3)]);
    }

    #[test]
    fn group_by_with_order() {
        let mut s = setup();
        let r = rows(
            s.execute(
                "SELECT \"Symbol\", max(\"Price\") AS mx FROM trades GROUP BY \"Symbol\" ORDER BY \"Symbol\" ASC",
            )
            .unwrap(),
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.data[0][0], Cell::Text("GOOG".into()));
        assert_eq!(r.data[0][1], Cell::Float(101.5));
        assert_eq!(r.data[1][0], Cell::Text("IBM".into()));
    }

    #[test]
    fn having_filters_groups() {
        let mut s = setup();
        let r = rows(
            s.execute(
                "SELECT \"Symbol\" FROM trades GROUP BY \"Symbol\" HAVING count(*) > 1",
            )
            .unwrap(),
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.data[0][0], Cell::Text("GOOG".into()));
    }

    #[test]
    fn three_valued_where_drops_null_comparisons() {
        let db = Db::new();
        let mut s = db.session();
        s.execute("CREATE TABLE t (x bigint)").unwrap();
        s.execute("INSERT INTO t VALUES (1), (NULL)").unwrap();
        // x = x is unknown for NULL → row dropped under plain equality.
        let r = rows(s.execute("SELECT x FROM t WHERE x = x").unwrap());
        assert_eq!(r.len(), 1);
        // IS NOT DISTINCT FROM keeps it — the Hyper-Q rewrite target.
        let r = rows(s.execute("SELECT x FROM t WHERE x IS NOT DISTINCT FROM x").unwrap());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn create_temp_table_as_is_session_scoped() {
        let mut s = setup();
        s.execute("CREATE TEMPORARY TABLE \"HQ_TEMP_1\" AS SELECT \"Price\" FROM trades")
            .unwrap();
        let r = rows(s.execute("SELECT count(*) FROM \"HQ_TEMP_1\"").unwrap());
        assert_eq!(r.data[0][0], Cell::Int(3));
        // Another session must not see it.
        let mut s2 = s.db().session();
        assert!(s2.execute("SELECT count(*) FROM \"HQ_TEMP_1\"").is_err());
    }

    #[test]
    fn duplicate_table_errors() {
        let mut s = setup();
        let err = s.execute("CREATE TABLE trades (x bigint)").unwrap_err();
        assert_eq!(err.code, "42P07");
    }

    #[test]
    fn missing_table_errors() {
        let mut s = setup();
        let err = s.execute("SELECT 1 FROM nonexistent").unwrap_err();
        assert_eq!(err.code, "42P01");
    }

    /// INSERT reads only the target's schema; its errors are pinned
    /// byte for byte, in the order they are checked.
    #[test]
    fn insert_errors_are_pinned() {
        let mut s = setup();
        let err = |s: &mut Session, sql: &str| {
            let e = s.execute(sql).unwrap_err();
            (e.code, e.message)
        };
        assert_eq!(
            err(&mut s, "INSERT INTO nosuch VALUES (1)"),
            ("42P01".into(), "relation \"nosuch\" does not exist".into())
        );
        assert_eq!(
            err(&mut s, "INSERT INTO trades (ordcol, nosuch) VALUES (1, 2)"),
            ("42703".into(), "column \"nosuch\" does not exist".into())
        );
        assert_eq!(
            err(&mut s, "INSERT INTO trades VALUES (1, 'A', 1.0)"),
            ("XX000".into(), "INSERT value count mismatch".into())
        );
        assert_eq!(
            err(&mut s, "INSERT INTO trades (ordcol) VALUES (1), (2, 3)"),
            ("XX000".into(), "INSERT value count mismatch".into())
        );
        // A virtual catalog table has a schema (so the count is checked
        // against it) but no storage to append to.
        assert_eq!(
            err(&mut s, "INSERT INTO pg_tables VALUES ('public')"),
            ("XX000".into(), "INSERT value count mismatch".into())
        );
        assert_eq!(
            err(&mut s, "INSERT INTO pg_tables VALUES ('public', 'x')"),
            ("42P01".into(), "relation \"pg_tables\" does not exist".into())
        );
        let r = rows(s.execute("SELECT count(*) FROM trades").unwrap());
        assert_eq!(r.data[0][0], Cell::Int(3), "no failed INSERT appended a row");
    }

    /// INSERT into a temp table takes the temp's schema and appends to
    /// the session's copy; no global table appears.
    #[test]
    fn insert_into_a_temp_table_uses_its_schema() {
        let mut s = setup();
        s.execute("CREATE TEMPORARY TABLE staging (k bigint, tag varchar)").unwrap();
        assert_eq!(
            s.execute("INSERT INTO staging (tag, k) VALUES ('x', 7), (NULL, 8)").unwrap(),
            QueryResult::Command("INSERT 0 2".into())
        );
        let e = s.execute("INSERT INTO staging VALUES (1, 'A', 1.0)").unwrap_err();
        assert_eq!((e.code.as_str(), e.message.as_str()), ("XX000", "INSERT value count mismatch"));
        let e = s.execute("INSERT INTO staging (k, nosuch) VALUES (1, 2)").unwrap_err();
        assert_eq!(e.message, "column \"nosuch\" does not exist");
        let r = rows(s.execute("SELECT k, tag FROM staging ORDER BY k ASC").unwrap());
        assert_eq!(
            r.data,
            vec![vec![Cell::Int(7), Cell::Text("x".into())], vec![Cell::Int(8), Cell::Null]]
        );
        assert!(s.db().get_table_snapshot("staging").is_none(), "temps stay in the session");
    }

    #[test]
    fn drop_table() {
        let mut s = setup();
        s.execute("DROP TABLE trades").unwrap();
        assert!(s.execute("SELECT 1 FROM trades").is_err());
        assert!(s.execute("DROP TABLE trades").is_err());
        s.execute("DROP TABLE IF EXISTS trades").unwrap();
    }

    #[test]
    fn window_function_lead() {
        let mut s = setup();
        let r = rows(
            s.execute(concat!(
                "SELECT \"Symbol\", lead(\"Price\") OVER (PARTITION BY \"Symbol\" ORDER BY ordcol ASC) AS nxt ",
                "FROM trades ORDER BY ordcol ASC"
            ))
            .unwrap(),
        );
        // GOOG@1 → next GOOG price 101.5; IBM@2 → NULL; GOOG@3 → NULL.
        assert_eq!(r.data[0][1], Cell::Float(101.5));
        assert_eq!(r.data[1][1], Cell::Null);
        assert_eq!(r.data[2][1], Cell::Null);
    }

    #[test]
    fn row_number_window() {
        let mut s = setup();
        let r = rows(
            s.execute(
                "SELECT row_number() OVER (ORDER BY \"Price\" DESC) AS rn, \"Symbol\" FROM trades ORDER BY rn ASC",
            )
            .unwrap(),
        );
        assert_eq!(r.data[0], vec![Cell::Int(1), Cell::Text("GOOG".into())]);
        assert_eq!(r.data[2], vec![Cell::Int(3), Cell::Text("IBM".into())]);
    }

    #[test]
    fn left_join_with_derived_tables() {
        let mut s = setup();
        s.execute("CREATE TABLE quotes (\"Symbol\" varchar, \"Bid\" double precision)").unwrap();
        s.execute("INSERT INTO quotes VALUES ('GOOG', 99.5)").unwrap();
        let r = rows(
            s.execute(concat!(
                "SELECT l.\"Symbol\", r.\"Bid\" FROM (SELECT \"Symbol\" FROM trades) AS l ",
                "LEFT OUTER JOIN (SELECT \"Symbol\" AS s2, \"Bid\" FROM quotes) AS r ",
                "ON l.\"Symbol\" = r.s2 ORDER BY l.\"Symbol\" ASC"
            ))
            .unwrap(),
        );
        assert_eq!(r.len(), 3);
        // GOOG rows matched, IBM row null-extended.
        assert_eq!(r.data[0][1], Cell::Float(99.5));
        assert_eq!(r.data[2][1], Cell::Null);
    }

    #[test]
    fn union_all_and_values() {
        let mut s = setup();
        let r = rows(
            s.execute("SELECT 1 AS x UNION ALL SELECT 2 UNION ALL SELECT 2").unwrap(),
        );
        assert_eq!(r.len(), 3);
        let r = rows(
            s.execute("SELECT c1 FROM (VALUES (1, 'a'), (2, 'b')) AS v(c1, c2) ORDER BY c1 DESC")
                .unwrap(),
        );
        assert_eq!(r.data[0][0], Cell::Int(2));
    }

    #[test]
    fn limit_offset() {
        let mut s = setup();
        let r = rows(s.execute("SELECT ordcol FROM trades ORDER BY ordcol ASC LIMIT 1 OFFSET 1").unwrap());
        assert_eq!(r.len(), 1);
        assert_eq!(r.data[0][0], Cell::Int(2));
    }

    #[test]
    fn toolbox_aggregates_first_last_median() {
        let mut s = setup();
        let r = rows(
            s.execute(
                "SELECT hq_first(\"Price\") AS f, hq_last(\"Price\") AS l, median(\"Size\") AS m FROM trades",
            )
            .unwrap(),
        );
        assert_eq!(r.data[0][0], Cell::Float(100.0));
        assert_eq!(r.data[0][1], Cell::Float(101.5));
        assert_eq!(r.data[0][2], Cell::Float(20.0));
    }

    #[test]
    fn select_without_from() {
        let db = Db::new();
        let mut s = db.session();
        let r = rows(s.execute("SELECT 1 + 2 AS three, 'x' AS s").unwrap());
        assert_eq!(r.data[0], vec![Cell::Int(3), Cell::Text("x".into())]);
    }

    #[test]
    fn noop_statements_acknowledged() {
        let db = Db::new();
        let mut s = db.session();
        assert_eq!(s.execute("BEGIN").unwrap(), QueryResult::Command("BEGIN".into()));
        assert_eq!(
            s.execute("SET client_encoding = 'UTF8'").unwrap(),
            QueryResult::Command("SET".into())
        );
    }

    #[test]
    fn insert_casts_to_declared_types() {
        let db = Db::new();
        let mut s = db.session();
        s.execute("CREATE TABLE t (d date, x bigint)").unwrap();
        s.execute("INSERT INTO t VALUES ('2016-06-26', 1.0)").unwrap();
        let r = rows(s.execute("SELECT d, x FROM t").unwrap());
        assert_eq!(r.data[0][0], Cell::Date(6021));
        assert_eq!(r.data[0][1], Cell::Int(1));
    }

    #[test]
    fn hash_join_null_key_semantics() {
        // Plain = never matches NULL keys; IS NOT DISTINCT FROM does.
        let db = Db::new();
        let mut s = db.session();
        s.execute("CREATE TABLE l (k varchar)").unwrap();
        s.execute("CREATE TABLE r (k2 varchar, v bigint)").unwrap();
        s.execute("INSERT INTO l VALUES ('a'), (NULL)").unwrap();
        s.execute("INSERT INTO r VALUES ('a', 1), (NULL, 2)").unwrap();
        let eq = rows(
            s.execute(concat!(
                "SELECT v FROM (SELECT k FROM l) AS a ",
                "INNER JOIN (SELECT k2, v FROM r) AS b ON k = k2"
            ))
            .unwrap(),
        );
        assert_eq!(eq.len(), 1, "= must not match NULLs");
        let indf = rows(
            s.execute(concat!(
                "SELECT v FROM (SELECT k FROM l) AS a ",
                "INNER JOIN (SELECT k2, v FROM r) AS b ON k IS NOT DISTINCT FROM k2"
            ))
            .unwrap(),
        );
        assert_eq!(indf.len(), 2, "INDF matches NULL to NULL");
    }

    #[test]
    fn left_hash_join_null_extends() {
        let db = Db::new();
        let mut s = db.session();
        s.execute("CREATE TABLE l (k bigint)").unwrap();
        s.execute("CREATE TABLE r (k2 bigint, v bigint)").unwrap();
        s.execute("INSERT INTO l VALUES (1), (2)").unwrap();
        s.execute("INSERT INTO r VALUES (1, 10)").unwrap();
        let out = rows(
            s.execute(concat!(
                "SELECT v FROM (SELECT k FROM l) AS a ",
                "LEFT OUTER JOIN (SELECT k2, v FROM r) AS b ON k = k2 ORDER BY k ASC"
            ))
            .unwrap(),
        );
        assert_eq!(out.data[0][0], Cell::Int(10));
        assert_eq!(out.data[1][0], Cell::Null);
    }

    #[test]
    fn except_and_intersect() {
        let db = Db::new();
        let mut s = db.session();
        s.execute("CREATE TABLE t (x bigint)").unwrap();
        s.execute("INSERT INTO t VALUES (1), (2), (3), (3)").unwrap();
        let r = rows(s.execute("SELECT x FROM t EXCEPT SELECT 3").unwrap());
        assert_eq!(r.len(), 2);
        let r = rows(s.execute("SELECT x FROM t INTERSECT SELECT 3").unwrap());
        assert_eq!(r.len(), 1, "INTERSECT dedups");
    }

    #[test]
    fn order_by_output_alias() {
        let mut s = setup();
        let r = rows(
            s.execute("SELECT \"Price\" * 2 AS dbl FROM trades ORDER BY dbl DESC").unwrap(),
        );
        assert_eq!(r.data[0][0], Cell::Float(203.0));
    }

    #[test]
    fn not_in_list() {
        let mut s = setup();
        let r = rows(
            s.execute("SELECT \"Symbol\" FROM trades WHERE \"Symbol\" NOT IN ('IBM')").unwrap(),
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn in_subquery_execution() {
        let mut s = setup();
        s.execute("CREATE TABLE u (s varchar)").unwrap();
        s.execute("INSERT INTO u VALUES ('GOOG')").unwrap();
        let r = rows(
            s.execute("SELECT \"Price\" FROM trades WHERE \"Symbol\" IN (SELECT s FROM u)")
                .unwrap(),
        );
        assert_eq!(r.len(), 2);
        // NOT IN with subquery.
        let r = rows(
            s.execute("SELECT \"Price\" FROM trades WHERE \"Symbol\" NOT IN (SELECT s FROM u)")
                .unwrap(),
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn rank_window_with_ties() {
        let db = Db::new();
        let mut s = db.session();
        s.execute("CREATE TABLE t (g varchar, v bigint)").unwrap();
        s.execute("INSERT INTO t VALUES ('a', 1), ('a', 1), ('a', 2)").unwrap();
        let r = rows(
            s.execute("SELECT rank() OVER (ORDER BY v ASC) AS rk FROM t ORDER BY rk ASC").unwrap(),
        );
        assert_eq!(
            r.data.iter().map(|row| row[0].clone()).collect::<Vec<_>>(),
            vec![Cell::Int(1), Cell::Int(1), Cell::Int(3)],
            "ties share rank, next rank skips"
        );
    }

    #[test]
    fn count_distinct() {
        let mut s = setup();
        let r = rows(s.execute("SELECT count(DISTINCT \"Symbol\") AS n FROM trades").unwrap());
        assert_eq!(r.data[0][0], Cell::Int(2));
    }

    #[test]
    fn durable_db_recovers_sql_mutations_across_reopen() {
        let dir = std::env::temp_dir().join(format!("hq-engine-dur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = durability::Options::new(&dir);
        {
            let db = Db::open(&opts).unwrap();
            assert!(db.is_durable());
            let mut s = db.session();
            s.execute("CREATE TABLE t (x bigint, s varchar)").unwrap();
            s.execute("INSERT INTO t VALUES (1, 'a'), (2, NULL)").unwrap();
            s.execute("CREATE TABLE dropped (y bigint)").unwrap();
            s.execute("DROP TABLE dropped").unwrap();
            s.execute("CREATE TABLE derived AS SELECT x * 2 AS d FROM t").unwrap();
            // Temp tables must NOT be logged.
            s.execute("CREATE TEMPORARY TABLE tmp AS SELECT x FROM t").unwrap();
        }
        let db = Db::open(&opts).unwrap();
        assert_eq!(db.table_names(), vec!["derived".to_string(), "t".to_string()]);
        let mut s = db.session();
        let r = match s.execute("SELECT x, s FROM t ORDER BY x ASC").unwrap() {
            QueryResult::Rows(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(r.data[0], vec![Cell::Int(1), Cell::Text("a".into())]);
        assert_eq!(r.data[1], vec![Cell::Int(2), Cell::Null]);
        let r = rows(s.execute("SELECT d FROM derived ORDER BY d ASC").unwrap());
        assert_eq!(r.data[1][0], Cell::Int(4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_is_cheap_and_isolated_from_later_writes() {
        let mut s = setup();
        let snap = s.db().get_table_snapshot("trades").unwrap();
        // The snapshot shares storage with the live table...
        assert!(Arc::ptr_eq(&snap.batch, &s.db().tables.read()["trades"].batch));
        // ...until a mutation copies-on-write underneath it.
        s.execute("INSERT INTO trades VALUES (4, 'MSFT', 70.0, 5)").unwrap();
        assert_eq!(snap.batch.rows(), 3, "snapshot unaffected by later insert");
        assert_eq!(s.db().get_table_snapshot("trades").unwrap().batch.rows(), 4);
    }

    /// A scan hands out the stored batch itself. A reader holding one
    /// keeps its snapshot when another session inserts, and it is the
    /// writer that pays the copy.
    #[test]
    fn scans_share_the_stored_batch_and_the_writer_copies() {
        let mut reader = setup();
        let stored = |s: &Session| Arc::clone(&s.db().tables.read()["trades"].batch);
        let scan = reader.get_table_batch("trades").unwrap();
        assert!(Arc::ptr_eq(&scan, &stored(&reader)), "a scan must not copy the table");

        let mut writer = reader.db().session();
        let cow = |name: &str| obs::global_registry().counter_value(name);
        let (copies, copied_rows) =
            (cow("pgdb_table_cow_copies_total"), cow("pgdb_table_cow_rows_total"));
        writer.execute("INSERT INTO trades VALUES (4, 'MSFT', 70.0, 5)").unwrap();

        assert!(!Arc::ptr_eq(&scan, &stored(&reader)), "the writer copies on write");
        assert!(cow("pgdb_table_cow_copies_total") > copies, "the copy is counted");
        assert!(cow("pgdb_table_cow_rows_total") >= copied_rows + 3, "with the rows it moved");
        assert_eq!(scan.rows(), 3, "the held scan is a snapshot");
        let r = rows(reader.execute("SELECT count(*) FROM trades").unwrap());
        assert_eq!(r.data[0][0], Cell::Int(4));

        // With no reader left, an insert appends in place.
        drop(scan);
        let before = Arc::as_ptr(&stored(&reader));
        writer.execute("INSERT INTO trades VALUES (5, 'IBM', 51.0, 1)").unwrap();
        assert_eq!(Arc::as_ptr(&stored(&reader)), before, "no reader, no copy");
    }

    #[test]
    fn case_expression_in_projection() {
        let mut s = setup();
        let r = rows(
            s.execute(concat!(
                "SELECT CASE WHEN \"Symbol\" IS NOT DISTINCT FROM 'IBM' THEN 0.0 ELSE \"Price\" END AS p ",
                "FROM trades ORDER BY ordcol ASC"
            ))
            .unwrap(),
        );
        assert_eq!(r.data[1][0], Cell::Float(0.0));
        assert_eq!(r.data[0][0], Cell::Float(100.0));
    }

    /// `t(x bigint, f double precision, s varchar)`: one row with x = 1,
    /// one with x = 2.
    fn mixed() -> Session {
        let mut s = Db::new().session();
        s.execute("CREATE TABLE t (x bigint, f double precision, s varchar)").unwrap();
        s.execute("INSERT INTO t VALUES (1, 0.5, 'a'), (2, 1.5, 'b')").unwrap();
        s
    }

    /// The shapes that once built a column of another storage class than
    /// its declared type: each is declared as PostgreSQL declares it,
    /// and holds that type's class.
    #[test]
    fn mixed_shapes_take_postgres_types() {
        let mut s = mixed();
        for (sql, ty, want) in [
            (
                "SELECT CASE WHEN x = 1 THEN NULL ELSE x END AS a FROM t",
                PgType::Int8,
                vec![Cell::Null, Cell::Int(2)],
            ),
            (
                "SELECT coalesce(NULL, x) AS a FROM t",
                PgType::Int8,
                vec![Cell::Int(1), Cell::Int(2)],
            ),
            (
                "SELECT CASE WHEN x = 1 THEN x ELSE f END AS a FROM t",
                PgType::Float8,
                vec![Cell::Float(1.0), Cell::Float(1.5)],
            ),
            (
                "SELECT x AS a FROM t UNION ALL SELECT f AS a FROM t",
                PgType::Float8,
                vec![Cell::Float(1.0), Cell::Float(2.0), Cell::Float(0.5), Cell::Float(1.5)],
            ),
            (
                "SELECT a FROM (VALUES (1), (2.5)) AS v(a)",
                PgType::Float8,
                vec![Cell::Float(1.0), Cell::Float(2.5)],
            ),
        ] {
            let BatchQueryResult::Batch(b) = s.execute_batch(sql).unwrap() else { panic!("{sql}") };
            assert_eq!(b.schema[0].ty, ty, "{sql}");
            assert_eq!(b.columns[0].class(), ty.class(), "{sql}");
            assert_eq!(b.columns[0].to_cells(), want, "{sql}");
        }
    }

    /// A `bigint` branch beside a `varchar` one has no common type: a row
    /// that yields the `varchar` fails the statement, and no row, no
    /// failure.
    #[test]
    fn a_value_its_column_cannot_hold_fails_only_the_rows_that_yield_it() {
        let mut s = mixed();
        let sql =
            |filter: &str| format!("SELECT CASE WHEN x = 1 THEN x ELSE s END AS a FROM t{filter}");
        let err = s.execute(&sql("")).unwrap_err();
        assert_eq!(
            err,
            DbError {
                code: "42804".into(),
                message: "a varchar value cannot be stored in a bigint column".into()
            }
        );
        let r = rows(s.execute(&sql(" WHERE x = 1")).unwrap());
        assert_eq!((r.columns[0].ty, r.data.clone()), (PgType::Int8, vec![vec![Cell::Int(1)]]));
        let r = rows(s.execute(&sql(" WHERE x > 5")).unwrap());
        assert_eq!((r.columns[0].ty, r.len()), (PgType::Int8, 0));
    }

    #[test]
    fn create_table_as_stores_the_resolved_type() {
        let mut s = mixed();
        let ctas = "CREATE TABLE m AS SELECT CASE WHEN x = 1 THEN x ELSE f END AS a FROM t";
        s.execute(ctas).unwrap();
        let stored = s.db().get_table_snapshot("m").unwrap();
        assert_eq!(stored.columns()[0].ty, PgType::Float8);
        assert_eq!(stored.batch.columns[0].to_cells(), vec![Cell::Float(1.0), Cell::Float(1.5)]);
    }

    /// Column blocks of mixed cells (tag 7), as data written before
    /// every column held its declared type's class stored them, read back
    /// from a checkpoint segment and from a WAL `PutTable` record: one
    /// class is that class, all NULL the declared type, integers and
    /// floats `double precision`, any other mixture `varchar` text.
    #[test]
    fn old_mixed_blocks_read_after_reopen() {
        use durability::{checkpoint, codec, crc, segment, wal};
        let dir = std::env::temp_dir().join(format!("hq-engine-old-blocks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = durability::Options::new(&dir);
        let schema: Vec<Column> = [
            ("one", PgType::Int8),
            ("nul", PgType::Date),
            ("num", PgType::Int8),
            ("mix", PgType::Int8),
        ]
        .iter()
        .map(|(n, ty)| Column::new(*n, *ty))
        .collect();
        let cells = [
            vec![Cell::Int(1), Cell::Null],
            vec![Cell::Null, Cell::Null],
            vec![Cell::Int(1), Cell::Float(1.5)],
            vec![Cell::Int(1), Cell::Text("x".into())],
        ];
        let blocks: Vec<Vec<u8>> = cells
            .iter()
            .map(|col| {
                let mut b = vec![7u8];
                codec::put_u64(&mut b, col.len() as u64);
                for cell in col {
                    match cell {
                        Cell::Null => b.push(0),
                        Cell::Int(v) => b.extend([&[2u8][..], &v.to_le_bytes()].concat()),
                        Cell::Float(v) => {
                            b.extend([&[3u8][..], &v.to_bits().to_le_bytes()].concat())
                        }
                        Cell::Text(t) => {
                            b.push(4);
                            codec::put_string(&mut b, t);
                        }
                        other => unreachable!("{other:?}"),
                    }
                }
                b
            })
            .collect();

        // A checkpoint at lsn 1 holding `c`, its segment's blocks tag 7.
        let placeholder = Batch::empty(schema.clone());
        let tables = [("c".to_string(), Arc::new(placeholder))];
        let checkpoints = dir.join("checkpoints");
        checkpoint::write_checkpoint(&checkpoints, 1, &tables).unwrap();
        let mut seg = Vec::new();
        let mut footer = 1u16.to_le_bytes().to_vec();
        codec::put_string(&mut footer, "c");
        codec::put_u64(&mut footer, 2);
        codec::put_u32(&mut footer, schema.len() as u32);
        for (col, block) in schema.iter().zip(&blocks) {
            codec::encode_column_def(&mut footer, col);
            codec::put_u64(&mut footer, seg.len() as u64);
            codec::put_u64(&mut footer, block.len() as u64);
            seg.extend_from_slice(block);
        }
        seg.extend_from_slice(&footer);
        codec::put_u32(&mut seg, footer.len() as u32);
        let sum = crc::crc32(&seg);
        codec::put_u32(&mut seg, sum);
        seg.extend_from_slice(segment::SEGMENT_MAGIC);
        let cp = checkpoints.join(checkpoint::checkpoint_dir_name(1));
        std::fs::write(cp.join("000000.seg"), seg).unwrap();

        // A WAL record at lsn 2 putting `w`, its batch's blocks tag 7.
        let mut payload = vec![3u8];
        codec::put_string(&mut payload, "w");
        codec::encode_schema(&mut payload, &schema);
        codec::put_u64(&mut payload, 2);
        blocks.iter().for_each(|b| payload.extend_from_slice(b));
        let mut body = 2u64.to_le_bytes().to_vec();
        body.extend_from_slice(&payload);
        let mut frame = Vec::new();
        codec::put_u32(&mut frame, body.len() as u32);
        codec::put_u32(&mut frame, crc::crc32(&body));
        frame.extend_from_slice(&body);
        std::fs::create_dir_all(dir.join("wal")).unwrap();
        std::fs::write(dir.join("wal").join(wal::wal_file_name(2)), frame).unwrap();

        let db = Db::open(&opts).unwrap();
        let mut s = db.session();
        for table in ["c", "w"] {
            let got = rows(s.execute(&format!("SELECT one, nul, num, mix FROM {table}")).unwrap());
            let types: Vec<PgType> = got.columns.iter().map(|c| c.ty).collect();
            let want = [PgType::Int8, PgType::Date, PgType::Float8, PgType::Varchar];
            assert_eq!(types, want, "{table}");
            assert_eq!(
                got.data,
                vec![
                    vec![Cell::Int(1), Cell::Null, Cell::Float(1.0), Cell::Text("1".into())],
                    vec![Cell::Null, Cell::Null, Cell::Float(1.5), Cell::Text("x".into())],
                ],
                "{table}"
            );
        }
        drop(s);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
