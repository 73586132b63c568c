//! Sharded scatter-gather backend: MPP emulation over N pgdb instances.
//!
//! The paper's Hyper-Q fronted a Greenplum cluster; this module closes
//! that gap by hash-partitioning stored tables across N shards (plus a
//! coordinator, which still holds a full copy of every table: ROADMAP
//! item 7) and fanning translated SQL per shard through the same
//! [`Backend`] seam the single-node paths use. The work splits across
//! three layers:
//!
//! - **place** — the router counts the rows it routes into each table
//!   and, while the table is small, the distinct partition keys among
//!   them ([`TableMeta`]); placement reads nothing else, so an
//!   in-process and a remote cluster place a table alike.
//! - **plan** ([`planner`]) — a pure function from (statement, catalog
//!   snapshot, knobs) to a typed [`planner::ShardPlan`] carrying a
//!   machine-readable reason. `EXPLAIN SHARD <stmt>` renders the
//!   decision; `shard_plan_total{kind,reason}` counts them.
//! - **execute** (this module + [`merge`]) — [`ShardRouter`] interprets
//!   the plan: coordinator-local, scatter + k-way ordered merge (a
//!   hidden global insertion ordinal `__hq_ord` breaks ties so shard
//!   interleaving is bit-identical to single-node frame order),
//!   two-phase aggregation re-folded on a scratch engine instance, or a
//!   gather.
//!
//! Placement follows the routed rows: small tables broadcast
//! (equi-joins against them stay shard-local), tables that have routed
//! fewer distinct partition keys than there are shards stay broadcast a
//! while longer, and everything else hash-partitions. Placement is *not*
//! sticky: a broadcast table that outgrows the boundary is re-planned —
//! logged, counted in `shard_reshard_total`, and re-partitioned in
//! place, never silently left stale. Joins between partitioned tables
//! whose partition keys are equated in the join condition are proven
//! co-located and stay sharded.
//!
//! A SELECT over shard-managed tables, one of them partitioned, is
//! decomposed or gathered, never re-run on the coordinator's copy. What
//! no per-shard rewrite can answer exactly (windows, set ops, subquery
//! predicates, DISTINCT and non-distributive aggregates, OFFSET,
//! unproven join shapes, float aggregates) *gathers*: each input is
//! rebuilt on a scratch engine from ordinal-merged shard scans — only
//! the columns the statement names, only the rows its infallible WHEREs
//! keep — and the unmodified statement runs there, so the answer is the
//! single-node one, errors included. Replicated inputs alone are read
//! on the coordinator, whose copy equals every shard's, and a statement
//! naming a table outside the shard catalog (temp table, CTAS product,
//! unknown name) runs there, where that table lives. A router's own temp
//! tables count as outside it: as on a single node, they shadow a table
//! of the same name, shard-managed or not.
//!
//! Float `sum`/`avg`/`min`/`max` deserve a note: two-level f64 addition
//! is not associative, and the engine's min/max fold is first-seen-wins
//! on incomparable values (NaN), so re-aggregating float partials can
//! diverge from single-node results in the last bit (or pick a
//! different NaN). They therefore gather unless `HQ_SHARD_FLOAT_AGG=1`
//! opts into the (documented, slightly inexact) distributed form.
//! Integer sums stay exact: i64-valued doubles below 2^53 add exactly in
//! any order. For the same representation-vs-value reason, float-typed
//! partition keys never prove join co-location.

pub mod merge;
pub mod planner;

use crate::backend::{execute_batch, Backend, DirectBackend};
use crate::gateway::{Credentials, PgWireBackend};
use crate::wire::{RetryPolicy, WireError, WireTimeouts};
use colstore::{CellKey, Validity};
use pgdb::exec::expr::{cast, eval};
use pgdb::sql::ast::{FromItem, SelectItem, SelectStmt, SqlExpr, Stmt};
use pgdb::sql::render;
use pgdb::{Batch, BatchQueryResult, Cell, Column, ColumnVec, PgType, Rows};
use planner::{col, item, ShardPlan};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Hidden per-row global insertion ordinal column on shard tables.
pub(crate) const ORD: &str = "__hq_ord";
/// Reserved identifier prefix of router-internal columns: a SELECT
/// naming a column or alias in it gathers, and a CREATE TABLE declaring
/// one stays on the coordinator.
pub(crate) const RESERVED: &str = "__hq_";
/// Scratch table name for the re-aggregation merge.
pub(crate) const PARTIALS: &str = "__hq_partials";

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

/// How a table is laid out across the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Created but empty: no placement decision yet. Safe to treat as
    /// broadcast for reads (every shard agrees it has zero rows).
    Undecided,
    /// Full copy on every shard (small/dimension tables): joins against
    /// it stay shard-local.
    Broadcast,
    /// Hash-partitioned by the partition key. The coordinator's full
    /// copy is read only by INSERT validation, CTAS, and SELECTs that
    /// also name a coordinator-only table (temp tables, CTAS products).
    Partitioned,
}

/// Per-table shard metadata.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Logical column definitions (without the hidden ordinal).
    pub cols: Vec<(String, PgType)>,
    /// Partition key as an index into `cols`; `None` = round-robin.
    pub key: Option<usize>,
    /// Current placement.
    pub mode: Mode,
    /// Rows inserted through the router so far.
    pub rows: u64,
    /// Distinct non-NULL partition keys the router has routed, at most
    /// one per shard, kept only while placement can still hinge on
    /// them (see [`TableMeta::place`]).
    keys: Vec<CellKey>,
    /// Round-robin cursor for keyless/unhashable rows.
    rr: u64,
}

impl TableMeta {
    /// Construct metadata (catalog registration and planner tests).
    pub fn new(cols: Vec<(String, PgType)>, key: Option<usize>, mode: Mode, rows: u64) -> TableMeta {
        TableMeta { cols, key, mode, rows, keys: Vec::new(), rr: 0 }
    }

    /// Count `n` routed rows whose partition-key cells are `keys`, and
    /// decide placement for the grown table
    /// ([`planner::decide_placement`]). Keys are noted only while the
    /// table is not partitioned and holds at most 4× the broadcast
    /// threshold rows — past that no placement reads them — and only
    /// until one per shard is known, which is all the decision asks.
    fn place(
        &mut self,
        n: usize,
        keys: impl IntoIterator<Item = CellKey>,
        nshards: usize,
        opts: &ShardOpts,
    ) -> planner::Placement {
        self.rows += n as u64;
        if self.mode == Mode::Partitioned || self.rows > opts.broadcast_threshold.saturating_mul(4) {
            self.keys = Vec::new();
        } else {
            for k in keys {
                if self.keys.len() >= nshards {
                    break;
                }
                if k != CellKey::Null && !self.keys.contains(&k) {
                    self.keys.push(k);
                }
            }
        }
        let distinct = self.key.map(|_| self.keys.len() as u64);
        planner::decide_placement(self.rows, distinct, nshards, opts)
    }
}

/// Placement / planning knobs (env-derived by default).
#[derive(Debug, Clone)]
pub struct ShardOpts {
    /// Tables whose total row count stays at or below this after an
    /// insert are broadcast instead of partitioned (`HQ_SHARD_BROADCAST`,
    /// default 64). Growth past the boundary triggers a re-partition —
    /// see [`planner::decide_placement`].
    pub broadcast_threshold: u64,
    /// Allow distributed float aggregates (`HQ_SHARD_FLOAT_AGG=1`).
    /// Off by default because two-level float folds are not exactly
    /// associative; see the module docs.
    pub float_agg: bool,
    /// Nothing reads it: placement always counts the partition keys the
    /// router routes. Goes with ROADMAP item 8 step A.
    pub stats: bool,
    /// Partition-key overrides, table name → column name
    /// (`HQ_SHARD_KEY="trades:sym,quotes:sym"`). Default is the first
    /// column.
    pub keys: HashMap<String, String>,
}

impl ShardOpts {
    /// Read the knobs from the environment.
    pub fn from_env() -> ShardOpts {
        let broadcast_threshold = std::env::var("HQ_SHARD_BROADCAST")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        let float_agg = std::env::var("HQ_SHARD_FLOAT_AGG").map(|v| v == "1").unwrap_or(false);
        let mut keys = HashMap::new();
        if let Ok(spec) = std::env::var("HQ_SHARD_KEY") {
            for part in spec.split(',') {
                if let Some((t, c)) = part.split_once(':') {
                    keys.insert(t.trim().to_string(), c.trim().to_string());
                }
            }
        }
        ShardOpts { broadcast_threshold, float_agg, stats: true, keys }
    }
}

impl Default for ShardOpts {
    fn default() -> Self {
        ShardOpts::from_env()
    }
}

/// Shard count from `HQ_SHARDS`, clamped to at least 1.
pub fn env_shards(default: usize) -> usize {
    std::env::var("HQ_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(1)
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

enum Topology {
    /// N in-process pgdb instances plus a coordinator instance.
    InProcess { coord: pgdb::Db, shards: Vec<pgdb::Db> },
    /// Over-the-wire shards reached through the PG v3 gateway.
    Remote {
        coord: String,
        shards: Vec<String>,
        creds: Credentials,
        timeouts: WireTimeouts,
        retry: RetryPolicy,
    },
}

/// A shard cluster: topology plus the shared placement catalog. Open
/// per-connection routers with [`ShardCluster::router`]; all routers on
/// one cluster share the catalog and the global insertion ordinal.
pub struct ShardCluster {
    topo: Topology,
    catalog: RwLock<HashMap<String, TableMeta>>,
    /// Global insertion ordinal: every row routed through any router on
    /// this cluster gets a unique, monotonically assigned `__hq_ord`.
    ordinal: AtomicI64,
    /// Serializes DDL/DML so coordinator apply order matches ordinal
    /// order (reads never take this).
    mutation: Mutex<()>,
    opts: ShardOpts,
}

impl ShardCluster {
    /// In-process cluster: `n` shard instances plus a coordinator,
    /// knobs from the environment.
    pub fn in_process(n: usize) -> Arc<ShardCluster> {
        ShardCluster::in_process_with(n, ShardOpts::from_env())
    }

    /// In-process cluster with explicit knobs.
    pub fn in_process_with(n: usize, opts: ShardOpts) -> Arc<ShardCluster> {
        let n = n.max(1);
        Arc::new(ShardCluster {
            topo: Topology::InProcess {
                coord: pgdb::Db::new(),
                shards: (0..n).map(|_| pgdb::Db::new()).collect(),
            },
            catalog: RwLock::new(HashMap::new()),
            ordinal: AtomicI64::new(0),
            mutation: Mutex::new(()),
            opts,
        })
    }

    /// Remote cluster over the PG v3 gateway: one address per shard plus
    /// the coordinator's address, knobs from the environment.
    pub fn remote(
        shard_addrs: Vec<String>,
        coord_addr: String,
        creds: Credentials,
        timeouts: WireTimeouts,
        retry: RetryPolicy,
    ) -> Arc<ShardCluster> {
        assert!(!shard_addrs.is_empty(), "remote cluster needs at least one shard");
        Arc::new(ShardCluster {
            topo: Topology::Remote { coord: coord_addr, shards: shard_addrs, creds, timeouts, retry },
            catalog: RwLock::new(HashMap::new()),
            ordinal: AtomicI64::new(0),
            mutation: Mutex::new(()),
            opts: ShardOpts::from_env(),
        })
    }

    /// Number of shards (excluding the coordinator).
    pub fn shard_count(&self) -> usize {
        match &self.topo {
            Topology::InProcess { shards, .. } => shards.len(),
            Topology::Remote { shards, .. } => shards.len(),
        }
    }

    /// Open a router: one backend connection per shard plus one to the
    /// coordinator.
    pub fn router(self: &Arc<ShardCluster>) -> Result<ShardRouter, WireError> {
        let (coord, shards): (Box<dyn Backend>, Vec<Box<dyn Backend>>) = match &self.topo {
            Topology::InProcess { coord, shards } => (
                Box::new(DirectBackend::new(coord)),
                shards.iter().map(|db| Box::new(DirectBackend::new(db)) as Box<dyn Backend>).collect(),
            ),
            Topology::Remote { coord, shards, creds, timeouts, retry } => {
                let mut conns: Vec<Box<dyn Backend>> = Vec::with_capacity(shards.len());
                for addr in shards {
                    conns.push(Box::new(PgWireBackend::connect_with(
                        addr,
                        creds,
                        *timeouts,
                        *retry,
                    )?));
                }
                let c = PgWireBackend::connect_with(coord, creds, *timeouts, *retry)?;
                (Box::new(c), conns)
            }
        };
        Ok(ShardRouter { cluster: Arc::clone(self), coord, shards, temps: HashSet::new() })
    }

    /// Placement metadata for a table (tests/diagnostics).
    pub fn table_meta(&self, name: &str) -> Option<TableMeta> {
        self.catalog.read().unwrap().get(name).cloned()
    }

    /// The in-process instances (coordinator, shards); `None` for
    /// remote topologies. Test introspection.
    pub fn in_process_dbs(&self) -> Option<(&pgdb::Db, &[pgdb::Db])> {
        match &self.topo {
            Topology::InProcess { coord, shards } => Some((coord, shards)),
            Topology::Remote { .. } => None,
        }
    }

    /// Bulk-load a columnar batch into an in-process cluster, bypassing
    /// per-row INSERT rendering — the fixture fast path for benchmarks
    /// and large tests. Lands in exactly the state a routed
    /// `CREATE TABLE` + `INSERT` reaches: the coordinator holds the
    /// full copy, every shard table carries the hidden `__hq_ord`
    /// ordinal, placement follows [`planner::decide_placement`] over the
    /// batch's row count and partition keys, and the catalog records it.
    ///
    /// Panics on a remote topology (there is no columnar wire path) or
    /// when the table is already registered.
    pub fn put_table_batch(&self, name: &str, batch: Batch) {
        let (coord, shards) = match &self.topo {
            Topology::InProcess { coord, shards } => (coord, shards),
            Topology::Remote { .. } => panic!("put_table_batch requires an in-process cluster"),
        };
        let _m = self.mutation.lock().unwrap();
        assert!(!self.has_table(name), "put_table_batch: table {name:?} already registered");

        let cols: Vec<(String, PgType)> =
            batch.schema.iter().map(|c| (c.name.clone(), c.ty)).collect();
        let n = batch.rows();
        coord.put_table_batch(name, batch);
        let stored = coord.get_table_snapshot(name).expect("just stored").batch;

        self.register(name, cols);
        let nshards = shards.len();
        let base = self.ordinal.fetch_add(n as i64, Ordering::Relaxed);
        let per_shard = {
            let mut cat = self.catalog.write().unwrap();
            let meta = cat.get_mut(name).expect("just registered");
            let key_col = meta.key.map(|k| &stored.columns[k]);
            let keys = key_col.into_iter().flat_map(|c| (0..c.len()).map(|i| c.key_at(i)));
            meta.mode = meta.place(n, keys, nshards, &self.opts).mode;
            shard_rows(&stored, meta.key, meta.mode, &mut meta.rr, nshards)
        };
        let ords = ColumnVec::Int((base..base + n as i64).collect(), Validity::all_valid(n));
        for (db, rows) in shards.iter().zip(per_shard) {
            let mut part = stored.take(&rows);
            part.schema.push(Column::new(ORD, PgType::Int8));
            part.columns.push(ords.take(&rows));
            db.put_table_batch(name, Batch::new(part.schema, part.columns, rows.len()));
        }
    }

    fn catalog_snapshot(&self) -> HashMap<String, TableMeta> {
        self.catalog.read().unwrap().clone()
    }

    fn register(&self, name: &str, cols: Vec<(String, PgType)>) {
        let key = match self.opts.keys.get(name) {
            Some(k) => cols.iter().position(|(n, _)| n == k),
            None if cols.is_empty() => None,
            None => Some(0),
        };
        self.catalog
            .write()
            .unwrap()
            .insert(name.to_string(), TableMeta::new(cols, key, Mode::Undecided, 0));
    }

    fn deregister(&self, name: &str) {
        self.catalog.write().unwrap().remove(name);
    }

    fn has_table(&self, name: &str) -> bool {
        self.catalog.read().unwrap().contains_key(name)
    }
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

/// FNV-1a over a canonical byte encoding of the cell.
pub(crate) fn hash_cell(c: &Cell) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(PRIME);
        }
    };
    match c {
        Cell::Null => eat(&[0]),
        Cell::Bool(b) => eat(&[1, u8::from(*b)]),
        Cell::Int(i) => {
            eat(&[2]);
            eat(&i.to_le_bytes());
        }
        Cell::Float(f) => {
            eat(&[3]);
            eat(&f.to_bits().to_le_bytes());
        }
        Cell::Text(s) => {
            eat(&[4]);
            eat(s.as_bytes());
        }
        Cell::Date(d) => {
            eat(&[5]);
            eat(&d.to_le_bytes());
        }
        Cell::Time(t) => {
            eat(&[6]);
            eat(&t.to_le_bytes());
        }
        Cell::Timestamp(t) => {
            eat(&[7]);
            eat(&t.to_le_bytes());
        }
    }
    h
}

/// The shard a row of a partitioned table lands on: its key's hash,
/// shard 0 for a NULL key, and the table's round-robin cursor `rr` when
/// there is no key to hash (a keyless table, or a key the INSERT does
/// not give).
fn shard_for(key: Option<&Cell>, rr: &mut u64, nshards: usize) -> usize {
    match key {
        Some(Cell::Null) => 0,
        Some(c) => (hash_cell(c) % nshards as u64) as usize,
        None => {
            let s = (*rr % nshards as u64) as usize;
            *rr += 1;
            s
        }
    }
}

/// Which rows of `batch` each shard stores: every row on every shard
/// for a replicated table, else each row on its [`shard_for`] by the
/// column at `key`.
fn shard_rows(
    batch: &Batch,
    key: Option<usize>,
    mode: Mode,
    rr: &mut u64,
    nshards: usize,
) -> Vec<Vec<usize>> {
    if mode != Mode::Partitioned {
        return vec![(0..batch.rows()).collect(); nshards];
    }
    let mut rows = vec![Vec::new(); nshards];
    for i in 0..batch.rows() {
        let cell = key.map(|k| batch.columns[k].cell_at(i));
        rows[shard_for(cell.as_ref(), rr, nshards)].push(i);
    }
    rows
}

// ---------------------------------------------------------------------------
// Execution helpers
// ---------------------------------------------------------------------------

/// Execute on one shard with per-shard metrics and latency observation.
fn shard_exec(i: usize, b: &mut dyn Backend, sql: &str) -> Result<BatchQueryResult, WireError> {
    let reg = obs::global_registry();
    let t0 = Instant::now();
    let r = execute_batch(b, sql);
    reg.histogram(&format!("shard_exec_seconds{{shard=\"{i}\"}}")).observe(t0.elapsed());
    reg.counter(&format!("shard_statements_total{{shard=\"{i}\"}}")).inc();
    if let Ok(BatchQueryResult::Batch(batch)) = &r {
        reg.counter("shard_partial_rows").add(batch.rows() as u64);
    }
    r
}

/// Strip one leading keyword (case-insensitive, whole-word).
fn strip_keyword<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    let t = s.trim_start();
    if t.len() >= kw.len() && t[..kw.len()].eq_ignore_ascii_case(kw) {
        let rest = &t[kw.len()..];
        if rest.is_empty() || rest.starts_with(char::is_whitespace) {
            return Some(rest);
        }
    }
    None
}

/// `EXPLAIN SHARD <stmt>` → the inner statement, if this is one.
fn strip_explain_shard(sql: &str) -> Option<&str> {
    strip_keyword(sql, "EXPLAIN")
        .and_then(|rest| strip_keyword(rest, "SHARD"))
        .map(str::trim)
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

/// One routed connection to a [`ShardCluster`]: a backend per shard plus
/// a coordinator backend. Implements [`Backend`], so it drops in
/// anywhere a single pgdb connection does — `HyperQSession`, the batch
/// driver, the bench harness. Routing itself is a thin interpreter over
/// [`planner::ShardPlan`].
pub struct ShardRouter {
    cluster: Arc<ShardCluster>,
    coord: Box<dyn Backend>,
    shards: Vec<Box<dyn Backend>>,
    /// The temp tables of this router's coordinator session. Like a
    /// single node's, they shadow tables of the same name, shard-managed
    /// ones included.
    temps: HashSet<String>,
}

impl ShardRouter {
    /// Number of shards this router fans out to.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn coordinator(&mut self, sql: &str) -> Result<BatchQueryResult, WireError> {
        let reg = obs::global_registry();
        reg.counter("shard_statements_total{shard=\"coord\"}").inc();
        execute_batch(self.coord.as_mut(), sql)
    }

    /// The placement catalog as this router's session sees it: without
    /// the names its temp tables shadow.
    fn catalog(&self) -> HashMap<String, TableMeta> {
        let mut cat = self.cluster.catalog_snapshot();
        cat.retain(|name, _| !self.temps.contains(name));
        cat
    }

    fn shard_managed(&self, name: &str) -> bool {
        !self.temps.contains(name) && self.cluster.has_table(name)
    }

    /// Fan one SELECT to every shard in parallel.
    fn scatter(&mut self, sql: &str) -> Result<Vec<Batch>, WireError> {
        obs::global_registry().counter("shard_fanout_total").inc();
        let results: Vec<Result<Batch, WireError>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(i, b)| {
                    s.spawn(move || shard_exec(i, b.as_mut(), sql).and_then(merge::expect_batch))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(WireError::protocol("shard worker panicked")))
                })
                .collect()
        });
        merge::gather(results)
    }

    /// Run per-shard mutation statements (sequentially — mutation order
    /// must match the coordinator's) and collapse the outcomes.
    fn fan_mutation(&mut self, stmts: &[(usize, String)]) -> Result<(), WireError> {
        if stmts.len() > 1 {
            obs::global_registry().counter("shard_fanout_total").inc();
        }
        let mut results: Vec<Result<(), WireError>> = Vec::with_capacity(stmts.len());
        for (i, sql) in stmts {
            results.push(shard_exec(*i, self.shards[*i].as_mut(), sql).map(|_| ()));
        }
        merge::gather(results).map(|_| ())
    }

    fn route(&mut self, sql: &str) -> Result<BatchQueryResult, WireError> {
        if let Some(inner) = strip_explain_shard(sql) {
            return Ok(BatchQueryResult::Batch(self.explain_shard(inner)));
        }
        let stmt = match pgdb::sql::parse_statement(sql) {
            Ok(s) => s,
            // Unparseable here — let the coordinator produce the exact
            // single-node error surface.
            Err(_) => return self.coordinator(sql),
        };
        match stmt {
            Stmt::Select(sel) => self.route_select(sql, &sel),
            Stmt::CreateTable { name, temp: true, .. }
            | Stmt::CreateTableAs { name, temp: true, .. } => {
                let out = self.coordinator(sql)?;
                self.temps.insert(name);
                Ok(out)
            }
            Stmt::CreateTable { name, columns, .. } => self.route_create(sql, &name, &columns),
            Stmt::Insert { table, columns, rows } => {
                self.route_insert(sql, &table, &columns, &rows)
            }
            Stmt::DropTable { name, .. } => self.route_drop(sql, &name),
            // CTAS products and session commands live on the
            // coordinator only.
            Stmt::CreateTableAs { .. } | Stmt::NoOp(_) => self.coordinator(sql),
        }
    }

    /// `EXPLAIN SHARD <stmt>`: render the routing decision as rows
    /// (kind, reason, detail) — never an error; empty and unparseable
    /// input, which the coordinator answers, gets a `local` row naming
    /// why.
    fn explain_shard(&mut self, sql: &str) -> Batch {
        let local =
            |reason: &str, detail: String| vec![("local".to_string(), reason.to_string(), detail)];
        let rows: Vec<(String, String, String)> = if sql.is_empty() {
            local("empty_statement", String::new())
        } else {
            match pgdb::sql::parse_statement(sql) {
                Ok(stmt) => {
                    planner::explain_statement(&stmt, &self.catalog(), &self.cluster.opts)
                }
                Err(e) => local("unparseable", e.to_string()),
            }
        };
        Batch::from_rows(Rows {
            columns: vec![
                Column::new("kind", PgType::Text),
                Column::new("reason", PgType::Text),
                Column::new("detail", PgType::Text),
            ],
            data: rows
                .into_iter()
                .map(|(k, r, d)| vec![Cell::Text(k), Cell::Text(r), Cell::Text(d)])
                .collect(),
        })
    }

    fn route_select(&mut self, sql: &str, sel: &SelectStmt) -> Result<BatchQueryResult, WireError> {
        let plan = planner::plan_select(sel, &self.catalog(), &self.cluster.opts);
        planner::record_plan(plan.kind(), plan.reason());
        match plan {
            ShardPlan::Local { .. } | ShardPlan::Broadcast { .. } => self.coordinator(sql),
            ShardPlan::Gather { tables, .. } => self.gather_exec(sql, &tables),
            ShardPlan::Scatter { spec, .. } | ShardPlan::ShardLocal { spec, .. } => {
                let batches = self.scatter(&spec.shard_sql)?;
                merge::merge_scan(batches, &spec).map(BatchQueryResult::Batch)
            }
            ShardPlan::TwoPhaseAgg { spec, .. } => {
                let batches = self.scatter(&spec.shard_sql)?;
                merge::merge_agg(batches, &spec).map(BatchQueryResult::Batch)
            }
        }
    }

    /// Execute a gather-motion plan: rebuild what the statement can
    /// observe of each input table — scatter plus ordinal merge for
    /// partitioned tables, a single replica read for broadcast ones —
    /// then evaluate the whole, unmodified statement over the gathered
    /// inputs on a scratch engine instance. Each scan ships only the
    /// columns the statement names and only the rows some occurrence's
    /// WHERE can keep ([`planner::GatherTable`]); the ordinal merge
    /// reconstructs global insertion order, which is the engine's scan
    /// order. A scratch table is therefore a subsequence of the
    /// coordinator's copy holding every row and column the statement
    /// can observe, in the same order (minus the hidden ordinal, which
    /// is stripped), and the statement evaluates exactly as it would
    /// single-node, errors included.
    fn gather_exec(
        &mut self,
        sql: &str,
        tables: &[planner::GatherTable],
    ) -> Result<BatchQueryResult, WireError> {
        let reg = obs::global_registry();
        reg.counter("shard_gather_total").inc();
        let db = pgdb::Db::new();
        for t in tables {
            reg.counter(&format!("shard_gather_filter_total{{outcome=\"{}\"}}", t.filter_outcome))
                .inc();
            let mut items: Vec<SelectItem> = t
                .cols
                .iter()
                .map(|(n, _)| SelectItem::Expr { expr: col(n), alias: None })
                .collect();
            items.push(item(col(ORD), ORD));
            let sel = SelectStmt {
                items,
                from: Some(FromItem::Table { name: t.name.clone(), alias: None }),
                where_clause: t.filter.clone(),
                order_by: vec![(col(ORD), false)],
                ..SelectStmt::default()
            };
            let leaf_sql = render::render_select(&sel);
            let visible = t.cols.len();
            let batch = if t.partitioned {
                let spec = merge::ScanSpec {
                    shard_sql: leaf_sql,
                    visible,
                    keys: Vec::new(),
                    ord_idx: visible,
                    limit: None,
                };
                let batches = self.scatter(&spec.shard_sql)?;
                merge::merge_scan(batches, &spec)?
            } else {
                // Replicated copies are identical; read shard 0's.
                let b = shard_exec(0, self.shards[0].as_mut(), &leaf_sql)
                    .and_then(merge::expect_batch)?;
                Batch::new(b.schema[..visible].to_vec(), b.columns[..visible].to_vec(), b.rows())
            };
            db.put_table_batch(&t.name, batch);
        }
        db.session().execute_batch(sql).map_err(WireError::from)
    }

    fn route_create(
        &mut self,
        sql: &str,
        name: &str,
        columns: &[(String, PgType)],
    ) -> Result<BatchQueryResult, WireError> {
        if columns.iter().any(|(n, _)| n.starts_with(RESERVED)) {
            return self.coordinator(sql);
        }
        let cluster = Arc::clone(&self.cluster);
        let _m = cluster.mutation.lock().unwrap();
        // Coordinator first, verbatim: if it refuses (duplicate table,
        // bad DDL) nothing was fanned out and the error is single-node.
        let out = self.coordinator(sql)?;
        let mut shard_cols = columns.to_vec();
        shard_cols.push((ORD.to_string(), PgType::Int8));
        let ddl = render::render_stmt(&Stmt::CreateTable {
            name: name.to_string(),
            columns: shard_cols,
            temp: false,
        });
        let stmts: Vec<(usize, String)> =
            (0..self.shards.len()).map(|i| (i, ddl.clone())).collect();
        self.fan_mutation(&stmts)?;
        self.cluster.register(name, columns.to_vec());
        Ok(out)
    }

    fn route_insert(
        &mut self,
        sql: &str,
        table: &str,
        columns: &Option<Vec<String>>,
        rows: &[Vec<SqlExpr>],
    ) -> Result<BatchQueryResult, WireError> {
        if !self.shard_managed(table) {
            // Temp tables, CTAS products, unknown names: single-node.
            return self.coordinator(sql);
        }
        let cluster = Arc::clone(&self.cluster);
        let _m = cluster.mutation.lock().unwrap();
        // Coordinator first: INSERT is atomic there (every row is
        // validated before any is applied), so a failure leaves the
        // cluster untouched and surfaces the single-node error.
        let out = self.coordinator(sql)?;

        let n = rows.len();
        let base = self.cluster.ordinal.fetch_add(n as i64, Ordering::Relaxed);
        let nshards = self.shards.len();
        let mut needs_reshard = false;

        // Assign rows to shards under the catalog lock (the placement
        // decision and the round-robin cursor both live there).
        let (col_list, assignments): (Vec<String>, Vec<Option<usize>>) = {
            let mut cat = self.cluster.catalog.write().unwrap();
            let meta = cat.get_mut(table).expect("insert raced a drop despite the mutation lock");
            let col_list: Vec<String> = match columns {
                Some(c) => c.clone(),
                None => meta.cols.iter().map(|(n, _)| n.clone()).collect(),
            };
            let key = meta.key.and_then(|k| meta.cols.get(k)).cloned();
            let key_pos =
                key.as_ref().and_then(|(kn, _)| col_list.iter().position(|c| c == kn));
            let key_ty = key.map(|(_, t)| t);
            // Evaluate each row's key literal, then cast it to the key's
            // column type — the stored cell is what the engine keeps, so
            // hashing anything else (say, an integer literal bound for a
            // float column) would break co-location with bulk-loaded
            // rows. A key the INSERT does not give is `None`.
            let cells: Vec<Option<Cell>> = rows
                .iter()
                .map(|row| {
                    key_pos
                        .and_then(|p| row.get(p))
                        .and_then(|e| eval(e, &[], &[]).ok())
                        .and_then(|v| key_ty.and_then(|t| cast(&v, t).ok()))
                })
                .collect();
            let keys = cells.iter().flatten().map(CellKey::from_cell);
            let placement = meta.place(n, keys, nshards, &self.cluster.opts);
            match meta.mode {
                Mode::Undecided => meta.mode = placement.mode,
                // Re-plan placement as the table grows: a broadcast
                // table crossing the boundary is re-partitioned after
                // this insert lands (no silent staleness).
                Mode::Broadcast => needs_reshard = placement.mode == Mode::Partitioned,
                Mode::Partitioned => {}
            }
            // `None` sends a row to every shard.
            let partitioned = meta.mode == Mode::Partitioned;
            let assignments: Vec<Option<usize>> = cells
                .iter()
                .map(|cell| partitioned.then(|| shard_for(cell.as_ref(), &mut meta.rr, nshards)))
                .collect();
            (col_list, assignments)
        };

        let mut shard_cols = col_list;
        shard_cols.push(ORD.to_string());
        let mut per_shard: Vec<Vec<Vec<SqlExpr>>> = vec![Vec::new(); nshards];
        for (ri, (row, target)) in rows.iter().zip(&assignments).enumerate() {
            let mut r2 = row.clone();
            r2.push(SqlExpr::Literal(Cell::Int(base + ri as i64)));
            match target {
                Some(s) => per_shard[*s].push(r2),
                None => {
                    for dst in &mut per_shard {
                        dst.push(r2.clone());
                    }
                }
            }
        }
        let stmts: Vec<(usize, String)> = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, rws)| !rws.is_empty())
            .map(|(i, rws)| {
                let stmt = Stmt::Insert {
                    table: table.to_string(),
                    columns: Some(shard_cols.clone()),
                    rows: rws,
                };
                (i, render::render_stmt(&stmt))
            })
            .collect();
        self.fan_mutation(&stmts)?;
        if needs_reshard {
            self.reshard_to_partitioned(table)?;
            obs::global_registry().counter("shard_reshard_total").inc();
            eprintln!(
                "[shard] table {table:?} outgrew broadcast placement; \
                 re-partitioned across {nshards} shards"
            );
        }
        Ok(out)
    }

    /// Move a table that outgrew broadcast placement to hash-partitioned
    /// layout: pull the full copy (ordinals included) from shard 0,
    /// split every *stored* row by [`shard_rows`] — so rows land exactly
    /// where a fresh partitioned load would put them — and rebuild each
    /// shard's slice. Runs under the caller's mutation lock; the catalog
    /// flips to `Partitioned` only after the data has moved, so
    /// concurrent reads keep planning it as broadcast meanwhile (the
    /// same read-vs-DDL window `DROP TABLE` already has).
    fn reshard_to_partitioned(&mut self, table: &str) -> Result<(), WireError> {
        let (cols, key_pos) = {
            let cat = self.cluster.catalog.read().unwrap();
            let m = &cat[table];
            (m.cols.clone(), m.key)
        };
        let nshards = self.shards.len();

        // Broadcast copies are identical; read shard 0's, ordinal last.
        let mut items: Vec<SelectItem> = cols
            .iter()
            .map(|(n, _)| SelectItem::Expr { expr: col(n), alias: None })
            .collect();
        items.push(item(col(ORD), ORD));
        let sel = SelectStmt {
            items,
            from: Some(FromItem::Table { name: table.to_string(), alias: None }),
            order_by: vec![(col(ORD), false)],
            ..SelectStmt::default()
        };
        let batch = shard_exec(0, self.shards[0].as_mut(), &render::render_select(&sel))
            .and_then(merge::expect_batch)?;
        let per_shard = {
            let mut cat = self.cluster.catalog.write().unwrap();
            let meta = cat.get_mut(table).expect("reshard raced a drop despite the mutation lock");
            shard_rows(&batch, key_pos, Mode::Partitioned, &mut meta.rr, nshards)
        };

        if let Some((_, shard_dbs)) = self.cluster.in_process_dbs() {
            for (db, rows) in shard_dbs.iter().zip(per_shard) {
                db.put_table_batch(table, batch.take(&rows));
            }
        } else {
            // Remote topology: rebuild through rendered SQL.
            let mut shard_cols = cols;
            shard_cols.push((ORD.to_string(), PgType::Int8));
            let col_names: Vec<String> = shard_cols.iter().map(|(n, _)| n.clone()).collect();
            let drop =
                render::render_stmt(&Stmt::DropTable { name: table.to_string(), if_exists: true });
            let create = render::render_stmt(&Stmt::CreateTable {
                name: table.to_string(),
                columns: shard_cols,
                temp: false,
            });
            let mut stmts: Vec<(usize, String)> = Vec::new();
            for (i, rows) in per_shard.iter().enumerate() {
                stmts.push((i, drop.clone()));
                stmts.push((i, create.clone()));
                for chunk in rows.chunks(500) {
                    let stmt = Stmt::Insert {
                        table: table.to_string(),
                        columns: Some(col_names.clone()),
                        rows: batch
                            .take(chunk)
                            .into_rows()
                            .data
                            .into_iter()
                            .map(|r| r.into_iter().map(SqlExpr::Literal).collect())
                            .collect(),
                    };
                    stmts.push((i, render::render_stmt(&stmt)));
                }
            }
            self.fan_mutation(&stmts)?;
        }

        let mut cat = self.cluster.catalog.write().unwrap();
        if let Some(meta) = cat.get_mut(table) {
            meta.mode = Mode::Partitioned;
        }
        Ok(())
    }

    fn route_drop(&mut self, sql: &str, name: &str) -> Result<BatchQueryResult, WireError> {
        if !self.shard_managed(name) {
            let out = self.coordinator(sql)?;
            self.temps.remove(name);
            return Ok(out);
        }
        let cluster = Arc::clone(&self.cluster);
        let _m = cluster.mutation.lock().unwrap();
        let out = self.coordinator(sql)?;
        self.cluster.deregister(name);
        let ddl = render::render_stmt(&Stmt::DropTable { name: name.to_string(), if_exists: true });
        let stmts: Vec<(usize, String)> =
            (0..self.shards.len()).map(|i| (i, ddl.clone())).collect();
        self.fan_mutation(&stmts)?;
        Ok(out)
    }
}

impl Backend for ShardRouter {
    fn execute_sql_batch(&mut self, sql: &str) -> Result<Option<BatchQueryResult>, WireError> {
        self.route(sql).map(Some)
    }

    fn describe(&self) -> String {
        format!("shard router ({} shards + coordinator)", self.shards.len())
    }

    fn reconnects(&self) -> u64 {
        self.coord.reconnects() + self.shards.iter().map(|s| s.reconnects()).sum::<u64>()
    }

    fn durable(&self) -> bool {
        self.coord.durable() && self.shards.iter().all(|s| s.durable())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireErrorKind;

    fn opts(threshold: u64) -> ShardOpts {
        ShardOpts {
            broadcast_threshold: threshold,
            float_agg: false,
            stats: true,
            keys: HashMap::new(),
        }
    }

    /// Held by the tests that gather, since one of them counts the
    /// process-wide `shard_gather_total`.
    static GATHERING: Mutex<()> = Mutex::new(());

    fn rows_of(r: BatchQueryResult) -> Rows {
        match r {
            BatchQueryResult::Batch(b) => b.into_rows(),
            other => panic!("expected rows, got {other:?}"),
        }
    }

    fn seed(router: &mut ShardRouter) {
        router
            .execute_sql_batch("CREATE TABLE t (k bigint, v bigint)")
            .unwrap();
        let values: Vec<String> = (0..20).map(|i| format!("({i}, {})", i * 10)).collect();
        router
            .execute_sql_batch(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
    }

    #[test]
    fn partitioned_scan_matches_insertion_order() {
        let cluster = ShardCluster::in_process_with(3, opts(4));
        let mut router = cluster.router().unwrap();
        seed(&mut router);
        assert_eq!(cluster.table_meta("t").unwrap().mode, Mode::Partitioned);
        let rows = rows_of(router.execute_sql_batch("SELECT k, v FROM t").unwrap().unwrap());
        assert_eq!(rows.data.len(), 20);
        for (i, row) in rows.data.iter().enumerate() {
            assert_eq!(row[0], Cell::Int(i as i64));
        }
        // Data is genuinely spread: no shard holds everything.
        let (_, shards) = cluster.in_process_dbs().unwrap();
        for db in shards {
            let t = db.get_table_snapshot("t").unwrap();
            assert!(t.rows().len() < 20, "shard holds all rows — not partitioned");
            // Shard copies carry the hidden ordinal.
            assert!(t.columns().iter().any(|c| c.name == ORD));
        }
    }

    #[test]
    fn small_tables_broadcast() {
        let cluster = ShardCluster::in_process_with(3, opts(64));
        let mut router = cluster.router().unwrap();
        router.execute_sql_batch("CREATE TABLE dim (id bigint, label text)").unwrap();
        router
            .execute_sql_batch("INSERT INTO dim VALUES (1, 'a'), (2, 'b')")
            .unwrap();
        assert_eq!(cluster.table_meta("dim").unwrap().mode, Mode::Broadcast);
        let (_, shards) = cluster.in_process_dbs().unwrap();
        for db in shards {
            assert_eq!(db.get_table_snapshot("dim").unwrap().rows().len(), 2);
        }
    }

    #[test]
    fn distributive_aggregation_merges() {
        let cluster = ShardCluster::in_process_with(4, opts(0));
        let mut router = cluster.router().unwrap();
        seed(&mut router);
        let rows = rows_of(
            router
                .execute_sql_batch("SELECT count(*), sum(v), min(k), max(v), avg(v) FROM t")
                .unwrap()
                .unwrap(),
        );
        assert_eq!(
            rows.data[0],
            vec![
                Cell::Int(20),
                Cell::Int((0..20).map(|i| i * 10).sum()),
                Cell::Int(0),
                Cell::Int(190),
                Cell::Float(95.0),
            ]
        );
    }

    #[test]
    fn columnar_bulk_load_matches_routed_inserts() {
        // The same 20 rows loaded two ways — rendered INSERT through a
        // router vs. the columnar fast path — must leave the cluster in
        // an equivalent state: same placement mode, same scan output,
        // same merged aggregates.
        let routed = ShardCluster::in_process_with(3, opts(4));
        let mut via_sql = routed.router().unwrap();
        seed(&mut via_sql);

        let bulk = ShardCluster::in_process_with(3, opts(4));
        let batch = Batch::from_rows(Rows {
            columns: vec![Column::new("k", PgType::Int8), Column::new("v", PgType::Int8)],
            data: (0..20).map(|i| vec![Cell::Int(i), Cell::Int(i * 10)]).collect(),
        });
        bulk.put_table_batch("t", batch);
        assert_eq!(bulk.table_meta("t").unwrap().mode, Mode::Partitioned);
        assert_eq!(bulk.table_meta("t").unwrap().rows, 20);

        let mut via_bulk = bulk.router().unwrap();
        for sql in
            ["SELECT k, v FROM t", "SELECT count(*), sum(v), min(k), max(v), avg(v) FROM t"]
        {
            let want = rows_of(via_sql.execute_sql_batch(sql).unwrap().unwrap());
            let got = rows_of(via_bulk.execute_sql_batch(sql).unwrap().unwrap());
            assert_eq!(want.data, got.data, "bulk load diverged for {sql}");
        }
        // Small batches broadcast, exactly like routed inserts.
        let dim = Batch::from_rows(Rows {
            columns: vec![Column::new("id", PgType::Int8)],
            data: (0..3).map(|i| vec![Cell::Int(i)]).collect(),
        });
        bulk.put_table_batch("dim", dim);
        assert_eq!(bulk.table_meta("dim").unwrap().mode, Mode::Broadcast);
    }

    #[test]
    fn keyless_rows_split_round_robin_on_every_path() {
        // A key override naming no column leaves the table keyless: the
        // bulk load, routed INSERTs and a re-partition all deal its rows
        // out by the table's round-robin cursor.
        let keyless = || {
            let mut o = opts(4);
            o.keys.insert("t".to_string(), "nosuch".to_string());
            ShardCluster::in_process_with(3, o)
        };
        let slices = |cluster: &ShardCluster| -> Vec<Vec<Vec<Cell>>> {
            let (_, shards) = cluster.in_process_dbs().unwrap();
            shards.iter().map(|db| db.get_table_snapshot("t").unwrap().rows()).collect()
        };
        let routed = keyless();
        seed(&mut routed.router().unwrap());
        let bulk = keyless();
        bulk.put_table_batch(
            "t",
            Batch::from_rows(Rows {
                columns: vec![Column::new("k", PgType::Int8), Column::new("v", PgType::Int8)],
                data: (0..20).map(|i| vec![Cell::Int(i), Cell::Int(i * 10)]).collect(),
            }),
        );
        // Row i (ordinal i) lands on shard i % 3.
        let row = |i: i64| vec![Cell::Int(i), Cell::Int(i * 10), Cell::Int(i)];
        let want: Vec<Vec<Vec<Cell>>> =
            (0..3).map(|s| (s..20).step_by(3).map(row).collect()).collect();
        assert_eq!(slices(&routed), want);
        assert_eq!(slices(&bulk), want);
        // Two rows broadcast, eighteen more re-partition the twenty.
        let grown = keyless();
        let mut router = grown.router().unwrap();
        router.execute_sql_batch("CREATE TABLE t (k bigint, v bigint)").unwrap();
        router.execute_sql_batch("INSERT INTO t VALUES (0, 0), (1, 10)").unwrap();
        let values: Vec<String> = (2..20).map(|i| format!("({i}, {})", i * 10)).collect();
        router.execute_sql_batch(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();
        assert_eq!(grown.table_meta("t").unwrap().mode, Mode::Partitioned);
        assert_eq!(slices(&grown), want);
    }

    #[test]
    fn a_session_temp_table_shadows_a_shard_managed_one() {
        // Session 0 makes temp table t9 first; session 1 then creates a
        // global t9, which the cluster partitions. On a single node
        // session 0 keeps reading, inserting into and dropping its
        // temp; so must its router.
        let steps: &[(usize, &str)] = &[
            (0, "CREATE TEMPORARY TABLE t9 (k bigint)"),
            (0, "INSERT INTO t9 VALUES (1), (2)"),
            (1, "CREATE TABLE t9 (k bigint)"),
            (1, "INSERT INTO t9 VALUES (7), (8), (9)"),
            (0, "INSERT INTO t9 VALUES (3)"),
            (0, "SELECT k FROM t9"),
            (1, "SELECT k FROM t9"),
            (0, "DROP TABLE t9"),
            (0, "SELECT k FROM t9"),
        ];
        let outcome = |r: Result<Option<BatchQueryResult>, WireError>| match r {
            Ok(Some(BatchQueryResult::Batch(b))) => format!("{:?}", b.into_rows().data),
            Ok(Some(BatchQueryResult::Command(tag))) => tag,
            Ok(None) => panic!("no batch path"),
            Err(e) => e.to_string(),
        };
        let db = pgdb::Db::new();
        let mut single = [DirectBackend::new(&db), DirectBackend::new(&db)];
        let cluster = ShardCluster::in_process_with(2, opts(0));
        let mut routed = [cluster.router().unwrap(), cluster.router().unwrap()];
        for (session, sql) in steps {
            let want = outcome(single[*session].execute_sql_batch(sql));
            let got = outcome(routed[*session].execute_sql_batch(sql));
            assert_eq!(got, want, "session {session}: {sql}");
        }
        assert_eq!(cluster.table_meta("t9").unwrap().mode, Mode::Partitioned);
        let last = outcome(routed[0].execute_sql_batch("SELECT k FROM t9"));
        assert_eq!(last, "[[Int(7)], [Int(8)], [Int(9)]]");
    }

    #[test]
    fn offset_scans_gather_instead_of_running_on_the_coordinator() {
        let _gathering = GATHERING.lock().unwrap_or_else(|e| e.into_inner());
        let cluster = ShardCluster::in_process_with(2, opts(0));
        let mut router = cluster.router().unwrap();
        seed(&mut router);
        let reg = obs::global_registry();
        let gathers = reg.counter_value("shard_gather_total");
        // OFFSET skips rows globally and shards cannot skip locally, so
        // no decomposition is exact: the inputs are gathered and the
        // statement evaluates whole.
        let rows = rows_of(
            router
                .execute_sql_batch("SELECT k FROM t ORDER BY k LIMIT 3 OFFSET 2")
                .unwrap()
                .unwrap(),
        );
        assert_eq!(rows.data.len(), 3);
        assert_eq!(rows.data[0][0], Cell::Int(2));
        assert_eq!(reg.counter_value("shard_gather_total"), gathers + 1);
    }

    #[test]
    fn window_functions_gather_instead_of_falling_back() {
        let _gathering = GATHERING.lock().unwrap_or_else(|e| e.into_inner());
        let cluster = ShardCluster::in_process_with(3, opts(0));
        let mut router = cluster.router().unwrap();
        seed(&mut router);
        let reg = obs::global_registry();
        let gathers = reg.counter_value("shard_gather_total");
        // Window frames span shards, so the inputs are gathered (exact
        // ordinal-merge reconstruction) and the statement evaluates
        // whole.
        let rows = rows_of(
            router
                .execute_sql_batch(
                    "SELECT k, row_number() OVER (ORDER BY k) FROM t ORDER BY k LIMIT 3",
                )
                .unwrap()
                .unwrap(),
        );
        assert_eq!(rows.data.len(), 3);
        assert_eq!(rows.data[1], vec![Cell::Int(1), Cell::Int(2)]);
        assert_eq!(reg.counter_value("shard_gather_total"), gathers + 1);
    }

    #[test]
    fn gather_ships_only_the_rows_an_infallible_where_keeps() {
        let _gathering = GATHERING.lock().unwrap_or_else(|e| e.into_inner());
        let cluster = ShardCluster::in_process_with(3, opts(0));
        let mut router = cluster.router().unwrap();
        seed(&mut router);
        let reg = obs::global_registry();
        // Rows the shards send for `sql`. Other tests in this binary
        // scatter concurrently and can only add to the process-wide
        // counter, so the least delta over a few runs is this
        // statement's own.
        let mut shipped = |sql: &str, outcome: &str| {
            let outcomes = format!("shard_gather_filter_total{{outcome=\"{outcome}\"}}");
            let counted = reg.counter_value(&outcomes);
            let mut least = u64::MAX;
            for _ in 0..20 {
                let before = reg.counter_value("shard_partial_rows");
                let rows = rows_of(router.execute_sql_batch(sql).unwrap().unwrap());
                least = least.min(reg.counter_value("shard_partial_rows") - before);
                assert_eq!(rows.data.len(), 5, "{sql}");
            }
            assert_eq!(reg.counter_value(&outcomes), counted + 20, "{sql}");
            least
        };
        // Every conjunct is infallible: the WHERE runs on the shards.
        let pushed = "SELECT k, row_number() OVER (ORDER BY k DESC) FROM t WHERE k < 5";
        assert_eq!(shipped(pushed, planner::GF_PUSHED), 5);
        // Integer division can raise, so single-node evaluates that
        // conjunct for every row: so must the scratch engine.
        let whole = "SELECT k, row_number() OVER (ORDER BY k) FROM t \
                     WHERE k < 5 AND 100 / (v + 1) > 0";
        assert_eq!(shipped(whole, planner::GF_FALLIBLE), 20);
    }

    #[test]
    fn drop_deregisters_everywhere() {
        let cluster = ShardCluster::in_process_with(2, opts(0));
        let mut router = cluster.router().unwrap();
        seed(&mut router);
        router.execute_sql_batch("DROP TABLE t").unwrap();
        assert!(cluster.table_meta("t").is_none());
        let (_, shards) = cluster.in_process_dbs().unwrap();
        for db in shards {
            assert!(db.get_table_snapshot("t").is_none());
        }
        let err = router.execute_sql_batch("SELECT * FROM t").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::Db);
    }

    #[test]
    fn co_partitioned_self_join_stays_sharded() {
        let cluster = ShardCluster::in_process_with(3, opts(0));
        let mut router = cluster.router().unwrap();
        seed(&mut router);
        let reg = obs::global_registry();
        let key = format!(
            "shard_plan_total{{kind=\"shard_local\",reason=\"{}\"}}",
            planner::OK_CO_PART
        );
        let before = reg.counter_value(&key);
        let rows = rows_of(
            router
                .execute_sql_batch(
                    "SELECT a.k, b.v FROM t AS a INNER JOIN t AS b ON a.k = b.k ORDER BY a.k",
                )
                .unwrap()
                .unwrap(),
        );
        assert_eq!(rows.data.len(), 20);
        for (i, row) in rows.data.iter().enumerate() {
            assert_eq!(row[0], Cell::Int(i as i64));
            assert_eq!(row[1], Cell::Int(i as i64 * 10));
        }
        assert_eq!(reg.counter_value(&key), before + 1, "join did not plan shard-local");
    }

    #[test]
    fn broadcast_growth_reshards_to_partitioned() {
        let cluster = ShardCluster::in_process_with(3, opts(4));
        let mut router = cluster.router().unwrap();
        router.execute_sql_batch("CREATE TABLE g (k bigint, v bigint)").unwrap();
        router.execute_sql_batch("INSERT INTO g VALUES (0, 0), (1, 10)").unwrap();
        assert_eq!(cluster.table_meta("g").unwrap().mode, Mode::Broadcast);
        let reg = obs::global_registry();
        let before = reg.counter_value("shard_reshard_total");
        let values: Vec<String> = (2..20).map(|i| format!("({i}, {})", i * 10)).collect();
        router
            .execute_sql_batch(&format!("INSERT INTO g VALUES {}", values.join(", ")))
            .unwrap();
        // The table crossed the boundary: placement re-planned, data
        // re-partitioned, counter bumped.
        assert_eq!(cluster.table_meta("g").unwrap().mode, Mode::Partitioned);
        assert_eq!(reg.counter_value("shard_reshard_total"), before + 1);
        let (_, shards) = cluster.in_process_dbs().unwrap();
        let total: usize =
            shards.iter().map(|db| db.get_table_snapshot("g").unwrap().rows().len()).sum();
        assert_eq!(total, 20, "reshard must keep exactly one copy of each row");
        for db in shards {
            assert!(db.get_table_snapshot("g").unwrap().rows().len() < 20);
        }
        // Scan order survives the move (ordinals travelled with rows).
        let rows = rows_of(router.execute_sql_batch("SELECT k, v FROM g").unwrap().unwrap());
        assert_eq!(rows.data.len(), 20);
        for (i, row) in rows.data.iter().enumerate() {
            assert_eq!(row[0], Cell::Int(i as i64));
        }
    }

    #[test]
    fn low_cardinality_key_stays_broadcast_until_it_grows() {
        let cluster = ShardCluster::in_process_with(3, opts(4));
        let mut router = cluster.router().unwrap();
        router.execute_sql_batch("CREATE TABLE lc (g bigint, v bigint)").unwrap();
        // 10 rows over 2 distinct partition-key values: past the row
        // threshold, but hashing 2 keys across 3 shards would leave
        // shards empty — the keys the router saw keep it broadcast.
        let values: Vec<String> = (0..10).map(|i| format!("({}, {i})", i % 2)).collect();
        router
            .execute_sql_batch(&format!("INSERT INTO lc VALUES {}", values.join(", ")))
            .unwrap();
        assert_eq!(cluster.table_meta("lc").unwrap().mode, Mode::Broadcast);
        // Past 4x the threshold the table partitions regardless.
        let more: Vec<String> = (10..20).map(|i| format!("({}, {i})", i % 2)).collect();
        router
            .execute_sql_batch(&format!("INSERT INTO lc VALUES {}", more.join(", ")))
            .unwrap();
        assert_eq!(cluster.table_meta("lc").unwrap().mode, Mode::Partitioned);
        let rows = rows_of(router.execute_sql_batch("SELECT v FROM lc ORDER BY v").unwrap().unwrap());
        assert_eq!(rows.data.len(), 20);
    }

    #[test]
    fn explain_shard_reports_kind_reason_and_stats() {
        let cluster = ShardCluster::in_process_with(2, opts(4));
        let mut router = cluster.router().unwrap();
        seed(&mut router);
        let rows = rows_of(
            router
                .execute_sql_batch("EXPLAIN SHARD SELECT k FROM t ORDER BY k")
                .unwrap()
                .unwrap(),
        );
        assert_eq!(rows.data[0][0], Cell::Text("scatter".to_string()));
        assert_eq!(rows.data[0][1], Cell::Text(planner::OK_SCAN.to_string()));
        // Table rows carry placement, routed rows and partition key.
        assert_eq!(rows.data[1][0], Cell::Text("table:t".to_string()));
        assert_eq!(rows.data[1][1], Cell::Text("partitioned".to_string()));
        assert_eq!(rows.data[1][2], Cell::Text("rows=20 key=k".to_string()));
        // Keyword matching is case-insensitive; window statements name
        // the gather strategy and the family that forced it.
        let rows = rows_of(
            router
                .execute_sql_batch("explain shard SELECT k, row_number() OVER (ORDER BY k) FROM t")
                .unwrap()
                .unwrap(),
        );
        assert_eq!(rows.data[0][0], Cell::Text("gather".to_string()));
        assert_eq!(rows.data[0][1], Cell::Text(planner::FB_WINDOW.to_string()));
        assert_eq!(rows.data[0][2], Cell::Text("gather: t(merge; cols=k)".to_string()));
        // Even unparseable input explains instead of erroring: the
        // coordinator answers it.
        let rows = rows_of(
            router.execute_sql_batch("EXPLAIN SHARD not really sql").unwrap().unwrap(),
        );
        assert_eq!(rows.data[0][0], Cell::Text("local".to_string()));
        assert_eq!(rows.data[0][1], Cell::Text("unparseable".to_string()));
        // A reserved name is a failed decomposition obligation: the
        // statement gathers.
        let rows = rows_of(
            router.execute_sql_batch("EXPLAIN SHARD SELECT k AS __hq_ord FROM t").unwrap().unwrap(),
        );
        assert_eq!(rows.data[0][0], Cell::Text("gather".to_string()));
        assert_eq!(rows.data[0][1], Cell::Text(planner::FB_RESERVED.to_string()));
    }
}
