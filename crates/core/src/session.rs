//! A Hyper-Q session: the query life cycle of paper Figure 1.
//!
//! Each connected Q application gets a session holding its variable-scope
//! hierarchy, its temp-table sequence, the metadata cache and a backend
//! connection. `execute` drives: parse → algebrize → transform →
//! serialize → run on backend → pivot results back into Q values —
//! including the eager materialization of variable assignments (§4.3).
//!
//! The in-process backend executes a statement on the calling thread.
//! The one thing below a session that spreads a statement over threads
//! is the shard router, whose fan-out over its shards is the system's
//! parallelism (DESIGN §12, §14).

use crate::backend::{execute_batch, share, DirectBackend, SharedBackend};
use crate::mdi_backend::BackendMdi;
use crate::pivot::pivot_batch;
use crate::qcache::{CacheStats, TranslationCache};
use crate::translate::{StageTimings, Translation, TranslationStats, Translator};
use crate::wire::{WireError, WireTimeouts};
use algebrizer::{CachingMdi, MaterializationPolicy, Scopes};
use obs::{QueryTrace, SlowQueryRecord, Span, SpanEvent, Stage};
use pgdb::{BatchQueryResult, QueryResult};
use qlang::{QError, QResult, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xformer::XformConfig;

/// Session configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Materialization policy for Q variable assignments.
    pub policy: MaterializationPolicy,
    /// Transformation configuration.
    pub xform: XformConfig,
    /// Metadata cache TTL. The paper's experiments run with caching
    /// enabled; set to `Duration::ZERO` to disable (Ablation A).
    pub metadata_cache_ttl: Duration,
    /// Translation cache capacity, in distinct Q programs. Repeated
    /// statements skip the parse → algebrize → optimize → serialize
    /// pipeline entirely; 0 disables the cache.
    pub translation_cache: usize,
    /// Connect/read/write deadlines for both TCP legs: the client-facing
    /// Endpoint leg and the backend-facing Gateway leg.
    pub wire: WireTimeouts,
    /// Queries slower than this land in the process-wide slow-query log
    /// with their Q text, generated SQL and per-stage timings
    /// (README knob `obs.slow_query_ms`). `Duration::ZERO` disables the
    /// log for this session.
    pub slow_query: Duration,
    /// Nothing reads it: a statement runs on one executor thread. Goes with ROADMAP item 8 step A.
    pub exec_threads: usize,
    /// Durability for the in-process backend: `Some` recovers the
    /// catalog from the data directory on open and WAL-logs every
    /// committed mutation (README knobs `HQ_DATA_DIR`, `HQ_FSYNC`,
    /// `HQ_CHECKPOINT_EVERY`; DESIGN §13). `None` keeps the pure
    /// in-memory engine. Only honoured where this config *opens* the
    /// database ([`SessionConfig::open_db`]); remote backends manage
    /// their own durability and advertise it over the wire.
    pub durability: Option<pgdb::DurabilityOptions>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            policy: MaterializationPolicy::Logical,
            xform: XformConfig::default(),
            metadata_cache_ttl: Duration::from_secs(300),
            translation_cache: 256,
            wire: WireTimeouts::default(),
            slow_query: Duration::from_millis(250),
            exec_threads: 0,
            durability: None,
        }
    }
}

impl SessionConfig {
    /// Environment-driven defaults: everything from `Default`, plus
    /// durability per `HQ_DATA_DIR` / `HQ_FSYNC` / `HQ_CHECKPOINT_EVERY`.
    pub fn from_env() -> Self {
        SessionConfig {
            durability: pgdb::DurabilityOptions::from_env(),
            ..SessionConfig::default()
        }
    }

    /// Open the in-process database this configuration describes:
    /// durable (with recovery) when `durability` is set, plain
    /// in-memory otherwise.
    pub fn open_db(&self) -> Result<pgdb::Db, pgdb::DbError> {
        match &self.durability {
            Some(opts) => pgdb::Db::open(opts),
            None => Ok(pgdb::Db::new()),
        }
    }
}

/// Pre-resolved handles into the global metrics registry: resolved once
/// per session, so recording on the query hot path is pure atomics.
struct SessionMetrics {
    queries: Arc<obs::Counter>,
    query_errors: Arc<obs::Counter>,
    query_seconds: Arc<obs::Histogram>,
    stage_seconds: [Arc<obs::Histogram>; 6],
    cache_hits: Arc<obs::Counter>,
    cache_misses: Arc<obs::Counter>,
    statements: Arc<obs::Counter>,
    rows: Arc<obs::Counter>,
    slow_queries: Arc<obs::Counter>,
}

impl SessionMetrics {
    fn resolve() -> Self {
        let reg = obs::global_registry();
        SessionMetrics {
            queries: reg.counter("hyperq_queries_total"),
            query_errors: reg.counter("hyperq_query_errors_total"),
            query_seconds: reg.histogram("hyperq_query_seconds"),
            stage_seconds: Stage::ALL.map(|s| {
                reg.histogram(&format!("hyperq_stage_seconds{{stage=\"{}\"}}", s.name()))
            }),
            cache_hits: reg.counter("hyperq_translation_cache_hits_total"),
            cache_misses: reg.counter("hyperq_translation_cache_misses_total"),
            statements: reg.counter("hyperq_statements_total"),
            rows: reg.counter("hyperq_rows_total"),
            slow_queries: reg.counter("hyperq_slow_queries_total"),
        }
    }

    fn stage(&self, stage: Stage) -> &obs::Histogram {
        &self.stage_seconds[stage.index()]
    }
}

/// A live Hyper-Q session.
pub struct HyperQSession {
    backend: SharedBackend,
    mdi: CachingMdi<BackendMdi>,
    scopes: Scopes,
    temp_seq: usize,
    translator: Translator,
    qcache: TranslationCache,
    metrics: SessionMetrics,
    slow_query: Duration,
    last_trace: Option<QueryTrace>,
    /// Accumulated translation statistics (drives the Figure 6/7
    /// harnesses).
    pub stats: TranslationStats,
}

impl HyperQSession {
    /// Open a session over a shared backend.
    pub fn new(backend: SharedBackend, config: SessionConfig) -> Self {
        let mdi = CachingMdi::new(BackendMdi::new(backend.clone()), config.metadata_cache_ttl);
        HyperQSession {
            backend,
            mdi,
            scopes: Scopes::new(),
            temp_seq: 0,
            translator: Translator {
                xformer: xformer::Xformer::with_config(config.xform),
                policy: config.policy,
            },
            qcache: TranslationCache::new(config.translation_cache),
            metrics: SessionMetrics::resolve(),
            slow_query: config.slow_query,
            last_trace: None,
            stats: TranslationStats::default(),
        }
    }

    /// Convenience: session over an in-process `pgdb` database.
    pub fn with_direct(db: &pgdb::Db) -> Self {
        Self::new(share(DirectBackend::new(db)), SessionConfig::default())
    }

    /// Convenience: in-process session with explicit configuration.
    pub fn with_direct_config(db: &pgdb::Db, config: SessionConfig) -> Self {
        Self::new(share(DirectBackend::new(db)), config)
    }

    /// Borrow the shared backend (e.g. to load data).
    pub fn backend(&self) -> &SharedBackend {
        &self.backend
    }

    /// Explain how the shard layer would route a SQL statement:
    /// executes `EXPLAIN SHARD <sql>` against the backend and returns
    /// the `(kind, reason, detail)` rows. Against an unsharded backend
    /// the statement surfaces the engine's parse error — EXPLAIN SHARD
    /// is a router-level admin query, not SQL.
    pub fn explain_shard(&mut self, sql: &str) -> Result<pgdb::Rows, WireError> {
        let mut be = self.backend.lock().expect("backend lock poisoned");
        match be.execute_sql(&format!("EXPLAIN SHARD {sql}"))? {
            QueryResult::Rows(rows) => Ok(rows),
            QueryResult::Command(t) => {
                Err(WireError::protocol(format!("EXPLAIN SHARD returned a command tag ({t})")))
            }
        }
    }

    /// Metadata cache statistics.
    pub fn cache_stats(&self) -> algebrizer::MdiStats {
        self.mdi.stats()
    }

    /// Invalidate the metadata cache (after external DDL). Also drops
    /// all cached translations — they bake in catalog metadata.
    pub fn invalidate_metadata(&mut self) {
        self.mdi.invalidate_all();
        self.qcache.note_catalog_mutation();
    }

    /// Translation cache statistics.
    pub fn translation_cache_stats(&self) -> CacheStats {
        self.qcache.stats()
    }

    /// Translate `q_text`, consulting the translation cache.
    ///
    /// A program is cached only when every statement is *pure*: not
    /// absorbed into session state and producing only row-returning
    /// SQL. Anything else (assignments, function definitions, eager
    /// `CREATE TEMPORARY TABLE` materializations) mutated scope or
    /// catalog state, so it bumps the corresponding epoch instead —
    /// wiping entries whose translations may now be stale.
    fn translate_cached(&mut self, q_text: &str) -> QResult<Vec<Translation>> {
        if !self.qcache.enabled() {
            return self.translator.translate_program(
                q_text,
                &self.mdi,
                &mut self.scopes,
                &mut self.temp_seq,
            );
        }
        let key = self.qcache.key(q_text);
        if let Some(mut cached) = self.qcache.get(&key) {
            self.metrics.cache_hits.inc();
            for tr in &mut cached {
                tr.timings = StageTimings { cache_hits: 1, ..StageTimings::default() };
            }
            return Ok(cached);
        }
        self.metrics.cache_misses.inc();
        let mut translations = self.translator.translate_program(
            q_text,
            &self.mdi,
            &mut self.scopes,
            &mut self.temp_seq,
        )?;
        for tr in &mut translations {
            tr.timings.cache_misses = 1;
        }
        let pure = translations.iter().all(|tr| {
            !tr.absorbed
                && !tr.statements.is_empty()
                && tr.statements.iter().all(|s| s.returns_rows)
        });
        if pure {
            self.qcache.put(key, translations.clone());
        } else {
            self.qcache.note_scope_mutation();
        }
        Ok(translations)
    }

    /// Execute a Q program; returns the value of the last statement.
    pub fn execute(&mut self, q_text: &str) -> QResult<Value> {
        let (value, _, _) = self.execute_inner(q_text)?;
        Ok(value)
    }

    /// Execute and return the per-statement translations alongside the
    /// final value (for instrumentation).
    pub fn execute_traced(&mut self, q_text: &str) -> QResult<(Value, Vec<Translation>)> {
        let (value, translations, _) = self.execute_inner(q_text)?;
        Ok((value, translations))
    }

    /// Execute and return the structured [`QueryTrace`]: a span per
    /// pipeline stage with durations, row/byte counts and events.
    pub fn execute_observed(&mut self, q_text: &str) -> QResult<(Value, QueryTrace)> {
        let (value, _, trace) = self.execute_inner(q_text)?;
        Ok((value, trace))
    }

    /// The trace of the most recently completed query, if any.
    pub fn last_trace(&self) -> Option<&QueryTrace> {
        self.last_trace.as_ref()
    }

    /// The shared execute path: translate (through the cache), run the
    /// SQL on the backend, pivot rows back to Q values — building the
    /// span tree and recording metrics and the slow-query log as it
    /// goes.
    fn execute_inner(
        &mut self,
        q_text: &str,
    ) -> QResult<(Value, Vec<Translation>, QueryTrace)> {
        let wall = Instant::now();
        self.metrics.queries.inc();
        let mut trace = QueryTrace::begin(q_text);

        let translations = match self.translate_cached(q_text) {
            Ok(t) => t,
            Err(e) => {
                self.metrics.query_errors.inc();
                trace.total = wall.elapsed();
                self.last_trace = Some(trace);
                return Err(e);
            }
        };

        // Translation-stage spans: statement-weighted sums across the
        // program (see `StageTimings::add` for the merge semantics).
        let mut timings = StageTimings::default();
        for tr in &translations {
            timings.add(&tr.timings);
            trace.sql.extend(tr.statements.iter().map(|s| s.sql.clone()));
        }
        trace.cache_hit = timings.cache_hits > 0 && timings.cache_misses == 0;
        let mut parse_span = Span::stage(Stage::Parse, timings.parse);
        if timings.cache_hits > 0 {
            parse_span.events.push(SpanEvent::CacheHit);
        }
        if timings.cache_misses > 0 {
            parse_span.events.push(SpanEvent::CacheMiss);
        }
        trace.spans.push(parse_span);
        trace.spans.push(Span::stage(Stage::Algebrize, timings.algebrize));
        trace.spans.push(Span::stage(Stage::Optimize, timings.optimize));
        trace.spans.push(Span::stage(Stage::Serialize, timings.serialize));

        let mut exec_span = Span::stage(Stage::Execute, Duration::ZERO);
        let mut pivot_dur = Duration::ZERO;
        let mut pivot_rows: u64 = 0;
        let mut last = Value::Nil;
        let mut failed: Option<QError> = None;

        'outer: for tr in &translations {
            self.stats.statements += 1;
            self.stats.timings.add(&tr.timings);
            self.stats.rules.null_rewrites += tr.xform_report.null_rewrites;
            self.stats.rules.columns_pruned += tr.xform_report.columns_pruned;
            self.stats.rules.sorts_elided += tr.xform_report.sorts_elided;
            for stmt in &tr.statements {
                self.metrics.statements.inc();
                let mut child = Span { stage: "statement", bytes: stmt.sql.len() as u64, ..Span::default() };
                let (result, recovered) = {
                    let mut be = self.backend.lock().map_err(|_| {
                        QError::new(qlang::error::QErrorKind::Other, "backend poisoned")
                    })?;
                    let reconnects_before = be.reconnects();
                    let t0 = Instant::now();
                    let result = execute_batch(&mut *be, &stmt.sql);
                    child.duration = t0.elapsed();
                    (result, be.reconnects() - reconnects_before)
                };
                if recovered > 0 {
                    // The wire layer transparently reconnected while
                    // this statement was in flight.
                    child.events.push(SpanEvent::Recovering { reconnects: recovered });
                }
                let result = match result {
                    Ok(r) => r,
                    Err(e) => {
                        // Hyper-Q error messages are deliberately more
                        // verbose than kdb+'s (paper §5). Wire-level
                        // failures keep their taxonomy label so a Q
                        // client can tell a lost backend from a SQL
                        // error.
                        let rendered = match &e.db {
                            Some(db) => format!(
                                "backend error {} while executing {:?}: {}",
                                db.code, stmt.sql, db.message
                            ),
                            None => format!(
                                "wire error ({}) while executing {:?}: {}",
                                e.kind.label(),
                                stmt.sql,
                                e.message
                            ),
                        };
                        exec_span.duration += child.duration;
                        exec_span.children.push(child);
                        failed = Some(QError::new(qlang::error::QErrorKind::Other, rendered));
                        break 'outer;
                    }
                };
                if stmt.returns_rows {
                    let batch = match result {
                        BatchQueryResult::Batch(batch) => batch,
                        BatchQueryResult::Command(tag) => {
                            exec_span.duration += child.duration;
                            exec_span.children.push(child);
                            failed = Some(QError::new(
                                qlang::error::QErrorKind::Other,
                                format!("expected rows, backend answered {tag}"),
                            ));
                            break 'outer;
                        }
                    };
                    let n = batch.rows() as u64;
                    child.rows = n;
                    exec_span.rows += n;
                    self.metrics.rows.add(n);
                    let t0 = Instant::now();
                    let pivoted = pivot_batch(batch, stmt.shape.unwrap());
                    pivot_dur += t0.elapsed();
                    match pivoted {
                        Ok(v) => {
                            pivot_rows += n;
                            last = v;
                        }
                        Err(e) => {
                            exec_span.duration += child.duration;
                            exec_span.children.push(child);
                            failed = Some(e);
                            break 'outer;
                        }
                    }
                }
                exec_span.duration += child.duration;
                exec_span.children.push(child);
            }
        }

        let mut pivot_span = Span::stage(Stage::Pivot, pivot_dur);
        pivot_span.rows = pivot_rows;
        trace.spans.push(exec_span);
        trace.spans.push(pivot_span);
        trace.total = wall.elapsed();

        for stage in Stage::ALL {
            if let Some(span) = trace.span(stage) {
                self.metrics.stage(stage).observe(span.duration);
            }
        }
        self.metrics.query_seconds.observe(trace.total);

        if let Some(e) = failed {
            self.metrics.query_errors.inc();
            self.last_trace = Some(trace);
            return Err(e);
        }

        if self.slow_query > Duration::ZERO && trace.total >= self.slow_query {
            self.metrics.slow_queries.inc();
            obs::global_slowlog().record(SlowQueryRecord {
                id: trace.id,
                q_text: trace.q_text.clone(),
                sql: trace.sql.clone(),
                total: trace.total,
                stages: trace.spans.iter().map(|s| (s.stage, s.duration)).collect(),
            });
        }

        self.last_trace = Some(trace.clone());
        Ok((last, translations, trace))
    }

    /// Translate without executing (used by the translation-overhead
    /// benchmarks; still performs metadata lookups on a cache miss).
    pub fn translate_only(&mut self, q_text: &str) -> QResult<Vec<Translation>> {
        self.translate_cached(q_text)
    }

    /// Accumulated stage timings.
    pub fn timings(&self) -> StageTimings {
        self.stats.timings
    }

    /// End the session: session-scope variables are promoted to server
    /// scope (paper §3.2.3). Cached translations may reference expired
    /// bindings, so the cache is invalidated.
    pub fn end_session(&mut self) {
        self.scopes.end_session();
        self.qcache.note_scope_mutation();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader;
    use qlang::value::{Atom, Table};

    fn trades() -> Table {
        Table::new(
            vec!["Date".into(), "Symbol".into(), "Time".into(), "Price".into(), "Size".into()],
            vec![
                Value::Dates(vec![6021, 6021, 6022]),
                Value::Symbols(vec!["GOOG".into(), "IBM".into(), "GOOG".into()]),
                Value::Times(vec![34_200_000, 34_260_000, 34_320_000]),
                Value::Floats(vec![100.0, 50.0, 101.5]),
                Value::Longs(vec![10, 20, 30]),
            ],
        )
        .unwrap()
    }

    fn session() -> HyperQSession {
        let db = pgdb::Db::new();
        let mut s = HyperQSession::with_direct(&db);
        loader::load_table(&mut s, "trades", &trades()).unwrap();
        s
    }

    #[test]
    fn end_to_end_select() {
        let mut s = session();
        let v = s.execute("select Price from trades where Symbol=`GOOG").unwrap();
        match v {
            Value::Table(t) => {
                assert!(t.column("Price").unwrap().q_eq(&Value::Floats(vec![100.0, 101.5])));
            }
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn end_to_end_aggregation() {
        let mut s = session();
        let v = s.execute("select mx: max Price, n: count i from trades").unwrap();
        match v {
            Value::Table(t) => {
                assert_eq!(t.rows(), 1);
                assert!(t.column("mx").unwrap().q_eq(&Value::Floats(vec![101.5])));
                assert!(t.column("n").unwrap().q_eq(&Value::Longs(vec![3])));
            }
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn end_to_end_group_by_returns_keyed_table() {
        let mut s = session();
        let v = s.execute("select mx: max Price by Symbol from trades").unwrap();
        match v {
            Value::KeyedTable(k) => {
                assert!(k
                    .key
                    .column("Symbol")
                    .unwrap()
                    .q_eq(&Value::Symbols(vec!["GOOG".into(), "IBM".into()])));
                assert!(k.value.column("mx").unwrap().q_eq(&Value::Floats(vec![101.5, 50.0])));
            }
            other => panic!("expected keyed table, got {other:?}"),
        }
    }

    #[test]
    fn end_to_end_exec_column() {
        let mut s = session();
        let v = s.execute("exec Price from trades").unwrap();
        assert!(v.q_eq(&Value::Floats(vec![100.0, 50.0, 101.5])));
    }

    #[test]
    fn two_valued_null_semantics_preserved_through_translation() {
        let db = pgdb::Db::new();
        let mut s = HyperQSession::with_direct(&db);
        let t = Table::new(
            vec!["Sym".into(), "Px".into()],
            vec![
                Value::Symbols(vec!["".into(), "A".into()]),
                Value::Floats(vec![1.0, 2.0]),
            ],
        )
        .unwrap();
        loader::load_table(&mut s, "t", &t).unwrap();
        // In Q, a null symbol equals a null symbol: the row must match.
        let v = s.execute("select Px from t where Sym=`").unwrap();
        match v {
            Value::Table(out) => {
                assert!(out.column("Px").unwrap().q_eq(&Value::Floats(vec![1.0])));
            }
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn paper_example_3_physical_materialization() {
        let db = pgdb::Db::new();
        let cfg = SessionConfig {
            policy: MaterializationPolicy::Physical,
            ..SessionConfig::default()
        };
        let mut s = HyperQSession::with_direct_config(&db, cfg);
        loader::load_table(&mut s, "trades", &trades()).unwrap();
        s.execute("f: {[Sym] dt: select Price from trades where Symbol=Sym; :select max Price from dt}")
            .unwrap();
        let (v, trs) = s.execute_traced("f[`GOOG]").unwrap();
        // CREATE TEMPORARY TABLE was emitted.
        let all_sql: Vec<&str> =
            trs.iter().flat_map(|t| t.statements.iter().map(|s| s.sql.as_str())).collect();
        assert!(
            all_sql.iter().any(|s| s.starts_with("CREATE TEMPORARY TABLE")),
            "{all_sql:?}"
        );
        match v {
            Value::Table(t) => {
                assert!(t.column("Price").unwrap().q_eq(&Value::Floats(vec![101.5])));
            }
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn function_unrolling_logical() {
        let mut s = session();
        s.execute("f: {[Sym] dt: select Price from trades where Symbol=Sym; :select max Price from dt}")
            .unwrap();
        let v = s.execute("f[`IBM]").unwrap();
        match v {
            Value::Table(t) => {
                assert!(t.column("Price").unwrap().q_eq(&Value::Floats(vec![50.0])));
            }
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn metadata_cache_warms_across_queries() {
        let mut s = session();
        s.execute("select Price from trades").unwrap();
        s.execute("select Size from trades").unwrap();
        s.execute("select Symbol from trades").unwrap();
        let stats = s.cache_stats();
        assert!(stats.hits >= 2, "repeat lookups served from cache: {stats:?}");
    }

    #[test]
    fn scalar_expression_round_trips() {
        let mut s = session();
        let v = s.execute("1+2").unwrap();
        assert!(v.q_eq(&Value::long(3)));
    }

    #[test]
    fn errors_are_verbose() {
        let mut s = session();
        let err = s.execute("select from nosuchtable").unwrap_err();
        assert!(err.to_string().contains("nosuchtable"), "{err}");
    }

    #[test]
    fn update_via_hyperq_is_output_only() {
        let mut s = session();
        let v = s.execute("update Price: 2*Price from trades where Symbol=`IBM").unwrap();
        match v {
            Value::Table(t) => {
                assert!(t.column("Price").unwrap().q_eq(&Value::Floats(vec![100.0, 100.0, 101.5])));
            }
            other => panic!("expected table, got {other:?}"),
        }
        // Source unchanged.
        let v = s.execute("exec Price from trades").unwrap();
        assert!(v.q_eq(&Value::Floats(vec![100.0, 50.0, 101.5])));
    }

    #[test]
    fn delete_rows_via_hyperq() {
        let mut s = session();
        let v = s.execute("delete from trades where Symbol=`IBM").unwrap();
        match v {
            Value::Table(t) => assert_eq!(t.rows(), 2),
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn take_first_rows() {
        let mut s = session();
        let v = s.execute("2#trades").unwrap();
        match v {
            Value::Table(t) => {
                assert_eq!(t.rows(), 2);
                assert!(t
                    .column("Symbol")
                    .unwrap()
                    .q_eq(&Value::Symbols(vec!["GOOG".into(), "IBM".into()])));
            }
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn ordering_preserved_through_pipeline() {
        let mut s = session();
        // Sort descending by price, then make sure row order survives
        // the round trip (ordered-list semantics).
        let v = s.execute("`Price xdesc trades").unwrap();
        match v {
            Value::Table(t) => {
                assert!(t.column("Price").unwrap().q_eq(&Value::Floats(vec![101.5, 100.0, 50.0])));
            }
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn variables_shadow_and_expire() {
        let mut s = session();
        s.execute("lim: 15").unwrap();
        let v = s.execute("select Price from trades where Size>lim").unwrap();
        match v {
            Value::Table(t) => assert_eq!(t.rows(), 2),
            other => panic!("expected table, got {other:?}"),
        }
        // Session scope: redefine and observe the change.
        s.execute("lim: 25").unwrap();
        let v = s.execute("select Price from trades where Size>lim").unwrap();
        match v {
            Value::Table(t) => assert_eq!(t.rows(), 1),
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn timestamps_round_trip_through_backend() {
        let db = pgdb::Db::new();
        let mut s = HyperQSession::with_direct(&db);
        let ts = qlang::temporal::parse_timestamp("2016.06.26D09:30:00.000001000").unwrap();
        let t = Table::new(
            vec!["ts".into()],
            vec![Value::Timestamps(vec![ts])],
        )
        .unwrap();
        loader::load_table(&mut s, "t", &t).unwrap();
        let v = s.execute("exec ts from t").unwrap();
        match v {
            Value::Timestamps(out) => assert_eq!(out[0], ts),
            Value::Atom(Atom::Timestamp(out)) => assert_eq!(out, ts),
            other => panic!("expected timestamps, got {other:?}"),
        }
    }
}
