//! The traced run: per-layer numbers, taken from outside the program by
//! timing calls into each layer's public functions.
//!
//! A seeded sample of the workload's statements is replayed serially,
//! in-process. For each statement the life cycle of
//! `HyperQSession::execute` is rebuilt from the layers' public functions
//! (translation-cache lookup, parse, bind, transform, serialize, backend
//! call, pivot), one span per call under the root span
//! `core.session.execute`; the same statement also runs through a real
//! `HyperQSession`, untraced, and the difference between the two is the
//! tracing overhead. Calls that happen *inside* an opaque backend call
//! (SQL parse, single-node execution, shard planning, per-shard
//! execution, merge) are replayed on the same SQL as top-level "probe"
//! spans of the same trace.

use crate::client::Client;
use crate::drive;
use crate::gen::Class;
use crate::run::{self, metric, Metric, RunOutput, RunSpec};
use crate::spans::{self, Recorder};
use crate::stats::median;
use crate::workload::{self, BackendKind, Setup, Workload};
use algebrizer::{Binder, Bound, CachingMdi, MaterializationPolicy, ResultShape, Scopes};
use hyperq::mdi_backend::BackendMdi;
use hyperq::pivot::{pivot, pivot_batch, StreamPivot};
use hyperq::qcache::TranslationCache;
use hyperq::shard::planner::{self, ShardPlan};
use hyperq::shard::{merge, ShardCluster, TableMeta};
use hyperq::translate::{SqlStatement, Translation};
use hyperq::{Backend, HyperQSession, SharedBackend};
use pgdb::sql::ast::Stmt as SqlStmt;
use pgdb::{Batch, BatchQueryResult, Db, QueryResult, StreamQueryResult};
use qipc::Message;
use qlang::Value;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use xformer::Xformer;

/// Statements replayed per workload in a driver run; `hqbench trace`
/// replays `HUMAN_SAMPLE`.
pub const DRIVER_SAMPLE: usize = 100;
pub const HUMAN_SAMPLE: usize = 200;

/// Every per-layer metric, with its unit and the direction that is
/// better. All are reported by every workload; a layer a workload does
/// not pass through reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("qipc.decode_us", "us", "lower"),
    ("qipc.encode_us", "us", "lower"),
    ("qipc.response_bytes", "bytes", "lower"),
    ("netpool.floor_rtt_us", "us", "lower"),
    ("qlang.parse_us", "us", "lower"),
    ("algebrizer.bind_us", "us", "lower"),
    ("algebrizer.mdi_lookups", "count", "lower"),
    ("xformer.apply_us", "us", "lower"),
    ("xformer.columns_pruned", "count", "higher"),
    ("serializer.serialize_us", "us", "lower"),
    ("serializer.sql_bytes", "bytes", "lower"),
    ("core.qcache.hit_ratio", "ratio", "higher"),
    ("core.qcache.hit_us", "us", "lower"),
    ("core.translate.share", "ratio", "lower"),
    ("pgdb.parse_us", "us", "lower"),
    ("pgdb.exec_us", "us", "lower"),
    ("pgdb.rows_out", "count", "lower"),
    ("pgdb.exec_asof_us", "us", "lower"),
    ("core.gateway.wire_us", "us", "lower"),
    ("pgwire.frames", "count", "lower"),
    ("core.pivot.rows_us", "us", "lower"),
    ("core.pivot.batch_us", "us", "lower"),
    ("core.pivot.rows", "count", "lower"),
    ("core.shard.plan_us", "us", "lower"),
    ("core.shard.plan_kind.scatter", "count", "higher"),
    ("core.shard.plan_kind.two_phase", "count", "higher"),
    ("core.shard.plan_kind.shard_local", "count", "higher"),
    ("core.shard.plan_kind.gather", "count", "lower"),
    ("core.shard.plan_kind.fallback", "count", "lower"),
    ("core.shard.route_us", "us", "lower"),
    ("core.shard.merge_us", "us", "lower"),
    ("core.shard.gather_us", "us", "lower"),
    ("loader.insert_build_us", "us", "lower"),
    ("durability.wal_bytes", "bytes", "lower"),
    ("durability.fsyncs", "count", "lower"),
    ("durability.commits_per_fsync", "ratio", "higher"),
    ("durability.checkpoints", "count", "lower"),
    ("durability.checkpoint_s", "s", "lower"),
    ("durability.checkpoint_bytes", "bytes", "lower"),
    ("durability.replay_rows_per_s", "1/s", "higher"),
    ("durability.truncated_tail", "count", "lower"),
    ("colstore.stats_update_us", "us", "lower"),
    ("core.session.execute_us", "us", "lower"),
    ("core.session.unattributed_us", "us", "lower"),
    ("ingest.burst_rows_per_s", "1/s", "higher"),
    ("ingest.ack_p50_ms", "ms", "lower"),
    ("ingest.recovery_s", "s", "lower"),
    ("ingest.wal_bytes_per_row", "bytes", "lower"),
    ("client.stmt_tail_pct", "%", "higher"),
    ("client.stmt_tail_ms", "ms", "lower"),
    ("client.asof_tail_ms", "ms", "lower"),
    ("client.ingest_ack_tail_ms", "ms", "lower"),
    ("client.late_share", "ratio", "lower"),
    ("client.generator_lag_ms_max", "ms", "lower"),
    ("client.generator_cpu_share", "ratio", "lower"),
    ("client.samples", "count", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
];

/// What one replayed statement cost each layer, in microseconds (0 for
/// a layer the statement did not pass through).
#[derive(Debug, Default, Clone)]
struct Row {
    class: Option<Class>,
    us: HashMap<&'static str, f64>,
    counts: HashMap<&'static str, f64>,
    plan_kind: Option<&'static str>,
}

/// The session life cycle, rebuilt from public functions.
struct Pipeline {
    backend: SharedBackend,
    mdi: CachingMdi<BackendMdi>,
    scopes: Scopes,
    temp_seq: usize,
    cache: TranslationCache,
    xformer: Xformer,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl Pipeline {
    fn new(kind: &BackendKind) -> Pipeline {
        let config = workload::session_config();
        let backend = kind.open();
        lock(&backend).set_exec_threads(Some(workload::EXEC_THREADS));
        Pipeline {
            mdi: CachingMdi::new(BackendMdi::new(backend.clone()), config.metadata_cache_ttl),
            backend,
            scopes: Scopes::new(),
            temp_seq: 0,
            cache: TranslationCache::new(config.translation_cache),
            xformer: Xformer::with_config(config.xform),
        }
    }

    /// Translate through the cache; spans only for the calls made.
    fn translate(
        &mut self,
        rec: &mut Recorder,
        text: &str,
        row: &mut Row,
    ) -> Result<(String, ResultShape), String> {
        let (hit, lookup_us) = rec.call("core.qcache", "lookup", || {
            let key = self.cache.key(text);
            (self.cache.get(&key), 0, text.len() as u64)
        });
        row.us.insert("core.qcache.lookup_us", lookup_us);
        if let Some(translations) = hit {
            let stmt = translations
                .into_iter()
                .next()
                .and_then(|t| t.statements.into_iter().next())
                .ok_or("cached translation has no statement")?;
            return Ok((stmt.sql, stmt.shape.ok_or("cached statement has no shape")?));
        }
        let (parsed, parse_us) = rec.call("qlang", "parse", || {
            (qlang::parse(text), 0, text.len() as u64)
        });
        let stmts = parsed.map_err(|e| e.to_string())?;
        let [stmt] = stmts.as_slice() else {
            return Err(format!("not one statement: {text}"));
        };
        row.us.insert("qlang.parse_us", parse_us);

        let lookups_before = self.mdi.stats();
        let (bound, bind_us) = rec.call("algebrizer", "bind_statement", || {
            let mut binder = Binder::new(
                &self.mdi,
                &mut self.scopes,
                MaterializationPolicy::Logical,
                &mut self.temp_seq,
            );
            (binder.bind_statement(stmt), 0, 0)
        });
        row.us.insert("algebrizer.bind_us", bind_us);
        let lookups = self.mdi.stats();
        row.counts.insert(
            "algebrizer.mdi_lookups",
            ((lookups.hits + lookups.misses) - (lookups_before.hits + lookups_before.misses))
                as f64,
        );
        let Bound::Rel { plan, shape } = bound.map_err(|e| e.to_string())?.bound else {
            return Err(format!("statement is not a query: {text}"));
        };

        let ((optimized, report), apply_us) =
            rec.call("xformer", "apply", || (self.xformer.apply(plan), 0, 0));
        row.us.insert("xformer.apply_us", apply_us);
        row.counts
            .insert("xformer.columns_pruned", report.columns_pruned as f64);

        let (sql, serialize_us) = rec.call("serializer", "serialize", || {
            let sql = serializer::serialize(&optimized);
            let n = sql.len() as u64;
            (sql, 0, n)
        });
        row.us.insert("serializer.serialize_us", serialize_us);
        row.counts.insert("serializer.sql_bytes", sql.len() as f64);

        let key = self.cache.key(text);
        self.cache.put(
            key,
            vec![Translation {
                statements: vec![SqlStatement {
                    sql: sql.clone(),
                    returns_rows: true,
                    shape: Some(shape),
                }],
                timings: Default::default(),
                xform_report: report,
                absorbed: false,
            }],
        );
        Ok((sql, shape))
    }

    /// Backend call and pivot, by the route the workload's sessions take.
    fn execute(
        &mut self,
        rec: &mut Recorder,
        kind: &BackendKind,
        sql: &str,
        shape: ResultShape,
        row: &mut Row,
    ) -> Result<Value, String> {
        let frames = obs::global_registry().counter("pgwire_frames_decoded_total");
        match kind {
            BackendKind::Wire { .. } => {
                let frames_before = frames.get();
                let (result, wire_us) = rec.call("core.gateway", "execute_sql", || {
                    let r = lock(&self.backend).execute_sql(sql);
                    let n = match &r {
                        Ok(QueryResult::Rows(rows)) => rows.data.len() as u64,
                        _ => 0,
                    };
                    (r, n, sql.len() as u64)
                });
                row.us.insert("backend_us", wire_us);
                row.counts
                    .insert("pgwire.frames", (frames.get() - frames_before) as f64);
                let QueryResult::Rows(rows) = result.map_err(|e| e.to_string())? else {
                    return Err(format!("no rows from: {sql}"));
                };
                row.counts.insert("core.pivot.rows", rows.data.len() as f64);
                let (value, pivot_us) = rec.call("core.pivot", "pivot", || {
                    (pivot(&rows, shape), rows.data.len() as u64, 0)
                });
                row.us.insert("core.pivot.rows_us", pivot_us);
                value.map_err(|e| e.to_string())
            }
            // The in-process engine streams: chunks are drained, then
            // pivoted one by one, as the session does.
            BackendKind::Direct { .. } => {
                let (result, backend_us) = rec.call("pgdb", "execute_stream", || {
                    let chunks = drain(lock(&self.backend).execute_sql_stream(sql));
                    let n = chunks
                        .as_ref()
                        .map_or(0, |(_, c)| c.iter().map(|b| b.rows() as u64).sum());
                    (chunks, n, sql.len() as u64)
                });
                row.us.insert("backend_us", backend_us);
                let (schema, chunks) = result?;
                let n: usize = chunks.iter().map(|b| b.rows()).sum();
                row.counts.insert("core.pivot.rows", n as f64);
                let (value, pivot_us) = rec.call("core.pivot", "stream_pivot", || {
                    let mut pv = StreamPivot::new(&schema);
                    chunks.into_iter().for_each(|b| pv.push(b));
                    (pv.finish(shape), n as u64, 0)
                });
                row.us.insert("core.pivot.batch_us", pivot_us);
                value.map_err(|e| e.to_string())
            }
            // Scatter-gather materializes partials: the router answers
            // with one batch.
            BackendKind::Shard { .. } => {
                let (result, backend_us) = rec.call("core.shard", "execute_sql_batch", || {
                    let r = lock(&self.backend).execute_sql_batch(sql);
                    let n = match &r {
                        Ok(Some(BatchQueryResult::Batch(b))) => b.rows() as u64,
                        _ => 0,
                    };
                    (r, n, sql.len() as u64)
                });
                row.us.insert("backend_us", backend_us);
                let Some(BatchQueryResult::Batch(batch)) = result.map_err(|e| e.to_string())?
                else {
                    return Err(format!("no batch from: {sql}"));
                };
                let n = batch.rows();
                row.counts.insert("core.pivot.rows", n as f64);
                let (value, pivot_us) = rec.call("core.pivot", "pivot_batch", || {
                    (pivot_batch(batch, shape), n as u64, 0)
                });
                row.us.insert("core.pivot.batch_us", pivot_us);
                value.map_err(|e| e.to_string())
            }
        }
    }
}

/// Pull every chunk of a streamed result.
fn drain<E: std::fmt::Display>(
    result: Result<Option<StreamQueryResult>, E>,
) -> Result<(Vec<pgdb::Column>, Vec<Batch>), String> {
    match result.map_err(|e| e.to_string())? {
        Some(StreamQueryResult::Stream(stream)) => {
            let schema = stream.schema.clone();
            let chunks: Result<Vec<Batch>, _> = stream.collect();
            Ok((schema, chunks.map_err(|e| e.to_string())?))
        }
        Some(StreamQueryResult::Command(tag)) => Err(format!("expected rows, got {tag}")),
        None => Err("backend does not stream".to_string()),
    }
}

fn lock(backend: &SharedBackend) -> std::sync::MutexGuard<'_, dyn Backend + 'static> {
    backend.lock().expect("backend lock poisoned")
}

/// Single-node engine the workload's SQL can be replayed on.
fn base_db(kind: &BackendKind) -> Db {
    match kind {
        BackendKind::Wire { db, .. } | BackendKind::Direct { db } => db.clone(),
        BackendKind::Shard { cluster } => cluster
            .in_process_dbs()
            .expect("in-process cluster")
            .0
            .clone(),
    }
}

fn shard_catalog(cluster: &ShardCluster) -> HashMap<String, TableMeta> {
    ["trades", "quotes", "refdata"]
        .into_iter()
        .filter_map(|n| cluster.table_meta(n).map(|m| (n.to_string(), m)))
        .collect()
}

/// Execute `sql` on one engine by the entry point its servers and the
/// in-process backend use (`Session::execute_stream`, drained); gives
/// back the chunks and the time in microseconds.
fn exec_probe(db: &Db, sql: &str) -> Result<(Batch, f64), String> {
    let mut session = db.session();
    session.set_exec_threads(Some(workload::EXEC_THREADS));
    let t0 = Instant::now();
    let (schema, chunks) = drain(session.execute_stream(sql).map(Some))?;
    let took = us(t0.elapsed());
    Ok((concat(schema, chunks), took))
}

/// One batch out of a stream's chunks.
fn concat(schema: Vec<pgdb::Column>, chunks: Vec<Batch>) -> Batch {
    let mut it = chunks.into_iter();
    let Some(first) = it.next() else {
        return Batch::empty(schema);
    };
    let (mut columns, mut rows) = (first.columns, 0);
    rows += columns.first().map_or(0, |c| c.len());
    for b in it {
        rows += b.rows();
        for (acc, col) in columns.iter_mut().zip(b.columns) {
            acc.append(col);
        }
    }
    Batch::new(schema, columns, rows)
}

/// Replays of what happens inside `ShardRouter::execute_sql_batch`.
fn shard_probes(
    rec: &mut Recorder,
    cluster: &ShardCluster,
    sql: &str,
    row: &mut Row,
) -> Result<(), String> {
    let cat = shard_catalog(cluster);
    let opts = workload::shard_opts();
    let stmt = pgdb::sql::parse_statement(sql).map_err(|e| e.to_string())?;
    let (explained, plan_us) = rec.call("core.shard", "explain_statement", || {
        (planner::explain_statement(&stmt, &cat, &opts), 0, 0)
    });
    row.us.insert("core.shard.plan_us", plan_us);
    let SqlStmt::Select(sel) = &stmt else {
        return Err(format!("not a SELECT: {sql}"));
    };
    let plan = planner::plan_select(sel, &cat, &opts);
    debug_assert_eq!(explained[0].0, plan.kind());
    row.plan_kind = Some(plan.kind());
    let (_, shard_dbs) = cluster.in_process_dbs().expect("in-process cluster");
    let partials = |shard_sql: &str, row: &mut Row| -> Result<Vec<Batch>, String> {
        let mut slowest = 0f64;
        let mut batches = Vec::with_capacity(shard_dbs.len());
        for db in shard_dbs {
            let (b, took) = exec_probe(db, shard_sql)?;
            slowest = slowest.max(took);
            batches.push(b);
        }
        row.us.insert("slowest_shard_us", slowest);
        Ok(batches)
    };
    match plan {
        ShardPlan::Scatter { spec, .. } | ShardPlan::ShardLocal { spec, .. } => {
            let batches = partials(&spec.shard_sql, row)?;
            let (merged, merge_us) = rec.call("core.shard", "merge_scan", || {
                let m = merge::merge_scan(batches, &spec);
                let n = m.as_ref().map_or(0, |b| b.rows() as u64);
                (m, n, 0)
            });
            merged.map_err(|e| e.to_string())?;
            row.us.insert("core.shard.merge_us", merge_us);
        }
        ShardPlan::TwoPhaseAgg { spec, .. } => {
            let batches = partials(&spec.shard_sql, row)?;
            let (merged, merge_us) = rec.call("core.shard", "merge_agg", || {
                let m = merge::merge_agg(batches, &spec);
                let n = m.as_ref().map_or(0, |b| b.rows() as u64);
                (m, n, 0)
            });
            merged.map_err(|e| e.to_string())?;
            row.us.insert("core.shard.merge_us", merge_us);
        }
        _ => {}
    }
    Ok(())
}

/// Replay one statement: the real session untraced, the rebuilt life
/// cycle traced, then the probes.
fn replay(
    rec: &mut Recorder,
    trace: u64,
    setup: &Setup,
    pipeline: &mut Pipeline,
    session: &mut HyperQSession,
    class: Class,
    text: &str,
) -> Result<Row, String> {
    let mut row = Row {
        class: Some(class),
        ..Row::default()
    };
    let kind = &setup.backend;
    rec.statement(trace);

    let mut untraced = || -> Result<f64, String> {
        let t0 = Instant::now();
        let v = session.execute(text).map_err(|e| e.to_string())?;
        std::hint::black_box(v);
        Ok(us(t0.elapsed()))
    };
    // Alternate which side runs first, so neither always finds the
    // data warm.
    let mut untraced_us = if trace.is_multiple_of(2) {
        Some(untraced()?)
    } else {
        None
    };

    // The query frame as the endpoint decodes it.
    let frame = qipc::write_message(&Message::query(text)).map_err(|e| e.to_string())?;
    let (decoded, decode_us) = rec.call("qipc", "read_message", || {
        (qipc::read_message(&frame), 0, frame.len() as u64)
    });
    decoded.map_err(|e| e.to_string())?;
    row.us.insert("qipc.decode_us", decode_us);

    let root_slot = rec.open("core.session", "execute");
    let (sql, shape) = pipeline.translate(rec, text, &mut row)?;
    let value = pipeline.execute(rec, kind, &sql, shape, &mut row)?;
    let traced_us = rec.close(root_slot, 0, text.len() as u64) as f64 / 1000.0;
    row.us.insert("traced_execute_us", traced_us);

    let (encoded, encode_us) = rec.call("qipc", "write_message", || {
        let bytes = qipc::write_message(&Message::response(value));
        let n = bytes.as_ref().map_or(0, |b| b.len() as u64);
        (bytes, 0, n)
    });
    row.us.insert("qipc.encode_us", encode_us);
    row.counts.insert(
        "qipc.response_bytes",
        encoded.map_err(|e| e.to_string())?.len() as f64,
    );

    if untraced_us.is_none() {
        untraced_us = Some(untraced()?);
    }
    row.us.insert(
        "core.session.execute_us",
        untraced_us.expect("ran on one side"),
    );

    // A warm key: the session translated this text a moment ago.
    let t0 = Instant::now();
    session.translate_only(text).map_err(|e| e.to_string())?;
    row.us.insert("core.qcache.hit_us", us(t0.elapsed()));

    // Probes: what happens inside the backend call.
    let (parsed, parse_us) = rec.call("pgdb", "parse_statement", || {
        (pgdb::sql::parse_statement(&sql), 0, sql.len() as u64)
    });
    parsed.map_err(|e| e.to_string())?;
    row.us.insert("pgdb.parse_us", parse_us);
    let slot = rec.open("pgdb", "execute_stream_probe");
    let (batch, _) = exec_probe(&base_db(kind), &sql)?;
    let exec_us = rec.close(slot, batch.rows() as u64, sql.len() as u64) as f64 / 1000.0;
    row.us.insert("pgdb.exec_us", exec_us);
    row.counts.insert("pgdb.rows_out", batch.rows() as f64);
    if let BackendKind::Shard { cluster } = kind {
        shard_probes(rec, cluster, &sql, &mut row)?;
    }
    Ok(row)
}

fn column(rows: &[Row], key: &'static str) -> Vec<f64> {
    rows.iter()
        .map(|r| r.us.get(key).copied().unwrap_or(0.0))
        .collect()
}

fn total(rows: &[Row], key: &'static str) -> f64 {
    rows.iter()
        .map(|r| r.counts.get(key).copied().unwrap_or(0.0))
        .sum()
}

/// Fold the replayed sample into per-layer metrics.
fn fold(rows: &[Row], kind: &BackendKind, m: &mut BTreeMap<&'static str, f64>) {
    for key in [
        "qipc.decode_us",
        "qipc.encode_us",
        "qlang.parse_us",
        "algebrizer.bind_us",
        "xformer.apply_us",
        "serializer.serialize_us",
        "core.qcache.hit_us",
        "pgdb.parse_us",
        "pgdb.exec_us",
        "core.pivot.rows_us",
        "core.pivot.batch_us",
        "core.shard.plan_us",
        "core.shard.merge_us",
        "core.session.execute_us",
    ] {
        m.insert(key, median(&column(rows, key)));
    }
    for key in [
        "algebrizer.mdi_lookups",
        "xformer.columns_pruned",
        "pgdb.rows_out",
        "core.pivot.rows",
        "pgwire.frames",
    ] {
        m.insert(key, total(rows, key));
    }
    let n = rows.len().max(1) as f64;
    m.insert(
        "qipc.response_bytes",
        total(rows, "qipc.response_bytes") / n,
    );
    m.insert(
        "serializer.sql_bytes",
        total(rows, "serializer.sql_bytes") / n,
    );

    let per_row =
        |f: &dyn Fn(&Row) -> Option<f64>| -> Vec<f64> { rows.iter().filter_map(f).collect() };
    let get = |r: &Row, k: &'static str| r.us.get(k).copied().unwrap_or(0.0);
    let asof = per_row(&|r| (r.class == Some(Class::Asof)).then(|| get(r, "pgdb.exec_us")));
    m.insert("pgdb.exec_asof_us", median(&asof));
    if let BackendKind::Wire { .. } = kind {
        let wire = per_row(&|r| Some((get(r, "backend_us") - get(r, "pgdb.exec_us")).max(0.0)));
        m.insert("core.gateway.wire_us", median(&wire));
    }
    if let BackendKind::Shard { .. } = kind {
        // A result waits for its slowest shard.
        let route = per_row(&|r| {
            r.us.contains_key("slowest_shard_us")
                .then(|| (get(r, "backend_us") - get(r, "slowest_shard_us")).max(0.0))
        });
        m.insert("core.shard.route_us", median(&route));
        let gather = per_row(&|r| {
            (r.plan_kind == Some("gather"))
                .then(|| (get(r, "backend_us") - get(r, "pgdb.exec_us")).max(0.0))
        });
        m.insert("core.shard.gather_us", median(&gather));
        for (kind, name) in [
            ("scatter", "core.shard.plan_kind.scatter"),
            ("two_phase_agg", "core.shard.plan_kind.two_phase"),
            ("shard_local", "core.shard.plan_kind.shard_local"),
            ("gather", "core.shard.plan_kind.gather"),
            ("fallback", "core.shard.plan_kind.fallback"),
        ] {
            m.insert(
                name,
                rows.iter().filter(|r| r.plan_kind == Some(kind)).count() as f64,
            );
        }
    }
    // The paper's Figure 6 ratio: translation over statement time.
    let translate: f64 = [
        "qlang.parse_us",
        "algebrizer.bind_us",
        "xformer.apply_us",
        "serializer.serialize_us",
    ]
    .into_iter()
    .map(|k| column(rows, k).iter().sum::<f64>())
    .sum();
    let execute: f64 = column(rows, "core.session.execute_us").iter().sum();
    let traced: f64 = column(rows, "traced_execute_us").iter().sum();
    if execute > 0.0 {
        m.insert("core.translate.share", translate / execute);
        m.insert("trace.overhead_share", (traced - execute) / execute);
    }
}

/// Where `trace-<workload>.jsonl` goes.
pub fn trace_path(workload: Workload) -> PathBuf {
    workload::out_dir().join(format!("trace-{}.jsonl", workload.name()))
}

fn floor_rtt_us(setup: &Setup) -> Result<f64, String> {
    let mut client = Client::connect(&setup.qipc_addr, "floor")?;
    let mut samples = Vec::with_capacity(300);
    for i in 0..320 {
        let t0 = Instant::now();
        client
            .query("1+1")
            .map_err(|e| format!("floor query: {e}"))?;
        if i >= 20 {
            samples.push(us(t0.elapsed()));
        }
    }
    Ok(median(&samples))
}

/// Generator-side and engine-side costs of one batch, timed on
/// their own.
fn ingest_probes(
    ingest: &workload::Ingest,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let rows: Vec<usize> = (0..crate::gen::BATCH_ROWS).collect();
    let slice = ingest.ticks.take_rows(&rows);
    let mut build = Vec::new();
    let mut parse = Vec::new();
    for _ in 0..10 {
        let t0 = Instant::now();
        let sql = hyperq::loader::insert_statements("trades", &slice, crate::gen::BATCH_ROWS)
            .map_err(|e| e.to_string())?;
        build.push(us(t0.elapsed()));
        let t0 = Instant::now();
        pgdb::sql::parse_statement(&sql[0]).map_err(|e| e.to_string())?;
        parse.push(us(t0.elapsed()));
    }
    m.insert("loader.insert_build_us", median(&build));
    m.insert("pgdb.parse_us", median(&parse));

    let scratch = Db::new();
    hyperq::loader::load_table_direct(&scratch, "t", &slice).map_err(|e| e.to_string())?;
    let batch = scratch.get_table_snapshot("t").expect("just loaded").batch;
    let mut stats = colstore::TableStats::from_batch(&batch);
    let mut update = Vec::new();
    for _ in 0..10 {
        let t0 = Instant::now();
        stats.observe_batch(&batch);
        update.push(us(t0.elapsed()));
    }
    m.insert("colstore.stats_update_us", median(&update));
    Ok(())
}

/// One traced run of a workload: a short closed-loop window for the
/// generator's own diagnostics and the counters that need concurrency,
/// then the serial replay of `sample` statements with spans.
pub fn traced(spec: &RunSpec, sample: usize) -> Result<RunOutput, String> {
    let (setup, _) = run::timed_setup(spec)?;
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _, _)| (*n, 0.0)).collect();
    let mut out = RunOutput::default();

    m.insert("netpool.floor_rtt_us", floor_rtt_us(&setup)?);

    // Closed-loop window, a third of the run.
    let window = Duration::from_secs((spec.seconds / 3).max(1));
    let win = drive::window(&setup, spec.warmup(), window);
    let (before, after) = win.counters;
    run::tally(&win, &mut out);
    for metric in run::client_metrics(&win) {
        m.insert(metric.name, metric.value);
    }
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    if hits + misses > 0.0 {
        m.insert("core.qcache.hit_ratio", hits / (hits + misses));
    }

    // Serial replay with spans, on a thread of its own: the set-up left
    // this thread's allocator arena fragmented, which slows the engine's
    // allocation-heavy operators by a third; server threads start clean.
    let (rec, rows) = std::thread::scope(|s| {
        s.spawn(|| {
            let mut rec = Recorder::default();
            let mut pipeline = Pipeline::new(&setup.backend);
            let mut session = HyperQSession::new(setup.backend.open(), workload::session_config());
            let mut dealer = setup.plan.dealer(spec.seed ^ 0x0074_7261_6365, 0);
            let mut rows = Vec::with_capacity(sample);
            for i in 0..sample {
                // Literals of `wide_adhoc` continue far above the window's.
                let issue = setup.plan.issue(&mut dealer, 0, 45_000 + i as u64);
                out.attempted += 1;
                let trace = i as u64 + 1;
                match replay(
                    &mut rec,
                    trace,
                    &setup,
                    &mut pipeline,
                    &mut session,
                    issue.class,
                    &issue.text,
                ) {
                    Ok(row) => rows.push(row),
                    Err(e) => {
                        out.failed += 1;
                        out.notes
                            .push(format!("FAILED replay: {e}: {}", issue.text));
                    }
                }
            }
            (rec, rows)
        })
        .join()
        .expect("replay thread")
    });
    fold(&rows, &setup.backend, &mut m);

    if let (Some(ingest), Some(writer)) = (&setup.ingest, &win.writer) {
        ingest_probes(ingest, &mut m)?;
        let acked_rows = (writer.acked_batches * crate::gen::BATCH_ROWS) as f64;
        let wal_bytes = run::dir_bytes(&ingest.data_dir.join("wal")) as f64;
        let all_bytes = run::dir_bytes(&ingest.data_dir) as f64;
        let fsyncs = (after.fsyncs - before.fsyncs) as f64;
        m.insert("durability.wal_bytes", wal_bytes);
        m.insert("durability.fsyncs", fsyncs);
        if fsyncs > 0.0 {
            m.insert(
                "durability.commits_per_fsync",
                (after.wal_appends - before.wal_appends) as f64 / fsyncs,
            );
        }
        m.insert(
            "durability.checkpoints",
            (after.checkpoints - before.checkpoints) as f64,
        );
        m.insert(
            "durability.checkpoint_bytes",
            (after.checkpoint_bytes - before.checkpoint_bytes) as f64,
        );
        m.insert("durability.checkpoint_s", writer.checkpoint_s);
        m.insert(
            "ingest.burst_rows_per_s",
            (ingest.burst_batches * crate::gen::BATCH_ROWS) as f64 / ingest.burst_s,
        );
        m.insert("ingest.ack_p50_ms", median(&writer.ack_ms));
        m.insert("ingest.wal_bytes_per_row", all_bytes / acked_rows.max(1.0));

        let truncated = obs::global_registry().counter("recovery_truncated_tail_total");
        let truncated_before = truncated.get();
        let rec_out = run::recover(ingest, writer.acked_batches, writer.sent_batches);
        out.attempted += rec_out.attempted;
        out.failed += rec_out.failures.len() as u64;
        out.notes
            .extend(rec_out.failures.iter().map(|f| format!("FAILED {f}")));
        m.insert("ingest.recovery_s", rec_out.recovery_s);
        if rec_out.recovery_s > 0.0 {
            m.insert(
                "durability.replay_rows_per_s",
                rec_out.recovered_rows as f64 / rec_out.recovery_s,
            );
        }
        m.insert(
            "durability.truncated_tail",
            (truncated.get() - truncated_before) as f64,
        );
    }

    // Root self time: what the life cycle spent outside its layers.
    let selfs = spans::self_times(&rec.spans);
    let unattributed: Vec<f64> = rec
        .spans
        .iter()
        .filter(|s| s.layer == "core.session")
        .map(|s| selfs[&s.span_id] as f64 / 1000.0)
        .collect();
    m.insert("core.session.unattributed_us", median(&unattributed));

    spans::write_jsonl(&trace_path(spec.workload), &rec.spans)
        .map_err(|e| format!("writing trace: {e}"))?;
    for (name, self_us, n) in spans::self_time_table(&rec.spans) {
        out.notes.push(format!(
            "span {name:<36} self p50 {self_us:>10.1} us  n={n}"
        ));
    }
    out.metrics = PER_LAYER
        .iter()
        .map(|(name, unit, _)| metric(name, m[name], unit))
        .collect::<Vec<Metric>>();
    Ok(out)
}
