//! The Query Translator: Q text → SQL statements, with per-stage timing.
//!
//! Translation goes through the stages the paper's evaluation instruments
//! (§6): **algebrization** of Q queries to XTRA (including metadata
//! lookups), **optimization** by applying XTRA transformations, and
//! **serialization** of XTRA expressions to SQL. [`StageTimings`] captures
//! each stage so the Figure 6/7 harnesses can reproduce the measurements.

use algebrizer::{
    BindOutput, Binder, Bound, DemandReason, MaterializationPolicy, ResultShape, Scopes,
    SideStatement,
};
use algebrizer::Mdi;
use qlang::{QError, QResult};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use xformer::{XformReport, Xformer};

/// Wall-clock time spent in each translation stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Q text → AST.
    pub parse: Duration,
    /// AST → XTRA (binding, metadata lookups, scope resolution).
    pub algebrize: Duration,
    /// XTRA transformations.
    pub optimize: Duration,
    /// XTRA → SQL text.
    pub serialize: Duration,
    /// Translations served from the session's translation cache: all
    /// stage durations above are zero for such a statement.
    pub cache_hits: u64,
    /// Translations that ran the full pipeline (with a cache enabled).
    pub cache_misses: u64,
}

impl StageTimings {
    /// Total translation time.
    pub fn total(&self) -> Duration {
        self.parse + self.algebrize + self.optimize + self.serialize
    }

    /// Accumulate another measurement. **Merge semantics**: durations
    /// and cache counters are both *statement-weighted sums*. Each
    /// per-statement measurement carries `cache_hits + cache_misses ∈
    /// {0, 1}` (exactly one of them set when a translation cache is
    /// enabled, neither when it is disabled), so after any number of
    /// `add` calls — including merges across unrelated sessions —
    /// `cache_hits + cache_misses` is the number of cache-consulting
    /// statement translations, and [`StageTimings::hit_ratio`] stays
    /// meaningful. A cache-hit statement contributes zero to every
    /// duration (the pipeline never ran), so aggregated durations are
    /// "time actually spent translating", not "time per statement".
    pub fn add(&mut self, other: &StageTimings) {
        self.parse += other.parse;
        self.algebrize += other.algebrize;
        self.optimize += other.optimize;
        self.serialize += other.serialize;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// Fraction of cache-consulting translations served from the cache;
    /// `None` when no translation ever consulted a cache (so a report
    /// over cache-disabled sessions reads "n/a" instead of "0%").
    pub fn hit_ratio(&self) -> Option<f64> {
        let consulted = self.cache_hits + self.cache_misses;
        if consulted == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / consulted as f64)
        }
    }
}

/// One SQL statement to run on the backend.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlStatement {
    /// The SQL text.
    pub sql: String,
    /// Whether the Q application expects rows back from this statement
    /// (side statements never return rows).
    pub returns_rows: bool,
    /// Expected Q result shape (for pivoting), when `returns_rows`.
    pub shape: Option<ResultShape>,
}

/// Result of translating one Q statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Translation {
    /// SQL statements, in execution order (materializations first).
    pub statements: Vec<SqlStatement>,
    /// Per-stage timings.
    pub timings: StageTimings,
    /// Which transformations fired.
    pub xform_report: XformReport,
    /// True when the statement was fully absorbed into Hyper-Q state
    /// (e.g. a function definition) and needs no backend round trip.
    pub absorbed: bool,
}

/// Aggregated statistics across many translations (bench harness).
#[derive(Debug, Clone, Default)]
pub struct TranslationStats {
    /// Statements translated.
    pub statements: usize,
    /// Accumulated stage timings.
    pub timings: StageTimings,
    /// Accumulated transformation report.
    pub rules: XformReport,
}

/// The translator: owns the transformation configuration and the
/// materialization policy; scopes and sequence numbers belong to the
/// session and are passed per call.
#[derive(Debug, Clone, Copy)]
pub struct Translator {
    /// Transformation configuration (ablations toggle rules here).
    pub xformer: Xformer,
    /// Materialization policy for Q variable assignments.
    pub policy: MaterializationPolicy,
}

impl Default for Translator {
    fn default() -> Self {
        Translator { xformer: Xformer::new(), policy: MaterializationPolicy::Logical }
    }
}

impl Translator {
    /// Create a translator with defaults (all transformations on,
    /// logical materialization).
    pub fn new() -> Self {
        Translator::default()
    }

    /// Translate a full Q program (possibly several `;`-separated
    /// statements). Returns one [`Translation`] per statement.
    pub fn translate_program(
        &self,
        q_text: &str,
        mdi: &dyn Mdi,
        scopes: &mut Scopes,
        temp_seq: &mut usize,
    ) -> QResult<Vec<Translation>> {
        let t0 = Instant::now();
        let stmts = qlang::parse(q_text)?;
        let parse_time = t0.elapsed();
        if stmts.is_empty() {
            return Err(QError::parse("empty query"));
        }
        let mut out = Vec::with_capacity(stmts.len());
        let per_stmt_parse = parse_time / stmts.len() as u32;
        for stmt in &stmts {
            let mut tr = self.translate_bound(stmt, mdi, scopes, temp_seq)?;
            tr.timings.parse = per_stmt_parse;
            out.push(tr);
        }
        Ok(out)
    }

    /// Translate one already-parsed statement.
    ///
    /// Each q-sql template binds only the columns it reads when column
    /// pruning is on; debug builds bind the statement again with every
    /// column and assert that the SQL and the rule counts pruning does
    /// not own are the same, as [`Translator::check_narrowing`] does.
    pub fn translate_bound(
        &self,
        stmt: &qlang::Expr,
        mdi: &dyn Mdi,
        scopes: &mut Scopes,
        temp_seq: &mut usize,
    ) -> QResult<Translation> {
        #[cfg(debug_assertions)]
        let before = (scopes.clone(), *temp_seq);
        let narrow = self.xformer.config.column_pruning;

        // Algebrization (binding + metadata lookups).
        let t0 = Instant::now();
        let mut binder = Binder::new(mdi, scopes, self.policy, temp_seq).narrowing(narrow);
        let output = binder.bind_statement(stmt);
        let algebrize = t0.elapsed();
        for reason in binder.demands() {
            demand_counter(*reason).inc();
        }

        #[cfg(debug_assertions)]
        if narrow {
            let (mut scopes, mut temp_seq) = before;
            let wide = Binder::new(mdi, &mut scopes, self.policy, &mut temp_seq)
                .narrowing(false)
                .bind_statement(stmt);
            self.cross_check(stmt, &output, wide);
        }
        let mut translation = self.finish(output?);
        translation.timings.algebrize = algebrize;
        Ok(translation)
    }

    /// Optimize and serialize a bound statement, timing both stages.
    fn finish(&self, output: BindOutput) -> Translation {
        let mut statements = Vec::new();
        let mut report = XformReport::default();

        // Side statements (eager materialization) are optimized and
        // serialized like the main query.
        let mut optimize = Duration::ZERO;
        let mut serialize = Duration::ZERO;
        for side in &output.side_statements {
            match side {
                SideStatement::CreateTemp { name, plan } => {
                    let t1 = Instant::now();
                    let (optimized, r) = self.xformer.apply(plan.clone());
                    optimize += t1.elapsed();
                    report.null_rewrites += r.null_rewrites;
                    report.columns_pruned += r.columns_pruned;
                    report.sorts_elided += r.sorts_elided;

                    let t2 = Instant::now();
                    let sql = serializer::serialize_create_temp(name, &optimized);
                    serialize += t2.elapsed();
                    statements.push(SqlStatement { sql, returns_rows: false, shape: None });
                }
            }
        }

        let absorbed = match output.bound {
            Bound::Rel { plan, shape } => {
                let t1 = Instant::now();
                let (optimized, r) = self.xformer.apply(plan);
                optimize += t1.elapsed();
                report.null_rewrites += r.null_rewrites;
                report.columns_pruned += r.columns_pruned;
                report.sorts_elided += r.sorts_elided;

                let t2 = Instant::now();
                let sql = serializer::serialize(&optimized);
                serialize += t2.elapsed();
                statements.push(SqlStatement { sql, returns_rows: true, shape: Some(shape) });
                false
            }
            Bound::Scalar(expr) => {
                let t2 = Instant::now();
                // Constant-fold standalone scalars (`1+2` → `SELECT 3`).
                let expr = match algebrizer::bind::fold_const(&expr) {
                    Some(d) => xtra::ScalarExpr::Const(d),
                    None => expr,
                };
                let sql = serializer::serialize_scalar_query(&expr);
                serialize += t2.elapsed();
                statements.push(SqlStatement {
                    sql,
                    returns_rows: true,
                    shape: Some(ResultShape::Atom),
                });
                false
            }
            Bound::Absorbed => statements.is_empty(),
        };
        let timings = StageTimings { optimize, serialize, ..StageTimings::default() };
        Translation { statements, timings, xform_report: report, absorbed }
    }

    /// Bind `stmt` for its demand and again with every column, from the
    /// same scopes, and [cross-check](Translator::cross_check) the two.
    /// Scopes and `temp_seq` end as the first binding leaves them. Returns
    /// how its templates chose their columns, or the error both bindings
    /// failed with.
    pub fn check_narrowing(
        &self,
        stmt: &qlang::Expr,
        mdi: &dyn Mdi,
        scopes: &mut Scopes,
        temp_seq: &mut usize,
    ) -> QResult<Vec<DemandReason>> {
        let (mut wide_scopes, mut wide_seq) = (scopes.clone(), *temp_seq);
        let mut binder = Binder::new(mdi, scopes, self.policy, temp_seq);
        let narrow = binder.bind_statement(stmt);
        let demands = binder.demands().to_vec();
        let wide = Binder::new(mdi, &mut wide_scopes, self.policy, &mut wide_seq)
            .narrowing(false)
            .bind_statement(stmt);
        self.cross_check(stmt, &narrow, wide);
        narrow.map(|_| demands)
    }

    /// The translator's twin of pgdb's `cross_check`: a statement bound
    /// for its demand (`narrow`) and bound with every column (`wide`)
    /// must fail with the same error or give the same SQL, byte for
    /// byte, with the same null rewrites and elided sorts. Only
    /// `columns_pruned` may differ: the narrow plan has less to prune.
    fn cross_check(
        &self,
        stmt: &qlang::Expr,
        narrow: &QResult<BindOutput>,
        wide: QResult<BindOutput>,
    ) {
        match (narrow, wide) {
            (Ok(narrow), Ok(wide)) => {
                let (n, w) = (self.finish(narrow.clone()), self.finish(wide));
                let (nr, wr) = (&n.xform_report, &w.xform_report);
                assert!(
                    n.statements == w.statements
                        && n.absorbed == w.absorbed
                        && nr.null_rewrites == wr.null_rewrites
                        && nr.sorts_elided == wr.sorts_elided,
                    "narrow binding diverged from wide for {stmt:?}\n\
                     narrow: {:?} {nr:?}\nwide:   {:?} {wr:?}",
                    n.statements,
                    w.statements
                );
            }
            (Err(n), Err(w)) => assert_eq!(
                n.to_string(),
                w.to_string(),
                "narrow and wide binding failed differently for {stmt:?}"
            ),
            (n, w) => panic!(
                "narrow binding {} where wide {} for {stmt:?}",
                if n.is_ok() { "succeeded" } else { "failed" },
                if w.is_ok() { "succeeded" } else { "failed" },
            ),
        }
    }
}

/// `hyperq_translate_demand_total{demand, reason}` for `reason`: how the
/// templates of translated statements bound their FROM clauses. Resolved
/// once per process.
fn demand_counter(reason: DemandReason) -> &'static obs::Counter {
    static COUNTERS: OnceLock<[Arc<obs::Counter>; 5]> = OnceLock::new();
    let counters = COUNTERS.get_or_init(|| {
        let reg = obs::global_registry();
        DemandReason::ALL.map(|r| {
            reg.counter(&format!(
                "hyperq_translate_demand_total{{demand=\"{}\",reason=\"{}\"}}",
                r.demand(),
                r.label()
            ))
        })
    });
    let at = DemandReason::ALL.iter().position(|r| *r == reason).expect("every reason is listed");
    &counters[at]
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebrizer::{StaticMdi, TableMeta};
    use xtra::{ColumnDef, SqlType, ORD_COL};

    fn mdi() -> StaticMdi {
        StaticMdi::new().with(TableMeta::new(
            "trades",
            vec![
                ColumnDef::not_null(ORD_COL, SqlType::Int8),
                ColumnDef::new("Symbol", SqlType::Varchar),
                ColumnDef::new("Price", SqlType::Float8),
            ],
        ))
    }

    fn translate(q: &str) -> Vec<Translation> {
        let mdi = mdi();
        let mut scopes = Scopes::new();
        let mut seq = 0;
        Translator::new()
            .translate_program(q, &mdi, &mut scopes, &mut seq)
            .unwrap_or_else(|e| panic!("translate {q:?}: {e}"))
    }

    #[test]
    fn select_translates_to_single_sql() {
        let trs = translate("select Price from trades where Symbol=`GOOG");
        assert_eq!(trs.len(), 1);
        let t = &trs[0];
        assert_eq!(t.statements.len(), 1);
        let sql = &t.statements[0].sql;
        assert!(sql.contains("IS NOT DISTINCT FROM"), "{sql}");
        assert!(sql.contains("'GOOG'::varchar"), "{sql}");
        assert!(sql.contains(r#"ORDER BY "ordcol""#), "{sql}");
        assert!(t.statements[0].returns_rows);
    }

    #[test]
    fn stage_timings_are_recorded() {
        let t = &translate("select max Price from trades")[0];
        assert!(t.timings.total() > Duration::ZERO);
        assert!(t.timings.algebrize > Duration::ZERO);
    }

    #[test]
    fn stage_timings_merge_is_statement_weighted() {
        // Pin the cross-session merge semantics: counters sum as
        // statement counts, durations sum as time actually spent, and
        // the hit ratio of the merge is the statement-weighted ratio —
        // NOT an average of per-session ratios.
        let session_a = StageTimings {
            parse: Duration::from_micros(10),
            cache_hits: 3,
            cache_misses: 1,
            ..StageTimings::default()
        };
        let session_b = StageTimings {
            parse: Duration::from_micros(30),
            cache_hits: 0,
            cache_misses: 1,
            ..StageTimings::default()
        };
        let mut merged = StageTimings::default();
        merged.add(&session_a);
        merged.add(&session_b);
        assert_eq!(merged.parse, Duration::from_micros(40));
        assert_eq!(merged.cache_hits + merged.cache_misses, 5, "statement count is preserved");
        // Statement-weighted: 3 hits of 5 consultations = 0.6. An
        // average of per-session ratios would give (0.75 + 0.0) / 2 =
        // 0.375 — the wrong answer for an aggregated report.
        assert_eq!(merged.hit_ratio(), Some(3.0 / 5.0));
        assert_eq!(session_a.hit_ratio(), Some(0.75));
        assert_eq!(session_b.hit_ratio(), Some(0.0));
        // Cache-disabled sessions contribute no consultations and leave
        // the ratio untouched rather than dragging it toward zero.
        let disabled = StageTimings { parse: Duration::from_micros(5), ..StageTimings::default() };
        assert_eq!(disabled.hit_ratio(), None);
        merged.add(&disabled);
        assert_eq!(merged.hit_ratio(), Some(3.0 / 5.0));
    }

    #[test]
    fn function_definition_is_absorbed() {
        let trs = translate("f: {[s] select from trades where Symbol=s}");
        assert!(trs[0].absorbed);
        assert!(trs[0].statements.is_empty());
    }

    #[test]
    fn physical_materialization_emits_create_temp() {
        let mdi = mdi();
        let mut scopes = Scopes::new();
        let mut seq = 0;
        let translator = Translator {
            policy: MaterializationPolicy::Physical,
            ..Translator::new()
        };
        let trs = translator
            .translate_program(
                "dt: select Price from trades where Symbol=`GOOG; select max Price from dt",
                &mdi,
                &mut scopes,
                &mut seq,
            )
            .unwrap();
        assert_eq!(trs.len(), 2);
        // Statement 1: the assignment materializes as CREATE TEMP.
        assert_eq!(trs[0].statements.len(), 1);
        let ddl = &trs[0].statements[0];
        assert!(ddl.sql.starts_with("CREATE TEMPORARY TABLE \"HQ_TEMP_1\""), "{}", ddl.sql);
        assert!(!ddl.returns_rows);
        // Statement 2: the aggregation reads the temp table — the paper's
        // §4.3 generated-SQL example.
        let q = &trs[1].statements[0];
        assert!(q.sql.contains("\"HQ_TEMP_1\""), "{}", q.sql);
        assert!(q.sql.contains("max("), "{}", q.sql);
    }

    #[test]
    fn transformation_report_counts_fired_rules() {
        let t = &translate("select Price from trades where Symbol=`GOOG")[0];
        assert!(t.xform_report.null_rewrites >= 1);
        // No filter: the binder scans only what the items read, so the
        // unused Symbol column never reaches the SQL.
        let t = &translate("select Price from trades")[0];
        assert!(!t.statements[0].sql.contains("Symbol"), "{}", t.statements[0].sql);
        // An inner `select from` binds every column; pruning drops the
        // ones the outer items do not read.
        let t = &translate("select Price from select from trades")[0];
        assert!(t.xform_report.columns_pruned >= 1, "unused Symbol pruned from scan");
        assert!(!t.statements[0].sql.contains("Symbol"), "{}", t.statements[0].sql);
    }

    #[test]
    fn scalar_statement_translates_to_select_expr() {
        let t = &translate("1+2")[0];
        assert_eq!(t.statements[0].sql, "SELECT 3");
        assert_eq!(t.statements[0].shape, Some(ResultShape::Atom));
    }

    #[test]
    fn aj_translation_end_to_end_shape() {
        let mdi = StaticMdi::new()
            .with(TableMeta::new(
                "trades",
                vec![
                    ColumnDef::not_null(ORD_COL, SqlType::Int8),
                    ColumnDef::new("Symbol", SqlType::Varchar),
                    ColumnDef::new("Time", SqlType::Time),
                    ColumnDef::new("Price", SqlType::Float8),
                ],
            ))
            .with(TableMeta::new(
                "quotes",
                vec![
                    ColumnDef::not_null(ORD_COL, SqlType::Int8),
                    ColumnDef::new("Symbol", SqlType::Varchar),
                    ColumnDef::new("Time", SqlType::Time),
                    ColumnDef::new("Bid", SqlType::Float8),
                ],
            ));
        let mut scopes = Scopes::new();
        let mut seq = 0;
        let trs = Translator::new()
            .translate_program("aj[`Symbol`Time; trades; quotes]", &mdi, &mut scopes, &mut seq)
            .unwrap();
        let sql = &trs[0].statements[0].sql;
        assert!(sql.contains("LEFT OUTER JOIN"), "{sql}");
        assert!(sql.contains("lead("), "{sql}");
        assert!(sql.contains("PARTITION BY"), "{sql}");
    }

    #[test]
    fn undefined_table_fails_cleanly() {
        let mdi = mdi();
        let mut scopes = Scopes::new();
        let mut seq = 0;
        let err = Translator::new()
            .translate_program("select from ghost", &mdi, &mut scopes, &mut seq)
            .unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }
}
