//! Batch session driver for the differential fuzz loop (DESIGN §9).
//!
//! The qgen fuzzer needs to run one generated Q program through *three*
//! executors over the same logical data and diff every statement:
//!
//! 1. **reference** — the qengine interpreter (the kdb+ stand-in);
//! 2. **cold** — the full Parser → Algebrizer → Xformer → Serializer →
//!    pgdb pipeline with the translation cache disabled;
//! 3. **warm** — the same pipeline with the translation cache enabled,
//!    after a priming pass, so cache-hit translations are exercised.
//!
//! [`BatchDriver`] owns all three and reports **every** divergent
//! statement of a program — it never stops at the first mismatch, so one
//! fuzz run over a program yields the complete bug batch for that
//! program.

use crate::loader;
use crate::session::{HyperQSession, SessionConfig};
use crate::side_by_side::{agrees, is_assignment, Outcome};
use qengine::Interp;
use qlang::value::Table;
use qlang::QResult;
use std::time::Duration;

/// Which executor pair disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Reference vs the cache-cold translate pipeline.
    ReferenceVsCold,
    /// Reference vs the cache-warm translate pipeline.
    ReferenceVsWarm,
    /// Cold vs warm pipeline — the translation cache is *not*
    /// transparent. The reference engine casts the deciding vote
    /// elsewhere; this kind means the two pipeline configurations
    /// disagree with each other.
    ColdVsWarm,
}

/// One statement's tri-execution record.
#[derive(Debug, Clone)]
pub struct StatementOutcome {
    /// Index of the statement within the program.
    pub index: usize,
    /// The statement text.
    pub q: String,
    /// Reference-engine outcome.
    pub reference: Outcome,
    /// Cache-cold pipeline outcome.
    pub cold: Outcome,
    /// Cache-warm pipeline outcome (second pass over the program).
    pub warm: Outcome,
}

impl StatementOutcome {
    /// All executor-pair disagreements for this statement.
    pub fn divergences(&self) -> Vec<DivergenceKind> {
        let mut out = Vec::new();
        if !agrees(&self.reference, &self.cold) {
            out.push(DivergenceKind::ReferenceVsCold);
        }
        if !agrees(&self.reference, &self.warm) {
            out.push(DivergenceKind::ReferenceVsWarm);
        }
        if !agrees(&self.cold, &self.warm) {
            out.push(DivergenceKind::ColdVsWarm);
        }
        out
    }

    /// Did all three executors agree?
    pub fn agreed(&self) -> bool {
        self.divergences().is_empty()
    }
}

/// The full report for one program.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// One record per statement, in program order — complete even when
    /// early statements diverged.
    pub statements: Vec<StatementOutcome>,
}

impl BatchReport {
    /// Every divergent statement of the run (the full bug batch).
    pub fn divergent(&self) -> Vec<&StatementOutcome> {
        self.statements.iter().filter(|s| !s.agreed()).collect()
    }

    /// True when every statement agreed across all three executors.
    pub fn clean(&self) -> bool {
        self.statements.iter().all(|s| s.agreed())
    }
}

/// The tri-executor driver.
pub struct BatchDriver {
    reference: Interp,
    cold: HyperQSession,
    warm: HyperQSession,
}

impl BatchDriver {
    /// Build a driver over `tables`. Each pipeline session gets its own
    /// fresh in-process backend (sessions share no temp-table namespace),
    /// both loaded with identical data; the reference interpreter gets the
    /// same tables as server globals.
    pub fn new(tables: &[(String, Table)]) -> QResult<Self> {
        Self::with_config(tables, SessionConfig {
            // Batch runs are throughput-oriented; keep the slow-query log
            // out of the fuzz loop.
            slow_query: Duration::ZERO,
            ..SessionConfig::default()
        })
    }

    /// Build a driver with an explicit session configuration. The cold
    /// session always runs with the translation cache forced off; the
    /// warm session keeps the configured capacity (default 256).
    pub fn with_config(tables: &[(String, Table)], config: SessionConfig) -> QResult<Self> {
        let cold_db = pgdb::Db::new();
        let warm_db = pgdb::Db::new();
        let cold_cfg = SessionConfig { translation_cache: 0, ..config.clone() };
        let warm_cfg = if config.translation_cache == 0 {
            SessionConfig { translation_cache: 256, ..config }
        } else {
            config
        };
        let mut cold = HyperQSession::with_direct_config(&cold_db, cold_cfg);
        let mut warm = HyperQSession::with_direct_config(&warm_db, warm_cfg);
        let mut reference = Interp::new();
        for (name, table) in tables {
            reference.define_table(name, table.clone());
            loader::load_table(&mut cold, name, table)?;
            loader::load_table(&mut warm, name, table)?;
        }
        Ok(BatchDriver { reference, cold, warm })
    }

    /// Run a program (a list of statements) through all three executors
    /// and record every statement's outcomes.
    ///
    /// The warm executor runs the whole program twice — the first pass
    /// primes its translation cache, the second (recorded) pass replays
    /// it — so repeated statements take the cache-hit path. Generated
    /// programs are read-only or idempotent (assignments rebind the same
    /// value), so the double pass is semantics-preserving.
    pub fn run_program(&mut self, stmts: &[String]) -> BatchReport {
        // Priming pass for the warm session.
        for q in stmts {
            let _ = self.warm.execute(q);
        }
        let reference = self.reference.run_statements(stmts);
        let mut statements = Vec::with_capacity(stmts.len());
        for ((index, q), reference) in stmts.iter().enumerate().zip(reference) {
            let assignment = is_assignment(q);
            statements.push(StatementOutcome {
                index,
                q: q.clone(),
                reference: Outcome::from(reference).normalized(assignment),
                cold: Outcome::from(self.cold.execute(q)).normalized(assignment),
                warm: Outcome::from(self.warm.execute(q)).normalized(assignment),
            });
        }
        BatchReport { statements }
    }

    /// Cache statistics of the warm session (used by tests to prove the
    /// warm leg actually hit the cache).
    pub fn warm_cache_stats(&self) -> crate::qcache::CacheStats {
        self.warm.translation_cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlang::value::Value;

    fn tables() -> Vec<(String, Table)> {
        vec![(
            "t".to_string(),
            Table::new(
                vec!["S".into(), "V".into()],
                vec![
                    Value::Symbols(vec!["a".into(), "b".into(), "a".into()]),
                    Value::Longs(vec![1, 2, 3]),
                ],
            )
            .unwrap(),
        )]
    }

    #[test]
    fn clean_program_reports_no_divergence() {
        let mut d = BatchDriver::new(&tables()).unwrap();
        let report = d.run_program(&[
            "select from t".to_string(),
            "select s: sum V by S from t".to_string(),
            "exec V from t where S=`a".to_string(),
        ]);
        assert!(report.clean(), "{:?}", report.divergent());
        assert_eq!(report.statements.len(), 3);
    }

    #[test]
    fn warm_pass_hits_the_translation_cache() {
        let mut d = BatchDriver::new(&tables()).unwrap();
        d.run_program(&["select from t".to_string()]);
        assert!(d.warm_cache_stats().hits > 0, "{:?}", d.warm_cache_stats());
    }

    #[test]
    fn all_divergent_statements_are_reported_not_just_the_first() {
        // Desync the reference engine from the pipelines: statements that
        // read table u diverge, ones that read t agree. Every divergent
        // statement must be present in the report.
        let mut d = BatchDriver::new(&tables()).unwrap();
        let u = Table::new(vec!["x".into()], vec![Value::Longs(vec![42])]).unwrap();
        d.reference.define_table("u", u);
        let report = d.run_program(&[
            "exec x from u".to_string(),   // one-sided: pipelines lack u
            "select from t".to_string(),   // agrees
            "exec sum x from u".to_string(), // one-sided again
        ]);
        let div = report.divergent();
        assert_eq!(div.len(), 2, "{div:?}");
        assert_eq!(div[0].index, 0);
        assert_eq!(div[1].index, 2);
        assert!(!report.clean());
    }

    #[test]
    fn both_sides_erroring_counts_as_agreement() {
        let mut d = BatchDriver::new(&tables()).unwrap();
        let report = d.run_program(&["select from ghost".to_string()]);
        assert!(report.clean(), "{:?}", report.divergent());
    }
}
