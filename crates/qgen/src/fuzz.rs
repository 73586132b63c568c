//! The differential fuzz loop: the fuzz row of the differential matrix.
//!
//! Seeded end to end: one `QGEN_SEED` determines every dataset, every
//! program, and therefore every arm's input — a CI failure replays
//! locally with two environment variables. Each dataset's programs run
//! as one [`Matrix`] row over [`arms`] (reference interpreter,
//! cache-cold session, cache-warm session) under [`Rule::Reference`];
//! the row reports every divergent statement (it never stops at the
//! first), and each divergent program is optionally shrunk and written
//! to the corpus directory as a self-contained `found_*.q` repro.

use crate::corpus::Repro;
use crate::grammar::{Coverage, GenStmt, Program};
use crate::schema::Dataset;
use crate::shrink::Shrinker;
use crate::slice::{slice, PROGRAMS_PER_DATASET};
use hyperq::side_by_side::{Arm, Divergence, Matrix, Report, Rule};
use hyperq::SessionConfig;
use qlang::value::Table;
use std::path::PathBuf;
use std::time::Duration;

/// Fuzz-loop configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; every dataset and program derives from it.
    pub seed: u64,
    /// Number of programs to generate and check.
    pub budget: usize,
    /// Where to write shrunk `found_*.q` repros; `None` disables writing.
    pub corpus_dir: Option<PathBuf>,
    /// Run the delta-debugging shrinker on each divergence.
    pub shrink: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig { seed: 42, budget: 500, corpus_dir: None, shrink: true }
    }
}

impl FuzzConfig {
    /// Read `QGEN_SEED` / `QGEN_BUDGET` from the environment, falling
    /// back to the defaults (seed 42, budget 500).
    pub fn from_env() -> Self {
        let mut cfg = FuzzConfig::default();
        if let Ok(s) = std::env::var("QGEN_SEED") {
            if let Ok(v) = s.trim().parse() {
                cfg.seed = v;
            }
        }
        if let Ok(s) = std::env::var("QGEN_BUDGET") {
            if let Ok(v) = s.trim().parse() {
                cfg.budget = v;
            }
        }
        cfg
    }
}

/// One confirmed divergence.
#[derive(Debug, Clone)]
pub struct FoundBug {
    /// Index of the originating program within the run.
    pub program_index: usize,
    /// The (shrunk, when enabled) diverging statements.
    pub statements: Vec<String>,
    /// The two arms that disagreed on the first divergent statement.
    pub arms: [String; 2],
    /// Cell-level explanation of the first divergence.
    pub explanation: String,
    /// The self-contained repro.
    pub repro: Repro,
    /// Where the repro was written, when a corpus dir is configured.
    pub repro_path: Option<PathBuf>,
}

/// The result of one fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Programs generated and executed (the budget, less failures).
    pub programs: usize,
    /// Statements run on every arm.
    pub statements: usize,
    /// (statement, pair of arms) comparisons: three a statement.
    pub comparisons: usize,
    /// One line per program whose arms could not be built over its
    /// dataset.
    pub failures: Vec<String>,
    /// Grammar family coverage across the run.
    pub coverage: Coverage,
    /// Every divergence found.
    pub bugs: Vec<FoundBug>,
}

/// The fuzz row's arms: the reference, a session with the translation
/// cache off and one whose cache each program primes, with slow-query
/// capture off (the loop is throughput-bound).
pub fn arms() -> [Arm; 3] {
    let config = SessionConfig { slow_query: Duration::ZERO, ..SessionConfig::default() };
    let cold = SessionConfig { translation_cache: 0, ..config.clone() };
    let warm = SessionConfig { translation_cache: 256, ..config };
    [Arm::Qengine, Arm::Session(cold), Arm::Warm(warm)]
}

/// Run `programs` over `tables` on [`arms`] under [`Rule::Reference`]:
/// the check the loop, the shrinker and repro replay make.
pub fn check(tables: Vec<(String, Table)>, programs: Vec<Vec<String>>) -> Report {
    Matrix::new(&arms(), Rule::Reference, 1).slice([(tables, programs)])
}

/// Run the fuzz loop: the seed's slice as one row over [`arms`], then
/// each divergent program shrunk and written out.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    let mut chunks = Vec::new();
    let mut stream = slice(config.seed, config.budget);
    let report = Matrix::new(&arms(), Rule::Reference, 1).slice(stream.by_ref().map(|chunk| {
        let programs = chunk.programs.iter().map(Program::render).collect();
        let tables = chunk.dataset.tables.clone();
        chunks.push(chunk);
        (tables, programs)
    }));
    let mut out = FuzzReport {
        programs: config.budget - report.failures.len(),
        statements: report.outcomes.len(),
        comparisons: report.comparisons,
        failures: report.failures.iter().map(|f| format!("seed {}, {f}", config.seed)).collect(),
        coverage: stream.coverage(),
        bugs: Vec::new(),
    };
    let mut last = None;
    for d in &report.divergences {
        if last.replace(d.program) != Some(d.program) {
            let chunk = &chunks[d.program / PROGRAMS_PER_DATASET];
            let stmts = &chunk.programs[d.program - chunk.first].stmts;
            out.bugs.push(found_bug(config, d.program, &chunk.dataset, stmts, d));
        }
    }
    out
}

/// A divergent program, shrunk when configured, explained by its first
/// divergence and written out as a repro.
fn found_bug(
    config: &FuzzConfig,
    program_index: usize,
    ds: &Dataset,
    stmts: &[GenStmt],
    first: &Divergence,
) -> FoundBug {
    let (mut tables, mut final_stmts) = (ds.tables.clone(), stmts.to_vec());
    if config.shrink {
        let r = Shrinker::default().shrink(&tables, &final_stmts);
        tables = r.tables;
        final_stmts = r.stmts;
    }
    let statements: Vec<String> = final_stmts.iter().map(GenStmt::render).collect();
    // Re-run the (possibly shrunk) form for the recorded explanation;
    // should the shrink have lost the bug, fall back to the original.
    let report = check(tables.clone(), vec![statements.clone()]);
    let d = report.divergences.first().unwrap_or(first);
    let why = crate::diff::explain(&d.outcomes[0], &d.outcomes[1])
        .unwrap_or_else(|| "equal under Q equality, unequal as columnar batches".to_string());
    let explanation = format!("stmt {} `{}`: {why}", d.index, d.q);
    let header = vec![
        "qgen shrunk repro".to_string(),
        format!("seed: {} program: {program_index}", config.seed),
        format!("divergence: {} vs {}", d.arms[0], d.arms[1]),
        format!("explanation: {explanation}"),
    ];
    let repro = Repro::new(header, &tables, statements.clone())
        .unwrap_or_else(|_| Repro { header: Vec::new(), setup: Vec::new(), statements: statements.clone() });
    let repro_path = config.corpus_dir.as_ref().map(|dir| {
        let path = dir.join(format!("found_seed{}_p{program_index}.q", config.seed));
        let _ = crate::corpus::write_repro(&path, &repro);
        path
    });
    FoundBug { program_index, statements, arms: d.arms.clone(), explanation, repro, repro_path }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_env_defaults_without_vars() {
        // Env vars are process-global; this test only asserts defaults
        // when the knobs are unset (CI never sets them for unit tests).
        if std::env::var("QGEN_SEED").is_err() && std::env::var("QGEN_BUDGET").is_err() {
            let cfg = FuzzConfig::from_env();
            assert_eq!(cfg.seed, 42);
            assert_eq!(cfg.budget, 500);
        }
    }

    #[test]
    fn small_run_is_deterministic_and_counts_coverage() {
        let cfg = FuzzConfig { seed: 7, budget: 12, corpus_dir: None, shrink: false };
        let a = run_fuzz(&cfg);
        let b = run_fuzz(&cfg);
        assert_eq!(a.programs, 12);
        assert_eq!(a.statements, b.statements);
        assert_eq!(a.comparisons, 3 * a.statements);
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(a.bugs.len(), b.bugs.len());
        assert!(a.statements >= 12);
    }
}
