//! The differential fuzz loop.
//!
//! Seeded end to end: one `QGEN_SEED` determines every dataset, every
//! program, and therefore every executor input — a CI failure replays
//! locally with two environment variables. Each generated program runs
//! through the tri-executor [`BatchDriver`] (reference interpreter,
//! cache-cold pipeline, cache-warm pipeline); every divergent statement
//! is recorded (the driver never stops at the first), optionally
//! shrunk, and written to the corpus directory as a self-contained
//! `found_*.q` repro.

use crate::corpus::Repro;
use crate::grammar::{Coverage, GenStmt};
use crate::schema::Dataset;
use crate::shrink::Shrinker;
use crate::slice::slice;
use hyperq::{BatchDriver, DivergenceKind};
use std::path::PathBuf;

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
    /// Which executor pairs disagreed on the first divergent statement.
    pub kinds: Vec<DivergenceKind>,
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
    /// Programs generated and executed.
    pub programs: usize,
    /// Total statements diffed across all three executors.
    pub statements: usize,
    /// Grammar family coverage across the run.
    pub coverage: Coverage,
    /// Every divergence found.
    pub bugs: Vec<FoundBug>,
}

fn explain_first(report: &hyperq::BatchReport) -> (Vec<DivergenceKind>, String) {
    let div = report.divergent();
    let first = match div.first() {
        Some(f) => f,
        None => return (Vec::new(), String::new()),
    };
    let kinds = first.divergences();
    let why = crate::diff::explain(&first.reference, &first.cold)
        .or_else(|| crate::diff::explain(&first.reference, &first.warm))
        .or_else(|| crate::diff::explain(&first.cold, &first.warm))
        .unwrap_or_else(|| "divergence kinds disagree with explanation".to_string());
    (kinds, format!("stmt {} `{}`: {why}", first.index, first.q))
}

/// Run the fuzz loop: one driver per dataset of the seed's slice.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    let mut out = FuzzReport::default();
    let mut chunks = slice(config.seed, config.budget);
    for chunk in chunks.by_ref() {
        let ds = &chunk.dataset;
        let Ok(mut driver) = BatchDriver::new(&ds.tables) else { continue };
        for (pi, program) in (chunk.first..).zip(&chunk.programs) {
            let rendered = program.render();
            out.programs += 1;
            out.statements += rendered.len();
            let report = driver.run_program(&rendered);
            if report.clean() {
                continue;
            }
            out.bugs.push(found_bug(config, pi, ds, &program.stmts, &report));
            // A diverging program may have left the three executors in
            // inconsistent states (e.g. a diverging assignment); rebuild
            // the driver so later programs are judged from a clean slate.
            let Ok(fresh) = BatchDriver::new(&ds.tables) else { break };
            driver = fresh;
        }
    }
    out.coverage = chunks.coverage();
    out
}

fn found_bug(
    config: &FuzzConfig,
    program_index: usize,
    ds: &Dataset,
    stmts: &[GenStmt],
    report: &hyperq::BatchReport,
) -> FoundBug {
    let (mut tables, mut final_stmts) = (ds.tables.clone(), stmts.to_vec());
    if config.shrink {
        let r = Shrinker::default().shrink(&tables, &final_stmts);
        tables = r.tables;
        final_stmts = r.stmts;
    }
    // Re-run the (possibly shrunk) form for the recorded explanation.
    let final_report = BatchDriver::new(&tables)
        .map(|mut d| d.run_program(&final_stmts.iter().map(GenStmt::render).collect::<Vec<_>>()))
        .unwrap_or_else(|_| report.clone());
    let (kinds, explanation) = explain_first(if final_report.clean() {
        report // shrink lost the bug somehow; fall back to the original
    } else {
        &final_report
    });
    let statements: Vec<String> = final_stmts.iter().map(GenStmt::render).collect();
    let header = vec![
        "qgen shrunk repro".to_string(),
        format!("seed: {} program: {program_index}", config.seed),
        format!("divergence: {kinds:?}"),
        format!("explanation: {explanation}"),
    ];
    let repro = Repro::new(header, &tables, statements.clone())
        .unwrap_or_else(|_| Repro { header: Vec::new(), setup: Vec::new(), statements: statements.clone() });
    let repro_path = config.corpus_dir.as_ref().map(|dir| {
        let path = dir.join(format!("found_seed{}_p{program_index}.q", config.seed));
        let _ = crate::corpus::write_repro(&path, &repro);
        path
    });
    FoundBug { program_index, statements, kinds, explanation, repro, repro_path }
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
        assert_eq!(a.bugs.len(), b.bugs.len());
        assert!(a.statements >= 12);
    }
}
