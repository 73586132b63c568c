//! Pass-by-pass differential gate for the Xformer (DESIGN §9).
//!
//! `XformConfig` has three switches — null logic, column pruning,
//! ordering elision — and `fuzz_differential` only ever runs them all
//! on. This suite runs the fixed-seed qgen slice on the fuzz row's arms
//! (the reference interpreter, a cache-cold and a cache-warm session)
//! at the other seven settings, so a rewritten pass that stops
//! preserving semantics is caught pass by pass. The all-on setting is
//! the fuzz row itself, whose budget covers the slice:
//!
//! * with null logic on (three more settings), pruning and ordering
//!   elision are pure optimisations: turning either off may change the
//!   SQL text, never an answer — zero divergences;
//! * with null logic off (the other four), a statement may diverge only
//!   if its all-on translation reports at least one null rewrite (an
//!   equality the pass turns into `IS NOT DISTINCT FROM`); any other
//!   divergence means some other pass is carrying correctness.

mod common;

use hyperq::side_by_side::{self, Arm, Matrix, Rule};
use hyperq::SessionConfig;
use qgen::FuzzConfig;
use qlang::value::Table;

/// The slice: the first programs of `QGEN_SEED` (default 42).
const SLICE: usize = 200;

/// `null_rewrites` of each statement's all-on translation, in program
/// order (0 where translation fails), from a session that translates
/// without executing.
fn null_rewrites(tables: &[(String, Table)], program: &[String]) -> Vec<usize> {
    let mut s = side_by_side::session(tables, SessionConfig::default()).unwrap();
    program
        .iter()
        .map(|q| {
            s.translate_only(q)
                .map(|trs| trs.iter().map(|t| t.xform_report.null_rewrites).sum())
                .unwrap_or(0)
        })
        .collect()
}

/// Each of the slice's statements, at each setting but all-on, on a
/// cold and a warm session beside the reference, compared across the
/// three pairs (cold against warm too: the translation cache must be
/// transparent).
#[test]
fn every_xform_setting_agrees_with_the_reference_outside_null_logic() {
    let FuzzConfig { seed, budget, .. } = FuzzConfig::from_env();
    assert!(budget >= SLICE, "the fuzz row runs the all-on setting over the slice");
    let chunks: Vec<_> = qgen::slice(seed, SLICE).map(qgen::Chunk::into_rendered).collect();
    let rewrites: Vec<Vec<usize>> = chunks
        .iter()
        .flat_map(|(tables, programs)| programs.iter().map(|p| null_rewrites(tables, p)))
        .collect();
    let statements: usize = rewrites.iter().map(Vec::len).sum();

    let mut allowed = 0usize;
    for bits in 0..7u8 {
        let mut cfg = SessionConfig { slow_query: std::time::Duration::ZERO, ..Default::default() };
        cfg.xform.null_logic = bits & 1 != 0;
        cfg.xform.column_pruning = bits & 2 != 0;
        cfg.xform.ordering = bits & 4 != 0;
        let cold = SessionConfig { translation_cache: 0, ..cfg.clone() };
        let arms = [Arm::Qengine, Arm::Session(cold), Arm::Warm(cfg.clone())];
        let mut report = Matrix::new(&arms, Rule::Reference, 1).slice(chunks.iter().cloned());
        let divergent = report.divergences.len();
        report.divergences.retain(|d| cfg.xform.null_logic || rewrites[d.program][d.index] == 0);
        allowed += divergent - report.divergences.len();
        println!("{:?}: {divergent} divergence(s), {allowed} explained so far", cfg.xform);
        report.assert_clean(3 * statements);
    }
    // Null logic off must change some answer in the slice, or the
    // setting never reached the pipeline and the gate proves nothing.
    assert!(allowed > 0, "null logic off changed no answer in {SLICE} programs at seed {seed}");
}
