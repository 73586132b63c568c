//! Differential fuzzing over generated Q programs (DESIGN §9).
//!
//! Three tests share this binary:
//!
//! * `fixed_seed_fuzz_budget_is_divergence_free` — the conformance
//!   gate and the fuzz row of the differential matrix: `QGEN_BUDGET`
//!   (default 500) generated programs at `QGEN_SEED` (default 42) run
//!   on the reference interpreter, a cache-cold and a cache-warm
//!   session (`qgen::fuzz::arms`), asserting zero divergences, full
//!   grammar-family coverage and three comparisons a statement. Any
//!   divergence is shrunk and written to `tests/corpus/found_*.q` (CI
//!   uploads those as artifacts before failing).
//! * `fixed_seed_slice_is_bit_identical_over_the_pg_wire` — the first
//!   200 programs of that seed again, through a session whose backend
//!   is a PG v3 gateway connection to a `PgServer` and through an
//!   in-process session: every statement's value must be the same bit
//!   for bit and every error the same string, cache cold and warm (688
//!   statements × 2 passes at seed 42).
//! * `shrinker_demo_*` — proves the shrinker earns its keep: a known
//!   historical bug (Q `count col` mistranslated to null-skipping
//!   `COUNT(col)`) is re-introduced behind a test-only fault hook, and
//!   the fuzz loop must find it and shrink it to a repro of at most 3
//!   statements over at most 10 rows.
//!
//! The fault hook is process-global, so the tests serialize on a mutex.

mod common;

use std::path::PathBuf;
use std::sync::Mutex;

use hyperq::side_by_side::{Arm, Matrix, Rule};
use hyperq::SessionConfig;
use qgen::{run_fuzz, FuzzConfig};

static FAULT_HOOK: Mutex<()> = Mutex::new(());

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

#[test]
fn fixed_seed_fuzz_budget_is_divergence_free() {
    let _serial = FAULT_HOOK.lock().unwrap();
    let cfg = FuzzConfig {
        corpus_dir: Some(corpus_dir()),
        ..FuzzConfig::from_env()
    };
    let report = run_fuzz(&cfg);
    assert_eq!(
        report.programs,
        cfg.budget,
        "every budgeted program must run:\n{}",
        report.failures.join("\n")
    );
    let statements: usize =
        qgen::slice(cfg.seed, cfg.budget).flat_map(|c| c.programs).map(|p| p.stmts.len()).sum();
    assert_eq!(report.statements, statements, "every statement of the slice must run");
    println!(
        "seed {} budget {}: {} programs, {statements} statements, {} comparisons",
        cfg.seed, cfg.budget, report.programs, report.comparisons
    );
    assert!(statements >= cfg.budget, "programs average at least one statement");
    for (family, count) in report.coverage.families() {
        assert!(
            count > 0,
            "grammar family {family} never generated at seed {} budget {}",
            cfg.seed,
            cfg.budget
        );
    }
    if !report.bugs.is_empty() {
        let mut lines = Vec::new();
        for b in &report.bugs {
            lines.push(format!(
                "program {} [{} vs {}] {} -> {:?}",
                b.program_index, b.arms[0], b.arms[1], b.explanation, b.repro_path
            ));
        }
        panic!(
            "{} divergent program(s) at seed {} (repros in tests/corpus/):\n{}",
            report.bugs.len(),
            cfg.seed,
            lines.join("\n")
        );
    }
    assert_eq!(report.comparisons, 3 * statements, "comparison count");
}

/// The programs at the head of the seed the wire row re-runs.
const WIRE_SLICE: usize = 200;

/// Each statement of the slice, twice (the second pass finds every pure
/// statement in the translation cache), on an in-process session and on
/// one over the PG v3 wire.
#[test]
fn fixed_seed_slice_is_bit_identical_over_the_pg_wire() {
    let _serial = FAULT_HOOK.lock().unwrap();
    let seed = FuzzConfig::from_env().seed;
    let statements: usize =
        qgen::slice(seed, WIRE_SLICE).flat_map(|c| c.programs).map(|p| p.stmts.len()).sum();
    assert!(statements >= WIRE_SLICE, "programs average at least one statement");
    Matrix::new(&[Arm::Session(SessionConfig::default()), Arm::Wire], Rule::Bits, 2)
        .slice(qgen::slice(seed, WIRE_SLICE).map(qgen::Chunk::into_rendered))
        .assert_clean(2 * statements);
}

#[test]
fn shrinker_demo_reintroduced_count_col_bug_yields_minimal_repro() {
    let _serial = FAULT_HOOK.lock().unwrap();
    // Reset the fault hook even if an assertion below panics.
    struct ResetHook;
    impl Drop for ResetHook {
        fn drop(&mut self) {
            algebrizer::testhooks::set_reintroduce_count_col_bug(false);
        }
    }
    let _reset = ResetHook;
    algebrizer::testhooks::set_reintroduce_count_col_bug(true);

    let cfg = FuzzConfig { seed: 1, budget: 40, corpus_dir: None, shrink: true };
    let report = run_fuzz(&cfg);
    assert!(
        !report.bugs.is_empty(),
        "re-introduced COUNT(col) bug must surface within {} programs",
        cfg.budget
    );
    // At least one bug must shrink to the acceptance bar: <=3 statements
    // over <=10 total rows, and still be about count.
    let minimal = report
        .bugs
        .iter()
        .filter(|b| {
            let rows: usize = b
                .repro
                .tables()
                .map(|ts| ts.iter().map(|(_, t)| t.rows()).sum())
                .unwrap_or(usize::MAX);
            b.statements.len() <= 3 && rows <= 10
        })
        .min_by_key(|b| b.statements.len());
    let minimal = minimal.unwrap_or_else(|| {
        panic!(
            "no bug shrank to <=3 statements over <=10 rows; got: {:?}",
            report
                .bugs
                .iter()
                .map(|b| (b.statements.clone(), b.repro.tables().map(|ts| ts
                    .iter()
                    .map(|(_, t)| t.rows())
                    .sum::<usize>())))
                .collect::<Vec<_>>()
        )
    });
    assert!(
        minimal.statements.iter().any(|s| s.contains("count")),
        "minimal repro should still exercise count: {:?}",
        minimal.statements
    );
    // The repro must replay: with the hook still on it diverges...
    let replayed = qgen::replay(&minimal.repro).expect("repro must replay");
    assert!(
        !replayed.divergences.is_empty(),
        "with the fault hook on, the shrunk repro must still diverge"
    );
    // ...and with the hook off (the shipped translator) it is clean,
    // proving the divergence was the injected bug and nothing else.
    algebrizer::testhooks::set_reintroduce_count_col_bug(false);
    let fixed = qgen::replay(&minimal.repro).expect("repro must replay");
    fixed.assert_clean(3 * minimal.statements.len());
}
