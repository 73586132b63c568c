//! Narrow binding is wide binding. Each q-sql template binds only the
//! columns its items, `by` and `where` read, down through `ej`/`aj` into
//! the scans; bound that way and again with every column from the same
//! scopes, every statement below must give the same SQL byte for byte,
//! with the same null rewrites and elided sorts, or fail with the same
//! error (`Translator::check_narrowing`). Debug builds make this check
//! on every translation; this test makes it in any build, over the
//! golden file's corpus and the fixed-seed qgen slice.

mod common;

use algebrizer::{CachingMdi, DemandReason, Scopes};
use common::corpus::{
    fixture, wide_spec, JOIN_ERROR_PROBES, JOIN_SHAPES, ORACLE, TAQ_SHAPES, WIDE_ADHOC,
};
use hyperq::mdi_backend::BackendMdi;
use hyperq::side_by_side;
use hyperq::{loader, share, DirectBackend, SessionConfig, SharedBackend, Translator};
use hyperq_workload::analytical::{analytical_workload, tables};
use qgen::FuzzConfig;
use std::time::Duration;

/// The first programs of `QGEN_SEED` (default 42), as in the xform row.
const SLICE: usize = 200;

/// What a run of checks saw.
#[derive(Debug, Default, PartialEq)]
struct Checked {
    /// Statements bound both ways.
    statements: usize,
    /// Of those, the ones both bindings failed.
    errors: usize,
    /// Templates whose scans bound only the names they read.
    narrowed: usize,
}

/// Check each program over `backend`'s catalog, each program with fresh
/// scopes, its statements in order.
fn check<P: AsRef<[S]>, S: AsRef<str>>(backend: SharedBackend, programs: &[P]) -> Checked {
    let mdi = CachingMdi::new(BackendMdi::new(backend), Duration::from_secs(300));
    let translator = Translator::new();
    let mut checked = Checked::default();
    for program in programs {
        let (mut scopes, mut seq) = (Scopes::new(), 0);
        for text in program.as_ref() {
            let text = text.as_ref();
            let stmts = qlang::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            for stmt in &stmts {
                checked.statements += 1;
                match translator.check_narrowing(stmt, &mdi, &mut scopes, &mut seq) {
                    Ok(demands) => {
                        checked.narrowed +=
                            demands.iter().filter(|d| **d == DemandReason::Items).count()
                    }
                    Err(_) => checked.errors += 1,
                }
            }
        }
    }
    checked
}

#[test]
fn golden_corpus_binds_narrow_as_wide() {
    let db = pgdb::Db::new();
    for (name, table) in tables(&wide_spec()) {
        loader::load_table_direct(&db, &name, &table).unwrap();
    }
    let analytical: Vec<String> =
        analytical_workload(&wide_spec()).into_iter().map(|q| q.text).collect();
    let wide = check(share(DirectBackend::new(&db)), &[analytical.as_slice()]);
    let adhoc = check(share(DirectBackend::new(&db)), &[WIDE_ADHOC]);

    let taq = side_by_side::session(&fixture(), SessionConfig::default()).unwrap();
    let corpus = [ORACLE, TAQ_SHAPES, JOIN_SHAPES, JOIN_ERROR_PROBES];
    let taq = check(taq.backend().clone(), &corpus);
    println!("analytical {wide:?}, wide_adhoc {adhoc:?}, taq {taq:?}");
    assert_eq!(wide, Checked { statements: 25, errors: 0, narrowed: 25 });
    assert_eq!(adhoc, Checked { statements: 3, errors: 0, narrowed: 4 });
    assert_eq!(taq, Checked { statements: 75, errors: 1, narrowed: 68 });
}

#[test]
fn qgen_slice_binds_narrow_as_wide() {
    let seed = FuzzConfig::from_env().seed;
    let mut total = Checked::default();
    let mut slice = qgen::slice(seed, SLICE);
    for chunk in slice.by_ref() {
        let (tables, programs) = chunk.into_rendered();
        let s = side_by_side::session(&tables, SessionConfig::default()).unwrap();
        let checked = check(s.backend().clone(), &programs);
        total.statements += checked.statements;
        total.errors += checked.errors;
        total.narrowed += checked.narrowed;
    }
    let joins = slice.coverage().join_selects;
    println!("seed {seed}: {total:?}, {joins} selects over ej/aj");
    assert!(total.statements >= SLICE, "programs average at least one statement");
    assert!(joins > 0, "the slice has no select over ej or aj");
    assert!(total.narrowed > 0, "no template of the slice bound narrow");
}
