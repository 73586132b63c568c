//! Golden translations: the exact SQL text and `XformReport` of every
//! statement below, byte for byte, against `tests/golden/translation.sql`.
//!
//! The statements are the 25 Analytical Workload queries over 500-metric
//! tables (the width of the Figure 6 harness's `bench_spec()`), hqbench's
//! `wide_adhoc` point/window/as-of templates over the same tables, the
//! differential-oracle statements, the TAQ dashboard shapes (`aj`,
//! `lj`, `deltas`, `prev`, `xbar`), and the statements over `ej`/`aj`
//! whose scans the binder narrows. One record pins analytical query 10
//! with column pruning off: the wide SQL Ablation B measures. Translation
//! only: nothing executes, so row counts do not matter, only schemas.
//!
//! A change to the binder, the Xformer or the serializer that moves any
//! byte of any statement fails here with the first differing case. When
//! a change *means* to alter the SQL, delete the golden file and run this
//! test once: it writes the file afresh and fails, so the new text is
//! reviewed in the diff before it is committed.

mod common;

use common::corpus::{
    fixture, wide_spec, JOIN_ERROR_PROBES, JOIN_SHAPES, ORACLE, TAQ_SHAPES, WIDE_ADHOC,
};
use hyperq::side_by_side;
use hyperq::{loader, HyperQSession, SessionConfig};
use hyperq_workload::analytical::{analytical_workload, tables};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/translation.sql")
}

/// Translate `statements` in one session and append one record each:
/// a `-- <label> <n>: <q>` header, the report triple, then every SQL
/// statement of the translation (or the translation error).
fn record(out: &mut String, label: &str, session: &mut HyperQSession, statements: &[&str]) {
    for (n, q) in statements.iter().enumerate() {
        writeln!(out, "-- {label} {}: {q}", n + 1).unwrap();
        match session.translate_only(q) {
            Ok(trs) => {
                for tr in trs {
                    let r = &tr.xform_report;
                    writeln!(
                        out,
                        "-- null_rewrites={} columns_pruned={} sorts_elided={}",
                        r.null_rewrites, r.columns_pruned, r.sorts_elided
                    )
                    .unwrap();
                    for stmt in &tr.statements {
                        writeln!(out, "{}", stmt.sql).unwrap();
                    }
                }
            }
            Err(e) => writeln!(out, "-- error: {e}").unwrap(),
        }
        out.push('\n');
    }
}

fn translations() -> String {
    let mut out = String::new();

    let db = pgdb::Db::new();
    for (name, table) in tables(&wide_spec()) {
        loader::load_table_direct(&db, &name, &table).unwrap();
    }
    let mut wide = HyperQSession::with_direct_config(&db, SessionConfig::default());
    let analytical: Vec<String> =
        analytical_workload(&wide_spec()).into_iter().map(|q| q.text).collect();
    let analytical: Vec<&str> = analytical.iter().map(String::as_str).collect();
    record(&mut out, "analytical", &mut wide, &analytical);
    record(&mut out, "wide_adhoc", &mut wide, WIDE_ADHOC);
    let mut unpruned = SessionConfig::default();
    unpruned.xform.column_pruning = false;
    let mut unpruned = HyperQSession::with_direct_config(&db, unpruned);
    record(&mut out, "analytical unpruned", &mut unpruned, &analytical[9..10]);

    let mut taq = side_by_side::session(&fixture(), SessionConfig::default()).unwrap();
    record(&mut out, "oracle", &mut taq, ORACLE);
    record(&mut out, "taq", &mut taq, TAQ_SHAPES);
    record(&mut out, "join", &mut taq, JOIN_SHAPES);
    record(&mut out, "join error", &mut taq, JOIN_ERROR_PROBES);
    out
}

#[test]
fn translations_match_the_golden_file_byte_for_byte() {
    let actual = translations();
    let path = golden_path();
    let Ok(golden) = std::fs::read_to_string(&path) else {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        panic!("no golden file: wrote {} — review and commit it", path.display());
    };
    if golden == actual {
        return;
    }
    let (g, a): (Vec<&str>, Vec<&str>) =
        (golden.split("\n\n").collect(), actual.split("\n\n").collect());
    let first = g.iter().zip(&a).position(|(x, y)| x != y).unwrap_or(g.len().min(a.len()));
    panic!(
        "translation {} differs from {} ({} golden records, {} now)\n--- golden\n{}\n--- now\n{}",
        first + 1,
        path.display(),
        g.len(),
        a.len(),
        g.get(first).unwrap_or(&"<none>"),
        a.get(first).unwrap_or(&"<none>")
    );
}
