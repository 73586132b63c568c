//! Shared by the differential test binaries: the corpus, and the
//! two-arm row the hand-written side-by-side checks run. Each binary
//! uses only some of it.
#![allow(dead_code)]

pub mod corpus;

use hyperq::side_by_side::{Arm, Baseline, Matrix, Report, Rule};
use hyperq::SessionConfig;
use qlang::value::Table;

/// `stmts`, in order, as one program on the reference and on a session
/// under `config` over `tables`: each must succeed on the reference,
/// and the two must agree. The report carries every outcome.
pub fn side_by_side(tables: &[(String, Table)], config: SessionConfig, stmts: &[&str]) -> Report {
    let report = Matrix::new(&[Arm::Qengine, Arm::Session(config)], Rule::Reference, 1)
        .statements(tables, &[(stmts, Baseline::Succeeds)]);
    report.assert_clean(stmts.len());
    report
}
